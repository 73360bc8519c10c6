//! Host and device memory modelling.
//!
//! Host buffers play the role of pinned (or pageable) staging memory —
//! `cudaHostAlloc` in the paper's setup. Device buffers live in the GPU's
//! capacity-tracked memory. In *functional* mode both sides carry real
//! element data so kernels can compute; in *timing* mode they are ghosts that
//! only remember their type and length.

use crate::error::SimError;
use crate::op::OpId;
use cocopelia_hostblas::Dtype;

/// Slot index and generation shared by both buffer-id kinds (8 bytes). A
/// slot's generation advances each time a new buffer takes it, so a stale
/// id never resolves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct RawId {
    slot: u32,
    gen: u32,
}

impl RawId {
    #[cfg(test)]
    pub(crate) fn slot(self) -> u32 {
        self.slot
    }
}

impl std::fmt::Display for RawId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (generation {})", self.slot, self.gen)
    }
}

/// Identifier of a host (staging) buffer: a slot of the host arena plus
/// the slot's generation. Freed slots are reused, so an id taken before
/// its buffer was unregistered stays unknown afterwards. Ids order by
/// slot, not by registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostBufId(pub(crate) RawId);

/// Identifier of a device buffer: a slot of device memory plus the slot's
/// generation. Freed slots are reused, so an id taken before its buffer
/// was freed stays unknown afterwards. Ids order by slot, not by
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevBufId(pub(crate) RawId);

/// A point in one device's allocation history
/// ([`Gpu::alloc_mark`](crate::Gpu::alloc_mark)): the sequence numbers the
/// next device allocation and host registration receive. Opaque: ask
/// [`Gpu::allocated_since`](crate::Gpu::allocated_since) whether a buffer
/// was allocated at or after it, or list the survivors with
/// [`Gpu::live_device_buffers_since`](crate::Gpu::live_device_buffers_since)
/// and [`Gpu::live_host_buffers_since`](crate::Gpu::live_host_buffers_since).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocMark {
    pub(crate) dev: u64,
    pub(crate) host: u64,
}

/// A buffer table that reuses freed slots through a free list. A slot's
/// occupant carries its generation, which every [`RawId`] naming it must
/// match, so an id whose slot now holds a later buffer resolves to
/// nothing; a freed slot holds no value until then. Each occupant also
/// records its allocation's sequence number in the table, which orders
/// allocations for [`AllocMark`]. The table grows only to the peak number
/// of live buffers.
#[derive(Debug)]
struct Slots<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    next_seq: u64,
}

#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    seq: u64,
    /// `None` once freed, or while a payload is taken out
    /// ([`DeviceMemory::take_payload`]).
    value: Option<T>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<T> Slots<T> {
    fn insert(&mut self, value: T) -> RawId {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.gen = s.gen.wrapping_add(1);
                s.seq = seq;
                s.value = Some(value);
                RawId { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live buffers");
                self.slots.push(Slot {
                    gen: 0,
                    seq,
                    value: Some(value),
                });
                RawId { slot, gen: 0 }
            }
        }
    }

    fn slot(&self, id: RawId) -> Option<&Slot<T>> {
        self.slots.get(id.slot as usize).filter(|s| s.gen == id.gen)
    }

    fn slot_mut(&mut self, id: RawId) -> Option<&mut Slot<T>> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|s| s.gen == id.gen)
    }

    fn get(&self, id: RawId) -> Option<&T> {
        self.slot(id)?.value.as_ref()
    }

    fn get_mut(&mut self, id: RawId) -> Option<&mut T> {
        self.slot_mut(id)?.value.as_mut()
    }

    /// The allocation sequence number of live buffer `id`.
    fn seq(&self, id: RawId) -> Option<u64> {
        self.slot(id).filter(|s| s.value.is_some()).map(|s| s.seq)
    }

    /// Takes the value out without freeing the slot (see
    /// [`DeviceMemory::take_payload`]).
    fn take(&mut self, id: RawId) -> Option<T> {
        self.slot_mut(id)?.value.take()
    }

    /// Puts back a value taken with [`take`](Self::take).
    fn restore(&mut self, id: RawId, value: T) {
        let slot = self.slot_mut(id).expect("restored into its own slot");
        slot.value = Some(value);
    }

    /// Removes the value and puts its slot on the free list.
    fn remove(&mut self, id: RawId) -> Option<T> {
        let value = self.take(id)?;
        self.free.push(id.slot);
        Some(value)
    }

    /// The sequence number the next insertion receives.
    fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Ids of the occupied slots inserted at or after sequence number
    /// `from`, in insertion order. Scans the slot table, which is bounded
    /// by the peak live count, not by the allocation history.
    fn live_since(&self, from: u64) -> Vec<RawId> {
        let mut live: Vec<(u64, RawId)> = self
            .slots
            .iter()
            .zip(0..)
            .filter(|(s, _)| s.seq >= from && s.value.is_some())
            .map(|(s, slot)| (s.seq, RawId { slot, gen: s.gen }))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, id)| id).collect()
    }

    /// Slots in the table, live or free.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Element storage of a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Real single-precision data (functional mode).
    F32(Vec<f32>),
    /// Real double-precision data (functional mode).
    F64(Vec<f64>),
    /// Metadata-only storage (timing mode).
    Ghost {
        /// Element precision the ghost represents.
        dtype: Dtype,
        /// Element count the ghost represents.
        len: usize,
    },
}

impl Payload {
    /// Allocates a zero-filled payload.
    pub fn new(dtype: Dtype, len: usize, functional: bool) -> Payload {
        if functional {
            match dtype {
                Dtype::F32 => Payload::F32(vec![0.0; len]),
                Dtype::F64 => Payload::F64(vec![0.0; len]),
            }
        } else {
            Payload::Ghost { dtype, len }
        }
    }

    /// Element precision.
    pub fn dtype(&self) -> Dtype {
        match self {
            Payload::F32(_) => Dtype::F32,
            Payload::F64(_) => Dtype::F64,
            Payload::Ghost { dtype, .. } => *dtype,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::F64(v) => v.len(),
            Payload::Ghost { len, .. } => *len,
        }
    }

    /// True if the payload holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * self.dtype().width()
    }

    /// True if real data is present (functional mode).
    pub fn is_functional(&self) -> bool {
        !matches!(self, Payload::Ghost { .. })
    }

    /// Borrow as `f64` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f64` storage.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }

    /// Mutably borrow as `f64` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f64` storage.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }

    /// Borrow as `f32` data.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional `f32` storage.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            Payload::F32(v) => v,
            other => panic!("payload is {:?}, not functional f32", other.dtype()),
        }
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Self {
        Payload::F32(v)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

/// A host-side staging buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBuffer {
    /// Element storage.
    pub payload: Payload,
    /// Whether the buffer is page-locked. Pageable buffers transfer at a
    /// reduced bandwidth ([`LinkSpec::pageable_factor`](crate::spec::LinkSpec)).
    pub pinned: bool,
}

/// Registry of host buffers known to the simulator.
#[derive(Debug, Default)]
pub(crate) struct HostArena {
    bufs: Slots<HostBuffer>,
}

fn unknown_host(id: HostBufId) -> SimError {
    SimError::UnknownBuffer {
        what: format!("host buffer {}", id.0),
    }
}

impl HostArena {
    pub(crate) fn register(&mut self, buf: HostBuffer) -> HostBufId {
        HostBufId(self.bufs.insert(buf))
    }

    pub(crate) fn get(&self, id: HostBufId) -> Result<&HostBuffer, SimError> {
        self.bufs.get(id.0).ok_or_else(|| unknown_host(id))
    }

    pub(crate) fn get_mut(&mut self, id: HostBufId) -> Result<&mut HostBuffer, SimError> {
        self.bufs.get_mut(id.0).ok_or_else(|| unknown_host(id))
    }

    pub(crate) fn unregister(&mut self, id: HostBufId) -> Result<HostBuffer, SimError> {
        self.bufs.remove(id.0).ok_or_else(|| unknown_host(id))
    }

    /// The sequence number the next registration receives.
    pub(crate) fn next_seq(&self) -> u64 {
        self.bufs.next_seq()
    }

    /// Ids of the live host buffers registered at or after sequence
    /// number `from`, in registration order.
    pub(crate) fn live_since(&self, from: u64) -> Vec<HostBufId> {
        self.bufs
            .live_since(from)
            .into_iter()
            .map(HostBufId)
            .collect()
    }
}

/// Capacity-tracked device memory.
#[derive(Debug)]
pub(crate) struct DeviceMemory {
    capacity: usize,
    used: usize,
    bufs: Slots<Payload>,
    /// Per slot, the global id of the last enqueued op that names the
    /// buffer in it (`None` until one does).
    last_use: Vec<Option<OpId>>,
}

fn unknown_dev(id: DevBufId) -> SimError {
    SimError::UnknownBuffer {
        what: format!("device buffer {}", id.0),
    }
}

impl DeviceMemory {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: 0,
            bufs: Slots::default(),
            last_use: Vec::new(),
        }
    }

    pub(crate) fn used(&self) -> usize {
        self.used
    }

    pub(crate) fn available(&self) -> usize {
        self.capacity - self.used
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number the next allocation receives.
    pub(crate) fn next_seq(&self) -> u64 {
        self.bufs.next_seq()
    }

    /// The allocation sequence number of live buffer `id`, `None` once
    /// it is freed.
    pub(crate) fn seq(&self, id: DevBufId) -> Option<u64> {
        self.bufs.seq(id.0)
    }

    /// Ids of the live (not yet freed) device buffers allocated at or
    /// after sequence number `from`, in allocation order.
    pub(crate) fn live_since(&self, from: u64) -> Vec<DevBufId> {
        self.bufs
            .live_since(from)
            .into_iter()
            .map(DevBufId)
            .collect()
    }

    pub(crate) fn alloc(
        &mut self,
        dtype: Dtype,
        len: usize,
        functional: bool,
    ) -> Result<DevBufId, SimError> {
        let bytes = len * dtype.width();
        if bytes > self.available() {
            return Err(SimError::OutOfDeviceMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        let id = self.bufs.insert(Payload::new(dtype, len, functional));
        let slot = id.slot as usize;
        if slot >= self.last_use.len() {
            self.last_use.resize(slot + 1, None);
        }
        self.last_use[slot] = None;
        Ok(DevBufId(id))
    }

    /// Notes that op `op`, just enqueued, names live buffer `id`.
    pub(crate) fn note_use(&mut self, id: DevBufId, op: OpId) {
        self.last_use[id.0.slot as usize] = Some(op);
    }

    /// The last enqueued op that names live buffer `id`, if any did.
    pub(crate) fn last_use(&self, id: DevBufId) -> Option<OpId> {
        self.bufs.get(id.0)?;
        self.last_use[id.0.slot as usize]
    }

    pub(crate) fn free(&mut self, id: DevBufId) -> Result<(), SimError> {
        let p = self.bufs.remove(id.0).ok_or_else(|| unknown_dev(id))?;
        self.used -= p.bytes();
        Ok(())
    }

    pub(crate) fn get(&self, id: DevBufId) -> Result<&Payload, SimError> {
        self.bufs.get(id.0).ok_or_else(|| unknown_dev(id))
    }

    /// Temporarily removes a payload (used by the functional executor to
    /// obtain disjoint borrows of kernel operands). The slot stays
    /// allocated until the payload is restored.
    pub(crate) fn take_payload(&mut self, id: DevBufId) -> Result<Payload, SimError> {
        self.bufs.take(id.0).ok_or_else(|| unknown_dev(id))
    }

    /// Restores a payload previously removed with [`take_payload`](Self::take_payload).
    pub(crate) fn restore_payload(&mut self, id: DevBufId, payload: Payload) {
        self.bufs.restore(id.0, payload);
    }
}

#[cfg(test)]
#[allow(clippy::items_after_test_module)]
mod tests {
    use super::*;

    #[test]
    fn payload_ghost_tracks_metadata() {
        let p = Payload::new(Dtype::F64, 10, false);
        assert_eq!(p.len(), 10);
        assert_eq!(p.bytes(), 80);
        assert!(!p.is_functional());
    }

    #[test]
    fn payload_functional_zeroed() {
        let p = Payload::new(Dtype::F32, 4, true);
        assert_eq!(p.as_f32(), &[0.0; 4]);
        assert!(p.is_functional());
    }

    #[test]
    #[should_panic(expected = "not functional f64")]
    fn wrong_view_panics() {
        let p = Payload::new(Dtype::F32, 4, true);
        let _ = p.as_f64();
    }

    #[test]
    fn device_memory_accounting() {
        let mut dm = DeviceMemory::new(100);
        let a = dm.alloc(Dtype::F64, 5, false).expect("fits"); // 40 bytes
        assert_eq!(dm.used(), 40);
        let b = dm.alloc(Dtype::F32, 10, false).expect("fits"); // 40 bytes
        assert_eq!(dm.available(), 20);
        let err = dm.alloc(Dtype::F64, 4, false).expect_err("32 > 20");
        assert!(matches!(
            err,
            SimError::OutOfDeviceMemory {
                requested: 32,
                available: 20
            }
        ));
        dm.free(a).expect("free a");
        assert_eq!(dm.used(), 40);
        dm.free(b).expect("free b");
        assert_eq!(dm.used(), 0);
    }

    #[test]
    fn double_free_is_error() {
        let mut dm = DeviceMemory::new(100);
        let a = dm.alloc(Dtype::F64, 1, false).expect("fits");
        dm.free(a).expect("first free");
        assert!(dm.free(a).is_err());
        assert!(dm.get(a).is_err());
    }

    #[test]
    fn host_arena_round_trip() {
        let mut arena = HostArena::default();
        let id = arena.register(HostBuffer {
            payload: vec![1.0f64, 2.0].into(),
            pinned: true,
        });
        assert_eq!(arena.get(id).expect("present").payload.len(), 2);
        let buf = arena.unregister(id).expect("present");
        assert_eq!(buf.payload.as_f64(), &[1.0, 2.0]);
        assert!(arena.get(id).is_err());
    }

    #[test]
    fn freed_slots_are_reused_and_stale_ids_stay_unknown() {
        let mut dm = DeviceMemory::new(1000);
        let a = dm.alloc(Dtype::F64, 1, false).expect("fits");
        dm.free(a).expect("free");
        let b = dm.alloc(Dtype::F64, 2, false).expect("fits");
        assert_eq!(a.0.slot, b.0.slot, "the freed slot is reused");
        assert_ne!(a, b);
        assert!(matches!(dm.get(a), Err(SimError::UnknownBuffer { .. })));
        assert!(matches!(dm.free(a), Err(SimError::UnknownBuffer { .. })));
        assert_eq!(dm.get(b).expect("live").len(), 2);
        dm.free(b).expect("free");
        assert!(dm.free(b).is_err(), "double free after reuse");

        let mut arena = HostArena::default();
        let ghost = |len| HostBuffer {
            payload: Payload::new(Dtype::F32, len, false),
            pinned: true,
        };
        let h = arena.register(ghost(1));
        arena.unregister(h).expect("present");
        let g = arena.register(ghost(3));
        assert_eq!(h.0.slot, g.0.slot, "the freed slot is reused");
        assert!(matches!(arena.get(h), Err(SimError::UnknownBuffer { .. })));
        assert!(matches!(
            arena.unregister(h),
            Err(SimError::UnknownBuffer { .. })
        ));
        assert_eq!(arena.get(g).expect("live").payload.len(), 3);
    }

    #[test]
    fn slot_tables_grow_only_to_the_peak_live_count() {
        let mut dm = DeviceMemory::new(1 << 20);
        let mut arena = HostArena::default();
        let mut live_dev: Vec<DevBufId> = Vec::new();
        let mut live_host: Vec<HostBufId> = Vec::new();
        let mut peak = 0;
        for i in 0..10_000usize {
            // A sawtooth of 1..=7 live buffers, freed oldest or newest
            // first by turns.
            live_dev.push(dm.alloc(Dtype::F64, 4, false).expect("fits"));
            live_host.push(arena.register(HostBuffer {
                payload: Payload::new(Dtype::F64, 4, false),
                pinned: false,
            }));
            peak = peak.max(live_dev.len());
            if i % 7 == 6 {
                if i % 2 == 0 {
                    live_dev.reverse();
                }
                for d in live_dev.drain(..) {
                    dm.free(d).expect("free");
                }
                for h in live_host.drain(..) {
                    arena.unregister(h).expect("unregister");
                }
            }
        }
        assert_eq!(peak, 7);
        assert!(dm.bufs.len() <= peak, "{} device slots", dm.bufs.len());
        assert!(arena.bufs.len() <= peak, "{} host slots", arena.bufs.len());
        assert_eq!(dm.used(), live_dev.len() * 32);
    }

    #[test]
    fn take_restore_payload() {
        let mut dm = DeviceMemory::new(1000);
        let a = dm.alloc(Dtype::F64, 2, true).expect("fits");
        let mut p = dm.take_payload(a).expect("present");
        p.as_f64_mut()[0] = 7.0;
        dm.restore_payload(a, p);
        assert_eq!(dm.get(a).expect("present").as_f64()[0], 7.0);
    }
}

/// Extension of [`Scalar`](cocopelia_hostblas::Scalar) that ties each
/// element type to its [`Payload`] representation, letting generic
/// schedulers move typed data through the simulator without matching on
/// [`Dtype`] at every call site.
pub trait SimScalar: cocopelia_hostblas::Scalar {
    /// The runtime type tag for this scalar.
    const DTYPE: Dtype;

    /// Wraps an owned vector as a payload.
    fn into_payload(v: Vec<Self>) -> Payload;

    /// Borrows a payload's data as this type.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional storage of this type.
    fn payload_slice(p: &Payload) -> &[Self];

    /// Consumes a payload into an owned vector of this type.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not functional storage of this type.
    fn payload_into_vec(p: Payload) -> Vec<Self>;
}

impl SimScalar for f32 {
    const DTYPE: Dtype = Dtype::F32;

    fn into_payload(v: Vec<Self>) -> Payload {
        Payload::F32(v)
    }

    fn payload_slice(p: &Payload) -> &[Self] {
        p.as_f32()
    }

    fn payload_into_vec(p: Payload) -> Vec<Self> {
        match p {
            Payload::F32(v) => v,
            other => panic!("payload is {:?}, not functional f32", other.dtype()),
        }
    }
}

impl SimScalar for f64 {
    const DTYPE: Dtype = Dtype::F64;

    fn into_payload(v: Vec<Self>) -> Payload {
        Payload::F64(v)
    }

    fn payload_slice(p: &Payload) -> &[Self] {
        p.as_f64()
    }

    fn payload_into_vec(p: Payload) -> Vec<Self> {
        match p {
            Payload::F64(v) => v,
            other => panic!("payload is {:?}, not functional f64", other.dtype()),
        }
    }
}
