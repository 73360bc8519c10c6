//! Operation descriptors: the units of work enqueued on simulated streams.

use crate::error::SimError;
use crate::memory::{DevBufId, HostBufId, Payload};

/// Identifier of a simulated stream (the CUDA-stream analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// Raw index, for display purposes.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a stream id from a raw index, for synthesising trace entries
    /// in tests and tooling. Not a valid handle for enqueueing unless the
    /// index came from [`Gpu::create_stream`](crate::Gpu::create_stream).
    ///
    /// # Panics
    ///
    /// If `index` does not fit in `u32`.
    pub fn from_raw(index: usize) -> StreamId {
        StreamId(u32::try_from(index).expect("stream index exceeds u32"))
    }
}

/// Identifier of a recorded inter-stream synchronisation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) usize);

/// A 2-D strided element region inside a buffer, in elements.
///
/// Describes the sub-matrix layout of both ends of a
/// `cublas{Set,Get}MatrixAsync`-style copy: `rows × cols` elements starting
/// at `offset`, with consecutive columns `ld` elements apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region2d {
    /// Linear element offset of the region's first element.
    pub offset: usize,
    /// Leading dimension (stride between columns) in elements.
    pub ld: usize,
    /// Rows per column (contiguous run length).
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Region2d {
    /// A contiguous 1-D region of `len` elements starting at `offset`.
    pub fn contiguous(offset: usize, len: usize) -> Self {
        Region2d {
            offset,
            ld: len.max(1),
            rows: len,
            cols: 1,
        }
    }

    /// Total element count of the region.
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }

    /// One-past-the-end linear index touched by the region (0 if empty).
    pub fn max_index(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            return 0;
        }
        self.offset + (self.cols - 1) * self.ld + self.rows
    }

    /// Validates the region against a buffer of `len` elements.
    pub(crate) fn check(&self, len: usize, what: &str) -> Result<(), SimError> {
        if self.rows > 0 && self.ld < self.rows {
            return Err(SimError::InvalidAccess {
                what: format!("{what}: ld {} < rows {}", self.ld, self.rows),
            });
        }
        if self.max_index() > len {
            return Err(SimError::InvalidAccess {
                what: format!(
                    "{what}: region reaches element {} of a {len}-element buffer",
                    self.max_index()
                ),
            });
        }
        Ok(())
    }
}

/// Endpoint pair of a host↔device copy. Direction comes from the API used
/// ([`Gpu::memcpy_h2d_async`](crate::Gpu::memcpy_h2d_async) vs
/// [`Gpu::memcpy_d2h_async`](crate::Gpu::memcpy_d2h_async)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyDesc {
    /// Host-side buffer.
    pub host: HostBufId,
    /// Region within the host buffer.
    pub host_region: Region2d,
    /// Device-side buffer.
    pub dev: DevBufId,
    /// Region within the device buffer.
    pub dev_region: Region2d,
}

impl CopyDesc {
    /// Copy of `len` contiguous elements between the starts of two buffers.
    pub fn contiguous(host: HostBufId, dev: DevBufId, len: usize) -> Self {
        CopyDesc {
            host,
            host_region: Region2d::contiguous(0, len),
            dev,
            dev_region: Region2d::contiguous(0, len),
        }
    }

    /// Validates region shape agreement (`rows × cols` must match).
    pub(crate) fn check_shapes(&self) -> Result<(), SimError> {
        if self.host_region.rows != self.dev_region.rows
            || self.host_region.cols != self.dev_region.cols
        {
            return Err(SimError::InvalidAccess {
                what: format!(
                    "copy region shape mismatch: host {}x{} vs device {}x{}",
                    self.host_region.rows,
                    self.host_region.cols,
                    self.dev_region.rows,
                    self.dev_region.cols
                ),
            });
        }
        Ok(())
    }
}

/// Reference to a column-major matrix stored inside a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevMatRef {
    /// Device buffer holding the matrix.
    pub buf: DevBufId,
    /// Element offset of element (0, 0).
    pub offset: usize,
    /// Leading dimension in elements.
    pub ld: usize,
}

/// Reference to a contiguous vector stored inside a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevVecRef {
    /// Device buffer holding the vector.
    pub buf: DevBufId,
    /// Element offset of the first element.
    pub offset: usize,
}

/// Functional-mode arguments of a kernel launch. `None` in timing-only mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArgs {
    /// Arguments for [`KernelShape::Gemm`](crate::KernelShape::Gemm).
    Gemm {
        /// Scale on `A·B`.
        alpha: f64,
        /// Scale on the prior value of `C`.
        beta: f64,
        /// Left operand (`m × k`).
        a: DevMatRef,
        /// Right operand (`k × n`).
        b: DevMatRef,
        /// Output operand (`m × n`); must not alias `a` or `b`.
        c: DevMatRef,
    },
    /// Arguments for [`KernelShape::Axpy`](crate::KernelShape::Axpy).
    Axpy {
        /// Scale on `x`.
        alpha: f64,
        /// Input vector.
        x: DevVecRef,
        /// In/out vector; must not alias `x`.
        y: DevVecRef,
    },
    /// Arguments for [`KernelShape::Dot`](crate::KernelShape::Dot).
    Dot {
        /// First input vector.
        x: DevVecRef,
        /// Second input vector (may alias `x` for norms).
        y: DevVecRef,
        /// One-element output slot for the partial result; must not alias
        /// the inputs.
        out: DevVecRef,
    },
    /// Arguments for [`KernelShape::Gemv`](crate::KernelShape::Gemv).
    Gemv {
        /// Scale on `A·x`.
        alpha: f64,
        /// Scale on the prior value of `y`.
        beta: f64,
        /// Matrix operand (`m × n`).
        a: DevMatRef,
        /// Input vector (`n`).
        x: DevVecRef,
        /// In/out vector (`m`); must not alias `a` or `x`.
        y: DevVecRef,
    },
}

impl KernelArgs {
    /// The device buffers the kernel names.
    pub(crate) fn buffers(&self) -> [DevBufId; 3] {
        match *self {
            KernelArgs::Gemm { a, b, c, .. } => [a.buf, b.buf, c.buf],
            KernelArgs::Axpy { x, y, .. } => [x.buf, y.buf, y.buf],
            KernelArgs::Dot { x, y, out } => [x.buf, y.buf, out.buf],
            KernelArgs::Gemv { a, x, y, .. } => [a.buf, x.buf, y.buf],
        }
    }
}

/// What an enqueued engine op does, reduced to what timing needs.
/// Crate-internal; users go through the `Gpu` API. Functional payloads
/// (copy regions, kernel arguments) live with the `Gpu`, not here. Stored
/// packed in an [`Op`]; event records and waits are [`InstantOp`]s instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OpKind {
    H2d {
        bytes: usize,
        pageable: bool,
    },
    D2h {
        bytes: usize,
        pageable: bool,
    },
    /// Index into the simulator's pending-kernel table
    /// (`(KernelShape, base_secs)`).
    Kernel(u32),
}

/// Internal handle for an enqueued op: its global enqueue index, counting
/// event records and waits.
pub(crate) type OpId = usize;

/// An [`OpKind`]'s variant, with a copy's `pageable` flag folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpCode {
    H2d,
    H2dPageable,
    D2h,
    D2hPageable,
    Kernel,
}

/// One pending engine op (a copy or a kernel), in 24 bytes: [`Op::new`]
/// packs its [`OpKind`] into `code` and `arg`, and [`Op::kind`] unpacks
/// it. Its stream is not stored: it travels with the op once the op
/// leaves its stream for an engine. Retired (with the instant, kernel and
/// tag tables) once the simulator is idle, so the table only ever holds
/// the current batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Op {
    /// A copy's byte count, or a kernel's table index.
    arg: u64,
    /// Position among every op the batch enqueued, instants included: the
    /// op's global id less the batch's first.
    pub seq: u32,
    /// Interned ambient routine tag at enqueue time (0 = untagged).
    pub tag: u32,
    /// Stream-FIFO link to the next op on the same stream; meaningless
    /// while this op is its stream's tail.
    pub next: u32,
    code: OpCode,
    /// `true` once the op has been handed to an engine.
    pub issued: bool,
}

impl Op {
    /// A not-yet-issued op of `kind`, the `seq`-th enqueue of its batch.
    #[inline]
    pub fn new(kind: OpKind, seq: u32, tag: u32) -> Op {
        let (code, arg) = match kind {
            OpKind::H2d { bytes, pageable } => (
                if pageable {
                    OpCode::H2dPageable
                } else {
                    OpCode::H2d
                },
                bytes as u64,
            ),
            OpKind::D2h { bytes, pageable } => (
                if pageable {
                    OpCode::D2hPageable
                } else {
                    OpCode::D2h
                },
                bytes as u64,
            ),
            OpKind::Kernel(idx) => (OpCode::Kernel, u64::from(idx)),
        };
        Op {
            arg,
            seq,
            tag,
            next: 0,
            code,
            issued: false,
        }
    }

    /// What the op does, as [`new`](Self::new) was given it.
    #[inline]
    pub fn kind(&self) -> OpKind {
        // `arg` holds a `usize` byte count or a `u32` index, so each cast
        // restores the value `new` stored.
        let (bytes, idx) = (self.arg as usize, self.arg as u32);
        match self.code {
            OpCode::H2d | OpCode::H2dPageable => OpKind::H2d {
                bytes,
                pageable: self.code == OpCode::H2dPageable,
            },
            OpCode::D2h | OpCode::D2hPageable => OpKind::D2h {
                bytes,
                pageable: self.code == OpCode::D2hPageable,
            },
            OpCode::Kernel => OpKind::Kernel(idx),
        }
    }
}

/// One pending event record or wait, in 8 bytes. Instants take no engine
/// time and record no trace entry, so all they need is their event slot
/// and their stream-FIFO link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InstantOp {
    /// Index into the simulator's pending-event table, with
    /// [`InstantOp::WAIT`] set on a wait.
    slot: u32,
    /// Stream-FIFO link to the next op on the same stream, as [`Op::next`].
    pub next: u32,
}

impl InstantOp {
    /// The bit of `slot` that marks a wait.
    const WAIT: u32 = 1 << 31;

    /// A record of event `slot`.
    ///
    /// # Panics
    ///
    /// If `slot` does not fit in 31 bits.
    pub fn record(slot: u32) -> InstantOp {
        assert!(slot < Self::WAIT, "event slot {slot} exceeds 31 bits");
        InstantOp { slot, next: 0 }
    }

    /// A wait for event `slot`.
    ///
    /// # Panics
    ///
    /// If `slot` does not fit in 31 bits.
    pub fn wait(slot: u32) -> InstantOp {
        let mut op = Self::record(slot);
        op.slot |= Self::WAIT;
        op
    }

    /// Whether this is a wait (else a record).
    #[inline]
    pub fn is_wait(self) -> bool {
        self.slot & Self::WAIT != 0
    }

    /// The event slot recorded or waited for.
    #[inline]
    pub fn slot(self) -> u32 {
        self.slot & !Self::WAIT
    }
}

/// Validates that a matrix reference fits inside its payload.
pub(crate) fn check_mat_ref(
    payload: &Payload,
    r: &DevMatRef,
    rows: usize,
    cols: usize,
    what: &str,
) -> Result<(), SimError> {
    let region = Region2d {
        offset: r.offset,
        ld: r.ld,
        rows,
        cols,
    };
    region.check(payload.len(), what)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_region() {
        let r = Region2d::contiguous(3, 10);
        assert_eq!(r.elems(), 10);
        assert_eq!(r.max_index(), 13);
    }

    #[test]
    fn empty_region_max_index_zero() {
        let r = Region2d {
            offset: 5,
            ld: 4,
            rows: 0,
            cols: 0,
        };
        assert_eq!(r.max_index(), 0);
        assert!(r.check(0, "x").is_ok());
    }

    #[test]
    fn region_bounds_check() {
        let r = Region2d {
            offset: 0,
            ld: 4,
            rows: 4,
            cols: 3,
        };
        assert_eq!(r.max_index(), 12);
        assert!(r.check(12, "x").is_ok());
        assert!(r.check(11, "x").is_err());
    }

    #[test]
    fn region_ld_too_small_rejected() {
        let r = Region2d {
            offset: 0,
            ld: 2,
            rows: 4,
            cols: 1,
        };
        assert!(r.check(100, "x").is_err());
    }

    #[test]
    fn op_fits_24_bytes() {
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "{}",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn instant_fits_8_bytes() {
        assert!(
            std::mem::size_of::<InstantOp>() <= 8,
            "{}",
            std::mem::size_of::<InstantOp>()
        );
    }

    #[test]
    fn op_kinds_round_trip_through_the_packed_op() {
        for kind in [
            OpKind::H2d {
                bytes: 0,
                pageable: false,
            },
            OpKind::H2d {
                bytes: usize::MAX,
                pageable: true,
            },
            OpKind::D2h {
                bytes: 4096,
                pageable: false,
            },
            OpKind::D2h {
                bytes: 1 << 40,
                pageable: true,
            },
            OpKind::Kernel(u32::MAX),
        ] {
            let op = Op::new(kind, 3, 2);
            assert_eq!(op.kind(), kind);
            assert_eq!((op.seq, op.tag, op.next, op.issued), (3, 2, 0, false));
        }
    }

    #[test]
    fn instants_round_trip_their_slot_and_kind() {
        for slot in [0, 7, (1 << 31) - 1] {
            let (record, wait) = (InstantOp::record(slot), InstantOp::wait(slot));
            assert_eq!(
                (record.slot(), record.is_wait(), record.next),
                (slot, false, 0)
            );
            assert_eq!((wait.slot(), wait.is_wait(), wait.next), (slot, true, 0));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 31 bits")]
    fn instant_slot_past_31_bits_is_rejected() {
        InstantOp::wait(1 << 31);
    }

    #[test]
    fn copy_shape_mismatch_rejected() {
        let desc = CopyDesc {
            host: HostBufId(Default::default()),
            host_region: Region2d {
                offset: 0,
                ld: 4,
                rows: 4,
                cols: 2,
            },
            dev: DevBufId(Default::default()),
            dev_region: Region2d {
                offset: 0,
                ld: 4,
                rows: 4,
                cols: 3,
            },
        };
        assert!(desc.check_shapes().is_err());
    }
}
