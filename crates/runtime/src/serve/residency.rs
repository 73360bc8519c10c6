//! Per-device LRU cache of shared, device-resident operands.

use crate::error::RuntimeError;
use crate::request::Shape;
use cocopelia_gpusim::DevBufId;
use cocopelia_hostblas::Dtype;
use std::collections::HashMap;

/// One cache entry: a shared operand, matrix or vector alike, and the
/// device buffer that holds it.
#[derive(Debug, Clone)]
pub(crate) struct Resident {
    pub(crate) key: String,
    dtype: Dtype,
    shape: Shape,
    pub(crate) buf: DevBufId,
    pub(crate) bytes: usize,
    last_use: u64,
}

/// An LRU cache of shared operands resident on one device, bounded by a
/// byte budget carved out of device memory.
///
/// The cache tracks device buffers; the executor owns the device and
/// performs the actual allocation/free calls with the buffers this cache
/// evicts. An entry is keyed by its key and must match the dtype and
/// shape a request declares, so a matrix entry never serves a vector of
/// the same element count.
///
/// Entries are indexed by key in a `HashMap`, so `lookup`/`contains` —
/// which dispatch calls per shared key × device × queued request — are
/// O(1) instead of a `Vec` scan. LRU order lives in each entry's
/// `last_use` stamp (strictly increasing, hence unique), and every path
/// that surfaces multiple entries (`evict_for`, `clear`,
/// `device_buffers`) orders by it, so nothing about the map's iteration
/// order can leak into the executor's free/upload sequence and break
/// bit-identical replays.
#[derive(Debug)]
pub struct ResidencyCache {
    budget_bytes: usize,
    used_bytes: usize,
    clock: u64,
    entries: HashMap<String, Resident>,
}

impl ResidencyCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        ResidencyCache {
            budget_bytes,
            used_bytes: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached operands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when an operand of `bytes` could ever be cached.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.budget_bytes
    }

    /// True when an operand of `bytes` can be cached without evicting any
    /// entry whose key is `pinned`: the bytes plus every resident pinned
    /// entry must fit in the budget. The executor pins the keys of the
    /// request being resolved so a later operand never evicts an earlier
    /// one, and those of the attempts in flight on the device.
    pub(crate) fn fits_pinned(&self, bytes: usize, pinned: impl Fn(&str) -> bool) -> bool {
        // Iterate entries, not `pinned`: a self-referencing request (W·W)
        // pins the same key twice, which must not double-count.
        let pinned_bytes: usize = self
            .entries
            .values()
            .filter(|e| pinned(&e.key))
            .map(|e| e.bytes)
            .sum();
        bytes + pinned_bytes <= self.budget_bytes
    }

    /// Looks up a shared operand, refreshing its LRU position on a hit.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DimensionMismatch`] when `key` is cached with a
    /// different dtype or shape than the request declares.
    pub(crate) fn lookup(
        &mut self,
        key: &str,
        dtype: Dtype,
        shape: Shape,
    ) -> Result<Option<DevBufId>, RuntimeError> {
        let Some(e) = self.entries.get_mut(key) else {
            return Ok(None);
        };
        if e.dtype != dtype || e.shape != shape {
            return Err(RuntimeError::DimensionMismatch {
                what: format!(
                    "shared operand '{key}' is cached with a different dtype or shape \
                     than the request declares"
                ),
            });
        }
        self.clock += 1;
        e.last_use = self.clock;
        Ok(Some(e.buf))
    }

    /// Evicts least-recently-used entries until `bytes` more would fit in
    /// the budget, returning the evicted entries for the executor to free.
    /// `pinned` keys are never evicted (see
    /// [`fits_pinned`](Self::fits_pinned));
    /// call only after a miss, and only when
    /// [`fits_pinned`](Self::fits_pinned) said the bytes can be made to fit.
    pub(crate) fn evict_for(
        &mut self,
        bytes: usize,
        pinned: impl Fn(&str) -> bool,
    ) -> Vec<Resident> {
        let mut evicted = Vec::new();
        while self.used_bytes + bytes > self.budget_bytes {
            // `last_use` stamps are unique, so the minimum is a single
            // deterministic victim regardless of map iteration order.
            let Some(key) = self
                .entries
                .values()
                .filter(|e| !pinned(&e.key))
                .min_by_key(|e| e.last_use)
                .map(|e| e.key.clone())
            else {
                break;
            };
            let e = self.entries.remove(&key).expect("victim is resident");
            self.used_bytes -= e.bytes;
            evicted.push(e);
        }
        evicted
    }

    /// Caches the operand held in `buf` under `key`, returning whether the
    /// entry was inserted. A duplicate key is *rejected* (`false`) rather
    /// than shadowing or double-counting the resident entry — the caller
    /// still owns the buffer it tried to insert.
    pub(crate) fn insert(&mut self, key: &str, dtype: Dtype, shape: Shape, buf: DevBufId) -> bool {
        if self.entries.contains_key(key) {
            return false;
        }
        self.clock += 1;
        let bytes = shape.len() * dtype.width();
        self.used_bytes += bytes;
        self.entries.insert(
            key.to_owned(),
            Resident {
                key: key.to_owned(),
                dtype,
                shape,
                buf,
                bytes,
                last_use: self.clock,
            },
        );
        true
    }

    /// Empties the cache, returning every entry for the executor to free
    /// in LRU order (deterministic: `last_use` stamps are unique).
    pub(crate) fn clear(&mut self) -> Vec<Resident> {
        self.used_bytes = 0;
        let mut all: Vec<Resident> = self.entries.drain().map(|(_, e)| e).collect();
        all.sort_by_key(|e| e.last_use);
        all
    }

    /// True when `key` is resident (does not refresh its LRU position).
    /// Dispatch uses this to cost the shared operands a device is missing.
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Removes one entry by key, returning it for the executor to
    /// free. Hedged re-dispatch uses this for precise rollback: only the
    /// keys the cancelled attempt *newly* inserted are removed, so
    /// operands that were resident before the attempt survive it.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Resident> {
        let e = self.entries.remove(key)?;
        self.used_bytes -= e.bytes;
        Some(e)
    }

    /// The device buffer backing the entry cached under `key`, when
    /// resident (does not refresh its LRU position). Hedged re-dispatch
    /// uses this to tell which of a cancelled attempt's resolved operands
    /// were *newly* uploaded — their buffers were not alive before the
    /// attempt — and must be rolled back via [`remove`](Self::remove).
    pub(crate) fn buffer_of(&self, key: &str) -> Option<DevBufId> {
        self.entries.get(key).map(|e| e.buf)
    }

    /// Device buffers currently tracked by the cache, in LRU order. The
    /// executor uses this to tell leaked allocations apart from live
    /// cached operands when cleaning up after a failed attempt; tests use
    /// it to prove a device holds no allocation beyond its cached
    /// operands.
    pub fn device_buffers(&self) -> Vec<DevBufId> {
        let mut entries: Vec<&Resident> = self.entries.values().collect();
        entries.sort_by_key(|e| e.last_use);
        entries.into_iter().map(|e| e.buf).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, Gpu};

    const MAT: Shape = Shape::Mat(10, 10);

    /// Caches a fresh f64 device buffer of `shape` under `key`.
    fn put(cache: &mut ResidencyCache, gpu: &mut Gpu, key: &str, shape: Shape) -> bool {
        let buf = gpu.alloc_device(Dtype::F64, shape.len()).expect("alloc");
        cache.insert(key, Dtype::F64, shape, buf)
    }

    fn gpu() -> Gpu {
        Gpu::new(testbed_i(), ExecMode::TimingOnly, 0)
    }

    #[test]
    fn lru_eviction_order_and_budget() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(2000);
        assert!(put(&mut cache, &mut g, "A", MAT));
        assert!(put(&mut cache, &mut g, "B", MAT));
        assert_eq!(cache.used_bytes(), 1600);
        // Touch A so B becomes the LRU entry.
        cache
            .lookup("A", Dtype::F64, MAT)
            .expect("shape ok")
            .expect("hit");
        let evicted = cache.evict_for(800, |_| false);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, "B");
        assert_eq!(cache.used_bytes(), 800);
        assert!(cache
            .lookup("B", Dtype::F64, MAT)
            .expect("shape ok")
            .is_none());
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(2000);
        put(&mut cache, &mut g, "A", MAT);
        put(&mut cache, &mut g, "B", MAT);
        let pinned = |k: &str| ["A", "B", "C"].contains(&k);
        // C (800 B) cannot join A+B (1600 B pinned) under a 2000 B budget.
        assert!(!cache.fits_pinned(800, pinned));
        assert!(cache.fits_pinned(400, pinned));
        // Even when asked to make room, pinned entries stay resident.
        let evicted = cache.evict_for(800, pinned);
        assert!(evicted.is_empty());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.used_bytes(), 1600);
        // An unpinned entry is still fair game.
        put(&mut cache, &mut g, "D", Shape::Mat(5, 5));
        let evicted = cache.evict_for(400, pinned);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, "D");
    }

    #[test]
    fn duplicate_key_inserts_are_rejected() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(10_000);
        assert!(put(&mut cache, &mut g, "A", MAT));
        // Same key again — even with a different shape, dtype, or kind —
        // is refused and changes nothing.
        assert!(!put(&mut cache, &mut g, "A", MAT));
        let f32_buf = g.alloc_device(Dtype::F32, 9).expect("alloc");
        assert!(!cache.insert("A", Dtype::F32, Shape::Mat(3, 3), f32_buf));
        assert!(!put(&mut cache, &mut g, "A", Shape::Vec(5)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 800);
        // The original entry is intact.
        assert!(cache
            .lookup("A", Dtype::F64, MAT)
            .expect("shape ok")
            .is_some());
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(10_000);
        put(&mut cache, &mut g, "A", MAT);
        assert!(cache.lookup("A", Dtype::F64, Shape::Mat(10, 11)).is_err());
        assert!(cache.lookup("A", Dtype::F32, MAT).is_err());
        // A vector lookup against a matrix entry is also a mismatch, even
        // at the same element count.
        assert!(cache.lookup("A", Dtype::F64, Shape::Vec(100)).is_err());
    }

    #[test]
    fn contains_sees_resident_keys() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(10_000);
        put(&mut cache, &mut g, "A", MAT);
        put(&mut cache, &mut g, "x", Shape::Vec(5));
        assert!(cache.contains("A"));
        assert!(cache.contains("x"));
        assert!(!cache.contains("missing"));
        assert_eq!(cache.device_buffers().len(), 2);
    }

    #[test]
    fn remove_releases_budget_and_spares_other_entries() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(10_000);
        put(&mut cache, &mut g, "A", MAT);
        put(&mut cache, &mut g, "B", MAT);
        let removed = cache.remove("A").expect("resident");
        assert_eq!(removed.key, "A");
        assert_eq!(cache.used_bytes(), 800);
        assert!(!cache.contains("A"));
        assert!(cache.contains("B"));
        assert!(cache.remove("A").is_none());
        assert!(cache.remove("missing").is_none());
    }

    #[test]
    fn clear_returns_everything_in_lru_order() {
        let mut g = gpu();
        let mut cache = ResidencyCache::new(10_000);
        put(&mut cache, &mut g, "A", MAT);
        put(&mut cache, &mut g, "B", MAT);
        // Touch A so the LRU order is B, then A.
        cache
            .lookup("A", Dtype::F64, MAT)
            .expect("shape ok")
            .expect("hit");
        let all = cache.clear();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].key, "B");
        assert_eq!(all[1].key, "A");
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }
}
