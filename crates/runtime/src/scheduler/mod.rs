//! The tile scheduler (§IV-C): square tiling, address matching, lazy tile
//! fetching with full reuse, and stream assignment.
//!
//! One instance of [`TileFetcher`] lives for the duration of a routine call.
//! It hands out device-side tile references on demand:
//!
//! * operands already resident on the device yield zero-cost views;
//! * host operands get a packed device buffer per tile, fetched **once** on
//!   the h2d stream (this is the "full reuse" of Eq. 5 — subsequent
//!   sub-kernels find the tile in the cache);
//! * operands being filled into a whole-operand device buffer (a serving
//!   residency miss) get a view into that buffer, and each region is
//!   copied into place on its first read, once, however many operands
//!   name the buffer;
//! * each fetch carries an event the exec stream waits on, which is what
//!   produces the 3-way pipeline.

pub(crate) mod axpy;
pub(crate) mod dot;
pub(crate) mod gemm;
pub(crate) mod gemv;

use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::{MatOperand, VecOperand};
use cocopelia_gpusim::{
    CopyDesc, DevBufId, DevMatRef, EventId, Gpu, HostBufId, KernelArgs, KernelShape, Region2d,
    SimError, SimScalar, SimTime, StreamId,
};
use cocopelia_hostblas::tiling::TileRange;
use std::collections::HashMap;

/// Schedule facts every routine run reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunStats {
    pub subkernels: usize,
    pub tile_hits: u64,
    pub tile_misses: u64,
    /// Transient-fault retries performed by the tile fetcher.
    pub retries: u64,
}

/// The three streams of the paper's library: "one stream per operation
/// (h2d transfer, d2h transfer, kernel execution)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Streams {
    pub h2d: StreamId,
    pub exec: StreamId,
    pub d2h: StreamId,
}

impl Streams {
    pub(crate) fn create(gpu: &mut Gpu) -> Streams {
        Streams {
            h2d: gpu.create_stream(),
            exec: gpu.create_stream(),
            d2h: gpu.create_stream(),
        }
    }
}

/// Where one operand's elements live for the duration of a call.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OperandStore {
    /// Staged in a registered host buffer (`ld == rows`).
    Host { host: HostBufId, rows: usize },
    /// Already resident in a packed device buffer (`ld == rows`).
    Device { buf: DevBufId, rows: usize },
    /// Bound to a packed device buffer (`ld == rows`) that still has to be
    /// filled from a registered host buffer of the same layout. The
    /// caller owns both buffers.
    Fill {
        host: HostBufId,
        buf: DevBufId,
        rows: usize,
    },
}

impl OperandStore {
    pub(crate) fn from_mat<T: SimScalar>(gpu: &mut Gpu, op: MatOperand<T>) -> OperandStore {
        match op {
            MatOperand::Host(m) => {
                let rows = m.rows();
                let host = gpu.register_host(T::into_payload(m.into_vec()), true);
                OperandStore::Host { host, rows }
            }
            MatOperand::HostGhost { rows, cols } => {
                let host = gpu.register_host_ghost(T::DTYPE, rows * cols, true);
                OperandStore::Host { host, rows }
            }
            MatOperand::Device(d) => OperandStore::device(d.buf, d.rows, d.fill),
        }
    }

    pub(crate) fn from_vec<T: SimScalar>(gpu: &mut Gpu, op: VecOperand<T>) -> OperandStore {
        match op {
            VecOperand::Host(v) => {
                let rows = v.len();
                let host = gpu.register_host(T::into_payload(v), true);
                OperandStore::Host { host, rows }
            }
            VecOperand::HostGhost { len } => {
                let host = gpu.register_host_ghost(T::DTYPE, len, true);
                OperandStore::Host { host, rows: len }
            }
            VecOperand::Device(d) => OperandStore::device(d.buf, d.len, d.fill),
        }
    }

    /// The store of device buffer `buf`: resident, or filled from `fill`.
    fn device(buf: DevBufId, rows: usize, fill: Option<HostBufId>) -> OperandStore {
        match fill {
            Some(host) => OperandStore::Fill { host, buf, rows },
            None => OperandStore::Device { buf, rows },
        }
    }

    /// Host buffer id, if staged on the host for this call alone (results
    /// drain back to it, and the call releases it).
    pub(crate) fn host_id(&self) -> Option<HostBufId> {
        match self {
            OperandStore::Host { host, .. } => Some(*host),
            OperandStore::Device { .. } | OperandStore::Fill { .. } => None,
        }
    }
}

/// A device-side tile with the event (if any) that signals its readiness.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileRef {
    pub mat: DevMatRef,
    pub ready: Option<EventId>,
}

/// What a fetched tile is cached under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TileKey {
    /// Tile `(row, col)` of host-staged operand `op_idx`, in its own
    /// packed buffer.
    Staged { op_idx: u8, row: usize, col: usize },
    /// A `rows × cols` region at element `offset` of a buffer being
    /// filled. Every operand bound to one buffer tiles it with the same
    /// split, so two regions of a buffer are either equal or disjoint.
    Filled {
        buf: DevBufId,
        offset: usize,
        rows: usize,
        cols: usize,
    },
}

/// Per-call tile cache and allocator.
#[derive(Debug, Default)]
pub(crate) struct TileFetcher {
    cache: HashMap<TileKey, TileRef>,
    allocated: Vec<DevBufId>,
    /// Requests served from the cache (a tile already on the device).
    hits: u64,
    /// Requests that allocated and (possibly) fetched a fresh tile.
    misses: u64,
    /// Retry/backoff policy for transient enqueue faults.
    policy: RetryPolicy,
    /// Transient-fault retries performed so far in this call.
    retries: u64,
}

impl TileFetcher {
    /// Creates a fetcher with an explicit retry policy (the default policy
    /// is [`RetryPolicy::default`]).
    pub(crate) fn with_policy(policy: RetryPolicy) -> Self {
        TileFetcher {
            policy,
            ..TileFetcher::default()
        }
    }

    /// Runs an enqueue-level device call, retrying transient faults with the
    /// policy's capped exponential backoff. Backoff waits advance the
    /// device's virtual clock, so retry latency shows up in timing results
    /// (and delays everything enqueued afterwards, as a host-side sleep
    /// would). Out-of-memory never reaches this helper — allocations are not
    /// wrapped, because recovering from OOM requires an executor-level
    /// reclaim, not a blind retry.
    fn retry_sim<R>(
        &mut self,
        gpu: &mut Gpu,
        mut f: impl FnMut(&mut Gpu) -> Result<R, SimError>,
    ) -> Result<R, RuntimeError> {
        let mut attempt: u32 = 0;
        loop {
            match f(gpu) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let err = RuntimeError::Sim(e);
                    if !err.fault_class().retryable() || attempt + 1 >= self.policy.max_attempts {
                        return Err(err);
                    }
                    gpu.advance_clock(SimTime::from_secs_f64(self.policy.backoff_secs(attempt)));
                    attempt += 1;
                    self.retries += 1;
                }
            }
        }
    }

    /// Launches a kernel with transient-fault retry.
    pub(crate) fn launch(
        &mut self,
        gpu: &mut Gpu,
        stream: StreamId,
        shape: KernelShape,
        args: Option<KernelArgs>,
    ) -> Result<(), RuntimeError> {
        self.retry_sim(gpu, |g| g.launch_kernel(stream, shape, args))
    }

    /// Enqueues a raw d2h copy with transient-fault retry (used for
    /// partial-result drains that bypass the tile write-back path).
    pub(crate) fn copy_d2h(
        &mut self,
        gpu: &mut Gpu,
        stream: StreamId,
        desc: CopyDesc,
    ) -> Result<(), RuntimeError> {
        self.retry_sim(gpu, |g| g.memcpy_d2h_async(stream, desc))
    }

    /// Enqueues the h2d copy `desc` with transient-fault retry and
    /// returns the event recorded behind it.
    fn copy_h2d(
        &mut self,
        gpu: &mut Gpu,
        h2d: StreamId,
        desc: CopyDesc,
    ) -> Result<EventId, RuntimeError> {
        self.retry_sim(gpu, |g| g.memcpy_h2d_async(h2d, desc))?;
        Ok(gpu.record_event(h2d)?)
    }

    /// Returns a device reference for tile `(ri, ci)` of operand `op_idx`.
    ///
    /// `fetch` controls whether host data is actually copied (false for
    /// write-only output tiles, which only need backing storage).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tile<T: SimScalar>(
        &mut self,
        gpu: &mut Gpu,
        h2d: StreamId,
        op_idx: u8,
        store: OperandStore,
        (ri, rr): (usize, TileRange),
        (ci, cr): (usize, TileRange),
        fetch: bool,
    ) -> Result<TileRef, RuntimeError> {
        match store {
            OperandStore::Device { buf, rows } => Ok(TileRef {
                mat: DevMatRef {
                    buf,
                    offset: rr.start + cr.start * rows,
                    ld: rows,
                },
                ready: None,
            }),
            OperandStore::Fill { host, buf, rows } => {
                // A view into the buffer being filled; its region is copied
                // into place on the first read, keyed by region so operands
                // bound to one buffer share the copy. A write-only tile
                // copies nothing.
                let region = Region2d {
                    offset: rr.start + cr.start * rows,
                    ld: rows,
                    rows: rr.len,
                    cols: cr.len,
                };
                let key = TileKey::Filled {
                    buf,
                    offset: region.offset,
                    rows: rr.len,
                    cols: cr.len,
                };
                if let Some(t) = self.cache.get(&key) {
                    self.hits += 1;
                    return Ok(*t);
                }
                let mat = DevMatRef {
                    buf,
                    offset: region.offset,
                    ld: rows,
                };
                if !fetch {
                    return Ok(TileRef { mat, ready: None });
                }
                self.misses += 1;
                let desc = CopyDesc {
                    host,
                    host_region: region,
                    dev: buf,
                    dev_region: region,
                };
                let t = TileRef {
                    mat,
                    ready: Some(self.copy_h2d(gpu, h2d, desc)?),
                };
                self.cache.insert(key, t);
                Ok(t)
            }
            OperandStore::Host { host, rows } => {
                let key = TileKey::Staged {
                    op_idx,
                    row: ri,
                    col: ci,
                };
                if let Some(t) = self.cache.get(&key) {
                    self.hits += 1;
                    return Ok(*t);
                }
                self.misses += 1;
                let buf = gpu.alloc_device(T::DTYPE, rr.len * cr.len)?;
                self.allocated.push(buf);
                let ready = if fetch {
                    let desc = CopyDesc {
                        host,
                        host_region: Region2d {
                            offset: rr.start + cr.start * rows,
                            ld: rows,
                            rows: rr.len,
                            cols: cr.len,
                        },
                        dev: buf,
                        dev_region: Region2d {
                            offset: 0,
                            ld: rr.len,
                            rows: rr.len,
                            cols: cr.len,
                        },
                    };
                    Some(self.copy_h2d(gpu, h2d, desc)?)
                } else {
                    None
                };
                let t = TileRef {
                    mat: DevMatRef {
                        buf,
                        offset: 0,
                        ld: rr.len,
                    },
                    ready,
                };
                self.cache.insert(key, t);
                Ok(t)
            }
        }
    }

    /// Writes a (host-operand) tile back to its host region on the d2h
    /// stream. No-op for device-resident stores.
    pub(crate) fn write_back(
        &mut self,
        gpu: &mut Gpu,
        d2h: StreamId,
        store: OperandStore,
        tile: TileRef,
        rr: TileRange,
        cr: TileRange,
    ) -> Result<(), RuntimeError> {
        let OperandStore::Host { host, rows } = store else {
            return Ok(());
        };
        self.copy_d2h(
            gpu,
            d2h,
            CopyDesc {
                host,
                host_region: Region2d {
                    offset: rr.start + cr.start * rows,
                    ld: rows,
                    rows: rr.len,
                    cols: cr.len,
                },
                dev: tile.mat.buf,
                dev_region: Region2d {
                    offset: tile.mat.offset,
                    ld: tile.mat.ld,
                    rows: rr.len,
                    cols: cr.len,
                },
            },
        )
    }

    /// Ends a routine's schedule of `subkernels` launches: clears the op
    /// tag, waits for the device, frees every tile buffer this fetcher
    /// allocated, and reports the run.
    pub(crate) fn finish(self, gpu: &mut Gpu, subkernels: usize) -> Result<RunStats, RuntimeError> {
        gpu.clear_op_tag();
        gpu.synchronize()?;
        for buf in self.allocated {
            gpu.free_device(buf)?;
        }
        Ok(RunStats {
            subkernels,
            tile_hits: self.hits,
            tile_misses: self.misses,
            retries: self.retries,
        })
    }

    /// Number of distinct cached (host-operand) tiles.
    #[cfg(test)]
    pub(crate) fn cached_tiles(&self) -> usize {
        self.cache.len()
    }
}

/// Reads back the payload of a host-staged operand as a typed vector, if
/// data is present (functional mode).
pub(crate) fn take_host_data<T: SimScalar>(
    gpu: &mut Gpu,
    store: OperandStore,
) -> Result<Option<Vec<T>>, RuntimeError> {
    match store {
        OperandStore::Host { host, .. } => {
            let buf = gpu.take_host(host)?;
            if buf.payload.is_functional() {
                Ok(Some(T::payload_into_vec(buf.payload)))
            } else {
                Ok(None)
            }
        }
        OperandStore::Device { .. } | OperandStore::Fill { .. } => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec, TestbedSpec};
    use cocopelia_hostblas::tiling::split;
    use cocopelia_hostblas::Matrix;

    fn quiet_gpu(functional: bool) -> Gpu {
        let mut tb: TestbedSpec = testbed_i();
        tb.noise = NoiseSpec::NONE;
        let mode = if functional {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        Gpu::new(tb, mode, 1)
    }

    #[test]
    fn fetch_caches_tiles() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let store = OperandStore::from_mat::<f64>(
            &mut gpu,
            crate::operand::MatOperand::HostGhost { rows: 8, cols: 8 },
        );
        let mut f = TileFetcher::default();
        let rows = split(8, 4);
        let cols = split(8, 4);
        let t1 = f
            .tile::<f64>(
                &mut gpu,
                streams.h2d,
                0,
                store,
                (0, rows[0]),
                (1, cols[1]),
                true,
            )
            .expect("tile");
        let t2 = f
            .tile::<f64>(
                &mut gpu,
                streams.h2d,
                0,
                store,
                (0, rows[0]),
                (1, cols[1]),
                true,
            )
            .expect("tile again");
        assert_eq!(t1.mat.buf, t2.mat.buf);
        assert_eq!(f.cached_tiles(), 1);
        // Different tile indices allocate a new buffer.
        let t3 = f
            .tile::<f64>(
                &mut gpu,
                streams.h2d,
                0,
                store,
                (1, rows[1]),
                (1, cols[1]),
                true,
            )
            .expect("other tile");
        assert_ne!(t1.mat.buf, t3.mat.buf);
        assert_eq!(f.cached_tiles(), 2);
        let stats = f.finish(&mut gpu, 0).expect("finish");
        assert_eq!((stats.tile_hits, stats.tile_misses), (1, 2));
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn device_store_yields_views_without_alloc() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let dev = gpu
            .alloc_device(cocopelia_hostblas::Dtype::F64, 64)
            .expect("alloc");
        let store = OperandStore::Device { buf: dev, rows: 8 };
        let mut f = TileFetcher::default();
        let rows = split(8, 4);
        let t = f
            .tile::<f64>(
                &mut gpu,
                streams.h2d,
                0,
                store,
                (1, rows[1]),
                (1, rows[1]),
                true,
            )
            .expect("view");
        assert_eq!(t.mat.offset, 4 + 4 * 8);
        assert_eq!(t.mat.ld, 8);
        assert!(t.ready.is_none());
        assert_eq!(f.cached_tiles(), 0);
    }

    #[test]
    fn round_trip_tile_fetch_and_write_back() {
        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let store =
            OperandStore::from_mat::<f64>(&mut gpu, crate::operand::MatOperand::Host(m.clone()));
        let mut f = TileFetcher::default();
        let rows = split(6, 4);
        let cols = split(6, 4);
        // Fetch tile (1,1) — the 2x2 remainder corner — and write it back.
        let t = f
            .tile::<f64>(
                &mut gpu,
                streams.h2d,
                0,
                store,
                (1, rows[1]),
                (1, cols[1]),
                true,
            )
            .expect("tile");
        // Order the write-back after the fetch, as the schedulers do.
        gpu.wait_event(streams.d2h, t.ready.expect("host fetch has event"))
            .expect("wait");
        f.write_back(&mut gpu, streams.d2h, store, t, rows[1], cols[1])
            .expect("wb");
        gpu.synchronize().expect("sync");
        let back = take_host_data::<f64>(&mut gpu, store)
            .expect("data")
            .expect("functional");
        assert_eq!(back, m.as_slice());
    }
}
