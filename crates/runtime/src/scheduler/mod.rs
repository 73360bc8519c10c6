//! The tile scheduler (§IV-C): square tiling, address matching, lazy tile
//! fetching with full reuse, and stream assignment.
//!
//! Every routine is a [`TilePlan`]: which loop axes name each operand's
//! tile, and which kernel each step launches. One interpreter,
//! [`TilePlan::run`], issues any plan through a [`TileFetcher`], so the
//! tag → fetch → wait → launch → write-back sequence exists once.
//!
//! A [`TileFetcher`] lives for one routine call and hands out device-side
//! tile references on demand:
//!
//! * operands already resident on the device yield zero-cost views;
//! * host operands get a packed device buffer per tile, fetched **once** on
//!   the h2d stream (the "full reuse" of Eq. 5: later sub-kernels find the
//!   tile in the cache);
//! * operands being filled into a whole-operand device buffer (a serving
//!   residency miss) get views into it, each region copied into place on
//!   its first read, once, however many operands name the buffer;
//! * each fetch carries an event the exec stream waits on, which is what
//!   produces the 3-way pipeline.

mod plan;

pub(crate) use plan::{PlanRun, TilePlan};

use crate::error::RuntimeError;
use crate::fault::{backoff_secs, MAX_ATTEMPTS};
use crate::operand::{MatOperand, VecOperand};
use cocopelia_gpusim::{
    CopyDesc, DevBufId, DevMatRef, EventId, Gpu, HostBufId, KernelArgs, KernelShape, OpTag,
    Region2d, SimError, SimScalar, SimTime, StreamId,
};
use cocopelia_hostblas::tiling::TileRange;
use cocopelia_hostblas::Matrix;
use std::collections::HashMap;

/// Schedule facts every routine run reports.
#[derive(Debug, Clone, Copy, Default)]
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

    /// The store of a vector: an `n × 1` matrix.
    pub(crate) fn from_vec<T: SimScalar>(gpu: &mut Gpu, op: VecOperand<T>) -> OperandStore {
        let mat = match op {
            VecOperand::Host(v) => MatOperand::Host(Matrix::from_vec(v.len(), 1, v)),
            VecOperand::HostGhost { len } => MatOperand::HostGhost { rows: len, cols: 1 },
            VecOperand::Device(d) => return OperandStore::device(d.buf, d.len, d.fill),
        };
        OperandStore::from_mat(gpu, mat)
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

/// What a fetched tile is cached under: its source and the element offset
/// of its region there. Every operand bound to one buffer tiles it with the
/// same split, so two regions of a source are either equal or disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TileKey {
    /// A host-staged operand; each tile gets its own packed buffer.
    Staged(HostBufId, usize),
    /// A buffer being filled; its tiles are views into it.
    Filled(DevBufId, usize),
}

/// Per-call tile cache and allocator.
#[derive(Debug)]
pub(crate) struct TileFetcher {
    streams: Streams,
    cache: HashMap<TileKey, TileRef>,
    allocated: Vec<DevBufId>,
    stats: RunStats,
}

impl TileFetcher {
    /// A fetcher that enqueues on `streams`.
    pub(crate) fn new(streams: Streams) -> Self {
        TileFetcher {
            streams,
            cache: HashMap::new(),
            allocated: Vec::new(),
            stats: RunStats::default(),
        }
    }

    /// Runs an enqueue-level device call, retrying transient faults with
    /// exponential backoff (see [`crate::fault`]). Backoff is a host wait
    /// in virtual time, so retry latency shows up in timing results (and
    /// delays everything enqueued afterwards, as a host-side sleep would).
    /// Out-of-memory never reaches this helper — allocations are not
    /// wrapped, because recovering from OOM requires an executor-level
    /// reclaim, not a blind retry.
    fn retry_sim<R>(
        &mut self,
        gpu: &mut Gpu,
        mut f: impl FnMut(&mut Gpu) -> Result<R, SimError>,
    ) -> Result<R, RuntimeError> {
        let mut attempt: u32 = 0;
        loop {
            match f(gpu).map_err(RuntimeError::Sim) {
                Err(e) if e.fault_class().retryable() && attempt + 1 < MAX_ATTEMPTS => {
                    let backoff = SimTime::from_secs_f64(backoff_secs(attempt));
                    gpu.wait_until(gpu.now() + backoff, None)?;
                    attempt += 1;
                    self.stats.retries += 1;
                }
                done => return done,
            }
        }
    }

    /// Launches a kernel on the exec stream with transient-fault retry.
    pub(crate) fn launch(
        &mut self,
        gpu: &mut Gpu,
        shape: KernelShape,
        args: KernelArgs,
    ) -> Result<(), RuntimeError> {
        let exec = self.streams.exec;
        self.retry_sim(gpu, |g| g.launch_kernel(exec, shape, Some(args)))?;
        self.stats.subkernels += 1;
        Ok(())
    }

    /// Returns a device reference for the `rr × cr` tile of `store`.
    ///
    /// `fetch` controls whether host data is actually copied (false for
    /// write-only output tiles, which only need backing storage).
    pub(crate) fn tile<T: SimScalar>(
        &mut self,
        gpu: &mut Gpu,
        store: OperandStore,
        (rr, cr): (TileRange, TileRange),
        fetch: bool,
    ) -> Result<TileRef, RuntimeError> {
        let (host, rows) = match store {
            OperandStore::Device { buf, rows } => {
                let mat = view(buf, region(rows, rr, cr));
                return Ok(TileRef { mat, ready: None });
            }
            OperandStore::Fill { host, rows, .. } | OperandStore::Host { host, rows } => {
                (host, rows)
            }
        };
        let host_region = region(rows, rr, cr);
        let key = match store {
            // Operands bound to one buffer share its copies.
            OperandStore::Fill { buf, .. } => TileKey::Filled(buf, host_region.offset),
            _ => TileKey::Staged(host, host_region.offset),
        };
        if let Some(t) = self.cache.get(&key) {
            self.stats.tile_hits += 1;
            return Ok(*t);
        }
        let (mat, dev_region) = match store {
            // A view into the buffer being filled; a write-only tile
            // copies nothing and is not cached.
            OperandStore::Fill { buf, .. } => {
                let mat = view(buf, host_region);
                if !fetch {
                    return Ok(TileRef { mat, ready: None });
                }
                (mat, host_region)
            }
            _ => {
                let buf = gpu.alloc_device(T::DTYPE, rr.len * cr.len)?;
                self.allocated.push(buf);
                let packed = region(rr.len, span(rr.len), span(cr.len));
                (view(buf, packed), packed)
            }
        };
        let ready = if fetch {
            self.stats.tile_misses += 1;
            let (h2d, dev) = (self.streams.h2d, mat.buf);
            let desc = CopyDesc {
                host,
                host_region,
                dev,
                dev_region,
            };
            self.retry_sim(gpu, |g| g.memcpy_h2d_async(h2d, desc))?;
            Some(gpu.record_event(h2d)?)
        } else {
            None
        };
        let t = TileRef { mat, ready };
        self.cache.insert(key, t);
        Ok(t)
    }

    /// Writes a (host-operand) tile back to its host region on the d2h
    /// stream, tagged `tag`, behind everything enqueued on the exec stream
    /// so far. No-op for device-resident stores.
    pub(crate) fn write_back(
        &mut self,
        gpu: &mut Gpu,
        tag: OpTag,
        store: OperandStore,
        tile: TileRef,
        (rr, cr): (TileRange, TileRange),
    ) -> Result<(), RuntimeError> {
        let OperandStore::Host { host, rows } = store else {
            return Ok(());
        };
        let Streams { exec, d2h, .. } = self.streams;
        let done = gpu.record_event(exec)?;
        gpu.wait_event(d2h, done)?;
        gpu.set_op_tag(tag);
        let host_region = region(rows, rr, cr);
        let dev_region = Region2d {
            offset: tile.mat.offset,
            ld: tile.mat.ld,
            ..host_region
        };
        let desc = CopyDesc {
            host,
            host_region,
            dev: tile.mat.buf,
            dev_region,
        };
        self.retry_sim(gpu, |g| g.memcpy_d2h_async(d2h, desc))
    }

    /// Records an event behind everything the schedule enqueued: the exec
    /// stream's last kernel and the d2h stream's last copy (every fetch
    /// precedes a kernel that waits on it).
    pub(crate) fn end(&self, gpu: &mut Gpu) -> Result<EventId, RuntimeError> {
        let Streams { exec, d2h, .. } = self.streams;
        let done = gpu.record_event(exec)?;
        gpu.wait_event(d2h, done)?;
        Ok(gpu.record_event(d2h)?)
    }

    /// Ends a routine's schedule: waits for `end` (the whole device when
    /// `None`), frees every tile buffer this fetcher allocated, and reports
    /// the run.
    pub(crate) fn finish(
        self,
        gpu: &mut Gpu,
        end: Option<EventId>,
    ) -> Result<RunStats, RuntimeError> {
        match end {
            Some(ev) => gpu.synchronize_event(ev)?,
            None => gpu.synchronize()?,
        };
        for buf in self.allocated {
            gpu.free_device(buf)?;
        }
        Ok(self.stats)
    }
}

/// The `rr × cr` tile of a packed `ld == rows` layout.
fn region(rows: usize, rr: TileRange, cr: TileRange) -> Region2d {
    Region2d {
        offset: rr.start + cr.start * rows,
        ld: rows,
        rows: rr.len,
        cols: cr.len,
    }
}

/// The first `len` elements of an extent.
fn span(len: usize) -> TileRange {
    TileRange { start: 0, len }
}

/// Device buffer `buf` viewed at `region`.
fn view(buf: DevBufId, region: Region2d) -> DevMatRef {
    let Region2d { offset, ld, .. } = region;
    DevMatRef { buf, offset, ld }
}

// Each routine's cases run its plan through the interpreter.
#[cfg(test)]
mod axpy {
    mod tests;
}
#[cfg(test)]
mod dot {
    mod tests;
}
#[cfg(test)]
mod gemm {
    mod tests;
}
#[cfg(test)]
mod gemv {
    mod tests;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec};

    pub(super) fn quiet_gpu(functional: bool) -> Gpu {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        let mode = if functional {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        Gpu::new(tb, mode, 1)
    }

    /// Runs `plan` over `stores` at tile `tile` on fresh streams, as call 0.
    pub(super) fn run_plan<T: SimScalar>(
        gpu: &mut Gpu,
        plan: TilePlan,
        stores: &[OperandStore],
        tile: usize,
    ) -> Result<(Option<Vec<T>>, RunStats), RuntimeError> {
        let fetcher = fetcher(gpu);
        plan.run::<T>(gpu, fetcher, 0, tile, stores)
    }

    fn fetcher(gpu: &mut Gpu) -> TileFetcher {
        TileFetcher::new(Streams::create(gpu))
    }

    /// Tile `(i, j)` of an `n × n` matrix split into tiles of 4.
    fn of4((i, j): (usize, usize), n: usize) -> (TileRange, TileRange) {
        let range = |idx: usize| TileRange {
            start: idx * 4,
            len: 4.min(n - idx * 4),
        };
        (range(i), range(j))
    }

    #[test]
    fn fetch_caches_tiles() {
        let mut gpu = quiet_gpu(false);
        let op = crate::operand::MatOperand::<f64>::HostGhost { rows: 8, cols: 8 };
        let store = OperandStore::from_mat(&mut gpu, op);
        let mut f = fetcher(&mut gpu);
        let t1 = f
            .tile::<f64>(&mut gpu, store, of4((0, 1), 8), true)
            .expect("tile");
        let t2 = f
            .tile::<f64>(&mut gpu, store, of4((0, 1), 8), true)
            .expect("tile again");
        assert_eq!(t1.mat.buf, t2.mat.buf);
        assert_eq!(f.cache.len(), 1);
        // Different tile indices allocate a new buffer.
        let t3 = f
            .tile::<f64>(&mut gpu, store, of4((1, 1), 8), true)
            .expect("other tile");
        assert_ne!(t1.mat.buf, t3.mat.buf);
        assert_eq!(f.cache.len(), 2);
        let stats = f.finish(&mut gpu, None).expect("finish");
        assert_eq!((stats.tile_hits, stats.tile_misses), (1, 2));
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn device_store_yields_views_without_alloc() {
        let mut gpu = quiet_gpu(false);
        let dev = gpu
            .alloc_device(cocopelia_hostblas::Dtype::F64, 64)
            .expect("alloc");
        let store = OperandStore::Device { buf: dev, rows: 8 };
        let mut f = fetcher(&mut gpu);
        let t = f
            .tile::<f64>(&mut gpu, store, of4((1, 1), 8), true)
            .expect("view");
        assert_eq!(t.mat.offset, 4 + 4 * 8);
        assert_eq!(t.mat.ld, 8);
        assert!(t.ready.is_none());
        assert_eq!(f.cache.len(), 0);
    }

    #[test]
    fn round_trip_tile_fetch_and_write_back() {
        let mut gpu = quiet_gpu(true);
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let op = crate::operand::MatOperand::Host(m.clone());
        let store = OperandStore::from_mat::<f64>(&mut gpu, op);
        let mut f = fetcher(&mut gpu);
        // Fetch tile (1,1) — the 2x2 remainder corner — and write it back.
        let t = f
            .tile::<f64>(&mut gpu, store, of4((1, 1), 6), true)
            .expect("tile");
        // Order the write-back after the fetch.
        let ready = t.ready.expect("host fetch has event");
        gpu.wait_event(f.streams.d2h, ready).expect("wait");
        let tag = OpTag::new(cocopelia_gpusim::Routine::Gemm, 0, (1, 1));
        f.write_back(&mut gpu, tag, store, t, of4((1, 1), 6))
            .expect("wb");
        gpu.synchronize().expect("sync");
        let host = store.host_id().expect("staged on the host");
        let back = gpu.take_host(host).expect("registered").payload;
        assert_eq!(f64::payload_into_vec(back), m.as_slice());
    }
}
