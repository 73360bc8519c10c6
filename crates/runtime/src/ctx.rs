//! The CoCoPeLia library handle: routine wrappers, runtime tiling-size
//! selection with model reuse, and device-residency management.

use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::{DeviceMatrix, DeviceVector, MatOperand, TileChoice, VecOperand};
use crate::request::{
    AxpyRequest, DotRequest, GemmRequest, GemvRequest, MatArg, RoutineRequest, VecArg,
};
use crate::scheduler::{axpy, dot, gemm, gemv, RunStats, Streams};
use cocopelia_core::models::{ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec, RoutineClass};
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::select::{Selection, TileSelector};
use cocopelia_gpusim::{CopyDesc, Gpu, SimScalar, SimTime, StreamId};
use cocopelia_hostblas::{Dtype, Matrix};
use cocopelia_obs::{score_models, CallObservation, DriftRecord, Observer, OverlapStats};
use std::collections::HashMap;

/// Key for the model-reuse cache (§IV-C: "initialize the corresponding
/// model only the first time a user makes a call … with a set of
/// parameters").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SelectKey {
    routine: RoutineClass,
    dtype: Dtype,
    dims: Vec<usize>,
    /// Per-operand (location, input, output) — everything the models read
    /// from the operand list.
    flags: Vec<(Loc, bool, bool)>,
    model: ModelKind,
}

impl SelectKey {
    fn of(problem: &ProblemSpec, model: ModelKind) -> Self {
        SelectKey {
            routine: problem.routine,
            dtype: problem.dtype,
            dims: problem.dims(),
            flags: problem
                .operands
                .iter()
                .map(|o| (o.loc, o.input, o.output))
                .collect(),
            model,
        }
    }
}

/// Facts about one executed routine call.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineReport {
    /// Virtual wall time of the call (enqueue through device sync).
    pub elapsed: SimTime,
    /// Tiling size used.
    pub tile: usize,
    /// Sub-kernels launched.
    pub subkernels: usize,
    /// Useful floating-point operations of the problem.
    pub flops: f64,
    /// The tile selection, when `T` was chosen by a model (absent for
    /// [`TileChoice::Fixed`]).
    pub selection: Option<Selection>,
    /// Exact 3-way overlap statistics of the call's trace slice.
    pub overlap: OverlapStats,
    /// Per-model prediction-drift records scored against the achieved time
    /// (empty when the profile has no exec table for the routine).
    pub drift: Vec<DriftRecord>,
    /// Tile-buffer reuse hits during the call (§IV-C full tile reuse).
    pub tile_hits: u64,
    /// Tile-buffer fetches that missed the reuse cache.
    pub tile_misses: u64,
    /// Tile-level operation retries the scheduler performed against
    /// transient device faults (0 when the device is healthy).
    pub op_retries: u64,
}

impl RoutineReport {
    /// Achieved throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.elapsed.as_secs_f64() / 1e9
    }

    /// Tile-cache hit rate `hits/(hits+misses)`, or 0 when no tile was
    /// ever fetched.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.tile_hits + self.tile_misses;
        if total == 0 {
            0.0
        } else {
            self.tile_hits as f64 / total as f64
        }
    }
}

/// Result of a gemm call.
#[derive(Debug)]
pub struct GemmResult<T> {
    /// The updated `C`, when it was passed as host data in functional mode.
    pub c: Option<Matrix<T>>,
    /// Schedule facts.
    pub report: RoutineReport,
}

/// Result of a dot call.
#[derive(Debug)]
pub struct DotResult {
    /// The reduction value, when host data was provided in functional mode.
    pub value: Option<f64>,
    /// Schedule facts.
    pub report: RoutineReport,
}

/// Result of an axpy or gemv call.
#[derive(Debug)]
pub struct VecResult<T> {
    /// The updated `y`, when it was passed as host data in functional mode.
    pub y: Option<Vec<T>>,
    /// Schedule facts.
    pub report: RoutineReport,
}

/// The end-to-end CoCoPeLia library of §IV-C: BLAS wrappers with 3-way
/// overlap, full tile reuse, and automatic tiling-size selection.
///
/// # Example
///
/// ```no_run
/// use cocopelia_deploy::{deploy, DeployConfig};
/// use cocopelia_gpusim::{testbed_ii, ExecMode, Gpu};
/// use cocopelia_hostblas::Matrix;
/// use cocopelia_runtime::{Cocopelia, GemmRequest, TileChoice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let report = deploy(&testbed_ii(), &DeployConfig::quick())?;
/// let gpu = Gpu::new(testbed_ii(), ExecMode::Functional, 42);
/// let mut ctx = Cocopelia::new(gpu, report.profile);
///
/// let n = 4096;
/// let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + j) as f64 / n as f64);
/// let b = Matrix::<f64>::from_fn(n, n, |i, j| (i as f64 - j as f64) / n as f64);
/// let c = Matrix::<f64>::zeros(n, n);
/// let out = GemmRequest::new(a, b, c).tile(TileChoice::Auto).run(&mut ctx)?;
/// println!("T = {}, {:.1} GFLOP/s", out.report.tile, out.report.gflops());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cocopelia {
    gpu: Gpu,
    profile: SystemProfile,
    selector: TileSelector,
    streams: Option<Streams>,
    prefetch_stream: Option<StreamId>,
    cache: HashMap<SelectKey, Selection>,
    obs: Observer,
    retry: RetryPolicy,
}

impl Cocopelia {
    /// Wraps a device with a deployed system profile.
    pub fn new(gpu: Gpu, profile: SystemProfile) -> Self {
        Cocopelia {
            gpu,
            profile,
            selector: TileSelector::default(),
            streams: None,
            prefetch_stream: None,
            cache: HashMap::new(),
            obs: Observer::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the tile-selection policy.
    pub fn set_selector(&mut self, selector: TileSelector) {
        self.selector = selector;
    }

    /// Replaces the tile-level retry/backoff policy applied to transient
    /// device faults ([`RetryPolicy::none`] disables retrying).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The retry/backoff policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The wrapped device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the wrapped device (trace inspection etc.).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Consumes the handle and returns the device.
    pub fn into_gpu(self) -> Gpu {
        self.gpu
    }

    /// The deployed profile in use.
    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    /// The pipeline observer: metrics, per-call overlap statistics, and
    /// prediction-drift aggregates accumulated across routine calls.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Mutable access to the pipeline observer.
    pub fn observer_mut(&mut self) -> &mut Observer {
        &mut self.obs
    }

    fn ensure_streams(&mut self) -> Streams {
        // Streams are created once and reused across calls (§IV-C).
        match self.streams {
            Some(s) => s,
            None => {
                let s = Streams::create(&mut self.gpu);
                self.streams = Some(s);
                s
            }
        }
    }

    /// The dedicated background stream cross-request prefetch copies ride
    /// on: the copy engine serves it only in its idle gaps, so staged
    /// transfers drain in the h2d slack under the running routine's
    /// compute and never delay its own uploads. Never created on
    /// prefetch-off runs, so their schedules are untouched.
    fn ensure_prefetch_stream(&mut self) -> StreamId {
        match self.prefetch_stream {
            Some(s) => s,
            None => {
                let s = self.gpu.create_stream_background();
                self.prefetch_stream = Some(s);
                s
            }
        }
    }

    /// Runs `CoCoPeLia_select` for `problem` under `model`, with model
    /// reuse across calls.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MissingExecTable`] if deployment did not benchmark
    /// the routine; model errors propagate as [`RuntimeError::Model`].
    pub fn select_tile(
        &mut self,
        problem: &ProblemSpec,
        model: ModelKind,
    ) -> Result<Selection, RuntimeError> {
        let key = SelectKey::of(problem, model);
        if let Some(sel) = self.cache.get(&key).cloned() {
            self.obs.record_selection_lookup(true);
            return Ok(sel);
        }
        self.obs.record_selection_lookup(false);
        let exec = self
            .profile
            .exec_table(problem.routine, problem.dtype)
            .ok_or_else(|| RuntimeError::MissingExecTable {
                routine: problem.routine.name(problem.dtype),
            })?;
        let ctx = ModelCtx {
            problem,
            transfer: &self.profile.transfer,
            exec,
            full_kernel_time: None,
        };
        let sel = self.selector.select(model, &ctx)?;
        self.cache.insert(key, sel.clone());
        Ok(sel)
    }

    fn resolve_tile(
        &mut self,
        problem: &ProblemSpec,
        choice: TileChoice,
    ) -> Result<(usize, Option<Selection>), RuntimeError> {
        match choice {
            TileChoice::Fixed(t) => {
                if t == 0 {
                    return Err(RuntimeError::DimensionMismatch {
                        what: "tiling size must be positive".to_owned(),
                    });
                }
                Ok((t, None))
            }
            TileChoice::Auto => {
                let model = ModelKind::recommended_for(problem.routine);
                let sel = self.select_tile(problem, model)?;
                Ok((sel.tile, Some(sel)))
            }
            TileChoice::Model(model) => {
                let sel = self.select_tile(problem, model)?;
                Ok((sel.tile, Some(sel)))
            }
        }
    }

    /// Closes a finished call: scores it against every evaluable model,
    /// feeds the observer, and assembles its [`RoutineReport`]. `t0` and
    /// `trace_start` are the device clock and trace length when the call
    /// began.
    #[allow(clippy::too_many_arguments)]
    fn finish_call(
        &mut self,
        routine: &'static str,
        call: u64,
        problem: &ProblemSpec,
        tile: usize,
        selection: Option<Selection>,
        t0: SimTime,
        trace_start: usize,
        run: RunStats,
    ) -> RoutineReport {
        let elapsed = self.gpu.now().saturating_since(t0);
        let actual_secs = elapsed.as_secs_f64();
        let drift = match self.profile.exec_table(problem.routine, problem.dtype) {
            Some(exec) => {
                let mctx = ModelCtx {
                    problem,
                    transfer: &self.profile.transfer,
                    exec,
                    full_kernel_time: None,
                };
                score_models(routine, call, &mctx, tile, actual_secs)
            }
            None => Vec::new(),
        };
        let entries = self.gpu.trace().entries_since(trace_start);
        let overlap = OverlapStats::from_entries(entries);
        self.obs.observe_call(CallObservation {
            routine,
            call,
            tile,
            model: selection.as_ref().map(|s| s.prediction.model),
            subkernels: run.subkernels,
            elapsed_secs: actual_secs,
            entries,
            tile_hits: run.tile_hits,
            tile_misses: run.tile_misses,
            drift: drift.clone(),
        });
        RoutineReport {
            elapsed,
            tile,
            subkernels: run.subkernels,
            flops: problem.flops(),
            selection,
            overlap,
            drift,
            tile_hits: run.tile_hits,
            tile_misses: run.tile_misses,
            op_retries: run.retries,
        }
    }

    /// Executes a [`GemmRequest`]: `C ← α·A·B + β·C` with 3-way overlap.
    ///
    /// # Errors
    ///
    /// Dimension mismatches, missing exec tables (for model-driven tile
    /// choices), shared operands (executor-only), and simulator failures.
    pub fn run_gemm<T: SimScalar>(
        &mut self,
        req: GemmRequest<T>,
    ) -> Result<GemmResult<T>, RuntimeError> {
        let GemmRequest {
            a,
            b,
            c,
            alpha,
            beta,
            tile: choice,
            deadline: _,
        } = req;
        let a = inline_mat(a)?;
        let b = inline_mat(b)?;
        let c = inline_mat(c)?;
        let (m, n, k) = gemm::check_dims(&a, &b, &c)?;
        let problem = ProblemSpec::gemm(T::DTYPE, m, n, k, a.loc(), b.loc(), c.loc(), beta != 0.0);
        let (tile, selection) = self.resolve_tile(&problem, choice)?;
        let streams = self.ensure_streams();
        let call = self.obs.next_call_id();
        let trace_start = self.gpu.trace().len();
        let t0 = self.gpu.now();
        let run = gemm::run(
            &mut self.gpu,
            streams,
            call,
            self.retry,
            alpha,
            a,
            b,
            beta,
            c,
            tile,
        )?;
        let report = self.finish_call(
            "gemm",
            call,
            &problem,
            tile,
            selection,
            t0,
            trace_start,
            run.stats,
        );
        Ok(GemmResult { c: run.c, report })
    }

    /// Executes an [`AxpyRequest`]: `y ← α·x + y` with 3-way overlap.
    ///
    /// # Errors
    ///
    /// As for [`run_gemm`](Self::run_gemm).
    pub fn run_axpy<T: SimScalar>(
        &mut self,
        req: AxpyRequest<T>,
    ) -> Result<VecResult<T>, RuntimeError> {
        let AxpyRequest {
            alpha,
            x,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let x = inline_vec(x)?;
        let y = inline_vec(y)?;
        if x.len() != y.len() {
            return Err(RuntimeError::DimensionMismatch {
                what: format!("axpy: x has {} elements but y has {}", x.len(), y.len()),
            });
        }
        let problem = ProblemSpec::axpy(T::DTYPE, x.len(), x.loc(), y.loc());
        let (tile, selection) = self.resolve_tile(&problem, choice)?;
        let streams = self.ensure_streams();
        let call = self.obs.next_call_id();
        let trace_start = self.gpu.trace().len();
        let t0 = self.gpu.now();
        let run = axpy::run(&mut self.gpu, streams, call, self.retry, alpha, x, y, tile)?;
        let report = self.finish_call(
            "axpy",
            call,
            &problem,
            tile,
            selection,
            t0,
            trace_start,
            run.stats,
        );
        Ok(VecResult { y: run.y, report })
    }

    /// Executes a [`DotRequest`]: tiled reduction `result ← xᵀy` with
    /// 3-way overlap (the partials drain in one transfer and are summed on
    /// the host).
    ///
    /// # Errors
    ///
    /// As for [`run_gemm`](Self::run_gemm).
    pub fn run_dot<T: SimScalar>(&mut self, req: DotRequest<T>) -> Result<DotResult, RuntimeError> {
        let DotRequest {
            x,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let x = inline_vec(x)?;
        let y = inline_vec(y)?;
        if x.len() != y.len() {
            return Err(RuntimeError::DimensionMismatch {
                what: format!("dot: x has {} elements but y has {}", x.len(), y.len()),
            });
        }
        let problem = ProblemSpec::dot(T::DTYPE, x.len(), x.loc(), y.loc());
        let (tile, selection) = self.resolve_tile(&problem, choice)?;
        let streams = self.ensure_streams();
        let call = self.obs.next_call_id();
        let trace_start = self.gpu.trace().len();
        let t0 = self.gpu.now();
        let run = dot::run(&mut self.gpu, streams, call, self.retry, x, y, tile)?;
        let report = self.finish_call(
            "dot",
            call,
            &problem,
            tile,
            selection,
            t0,
            trace_start,
            run.stats,
        );
        Ok(DotResult {
            value: run.value,
            report,
        })
    }

    /// Executes a [`GemvRequest`]: `y ← α·A·x + β·y` with 3-way overlap
    /// (the extension routine).
    ///
    /// # Errors
    ///
    /// As for [`run_gemm`](Self::run_gemm).
    pub fn run_gemv<T: SimScalar>(
        &mut self,
        req: GemvRequest<T>,
    ) -> Result<VecResult<T>, RuntimeError> {
        let GemvRequest {
            alpha,
            a,
            x,
            beta,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let a = inline_mat(a)?;
        let x = inline_vec(x)?;
        let y = inline_vec(y)?;
        if x.len() != a.cols() || y.len() != a.rows() {
            return Err(RuntimeError::DimensionMismatch {
                what: format!(
                    "gemv: A is {}x{} but x has {} and y has {} elements",
                    a.rows(),
                    a.cols(),
                    x.len(),
                    y.len()
                ),
            });
        }
        let problem = ProblemSpec::gemv(
            T::DTYPE,
            a.rows(),
            a.cols(),
            a.loc(),
            x.loc(),
            y.loc(),
            beta != 0.0,
        );
        let (tile, selection) = self.resolve_tile(&problem, choice)?;
        let streams = self.ensure_streams();
        let call = self.obs.next_call_id();
        let trace_start = self.gpu.trace().len();
        let t0 = self.gpu.now();
        let run = gemv::run(
            &mut self.gpu,
            streams,
            call,
            self.retry,
            alpha,
            a,
            x,
            beta,
            y,
            tile,
        )?;
        let report = self.finish_call(
            "gemv",
            call,
            &problem,
            tile,
            selection,
            t0,
            trace_start,
            run.stats,
        );
        Ok(VecResult { y: run.y, report })
    }

    /// Executes a type-erased [`RoutineRequest`], returning its report.
    /// This is the single-call twin of queued executor submission; typed
    /// results (output matrices, reduction values) are only available
    /// through the typed `run` paths.
    ///
    /// # Errors
    ///
    /// As for the underlying routine.
    pub fn submit(
        &mut self,
        req: impl Into<RoutineRequest>,
    ) -> Result<RoutineReport, RuntimeError> {
        match req.into() {
            RoutineRequest::GemmF64(r) => Ok(self.run_gemm(r)?.report),
            RoutineRequest::GemmF32(r) => Ok(self.run_gemm(r)?.report),
            RoutineRequest::AxpyF64(r) => Ok(self.run_axpy(r)?.report),
            RoutineRequest::DotF64(r) => Ok(self.run_dot(r)?.report),
            RoutineRequest::GemvF64(r) => Ok(self.run_gemv(r)?.report),
        }
    }

    /// Copies a host matrix into device memory and returns a resident
    /// handle (the "data already on the GPU" scenario of §III-A2).
    ///
    /// # Errors
    ///
    /// Out-of-memory and other simulator failures.
    pub fn upload_matrix<T: SimScalar>(
        &mut self,
        m: &Matrix<T>,
    ) -> Result<DeviceMatrix, RuntimeError> {
        let len = m.rows() * m.cols();
        let host = self
            .gpu
            .register_host(T::into_payload(m.as_slice().to_vec()), true);
        let dev = self.gpu.alloc_device(T::DTYPE, len)?;
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_h2d_async(streams.h2d, CopyDesc::contiguous(host, dev, len))?;
        self.gpu.synchronize()?;
        self.gpu.take_host(host)?;
        Ok(DeviceMatrix {
            buf: dev,
            rows: m.rows(),
            cols: m.cols(),
        })
    }

    /// Charges the h2d transfer of a `rows × cols` ghost matrix and returns
    /// the resident handle — the timing-only twin of
    /// [`upload_matrix`](Self::upload_matrix). The serving layer uses this
    /// to pay upload cost for residency-cache fills without host data.
    ///
    /// # Errors
    ///
    /// Out-of-memory and other simulator failures.
    pub fn upload_ghost_matrix(
        &mut self,
        dtype: Dtype,
        rows: usize,
        cols: usize,
    ) -> Result<DeviceMatrix, RuntimeError> {
        let len = rows * cols;
        let host = self.gpu.register_host_ghost(dtype, len, true);
        let dev = self.gpu.alloc_device(dtype, len)?;
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_h2d_async(streams.h2d, CopyDesc::contiguous(host, dev, len))?;
        self.gpu.synchronize()?;
        self.gpu.take_host(host)?;
        Ok(DeviceMatrix {
            buf: dev,
            rows,
            cols,
        })
    }

    /// Enqueues the h2d transfer of a ghost matrix *without* synchronizing
    /// — the copy is queued on the dedicated prefetch stream under `tag`
    /// and overlaps whatever the device executes before its next
    /// synchronize. The
    /// returned [`HostBufId`](cocopelia_gpusim::HostBufId) names the
    /// staging ghost; the caller must `take_host` it after a synchronize
    /// (or free the device buffer and take the ghost on abandonment). The
    /// cross-request prefetcher uses this to hide a queued request's
    /// uploads under the running request's compute.
    ///
    /// # Errors
    ///
    /// Out-of-memory and enqueue-time fault injection. On error nothing
    /// stays allocated.
    pub(crate) fn enqueue_ghost_matrix(
        &mut self,
        dtype: Dtype,
        rows: usize,
        cols: usize,
        tag: cocopelia_gpusim::OpTag,
    ) -> Result<(DeviceMatrix, cocopelia_gpusim::HostBufId), RuntimeError> {
        let len = rows * cols;
        let host = self.gpu.register_host_ghost(dtype, len, true);
        let dev = match self.gpu.alloc_device(dtype, len) {
            Ok(dev) => dev,
            Err(e) => {
                let _ = self.gpu.take_host(host);
                return Err(e.into());
            }
        };
        let stream = self.ensure_prefetch_stream();
        self.gpu.set_op_tag(tag);
        let res = self
            .gpu
            .memcpy_h2d_async(stream, CopyDesc::contiguous(host, dev, len));
        self.gpu.clear_op_tag();
        if let Err(e) = res {
            let _ = self.gpu.free_device(dev);
            let _ = self.gpu.take_host(host);
            return Err(e.into());
        }
        Ok((
            DeviceMatrix {
                buf: dev,
                rows,
                cols,
            },
            host,
        ))
    }

    /// Enqueues the h2d transfer of a ghost vector without synchronizing;
    /// see [`enqueue_ghost_matrix`](Self::enqueue_ghost_matrix).
    ///
    /// # Errors
    ///
    /// As for [`enqueue_ghost_matrix`](Self::enqueue_ghost_matrix).
    pub(crate) fn enqueue_ghost_vector(
        &mut self,
        dtype: Dtype,
        len: usize,
        tag: cocopelia_gpusim::OpTag,
    ) -> Result<(DeviceVector, cocopelia_gpusim::HostBufId), RuntimeError> {
        let host = self.gpu.register_host_ghost(dtype, len, true);
        let dev = match self.gpu.alloc_device(dtype, len) {
            Ok(dev) => dev,
            Err(e) => {
                let _ = self.gpu.take_host(host);
                return Err(e.into());
            }
        };
        let stream = self.ensure_prefetch_stream();
        self.gpu.set_op_tag(tag);
        let res = self
            .gpu
            .memcpy_h2d_async(stream, CopyDesc::contiguous(host, dev, len));
        self.gpu.clear_op_tag();
        if let Err(e) = res {
            let _ = self.gpu.free_device(dev);
            let _ = self.gpu.take_host(host);
            return Err(e.into());
        }
        Ok((DeviceVector { buf: dev, len }, host))
    }

    /// Allocates a device-resident matrix without data (timing sweeps).
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn alloc_matrix(
        &mut self,
        dtype: Dtype,
        rows: usize,
        cols: usize,
    ) -> Result<DeviceMatrix, RuntimeError> {
        let dev = self.gpu.alloc_device(dtype, rows * cols)?;
        Ok(DeviceMatrix {
            buf: dev,
            rows,
            cols,
        })
    }

    /// Copies a device-resident matrix back to the host.
    ///
    /// # Errors
    ///
    /// Fails in timing-only mode (no data to download) with
    /// [`RuntimeError::NotFunctional`].
    pub fn download_matrix<T: SimScalar>(
        &mut self,
        d: &DeviceMatrix,
    ) -> Result<Matrix<T>, RuntimeError> {
        if !self.gpu.is_functional() {
            return Err(RuntimeError::NotFunctional);
        }
        let len = d.rows * d.cols;
        let host = self
            .gpu
            .register_host(T::into_payload(vec![T::ZERO; len]), true);
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_d2h_async(streams.d2h, CopyDesc::contiguous(host, d.buf, len))?;
        self.gpu.synchronize()?;
        let buf = self.gpu.take_host(host)?;
        Ok(Matrix::from_vec(
            d.rows,
            d.cols,
            T::payload_into_vec(buf.payload),
        ))
    }

    /// Releases a device-resident matrix.
    ///
    /// # Errors
    ///
    /// Stale handles and in-flight work.
    pub fn free_matrix(&mut self, d: DeviceMatrix) -> Result<(), RuntimeError> {
        self.gpu.free_device(d.buf)?;
        Ok(())
    }

    /// Copies a host vector into device memory.
    ///
    /// # Errors
    ///
    /// Out-of-memory and other simulator failures.
    pub fn upload_vector<T: SimScalar>(&mut self, v: &[T]) -> Result<DeviceVector, RuntimeError> {
        let host = self.gpu.register_host(T::into_payload(v.to_vec()), true);
        let dev = self.gpu.alloc_device(T::DTYPE, v.len())?;
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_h2d_async(streams.h2d, CopyDesc::contiguous(host, dev, v.len()))?;
        self.gpu.synchronize()?;
        self.gpu.take_host(host)?;
        Ok(DeviceVector {
            buf: dev,
            len: v.len(),
        })
    }

    /// Charges the h2d transfer of a ghost vector of `len` elements and
    /// returns the resident handle. See
    /// [`upload_ghost_matrix`](Self::upload_ghost_matrix).
    ///
    /// # Errors
    ///
    /// Out-of-memory and other simulator failures.
    pub fn upload_ghost_vector(
        &mut self,
        dtype: Dtype,
        len: usize,
    ) -> Result<DeviceVector, RuntimeError> {
        let host = self.gpu.register_host_ghost(dtype, len, true);
        let dev = self.gpu.alloc_device(dtype, len)?;
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_h2d_async(streams.h2d, CopyDesc::contiguous(host, dev, len))?;
        self.gpu.synchronize()?;
        self.gpu.take_host(host)?;
        Ok(DeviceVector { buf: dev, len })
    }

    /// Allocates a device-resident vector without data.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn alloc_vector(&mut self, dtype: Dtype, len: usize) -> Result<DeviceVector, RuntimeError> {
        let dev = self.gpu.alloc_device(dtype, len)?;
        Ok(DeviceVector { buf: dev, len })
    }

    /// Copies a device-resident vector back to the host.
    ///
    /// # Errors
    ///
    /// Fails in timing-only mode with [`RuntimeError::NotFunctional`].
    pub fn download_vector<T: SimScalar>(
        &mut self,
        d: &DeviceVector,
    ) -> Result<Vec<T>, RuntimeError> {
        if !self.gpu.is_functional() {
            return Err(RuntimeError::NotFunctional);
        }
        let host = self
            .gpu
            .register_host(T::into_payload(vec![T::ZERO; d.len]), true);
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_d2h_async(streams.d2h, CopyDesc::contiguous(host, d.buf, d.len))?;
        self.gpu.synchronize()?;
        let buf = self.gpu.take_host(host)?;
        Ok(T::payload_into_vec(buf.payload))
    }

    /// Releases a device-resident vector.
    ///
    /// # Errors
    ///
    /// Stale handles and in-flight work.
    pub fn free_vector(&mut self, d: DeviceVector) -> Result<(), RuntimeError> {
        self.gpu.free_device(d.buf)?;
        Ok(())
    }

    /// Number of cached tile selections (model reuse, §IV-C).
    pub fn cached_selections(&self) -> usize {
        self.cache.len()
    }
}

/// Rejects shared matrix arguments outside an executor.
fn inline_mat<T>(arg: MatArg<T>) -> Result<MatOperand<T>, RuntimeError> {
    match arg {
        MatArg::Inline(op) => Ok(op),
        MatArg::Shared(s) => Err(RuntimeError::SharedOperand { key: s.key }),
    }
}

/// Rejects shared vector arguments outside an executor.
fn inline_vec<T>(arg: VecArg<T>) -> Result<VecOperand<T>, RuntimeError> {
    match arg {
        VecArg::Inline(op) => Ok(op),
        VecArg::Shared(s) => Err(RuntimeError::SharedOperand { key: s.key }),
    }
}
