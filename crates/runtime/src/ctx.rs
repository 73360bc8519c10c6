//! The CoCoPeLia library handle: routine wrappers, runtime tiling-size
//! selection with model reuse, and device-residency management.

use crate::error::RuntimeError;
use crate::operand::{DeviceMatrix, DeviceVector, MatOperand, TileChoice, VecOperand};
use crate::request::{
    AxpyRequest, DotRequest, GemmRequest, GemvRequest, MatArg, RoutineRequest, VecArg,
};
use crate::scheduler::{OperandStore, PlanRun, Streams, TileFetcher, TilePlan};
use cocopelia_core::models::{ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, Operand, ProblemSpec, RoutineClass};
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::select::{Selection, TileSelector};
use cocopelia_gpusim::{
    CopyDesc, DevBufId, EventId, Gpu, HostBufId, Payload, Routine, SimScalar, SimTime, TraceEntry,
};
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
    /// Virtual wall time of the call: from its first enqueue to the end
    /// of its last op (a direct call syncs the device there). A call the
    /// serving layer overlaps with others on one device counts from its
    /// issue, so the time it queued on the streams behind earlier calls
    /// is included.
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
    /// Tiles copied from the host because the reuse cache missed. A
    /// write-only output tile (gemm's C or gemv's y at `beta = 0`) copies
    /// nothing and is not counted.
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
    streams: Option<Streams>,
    cache: HashMap<SelectKey, Selection>,
    obs: Observer,
    /// When the end event of the last call completed with one fired: the
    /// next such call's end event queues behind it on the d2h stream.
    last_end: SimTime,
    /// The entries of the call [`close`](Self::close) reads when it ran
    /// beside others, kept to reuse the storage.
    own: Vec<TraceEntry>,
}

/// A routine call enqueued on the device with an end event and not yet
/// completed ([`Cocopelia::issue`], [`Cocopelia::complete`]).
#[derive(Debug)]
pub(crate) struct Issued {
    routine: &'static str,
    problem: ProblemSpec,
    tile: usize,
    selection: Option<Selection>,
    call: u64,
    /// The clock at issue.
    t0: SimTime,
    /// The trace length at issue: the call's entries are recorded after it.
    trace_start: usize,
    run: PlanRun,
}

impl Issued {
    /// The call id tagging every op of the call.
    pub(crate) fn call(&self) -> u64 {
        self.call
    }

    /// The event recorded behind the call's last op.
    pub(crate) fn end(&self) -> Option<EventId> {
        self.run.end()
    }
}

impl Cocopelia {
    /// Wraps a device with a deployed system profile.
    pub fn new(gpu: Gpu, profile: SystemProfile) -> Self {
        Cocopelia {
            gpu,
            profile,
            streams: None,
            cache: HashMap::new(),
            obs: Observer::new(),
            last_end: SimTime::ZERO,
            own: Vec::new(),
        }
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
        let sel = TileSelector.select(model, &ctx)?;
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

    /// The one path of a direct call: opens it (`open`, which issues the
    /// call without an end event) and completes it at once
    /// ([`close`](Self::close)), holding the call's trace entries while it
    /// reads them. Returns the output's payload.
    ///
    /// The device holds the entries only while the call computes its
    /// overlap and feeds the observer: unless the caller already holds
    /// entries from before the call, the call lowers the trace floor to
    /// its own mark and hands back the floor it found when done, so it
    /// never raises or lowers a floor a caller set.
    fn direct(
        &mut self,
        open: impl FnOnce(&mut Self) -> Result<Issued, RuntimeError>,
    ) -> Result<(Option<Payload>, RoutineReport), RuntimeError> {
        let mark = self.gpu.trace().len();
        let found = if self.gpu.trace().entries().is_empty() {
            Some(self.gpu.keep_trace_from(mark))
        } else {
            None
        };
        let result = open(self).and_then(|issued| self.close(issued));
        if let Some(found) = found {
            self.gpu.keep_trace_from(found);
        }
        result
    }

    /// Issues a call whose operands passed their dimension checks
    /// (building `plan`): resolves the tile, opens the call (streams, call
    /// id, trace mark, start clock), stages the operands with `stores` and
    /// enqueues `plan` at the tile, with an end event when `end`.
    fn open<T: SimScalar, const N: usize>(
        &mut self,
        routine: &'static str,
        problem: ProblemSpec,
        choice: TileChoice,
        plan: TilePlan,
        stores: impl FnOnce(&mut Gpu) -> [OperandStore; N],
        end: bool,
    ) -> Result<Issued, RuntimeError> {
        let (tile, selection) = self.resolve_tile(&problem, choice)?;
        let streams = self.ensure_streams();
        let call = self.obs.next_call_id();
        let trace_start = self.gpu.trace().len();
        let t0 = self.gpu.now();
        let stores = stores(&mut self.gpu);
        let fetcher = TileFetcher::new(streams);
        let run = plan.issue::<T>(&mut self.gpu, fetcher, call, tile, &stores, end)?;
        Ok(Issued {
            routine,
            problem,
            tile,
            selection,
            call,
            t0,
            trace_start,
            run,
        })
    }

    /// Completes an issued call: waits for it and releases its buffers,
    /// then scores it against every evaluable model, feeds the observer,
    /// and assembles its [`RoutineReport`] from the call's own entries.
    /// Returns the output's payload too.
    ///
    /// A call with an end event may have run beside later calls, and the
    /// device may have run past its end while the host waited for
    /// something else: the call ends when its end event fired, which is
    /// its own last op's end or the previous such call's end, whichever
    /// is later (both events sit on the d2h stream).
    fn close(&mut self, issued: Issued) -> Result<(Option<Payload>, RoutineReport), RuntimeError> {
        let Issued {
            routine,
            problem,
            tile,
            selection,
            call,
            t0,
            trace_start,
            run,
        } = issued;
        let overlapped = run.end().is_some();
        let (out, stats) = run.finish(&mut self.gpu)?;
        let entries = self.gpu.trace().entries_since(trace_start);
        let (entries, end) = if overlapped {
            let own = &mut self.own;
            own.clear();
            let tagged = |e: &&TraceEntry| e.tag.is_some_and(|t| u64::from(t.call) == call);
            own.extend(entries.iter().filter(tagged).cloned());
            let last = own.iter().map(|e| e.end).max().unwrap_or(t0);
            let end = last.max(self.last_end).max(t0);
            self.last_end = end;
            (&own[..], end)
        } else {
            (entries, self.gpu.now())
        };
        let elapsed = end.saturating_since(t0);
        let actual_secs = elapsed.as_secs_f64();
        let drift = match self.profile.exec_table(problem.routine, problem.dtype) {
            Some(exec) => {
                let mctx = ModelCtx {
                    problem: &problem,
                    transfer: &self.profile.transfer,
                    exec,
                    full_kernel_time: None,
                };
                score_models(routine, call, &mctx, tile, actual_secs)
            }
            None => Vec::new(),
        };
        let overlap = OverlapStats::from_entries(entries);
        self.obs.observe_call(CallObservation {
            routine,
            call,
            tile,
            model: selection.as_ref().map(|s| s.prediction.model),
            subkernels: stats.subkernels,
            elapsed_secs: actual_secs,
            entries,
            overlap,
            tile_hits: stats.tile_hits,
            tile_misses: stats.tile_misses,
            drift: drift.clone(),
        });
        let report = RoutineReport {
            elapsed,
            tile,
            subkernels: stats.subkernels,
            flops: problem.flops(),
            selection,
            overlap,
            drift,
            tile_hits: stats.tile_hits,
            tile_misses: stats.tile_misses,
            op_retries: stats.retries,
        };
        Ok((out, report))
    }

    /// Issues a type-erased [`RoutineRequest`] on the device's three
    /// streams with an end event, and returns at once: later calls issued
    /// on the same streams overlap with it (one call's transfers run under
    /// another's kernels). Finish it with [`complete`](Self::complete),
    /// calls in issue order. The caller holds the device's trace entries
    /// from before the issue until the call completes.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit), for what fails at enqueue.
    pub(crate) fn issue(&mut self, req: RoutineRequest) -> Result<Issued, RuntimeError> {
        match req {
            RoutineRequest::GemmF64(r) => self.open_gemm(r, true),
            RoutineRequest::GemmF32(r) => self.open_gemm(r, true),
            RoutineRequest::AxpyF64(r) => self.open_axpy(r, true),
            RoutineRequest::DotF64(r) => self.open_dot(r, true),
            RoutineRequest::GemvF64(r) => self.open_gemv(r, true),
        }
    }

    /// Completes a call [`issue`](Self::issue) enqueued: waits for its end
    /// event, releases its buffers and reports it.
    ///
    /// # Errors
    ///
    /// Simulator failures at the wait, such as a lost device.
    pub(crate) fn complete(&mut self, issued: Issued) -> Result<RoutineReport, RuntimeError> {
        Ok(self.close(issued)?.1)
    }

    /// The id the next call will get.
    pub(crate) fn next_call(&self) -> u64 {
        self.obs.peek_call_id()
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
        let (m, n) = (req.c.rows(), req.c.cols());
        let (c, report) = self.direct(|ctx| ctx.open_gemm(req, false))?;
        Ok(GemmResult {
            c: c.map(|p| Matrix::from_vec(m, n, T::payload_into_vec(p))),
            report,
        })
    }

    /// Opens a gemm call ([`open`](Self::open)).
    fn open_gemm<T: SimScalar>(
        &mut self,
        req: GemmRequest<T>,
        end: bool,
    ) -> Result<Issued, RuntimeError> {
        let (routine, problem) = (req.routine(), req.problem_spec());
        let GemmRequest {
            a,
            b,
            c,
            alpha,
            beta,
            tile: choice,
            deadline: _,
        } = req;
        let (a, b, c) = (inline_mat(a)?, inline_mat(b)?, inline_mat(c)?);
        let shape = |m: &MatOperand<T>| (m.rows(), m.cols());
        let plan = TilePlan::new(
            Routine::Gemm,
            alpha,
            beta,
            &[shape(&a), shape(&b), shape(&c)],
        )?;
        self.open::<T, 3>(
            routine,
            problem,
            choice,
            plan,
            |gpu| [a, b, c].map(|op| OperandStore::from_mat(gpu, op)),
            end,
        )
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
        let (y, report) = self.direct(|ctx| ctx.open_axpy(req, false))?;
        let y = y.map(T::payload_into_vec);
        Ok(VecResult { y, report })
    }

    /// Opens an axpy call ([`open`](Self::open)).
    fn open_axpy<T: SimScalar>(
        &mut self,
        req: AxpyRequest<T>,
        end: bool,
    ) -> Result<Issued, RuntimeError> {
        let (routine, problem) = (req.routine(), req.problem_spec());
        let AxpyRequest {
            alpha,
            x,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let (x, y) = (inline_vec(x)?, inline_vec(y)?);
        let plan = TilePlan::new(Routine::Axpy, alpha, 1.0, &[(x.len(), 1), (y.len(), 1)])?;
        self.open::<T, 2>(
            routine,
            problem,
            choice,
            plan,
            |gpu| [x, y].map(|op| OperandStore::from_vec(gpu, op)),
            end,
        )
    }

    /// Executes a [`DotRequest`]: tiled reduction `result ← xᵀy` with
    /// 3-way overlap (the partials drain in one transfer and are summed on
    /// the host).
    ///
    /// # Errors
    ///
    /// As for [`run_gemm`](Self::run_gemm).
    pub fn run_dot<T: SimScalar>(&mut self, req: DotRequest<T>) -> Result<DotResult, RuntimeError> {
        let (partials, report) = self.direct(|ctx| ctx.open_dot(req, false))?;
        let partials = partials.map(T::payload_into_vec);
        let value = partials.map(|p| p.iter().map(|v| v.to_f64()).sum());
        Ok(DotResult { value, report })
    }

    /// Opens a dot call ([`open`](Self::open)).
    fn open_dot<T: SimScalar>(
        &mut self,
        req: DotRequest<T>,
        end: bool,
    ) -> Result<Issued, RuntimeError> {
        let (routine, problem) = (req.routine(), req.problem_spec());
        let DotRequest {
            x,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let (x, y) = (inline_vec(x)?, inline_vec(y)?);
        let plan = TilePlan::new(Routine::Dot, 1.0, 1.0, &[(x.len(), 1), (y.len(), 1)])?;
        self.open::<T, 2>(
            routine,
            problem,
            choice,
            plan,
            |gpu| [x, y].map(|op| OperandStore::from_vec(gpu, op)),
            end,
        )
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
        let (y, report) = self.direct(|ctx| ctx.open_gemv(req, false))?;
        let y = y.map(T::payload_into_vec);
        Ok(VecResult { y, report })
    }

    /// Opens a gemv call ([`open`](Self::open)).
    fn open_gemv<T: SimScalar>(
        &mut self,
        req: GemvRequest<T>,
        end: bool,
    ) -> Result<Issued, RuntimeError> {
        let (routine, problem) = (req.routine(), req.problem_spec());
        let GemvRequest {
            alpha,
            a,
            x,
            beta,
            y,
            tile: choice,
            deadline: _,
        } = req;
        let (a, x, y) = (inline_mat(a)?, inline_vec(x)?, inline_vec(y)?);
        let shapes = [(a.rows(), a.cols()), (x.len(), 1), (y.len(), 1)];
        let plan = TilePlan::new(Routine::Gemv, alpha, beta, &shapes)?;
        let stores = |gpu: &mut Gpu| {
            let a = OperandStore::from_mat(gpu, a);
            [
                a,
                OperandStore::from_vec(gpu, x),
                OperandStore::from_vec(gpu, y),
            ]
        };
        self.open::<T, 3>(routine, problem, choice, plan, stores, end)
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

    /// The request `spec` describes, on operands without data: each
    /// operand is built by [`MatOperand::ghost`]/[`VecOperand::ghost`] on
    /// this handle's device, in operand order. Gemm and gemv get `β = 1`
    /// exactly when `C`/`y` is an input; `α` is 1. The inverse of
    /// [`RoutineRequest::problem_spec`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedRoutine`] when no request variant runs
    /// `spec`'s routine at its precision (or `spec` lists the wrong number
    /// of operands), and out-of-memory for device-resident operands.
    pub fn ghost_request(
        &mut self,
        spec: &ProblemSpec,
        tile: TileChoice,
    ) -> Result<RoutineRequest, RuntimeError> {
        let gpu = &mut self.gpu;
        let beta = |out: &Operand| if out.input { 1.0 } else { 0.0 };
        Ok(match (spec.routine, spec.dtype, spec.operands.as_slice()) {
            (RoutineClass::Gemm, Dtype::F64, [a, b, c]) => GemmRequest::<f64>::new(
                MatOperand::ghost(gpu, a)?,
                MatOperand::ghost(gpu, b)?,
                MatOperand::ghost(gpu, c)?,
            )
            .beta(beta(c))
            .tile(tile)
            .into(),
            (RoutineClass::Gemm, Dtype::F32, [a, b, c]) => GemmRequest::<f32>::new(
                MatOperand::ghost(gpu, a)?,
                MatOperand::ghost(gpu, b)?,
                MatOperand::ghost(gpu, c)?,
            )
            .beta(beta(c))
            .tile(tile)
            .into(),
            (RoutineClass::Axpy, Dtype::F64, [x, y]) => {
                AxpyRequest::<f64>::new(VecOperand::ghost(gpu, x)?, VecOperand::ghost(gpu, y)?)
                    .tile(tile)
                    .into()
            }
            (RoutineClass::Dot, Dtype::F64, [x, y]) => {
                DotRequest::<f64>::new(VecOperand::ghost(gpu, x)?, VecOperand::ghost(gpu, y)?)
                    .tile(tile)
                    .into()
            }
            (RoutineClass::Gemv, Dtype::F64, [a, x, y]) => GemvRequest::<f64>::new(
                MatOperand::ghost(gpu, a)?,
                VecOperand::ghost(gpu, x)?,
                VecOperand::ghost(gpu, y)?,
            )
            .beta(beta(y))
            .tile(tile)
            .into(),
            _ => {
                return Err(RuntimeError::UnsupportedRoutine {
                    routine: spec.routine.name(spec.dtype),
                })
            }
        })
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
        let host = self
            .gpu
            .register_host(T::into_payload(m.as_slice().to_vec()), true);
        let buf = self.upload(host, T::DTYPE, m.rows() * m.cols())?;
        Ok(DeviceMatrix::from_raw(buf, m.rows(), m.cols()))
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
        Ok(DeviceMatrix::from_raw(dev, rows, cols))
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
        let data = self.download(d.buf, d.rows * d.cols)?;
        Ok(Matrix::from_vec(d.rows, d.cols, data))
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
        let buf = self.upload(host, T::DTYPE, v.len())?;
        Ok(DeviceVector::from_raw(buf, v.len()))
    }

    /// Copies the `len` elements of registered host buffer `host` into a
    /// fresh device buffer, waits for the copy, and releases the host
    /// side.
    fn upload(
        &mut self,
        host: HostBufId,
        dtype: Dtype,
        len: usize,
    ) -> Result<DevBufId, RuntimeError> {
        let dev = self.gpu.alloc_device(dtype, len)?;
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_h2d_async(streams.h2d, CopyDesc::contiguous(host, dev, len))?;
        self.gpu.synchronize()?;
        self.gpu.take_host(host)?;
        Ok(dev)
    }

    /// Allocates a device-resident vector without data.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn alloc_vector(&mut self, dtype: Dtype, len: usize) -> Result<DeviceVector, RuntimeError> {
        let dev = self.gpu.alloc_device(dtype, len)?;
        Ok(DeviceVector::from_raw(dev, len))
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
        self.download(d.buf, d.len)
    }

    /// Copies the first `len` elements of device buffer `buf` back to the
    /// host, failing with [`RuntimeError::NotFunctional`] in timing-only
    /// mode (there is no data to download).
    fn download<T: SimScalar>(
        &mut self,
        buf: DevBufId,
        len: usize,
    ) -> Result<Vec<T>, RuntimeError> {
        if !self.gpu.is_functional() {
            return Err(RuntimeError::NotFunctional);
        }
        let host = self
            .gpu
            .register_host(T::into_payload(vec![T::ZERO; len]), true);
        let streams = self.ensure_streams();
        self.gpu
            .memcpy_d2h_async(streams.d2h, CopyDesc::contiguous(host, buf, len))?;
        self.gpu.synchronize()?;
        Ok(T::payload_into_vec(self.gpu.take_host(host)?.payload))
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
