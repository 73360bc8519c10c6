//! The long-lived serving session: construction-time configuration
//! ([`ServeOptions`]) plus the session state ([`ServeSession`]).
//!
//! A session takes the whole serving configuration up front and exposes
//! exactly the request lifecycle: submit (now or at a future virtual
//! instant), drain, inspect. Closed-queue serving is the degenerate case
//! — submit everything at offset zero and drain. The dispatch engine
//! behind the lifecycle (admission, placement, retry, hedging, probation)
//! lives in the sibling `executor` module.

use crate::error::RequestId;
use crate::multigpu::MultiGpu;
use crate::request::RoutineRequest;
use crate::serve::executor::{
    BudgetState, Calibration, Coalition, DeviceProbe, ExecutorConfig, HedgeConfig, ProbationConfig,
    Queued, RequestOutcome, RetryBudgetConfig,
};
use crate::serve::residency::ResidencyCache;
use crate::serve::sched::SchedulePolicy;
use crate::serve::telemetry::{Telemetry, TelemetryConfig, WatchSink, WatchWindow};
use crate::serve::trace::ServeTracer;
use cocopelia_gpusim::SimTime;
use cocopelia_obs::{DriftAccountant, Registry};
use std::collections::{HashMap, VecDeque};

/// Construction-time configuration of a [`ServeSession`]: scheduling
/// policy, observability arms, and the open-arrival knobs. A builder
/// consumed once, so a session's behaviour is fixed for its whole
/// lifetime.
///
/// ```
/// use cocopelia_runtime::serve::{SchedulePolicy, ServeOptions};
///
/// let opts = ServeOptions::new()
///     .policy(SchedulePolicy::Predictive)
///     .tracing()
///     .queue_cap(32)
///     .coalesce();
/// ```
#[derive(Default)]
pub struct ServeOptions {
    pub(crate) policy: SchedulePolicy,
    pub(crate) tracing: bool,
    pub(crate) telemetry: Option<TelemetryConfig>,
    pub(crate) watch_sink: Option<WatchSink>,
    pub(crate) queue_cap: Option<usize>,
    pub(crate) shed_flow_secs: Option<f64>,
    pub(crate) coalesce: bool,
    pub(crate) hedge: Option<HedgeConfig>,
    pub(crate) probation: Option<ProbationConfig>,
    pub(crate) retry_budget: Option<RetryBudgetConfig>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("policy", &self.policy)
            .field("tracing", &self.tracing)
            .field("telemetry", &self.telemetry)
            .field(
                "watch_sink",
                &self.watch_sink.as_ref().map(|_| "FnMut(&WatchWindow)"),
            )
            .field("queue_cap", &self.queue_cap)
            .field("shed_flow_secs", &self.shed_flow_secs)
            .field("coalesce", &self.coalesce)
            .field("hedge", &self.hedge)
            .field("probation", &self.probation)
            .field("retry_budget", &self.retry_budget)
            .finish()
    }
}

impl ServeOptions {
    /// Defaults: FIFO policy, no tracing, no telemetry, an unbounded
    /// queue, no shed watermark, no coalescing — exactly
    /// [`ServeSession::new`].
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Queue-scheduling policy (default [`SchedulePolicy::Fifo`]).
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms request-lifecycle tracing: drains collect a
    /// [`cocopelia_obs::ServeTrace`] into
    /// [`ServeReport::trace`](crate::serve::ServeReport::trace). Tracing
    /// changes no scheduling decision.
    pub fn tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Arms streaming telemetry (windowed metrics, SLOs, flight dumps,
    /// optional Perfetto stream). Implies tracing, with the span log
    /// capped at [`TelemetryConfig::recorder_cap`].
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Live-watch sink, called once per closed telemetry window. Only
    /// meaningful together with [`telemetry`](Self::telemetry).
    pub fn watch_sink(mut self, sink: impl FnMut(&WatchWindow) + 'static) -> Self {
        self.watch_sink = Some(Box::new(sink));
        self
    }

    /// Backpressure: an open arrival finding the dispatch queue at this
    /// depth is shed as [`RequestStatus::Rejected`]. Bounds queue memory
    /// — [`ServeReport::peak_queue_depth`] never exceeds the cap.
    /// Closed-queue `submit` calls are not capped (the caller owns that
    /// queue; backpressure governs *arrivals*).
    ///
    /// [`RequestStatus::Rejected`]: crate::serve::RequestStatus::Rejected
    /// [`ServeReport::peak_queue_depth`]: crate::serve::ServeReport::peak_queue_depth
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Load-shed watermark: an open arrival whose predicted flow time —
    /// the queued service backlog spread over healthy devices plus the
    /// request's own service estimate — exceeds `secs` is shed instead of
    /// queued, keeping latency bounded under sustained overload.
    pub fn shed_flow_secs(mut self, secs: f64) -> Self {
        self.shed_flow_secs = Some(secs);
        self
    }

    /// Arms request coalescing: an open arrival whose shape is identical
    /// to a *queued* request (same routine, tile choice, scalars, and
    /// shared/ghost operands position by position) rides on that
    /// request's single execution instead of uploading and running again.
    pub fn coalesce(mut self) -> Self {
        self.coalesce = true;
        self
    }

    /// Does nothing: cross-request prefetch was removed. Kept only so the
    /// frozen benchmark harness under `perfbench/`, which still calls it,
    /// keeps building; delete it together with that call.
    #[doc(hidden)]
    pub fn prefetch(self) -> Self {
        self
    }

    /// Arms hedged re-dispatch: a device attempt whose virtual elapsed
    /// overruns its offload prediction by the adaptive threshold (see
    /// [`HedgeConfig`]) is speculatively re-run on the best other healthy
    /// device; the first completion wins and the loser is cancelled with
    /// its work rolled back. Requires a deployed profile (no prediction,
    /// no overrun). A non-positive multiplier disarms.
    pub fn hedge(mut self, cfg: HedgeConfig) -> Self {
        self.hedge = Some(cfg);
        self
    }

    /// Arms quarantine probation: a quarantined device is periodically
    /// probed with a tiny canary GEMM after a seeded exponential backoff;
    /// [`ProbationConfig::successes`] consecutive clean probes re-admit it
    /// (cold residency cache), and [`ProbationConfig::max_rounds`] failed
    /// rounds give it up for the rest of the session.
    pub fn probation(mut self, cfg: ProbationConfig) -> Self {
        self.probation = Some(cfg);
        self
    }

    /// Arms the per-session retry budget and circuit breaker: each
    /// session-level retry spends one token from a bucket refilled in
    /// virtual time; an empty bucket opens the breaker and faulted
    /// requests fail fast to host fallback until a cooldown (doubling
    /// while faults persist) half-opens it again.
    pub fn retry_budget(mut self, cfg: RetryBudgetConfig) -> Self {
        self.retry_budget = Some(cfg);
        self
    }
}

/// A long-lived serving session over a [`MultiGpu`] pool.
///
/// Lifecycle: [`submit`](Self::submit) requests (footprint admission
/// happens here) or schedule open arrivals with
/// [`submit_at`](Self::submit_at), then [`drain`](Self::drain) to run the
/// event loop to quiescence through the configured [`SchedulePolicy`].
/// Open arrivals materialise at their virtual instant, interleaved with
/// dispatches and completions, where admission control (footprint
/// ceiling, queue cap, shed watermark, coalescing) runs against the queue
/// state of that moment. The session stays alive after a drain, so a
/// workload can alternate submission phases and drains indefinitely on
/// warm residency caches.
///
/// Every placement decision trusts one price per request × device pair:
/// the device's virtual clock plus the service time — the estimated
/// upload of the shared operands the device is missing and the
/// model-predicted offload time from the device's deployed profile —
/// scaled by the device's calibration factor, its observed
/// actual/predicted ratio once that leaves a dead band around 1. Under FIFO and EDF the cheapest device
/// pulls the next request; residency affinity therefore wins only while
/// the affine device's clock lead stays below the re-upload cost. The
/// predictive policy additionally orders the queue longest-first by that
/// price to minimise the pool makespan.
///
/// ```no_run
/// # use cocopelia_runtime::serve::{ExecutorConfig, ServeOptions, ServeSession};
/// # use cocopelia_gpusim::SimTime;
/// # fn demo(pool: cocopelia_runtime::MultiGpu, reqs: Vec<cocopelia_runtime::GemmRequest<f64>>) {
/// let opts = ServeOptions::new().queue_cap(64).coalesce();
/// let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), opts).unwrap();
/// for (i, req) in reqs.into_iter().enumerate() {
///     session.submit_at(req, SimTime::from_nanos(i as u64 * 500_000));
/// }
/// let report = session.drain();
/// println!("{}", report.render());
/// # }
/// ```
#[derive(Debug)]
pub struct ServeSession {
    pub(super) pool: MultiGpu,
    pub(super) residency: Vec<ResidencyCache>,
    pub(super) cfg: ExecutorConfig,
    pub(super) policy: SchedulePolicy,
    /// Admitted requests waiting for dispatch, in admission order. Each
    /// record carries its request's whole serving state.
    pub(super) queue: VecDeque<Queued>,
    /// Terminal records of the current drain. Between drains it holds
    /// only closed-queue submissions refused at admission; the next drain
    /// settles them at its start.
    pub(super) outcomes: Vec<RequestOutcome>,
    pub(super) metrics: Registry,
    pub(super) drift: DriftAccountant,
    /// The absolute relative errors of `drift`'s records, sorted under
    /// [`f64::total_cmp`], so the hedge threshold reads its p95 without
    /// sorting. Kept only while hedging is armed; empty otherwise.
    pub(super) drift_errs: Vec<f64>,
    pub(super) next_id: u64,
    /// Devices removed from dispatch after repeated faults or loss.
    pub(super) quarantined: Vec<bool>,
    /// Consecutive faults per device; reset by any successful request.
    pub(super) fault_streak: Vec<u32>,
    /// Per-device running actual/predicted ratio of completed attempts,
    /// which scales the device's placement price outside a dead band (see
    /// [`Calibration`]). Reset on quarantine and re-admission.
    pub(super) calibration: Vec<Calibration>,
    /// The one observer: request-lifecycle spans plus, when
    /// [`ServeOptions::telemetry`] armed it, streaming telemetry. Armed
    /// by [`ServeOptions::tracing`] or [`ServeOptions::telemetry`].
    pub(super) tracer: Option<ServeTracer>,
    /// Open arrivals not yet due, sorted by arrival offset (virtual ns
    /// past the next drain's start), ties in submission order. Admission
    /// moves each record onto the queue, refuses it, or coalesces it.
    pub(super) arrivals: VecDeque<Queued>,
    /// Each device's clock when the current drain began: the origin of
    /// arrival offsets, flow times and busy times. Set by `drain`.
    pub(super) drain_start: Vec<SimTime>,
    /// Bounded-queue backpressure: an arrival finding the queue at this
    /// depth is shed.
    pub(super) queue_cap: Option<usize>,
    /// Load-shed watermark: an arrival whose predicted flow time (queue
    /// backlog spread over healthy devices plus its own service estimate)
    /// exceeds this many seconds is shed.
    pub(super) shed_flow_secs: Option<f64>,
    /// Request coalescing for identical problem shapes (open arrivals
    /// only).
    pub(super) coalesce: bool,
    /// Open coalitions by coalesce key: a *queued* leader and the
    /// arrivals riding on its execution. Dispatching the leader removes
    /// its coalition, so the map never outlives the queue it mirrors.
    pub(super) coalitions: HashMap<String, Coalition>,
    /// Estimated service seconds queued: the sum of the queue records'
    /// backlog shares (zero unless the flow-time watermark is armed).
    pub(super) backlog_secs: f64,
    /// Deepest queue observed during the current drain.
    pub(super) peak_queue: usize,
    /// Hedged re-dispatch of straggling attempts, armed by
    /// [`ServeOptions::hedge`].
    pub(super) hedge: Option<HedgeConfig>,
    /// Quarantine probation (canary probes that re-admit healed devices),
    /// armed by [`ServeOptions::probation`].
    pub(super) probation: Option<ProbationConfig>,
    /// Per-device probe schedule while quarantined under probation.
    pub(super) probes: Vec<Option<DeviceProbe>>,
    /// Session retry token bucket and circuit breaker, armed by
    /// [`ServeOptions::retry_budget`].
    pub(super) budget: Option<BudgetState>,
}

impl ServeSession {
    /// A session with default options (see [`ServeOptions::new`]).
    pub fn new(pool: MultiGpu, cfg: ExecutorConfig) -> Self {
        Self::with_options(pool, cfg, ServeOptions::new())
            .expect("default options open no telemetry stream")
    }

    /// A session with the full serving configuration applied up front,
    /// carving each device's residency budget out of its memory capacity
    /// per `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when a telemetry stream file cannot be
    /// created.
    pub fn with_options(
        pool: MultiGpu,
        cfg: ExecutorConfig,
        opts: ServeOptions,
    ) -> std::io::Result<Self> {
        let residency = pool
            .devices()
            .iter()
            .map(|dev| {
                let cap = dev.gpu().device_mem_capacity() as f64;
                ResidencyCache::new((cap * cfg.residency_frac.clamp(0.0, 1.0)) as usize)
            })
            .collect();
        let count = pool.device_count();
        let telemetry = match opts.telemetry {
            Some(tcfg) => {
                let mut tele = Telemetry::new(tcfg)?;
                if let Some(sink) = opts.watch_sink {
                    tele.set_sink(sink);
                }
                Some(tele)
            }
            None => None,
        };
        Ok(ServeSession {
            pool,
            residency,
            cfg,
            policy: opts.policy,
            queue: VecDeque::new(),
            outcomes: Vec::new(),
            metrics: Registry::new(),
            drift: DriftAccountant::new(),
            drift_errs: Vec::new(),
            next_id: 0,
            quarantined: vec![false; count],
            fault_streak: vec![0; count],
            calibration: vec![Calibration::default(); count],
            tracer: (opts.tracing || telemetry.is_some())
                .then(|| ServeTracer::new(opts.tracing, telemetry)),
            arrivals: VecDeque::new(),
            drain_start: Vec::new(),
            queue_cap: opts.queue_cap,
            shed_flow_secs: opts.shed_flow_secs.filter(|s| *s > 0.0),
            coalesce: opts.coalesce,
            coalitions: HashMap::new(),
            backlog_secs: 0.0,
            peak_queue: 0,
            hedge: opts.hedge.filter(|h| h.multiplier > 0.0),
            probation: opts.probation,
            probes: vec![None; count],
            budget: opts.retry_budget.map(BudgetState::new),
        })
    }

    /// Submits a batch for the next drain, returning the ids in order.
    pub fn submit_all(
        &mut self,
        reqs: impl IntoIterator<Item = impl Into<RoutineRequest>>,
    ) -> Vec<RequestId> {
        reqs.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Requests waiting for dispatch.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Open arrivals scheduled but not yet due.
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// The session's metrics registry (counters, gauges, queue depth).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The wrapped pool.
    pub fn pool(&self) -> &MultiGpu {
        &self.pool
    }

    /// The residency cache of device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn residency(&self, d: usize) -> &ResidencyCache {
        &self.residency[d]
    }

    /// Devices currently quarantined, in index order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| q.then_some(i))
            .collect()
    }

    /// The active queue-scheduling policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Operationally drains device `d`: quarantines it exactly as a fault
    /// storm would (residency invalidated, allocations released, no new
    /// work), without any fault having occurred. When probation is armed
    /// ([`ProbationConfig`]) the device re-enters service automatically
    /// once its canary probes pass — the maintenance-window workflow: pull
    /// a device, let the prober re-admit it. Without probation the device
    /// stays out until the session ends. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn force_quarantine(&mut self, d: usize) {
        assert!(d < self.quarantined.len(), "no such device: {d}");
        self.quarantine(d);
    }
}
