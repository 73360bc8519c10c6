//! The long-lived serving session: construction-time configuration
//! ([`ServeOptions`]) plus the session state ([`ServeSession`]).
//!
//! A session takes the whole serving configuration up front and exposes
//! exactly the request lifecycle: submit (now or at a future virtual
//! instant), drain, inspect. Closed-queue serving is the degenerate case
//! — submit everything at offset zero and drain. The dispatch engine
//! behind the lifecycle (admission, placement, retry, hedging, probation,
//! prefetch) lives in the sibling `executor` module.

use crate::error::RequestId;
use crate::multigpu::MultiGpu;
use crate::request::RoutineRequest;
use crate::serve::executor::{
    BudgetState, DeviceProbe, ExecutorConfig, Follower, HedgeConfig, PrefetchEntry,
    ProbationConfig, RequestOutcome, RetryBudgetConfig,
};
use crate::serve::residency::ResidencyCache;
use crate::serve::sched::SchedulePolicy;
use crate::serve::telemetry::{Telemetry, TelemetryConfig, WatchSink, WatchWindow};
use crate::serve::trace::ServeTracer;
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
    pub(crate) prefetch: bool,
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
            .field("prefetch", &self.prefetch)
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

    /// Arms prediction-guided cross-request prefetch: while a request
    /// runs on a device, the next scheduled request's missing shared
    /// operands may be pre-uploaded on that device's idle h2d engine —
    /// but only when the overlap predictor says the upload hides inside
    /// the running attempt's predicted h2d idle time and the bytes fit
    /// the residency cache's free budget without evicting anything.
    /// Prefetched operands stay pinned until their target claims them at
    /// dispatch; an unclaimed prefetch (target rejected, coalesced, or
    /// hedged to another device) is released with accounting.
    pub fn prefetch(mut self) -> Self {
        self.prefetch = true;
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
/// the device's virtual clock, plus its hedge-informed straggler penalty,
/// plus the service time — the estimated upload of the shared operands
/// the device is missing and the model-predicted offload time from the
/// device's deployed profile. Under FIFO and EDF the cheapest device
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
    pub(super) queue: VecDeque<(RequestId, RoutineRequest)>,
    pub(super) outcomes: Vec<RequestOutcome>,
    pub(super) metrics: Registry,
    pub(super) drift: DriftAccountant,
    pub(super) next_id: u64,
    /// Devices removed from dispatch after repeated faults or loss.
    pub(super) quarantined: Vec<bool>,
    /// Consecutive faults per device; reset by any successful request.
    pub(super) fault_streak: Vec<u32>,
    /// Hedge-informed dispatch penalty, virtual seconds: a device whose
    /// attempt overran its prediction carries the observed excess as
    /// extra ready time, so placement stops feeding a straggler that a
    /// winning hedge keeps rewinding to an attractive clock. Cleared by
    /// any attempt that completes within its hedge threshold and on
    /// quarantine/re-admission. Stays all-zero unless hedging is armed.
    pub(super) suspicion_secs: Vec<f64>,
    /// The one observer: request-lifecycle spans plus, when
    /// [`ServeOptions::telemetry`] armed it, streaming telemetry. Armed
    /// by [`ServeOptions::tracing`] or [`ServeOptions::telemetry`].
    pub(super) tracer: Option<ServeTracer>,
    /// Open-arrival events not yet due, sorted by arrival offset (virtual
    /// ns past the next drain's start), ties in submission order.
    pub(super) arrivals: VecDeque<(RequestId, RoutineRequest, u64)>,
    /// Arrival offset (ns past drain start) per open-arrival request id;
    /// closed-queue submissions are absent (offset zero).
    pub(super) arrival_offset: HashMap<u64, u64>,
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
    /// Coalesce key of each *queued* request that can lead a coalition.
    pub(super) coalesce_leaders: HashMap<String, RequestId>,
    /// Leader id → requests riding on its execution.
    pub(super) followers: HashMap<u64, Vec<Follower>>,
    /// Estimated service seconds queued, maintained only while the
    /// flow-time watermark is armed.
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
    /// Cross-request operand prefetch on idle h2d engines, armed by
    /// [`ServeOptions::prefetch`].
    pub(super) prefetch: bool,
    /// Prefetched operands pinned in residency caches until their target
    /// request claims them at dispatch (or a release path frees them).
    pub(super) prefetched: Vec<PrefetchEntry>,
    /// Backlog seconds each queued request contributed at admission, so
    /// the dispatch-time decrement returns exactly what admission added
    /// even when residency (and thus the estimate) changed in between.
    pub(super) backlog_contrib: HashMap<u64, f64>,
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
            next_id: 0,
            quarantined: vec![false; count],
            fault_streak: vec![0; count],
            suspicion_secs: vec![0.0; count],
            tracer: (opts.tracing || telemetry.is_some())
                .then(|| ServeTracer::new(opts.tracing, telemetry)),
            arrivals: VecDeque::new(),
            arrival_offset: HashMap::new(),
            queue_cap: opts.queue_cap,
            shed_flow_secs: opts.shed_flow_secs.filter(|s| *s > 0.0),
            coalesce: opts.coalesce,
            coalesce_leaders: HashMap::new(),
            followers: HashMap::new(),
            backlog_secs: 0.0,
            peak_queue: 0,
            hedge: opts.hedge.filter(|h| h.multiplier > 0.0),
            probation: opts.probation,
            probes: vec![None; count],
            budget: opts.retry_budget.map(BudgetState::new),
            prefetch: opts.prefetch,
            prefetched: Vec::new(),
            backlog_contrib: HashMap::new(),
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
