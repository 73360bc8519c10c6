//! The dispatch engine behind [`ServeSession`]: admission, placement,
//! residency, retry, hedging, and probation.

use crate::ctx::{Cocopelia, Issued, RoutineReport};
use crate::error::{FaultClass, RequestError, RequestId, RuntimeError};
use crate::multigpu::MultiGpu;
use crate::operand::{MatOperand, TileChoice};
use crate::request::{GemmRequest, RoutineRequest};
use crate::serve::placement::{DeviceProbe, Health};
use crate::serve::residency::ResidencyCache;
use crate::serve::sched::SchedulePolicy;
use crate::serve::session::ServeSession;
use crate::serve::telemetry::{TelemetryReport, TickState};
use cocopelia_core::models::Prediction;
use cocopelia_gpusim::{AllocMark, DevBufId, EngineKind, HostBufId, SimError, SimTime, TraceEntry};
use cocopelia_obs::drift::ABS_ERROR_BOUNDS;
use cocopelia_obs::{DriftAccountant, DriftRecord, OverlapStats, Registry, ServeTrace};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Bucket bounds of the `serve_queue_depth` histogram.
const QUEUE_DEPTH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Carries nothing: the serving layer's tuning values are constants.
/// Kept only so the frozen benchmark harness under `perfbench/`, which
/// still passes `ExecutorConfig::default()` to
/// [`ServeSession::with_options`], keeps building; delete it together
/// with that argument.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutorConfig {}

/// Admission ceiling: a request whose worst-case footprint exceeds this
/// fraction of the smallest pool device's memory is rejected at
/// submission.
const ADMISSION_FRAC: f64 = 0.9;

/// Request-level retry budget: how many times one request may be
/// re-attempted after a transient device failure (on the same device
/// after reclaim, or re-dispatched to a healthy device after a
/// quarantine) before it fails.
const MAX_RETRIES: u32 = 3;

/// Consecutive faults on one device before the session quarantines it:
/// the device stops receiving work and its residency cache is
/// invalidated.
const QUARANTINE_AFTER: u32 = 2;

/// Attempts a warm pool device keeps issued on its three streams at
/// once, so one request's transfers run under another's kernels: on a
/// deep queue of single-tile requests the makespan falls with the window
/// until the engines, not call boundaries, bound it (DESIGN.md §6).
/// Hedged sessions keep one: a hedge race rewinds a whole device.
const WINDOW: usize = 4;

/// Host-BLAS throughput (GFLOP/s) assumed for graceful degradation: when
/// every device in the pool is quarantined, requests complete on the host
/// at this rate instead of failing.
const HOST_GFLOPS: f64 = 50.0;

/// Hedged re-dispatch configuration (see
/// [`ServeOptions::hedge`](crate::serve::ServeOptions::hedge)).
///
/// When a dispatch attempt's virtual elapsed time exceeds its offload
/// prediction
/// ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload),
/// with the operands the device was missing fetched from the host) by an
/// adaptive multiplier, the session speculatively re-dispatches
/// the same request to the best *other* healthy device, starting at the
/// virtual instant the overrun threshold was crossed. First completion
/// wins; the loser is cancelled ([`cocopelia_gpusim::Gpu::cancel_to`])
/// and its buffers freed, so device time, flops, and uploads are counted
/// exactly once. The multiplier adapts to the drift accountant's observed
/// error distribution: it is widened by the p95 absolute relative
/// prediction error seen so far (doubled instead during the
/// [`HEDGE_WARMUP`] cold start). The prediction is the device's
/// calibrated one — the model's scaled by the device's observed
/// actual/predicted ratio once that leaves its dead band — so a straggler
/// the pool already prices as slow hedges only when it runs slower still.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Base overrun multiplier on the predicted attempt time before a
    /// hedge fires; `1.5` hedges attempts running 50% past prediction.
    /// Widened at runtime by the p95 observed prediction error (and
    /// doubled while fewer than [`HEDGE_WARMUP`] drift records exist).
    pub multiplier: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { multiplier: 1.5 }
    }
}

/// Armed hedging: its configuration and the evidence its threshold reads.
#[derive(Debug)]
pub(super) struct Hedging {
    cfg: HedgeConfig,
    /// The absolute relative errors of the session's drift records,
    /// sorted under [`f64::total_cmp`], so the threshold reads their p95
    /// without sorting.
    drift_errs: Vec<f64>,
}

impl Hedging {
    pub(super) fn new(cfg: HedgeConfig) -> Self {
        Hedging {
            cfg,
            drift_errs: Vec::new(),
        }
    }

    /// The adaptive threshold multiplier: the configured base widened by
    /// the 95th percentile of the observed absolute relative prediction
    /// error, so a model that routinely misses by 40% does not trigger
    /// hedges on ordinary 40% overruns. With fewer than [`HEDGE_WARMUP`]
    /// drift records the base is doubled instead (cold start: trust
    /// nothing, hedge only on gross overruns).
    fn multiplier(&self) -> f64 {
        if self.drift_errs.len() < HEDGE_WARMUP {
            return self.cfg.multiplier * 2.0;
        }
        self.cfg.multiplier * (1.0 + p95(&self.drift_errs))
    }
}

/// Drift records required before the adaptive hedge threshold trusts the
/// observed error distribution; below this the base multiplier is doubled
/// (cold start: hedging on a wild early estimate wastes a device).
pub const HEDGE_WARMUP: usize = 8;

/// Quarantine probation configuration (see
/// [`ServeOptions::probation`](crate::serve::ServeOptions::probation)).
///
/// A quarantined device is not necessarily dead — a link
/// [`DegradeWindow`](cocopelia_gpusim::DegradeWindow) ends, a fault storm
/// passes. Probation schedules tiny canary GEMMs after a seeded backoff:
/// enough consecutive successes re-admit the device (with a cold
/// residency cache — quarantine invalidated it), each failure extends the
/// backoff exponentially, and six failed rounds retire the device for
/// good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbationConfig {
    /// Backoff before the first canary probe of a freshly quarantined
    /// device; doubled per failed probe round.
    pub backoff: SimTime,
    /// Consecutive probe successes that re-admit the device.
    pub successes: u32,
    /// Seed of the deterministic backoff jitter that de-synchronises
    /// probes of devices quarantined at the same instant.
    pub seed: u64,
}

impl Default for ProbationConfig {
    fn default() -> Self {
        ProbationConfig {
            backoff: SimTime::from_secs_f64(5e-3),
            successes: 2,
            seed: 0,
        }
    }
}

impl ProbationConfig {
    /// Raw instant of device `d`'s next canary after `round` failed probe
    /// rounds, counted from `now_ns`: the backoff doubled per failed
    /// round, plus deterministic jitter that de-synchronises devices.
    fn next_due_ns(&self, d: usize, round: u32, now_ns: u64) -> u64 {
        let backoff = self.backoff.as_nanos().max(1) << round.min(20);
        let jitter = splitmix64(self.seed ^ ((d as u64) << 32) ^ u64::from(round))
            % (self.backoff.as_nanos() / 4).max(1);
        now_ns + backoff + jitter
    }
}

/// Failed probe rounds before the session stops probing a device (it
/// stays quarantined for good).
const PROBE_MAX_ROUNDS: u32 = 6;

/// Retry-budget / circuit-breaker configuration (see
/// [`ServeOptions::retry_budget`](crate::serve::ServeOptions::retry_budget)).
///
/// Replaces unbounded per-request retry appetite with a *session-wide*
/// token bucket: every session-level retry spends a token (refilled at a
/// rate in virtual time), and when the bucket runs dry the circuit
/// breaker opens — further faults fail fast to host fallback instead of
/// burning device time on a sustained fault storm. After a 50 ms cooldown
/// (or when a probation canary re-admits a device) the breaker half-opens
/// and one trial retry decides: success closes it, another fault reopens
/// it with a doubled cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Token-bucket capacity: request retries the session may
    /// spend before the breaker opens.
    pub tokens: f64,
    /// Bucket refill rate in tokens per virtual second.
    pub refill_per_sec: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            tokens: 8.0,
            refill_per_sec: 2.0,
        }
    }
}

/// How long, in virtual ns, the retry-budget breaker stays open after the
/// bucket empties (50 ms); doubles every time a half-open trial faults
/// again.
const BUDGET_COOLDOWN_NS: u64 = 50_000_000;

/// Circuit-breaker state of the session retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    /// Retries flow normally, spending tokens.
    Closed,
    /// The bucket emptied: retries fail fast to host fallback until the
    /// cooldown expires.
    Open {
        /// Raw virtual instant the cooldown ends.
        until_ns: u64,
    },
    /// The cooldown expired (or a probe re-admitted a device): the next
    /// retry runs as a trial — success closes the breaker, another fault
    /// reopens it with a doubled cooldown.
    HalfOpen,
}

/// Live state of the session retry budget.
#[derive(Debug, Clone, Copy)]
pub(super) struct BudgetState {
    cfg: RetryBudgetConfig,
    tokens: f64,
    last_refill_ns: u64,
    cooldown_ns: u64,
    breaker: Breaker,
}

impl BudgetState {
    pub(super) fn new(cfg: RetryBudgetConfig) -> Self {
        BudgetState {
            cfg,
            tokens: cfg.tokens.max(0.0),
            last_refill_ns: 0,
            cooldown_ns: BUDGET_COOLDOWN_NS,
            breaker: Breaker::Closed,
        }
    }
}

/// SplitMix64 mix — the deterministic probe-backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The canary probe request of quarantine probation: the smallest GEMM of
/// the exec tables (256³ at a fixed 256 tile — one subkernel), on ghost
/// operands so it touches no residency state.
fn canary_request() -> RoutineRequest {
    GemmRequest::<f64>::new(
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
    )
    .tile(TileChoice::Fixed(256))
    .into()
}

/// One run of a request (or a canary) on one device, as
/// `ServeSession::attempt` ran it.
#[derive(Debug)]
pub(super) struct Attempt {
    pub(super) device: usize,
    /// The device's allocations before the run: leak release and a
    /// cancelled hedge free back to it.
    mark: AllocMark,
    /// The run's [`price`](ServeSession::price) at its start.
    price: (Option<Prediction>, f64),
    /// Raw virtual instants (device-clock axis) the run started and
    /// ended. A run cancelled by a hedge race ends where the cancel
    /// rewound its device's clock.
    pub(super) start_ns: u64,
    pub(super) end_ns: u64,
    /// The device's engine-trace length at the start: the run's entries
    /// follow it.
    trace_len: usize,
    /// The run's call id when it ran beside other attempts on its device:
    /// its entries are the ones tagged with it. `None` for a run alone on
    /// its device, whose entries are all that follow `trace_len`.
    call: Option<u64>,
    /// Raw instant the attempt settled before this one on its device
    /// ended, when the run ran beside other attempts (0 alone): the
    /// run's service starts no earlier.
    after_ns: u64,
    result: Result<RoutineReport, RuntimeError>,
}

impl Attempt {
    /// The engine-trace entries the run left on its device.
    fn entries<'a>(&self, pool: &'a MultiGpu) -> Cow<'a, [TraceEntry]> {
        let entries = pool.devices()[self.device]
            .gpu()
            .trace()
            .entries_since(self.trace_len);
        match self.call {
            None => Cow::Borrowed(entries),
            Some(call) => Cow::Owned(
                entries
                    .iter()
                    .filter(|e| e.tag.is_some_and(|t| u64::from(t.call) == call))
                    .cloned()
                    .collect(),
            ),
        }
    }

    /// The run's service time in virtual seconds: from its start, or from
    /// the end of the attempt before it on the device when that is later,
    /// to its end. Alone on its device this is start to end; beside
    /// others it is what the run added to the device's timeline, which is
    /// what placement's frontier advances by.
    fn secs(&self) -> f64 {
        let from = self.start_ns.max(self.after_ns);
        SimTime::from_nanos(self.end_ns.saturating_sub(from)).as_secs_f64()
    }

    /// The run's own busy time in virtual seconds, which drift holds
    /// against the price of a run alone: beside other attempts, the union
    /// of its own ops' intervals, so the time it waited behind their ops
    /// is left out; alone, its service time ([`secs`](Self::secs)).
    fn busy_secs(&self) -> f64 {
        match (&self.result, self.call) {
            (Ok(report), Some(_)) => {
                SimTime::from_nanos(report.overlap.union_busy_ns).as_secs_f64()
            }
            _ => self.secs(),
        }
    }
}

#[cfg(test)]
impl Attempt {
    /// A faulted run on `device` over `[start_ns, end_ns]` that left no
    /// trace entries: what the tracer reads of a run.
    pub(super) fn spanning(device: usize, start_ns: u64, end_ns: u64) -> Self {
        use cocopelia_gpusim::{testbed_i, ExecMode, Gpu};
        Attempt {
            device,
            mark: Gpu::new(testbed_i(), ExecMode::TimingOnly, 1).alloc_mark(),
            price: (None, 0.0),
            start_ns,
            end_ns,
            trace_len: 0,
            call: None,
            after_ns: 0,
            result: Err(RuntimeError::NotFunctional),
        }
    }
}

/// Terminal state of a served request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestStatus {
    /// The routine ran to completion within its deadline (if any).
    Completed(RoutineReport),
    /// Admission control refused the request at submission.
    Rejected {
        /// Why the request was not admitted.
        reason: String,
    },
    /// The routine ran but blew its virtual-time budget.
    TimedOut {
        /// The request's budget in virtual seconds.
        deadline: f64,
        /// The request's *flow time* in virtual seconds: the serving
        /// device's clock at completion measured from the start of the
        /// drain, so queueing delay behind other requests counts.
        elapsed: f64,
        /// The report of the (late) run.
        report: Box<RoutineReport>,
    },
    /// The routine failed; transient failures have already been retried.
    Failed(RequestError),
}

impl RequestStatus {
    /// Short lowercase label of the terminal state (`completed`,
    /// `rejected`, `timed-out`, `failed`), as recorded on trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            RequestStatus::Completed(_) => "completed",
            RequestStatus::Rejected { .. } => "rejected",
            RequestStatus::TimedOut { .. } => "timed-out",
            RequestStatus::Failed(_) => "failed",
        }
    }
}

/// One request's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The id assigned at submission.
    pub id: RequestId,
    /// Canonical routine name.
    pub routine: &'static str,
    /// Device the request ran on (`None` when rejected at submission).
    pub device: Option<usize>,
    /// How the request terminated.
    pub status: RequestStatus,
    /// Times the request was re-attempted after a fault (0 on a clean
    /// first run).
    pub retries: u32,
    /// True when the request completed on the host because every device
    /// in the pool was quarantined (graceful degradation).
    pub host_fallback: bool,
    /// True when the request never executed itself: it coalesced onto an
    /// identical queued request whose single execution fed both. Its
    /// report is a copy of the leader's, and work accounting
    /// ([`ServeReport::total_flops`]) counts the execution once.
    pub coalesced: bool,
}

impl RequestOutcome {
    /// The terminal record of a request refused at admission.
    fn rejected(id: RequestId, req: &RoutineRequest, reason: String) -> Self {
        RequestOutcome {
            id,
            routine: req.routine(),
            device: None,
            status: RequestStatus::Rejected { reason },
            retries: 0,
            host_fallback: false,
            coalesced: false,
        }
    }

    /// The completed report, when the request completed.
    ///
    /// A served report carries no per-model drift records: its `drift` is
    /// empty. The session scores each attempt's own prediction into
    /// [`ServeReport::drift`], and the serving device's observer keeps its
    /// per-model aggregates, so the records are dropped when the outcome
    /// settles instead of being held for the whole drain.
    pub fn report(&self) -> Option<&RoutineReport> {
        match &self.status {
            RequestStatus::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The report of any run that executed, completed *or* timed out: a
    /// timed-out request still did its device work, so its report counts
    /// toward work accounting even though the result missed its budget.
    pub fn executed_report(&self) -> Option<&RoutineReport> {
        match &self.status {
            RequestStatus::Completed(r) => Some(r),
            RequestStatus::TimedOut { report, .. } => Some(report),
            _ => None,
        }
    }

    fn executed_report_mut(&mut self) -> Option<&mut RoutineReport> {
        match &mut self.status {
            RequestStatus::Completed(r) => Some(r),
            RequestStatus::TimedOut { report, .. } => Some(report),
            _ => None,
        }
    }
}

/// Aggregate result of draining a [`ServeSession`] once.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Terminal records: submission-time rejections first (in submit
    /// order), then the others as they settle. A device runs several
    /// requests at once, so served requests settle in completion order,
    /// which need not be dispatch order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual makespan of the run: the busiest device's elapsed time.
    pub makespan: SimTime,
    /// Per-device busy time over the run.
    pub per_device_busy: Vec<SimTime>,
    /// Useful floating-point operations executed *on devices*: completed
    /// and timed-out runs (a timed-out run still did its device work and
    /// inflated the makespan, so it must count toward throughput).
    /// Host-fallback work is excluded — see
    /// [`host_flops`](ServeReport::host_flops).
    pub total_flops: f64,
    /// Useful floating-point operations of host-fallback runs. Host work
    /// advances no device clock, so mixing it into
    /// [`total_flops`](ServeReport::total_flops) would credit the
    /// device-only makespan with work no device did.
    pub host_flops: f64,
    /// Wall time host-fallback runs took (outside the device makespan).
    pub host_time: SimTime,
    /// Devices quarantined by the end of the run, in index order.
    pub quarantined: Vec<usize>,
    /// Predicted-vs-actual drift of the scheduler's per-dispatch offload
    /// predictions, when the deployed profile could predict the requests.
    pub drift: DriftAccountant,
    /// Snapshot of the session's metrics registry after the run.
    pub metrics: Registry,
    /// The request-lifecycle trace of the drain, when
    /// [`ServeOptions::tracing`](crate::serve::ServeOptions::tracing) (or
    /// telemetry) armed it.
    pub trace: Option<ServeTrace>,
    /// Spans dropped from [`trace`](ServeReport::trace) by the span cap
    /// ([`TelemetryConfig::recorder_cap`]); `0` when tracing was uncapped
    /// or nothing overflowed.
    ///
    /// [`TelemetryConfig::recorder_cap`]: crate::serve::TelemetryConfig::recorder_cap
    pub trace_dropped: u64,
    /// Streaming telemetry summary (windows, SLO breaches, flight dumps),
    /// when
    /// [`ServeOptions::telemetry`](crate::serve::ServeOptions::telemetry)
    /// armed it.
    pub telemetry: Option<TelemetryReport>,
    /// Deepest the dispatch queue got during the drain — with a
    /// [`ServeOptions::queue_cap`](crate::serve::ServeOptions::queue_cap)
    /// this never exceeds the cap, the
    /// bounded-memory guarantee of backpressure.
    pub peak_queue_depth: usize,
}

impl ServeReport {
    /// Number of outcomes in the given terminal state.
    fn count(&self, pred: impl Fn(&RequestStatus) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(&o.status)).count()
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Completed(_)))
    }

    /// Requests refused at submission.
    pub fn rejected(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Rejected { .. }))
    }

    /// Requests that blew their deadline.
    pub fn timed_out(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::TimedOut { .. }))
    }

    /// Requests that failed after any retry.
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Failed(_)))
    }

    /// Requests that completed on the host after pool-wide quarantine.
    pub fn host_fallbacks(&self) -> usize {
        self.outcomes.iter().filter(|o| o.host_fallback).count()
    }

    /// Requests that coalesced onto an identical queued request.
    pub fn coalesced(&self) -> usize {
        self.outcomes.iter().filter(|o| o.coalesced).count()
    }

    /// Aggregate throughput of *device* work over the device makespan, in
    /// GFLOP/s: [`total_flops`](ServeReport::total_flops) per second of
    /// [`makespan`](ServeReport::makespan). Host-fallback work is excluded
    /// from both numerator and denominator — when the whole pool
    /// quarantines this reports `0`, not a division of host flops by a
    /// near-zero device makespan.
    pub fn throughput_gflops(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            self.total_flops / secs / 1e9
        } else {
            0.0
        }
    }

    /// Mean device utilisation over the makespan, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span <= 0.0 || self.per_device_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_device_busy.iter().map(|t| t.as_secs_f64()).sum();
        busy / (span * self.per_device_busy.len() as f64)
    }

    /// Human-readable summary: per-request lines plus aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let dev = match o.device {
                Some(d) => format!("dev{d}"),
                None if o.host_fallback => "host".to_owned(),
                None => "-".to_owned(),
            };
            let retried = if o.retries > 0 {
                format!(" (retries={})", o.retries)
            } else if o.coalesced {
                " (coalesced)".to_owned()
            } else {
                String::new()
            };
            let _ = write!(out, "{:<8} {:<6} {dev:<5} ", o.id.to_string(), o.routine);
            let _ = match &o.status {
                RequestStatus::Completed(r) => {
                    // Host runs never tiled, so rendering their fabricated
                    // `tile: 0` as a real tiling size would be misleading.
                    let tile = if o.host_fallback {
                        "-".to_owned()
                    } else {
                        r.tile.to_string()
                    };
                    let (ms, gflops) = (r.elapsed.as_secs_f64() * 1e3, r.gflops());
                    writeln!(
                        out,
                        "completed  T={tile:<5} {ms:>9.3} ms {gflops:>8.1} GF/s{retried}"
                    )
                }
                RequestStatus::Rejected { reason } => writeln!(out, "rejected   {reason}"),
                RequestStatus::TimedOut {
                    deadline, elapsed, ..
                } => {
                    let (ms, budget) = (elapsed * 1e3, deadline * 1e3);
                    writeln!(
                        out,
                        "timed-out  {ms:.3} ms > {budget:.3} ms budget{retried}"
                    )
                }
                RequestStatus::Failed(e) => writeln!(out, "failed     {e}{retried}"),
            };
        }
        let coalesced = if self.coalesced() > 0 {
            format!(" coalesced {}", self.coalesced())
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "requests {} | completed {} rejected {} timed-out {} failed {}{coalesced}",
            self.outcomes.len(),
            self.completed(),
            self.rejected(),
            self.timed_out(),
            self.failed(),
        );
        let _ = writeln!(
            out,
            "makespan {:.3} ms | throughput {:.1} GFLOP/s | occupancy {:.1}%",
            self.makespan.as_secs_f64() * 1e3,
            self.throughput_gflops(),
            self.occupancy() * 1e2,
        );
        if !self.quarantined.is_empty() || self.host_fallbacks() > 0 {
            let devs: Vec<String> = self.quarantined.iter().map(|d| format!("dev{d}")).collect();
            let host = if self.host_fallbacks() > 0 {
                format!(
                    " ({:.2} GFLOP in {:.3} ms on host)",
                    self.host_flops / 1e9,
                    self.host_time.as_secs_f64() * 1e3,
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "quarantined [{}] | host fallbacks {}{host}",
                devs.join(", "),
                self.host_fallbacks(),
            );
        }
        if !self.drift.records().is_empty() {
            out.push_str(&self.drift.render());
        }
        if self.trace_dropped > 0 {
            let kept = self.trace.as_ref().map(|t| t.spans.len()).unwrap_or(0);
            let _ = writeln!(
                out,
                "trace capped: {} oldest spans dropped ({kept} kept)",
                self.trace_dropped,
            );
        }
        if let Some(tele) = &self.telemetry {
            out.push_str(&tele.render());
        }
        out
    }
}

/// One request on its way to dispatch: a scheduled open arrival, then a
/// queue entry. The record carries all of the request's serving state, so
/// nothing about it is kept in side tables keyed by its id.
#[derive(Debug)]
pub(super) struct Queued {
    pub(super) id: RequestId,
    pub(super) req: RoutineRequest,
    /// Arrival offset, virtual ns past the drain start (zero for
    /// closed-queue submissions). It floors the serving device's clock,
    /// starts the request's flow time and places its queue span.
    pub(super) arrival_ns: u64,
    /// Service seconds admission added to the shed backlog for this
    /// request (zero unless the flow-time watermark is armed). Dispatch
    /// returns exactly this share, even when residency (and thus the
    /// estimate) changed while the request waited.
    pub(super) backlog_secs: f64,
}

/// A request between dispatch and its terminal status: its queue record,
/// the arrivals riding on it, and what its attempts so far decided.
#[derive(Debug)]
pub(super) struct Job {
    id: RequestId,
    req: RoutineRequest,
    arrival_ns: u64,
    /// The scheduling policy's device pick; the first attempt only tries
    /// it, a retry after a fault re-chooses among the devices still
    /// healthy.
    preferred: Option<usize>,
    /// Coalesced arrivals that complete with this request.
    followers: Vec<Queued>,
    retries: u32,
    /// The device of the latest attempt.
    device: Option<usize>,
    /// End of the latest attempt, raw ns: a re-issued attempt must never
    /// start earlier (span invariant 3).
    not_before_ns: u64,
    /// Whether the queue span is recorded (once, at the first attempt's
    /// start).
    queued_recorded: bool,
    /// Armed when the retry budget's circuit breaker denies a retry: the
    /// request skips further device picks and fails fast to host.
    budget_fastfail: bool,
}

/// An issued call with its residency fills and the request's shared keys.
type Launched = (Issued, [Option<Fill>; 3], Vec<String>);

/// An attempt issued on a device's streams and not yet settled.
#[derive(Debug)]
pub(super) struct InFlight {
    job: Job,
    mark: AllocMark,
    price: (Option<Prediction>, f64),
    start_ns: u64,
    trace_len: usize,
    issued: Issued,
    fills: [Option<Fill>; 3],
    /// The request's shared keys, in operand order: pinned in the
    /// residency cache until the attempt settles.
    keys: Vec<String>,
}

impl InFlight {
    /// The device's engine-trace length when the attempt was issued: its
    /// entries follow it.
    pub(super) fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Whether the attempt is filling `key` into a residency entry.
    fn fills(&self, key: &str) -> bool {
        let mut fills = self.keys.iter().zip(&self.fills);
        fills.any(|(k, f)| k == key && f.is_some_and(|f| f.cached))
    }
}

/// A queued leader and the arrivals riding on its execution. A follower
/// never executes itself, but completes (against its own arrival time and
/// deadline) when the leader does. The coalition lives under its coalesce
/// key until the leader is dispatched, which takes the followers with
/// it; a later identical arrival starts a new one.
#[derive(Debug)]
pub(super) struct Coalition {
    leader: RequestId,
    followers: Vec<Queued>,
}

/// Terminal status of an executed run with flow time `flow` (virtual
/// seconds) against its deadline, if any.
fn judge(report: RoutineReport, flow: f64, deadline: Option<f64>) -> RequestStatus {
    match deadline {
        Some(dl) if flow > dl => RequestStatus::TimedOut {
            deadline: dl,
            elapsed: flow,
            report: Box::new(report),
        },
        _ => RequestStatus::Completed(report),
    }
}

impl ServeSession {
    /// Submits a request, returning its id. Admission control runs here: a
    /// request whose worst-case footprint exceeds the configured fraction
    /// of device memory terminates immediately as
    /// [`RequestStatus::Rejected`].
    ///
    /// The limit is computed from the *smallest* device in the pool, so an
    /// admitted request fits whichever device dispatch later picks
    /// ([`MultiGpu`](crate::MultiGpu) pools are homogeneous today, making
    /// this the only capacity; a heterogeneous pool stays safe but
    /// under-admits).
    pub fn submit(&mut self, req: impl Into<RoutineRequest>) -> RequestId {
        let req = req.into();
        let id = self.new_id();
        if let Some(reason) = self.footprint_refusal(&req) {
            // Settled (traced and fed to telemetry) when the drain starts.
            self.metrics.counter_add("serve_rejected_total", 1);
            self.outcomes
                .push(RequestOutcome::rejected(id, &req, reason));
            return id;
        }
        self.enqueue(Queued {
            id,
            req,
            arrival_ns: 0,
            backlog_secs: 0.0,
        });
        id
    }

    /// Assigns the next request id and counts the request.
    fn new_id(&mut self) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.metrics.counter_add("serve_requests_total", 1);
        id
    }

    /// Puts an admitted request on the dispatch queue. Depth is sampled
    /// here (and again at each dispatch), so burst arrivals are visible
    /// even if the queue drains quickly.
    fn enqueue(&mut self, job: Queued) {
        self.queue.push_back(job);
        self.peak_queue = self.peak_queue.max(self.queue.len());
        self.metrics.histogram_observe(
            "serve_queue_depth",
            &QUEUE_DEPTH_BOUNDS,
            self.queue.len() as f64,
        );
    }

    /// Schedules an open arrival: the request materialises `at` virtual
    /// time past the next drain's start, interleaved with dispatches and
    /// completions in the event loop. Admission control — the footprint
    /// ceiling plus, when configured, the bounded-queue cap, the
    /// flow-time shed watermark, and coalescing — runs at the arrival
    /// instant, not here, because it depends on queue state at that
    /// moment. Flow time and deadlines for the request are measured from
    /// its arrival, not from drain start.
    pub fn submit_at(&mut self, req: impl Into<RoutineRequest>, at: SimTime) -> RequestId {
        let id = self.new_id();
        let arrival_ns = at.as_nanos();
        let pos = self
            .arrivals
            .partition_point(|a| a.arrival_ns <= arrival_ns);
        let job = Queued {
            id,
            req: req.into(),
            arrival_ns,
            backlog_secs: 0.0,
        };
        self.arrivals.insert(pos, job);
        id
    }

    /// The rejection reason when `req`'s worst-case footprint exceeds the
    /// admission ceiling, which comes from the *smallest* device in the
    /// pool so an admitted request fits whichever device dispatch picks.
    /// Closed-queue and open-arrival admission share it, so the two
    /// reject identically.
    fn footprint_refusal(&self, req: &RoutineRequest) -> Option<String> {
        let cap = self
            .pool
            .devices()
            .iter()
            .map(|d| d.gpu().device_mem_capacity())
            .min()
            .expect("at least one device");
        let limit = (cap as f64 * ADMISSION_FRAC) as usize;
        let footprint = req.footprint_bytes();
        (footprint > limit).then(|| {
            format!(
                "footprint {footprint} B exceeds admission limit {limit} B \
                 ({:.0}% of device memory)",
                ADMISSION_FRAC * 1e2
            )
        })
    }

    /// The queue position the active [`SchedulePolicy`] would dispatch
    /// next, plus the predictive policy's preferred device. Pure, and
    /// called once per dispatch, by
    /// [`next_dispatch`](Self::next_dispatch). `None` on an empty queue.
    fn select_index(&self) -> Option<(usize, Option<usize>)> {
        if self.queue.is_empty() {
            return None;
        }
        Some(match self.policy {
            SchedulePolicy::Fifo => (0, None),
            SchedulePolicy::Edf => {
                // Earliest deadline wins; deadline-less requests sort to
                // +inf, i.e. after every deadline-carrying one. Strict `<`
                // keeps submission order within equal deadlines.
                let mut best = 0;
                let mut best_dl = f64::INFINITY;
                for (i, q) in self.queue.iter().enumerate() {
                    let dl = q.req.deadline().unwrap_or(f64::INFINITY);
                    if dl < best_dl {
                        best = i;
                        best_dl = dl;
                    }
                }
                (best, None)
            }
            SchedulePolicy::Predictive => {
                // Cost each request at its best device, then dispatch the
                // request with the *largest* best-completion first —
                // longest-processing-time list scheduling, so a straggler
                // never lands on an already-loaded device at the tail of
                // the trace. Strict comparisons keep submission order and
                // lowest device index on ties.
                let mut pick = (0, None);
                let mut pick_completion = f64::NEG_INFINITY;
                for (i, q) in self.queue.iter().enumerate() {
                    // Whole pool quarantined: order is irrelevant, every
                    // request degrades to the host.
                    let Some((dev, completion)) = self.choose_device(&q.req, None) else {
                        break;
                    };
                    if completion > pick_completion {
                        pick = (i, Some(dev));
                        pick_completion = completion;
                    }
                }
                pick
            }
        })
    }

    /// Pulls the next request per the active [`SchedulePolicy`], sampling
    /// queue depth (the pulled request included) at dispatch time, and
    /// takes the request's share back out of the shed backlog. The second
    /// element is the predictive policy's preferred device, which
    /// [`dispatch`](Self::dispatch) tries first.
    fn next_dispatch(&mut self) -> Option<(Queued, Option<usize>)> {
        let (idx, preferred) = self.select_index()?;
        self.metrics.histogram_observe(
            "serve_queue_depth",
            &QUEUE_DEPTH_BOUNDS,
            self.queue.len() as f64,
        );
        let job = self.queue.remove(idx)?;
        self.backlog_secs = (self.backlog_secs - job.backlog_secs).max(0.0);
        Some((job, preferred))
    }

    /// The drain's event step: admit every arrival due by the current
    /// virtual elapsed, then pull the next dispatch. When the queue is
    /// empty but arrivals remain, virtual admission time jumps forward to
    /// the next arrival instant (the pool is idle; nothing else can
    /// happen first). `None` once both queue and arrivals are exhausted.
    fn next_event(&mut self) -> Option<(Queued, Option<usize>)> {
        loop {
            self.admit_due(self.elapsed().as_nanos());
            self.run_due_probes();
            if let Some(next) = self.next_dispatch() {
                return Some(next);
            }
            let next_at = self.arrivals.front()?.arrival_ns;
            self.admit_due(next_at);
        }
    }

    /// Dissolves the coalition `job` leads, returning its followers: once
    /// dispatched, the leader can absorb no more arrivals, and a later
    /// identical arrival starts a new coalition.
    fn disband(&mut self, job: &Queued) -> Vec<Queued> {
        if self.coalitions.is_empty() {
            return Vec::new();
        }
        match job.req.coalesce_key().map(|key| self.coalitions.entry(key)) {
            Some(Entry::Occupied(c)) if c.get().leader == job.id => c.remove().followers,
            _ => Vec::new(),
        }
    }

    /// Admits every scheduled arrival with offset `<= now_ns`, in arrival
    /// order.
    fn admit_due(&mut self, now_ns: u64) {
        while self
            .arrivals
            .front()
            .is_some_and(|a| a.arrival_ns <= now_ns)
        {
            let job = self.arrivals.pop_front().expect("front checked");
            self.admit_arrival(job);
        }
    }

    /// Open-arrival admission at the arrival instant: footprint ceiling,
    /// bounded-queue shed, flow-time watermark shed, coalescing onto a
    /// queued identical request, or enqueue.
    fn admit_arrival(&mut self, mut job: Queued) {
        if let Some(t) = self.tracer.as_mut() {
            t.arrive(job.id.0, job.arrival_ns);
        }
        if let Some(reason) = self.footprint_refusal(&job.req) {
            self.shed_arrival(job, reason, false);
            return;
        }
        if let Some(cap) = self.queue_cap {
            if self.queue.len() >= cap {
                let reason = format!("queue full: depth {} at cap {cap}", self.queue.len());
                self.shed_arrival(job, reason, true);
                return;
            }
        }
        let mut est = 0.0;
        if let Some(watermark) = self.shed_flow_secs {
            est = self.service_estimate(&job.req);
            let healthy = self.devices.iter().filter(|d| !d.is_quarantined()).count();
            let predicted = self.backlog_secs / healthy.max(1) as f64 + est;
            if predicted > watermark {
                let reason = format!(
                    "predicted flow {:.3} ms exceeds shed watermark {:.3} ms",
                    predicted * 1e3,
                    watermark * 1e3
                );
                self.shed_arrival(job, reason, true);
                return;
            }
        }
        if self.coalesce {
            if let Some(key) = job.req.coalesce_key() {
                if let Some(c) = self.coalitions.get_mut(&key) {
                    // Identical shape already queued: ride on its single
                    // execution instead of uploading and running again.
                    self.metrics.counter_add("serve_coalesced_total", 1);
                    if let Some(t) = self.tracer.as_mut() {
                        t.coalesce(job.id.0, c.leader.0, job.arrival_ns);
                    }
                    c.followers.push(job);
                    return;
                }
                let coalition = Coalition {
                    leader: job.id,
                    followers: Vec::new(),
                };
                self.coalitions.insert(key, coalition);
            }
        }
        job.backlog_secs = est;
        self.backlog_secs += est;
        self.enqueue(job);
    }

    /// Terminates an arrival as [`RequestStatus::Rejected`] at admission.
    /// `backpressure` distinguishes load shedding (queue cap, flow
    /// watermark — counted in `serve_shed_total`) from the static
    /// footprint ceiling.
    fn shed_arrival(&mut self, job: Queued, reason: String, backpressure: bool) {
        self.metrics.counter_add("serve_rejected_total", 1);
        if backpressure {
            self.metrics.counter_add("serve_shed_total", 1);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.reject(job.id.0, job.arrival_ns, &reason);
        }
        self.settle(RequestOutcome::rejected(job.id, &job.req, reason), f64::NAN);
    }

    /// Settles one terminal outcome: bumps its status counter, drops its
    /// report's per-model drift records (see [`RequestOutcome::report`]),
    /// appends it to the drain's outcomes, and ticks telemetry with
    /// `flow_secs`, the flow time its deadline was judged on (NaN when no
    /// run finished).
    fn settle(&mut self, mut outcome: RequestOutcome, flow_secs: f64) {
        if let Some(report) = outcome.executed_report_mut() {
            report.drift = Vec::new();
        }
        let counter = match outcome.status {
            RequestStatus::Completed(_) => Some("serve_completed_total"),
            RequestStatus::TimedOut { .. } => Some("serve_timed_out_total"),
            RequestStatus::Failed(_) => Some("serve_failed_total"),
            RequestStatus::Rejected { .. } => None,
        };
        if let Some(name) = counter {
            self.metrics.counter_add(name, 1);
        }
        self.outcomes.push(outcome);
        self.telemetry_tick(flow_secs);
    }

    /// Completes `followers` at `end_ns`, the completion instant of their
    /// leader, the outcome settled last. Each follower gets a copy of the
    /// leader's report judged against the follower's *own* arrival time and
    /// deadline: a follower that arrived later has a shorter flow and may
    /// meet a deadline the leader missed — and vice versa. A failed
    /// leader fails its followers with the same error.
    fn fan_out(&mut self, followers: Vec<Queued>, end_ns: u64) {
        if followers.is_empty() {
            return;
        }
        let leader = self.outcomes.last().expect("leader settled").clone();
        let end_ns = match leader.device {
            Some(_) if !leader.host_fallback => end_ns,
            _ => self.tracer.as_ref().map(|t| t.host_now_ns()).unwrap_or(0),
        };
        for f in followers {
            let (status, flow) = match leader.executed_report() {
                Some(r) => {
                    let flow = self.flow_secs(
                        leader.device,
                        leader.host_fallback,
                        f.arrival_ns,
                        end_ns,
                        r.elapsed,
                    );
                    (judge(r.clone(), flow, f.req.deadline()), flow)
                }
                None => (leader.status.clone(), f64::NAN),
            };
            if let Some(t) = self.tracer.as_mut() {
                t.complete(f.id.0, end_ns, status.label());
            }
            let outcome = RequestOutcome {
                id: f.id,
                routine: leader.routine,
                device: leader.device,
                status,
                retries: 0,
                host_fallback: leader.host_fallback,
                coalesced: true,
            };
            self.settle(outcome, flow);
        }
    }

    /// Flow time of a request that executed, virtual seconds: from the
    /// drain's start on the serving device's clock to `end_ns`, the raw
    /// instant its run ended, minus the request's arrival offset (zero for
    /// closed-queue submissions), so queueing delay counts against the
    /// deadline while an open arrival's budget starts at arrival. Host
    /// runs advance no device clock; their own `elapsed` is the closest
    /// flow measure available.
    fn flow_secs(
        &self,
        device: Option<usize>,
        host_fallback: bool,
        arrival_ns: u64,
        end_ns: u64,
        elapsed: SimTime,
    ) -> f64 {
        match device {
            Some(d) if !host_fallback => {
                let raw = SimTime::from_nanos(end_ns).saturating_since(self.devices[d].drain_start);
                SimTime::from_nanos(raw.as_nanos().saturating_sub(arrival_ns)).as_secs_f64()
            }
            _ => elapsed.as_secs_f64(),
        }
    }

    /// Runs the drain event loop to quiescence — every queued request and
    /// scheduled open arrival reaches a terminal status — and reports the
    /// run. Arrivals interleave with dispatches in virtual time: before
    /// each dispatch pick, every arrival whose offset the device clocks
    /// have passed is admitted (and possibly shed or coalesced); when the
    /// queue is empty but arrivals remain, admission jumps to the next
    /// arrival instant. With no scheduled arrivals this is exactly the
    /// closed-queue drain. The session remains usable afterwards.
    pub fn drain(&mut self) -> ServeReport {
        for (state, dev) in self.devices.iter_mut().zip(self.pool.devices_mut()) {
            state.drain_start = dev.gpu().now();
            // The tracer and telemetry read each attempt's engine entries,
            // so every device holds them from the drain's start;
            // `retire_traces` folds each one once no reader needs it.
            let gpu = dev.gpu_mut();
            gpu.keep_trace_from(gpu.trace().len());
        }
        self.peak_queue = self.queue.len();
        if let Some(t) = self.tracer.as_mut() {
            let refused = self.outcomes.iter().map(|o| o.id.0);
            let mut submitted: Vec<u64> =
                refused.chain(self.queue.iter().map(|q| q.id.0)).collect();
            submitted.sort_unstable();
            t.begin_drain(&self.pool, &submitted, &self.metrics);
        }
        // Closed-queue submissions refused before the drain settle at its
        // start, so spans and telemetry see them like shed arrivals.
        for o in std::mem::take(&mut self.outcomes) {
            if let (Some(t), RequestStatus::Rejected { reason }) = (self.tracer.as_mut(), &o.status)
            {
                t.reject(o.id.0, 0, reason);
            }
            self.settle(o, f64::NAN);
        }
        while let Some((job, preferred)) = self.next_event() {
            let followers = self.disband(&job);
            self.dispatch(Job {
                id: job.id,
                req: job.req,
                arrival_ns: job.arrival_ns,
                preferred,
                followers,
                retries: 0,
                device: None,
                not_before_ns: 0,
                queued_recorded: false,
                budget_fastfail: false,
            });
            self.retire_traces();
        }
        // Settle what is still in flight, the device whose clock lags most
        // first (its attempts likely end first).
        while let Some(d) = (0..self.devices.len())
            .filter(|&d| !self.devices[d].inflight.is_empty())
            .min_by_key(|&d| self.pool.devices()[d].gpu().now())
        {
            self.settle_oldest(d);
            self.retire_traces();
        }
        let per_device_busy: Vec<SimTime> = self.busy().collect();
        let makespan = per_device_busy
            .iter()
            .copied()
            .max()
            .expect("at least one device");
        let (trace, trace_dropped, telemetry) = self.finish_trace(makespan);
        let mut total_flops = 0.0;
        let mut host_flops_sum = 0.0;
        let mut host_time = SimTime::ZERO;
        for o in &self.outcomes {
            // A coalesced outcome carries a copy of its leader's report;
            // the execution is counted once, at the leader.
            if o.coalesced {
                continue;
            }
            let Some(r) = o.executed_report() else {
                continue;
            };
            if o.host_fallback {
                host_flops_sum += r.flops;
                host_time += r.elapsed;
            } else {
                total_flops += r.flops;
            }
        }
        if let Some(h) = self.hedge.as_mut() {
            h.drift_errs.clear();
        }
        let report = ServeReport {
            outcomes: std::mem::take(&mut self.outcomes),
            makespan,
            per_device_busy,
            total_flops,
            host_flops: host_flops_sum,
            host_time,
            quarantined: self.quarantined(),
            drift: std::mem::take(&mut self.drift),
            metrics: Registry::new(),
            trace,
            trace_dropped,
            telemetry,
            peak_queue_depth: self.peak_queue,
        };
        // Every queued request was dispatched, disbanding every coalition;
        // the backlog sum may hold float residue, so it restarts at zero.
        debug_assert!(self.coalitions.is_empty());
        self.backlog_secs = 0.0;
        self.metrics
            .gauge_set("serve_makespan_secs", report.makespan.as_secs_f64());
        self.metrics
            .gauge_set("serve_throughput_gflops", report.throughput_gflops());
        self.metrics
            .gauge_set("serve_occupancy", report.occupancy());
        ServeReport {
            metrics: self.metrics.clone(),
            ..report
        }
    }

    /// Runs one admitted request toward a terminal status: dispatch to the
    /// scheduling policy's device pick or the best healthy device, retry
    /// with device reclaim on retryable faults
    /// ([`RuntimeError::fault_class`]), quarantine devices that fault
    /// repeatedly or are lost (re-dispatching the request to a healthy
    /// peer), and degrade gracefully to host BLAS when no healthy device
    /// remains. Deadlines are judged on *flow time* — the serving device's
    /// clock at completion measured from its clock at drain start — so
    /// time spent queued behind other requests counts against the budget.
    /// For an open arrival, the record's arrival offset floors the serving
    /// device's clock — work cannot begin before the request exists — and
    /// is subtracted from the flow so the deadline budget starts at
    /// arrival, not at drain start.
    ///
    /// Without hedging, an attempt is issued beside the others in flight
    /// on its device ([`overlap`](Self::overlap)) and the request settles
    /// when the attempt does ([`settle_oldest`](Self::settle_oldest)); a
    /// hedged session runs each attempt to completion here.
    fn dispatch(&mut self, mut job: Job) {
        loop {
            let pick = if job.budget_fastfail {
                None
            } else {
                job.preferred
                    .take()
                    .filter(|&p| !self.devices[p].is_quarantined())
                    .or_else(|| self.choose_device(&job.req, None).map(|(d, _)| d))
            };
            let Some(d) = pick else {
                // Probation may heal the pool before we give up on
                // devices entirely: jump virtual time to the probe
                // schedule and re-pick if a canary re-admits a device.
                if !job.budget_fastfail && self.try_heal_pool() {
                    continue;
                }
                // Graceful degradation: the whole pool is quarantined, so
                // the request completes on the host instead of failing.
                job.device = None;
                self.metrics.counter_add("fault_host_fallback_total", 1);
                let report = self.execute_host(&job.req);
                if let Some(t) = self.tracer.as_mut() {
                    // A request that never reached a device links its
                    // queue flow to the host run.
                    if !job.queued_recorded {
                        t.queue_wait(job.id.0, job.arrival_ns, job.not_before_ns);
                    }
                    let elapsed_ns = report.elapsed.as_nanos();
                    t.host_fallback(
                        job.id.0,
                        job.not_before_ns,
                        elapsed_ns,
                        !job.queued_recorded,
                    );
                }
                self.finish(job, Ok(report), true);
                return;
            };
            // A request cannot restart before the fault that re-issued it
            // occurred: a re-dispatch target whose virtual clock lags the
            // previous attempt's end is lifted to it. (Per-device clocks
            // advance independently, so a healthy peer may well be
            // "earlier" than the fault; the request still arrives after.)
            // An open arrival additionally floors the clock at its arrival
            // instant: the device may be idle earlier, but the request
            // does not exist yet. Closed-queue submissions have offset 0,
            // making the floor a no-op (clocks never run backwards from
            // the drain start).
            let floor_ns = self.devices[d].drain_start.as_nanos() + job.arrival_ns;
            let floor_ns = job.not_before_ns.max(floor_ns);
            let attempt_no = job.retries;
            let run = if self.hedge.is_some() {
                self.redispatched(&mut job, d);
                self.attempt(d, floor_ns, job.req.clone())
            } else {
                match self.overlap(d, floor_ns, job) {
                    Ok(()) => return,
                    Err(back) => {
                        let (back, run) = *back;
                        job = back;
                        // Without an attempt, making room quarantined the
                        // device or priced its first attempt: re-pick.
                        let Some(run) = run else { continue };
                        run
                    }
                }
            };
            self.dispatched(&mut job, run.start_ns);
            if let Some(result) = self.conclude(&mut job, attempt_no, run) {
                self.finish(job, result, false);
                return;
            }
        }
    }

    /// Notes that `job` is about to run on device `d`, counting a
    /// re-dispatch away from a device quarantined under it.
    fn redispatched(&mut self, job: &mut Job, d: usize) {
        if job
            .device
            .is_some_and(|prev| self.devices[prev].is_quarantined())
        {
            // The previous attempt's device was quarantined under the
            // request; it is now re-dispatched to a healthy peer.
            self.metrics.counter_add("quarantine_redispatch_total", 1);
        }
        job.device = Some(d);
    }

    /// Records `job`'s queue span, once, ending where its first attempt
    /// started (raw `start_ns`).
    fn dispatched(&mut self, job: &mut Job, start_ns: u64) {
        if !job.queued_recorded {
            job.queued_recorded = true;
            if let Some(t) = self.tracer.as_mut() {
                t.queue_wait(job.id.0, job.arrival_ns, start_ns);
            }
        }
    }

    /// What a finished attempt `run` (attempt number `attempt_no`) means
    /// for `job`: its result when the request is done with devices (it
    /// succeeded, possibly through a winning hedge, or failed for good),
    /// or `None` when the request must be re-dispatched (a retryable
    /// fault, or a breaker that sends it to the host).
    fn conclude(
        &mut self,
        job: &mut Job,
        attempt_no: u32,
        mut run: Attempt,
    ) -> Option<Result<RoutineReport, RuntimeError>> {
        let (id, d) = (job.id, run.device);
        // Straggler defense: a successful attempt that overran its
        // prediction far enough races a speculative hedge on the best
        // other healthy device. The race resolves retroactively in
        // virtual time, so replay is bit-identical; the hedge path
        // records the attempt span, next to any hedge's own.
        let won = if let Err(e) = &run.result {
            if let Some(t) = self.tracer.as_mut() {
                let (fault, entries) = (e.to_string(), run.entries(&self.pool));
                t.attempt(id.0, attempt_no, &run, &entries, Some(&fault));
            }
            None
        } else {
            self.devices[d].succeeded();
            self.budget_note_success();
            // The primary's whole run calibrates its device, also
            // when a winning hedge cancels it: that overrun is the
            // evidence the device is slow.
            let actual = run.secs();
            let won = self.maybe_hedge(id, &job.req, attempt_no, &mut run);
            if let (Some(_), predicted) = run.price {
                self.devices[d].calibrate(predicted, actual);
            }
            won
        };
        job.not_before_ns = run.end_ns;
        if let Some((report, hedge_device)) = won {
            job.device = Some(hedge_device);
            return Some(Ok(report));
        }
        if run.result.is_ok() {
            // Predicted duration against the actual clock advance,
            // under every policy, so FIFO/EDF runs expose the same
            // misprediction accounting the predictive policy
            // schedules by.
            if let (Some(pred), predicted) = run.price {
                let actual = run.busy_secs();
                self.record_drift(job.req.routine(), id.0, &pred, predicted, actual);
            }
            return Some(run.result);
        }
        // A lost device is quarantined but the request is innocent:
        // it re-dispatches like a retryable fault.
        let retryable = self.on_attempt_fault(id.0, &run, job.retries < MAX_RETRIES);
        if !retryable || job.retries >= MAX_RETRIES {
            return Some(run.result);
        }
        if !self.budget_allow_retry(run.end_ns) {
            // The session retry budget ran dry (or its breaker is
            // open): fail fast to host fallback instead of burning
            // more device time on a sustained fault storm.
            job.budget_fastfail = true;
            return None;
        }
        job.retries += 1;
        self.metrics.counter_add("serve_retries_total", 1);
        None
    }

    /// Settles `job` with its final `result`: judges it on its flow time,
    /// records its completion instant, settles its outcome and completes
    /// its followers with it.
    fn finish(
        &mut self,
        job: Job,
        result: Result<RoutineReport, RuntimeError>,
        host_fallback: bool,
    ) {
        let Job {
            id,
            req,
            arrival_ns,
            followers,
            retries,
            device,
            not_before_ns,
            ..
        } = job;
        let routine = req.routine();
        let (status, flow) = match result {
            Ok(report) => {
                self.metrics
                    .counter_add("retry_tile_ops_total", report.op_retries);
                let flow = self.flow_secs(
                    device,
                    host_fallback,
                    arrival_ns,
                    not_before_ns,
                    report.elapsed,
                );
                (judge(report, flow, req.deadline()), flow)
            }
            Err(e) => {
                let error = RequestError::new(id, routine, e);
                (RequestStatus::Failed(error), f64::NAN)
            }
        };
        if let Some(t) = self.tracer.as_mut() {
            let end_ns = if host_fallback {
                t.host_now_ns()
            } else {
                not_before_ns
            };
            t.complete(id.0, end_ns, status.label());
        }
        let outcome = RequestOutcome {
            id,
            routine,
            device,
            status,
            retries,
            host_fallback,
            coalesced: false,
        };
        self.settle(outcome, flow);
        self.fan_out(followers, not_before_ns);
    }

    /// Issues `job` on device `d`, no earlier than raw instant `floor_ns`,
    /// beside the attempts already in flight there, and leaves it running.
    /// First the device makes room ([`make_room`](Self::make_room)) and
    /// the host waits for the floor, settling every attempt that ends
    /// before it. A failed issue settles the device's window before it is
    /// handed back as a finished attempt for the retry and quarantine
    /// path. The job comes back with no attempt, to be placed again, when
    /// settling quarantined the device, priced its first attempt, or
    /// re-dispatched a retry onto it that took the room.
    fn overlap(
        &mut self,
        d: usize,
        floor_ns: u64,
        mut job: Job,
    ) -> Result<(), Box<(Job, Option<Attempt>)>> {
        let cold = !self.devices[d].is_warm();
        self.make_room(d, &job.req);
        self.wait_for_floor(d, floor_ns);
        // A device quarantined meanwhile takes no work, one whose first
        // attempt just priced it is chosen again with that price, and a
        // retry settling re-dispatched here may have taken the room.
        let state = &self.devices[d];
        if state.is_quarantined() || (cold && state.is_warm()) || !self.has_room(d, &job.req) {
            return Err(Box::new((job, None)));
        }
        self.redispatched(&mut job, d);
        let dev = &self.pool.devices()[d];
        let gpu = dev.gpu();
        let (mark, start_ns, trace_len) = (gpu.alloc_mark(), gpu.now(), gpu.trace().len());
        let call = dev.next_call();
        let price = self.price(d, &job.req);
        match self.issue_once(d, job.req.clone()) {
            Ok((issued, fills, keys)) => {
                self.dispatched(&mut job, start_ns.as_nanos());
                // Start the attempt's ops at the issue instant.
                let end = issued.end().expect("issued with an end event");
                let _ = self
                    .pool
                    .device_mut(d)
                    .gpu_mut()
                    .wait_until(start_ns, Some(end));
                let state = &mut self.devices[d];
                state.frontier =
                    state.ready_secs(start_ns.as_secs_f64()) + price.1 * state.factor();
                state.inflight.push_back(InFlight {
                    job,
                    mark,
                    price,
                    start_ns: start_ns.as_nanos(),
                    trace_len,
                    issued,
                    fills,
                    keys,
                });
                Ok(())
            }
            Err(e) => {
                let end_ns = self.pool.devices()[d].gpu().now().as_nanos();
                while !self.devices[d].inflight.is_empty() {
                    self.settle_oldest(d);
                }
                let run = Attempt {
                    device: d,
                    mark,
                    price,
                    start_ns: start_ns.as_nanos(),
                    end_ns,
                    trace_len,
                    call: Some(call),
                    after_ns: 0,
                    result: Err(e),
                };
                Err(Box::new((job, Some(run))))
            }
        }
    }

    /// Settles device `d`'s oldest attempts until `req` may be issued
    /// there ([`has_room`](Self::has_room)).
    fn make_room(&mut self, d: usize, req: &RoutineRequest) {
        while !self.has_room(d, req) {
            self.settle_oldest(d);
        }
    }

    /// Whether `req` may be issued on device `d` now: nothing is in
    /// flight there, or fewer than [`WINDOW`] attempts are (one on a
    /// device not yet warm), `req`'s worst-case footprint fits beside the
    /// device memory in use, and no attempt in flight is still filling a
    /// residency entry `req` reads (it waits for that attempt's end).
    fn has_room(&self, d: usize, req: &RoutineRequest) -> bool {
        let state = &self.devices[d];
        if state.inflight.is_empty() {
            return true;
        }
        let gpu = self.pool.devices()[d].gpu();
        let window = if state.is_warm() { WINDOW } else { 1 };
        let filling = || {
            req.shared_operands()
                .any(|s| state.inflight.iter().any(|f| f.fills(s.key)))
        };
        state.inflight.len() < window
            && gpu.device_mem_used() + req.footprint_bytes() <= gpu.device_mem_capacity()
            && !filling()
    }

    /// The host waits on device `d` until raw instant `floor_ns`, settling
    /// each attempt in flight whose end event fires first, so every
    /// settled attempt ends where its own event fired.
    fn wait_for_floor(&mut self, d: usize, floor_ns: u64) {
        let at = SimTime::from_nanos(floor_ns);
        while let Some(end) = self.devices[d]
            .inflight
            .front()
            .and_then(|f| f.issued.end())
        {
            let gpu = self.pool.device_mut(d).gpu_mut();
            if gpu.now() >= at {
                return;
            }
            let _ = gpu.wait_until(at, Some(end));
            if !gpu.event_recorded(end) {
                return;
            }
            self.settle_oldest(d);
        }
        let _ = self.pool.device_mut(d).gpu_mut().wait_until(at, None);
    }

    /// Settles device `d`'s oldest attempt in flight: completes it and
    /// concludes it (a retry re-dispatches the request). When it failed
    /// (its device was lost), the rest of the window is completed first,
    /// so the fault path's scrub never frees a buffer an attempt still
    /// holds, then every completed attempt concludes in issue order.
    fn settle_oldest(&mut self, d: usize) {
        let Some(first) = self.devices[d].inflight.pop_front() else {
            return;
        };
        let first = self.complete(d, first);
        let rest: Vec<(Job, Attempt)> = if first.1.result.is_err() {
            let window: Vec<InFlight> = self.devices[d].inflight.drain(..).collect();
            window.into_iter().map(|f| self.complete(d, f)).collect()
        } else {
            Vec::new()
        };
        for (mut job, run) in std::iter::once(first).chain(rest) {
            let attempt_no = job.retries;
            match self.conclude(&mut job, attempt_no, run) {
                Some(result) => self.finish(job, result, false),
                None => self.dispatch(job),
            }
        }
    }

    /// Completes an attempt in flight on device `d`: waits for its end
    /// event, reports it, and settles its residency fills.
    fn complete(&mut self, d: usize, f: InFlight) -> (Job, Attempt) {
        let InFlight {
            job,
            mark,
            price,
            start_ns,
            trace_len,
            issued,
            fills,
            keys,
        } = f;
        let call = issued.call();
        let ServeSession {
            pool,
            devices,
            metrics,
            ..
        } = &mut *self;
        let dev = pool.device_mut(d);
        let result = dev.complete(issued);
        settle_fills(
            dev,
            &mut devices[d].residency,
            metrics,
            &keys,
            fills,
            result.is_ok(),
        );
        let end_ns = match &result {
            Ok(report) => start_ns + report.elapsed.as_nanos(),
            Err(_) => dev.gpu().now().as_nanos().max(start_ns),
        };
        let after_ns = std::mem::replace(&mut devices[d].last_end_ns, end_ns);
        let run = Attempt {
            device: d,
            mark,
            price,
            start_ns,
            end_ns,
            trace_len,
            call: Some(call),
            after_ns,
            result,
        };
        (job, run)
    }

    /// Max device-clock advance since the drain began — the virtual
    /// "elapsed" that drives telemetry windows.
    fn elapsed(&self) -> SimTime {
        self.busy().max().unwrap_or(SimTime::ZERO)
    }

    /// Each device's clock advance since the drain began.
    fn busy(&self) -> impl Iterator<Item = SimTime> + '_ {
        let clocks = self.pool.devices().iter().map(|d| d.gpu().now());
        clocks
            .zip(&self.devices)
            .map(|(now, s)| now.saturating_since(s.drain_start))
    }

    /// The loop state a telemetry step reads at virtual `elapsed`.
    fn tick_state(&self, elapsed: SimTime) -> TickState<'_> {
        TickState {
            elapsed_ns: elapsed.as_nanos(),
            queue_depth: self.queue.len(),
            devices: &self.devices,
            mean_abs_drift: self.drift.mean_abs_err(),
            metrics: &self.metrics,
        }
    }

    /// One telemetry step after an outcome: accounts the outcome settled
    /// last with `flow_secs`, the flow its deadline was judged on, and
    /// rotates windows. No-op when telemetry is off.
    fn telemetry_tick(&mut self, flow_secs: f64) {
        let Some(mut tracer) = self.tracer.take_if(|t| t.watching()) else {
            return;
        };
        let st = self.tick_state(self.elapsed());
        let outcome = self.outcomes.last().map(|o| (o, flow_secs));
        tracer.tick(&self.pool, &st, outcome);
        self.tracer = Some(tracer);
    }

    /// Raises each device's trace retention floor to the tracer's floor
    /// ([`ServeTracer::retire_floor`](crate::serve::trace::ServeTracer::retire_floor);
    /// the trace's length when untraced), folding the entries below it, so
    /// a device holds only the entries some reader still needs while
    /// [`Trace::len`](cocopelia_gpusim::Trace::len) and the per-engine
    /// totals keep counting all of them; a device with attempts in flight
    /// keeps every entry from its oldest one's issue on, so a device that
    /// never goes idle holds entries only for unsettled attempts. Each
    /// device's observer drops its
    /// per-call history the same way
    /// ([`Observer::retire_history`](cocopelia_obs::Observer::retire_history)):
    /// serving reads outcomes and the session's own drift, never a pool
    /// device's call log, and its counters keep counting.
    fn retire_traces(&mut self) {
        for d in 0..self.pool.device_count() {
            let len = self.pool.devices()[d].gpu().trace().len();
            let floor = self.tracer.as_ref().map_or(len, |t| t.retire_floor(d, len));
            // Attempts in flight read their entries when they settle.
            let unsettled = self.devices[d].inflight.front().map(InFlight::trace_len);
            let floor = unsettled.map_or(floor, |u| floor.min(u));
            let dev = self.pool.device_mut(d);
            dev.gpu_mut().keep_trace_from(floor);
            dev.observer_mut().retire_history();
        }
    }

    /// Ends the drain's trace at virtual `makespan`: the trace, the spans
    /// its cap dropped, and the telemetry summary, as armed.
    fn finish_trace(
        &mut self,
        makespan: SimTime,
    ) -> (Option<ServeTrace>, u64, Option<TelemetryReport>) {
        let Some(mut tracer) = self.tracer.take() else {
            return (None, 0, None);
        };
        let (dropped, telemetry) = tracer.finish(&self.pool, &self.tick_state(makespan));
        let trace = tracer.take_trace(tracer.take_lanes(&mut self.pool));
        self.tracer = Some(tracer);
        (Some(trace), dropped, telemetry)
    }

    /// Quarantines device `d`: it stops pulling work, its residency cache
    /// is invalidated, and every live allocation is released (a lost
    /// device aborts in-flight work first). When probation is armed, the
    /// first canary is scheduled one backoff (plus deterministic jitter)
    /// past the device's clock. Idempotent.
    pub(super) fn quarantine(&mut self, d: usize) {
        if self.devices[d].is_quarantined() {
            return;
        }
        self.metrics.counter_add("quarantine_devices_total", 1);
        let evicted = self.scrub(d, None, true);
        self.metrics
            .counter_add("quarantine_invalidated_total", evicted as u64);
        let now_ns = self.pool.devices()[d].gpu().now().as_nanos();
        let probe = self.probation.map(|cfg| DeviceProbe {
            next_due_ns: cfg.next_due_ns(d, 0, now_ns),
            consecutive_ok: 0,
            round: 0,
        });
        self.devices[d].health = Health::Quarantined { probe };
    }

    /// Runs `req` once on device `d`, alone on the device, starting no
    /// earlier than raw instant `floor_ns`: the host waits for the floor
    /// (a lagging idle device's clock is lifted to it), marks the device's
    /// allocations, prices the run, and samples the clock and engine-trace
    /// length around [`execute_once`](Self::execute_once).
    fn attempt(&mut self, d: usize, floor_ns: u64, req: RoutineRequest) -> Attempt {
        let gpu = self.pool.device_mut(d).gpu_mut();
        let _ = gpu.wait_until(SimTime::from_nanos(floor_ns), None);
        let gpu = self.pool.devices()[d].gpu();
        let (mark, start_ns, trace_len) =
            (gpu.alloc_mark(), gpu.now().as_nanos(), gpu.trace().len());
        let price = self.price(d, &req);
        let result = self.execute_once(d, req);
        Attempt {
            device: d,
            mark,
            price,
            start_ns,
            end_ns: self.pool.devices()[d].gpu().now().as_nanos(),
            trace_len,
            call: None,
            after_ns: 0,
            result,
        }
    }

    /// Where and when a hedge of the successful `primary` attempt starts:
    /// the best other healthy device, at the virtual instant the attempt's
    /// elapsed crossed the adaptive overrun threshold (its calibrated
    /// prediction times [`Hedging::multiplier`]), or at that device's own
    /// clock if later. `None` when hedging is disarmed or nothing overran
    /// early enough to race.
    fn hedge_target(&self, req: &RoutineRequest, primary: &Attempt) -> Option<(usize, u64)> {
        // Without an offload estimate (e.g. an undeployed profile) there
        // is no prediction to overrun, so hedging never fires.
        let (Some(hedging), (Some(_), predicted)) = (&self.hedge, primary.price) else {
            return None;
        };
        // The overrun is judged against the calibrated prediction, so a
        // straggler already priced as slow does not hedge its on-model
        // attempts.
        let d = primary.device;
        let calibrated = predicted * self.devices[d].factor();
        let threshold_ns = (calibrated * hedging.multiplier() * 1e9) as u64;
        let elapsed_ns = primary.end_ns.saturating_sub(primary.start_ns);
        if threshold_ns == 0 || elapsed_ns <= threshold_ns {
            return None;
        }
        let (b, _) = self.choose_device(req, Some(d))?;
        // The hedge starts when the overrun was detected — the primary's
        // clock crossing the threshold — or at the hedge device's own
        // clock if that is later (it may be busy with earlier work). A
        // hedge that could not have started before the primary finished
        // has nothing to race.
        let trigger_ns = primary.start_ns + threshold_ns;
        let b_now_ns = self.pool.devices()[b].gpu().now().as_nanos();
        (b_now_ns.max(trigger_ns) < primary.end_ns).then_some((b, trigger_ns))
    }

    /// The retroactive hedge race after a successful `primary` attempt,
    /// which records the primary's attempt span. When
    /// [`hedge_target`](Self::hedge_target) finds a target, the same
    /// request is speculatively re-executed there. Whichever attempt
    /// finishes first in virtual time wins; the loser is cancelled
    /// ([`cocopelia_gpusim::Gpu::cancel_to`]) at the winner's end, which
    /// becomes the loser's end too, and rolled back, so device time,
    /// flops, and residency effects are charged exactly once. A hedge
    /// that *faults* gets the ordinary fault bookkeeping on its device
    /// (streak, quarantine, leak release) while the primary's result
    /// stands. Returns a winning hedge's report and device.
    fn maybe_hedge(
        &mut self,
        id: RequestId,
        req: &RoutineRequest,
        attempt_no: u32,
        primary: &mut Attempt,
    ) -> Option<(RoutineReport, usize)> {
        let Some((b, trigger_ns)) = self.hedge_target(req, primary) else {
            if let Some(t) = self.tracer.as_mut() {
                t.attempt(
                    id.0,
                    attempt_no,
                    primary,
                    &primary.entries(&self.pool),
                    None,
                );
            }
            return None;
        };
        let d = primary.device;
        self.metrics.counter_add("hedge_attempts_total", 1);
        let mut hedge = self.attempt(b, trigger_ns, req.clone());
        let won = hedge.result.is_ok() && hedge.end_ns < primary.end_ns;
        // Settle the race before tracing it: the losing side is cancelled
        // and its work rolled back, so both attempts' spans read the
        // timelines as they stand.
        let verdict = match &hedge.result {
            Ok(_) if won => {
                // The hedge won: cancel the primary at the instant the
                // hedge completed and roll its work back.
                primary.end_ns = hedge.end_ns;
                self.cancel(primary, req);
                self.devices[b].succeeded();
                self.metrics.counter_add("hedge_wins_total", 1);
                " (won)".to_owned()
            }
            Ok(_) => {
                // The hedge lost: cancel it at the instant the primary
                // finished. Its partial work is erased and rolled back;
                // the time it burned until the cancellation stays charged
                // to the hedge device.
                hedge.end_ns = primary.end_ns;
                self.cancel(&hedge, req);
                self.metrics.counter_add("hedge_losses_total", 1);
                " (lost)".to_owned()
            }
            Err(e) => {
                self.metrics.counter_add("hedge_fail_total", 1);
                format!(": {e}")
            }
        };
        if let Some(t) = self.tracer.as_mut() {
            let cancelled = won.then_some("cancelled: hedge won");
            let entries = primary.entries(&self.pool);
            t.attempt(id.0, attempt_no, primary, &entries, cancelled);
            if won {
                let label = format!("cancelled by hedge on dev{b}");
                t.cancel(id.0, d, primary.end_ns, &label);
            }
            let label = format!("hedge on dev{b}{verdict}");
            t.hedge(id.0, &hedge, &hedge.entries(&self.pool), &label);
            if hedge.result.is_ok() && !won {
                t.cancel(id.0, b, hedge.end_ns, "hedge lost");
            }
        }
        if !won {
            if hedge.result.is_err() {
                // The hedge faulted: the primary's result stands; the
                // hedge device gets ordinary fault bookkeeping — under a
                // compound failure (device lost mid-hedge) it is
                // quarantined and scrubbed, so nothing leaks.
                self.on_attempt_fault(id.0, &hedge, false);
            }
            return None;
        }
        // The surviving attempt carries the drift record: the hedge
        // device's own prediction against what its run actually took (the
        // cancelled primary's timing was erased, so recording it would
        // poison the model).
        if let (Some(pred), predicted) = hedge.price {
            let actual = hedge.secs();
            self.record_drift(req.routine(), id.0, &pred, predicted, actual);
            self.devices[b].calibrate(predicted, actual);
        }
        Some((hedge.result.expect("a won hedge completed"), b))
    }

    /// Cancels the losing side of a hedge race at its (rewound) end and
    /// rolls it back. A shared operand the run *newly* inserted into the
    /// residency cache (its buffer was allocated at or after the run's
    /// mark) stays only when every fill copy of it ended strictly before
    /// the cancel instant; otherwise its entry is removed and freed. Then
    /// every remaining buffer the run allocated is released. Entries
    /// resident before the run — and the cache hits they served — survive
    /// untouched.
    fn cancel(&mut self, run: &Attempt, req: &RoutineRequest) {
        let (dev, mark) = (run.device, run.mark);
        // Read the fills before the rewind, which clamps a copy that
        // straddles the instant to end exactly there.
        let entries = run.entries(&self.pool);
        let filled = req.roles().map(|role| {
            entries
                .iter()
                .filter(|e| {
                    e.engine == EngineKind::CopyH2d && e.tag.and_then(|t| t.operand) == role
                })
                .all(|e| e.end.as_nanos() < run.end_ns)
        });
        self.pool
            .device_mut(dev)
            .gpu_mut()
            .cancel_to(SimTime::from_nanos(run.end_ns));
        let mut rolled_back_bytes = 0u64;
        let args = req.operands().into_iter().zip(filled);
        for (s, filled) in args.filter_map(|(arg, f)| Some((arg?.shared()?, f))) {
            let gpu = self.pool.devices()[dev].gpu();
            let cache = &mut self.devices[dev].residency;
            let fresh = cache
                .buffer_of(s.key)
                .is_some_and(|b| gpu.allocated_since(mark, b));
            if fresh && !filled {
                if let Some(e) = cache.remove(s.key) {
                    rolled_back_bytes += e.bytes as u64;
                    free_resident(self.pool.device_mut(dev), e.buf);
                }
            }
        }
        // The cancelled attempt completed, so `residency_bytes_uploaded`
        // counted each of its fills whole, including the entries rolled
        // back here, whose copies had not all ended at the cancel instant.
        // This correction term keeps "bytes left resident" computable
        // without a decrementable counter.
        if rolled_back_bytes > 0 {
            self.metrics
                .counter_add("hedge_cancelled_bytes", rolled_back_bytes);
        }
        self.scrub(dev, Some(mark), false);
    }

    /// Fault bookkeeping for a failed attempt `run` (primary or hedge):
    /// counts the fault class, then quarantines the device when it was
    /// lost or its consecutive-fault streak reached [`QUARANTINE_AFTER`].
    /// Otherwise the attempt's leftovers are freed — with a full reclaim
    /// when `retrying` (only a retry justifies the scorched-earth reclaim
    /// that evicts the whole residency cache to make room), else only what
    /// the attempt leaked, keeping warm operands for later requests.
    /// Returns whether the request may be re-attempted: a lost device's
    /// request is innocent, but programming errors never improve on retry.
    fn on_attempt_fault(&mut self, id: u64, run: &Attempt, retrying: bool) -> bool {
        let Err(e) = &run.result else {
            return false;
        };
        let class = e.fault_class();
        self.metrics.counter_add(
            match class {
                FaultClass::Transient => "fault_transient_total",
                FaultClass::Degraded => "fault_degraded_total",
                FaultClass::Fatal => "fault_fatal_total",
            },
            1,
        );
        let d = run.device;
        let lost = matches!(e, RuntimeError::Sim(SimError::DeviceLost));
        let retryable = class.retryable();
        if lost || (retryable && self.devices[d].faulted() >= QUARANTINE_AFTER) {
            self.quarantine(d);
            if let Some(t) = self.tracer.as_mut() {
                t.quarantine(id, d, run.end_ns);
            }
        } else if retryable && retrying {
            let evicted = self.scrub(d, Some(run.mark), true);
            self.metrics
                .counter_add("residency_evictions_total", evicted as u64);
        } else {
            self.scrub(d, Some(run.mark), false);
        }
        lost || retryable
    }

    /// Records one attempt's predicted-vs-actual duration in the drift
    /// accountant and the `sched_predict_abs_err` histograms (overall and
    /// per policy).
    fn record_drift(
        &mut self,
        routine: &'static str,
        call: u64,
        pred: &Prediction,
        predicted_secs: f64,
        actual_secs: f64,
    ) {
        let rec = DriftRecord {
            routine,
            call,
            model: pred.model,
            tile: pred.tile,
            predicted_secs,
            actual_secs,
        };
        let err = rec.abs_rel_err();
        if let Some(h) = self.hedge.as_mut() {
            insert_sorted(&mut h.drift_errs, err);
        }
        self.metrics
            .histogram_observe("sched_predict_abs_err", &ABS_ERROR_BOUNDS, err);
        self.metrics
            .histogram_observe(self.policy.drift_metric(), &ABS_ERROR_BOUNDS, err);
        self.drift.record(rec);
    }

    /// Runs every canary probe that has come due on the pool's virtual
    /// clock (the furthest-ahead device). Probes advance only the
    /// quarantined device's own clock, so a healthy pool never waits on
    /// them. No-op unless probation is armed.
    fn run_due_probes(&mut self) {
        if self.probation.is_none() {
            return;
        }
        let pool_now = self
            .pool
            .devices()
            .iter()
            .map(|d| d.gpu().now().as_nanos())
            .max()
            .unwrap_or(0);
        for d in 0..self.pool.device_count() {
            let due = self.devices[d]
                .probe()
                .is_some_and(|p| p.next_due_ns <= pool_now);
            if due {
                self.run_probe(d);
            }
        }
    }

    /// Jumps virtual time to the probation schedule when no healthy
    /// device remains: runs probes in due order until one re-admits a
    /// device (`true`) or every probationary device gives up (`false`).
    /// Bounded: each failed round extends the backoff and
    /// [`PROBE_MAX_ROUNDS`] retires the probe entirely.
    fn try_heal_pool(&mut self) -> bool {
        if self.probation.is_none() {
            return false;
        }
        loop {
            let next = (0..self.pool.device_count())
                .filter_map(|i| self.devices[i].probe().map(|p| (p.next_due_ns, i)))
                .min();
            let Some((_, d)) = next else {
                return false;
            };
            self.run_probe(d);
            if !self.devices[d].is_quarantined() {
                return true;
            }
        }
    }

    /// One canary probe of quarantined device `d`: a tiny ghost GEMM from
    /// the exec tables, run at the scheduled instant (the device clock is
    /// lifted to it). Enough consecutive successes re-admit the device
    /// with a cold residency cache; a failure resets the streak and
    /// extends the backoff exponentially (with deterministic jitter)
    /// until [`PROBE_MAX_ROUNDS`] gives the device up.
    fn run_probe(&mut self, d: usize) {
        let Some(cfg) = self.probation else {
            return;
        };
        let Some(mut p) = self.devices[d].probe() else {
            return;
        };
        self.metrics.counter_add("probe_attempts_total", 1);
        let run = self.attempt(d, p.next_due_ns, canary_request());
        let goal = cfg.successes.max(1);
        if let Some(t) = self.tracer.as_mut() {
            let label = match &run.result {
                Ok(_) => format!("probe ok ({}/{goal})", p.consecutive_ok + 1),
                Err(e) => format!("probe fault: {e}"),
            };
            t.probe(d, run.start_ns, run.end_ns, &label);
        }
        if run.result.is_ok() {
            self.metrics.counter_add("probe_success_total", 1);
            p.consecutive_ok += 1;
            if p.consecutive_ok >= goal {
                self.readmit(d);
                return;
            }
            // The device looks healthy — confirm soon, after a plain
            // (un-doubled) backoff.
            p.next_due_ns = run.end_ns + cfg.backoff.as_nanos().max(1);
        } else {
            self.metrics.counter_add("probe_fail_total", 1);
            self.scrub(d, Some(run.mark), false);
            p.consecutive_ok = 0;
            p.round += 1;
            if p.round >= PROBE_MAX_ROUNDS {
                self.metrics.counter_add("probe_giveup_total", 1);
                self.devices[d].health = Health::Quarantined { probe: None };
                return;
            }
            p.next_due_ns = cfg.next_due_ns(d, p.round, run.end_ns);
        }
        self.devices[d].health = Health::Quarantined { probe: Some(p) };
    }

    /// Re-admits a healed device: it pulls work again, with a cold
    /// residency cache (quarantine cleared it), a clean fault streak and
    /// no calibration evidence. An open retry-budget breaker moves to
    /// half-open — the canary that healed the pool is evidence the fault
    /// storm passed.
    fn readmit(&mut self, d: usize) {
        self.devices[d].health = Health::SERVING;
        self.metrics.counter_add("probe_readmit_total", 1);
        if let Some(bs) = self.budget.as_mut() {
            if matches!(bs.breaker, Breaker::Open { .. }) {
                bs.breaker = Breaker::HalfOpen;
                self.metrics.counter_add("budget_halfopen_total", 1);
            }
        }
    }

    /// Whether the session retry budget allows another session-level
    /// retry at raw virtual instant `now_ns`. Closed: refill (in virtual
    /// time) then spend one token, or open the breaker when the bucket is
    /// dry. Open: fail fast until the cooldown expires, then half-open
    /// and allow one trial. Half-open reached *here* means the previous
    /// trial faulted again (only faults ask for retries), so the breaker
    /// reopens with a doubled cooldown. Always true with no budget armed.
    fn budget_allow_retry(&mut self, now_ns: u64) -> bool {
        let Some(bs) = self.budget.as_mut() else {
            return true;
        };
        match bs.breaker {
            Breaker::Closed => {
                let dt = now_ns.saturating_sub(bs.last_refill_ns) as f64 / 1e9;
                bs.tokens = (bs.tokens + dt * bs.cfg.refill_per_sec).min(bs.cfg.tokens.max(0.0));
                bs.last_refill_ns = now_ns;
                if bs.tokens >= 1.0 {
                    bs.tokens -= 1.0;
                    self.metrics.counter_add("budget_spent_total", 1);
                    true
                } else {
                    bs.breaker = Breaker::Open {
                        until_ns: now_ns + bs.cooldown_ns,
                    };
                    self.metrics.counter_add("budget_exhausted_total", 1);
                    self.metrics.counter_add("budget_fastfail_total", 1);
                    false
                }
            }
            Breaker::Open { until_ns } if now_ns < until_ns => {
                self.metrics.counter_add("budget_fastfail_total", 1);
                false
            }
            Breaker::Open { .. } => {
                bs.breaker = Breaker::HalfOpen;
                self.metrics.counter_add("budget_halfopen_total", 1);
                true
            }
            Breaker::HalfOpen => {
                bs.cooldown_ns = bs.cooldown_ns.saturating_mul(2);
                bs.breaker = Breaker::Open {
                    until_ns: now_ns + bs.cooldown_ns,
                };
                self.metrics.counter_add("budget_fastfail_total", 1);
                false
            }
        }
    }

    /// Notes a successful device attempt for the circuit breaker: a
    /// success while half-open closes the breaker, refills the bucket,
    /// and resets the cooldown to [`BUDGET_COOLDOWN_NS`].
    fn budget_note_success(&mut self) {
        if let Some(bs) = self.budget.as_mut() {
            if bs.breaker == Breaker::HalfOpen {
                bs.breaker = Breaker::Closed;
                bs.tokens = bs.cfg.tokens.max(0.0);
                bs.cooldown_ns = BUDGET_COOLDOWN_NS;
                self.metrics.counter_add("budget_close_total", 1);
            }
        }
    }

    /// Completes a request on the host at the [`HOST_GFLOPS`] rate — the
    /// graceful
    /// degradation path when every device is quarantined. Host time is
    /// reported in the request's outcome but advances no device clock, so
    /// it does not count toward the pool makespan.
    fn execute_host(&mut self, req: &RoutineRequest) -> RoutineReport {
        let flops = req.problem_spec().flops();
        let elapsed = SimTime::from_secs_f64(flops / (HOST_GFLOPS * 1e9));
        RoutineReport {
            elapsed,
            tile: 0,
            subkernels: 1,
            flops,
            selection: None,
            overlap: OverlapStats::default(),
            drift: Vec::new(),
            tile_hits: 0,
            tile_misses: 0,
            op_retries: 0,
        }
    }

    /// One attempt: resolve shared operands against device `d`'s residency
    /// cache and run the routine, whose tile schedule fills each miss.
    /// After a run, each fill's bytes count as uploaded, its host ghost is
    /// released and each bypass buffer freed. A failed attempt instead
    /// takes the entries its fills inserted out of the cache, so a partly
    /// filled buffer never serves a hit; the failure's
    /// [`scrub`](Self::scrub) frees them, and the ghosts, once the device
    /// is idle.
    fn execute_once(
        &mut self,
        d: usize,
        req: RoutineRequest,
    ) -> Result<RoutineReport, RuntimeError> {
        // Pin every shared key of this request for the whole resolution:
        // resolving a later operand must never evict (and free) an earlier
        // operand of the same request out from under its resolved handle.
        let pinned: Vec<String> = req.shared_operands().map(|s| s.key.to_owned()).collect();
        let mut fills = [None; 3];
        let ServeSession {
            pool,
            devices,
            metrics,
            ..
        } = &mut *self;
        let dev = pool.device_mut(d);
        let cache = &mut devices[d].residency;
        let is_pinned = |k: &str| pinned.iter().any(|p| p == k);
        let result = resolve_request(dev, cache, metrics, &mut fills, is_pinned, req)
            .and_then(|resolved| dev.submit(resolved));
        settle_fills(dev, cache, metrics, &pinned, fills, result.is_ok());
        result
    }

    /// Issues `req` on device `d` beside its attempts in flight, which
    /// stay pinned in the residency cache: resolves shared operands as
    /// [`execute_once`](Self::execute_once) does and issues the routine
    /// ([`Cocopelia::issue`]). Returns the call with its fills and the
    /// request's shared keys; a failed issue removes the entries its
    /// fills inserted, as a failed run does.
    fn issue_once(&mut self, d: usize, req: RoutineRequest) -> Result<Launched, RuntimeError> {
        let keys: Vec<String> = req.shared_operands().map(|s| s.key.to_owned()).collect();
        let mut fills = [None; 3];
        let ServeSession {
            pool,
            devices,
            metrics,
            ..
        } = &mut *self;
        let dev = pool.device_mut(d);
        let state = &mut devices[d];
        let cache = &mut state.residency;
        let inflight = &state.inflight;
        let pinned = |k: &str| {
            keys.iter()
                .chain(inflight.iter().flat_map(|f| &f.keys))
                .any(|p| p == k)
        };
        let result = resolve_request(dev, cache, metrics, &mut fills, pinned, req)
            .and_then(|resolved| dev.issue(resolved));
        match result {
            Ok(issued) => Ok((issued, fills, keys)),
            Err(e) => {
                settle_fills(dev, cache, metrics, &keys, fills, false);
                Err(e)
            }
        }
    }

    /// Frees device `d`'s buffers once its in-flight work is done: every
    /// live allocation made at or after `mark` (every live one when
    /// `None`), except the buffers its residency cache holds. With
    /// `evict`, the cache is emptied first and its entries freed too;
    /// returns how many entries it held.
    fn scrub(&mut self, d: usize, mark: Option<AllocMark>, evict: bool) -> usize {
        debug_assert!(
            self.devices[d].inflight.is_empty(),
            "scrub with attempts in flight"
        );
        let cache = &mut self.devices[d].residency;
        let evicted = if evict { cache.clear() } else { Vec::new() };
        let gpu = self.pool.devices()[d].gpu();
        let cached: BTreeSet<DevBufId> = cache
            .device_buffers()
            .into_iter()
            .filter(|&b| mark.is_none_or(|m| gpu.allocated_since(m, b)))
            .collect();
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        for e in &evicted {
            free_resident(dev, e.buf);
        }
        let gpu = dev.gpu();
        let (bufs, hosts) = match mark {
            Some(m) => (
                gpu.live_device_buffers_since(m),
                gpu.live_host_buffers_since(m),
            ),
            None => (gpu.live_device_buffers(), gpu.live_host_buffers()),
        };
        for b in bufs.into_iter().filter(|b| !cached.contains(b)) {
            let _ = dev.gpu_mut().free_device(b);
        }
        for h in hosts {
            let _ = dev.gpu_mut().take_host(h);
        }
        evicted.len()
    }
}

/// Settles the residency fills of an attempt over the request's shared
/// `keys`: after a run that succeeded, each fill's bytes count as
/// uploaded, its host ghost is released and a bypass buffer freed; after
/// a failure, the entries the fills inserted leave the cache, so a partly
/// filled buffer never serves a hit (the failure's scrub frees them).
fn settle_fills(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    keys: &[String],
    fills: [Option<Fill>; 3],
    ok: bool,
) {
    for (key, fill) in keys.iter().zip(fills) {
        let Some(fill) = fill else {
            continue;
        };
        if ok {
            metrics.counter_add("residency_bytes_uploaded", fill.bytes as u64);
            let _ = dev.gpu_mut().take_host(fill.ghost);
            if !fill.cached {
                free_resident(dev, fill.buf);
            }
        } else if fill.cached {
            cache.remove(key);
        }
    }
}

/// Frees a cached or bypass device allocation, ignoring stale buffers
/// (reclaim may already have freed them).
fn free_resident(dev: &mut Cocopelia, buf: DevBufId) {
    let _ = dev.gpu_mut().free_device(buf);
}

/// One residency miss of an attempt: the device buffer the request's tile
/// schedule fills, and the host ghost it fills from.
#[derive(Debug, Clone, Copy)]
struct Fill {
    buf: DevBufId,
    ghost: HostBufId,
    /// The operand's bytes, counted as uploaded once the attempt succeeds.
    bytes: usize,
    /// Whether the buffer joined the residency cache; a bypass buffer is
    /// freed after the run.
    cached: bool,
}

/// Resolves every shared operand of a request against one device, in
/// operand order. A hit binds the cached buffer. A miss allocates the
/// operand's buffer, evicting least-recently-used entries to make room,
/// registers a host ghost of the operand, binds the argument to both and
/// records the [`Fill`] in `fills` at the key's index among the request's
/// shared operands: the routine's tile schedule copies each region on its
/// first read. A key the request already missed on binds to that same
/// fill, so each region is copied once. `pinned` holds the request's
/// shared keys and those of the attempts in flight on the device, which
/// eviction must not touch; an operand that cannot fit alongside them
/// bypasses the cache instead.
fn resolve_request(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    fills: &mut [Option<Fill>; 3],
    pinned: impl Fn(&str) -> bool + Copy,
    mut req: RoutineRequest,
) -> Result<RoutineRequest, RuntimeError> {
    let args = req.operands_mut().into_iter().flatten();
    for (k, arg) in args.filter(|a| a.shared().is_some()).enumerate() {
        let s = arg.shared().expect("filtered to shared operands");
        if let Some(buf) = cache.lookup(s.key, s.dtype, s.shape)? {
            metrics.counter_add("residency_hits_total", 1);
            let filling = fills.iter().flatten().find(|f| f.buf == buf);
            arg.bind(buf, filling.map(|f| f.ghost));
            continue;
        }
        metrics.counter_add("residency_misses_total", 1);
        let bytes = s.bytes();
        let cacheable = cache.fits_pinned(bytes, pinned);
        if cacheable {
            for e in cache.evict_for(bytes, pinned) {
                metrics.counter_add("residency_evictions_total", 1);
                free_resident(dev, e.buf);
            }
        } else {
            metrics.counter_add("residency_bypass_total", 1);
        }
        let gpu = dev.gpu_mut();
        let buf = gpu.alloc_device(s.dtype, s.shape.len())?;
        let ghost = gpu.register_host_ghost(s.dtype, s.shape.len(), true);
        if cacheable {
            cache.insert(s.key, s.dtype, s.shape, buf);
        }
        fills[k] = Some(Fill {
            buf,
            ghost,
            bytes,
            cached: cacheable,
        });
        arg.bind(buf, Some(ghost));
    }
    Ok(req)
}

/// Inserts `err` into `errs`, which is sorted under [`f64::total_cmp`],
/// keeping it sorted.
fn insert_sorted(errs: &mut Vec<f64>, err: f64) {
    let at = errs.partition_point(|e| e.total_cmp(&err).is_le());
    errs.insert(at, err);
}

/// The 95th percentile of non-empty `sorted` (the lower rank, so
/// `hedge_multiplier` reads the value a sort of the same errors gives).
fn p95(sorted: &[f64]) -> f64 {
    sorted[(sorted.len() - 1) * 95 / 100]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigpu::MultiGpu;
    use cocopelia_core::{ExecTable, LatBw, RoutineClass, SystemProfile, TransferModel};
    use cocopelia_gpusim::{testbed_i, ExecMode};
    use cocopelia_hostblas::Dtype;

    /// A two-device session whose profile prices a 1024³ dgemm at tile
    /// 512, and that request.
    fn priced_session() -> (ServeSession, RoutineRequest) {
        let link = LatBw {
            t_l: 1e-5,
            t_b: 1e-10,
        };
        let transfer = TransferModel {
            h2d: link,
            d2h: link,
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        };
        let mut profile = SystemProfile::new("calibration", transfer);
        profile.insert_exec(
            RoutineClass::Gemm,
            Dtype::F64,
            ExecTable::new(vec![(512, 2e-3)]),
        );
        let pool = MultiGpu::new(&testbed_i(), 2, ExecMode::TimingOnly, 1, profile);
        let ghost = || MatOperand::<f64>::HostGhost {
            rows: 1024,
            cols: 1024,
        };
        let req = GemmRequest::new(ghost(), ghost(), ghost())
            .tile(TileChoice::Fixed(512))
            .into();
        (ServeSession::new(pool, ExecutorConfig::default()), req)
    }

    /// The calibrated price of `req` on `d`, without the clock.
    fn price(s: &ServeSession, d: usize, req: &RoutineRequest) -> f64 {
        s.price(d, req).1 * s.devices[d].factor()
    }

    #[test]
    fn ratios_inside_the_dead_band_leave_the_price_bit_equal() {
        let (mut s, req) = priced_session();
        let service = s.price(0, &req).1;
        assert!(service > 0.0, "the profile prices the request");
        for ratio in [0.87, 1.0, 1.06, 0.7, 1.45, 1.0] {
            s.devices[0].calibrate(service, service * ratio);
            assert_eq!(s.devices[0].factor(), 1.0, "ratio {ratio}");
            assert_eq!(price(&s, 0, &req).to_bits(), service.to_bits());
        }
        // No prediction, no evidence.
        s.devices[1].calibrate(0.0, 1.0);
        assert_eq!(s.devices[1].health, Health::SERVING);
    }

    #[test]
    fn one_tenfold_overrun_lifts_the_factor() {
        let (mut s, req) = priced_session();
        let service = s.price(0, &req).1;
        s.devices[0].calibrate(service, 10.0 * service);
        assert!((s.devices[0].factor() - 10.0).abs() < 1e-9);
        assert!(price(&s, 0, &req) > 9.0 * service);
        assert_eq!(price(&s, 1, &req).to_bits(), service.to_bits());
        // Placement now prefers the peer although both clocks read zero.
        assert_eq!(s.choose_device(&req, None).map(|c| c.0), Some(1));
        // Later on-model attempts pull the running ratio back into the band.
        for _ in 0..6 {
            s.devices[0].calibrate(service, service);
        }
        assert_eq!(s.devices[0].factor(), 1.0);
    }

    #[test]
    fn quarantine_and_readmission_reset_the_factor() {
        let (mut s, req) = priced_session();
        let service = s.price(0, &req).1;
        s.devices[0].calibrate(service, 10.0 * service);
        s.quarantine(0);
        assert_eq!(s.devices[0].factor(), 1.0);
        // A quarantined device keeps no calibration to observe into.
        s.devices[0].calibrate(service, 10.0 * service);
        assert_eq!(s.devices[0].factor(), 1.0);
        s.readmit(0);
        assert_eq!(s.devices[0].health, Health::SERVING);
        assert_eq!(s.devices[0].factor(), 1.0);
    }

    #[test]
    fn overlapped_requests_on_one_device_compute_the_host_reference() {
        use crate::operand::{DeviceMatrix, VecOperand};
        use crate::request::AxpyRequest;
        use cocopelia_gpusim::NoiseSpec;
        use cocopelia_hostblas::{level1, level3, validate, Matrix};
        // One functional device; `C` and `y` stay resident across a chain
        // of requests that each read the previous one's result, with `A`,
        // `B` and `x` staged from the host every time.
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        let free = LatBw { t_l: 0.0, t_b: 0.0 };
        let transfer = TransferModel {
            h2d: free,
            d2h: free,
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        };
        let profile = SystemProfile::new("functional", transfer);
        let mut pool = MultiGpu::new(&tb, 1, ExecMode::Functional, 3, profile);
        let n = 96;
        let val = |i: usize, j: usize, salt: usize| ((i * 31 + j * 17 + salt) % 19) as f64 / 19.0;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| val(i, j, 1) - 0.5);
        let b = Matrix::<f64>::from_fn(n, n, |i, j| val(i, j, 2) - 0.5);
        let c0 = Matrix::<f64>::from_fn(n, n, |i, j| val(i, j, 3));
        let x: Vec<f64> = (0..n * n).map(|i| val(i, 0, 4)).collect();
        let y0: Vec<f64> = (0..n * n).map(|i| val(i, 1, 5)).collect();
        let dev = pool.device_mut(0);
        let c: DeviceMatrix = dev.upload_matrix(&c0).expect("upload C");
        let y = dev.upload_vector(&y0).expect("upload y");
        let opts = crate::serve::ServeOptions::new().tracing();
        let mut s = ServeSession::with_options(pool, ExecutorConfig::default(), opts)
            .expect("no telemetry stream");
        let rounds = 6;
        for _ in 0..rounds {
            s.submit(
                GemmRequest::<f64>::new(a.clone(), b.clone(), MatOperand::Device(c))
                    .alpha(0.5)
                    .beta(1.0)
                    .tile(TileChoice::Fixed(32)),
            );
            s.submit(
                AxpyRequest::<f64>::new(x.clone(), VecOperand::Device(y))
                    .alpha(0.25)
                    .tile(TileChoice::Fixed(2048)),
            );
        }
        let report = s.drain();
        assert_eq!(report.completed(), 2 * rounds, "{}", report.render());
        // Requests overlapped: some attempt was issued before the one
        // before it ended.
        let trace = report.trace.as_ref().expect("tracing armed");
        let mut runs: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .filter(|sp| sp.phase == cocopelia_obs::SpanPhase::Dispatch)
            .map(|sp| (sp.start_ns, sp.end_ns))
            .collect();
        runs.sort_unstable();
        assert!(runs.windows(2).any(|w| w[1].0 < w[0].1), "{runs:?}");
        let mut want_c = c0;
        let mut want_y = y0;
        for _ in 0..rounds {
            level3::gemm(0.5, &a.view(), &b.view(), 1.0, &mut want_c.view_mut());
            level1::axpy(0.25, &x, &mut want_y);
        }
        let dev = s.pool.device_mut(0);
        let got_c = dev.download_matrix::<f64>(&c).expect("download C");
        let got_y = dev.download_vector::<f64>(&y).expect("download y");
        let err = validate::max_rel_err(got_c.as_slice(), want_c.as_slice());
        assert!(
            err <= rounds as f64 * validate::gemm_tolerance::<f64>(n),
            "C err {err:e}"
        );
        assert!(validate::max_rel_err(&got_y, &want_y) <= 1e-12, "y");
    }

    #[test]
    fn sorted_insertion_reads_the_p95_of_a_sort() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 1..200 {
            let mut errs = Vec::new();
            let mut all = Vec::new();
            for _ in 0..len {
                // Few distinct values, so ties are common.
                let err = (next() % 64) as f64 / 16.0;
                insert_sorted(&mut errs, err);
                all.push(err);
                let mut sorted = all.clone();
                sorted.sort_by(f64::total_cmp);
                assert_eq!(p95(&errs).to_bits(), p95(&sorted).to_bits());
            }
            all.sort_by(f64::total_cmp);
            assert_eq!(errs, all);
        }
    }
}
