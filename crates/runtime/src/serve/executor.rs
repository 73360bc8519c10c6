//! The dispatch engine behind [`ServeSession`]: admission, placement,
//! residency, retry, hedging, and probation.

use crate::ctx::{Cocopelia, RoutineReport};
use crate::error::{FaultClass, RequestError, RequestId, RuntimeError};
use crate::operand::{MatOperand, TileChoice, VecOperand};
use crate::request::{GemmRequest, MatArg, RoutineRequest, VecArg};
use crate::serve::residency::{ResidencyCache, ResidentHandle};
use crate::serve::sched::SchedulePolicy;
use crate::serve::session::ServeSession;
use crate::serve::telemetry::{TelemetryReport, TickState};
use cocopelia_core::models::Prediction;
use cocopelia_gpusim::{AllocMark, DevBufId, SimError, SimScalar, SimTime};
use cocopelia_obs::drift::ABS_ERROR_BOUNDS;
use cocopelia_obs::{DriftAccountant, DriftRecord, OverlapStats, Registry, ServeTrace};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Bucket bounds of the `serve_queue_depth` histogram.
const QUEUE_DEPTH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Tuning knobs of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Fraction of each device's memory reserved for the cross-request
    /// residency cache.
    pub residency_frac: f64,
    /// Admission ceiling: a request whose worst-case footprint exceeds
    /// this fraction of device memory is rejected at submission.
    pub admission_frac: f64,
    /// Request-level retry budget: how many times one request may be
    /// re-attempted after a transient device failure (on the same device
    /// after reclaim, or re-dispatched to a healthy device after a
    /// quarantine) before it fails. `0` makes every fault terminal for
    /// its request.
    pub max_retries: u32,
    /// Consecutive faults on one device before the session quarantines
    /// it: the device stops receiving work and its residency cache is
    /// invalidated.
    pub quarantine_after: u32,
    /// Host-BLAS throughput (GFLOP/s) assumed for graceful degradation:
    /// when every device in the pool is quarantined, requests complete on
    /// the host at this rate instead of failing.
    pub host_gflops: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            residency_frac: 0.5,
            admission_frac: 0.9,
            max_retries: 3,
            quarantine_after: 2,
            host_gflops: 50.0,
        }
    }
}

/// Hedged re-dispatch configuration (see
/// [`ServeOptions::hedge`](crate::serve::ServeOptions::hedge)).
///
/// When a dispatch attempt's virtual elapsed time exceeds its offload
/// prediction (missing-operand upload plus
/// [`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload))
/// by an adaptive multiplier, the session speculatively re-dispatches
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

/// Drift records required before the adaptive hedge threshold trusts the
/// observed error distribution; below this the base multiplier is doubled
/// (cold start: hedging on a wild early estimate wastes a device).
pub const HEDGE_WARMUP: usize = 8;

/// Upper edge of the calibration dead band (the lower edge is its
/// inverse). Fault-free serving runs read actual/predicted ratios of
/// 0.87–1.06 per attempt, so inside the band the model's price stands
/// exactly and fault-free schedules do not move.
const CALIBRATION_BAND: f64 = 1.5;

/// Weight of the newest attempt in a device's running actual/predicted
/// ratio.
const CALIBRATION_WEIGHT: f64 = 0.5;

/// A device's running actual/predicted ratio over its completed
/// attempts: the online correction of the offline-fitted profile that
/// prices the device. The first attempt after a reset sets the ratio;
/// later ones move it by [`CALIBRATION_WEIGHT`]. A primary cancelled by a
/// winning hedge counts with the time it would have taken.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(super) struct Calibration {
    /// `None` until an attempt was observed since the last reset.
    ratio: Option<f64>,
}

impl Calibration {
    /// Folds one completed attempt that was predicted to take
    /// `predicted_secs` and took `actual_secs`. An attempt without a
    /// positive finite prediction carries no evidence.
    pub(super) fn observe(&mut self, predicted_secs: f64, actual_secs: f64) {
        let ratio = actual_secs / predicted_secs;
        if predicted_secs <= 0.0 || !ratio.is_finite() {
            return;
        }
        self.ratio = Some(
            self.ratio
                .map_or(ratio, |r| r + CALIBRATION_WEIGHT * (ratio - r)),
        );
    }

    /// The factor the device's model price is multiplied by: the running
    /// ratio once it leaves the dead band
    /// `[1 / CALIBRATION_BAND, CALIBRATION_BAND]`, else exactly `1.0`.
    pub(super) fn factor(self) -> f64 {
        match self.ratio {
            Some(r) if !(1.0 / CALIBRATION_BAND..=CALIBRATION_BAND).contains(&r) => r,
            _ => 1.0,
        }
    }
}

/// Quarantine probation configuration (see
/// [`ServeOptions::probation`](crate::serve::ServeOptions::probation)).
///
/// A quarantined device is not necessarily dead — a link
/// [`DegradeWindow`](cocopelia_gpusim::DegradeWindow) ends, a fault storm
/// passes. Probation schedules tiny canary GEMMs after a seeded backoff:
/// enough consecutive successes re-admit the device (with a cold
/// residency cache — quarantine invalidated it), each failure extends the
/// backoff exponentially, and [`max_rounds`](ProbationConfig::max_rounds)
/// failed rounds retire the device for good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbationConfig {
    /// Backoff before the first canary probe of a freshly quarantined
    /// device; doubled per failed probe round.
    pub backoff: SimTime,
    /// Consecutive probe successes that re-admit the device.
    pub successes: u32,
    /// Failed probe rounds before the session stops probing the device
    /// (it stays quarantined for good).
    pub max_rounds: u32,
    /// Seed of the deterministic backoff jitter that de-synchronises
    /// probes of devices quarantined at the same instant.
    pub seed: u64,
}

impl Default for ProbationConfig {
    fn default() -> Self {
        ProbationConfig {
            backoff: SimTime::from_secs_f64(5e-3),
            successes: 2,
            max_rounds: 6,
            seed: 0,
        }
    }
}

/// Retry-budget / circuit-breaker configuration (see
/// [`ServeOptions::retry_budget`](crate::serve::ServeOptions::retry_budget)).
///
/// Replaces unbounded per-request retry appetite with a *session-wide*
/// token bucket: every session-level retry spends a token (refilled at a
/// rate in virtual time), and when the bucket runs dry the circuit
/// breaker opens — further faults fail fast to host fallback instead of
/// burning device time on a sustained fault storm. After the cooldown
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
    /// How long the breaker stays open after the bucket empties; doubles
    /// every time a half-open trial faults again.
    pub cooldown: SimTime,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            tokens: 8.0,
            refill_per_sec: 2.0,
            cooldown: SimTime::from_secs_f64(0.05),
        }
    }
}

/// Probation schedule of one quarantined device.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeviceProbe {
    /// Raw virtual instant (device-clock axis) the next canary runs.
    next_due_ns: u64,
    /// Probe successes since the last failure.
    consecutive_ok: u32,
    /// Failed probe rounds so far (drives the exponential backoff).
    round: u32,
}

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
            cooldown_ns: cfg.cooldown.as_nanos().max(1),
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

/// Result of the retroactive hedge race run after a successful primary
/// attempt (see `ServeSession::maybe_hedge`).
enum HedgeOutcome {
    /// No hedge fired (disarmed, no estimate, no overrun, or no healthy
    /// peer free early enough); the caller records the attempt span.
    NotLaunched,
    /// A hedge ran but lost or faulted; the primary result stands and the
    /// attempt/hedge/cancel spans are already recorded.
    PrimaryStands,
    /// The hedge won: the primary was cancelled; the request completes
    /// with this report, on this device, at this raw virtual instant.
    Won(Box<RoutineReport>, usize, u64),
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
    /// order), then served requests in dispatch order.
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
            match &o.status {
                RequestStatus::Completed(r) => {
                    // Host runs never tiled, so rendering their fabricated
                    // `tile: 0` as a real tiling size would be misleading.
                    let tile = if o.host_fallback {
                        "-".to_owned()
                    } else {
                        r.tile.to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} completed  T={tile:<5} {:>9.3} ms {:>8.1} GF/s{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev,
                        r.elapsed.as_secs_f64() * 1e3,
                        r.gflops(),
                    );
                }
                RequestStatus::Rejected { reason } => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} rejected   {reason}",
                        o.id.to_string(),
                        o.routine,
                        dev
                    );
                }
                RequestStatus::TimedOut {
                    deadline, elapsed, ..
                } => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} timed-out  {:.3} ms > {:.3} ms budget{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev,
                        elapsed * 1e3,
                        deadline * 1e3,
                    );
                }
                RequestStatus::Failed(e) => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} failed     {e}{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev
                    );
                }
            }
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
        let frac = self.cfg.admission_frac;
        let limit = (cap as f64 * frac.clamp(0.0, 1.0)) as usize;
        let footprint = req.footprint_bytes();
        (footprint > limit).then(|| {
            format!(
                "footprint {footprint} B exceeds admission limit {limit} B \
                 ({:.0}% of device memory)",
                frac * 1e2
            )
        })
    }

    /// Estimated h2d time device `d` would spend uploading the shared
    /// operands of `req` it does not hold resident, at the link bandwidth
    /// in effect at the device's current clock — a fault-plan
    /// [`DegradeWindow`](cocopelia_gpusim::DegradeWindow) covering the
    /// instant slows the estimate the same way it slows the copy, so
    /// dispatch stops treating a degraded link as full-rate.
    fn upload_estimate(&self, d: usize, req: &RoutineRequest) -> f64 {
        req.shared_footprints()
            .iter()
            .filter(|(k, _)| !self.residency[d].contains(k))
            .map(|&(_, bytes)| self.effective_h2d_secs(d, bytes))
            .sum()
    }

    /// Estimated h2d transfer time of `bytes` on device `d` at the
    /// *effective* link bandwidth of the device's current clock: the
    /// bandwidth scaled by the degrade factor the engine applies at that
    /// instant ([`Gpu::degrade_factor_now`](cocopelia_gpusim::Gpu::degrade_factor_now)).
    /// Outside every degrade window this is
    /// [`DirLinkSpec::ideal_time`](cocopelia_gpusim::DirLinkSpec::ideal_time)
    /// bit for bit, so fault-free schedules are unchanged.
    fn effective_h2d_secs(&self, d: usize, bytes: usize) -> f64 {
        let gpu = self.pool.devices()[d].gpu();
        let h2d = gpu.spec().link.h2d;
        let factor = gpu.degrade_factor_now().max(1e-9);
        h2d.latency_s + bytes as f64 / (h2d.bandwidth_bps * factor)
    }

    /// Model-predicted offload time of `req` on device `d`, through the
    /// device's deployed profile
    /// ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload)).
    /// `None` when the profile cannot predict this routine/precision — the
    /// placement price then carries no offload term.
    fn offload_estimate(&self, d: usize, req: &RoutineRequest) -> Option<Prediction> {
        let (model, tile) = match req.tile_choice() {
            TileChoice::Fixed(t) => (None, Some(t)),
            TileChoice::Model(m) => (Some(m), None),
            TileChoice::Auto => (None, None),
        };
        self.pool.devices()[d]
            .profile()
            .predict_offload(&req.problem_spec(), model, tile)
    }

    /// Service time of `req` on device `d`, virtual seconds: the upload of
    /// the shared operands the device is missing plus the model-predicted
    /// offload time (zero when the profile cannot predict the request).
    /// Placement scales it by the device's calibration factor and adds the
    /// device's clock ([`completion_secs`](Self::completion_secs)); the
    /// shed watermark uses it bare.
    fn service_secs(&self, d: usize, req: &RoutineRequest) -> f64 {
        self.upload_estimate(d, req) + self.offload_estimate(d, req).map_or(0.0, |p| p.total)
    }

    /// The offload prediction of an attempt of `req` on device `d`, with
    /// the attempt's predicted duration: [`service_secs`](Self::service_secs)
    /// from that one prediction. `None` when the profile cannot predict
    /// the request (nothing to record drift against or to overrun).
    fn attempt_price(&self, d: usize, req: &RoutineRequest) -> Option<(Prediction, f64)> {
        let p = self.offload_estimate(d, req)?;
        let secs = self.upload_estimate(d, req) + p.total;
        Some((p, secs))
    }

    /// Estimated completion of `req` on device `d`: the device's virtual
    /// clock plus [`service_secs`](Self::service_secs) scaled by the
    /// device's calibration factor. A device whose attempts keep running
    /// past the model (a degraded link) thus prices as slow before the
    /// next request lands on it, even while a winning hedge has rewound
    /// its clock to look idle. Inside the dead band the factor is exactly
    /// `1.0`, so the price is the model's bit for bit.
    fn completion_secs(&self, d: usize, req: &RoutineRequest) -> f64 {
        self.pool.devices()[d].gpu().now().as_secs_f64()
            + self.service_secs(d, req) * self.calibration[d].factor()
    }

    /// The healthy device that pulls `req` — lowest
    /// [`completion_secs`](Self::completion_secs), then lowest index —
    /// with that completion. Residency affinity is thus *bounded*: a
    /// device holding the operands is preferred only while its clock lead
    /// over an idle peer stays below the re-upload cost, so high-reuse
    /// traces still spread across the pool. `skip` bars one device (the
    /// hedge-target pick must race a *different* device than the
    /// straggling primary). Quarantined devices never pull work; `None`
    /// means no candidate is healthy.
    fn choose_device(&self, req: &RoutineRequest, skip: Option<usize>) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for d in 0..self.pool.device_count() {
            if Some(d) == skip || self.quarantined[d] {
                continue;
            }
            let cost = self.completion_secs(d, req);
            if cost < best.map_or(f64::INFINITY, |b| b.1) {
                best = Some((d, cost));
            }
        }
        best
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
            let healthy = self.quarantined.iter().filter(|&&q| !q).count().max(1);
            let predicted = self.backlog_secs / healthy as f64 + est;
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

    /// Service-time estimate of a request for the flow-time shed
    /// watermark: the *best* healthy device's
    /// [`service_secs`](Self::service_secs) — residency-aware, so a warm
    /// repeat request prices near its compute time instead of being
    /// charged cold uploads it will never perform (residency-blind
    /// pricing would spuriously shed exactly the cheap, cache-friendly
    /// traffic the residency layer exists to serve). When the whole pool
    /// is quarantined, device 0's price stands in — quarantine cleared
    /// its residency, so the price is cold (the arrival would run on the
    /// host; the figure only feeds the watermark). Residency changes
    /// between admission and dispatch are reconciled through the queue
    /// record: the backlog decrement returns exactly what admission added.
    fn service_estimate(&self, req: &RoutineRequest) -> f64 {
        let best = (0..self.pool.device_count())
            .filter(|&d| !self.quarantined[d])
            .map(|d| self.service_secs(d, req))
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            best
        } else {
            self.service_secs(0, req)
        }
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

    /// Completes `followers` at the completion instant of their leader,
    /// the outcome settled last. Each follower gets a copy of the leader's
    /// report judged against the follower's *own* arrival time and
    /// deadline: a follower that arrived later has a shorter flow and may
    /// meet a deadline the leader missed — and vice versa. A failed
    /// leader fails its followers with the same error.
    fn fan_out(&mut self, followers: Vec<Queued>) {
        if followers.is_empty() {
            return;
        }
        let leader = self.outcomes.last().expect("leader settled").clone();
        let end_ns = match leader.device {
            Some(d) if !leader.host_fallback => self.pool.devices()[d].gpu().now().as_nanos(),
            _ => self.tracer.as_ref().map(|t| t.host_now_ns()).unwrap_or(0),
        };
        for f in followers {
            let (status, flow) = match leader.executed_report() {
                Some(r) => {
                    let flow = self.flow_secs(
                        leader.device,
                        leader.host_fallback,
                        f.arrival_ns,
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

    /// Flow time of a request that executed, virtual seconds: the serving
    /// device's clock advance since the drain began, minus the request's
    /// arrival offset (zero for closed-queue submissions), so queueing
    /// delay counts against the deadline while an open arrival's budget
    /// starts at arrival. Host runs advance no device clock; their own
    /// `elapsed` is the closest flow measure available.
    fn flow_secs(
        &self,
        device: Option<usize>,
        host_fallback: bool,
        arrival_ns: u64,
        elapsed: SimTime,
    ) -> f64 {
        match device {
            Some(d) if !host_fallback => {
                let raw = self.pool.devices()[d]
                    .gpu()
                    .now()
                    .saturating_since(self.drain_start[d]);
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
        self.drain_start = self.pool.devices().iter().map(|d| d.gpu().now()).collect();
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
            let (outcome, flow) = self.dispatch(job, preferred);
            self.settle(outcome, flow);
            self.fan_out(followers);
            self.retire_traces();
        }
        let per_device_busy: Vec<SimTime> = self
            .pool
            .devices()
            .iter()
            .zip(&self.drain_start)
            .map(|(d, &s)| d.gpu().now().saturating_since(s))
            .collect();
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
        self.drift_errs.clear();
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

    /// Runs one admitted request through to a terminal status: dispatch to
    /// `preferred` (the scheduling policy's device pick) or the best
    /// healthy device, retry with device reclaim on retryable faults
    /// ([`RuntimeError::fault_class`]), quarantine devices that fault
    /// repeatedly or are lost (re-dispatching the request to a healthy
    /// peer), and degrade gracefully to host BLAS when no healthy device
    /// remains. Deadlines are judged on *flow time* — the serving device's
    /// clock at completion measured from its clock at drain start — so
    /// time spent queued behind other requests counts against the budget.
    /// For an open arrival, the record's arrival offset floors the serving
    /// device's clock — work cannot begin before the request exists — and
    /// is subtracted from the flow so the deadline budget starts at
    /// arrival, not at drain start. Returns the outcome with its flow
    /// seconds (NaN when the request failed).
    fn dispatch(&mut self, job: Queued, mut preferred: Option<usize>) -> (RequestOutcome, f64) {
        let Queued {
            id,
            req,
            arrival_ns,
            ..
        } = job;
        let routine = req.routine();
        let deadline = req.deadline();
        let budget = self.cfg.max_retries;
        let mut retries: u32 = 0;
        let mut host_fallback = false;
        let mut device: Option<usize> = None;
        // End of the previous attempt, in virtual ns: a re-issued attempt
        // must never start earlier (span invariant 3), and the queue span
        // is recorded once, at the first attempt's start.
        let mut not_before_ns: u64 = 0;
        let mut queued_recorded = false;
        // Armed when the retry budget's circuit breaker denies a retry:
        // the request skips further device picks and fails fast to host.
        let mut budget_fastfail = false;
        let result = loop {
            // The policy's pick applies to the first attempt only; a retry
            // after a fault re-chooses among the devices still healthy.
            let pick = if budget_fastfail {
                None
            } else {
                preferred
                    .take()
                    .filter(|&p| !self.quarantined[p])
                    .or_else(|| self.choose_device(&req, None).map(|(d, _)| d))
            };
            let Some(d) = pick else {
                // Probation may heal the pool before we give up on
                // devices entirely: jump virtual time to the probe
                // schedule and re-pick if a canary re-admits a device.
                if !budget_fastfail && self.try_heal_pool() {
                    continue;
                }
                // Graceful degradation: the whole pool is quarantined, so
                // the request completes on the host instead of failing.
                host_fallback = true;
                device = None;
                self.metrics.counter_add("fault_host_fallback_total", 1);
                let report = self.execute_host(&req);
                if let Some(t) = self.tracer.as_mut() {
                    // A request that never reached a device links its
                    // queue flow to the host run.
                    if !queued_recorded {
                        t.queue_wait(id.0, arrival_ns, not_before_ns);
                    }
                    let elapsed_ns = report.elapsed.as_nanos();
                    t.host_fallback(id.0, not_before_ns, elapsed_ns, !queued_recorded);
                }
                break Ok(report);
            };
            if device.is_some_and(|prev| self.quarantined[prev]) {
                // The previous attempt's device was quarantined under the
                // request; it is now re-dispatched to a healthy peer.
                self.metrics.counter_add("quarantine_redispatch_total", 1);
            }
            device = Some(d);
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
            let floor_ns = self.drain_start[d].as_nanos() + arrival_ns;
            let behind = not_before_ns
                .max(floor_ns)
                .saturating_sub(self.pool.devices()[d].gpu().now().as_nanos());
            if behind > 0 {
                self.pool
                    .device_mut(d)
                    .gpu_mut()
                    .advance_clock(SimTime::from_nanos(behind));
            }
            // Whatever this attempt allocates counts as allocated since the
            // mark: leak checks and a cancelled hedge free back to it.
            let mark = self.pool.devices()[d].gpu().alloc_mark();
            // Predicted duration of this attempt: the placement price
            // without the clock. Recorded against the actual clock advance
            // under every policy, so FIFO/EDF runs expose the same
            // misprediction accounting the predictive policy schedules by.
            let estimate = self.attempt_price(d, &req);
            let clock_before = self.pool.devices()[d].gpu().now();
            let len_before = self.pool.devices()[d].gpu().trace().len();
            if !queued_recorded {
                queued_recorded = true;
                if let Some(t) = self.tracer.as_mut() {
                    t.queue_wait(id.0, arrival_ns, clock_before.as_nanos());
                }
            }
            let attempt_no = retries;
            let attempt = self.execute_once(d, req.clone());
            let clock_after = self.pool.devices()[d].gpu().now();
            // Straggler defense: a successful attempt that overran its
            // prediction far enough races a speculative hedge on the best
            // other healthy device. The race resolves retroactively in
            // virtual time, so replay is bit-identical; a launched hedge
            // records the attempt span itself, next to its own.
            let hedged = match &attempt {
                Ok(_) => {
                    self.fault_streak[d] = 0;
                    self.budget_note_success();
                    let hedged = self.maybe_hedge(
                        id,
                        &req,
                        d,
                        attempt_no,
                        clock_before,
                        clock_after,
                        len_before,
                        mark,
                        estimate.as_ref().map(|e| e.1),
                    );
                    // The primary's whole run calibrates its device, also
                    // when a winning hedge cancelled it: that overrun is
                    // the evidence the device is slow.
                    if let Some((_, predicted)) = estimate {
                        let actual = clock_after.saturating_since(clock_before).as_secs_f64();
                        self.calibration[d].observe(predicted, actual);
                    }
                    hedged
                }
                Err(_) => HedgeOutcome::NotLaunched,
            };
            if matches!(hedged, HedgeOutcome::NotLaunched) {
                if let Some(t) = self.tracer.as_mut() {
                    let fault = attempt.as_ref().err().map(ToString::to_string);
                    t.attempt(
                        id.0,
                        d,
                        attempt_no,
                        clock_before.as_nanos(),
                        clock_after.as_nanos(),
                        self.pool.devices()[d]
                            .gpu()
                            .trace()
                            .entries_since(len_before),
                        fault.as_deref(),
                    );
                }
            }
            not_before_ns = clock_after.as_nanos();
            match (attempt, hedged) {
                (_, HedgeOutcome::Won(hreport, hdev, hend_ns)) => {
                    device = Some(hdev);
                    not_before_ns = hend_ns;
                    break Ok(*hreport);
                }
                (Ok(report), _) => {
                    if let Some((pred, predicted)) = estimate {
                        let actual = self.pool.devices()[d]
                            .gpu()
                            .now()
                            .saturating_since(clock_before)
                            .as_secs_f64();
                        self.record_drift(routine, id.0, &pred, predicted, actual);
                    }
                    break Ok(report);
                }
                (Err(e), _) => {
                    // A lost device is quarantined but the request is
                    // innocent: it re-dispatches like a retryable fault.
                    let retryable = self.on_attempt_fault(
                        id.0,
                        d,
                        &e,
                        clock_after.as_nanos(),
                        retries < budget,
                        mark,
                    );
                    if !retryable || retries >= budget {
                        break Err(e);
                    }
                    if !self.budget_allow_retry(clock_after.as_nanos()) {
                        // The session retry budget ran dry (or its
                        // breaker is open): fail fast to host fallback
                        // instead of burning more device time on a
                        // sustained fault storm.
                        budget_fastfail = true;
                        continue;
                    }
                    retries += 1;
                    self.metrics.counter_add("serve_retries_total", 1);
                }
            }
        };
        let (status, flow) = match result {
            Ok(report) => {
                self.metrics
                    .counter_add("retry_tile_ops_total", report.op_retries);
                let flow = self.flow_secs(device, host_fallback, arrival_ns, report.elapsed);
                (judge(report, flow, deadline), flow)
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
        (outcome, flow)
    }

    /// Max device-clock advance since the drain began — the virtual
    /// "elapsed" that drives telemetry windows.
    fn elapsed(&self) -> SimTime {
        self.pool
            .devices()
            .iter()
            .zip(&self.drain_start)
            .map(|(d, &s)| d.gpu().now().saturating_since(s))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The loop state a telemetry step reads at virtual `elapsed`.
    fn tick_state(&self, elapsed: SimTime) -> TickState<'_> {
        TickState {
            elapsed_ns: elapsed.as_nanos(),
            queue_depth: self.queue.len(),
            quarantined: &self.quarantined,
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

    /// Retires each device's engine trace up to the tracer's floor
    /// ([`ServeTracer::retire_floor`](crate::serve::trace::ServeTracer::retire_floor);
    /// everything when untraced), so a device holds only the entries some
    /// reader still needs while [`Trace::len`](cocopelia_gpusim::Trace::len)
    /// and the per-engine totals keep counting all of them. Each device's
    /// observer drops its per-call history the same way
    /// ([`Observer::retire_history`](cocopelia_obs::Observer::retire_history)):
    /// serving reads outcomes and the session's own drift, never a pool
    /// device's call log, and its counters keep counting.
    fn retire_traces(&mut self) {
        for d in 0..self.pool.device_count() {
            let len = self.pool.devices()[d].gpu().trace().len();
            let floor = self.tracer.as_ref().map_or(len, |t| t.retire_floor(d, len));
            let dev = self.pool.device_mut(d);
            dev.gpu_mut().retire_trace(floor);
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
    /// device aborts in-flight work first). Idempotent.
    pub(super) fn quarantine(&mut self, d: usize) {
        if self.quarantined[d] {
            return;
        }
        self.quarantined[d] = true;
        self.calibration[d] = Calibration::default();
        self.metrics.counter_add("quarantine_devices_total", 1);
        let evicted = self.residency[d].clear();
        self.metrics
            .counter_add("quarantine_invalidated_total", evicted.len() as u64);
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        for e in evicted {
            free_resident(dev, e.handle);
        }
        for b in dev.gpu().live_device_buffers() {
            let _ = dev.gpu_mut().free_device(b);
        }
        for h in dev.gpu().live_host_buffers() {
            let _ = dev.gpu_mut().take_host(h);
        }
        self.schedule_probe(d);
    }

    /// The adaptive hedge threshold multiplier: the configured base
    /// widened by the 95th percentile of the drift accountant's observed
    /// absolute relative error, so a model that routinely misses by 40%
    /// does not trigger hedges on ordinary 40% overruns. With fewer than
    /// [`HEDGE_WARMUP`] drift records the base is doubled instead (cold
    /// start: trust nothing, hedge only on gross overruns).
    fn hedge_multiplier(&self, cfg: HedgeConfig) -> f64 {
        let errs = &self.drift_errs;
        if errs.len() < HEDGE_WARMUP {
            return cfg.multiplier * 2.0;
        }
        cfg.multiplier * (1.0 + p95(errs))
    }

    /// The retroactive hedge race after a successful primary attempt on
    /// device `d`. When the attempt's elapsed exceeded the adaptive
    /// overrun threshold, the same request is speculatively re-executed
    /// on the best other healthy device, starting at the virtual instant
    /// the overrun was detected (or the peer's own clock if later).
    /// Whichever attempt finishes first in virtual time wins; the loser
    /// is cancelled ([`cocopelia_gpusim::Gpu::cancel_to`]) and rolled
    /// back, so device time, flops, and residency effects are charged
    /// exactly once. A hedge that *faults* gets the ordinary fault
    /// bookkeeping on its device (streak, quarantine, leak release) while
    /// the primary's result stands.
    #[allow(clippy::too_many_arguments)]
    fn maybe_hedge(
        &mut self,
        id: RequestId,
        req: &RoutineRequest,
        d: usize,
        attempt_no: u32,
        clock_before: SimTime,
        clock_after: SimTime,
        len_before: usize,
        mark: AllocMark,
        predicted: Option<f64>,
    ) -> HedgeOutcome {
        let Some(cfg) = self.hedge else {
            return HedgeOutcome::NotLaunched;
        };
        let Some(predicted) = predicted else {
            // No offload estimate (e.g. an undeployed profile): there is
            // no prediction to overrun, so hedging never fires.
            return HedgeOutcome::NotLaunched;
        };
        // The overrun is judged against the calibrated prediction, so a
        // straggler already priced as slow does not hedge its on-model
        // attempts.
        let calibrated = predicted * self.calibration[d].factor();
        let threshold_ns = (calibrated * self.hedge_multiplier(cfg) * 1e9) as u64;
        let elapsed_ns = clock_after
            .as_nanos()
            .saturating_sub(clock_before.as_nanos());
        if threshold_ns == 0 || elapsed_ns <= threshold_ns {
            return HedgeOutcome::NotLaunched;
        }
        let Some((b, _)) = self.choose_device(req, Some(d)) else {
            return HedgeOutcome::NotLaunched;
        };
        // The hedge starts when the overrun was detected — the primary's
        // clock crossing the threshold — or at the hedge device's own
        // clock if that is later (it may be busy with earlier work).
        let trigger_ns = clock_before.as_nanos() + threshold_ns;
        let b_now_ns = self.pool.devices()[b].gpu().now().as_nanos();
        let b_start_ns = b_now_ns.max(trigger_ns);
        if b_start_ns >= clock_after.as_nanos() {
            // The hedge could not have started before the primary
            // finished; there is nothing to race.
            return HedgeOutcome::NotLaunched;
        }
        // Mark the hedge device's allocations so a losing hedge rolls back
        // precisely: newly-cached operands evicted and freed, leaked
        // buffers released, everything predating the hedge untouched.
        let mark_b = self.pool.devices()[b].gpu().alloc_mark();
        let behind = b_start_ns.saturating_sub(b_now_ns);
        if behind > 0 {
            self.pool
                .device_mut(b)
                .gpu_mut()
                .advance_clock(SimTime::from_nanos(behind));
        }
        let len_b_before = self.pool.devices()[b].gpu().trace().len();
        let estimate_b = self.attempt_price(b, req);
        self.metrics.counter_add("hedge_attempts_total", 1);
        let hedged = self.execute_once(b, req.clone());
        let b_after_ns = self.pool.devices()[b].gpu().now().as_nanos();
        let after_ns = clock_after.as_nanos();
        let won = hedged.is_ok() && b_after_ns < after_ns;
        // Settle the race before tracing it: the losing side is cancelled
        // and its work rolled back, so both attempts' spans read the
        // timelines as they stand.
        let verdict = match &hedged {
            Ok(_) if won => {
                // The hedge won: cancel the primary at the instant the
                // hedge completed and roll its work back.
                self.pool
                    .device_mut(d)
                    .gpu_mut()
                    .cancel_to(SimTime::from_nanos(b_after_ns));
                self.rollback_cancelled(d, req, mark);
                self.fault_streak[b] = 0;
                self.metrics.counter_add("hedge_wins_total", 1);
                " (won)".to_owned()
            }
            Ok(_) => {
                // The hedge lost: cancel it at the instant the primary
                // finished. Its partial work is erased and rolled back;
                // the time it burned until the cancellation stays charged
                // to the hedge device.
                self.pool.device_mut(b).gpu_mut().cancel_to(clock_after);
                self.rollback_cancelled(b, req, mark_b);
                self.metrics.counter_add("hedge_losses_total", 1);
                " (lost)".to_owned()
            }
            Err(e) => {
                self.metrics.counter_add("hedge_fail_total", 1);
                format!(": {e}")
            }
        };
        // The race ends where the surviving side completed; a faulted
        // hedge ends where it faulted.
        let end_ns = if won { b_after_ns } else { after_ns };
        let hedge_end_ns = if hedged.is_ok() { end_ns } else { b_after_ns };
        if let Some(t) = self.tracer.as_mut() {
            let trace = |dev: usize| self.pool.devices()[dev].gpu().trace();
            t.attempt(
                id.0,
                d,
                attempt_no,
                clock_before.as_nanos(),
                end_ns,
                trace(d).entries_since(len_before),
                won.then_some("cancelled: hedge won"),
            );
            if won {
                t.cancel(id.0, d, end_ns, &format!("cancelled by hedge on dev{b}"));
            }
            t.hedge(
                id.0,
                b,
                b_start_ns,
                hedge_end_ns,
                trace(b).entries_since(len_b_before),
                &format!("hedge on dev{b}{verdict}"),
            );
            if hedged.is_ok() && !won {
                t.cancel(id.0, b, end_ns, "hedge lost");
            }
        }
        match hedged {
            Ok(hreport) if won => {
                // The surviving attempt carries the drift record: the
                // hedge device's own prediction against what its run
                // actually took (the cancelled primary's timing was
                // erased, so recording it would poison the model).
                if let Some((hpred, hpredicted)) = estimate_b {
                    let actual =
                        SimTime::from_nanos(b_after_ns.saturating_sub(b_start_ns)).as_secs_f64();
                    self.record_drift(req.routine(), id.0, &hpred, hpredicted, actual);
                    self.calibration[b].observe(hpredicted, actual);
                }
                HedgeOutcome::Won(Box::new(hreport), b, b_after_ns)
            }
            Ok(_) => HedgeOutcome::PrimaryStands,
            Err(e) => {
                // The hedge faulted: the primary's result stands; the
                // hedge device gets ordinary fault bookkeeping — under a
                // compound failure (device lost mid-hedge) it is
                // quarantined and scrubbed, so nothing leaks.
                self.on_attempt_fault(id.0, b, &e, b_after_ns, false, mark_b);
                HedgeOutcome::PrimaryStands
            }
        }
    }

    /// Rolls back the cancelled side of a hedge race on device `dev`:
    /// shared operands the attempt *newly* inserted into the residency
    /// cache (their buffers were allocated at or after `mark`) are
    /// removed and freed, then every remaining buffer the attempt
    /// allocated is released. Entries resident before the attempt — and
    /// the cache hits they served — survive untouched.
    fn rollback_cancelled(&mut self, dev: usize, req: &RoutineRequest, mark: AllocMark) {
        let mut rolled_back_bytes = 0u64;
        for key in req.shared_keys() {
            let gpu = self.pool.devices()[dev].gpu();
            let fresh = self.residency[dev]
                .buffer_of(key)
                .is_some_and(|b| gpu.allocated_since(mark, b));
            if fresh {
                if let Some(e) = self.residency[dev].remove(key) {
                    rolled_back_bytes += e.bytes as u64;
                    free_resident(self.pool.device_mut(dev), e.handle);
                }
            }
        }
        // `residency_bytes_uploaded` already counted the cancelled
        // attempt's uploads; this correction term keeps "bytes usefully
        // uploaded" computable without a decrementable counter.
        if rolled_back_bytes > 0 {
            self.metrics
                .counter_add("hedge_cancelled_bytes", rolled_back_bytes);
        }
        self.release_leaked(dev, mark);
    }

    /// Fault bookkeeping for a failed attempt (primary or hedge) on device
    /// `d`: counts the fault class, then quarantines the device when it
    /// was lost or its consecutive-fault streak reached
    /// [`quarantine_after`](ExecutorConfig::quarantine_after). Otherwise
    /// the attempt's leftovers are freed — with a full reclaim when
    /// `retrying` (only a retry justifies the scorched-earth reclaim that
    /// evicts the whole residency cache to make room), else only what the
    /// attempt leaked, keeping warm operands for later requests. Returns
    /// whether the request may be re-attempted: a lost device's request
    /// is innocent, but programming errors never improve on retry.
    fn on_attempt_fault(
        &mut self,
        id: u64,
        d: usize,
        e: &RuntimeError,
        at_ns: u64,
        retrying: bool,
        mark: AllocMark,
    ) -> bool {
        let class = e.fault_class();
        self.metrics.counter_add(
            match class {
                FaultClass::Transient => "fault_transient_total",
                FaultClass::Degraded => "fault_degraded_total",
                FaultClass::Fatal => "fault_fatal_total",
            },
            1,
        );
        let lost = matches!(e, RuntimeError::Sim(SimError::DeviceLost));
        if class.retryable() && !lost {
            self.fault_streak[d] += 1;
        }
        if lost || (class.retryable() && self.fault_streak[d] >= self.cfg.quarantine_after) {
            self.quarantine(d);
            if let Some(t) = self.tracer.as_mut() {
                t.quarantine(id, d, at_ns);
            }
        } else if class.retryable() && retrying {
            self.reclaim(d, mark);
        } else {
            self.release_leaked(d, mark);
        }
        lost || class.retryable()
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
        if self.hedge.is_some() {
            insert_sorted(&mut self.drift_errs, err);
        }
        self.metrics
            .histogram_observe("sched_predict_abs_err", &ABS_ERROR_BOUNDS, err);
        self.metrics
            .histogram_observe(self.policy.drift_metric(), &ABS_ERROR_BOUNDS, err);
        self.drift.record(rec);
    }

    /// Schedules the first canary probe of a freshly quarantined device,
    /// one backoff (plus deterministic jitter) past its current clock.
    /// No-op unless probation is armed.
    fn schedule_probe(&mut self, d: usize) {
        let Some(cfg) = self.probation else {
            return;
        };
        if self.probes[d].is_some() {
            return;
        }
        let now_ns = self.pool.devices()[d].gpu().now().as_nanos();
        let jitter =
            splitmix64(cfg.seed ^ ((d as u64) << 32)) % (cfg.backoff.as_nanos() / 4).max(1);
        self.probes[d] = Some(DeviceProbe {
            next_due_ns: now_ns + cfg.backoff.as_nanos().max(1) + jitter,
            consecutive_ok: 0,
            round: 0,
        });
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
            if self.probes[d].is_some_and(|p| p.next_due_ns <= pool_now) {
                self.run_probe(d);
            }
        }
    }

    /// Jumps virtual time to the probation schedule when no healthy
    /// device remains: runs probes in due order until one re-admits a
    /// device (`true`) or every probationary device gives up (`false`).
    /// Bounded: each failed round extends the backoff and
    /// [`ProbationConfig::max_rounds`] retires the probe entirely.
    fn try_heal_pool(&mut self) -> bool {
        if self.probation.is_none() {
            return false;
        }
        loop {
            let next = (0..self.pool.device_count())
                .filter_map(|i| self.probes[i].map(|p| (p.next_due_ns, i)))
                .min();
            let Some((_, d)) = next else {
                return false;
            };
            self.run_probe(d);
            if !self.quarantined[d] {
                return true;
            }
        }
    }

    /// One canary probe of quarantined device `d`: a tiny ghost GEMM from
    /// the exec tables, run at the scheduled instant (the device clock is
    /// lifted to it). Enough consecutive successes re-admit the device
    /// with a cold residency cache; a failure resets the streak and
    /// extends the backoff exponentially (with deterministic jitter)
    /// until [`ProbationConfig::max_rounds`] gives the device up.
    fn run_probe(&mut self, d: usize) {
        let Some(cfg) = self.probation else {
            return;
        };
        let Some(mut p) = self.probes[d].take() else {
            return;
        };
        if !self.quarantined[d] {
            return;
        }
        let now_ns = self.pool.devices()[d].gpu().now().as_nanos();
        let behind = p.next_due_ns.saturating_sub(now_ns);
        if behind > 0 {
            self.pool
                .device_mut(d)
                .gpu_mut()
                .advance_clock(SimTime::from_nanos(behind));
        }
        let mark = self.pool.devices()[d].gpu().alloc_mark();
        let before_ns = self.pool.devices()[d].gpu().now().as_nanos();
        self.metrics.counter_add("probe_attempts_total", 1);
        let goal = cfg.successes.max(1);
        match self.execute_once(d, canary_request()) {
            Ok(_) => {
                let after_ns = self.pool.devices()[d].gpu().now().as_nanos();
                self.metrics.counter_add("probe_success_total", 1);
                p.consecutive_ok += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.probe(
                        d,
                        before_ns,
                        after_ns,
                        &format!("probe ok ({}/{goal})", p.consecutive_ok),
                    );
                }
                if p.consecutive_ok >= goal {
                    self.readmit(d);
                } else {
                    // The device looks healthy — confirm soon, after a
                    // plain (un-doubled) backoff.
                    p.next_due_ns = after_ns + cfg.backoff.as_nanos().max(1);
                    self.probes[d] = Some(p);
                }
            }
            Err(e) => {
                let after_ns = self.pool.devices()[d].gpu().now().as_nanos();
                self.metrics.counter_add("probe_fail_total", 1);
                if let Some(t) = self.tracer.as_mut() {
                    t.probe(d, before_ns, after_ns, &format!("probe fault: {e}"));
                }
                self.release_leaked(d, mark);
                p.consecutive_ok = 0;
                p.round += 1;
                if p.round >= cfg.max_rounds.max(1) {
                    self.metrics.counter_add("probe_giveup_total", 1);
                } else {
                    let backoff = cfg.backoff.as_nanos().max(1) << p.round.min(20);
                    let jitter = splitmix64(cfg.seed ^ ((d as u64) << 32) ^ u64::from(p.round))
                        % (cfg.backoff.as_nanos() / 4).max(1);
                    p.next_due_ns = after_ns + backoff + jitter;
                    self.probes[d] = Some(p);
                }
            }
        }
    }

    /// Re-admits a healed device: it pulls work again, with a cold
    /// residency cache (quarantine cleared it) and a clean fault streak.
    /// An open retry-budget breaker moves to half-open — the canary that
    /// healed the pool is evidence the fault storm passed.
    fn readmit(&mut self, d: usize) {
        self.quarantined[d] = false;
        self.fault_streak[d] = 0;
        self.calibration[d] = Calibration::default();
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
    /// and resets the cooldown to its configured base.
    fn budget_note_success(&mut self) {
        if let Some(bs) = self.budget.as_mut() {
            if bs.breaker == Breaker::HalfOpen {
                bs.breaker = Breaker::Closed;
                bs.tokens = bs.cfg.tokens.max(0.0);
                bs.cooldown_ns = bs.cfg.cooldown.as_nanos().max(1);
                self.metrics.counter_add("budget_close_total", 1);
            }
        }
    }

    /// Completes a request on the host at the configured
    /// [`host_gflops`](ExecutorConfig::host_gflops) rate — the graceful
    /// degradation path when every device is quarantined. Host time is
    /// reported in the request's outcome but advances no device clock, so
    /// it does not count toward the pool makespan.
    fn execute_host(&mut self, req: &RoutineRequest) -> RoutineReport {
        let flops = host_flops(req);
        let elapsed = SimTime::from_secs_f64(flops / (self.cfg.host_gflops.max(1e-9) * 1e9));
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
    /// cache, run the routine, release bypass uploads.
    fn execute_once(
        &mut self,
        d: usize,
        req: RoutineRequest,
    ) -> Result<RoutineReport, RuntimeError> {
        let mut bypass = Vec::new();
        // Pin every shared key of this request for the whole resolution:
        // resolving a later operand must never evict (and free) an earlier
        // operand of the same request out from under its resolved handle.
        let pinned: Vec<String> = req.shared_keys().iter().map(|k| (*k).to_owned()).collect();
        let resolved = {
            let ServeSession {
                pool,
                residency,
                metrics,
                ..
            } = &mut *self;
            let dev = pool.device_mut(d);
            let cache = &mut residency[d];
            resolve_request(dev, cache, metrics, &mut bypass, &pinned, req)?
        };
        let dev = self.pool.device_mut(d);
        let report = dev.submit(resolved)?;
        for h in bypass {
            free_resident(dev, h);
        }
        Ok(report)
    }

    /// Returns device `d` to a clean state after a failed attempt: waits
    /// for in-flight work, evicts its residency cache, and frees any
    /// buffer the failed attempt leaked (allocations alive now that were
    /// made at or after `mark`).
    fn reclaim(&mut self, d: usize, mark: AllocMark) {
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        let evicted = self.residency[d].clear();
        self.metrics
            .counter_add("residency_evictions_total", evicted.len() as u64);
        for e in evicted {
            free_resident(dev, e.handle);
        }
        for b in dev.gpu().live_device_buffers_since(mark) {
            let _ = dev.gpu_mut().free_device(b);
        }
        for h in dev.gpu().live_host_buffers_since(mark) {
            let _ = dev.gpu_mut().take_host(h);
        }
    }

    /// Frees buffers a failed attempt leaked on device `d` without
    /// touching the residency cache: allocations alive now that were made
    /// at or after `mark` and not adopted by the cache (operands the
    /// attempt successfully resolved stay warm for later requests).
    fn release_leaked(&mut self, d: usize, mark: AllocMark) {
        let gpu = self.pool.devices()[d].gpu();
        let cached: BTreeSet<DevBufId> = self.residency[d]
            .device_buffers()
            .into_iter()
            .filter(|&b| gpu.allocated_since(mark, b))
            .collect();
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        for b in dev.gpu().live_device_buffers_since(mark) {
            if !cached.contains(&b) {
                let _ = dev.gpu_mut().free_device(b);
            }
        }
        for h in dev.gpu().live_host_buffers_since(mark) {
            let _ = dev.gpu_mut().take_host(h);
        }
    }
}

/// Useful floating-point operations of a request, for host-fallback time
/// accounting (mirrors `ProblemSpec::flops` without needing a profile).
fn host_flops(req: &RoutineRequest) -> f64 {
    match req {
        RoutineRequest::GemmF64(r) => {
            2.0 * r.a.rows() as f64 * r.b.cols() as f64 * r.a.cols() as f64
        }
        RoutineRequest::GemmF32(r) => {
            2.0 * r.a.rows() as f64 * r.b.cols() as f64 * r.a.cols() as f64
        }
        RoutineRequest::AxpyF64(r) => 2.0 * r.x.len() as f64,
        RoutineRequest::DotF64(r) => 2.0 * r.x.len() as f64,
        RoutineRequest::GemvF64(r) => 2.0 * r.a.rows() as f64 * r.a.cols() as f64,
    }
}

/// Frees a cached or bypass device allocation, ignoring stale handles
/// (reclaim may already have freed them).
fn free_resident(dev: &mut Cocopelia, h: ResidentHandle) {
    let _ = match h {
        ResidentHandle::Mat(m) => dev.free_matrix(m),
        ResidentHandle::Vec(v) => dev.free_vector(v),
    };
}

/// Resolves one matrix argument: shared keys become device-resident
/// operands via the residency cache (hit) or a ghost upload (miss).
/// `pinned` names the whole request's shared keys, which eviction must
/// not touch; an operand that cannot fit alongside them bypasses the
/// cache instead.
fn resolve_mat<T: SimScalar>(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    arg: MatArg<T>,
) -> Result<MatArg<T>, RuntimeError> {
    let MatArg::Shared(s) = arg else {
        return Ok(arg);
    };
    if let Some(m) = cache.lookup_mat(&s.key, T::DTYPE, s.rows, s.cols)? {
        metrics.counter_add("residency_hits_total", 1);
        return Ok(MatArg::Inline(MatOperand::Device(m)));
    }
    metrics.counter_add("residency_misses_total", 1);
    let bytes = s.rows * s.cols * T::DTYPE.width();
    let cacheable = cache.fits_pinned(bytes, pinned);
    if cacheable {
        for e in cache.evict_for(bytes, pinned) {
            metrics.counter_add("residency_evictions_total", 1);
            free_resident(dev, e.handle);
        }
    } else {
        metrics.counter_add("residency_bypass_total", 1);
    }
    let m = dev.upload_ghost_matrix(T::DTYPE, s.rows, s.cols)?;
    metrics.counter_add("residency_bytes_uploaded", bytes as u64);
    if cacheable {
        cache.insert_mat(&s.key, T::DTYPE, m, bytes);
    } else {
        bypass.push(ResidentHandle::Mat(m));
    }
    Ok(MatArg::Inline(MatOperand::Device(m)))
}

/// Resolves one vector argument; see [`resolve_mat`].
fn resolve_vec<T: SimScalar>(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    arg: VecArg<T>,
) -> Result<VecArg<T>, RuntimeError> {
    let VecArg::Shared(s) = arg else {
        return Ok(arg);
    };
    if let Some(v) = cache.lookup_vec(&s.key, T::DTYPE, s.len)? {
        metrics.counter_add("residency_hits_total", 1);
        return Ok(VecArg::Inline(VecOperand::Device(v)));
    }
    metrics.counter_add("residency_misses_total", 1);
    let bytes = s.len * T::DTYPE.width();
    let cacheable = cache.fits_pinned(bytes, pinned);
    if cacheable {
        for e in cache.evict_for(bytes, pinned) {
            metrics.counter_add("residency_evictions_total", 1);
            free_resident(dev, e.handle);
        }
    } else {
        metrics.counter_add("residency_bypass_total", 1);
    }
    let v = dev.upload_ghost_vector(T::DTYPE, s.len)?;
    metrics.counter_add("residency_bytes_uploaded", bytes as u64);
    if cacheable {
        cache.insert_vec(&s.key, T::DTYPE, v, bytes);
    } else {
        bypass.push(ResidentHandle::Vec(v));
    }
    Ok(VecArg::Inline(VecOperand::Device(v)))
}

/// Resolves every shared operand of a request against one device, with
/// the request's own keys pinned against eviction.
fn resolve_request(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    req: RoutineRequest,
) -> Result<RoutineRequest, RuntimeError> {
    Ok(match req {
        RoutineRequest::GemmF64(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.b = resolve_mat(dev, cache, metrics, bypass, pinned, r.b)?;
            r.c = resolve_mat(dev, cache, metrics, bypass, pinned, r.c)?;
            RoutineRequest::GemmF64(r)
        }
        RoutineRequest::GemmF32(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.b = resolve_mat(dev, cache, metrics, bypass, pinned, r.b)?;
            r.c = resolve_mat(dev, cache, metrics, bypass, pinned, r.c)?;
            RoutineRequest::GemmF32(r)
        }
        RoutineRequest::AxpyF64(mut r) => {
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::AxpyF64(r)
        }
        RoutineRequest::DotF64(mut r) => {
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::DotF64(r)
        }
        RoutineRequest::GemvF64(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::GemvF64(r)
        }
    })
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
        s.service_secs(d, req) * s.calibration[d].factor()
    }

    #[test]
    fn ratios_inside_the_dead_band_leave_the_price_bit_equal() {
        let (mut s, req) = priced_session();
        let service = s.service_secs(0, &req);
        assert!(service > 0.0, "the profile prices the request");
        for ratio in [0.87, 1.0, 1.06, 0.7, 1.45, 1.0] {
            s.calibration[0].observe(service, service * ratio);
            assert_eq!(s.calibration[0].factor(), 1.0, "ratio {ratio}");
            assert_eq!(price(&s, 0, &req).to_bits(), service.to_bits());
        }
        // No prediction, no evidence.
        s.calibration[1].observe(0.0, 1.0);
        assert_eq!(s.calibration[1], Calibration::default());
    }

    #[test]
    fn one_tenfold_overrun_lifts_the_factor() {
        let (mut s, req) = priced_session();
        let service = s.service_secs(0, &req);
        s.calibration[0].observe(service, 10.0 * service);
        assert!((s.calibration[0].factor() - 10.0).abs() < 1e-9);
        assert!(price(&s, 0, &req) > 9.0 * service);
        assert_eq!(price(&s, 1, &req).to_bits(), service.to_bits());
        // Placement now prefers the peer although both clocks read zero.
        assert_eq!(s.choose_device(&req, None).map(|c| c.0), Some(1));
        // Later on-model attempts pull the running ratio back into the band.
        for _ in 0..6 {
            s.calibration[0].observe(service, service);
        }
        assert_eq!(s.calibration[0].factor(), 1.0);
    }

    #[test]
    fn quarantine_and_readmission_reset_the_factor() {
        let (mut s, req) = priced_session();
        let service = s.service_secs(0, &req);
        s.calibration[0].observe(service, 10.0 * service);
        s.quarantine(0);
        assert_eq!(s.calibration[0].factor(), 1.0);
        s.calibration[0].observe(service, 10.0 * service);
        s.readmit(0);
        assert_eq!(s.calibration[0], Calibration::default());
        assert_eq!(s.calibration[0].factor(), 1.0);
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
