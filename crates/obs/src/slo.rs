//! Declarative service-level objectives evaluated per telemetry window.
//!
//! An [`SloSpec`] names an objective over the well-known per-window
//! metrics in [`names`] (deadline-miss rate, flow-time percentiles,
//! fault-rate ceiling, quarantined-device ceiling). The [`SloEngine`]
//! evaluates every spec against [`WindowSnapshot`]s and is
//! *edge-triggered*: only an ok→breached transition emits an
//! [`SloBreach`] event (the thing that arms a flight-recorder dump), and
//! a breached spec recovers only when a *closed* window meets the
//! objective again. Intra-window fast-path evaluation via
//! [`SloEngine::evaluate_partial`] lets a hard breach (e.g. a deadline
//! miss against a zero-miss objective) fire while the offending
//! request's spans are still in the recorder ring — without
//! double-firing when the same window later closes.

use crate::window::WindowSnapshot;
use std::fmt;

/// Well-known per-window metric names shared between the telemetry
/// producer (the serve executor) and the SLO engine.
pub mod names {
    /// Counter: requests that reached a terminal state in the window.
    pub const FINISHED: &str = "requests_finished";
    /// Counter: requests completed within their deadline.
    pub const COMPLETED: &str = "requests_completed";
    /// Counter: requests that finished past their deadline.
    pub const DEADLINE_MISSED: &str = "deadline_missed";
    /// Counter: requests that failed terminally.
    pub const FAILED: &str = "requests_failed";
    /// Counter: requests shed by admission control or backpressure.
    pub const REJECTED: &str = "requests_rejected";
    /// Counter: requests that coalesced onto an identical queued leader.
    pub const COALESCED: &str = "requests_coalesced";
    /// Counter: dispatch attempts (first tries plus retries).
    pub const ATTEMPTS: &str = "attempts";
    /// Counter: injected/observed device faults in the window.
    pub const FAULTS: &str = "faults";
    /// Counter: residency cache hits in the window.
    pub const RESIDENCY_HITS: &str = "residency_hits";
    /// Counter: residency cache misses in the window.
    pub const RESIDENCY_MISSES: &str = "residency_misses";
    /// Histogram: per-request flow time (submit→terminal), seconds.
    pub const FLOW_SECS: &str = "flow_secs";
    /// Gauge: queue depth at the window's close.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Gauge: quarantined device count at the window's close.
    pub const QUARANTINED: &str = "quarantined_devices";
    /// Gauge: mean absolute relative scheduling-prediction drift (a
    /// ratio: 0.125 is 12.5%).
    pub const DRIFT: &str = "drift_rel";
    /// Counter: hedged (speculative duplicate) attempts launched.
    pub const HEDGES: &str = "hedge_attempts";
    /// Counter: hedges that won their race against the primary attempt.
    pub const HEDGE_WINS: &str = "hedge_wins";
    /// Counter: canary probes run against quarantined devices.
    pub const PROBES: &str = "probe_attempts";
    /// Counter: requests fast-failed by an exhausted retry budget.
    pub const BUDGET_FASTFAILS: &str = "budget_fastfails";
}

/// The objective kinds the engine understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SloKind {
    /// `deadline_missed / requests_finished ≤ limit`.
    DeadlineMissRate,
    /// 95th-percentile flow time (seconds) `≤ limit`.
    FlowP95Secs,
    /// 99th-percentile flow time (seconds) `≤ limit`.
    FlowP99Secs,
    /// `faults / attempts ≤ limit`.
    FaultRate,
    /// Quarantined device count `≤ limit`.
    QuarantinedDevices,
    /// `requests_rejected / (requests_rejected + requests_finished) ≤
    /// limit` — the backpressure shed rate of an open-arrival run.
    RejectedRate,
    /// `hedge_attempts / attempts ≤ limit` — the fraction of dispatch
    /// attempts that needed a speculative duplicate; a rising rate means
    /// predictions no longer bound the in-flight time of real attempts.
    HedgeRate,
}

impl SloKind {
    /// Stable lowercase name, also the `--slo` grammar keyword.
    pub fn name(&self) -> &'static str {
        match self {
            SloKind::DeadlineMissRate => "deadline_miss",
            SloKind::FlowP95Secs => "flow_p95",
            SloKind::FlowP99Secs => "flow_p99",
            SloKind::FaultRate => "fault_rate",
            SloKind::QuarantinedDevices => "quarantined",
            SloKind::RejectedRate => "rejected",
            SloKind::HedgeRate => "hedge_rate",
        }
    }
}

/// One declarative objective: a kind plus its ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// What is measured.
    pub kind: SloKind,
    /// Inclusive ceiling; observing strictly more breaches.
    pub limit: f64,
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<={}", self.kind.name(), self.limit)
    }
}

impl SloSpec {
    /// Parses one `kind<=limit` (or `kind=limit`) clause.
    pub fn parse_one(s: &str) -> Result<SloSpec, String> {
        let (name, value) = s
            .split_once("<=")
            .or_else(|| s.split_once('='))
            .ok_or_else(|| format!("SLO clause `{s}` is not of the form kind<=limit"))?;
        let kind = match name.trim() {
            "deadline_miss" => SloKind::DeadlineMissRate,
            "flow_p95" => SloKind::FlowP95Secs,
            "flow_p99" => SloKind::FlowP99Secs,
            "fault_rate" => SloKind::FaultRate,
            "quarantined" => SloKind::QuarantinedDevices,
            "rejected" => SloKind::RejectedRate,
            "hedge_rate" => SloKind::HedgeRate,
            other => {
                return Err(format!(
                    "unknown SLO kind `{other}` (expected deadline_miss, flow_p95, \
                     flow_p99, fault_rate, quarantined, rejected, or hedge_rate)"
                ))
            }
        };
        let limit: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("SLO limit `{}` is not a number", value.trim()))?;
        if !limit.is_finite() || limit < 0.0 {
            return Err(format!(
                "SLO limit `{limit}` must be finite and non-negative"
            ));
        }
        Ok(SloSpec { kind, limit })
    }

    /// Parses a comma-separated `--slo` list, e.g.
    /// `deadline_miss<=0.05,flow_p95<=0.02,quarantined<=0`.
    pub fn parse_list(s: &str) -> Result<Vec<SloSpec>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(SloSpec::parse_one)
            .collect()
    }

    /// The spec's observed value in a window, or `None` when the window
    /// carries no verdict (e.g. a rate whose denominator is zero).
    pub fn observe(&self, w: &WindowSnapshot) -> Option<f64> {
        match self.kind {
            SloKind::DeadlineMissRate => {
                let fin = w.counter(names::FINISHED);
                (fin > 0).then(|| w.counter(names::DEADLINE_MISSED) as f64 / fin as f64)
            }
            SloKind::FaultRate => {
                let att = w.counter(names::ATTEMPTS);
                (att > 0).then(|| w.counter(names::FAULTS) as f64 / att as f64)
            }
            SloKind::FlowP95Secs => w
                .digest(names::FLOW_SECS)
                .filter(|d| d.count > 0)
                .map(|d| d.p95),
            SloKind::FlowP99Secs => w
                .digest(names::FLOW_SECS)
                .filter(|d| d.count > 0)
                .map(|d| d.p99),
            SloKind::QuarantinedDevices => w.gauge(names::QUARANTINED),
            SloKind::RejectedRate => {
                let rej = w.counter(names::REJECTED);
                let offered = rej + w.counter(names::FINISHED);
                (offered > 0).then(|| rej as f64 / offered as f64)
            }
            SloKind::HedgeRate => {
                let att = w.counter(names::ATTEMPTS);
                (att > 0).then(|| w.counter(names::HEDGES) as f64 / att as f64)
            }
        }
    }
}

/// Per-window verdict of one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The objective evaluated.
    pub spec: SloSpec,
    /// Observed value, when the window carried a verdict.
    pub observed: Option<f64>,
    /// Whether the spec currently holds (breached specs stay `false`
    /// until a closed window recovers them).
    pub ok: bool,
}

/// A typed ok→breached transition event.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// Index of the window in which the breach fired.
    pub window: u64,
    /// End of that window (or the intra-window instant), nanoseconds.
    pub at_ns: u64,
    /// The objective that was breached.
    pub spec: SloSpec,
    /// The observed value that exceeded the limit.
    pub observed: f64,
}

impl fmt::Display for SloBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SLO breach in window {}: {} observed {:.6} > {}",
            self.window,
            self.spec.kind.name(),
            self.observed,
            self.spec.limit
        )
    }
}

/// Edge-triggered evaluator over a fixed set of specs.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    breached: Vec<bool>,
}

impl SloEngine {
    /// Creates an engine for the given objectives (all initially ok).
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let n = specs.len();
        SloEngine {
            specs,
            breached: vec![false; n],
        }
    }

    /// The configured objectives.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// True when any spec is currently in the breached state.
    pub fn any_breached(&self) -> bool {
        self.breached.iter().any(|&b| b)
    }

    fn eval(
        &mut self,
        w: &WindowSnapshot,
        allow_recovery: bool,
    ) -> (Vec<SloStatus>, Vec<SloBreach>) {
        let mut statuses = Vec::with_capacity(self.specs.len());
        let mut breaches = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let observed = spec.observe(w);
            let holds = observed.map(|v| v <= spec.limit).unwrap_or(true);
            if !holds && !self.breached[i] {
                self.breached[i] = true;
                breaches.push(SloBreach {
                    window: w.index,
                    at_ns: w.end_ns,
                    spec: *spec,
                    observed: observed.unwrap_or(f64::NAN),
                });
            } else if holds && self.breached[i] && allow_recovery && observed.is_some() {
                self.breached[i] = false;
            }
            statuses.push(SloStatus {
                spec: *spec,
                observed,
                ok: !self.breached[i],
            });
        }
        (statuses, breaches)
    }

    /// Evaluates a *closed* window: breaches fire on ok→breached edges,
    /// and a breached spec recovers when the window meets the objective
    /// (with an actual observation — empty windows change nothing).
    pub fn evaluate(&mut self, w: &WindowSnapshot) -> (Vec<SloStatus>, Vec<SloBreach>) {
        self.eval(w, true)
    }

    /// Evaluates the *open* window mid-interval (a
    /// [`WindowedMetrics::peek`](crate::window::WindowedMetrics::peek)
    /// snapshot): breaches fire immediately, but nothing recovers — a
    /// partial window is evidence of failure, never of health.
    pub fn evaluate_partial(&mut self, w: &WindowSnapshot) -> Vec<SloBreach> {
        self.eval(w, false).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowedMetrics;

    fn window_with(missed: u64, finished: u64, at: u64) -> WindowSnapshot {
        let mut m = WindowedMetrics::new(1000);
        m.counter_add(names::FINISHED, finished);
        m.counter_add(names::DEADLINE_MISSED, missed);
        m.peek(at)
    }

    #[test]
    fn parse_grammar_accepts_both_separators_and_rejects_junk() {
        let specs = SloSpec::parse_list("deadline_miss<=0.1, flow_p95=0.02,quarantined<=0")
            .expect("valid list");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].kind, SloKind::DeadlineMissRate);
        assert_eq!(specs[1].kind, SloKind::FlowP95Secs);
        assert_eq!(specs[1].limit, 0.02);
        assert_eq!(
            SloSpec::parse_one("rejected<=0.2").expect("valid").kind,
            SloKind::RejectedRate
        );
        assert!(SloSpec::parse_one("deadline_miss").is_err());
        assert!(SloSpec::parse_one("nope<=1").is_err());
        assert!(SloSpec::parse_one("fault_rate<=-1").is_err());
        assert!(SloSpec::parse_one("fault_rate<=NaN").is_err());
        assert_eq!(
            SloSpec::parse_one("flow_p99<=0.5").expect("ok").to_string(),
            "flow_p99<=0.5"
        );
    }

    #[test]
    fn breaches_are_edge_triggered_and_recover_only_on_closed_windows() {
        let spec = SloSpec {
            kind: SloKind::DeadlineMissRate,
            limit: 0.0,
        };
        let mut engine = SloEngine::new(vec![spec]);

        // Partial view with a miss: fires exactly once.
        let breaches = engine.evaluate_partial(&window_with(1, 4, 500));
        assert_eq!(breaches.len(), 1);
        assert!(engine.any_breached());
        assert!(engine.evaluate_partial(&window_with(1, 4, 600)).is_empty());

        // The same window closing does not re-fire.
        let (statuses, breaches) = engine.evaluate(&window_with(1, 10, 1000));
        assert!(breaches.is_empty(), "no double fire at window close");
        assert!(!statuses[0].ok, "still breached");

        // A clean partial window cannot recover it…
        assert!(engine.evaluate_partial(&window_with(0, 5, 1500)).is_empty());
        assert!(engine.any_breached());
        // …but a clean closed window does.
        let (statuses, _) = engine.evaluate(&window_with(0, 5, 2000));
        assert!(statuses[0].ok, "recovered on a clean closed window");

        // A second incident fires a second breach event.
        let (_, breaches) = engine.evaluate(&window_with(2, 2, 3000));
        assert_eq!(breaches.len(), 1);
    }

    #[test]
    fn empty_windows_carry_no_verdict() {
        let mut engine = SloEngine::new(vec![
            SloSpec {
                kind: SloKind::DeadlineMissRate,
                limit: 0.0,
            },
            SloSpec {
                kind: SloKind::FlowP95Secs,
                limit: 0.001,
            },
        ]);
        let empty = WindowedMetrics::new(1000).peek(100);
        let (statuses, breaches) = engine.evaluate(&empty);
        assert!(breaches.is_empty());
        assert!(statuses.iter().all(|s| s.ok && s.observed.is_none()));
    }

    #[test]
    fn rejected_rate_counts_shed_over_offered() {
        let spec = SloSpec {
            kind: SloKind::RejectedRate,
            limit: 0.1,
        };
        // No offered requests: no verdict.
        let empty = WindowedMetrics::new(1000).peek(100);
        assert!(spec.observe(&empty).is_none());
        // 3 shed out of 3 + 9 finished = 25% > 10% ceiling.
        let mut m = WindowedMetrics::new(1000);
        m.counter_add(names::REJECTED, 3);
        m.counter_add(names::FINISHED, 9);
        let w = m.peek(500);
        assert_eq!(spec.observe(&w), Some(0.25));
        let mut engine = SloEngine::new(vec![spec]);
        assert_eq!(engine.evaluate_partial(&w).len(), 1);
    }

    #[test]
    fn hedge_rate_counts_hedges_over_attempts() {
        let spec = SloSpec::parse_one("hedge_rate<=0.2").expect("parses");
        assert_eq!(spec.kind, SloKind::HedgeRate);
        // No attempts: no verdict.
        let empty = WindowedMetrics::new(1000).peek(100);
        assert!(spec.observe(&empty).is_none());
        // 3 hedges over 10 attempts = 30% > 20% ceiling.
        let mut m = WindowedMetrics::new(1000);
        m.counter_add(names::ATTEMPTS, 10);
        m.counter_add(names::HEDGES, 3);
        let w = m.peek(500);
        assert_eq!(spec.observe(&w), Some(0.3));
        let mut engine = SloEngine::new(vec![spec]);
        assert_eq!(engine.evaluate_partial(&w).len(), 1);
    }

    #[test]
    fn flow_percentile_and_quarantine_objectives() {
        let mut m = WindowedMetrics::new(1000);
        for _ in 0..100 {
            m.histogram_observe(names::FLOW_SECS, &[0.001, 0.01, 0.1], 0.05);
        }
        m.gauge_set(names::QUARANTINED, 2.0);
        let w = m.peek(900);
        let mut engine = SloEngine::new(vec![
            SloSpec {
                kind: SloKind::FlowP95Secs,
                limit: 0.001,
            },
            SloSpec {
                kind: SloKind::QuarantinedDevices,
                limit: 1.0,
            },
        ]);
        let breaches = engine.evaluate_partial(&w);
        assert_eq!(breaches.len(), 2, "both objectives breach: {breaches:?}");
        assert!(breaches[0].observed > 0.001);
        assert_eq!(breaches[1].observed, 2.0);
    }
}
