//! Declarative service-level objectives evaluated per telemetry window.
//!
//! An [`SloSpec`] names an objective over the typed fields of a
//! [`TelemetryWindow`] (deadline-miss rate, flow-time percentiles,
//! fault-rate ceiling, quarantined-device ceiling, shed rate, hedge
//! rate). The [`SloEngine`] evaluates every spec against a window in
//! place and is *edge-triggered*: only an ok→breached transition emits an
//! [`SloBreach`] event (the thing that arms a flight-recorder dump), and
//! a breached spec recovers only when a *closed* window meets the
//! objective again. Intra-window fast-path evaluation via
//! [`SloEngine::evaluate_partial`] lets a hard breach (e.g. a deadline
//! miss against a zero-miss objective) fire while the offending
//! request's spans are still in the recorder ring — without
//! double-firing when the same window later closes.

use crate::window::TelemetryWindow;
use std::fmt;

/// The objective kinds the engine understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SloKind {
    /// `deadline_missed / finished ≤ limit`.
    DeadlineMissRate,
    /// 95th-percentile flow time (seconds) `≤ limit`.
    FlowP95Secs,
    /// 99th-percentile flow time (seconds) `≤ limit`.
    FlowP99Secs,
    /// `faults / attempts ≤ limit`.
    FaultRate,
    /// Quarantined device count `≤ limit`.
    QuarantinedDevices,
    /// `rejected / (rejected + finished) ≤ limit` — the backpressure shed
    /// rate of an open-arrival run.
    RejectedRate,
    /// `hedges / attempts ≤ limit` — the fraction of dispatch
    /// attempts that needed a speculative duplicate; a rising rate means
    /// predictions no longer bound the in-flight time of real attempts.
    HedgeRate,
}

impl SloKind {
    /// Every kind, in `--slo` documentation order.
    pub const ALL: [SloKind; 7] = [
        SloKind::DeadlineMissRate,
        SloKind::FlowP95Secs,
        SloKind::FlowP99Secs,
        SloKind::FaultRate,
        SloKind::QuarantinedDevices,
        SloKind::RejectedRate,
        SloKind::HedgeRate,
    ];

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
        let name = name.trim();
        let kind = SloKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = SloKind::ALL.iter().map(SloKind::name).collect();
                format!(
                    "unknown SLO kind `{name}` (expected one of {})",
                    known.join(", ")
                )
            })?;
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
    pub fn observe(&self, w: &TelemetryWindow) -> Option<f64> {
        let rate = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        match self.kind {
            SloKind::DeadlineMissRate => rate(w.deadline_missed, w.finished),
            SloKind::FaultRate => rate(w.faults, w.attempts),
            SloKind::FlowP95Secs => w.flow.quantile(0.95),
            SloKind::FlowP99Secs => w.flow.quantile(0.99),
            SloKind::QuarantinedDevices => Some(w.quarantined as f64),
            SloKind::RejectedRate => rate(w.rejected, w.rejected + w.finished),
            SloKind::HedgeRate => rate(w.hedges, w.attempts),
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
        w: &TelemetryWindow,
        at_ns: u64,
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
                    at_ns,
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

    /// Evaluates a window closing at `end_ns`: breaches fire on
    /// ok→breached edges, and a breached spec recovers when the window
    /// meets the objective (with an actual observation — empty windows
    /// change nothing).
    pub fn evaluate(
        &mut self,
        w: &TelemetryWindow,
        end_ns: u64,
    ) -> (Vec<SloStatus>, Vec<SloBreach>) {
        self.eval(w, end_ns, true)
    }

    /// Evaluates the *open* window as of `now_ns`, in place: breaches fire
    /// immediately, but nothing recovers — a partial window is evidence
    /// of failure, never of health.
    pub fn evaluate_partial(&mut self, w: &TelemetryWindow, now_ns: u64) -> Vec<SloBreach> {
        self.eval(w, now_ns, false).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> TelemetryWindow {
        TelemetryWindow::new(1000, &[0.001, 0.01, 0.1])
    }

    fn window_with(missed: u64, finished: u64) -> TelemetryWindow {
        let mut w = empty();
        w.finished = finished;
        w.deadline_missed = missed;
        w
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
        let unknown = SloSpec::parse_one("nope<=1").expect_err("unknown kind");
        for kind in SloKind::ALL {
            assert!(unknown.contains(kind.name()), "{unknown}");
            let spec = SloSpec::parse_one(&format!("{}<=1", kind.name()));
            assert_eq!(spec.expect("every kind parses").kind, kind);
        }
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
        let breaches = engine.evaluate_partial(&window_with(1, 4), 500);
        assert_eq!(breaches.len(), 1);
        assert!(engine.any_breached());
        assert!(engine.evaluate_partial(&window_with(1, 4), 600).is_empty());

        // The same window closing does not re-fire.
        let (statuses, breaches) = engine.evaluate(&window_with(1, 10), 1000);
        assert!(breaches.is_empty(), "no double fire at window close");
        assert!(!statuses[0].ok, "still breached");

        // A clean partial window cannot recover it…
        assert!(engine.evaluate_partial(&window_with(0, 5), 1500).is_empty());
        assert!(engine.any_breached());
        // …but a clean closed window does.
        let (statuses, _) = engine.evaluate(&window_with(0, 5), 2000);
        assert!(statuses[0].ok, "recovered on a clean closed window");

        // A second incident fires a second breach event.
        let (_, breaches) = engine.evaluate(&window_with(2, 2), 3000);
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
        let (statuses, breaches) = engine.evaluate(&empty(), 100);
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
        assert!(spec.observe(&empty()).is_none());
        // 3 shed out of 3 + 9 finished = 25% > 10% ceiling.
        let mut w = empty();
        w.rejected = 3;
        w.finished = 9;
        assert_eq!(spec.observe(&w), Some(0.25));
        let mut engine = SloEngine::new(vec![spec]);
        assert_eq!(engine.evaluate_partial(&w, 500).len(), 1);
    }

    #[test]
    fn hedge_rate_counts_hedges_over_attempts() {
        let spec = SloSpec::parse_one("hedge_rate<=0.2").expect("parses");
        assert_eq!(spec.kind, SloKind::HedgeRate);
        // No attempts: no verdict.
        assert!(spec.observe(&empty()).is_none());
        // 3 hedges over 10 attempts = 30% > 20% ceiling.
        let mut w = empty();
        w.attempts = 10;
        w.hedges = 3;
        assert_eq!(spec.observe(&w), Some(0.3));
        let mut engine = SloEngine::new(vec![spec]);
        assert_eq!(engine.evaluate_partial(&w, 500).len(), 1);
    }

    #[test]
    fn flow_percentile_and_quarantine_objectives() {
        let mut w = empty();
        for _ in 0..100 {
            w.flow.observe(0.05);
        }
        w.set_gauges(0, 2, 0.0);
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
        let breaches = engine.evaluate_partial(&w, 900);
        assert_eq!(breaches.len(), 2, "both objectives breach: {breaches:?}");
        assert!(breaches[0].observed > 0.001);
        assert_eq!(breaches[1].observed, 2.0);
    }
}
