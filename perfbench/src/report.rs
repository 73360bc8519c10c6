//! What one benchmark run reports: end-to-end metrics (tracing off),
//! per-layer metrics (from the traced run), the correctness gate's
//! verdicts, and the final one-line JSON result.

use std::fmt::Write as _;

/// One named measurement with its unit and a note giving its base or
/// sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`setup_s`, `serve.residency_hit_rate`, ...).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as printed.
    pub unit: &'static str,
    /// Base of a ratio or sample count of a statistic, for the human
    /// printout.
    pub note: String,
}

/// Builder for an ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: note.into(),
        });
    }
}

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (every workload reports the same names).
    pub end_to_end: Metrics,
    /// Per-layer metrics, filled only by the traced run.
    pub per_layer: Metrics,
    /// Operations the measured phase attempted (calls or requests).
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// Correctness-gate failures; empty means the gate passed.
    pub gate_failures: Vec<String>,
    /// Correctness checks that ran.
    pub gate_checks: usize,
    /// Free-form lines printed before the metrics (workload facts, the
    /// paper's bounds next to the measured overheads).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a gate check: `ok` or a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.gate_checks += 1;
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// True when every gate check passed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The human-readable printout: notes, gate verdict, end-to-end
    /// metrics, and per-layer metrics grouped by layer prefix.
    pub fn render(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== workload {workload} (seed {seed}) ==");
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        let _ = writeln!(
            out,
            "correctness gate: {} of {} checks passed",
            self.gate_checks - self.gate_failures.len(),
            self.gate_checks
        );
        for f in &self.gate_failures {
            let _ = writeln!(out, "  FAIL {f}");
        }
        if !self.end_to_end.0.is_empty() {
            let _ = writeln!(out, "end-to-end (tracing off):");
            render_metrics(&mut out, &self.end_to_end.0);
        }
        let mut layer = "";
        for m in &self.per_layer.0 {
            let prefix = m.name.split('.').next().unwrap_or("");
            if prefix != layer {
                layer = prefix;
                let _ = writeln!(out, "layer {layer} (traced run):");
            }
            render_metrics(&mut out, std::slice::from_ref(m));
        }
        out
    }

    /// The final result line: `{"correct", "attempted", "failed",
    /// "metrics"}` with the end-to-end metrics, or the per-layer ones
    /// when `traced`.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn render_metrics(out: &mut String, metrics: &[Metric]) {
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<8} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
}

/// A finite f64 with all its digits (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.end_to_end.add("latency_ms", 1.25, "ms", "n=3");
        r.per_layer.add("core.x", 7.0, "count", "");
        r.attempted = 3;
        r.check(true, String::new);
        let line = r.to_json(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r.to_json(true).contains("\"core.x\": {\"value\": 7.0"));
        r.check(false, || "boom".to_owned());
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }
}
