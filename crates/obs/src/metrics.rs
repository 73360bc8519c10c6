//! A dependency-free metrics registry: named monotonic counters,
//! last-value gauges, and fixed-bucket histograms.
//!
//! The registry is deliberately tiny — the pipeline is single-threaded per
//! device handle, so plain `&mut` access suffices and no atomics or locks
//! are involved. Everything renders to a text summary and to the [`Value`]
//! data model for JSON export.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram over fixed, caller-supplied bucket boundaries.
///
/// Values land in the first bucket whose upper bound is `>=` the value;
/// values above every bound land in an implicit overflow bucket. Sum and
/// count are tracked exactly, so the mean is always available regardless of
/// bucket resolution. Non-finite observations are rejected (counted in
/// [`skipped`](Histogram::skipped)) so one NaN can never poison the
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    skipped: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
            skipped: 0,
        }
    }

    /// Records one observation. NaN and ±∞ are not recorded — they bump the
    /// [`skipped`](Histogram::skipped) counter instead, keeping `sum`,
    /// `mean`, and the quantile estimates finite.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.skipped += 1;
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite observations rejected.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimates the `q`-quantile (`q ∈ [0, 1]`, clamped) from the bucket
    /// counts by linear interpolation inside the bracketing bucket.
    ///
    /// The estimate is always bracketed by the bucket boundaries: mass in
    /// the first bucket reports that bucket's upper bound (there is no lower
    /// edge to interpolate from) and mass in the overflow bucket reports the
    /// largest bound. Returns `None` for an empty histogram or one with no
    /// buckets. The estimate is monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.bounds.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if (cum as f64) < rank || c == 0 {
                continue;
            }
            // Bucket i brackets the rank.
            if i >= self.bounds.len() {
                // Overflow bucket: no upper edge, clamp to the last bound.
                return Some(self.bounds[self.bounds.len() - 1]);
            }
            if i == 0 {
                // First bucket: no lower edge, report its upper bound.
                return Some(self.bounds[0]);
            }
            let lo = self.bounds[i - 1];
            let hi = self.bounds[i];
            let into = rank - (cum - c) as f64;
            let frac = (into / c as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        // rank == count landed past the loop due to trailing zero buckets.
        Some(self.bounds[self.bounds.len() - 1])
    }

    /// The value-tree form, for JSON reports.
    pub fn to_value(&self) -> Value {
        let quant = |q: f64| match self.quantile(q) {
            Some(v) => Value::F64(v),
            None => Value::Null,
        };
        Value::Map(vec![
            (
                "bounds".to_owned(),
                Value::Seq(self.bounds.iter().map(|&b| Value::F64(b)).collect()),
            ),
            (
                "counts".to_owned(),
                Value::Seq(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            ),
            ("sum".to_owned(), Value::F64(self.sum)),
            ("count".to_owned(), Value::U64(self.count)),
            ("skipped".to_owned(), Value::U64(self.skipped)),
            ("p50".to_owned(), quant(0.50)),
            ("p95".to_owned(), quant(0.95)),
            ("p99".to_owned(), quant(0.99)),
        ])
    }
}

/// Named counters, gauges, and histograms for one pipeline.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to the counter `name`, creating it at zero if absent.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        // Look up before inserting: the key is allocated once, on first use.
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to its latest value `v` (gauges are
    /// last-value-wins, unlike monotonic counters). Non-finite values are
    /// ignored, mirroring the histogram NaN policy.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if !v.is_finite() {
            return;
        }
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Records `v` into histogram `name`, creating it with `bounds` if
    /// absent (later calls ignore `bounds`).
    pub fn histogram_observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new(bounds.to_vec());
                h.observe(v);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// The histogram `name`, if any observation created it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The value-tree form, for JSON reports.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "counters".to_owned(),
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Map(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::F64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Map(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders a human-readable summary, one line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<40} {v:.4}");
        }
        for (name, h) in &self.histograms {
            let q = |p: f64| h.quantile(p).unwrap_or(0.0);
            let _ = write!(
                out,
                "{name:<40} n={} mean={:.4} sum={:.4} p50={:.4} p95={:.4} p99={:.4}",
                h.count(),
                h.mean(),
                h.sum(),
                q(0.50),
                q(0.95),
                q(0.99),
            );
            if h.skipped() > 0 {
                let _ = write!(out, " skipped={}", h.skipped());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("bytes", 10);
        r.counter_add("bytes", 5);
        assert_eq!(r.counter("bytes"), 15);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn gauges_are_last_value_wins_and_skip_non_finite() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("occupancy"), None);
        r.gauge_set("occupancy", 0.5);
        r.gauge_set("occupancy", 0.75);
        assert_eq!(r.gauge("occupancy"), Some(0.75));
        r.gauge_set("occupancy", f64::NAN);
        r.gauge_set("bad", f64::INFINITY);
        assert_eq!(r.gauge("occupancy"), Some(0.75));
        assert_eq!(r.gauge("bad"), None);
        let s = r.render();
        assert!(s.contains("occupancy"));
        let json = serde_json::to_string(&r.to_value()).expect("serializes");
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"occupancy\":0.75"));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // boundary lands in its bucket
        h.observe(5.0);
        h.observe(100.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 106.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_observations_are_skipped_not_propagated() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(2.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 1);
        assert_eq!(h.skipped(), 3);
        assert_eq!(h.mean(), 2.0);
        assert!(h.sum().is_finite());
        let json = serde_json::to_string(&h.to_value()).expect("serializes");
        assert!(json.contains("\"skipped\":3"));
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let mut h = Histogram::new(vec![10.0, 20.0, 30.0]);
        // 10 observations in (10, 20]: ranks spread linearly across it.
        for _ in 0..10 {
            h.observe(15.0);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((p50 - 15.0).abs() < 1e-12, "p50 {p50}");
        let p100 = h.quantile(1.0).expect("non-empty");
        assert!((p100 - 20.0).abs() < 1e-12, "p100 {p100}");
    }

    #[test]
    fn quantile_edge_buckets_clamp_to_bounds() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(0.5); // first bucket: reported as its upper bound
        h.observe(100.0); // overflow: reported as the last bound
        assert_eq!(h.quantile(0.01), Some(1.0));
        assert_eq!(h.quantile(0.99), Some(2.0));
    }

    #[test]
    fn quantile_empty_and_unbucketed() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(h.quantile(0.5), None);
        let mut nb = Histogram::new(Vec::new());
        nb.observe(1.0);
        assert_eq!(nb.quantile(0.5), None);
    }

    #[test]
    fn registry_histograms_keep_first_bounds() {
        let mut r = Registry::new();
        r.histogram_observe("err", &[0.1, 0.2], 0.05);
        r.histogram_observe("err", &[99.0], 0.15);
        let h = r.histogram("err").expect("created");
        assert_eq!(h.bounds(), &[0.1, 0.2]);
        assert_eq!(h.counts(), &[1, 1, 0]);
    }

    #[test]
    fn render_includes_all_metrics() {
        let mut r = Registry::new();
        r.counter_add("calls", 2);
        r.histogram_observe("lat", &[1.0], 0.5);
        let s = r.render();
        assert!(s.contains("calls"));
        assert!(s.contains("lat"));
    }

    #[test]
    fn to_value_round_trips_through_json() {
        let mut r = Registry::new();
        r.counter_add("c", 7);
        r.histogram_observe("h", &[1.0], 2.0);
        let json = serde_json::to_string(&r.to_value()).expect("serializes");
        assert!(json.contains("\"c\":7"));
        assert!(json.contains("\"h\""));
    }
}
