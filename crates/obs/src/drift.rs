//! Prediction-drift accounting: model-predicted offload time versus what
//! the pipeline actually took.
//!
//! Every routine call that went through a system profile can be scored: the
//! paper's models (Eq. 1/2/3–4/5, plus the CSO comparator when a full
//! kernel time is known) each predict a total offload time for the chosen
//! tiling size, and the simulator reports the achieved one. The signed
//! relative error per model — accumulated across calls — is exactly the
//! quantity the paper's Fig. 5/6 validation plots are built from.

use crate::metrics::Histogram;
use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bucket bounds for signed relative error histograms: −100 % … +100 %.
pub const SIGNED_ERROR_BOUNDS: [f64; 9] = [-1.0, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0];

/// Bucket bounds for absolute relative error histograms: 1 % … 100 %.
pub const ABS_ERROR_BOUNDS: [f64; 6] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0];

/// One model's verdict on one routine call.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRecord {
    /// Routine family (`"gemm"`, `"axpy"`, …).
    pub routine: &'static str,
    /// Routine invocation counter (shared with the trace's `OpTag::call`).
    pub call: u64,
    /// The model scored.
    pub model: ModelKind,
    /// Tiling size the call actually used.
    pub tile: usize,
    /// Model-predicted total offload time, in seconds.
    pub predicted_secs: f64,
    /// Simulated actual offload time, in seconds.
    pub actual_secs: f64,
}

impl DriftRecord {
    /// Signed relative error `(predicted − actual) / actual`: positive when
    /// the model over-predicts.
    pub fn signed_rel_err(&self) -> f64 {
        if self.actual_secs == 0.0 {
            0.0
        } else {
            (self.predicted_secs - self.actual_secs) / self.actual_secs
        }
    }

    /// Absolute relative error `|predicted − actual| / actual`.
    pub fn abs_rel_err(&self) -> f64 {
        self.signed_rel_err().abs()
    }

    /// The value-tree form, for JSON reports.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("routine".to_owned(), Value::Str(self.routine.to_owned())),
            ("call".to_owned(), Value::U64(self.call)),
            ("model".to_owned(), Value::Str(self.model.name().to_owned())),
            ("tile".to_owned(), Value::U64(self.tile as u64)),
            ("predicted_secs".to_owned(), Value::F64(self.predicted_secs)),
            ("actual_secs".to_owned(), Value::F64(self.actual_secs)),
            (
                "signed_rel_err".to_owned(),
                Value::F64(self.signed_rel_err()),
            ),
        ])
    }
}

/// Scores every evaluable model against one executed call.
///
/// Models that cannot be evaluated are skipped silently: CSO needs a
/// measured full-problem kernel time, and any model fails on an empty exec
/// table. Returns one record per model that produced a prediction.
pub fn score_models(
    routine: &'static str,
    call: u64,
    ctx: &ModelCtx<'_>,
    tile: usize,
    actual_secs: f64,
) -> Vec<DriftRecord> {
    ModelKind::all()
        .into_iter()
        .filter_map(|model| {
            let p = predict(model, ctx, tile).ok()?;
            Some(DriftRecord {
                routine,
                call,
                model,
                tile,
                predicted_secs: p.total,
                actual_secs,
            })
        })
        .collect()
}

/// Running per-model error aggregate.
#[derive(Debug, Clone)]
pub struct ModelErrorStats {
    /// Number of scored calls.
    pub count: u64,
    /// Sum of signed relative errors.
    pub sum_signed: f64,
    /// Sum of absolute relative errors.
    pub sum_abs: f64,
    /// Histogram of signed relative errors.
    pub signed_hist: Histogram,
    /// Histogram of absolute relative errors.
    pub abs_hist: Histogram,
}

impl Default for ModelErrorStats {
    fn default() -> Self {
        ModelErrorStats {
            count: 0,
            sum_signed: 0.0,
            sum_abs: 0.0,
            signed_hist: Histogram::new(SIGNED_ERROR_BOUNDS.to_vec()),
            abs_hist: Histogram::new(ABS_ERROR_BOUNDS.to_vec()),
        }
    }
}

impl ModelErrorStats {
    /// Mean signed relative error (bias).
    pub fn mean_signed(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_signed / self.count as f64
        }
    }

    /// Mean absolute relative error.
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }
}

/// Accumulates [`DriftRecord`]s and aggregates them per model.
#[derive(Debug, Clone, Default)]
pub struct DriftAccountant {
    /// Records not yet retired ([`retire_records`](Self::retire_records)).
    records: Vec<DriftRecord>,
    /// Every record ever scored, retired or not.
    count: u64,
    per_model: BTreeMap<&'static str, ModelErrorStats>,
    /// Sum of every record's absolute relative error, added in record
    /// order, so the running mean is the fold over all records bit for bit.
    sum_abs: f64,
}

impl DriftAccountant {
    /// An empty accountant.
    pub fn new() -> Self {
        DriftAccountant::default()
    }

    /// Records one scored call.
    pub fn record(&mut self, rec: DriftRecord) {
        let stats = self.per_model.entry(rec.model.name()).or_default();
        stats.count += 1;
        stats.sum_signed += rec.signed_rel_err();
        stats.sum_abs += rec.abs_rel_err();
        stats.signed_hist.observe(rec.signed_rel_err());
        stats.abs_hist.observe(rec.abs_rel_err());
        self.sum_abs += rec.abs_rel_err();
        self.count += 1;
        self.records.push(rec);
    }

    /// Mean absolute relative error over every record ever scored, all
    /// models together, retired ones included; `0.0` before the first
    /// record. O(1): a running total.
    pub fn mean_abs_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Records scored so far, retired ones included.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The records not yet retired, in arrival order: every record unless
    /// [`retire_records`](Self::retire_records) ran.
    pub fn records(&self) -> &[DriftRecord] {
        &self.records
    }

    /// Drops the individual records, keeping the count and every
    /// aggregate: [`mean_abs_err`](Self::mean_abs_err), the per-model
    /// stats and [`render`](Self::render) read the same afterwards.
    pub fn retire_records(&mut self) {
        self.records.clear();
    }

    /// Aggregated stats for one model, if it was ever scored.
    pub fn model_stats(&self, model: ModelKind) -> Option<&ModelErrorStats> {
        self.per_model.get(model.name())
    }

    /// All scored models with their aggregates, name-ordered.
    pub fn all_stats(&self) -> impl Iterator<Item = (&'static str, &ModelErrorStats)> {
        self.per_model.iter().map(|(&k, v)| (k, v))
    }

    /// The value-tree form, for JSON reports.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "records".to_owned(),
                Value::Seq(self.records.iter().map(|r| r.to_value()).collect()),
            ),
            (
                "per_model".to_owned(),
                Value::Map(
                    self.per_model
                        .iter()
                        .map(|(&name, s)| {
                            (
                                name.to_owned(),
                                Value::Map(vec![
                                    ("count".to_owned(), Value::U64(s.count)),
                                    ("mean_signed".to_owned(), Value::F64(s.mean_signed())),
                                    ("mean_abs".to_owned(), Value::F64(s.mean_abs())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders a per-model drift table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>12} {:>12}",
            "model", "calls", "bias", "mean |err|"
        );
        for (name, s) in &self.per_model {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>11.2}% {:>11.2}%",
                name,
                s.count,
                s.mean_signed() * 100.0,
                s.mean_abs() * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(model: ModelKind, predicted: f64, actual: f64) -> DriftRecord {
        DriftRecord {
            routine: "gemm",
            call: 0,
            model,
            tile: 256,
            predicted_secs: predicted,
            actual_secs: actual,
        }
    }

    #[test]
    fn signed_error_signs() {
        assert!(rec(ModelKind::Bts, 1.2, 1.0).signed_rel_err() > 0.0);
        assert!(rec(ModelKind::Bts, 0.8, 1.0).signed_rel_err() < 0.0);
        assert_eq!(rec(ModelKind::Bts, 1.0, 0.0).signed_rel_err(), 0.0);
    }

    #[test]
    fn accountant_aggregates_per_model() {
        let mut acc = DriftAccountant::new();
        acc.record(rec(ModelKind::Bts, 1.1, 1.0)); // +10 %
        acc.record(rec(ModelKind::Bts, 0.9, 1.0)); // −10 %
        acc.record(rec(ModelKind::DataReuse, 2.0, 1.0)); // +100 %
        let bts = acc.model_stats(ModelKind::Bts).expect("scored");
        assert_eq!(bts.count, 2);
        assert!(bts.mean_signed().abs() < 1e-12, "symmetric errors cancel");
        assert!((bts.mean_abs() - 0.1).abs() < 1e-12);
        let dr = acc.model_stats(ModelKind::DataReuse).expect("scored");
        assert!((dr.mean_signed() - 1.0).abs() < 1e-12);
        assert_eq!(acc.records().len(), 3);
        assert!(acc.model_stats(ModelKind::Cso).is_none());
    }

    #[test]
    fn running_mean_matches_the_fold_over_records_bit_for_bit() {
        let models = ModelKind::all();
        let mut acc = DriftAccountant::new();
        assert_eq!(acc.mean_abs_err(), 0.0);
        for i in 0..1_000u32 {
            let actual = 1.0 + f64::from(i % 37) * 0.013;
            let predicted = actual * (0.5 + f64::from(i.wrapping_mul(7919) % 1000) / 997.0);
            acc.record(rec(models[i as usize % models.len()], predicted, actual));
        }
        let recs = acc.records();
        let fold = recs.iter().map(DriftRecord::abs_rel_err).sum::<f64>() / recs.len() as f64;
        assert_eq!(acc.mean_abs_err().to_bits(), fold.to_bits());
    }

    #[test]
    fn retiring_records_keeps_count_and_aggregates() {
        let mut acc = DriftAccountant::new();
        let mut twin = DriftAccountant::new();
        for (i, model) in ModelKind::all().into_iter().cycle().take(40).enumerate() {
            let r = rec(model, 1.0 + i as f64 * 0.03, 1.1);
            acc.record(r.clone());
            twin.record(r);
            if i % 9 == 0 {
                acc.retire_records();
            }
        }
        acc.retire_records();
        assert!(acc.records().is_empty());
        assert_eq!(acc.count(), 40);
        assert_eq!(twin.count(), 40);
        assert_eq!(acc.mean_abs_err().to_bits(), twin.mean_abs_err().to_bits());
        assert_eq!(acc.render(), twin.render());
    }

    #[test]
    fn render_lists_models() {
        let mut acc = DriftAccountant::new();
        acc.record(rec(ModelKind::Baseline, 1.0, 1.0));
        let s = acc.render();
        assert!(s.contains("Baseline-Model"));
    }
}
