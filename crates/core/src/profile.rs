//! The deployment artifact: fitted transfer coefficients plus per-routine
//! execution tables for one machine.
//!
//! `cocopelia-deploy` produces a [`SystemProfile`] by running the §IV-A
//! micro-benchmarks once per system; the runtime then consults it for every
//! tiling-size decision. The profile serialises to JSON so deployment is a
//! one-off cost, exactly as in the paper.

use crate::exec_table::ExecTable;
use crate::models::{predict, ModelCtx, ModelKind, Prediction};
use crate::params::{ProblemSpec, RoutineClass};
use crate::select::TileSelector;
use crate::transfer::TransferModel;
use cocopelia_hostblas::Dtype;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fitted model parameters for one system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemProfile {
    /// Name of the profiled testbed.
    pub testbed: String,
    /// The six fitted transfer coefficients (§IV-A, Table II).
    pub transfer: TransferModel,
    /// Per-routine execution-time tables, keyed by canonical routine name
    /// (`"dgemm"`, `"saxpy"`, …).
    pub exec: BTreeMap<String, ExecTable>,
}

impl SystemProfile {
    /// Creates an empty profile (no kernel tables yet).
    pub fn new(testbed: impl Into<String>, transfer: TransferModel) -> Self {
        SystemProfile {
            testbed: testbed.into(),
            transfer,
            exec: BTreeMap::new(),
        }
    }

    /// Stores the execution table for a routine/precision pair.
    pub fn insert_exec(&mut self, routine: RoutineClass, dtype: Dtype, table: ExecTable) {
        self.exec.insert(routine.name(dtype), table);
    }

    /// Execution table for a routine/precision pair, if benchmarked.
    pub fn exec_table(&self, routine: RoutineClass, dtype: Dtype) -> Option<&ExecTable> {
        self.exec.get(&routine.name(dtype))
    }

    /// Predicts the offload time of `problem` on this system — the stable
    /// prediction entry point for schedulers that hold a profile and a
    /// problem but none of the model plumbing.
    ///
    /// `model` defaults to the paper's recommendation for the routine's
    /// BLAS level ([`ModelKind::recommended_for`]). With `tile` the model
    /// is evaluated at that tiling size; without it the full
    /// `CoCoPeLia_select` sweep runs and the winning prediction is
    /// returned.
    ///
    /// Returns `None` instead of an error when no prediction is possible:
    /// the profile has no exec table for the routine/precision, or the
    /// model cannot be evaluated (zero tile, CSO without a full kernel
    /// time). Callers scheduling against partial profiles degrade to their
    /// own cost model instead of failing the request.
    pub fn predict_offload(
        &self,
        problem: &ProblemSpec,
        model: Option<ModelKind>,
        tile: Option<usize>,
    ) -> Option<Prediction> {
        let exec = self.exec_table(problem.routine, problem.dtype)?;
        let model = model.unwrap_or_else(|| ModelKind::recommended_for(problem.routine));
        let ctx = ModelCtx {
            problem,
            transfer: &self.transfer,
            exec,
            full_kernel_time: None,
        };
        match tile {
            Some(t) => predict(model, &ctx, t).ok(),
            None => TileSelector.select(model, &ctx).ok().map(|s| s.prediction),
        }
    }

    /// Serialises to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (effectively unreachable for this
    /// data shape).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a profile previously produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::LatBw;

    fn profile() -> SystemProfile {
        let transfer = TransferModel {
            h2d: LatBw {
                t_l: 1e-5,
                t_b: 1e-9,
            },
            d2h: LatBw {
                t_l: 1e-5,
                t_b: 1.1e-9,
            },
            sl_h2d: 1.0,
            sl_d2h: 1.2,
        };
        let mut p = SystemProfile::new("test", transfer);
        p.insert_exec(
            RoutineClass::Gemm,
            Dtype::F64,
            ExecTable::new(vec![(256, 1e-3)]),
        );
        p
    }

    #[test]
    fn insert_and_lookup() {
        let p = profile();
        assert!(p.exec_table(RoutineClass::Gemm, Dtype::F64).is_some());
        assert!(p.exec_table(RoutineClass::Gemm, Dtype::F32).is_none());
        assert!(p.exec_table(RoutineClass::Axpy, Dtype::F64).is_none());
    }

    #[test]
    fn predict_offload_selects_and_degrades() {
        use crate::models::ModelKind;
        use crate::params::{Loc, ProblemSpec};
        let mut p = profile();
        p.insert_exec(
            RoutineClass::Gemm,
            Dtype::F64,
            ExecTable::new(vec![(256, 1e-3), (512, 7e-3), (1024, 5e-2)]),
        );
        let gemm = ProblemSpec::gemm(
            Dtype::F64,
            2048,
            2048,
            2048,
            Loc::Host,
            Loc::Host,
            Loc::Host,
            true,
        );
        // Full selection sweep: the winner is one of the table's tiles.
        let pred = p.predict_offload(&gemm, None, None).expect("predicts");
        assert!(pred.total > 0.0);
        assert!([256, 512, 1024].contains(&pred.tile));
        assert_eq!(pred.model, ModelKind::recommended_for(RoutineClass::Gemm));
        // Fixed tile: evaluated at exactly that size.
        let fixed = p.predict_offload(&gemm, None, Some(512)).expect("predicts");
        assert_eq!(fixed.tile, 512);
        // Explicit model override is respected.
        let bts = p
            .predict_offload(&gemm, Some(ModelKind::Bts), Some(512))
            .expect("predicts");
        assert_eq!(bts.model, ModelKind::Bts);
        // Missing exec table (no f32 gemm benchmarked) degrades to None
        // instead of erroring, as does an unevaluable model (CSO needs a
        // full kernel time) and a zero tile.
        let sgemm = ProblemSpec::gemm(
            Dtype::F32,
            2048,
            2048,
            2048,
            Loc::Host,
            Loc::Host,
            Loc::Host,
            true,
        );
        assert!(p.predict_offload(&sgemm, None, None).is_none());
        assert!(p
            .predict_offload(&gemm, Some(ModelKind::Cso), Some(512))
            .is_none());
        assert!(p.predict_offload(&gemm, None, Some(0)).is_none());
    }

    #[test]
    fn json_round_trip() {
        let p = profile();
        let json = p.to_json().expect("serialize");
        let back = SystemProfile::from_json(&json).expect("parse");
        assert_eq!(p, back);
    }

    #[test]
    fn malformed_json_is_error() {
        assert!(SystemProfile::from_json("{not json").is_err());
    }
}
