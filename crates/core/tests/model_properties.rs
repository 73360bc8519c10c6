//! Property-based invariants of the prediction models over random
//! problems, tiles and (synthetic) machine parameters.

use cocopelia_core::exec_table::ExecTable;
use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_core::select::TileSelector;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_hostblas::Dtype;
use proptest::prelude::*;

/// A gemm-plausible synthetic exec table: cubic in `T` plus overhead.
fn exec_table(per_flop: f64) -> ExecTable {
    ExecTable::new(
        (1..=32)
            .map(|i| {
                let t = i * 256;
                (t, 1e-5 + 2.0 * (t as f64).powi(3) * per_flop)
            })
            .collect(),
    )
}

fn transfer(bw: f64, sl_h2d: f64, sl_d2h: f64) -> TransferModel {
    TransferModel {
        h2d: LatBw {
            t_l: 5e-6,
            t_b: 1.0 / bw,
        },
        d2h: LatBw {
            t_l: 5e-6,
            t_b: 1.0 / bw,
        },
        sl_h2d,
        sl_d2h,
    }
}

fn loc(b: bool) -> Loc {
    if b {
        Loc::Host
    } else {
        Loc::Device
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every CoCoPeLia model produces a positive, finite prediction that is
    /// at least the kernel-only lower bound (k sub-kernels never finish
    /// faster than their compute time).
    #[test]
    fn predictions_respect_compute_lower_bound(
        n in 512usize..16384,
        t in 256usize..4096,
        bw in 1e9f64..50e9,
        a_host in any::<bool>(),
        b_host in any::<bool>(),
    ) {
        let p = ProblemSpec::gemm(
            Dtype::F64, n, n, n, loc(a_host), loc(b_host), Loc::Host, true,
        );
        let ex = exec_table(1.0 / 5e12);
        let tr = transfer(bw, 1.2, 1.4);
        let ctx = ModelCtx { problem: &p, transfer: &tr, exec: &ex, full_kernel_time: None };
        for kind in [ModelKind::Baseline, ModelKind::DataLoc, ModelKind::Bts, ModelKind::DataReuse] {
            let pred = predict(kind, &ctx, t).expect("predicts");
            prop_assert!(pred.total.is_finite() && pred.total > 0.0);
            // k sub-kernels of (averaged) kernel time each.
            let lower = pred.k as f64 * pred.t_gpu_tile * 0.999;
            prop_assert!(pred.total >= lower, "{kind:?}: {} < {lower}", pred.total);
        }
    }

    /// Model generations order correctly: Baseline >= DataLoc (location
    /// awareness only removes transfers), Bts >= DataLoc (slowdowns only
    /// add time), DataLoc >= DataReuse for full offload (reuse only removes
    /// transfers).
    #[test]
    fn model_generation_ordering(
        n in 1024usize..12288,
        t in 256usize..2048,
        bw in 1e9f64..30e9,
        sl in 1.0f64..1.8,
    ) {
        let p = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
        let ex = exec_table(1.0 / 5e12);
        let tr = transfer(bw, sl, sl * 1.1);
        let ctx = ModelCtx { problem: &p, transfer: &tr, exec: &ex, full_kernel_time: None };
        let base = predict(ModelKind::Baseline, &ctx, t).expect("eq1").total;
        let dloc = predict(ModelKind::DataLoc, &ctx, t).expect("eq2").total;
        let bts = predict(ModelKind::Bts, &ctx, t).expect("eq4").total;
        let dr = predict(ModelKind::DataReuse, &ctx, t).expect("eq5").total;
        let eps = 1e-12;
        prop_assert!(base >= dloc - eps, "Eq1 {base} < Eq2 {dloc}");
        prop_assert!(bts >= dloc - eps, "Eq4 {bts} < Eq2 {dloc}");
        prop_assert!(dr <= bts + eps, "Eq5 {dr} > Eq4 {bts}");
    }

    /// Faster links never increase any model's prediction.
    #[test]
    fn monotone_in_bandwidth(
        n in 1024usize..8192,
        t in 256usize..2048,
        bw in 1e9f64..20e9,
        scale in 1.1f64..8.0,
    ) {
        let p = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
        let ex = exec_table(1.0 / 5e12);
        let slow = transfer(bw, 1.2, 1.4);
        let fast = transfer(bw * scale, 1.2, 1.4);
        for kind in [ModelKind::Baseline, ModelKind::DataLoc, ModelKind::Bts, ModelKind::DataReuse] {
            let ps = predict(kind, &ModelCtx { problem: &p, transfer: &slow, exec: &ex, full_kernel_time: None }, t)
                .expect("slow");
            let pf = predict(kind, &ModelCtx { problem: &p, transfer: &fast, exec: &ex, full_kernel_time: None }, t)
                .expect("fast");
            prop_assert!(pf.total <= ps.total + 1e-12, "{kind:?}");
        }
    }

    /// The selector's winner always comes from its own candidate list and
    /// minimises the evaluated predictions.
    #[test]
    fn selection_is_argmin_over_candidates(
        m in 1024usize..16384,
        n in 1024usize..16384,
        k in 1024usize..16384,
        bw in 1e9f64..40e9,
    ) {
        let p = ProblemSpec::gemm(Dtype::F64, m, n, k, Loc::Host, Loc::Host, Loc::Host, true);
        let ex = exec_table(1.0 / 5e12);
        let tr = transfer(bw, 1.2, 1.4);
        let ctx = ModelCtx { problem: &p, transfer: &tr, exec: &ex, full_kernel_time: None };
        let selector = TileSelector;
        let cands = selector.candidates(&ctx);
        let sel = selector.select(ModelKind::DataReuse, &ctx).expect("selects");
        prop_assert!(cands.contains(&sel.tile));
        for e in sel.evaluated.iter() {
            prop_assert!(sel.prediction.total <= e.total + 1e-15);
        }
    }

    /// Eq. 3's overlap time is always between the slower contended
    /// transfer and the serial sum.
    #[test]
    fn overlap_time_bounds(
        t_in in 1e-6f64..1.0,
        t_out in 1e-6f64..1.0,
        sl_h2d in 1.0f64..2.0,
        sl_d2h in 1.0f64..2.0,
    ) {
        let tr = TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 1e-9 },
            d2h: LatBw { t_l: 0.0, t_b: 1e-9 },
            sl_h2d,
            sl_d2h,
        };
        let t_in_bid = t_in * sl_h2d;
        let t_out_bid = t_out * sl_d2h;
        let over = tr.t_overlap(t_in_bid, t_out_bid);
        prop_assert!(over <= t_in_bid + t_out_bid + 1e-15);
        // Never faster than either transfer running uncontended.
        prop_assert!(over >= t_in - 1e-15);
        prop_assert!(over >= t_out - 1e-15);
    }
}
