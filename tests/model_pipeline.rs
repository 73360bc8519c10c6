//! The prediction loop closed end-to-end: deploy micro-benchmarks on a
//! simulated testbed, predict offload times with the paper's models, run
//! the actual schedules, and check the predictions track the measurements.

use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_deploy::{deploy, measure_full_kernel, CiConfig, DeployConfig};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, KernelShape, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{Cocopelia, GemmRequest, MatOperand, TileChoice};
use proptest::prelude::*;

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn lab() -> (TestbedSpec, cocopelia_core::profile::SystemProfile) {
    let tb = quiet();
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024, 2048];
    cfg.gemm_tiles = (1..=8).map(|i| i * 256).collect();
    cfg.axpy_tiles = vec![1 << 19, 1 << 20, 1 << 21, 1 << 22];
    cfg.gemv_tiles = vec![512, 1024];
    let report = deploy(&tb, &cfg).expect("deploys");
    (tb, report.profile)
}

fn measure_gemm(
    tb: &TestbedSpec,
    profile: &cocopelia_core::profile::SystemProfile,
    n: usize,
    t: usize,
) -> f64 {
    let mut ctx = Cocopelia::new(
        Gpu::new(tb.clone(), ExecMode::TimingOnly, 5),
        profile.clone(),
    );
    GemmRequest::new(
        MatOperand::<f64>::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(t))
    .run(&mut ctx)
    .expect("runs")
    .report
    .elapsed
    .as_secs_f64()
}

#[test]
fn dr_model_tracks_reuse_scheduler_within_15_percent() {
    let (tb, profile) = lab();
    let exec = profile
        .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
        .expect("gemm table");
    for n in [2048usize, 4096] {
        for t in [512usize, 1024] {
            let problem =
                ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
            let ctx = ModelCtx {
                problem: &problem,
                transfer: &profile.transfer,
                exec,
                full_kernel_time: None,
            };
            let pred = predict(ModelKind::DataReuse, &ctx, t)
                .expect("predicts")
                .total;
            let meas = measure_gemm(&tb, &profile, n, t);
            let err = (pred - meas).abs() / meas;
            assert!(
                err < 0.15,
                "n={n} T={t}: pred {pred:.4} meas {meas:.4} err {:.1}%",
                err * 100.0
            );
        }
    }
}

#[test]
fn dr_predictions_rank_tiles_usefully() {
    // The measured best tile must be within 5% of the tile the model picks.
    let (tb, profile) = lab();
    let exec = profile
        .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
        .expect("gemm table");
    let n = 4096;
    let problem = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
    let ctx = ModelCtx {
        problem: &problem,
        transfer: &profile.transfer,
        exec,
        full_kernel_time: None,
    };
    let tiles: Vec<usize> = (1..=8).map(|i| i * 256).collect();
    let mut best_pred = (0usize, f64::INFINITY);
    let mut best_meas = (0usize, f64::INFINITY);
    let mut meas_at = std::collections::HashMap::new();
    for &t in &tiles {
        let p = predict(ModelKind::DataReuse, &ctx, t)
            .expect("predicts")
            .total;
        let m = measure_gemm(&tb, &profile, n, t);
        meas_at.insert(t, m);
        if p < best_pred.1 {
            best_pred = (t, p);
        }
        if m < best_meas.1 {
            best_meas = (t, m);
        }
    }
    let selected_meas = meas_at[&best_pred.0];
    assert!(
        selected_meas <= best_meas.1 * 1.05,
        "selected T={} measures {selected_meas:.4}, optimum T={} measures {:.4}",
        best_pred.0,
        best_meas.0,
        best_meas.1
    );
}

#[test]
fn cso_underpredicts_on_reuse_scheduler() {
    // The headline qualitative claim of Figure 5: the reuse-blind CSO model
    // is much less accurate than DR on the CoCoPeLia implementation.
    let (tb, profile) = lab();
    let exec = profile
        .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
        .expect("gemm table");
    let n = 4096;
    let t = 512;
    let problem = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
    let full = measure_full_kernel(
        &tb,
        KernelShape::Gemm {
            dtype: Dtype::F64,
            m: n,
            n,
            k: n,
        },
        &CiConfig::default(),
        3,
    )
    .expect("kernel probe");
    let ctx = ModelCtx {
        problem: &problem,
        transfer: &profile.transfer,
        exec,
        full_kernel_time: Some(full),
    };
    let meas = measure_gemm(&tb, &profile, n, t);
    let dr = predict(ModelKind::DataReuse, &ctx, t).expect("dr").total;
    let cso = predict(ModelKind::Cso, &ctx, t).expect("cso").total;
    let dr_err = (dr - meas).abs() / meas;
    let cso_err = (cso - meas).abs() / meas;
    assert!(
        dr_err < cso_err,
        "DR {:.1}% !< CSO {:.1}%",
        dr_err * 100.0,
        cso_err * 100.0
    );
}

#[test]
fn drift_records_populated_and_match_hand_computed_errors() {
    // Every model-driven (and fixed-tile, profile-backed) call must leave
    // per-model drift records whose errors agree with predictions recomputed
    // here by hand from the same profile.
    let (tb, profile) = lab();
    let mut ctx = Cocopelia::new(Gpu::new(tb, ExecMode::TimingOnly, 5), profile.clone());
    let n = 4096;
    let out = GemmRequest::new(
        MatOperand::<f64>::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Model(ModelKind::DataReuse))
    .run(&mut ctx)
    .expect("runs")
    .report;

    // One record per evaluable model: CSO is skipped (no full kernel time).
    assert_eq!(out.drift.len(), 4);
    assert!(out.drift.iter().all(|r| r.model != ModelKind::Cso));

    let exec = profile
        .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
        .expect("gemm table");
    let problem = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
    let mctx = ModelCtx {
        problem: &problem,
        transfer: &profile.transfer,
        exec,
        full_kernel_time: None,
    };
    let actual = out.elapsed.as_secs_f64();
    for rec in &out.drift {
        assert_eq!(rec.tile, out.tile);
        assert_eq!(rec.actual_secs, actual);
        let by_hand = predict(rec.model, &mctx, out.tile).expect("predicts").total;
        assert_eq!(rec.predicted_secs, by_hand, "{:?}", rec.model);
        let hand_err = (by_hand - actual) / actual;
        assert!((rec.signed_rel_err() - hand_err).abs() < 1e-15);
    }

    // The observer aggregates agree with the same hand computation, and the
    // chosen DR model tracks the scheduler far better than reuse-blind Eq. 1.
    let obs = ctx.observer();
    assert_eq!(obs.drift().records().len(), 4);
    let dr = obs
        .drift()
        .model_stats(ModelKind::DataReuse)
        .expect("DR scored");
    let dr_hand = (predict(ModelKind::DataReuse, &mctx, out.tile)
        .expect("dr")
        .total
        - actual)
        / actual;
    assert_eq!(dr.count, 1);
    assert!((dr.mean_signed() - dr_hand).abs() < 1e-15);
    assert!((dr.mean_abs() - dr_hand.abs()).abs() < 1e-15);
    let base = obs
        .drift()
        .model_stats(ModelKind::Baseline)
        .expect("baseline scored");
    assert!(
        dr.mean_abs() < base.mean_abs(),
        "DR must out-predict Eq. 1 on the reuse scheduler"
    );
    assert!(
        dr.mean_abs() < 0.15,
        "DR drift {:.1}% too large",
        dr.mean_abs() * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Model sanity: predictions are positive, finite, and monotone in the
    /// problem volume for a fixed tile.
    #[test]
    fn predictions_monotone_in_problem_size(
        base in 1024usize..2048,
        growth in 1usize..4,
        t in 256usize..512,
    ) {
        let (_, profile) = lab_cached();
        let exec = profile
            .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
            .expect("gemm table");
        let small = ProblemSpec::gemm(Dtype::F64, base, base, base, Loc::Host, Loc::Host, Loc::Host, true);
        let big_n = base * (1 + growth);
        let big = ProblemSpec::gemm(Dtype::F64, big_n, big_n, big_n, Loc::Host, Loc::Host, Loc::Host, true);
        for kind in [ModelKind::Baseline, ModelKind::DataLoc, ModelKind::Bts, ModelKind::DataReuse] {
            let c1 = ModelCtx { problem: &small, transfer: &profile.transfer, exec, full_kernel_time: None };
            let c2 = ModelCtx { problem: &big, transfer: &profile.transfer, exec, full_kernel_time: None };
            let p1 = predict(kind, &c1, t).expect("small").total;
            let p2 = predict(kind, &c2, t).expect("big").total;
            prop_assert!(p1.is_finite() && p2.is_finite() && p1 > 0.0);
            prop_assert!(p2 > p1, "{kind:?}: {p2} !> {p1}");
        }
    }

    /// Reuse can only help: DR <= DataLoc for full-offload gemm.
    #[test]
    fn reuse_never_predicted_slower(
        n in 1024usize..4096,
        t in 256usize..1024,
    ) {
        let (_, profile) = lab_cached();
        let exec = profile
            .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
            .expect("gemm table");
        let problem = ProblemSpec::gemm(Dtype::F64, n, n, n, Loc::Host, Loc::Host, Loc::Host, true);
        let ctx = ModelCtx { problem: &problem, transfer: &profile.transfer, exec, full_kernel_time: None };
        let dl = predict(ModelKind::DataLoc, &ctx, t).expect("dataloc").total;
        let dr = predict(ModelKind::DataReuse, &ctx, t).expect("dr").total;
        prop_assert!(dr <= dl * 1.001, "DR {dr} vs DataLoc {dl}");
    }
}

/// Deployment is expensive relative to a proptest case; cache one profile
/// for the whole process.
fn lab_cached() -> (TestbedSpec, cocopelia_core::profile::SystemProfile) {
    use std::sync::OnceLock;
    static LAB: OnceLock<(TestbedSpec, cocopelia_core::profile::SystemProfile)> = OnceLock::new();
    LAB.get_or_init(lab).clone()
}

/// The counts every model assumes hold on the executed schedule: over
/// dgemm, sgemm, dgemv, daxpy and ddot at dividing and non-dividing sizes
/// and tiles, every Host/Device location mix, and `C`/`y` both read
/// (`β ≠ 0`) and write-only, a direct call moves Σ get_i·bytes_i h2d in
/// Σ get_i·tiles_i copies (each tile fetched once), each of them one tile
/// miss (a write-only tile copies nothing and is not one), Σ set_i·bytes_i
/// d2h (ddot drains only its `subkernels(t)` partials), and launches
/// `subkernels(t)` kernels.
#[test]
fn executed_volumes_match_the_model_counts() {
    use cocopelia_core::params::RoutineClass;
    use cocopelia_core::profile::SystemProfile;
    use cocopelia_core::transfer::{LatBw, TransferModel};
    use cocopelia_gpusim::EngineKind;

    let unfit = LatBw { t_l: 0.0, t_b: 0.0 };
    let profile = SystemProfile::new(
        "volumes",
        TransferModel {
            h2d: unfit,
            d2h: unfit,
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    );
    let mut ctx = Cocopelia::new(Gpu::new(quiet(), ExecMode::TimingOnly, 3), profile);
    let locs = |n: usize| -> Vec<Vec<Loc>> {
        (0..1usize << n)
            .map(|bits| {
                (0..n)
                    .map(|i| match bits >> i & 1 {
                        0 => Loc::Host,
                        _ => Loc::Device,
                    })
                    .collect()
            })
            .collect()
    };
    let mut problems = Vec::new();
    for beta in [true, false] {
        for dtype in [Dtype::F64, Dtype::F32] {
            for (m, n, k) in [(64, 64, 64), (100, 70, 45)] {
                for l in locs(3) {
                    problems.push(ProblemSpec::gemm(dtype, m, n, k, l[0], l[1], l[2], beta));
                }
            }
        }
        for (m, n) in [(64, 64), (100, 45)] {
            for l in locs(3) {
                problems.push(ProblemSpec::gemv(Dtype::F64, m, n, l[0], l[1], l[2], beta));
            }
        }
    }
    for n in [1024, 1000] {
        for l in locs(2) {
            problems.push(ProblemSpec::axpy(Dtype::F64, n, l[0], l[1]));
            problems.push(ProblemSpec::dot(Dtype::F64, n, l[0], l[1]));
        }
    }
    for spec in &problems {
        let tiles: &[usize] = match spec.routine {
            RoutineClass::Gemm | RoutineClass::Gemv => &[16, 24, 64],
            RoutineClass::Axpy | RoutineClass::Dot => &[128, 300, 1024],
        };
        for &t in tiles {
            let start = ctx.gpu().trace().len();
            let req = ctx
                .ghost_request(spec, TileChoice::Fixed(t))
                .expect("request");
            let report = ctx.submit(req).expect("runs");
            let (mut h2d_bytes, mut h2d_copies, mut d2h_bytes, mut kernels) = (0, 0, 0, 0);
            for e in ctx.gpu().trace().entries_since(start).iter() {
                match e.engine {
                    EngineKind::CopyH2d => {
                        h2d_bytes += e.bytes().expect("copy bytes");
                        h2d_copies += 1;
                    }
                    EngineKind::CopyD2h => d2h_bytes += e.bytes().expect("copy bytes"),
                    EngineKind::Compute => kernels += 1,
                }
            }
            let ops = &spec.operands;
            let width = spec.dtype.width();
            let get_bytes: usize = ops
                .iter()
                .filter(|o| o.get())
                .map(|o| o.bytes(spec.dtype))
                .sum();
            let get_tiles: usize = ops.iter().filter(|o| o.get()).map(|o| o.tiles(t)).sum();
            let set_bytes: usize = match spec.routine {
                RoutineClass::Dot => spec.subkernels(t) * width,
                _ => ops
                    .iter()
                    .filter(|o| o.set())
                    .map(|o| o.bytes(spec.dtype))
                    .sum(),
            };
            let what = format!("{spec:?} at T={t}");
            assert_eq!(h2d_bytes, get_bytes, "h2d bytes of {what}");
            assert_eq!(h2d_copies, get_tiles, "h2d copies of {what}");
            assert_eq!(
                report.tile_misses, get_tiles as u64,
                "tile misses of {what}"
            );
            assert_eq!(d2h_bytes, set_bytes, "d2h bytes of {what}");
            assert_eq!(kernels, spec.subkernels(t), "kernels of {what}");
            assert_eq!(report.subkernels, spec.subkernels(t), "{what}");
        }
    }
}
