//! End-to-end integration: deployment → profile → runtime selection →
//! functionally-verified execution, across the whole crate stack.

use cocopelia_core::models::ModelKind;
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, testbed_ii, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::{level1, level2, level3, validate, Dtype, Matrix};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, TileChoice,
    VecOperand,
};

fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
    tb.noise = NoiseSpec::NONE;
    tb
}

fn quick_cfg() -> DeployConfig {
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024, 2048];
    cfg.gemm_tiles = vec![256, 512, 768, 1024];
    cfg.axpy_tiles = vec![1 << 19, 1 << 20, 1 << 21];
    cfg.gemv_tiles = vec![512, 1024];
    cfg
}

fn ctx(tb: TestbedSpec, functional: bool) -> Cocopelia {
    let tb = quiet(tb);
    let report = deploy(&tb, &quick_cfg()).expect("deploys");
    let mode = if functional {
        ExecMode::Functional
    } else {
        ExecMode::TimingOnly
    };
    Cocopelia::new(Gpu::new(tb, mode, 42), report.profile)
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

#[test]
fn dgemm_auto_selection_is_correct_and_fast() {
    let mut ctx = ctx(testbed_i(), true);
    let n = 640;
    let a = rand_matrix(n, n, 1);
    let b = rand_matrix(n, n, 2);
    let c = rand_matrix(n, n, 3);
    let mut expect = c.clone();
    level3::gemm(1.0, &a.view(), &b.view(), 1.0, &mut expect.view_mut());

    let out = GemmRequest::new(a, b, c)
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Auto)
        .run(&mut ctx)
        .expect("runs");
    // Auto selection used the DR model and picked a tile from the profile.
    let sel = out.report.selection.as_ref().expect("auto selects");
    assert_eq!(sel.prediction.model, ModelKind::DataReuse);
    assert!(out.report.tile >= 256 && out.report.tile <= 640);
    // Numerics match the reference.
    let got = out.c.expect("functional");
    assert!(
        validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(n)),
        "max rel err {}",
        validate::max_rel_err(got.as_slice(), expect.as_slice())
    );
}

#[test]
fn selection_cache_reuses_model_across_calls() {
    let mut ctx = ctx(testbed_i(), false);
    let run = |ctx: &mut Cocopelia| {
        GemmRequest::new(
            MatOperand::<f64>::HostGhost {
                rows: 2048,
                cols: 2048,
            },
            MatOperand::HostGhost {
                rows: 2048,
                cols: 2048,
            },
            MatOperand::HostGhost {
                rows: 2048,
                cols: 2048,
            },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Auto)
        .run(ctx)
        .expect("runs")
    };
    let first = run(&mut ctx);
    assert_eq!(ctx.cached_selections(), 1);
    let second = run(&mut ctx);
    assert_eq!(
        ctx.cached_selections(),
        1,
        "same parameter set reuses the model"
    );
    assert_eq!(first.report.tile, second.report.tile);
    // Every reuse shares the cached selection's curve instead of copying it.
    let curve = |r: &cocopelia_runtime::RoutineReport| {
        r.selection
            .as_ref()
            .expect("auto selects")
            .evaluated
            .clone()
    };
    assert!(std::sync::Arc::ptr_eq(
        &curve(&first.report),
        &curve(&second.report)
    ));
    // A different location combination is a different model instance.
    let dev = ctx.alloc_matrix(Dtype::F64, 2048, 2048).expect("alloc");
    GemmRequest::<f64>::new(
        MatOperand::Device(dev),
        MatOperand::HostGhost {
            rows: 2048,
            cols: 2048,
        },
        MatOperand::HostGhost {
            rows: 2048,
            cols: 2048,
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Auto)
    .run(&mut ctx)
    .expect("runs");
    assert_eq!(ctx.cached_selections(), 2);
}

#[test]
fn daxpy_auto_runs_and_verifies() {
    let mut ctx = ctx(testbed_ii(), true);
    let n = 1_500_000;
    let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
    let y: Vec<f64> = (0..n).map(|i| (i % 31) as f64).collect();
    let expect: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + b).collect();
    let out = AxpyRequest::new(VecOperand::Host(x), VecOperand::Host(y))
        .alpha(2.0)
        .tile(TileChoice::Auto)
        .run(&mut ctx)
        .expect("runs");
    let sel = out.report.selection.as_ref().expect("auto selects");
    assert_eq!(sel.prediction.model, ModelKind::Bts);
    assert_eq!(out.y.expect("functional"), expect);
}

#[test]
fn ddot_reduction_runs_with_auto_selection() {
    let mut ctx = ctx(testbed_i(), true);
    let n = 1_200_000;
    let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 0.2).collect();
    let expect = cocopelia_hostblas::level1::dot(&x, &y);
    let out = DotRequest::new(VecOperand::Host(x), VecOperand::Host(y))
        .tile(TileChoice::Auto)
        .run(&mut ctx)
        .expect("runs");
    // Level-1 routine: the BTS model drives the selection.
    let sel = out.report.selection.as_ref().expect("auto selects");
    assert_eq!(sel.prediction.model, ModelKind::Bts);
    let got = out.value.expect("functional");
    assert!(
        (got - expect).abs() < expect.abs().max(1.0) * 1e-12,
        "{got} vs {expect}"
    );
    assert!(out.report.subkernels >= 2, "reduction actually tiled");
}

#[test]
fn dgemv_extension_runs_with_auto_selection() {
    let mut ctx = ctx(testbed_i(), true);
    let (m, n) = (700, 600);
    let a = rand_matrix(m, n, 7);
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.1).collect();
    let y: Vec<f64> = vec![1.0; m];
    let mut expect = y.clone();
    cocopelia_hostblas::level2::gemv(0.5, &a.view(), &x, 2.0, &mut expect);

    let out = GemvRequest::new(
        MatOperand::Host(a),
        VecOperand::Host(x),
        VecOperand::Host(y),
    )
    .alpha(0.5)
    .beta(2.0)
    .tile(TileChoice::Auto)
    .run(&mut ctx)
    .expect("runs");
    let got = out.y.expect("functional");
    for (g, e) in got.iter().zip(&expect) {
        assert!((g - e).abs() < 1e-9, "{g} vs {e}");
    }
}

#[test]
fn device_resident_round_trip_through_uploads() {
    let mut ctx = ctx(testbed_ii(), true);
    let n = 320;
    let a = rand_matrix(n, n, 9);
    let b = rand_matrix(n, n, 10);
    let mut expect = Matrix::<f64>::zeros(n, n);
    level3::gemm(1.0, &a.view(), &b.view(), 0.0, &mut expect.view_mut());

    let da = ctx.upload_matrix(&a).expect("upload a");
    let db = ctx.upload_matrix(&b).expect("upload b");
    let dc = ctx.alloc_matrix(Dtype::F64, n, n).expect("alloc c");
    let out = GemmRequest::<f64>::new(
        MatOperand::Device(da),
        MatOperand::Device(db),
        MatOperand::Device(dc),
    )
    .tile(TileChoice::Fixed(256))
    .run(&mut ctx)
    .expect("runs");
    // Fully-resident output: nothing returned inline…
    assert!(out.c.is_none());
    // …but downloadable.
    let got: Matrix<f64> = ctx.download_matrix(&dc).expect("download");
    assert!(validate::matrices_close(
        &got,
        &expect,
        validate::gemm_tolerance::<f64>(n)
    ));
    ctx.free_matrix(da).expect("free");
    ctx.free_matrix(db).expect("free");
    ctx.free_matrix(dc).expect("free");
}

#[test]
fn device_resident_vectors_round_trip_through_uploads() {
    let mut ctx = ctx(testbed_ii(), true);
    let (m, n) = (96, 80);
    let a = rand_matrix(m, n, 11);
    let x = rand_matrix(n, 1, 12).as_slice().to_vec();
    let y = rand_matrix(n, 1, 13).as_slice().to_vec();

    // axpy on two resident vectors updates y in place on the device.
    let mut expect_axpy = y.clone();
    level1::axpy(1.5, &x, &mut expect_axpy);
    let dx = ctx.upload_vector(&x).expect("upload x");
    let dy = ctx.upload_vector(&y).expect("upload y");
    let out = AxpyRequest::<f64>::new(VecOperand::Device(dx), VecOperand::Device(dy))
        .alpha(1.5)
        .tile(TileChoice::Fixed(32))
        .run(&mut ctx)
        .expect("axpy runs");
    assert!(out.y.is_none(), "a resident y is not returned inline");
    let got: Vec<f64> = ctx.download_vector(&dy).expect("download y");
    assert_eq!(got, expect_axpy);

    // gemv reads the resident x and writes a freshly allocated y.
    let mut expect_gemv = vec![0.0; m];
    level2::gemv(1.0, &a.view(), &x, 0.0, &mut expect_gemv);
    let da = ctx.upload_matrix(&a).expect("upload a");
    let dz = ctx.alloc_vector(Dtype::F64, m).expect("alloc z");
    let out = GemvRequest::<f64>::new(
        MatOperand::Device(da),
        VecOperand::Device(dx),
        VecOperand::Device(dz),
    )
    .tile(TileChoice::Fixed(32))
    .run(&mut ctx)
    .expect("gemv runs");
    assert!(out.y.is_none());
    let got: Vec<f64> = ctx.download_vector(&dz).expect("download z");
    assert!(validate::max_abs_err(&got, &expect_gemv) < 1e-12);

    ctx.free_matrix(da).expect("free");
    for v in [dx, dy, dz] {
        ctx.free_vector(v).expect("free");
    }
    assert_eq!(ctx.gpu().device_mem_used(), 0);
}

#[test]
fn overlap_beats_serial_schedule_end_to_end() {
    let tb = quiet(testbed_i());
    let report = deploy(&tb, &quick_cfg()).expect("deploys");
    // Overlapped run.
    let mut ctx = Cocopelia::new(
        Gpu::new(tb.clone(), ExecMode::TimingOnly, 1),
        report.profile.clone(),
    );
    let coco = GemmRequest::new(
        MatOperand::<f64>::HostGhost {
            rows: 3072,
            cols: 3072,
        },
        MatOperand::HostGhost {
            rows: 3072,
            cols: 3072,
        },
        MatOperand::HostGhost {
            rows: 3072,
            cols: 3072,
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Auto)
    .run(&mut ctx)
    .expect("runs");
    // Serial offload of the same problem.
    let mut gpu = Gpu::new(tb, ExecMode::TimingOnly, 1);
    let serial = cocopelia_baselines::serial::gemm::<f64>(
        &mut gpu,
        1.0,
        MatOperand::HostGhost {
            rows: 3072,
            cols: 3072,
        },
        MatOperand::HostGhost {
            rows: 3072,
            cols: 3072,
        },
        1.0,
        MatOperand::HostGhost {
            rows: 3072,
            cols: 3072,
        },
    )
    .expect("runs");
    assert!(
        coco.report.elapsed.as_secs_f64() < serial.elapsed.as_secs_f64(),
        "overlap {} !< serial {}",
        coco.report.elapsed,
        serial.elapsed
    );
}

#[test]
fn select_tile_agrees_with_direct_model_evaluation() {
    let mut ctx = ctx(testbed_ii(), false);
    let problem = ProblemSpec::gemm(
        Dtype::F64,
        4096,
        4096,
        4096,
        Loc::Host,
        Loc::Host,
        Loc::Host,
        true,
    );
    let sel = ctx
        .select_tile(&problem, ModelKind::DataReuse)
        .expect("selects");
    // The winner must be the argmin of the evaluated curve.
    for e in sel.evaluated.iter() {
        assert!(sel.prediction.total <= e.total + 1e-15);
    }
}
