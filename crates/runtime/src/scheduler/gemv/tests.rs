//! The gemv plan `y[i] += A[i,p]·x[p]` on the interpreter.

use crate::error::RuntimeError;
use crate::operand::{MatOperand, VecOperand};
use crate::scheduler::tests::{quiet_gpu, run_plan};
use crate::scheduler::{OperandStore, RunStats, TilePlan};
use cocopelia_gpusim::{EngineKind, Gpu, Routine};
use cocopelia_hostblas::{level2, Matrix};

/// `y ← α·A·x + β·y` at tile `t`; returns `y` when it carried host data in
/// functional mode.
fn gemv(
    gpu: &mut Gpu,
    alpha: f64,
    (a, x): (MatOperand<f64>, VecOperand<f64>),
    beta: f64,
    y: VecOperand<f64>,
    t: usize,
) -> Result<(Option<Vec<f64>>, RunStats), RuntimeError> {
    let shapes = [(a.rows(), a.cols()), (x.len(), 1), (y.len(), 1)];
    let plan = TilePlan::new(Routine::Gemv, alpha, beta, &shapes)?;
    let a = OperandStore::from_mat(gpu, a);
    let stores = [
        a,
        OperandStore::from_vec(gpu, x),
        OperandStore::from_vec(gpu, y),
    ];
    run_plan::<f64>(gpu, plan, &stores, t)
}

#[test]
fn tiled_gemv_matches_reference() {
    let (m, n) = (37, 53);
    let a = Matrix::<f64>::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
    let y: Vec<f64> = (0..m).map(|i| i as f64).collect();
    let mut expect = y.clone();
    level2::gemv(1.5, &a.view(), &x, 0.25, &mut expect);

    let mut gpu = quiet_gpu(true);
    let ax = (MatOperand::Host(a), VecOperand::Host(x));
    let (got, stats) = gemv(&mut gpu, 1.5, ax, 0.25, VecOperand::Host(y), 16).expect("runs");
    for (g, e) in got.expect("functional y").iter().zip(&expect) {
        assert!((g - e).abs() < 1e-10, "{g} vs {e}");
    }
    assert_eq!(stats.subkernels, 3 * 4);
    assert_eq!(gpu.device_mem_used(), 0);
}

#[test]
fn x_tiles_fetched_once_across_row_blocks() {
    let (m, n) = (64, 64);
    let mut gpu = quiet_gpu(false);
    let ax = (
        MatOperand::HostGhost { rows: m, cols: n },
        VecOperand::HostGhost { len: n },
    );
    let y = VecOperand::HostGhost { len: m };
    gemv(&mut gpu, 1.0, ax, 1.0, y, 16).expect("runs");
    // h2d = A (m*n) + x (n) + y (m); x reused across the 4 row blocks.
    let h2d = gpu.trace().bytes_moved(EngineKind::CopyH2d);
    assert_eq!(h2d, (m * n + n + m) * 8);
}

#[test]
fn dim_mismatch_rejected() {
    let plan = |shapes: &[(usize, usize)]| TilePlan::new(Routine::Gemv, 1.0, 0.0, shapes);
    let err = plan(&[(4, 4), (5, 1), (4, 1)]).expect_err("bad x");
    assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
    let err = plan(&[(4, 4), (4, 1), (5, 1)]).expect_err("bad y");
    assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
}
