//! The axpy plan `y[i] += x[i]` on the interpreter.

use crate::error::RuntimeError;
use crate::operand::VecOperand;
use crate::scheduler::tests::{quiet_gpu, run_plan};
use crate::scheduler::{OperandStore, RunStats, TilePlan};
use cocopelia_gpusim::{EngineKind, Gpu, Routine, SimScalar};

/// `y ← α·x + y` at tile `t`; returns `y` when it carried host data in
/// functional mode.
fn axpy<T: SimScalar>(
    gpu: &mut Gpu,
    alpha: f64,
    x: VecOperand<T>,
    y: VecOperand<T>,
    t: usize,
) -> Result<(Option<Vec<T>>, RunStats), RuntimeError> {
    let plan = TilePlan::new(Routine::Axpy, alpha, 1.0, &[(x.len(), 1), (y.len(), 1)])?;
    let stores = [x, y].map(|op| OperandStore::from_vec(gpu, op));
    run_plan::<T>(gpu, plan, &stores, t)
}

#[test]
fn tiled_axpy_matches_reference() {
    let n = 1000;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
    let expect: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.5 * a + b).collect();

    let mut gpu = quiet_gpu(true);
    // 4 tiles, last one short.
    let (got, stats) =
        axpy(&mut gpu, 2.5, VecOperand::Host(x), VecOperand::Host(y), 256).expect("runs");
    assert_eq!(stats.subkernels, 4);
    assert_eq!(got.expect("functional y"), expect);
    assert_eq!(gpu.device_mem_used(), 0);
}

#[test]
fn transfer_volume_is_2n_in_n_out() {
    let n = 1 << 20;
    let mut gpu = quiet_gpu(false);
    let (x, y) = (
        VecOperand::<f64>::HostGhost { len: n },
        VecOperand::HostGhost { len: n },
    );
    axpy(&mut gpu, 1.0, x, y, 1 << 18).expect("runs");
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyH2d), 2 * n * 8);
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyD2h), n * 8);
}

#[test]
fn length_mismatch_rejected() {
    let err = TilePlan::new(Routine::Axpy, 1.0, 1.0, &[(10, 1), (11, 1)]).expect_err("mismatch");
    assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
}

#[test]
fn f32_axpy_works() {
    let n = 100;
    let mut gpu = quiet_gpu(true);
    let (x, y) = (
        VecOperand::Host(vec![1.0f32; n]),
        VecOperand::Host(vec![2.0f32; n]),
    );
    let (got, _) = axpy(&mut gpu, 3.0, x, y, 32).expect("runs");
    assert!(got.expect("functional").iter().all(|&v| v == 5.0));
}
