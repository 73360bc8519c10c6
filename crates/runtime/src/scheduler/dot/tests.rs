//! The dot plan `part[i] = x[i]·y[i]` on the interpreter: each chunk's
//! partial lands in its own slot, and the slots drain in one transfer.

use crate::error::RuntimeError;
use crate::operand::VecOperand;
use crate::scheduler::tests::{quiet_gpu, run_plan};
use crate::scheduler::{OperandStore, RunStats, TilePlan};
use cocopelia_gpusim::{EngineKind, Gpu, Routine};

/// `xᵀy` at tile `t`; returns the host sum of the partials in functional
/// mode.
fn dot(
    gpu: &mut Gpu,
    x: VecOperand<f64>,
    y: VecOperand<f64>,
    t: usize,
) -> Result<(Option<f64>, RunStats), RuntimeError> {
    let plan = TilePlan::new(Routine::Dot, 1.0, 1.0, &[(x.len(), 1), (y.len(), 1)])?;
    let stores = [x, y].map(|op| OperandStore::from_vec(gpu, op));
    let (partials, stats) = run_plan::<f64>(gpu, plan, &stores, t)?;
    Ok((partials.map(|p| p.iter().sum()), stats))
}

#[test]
fn tiled_dot_matches_reference() {
    let n = 1000;
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
    let expect = cocopelia_hostblas::level1::dot(&x, &y);

    let mut gpu = quiet_gpu(true);
    let (got, stats) = dot(&mut gpu, VecOperand::Host(x), VecOperand::Host(y), 256).expect("runs");
    assert_eq!(stats.subkernels, 4);
    let got = got.expect("functional");
    assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    assert_eq!(gpu.device_mem_used(), 0);
}

#[test]
fn partials_drain_in_one_transfer() {
    let n = 1 << 22;
    let mut gpu = quiet_gpu(false);
    let (x, y) = (
        VecOperand::HostGhost { len: n },
        VecOperand::HostGhost { len: n },
    );
    dot(&mut gpu, x, y, 1 << 20).expect("runs");
    // d2h traffic: exactly the 4 partial slots.
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyD2h), 4 * 8);
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyH2d), 2 * n * 8);
}

#[test]
fn self_dot_gives_squared_norm() {
    let n = 64;
    let x: Vec<f64> = vec![2.0; n];
    let mut gpu = quiet_gpu(true);
    let (got, _) = dot(
        &mut gpu,
        VecOperand::Host(x.clone()),
        VecOperand::Host(x),
        16,
    )
    .expect("runs");
    assert_eq!(got.expect("functional"), 4.0 * n as f64);
}

#[test]
fn length_mismatch_rejected() {
    assert!(matches!(
        TilePlan::new(Routine::Dot, 1.0, 1.0, &[(4, 1), (5, 1)]),
        Err(RuntimeError::DimensionMismatch { .. })
    ));
}
