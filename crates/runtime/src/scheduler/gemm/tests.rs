//! The gemm plan `C[i,j] += A[i,p]·B[p,j]` on the interpreter.

use crate::error::RuntimeError;
use crate::operand::{DeviceMatrix, MatOperand};
use crate::scheduler::tests::{quiet_gpu, run_plan};
use crate::scheduler::{OperandStore, RunStats, TilePlan};
use cocopelia_gpusim::{CopyDesc, EngineKind, Gpu, Routine};
use cocopelia_hostblas::{level3, validate, Dtype, Matrix};

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn reference(
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) -> Matrix<f64> {
    let mut out = c.clone();
    level3::gemm(alpha, &a.view(), &b.view(), beta, &mut out.view_mut());
    out
}

/// `C ← α·A·B + β·C` over `[A, B, C]` at tile `t`; returns `C` when it
/// carried host data in functional mode.
fn gemm(
    gpu: &mut Gpu,
    alpha: f64,
    [a, b, c]: [MatOperand<f64>; 3],
    beta: f64,
    t: usize,
) -> Result<(Option<Matrix<f64>>, RunStats), RuntimeError> {
    let shape = |m: &MatOperand<f64>| (m.rows(), m.cols());
    let shapes = [shape(&a), shape(&b), shape(&c)];
    let plan = TilePlan::new(Routine::Gemm, alpha, beta, &shapes)?;
    let (m, n) = shape(&c);
    let stores = [a, b, c].map(|op| OperandStore::from_mat(gpu, op));
    let (c, stats) = run_plan::<f64>(gpu, plan, &stores, t)?;
    Ok((c.map(|v| Matrix::from_vec(m, n, v)), stats))
}

fn ghost(rows: usize, cols: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows, cols }
}

#[test]
fn tiled_gemm_matches_reference_with_remainders() {
    // 70x50x90 with tile 32: remainder tiles in every dimension.
    let (m, n, k) = (70, 50, 90);
    let a = rand_matrix(m, k, 1);
    let b = rand_matrix(k, n, 2);
    let c = rand_matrix(m, n, 3);
    let expect = reference(1.5, &a, &b, 0.5, &c);

    let mut gpu = quiet_gpu(true);
    let ops = [a, b, c].map(MatOperand::Host);
    let (got, stats) = gemm(&mut gpu, 1.5, ops, 0.5, 32).expect("runs");
    let got = got.expect("functional C");
    assert!(
        validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
        "max rel err {}",
        validate::max_rel_err(got.as_slice(), expect.as_slice())
    );
    assert_eq!(stats.subkernels, 3 * 2 * 3);
    assert_eq!(gpu.device_mem_used(), 0);
}

#[test]
fn beta_zero_skips_c_fetch_and_overwrites() {
    let (m, n, k) = (16, 16, 16);
    let a = rand_matrix(m, k, 4);
    let b = rand_matrix(k, n, 5);
    let c = rand_matrix(m, n, 6); // junk that must be overwritten
    let expect = reference(2.0, &a, &b, 0.0, &c);

    let mut gpu = quiet_gpu(true);
    let ops = [a, b, c].map(MatOperand::Host);
    let (got, _) = gemm(&mut gpu, 2.0, ops, 0.0, 8).expect("runs");
    assert!(validate::matrices_close(
        &got.expect("functional C"),
        &expect,
        1e-10
    ));
    // No h2d bytes for C: A and B are 16x16 each, fetched in 8x8 tiles.
    let h2d_bytes = gpu.trace().bytes_moved(EngineKind::CopyH2d);
    assert_eq!(h2d_bytes, 2 * 16 * 16 * 8);
}

#[test]
fn reuse_moves_each_tile_once() {
    let mut gpu = quiet_gpu(false);
    let ops = [ghost(64, 64), ghost(64, 64), ghost(64, 64)];
    let (_, stats) = gemm(&mut gpu, 1.0, ops, 1.0, 16).expect("runs");
    assert_eq!(stats.subkernels, 4 * 4 * 4);
    // h2d volume = exactly one copy of A + B + C.
    let h2d_bytes = gpu.trace().bytes_moved(EngineKind::CopyH2d);
    assert_eq!(h2d_bytes, 3 * 64 * 64 * 8);
    // d2h volume = exactly one copy of C.
    let d2h_bytes = gpu.trace().bytes_moved(EngineKind::CopyD2h);
    assert_eq!(d2h_bytes, 64 * 64 * 8);
}

#[test]
fn device_resident_inputs_transfer_nothing() {
    let mut gpu = quiet_gpu(true);
    let n = 32;
    let a = rand_matrix(n, n, 7);
    let b = rand_matrix(n, n, 8);
    let c = Matrix::<f64>::zeros(n, n);
    let expect = reference(1.0, &a, &b, 0.0, &c);

    // Upload A and B manually (whole-matrix resident buffers).
    let stream = gpu.create_stream();
    let mut upload = |m: &Matrix<f64>| {
        let host = gpu.register_host(m.as_slice().to_vec(), true);
        let dev = gpu.alloc_device(Dtype::F64, n * n).expect("alloc");
        gpu.memcpy_h2d_async(stream, CopyDesc::contiguous(host, dev, n * n))
            .expect("upload");
        MatOperand::Device(DeviceMatrix::from_raw(dev, n, n))
    };
    let (da, db) = (upload(&a), upload(&b));
    gpu.synchronize().expect("sync uploads");
    gpu.clear_trace();

    let ops = [da, db, MatOperand::Host(c)];
    let (got, _) = gemm(&mut gpu, 1.0, ops, 0.0, 16).expect("runs");
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyH2d), 0);
    assert!(validate::matrices_close(
        &got.expect("functional C"),
        &expect,
        1e-10
    ));
}

#[test]
fn dimension_mismatch_rejected() {
    let plan = |shapes: &[(usize, usize)]| TilePlan::new(Routine::Gemm, 1.0, 0.0, shapes);
    let err = plan(&[(4, 5), (6, 4), (4, 4)]).expect_err("bad dims");
    assert_eq!(
        err.to_string(),
        "dimension mismatch: gemm: B is 6x4, expected 5x4"
    );
    let err = plan(&[(4, 5), (5, 4), (4, 5)]).expect_err("bad C");
    assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
}

#[test]
fn overlap_actually_happens() {
    // A transfer-heavy schedule must show h2d busy while exec is busy.
    let mut gpu = quiet_gpu(false);
    let ops = [ghost(2048, 2048), ghost(2048, 2048), ghost(2048, 2048)];
    gemm(&mut gpu, 1.0, ops, 1.0, 512).expect("runs");
    let trace = gpu.trace();
    let total = trace
        .entries()
        .iter()
        .map(|e| e.end.as_nanos())
        .max()
        .expect("entries");
    let h2d = trace.engine_busy(EngineKind::CopyH2d).as_nanos();
    let exec = trace.engine_busy(EngineKind::Compute).as_nanos();
    let d2h = trace.engine_busy(EngineKind::CopyD2h).as_nanos();
    assert!(
        h2d + exec + d2h > total + total / 10,
        "busy {h2d}+{exec}+{d2h} vs makespan {total}: no overlap"
    );
}
