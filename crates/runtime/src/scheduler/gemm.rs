//! The level-3 tile schedule: `C ← α·A·B + β·C` with square tiling, full
//! tile reuse, and 3-way overlap.
//!
//! Loop order is output-stationary: for each `C` tile `(i, j)`, the
//! reduction over `k` runs on the exec stream (the first step applies the
//! caller's `β`, later steps accumulate with `β = 1`), then the finished
//! tile drains on the d2h stream. `A`/`B`/`C` tiles are fetched at most once
//! each — the full-reuse behaviour Eq. 5 models.

use super::{OperandStore, RunStats, Streams, TileFetcher};
use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::MatOperand;
use cocopelia_gpusim::{Gpu, KernelArgs, KernelShape, OpTag, OperandRole, Routine, SimScalar};
use cocopelia_hostblas::tiling::split;
use cocopelia_hostblas::Matrix;

/// Output of a scheduled gemm: the updated `C` (when it carried host data)
/// plus raw schedule facts.
#[derive(Debug)]
pub(crate) struct GemmRun<T> {
    pub c: Option<Matrix<T>>,
    pub stats: RunStats,
}

/// Validates dimensions and returns `(m, n, k)`.
pub(crate) fn check_dims<T: cocopelia_hostblas::Scalar>(
    a: &MatOperand<T>,
    b: &MatOperand<T>,
    c: &MatOperand<T>,
) -> Result<(usize, usize, usize), RuntimeError> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb {
        return Err(RuntimeError::DimensionMismatch {
            what: format!("gemm: A is {m}x{k} but B is {kb}x{n}"),
        });
    }
    if c.rows() != m || c.cols() != n {
        return Err(RuntimeError::DimensionMismatch {
            what: format!("gemm: C is {}x{} but A·B is {m}x{n}", c.rows(), c.cols()),
        });
    }
    Ok((m, n, k))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: SimScalar>(
    gpu: &mut Gpu,
    streams: Streams,
    call: u64,
    policy: RetryPolicy,
    alpha: f64,
    a: MatOperand<T>,
    b: MatOperand<T>,
    beta: f64,
    c: MatOperand<T>,
    tile: usize,
) -> Result<GemmRun<T>, RuntimeError> {
    let (m, n, k) = check_dims(&a, &b, &c)?;
    let tag = |tile: (usize, usize), operand: Option<OperandRole>, get: bool, set: bool| OpTag {
        operand,
        get,
        set,
        ..OpTag::new(Routine::Gemm, call, tile)
    };
    let c_rows = m;
    let store_a = OperandStore::from_mat(gpu, a);
    let store_b = OperandStore::from_mat(gpu, b);
    let store_c = OperandStore::from_mat(gpu, c);
    let row_tiles = split(m, tile);
    let col_tiles = split(n, tile);
    let depth_tiles = split(k, tile);
    let mut fetcher = TileFetcher::with_policy(policy);
    let fetch_c = beta != 0.0;
    let mut subkernels = 0usize;

    for (i, &ri) in row_tiles.iter().enumerate() {
        for (j, &cj) in col_tiles.iter().enumerate() {
            gpu.set_op_tag(tag((i, j), Some(OperandRole::C), fetch_c, false));
            let c_tile =
                fetcher.tile::<T>(gpu, streams.h2d, 2, store_c, (i, ri), (j, cj), fetch_c)?;
            for (p, &kp) in depth_tiles.iter().enumerate() {
                gpu.set_op_tag(tag((i, p), Some(OperandRole::A), true, false));
                let a_tile =
                    fetcher.tile::<T>(gpu, streams.h2d, 0, store_a, (i, ri), (p, kp), true)?;
                gpu.set_op_tag(tag((p, j), Some(OperandRole::B), true, false));
                let b_tile =
                    fetcher.tile::<T>(gpu, streams.h2d, 1, store_b, (p, kp), (j, cj), true)?;
                for ev in [a_tile.ready, b_tile.ready].into_iter().flatten() {
                    gpu.wait_event(streams.exec, ev)?;
                }
                if p == 0 {
                    if let Some(ev) = c_tile.ready {
                        gpu.wait_event(streams.exec, ev)?;
                    }
                }
                let beta_p = if p == 0 { beta } else { 1.0 };
                gpu.set_op_tag(tag((i, j), None, false, false));
                fetcher.launch(
                    gpu,
                    streams.exec,
                    KernelShape::Gemm {
                        dtype: T::DTYPE,
                        m: ri.len,
                        n: cj.len,
                        k: kp.len,
                    },
                    Some(KernelArgs::Gemm {
                        alpha,
                        beta: beta_p,
                        a: a_tile.mat,
                        b: b_tile.mat,
                        c: c_tile.mat,
                    }),
                )?;
                subkernels += 1;
            }
            // Drain the finished C tile (host-staged C only).
            if store_c.host_id().is_some() {
                let done = gpu.record_event(streams.exec)?;
                gpu.wait_event(streams.d2h, done)?;
                gpu.set_op_tag(tag((i, j), Some(OperandRole::C), false, true));
                fetcher.write_back(gpu, streams.d2h, store_c, c_tile, ri, cj)?;
            }
        }
    }
    let stats = fetcher.finish(gpu, subkernels)?;
    let c_data = super::take_host_data::<T>(gpu, store_c)?;
    // Release the A/B staging registrations too (drop host copies).
    for s in [store_a, store_b] {
        if let Some(h) = s.host_id() {
            gpu.take_host(h)?;
        }
    }
    Ok(GemmRun {
        c: c_data.map(|v| Matrix::from_vec(c_rows, n, v)),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec};
    use cocopelia_hostblas::{level3, validate};

    fn quiet_gpu(functional: bool) -> Gpu {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        let mode = if functional {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        Gpu::new(tb, mode, 1)
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

    #[test]
    fn tiled_gemm_matches_reference_with_remainders() {
        // 70x50x90 with tile 32: remainder tiles in every dimension.
        let (m, n, k) = (70, 50, 90);
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        let c = rand_matrix(m, n, 3);
        let expect = reference(1.5, &a, &b, 0.5, &c);

        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.5,
            MatOperand::Host(a),
            MatOperand::Host(b),
            0.5,
            MatOperand::Host(c),
            32,
        )
        .expect("runs");
        let got = run.c.expect("functional C");
        assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "max rel err {}",
            validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
        assert_eq!(run.stats.subkernels, 3 * 2 * 3);
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
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            2.0,
            MatOperand::Host(a),
            MatOperand::Host(b),
            0.0,
            MatOperand::Host(c),
            8,
        )
        .expect("runs");
        let got = run.c.expect("functional C");
        assert!(validate::matrices_close(&got, &expect, 1e-10));
        // No h2d bytes for C: A and B are 16x16 each, fetched in 8x8 tiles.
        let h2d_bytes = gpu
            .trace()
            .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d);
        assert_eq!(h2d_bytes, 2 * 16 * 16 * 8);
    }

    #[test]
    fn reuse_moves_each_tile_once() {
        let (m, n, k) = (64, 64, 64);
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::HostGhost { rows: m, cols: k },
            MatOperand::HostGhost { rows: k, cols: n },
            1.0,
            MatOperand::HostGhost { rows: m, cols: n },
            16,
        )
        .expect("runs");
        assert_eq!(run.stats.subkernels, 4 * 4 * 4);
        // h2d volume = exactly one copy of A + B + C.
        let h2d_bytes = gpu
            .trace()
            .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d);
        assert_eq!(h2d_bytes, 3 * 64 * 64 * 8);
        // d2h volume = exactly one copy of C.
        let d2h_bytes = gpu
            .trace()
            .bytes_moved(cocopelia_gpusim::EngineKind::CopyD2h);
        assert_eq!(d2h_bytes, 64 * 64 * 8);
    }

    #[test]
    fn device_resident_inputs_transfer_nothing() {
        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let n = 32;
        let a = rand_matrix(n, n, 7);
        let b = rand_matrix(n, n, 8);
        let c = Matrix::<f64>::zeros(n, n);
        let expect = reference(1.0, &a, &b, 0.0, &c);

        // Upload A and B manually (whole-matrix resident buffers).
        let mut upload = |m: &Matrix<f64>| {
            let host = gpu.register_host(m.as_slice().to_vec(), true);
            let dev = gpu
                .alloc_device(cocopelia_hostblas::Dtype::F64, m.rows() * m.cols())
                .expect("alloc");
            gpu.memcpy_h2d_async(
                streams.h2d,
                cocopelia_gpusim::CopyDesc::contiguous(host, dev, m.rows() * m.cols()),
            )
            .expect("upload");
            dev
        };
        let da = upload(&a);
        let db = upload(&b);
        gpu.synchronize().expect("sync uploads");
        gpu.clear_trace();

        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::Device(crate::operand::DeviceMatrix::from_raw(da, n, n)),
            MatOperand::Device(crate::operand::DeviceMatrix::from_raw(db, n, n)),
            0.0,
            MatOperand::Host(c),
            16,
        )
        .expect("runs");
        assert_eq!(
            gpu.trace()
                .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d),
            0
        );
        let got = run.c.expect("functional C");
        assert!(validate::matrices_close(&got, &expect, 1e-10));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let err = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::HostGhost { rows: 4, cols: 5 },
            MatOperand::HostGhost { rows: 6, cols: 4 },
            0.0,
            MatOperand::HostGhost { rows: 4, cols: 4 },
            2,
        )
        .expect_err("bad dims");
        assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
    }

    #[test]
    fn overlap_actually_happens() {
        // A transfer-heavy schedule must show h2d busy while exec is busy.
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::HostGhost {
                rows: 2048,
                cols: 2048,
            },
            MatOperand::HostGhost {
                rows: 2048,
                cols: 2048,
            },
            1.0,
            MatOperand::HostGhost {
                rows: 2048,
                cols: 2048,
            },
            512,
        )
        .expect("runs");
        let trace = gpu.trace();
        let total = trace
            .entries()
            .iter()
            .map(|e| e.end.as_nanos())
            .max()
            .expect("entries");
        let h2d = trace
            .engine_busy(cocopelia_gpusim::EngineKind::CopyH2d)
            .as_nanos();
        let exec = trace
            .engine_busy(cocopelia_gpusim::EngineKind::Compute)
            .as_nanos();
        let d2h = trace
            .engine_busy(cocopelia_gpusim::EngineKind::CopyD2h)
            .as_nanos();
        assert!(
            h2d + exec + d2h > total + total / 10,
            "busy {h2d}+{exec}+{d2h} vs makespan {total}: no overlap"
        );
    }
}
