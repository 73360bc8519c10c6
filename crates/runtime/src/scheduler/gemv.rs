//! The level-2 tile schedule: `y ← α·A·x + β·y` with square tiling of `A`
//! and 1-D tiling of the vectors — the "extension skeleton" routine of
//! §IV-B, exercising the generalised per-level tile scheduler.

use super::{OperandStore, RunStats, Streams, TileFetcher};
use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::{MatOperand, VecOperand};
use cocopelia_gpusim::{
    DevVecRef, Gpu, KernelArgs, KernelShape, OpTag, OperandRole, Routine, SimScalar,
};
use cocopelia_hostblas::tiling::{split, TileRange};

/// Output of a scheduled gemv.
#[derive(Debug)]
pub(crate) struct GemvRun<T> {
    pub y: Option<Vec<T>>,
    pub stats: RunStats,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: SimScalar>(
    gpu: &mut Gpu,
    streams: Streams,
    call: u64,
    policy: RetryPolicy,
    alpha: f64,
    a: MatOperand<T>,
    x: VecOperand<T>,
    beta: f64,
    y: VecOperand<T>,
    tile: usize,
) -> Result<GemvRun<T>, RuntimeError> {
    let (m, n) = (a.rows(), a.cols());
    let tag = |tile: (usize, usize), operand: Option<OperandRole>, get: bool, set: bool| OpTag {
        operand,
        get,
        set,
        ..OpTag::new(Routine::Gemv, call, tile)
    };
    if x.len() != n || y.len() != m {
        return Err(RuntimeError::DimensionMismatch {
            what: format!(
                "gemv: A is {m}x{n} but x has {} and y has {} elements",
                x.len(),
                y.len()
            ),
        });
    }
    let store_a = OperandStore::from_mat(gpu, a);
    let store_x = OperandStore::from_vec(gpu, x);
    let store_y = OperandStore::from_vec(gpu, y);
    let one = TileRange { start: 0, len: 1 };
    let row_tiles = split(m, tile);
    let col_tiles = split(n, tile);
    let mut fetcher = TileFetcher::with_policy(policy);
    let fetch_y = beta != 0.0;
    let mut subkernels = 0usize;

    for (i, &ri) in row_tiles.iter().enumerate() {
        gpu.set_op_tag(tag((i, 0), Some(OperandRole::Y), fetch_y, false));
        let y_tile = fetcher.tile::<T>(gpu, streams.h2d, 2, store_y, (i, ri), (0, one), fetch_y)?;
        for (j, &cj) in col_tiles.iter().enumerate() {
            gpu.set_op_tag(tag((i, j), Some(OperandRole::A), true, false));
            let a_tile = fetcher.tile::<T>(gpu, streams.h2d, 0, store_a, (i, ri), (j, cj), true)?;
            gpu.set_op_tag(tag((j, 0), Some(OperandRole::X), true, false));
            let x_tile =
                fetcher.tile::<T>(gpu, streams.h2d, 1, store_x, (j, cj), (0, one), true)?;
            for ev in [a_tile.ready, x_tile.ready].into_iter().flatten() {
                gpu.wait_event(streams.exec, ev)?;
            }
            if j == 0 {
                if let Some(ev) = y_tile.ready {
                    gpu.wait_event(streams.exec, ev)?;
                }
            }
            let beta_j = if j == 0 { beta } else { 1.0 };
            gpu.set_op_tag(tag((i, j), None, false, false));
            fetcher.launch(
                gpu,
                streams.exec,
                KernelShape::Gemv {
                    dtype: T::DTYPE,
                    m: ri.len,
                    n: cj.len,
                },
                Some(KernelArgs::Gemv {
                    alpha,
                    beta: beta_j,
                    a: a_tile.mat,
                    x: DevVecRef {
                        buf: x_tile.mat.buf,
                        offset: x_tile.mat.offset,
                    },
                    y: DevVecRef {
                        buf: y_tile.mat.buf,
                        offset: y_tile.mat.offset,
                    },
                }),
            )?;
            subkernels += 1;
        }
        if store_y.host_id().is_some() {
            let done = gpu.record_event(streams.exec)?;
            gpu.wait_event(streams.d2h, done)?;
            gpu.set_op_tag(tag((i, 0), Some(OperandRole::Y), false, true));
            fetcher.write_back(gpu, streams.d2h, store_y, y_tile, ri, one)?;
        }
    }
    gpu.clear_op_tag();

    gpu.synchronize()?;
    let (tile_hits, tile_misses) = fetcher.hit_miss();
    let retries = fetcher.retries();
    fetcher.release(gpu)?;
    let y_data = super::take_host_data::<T>(gpu, store_y)?;
    for s in [store_a, store_x] {
        if let Some(h) = s.host_id() {
            gpu.take_host(h)?;
        }
    }
    Ok(GemvRun {
        y: y_data,
        stats: RunStats {
            subkernels,
            tile_hits,
            tile_misses,
            retries,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec};
    use cocopelia_hostblas::{level2, Matrix};

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

    #[test]
    fn tiled_gemv_matches_reference() {
        let (m, n) = (37, 53);
        let a = Matrix::<f64>::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
        let y: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut expect = y.clone();
        level2::gemv(1.5, &a.view(), &x, 0.25, &mut expect);

        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.5,
            MatOperand::Host(a),
            VecOperand::Host(x),
            0.25,
            VecOperand::Host(y),
            16,
        )
        .expect("runs");
        let got = run.y.expect("functional y");
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-10, "{g} vs {e}");
        }
        assert_eq!(run.stats.subkernels, 3 * 4);
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn x_tiles_fetched_once_across_row_blocks() {
        let (m, n) = (64, 64);
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::HostGhost { rows: m, cols: n },
            VecOperand::HostGhost { len: n },
            1.0,
            VecOperand::HostGhost { len: m },
            16,
        )
        .expect("runs");
        // h2d = A (m*n) + x (n) + y (m); x reused across the 4 row blocks.
        let h2d = gpu
            .trace()
            .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d);
        assert_eq!(h2d, (m * n + n + m) * 8);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let err = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            MatOperand::HostGhost { rows: 4, cols: 4 },
            VecOperand::HostGhost { len: 5 },
            0.0,
            VecOperand::HostGhost { len: 4 },
            2,
        )
        .expect_err("bad dims");
        assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
    }
}
