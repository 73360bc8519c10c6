//! The level-1 tile schedule: `y ← α·x + y` split into 1-D chunks, each a
//! textbook 3-way pipeline stage (fetch x/y → kernel → drain y).

use super::{OperandStore, RunStats, Streams, TileFetcher};
use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::VecOperand;
use cocopelia_gpusim::{
    DevVecRef, Gpu, KernelArgs, KernelShape, OpTag, OperandRole, Routine, SimScalar,
};
use cocopelia_hostblas::tiling::split;

/// Output of a scheduled axpy.
#[derive(Debug)]
pub(crate) struct AxpyRun<T> {
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
    x: VecOperand<T>,
    y: VecOperand<T>,
    tile: usize,
) -> Result<AxpyRun<T>, RuntimeError> {
    if x.len() != y.len() {
        return Err(RuntimeError::DimensionMismatch {
            what: format!("axpy: x has {} elements but y has {}", x.len(), y.len()),
        });
    }
    let n = x.len();
    let tag = |chunk: usize, operand: Option<OperandRole>, get: bool, set: bool| OpTag {
        operand,
        get,
        set,
        ..OpTag::new(Routine::Axpy, call, (chunk, 0))
    };
    let store_x = OperandStore::from_vec(gpu, x);
    let store_y = OperandStore::from_vec(gpu, y);
    let one = cocopelia_hostblas::tiling::TileRange { start: 0, len: 1 };
    let mut fetcher = TileFetcher::with_policy(policy);
    let mut subkernels = 0usize;

    for (i, &t) in split(n, tile).iter().enumerate() {
        gpu.set_op_tag(tag(i, Some(OperandRole::X), true, false));
        let x_tile = fetcher.tile::<T>(gpu, streams.h2d, 0, store_x, (i, t), (0, one), true)?;
        gpu.set_op_tag(tag(i, Some(OperandRole::Y), true, false));
        let y_tile = fetcher.tile::<T>(gpu, streams.h2d, 1, store_y, (i, t), (0, one), true)?;
        for ev in [x_tile.ready, y_tile.ready].into_iter().flatten() {
            gpu.wait_event(streams.exec, ev)?;
        }
        gpu.set_op_tag(tag(i, None, false, false));
        fetcher.launch(
            gpu,
            streams.exec,
            KernelShape::Axpy {
                dtype: T::DTYPE,
                n: t.len,
            },
            Some(KernelArgs::Axpy {
                alpha,
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
        if store_y.host_id().is_some() {
            let done = gpu.record_event(streams.exec)?;
            gpu.wait_event(streams.d2h, done)?;
            gpu.set_op_tag(tag(i, Some(OperandRole::Y), false, true));
            fetcher.write_back(gpu, streams.d2h, store_y, y_tile, t, one)?;
        }
    }
    let stats = fetcher.finish(gpu, subkernels)?;
    let y_data = super::take_host_data::<T>(gpu, store_y)?;
    if let Some(h) = store_x.host_id() {
        gpu.take_host(h)?;
    }
    Ok(AxpyRun { y: y_data, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec};

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
    fn tiled_axpy_matches_reference() {
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let expect: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.5 * a + b).collect();

        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            2.5,
            VecOperand::Host(x),
            VecOperand::Host(y),
            256, // 4 tiles, last one short
        )
        .expect("runs");
        assert_eq!(run.stats.subkernels, 4);
        assert_eq!(run.y.expect("functional y"), expect);
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn transfer_volume_is_2n_in_n_out() {
        let n = 1 << 20;
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
            1 << 18,
        )
        .expect("runs");
        assert_eq!(
            gpu.trace()
                .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d),
            2 * n * 8
        );
        assert_eq!(
            gpu.trace()
                .bytes_moved(cocopelia_gpusim::EngineKind::CopyD2h),
            n * 8
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        let err = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            1.0,
            VecOperand::HostGhost { len: 10 },
            VecOperand::HostGhost { len: 11 },
            4,
        )
        .expect_err("mismatch");
        assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
    }

    #[test]
    fn f32_axpy_works() {
        let n = 100;
        let x = vec![1.0f32; n];
        let y = vec![2.0f32; n];
        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f32>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            3.0,
            VecOperand::Host(x),
            VecOperand::Host(y),
            32,
        )
        .expect("runs");
        assert!(run.y.expect("functional").iter().all(|&v| v == 5.0));
    }
}
