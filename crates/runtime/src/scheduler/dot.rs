//! The tiled reduction schedule: `result ← xᵀy` split into 1-D chunks.
//!
//! Each chunk's partial dot lands in its own slot of a device-side partials
//! buffer; the partials drain to the host in one d2h transfer at the end
//! and are summed there. This exercises the "extension skeleton" of §IV-B
//! on a routine with a *reduction* dependency structure instead of the
//! element-wise pipelines of axpy/gemm.

use super::{OperandStore, RunStats, Streams, TileFetcher};
use crate::error::RuntimeError;
use crate::fault::RetryPolicy;
use crate::operand::VecOperand;
use cocopelia_gpusim::{
    CopyDesc, DevVecRef, Gpu, KernelArgs, KernelShape, OpTag, OperandRole, Routine, SimScalar,
};
use cocopelia_hostblas::tiling::{split, TileRange};

/// Output of a scheduled dot.
#[derive(Debug)]
pub(crate) struct DotRun {
    /// The reduction value (functional mode only).
    pub value: Option<f64>,
    pub stats: RunStats,
}

pub(crate) fn run<T: SimScalar>(
    gpu: &mut Gpu,
    streams: Streams,
    call: u64,
    policy: RetryPolicy,
    x: VecOperand<T>,
    y: VecOperand<T>,
    tile: usize,
) -> Result<DotRun, RuntimeError> {
    if x.len() != y.len() {
        return Err(RuntimeError::DimensionMismatch {
            what: format!("dot: x has {} elements but y has {}", x.len(), y.len()),
        });
    }
    let n = x.len();
    let tag = |chunk: usize, operand: Option<OperandRole>, get: bool, set: bool| OpTag {
        operand,
        get,
        set,
        ..OpTag::new(Routine::Dot, call, (chunk, 0))
    };
    let tiles = split(n, tile);
    let num_tiles = tiles.len().max(1);
    let store_x = OperandStore::from_vec(gpu, x);
    let store_y = OperandStore::from_vec(gpu, y);
    let one = TileRange { start: 0, len: 1 };
    let mut fetcher = TileFetcher::with_policy(policy);

    // One partial-result slot per chunk, drained in a single transfer.
    let partials_dev = gpu.alloc_device(T::DTYPE, num_tiles)?;
    let partials_host = gpu.register_host(T::into_payload(vec![T::ZERO; num_tiles]), true);

    let mut subkernels = 0usize;
    for (i, &t) in tiles.iter().enumerate() {
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
            KernelShape::Dot {
                dtype: T::DTYPE,
                n: t.len,
            },
            Some(KernelArgs::Dot {
                x: DevVecRef {
                    buf: x_tile.mat.buf,
                    offset: x_tile.mat.offset,
                },
                y: DevVecRef {
                    buf: y_tile.mat.buf,
                    offset: y_tile.mat.offset,
                },
                out: DevVecRef {
                    buf: partials_dev,
                    offset: i,
                },
            }),
        )?;
        subkernels += 1;
    }
    let done = gpu.record_event(streams.exec)?;
    gpu.wait_event(streams.d2h, done)?;
    gpu.set_op_tag(tag(0, Some(OperandRole::Partials), false, true));
    fetcher.copy_d2h(
        gpu,
        streams.d2h,
        CopyDesc::contiguous(partials_host, partials_dev, num_tiles),
    )?;
    gpu.clear_op_tag();

    gpu.synchronize()?;
    let (tile_hits, tile_misses) = fetcher.hit_miss();
    let retries = fetcher.retries();
    fetcher.release(gpu)?;
    gpu.free_device(partials_dev)?;
    let partials = gpu.take_host(partials_host)?;
    let value = partials.payload.is_functional().then(|| {
        T::payload_slice(&partials.payload)
            .iter()
            .map(|v| v.to_f64())
            .sum::<f64>()
    });
    for s in [store_x, store_y] {
        if let Some(h) = s.host_id() {
            gpu.take_host(h)?;
        }
    }
    Ok(DotRun {
        value,
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
    fn tiled_dot_matches_reference() {
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
        let expect = cocopelia_hostblas::level1::dot(&x, &y);

        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            VecOperand::Host(x),
            VecOperand::Host(y),
            256,
        )
        .expect("runs");
        assert_eq!(run.stats.subkernels, 4);
        let got = run.value.expect("functional");
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn partials_drain_in_one_transfer() {
        let n = 1 << 22;
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
            1 << 20,
        )
        .expect("runs");
        // d2h traffic: exactly the 4 partial slots.
        assert_eq!(
            gpu.trace()
                .bytes_moved(cocopelia_gpusim::EngineKind::CopyD2h),
            4 * 8
        );
        assert_eq!(
            gpu.trace()
                .bytes_moved(cocopelia_gpusim::EngineKind::CopyH2d),
            2 * n * 8
        );
    }

    #[test]
    fn self_dot_gives_squared_norm() {
        let n = 64;
        let x: Vec<f64> = vec![2.0; n];
        let mut gpu = quiet_gpu(true);
        let streams = Streams::create(&mut gpu);
        let run = run::<f64>(
            &mut gpu,
            streams,
            0,
            RetryPolicy::default(),
            VecOperand::Host(x.clone()),
            VecOperand::Host(x),
            16,
        )
        .expect("runs");
        assert_eq!(run.value.expect("functional"), 4.0 * n as f64);
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut gpu = quiet_gpu(false);
        let streams = Streams::create(&mut gpu);
        assert!(matches!(
            run::<f64>(
                &mut gpu,
                streams,
                0,
                RetryPolicy::default(),
                VecOperand::HostGhost { len: 4 },
                VecOperand::HostGhost { len: 5 },
                2
            ),
            Err(RuntimeError::DimensionMismatch { .. })
        ));
    }
}
