//! The unified-memory comparator for `daxpy` (§V-E): the kernel reads
//! migrated pages instead of staged pinned buffers, with `cudaMemPrefetchAsync`
//! pipelining migration ahead of compute.
//!
//! Modelled as a chunked pipeline whose transfers go through **pageable**
//! host memory (the simulator charges the configured pageable bandwidth
//! penalty — the migration-engine cost) while prefetching overlaps
//! migration of chunk `i+1` with compute on chunk `i`.

use crate::BaselineResult;
use cocopelia_gpusim::{CopyDesc, DevVecRef, Gpu, KernelArgs, KernelShape, Region2d, SimScalar};
use cocopelia_hostblas::tiling::split;
use cocopelia_runtime::{RuntimeError, VecOperand};

/// Prefetch granularity in elements (2 Mi elements ≈ 16 MB of f64, a
/// typical prefetch window).
pub const DEFAULT_PREFETCH_CHUNK: usize = 1 << 21;

/// Runs `y ← α·x + y` through the unified-memory-with-prefetch model, in
/// chunks of [`DEFAULT_PREFETCH_CHUNK`] elements.
///
/// # Errors
///
/// Dimension mismatches and simulator failures.
pub fn daxpy_prefetch(
    gpu: &mut Gpu,
    alpha: f64,
    x: VecOperand<f64>,
    y: VecOperand<f64>,
) -> Result<BaselineResult<Vec<f64>>, RuntimeError> {
    if x.len() != y.len() {
        return Err(RuntimeError::DimensionMismatch {
            what: format!("daxpy: x has {} elements but y has {}", x.len(), y.len()),
        });
    }
    let n = x.len();
    let flops = 2.0 * n as f64;
    // Unified memory is never pinned: register pageable host backing.
    let mut stage_vec = |op: VecOperand<f64>| match op {
        VecOperand::Host(v) => Some(gpu.register_host(v, false)),
        VecOperand::HostGhost { len } => {
            Some(gpu.register_host_ghost(cocopelia_hostblas::Dtype::F64, len, false))
        }
        VecOperand::Device(_) => None,
    };
    let hx = stage_vec(x);
    let hy = stage_vec(y);
    let (Some(hx), Some(hy)) = (hx, hy) else {
        return Err(RuntimeError::DimensionMismatch {
            what: "unified-memory daxpy models host-resident managed data".to_owned(),
        });
    };
    let migrate = gpu.create_stream();
    let exec = gpu.create_stream();
    let writeback = gpu.create_stream();
    let t0 = gpu.now();
    let dx = gpu.alloc_device(cocopelia_hostblas::Dtype::F64, n)?;
    let dy = gpu.alloc_device(cocopelia_hostblas::Dtype::F64, n)?;
    let mut subkernels = 0usize;

    for t in split(n, DEFAULT_PREFETCH_CHUNK) {
        let region = Region2d {
            offset: t.start,
            ld: t.len.max(1),
            rows: t.len,
            cols: 1,
        };
        // Prefetch both operands' pages for this chunk.
        gpu.memcpy_h2d_async(
            migrate,
            CopyDesc {
                host: hx,
                host_region: region,
                dev: dx,
                dev_region: region,
            },
        )?;
        gpu.memcpy_h2d_async(
            migrate,
            CopyDesc {
                host: hy,
                host_region: region,
                dev: dy,
                dev_region: region,
            },
        )?;
        let migrated = gpu.record_event(migrate)?;
        gpu.wait_event(exec, migrated)?;
        gpu.launch_kernel(
            exec,
            KernelShape::Axpy {
                dtype: cocopelia_hostblas::Dtype::F64,
                n: t.len,
            },
            Some(KernelArgs::Axpy {
                alpha,
                x: DevVecRef {
                    buf: dx,
                    offset: t.start,
                },
                y: DevVecRef {
                    buf: dy,
                    offset: t.start,
                },
            }),
        )?;
        subkernels += 1;
        // Dirty pages migrate back on access; model as an eager writeback.
        let done = gpu.record_event(exec)?;
        gpu.wait_event(writeback, done)?;
        gpu.memcpy_d2h_async(
            writeback,
            CopyDesc {
                host: hy,
                host_region: region,
                dev: dy,
                dev_region: region,
            },
        )?;
    }

    gpu.synchronize()?;
    let elapsed = gpu.now().saturating_since(t0);
    gpu.free_device(dx)?;
    gpu.free_device(dy)?;
    gpu.take_host(hx)?;
    let ybuf = gpu.take_host(hy)?;
    let y_out = ybuf
        .payload
        .is_functional()
        .then(|| f64::payload_into_vec(ybuf.payload));
    Ok(BaselineResult {
        output: y_out,
        elapsed,
        flops,
        subkernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, ExecMode, NoiseSpec, TestbedSpec};

    fn quiet() -> TestbedSpec {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        tb
    }

    #[test]
    fn numerically_correct() {
        // One full chunk and a 5 000-element remainder.
        let n = DEFAULT_PREFETCH_CHUNK + 5000;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = vec![1.0; n];
        let expect: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let mut gpu = Gpu::new(quiet(), ExecMode::Functional, 1);
        let res =
            daxpy_prefetch(&mut gpu, 2.0, VecOperand::Host(x), VecOperand::Host(y)).expect("runs");
        assert_eq!(res.output.expect("functional"), expect);
        assert_eq!(res.subkernels, 2);
    }

    #[test]
    fn slower_than_pinned_pipeline() {
        // Same problem through the CoCoPeLia daxpy (pinned) must beat the
        // unified-memory model (pageable penalty).
        let n = 1 << 24;
        let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        let um = daxpy_prefetch(
            &mut gpu,
            1.0,
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
        )
        .expect("runs");

        let gpu2 = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        let mut blasx_like = crate::Blasx::new(gpu2); // reuse ctx machinery
        let _ = &mut blasx_like;
        // Direct comparison via the runtime scheduler with the same chunk.
        let gpu3 = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        let dummy = cocopelia_core::profile::SystemProfile::new(
            "x",
            cocopelia_core::transfer::TransferModel {
                h2d: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
                d2h: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
                sl_h2d: 1.0,
                sl_d2h: 1.0,
            },
        );
        let mut ctx = cocopelia_runtime::Cocopelia::new(gpu3, dummy);
        let pinned = cocopelia_runtime::AxpyRequest::new(
            VecOperand::<f64>::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
        )
        .alpha(1.0)
        .tile(cocopelia_runtime::TileChoice::Fixed(DEFAULT_PREFETCH_CHUNK))
        .run(&mut ctx)
        .expect("runs");
        assert!(
            um.elapsed.as_secs_f64() > pinned.report.elapsed.as_secs_f64() * 1.2,
            "um {} vs pinned {}",
            um.elapsed,
            pinned.report.elapsed
        );
    }

    #[test]
    fn device_operands_rejected() {
        let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        let dev = gpu
            .alloc_device(cocopelia_hostblas::Dtype::F64, 8)
            .expect("alloc");
        let _ = dev;
        let err = daxpy_prefetch(
            &mut gpu,
            1.0,
            VecOperand::HostGhost { len: 8 },
            VecOperand::HostGhost { len: 9 },
        )
        .expect_err("mismatch");
        assert!(matches!(err, RuntimeError::DimensionMismatch { .. }));
    }
}
