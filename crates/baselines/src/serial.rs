//! Serial (no-overlap) offload: transfer everything in, run one kernel,
//! transfer results out, all on a single stream. The classic "naive
//! offload" reference point — and a safe upper bound the property tests use
//! (any overlapped schedule must beat it).

use crate::BaselineResult;
use cocopelia_gpusim::{CopyDesc, DevMatRef, Gpu, KernelArgs, KernelShape, SimScalar};
use cocopelia_hostblas::Matrix;
use cocopelia_runtime::{MatOperand, RuntimeError};

/// Runs `C ← α·A·B + β·C` with no communication/computation overlap: all
/// inputs h2d, one kernel, `C` d2h, serialised on one stream.
///
/// # Errors
///
/// Dimension mismatches and simulator failures (the whole problem must fit
/// in device memory).
pub fn gemm<T: SimScalar>(
    gpu: &mut Gpu,
    alpha: f64,
    a: MatOperand<T>,
    b: MatOperand<T>,
    beta: f64,
    c: MatOperand<T>,
) -> Result<BaselineResult<Matrix<T>>, RuntimeError> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb || c.rows() != m || c.cols() != n {
        return Err(RuntimeError::DimensionMismatch {
            what: format!(
                "serial gemm: A {m}x{k}, B {kb}x{n}, C {}x{}",
                c.rows(),
                c.cols()
            ),
        });
    }
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let stream = gpu.create_stream();
    let t0 = gpu.now();

    // Stage a full-matrix device buffer per operand (uploading host ones).
    let mut owned = Vec::new();
    let place =
        |gpu: &mut Gpu,
         op: MatOperand<T>,
         copy_in: bool,
         owned: &mut Vec<cocopelia_gpusim::DevBufId>|
         -> Result<(DevMatRef, Option<cocopelia_gpusim::HostBufId>, usize), RuntimeError> {
            match op {
                MatOperand::Device(d) => Ok((
                    DevMatRef {
                        buf: d.raw_buf(),
                        offset: 0,
                        ld: d.rows(),
                    },
                    None,
                    d.rows(),
                )),
                host_op => {
                    let rows = host_op.rows();
                    let cols = host_op.cols();
                    let host = match host_op {
                        MatOperand::Host(mat) => {
                            gpu.register_host(T::into_payload(mat.into_vec()), true)
                        }
                        MatOperand::HostGhost { .. } => {
                            gpu.register_host_ghost(T::DTYPE, rows * cols, true)
                        }
                        MatOperand::Device(_) => unreachable!("handled above"),
                    };
                    let dev = gpu.alloc_device(T::DTYPE, rows * cols)?;
                    owned.push(dev);
                    if copy_in {
                        gpu.memcpy_h2d_async(stream, CopyDesc::contiguous(host, dev, rows * cols))?;
                    }
                    Ok((
                        DevMatRef {
                            buf: dev,
                            offset: 0,
                            ld: rows,
                        },
                        Some(host),
                        rows,
                    ))
                }
            }
        };
    let (a_ref, a_host, _) = place(gpu, a, true, &mut owned)?;
    let (b_ref, b_host, _) = place(gpu, b, true, &mut owned)?;
    let (c_ref, c_host, _) = place(gpu, c, beta != 0.0, &mut owned)?;

    gpu.launch_kernel(
        stream,
        KernelShape::Gemm {
            dtype: T::DTYPE,
            m,
            n,
            k,
        },
        Some(KernelArgs::Gemm {
            alpha,
            beta,
            a: a_ref,
            b: b_ref,
            c: c_ref,
        }),
    )?;
    if let Some(host) = c_host {
        gpu.memcpy_d2h_async(stream, CopyDesc::contiguous(host, c_ref.buf, m * n))?;
    }
    gpu.synchronize()?;
    let elapsed = gpu.now().saturating_since(t0);
    for buf in owned {
        gpu.free_device(buf)?;
    }
    let c_out = match c_host {
        Some(host) => {
            let buf = gpu.take_host(host)?;
            buf.payload
                .is_functional()
                .then(|| Matrix::from_vec(m, n, T::payload_into_vec(buf.payload)))
        }
        None => None,
    };
    for h in [a_host, b_host].into_iter().flatten() {
        gpu.take_host(h)?;
    }
    Ok(BaselineResult {
        output: c_out,
        elapsed,
        flops,
        subkernels: 1,
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

    #[test]
    fn numerically_correct() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + j) as f64 * 0.1);
        let b = Matrix::<f64>::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.1);
        let c = Matrix::<f64>::zeros(n, n);
        let mut expect = c.clone();
        level3::gemm(1.0, &a.view(), &b.view(), 0.0, &mut expect.view_mut());

        let mut gpu = quiet_gpu(true);
        let res = gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::Host(a),
            MatOperand::Host(b),
            0.0,
            MatOperand::Host(c),
        )
        .expect("runs");
        let got = res.output.expect("functional");
        assert!(validate::matrices_close(&got, &expect, 1e-10));
    }

    #[test]
    fn no_overlap_in_trace() {
        let mut gpu = quiet_gpu(false);
        gpu.keep_trace_from(0);
        gemm::<f64>(
            &mut gpu,
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
        )
        .expect("runs");
        // Busy times tile the makespan exactly: no two entries overlap.
        let entries = gpu.trace().entries();
        for (a, b) in entries.iter().zip(entries.iter().skip(1)) {
            assert!(b.start >= a.end, "serial schedule must not overlap");
        }
    }
}
