//! Functional-mode execution: ops actually move bytes and compute numbers.
//!
//! Invoked at op completion time by [`Gpu::synchronize`](crate::Gpu). The
//! completion order produced by the engine respects all stream/event
//! dependencies, so applying effects in that order yields the same values a
//! real device would produce. Only functional devices keep [`Effect`]s;
//! timing-only devices store nothing beyond the engine's slim op.

use crate::error::SimError;
use crate::kernel::KernelShape;
use crate::memory::{DeviceMemory, HostArena, Payload};
use crate::op::{CopyDesc, KernelArgs, Region2d};
use cocopelia_hostblas::{level1, level2, level3, MatrixView, MatrixViewMut, Scalar};

/// Copies a strided 2-D region between two equally-typed slices.
fn copy_region<T: Copy>(src: &[T], sr: Region2d, dst: &mut [T], dr: Region2d) {
    debug_assert_eq!(sr.rows, dr.rows);
    debug_assert_eq!(sr.cols, dr.cols);
    for c in 0..sr.cols {
        let s0 = sr.offset + c * sr.ld;
        let d0 = dr.offset + c * dr.ld;
        dst[d0..d0 + sr.rows].copy_from_slice(&src[s0..s0 + sr.rows]);
    }
}

fn typed_copy(
    src: &Payload,
    sr: Region2d,
    dst: &mut Payload,
    dr: Region2d,
) -> Result<(), SimError> {
    match (src, dst) {
        (Payload::F32(s), Payload::F32(d)) => copy_region(s, sr, d, dr),
        (Payload::F64(s), Payload::F64(d)) => copy_region(s, sr, d, dr),
        (Payload::Ghost { .. }, _) | (_, Payload::Ghost { .. }) => {}
        (s, d) => {
            return Err(SimError::InvalidAccess {
                what: format!("copy dtype mismatch: {} vs {}", s.dtype(), d.dtype()),
            })
        }
    }
    Ok(())
}

fn apply_h2d(desc: &CopyDesc, host: &HostArena, dev: &mut DeviceMemory) -> Result<(), SimError> {
    let src = &host.get(desc.host)?.payload;
    if !src.is_functional() {
        return Ok(());
    }
    // Take/restore to obtain disjoint borrows of arena and device memory.
    let mut dst = dev.take_payload(desc.dev)?;
    let r = typed_copy(src, desc.host_region, &mut dst, desc.dev_region);
    dev.restore_payload(desc.dev, dst);
    r
}

fn apply_d2h(desc: &CopyDesc, host: &mut HostArena, dev: &DeviceMemory) -> Result<(), SimError> {
    let src = dev.get(desc.dev)?;
    if !src.is_functional() {
        return Ok(());
    }
    let dst = &mut host.get_mut(desc.host)?.payload;
    typed_copy(src, desc.dev_region, dst, desc.host_region)
}

#[allow(clippy::too_many_arguments)]
fn gemm_typed<T: Scalar>(
    alpha: f64,
    beta: f64,
    a: &[T],
    a_off: usize,
    a_ld: usize,
    b: &[T],
    b_off: usize,
    b_ld: usize,
    c: &mut [T],
    c_off: usize,
    c_ld: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let av = MatrixView::new(m, k, a_ld, &a[a_off..]);
    let bv = MatrixView::new(k, n, b_ld, &b[b_off..]);
    let mut cv = MatrixViewMut::new(m, n, c_ld, &mut c[c_off..]);
    level3::gemm(T::from_f64(alpha), &av, &bv, T::from_f64(beta), &mut cv);
}

fn apply_kernel(
    shape: &KernelShape,
    args: &KernelArgs,
    dev: &mut DeviceMemory,
) -> Result<(), SimError> {
    match (*shape, *args) {
        (
            KernelShape::Gemm { m, n, k, .. },
            KernelArgs::Gemm {
                alpha,
                beta,
                a,
                b,
                c,
            },
        ) => {
            if m == 0 || n == 0 {
                return Ok(());
            }
            let pc = dev.take_payload(c.buf)?;
            if !pc.is_functional() {
                dev.restore_payload(c.buf, pc);
                return Ok(());
            }
            let mut pc = pc;
            let result = (|| -> Result<(), SimError> {
                let pa = dev.get(a.buf)?;
                let pb = dev.get(b.buf)?;
                match (&mut pc, pa, pb) {
                    (Payload::F64(cd), Payload::F64(ad), Payload::F64(bd)) => {
                        gemm_typed(
                            alpha, beta, ad, a.offset, a.ld, bd, b.offset, b.ld, cd, c.offset,
                            c.ld, m, n, k,
                        );
                        Ok(())
                    }
                    (Payload::F32(cd), Payload::F32(ad), Payload::F32(bd)) => {
                        gemm_typed(
                            alpha, beta, ad, a.offset, a.ld, bd, b.offset, b.ld, cd, c.offset,
                            c.ld, m, n, k,
                        );
                        Ok(())
                    }
                    _ => Err(SimError::InvalidAccess {
                        what: "gemm operand dtype mismatch".to_owned(),
                    }),
                }
            })();
            dev.restore_payload(c.buf, pc);
            result
        }
        (KernelShape::Axpy { n, .. }, KernelArgs::Axpy { alpha, x, y }) => {
            let py = dev.take_payload(y.buf)?;
            if !py.is_functional() {
                dev.restore_payload(y.buf, py);
                return Ok(());
            }
            let mut py = py;
            let result = (|| -> Result<(), SimError> {
                let px = dev.get(x.buf)?;
                match (&mut py, px) {
                    (Payload::F64(yd), Payload::F64(xd)) => {
                        level1::axpy(
                            alpha,
                            &xd[x.offset..x.offset + n],
                            &mut yd[y.offset..y.offset + n],
                        );
                        Ok(())
                    }
                    (Payload::F32(yd), Payload::F32(xd)) => {
                        level1::axpy(
                            alpha as f32,
                            &xd[x.offset..x.offset + n],
                            &mut yd[y.offset..y.offset + n],
                        );
                        Ok(())
                    }
                    _ => Err(SimError::InvalidAccess {
                        what: "axpy operand dtype mismatch".to_owned(),
                    }),
                }
            })();
            dev.restore_payload(y.buf, py);
            result
        }
        (KernelShape::Dot { n, .. }, KernelArgs::Dot { x, y, out }) => {
            let po = dev.take_payload(out.buf)?;
            if !po.is_functional() {
                dev.restore_payload(out.buf, po);
                return Ok(());
            }
            let mut po = po;
            let result = (|| -> Result<(), SimError> {
                let px = dev.get(x.buf)?;
                let py = dev.get(y.buf)?;
                match (&mut po, px, py) {
                    (Payload::F64(od), Payload::F64(xd), Payload::F64(yd)) => {
                        od[out.offset] =
                            level1::dot(&xd[x.offset..x.offset + n], &yd[y.offset..y.offset + n]);
                        Ok(())
                    }
                    (Payload::F32(od), Payload::F32(xd), Payload::F32(yd)) => {
                        od[out.offset] =
                            level1::dot(&xd[x.offset..x.offset + n], &yd[y.offset..y.offset + n])
                                as f32;
                        Ok(())
                    }
                    _ => Err(SimError::InvalidAccess {
                        what: "dot operand dtype mismatch".to_owned(),
                    }),
                }
            })();
            dev.restore_payload(out.buf, po);
            result
        }
        (
            KernelShape::Gemv { m, n, .. },
            KernelArgs::Gemv {
                alpha,
                beta,
                a,
                x,
                y,
            },
        ) => {
            let py = dev.take_payload(y.buf)?;
            if !py.is_functional() {
                dev.restore_payload(y.buf, py);
                return Ok(());
            }
            let mut py = py;
            let result = (|| -> Result<(), SimError> {
                let pa = dev.get(a.buf)?;
                let px = dev.get(x.buf)?;
                match (&mut py, pa, px) {
                    (Payload::F64(yd), Payload::F64(ad), Payload::F64(xd)) => {
                        let av = MatrixView::new(m, n, a.ld, &ad[a.offset..]);
                        level2::gemv(
                            alpha,
                            &av,
                            &xd[x.offset..x.offset + n],
                            beta,
                            &mut yd[y.offset..y.offset + m],
                        );
                        Ok(())
                    }
                    (Payload::F32(yd), Payload::F32(ad), Payload::F32(xd)) => {
                        let av = MatrixView::new(m, n, a.ld, &ad[a.offset..]);
                        level2::gemv(
                            alpha as f32,
                            &av,
                            &xd[x.offset..x.offset + n],
                            beta as f32,
                            &mut yd[y.offset..y.offset + m],
                        );
                        Ok(())
                    }
                    _ => Err(SimError::InvalidAccess {
                        what: "gemv operand dtype mismatch".to_owned(),
                    }),
                }
            })();
            dev.restore_payload(y.buf, py);
            result
        }
        _ => Err(SimError::InvalidAccess {
            what: "kernel shape does not match its arguments".to_owned(),
        }),
    }
}

/// The data effect of one functional-mode op.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    H2d(CopyDesc),
    D2h(CopyDesc),
    Kernel(KernelShape, KernelArgs),
}

/// Applies the functional effect of a completed op.
pub(crate) fn apply(
    effect: &Effect,
    host: &mut HostArena,
    dev: &mut DeviceMemory,
) -> Result<(), SimError> {
    match effect {
        Effect::H2d(desc) => apply_h2d(desc, host, dev),
        Effect::D2h(desc) => apply_d2h(desc, host, dev),
        Effect::Kernel(shape, args) => apply_kernel(shape, args, dev),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_region_strided() {
        // 2x2 region out of a 3x3 col-major source into a packed 2x2 dest.
        let src: Vec<f64> = (0..9).map(|v| v as f64).collect();
        let mut dst = vec![0.0f64; 4];
        copy_region(
            &src,
            Region2d {
                offset: 1,
                ld: 3,
                rows: 2,
                cols: 2,
            },
            &mut dst,
            Region2d {
                offset: 0,
                ld: 2,
                rows: 2,
                cols: 2,
            },
        );
        assert_eq!(dst, vec![1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn typed_copy_rejects_mixed_dtypes() {
        let src = Payload::F32(vec![1.0; 4]);
        let mut dst = Payload::F64(vec![0.0; 4]);
        let r = Region2d::contiguous(0, 4);
        assert!(typed_copy(&src, r, &mut dst, r).is_err());
    }

    #[test]
    fn ghost_copies_are_noops() {
        let src = Payload::Ghost {
            dtype: cocopelia_hostblas::Dtype::F64,
            len: 4,
        };
        let mut dst = Payload::F64(vec![9.0; 4]);
        let r = Region2d::contiguous(0, 4);
        typed_copy(&src, r, &mut dst, r).expect("ghost copy ok");
        assert_eq!(dst.as_f64(), &[9.0; 4]);
    }
}
