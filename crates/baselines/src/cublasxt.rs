//! The cuBLASXt scheduling policy: square tiling with 3-way overlap but
//! **no inter-sub-kernel data reuse** (§II-B2: cuBLASXt "does not account
//! for data reuse"), with the tiling size an explicit parameter the caller
//! must tune.
//!
//! Every sub-kernel re-fetches its `A`, `B` *and* `C` tiles and writes the
//! updated `C` tile back — exactly the per-sub-kernel transfer volume the
//! paper's Eq. 1/2/4 charge a reuse-less engine with. Sub-kernels are
//! dispatched reduction-step-major (`p` outer, `(i, j)` inner), so each `C`
//! tile's write-back→re-fetch dependency is separated by a full output
//! sweep and does not stall the pipeline.
//!
//! Staging uses small rings of device buffers (as the real library's
//! bounded workspace does): deep enough to pipeline, shallow enough that
//! device memory stays bounded by a few tiles regardless of problem size.
//!
//! The host side is bounded the same way: like the real library's host
//! thread, which blocks on its workspace instead of queueing the whole
//! problem, the schedule waits ([`Gpu::synchronize_event`]) for the kernel
//! of sub-kernel `q − INPUT_RING − 1` before it enqueues sub-kernel `q`.
//! The simulator then holds about five sub-kernels of pending records
//! rather than the whole schedule.
//!
//! The window is one sub-kernel deeper than the input ring on purpose.
//! When the host returns at that kernel's instant, sub-kernel `q − 1`'s
//! input copies have only just been released (their slots waited on that
//! very kernel), so every stream still has unfinished work ahead of the
//! ops enqueued next, and none of those ops can start at the instant the
//! host returned at. The run is therefore identical to enqueueing the whole
//! schedule before one synchronize. Waiting on the reused slot's own
//! kernel instead (ring depth, not ring depth + 1) can leave the copy
//! stream empty at that instant, so a newly enqueued copy starts there and
//! draws its noise in a different order than it would have.

use crate::BaselineResult;
use cocopelia_gpusim::{
    CopyDesc, DevBufId, DevMatRef, EventId, Gpu, HostBufId, KernelArgs, KernelShape, Region2d,
    SimScalar, StreamId,
};
use cocopelia_hostblas::tiling::{split, TileRange};
use cocopelia_hostblas::Matrix;
use cocopelia_runtime::{MatOperand, RuntimeError};
use std::collections::VecDeque;

/// Ring depth for the input (`A`/`B`) staging buffers.
const INPUT_RING: usize = 4;
/// Ring depth for the output (`C`) staging buffers.
const OUTPUT_RING: usize = 3;

struct Staging {
    host: Option<HostBufId>,
    dev: Option<(DevBufId, usize)>, // resident buffer + rows
    rows: usize,
}

fn stage<T: SimScalar>(gpu: &mut Gpu, op: MatOperand<T>) -> Staging {
    match op {
        MatOperand::Host(m) => {
            let rows = m.rows();
            let host = gpu.register_host(T::into_payload(m.into_vec()), true);
            Staging {
                host: Some(host),
                dev: None,
                rows,
            }
        }
        MatOperand::HostGhost { rows, cols } => {
            let host = gpu.register_host_ghost(T::DTYPE, rows * cols, true);
            Staging {
                host: Some(host),
                dev: None,
                rows,
            }
        }
        MatOperand::Device(d) => Staging {
            host: None,
            dev: Some((d.raw_buf(), d.rows())),
            rows: d.rows(),
        },
    }
}

/// A bounded pool of staging tiles, recycled round-robin. A slot may only
/// be overwritten after the op that last consumed it completes; the ring
/// enforces that with an event wait on the next writer's stream.
struct Ring {
    depth: usize,
    elems: usize,
    slots: Vec<(DevBufId, Option<EventId>)>,
    next: usize,
}

impl Ring {
    fn new(depth: usize, elems: usize) -> Ring {
        Ring {
            depth,
            elems,
            slots: Vec::new(),
            next: 0,
        }
    }

    /// Returns `(slot index, buffer)` ready to be written on `writer`.
    fn acquire<T: SimScalar>(
        &mut self,
        gpu: &mut Gpu,
        writer: StreamId,
    ) -> Result<(usize, DevBufId), RuntimeError> {
        if self.slots.len() < self.depth {
            let buf = gpu.alloc_device(T::DTYPE, self.elems)?;
            self.slots.push((buf, None));
            return Ok((self.slots.len() - 1, buf));
        }
        let i = self.next;
        self.next = (self.next + 1) % self.depth;
        if let Some(ev) = self.slots[i].1.take() {
            gpu.wait_event(writer, ev)?;
        }
        Ok((i, self.slots[i].0))
    }

    /// Records that `ev` is the last consumer of slot `i`.
    fn mark(&mut self, i: usize, ev: EventId) {
        self.slots[i].1 = Some(ev);
    }

    fn release(self, gpu: &mut Gpu) -> Result<(), RuntimeError> {
        for (buf, _) in self.slots {
            gpu.free_device(buf)?;
        }
        Ok(())
    }
}

/// A staged tile: device reference, readiness event, and ring slot (for
/// host-staged operands).
struct StagedTile {
    mat: DevMatRef,
    ready: Option<EventId>,
    slot: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
fn fetch_tile<T: SimScalar>(
    gpu: &mut Gpu,
    h2d: StreamId,
    st: &Staging,
    ring: &mut Ring,
    rr: TileRange,
    cr: TileRange,
    copy: bool,
    // Stream that will produce the slot's first write when not copying
    // (beta == 0 output tiles are first written by the kernel).
    writer_if_no_copy: StreamId,
) -> Result<StagedTile, RuntimeError> {
    if let Some((buf, rows)) = st.dev {
        return Ok(StagedTile {
            mat: DevMatRef {
                buf,
                offset: rr.start + cr.start * rows,
                ld: rows,
            },
            ready: None,
            slot: None,
        });
    }
    let host = st.host.expect("staged on host");
    let writer = if copy { h2d } else { writer_if_no_copy };
    let (slot, buf) = ring.acquire::<T>(gpu, writer)?;
    let ready = if copy {
        gpu.memcpy_h2d_async(
            h2d,
            CopyDesc {
                host,
                host_region: Region2d {
                    offset: rr.start + cr.start * st.rows,
                    ld: st.rows,
                    rows: rr.len,
                    cols: cr.len,
                },
                dev: buf,
                dev_region: Region2d {
                    offset: 0,
                    ld: rr.len,
                    rows: rr.len,
                    cols: cr.len,
                },
            },
        )?;
        Some(gpu.record_event(h2d)?)
    } else {
        None
    };
    Ok(StagedTile {
        mat: DevMatRef {
            buf,
            offset: 0,
            ld: rr.len,
        },
        ready,
        slot: Some(slot),
    })
}

/// Runs `C ← α·A·B + β·C` under the cuBLASXt policy with tiling size
/// `tile` (the library's `cublasXtSetBlockDim` parameter).
///
/// # Errors
///
/// Dimension mismatches and simulator failures.
pub fn gemm<T: SimScalar>(
    gpu: &mut Gpu,
    alpha: f64,
    a: MatOperand<T>,
    b: MatOperand<T>,
    beta: f64,
    c: MatOperand<T>,
    tile: usize,
) -> Result<BaselineResult<Matrix<T>>, RuntimeError> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb || c.rows() != m || c.cols() != n {
        return Err(RuntimeError::DimensionMismatch {
            what: format!(
                "cublasxt gemm: A {m}x{k}, B {kb}x{n}, C {}x{}",
                c.rows(),
                c.cols()
            ),
        });
    }
    if tile == 0 {
        return Err(RuntimeError::DimensionMismatch {
            what: "tiling size must be positive".to_owned(),
        });
    }
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let st_a = stage(gpu, a);
    let st_b = stage(gpu, b);
    let st_c = stage(gpu, c);
    let h2d = gpu.create_stream();
    let exec = gpu.create_stream();
    let d2h = gpu.create_stream();
    let t0 = gpu.now();
    let elems = tile * tile;
    let mut a_ring = Ring::new(INPUT_RING, elems);
    let mut b_ring = Ring::new(INPUT_RING, elems);
    let mut c_ring = Ring::new(OUTPUT_RING, elems);
    let mut subkernels = 0usize;
    let row_tiles = split(m, tile);
    let col_tiles = split(n, tile);
    let depth_tiles = split(k, tile);
    // Per-(i,j) write-back event: the next re-fetch of that C tile must not
    // start before the previous round trip's d2h landed.
    let mut c_written: std::collections::HashMap<(usize, usize), cocopelia_gpusim::EventId> =
        std::collections::HashMap::new();
    // The host window: the kernel events of the last `INPUT_RING + 1`
    // sub-kernels (see the module docs).
    let mut window: VecDeque<EventId> = VecDeque::with_capacity(INPUT_RING + 1);

    for (p, &kp) in depth_tiles.iter().enumerate() {
        for (i, &ri) in row_tiles.iter().enumerate() {
            for (j, &cj) in col_tiles.iter().enumerate() {
                if window.len() > INPUT_RING {
                    let oldest = window.pop_front().expect("window is full");
                    gpu.synchronize_event(oldest)?;
                }
                // Re-fetch C every sub-kernel (after step 0 the partial
                // result lives on the host again). β = 0 skips only the
                // very first fetch.
                let fetch_c_now = p > 0 || beta != 0.0;
                if let Some(ev) = c_written.get(&(i, j)) {
                    if st_c.host.is_some() {
                        gpu.wait_event(h2d, *ev)?;
                    }
                }
                let c_t = fetch_tile::<T>(gpu, h2d, &st_c, &mut c_ring, ri, cj, fetch_c_now, exec)?;
                if let Some(ev) = c_t.ready {
                    gpu.wait_event(exec, ev)?;
                }
                // No reuse: A and B tiles re-fetched for every sub-kernel.
                let a_t = fetch_tile::<T>(gpu, h2d, &st_a, &mut a_ring, ri, kp, true, exec)?;
                let b_t = fetch_tile::<T>(gpu, h2d, &st_b, &mut b_ring, kp, cj, true, exec)?;
                for ev in [a_t.ready, b_t.ready].into_iter().flatten() {
                    gpu.wait_event(exec, ev)?;
                }
                gpu.launch_kernel(
                    exec,
                    KernelShape::Gemm {
                        dtype: T::DTYPE,
                        m: ri.len,
                        n: cj.len,
                        k: kp.len,
                    },
                    Some(KernelArgs::Gemm {
                        alpha,
                        beta: if p == 0 { beta } else { 1.0 },
                        a: a_t.mat,
                        b: b_t.mat,
                        c: c_t.mat,
                    }),
                )?;
                subkernels += 1;
                let after_kernel = gpu.record_event(exec)?;
                window.push_back(after_kernel);
                if let Some(s) = a_t.slot {
                    a_ring.mark(s, after_kernel);
                }
                if let Some(s) = b_t.slot {
                    b_ring.mark(s, after_kernel);
                }
                if let Some(host) = st_c.host {
                    gpu.wait_event(d2h, after_kernel)?;
                    gpu.memcpy_d2h_async(
                        d2h,
                        CopyDesc {
                            host,
                            host_region: Region2d {
                                offset: ri.start + cj.start * st_c.rows,
                                ld: st_c.rows,
                                rows: ri.len,
                                cols: cj.len,
                            },
                            dev: c_t.mat.buf,
                            dev_region: Region2d {
                                offset: c_t.mat.offset,
                                ld: c_t.mat.ld,
                                rows: ri.len,
                                cols: cj.len,
                            },
                        },
                    )?;
                    let wb = gpu.record_event(d2h)?;
                    c_written.insert((i, j), wb);
                    if let Some(s) = c_t.slot {
                        c_ring.mark(s, wb);
                    }
                }
            }
        }
    }

    gpu.synchronize()?;
    let elapsed = gpu.now().saturating_since(t0);
    for ring in [a_ring, b_ring, c_ring] {
        ring.release(gpu)?;
    }
    let c_out = match st_c.host {
        Some(host) => {
            let buf = gpu.take_host(host)?;
            buf.payload
                .is_functional()
                .then(|| Matrix::from_vec(m, n, T::payload_into_vec(buf.payload)))
        }
        None => None,
    };
    for st in [st_a, st_b] {
        if let Some(h) = st.host {
            gpu.take_host(h)?;
        }
    }
    Ok(BaselineResult {
        output: c_out,
        elapsed,
        flops,
        subkernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, EngineKind, ExecMode, NoiseSpec, TestbedSpec};
    use cocopelia_hostblas::{level3, validate};

    fn quiet() -> TestbedSpec {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        tb
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

    #[test]
    fn numerically_correct() {
        let (m, n, k) = (40, 30, 50);
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        let c = rand_matrix(m, n, 3);
        let mut expect = c.clone();
        level3::gemm(1.2, &a.view(), &b.view(), 0.8, &mut expect.view_mut());

        let mut gpu = Gpu::new(quiet(), ExecMode::Functional, 1);
        let res = gemm::<f64>(
            &mut gpu,
            1.2,
            MatOperand::Host(a),
            MatOperand::Host(b),
            0.8,
            MatOperand::Host(c),
            16,
        )
        .expect("runs");
        let got = res.output.expect("functional");
        assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "err {}",
            validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn ring_reuse_is_numerically_safe_on_deep_problems() {
        // More sub-kernels than ring slots: correctness depends on the
        // ring's event discipline.
        let (m, n, k) = (24, 24, 96);
        let a = rand_matrix(m, k, 11);
        let b = rand_matrix(k, n, 12);
        let c = rand_matrix(m, n, 13);
        let mut expect = c.clone();
        level3::gemm(1.0, &a.view(), &b.view(), 1.0, &mut expect.view_mut());

        let mut gpu = Gpu::new(quiet(), ExecMode::Functional, 2);
        let res = gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::Host(a),
            MatOperand::Host(b),
            1.0,
            MatOperand::Host(c),
            8,
        )
        .expect("runs");
        let got = res.output.expect("functional");
        assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "err {}",
            validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
    }

    #[test]
    fn refetches_tiles_every_subkernel() {
        let n = 64;
        let t = 16;
        let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        let res = gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            MatOperand::HostGhost { rows: n, cols: n },
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            t,
        )
        .expect("runs");
        // 4x4x4 = 64 subkernels, each round-tripping A, B and C tiles:
        // 3 h2d tiles per sub-kernel, 1 d2h tile per sub-kernel.
        assert_eq!(res.subkernels, 64);
        let h2d_bytes = gpu.trace().bytes_moved(EngineKind::CopyH2d);
        assert_eq!(h2d_bytes, 64 * 3 * t * t * 8);
        let d2h_bytes = gpu.trace().bytes_moved(EngineKind::CopyD2h);
        assert_eq!(d2h_bytes, 64 * t * t * 8);
    }

    #[test]
    fn device_memory_stays_bounded_by_rings() {
        let n = 2048;
        let t = 256; // 8x8x8 = 512 subkernels
        let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            MatOperand::HostGhost { rows: n, cols: n },
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            t,
        )
        .expect("runs");
        assert_eq!(gpu.device_mem_used(), 0);
        // Peak usage during the run was at most the ring capacity.
        let ring_bytes = (2 * INPUT_RING + OUTPUT_RING) * t * t * 8;
        assert!(
            ring_bytes < 16 * 1024 * 1024,
            "rings stay small: {ring_bytes}"
        );
    }

    #[test]
    fn transfers_more_than_reuse_volume() {
        let n = 512;
        let t = 128;
        let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 1);
        gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            MatOperand::HostGhost { rows: n, cols: n },
            1.0,
            MatOperand::HostGhost { rows: n, cols: n },
            t,
        )
        .expect("runs");
        let xt_bytes = gpu.trace().bytes_moved(EngineKind::CopyH2d);
        // A reuse scheduler would move exactly 3 matrices' worth.
        assert!(xt_bytes > 3 * n * n * 8, "{xt_bytes}");
    }
}
