//! Multi-GPU execution — the paper's first "future work" item (§VI: "…
//! includes multi-GPU and host-assisted execution, with the vision of
//! providing a portable auto-tuned heterogeneous BLAS library").
//!
//! The decomposition follows the multi-GPU mode of the comparator libraries
//! (cuBLASXt/BLASX split the output matrix across devices): `C` is divided
//! into contiguous column blocks, one per device; each device receives the
//! whole of `A`, its column block of `B` and `C`, and runs the ordinary
//! CoCoPeLia tile schedule — including per-device tiling-size selection,
//! which now sees a *rectangular* sub-problem (`M × N/G × K`) and adapts
//! accordingly.
//!
//! Modelling note: each simulated device owns an independent host link
//! (separate PCIe slots, as in DGX-class nodes), so cross-device link
//! contention is not modelled; the makespan is the slowest device's virtual
//! time.

use crate::ctx::{Cocopelia, RoutineReport};
use crate::error::RuntimeError;
use crate::operand::{MatOperand, TileChoice};
use crate::request::GemmRequest;
use cocopelia_core::profile::SystemProfile;
use cocopelia_gpusim::{ExecMode, FaultSpec, Gpu, SimScalar, SimTime, TestbedSpec};
use cocopelia_hostblas::{tiling::split, Matrix};

/// A homogeneous group of simulated devices driven by one CoCoPeLia profile.
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Cocopelia>,
}

/// Outcome of a multi-device routine call.
#[derive(Debug)]
pub struct MultiGemmResult<T> {
    /// The assembled `C`, when host data was provided in functional mode.
    pub c: Option<Matrix<T>>,
    /// Per-device reports, in device order.
    pub per_device: Vec<RoutineReport>,
    /// Makespan: the slowest device's elapsed virtual time.
    pub elapsed: SimTime,
    /// Total useful floating-point operations.
    pub flops: f64,
}

impl<T> MultiGemmResult<T> {
    /// Aggregate throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.elapsed.as_secs_f64() / 1e9
    }
}

impl MultiGpu {
    /// Creates `count` identical devices of `testbed`, all consulting the
    /// same deployed `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn new(
        testbed: &TestbedSpec,
        count: usize,
        mode: ExecMode,
        seed: u64,
        profile: SystemProfile,
    ) -> Self {
        Self::with_fault_plans(
            testbed,
            mode,
            seed,
            profile,
            &FaultSpec::none().per_device(count),
        )
    }

    /// Like [`MultiGpu::new`], but every device carries its *own* fault
    /// plan (`plans[i]`, used verbatim — no per-device re-seeding), so
    /// asymmetric scenarios — one straggling device behind a degraded link
    /// while its peers stay healthy — are expressible. The pool size is
    /// `plans.len()`. [`FaultSpec::per_device`] spreads one plan over a
    /// pool with independent per-device seeds.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty.
    pub fn with_fault_plans(
        testbed: &TestbedSpec,
        mode: ExecMode,
        seed: u64,
        profile: SystemProfile,
        plans: &[FaultSpec],
    ) -> Self {
        assert!(!plans.is_empty(), "need at least one device");
        let devices = plans
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                Cocopelia::new(
                    Gpu::with_faults(
                        testbed.clone(),
                        mode,
                        seed.wrapping_add(i as u64),
                        spec.clone(),
                    ),
                    profile.clone(),
                )
            })
            .collect();
        MultiGpu { devices }
    }

    /// Number of devices in the group.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Per-device CoCoPeLia handles (for inspection).
    pub fn devices(&self) -> &[Cocopelia] {
        &self.devices
    }

    /// Mutable access to one device handle (residency management, trace
    /// inspection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_mut(&mut self, i: usize) -> &mut Cocopelia {
        &mut self.devices[i]
    }

    /// Mutable access to every device handle.
    pub fn devices_mut(&mut self) -> &mut [Cocopelia] {
        &mut self.devices
    }

    /// `C ← α·A·B + β·C` split column-wise across the device group, with
    /// host data (functional verification supported).
    ///
    /// # Errors
    ///
    /// Dimension mismatches and per-device runtime failures.
    pub fn gemm_host<T: SimScalar>(
        &mut self,
        alpha: f64,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: f64,
        c: &Matrix<T>,
        choice: TileChoice,
    ) -> Result<MultiGemmResult<T>, RuntimeError> {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        if b.rows() != k || c.rows() != m || c.cols() != n {
            return Err(RuntimeError::DimensionMismatch {
                what: format!(
                    "multi-gpu gemm: A {m}x{k}, B {}x{}, C {}x{}",
                    b.rows(),
                    b.cols(),
                    c.rows(),
                    c.cols()
                ),
            });
        }
        let g = self.devices.len();
        let col_blocks = split(n, n.div_ceil(g).max(1));
        let mut per_device = Vec::with_capacity(col_blocks.len());
        let mut parts: Vec<Option<Matrix<T>>> = Vec::with_capacity(col_blocks.len());
        for (dev, blk) in self.devices.iter_mut().zip(&col_blocks) {
            let b_blk = b.block(0, blk.start, k, blk.len).to_matrix();
            let c_blk = c.block(0, blk.start, m, blk.len).to_matrix();
            let out = dev.run_gemm::<T>(
                GemmRequest::new(
                    MatOperand::Host(a.clone()),
                    MatOperand::Host(b_blk),
                    MatOperand::Host(c_blk),
                )
                .alpha(alpha)
                .beta(beta)
                .tile(choice),
            )?;
            per_device.push(out.report);
            parts.push(out.c);
        }
        let elapsed = per_device
            .iter()
            .map(|r| r.elapsed)
            .max()
            .expect("at least one device ran");
        let c_out = if parts.iter().all(Option::is_some) {
            let mut full = Matrix::<T>::zeros(m, n);
            for (blk, part) in col_blocks.iter().zip(parts) {
                let part = part.expect("checked");
                for j in 0..blk.len {
                    for i in 0..m {
                        full.set(i, blk.start + j, part.get(i, j));
                    }
                }
            }
            Some(full)
        } else {
            None
        };
        Ok(MultiGemmResult {
            c: c_out,
            per_device,
            elapsed,
            flops: 2.0 * m as f64 * n as f64 * k as f64,
        })
    }

    /// Timing-only variant over ghost operands: `C (m×n) ← A (m×k)·B`,
    /// all data host-resident.
    ///
    /// # Errors
    ///
    /// Per-device runtime failures.
    pub fn gemm_ghost(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        choice: TileChoice,
    ) -> Result<MultiGemmResult<f64>, RuntimeError> {
        let g = self.devices.len();
        let col_blocks = split(n, n.div_ceil(g).max(1));
        let mut per_device = Vec::with_capacity(col_blocks.len());
        for (dev, blk) in self.devices.iter_mut().zip(&col_blocks) {
            let out = dev.run_gemm::<f64>(
                GemmRequest::new(
                    MatOperand::HostGhost { rows: m, cols: k },
                    MatOperand::HostGhost {
                        rows: k,
                        cols: blk.len,
                    },
                    MatOperand::HostGhost {
                        rows: m,
                        cols: blk.len,
                    },
                )
                .alpha(1.0)
                .beta(1.0)
                .tile(choice),
            )?;
            per_device.push(out.report);
        }
        let elapsed = per_device
            .iter()
            .map(|r| r.elapsed)
            .max()
            .expect("at least one device ran");
        Ok(MultiGemmResult {
            c: None,
            per_device,
            elapsed,
            flops: 2.0 * m as f64 * n as f64 * k as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_core::transfer::{LatBw, TransferModel};
    use cocopelia_gpusim::{testbed_i, NoiseSpec};
    use cocopelia_hostblas::{level3, validate};

    fn quiet() -> TestbedSpec {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        tb
    }

    fn dummy_profile() -> SystemProfile {
        SystemProfile::new(
            "multi",
            TransferModel {
                h2d: LatBw { t_l: 0.0, t_b: 0.0 },
                d2h: LatBw { t_l: 0.0, t_b: 0.0 },
                sl_h2d: 1.0,
                sl_d2h: 1.0,
            },
        )
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
    fn functional_multi_gpu_matches_reference() {
        let (m, n, k) = (48, 50, 32);
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        let c = rand_matrix(m, n, 3);
        let mut expect = c.clone();
        level3::gemm(1.0, &a.view(), &b.view(), 0.5, &mut expect.view_mut());

        let mut mg = MultiGpu::new(&quiet(), 3, ExecMode::Functional, 9, dummy_profile());
        let out = mg
            .gemm_host(1.0, &a, &b, 0.5, &c, TileChoice::Fixed(16))
            .expect("runs");
        assert_eq!(out.per_device.len(), 3);
        let got = out.c.expect("functional");
        assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "max rel err {}",
            validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
    }

    #[test]
    fn more_devices_reduce_makespan() {
        let run = |g: usize| {
            let mut mg = MultiGpu::new(&quiet(), g, ExecMode::TimingOnly, 1, dummy_profile());
            mg.gemm_ghost(4096, 4096, 4096, TileChoice::Fixed(512))
                .expect("runs")
                .elapsed
                .as_secs_f64()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert!(two < one, "2 GPUs {two} !< 1 GPU {one}");
        assert!(four < two, "4 GPUs {four} !< 2 GPUs {two}");
        // Sub-linear: A is replicated to every device.
        assert!(four > one / 4.0, "scaling cannot be super-linear here");
    }

    #[test]
    fn uneven_split_covers_all_columns() {
        // n = 50 over 3 devices: blocks of 17, 17, 16.
        let mut mg = MultiGpu::new(&quiet(), 3, ExecMode::TimingOnly, 1, dummy_profile());
        let out = mg
            .gemm_ghost(64, 50, 64, TileChoice::Fixed(16))
            .expect("runs");
        assert_eq!(out.per_device.len(), 3);
        let total_sub: usize = out.per_device.iter().map(|r| r.subkernels).sum();
        // 4 row tiles x 4 depth tiles x (2+2+1) col tiles... all columns
        // covered: sum of per-device col tiles = ceil(17/16)*2 + 1 = 5.
        assert_eq!(total_sub, 4 * 4 * 5);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut mg = MultiGpu::new(&quiet(), 2, ExecMode::Functional, 1, dummy_profile());
        let a = Matrix::<f64>::zeros(4, 5);
        let b = Matrix::<f64>::zeros(6, 4);
        let c = Matrix::<f64>::zeros(4, 4);
        assert!(matches!(
            mg.gemm_host(1.0, &a, &b, 0.0, &c, TileChoice::Fixed(2)),
            Err(RuntimeError::DimensionMismatch { .. })
        ));
    }
}
