//! Glue that runs set problems through each library policy on a fresh
//! simulated device, and evaluates model predictions for the same problems.

use crate::sets::{AxpyProblem, GemmProblem};
use cocopelia_core::models::{predict, ModelCtx, ModelKind, Prediction};
use cocopelia_core::params::ProblemSpec;
use cocopelia_core::profile::SystemProfile;
use cocopelia_deploy::{measure_full_kernel, CiConfig, DeployConfig};
use cocopelia_gpusim::{ExecMode, Gpu, KernelShape, TestbedSpec};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{Cocopelia, MatOperand, RuntimeError, TileChoice, VecOperand};

/// A deployed laboratory: a testbed plus its fitted profile.
#[derive(Debug, Clone)]
pub struct Lab {
    /// The simulated machine.
    pub testbed: TestbedSpec,
    /// Micro-benchmark-fitted model inputs for that machine.
    pub profile: SystemProfile,
}

impl Lab {
    /// Deploys the paper's full micro-benchmark grids on `testbed`.
    ///
    /// # Panics
    ///
    /// Panics if deployment fails (cannot happen for the shipped testbeds).
    pub fn deploy(testbed: TestbedSpec) -> Lab {
        let report = cocopelia_deploy::deploy(&testbed, &DeployConfig::paper())
            .expect("deployment on a simulated testbed cannot fail");
        Lab {
            testbed,
            profile: report.profile,
        }
    }

    /// Like [`deploy`](Self::deploy) but also returns the Table II fit.
    ///
    /// # Panics
    ///
    /// As for [`deploy`](Self::deploy).
    pub fn deploy_with_fit(testbed: TestbedSpec) -> (Lab, cocopelia_deploy::TransferFit) {
        let report = cocopelia_deploy::deploy(&testbed, &DeployConfig::paper())
            .expect("deployment on a simulated testbed cannot fail");
        (
            Lab {
                testbed,
                profile: report.profile,
            },
            report.fit,
        )
    }
}

/// Which gemm implementation to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmLib {
    /// The CoCoPeLia runtime with the given tile choice.
    Cocopelia(TileChoice),
    /// cuBLASXt policy with an explicit tiling size.
    CublasXt(usize),
    /// BLASX policy (static `T = 2048`, clamped to the problem).
    Blasx,
    /// Serial no-overlap offload.
    Serial,
}

/// Which daxpy implementation to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxpyLib {
    /// The CoCoPeLia runtime with the given tile choice.
    Cocopelia(TileChoice),
    /// Unified-memory with prefetch.
    UnifiedPrefetch,
}

/// One measured execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOut {
    /// Wall (virtual) seconds of the call.
    pub secs: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Tiling size the library used (0 when not tile-based).
    pub tile: usize,
}

impl Lab {
    /// Executes `p` through `lib` on a fresh timing-only device.
    ///
    /// The paper's sgemm results differ from dgemm only through the kernel
    /// model and element width; the harness runs ghost `f64`/`f32` data
    /// according to `p.dtype`.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures (dimension errors, device OOM).
    pub fn run_gemm(
        &self,
        p: &GemmProblem,
        lib: GemmLib,
        seed: u64,
    ) -> Result<RunOut, RuntimeError> {
        match p.dtype {
            Dtype::F64 => self.run_gemm_typed::<f64>(p, lib, seed),
            Dtype::F32 => self.run_gemm_typed::<f32>(p, lib, seed),
        }
    }

    fn run_gemm_typed<T: cocopelia_gpusim::SimScalar>(
        &self,
        p: &GemmProblem,
        lib: GemmLib,
        seed: u64,
    ) -> Result<RunOut, RuntimeError> {
        let mut gpu = Gpu::new(self.testbed.clone(), ExecMode::TimingOnly, seed);
        let spec = p.spec();
        let ops = &spec.operands;
        match lib {
            GemmLib::Cocopelia(choice) => self.run_cocopelia(gpu, &spec, choice),
            GemmLib::CublasXt(tile) => {
                let a = MatOperand::ghost(&mut gpu, &ops[0])?;
                let b = MatOperand::ghost(&mut gpu, &ops[1])?;
                let c = MatOperand::ghost(&mut gpu, &ops[2])?;
                let out =
                    cocopelia_baselines::cublasxt::gemm::<T>(&mut gpu, 1.0, a, b, 1.0, c, tile)?;
                Ok(RunOut {
                    secs: out.elapsed.as_secs_f64(),
                    gflops: out.gflops(),
                    tile,
                })
            }
            GemmLib::Blasx => {
                let mut blasx = cocopelia_baselines::Blasx::new(gpu);
                let a = MatOperand::ghost(blasx.gpu_mut(), &ops[0])?;
                let b = MatOperand::ghost(blasx.gpu_mut(), &ops[1])?;
                let c = MatOperand::ghost(blasx.gpu_mut(), &ops[2])?;
                let tile = blasx.tile();
                let out = blasx.gemm::<T>(1.0, a, b, 1.0, c)?;
                Ok(RunOut {
                    secs: out.elapsed.as_secs_f64(),
                    gflops: out.gflops(),
                    tile,
                })
            }
            GemmLib::Serial => {
                let a = MatOperand::ghost(&mut gpu, &ops[0])?;
                let b = MatOperand::ghost(&mut gpu, &ops[1])?;
                let c = MatOperand::ghost(&mut gpu, &ops[2])?;
                let out = cocopelia_baselines::serial::gemm::<T>(&mut gpu, 1.0, a, b, 1.0, c)?;
                Ok(RunOut {
                    secs: out.elapsed.as_secs_f64(),
                    gflops: out.gflops(),
                    tile: 0,
                })
            }
        }
    }

    /// Executes the daxpy problem `p` through `lib`.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    pub fn run_daxpy(
        &self,
        p: &AxpyProblem,
        lib: AxpyLib,
        seed: u64,
    ) -> Result<RunOut, RuntimeError> {
        let mut gpu = Gpu::new(self.testbed.clone(), ExecMode::TimingOnly, seed);
        let spec = p.spec();
        match lib {
            AxpyLib::Cocopelia(choice) => self.run_cocopelia(gpu, &spec, choice),
            AxpyLib::UnifiedPrefetch => {
                let x = VecOperand::ghost(&mut gpu, &spec.operands[0])?;
                let y = VecOperand::ghost(&mut gpu, &spec.operands[1])?;
                let out = cocopelia_baselines::unified::daxpy_prefetch(&mut gpu, 1.5, x, y)?;
                Ok(RunOut {
                    secs: out.elapsed.as_secs_f64(),
                    gflops: out.gflops(),
                    tile: cocopelia_baselines::unified::DEFAULT_PREFETCH_CHUNK,
                })
            }
        }
    }

    /// Runs `spec` through the CoCoPeLia runtime on `gpu`, built by the one
    /// request constructor.
    fn run_cocopelia(
        &self,
        gpu: Gpu,
        spec: &ProblemSpec,
        tile: TileChoice,
    ) -> Result<RunOut, RuntimeError> {
        let mut ctx = Cocopelia::new(gpu, self.profile.clone());
        let req = ctx.ghost_request(spec, tile)?;
        let report = ctx.submit(req)?;
        Ok(RunOut {
            secs: report.elapsed.as_secs_f64(),
            gflops: report.gflops(),
            tile: report.tile,
        })
    }

    /// Evaluates `model` for gemm problem `p` at tiling size `t`.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn predict_gemm(
        &self,
        p: &GemmProblem,
        model: ModelKind,
        t: usize,
        full_kernel_time: Option<f64>,
    ) -> Result<Prediction, cocopelia_core::models::ModelError> {
        let spec = p.spec();
        let exec = self
            .profile
            .exec_table(spec.routine, spec.dtype)
            .expect("profile contains gemm tables");
        let ctx = ModelCtx {
            problem: &spec,
            transfer: &self.profile.transfer,
            exec,
            full_kernel_time,
        };
        predict(model, &ctx, t)
    }

    /// Evaluates `model` for daxpy problem `p` at tiling size `t`.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn predict_daxpy(
        &self,
        p: &AxpyProblem,
        model: ModelKind,
        t: usize,
        full_kernel_time: Option<f64>,
    ) -> Result<Prediction, cocopelia_core::models::ModelError> {
        let spec = p.spec();
        let exec = self
            .profile
            .exec_table(spec.routine, spec.dtype)
            .expect("profile contains daxpy tables");
        let ctx = ModelCtx {
            problem: &spec,
            transfer: &self.profile.transfer,
            exec,
            full_kernel_time,
        };
        predict(model, &ctx, t)
    }

    /// Measures the full-problem kernel-only time for `p` — the CSO
    /// comparator's input (§V-C).
    pub fn full_kernel_gemm(&self, p: &GemmProblem, seed: u64) -> f64 {
        let shape = KernelShape::Gemm {
            dtype: p.dtype,
            m: p.m,
            n: p.n,
            k: p.k,
        };
        measure_full_kernel(&self.testbed, shape, &CiConfig::default(), seed)
            .expect("kernel micro-benchmark cannot fail")
    }

    /// Measures the full-problem kernel-only time for a daxpy problem.
    pub fn full_kernel_daxpy(&self, p: &AxpyProblem, seed: u64) -> f64 {
        let shape = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: p.n,
        };
        measure_full_kernel(&self.testbed, shape, &CiConfig::default(), seed)
            .expect("kernel micro-benchmark cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::{GemmProblem, Scale};
    use cocopelia_core::params::Loc;
    use cocopelia_gpusim::{testbed_i, NoiseSpec};

    fn quiet_lab() -> Lab {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        // A reduced deployment keeps the test fast.
        let report = cocopelia_deploy::deploy(&tb, &DeployConfig::quick()).expect("deploys");
        Lab {
            testbed: tb,
            profile: report.profile,
        }
    }

    fn small_problem() -> GemmProblem {
        GemmProblem {
            dtype: Dtype::F64,
            m: 2048,
            n: 2048,
            k: 2048,
            loc_a: Loc::Host,
            loc_b: Loc::Host,
            loc_c: Loc::Host,
        }
    }

    #[test]
    fn all_gemm_libs_run() {
        let lab = quiet_lab();
        let p = small_problem();
        for lib in [
            GemmLib::Cocopelia(TileChoice::Fixed(512)),
            GemmLib::CublasXt(512),
            GemmLib::Blasx,
            GemmLib::Serial,
        ] {
            let out = lab.run_gemm(&p, lib, 1).expect("runs");
            assert!(out.secs > 0.0 && out.gflops > 0.0, "{lib:?}");
        }
    }

    #[test]
    fn overlap_beats_serial() {
        let lab = quiet_lab();
        let p = small_problem();
        let serial = lab.run_gemm(&p, GemmLib::Serial, 1).expect("serial");
        let coco = lab
            .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Fixed(512)), 1)
            .expect("coco");
        assert!(
            coco.secs < serial.secs,
            "coco {} vs serial {}",
            coco.secs,
            serial.secs
        );
    }

    #[test]
    fn cocopelia_reuse_beats_cublasxt_on_full_offload() {
        let lab = quiet_lab();
        let p = small_problem();
        let xt = lab.run_gemm(&p, GemmLib::CublasXt(512), 1).expect("xt");
        let coco = lab
            .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Fixed(512)), 1)
            .expect("coco");
        assert!(
            coco.secs < xt.secs,
            "coco {} vs cublasxt {}",
            coco.secs,
            xt.secs
        );
    }

    #[test]
    fn auto_selection_runs_end_to_end() {
        let lab = quiet_lab();
        let p = small_problem();
        let out = lab
            .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Auto), 3)
            .expect("auto");
        assert!(out.tile >= 256);
    }

    #[test]
    fn daxpy_libs_run_and_pinned_wins() {
        let lab = quiet_lab();
        let p = crate::sets::daxpy_validation(Scale::Reduced)[0];
        let coco = lab
            .run_daxpy(&p, AxpyLib::Cocopelia(TileChoice::Fixed(1 << 22)), 1)
            .expect("coco");
        let um = lab.run_daxpy(&p, AxpyLib::UnifiedPrefetch, 1).expect("um");
        assert!(coco.secs < um.secs);
    }

    #[test]
    fn predictions_available_for_all_models() {
        let lab = quiet_lab();
        let p = small_problem();
        let full = lab.full_kernel_gemm(&p, 5);
        for model in ModelKind::all() {
            let fk = (model == ModelKind::Cso).then_some(full);
            let pred = lab.predict_gemm(&p, model, 512, fk).expect("predicts");
            assert!(pred.total > 0.0);
        }
    }
}
