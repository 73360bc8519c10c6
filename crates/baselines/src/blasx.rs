//! The BLASX scheduling policy: a runtime tile-management engine *with*
//! data reuse (§II-B2), but a **static** tiling size selected at compile
//! time — the paper's comparisons use its default `T = 2048`.
//!
//! The reuse machinery is identical to the CoCoPeLia scheduler's (that is
//! the point: the paper's gain over BLASX comes from tiling-size selection,
//! not from a different reuse engine), so this policy delegates to
//! `cocopelia-runtime` with a fixed tile and a dummy profile.

use crate::BaselineResult;
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{Gpu, SimScalar};
use cocopelia_hostblas::Matrix;
use cocopelia_runtime::{Cocopelia, GemmRequest, MatOperand, RuntimeError, TileChoice};

/// BLASX's compile-time default tiling size.
pub const BLASX_DEFAULT_TILE: usize = 2048;

/// A BLASX-policy library instance wrapping a device.
#[derive(Debug)]
pub struct Blasx {
    ctx: Cocopelia,
}

impl Blasx {
    /// Wraps a device with the static tiling size
    /// [`BLASX_DEFAULT_TILE`].
    pub fn new(gpu: Gpu) -> Self {
        // BLASX never consults a performance model; the profile is inert.
        let dummy = SystemProfile::new(
            "blasx-static",
            TransferModel {
                h2d: LatBw { t_l: 0.0, t_b: 0.0 },
                d2h: LatBw { t_l: 0.0, t_b: 0.0 },
                sl_h2d: 1.0,
                sl_d2h: 1.0,
            },
        );
        Blasx {
            ctx: Cocopelia::new(gpu, dummy),
        }
    }

    /// The static tiling size in use.
    pub fn tile(&self) -> usize {
        BLASX_DEFAULT_TILE
    }

    /// The wrapped device.
    pub fn gpu(&self) -> &Gpu {
        self.ctx.gpu()
    }

    /// Mutable access to the wrapped device.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        self.ctx.gpu_mut()
    }

    /// Consumes the instance and returns the device.
    pub fn into_gpu(self) -> Gpu {
        self.ctx.into_gpu()
    }

    /// `C ← α·A·B + β·C` under the BLASX policy.
    ///
    /// # Errors
    ///
    /// Dimension mismatches and simulator failures.
    pub fn gemm<T: SimScalar>(
        &mut self,
        alpha: f64,
        a: MatOperand<T>,
        b: MatOperand<T>,
        beta: f64,
        c: MatOperand<T>,
    ) -> Result<BaselineResult<Matrix<T>>, RuntimeError> {
        // BLASX clamps its static tile to the problem when the problem is
        // smaller than the tile (a single-tile schedule).
        let min_dim = a.rows().min(b.cols()).min(a.cols());
        let tile = BLASX_DEFAULT_TILE.min(min_dim.max(1));
        let out = GemmRequest::new(a, b, c)
            .alpha(alpha)
            .beta(beta)
            .tile(TileChoice::Fixed(tile))
            .run(&mut self.ctx)?;
        Ok(BaselineResult {
            output: out.c,
            elapsed: out.report.elapsed,
            flops: out.report.flops,
            subkernels: out.report.subkernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, EngineKind, ExecMode, NoiseSpec};

    fn quiet_gpu() -> Gpu {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        Gpu::new(tb, ExecMode::TimingOnly, 1)
    }

    #[test]
    fn uses_static_tile() {
        let mut blasx = Blasx::new(quiet_gpu());
        assert_eq!(blasx.tile(), 2048);
        let res = blasx
            .gemm::<f64>(
                1.0,
                MatOperand::HostGhost {
                    rows: 4096,
                    cols: 4096,
                },
                MatOperand::HostGhost {
                    rows: 4096,
                    cols: 4096,
                },
                1.0,
                MatOperand::HostGhost {
                    rows: 4096,
                    cols: 4096,
                },
            )
            .expect("runs");
        assert_eq!(res.subkernels, 8);
    }

    #[test]
    fn reuse_moves_each_tile_once() {
        // A 2×2×2 grid of 2048 tiles: each of A, B and C moves once.
        let mut blasx = Blasx::new(quiet_gpu());
        let n = 4096;
        blasx
            .gemm::<f64>(
                1.0,
                MatOperand::HostGhost { rows: n, cols: n },
                MatOperand::HostGhost { rows: n, cols: n },
                1.0,
                MatOperand::HostGhost { rows: n, cols: n },
            )
            .expect("runs");
        let h2d = blasx.gpu().trace().bytes_moved(EngineKind::CopyH2d);
        assert_eq!(h2d, 3 * n * n * 8);
    }

    #[test]
    fn clamps_tile_for_small_problems() {
        let mut blasx = Blasx::new(quiet_gpu());
        let res = blasx
            .gemm::<f64>(
                1.0,
                MatOperand::HostGhost {
                    rows: 512,
                    cols: 512,
                },
                MatOperand::HostGhost {
                    rows: 512,
                    cols: 512,
                },
                0.0,
                MatOperand::HostGhost {
                    rows: 512,
                    cols: 512,
                },
            )
            .expect("runs");
        assert_eq!(res.subkernels, 1);
    }
}
