//! Problem descriptions: the notation of the paper's Table I.
//!
//! A [`ProblemSpec`] captures everything the prediction models need to know
//! about one BLAS invocation: the routine and precision, the problem
//! dimensions `D1..D3`, and per-operand shape/location/role information from
//! which the `get_i`/`set_i` transfer flags are derived.

use cocopelia_hostblas::Dtype;
use serde::{Deserialize, Serialize};

/// BLAS level of a routine (drives which model §III-C recommends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlasLevel {
    /// Vector-vector routines.
    L1,
    /// Matrix-vector routines.
    L2,
    /// Matrix-matrix routines.
    L3,
}

/// The routine families covered by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RoutineClass {
    /// `y ← α·x + y`.
    Axpy,
    /// `result ← xᵀy` (tiled partial reduction).
    Dot,
    /// `y ← α·A·x + β·y`.
    Gemv,
    /// `C ← α·A·B + β·C`.
    Gemm,
}

impl RoutineClass {
    /// BLAS level of the routine.
    pub fn level(self) -> BlasLevel {
        match self {
            RoutineClass::Axpy | RoutineClass::Dot => BlasLevel::L1,
            RoutineClass::Gemv => BlasLevel::L2,
            RoutineClass::Gemm => BlasLevel::L3,
        }
    }

    /// Canonical name for a precision, e.g. `dgemm`.
    pub fn name(self, dtype: Dtype) -> String {
        let base = match self {
            RoutineClass::Axpy => "axpy",
            RoutineClass::Dot => "dot",
            RoutineClass::Gemv => "gemv",
            RoutineClass::Gemm => "gemm",
        };
        format!("{}{base}", dtype.blas_prefix())
    }
}

/// The routine/precision pairs [`ProblemSpec::parse`] accepts by their
/// canonical names (`dgemm`, `sgemm`, `daxpy`, `ddot`, `dgemv`): the
/// pairs the runtime has a request for.
pub const ROUTINES: [(RoutineClass, Dtype); 5] = [
    (RoutineClass::Gemm, Dtype::F64),
    (RoutineClass::Gemm, Dtype::F32),
    (RoutineClass::Axpy, Dtype::F64),
    (RoutineClass::Dot, Dtype::F64),
    (RoutineClass::Gemv, Dtype::F64),
];

/// Initial residence of an operand's data (§III-A2: iterative workloads may
/// leave operands on the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Loc {
    /// Data starts in host memory.
    Host,
    /// Data already resides in device memory.
    Device,
}

/// One BLAS operand (a matrix or vector of Table I's data-specific rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operand {
    /// `S1_i`: rows (vector length for vectors).
    pub rows: usize,
    /// `S2_i`: columns (1 for vectors).
    pub cols: usize,
    /// Initial data residence.
    pub loc: Loc,
    /// The routine reads this operand.
    pub input: bool,
    /// The routine writes this operand.
    pub output: bool,
}

impl Operand {
    /// `get_i` flag: the operand must be fetched to the device.
    pub fn get(&self) -> bool {
        self.loc == Loc::Host && self.input
    }

    /// `set_i` flag: the operand must be returned to the host.
    pub fn set(&self) -> bool {
        self.loc == Loc::Host && self.output
    }

    /// True for matrix operands (split in both dimensions).
    pub fn is_matrix(&self) -> bool {
        self.cols > 1
    }

    /// `tiles_i`: number of tiles the operand splits into under tiling size
    /// `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn tiles(&self, t: usize) -> usize {
        assert!(t > 0, "tile size must be positive");
        self.rows.div_ceil(t)
            * if self.is_matrix() {
                self.cols.div_ceil(t)
            } else {
                1
            }
    }

    /// Bytes of one (full-size) tile of this operand under tiling size `t`.
    pub fn tile_bytes(&self, t: usize, dtype: Dtype) -> usize {
        let elems = if self.is_matrix() { t * t } else { t };
        elems * dtype.width()
    }

    /// Average bytes per tile of this operand under tiling size `t`,
    /// accounting for remainder tiles: `bytes / tiles`. Equal to
    /// [`tile_bytes`](Self::tile_bytes) when `t` divides both dimensions —
    /// the exact-division case the paper's formulas assume — and the exact
    /// per-sub-kernel average otherwise.
    pub fn avg_tile_bytes(&self, t: usize, dtype: Dtype) -> f64 {
        let tiles = self.tiles(t);
        if tiles == 0 {
            return 0.0;
        }
        self.bytes(dtype) as f64 / tiles as f64
    }

    /// Total bytes of the operand.
    pub fn bytes(&self, dtype: Dtype) -> usize {
        self.rows * self.cols * dtype.width()
    }
}

/// A fully-described BLAS problem instance (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Routine family.
    pub routine: RoutineClass,
    /// Element precision.
    pub dtype: Dtype,
    /// First problem dimension (`M` for gemm, output length for gemv, `N`
    /// for axpy).
    pub d1: usize,
    /// Second problem dimension (`N` for gemm, input length for gemv).
    pub d2: Option<usize>,
    /// Third problem dimension (`K` for gemm).
    pub d3: Option<usize>,
    /// The routine's operands, in BLAS argument order.
    pub operands: Vec<Operand>,
}

impl ProblemSpec {
    /// Describes `y ← α·x + y` with `n` elements.
    pub fn axpy(dtype: Dtype, n: usize, loc_x: Loc, loc_y: Loc) -> Self {
        ProblemSpec {
            routine: RoutineClass::Axpy,
            dtype,
            d1: n,
            d2: None,
            d3: None,
            operands: vec![
                Operand {
                    rows: n,
                    cols: 1,
                    loc: loc_x,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: n,
                    cols: 1,
                    loc: loc_y,
                    input: true,
                    output: true,
                },
            ],
        }
    }

    /// Describes the reduction `result ← xᵀy` with `n` elements.
    ///
    /// The scalar result's return transfer (one element) is negligible and
    /// not modelled; the operands are pure inputs.
    pub fn dot(dtype: Dtype, n: usize, loc_x: Loc, loc_y: Loc) -> Self {
        ProblemSpec {
            routine: RoutineClass::Dot,
            dtype,
            d1: n,
            d2: None,
            d3: None,
            operands: vec![
                Operand {
                    rows: n,
                    cols: 1,
                    loc: loc_x,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: n,
                    cols: 1,
                    loc: loc_y,
                    input: true,
                    output: false,
                },
            ],
        }
    }

    /// Describes `y ← α·A·x + β·y` for an `m × n` matrix `A`.
    pub fn gemv(
        dtype: Dtype,
        m: usize,
        n: usize,
        loc_a: Loc,
        loc_x: Loc,
        loc_y: Loc,
        beta_nonzero: bool,
    ) -> Self {
        ProblemSpec {
            routine: RoutineClass::Gemv,
            dtype,
            d1: m,
            d2: Some(n),
            d3: None,
            operands: vec![
                Operand {
                    rows: m,
                    cols: n,
                    loc: loc_a,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: n,
                    cols: 1,
                    loc: loc_x,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: m,
                    cols: 1,
                    loc: loc_y,
                    input: beta_nonzero,
                    output: true,
                },
            ],
        }
    }

    /// Describes `C ← α·A·B + β·C` with `A (m×k)`, `B (k×n)`, `C (m×n)`.
    ///
    /// When `beta_nonzero` is false, `C` is write-only and never fetched.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        dtype: Dtype,
        m: usize,
        n: usize,
        k: usize,
        loc_a: Loc,
        loc_b: Loc,
        loc_c: Loc,
        beta_nonzero: bool,
    ) -> Self {
        ProblemSpec {
            routine: RoutineClass::Gemm,
            dtype,
            d1: m,
            d2: Some(n),
            d3: Some(k),
            operands: vec![
                Operand {
                    rows: m,
                    cols: k,
                    loc: loc_a,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: k,
                    cols: n,
                    loc: loc_b,
                    input: true,
                    output: false,
                },
                Operand {
                    rows: m,
                    cols: n,
                    loc: loc_c,
                    input: beta_nonzero,
                    output: true,
                },
            ],
        }
    }

    /// Describes the routine named `routine` (one of [`ROUTINES`]) over
    /// `dims` (`M N K` for gemm, `M N` for gemv, `N` for the level-1
    /// routines). Operand `i` starts at `locs[i]`, or on the host past the
    /// end of `locs`. Gemm's `C` and gemv's `y` are inputs (`β ≠ 0`).
    ///
    /// # Errors
    ///
    /// An unknown routine name, or a dims count the routine does not take.
    pub fn parse(routine: &str, dims: &[usize], locs: &[Loc]) -> Result<Self, String> {
        let &(class, dtype) = ROUTINES
            .iter()
            .find(|(class, dtype)| class.name(*dtype) == routine)
            .ok_or_else(|| format!("unknown routine `{routine}`"))?;
        let need = match class {
            RoutineClass::Axpy | RoutineClass::Dot => 1,
            RoutineClass::Gemv => 2,
            RoutineClass::Gemm => 3,
        };
        if dims.len() != need {
            return Err(format!("{routine} needs {need} dims, got {}", dims.len()));
        }
        let l = |i: usize| locs.get(i).copied().unwrap_or(Loc::Host);
        Ok(match class {
            RoutineClass::Axpy => Self::axpy(dtype, dims[0], l(0), l(1)),
            RoutineClass::Dot => Self::dot(dtype, dims[0], l(0), l(1)),
            RoutineClass::Gemv => Self::gemv(dtype, dims[0], dims[1], l(0), l(1), l(2), true),
            RoutineClass::Gemm => {
                Self::gemm(dtype, dims[0], dims[1], dims[2], l(0), l(1), l(2), true)
            }
        })
    }

    /// Problem dimensions as a compact vector (`D1[, D2[, D3]]`).
    pub fn dims(&self) -> Vec<usize> {
        let mut v = vec![self.d1];
        v.extend(self.d2);
        v.extend(self.d3);
        v
    }

    /// Smallest problem dimension (bounds the usable tiling sizes).
    pub fn min_dim(&self) -> usize {
        self.dims().into_iter().min().expect("at least D1")
    }

    /// `k`: number of sub-kernels under tiling size `t` (§III-B, with ceil
    /// division so remainder tiles are counted).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn subkernels(&self, t: usize) -> usize {
        assert!(t > 0, "tile size must be positive");
        self.dims().iter().map(|d| d.div_ceil(t)).product()
    }

    /// Total floating-point operations of the full problem.
    pub fn flops(&self) -> f64 {
        match self.routine {
            RoutineClass::Axpy | RoutineClass::Dot => 2.0 * self.d1 as f64,
            RoutineClass::Gemv => 2.0 * self.d1 as f64 * self.d2.unwrap_or(0) as f64,
            RoutineClass::Gemm => {
                2.0 * self.d1 as f64 * self.d2.unwrap_or(0) as f64 * self.d3.unwrap_or(0) as f64
            }
        }
    }

    /// True if every operand already resides on the device (no overlap to
    /// schedule — the paper excludes this case from its validation sets).
    pub fn fully_resident(&self) -> bool {
        self.operands.iter().all(|o| o.loc == Loc::Device)
    }

    /// True if every operand starts on the host (the "full offload" scenario
    /// of Table IV).
    pub fn full_offload(&self) -> bool {
        self.operands.iter().all(|o| o.loc == Loc::Host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_operand_flags() {
        let p = ProblemSpec::gemm(Dtype::F64, 4, 4, 4, Loc::Host, Loc::Device, Loc::Host, true);
        assert!(p.operands[0].get()); // A on host, input
        assert!(!p.operands[0].set());
        assert!(!p.operands[1].get()); // B on device
        assert!(p.operands[2].get()); // C in/out on host
        assert!(p.operands[2].set());
    }

    #[test]
    fn beta_zero_skips_c_fetch() {
        let p = ProblemSpec::gemm(Dtype::F64, 4, 4, 4, Loc::Host, Loc::Host, Loc::Host, false);
        assert!(!p.operands[2].get());
        assert!(p.operands[2].set());
    }

    #[test]
    fn subkernel_counts() {
        let p = ProblemSpec::gemm(Dtype::F64, 8, 8, 8, Loc::Host, Loc::Host, Loc::Host, true);
        assert_eq!(p.subkernels(4), 8);
        assert_eq!(p.subkernels(8), 1);
        assert_eq!(p.subkernels(5), 8); // ceil(8/5)=2 per dim
        let a = ProblemSpec::axpy(Dtype::F64, 10, Loc::Host, Loc::Host);
        assert_eq!(a.subkernels(4), 3);
    }

    #[test]
    fn operand_tiles_and_bytes() {
        let m = Operand {
            rows: 10,
            cols: 6,
            loc: Loc::Host,
            input: true,
            output: false,
        };
        assert_eq!(m.tiles(4), 3 * 2);
        assert_eq!(m.tile_bytes(4, Dtype::F64), 128);
        assert_eq!(m.bytes(Dtype::F32), 240);
        let v = Operand {
            rows: 10,
            cols: 1,
            loc: Loc::Host,
            input: true,
            output: false,
        };
        assert!(!v.is_matrix());
        assert_eq!(v.tiles(4), 3);
        assert_eq!(v.tile_bytes(4, Dtype::F64), 32);
    }

    #[test]
    fn flops_formulas() {
        let g = ProblemSpec::gemm(Dtype::F64, 2, 3, 4, Loc::Host, Loc::Host, Loc::Host, true);
        assert_eq!(g.flops(), 48.0);
        assert_eq!(
            ProblemSpec::axpy(Dtype::F64, 5, Loc::Host, Loc::Host).flops(),
            10.0
        );
        let v = ProblemSpec::gemv(Dtype::F32, 3, 4, Loc::Host, Loc::Host, Loc::Host, true);
        assert_eq!(v.flops(), 24.0);
    }

    #[test]
    fn residency_predicates() {
        let full = ProblemSpec::gemm(Dtype::F64, 2, 2, 2, Loc::Host, Loc::Host, Loc::Host, true);
        assert!(full.full_offload());
        assert!(!full.fully_resident());
        let res = ProblemSpec::gemm(
            Dtype::F64,
            2,
            2,
            2,
            Loc::Device,
            Loc::Device,
            Loc::Device,
            true,
        );
        assert!(res.fully_resident());
        assert!(!res.full_offload());
    }

    #[test]
    fn routine_names() {
        assert_eq!(RoutineClass::Gemm.name(Dtype::F64), "dgemm");
        assert_eq!(RoutineClass::Axpy.name(Dtype::F32), "saxpy");
        assert_eq!(RoutineClass::Gemm.level(), BlasLevel::L3);
    }

    #[test]
    fn parse_names_dims_and_locations() {
        let p = ProblemSpec::parse("sgemm", &[64, 32, 16], &[Loc::Host, Loc::Device]);
        let want = ProblemSpec::gemm(
            Dtype::F32,
            64,
            32,
            16,
            Loc::Host,
            Loc::Device,
            Loc::Host,
            true,
        );
        assert_eq!(p, Ok(want));
        for (routine, dims, err) in [
            ("zgemm", &[1][..], "unknown routine `zgemm`"),
            ("saxpy", &[1], "unknown routine `saxpy`"),
            ("dgemv", &[8], "dgemv needs 2 dims, got 1"),
        ] {
            assert_eq!(ProblemSpec::parse(routine, dims, &[]), Err(err.to_owned()));
        }
    }

    #[test]
    fn min_dim_over_present_dims() {
        let p = ProblemSpec::gemm(
            Dtype::F64,
            100,
            50,
            200,
            Loc::Host,
            Loc::Host,
            Loc::Host,
            true,
        );
        assert_eq!(p.min_dim(), 50);
        assert_eq!(
            ProblemSpec::axpy(Dtype::F64, 7, Loc::Host, Loc::Host).min_dim(),
            7
        );
    }
}
