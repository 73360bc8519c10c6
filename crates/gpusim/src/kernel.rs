//! Parametric kernel cost models.
//!
//! These stand in for the execution behaviour of the cuBLAS kernels the paper
//! benchmarks. The design goal is *not* to predict any real GPU's absolute
//! numbers but to reproduce the qualitative properties the CoCoPeLia models
//! are built to handle (§III-A1):
//!
//! 1. **Non-linear scaling**: splitting a problem into `k` sub-kernels takes
//!    longer than the unsplit problem (launch overhead, small-`k` ramp, tail
//!    waves).
//! 2. **Shape sensitivity**: fat-by-thin multiplications run below square
//!    efficiency.
//! 3. **Small-kernel underutilisation**: tiles too small to fill the SMs lose
//!    throughput sharply.
//! 4. **Architecture quirks**: the V100 surface has alignment spikes the K40
//!    does not ([`QuantProfile`](crate::spec::QuantProfile)).

use crate::spec::GpuSpec;
use cocopelia_hostblas::Dtype;

/// Shape of a kernel invocation, used for costing (functional arguments are
/// carried separately by the op layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelShape {
    /// `C (m×n) ← α·A (m×k) · B (k×n) + β·C`.
    Gemm {
        /// Element precision.
        dtype: Dtype,
        /// Output rows.
        m: usize,
        /// Output columns.
        n: usize,
        /// Inner (reduction) dimension.
        k: usize,
    },
    /// `y ← α·x + y` over `n` elements.
    Axpy {
        /// Element precision.
        dtype: Dtype,
        /// Vector length.
        n: usize,
    },
    /// Partial reduction `out ← xᵀy` over `n` elements.
    Dot {
        /// Element precision.
        dtype: Dtype,
        /// Vector length.
        n: usize,
    },
    /// `y (m) ← α·A (m×n)·x (n) + β·y`.
    Gemv {
        /// Element precision.
        dtype: Dtype,
        /// Matrix rows.
        m: usize,
        /// Matrix columns.
        n: usize,
    },
}

impl KernelShape {
    /// Floating-point operations performed by the kernel.
    pub fn flops(&self) -> f64 {
        match *self {
            KernelShape::Gemm { m, n, k, .. } => 2.0 * m as f64 * n as f64 * k as f64,
            KernelShape::Axpy { n, .. } | KernelShape::Dot { n, .. } => 2.0 * n as f64,
            KernelShape::Gemv { m, n, .. } => 2.0 * m as f64 * n as f64,
        }
    }

    /// Bytes of device memory traffic the kernel streams (working-set reads
    /// plus writes; gemm reuse through caches is folded into its
    /// compute-bound model instead).
    pub fn mem_bytes(&self) -> f64 {
        match *self {
            KernelShape::Gemm { dtype, m, n, k } => {
                ((m * k + k * n + 2 * m * n) * dtype.width()) as f64
            }
            KernelShape::Axpy { dtype, n } => (3 * n * dtype.width()) as f64,
            KernelShape::Dot { dtype, n } => (2 * n * dtype.width()) as f64,
            KernelShape::Gemv { dtype, m, n } => ((m * n + n + 2 * m) * dtype.width()) as f64,
        }
    }

    /// Element precision of the kernel.
    pub fn dtype(&self) -> Dtype {
        match *self {
            KernelShape::Gemm { dtype, .. }
            | KernelShape::Axpy { dtype, .. }
            | KernelShape::Dot { dtype, .. }
            | KernelShape::Gemv { dtype, .. } => dtype,
        }
    }

    /// True if every logical dimension is zero-work (nothing to compute).
    pub fn is_empty(&self) -> bool {
        match *self {
            KernelShape::Gemm { m, n, k, .. } => m == 0 || n == 0 || k == 0,
            KernelShape::Axpy { n, .. } | KernelShape::Dot { n, .. } => n == 0,
            KernelShape::Gemv { m, n, .. } => m == 0 || n == 0,
        }
    }
}

/// Short label for traces ("dgemm 512x512x512").
impl std::fmt::Display for KernelShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.dtype().blas_prefix();
        match *self {
            KernelShape::Gemm { m, n, k, .. } => write!(f, "{p}gemm {m}x{n}x{k}"),
            KernelShape::Axpy { n, .. } => write!(f, "{p}axpy {n}"),
            KernelShape::Dot { n, .. } => write!(f, "{p}dot {n}"),
            KernelShape::Gemv { m, n, .. } => write!(f, "{p}gemv {m}x{n}"),
        }
    }
}

/// Thread-block footprint of the modelled gemm kernels (a 128×128 output
/// macro-tile, as in the cuBLAS-era SGEMM/DGEMM implementations).
const GEMM_BLOCK_M: usize = 128;
/// See [`GEMM_BLOCK_M`].
const GEMM_BLOCK_N: usize = 128;
/// Half-saturation point of the k-dimension pipeline ramp.
const GEMM_K_HALF: f64 = 32.0;
/// Exponent of the aspect-ratio penalty.
const GEMM_SHAPE_EXP: f64 = 0.07;
/// Half-saturation byte volume for streaming (bandwidth-bound) kernels.
const STREAM_HALF_SAT_BYTES: f64 = 2.0 * 1024.0 * 1024.0;

/// Noise-free execution time in seconds of `shape` on `gpu`.
///
/// This is the simulator's ground truth; the deployment micro-benchmarks
/// observe it only through noisy repeated measurement.
pub fn kernel_time(gpu: &GpuSpec, shape: &KernelShape) -> f64 {
    if shape.is_empty() {
        return gpu.launch_overhead_s;
    }
    match *shape {
        KernelShape::Gemm { dtype, m, n, k } => {
            let peak = gpu.peak_flops(dtype);
            let blocks = (m.div_ceil(GEMM_BLOCK_M) * n.div_ceil(GEMM_BLOCK_N)) as f64;
            let capacity = (gpu.sm_count * gpu.blocks_per_sm) as f64;
            // Tail-wave efficiency: fractional final wave wastes SMs; tiny
            // grids cannot fill the machine at all.
            let waves = blocks / capacity;
            let wave_eff = if waves <= 1.0 {
                waves
            } else {
                waves / waves.ceil()
            };
            let k_ramp = k as f64 / (k as f64 + GEMM_K_HALF);
            let dims = [m, n, k];
            let lo = *dims.iter().min().expect("nonempty") as f64;
            let hi = *dims.iter().max().expect("nonempty") as f64;
            let shape_pen = (lo / hi).powf(GEMM_SHAPE_EXP);
            let quant = gpu.quant.factor(&dims);
            let eff = gpu.gemm_eff_max * wave_eff * k_ramp * shape_pen * quant;
            gpu.launch_overhead_s + shape.flops() / (peak * eff.max(1e-6))
        }
        KernelShape::Axpy { .. } | KernelShape::Dot { .. } | KernelShape::Gemv { .. } => {
            let bytes = shape.mem_bytes();
            let ramp = bytes / (bytes + STREAM_HALF_SAT_BYTES);
            let eff = gpu.mem_eff_max * ramp;
            gpu.launch_overhead_s + bytes / (gpu.mem_bandwidth_bps * eff.max(1e-9))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{testbed_i, testbed_ii};

    fn dgemm(m: usize, n: usize, k: usize) -> KernelShape {
        KernelShape::Gemm {
            dtype: Dtype::F64,
            m,
            n,
            k,
        }
    }

    #[test]
    fn flops_and_bytes() {
        let s = dgemm(2, 3, 4);
        assert_eq!(s.flops(), 48.0);
        let a = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: 10,
        };
        assert_eq!(a.flops(), 20.0);
        assert_eq!(a.mem_bytes(), 240.0);
    }

    #[test]
    fn empty_kernels_cost_launch_overhead_only() {
        let gpu = testbed_i().gpu;
        assert_eq!(kernel_time(&gpu, &dgemm(0, 10, 10)), gpu.launch_overhead_s);
        assert_eq!(
            kernel_time(
                &gpu,
                &KernelShape::Axpy {
                    dtype: Dtype::F32,
                    n: 0
                }
            ),
            gpu.launch_overhead_s
        );
    }

    #[test]
    fn splitting_gemm_is_slower_than_whole() {
        // Non-linearity property (§III-A1): k sub-kernels of T^3 take longer
        // in total than one kernel covering the same flops.
        let gpu = testbed_ii().gpu;
        let whole = kernel_time(&gpu, &dgemm(8192, 8192, 8192));
        let t = 1024;
        let parts = (8192 / t) * (8192 / t) * (8192 / t);
        let split_total = parts as f64 * kernel_time(&gpu, &dgemm(t, t, t));
        assert!(
            split_total > whole * 1.02,
            "split {split_total} should exceed whole {whole}"
        );
    }

    #[test]
    fn tiny_tiles_are_disproportionately_slow() {
        let gpu = testbed_ii().gpu;
        let t256 = kernel_time(&gpu, &dgemm(256, 256, 256));
        let t4096 = kernel_time(&gpu, &dgemm(4096, 4096, 4096));
        // 4096^3 has 4096x the flops of 256^3; efficiency loss should make
        // the small kernel take far more than 1/4096 of the large time.
        assert!(t256 * 4096.0 > t4096 * 3.0);
    }

    #[test]
    fn fat_by_thin_is_less_efficient_than_square() {
        let gpu = testbed_i().gpu;
        let square = kernel_time(&gpu, &dgemm(2048, 2048, 2048));
        // Same flops, skewed shape.
        let skewed = kernel_time(&gpu, &dgemm(8192, 8192, 128));
        let flops_ratio = dgemm(8192, 8192, 128).flops() / dgemm(2048, 2048, 2048).flops();
        assert!(skewed > square * flops_ratio);
    }

    #[test]
    fn v100_has_alignment_spikes_k40_does_not() {
        // Isolate the quantisation term by comparing the V100 against an
        // identical GPU with a smooth performance surface.
        let v100 = testbed_ii().gpu;
        let mut smooth = v100.clone();
        smooth.quant = crate::spec::QuantProfile::Smooth;
        let aligned = dgemm(2048, 2048, 2048);
        let misaligned = dgemm(2050, 2050, 2050);
        let aligned_ratio = kernel_time(&v100, &aligned) / kernel_time(&smooth, &aligned);
        let mis_ratio = kernel_time(&v100, &misaligned) / kernel_time(&smooth, &misaligned);
        assert!(
            (aligned_ratio - 1.0).abs() < 1e-12,
            "aligned unaffected: {aligned_ratio}"
        );
        assert!(mis_ratio > 1.1, "misaligned pays the spike: {mis_ratio}");
        // The K40 profile is smooth by construction.
        assert_eq!(testbed_i().gpu.quant, crate::spec::QuantProfile::Smooth);
    }

    #[test]
    fn sgemm_is_faster_than_dgemm() {
        let gpu = testbed_ii().gpu;
        let d = kernel_time(&gpu, &dgemm(4096, 4096, 4096));
        let s = kernel_time(
            &gpu,
            &KernelShape::Gemm {
                dtype: Dtype::F32,
                m: 4096,
                n: 4096,
                k: 4096,
            },
        );
        assert!(s < d);
    }

    #[test]
    fn axpy_is_bandwidth_bound_and_ramps() {
        let gpu = testbed_i().gpu;
        let small = kernel_time(
            &gpu,
            &KernelShape::Axpy {
                dtype: Dtype::F64,
                n: 1 << 10,
            },
        );
        let large = kernel_time(
            &gpu,
            &KernelShape::Axpy {
                dtype: Dtype::F64,
                n: 1 << 26,
            },
        );
        // Large vector should approach 3*N*8 / (bw * eff).
        let ideal = 3.0 * (1u64 << 26) as f64 * 8.0 / (gpu.mem_bandwidth_bps * gpu.mem_eff_max);
        assert!(large > ideal && large < ideal * 1.2);
        // Small vector dominated by overhead, nowhere near scaled-down large.
        assert!(small > large / (1 << 16) as f64 * 4.0);
    }

    #[test]
    fn labels_mention_routine() {
        assert!(dgemm(1, 2, 3).to_string().contains("dgemm"));
        assert!(KernelShape::Axpy {
            dtype: Dtype::F64,
            n: 5
        }
        .to_string()
        .contains("daxpy"));
        assert!(KernelShape::Gemv {
            dtype: Dtype::F32,
            m: 2,
            n: 2
        }
        .to_string()
        .contains("sgemv"));
    }
}
