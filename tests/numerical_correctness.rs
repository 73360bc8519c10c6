//! Property-based numerical correctness: every tiled scheduler (CoCoPeLia,
//! cuBLASXt policy, BLASX policy, serial) must produce the same numbers as
//! the reference host BLAS, for arbitrary shapes, scalars, tilings and
//! operand placements.

use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::{level3, validate, Matrix};
use cocopelia_runtime::{Cocopelia, DeviceMatrix, GemmRequest, MatOperand, TileChoice};
use proptest::prelude::*;

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> cocopelia_core::profile::SystemProfile {
    cocopelia_core::profile::SystemProfile::new(
        "test",
        cocopelia_core::transfer::TransferModel {
            h2d: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn reference(
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) -> Matrix<f64> {
    let mut out = c.clone();
    level3::gemm(alpha, &a.view(), &b.view(), beta, &mut out.view_mut());
    out
}

/// Uploads `m` to the device manually when `on_device` is set.
fn operand(
    ctx: &mut Cocopelia,
    m: Matrix<f64>,
    on_device: bool,
) -> (MatOperand<f64>, Option<DeviceMatrix>) {
    if on_device {
        let d = ctx.upload_matrix(&m).expect("upload");
        (MatOperand::Device(d), Some(d))
    } else {
        (MatOperand::Host(m), None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CoCoPeLia scheduler vs reference, arbitrary dims/tile/scalars/
    /// placements. Output placements are exercised separately (a
    /// device-resident C needs a download step).
    #[test]
    fn cocopelia_gemm_matches_reference(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        tile in 1usize..32,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        a_dev in any::<bool>(),
        b_dev in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let c = rand_matrix(m, n, seed + 2);
        let expect = reference(alpha, &a, &b, beta, &c);

        let mut ctx = Cocopelia::new(Gpu::new(quiet(), ExecMode::Functional, seed), dummy_profile());
        let (a_op, da) = operand(&mut ctx, a, a_dev);
        let (b_op, db) = operand(&mut ctx, b, b_dev);
        let out = GemmRequest::new(a_op, b_op, MatOperand::Host(c))
            .alpha(alpha)
            .beta(beta)
            .tile(TileChoice::Fixed(tile))
            .run(&mut ctx)
            .expect("runs");
        let got = out.c.expect("functional");
        prop_assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "max rel err {}", validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
        for d in [da, db].into_iter().flatten() {
            ctx.free_matrix(d).expect("free");
        }
        prop_assert_eq!(ctx.gpu().device_mem_used(), 0);
    }

    /// cuBLASXt policy vs reference (ring-buffer staging with C round
    /// trips is the risky path).
    #[test]
    fn cublasxt_gemm_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        tile in 1usize..24,
        beta in -1.5f64..1.5,
        seed in 0u64..1000,
    ) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let c = rand_matrix(m, n, seed + 2);
        let expect = reference(1.0, &a, &b, beta, &c);

        let mut gpu = Gpu::new(quiet(), ExecMode::Functional, seed);
        let out = cocopelia_baselines::cublasxt::gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::Host(a),
            MatOperand::Host(b),
            beta,
            MatOperand::Host(c),
            tile,
        )
        .expect("runs");
        let got = out.output.expect("functional");
        prop_assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
            "max rel err {}", validate::max_rel_err(got.as_slice(), expect.as_slice())
        );
        prop_assert_eq!(gpu.device_mem_used(), 0);
    }

    /// BLASX policy vs reference. Its static tile clamps to the smallest
    /// dimension here, so the other two dimensions still split into
    /// several tiles whenever they are larger.
    #[test]
    fn blasx_gemm_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let c = rand_matrix(m, n, seed + 2);
        let expect = reference(1.0, &a, &b, 1.0, &c);

        let mut blasx = cocopelia_baselines::Blasx::new(Gpu::new(quiet(), ExecMode::Functional, seed));
        let out = blasx
            .gemm::<f64>(1.0, MatOperand::Host(a), MatOperand::Host(b), 1.0, MatOperand::Host(c))
            .expect("runs");
        let got = out.output.expect("functional");
        prop_assert!(
            validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k))
        );
    }

    /// All four policies agree with each other on the same inputs.
    #[test]
    fn policies_agree_pairwise(
        n in 4usize..32,
        tile in 2usize..16,
        seed in 0u64..500,
    ) {
        let a = rand_matrix(n, n, seed);
        let b = rand_matrix(n, n, seed + 1);
        let c = rand_matrix(n, n, seed + 2);

        let mut ctx = Cocopelia::new(Gpu::new(quiet(), ExecMode::Functional, seed), dummy_profile());
        let coco = GemmRequest::new(a.clone(), b.clone(), c.clone())
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Fixed(tile))
            .run(&mut ctx)
            .expect("runs")
            .c
            .expect("functional");

        let mut gpu = Gpu::new(quiet(), ExecMode::Functional, seed);
        let serial = cocopelia_baselines::serial::gemm::<f64>(
            &mut gpu,
            1.0,
            MatOperand::Host(a),
            MatOperand::Host(b),
            1.0,
            MatOperand::Host(c),
        )
        .expect("runs")
        .output
        .expect("functional");

        prop_assert!(validate::matrices_close(&coco, &serial, validate::gemm_tolerance::<f64>(n)));
    }
}
