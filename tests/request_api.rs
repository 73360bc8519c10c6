//! Contract of the request builders: builder defaults, type-erased
//! `submit`, and auto selection all produce the same report as the
//! explicit typed builder on a same-seed fresh device — bit-for-bit in
//! virtual time, selection, and overlap accounting — a direct call
//! refuses shared operands, and `Cocopelia::ghost_request` inverts
//! `RoutineRequest::problem_spec`.

use cocopelia_core::params::{Loc, ProblemSpec, ROUTINES};
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{
    Cocopelia, GemmRequest, MatOperand, RoutineReport, RuntimeError, SharedMat, TileChoice,
};

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "request-api-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

/// A fresh timing-only pipeline; identical seeds give identical virtual
/// clocks, so matching reports prove matching schedules.
fn ctx(seed: u64) -> Cocopelia {
    Cocopelia::new(
        Gpu::new(quiet(), ExecMode::TimingOnly, seed),
        dummy_profile(),
    )
}

fn ghost(rows: usize, cols: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows, cols }
}

#[test]
fn builder_defaults_are_alpha_one_beta_zero() {
    let explicit = GemmRequest::new(ghost(768, 768), ghost(768, 768), ghost(768, 768))
        .alpha(1.0)
        .beta(0.0)
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx(23))
        .expect("explicit builder runs")
        .report;
    let defaulted = GemmRequest::new(ghost(768, 768), ghost(768, 768), ghost(768, 768))
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx(23))
        .expect("default builder runs")
        .report;
    assert_eq!(explicit, defaulted);
}

/// Auto selection goes through the full deploy → profile → model path;
/// the typed builder and type-erased `submit` must still agree
/// report-for-report.
#[test]
fn auto_selection_parity_through_deployed_profile() {
    let tb = quiet();
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024, 2048];
    cfg.gemm_tiles = vec![256, 512, 1024];
    let profile = deploy(&tb, &cfg).expect("deploys").profile;
    let fresh = || {
        Cocopelia::new(
            Gpu::new(tb.clone(), ExecMode::TimingOnly, 29),
            profile.clone(),
        )
    };
    let request = || {
        GemmRequest::new(ghost(2048, 2048), ghost(2048, 2048), ghost(2048, 2048))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
    };

    let built = request().run(&mut fresh()).expect("builder runs").report;
    let submitted = fresh().submit(request()).expect("submit runs");
    assert_eq!(built, submitted);
    assert!(built.selection.is_some(), "auto actually selected");
}

/// `submit` erases the request type but must not change its behaviour.
#[test]
fn submit_matches_typed_run() {
    let request = || {
        GemmRequest::new(ghost(1024, 1024), ghost(1024, 1024), ghost(1024, 1024))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Fixed(512))
    };
    let typed: RoutineReport = request().run(&mut ctx(31)).expect("typed runs").report;
    let erased = ctx(31).submit(request()).expect("submit runs");
    assert_eq!(typed, erased);
}

/// Shared operands are an executor feature; a direct call must refuse
/// them loudly instead of guessing.
#[test]
fn direct_submit_rejects_shared_operands() {
    let req = GemmRequest::<f64>::new(
        SharedMat::new("A", 256, 256),
        ghost(256, 256),
        ghost(256, 256),
    )
    .tile(TileChoice::Fixed(128));
    let err = ctx(37).submit(req).expect_err("must refuse");
    assert!(
        matches!(&err, RuntimeError::SharedOperand { key } if key == "A"),
        "unexpected error: {err}"
    );
}

/// Every routine × precision × operand location the name parser accepts
/// comes back from the one request constructor as the same problem, and
/// runs.
#[test]
fn ghost_request_inverts_problem_spec() {
    let mut checked = 0;
    for (class, dtype) in ROUTINES {
        let name = class.name(dtype);
        let dims: &[usize] = match name.as_str() {
            "dgemm" | "sgemm" => &[96, 64, 32],
            "dgemv" => &[96, 64],
            _ => &[4096],
        };
        let operands = ProblemSpec::parse(&name, dims, &[])
            .expect("parses")
            .operands
            .len();
        for mask in 0..1u32 << operands {
            let locs: Vec<Loc> = (0..operands)
                .map(|i| {
                    if mask >> i & 1 == 1 {
                        Loc::Device
                    } else {
                        Loc::Host
                    }
                })
                .collect();
            let spec = ProblemSpec::parse(&name, dims, &locs).expect("parses");
            let mut ctx = ctx(7);
            let req = ctx
                .ghost_request(&spec, TileChoice::Fixed(32))
                .expect("builds");
            assert_eq!(req.routine(), name);
            assert_eq!(req.problem_spec(), spec, "{name} {locs:?}");
            assert_eq!(req.tile_choice(), TileChoice::Fixed(32));
            ctx.submit(req).expect("runs");
            checked += 1;
        }
    }
    assert_eq!(checked, 8 + 8 + 4 + 4 + 8);
    // A write-only C (beta = 0) round-trips too.
    let spec = ProblemSpec::gemm(
        Dtype::F64,
        64,
        64,
        64,
        Loc::Host,
        Loc::Host,
        Loc::Host,
        false,
    );
    let req = ctx(7)
        .ghost_request(&spec, TileChoice::Auto)
        .expect("builds");
    assert_eq!(req.problem_spec(), spec);
}

#[test]
fn ghost_request_names_a_routine_it_cannot_build() {
    let spec = ProblemSpec::axpy(Dtype::F32, 64, Loc::Host, Loc::Host);
    assert_eq!(
        ctx(7).ghost_request(&spec, TileChoice::Auto),
        Err(RuntimeError::UnsupportedRoutine {
            routine: "saxpy".to_owned()
        })
    );
}
