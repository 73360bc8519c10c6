//! Deployment artifact persistence: a `SystemProfile` survives the
//! JSON round trip bit-exactly and keeps producing identical predictions —
//! the property that makes deployment a one-off cost per machine (§IV-A).

use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_core::profile::SystemProfile;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, testbed_ii, NoiseSpec};
use cocopelia_hostblas::Dtype;

#[path = "support/golden.rs"]
mod golden;
use golden::assert_golden;

fn deployed_profile() -> SystemProfile {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024];
    cfg.gemm_tiles = vec![256, 512, 1024];
    cfg.axpy_tiles = vec![1 << 20];
    cfg.gemv_tiles = vec![512];
    deploy(&tb, &cfg).expect("deploys").profile
}

#[test]
fn json_round_trip_is_exact() {
    let profile = deployed_profile();
    let json = profile.to_json().expect("serializes");
    let back = SystemProfile::from_json(&json).expect("parses");
    assert_eq!(profile, back);
}

#[test]
fn reloaded_profile_gives_identical_predictions() {
    let profile = deployed_profile();
    let json = profile.to_json().expect("serializes");
    let back = SystemProfile::from_json(&json).expect("parses");
    let problem = ProblemSpec::gemm(
        Dtype::F64,
        4096,
        4096,
        4096,
        Loc::Host,
        Loc::Host,
        Loc::Host,
        true,
    );
    for t in [256usize, 512, 1024] {
        for kind in [
            ModelKind::Baseline,
            ModelKind::DataLoc,
            ModelKind::Bts,
            ModelKind::DataReuse,
        ] {
            let exec1 = profile
                .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
                .expect("table");
            let exec2 = back
                .exec_table(cocopelia_core::params::RoutineClass::Gemm, Dtype::F64)
                .expect("table");
            let p1 = predict(
                kind,
                &ModelCtx {
                    problem: &problem,
                    transfer: &profile.transfer,
                    exec: exec1,
                    full_kernel_time: None,
                },
                t,
            )
            .expect("predicts");
            let p2 = predict(
                kind,
                &ModelCtx {
                    problem: &problem,
                    transfer: &back.transfer,
                    exec: exec2,
                    full_kernel_time: None,
                },
                t,
            )
            .expect("predicts");
            assert_eq!(p1.total.to_bits(), p2.total.to_bits(), "{kind:?} T={t}");
        }
    }
}

#[test]
fn profile_survives_a_file_round_trip() {
    let profile = deployed_profile();
    let dir = std::env::temp_dir().join("cocopelia-profile-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("testbed_i.json");
    std::fs::write(&path, profile.to_json().expect("serializes")).expect("write");
    let text = std::fs::read_to_string(&path).expect("read");
    let back = SystemProfile::from_json(&text).expect("parses");
    assert_eq!(profile, back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn deployment_is_reproducible_per_seed() {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::REALISTIC; // exercised *with* noise
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024];
    cfg.gemm_tiles = vec![256, 512];
    cfg.axpy_tiles = vec![1 << 20];
    cfg.gemv_tiles = vec![512];
    let a = deploy(&tb, &cfg).expect("deploys");
    let b = deploy(&tb, &cfg).expect("deploys");
    assert_eq!(a, b, "same seed, same measurements, same profile");
    cfg.seed ^= 0xdead;
    let c = deploy(&tb, &cfg).expect("deploys");
    assert_ne!(
        a.profile.transfer, c.profile.transfer,
        "different seed, different noise"
    );
}

/// The paper deployment (`DeployConfig::paper()`, noisy testbeds) still
/// produces, byte for byte, the reports it produced when they were pinned:
/// every transfer fit and exec-table entry comes out of the simulator, so
/// any change to its timing or noise draws shows here.
#[test]
fn paper_deployment_reports_are_unchanged() {
    for (name, tb) in [("i", testbed_i()), ("ii", testbed_ii())] {
        let report = deploy(&tb, &DeployConfig::paper()).expect("deploys");
        assert_golden(
            &format!("paper_deployment_testbed_{name}.json"),
            &serde_json::to_string_pretty(&report).expect("serializes"),
        );
    }
}
