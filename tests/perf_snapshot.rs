//! End-to-end tests of the perf-snapshot/regression subsystem: collect →
//! serialize → parse → compare round trips, injected-slowdown detection,
//! and the committed seed snapshot matching this tree exactly.

use cocopelia_gpusim::testbed_i;
use cocopelia_obs::{DiffConfig, DiffReport, Snapshot, Verdict, SNAPSHOT_SCHEMA_VERSION};
use cocopelia_xp::collect_snapshot;

fn live_snapshot(label: &str) -> Snapshot {
    collect_snapshot(&testbed_i(), label).expect("standard sweep runs")
}

#[test]
fn snapshot_round_trips_and_self_compare_is_clean() {
    let snap = live_snapshot("live");
    let json = snap.to_json().expect("serializes");
    let back = Snapshot::from_json(&json).expect("parses");
    assert_eq!(snap, back, "snapshot JSON round trip must be lossless");

    let report = DiffReport::compare(&snap, &back, DiffConfig::default()).expect("compares");
    assert!(
        !report.has_regressions(),
        "self-compare regressed: {}",
        report.render()
    );
    assert_eq!(report.count(Verdict::Neutral), snap.entries.len());
}

#[test]
fn injected_slowdown_is_detected() {
    let base = live_snapshot("base");
    let mut slow = base.clone();
    slow.label = "slow".to_owned();
    // A synthetic 10% slowdown on the square dgemm point — exactly the
    // class of change the CI gate exists to catch.
    let victim = slow
        .entries
        .iter_mut()
        .find(|e| e.id == "dgemm 2048x2048x2048")
        .expect("standard sweep has the square dgemm point");
    victim.makespan_ns = victim.makespan_ns + victim.makespan_ns / 10;

    let report = DiffReport::compare(&base, &slow, DiffConfig::default()).expect("compares");
    assert!(report.has_regressions(), "10% slowdown must fail the gate");
    let entry = report
        .entries
        .iter()
        .find(|e| e.id == "dgemm 2048x2048x2048")
        .expect("diffed");
    assert_eq!(entry.verdict, Verdict::Regression);
    assert!(entry.makespan_delta_rel > 0.05);
    // The other sweep points are untouched.
    assert_eq!(report.count(Verdict::Regression), 1);
    assert_eq!(report.count(Verdict::Neutral), base.entries.len() - 1);
}

#[test]
fn dropped_coverage_is_a_regression() {
    let base = live_snapshot("base");
    let mut pruned = base.clone();
    pruned.entries.pop();
    let report = DiffReport::compare(&base, &pruned, DiffConfig::default()).expect("compares");
    assert!(report.has_regressions(), "lost coverage must fail the gate");
    assert_eq!(report.missing.len(), 1);
}

#[test]
fn committed_seed_snapshot_matches_this_tree() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_seed.json");
    let text = std::fs::read_to_string(path).expect("BENCH_seed.json is committed at repo root");
    let seed = Snapshot::from_json(&text).expect("seed snapshot parses");
    assert_eq!(seed.schema_version, SNAPSHOT_SCHEMA_VERSION);
    assert_eq!(seed.label, "seed");

    // The exact gate: the standard sweep is deterministic (quiet testbed,
    // fixed seeds), so every live entry must equal its committed entry
    // field for field. If a change legitimately shifts a number,
    // regenerate BENCH_seed.json in the same PR.
    let live = live_snapshot("live");
    assert_eq!(live.testbed, seed.testbed);
    assert_eq!(
        live.entries.len(),
        seed.entries.len(),
        "seed snapshot must cover the full standard sweep"
    );
    for (live, committed) in live.entries.iter().zip(&seed.entries) {
        assert_eq!(
            live, committed,
            "sweep point `{}` differs from BENCH_seed.json — regenerate with \
             `cocopelia snapshot --out BENCH_seed.json`",
            live.id
        );
    }
}

#[test]
fn future_schema_versions_are_rejected() {
    let mut snap = live_snapshot("v-next");
    snap.schema_version = SNAPSHOT_SCHEMA_VERSION + 1;
    let json = snap.to_json().expect("serializes");
    let err = Snapshot::from_json(&json).expect_err("must reject");
    assert!(err.contains("schema version"), "{err}");
}
