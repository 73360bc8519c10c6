//! End-to-end tests of the perf snapshot: collect → serialize → parse
//! round trips, schema-version checks, and the committed seed snapshot
//! matching this tree byte for byte.

use std::sync::OnceLock;

use cocopelia_gpusim::testbed_i;
use cocopelia_obs::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
use cocopelia_xp::collect_snapshot;

#[path = "support/golden.rs"]
mod golden;
use golden::assert_pinned;

/// The standard sweep on Testbed I, labelled as the committed seed
/// snapshot; collected once per test binary.
fn live_snapshot() -> &'static Snapshot {
    static LIVE: OnceLock<Snapshot> = OnceLock::new();
    LIVE.get_or_init(|| collect_snapshot(&testbed_i(), "seed").expect("standard sweep runs"))
}

#[test]
fn snapshot_round_trips_and_self_compare_is_clean() {
    let snap = live_snapshot();
    let json = snap.to_json().expect("serializes");
    let back = Snapshot::from_json(&json).expect("parses");
    assert_eq!(*snap, back, "snapshot JSON round trip must be lossless");
}

#[test]
fn committed_seed_snapshot_matches_this_tree() {
    // The exact gate: the standard sweep is deterministic (quiet testbed,
    // fixed seeds), so BENCH_seed.json must equal this tree's snapshot
    // byte for byte, label, testbed and formatting included. If a change
    // legitimately shifts a number, re-bless in the same change with
    // `GOLDEN_BLESS=1 cargo test -p cocopelia-xp --test perf_snapshot`
    // and review the diff.
    let json = live_snapshot().to_json().expect("serializes");
    assert_pinned("BENCH_seed.json", &json);
}

#[test]
fn future_schema_versions_are_rejected() {
    let mut snap = live_snapshot().clone();
    snap.schema_version = SNAPSHOT_SCHEMA_VERSION + 1;
    let json = snap.to_json().expect("serializes");
    let err = Snapshot::from_json(&json).expect_err("must reject");
    assert!(err.contains("schema version"), "{err}");
}
