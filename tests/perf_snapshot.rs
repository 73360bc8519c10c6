//! The committed seed snapshot matches this tree's standard sweep byte for
//! byte.

use cocopelia_gpusim::testbed_i;
use cocopelia_xp::collect_snapshot;

#[path = "support/golden.rs"]
mod golden;
use golden::assert_pinned;

#[test]
fn committed_seed_snapshot_matches_this_tree() {
    // The exact gate: the standard sweep is deterministic (quiet testbed,
    // fixed seeds), so BENCH_seed.json must equal this tree's snapshot
    // byte for byte, label, testbed and formatting included. If a change
    // legitimately shifts a number, re-bless in the same change with
    // `GOLDEN_BLESS=1 cargo test -p cocopelia-xp --test perf_snapshot`
    // and review the diff.
    let snap = collect_snapshot(&testbed_i(), "seed").expect("standard sweep runs");
    assert_pinned("BENCH_seed.json", &snap.to_json().expect("serializes"));
}
