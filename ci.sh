#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test suite.
#
# Offline-registry caveat: this workspace resolves its external dependencies
# (rand, serde, serde_json, proptest, criterion, iai_callgrind) to the
# API-compatible stubs
# vendored under vendor/ via path entries in [workspace.dependencies] —
# `cargo` never touches a registry, so the script runs in fully offline
# environments. Do not add registry dependencies without vendoring them the
# same way.

set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== perf snapshot gate (vs BENCH_seed.json) =="
# The standard sweep is deterministic (quiet testbed, fixed seeds): any
# makespan drift against the committed baseline is a code change. If a
# change legitimately shifts performance, regenerate the baseline in the
# same PR: target/release/cocopelia snapshot --out BENCH_seed.json
target/release/cocopelia snapshot --out target/BENCH_ci.json --label ci
target/release/cocopelia compare BENCH_seed.json target/BENCH_ci.json

echo "== scheduling policy gate (predictive < fifo, edf deadline wins) =="
# The policy-comparison acceptance tests: Predictive must strictly beat
# FIFO's makespan on the skewed trace, EDF must meet the deadline FIFO
# misses, all three policies must export sched_predict_abs_err, and the
# degrade-aware upload estimate routes dispatch to the healthy peer at the
# link factor the engine applies (also where degrade windows overlap).
cargo test --release -q -p cocopelia-xp --test serve_sched

echo "== open-arrival gate (backpressure, coalescing, fault-plan replay) =="
# The ServeSession acceptance bars: seeded Poisson overload sheds to a
# bounded queue and replays bit-identically, coalescing uploads strictly
# fewer h2d bytes and beats the non-coalesced makespan, the residency-aware
# service estimate admits a warm repeat arrival that a cold twin's
# watermark sheds, and under random fault plans same-seed drains replay
# bit-identically with one terminal outcome per request and no buffer
# outside the residency caches.
cargo test --release -q -p cocopelia-xp --test serve_open

echo "== chaos soak gate (seeded fault injection) =="
# Fault injection is seeded and rolled at enqueue time, so the soak —
# scheduler retries, quarantine + re-dispatch, host fallback, leak and
# trace-invariant checks over three fixed seeds — must pass bit-identically
# on every run. The seeds live in tests/serve_faults.rs.
cargo test --release -q -p cocopelia-xp --test serve_faults

echo "== straggler defense gate (hedging, probation, retry budgets) =="
# The self-healing acceptance bars over the 3-seed straggler/probation
# matrix: hedged re-dispatch strictly improves p99 flow on the degraded-
# link scenario with bit-identical total flops, Predictive placement stops
# feeding a straggler once a hedge catches it and, with hedging off, once
# its calibration factor prices its overrun, canary probation re-admits
# a drained device that then serves again, the retry-budget breaker fails
# fast under a fault storm, a device lost mid-hedge leaks nothing, and a
# fully-defended run replays bit-identically. Seeds live in
# tests/serve_straggler.rs.
cargo test --release -q -p cocopelia-xp --test serve_straggler

echo "== trace pipeline gate (spans, perfetto, timeline) =="
# The serve tracing pipeline end to end: span invariants on chaos runs,
# Perfetto round-trip decode (track counts, flows, per-track monotonicity),
# timeline rendering, and traced-vs-untraced timing identity.
cargo test --release -q -p cocopelia-xp --test serve_trace

echo "== streaming telemetry gate (watch windows, SLO dumps, bounded memory) =="
# The serve --watch acceptance run at full size: a 50k-request drain under
# telemetry keeps span memory bounded by the one span cap (--ring), emits a
# deterministic window stream, streams a decodable Perfetto file, and fires
# exactly one SLO-breach dump — while staying bit-identical to the
# telemetry-off run. (Debug `cargo test` runs a 5k slice of the same test.)
cargo test --release -q -p cocopelia-xp --test serve_watch

echo "== microbench smoke (simulator / deploy / dispatch / residency / trace hot paths) =="
# Builds and runs the iai-callgrind-style microbenches once so the hot-path
# bench targets can't rot: sim_enqueue_sync asserts its trace length, and
# deploy_paper times a full DeployConfig::paper() deployment and asserts
# its five exec tables. Numbers are informational (the vendored harness
# reports wall clock, not instruction counts).
cargo bench --bench micro_hotpaths

echo "== benchmark build gate (perfbench against the public API) =="
# perfbench/ is a separate workspace that drives the crates through their
# public serving API. Build and test it, then run one short workload, so
# an API change that breaks the benchmark fails here instead of silently.
# The build goes under target/ so nothing is written inside perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline -q \
    --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload serve_straggler --seconds 1 --trace 0 | tail -n 1
# serve_open_mixed is the only workload that arms telemetry (windows,
# span cap, flight dumps), so it smoke-tests the observer wiring. Its peak
# RSS guards per-request retention: a drain keeps only the trace entries
# some reader still needs, each pool device's observer drops its per-call
# history, buffer slots are reused, and every report that reuses a cached
# selection shares its candidate curve (~13-15 MiB; ~20 MiB while those
# three grew with every request, ~85 MiB when devices kept whole traces).
mixed=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload serve_open_mixed --seconds 1 --trace 0 | tail -n 1)
echo "$mixed"
rss=$(echo "$mixed" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.e+-]*\).*/\1/p')
awk -v rss="$rss" 'BEGIN {
    if (rss == "" || rss + 0 > 20) {
        print "serve_open_mixed peak_rss_mb " rss " MiB exceeds the 20 MiB bound"
        exit 1
    }
}'
# paper_sweep's peak RSS is set by one cuBLASXt call that enqueues 588 789
# simulator ops before its single synchronize, so it guards the simulator's
# per-op footprint: 163 840 engine ops x 24 B and 424 949 event records
# and waits x 8 B in chunked op tables, plus 163 840 trace entries x 64 B
# reserved once per batch (~23 MiB; ~29 MiB while events took 24-byte op
# slots, ~44 MiB with 32-byte ops and 128-byte entries, ~87 MiB while the
# batch doubled).
sweep=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload paper_sweep --seconds 0 --trace 0 | tail -n 1)
echo "$sweep"
rss=$(echo "$sweep" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.e+-]*\).*/\1/p')
awk -v rss="$rss" 'BEGIN {
    if (rss == "" || rss + 0 > 30) {
        print "paper_sweep peak_rss_mb " rss " MiB exceeds the 30 MiB bound"
        exit 1
    }
}'

echo "CI gate passed."
