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

echo "== perf snapshot gate (exact vs BENCH_seed.json) =="
# The standard sweep is deterministic (quiet testbed, fixed seeds), so the
# committed BENCH_seed.json must equal a release build's snapshot byte for
# byte: any drift is a code change. If a change legitimately shifts a
# number, re-bless the file in the same change and review the diff:
# GOLDEN_BLESS=1 cargo test -p cocopelia-xp --test perf_snapshot
cargo test --release -q -p cocopelia-xp --test perf_snapshot

echo "== paper figure goldens (every figure and table bench, exact) =="
# Each figure/table bench's reduced-scale text is pinned byte for byte in
# tests/golden/paper/ (tests/paper_figures.rs). Debug `cargo test` runs
# eight of them; table4_improvement and fig4_model_error_noreuse take 46 s
# and 7.5 s in debug, so they run here in release, with the other eight.
cargo test --release -q -p cocopelia-xp --test paper_figures

echo "== allocation-count gate (exact heap allocations of the hot paths) =="
# A counting global allocator pins the exact allocations of a direct
# single-tile dgemm, one FIFO-served request, and Predictive drains at
# 250 and 500 queued (tests/alloc_counts.rs). Counts are deterministic, so
# a change that adds an allocation to a hot path, or makes Predictive
# dispatch allocate more per queued request, fails here whatever the
# machine's load. A change that lowers a count re-pins it.
cargo test --release -q -p cocopelia-xp --test alloc_counts

echo "== scheduling policy gate (predictive < fifo, edf deadline wins) =="
# The policy-comparison acceptance tests: Predictive must strictly beat
# FIFO's makespan on the skewed trace, EDF must meet the deadline FIFO
# misses, all three policies must export sched_predict_abs_err, and the
# degrade-aware price routes dispatch to the healthy peer at the link
# factor the engine applies (also where degrade windows overlap): a
# missing shared operand costs its degraded-link excess over the ideal
# link on top of the prediction, or its degraded upload time when the
# profile cannot predict.
cargo test --release -q -p cocopelia-xp --test serve_sched

echo "== open-arrival gate (backpressure, coalescing, fault-plan replay, fills) =="
# The ServeSession acceptance bars: seeded Poisson overload sheds to a
# bounded queue and replays bit-identically, coalescing uploads strictly
# fewer h2d bytes and beats the non-coalesced makespan, the residency-aware
# service estimate admits a warm repeat arrival that a cold twin's
# watermark sheds, and under random fault plans same-seed drains replay
# bit-identically with one terminal outcome per request and no buffer
# outside the residency caches. A residency miss fills through the
# request's tile pipeline: it moves exactly the operand's bytes in tagged
# tile copies, copies each region once when one key is named twice, and
# no kernel starts before the fill copies of the tiles it reads end; a
# fault mid-fill leaves no cache entry and leaks nothing, and a won hedge
# keeps only the entries its cancelled primary finished filling.
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

echo "== trace pipeline gate (spans, perfetto, timeline, scenario goldens) =="
# The serve tracing pipeline end to end: span invariants on chaos runs,
# Perfetto round-trip decode (track counts, flows, per-track monotonicity),
# timeline rendering, and traced-vs-untraced timing identity. It also pins
# the three standard serve scenarios (chaos + probation, degraded link +
# hedge, open arrivals with coalescing and shedding) exactly: report text,
# baseline bits, Chrome/Perfetto export digests and every --watch window
# line, in tests/golden/serve_*.txt (re-bless with GOLDEN_BLESS=1).
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
# public serving API. Lint it like the main workspace, build and test it,
# then run one short workload, so an API change that breaks the benchmark
# fails here instead of silently. The build goes under target/ so nothing
# is written inside perfbench/.
cargo fmt --manifest-path perfbench/Cargo.toml --all --check
CARGO_TARGET_DIR=target/perfbench cargo clippy --offline \
    --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline -q \
    --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload serve_straggler --seconds 1 --trace 0 | tail -n 1
# serve_deep_predictive smoke: its host time is almost all Predictive dispatch.
# Each pool device overlaps a window of requests on its three streams, so
# the makespan is bound by the busiest engine, not by the engines' sum
# (~175 ms; 398 ms while each device ran one request at a time).
deep=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload serve_deep_predictive --seconds 0 --trace 0 | tail -n 1)
echo "$deep"
case "$deep" in
    *'"correct": true'*) ;;
    *) echo "serve_deep_predictive is not correct"; exit 1 ;;
esac
makespan=$(echo "$deep" | sed -n 's/.*"virt_makespan_ms": {"value": \([0-9.e+-]*\).*/\1/p')
awk -v ms="$makespan" 'BEGIN {
    if (ms == "" || ms + 0 > 250) {
        print "serve_deep_predictive virt_makespan_ms " ms " exceeds the 250 ms bound"
        exit 1
    }
}'
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
# paper_sweep's peak RSS guards the simulator's host memory per layer. Its
# largest call, cuBLASXt at T=256 on dgemm 8192^3, runs 588 789 simulator
# ops. Its host blocks on a bounded window (the kernel of sub-kernel
# q - 5 before it enqueues sub-kernel q), so the simulator holds about five
# sub-kernels of pending records, in chunked op tables, instead of the
# whole batch; and a device holds no trace entries unless a reader asks,
# so the 163 840 entries fold into exact totals as they complete. The
# peak is the process plus those records (~7 MiB; ~15 MiB while the whole
# batch was queued before one synchronize and every entry was kept, ~23
# MiB while pending records lived to the end of the batch, ~29 MiB while
# events took 24-byte op slots, ~44 MiB with 32-byte ops and 128-byte
# entries, ~87 MiB while the batch doubled).
sweep=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload paper_sweep --seconds 0 --trace 0 | tail -n 1)
echo "$sweep"
rss=$(echo "$sweep" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.e+-]*\).*/\1/p')
awk -v rss="$rss" 'BEGIN {
    if (rss == "" || rss + 0 > 10) {
        print "paper_sweep peak_rss_mb " rss " MiB exceeds the 10 MiB bound"
        exit 1
    }
}'
# paper_sweep with --trace 1 times traced sweeps beside untraced ones, and
# is the benchmark path that holds a whole large call's trace entries
# (36 864 for one dgemm 8192^3); nothing else in this script runs a
# --trace 1 workload. Its checks must pass.
traced=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline -q \
    --manifest-path perfbench/Cargo.toml -- \
    --workload paper_sweep --seconds 0 --trace 1 | tail -n 1)
echo "$traced"
case "$traced" in
    *'"correct": true'*) ;;
    *) echo "paper_sweep --trace 1 is not correct"; exit 1 ;;
esac

echo "CI gate passed."
