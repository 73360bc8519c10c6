//! End-to-end observability: structural trace invariants on real scheduler
//! output, per-op attribution tags, trace exports, and the
//! overlap-efficiency metric recomputed independently from the raw trace.

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{
    testbed_i, EngineKind, ExecMode, Gpu, NoiseSpec, OperandRole, TraceEntry, TraceView,
};
use cocopelia_hostblas::Matrix;
use cocopelia_obs::{export, invariants, OverlapStats};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, TileChoice,
    VecOperand,
};
use serde::Value;

#[path = "support/golden.rs"]
mod golden;
use golden::{assert_golden, fnv1a64};

/// A profile with no deployed exec tables — fixed tiles only.
fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "obs-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

/// A deterministic pipeline with no deployed exec tables — fixed tiles only.
fn pipeline_in(mode: ExecMode) -> Cocopelia {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    Cocopelia::new(Gpu::new(tb, mode, 7), dummy_profile())
}

fn pipeline() -> Cocopelia {
    pipeline_in(ExecMode::TimingOnly)
}

fn ghost(rows: usize, cols: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows, cols }
}

fn run_dgemm(ctx: &mut Cocopelia, n: usize, t: usize) -> cocopelia_runtime::RoutineReport {
    GemmRequest::new(ghost(n, n), ghost(n, n), ghost(n, n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(t))
        .run(ctx)
        .expect("gemm runs")
        .report
}

#[test]
fn runtime_traces_satisfy_invariants() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    AxpyRequest::new(
        VecOperand::<f64>::HostGhost { len: 1 << 20 },
        VecOperand::HostGhost { len: 1 << 20 },
    )
    .alpha(2.0)
    .tile(TileChoice::Fixed(1 << 18))
    .run(&mut ctx)
    .expect("axpy runs");
    DotRequest::new(
        VecOperand::<f64>::HostGhost { len: 1 << 20 },
        VecOperand::HostGhost { len: 1 << 20 },
    )
    .tile(TileChoice::Fixed(1 << 18))
    .run(&mut ctx)
    .expect("dot runs");
    GemvRequest::new(
        ghost(1024, 1024),
        VecOperand::HostGhost { len: 1024 },
        VecOperand::HostGhost { len: 1024 },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(256))
    .run(&mut ctx)
    .expect("gemv runs");
    let entries = ctx.gpu().trace().entries();
    assert!(!entries.is_empty());
    if let Err(problems) = invariants::check_entries(entries) {
        panic!("trace violates invariants:\n{}", problems.join("\n"));
    }
}

#[test]
fn every_enqueued_op_traced_exactly_once() {
    // dgemm 2048/512 tiles into a 4x4x4 grid: 48 h2d fetches (A, B, C tiles
    // each moved exactly once), 64 kernels, 16 C write-backs. Invariant 4
    // (unique op ids) plus these exact counts pin down "exactly once".
    let mut ctx = pipeline();
    let report = run_dgemm(&mut ctx, 2048, 512);
    assert_eq!(report.subkernels, 64);
    let entries = ctx.gpu().trace().entries();
    let count = |engine: EngineKind| entries.iter().filter(|e| e.engine == engine).count();
    assert_eq!(count(EngineKind::Compute), 64);
    assert_eq!(count(EngineKind::CopyH2d), 48);
    assert_eq!(count(EngineKind::CopyD2h), 16);
    invariants::check_entries(entries).expect("no duplicate ops");
}

#[test]
fn tags_attribute_every_entry() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    for e in ctx.gpu().trace().entries() {
        let tag = e
            .tag
            .as_ref()
            .unwrap_or_else(|| panic!("untagged op {}", e.op));
        assert_eq!(tag.routine.name(), "gemm");
        assert_eq!(tag.call, 0);
        match e.engine {
            EngineKind::Compute => {
                assert_eq!(tag.operand, None, "kernels carry no operand role");
                assert!(!tag.get && !tag.set);
            }
            EngineKind::CopyH2d => {
                assert!(tag.get, "fetches are get ops");
                assert!(tag.operand.is_some());
            }
            EngineKind::CopyD2h => {
                assert!(tag.set, "write-backs are set ops");
                assert_eq!(tag.operand, Some(OperandRole::C));
            }
        }
    }
}

#[test]
fn tile_cache_hits_counted_for_reuse() {
    // 4x4x4 grid: 48 + 64*2 + 16*... tile requests total; every A/B/C tile
    // is fetched once (48 misses) and all remaining requests hit the cache.
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    let m = ctx.observer().metrics();
    assert_eq!(m.counter("tile_cache_misses_total"), 48);
    // Requests: C once per (i,j) = 16, A and B once per (i,j,p) = 64 each.
    assert_eq!(m.counter("tile_cache_hits_total"), 16 + 2 * 64 - 48);
}

/// Acceptance: the Chrome trace export of a dgemm run parses as valid JSON
/// and contains complete events for all three engines.
#[test]
fn chrome_trace_export_parses_with_all_engines() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    let text = export::to_chrome_trace(ctx.gpu().trace().entries()).expect("exports");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let Ok(Value::Seq(events)) = doc.field("traceEvents") else {
        panic!("traceEvents must be a list")
    };
    let mut engines_seen = std::collections::BTreeSet::new();
    for ev in events {
        if matches!(ev.field("ph").expect("ph").as_str(), Ok("X")) {
            engines_seen.insert(
                ev.field("cat")
                    .expect("cat")
                    .as_str()
                    .expect("str")
                    .to_owned(),
            );
        }
    }
    assert_eq!(
        engines_seen.into_iter().collect::<Vec<_>>(),
        vec!["d2h".to_owned(), "exec".to_owned(), "h2d".to_owned()]
    );
}

#[test]
fn jsonl_export_round_trips_every_entry() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    let entries = ctx.gpu().trace().entries();
    let text = export::to_jsonl(entries).expect("exports");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), entries.len());
    for line in lines {
        let v: Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.field("engine").expect("engine").as_str().is_ok());
    }
}

/// Independent recomputation of the busy-interval union: an event sweep
/// over +1/−1 coverage deltas, deliberately a different algorithm from the
/// sort-and-merge inside `OverlapStats`.
fn union_by_sweep(entries: TraceView<'_>) -> u64 {
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    for e in entries {
        deltas.push((e.start.as_nanos(), 1));
        deltas.push((e.end.as_nanos(), -1));
    }
    deltas.sort_unstable();
    let (mut depth, mut covered, mut last_t) = (0i64, 0u64, 0u64);
    for (t, d) in deltas {
        if depth > 0 {
            covered += t - last_t;
        }
        depth += d;
        last_t = t;
    }
    covered
}

/// Acceptance: the reported overlap-efficiency equals the value recomputed
/// independently from the raw trace.
#[test]
fn overlap_efficiency_matches_independent_recomputation() {
    let mut ctx = pipeline();
    let report = run_dgemm(&mut ctx, 2048, 512);
    let entries = ctx.gpu().trace().entries();

    let busy = |engine: EngineKind| -> u64 {
        entries
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.end.as_nanos() - e.start.as_nanos())
            .sum()
    };
    let sum_busy =
        busy(EngineKind::CopyH2d) + busy(EngineKind::Compute) + busy(EngineKind::CopyD2h);
    let union = union_by_sweep(entries);
    let expected = sum_busy as f64 / union as f64;

    // The report, the observer's per-call summary, and a fresh OverlapStats
    // must all agree with the sweep.
    assert_eq!(report.overlap.union_busy_ns, union);
    assert_eq!(report.overlap.sum_busy_ns(), sum_busy);
    assert!((report.overlap.efficiency() - expected).abs() < 1e-12);
    let summary = &ctx.observer().calls()[0];
    assert_eq!(summary.overlap, report.overlap);
    assert_eq!(OverlapStats::from_entries(entries), report.overlap);
    // A 4x4x4 pipelined gemm genuinely overlaps.
    assert!(expected > 1.2, "expected real overlap, got {expected:.2}x");
}

#[test]
fn observer_totals_match_trace_byte_counts() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    let trace_h2d = ctx.gpu().trace().bytes_moved(EngineKind::CopyH2d) as u64;
    let trace_d2h = ctx.gpu().trace().bytes_moved(EngineKind::CopyD2h) as u64;
    let m = ctx.observer().metrics();
    assert_eq!(m.counter("h2d_bytes_total"), trace_h2d);
    assert_eq!(m.counter("d2h_bytes_total"), trace_d2h);
    assert_eq!(m.counter("calls_total"), 1);
    assert_eq!(m.counter("calls_dgemm"), 1);
    assert_eq!(m.counter("subkernels_total"), 64);
    // Fixed tile: no drift scored (no exec tables in the dummy profile).
    assert!(ctx.observer().drift().records().is_empty());
}

#[test]
fn calls_share_one_trace_but_separate_summaries() {
    let mut ctx = pipeline();
    run_dgemm(&mut ctx, 2048, 512);
    run_dgemm(&mut ctx, 2048, 1024);
    let calls = ctx.observer().calls();
    assert_eq!(calls.len(), 2);
    assert_eq!((calls[0].call, calls[1].call), (0, 1));
    assert_eq!(calls[0].tile, 512);
    assert_eq!(calls[1].tile, 1024);
    // Per-call makespans sum to no more than the whole trace's extent.
    let whole = OverlapStats::from_entries(ctx.gpu().trace().entries());
    assert!(calls[0].overlap.makespan_ns + calls[1].overlap.makespan_ns <= whole.makespan_ns);
    // Tags distinguish the two calls.
    let calls_in_trace: std::collections::BTreeSet<u32> = ctx
        .gpu()
        .trace()
        .entries()
        .iter()
        .filter_map(|e| e.tag.map(|t| t.call))
        .collect();
    assert_eq!(calls_in_trace.into_iter().collect::<Vec<_>>(), vec![0, 1]);
}

/// One small tagged functional run on a 2×2 tile grid: a dgemm, daxpy,
/// ddot and dgemv, each split in two along every tiled dimension.
fn tagged_functional_run() -> Vec<TraceEntry> {
    let mut ctx = pipeline_in(ExecMode::Functional);
    let mat = |rows: usize, cols: usize| {
        MatOperand::Host(Matrix::from_fn(rows, cols, |i, j| (i + 2 * j) as f64))
    };
    let vec = |len: usize| VecOperand::Host((0..len).map(|i| i as f64).collect());
    let tile = TileChoice::Fixed(4);
    GemmRequest::new(mat(8, 8), mat(8, 8), mat(8, 8))
        .alpha(1.0)
        .beta(1.0)
        .tile(tile)
        .run(&mut ctx)
        .expect("gemm runs");
    AxpyRequest::new(vec(8), vec(8))
        .alpha(2.0)
        .tile(tile)
        .run(&mut ctx)
        .expect("axpy runs");
    DotRequest::new(vec(8), vec(8))
        .tile(tile)
        .run(&mut ctx)
        .expect("dot runs");
    GemvRequest::new(mat(8, 8), vec(8), vec(8))
        .alpha(1.0)
        .beta(1.0)
        .tile(tile)
        .run(&mut ctx)
        .expect("gemv runs");
    ctx.gpu().trace().entries().to_vec()
}

/// The JSON-lines and Chrome exports of a tagged run render the labels,
/// byte counts and tags they rendered when the files were pinned.
#[test]
fn pinned_trace_exports_are_unchanged() {
    let entries = tagged_functional_run();
    assert_golden(
        "tagged_run.jsonl",
        &export::to_jsonl(&entries).expect("exports"),
    );
    assert_golden(
        "tagged_run.chrome.json",
        &export::to_chrome_trace(&entries).expect("exports"),
    );
}

/// A noisy multi-stream baseline run on one device: cuBLASXt on a 4×4×4
/// tile grid, then the BLASX policy at the same tile: the runtime's reuse
/// schedule at a fixed tile under an inert profile, which is all
/// `Blasx::gemm` runs. Its trace carries cross-stream event waits and
/// seeded transfer and kernel noise.
fn noisy_baseline_run() -> Vec<TraceEntry> {
    let n = 1024;
    let mut gpu = Gpu::new(testbed_i(), ExecMode::TimingOnly, 11);
    cocopelia_baselines::cublasxt::gemm::<f64>(
        &mut gpu,
        1.0,
        ghost(n, n),
        ghost(n, n),
        1.0,
        ghost(n, n),
        n / 4,
    )
    .expect("cublasxt runs");
    let mut blasx = Cocopelia::new(gpu, dummy_profile());
    GemmRequest::<f64>::new(ghost(n, n), ghost(n, n), ghost(n, n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(n / 4))
        .run(&mut blasx)
        .expect("blasx policy runs");
    blasx.gpu().trace().entries().to_vec()
}

/// The JSON-lines export of the noisy baseline run is what it was when
/// pinned: op ids count every enqueue (event records and waits included),
/// streams arbitrate in the same order and noise is drawn in the same
/// order.
#[test]
fn pinned_noisy_baseline_trace_is_unchanged() {
    let entries = noisy_baseline_run();
    assert!(entries.len() > 64 * 4, "{} entries", entries.len());
    assert_golden(
        "noisy_baseline_run.jsonl",
        &export::to_jsonl(&entries).expect("exports"),
    );
}

/// One golden line: a run's entry count and the digest of its JSON-lines
/// export.
fn digest_line(what: &str, count: usize, jsonl: &str) -> String {
    format!(
        "{what} {count} fnv1a64={:016x}\n",
        fnv1a64(jsonl.as_bytes())
    )
}

/// A trace spanning many storage chunks: cuBLASXt on a 16×16×16 tile
/// grid (20 480 entries), a retirement whose mark lies inside a chunk, a
/// cancel whose instant lies several chunks further on, and a smaller call
/// recorded after the cancel. Each stage's entries are pinned as a count
/// and a digest of their JSON-lines export, alongside the trace's length
/// and per-engine totals.
#[test]
fn pinned_multi_chunk_trace_is_unchanged() {
    let n = 1024;
    let mut gpu = Gpu::new(testbed_i(), ExecMode::TimingOnly, 5);
    let xt = |gpu: &mut Gpu, n: usize, t: usize| {
        cocopelia_baselines::cublasxt::gemm::<f64>(
            gpu,
            1.0,
            ghost(n, n),
            ghost(n, n),
            1.0,
            ghost(n, n),
            t,
        )
        .expect("cublasxt runs");
    };
    xt(&mut gpu, n, n / 16);
    let mut golden = String::new();
    let mut line = |what: &str, count: usize, jsonl: String| {
        golden.push_str(&digest_line(what, count, &jsonl));
    };
    let totals = |gpu: &Gpu| {
        let t = gpu.trace();
        [
            EngineKind::CopyH2d,
            EngineKind::Compute,
            EngineKind::CopyD2h,
        ]
        .map(|k| {
            format!(
                "{} {} {}",
                k.name(),
                t.engine_busy(k).as_nanos(),
                t.bytes_moved(k)
            )
        })
        .join(" | ")
    };
    let full = gpu.trace().entries().len();
    assert_eq!(full, 20_480);
    line(
        "full",
        full,
        export::to_jsonl(gpu.trace().entries()).expect("exports"),
    );
    let mark = 3 * 1536 + 500;
    line(
        "since-mark",
        gpu.trace().len() - mark,
        export::to_jsonl(gpu.trace().entries_since(mark)).expect("exports"),
    );
    let retired = gpu.retire_trace(mark);
    line(
        "retired",
        retired.len(),
        export::to_jsonl(&retired).expect("exports"),
    );
    let cut = 9 * 1536 + 1000;
    let at = gpu
        .trace()
        .entries_since(cut)
        .iter()
        .next()
        .expect("entry")
        .start;
    gpu.cancel_to(at);
    line(
        "after-cancel",
        gpu.trace().entries().len(),
        export::to_jsonl(gpu.trace().entries()).expect("exports"),
    );
    let resumed = gpu.trace().len();
    xt(&mut gpu, 256, 64);
    line(
        "resumed",
        gpu.trace().len() - resumed,
        export::to_jsonl(gpu.trace().entries_since(resumed)).expect("exports"),
    );
    golden.push_str(&format!(
        "len {} now {} | {}\n",
        gpu.trace().len(),
        gpu.now().as_nanos(),
        totals(&gpu)
    ));
    assert_golden("multi_chunk_trace.txt", &golden);
}
