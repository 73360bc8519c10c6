//! Layered two-clock benchmark of the CoCoPeLia crates.
//!
//! One command runs a named workload through the crates' public APIs and
//! prints its end-to-end metrics (tracing off) or, from a separate traced
//! run, its per-layer metrics. *Virtual* numbers are what the simulated
//! GPUs achieve and repeat exactly per seed; *host* numbers are what the
//! program costs on the machine running it. Every run also executes the
//! correctness gate and exits non-zero when it fails.
//!
//! Layers are measured from outside: the benchmark records host spans
//! around its own calls into each layer ([`spans`]) and reads counts from
//! the public reports (`RoutineReport`, `ServeReport::metrics`,
//! `Gpu::trace`, `FaultStats`, `TelemetryReport`).

pub mod gate;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use report::{Metrics, Report};

/// Set-ups before the measured phase and again before each measured
/// iteration.
pub const SETUP_REPS: usize = 5;

/// Repeated set-ups of one run. Set-up takes milliseconds, and on a shared
/// machine the same set-up costs up to twice the CPU time for seconds at a
/// stretch while other tenants load the host. So `setup_s` and `deploy.ms`
/// are the fastest of many set-ups spread over the whole run: the cost of
/// the program itself, which a busy neighbour cannot lower, and which one
/// quiet moment in the run suffices to observe.
#[derive(Debug, Default)]
pub struct SetUp {
    /// Host seconds of each whole set-up.
    pub secs: Vec<f64>,
    /// Host milliseconds of each deployment inside them.
    pub deploy_ms: Vec<f64>,
}

impl SetUp {
    /// Runs [`SETUP_REPS`] set-ups with `once`, which records the time of
    /// its deployments; records each set-up's host seconds and returns the
    /// last set-up's result.
    pub fn repeat<T>(
        &mut self,
        spans: &mut spans::HostSpans,
        mut once: impl FnMut(&mut spans::HostSpans, &mut Vec<f64>) -> T,
    ) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = stats::HostTimer::start();
            last = Some(once(spans, &mut self.deploy_ms));
            self.secs.push(t.secs());
        }
        last.expect("SETUP_REPS > 0")
    }

    /// Adds `setup_s`: the fastest whole set-up, described by `what`.
    pub fn report_setup(&self, m: &mut Metrics, what: &str) {
        m.add(
            "setup_s",
            stats::minimum(&self.secs),
            "s",
            format!("fastest of {} set-ups: {what}", self.secs.len()),
        );
    }

    /// Adds `deploy.ms`: the fastest paper deployment.
    pub fn report_deploy(&self, m: &mut Metrics) {
        m.add(
            "deploy.ms",
            stats::minimum(&self.deploy_ms),
            "ms",
            format!(
                "fastest of {} paper deploys (median {:.3} ms)",
                self.deploy_ms.len(),
                stats::median(&self.deploy_ms)
            ),
        );
    }
}

/// Engine facts of one or more simulated devices, read from their traces
/// and fault counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceFacts {
    /// Trace entries (engine ops) held.
    pub ops: usize,
    /// Bytes the h2d copy engine moved.
    pub h2d_bytes: usize,
    /// Bytes the d2h copy engine moved.
    pub d2h_bytes: usize,
    /// h2d, compute and d2h engine busy time, ns.
    pub busy_ns: [u64; 3],
    /// Faults injected.
    pub faults: u64,
}

impl DeviceFacts {
    /// Adds `gpu`'s facts.
    pub fn add(&mut self, gpu: &cocopelia_gpusim::Gpu) {
        use cocopelia_gpusim::EngineKind;
        let trace = gpu.trace();
        self.ops += trace.len();
        self.h2d_bytes += trace.bytes_moved(EngineKind::CopyH2d);
        self.d2h_bytes += trace.bytes_moved(EngineKind::CopyD2h);
        let engines = [
            EngineKind::CopyH2d,
            EngineKind::Compute,
            EngineKind::CopyD2h,
        ];
        for (busy, engine) in self.busy_ns.iter_mut().zip(engines) {
            *busy += trace.engine_busy(engine).as_nanos();
        }
        self.faults += gpu.fault_stats().total();
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "serve_deep_predictive",
    "serve_open_mixed",
    "serve_straggler",
];

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virt_makespan_ms", "ms"),
    ("virt_gflops", "GFLOP/s"),
    ("virt_flow_p50_ms", "ms"),
    ("virt_flow_p99_ms", "ms"),
    ("virt_speedup", "x"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run, grouped by layer, with units.
/// `host.req_per_s`, the workload's host throughput, is reported here
/// rather than end to end: on a shared 2-core machine it drifts between
/// runs by more than any bound the benchmark may set, so it is printed but
/// not gated, and the deterministic counts of the layers stand in for it.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("host.req_per_s", "1/s"),
    ("deploy.ms", "ms"),
    ("core.select_cold_us", "us"),
    ("core.select_cached_us", "us"),
    ("core.predict_offload_us", "us"),
    ("core.tile_regret", "x"),
    ("core.mape.dr", "%"),
    ("core.mape.bts", "%"),
    ("core.mape.cso", "%"),
    ("core.sched_err_p50_ms", "ms"),
    ("core.sched_err_p99_ms", "ms"),
    ("scheduler.calls", "count"),
    ("scheduler.subkernels", "count"),
    ("scheduler.host_us_per_call", "us"),
    ("scheduler.overlap_eff", "ratio"),
    ("scheduler.tile_hit_rate", "ratio"),
    ("scheduler.tile_fetches", "count"),
    ("scheduler.op_retries", "count"),
    ("gpusim.engine_ops", "count"),
    ("gpusim.host_ns_per_op", "ns"),
    ("gpusim.h2d_bytes", "B"),
    ("gpusim.d2h_bytes", "B"),
    ("gpusim.h2d_busy_ms", "ms"),
    ("gpusim.exec_busy_ms", "ms"),
    ("gpusim.d2h_busy_ms", "ms"),
    ("gpusim.ops_retained", "count"),
    ("gpusim.faults_injected", "count"),
    ("serve.submitted", "count"),
    ("serve.host_us_per_req", "us"),
    ("serve.dispatch_self_us_per_req", "us"),
    ("serve.queue_depth_peak", "count"),
    ("serve.occupancy", "ratio"),
    ("serve.residency_lookups", "count"),
    ("serve.residency_hit_rate", "ratio"),
    ("serve.residency_evictions", "count"),
    ("serve.residency_bytes_uploaded", "B"),
    ("serve.prefetch_issued", "count"),
    ("serve.prefetch_useful_frac", "ratio"),
    ("serve.prefetch_bytes", "B"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.hedges", "count"),
    ("serve.hedge_win_frac", "ratio"),
    ("serve.retries", "count"),
    ("serve.quarantines", "count"),
    ("serve.probes", "count"),
    ("serve.host_fallbacks", "count"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("obs.windows", "count"),
    ("obs.telemetry_overhead_frac", "ratio"),
    ("obs.perfetto_export_ms", "ms"),
    ("obs.perfetto_bytes", "B"),
    ("obs.check_spans_ms", "ms"),
    ("obs.prom_render_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_runs", "count"),
    ("bench.untraced_runs", "count"),
];

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds the measured phase runs for (at least one iteration).
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Names the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    cfg.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "unknown workload `{}` (want one of {})",
                cfg.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(cfg)
    }
}

/// The printed line that gives a workload's host throughput.
pub fn host_rate_note(rate: f64, basis: &str) -> String {
    format!("host throughput {rate:.1}/s ({basis}); reported, not gated: see host.req_per_s")
}

/// The §IV-B overheads, in µs per call.
#[derive(Debug, Default)]
pub struct Overheads {
    /// Cold `select_tile` on a fresh handle (model initialisation).
    pub cold: Vec<f64>,
    /// Cached `select_tile` (the §IV-C model-reuse path).
    pub cached: Vec<f64>,
    /// `SystemProfile::predict_offload`, priced as the serving dispatcher
    /// prices a request with that tile choice.
    pub predict: Vec<f64>,
}

impl Overheads {
    /// Measures the overheads for `problems` on `testbed` under `profile`:
    /// selections once per distinct problem, predictions for every entry.
    pub fn measure(
        &mut self,
        testbed: &cocopelia_gpusim::TestbedSpec,
        profile: &cocopelia_core::profile::SystemProfile,
        problems: &[(
            cocopelia_core::params::ProblemSpec,
            cocopelia_runtime::TileChoice,
        )],
        spans: &mut spans::HostSpans,
    ) {
        use cocopelia_core::models::ModelKind;
        use cocopelia_runtime::TileChoice;
        use std::hint::black_box;
        use std::time::Instant;
        let mut seen = std::collections::BTreeSet::new();
        for (spec, choice) in problems {
            let model = ModelKind::recommended_for(spec.routine);
            if seen.insert(format!("{spec:?}")) {
                for _ in 0..5 {
                    let gpu = cocopelia_gpusim::Gpu::new(
                        testbed.clone(),
                        cocopelia_gpusim::ExecMode::TimingOnly,
                        1,
                    );
                    let mut ctx = cocopelia_runtime::Cocopelia::new(gpu, profile.clone());
                    let t = Instant::now();
                    let _ = spans.span("core.select_tile", |_| {
                        black_box(ctx.select_tile(spec, model))
                    });
                    self.cold.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    for _ in 0..200 {
                        let _ = black_box(ctx.select_tile(spec, model));
                    }
                    self.cached.push(t.elapsed().as_secs_f64() * 1e6 / 200.0);
                }
            }
            let (model, tile) = match choice {
                TileChoice::Fixed(t) => (None, Some(*t)),
                TileChoice::Model(m) => (Some(*m), None),
                _ => (None, None),
            };
            let t = Instant::now();
            spans.span("core.predict_offload", |_| {
                for _ in 0..20 {
                    black_box(profile.predict_offload(spec, model, tile));
                }
            });
            self.predict.push(t.elapsed().as_secs_f64() * 1e6 / 20.0);
        }
    }

    /// Adds the three `core.` overhead metrics, and a note printing them
    /// beside the paper's bounds.
    pub fn report(&self, m: &mut Metrics, notes: &mut Vec<String>) {
        use stats::median;
        let (cold, cached, predict) = (
            median(&self.cold),
            median(&self.cached),
            median(&self.predict),
        );
        m.add(
            "core.select_cold_us",
            cold,
            "us",
            format!(
                "median of {} cold selections; paper: init 2-3 ms",
                self.cold.len()
            ),
        );
        m.add(
            "core.select_cached_us",
            cached,
            "us",
            format!(
                "median of {} x200 cached selections; paper: < 100 us",
                self.cached.len()
            ),
        );
        m.add(
            "core.predict_offload_us",
            predict,
            "us",
            format!(
                "median of {} x20 predictions; paper: < 100 us",
                self.predict.len()
            ),
        );
        notes.push(format!(
            "IV-B overheads: cold select {cold:.1} us (paper: model init 2-3 ms); cached select {cached:.3} us and predict_offload {predict:.2} us (paper: prediction < 100 us)"
        ));
    }
}

/// Runs the configured workload, then puts its metrics in canonical order.
pub fn run(cfg: &Config) -> Report {
    let mut r = match cfg.workload.as_str() {
        "paper_sweep" => sweep::run(cfg),
        name => serve::run(cfg, name),
    };
    if r.correct() {
        let e2e = canonical(&mut r, &END_TO_END, false);
        r.end_to_end = e2e;
        if cfg.trace {
            let layers = canonical(&mut r, &PER_LAYER, true);
            r.per_layer = layers;
        }
    }
    r
}

/// Orders `report`'s end-to-end (or per-layer) metrics as `names` lists
/// them. A per-layer metric the workload does not exercise reads 0; an
/// end-to-end metric must be present. A metric missing from `names` or
/// with another unit fails the gate.
fn canonical(report: &mut Report, names: &[(&'static str, &'static str)], layers: bool) -> Metrics {
    let have = if layers {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut out = Metrics::default();
    let mut problems = Vec::new();
    for m in &have.0 {
        match names.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if unit == &m.unit => {}
            _ => problems.push(format!("metric {} ({}) is not listed", m.name, m.unit)),
        }
    }
    for &(name, unit) in names {
        match have.0.iter().find(|m| m.name == name) {
            Some(m) => out.0.push(m.clone()),
            None if layers => out.add(name, 0.0, unit, "not exercised by this workload"),
            None => problems.push(format!("end-to-end metric {name} missing")),
        }
    }
    for p in problems {
        report.check(false, || p);
    }
    out
}

/// Writes the run's host spans next to the build output:
/// `$CARGO_TARGET_DIR/perfbench/spans-<workload>-<seed>.json` (the target
/// directory defaults to `.bench_build`). A write failure is reported on
/// stderr and does not fail the run.
pub fn write_spans(cfg: &Config, spans: &spans::HostSpans) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-{}.json", cfg.workload, cfg.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
