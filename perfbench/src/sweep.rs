//! `paper_sweep`: the paper's Fig. 7 / Table IV evaluation at reduced
//! scale on Testbeds I and II, one caller in a closed loop.
//!
//! Each s/dgemm problem (full offload, low transfer, fat-by-thin) runs
//! three ways: `TileChoice::Auto`, the cuBLASXt policy over its 10-tile
//! grid, and BLASX. daxpy, ddot and dgemv run at the paper's sizes under
//! `TileChoice::Auto`. Host time here is the simulator plus the tile
//! schedulers; the serving layer does no work.

use std::time::Instant;

use cocopelia_baselines::{cublasxt, BaselineResult, Blasx};
use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use cocopelia_core::params::Loc;
use cocopelia_core::profile::SystemProfile;
use cocopelia_deploy::{deploy, measure_full_kernel, CiConfig, DeployConfig};
use cocopelia_gpusim::{testbed_i, testbed_ii, ExecMode, Gpu, KernelShape, SimScalar, TestbedSpec};
use cocopelia_hostblas::{Dtype, Matrix};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DeviceMatrix, DotRequest, GemmRequest, GemvRequest, MatOperand,
    RoutineReport, RoutineRequest, RuntimeError, TileChoice, VecOperand,
};
use cocopelia_xp::sets::{gemm_tile_grid, gemm_validation_shapes};
use cocopelia_xp::{GemmProblem, Scale};

use crate::gate;
use crate::report::{Metrics, Report};
use crate::spans::HostSpans;
use crate::stats::{geomean, median, percentile, ratio, HostTimer};
use crate::{Config, DeviceFacts, Overheads, SetUp};

/// One problem of the sweep.
#[derive(Debug, Clone, Copy)]
enum Problem {
    Gemm(GemmProblem),
    Axpy(usize),
    Dot(usize),
    Gemv(usize, usize),
}

/// The reduced Fig. 7 / Table IV problem list of one testbed.
fn problems() -> Vec<Problem> {
    let gemm = |dtype, n, a, b, c| {
        Problem::Gemm(GemmProblem {
            dtype,
            m: n,
            n,
            k: n,
            loc_a: a,
            loc_b: b,
            loc_c: c,
        })
    };
    let (h, d) = (Loc::Host, Loc::Device);
    let mut out = Vec::new();
    for dtype in [Dtype::F64, Dtype::F32] {
        out.push(gemm(dtype, 4096, h, h, h));
        out.push(gemm(dtype, 8192, h, h, h));
        out.push(gemm(dtype, 8192, d, d, h));
        if let Some(fat) = gemm_validation_shapes(dtype, Scale::Reduced)
            .into_iter()
            .find(|p| p.m > 4 * p.k)
        {
            out.push(Problem::Gemm(fat));
        }
    }
    for n in [8usize << 20, 64 << 20, 128 << 20, 256 << 20] {
        out.push(Problem::Axpy(n));
        out.push(Problem::Dot(n));
    }
    out.push(Problem::Gemv(8192, 8192));
    out.push(Problem::Gemv(16384, 16384));
    out
}

/// The cuBLASXt best-of-10 tiling grid of §V-E.
fn cublasxt_grid(p: &GemmProblem) -> Vec<usize> {
    let grid = gemm_tile_grid(p.m.min(p.n).min(p.k), Scale::Full);
    if grid.len() <= 10 {
        return grid;
    }
    let stride = grid.len() as f64 / 10.0;
    (0..10)
        .map(|i| grid[(i as f64 * stride) as usize])
        .collect()
}

/// Which library ran a call.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lib {
    Auto,
    CublasXt(usize),
    Blasx,
    /// CoCoPeLia at a fixed tile (tile-regret analysis only).
    Fixed(usize),
}

/// One executed call and the device facts read from its trace.
#[derive(Debug, Clone)]
struct Call {
    testbed: usize,
    problem: usize,
    lib: Lib,
    elapsed_ns: u64,
    flops: f64,
    subkernels: usize,
    dev: DeviceFacts,
    report: Option<RoutineReport>,
    cached_selections: usize,
    /// Host seconds of the call, as the measured phase timed it.
    host_s: f64,
}

impl Call {
    fn new(testbed: usize, problem: usize, lib: Lib) -> Self {
        Call {
            testbed,
            problem,
            lib,
            elapsed_ns: 0,
            flops: 0.0,
            subkernels: 0,
            dev: DeviceFacts::default(),
            report: None,
            cached_selections: 0,
            host_s: 0.0,
        }
    }
}

fn mat<T: SimScalar>(
    gpu: &mut Gpu,
    loc: Loc,
    rows: usize,
    cols: usize,
) -> Result<MatOperand<T>, RuntimeError> {
    Ok(match loc {
        Loc::Host => MatOperand::HostGhost { rows, cols },
        Loc::Device => {
            let buf = gpu.alloc_device(T::DTYPE, rows * cols)?;
            MatOperand::Device(DeviceMatrix::from_raw(buf, rows, cols))
        }
    })
}

fn gemm_operands<T: SimScalar>(
    gpu: &mut Gpu,
    p: &GemmProblem,
) -> Result<[MatOperand<T>; 3], RuntimeError> {
    Ok([
        mat(gpu, p.loc_a, p.m, p.k)?,
        mat(gpu, p.loc_b, p.k, p.n)?,
        mat(gpu, p.loc_c, p.m, p.n)?,
    ])
}

fn typed_gemm<T: SimScalar>(
    gpu: &mut Gpu,
    p: &GemmProblem,
    tile: TileChoice,
) -> Result<RoutineRequest, RuntimeError>
where
    GemmRequest<T>: Into<RoutineRequest>,
{
    let [a, b, c] = gemm_operands::<T>(gpu, p)?;
    Ok(GemmRequest::<T>::new(a, b, c)
        .alpha(1.0)
        .beta(1.0)
        .tile(tile)
        .into())
}

fn request(
    gpu: &mut Gpu,
    prob: &Problem,
    tile: TileChoice,
) -> Result<RoutineRequest, RuntimeError> {
    let v = |len| VecOperand::<f64>::HostGhost { len };
    Ok(match prob {
        Problem::Gemm(p) if p.dtype == Dtype::F32 => typed_gemm::<f32>(gpu, p, tile)?,
        Problem::Gemm(p) => typed_gemm::<f64>(gpu, p, tile)?,
        Problem::Axpy(n) => AxpyRequest::<f64>::new(v(*n), v(*n))
            .alpha(1.5)
            .tile(tile)
            .into(),
        Problem::Dot(n) => DotRequest::<f64>::new(v(*n), v(*n)).tile(tile).into(),
        Problem::Gemv(m, n) => {
            GemvRequest::<f64>::new(MatOperand::HostGhost { rows: *m, cols: *n }, v(*n), v(*m))
                .alpha(1.0)
                .beta(1.0)
                .tile(tile)
                .into()
        }
    })
}

/// A CoCoPeLia call on a fresh device: for `Auto`, an explicit cold
/// `select_tile` first, which the routine then reuses from the cache.
fn run_cocopelia(
    tb: &TestbedSpec,
    profile: &SystemProfile,
    prob: &Problem,
    tile: TileChoice,
    seed: u64,
    spans: &mut HostSpans,
) -> Result<(RoutineReport, Gpu, usize), RuntimeError> {
    let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, seed);
    let req = request(&mut gpu, prob, tile)?;
    let mut ctx = Cocopelia::new(gpu, profile.clone());
    if tile == TileChoice::Auto {
        let spec = req.problem_spec();
        spans.span("core.select_tile", |_| {
            ctx.select_tile(&spec, ModelKind::recommended_for(spec.routine))
        })?;
    }
    let report = spans.span("runtime.run", |_| ctx.submit(req))?;
    let cached = ctx.cached_selections();
    Ok((report, ctx.into_gpu(), cached))
}

type BaselineOut<T> = (BaselineResult<Matrix<T>>, Gpu);

fn run_baseline<T: SimScalar>(
    tb: &TestbedSpec,
    p: &GemmProblem,
    lib: Lib,
    seed: u64,
    spans: &mut HostSpans,
) -> Result<BaselineOut<T>, RuntimeError> {
    let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, seed);
    if let Lib::CublasXt(tile) = lib {
        let [a, b, c] = gemm_operands::<T>(&mut gpu, p)?;
        let out = spans.span("baseline.cublasxt", |_| {
            cublasxt::gemm::<T>(&mut gpu, 1.0, a, b, 1.0, c, tile)
        })?;
        return Ok((out, gpu));
    }
    let mut blasx = Blasx::new(gpu);
    let [a, b, c] = gemm_operands::<T>(blasx.gpu_mut(), p)?;
    let out = spans.span("baseline.blasx", |_| blasx.gemm::<T>(1.0, a, b, 1.0, c))?;
    Ok((out, blasx.into_gpu()))
}

/// The deployed testbeds of a sweep.
type Lab = [(TestbedSpec, SystemProfile)];

/// Runs one call and reads its facts.
fn run_call(
    lab: &Lab,
    (testbed, problem, lib): (usize, usize, Lib),
    prob: &Problem,
    seed: u64,
    spans: &mut HostSpans,
) -> Result<Call, RuntimeError> {
    let (tb, profile) = &lab[testbed];
    let mut call = Call::new(testbed, problem, lib);
    match (lib, prob) {
        (Lib::Auto | Lib::Fixed(_), _) => {
            let tile = match lib {
                Lib::Fixed(t) => TileChoice::Fixed(t),
                _ => TileChoice::Auto,
            };
            let (report, gpu, cached) = run_cocopelia(tb, profile, prob, tile, seed, spans)?;
            call.elapsed_ns = report.elapsed.as_nanos();
            call.flops = report.flops;
            call.subkernels = report.subkernels;
            call.cached_selections = cached;
            call.report = Some(report);
            call.dev.add(&gpu);
        }
        (_, Problem::Gemm(p)) => {
            let (elapsed, flops, subkernels, gpu) = if p.dtype == Dtype::F32 {
                let (o, g) = run_baseline::<f32>(tb, p, lib, seed, spans)?;
                (o.elapsed, o.flops, o.subkernels, g)
            } else {
                let (o, g) = run_baseline::<f64>(tb, p, lib, seed, spans)?;
                (o.elapsed, o.flops, o.subkernels, g)
            };
            call.elapsed_ns = elapsed.as_nanos();
            call.flops = flops;
            call.subkernels = subkernels;
            call.dev.add(&gpu);
        }
        _ => unreachable!("baselines run gemm problems only"),
    }
    Ok(call)
}

/// Every call of one sweep: per testbed and problem, the auto call, then
/// (gemm only) the cuBLASXt grid and BLASX.
fn plan(testbeds: usize, probs: &[Problem]) -> Vec<(usize, usize, Lib)> {
    let mut out = Vec::new();
    for tb in 0..testbeds {
        for (i, prob) in probs.iter().enumerate() {
            out.push((tb, i, Lib::Auto));
            if let Problem::Gemm(p) = prob {
                out.extend(
                    cublasxt_grid(p)
                        .into_iter()
                        .map(|t| (tb, i, Lib::CublasXt(t))),
                );
                out.push((tb, i, Lib::Blasx));
            }
        }
    }
    out
}

/// Host seconds of one sweep from per-call times of several sweeps: the
/// sum over calls of each call's median.
fn sweep_host_secs(sweeps: &[Vec<f64>]) -> f64 {
    let calls = sweeps.first().map_or(0, Vec::len);
    (0..calls)
        .map(|c| median(&sweeps.iter().map(|s| s[c]).collect::<Vec<_>>()))
        .sum()
}

/// The device noise seed of call `i` of a sweep under workload `seed`.
fn call_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x0100_0000_01B3).wrapping_add(i as u64)
}

/// Runs every call of `plan` once, timing each call on its own.
fn sweep_once(
    lab: &Lab,
    probs: &[Problem],
    plan: &[(usize, usize, Lib)],
    seed: u64,
    spans: &mut HostSpans,
) -> Result<Vec<Call>, RuntimeError> {
    plan.iter()
        .enumerate()
        .map(|(i, &step)| {
            let t = HostTimer::start();
            let mut call = spans.span("sweep.call", |s| {
                run_call(lab, step, &probs[step.1], call_seed(seed, i), s)
            })?;
            call.host_s = t.secs();
            Ok(call)
        })
        .collect()
}

/// One set-up of the sweep: the paper deployment of every testbed.
fn deploy_all(
    testbeds: &[TestbedSpec],
    spans: &mut HostSpans,
    deploy_ms: &mut Vec<f64>,
) -> Vec<SystemProfile> {
    testbeds
        .iter()
        .map(|tb| {
            let t = HostTimer::start();
            let p = spans.span("deploy.deploy", |_| deploy(tb, &DeployConfig::paper()));
            deploy_ms.push(t.secs() * 1e3);
            p.map(|d| d.profile)
        })
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_default()
}

/// Runs the `paper_sweep` workload.
pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let mut spans = HostSpans::new(cfg.trace);
    let testbeds = [testbed_i(), testbed_ii()];

    // Set-up: deploy the paper profile on both testbeds. It is repeated
    // before and between the measured sweeps, so its samples span the run.
    let mut setup = SetUp::default();
    let profiles = setup.repeat(&mut spans, |s, ms| deploy_all(&testbeds, s, ms));
    r.check(profiles.len() == testbeds.len(), || {
        "deployment failed".to_owned()
    });
    if !r.correct() {
        return r;
    }
    let lab: Vec<(TestbedSpec, SystemProfile)> = testbeds.iter().cloned().zip(profiles).collect();

    gate::functional_spot_checks(&lab[1].0, &lab[1].1, &mut r);
    let (s_bytes, d_bytes) = gate::sgemm_moves_half_the_bytes(&lab[0].0, &lab[0].1, &mut r);
    r.notes.push(format!(
        "sgemm 4096^3 via GemmRequest::<f32>: h2d {s_bytes} B = {:.3} x dgemm's {d_bytes} B",
        ratio(s_bytes as f64, d_bytes as f64)
    ));

    // Measured phase: whole sweeps until the time budget is spent. Sweep 0
    // warms the process up and is not timed; when tracing, traced sweeps
    // alternate with untraced ones. Each call is timed on its own, and the
    // sweep's host time is the sum of the calls' medians over the sweeps,
    // so interference that hits a few calls does not decide it.
    let probs = problems();
    let plan = plan(lab.len(), &probs);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Call>> = None;
    for i in 0usize.. {
        let trace_this = cfg.trace && i % 2 == 0;
        spans.set_on(i > 0 && trace_this);
        if i > 0 {
            setup.repeat(&mut spans, |s, ms| deploy_all(&testbeds, s, ms));
        }
        let calls = match sweep_once(&lab, &probs, &plan, cfg.seed, &mut spans) {
            Ok(c) => c,
            Err(e) => {
                r.check(false, || format!("sweep call failed: {e}"));
                return r;
            }
        };
        spans.set_on(false);
        r.attempted += calls.len() as u64;
        let times: Vec<f64> = calls.iter().map(|c| c.host_s).collect();
        match &first {
            None => first = Some(calls),
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&calls)
                    .all(|(a, b)| a.elapsed_ns == b.elapsed_ns);
                r.check(same, || {
                    format!("sweep {i} differs in virtual time from sweep 0")
                });
                if trace_this {
                    traced.push(times);
                } else {
                    untraced.push(times);
                }
            }
        }
        let enough = !untraced.is_empty() && (!cfg.trace || !traced.is_empty());
        if Instant::now() >= deadline && enough {
            break;
        }
    }
    let calls = first.expect("at least one sweep ran");
    let peak_rss = crate::stats::peak_rss_mib();
    let reused = calls
        .iter()
        .filter(|c| c.lib == Lib::Auto)
        .all(|c| c.cached_selections == 1);
    r.check(reused, || {
        "an auto call did not reuse its explicit selection".to_owned()
    });
    let untraced_s = sweep_host_secs(&untraced);
    let traced_s = sweep_host_secs(&traced);

    // Virtual results of one sweep.
    let auto: Vec<&Call> = calls.iter().filter(|c| c.lib == Lib::Auto).collect();
    let makespan_s: f64 = auto.iter().map(|c| c.elapsed_ns as f64 * 1e-9).sum();
    let auto_flops: f64 = auto.iter().map(|c| c.flops).sum();
    let mut speedups = Vec::new();
    for a in auto
        .iter()
        .filter(|c| matches!(probs[c.problem], Problem::Gemm(_)))
    {
        let best_other = calls
            .iter()
            .filter(|c| c.testbed == a.testbed && c.problem == a.problem && c.lib != Lib::Auto)
            .map(|c| c.elapsed_ns)
            .min()
            .unwrap_or(a.elapsed_ns);
        speedups.push(best_other as f64 / a.elapsed_ns as f64);
    }
    let latency_ms: Vec<f64> = auto.iter().map(|c| c.elapsed_ns as f64 * 1e-6).collect();

    let host_rate = calls.len() as f64 / untraced_s;
    let host_basis = format!(
        "{} calls / sum of per-call median host time over {} sweeps",
        calls.len(),
        untraced.len()
    );
    r.notes.push(crate::host_rate_note(host_rate, &host_basis));
    let e = &mut r.end_to_end;
    setup.report_setup(e, "paper deploys of both testbeds");
    e.add(
        "peak_rss_mb",
        peak_rss,
        "MiB",
        "VmHWM after the measured phase",
    );
    e.add(
        "virt_makespan_ms",
        makespan_s * 1e3,
        "ms",
        format!("sum over {} auto calls", auto.len()),
    );
    e.add(
        "virt_gflops",
        auto_flops / makespan_s / 1e9,
        "GFLOP/s",
        "auto flops / auto time",
    );
    let n = latency_ms.len();
    e.add(
        "virt_flow_p50_ms",
        percentile(&latency_ms, 0.5),
        "ms",
        format!("closed-loop latency of the auto calls, n={n}"),
    );
    e.add(
        "virt_flow_p99_ms",
        percentile(&latency_ms, 0.99),
        "ms",
        format!("closed-loop latency of the auto calls, n={n}"),
    );
    e.add(
        "virt_speedup",
        geomean(&speedups),
        "x",
        format!(
            "geomean over {} gemm problems of best comparator time / auto time",
            speedups.len()
        ),
    );
    e.add(
        "ok_frac",
        1.0,
        "ratio",
        format!("fail_frac 0 of {} calls", calls.len()),
    );

    if cfg.trace {
        let facts = SweepFacts {
            lab: &lab,
            probs: &probs,
            calls: &calls,
            setup: &setup,
            untraced: (untraced.len(), untraced_s),
            traced: (traced.len(), traced_s),
        };
        r.per_layer = layer_metrics(cfg, &mut r.notes, &facts, &mut spans);
        r.per_layer
            .add("host.req_per_s", host_rate, "1/s", host_basis);
        crate::write_spans(cfg, &spans);
    }
    r
}

/// Mean absolute percentage error of `(predicted, actual)` pairs.
fn mape(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|(p, a)| (p - a).abs() / a * 100.0).sum();
    ratio(sum, pairs.len() as f64)
}

/// What the traced analysis reads from the measured phase.
struct SweepFacts<'a> {
    lab: &'a Lab,
    probs: &'a [Problem],
    calls: &'a [Call],
    setup: &'a SetUp,
    /// Timed untraced sweeps and the host seconds of one.
    untraced: (usize, f64),
    /// Timed traced sweeps and the host seconds of one.
    traced: (usize, f64),
}

fn layer_metrics(
    cfg: &Config,
    notes: &mut Vec<String>,
    f: &SweepFacts<'_>,
    spans: &mut HostSpans,
) -> Metrics {
    let mut m = Metrics::default();
    f.setup.report_deploy(&mut m);

    let mut overheads = Overheads::default();
    for (tb, profile) in f.lab {
        let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, 1);
        let problems: Vec<_> = f
            .probs
            .iter()
            .filter_map(|p| request(&mut gpu, p, TileChoice::Auto).ok())
            .map(|req| (req.problem_spec(), TileChoice::Auto))
            .collect();
        overheads.measure(tb, profile, &problems, spans);
    }
    overheads.report(&mut m, notes);

    // Tile regret and model error over the gemm auto calls.
    let mut regrets = Vec::new();
    let (mut dr, mut bts, mut cso) = (Vec::new(), Vec::new(), Vec::new());
    let mut quiet_spans = HostSpans::new(false);
    for a in f.calls.iter().filter(|c| c.lib == Lib::Auto) {
        let Problem::Gemm(p) = f.probs[a.problem] else {
            continue;
        };
        let best_fixed = cublasxt_grid(&p)
            .into_iter()
            .filter_map(|t| {
                let step = (a.testbed, a.problem, Lib::Fixed(t));
                run_call(f.lab, step, &f.probs[a.problem], cfg.seed, &mut quiet_spans)
                    .ok()
                    .map(|c| c.elapsed_ns)
            })
            .min()
            .unwrap_or(a.elapsed_ns);
        regrets.push(a.elapsed_ns as f64 / best_fixed as f64);
        let Some(rep) = &a.report else { continue };
        let actual = rep.elapsed.as_secs_f64();
        for d in &rep.drift {
            match d.model {
                ModelKind::DataReuse => dr.push((d.predicted_secs, actual)),
                ModelKind::Bts => bts.push((d.predicted_secs, actual)),
                _ => {}
            }
        }
        // CSO needs the measured full-problem kernel time (§V-C).
        let (tb, profile) = &f.lab[a.testbed];
        let spec = p.spec();
        let shape = KernelShape::Gemm {
            dtype: p.dtype,
            m: p.m,
            n: p.n,
            k: p.k,
        };
        let full = measure_full_kernel(tb, shape, &CiConfig::default(), cfg.seed);
        if let (Ok(full), Some(exec)) = (full, profile.exec_table(spec.routine, spec.dtype)) {
            let ctx = ModelCtx {
                problem: &spec,
                transfer: &profile.transfer,
                exec,
                full_kernel_time: Some(full),
            };
            if let Ok(pred) = predict(ModelKind::Cso, &ctx, rep.tile) {
                cso.push((pred.total, actual));
            }
        }
    }
    m.add(
        "core.tile_regret",
        geomean(&regrets),
        "x",
        format!(
            "geomean over {} gemm problems of auto / best fixed-grid time",
            regrets.len()
        ),
    );
    m.add("core.mape.dr", mape(&dr), "%", format!("n={}", dr.len()));
    m.add("core.mape.bts", mape(&bts), "%", format!("n={}", bts.len()));
    m.add("core.mape.cso", mape(&cso), "%", format!("n={}", cso.len()));

    // Scheduler and simulator: counts of one sweep, host cost from the
    // traced sweeps' call spans.
    let call_span =
        ["runtime.run", "baseline.cublasxt", "baseline.blasx"].map(|n| spans.totals_of(n));
    let call_spans: u64 = call_span.iter().map(|t| t.count).sum();
    let call_ns: u64 = call_span.iter().map(|t| t.total_ns).sum();
    let calls = f.calls;
    let ops: usize = calls.iter().map(|c| c.dev.ops).sum();
    let auto: Vec<&RoutineReport> = calls.iter().filter_map(|c| c.report.as_ref()).collect();
    let hits: u64 = auto.iter().map(|r| r.tile_hits).sum();
    let fetches: u64 = hits + auto.iter().map(|r| r.tile_misses).sum::<u64>();
    let busy: u64 = auto.iter().map(|r| r.overlap.sum_busy_ns()).sum();
    let union: u64 = auto.iter().map(|r| r.overlap.union_busy_ns).sum();
    m.add(
        "scheduler.calls",
        calls.len() as f64,
        "count",
        "routine calls per sweep",
    );
    m.add(
        "scheduler.subkernels",
        calls.iter().map(|c| c.subkernels).sum::<usize>() as f64,
        "count",
        "per sweep",
    );
    m.add(
        "scheduler.host_us_per_call",
        ratio(call_ns as f64 / 1e3, call_spans as f64),
        "us",
        format!("n={call_spans} traced calls"),
    );
    m.add(
        "scheduler.overlap_eff",
        ratio(busy as f64, union as f64),
        "ratio",
        format!("engine busy / union busy over {} auto calls", auto.len()),
    );
    m.add(
        "scheduler.tile_hit_rate",
        ratio(hits as f64, fetches as f64),
        "ratio",
        format!("of {fetches} tile fetches"),
    );
    m.add(
        "scheduler.tile_fetches",
        fetches as f64,
        "count",
        "auto calls per sweep",
    );
    m.add(
        "scheduler.op_retries",
        auto.iter().map(|r| r.op_retries).sum::<u64>() as f64,
        "count",
        "per sweep",
    );
    m.add("gpusim.engine_ops", ops as f64, "count", "per sweep");
    m.add(
        "gpusim.host_ns_per_op",
        ratio(call_ns as f64, ops as f64 * f.traced.0.max(1) as f64),
        "ns",
        "traced call time (scheduler + simulator) per engine op",
    );
    m.add(
        "gpusim.h2d_bytes",
        calls.iter().map(|c| c.dev.h2d_bytes).sum::<usize>() as f64,
        "B",
        "computed from the trace, per sweep",
    );
    m.add(
        "gpusim.d2h_bytes",
        calls.iter().map(|c| c.dev.d2h_bytes).sum::<usize>() as f64,
        "B",
        "computed from the trace, per sweep",
    );
    for (name, i) in [
        ("gpusim.h2d_busy_ms", 0),
        ("gpusim.exec_busy_ms", 1),
        ("gpusim.d2h_busy_ms", 2),
    ] {
        let ns: u64 = calls.iter().map(|c| c.dev.busy_ns[i]).sum();
        m.add(name, ns as f64 * 1e-6, "ms", "per sweep");
    }
    m.add(
        "gpusim.ops_retained",
        ops as f64,
        "count",
        "trace entries held at call end, per sweep",
    );
    m.add(
        "bench.trace_overhead_frac",
        f.traced.1 / f.untraced.1 - 1.0,
        "ratio",
        format!(
            "traced sweep ({}) vs untraced ({}), per-call medians",
            f.traced.0, f.untraced.0
        ),
    );
    m.add(
        "bench.traced_runs",
        f.traced.0 as f64,
        "count",
        "traced sweeps",
    );
    m.add(
        "bench.untraced_runs",
        f.untraced.0 as f64,
        "count",
        "untraced sweeps",
    );
    m
}
