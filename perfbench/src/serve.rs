//! The three serving workloads, all driven through `ServeSession`:
//!
//! - `serve_deep_predictive`: a deep closed queue of single-tile requests
//!   under `SchedulePolicy::Predictive`, so host time is dispatch pricing;
//! - `serve_open_mixed`: seeded Poisson arrivals at 0.6 of the pool's
//!   no-reuse capacity with coalescing, prefetch, a queue cap and telemetry
//!   armed, over a Zipf-popular working set larger than the residency
//!   budget;
//! - `serve_straggler`: a closed queue under Predictive with hedge,
//!   probation and retry budget armed, one device behind a degraded link
//!   and one taking seeded transient faults.

use std::collections::HashMap;
use std::time::Instant;

use cocopelia_core::models::ModelKind;
use cocopelia_core::profile::SystemProfile;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, DegradeWindow, ExecMode, FaultSpec, Gpu, SimTime, TestbedSpec};
use cocopelia_obs::perfetto::to_perfetto;
use cocopelia_obs::prom::render_prom;
use cocopelia_obs::{check_spans, SpanPhase};
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, ProbationConfig, RetryBudgetConfig, SchedulePolicy, ServeOptions,
    ServeReport, ServeSession, TelemetryConfig,
};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, MultiGpu, RequestId,
    RoutineRequest, SharedMat, SharedVec, TileChoice, VecOperand,
};
use cocopelia_xp::ArrivalSpec;

use crate::gate;
use crate::report::{Metrics, Report};
use crate::spans::HostSpans;
use crate::stats::{median, percentile, ratio, HostTimer, Rng, Zipf};
use crate::{Config, DeviceFacts, Overheads, SetUp};

/// Requests of the deep predictive queue.
const DEEP_REQUESTS: usize = 1500;
/// Requests of the open mixed trace.
const OPEN_REQUESTS: usize = 6000;
/// Requests of the straggler queue.
const STRAGGLER_REQUESTS: usize = 1000;
/// Devices in every serving pool.
const DEVICES: usize = 4;
/// Target utilisation of the open-loop arrival process. At 0.9 the p99
/// flow time spreads across seeds by more than a tenth, too much for a
/// benchmark that compares medians over seeds; at 0.6 it spreads by 3 %.
const OPEN_LOAD: f64 = 0.6;

/// The session options a workload arms, reusable across drains.
#[derive(Debug, Clone, Default)]
struct Knobs {
    policy: SchedulePolicy,
    coalesce: bool,
    prefetch: bool,
    queue_cap: Option<usize>,
    hedge: Option<HedgeConfig>,
    probation: Option<ProbationConfig>,
    retry_budget: Option<RetryBudgetConfig>,
    telemetry: Option<TelemetryConfig>,
}

/// Which observability a drain arms on top of the workload's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Obs {
    /// As the workload is configured (telemetry when it arms it).
    Workload,
    /// Nothing: no tracing, no telemetry.
    Off,
    /// Uncapped request-lifecycle tracing, no telemetry.
    Tracing,
}

impl Knobs {
    fn options(&self, obs: Obs) -> ServeOptions {
        let mut o = ServeOptions::new().policy(self.policy);
        if self.coalesce {
            o = o.coalesce();
        }
        if self.prefetch {
            o = o.prefetch();
        }
        if let Some(cap) = self.queue_cap {
            o = o.queue_cap(cap);
        }
        if let Some(h) = self.hedge {
            o = o.hedge(h);
        }
        if let Some(p) = self.probation {
            o = o.probation(p);
        }
        if let Some(b) = self.retry_budget {
            o = o.retry_budget(b);
        }
        match (obs, &self.telemetry) {
            (Obs::Workload, Some(t)) => o.telemetry(t.clone()),
            (Obs::Tracing, _) => o.tracing(),
            _ => o,
        }
    }
}

/// A serving workload: pool, options, requests and (open loop) arrivals.
#[derive(Debug, Clone)]
struct Workload {
    testbed: TestbedSpec,
    /// One fault plan per device.
    plans: Vec<FaultSpec>,
    knobs: Knobs,
    requests: Vec<RoutineRequest>,
    /// Scheduled arrival instants; `None` is a closed queue.
    arrivals: Option<Vec<SimTime>>,
    seed: u64,
    notes: Vec<String>,
}

/// One drain: its report, the host time of its submit-through-drain, and
/// the pool's device facts. The session itself is dropped once drained,
/// after the leak check, so one run holds one pool at a time.
struct Drain {
    report: ServeReport,
    ids: Vec<RequestId>,
    host_s: f64,
    devices: DeviceFacts,
}

fn drain(
    w: &Workload,
    profile: &SystemProfile,
    obs: Obs,
    spans: &mut HostSpans,
    r: &mut Report,
) -> Drain {
    let pool = spans.span("serve.pool_new", |_| {
        MultiGpu::with_fault_plans(
            &w.testbed,
            ExecMode::TimingOnly,
            w.seed,
            profile.clone(),
            &w.plans,
        )
    });
    let opts = w.knobs.options(obs);
    let mut session = spans
        .span("serve.session_new", |_| {
            ServeSession::with_options(pool, ExecutorConfig::default(), opts)
        })
        .expect("sessions without a telemetry stream file cannot fail");
    let requests = w.requests.clone();
    let t = HostTimer::start();
    let ids: Vec<RequestId> = match &w.arrivals {
        Some(times) => requests
            .into_iter()
            .zip(times)
            .map(|(req, &at)| spans.span("serve.submit_at", |_| session.submit_at(req, at)))
            .collect(),
        None => requests
            .into_iter()
            .map(|req| spans.span("serve.submit", |_| session.submit(req)))
            .collect(),
    };
    let report = spans.span("serve.drain", |_| session.drain());
    let host_s = t.secs();
    gate::no_leaked_buffers(&session, r);
    let mut devices = DeviceFacts::default();
    for dev in session.pool().devices() {
        devices.add(dev.gpu());
    }
    Drain {
        devices,
        report,
        ids,
        host_s,
    }
}

fn dgemm(a: &str, b: &str, n: usize, tile: TileChoice) -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new(a, n, n),
        SharedMat::new(b, n, n),
        MatOperand::HostGhost { rows: n, cols: n },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(tile)
    .into()
}

fn daxpy(x: &str, n: usize, tile: TileChoice) -> RoutineRequest {
    AxpyRequest::<f64>::new(SharedVec::new(x, n), VecOperand::HostGhost { len: n })
        .alpha(1.5)
        .tile(tile)
        .into()
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// A deep closed queue of single-tile requests: dgemm 512³ on shared A/B
/// and daxpy 65 536 on shared X, in seeded order, on 4 devices under
/// `Predictive`.
fn deep_predictive(seed: u64) -> Workload {
    let mut requests: Vec<RoutineRequest> = (0..DEEP_REQUESTS)
        .map(|i| {
            if i % 2 == 0 {
                dgemm("A", "B", 512, TileChoice::Fixed(512))
            } else {
                daxpy("X", 65_536, TileChoice::Fixed(65_536))
            }
        })
        .collect();
    shuffle(&mut requests, &mut Rng::new(seed, 1));
    Workload {
        testbed: testbed_i(),
        plans: vec![FaultSpec::none(); DEVICES],
        knobs: Knobs {
            policy: SchedulePolicy::Predictive,
            ..Knobs::default()
        },
        requests,
        arrivals: None,
        seed,
        notes: vec![format!(
            "closed queue of {DEEP_REQUESTS} single-tile requests on {DEVICES} devices, Predictive"
        )],
    }
}

/// Mixed open traffic over a Zipf-popular working set: dgemm 4096³ over
/// 64 shared 128 MiB matrices (8 GiB, above the 50 % residency budget of
/// a 12 GB K40), sgemm, daxpy, ddot and dgemv on shared operands. Arrival
/// instants are set later, once the pool's capacity is known.
fn open_mixed(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(64, 1.0);
    let v = 1usize << 22;
    let mut requests: Vec<RoutineRequest> = (0..OPEN_REQUESTS)
        .map(|i| {
            // Exact mix proportions; the seed picks keys and order.
            let u = i as f64 / OPEN_REQUESTS as f64;
            if u < 0.55 {
                let a = format!("M{}", zipf.sample(&mut rng));
                let b = format!("M{}", zipf.sample(&mut rng));
                dgemm(&a, &b, 4096, TileChoice::Auto)
            } else if u < 0.65 {
                GemmRequest::<f32>::new(
                    SharedMat::new("S0", 2048, 2048),
                    SharedMat::new("S1", 2048, 2048),
                    MatOperand::HostGhost {
                        rows: 2048,
                        cols: 2048,
                    },
                )
                .alpha(1.0)
                .beta(1.0)
                .tile(TileChoice::Auto)
                .into()
            } else if u < 0.8 {
                daxpy("X", v, TileChoice::Auto)
            } else if u < 0.9 {
                DotRequest::<f64>::new(SharedVec::new("X", v), SharedVec::new("Y", v))
                    .tile(TileChoice::Auto)
                    .into()
            } else {
                GemvRequest::<f64>::new(
                    SharedMat::new("G", 4096, 4096),
                    VecOperand::HostGhost { len: 4096 },
                    VecOperand::HostGhost { len: 4096 },
                )
                .alpha(1.0)
                .beta(1.0)
                .tile(TileChoice::Auto)
                .into()
            }
        })
        .collect();
    shuffle(&mut requests, &mut rng);
    Workload {
        testbed: testbed_i(),
        plans: vec![FaultSpec::none(); DEVICES],
        knobs: Knobs {
            policy: SchedulePolicy::Fifo,
            coalesce: true,
            prefetch: true,
            queue_cap: Some(512),
            telemetry: Some(TelemetryConfig {
                window: SimTime::from_secs_f64(0.1),
                ..TelemetryConfig::default()
            }),
            ..Knobs::default()
        },
        requests,
        arrivals: None,
        seed,
        notes: Vec::new(),
    }
}

/// A closed queue of shared-operand dgemm under Predictive with every
/// defense armed. Device 0's link runs at 5 % across the whole horizon
/// (back-to-back half-second degrade windows); device 1 takes seeded
/// transient h2d and kernel faults.
fn straggler(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 3);
    let mut plans = vec![FaultSpec::none(); DEVICES];
    plans[0] = FaultSpec {
        seed,
        degrade: (0..600)
            .map(|i| DegradeWindow {
                start_s: i as f64 * 0.5 + 1e-4,
                end_s: (i + 1) as f64 * 0.5,
                factor: 0.05,
            })
            .collect(),
        ..FaultSpec::none()
    };
    plans[1] = FaultSpec {
        seed: seed ^ 0xFA17,
        h2d: 0.15,
        kernel: 0.15,
        ..FaultSpec::none()
    };
    let requests = (0..STRAGGLER_REQUESTS)
        .map(|_| {
            let a = format!("A{}", rng.next_u64() % 4);
            dgemm(&a, "B", 2048, TileChoice::Fixed(1024))
        })
        .collect();
    Workload {
        testbed: testbed_i(),
        plans,
        knobs: Knobs {
            policy: SchedulePolicy::Predictive,
            hedge: Some(HedgeConfig::default()),
            probation: Some(ProbationConfig {
                seed,
                ..ProbationConfig::default()
            }),
            retry_budget: Some(RetryBudgetConfig::default()),
            ..Knobs::default()
        },
        requests,
        arrivals: None,
        seed,
        notes: vec![format!(
            "closed queue of {STRAGGLER_REQUESTS} dgemm 2048^3 on {DEVICES} devices, Predictive + hedge + probation + retry budget; dev0 link at 5%, dev1 transient faults"
        )],
    }
}

/// One set-up: deploy the paper profile, then build the pool and the
/// session. Returns the profile, or `None` when either step failed.
fn set_up(w: &Workload, spans: &mut HostSpans, deploy_ms: &mut Vec<f64>) -> Option<SystemProfile> {
    let t = HostTimer::start();
    let deployed = spans.span("deploy.deploy", |_| {
        deploy(&w.testbed, &DeployConfig::paper())
    });
    deploy_ms.push(t.secs() * 1e3);
    let profile = deployed.ok()?.profile;
    let pool = spans.span("serve.pool_new", |_| {
        MultiGpu::with_fault_plans(
            &w.testbed,
            ExecMode::TimingOnly,
            w.seed,
            profile.clone(),
            &w.plans,
        )
    });
    spans
        .span("serve.session_new", |_| {
            ServeSession::with_options(
                pool,
                ExecutorConfig::default(),
                w.knobs.options(Obs::Workload),
            )
        })
        .ok()?;
    Some(profile)
}

/// The sequential no-reuse replay of a workload.
struct Replay {
    /// Virtual seconds of all calls back to back.
    virt_s: f64,
    /// Host seconds of each call, in request order.
    host_s: Vec<f64>,
    /// Engine ops the replay device executed.
    ops: usize,
}

/// Replays every request, shared operands stripped, each on a fresh
/// device whose selection cache is warmed first: the no-reuse baseline a
/// client gets by calling the library once per request, and the routine
/// cost a drain pays besides dispatch.
fn replay(w: &Workload, profile: &SystemProfile, spans: &mut HostSpans) -> Replay {
    let (mut virt, mut ops) = (0.0, 0);
    let mut host = Vec::with_capacity(w.requests.len());
    for (i, req) in w.requests.iter().enumerate() {
        let req = req.clone().without_sharing();
        let gpu = Gpu::new(
            w.testbed.clone(),
            ExecMode::TimingOnly,
            w.seed.wrapping_add(i as u64),
        );
        let mut seq = Cocopelia::new(gpu, profile.clone());
        if let TileChoice::Auto = req.tile_choice() {
            let spec = req.problem_spec();
            let _ = seq.select_tile(&spec, ModelKind::recommended_for(spec.routine));
        }
        let t = HostTimer::start();
        let out = spans.span("runtime.run", |_| seq.submit(req));
        host.push(t.secs());
        if let Ok(rep) = out {
            virt += rep.elapsed.as_secs_f64();
        }
        ops += seq.gpu().trace().len();
    }
    Replay {
        virt_s: virt,
        host_s: host,
        ops,
    }
}

/// Virtual flow times in ms of the served requests of a traced drain:
/// from submission (closed queue) or scheduled arrival (open loop) to the
/// terminal state.
fn flows_ms(report: &ServeReport) -> Vec<f64> {
    let Some(trace) = &report.trace else {
        return Vec::new();
    };
    let mut submit: HashMap<u64, u64> = HashMap::new();
    let mut done: HashMap<u64, u64> = HashMap::new();
    for s in &trace.spans {
        match s.phase {
            SpanPhase::Submit => {
                submit.entry(s.request).or_insert(s.start_ns);
            }
            SpanPhase::Complete => {
                done.insert(s.request, s.start_ns);
            }
            _ => {}
        }
    }
    report
        .outcomes
        .iter()
        .filter(|o| o.executed_report().is_some())
        .filter_map(|o| {
            let (s, d) = (submit.get(&o.id.0)?, done.get(&o.id.0)?);
            Some(d.saturating_sub(*s) as f64 * 1e-6)
        })
        .collect()
}

/// Runs a serving workload.
pub fn run(cfg: &Config, name: &str) -> Report {
    let mut r = Report::default();
    let mut spans = HostSpans::new(cfg.trace);
    let mut w = match name {
        "serve_deep_predictive" => deep_predictive(cfg.seed),
        "serve_open_mixed" => open_mixed(cfg.seed),
        _ => straggler(cfg.seed),
    };

    // Set-up: deploy the paper profile and build pool and session. It is
    // repeated before and between the measured drains, so its samples span
    // the run.
    let mut setup = SetUp::default();
    let Some(profile) = setup.repeat(&mut spans, |s, ms| set_up(&w, s, ms)) else {
        r.check(false, || {
            "deployment or session construction failed".to_owned()
        });
        return r;
    };

    gate::functional_spot_checks(&w.testbed, &profile, &mut r);
    gate::sgemm_moves_half_the_bytes(&w.testbed, &profile, &mut r);

    // The no-reuse replay: virt_speedup's baseline, the open loop's
    // capacity estimate, and the replay half of the dispatch estimate.
    let seq = replay(&w, &profile, &mut spans);
    if name == "serve_open_mixed" {
        let rate = OPEN_LOAD * DEVICES as f64 * w.requests.len() as f64 / seq.virt_s;
        w.arrivals = Some(ArrivalSpec::poisson(rate, cfg.seed).times(w.requests.len()));
        w.notes.push(format!(
            "open loop: {OPEN_REQUESTS} Poisson arrivals at {rate:.1}/s = {OPEN_LOAD} x {DEVICES} devices' no-reuse capacity; generator lateness 0 by construction (virtual-time arrivals)"
        ));
    }
    r.notes.append(&mut w.notes);

    // Measured phase. Drain 0 warms the process up and is not timed; then
    // untraced drains and, when tracing, benchmark-traced drains and (with
    // telemetry) telemetry-off drains take turns. Every drain must equal
    // drain 0 in virtual time, so only the latest is kept.
    let mut kinds = vec![(Obs::Workload, false)];
    if cfg.trace {
        kinds.push((Obs::Workload, true));
        if w.knobs.telemetry.is_some() {
            kinds.push((Obs::Off, false));
        }
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut measured_fp = String::new();
    let mut last: Option<Drain> = None;
    for i in 0usize.. {
        let k = i.saturating_sub(1) % kinds.len();
        let (obs, traced) = kinds[k];
        spans.set_on(i > 0 && traced);
        if i > 0 {
            setup.repeat(&mut spans, |s, ms| set_up(&w, s, ms));
        }
        if obs == Obs::Workload {
            last = None;
        }
        let d = drain(&w, &profile, obs, &mut spans, &mut r);
        spans.set_on(false);
        let fp = gate::fingerprint(&d.report);
        if i == 0 {
            measured_fp = fp;
        } else {
            host[k].push(d.host_s);
            r.check(fp == measured_fp, || {
                format!("drain {i} ({obs:?}) differs in virtual time from drain 0")
            });
        }
        if obs == Obs::Workload {
            r.attempted += d.ids.len() as u64;
            r.failed += (d.report.rejected() + d.report.timed_out() + d.report.failed()) as u64;
            last = Some(d);
        }
        if Instant::now() >= deadline && host.iter().all(|h| !h.is_empty()) {
            break;
        }
    }
    let measured = last.expect("at least one drain ran");
    // The workload's memory: the gate's extra drains below come after.
    let peak_rss = crate::stats::peak_rss_mib();

    // The traced drain gives the flow times; it must match the measured
    // drain exactly in virtual time, as must a drain with nothing armed.
    let traced = drain(
        &w,
        &profile,
        Obs::Tracing,
        &mut HostSpans::new(false),
        &mut r,
    );
    r.check(gate::fingerprint(&traced.report) == measured_fp, || {
        "traced drain differs in virtual time from the measured drain".to_owned()
    });
    if w.knobs.telemetry.is_some() && !cfg.trace {
        let plain = drain(&w, &profile, Obs::Off, &mut HostSpans::new(false), &mut r);
        r.check(gate::fingerprint(&plain.report) == measured_fp, || {
            "telemetry-off drain differs in virtual time from the telemetry drain".to_owned()
        });
    }
    let rep = &measured.report;
    gate::one_outcome_per_request(rep, &measured.ids, &mut r);
    gate::flops_conserved(rep, &w.requests, &measured.ids, &mut r);
    spans.set_on(cfg.trace);
    let t = Instant::now();
    let span_check = spans.span("obs.check_spans", |_| {
        traced.report.trace.as_ref().map(|t| check_spans(&t.spans))
    });
    let check_ms = t.elapsed().as_secs_f64() * 1e3;
    r.check(matches!(span_check, Some(Ok(()))), || {
        format!("check_spans on the traced drain: {span_check:?}")
    });

    let submitted = measured.ids.len();
    let flows = flows_ms(&traced.report);
    let bad = rep.rejected() + rep.timed_out() + rep.failed();
    r.notes.push(format!(
        "outcomes of {submitted}: completed {} (host fallback {}, coalesced {}), rejected {}, timed out {}, failed {}",
        rep.completed(),
        rep.host_fallbacks(),
        rep.coalesced(),
        rep.rejected(),
        rep.timed_out(),
        rep.failed()
    ));
    let rates: Vec<f64> = host[0].iter().map(|h| submitted as f64 / h).collect();
    let host_rate = median(&rates);
    let host_basis = format!(
        "{submitted} requests submit-through-drain, median of {} drains",
        rates.len()
    );
    r.notes.push(crate::host_rate_note(host_rate, &host_basis));
    let e = &mut r.end_to_end;
    setup.report_setup(e, "paper deploy + pool + session");
    e.add(
        "peak_rss_mb",
        peak_rss,
        "MiB",
        "VmHWM after the measured phase",
    );
    e.add(
        "virt_makespan_ms",
        rep.makespan.as_secs_f64() * 1e3,
        "ms",
        "pool makespan",
    );
    e.add(
        "virt_gflops",
        rep.throughput_gflops(),
        "GFLOP/s",
        "device flops / makespan",
    );
    let n = flows.len();
    e.add(
        "virt_flow_p50_ms",
        percentile(&flows, 0.5),
        "ms",
        format!("n={n}"),
    );
    e.add(
        "virt_flow_p99_ms",
        percentile(&flows, 0.99),
        "ms",
        format!("n={n}"),
    );
    e.add(
        "virt_speedup",
        ratio(seq.virt_s, rep.makespan.as_secs_f64()),
        "x",
        "sequential no-reuse replay / makespan",
    );
    e.add(
        "ok_frac",
        ratio((submitted - bad) as f64, submitted as f64),
        "ratio",
        format!(
            "fail_frac {:.6} = {bad} rejected/timed-out/failed of {submitted} submitted",
            ratio(bad as f64, submitted as f64)
        ),
    );

    if cfg.trace {
        let facts = ServeFacts {
            w: &w,
            profile: &profile,
            measured: &measured,
            traced: &traced.report,
            setup: &setup,
            host: &host,
            seq: &seq,
            check_ms,
        };
        r.per_layer = layer_metrics(&facts, &mut r.notes, &mut spans);
        r.per_layer
            .add("host.req_per_s", host_rate, "1/s", host_basis);
        crate::write_spans(cfg, &spans);
    }
    r
}

/// What the per-layer analysis reads from a serving run.
struct ServeFacts<'a> {
    w: &'a Workload,
    profile: &'a SystemProfile,
    measured: &'a Drain,
    traced: &'a ServeReport,
    setup: &'a SetUp,
    /// Host seconds per drain kind: untraced, traced, telemetry off.
    host: &'a [Vec<f64>],
    seq: &'a Replay,
    check_ms: f64,
}

fn layer_metrics(f: &ServeFacts<'_>, notes: &mut Vec<String>, spans: &mut HostSpans) -> Metrics {
    let mut m = Metrics::default();
    let rep = &f.measured.report;
    let reg = &rep.metrics;
    let submitted = f.measured.ids.len() as f64;
    let drain_s = median(&f.host[0]);

    f.setup.report_deploy(&mut m);
    let mut overheads = Overheads::default();
    let problems: Vec<_> =
        f.w.requests
            .iter()
            .take(256)
            .map(|req| (req.problem_spec(), req.tile_choice()))
            .collect();
    overheads.measure(&f.w.testbed, f.profile, &problems, spans);
    overheads.report(&mut m, notes);
    let errs_ms: Vec<f64> = rep
        .drift
        .records()
        .iter()
        .map(|d| (d.predicted_secs - d.actual_secs).abs() * 1e3)
        .collect();
    m.add(
        "core.sched_err_p50_ms",
        percentile(&errs_ms, 0.5),
        "ms",
        format!("|predicted - actual| per dispatch, n={}", errs_ms.len()),
    );
    m.add(
        "core.sched_err_p99_ms",
        percentile(&errs_ms, 0.99),
        "ms",
        format!("n={}", errs_ms.len()),
    );

    // Scheduler: the executed attempts' routine reports.
    let executed: Vec<_> = rep
        .outcomes
        .iter()
        .filter(|o| !o.coalesced && !o.host_fallback)
        .filter_map(|o| o.executed_report().map(|r| (o.id, r)))
        .collect();
    let hits: u64 = executed.iter().map(|(_, r)| r.tile_hits).sum();
    let fetches = hits + executed.iter().map(|(_, r)| r.tile_misses).sum::<u64>();
    let busy: u64 = executed.iter().map(|(_, r)| r.overlap.sum_busy_ns()).sum();
    let union: u64 = executed.iter().map(|(_, r)| r.overlap.union_busy_ns).sum();
    let calls = executed.len() as f64;
    m.add(
        "scheduler.calls",
        calls,
        "count",
        "executed requests per drain",
    );
    m.add(
        "scheduler.subkernels",
        executed.iter().map(|(_, r)| r.subkernels).sum::<usize>() as f64,
        "count",
        "per drain",
    );
    let seq_host: f64 = f.seq.host_s.iter().sum();
    m.add(
        "scheduler.host_us_per_call",
        ratio(seq_host * 1e6, f.seq.host_s.len() as f64),
        "us",
        format!("sequential replay, n={} calls", f.seq.host_s.len()),
    );
    m.add(
        "scheduler.overlap_eff",
        ratio(busy as f64, union as f64),
        "ratio",
        format!(
            "engine busy / union busy over {} executions",
            executed.len()
        ),
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
        "per drain",
    );
    m.add(
        "scheduler.op_retries",
        executed.iter().map(|(_, r)| r.op_retries).sum::<u64>() as f64,
        "count",
        "tile-level retries per drain",
    );

    // Simulator: the pool devices' traces and fault counters.
    let dev = &f.measured.devices;
    m.add("gpusim.engine_ops", dev.ops as f64, "count", "per drain");
    m.add(
        "gpusim.host_ns_per_op",
        ratio(seq_host * 1e9, f.seq.ops as f64),
        "ns",
        format!(
            "sequential replay (scheduler + simulator), {} ops",
            f.seq.ops
        ),
    );
    m.add(
        "gpusim.h2d_bytes",
        dev.h2d_bytes as f64,
        "B",
        "computed from the device traces",
    );
    m.add(
        "gpusim.d2h_bytes",
        dev.d2h_bytes as f64,
        "B",
        "computed from the device traces",
    );
    for (name, ns) in [
        "gpusim.h2d_busy_ms",
        "gpusim.exec_busy_ms",
        "gpusim.d2h_busy_ms",
    ]
    .into_iter()
    .zip(dev.busy_ns)
    {
        m.add(name, ns as f64 * 1e-6, "ms", "summed over devices");
    }
    m.add(
        "gpusim.ops_retained",
        dev.ops as f64,
        "count",
        "trace entries held after the drain",
    );
    m.add(
        "gpusim.faults_injected",
        dev.faults as f64,
        "count",
        "per drain",
    );

    // Serving: report and registry counts.
    let replay_s: f64 = executed
        .iter()
        .filter_map(|(id, _)| f.measured.ids.iter().position(|x| x == id))
        .map(|i| f.seq.host_s[i])
        .sum();
    let lookups = reg.counter("residency_hits_total") + reg.counter("residency_misses_total");
    let prefetches = reg.counter("prefetch_issued_total");
    let hedges = reg.counter("hedge_attempts_total");
    m.add("serve.submitted", submitted, "count", "requests per drain");
    m.add(
        "serve.host_us_per_req",
        ratio(drain_s * 1e6, submitted),
        "us",
        format!("median of {} drains", f.host[0].len()),
    );
    m.add(
        "serve.dispatch_self_us_per_req",
        ratio((drain_s - replay_s) * 1e6, submitted),
        "us",
        "estimate: drain time minus a fresh single-device replay of each executed request",
    );
    m.add(
        "serve.queue_depth_peak",
        rep.peak_queue_depth as f64,
        "count",
        "",
    );
    m.add(
        "serve.occupancy",
        rep.occupancy(),
        "ratio",
        "mean device busy / makespan",
    );
    m.add(
        "serve.residency_lookups",
        lookups as f64,
        "count",
        "hits + misses",
    );
    m.add(
        "serve.residency_hit_rate",
        ratio(reg.counter("residency_hits_total") as f64, lookups as f64),
        "ratio",
        format!("of {lookups} lookups"),
    );
    m.add(
        "serve.residency_evictions",
        reg.counter("residency_evictions_total") as f64,
        "count",
        "",
    );
    m.add(
        "serve.residency_bytes_uploaded",
        reg.counter("residency_bytes_uploaded") as f64,
        "B",
        "",
    );
    m.add("serve.prefetch_issued", prefetches as f64, "count", "");
    m.add(
        "serve.prefetch_useful_frac",
        ratio(reg.counter("prefetch_hits_total") as f64, prefetches as f64),
        "ratio",
        format!(
            "{} hits of {prefetches} issued",
            reg.counter("prefetch_hits_total")
        ),
    );
    m.add(
        "serve.prefetch_bytes",
        reg.counter("prefetch_bytes_total") as f64,
        "B",
        "",
    );
    m.add("serve.coalesced", rep.coalesced() as f64, "count", "");
    m.add("serve.shed", rep.rejected() as f64, "count", "");
    m.add("serve.hedges", hedges as f64, "count", "");
    m.add(
        "serve.hedge_win_frac",
        ratio(reg.counter("hedge_wins_total") as f64, hedges as f64),
        "ratio",
        format!(
            "{} wins of {hedges} hedges",
            reg.counter("hedge_wins_total")
        ),
    );
    m.add(
        "serve.retries",
        reg.counter("serve_retries_total") as f64,
        "count",
        "request-level retries",
    );
    m.add(
        "serve.quarantines",
        reg.counter("quarantine_devices_total") as f64,
        "count",
        "",
    );
    m.add(
        "serve.probes",
        reg.counter("probe_attempts_total") as f64,
        "count",
        "",
    );
    m.add(
        "serve.host_fallbacks",
        rep.host_fallbacks() as f64,
        "count",
        "",
    );

    // Observability: span and window counts, exporter costs.
    let trace = f.traced.trace.as_ref();
    m.add(
        "obs.spans",
        trace.map_or(0, |t| t.spans.len()) as f64,
        "count",
        "uncapped traced drain",
    );
    m.add(
        "obs.spans_dropped",
        rep.trace_dropped as f64,
        "count",
        "measured drain's span cap",
    );
    m.add(
        "obs.windows",
        rep.telemetry.as_ref().map_or(0, |t| t.windows.len()) as f64,
        "count",
        "telemetry windows",
    );
    if f.host.len() > 2 {
        m.add(
            "obs.telemetry_overhead_frac",
            median(&f.host[0]) / median(&f.host[2]) - 1.0,
            "ratio",
            format!(
                "median drain with telemetry ({}) vs without ({}); virtual difference 0",
                f.host[0].len(),
                f.host[2].len()
            ),
        );
    }
    if let Some(t) = trace {
        let start = Instant::now();
        let bytes = spans.span("obs.to_perfetto", |_| to_perfetto(t));
        m.add(
            "obs.perfetto_export_ms",
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
            format!("{} spans", t.spans.len()),
        );
        m.add("obs.perfetto_bytes", bytes.len() as f64, "B", "");
    }
    m.add("obs.check_spans_ms", f.check_ms, "ms", "traced drain");
    let start = Instant::now();
    let prom = spans.span("obs.render_prom", |_| render_prom(reg));
    m.add(
        "obs.prom_render_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
        format!("{} bytes", prom.len()),
    );
    m.add(
        "bench.trace_overhead_frac",
        median(&f.host[1]) / median(&f.host[0]) - 1.0,
        "ratio",
        "median benchmark-traced drain vs untraced",
    );
    m.add(
        "bench.traced_runs",
        f.host[1].len() as f64,
        "count",
        "traced drains",
    );
    m.add(
        "bench.untraced_runs",
        f.host[0].len() as f64,
        "count",
        "untraced drains",
    );
    m
}
