//! Instruction-count-style microbenches for the simulator's enqueue/sync
//! loop, a full paper deployment, and the serving hot paths: the scheduler's dispatch decision, the open-arrival event loop (arrival
//! admission interleaved with dispatch), the residency-cache admission
//! probe,
//! the span-record / Perfetto-export trace path, the streaming
//! telemetry primitives (window rotation, flight-recorder ring record),
//! and the per-dispatch decision points (adaptive hedge threshold,
//! canary-probe due scan).
//!
//! The serving benches drive the public `ServeSession` API only: each
//! times a small drain shaped so that its hot path dominates.
//!
//! Uses the `iai_callgrind` harness (vendored wall-clock stand-in; the
//! registry version counts instructions under callgrind). Each function
//! is self-contained — setup inside, hot loop sized to dominate it — apart
//! from the deployed profile, which is built once per process.

use std::sync::{Once, OnceLock};
use std::time::Instant;

use iai_callgrind::{black_box, main};

use cocopelia_baselines::cublasxt;
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{
    testbed_i, EngineKind, ExecMode, FaultSpec, Gpu, KernelShape, NoiseSpec, SimTime, TestbedSpec,
    TraceEntry,
};
use cocopelia_hostblas::Dtype;
use cocopelia_obs::{DeviceLane, FlightDump, ServeTrace, SpanLog, SpanPhase, TelemetryWindow};
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, ProbationConfig, SchedulePolicy, ServeOptions, ServeSession,
};
use cocopelia_runtime::{GemmRequest, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice};
use cocopelia_xp::straggler_fault_plans;

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "micro",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

/// A deployed profile of the quiet testbed, so placement and hedging
/// have offload predictions to work with.
fn deployed_profile() -> SystemProfile {
    static PROFILE: OnceLock<SystemProfile> = OnceLock::new();
    PROFILE
        .get_or_init(|| {
            deploy(&quiet(), &DeployConfig::quick())
                .expect("deploy")
                .profile
        })
        .clone()
}

fn gemm_on(a: &str, b: &str) -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new(a, 1024, 1024),
        SharedMat::new(b, 1024, 1024),
        MatOperand::HostGhost {
            rows: 1024,
            cols: 1024,
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
    .into()
}

fn shared_gemm() -> RoutineRequest {
    gemm_on("A", "B")
}

fn quiet_session(devices: usize) -> ServeSession {
    let pool = MultiGpu::new(&quiet(), devices, ExecMode::TimingOnly, 42, dummy_profile());
    ServeSession::new(pool, ExecutorConfig::default())
}

/// A session over `plans.len()` devices with the deployed profile.
fn deployed_session(plans: &[FaultSpec], opts: ServeOptions) -> ServeSession {
    let pool = MultiGpu::with_fault_plans(
        &quiet(),
        ExecMode::TimingOnly,
        42,
        deployed_profile(),
        plans,
    );
    ServeSession::with_options(pool, ExecutorConfig::default(), opts).expect("session")
}

/// The simulator's enqueue + synchronize loop on its own: a timing-only
/// cuBLASXt dgemm 8192³ at T=512 on a fresh device is 16³ sub-kernels of
/// five engine ops each (three fetches, the kernel, the write-back), plus
/// the event records and waits that order them. Prints host ns per engine
/// op once; the harness's best-of line divided by the same op count is the
/// warm figure.
#[inline(never)]
fn sim_enqueue_sync() {
    const N: usize = 8192;
    const ENGINE_OPS: usize = 5 * 16 * 16 * 16;
    static PRINT: Once = Once::new();
    let ghost = || MatOperand::<f64>::HostGhost { rows: N, cols: N };
    let mut gpu = Gpu::new(quiet(), ExecMode::TimingOnly, 42);
    let t = Instant::now();
    let out = cublasxt::gemm(&mut gpu, 1.0, ghost(), ghost(), 1.0, ghost(), 512).expect("gemm");
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(gpu.trace().len(), ENGINE_OPS, "every engine op traced");
    PRINT.call_once(|| {
        println!(
            "sim_enqueue_sync: {ENGINE_OPS} engine ops, {:.0} ns/op host (first run)",
            ns / ENGINE_OPS as f64
        );
    });
    black_box(out);
}

/// A full paper deployment (`DeployConfig::paper()`) on Testbed I: the
/// transfer micro-benchmark sweeps, whose CI-driven sampling runs every
/// sample on a fresh stream (≥ 961 streams per sweep device), and the
/// kernel exec tables of all five routine/precision pairs. Prints host ms
/// per deploy once; the harness's best-of line is the warm figure.
#[inline(never)]
fn deploy_paper() {
    static PRINT: Once = Once::new();
    let cfg = DeployConfig::paper();
    let t = Instant::now();
    let report = deploy(&testbed_i(), &cfg).expect("deploy");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    for &(routine, dtype) in &cfg.routines {
        assert!(
            report.profile.exec_table(routine, dtype).is_some(),
            "{} exec table deployed",
            routine.name(dtype)
        );
    }
    assert_eq!(report.profile.exec.len(), 5, "five routine/precision pairs");
    PRINT.call_once(|| {
        println!("deploy_paper: {ms:.3} ms per deploy (first run)");
    });
    black_box(report);
}

/// The scheduler's per-request decision under `Predictive`: every
/// dispatch prices each queued request × device pair with the model, so
/// a 64-deep closed queue over 4 devices is dominated by pricing.
#[inline(never)]
fn next_dispatch() {
    let mut session = deployed_session(
        &[
            FaultSpec::none(),
            FaultSpec::none(),
            FaultSpec::none(),
            FaultSpec::none(),
        ],
        ServeOptions::new().policy(SchedulePolicy::Predictive),
    );
    for i in 0..64 {
        session.submit(gemm_on(&format!("A{}", i % 8), "B"));
    }
    black_box(session.drain());
}

/// The open-arrival event loop: `next_event` admitting scheduled
/// arrivals interleaved with dispatch pulls, the hot path of a
/// `ServeSession::drain` under a live arrival stream.
#[inline(never)]
fn next_event() {
    let mut session = quiet_session(4);
    for i in 0..64u64 {
        session.submit_at(shared_gemm(), SimTime::from_nanos(i * 1_000));
    }
    black_box(session.drain());
}

/// The admission probe against a residency cache populated by a real
/// shared-operand run: `fits` plus the buffer enumeration.
#[inline(never)]
fn residency_probe() {
    let mut exec = quiet_session(2);
    for _ in 0..4 {
        exec.submit(shared_gemm());
    }
    exec.drain();
    let cache = exec.residency(0);
    for i in 0..200_000usize {
        black_box(cache.fits(i & 0xFFFF));
    }
    black_box(cache.device_buffers());
    black_box(cache.used_bytes());
}

/// The span-record hot path: what the executor pays per traced request.
#[inline(never)]
fn span_record() {
    let mut log = SpanLog::default();
    for i in 0..10_000u64 {
        let parent = log.record(
            None,
            i,
            Some((i % 4) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 100,
            i * 100 + 80,
            Some(i),
        );
        log.record(
            Some(parent),
            i,
            Some((i % 4) as usize),
            SpanPhase::Exec,
            "exec",
            i * 100 + 10,
            i * 100 + 70,
            None,
        );
    }
    black_box(log.len());
}

/// The Perfetto protobuf encode of a serve trace with engine lanes.
#[inline(never)]
fn perfetto_export() {
    let mut log = SpanLog::default();
    let mut entries = Vec::new();
    for i in 0..1_000u64 {
        log.record(
            None,
            i,
            Some((i % 2) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 200,
            i * 200 + 150,
            Some(i),
        );
        entries.push(
            TraceEntry::new(
                i as usize,
                cocopelia_gpusim::StreamId::from_raw(0),
                EngineKind::Compute,
                SimTime::from_nanos(i * 200),
                SimTime::from_nanos(i * 200 + 150),
            )
            .with_kernel(KernelShape::Gemm {
                dtype: Dtype::F64,
                m: 512,
                n: 512,
                k: 512,
            }),
        );
    }
    let trace = ServeTrace {
        spans: log.into_spans(),
        lanes: vec![DeviceLane {
            device: 0,
            name: "dev0".to_owned(),
            entries: entries.into(),
        }],
    };
    black_box(cocopelia_obs::perfetto::to_perfetto(black_box(&trace)));
}

/// The telemetry tick's window path: per-outcome counter/histogram lands
/// plus clock-driven rotation across many windows.
#[inline(never)]
fn window_rotate() {
    let bounds = [1e-4, 1e-3, 1e-2, 0.1, 1.0];
    let mut win = TelemetryWindow::new(1_000, &bounds);
    let mut closed = 0usize;
    for i in 0..50_000u64 {
        win.finished += 1;
        win.set_gauges((i % 64) as usize, 0, 0.0);
        win.flow.observe((i % 97) as f64 * 1e-4);
        // One rotation every ~250 observations.
        while win.due(i * 4).is_some() {
            closed += 1;
            win.roll();
        }
    }
    black_box(closed);
    black_box(win.index);
}

/// The hedge decision every successful attempt pays when hedging is
/// armed — the adaptive threshold (p95 over the drift accountant's error
/// records) against the attempt's clock advance — plus the races it
/// launches: device 0's link is degraded, so its attempts overrun and
/// hedge onto device 1.
#[inline(never)]
fn hedge_decision() {
    let mut session = deployed_session(
        &straggler_fault_plans(2, 11, 0.01),
        ServeOptions::new().hedge(HedgeConfig::default()),
    );
    for i in 0..16 {
        session.submit(gemm_on(&format!("A{}", i % 4), "B"));
    }
    let report = black_box(session.drain());
    assert!(report.metrics.counter("hedge_attempts_total") > 0);
}

/// Probe scheduling under a wide quarantine: three of four devices are
/// drained operationally with probation armed, so every event-loop
/// iteration scans the canary schedule and probes run as they come due.
#[inline(never)]
fn probe_schedule() {
    let pool = MultiGpu::new(&quiet(), 4, ExecMode::TimingOnly, 42, dummy_profile());
    let opts = ServeOptions::new().probation(ProbationConfig {
        backoff: SimTime::from_secs_f64(1e-3),
        ..ProbationConfig::default()
    });
    let mut session =
        ServeSession::with_options(pool, ExecutorConfig::default(), opts).expect("session");
    for d in 0..3 {
        session.force_quarantine(d);
    }
    for _ in 0..32 {
        session.submit(shared_gemm());
    }
    let report = black_box(session.drain());
    assert!(report.metrics.counter("probe_attempts_total") > 0);
}

/// The capped span log's record + dump path: 64k spans recorded under a
/// 256-span cap (amortized enforcement after every record, as the
/// telemetry tick does), with a flight dump of the log's tail every 4096
/// spans.
#[inline(never)]
fn ring_record() {
    const CAP: usize = 256;
    let mut log = SpanLog::default();
    let mut dumped = 0usize;
    for i in 0..65_536u64 {
        log.record(
            None,
            i,
            Some((i % 4) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 100,
            i * 100 + 80,
            None,
        );
        log.enforce_cap_amortized(CAP);
        if i % 4_096 == 4_095 {
            dumped += FlightDump::capture(&log, CAP, "bench", 0, i * 100)
                .spans
                .len();
        }
    }
    black_box(dumped);
    black_box(log.dropped());
}

main!(
    callgrind_args = "--simulate-wb=no", "--simulate-hwpref=yes",
        "--I1=32768,8,64", "--D1=32768,8,64", "--LL=8388608,16,64";
    functions = sim_enqueue_sync, deploy_paper, next_dispatch, next_event, residency_probe, span_record, perfetto_export,
        window_rotate, ring_record, hedge_decision, probe_schedule
);
