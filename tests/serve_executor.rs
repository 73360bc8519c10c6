//! The request-serving executor end to end: admission control, deadlines,
//! cross-request residency reuse, transient-failure retry, multi-device
//! affinity dispatch — and the acceptance bar that serving a mixed trace
//! with sharing strictly beats a sequential no-reuse replay.

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_core::{ExecTable, RoutineClass};
use cocopelia_gpusim::{testbed_i, EngineKind, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::Dtype;
use cocopelia_obs::{check_spans, SpanPhase};
use cocopelia_runtime::serve::{
    ExecutorConfig, RequestStatus, ServeOptions, ServeReport, ServeSession, TelemetryConfig,
};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, MultiGpu,
    RoutineRequest, RuntimeError, SharedMat, SharedVec, TileChoice, VecOperand,
};

/// A quiet testbed with device memory clamped to `mem` bytes, so the
/// admission/OOM paths are reachable with small problems.
fn small_tb(mem: usize) -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb.gpu.mem_capacity_bytes = mem;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "serve-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn pool(tb: &TestbedSpec, devices: usize) -> MultiGpu {
    MultiGpu::new(tb, devices, ExecMode::TimingOnly, 42, dummy_profile())
}

const MB: usize = 1 << 20;

fn ghost(rows: usize, cols: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows, cols }
}

/// A 1024³ dgemm (8 MB per operand) sharing `A`/`B` via the cache.
fn shared_gemm() -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new("A", 1024, 1024),
        SharedMat::new("B", 1024, 1024),
        ghost(1024, 1024),
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
    .into()
}

/// The standard mixed 8-request trace used by the acceptance test:
/// 4 gemms sharing `A`/`B`, 2 axpys and a dot sharing `X`, and a gemv
/// reusing `A`.
fn mixed_trace() -> Vec<RoutineRequest> {
    let n = 1 << 20; // 8 MB vectors
    let x = || SharedVec::new("X", n);
    vec![
        shared_gemm(),
        shared_gemm(),
        shared_gemm(),
        shared_gemm(),
        AxpyRequest::<f64>::new(x(), VecOperand::HostGhost { len: n })
            .alpha(1.5)
            .tile(TileChoice::Fixed(1 << 19))
            .into(),
        AxpyRequest::<f64>::new(x(), VecOperand::HostGhost { len: n })
            .alpha(-0.5)
            .tile(TileChoice::Fixed(1 << 19))
            .into(),
        DotRequest::<f64>::new(x(), SharedVec::new("Y", n))
            .tile(TileChoice::Fixed(1 << 19))
            .into(),
        GemvRequest::<f64>::new(
            SharedMat::new("A", 1024, 1024),
            VecOperand::HostGhost { len: 1024 },
            VecOperand::HostGhost { len: 1024 },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .into(),
    ]
}

#[test]
fn admission_control_rejects_oversized_requests() {
    // 64 MB device, 0.9 admission limit: a 2048^3 dgemm (96 MB) is refused
    // at submission; a 1024^3 (24 MB) is admitted and served.
    let mut exec = ServeSession::new(pool(&small_tb(64 * MB), 1), ExecutorConfig::default());
    let big = GemmRequest::<f64>::new(ghost(2048, 2048), ghost(2048, 2048), ghost(2048, 2048))
        .tile(TileChoice::Fixed(512));
    let rejected_id = exec.submit(big);
    let admitted_id = exec.submit(shared_gemm());
    assert_eq!(exec.queue_len(), 1, "the rejected request never queues");
    let report = exec.drain();
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(report.rejected(), 1);
    assert_eq!(report.completed(), 1);
    let rejected = &report.outcomes[0];
    assert_eq!(rejected.id, rejected_id);
    assert_eq!(rejected.device, None);
    // The refusal names the limit it applied: 90% of the device.
    let RequestStatus::Rejected { reason } = &rejected.status else {
        panic!("a 96 MB request on a 64 MB device is refused: {rejected:?}");
    };
    assert_eq!(
        *reason,
        format!(
            "footprint {} B exceeds admission limit {} B (90% of device memory)",
            3 * 2048 * 2048 * 8,
            64 * MB * 9 / 10
        )
    );
    assert_eq!(report.outcomes[1].id, admitted_id);
    assert_eq!(report.metrics.counter("serve_requests_total"), 2);
    assert_eq!(report.metrics.counter("serve_rejected_total"), 1);
}

#[test]
fn closed_queue_rejections_reach_tracing_and_telemetry() {
    // A closed-queue submission refused at admission settles when the
    // next drain starts, like a shed arrival: a submit and a reject span
    // at the drain start, and one count in a window's `rejected`.
    let opts = ServeOptions::new()
        .tracing()
        .telemetry(TelemetryConfig::default());
    let mut exec =
        ServeSession::with_options(pool(&small_tb(64 * MB), 1), ExecutorConfig::default(), opts)
            .expect("session");
    let big = GemmRequest::<f64>::new(ghost(2048, 2048), ghost(2048, 2048), ghost(2048, 2048))
        .tile(TileChoice::Fixed(512));
    let rejected_id = exec.submit(big);
    exec.submit(shared_gemm());
    assert_eq!(exec.queue_len(), 1, "the rejected request never queues");
    let report = exec.drain();
    assert_eq!(report.rejected(), 1);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.outcomes[0].id, rejected_id, "rejections come first");
    let tele = report.telemetry.as_ref().expect("telemetry armed");
    let windowed: u64 = tele.windows.iter().map(|w| w.rejected).sum();
    assert_eq!(windowed, 1, "the refusal lands in a window");
    let trace = report.trace.as_ref().expect("tracing armed");
    check_spans(&trace.spans).expect("spans satisfy the invariants");
    let spans = trace.request_spans(rejected_id.0);
    let phases: Vec<SpanPhase> = spans.iter().map(|s| s.phase).collect();
    assert_eq!(phases, [SpanPhase::Submit, SpanPhase::Reject]);
    assert!(spans[1].label.contains("admission"), "{}", spans[1].label);
    let t0 = trace
        .spans
        .iter()
        .find(|s| s.phase == SpanPhase::Queued)
        .expect("the admitted request queued")
        .start_ns;
    assert!(spans.iter().all(|s| s.start_ns == t0 && s.end_ns == t0));
}

#[test]
fn deadline_misses_terminate_as_timed_out() {
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 1), ExecutorConfig::default());
    let req = GemmRequest::<f64>::new(ghost(1024, 1024), ghost(1024, 1024), ghost(1024, 1024))
        .tile(TileChoice::Fixed(512))
        .deadline_secs(1e-9);
    exec.submit(req);
    let report = exec.drain();
    assert_eq!(report.timed_out(), 1);
    assert_eq!(report.metrics.counter("serve_timed_out_total"), 1);
    let RequestStatus::TimedOut {
        deadline,
        elapsed,
        report: late,
    } = &report.outcomes[0].status
    else {
        panic!("expected TimedOut, got {:?}", report.outcomes[0].status)
    };
    assert_eq!(*deadline, 1e-9);
    assert!(*elapsed > *deadline);
    assert_eq!(late.elapsed.as_secs_f64(), *elapsed);
    // A timed-out run still did the work; it just missed the SLA.
    assert!(late.subkernels > 0);
}

#[test]
fn residency_cache_reuses_operands_across_requests() {
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 1), ExecutorConfig::default());
    for req in mixed_trace() {
        exec.submit(req);
    }
    let report = exec.drain();
    assert_eq!(report.completed(), 8);
    // A and B miss once each, then 3 follow-up gemms hit both and the gemv
    // hits A; X misses once then hits twice; Y misses once.
    assert_eq!(report.metrics.counter("residency_misses_total"), 4);
    assert_eq!(report.metrics.counter("residency_hits_total"), 9);
    assert_eq!(report.metrics.counter("residency_evictions_total"), 0);
    // Each shared operand crosses the link exactly once — A, B, X, Y at
    // 8 MB apiece — instead of once per referencing request.
    assert_eq!(
        report.metrics.counter("residency_bytes_uploaded"),
        4 * 8 * MB as u64
    );
    // The cache still holds every shared operand (A, B, X, Y).
    assert_eq!(exec.residency(0).len(), 4);
}

/// Acceptance: serving the mixed shared trace beats replaying it
/// sequentially with sharing stripped, on the same single device.
#[test]
fn serving_with_reuse_beats_sequential_no_reuse() {
    let tb = small_tb(256 * MB);
    let mut seq = Cocopelia::new(
        Gpu::new(tb.clone(), ExecMode::TimingOnly, 42),
        dummy_profile(),
    );
    let mut sequential = 0.0;
    for req in mixed_trace() {
        sequential += seq
            .submit(req.without_sharing())
            .expect("baseline runs")
            .elapsed
            .as_secs_f64();
    }

    let mut exec = ServeSession::new(pool(&tb, 1), ExecutorConfig::default());
    for req in mixed_trace() {
        exec.submit(req);
    }
    let report = exec.drain();
    assert_eq!(report.completed(), 8);
    let makespan = report.makespan.as_secs_f64();
    assert!(
        makespan < sequential,
        "serving {makespan} !< sequential no-reuse {sequential}"
    );
    assert!(report.throughput_gflops() > 0.0);
    let occupancy = report.occupancy();
    assert!(occupancy > 0.0 && occupancy <= 1.0);
}

#[test]
fn transient_oom_is_retried_after_reclaim() {
    // 64 MB device, 32 MB residency budget. The first request parks A and B
    // (16 MB) in the cache; the second needs ~57 MB of inline operands, so
    // its first attempt hits OOM, the executor reclaims (evicting the
    // cache), and the retry fits.
    let mut exec = ServeSession::new(pool(&small_tb(64 * MB), 1), ExecutorConfig::default());
    exec.submit(shared_gemm());
    let n = 1472; // 3 x 17.3 MB inline + 16 MB cached > 64 MB; alone it fits
    exec.submit(
        GemmRequest::<f64>::new(ghost(n, n), ghost(n, n), ghost(n, n)).tile(TileChoice::Fixed(512)),
    );
    let report = exec.drain();
    assert_eq!(report.completed(), 2, "{}", report.render());
    assert!(report.outcomes[1].retries > 0, "second request must retry");
    assert_eq!(report.metrics.counter("serve_retries_total"), 1);
    // The reclaim emptied the cache on the way.
    assert!(report.metrics.counter("residency_evictions_total") >= 2);
    assert_eq!(exec.residency(0).len(), 0);
    // Nothing leaked: only live device memory is gone after the run.
    let dev = &exec.pool().devices()[0];
    assert_eq!(dev.gpu().live_device_buffers().len(), 0);
}

#[test]
fn affinity_holds_between_equally_loaded_devices() {
    // Two interleaved operand families: requests follow the device that
    // cached their family as long as both devices stay equally loaded
    // (re-uploading would cost more than the zero clock gap).
    let gemm_cd = || -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new("C2", 1024, 1024),
            SharedMat::new("D2", 1024, 1024),
            ghost(1024, 1024),
        )
        .tile(TileChoice::Fixed(512))
        .into()
    };
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 2), ExecutorConfig::default());
    for req in [shared_gemm(), gemm_cd(), shared_gemm(), gemm_cd()] {
        exec.submit(req);
    }
    let report = exec.drain();
    assert_eq!(report.completed(), 4, "{}", report.render());
    let device = |i: usize| report.outcomes[i].device.expect("served");
    assert_eq!(device(0), device(2), "A/B requests must share a device");
    assert_eq!(device(1), device(3), "C2/D2 requests must share a device");
    assert_ne!(device(0), device(1), "families must split across the pool");
    // Each family uploads once and hits once.
    assert_eq!(report.metrics.counter("residency_misses_total"), 4);
    assert_eq!(report.metrics.counter("residency_hits_total"), 4);
}

#[test]
fn idle_device_steals_when_affine_device_falls_behind() {
    // Four identical A/B gemms on two devices: strict affinity would
    // serialise them all onto the first device. The bounded policy steals
    // to the idle device as soon as the affine device's clock lead exceeds
    // the cost of re-uploading A and B, so the trace spreads.
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 2), ExecutorConfig::default());
    for _ in 0..4 {
        exec.submit(shared_gemm());
    }
    let report = exec.drain();
    assert_eq!(report.completed(), 4, "{}", report.render());
    let device = |i: usize| report.outcomes[i].device.expect("served");
    assert_ne!(
        device(0),
        device(1),
        "the second gemm must be stolen by the idle device"
    );
    let served: Vec<usize> = (0..4).map(device).collect();
    assert!(
        (0..2).all(|d| served.contains(&d)),
        "both devices must serve work: {served:?}"
    );
    // Each device uploads A/B once (2 misses each); later gemms hit.
    assert_eq!(report.metrics.counter("residency_misses_total"), 4);
    assert_eq!(report.metrics.counter("residency_hits_total"), 4);
    assert_eq!(report.metrics.counter("residency_evictions_total"), 0);
    assert!(report.per_device_busy.iter().all(|t| t.as_secs_f64() > 0.0));
    // Two devices sharing the work: makespan is the max, not the sum.
    let total: f64 = report.per_device_busy.iter().map(|t| t.as_secs_f64()).sum();
    assert!(report.makespan.as_secs_f64() < total);
}

#[test]
fn same_request_shared_operands_never_evict_each_other() {
    // 40 MB device: residency budget 20 MB, admission limit 36 MB. A gemm
    // whose three shared operands total 24 MB is admitted but cannot cache
    // them all — the third must bypass rather than evict the first out
    // from under its already-resolved handle (which would dangle).
    let mut exec = ServeSession::new(pool(&small_tb(40 * MB), 1), ExecutorConfig::default());
    let req = || -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new("A", 1024, 1024),
            SharedMat::new("B", 1024, 1024),
            SharedMat::new("C", 1024, 1024),
        )
        .tile(TileChoice::Fixed(512))
        .into()
    };
    exec.submit(req());
    exec.submit(req());
    let report = exec.drain();
    assert_eq!(report.completed(), 2, "{}", report.render());
    // A and B cache (16 MB <= 20 MB); C bypasses on both requests because
    // it cannot fit alongside its own request's pinned operands.
    assert_eq!(report.metrics.counter("residency_evictions_total"), 0);
    assert_eq!(report.metrics.counter("residency_bypass_total"), 2);
    assert_eq!(report.metrics.counter("residency_misses_total"), 4);
    assert_eq!(report.metrics.counter("residency_hits_total"), 2);
    assert_eq!(exec.residency(0).len(), 2);
    // Bypass uploads were released after each run; only A and B live on.
    let dev = &exec.pool().devices()[0];
    assert_eq!(dev.gpu().live_device_buffers().len(), 2);
}

#[test]
fn non_transient_failure_keeps_cache_warm() {
    // A mis-declared shared shape fails its own request but must not nuke
    // the residency cache: later requests still hit the warm operands.
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 1), ExecutorConfig::default());
    exec.submit(shared_gemm());
    exec.submit(
        GemmRequest::<f64>::new(
            SharedMat::new("A", 512, 512), // cached as 1024 x 1024
            ghost(512, 512),
            ghost(512, 512),
        )
        .tile(TileChoice::Fixed(256)),
    );
    exec.submit(shared_gemm());
    let report = exec.drain();
    assert_eq!(report.completed(), 2, "{}", report.render());
    assert_eq!(report.failed(), 1);
    assert_eq!(
        report.outcomes[1].retries, 0,
        "shape mismatch is not transient; no retry"
    );
    assert_eq!(report.metrics.counter("serve_retries_total"), 0);
    // The cache survived the failure: the third request hits A and B.
    assert_eq!(report.metrics.counter("residency_hits_total"), 2);
    assert_eq!(report.metrics.counter("residency_evictions_total"), 0);
    assert_eq!(exec.residency(0).len(), 2);
    // Nothing leaked beyond the two cached operands.
    let dev = &exec.pool().devices()[0];
    assert_eq!(dev.gpu().live_device_buffers().len(), 2);
}

#[test]
fn a_key_serves_only_the_dtype_and_shape_it_was_cached_as() {
    // "K" is cached as a 64 x 64 f64 matrix. A 4096-element vector has
    // the same element count and an f32 matrix the same shape, but
    // neither may read that buffer: each fails on its own, once, and the
    // device stays healthy with nothing live beyond the cache.
    let cached = GemmRequest::<f64>::new(SharedMat::new("K", 64, 64), ghost(64, 64), ghost(64, 64))
        .tile(TileChoice::Fixed(64));
    let f32_ghost = || MatOperand::<f32>::HostGhost { rows: 64, cols: 64 };
    let misdeclared: [RoutineRequest; 2] = [
        AxpyRequest::<f64>::new(
            SharedVec::new("K", 4096),
            VecOperand::HostGhost { len: 4096 },
        )
        .tile(TileChoice::Fixed(4096))
        .into(),
        GemmRequest::<f32>::new(SharedMat::new("K", 64, 64), f32_ghost(), f32_ghost())
            .tile(TileChoice::Fixed(64))
            .into(),
    ];
    for req in misdeclared {
        let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 1), ExecutorConfig::default());
        exec.submit(cached.clone());
        exec.submit(req);
        let report = exec.drain();
        assert_eq!(report.completed(), 1, "{}", report.render());
        let failed = &report.outcomes[1];
        assert!(
            matches!(
                &failed.status,
                RequestStatus::Failed(e) if matches!(e.source, RuntimeError::DimensionMismatch { .. })
            ),
            "{:?}",
            failed.status
        );
        assert_eq!(failed.retries, 0, "a shape mismatch is not retried");
        assert!(exec.quarantined().is_empty());
        assert_eq!(report.metrics.counter("fault_fatal_total"), 1);
        let dev = &exec.pool().devices()[0];
        assert_eq!(
            dev.gpu().live_device_buffers(),
            exec.residency(0).device_buffers()
        );
    }
}

#[test]
fn queue_depth_and_gauges_are_recorded() {
    let mut exec = ServeSession::new(pool(&small_tb(256 * MB), 1), ExecutorConfig::default());
    for req in mixed_trace() {
        exec.submit(req);
    }
    assert_eq!(exec.queue_len(), 8);
    let report = exec.drain();
    assert_eq!(exec.queue_len(), 0);
    let gauge = |name: &str| report.metrics.gauge(name).expect("gauge set");
    assert!((gauge("serve_makespan_secs") - report.makespan.as_secs_f64()).abs() < 1e-15);
    assert!((gauge("serve_throughput_gflops") - report.throughput_gflops()).abs() < 1e-9);
    assert!((gauge("serve_occupancy") - report.occupancy()).abs() < 1e-15);
    // The render is self-contained: one line per request plus aggregates.
    let text = report.render();
    assert_eq!(text.lines().count(), 8 + 2);
    assert!(text.contains("completed 8"));
}

/// Drains `count` single-tile daxpys on private ghost vectors (every run
/// records the same engine entries) over two devices.
fn drain_axpys(opts: ServeOptions, count: usize) -> (ServeReport, ServeSession) {
    let n = 1 << 12;
    let mut exec = ServeSession::with_options(
        pool(&small_tb(256 * MB), 2),
        ExecutorConfig::default(),
        opts,
    )
    .expect("no telemetry stream to open");
    for _ in 0..count {
        exec.submit(
            AxpyRequest::<f64>::new(
                VecOperand::HostGhost { len: n },
                VecOperand::HostGhost { len: n },
            )
            .alpha(2.0)
            .tile(TileChoice::Fixed(n)),
        );
    }
    let report = exec.drain();
    (report, exec)
}

#[test]
fn drains_retire_device_observer_history_but_keep_its_counts() {
    const REQUESTS: usize = 2_000;
    let n = 1 << 12;
    let tb = small_tb(256 * MB);
    // An axpy exec table, so every call is scored and leaves drift records.
    let mut profile = dummy_profile();
    profile.insert_exec(
        RoutineClass::Axpy,
        Dtype::F64,
        ExecTable::new(vec![(n, 2e-6)]),
    );
    let axpy = || {
        AxpyRequest::<f64>::new(
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
        )
        .alpha(2.0)
        .tile(TileChoice::Fixed(n))
    };
    let devices = || MultiGpu::new(&tb, 2, ExecMode::TimingOnly, 42, profile.clone());
    let mut exec = ServeSession::new(devices(), ExecutorConfig::default());
    for _ in 0..REQUESTS {
        exec.submit(axpy());
    }
    let report = exec.drain();
    assert_eq!(report.completed(), REQUESTS);
    // The twin keeps its history: the same calls, on the same devices,
    // run straight through each device's handle.
    let mut twin = devices();
    for o in &report.outcomes {
        let d = o.device.expect("every request ran");
        twin.devices_mut()[d].submit(axpy()).expect("runs");
    }
    let mut kept_calls = 0;
    for (d, (served, kept)) in exec.pool().devices().iter().zip(twin.devices()).enumerate() {
        let (served, kept) = (served.observer(), kept.observer());
        assert!(served.calls().is_empty(), "dev{d} keeps call summaries");
        assert!(served.drift().records().is_empty(), "dev{d} keeps drift");
        assert!(!kept.calls().is_empty(), "dev{d} served nothing");
        assert_eq!(kept.drift().count(), kept.drift().records().len() as u64);
        assert_eq!(served.drift().count(), kept.drift().count(), "dev{d}");
        assert_eq!(
            served.drift().mean_abs_err().to_bits(),
            kept.drift().mean_abs_err().to_bits()
        );
        assert_eq!(served.drift().render(), kept.drift().render(), "dev{d}");
        // Counters and histograms alike.
        assert_eq!(served.metrics().render(), kept.metrics().render(), "dev{d}");
        kept_calls += kept.calls().len();
    }
    assert_eq!(kept_calls, REQUESTS);
}

#[test]
fn served_outcomes_carry_no_per_model_drift() {
    const REQUESTS: usize = 64;
    let n = 1 << 12;
    let tb = small_tb(256 * MB);
    // An axpy exec table, so every call is scored and every dispatch is
    // priced.
    let mut profile = dummy_profile();
    profile.insert_exec(
        RoutineClass::Axpy,
        Dtype::F64,
        ExecTable::new(vec![(n, 2e-6)]),
    );
    let axpy = || {
        AxpyRequest::<f64>::new(
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
        )
        .alpha(2.0)
        .tile(TileChoice::Fixed(n))
    };
    let devices = || MultiGpu::new(&tb, 2, ExecMode::TimingOnly, 42, profile.clone());
    // A direct call keeps its per-model records.
    let direct = devices().devices_mut()[0].submit(axpy()).expect("runs");
    assert!(!direct.drift.is_empty());
    let mut exec = ServeSession::new(devices(), ExecutorConfig::default());
    for _ in 0..REQUESTS {
        exec.submit(axpy());
    }
    let report = exec.drain();
    assert_eq!(report.completed(), REQUESTS);
    for o in &report.outcomes {
        let served = o.executed_report().expect("every request ran");
        assert!(served.drift.is_empty(), "{} keeps per-model drift", o.id);
    }
    // The session's own drift keeps one record per attempt.
    assert_eq!(report.drift.count(), REQUESTS as u64);
    assert_eq!(report.drift.records().len(), REQUESTS);
}

#[test]
fn drains_retire_device_traces_down_to_what_readers_need() {
    const REQUESTS: usize = 2_000;
    let (_, lone) = drain_axpys(ServeOptions::new(), 1);
    let per_request = lone.pool().devices()[0].gpu().trace().len();
    assert!(per_request > 0);

    let (plain, untraced) = drain_axpys(ServeOptions::new(), REQUESTS);
    let (report, traced) = drain_axpys(ServeOptions::new().tracing(), REQUESTS);
    assert_eq!(plain.makespan, report.makespan, "tracing moves no clock");
    let lanes = &report.trace.as_ref().expect("tracing armed").lanes;
    assert_eq!(lanes.len(), 2);
    let mut recorded = 0;
    for (d, lane) in lanes.iter().enumerate() {
        let kept = untraced.pool().devices()[d].gpu().trace();
        assert!(
            kept.entries().len() <= per_request,
            "untraced dev{d} retains {} entries",
            kept.entries().len()
        );
        let moved = traced.pool().devices()[d].gpu().trace();
        assert!(moved.entries().is_empty(), "traced dev{d} retains entries");
        assert_eq!(kept.len(), moved.len(), "dev{d} counts every entry");
        assert_eq!(lane.entries.len(), moved.len(), "dev{d} lane is the drain");
        // The retired totals are exact: they match the lane's own sums.
        for engine in [
            EngineKind::CopyH2d,
            EngineKind::Compute,
            EngineKind::CopyD2h,
        ] {
            let of = || lane.entries.iter().filter(move |e| e.engine == engine);
            let busy: u64 = of().map(|e| e.duration().as_nanos()).sum();
            let bytes: usize = of().filter_map(|e| e.bytes()).sum();
            assert_eq!(kept.engine_busy(engine).as_nanos(), busy);
            assert_eq!(kept.bytes_moved(engine), bytes);
        }
        recorded += kept.len();
    }
    assert_eq!(recorded, REQUESTS * per_request, "no entry went uncounted");

    let (watched, _) = drain_axpys(ServeOptions::new().telemetry(TelemetryConfig::default()), 8);
    let trace = watched.trace.as_ref().expect("telemetry records spans");
    assert!(!trace.spans.is_empty());
    assert!(trace.lanes.is_empty(), "telemetry alone keeps no lanes");
}
