//! Scheduling policies and serve-report accounting end to end: the
//! device/host flops split, queue-depth sampling, self-multiply residency,
//! and the acceptance bars — `Predictive` strictly beats `Fifo` on the
//! standard skewed trace, `Edf` strictly beats `Fifo` on the deadline
//! trace, every policy exports `sched_predict_abs_err`, and placement
//! prices uploads at the degraded link rate the engine applies.

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{
    testbed_i, DegradeWindow, ExecMode, FaultSpec, NoiseSpec, SimTime, TestbedSpec,
};
use cocopelia_runtime::serve::{
    ExecutorConfig, RequestStatus, SchedulePolicy, ServeOptions, ServeSession,
};
use cocopelia_runtime::{GemmRequest, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice};
use cocopelia_xp::{deadline_request_trace, run_serve_with_policy, skewed_request_trace};

const MB: usize = 1 << 20;

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

/// A profile with free transfers and no exec tables: predictions are
/// unavailable, so these tests exercise the policies' degraded paths.
fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "sched-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn pool(devices: usize) -> MultiGpu {
    MultiGpu::new(&quiet(), devices, ExecMode::TimingOnly, 42, dummy_profile())
}

fn ghost(n: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows: n, cols: n }
}

fn gemm(n: usize) -> GemmRequest<f64> {
    GemmRequest::<f64>::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
}

#[test]
fn timed_out_device_work_counts_as_device_flops() {
    // A deadline so tight the run must blow it: the device work still
    // happened and stretched the makespan, so it must count in
    // total_flops — otherwise throughput is under-reported.
    let mut exec = ServeSession::new(pool(1), ExecutorConfig::default());
    exec.submit(gemm(1024).deadline_secs(1e-12));
    let report = exec.drain();
    assert_eq!(report.timed_out(), 1);
    assert_eq!(report.completed(), 0);
    let flops = 2.0 * 1024f64.powi(3);
    assert!(
        (report.total_flops - flops).abs() < 1.0,
        "timed-out device work must count: {} vs {flops}",
        report.total_flops
    );
    assert_eq!(report.host_flops, 0.0);
    assert!(report.throughput_gflops() > 0.0);
}

#[test]
fn host_fallback_work_is_split_out_of_device_throughput() {
    // Every upload faults and the devices die after one injected fault
    // each: both requests complete on the host. Host work must land in
    // host_flops/host_time, never in the device-only total_flops that
    // throughput_gflops divides by the device makespan.
    let spec = FaultSpec {
        seed: 7,
        h2d: 1.0,
        lost_after: Some(1),
        ..FaultSpec::none()
    };
    let pool = MultiGpu::with_faults(
        &quiet(),
        2,
        ExecMode::TimingOnly,
        42,
        dummy_profile(),
        &spec,
    );
    let mut exec = ServeSession::new(pool, ExecutorConfig::default());
    exec.submit(gemm(1024));
    exec.submit(gemm(1024));
    let report = exec.drain();
    assert_eq!(report.host_fallbacks(), 2);
    assert_eq!(
        report.total_flops, 0.0,
        "no device completed anything, so device flops must be zero"
    );
    let flops = 2.0 * 2.0 * 1024f64.powi(3);
    assert!(
        (report.host_flops - flops).abs() < 1.0,
        "host work is accounted separately: {}",
        report.host_flops
    );
    assert!(report.host_time.as_secs_f64() > 0.0);
    // With host flops out of the numerator, a dead pool reports zero
    // throughput instead of host-work-over-near-zero-makespan.
    assert_eq!(report.throughput_gflops(), 0.0);
    // Host runs never tiled: the render says so instead of showing the
    // fabricated tile 0.
    let text = report.render();
    assert!(text.contains("T=-"), "{text}");
    assert!(!text.contains("T=0"), "{text}");
    assert!(text.contains("on host"), "{text}");
}

#[test]
fn queue_depth_is_sampled_at_submit_and_dispatch() {
    let mut exec = ServeSession::new(pool(1), ExecutorConfig::default());
    for _ in 0..3 {
        exec.submit(gemm(1024));
    }
    let report = exec.drain();
    let h = report
        .metrics
        .histogram("serve_queue_depth")
        .expect("depth histogram");
    // Submission observes depths 1, 2, 3; dispatch observes 3, 2, 1
    // (the pulled request included, no off-by-one patch-up).
    assert_eq!(h.count(), 6);
    assert!((h.sum() - 12.0).abs() < 1e-12, "sum {}", h.sum());
}

#[test]
fn self_multiply_shares_one_cached_upload() {
    // W·W names the same key for `a` and `b`: one upload, one hit, one
    // cache entry — the duplicate insert is rejected, not double-counted.
    let mut exec = ServeSession::new(pool(1), ExecutorConfig::default());
    let w = || SharedMat::new("W", 1024, 1024);
    exec.submit(
        GemmRequest::<f64>::new(w(), w(), ghost(1024))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Fixed(512)),
    );
    let report = exec.drain();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.metrics.counter("residency_misses_total"), 1);
    assert_eq!(report.metrics.counter("residency_hits_total"), 1);
    assert_eq!(
        report.metrics.counter("residency_bytes_uploaded"),
        (8 * MB) as u64,
        "W is uploaded exactly once"
    );
    assert_eq!(exec.residency(0).len(), 1);
    assert_eq!(exec.residency(0).used_bytes(), 8 * MB);
}

#[test]
fn edf_meets_a_deadline_fifo_misses() {
    // Calibrate: how long does the small request take alone?
    let mut solo = ServeSession::new(pool(1), ExecutorConfig::default());
    solo.submit(gemm(1024));
    let t_small = solo.drain().makespan.as_secs_f64();
    assert!(t_small > 0.0);

    // Two requests on one device: a big deadline-less gemm submitted
    // first, then a small one whose budget fits its own flow time but not
    // a wait behind the big request.
    let run = |policy: SchedulePolicy| {
        let mut exec = ServeSession::with_options(
            pool(1),
            ExecutorConfig::default(),
            ServeOptions::new().policy(policy),
        )
        .expect("session");
        exec.submit(gemm(2048));
        exec.submit(gemm(1024).deadline_secs(2.0 * t_small));
        exec.drain()
    };
    let fifo = run(SchedulePolicy::Fifo);
    let edf = run(SchedulePolicy::Edf);
    assert_eq!(
        fifo.timed_out(),
        1,
        "FIFO leaves the deadline request queued behind the big one"
    );
    assert_eq!(edf.timed_out(), 0, "EDF pulls the deadline request first");
    assert_eq!(edf.completed(), 2);
    assert!(edf.timed_out() < fifo.timed_out());
}

#[test]
fn predictive_beats_fifo_on_the_skewed_trace() {
    // The acceptance bar: on the standard skewed trace (six small gemms
    // then one eight-times-larger straggler) over two devices, the
    // prediction-guided policy must achieve a strictly lower pool
    // makespan than FIFO, and every policy must export the
    // predicted-vs-actual histogram.
    let tb = testbed_i();
    let fifo = run_serve_with_policy(
        &tb,
        2,
        skewed_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Fifo,
    )
    .expect("fifo serve");
    let edf = run_serve_with_policy(
        &tb,
        2,
        skewed_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Edf,
    )
    .expect("edf serve");
    let pred = run_serve_with_policy(
        &tb,
        2,
        skewed_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Predictive,
    )
    .expect("predictive serve");
    for cmp in [&fifo, &edf, &pred] {
        assert_eq!(cmp.report.completed(), 7);
        assert!(
            cmp.report
                .metrics
                .histogram("sched_predict_abs_err")
                .is_some(),
            "every policy records predicted-vs-actual"
        );
        assert!(!cmp.report.drift.records().is_empty());
    }
    // The policy-labelled histograms tell the runs apart in one registry
    // dump.
    assert!(fifo
        .report
        .metrics
        .histogram("sched_predict_abs_err_fifo")
        .is_some());
    assert!(pred
        .report
        .metrics
        .histogram("sched_predict_abs_err_predictive")
        .is_some());
    let m_fifo = fifo.report.makespan.as_secs_f64();
    let m_pred = pred.report.makespan.as_secs_f64();
    assert!(
        m_pred < m_fifo,
        "predictive must strictly beat FIFO: {m_pred} vs {m_fifo}"
    );
}

#[test]
fn edf_beats_fifo_on_the_deadline_trace() {
    // The acceptance bar on a deployed profile: the standard deadline
    // trace served on one device misses under FIFO and meets under EDF.
    let tb = testbed_i();
    let fifo = run_serve_with_policy(
        &tb,
        1,
        deadline_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Fifo,
    )
    .expect("fifo serve");
    let edf = run_serve_with_policy(
        &tb,
        1,
        deadline_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Edf,
    )
    .expect("edf serve");
    assert_eq!(fifo.report.timed_out(), 1);
    assert_eq!(edf.report.timed_out(), 0);
    assert!(edf.report.timed_out() < fifo.report.timed_out());
    assert!(fifo
        .report
        .metrics
        .histogram("sched_predict_abs_err")
        .is_some());
}

#[test]
fn fifo_policy_reproduces_the_default_run() {
    // The default policy is FIFO, and an explicit FIFO run is
    // bit-identical to a default one — the snapshot gate depends on it.
    let trace: Vec<RoutineRequest> = (0..4)
        .map(|i| gemm(if i == 3 { 2048 } else { 1024 }).into())
        .collect();
    let mut default_exec = ServeSession::new(pool(2), ExecutorConfig::default());
    for req in trace.clone() {
        default_exec.submit(req);
    }
    let default_report = default_exec.drain();
    let mut fifo_exec = ServeSession::with_options(
        pool(2),
        ExecutorConfig::default(),
        ServeOptions::new().policy(SchedulePolicy::Fifo),
    )
    .expect("session");
    assert_eq!(fifo_exec.policy(), SchedulePolicy::Fifo);
    for req in trace {
        fifo_exec.submit(req);
    }
    let fifo_report = fifo_exec.drain();
    assert_eq!(default_report.makespan, fifo_report.makespan);
    assert_eq!(default_report.per_device_busy, fifo_report.per_device_busy);
    assert_eq!(default_report.total_flops, fifo_report.total_flops);
}

/// The degrade-aware upload estimate: with device 0's h2d link inside a
/// fault-plan degrade window, dispatch prices the shared-operand upload
/// at the degraded bandwidth and routes the request to the healthy peer
/// (ideal link time would leave the tie to fall on device 0). Where
/// windows overlap, placement reads the factor the engine applies — the
/// earliest-started window's — not the first window in spec order.
#[test]
fn degraded_link_dispatch_prefers_healthy_peer() {
    let n = 2048;
    let shared_gemm = || {
        GemmRequest::<f64>::new(
            SharedMat::new("A", n, n),
            SharedMat::new("B", n, n),
            ghost(n),
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
    };
    let degraded = FaultSpec {
        degrade: vec![DegradeWindow {
            start_s: 0.0,
            end_s: 1e6,
            factor: 0.01,
        }],
        ..FaultSpec::none()
    };
    let plans = [degraded, FaultSpec::none()];
    let pool =
        MultiGpu::with_fault_plans(&quiet(), ExecMode::TimingOnly, 42, dummy_profile(), &plans);
    let mut exec = ServeSession::new(pool, ExecutorConfig::default());
    exec.submit(shared_gemm());
    let report = exec.drain();
    assert_eq!(report.outcomes.len(), 1);
    assert!(matches!(
        report.outcomes[0].status,
        RequestStatus::Completed(_)
    ));
    assert_eq!(
        report.outcomes[0].device,
        Some(1),
        "the degraded-link device must lose the upload-cost comparison"
    );

    // Overlapping windows listed out of start order: a late-start, mild
    // window first, then the earlier-start 1% window, which the engine
    // applies across the overlap. Device 1's clock trails device 0's by
    // 100 ms, more than the mild factor's upload penalty but far less
    // than the 1% factor's, so only the engine's factor sends the request
    // to device 1.
    let overlapping = FaultSpec {
        degrade: vec![
            DegradeWindow {
                start_s: 0.5,
                end_s: 1e6,
                factor: 0.9,
            },
            DegradeWindow {
                start_s: 0.0,
                end_s: 1e6,
                factor: 0.01,
            },
        ],
        ..FaultSpec::none()
    };
    let plans = [overlapping, FaultSpec::none()];
    let mut pool =
        MultiGpu::with_fault_plans(&quiet(), ExecMode::TimingOnly, 42, dummy_profile(), &plans);
    for (d, secs) in [(0, 1.0), (1, 1.1)] {
        pool.device_mut(d)
            .gpu_mut()
            .advance_clock(SimTime::from_secs_f64(secs));
    }
    let mut exec = ServeSession::new(pool, ExecutorConfig::default());
    exec.submit(shared_gemm());
    let report = exec.drain();
    assert!(matches!(
        report.outcomes[0].status,
        RequestStatus::Completed(_)
    ));
    assert_eq!(
        report.outcomes[0].device,
        Some(1),
        "placement must apply the earliest-started overlapping window"
    );
}
