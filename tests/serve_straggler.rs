//! Straggler-defense soak: hedged re-dispatch against a degraded link,
//! quarantine probation with canary re-admission, the session retry
//! budget under a sustained fault storm, compound failure (device lost
//! while its hedge is in flight) without leaks or orphan spans, and
//! bit-identical replay with every defense armed at once.

use std::collections::BTreeSet;

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, ExecMode, FaultSpec, NoiseSpec, SimTime, TestbedSpec};
use cocopelia_obs::{check_spans, SpanPhase};
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, ProbationConfig, RequestStatus, RetryBudgetConfig, SchedulePolicy,
    ServeOptions, ServeReport, ServeSession,
};
use cocopelia_runtime::{GemmRequest, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice};
use cocopelia_xp::{run_serve, straggler_fault_plans, straggler_request_trace};

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "straggler-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn ghost(n: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows: n, cols: n }
}

fn shared_gemm(n: usize) -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new("A", n, n),
        SharedMat::new("B", n, n),
        ghost(n),
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
    .into()
}

/// Per-request flow times in virtual seconds, derived from the trace:
/// the gap between the request's queue-span start (arrival on the shared
/// axis) and its terminal `Complete` span.
fn flows_secs(report: &ServeReport) -> Vec<f64> {
    let trace = report.trace.as_ref().expect("tracing armed");
    let mut flows = Vec::new();
    for o in &report.outcomes {
        if !matches!(o.status, RequestStatus::Completed(_)) {
            continue;
        }
        let spans = trace.request_spans(o.id.0);
        let queued = spans
            .iter()
            .find(|s| s.phase == SpanPhase::Queued)
            .expect("every dispatched request has a queue span");
        let complete = spans
            .iter()
            .find(|s| s.phase == SpanPhase::Complete)
            .expect("every terminal request has a complete span");
        flows.push((complete.start_ns - queued.start_ns) as f64 * 1e-9);
    }
    flows
}

fn p99(flows: &[f64]) -> f64 {
    assert!(!flows.is_empty());
    let mut sorted = flows.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() as f64) * 0.99).ceil() as usize - 1]
}

/// No device holds an allocation the executor does not know about: a
/// quarantined device is fully drained, a healthy device's live buffers
/// are exactly its residency cache.
fn assert_no_leaks(exec: &ServeSession) {
    let quarantined = exec.quarantined();
    for (d, dev) in exec.pool().devices().iter().enumerate() {
        let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
        let host_live = dev.gpu().live_host_buffers();
        if quarantined.contains(&d) {
            assert!(live.is_empty(), "dev{d} quarantined but holds {live:?}");
            assert!(
                host_live.is_empty(),
                "dev{d} quarantined but pins {host_live:?}"
            );
        } else {
            let resident: BTreeSet<_> = exec.residency(d).device_buffers().into_iter().collect();
            assert_eq!(live, resident, "dev{d} live buffers != residency cache");
        }
    }
}

/// The headline acceptance bar: on a seeded straggler trace (device 0's
/// link degraded to 1% bandwidth inside repeating windows, device 1
/// clean), hedged re-dispatch strictly improves the p99 flow time over a
/// `--hedge off` run while completing the exact same useful flops — the
/// cancelled losers are charged to nobody.
#[test]
fn hedging_improves_tail_flow_with_identical_flops() {
    for seed in [11u64, 23, 47] {
        let plans = straggler_fault_plans(2, seed, 0.01);
        let run = |options: ServeOptions| {
            run_serve(
                &quiet(),
                &plans,
                straggler_request_trace(16),
                None,
                options.tracing(),
            )
        };
        let off = run(ServeOptions::new()).expect("unhedged straggler run");
        let on =
            run(ServeOptions::new().hedge(HedgeConfig::default())).expect("hedged straggler run");

        for cmp in [&off, &on] {
            assert_eq!(cmp.report.outcomes.len(), 16, "seed {seed}");
            assert!(cmp
                .report
                .outcomes
                .iter()
                .all(|o| matches!(o.status, RequestStatus::Completed(_))));
            check_spans(&cmp.report.trace.as_ref().unwrap().spans)
                .expect("span invariants hold under hedging");
        }
        assert_eq!(off.report.metrics.counter("hedge_attempts_total"), 0);
        let attempts = on.report.metrics.counter("hedge_attempts_total");
        let wins = on.report.metrics.counter("hedge_wins_total");
        assert!(attempts > 0, "seed {seed}: straggler never hedged");
        assert!(wins > 0, "seed {seed}: no hedge beat the degraded link");

        let p99_off = p99(&flows_secs(&off.report));
        let p99_on = p99(&flows_secs(&on.report));
        assert!(
            p99_on < p99_off,
            "seed {seed}: hedging must strictly improve p99 flow \
             ({p99_on:.4}s vs {p99_off:.4}s)"
        );
        // Same useful work, bit for bit: every request's flops are charged
        // exactly once, to whichever attempt won its race.
        assert_eq!(
            on.report.total_flops.to_bits(),
            off.report.total_flops.to_bits(),
            "seed {seed}: hedging changed the total flops"
        );
    }
}

/// Primary attempts (first-attempt `Dispatch` spans) each device received.
fn primaries_on(report: &ServeReport, device: usize) -> usize {
    let trace = report.trace.as_ref().expect("tracing armed");
    trace
        .spans
        .iter()
        .filter(|s| s.phase == SpanPhase::Dispatch && s.device == Some(device))
        .count()
}

/// Predictive placement prices the same calibration factor as the
/// ready-time heuristic: once device 0 overruns its prediction on the
/// degraded link (the hedge-cancelled primary counts), the policy stops
/// sending it primaries — even though each winning hedge rewinds device
/// 0's clock to look idle. The requests carry private operands, so no
/// residency affinity pulls work to device 1: only the factor tells the
/// two devices apart.
#[test]
fn predictive_placement_steers_primaries_off_a_caught_straggler() {
    for seed in [11u64, 23, 47] {
        let run = run_serve(
            &quiet(),
            &straggler_fault_plans(2, seed, 0.01),
            straggler_request_trace(16)
                .into_iter()
                .map(RoutineRequest::without_sharing)
                .collect(),
            None,
            ServeOptions::new()
                .policy(SchedulePolicy::Predictive)
                .tracing()
                .hedge(HedgeConfig::default()),
        )
        .expect("predictive hedged straggler run");
        let dev0 = primaries_on(&run.report, 0);
        let dev1 = primaries_on(&run.report, 1);
        assert!(run
            .report
            .outcomes
            .iter()
            .all(|o| matches!(o.status, RequestStatus::Completed(_))));
        assert_eq!(dev0 + dev1, 16, "seed {seed}: one primary per request");
        // Without the factor every rewound-idle primary lands on dev0
        // again (16 of 16, each one hedged); with it, dev0 keeps only the
        // first attempt or two that exposed it.
        assert!(
            dev0 <= 2,
            "seed {seed}: {dev0} primaries still sent to the caught straggler"
        );
        assert!(
            run.report.metrics.counter("hedge_attempts_total") <= dev0 as u64,
            "seed {seed}: hedges fire only on dev0's overruns"
        );
    }
}

/// Drift calibration prices a straggler without any hedge: on the
/// 5%-link trace with hedging off, device 0's first overrun lifts its
/// calibration factor, so Predictive placement stops feeding it before
/// its slow attempts stretch the makespan. An uncalibrated price sends it
/// 4 of the 64 primaries for a 2.78 s makespan on every seed.
#[test]
fn calibration_steers_primaries_off_a_straggler_without_hedging() {
    for seed in [11u64, 23, 47] {
        let run = run_serve(
            &quiet(),
            &straggler_fault_plans(2, seed, 0.05),
            straggler_request_trace(64)
                .into_iter()
                .map(RoutineRequest::without_sharing)
                .collect(),
            None,
            ServeOptions::new()
                .policy(SchedulePolicy::Predictive)
                .tracing(),
        )
        .expect("predictive unhedged straggler run");
        assert!(run
            .report
            .outcomes
            .iter()
            .all(|o| matches!(o.status, RequestStatus::Completed(_))));
        assert_eq!(run.report.metrics.counter("hedge_attempts_total"), 0);
        let dev0 = primaries_on(&run.report, 0);
        assert_eq!(dev0 + primaries_on(&run.report, 1), 64, "seed {seed}");
        assert!(
            dev0 <= 3,
            "seed {seed}: {dev0} primaries sent to the calibrated straggler"
        );
        let makespan = run.report.makespan.as_secs_f64();
        assert!(
            makespan < 2.6,
            "seed {seed}: makespan {makespan:.3}s with the straggler priced"
        );
    }
}

/// Probation end to end: a device drained operationally (the maintenance
/// workflow behind [`ServeSession::force_quarantine`])
/// is re-admitted after consecutive clean canary probes and then serves
/// requests again.
#[test]
fn probation_readmits_a_drained_device_that_then_serves() {
    let pool = MultiGpu::new(&quiet(), 2, ExecMode::TimingOnly, 42, dummy_profile());
    let opts = ServeOptions::new().tracing().probation(ProbationConfig {
        backoff: SimTime::from_secs_f64(1e-3),
        successes: 2,
        seed: 9,
    });
    let mut exec = ServeSession::with_options(pool, ExecutorConfig::default(), opts)
        .expect("session with probation");

    for _ in 0..4 {
        exec.submit(shared_gemm(1024));
    }
    let warm = exec.drain();
    let used: BTreeSet<_> = warm.outcomes.iter().filter_map(|o| o.device).collect();
    assert_eq!(used, BTreeSet::from([0, 1]), "warmup must use both devices");

    exec.force_quarantine(0);
    assert_eq!(exec.quarantined(), vec![0]);

    for _ in 0..10 {
        exec.submit(shared_gemm(1024));
    }
    let healed = exec.drain();

    assert!(
        healed.metrics.counter("probe_attempts_total") >= 2,
        "two consecutive canaries are required for re-admission"
    );
    assert_eq!(healed.metrics.counter("probe_success_total"), 2);
    assert_eq!(healed.metrics.counter("probe_readmit_total"), 1);
    assert_eq!(healed.metrics.counter("probe_fail_total"), 0);
    assert!(
        exec.quarantined().is_empty(),
        "probation must re-admit dev0"
    );
    let served_after_readmit = healed
        .outcomes
        .iter()
        .any(|o| o.device == Some(0) && matches!(o.status, RequestStatus::Completed(_)));
    assert!(
        served_after_readmit,
        "the re-admitted device must complete at least one request"
    );
    assert!(healed
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_)) && !o.host_fallback));
    check_spans(&healed.trace.as_ref().unwrap().spans).expect("probe spans satisfy invariants");
    assert_no_leaks(&exec);
}

/// Without probation, an operational drain is permanent — the control
/// case for the self-healing path.
#[test]
fn force_quarantine_without_probation_is_permanent() {
    let pool = MultiGpu::new(&quiet(), 2, ExecMode::TimingOnly, 42, dummy_profile());
    let mut exec = ServeSession::new(pool, ExecutorConfig::default());
    exec.force_quarantine(0);
    for _ in 0..4 {
        exec.submit(shared_gemm(1024));
    }
    let report = exec.drain();
    assert_eq!(exec.quarantined(), vec![0]);
    assert_eq!(report.metrics.counter("probe_attempts_total"), 0);
    assert!(report.outcomes.iter().all(|o| o.device == Some(1)));
}

/// A sustained fault storm drains the session retry budget: the breaker
/// opens, later faulting requests skip further device picks and fail
/// fast to host BLAS instead of burning device time on doomed retries.
/// The storm spans 0.9 ms of device time, inside the breaker's 50 ms
/// cooldown, so the breaker never half-opens.
#[test]
fn retry_budget_breaker_fails_fast_under_fault_storm() {
    let storm = FaultSpec {
        seed: 7,
        h2d: 1.0,
        ..FaultSpec::none()
    };
    let plans = [storm.clone(), storm];
    let pool =
        MultiGpu::with_fault_plans(&quiet(), ExecMode::TimingOnly, 42, dummy_profile(), &plans);
    let opts = ServeOptions::new().retry_budget(RetryBudgetConfig {
        tokens: 1.0,
        refill_per_sec: 0.0,
    });
    let mut exec = ServeSession::with_options(pool, ExecutorConfig::default(), opts)
        .expect("session with retry budget");
    for _ in 0..6 {
        exec.submit(shared_gemm(1024));
    }
    let report = exec.drain();

    // Every request still completes — on the host.
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));
    assert!(report.outcomes.iter().filter(|o| o.host_fallback).count() >= 4);
    assert_eq!(report.metrics.counter("budget_spent_total"), 1);
    assert_eq!(report.metrics.counter("budget_exhausted_total"), 1);
    assert!(report.metrics.counter("budget_fastfail_total") >= 2);
    // The breaker capped the retry bill at the bucket size.
    assert_eq!(report.metrics.counter("serve_retries_total"), 1);
    assert_no_leaks(&exec);
}

/// Compound failure: device 1 is lost the instant its first operation
/// runs — which, by construction, is a hedge launched against device 0's
/// degraded link. The hedge faults mid-flight; the primary result stands,
/// the dead device is quarantined with every allocation freed, and the
/// trace holds together (no orphan hedge spans).
#[test]
fn device_lost_during_hedge_frees_everything() {
    let tb = quiet();
    let deployed = deploy(&tb, &DeployConfig::quick()).expect("deploy");
    let mut plans = straggler_fault_plans(2, 5, 0.01);
    plans[1] = FaultSpec {
        seed: 7,
        h2d: 1.0,
        lost_after: Some(0),
        ..FaultSpec::none()
    };
    let pool = MultiGpu::with_fault_plans(&tb, ExecMode::TimingOnly, 42, deployed.profile, &plans);
    let opts = ServeOptions::new().tracing().hedge(HedgeConfig::default());
    let mut exec = ServeSession::with_options(pool, ExecutorConfig::default(), opts)
        .expect("session with hedging");
    for req in straggler_request_trace(4) {
        exec.submit(req);
    }
    let report = exec.drain();

    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));
    assert!(
        report.metrics.counter("hedge_attempts_total") >= 1,
        "the degraded primary must trigger a hedge"
    );
    assert!(
        report.metrics.counter("hedge_fail_total") >= 1,
        "the hedge must die with its device"
    );
    assert_eq!(report.metrics.counter("hedge_wins_total"), 0);
    assert_eq!(
        exec.quarantined(),
        vec![1],
        "the lost hedge device is quarantined"
    );
    check_spans(&report.trace.as_ref().unwrap().spans)
        .expect("no orphan spans after a hedge death");
    assert_no_leaks(&exec);
}

/// Replay determinism with the whole defense tier armed: two runs from
/// the same seed are bit-identical in timing, outcome, accounting, and
/// defense activity.
#[test]
fn replay_is_bit_identical_with_all_defenses_armed() {
    let run = || {
        run_serve(
            &quiet(),
            &straggler_fault_plans(2, 11, 0.01),
            straggler_request_trace(12),
            None,
            ServeOptions::new()
                .tracing()
                .hedge(HedgeConfig::default())
                .probation(ProbationConfig::default())
                .retry_budget(RetryBudgetConfig::default()),
        )
        .expect("defended straggler run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.report.makespan.as_nanos(), b.report.makespan.as_nanos());
    assert_eq!(a.report.per_device_busy, b.report.per_device_busy);
    assert_eq!(
        a.report.total_flops.to_bits(),
        b.report.total_flops.to_bits()
    );
    assert_eq!(a.report.host_flops.to_bits(), b.report.host_flops.to_bits());
    assert_eq!(a.report.outcomes, b.report.outcomes);
    assert_eq!(a.report.render(), b.report.render());
    assert_eq!(
        a.report.metrics.counter("hedge_attempts_total"),
        b.report.metrics.counter("hedge_attempts_total")
    );
    assert_eq!(
        a.report.metrics.counter("hedge_wins_total"),
        b.report.metrics.counter("hedge_wins_total")
    );
    let ta = a.report.trace.as_ref().unwrap();
    let tb = b.report.trace.as_ref().unwrap();
    assert_eq!(ta.spans.len(), tb.spans.len());
    for (x, y) in ta.spans.iter().zip(&tb.spans) {
        assert_eq!(
            (x.request, x.device, x.phase, x.start_ns, x.end_ns),
            (y.request, y.device, y.phase, y.start_ns, y.end_ns)
        );
    }
}
