//! Chaos soak of the fault-tolerant serving path: seeded fault injection
//! end to end through the executor — scheduler-level retries, device
//! quarantine with re-dispatch, graceful degradation to host BLAS — plus
//! the safety net: a `FaultSpec::none()` run is indistinguishable from a
//! fault-free build, no device buffer leaks under any fault pressure, and
//! a functional-mode run under faults still matches the host-BLAS oracle.

use std::collections::BTreeSet;

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{testbed_i, ExecMode, FaultSpec, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_hostblas::{level3, validate, Matrix};
use cocopelia_obs::invariants::check_entries;
use cocopelia_runtime::serve::{
    ExecutorConfig, RequestStatus, ServeOptions, ServeReport, ServeSession,
};
use cocopelia_runtime::{
    Cocopelia, GemmRequest, MatOperand, MultiGpu, RetryPolicy, RoutineRequest, SharedMat,
    TileChoice,
};
use cocopelia_xp::{chaos_fault_spec, chaos_request_trace};

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "faults-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn faulty_pool(devices: usize, faults: &FaultSpec) -> MultiGpu {
    MultiGpu::with_faults(
        &quiet(),
        devices,
        ExecMode::TimingOnly,
        42,
        dummy_profile(),
        faults,
    )
}

/// Per-device engine-trace lengths (entries ever recorded).
fn trace_lens(exec: &ServeSession) -> Vec<usize> {
    let devices = exec.pool().devices();
    devices.iter().map(|d| d.gpu().trace().len()).collect()
}

/// Runs the chaos trace through a traced executor over a faulty pool and
/// hands back the report, the executor for post-mortem inspection, and
/// how many engine entries each device recorded during the drain.
fn chaos_run(seed: u64, rounds: usize) -> (ServeReport, ServeSession, Vec<usize>) {
    let pool = faulty_pool(2, &chaos_fault_spec(seed));
    let opts = ServeOptions::new().tracing();
    let mut exec = ServeSession::with_options(pool, ExecutorConfig::default(), opts)
        .expect("no telemetry stream to open");
    for req in chaos_request_trace(rounds) {
        exec.submit(req);
    }
    let before = trace_lens(&exec);
    let report = exec.drain();
    let recorded = trace_lens(&exec)
        .iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .collect();
    (report, exec, recorded)
}

/// No device buffer outlives its reason to exist: a quarantined device
/// holds nothing, and a healthy device holds exactly its residency cache.
fn assert_no_leaks(exec: &ServeSession, quarantined: &[usize]) {
    for d in 0..exec.pool().device_count() {
        let gpu = exec.pool().devices()[d].gpu();
        let live: BTreeSet<_> = gpu.live_device_buffers().into_iter().collect();
        if quarantined.contains(&d) {
            assert!(
                live.is_empty(),
                "quarantined dev{d} still holds device buffers: {live:?}"
            );
            assert!(
                gpu.live_host_buffers().is_empty(),
                "quarantined dev{d} still holds host staging buffers"
            );
        } else {
            let cached: BTreeSet<_> = exec.residency(d).device_buffers().into_iter().collect();
            assert_eq!(
                live, cached,
                "dev{d} live device buffers must be exactly its cached operands"
            );
        }
    }
}

#[test]
fn none_spec_serving_is_fault_free_and_deterministic() {
    let run = || {
        let pool = faulty_pool(2, &FaultSpec::none());
        let mut exec = ServeSession::new(pool, ExecutorConfig::default());
        for req in chaos_request_trace(1) {
            exec.submit(req);
        }
        exec.drain()
    };
    let report = run();
    assert_eq!(report.completed(), report.outcomes.len());
    assert!(report.quarantined.is_empty());
    assert_eq!(report.host_fallbacks(), 0);
    for name in [
        "fault_transient_total",
        "fault_degraded_total",
        "fault_fatal_total",
        "fault_host_fallback_total",
        "retry_tile_ops_total",
        "serve_retries_total",
        "quarantine_devices_total",
        "quarantine_redispatch_total",
        "quarantine_invalidated_total",
    ] {
        assert_eq!(report.metrics.counter(name), 0, "{name} must stay zero");
    }
    assert!(report.outcomes.iter().all(|o| o.retries == 0));
    assert!(report.outcomes.iter().all(|o| !o.host_fallback));
    // Bit-identical replay: the none spec makes no RNG draw, so two runs
    // agree to the nanosecond.
    let again = run();
    assert_eq!(report.makespan.as_nanos(), again.makespan.as_nanos());
}

#[test]
fn device_loss_quarantines_redispatches_and_degrades_to_host() {
    // Every h2d enqueue faults and the very first fault is terminal: the
    // first request loses dev0, is re-dispatched to dev1, loses that too,
    // and completes on the host; the second request goes straight to the
    // host because the whole pool is quarantined.
    let spec = FaultSpec {
        seed: 1,
        h2d: 1.0,
        lost_after: Some(1),
        ..FaultSpec::none()
    };
    let mut exec = ServeSession::new(faulty_pool(2, &spec), ExecutorConfig::default());
    let gemm = || -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new("A", 1024, 1024),
            SharedMat::new("B", 1024, 1024),
            MatOperand::HostGhost {
                rows: 1024,
                cols: 1024,
            },
        )
        .tile(TileChoice::Fixed(256))
        .into()
    };
    exec.submit(gemm());
    exec.submit(gemm());
    let report = exec.drain();
    assert_eq!(report.completed(), 2, "{}", report.render());
    assert_eq!(report.quarantined, vec![0, 1]);

    let first = &report.outcomes[0];
    assert!(matches!(first.status, RequestStatus::Completed(_)));
    assert_eq!(first.retries, 2, "lost dev0, lost dev1, then host");
    assert!(first.host_fallback);
    assert_eq!(first.device, None);
    let second = &report.outcomes[1];
    assert_eq!(second.retries, 0, "pool already drained: host immediately");
    assert!(second.host_fallback);

    assert_eq!(report.metrics.counter("quarantine_devices_total"), 2);
    assert_eq!(report.metrics.counter("quarantine_redispatch_total"), 1);
    assert_eq!(report.metrics.counter("fault_fatal_total"), 2);
    assert_eq!(report.metrics.counter("fault_host_fallback_total"), 2);
    assert_eq!(report.metrics.counter("serve_retries_total"), 2);

    for d in 0..2 {
        let gpu = exec.pool().devices()[d].gpu();
        assert!(gpu.is_lost(), "dev{d} must have hit its loss threshold");
        assert!(gpu.live_device_buffers().is_empty(), "dev{d} leaked");
        assert!(gpu.live_host_buffers().is_empty(), "dev{d} leaked host");
    }
    let text = report.render();
    assert!(text.contains("host"), "{text}");
    assert!(text.contains("quarantined [dev0, dev1]"), "{text}");
    assert!(text.contains("host fallbacks 2"), "{text}");
}

#[test]
fn functional_gemm_under_faults_matches_host_blas_oracle() {
    // Transient faults only (no loss threshold): every fault is absorbed
    // by the scheduler's tile-level retry, so the numerical result is
    // identical to a fault-free run — retries re-enqueue the same op and
    // a failed enqueue moved no data.
    let spec = FaultSpec {
        seed: 5,
        h2d: 0.05,
        d2h: 0.05,
        kernel: 0.08,
        ecc: 0.04,
        ..FaultSpec::none()
    };
    let (m, n, k) = (64, 64, 64);
    let lcg = |seed: u64| {
        let mut state = seed;
        Matrix::from_fn(m, n, move |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    };
    let (a, b, c) = (lcg(1), lcg(2), lcg(3));
    let mut expect = c.clone();
    level3::gemm(1.0, &a.view(), &b.view(), 0.5, &mut expect.view_mut());

    let mut ctx = Cocopelia::new(
        Gpu::with_faults(quiet(), ExecMode::Functional, 7, spec),
        dummy_profile(),
    );
    // A deeper per-tile budget than the default: at these rates a run of
    // three consecutive faults on one op is plausible, six is not.
    ctx.set_retry_policy(RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    });
    let out = ctx
        .run_gemm::<f64>(
            GemmRequest::new(
                MatOperand::Host(a),
                MatOperand::Host(b),
                MatOperand::Host(c),
            )
            .alpha(1.0)
            .beta(0.5)
            .tile(TileChoice::Fixed(16)),
        )
        .expect("transient faults are retried to completion");
    assert!(
        out.report.op_retries >= 1,
        "the seed must actually exercise a retry (stats: {:?})",
        ctx.gpu().fault_stats()
    );
    assert!(ctx.gpu().fault_stats().total() >= 1);
    let got = out.c.expect("functional mode returns data");
    assert!(
        validate::matrices_close(&got, &expect, validate::gemm_tolerance::<f64>(k)),
        "max rel err {}",
        validate::max_rel_err(got.as_slice(), expect.as_slice())
    );
}

#[test]
fn chaos_soak_over_fixed_seeds() {
    let seeds = [11u64, 23, 47];
    let mut saw_device_retry_completion = false;
    let mut saw_host_fallback_completion = false;
    let mut quarantines = 0u64;
    let mut redispatches = 0u64;
    let mut tile_retries = 0u64;
    for &seed in &seeds {
        let (report, exec, recorded) = chaos_run(seed, 4);

        // Every submitted request reached exactly one terminal state.
        assert_eq!(report.outcomes.len(), 16, "seed {seed}");
        assert_eq!(report.rejected(), 0, "seed {seed}: nothing is oversized");
        assert_eq!(
            report.completed() + report.failed() + report.timed_out(),
            16,
            "seed {seed}: {}",
            report.render()
        );
        let ids: BTreeSet<_> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), 16, "seed {seed}: duplicate terminal records");

        assert_no_leaks(&exec, &report.quarantined);

        // The per-device traces stay structurally sound under fault
        // pressure: serial engines, monotone dispatch, no op re-executed,
        // no overlapping retry of one logical tile op. The drain retires
        // the devices' traces, so the check reads the report's lanes,
        // which must hold every entry each device recorded.
        let lanes = &report.trace.as_ref().expect("tracing armed").lanes;
        assert_eq!(lanes.len(), exec.pool().device_count());
        for (d, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.device, d);
            assert!(!lane.entries.is_empty(), "seed {seed} dev{d}: empty lane");
            assert_eq!(
                lane.entries.len(),
                recorded[d],
                "seed {seed} dev{d}: the lane holds every entry of the drain"
            );
            if let Err(problems) = check_entries(&lane.entries) {
                panic!("seed {seed} dev{d} trace invariants: {problems:?}");
            }
        }

        // Determinism: the same seed replays to the same virtual schedule.
        let (again, _, _) = chaos_run(seed, 4);
        assert_eq!(
            report.makespan.as_nanos(),
            again.makespan.as_nanos(),
            "seed {seed} must replay bit-identically"
        );
        for (x, y) in report.outcomes.iter().zip(&again.outcomes) {
            assert_eq!(x.status, y.status, "seed {seed}: outcome diverged");
            assert_eq!(x.retries, y.retries, "seed {seed}: retries diverged");
        }

        saw_device_retry_completion |= report
            .outcomes
            .iter()
            .any(|o| o.retries > 0 && matches!(o.status, RequestStatus::Completed(_)));
        saw_host_fallback_completion |= report
            .outcomes
            .iter()
            .any(|o| o.host_fallback && matches!(o.status, RequestStatus::Completed(_)));
        quarantines += report.metrics.counter("quarantine_devices_total");
        redispatches += report.metrics.counter("quarantine_redispatch_total");
        tile_retries += report.metrics.counter("retry_tile_ops_total");
    }
    assert!(
        saw_device_retry_completion,
        "the soak must complete at least one request after a retry"
    );
    assert!(
        saw_host_fallback_completion,
        "the soak must complete at least one request on the host"
    );
    assert!(quarantines >= 1, "the soak must quarantine a device");
    assert!(
        redispatches >= 1,
        "the soak must re-dispatch after quarantine"
    );
    assert!(
        tile_retries >= 1,
        "the soak must see scheduler-level retries"
    );
}
