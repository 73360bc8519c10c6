//! Open-arrival serving end to end: the acceptance bars for the
//! `ServeSession` API. Seeded Poisson overload keeps the queue bounded
//! through admission shedding and replays bit-identically; coalescing
//! repeated identical-shape arrivals uploads strictly fewer h2d bytes
//! and beats the non-coalesced makespan; the shed watermark prices warm
//! operands as resident; and under random fault plans a
//! session drain replays bit-identically, gives every request exactly one
//! terminal outcome, and leaks no buffer. A residency miss fills through
//! the request's own tile pipeline: exactly the operand's bytes, each
//! region once, ahead of every kernel that reads it; a failed fill is
//! never cached, and a won hedge keeps only what its primary finished.

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{
    testbed_i, DegradeWindow, EngineKind, ExecMode, FaultSpec, NoiseSpec, OperandRole, Routine,
    SimTime, TestbedSpec, TraceEntry,
};
use cocopelia_obs::SpanPhase;
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, RequestStatus, ServeOptions, ServeReport, ServeSession,
    TelemetryConfig,
};
use cocopelia_runtime::{
    AxpyRequest, GemmRequest, MatArg, MatOperand, MultiGpu, RoutineRequest, SharedMat, SharedVec,
    TileChoice, VecOperand,
};
use cocopelia_xp::ArrivalSpec;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const MB: usize = 1 << 20;

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

/// Free transfers and no exec tables: scheduling runs on its degraded
/// paths while the gpusim still charges virtual time for the work.
fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "open-test",
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

fn ghost_gemm(n: usize) -> GemmRequest<f64> {
    GemmRequest::<f64>::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
}

/// An identical-shape request sharing `A` and `B`: every instance keys
/// the same coalesce class and the same residency entries.
fn shared_gemm() -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new("A", 1024, 1024),
        SharedMat::new("B", 1024, 1024),
        ghost(1024),
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
    .into()
}

/// 64 seeded Poisson arrivals at 10 MHz into a 2-device pool with a
/// queue cap of 8: the arrival rate dwarfs the service rate, so the
/// drain must shed.
fn overload_run(opts: ServeOptions) -> ServeReport {
    let mut session =
        ServeSession::with_options(pool(2), ExecutorConfig::default(), opts).expect("session");
    let times = ArrivalSpec::poisson(1e7, 42).times(64);
    for at in times {
        session.submit_at(ghost_gemm(1024), at);
    }
    session.drain()
}

#[test]
fn poisson_overload_sheds_keeps_the_queue_bounded_and_replays_bit_identically() {
    // Acceptance bar (a): under seeded overload the queue depth stays at
    // or below the cap via admission shedding, every arrival terminates
    // (completed or rejected, nothing lost), and a replay with the same
    // seed is bit-identical.
    let run = || overload_run(ServeOptions::new().queue_cap(8));
    let a = run();
    assert_eq!(a.outcomes.len(), 64, "every arrival reaches an outcome");
    assert!(a.rejected() > 0, "overload must shed");
    assert!(a.completed() > 0, "admitted requests still complete");
    assert_eq!(a.completed() + a.rejected(), 64);
    assert!(
        a.peak_queue_depth <= 8,
        "cap bounds the queue: peak {}",
        a.peak_queue_depth
    );
    assert_eq!(
        a.metrics.counter("serve_shed_total"),
        a.rejected() as u64,
        "every rejection here is a backpressure shed"
    );
    assert_eq!(
        a.metrics.counter("serve_rejected_total"),
        a.rejected() as u64
    );
    for o in &a.outcomes {
        if let RequestStatus::Rejected { reason } = &o.status {
            assert!(reason.contains("queue full"), "{reason}");
            assert!(o.device.is_none());
        }
    }

    let b = run();
    assert_eq!(a.makespan.as_nanos(), b.makespan.as_nanos());
    assert_eq!(a.per_device_busy, b.per_device_busy);
    assert_eq!(a.render(), b.render(), "replay must be bit-identical");
}

#[test]
fn shed_watermark_bounds_predicted_flow_time() {
    // The flow-time watermark is the second shedding lever: a watermark
    // far above any backlog admits everything; a sub-microsecond one
    // sheds every arrival whose own service estimate already exceeds it.
    let generous = overload_run(ServeOptions::new().shed_flow_secs(10.0));
    assert_eq!(generous.rejected(), 0);
    assert_eq!(generous.completed(), 64);

    let mut session = ServeSession::with_options(
        pool(1),
        ExecutorConfig::default(),
        ServeOptions::new().shed_flow_secs(1e-9),
    )
    .expect("session");
    for i in 0..4u64 {
        session.submit_at(shared_gemm(), SimTime::from_nanos(1_000 + i));
    }
    let report = session.drain();
    assert_eq!(
        report.rejected(),
        4,
        "every arrival predicted over the watermark"
    );
    assert_eq!(report.completed(), 0);
    assert_eq!(report.metrics.counter("serve_shed_total"), 4);
    for o in &report.outcomes {
        let RequestStatus::Rejected { reason } = &o.status else {
            panic!("expected rejection, got {:?}", o.status);
        };
        assert!(reason.contains("predicted flow"), "{reason}");
    }
}

#[test]
fn coalescing_uploads_strictly_fewer_bytes_and_beats_the_baseline_makespan() {
    // Acceptance bar (b): six identical-shape arrivals land in one
    // admission batch. Coalesced, one leader executes and five ride
    // along — half the uploaded bytes (one device's A+B instead of both
    // devices') and a makespan of one gemm instead of three per device.
    let run = |coalesce: bool| {
        let opts = if coalesce {
            ServeOptions::new().coalesce()
        } else {
            ServeOptions::new()
        };
        let mut session =
            ServeSession::with_options(pool(2), ExecutorConfig::default(), opts).expect("session");
        for _ in 0..6 {
            session.submit_at(shared_gemm(), SimTime::from_nanos(1_000));
        }
        session.drain()
    };
    let base = run(false);
    let coal = run(true);

    assert_eq!(base.completed(), 6);
    assert_eq!(base.coalesced(), 0);
    assert_eq!(coal.completed(), 6, "followers complete through the leader");
    assert_eq!(coal.coalesced(), 5);
    assert_eq!(coal.metrics.counter("serve_coalesced_total"), 5);

    let up_base = base.metrics.counter("residency_bytes_uploaded");
    let up_coal = coal.metrics.counter("residency_bytes_uploaded");
    assert!(
        up_coal < up_base,
        "coalescing must upload strictly fewer h2d bytes: {up_coal} vs {up_base}"
    );
    assert_eq!(up_coal, (16 * MB) as u64, "one device's A+B only");
    assert_eq!(
        up_base,
        (32 * MB) as u64,
        "baseline uploads A+B on both devices"
    );

    let m_base = base.makespan.as_secs_f64();
    let m_coal = coal.makespan.as_secs_f64();
    assert!(
        m_coal < m_base,
        "coalesced makespan must strictly beat the baseline: {m_coal} vs {m_base}"
    );

    // Work accounting counts the single execution once: the leader's
    // flops, not six copies of them.
    let one = 2.0 * 1024f64.powi(3);
    assert!(
        (coal.total_flops - one).abs() < 1.0,
        "leader-only flops: {}",
        coal.total_flops
    );
    assert!((base.total_flops - 6.0 * one).abs() < 1.0);
}

#[test]
fn rejections_land_in_windowed_counters_and_leak_no_buffers() {
    // Satellite: the telemetry pipeline sees every shed — the windowed
    // `rejected` counters sum to the report's count — and a rejected
    // request leaves nothing behind on any device.
    let report = overload_run(ServeOptions::new().queue_cap(4).telemetry(TelemetryConfig {
        window: SimTime::from_secs_f64(1e-3),
        ..TelemetryConfig::default()
    }));
    assert!(report.rejected() > 0);
    let tele = report.telemetry.as_ref().expect("telemetry armed");
    let windowed: u64 = tele.windows.iter().map(|w| w.rejected).sum();
    assert_eq!(
        windowed,
        report.rejected() as u64,
        "every shed lands in a window's rejected counter"
    );
    let finished: u64 = tele.windows.iter().map(|w| w.finished).sum();
    assert_eq!(finished, report.completed() as u64);

    // No buffer leaks on reject: live device buffers are exactly the
    // residency caches' contents.
    let mut session = ServeSession::with_options(
        pool(2),
        ExecutorConfig::default(),
        ServeOptions::new().queue_cap(4),
    )
    .expect("session");
    for at in ArrivalSpec::poisson(1e7, 42).times(64) {
        session.submit_at(shared_gemm(), at);
    }
    let report = session.drain();
    assert!(report.rejected() > 0);
    for d in 0..session.pool().device_count() {
        let live: BTreeSet<_> = session.pool().devices()[d]
            .gpu()
            .live_device_buffers()
            .into_iter()
            .collect();
        let cached: BTreeSet<_> = session.residency(d).device_buffers().into_iter().collect();
        assert_eq!(live, cached, "dev{d} must hold exactly its cached operands");
    }
}

/// The residency-aware service estimate: under a shed watermark sized
/// between the warm and cold costs of the same request, the arrival whose
/// shared operand is already resident is admitted while the identical-
/// shape cold arrival is shed. (Pricing every shared operand as a fresh
/// upload against device 0 would spuriously reject warm repeat traffic.)
#[test]
fn residency_warm_arrival_admitted_while_cold_twin_sheds() {
    let tb = quiet();
    let n = 2048usize; // 2 x 32 MiB shared inputs: upload dominates the estimate.
    let upload_secs = 2.0 * tb.link.h2d.ideal_time(n * n * 8);
    let gemm = |prefix: &str| -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new(format!("{prefix}_a"), n, n),
            SharedMat::new(format!("{prefix}_b"), n, n),
            ghost(n),
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .into()
    };

    let opts = ServeOptions::new().shed_flow_secs(upload_secs / 2.0);
    let mut exec =
        ServeSession::with_options(pool(1), ExecutorConfig::default(), opts).expect("session");

    // Closed-queue warm-up (the watermark governs arrivals only).
    exec.submit(gemm("warm"));
    let warmup = exec.drain();
    assert!(warmup
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));

    let warm_id = exec.submit_at(gemm("warm"), SimTime::from_nanos(0));
    let cold_id = exec.submit_at(gemm("cold"), SimTime::from_nanos(1));
    let report = exec.drain();
    let status = |id| {
        &report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .expect("outcome present")
            .status
    };
    assert!(
        matches!(status(warm_id), RequestStatus::Completed(_)),
        "warm repeat arrival must be admitted: {:?}",
        status(warm_id)
    );
    assert!(
        matches!(status(cold_id), RequestStatus::Rejected { .. }),
        "cold twin must shed on the same watermark: {:?}",
        status(cold_id)
    );
}

/// A session carries no request state from one drain into the next: the
/// second of two seeded Poisson drains on one session (coalescing, the
/// shed watermark and tracing armed) places every queue span at its own
/// arrival, links each executed request's flow exactly once, coalesces
/// only onto its own leaders, and settles exactly what it submitted.
#[test]
fn a_second_drain_inherits_no_request_state() {
    let opts = ServeOptions::new()
        .coalesce()
        .shed_flow_secs(20e-3)
        .tracing();
    let mut session =
        ServeSession::with_options(pool(2), ExecutorConfig::default(), opts).expect("session");
    let submit = |session: &mut ServeSession, seed: u64| -> Vec<(u64, SimTime)> {
        let times = ArrivalSpec::poisson(2e3, seed).times(24);
        times
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let req = if i % 3 == 0 {
                    ghost_gemm(1024).into()
                } else {
                    shared_gemm()
                };
                (session.submit_at(req, at).0, at)
            })
            .collect()
    };
    submit(&mut session, 7);
    let first = session.drain();
    assert!(first.coalesced() > 0, "the first drain coalesces");

    let arrivals = submit(&mut session, 8);
    let t0 = session
        .pool()
        .devices()
        .iter()
        .map(|d| d.gpu().now().as_nanos())
        .min()
        .expect("devices");
    let report = session.drain();
    let trace = report.trace.as_ref().expect("tracing armed");
    assert_eq!(report.outcomes.len(), arrivals.len(), "one outcome each");
    assert!(report.coalesced() > 0, "the second drain coalesces too");
    for s in trace.spans.iter().filter(|s| s.phase == SpanPhase::Queued) {
        let &(_, at) = arrivals
            .iter()
            .find(|a| a.0 == s.request)
            .expect("queue spans belong to this drain's requests");
        assert_eq!(
            s.start_ns,
            t0 + at.as_nanos(),
            "r{} queued from arrival",
            s.request
        );
    }
    for o in &report.outcomes {
        if o.coalesced || matches!(o.status, RequestStatus::Rejected { .. }) {
            continue;
        }
        let linked = trace
            .spans
            .iter()
            .filter(|s| s.flow == Some(o.id.0))
            .count();
        assert_eq!(
            linked, 2,
            "r{}: queue span and first run share the flow",
            o.id.0
        );
    }
    for s in trace
        .spans
        .iter()
        .filter(|s| s.phase == SpanPhase::Coalesce)
    {
        let leader: u64 = s
            .label
            .strip_prefix("coalesced into r")
            .and_then(|l| l.parse().ok())
            .expect("coalesce label names the leader");
        assert!(
            arrivals.iter().any(|a| a.0 == leader),
            "r{} coalesced onto r{leader} from the previous drain",
            s.request
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Whatever seeded fault pressure the pool is under — transient
    /// links, flaky kernels, even devices that die outright — a
    /// closed-queue drain is deterministic (two same-seed sessions agree
    /// bit for bit on timing, accounting, outcomes, and quarantine
    /// state), gives every submitted request exactly one terminal
    /// outcome, and leaves no buffer beyond the residency caches (a
    /// quarantined device holds nothing).
    #[test]
    fn session_drain_is_deterministic_and_leak_free_under_fault_plans(
        seed in 0u64..1000,
        h2d in 0.0f64..0.3,
        kernel in 0.0f64..0.3,
        lost_after_n in 0u64..4,
        n in 4usize..9,
    ) {
        // 0 encodes "never lost"; 1..4 lose the device after that many
        // injected faults.
        let spec = FaultSpec {
            seed,
            h2d,
            kernel,
            lost_after: (lost_after_n > 0).then_some(lost_after_n),
            ..FaultSpec::none()
        };
        let run = || {
            let pool = MultiGpu::with_fault_plans(
                &quiet(),
                ExecMode::TimingOnly,
                42,
                dummy_profile(),
                &spec.per_device(2),
            );
            let mut session = ServeSession::new(pool, ExecutorConfig::default());
            let ids: Vec<u64> = (0..n)
                .map(|i| {
                    let req = if i % 3 == 0 {
                        shared_gemm()
                    } else {
                        ghost_gemm(if i % 2 == 0 { 2048 } else { 1024 }).into()
                    };
                    session.submit(req).0
                })
                .collect();
            let report = session.drain();
            (session, ids, report)
        };
        let (session, ids, a) = run();
        let (_, _, b) = run();

        prop_assert_eq!(a.makespan.as_nanos(), b.makespan.as_nanos());
        prop_assert_eq!(&a.per_device_busy, &b.per_device_busy);
        prop_assert_eq!(a.total_flops.to_bits(), b.total_flops.to_bits());
        prop_assert_eq!(a.host_flops.to_bits(), b.host_flops.to_bits());
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(&a.quarantined, &b.quarantined);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(a.peak_queue_depth, b.peak_queue_depth);

        let mut terminal: Vec<u64> = a.outcomes.iter().map(|o| o.id.0).collect();
        terminal.sort_unstable();
        prop_assert_eq!(terminal, ids, "exactly one terminal outcome per request");

        let quarantined = session.quarantined();
        for (d, dev) in session.pool().devices().iter().enumerate() {
            let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
            let expect: BTreeSet<_> = if quarantined.contains(&d) {
                BTreeSet::new()
            } else {
                session.residency(d).device_buffers().into_iter().collect()
            };
            prop_assert_eq!(live, expect, "dev{} holds buffers beyond its cache", d);
            prop_assert!(dev.gpu().live_host_buffers().is_empty(), "dev{} pins host buffers", d);
        }
    }
}

// ---------------------------------------------------------------------------
// Residency misses fill through the request's own tile pipeline.
// ---------------------------------------------------------------------------

/// The engine entries device `d` ran in a traced drain.
fn lane(report: &ServeReport, d: usize) -> Vec<TraceEntry> {
    let trace = report.trace.as_ref().expect("tracing armed");
    trace.lanes[d].entries.iter().cloned().collect()
}

/// The h2d copies in `entries` that move operand `role`.
fn copies_of(entries: &[TraceEntry], role: OperandRole) -> Vec<TraceEntry> {
    entries
        .iter()
        .filter(|e| e.engine == EngineKind::CopyH2d && e.tag.and_then(|t| t.operand) == Some(role))
        .cloned()
        .collect()
}

/// Bytes the copies in `entries` moved.
fn bytes<'a>(entries: impl IntoIterator<Item = &'a TraceEntry>) -> usize {
    entries.into_iter().filter_map(TraceEntry::bytes).sum()
}

/// Drains `reqs` through a traced one-device session on `pool`.
fn traced_drain(pool: MultiGpu, reqs: Vec<RoutineRequest>) -> (ServeReport, ServeSession) {
    let opts = ServeOptions::new().tracing();
    let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), opts).unwrap();
    for req in reqs {
        session.submit(req);
    }
    let report = session.drain();
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));
    (report, session)
}

/// A 1024³ dgemm at tile 512 over `a` and `b`, with a private `C`.
fn gemm_over(a: impl Into<MatArg<f64>>, b: impl Into<MatArg<f64>>) -> RoutineRequest {
    GemmRequest::<f64>::new(a, b, ghost(1024))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .into()
}

#[test]
fn a_miss_moves_exactly_the_operands_bytes_in_tagged_tile_copies() {
    let (report, session) = traced_drain(
        pool(1),
        vec![gemm_over(SharedMat::new("A", 1024, 1024), ghost(1024))],
    );
    let entries = lane(&report, 0);
    let operand = 1024 * 1024 * 8;
    let a = copies_of(&entries, OperandRole::A);
    assert_eq!(a.len(), 4, "one copy per 512² tile of A");
    assert_eq!(bytes(&a), operand, "the fill moves A's bytes once");
    let h2d: Vec<_> = entries
        .iter()
        .filter(|e| e.engine == EngineKind::CopyH2d)
        .collect();
    assert!(
        h2d.iter()
            .all(|e| e.tag.is_some_and(|t| t.operand.is_some())),
        "no untagged whole-operand upload remains"
    );
    assert_eq!(
        bytes(h2d),
        3 * operand,
        "A filled, B and C fetched, once each"
    );
    assert_eq!(report.metrics.counter("residency_misses_total"), 1);
    assert_eq!(session.residency(0).used_bytes(), operand);
}

#[test]
fn one_key_used_twice_copies_each_region_once() {
    let m = || SharedMat::new("M", 1024, 1024);
    let (report, session) = traced_drain(pool(1), vec![gemm_over(m(), m())]);
    let entries = lane(&report, 0);
    let (a, b) = (
        copies_of(&entries, OperandRole::A),
        copies_of(&entries, OperandRole::B),
    );
    assert_eq!(a.len() + b.len(), 4, "each 512² region of M copied once");
    assert_eq!(bytes(&a) + bytes(&b), 1024 * 1024 * 8);
    assert_eq!(report.metrics.counter("residency_misses_total"), 1);
    assert_eq!(report.metrics.counter("residency_hits_total"), 1);
    assert_eq!(session.residency(0).len(), 1);
}

#[test]
fn no_kernel_starts_before_the_fill_copies_of_its_tiles_end() {
    let n = 1 << 20;
    let m = || SharedMat::new("M", 1024, 1024);
    let daxpy = AxpyRequest::<f64>::new(SharedVec::new("X", n), VecOperand::HostGhost { len: n })
        .tile(TileChoice::Fixed(n / 4))
        .into();
    let reqs = vec![
        gemm_over(
            SharedMat::new("A", 1024, 1024),
            SharedMat::new("B", 1024, 1024),
        ),
        gemm_over(m(), m()),
        daxpy,
    ];
    let (report, _) = traced_drain(pool(1), reqs);
    let entries = lane(&report, 0);
    let fill = |call: u32, role: OperandRole, tile: (u32, u32)| {
        entries.iter().find(|e| {
            e.engine == EngineKind::CopyH2d
                && e.tag
                    .is_some_and(|t| (t.call, t.operand, t.tile) == (call, Some(role), tile))
        })
    };
    // The gemm kernels on output tile (i, j) run p = 0, 1 in order and
    // read A(i, p) and B(p, j); M·M copies each region of M under
    // whichever role read it first. The daxpy kernel on chunk i reads X(i).
    let mut depth: HashMap<(u32, (u32, u32)), u32> = HashMap::new();
    let mut kernels = 0;
    for k in entries.iter().filter(|e| e.engine == EngineKind::Compute) {
        let t = k.tag.expect("scheduled kernels are tagged");
        let reads = if t.routine == Routine::Gemm {
            let p = depth.entry((t.call, t.tile)).or_insert(0);
            let (a, b) = ((t.tile.0, *p), (*p, t.tile.1));
            *p += 1;
            let (ra, rb) = (OperandRole::A, OperandRole::B);
            vec![
                fill(t.call, ra, a).or(fill(t.call, rb, a)),
                fill(t.call, rb, b).or(fill(t.call, ra, b)),
            ]
        } else {
            vec![fill(t.call, OperandRole::X, t.tile)]
        };
        for c in reads {
            let c = c.unwrap_or_else(|| panic!("no fill copy of a tile kernel {k:?} reads"));
            assert!(
                c.end <= k.start,
                "kernel {k:?} starts before fill {c:?} ends"
            );
        }
        kernels += 1;
    }
    assert_eq!(kernels, 8 + 8 + 4);
}

/// `A`'s fill copies per attempt, in call order.
fn fills_per_call(report: &ServeReport) -> Vec<Vec<TraceEntry>> {
    let mut calls: Vec<(u32, Vec<TraceEntry>)> = Vec::new();
    for c in copies_of(&lane(report, 0), OperandRole::A) {
        let call = c.tag.expect("fill copies are tagged").call;
        match calls.iter_mut().find(|(k, _)| *k == call) {
            Some((_, v)) => v.push(c),
            None => calls.push((call, vec![c])),
        }
    }
    calls.into_iter().map(|(_, v)| v).collect()
}

#[test]
fn a_fault_mid_fill_leaves_no_entry_and_the_retry_fills_again() {
    // One request over shared `A` (four 512² fill copies) on one device.
    let spec = FaultSpec {
        seed: FAULT_SEED,
        h2d: 0.3,
        ..FaultSpec::none()
    };
    let pool =
        MultiGpu::with_fault_plans(&quiet(), ExecMode::TimingOnly, 42, dummy_profile(), &[spec]);
    let opts = ServeOptions::new().tracing();
    let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), opts).unwrap();
    session.submit(gemm_over(SharedMat::new("A", 1024, 1024), ghost(1024)));
    let report = session.drain();
    let outcome = &report.outcomes[0];
    assert!(
        matches!(outcome.status, RequestStatus::Completed(_)),
        "{:?}",
        outcome.status
    );
    assert_eq!(outcome.retries, 1, "one request-level retry");
    assert!(!outcome.host_fallback, "the device serves the retry");

    let fills = fills_per_call(&report);
    assert_eq!(fills.len(), 2, "two attempts copy A");
    assert!(
        !fills[0].is_empty() && fills[0].len() < 4,
        "attempt 1 exhausts a copy's three tries mid-fill ({} of 4 copies)",
        fills[0].len()
    );
    assert_eq!(
        report.metrics.counter("residency_misses_total"),
        2,
        "a partial fill is never cached, so the retry misses again"
    );
    assert_eq!(bytes(&fills[1]), 1024 * 1024 * 8, "the retry fills A again");
    assert_eq!(
        report.metrics.counter("residency_bytes_uploaded"),
        1024 * 1024 * 8,
        "only the fill that completed counts as uploaded"
    );

    let gpu = session.pool().devices()[0].gpu();
    assert!(gpu.fault_stats().h2d_faults >= 3);
    let live: BTreeSet<_> = gpu.live_device_buffers().into_iter().collect();
    let cached: BTreeSet<_> = session.residency(0).device_buffers().into_iter().collect();
    assert_eq!(live, cached, "the partial buffer is freed");
    assert_eq!(session.residency(0).len(), 1);
    assert!(
        gpu.live_host_buffers().is_empty(),
        "both fills' ghosts are released"
    );
}

/// Seed of [`a_fault_mid_fill_leaves_no_entry_and_the_retry_fills_again`]'s
/// h2d faults: its first attempt faults three times in a row after two of
/// A's four fill copies, and its retry fills A.
const FAULT_SEED: u64 = 32;

#[test]
fn a_won_hedge_keeps_only_the_entries_its_primary_finished_filling() {
    // dev0's link drops to 1% at 10 ms, after the primary's first row
    // block has filled all of B but one tile of A; dev1 stays clean, so
    // the hedge it runs wins and cancels the primary mid-fill.
    let tb = quiet();
    let profile = deploy(&tb, &DeployConfig::quick()).unwrap().profile;
    let slow = FaultSpec {
        degrade: vec![DegradeWindow {
            start_s: 0.01,
            end_s: 100.0,
            factor: 0.01,
        }],
        ..FaultSpec::none()
    };
    let plans = [slow, FaultSpec::none()];
    let pool = MultiGpu::with_fault_plans(&tb, ExecMode::TimingOnly, 42, profile, &plans);
    let opts = ServeOptions::new().tracing().hedge(HedgeConfig::default());
    let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), opts).unwrap();
    session.submit(
        GemmRequest::<f64>::new(
            SharedMat::new("A", 4096, 1024),
            SharedMat::new("B", 1024, 1024),
            MatOperand::HostGhost {
                rows: 4096,
                cols: 1024,
            },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(1024)),
    );
    let report = session.drain();
    assert_eq!(report.metrics.counter("hedge_wins_total"), 1);
    assert_eq!(report.outcomes[0].device, Some(1));
    let trace = report.trace.as_ref().unwrap();
    let cancel_ns = trace
        .spans
        .iter()
        .find(|s| s.phase == SpanPhase::Cancel && s.device == Some(0))
        .expect("the primary on dev0 was cancelled")
        .start_ns;

    // The primary filled B's one tile before the instant, but not all four
    // of A's: B stays resident on dev0, A is rolled back.
    let entries = lane(&report, 0);
    let (a, b) = (
        copies_of(&entries, OperandRole::A),
        copies_of(&entries, OperandRole::B),
    );
    assert_eq!(b.len(), 1);
    assert!(b.iter().all(|c| c.end.as_nanos() < cancel_ns));
    let a_done = a.iter().filter(|c| c.end.as_nanos() < cancel_ns).count();
    assert!(a_done < 4, "A's fill was cut off ({a_done} of 4 tiles)");
    assert_eq!(session.residency(0).len(), 1);
    assert_eq!(session.residency(0).used_bytes(), 1024 * 1024 * 8);
    assert_eq!(session.residency(1).len(), 2, "the winner keeps both");
    for (d, dev) in session.pool().devices().iter().enumerate() {
        let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
        let cached: BTreeSet<_> = session.residency(d).device_buffers().into_iter().collect();
        assert_eq!(live, cached, "dev{d} holds buffers beyond its cache");
        assert!(
            dev.gpu().live_host_buffers().is_empty(),
            "dev{d} pins host buffers"
        );
    }
}
