//! The serve tracing pipeline end to end: request-lifecycle spans from
//! real executor runs satisfy the span invariants, the Perfetto export
//! round-trips through the decoder with the track topology viewers
//! expect, the timeline renders every device and the fault glyphs,
//! tracing never perturbs virtual timing, and the standard serve
//! scenarios (chaos, degraded link, open arrivals, plus a won hedge and a
//! probation readmission) replay to pinned goldens.

use std::cell::RefCell;
use std::rc::Rc;

use cocopelia_gpusim::{testbed_i, FaultSpec, SimTime};
use cocopelia_obs::perfetto::{decode::decode_trace, to_perfetto};
use cocopelia_obs::timeline::{render, TimelineOptions};
use cocopelia_obs::{check_spans, ServeTrace, SloSpec, SpanPhase};
use cocopelia_runtime::serve::{
    HedgeConfig, ProbationConfig, SchedulePolicy, ServeOptions, TelemetryConfig,
};
use cocopelia_runtime::RoutineRequest;
use cocopelia_xp::{
    chaos_fault_spec, chaos_request_trace, run_serve, standard_request_trace,
    straggler_fault_plans, straggler_request_trace, ArrivalSpec, ServeComparison,
};

#[path = "support/golden.rs"]
mod golden;
use golden::{assert_golden, fnv1a64};

fn traced_run(
    devices: usize,
    trace: Vec<cocopelia_runtime::RoutineRequest>,
    faults: &FaultSpec,
    policy: SchedulePolicy,
) -> ServeComparison {
    run_serve(
        &testbed_i(),
        &faults.per_device(devices),
        trace,
        None,
        ServeOptions::new().policy(policy).tracing(),
    )
    .expect("traced serve run succeeds")
}

fn serve_trace(cmp: &ServeComparison) -> &ServeTrace {
    cmp.report.trace.as_ref().expect("tracing was enabled")
}

#[test]
fn standard_run_perfetto_has_expected_track_topology() {
    let cmp = traced_run(
        2,
        standard_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Predictive,
    );
    let trace = serve_trace(&cmp);
    check_spans(&trace.spans).expect("span invariants hold on the standard run");

    let decoded = decode_trace(&to_perfetto(trace)).expect("exporter output decodes");

    // One serve process plus one process per device.
    let processes = decoded.process_tracks();
    assert!(
        processes.len() >= 3,
        "expected serve + 2 device processes, got {}",
        processes.len()
    );
    for dev in ["dev0", "dev1"] {
        let proc = processes
            .iter()
            .find(|p| p.process_name.as_deref() == Some(dev))
            .unwrap_or_else(|| panic!("missing process track for {dev}"));
        let pid = proc.pid.expect("process track carries a pid");
        let threads = decoded.thread_tracks_of(pid);
        assert!(
            threads.len() >= 3,
            "{dev} needs h2d/exec/d2h engine threads, got {threads:?}"
        );
        for engine in ["h2d", "exec", "d2h"] {
            assert!(
                threads
                    .iter()
                    .any(|t| t.thread_name.as_deref() == Some(engine)),
                "{dev} missing {engine} thread track"
            );
        }
    }

    // At least one flow links the queue track to a device-side track.
    let queue_uuid = track_named(&decoded, "queue");
    let queue_flows: Vec<u64> = decoded
        .events_on(queue_uuid)
        .iter()
        .flat_map(|e| e.flows.iter().copied())
        .collect();
    assert!(!queue_flows.is_empty(), "queue events carry flow ids");
    let linked = decoded
        .events
        .iter()
        .any(|e| e.track_uuid != queue_uuid && e.flows.iter().any(|f| queue_flows.contains(f)));
    assert!(linked, "no device event shares a flow id with the queue");

    // Timestamps stay monotone per track across the whole decode.
    for desc in &decoded.descriptors {
        let events = decoded.events_on(desc.uuid);
        for pair in events.windows(2) {
            assert!(
                pair[0].ts_ns <= pair[1].ts_ns,
                "track {} timestamps regress: {} then {}",
                desc.name,
                pair[0].ts_ns,
                pair[1].ts_ns
            );
        }
    }
}

fn track_named(decoded: &cocopelia_obs::perfetto::decode::DecodedTrace, name: &str) -> u64 {
    decoded
        .descriptors
        .iter()
        .find(|d| d.name == name || d.thread_name.as_deref() == Some(name))
        .unwrap_or_else(|| panic!("missing track named {name}"))
        .uuid
}

#[test]
fn chaos_run_spans_hold_invariants_and_timeline_shows_faults() {
    let cmp = traced_run(
        2,
        chaos_request_trace(3),
        &chaos_fault_spec(11),
        SchedulePolicy::Predictive,
    );
    let trace = serve_trace(&cmp);
    check_spans(&trace.spans).expect("span invariants hold under chaos");

    // The chaos plan actually exercised the fault machinery.
    let faulted = trace.spans.iter().any(|s| {
        matches!(
            s.phase,
            SpanPhase::Retry | SpanPhase::Quarantine | SpanPhase::HostFallback
        )
    });
    assert!(
        faulted,
        "chaos run produced no retry/quarantine/fallback spans"
    );

    let text = render(
        trace,
        &TimelineOptions {
            width: 100,
            color: false,
        },
    );
    assert!(text.contains("dev0"), "timeline missing dev0 row:\n{text}");
    assert!(text.contains("dev1"), "timeline missing dev1 row:\n{text}");
    assert!(
        text.contains('!') || text.contains('Q') || text.contains('H'),
        "timeline missing fault glyphs:\n{text}"
    );

    // The chaos trace still decodes as a valid perfetto stream.
    let decoded = decode_trace(&to_perfetto(trace)).expect("chaos trace decodes");
    assert!(decoded.packets > 0);
}

#[test]
fn re_issued_attempts_never_overlap_per_request() {
    let cmp = traced_run(
        2,
        chaos_request_trace(3),
        &chaos_fault_spec(23),
        SchedulePolicy::Fifo,
    );
    let trace = serve_trace(&cmp);
    // check_spans enforces this globally; assert it directly per request
    // so a future invariant relaxation can't silently weaken the bar.
    for span in &trace.spans {
        if !matches!(
            span.phase,
            SpanPhase::Dispatch | SpanPhase::Retry | SpanPhase::HostFallback
        ) {
            continue;
        }
        for other in trace.request_spans(span.request) {
            if std::ptr::eq(span, other)
                || !matches!(
                    other.phase,
                    SpanPhase::Dispatch | SpanPhase::Retry | SpanPhase::HostFallback
                )
            {
                continue;
            }
            let disjoint = span.end_ns <= other.start_ns || other.end_ns <= span.start_ns;
            assert!(
                disjoint,
                "request {} attempts overlap: {:?} vs {:?}",
                span.request, span, other
            );
        }
    }
}

#[test]
fn chrome_export_gives_each_device_its_own_pid() {
    let cmp = traced_run(
        2,
        standard_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Fifo,
    );
    let json = cocopelia_obs::export::serve_trace_to_chrome(serve_trace(&cmp))
        .expect("chrome export succeeds");
    // pid 10 and 11 are dev0/dev1; pid 1 is the serve process.
    assert!(json.contains("\"pid\":10"), "missing dev0 pid");
    assert!(json.contains("\"pid\":11"), "missing dev1 pid");
    assert!(json.contains("\"pid\":1,"), "missing serve pid");
    assert!(json.contains("process_name"));
}

#[test]
fn windows_are_monotone_and_tracing_leaves_timing_unchanged() {
    let traced = traced_run(
        2,
        standard_request_trace(),
        &FaultSpec::none(),
        SchedulePolicy::Predictive,
    );
    let run = |options: ServeOptions| {
        run_serve(
            &testbed_i(),
            &FaultSpec::none().per_device(2),
            standard_request_trace(),
            None,
            options.policy(SchedulePolicy::Predictive),
        )
        .expect("serve run succeeds")
    };
    let plain = run(ServeOptions::new());
    let watched = run(ServeOptions::new().telemetry(TelemetryConfig {
        window: SimTime::from_secs_f64(5e-3),
        ..TelemetryConfig::default()
    }));
    assert_eq!(
        traced.report.makespan, plain.report.makespan,
        "tracing must not perturb virtual timing"
    );
    assert_eq!(
        watched.report.makespan, plain.report.makespan,
        "telemetry must not perturb virtual timing"
    );
    assert!(plain.report.trace.is_none());
    assert!(plain.report.telemetry.is_none());

    // Telemetry windows are the one periodic sample of a drain.
    let windows = &watched
        .report
        .telemetry
        .as_ref()
        .expect("telemetry armed")
        .windows;
    assert!(windows.len() > 1, "5 ms windows on a >5 ms run close");
    for pair in windows.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "windows tile the drain");
        assert!(pair[0].start < pair[1].start, "window starts increase");
    }
    assert_eq!(
        windows.last().expect("non-empty").end,
        plain.report.makespan
    );
    assert!(windows[0].queue_depth <= standard_request_trace().len());
    let finished: u64 = windows.iter().map(|w| w.finished).sum();
    assert_eq!(finished as usize, plain.report.outcomes.len());
}

/// The seven SLO kinds the watched scenarios arm.
const SCENARIO_SLOS: &str = "deadline_miss<=0,flow_p95<=0.05,flow_p99<=0.08,fault_rate<=0.2,\
                             quarantined<=0,rejected<=0,hedge_rate<=0.1";

/// Probation as `serve --probation 5` arms it: 5 ms backoff, seeded by
/// the CLI's default seed.
fn probation_5ms() -> ProbationConfig {
    ProbationConfig {
        backoff: SimTime::from_secs_f64(5e-3),
        seed: 1,
        ..ProbationConfig::default()
    }
}

/// One export pinned as its length and digest.
fn digest_line(what: &str, bytes: &[u8]) -> String {
    format!("{what} {} fnv1a64={:016x}\n", bytes.len(), fnv1a64(bytes))
}

/// Serves `trace` on Testbed I's pool under the per-device fault `plans`
/// as `cocopelia serve` does for one scenario, and pins it in
/// `tests/golden/<name>`: the traced run's report text, the baseline's
/// exact seconds and both trace exports; with `slos`, also a `--watch`
/// run's window lines, report text and streamed Perfetto file; last, the
/// summary lines the CLI prints after the traced run's report, as for
/// `--faults` `faults`. `options` builds the scenario's serving options
/// afresh for each run.
fn pin_serve_scenario(
    name: &str,
    faults: &FaultSpec,
    plans: &[FaultSpec],
    trace: fn() -> Vec<RoutineRequest>,
    arrivals: Option<&ArrivalSpec>,
    options: impl Fn() -> ServeOptions,
    slos: Option<&str>,
) {
    let serve = |options: ServeOptions| {
        run_serve(&testbed_i(), plans, trace(), arrivals, options).expect("scenario run succeeds")
    };
    let traced = serve(options().tracing());
    let trace = serve_trace(&traced);
    let chrome = cocopelia_obs::export::serve_trace_to_chrome(trace).expect("chrome export");
    let mut golden = traced.report.render();
    golden.push_str(&format!(
        "sequential_secs bits={:016x}\n",
        traced.sequential_secs.to_bits()
    ));
    golden.push_str(&digest_line("chrome", chrome.as_bytes()));
    golden.push_str(&digest_line("perfetto", &to_perfetto(trace)));

    if let Some(slos) = slos {
        let stream = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("serve_{name}_{}.pftrace", std::process::id()));
        let lines: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink_lines = Rc::clone(&lines);
        let watched = serve(
            options()
                .telemetry(TelemetryConfig {
                    slos: SloSpec::parse_list(slos).expect("valid slos"),
                    stream_path: Some(stream.clone()),
                    ..TelemetryConfig::default()
                })
                .watch_sink(move |w| sink_lines.borrow_mut().push(w.render())),
        );
        golden.push_str("== watch ==\n");
        for line in lines.borrow().iter() {
            golden.push_str(line);
            golden.push('\n');
        }
        golden.push_str(&watched.report.render());
        let bytes = std::fs::read(&stream).expect("stream file exists");
        let _ = std::fs::remove_file(&stream);
        golden.push_str(&digest_line("pftrace", &bytes));
    }
    golden.push_str("== summary ==\n");
    golden.push_str(&traced.render_summary(faults));
    assert_golden(name, &golden);
}

/// `serve --faults seed=3,h2d=0.3,kernel=0.3,lost_after=6 --probation 5`:
/// retries, quarantine, probes and host fallback.
#[test]
fn pinned_chaos_probation_scenario_is_unchanged() {
    let faults = FaultSpec::parse("seed=3,h2d=0.3,kernel=0.3,lost_after=6").expect("valid faults");
    pin_serve_scenario(
        "serve_chaos_probation.txt",
        &faults,
        &faults.per_device(2),
        standard_request_trace,
        None,
        || ServeOptions::new().probation(probation_5ms()),
        Some(SCENARIO_SLOS),
    );
}

/// `serve --faults degrade=0:40:0.05 --hedge 1.5 --probation 5 --policy
/// predictive`: hedged re-dispatch off a degraded link.
#[test]
fn pinned_degrade_hedge_scenario_is_unchanged() {
    let faults = FaultSpec::parse("degrade=0:40:0.05").expect("valid faults");
    pin_serve_scenario(
        "serve_degrade_hedge.txt",
        &faults,
        &faults.per_device(2),
        standard_request_trace,
        None,
        || {
            ServeOptions::new()
                .policy(SchedulePolicy::Predictive)
                .hedge(HedgeConfig { multiplier: 1.5 })
                .probation(probation_5ms())
        },
        Some(SCENARIO_SLOS),
    );
}

/// `serve --arrivals poisson:3000 --seed 5 --coalesce --shed-flow-ms 60
/// --queue-cap 6`: open arrivals with coalescing and shedding.
#[test]
fn pinned_open_arrivals_scenario_is_unchanged() {
    pin_serve_scenario(
        "serve_open_arrivals.txt",
        &FaultSpec::none(),
        &FaultSpec::none().per_device(2),
        standard_request_trace,
        Some(&ArrivalSpec::poisson(3000.0, 5)),
        || {
            ServeOptions::new()
                .queue_cap(6)
                .shed_flow_secs(60e-3)
                .coalesce()
        },
        None,
    );
}

/// `serve --faults seed=3,h2d=0.3,kernel=0.3 --probation 5`: the chaos
/// scenario without device loss, so quarantined devices pass their canary
/// probes and are readmitted.
#[test]
fn pinned_transient_readmission_scenario_is_unchanged() {
    let faults = FaultSpec::parse("seed=3,h2d=0.3,kernel=0.3").expect("valid faults");
    pin_serve_scenario(
        "serve_transient_readmission.txt",
        &faults,
        &faults.per_device(2),
        standard_request_trace,
        None,
        || ServeOptions::new().probation(probation_5ms()),
        Some(SCENARIO_SLOS),
    );
}

/// The straggler scenario (device 0's link at 1% inside repeating degrade
/// windows, 16 shared-operand dgemms) with default hedging: the hedge
/// fires and wins. Not expressible on the CLI (per-device fault plans).
#[test]
fn pinned_straggler_hedge_win_scenario_is_unchanged() {
    let plans = straggler_fault_plans(2, 11, 0.01);
    pin_serve_scenario(
        "serve_straggler_hedge_win.txt",
        &plans[0],
        &plans,
        || straggler_request_trace(16),
        None,
        || ServeOptions::new().hedge(HedgeConfig::default()),
        None,
    );
}
