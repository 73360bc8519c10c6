//! The serve tracing pipeline end to end: request-lifecycle spans from
//! real executor runs satisfy the span invariants, the Perfetto export
//! round-trips through the decoder with the track topology viewers
//! expect, the timeline renders every device and the fault glyphs, and
//! tracing never perturbs virtual timing.

use cocopelia_gpusim::{testbed_i, FaultSpec, SimTime};
use cocopelia_obs::perfetto::{decode::decode_trace, to_perfetto};
use cocopelia_obs::timeline::{render, TimelineOptions};
use cocopelia_obs::{check_spans, ServeTrace, SpanPhase};
use cocopelia_runtime::serve::{SchedulePolicy, TelemetryConfig};
use cocopelia_xp::{
    chaos_fault_spec, chaos_request_trace, run_serve_with_options, standard_request_trace,
    ServeComparison, ServeOptions,
};

fn traced_run(
    devices: usize,
    trace: Vec<cocopelia_runtime::RoutineRequest>,
    faults: &FaultSpec,
    policy: SchedulePolicy,
) -> ServeComparison {
    let options = ServeOptions {
        policy,
        trace: true,
        ..ServeOptions::default()
    };
    run_serve_with_options(&testbed_i(), devices, trace, faults, &options)
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
        run_serve_with_options(
            &testbed_i(),
            2,
            standard_request_trace(),
            &FaultSpec::none(),
            &ServeOptions {
                policy: SchedulePolicy::Predictive,
                ..options
            },
        )
        .expect("serve run succeeds")
    };
    let plain = run(ServeOptions::default());
    let watched = run(ServeOptions {
        watch: Some(TelemetryConfig {
            window: SimTime::from_secs_f64(5e-3),
            ..TelemetryConfig::default()
        }),
        ..ServeOptions::default()
    });
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
