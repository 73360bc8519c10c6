//! Streaming telemetry end to end: a 50 000-request serve under watch
//! keeps span memory bounded by the span cap, emits a
//! deterministic window stream, streams an openable Perfetto trace
//! incrementally, fires exactly one SLO-breach dump containing the
//! breaching request's spans — and leaves virtual timing bit-identical
//! to the telemetry-off run.

use std::cell::RefCell;
use std::rc::Rc;

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{testbed_i, ExecMode, FaultSpec, NoiseSpec, SimTime, TestbedSpec};
use cocopelia_obs::perfetto::decode::decode_trace;
use cocopelia_obs::{Histogram, SloSpec, WindowedMetrics};
use cocopelia_runtime::serve::{
    ExecutorConfig, ServeOptions as SessionOptions, ServeReport, ServeSession, TelemetryConfig,
};
use cocopelia_runtime::{AxpyRequest, MultiGpu, RoutineRequest, SharedVec, TileChoice, VecOperand};
use cocopelia_xp::{chaos_fault_spec, chaos_request_trace, run_serve_streaming, ServeOptions};

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "watch-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn pool(devices: usize, faults: &FaultSpec) -> MultiGpu {
    MultiGpu::with_faults(
        &quiet(),
        devices,
        ExecMode::TimingOnly,
        42,
        dummy_profile(),
        faults,
    )
}

/// `count` small single-tile daxpy requests sharing `X`, with one
/// impossible-deadline request at `breach_at` to trip the deadline SLO.
fn watch_trace(count: usize, breach_at: usize) -> Vec<RoutineRequest> {
    let v = 1usize << 12;
    (0..count)
        .map(|i| {
            let mut r =
                AxpyRequest::<f64>::new(SharedVec::new("X", v), VecOperand::HostGhost { len: v })
                    .alpha(1.0)
                    .tile(TileChoice::Fixed(v));
            if i == breach_at {
                r = r.deadline_secs(1e-12);
            }
            r.into()
        })
        .collect()
}

/// Serves the watch trace on two devices and returns the report plus, per
/// device, how many engine entries the drain recorded and how many the
/// device still retains.
fn run_watch_trace(
    count: usize,
    breach_at: usize,
    telemetry: Option<TelemetryConfig>,
) -> (ServeReport, Vec<(usize, usize)>) {
    let mut opts = SessionOptions::new();
    if let Some(cfg) = telemetry {
        opts = opts.telemetry(cfg);
    }
    let mut exec =
        ServeSession::with_options(pool(2, &FaultSpec::none()), ExecutorConfig::default(), opts)
            .expect("stream file creatable");
    for req in watch_trace(count, breach_at) {
        exec.submit(req);
    }
    let lens = |exec: &ServeSession| -> Vec<usize> {
        let devices = exec.pool().devices();
        devices.iter().map(|d| d.gpu().trace().len()).collect()
    };
    let before = lens(&exec);
    let report = exec.drain();
    let traces = lens(&exec)
        .into_iter()
        .zip(before)
        .zip(exec.pool().devices())
        .map(|((after, before), d)| (after - before, d.gpu().trace().entries().len()))
        .collect();
    (report, traces)
}

#[test]
fn watch_50k_is_bounded_streamed_and_bit_identical() {
    // Debug builds run a 5k-request slice of the same workload to keep
    // `cargo test` quick; the release CI gate runs the full 50k
    // acceptance size.
    #[cfg(debug_assertions)]
    const REQUESTS: usize = 5_000;
    #[cfg(not(debug_assertions))]
    const REQUESTS: usize = 50_000;
    const BREACH_AT: usize = REQUESTS / 2;
    const RING: usize = 512;

    // Reference run with telemetry fully disabled sizes the windows and
    // anchors the bit-identity check.
    let (plain, plain_traces) = run_watch_trace(REQUESTS, BREACH_AT, None);
    assert_eq!(plain.completed(), REQUESTS - 1);
    assert_eq!(plain.timed_out(), 1);
    let window = SimTime::from_nanos((plain.makespan.as_nanos() / 32).max(1));

    let stream_path = std::env::temp_dir().join(format!(
        "cocopelia_serve_watch_{}.pftrace",
        std::process::id()
    ));
    let (report, traces) = run_watch_trace(
        REQUESTS,
        BREACH_AT,
        Some(TelemetryConfig {
            window,
            slos: SloSpec::parse_list("deadline_miss<=0.0").expect("valid slo"),
            recorder_cap: RING,
            stream_path: Some(stream_path.clone()),
        }),
    );

    // Engine traces stay bounded too: the drain retires every entry the
    // stream has written, so a device retains at most one request's
    // entries (a cold single-tile daxpy records four), while it still
    // counts every entry it recorded.
    assert_eq!(traces.len(), 2);
    for (d, (&(recorded, retained), &(plain_recorded, _))) in
        traces.iter().zip(&plain_traces).enumerate()
    {
        assert_eq!(recorded, plain_recorded, "dev{d} recorded entries");
        assert!(recorded > REQUESTS, "dev{d} served its share");
        assert!(
            retained <= 4,
            "dev{d} retains {retained} of {recorded} engine entries"
        );
    }

    // Telemetry only reads clocks: virtual timing is bit-identical.
    assert_eq!(plain.makespan.as_nanos(), report.makespan.as_nanos());
    assert_eq!(plain.per_device_busy, report.per_device_busy);
    assert_eq!(plain.completed(), report.completed());
    assert_eq!(plain.timed_out(), report.timed_out());
    assert!(plain.telemetry.is_none());
    assert_eq!(plain.trace_dropped, 0);

    let tele = report.telemetry.as_ref().expect("telemetry armed");
    assert!(
        tele.windows.len() >= 10,
        "expected >= 10 windows, got {}",
        tele.windows.len()
    );
    let finished: u64 = tele.windows.iter().map(|w| w.finished).sum();
    assert_eq!(finished, REQUESTS as u64, "every request lands in a window");

    // Span memory stays bounded by the one span cap, not by the request
    // count.
    let trace = report.trace.as_ref().expect("telemetry implies tracing");
    assert!(
        trace.spans.len() <= RING,
        "span log exceeded its cap: {}",
        trace.spans.len()
    );
    assert!(
        report.trace_dropped > 0,
        "a {REQUESTS}-request run must overflow a {RING}-span cap"
    );
    let rendered = report.render();
    assert!(rendered.contains("trace capped:"), "{rendered}");
    assert!(rendered.contains("telemetry:"), "{rendered}");

    // Exactly one SLO breach, exactly one dump, and the dump holds the
    // breaching request's span chain (it was logged moments before).
    assert_eq!(tele.breaches.len(), 1, "breaches: {:?}", tele.breaches);
    assert_eq!(tele.dumps.len(), 1, "dumps: {:?}", tele.dumps.len());
    let dump = &tele.dumps[0];
    assert!(dump.reason.contains("deadline_miss"), "{}", dump.reason);
    assert!(
        dump.has_request_chain(BREACH_AT as u64),
        "dump must contain request {BREACH_AT}'s attempt and completion"
    );
    assert!(!dump.to_jsonl().is_empty());

    // The incrementally streamed Perfetto file decodes like the batch
    // exporter's output.
    assert!(tele.stream_error.is_none(), "{:?}", tele.stream_error);
    assert!(tele.stream_packets > 0);
    let bytes = std::fs::read(&stream_path).expect("stream file exists");
    assert_eq!(bytes.len() as u64, tele.stream_bytes);
    let decoded = decode_trace(&bytes).expect("streamed trace decodes");
    assert!(!decoded.events.is_empty());
    assert!(!decoded.descriptors.is_empty());
    // One engine event (a slice begin or an instant) per recorded entry:
    // retirement never drops an entry before it is streamed.
    let engine_tracks: Vec<u64> = decoded
        .descriptors
        .iter()
        .filter(|t| matches!(t.thread_name.as_deref(), Some("h2d" | "exec" | "d2h")))
        .map(|t| t.uuid)
        .collect();
    let engine_events = decoded
        .events
        .iter()
        .filter(|e| engine_tracks.contains(&e.track_uuid) && e.event_type != 2)
        .count();
    let recorded: usize = traces.iter().map(|&(len, _)| len).sum();
    assert_eq!(engine_events, recorded, "streamed engine events");
    let _ = std::fs::remove_file(&stream_path);
}

#[test]
fn windowed_percentiles_match_whole_run_histogram() {
    let bounds: Vec<f64> = (1..=20).map(|i| i as f64).collect();
    // Seeded LCG value stream in [0, 20).
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let values: Vec<f64> = (0..5_000)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 2000) as f64 / 100.0
        })
        .collect();

    // One observation per virtual nanosecond, 1000-ns windows.
    let window_ns = 1_000u64;
    let mut win = WindowedMetrics::new(window_ns);
    let mut whole = Histogram::new(bounds.clone());
    let mut by_window: Vec<Vec<f64>> = Vec::new();
    let mut snaps = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        snaps.extend(win.advance_to(i as u64));
        win.histogram_observe("flow", &bounds, v);
        whole.observe(v);
        let idx = i / window_ns as usize;
        if by_window.len() <= idx {
            by_window.resize(idx + 1, Vec::new());
        }
        by_window[idx].push(v);
    }
    snaps.push(win.close_now(values.len() as u64));

    assert_eq!(snaps.len(), by_window.len());
    let mut total = 0u64;
    for snap in &snaps {
        let d = snap.digest("flow").expect("every window saw observations");
        let mut h = Histogram::new(bounds.clone());
        for &v in &by_window[snap.index as usize] {
            h.observe(v);
        }
        assert_eq!(d.count, h.count(), "window {}", snap.index);
        for (q, got) in [(0.5, d.p50), (0.95, d.p95), (0.99, d.p99)] {
            let want = h.quantile(q).expect("non-empty");
            assert_eq!(got, want, "q{q} of window {}", snap.index);
        }
        total += d.count;
    }
    assert_eq!(total, whole.count(), "windows partition the run");

    // A single all-covering window reproduces the whole-run histogram's
    // percentiles exactly.
    let mut one = WindowedMetrics::new(u64::MAX);
    for &v in &values {
        one.histogram_observe("flow", &bounds, v);
    }
    let snap = one.close_now(values.len() as u64);
    let d = snap.digest("flow").expect("observed");
    assert_eq!(d.count, whole.count());
    assert_eq!(d.p50, whole.quantile(0.5).expect("non-empty"));
    assert_eq!(d.p95, whole.quantile(0.95).expect("non-empty"));
    assert_eq!(d.p99, whole.quantile(0.99).expect("non-empty"));
}

#[test]
fn quarantine_dump_contains_the_faulting_requests_span_chain() {
    // Every h2d enqueue faults and the first fault is terminal: request 0
    // loses dev0, re-dispatches to dev1, loses that too, and completes on
    // the host — two quarantines, each dumping the span log's tail.
    let spec = FaultSpec {
        seed: 1,
        h2d: 1.0,
        lost_after: Some(1),
        ..FaultSpec::none()
    };
    let mut exec = ServeSession::with_options(
        pool(2, &spec),
        ExecutorConfig::default(),
        SessionOptions::new().telemetry(TelemetryConfig::default()),
    )
    .expect("no stream file needed");
    for req in watch_trace(2, usize::MAX) {
        exec.submit(req);
    }
    let report = exec.drain();
    assert_eq!(report.quarantined, vec![0, 1]);

    let tele = report.telemetry.as_ref().expect("telemetry armed");
    assert_eq!(tele.dumps.len(), 2, "one dump per quarantined device");
    for (dump, dev) in tele.dumps.iter().zip(["dev0", "dev1"]) {
        assert!(
            dump.reason.contains(&format!("quarantine {dev}")),
            "{}",
            dump.reason
        );
        assert!(
            dump.has_request_chain(0),
            "dump at {dev} must hold request 0's attempts and completion"
        );
        // The chain is complete: the faulted attempts and the terminal
        // completion marker all made it into the dump.
        assert!(!dump.request_spans(0).is_empty());
    }
}

#[test]
fn watch_line_stream_is_deterministic_across_runs() {
    let run = || {
        let lines: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink_lines = Rc::clone(&lines);
        let options = ServeOptions {
            trace: false,
            watch: Some(TelemetryConfig {
                window: SimTime::from_secs_f64(2e-3),
                ..TelemetryConfig::default()
            }),
            ..ServeOptions::default()
        };
        let cmp = run_serve_streaming(
            &testbed_i(),
            2,
            chaos_request_trace(2),
            &chaos_fault_spec(5),
            &options,
            Box::new(move |w| sink_lines.borrow_mut().push(w.render())),
        )
        .expect("watched chaos run succeeds");
        let lines = lines.borrow().clone();
        (lines, cmp.report.makespan.as_nanos())
    };
    let (lines_a, makespan_a) = run();
    let (lines_b, makespan_b) = run();
    assert!(
        !lines_a.is_empty(),
        "2 ms windows on a chaos run must close"
    );
    assert_eq!(lines_a, lines_b, "watch lines must be deterministic");
    assert_eq!(makespan_a, makespan_b);
    // Every line carries the fixed field skeleton.
    for line in &lines_a {
        for field in ["q=", "done=", "miss=", "p95=", "hit=", "faults=", "slo="] {
            assert!(line.contains(field), "{line}");
        }
    }
}

#[test]
fn telemetry_trace_and_dumps_are_tails_of_the_one_span_log() {
    // The same chaos drain, once uncapped under plain tracing and once
    // under telemetry with a small span cap: the capped run keeps the
    // newest spans of the very same log, and every flight dump is a
    // contiguous stretch of it.
    const RING: usize = 64;
    let spec = chaos_fault_spec(5);
    let run = |opts: SessionOptions| {
        let mut session =
            ServeSession::with_options(pool(2, &spec), ExecutorConfig::default(), opts)
                .expect("no stream file needed");
        session.submit_all(chaos_request_trace(8));
        session.drain()
    };
    let full = run(SessionOptions::new().tracing());
    let watched = run(SessionOptions::new().telemetry(TelemetryConfig {
        window: SimTime::from_secs_f64(1e-3),
        slos: SloSpec::parse_list("fault_rate<=0.0").expect("valid slo"),
        recorder_cap: RING,
        ..TelemetryConfig::default()
    }));
    assert_eq!(full.makespan, watched.makespan);

    let all = &full.trace.as_ref().expect("tracing armed").spans;
    let kept = &watched
        .trace
        .as_ref()
        .expect("telemetry implies tracing")
        .spans;
    assert!(all.len() > RING, "{} spans must overflow {RING}", all.len());
    assert_eq!(full.trace_dropped, 0);
    assert_eq!(kept.as_slice(), &all[all.len() - RING..]);
    assert_eq!(watched.trace_dropped, (all.len() - RING) as u64);

    let tele = watched.telemetry.as_ref().expect("telemetry armed");
    assert!(!tele.dumps.is_empty(), "chaos faults must breach and dump");
    for dump in &tele.dumps {
        assert!(!dump.spans.is_empty() && dump.spans.len() <= RING);
        let from = dump.dropped_before as usize;
        assert_eq!(
            dump.spans.as_slice(),
            &all[from..from + dump.spans.len()],
            "dump `{}` is not a contiguous stretch of the log",
            dump.reason
        );
    }
}
