//! Trace exporters: JSON-lines event dumps and Chrome trace-event JSON
//! (loadable in `chrome://tracing` and Perfetto).
//!
//! Both formats carry the full per-op identity: engine, stream, label,
//! timing, byte counts, and — when the scheduler tagged the op — the
//! routine/call/tile/operand attribution from
//! [`OpTag`].
//!
//! Multi-device serve runs export through [`to_chrome_trace_multi`] (one
//! Chrome process per [`DeviceLane`], so devices don't collapse into a
//! single lane) and [`serve_trace_to_chrome`], which adds the
//! request-lifecycle spans and the queue-to-device flow arrows of a
//! [`ServeTrace`]. The binary sibling of these is [`crate::perfetto`].

use crate::span::{DeviceLane, ServeTrace, Span, SpanPhase};
use cocopelia_gpusim::{EngineKind, OpTag, TraceEntry};
use serde::Value;

/// Stable Chrome-trace thread id per engine (h2d=0, exec=1, d2h=2).
fn engine_tid(engine: EngineKind) -> u64 {
    match engine {
        EngineKind::CopyH2d => 0,
        EngineKind::Compute => 1,
        EngineKind::CopyD2h => 2,
    }
}

/// Thread id of a device's request-lifecycle lane (after the engines).
const LIFECYCLE_TID: u64 = 3;

/// Pid of the serve process (queue + host lanes); devices get
/// [`device_pid`].
const SERVE_PID: u64 = 1;

/// One Chrome process per device, clear of the serve process's pid.
fn device_pid(device: usize) -> u64 {
    10 + device as u64
}

fn tag_value(tag: &OpTag) -> Value {
    Value::Map(vec![
        (
            "routine".to_owned(),
            Value::Str(tag.routine.name().to_owned()),
        ),
        ("call".to_owned(), Value::U64(u64::from(tag.call))),
        (
            "tile".to_owned(),
            Value::Seq(vec![
                Value::U64(u64::from(tag.tile.0)),
                Value::U64(u64::from(tag.tile.1)),
            ]),
        ),
        (
            "operand".to_owned(),
            match tag.operand {
                Some(role) => Value::Str(role.name().to_owned()),
                None => Value::Null,
            },
        ),
        ("get".to_owned(), Value::Bool(tag.get)),
        ("set".to_owned(), Value::Bool(tag.set)),
    ])
}

fn entry_value(e: &TraceEntry) -> Value {
    let mut fields = vec![
        ("op".to_owned(), Value::U64(e.op as u64)),
        ("stream".to_owned(), Value::U64(e.stream.index() as u64)),
        ("engine".to_owned(), Value::Str(e.engine.name().to_owned())),
        ("label".to_owned(), Value::Str(e.label())),
        ("start_ns".to_owned(), Value::U64(e.start.as_nanos())),
        ("end_ns".to_owned(), Value::U64(e.end.as_nanos())),
    ];
    if let Some(b) = e.bytes() {
        fields.push(("bytes".to_owned(), Value::U64(b as u64)));
    }
    if let Some(tag) = &e.tag {
        fields.push(("tag".to_owned(), tag_value(tag)));
    }
    Value::Map(fields)
}

/// Renders entries as JSON-lines: one self-contained JSON object per line.
///
/// # Errors
///
/// Propagates serialization failures (none occur for well-formed entries).
pub fn to_jsonl(entries: &[TraceEntry]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for e in entries {
        out.push_str(&serde_json::to_string(&entry_value(e))?);
        out.push('\n');
    }
    Ok(out)
}

/// `process_name` metadata event.
fn process_name_event(pid: u64, name: &str) -> Value {
    Value::Map(vec![
        ("name".to_owned(), Value::Str("process_name".to_owned())),
        ("ph".to_owned(), Value::Str("M".to_owned())),
        ("pid".to_owned(), Value::U64(pid)),
        (
            "args".to_owned(),
            Value::Map(vec![("name".to_owned(), Value::Str(name.to_owned()))]),
        ),
    ])
}

/// `thread_name` metadata event.
fn thread_name_event(pid: u64, tid: u64, name: &str) -> Value {
    Value::Map(vec![
        ("name".to_owned(), Value::Str("thread_name".to_owned())),
        ("ph".to_owned(), Value::Str("M".to_owned())),
        ("pid".to_owned(), Value::U64(pid)),
        ("tid".to_owned(), Value::U64(tid)),
        (
            "args".to_owned(),
            Value::Map(vec![("name".to_owned(), Value::Str(name.to_owned()))]),
        ),
    ])
}

/// Pushes one device's metadata and entry slices under the given pid.
fn push_device_events(events: &mut Vec<Value>, pid: u64, name: &str, entries: &[TraceEntry]) {
    events.push(process_name_event(pid, name));
    for engine in [
        EngineKind::CopyH2d,
        EngineKind::Compute,
        EngineKind::CopyD2h,
    ] {
        events.push(thread_name_event(pid, engine_tid(engine), engine.name()));
    }
    for e in entries {
        let mut args = vec![
            ("op".to_owned(), Value::U64(e.op as u64)),
            ("stream".to_owned(), Value::U64(e.stream.index() as u64)),
        ];
        if let Some(b) = e.bytes() {
            args.push(("bytes".to_owned(), Value::U64(b as u64)));
        }
        if let Some(tag) = &e.tag {
            args.push(("tag".to_owned(), tag_value(tag)));
        }
        events.push(Value::Map(vec![
            ("name".to_owned(), Value::Str(e.label())),
            ("cat".to_owned(), Value::Str(e.engine.name().to_owned())),
            ("ph".to_owned(), Value::Str("X".to_owned())),
            ("ts".to_owned(), Value::F64(e.start.as_nanos() as f64 / 1e3)),
            (
                "dur".to_owned(),
                Value::F64(e.duration().as_nanos() as f64 / 1e3),
            ),
            ("pid".to_owned(), Value::U64(pid)),
            ("tid".to_owned(), Value::U64(engine_tid(e.engine))),
            ("args".to_owned(), Value::Map(args)),
        ]));
    }
}

fn chrome_doc(events: Vec<Value>) -> Result<String, serde_json::Error> {
    serde_json::to_string(&Value::Map(vec![
        ("traceEvents".to_owned(), Value::Seq(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ]))
}

/// Renders one device's entries as a Chrome trace-event JSON document.
///
/// Each trace entry becomes a complete (`"ph": "X"`) event with
/// microsecond-resolution timestamps; the three engines appear as named
/// threads of one named process, and op tags land in the event's `args`.
///
/// # Errors
///
/// Propagates serialization failures (none occur for well-formed entries).
pub fn to_chrome_trace(entries: &[TraceEntry]) -> Result<String, serde_json::Error> {
    to_chrome_trace_multi(&[DeviceLane {
        device: 0,
        name: "dev0".to_owned(),
        entries: entries.to_vec(),
    }])
}

/// Renders multiple device lanes as one Chrome trace-event JSON document,
/// one *process* per device (pid `10 + device`, named by the lane) so
/// multi-GPU traces keep their device attribution instead of collapsing
/// into a single process.
///
/// # Errors
///
/// Propagates serialization failures (none occur for well-formed lanes).
pub fn to_chrome_trace_multi(lanes: &[DeviceLane]) -> Result<String, serde_json::Error> {
    let mut events = Vec::new();
    for lane in lanes {
        push_device_events(
            &mut events,
            device_pid(lane.device),
            &lane.name,
            &lane.entries,
        );
    }
    chrome_doc(events)
}

/// The Chrome (pid, tid) a lifecycle span is drawn on.
fn span_lane(s: &Span) -> (u64, u64) {
    match (s.phase, s.device) {
        (SpanPhase::HostFallback, _) => (SERVE_PID, 1),
        (_, Some(d)) => (device_pid(d), LIFECYCLE_TID),
        (_, None) => (SERVE_PID, 0),
    }
}

/// Renders a full [`ServeTrace`] — device lanes plus request-lifecycle
/// spans — as Chrome trace-event JSON. Spans land on a `serve` process
/// (`queue`/`host` threads) or on their device's `requests` thread, and
/// every [`Span::flow`] id becomes a flow-start (`"ph": "s"`) /
/// flow-finish (`"ph": "f"`) pair drawing the queue-to-device hand-off
/// arrow.
///
/// # Errors
///
/// Propagates serialization failures (none occur for well-formed traces).
pub fn serve_trace_to_chrome(trace: &ServeTrace) -> Result<String, serde_json::Error> {
    let mut events = Vec::new();
    events.push(process_name_event(SERVE_PID, "serve"));
    events.push(thread_name_event(SERVE_PID, 0, "queue"));
    if trace
        .spans
        .iter()
        .any(|s| s.phase == SpanPhase::HostFallback)
    {
        events.push(thread_name_event(SERVE_PID, 1, "host"));
    }
    for lane in &trace.lanes {
        push_device_events(
            &mut events,
            device_pid(lane.device),
            &lane.name,
            &lane.entries,
        );
        events.push(thread_name_event(
            device_pid(lane.device),
            LIFECYCLE_TID,
            "requests",
        ));
    }
    for s in &trace.spans {
        let (pid, tid) = span_lane(s);
        let ts_us = s.start_ns as f64 / 1e3;
        let instant = s.duration_ns() == 0;
        let mut fields = vec![
            ("name".to_owned(), Value::Str(s.label.clone())),
            ("cat".to_owned(), Value::Str(s.phase.name().to_owned())),
            (
                "ph".to_owned(),
                Value::Str(if instant { "i" } else { "X" }.to_owned()),
            ),
            ("ts".to_owned(), Value::F64(ts_us)),
            ("pid".to_owned(), Value::U64(pid)),
            ("tid".to_owned(), Value::U64(tid)),
            (
                "args".to_owned(),
                Value::Map(vec![
                    ("request".to_owned(), Value::U64(s.request)),
                    ("span".to_owned(), Value::U64(s.id.0)),
                ]),
            ),
        ];
        if instant {
            fields.push(("s".to_owned(), Value::Str("t".to_owned())));
        } else {
            fields.push(("dur".to_owned(), Value::F64(s.duration_ns() as f64 / 1e3)));
        }
        events.push(Value::Map(fields));
        if let Some(flow) = s.flow {
            // Queue-side spans start the flow; device spans finish it.
            let ph = if s.device.is_none() { "s" } else { "f" };
            let mut f = vec![
                ("name".to_owned(), Value::Str("queue→device".to_owned())),
                ("cat".to_owned(), Value::Str("flow".to_owned())),
                ("ph".to_owned(), Value::Str(ph.to_owned())),
                ("id".to_owned(), Value::U64(flow)),
                ("ts".to_owned(), Value::F64(ts_us)),
                ("pid".to_owned(), Value::U64(pid)),
                ("tid".to_owned(), Value::U64(tid)),
            ];
            if ph == "f" {
                f.push(("bp".to_owned(), Value::Str("e".to_owned())));
            }
            events.push(Value::Map(f));
        }
    }
    chrome_doc(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLog;
    use cocopelia_gpusim::{OperandRole, Routine, SimTime, StreamId};

    fn entry(engine: EngineKind, start: u64, end: u64, tagged: bool) -> TraceEntry {
        let mut e = TraceEntry::new(
            3,
            StreamId::from_raw(1),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        )
        .with_bytes(64);
        e.tag = tagged.then_some(OpTag {
            operand: Some(OperandRole::A),
            get: true,
            ..OpTag::new(Routine::Gemm, 2, (1, 3))
        });
        e
    }

    #[test]
    fn jsonl_one_line_per_entry() {
        let entries = [
            entry(EngineKind::CopyH2d, 0, 100, true),
            entry(EngineKind::Compute, 50, 80, false),
        ];
        let out = to_jsonl(&entries).expect("serializes");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"engine\":\"h2d\""));
        assert!(lines[0].contains("\"routine\":\"gemm\""));
        assert!(!lines[1].contains("tag"));
        // Every line is valid JSON.
        for l in lines {
            let _: Value = serde_json::from_str(l).expect("valid json");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_names() {
        let entries = [entry(EngineKind::CopyD2h, 1000, 3000, true)];
        let out = to_chrome_trace(&entries).expect("serializes");
        let doc: Value = serde_json::from_str(&out).expect("valid json");
        let events = doc.field("traceEvents").expect("has events");
        let Value::Seq(events) = events else {
            panic!("traceEvents is a list")
        };
        // 1 process_name + 3 thread_name metadata events + 1 slice.
        assert_eq!(events.len(), 5);
        let slice = events.last().expect("slice");
        assert_eq!(slice.field("ph").expect("ph").as_str().expect("str"), "X");
        // Integral floats write as integers; compare numerically.
        let num = |v: &Value| match *v {
            Value::U64(u) => u as f64,
            Value::F64(f) => f,
            ref other => panic!("expected number, got {other:?}"),
        };
        assert_eq!(num(slice.field("ts").expect("ts")), 1.0);
        assert_eq!(num(slice.field("dur").expect("dur")), 2.0);
    }

    #[test]
    fn chrome_trace_empty_entries_still_parses() {
        let out = to_chrome_trace(&[]).expect("serializes");
        let doc: Value = serde_json::from_str(&out).expect("valid json");
        assert!(doc.field("displayTimeUnit").is_ok());
    }

    fn events_of(doc: &str) -> Vec<Value> {
        let doc: Value = serde_json::from_str(doc).expect("valid json");
        let Value::Seq(events) = doc.field("traceEvents").expect("has events").clone() else {
            panic!("traceEvents is a list")
        };
        events
    }

    fn pid_of(ev: &Value) -> u64 {
        match ev.field("pid").expect("pid") {
            Value::U64(p) => *p,
            other => panic!("pid not u64: {other:?}"),
        }
    }

    #[test]
    fn multi_device_trace_gets_one_pid_per_device() {
        let lanes = vec![
            DeviceLane {
                device: 0,
                name: "dev0 (testbed-i)".to_owned(),
                entries: vec![entry(EngineKind::Compute, 0, 100, false)],
            },
            DeviceLane {
                device: 1,
                name: "dev1 (testbed-i)".to_owned(),
                entries: vec![entry(EngineKind::Compute, 0, 80, false)],
            },
        ];
        let events = events_of(&to_chrome_trace_multi(&lanes).expect("serializes"));
        let pids: std::collections::BTreeSet<u64> = events.iter().map(pid_of).collect();
        assert_eq!(pids, [10u64, 11].into_iter().collect());
        // Each device announces its process_name.
        let names: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.field("name")
                    .is_ok_and(|n| n.as_str().is_ok_and(|s| s == "process_name"))
            })
            .collect();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn serve_trace_emits_flow_pair_and_span_slices() {
        let mut log = SpanLog::new();
        log.record(None, 4, None, SpanPhase::Queued, "queued", 0, 100, Some(4));
        log.record(
            None,
            4,
            Some(1),
            SpanPhase::Dispatch,
            "attempt 0",
            100,
            400,
            Some(4),
        );
        log.record(None, 4, None, SpanPhase::Complete, "done", 400, 400, None);
        let trace = ServeTrace {
            spans: log.into_spans(),
            lanes: vec![DeviceLane {
                device: 1,
                name: "dev1".to_owned(),
                entries: vec![entry(EngineKind::Compute, 100, 380, false)],
            }],
        };
        let events = events_of(&serve_trace_to_chrome(&trace).expect("serializes"));
        let ph = |e: &Value| e.field("ph").expect("ph").as_str().expect("str").to_owned();
        assert!(events.iter().any(|e| ph(e) == "s"), "flow start missing");
        assert!(events.iter().any(|e| ph(e) == "f"), "flow finish missing");
        assert!(events.iter().any(|e| ph(e) == "i"), "instant missing");
        // The flow start sits on the serve pid, the finish on the device.
        let flow_pids: Vec<u64> = events
            .iter()
            .filter(|e| ph(e) == "s" || ph(e) == "f")
            .map(pid_of)
            .collect();
        assert!(flow_pids.contains(&SERVE_PID));
        assert!(flow_pids.contains(&device_pid(1)));
    }
}
