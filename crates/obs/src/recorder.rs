//! Span flight dumps.
//!
//! When something goes wrong — an SLO breach, a device quarantine — the
//! newest spans of a capped [`SpanLog`] are captured as a [`FlightDump`]:
//! the last `cap` spans leading up to the incident, exportable to
//! Perfetto or JSONL for post-mortems even though the run itself keeps
//! only O(cap) span memory.

use crate::span::{ServeTrace, Span, SpanLog};
use crate::SpanPhase;

/// The newest spans of a span log at incident time.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Human-readable trigger, e.g. `SLO breach …` or `quarantine dev0`.
    pub reason: String,
    /// Telemetry window index in which the incident fired.
    pub window: u64,
    /// Virtual-time instant of the incident, nanoseconds.
    pub at_ns: u64,
    /// Spans recorded before the dumped ones (the dump's blind spot; 0
    /// means the dump is the complete history).
    pub dropped_before: u64,
    /// The dumped spans, oldest first.
    pub spans: Vec<Span>,
}

impl FlightDump {
    /// Captures the last `cap` spans of `log` (`cap` clamped to ≥ 1).
    /// Span ids count every span the log ever recorded, so the blind spot
    /// is exact even after the log dropped its oldest spans.
    pub fn capture(
        log: &SpanLog,
        cap: usize,
        reason: impl Into<String>,
        window: u64,
        at_ns: u64,
    ) -> FlightDump {
        let spans = log.spans();
        let tail = &spans[spans.len().saturating_sub(cap.max(1))..];
        FlightDump {
            reason: reason.into(),
            window,
            at_ns,
            dropped_before: log.next_id() - tail.len() as u64,
            spans: tail.to_vec(),
        }
    }

    /// The dumped spans belonging to one request, in record order.
    pub fn request_spans(&self, request: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.request == request).collect()
    }

    /// True when the dump holds a full dispatch chain for `request`:
    /// at least one attempt (`Dispatch`/`Retry`/`HostFallback`) plus its
    /// terminal `Complete` instant.
    pub fn has_request_chain(&self, request: u64) -> bool {
        let spans = self.request_spans(request);
        let attempted = spans.iter().any(|s| {
            matches!(
                s.phase,
                SpanPhase::Dispatch | SpanPhase::Retry | SpanPhase::HostFallback
            )
        });
        let completed = spans.iter().any(|s| s.phase == SpanPhase::Complete);
        attempted && completed
    }

    /// Perfetto serialization of the dump (spans only; no engine lanes —
    /// the streaming trace file carries those).
    pub fn to_perfetto(&self) -> Vec<u8> {
        let trace = ServeTrace {
            spans: self.spans.clone(),
            lanes: Vec::new(),
        };
        crate::perfetto::to_perfetto(&trace)
    }

    /// JSONL serialization: one header line (reason, window, instant,
    /// blind-spot size) followed by one line per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"flight_dump\":{},\"window\":{},\"at_ns\":{},\"dropped_before\":{},\"reason\":{}}}\n",
            self.spans.len(),
            self.window,
            self.at_ns,
            self.dropped_before,
            json_escape(&self.reason),
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"device\":{},\"phase\":\"{}\",\
                 \"label\":{},\"start_ns\":{},\"end_ns\":{},\"flow\":{}}}\n",
                s.id.0,
                s.parent.map(|p| p.0 as i64).unwrap_or(-1),
                s.request,
                s.device.map(|d| d as i64).unwrap_or(-1),
                s.phase.name(),
                json_escape(&s.label),
                s.start_ns,
                s.end_ns,
                s.flow.map(|f| f as i64).unwrap_or(-1),
            ));
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(n: u64) -> SpanLog {
        let mut log = SpanLog::default();
        for i in 0..n {
            log.record(
                None,
                i,
                Some(0),
                SpanPhase::Dispatch,
                format!("attempt {i}"),
                i * 10,
                i * 10 + 5,
                None,
            );
        }
        log
    }

    #[test]
    fn ring_drops_oldest_and_stays_bounded() {
        let mut l = SpanLog::default();
        for i in 0..10u64 {
            l.record(None, i, Some(0), SpanPhase::Dispatch, "a", i, i + 1, None);
            l.enforce_cap_amortized(4);
            let d = FlightDump::capture(&l, 4, "x", 0, i);
            assert!(d.spans.len() <= 4, "dump never exceeds the cap");
            assert_eq!(d.dropped_before + d.spans.len() as u64, i + 1);
        }
        let d = FlightDump::capture(&l, 4, "x", 0, 10);
        assert_eq!(d.dropped_before, 6);
        let held: Vec<u64> = d.spans.iter().map(|s| s.request).collect();
        assert_eq!(held, vec![6, 7, 8, 9], "oldest spans left out first");
    }

    #[test]
    fn dump_captures_ring_in_order_with_blind_spot() {
        let d = FlightDump::capture(&log(5), 3, "test incident", 7, 12345);
        assert_eq!(d.spans.len(), 3);
        assert_eq!(d.dropped_before, 2);
        assert_eq!(d.window, 7);
        assert_eq!(d.reason, "test incident");
        let reqs: Vec<u64> = d.spans.iter().map(|s| s.request).collect();
        assert_eq!(reqs, vec![2, 3, 4]);
        assert_eq!(d.request_spans(3).len(), 1);
    }

    #[test]
    fn request_chain_detection() {
        let mut log = SpanLog::default();
        log.record(None, 1, Some(0), SpanPhase::Dispatch, "a", 0, 10, None);
        log.record(
            None,
            1,
            None,
            SpanPhase::Complete,
            "completed",
            10,
            10,
            None,
        );
        log.record(None, 2, None, SpanPhase::Queued, "queued", 0, 5, None);
        let d = FlightDump::capture(&log, 8, "x", 0, 10);
        assert!(d.has_request_chain(1));
        assert!(!d.has_request_chain(2), "queued-only is not a chain");
        assert!(!d.has_request_chain(99));
    }

    #[test]
    fn dump_exports_decode_and_serialize() {
        let d = FlightDump::capture(&log(3), 8, "slo breach: deadline_miss", 1, 50);
        let decoded =
            crate::perfetto::decode::decode_trace(&d.to_perfetto()).expect("dump decodes");
        assert!(decoded.packets > 0);
        let jsonl = d.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4, "header + 3 spans");
        assert!(jsonl.starts_with("{\"flight_dump\":3,"));
        assert!(jsonl.contains("\"phase\":\"dispatch\""));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let d = FlightDump::capture(&log(3), 0, "x", 0, 0);
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.dropped_before, 2);
        assert!(FlightDump::capture(&SpanLog::default(), 0, "x", 0, 0)
            .spans
            .is_empty());
    }
}
