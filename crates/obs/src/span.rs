//! Request-lifecycle spans: the serve-native trace model.
//!
//! The simulator's [`TraceEntry`](cocopelia_gpusim::TraceEntry) records
//! what each *engine* did; a span records what each *request* went
//! through — submit, queue wait, dispatch, operand uploads, tile
//! execution, downloads, and the fault-tolerance detours (retry,
//! quarantine, host fallback). Spans and per-device engine entries
//! together form a [`ServeTrace`], the input of every serve-side
//! exporter: the Chrome-trace JSON writer, the Perfetto protobuf writer
//! ([`crate::perfetto`]), and the timetable renderer
//! ([`crate::timeline`]).
//!
//! Flow linkage: a request's queue-wait span and its first device span
//! carry the same [`Span::flow`] id, so trace viewers draw an arrow from
//! "waited here" to "ran there" — the queue-to-device hand-off the
//! scheduling policies compete on.
//!
//! # Span-phase taxonomy
//!
//! | phase | glyph | kind | meaning |
//! |---|---|---|---|
//! | [`Submit`](SpanPhase::Submit) | `^` | instant | request entered the executor |
//! | [`Queued`](SpanPhase::Queued) | `.` | interval | waiting for dispatch |
//! | [`Dispatch`](SpanPhase::Dispatch) | `=` | interval | first execution attempt on a device |
//! | [`H2d`](SpanPhase::H2d) | `>` | interval | operand uploads of one attempt (child) |
//! | [`Exec`](SpanPhase::Exec) | `#` | interval | tile execution of one attempt (child) |
//! | [`D2h`](SpanPhase::D2h) | `<` | interval | result downloads of one attempt (child) |
//! | [`Retry`](SpanPhase::Retry) | `!` | interval | re-attempt after a fault |
//! | [`Quarantine`](SpanPhase::Quarantine) | `Q` | instant | a device was quarantined |
//! | [`HostFallback`](SpanPhase::HostFallback) | `H` | interval | completion on the host CPU |
//! | [`Reject`](SpanPhase::Reject) | `X` | instant | shed by admission/backpressure |
//! | [`Coalesce`](SpanPhase::Coalesce) | `&` | instant | merged onto an identical queued request |
//! | [`Hedge`](SpanPhase::Hedge) | `~` | interval | speculative duplicate attempt on a peer device |
//! | [`Probe`](SpanPhase::Probe) | `?` | interval | canary GEMM testing a quarantined device |
//! | [`Cancel`](SpanPhase::Cancel) | `x` | instant | the losing side of a hedge race was undone |
//! | [`Complete`](SpanPhase::Complete) | `*` | instant | terminal status reached |
//!
//! A `Hedge` span deliberately *overlaps* the `Dispatch`/`Retry` span it
//! races (both run at once — that is the point), so hedges are excluded
//! from the attempt non-overlap invariant and governed by invariant 6 of
//! [`check_spans`] instead. `Probe` spans carry the sentinel request id
//! `u64::MAX`: they belong to the executor's health machinery, not to any
//! request.

use cocopelia_gpusim::TraceChunks;
use serde::Value;
use std::collections::HashMap;

/// Unique identity of one span within a [`SpanLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Lifecycle phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanPhase {
    /// The request entered the executor (instant).
    Submit,
    /// The request sat in the queue waiting for dispatch.
    Queued,
    /// One execution attempt on a device (first attempt).
    Dispatch,
    /// Operand uploads of one attempt (aggregate over h2d entries).
    H2d,
    /// Tile execution of one attempt (aggregate over compute entries).
    Exec,
    /// Result downloads of one attempt (aggregate over d2h entries).
    D2h,
    /// A re-attempt after a fault (dispatch span of attempt > 0).
    Retry,
    /// A device was quarantined while serving the request (instant).
    Quarantine,
    /// The request completed on the host after pool-wide quarantine.
    HostFallback,
    /// The request was shed by admission control or backpressure
    /// (instant; open-arrival serving).
    Reject,
    /// The request coalesced onto an identical queued request and will
    /// share its execution (instant; open-arrival serving).
    Coalesce,
    /// A speculative duplicate of an in-flight attempt on another device,
    /// racing the straggling primary (straggler defense). Overlaps the
    /// `Dispatch`/`Retry` span it hedges by design.
    Hedge,
    /// A canary probe (tiny GEMM) testing whether a quarantined device
    /// has healed; carries the sentinel request id `u64::MAX`.
    Probe,
    /// The losing side of a hedge race was cancelled and its virtual time
    /// rewound (instant, placed at the end of the cancelled attempt).
    Cancel,
    /// The request reached a terminal status (instant).
    Complete,
}

impl SpanPhase {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Submit => "submit",
            SpanPhase::Queued => "queued",
            SpanPhase::Dispatch => "dispatch",
            SpanPhase::H2d => "h2d",
            SpanPhase::Exec => "exec",
            SpanPhase::D2h => "d2h",
            SpanPhase::Retry => "retry",
            SpanPhase::Quarantine => "quarantine",
            SpanPhase::HostFallback => "host-fallback",
            SpanPhase::Reject => "reject",
            SpanPhase::Coalesce => "coalesce",
            SpanPhase::Hedge => "hedge",
            SpanPhase::Probe => "probe",
            SpanPhase::Cancel => "cancel",
            SpanPhase::Complete => "complete",
        }
    }

    /// Timeline glyph ([`crate::timeline`]): one character per phase.
    pub fn glyph(self) -> char {
        match self {
            SpanPhase::Submit => '^',
            SpanPhase::Queued => '.',
            SpanPhase::Dispatch => '=',
            SpanPhase::H2d => '>',
            SpanPhase::Exec => '#',
            SpanPhase::D2h => '<',
            SpanPhase::Retry => '!',
            SpanPhase::Quarantine => 'Q',
            SpanPhase::HostFallback => 'H',
            SpanPhase::Reject => 'X',
            SpanPhase::Coalesce => '&',
            SpanPhase::Hedge => '~',
            SpanPhase::Probe => '?',
            SpanPhase::Cancel => 'x',
            SpanPhase::Complete => '*',
        }
    }
}

/// One interval (or instant, when `start_ns == end_ns`) in a request's
/// lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identity within the log.
    pub id: SpanId,
    /// Enclosing span (an attempt's `H2d`/`Exec`/`D2h` spans point at
    /// their `Dispatch`/`Retry` span).
    pub parent: Option<SpanId>,
    /// The request this span belongs to ([`RequestId`] value).
    ///
    /// [`RequestId`]: https://docs.rs/cocopelia-runtime
    pub request: u64,
    /// Device the span ran on; `None` for queue-side and host spans.
    pub device: Option<usize>,
    /// Lifecycle phase.
    pub phase: SpanPhase,
    /// Human-readable description (attempt number, fault class, status).
    pub label: String,
    /// Start, in virtual nanoseconds.
    pub start_ns: u64,
    /// End, in virtual nanoseconds (`== start_ns` for instants).
    pub end_ns: u64,
    /// Flow id linking this span to others of the same hand-off (the
    /// queue-wait span and the first device span of a request share one).
    pub flow: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span collector with monotonically assigned ids.
///
/// Optionally capacity-bounded: [`enforce_cap_amortized`](Self::enforce_cap_amortized)
/// drops the *oldest* spans once the log outgrows its cap, so a
/// long-running traced serve keeps O(cap) span memory instead of
/// O(requests). Ids stay monotonic across drops, so a consumer can use
/// an id watermark to find spans it has not seen yet even after the
/// front of the log was discarded.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    next: u64,
    dropped: u64,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Records a span, assigning the next id; returns the assigned id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        request: u64,
        device: Option<usize>,
        phase: SpanPhase,
        label: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        flow: Option<u64>,
    ) -> SpanId {
        let id = SpanId(self.next);
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            device,
            phase,
            label: label.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            flow,
        });
        id
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total spans discarded by cap enforcement so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans whose id is `>= mark`, i.e. those recorded since a consumer
    /// last noted [`next_id`](Self::next_id) — correct even after older
    /// spans were dropped, because ids are monotonic in record order.
    pub fn spans_since(&self, mark: u64) -> &[Span] {
        let at = self.spans.partition_point(|s| s.id.0 < mark);
        &self.spans[at..]
    }

    /// The id the next recorded span will get (a watermark for
    /// [`spans_since`](Self::spans_since)).
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Drops the oldest spans so at most `cap` remain. O(len) per call;
    /// hot paths should prefer [`enforce_cap_amortized`](Self::enforce_cap_amortized).
    pub fn truncate_front_to(&mut self, cap: usize) -> usize {
        if self.spans.len() <= cap {
            return 0;
        }
        let excess = self.spans.len() - cap;
        self.spans.drain(..excess);
        self.dropped += excess as u64;
        excess
    }

    /// Amortized capacity enforcement: drops down to `cap` only once the
    /// log exceeds `cap + cap/4 + 1`, so per-record cost stays O(1)
    /// amortized while in-flight memory stays below `1.25 × cap + 2`
    /// spans. Call [`truncate_front_to`](Self::truncate_front_to) once at
    /// the end for an exact bound.
    pub fn enforce_cap_amortized(&mut self, cap: usize) -> usize {
        let slack = cap / 4 + 1;
        if self.spans.len() > cap + slack {
            self.truncate_front_to(cap)
        } else {
            0
        }
    }

    /// Consumes the log, returning the spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One device's engine-level trace entries, with the device identity the
/// plain `&[TraceEntry]` merge path loses.
#[derive(Debug, Clone, Default)]
pub struct DeviceLane {
    /// Device index within the pool.
    pub device: usize,
    /// Display name (`dev0 (testbed-i)`).
    pub name: String,
    /// The device's entries, in its own record order, in the chunks the
    /// device's trace retired them in.
    pub entries: TraceChunks,
}

/// The complete serve-side trace: request-lifecycle spans plus per-device
/// engine lanes. Input of every serve exporter and of the timetable
/// renderer.
#[derive(Debug, Clone, Default)]
pub struct ServeTrace {
    /// Request-lifecycle spans, in record order.
    pub spans: Vec<Span>,
    /// Per-device engine entries, in device order.
    pub lanes: Vec<DeviceLane>,
}

impl ServeTrace {
    /// Latest end timestamp across spans and lanes, in nanoseconds.
    pub fn extent_ns(&self) -> u64 {
        let span_end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let lane_end = self
            .lanes
            .iter()
            .flat_map(|l| l.entries.iter())
            .map(|e| e.end.as_nanos())
            .max()
            .unwrap_or(0);
        span_end.max(lane_end)
    }

    /// Spans of one request, in record order.
    pub fn request_spans(&self, request: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.request == request).collect()
    }

    /// JSON value of the whole trace (spans plus lane summaries), for
    /// inspection dumps.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".to_owned(), Value::U64(s.id.0)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p.0)),
                    ),
                    ("request".to_owned(), Value::U64(s.request)),
                    (
                        "device".to_owned(),
                        s.device.map_or(Value::Null, |d| Value::U64(d as u64)),
                    ),
                    ("phase".to_owned(), Value::Str(s.phase.name().to_owned())),
                    ("label".to_owned(), Value::Str(s.label.clone())),
                    ("start_ns".to_owned(), Value::U64(s.start_ns)),
                    ("end_ns".to_owned(), Value::U64(s.end_ns)),
                    ("flow".to_owned(), s.flow.map_or(Value::Null, Value::U64)),
                ])
            })
            .collect();
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                Value::Map(vec![
                    ("device".to_owned(), Value::U64(l.device as u64)),
                    ("name".to_owned(), Value::Str(l.name.clone())),
                    ("entries".to_owned(), Value::U64(l.entries.len() as u64)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("spans".to_owned(), Value::Seq(spans)),
            ("lanes".to_owned(), Value::Seq(lanes)),
        ])
    }
}

/// Checks the structural invariants of a span log. Extends the trace
/// invariants of [`crate::invariants::check_entries`] to the request
/// lifecycle:
///
/// 1. every span ends no earlier than it starts;
/// 2. a request's queue-wait span ends no later than its first device
///    attempt starts — a request cannot run while still queued;
/// 3. re-issues of one request's execution (its `Dispatch`/`Retry`/
///    `HostFallback` spans — the serve-level twin of obs invariant 5)
///    never overlap in time: a retry must only start after its failed
///    predecessor's attempt is over;
/// 4. every parent reference resolves to a recorded span, and the child
///    lies within its parent's interval;
/// 5. a flow id is shared by at least two spans — a dangling flow links
///    nothing;
/// 6. hedge/cancel consistency: every `Cancel` span is an *instant*
///    placed exactly at the end of a same-request `Hedge`, `Dispatch`,
///    or `Retry` span (a cancellation that cancels nothing is an orphan),
///    and every `Hedge` span overlaps a same-request `Dispatch` or
///    `Retry` span in time — a hedge that races nothing is a leak.
///    `Hedge` spans are deliberately excluded from invariant 3: they
///    overlap the attempt they race by design.
///
/// # Errors
///
/// Returns every violated invariant as a human-readable message.
pub fn check_spans(spans: &[Span]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        problems.push("duplicate span ids in the log".to_owned());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            problems.push(format!(
                "span {} ({}) ends before it starts: {} < {}",
                s.id.0,
                s.phase.name(),
                s.end_ns,
                s.start_ns
            ));
        }
        if let Some(p) = s.parent {
            match by_id.get(&p) {
                None => problems.push(format!(
                    "span {} ({}) references missing parent {}",
                    s.id.0,
                    s.phase.name(),
                    p.0
                )),
                Some(parent) => {
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        problems.push(format!(
                            "span {} ({}) [{}, {}] escapes its parent {} [{}, {}]",
                            s.id.0,
                            s.phase.name(),
                            s.start_ns,
                            s.end_ns,
                            p.0,
                            parent.start_ns,
                            parent.end_ns
                        ));
                    }
                }
            }
        }
    }
    // Per request: queue precedes execution, and attempts never overlap.
    let mut attempts: HashMap<u64, Vec<(u64, u64, u64)>> = HashMap::new();
    let mut queued_end: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        match s.phase {
            SpanPhase::Dispatch | SpanPhase::Retry | SpanPhase::HostFallback => {
                attempts
                    .entry(s.request)
                    .or_default()
                    .push((s.start_ns, s.end_ns, s.id.0));
            }
            SpanPhase::Queued => {
                let e = queued_end.entry(s.request).or_insert(s.end_ns);
                *e = (*e).max(s.end_ns);
            }
            _ => {}
        }
    }
    for (req, mut spans) in attempts {
        spans.sort_unstable();
        if let (Some(&qe), Some(&(first, ..))) = (queued_end.get(&req), spans.first()) {
            if first < qe {
                problems.push(format!(
                    "request {req} starts executing at {first} while still queued until {qe}"
                ));
            }
        }
        for w in spans.windows(2) {
            let (_, e0, id0) = w[0];
            let (s1, _, id1) = w[1];
            if s1 < e0 {
                problems.push(format!(
                    "request {req}: re-issued attempt (span {id1}) starts at {s1} \
                     before the previous attempt (span {id0}) ends at {e0}"
                ));
            }
        }
    }
    // Invariant 6: hedges race a live attempt; cancels land on the end of
    // the span they cancel.
    let mut hedges: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut cancels: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        match s.phase {
            SpanPhase::Hedge => hedges.entry(s.request).or_default().push(s),
            SpanPhase::Cancel => cancels.entry(s.request).or_default().push(s),
            _ => {}
        }
    }
    for (req, list) in &cancels {
        for c in list {
            if c.start_ns != c.end_ns {
                problems.push(format!(
                    "request {req}: cancel span {} is not an instant \
                     ([{}, {}])",
                    c.id.0, c.start_ns, c.end_ns
                ));
            }
            let anchored = spans.iter().any(|s| {
                s.request == *req
                    && matches!(
                        s.phase,
                        SpanPhase::Hedge | SpanPhase::Dispatch | SpanPhase::Retry
                    )
                    && s.end_ns == c.start_ns
            });
            if !anchored {
                problems.push(format!(
                    "request {req}: cancel span {} at {} matches the end of \
                     no hedge/dispatch/retry span of the request",
                    c.id.0, c.start_ns
                ));
            }
        }
    }
    for (req, list) in &hedges {
        for h in list {
            let races = spans.iter().any(|s| {
                s.request == *req
                    && matches!(s.phase, SpanPhase::Dispatch | SpanPhase::Retry)
                    && s.start_ns < h.end_ns
                    && h.start_ns < s.end_ns
            });
            if !races {
                problems.push(format!(
                    "request {req}: hedge span {} [{}, {}] overlaps no \
                     dispatch/retry attempt of the request",
                    h.id.0, h.start_ns, h.end_ns
                ));
            }
        }
    }
    // Flows must link at least two spans.
    let mut flow_refs: HashMap<u64, usize> = HashMap::new();
    for s in spans {
        if let Some(f) = s.flow {
            *flow_refs.entry(f).or_default() += 1;
        }
    }
    for (f, n) in flow_refs {
        if n < 2 {
            problems.push(format!("flow {f} links only {n} span(s)"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_enforcement_drops_oldest_and_keeps_ids_monotonic() {
        let mut log = SpanLog::new();
        for i in 0..100u64 {
            log.record(None, i, None, SpanPhase::Submit, "s", i, i, None);
            log.enforce_cap_amortized(16);
            assert!(log.len() <= 16 + 16 / 4 + 1, "amortized bound holds");
        }
        log.truncate_front_to(16);
        assert_eq!(log.len(), 16);
        assert_eq!(log.dropped(), 84);
        let ids: Vec<u64> = log.spans().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, (84..100).collect::<Vec<_>>(), "oldest dropped first");
        // Watermark lookup still works across the dropped front.
        assert_eq!(log.spans_since(0).len(), 16);
        assert_eq!(log.spans_since(98).len(), 2);
        assert_eq!(log.spans_since(log.next_id()).len(), 0);
        // Ids keep advancing after drops.
        let id = log.record(None, 0, None, SpanPhase::Submit, "s", 0, 0, None);
        assert_eq!(id.0, 100);
    }

    #[test]
    fn truncate_on_a_small_log_is_a_no_op() {
        let mut log = SpanLog::new();
        log.record(None, 0, None, SpanPhase::Submit, "s", 0, 0, None);
        assert_eq!(log.truncate_front_to(16), 0);
        assert_eq!(log.enforce_cap_amortized(16), 0);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.len(), 1);
    }

    fn log_request(log: &mut SpanLog, req: u64, retries: u64, quarantine: bool) {
        // submit → queued → dispatch (+ retries) → complete, in order.
        log.record(None, req, None, SpanPhase::Submit, "submit", 0, 0, None);
        log.record(
            None,
            req,
            None,
            SpanPhase::Queued,
            "queued",
            0,
            100,
            Some(req),
        );
        let d = log.record(
            None,
            req,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            100,
            200,
            Some(req),
        );
        log.record(Some(d), req, Some(0), SpanPhase::H2d, "h2d", 100, 150, None);
        log.record(
            Some(d),
            req,
            Some(0),
            SpanPhase::Exec,
            "exec",
            150,
            190,
            None,
        );
        log.record(Some(d), req, Some(0), SpanPhase::D2h, "d2h", 190, 200, None);
        let mut t = 200;
        for k in 0..retries {
            if quarantine {
                log.record(
                    None,
                    req,
                    Some(0),
                    SpanPhase::Quarantine,
                    "quarantined dev0",
                    t,
                    t,
                    None,
                );
            }
            log.record(
                None,
                req,
                Some(1),
                SpanPhase::Retry,
                format!("attempt {}", k + 1),
                t,
                t + 100,
                None,
            );
            t += 100;
        }
        log.record(
            None,
            req,
            None,
            SpanPhase::Complete,
            "completed",
            t,
            t,
            None,
        );
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut log = SpanLog::new();
        log_request(&mut log, 0, 0, false);
        log_request(&mut log, 1, 2, true);
        assert!(check_spans(log.spans()).is_ok());
        assert_eq!(log.len(), 7 + 11);
    }

    #[test]
    fn retry_spans_never_overlap_invariant() {
        let mut log = SpanLog::new();
        log.record(
            None,
            3,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            100,
            300,
            None,
        );
        // A retry that starts before the first attempt ends is the span
        // twin of obs invariant 5 — and must be reported.
        log.record(
            None,
            3,
            Some(1),
            SpanPhase::Retry,
            "attempt 1",
            250,
            400,
            None,
        );
        let problems = check_spans(log.spans()).expect_err("overlapping re-issue");
        assert!(
            problems.iter().any(|p| p.contains("re-issued attempt")),
            "{problems:?}"
        );
    }

    #[test]
    fn quarantine_path_is_instant_and_passes() {
        let mut log = SpanLog::new();
        log.record(None, 5, None, SpanPhase::Queued, "queued", 0, 50, Some(5));
        log.record(
            None,
            5,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            50,
            150,
            Some(5),
        );
        log.record(
            None,
            5,
            Some(0),
            SpanPhase::Quarantine,
            "quarantined dev0 after fatal fault",
            150,
            150,
            None,
        );
        log.record(
            None,
            5,
            None,
            SpanPhase::HostFallback,
            "host fallback",
            150,
            900,
            None,
        );
        assert!(check_spans(log.spans()).is_ok());
    }

    #[test]
    fn execution_before_queue_end_reported() {
        let mut log = SpanLog::new();
        log.record(None, 9, None, SpanPhase::Queued, "queued", 0, 500, Some(9));
        log.record(
            None,
            9,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            400,
            600,
            Some(9),
        );
        let problems = check_spans(log.spans()).expect_err("queued overlap");
        assert!(
            problems.iter().any(|p| p.contains("still queued")),
            "{problems:?}"
        );
    }

    #[test]
    fn parent_and_flow_violations_reported() {
        let mut log = SpanLog::new();
        log.record(
            Some(SpanId(77)),
            1,
            Some(0),
            SpanPhase::H2d,
            "h2d",
            0,
            10,
            Some(42),
        );
        let problems = check_spans(log.spans()).expect_err("bad refs");
        assert!(problems.iter().any(|p| p.contains("missing parent")));
        assert!(problems.iter().any(|p| p.contains("flow 42")));
    }

    #[test]
    fn child_escaping_parent_reported() {
        let mut log = SpanLog::new();
        let d = log.record(
            None,
            1,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            100,
            200,
            None,
        );
        log.record(Some(d), 1, Some(0), SpanPhase::D2h, "d2h", 150, 250, None);
        let problems = check_spans(log.spans()).expect_err("child escapes");
        assert!(
            problems.iter().any(|p| p.contains("escapes")),
            "{problems:?}"
        );
    }

    #[test]
    fn reversed_span_normalised_at_record_and_reported_when_forced() {
        let mut log = SpanLog::new();
        log.record(None, 0, None, SpanPhase::Queued, "q", 100, 40, None);
        // record() clamps end to start, so the log stays well-formed.
        assert_eq!(log.spans()[0].end_ns, 100);
        let bad = Span {
            id: SpanId(9),
            parent: None,
            request: 0,
            device: None,
            phase: SpanPhase::Exec,
            label: "x".into(),
            start_ns: 10,
            end_ns: 5,
            flow: None,
        };
        assert!(check_spans(&[bad]).is_err());
    }

    #[test]
    fn hedge_race_with_anchored_cancel_passes() {
        let mut log = SpanLog::new();
        // Primary attempt on dev0, clamped to the hedge's win time; the
        // hedge on dev1 starts mid-flight and finishes first.
        log.record(
            None,
            7,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0 (cancelled)",
            100,
            260,
            None,
        );
        log.record(
            None,
            7,
            Some(1),
            SpanPhase::Hedge,
            "hedge on dev1 (won)",
            200,
            260,
            None,
        );
        log.record(
            None,
            7,
            Some(0),
            SpanPhase::Cancel,
            "cancelled: hedge won",
            260,
            260,
            None,
        );
        assert!(check_spans(log.spans()).is_ok());
    }

    #[test]
    fn orphan_cancel_and_raceless_hedge_reported() {
        let mut log = SpanLog::new();
        log.record(
            None,
            8,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            100,
            200,
            None,
        );
        // A hedge that only starts after the attempt is over races nothing.
        log.record(None, 8, Some(1), SpanPhase::Hedge, "hedge", 200, 300, None);
        // A cancel instant matching no span end is an orphan.
        log.record(
            None,
            8,
            Some(1),
            SpanPhase::Cancel,
            "cancel",
            250,
            250,
            None,
        );
        let problems = check_spans(log.spans()).expect_err("invariant 6");
        assert!(
            problems.iter().any(|p| p.contains("overlaps no")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("matches the end of")),
            "{problems:?}"
        );
    }

    #[test]
    fn non_instant_cancel_reported() {
        let mut log = SpanLog::new();
        log.record(
            None,
            4,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            0,
            100,
            None,
        );
        let mut c = Span {
            id: SpanId(99),
            parent: None,
            request: 4,
            device: Some(0),
            phase: SpanPhase::Cancel,
            label: "cancel".into(),
            start_ns: 50,
            end_ns: 100,
            flow: None,
        };
        let d = log.spans()[0].clone();
        c.id = SpanId(1);
        let problems = check_spans(&[d, c]).expect_err("stretched cancel");
        assert!(
            problems.iter().any(|p| p.contains("not an instant")),
            "{problems:?}"
        );
    }

    #[test]
    fn serve_trace_extent_and_request_lookup() {
        let mut log = SpanLog::new();
        log_request(&mut log, 0, 1, false);
        let trace = ServeTrace {
            spans: log.into_spans(),
            lanes: vec![DeviceLane {
                device: 0,
                name: "dev0".into(),
                entries: TraceChunks::default(),
            }],
        };
        assert_eq!(trace.extent_ns(), 300);
        assert!(!trace.request_spans(0).is_empty());
        assert!(trace.request_spans(99).is_empty());
        let v = trace.to_value();
        let Value::Map(fields) = &v else {
            panic!("map")
        };
        assert!(fields.iter().any(|(k, _)| k == "spans"));
    }

    #[test]
    fn phase_names_and_glyphs_are_distinct() {
        let phases = [
            SpanPhase::Submit,
            SpanPhase::Queued,
            SpanPhase::Dispatch,
            SpanPhase::H2d,
            SpanPhase::Exec,
            SpanPhase::D2h,
            SpanPhase::Retry,
            SpanPhase::Quarantine,
            SpanPhase::HostFallback,
            SpanPhase::Reject,
            SpanPhase::Coalesce,
            SpanPhase::Hedge,
            SpanPhase::Probe,
            SpanPhase::Cancel,
            SpanPhase::Complete,
        ];
        let names: std::collections::BTreeSet<&str> = phases.iter().map(|p| p.name()).collect();
        let glyphs: std::collections::BTreeSet<char> = phases.iter().map(|p| p.glyph()).collect();
        assert_eq!(names.len(), phases.len());
        assert_eq!(glyphs.len(), phases.len());
    }
}
