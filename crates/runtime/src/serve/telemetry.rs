//! Streaming telemetry for the serve executor: windowed metrics, SLO
//! evaluation, flight dumps, and incremental Perfetto export — the
//! `serve --watch` machinery.
//!
//! The session's [`ServeTracer`](super::trace::ServeTracer) owns a
//! [`Telemetry`] and ticks it from the dispatch loop: each finished
//! request lands counters and a flow-time observation in the open
//! [`WindowedMetrics`] window, freshly recorded spans are appended to the
//! incremental Perfetto stream, and window rotation (driven by the
//! *device clock*, never wall time) closes windows into [`WatchWindow`]
//! lines and evaluates the SLO engine. SLO evaluation is edge-triggered
//! and also runs intra-window, so a hard breach dumps the span log's
//! tail while the offending request's spans are still in it.
//!
//! Memory is O(window + cap + #closed windows): the open window holds a
//! handful of counters and one bounded histogram, the tracer's span log
//! keeps about [`TelemetryConfig::recorder_cap`] spans, and the streamed
//! Perfetto file lives on disk, not in memory. Telemetry only *reads*
//! device clocks, so telemetry-on and telemetry-off runs stay
//! bit-identical in virtual time.

use cocopelia_gpusim::SimTime;
use cocopelia_obs::perfetto::StreamWriter;
use cocopelia_obs::slo::names;
use cocopelia_obs::{
    FlightDump, Registry, SloBreach, SloEngine, SloSpec, SloStatus, SpanLog, WindowSnapshot,
    WindowedMetrics,
};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use super::{RequestOutcome, RequestStatus};
use crate::multigpu::MultiGpu;

/// Flow-time histogram bounds (seconds) for per-window percentiles.
pub const FLOW_SECS_BOUNDS: [f64; 14] = [
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Ceiling on stored flight dumps (each is O(cap) spans).
const MAX_DUMPS: usize = 32;

/// Configuration of the executor's streaming telemetry hook.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length on the virtual-time axis.
    pub window: SimTime,
    /// Objectives evaluated per window (empty = no SLO engine output).
    pub slos: Vec<SloSpec>,
    /// The one span cap while telemetry is on (clamped to ≥ 1): the span
    /// log keeps the newest `recorder_cap` spans (amortized while running,
    /// exact in the report), and every flight dump copies them.
    pub recorder_cap: usize,
    /// Stream Perfetto packets incrementally to this file.
    pub stream_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: SimTime::from_secs_f64(5e-3),
            slos: Vec::new(),
            recorder_cap: 2048,
            stream_path: None,
        }
    }
}

/// One closed telemetry window, rendered as a `serve --watch` line.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchWindow {
    /// Zero-based window index.
    pub index: u64,
    /// Window start (virtual time since drain start).
    pub start: SimTime,
    /// Window end (exclusive; truncated for the final partial window).
    pub end: SimTime,
    /// Queue depth when the window closed.
    pub queue_depth: usize,
    /// Requests that reached a terminal state in the window.
    pub finished: u64,
    /// …of which completed within deadline.
    pub completed: u64,
    /// …of which finished past their deadline.
    pub deadline_missed: u64,
    /// …of which failed terminally.
    pub failed: u64,
    /// Requests shed by admission control or backpressure in the window
    /// (not counted in `finished`; they never ran).
    pub rejected: u64,
    /// Requests that coalesced onto an identical queued request and
    /// completed with it in the window.
    pub coalesced: u64,
    /// p95 flow time of the window's finished requests, seconds.
    pub flow_p95_secs: Option<f64>,
    /// Residency-cache hit rate in the window, when it saw lookups.
    pub residency_hit_rate: Option<f64>,
    /// Device faults observed in the window.
    pub faults: u64,
    /// Quarantined devices when the window closed.
    pub quarantined: usize,
    /// Mean absolute relative scheduling-prediction drift, a ratio
    /// (rendered as a percentage).
    pub mean_abs_drift: f64,
    /// Hedge attempts launched in the window.
    pub hedges: u64,
    /// …of which beat their primary attempt.
    pub hedge_wins: u64,
    /// Probation canary probes run in the window.
    pub probes: u64,
    /// Retries refused fast (budget exhausted or breaker open).
    pub fastfails: u64,
    /// Cross-request operand prefetches issued in the window.
    pub prefetches: u64,
    /// …of which were claimed by their target request at dispatch.
    pub prefetch_hits: u64,
    /// Per-objective verdicts (empty when no SLOs are configured).
    pub slo: Vec<SloStatus>,
}

impl WatchWindow {
    /// The deterministic one-line rendering `serve --watch` prints.
    pub fn render(&self) -> String {
        let ms = |t: SimTime| t.as_secs_f64() * 1e3;
        let p95 = match self.flow_p95_secs {
            Some(v) => format!("{:.3}ms", v * 1e3),
            None => "-".to_owned(),
        };
        let hit = match self.residency_hit_rate {
            Some(v) => format!("{:.0}%", v * 100.0),
            None => "-".to_owned(),
        };
        let slo = if self.slo.is_empty() {
            "-".to_owned()
        } else if self.slo.iter().all(|s| s.ok) {
            "ok".to_owned()
        } else {
            let breached: Vec<String> = self
                .slo
                .iter()
                .filter(|s| !s.ok)
                .map(|s| match s.observed {
                    // A latched breach with no observations this window
                    // stays BREACH but has no number to compare.
                    Some(v) if v.is_finite() => {
                        format!("{} {:.4}>{}", s.spec.kind.name(), v, s.spec.limit)
                    }
                    _ => s.spec.kind.name().to_owned(),
                })
                .collect();
            format!("BREACH({})", breached.join(","))
        };
        // The straggler-defense columns appear only when the window saw
        // such activity, so runs with hedging/probation/budgets disarmed
        // render byte-identically to earlier versions.
        let mut defense = String::new();
        if self.hedges > 0 || self.hedge_wins > 0 {
            let _ = write!(defense, " hedge={}/{}", self.hedges, self.hedge_wins);
        }
        if self.probes > 0 {
            let _ = write!(defense, " probe={}", self.probes);
        }
        if self.fastfails > 0 {
            let _ = write!(defense, " ff={}", self.fastfails);
        }
        // The prefetch hit-rate column follows the same only-when-active
        // rule: `pf=hits/issued` is the window's prefetch hit rate.
        if self.prefetches > 0 || self.prefetch_hits > 0 {
            let _ = write!(defense, " pf={}/{}", self.prefetch_hits, self.prefetches);
        }
        format!(
            "[w{:03} {:9.3}-{:9.3}ms] q={} done={} miss={} fail={} rej={} coal={} p95={} hit={} faults={} quar={} drift={:.1}%{} slo={}",
            self.index,
            ms(self.start),
            ms(self.end),
            self.queue_depth,
            self.completed,
            self.deadline_missed,
            self.failed,
            self.rejected,
            self.coalesced,
            p95,
            hit,
            self.faults,
            self.quarantined,
            self.mean_abs_drift * 100.0,
            defense,
            slo,
        )
    }
}

/// End-of-run summary of what the telemetry layer saw and kept.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Window length used.
    pub window: SimTime,
    /// Every closed window, in order (the `--watch` lines).
    pub windows: Vec<WatchWindow>,
    /// Every ok→breached SLO transition, in firing order.
    pub breaches: Vec<SloBreach>,
    /// Flight dumps captured at breach/quarantine instants.
    pub dumps: Vec<FlightDump>,
    /// The span cap in force ([`TelemetryConfig::recorder_cap`]).
    pub recorder_cap: usize,
    /// Perfetto packets streamed to disk (0 when streaming was off).
    pub stream_packets: u64,
    /// Bytes streamed to disk.
    pub stream_bytes: u64,
    /// First streaming I/O error, if any (streaming then stopped; the
    /// run itself is never failed by telemetry I/O).
    pub stream_error: Option<String>,
}

impl TelemetryReport {
    /// Compact multi-line summary appended to the serve report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: {} windows of {:.3} ms, span cap {}, {} breach(es), {} dump(s)\n",
            self.windows.len(),
            self.window.as_secs_f64() * 1e3,
            self.recorder_cap,
            self.breaches.len(),
            self.dumps.len(),
        ));
        if self.stream_packets > 0 {
            out.push_str(&format!(
                "  stream: {} packets, {} bytes\n",
                self.stream_packets, self.stream_bytes
            ));
        }
        if let Some(err) = &self.stream_error {
            out.push_str(&format!("  stream error: {err}\n"));
        }
        for b in &self.breaches {
            out.push_str(&format!("  {b}\n"));
        }
        for d in &self.dumps {
            out.push_str(&format!(
                "  dump @ {:.3} ms: {} ({} spans, {} recorded before)\n",
                d.at_ns as f64 / 1e6,
                d.reason,
                d.spans.len(),
                d.dropped_before,
            ));
        }
        out
    }
}

/// Session-side snapshot of the loop state a telemetry tick needs.
pub(crate) struct TickState<'a> {
    /// Max device-clock advance since drain start, nanoseconds (the
    /// virtual "now" that rotates windows).
    pub elapsed_ns: u64,
    /// Requests still queued.
    pub queue_depth: usize,
    /// Per-device quarantine flags.
    pub quarantined: &'a [bool],
    /// Mean absolute relative prediction drift so far.
    pub mean_abs_drift: f64,
    /// The run-lifetime registry (read-only; per-window deltas are
    /// derived against an internal baseline).
    pub metrics: &'a Registry,
}

/// Callback receiving each closed window as it closes.
pub(crate) type WatchSink = Box<dyn FnMut(&WatchWindow)>;

/// The executor's streaming telemetry state.
pub(crate) struct Telemetry {
    cfg: TelemetryConfig,
    win: WindowedMetrics,
    slo: SloEngine,
    stream: Option<StreamWriter<BufWriter<File>>>,
    stream_error: Option<String>,
    sink: Option<WatchSink>,
    windows: Vec<WatchWindow>,
    breaches: Vec<SloBreach>,
    dumps: Vec<FlightDump>,
    /// Quarantines (device, request) whose dump the next outcome tick
    /// captures, in event order.
    quarantines: Vec<(usize, u64)>,
    /// Span-id watermark of the Perfetto stream.
    span_mark: u64,
    /// Per-device engine-trace watermark for lane streaming.
    lane_mark: Vec<usize>,
    /// Registry-counter baseline for per-window deltas.
    base: BTreeMap<String, u64>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("windows", &self.windows.len())
            .field("breaches", &self.breaches.len())
            .field("dumps", &self.dumps.len())
            .field("streaming", &self.stream.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates telemetry state, opening the stream file if configured.
    pub(crate) fn new(cfg: TelemetryConfig) -> std::io::Result<Self> {
        let stream = match &cfg.stream_path {
            Some(path) => Some(StreamWriter::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(Telemetry {
            win: WindowedMetrics::new(cfg.window.as_nanos().max(1)),
            slo: SloEngine::new(cfg.slos.clone()),
            stream,
            stream_error: None,
            sink: None,
            windows: Vec::new(),
            breaches: Vec::new(),
            dumps: Vec::new(),
            quarantines: Vec::new(),
            span_mark: 0,
            lane_mark: Vec::new(),
            base: BTreeMap::new(),
            cfg,
        })
    }

    pub(crate) fn set_sink(&mut self, sink: WatchSink) {
        self.sink = Some(sink);
    }

    /// Resets per-run state at drain start. `lane_marks` are the current
    /// per-device trace lengths (entries before the drain are not ours).
    pub(crate) fn begin(&mut self, lane_marks: Vec<usize>, metrics: &Registry) {
        self.win = WindowedMetrics::new(self.cfg.window.as_nanos().max(1));
        self.slo = SloEngine::new(self.cfg.slos.clone());
        self.windows.clear();
        self.breaches.clear();
        self.dumps.clear();
        self.quarantines.clear();
        self.span_mark = 0;
        self.lane_mark = lane_marks;
        self.base.clear();
        // Baseline every delta-tracked counter so pre-run counts (e.g.
        // from an earlier drain on the same executor) don't leak in.
        for name in DELTA_COUNTERS {
            self.base.insert((*name).to_owned(), metrics.counter(name));
        }
    }

    /// The span cap ([`TelemetryConfig::recorder_cap`], clamped to ≥ 1).
    pub(crate) fn cap(&self) -> usize {
        self.cfg.recorder_cap.max(1)
    }

    /// Device `d`'s engine-trace watermark while a Perfetto stream is
    /// open: entries before it are already streamed.
    pub(crate) fn stream_mark(&self, d: usize) -> Option<usize> {
        self.stream.as_ref().map(|_| self.lane_mark[d])
    }

    /// Appends the engine entries and spans produced since the last call
    /// to the Perfetto stream, advancing the per-device and span
    /// watermarks. No-op without a stream.
    pub(crate) fn stream_new(&mut self, pool: &MultiGpu, log: &SpanLog) {
        if self.stream.is_none() {
            return;
        }
        for (d, dev) in pool.devices().iter().enumerate() {
            let trace = dev.gpu().trace();
            let mark = self.lane_mark[d];
            if trace.len() > mark {
                self.lane_mark[d] = trace.len();
                let entries = trace.entries_since(mark);
                self.stream_op(|w| w.write_entries(d, &format!("dev{d}"), entries));
            }
        }
        let spans = log.spans_since(self.span_mark);
        if !spans.is_empty() {
            self.stream_op(|w| w.write_spans(spans));
        }
        self.span_mark = log.next_id();
    }

    /// Queues the dump of a fresh quarantine of `device` while serving
    /// `request`; the next outcome tick captures it, so the dump holds
    /// the request's completion.
    pub(crate) fn queue_quarantine_dump(&mut self, device: usize, request: u64) {
        if !self.quarantines.iter().any(|&(d, _)| d == device) {
            self.quarantines.push((device, request));
        }
    }

    /// Records one finished request into the open window. A rejected
    /// request never ran, so it counts only toward the window's
    /// `rejected` (feeding the `rejected` SLO kind), not `finished`.
    pub(crate) fn on_outcome(&mut self, outcome: &RequestOutcome, flow_secs: f64) {
        let (completed, missed, failed) = match &outcome.status {
            RequestStatus::Completed(_) => (1, 0, 0),
            RequestStatus::TimedOut { .. } => (0, 1, 0),
            RequestStatus::Failed(_) => (0, 0, 1),
            RequestStatus::Rejected { .. } => {
                self.win.counter_add(names::REJECTED, 1);
                return;
            }
        };
        if outcome.coalesced {
            self.win.counter_add(names::COALESCED, 1);
        }
        self.win.counter_add(names::FINISHED, 1);
        self.win.counter_add(names::COMPLETED, completed);
        self.win.counter_add(names::DEADLINE_MISSED, missed);
        self.win.counter_add(names::FAILED, failed);
        self.win
            .counter_add(names::ATTEMPTS, u64::from(outcome.retries) + 1);
        if flow_secs.is_finite() {
            self.win
                .histogram_observe(names::FLOW_SECS, &FLOW_SECS_BOUNDS, flow_secs);
        }
    }

    /// Flushes the Perfetto stream (checkpoint on error paths and at
    /// window boundaries).
    pub(crate) fn flush_stream(&mut self) {
        if self.stream.is_some() {
            self.stream_op(|w| w.flush());
        }
    }

    /// One telemetry step with the current loop state: accounts the
    /// just-finished `outcome` (with its flow seconds), dumps the
    /// quarantines queued since the last outcome, then rotates windows.
    /// Rotation closes every window the device clock has passed, emits
    /// their `WatchWindow`s (sink + report), fires edge-triggered breach
    /// dumps, and then fast-path-evaluates the open window so a hard
    /// breach dumps immediately.
    pub(crate) fn tick(
        &mut self,
        log: &SpanLog,
        st: &TickState<'_>,
        outcome: Option<(&RequestOutcome, f64)>,
    ) {
        if let Some((o, flow_secs)) = outcome {
            // A device re-admitted by probation within the same dispatch
            // is no incident any more.
            for (d, request) in std::mem::take(&mut self.quarantines) {
                if st.quarantined[d] {
                    let reason = format!("quarantine dev{d} (request {request})");
                    self.capture_dump(reason, st.elapsed_ns, log);
                    // Flush so the trace survives even a
                    // quarantine-to-empty-pool drain or terminal DeviceLost.
                    self.flush_stream();
                }
            }
            self.on_outcome(o, flow_secs);
            if o.host_fallback {
                // Quarantine-to-empty-pool path: checkpoint the stream so
                // a drain that never returns still leaves a valid trace.
                self.flush_stream();
            }
        }
        self.inject(st);
        let closed = self.win.advance_to(st.elapsed_ns);
        let rotated = !closed.is_empty();
        for snap in closed {
            self.close_window(snap, log);
        }
        if rotated {
            self.flush_stream();
        }
        // Intra-window fast path: a breach observable mid-window fires
        // now, while the breaching request's spans are still in the log.
        let peek = self.win.peek(st.elapsed_ns);
        let partial = self.slo.evaluate_partial(&peek);
        for b in partial {
            self.capture_dump(format!("{b}"), b.at_ns, log);
            self.breaches.push(b);
        }
    }

    /// Final rotation at drain end: closes the partial window (if it has
    /// any content or time), evaluates it, flushes the stream, and
    /// returns the end-of-run summary.
    pub(crate) fn finish(&mut self, log: &SpanLog, st: &TickState<'_>) -> TelemetryReport {
        self.inject(st);
        for snap in self.win.advance_to(st.elapsed_ns) {
            self.close_window(snap, log);
        }
        if st.elapsed_ns > self.win.open_start_ns() {
            let snap = self.win.close_now(st.elapsed_ns);
            self.close_window(snap, log);
        }
        self.flush_stream();
        TelemetryReport {
            window: self.cfg.window,
            windows: std::mem::take(&mut self.windows),
            breaches: std::mem::take(&mut self.breaches),
            dumps: std::mem::take(&mut self.dumps),
            recorder_cap: self.cap(),
            stream_packets: self.stream.as_ref().map(|w| w.packets()).unwrap_or(0),
            stream_bytes: self.stream.as_ref().map(|w| w.bytes_written()).unwrap_or(0),
            stream_error: self.stream_error.clone(),
        }
    }

    // ---- internals ----

    /// Samples gauges and registry-counter deltas into the open window.
    fn inject(&mut self, st: &TickState<'_>) {
        self.win
            .gauge_set(names::QUEUE_DEPTH, st.queue_depth as f64);
        let quarantined = st.quarantined.iter().filter(|&&q| q).count();
        self.win.gauge_set(names::QUARANTINED, quarantined as f64);
        self.win.gauge_set(names::DRIFT, st.mean_abs_drift);
        let faults = self.delta(st.metrics, "fault_transient_total")
            + self.delta(st.metrics, "fault_degraded_total")
            + self.delta(st.metrics, "fault_fatal_total");
        self.win.counter_add(names::FAULTS, faults);
        let hits = self.delta(st.metrics, "residency_hits_total");
        let misses = self.delta(st.metrics, "residency_misses_total");
        self.win.counter_add(names::RESIDENCY_HITS, hits);
        self.win.counter_add(names::RESIDENCY_MISSES, misses);
        let hedges = self.delta(st.metrics, "hedge_attempts_total");
        let hedge_wins = self.delta(st.metrics, "hedge_wins_total");
        let probes = self.delta(st.metrics, "probe_attempts_total");
        let fastfails = self.delta(st.metrics, "budget_fastfail_total");
        self.win.counter_add(names::HEDGES, hedges);
        self.win.counter_add(names::HEDGE_WINS, hedge_wins);
        self.win.counter_add(names::PROBES, probes);
        self.win.counter_add(names::BUDGET_FASTFAILS, fastfails);
        let prefetches = self.delta(st.metrics, "prefetch_issued_total");
        let prefetch_hits = self.delta(st.metrics, "prefetch_hits_total");
        self.win.counter_add(names::PREFETCHES, prefetches);
        self.win.counter_add(names::PREFETCH_HITS, prefetch_hits);
    }

    fn delta(&mut self, metrics: &Registry, name: &str) -> u64 {
        let cur = metrics.counter(name);
        let base = self.base.entry(name.to_owned()).or_insert(0);
        let d = cur.saturating_sub(*base);
        *base = cur;
        d
    }

    fn close_window(&mut self, snap: WindowSnapshot, log: &SpanLog) {
        let (statuses, breaches) = self.slo.evaluate(&snap);
        let ww = watch_window(&snap, statuses);
        if let Some(sink) = self.sink.as_mut() {
            sink(&ww);
        }
        self.windows.push(ww);
        for b in breaches {
            self.capture_dump(format!("{b}"), b.at_ns, log);
            self.breaches.push(b);
        }
    }

    fn capture_dump(&mut self, reason: String, at_ns: u64, log: &SpanLog) {
        if self.dumps.len() >= MAX_DUMPS {
            return;
        }
        let dump = FlightDump::capture(log, self.cap(), reason, self.win.index(), at_ns);
        self.dumps.push(dump);
        self.flush_stream();
    }

    fn stream_op(
        &mut self,
        op: impl FnOnce(&mut StreamWriter<BufWriter<File>>) -> std::io::Result<()>,
    ) {
        if let Some(w) = self.stream.as_mut() {
            if let Err(e) = op(w) {
                // First error wins; streaming stops, the run continues.
                self.stream_error.get_or_insert_with(|| e.to_string());
                self.stream = None;
            }
        }
    }
}

/// Registry counters whose per-window deltas telemetry tracks.
const DELTA_COUNTERS: &[&str] = &[
    "fault_transient_total",
    "fault_degraded_total",
    "fault_fatal_total",
    "residency_hits_total",
    "residency_misses_total",
    "hedge_attempts_total",
    "hedge_wins_total",
    "probe_attempts_total",
    "budget_fastfail_total",
    "prefetch_issued_total",
    "prefetch_hits_total",
];

fn watch_window(s: &WindowSnapshot, slo: Vec<SloStatus>) -> WatchWindow {
    let hits = s.counter(names::RESIDENCY_HITS);
    let misses = s.counter(names::RESIDENCY_MISSES);
    WatchWindow {
        index: s.index,
        start: SimTime::from_nanos(s.start_ns),
        end: SimTime::from_nanos(s.end_ns),
        queue_depth: s.gauge(names::QUEUE_DEPTH).unwrap_or(0.0) as usize,
        finished: s.counter(names::FINISHED),
        completed: s.counter(names::COMPLETED),
        deadline_missed: s.counter(names::DEADLINE_MISSED),
        failed: s.counter(names::FAILED),
        rejected: s.counter(names::REJECTED),
        coalesced: s.counter(names::COALESCED),
        flow_p95_secs: s
            .digest(names::FLOW_SECS)
            .filter(|d| d.count > 0)
            .map(|d| d.p95),
        residency_hit_rate: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        faults: s.counter(names::FAULTS),
        quarantined: s.gauge(names::QUARANTINED).unwrap_or(0.0) as usize,
        mean_abs_drift: s.gauge(names::DRIFT).unwrap_or(0.0),
        hedges: s.counter(names::HEDGES),
        hedge_wins: s.counter(names::HEDGE_WINS),
        probes: s.counter(names::PROBES),
        fastfails: s.counter(names::BUDGET_FASTFAILS),
        prefetches: s.counter(names::PREFETCHES),
        prefetch_hits: s.counter(names::PREFETCH_HITS),
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_window_render_is_stable() {
        let ww = WatchWindow {
            index: 3,
            start: SimTime::from_nanos(15_000_000),
            end: SimTime::from_nanos(20_000_000),
            queue_depth: 4,
            finished: 10,
            completed: 9,
            deadline_missed: 1,
            failed: 0,
            rejected: 2,
            coalesced: 1,
            flow_p95_secs: Some(0.00231),
            residency_hit_rate: Some(0.875),
            faults: 2,
            quarantined: 0,
            mean_abs_drift: 0.125,
            hedges: 0,
            hedge_wins: 0,
            probes: 0,
            fastfails: 0,
            prefetches: 0,
            prefetch_hits: 0,
            slo: Vec::new(),
        };
        assert_eq!(
            ww.render(),
            "[w003    15.000-   20.000ms] q=4 done=9 miss=1 fail=0 rej=2 coal=1 p95=2.310ms hit=88% faults=2 quar=0 drift=12.5% slo=-"
        );
        let empty = WatchWindow {
            flow_p95_secs: None,
            residency_hit_rate: None,
            ..ww.clone()
        };
        assert!(empty.render().contains("p95=- hit=-"));
        // Straggler-defense columns appear only when the window saw that
        // activity — and then between drift and slo.
        let busy = WatchWindow {
            hedges: 3,
            hedge_wins: 1,
            probes: 2,
            fastfails: 4,
            ..ww
        };
        assert!(
            busy.render()
                .contains("drift=12.5% hedge=3/1 probe=2 ff=4 slo=-"),
            "{}",
            busy.render()
        );
        // The prefetch hit-rate column rides with the defense columns,
        // after fast-fails.
        let prefetching = WatchWindow {
            prefetches: 5,
            prefetch_hits: 4,
            ..busy
        };
        assert!(
            prefetching
                .render()
                .contains("hedge=3/1 probe=2 ff=4 pf=4/5 slo=-"),
            "{}",
            prefetching.render()
        );
    }

    #[test]
    fn telemetry_without_stream_needs_no_fs() {
        let mut t = Telemetry::new(TelemetryConfig::default()).expect("no file needed");
        let reg = Registry::default();
        t.begin(vec![0, 0], &reg);
        let log = SpanLog::default();
        let st = TickState {
            elapsed_ns: 12_000_000,
            queue_depth: 0,
            quarantined: &[false, false],
            mean_abs_drift: 0.0,
            metrics: &reg,
        };
        t.tick(&log, &st, None);
        let report = t.finish(&log, &st);
        // 5 ms windows over 12 ms: two full + one partial.
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.windows[2].end, SimTime::from_nanos(12_000_000));
        assert!(report.breaches.is_empty());
        assert_eq!(report.stream_packets, 0);
        assert!(report.stream_error.is_none());
    }
}
