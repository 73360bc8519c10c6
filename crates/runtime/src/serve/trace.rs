//! Request-lifecycle tracing for the serve executor.
//!
//! [`ServeTracer`] is the session's one observer. It turns the dispatch
//! loop into a [`ServeTrace`]: one queue-wait span per request, one span
//! per dispatch attempt (with `h2d`/`exec`/`d2h` child spans aggregated
//! from the trace entries the attempt produced), instants for quarantine
//! and completion, and host-fallback spans on a serial host clock. The
//! queue span and the first device attempt of a request share a flow id
//! (the request id), so viewers draw the queue-to-device hand-off arrow;
//! a request that never reached a device links its host run instead.
//! The tracer keeps no per-request state: the session's queue record
//! supplies each queue span's origin, and the dispatch loop knows which
//! run is a request's first. When streaming telemetry is armed it rides
//! inside the tracer: the span log is capped at
//! [`TelemetryConfig::recorder_cap`] and flight dumps copy its tail, so
//! every span is stored once.
//!
//! The tracer also sets how much of each device's engine trace the
//! session must keep ([`ServeTracer::retire_floor`]): the whole drain when
//! lanes are kept for the report, the not-yet-streamed tail when only a
//! Perfetto stream reads it, and nothing otherwise.
//!
//! All span timestamps are virtual nanoseconds on the same axis as the
//! simulator's [`TraceEntry`] timestamps, so spans overlay the per-device
//! engine lanes exactly. Arrival instants come in as the session keeps
//! them, offsets past the drain start, and the tracer places them on that
//! axis.
//!
//! [`TelemetryConfig::recorder_cap`]: crate::serve::TelemetryConfig::recorder_cap

use crate::multigpu::MultiGpu;
use crate::serve::telemetry::{Telemetry, TelemetryReport, TickState};
use crate::serve::RequestOutcome;
use cocopelia_gpusim::{EngineKind, TraceEntry};
use cocopelia_obs::{DeviceLane, Registry, ServeTrace, SpanLog, SpanPhase};

/// The session's span store and streaming-telemetry host, driven by the
/// executor's dispatch loop.
#[derive(Debug, Default)]
pub(crate) struct ServeTracer {
    log: SpanLog,
    /// Virtual time the drain started: the earliest device clock, and
    /// the origin of arrival offsets.
    t0_ns: u64,
    /// Serial virtual clock of host-fallback execution.
    host_ns: u64,
    /// Keep the drain's device lanes for the report
    /// ([`ServeOptions::tracing`](crate::serve::ServeOptions::tracing));
    /// a telemetry-only tracer returns none.
    keep_lanes: bool,
    /// Per-device engine-trace length when the drain began; the run's
    /// device lanes are the entries recorded after these marks.
    lane_mark: Vec<usize>,
    /// Streaming telemetry, armed by
    /// [`ServeOptions::telemetry`](crate::serve::ServeOptions::telemetry).
    telemetry: Option<Telemetry>,
}

impl ServeTracer {
    /// A tracer that keeps the drain's device lanes when `keep_lanes`,
    /// hosting `telemetry` when armed.
    pub(crate) fn new(keep_lanes: bool, telemetry: Option<Telemetry>) -> Self {
        ServeTracer {
            keep_lanes,
            telemetry,
            ..ServeTracer::default()
        }
    }

    /// True when streaming telemetry is armed.
    pub(crate) fn watching(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Starts a drain over `pool`: marks each device's engine trace,
    /// resets telemetry against the `metrics` baseline, and records a
    /// submit instant at the earliest device clock for the `submitted`
    /// closed-queue requests (queued, or refused at admission).
    pub(crate) fn begin_drain(&mut self, pool: &MultiGpu, submitted: &[u64], metrics: &Registry) {
        self.lane_mark = pool
            .devices()
            .iter()
            .map(|d| d.gpu().trace().len())
            .collect();
        if let Some(tele) = self.telemetry.as_mut() {
            tele.begin(self.lane_mark.clone(), metrics);
        }
        let t0_ns = pool
            .devices()
            .iter()
            .map(|d| d.gpu().now().as_nanos())
            .min()
            .unwrap_or(0);
        self.open(t0_ns, submitted);
    }

    /// Starts a trace at drain time `t0_ns`, recording a submit instant
    /// for the `submitted` closed-queue requests.
    fn open(&mut self, t0_ns: u64, submitted: &[u64]) {
        self.t0_ns = t0_ns;
        self.host_ns = t0_ns;
        for &req in submitted {
            self.instant(req, None, SpanPhase::Submit, "submitted", t0_ns);
        }
    }

    /// Records a zero-length span of `phase` at virtual time `at_ns`.
    fn instant(
        &mut self,
        req: u64,
        device: Option<usize>,
        phase: SpanPhase,
        label: impl Into<String>,
        at_ns: u64,
    ) {
        self.log
            .record(None, req, device, phase, label, at_ns, at_ns, None);
    }

    /// Records an open-arrival instant: the request entered the executor
    /// `arrival_ns` past the drain start.
    pub(crate) fn arrive(&mut self, req: u64, arrival_ns: u64) {
        let at = self.t0_ns + arrival_ns;
        self.instant(req, None, SpanPhase::Submit, "arrived", at);
    }

    /// Records a shed instant: admission control or backpressure refused
    /// the request at its arrival, `arrival_ns` past the drain start (zero
    /// for a closed-queue submission).
    pub(crate) fn reject(&mut self, req: u64, arrival_ns: u64, reason: &str) {
        let at = self.t0_ns + arrival_ns;
        self.instant(req, None, SpanPhase::Reject, reason, at);
    }

    /// Records a coalesce instant: the request, arriving `arrival_ns` past
    /// the drain start, attached to the identical queued request `leader`
    /// and will share its execution.
    pub(crate) fn coalesce(&mut self, req: u64, leader: u64, arrival_ns: u64) {
        let at = self.t0_ns + arrival_ns;
        let label = format!("coalesced into r{leader}");
        self.instant(req, None, SpanPhase::Coalesce, label, at);
    }

    /// Records the queue-wait span of a request, ending where its first
    /// run starts. The span begins at the request's arrival, `arrival_ns`
    /// past the drain start (zero for closed-queue submissions), and
    /// carries the flow id that the first run will close.
    pub(crate) fn queue_wait(&mut self, req: u64, arrival_ns: u64, dispatch_ns: u64) {
        let from = self.t0_ns + arrival_ns;
        self.log.record(
            None,
            req,
            None,
            SpanPhase::Queued,
            "queued",
            from,
            dispatch_ns.max(from),
            Some(req),
        );
    }

    /// Records one dispatch attempt on a device: the attempt span
    /// (`Dispatch` for attempt 0, `Retry` after) plus per-engine child
    /// spans aggregated from the trace entries the attempt produced,
    /// clamped into the attempt interval. Attempt 0 is the request's first
    /// device run, so it closes the request's queue flow.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attempt(
        &mut self,
        req: u64,
        device: usize,
        attempt: u32,
        start_ns: u64,
        end_ns: u64,
        entries: &[TraceEntry],
        faulted: Option<&str>,
    ) {
        let phase = if attempt == 0 {
            SpanPhase::Dispatch
        } else {
            SpanPhase::Retry
        };
        let flow = (attempt == 0).then_some(req);
        let label = match faulted {
            Some(fault) => format!("attempt {attempt}: {fault}"),
            None => format!("attempt {attempt}"),
        };
        self.device_run(req, device, phase, label, start_ns, end_ns, entries, flow);
    }

    /// Records a speculative hedge attempt on device `device`, racing the
    /// request's primary attempt. The span carries no flow id (the
    /// primary attempt owns the queue hand-off) but gets the same
    /// per-engine child spans as a regular attempt.
    pub(crate) fn hedge(
        &mut self,
        req: u64,
        device: usize,
        start_ns: u64,
        end_ns: u64,
        entries: &[TraceEntry],
        label: &str,
    ) {
        self.device_run(
            req,
            device,
            SpanPhase::Hedge,
            label.to_owned(),
            start_ns,
            end_ns,
            entries,
            None,
        );
    }

    /// Records a run on a device (an attempt or a hedge) plus one child
    /// span per engine, aggregated from the run's trace entries.
    #[allow(clippy::too_many_arguments)]
    fn device_run(
        &mut self,
        req: u64,
        device: usize,
        phase: SpanPhase,
        label: String,
        start_ns: u64,
        end_ns: u64,
        entries: &[TraceEntry],
        flow: Option<u64>,
    ) {
        let parent = self.log.record(
            None,
            req,
            Some(device),
            phase,
            label,
            start_ns,
            end_ns,
            flow,
        );
        for (engine, phase) in [
            (EngineKind::CopyH2d, SpanPhase::H2d),
            (EngineKind::Compute, SpanPhase::Exec),
            (EngineKind::CopyD2h, SpanPhase::D2h),
        ] {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            let mut n = 0usize;
            for e in entries.iter().filter(|e| e.engine == engine) {
                lo = lo.min(e.start.as_nanos());
                hi = hi.max(e.end.as_nanos());
                n += 1;
            }
            if n == 0 {
                continue;
            }
            // Clamp into the run interval so the child never escapes its
            // parent (span invariant 4) even if an engine slot predates
            // the dispatch clock sample.
            let lo = lo.clamp(start_ns, end_ns);
            let hi = hi.clamp(lo, end_ns);
            self.log.record(
                Some(parent),
                req,
                Some(device),
                phase,
                format!("{} ({n} ops)", engine.name()),
                lo,
                hi,
                None,
            );
        }
    }

    /// Records the cancellation instant of a hedge race's losing side on
    /// device `device` — the moment the loser's clock was rewound to.
    pub(crate) fn cancel(&mut self, req: u64, device: usize, at_ns: u64, label: &str) {
        self.instant(req, Some(device), SpanPhase::Cancel, label, at_ns);
    }

    /// Records a probation canary probe on quarantined device `device`.
    /// Probes belong to no request; they use the reserved request id
    /// `u64::MAX` so viewers group them on their own track.
    pub(crate) fn probe(&mut self, device: usize, start_ns: u64, end_ns: u64, label: &str) {
        self.log.record(
            None,
            u64::MAX,
            Some(device),
            SpanPhase::Probe,
            label.to_owned(),
            start_ns,
            end_ns,
            None,
        );
    }

    /// Records a quarantine instant on the device that faulted out and
    /// queues its flight dump for the next telemetry tick.
    pub(crate) fn quarantine(&mut self, req: u64, device: usize, at_ns: u64) {
        if let Some(tele) = self.telemetry.as_mut() {
            tele.queue_quarantine_dump(device, req);
        }
        let label = format!("quarantined dev{device}");
        self.instant(req, Some(device), SpanPhase::Quarantine, label, at_ns);
    }

    /// Records a host-fallback run on the serial host clock, which never
    /// runs backwards and never starts before `not_before_ns` (the end of
    /// the request's last device attempt). A `first_run` (the request
    /// never reached a device) closes the request's queue flow here, so
    /// the hand-off arrow points at the host lane instead of dangling.
    pub(crate) fn host_fallback(
        &mut self,
        req: u64,
        not_before_ns: u64,
        elapsed_ns: u64,
        first_run: bool,
    ) {
        let start = self.host_ns.max(not_before_ns);
        let end = start + elapsed_ns;
        self.host_ns = end;
        let flow = first_run.then_some(req);
        self.log.record(
            None,
            req,
            None,
            SpanPhase::HostFallback,
            "host fallback",
            start,
            end,
            flow,
        );
    }

    /// Records the terminal instant of a request (`completed`,
    /// `timed-out`, `failed`).
    pub(crate) fn complete(&mut self, req: u64, at_ns: u64, status: &str) {
        self.instant(req, None, SpanPhase::Complete, status, at_ns);
    }

    /// End of the host clock so far (where the next fallback would start).
    pub(crate) fn host_now_ns(&self) -> u64 {
        self.host_ns
    }

    /// One telemetry step after an outcome (or a shed or fan-out):
    /// streams the engine entries and spans produced since the last step,
    /// ticks telemetry with `outcome` and its flow seconds, and enforces
    /// the span cap (amortized). No-op unless telemetry is armed.
    pub(crate) fn tick(
        &mut self,
        pool: &MultiGpu,
        st: &TickState<'_>,
        outcome: Option<(&RequestOutcome, f64)>,
    ) {
        if let Some(tele) = self.telemetry.as_mut() {
            tele.stream_new(pool, &self.log);
            tele.tick(&self.log, st, outcome);
            self.log.enforce_cap_amortized(tele.cap());
        }
    }

    /// The global index below which device `d`'s engine trace (now `len`
    /// entries long) holds nothing this tracer still reads: the drain-start
    /// mark while lanes are kept, the Perfetto stream's watermark while
    /// streaming, and otherwise `len` itself.
    pub(crate) fn retire_floor(&self, d: usize, len: usize) -> usize {
        if self.keep_lanes {
            self.lane_mark[d]
        } else {
            self.telemetry
                .as_ref()
                .and_then(|tele| tele.stream_mark(d))
                .unwrap_or(len)
        }
    }

    /// Ends the drain: the final telemetry rotation and the exact span
    /// cap. Returns the spans the cap dropped and the telemetry summary
    /// when armed.
    pub(crate) fn finish(
        &mut self,
        pool: &MultiGpu,
        st: &TickState<'_>,
    ) -> (u64, Option<TelemetryReport>) {
        let telemetry = self.telemetry.as_mut().map(|tele| {
            tele.stream_new(pool, &self.log);
            let report = tele.finish(&self.log, st);
            self.log.truncate_front_to(tele.cap());
            report
        });
        (self.log.dropped(), telemetry)
    }

    /// Moves the finished drain's device lanes out of each device's engine
    /// trace, which then retains none of the drain's entries. A tracer
    /// that does not keep lanes takes none.
    pub(crate) fn take_lanes(&self, pool: &mut MultiGpu) -> Vec<DeviceLane> {
        if !self.keep_lanes {
            return Vec::new();
        }
        (0..pool.device_count())
            .map(|i| {
                let gpu = pool.device_mut(i).gpu_mut();
                gpu.retire_trace(self.lane_mark[i]);
                let len = gpu.trace().len();
                DeviceLane {
                    device: i,
                    name: format!("dev{i}"),
                    entries: gpu.retire_trace(len),
                }
            })
            .collect()
    }

    /// Drains the collected spans into a [`ServeTrace`] over the given
    /// device lanes.
    pub(crate) fn take_trace(&mut self, lanes: Vec<DeviceLane>) -> ServeTrace {
        let log = std::mem::take(&mut self.log);
        ServeTrace {
            spans: log.into_spans(),
            lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::TelemetryConfig;
    use cocopelia_obs::check_spans;

    #[test]
    fn tracer_produces_invariant_clean_spans() {
        let mut t = ServeTracer::default();
        t.open(1000, &[0, 1]);
        t.queue_wait(0, 0, 2000);
        t.attempt(0, 0, 0, 2000, 5000, &[], None);
        t.complete(0, 5000, "completed");
        t.queue_wait(1, 0, 5000);
        t.attempt(1, 0, 0, 5000, 6000, &[], Some("kernel fault"));
        t.quarantine(1, 0, 6000);
        t.attempt(1, 1, 1, 6000, 9000, &[], None);
        t.complete(1, 9000, "completed");
        let trace = t.take_trace(Vec::new());
        check_spans(&trace.spans).expect("tracer spans satisfy invariants");
        assert_eq!(trace.request_spans(1).len(), 6);
    }

    #[test]
    fn retire_floor_keeps_what_lanes_or_the_stream_still_read() {
        let metrics = Registry::default();
        let begin = |mut t: ServeTracer| {
            t.lane_mark = vec![4, 6];
            if let Some(tele) = t.telemetry.as_mut() {
                tele.begin(vec![7, 9], &metrics);
            }
            t
        };
        let untraced = begin(ServeTracer::new(false, None));
        assert_eq!(untraced.retire_floor(1, 20), 20, "nothing is read: all");
        let traced = begin(ServeTracer::new(true, None));
        assert_eq!(traced.retire_floor(1, 20), 6, "lanes keep the drain");
        let tele = |cfg| Some(Telemetry::new(cfg).expect("stream file creatable"));
        let watched = begin(ServeTracer::new(false, tele(TelemetryConfig::default())));
        assert_eq!(watched.retire_floor(1, 20), 20, "no stream: all");
        let path = std::env::temp_dir().join(format!(
            "cocopelia_retire_floor_{}.pftrace",
            std::process::id()
        ));
        let cfg = TelemetryConfig {
            stream_path: Some(path.clone()),
            ..TelemetryConfig::default()
        };
        let streamed = begin(ServeTracer::new(false, tele(cfg.clone())));
        assert_eq!(streamed.retire_floor(1, 20), 9, "the unstreamed tail stays");
        let both = begin(ServeTracer::new(true, tele(cfg)));
        assert_eq!(both.retire_floor(1, 20), 6, "lanes outrank the stream");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn arrival_queue_spans_start_at_arrival_instant() {
        let mut t = ServeTracer::default();
        t.open(1000, &[]);
        t.arrive(1, 2000);
        t.queue_wait(1, 2000, 5000);
        t.attempt(1, 0, 0, 5000, 7000, &[], None);
        t.complete(1, 7000, "completed");
        t.arrive(2, 2500);
        t.reject(2, 2500, "queue full: depth 1 at cap 1");
        t.arrive(3, 3000);
        t.coalesce(3, 1, 3000);
        t.complete(3, 7000, "completed");
        let trace = t.take_trace(Vec::new());
        check_spans(&trace.spans).expect("clean");
        let q = trace
            .spans
            .iter()
            .find(|s| s.phase == SpanPhase::Queued && s.request == 1)
            .expect("queue span");
        assert_eq!(q.start_ns, 3000, "queue wait begins at arrival, not t0");
        assert!(trace.spans.iter().any(|s| s.phase == SpanPhase::Reject));
        assert!(trace.spans.iter().any(|s| s.phase == SpanPhase::Coalesce));
    }

    #[test]
    fn hedge_cancel_probe_spans_satisfy_invariants() {
        let mut t = ServeTracer::default();
        t.open(0, &[4]);
        t.queue_wait(4, 0, 100);
        // A hedge won the race: the primary attempt ends at the hedge's
        // completion instant with a cancel instant on its device, and the
        // hedge span strictly overlaps the primary.
        t.attempt(4, 0, 0, 100, 700, &[], Some("cancelled: hedge won"));
        t.cancel(4, 0, 700, "cancelled by hedge on dev1");
        t.hedge(4, 1, 400, 700, &[], "hedge on dev1 (won)");
        t.complete(4, 700, "completed");
        // Probation canaries on the quarantined device.
        t.probe(0, 900, 1000, "probe fault: kernel fault");
        t.probe(0, 1500, 1600, "probe ok (1/1)");
        let trace = t.take_trace(Vec::new());
        check_spans(&trace.spans).expect("hedge/cancel/probe spans are invariant-clean");
        assert!(trace.spans.iter().any(|s| s.phase == SpanPhase::Hedge));
        assert!(trace.spans.iter().any(|s| s.phase == SpanPhase::Cancel));
        let probes: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.phase == SpanPhase::Probe)
            .collect();
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|s| s.request == u64::MAX));
    }

    #[test]
    fn host_clock_is_serial_and_flows_link_once() {
        let mut t = ServeTracer::default();
        t.open(0, &[7, 8]);
        t.queue_wait(7, 0, 100);
        t.attempt(7, 0, 0, 100, 200, &[], Some("lost"));
        t.host_fallback(7, 200, 500, false);
        t.complete(7, t.host_now_ns(), "completed");
        t.queue_wait(8, 0, 100);
        // Request 8 never reached a device; its fallback must start after
        // request 7's host run ends.
        t.host_fallback(8, 100, 300, true);
        t.complete(8, t.host_now_ns(), "completed");
        let trace = t.take_trace(Vec::new());
        check_spans(&trace.spans).expect("clean");
        let host: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.phase == SpanPhase::HostFallback)
            .collect();
        assert_eq!(host.len(), 2);
        assert!(host[1].start_ns >= host[0].end_ns, "host runs serialize");
        // Only the queue span and first attempt carry the flow id.
        let flows_7: Vec<_> = trace.spans.iter().filter(|s| s.flow == Some(7)).collect();
        assert_eq!(flows_7.len(), 2);
    }
}
