//! The open telemetry window: one typed per-window record over *virtual*
//! time.
//!
//! A [`TelemetryWindow`] partitions the virtual-time axis into fixed
//! windows of `window_ns` nanoseconds and holds the open one: the
//! counters a `--watch` line and the SLO kinds read, three gauges, and
//! the flow-time [`Histogram`]. The producer updates the fields in place;
//! the SLO engine and the closing `--watch` line read them in place.
//! Rotation is driven by the caller feeding the device clock into
//! [`due`](TelemetryWindow::due) — never by wall time — so windowed
//! aggregation is exactly as deterministic as the simulation that drives
//! it.
//!
//! Memory is O(one window): [`roll`](TelemetryWindow::roll) zeroes the
//! counters and the histogram (keeping its bucket bounds) and opens the
//! next window. The gauges are last-value-wins and *persist* across
//! windows, so a queue depth sampled once still renders in later windows.

use crate::metrics::Histogram;

/// The open window of a virtual-time telemetry stream.
///
/// Windows are the half-open intervals `[i·w, (i+1)·w)`; the record
/// holds exactly one of them at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    window_ns: u64,
    /// Zero-based index of the open window.
    pub index: u64,
    /// Requests that reached a terminal state (completed, missed or
    /// failed).
    pub finished: u64,
    /// …of which completed within their deadline.
    pub completed: u64,
    /// …of which finished past their deadline.
    pub deadline_missed: u64,
    /// …of which failed terminally.
    pub failed: u64,
    /// Requests shed by admission control or backpressure (not counted
    /// in `finished`; they never ran).
    pub rejected: u64,
    /// Requests that coalesced onto an identical queued leader.
    pub coalesced: u64,
    /// Dispatch attempts (first tries plus retries) of requests that ran.
    pub attempts: u64,
    /// Device faults observed.
    pub faults: u64,
    /// Residency-cache hits.
    pub residency_hits: u64,
    /// Residency-cache misses.
    pub residency_misses: u64,
    /// Hedged (speculative duplicate) attempts launched.
    pub hedges: u64,
    /// Hedges that won their race against the primary attempt.
    pub hedge_wins: u64,
    /// Canary probes run against quarantined devices.
    pub probes: u64,
    /// Retries refused fast (budget exhausted or breaker open).
    pub fastfails: u64,
    /// Gauge: queue depth at the latest sample.
    pub queue_depth: usize,
    /// Gauge: quarantined devices at the latest sample.
    pub quarantined: usize,
    /// Gauge: mean absolute relative scheduling-prediction drift (a
    /// ratio: 0.125 is 12.5%).
    pub drift: f64,
    /// Flow time (submit→terminal) of the window's finished requests,
    /// seconds.
    pub flow: Histogram,
}

impl TelemetryWindow {
    /// Opens window 0 with the given length (clamped to at least 1 ns)
    /// and flow-histogram bucket bounds.
    pub fn new(window_ns: u64, flow_bounds: &[f64]) -> Self {
        TelemetryWindow {
            window_ns: window_ns.max(1),
            index: 0,
            finished: 0,
            completed: 0,
            deadline_missed: 0,
            failed: 0,
            rejected: 0,
            coalesced: 0,
            attempts: 0,
            faults: 0,
            residency_hits: 0,
            residency_misses: 0,
            hedges: 0,
            hedge_wins: 0,
            probes: 0,
            fastfails: 0,
            queue_depth: 0,
            quarantined: 0,
            drift: 0.0,
            flow: Histogram::new(flow_bounds.to_vec()),
        }
    }

    /// The configured window length, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Start of the open window, nanoseconds.
    pub fn start_ns(&self) -> u64 {
        self.index.saturating_mul(self.window_ns)
    }

    /// The open window's end when `now_ns` has reached it — the window
    /// is due to close — else `None`.
    pub fn due(&self, now_ns: u64) -> Option<u64> {
        let end = (self.index + 1).saturating_mul(self.window_ns);
        (end <= now_ns).then_some(end)
    }

    /// Closes the open window and opens the next: counters and the flow
    /// histogram reset, gauges persist.
    pub fn roll(&mut self) {
        let mut next = TelemetryWindow::new(self.window_ns, self.flow.bounds());
        next.index = self.index + 1;
        next.queue_depth = self.queue_depth;
        next.quarantined = self.quarantined;
        next.drift = self.drift;
        *self = next;
    }

    /// Samples the three gauges. A non-finite drift is ignored (the last
    /// finite value stays), as [`crate::Registry::gauge_set`] does.
    pub fn set_gauges(&mut self, queue_depth: usize, quarantined: usize, drift: f64) {
        self.queue_depth = queue_depth;
        self.quarantined = quarantined;
        if drift.is_finite() {
            self.drift = drift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closes every window due at `now_ns`, returning each closed
    /// window's `(index, start, end, finished)`.
    fn close_until(w: &mut TelemetryWindow, now_ns: u64) -> Vec<(u64, u64, u64, u64)> {
        let mut out = Vec::new();
        while let Some(end) = w.due(now_ns) {
            out.push((w.index, w.start_ns(), end, w.finished));
            w.roll();
        }
        out
    }

    #[test]
    fn rotation_is_driven_by_the_supplied_clock() {
        let mut w = TelemetryWindow::new(100, &[]);
        w.finished += 1;
        assert!(close_until(&mut w, 99).is_empty(), "window not over yet");
        let closed = close_until(&mut w, 250);
        assert_eq!(closed.len(), 2, "two whole windows fit before 250");
        assert_eq!(closed[0], (0, 0, 100, 1));
        assert_eq!(closed[1].3, 0, "counters reset per window");
        assert_eq!(closed[1].0, 1);
        assert_eq!(w.index, 2);
    }

    #[test]
    fn gauges_persist_and_counters_reset() {
        let mut w = TelemetryWindow::new(10, &[]);
        w.set_gauges(7, 1, 0.5);
        w.completed += 3;
        assert_eq!(w.due(10), Some(10));
        assert_eq!((w.queue_depth, w.completed), (7, 3));
        w.roll();
        assert_eq!(w.due(20), Some(20));
        assert_eq!(w.queue_depth, 7, "gauges persist");
        assert_eq!(w.quarantined, 1);
        assert_eq!(w.completed, 0, "counters do not");
        w.roll();
        w.set_gauges(7, 1, f64::NAN);
        assert_eq!(w.drift, 0.5, "NaN ignored");
    }

    #[test]
    fn flow_histograms_match_a_fresh_histogram_per_window() {
        let bounds = [1.0, 2.0, 4.0, 8.0];
        let mut w = TelemetryWindow::new(1000, &bounds);
        let mut whole = Histogram::new(bounds.to_vec());
        // Seeded LCG spread over three windows.
        let mut x: u64 = 0x9E37;
        let mut windows: Vec<Histogram> = Vec::new();
        for i in 0..300u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as f64 / (1u64 << 31) as f64 * 8.0;
            while w.due(i * 10).is_some() {
                windows.push(w.flow.clone());
                w.roll();
            }
            w.flow.observe(v);
            whole.observe(v);
        }
        windows.push(w.flow.clone());
        let count: u64 = windows.iter().map(Histogram::count).sum();
        let sum: f64 = windows.iter().map(Histogram::sum).sum();
        assert_eq!(count, whole.count(), "no observation lost at rotation");
        assert!((sum - whole.sum()).abs() < 1e-9);
        for h in windows.iter().filter(|h| h.count() > 0) {
            assert_eq!(h.bounds(), &bounds, "bounds survive the roll");
            let q = |p: f64| h.quantile(p).expect("non-empty");
            assert!(q(0.5) <= q(0.95) && q(0.95) <= q(0.99), "{h:?}");
            assert!(q(0.99) <= 8.0, "percentiles bracketed by bounds");
        }
    }

    #[test]
    fn reading_does_not_close_and_roll_does() {
        let mut w = TelemetryWindow::new(100, &[1.0]);
        w.finished += 2;
        w.flow.observe(0.5);
        assert_eq!(w.due(42), None);
        assert_eq!(w.flow.quantile(0.95), Some(1.0));
        assert_eq!((w.index, w.finished), (0, 2), "reading leaves it open");
        w.roll();
        assert_eq!((w.index, w.finished), (1, 0));
        assert_eq!(w.flow.quantile(0.95), None, "an empty window has none");
    }

    #[test]
    fn zero_window_is_clamped() {
        let w = TelemetryWindow::new(0, &[]);
        assert_eq!(w.window_ns(), 1);
    }
}
