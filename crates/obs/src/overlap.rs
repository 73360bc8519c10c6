//! Overlap accounting: how much of the engines' busy time the pipeline
//! actually ran concurrently.
//!
//! The paper's whole premise is that h2d, exec, and d2h can proceed at the
//! same time (Fig. 2). This module turns a raw trace into the numbers that
//! quantify it: per-engine busy time, the union of all busy intervals, the
//! call's makespan, and the derived *overlap efficiency*
//! `sum(busy) / union(busy)` — 1.0 when the engines never overlap, up to
//! 3.0 when all three are perfectly pipelined. All interval arithmetic is
//! exact in integer nanoseconds.

use cocopelia_gpusim::{EngineKind, TraceEntry};

/// Overlap statistics of one batch of trace entries (usually one routine
/// call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlapStats {
    /// Wall-clock extent: latest end minus earliest start, in ns.
    pub makespan_ns: u64,
    /// h2d engine busy time, in ns.
    pub h2d_busy_ns: u64,
    /// Compute engine busy time, in ns.
    pub exec_busy_ns: u64,
    /// d2h engine busy time, in ns.
    pub d2h_busy_ns: u64,
    /// Length of the union of all busy intervals across engines, in ns.
    pub union_busy_ns: u64,
}

impl OverlapStats {
    /// Computes the statistics over `entries`, in one pass.
    pub fn from_entries(entries: &[TraceEntry]) -> Self {
        let mut stats = OverlapStats::default();
        let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(entries.len());
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        for e in entries {
            let (a, b) = (e.start.as_nanos(), e.end.as_nanos());
            t_min = t_min.min(a);
            t_max = t_max.max(b);
            let busy = b.saturating_sub(a);
            match e.engine {
                EngineKind::CopyH2d => stats.h2d_busy_ns += busy,
                EngineKind::Compute => stats.exec_busy_ns += busy,
                EngineKind::CopyD2h => stats.d2h_busy_ns += busy,
            }
            if b > a {
                intervals.push((a, b));
            }
        }
        stats.makespan_ns = t_max.saturating_sub(t_min);
        stats.union_busy_ns = union_len(&mut intervals);
        stats
    }

    /// Busy time of one engine.
    pub fn engine_busy_ns(&self, engine: EngineKind) -> u64 {
        match engine {
            EngineKind::CopyH2d => self.h2d_busy_ns,
            EngineKind::Compute => self.exec_busy_ns,
            EngineKind::CopyD2h => self.d2h_busy_ns,
        }
    }

    /// Total engine busy time summed over the three engines.
    pub fn sum_busy_ns(&self) -> u64 {
        self.h2d_busy_ns + self.exec_busy_ns + self.d2h_busy_ns
    }

    /// Overlap efficiency `sum(busy) / union(busy)`: 1.0 means fully
    /// serialised engines, 3.0 means all three engines always concurrent.
    /// Returns 1.0 for an empty batch (nothing ran, nothing serialised).
    pub fn efficiency(&self) -> f64 {
        if self.union_busy_ns == 0 {
            1.0
        } else {
            self.sum_busy_ns() as f64 / self.union_busy_ns as f64
        }
    }

    /// Fraction of the makespan during which at least one engine was busy.
    pub fn utilisation(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.union_busy_ns as f64 / self.makespan_ns as f64
        }
    }
}

/// Total length of the union of half-open intervals. Sorts in place.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{SimTime, StreamId};

    fn entry(engine: EngineKind, start: u64, end: u64) -> TraceEntry {
        TraceEntry::new(
            0,
            StreamId::from_raw(0),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        )
    }

    #[test]
    fn empty_batch_is_neutral() {
        let s = OverlapStats::from_entries(&[]);
        assert_eq!(s.makespan_ns, 0);
        assert_eq!(s.efficiency(), 1.0);
        assert_eq!(s.utilisation(), 0.0);
    }

    #[test]
    fn serial_engines_have_efficiency_one() {
        let e = [
            entry(EngineKind::CopyH2d, 0, 100),
            entry(EngineKind::Compute, 100, 250),
            entry(EngineKind::CopyD2h, 250, 300),
        ];
        let s = OverlapStats::from_entries(&e);
        assert_eq!(s.makespan_ns, 300);
        assert_eq!(s.sum_busy_ns(), 300);
        assert_eq!(s.union_busy_ns, 300);
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    fn perfect_three_way_overlap_is_three() {
        let e = [
            entry(EngineKind::CopyH2d, 0, 100),
            entry(EngineKind::Compute, 0, 100),
            entry(EngineKind::CopyD2h, 0, 100),
        ];
        let s = OverlapStats::from_entries(&e);
        assert_eq!(s.efficiency(), 3.0);
        assert_eq!(s.utilisation(), 1.0);
    }

    #[test]
    fn union_merges_touching_and_overlapping() {
        let mut iv = vec![(0, 10), (10, 20), (15, 30), (40, 50)];
        assert_eq!(union_len(&mut iv), 40);
    }

    #[test]
    fn idle_gap_reduces_utilisation() {
        let e = [
            entry(EngineKind::CopyH2d, 0, 50),
            entry(EngineKind::Compute, 150, 200),
        ];
        let s = OverlapStats::from_entries(&e);
        assert_eq!(s.makespan_ns, 200);
        assert_eq!(s.union_busy_ns, 100);
        assert!((s.utilisation() - 0.5).abs() < 1e-12);
    }
}
