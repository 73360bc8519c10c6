//! Execution traces: what ran where and when on the simulated device.
//!
//! Traces back the model-validation experiments (overlap can be inspected,
//! not just trusted) and feed the Gantt renderer in `cocopelia_obs::gantt`,
//! which reproduces the pipeline anatomy of the paper's Figure 2.

use crate::op::StreamId;
use crate::time::SimTime;

/// The three hardware engines of the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// Host-to-device DMA copy engine.
    CopyH2d,
    /// Device-to-host DMA copy engine.
    CopyD2h,
    /// Kernel execution engine (the SM array as a unit).
    Compute,
}

impl EngineKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::CopyH2d => "h2d",
            EngineKind::CopyD2h => "d2h",
            EngineKind::Compute => "exec",
        }
    }
}

/// Role an operand plays in the routine that issued an op (the `i` of the
/// paper's `get_i`/`set_i` flags, by name instead of position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandRole {
    /// Left matrix of gemm/gemv.
    A,
    /// Right matrix of gemm.
    B,
    /// Output matrix of gemm.
    C,
    /// Input vector of gemv/axpy/dot.
    X,
    /// In/out vector of gemv/axpy/dot.
    Y,
    /// Per-tile partial-result slots of dot.
    Partials,
}

impl OperandRole {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            OperandRole::A => "A",
            OperandRole::B => "B",
            OperandRole::C => "C",
            OperandRole::X => "x",
            OperandRole::Y => "y",
            OperandRole::Partials => "partials",
        }
    }
}

/// Logical identity of the routine-level work behind a low-level op.
///
/// Schedulers set the ambient tag via
/// [`Gpu::set_op_tag`](crate::Gpu::set_op_tag) before enqueueing; the
/// simulator snapshots it into every op enqueued while it is set, and copies
/// it into the op's [`TraceEntry`]. This is what turns an engine timeline
/// into a per-tile pipeline anatomy (the paper's Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTag {
    /// Routine family that issued the op (`"gemm"`, `"gemv"`, …).
    pub routine: &'static str,
    /// Routine invocation counter, distinguishing calls in one trace.
    pub call: u64,
    /// Tile coordinates `(row, col)` within the routine's tile grid
    /// (vector routines use `(chunk, 0)`).
    pub tile: (usize, usize),
    /// Operand the op moves, `None` for kernel launches.
    pub operand: Option<OperandRole>,
    /// The op fetches data to the device (`get_i`).
    pub get: bool,
    /// The op returns data to the host (`set_i`).
    pub set: bool,
}

/// One completed operation occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Op sequence number (global enqueue order).
    pub op: usize,
    /// Stream the op was enqueued on.
    pub stream: StreamId,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Human-readable description.
    pub label: String,
    /// Start of execution on the engine.
    pub start: SimTime,
    /// End of execution.
    pub end: SimTime,
    /// Bytes moved, for copies.
    pub bytes: Option<usize>,
    /// Routine-level identity, when a scheduler tagged the op.
    pub tag: Option<OpTag>,
}

impl TraceEntry {
    /// Wall-clock duration of the entry.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_since(self.start)
    }
}

/// Chronological record of everything the simulated device executed.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// All entries in completion order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries recorded after the first `n` — the slice a caller that
    /// noted [`len`](Self::len) before issuing work can attribute to that
    /// work (the serve executor tags each dispatch attempt this way).
    pub fn entries_since(&self, n: usize) -> &[TraceEntry] {
        &self.entries[n.min(self.entries.len())..]
    }

    pub(crate) fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    pub(crate) fn entry_mut(&mut self, idx: usize) -> Option<&mut TraceEntry> {
        self.entries.get_mut(idx)
    }

    /// Discards every entry that starts at or after `at` and clamps the
    /// end of entries still running at `at` — the trace-side half of a
    /// clock rewind ([`Sim::rewind_to`](crate::engine::Sim)): after the
    /// rewind, the trace reads as if nothing past `at` ever happened.
    pub(crate) fn clamp_to(&mut self, at: SimTime) {
        self.entries.retain(|e| e.start < at);
        for e in &mut self.entries {
            if e.end > at {
                e.end = at;
            }
        }
    }

    /// Total busy time per engine.
    pub fn engine_busy(&self, engine: EngineKind) -> SimTime {
        let ns = self
            .entries
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.duration().as_nanos())
            .sum();
        SimTime::from_nanos(ns)
    }

    /// Total bytes moved in one copy direction.
    pub fn bytes_moved(&self, engine: EngineKind) -> usize {
        self.entries
            .iter()
            .filter(|e| e.engine == engine)
            .filter_map(|e| e.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(engine: EngineKind, start: u64, end: u64, bytes: Option<usize>) -> TraceEntry {
        TraceEntry {
            op: 0,
            stream: StreamId(0),
            engine,
            label: "t".to_owned(),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            bytes,
            tag: None,
        }
    }

    #[test]
    fn busy_time_sums_per_engine() {
        let mut t = Trace::default();
        t.push(entry(EngineKind::CopyH2d, 0, 100, Some(10)));
        t.push(entry(EngineKind::CopyH2d, 150, 250, Some(20)));
        t.push(entry(EngineKind::Compute, 50, 80, None));
        assert_eq!(t.engine_busy(EngineKind::CopyH2d).as_nanos(), 200);
        assert_eq!(t.engine_busy(EngineKind::Compute).as_nanos(), 30);
        assert_eq!(t.bytes_moved(EngineKind::CopyH2d), 30);
        assert_eq!(t.bytes_moved(EngineKind::CopyD2h), 0);
    }
}
