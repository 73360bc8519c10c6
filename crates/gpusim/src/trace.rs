//! Execution traces: what ran where and when on the simulated device.
//!
//! Traces back the model-validation experiments (overlap can be inspected,
//! not just trusted) and feed the Gantt renderer in `cocopelia_obs::gantt`,
//! which reproduces the pipeline anatomy of the paper's Figure 2.

use crate::kernel::KernelShape;
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
    /// Start of execution on the engine.
    pub start: SimTime,
    /// End of execution.
    pub end: SimTime,
    /// Bytes moved, for copies.
    pub bytes: Option<usize>,
    /// Routine-level identity, when a scheduler tagged the op.
    pub tag: Option<OpTag>,
    /// Shape of the kernel, for compute entries.
    pub kernel: Option<KernelShape>,
}

impl TraceEntry {
    /// Wall-clock duration of the entry.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_since(self.start)
    }

    /// Human-readable description (`"h2d 4096B"`, `"dgemm 512x512x512"`),
    /// built on demand so recording an entry formats nothing. A compute
    /// entry without a kernel shape reads as its engine name.
    pub fn label(&self) -> String {
        let mut label = String::new();
        self.write_label(&mut label);
        label
    }

    /// Appends [`label`](Self::label) to `out`, for renderers that reuse
    /// one buffer across many entries.
    pub fn write_label(&self, out: &mut String) {
        use std::fmt::Write;
        let written = match (self.engine, self.kernel) {
            (EngineKind::Compute, Some(shape)) => write!(out, "{shape}"),
            (EngineKind::Compute, None) => write!(out, "{}", self.engine.name()),
            (engine, _) => write!(out, "{} {}B", engine.name(), self.bytes.unwrap_or(0)),
        };
        written.expect("writing to a String cannot fail");
    }
}

/// Chronological record of everything the simulated device executed.
///
/// The trace is a window over a global entry index:
/// [`Gpu::retire_trace`](crate::Gpu::retire_trace) moves a consumed prefix
/// out and folds it into exact per-engine totals, so
/// [`len`](Trace::len), [`entries_since`](Trace::entries_since),
/// [`engine_busy`](Trace::engine_busy) and
/// [`bytes_moved`](Trace::bytes_moved) keep covering the device's whole
/// history while memory holds only the entries some reader still needs.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Global index of `entries[0]`: the number of retired entries.
    base: usize,
    entries: Vec<TraceEntry>,
    /// Busy ns and bytes moved by the retired entries, per engine.
    retired: [(u64, usize); 3],
    /// Latest end of any retired entry: no rewind may reach before it.
    retired_end: SimTime,
}

impl Trace {
    /// The retained entries (everything recorded since the last
    /// [`Gpu::retire_trace`](crate::Gpu::retire_trace)), in record order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries ever recorded, retired ones included.
    pub fn len(&self) -> usize {
        self.base + self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries recorded after the first `n` — the slice a caller that
    /// noted [`len`](Self::len) before issuing work can attribute to that
    /// work (the serve executor tags each dispatch attempt this way). The
    /// mark is global, so it stays valid across retirements as long as it
    /// is not older than the retired prefix.
    pub fn entries_since(&self, n: usize) -> &[TraceEntry] {
        debug_assert!(
            n >= self.base,
            "trace mark {n} predates the {} retired entries",
            self.base
        );
        &self.entries[n.saturating_sub(self.base).min(self.entries.len())..]
    }

    /// Moves out the entries before global index `upto` (clamped to the
    /// retained window), in record order, folding them into the
    /// per-engine totals. Later marks and totals are unaffected.
    pub(crate) fn retire(&mut self, upto: usize) -> Vec<TraceEntry> {
        let n = upto.saturating_sub(self.base).min(self.entries.len());
        // Only the kept tail is copied; the retired prefix leaves with the
        // allocation, so moving a whole lane out copies nothing.
        let rest = self.entries.split_off(n);
        let retired = std::mem::replace(&mut self.entries, rest);
        for e in &retired {
            let (busy, bytes) = &mut self.retired[e.engine as usize];
            *busy += e.duration().as_nanos();
            *bytes += e.bytes.unwrap_or(0);
            self.retired_end = self.retired_end.max(e.end);
        }
        self.base += n;
        retired
    }

    pub(crate) fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// Forgets everything, retired totals included. The entries keep
    /// their capacity for the next call on the same device.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.base = 0;
        self.retired = Default::default();
        self.retired_end = SimTime::ZERO;
    }

    /// The entry at global index `idx`, if it is still retained.
    pub(crate) fn entry_mut(&mut self, idx: usize) -> Option<&mut TraceEntry> {
        self.entries.get_mut(idx.checked_sub(self.base)?)
    }

    /// Discards every entry that starts at or after `at` and clamps the
    /// end of entries still running at `at` — the trace-side half of a
    /// clock rewind ([`Sim::rewind_to`](crate::engine::Sim)): after the
    /// rewind, the trace reads as if nothing past `at` ever happened.
    ///
    /// # Panics
    ///
    /// If `at` precedes the end of a retired entry: retired entries are
    /// folded into totals and can no longer be rewound.
    pub(crate) fn clamp_to(&mut self, at: SimTime) {
        assert!(
            at >= self.retired_end,
            "rewind to {at:?} reaches retired trace entries (retired through {:?})",
            self.retired_end
        );
        self.entries.retain(|e| e.start < at);
        for e in &mut self.entries {
            if e.end > at {
                e.end = at;
            }
        }
    }

    /// Total busy time per engine.
    pub fn engine_busy(&self, engine: EngineKind) -> SimTime {
        let live: u64 = self
            .entries
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.duration().as_nanos())
            .sum();
        SimTime::from_nanos(self.retired[engine as usize].0 + live)
    }

    /// Total bytes moved in one copy direction.
    pub fn bytes_moved(&self, engine: EngineKind) -> usize {
        let live: usize = self
            .entries
            .iter()
            .filter(|e| e.engine == engine)
            .filter_map(|e| e.bytes)
            .sum();
        self.retired[engine as usize].1 + live
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
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            bytes,
            tag: None,
            kernel: None,
        }
    }

    #[test]
    fn labels_are_derived_from_engine_bytes_and_kernel() {
        use cocopelia_hostblas::Dtype;
        let copy = |engine, bytes| TraceEntry {
            bytes: Some(bytes),
            ..entry(engine, 0, 1, None)
        };
        assert_eq!(copy(EngineKind::CopyH2d, 4096).label(), "h2d 4096B");
        assert_eq!(copy(EngineKind::CopyD2h, 64).label(), "d2h 64B");
        let kernel = |shape| TraceEntry {
            kernel: Some(shape),
            ..entry(EngineKind::Compute, 0, 1, None)
        };
        for (shape, label) in [
            (
                KernelShape::Gemm {
                    dtype: Dtype::F64,
                    m: 512,
                    n: 256,
                    k: 128,
                },
                "dgemm 512x256x128",
            ),
            (
                KernelShape::Axpy {
                    dtype: Dtype::F32,
                    n: 1000,
                },
                "saxpy 1000",
            ),
            (
                KernelShape::Dot {
                    dtype: Dtype::F64,
                    n: 77,
                },
                "ddot 77",
            ),
            (
                KernelShape::Gemv {
                    dtype: Dtype::F32,
                    m: 3,
                    n: 4,
                },
                "sgemv 3x4",
            ),
        ] {
            assert_eq!(kernel(shape).label(), label);
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

    fn mixed_trace(n: u64) -> Trace {
        let mut t = Trace::default();
        for i in 0..n {
            let engine = [
                EngineKind::CopyH2d,
                EngineKind::Compute,
                EngineKind::CopyD2h,
            ][i as usize % 3];
            let bytes = (engine != EngineKind::Compute).then_some(8 * i as usize + 1);
            t.push(TraceEntry {
                op: i as usize,
                ..entry(engine, 10 * i, 10 * i + 3 + i % 5, bytes)
            });
        }
        t
    }

    fn totals(t: &Trace) -> Vec<(u64, usize)> {
        [
            EngineKind::CopyH2d,
            EngineKind::CopyD2h,
            EngineKind::Compute,
        ]
        .map(|k| (t.engine_busy(k).as_nanos(), t.bytes_moved(k)))
        .to_vec()
    }

    #[test]
    fn stepwise_retirement_matches_a_never_retired_twin() {
        let twin = mixed_trace(20);
        let mut t = mixed_trace(20);
        let mut retired = Vec::new();
        for upto in [0, 3, 3, 11, 7, 19, 25] {
            retired.extend(t.retire(upto));
            assert_eq!(t.len(), twin.len(), "len counts retired entries");
            assert_eq!(totals(&t), totals(&twin), "totals after retire({upto})");
        }
        assert_eq!(t.entries().len(), 0);
        assert!(!t.is_empty());
        let ops: Vec<usize> = retired.iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            (0..20).collect::<Vec<_>>(),
            "retire yields record order"
        );
        assert_eq!(retired, twin.entries());
    }

    #[test]
    fn marks_survive_retirement() {
        let twin = mixed_trace(12);
        let mut t = mixed_trace(12);
        let out = t.retire(5);
        assert_eq!(out.len(), 5);
        assert_eq!(t.entries().len(), 7);
        for mark in 5..=12 {
            assert_eq!(t.entries_since(mark), twin.entries_since(mark));
        }
        assert_eq!(t.entries_since(40), &[] as &[TraceEntry]);
        assert_eq!(t.entry_mut(4), None, "retired entries are gone");
        assert_eq!(t.entry_mut(5).map(|e| e.op), Some(5));
    }

    #[test]
    fn clear_resets_the_window_and_totals() {
        let mut t = mixed_trace(9);
        t.retire(6);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(totals(&t), totals(&Trace::default()));
        t.clamp_to(SimTime::ZERO);
    }
}
