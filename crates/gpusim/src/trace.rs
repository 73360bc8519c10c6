//! Execution traces: what ran where and when on the simulated device.
//!
//! Traces back the model-validation experiments (overlap can be inspected,
//! not just trusted) and feed the Gantt renderer in `cocopelia_obs::gantt`,
//! which reproduces the pipeline anatomy of the paper's Figure 2.
//!
//! A device holds entries only for a reader that asked
//! ([`Gpu::keep_trace_from`](crate::Gpu::keep_trace_from)); otherwise each
//! op folds into the trace's exact totals as it completes, so a trace
//! nobody reads costs no memory. One cuBLASXt-style call can record ~164k
//! entries, so a held entry is kept to 64 bytes: its [`OpTag`] is a
//! 16-byte `Copy` value, and a copy's byte count shares one 16-byte field
//! with a kernel's packed shape (no entry has both), read through
//! [`TraceEntry::bytes`] and [`TraceEntry::kernel`].
//!
//! A held trace stores its entries in one `Vec`, in record order, and
//! readers get them as a slice. Raising the retention floor drains the
//! `Vec`'s front and keeps its capacity for later entries, and
//! [`Gpu::take_trace`](crate::Gpu::take_trace) moves the whole buffer out.

use crate::kernel::KernelShape;
use crate::op::StreamId;
use crate::time::SimTime;
use cocopelia_hostblas::Dtype;

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

/// Routine family that issued an op.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    /// Matrix-matrix multiply.
    Gemm,
    /// Matrix-vector multiply.
    Gemv,
    /// Scaled vector addition.
    Axpy,
    /// Dot product.
    Dot,
}

impl Routine {
    /// Short display name (`"gemm"`, `"gemv"`, `"axpy"`, `"dot"`).
    pub fn name(self) -> &'static str {
        match self {
            Routine::Gemm => "gemm",
            Routine::Gemv => "gemv",
            Routine::Axpy => "axpy",
            Routine::Dot => "dot",
        }
    }
}

/// Prints the quoted name, as the `&'static str` field it replaced did, so
/// a rendered [`OpTag`] reads the same.
impl std::fmt::Debug for Routine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

/// Narrows a count to `u32` for the packed trace records.
///
/// # Panics
///
/// If `n` does not fit in `u32`.
fn narrow(n: impl TryInto<u32>, what: &str) -> u32 {
    n.try_into()
        .unwrap_or_else(|_| panic!("{what} exceeds u32"))
}

/// Logical identity of the routine-level work behind a low-level op.
///
/// Schedulers set the ambient tag via
/// [`Gpu::set_op_tag`](crate::Gpu::set_op_tag) before enqueueing; the
/// simulator snapshots it into every op enqueued while it is set, and copies
/// it into the op's [`TraceEntry`]. This is what turns an engine timeline
/// into a per-tile pipeline anatomy (the paper's Fig. 2). It is a 16-byte
/// value, so copying it into each entry costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpTag {
    /// Routine family that issued the op.
    pub routine: Routine,
    /// Routine invocation counter, distinguishing calls in one trace.
    pub call: u32,
    /// Tile coordinates `(row, col)` within the routine's tile grid
    /// (vector routines use `(chunk, 0)`).
    pub tile: (u32, u32),
    /// Operand the op moves, `None` for kernel launches.
    pub operand: Option<OperandRole>,
    /// The op fetches data to the device (`get_i`).
    pub get: bool,
    /// The op returns data to the host (`set_i`).
    pub set: bool,
}

impl OpTag {
    /// The tag of call `call` of `routine` on `tile`, naming no operand and
    /// setting neither flag.
    ///
    /// # Panics
    ///
    /// If `call` or a tile coordinate does not fit in `u32`.
    pub fn new(routine: Routine, call: u64, tile: (usize, usize)) -> OpTag {
        OpTag {
            routine,
            call: narrow(call, "routine call counter"),
            tile: (narrow(tile.0, "tile row"), narrow(tile.1, "tile column")),
            operand: None,
            get: false,
            set: false,
        }
    }
}

/// What an entry moved or ran, in 16 bytes: a copy's byte count or a
/// kernel's shape (no entry has both), the shape packed as `u32`
/// dimensions behind a shape-and-dtype prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    None,
    Bytes(u64),
    Gemm {
        dtype: Dtype,
        m: u32,
        n: u32,
        k: u32,
    },
    Axpy {
        dtype: Dtype,
        n: u32,
    },
    Dot {
        dtype: Dtype,
        n: u32,
    },
    Gemv {
        dtype: Dtype,
        m: u32,
        n: u32,
    },
}

impl Work {
    /// # Panics
    ///
    /// If a dimension of `shape` does not fit in `u32`.
    #[inline]
    fn kernel(shape: KernelShape) -> Work {
        let dim = |d: usize| narrow(d, "kernel dimension");
        match shape {
            KernelShape::Gemm { dtype, m, n, k } => Work::Gemm {
                dtype,
                m: dim(m),
                n: dim(n),
                k: dim(k),
            },
            KernelShape::Axpy { dtype, n } => Work::Axpy { dtype, n: dim(n) },
            KernelShape::Dot { dtype, n } => Work::Dot { dtype, n: dim(n) },
            KernelShape::Gemv { dtype, m, n } => Work::Gemv {
                dtype,
                m: dim(m),
                n: dim(n),
            },
        }
    }

    #[inline]
    fn shape(self) -> Option<KernelShape> {
        let dim = |d: u32| d as usize;
        Some(match self {
            Work::None | Work::Bytes(_) => return None,
            Work::Gemm { dtype, m, n, k } => KernelShape::Gemm {
                dtype,
                m: dim(m),
                n: dim(n),
                k: dim(k),
            },
            Work::Axpy { dtype, n } => KernelShape::Axpy { dtype, n: dim(n) },
            Work::Dot { dtype, n } => KernelShape::Dot { dtype, n: dim(n) },
            Work::Gemv { dtype, m, n } => KernelShape::Gemv {
                dtype,
                m: dim(m),
                n: dim(n),
            },
        })
    }
}

/// One completed operation occurrence, in 64 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Op sequence number (global enqueue order).
    pub op: usize,
    /// Start of execution on the engine.
    pub start: SimTime,
    /// End of execution.
    pub end: SimTime,
    /// Bytes moved or kernel shape; read through [`bytes`](Self::bytes)
    /// and [`kernel`](Self::kernel).
    work: Work,
    /// Routine-level identity, when a scheduler tagged the op.
    pub tag: Option<OpTag>,
    /// Stream the op was enqueued on.
    pub stream: StreamId,
    /// Engine that executed it.
    pub engine: EngineKind,
}

impl TraceEntry {
    /// An untagged entry that records neither bytes nor a kernel shape;
    /// [`with_bytes`](Self::with_bytes) and
    /// [`with_kernel`](Self::with_kernel) add one.
    #[inline]
    pub fn new(
        op: usize,
        stream: StreamId,
        engine: EngineKind,
        start: SimTime,
        end: SimTime,
    ) -> TraceEntry {
        TraceEntry {
            op,
            start,
            end,
            work: Work::None,
            tag: None,
            stream,
            engine,
        }
    }

    /// The entry, recording a copy of `bytes` bytes.
    #[inline]
    pub fn with_bytes(self, bytes: usize) -> TraceEntry {
        TraceEntry {
            work: Work::Bytes(bytes as u64),
            ..self
        }
    }

    /// The entry, recording a launch of `shape`.
    ///
    /// # Panics
    ///
    /// If a dimension of `shape` does not fit in `u32`.
    #[inline]
    pub fn with_kernel(self, shape: KernelShape) -> TraceEntry {
        TraceEntry {
            work: Work::kernel(shape),
            ..self
        }
    }

    /// Bytes moved, for copies.
    #[inline]
    pub fn bytes(&self) -> Option<usize> {
        match self.work {
            Work::Bytes(b) => Some(b as usize),
            _ => None,
        }
    }

    /// Shape of the kernel, for compute entries.
    #[inline]
    pub fn kernel(&self) -> Option<KernelShape> {
        self.work.shape()
    }

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
        let written = match (self.engine, self.kernel()) {
            (EngineKind::Compute, Some(shape)) => write!(out, "{shape}"),
            (EngineKind::Compute, None) => write!(out, "{}", self.engine.name()),
            (engine, _) => write!(out, "{} {}B", engine.name(), self.bytes().unwrap_or(0)),
        };
        written.expect("writing to a String cannot fail");
    }
}

/// Busy time, bytes moved and latest end of the entries a trace no
/// longer holds.
#[derive(Debug, Default, Clone, Copy)]
struct Folded {
    /// Busy ns and bytes moved, per engine.
    engines: [(u64, usize); 3],
    /// Latest end of any folded entry: no rewind may reach before it.
    end: SimTime,
}

impl Folded {
    fn add(&mut self, engine: EngineKind, start: SimTime, end: SimTime, bytes: usize) {
        let (busy, moved) = &mut self.engines[engine as usize];
        *busy += end.saturating_since(start).as_nanos();
        *moved += bytes;
        self.end = self.end.max(end);
    }

    fn add_entry(&mut self, e: &TraceEntry) {
        self.add(e.engine, e.start, e.end, e.bytes().unwrap_or(0));
    }
}

/// Chronological record of everything the simulated device executed.
///
/// The trace is a window over a global entry index, bounded below by a
/// *retention floor*: an entry recorded at or past the floor is held, an
/// earlier one is folded into exact per-engine totals as it completes. A
/// new trace's floor is `usize::MAX`, so it holds nothing; a reader lowers
/// it to the mark it will read from
/// ([`Gpu::keep_trace_from`](crate::Gpu::keep_trace_from)), and
/// [`Gpu::take_trace`](crate::Gpu::take_trace) moves every held entry out
/// and raises the floor past them. [`len`](Trace::len),
/// [`engine_busy`](Trace::engine_busy) and
/// [`bytes_moved`](Trace::bytes_moved) cover the device's whole history
/// either way, while memory holds only the entries some reader asked for.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Global index of the first held entry: the number of folded ones.
    base: usize,
    entries: Vec<TraceEntry>,
    /// Global index from which entries are held (`usize::MAX`: none).
    /// While it is at or below [`len`](Self::len), it equals `base`.
    floor: usize,
    folded: Folded,
}

impl Default for Trace {
    /// A trace that holds no entries.
    fn default() -> Self {
        Trace {
            base: 0,
            entries: Vec::new(),
            floor: usize::MAX,
            folded: Folded::default(),
        }
    }
}

impl Trace {
    /// The held entries (everything recorded since the retention floor),
    /// in record order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries ever recorded, folded ones included.
    pub fn len(&self) -> usize {
        self.base + self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries recorded after the first `n` — the run a caller that
    /// noted [`len`](Self::len) before issuing work can attribute to that
    /// work (the serve executor tags each dispatch attempt this way). The
    /// mark is global, so it stays valid across retirements as long as it
    /// is not below the retention floor.
    ///
    /// # Panics
    ///
    /// If `n` predates the held entries: those are folded, and reading
    /// the whole held window instead would misattribute it.
    pub fn entries_since(&self, n: usize) -> &[TraceEntry] {
        assert!(
            n >= self.base,
            "trace mark {n} predates the {} retired entries",
            self.base
        );
        &self.entries[(n - self.base).min(self.entries.len())..]
    }

    /// The retention floor.
    pub(crate) fn floor(&self) -> usize {
        self.floor
    }

    /// Sets the retention floor to `mark` and returns the floor it
    /// replaces. Raising it folds the held entries below `mark` into the
    /// totals, keeping their storage for later entries.
    ///
    /// # Panics
    ///
    /// If `mark` predates the held entries: folded entries cannot be
    /// held again.
    pub(crate) fn keep_from(&mut self, mark: usize) -> usize {
        assert!(
            mark >= self.base,
            "trace mark {mark} predates the {} retired entries",
            self.base
        );
        let n = mark.min(self.len()) - self.base;
        for e in self.entries.drain(..n) {
            self.folded.add_entry(&e);
        }
        self.base += n;
        std::mem::replace(&mut self.floor, mark)
    }

    /// Moves out every held entry, in record order, folding them into the
    /// per-engine totals and raising the floor past them. Later marks and
    /// totals are unaffected.
    pub(crate) fn take(&mut self) -> Vec<TraceEntry> {
        let taken = std::mem::take(&mut self.entries);
        for e in &taken {
            self.folded.add_entry(e);
        }
        self.base += taken.len();
        self.floor = self.floor.max(self.base);
        taken
    }

    /// Records the start of an engine op: holds `entry()` and returns its
    /// global index when the floor keeps it, else only counts it (its
    /// totals fold in at [`fold`](Self::fold) when it completes).
    #[inline]
    pub(crate) fn record(&mut self, entry: impl FnOnce() -> TraceEntry) -> Option<usize> {
        let idx = self.len();
        if idx < self.floor {
            debug_assert!(self.entries.is_empty(), "entries held below the floor");
            self.base += 1;
            return None;
        }
        self.entries.push(entry());
        Some(idx)
    }

    /// Folds the completion of an op [`record`](Self::record) did not
    /// hold into the totals.
    pub(crate) fn fold(&mut self, engine: EngineKind, start: SimTime, end: SimTime, bytes: usize) {
        self.folded.add(engine, start, end, bytes);
    }

    /// The entry at global index `idx`, if it is held.
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
    /// If `at` precedes the end of a folded entry: folded entries are
    /// only totals and can no longer be rewound.
    pub(crate) fn clamp_to(&mut self, at: SimTime) {
        assert!(
            at >= self.folded.end,
            "rewind to {at:?} reaches retired trace entries (folded through {:?})",
            self.folded.end
        );
        // Entries are recorded as they start, and the clock never runs
        // backwards past a kept entry, so the discarded ones are a suffix.
        let keep = self.entries.iter().take_while(|e| e.start < at).count();
        debug_assert!(self.entries[keep..].iter().all(|e| e.start >= at));
        self.entries.truncate(keep);
        for e in &mut self.entries {
            if e.end > at {
                e.end = at;
            }
        }
    }

    /// Bytes the entries' storage reserves.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<TraceEntry>()
    }

    /// Total busy time per engine.
    pub fn engine_busy(&self, engine: EngineKind) -> SimTime {
        let live: u64 = self
            .entries
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.duration().as_nanos())
            .sum();
        SimTime::from_nanos(self.folded.engines[engine as usize].0 + live)
    }

    /// Total bytes moved in one copy direction.
    pub fn bytes_moved(&self, engine: EngineKind) -> usize {
        let live: usize = self
            .entries
            .iter()
            .filter(|e| e.engine == engine)
            .filter_map(TraceEntry::bytes)
            .sum();
        self.folded.engines[engine as usize].1 + live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(engine: EngineKind, start: u64, end: u64, bytes: Option<usize>) -> TraceEntry {
        let e = TraceEntry::new(
            0,
            StreamId::from_raw(0),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        );
        match bytes {
            Some(b) => e.with_bytes(b),
            None => e,
        }
    }

    #[test]
    fn labels_are_derived_from_engine_bytes_and_kernel() {
        let copy = |engine, bytes| entry(engine, 0, 1, Some(bytes));
        assert_eq!(copy(EngineKind::CopyH2d, 4096).label(), "h2d 4096B");
        assert_eq!(copy(EngineKind::CopyD2h, 64).label(), "d2h 64B");
        let kernel = |shape| entry(EngineKind::Compute, 0, 1, None).with_kernel(shape);
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
            let e = kernel(shape);
            assert_eq!(e.label(), label);
            assert_eq!((e.kernel(), e.bytes()), (Some(shape), None));
        }
        let e = copy(EngineKind::CopyH2d, 4096);
        assert_eq!((e.bytes(), e.kernel()), (Some(4096), None));
        assert_eq!(entry(EngineKind::Compute, 0, 1, None).label(), "exec");
    }

    /// A trace that holds every entry.
    fn holding() -> Trace {
        let mut t = Trace::default();
        assert_eq!(t.keep_from(0), usize::MAX, "a new trace holds nothing");
        t
    }

    /// Records the completed entry `e`: held, or folded at once.
    fn push(t: &mut Trace, e: TraceEntry) {
        if t.record(|| e.clone()).is_none() {
            t.fold(e.engine, e.start, e.end, e.bytes().unwrap_or(0));
        }
    }

    #[test]
    fn busy_time_sums_per_engine() {
        let mut t = holding();
        push(&mut t, entry(EngineKind::CopyH2d, 0, 100, Some(10)));
        push(&mut t, entry(EngineKind::CopyH2d, 150, 250, Some(20)));
        push(&mut t, entry(EngineKind::Compute, 50, 80, None));
        assert_eq!(t.engine_busy(EngineKind::CopyH2d).as_nanos(), 200);
        assert_eq!(t.engine_busy(EngineKind::Compute).as_nanos(), 30);
        assert_eq!(t.bytes_moved(EngineKind::CopyH2d), 30);
        assert_eq!(t.bytes_moved(EngineKind::CopyD2h), 0);
    }

    /// Entries `ops` of a fixed mix over the three engines, recorded into
    /// `t`.
    fn record_mixed(t: &mut Trace, ops: std::ops::Range<u64>) {
        for i in ops {
            let engine = [
                EngineKind::CopyH2d,
                EngineKind::Compute,
                EngineKind::CopyD2h,
            ][i as usize % 3];
            let bytes = (engine != EngineKind::Compute).then_some(8 * i as usize + 1);
            let e = TraceEntry {
                op: i as usize,
                ..entry(engine, 10 * i, 10 * i + 3 + i % 5, bytes)
            };
            push(t, e);
        }
    }

    fn mixed_trace(n: u64) -> Trace {
        let mut t = holding();
        record_mixed(&mut t, 0..n);
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
        for mark in [0, 3, 3, 11, 19] {
            // A reader reads the prefix it is done with, then raises the
            // floor past it.
            retired.extend_from_slice(&t.entries()[..mark - t.base]);
            t.keep_from(mark);
            assert_eq!(t.len(), twin.len(), "len counts retired entries");
            assert_eq!(totals(&t), totals(&twin), "totals after keep_from({mark})");
        }
        retired.extend(t.take());
        assert_eq!(totals(&t), totals(&twin), "totals after take");
        assert_eq!(t.entries().len(), 0);
        assert!(!t.is_empty());
        let ops: Vec<usize> = retired.iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            (0..20).collect::<Vec<_>>(),
            "retirement yields record order"
        );
        assert_eq!(retired, twin.entries());
    }

    #[test]
    fn marks_survive_retirement() {
        let twin = mixed_trace(12);
        let mut t = mixed_trace(12);
        t.keep_from(5);
        assert_eq!(t.entries().len(), 7);
        for mark in 5..=12 {
            assert_eq!(t.entries_since(mark), twin.entries_since(mark));
        }
        assert!(t.entries_since(40).is_empty());
        assert_eq!(t.entry_mut(4), None, "retired entries are gone");
        assert_eq!(t.entry_mut(5).map(|e| e.op), Some(5));
    }

    #[test]
    fn an_unheld_trace_counts_and_totals_like_a_held_twin() {
        let twin = mixed_trace(20);
        let mut t = Trace::default();
        record_mixed(&mut t, 0..20);
        assert_eq!(t.len(), 20);
        assert!(t.entries().is_empty());
        assert_eq!(t.held_bytes(), 0, "an unheld trace allocates nothing");
        assert_eq!(totals(&t), totals(&twin));
        assert_eq!(t.folded.end, SimTime::from_nanos(10 * 19 + 3 + 19 % 5));
    }

    #[test]
    fn raising_the_floor_folds_held_entries_into_the_totals() {
        let twin = mixed_trace(12);
        let mut t = mixed_trace(9);
        t.keep_from(6);
        assert_eq!(t.keep_from(usize::MAX), 6, "the floor was raised to 6");
        assert!(t.entries().is_empty());
        assert_eq!(t.len(), 9);
        // Entries recorded below the new floor are not held, yet count.
        record_mixed(&mut t, 9..10);
        assert!(t.entries().is_empty());
        assert_eq!(t.len(), 10);
        // Lowering the floor again holds what is recorded from then on.
        assert_eq!(t.keep_from(10), usize::MAX);
        record_mixed(&mut t, 10..12);
        assert_eq!(t.entries_since(10), twin.entries_since(10));
        assert_eq!(totals(&t), totals(&twin));
        // Raising it inside the held window folds only the entries below.
        assert_eq!(t.keep_from(11), 10);
        assert_eq!(t.entries_since(11), twin.entries_since(11));
        assert_eq!(totals(&t), totals(&twin));
    }

    #[test]
    #[should_panic(expected = "predates the 9 retired entries")]
    fn lowering_the_floor_below_folded_entries_panics() {
        let mut t = Trace::default();
        record_mixed(&mut t, 0..9);
        t.keep_from(8);
    }

    #[test]
    #[should_panic(expected = "predates the 5 retired entries")]
    fn a_mark_older_than_the_retired_prefix_panics() {
        let mut t = mixed_trace(12);
        t.keep_from(5);
        t.entries_since(4);
    }

    #[test]
    fn trace_entry_fits_64_bytes() {
        assert!(
            std::mem::size_of::<TraceEntry>() <= 64,
            "{}",
            std::mem::size_of::<TraceEntry>()
        );
    }

    #[test]
    fn op_tag_fits_16_bytes() {
        assert!(
            std::mem::size_of::<Option<OpTag>>() <= 16,
            "{}",
            std::mem::size_of::<Option<OpTag>>()
        );
    }

    #[test]
    fn kernel_shapes_round_trip_through_the_packed_entry() {
        for dtype in [Dtype::F32, Dtype::F64] {
            for shape in [
                KernelShape::Gemm {
                    dtype,
                    m: 1,
                    n: u32::MAX as usize,
                    k: 7,
                },
                KernelShape::Axpy { dtype, n: 0 },
                KernelShape::Dot { dtype, n: 1 << 31 },
                KernelShape::Gemv { dtype, m: 3, n: 4 },
            ] {
                let e = entry(EngineKind::Compute, 0, 1, None).with_kernel(shape);
                assert_eq!(e.kernel(), Some(shape));
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel dimension exceeds u32")]
    fn a_kernel_dimension_beyond_u32_panics() {
        let shape = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: u32::MAX as usize + 1,
        };
        entry(EngineKind::Compute, 0, 1, None).with_kernel(shape);
    }

    #[test]
    fn taking_the_trace_moves_its_buffer_and_holds_on() {
        let twin = mixed_trace(12);
        let mut t = mixed_trace(8);
        t.keep_from(3);
        let at = t.entries().as_ptr();
        let taken = t.take();
        assert_eq!(taken.as_ptr(), at, "the held buffer moves out uncopied");
        assert_eq!(taken, twin.entries()[3..8]);
        assert_eq!(t.len(), 8);
        assert!(t.entries().is_empty());
        // The floor stays at or below the length, so later entries are
        // held; an unheld trace stays unheld.
        record_mixed(&mut t, 8..12);
        assert_eq!(t.entries(), &twin.entries()[8..]);
        assert_eq!(totals(&t), totals(&twin));
        let mut unheld = Trace::default();
        record_mixed(&mut unheld, 0..4);
        assert!(unheld.take().is_empty());
        record_mixed(&mut unheld, 4..5);
        assert!(unheld.entries().is_empty());
    }

    #[test]
    fn raising_the_floor_keeps_the_storage() {
        let mut t = mixed_trace(100);
        let (at, cap) = (t.entries().as_ptr(), t.entries.capacity());
        t.keep_from(40);
        assert_eq!(t.entries()[0].op, 40);
        t.keep_from(usize::MAX);
        assert!(t.entries().is_empty());
        t.keep_from(100);
        record_mixed(&mut t, 100..150);
        assert_eq!((t.entries().as_ptr(), t.entries.capacity()), (at, cap));
    }

    #[test]
    fn floored_trace_matches_a_flat_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = Trace::default();
        // A trace that never raises its floor, and the model: every entry
        // ever recorded and not rewound, the number folded, and the
        // retention floor.
        let mut twin = holding();
        let (mut model, mut base, mut floor): (Vec<TraceEntry>, usize, usize) =
            (Vec::new(), 0, usize::MAX);
        let mut next = 0u64;
        for _ in 0..300 {
            match rng.gen_range(0..7usize) {
                0..=2 => {
                    for _ in 0..rng.gen_range(0..200usize) {
                        let e = TraceEntry {
                            op: next as usize,
                            ..entry(EngineKind::Compute, 10 * next, 10 * next + 25, None)
                        };
                        next += 1;
                        if model.len() < floor {
                            base += 1;
                        }
                        push(&mut t, e.clone());
                        push(&mut twin, e.clone());
                        model.push(e);
                    }
                }
                3 => {
                    assert_eq!(t.take(), model[base..]);
                    base = model.len();
                    floor = floor.max(base);
                }
                4 if base < model.len() => {
                    let lo = t.folded.end.as_nanos();
                    let at = rng.gen_range(lo..10 * next + 31);
                    let at = SimTime::from_nanos(at);
                    t.clamp_to(at);
                    twin.clamp_to(at);
                    let keep = base + model[base..].iter().filter(|e| e.start < at).count();
                    model.truncate(keep);
                    for e in &mut model[base..] {
                        e.end = e.end.min(at);
                    }
                    next = model.len() as u64;
                }
                5 => {
                    let mark = rng.gen_range(base..model.len() + 4);
                    assert_eq!(t.keep_from(mark), floor);
                    base = base.max(mark.min(model.len()));
                    floor = mark;
                }
                _ => {}
            }
            assert_eq!(t.entries(), &model[base..]);
            assert_eq!((t.len(), twin.len()), (model.len(), model.len()));
            assert_eq!(totals(&t), totals(&twin));
            let mark = rng.gen_range(base..model.len() + 1);
            assert_eq!(t.entries_since(mark), &model[mark..]);
        }
    }
}
