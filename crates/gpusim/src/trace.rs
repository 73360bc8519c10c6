//! Execution traces: what ran where and when on the simulated device.
//!
//! Traces back the model-validation experiments (overlap can be inspected,
//! not just trusted) and feed the Gantt renderer in `cocopelia_obs::gantt`,
//! which reproduces the pipeline anatomy of the paper's Figure 2.
//!
//! One cuBLASXt-style call can record ~164k entries before anyone reads
//! them, so an entry is kept to 64 bytes: its [`OpTag`] is a 16-byte
//! `Copy` value, and a copy's byte count shares one 16-byte field with a
//! kernel's packed shape (no entry has both), read through
//! [`TraceEntry::bytes`] and [`TraceEntry::kernel`].

use crate::engine::RETAINED_CAPACITY;
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
    ///
    /// # Panics
    ///
    /// If `n` predates the retired prefix: those entries are gone, and
    /// reading the whole retained window instead would misattribute it.
    pub fn entries_since(&self, n: usize) -> &[TraceEntry] {
        assert!(
            n >= self.base,
            "trace mark {n} predates the {} retired entries",
            self.base
        );
        &self.entries[(n - self.base).min(self.entries.len())..]
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
            *bytes += e.bytes().unwrap_or(0);
            self.retired_end = self.retired_end.max(e.end);
        }
        self.base += n;
        retired
    }

    pub(crate) fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// Makes room for `additional` more entries, growing amortized so a
    /// stream of small batches still doubles.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Forgets everything, retired totals included. The entries' storage
    /// is trimmed to the capacity the simulator's per-batch tables retain,
    /// so one huge batch does not pin its footprint for the life of the
    /// device.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.entries.shrink_to(RETAINED_CAPACITY);
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
            .filter_map(TraceEntry::bytes)
            .sum();
        self.retired[engine as usize].1 + live
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

    #[test]
    #[should_panic(expected = "predates the 5 retired entries")]
    fn a_mark_older_than_the_retired_prefix_panics() {
        let mut t = mixed_trace(12);
        t.retire(5);
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
    fn clear_trims_a_huge_batch_to_the_retained_capacity() {
        let mut t = mixed_trace(3 * RETAINED_CAPACITY as u64);
        assert!(t.entries.capacity() > RETAINED_CAPACITY);
        t.clear();
        assert!(t.entries.capacity() <= RETAINED_CAPACITY);
        // A small trace keeps its storage for the next call.
        let mut t = mixed_trace(10);
        let cap = t.entries.capacity();
        t.clear();
        assert_eq!(t.entries.capacity(), cap);
    }
}
