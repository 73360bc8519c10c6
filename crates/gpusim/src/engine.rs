//! The discrete-event core: streams, engines, link contention, virtual time.
//!
//! # Execution model
//!
//! * Each **stream** is a FIFO; an op may start only after the previous op
//!   on its stream completed (CUDA stream semantics).
//! * Three **engines** execute ops: one DMA engine per copy direction and a
//!   compute engine (kernels serialise on it, as saturating BLAS kernels do
//!   on a real device).
//! * Copies run in two phases: a fixed **latency** phase (the `t_l` of the
//!   paper's transfer model, during which the link carries no payload) and a
//!   **work** phase streaming bytes at the link rate.
//! * While both directions are in their work phase simultaneously, each
//!   direction's rate drops by its configured bidirectional slowdown — this
//!   is the ground-truth mechanism behind the paper's Eq. 3.
//! * Event records and waits are *instant* ops: they take no time, use no
//!   engine and provide cross-stream ordering.
//!
//! The loop alternates two steps: [`Sim::stabilize`] (process everything
//! that can happen *now*: instant ops, issuing queued ops to idle engines)
//! and [`Sim::advance`] (move time to the earliest phase transition or
//! completion). Rates are constant between consecutive events, so progress
//! integration is exact piecewise-linear accounting.
//!
//! # Op lifecycle
//!
//! An enqueued engine op (a copy or a kernel) is a 24-byte [`Op`]: its
//! batch sequence number, issued flag, interned tag, the link to the next
//! op on its stream and its [`OpKind`] packed into a one-byte code plus a
//! `u64` argument (a copy's bytes, or the side-table slot of a kernel
//! shape). An event record or wait is an 8-byte [`InstantOp`]: its event
//! slot, with a record/wait bit, and its link. An op's global id is the
//! batch's first id plus its sequence number, so ids (and so
//! [`TraceEntry::op`]) count every enqueue, instants included. Once the
//! simulator is idle every op has completed, so the op, instant, kernel,
//! event and tag tables are retired together; a global `base` offset,
//! advanced by the batch's enqueue count, keeps ids in enqueue order
//! across retirements. Only the [`Trace`] outlives a batch, and its
//! consumed prefix is retired on demand into exact per-engine totals
//! ([`Sim::retire_trace`]).
//!
//! A batch's storage grows without moving. Engine ops, instants and
//! kernel shapes live in three [`OpTable`]s, each a list of fixed
//! [`OP_CHUNK`]-record chunks:
//! the first is allocated at the table's first push and grows like a
//! `Vec` (small batches stay small), and is the only one kept at
//! retirement; later ones are allocated full-size once. A stream owns no
//! heap memory: it is the `(head, tail)` of a FIFO of `u32` links, each a
//! batch-relative index whose top bit ([`INSTANT_LINK`]) selects the
//! instant table. An op's stream is not stored: the stream walk knows it,
//! and it travels with the op on the engine queue. The engine table's
//! length is the number of trace entries the batch will record, so
//! [`Sim::run_to_idle`] reserves them in one step.
//!
//! Streams are never destroyed, so the loop keeps the ascending ids of the
//! non-empty ones (`busy`): [`Sim::stabilize`], [`Sim::idle`] and
//! [`Sim::abort_all`] cost O(busy streams), not O(streams ever created).

use crate::kernel::KernelShape;
use crate::op::{EventId, InstantOp, Op, OpId, OpKind, StreamId};
use crate::spec::{LinkSpec, NoiseSpec};
use crate::time::SimTime;
use crate::trace::{EngineKind, OpTag, Trace, TraceEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Residual byte count below which a transfer counts as complete (absorbs
/// nanosecond-rounding overshoot).
const BYTES_EPS: f64 = 1e-6;

/// Capacity the per-batch tables (and a cleared trace) keep when they
/// retire: small batches never reallocate, and one huge batch does not pin
/// its footprint for the life of the device.
pub(crate) const RETAINED_CAPACITY: usize = 4096;

/// Records per chunk of an [`OpTable`]. The first chunk is the one
/// retirement keeps, so it is the retained capacity.
const OP_CHUNK: usize = RETAINED_CAPACITY;

/// The bit of a stream-FIFO link that selects the instant table; the
/// other 31 bits are the batch-relative index into the selected table.
const INSTANT_LINK: u32 = 1 << 31;

/// The engines in their fixed processing order.
const ENGINES: [EngineKind; 3] = [
    EngineKind::CopyH2d,
    EngineKind::CopyD2h,
    EngineKind::Compute,
];

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Fixed setup delay; the link is not carrying payload yet.
    Latency { remaining_ns: u64 },
    /// Payload streaming (copies: `remaining` bytes) or kernel execution
    /// (`remaining` seconds at unit rate).
    Work { remaining: f64 },
}

/// An engine op off its stream: its op-table index and its stream.
#[derive(Debug, Clone, Copy)]
struct Queued {
    idx: u32,
    stream: u32,
}

#[derive(Debug)]
struct ActiveOp {
    op: Queued,
    phase: Phase,
    /// Bytes of the work phase (copies) or duration in seconds (kernels).
    work_total: f64,
    /// Per-op multiplicative noise on the transfer rate (1.0 for kernels —
    /// their noise lands in the duration instead).
    rate_factor: f64,
    /// Index of this op's entry in the trace (end time patched at completion).
    trace_idx: usize,
}

#[derive(Debug, Default)]
struct Engine {
    queue: VecDeque<Queued>,
    active: Option<ActiveOp>,
}

/// A table index or stream id as stored in the slim [`Op`].
fn idx32(n: usize) -> u32 {
    u32::try_from(n).expect("pending-table index exceeds u32")
}

/// Empties a per-batch table and trims its capacity to
/// [`RETAINED_CAPACITY`].
fn retire_table<T>(table: &mut Vec<T>) {
    table.clear();
    table.shrink_to(RETAINED_CAPACITY);
}

/// The pending records (engine ops, instants or kernel shapes) of one
/// batch, indexed by
/// batch-relative position, in [`OP_CHUNK`]-record chunks so that
/// appending never moves a stored record. Allocates nothing before its
/// first push.
#[derive(Debug)]
struct OpTable<T> {
    /// Every chunk but the last is full.
    chunks: Vec<Vec<T>>,
}

impl<T> OpTable<T> {
    fn new() -> Self {
        OpTable { chunks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * OP_CHUNK + last.len())
    }

    /// Appends `rec` and returns its batch-relative index.
    ///
    /// # Panics
    ///
    /// If the index would not fit in a stream-FIFO link (31 bits).
    fn push(&mut self, rec: T) -> u32 {
        let idx = idx32(self.len());
        assert!(idx < INSTANT_LINK, "pending-table index exceeds 31 bits");
        match self.chunks.last_mut() {
            Some(last) if last.len() < OP_CHUNK => last.push(rec),
            Some(_) => {
                let mut chunk = Vec::with_capacity(OP_CHUNK);
                chunk.push(rec);
                self.chunks.push(chunk);
            }
            None => self.chunks.push(vec![rec]),
        }
        idx
    }

    /// Drops every record, keeping only the first chunk's storage.
    fn retire(&mut self) {
        self.chunks.truncate(1);
        if let Some(first) = self.chunks.first_mut() {
            retire_table(first);
        }
    }
}

impl<T> std::ops::Index<u32> for OpTable<T> {
    type Output = T;

    fn index(&self, idx: u32) -> &T {
        let idx = idx as usize;
        &self.chunks[idx / OP_CHUNK][idx % OP_CHUNK]
    }
}

impl<T> std::ops::IndexMut<u32> for OpTable<T> {
    fn index_mut(&mut self, idx: u32) -> &mut T {
        let idx = idx as usize;
        &mut self.chunks[idx / OP_CHUNK][idx % OP_CHUNK]
    }
}

/// The simulator core. Crate-internal; users drive it through
/// [`Gpu`](crate::Gpu).
#[derive(Debug)]
pub(crate) struct Sim {
    now_ns: u64,
    /// Global id of the batch's first op.
    base: OpId,
    /// Ops (engine and instant) enqueued since the last retirement.
    enqueued: usize,
    /// Engine ops enqueued since the last retirement: the trace entries
    /// the batch will record.
    ops: OpTable<Op>,
    /// Event records and waits enqueued since the last retirement.
    instants: OpTable<InstantOp>,
    /// `(shape, noise-free seconds)` of each pending kernel.
    kernels: OpTable<(KernelShape, f64)>,
    /// Interned routine tags of pending ops: op tag `i > 0` is
    /// `tags[i - 1]`. The ambient tag, when set, is the last entry.
    tags: Vec<OpTag>,
    /// Interned index of the ambient tag (0 = untagged).
    cur_tag: u32,
    /// Each stream's pending FIFO as `(head, tail)` links (see
    /// [`INSTANT_LINK`]), linked head to tail through [`Op::next`] and
    /// [`InstantOp::next`]; `None` when empty, as every stream is at
    /// retirement.
    streams: Vec<Option<(u32, u32)>>,
    /// Ids of the non-empty streams, ascending (see the module docs).
    busy: Vec<usize>,
    /// Global id of `events[0]`. Every older event was recorded before the
    /// last retirement.
    event_base: usize,
    /// Whether each event since `event_base` has been recorded.
    events: Vec<bool>,
    h2d: Engine,
    d2h: Engine,
    compute: Engine,
    link: LinkSpec,
    noise: NoiseSpec,
    rng: StdRng,
    trace: Trace,
    /// Link degradation as disjoint segments `(start_ns, factor)`, sorted
    /// by start: `factor` multiplies both directions' bandwidth from
    /// `start_ns` until the next segment's start. The last segment (and
    /// everything before the first) runs at `1.0`.
    degrade: Vec<(u64, f64)>,
}

impl Sim {
    pub(crate) fn new(link: LinkSpec, noise: NoiseSpec, seed: u64) -> Self {
        Sim {
            now_ns: 0,
            base: 0,
            enqueued: 0,
            ops: OpTable::new(),
            instants: OpTable::new(),
            kernels: OpTable::new(),
            tags: Vec::new(),
            cur_tag: 0,
            streams: Vec::new(),
            busy: Vec::new(),
            event_base: 0,
            events: Vec::new(),
            h2d: Engine::default(),
            d2h: Engine::default(),
            compute: Engine::default(),
            link,
            noise,
            rng: StdRng::seed_from_u64(seed),
            trace: Trace::default(),
            degrade: Vec::new(),
        }
    }

    /// Installs the link degradation windows `(start_ns, end_ns, factor)`.
    ///
    /// Where windows overlap, the one with the earliest start wins, ties
    /// going to the earlier window in `windows`. The windows are flattened
    /// once into disjoint segments that keep every window edge as a segment
    /// boundary (even where the factor does not change), so the engine
    /// clamps its steps at exactly the instants the windows name.
    pub(crate) fn set_degrade(&mut self, mut windows: Vec<(u64, u64, f64)>) {
        windows.sort_by_key(|w| w.0);
        let mut bounds: Vec<u64> = windows.iter().flat_map(|&(s, e, _)| [s, e]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        // The winner at `b` is the first window (in sorted order) that has
        // started and not yet ended. Bounds only grow, so a window found
        // ended stays ended: `head` skips past them once.
        let mut head = 0;
        self.degrade = bounds
            .into_iter()
            .map(|b| {
                let started = windows.partition_point(|w| w.0 <= b);
                while head < started && windows[head].1 <= b {
                    head += 1;
                }
                let factor = if head < started { windows[head].2 } else { 1.0 };
                (b, factor)
            })
            .collect();
    }

    /// Index of the first degrade segment starting after the current time.
    fn degrade_idx(&self) -> usize {
        self.degrade
            .partition_point(|&(start, _)| start <= self.now_ns)
    }

    /// Bandwidth multiplier in effect at the current virtual time (`1.0`
    /// outside every window; see [`set_degrade`](Self::set_degrade) for
    /// which window wins an overlap).
    pub(crate) fn degrade_factor_now(&self) -> f64 {
        match self.degrade_idx() {
            0 => 1.0,
            i => self.degrade[i - 1].1,
        }
    }

    /// The next degrade-window boundary strictly after the current time.
    fn next_degrade_boundary_ns(&self) -> Option<u64> {
        self.degrade
            .get(self.degrade_idx())
            .map(|&(start, _)| start)
    }

    /// Advances the virtual clock by `ns` with no engine work in flight —
    /// the host-side wait primitive behind retry backoff. Engines only hold
    /// active ops inside [`Sim::run_to_idle`], so between public calls the
    /// clock can move freely.
    pub(crate) fn advance_by(&mut self, ns: u64) {
        debug_assert!(
            self.h2d.active.is_none() && self.d2h.active.is_none() && self.compute.active.is_none(),
            "advance_by called with active engine work"
        );
        self.now_ns += ns;
    }

    /// Rewinds the idle virtual clock to `at_ns` and erases every trace
    /// record past it — the cancellation primitive behind hedged
    /// re-dispatch: a speculative attempt that lost its race is undone as
    /// if the device had sat idle since `at_ns`. Requires an idle
    /// simulator (engines only hold work inside [`Sim::run_to_idle`], so
    /// any point between public calls qualifies) and `at_ns` at or before
    /// the current time.
    pub(crate) fn rewind_to(&mut self, at_ns: u64) {
        debug_assert!(self.idle(), "rewind_to called with work in flight");
        debug_assert!(
            at_ns <= self.now_ns,
            "rewind_to target {at_ns} is in the future of {}",
            self.now_ns
        );
        self.now_ns = at_ns.min(self.now_ns);
        self.trace.clamp_to(SimTime::from_nanos(self.now_ns));
    }

    /// Aborts all queued and in-flight work (terminal device loss): stream
    /// and engine queues are dropped and active ops are cut short, their
    /// trace entries ending now. Afterwards the simulator is idle and the
    /// pending tables are retired.
    pub(crate) fn abort_all(&mut self) {
        for s in self.busy.drain(..) {
            self.streams[s] = None;
        }
        let now = self.now();
        for kind in ENGINES {
            let engine = self.engine_mut(kind);
            engine.queue.clear();
            let taken = engine.active.take();
            if let Some(active) = taken {
                self.trace
                    .entry_mut(active.trace_idx)
                    .expect("trace entry recorded at start")
                    .end = now;
            }
        }
        self.retire();
    }

    /// Retires every op of the finished batch. Only valid when idle: all
    /// ops have completed, so nothing refers to the tables any more.
    fn retire(&mut self) {
        debug_assert!(self.idle(), "retire called with work in flight");
        self.base += self.enqueued;
        self.enqueued = 0;
        self.ops.retire();
        self.instants.retire();
        self.kernels.retire();
        self.event_base += self.events.len();
        retire_table(&mut self.events);
        // Keep the ambient tag (the last entry, when set) for later ops.
        self.cur_tag = self.cur_tag.min(1);
        self.tags.drain(..self.tags.len() - self.cur_tag as usize);
        self.tags.shrink_to(RETAINED_CAPACITY);
    }

    /// Sets the ambient routine tag, interning it only when it differs from
    /// the last interned tag.
    pub(crate) fn set_tag(&mut self, tag: Option<OpTag>) {
        self.cur_tag = match tag {
            None => 0,
            Some(tag) => {
                if self.tags.last() != Some(&tag) {
                    self.tags.push(tag);
                }
                idx32(self.tags.len())
            }
        };
    }

    pub(crate) fn tag(&self) -> Option<OpTag> {
        self.interned_tag(self.cur_tag)
    }

    fn interned_tag(&self, idx: u32) -> Option<OpTag> {
        idx.checked_sub(1).map(|i| self.tags[i as usize])
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }

    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    pub(crate) fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Retires the trace before global index `upto` ([`Trace::retire`]).
    /// Requires an idle simulator, so no in-flight op still patches a
    /// retired entry.
    pub(crate) fn retire_trace(&mut self, upto: usize) -> Vec<TraceEntry> {
        assert!(self.idle(), "retire_trace called with work in flight");
        self.trace.retire(upto)
    }

    pub(crate) fn create_stream(&mut self) -> StreamId {
        let id = StreamId(idx32(self.streams.len()));
        self.streams.push(None);
        id
    }

    pub(crate) fn stream_exists(&self, s: StreamId) -> bool {
        s.index() < self.streams.len()
    }

    pub(crate) fn event_exists(&self, ev: EventId) -> bool {
        ev.0 < self.event_base + self.events.len()
    }

    /// Enqueues an engine op and returns its global id. Copies come
    /// straight here; kernels go through
    /// [`enqueue_kernel`](Self::enqueue_kernel), which fills the side table
    /// their kind indexes.
    pub(crate) fn enqueue(&mut self, stream: StreamId, kind: OpKind) -> OpId {
        let id = self.base + self.enqueued;
        let idx = self
            .ops
            .push(Op::new(kind, idx32(self.enqueued), self.cur_tag));
        self.append(stream, idx);
        id
    }

    /// Enqueues an event record or wait.
    fn enqueue_instant(&mut self, stream: StreamId, op: InstantOp) {
        let idx = self.instants.push(op);
        self.append(stream, idx | INSTANT_LINK);
    }

    /// Appends the op at `link` to `stream`'s FIFO and counts the enqueue.
    fn append(&mut self, stream: StreamId, link: u32) {
        debug_assert!(self.stream_exists(stream));
        self.enqueued += 1;
        let s = stream.index();
        match self.streams[s] {
            Some((head, tail)) => {
                *self.next_mut(tail) = link;
                self.streams[s] = Some((head, link));
            }
            None => {
                self.streams[s] = Some((link, link));
                // Usually the newest stream, so the insert lands at the end.
                let at = self.busy.partition_point(|&b| b < s);
                self.busy.insert(at, s);
            }
        }
    }

    /// The next-op link of the op at `link`.
    fn next_mut(&mut self, link: u32) -> &mut u32 {
        if link & INSTANT_LINK != 0 {
            &mut self.instants[link & !INSTANT_LINK].next
        } else {
            &mut self.ops[link].next
        }
    }

    /// Enqueues a kernel whose noise-free duration is `base_secs`.
    pub(crate) fn enqueue_kernel(
        &mut self,
        stream: StreamId,
        shape: KernelShape,
        base_secs: f64,
    ) -> OpId {
        let idx = self.kernels.push((shape, base_secs));
        self.enqueue(stream, OpKind::Kernel(idx))
    }

    /// Creates an event and enqueues its record on `stream`.
    pub(crate) fn record_event(&mut self, stream: StreamId) -> EventId {
        let slot = self.events.len();
        self.events.push(false);
        self.enqueue_instant(stream, InstantOp::record(idx32(slot)));
        EventId(self.event_base + slot)
    }

    /// Enqueues a wait for `ev` on `stream`. An event retired with an
    /// earlier batch was recorded then (or aborted with a lost device, which
    /// runs nothing again), so its wait gets a fresh slot that is already
    /// set.
    pub(crate) fn wait_event(&mut self, stream: StreamId, ev: EventId) {
        debug_assert!(self.event_exists(ev));
        let slot = match ev.0.checked_sub(self.event_base) {
            Some(slot) => slot,
            None => {
                self.events.push(true);
                self.events.len() - 1
            }
        };
        self.enqueue_instant(stream, InstantOp::wait(idx32(slot)));
    }

    /// True if no queued or active work remains.
    pub(crate) fn idle(&self) -> bool {
        self.busy.is_empty()
            && self.h2d.active.is_none()
            && self.d2h.active.is_none()
            && self.compute.active.is_none()
            && self.h2d.queue.is_empty()
            && self.d2h.queue.is_empty()
            && self.compute.queue.is_empty()
    }

    /// Runs the simulation until idle, calling `on_complete` with each
    /// engine op's id in completion order, then retires the finished
    /// batch. Instants carry no functional effect, so they are not
    /// reported.
    ///
    /// # Panics
    ///
    /// Panics if the enqueued schedule deadlocks (a stream waits on an event
    /// that can never be recorded).
    pub(crate) fn run_to_idle(&mut self, mut on_complete: impl FnMut(OpId)) {
        self.trace.reserve(self.ops.len());
        loop {
            let progressed = self.stabilize();
            if self.idle() {
                self.retire();
                return;
            }
            let any_active = self.h2d.active.is_some()
                || self.d2h.active.is_some()
                || self.compute.active.is_some();
            if !any_active {
                assert!(
                    progressed,
                    "simulated schedule deadlocked at {}: streams blocked on unrecorded events",
                    self.now()
                );
                continue;
            }
            self.advance(&mut on_complete);
        }
    }

    /// Processes everything that can happen without time passing: completes
    /// instant ops at stream heads and issues ready ops to idle engines.
    /// Returns whether any state changed.
    ///
    /// Stream heads are visited in ascending stream id, walking only the
    /// busy streams: nothing is enqueued mid-pass, so this is the order a
    /// scan over every stream would issue in. Each pass looks at one head
    /// per busy stream, and an instant op uses its stream's turn: engines
    /// start ops, and so draw noise, in an order fixed by this structure.
    // Inlined into the generic `run_to_idle`, which is compiled where it is
    // called: out of line, this cost a paper deployment (thousands of
    // one-op batches) ~5% more host time.
    #[inline(always)]
    fn stabilize(&mut self) -> bool {
        let mut progressed_any = false;
        loop {
            let mut progressed = false;
            // 1. Stream heads: handle instant ops, dispatch engine ops.
            // Streams an instant op empties leave `busy` in the same pass.
            let mut busy = std::mem::take(&mut self.busy);
            busy.retain(|&s| {
                let (head, tail) = self.streams[s].expect("busy stream is non-empty");
                if head & INSTANT_LINK != 0 {
                    let op = self.instants[head & !INSTANT_LINK];
                    let event = &mut self.events[op.slot() as usize];
                    if !op.is_wait() {
                        *event = true;
                    } else if !*event {
                        return true;
                    }
                    progressed = true;
                    self.streams[s] = (head != tail).then_some((op.next, tail));
                    return head != tail;
                }
                let op = &mut self.ops[head];
                if op.issued {
                    return true; // already on an engine, waiting for completion
                }
                let engine = match op.kind() {
                    OpKind::H2d { .. } => &mut self.h2d,
                    OpKind::D2h { .. } => &mut self.d2h,
                    OpKind::Kernel(_) => &mut self.compute,
                };
                progressed = true;
                op.issued = true;
                engine.queue.push_back(Queued {
                    idx: head,
                    stream: idx32(s),
                });
                true
            });
            self.busy = busy;
            // 2. Idle engines pick up queued work.
            for engine_kind in ENGINES {
                if self.engine(engine_kind).active.is_some() {
                    continue;
                }
                let Some(queued) = self.engine_mut(engine_kind).queue.pop_front() else {
                    continue;
                };
                let active = self.start_op(queued, engine_kind);
                self.engine_mut(engine_kind).active = Some(active);
                progressed = true;
            }
            if !progressed {
                return progressed_any;
            }
            progressed_any = true;
        }
    }

    fn engine(&self, kind: EngineKind) -> &Engine {
        match kind {
            EngineKind::CopyH2d => &self.h2d,
            EngineKind::CopyD2h => &self.d2h,
            EngineKind::Compute => &self.compute,
        }
    }

    fn engine_mut(&mut self, kind: EngineKind) -> &mut Engine {
        match kind {
            EngineKind::CopyH2d => &mut self.h2d,
            EngineKind::CopyD2h => &mut self.d2h,
            EngineKind::Compute => &mut self.compute,
        }
    }

    /// Draws a multiplicative lognormal-ish noise factor `exp(σ·z)`.
    fn noise_factor(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        // Box–Muller over two uniforms.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z).exp()
    }

    fn start_op(&mut self, queued: Queued, engine_kind: EngineKind) -> ActiveOp {
        let op = self.ops[queued.idx];
        let now = self.now();
        let op_id = self.base + op.seq as usize;
        let mut entry = TraceEntry::new(op_id, StreamId(queued.stream), engine_kind, now, now);
        entry.tag = self.interned_tag(op.tag);
        let kind = op.kind();
        let (phase, work_total, rate_factor) = match kind {
            OpKind::H2d { bytes, pageable } | OpKind::D2h { bytes, pageable } => {
                let dir = if matches!(kind, OpKind::H2d { .. }) {
                    self.link.h2d
                } else {
                    self.link.d2h
                };
                let latency_ns = (dir.latency_s * 1e9).ceil() as u64;
                let page_factor = if pageable {
                    self.link.pageable_factor
                } else {
                    1.0
                };
                let rate_factor = page_factor * self.noise_factor(self.noise.transfer_sigma);
                let phase = if latency_ns > 0 {
                    Phase::Latency {
                        remaining_ns: latency_ns,
                    }
                } else {
                    Phase::Work {
                        remaining: bytes as f64,
                    }
                };
                entry = entry.with_bytes(bytes);
                (phase, bytes as f64, rate_factor)
            }
            OpKind::Kernel(idx) => {
                let (shape, base_secs) = self.kernels[idx];
                entry = entry.with_kernel(shape);
                let secs = base_secs * self.noise_factor(self.noise.kernel_sigma);
                (Phase::Work { remaining: secs }, secs, 1.0)
            }
        };
        let trace_idx = self.trace.len();
        // The entry's end is patched at completion.
        self.trace.push(entry);
        ActiveOp {
            op: queued,
            phase,
            work_total,
            rate_factor,
            trace_idx,
        }
    }

    /// Instantaneous payload rate of a copy direction given current
    /// contention, in bytes/second (excluding the per-op factor).
    fn dir_rate(&self, kind: EngineKind) -> f64 {
        let other_busy = |e: &Engine| {
            matches!(
                e.active,
                Some(ActiveOp {
                    phase: Phase::Work { .. },
                    ..
                })
            )
        };
        match kind {
            EngineKind::CopyH2d => {
                let base = self.link.h2d.bandwidth_bps * self.degrade_factor_now();
                if other_busy(&self.d2h) {
                    base / self.link.sl_h2d_bid
                } else {
                    base
                }
            }
            EngineKind::CopyD2h => {
                let base = self.link.d2h.bandwidth_bps * self.degrade_factor_now();
                if other_busy(&self.h2d) {
                    base / self.link.sl_d2h_bid
                } else {
                    base
                }
            }
            EngineKind::Compute => 1.0,
        }
    }

    /// Nanoseconds until `kind`'s active op hits its next phase boundary at
    /// current rates, or `None` if the engine is idle.
    fn estimate_ns(&self, kind: EngineKind) -> Option<u64> {
        let active = self.engine(kind).active.as_ref()?;
        Some(match active.phase {
            Phase::Latency { remaining_ns } => remaining_ns,
            Phase::Work { remaining } => {
                if remaining <= BYTES_EPS {
                    0
                } else {
                    let rate = match kind {
                        EngineKind::Compute => 1.0, // seconds at unit rate
                        _ => self.dir_rate(kind) * active.rate_factor,
                    };
                    let secs = match kind {
                        EngineKind::Compute => remaining,
                        _ => remaining / rate,
                    };
                    (secs * 1e9).ceil() as u64
                }
            }
        })
    }

    /// Advances virtual time to the earliest phase boundary among active
    /// ops, applying payload progress and completing finished ops.
    fn advance(&mut self, on_complete: &mut impl FnMut(OpId)) {
        // Snapshot rates *before* mutating anything: they are constant over
        // the interval we are about to traverse.
        let rates = ENGINES.map(|k| self.dir_rate(k));
        let estimates = ENGINES.map(|k| self.estimate_ns(k));
        let mut dt = estimates
            .iter()
            .flatten()
            .copied()
            .min()
            .expect("advance called with no active ops");
        // Rates change at degrade-window boundaries: clamp the step so the
        // interval we integrate over has constant rates. A clamped step
        // completes nothing (its estimate differs and work remains), and the
        // next iteration re-snapshots rates at the boundary.
        if let Some(boundary) = self.next_degrade_boundary_ns() {
            dt = dt.min(boundary - self.now_ns);
        }
        self.now_ns += dt;
        let dt_secs = dt as f64 / 1e9;

        for (idx, kind) in ENGINES.into_iter().enumerate() {
            let rate = rates[idx];
            let est = estimates[idx];
            let Some(active) = self.engine_mut(kind).active.as_mut() else {
                continue;
            };
            match active.phase {
                Phase::Latency { remaining_ns } => {
                    if dt >= remaining_ns {
                        // Latency exhausted exactly at this boundary (dt is
                        // the min, so dt == remaining_ns when this fires).
                        active.phase = Phase::Work {
                            remaining: active.work_total,
                        };
                    } else {
                        active.phase = Phase::Latency {
                            remaining_ns: remaining_ns - dt,
                        };
                    }
                }
                Phase::Work { remaining } => {
                    let progress = match kind {
                        EngineKind::Compute => dt_secs,
                        _ => dt_secs * rate * active.rate_factor,
                    };
                    let left = remaining - progress;
                    if est == Some(dt) || left <= BYTES_EPS {
                        // This op reached its completion boundary.
                        let finished = self.engine_mut(kind).active.take().expect("active");
                        self.complete_op(finished, on_complete);
                    } else {
                        active.phase = Phase::Work { remaining: left };
                    }
                }
            }
        }
    }

    /// Lengths of the pending engine-op, instant, kernel and tag tables.
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> [usize; 4] {
        [
            self.ops.len(),
            self.instants.len(),
            self.kernels.len(),
            self.tags.len(),
        ]
    }

    fn complete_op(&mut self, active: ActiveOp, on_complete: &mut impl FnMut(OpId)) {
        let Queued { idx, stream } = active.op;
        let op = self.ops[idx];
        let stream = stream as usize;
        // The op is necessarily at its stream head.
        let (head, tail) = self.streams[stream].expect("completed op's stream is busy");
        debug_assert_eq!(head, idx, "completed op must be its stream head");
        self.streams[stream] = (head != tail).then_some((op.next, tail));
        if head == tail {
            let at = self.busy.partition_point(|&s| s < stream);
            debug_assert_eq!(self.busy.get(at), Some(&stream), "emptied stream was busy");
            self.busy.remove(at);
        }
        let now = self.now();
        self.trace
            .entry_mut(active.trace_idx)
            .expect("trace entry recorded at start")
            .end = now;
        on_complete(self.base + op.seq as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{testbed_i, DirLinkSpec};
    use cocopelia_hostblas::Dtype;

    fn quiet_link() -> LinkSpec {
        LinkSpec {
            h2d: DirLinkSpec {
                latency_s: 1e-6,
                bandwidth_bps: 1e9,
            },
            d2h: DirLinkSpec {
                latency_s: 1e-6,
                bandwidth_bps: 1e9,
            },
            sl_h2d_bid: 1.0,
            sl_d2h_bid: 2.0,
            pageable_factor: 0.5,
        }
    }

    fn copy(sim: &mut Sim, s: StreamId, bytes: usize, h2d: bool) -> OpId {
        let pageable = false;
        let kind = if h2d {
            OpKind::H2d { bytes, pageable }
        } else {
            OpKind::D2h { bytes, pageable }
        };
        sim.enqueue(s, kind)
    }

    fn kernel(sim: &mut Sim, s: StreamId, secs: f64) -> OpId {
        let shape = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: 1,
        };
        sim.enqueue_kernel(s, shape, secs)
    }

    /// Runs to idle and returns the completed op ids in completion order.
    fn run_all(sim: &mut Sim) -> Vec<OpId> {
        let mut done = Vec::new();
        sim.run_to_idle(|op| done.push(op));
        done
    }

    #[test]
    fn single_copy_takes_latency_plus_bytes() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        copy(&mut sim, s, 1_000_000, true); // 1MB at 1GB/s = 1ms
        run_all(&mut sim);
        let total = sim.now().as_secs_f64();
        assert!((total - (1e-6 + 1e-3)).abs() < 1e-7, "total {total}");
    }

    #[test]
    fn stream_serialises_ops() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        kernel(&mut sim, s, 1e-3);
        kernel(&mut sim, s, 2e-3);
        run_all(&mut sim);
        assert!((sim.now().as_secs_f64() - 3e-3).abs() < 1e-8);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        copy(&mut sim, s1, 1_000_000, true);
        kernel(&mut sim, s2, 1e-3);
        run_all(&mut sim);
        // Copy (~1.001ms) and kernel (1ms) run concurrently.
        assert!(sim.now().as_secs_f64() < 1.1e-3);
    }

    #[test]
    fn same_engine_serialises_across_streams() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        copy(&mut sim, s1, 1_000_000, true);
        copy(&mut sim, s2, 1_000_000, true);
        run_all(&mut sim);
        // Both h2d copies share one engine: ~2 * (1ms + latency).
        assert!(sim.now().as_secs_f64() > 1.9e-3);
    }

    #[test]
    fn bidirectional_contention_slows_d2h() {
        // d2h has sl=2.0: concurrent h2d halves its payload rate.
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        copy(&mut sim, s1, 10_000_000, true); // ~10ms
        copy(&mut sim, s2, 10_000_000, false); // alone ~10ms
        run_all(&mut sim);
        let total = sim.now().as_secs_f64();
        // While h2d runs (10ms) the d2h moves 5MB at half rate; the
        // remaining 5MB then flows at full rate: 15ms total ± latency.
        assert!((total - 15e-3).abs() < 1e-4, "total {total}");
    }

    #[test]
    fn h2d_unaffected_when_sl_is_one() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        copy(&mut sim, s1, 10_000_000, true);
        copy(&mut sim, s2, 1_000_000, false);
        run_all(&mut sim);
        // h2d (sl=1.0) finishes in ~10ms regardless of the short d2h.
        let h2d_end = sim
            .trace()
            .entries()
            .iter()
            .find(|e| e.engine == EngineKind::CopyH2d)
            .expect("h2d entry")
            .end
            .as_secs_f64();
        assert!((h2d_end - 10.001e-3).abs() < 1e-5, "h2d end {h2d_end}");
    }

    #[test]
    fn contention_release_speeds_up_remaining_transfer() {
        // A long d2h overlaps a short h2d; after the h2d ends the d2h
        // resumes full rate. Expected: 1MB contended (during h2d's ~1ms
        // work) then the rest at full rate.
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        copy(&mut sim, s1, 1_000_000, true); // 1ms work
        copy(&mut sim, s2, 10_000_000, false);
        run_all(&mut sim);
        let total = sim.now().as_secs_f64();
        // d2h: ~0.5MB moved during the 1ms contended window (rate 0.5GB/s),
        // remaining 9.5MB at 1GB/s = 9.5ms; total ≈ 10.5ms.
        assert!((total - 10.5e-3).abs() < 1.5e-4, "total {total}");
    }

    #[test]
    fn events_order_across_streams() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        kernel(&mut sim, s1, 5e-3);
        let ev = sim.record_event(s1);
        sim.wait_event(s2, ev);
        kernel(&mut sim, s2, 1e-3);
        run_all(&mut sim);
        // s2's kernel cannot start before s1's finishes (same engine anyway,
        // but the wait also forbids queue-jumping): 6ms total.
        assert!((sim.now().as_secs_f64() - 6e-3).abs() < 1e-8);
        let entries = sim.trace().entries();
        assert!(entries[1].start >= entries[0].end);
    }

    #[test]
    fn wait_before_record_blocks_until_recorded() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        // s2's wait reaches its stream head first; the record lands on s1
        // only after a kernel.
        kernel(&mut sim, s1, 2e-3);
        let ev = sim.record_event(s1);
        sim.wait_event(s2, ev);
        copy(&mut sim, s2, 1_000, true);
        run_all(&mut sim);
        let copy = sim
            .trace()
            .entries()
            .iter()
            .find(|e| e.engine == EngineKind::CopyH2d)
            .expect("copy entry");
        assert!(copy.start.as_secs_f64() >= 2e-3);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn waiting_on_never_recorded_event_deadlocks() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        // An event slot no record op will ever set.
        sim.events.push(false);
        sim.enqueue_instant(s, InstantOp::wait(0));
        run_all(&mut sim);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::new(testbed_i().link, NoiseSpec::REALISTIC, seed);
            let s = sim.create_stream();
            for _ in 0..5 {
                copy(&mut sim, s, 100_000, true);
                kernel(&mut sim, s, 1e-4);
            }
            run_all(&mut sim);
            sim.now().as_nanos()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn completed_ops_reported_in_order() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        let a = kernel(&mut sim, s, 1e-3);
        let b = kernel(&mut sim, s, 1e-3);
        let done = run_all(&mut sim);
        assert_eq!(done, vec![a, b]);
        assert!(sim.idle());
    }

    #[test]
    fn pageable_copy_is_slower() {
        let time_with = |pageable: bool| {
            let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
            let s = sim.create_stream();
            sim.enqueue(
                s,
                OpKind::H2d {
                    bytes: 1_000_000,
                    pageable,
                },
            );
            run_all(&mut sim);
            sim.now().as_secs_f64()
        };
        let pinned = time_with(false);
        let pageable = time_with(true);
        assert!(
            (pageable / pinned - 2.0).abs() < 0.01,
            "{pageable} vs {pinned}"
        );
    }

    #[test]
    fn degrade_window_slows_then_restores_rate() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        // 1 GB/s link; halve bandwidth during [1ms, 3ms).
        sim.set_degrade(vec![(1_000_000, 3_000_000, 0.5)]);
        let s = sim.create_stream();
        copy(&mut sim, s, 4_000_000, true);
        run_all(&mut sim);
        let total = sim.now().as_secs_f64();
        // 1µs latency, 0.999ms full rate (0.999MB), 2ms half rate (1MB),
        // then 2.001MB at full rate: 5.001ms total.
        assert!((total - 5.001e-3).abs() < 1e-5, "total {total}");
    }

    #[test]
    fn empty_degrade_windows_change_nothing() {
        let run = |windows: Vec<(u64, u64, f64)>| {
            let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
            sim.set_degrade(windows);
            let s = sim.create_stream();
            copy(&mut sim, s, 4_000_000, true);
            kernel(&mut sim, s, 1e-3);
            run_all(&mut sim);
            sim.now().as_nanos()
        };
        // A window whose factor is 1.0 forces boundary clamping but must
        // not change the integrated result.
        assert_eq!(run(Vec::new()), run(vec![(1_000_000, 3_000_000, 1.0)]));
    }

    #[test]
    fn abort_all_clears_everything() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        copy(&mut sim, s, 1_000_000, true);
        kernel(&mut sim, s, 1e-3);
        assert!(!sim.idle());
        sim.abort_all();
        assert!(sim.idle());
        assert!(run_all(&mut sim).is_empty());
        assert_eq!(sim.now().as_nanos(), 0);
    }

    #[test]
    fn rewind_to_undoes_time_and_trace() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        copy(&mut sim, s, 1_000_000, true); // ~1.001ms
        run_all(&mut sim);
        let mid = sim.now().as_nanos() / 2;
        kernel(&mut sim, s, 1e-3);
        run_all(&mut sim);
        assert_eq!(sim.trace().len(), 2);
        sim.rewind_to(mid);
        assert_eq!(sim.now().as_nanos(), mid);
        assert_eq!(sim.trace().len(), 1, "entries past the rewind are erased");
        assert_eq!(
            sim.trace().entries()[0].end.as_nanos(),
            mid,
            "the entry straddling the rewind point is clamped"
        );
        // The device resumes normal operation from the rewound instant.
        kernel(&mut sim, s, 1e-3);
        run_all(&mut sim);
        assert_eq!(sim.now().as_nanos(), mid + 1_000_000);
    }

    #[test]
    fn rewind_to_current_time_is_a_no_op() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        kernel(&mut sim, s, 1e-3);
        run_all(&mut sim);
        let now = sim.now().as_nanos();
        sim.rewind_to(now);
        assert_eq!(sim.now().as_nanos(), now);
        assert_eq!(sim.trace().len(), 1);
    }

    #[test]
    fn advance_by_moves_idle_clock() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        sim.advance_by(1_500);
        assert_eq!(sim.now().as_nanos(), 1_500);
        let s = sim.create_stream();
        kernel(&mut sim, s, 1e-3);
        run_all(&mut sim);
        assert_eq!(sim.now().as_nanos(), 1_001_500);
    }

    #[test]
    fn zero_byte_copy_costs_latency_only() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        copy(&mut sim, s, 0, true);
        run_all(&mut sim);
        assert!((sim.now().as_secs_f64() - 1e-6).abs() < 1e-12);
    }

    /// Addresses of the chunks of `table` that can no longer move, checked
    /// against `settled` and appended to it: chunk 0 once it is full, later
    /// chunks from their creation.
    fn settle_chunks<T>(table: &OpTable<T>, settled: &mut Vec<*const T>) {
        for (i, chunk) in table.chunks.iter().enumerate() {
            if let Some(&addr) = settled.get(i) {
                assert_eq!(chunk.as_ptr(), addr, "chunk {i} moved");
            } else if i > 0 || chunk.len() == OP_CHUNK {
                settled.push(chunk.as_ptr());
            }
        }
    }

    #[test]
    fn op_table_never_moves_and_streams_stay_fifo() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let streams: Vec<StreamId> = (0..5).map(|_| sim.create_stream()).collect();
        // A warm-up batch, so the big batch's ids start past zero.
        copy(&mut sim, streams[0], 10, true);
        run_all(&mut sim);
        let first = sim.base;
        // The reference model: each stream's FIFO as `(op id, link)` in
        // enqueue order, engine ops and instants mixed.
        let mut model: Vec<VecDeque<(OpId, u32)>> = vec![VecDeque::new(); streams.len()];
        let (mut settled_ops, mut settled_instants, mut settled_kernels) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        // Books the op just enqueued on stream `s` in the model.
        let mut expect = |sim: &Sim, s: usize, instant: bool| {
            let link = if instant {
                idx32(sim.instants.len() - 1) | INSTANT_LINK
            } else {
                idx32(sim.ops.len() - 1)
            };
            model[s].push_back((sim.base + sim.enqueued - 1, link));
        };
        while sim.ops.len() < 3 * OP_CHUNK + 123 || sim.instants.len() < 2 * OP_CHUNK {
            let s = rng.gen_range(0..streams.len());
            match rng.gen_range(0..4usize) {
                0 => {
                    copy(&mut sim, streams[s], 64, true);
                }
                1 => {
                    copy(&mut sim, streams[s], 64, false);
                }
                2 => {
                    kernel(&mut sim, streams[s], 1e-7);
                }
                _ => {
                    let other = (s + 1) % streams.len();
                    let ev = sim.record_event(streams[other]);
                    expect(&sim, other, true);
                    sim.wait_event(streams[s], ev);
                    expect(&sim, s, true);
                    continue;
                }
            }
            expect(&sim, s, false);
            settle_chunks(&sim.ops, &mut settled_ops);
            settle_chunks(&sim.instants, &mut settled_instants);
            settle_chunks(&sim.kernels, &mut settled_kernels);
        }
        let total = sim.enqueued;
        assert_eq!(sim.ops.len() + sim.instants.len(), total);
        assert_eq!(sim.ops.chunks.len(), sim.ops.len().div_ceil(OP_CHUNK));
        assert_eq!(
            sim.instants.chunks.len(),
            sim.instants.len().div_ceil(OP_CHUNK)
        );
        assert!(sim.ops.chunks.iter().all(|c| c.capacity() == OP_CHUNK));
        assert!(sim.instants.chunks.iter().all(|c| c.capacity() == OP_CHUNK));
        assert!(sim.kernels.chunks.iter().all(|c| c.capacity() == OP_CHUNK));
        // Each stream's links, walked head to tail, are its enqueue order.
        for (s, fifo) in model.iter().enumerate() {
            let mut links = Vec::new();
            let mut at = sim.streams[s];
            while let Some((head, tail)) = at {
                links.push(head);
                let next = if head & INSTANT_LINK != 0 {
                    sim.instants[head & !INSTANT_LINK].next
                } else {
                    sim.ops[head].next
                };
                at = (head != tail).then_some((next, tail));
            }
            assert!(
                links.iter().copied().eq(fifo.iter().map(|&(_, l)| l)),
                "stream {s}"
            );
        }
        // Engine ops report their global ids; split by stream, completion
        // order is each stream's enqueue order of engine ops.
        let engine_model: Vec<VecDeque<OpId>> = model
            .iter()
            .map(|fifo| {
                fifo.iter()
                    .filter(|&&(_, link)| link & INSTANT_LINK == 0)
                    .map(|&(id, _)| id)
                    .collect()
            })
            .collect();
        let stream_of: std::collections::HashMap<OpId, usize> = engine_model
            .iter()
            .enumerate()
            .flat_map(|(s, ids)| ids.iter().map(move |&id| (id, s)))
            .collect();
        let mut engine_ids: Vec<OpId> = stream_of.keys().copied().collect();
        engine_ids.sort_unstable();
        let mut completed: Vec<VecDeque<OpId>> = vec![VecDeque::new(); streams.len()];
        for id in run_all(&mut sim) {
            completed[stream_of[&id]].push_back(id);
        }
        assert_eq!(completed, engine_model);
        // Retirement keeps only the first chunks; ids continue globally,
        // counting the instants.
        for (chunks, cap) in [
            (sim.ops.chunks.len(), sim.ops.chunks[0].capacity()),
            (sim.instants.chunks.len(), sim.instants.chunks[0].capacity()),
            (sim.kernels.chunks.len(), sim.kernels.chunks[0].capacity()),
        ] {
            assert_eq!(chunks, 1);
            assert!(cap <= RETAINED_CAPACITY);
        }
        assert_eq!(sim.table_lens(), [0; 4]);
        assert_eq!(copy(&mut sim, streams[0], 10, true), first + total);
        let mut traced: Vec<OpId> = sim.trace().entries()[1..].iter().map(|e| e.op).collect();
        traced.sort_unstable();
        assert_eq!(traced, engine_ids, "trace entries carry global op ids");
    }

    #[test]
    fn event_heavy_batch_holds_8_bytes_per_instant() {
        assert_eq!(std::mem::size_of::<Op>(), 24);
        assert_eq!(std::mem::size_of::<InstantOp>(), 8);
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let (s0, s1) = (sim.create_stream(), sim.create_stream());
        // The cuBLASXt shape: per tile, a copy and a kernel on two streams
        // that order each other through a record and two waits.
        for _ in 0..3 * OP_CHUNK {
            copy(&mut sim, s0, 64, true);
            let ev = sim.record_event(s0);
            sim.wait_event(s1, ev);
            kernel(&mut sim, s1, 1e-7);
            let done = sim.record_event(s1);
            sim.wait_event(s0, done);
        }
        let (engine, instants, kernels) = (6 * OP_CHUNK, 12 * OP_CHUNK, 3 * OP_CHUNK);
        assert_eq!(sim.table_lens()[..3], [engine, instants, kernels]);
        // Every chunk is full, so the reserved storage is the held records.
        let kernel_bytes = std::mem::size_of::<(KernelShape, f64)>();
        let reserved = |sim: &Sim| {
            sim.ops.chunks.iter().map(Vec::capacity).sum::<usize>() * 24
                + sim.instants.chunks.iter().map(Vec::capacity).sum::<usize>() * 8
                + sim.kernels.chunks.iter().map(Vec::capacity).sum::<usize>() * kernel_bytes
        };
        assert_eq!(
            reserved(&sim),
            engine * 24 + instants * 8 + kernels * kernel_bytes
        );
        let done = run_all(&mut sim);
        assert_eq!(done.len(), engine, "only engine ops are reported");
        assert_eq!(sim.trace().len(), engine);
        assert_eq!(sim.table_lens(), [0; 4]);
        assert_eq!(
            (
                sim.ops.chunks.len(),
                sim.instants.chunks.len(),
                sim.kernels.chunks.len()
            ),
            (1, 1, 1),
            "retires to the first chunks"
        );
        assert_eq!(reserved(&sim), OP_CHUNK * (24 + 8 + kernel_bytes));
    }

    #[test]
    fn instant_table_allocates_nothing_until_its_first_push() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        for _ in 0..3 {
            copy(&mut sim, s, 64, true);
            run_all(&mut sim);
            assert_eq!(sim.instants.chunks.capacity(), 0);
        }
        sim.record_event(s);
        run_all(&mut sim);
        assert_eq!(sim.instants.chunks.len(), 1);
    }

    #[test]
    fn tables_retire_at_idle_and_ids_stay_global() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        let first = copy(&mut sim, s, 1_000, true);
        kernel(&mut sim, s, 1e-6);
        assert_eq!(sim.table_lens(), [2, 0, 1, 0]);
        assert_eq!(run_all(&mut sim), vec![first, first + 1]);
        assert_eq!(sim.table_lens(), [0, 0, 0, 0]);
        // The next batch continues the global numbering.
        let next = copy(&mut sim, s, 1_000, false);
        assert_eq!(next, first + 2);
        assert_eq!(run_all(&mut sim), vec![next]);
        let ops: Vec<OpId> = sim.trace().entries().iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![0, 1, 2]);
    }

    #[test]
    fn abort_retires_pending_tables() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s = sim.create_stream();
        copy(&mut sim, s, 1_000, true);
        kernel(&mut sim, s, 1e-3);
        sim.record_event(s);
        assert_eq!(sim.table_lens(), [2, 1, 1, 0]);
        sim.abort_all();
        assert_eq!(sim.table_lens(), [0, 0, 0, 0]);
        // Ids continue after the aborted batch.
        assert_eq!(copy(&mut sim, s, 1_000, true), 3);
    }

    #[test]
    fn ready_heads_issue_in_ascending_stream_order() {
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        let s0 = sim.create_stream();
        let s1 = sim.create_stream();
        let s2 = sim.create_stream();
        // Both heads are ready in the first pass; the higher stream was
        // enqueued on first but the lower id issues first.
        copy(&mut sim, s2, 1_000, true);
        copy(&mut sim, s1, 1_000, true);
        // Both heads become ready in the pass that records `ev`.
        kernel(&mut sim, s0, 1e-3);
        let ev = sim.record_event(s0);
        sim.wait_event(s2, ev);
        copy(&mut sim, s2, 2_000, false);
        sim.wait_event(s1, ev);
        copy(&mut sim, s1, 3_000, false);
        run_all(&mut sim);
        let issued = |engine| -> Vec<StreamId> {
            sim.trace()
                .entries()
                .iter()
                .filter(|e| e.engine == engine)
                .map(|e| e.stream)
                .collect()
        };
        assert_eq!(issued(EngineKind::CopyH2d), vec![s1, s2]);
        assert_eq!(issued(EngineKind::CopyD2h), vec![s1, s2]);
    }

    #[test]
    fn drained_streams_leave_timing_unchanged() {
        // A fixed op sequence on fresh streams, returning each trace
        // entry's (start, end).
        let run = |sim: &mut Sim| -> Vec<(u64, u64)> {
            let first = sim.trace().len();
            let a = sim.create_stream();
            let b = sim.create_stream();
            for i in 0..4 {
                copy(sim, a, 100_000 * (i + 1), true);
                kernel(sim, a, 1e-4);
                copy(sim, b, 50_000, false);
                let ev = sim.record_event(a);
                sim.wait_event(b, ev);
            }
            run_all(sim);
            sim.trace().entries()[first..]
                .iter()
                .map(|e| (e.start.as_nanos(), e.end.as_nanos()))
                .collect()
        };
        let link = testbed_i().link;
        let fresh = run(&mut Sim::new(link, NoiseSpec::REALISTIC, 9));
        // Instant ops take no time and draw no noise, so only the 10 000
        // drained streams tell the two devices apart.
        let mut used = Sim::new(link, NoiseSpec::REALISTIC, 9);
        for _ in 0..10_000 {
            let s = used.create_stream();
            used.record_event(s);
        }
        run_all(&mut used);
        assert!(used.busy.is_empty());
        assert_eq!(run(&mut used), fresh);
    }

    #[test]
    fn overlapping_degrade_windows_resolve_by_start_then_spec_order() {
        // In spec order; by start the order is (100..300), (200..350),
        // (200..400), (500..600), and (200..350) precedes (200..400) on
        // the tie because it comes first in the spec.
        let windows = vec![
            (500, 600, 0.9),
            (200, 350, 0.8),
            (100, 300, 0.5),
            (200, 400, 0.25),
        ];
        // `(t, factor at t, next boundary after t)` just before, at and
        // just after every edge.
        let expected: [(u64, f64, Option<u64>); 21] = [
            (99, 1.0, Some(100)),
            (100, 0.5, Some(200)),
            (101, 0.5, Some(200)),
            (199, 0.5, Some(200)),
            (200, 0.5, Some(300)),
            (201, 0.5, Some(300)),
            (299, 0.5, Some(300)),
            (300, 0.8, Some(350)),
            (301, 0.8, Some(350)),
            (349, 0.8, Some(350)),
            (350, 0.25, Some(400)),
            (351, 0.25, Some(400)),
            (399, 0.25, Some(400)),
            (400, 1.0, Some(500)),
            (401, 1.0, Some(500)),
            (499, 1.0, Some(500)),
            (500, 0.9, Some(600)),
            (501, 0.9, Some(600)),
            (599, 0.9, Some(600)),
            (600, 1.0, None),
            (601, 1.0, None),
        ];
        let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
        sim.set_degrade(windows);
        let check = |sim: &Sim, t: u64, factor: f64, next: Option<u64>| {
            assert_eq!(sim.now().as_nanos(), t);
            assert_eq!(sim.degrade_factor_now(), factor, "factor at {t}");
            assert_eq!(sim.next_degrade_boundary_ns(), next, "boundary after {t}");
        };
        for &(t, factor, next) in &expected {
            sim.advance_by(t - sim.now().as_nanos());
            check(&sim, t, factor, next);
        }
        // Walking back with rewinds reads the same segments.
        for &(t, factor, next) in expected.iter().rev() {
            sim.rewind_to(t);
            check(&sim, t, factor, next);
        }
    }

    #[test]
    fn flattened_degrade_windows_match_the_window_scan() {
        // The rule the flattened segments must reproduce: the first window
        // containing `t` after a stable sort by start wins, and every edge
        // of every window is a boundary.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(0..6usize);
            let mut windows: Vec<(u64, u64, f64)> = (0..n)
                .map(|_| {
                    let s = rng.gen_range(0..40u64);
                    (
                        s,
                        s + rng.gen_range(0..20u64),
                        rng.gen_range(1..10u64) as f64 / 10.0,
                    )
                })
                .collect();
            let mut sim = Sim::new(quiet_link(), NoiseSpec::NONE, 1);
            sim.set_degrade(windows.clone());
            windows.sort_by_key(|w| w.0);
            for t in 0..70 {
                let factor = windows
                    .iter()
                    .find(|&&(s, e, _)| t >= s && t < e)
                    .map_or(1.0, |w| w.2);
                let next = windows
                    .iter()
                    .flat_map(|&(s, e, _)| [s, e])
                    .filter(|&b| b > t)
                    .min();
                assert_eq!(sim.degrade_factor_now(), factor, "{windows:?} at {t}");
                assert_eq!(sim.next_degrade_boundary_ns(), next, "{windows:?} at {t}");
                sim.advance_by(1);
            }
        }
    }
}
