//! Tile plans: each routine described by its tiling (§IV-B's "extension
//! skeleton"), and the one interpreter that runs them.
//!
//! A plan has three loop axes, `I`, `J` and `P`, each split at the call's
//! tile size; a routine without one gives it extent 1. Each operand's tile
//! is named by two axes:
//!
//! * gemm `C[i,j] += A[i,p]·B[p,j]`;
//! * gemv `y[i] += A[i,p]·x[p]`;
//! * axpy `y[i] += x[i]`;
//! * dot `part[i] = x[i]·y[i]`, with the partials drained once at the end.
//!
//! The interpreter walks the groups `(i, j)` in row-major order and the
//! steps `p` within each group. Per group:
//!
//! 1. the accumulator tile (`C`, `y`) is fetched at group start (copied only
//!    when `β ≠ 0`);
//! 2. each step fetches its reads in operand order;
//! 3. the exec stream waits on each read's event, and at step 0 also on
//!    the accumulator's;
//! 4. the kernel launches;
//! 5. the accumulator or in-place tile (axpy's `y`) drains at group end.
//!
//! Op ids count every enqueued copy, kernel, event record and wait, and the
//! simulator draws noise in engine start order, so this order is part of
//! every pinned trace. Adding a routine means adding its operand table, its
//! extents and its kernel arm here; the loop and the dimension check stay.

use super::{region, span, view, OperandStore, RunStats, TileFetcher, TileRef};
use crate::error::RuntimeError;
use cocopelia_gpusim::{
    DevBufId, DevVecRef, EventId, Gpu, HostBufId, KernelArgs, KernelShape, OpTag, OperandRole,
    Payload, Routine, SimScalar,
};
use cocopelia_hostblas::tiling::{tile_count, TileRange};

/// A loop axis: an index into a plan's extents.
type Axis = usize;
const I: Axis = 0;
const J: Axis = 1;
const P: Axis = 2;

/// When the interpreter fetches and drains an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Fetched at every step.
    Read,
    /// Fetched at every step and drained at group end (axpy's `y`).
    Update,
    /// Fetched at group start, awaited at step 0, drained at group end.
    Accumulate,
}

/// One operand of a plan, in the routine's argument order.
#[derive(Debug, Clone, Copy)]
struct PlanOperand {
    role: OperandRole,
    /// The axes naming its tile `(row, col)`.
    tile: (Axis, Axis),
    access: Access,
}

const fn operand(role: OperandRole, tile: (Axis, Axis), access: Access) -> PlanOperand {
    PlanOperand { role, tile, access }
}

const GEMM: [PlanOperand; 3] = [
    operand(OperandRole::A, (I, P), Access::Read),
    operand(OperandRole::B, (P, J), Access::Read),
    operand(OperandRole::C, (I, J), Access::Accumulate),
];
const GEMV: [PlanOperand; 3] = [
    operand(OperandRole::A, (I, P), Access::Read),
    operand(OperandRole::X, (P, J), Access::Read),
    operand(OperandRole::Y, (I, J), Access::Accumulate),
];
const AXPY: [PlanOperand; 2] = [
    operand(OperandRole::X, (I, J), Access::Read),
    operand(OperandRole::Y, (I, J), Access::Update),
];
const DOT: [PlanOperand; 2] = [
    operand(OperandRole::X, (I, J), Access::Read),
    operand(OperandRole::Y, (I, J), Access::Read),
];
/// Dot's partials, tagged as tile `(0, 0)` (`J` has extent 1).
const PARTIALS: PlanOperand = operand(OperandRole::Partials, (J, J), Access::Update);

/// A routine's tiling: loop extents, operand tiles and kernel scalars.
/// Building one is the routine's only dimension check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePlan {
    routine: Routine,
    alpha: f64,
    /// Applies at step 0 of a group; later steps accumulate with `β = 1`.
    /// Without it the accumulator is write-only: backing storage, no copy.
    beta: f64,
    /// Extents of `I`, `J` and `P`.
    extents: [usize; 3],
    operands: &'static [PlanOperand],
    /// The axes naming each step's kernel tag.
    kernel_tile: (Axis, Axis),
}

impl TilePlan {
    /// The plan of `routine` with scalars `α` and `β` over operands of
    /// `(rows, cols)` `shapes` (vectors are `(len, 1)`), in argument order:
    /// the extents come from the leading operands, and every operand must
    /// span its axes' extents.
    pub(crate) fn new(
        routine: Routine,
        alpha: f64,
        beta: f64,
        shapes: &[(usize, usize)],
    ) -> Result<TilePlan, RuntimeError> {
        let (a, b) = (shapes[0], shapes[1]);
        let (operands, extents, kernel_tile): (&[PlanOperand], _, _) = match routine {
            Routine::Gemm => (&GEMM, [a.0, b.1, a.1], (I, J)),
            Routine::Gemv => (&GEMV, [a.0, 1, a.1], (I, P)),
            Routine::Axpy => (&AXPY, [a.0, 1, 1], (I, J)),
            Routine::Dot => (&DOT, [a.0, 1, 1], (I, J)),
        };
        for (op, &(rows, cols)) in operands.iter().zip(shapes) {
            let (r, c) = (extents[op.tile.0], extents[op.tile.1]);
            if (rows, cols) != (r, c) {
                let (routine, role) = (routine.name(), op.role.name());
                let what = format!("{routine}: {role} is {rows}x{cols}, expected {r}x{c}");
                return Err(RuntimeError::DimensionMismatch { what });
            }
        }
        Ok(TilePlan {
            routine,
            alpha,
            beta,
            extents,
            operands,
            kernel_tile,
        })
    }

    /// Runs the plan over `stores` (one per operand, in order) through
    /// `fetcher` at tile size `t`, tagging every op with call id `call`,
    /// and returns the host data of its output (`C`, `y`, or dot's
    /// partials) when the output was staged on the host in functional mode.
    /// Every host buffer the stores staged is released.
    #[cfg(test)]
    pub(crate) fn run<T: SimScalar>(
        &self,
        gpu: &mut Gpu,
        fetcher: TileFetcher,
        call: u64,
        t: usize,
        stores: &[OperandStore],
    ) -> Result<(Option<Vec<T>>, RunStats), RuntimeError> {
        let (data, stats) = self
            .issue::<T>(gpu, fetcher, call, t, stores, false)?
            .finish(gpu)?;
        Ok((data.map(T::payload_into_vec), stats))
    }

    /// Enqueues the plan over `stores` (one per operand, in order) through
    /// `fetcher` at tile size `t`, tagging every op with call id `call`,
    /// and hands back the run for [`PlanRun::finish`]. With `end`, an
    /// event is recorded behind the whole schedule: the host can wait for
    /// this call alone while later calls run.
    pub(crate) fn issue<T: SimScalar>(
        &self,
        gpu: &mut Gpu,
        mut fetcher: TileFetcher,
        call: u64,
        t: usize,
        stores: &[OperandStore],
        end: bool,
    ) -> Result<PlanRun, RuntimeError> {
        let counts = self.extents.map(|e| tile_count(e, t));
        let range = |axis: Axis, at: [usize; 3]| {
            let start = at[axis] * t;
            let len = t.min(self.extents[axis] - start);
            TileRange { start, len }
        };
        let coords = |(row, col): (Axis, Axis), at: [usize; 3]| (at[row], at[col]);
        let tag = |op: &PlanOperand, at, get, set| OpTag {
            operand: Some(op.role),
            get,
            set,
            ..OpTag::new(self.routine, call, coords(op.tile, at))
        };
        let fetch = |gpu: &mut Gpu, fetcher: &mut TileFetcher, o: usize, at, get| {
            let op = &self.operands[o];
            gpu.set_op_tag(tag(op, at, get, false));
            let rows_cols = (range(op.tile.0, at), range(op.tile.1, at));
            fetcher.tile::<T>(gpu, stores[o], rows_cols, get)
        };
        // Dot's partials: one slot per chunk, drained whole at the end.
        let slots = counts[0].max(1);
        let partials = match self.routine {
            Routine::Dot => {
                let buf = gpu.alloc_device(T::DTYPE, slots)?;
                let host = gpu.register_host(T::into_payload(vec![T::ZERO; slots]), true);
                Some((OperandStore::Host { host, rows: slots }, buf))
            }
            _ => None,
        };
        let mut tiles: [Option<TileRef>; 3] = [None; 3];
        for i in 0..counts[0] {
            for j in 0..counts[1] {
                let group = [i, j, 0];
                for (o, op) in self.operands.iter().enumerate() {
                    if op.access == Access::Accumulate {
                        tiles[o] = Some(fetch(gpu, &mut fetcher, o, group, self.beta != 0.0)?);
                    }
                }
                for p in 0..counts[2] {
                    let at = [i, j, p];
                    for (o, op) in self.operands.iter().enumerate() {
                        if op.access != Access::Accumulate {
                            tiles[o] = Some(fetch(gpu, &mut fetcher, o, at, true)?);
                        }
                    }
                    // The accumulator is listed last, so its wait follows
                    // the reads'.
                    for (op, tile) in self.operands.iter().zip(tiles) {
                        let waits = p == 0 || op.access != Access::Accumulate;
                        if let Some(ev) = tile.and_then(|t| t.ready).filter(|_| waits) {
                            gpu.wait_event(fetcher.streams.exec, ev)?;
                        }
                    }
                    let kernel = OpTag::new(self.routine, call, coords(self.kernel_tile, at));
                    gpu.set_op_tag(kernel);
                    let ranges = [I, J, P].map(|a| range(a, at));
                    let out = partials.map(|(_, buf)| DevVecRef { buf, offset: i });
                    let (shape, args) = self.step::<T>(p == 0, ranges, &tiles, out);
                    fetcher.launch(gpu, shape, args)?;
                }
                for (o, op) in self.operands.iter().enumerate() {
                    if op.access != Access::Read {
                        let tile = tiles[o].expect("a drained tile was fetched in its group");
                        let tag = tag(op, group, false, true);
                        let rows_cols = (range(op.tile.0, group), range(op.tile.1, group));
                        fetcher.write_back(gpu, tag, stores[o], tile, rows_cols)?;
                    }
                }
            }
        }
        let output = match partials {
            Some((store, buf)) => {
                let whole = (span(slots), span(1));
                let mat = view(buf, region(slots, whole.0, whole.1));
                let tag = tag(&PARTIALS, [0; 3], false, true);
                fetcher.write_back(gpu, tag, store, TileRef { mat, ready: None }, whole)?;
                store
            }
            None => {
                let mut ops = self.operands.iter();
                let drained = ops.position(|op| op.access != Access::Read);
                stores[drained.expect("a plan without partials drains an operand")]
            }
        };
        gpu.clear_op_tag();
        let end = if end { Some(fetcher.end(gpu)?) } else { None };
        let mut staged = [None; 3];
        let others = stores.iter().filter_map(|s| s.host_id());
        for (slot, h) in staged
            .iter_mut()
            .zip(others.filter(|&h| Some(h) != output.host_id()))
        {
            *slot = Some(h);
        }
        Ok(PlanRun {
            fetcher,
            partials: partials.map(|(_, buf)| buf),
            output: output.host_id(),
            staged,
            end,
        })
    }
}

/// A plan whose schedule is enqueued, with what finishing it waits for
/// and releases.
#[derive(Debug)]
pub(crate) struct PlanRun {
    fetcher: TileFetcher,
    /// Dot's partials buffer.
    partials: Option<DevBufId>,
    /// The host buffer the output drains to, when staged on the host.
    output: Option<HostBufId>,
    /// The other host buffers the stores staged.
    staged: [Option<HostBufId>; 3],
    /// The event behind the whole schedule, when issued with one.
    end: Option<EventId>,
}

impl PlanRun {
    /// The event behind the whole schedule, when issued with one.
    pub(crate) fn end(&self) -> Option<EventId> {
        self.end
    }

    /// Waits for the schedule (for its end event when it has one, else for
    /// the whole device), frees the tile buffers, and releases every host
    /// buffer the stores staged. Returns the output's payload when it was
    /// staged on the host in functional mode.
    pub(crate) fn finish(self, gpu: &mut Gpu) -> Result<(Option<Payload>, RunStats), RuntimeError> {
        let stats = self.fetcher.finish(gpu, self.end)?;
        if let Some(buf) = self.partials {
            gpu.free_device(buf)?;
        }
        // The output's buffer goes first; its payload is the result.
        let data = self.output.map(|h| gpu.take_host(h)).transpose()?;
        for h in self.staged.into_iter().flatten() {
            gpu.take_host(h)?;
        }
        Ok((data.map(|b| b.payload).filter(|p| p.is_functional()), stats))
    }
}

impl TilePlan {
    /// The shape and arguments of one step's kernel over the tile ranges
    /// of `I`, `J` and `P`; `first` marks step 0 of a group.
    fn step<T: SimScalar>(
        &self,
        first: bool,
        [ri, rj, rp]: [TileRange; 3],
        tiles: &[Option<TileRef>; 3],
        out: Option<DevVecRef>,
    ) -> (KernelShape, KernelArgs) {
        let (dtype, alpha) = (T::DTYPE, self.alpha);
        let beta = if first { self.beta } else { 1.0 };
        let mat = |o: usize| tiles[o].expect("a step's operands are fetched").mat;
        let vec = |o: usize| DevVecRef {
            buf: mat(o).buf,
            offset: mat(o).offset,
        };
        match self.routine {
            Routine::Gemm => {
                let (m, n, k) = (ri.len, rj.len, rp.len);
                let (a, b, c) = (mat(0), mat(1), mat(2));
                let args = KernelArgs::Gemm {
                    alpha,
                    beta,
                    a,
                    b,
                    c,
                };
                (KernelShape::Gemm { dtype, m, n, k }, args)
            }
            Routine::Gemv => {
                let (m, n) = (ri.len, rp.len);
                let (a, x, y) = (mat(0), vec(1), vec(2));
                let args = KernelArgs::Gemv {
                    alpha,
                    beta,
                    a,
                    x,
                    y,
                };
                (KernelShape::Gemv { dtype, m, n }, args)
            }
            Routine::Axpy => {
                let (n, x, y) = (ri.len, vec(0), vec(1));
                (
                    KernelShape::Axpy { dtype, n },
                    KernelArgs::Axpy { alpha, x, y },
                )
            }
            Routine::Dot => {
                let (n, x, y) = (ri.len, vec(0), vec(1));
                let out = out.expect("a dot plan drains into partials");
                (KernelShape::Dot { dtype, n }, KernelArgs::Dot { x, y, out })
            }
        }
    }
}
