//! Typed routine-request builders: the single entry-point vocabulary shared
//! by direct calls ([`Cocopelia::submit`](crate::Cocopelia::submit)) and the
//! serving session ([`serve::ServeSession`](crate::serve::ServeSession)).
//!
//! A request names its operands either *inline* (a concrete
//! [`MatOperand`]/[`VecOperand`] owned by the request) or *shared* (a
//! string key naming an operand that the serving layer keeps device-resident
//! across requests). Shared operands are only meaningful under an executor;
//! submitting one directly yields
//! [`RuntimeError::SharedOperand`](crate::RuntimeError::SharedOperand).

use crate::ctx::{Cocopelia, DotResult, GemmResult, VecResult};
use crate::error::RuntimeError;
use crate::operand::{DeviceMatrix, DeviceVector, MatOperand, TileChoice, VecOperand};
use cocopelia_core::params::{ProblemSpec, RoutineClass};
use cocopelia_gpusim::{DevBufId, HostBufId, OperandRole, SimScalar};
use cocopelia_hostblas::{Dtype, Matrix};

/// A named matrix operand kept device-resident by the serving layer and
/// shared across requests (the BLASX-style residency cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMat {
    pub(crate) key: String,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl SharedMat {
    /// Names a shared matrix of the given shape.
    pub fn new(key: impl Into<String>, rows: usize, cols: usize) -> Self {
        SharedMat {
            key: key.into(),
            rows,
            cols,
        }
    }

    /// The residency-cache key.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// A named vector operand kept device-resident by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedVec {
    pub(crate) key: String,
    pub(crate) len: usize,
}

impl SharedVec {
    /// Names a shared vector of the given length.
    pub fn new(key: impl Into<String>, len: usize) -> Self {
        SharedVec {
            key: key.into(),
            len,
        }
    }

    /// The residency-cache key.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// A matrix argument of a routine request: inline data or a shared key.
#[derive(Debug, Clone, PartialEq)]
pub enum MatArg<T> {
    /// A concrete operand owned by this request.
    Inline(MatOperand<T>),
    /// A reference into the executor's cross-request residency cache.
    Shared(SharedMat),
}

impl<T: SimScalar> MatArg<T> {
    /// A shared-residency argument of the given shape.
    pub fn shared(key: impl Into<String>, rows: usize, cols: usize) -> Self {
        MatArg::Shared(SharedMat::new(key, rows, cols))
    }

    /// Row count of the argument.
    pub fn rows(&self) -> usize {
        match self {
            MatArg::Inline(op) => op.rows(),
            MatArg::Shared(s) => s.rows,
        }
    }

    /// Column count of the argument.
    pub fn cols(&self) -> usize {
        match self {
            MatArg::Inline(op) => op.cols(),
            MatArg::Shared(s) => s.cols,
        }
    }

    /// Initial residence as the prediction models see it. Shared operands
    /// count as device-resident: the executor resolves them onto the
    /// device before the routine runs, and the dispatch price moves each
    /// one a device is missing back to the host.
    pub fn loc(&self) -> cocopelia_core::params::Loc {
        match self {
            MatArg::Inline(op) => op.loc(),
            MatArg::Shared(_) => cocopelia_core::params::Loc::Device,
        }
    }
}

impl<T> From<MatOperand<T>> for MatArg<T> {
    fn from(op: MatOperand<T>) -> Self {
        MatArg::Inline(op)
    }
}

impl<T> From<Matrix<T>> for MatArg<T> {
    fn from(m: Matrix<T>) -> Self {
        MatArg::Inline(MatOperand::Host(m))
    }
}

impl<T> From<DeviceMatrix> for MatArg<T> {
    fn from(d: DeviceMatrix) -> Self {
        MatArg::Inline(MatOperand::Device(d))
    }
}

impl<T> From<SharedMat> for MatArg<T> {
    fn from(s: SharedMat) -> Self {
        MatArg::Shared(s)
    }
}

/// A vector argument of a routine request: inline data or a shared key.
#[derive(Debug, Clone, PartialEq)]
pub enum VecArg<T> {
    /// A concrete operand owned by this request.
    Inline(VecOperand<T>),
    /// A reference into the executor's cross-request residency cache.
    Shared(SharedVec),
}

impl<T: SimScalar> VecArg<T> {
    /// A shared-residency argument of the given length.
    pub fn shared(key: impl Into<String>, len: usize) -> Self {
        VecArg::Shared(SharedVec::new(key, len))
    }

    /// Element count of the argument.
    pub fn len(&self) -> usize {
        match self {
            VecArg::Inline(op) => op.len(),
            VecArg::Shared(s) => s.len,
        }
    }

    /// True when the argument has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initial residence as the prediction models see it; see
    /// [`MatArg::loc`].
    pub fn loc(&self) -> cocopelia_core::params::Loc {
        match self {
            VecArg::Inline(op) => op.loc(),
            VecArg::Shared(_) => cocopelia_core::params::Loc::Device,
        }
    }
}

impl<T> From<VecOperand<T>> for VecArg<T> {
    fn from(op: VecOperand<T>) -> Self {
        VecArg::Inline(op)
    }
}

impl<T> From<Vec<T>> for VecArg<T> {
    fn from(v: Vec<T>) -> Self {
        VecArg::Inline(VecOperand::Host(v))
    }
}

impl<T> From<DeviceVector> for VecArg<T> {
    fn from(d: DeviceVector) -> Self {
        VecArg::Inline(VecOperand::Device(d))
    }
}

impl<T> From<SharedVec> for VecArg<T> {
    fn from(s: SharedVec) -> Self {
        VecArg::Shared(s)
    }
}

/// The shape of an operand. A 10×10 matrix and a 100-element vector hold
/// as many elements but are different shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// A `rows × cols` matrix.
    Mat(usize, usize),
    /// A vector of `len` elements.
    Vec(usize),
}

impl Shape {
    /// Element count.
    pub(crate) fn len(self) -> usize {
        match self {
            Shape::Mat(rows, cols) => rows * cols,
            Shape::Vec(len) => len,
        }
    }
}

/// A shared operand as the residency cache keys it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedRef<'a> {
    pub(crate) key: &'a str,
    pub(crate) dtype: Dtype,
    pub(crate) shape: Shape,
}

impl SharedRef<'_> {
    /// Device bytes of the operand.
    pub(crate) fn bytes(&self) -> usize {
        self.shape.len() * self.dtype.width()
    }
}

/// One argument of a routine request, matrix or vector alike: everything
/// the serving layer reads of an operand and the two ways it rewrites one.
pub(crate) trait Operand {
    /// Device bytes the argument occupies once scheduled. Inline
    /// device-resident operands contribute 0 (already charged).
    fn footprint_bytes(&self) -> usize;

    /// The shared key, dtype and shape, when the argument references the
    /// residency cache.
    fn shared(&self) -> Option<SharedRef<'_>>;

    /// Replaces a shared reference with an inline ghost of the same shape
    /// (the no-residency-reuse baseline).
    fn inline_ghost(&mut self);

    /// Makes the argument the device operand in `buf`, keeping its shape.
    /// With `fill`, the buffer still has to be filled from that host
    /// ghost: the routine's tile schedule copies each region on its first
    /// read, and the operand counts as host data until then.
    fn bind(&mut self, buf: DevBufId, fill: Option<HostBufId>);

    /// Coalescing identity of the argument: `Some` for shared keys and
    /// anonymous host ghosts (whose device work is fully shape-determined),
    /// `None` for concrete host data or device handles — those make the
    /// whole request non-coalescable.
    fn coalesce_token(&self) -> Option<String>;
}

impl<T: SimScalar> Operand for MatArg<T> {
    fn footprint_bytes(&self) -> usize {
        match self {
            MatArg::Inline(MatOperand::Device(_)) => 0,
            _ => self.rows() * self.cols() * T::DTYPE.width(),
        }
    }

    fn shared(&self) -> Option<SharedRef<'_>> {
        match self {
            MatArg::Inline(_) => None,
            MatArg::Shared(s) => Some(SharedRef {
                key: &s.key,
                dtype: T::DTYPE,
                shape: Shape::Mat(s.rows, s.cols),
            }),
        }
    }

    fn inline_ghost(&mut self) {
        if let MatArg::Shared(s) = self {
            let (rows, cols) = (s.rows, s.cols);
            *self = MatArg::Inline(MatOperand::HostGhost { rows, cols });
        }
    }

    fn bind(&mut self, buf: DevBufId, fill: Option<HostBufId>) {
        let (rows, cols) = (self.rows(), self.cols());
        *self = MatArg::Inline(MatOperand::Device(DeviceMatrix {
            buf,
            rows,
            cols,
            fill,
        }));
    }

    fn coalesce_token(&self) -> Option<String> {
        match self {
            MatArg::Shared(s) => Some(format!("s:{}:{}x{}", s.key, s.rows, s.cols)),
            MatArg::Inline(MatOperand::HostGhost { rows, cols }) => {
                Some(format!("g:{rows}x{cols}"))
            }
            MatArg::Inline(_) => None,
        }
    }
}

impl<T: SimScalar> Operand for VecArg<T> {
    fn footprint_bytes(&self) -> usize {
        match self {
            VecArg::Inline(VecOperand::Device(_)) => 0,
            _ => self.len() * T::DTYPE.width(),
        }
    }

    fn shared(&self) -> Option<SharedRef<'_>> {
        match self {
            VecArg::Inline(_) => None,
            VecArg::Shared(s) => Some(SharedRef {
                key: &s.key,
                dtype: T::DTYPE,
                shape: Shape::Vec(s.len),
            }),
        }
    }

    fn inline_ghost(&mut self) {
        if let VecArg::Shared(s) = self {
            let len = s.len;
            *self = VecArg::Inline(VecOperand::HostGhost { len });
        }
    }

    fn bind(&mut self, buf: DevBufId, fill: Option<HostBufId>) {
        let len = self.len();
        *self = VecArg::Inline(VecOperand::Device(DeviceVector { buf, len, fill }));
    }

    fn coalesce_token(&self) -> Option<String> {
        match self {
            VecArg::Shared(s) => Some(format!("s:{}:{}", s.key, s.len)),
            VecArg::Inline(VecOperand::HostGhost { len }) => Some(format!("g:{len}")),
            VecArg::Inline(_) => None,
        }
    }
}

/// Canonical BLAS name of `routine` at `T`'s precision.
fn blas_name<T: SimScalar>(routine: RoutineClass) -> &'static str {
    match (routine, T::DTYPE) {
        (RoutineClass::Gemm, Dtype::F64) => "dgemm",
        (RoutineClass::Gemm, Dtype::F32) => "sgemm",
        (RoutineClass::Gemv, Dtype::F64) => "dgemv",
        (RoutineClass::Gemv, Dtype::F32) => "sgemv",
        (RoutineClass::Axpy, Dtype::F64) => "daxpy",
        (RoutineClass::Axpy, Dtype::F32) => "saxpy",
        (RoutineClass::Dot, Dtype::F64) => "ddot",
        (RoutineClass::Dot, Dtype::F32) => "sdot",
    }
}

/// Builder for `C ← α·A·B + β·C`.
///
/// # Example
///
/// ```no_run
/// # use cocopelia_runtime::{GemmRequest, MatOperand, TileChoice};
/// # fn demo(mut ctx: cocopelia_runtime::Cocopelia) {
/// let a = MatOperand::<f64>::HostGhost { rows: 4096, cols: 4096 };
/// let b = MatOperand::<f64>::HostGhost { rows: 4096, cols: 4096 };
/// let c = MatOperand::<f64>::HostGhost { rows: 4096, cols: 4096 };
/// let out = GemmRequest::new(a, b, c)
///     .alpha(1.0)
///     .beta(0.5)
///     .tile(TileChoice::Auto)
///     .run(&mut ctx);
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRequest<T> {
    pub(crate) a: MatArg<T>,
    pub(crate) b: MatArg<T>,
    pub(crate) c: MatArg<T>,
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    pub(crate) tile: TileChoice,
    pub(crate) deadline: Option<f64>,
}

impl<T: SimScalar> GemmRequest<T> {
    /// A gemm request with `alpha = 1`, `beta = 0`, automatic tiling, and
    /// no deadline.
    pub fn new(a: impl Into<MatArg<T>>, b: impl Into<MatArg<T>>, c: impl Into<MatArg<T>>) -> Self {
        GemmRequest {
            a: a.into(),
            b: b.into(),
            c: c.into(),
            alpha: 1.0,
            beta: 0.0,
            tile: TileChoice::Auto,
            deadline: None,
        }
    }

    /// Sets the `α` scalar.
    pub fn alpha(mut self, v: f64) -> Self {
        self.alpha = v;
        self
    }

    /// Sets the `β` scalar.
    pub fn beta(mut self, v: f64) -> Self {
        self.beta = v;
        self
    }

    /// Sets the tiling-size policy.
    pub fn tile(mut self, choice: TileChoice) -> Self {
        self.tile = choice;
        self
    }

    /// Gives the request a virtual-time budget on its *flow time*: the
    /// executor compares it against the serving device's virtual clock at
    /// completion, measured from the start of the run, so time spent
    /// queued behind other requests counts. Ignored on direct
    /// [`run`](Self::run).
    pub fn deadline_secs(mut self, secs: f64) -> Self {
        self.deadline = Some(secs);
        self
    }

    /// Executes the request on a library handle.
    ///
    /// # Errors
    ///
    /// As for the routine itself, plus
    /// [`RuntimeError::SharedOperand`](crate::RuntimeError::SharedOperand)
    /// when an argument references a residency cache (executor-only).
    pub fn run(self, ctx: &mut Cocopelia) -> Result<GemmResult<T>, RuntimeError> {
        ctx.run_gemm(self)
    }

    /// Canonical BLAS name of the request ("dgemm", "sgemm").
    pub(crate) fn routine(&self) -> &'static str {
        blas_name::<T>(RoutineClass::Gemm)
    }

    /// The request as the prediction models see it; see
    /// [`RoutineRequest::problem_spec`].
    pub(crate) fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec::gemm(
            T::DTYPE,
            self.a.rows(),
            self.b.cols(),
            self.a.cols(),
            self.a.loc(),
            self.b.loc(),
            self.c.loc(),
            self.beta != 0.0,
        )
    }
}

/// Builder for `y ← α·x + y`.
#[derive(Debug, Clone, PartialEq)]
pub struct AxpyRequest<T> {
    pub(crate) alpha: f64,
    pub(crate) x: VecArg<T>,
    pub(crate) y: VecArg<T>,
    pub(crate) tile: TileChoice,
    pub(crate) deadline: Option<f64>,
}

impl<T: SimScalar> AxpyRequest<T> {
    /// An axpy request with `alpha = 1`, automatic tiling, no deadline.
    pub fn new(x: impl Into<VecArg<T>>, y: impl Into<VecArg<T>>) -> Self {
        AxpyRequest {
            alpha: 1.0,
            x: x.into(),
            y: y.into(),
            tile: TileChoice::Auto,
            deadline: None,
        }
    }

    /// Sets the `α` scalar.
    pub fn alpha(mut self, v: f64) -> Self {
        self.alpha = v;
        self
    }

    /// Sets the tiling-size policy.
    pub fn tile(mut self, choice: TileChoice) -> Self {
        self.tile = choice;
        self
    }

    /// Gives the request a virtual-time budget on its *flow time*: the
    /// executor compares it against the serving device's virtual clock at
    /// completion, measured from the start of the run, so time spent
    /// queued behind other requests counts. Ignored on direct
    /// [`run`](Self::run).
    pub fn deadline_secs(mut self, secs: f64) -> Self {
        self.deadline = Some(secs);
        self
    }

    /// Executes the request on a library handle.
    ///
    /// # Errors
    ///
    /// As for [`GemmRequest::run`].
    pub fn run(self, ctx: &mut Cocopelia) -> Result<VecResult<T>, RuntimeError> {
        ctx.run_axpy(self)
    }

    /// Canonical BLAS name of the request ("daxpy", "saxpy").
    pub(crate) fn routine(&self) -> &'static str {
        blas_name::<T>(RoutineClass::Axpy)
    }

    /// The request as the prediction models see it.
    pub(crate) fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec::axpy(T::DTYPE, self.x.len(), self.x.loc(), self.y.loc())
    }
}

/// Builder for the tiled reduction `result ← xᵀy`.
#[derive(Debug, Clone, PartialEq)]
pub struct DotRequest<T> {
    pub(crate) x: VecArg<T>,
    pub(crate) y: VecArg<T>,
    pub(crate) tile: TileChoice,
    pub(crate) deadline: Option<f64>,
}

impl<T: SimScalar> DotRequest<T> {
    /// A dot request with automatic tiling and no deadline.
    pub fn new(x: impl Into<VecArg<T>>, y: impl Into<VecArg<T>>) -> Self {
        DotRequest {
            x: x.into(),
            y: y.into(),
            tile: TileChoice::Auto,
            deadline: None,
        }
    }

    /// Sets the tiling-size policy.
    pub fn tile(mut self, choice: TileChoice) -> Self {
        self.tile = choice;
        self
    }

    /// Gives the request a virtual-time budget on its *flow time*: the
    /// executor compares it against the serving device's virtual clock at
    /// completion, measured from the start of the run, so time spent
    /// queued behind other requests counts. Ignored on direct
    /// [`run`](Self::run).
    pub fn deadline_secs(mut self, secs: f64) -> Self {
        self.deadline = Some(secs);
        self
    }

    /// Executes the request on a library handle.
    ///
    /// # Errors
    ///
    /// As for [`GemmRequest::run`].
    pub fn run(self, ctx: &mut Cocopelia) -> Result<DotResult, RuntimeError> {
        ctx.run_dot(self)
    }

    /// Canonical BLAS name of the request ("ddot", "sdot").
    pub(crate) fn routine(&self) -> &'static str {
        blas_name::<T>(RoutineClass::Dot)
    }

    /// The request as the prediction models see it.
    pub(crate) fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec::dot(T::DTYPE, self.x.len(), self.x.loc(), self.y.loc())
    }
}

/// Builder for `y ← α·A·x + β·y`.
#[derive(Debug, Clone, PartialEq)]
pub struct GemvRequest<T> {
    pub(crate) alpha: f64,
    pub(crate) a: MatArg<T>,
    pub(crate) x: VecArg<T>,
    pub(crate) beta: f64,
    pub(crate) y: VecArg<T>,
    pub(crate) tile: TileChoice,
    pub(crate) deadline: Option<f64>,
}

impl<T: SimScalar> GemvRequest<T> {
    /// A gemv request with `alpha = 1`, `beta = 0`, automatic tiling, and
    /// no deadline.
    pub fn new(a: impl Into<MatArg<T>>, x: impl Into<VecArg<T>>, y: impl Into<VecArg<T>>) -> Self {
        GemvRequest {
            alpha: 1.0,
            a: a.into(),
            x: x.into(),
            beta: 0.0,
            y: y.into(),
            tile: TileChoice::Auto,
            deadline: None,
        }
    }

    /// Sets the `α` scalar.
    pub fn alpha(mut self, v: f64) -> Self {
        self.alpha = v;
        self
    }

    /// Sets the `β` scalar.
    pub fn beta(mut self, v: f64) -> Self {
        self.beta = v;
        self
    }

    /// Sets the tiling-size policy.
    pub fn tile(mut self, choice: TileChoice) -> Self {
        self.tile = choice;
        self
    }

    /// Gives the request a virtual-time budget on its *flow time*: the
    /// executor compares it against the serving device's virtual clock at
    /// completion, measured from the start of the run, so time spent
    /// queued behind other requests counts. Ignored on direct
    /// [`run`](Self::run).
    pub fn deadline_secs(mut self, secs: f64) -> Self {
        self.deadline = Some(secs);
        self
    }

    /// Executes the request on a library handle.
    ///
    /// # Errors
    ///
    /// As for [`GemmRequest::run`].
    pub fn run(self, ctx: &mut Cocopelia) -> Result<VecResult<T>, RuntimeError> {
        ctx.run_gemv(self)
    }

    /// Canonical BLAS name of the request ("dgemv", "sgemv").
    pub(crate) fn routine(&self) -> &'static str {
        blas_name::<T>(RoutineClass::Gemv)
    }

    /// The request as the prediction models see it.
    pub(crate) fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec::gemv(
            T::DTYPE,
            self.a.rows(),
            self.a.cols(),
            self.a.loc(),
            self.x.loc(),
            self.y.loc(),
            self.beta != 0.0,
        )
    }
}

/// A type-erased routine request, the unit the serving layer queues.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RoutineRequest {
    /// Double-precision gemm.
    GemmF64(GemmRequest<f64>),
    /// Single-precision gemm.
    GemmF32(GemmRequest<f32>),
    /// Double-precision axpy.
    AxpyF64(AxpyRequest<f64>),
    /// Double-precision dot.
    DotF64(DotRequest<f64>),
    /// Double-precision gemv.
    GemvF64(GemvRequest<f64>),
}

impl RoutineRequest {
    /// Canonical BLAS name of the routine ("dgemm", "sgemm", …).
    pub fn routine(&self) -> &'static str {
        match self {
            RoutineRequest::GemmF64(r) => r.routine(),
            RoutineRequest::GemmF32(r) => r.routine(),
            RoutineRequest::AxpyF64(r) => r.routine(),
            RoutineRequest::DotF64(r) => r.routine(),
            RoutineRequest::GemvF64(r) => r.routine(),
        }
    }

    /// The request's arguments in operand order (a, b, c or a, x, y); a
    /// two-operand routine leaves the last slot empty.
    pub(crate) fn operands(&self) -> [Option<&dyn Operand>; 3] {
        match self {
            RoutineRequest::GemmF64(r) => [Some(&r.a), Some(&r.b), Some(&r.c)],
            RoutineRequest::GemmF32(r) => [Some(&r.a), Some(&r.b), Some(&r.c)],
            RoutineRequest::AxpyF64(r) => [Some(&r.x), Some(&r.y), None],
            RoutineRequest::DotF64(r) => [Some(&r.x), Some(&r.y), None],
            RoutineRequest::GemvF64(r) => [Some(&r.a), Some(&r.x), Some(&r.y)],
        }
    }

    /// The role each of [`operands`](Self::operands) plays in the tile
    /// schedule's op tags.
    pub(crate) fn roles(&self) -> [Option<OperandRole>; 3] {
        use OperandRole::{A, B, C, X, Y};
        match self {
            RoutineRequest::GemmF64(_) | RoutineRequest::GemmF32(_) => [Some(A), Some(B), Some(C)],
            RoutineRequest::AxpyF64(_) | RoutineRequest::DotF64(_) => [Some(X), Some(Y), None],
            RoutineRequest::GemvF64(_) => [Some(A), Some(X), Some(Y)],
        }
    }

    /// [`operands`](Self::operands), for rewriting in place.
    pub(crate) fn operands_mut(&mut self) -> [Option<&mut dyn Operand>; 3] {
        match self {
            RoutineRequest::GemmF64(r) => [Some(&mut r.a), Some(&mut r.b), Some(&mut r.c)],
            RoutineRequest::GemmF32(r) => [Some(&mut r.a), Some(&mut r.b), Some(&mut r.c)],
            RoutineRequest::AxpyF64(r) => [Some(&mut r.x), Some(&mut r.y), None],
            RoutineRequest::DotF64(r) => [Some(&mut r.x), Some(&mut r.y), None],
            RoutineRequest::GemvF64(r) => [Some(&mut r.a), Some(&mut r.x), Some(&mut r.y)],
        }
    }

    /// The shared arguments, in operand order.
    pub(crate) fn shared_operands(&self) -> impl Iterator<Item = SharedRef<'_>> {
        self.operands()
            .into_iter()
            .flatten()
            .filter_map(Operand::shared)
    }

    /// Worst-case device bytes the request needs resident at once (every
    /// non-device operand uploaded in full, per §IV-C full tile reuse).
    /// Admission control compares this against device capacity.
    pub fn footprint_bytes(&self) -> usize {
        self.operands()
            .into_iter()
            .flatten()
            .map(Operand::footprint_bytes)
            .sum()
    }

    /// The request's virtual-time budget, if any.
    pub fn deadline(&self) -> Option<f64> {
        match self {
            RoutineRequest::GemmF64(r) => r.deadline,
            RoutineRequest::GemmF32(r) => r.deadline,
            RoutineRequest::AxpyF64(r) => r.deadline,
            RoutineRequest::DotF64(r) => r.deadline,
            RoutineRequest::GemvF64(r) => r.deadline,
        }
    }

    /// Residency-cache keys the request references, in operand order.
    pub fn shared_keys(&self) -> Vec<&str> {
        self.shared_operands().map(|s| s.key).collect()
    }

    /// The request's tiling-size policy.
    pub fn tile_choice(&self) -> TileChoice {
        match self {
            RoutineRequest::GemmF64(r) => r.tile,
            RoutineRequest::GemmF32(r) => r.tile,
            RoutineRequest::AxpyF64(r) => r.tile,
            RoutineRequest::DotF64(r) => r.tile,
            RoutineRequest::GemvF64(r) => r.tile,
        }
    }

    /// The request as the prediction models see it — the bridge between
    /// the serving layer and `core::models::predict`. Shared operands
    /// count as device-resident ([`MatArg::loc`]); the dispatch price
    /// relocates the ones a device is missing to the host, where the
    /// routine's tile schedule fetches them.
    pub fn problem_spec(&self) -> ProblemSpec {
        match self {
            RoutineRequest::GemmF64(r) => r.problem_spec(),
            RoutineRequest::GemmF32(r) => r.problem_spec(),
            RoutineRequest::AxpyF64(r) => r.problem_spec(),
            RoutineRequest::DotF64(r) => r.problem_spec(),
            RoutineRequest::GemvF64(r) => r.problem_spec(),
        }
    }

    /// Coalescing identity of the request, when it is coalescable:
    /// routine, tiling policy, scalars, and the per-position operand
    /// identity (shared key + shape, or anonymous ghost shape). Two
    /// requests with equal keys perform identical device work on
    /// identical operands, so the executor may run one and fan its report
    /// out to the others.
    ///
    /// `None` — never coalesced — when the request shares no operand (a
    /// fully private request gains nothing from dedup) or names concrete
    /// host data / device handles (whose contents make it unique). The
    /// deadline is deliberately excluded: followers are judged against
    /// their own budgets at fan-out.
    pub fn coalesce_key(&self) -> Option<String> {
        self.shared_operands().next()?;
        let scalars = match self {
            RoutineRequest::GemmF64(r) => format!("alpha={};beta={}", r.alpha, r.beta),
            RoutineRequest::GemmF32(r) => format!("alpha={};beta={}", r.alpha, r.beta),
            RoutineRequest::AxpyF64(r) => format!("alpha={}", r.alpha),
            RoutineRequest::DotF64(_) => String::new(),
            RoutineRequest::GemvF64(r) => format!("alpha={};beta={}", r.alpha, r.beta),
        };
        let tokens: Option<Vec<String>> = self
            .operands()
            .into_iter()
            .flatten()
            .map(Operand::coalesce_token)
            .collect();
        Some(format!(
            "{}|{:?}|{}|{}",
            self.routine(),
            self.tile_choice(),
            scalars,
            tokens?.join("|")
        ))
    }

    /// Rewrites every shared operand to an inline ghost of the same shape —
    /// the "no residency reuse" baseline the throughput acceptance test
    /// submits sequentially.
    pub fn without_sharing(mut self) -> Self {
        for arg in self.operands_mut().into_iter().flatten() {
            arg.inline_ghost();
        }
        self
    }
}

impl From<GemmRequest<f64>> for RoutineRequest {
    fn from(r: GemmRequest<f64>) -> Self {
        RoutineRequest::GemmF64(r)
    }
}

impl From<GemmRequest<f32>> for RoutineRequest {
    fn from(r: GemmRequest<f32>) -> Self {
        RoutineRequest::GemmF32(r)
    }
}

impl From<AxpyRequest<f64>> for RoutineRequest {
    fn from(r: AxpyRequest<f64>) -> Self {
        RoutineRequest::AxpyF64(r)
    }
}

impl From<DotRequest<f64>> for RoutineRequest {
    fn from(r: DotRequest<f64>) -> Self {
        RoutineRequest::DotF64(r)
    }
}

impl From<GemvRequest<f64>> for RoutineRequest {
    fn from(r: GemvRequest<f64>) -> Self {
        RoutineRequest::GemvF64(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let r = GemmRequest::<f64>::new(
            MatOperand::HostGhost { rows: 8, cols: 4 },
            MatOperand::HostGhost { rows: 4, cols: 6 },
            MatOperand::HostGhost { rows: 8, cols: 6 },
        );
        assert_eq!(r.alpha, 1.0);
        assert_eq!(r.beta, 0.0);
        assert_eq!(r.tile, TileChoice::Auto);
        assert_eq!(r.deadline, None);
        let r = r
            .alpha(2.0)
            .beta(0.5)
            .tile(TileChoice::Fixed(2))
            .deadline_secs(0.1);
        assert_eq!((r.alpha, r.beta), (2.0, 0.5));
        assert_eq!(r.tile, TileChoice::Fixed(2));
        assert_eq!(r.deadline, Some(0.1));
    }

    #[test]
    fn footprint_counts_non_device_operands() {
        let mut gpu = cocopelia_gpusim::Gpu::new(
            cocopelia_gpusim::testbed_i(),
            cocopelia_gpusim::ExecMode::TimingOnly,
            0,
        );
        let buf = gpu
            .alloc_device(cocopelia_hostblas::Dtype::F64, 100)
            .expect("alloc");
        let req: RoutineRequest = GemmRequest::<f64>::new(
            MatArg::shared("A", 10, 10),
            MatOperand::HostGhost { rows: 10, cols: 10 },
            MatOperand::Device(DeviceMatrix::from_raw(buf, 10, 10)),
        )
        .into();
        // A (shared) + B (host ghost) count; device-resident C does not.
        assert_eq!(req.footprint_bytes(), 2 * 10 * 10 * 8);
        assert_eq!(req.routine(), "dgemm");
        assert_eq!(req.shared_keys(), vec!["A"]);
    }

    #[test]
    fn without_sharing_inlines_ghosts() {
        let req: RoutineRequest = AxpyRequest::<f64>::new(VecArg::shared("x", 100), vec![0.0; 100])
            .alpha(3.0)
            .into();
        assert_eq!(req.shared_keys(), vec!["x"]);
        let plain = req.clone().without_sharing();
        assert!(plain.shared_keys().is_empty());
        assert_eq!(plain.footprint_bytes(), req.footprint_bytes());
        match plain {
            RoutineRequest::AxpyF64(r) => {
                assert_eq!(r.alpha, 3.0);
                assert_eq!(r.x, VecArg::Inline(VecOperand::HostGhost { len: 100 }));
            }
            other => panic!("unexpected variant: {other:?}"),
        }
    }

    #[test]
    fn problem_spec_mirrors_request_shape_and_residence() {
        use cocopelia_core::params::{Loc, RoutineClass};
        let req: RoutineRequest = GemmRequest::<f64>::new(
            MatArg::shared("A", 128, 64),
            MatOperand::HostGhost { rows: 64, cols: 32 },
            MatOperand::HostGhost {
                rows: 128,
                cols: 32,
            },
        )
        .beta(1.0)
        .tile(TileChoice::Fixed(32))
        .into();
        let p = req.problem_spec();
        assert_eq!(p.routine, RoutineClass::Gemm);
        assert_eq!(p.dims(), vec![128, 32, 64]);
        assert_eq!(p.flops(), 2.0 * 128.0 * 32.0 * 64.0);
        // Shared A reads as device-resident; inline host ghosts as host.
        assert_eq!(p.operands[0].loc, Loc::Device);
        assert_eq!(p.operands[1].loc, Loc::Host);
        assert_eq!(req.tile_choice(), TileChoice::Fixed(32));

        let req: RoutineRequest =
            AxpyRequest::<f64>::new(VecArg::shared("x", 100), vec![0.0; 100]).into();
        let p = req.problem_spec();
        assert_eq!(p.routine, RoutineClass::Axpy);
        assert_eq!(p.dims(), vec![100]);
        assert_eq!(p.operands[0].loc, Loc::Device);
        assert_eq!(req.tile_choice(), TileChoice::Auto);
    }

    #[test]
    fn coalesce_key_identifies_identical_shapes() {
        let gemm = |alpha: f64| -> RoutineRequest {
            GemmRequest::<f64>::new(
                MatArg::shared("A", 64, 64),
                MatArg::shared("B", 64, 64),
                MatOperand::HostGhost { rows: 64, cols: 64 },
            )
            .alpha(alpha)
            .beta(1.0)
            .into()
        };
        let k1 = gemm(1.0).coalesce_key().expect("coalescable");
        assert_eq!(gemm(1.0).coalesce_key().as_deref(), Some(k1.as_str()));
        assert_ne!(gemm(2.0).coalesce_key().expect("key"), k1, "scalars count");
        // A deadline does not change the identity; followers keep theirs.
        let with_dl: RoutineRequest = GemmRequest::<f64>::new(
            MatArg::shared("A", 64, 64),
            MatArg::shared("B", 64, 64),
            MatOperand::HostGhost { rows: 64, cols: 64 },
        )
        .alpha(1.0)
        .beta(1.0)
        .deadline_secs(0.5)
        .into();
        assert_eq!(with_dl.coalesce_key().expect("key"), k1);
        // Fully private requests and concrete host data never coalesce.
        let private: RoutineRequest = GemmRequest::<f64>::new(
            MatOperand::HostGhost { rows: 64, cols: 64 },
            MatOperand::HostGhost { rows: 64, cols: 64 },
            MatOperand::HostGhost { rows: 64, cols: 64 },
        )
        .into();
        assert!(private.coalesce_key().is_none());
        let concrete: RoutineRequest =
            AxpyRequest::<f64>::new(VecArg::shared("x", 8), vec![0.0; 8]).into();
        assert!(concrete.coalesce_key().is_none());
    }

    #[test]
    fn vector_and_matrix_conversions() {
        let _: VecArg<f64> = vec![1.0, 2.0].into();
        let _: VecArg<f64> = VecOperand::HostGhost { len: 3 }.into();
        let _: MatArg<f32> = Matrix::<f32>::zeros(2, 2).into();
        let m: MatArg<f64> = SharedMat::new("A", 3, 4).into();
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(
            m.shared().map(|s| (s.key, s.shape)),
            Some(("A", Shape::Mat(3, 4)))
        );
        let v: VecArg<f64> = SharedVec::new("x", 9).into();
        assert_eq!(v.len(), 9);
        assert!(!v.is_empty());
    }
}
