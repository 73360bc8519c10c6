//! # cocopelia-gpusim
//!
//! A deterministic discrete-event simulator of a GPU offload node: host
//! memory, a PCIe-like full-duplex link with asymmetric bidirectional
//! contention, per-direction DMA copy engines, a compute engine, CUDA-style
//! streams and events, and parametric BLAS kernel cost models.
//!
//! This crate is the hardware substitute for the CoCoPeLia reproduction (the
//! paper runs on real K40/V100 testbeds; this environment has no GPU — see
//! `DESIGN.md` at the repository root). It provides:
//!
//! * [`Gpu`] — the device facade with a CUDA-like asynchronous API.
//! * [`TestbedSpec`]/[`testbed_i`]/[`testbed_ii`] — the two paper testbeds.
//! * [`KernelShape`]/[`kernel_time`] — the ground-truth kernel cost models.
//! * [`Trace`] — per-engine execution traces with Gantt rendering.
//!
//! Two execution modes: [`ExecMode::Functional`] carries real data through
//! every copy and kernel (numerically checkable against
//! `cocopelia-hostblas`), [`ExecMode::TimingOnly`] only advances the virtual
//! clock.
//!
//! ## Example: overlapped offload
//!
//! ```
//! use cocopelia_gpusim::{testbed_i, CopyDesc, ExecMode, Gpu, KernelShape};
//! use cocopelia_hostblas::Dtype;
//!
//! # fn main() -> Result<(), cocopelia_gpusim::SimError> {
//! let mut gpu = Gpu::new(testbed_i(), ExecMode::TimingOnly, 7);
//! let h2d = gpu.create_stream();
//! let exec = gpu.create_stream();
//!
//! let host = gpu.register_host_ghost(Dtype::F64, 1 << 20, true);
//! let dev = gpu.alloc_device(Dtype::F64, 1 << 20)?;
//!
//! // Transfer on one stream while an (unrelated) kernel computes on another.
//! gpu.memcpy_h2d_async(h2d, CopyDesc::contiguous(host, dev, 1 << 20))?;
//! gpu.launch_kernel(exec, KernelShape::Gemm { dtype: Dtype::F64, m: 1024, n: 1024, k: 1024 }, None)?;
//! gpu.synchronize()?;
//! // One entry per engine op; `cocopelia_obs::gantt` renders them.
//! assert_eq!(gpu.trace().len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod engine;
mod funcexec;
mod gpu;

pub mod error;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod op;
pub mod spec;
pub mod time;
pub mod trace;

pub use error::SimError;
pub use fault::{DegradeWindow, FaultSpec, FaultStats};
pub use gpu::{ExecMode, Gpu};
pub use kernel::{kernel_time, KernelShape};
pub use memory::{AllocMark, DevBufId, HostBufId, Payload, SimScalar};
pub use op::{CopyDesc, DevMatRef, DevVecRef, EventId, KernelArgs, Region2d, StreamId};
pub use spec::{
    synthetic_testbed, testbed_i, testbed_ii, DirLinkSpec, GpuSpec, LinkSpec, NoiseSpec,
    QuantProfile, TestbedSpec,
};
pub use time::SimTime;
pub use trace::{EngineKind, OpTag, OperandRole, Routine, Trace, TraceEntry};
