//! # cocopelia-core
//!
//! The primary contribution of the CoCoPeLia paper (ISPASS 2021): analytical
//! 3-way-concurrency offload-time models for GPU BLAS, and the runtime
//! tiling-size selection built on them.
//!
//! * [`params`] — the notation of the paper's Table I ([`ProblemSpec`],
//!   operands, `get`/`set` flags).
//! * [`transfer`] — the latency/bandwidth transfer sub-models with
//!   bidirectional slowdown factors (§IV-A).
//! * [`exec_table`] — empirical per-tile kernel-time lookup tables.
//! * [`models`] — Eq. 1 (Baseline), Eq. 2 (DataLoc), Eq. 3–4 (BTS), Eq. 5
//!   (DataReuse), and the CSO comparator of Werkhoven et al.
//! * [`select`] — `CoCoPeLia_select`: minimise predicted offload time over
//!   the candidate tiling-size grid.
//! * [`profile`] — the serialisable deployment artifact consumed at runtime.
//!
//! This crate is pure modelling: it knows nothing about CUDA or the
//! simulator. Instantiation (micro-benchmarks, fitting) lives in
//! `cocopelia-deploy`; scheduling lives in `cocopelia-runtime`.
//!
//! ```
//! use cocopelia_core::exec_table::ExecTable;
//! use cocopelia_core::models::{ModelCtx, ModelKind};
//! use cocopelia_core::params::{Loc, ProblemSpec};
//! use cocopelia_core::select::TileSelector;
//! use cocopelia_core::transfer::{LatBw, TransferModel};
//! use cocopelia_hostblas::Dtype;
//!
//! # fn main() -> Result<(), cocopelia_core::models::ModelError> {
//! let problem = ProblemSpec::gemm(Dtype::F64, 8192, 8192, 8192,
//!     Loc::Host, Loc::Host, Loc::Host, true);
//! let transfer = TransferModel {
//!     h2d: LatBw { t_l: 2.5e-6, t_b: 1.0 / 12.18e9 },
//!     d2h: LatBw { t_l: 2.5e-6, t_b: 1.0 / 12.98e9 },
//!     sl_h2d: 1.27,
//!     sl_d2h: 1.41,
//! };
//! let exec = ExecTable::new(vec![(512, 4e-4), (1024, 2.9e-3), (2048, 2.2e-2)]);
//! let ctx = ModelCtx { problem: &problem, transfer: &transfer, exec: &exec,
//!     full_kernel_time: None };
//! let best = TileSelector.select(ModelKind::DataReuse, &ctx)?;
//! println!("T_best = {} (predicted {:.3}s)", best.tile, best.prediction.total);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod exec_table;
pub mod models;
pub mod params;
pub mod profile;
pub mod select;
pub mod transfer;

pub use exec_table::ExecTable;
pub use models::{predict, ModelCtx, ModelError, ModelKind, Prediction};
pub use params::{BlasLevel, Loc, Operand, ProblemSpec, RoutineClass};
pub use profile::SystemProfile;
pub use select::{Selection, TileSelector};
pub use transfer::{LatBw, TransferModel};
