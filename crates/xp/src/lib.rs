//! # cocopelia-xp
//!
//! The experiment harness for the CoCoPeLia reproduction: the paper's §V-B
//! validation and §V-E evaluation problem sets ([`sets`]), library/model
//! runners on fresh simulated devices ([`runner`]), error statistics and
//! violin summaries ([`stats`]), plain-text table/figure rendering
//! ([`table`]), the text of every paper figure and table bench
//! ([`figures`], pinned under `tests/golden/paper/`), the deterministic
//! standard sweep pinned by the committed `BENCH_seed.json`
//! ([`snapshot`]), and the request-serving sweep and
//! trace format behind `cocopelia serve` ([`serve`]), whose one runner,
//! [`run_serve`], takes the runtime's serving options as they are.
//!
//! Every bench target in `cocopelia-bench` is a thin composition of this
//! crate's pieces; the cross-crate integration tests in the repository's
//! `tests/` directory are attached here.

#![deny(missing_docs)]

pub mod chaos;
pub mod figures;
pub mod runner;
pub mod serve;
pub mod sets;
pub mod snapshot;
pub mod stats;
pub mod table;

pub use chaos::{chaos_fault_spec, chaos_request_trace};
pub use runner::{AxpyLib, GemmLib, Lab, RunOut};
pub use serve::{
    deadline_request_trace, parse_request_trace, run_serve, skewed_request_trace,
    standard_request_trace, straggler_fault_plans, straggler_request_trace, ArrivalKind,
    ArrivalSpec, ServeComparison,
};
pub use sets::{AxpyProblem, GemmProblem, Scale};
pub use snapshot::{collect_snapshot, standard_sweep, SweepPoint, SNAPSHOT_SEED};
pub use stats::{geomean_improvement_pct, rel_err_pct, ViolinSummary};
pub use table::{bar_chart, TextTable};
