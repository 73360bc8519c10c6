//! # cocopelia-obs
//!
//! End-to-end observability for the CoCoPeLia pipeline: structured trace
//! inspection, a metrics registry, prediction-drift accounting, and trace
//! exporters — the instrumentation layer between the `cocopelia-gpusim`
//! simulator and the `cocopelia-runtime` library handle.
//!
//! * [`Observer`] — per-pipeline accumulator the runtime feeds after every
//!   routine call; renders text and JSON reports.
//! * [`OverlapStats`] — exact interval accounting of 3-way overlap; the
//!   overlap-efficiency metric `sum(busy)/union(busy)`.
//! * [`DriftAccountant`]/[`score_models`] — model-predicted offload time
//!   vs. simulated actual, per model (Eq. 1/2/3–4/5 and CSO), with signed
//!   and absolute error histograms.
//! * [`export`] — JSON-lines and Chrome trace-event (Perfetto-compatible)
//!   dumps of tagged traces.
//! * [`gantt`] — the shared ASCII Gantt renderer (paper Fig. 2 anatomy).
//! * [`invariants`] — structural trace well-formedness checks.
//! * [`calib`] — calibration diagnostics: fit quality (R², RMSE, slope CI)
//!   for the §IV-A transfer/BTS models and a leave-one-out interpolation
//!   audit of the empirical exec-time tables.
//! * [`snapshot`] — the versioned machine-readable record of a standard
//!   sweep (`BENCH_<label>.json`), pinned exactly by the repository's
//!   tests.
//! * [`window`]/[`slo`]/[`recorder`] — the streaming telemetry layer:
//!   one typed record of the open virtual-time window (counters, gauges,
//!   flow-time histogram), edge-triggered SLO evaluation that reads that
//!   record in place, and flight dumps of a capped span log's newest spans
//!   on breach/quarantine. Memory is O(window + cap), not O(requests).
//! * [`prom`] — Prometheus text-exposition rendering of a [`Registry`].
//!
//! ## Example: inspecting a synthetic trace
//!
//! ```
//! use cocopelia_gpusim::{EngineKind, SimTime, StreamId, TraceEntry};
//! use cocopelia_obs::OverlapStats;
//!
//! let entries = vec![TraceEntry::new(
//!     0,
//!     StreamId::from_raw(0),
//!     EngineKind::CopyH2d,
//!     SimTime::from_nanos(0),
//!     SimTime::from_nanos(100),
//! )
//! .with_bytes(800)];
//! let stats = OverlapStats::from_entries(&entries);
//! assert_eq!(stats.makespan_ns, 100);
//! assert_eq!(stats.efficiency(), 1.0);
//! ```

#![deny(missing_docs)]

pub mod calib;
pub mod drift;
pub mod export;
pub mod gantt;
pub mod invariants;
pub mod metrics;
pub mod observer;
pub mod overlap;
pub mod perfetto;
pub mod prom;
pub mod recorder;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod timeline;
pub mod window;

pub use calib::{audit_exec_table, CalibReport, ExecAudit, FitRow, LatencyRow};
pub use drift::{score_models, DriftAccountant, DriftRecord, ModelErrorStats};
pub use metrics::{Histogram, Registry};
pub use observer::{CallObservation, CallSummary, Observer, EFFICIENCY_BOUNDS};
pub use overlap::OverlapStats;
pub use recorder::FlightDump;
pub use slo::{SloBreach, SloEngine, SloKind, SloSpec, SloStatus};
pub use snapshot::{Snapshot, SnapshotEntry, SNAPSHOT_SCHEMA_VERSION};
pub use span::{check_spans, DeviceLane, ServeTrace, Span, SpanId, SpanLog, SpanPhase};
pub use window::TelemetryWindow;
