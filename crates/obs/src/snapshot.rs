//! Machine-readable performance snapshots: a versioned record of one
//! standard routine/size sweep, written as `BENCH_<label>.json`.
//!
//! A snapshot is the longitudinal counterpart of the per-run [`Observer`]
//! report: the same pipeline metrics (makespan, overlap efficiency,
//! per-model drift, selected tile, tile-cache hit rate), keyed by a
//! stable sweep-entry id. The sweep is deterministic, so a committed
//! snapshot pins it exactly, byte for byte. Every file carries its schema
//! version.
//!
//! [`Observer`]: crate::Observer

use serde::Serialize;
use std::collections::BTreeMap;

/// Version stamp written into every snapshot. Bump when the entry schema
/// changes incompatibly.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// One sweep point's recorded performance facts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SnapshotEntry {
    /// Stable identity of the sweep point (`"dgemm 4096x4096x4096"`);
    /// entries are matched across snapshots by this id.
    pub id: String,
    /// Routine family (`"gemm"`, `"axpy"`, …).
    pub routine: String,
    /// Problem dimensions.
    pub dims: Vec<usize>,
    /// Tiling size the runtime selected.
    pub tile: usize,
    /// Makespan of the call's trace slice, integer nanoseconds.
    pub makespan_ns: u64,
    /// Virtual wall time of the call, seconds.
    pub elapsed_secs: f64,
    /// Achieved throughput, GFLOP/s.
    pub gflops: f64,
    /// Overlap efficiency `sum(busy)/union(busy)` ∈ [1, 3].
    pub overlap_efficiency: f64,
    /// Tile-cache hit rate `hits/(hits+misses)` ∈ [0, 1].
    pub cache_hit_rate: f64,
    /// Per-model absolute relative prediction error for this call
    /// (model name → MAPE contribution).
    pub drift_mape: BTreeMap<String, f64>,
}

/// A versioned, machine-readable performance snapshot of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Schema version; see [`SNAPSHOT_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Free-form label (`"seed"`, `"pr2"`, a git SHA, …).
    pub label: String,
    /// Testbed the sweep ran on.
    pub testbed: String,
    /// One entry per sweep point, in sweep order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Creates an empty snapshot with the current schema version.
    pub fn new(label: impl Into<String>, testbed: impl Into<String>) -> Snapshot {
        Snapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            label: label.into(),
            testbed: testbed.into(),
            entries: Vec::new(),
        }
    }

    /// Serialises to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (effectively unreachable for this
    /// data shape).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}
