//! Machine-readable performance snapshots: a versioned record of one
//! standard routine/size sweep, written as `BENCH_<label>.json`.
//!
//! A snapshot is the longitudinal counterpart of the per-run [`Observer`]
//! report: the same pipeline metrics (makespan, overlap efficiency,
//! per-model drift, selected tile, tile-cache hit rate), keyed by a
//! stable sweep-entry id. The sweep is deterministic, so a committed
//! snapshot pins it exactly. The schema is versioned;
//! [`Snapshot::from_json`] rejects snapshots written by an incompatible
//! schema so a file from another format is never read as this one.
//!
//! [`Observer`]: crate::Observer

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version stamp written into every snapshot. Bump when the entry schema
/// changes incompatibly.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// One sweep point's recorded performance facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Parses a snapshot previously produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a schema-version mismatch
    /// (snapshots from a different schema must be regenerated, not diffed).
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        let snap: Snapshot =
            serde_json::from_str(s).map_err(|e| format!("malformed snapshot: {e}"))?;
        if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema version {} is not supported (expected {})",
                snap.schema_version, SNAPSHOT_SCHEMA_VERSION
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, makespan: u64) -> SnapshotEntry {
        SnapshotEntry {
            id: id.to_owned(),
            routine: "gemm".to_owned(),
            dims: vec![1024, 1024, 1024],
            tile: 512,
            makespan_ns: makespan,
            elapsed_secs: makespan as f64 / 1e9,
            gflops: 100.0,
            overlap_efficiency: 1.8,
            cache_hit_rate: 0.5,
            drift_mape: BTreeMap::from([("DR-Model".to_owned(), 0.03)]),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut s = Snapshot::new("seed", "testbed-i");
        s.entries.push(entry("gemm 1024x1024x1024", 1_000_000));
        let json = s.to_json().expect("serializes");
        let back = Snapshot::from_json(&json).expect("parses");
        assert_eq!(s, back);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut s = Snapshot::new("seed", "tb");
        s.schema_version = SNAPSHOT_SCHEMA_VERSION + 1;
        let json = s.to_json().expect("serializes");
        let err = Snapshot::from_json(&json).expect_err("must reject");
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Snapshot::from_json("{not json").is_err());
    }
}
