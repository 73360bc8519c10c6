//! The standard perf-snapshot sweep, pinned by the committed
//! `BENCH_seed.json`.
//!
//! A fixed, versioned set of routine/size points is executed on a *quiet*
//! testbed (noise forced to [`NoiseSpec::NONE`], fixed seeds, quick
//! deployment grids), so two snapshots taken from different builds of this
//! repository differ only through code changes: the repository's
//! `perf_snapshot` test compares this tree's snapshot with the committed
//! one byte for byte. Each point records the makespan, overlap efficiency,
//! selected tile, tile-cache hit rate, and per-model prediction drift of
//! one routine call.

use cocopelia_core::params::ProblemSpec;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_obs::{Snapshot, SnapshotEntry};
use cocopelia_runtime::{Cocopelia, RoutineReport, TileChoice};
use std::collections::BTreeMap;

/// Seed for every simulated device in the sweep. The sweep also disables
/// noise, so the seed only pins tie-breaking paths.
pub const SNAPSHOT_SEED: u64 = 0x5EED;

/// One point of the standard sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Stable id entries are matched by across snapshots.
    pub id: String,
    /// Routine to run (`"dgemm"`, `"daxpy"`, `"ddot"`, `"dgemv"`).
    pub routine: &'static str,
    /// Problem dimensions (3 for gemm, 2 for gemv, 1 for the vector ops).
    pub dims: Vec<usize>,
}

impl SweepPoint {
    fn new(routine: &'static str, dims: Vec<usize>) -> SweepPoint {
        let id = format!(
            "{routine} {}",
            dims.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("x")
        );
        SweepPoint { id, routine, dims }
    }
}

/// The standard sweep: a square and a rectangular dgemm, both vector
/// routines, and the gemv extension. Append new points rather than editing
/// existing ones — ids are the cross-snapshot match keys.
pub fn standard_sweep() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new("dgemm", vec![2048, 2048, 2048]),
        SweepPoint::new("dgemm", vec![4096, 1024, 1024]),
        SweepPoint::new("daxpy", vec![1 << 22]),
        SweepPoint::new("ddot", vec![1 << 22]),
        SweepPoint::new("dgemv", vec![2048, 2048]),
    ]
}

/// Runs `p` once, host-resident, at the model-selected tile.
fn run_point(ctx: &mut Cocopelia, p: &SweepPoint) -> Result<RoutineReport, String> {
    let spec = ProblemSpec::parse(p.routine, &p.dims, &[])?;
    let req = ctx
        .ghost_request(&spec, TileChoice::Auto)
        .map_err(|e| e.to_string())?;
    ctx.submit(req).map_err(|e| e.to_string())
}

fn entry_from_report(p: &SweepPoint, report: &RoutineReport) -> SnapshotEntry {
    let drift_mape: BTreeMap<String, f64> = report
        .drift
        .iter()
        .map(|d| (d.model.name().to_owned(), d.abs_rel_err()))
        .collect();
    SnapshotEntry {
        id: p.id.clone(),
        routine: p.routine.to_owned(),
        dims: p.dims.clone(),
        tile: report.tile,
        makespan_ns: report.overlap.makespan_ns,
        elapsed_secs: report.elapsed.as_secs_f64(),
        gflops: report.gflops(),
        overlap_efficiency: report.overlap.efficiency(),
        cache_hit_rate: report.cache_hit_rate(),
        drift_mape,
    }
}

/// Deploys quietly on `testbed` and runs [`standard_sweep`], one fresh
/// timing-only device per point so entries never share simulator state.
///
/// Noise is forced to [`NoiseSpec::NONE`] regardless of what the testbed
/// specifies: snapshots exist to detect *code* changes, and a noisy virtual
/// machine would bury a real regression in jitter.
///
/// # Errors
///
/// Propagates deployment and runtime failures as strings.
pub fn collect_snapshot(testbed: &TestbedSpec, label: &str) -> Result<Snapshot, String> {
    let mut tb = testbed.clone();
    tb.noise = NoiseSpec::NONE;
    let report = deploy(&tb, &DeployConfig::quick()).map_err(|e| e.to_string())?;
    let mut snap = Snapshot::new(label, report.profile.testbed.clone());
    for point in &standard_sweep() {
        let gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, SNAPSHOT_SEED);
        let mut ctx = Cocopelia::new(gpu, report.profile.clone());
        let call = run_point(&mut ctx, point)
            .map_err(|e| format!("sweep point `{}` failed: {e}", point.id))?;
        snap.entries.push(entry_from_report(point, &call));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::testbed_i;

    #[test]
    fn sweep_ids_are_unique_and_descriptive() {
        let sweep = standard_sweep();
        let mut ids: Vec<&str> = sweep.iter().map(|p| p.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sweep.len(), "duplicate sweep ids");
        assert!(sweep.iter().any(|p| p.id == "dgemm 2048x2048x2048"));
    }

    #[test]
    fn collection_is_deterministic() {
        let a = collect_snapshot(&testbed_i(), "a").expect("collects");
        let b = collect_snapshot(&testbed_i(), "b").expect("collects");
        assert_eq!(a.entries.len(), standard_sweep().len());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea, eb, "sweep point `{}` is not reproducible", ea.id);
        }
        for e in &a.entries {
            assert!(e.makespan_ns > 0, "{}", e.id);
            assert!(e.gflops > 0.0, "{}", e.id);
            assert!(e.tile > 0, "{}", e.id);
            assert!(e.overlap_efficiency >= 1.0, "{}", e.id);
            assert!(!e.drift_mape.is_empty(), "{}", e.id);
        }
    }
}
