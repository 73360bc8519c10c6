//! The per-pipeline observer: one object that accumulates metrics, overlap
//! statistics, and prediction drift across routine calls.
//!
//! The runtime owns one [`Observer`] per library handle and feeds it a
//! [`CallObservation`] after every routine; users read it back through
//! `Cocopelia::observer()` for text reports, JSON summaries, or raw
//! records.

use crate::drift::{DriftAccountant, DriftRecord};
use crate::metrics::Registry;
use crate::overlap::OverlapStats;
use cocopelia_core::models::ModelKind;
use cocopelia_gpusim::{EngineKind, TraceEntry, TraceView};
use serde::Value;
use std::fmt::Write as _;

/// Histogram bounds for per-call overlap efficiency (1x .. 3x).
pub const EFFICIENCY_BOUNDS: [f64; 7] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0];

/// Everything the runtime knows about one finished routine call.
#[derive(Debug, Clone)]
pub struct CallObservation<'a> {
    /// Canonical BLAS name of the routine (`"dgemm"`, `"sgemm"`, …).
    pub routine: &'static str,
    /// Routine invocation counter (shared with the trace's `OpTag::call`).
    pub call: u64,
    /// Tiling size used.
    pub tile: usize,
    /// Model that chose the tile, if any (fixed tiles have none).
    pub model: Option<ModelKind>,
    /// Sub-kernels launched.
    pub subkernels: usize,
    /// Virtual wall time of the call, in seconds.
    pub elapsed_secs: f64,
    /// Trace entries the call produced.
    pub entries: TraceView<'a>,
    /// Overlap statistics of `entries`, computed once by the caller.
    pub overlap: OverlapStats,
    /// Tile-cache hits during the call (reused device tiles).
    pub tile_hits: u64,
    /// Tile-cache misses during the call (tiles copied from the host).
    pub tile_misses: u64,
    /// Per-model drift records scored for this call.
    pub drift: Vec<DriftRecord>,
}

/// Digest of one observed call, kept for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSummary {
    /// Routine family.
    pub routine: &'static str,
    /// Routine invocation counter.
    pub call: u64,
    /// Tiling size used.
    pub tile: usize,
    /// Model that chose the tile, if any.
    pub model: Option<ModelKind>,
    /// Sub-kernels launched.
    pub subkernels: usize,
    /// Virtual wall time, in seconds.
    pub elapsed_secs: f64,
    /// Overlap statistics of the call's trace slice.
    pub overlap: OverlapStats,
}

/// Accumulates observability state across the life of a pipeline.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    metrics: Registry,
    drift: DriftAccountant,
    /// Summaries of the calls since the last
    /// [`retire_history`](Observer::retire_history).
    calls: Vec<CallSummary>,
    next_call: u64,
    /// Scratch space for per-routine and per-model counter names, so a
    /// call builds no new string once its counters exist.
    key: String,
}

impl Observer {
    /// A fresh observer.
    pub fn new() -> Self {
        Observer::default()
    }

    /// Allocates the next routine-call id (also used as `OpTag::call`).
    pub fn next_call_id(&mut self) -> u64 {
        let id = self.next_call;
        self.next_call += 1;
        id
    }

    /// Ingests one finished call: updates counters, histograms, drift
    /// aggregates, and the per-call summary list.
    pub fn observe_call(&mut self, obs: CallObservation<'_>) {
        let overlap = obs.overlap;
        self.metrics.counter_add("calls_total", 1);
        self.counter_add_named("calls_", obs.routine, 1);
        self.metrics
            .counter_add("subkernels_total", obs.subkernels as u64);
        let h2d_bytes: u64 = engine_bytes(obs.entries, EngineKind::CopyH2d);
        let d2h_bytes: u64 = engine_bytes(obs.entries, EngineKind::CopyD2h);
        self.metrics.counter_add("h2d_bytes_total", h2d_bytes);
        self.metrics.counter_add("d2h_bytes_total", d2h_bytes);
        self.metrics
            .counter_add("h2d_busy_ns_total", overlap.h2d_busy_ns);
        self.metrics
            .counter_add("exec_busy_ns_total", overlap.exec_busy_ns);
        self.metrics
            .counter_add("d2h_busy_ns_total", overlap.d2h_busy_ns);
        self.metrics
            .counter_add("union_busy_ns_total", overlap.union_busy_ns);
        self.metrics
            .counter_add("makespan_ns_total", overlap.makespan_ns);
        self.metrics
            .counter_add("tile_cache_hits_total", obs.tile_hits);
        self.metrics
            .counter_add("tile_cache_misses_total", obs.tile_misses);
        if let Some(model) = obs.model {
            self.counter_add_named("tile_selections_", model.name(), 1);
        }
        self.metrics.histogram_observe(
            "overlap_efficiency",
            &EFFICIENCY_BOUNDS,
            overlap.efficiency(),
        );
        for rec in obs.drift {
            self.drift.record(rec);
        }
        self.calls.push(CallSummary {
            routine: obs.routine,
            call: obs.call,
            tile: obs.tile,
            model: obs.model,
            subkernels: obs.subkernels,
            elapsed_secs: obs.elapsed_secs,
            overlap,
        });
    }

    /// Adds `v` to the counter `{prefix}{name}`, spelling the name in the
    /// reused scratch string.
    fn counter_add_named(&mut self, prefix: &str, name: &str, v: u64) {
        self.key.clear();
        self.key.push_str(prefix);
        self.key.push_str(name);
        self.metrics.counter_add(&self.key, v);
    }

    /// Drops the per-call history — the call summaries and the drift
    /// records — and keeps everything aggregated: counters, histograms,
    /// the per-model drift stats with their record count, and the call-id
    /// counter. For an observer whose calls nobody reads one by one, such
    /// as a serving pool device's, whose history would otherwise grow with
    /// every request.
    pub fn retire_history(&mut self) {
        self.calls.clear();
        self.drift.retire_records();
    }

    /// Records a selection-cache lookup (model-reuse cache of §IV-C).
    pub fn record_selection_lookup(&mut self, hit: bool) {
        let name = if hit {
            "selection_cache_hits_total"
        } else {
            "selection_cache_misses_total"
        };
        self.metrics.counter_add(name, 1);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The drift accountant.
    pub fn drift(&self) -> &DriftAccountant {
        &self.drift
    }

    /// Per-call summaries since the last
    /// [`retire_history`](Self::retire_history), in call order.
    pub fn calls(&self) -> &[CallSummary] {
        &self.calls
    }

    /// The value-tree form of the whole observer state, for JSON reports.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("metrics".to_owned(), self.metrics.to_value()),
            ("drift".to_owned(), self.drift.to_value()),
            (
                "calls".to_owned(),
                Value::Seq(
                    self.calls
                        .iter()
                        .map(|c| {
                            Value::Map(vec![
                                ("routine".to_owned(), Value::Str(c.routine.to_owned())),
                                ("call".to_owned(), Value::U64(c.call)),
                                ("tile".to_owned(), Value::U64(c.tile as u64)),
                                (
                                    "model".to_owned(),
                                    match c.model {
                                        Some(m) => Value::Str(m.name().to_owned()),
                                        None => Value::Null,
                                    },
                                ),
                                ("subkernels".to_owned(), Value::U64(c.subkernels as u64)),
                                ("elapsed_secs".to_owned(), Value::F64(c.elapsed_secs)),
                                (
                                    "overlap_efficiency".to_owned(),
                                    Value::F64(c.overlap.efficiency()),
                                ),
                                ("makespan_ns".to_owned(), Value::U64(c.overlap.makespan_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the full human-readable report: per-call table, metrics, and
    /// drift aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== calls ==");
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:>6} {:>8} {:>12} {:>8} {:<16}",
            "call", "routine", "T", "subkrnl", "elapsed ms", "overlap", "model"
        );
        for c in &self.calls {
            let _ = writeln!(
                out,
                "{:<6} {:<6} {:>6} {:>8} {:>12.3} {:>7.2}x {:<16}",
                c.call,
                c.routine,
                c.tile,
                c.subkernels,
                c.elapsed_secs * 1e3,
                c.overlap.efficiency(),
                c.model.map(|m| m.name()).unwrap_or("fixed"),
            );
        }
        let _ = writeln!(out, "\n== metrics ==");
        out.push_str(&self.metrics.render());
        if self.drift.count() > 0 {
            let _ = writeln!(out, "\n== prediction drift ==");
            out.push_str(&self.drift.render());
        }
        out
    }
}

fn engine_bytes(entries: TraceView<'_>, engine: EngineKind) -> u64 {
    entries
        .iter()
        .filter(|e| e.engine == engine)
        .filter_map(TraceEntry::bytes)
        .map(|b| b as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{SimTime, StreamId};

    fn entry(engine: EngineKind, start: u64, end: u64, bytes: Option<usize>) -> TraceEntry {
        let e = TraceEntry::new(
            0,
            StreamId::from_raw(0),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        );
        match bytes {
            Some(b) => e.with_bytes(b),
            None => e,
        }
    }

    #[test]
    fn observe_call_updates_counters_and_calls() {
        let mut obs = Observer::new();
        let id = obs.next_call_id();
        assert_eq!(id, 0);
        let entries = [
            entry(EngineKind::CopyH2d, 0, 100, Some(1024)),
            entry(EngineKind::Compute, 0, 100, None),
        ];
        obs.observe_call(CallObservation {
            routine: "gemm",
            call: id,
            tile: 256,
            model: Some(ModelKind::DataReuse),
            subkernels: 8,
            elapsed_secs: 1e-7,
            entries: TraceView::from(&entries[..]),
            overlap: OverlapStats::from_entries(&entries),
            tile_hits: 3,
            tile_misses: 5,
            drift: vec![],
        });
        assert_eq!(obs.metrics().counter("calls_total"), 1);
        assert_eq!(obs.metrics().counter("calls_gemm"), 1);
        assert_eq!(obs.metrics().counter("h2d_bytes_total"), 1024);
        assert_eq!(obs.metrics().counter("tile_cache_hits_total"), 3);
        assert_eq!(obs.metrics().counter("tile_selections_DR-Model"), 1);
        assert_eq!(obs.calls().len(), 1);
        assert_eq!(obs.calls()[0].overlap.efficiency(), 2.0);
        let h = obs
            .metrics()
            .histogram("overlap_efficiency")
            .expect("observed");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn retired_history_keeps_aggregates_and_call_ids() {
        let observe = |obs: &mut Observer| {
            let call = obs.next_call_id();
            let entries = [entry(EngineKind::CopyH2d, 0, 100, Some(64))];
            obs.observe_call(CallObservation {
                routine: "dot",
                call,
                tile: 1024,
                model: Some(ModelKind::Bts),
                subkernels: 2,
                elapsed_secs: 1e-7,
                entries: TraceView::from(&entries[..]),
                overlap: OverlapStats::from_entries(&entries),
                tile_hits: 0,
                tile_misses: 2,
                drift: vec![DriftRecord {
                    routine: "dot",
                    call,
                    model: ModelKind::Bts,
                    tile: 1024,
                    predicted_secs: 1.2e-7,
                    actual_secs: 1e-7,
                }],
            });
        };
        let (mut retired, mut kept) = (Observer::new(), Observer::new());
        for _ in 0..3 {
            observe(&mut retired);
            observe(&mut kept);
            retired.retire_history();
        }
        assert!(retired.calls().is_empty());
        assert!(retired.drift().records().is_empty());
        assert_eq!(retired.drift().count(), 3);
        assert_eq!(kept.calls().len(), 3);
        assert_eq!(retired.metrics().render(), kept.metrics().render());
        assert_eq!(retired.drift().render(), kept.drift().render());
        assert!(retired.render().contains("== prediction drift =="));
        assert_eq!(retired.next_call_id(), kept.next_call_id());
    }

    #[test]
    fn call_ids_are_sequential() {
        let mut obs = Observer::new();
        assert_eq!(obs.next_call_id(), 0);
        assert_eq!(obs.next_call_id(), 1);
        assert_eq!(obs.next_call_id(), 2);
    }

    #[test]
    fn selection_cache_counters() {
        let mut obs = Observer::new();
        obs.record_selection_lookup(false);
        obs.record_selection_lookup(true);
        obs.record_selection_lookup(true);
        assert_eq!(obs.metrics().counter("selection_cache_hits_total"), 2);
        assert_eq!(obs.metrics().counter("selection_cache_misses_total"), 1);
    }

    #[test]
    fn render_and_to_value_cover_sections() {
        let mut obs = Observer::new();
        let id = obs.next_call_id();
        obs.observe_call(CallObservation {
            routine: "axpy",
            call: id,
            tile: 1 << 20,
            model: None,
            subkernels: 4,
            elapsed_secs: 0.001,
            entries: TraceView::default(),
            overlap: OverlapStats::default(),
            tile_hits: 0,
            tile_misses: 8,
            drift: vec![],
        });
        let text = obs.render();
        assert!(text.contains("axpy"));
        assert!(text.contains("fixed"));
        let json = serde_json::to_string(&obs.to_value()).expect("serializes");
        assert!(json.contains("\"calls_total\":1"));
    }
}
