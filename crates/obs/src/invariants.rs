//! Trace invariant checks: structural properties every well-formed
//! simulator trace must satisfy, usable both as test assertions and as a
//! sanity gate before exporting or aggregating a trace.

use cocopelia_gpusim::{EngineKind, KernelShape, OpTag, TraceEntry};
use std::collections::{HashMap, HashSet};

/// What makes two tagged entries the same logical tile op: the tag plus
/// the engine, bytes and kernel shape the entry's label is rendered from.
type TileOpKey = (OpTag, EngineKind, Option<usize>, Option<KernelShape>);

/// Checks the structural invariants of a batch of trace entries:
///
/// 1. every entry ends no earlier than it starts;
/// 2. entries are recorded in non-decreasing start order (the simulator
///    records at dispatch time);
/// 3. no two entries on the same engine overlap in time — each engine is a
///    serial resource;
/// 4. no op id appears twice — each enqueued op executes exactly once;
/// 5. re-issues of the same logical tile op (identical tag and label — a
///    fault-tolerance retry) never overlap in time: a retry must only be
///    enqueued after its failed predecessor is out of the pipeline.
///
/// # Errors
///
/// Returns every violated invariant as a human-readable message.
pub fn check_entries(entries: &[TraceEntry]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut seen_ops = HashSet::new();
    let mut prev_start = 0u64;
    for e in entries {
        if e.end < e.start {
            problems.push(format!(
                "op {} ends before it starts: {} < {}",
                e.op, e.end, e.start
            ));
        }
        if e.start.as_nanos() < prev_start {
            problems.push(format!(
                "op {} recorded out of order: starts at {} after an entry starting at {}",
                e.op,
                e.start.as_nanos(),
                prev_start
            ));
        }
        prev_start = prev_start.max(e.start.as_nanos());
        if !seen_ops.insert(e.op) {
            problems.push(format!("op {} appears more than once in the trace", e.op));
        }
    }
    for engine in [
        EngineKind::CopyH2d,
        EngineKind::Compute,
        EngineKind::CopyD2h,
    ] {
        let mut spans: Vec<(u64, u64, usize)> = entries
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| (e.start.as_nanos(), e.end.as_nanos(), e.op))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (_, e0, op0) = w[0];
            let (s1, _, op1) = w[1];
            if s1 < e0 {
                problems.push(format!(
                    "{} engine double-booked: op {op1} starts at {s1} before op {op0} ends at {e0}",
                    engine.name()
                ));
            }
        }
    }
    let mut by_tile_op: HashMap<TileOpKey, Vec<&TraceEntry>> = HashMap::new();
    for e in entries {
        if let Some(tag) = e.tag {
            by_tile_op
                .entry((tag, e.engine, e.bytes(), e.kernel()))
                .or_default()
                .push(e);
        }
    }
    for ((tag, ..), mut retries) in by_tile_op {
        retries.sort_unstable_by_key(|e| (e.start, e.end, e.op));
        for w in retries.windows(2) {
            let (prev, next) = (w[0], w[1]);
            if next.start < prev.end {
                problems.push(format!(
                    "overlapping retry of `{}` ({tag:?}): op {} starts at {} \
                     before op {} ends at {}",
                    prev.label(),
                    next.op,
                    next.start.as_nanos(),
                    prev.op,
                    prev.end.as_nanos()
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{Routine, SimTime, StreamId};

    fn entry(op: usize, engine: EngineKind, start: u64, end: u64) -> TraceEntry {
        TraceEntry::new(
            op,
            StreamId::from_raw(0),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        )
    }

    #[test]
    fn clean_trace_passes() {
        let e = [
            entry(0, EngineKind::CopyH2d, 0, 100),
            entry(1, EngineKind::Compute, 50, 150),
            entry(2, EngineKind::CopyH2d, 100, 200),
        ];
        assert!(check_entries(&e).is_ok());
    }

    #[test]
    fn double_booked_engine_reported() {
        let e = [
            entry(0, EngineKind::Compute, 0, 100),
            entry(1, EngineKind::Compute, 50, 150),
        ];
        let problems = check_entries(&e).expect_err("overlap");
        assert!(problems.iter().any(|p| p.contains("double-booked")));
    }

    #[test]
    fn duplicate_op_reported() {
        let e = [
            entry(7, EngineKind::CopyH2d, 0, 10),
            entry(7, EngineKind::CopyD2h, 20, 30),
        ];
        let problems = check_entries(&e).expect_err("dup");
        assert!(problems.iter().any(|p| p.contains("more than once")));
    }

    #[test]
    fn out_of_order_start_reported() {
        let e = [
            entry(0, EngineKind::CopyH2d, 100, 200),
            entry(1, EngineKind::Compute, 50, 150),
        ];
        let problems = check_entries(&e).expect_err("order");
        assert!(problems.iter().any(|p| p.contains("out of order")));
    }

    #[test]
    fn reversed_span_reported() {
        let e = [entry(0, EngineKind::CopyH2d, 100, 50)];
        assert!(check_entries(&e).is_err());
    }

    fn tagged(op: usize, engine: EngineKind, start: u64, end: u64) -> TraceEntry {
        let mut e = entry(op, engine, start, end).with_bytes(64);
        e.tag = Some(OpTag::new(Routine::Gemm, 0, (1, 2)));
        e
    }

    #[test]
    fn sequential_retries_of_a_tile_op_pass() {
        let e = [
            tagged(0, EngineKind::CopyH2d, 0, 100),
            tagged(1, EngineKind::CopyH2d, 100, 200),
        ];
        assert!(check_entries(&e).is_ok());
    }

    #[test]
    fn overlapping_retries_of_a_tile_op_reported() {
        // Same tag and label, overlapping: a retry enqueued before its
        // failed predecessor left the pipeline. Labels name their engine,
        // so engine serialisation flags the pair as well.
        let e = [
            tagged(0, EngineKind::CopyH2d, 0, 100),
            tagged(1, EngineKind::CopyH2d, 50, 150),
        ];
        let problems = check_entries(&e).expect_err("overlapping retry");
        assert!(
            problems.contains(
                &"overlapping retry of `h2d 64B` (OpTag { routine: \"gemm\", call: 0, \
                  tile: (1, 2), operand: None, get: false, set: false }): op 1 starts at 50 \
                  before op 0 ends at 100"
                    .to_owned()
            ),
            "{problems:?}"
        );
    }

    #[test]
    fn distinct_tile_ops_may_overlap_across_engines() {
        // Different labels under the same tag: a tile's fetch and kernel
        // legitimately overlap with ops of other tiles (and untagged
        // entries never participate in the retry check).
        let e = [
            tagged(0, EngineKind::CopyH2d, 0, 100),
            tagged(1, EngineKind::Compute, 50, 150),
            entry(2, EngineKind::CopyD2h, 60, 160),
        ];
        assert!(check_entries(&e).is_ok());
    }
}
