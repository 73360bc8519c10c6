//! Text Gantt rendering of an execution trace — the pipeline anatomy of the
//! paper's Figure 2, promoted from the `pipeline_gantt` example so every
//! consumer (examples, CLI, reports) shares one renderer.

use crate::overlap::OverlapStats;
use cocopelia_gpusim::{EngineKind, TraceEntry};
use std::fmt::Write as _;

const ENGINES: [EngineKind; 3] = [
    EngineKind::CopyH2d,
    EngineKind::Compute,
    EngineKind::CopyD2h,
];

fn glyph(engine: EngineKind) -> char {
    match engine {
        EngineKind::CopyH2d => '>',
        EngineKind::Compute => '#',
        EngineKind::CopyD2h => '<',
    }
}

/// Renders an ASCII Gantt chart over `entries`: one row per engine, `width`
/// columns spanning the batch's time extent. `h2d` rows show `>`, compute
/// rows `#`, `d2h` rows `<`.
pub fn render(entries: &[TraceEntry], width: usize) -> String {
    let width = width.max(10);
    let t_start = entries
        .iter()
        .map(|e| e.start.as_nanos())
        .min()
        .unwrap_or(0);
    let t_end = entries.iter().map(|e| e.end.as_nanos()).max().unwrap_or(0);
    let span = (t_end - t_start).max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time span: {:.3} ms .. {:.3} ms ({:.3} ms)",
        t_start as f64 / 1e6,
        t_end as f64 / 1e6,
        (t_end - t_start) as f64 / 1e6
    );
    for engine in ENGINES {
        let g = glyph(engine);
        let mut row = vec![' '; width];
        for e in entries.iter().filter(|e| e.engine == engine) {
            let a = ((e.start.as_nanos() - t_start) as f64 / span * width as f64) as usize;
            let b = ((e.end.as_nanos() - t_start) as f64 / span * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = g;
            }
        }
        let _ = writeln!(
            out,
            "{:>4} |{}|",
            engine.name(),
            row.iter().collect::<String>()
        );
    }
    out
}

/// Renders the per-engine busy/volume summary lines that accompany the
/// chart: busy time, share of the makespan, and bytes moved per engine,
/// plus the overlap-efficiency line derived from the same entries.
pub fn engine_summary(entries: &[TraceEntry]) -> String {
    let stats = OverlapStats::from_entries(entries);
    let makespan = stats.makespan_ns as f64 / 1e9;
    let mut out = String::new();
    for engine in ENGINES {
        let busy = stats.engine_busy_ns(engine) as f64 / 1e9;
        let bytes: usize = entries
            .iter()
            .filter(|e| e.engine == engine)
            .filter_map(TraceEntry::bytes)
            .sum();
        let _ = writeln!(
            out,
            "{:>4}: busy {:8.3} ms ({:5.1}% of makespan), {:9.1} MB moved",
            engine.name(),
            busy * 1e3,
            if makespan > 0.0 {
                100.0 * busy / makespan
            } else {
                0.0
            },
            bytes as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "overlap efficiency {:.2}x (busy {:.3} ms across engines, union {:.3} ms)",
        stats.efficiency(),
        stats.sum_busy_ns() as f64 / 1e6,
        stats.union_busy_ns as f64 / 1e6
    );
    out
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
    fn renders_all_three_rows() {
        let entries = [
            entry(EngineKind::CopyH2d, 0, 50, Some(1 << 20)),
            entry(EngineKind::Compute, 25, 100, None),
            entry(EngineKind::CopyD2h, 90, 120, Some(1 << 10)),
        ];
        let g = render(&entries, 40);
        assert!(g.contains("h2d"));
        assert!(g.contains("exec"));
        assert!(g.contains("d2h"));
        assert!(g.contains('>') && g.contains('#') && g.contains('<'));
    }

    #[test]
    fn empty_entries_do_not_panic() {
        let g = render(&[], 20);
        assert!(g.contains("time span"));
        let s = engine_summary(&[]);
        assert!(s.contains("overlap efficiency"));
    }

    #[test]
    fn summary_reports_bytes_and_efficiency() {
        let entries = [
            entry(EngineKind::CopyH2d, 0, 100, Some(2_000_000)),
            entry(EngineKind::Compute, 0, 100, None),
        ];
        let s = engine_summary(&entries);
        assert!(s.contains("2.0 MB"));
        assert!(s.contains("overlap efficiency 2.00x"));
    }
}
