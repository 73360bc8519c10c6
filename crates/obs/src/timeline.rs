//! Timetable-style per-device serve timeline.
//!
//! Renders a [`ServeTrace`] as device rows × virtual-time columns — the
//! serve-level sibling of the single-run Gantt ([`crate::gantt`]): one row
//! per device engine (`h2d`/`exec`/`d2h`), one `events` row per device for
//! the fault-tolerance detours (retry `!`, quarantine `Q`), a `queue` row
//! showing waiting requests, and a `host` row when requests fell back to
//! host BLAS. This is the at-a-glance answer to "where did the overlap
//! go?" across a whole serve run, terminal-native where the Perfetto
//! export ([`crate::perfetto`]) is viewer-native.
//!
//! Glyphs: h2d `>`, exec `#`, d2h `<`, retry `!`, quarantine `Q`, host
//! fallback `H`, queued `.`, hedge `~`, probe `?`, cancel `x` (per
//! [`SpanPhase::glyph`]). When several events land in one column the
//! rarest wins (`Q` > `!`/`?`/`x` > `H`/`~` > engine work), so faults
//! never vanish under bulk transfer glyphs.

use crate::span::{ServeTrace, SpanPhase};
use cocopelia_gpusim::{EngineKind, SimTime};
use std::fmt::Write as _;

/// Rendering options for [`render`].
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Number of time columns.
    pub width: usize,
    /// Emit ANSI colour codes around fault glyphs.
    pub color: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 96,
            color: false,
        }
    }
}

/// Priority of a glyph when several land in one cell: higher wins.
fn glyph_rank(g: char) -> u8 {
    match g {
        'Q' => 5,
        '!' | '?' | 'x' => 4,
        'H' | '~' => 3,
        '#' => 2,
        '>' | '<' => 1,
        '.' => 1,
        _ => 0,
    }
}

/// Paints `glyph` over columns `[start_ns, end_ns)` of `row`, keeping the
/// higher-priority glyph per cell. Instants paint exactly one column.
fn paint(row: &mut [char], extent_ns: u64, start_ns: u64, end_ns: u64, glyph: char) {
    let width = row.len();
    if width == 0 || extent_ns == 0 {
        return;
    }
    let scale = width as f64 / extent_ns as f64;
    let a = ((start_ns as f64 * scale) as usize).min(width - 1);
    let b = (((end_ns as f64) * scale).ceil() as usize).clamp(a + 1, width);
    for cell in row.iter_mut().take(b).skip(a) {
        if glyph_rank(glyph) >= glyph_rank(*cell) {
            *cell = glyph;
        }
    }
}

fn engine_glyph(engine: EngineKind) -> char {
    match engine {
        EngineKind::CopyH2d => '>',
        EngineKind::CopyD2h => '<',
        EngineKind::Compute => '#',
    }
}

fn colorize(row: &[char], color: bool) -> String {
    if !color {
        return row.iter().collect();
    }
    let mut out = String::new();
    for &c in row {
        match c {
            'Q' => out.push_str("\x1b[31mQ\x1b[0m"),
            '!' => out.push_str("\x1b[33m!\x1b[0m"),
            'H' => out.push_str("\x1b[35mH\x1b[0m"),
            '~' => out.push_str("\x1b[36m~\x1b[0m"),
            '?' => out.push_str("\x1b[32m?\x1b[0m"),
            'x' => out.push_str("\x1b[34mx\x1b[0m"),
            other => out.push(other),
        }
    }
    out
}

/// Renders the timetable. Returns a multi-line string ending in a legend;
/// safe on empty traces.
pub fn render(trace: &ServeTrace, opts: &TimelineOptions) -> String {
    let width = opts.width.max(16);
    let extent = trace.extent_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve timeline · {} device(s) · {} span(s) · 0 .. {}",
        trace.lanes.len(),
        trace.spans.len(),
        SimTime::from_nanos(extent)
    );
    if extent == 0 {
        let _ = writeln!(out, "(empty trace)");
        return out;
    }

    // Queue row: every queued span, drawn once for the whole run.
    let queued: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.phase == SpanPhase::Queued)
        .collect();
    if !queued.is_empty() {
        let mut row = vec![' '; width];
        for s in &queued {
            paint(&mut row, extent, s.start_ns, s.end_ns, '.');
        }
        let _ = writeln!(out, "{:>12} |{}|", "queue", colorize(&row, opts.color));
    }

    for lane in &trace.lanes {
        let _ = writeln!(
            out,
            "{:-^width$}",
            format!(" {} ", lane.name),
            width = width + 15
        );
        for engine in [
            EngineKind::CopyH2d,
            EngineKind::Compute,
            EngineKind::CopyD2h,
        ] {
            let mut row = vec![' '; width];
            for e in lane.entries.iter().filter(|e| e.engine == engine) {
                paint(
                    &mut row,
                    extent,
                    e.start.as_nanos(),
                    e.end.as_nanos(),
                    engine_glyph(engine),
                );
            }
            let _ = writeln!(
                out,
                "{:>12} |{}|",
                engine.name(),
                colorize(&row, opts.color)
            );
        }
        // Events row: fault-tolerance and straggler-defense detours
        // attributed to this device.
        let mut row = vec![' '; width];
        let mut any = false;
        for s in trace.spans.iter().filter(|s| s.device == Some(lane.device)) {
            match s.phase {
                SpanPhase::Retry
                | SpanPhase::Quarantine
                | SpanPhase::Hedge
                | SpanPhase::Probe
                | SpanPhase::Cancel => {
                    paint(&mut row, extent, s.start_ns, s.end_ns, s.phase.glyph());
                    any = true;
                }
                _ => {}
            }
        }
        if any {
            let _ = writeln!(out, "{:>12} |{}|", "events", colorize(&row, opts.color));
        }
    }

    // Host row: host-fallback executions (device-less).
    let host: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.phase == SpanPhase::HostFallback)
        .collect();
    if !host.is_empty() {
        let mut row = vec![' '; width];
        for s in &host {
            paint(&mut row, extent, s.start_ns, s.end_ns, 'H');
        }
        let _ = writeln!(out, "{:>12} |{}|", "host", colorize(&row, opts.color));
    }

    let _ = writeln!(
        out,
        "legend: > h2d  # exec  < d2h  . queued  ! retry  Q quarantine  \
         H host-fallback  ~ hedge  ? probe  x cancel"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{DeviceLane, SpanLog};
    use cocopelia_gpusim::{StreamId, TraceEntry};

    fn entry(engine: EngineKind, start: u64, end: u64) -> TraceEntry {
        TraceEntry::new(
            0,
            StreamId::from_raw(0),
            engine,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        )
    }

    fn sample_trace() -> ServeTrace {
        let mut log = SpanLog::new();
        log.record(None, 0, None, SpanPhase::Queued, "queued", 0, 200, Some(0));
        log.record(
            None,
            0,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0",
            200,
            500,
            Some(0),
        );
        log.record(
            None,
            0,
            Some(0),
            SpanPhase::Quarantine,
            "quarantined",
            500,
            500,
            None,
        );
        log.record(
            None,
            0,
            Some(1),
            SpanPhase::Retry,
            "attempt 1",
            500,
            900,
            None,
        );
        log.record(
            None,
            1,
            None,
            SpanPhase::HostFallback,
            "host",
            900,
            1000,
            None,
        );
        log.record(None, 1, None, SpanPhase::Queued, "queued", 0, 900, Some(1));
        ServeTrace {
            spans: log.into_spans(),
            lanes: vec![
                DeviceLane {
                    device: 0,
                    name: "dev0".into(),
                    entries: vec![
                        entry(EngineKind::CopyH2d, 200, 320),
                        entry(EngineKind::Compute, 320, 470),
                        entry(EngineKind::CopyD2h, 470, 500),
                    ]
                    .into(),
                },
                DeviceLane {
                    device: 1,
                    name: "dev1".into(),
                    entries: vec![entry(EngineKind::Compute, 500, 880)].into(),
                },
            ],
        }
    }

    #[test]
    fn timeline_shows_all_rows_and_fault_glyphs() {
        let t = render(&sample_trace(), &TimelineOptions::default());
        assert!(t.contains("dev0"), "{t}");
        assert!(t.contains("dev1"), "{t}");
        assert!(t.contains('Q'), "quarantine glyph missing:\n{t}");
        assert!(t.contains('!'), "retry glyph missing:\n{t}");
        assert!(t.contains('H'), "host glyph missing:\n{t}");
        assert!(t.contains("queue"), "{t}");
        assert!(t.contains("legend:"), "{t}");
    }

    #[test]
    fn fault_glyphs_win_over_engine_glyphs() {
        let mut row = vec![' '; 10];
        paint(&mut row, 100, 0, 100, '#');
        paint(&mut row, 100, 50, 50, 'Q');
        assert!(row.contains(&'Q'), "{row:?}");
        // And engine work cannot paint the quarantine back over.
        let q_at = row.iter().position(|&c| c == 'Q').unwrap();
        paint(&mut row, 100, 0, 100, '>');
        assert_eq!(row[q_at], 'Q');
    }

    #[test]
    fn color_mode_wraps_fault_glyphs() {
        let opts = TimelineOptions {
            width: 48,
            color: true,
        };
        let t = render(&sample_trace(), &opts);
        assert!(t.contains("\x1b[31mQ\x1b[0m"), "{t}");
        assert!(t.contains("\x1b[33m!\x1b[0m"), "{t}");
    }

    #[test]
    fn straggler_glyphs_show_in_events_rows() {
        let mut log = SpanLog::new();
        log.record(
            None,
            0,
            Some(0),
            SpanPhase::Dispatch,
            "attempt 0 (cancelled)",
            0,
            600,
            None,
        );
        log.record(
            None,
            0,
            Some(1),
            SpanPhase::Hedge,
            "hedge (won)",
            400,
            600,
            None,
        );
        log.record(
            None,
            0,
            Some(0),
            SpanPhase::Cancel,
            "cancelled",
            600,
            600,
            None,
        );
        log.record(
            None,
            u64::MAX,
            Some(0),
            SpanPhase::Probe,
            "probe ok",
            700,
            900,
            None,
        );
        let trace = ServeTrace {
            spans: log.into_spans(),
            lanes: vec![
                DeviceLane {
                    device: 0,
                    name: "dev0".into(),
                    entries: vec![entry(EngineKind::Compute, 0, 600)].into(),
                },
                DeviceLane {
                    device: 1,
                    name: "dev1".into(),
                    entries: vec![entry(EngineKind::Compute, 400, 600)].into(),
                },
            ],
        };
        let t = render(&trace, &TimelineOptions::default());
        assert!(t.contains('~'), "hedge glyph missing:\n{t}");
        assert!(t.contains('?'), "probe glyph missing:\n{t}");
        let cancel_in_events = t
            .lines()
            .any(|l| l.trim_start().starts_with("events") && l.contains('x'));
        assert!(cancel_in_events, "cancel glyph missing:\n{t}");
        assert!(t.contains("~ hedge"), "legend missing hedge:\n{t}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = render(&ServeTrace::default(), &TimelineOptions::default());
        assert!(t.contains("(empty trace)"));
    }

    #[test]
    fn instant_paints_single_column_at_extent_edge() {
        let mut row = vec![' '; 10];
        // An instant exactly at the extent must not panic or vanish.
        paint(&mut row, 100, 100, 100, 'Q');
        assert_eq!(row[9], 'Q');
    }
}
