//! The paper's figures and tables, pinned: each bench target's reduced-scale
//! text (what `cargo bench -p cocopelia-bench --bench <name>` prints) must
//! equal `tests/golden/paper/<name>.txt` byte for byte. Every run inside is
//! seeded, so any difference is a change to a model, a schedule, the
//! simulator or a comparator. Re-bless an intended change with
//! `GOLDEN_BLESS=1` and review the diff.
//!
//! `table4_improvement` and `fig4_model_error_noreuse` take 46 s and 7.5 s
//! in a debug build, so they run in release only (a `ci.sh` step); the
//! other eight run in debug `cargo test` too.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

#[path = "support/golden.rs"]
mod golden;
use golden::assert_golden;

fn pin(bench: &str, text: &str) {
    assert_golden(&format!("paper/{bench}.txt"), text);
}

#[test]
fn fig1_tiling_sweep() {
    pin(
        "fig1_tiling_sweep",
        &figures::fig1_tiling_sweep(Scale::Reduced),
    );
}

#[test]
fn fig2_reuse_anatomy() {
    pin("fig2_reuse_anatomy", &figures::fig2_reuse_anatomy());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "7.5 s in debug; ci.sh runs it in release")]
fn fig4_model_error_noreuse() {
    pin(
        "fig4_model_error_noreuse",
        &figures::fig4_model_error_noreuse(Scale::Reduced, false),
    );
}

#[test]
fn fig5_model_error_reuse() {
    pin(
        "fig5_model_error_reuse",
        &figures::fig5_model_error_reuse(Scale::Reduced),
    );
}

#[test]
fn fig6_tile_selection() {
    pin(
        "fig6_tile_selection",
        &figures::fig6_tile_selection(Scale::Reduced),
    );
}

#[test]
fn fig7_end_to_end() {
    pin("fig7_end_to_end", &figures::fig7_end_to_end(Scale::Reduced));
}

#[test]
fn table2_transfer_fit() {
    pin("table2_transfer_fit", &figures::table2_transfer_fit());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "46 s in debug; ci.sh runs it in release")]
fn table4_improvement() {
    pin(
        "table4_improvement",
        &figures::table4_improvement(Scale::Reduced),
    );
}

#[test]
fn ablation_model_terms() {
    pin(
        "ablation_model_terms",
        &figures::ablation_model_terms(Scale::Reduced),
    );
}

#[test]
fn ext_multigpu_scaling() {
    pin(
        "ext_multigpu_scaling",
        &figures::ext_multigpu_scaling(Scale::Reduced),
    );
}
