//! Ablation (beyond the paper's figures, motivated by §II-A's warning that
//! "static tiling sizes offer no performance guarantee for future machines
//! with different transfer bandwidth/computation ratios"):
//!
//! sweep synthetic machines whose link bandwidth is scaled relative to
//! Testbed II and compare, per model generation, the measured performance
//! of the selected tiling size against the empirical optimum and against
//! static `T = 2048`. Shows which model term (location, bidirectional
//! slowdown, reuse) earns its keep as the machine balance shifts.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/ablation_model_terms.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::ablation_model_terms(Scale::from_env()));
}
