//! Figure 6: quality of CoCoPeLia's tiling-size selection on Testbed II for
//! dgemm and sgemm: measured performance of the `T` chosen by each model
//! generation (Eq. 1 Baseline, Eq. 2 Dataloc, Eq. 4 BTS, Eq. 5 DR) against
//! the static `T = 2048` baseline and the empirically optimal `T_opt`.
//!
//! Paper shape to reproduce: `T_opt` improves a median of ~13.5 % (up to
//! ~20 %) over static; each model generation closes more of that gap, with
//! the DR selection landing near the `T_opt` median.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig6_tile_selection.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::fig6_tile_selection(Scale::from_env()));
}
