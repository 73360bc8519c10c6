//! Figure 1: effect of the tiling size on cuBLASXt dgemm performance, on
//! both testbeds, for several problem sizes — the motivation figure.
//!
//! Reproduces the paper's observations: performance rises as `T` shrinks
//! (better overlap) up to one or two maxima, then collapses for small tiles;
//! the break-points move across testbeds and problem sizes; and the static
//! `T = 4096` choice loses against the per-problem best (up to 9.4 % /
//! 14.7 % on the paper's testbeds).
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig1_tiling_sweep.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::fig1_tiling_sweep(Scale::from_env()));
}
