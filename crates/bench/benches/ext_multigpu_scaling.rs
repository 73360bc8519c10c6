//! Extension experiment (the paper's §VI future work): multi-GPU strong
//! scaling of the CoCoPeLia dgemm with per-device tiling-size selection.
//!
//! `C` is split column-wise across 1–8 identical devices (independent PCIe
//! links, DGX-style). `A` is replicated, so the transfer volume grows with
//! the device count and strong scaling is sub-linear — the autotuner
//! responds by shrinking the tile as the per-device sub-problem narrows.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/ext_multigpu_scaling.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::ext_multigpu_scaling(Scale::from_env()));
}
