//! Figure 2: the anatomy of a level-3 schedule with data reuse.
//!
//! The paper's figure shows that such a problem is initially
//! *transfer-bound* (the h2d engine saturated, compute waiting for tiles)
//! and becomes *execution-bound* once reuse kicks in (tiles already
//! resident, compute saturated, the link going quiet). This bench
//! reproduces the figure quantitatively from the simulator's execution
//! trace: per-time-window engine utilisation across the makespan.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig2_reuse_anatomy.txt`.

use cocopelia_xp::figures;

fn main() {
    print!("{}", figures::fig2_reuse_anatomy());
}
