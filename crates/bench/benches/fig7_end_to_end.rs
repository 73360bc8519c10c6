//! Figure 7: end-to-end s/dgemm performance of CoCoPeLia (runtime tile
//! prediction) vs cuBLASXt (near-exhaustive best-of-N tiling sizes) vs
//! BLASX (static `T = 2048`), on both testbeds, highlighting the paper's
//! three scenarios: full offload, low-transfer (only `C` on the CPU), and
//! transfer-heavy fat-by-thin shapes.
//!
//! Paper shape to reproduce: BLASX wins over cuBLASXt on fat-by-thin,
//! cuBLASXt wins on low-transfer; CoCoPeLia matches or beats both
//! everywhere, with the largest margins on full offload and fat-by-thin and
//! on the testbed with the lower bandwidth/FLOP ratio.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig7_end_to_end.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::fig7_end_to_end(Scale::from_env()));
}
