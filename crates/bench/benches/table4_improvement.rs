//! Table IV: mean percentile improvement of CoCoPeLia over the best of the
//! two comparator libraries per problem (geometric mean of time ratios),
//! split into full-offload and partial-offload cases, for dgemm, sgemm and
//! daxpy on both testbeds.
//!
//! Paper shape to reproduce: +16…33 % on full offload, +5…15 % on partial
//! offload; daxpy (vs the unified-memory prefetch comparator) improves on
//! both testbeds.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/table4_improvement.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::table4_improvement(Scale::from_env()));
}
