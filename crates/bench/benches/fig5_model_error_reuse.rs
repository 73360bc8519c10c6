//! Figure 5: relative prediction error of the DR-Model (Eq. 5) vs the
//! CSO-Model, validated on the CoCoPeLia s/dgemm implementation, which has
//! near-optimal data reuse, on both testbeds.
//!
//! Paper shape to reproduce: CSO still underpredicts (medians −7…−15 %,
//! tails to −60 %); DR lands at +2…+5 % medians with occasional
//! overestimation tails; errors are larger for sgemm (smaller footprint →
//! more second-order noise) and on Testbed II (V100 kernel spikes the
//! model does not capture).
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig5_model_error_reuse.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!("{}", figures::fig5_model_error_reuse(Scale::from_env()));
}
