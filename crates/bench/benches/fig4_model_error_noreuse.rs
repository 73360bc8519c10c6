//! Figure 4: relative prediction error of the BTS-Model (Eq. 4) vs the
//! CSO-Model of prior work, validated on implementations **without** data
//! reuse: the CoCoPeLia daxpy (level-1 BLAS has no reuse) and the
//! cuBLASXt-policy s/dgemm, on both testbeds.
//!
//! Paper shape to reproduce: daxpy — BTS median error ~1–2 %, CSO
//! underpredicts at −3…−7 %; gemm — CSO underpredicts heavily (−20…−34 %
//! medians), BTS markedly closer with less underprediction bias.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/fig4_model_error_noreuse.txt`.

use cocopelia_xp::figures;
use cocopelia_xp::Scale;

fn main() {
    print!(
        "{}",
        figures::fig4_model_error_noreuse(
            Scale::from_env(),
            std::env::var_os("COCOPELIA_DEBUG").is_some(),
        )
    );
}
