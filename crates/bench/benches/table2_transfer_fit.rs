//! Table II (plus the Table III testbed description): the fitted transfer
//! sub-models for the two testbeds, produced by the §IV-A micro-benchmark +
//! least-squares deployment pipeline, compared against the simulator's
//! ground-truth link parameters.
//!
//! The text comes from [`cocopelia_xp::figures`]; its reduced-scale output
//! is pinned by `tests/golden/paper/table2_transfer_fit.txt`.

use cocopelia_xp::figures;

fn main() {
    print!("{}", figures::table2_transfer_fit());
}
