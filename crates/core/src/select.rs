//! Tiling-size selection: the `CoCoPeLia_select` runtime of §IV-B.
//!
//! Given a problem, a model and the system's empirical sub-models, evaluate
//! the predicted offload time over the candidate grid of tiling sizes and
//! return the minimiser. The candidate grid is the exec table's measured
//! grid (the paper performs value lookups, §IV-A) filtered by the paper's
//! constraint `T ≤ min(D1, D2, D3)/1.5` (§V-B).

use crate::models::{predict, ModelCtx, ModelError, ModelKind, Prediction};
use std::sync::Arc;

/// Tiling-size selection policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSelector {
    /// Smallest tiling size ever considered (paper sweeps from 256).
    pub min_tile: usize,
    /// `T ≤ min_dim / constraint_divisor` (paper uses 1.5).
    pub constraint_divisor: f64,
}

impl Default for TileSelector {
    fn default() -> Self {
        TileSelector {
            min_tile: 256,
            constraint_divisor: 1.5,
        }
    }
}

/// Outcome of a tile selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen tiling size `T_best`.
    pub tile: usize,
    /// The winning prediction.
    pub prediction: Prediction,
    /// Every candidate evaluated, in ascending tile order (exposed so
    /// callers can plot the predicted curve — C-INTERMEDIATE). Shared:
    /// clones of one selection, such as every reuse of a cached one, point
    /// at the same curve.
    pub evaluated: Arc<[Prediction]>,
}

impl TileSelector {
    /// Candidate tiling sizes for the problem in `ctx`, ascending.
    ///
    /// Falls back to the largest grid size not exceeding `min_dim` (or
    /// `min_dim` itself) when the constraint admits no grid point, so small
    /// problems still get a usable tile.
    pub fn candidates(&self, ctx: &ModelCtx<'_>) -> Vec<usize> {
        let min_dim = ctx.problem.min_dim();
        let cap = (min_dim as f64 / self.constraint_divisor).floor() as usize;
        let mut grid: Vec<usize> = ctx
            .exec
            .tile_sizes()
            .filter(|&t| t >= self.min_tile && t <= cap)
            .collect();
        if !grid.is_empty() {
            // Non-square problems: a tile spanning the whole short dimension
            // still yields plenty of sub-kernels from the long dimensions,
            // so offer `min_dim` itself as a candidate alongside the
            // paper's `T ≤ min_dim/1.5` sweep grid.
            if ctx.problem.subkernels(min_dim) >= 4 && !grid.contains(&min_dim) {
                grid.push(min_dim);
            }
            return grid;
        }
        // Degenerate problems: take the largest grid point that fits, else
        // the problem's own smallest dimension (single tile per dim).
        match ctx.exec.tile_sizes().filter(|&t| t <= min_dim).last() {
            Some(t) => vec![t],
            None => vec![min_dim.max(1)],
        }
    }

    /// Evaluates `kind` over all candidates and returns the minimiser.
    ///
    /// # Errors
    ///
    /// Propagates the first model-evaluation failure
    /// (see [`predict`]).
    pub fn select(&self, kind: ModelKind, ctx: &ModelCtx<'_>) -> Result<Selection, ModelError> {
        let mut evaluated = Vec::new();
        for t in self.candidates(ctx) {
            evaluated.push(predict(kind, ctx, t)?);
        }
        let best = evaluated
            .iter()
            .min_by(|a, b| a.total.partial_cmp(&b.total).expect("finite predictions"))
            .copied()
            .expect("candidates is never empty");
        Ok(Selection {
            tile: best.tile,
            prediction: best,
            evaluated: evaluated.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::*;

    #[test]
    fn constraint_filters_grid() {
        let p = gemm_problem(1024);
        let tr = transfer();
        let ex = gemm_exec(); // grid 256..4096 step 256
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        let sel = TileSelector::default();
        let cands = sel.candidates(&ctx);
        // 1024/1.5 = 682 -> only 256 and 512 qualify.
        assert_eq!(cands, vec![256, 512]);
    }

    #[test]
    fn tiny_problem_falls_back_to_largest_fitting_grid_point() {
        let p = gemm_problem(300);
        let tr = transfer();
        let ex = gemm_exec();
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        let cands = TileSelector::default().candidates(&ctx);
        assert_eq!(cands, vec![256]);
    }

    #[test]
    fn microscopic_problem_uses_min_dim() {
        let p = gemm_problem(100);
        let tr = transfer();
        let ex = gemm_exec();
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        assert_eq!(TileSelector::default().candidates(&ctx), vec![100]);
    }

    #[test]
    fn select_returns_minimum_total() {
        let p = gemm_problem(8192);
        let tr = transfer();
        let ex = gemm_exec();
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        let sel = TileSelector::default()
            .select(crate::models::ModelKind::DataReuse, &ctx)
            .expect("selects");
        assert!(!sel.evaluated.is_empty());
        for e in sel.evaluated.iter() {
            assert!(sel.prediction.total <= e.total + 1e-15);
        }
        assert_eq!(sel.tile, sel.prediction.tile);
    }

    #[test]
    fn clones_share_the_evaluated_curve() {
        let p = gemm_problem(8192);
        let tr = transfer();
        let ex = gemm_exec();
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        let sel = TileSelector::default()
            .select(crate::models::ModelKind::DataReuse, &ctx)
            .expect("selects");
        let copy = sel.clone();
        assert!(Arc::ptr_eq(&sel.evaluated, &copy.evaluated));
        assert_eq!(copy, sel);
    }

    #[test]
    fn evaluated_curve_is_ascending_in_tile() {
        let p = gemm_problem(8192);
        let tr = transfer();
        let ex = gemm_exec();
        let ctx = ModelCtx {
            problem: &p,
            transfer: &tr,
            exec: &ex,
            full_kernel_time: None,
        };
        let sel = TileSelector::default()
            .select(crate::models::ModelKind::Bts, &ctx)
            .expect("selects");
        let tiles: Vec<usize> = sel.evaluated.iter().map(|e| e.tile).collect();
        let mut sorted = tiles.clone();
        sorted.sort_unstable();
        assert_eq!(tiles, sorted);
    }
}
