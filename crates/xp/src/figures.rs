//! The paper's figures and tables as text: one function per bench target
//! of `cocopelia-bench`, returning exactly what that bench prints.
//!
//! Every run is seeded, so each function's text is deterministic; the
//! reduced-scale texts are pinned under `tests/golden/paper/`.

use crate::sets::{
    daxpy_eval_set, daxpy_tile_grid, daxpy_validation, gemm_eval_set, gemm_tile_grid,
    gemm_validation_shapes, gemm_validation_square,
};
use crate::{
    bar_chart, geomean_improvement_pct, rel_err_pct, AxpyLib, GemmLib, GemmProblem, Lab, Scale,
    TextTable, ViolinSummary,
};
use cocopelia_core::models::ModelKind;
use cocopelia_core::params::Loc;
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{
    synthetic_testbed, testbed_i, testbed_ii, EngineKind, ExecMode, Gpu, NoiseSpec, Trace,
};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{Cocopelia, GemmRequest, MatOperand, MultiGpu, TileChoice};
use std::fmt::Write;

/// Figure 1: effect of the tiling size on cuBLASXt dgemm performance, on
/// both testbeds, for several problem sizes — the motivation figure.
///
/// Reproduces the paper's observations: performance rises as `T` shrinks
/// (better overlap) up to one or two maxima, then collapses for small tiles;
/// the break-points move across testbeds and problem sizes; and the static
/// `T = 4096` choice loses against the per-problem best (up to 9.4 % /
/// 14.7 % on the paper's testbeds).
pub fn fig1_tiling_sweep(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 1: cuBLASXt dgemm performance vs tiling size T ===\n"
    );
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![8192, 12288, 16384],
        Scale::Reduced => vec![8192, 16384],
    };

    for testbed in [testbed_i(), testbed_ii()] {
        let lab = Lab::deploy(testbed);
        let _ = writeln!(out, "--- {} ---", lab.testbed.name);
        for &s in &sizes {
            let p = GemmProblem {
                dtype: Dtype::F64,
                m: s,
                n: s,
                k: s,
                loc_a: Loc::Host,
                loc_b: Loc::Host,
                loc_c: Loc::Host,
            };
            let grid = gemm_tile_grid(s, scale);
            let mut series = Vec::new();
            for &t in &grid {
                let run = lab
                    .run_gemm(&p, GemmLib::CublasXt(t), 0xF16 + t as u64)
                    .expect("sweep run");
                series.push((format!("T={t}"), run.gflops));
            }
            let (best_t, best) = series
                .iter()
                .map(|(l, g)| (l.clone(), *g))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("nonempty grid");
            let _ = writeln!(out, "\n{} (full offload):", p.label());
            let _ = writeln!(out, "{}", bar_chart(&series, 48, "GFLOP/s"));
            let _ = writeln!(out, "  best: {best_t} at {best:.1} GFLOP/s");
            if let Some((_, static_g)) = series.iter().find(|(l, _)| l == "T=4096") {
                let _ = writeln!(
                    out,
                    "  static T=4096: {static_g:.1} GFLOP/s ({:.1}% slowdown vs best)",
                    (1.0 - static_g / best) * 100.0
                );
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(paper: maxima shift across testbeds/problem sizes; static tiles lose up to ~14.7%)"
    );
    out
}

/// Fraction of `[w0, w1)` during which `engine` was busy.
fn utilisation(trace: &Trace, engine: EngineKind, w0: u64, w1: u64) -> f64 {
    let mut busy = 0u64;
    for e in trace.entries().iter().filter(|e| e.engine == engine) {
        let s = e.start.as_nanos().max(w0);
        let t = e.end.as_nanos().min(w1);
        if t > s {
            busy += t - s;
        }
    }
    busy as f64 / (w1 - w0) as f64
}

/// Figure 2: the anatomy of a level-3 schedule with data reuse.
///
/// The paper's figure shows that such a problem is initially
/// *transfer-bound* (the h2d engine saturated, compute waiting for tiles)
/// and becomes *execution-bound* once reuse kicks in (tiles already
/// resident, compute saturated, the link going quiet). This bench
/// reproduces the figure quantitatively from the simulator's execution
/// trace: per-time-window engine utilisation across the makespan.
pub fn fig2_reuse_anatomy() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 2: reuse pipeline anatomy (dgemm 8192^3, T=1024, Testbed I) ===\n"
    );
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let dummy = SystemProfile::new(
        "fig2",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    );
    let mut ctx = Cocopelia::new(Gpu::new(tb, ExecMode::TimingOnly, 2), dummy);
    ctx.gpu_mut().keep_trace_from(0);
    let n = 8192;
    GemmRequest::new(
        MatOperand::<f64>::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(1024))
    .run(&mut ctx)
    .expect("runs");
    let trace = ctx.gpu().trace();
    let end = trace
        .entries()
        .iter()
        .map(|e| e.end.as_nanos())
        .max()
        .expect("entries");

    let windows = 10usize;
    let mut table = TextTable::new(vec!["window", "h2d busy", "exec busy", "d2h busy", "phase"]);
    let mut first_phase = None;
    let mut last_phase = None;
    for w in 0..windows {
        let w0 = end * w as u64 / windows as u64;
        let w1 = end * (w as u64 + 1) / windows as u64;
        let h2d = utilisation(trace, EngineKind::CopyH2d, w0, w1);
        let exec = utilisation(trace, EngineKind::Compute, w0, w1);
        let d2h = utilisation(trace, EngineKind::CopyD2h, w0, w1);
        let phase = if h2d > exec {
            "transfer-bound"
        } else {
            "execution-bound"
        };
        first_phase.get_or_insert(phase);
        last_phase = Some(phase);
        table.row(vec![
            format!("{}-{}%", w * 10, (w + 1) * 10),
            format!("{:5.1}%", h2d * 100.0),
            format!("{:5.1}%", exec * 100.0),
            format!("{:5.1}%", d2h * 100.0),
            phase.to_owned(),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "start: {}  ->  end: {}",
        first_phase.expect("windows"),
        last_phase.expect("windows")
    );
    let _ = writeln!(
        out,
        "(paper Fig. 2: initially transfer-bound; h2d transfers decrease due to data"
    );
    let _ = writeln!(out, " reuse and the problem becomes execution-bound)");
    out
}

/// Figure 4: relative prediction error of the BTS-Model (Eq. 4) vs the
/// CSO-Model of prior work, validated on implementations **without** data
/// reuse: the CoCoPeLia daxpy (level-1 BLAS has no reuse) and the
/// cuBLASXt-policy s/dgemm, on both testbeds.
///
/// Paper shape to reproduce: daxpy — BTS median error ~1–2 %, CSO
/// underpredicts at −3…−7 %; gemm — CSO underpredicts heavily (−20…−34 %
/// medians), BTS markedly closer with less underprediction bias.
pub fn fig4_model_error_noreuse(scale: Scale, debug: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 4: model error on non-reuse implementations ==="
    );
    let _ = writeln!(out, "    (error% = 100*(predicted - measured)/measured)\n");

    for testbed in [testbed_i(), testbed_ii()] {
        let lab = Lab::deploy(testbed);
        let _ = writeln!(out, "--- {} ---", lab.testbed.name);

        // daxpy: measured through the CoCoPeLia pipeline (no reuse exists).
        let mut errs: Vec<(ModelKind, Vec<f64>)> =
            vec![(ModelKind::Bts, Vec::new()), (ModelKind::Cso, Vec::new())];
        for p in daxpy_validation(scale) {
            let full = lab.full_kernel_daxpy(&p, 7);
            for t in daxpy_tile_grid(p.n, scale) {
                let measured = lab
                    .run_daxpy(&p, AxpyLib::Cocopelia(TileChoice::Fixed(t)), 11 + t as u64)
                    .expect("measured run")
                    .secs;
                for (model, samples) in &mut errs {
                    let fk = (*model == ModelKind::Cso).then_some(full);
                    let pred = lab.predict_daxpy(&p, *model, t, fk).expect("prediction");
                    samples.push(rel_err_pct(pred.total, measured));
                }
            }
        }
        let _ = writeln!(out, "daxpy:");
        for (model, samples) in &errs {
            let _ = writeln!(
                out,
                "  {:<15} {}",
                model.name(),
                ViolinSummary::of(samples).render()
            );
        }

        // s/dgemm through the cuBLASXt policy (no reuse).
        for dtype in [Dtype::F64, Dtype::F32] {
            let mut errs: Vec<(ModelKind, Vec<f64>)> =
                vec![(ModelKind::Bts, Vec::new()), (ModelKind::Cso, Vec::new())];
            let mut problems = gemm_validation_square(dtype, scale);
            problems.extend(gemm_validation_shapes(dtype, scale));
            for p in problems {
                let full = lab.full_kernel_gemm(&p, 13);
                for t in gemm_tile_grid(p.m.min(p.n).min(p.k), scale) {
                    let measured = lab
                        .run_gemm(&p, GemmLib::CublasXt(t), 17 + t as u64)
                        .expect("measured run")
                        .secs;
                    for (model, samples) in &mut errs {
                        let fk = (*model == ModelKind::Cso).then_some(full);
                        let pred = lab.predict_gemm(&p, *model, t, fk).expect("prediction");
                        let e = rel_err_pct(pred.total, measured);
                        if debug && e.abs() > 25.0 {
                            let _ =
                                writeln!(out,
                                "    [{}] {} T={t}: pred {:.4}s meas {measured:.4}s err {e:+.1}%",
                                model.name(),
                                p.label(),
                                pred.total
                            );
                        }
                        samples.push(e);
                    }
                }
            }
            let _ = writeln!(out, "{}gemm (cuBLASXt policy):", dtype.blas_prefix());
            for (model, samples) in &errs {
                let _ = writeln!(
                    out,
                    "  {:<15} {}",
                    model.name(),
                    ViolinSummary::of(samples).render()
                );
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(paper: daxpy BTS med 1-2%, CSO med -3..-7%; gemm CSO med -20..-34%, BTS -10..-15%)"
    );
    out
}

/// Figure 5: relative prediction error of the DR-Model (Eq. 5) vs the
/// CSO-Model, validated on the CoCoPeLia s/dgemm implementation, which has
/// near-optimal data reuse, on both testbeds.
///
/// Paper shape to reproduce: CSO still underpredicts (medians −7…−15 %,
/// tails to −60 %); DR lands at +2…+5 % medians with occasional
/// overestimation tails; errors are larger for sgemm (smaller footprint →
/// more second-order noise) and on Testbed II (V100 kernel spikes the
/// model does not capture).
pub fn fig5_model_error_reuse(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 5: model error on the CoCoPeLia (reuse) implementation ==="
    );
    let _ = writeln!(out, "    (error% = 100*(predicted - measured)/measured)\n");

    for testbed in [testbed_i(), testbed_ii()] {
        let lab = Lab::deploy(testbed);
        let _ = writeln!(out, "--- {} ---", lab.testbed.name);
        for dtype in [Dtype::F64, Dtype::F32] {
            let mut errs: Vec<(ModelKind, Vec<f64>)> = vec![
                (ModelKind::DataReuse, Vec::new()),
                (ModelKind::Cso, Vec::new()),
            ];
            let mut problems = gemm_validation_square(dtype, scale);
            problems.extend(gemm_validation_shapes(dtype, scale));
            for p in problems {
                let full = lab.full_kernel_gemm(&p, 29);
                for t in gemm_tile_grid(p.m.min(p.n).min(p.k), scale) {
                    let measured = lab
                        .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Fixed(t)), 31 + t as u64)
                        .expect("measured run")
                        .secs;
                    for (model, samples) in &mut errs {
                        let fk = (*model == ModelKind::Cso).then_some(full);
                        let pred = lab.predict_gemm(&p, *model, t, fk).expect("prediction");
                        samples.push(rel_err_pct(pred.total, measured));
                    }
                }
            }
            let _ = writeln!(
                out,
                "{}gemm (CoCoPeLia implementation):",
                dtype.blas_prefix()
            );
            for (model, samples) in &errs {
                let _ = writeln!(
                    out,
                    "  {:<15} {}",
                    model.name(),
                    ViolinSummary::of(samples).render()
                );
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(paper: DR med +2..+5%; CSO med -7..-15% with tails to -60%)"
    );
    out
}

/// Figure 6: quality of CoCoPeLia's tiling-size selection on Testbed II for
/// dgemm and sgemm: measured performance of the `T` chosen by each model
/// generation (Eq. 1 Baseline, Eq. 2 Dataloc, Eq. 4 BTS, Eq. 5 DR) against
/// the static `T = 2048` baseline and the empirically optimal `T_opt`.
///
/// Paper shape to reproduce: `T_opt` improves a median of ~13.5 % (up to
/// ~20 %) over static; each model generation closes more of that gap, with
/// the DR selection landing near the `T_opt` median.
pub fn fig6_tile_selection(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 6: tiling-size selection quality (Testbed II) ===\n"
    );
    let lab = Lab::deploy(testbed_ii());
    let models = [
        ModelKind::Baseline,
        ModelKind::DataLoc,
        ModelKind::Bts,
        ModelKind::DataReuse,
    ];

    for dtype in [Dtype::F64, Dtype::F32] {
        let mut problems = gemm_validation_square(dtype, scale);
        problems.extend(gemm_validation_shapes(dtype, scale));
        let mut table = TextTable::new(vec![
            "problem",
            "static T=2048",
            "T_opt",
            "gain%",
            "Eq.1",
            "Eq.2",
            "Eq.4",
            "Eq.5(DR)",
        ]);
        // Per-model speedup-vs-static samples for the summary.
        let mut gains: Vec<Vec<f64>> = vec![Vec::new(); models.len() + 1];
        for p in &problems {
            let min_dim = p.m.min(p.n).min(p.k);
            let static_t = 2048.min(min_dim);
            let static_run = lab
                .run_gemm(p, GemmLib::Cocopelia(TileChoice::Fixed(static_t)), 41)
                .expect("static run");
            // Exhaustive search over the measured grid, plus the short-
            // dimension tile the selector may also consider.
            let mut grid = gemm_tile_grid(min_dim, scale);
            if !grid.contains(&min_dim) {
                grid.push(min_dim);
            }
            let mut best = static_run;
            for t in grid {
                let run = lab
                    .run_gemm(p, GemmLib::Cocopelia(TileChoice::Fixed(t)), 43 + t as u64)
                    .expect("grid run");
                if run.gflops > best.gflops {
                    best = run;
                }
            }
            gains[0].push((best.gflops / static_run.gflops - 1.0) * 100.0);
            let mut cells = vec![
                p.label(),
                format!("{:.0}", static_run.gflops),
                format!("T={} {:.0}", best.tile, best.gflops),
                format!("{:+.1}", (best.gflops / static_run.gflops - 1.0) * 100.0),
            ];
            for (mi, model) in models.iter().enumerate() {
                let run = lab
                    .run_gemm(p, GemmLib::Cocopelia(TileChoice::Model(*model)), 47)
                    .expect("model-selected run");
                gains[mi + 1].push((run.gflops / static_run.gflops - 1.0) * 100.0);
                cells.push(format!("T={} {:.0}", run.tile, run.gflops));
            }
            table.row(cells);
        }
        let _ = writeln!(
            out,
            "{}gemm — measured GFLOP/s per selection policy:",
            dtype.blas_prefix()
        );
        let _ = writeln!(out, "{}", table.render());
        let _ = writeln!(out, "improvement over static T=2048 (%):");
        let _ = writeln!(
            out,
            "  {:<12} {}",
            "T_opt",
            ViolinSummary::of(&gains[0]).render()
        );
        for (mi, model) in models.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<12} {}",
                model.name(),
                ViolinSummary::of(&gains[mi + 1]).render()
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(paper: T_opt median +13.5%/max +20%; Eq.1 +7%, Eq.2 +12%, DR near T_opt)"
    );
    out
}

/// The tiles cuBLASXt is measured at: a near-exhaustive search, as in §V-E
/// ("we test 10 different tiling sizes and choose the best for each
/// problem").
fn cublasxt_picks(p: &GemmProblem, scale: Scale) -> Vec<usize> {
    let grid = gemm_tile_grid(p.m.min(p.n).min(p.k), scale);
    if grid.len() <= 10 {
        grid
    } else {
        let stride = grid.len() as f64 / 10.0;
        (0..10)
            .map(|i| grid[(i as f64 * stride) as usize])
            .collect()
    }
}

/// cuBLASXt's best tile and GFLOP/s over [`cublasxt_picks`].
fn cublasxt_best(lab: &Lab, p: &GemmProblem, scale: Scale) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for t in cublasxt_picks(p, scale) {
        let run = lab
            .run_gemm(p, GemmLib::CublasXt(t), 53 + t as u64)
            .expect("xt run");
        if run.gflops > best.1 {
            best = (t, run.gflops);
        }
    }
    best
}

fn scenario_problems(dtype: Dtype, scale: Scale) -> Vec<(&'static str, GemmProblem)> {
    let sizes: Vec<usize> = match scale {
        Scale::Full => (8..=32).step_by(4).map(|i| i * 512).collect(),
        Scale::Reduced => vec![6144, 8192, 12288],
    };
    let mut v = Vec::new();
    for &s in &sizes {
        v.push((
            "full offload",
            GemmProblem {
                dtype,
                m: s,
                n: s,
                k: s,
                loc_a: Loc::Host,
                loc_b: Loc::Host,
                loc_c: Loc::Host,
            },
        ));
        v.push((
            "low transfer (C on CPU)",
            GemmProblem {
                dtype,
                m: s,
                n: s,
                k: s,
                loc_a: Loc::Device,
                loc_b: Loc::Device,
                loc_c: Loc::Host,
            },
        ));
    }
    for p in gemm_validation_shapes(dtype, scale) {
        if p.m > p.k {
            v.push(("fat-by-thin", p));
        }
    }
    v
}

/// Figure 7: end-to-end s/dgemm performance of CoCoPeLia (runtime tile
/// prediction) vs cuBLASXt (near-exhaustive best-of-N tiling sizes) vs
/// BLASX (static `T = 2048`), on both testbeds, highlighting the paper's
/// three scenarios: full offload, low-transfer (only `C` on the CPU), and
/// transfer-heavy fat-by-thin shapes.
///
/// Paper shape to reproduce: BLASX wins over cuBLASXt on fat-by-thin,
/// cuBLASXt wins on low-transfer; CoCoPeLia matches or beats both
/// everywhere, with the largest margins on full offload and fat-by-thin and
/// on the testbed with the lower bandwidth/FLOP ratio.
pub fn fig7_end_to_end(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Figure 7: end-to-end library comparison ===\n");
    for testbed in [testbed_i(), testbed_ii()] {
        let lab = Lab::deploy(testbed);
        let _ = writeln!(out, "--- {} ---", lab.testbed.name);
        for dtype in [Dtype::F64, Dtype::F32] {
            let mut table = TextTable::new(vec![
                "scenario",
                "problem",
                "CoCoPeLia (auto)",
                "cuBLASXt (best T)",
                "BLASX (T=2048)",
                "winner",
            ]);
            for (scenario, p) in scenario_problems(dtype, scale) {
                let coco = lab
                    .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Auto), 59)
                    .expect("cocopelia run");
                let (xt_t, xt_g) = cublasxt_best(&lab, &p, scale);
                let blasx = lab.run_gemm(&p, GemmLib::Blasx, 61).expect("blasx run");
                let winner = if coco.gflops >= xt_g && coco.gflops >= blasx.gflops {
                    "CoCoPeLia"
                } else if xt_g >= blasx.gflops {
                    "cuBLASXt"
                } else {
                    "BLASX"
                };
                table.row(vec![
                    scenario.to_owned(),
                    p.label(),
                    format!("{:.0} (T={})", coco.gflops, coco.tile),
                    format!("{:.0} (T={})", xt_g, xt_t),
                    format!("{:.0}", blasx.gflops),
                    winner.to_owned(),
                ]);
            }
            let _ = writeln!(out, "{}gemm GFLOP/s:", dtype.blas_prefix());
            let _ = writeln!(out, "{}", table.render());
        }
    }
    let _ = writeln!(
        out,
        "(paper: CoCoPeLia >= both everywhere; biggest margins on full offload & fat-by-thin)"
    );
    out
}

/// Table II (plus the Table III testbed description): the fitted transfer
/// sub-models for the two testbeds, produced by the §IV-A micro-benchmark +
/// least-squares deployment pipeline, compared against the simulator's
/// ground-truth link parameters.
pub fn table2_transfer_fit() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Table III: testbed description ===\n");
    let mut spec_table = TextTable::new(vec![
        "testbed",
        "GPU",
        "FP64 peak",
        "FP32 peak",
        "mem BW",
        "capacity",
        "SMs",
    ]);
    for tb in [testbed_i(), testbed_ii()] {
        spec_table.row(vec![
            tb.name.clone(),
            tb.gpu.name.clone(),
            format!("{:.2} TF/s", tb.gpu.fp64_peak_flops / 1e12),
            format!("{:.2} TF/s", tb.gpu.fp32_peak_flops / 1e12),
            format!("{:.0} GB/s", tb.gpu.mem_bandwidth_bps / 1e9),
            format!("{} GiB", tb.gpu.mem_capacity_bytes >> 30),
            tb.gpu.sm_count.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", spec_table.render());

    let _ = writeln!(out, "=== Table II: fitted transfer sub-models ===\n");
    let mut table = TextTable::new(vec![
        "system",
        "dir",
        "t_l (us)",
        "1/t_b (GB/s)",
        "RSE",
        "1/t_b bid (GB/s)",
        "RSE bid",
        "sl",
        "sl truth",
    ]);
    for tb in [testbed_i(), testbed_ii()] {
        let truth_sl = [tb.link.sl_h2d_bid, tb.link.sl_d2h_bid];
        let (lab, fit) = Lab::deploy_with_fit(tb);
        for (i, (dir, f)) in [("h2d", fit.h2d), ("d2h", fit.d2h)].into_iter().enumerate() {
            table.row(vec![
                lab.testbed.name.clone(),
                dir.to_owned(),
                format!("{:.2}", f.t_l * 1e6),
                format!("{:.2}", 1.0 / f.t_b / 1e9),
                format!("{:.1e}", f.rse),
                format!("{:.2}", 1.0 / f.t_b_bid / 1e9),
                format!("{:.1e}", f.rse_bid),
                format!("{:.2}", f.sl),
                format!("{:.2}", truth_sl[i]),
            ]);
        }
    }
    let _ = writeln!(out, "{}", table.render());
    let _ =
        writeln!(out,
        "(paper Table II: TB-I 3.15/3.29 GB/s, sl 1.0/1.16; TB-II 12.18/12.98 GB/s, sl 1.27/1.41)"
    );
    out
}

/// cuBLASXt's best time over [`cublasxt_picks`].
fn cublasxt_best_secs(lab: &Lab, p: &GemmProblem, scale: Scale) -> f64 {
    cublasxt_picks(p, scale)
        .into_iter()
        .map(|t| {
            lab.run_gemm(p, GemmLib::CublasXt(t), 67 + t as u64)
                .expect("xt run")
                .secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Table IV: mean percentile improvement of CoCoPeLia over the best of the
/// two comparator libraries per problem (geometric mean of time ratios),
/// split into full-offload and partial-offload cases, for dgemm, sgemm and
/// daxpy on both testbeds.
///
/// Paper shape to reproduce: +16…33 % on full offload, +5…15 % on partial
/// offload; daxpy (vs the unified-memory prefetch comparator) improves on
/// both testbeds.
pub fn table4_improvement(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Table IV: geo-mean % improvement of CoCoPeLia over the best other library ===\n"
    );
    let mut table = TextTable::new(vec![
        "testbed",
        "routine",
        "full offload",
        "partial offload",
    ]);
    for testbed in [testbed_i(), testbed_ii()] {
        let lab = Lab::deploy(testbed);
        for dtype in [Dtype::F64, Dtype::F32] {
            let mut full = Vec::new();
            let mut partial = Vec::new();
            for p in gemm_eval_set(dtype, scale) {
                let coco = lab
                    .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Auto), 71)
                    .expect("cocopelia run")
                    .secs;
                let xt = cublasxt_best_secs(&lab, &p, scale);
                let blasx = lab
                    .run_gemm(&p, GemmLib::Blasx, 73)
                    .expect("blasx run")
                    .secs;
                let best_other = xt.min(blasx);
                let speedup = best_other / coco;
                if p.full_offload() {
                    full.push(speedup);
                } else {
                    partial.push(speedup);
                }
            }
            table.row(vec![
                lab.testbed.name.clone(),
                format!("{}gemm", dtype.blas_prefix()),
                format!("{:+.1}%", geomean_improvement_pct(&full)),
                format!("{:+.1}%", geomean_improvement_pct(&partial)),
            ]);
        }
        // daxpy vs the unified-memory prefetch comparator.
        let mut full = Vec::new();
        let mut partial = Vec::new();
        for p in daxpy_eval_set(scale) {
            let coco = lab
                .run_daxpy(&p, AxpyLib::Cocopelia(TileChoice::Auto), 79)
                .expect("cocopelia daxpy")
                .secs;
            // The UM comparator only exists for host-resident managed data.
            if !p.full_offload() {
                continue;
            }
            let um = lab
                .run_daxpy(&p, AxpyLib::UnifiedPrefetch, 83)
                .expect("um daxpy")
                .secs;
            let speedup = um / coco;
            if p.full_offload() {
                full.push(speedup);
            } else {
                partial.push(speedup);
            }
        }
        table.row(vec![
            lab.testbed.name.clone(),
            "daxpy (vs UM+prefetch)".to_owned(),
            format!("{:+.1}%", geomean_improvement_pct(&full)),
            if partial.is_empty() {
                "n/a".to_owned()
            } else {
                format!("{:+.1}%", geomean_improvement_pct(&partial))
            },
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "(paper Table IV: gemm +16..33% full offload, +5..15% partial offload)"
    );
    out
}

/// Ablation (beyond the paper's figures, motivated by §II-A's warning that
/// "static tiling sizes offer no performance guarantee for future machines
/// with different transfer bandwidth/computation ratios"):
///
/// sweep synthetic machines whose link bandwidth is scaled relative to
/// Testbed II and compare, per model generation, the measured performance
/// of the selected tiling size against the empirical optimum and against
/// static `T = 2048`. Shows which model term (location, bidirectional
/// slowdown, reuse) earns its keep as the machine balance shifts.
pub fn ablation_model_terms(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Ablation: model terms across machine balance (dgemm 8192^3, A,C on host) ===\n"
    );
    let p = GemmProblem {
        dtype: Dtype::F64,
        m: 8192,
        n: 8192,
        k: 8192,
        loc_a: Loc::Host,
        loc_b: Loc::Device,
        loc_c: Loc::Host,
    };
    let scales: &[f64] = match scale {
        Scale::Full => &[0.25, 0.5, 1.0, 2.0, 4.0],
        Scale::Reduced => &[0.25, 1.0, 4.0],
    };
    let models = [
        ModelKind::Baseline,
        ModelKind::DataLoc,
        ModelKind::Bts,
        ModelKind::DataReuse,
    ];
    let mut table = TextTable::new(vec![
        "link x",
        "static 2048",
        "T_opt",
        "Eq.1",
        "Eq.2",
        "Eq.4",
        "Eq.5(DR)",
    ]);
    for &bw in scales {
        let lab = Lab::deploy(synthetic_testbed(bw));
        let static_run = lab
            .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Fixed(2048)), 89)
            .expect("static run");
        let mut best = static_run;
        for t in gemm_tile_grid(8192, scale) {
            let run = lab
                .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Fixed(t)), 91 + t as u64)
                .expect("grid run");
            if run.gflops > best.gflops {
                best = run;
            }
        }
        let mut cells = vec![
            format!("{bw:.2}"),
            format!("{:.0}", static_run.gflops),
            format!("T={} {:.0}", best.tile, best.gflops),
        ];
        for model in models {
            let run = lab
                .run_gemm(&p, GemmLib::Cocopelia(TileChoice::Model(model)), 97)
                .expect("model run");
            cells.push(format!(
                "T={} {:.0} ({:.1}% of opt)",
                run.tile,
                run.gflops,
                100.0 * run.gflops / best.gflops
            ));
        }
        table.row(cells);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "(expected: the DR selection tracks T_opt across the bandwidth sweep; the"
    );
    let _ = writeln!(
        out,
        " location-blind Eq.1 and static tile degrade as the link slows)"
    );
    out
}

/// Extension experiment (the paper's §VI future work): multi-GPU strong
/// scaling of the CoCoPeLia dgemm with per-device tiling-size selection.
///
/// `C` is split column-wise across 1–8 identical devices (independent PCIe
/// links, DGX-style). `A` is replicated, so the transfer volume grows with
/// the device count and strong scaling is sub-linear — the autotuner
/// responds by shrinking the tile as the per-device sub-problem narrows.
pub fn ext_multigpu_scaling(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Extension: multi-GPU strong scaling (dgemm, Testbed II devices) ===\n"
    );
    let lab = Lab::deploy(testbed_ii());
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![8192, 16384],
        Scale::Reduced => vec![8192],
    };
    for n in sizes {
        let mut table = TextTable::new(vec![
            "devices",
            "makespan (ms)",
            "aggregate GFLOP/s",
            "speedup",
            "efficiency",
            "tiles used",
        ]);
        let mut base = None;
        for g in [1usize, 2, 4, 8] {
            let mut mg = MultiGpu::new(
                &lab.testbed,
                g,
                ExecMode::TimingOnly,
                21,
                lab.profile.clone(),
            );
            let run = mg.gemm_ghost(n, n, n, TileChoice::Auto).expect("runs");
            let secs = run.elapsed.as_secs_f64();
            let base_secs = *base.get_or_insert(secs);
            let tiles: Vec<String> = run.per_device.iter().map(|r| r.tile.to_string()).collect();
            table.row(vec![
                g.to_string(),
                format!("{:.1}", secs * 1e3),
                format!("{:.0}", run.gflops()),
                format!("{:.2}x", base_secs / secs),
                format!("{:.0}%", 100.0 * base_secs / secs / g as f64),
                tiles.join(","),
            ]);
        }
        let _ = writeln!(out, "dgemm {n}x{n}x{n}, full offload:");
        let _ = writeln!(out, "{}", table.render());
    }
    let _ = writeln!(
        out,
        "(A replication makes strong scaling sub-linear; the selector narrows T as"
    );
    let _ = writeln!(out, " the per-device column block shrinks)");
    out
}
