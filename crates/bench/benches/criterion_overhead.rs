//! §IV-B overhead claims, measured with Criterion on the *host* (these are
//! the only real-wall-clock benchmarks in the suite): "model initialization
//! [takes] 2-3 ms and prediction time [is] negligible (less than 100 µs)".
//!
//! `model_init_and_select` covers the cold path (building the model context
//! and scanning the full candidate grid); `cached_selection` covers the
//! §IV-C model-reuse path; `single_prediction` is one Eq. 5 evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cocopelia_core::models::{predict, ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_core::select::TileSelector;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_ii, ExecMode, Gpu};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::Cocopelia;

fn overhead_benches(c: &mut Criterion) {
    let report = deploy(&testbed_ii(), &DeployConfig::paper()).expect("deploys");
    let profile = report.profile;
    let problem = ProblemSpec::gemm(
        Dtype::F64,
        16384,
        16384,
        16384,
        Loc::Host,
        Loc::Host,
        Loc::Host,
        true,
    );
    let exec = profile
        .exec_table(problem.routine, problem.dtype)
        .expect("gemm table present")
        .clone();

    c.bench_function("model_init_and_select", |b| {
        b.iter(|| {
            let ctx = ModelCtx {
                problem: black_box(&problem),
                transfer: &profile.transfer,
                exec: &exec,
                full_kernel_time: None,
            };
            TileSelector
                .select(ModelKind::DataReuse, &ctx)
                .expect("selects")
                .tile
        })
    });

    c.bench_function("single_prediction", |b| {
        let ctx = ModelCtx {
            problem: &problem,
            transfer: &profile.transfer,
            exec: &exec,
            full_kernel_time: None,
        };
        b.iter(|| {
            predict(ModelKind::DataReuse, black_box(&ctx), 2048)
                .expect("predicts")
                .total
        })
    });

    c.bench_function("cached_selection", |b| {
        let gpu = Gpu::new(testbed_ii(), ExecMode::TimingOnly, 1);
        let mut ctx = Cocopelia::new(gpu, profile.clone());
        // Prime the cache once.
        ctx.select_tile(&problem, ModelKind::DataReuse)
            .expect("selects");
        b.iter(|| {
            ctx.select_tile(black_box(&problem), ModelKind::DataReuse)
                .expect("cached")
                .tile
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = overhead_benches
}
criterion_main!(benches);
