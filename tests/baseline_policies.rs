//! Cross-policy behavioural contracts: transfer-volume accounting, overlap
//! structure, and the performance orderings the paper's comparisons rely
//! on.

use cocopelia_gpusim::{testbed_i, testbed_ii, EngineKind, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_runtime::{AxpyRequest, Cocopelia, GemmRequest, MatOperand, TileChoice, VecOperand};

fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> cocopelia_core::profile::SystemProfile {
    cocopelia_core::profile::SystemProfile::new(
        "test",
        cocopelia_core::transfer::TransferModel {
            h2d: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn ghost(n: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows: n, cols: n }
}

#[test]
fn transfer_volumes_match_policy_definitions() {
    let n = 1024;
    let t = 256;
    let kt = n / t; // 4 tiles per dim
    let tile_bytes = t * t * 8;

    // CoCoPeLia / BLASX (full reuse): each matrix moves exactly once.
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    GemmRequest::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(t))
        .run(&mut ctx)
        .expect("runs");
    assert_eq!(
        ctx.gpu().trace().bytes_moved(EngineKind::CopyH2d),
        3 * n * n * 8
    );
    assert_eq!(
        ctx.gpu().trace().bytes_moved(EngineKind::CopyD2h),
        n * n * 8
    );

    // cuBLASXt (no reuse): 3 tiles in + 1 tile out per sub-kernel.
    let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
    cocopelia_baselines::cublasxt::gemm::<f64>(&mut gpu, 1.0, ghost(n), ghost(n), 1.0, ghost(n), t)
        .expect("runs");
    let k = kt * kt * kt;
    assert_eq!(
        gpu.trace().bytes_moved(EngineKind::CopyH2d),
        3 * k * tile_bytes
    );
    assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyD2h), k * tile_bytes);
}

#[test]
fn reuse_scheduler_beats_no_reuse_on_transfer_bound_problems() {
    // Full offload on the low-bandwidth testbed: reuse wins by a large
    // factor (the Fig. 7 full-offload ordering).
    let n = 2048;
    let t = 512;
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    let coco = GemmRequest::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(t))
        .run(&mut ctx)
        .expect("runs")
        .report
        .elapsed
        .as_secs_f64();
    let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
    let xt = cocopelia_baselines::cublasxt::gemm::<f64>(
        &mut gpu,
        1.0,
        ghost(n),
        ghost(n),
        1.0,
        ghost(n),
        t,
    )
    .expect("runs")
    .elapsed
    .as_secs_f64();
    assert!(xt > coco * 1.5, "cublasxt {xt} vs cocopelia {coco}");
}

#[test]
fn blasx_equals_cocopelia_at_the_same_tile() {
    // BLASX is the same reuse engine with a static tile: at T=2048 both
    // must produce identical schedules (and identical virtual times,
    // noise-free).
    let n = 4096;
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    let coco = GemmRequest::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(2048))
        .run(&mut ctx)
        .expect("runs")
        .report
        .elapsed;
    let mut blasx =
        cocopelia_baselines::Blasx::new(Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1));
    let bx = blasx
        .gemm::<f64>(1.0, ghost(n), ghost(n), 1.0, ghost(n))
        .expect("runs")
        .elapsed;
    assert_eq!(coco, bx);
}

#[test]
fn unified_memory_daxpy_pays_the_migration_penalty() {
    let n = 1 << 24;
    let mut gpu = Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1);
    let um = cocopelia_baselines::unified::daxpy_prefetch(
        &mut gpu,
        1.0,
        VecOperand::HostGhost { len: n },
        VecOperand::HostGhost { len: n },
    )
    .expect("runs")
    .elapsed
    .as_secs_f64();
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    let pinned = AxpyRequest::new(
        VecOperand::<f64>::HostGhost { len: n },
        VecOperand::HostGhost { len: n },
    )
    .alpha(1.0)
    .tile(TileChoice::Fixed(1 << 21))
    .run(&mut ctx)
    .expect("runs")
    .report
    .elapsed
    .as_secs_f64();
    // Pageable factor is 0.55: UM should be roughly 1.5-2x slower.
    assert!(um > pinned * 1.3, "um {um} vs pinned {pinned}");
    assert!(um < pinned * 3.0, "um {um} suspiciously slow vs {pinned}");
}

#[test]
fn serial_offload_is_the_slowest_policy() {
    let n = 2048;
    let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
    let serial =
        cocopelia_baselines::serial::gemm::<f64>(&mut gpu, 1.0, ghost(n), ghost(n), 1.0, ghost(n))
            .expect("runs")
            .elapsed
            .as_secs_f64();
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    let coco = GemmRequest::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .run(&mut ctx)
        .expect("runs")
        .report
        .elapsed
        .as_secs_f64();
    assert!(serial > coco);
}

#[test]
fn makespan_bounded_by_engine_work_and_critical_path() {
    // Schedule-sanity invariant: the makespan can never beat the busiest
    // engine, and never exceed the serial sum of all engine work.
    let n = 2048;
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1),
        dummy_profile(),
    );
    GemmRequest::new(ghost(n), ghost(n), ghost(n))
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .run(&mut ctx)
        .expect("runs");
    let trace = ctx.gpu().trace();
    let makespan = trace
        .entries()
        .iter()
        .map(|e| e.end.as_nanos())
        .max()
        .expect("entries");
    let busy: Vec<u64> = [
        EngineKind::CopyH2d,
        EngineKind::Compute,
        EngineKind::CopyD2h,
    ]
    .iter()
    .map(|&e| trace.engine_busy(e).as_nanos())
    .collect();
    let max_busy = *busy.iter().max().expect("engines");
    let sum_busy: u64 = busy.iter().sum();
    assert!(
        makespan >= max_busy,
        "makespan {makespan} < busiest engine {max_busy}"
    );
    assert!(
        makespan <= sum_busy,
        "makespan {makespan} > serial sum {sum_busy}"
    );
}
