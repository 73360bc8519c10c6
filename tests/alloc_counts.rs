//! Exact heap-allocation counts of the hot library and serving paths.
//!
//! Host time on a shared box moves by integer factors between runs, so a
//! wall-clock figure cannot gate a regression. Allocation counts are
//! deterministic: this binary installs a counting global allocator and
//! pins the count of each scenario exactly. A change that adds an
//! allocation to one of these paths fails here; a change that removes
//! some re-pins the lower count.
//!
//! Counts are thread-local, so the test harness's other threads (and the
//! other tests of this binary, which run in parallel) never count. Each
//! scenario warms its path up first, then counts one run. An allocation
//! is one `alloc`, `alloc_zeroed` or `realloc` call; frees are not
//! counted.
//!
//! Setting: quiet Testbed I, a quick deployment, dgemm 512³ at a fixed
//! 512 tile (one subkernel), shared `A`/`B` operands when served.

use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_runtime::serve::{
    ExecutorConfig, SchedulePolicy, ServeOptions, ServeReport, ServeSession,
};
use cocopelia_runtime::{
    Cocopelia, GemmRequest, MatArg, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// The system allocator, counting the calls that allocate on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs, with `f`'s result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Pinned counts. Debug and release builds allocate identically on these
/// paths, so one figure serves both.
const DIRECT_CALL: u64 = 57;
const FIFO_REQUEST: u64 = 230;
/// A Predictive dispatch prices every queued request on every device, so
/// its allocations grow with the queue: about 7 100 per request at 250
/// queued and 14 100 at 500.
const PREDICTIVE_250: u64 = 1_776_752;
const PREDICTIVE_500: u64 = 7_053_255;

fn quiet_testbed() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

/// One quick deployment, shared by every scenario.
fn profile() -> &'static cocopelia_core::SystemProfile {
    static PROFILE: OnceLock<cocopelia_core::SystemProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        deploy(&quiet_testbed(), &DeployConfig::quick())
            .expect("quick deployment")
            .profile
    })
}

/// dgemm 512³ at a fixed 512 tile: one subkernel.
fn single_tile(a: impl Into<MatArg<f64>>, b: impl Into<MatArg<f64>>) -> GemmRequest<f64> {
    GemmRequest::new(
        a,
        b,
        MatOperand::HostGhost {
            rows: 512,
            cols: 512,
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
}

/// The served request: [`single_tile`] over shared `A` and `B`.
fn served() -> RoutineRequest {
    single_tile(SharedMat::new("A", 512, 512), SharedMat::new("B", 512, 512)).into()
}

/// A four-device session under `policy`.
fn session(policy: SchedulePolicy) -> ServeSession {
    let pool = MultiGpu::new(
        &quiet_testbed(),
        4,
        ExecMode::TimingOnly,
        1,
        profile().clone(),
    );
    ServeSession::with_options(
        pool,
        ExecutorConfig::default(),
        ServeOptions::new().policy(policy),
    )
    .expect("session")
}

/// Allocations of submitting `n` served requests and draining them,
/// after a one-request warm-up drain on the same session.
fn drain_count(policy: SchedulePolicy, n: usize) -> u64 {
    let mut s = session(policy);
    s.submit(served());
    assert_eq!(s.drain().completed(), 1);
    let (allocs, report): (u64, ServeReport) = counted(|| {
        for _ in 0..n {
            s.submit(served());
        }
        s.drain()
    });
    assert_eq!(report.completed(), n);
    allocs
}

#[test]
fn direct_single_tile_call() {
    let gpu = Gpu::new(quiet_testbed(), ExecMode::TimingOnly, 1);
    let mut ctx = Cocopelia::new(gpu, profile().clone());
    let ghost = || MatOperand::<f64>::HostGhost {
        rows: 512,
        cols: 512,
    };
    ctx.submit(single_tile(ghost(), ghost())).expect("warm-up");
    let (allocs, report) = counted(|| ctx.submit(single_tile(ghost(), ghost())));
    assert_eq!(report.expect("call").subkernels, 1);
    assert_eq!(allocs, DIRECT_CALL, "direct single-tile call");
}

#[test]
fn fifo_served_request() {
    let allocs = drain_count(SchedulePolicy::Fifo, 1);
    assert_eq!(allocs, FIFO_REQUEST, "one FIFO-served request");
}

#[test]
fn predictive_drain_at_250_queued() {
    let allocs = drain_count(SchedulePolicy::Predictive, 250);
    assert_eq!(allocs, PREDICTIVE_250, "Predictive drain, 250 queued");
}

#[test]
fn predictive_drain_at_500_queued() {
    let allocs = drain_count(SchedulePolicy::Predictive, 500);
    assert_eq!(allocs, PREDICTIVE_500, "Predictive drain, 500 queued");
}
