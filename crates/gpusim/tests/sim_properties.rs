//! Property-based invariants of the discrete-event engine, checked over
//! randomly generated schedules: engines never double-book, makespans are
//! bounded by engine work, contention can only slow transfers down, and
//! equal seeds replay identically. Schedules interleave stream creation
//! and mid-schedule synchronizes with the enqueues, so streams drain and
//! refill while new ones join; the long-batch cases run batches that
//! span several simulator op-table chunks.

use cocopelia_gpusim::{
    testbed_i, testbed_ii, CopyDesc, EngineKind, ExecMode, Gpu, KernelShape, NoiseSpec, TestbedSpec,
};
use cocopelia_hostblas::Dtype;
use proptest::prelude::*;

fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
    tb.noise = NoiseSpec::NONE;
    tb
}

/// One randomly-chosen step for the schedule generator.
#[derive(Debug, Clone, Copy)]
enum RandOp {
    H2d {
        elems: usize,
    },
    D2h {
        elems: usize,
    },
    Kernel {
        n: usize,
    },
    /// Creates a stream that joins the round-robin.
    NewStream,
    /// Synchronizes the device mid-schedule.
    Sync,
}

impl RandOp {
    fn is_engine_op(self) -> bool {
        !matches!(self, RandOp::NewStream | RandOp::Sync)
    }
}

fn rand_op() -> impl Strategy<Value = RandOp> {
    prop_oneof![
        (1usize..200_000).prop_map(|elems| RandOp::H2d { elems }),
        (1usize..200_000).prop_map(|elems| RandOp::D2h { elems }),
        (1usize..100_000).prop_map(|n| RandOp::Kernel { n }),
    ]
}

/// An engine op, or one time in five a stream creation or a synchronize.
fn rand_step() -> impl Strategy<Value = RandOp> {
    prop_oneof![
        rand_op(),
        rand_op(),
        rand_op(),
        rand_op(),
        (0usize..2).prop_map(|k| if k == 0 {
            RandOp::NewStream
        } else {
            RandOp::Sync
        }),
    ]
}

/// Enqueues the engine ops of `ops` round-robin across `n_streams`
/// streams plus every stream a [`RandOp::NewStream`] step creates, and
/// runs to completion.
fn run_schedule(tb: TestbedSpec, ops: &[RandOp], n_streams: usize, seed: u64) -> Gpu {
    let mut gpu = Gpu::new(tb, ExecMode::TimingOnly, seed);
    let mut streams: Vec<_> = (0..n_streams).map(|_| gpu.create_stream()).collect();
    let host = gpu.register_host_ghost(Dtype::F64, 200_000, true);
    let dev = gpu.alloc_device(Dtype::F64, 200_000).expect("alloc");
    for (i, op) in ops.iter().enumerate() {
        let s = streams[i % streams.len()];
        match *op {
            RandOp::NewStream => streams.push(gpu.create_stream()),
            RandOp::Sync => {
                gpu.synchronize().expect("sync");
            }
            RandOp::H2d { elems } => gpu
                .memcpy_h2d_async(s, CopyDesc::contiguous(host, dev, elems))
                .expect("h2d"),
            RandOp::D2h { elems } => gpu
                .memcpy_d2h_async(s, CopyDesc::contiguous(host, dev, elems))
                .expect("d2h"),
            RandOp::Kernel { n } => gpu
                .launch_kernel(
                    s,
                    KernelShape::Axpy {
                        dtype: Dtype::F64,
                        n,
                    },
                    None,
                )
                .expect("kernel"),
        }
    }
    gpu.synchronize().expect("sync");
    gpu
}

/// Asserts that each stream's trace entries run in enqueue order, each
/// after the previous one ended.
fn check_fifo(gpu: &Gpu) -> Result<(), TestCaseError> {
    let mut entries = gpu.trace().entries().to_vec();
    entries.sort_by_key(|e| (e.stream, e.op));
    for w in entries.windows(2).filter(|w| w[0].stream == w[1].stream) {
        prop_assert!(w[1].start >= w[0].end, "{:?} overlaps {:?}", w[1], w[0]);
    }
    Ok(())
}

/// Asserts that a schedule replays identically under one seed, and that
/// its noise-free timing ignores the seed.
fn check_replay(ops: &[RandOp], n_streams: usize, seed: u64) -> Result<(), TestCaseError> {
    let a = run_schedule(testbed_ii(), ops, n_streams, seed).now();
    let b = run_schedule(testbed_ii(), ops, n_streams, seed).now();
    prop_assert_eq!(a, b);
    let c = run_schedule(quiet(testbed_ii()), ops, n_streams, seed).now();
    let d = run_schedule(quiet(testbed_ii()), ops, n_streams, seed ^ 0xABCD).now();
    prop_assert_eq!(c, d, "noise-free timing must not depend on the seed");
    Ok(())
}

/// Ops per simulator op-table chunk: a longer batch spans several chunks.
const OP_CHUNK: usize = 4096;

/// Two to three batches of one to two op-table chunks each, split by
/// synchronizes. Every batch past the first starts at a shifted op-id
/// base, and streams carry over from one batch to the next.
fn long_batches() -> impl Strategy<Value = Vec<RandOp>> {
    prop::collection::vec(
        prop::collection::vec(rand_op(), OP_CHUNK + 1..2 * OP_CHUNK),
        2..4,
    )
    .prop_map(|batches| {
        let mut ops = Vec::new();
        for batch in batches {
            ops.extend(batch);
            ops.push(RandOp::Sync);
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Streams stay FIFO when a batch outgrows one op-table chunk and
    /// the next batch starts past a retirement.
    #[test]
    fn long_batches_stay_fifo(ops in long_batches(), n_streams in 1usize..5) {
        check_fifo(&run_schedule(quiet(testbed_ii()), &ops, n_streams, 4))?;
    }

    /// Batches longer than one op-table chunk replay deterministically.
    #[test]
    fn long_batches_replay_deterministically(
        ops in long_batches(),
        n_streams in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        check_replay(&ops, n_streams, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each engine executes one op at a time: its trace entries are
    /// disjoint in time and every op appears exactly once.
    #[test]
    fn engines_never_double_book(
        ops in prop::collection::vec(rand_step(), 1..40),
        n_streams in 1usize..5,
    ) {
        let gpu = run_schedule(quiet(testbed_i()), &ops, n_streams, 1);
        let trace = gpu.trace();
        prop_assert_eq!(trace.len(), ops.iter().filter(|op| op.is_engine_op()).count());
        for engine in [EngineKind::CopyH2d, EngineKind::CopyD2h, EngineKind::Compute] {
            let mut spans: Vec<(u64, u64)> = trace
                .entries()
                .iter()
                .filter(|e| e.engine == engine)
                .map(|e| (e.start.as_nanos(), e.end.as_nanos()))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "{engine:?} overlap: {w:?}");
            }
        }
    }

    /// Each stream is a FIFO across drains and refills: its ops start in
    /// enqueue order, each after the previous one ended.
    #[test]
    fn streams_stay_fifo(
        ops in prop::collection::vec(rand_step(), 1..40),
        n_streams in 1usize..5,
    ) {
        check_fifo(&run_schedule(quiet(testbed_ii()), &ops, n_streams, 4))?;
    }

    /// The makespan is at least the busiest engine's work and at most the
    /// serial sum of all engine work.
    #[test]
    fn makespan_bounds(
        ops in prop::collection::vec(rand_step(), 1..40),
        n_streams in 1usize..5,
    ) {
        let gpu = run_schedule(quiet(testbed_ii()), &ops, n_streams, 2);
        let trace = gpu.trace();
        let makespan = trace.entries().iter().map(|e| e.end.as_nanos()).max().unwrap_or(0);
        let busy: Vec<u64> = [EngineKind::CopyH2d, EngineKind::CopyD2h, EngineKind::Compute]
            .iter()
            .map(|&e| trace.engine_busy(e).as_nanos())
            .collect();
        prop_assert!(makespan >= *busy.iter().max().expect("engines"));
        prop_assert!(makespan <= busy.iter().sum::<u64>());
    }

    /// More streams can only help (or tie): a k-stream round-robin of the
    /// same ops never takes longer than the fully serial single stream.
    #[test]
    fn parallelism_never_hurts(
        ops in prop::collection::vec(rand_op(), 1..30),
    ) {
        let serial = run_schedule(quiet(testbed_i()), &ops, 1, 3).now().as_nanos();
        let parallel = run_schedule(quiet(testbed_i()), &ops, 3, 3).now().as_nanos();
        // Allow 1ns-per-op rounding slack.
        prop_assert!(parallel <= serial + ops.len() as u64, "{parallel} > {serial}");
    }

    /// Determinism: identical seeds replay identically even with noise;
    /// the noise-free engine ignores the seed entirely.
    #[test]
    fn replay_is_deterministic(
        ops in prop::collection::vec(rand_step(), 1..30),
        n_streams in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        check_replay(&ops, n_streams, seed)?;
    }

    /// Bidirectional contention can only slow a transfer down, and by at
    /// most its configured slowdown factor.
    #[test]
    fn contention_bounded_by_sl(elems in 10_000usize..500_000) {
        let tb = quiet(testbed_ii());
        // Alone.
        let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let host = gpu.register_host_ghost(Dtype::F64, elems, true);
        let dev = gpu.alloc_device(Dtype::F64, elems).expect("alloc");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(host, dev, elems)).expect("d2h");
        gpu.synchronize().expect("sync");
        let alone = gpu.now().as_secs_f64();

        // Against a saturating opposite stream.
        let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, 1);
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        let big_host = gpu.register_host_ghost(Dtype::F64, elems * 8, true);
        let big_dev = gpu.alloc_device(Dtype::F64, elems * 8).expect("alloc");
        let host = gpu.register_host_ghost(Dtype::F64, elems, true);
        let dev = gpu.alloc_device(Dtype::F64, elems).expect("alloc");
        gpu.memcpy_h2d_async(s1, CopyDesc::contiguous(big_host, big_dev, elems * 8))
            .expect("h2d");
        gpu.memcpy_d2h_async(s2, CopyDesc::contiguous(host, dev, elems)).expect("d2h");
        gpu.synchronize().expect("sync");
        let d2h_end = gpu
            .trace()
            .entries()
            .iter()
            .find(|e| e.engine == EngineKind::CopyD2h)
            .expect("d2h entry")
            .end
            .as_secs_f64();

        prop_assert!(d2h_end >= alone * 0.999, "contention sped the transfer up");
        prop_assert!(
            d2h_end <= alone * tb.link.sl_d2h_bid * 1.01,
            "slowdown {d2h_end} exceeds sl bound {}",
            alone * tb.link.sl_d2h_bid
        );
    }
}
