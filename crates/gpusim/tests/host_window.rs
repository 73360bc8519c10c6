//! A host that blocks on [`Gpu::synchronize_event`] before it enqueues
//! more work runs the same schedule as a host that enqueues everything
//! before one `synchronize`, when it waits one generation behind its
//! staging rings.
//!
//! The schedules are random three-stream ring pipelines of the cuBLASXt
//! shape (copy-in stream, kernel stream, copy-out stream; input and output
//! slots recycled round-robin behind event waits) on Testbed II, with its
//! measurement noise and bidirectional slowdown. Each runs twice: once
//! enqueued in full, once with a host window that waits for the kernel of
//! step `q − ring − 1` before enqueueing step `q`. The two runs must agree
//! entry for entry, and in functional mode on every byte they copy back.
//! The vendored proptest does not shrink, so cases are drawn from plain
//! seeds and a failure names its seed.

use cocopelia_gpusim::{
    testbed_ii, CopyDesc, DevBufId, DevVecRef, EventId, ExecMode, Gpu, HostBufId, KernelArgs,
    KernelShape, Region2d, StreamId, TraceEntry,
};
use cocopelia_hostblas::Dtype;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;

/// Elements of each host operand.
const HOST_ELEMS: usize = 1 << 16;

/// One step of a ring schedule.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Elements the step copies in and computes on.
    n: usize,
    /// Host offsets of its input and output regions.
    in_at: usize,
    out_at: usize,
    /// Whether it fetches its output slot before the kernel (a reused
    /// output slot otherwise keeps its previous contents).
    fetch_out: bool,
    /// Kernel shape in timing mode (functional runs compute an axpy).
    gemm: (usize, usize, usize),
}

/// A random ring schedule: its ring depths and steps.
#[derive(Debug, Clone)]
struct Schedule {
    in_ring: usize,
    out_ring: usize,
    steps: Vec<Step>,
}

impl Schedule {
    fn random(rng: &mut StdRng, functional: bool) -> Schedule {
        let max_n = if functional { 512 } else { 1 << 15 };
        let steps = (0..rng.gen_range(1..60usize))
            .map(|_| {
                let n = rng.gen_range(1..max_n + 1);
                let dim = |rng: &mut StdRng| rng.gen_range(16..768usize);
                Step {
                    n,
                    in_at: rng.gen_range(0..HOST_ELEMS - n + 1),
                    out_at: rng.gen_range(0..HOST_ELEMS - n + 1),
                    fetch_out: rng.gen_range(0..10usize) < 7,
                    gemm: (dim(rng), dim(rng), dim(rng)),
                }
            })
            .collect();
        Schedule {
            in_ring: rng.gen_range(1..6usize),
            out_ring: rng.gen_range(1..5usize),
            steps,
        }
    }
}

/// Ring slots: device buffers and the event their last consumer recorded.
struct Ring {
    slots: Vec<(DevBufId, Option<EventId>)>,
    next: usize,
}

impl Ring {
    fn new(gpu: &mut Gpu, depth: usize, elems: usize) -> Ring {
        let slots = (0..depth)
            .map(|_| (gpu.alloc_device(Dtype::F64, elems).expect("alloc"), None))
            .collect();
        Ring { slots, next: 0 }
    }

    /// The next slot, made to wait on `writer` for its last consumer.
    fn acquire(&mut self, gpu: &mut Gpu, writer: StreamId) -> usize {
        let i = self.next;
        self.next = (i + 1) % self.slots.len();
        if let Some(ev) = self.slots[i].1.take() {
            gpu.wait_event(writer, ev).expect("wait");
        }
        i
    }
}

fn region(offset: usize, n: usize) -> Region2d {
    Region2d {
        offset,
        ld: n,
        rows: n,
        cols: 1,
    }
}

/// Runs `schedule` on a fresh device and returns its trace entries, its
/// end time and the output operand's host contents. With `window`, the
/// host blocks on the kernel event of step `q − in_ring − 1` before it
/// enqueues step `q`.
fn run(
    schedule: &Schedule,
    mode: ExecMode,
    seed: u64,
    window: bool,
) -> (Vec<TraceEntry>, u64, Vec<f64>) {
    let functional = mode == ExecMode::Functional;
    let mut gpu = Gpu::new(testbed_ii(), mode, seed);
    gpu.keep_trace_from(0);
    let data = |k: usize| -> Vec<f64> { (0..HOST_ELEMS).map(|i| (i * k % 97) as f64).collect() };
    let host_in: HostBufId = gpu.register_host(data(3), true);
    let host_out: HostBufId = gpu.register_host(data(5), true);
    let slot_elems = schedule.steps.iter().map(|s| s.n).max().unwrap_or(1);
    let mut in_ring = Ring::new(&mut gpu, schedule.in_ring, slot_elems);
    let mut out_ring = Ring::new(&mut gpu, schedule.out_ring, slot_elems);
    let (h2d, exec, d2h) = (
        gpu.create_stream(),
        gpu.create_stream(),
        gpu.create_stream(),
    );
    let mut kernels: VecDeque<EventId> = VecDeque::new();
    for step in &schedule.steps {
        if window && kernels.len() > schedule.in_ring {
            let oldest = kernels.pop_front().expect("window is full");
            gpu.synchronize_event(oldest).expect("window wait");
        }
        let n = step.n;
        let o = out_ring.acquire(&mut gpu, if step.fetch_out { h2d } else { exec });
        let out_buf = out_ring.slots[o].0;
        let out_copy = CopyDesc {
            host: host_out,
            host_region: region(step.out_at, n),
            dev: out_buf,
            dev_region: region(0, n),
        };
        if step.fetch_out {
            gpu.memcpy_h2d_async(h2d, out_copy).expect("h2d out");
            let ready = gpu.record_event(h2d).expect("record");
            gpu.wait_event(exec, ready).expect("wait");
        }
        let i = in_ring.acquire(&mut gpu, h2d);
        let in_buf = in_ring.slots[i].0;
        gpu.memcpy_h2d_async(
            h2d,
            CopyDesc {
                host: host_in,
                host_region: region(step.in_at, n),
                dev: in_buf,
                dev_region: region(0, n),
            },
        )
        .expect("h2d in");
        let ready = gpu.record_event(h2d).expect("record");
        gpu.wait_event(exec, ready).expect("wait");
        if functional {
            let args = KernelArgs::Axpy {
                alpha: 0.5,
                x: DevVecRef {
                    buf: in_buf,
                    offset: 0,
                },
                y: DevVecRef {
                    buf: out_buf,
                    offset: 0,
                },
            };
            let shape = KernelShape::Axpy {
                dtype: Dtype::F64,
                n,
            };
            gpu.launch_kernel(exec, shape, Some(args)).expect("axpy");
        } else {
            let (m, n, k) = step.gemm;
            let shape = KernelShape::Gemm {
                dtype: Dtype::F64,
                m,
                n,
                k,
            };
            gpu.launch_kernel(exec, shape, None).expect("gemm");
        }
        let done = gpu.record_event(exec).expect("record");
        kernels.push_back(done);
        in_ring.slots[i].1 = Some(done);
        gpu.wait_event(d2h, done).expect("wait");
        gpu.memcpy_d2h_async(d2h, out_copy).expect("d2h");
        out_ring.slots[o].1 = Some(gpu.record_event(d2h).expect("record"));
    }
    let end = gpu.synchronize().expect("sync").as_nanos();
    let out = if functional {
        gpu.host_payload(host_out).expect("host").as_f64().to_vec()
    } else {
        Vec::new()
    };
    (gpu.trace().entries().to_vec(), end, out)
}

fn check_cases(mode: ExecMode, cases: u64) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = Schedule::random(&mut rng, mode == ExecMode::Functional);
        let noise_seed = rng.next_u64();
        let full = run(&schedule, mode, noise_seed, false);
        let windowed = run(&schedule, mode, noise_seed, true);
        assert_eq!(full.1, windowed.1, "case seed {seed}: end time");
        assert_eq!(full.0.len(), windowed.0.len(), "case seed {seed}: entries");
        for (a, b) in full.0.iter().zip(&windowed.0) {
            assert_eq!(a, b, "case seed {seed}: entry of op {}", a.op);
        }
        assert!(full.2 == windowed.2, "case seed {seed}: copied-back data");
    }
}

#[test]
fn a_window_one_generation_behind_the_ring_replays_the_full_enqueue() {
    check_cases(ExecMode::TimingOnly, 96);
}

#[test]
fn a_functional_window_copies_back_the_same_data() {
    check_cases(ExecMode::Functional, 32);
}
