//! Request-serving sweep: a standard heterogeneous request trace, seeded
//! open-arrival generators (Poisson and bursty on/off), an
//! executor-vs-sequential comparison, and a plain-text trace format for
//! the `cocopelia serve` subcommand.
//!
//! The comparison, [`run_serve`], pits a [`ServeSession`] (cross-request
//! residency cache, affinity dispatch over a device pool) against the same
//! trace replayed sequentially on one fresh device with every shared
//! operand stripped — the no-reuse baseline a client gets by calling the
//! library once per request. The session is configured by the runtime's
//! own [`ServeOptions`]; `run_serve` adds only what a session cannot know:
//! the pool's fault plans, the arrival process and the trace.

use cocopelia_core::params::ProblemSpec;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{
    DegradeWindow, ExecMode, FaultSpec, NoiseSpec, SimScalar, SimTime, TestbedSpec,
};
use cocopelia_runtime::serve::{ExecutorConfig, ServeOptions, ServeReport, ServeSession};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatArg, MatOperand, MultiGpu,
    RoutineRequest, SharedMat, SharedVec, TileChoice, VecArg, VecOperand,
};

use crate::snapshot::SNAPSHOT_SEED;

/// Session drain vs the sequential no-reuse replay of the same trace.
#[derive(Debug)]
pub struct ServeComparison {
    /// The executor's aggregate report.
    pub report: ServeReport,
    /// Virtual seconds of the sequential no-reuse baseline (sum of
    /// per-request elapsed on one fresh device).
    pub sequential_secs: f64,
}

impl ServeComparison {
    /// Sequential-baseline time over executor makespan (`> 1` = win).
    pub fn speedup(&self) -> f64 {
        let makespan = self.report.makespan.as_secs_f64();
        if makespan > 0.0 {
            self.sequential_secs / makespan
        } else {
            0.0
        }
    }

    /// The summary `cocopelia serve` prints after the report: the
    /// sequential baseline and speedup; the fault and recovery counters
    /// when `faults` is armed; and the straggler-defense counters when a
    /// hedge, probe or budget fast-fail happened.
    pub fn render_summary(&self, faults: &FaultSpec) -> String {
        let c = |name: &str| self.report.metrics.counter(name);
        let mut out = format!(
            "sequential no-reuse baseline {:.3} ms | speedup {:.2}x on {} device(s)\n",
            self.sequential_secs * 1e3,
            self.speedup(),
            self.report.per_device_busy.len(),
        );
        if !faults.is_none() {
            out.push_str(&format!(
                "faults: transient {} degraded {} fatal {} | retries {} (tile ops {}) | \
                 quarantined {} (re-dispatched {}, invalidated {}) | host fallbacks {}\n",
                c("fault_transient_total"),
                c("fault_degraded_total"),
                c("fault_fatal_total"),
                c("serve_retries_total"),
                c("retry_tile_ops_total"),
                c("quarantine_devices_total"),
                c("quarantine_redispatch_total"),
                c("quarantine_invalidated_total"),
                c("fault_host_fallback_total"),
            ));
        }
        let hedges = c("hedge_attempts_total");
        let probes = c("probe_attempts_total");
        let fastfails = c("budget_fastfail_total");
        if hedges + probes + fastfails > 0 {
            out.push_str(&format!(
                "defense: hedges {} (won {}, lost {}, faulted {}) | probes {} \
                 (ok {}, readmitted {}) | budget fastfails {}\n",
                hedges,
                c("hedge_wins_total"),
                c("hedge_losses_total"),
                c("hedge_fail_total"),
                probes,
                c("probe_success_total"),
                c("probe_readmit_total"),
                fastfails,
            ));
        }
        out
    }
}

/// The standard mixed trace: ten requests across four routines, with the
/// gemm operands `A`/`B`, the gemv matrix `A`, and the level-1 vector `X`
/// shared across requests — enough reuse for the residency cache to show.
pub fn standard_request_trace() -> Vec<RoutineRequest> {
    let n = 2048usize;
    let v = 1usize << 22;
    let a = || SharedMat::new("A", n, n);
    let b = || SharedMat::new("B", n, n);
    let x = || SharedVec::new("X", v);
    let gemm = || {
        GemmRequest::<f64>::new(a(), b(), MatOperand::HostGhost { rows: n, cols: n })
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
    };
    vec![
        gemm().into(),
        gemm().into(),
        gemm().into(),
        gemm().into(),
        GemmRequest::<f32>::new(
            MatOperand::HostGhost {
                rows: 1024,
                cols: 1024,
            },
            MatOperand::HostGhost {
                rows: 1024,
                cols: 1024,
            },
            MatOperand::HostGhost {
                rows: 1024,
                cols: 1024,
            },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Auto)
        .into(),
        AxpyRequest::<f64>::new(x(), VecOperand::HostGhost { len: v })
            .alpha(1.5)
            .tile(TileChoice::Auto)
            .into(),
        AxpyRequest::<f64>::new(x(), VecOperand::HostGhost { len: v })
            .alpha(-0.5)
            .tile(TileChoice::Auto)
            .into(),
        DotRequest::<f64>::new(x(), SharedVec::new("Y", v))
            .tile(TileChoice::Auto)
            .into(),
        DotRequest::<f64>::new(x(), SharedVec::new("Y", v))
            .tile(TileChoice::Auto)
            .into(),
        GemvRequest::<f64>::new(
            a(),
            VecOperand::HostGhost { len: n },
            VecOperand::HostGhost { len: n },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Auto)
        .into(),
    ]
}

/// The standard *skewed* trace for scheduling-policy comparisons: six
/// equal dgemm requests and one eight-times-larger straggler submitted
/// *last*. FIFO spreads the small requests across the pool first and then
/// lands the straggler on an already-loaded device; the predictive policy
/// recognises the straggler as the longest job and dispatches it first
/// (LPT), so the small requests pack onto the other devices under it.
/// Operands are private (no sharing) so the comparison isolates
/// scheduling from residency effects.
pub fn skewed_request_trace() -> Vec<RoutineRequest> {
    let ghost = |n: usize| MatOperand::HostGhost { rows: n, cols: n };
    let gemm = |n: usize| {
        GemmRequest::<f64>::new(ghost(n), ghost(n), ghost(n))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
    };
    let mut trace: Vec<RoutineRequest> = (0..6).map(|_| gemm(1024).into()).collect();
    trace.push(gemm(2048).into());
    trace
}

/// The standard *deadline* trace: a large deadline-less dgemm submitted
/// first, then a small dgemm whose 25 ms flow-time budget is comfortable
/// on its own (~10 ms on Testbed I) but blown when it queues behind the
/// ~40 ms large request. FIFO serves in submission order and misses the
/// deadline; EDF pulls the deadline-carrying request forward and meets
/// it. Serve it on **one** device — with more, the two requests never
/// contend and both policies meet the deadline.
pub fn deadline_request_trace() -> Vec<RoutineRequest> {
    let ghost = |n: usize| MatOperand::HostGhost { rows: n, cols: n };
    vec![
        GemmRequest::<f64>::new(ghost(2048), ghost(2048), ghost(2048))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
            .into(),
        GemmRequest::<f64>::new(ghost(1024), ghost(1024), ghost(1024))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
            .deadline_secs(0.025)
            .into(),
    ]
}

/// The standard straggler scenario: per-device fault plans where device
/// 0's link runs at `factor` of its nominal bandwidth inside repeating
/// degrade windows while every other device stays clean. Requests landing
/// on device 0 inside a window overrun their offload prediction — the
/// trigger hedged re-dispatch exists to defend against. No probabilistic
/// faults are injected, so every request still completes and the total
/// useful flops of hedged and unhedged runs are identical.
pub fn straggler_fault_plans(devices: usize, seed: u64, factor: f64) -> Vec<FaultSpec> {
    assert!(devices >= 2, "a straggler needs a healthy peer");
    let mut plans = vec![FaultSpec::none(); devices];
    plans[0] = FaultSpec {
        seed,
        // Back-to-back half-second windows with 0.1 ms clean gaps: the
        // gaps are too short for a transfer to escape through, so device
        // 0's link genuinely runs at `factor` of nominal for the whole
        // horizon — degraded, but never *faulty* — and a request landing
        // there overruns its prediction by an order of magnitude. The
        // windows open a hair *after* each half-second mark so the idle
        // device's clock sits in a clean gap at dispatch time: the
        // degrade-aware upload estimate reads a healthy link, dispatch
        // still lands on the device, and the transfer runs into the
        // window mid-flight — degradation the scheduler could not have
        // priced, which is the straggler premise.
        degrade: (0..16)
            .map(|i| DegradeWindow {
                start_s: i as f64 * 0.5 + 1e-4,
                end_s: (i + 1) as f64 * 0.5,
                factor,
            })
            .collect(),
        ..FaultSpec::none()
    };
    plans
}

/// A homogeneous dgemm trace for straggler experiments: `count` identical
/// shared-operand requests, so scheduling spreads them across the pool
/// and a fair share lands on the degraded device.
pub fn straggler_request_trace(count: usize) -> Vec<RoutineRequest> {
    let n = 2048usize;
    (0..count)
        .map(|_| {
            GemmRequest::<f64>::new(
                SharedMat::new("A", n, n),
                SharedMat::new("B", n, n),
                MatOperand::HostGhost { rows: n, cols: n },
            )
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
            .into()
        })
        .collect()
}

/// The shape of a seeded open-arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_hz`.
    Poisson {
        /// Mean arrival rate, requests per virtual second.
        rate_hz: f64,
    },
    /// On/off bursts: a Poisson process at `rate_hz` that only runs
    /// during `on` windows, separated by silent `off` gaps — the classic
    /// bursty-traffic model. The *within-burst* rate is `rate_hz`, so the
    /// long-run average rate is `rate_hz * on / (on + off)`.
    Bursty {
        /// Within-burst arrival rate, requests per virtual second.
        rate_hz: f64,
        /// Length of each active window.
        on: SimTime,
        /// Silent gap between active windows.
        off: SimTime,
    },
}

/// A seeded, deterministic open-arrival generator: the same spec always
/// produces the same arrival instants, so open-arrival serve runs replay
/// bit-identically. Randomness comes from a splitmix64 stream over the
/// seed — no external RNG crate, no global state.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// The process shape.
    pub kind: ArrivalKind,
    /// PRNG seed; same seed, same arrivals.
    pub seed: u64,
}

impl ArrivalSpec {
    /// A Poisson process at `rate_hz` requests per virtual second.
    pub fn poisson(rate_hz: f64, seed: u64) -> Self {
        ArrivalSpec {
            kind: ArrivalKind::Poisson { rate_hz },
            seed,
        }
    }

    /// An on/off bursty process: Poisson at `rate_hz` during `on`
    /// windows, silent for `off` between them.
    pub fn bursty(rate_hz: f64, on: SimTime, off: SimTime, seed: u64) -> Self {
        ArrivalSpec {
            kind: ArrivalKind::Bursty { rate_hz, on, off },
            seed,
        }
    }

    /// Parses the CLI grammar: `poisson:<rate_hz>` or
    /// `bursty:<rate_hz>:<on_ms>:<off_ms>`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn parse(s: &str, seed: u64) -> Result<Self, String> {
        let fields: Vec<&str> = s.split(':').collect();
        let num = |v: &str, what: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| format!("bad arrival {what} `{v}` (want a positive number)"))
        };
        match fields.as_slice() {
            ["poisson", rate] => Ok(ArrivalSpec::poisson(num(rate, "rate")?, seed)),
            ["bursty", rate, on_ms, off_ms] => Ok(ArrivalSpec::bursty(
                num(rate, "rate")?,
                SimTime::from_secs_f64(num(on_ms, "on window")? * 1e-3),
                SimTime::from_secs_f64(num(off_ms, "off window")? * 1e-3),
                seed,
            )),
            _ => Err(format!(
                "bad arrivals `{s}` (want poisson:<rate_hz> or bursty:<rate_hz>:<on_ms>:<off_ms>)"
            )),
        }
    }

    /// The first `count` arrival instants (virtual time past drain
    /// start), non-decreasing.
    pub fn times(&self, count: usize) -> Vec<SimTime> {
        let mut state = self.seed;
        let (rate, on_off) = match self.kind {
            ArrivalKind::Poisson { rate_hz } => (rate_hz, None),
            ArrivalKind::Bursty { rate_hz, on, off } => {
                (rate_hz, Some((on.as_secs_f64(), off.as_secs_f64())))
            }
        };
        let rate = rate.max(1e-9);
        let mut active = 0.0f64; // cumulative "process-on" time
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            // Exponential gap via inverse transform on a (0,1) uniform.
            active += -unit_open(&mut state).ln() / rate;
            let wall = match on_off {
                None => active,
                Some((on, off)) => {
                    // Map process-on time through on/off cycles: every
                    // full `on` of active time costs an extra `off` of
                    // silence on the wall clock.
                    let full_cycles = (active / on).floor();
                    full_cycles * (on + off) + (active - full_cycles * on)
                }
            };
            out.push(SimTime::from_secs_f64(wall));
        }
        out
    }
}

/// One step of the splitmix64 PRNG — tiny, seedable, and good enough to
/// drive inter-arrival sampling without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in the *open* interval (0, 1): the top 53 bits offset
/// by half an ulp, so `ln` never sees 0.
fn unit_open(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Deploys on a quiet copy of `testbed`, serves `trace` through a
/// [`ServeSession`] configured by `options`, and replays the same trace
/// sequentially without sharing for the baseline.
///
/// The pool gets one device per entry of `plans`, each carrying its plan
/// verbatim; [`FaultSpec::per_device`] spreads one plan over a pool.
/// With `arrivals`, the trace is fed at the generated virtual instants
/// (admission, shedding and coalescing run as each lands); without, it is
/// queued up front. The sequential baseline stays faultless: it is the
/// no-reuse *and* no-fault reference.
///
/// # Errors
///
/// Propagates deployment, runtime, and telemetry-stream failures as
/// strings.
///
/// # Panics
///
/// Panics if `plans` is empty.
pub fn run_serve(
    testbed: &TestbedSpec,
    plans: &[FaultSpec],
    trace: Vec<RoutineRequest>,
    arrivals: Option<&ArrivalSpec>,
    options: ServeOptions,
) -> Result<ServeComparison, String> {
    let mut tb = testbed.clone();
    tb.noise = NoiseSpec::NONE;
    let deployed = deploy(&tb, &DeployConfig::quick()).map_err(|e| e.to_string())?;

    // Sequential no-reuse baseline: one fresh device, shared operands
    // replaced by plain host ghosts, requests back to back.
    let mut seq = Cocopelia::new(
        cocopelia_gpusim::Gpu::new(tb.clone(), ExecMode::TimingOnly, SNAPSHOT_SEED),
        deployed.profile.clone(),
    );
    let mut sequential_secs = 0.0;
    for req in &trace {
        let report = seq
            .submit(req.clone().without_sharing())
            .map_err(|e| format!("sequential baseline: {e}"))?;
        sequential_secs += report.elapsed.as_secs_f64();
    }

    let pool = MultiGpu::with_fault_plans(
        &tb,
        ExecMode::TimingOnly,
        SNAPSHOT_SEED,
        deployed.profile,
        plans,
    );
    let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), options)
        .map_err(|e| format!("telemetry stream: {e}"))?;
    match arrivals {
        Some(spec) => {
            let times = spec.times(trace.len());
            for (req, at) in trace.into_iter().zip(times) {
                session.submit_at(req, at);
            }
        }
        None => {
            for req in trace {
                session.submit(req);
            }
        }
    }
    Ok(ServeComparison {
        report: session.drain(),
        sequential_secs,
    })
}

/// Parses a plain-text request trace, one request per line:
///
/// ```text
/// # comment
/// dgemm 2048 2048 2048 a=A b=B c=- tile=auto deadline=0.25
/// sgemm 1024 1024 1024
/// daxpy 4194304 x=X
/// ddot  4194304 x=X y=Y tile=1048576
/// dgemv 2048 2048 a=A
/// ```
///
/// Dims follow the routine name (`M N K` for gemm, `M N` for gemv, `N`
/// for the level-1 routines). `a=`/`b=`/`c=`/`x=`/`y=` name shared
/// operands (`-` or absence means a private host ghost), `tile=` is
/// `auto` or a fixed size, and `deadline=` is a virtual-second budget.
///
/// # Errors
///
/// Returns a message naming the offending line on any parse failure.
pub fn parse_request_trace(text: &str) -> Result<Vec<RoutineRequest>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_request_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

/// One `key=value` option split, with `-` meaning "not set".
fn opt<'a>(tokens: &'a [&str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key))
        .filter(|v| *v != "-")
}

fn mat<T: SimScalar>(key: Option<&str>, rows: usize, cols: usize) -> MatArg<T> {
    match key {
        Some(k) => SharedMat::new(k, rows, cols).into(),
        None => MatOperand::HostGhost { rows, cols }.into(),
    }
}

fn vec_arg<T: SimScalar>(key: Option<&str>, len: usize) -> VecArg<T> {
    match key {
        Some(k) => SharedVec::new(k, len).into(),
        None => VecOperand::HostGhost { len }.into(),
    }
}

fn parse_request_line(line: &str) -> Result<RoutineRequest, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (routine, rest) = tokens.split_first().ok_or("empty request line")?;
    let dims: Vec<usize> = rest
        .iter()
        .take_while(|t| !t.contains('='))
        .map(|t| t.parse().map_err(|_| format!("bad dim `{t}`")))
        .collect::<Result<_, _>>()?;
    let opts = &rest[dims.len()..];
    if let Some(bad) = opts.iter().find(|t| !t.contains('=')) {
        return Err(format!("unexpected token `{bad}`"));
    }
    let tile = match opt(opts, "tile=") {
        None | Some("auto") => TileChoice::Auto,
        Some(t) => TileChoice::Fixed(t.parse().map_err(|_| format!("bad tile `{t}`"))?),
    };
    let deadline: Option<f64> = opt(opts, "deadline=")
        .map(|d| d.parse().map_err(|_| format!("bad deadline `{d}`")))
        .transpose()?;
    // Shared operands have no `ProblemSpec` form: the parse only checks
    // the routine name and its dims count.
    ProblemSpec::parse(routine, &dims, &[])?;
    let req: RoutineRequest = match *routine {
        "dgemm" | "sgemm" => {
            let (m, n, k) = (dims[0], dims[1], dims[2]);
            let (a, b, c) = (opt(opts, "a="), opt(opts, "b="), opt(opts, "c="));
            if *routine == "dgemm" {
                let mut r = GemmRequest::<f64>::new(mat(a, m, k), mat(b, k, n), mat(c, m, n))
                    .alpha(1.0)
                    .beta(1.0)
                    .tile(tile);
                if let Some(d) = deadline {
                    r = r.deadline_secs(d);
                }
                r.into()
            } else {
                let mut r = GemmRequest::<f32>::new(mat(a, m, k), mat(b, k, n), mat(c, m, n))
                    .alpha(1.0)
                    .beta(1.0)
                    .tile(tile);
                if let Some(d) = deadline {
                    r = r.deadline_secs(d);
                }
                r.into()
            }
        }
        "daxpy" => {
            let n = dims[0];
            let mut r =
                AxpyRequest::<f64>::new(vec_arg(opt(opts, "x="), n), vec_arg(opt(opts, "y="), n))
                    .alpha(1.0)
                    .tile(tile);
            if let Some(d) = deadline {
                r = r.deadline_secs(d);
            }
            r.into()
        }
        "ddot" => {
            let n = dims[0];
            let mut r =
                DotRequest::<f64>::new(vec_arg(opt(opts, "x="), n), vec_arg(opt(opts, "y="), n))
                    .tile(tile);
            if let Some(d) = deadline {
                r = r.deadline_secs(d);
            }
            r.into()
        }
        "dgemv" => {
            let (m, n) = (dims[0], dims[1]);
            let mut r = GemvRequest::<f64>::new(
                mat(opt(opts, "a="), m, n),
                vec_arg(opt(opts, "x="), n),
                vec_arg(opt(opts, "y="), m),
            )
            .alpha(1.0)
            .beta(1.0)
            .tile(tile);
            if let Some(d) = deadline {
                r = r.deadline_secs(d);
            }
            r.into()
        }
        other => return Err(format!("no request for `{other}`")),
    };
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trace_is_mixed_and_shares_operands() {
        let trace = standard_request_trace();
        assert!(trace.len() >= 8);
        let routines: std::collections::BTreeSet<&str> =
            trace.iter().map(|r| r.routine()).collect();
        assert!(routines.len() >= 4, "mixed routines, got {routines:?}");
        let shared: usize = trace.iter().map(|r| r.shared_keys().len()).sum();
        assert!(shared >= 8, "trace must actually share operands");
    }

    #[test]
    fn trace_text_round_trips_routines_and_sharing() {
        let text = "\
# the standard shapes
dgemm 2048 2048 2048 a=A b=B tile=auto deadline=0.25
sgemm 1024 1024 1024
daxpy 4194304 x=X
ddot 4194304 x=X y=Y tile=1048576
dgemv 2048 2048 a=A
";
        let trace = parse_request_trace(text).expect("parses");
        assert_eq!(trace.len(), 5);
        assert_eq!(
            trace.iter().map(|r| r.routine()).collect::<Vec<_>>(),
            vec!["dgemm", "sgemm", "daxpy", "ddot", "dgemv"]
        );
        assert_eq!(trace[0].shared_keys(), vec!["A", "B"]);
        assert_eq!(trace[0].deadline(), Some(0.25));
        assert!(trace[1].shared_keys().is_empty());
        assert_eq!(trace[3].shared_keys(), vec!["X", "Y"]);
        assert_eq!(trace[4].shared_keys(), vec!["A"]);
    }

    #[test]
    fn arrival_spec_parses_the_cli_grammar() {
        assert_eq!(
            ArrivalSpec::parse("poisson:2000", 7).expect("parses"),
            ArrivalSpec::poisson(2000.0, 7)
        );
        assert_eq!(
            ArrivalSpec::parse("bursty:4000:5:20", 7).expect("parses"),
            ArrivalSpec::bursty(
                4000.0,
                SimTime::from_secs_f64(5e-3),
                SimTime::from_secs_f64(20e-3),
                7
            )
        );
        assert!(ArrivalSpec::parse("poisson:-1", 0).is_err());
        assert!(ArrivalSpec::parse("poisson", 0).is_err());
        assert!(ArrivalSpec::parse("bursty:100:5", 0).is_err());
        assert!(ArrivalSpec::parse("uniform:9", 0).is_err());
    }

    #[test]
    fn arrival_times_are_seeded_and_deterministic() {
        let a = ArrivalSpec::poisson(2000.0, 42).times(64);
        let b = ArrivalSpec::poisson(2000.0, 42).times(64);
        assert_eq!(a, b, "same seed, same arrivals");
        let c = ArrivalSpec::poisson(2000.0, 43).times(64);
        assert_ne!(a, c, "different seed, different arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // Mean gap of a Poisson(2000 Hz) process is 0.5 ms; 64 draws land
        // well within a loose 5x band.
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            span > 64.0 * 5e-4 / 5.0 && span < 64.0 * 5e-4 * 5.0,
            "{span}"
        );
    }

    #[test]
    fn bursty_arrivals_land_inside_on_windows() {
        let on = 5e-3;
        let off = 20e-3;
        let spec = ArrivalSpec::bursty(
            4000.0,
            SimTime::from_secs_f64(on),
            SimTime::from_secs_f64(off),
            9,
        );
        let times = spec.times(100);
        let cycle = on + off;
        let mut seen_later_cycle = false;
        for t in &times {
            let offset = t.as_secs_f64() % cycle;
            assert!(
                offset <= on + 1e-9,
                "arrival at {offset:.6}s offset fell in an off window"
            );
            if t.as_secs_f64() > cycle {
                seen_later_cycle = true;
            }
        }
        assert!(
            seen_later_cycle,
            "100 draws at 4 kHz in 5 ms windows must spill past one cycle"
        );
    }

    #[test]
    fn trace_parse_errors_name_the_line() {
        let err = parse_request_trace("dgemm 2048 2048\n").expect_err("too few dims");
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(parse_request_trace("frobnicate 8\n").is_err());
        assert!(parse_request_trace("dgemm 1 1 1 tile=potato\n").is_err());
        assert!(parse_request_trace("dgemm 1 1 1 stray\n").is_err());
    }
}
