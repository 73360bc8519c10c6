//! `cocopelia` — command-line front end for the CoCoPeLia reproduction.
//!
//! ```text
//! cocopelia deploy  --testbed ii --out profile.json [--quick]
//! cocopelia predict --profile profile.json --routine dgemm --dims 8192 8192 8192 [--loc HHH] [--model dr]
//! cocopelia run     --testbed ii --profile profile.json --routine dgemm --dims 8192 8192 8192 [--tile auto|2048] [--faults seed=1,kernel=0.05]
//! cocopelia report  --testbed ii --profile profile.json --routine dgemm --dims 8192 8192 8192 [--json report.json]
//! cocopelia trace   --testbed ii --profile profile.json --routine dgemm --dims 8192 8192 8192 --out trace.json [--format chrome|jsonl]
//! cocopelia gantt   --testbed i --dims 4096 4096 4096 --tile 1024
//! cocopelia calib   --testbed i [--quick] [--json calib.json]
//! cocopelia serve   --testbed i [--devices 2] [--trace requests.txt] [--faults seed=1,h2d=0.02,lost_after=20] [--trace-out out.perfetto] [--arrivals poisson:2000] [--seed 1] [--queue-cap 8] [--shed-flow-ms 50] [--coalesce] [--watch] [--window-ms 5] [--slo deadline_miss<=0.1] [--ring 2048]
//! cocopelia metrics --testbed i [--devices 2] [--trace requests.txt] [--format prom|text]
//! cocopelia timeline --testbed i [--devices 2] [--trace requests.txt] [--faults ...] [--width 96] [--color]
//! cocopelia snapshot --out BENCH_pr.json [--testbed i] [--label pr]
//! cocopelia compare BENCH_seed.json BENCH_pr.json [--threshold 0.05] [--json diff.json]
//! ```
//!
//! `compare` exits 0 when the candidate snapshot is clean and 2 when any
//! sweep entry regressed, so it can gate CI directly.

use cocopelia_core::models::{ModelCtx, ModelKind};
use cocopelia_core::params::{Loc, ProblemSpec};
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::select::TileSelector;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, testbed_ii, ExecMode, FaultSpec, Gpu, TestbedSpec};
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, RuntimeError,
    TileChoice, VecOperand,
};
use std::collections::HashMap;
use std::process::ExitCode;

use args::Args;

/// Typed failure of a CLI invocation: keeps the offending path / runtime
/// error attached instead of flattening everything to strings.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown subcommand, missing or malformed flag.
    Usage(String),
    /// A filesystem operation failed on `path`.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// The runtime refused or failed a routine call.
    Runtime(RuntimeError),
    /// JSON (de)serialisation failed.
    Json(String),
    /// Deployment, sweep, or snapshot data was unusable.
    Data(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Runtime(e) => write!(f, "runtime: {e}"),
            CliError::Json(m) => write!(f, "json: {m}"),
            CliError::Data(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for CliError {
    fn from(e: RuntimeError) -> Self {
        CliError::Runtime(e)
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })
}

fn write_file(path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            // Exit 2 on every typed CLI error (bad flags, unreadable
            // files, runtime refusals) — the same code `compare` uses for
            // regressions — so scripts can tell "the invocation was
            // wrong" (2) from a crash.
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  cocopelia deploy  --testbed <i|ii> --out <profile.json> [--quick]
  cocopelia predict --profile <profile.json> --routine <dgemm|sgemm|daxpy|ddot|dgemv>
                    --dims <D1> [D2] [D3] [--loc <H|D per operand>] [--model <cso|eq1|eq2|bts|dr>]
  cocopelia run     --testbed <i|ii> --profile <profile.json> --routine <...>
                    --dims <D1> [D2] [D3] [--loc ...] [--tile <auto|N>] [--faults <spec>]
  cocopelia report  --testbed <i|ii> --profile <profile.json> --routine <...>
                    --dims <D1> [D2] [D3] [--loc ...] [--tile <auto|N>] [--json <out.json>]
                    [--format <text|prom>]
  cocopelia trace   --testbed <i|ii> --profile <profile.json> --routine <...>
                    --dims <D1> [D2] [D3] [--loc ...] [--tile <auto|N>]
                    --out <trace.json> [--format <chrome|jsonl|perfetto>]
  cocopelia gantt   --testbed <i|ii> --dims <M> <N> <K> --tile <N> [--width <cols>]
  cocopelia calib   --testbed <i|ii> [--quick] [--json <calib.json>]
  cocopelia serve   --testbed <i|ii> [--devices <N>] [--trace <requests.txt>] [--faults <spec>]
                    [--policy <fifo|edf|predictive>] [--trace-out <out.json|out.perfetto>]
                    [--arrivals <poisson:rate_hz|bursty:rate_hz:on_ms:off_ms>] [--seed <N>]
                    [--queue-cap <N>] [--shed-flow-ms <N>] [--coalesce]
                    [--watch] [--window-ms <N>] [--slo <kind<=limit,...>] [--ring <spans>]
                    [--hedge <mult|off>] [--probation <backoff_ms[:successes]|off>]
                    [--retry-budget <tokens[:refill_per_sec]|off>]
  cocopelia metrics --testbed <i|ii> [--devices <N>] [--trace <requests.txt>] [--faults <spec>]
                    [--policy <fifo|edf|predictive>] [--format <prom|text>]
  cocopelia timeline --testbed <i|ii> [--devices <N>] [--trace <requests.txt>] [--faults <spec>]
                    [--policy <fifo|edf|predictive>] [--width <cols>] [--color]
                    [--trace-out <out.json|out.perfetto>]
  cocopelia snapshot --out <BENCH_label.json> [--testbed <i|ii>] [--label <label>]
  cocopelia compare <base.json> <new.json> [--threshold <frac>] [--json <diff.json>]

fault spec grammar (comma-separated, e.g. seed=1,h2d=0.02,kernel=0.05,lost_after=20):
  seed=N h2d=P d2h=P kernel=P ecc=P lost_after=N degrade=START:END:FACTOR (repeatable)

serve --watch streams one line per telemetry window (cadence = --window-ms of
virtual time, default 5 ms; --snapshot-ms is an alias); --slo objectives
(deadline_miss, flow_p95, flow_p99, fault_rate, quarantined, rejected,
hedge_rate) dump the newest --ring spans (default 2048, also the span log's
cap) on breach and on quarantine, and a --trace-out ending in
.perfetto/.pftrace streams packets incrementally.

serve --arrivals turns the trace into an open-arrival stream (seeded by --seed,
default 1) whose requests land mid-drain: poisson:<rate_hz> for memoryless
traffic, bursty:<rate_hz>:<on_ms>:<off_ms> for on/off bursts. --queue-cap and
--shed-flow-ms shed arrivals under overload (reported as rejected); --coalesce
folds identical queued shapes into one execution.

straggler defense (serve/metrics/timeline): --hedge <mult> re-dispatches an
attempt overrunning its prediction by mult x (adaptively widened by observed
drift) to the best other healthy device, first completion wins; --probation
<backoff_ms[:successes]> probes quarantined devices with canary GEMMs and
re-admits after the given consecutive successes (default 2); --retry-budget
<tokens[:refill_per_sec]> bounds executor retries with a token bucket + circuit
breaker that fails fast to host during fault storms. All three default off.";

/// Flags of the routine-executing subcommands (`run`, `report`, `trace`).
const ROUTINE_KEYS: &[&str] = &[
    "testbed", "profile", "routine", "dims", "loc", "tile", "faults",
];

/// Flags of the serving subcommands (`serve`, `metrics`, `timeline`): what
/// [`serve_comparison`] reads.
const SERVE_KEYS: &[&str] = &[
    "testbed",
    "devices",
    "trace",
    "faults",
    "policy",
    "trace-out",
    "arrivals",
    "seed",
    "queue-cap",
    "shed-flow-ms",
    "coalesce",
    "watch",
    "window-ms",
    "snapshot-ms",
    "slo",
    "ring",
    "hedge",
    "probation",
    "retry-budget",
];

/// The flags subcommand `cmd` accepts; `None` for an unknown subcommand.
fn accepted_keys(cmd: &str) -> Option<Vec<&'static str>> {
    let parts: &[&[&str]] = match cmd {
        "deploy" => &[&["testbed", "out", "quick"]],
        "predict" => &[&["profile", "routine", "dims", "loc", "model"]],
        "run" => &[ROUTINE_KEYS],
        "report" => &[ROUTINE_KEYS, &["json", "format"]],
        "trace" => &[ROUTINE_KEYS, &["out", "format"]],
        "gantt" => &[&["testbed", "dims", "tile", "width"]],
        "calib" => &[&["testbed", "quick", "json"]],
        "serve" => &[SERVE_KEYS],
        "metrics" => &[SERVE_KEYS, &["format"]],
        "timeline" => &[SERVE_KEYS, &["width", "color"]],
        "snapshot" => &[&["out", "testbed", "label"]],
        "compare" => &[&["threshold", "json"]],
        _ => return None,
    };
    Some(parts.concat())
}

fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::Usage("missing subcommand".to_owned()));
    };
    let Some(accepted) = accepted_keys(cmd) else {
        return Err(CliError::Usage(format!("unknown subcommand `{cmd}`")));
    };
    // `compare` is the one positional-taking command (two snapshot paths)
    // and the one command with a non-binary exit code.
    let (pos, args) = if cmd == "compare" {
        Args::parse_with_positionals(rest)
    } else {
        Args::parse(rest).map(|args| (Vec::new(), args))
    }
    .map_err(CliError::Usage)?;
    args.check_keys(&accepted).map_err(CliError::Usage)?;
    match cmd.as_str() {
        "compare" => return cmd_compare(&pos, &args),
        "deploy" => cmd_deploy(&args),
        "predict" => cmd_predict(&args),
        "run" => cmd_run(&args),
        "report" => cmd_report(&args),
        "trace" => cmd_trace(&args),
        "gantt" => cmd_gantt(&args),
        "calib" => cmd_calib(&args),
        "serve" => cmd_serve(&args),
        "metrics" => cmd_metrics(&args),
        "timeline" => cmd_timeline(&args),
        "snapshot" => cmd_snapshot(&args),
        other => unreachable!("`{other}` has accepted keys but no handler"),
    }
    .map(|()| ExitCode::SUCCESS)
}

/// `--key value` lookup, with a missing key reported as a usage error.
fn get(args: &Args, key: &str) -> Result<String, CliError> {
    args.get(key).map_err(CliError::Usage)
}

fn testbed(args: &Args) -> Result<TestbedSpec, CliError> {
    match get(args, "testbed")?.as_str() {
        "i" | "I" | "1" => Ok(testbed_i()),
        "ii" | "II" | "2" => Ok(testbed_ii()),
        other => Err(CliError::Usage(format!(
            "unknown testbed `{other}` (expected i or ii)"
        ))),
    }
}

/// Parses the straggler-defense flags shared by `serve`, `metrics`, and
/// `timeline`: `--hedge <mult|off>`, `--probation
/// <backoff_ms[:successes]|off>`, `--retry-budget
/// <tokens[:refill_per_sec]|off>`. Absence (or `off`) leaves a feature
/// disarmed; the probation schedule is seeded by `seed` so replays are
/// bit-identical.
type DefenseConfigs = (
    Option<cocopelia_runtime::serve::HedgeConfig>,
    Option<cocopelia_runtime::serve::ProbationConfig>,
    Option<cocopelia_runtime::serve::RetryBudgetConfig>,
);

fn straggler_options(args: &Args, seed: u64) -> Result<DefenseConfigs, CliError> {
    let pos_num = |v: &str, flag: &str| -> Result<f64, CliError> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| CliError::Usage(format!("bad --{flag} value `{v}`")))
    };
    let hedge = match args.get_opt("hedge").as_deref() {
        None | Some("off") => None,
        Some(v) => Some(cocopelia_runtime::serve::HedgeConfig {
            multiplier: pos_num(v, "hedge")?,
        }),
    };
    let probation = match args.get_opt("probation").as_deref() {
        None | Some("off") => None,
        Some(v) => {
            let (ms, successes) = match v.split_once(':') {
                Some((ms, n)) => (
                    ms,
                    n.parse::<u32>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::Usage(format!("bad --probation successes `{n}`"))
                    })?,
                ),
                None => (
                    v,
                    cocopelia_runtime::serve::ProbationConfig::default().successes,
                ),
            };
            Some(cocopelia_runtime::serve::ProbationConfig {
                backoff: cocopelia_gpusim::SimTime::from_secs_f64(pos_num(ms, "probation")? * 1e-3),
                successes,
                seed,
                ..Default::default()
            })
        }
    };
    let retry_budget = match args.get_opt("retry-budget").as_deref() {
        None | Some("off") => None,
        Some(v) => {
            let (tokens, refill) = match v.split_once(':') {
                Some((t, r)) => (t, pos_num(r, "retry-budget")?),
                None => (
                    v,
                    cocopelia_runtime::serve::RetryBudgetConfig::default().refill_per_sec,
                ),
            };
            Some(cocopelia_runtime::serve::RetryBudgetConfig {
                tokens: pos_num(tokens, "retry-budget")?,
                refill_per_sec: refill,
                ..Default::default()
            })
        }
    };
    Ok((hedge, probation, retry_budget))
}

/// Parses `--faults <spec>` (absent means no injected faults).
fn faults(args: &Args) -> Result<FaultSpec, CliError> {
    match args.get_opt("faults") {
        Some(spec) => {
            FaultSpec::parse(&spec).map_err(|e| CliError::Usage(format!("bad --faults value: {e}")))
        }
        None => Ok(FaultSpec::none()),
    }
}

fn load_profile(args: &Args) -> Result<SystemProfile, CliError> {
    let path = get(args, "profile")?;
    let text = read_file(&path)?;
    SystemProfile::from_json(&text).map_err(|e| CliError::Json(format!("parsing {path}: {e}")))
}

/// `(routine, dtype, dims)` from `--routine`/`--dims`.
fn problem(args: &Args) -> Result<ProblemSpec, CliError> {
    let routine = get(args, "routine")?;
    let dims = args.get_usize_list("dims").map_err(CliError::Usage)?;
    let locs: Vec<Loc> = args
        .get_opt("loc")
        .unwrap_or_default()
        .chars()
        .map(|c| match c {
            'H' | 'h' => Ok(Loc::Host),
            'D' | 'd' => Ok(Loc::Device),
            other => Err(CliError::Usage(format!("bad loc flag `{other}` (H or D)"))),
        })
        .collect::<Result<_, _>>()?;
    let loc = |i: usize| locs.get(i).copied().unwrap_or(Loc::Host);
    let need = |n: usize| {
        if dims.len() == n {
            Ok(())
        } else {
            Err(CliError::Usage(format!(
                "{routine} needs {n} dims, got {}",
                dims.len()
            )))
        }
    };
    match routine.as_str() {
        "dgemm" | "sgemm" => {
            need(3)?;
            let dt = if routine == "dgemm" {
                Dtype::F64
            } else {
                Dtype::F32
            };
            Ok(ProblemSpec::gemm(
                dt,
                dims[0],
                dims[1],
                dims[2],
                loc(0),
                loc(1),
                loc(2),
                true,
            ))
        }
        "daxpy" => {
            need(1)?;
            Ok(ProblemSpec::axpy(Dtype::F64, dims[0], loc(0), loc(1)))
        }
        "ddot" => {
            need(1)?;
            Ok(ProblemSpec::dot(Dtype::F64, dims[0], loc(0), loc(1)))
        }
        "dgemv" => {
            need(2)?;
            Ok(ProblemSpec::gemv(
                Dtype::F64,
                dims[0],
                dims[1],
                loc(0),
                loc(1),
                loc(2),
                true,
            ))
        }
        other => Err(CliError::Usage(format!("unknown routine `{other}`"))),
    }
}

fn model(args: &Args) -> Result<Option<ModelKind>, CliError> {
    Ok(match args.get_opt("model").as_deref() {
        None => None,
        Some("cso") => Some(ModelKind::Cso),
        Some("eq1") | Some("baseline") => Some(ModelKind::Baseline),
        Some("eq2") | Some("dataloc") => Some(ModelKind::DataLoc),
        Some("bts") | Some("eq4") => Some(ModelKind::Bts),
        Some("dr") | Some("eq5") => Some(ModelKind::DataReuse),
        Some(other) => return Err(CliError::Usage(format!("unknown model `{other}`"))),
    })
}

fn cmd_deploy(args: &Args) -> Result<(), CliError> {
    let tb = testbed(args)?;
    let out = get(args, "out")?;
    let cfg = if args.has_flag("quick") {
        DeployConfig::quick()
    } else {
        DeployConfig::paper()
    };
    eprintln!(
        "deploying on {} ({} transfer dims, {} gemm tiles) ...",
        tb.name,
        cfg.transfer_dims.len(),
        cfg.gemm_tiles.len()
    );
    let report = deploy(&tb, &cfg).map_err(|e| CliError::Data(e.to_string()))?;
    println!(
        "h2d: t_l {:.2}us  {:.2} GB/s  sl {:.2}",
        report.fit.h2d.t_l * 1e6,
        1.0 / report.fit.h2d.t_b / 1e9,
        report.fit.h2d.sl
    );
    println!(
        "d2h: t_l {:.2}us  {:.2} GB/s  sl {:.2}",
        report.fit.d2h.t_l * 1e6,
        1.0 / report.fit.d2h.t_b / 1e9,
        report.fit.d2h.sl
    );
    let json = report
        .profile
        .to_json()
        .map_err(|e| CliError::Json(e.to_string()))?;
    write_file(&out, &json)?;
    println!("profile written to {out}");
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), CliError> {
    let profile = load_profile(args)?;
    let spec = problem(args)?;
    let kind = model(args)?.unwrap_or_else(|| ModelKind::recommended_for(spec.routine));
    if kind == ModelKind::Cso {
        return Err(CliError::Usage(
            "the CSO comparator needs a measured full-kernel time; use the bench harness".into(),
        ));
    }
    let exec = profile
        .exec_table(spec.routine, spec.dtype)
        .ok_or_else(|| {
            CliError::Data(format!(
                "profile has no table for {}",
                spec.routine.name(spec.dtype)
            ))
        })?;
    let ctx = ModelCtx {
        problem: &spec,
        transfer: &profile.transfer,
        exec,
        full_kernel_time: None,
    };
    let sel = TileSelector::default()
        .select(kind, &ctx)
        .map_err(|e| CliError::Data(e.to_string()))?;
    println!(
        "{} predictions for {}:",
        kind.name(),
        spec.routine.name(spec.dtype)
    );
    for p in sel.evaluated.iter() {
        let marker = if p.tile == sel.tile {
            "  <= T_best"
        } else {
            ""
        };
        println!(
            "  T={:<6} k={:<7} predicted {:>10.3} ms{marker}",
            p.tile,
            p.k,
            p.total * 1e3
        );
    }
    Ok(())
}

/// Builds a timing-only pipeline from `--testbed`/`--profile`, runs the
/// requested routine once, and returns the handle (trace + observer
/// populated) with the call's report.
fn execute(args: &Args) -> Result<(Cocopelia, cocopelia_runtime::RoutineReport), CliError> {
    let tb = testbed(args)?;
    let profile = load_profile(args)?;
    let spec = problem(args)?;
    let choice = match args.get_opt("tile").as_deref() {
        None | Some("auto") => TileChoice::Auto,
        Some(t) => TileChoice::Fixed(
            t.parse()
                .map_err(|_| CliError::Usage(format!("bad tile `{t}`")))?,
        ),
    };
    let fault_spec = faults(args)?;
    let mut ctx = Cocopelia::new(
        Gpu::with_faults(tb, ExecMode::TimingOnly, 0xC11, fault_spec),
        profile,
    );
    let dims = spec.dims();
    let ghost_mat = |r: usize, c: usize| MatOperand::<f64>::HostGhost { rows: r, cols: c };
    let report = match spec.routine {
        cocopelia_core::params::RoutineClass::Gemm => {
            let (m, n, k) = (dims[0], dims[1], dims[2]);
            GemmRequest::new(ghost_mat(m, k), ghost_mat(k, n), ghost_mat(m, n))
                .alpha(1.0)
                .beta(1.0)
                .tile(choice)
                .run(&mut ctx)?
                .report
        }
        cocopelia_core::params::RoutineClass::Axpy => {
            let n = dims[0];
            AxpyRequest::new(
                VecOperand::<f64>::HostGhost { len: n },
                VecOperand::HostGhost { len: n },
            )
            .alpha(1.0)
            .tile(choice)
            .run(&mut ctx)?
            .report
        }
        cocopelia_core::params::RoutineClass::Dot => {
            let n = dims[0];
            DotRequest::new(
                VecOperand::<f64>::HostGhost { len: n },
                VecOperand::HostGhost { len: n },
            )
            .tile(choice)
            .run(&mut ctx)?
            .report
        }
        cocopelia_core::params::RoutineClass::Gemv => {
            let (m, n) = (dims[0], dims[1]);
            GemvRequest::new(
                ghost_mat(m, n),
                VecOperand::HostGhost { len: n },
                VecOperand::HostGhost { len: m },
            )
            .alpha(1.0)
            .beta(1.0)
            .tile(choice)
            .run(&mut ctx)?
            .report
        }
    };
    Ok((ctx, report))
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let (ctx, report) = execute(args)?;
    println!(
        "T = {}  elapsed {:.3} ms  {:.1} GFLOP/s  ({} sub-kernels)  overlap {:.2}x",
        report.tile,
        report.elapsed.as_secs_f64() * 1e3,
        report.gflops(),
        report.subkernels,
        report.overlap.efficiency()
    );
    let stats = ctx.gpu().fault_stats();
    if stats.total() > 0 || report.op_retries > 0 {
        println!(
            "faults: h2d {} d2h {} kernel {} ecc {} | op retries {}{}",
            stats.h2d_faults,
            stats.d2h_faults,
            stats.kernel_faults,
            stats.ecc_faults,
            report.op_retries,
            if stats.device_lost {
                " | device lost"
            } else {
                ""
            },
        );
    }
    drop(ctx);
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let (ctx, _report) = execute(args)?;
    match args.get_opt("format").as_deref() {
        None | Some("text") => print!("{}", ctx.observer().render()),
        Some("prom") => print!(
            "{}",
            cocopelia_obs::prom::render_prom(ctx.observer().metrics())
        ),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown report format `{other}` (text|prom)"
            )));
        }
    }
    if let Some(path) = args.get_opt("json") {
        let json = serde_json::to_string(&ctx.observer().to_value())
            .map_err(|e| CliError::Json(e.to_string()))?;
        write_file(&path, &json)?;
        println!("\nJSON report written to {path}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let (ctx, _report) = execute(args)?;
    let out = get(args, "out")?;
    let entries = ctx.gpu().trace().entries();
    match args.get_opt("format").as_deref() {
        None | Some("chrome") => {
            let text = cocopelia_obs::export::to_chrome_trace(entries)
                .map_err(|e| CliError::Json(e.to_string()))?;
            write_file(&out, &text)?;
        }
        Some("jsonl") => {
            let text = cocopelia_obs::export::to_jsonl(entries)
                .map_err(|e| CliError::Json(e.to_string()))?;
            write_file(&out, &text)?;
        }
        Some("perfetto") => {
            write_bytes(&out, &cocopelia_obs::perfetto::to_perfetto_single(entries))?;
        }
        Some(other) => {
            return Err(CliError::Usage(format!("unknown trace format `{other}`")));
        }
    }
    println!("{} trace entries written to {out}", entries.len());
    Ok(())
}

fn cmd_gantt(args: &Args) -> Result<(), CliError> {
    let tb = testbed(args)?;
    let dims = args.get_usize_list("dims").map_err(CliError::Usage)?;
    if dims.len() != 3 {
        return Err(CliError::Usage("gantt needs --dims M N K".into()));
    }
    let tile: usize = get(args, "tile")?
        .parse()
        .map_err(|_| CliError::Usage("bad tile".to_owned()))?;
    let width: usize = args
        .get_opt("width")
        .map(|w| {
            w.parse()
                .map_err(|_| CliError::Usage("bad width".to_owned()))
        })
        .transpose()?
        .unwrap_or(100);
    let dummy = SystemProfile::new(
        "cli",
        cocopelia_core::transfer::TransferModel {
            h2d: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: cocopelia_core::transfer::LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    );
    let mut ctx = Cocopelia::new(Gpu::new(tb, ExecMode::TimingOnly, 3), dummy);
    GemmRequest::new(
        MatOperand::<f64>::HostGhost {
            rows: dims[0],
            cols: dims[2],
        },
        MatOperand::HostGhost {
            rows: dims[2],
            cols: dims[1],
        },
        MatOperand::HostGhost {
            rows: dims[0],
            cols: dims[1],
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(tile))
    .run(&mut ctx)?;
    println!(
        "{}",
        cocopelia_obs::gantt::render(ctx.gpu().trace().entries(), width)
    );
    print!(
        "{}",
        cocopelia_obs::gantt::engine_summary(ctx.gpu().trace().entries())
    );
    Ok(())
}

fn cmd_calib(args: &Args) -> Result<(), CliError> {
    let tb = testbed(args)?;
    let cfg = if args.has_flag("quick") {
        DeployConfig::quick()
    } else {
        DeployConfig::paper()
    };
    eprintln!("deploying on {} for the calibration audit ...", tb.name);
    let report = deploy(&tb, &cfg).map_err(|e| CliError::Data(e.to_string()))?;
    let calib = cocopelia_obs::CalibReport::from_deployment(&report);
    print!("{}", calib.render());
    if let Some(path) = args.get_opt("json") {
        let json =
            serde_json::to_string(&calib.to_value()).map_err(|e| CliError::Json(e.to_string()))?;
        write_file(&path, &json)?;
        println!("\nJSON calibration report written to {path}");
    }
    Ok(())
}

/// Shared front half of `serve` and `timeline`: parses the pool size,
/// request trace, fault plan, policy, and watch options, then runs
/// the executor comparison (span tracing on when `trace_spans`).
fn serve_comparison(
    args: &Args,
    trace_spans: bool,
) -> Result<(cocopelia_xp::ServeComparison, FaultSpec), CliError> {
    let tb = testbed(args)?;
    let devices: usize = args
        .get_opt("devices")
        .map(|d| {
            d.parse()
                .map_err(|_| CliError::Usage(format!("bad --devices value `{d}`")))
        })
        .transpose()?
        .unwrap_or(2);
    if devices == 0 {
        return Err(CliError::Usage("--devices must be at least 1".into()));
    }
    let trace = match args.get_opt("trace") {
        Some(path) => {
            let text = read_file(&path)?;
            cocopelia_xp::parse_request_trace(&text)
                .map_err(|e| CliError::Data(format!("{path}: {e}")))?
        }
        None => cocopelia_xp::standard_request_trace(),
    };
    let fault_spec = faults(args)?;
    let policy = match args.get_opt("policy") {
        Some(p) => cocopelia_runtime::serve::SchedulePolicy::parse(&p).map_err(CliError::Usage)?,
        None => cocopelia_runtime::serve::SchedulePolicy::Fifo,
    };
    let parse_ms = |key: &str| -> Result<Option<cocopelia_gpusim::SimTime>, CliError> {
        args.get_opt(key)
            .map(|ms| {
                ms.parse::<f64>()
                    .ok()
                    .filter(|v| *v > 0.0)
                    .map(|v| cocopelia_gpusim::SimTime::from_secs_f64(v * 1e-3))
                    .ok_or_else(|| CliError::Usage(format!("bad --{key} value `{ms}`")))
            })
            .transpose()
    };
    let window = parse_ms("window-ms")?.or(parse_ms("snapshot-ms")?);
    let watch = watch_options(args, window)?;
    let seed: u64 = args
        .get_opt("seed")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad --seed value `{s}`")))
        })
        .transpose()?
        .unwrap_or(1);
    let arrivals = args
        .get_opt("arrivals")
        .map(|s| cocopelia_xp::ArrivalSpec::parse(&s, seed).map_err(CliError::Usage))
        .transpose()?;
    let queue_cap = args
        .get_opt("queue-cap")
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| CliError::Usage(format!("bad --queue-cap value `{s}`")))
        })
        .transpose()?;
    let shed_flow_secs = args
        .get_opt("shed-flow-ms")
        .map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0)
                .map(|v| v * 1e-3)
                .ok_or_else(|| CliError::Usage(format!("bad --shed-flow-ms value `{s}`")))
        })
        .transpose()?;
    let coalesce = args.has_flag("coalesce");
    if arrivals.is_none() {
        if queue_cap.is_some() {
            return Err(CliError::Usage("--queue-cap requires --arrivals".into()));
        }
        if shed_flow_secs.is_some() {
            return Err(CliError::Usage("--shed-flow-ms requires --arrivals".into()));
        }
        if coalesce {
            return Err(CliError::Usage("--coalesce requires --arrivals".into()));
        }
    }
    let requests = trace.len();
    eprintln!(
        "deploying and serving {requests} request(s) on {} device(s) under {policy}{}{} ...",
        devices,
        if fault_spec.is_none() {
            ""
        } else {
            " with fault injection"
        },
        if arrivals.is_none() {
            ""
        } else {
            " with open arrivals"
        },
    );
    let (hedge, probation, retry_budget) = straggler_options(args, seed)?;
    let options = cocopelia_xp::ServeOptions {
        policy,
        trace: trace_spans,
        watch,
        arrivals,
        queue_cap,
        shed_flow_secs,
        coalesce,
        hedge,
        probation,
        retry_budget,
        fault_plans: None,
    };
    let cmp = if options.watch.is_some() {
        cocopelia_xp::run_serve_streaming(
            &tb,
            devices,
            trace,
            &fault_spec,
            &options,
            Box::new(|w| println!("{}", w.render())),
        )
    } else {
        cocopelia_xp::run_serve_with_options(&tb, devices, trace, &fault_spec, &options)
    }
    .map_err(CliError::Data)?;
    Ok((cmp, fault_spec))
}

/// Builds the `--watch` telemetry config: `--window-ms` (alias
/// `--snapshot-ms`) sets the window length, `--slo` the objectives,
/// `--ring` the span cap that bounds both the span log and each flight
/// dump, and a `--trace-out` with a Perfetto extension switches that
/// export to incremental streaming. Any of these but `--trace-out`
/// without `--watch` is a usage error.
fn watch_options(
    args: &Args,
    window: Option<cocopelia_gpusim::SimTime>,
) -> Result<Option<cocopelia_runtime::serve::TelemetryConfig>, CliError> {
    if !args.has_flag("watch") {
        for key in ["slo", "ring", "window-ms", "snapshot-ms"] {
            if args.get_opt(key).is_some() {
                return Err(CliError::Usage(format!("--{key} requires --watch")));
            }
        }
        return Ok(None);
    }
    let mut cfg = cocopelia_runtime::serve::TelemetryConfig::default();
    if let Some(window) = window {
        cfg.window = window;
    }
    if let Some(slos) = args.get_opt("slo") {
        cfg.slos = cocopelia_obs::SloSpec::parse_list(&slos).map_err(CliError::Usage)?;
    }
    if let Some(ring) = args.get_opt("ring") {
        cfg.recorder_cap = ring
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| CliError::Usage(format!("bad --ring value `{ring}`")))?;
    }
    if let Some(path) = args.get_opt("trace-out") {
        if is_perfetto_path(&path) {
            cfg.stream_path = Some(path.into());
        }
    }
    Ok(Some(cfg))
}

/// Whether a `--trace-out` path names the binary Perfetto format.
fn is_perfetto_path(path: &str) -> bool {
    path.ends_with(".perfetto") || path.ends_with(".pftrace")
}

/// Writes a serve trace in the format its extension names: `.perfetto` /
/// `.pftrace` → binary Perfetto protobuf (open in ui.perfetto.dev),
/// anything else → Chrome trace JSON (`chrome://tracing`).
fn write_serve_trace(path: &str, trace: &cocopelia_obs::ServeTrace) -> Result<(), CliError> {
    if is_perfetto_path(path) {
        write_bytes(path, &cocopelia_obs::perfetto::to_perfetto(trace))?;
        println!("perfetto trace written to {path} (open in ui.perfetto.dev)");
    } else {
        let text = cocopelia_obs::export::serve_trace_to_chrome(trace)
            .map_err(|e| CliError::Json(e.to_string()))?;
        write_file(path, &text)?;
        println!("chrome trace written to {path}");
    }
    Ok(())
}

/// Serves a request trace (the standard mixed trace unless `--trace`
/// points at a file) through the concurrent executor and prints the
/// per-request outcomes, aggregates, and the speedup over a sequential
/// no-reuse replay. `--trace-out` additionally exports the run's
/// request-lifecycle trace.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let trace_out = args.get_opt("trace-out");
    // A Perfetto --trace-out under --watch is streamed incrementally by
    // the telemetry layer; only the other combinations need the in-memory
    // trace exported after the run.
    let streamed = args.has_flag("watch") && trace_out.as_deref().is_some_and(is_perfetto_path);
    let (cmp, fault_spec) = serve_comparison(args, trace_out.is_some() && !streamed)?;
    print!("{}", cmp.report.render());
    println!(
        "sequential no-reuse baseline {:.3} ms | speedup {:.2}x on {} device(s)",
        cmp.sequential_secs * 1e3,
        cmp.speedup(),
        cmp.devices,
    );
    if !fault_spec.is_none() {
        let c = |name: &str| cmp.report.metrics.counter(name);
        println!(
            "faults: transient {} degraded {} fatal {} | retries {} (tile ops {}) | \
             quarantined {} (re-dispatched {}, invalidated {}) | host fallbacks {}",
            c("fault_transient_total"),
            c("fault_degraded_total"),
            c("fault_fatal_total"),
            c("serve_retries_total"),
            c("retry_tile_ops_total"),
            c("quarantine_devices_total"),
            c("quarantine_redispatch_total"),
            c("quarantine_invalidated_total"),
            c("fault_host_fallback_total"),
        );
    }
    {
        let c = |name: &str| cmp.report.metrics.counter(name);
        let hedges = c("hedge_attempts_total");
        let probes = c("probe_attempts_total");
        let fastfails = c("budget_fastfail_total");
        if hedges + probes + fastfails > 0 {
            println!(
                "defense: hedges {} (won {}, lost {}, faulted {}) | probes {} \
                 (ok {}, readmitted {}) | budget fastfails {}",
                hedges,
                c("hedge_wins_total"),
                c("hedge_losses_total"),
                c("hedge_fail_total"),
                probes,
                c("probe_success_total"),
                c("probe_readmit_total"),
                fastfails,
            );
        }
    }
    if let Some(path) = trace_out {
        if streamed {
            println!("perfetto trace streamed to {path} (open in ui.perfetto.dev)");
        } else {
            let trace = cmp
                .report
                .trace
                .as_ref()
                .ok_or_else(|| CliError::Data("executor produced no trace".into()))?;
            write_serve_trace(&path, trace)?;
        }
    }
    Ok(())
}

/// Runs the serve comparison silently and prints the executor's metrics
/// registry: Prometheus text exposition by default (scrape-ready counters,
/// gauges, and `_bucket`/`_sum`/`_count` histograms), or the plain listing
/// under `--format text`.
fn cmd_metrics(args: &Args) -> Result<(), CliError> {
    let (cmp, _fault_spec) = serve_comparison(args, false)?;
    match args.get_opt("format").as_deref() {
        None | Some("prom") => print!("{}", cocopelia_obs::prom::render_prom(&cmp.report.metrics)),
        Some("text") => print!("{}", cmp.report.metrics.render()),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown metrics format `{other}` (prom|text)"
            )));
        }
    }
    Ok(())
}

/// Runs the same comparison as `serve` with tracing always on and renders
/// the per-device timetable instead of the report: device rows × virtual-
/// time columns with glyphs for copies, kernels, retries, and
/// quarantines. `--trace-out` exports the trace alongside.
fn cmd_timeline(args: &Args) -> Result<(), CliError> {
    let width: usize = args
        .get_opt("width")
        .map(|w| {
            w.parse()
                .map_err(|_| CliError::Usage(format!("bad --width value `{w}`")))
        })
        .transpose()?
        .unwrap_or(96);
    let opts = cocopelia_obs::timeline::TimelineOptions {
        width,
        color: args.has_flag("color"),
    };
    let (cmp, _fault_spec) = serve_comparison(args, true)?;
    let trace = cmp
        .report
        .trace
        .as_ref()
        .ok_or_else(|| CliError::Data("executor produced no trace".into()))?;
    print!("{}", cocopelia_obs::timeline::render(trace, &opts));
    if let Some(path) = args.get_opt("trace-out") {
        write_serve_trace(&path, trace)?;
    }
    Ok(())
}

/// Derives a snapshot label from the output filename: `BENCH_pr2.json`
/// labels the snapshot `pr2`.
fn label_from_out(out: &str) -> String {
    std::path::Path::new(out)
        .file_stem()
        .and_then(|s| s.to_str())
        .map(|s| s.strip_prefix("BENCH_").unwrap_or(s))
        .filter(|s| !s.is_empty())
        .unwrap_or("snapshot")
        .to_owned()
}

fn cmd_snapshot(args: &Args) -> Result<(), CliError> {
    let out = get(args, "out")?;
    let tb = if args.get_opt("testbed").is_some() {
        testbed(args)?
    } else {
        testbed_i()
    };
    let label = args
        .get_opt("label")
        .unwrap_or_else(|| label_from_out(&out));
    eprintln!("collecting the standard sweep on {} ...", tb.name);
    let snap = cocopelia_xp::collect_snapshot(&tb, &label).map_err(CliError::Data)?;
    print!("{}", snap.render());
    let json = snap.to_json().map_err(|e| CliError::Json(e.to_string()))?;
    write_file(&out, &json)?;
    println!("snapshot written to {out}");
    Ok(())
}

fn load_snapshot(path: &str) -> Result<cocopelia_obs::Snapshot, CliError> {
    let text = read_file(path)?;
    cocopelia_obs::Snapshot::from_json(&text)
        .map_err(|e| CliError::Json(format!("parsing {path}: {e}")))
}

fn cmd_compare(pos: &[String], args: &Args) -> Result<ExitCode, CliError> {
    let [base_path, new_path] = pos else {
        return Err(CliError::Usage(
            "compare needs exactly two snapshot files: <base.json> <new.json>".to_owned(),
        ));
    };
    let base = load_snapshot(base_path)?;
    let new = load_snapshot(new_path)?;
    let mut cfg = cocopelia_obs::DiffConfig::default();
    if let Some(t) = args.get_opt("threshold") {
        cfg.makespan_threshold = t
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --threshold value `{t}`")))?;
    }
    let report = cocopelia_obs::DiffReport::compare(&base, &new, cfg).map_err(CliError::Data)?;
    print!("{}", report.render());
    if let Some(path) = args.get_opt("json") {
        let json =
            serde_json::to_string(&report.to_value()).map_err(|e| CliError::Json(e.to_string()))?;
        write_file(&path, &json)?;
        println!("JSON diff written to {path}");
    }
    if report.has_regressions() {
        eprintln!("performance regression detected");
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Minimal `--key value` / `--flag` parser (kept dependency-free).
mod args_impl {
    use super::HashMap;

    #[derive(Debug, Default)]
    pub struct Args {
        values: HashMap<String, Vec<String>>,
        flags: Vec<String>,
        /// Every key, in argument order.
        keys: Vec<String>,
    }

    impl Args {
        /// Like [`parse`](Self::parse), but tokens before the first `--key`
        /// are collected as positional arguments instead of rejected.
        pub fn parse_with_positionals(argv: &[String]) -> Result<(Vec<String>, Args), String> {
            let split = argv
                .iter()
                .position(|a| a.starts_with("--"))
                .unwrap_or(argv.len());
            let (pos, rest) = argv.split_at(split);
            Ok((pos.to_vec(), Args::parse(rest)?))
        }

        pub fn parse(argv: &[String]) -> Result<Args, String> {
            let mut out = Args::default();
            let mut i = 0;
            while i < argv.len() {
                let arg = &argv[i];
                let Some(key) = arg.strip_prefix("--") else {
                    return Err(format!("unexpected positional argument `{arg}`"));
                };
                let mut vals = Vec::new();
                while i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    vals.push(argv[i + 1].clone());
                    i += 1;
                }
                if vals.is_empty() {
                    out.flags.push(key.to_owned());
                } else {
                    out.values.insert(key.to_owned(), vals);
                }
                out.keys.push(key.to_owned());
                i += 1;
            }
            Ok(out)
        }

        pub fn get(&self, key: &str) -> Result<String, String> {
            self.get_opt(key).ok_or_else(|| format!("missing --{key}"))
        }

        pub fn get_opt(&self, key: &str) -> Option<String> {
            self.values.get(key).map(|v| v.join(" "))
        }

        pub fn get_usize_list(&self, key: &str) -> Result<Vec<usize>, String> {
            let vals = self
                .values
                .get(key)
                .ok_or_else(|| format!("missing --{key}"))?;
            vals.iter()
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("bad --{key} value `{v}`"))
                })
                .collect()
        }

        pub fn has_flag(&self, key: &str) -> bool {
            self.flags.iter().any(|f| f == key)
        }

        /// Rejects the first key, in argument order, that `accepted` does
        /// not list, so a misspelt or retired flag is never ignored.
        pub fn check_keys(&self, accepted: &[&str]) -> Result<(), String> {
            match self.keys.iter().find(|k| !accepted.contains(&k.as_str())) {
                Some(key) => Err(format!("unknown flag `--{key}`")),
                None => Ok(()),
            }
        }
    }
}

mod args {
    //! Re-export of the dependency-free argument parser.
    pub use super::args_impl::Args;
}

#[cfg(test)]
mod tests {
    use super::args::Args;
    use super::CliError;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_keys_values_and_flags() {
        let a = Args::parse(&argv("--testbed ii --dims 1 2 3 --quick")).expect("parses");
        assert_eq!(a.get("testbed").expect("present"), "ii");
        assert_eq!(a.get_usize_list("dims").expect("present"), vec![1, 2, 3]);
        assert!(a.has_flag("quick"));
        assert!(a.get("missing").is_err());
    }

    #[test]
    fn rejects_positionals() {
        assert!(Args::parse(&argv("stray")).is_err());
    }

    #[test]
    fn parse_with_positionals_splits_at_first_flag() {
        let (pos, a) = Args::parse_with_positionals(&argv("base.json new.json --threshold 0.1"))
            .expect("parses");
        assert_eq!(pos, vec!["base.json".to_owned(), "new.json".to_owned()]);
        assert_eq!(a.get("threshold").expect("present"), "0.1");
        let (none, _) = Args::parse_with_positionals(&argv("--threshold 0.1")).expect("parses");
        assert!(none.is_empty());
    }

    #[test]
    fn snapshot_label_derivation() {
        assert_eq!(super::label_from_out("BENCH_seed.json"), "seed");
        assert_eq!(super::label_from_out("out/BENCH_pr2.json"), "pr2");
        assert_eq!(super::label_from_out("results.json"), "results");
        assert_eq!(super::label_from_out("BENCH_.json"), "snapshot");
    }

    #[test]
    fn subcommand_dispatch_rejects_unknown() {
        assert!(matches!(
            super::run(&argv("frobnicate --x 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(super::run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn errors_keep_their_context() {
        // Io carries the path and the OS error as a source.
        let err = super::read_file("/nonexistent/profile.json").expect_err("missing file");
        let CliError::Io { path, source } = &err else {
            panic!("expected Io, got {err:?}")
        };
        assert_eq!(path, "/nonexistent/profile.json");
        assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
        assert!(std::error::Error::source(&err).is_some());
        // Usage errors are the only ones that re-print the usage text.
        assert!(std::error::Error::source(&CliError::Usage("x".into())).is_none());
    }

    #[test]
    fn serve_rejects_zero_devices_and_bad_traces() {
        assert!(matches!(
            super::run(&argv("serve --testbed i --devices 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            super::run(&argv("serve --testbed i --trace /nonexistent/trace.txt")),
            Err(CliError::Io { .. })
        ));
    }

    #[test]
    fn timeline_shares_serve_validation() {
        assert!(matches!(
            super::run(&argv("timeline --testbed i --devices 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            super::run(&argv("timeline --testbed i --width potato")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            super::run(&argv("serve --testbed i --snapshot-ms -3")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_validates_open_arrival_flags() {
        // Arrival grammar errors are usage errors.
        assert!(matches!(
            super::run(&argv("serve --testbed i --arrivals uniform:9")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            super::run(&argv("serve --testbed i --arrivals poisson:0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            super::run(&argv(
                "serve --testbed i --arrivals poisson:100 --seed nope"
            )),
            Err(CliError::Usage(_))
        ));
        // Backpressure/coalescing knobs act on arrivals only.
        for flags in [
            "--queue-cap 8",
            "--shed-flow-ms 50",
            "--coalesce",
            "--queue-cap 0 --arrivals poisson:100",
        ] {
            let cmd = format!("serve --testbed i {flags}");
            assert!(
                matches!(super::run(&argv(&cmd)), Err(CliError::Usage(_))),
                "`{flags}` must be a usage error"
            );
        }
        // The watch window length (and its --snapshot-ms alias) is a
        // --watch flag.
        for flag in ["--window-ms 5", "--snapshot-ms 5"] {
            assert!(matches!(
                super::run(&argv(&format!("serve --testbed i {flag}"))),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn serve_rejects_malformed_fault_specs() {
        // Every malformed --faults spec must surface as a typed usage
        // error (exit 2 from main), never a panic or a silent default.
        for spec in [
            "kernel=potato",
            "h2d=2.5",
            "frobnicate=1",
            "lost_after=-3",
            "degrade=1:2",
        ] {
            let cmd = format!("serve --testbed i --faults {spec}");
            match super::run(&argv(&cmd)) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("--faults"), "`{spec}`: {msg}")
                }
                other => panic!("`{spec}` must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_rejects_unknown_slo_kinds() {
        for slo in ["bogus<=0.1", "deadline_miss<=nope", "deadline_miss"] {
            let cmd = format!("serve --testbed i --watch --slo {slo}");
            assert!(
                matches!(super::run(&argv(&cmd)), Err(CliError::Usage(_))),
                "`{slo}` must be a usage error"
            );
        }
    }

    #[test]
    fn serve_validates_straggler_defense_flags() {
        for flags in [
            "--hedge potato",
            "--hedge -1",
            "--hedge 0",
            "--probation potato",
            "--probation 5:0",
            "--probation 5:x",
            "--retry-budget potato",
            "--retry-budget 8:0",
            "--retry-budget 8:x",
        ] {
            let cmd = format!("serve --testbed i {flags}");
            assert!(
                matches!(super::run(&argv(&cmd)), Err(CliError::Usage(_))),
                "`{flags}` must be a usage error"
            );
        }
        // `off` always parses to disarmed (reaches the run itself, which
        // succeeds on the standard trace).
        let (h, p, b) = super::straggler_options(
            &Args::parse(&argv("--hedge off --probation off --retry-budget off")).expect("parses"),
            1,
        )
        .expect("off disarms");
        assert!(h.is_none() && p.is_none() && b.is_none());
        let (h, p, b) = super::straggler_options(
            &Args::parse(&argv("--hedge 1.5 --probation 5:3 --retry-budget 8:2")).expect("parses"),
            7,
        )
        .expect("parses armed");
        assert_eq!(h.expect("hedge").multiplier, 1.5);
        let p = p.expect("probation");
        assert_eq!(p.successes, 3);
        assert_eq!(p.seed, 7);
        let b = b.expect("budget");
        assert_eq!(b.tokens, 8.0);
        assert_eq!(b.refill_per_sec, 2.0);
    }

    #[test]
    fn serve_rejects_unknown_policy() {
        let err = super::run(&argv("serve --testbed i --policy sjf")).expect_err("bad policy");
        match err {
            CliError::Usage(msg) => assert!(msg.contains("sjf"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_and_retired_flags_are_usage_errors() {
        for (cmd, key) in [
            ("serve --testbed i --prefetch", "prefetch"),
            ("serve --testbed i --devices 1 --hegde 2", "hegde"),
            ("serve --testbed i --devices 1 --bogus-flag", "bogus-flag"),
            ("metrics --testbed i --width 9", "width"),
            ("deploy --testbed i --out p.json --quik", "quik"),
            ("compare a.json b.json --treshold 0.1", "treshold"),
        ] {
            match super::run(&argv(cmd)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(&format!("--{key}")), "{msg}"),
                other => panic!("`{cmd}` must be a usage error, got {other:?}"),
            }
        }
        // The first unknown key in argument order is the one named.
        let a = Args::parse(&argv("--zeta 1 --testbed i --alpha")).expect("parses");
        assert_eq!(
            a.check_keys(&["testbed"]).expect_err("unknown keys"),
            "unknown flag `--zeta`"
        );
    }

    #[test]
    fn usage_lists_every_slo_kind() {
        let (_, notes) = super::USAGE
            .split_once("--slo objectives")
            .expect("usage documents --slo");
        for kind in cocopelia_obs::SloKind::ALL {
            assert!(notes.contains(kind.name()), "usage omits `{}`", kind.name());
        }
    }

    #[test]
    fn every_documented_flag_is_accepted() {
        let flags = |text: &str| -> Vec<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|w| w.strip_prefix("--"))
                .filter(|w| !w.is_empty())
                .map(str::to_owned)
                .collect()
        };
        let (synopsis, notes) = super::USAGE
            .split_once("fault spec grammar")
            .expect("usage has notes");
        // Each synopsis block: `cocopelia <cmd> ...` plus its
        // continuation lines.
        let mut checked = 0;
        for block in synopsis.split("  cocopelia ").skip(1) {
            let cmd = block.split_whitespace().next().expect("subcommand");
            let accepted = super::accepted_keys(cmd).expect("documented subcommand");
            for flag in flags(block) {
                assert!(
                    accepted.contains(&flag.as_str()),
                    "{cmd} rejects its documented --{flag}"
                );
                checked += 1;
            }
        }
        assert!(checked > 40, "only {checked} synopsis flags found");
        // The notes document serve's flags (and the serve flags that
        // metrics and timeline share).
        let serve = super::accepted_keys("serve").expect("serve");
        for flag in flags(notes) {
            assert!(serve.contains(&flag.as_str()), "serve rejects --{flag}");
        }
        // The module-level synopsis too.
        for line in include_str!("main.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .filter_map(|l| l.strip_prefix("//! cocopelia "))
        {
            let cmd = line.split_whitespace().next().expect("subcommand");
            let accepted = super::accepted_keys(cmd).expect("documented subcommand");
            for flag in flags(line) {
                assert!(accepted.contains(&flag.as_str()), "{cmd} rejects --{flag}");
            }
        }
    }

    #[test]
    fn problem_construction() {
        let a = Args::parse(&argv("--routine dgemm --dims 64 32 16 --loc HDH")).expect("parses");
        let p = super::problem(&a).expect("builds");
        assert_eq!(p.dims(), vec![64, 32, 16]);
        assert_eq!(p.operands[1].loc, cocopelia_core::params::Loc::Device);
        let bad = Args::parse(&argv("--routine dgemm --dims 64")).expect("parses");
        assert!(super::problem(&bad).is_err());
    }
}
