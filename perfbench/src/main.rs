//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the workload's human-readable report, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when the correctness gate fails and 2
//! on a usage error (printing no result).

use cocopelia_perfbench::{run, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = run(&cfg);
    print!("{}", report.render(&cfg.workload, cfg.seed));
    println!("{}", report.to_json(cfg.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
