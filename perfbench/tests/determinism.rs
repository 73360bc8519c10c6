//! Virtual metrics repeat exactly for one seed and move with another, and
//! the metric names the benchmark prints are the ones `BENCHMARK.json`
//! declares. Slow in a debug build: run with `cargo test --release`.

use cocopelia_perfbench::{run, Config, END_TO_END, PER_LAYER, WORKLOADS};

/// The virtual (simulated-time) end-to-end metrics of one untraced run.
fn virtual_metrics(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
    let report = run(&Config {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace: false,
    });
    assert!(
        report.correct(),
        "{workload} seed {seed}: gate failed: {:?}",
        report.gate_failures
    );
    report
        .end_to_end
        .0
        .iter()
        .filter(|m| m.name.starts_with("virt_"))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn virtual_metrics_repeat_per_seed_and_differ_across_seeds() {
    for workload in WORKLOADS {
        let a = virtual_metrics(workload, 7);
        let b = virtual_metrics(workload, 7);
        let c = virtual_metrics(workload, 8);
        assert_eq!(a.len(), 5, "{workload}: {a:?}");
        assert_eq!(a, b, "{workload}: same seed, different virtual metrics");
        assert_ne!(a, c, "{workload}: another seed, identical virtual metrics");
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for w in WORKLOADS {
        assert!(declared(w), "workload {w} missing from BENCHMARK.json");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(declared(name), "metric {name} missing from BENCHMARK.json");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} declared with another unit"
        );
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares names the benchmark does not print"
    );
}
