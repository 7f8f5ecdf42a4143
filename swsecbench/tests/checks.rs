//! Runs the benchmark binary end to end: output checks on several
//! seeds, metric names against `BENCHMARK.json`, and exact repetition
//! of the count metrics across two runs of one seed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["campaign", "fuzz", "serve"];

/// Runs one workload for one second; returns the last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swsecbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names, in order, of a result line.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Every chunk but the last ends with the next metric's `"name": `.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| {
            let end = chunk.rfind("\": ").expect("name ends");
            let start = chunk[..end].rfind('"').expect("name starts") + 1;
            chunk[start..end].to_string()
        })
        .collect()
}

/// The value of metric `name` in a result line.
fn metric(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {result}"))
        + key.len();
    let end = result[at..].find(',').expect("value ends");
    result[at..at + end].parse().expect("numeric value")
}

/// `"name"` values of the `section` list in `BENCHMARK.json`.
fn manifest_names(section: &str) -> Vec<String> {
    let manifest = include_str!("../../BENCHMARK.json");
    let start = manifest.find(&format!("\"{section}\"")).expect("section");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn field(result: &str, key: &str) -> String {
    let key = format!("\"{key}\": ");
    let at = result.find(&key).expect("field") + key.len();
    let end = result[at..].find(',').expect("field ends");
    result[at..at + end].to_string()
}

#[test]
fn outputs_check_on_three_seeds() {
    let end_to_end = manifest_names("end_to_end");
    for workload in WORKLOADS {
        for seed in [1, 2, 3] {
            let result = run(workload, seed, false);
            assert_eq!(
                field(&result, "correct"),
                "true",
                "{workload} seed {seed}: {result}"
            );
            assert_eq!(field(&result, "failed"), "0", "{workload} seed {seed}");
            assert_eq!(metric_names(&result), end_to_end, "{workload}");
            for name in &end_to_end {
                assert!(
                    metric(&result, name) > 0.0,
                    "{workload} seed {seed}: {name} is 0"
                );
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly_for_one_seed() {
    let per_layer = manifest_names("per_layer");
    let counts: [(&str, &[&str]); 3] = [
        ("campaign", &["core.loader.calls", "core.cache.hit_ratio"]),
        (
            "fuzz",
            &[
                "vm.instructions",
                "vm.tier2.instr_share",
                "vm.icache.hit_ratio",
                "core.loader.calls",
                "core.harness.boots",
            ],
        ),
        (
            "serve",
            &[
                "vm.instructions",
                "vm.icache.hit_ratio",
                "core.harness.boots",
                "core.serve.pool_hit_ratio",
                "core.cache.hit_ratio",
            ],
        ),
    ];
    for (workload, names) in counts {
        let first = run(workload, 7, true);
        let second = run(workload, 7, true);
        assert_eq!(field(&first, "correct"), "true", "{workload}: {first}");
        assert_eq!(metric_names(&first), per_layer, "{workload}");
        assert_eq!(
            field(&first, "attempted"),
            field(&second, "attempted"),
            "{workload}"
        );
        for name in names {
            assert_eq!(
                metric(&first, name),
                metric(&second, name),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for (workload, seed, seconds) in [("nope", "1", "1"), ("fuzz", "1", "0"), ("fuzz", "x", "1")] {
        let out = Command::new(env!("CARGO_BIN_EXE_swsecbench"))
            .args(["--workload", workload, "--seed", seed, "--seconds", seconds])
            .args(["--trace", "0"])
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{workload} {seed} {seconds}");
        assert!(out.stdout.is_empty(), "{workload} {seed} {seconds}");
    }
}
