//! The benchmark's own tests: a short run of every workload passes its
//! oracle, prints every metric named in `BENCHMARK.json` with its unit,
//! and repeats its exact counters on a second run with the same seed and
//! on a traced run, whose counters come from its traced half.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["scan", "join", "served", "requery"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn run(workload: &str, seed: u64, trace: u8, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
    ]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// `(name, unit)` of every metric listed under `section` in
/// BENCHMARK.json (a flat scan: each entry is `{"name": …, "unit": …`).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn check_result(out: &Output, section: &str) -> String {
    let text = stdout(out);
    assert!(
        out.status.success(),
        "exit {:?}\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = text.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for (name, unit) in declared(section) {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from {last}"));
        let rest = &last[at + needle.len()..];
        assert!(
            rest.split('}')
                .next()
                .expect("metric body")
                .ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name} lacks unit {unit}: {last}"
        );
    }
    text
}

fn exact_line(text: &str) -> String {
    text.lines()
        .find(|l| l.starts_with("exact "))
        .expect("an exact-counter line")
        .to_string()
}

/// The first-sessions allocation count, when the workload is
/// single-threaded.
fn allocations(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("allocations first "))?;
    line.rsplit(' ').next()?.parse().ok()
}

/// Allocation counts repeat to within a few per million (see main.rs).
fn assert_allocations_repeat(workload: &str, a: &str, b: &str) {
    if let (Some(x), Some(y)) = (allocations(a), allocations(b)) {
        assert!(
            (x - y).abs() <= 1e-5 * x.max(y),
            "{workload}: allocations {x} vs {y}"
        );
    }
}

fn check_workload(workload: &str) {
    let first = check_result(&run(workload, 11, 0, &[]), "end_to_end");
    let second = check_result(&run(workload, 11, 0, &[]), "end_to_end");
    assert_eq!(
        exact_line(&first),
        exact_line(&second),
        "{workload}: exact counters differ between runs"
    );
    assert_allocations_repeat(workload, &first, &second);
    let traced = check_result(&run(workload, 11, 1, &[]), "per_layer");
    assert_eq!(
        exact_line(&first),
        exact_line(&traced),
        "{workload}: tracing changed the exact counters"
    );
    assert_allocations_repeat(workload, &first, &traced);
}

#[test]
fn scan_passes_oracle_prints_metrics_and_repeats_counts() {
    check_workload(WORKLOADS[0]);
}

#[test]
fn join_passes_oracle_prints_metrics_and_repeats_counts() {
    check_workload(WORKLOADS[1]);
}

#[test]
fn served_passes_oracle_prints_metrics_and_repeats_counts() {
    check_workload(WORKLOADS[2]);
}

#[test]
fn requery_passes_oracle_prints_metrics_and_repeats_counts() {
    check_workload(WORKLOADS[3]);
}

#[test]
fn refuses_program_altering_environment() {
    for var in ["MIX_THREADS", "MIX_SEMCACHE_FORCE"] {
        let out = run("join", 1, 0, &[(var, "1")]);
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(
            !stdout(&out).contains("\"correct\""),
            "{var}: no result may be printed"
        );
    }
}
