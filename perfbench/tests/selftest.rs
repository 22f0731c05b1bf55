//! Self-test of the benchmark at tiny sizes, through its command line.
//!
//! Every workload named in `BENCHMARK.json` runs twice untraced and twice
//! traced. Each run must pass its output checks; the traced runs must
//! report identical detection metrics; and each run must report exactly the
//! metrics `BENCHMARK.json` names for its mode, with their units.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A `(name, unit)` pair.
type Named = (String, String);

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The text of the JSON array under `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    &body[..body.find(']').expect("array closes")]
}

/// Every `"field": "<value>"` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let marker = format!("\"{field}\": \"");
    text.match_indices(&marker)
        .map(|(i, _)| {
            let rest = &text[i + marker.len()..];
            rest[..rest.find('"').expect("string closes")].to_owned()
        })
        .collect()
}

/// `(name, unit)` of every metric in the array under `key`.
fn declared(json: &str, key: &str) -> Vec<Named> {
    let text = section(json, key);
    let names = strings(text, "name");
    let units = strings(text, "unit");
    assert_eq!(names.len(), units.len(), "{key}: every metric has a unit");
    names.into_iter().zip(units).collect()
}

/// One run's result line.
struct Result {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Result {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    fn named(&self) -> Vec<Named> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect()
    }
}

fn parse_result(line: &str) -> Result {
    let scalar = |key: &str| -> &str {
        let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
        &rest[..rest.find(',').expect("field ends")]
    };
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    let metrics = body
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")
                .expect("metric entry");
            let (value, rest) = rest.split_once(", \"unit\": \"").expect("unit");
            let unit = &rest[..rest.find('"').expect("unit closes")];
            let value: f64 = value.parse().expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.to_owned(), value, unit.to_owned())
        })
        .collect();
    Result {
        correct: scalar("correct") == "true",
        failed: scalar("failed").parse().expect("failed count"),
        metrics,
    }
}

fn run(workload: &str, trace: bool) -> Result {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}"));
    fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_segugio-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    assert!(
        !dir.join(".perfbench-work").exists(),
        "{workload}: scratch files left behind"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"host_threads\"")),
        "{workload}: no provenance line"
    );
    let result = parse_result(lines.last().expect("a result line"));
    assert!(result.correct && result.failed == 0, "{workload}: {stderr}");
    result
}

#[test]
fn every_workload_is_deterministic_and_reports_every_metric() {
    let json = benchmark_json();
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    let workloads = strings(section(&json, "workloads"), "name");
    assert!(workloads.len() >= 2, "{workloads:?}");

    for workload in &workloads {
        for _ in 0..2 {
            let untraced = run(workload, false);
            assert_eq!(
                untraced.named(),
                end_to_end,
                "{workload}: end-to-end metrics"
            );
            assert!(untraced.value("run_s") > 0.0 && untraced.value("setup_s") > 0.0);
        }

        let traced = run(workload, true);
        let again = run(workload, true);
        assert_eq!(traced.named(), per_layer, "{workload}: per-layer metrics");
        for metric in ["tracker.cc_flagged", "tracker.benign_flagged"] {
            assert_eq!(
                traced.value(metric),
                again.value(metric),
                "{workload}: {metric} differs between identical runs"
            );
        }
        assert_eq!(traced.value("score.allocs"), 0.0, "{workload}");
        assert!(traced.value("snapshot.s") > 0.0, "{workload}");
        assert!(traced.value("tracker.other_s") >= 0.0, "{workload}");
    }
}
