//! Self-test of the benchmark: `BENCHMARK.json` is well formed, every
//! workload runs at the `--smoke` size in both modes and prints exactly the
//! metrics `BENCHMARK.json` names, and the harness keeps to the frozen API
//! surface. Run with `cargo test --manifest-path benchmark/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(value: &Json) -> Vec<&str> {
    value.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn list<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    value.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is a list"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` of the metrics in one list of `BENCHMARK.json`.
fn metric_units(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    list(benchmark, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let command: Vec<&str> =
        list(&b, "command").iter().map(|c| c.as_str().expect("a string")).collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command.iter().all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains("..")));
    let paths: Vec<&str> =
        list(&b, "paths").iter().map(|p| p.as_str().expect("a string")).collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = b.get("run_seconds").and_then(Json::as_f64).expect("run_seconds is a number");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = list(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(text(w, "name")) && names.insert(text(w, "name").to_string()));
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {}",
            text(w, "name")
        );
    }
    // The driver makes 4 + 22 runs per workload inside 3420 s.
    assert!((4 + 22 * workloads.len()) as f64 * seconds < 3420.0);

    let end_to_end = list(&b, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(is_name(text(m, "name")) && names.insert(text(m, "name").to_string()));
        assert!(is_unit(text(m, "unit")), "unit of {}", text(m, "name"));
        assert!(["lower", "higher"].contains(&text(m, "better")));
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound is a number");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", text(m, "name"));
    }
    let setup =
        end_to_end.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s is listed");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest =
        end_to_end.iter().filter_map(|m| m.get("bound").and_then(Json::as_f64)).fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );

    let per_layer = list(&b, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert!(is_name(text(m, "name")) && names.insert(text(m, "name").to_string()));
        assert!(is_unit(text(m, "unit")), "unit of {}", text(m, "name"));
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
}

/// One smoke run; returns standard output.
fn smoke_run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_graceful-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        // A knob in the caller's environment must not reach the product.
        .env("GRACEFUL_THREADS", "1")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_exactly_once() {
    let b = benchmark_json();
    for w in list(&b, "workloads") {
        let workload = text(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let expected = metric_units(&b, key);
            let stdout = smoke_run(workload, trace);
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload} --trace {trace}"
            );
            assert!(result
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0 && n.fract() == 0.0));

            // The result object: exactly the named metrics, each once, with
            // the unit BENCHMARK.json states and a finite value.
            let metrics =
                result.get("metrics").and_then(Json::as_obj).expect("metrics is an object");
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let named: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, named, "{workload} --trace {trace}");
            for ((name, unit), (_, metric)) in expected.iter().zip(metrics) {
                assert!(is_name(name), "{name}");
                assert_eq!(keys(metric), ["value", "unit"], "{name}");
                assert_eq!(text(metric, "unit"), unit, "{name}");
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {name} is {value:?}");
                if key == "end_to_end" {
                    assert!(value != Some(0.0), "{workload}: end-to-end metric {name} is 0");
                }
                // The ledger above the result line: one row per metric.
                let rows =
                    stdout.lines().filter(|l| l.split_whitespace().next() == Some(name)).count();
                assert_eq!(rows, 1, "{workload} --trace {trace}: {name} printed {rows} times");
            }
            let headers = stdout.lines().filter(|l| l.starts_with(&format!("{workload}:"))).count();
            assert_eq!(headers, 1, "{workload} names itself once");
            // The caller's knob was removed and recorded.
            let record = std::fs::read_to_string(
                package_dir().join(format!("out/run-{workload}-trace{trace}.json")),
            )
            .expect("the run record is written");
            let record = json::parse(&record).expect("the run record parses");
            let scrubbed = record
                .get("record")
                .map(|r| list(r, "scrubbed_env"))
                .expect("scrubbed_env is recorded");
            assert!(scrubbed.contains(&Json::str("GRACEFUL_THREADS")));
        }
        let trace =
            std::fs::read_to_string(package_dir().join(format!("out/trace-{workload}.json")))
                .expect("the traced run writes its trace");
        let trace = json::parse(&trace).expect("the trace is JSON");
        let events = list(&trace, "traceEvents");
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| text(e, "ph") == "X" && e.get("ts").is_some() && e.get("dur").is_some()));
    }
}

/// The harness may use only the API surface the issue froze: it must not
/// name the engine's mode enums or profile type, and the only mention of the
/// product's environment prefix is the constant the scrub uses. Nor may it
/// write a struct literal of the product's record types: a later change may
/// add a field to them and may not edit the benchmark.
#[test]
fn harness_keeps_to_the_frozen_surface() {
    let forbidden = [
        "ExecMode",
        "UdfBackend",
        "GnnExecMode",
        "ExecProfile",
        "GRACEFUL_",
        "LabeledQuery {",
        "DatasetCorpus {",
        "GeneratedUdf {",
        "QuerySpec {",
        "QueryRun {",
    ];
    let allowed = "const KNOB_PREFIX: &str = \"GRACEFUL_\";";
    let sources = std::fs::read_dir(package_dir().join("src")).expect("src/ exists");
    let mut checked = 0;
    for entry in sources {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            checked += 1;
            check_source(&path, &forbidden, allowed);
        }
    }
    assert!(checked >= 7, "only {checked} source files found");
}

fn check_source(path: &Path, forbidden: &[&str], allowed: &str) {
    let source = std::fs::read_to_string(path).expect("a readable source file");
    for (n, line) in source.lines().enumerate() {
        if line.trim() == allowed {
            continue;
        }
        for token in forbidden {
            assert!(!line.contains(token), "{}:{}: names {token}", path.display(), n + 1);
        }
    }
}
