//! `compare A.json B.json`: judge result set B (the change) against result
//! set A (the parent) by the bounds in `BENCHMARK.json`, one row per
//! (workload, end-to-end metric).
//!
//! The verdicts follow the choosing-metrics guide: `worse` when B's median
//! is worse than A's by more than the metric's bound; `unresolved` when the
//! run-to-run spread of either side is wider than the bound, unless every
//! run of one side beats every run of the other; `better` and `same`
//! otherwise. Each workload also gets a `failed_share` row (failed ÷
//! attempted operations over its runs), which has no bound: any increase, and
//! any run of B whose checks failed, is `worse`. So is a metric that B does
//! not report as a finite number in every run. Any `worse` makes the exit
//! code 1.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// The untraced runs of one workload in a result file.
#[derive(Default)]
struct Side {
    runs: usize,
    /// Runs whose result says `correct: false` (or does not say).
    incorrect: usize,
    attempted: f64,
    failed: f64,
    /// Metric → the finite values read. A metric a run lacks, or reports as
    /// something other than a finite number, leaves its list short of `runs`.
    values: BTreeMap<String, Vec<f64>>,
}

impl Side {
    /// The metric's values, if every run reported one.
    fn complete(&self, metric: &str) -> Option<&[f64]> {
        let v = self.values.get(metric)?;
        (self.runs > 0 && v.len() == self.runs).then_some(v.as_slice())
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted
    }
}

/// Workload → its untraced runs.
fn sides(results: &Json) -> Result<BTreeMap<String, Side>, String> {
    let runs = results.get("runs").and_then(Json::as_arr).ok_or("result file has no runs list")?;
    let mut out: BTreeMap<String, Side> = BTreeMap::new();
    for run in runs.iter().filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0)) {
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run lacks workload")?;
        let result = run.get("result").ok_or("run lacks result")?;
        let side = out.entry(workload.to_string()).or_default();
        side.runs += 1;
        side.incorrect += usize::from(result.get("correct") != Some(&Json::Bool(true)));
        let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        side.attempted += count("attempted");
        side.failed += count("failed");
        for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            let value = metric.get("value").and_then(Json::as_f64).filter(|v| v.is_finite());
            if let Some(v) = value {
                side.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Judge one metric on one workload. `a` is the parent, `b` the change.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    let change = sign * (mb - ma) / ma.abs();
    let beats = |x: &[f64], y: &[f64]| x.iter().all(|&x| y.iter().all(|&y| sign * x < sign * y));
    let noisy = [a, b].iter().any(|v| spread(v).is_some_and(|s| s > bound));
    if !change.is_finite() {
        Verdict::Unresolved
    } else if noisy {
        if change > bound && beats(a, b) {
            Verdict::Worse
        } else if change < 0.0 && beats(b, a) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Failed operations and failed checks admit no bound: any increase of the
/// failed share, and any run of B that is not `correct`, is `worse`.
fn judge_failures(a: &Side, b: &Side) -> Verdict {
    let (sa, sb) = (a.failed_share(), b.failed_share());
    if b.runs == 0 || b.incorrect > 0 || !sb.is_finite() || sb > sa {
        Verdict::Worse
    } else if a.runs == 0 || !sa.is_finite() {
        Verdict::Unresolved
    } else if sb < sa {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn word(verdict: Verdict) -> String {
    format!("{verdict:?}").to_lowercase()
}

pub fn compare(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err("compare needs two result files".into());
    };
    // Always the repository's own bounds: a result is judged by the
    // BENCHMARK.json of the checkout this binary was built in.
    let benchmark = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let bounds = bounds(&benchmark)?;
    let (a, b) = (sides(&read_json(Path::new(a))?)?, sides(&read_json(Path::new(b))?)?);
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change%", "A iqr%", "B iqr%", "bound%"
    );
    let none = Side::default();
    let mut any_worse = false;
    for workload in workloads {
        let (sa, sb) = (a.get(workload).unwrap_or(&none), b.get(workload).unwrap_or(&none));
        let verdict = judge_failures(sa, sb);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<14} {:<22} {:>13.5} {:>13.5} {:>8} {:>7} {:>7} {:>6}  {} \
             (failed/attempted {}/{} and {}/{}; {} of B's {} runs not correct)",
            "failed_share",
            sa.failed_share(),
            sb.failed_share(),
            "-",
            "-",
            "-",
            "any",
            word(verdict),
            sa.failed,
            sa.attempted,
            sb.failed,
            sb.attempted,
            sb.incorrect,
            sb.runs,
        );
        for m in &bounds {
            // A metric the change no longer reports (or reports as NaN) in
            // every run cannot be shown to be no worse.
            let (va, vb) = match (sa.complete(&m.name), sb.complete(&m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                (_, vb) => {
                    let verdict = if vb.is_some() { Verdict::Unresolved } else { Verdict::Worse };
                    any_worse |= verdict == Verdict::Worse;
                    let missing = if vb.is_some() { "A" } else { "B" };
                    println!(
                        "{workload:<14} {:<22} {} (not a finite number in every run of {missing})",
                        m.name,
                        word(verdict)
                    );
                    continue;
                }
            };
            let verdict = judge(va, vb, m.higher_is_better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", 100.0 * s));
            println!(
                "{workload:<14} {:<22} {:>13.5} {:>13.5} {:>8.2} {:>7} {:>7} {:>6.1}  {} ({}, n={}/{})",
                m.name,
                median(va),
                median(vb),
                100.0 * (median(vb) - median(va)) / median(va).abs(),
                pct(spread(va)),
                pct(spread(vb)),
                100.0 * m.bound,
                word(verdict),
                m.unit,
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let scaled = |f: f64| base.map(|v| v * f);
        // Lower is better, bound 10 %.
        assert_eq!(judge(&base, &scaled(1.02), false, 0.1), Verdict::Same);
        assert_eq!(judge(&base, &scaled(1.2), false, 0.1), Verdict::Worse);
        assert_eq!(judge(&base, &scaled(0.8), false, 0.1), Verdict::Better);
        // Higher is better flips the direction.
        assert_eq!(judge(&base, &scaled(0.8), true, 0.1), Verdict::Worse);
        assert_eq!(judge(&base, &scaled(1.2), true, 0.1), Verdict::Better);
        // A spread wider than the bound leaves an overlap unresolved …
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(judge(&noisy, &scaled(1.05), false, 0.1), Verdict::Unresolved);
        // … but not a clean separation.
        assert_eq!(judge(&noisy, &scaled(2.0), false, 0.1), Verdict::Worse);
        assert_eq!(judge(&noisy, &scaled(0.5), false, 0.1), Verdict::Better);
        // Deterministic metrics that agree exactly are the same.
        assert_eq!(judge(&[1.5; 3], &[1.5; 3], false, 0.01), Verdict::Same);
    }

    fn side(text: &str) -> Side {
        sides(&json::parse(text).unwrap()).unwrap().remove("w").unwrap_or_default()
    }

    fn run(correct: bool, failed: u32, value: &str) -> String {
        format!(
            r#"{{"workload": "w", "trace": 0, "result": {{"correct": {correct}, "attempted": 10,
                "failed": {failed}, "metrics": {{"m": {{"value": {value}, "unit": "s"}}}}}}}}"#
        )
    }

    fn file(runs: &[String]) -> String {
        format!(r#"{{"runs": [{}]}}"#, runs.join(","))
    }

    #[test]
    fn failures_and_missing_values_are_worse() {
        let good = side(&file(&[run(true, 0, "1.0"), run(true, 0, "1.1")]));
        assert_eq!(good.complete("m"), Some(&[1.0, 1.1][..]));
        assert_eq!(judge_failures(&good, &good), Verdict::Same);
        // One more failed operation, or one failed check, is worse.
        let failing = side(&file(&[run(true, 1, "1.0"), run(true, 0, "1.1")]));
        assert_eq!(judge_failures(&good, &failing), Verdict::Worse);
        assert_eq!(judge_failures(&failing, &good), Verdict::Better);
        let incorrect = side(&file(&[run(false, 0, "1.0"), run(true, 0, "1.1")]));
        assert_eq!(judge_failures(&good, &incorrect), Verdict::Worse);
        // No runs at all is worse too.
        assert_eq!(judge_failures(&good, &Side::default()), Verdict::Worse);
        // A NaN is written as null: the metric is then incomplete.
        let holed = side(&file(&[run(true, 0, "null"), run(true, 0, "1.1")]));
        assert_eq!(holed.complete("m"), None);
        assert_eq!(good.complete("absent"), None);
    }
}
