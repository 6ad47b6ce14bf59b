//! The repository's benchmark. See README.md for what it measures and why.
//!
//! ```text
//! graceful-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--corpus-seed N]
//! graceful-benchmark all [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
//! graceful-benchmark compare A.json B.json
//! ```
//!
//! `run` is what `BENCHMARK.json` names: one workload, one process, the
//! result as one JSON object on the last line of standard output. `all` runs
//! every workload untraced (`K` seeds) and traced (once), each in a process
//! of its own, prints the ledger and writes a result file; `compare` judges
//! two result files by the bounds in `BENCHMARK.json`.

mod compare;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Json;
use spec::{Workload, CORPUS_SEED, END_TO_END, PER_LAYER, THREADS, TIERS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Args, Tally};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 32.0;

/// Prefix of the product's environment knobs. The harness measures what the
/// code ships, so it removes every one of them from its own environment.
const KNOB_PREFIX: &str = "GRACEFUL_";

fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    for name in &names {
        // Nothing else runs yet: the harness is still single-threaded here.
        std::env::remove_var(name);
    }
    names
}

/// Stop `free` from handing the top of the heap back to the kernel.
///
/// glibc trims the heap whenever more than 128 KiB at its top are free. The
/// product frees that much after nearly every prediction and takes it again
/// for the next, so a default process spends its time giving pages back and
/// faulting them in again, and on a small VM what the kernel charges for that
/// is not steady: identical runs of the online stages spent 2.4 to 6.6 s in the
/// kernel and put `advise_p50_ms` anywhere from 4.6 to 8.4 ms, wider than any
/// bound this benchmark could hold. With trimming off they spend 0.3 to 0.6 s
/// there and repeat within a few per cent.
///
/// Nothing else is touched: the mmap threshold stays at glibc's 128 KiB, so
/// an allocation larger than that is still mapped, faulted in and unmapped on
/// every call, and a change that adds or removes one still shows in the
/// latencies. Returns whether the call took effect; the run record says so.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_top() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // integers, changes one allocator parameter, and is called before the
    // harness starts any thread.
    unsafe { mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

/// Other C libraries have other policies; the record says the heap was left
/// as it is.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_top() -> bool {
    false
}

/// Output directory: `out/` beside this package's manifest, inside the
/// checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags { positional: Vec::new(), named: Vec::new(), smoke: false };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.named.push((name.to_string(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a valid number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.named.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository has none.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

/// What a result needs beside its numbers to be compared honestly later.
fn run_record(
    args: &Args,
    trace: bool,
    scrubbed: &[String],
    heap_trim_off: bool,
    samples: Vec<(&str, usize)>,
    set_up: Json,
    passes: Json,
) -> Json {
    let tiers = TIERS
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::str(t.name)),
                ("data_scale", Json::Num(t.data_scale)),
                ("databases", Json::Num(t.databases.len() as f64)),
                ("rows", Json::Num(t.rows as f64)),
            ])
        })
        .collect();
    let hardware = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("workload", Json::str(args.workload.name)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::Num(args.seed as f64)),
        ("corpus_seed", Json::Num(args.corpus_seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("tiers", Json::Arr(tiers)),
        ("hardware_threads", Json::Num(hardware as f64)),
        ("threads", Json::Num(THREADS as f64)),
        ("rustc", Json::str(rustc_version())),
        ("git_commit", Json::str(git_commit())),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("scrubbed_env", Json::Arr(scrubbed.iter().map(Json::str).collect())),
        ("heap_trim_off", Json::Bool(heap_trim_off)),
        (
            "samples",
            Json::obj(samples.into_iter().map(|(k, n)| (k, Json::Num(n as f64))).collect()),
        ),
        ("set_up", set_up),
        ("passes", passes),
    ])
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|&(name, value)| {
                let unit = Json::str(unit_of(name));
                (name, Json::obj(vec![("value", Json::Num(value)), ("unit", unit)]))
            })
            .collect(),
    )
}

/// `run`: one workload in this process. Returns the process exit code.
fn run(
    flags: &Flags,
    scrubbed: &[String],
    heap_trim_off: bool,
    process_started: Instant,
) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "corpus-seed"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::named(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the workloads are {}", names.join(", "))
    })?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds}: expected 0 to 600"));
    }
    let args = Args {
        workload,
        sizes: if flags.smoke { workload.smoke_sizes() } else { workload.sizes },
        seed: flags.number("seed", CORPUS_SEED)?,
        corpus_seed: flags.number("corpus-seed", CORPUS_SEED)?,
        seconds: if flags.smoke { 0.0 } else { seconds },
        smoke: flags.smoke,
    };

    let mut tally = Tally::default();
    let (inputs, warm_up, inputs_s) = workload::set_up(&args, process_started, &mut tally);
    println!(
        "{}: {}\nseed {}, corpus seed {}, {} threads; inputs {inputs_s:.3} s, warm-up pass {:.3} s",
        workload.name, workload.why, args.seed, args.corpus_seed, THREADS, warm_up.wall_s
    );
    let (metrics, samples, passes) = if trace {
        let traced = layers::traced_run(&args, &inputs, &warm_up, &mut tally);
        print!("{}", traced.report);
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        write_file(&path, &trace::chrome_trace(&traced.spans, workload.name).render());
        println!("trace: {} spans in {}", traced.spans.len(), path.display());
        let spans = traced.spans.len();
        (traced.metrics, vec![("spans", spans)], Json::Arr(Vec::new()))
    } else {
        let passes = workload::timed_passes(&args, &inputs, &mut tally);
        workload::check_outputs(&args, &inputs, &warm_up, &passes, &mut tally);
        println!("{}", workload::stage_line(&passes));
        let samples = vec![
            ("passes", passes.len()),
            ("predict_calls", passes.iter().map(|p| p.predict_ms.len()).sum()),
            ("advise_calls", passes.iter().map(|p| p.advise_ms.len()).sum()),
            ("held_out_queries", passes[0].qerrors.len()),
            ("advised_queries", passes[0].chosen.len()),
        ];
        (workload::end_to_end(inputs_s, &warm_up, &passes), samples, workload::passes_json(&passes))
    };

    for note in &tally.notes {
        eprintln!("{}: {note}", workload.name);
    }
    for &(name, value) in &metrics {
        println!("{name:<34} {value:>16.6} {}", unit_of(name));
        if !value.is_finite() {
            tally.check(false, || format!("metric {name} is {value}"));
        }
    }
    let correct = tally.check_failures == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    let record = Json::obj(vec![
        (
            "record",
            run_record(
                &args,
                trace,
                scrubbed,
                heap_trim_off,
                samples,
                workload::set_up_json(inputs_s, &warm_up),
                passes,
            ),
        ),
        ("result", result.clone()),
    ]);
    let file = format!("run-{}-trace{}.json", workload.name, u8::from(trace));
    write_file(&out_dir().join(file), &record.render());
    println!("{}", result.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run this binary's `run` in a child process and return its result line.
/// The child is waited for before this returns.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    flags: &Flags,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["run", "--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(corpus_seed) = flags.get("corpus-seed") {
        command.args(["--corpus-seed", corpus_seed]);
    }
    if flags.smoke {
        command.arg("--smoke");
    }
    let output = command.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        eprintln!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            u8::from(trace),
            output.status
        );
    }
    Ok(result)
}

/// `all`: every workload, untraced then traced, one process each.
fn all(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "seconds", "runs", "out", "corpus-seed"])?;
    let seed: u64 = flags.number("seed", CORPUS_SEED)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    let runs: u64 = flags.number("runs", 1)?;
    let mut entries = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        for (trace, run) in (0..runs).map(|r| (false, r)).chain([(true, 0)]) {
            let result = run_child(workload.name, seed + run, seconds, trace, flags)?;
            correct &= result.get("correct") == Some(&Json::Bool(true));
            println!("{} seed {} trace {}", workload.name, seed + run, u8::from(trace));
            for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
                let value = metric.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {name:<34} {value:>16.6} {unit}");
            }
            entries.push(Json::obj(vec![
                ("workload", Json::str(workload.name)),
                ("seed", Json::Num((seed + run) as f64)),
                ("trace", Json::Num(f64::from(u8::from(trace)))),
                ("result", result),
            ]));
        }
    }
    let path = flags.get("out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    write_file(&path, &Json::obj(vec![("runs", Json::Arr(entries))]).render());
    println!("results: {}", path.display());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let process_started = Instant::now();
    let scrubbed = scrub_env();
    let heap_trim_off = keep_heap_top();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A debug build measures nothing worth recording; only the self-test's
    // `--smoke` runs, which check names and outputs, may use one.
    if cfg!(debug_assertions) && !args.iter().any(|a| a == "--smoke") {
        eprintln!("this is a debug build; the benchmark only measures `--release` builds");
        return ExitCode::from(2);
    }
    let outcome =
        Flags::parse(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            Some("run") | None => run(&flags, &scrubbed, heap_trim_off, process_started),
            Some("all") => all(&flags),
            Some("compare") => {
                flags.only(&[])?;
                compare::compare(&flags.positional[1..])
            }
            Some(other) => Err(format!("unknown command {other}; expected run, all or compare")),
        });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("graceful-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
