//! Experiment scaling knobs.
//!
//! The paper's corpus is 93.8k queries over 20 databases and took 142 hours
//! of execution to label. The reproduction defaults to a scale that finishes
//! the full experiment suite in minutes; every knob can be raised through
//! environment variables so the corpus approaches the paper's size. The table
//! below is the `KNOBS` table, row for row (a test compares them):
//!
//! | Env var | Meaning | Default |
//! |---|---|---|
//! | `GRACEFUL_SCALE` | multiplier on base-table row counts | `1.0` |
//! | `GRACEFUL_QUERIES_PER_DB` | labelled queries generated per database | `45` |
//! | `GRACEFUL_FOLDS` | cross-validation groups (20 = the paper's leave-one-out) | `2` |
//! | `GRACEFUL_EPOCHS` | GNN training epochs | `14` |
//! | `GRACEFUL_HIDDEN` | GNN hidden width | `32` |
//! | `GRACEFUL_SEED` | global seed | `20250331` (the arXiv date) |
//! | `GRACEFUL_THREADS` | worker threads of the morsel-driven runtime (`graceful-runtime`) | all cores |
//! | `GRACEFUL_PROFILE` | attach a per-operator `ExecProfile` to every `QueryRun` | `0` |
//! | `GRACEFUL_TRACE` | enable span tracing and write Chrome-trace JSON to this path on flush | off |
//! | `GRACEFUL_FLIGHT` | enable the query flight recorder and write per-query JSONL records to this path on flush | off |
//!
//! Every value is checked by the one parser of its knob's shape (`Shape`):
//! a value the shape rejects is a hard error naming the knob and what it
//! expects, not a silent fallback — a typo in an experiment environment must
//! not silently re-run the wrong configuration. Results never depend on the
//! execution knobs: the runtime merges per-morsel work in morsel-index order
//! and profiling/tracing are write-only observers, so every output is
//! bit-identical for any thread count and instrumentation
//! (`tests/parallel_determinism.rs`); batch and morsel sizes are set through
//! `graceful_exec::ExecOptions` only (`tests/batch_and_morsel_sweep.rs`).
//!
//! These variables are only *defaults*: `graceful_exec::ExecOptions` and
//! `graceful_core::model::TrainOptions` resolve them once, through the
//! `try_*_from_env` helpers here, and surface invalid values as typed
//! `GracefulError::Config` errors. This module is the **only** place in the
//! workspace that reads the environment (a test greps for it).
//!
//! The UDF backend, the executor driver, the GNN engine and the two verifiers
//! are not knobs, here or in any options builder: each layer ships one engine
//! (typed lanes over the batch VM, the streaming driver, the level-synchronous
//! GNN) with both verifiers always on, and keeps one oracle that tests reach
//! by name (`Session::run_reference`, `GnnModel::predict_reference`,
//! `GnnModel::train_batch_reference`). The variables that used to choose
//! are rejected when set ([`try_removed_knobs_unset`]).

/// What a knob's value must look like. Each shape has exactly one parser —
/// its arm in [`admit`] — and one description, its arm in [`parse`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// An integer in `lo..=hi`; one outside is rejected, or clamped into the
    /// range when `clamp`.
    Int { lo: u64, hi: u64, clamp: bool },
    /// A finite float > 0.
    Float,
    /// A word (case insensitive) of the `true` list or of the `false` list.
    Words(&'static [&'static str], &'static [&'static str]),
    /// A non-empty path.
    Path,
}

const COUNT: Shape = Shape::Int { lo: 1, hi: u64::MAX, clamp: false };
const SEED: Shape = Shape::Int { lo: 0, hi: u64::MAX, clamp: false };
const BOOL: Shape = Shape::Words(&["1", "true", "on", "yes"], &["0", "false", "off", "no"]);

const fn clamped(lo: u64, hi: u64) -> Shape {
    Shape::Int { lo, hi, clamp: true }
}

/// One row of the environment surface: the variable, its shape, what leaving
/// it unset means (as the module-doc table prints it), its one-line meaning.
type Knob = (&'static str, Shape, &'static str, &'static str);

/// Every `GRACEFUL_*` variable the workspace reads — one row per line, like
/// the module-doc table a test holds it to.
#[rustfmt::skip]
const KNOBS: [Knob; 10] = [
    ("GRACEFUL_SCALE", Shape::Float, "`1.0`", "multiplier on base-table row counts"),
    ("GRACEFUL_QUERIES_PER_DB", clamped(4, u64::MAX), "`45`", "labelled queries generated per database"),
    ("GRACEFUL_FOLDS", clamped(1, 20), "`2`", "cross-validation groups (20 = the paper's leave-one-out)"),
    ("GRACEFUL_EPOCHS", clamped(1, u64::MAX), "`14`", "GNN training epochs"),
    ("GRACEFUL_HIDDEN", clamped(4, 512), "`32`", "GNN hidden width"),
    ("GRACEFUL_SEED", SEED, "`20250331` (the arXiv date)", "global seed"),
    ("GRACEFUL_THREADS", COUNT, "all cores", "worker threads of the morsel-driven runtime (`graceful-runtime`)"),
    ("GRACEFUL_PROFILE", BOOL, "`0`", "attach a per-operator `ExecProfile` to every `QueryRun`"),
    ("GRACEFUL_TRACE", Shape::Path, "off", "enable span tracing and write Chrome-trace JSON to this path on flush"),
    ("GRACEFUL_FLIGHT", Shape::Path, "off", "enable the query flight recorder and write per-query JSONL records to this path on flush"),
];

/// Check a trimmed value against `shape` and return it normalized — an
/// integer clamped, a word as `true`/`false` — so that `str::parse` of the
/// accessor's type finishes the job. `None` is a value the shape rejects.
fn admit(shape: Shape, v: &str) -> Option<String> {
    match shape {
        Shape::Int { lo, hi, clamp } => {
            let n: u64 = v.parse().ok()?;
            let n = if clamp { n.clamp(lo, hi) } else { n };
            (lo..=hi).contains(&n).then(|| n.to_string())
        }
        Shape::Float => {
            v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0).map(|_| v.into())
        }
        Shape::Words(yes, no) => {
            let v = v.to_ascii_lowercase();
            let on = yes.contains(&v.as_str());
            (on || no.contains(&v.as_str())).then(|| on.to_string())
        }
        Shape::Path => (!v.is_empty()).then(|| v.into()),
    }
}

/// Parse one value of a knob. The error is the module's one message
/// template: the knob, the offending value, what its shape expects, what
/// the knob means, what leaving it unset does.
fn parse<T: std::str::FromStr>(
    &(name, shape, default, meaning): &Knob,
    raw: &str,
) -> Result<T, String> {
    let raw = raw.trim();
    admit(shape, raw).and_then(|v| v.parse().ok()).ok_or_else(|| {
        let expects = match shape {
            Shape::Int { lo, hi: u64::MAX, clamp: false } => format!("an integer >= {lo}"),
            Shape::Int { lo, hi: u64::MAX, .. } => format!("an integer (raised to at least {lo})"),
            Shape::Int { lo, hi, .. } => format!("an integer (clamped into {lo}..={hi})"),
            Shape::Float => "a finite float > 0".into(),
            Shape::Words(yes, no) => format!("`{}` or `{}`", yes.join("`/`"), no.join("`/`")),
            Shape::Path => "a non-empty output path".into(),
        };
        format!("invalid {name} `{raw}`: expected {expects} ({meaning}; unset means {default})")
    })
}

/// The one reader of the environment: `Ok(None)` when `name` is unset, its
/// parsed value when set, an error naming the knob when the value is invalid.
fn read<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    let knob = KNOBS.iter().find(|k| k.0 == name).ok_or(format!("{name} is not a knob"))?;
    std::env::var_os(name).map(|raw| parse(knob, &raw.to_string_lossy())).transpose()
}

/// Variables that left the environment surface when what they selected
/// stopped being a choice, each with what holds in its place.
const REMOVED_KNOBS: [(&str, &str); 7] = [
    ("GRACEFUL_UDF_BACKEND", "every UDF operator runs typed lanes over the batch VM"),
    ("GRACEFUL_EXEC", "every query runs on the streaming driver"),
    ("GRACEFUL_GNN_EXEC", "every training step runs on the level-synchronous engine"),
    ("GRACEFUL_VERIFY", "every compiled UDF is verified"),
    ("GRACEFUL_PLAN_VERIFY", "every plan is verified before it is lowered"),
    ("GRACEFUL_UDF_BATCH", "the UDF batch size is `ExecOptions::udf_batch_size`, default 1024"),
    ("GRACEFUL_MORSEL", "the morsel size is `ExecOptions::morsel_rows`, default 2048"),
];

/// Every removed knob must be unset: an experiment script that still sets
/// one must fail loudly instead of believing it pinned a backend or a mode,
/// or switched a check off.
pub fn try_removed_knobs_unset() -> Result<(), String> {
    removed_knobs_unset(|name| std::env::var_os(name))
}

fn removed_knobs_unset(var: impl Fn(&str) -> Option<std::ffi::OsString>) -> Result<(), String> {
    match REMOVED_KNOBS.iter().find_map(|&(name, now)| Some((name, now, var(name)?))) {
        None => Ok(()),
        Some((name, now, value)) => Err(format!(
            "{name} is set (`{}`) but is no longer read: {now}, and nothing selects \
             otherwise — unset the variable",
            value.to_string_lossy()
        )),
    }
}

/// Default rows per batch fed to the UDF VM.
pub const DEFAULT_UDF_BATCH: usize = 1024;

/// Rows per morsel when none is configured.
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

/// The machine's thread budget: `available_parallelism`, or 1 when the
/// platform cannot report it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// `GRACEFUL_THREADS`, default [`default_threads`].
pub fn try_threads_from_env() -> Result<usize, String> {
    Ok(read("GRACEFUL_THREADS")?.unwrap_or_else(default_threads))
}

/// `GRACEFUL_PROFILE`, default off.
pub fn try_profile_from_env() -> Result<bool, String> {
    Ok(read("GRACEFUL_PROFILE")?.unwrap_or(false))
}

/// `GRACEFUL_TRACE`: the Chrome-trace output path (unset → `None`, tracing
/// off). A blank value is an error, not a silently disabled trace.
pub fn try_trace_from_env() -> Result<Option<String>, String> {
    read("GRACEFUL_TRACE")
}

/// `GRACEFUL_FLIGHT`: the flight-recorder JSONL path, like the trace's.
pub fn try_flight_from_env() -> Result<Option<String>, String> {
    read("GRACEFUL_FLIGHT")
}

/// `GRACEFUL_SCALE`, default `1.0`.
pub fn try_scale_from_env() -> Result<f64, String> {
    Ok(read("GRACEFUL_SCALE")?.unwrap_or(1.0))
}

/// Scaling configuration resolved from the environment with sane defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Multiplier applied to every dataset's base row counts.
    pub data_scale: f64,
    /// Number of labelled queries generated per database.
    pub queries_per_db: usize,
    /// Number of leave-one-out folds to actually run (the paper runs all 20).
    pub folds: usize,
    /// GNN training epochs.
    pub epochs: usize,
    /// GNN hidden width.
    pub hidden: usize,
    /// Global seed from which all others are forked.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            data_scale: 1.0,
            queries_per_db: 45,
            folds: 2,
            epochs: 14,
            hidden: 32,
            seed: 20_250_331,
        }
    }
}

impl ScaleConfig {
    /// Resolve the configuration from `GRACEFUL_*` environment variables,
    /// falling back to the defaults above. Every variable is strict: a value
    /// that does not parse is an error naming it; integers outside a knob's
    /// range are clamped into it.
    pub fn try_from_env() -> Result<Self, String> {
        let d = ScaleConfig::default();
        Ok(ScaleConfig {
            data_scale: try_scale_from_env()?,
            queries_per_db: read("GRACEFUL_QUERIES_PER_DB")?.unwrap_or(d.queries_per_db),
            folds: read("GRACEFUL_FOLDS")?.unwrap_or(d.folds),
            epochs: read("GRACEFUL_EPOCHS")?.unwrap_or(d.epochs),
            hidden: read("GRACEFUL_HIDDEN")?.unwrap_or(d.hidden),
            seed: read("GRACEFUL_SEED")?.unwrap_or(d.seed),
        })
    }

    /// Scale a base row count by `data_scale`, keeping at least 16 rows.
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.data_scale) as usize).max(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knob(name: &str) -> &'static Knob {
        KNOBS.iter().find(|k| k.0 == name).expect("a knob of the table")
    }

    /// Whether `raw` is a valid value of `k` (every valid value is a string).
    fn check(k: &Knob, raw: &str) -> Result<(), String> {
        parse::<String>(k, raw).map(drop)
    }

    #[test]
    fn defaults_are_sane() {
        let c = ScaleConfig::default();
        assert!(c.folds >= 1 && c.folds <= 20);
        assert!(c.queries_per_db >= 4);
        assert_eq!(c.rows(1000), 1000);
        // The table's default column states the same values the code uses.
        for (name, value) in [
            ("GRACEFUL_SCALE", c.data_scale.to_string()),
            ("GRACEFUL_QUERIES_PER_DB", c.queries_per_db.to_string()),
            ("GRACEFUL_FOLDS", c.folds.to_string()),
            ("GRACEFUL_EPOCHS", c.epochs.to_string()),
            ("GRACEFUL_HIDDEN", c.hidden.to_string()),
            ("GRACEFUL_SEED", c.seed.to_string()),
        ] {
            let stated = knob(name).2.trim_start_matches('`');
            let stated: f64 = stated[..stated.find('`').unwrap()].parse().unwrap();
            assert_eq!(stated.to_string(), value, "{name}");
        }
    }

    #[test]
    fn rows_floor() {
        let c = ScaleConfig { data_scale: 0.001, ..ScaleConfig::default() };
        assert_eq!(c.rows(1000), 16);
    }

    // Env-knob validation is tested through `parse`: `read` only adds
    // the table lookup and `std::env::var_os`, and mutating the environment
    // from tests would race the rest of the (multi-threaded) suite. The
    // child-process case in `tests/executor_api.rs` covers `read` itself.

    /// The knob surface is what the table says: documented here and in the
    /// README row for row, every shape's parser rejects an empty, a garbage
    /// and an out-of-range value naming the knob, and nothing outside this
    /// file reads the environment.
    #[test]
    fn knob_table_is_the_documented_and_only_environment_surface() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("a readable file");
        let this = read(&root.join("crates/common/src/config.rs"));
        let readme = read(&root.join("README.md"));
        let doc_rows = this.lines().filter(|l| l.starts_with("//! | `GRACEFUL_")).count();
        assert_eq!(doc_rows, KNOBS.len(), "the module-doc table has one row per knob");
        for k @ &(name, shape, default, meaning) in &KNOBS {
            let row = format!("//! | `{name}` | {meaning} | {default} |");
            assert!(this.lines().any(|l| l == row), "module doc lacks the row {row:?}");
            assert!(readme.contains(&format!("`{name}`")), "README does not list {name}");
            let out_of_range = match shape {
                Shape::Int { lo: 0, .. } => "18446744073709551616",
                Shape::Int { clamp: true, .. } => "-1",
                Shape::Int { .. } | Shape::Float => "0",
                Shape::Words(..) => "2",
                Shape::Path => " \t ",
            };
            for bad in ["", "1O", out_of_range] {
                // "1O" is a fine path; every other shape must reject it.
                if shape == Shape::Path && bad == "1O" {
                    continue;
                }
                let err = check(k, bad).expect_err(&format!("{name} accepted {bad:?}"));
                assert!(err.contains(name), "error names the knob: {err}");
            }
        }
        for (name, _) in REMOVED_KNOBS {
            assert!(KNOBS.iter().all(|k| k.0 != name), "{name} is both read and removed");
        }

        let mut stack: Vec<_> = ["crates", "src", "examples"].map(|d| root.join(d)).to_vec();
        let mut scanned = 0;
        while let Some(path) = stack.pop() {
            if path.is_dir() {
                stack.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            } else if path.extension().is_some_and(|e| e == "rs")
                && !path.ends_with("crates/common/src/config.rs")
            {
                scanned += 1;
                assert!(
                    !read(&path).contains("env::var"),
                    "{} reads the environment",
                    path.display()
                );
            }
        }
        assert!(scanned > 100, "only {scanned} source files scanned");
    }

    #[test]
    fn removed_knobs_are_rejected_whatever_their_value() {
        assert_eq!(removed_knobs_unset(|_| None), Ok(()));
        for (knob, now) in REMOVED_KNOBS {
            for set in ["vm", "off", "strict", ""] {
                let err =
                    removed_knobs_unset(|name| (name == knob).then(|| set.into())).unwrap_err();
                assert!(
                    err.contains(knob) && err.contains(now) && err.contains("unset"),
                    "names the knob and what holds in its place: {err}"
                );
            }
        }
    }

    #[test]
    fn scale_knob_rejects_nonpositive_nan_and_garbage() {
        let k = knob("GRACEFUL_SCALE");
        assert_eq!(parse(k, "100"), Ok(100.0));
        assert_eq!(parse(k, " 0.25 "), Ok(0.25));
        for bad in ["0", "-1", "", "NaN", "inf", "-inf", "big", "1e999"] {
            let err = parse::<f64>(k, bad).unwrap_err();
            assert!(err.contains("GRACEFUL_SCALE"), "error names the knob: {err}");
        }
    }

    /// The five corpus/model knobs are strict about what parses and keep
    /// their range clamps (`GRACEFUL_EPOCHS=1O` used to train 14 epochs).
    #[test]
    fn scale_config_knobs_are_strict_and_clamped() {
        let err = parse::<usize>(knob("GRACEFUL_EPOCHS"), "1O").unwrap_err();
        assert!(err.contains("GRACEFUL_EPOCHS") && err.contains("1O"), "{err}");
        assert_eq!(parse(knob("GRACEFUL_EPOCHS"), "0"), Ok(1usize));
        assert_eq!(parse(knob("GRACEFUL_QUERIES_PER_DB"), "1"), Ok(4usize));
        assert_eq!(parse(knob("GRACEFUL_FOLDS"), "99"), Ok(20usize));
        assert_eq!(parse(knob("GRACEFUL_HIDDEN"), " 1024 "), Ok(512usize));
        assert_eq!(parse(knob("GRACEFUL_HIDDEN"), "64"), Ok(64usize));
        assert_eq!(parse(knob("GRACEFUL_SEED"), "7"), Ok(7u64));
        for bad in ["", "seven", "-7", "1.5", "18446744073709551616"] {
            assert!(parse::<u64>(knob("GRACEFUL_SEED"), bad).is_err(), "seed accepted {bad:?}");
        }
    }

    #[test]
    fn thread_knob_rejects_invalid_values() {
        let threads = knob("GRACEFUL_THREADS");
        assert_eq!(parse(threads, "4"), Ok(4usize));
        assert_eq!(parse(threads, " 512 "), Ok(512usize));
        for bad in ["0", "-2", "many", "", "1.5"] {
            assert!(parse::<usize>(threads, bad).is_err(), "threads accepted {bad:?}");
        }
        assert!(default_threads() >= 1);
    }

    #[test]
    fn profile_knob_parses_booleans_and_rejects_unknown() {
        let k = knob("GRACEFUL_PROFILE");
        for on in ["1", "true", "ON", " Yes "] {
            assert_eq!(parse(k, on), Ok(true), "{on:?} should enable");
        }
        for off in ["0", "false", "Off", " no "] {
            assert_eq!(parse(k, off), Ok(false), "{off:?} should disable");
        }
        for bad in ["", "2", "enabled", "y", "strict"] {
            let err = parse::<bool>(k, bad).unwrap_err();
            assert!(err.contains("GRACEFUL_PROFILE"), "error names the knob: {err}");
        }
    }

    fn path_knob_requires_nonempty_path(name: &str) {
        let k = knob(name);
        assert_eq!(parse(k, " /tmp/out.json "), Ok("/tmp/out.json".to_string()));
        for bad in ["", "   ", "\t"] {
            let err = parse::<String>(k, bad).unwrap_err();
            assert!(err.contains(name), "error names the knob: {err}");
        }
    }

    #[test]
    fn trace_knob_requires_nonempty_path() {
        path_knob_requires_nonempty_path("GRACEFUL_TRACE");
    }

    #[test]
    fn flight_knob_requires_nonempty_path() {
        path_knob_requires_nonempty_path("GRACEFUL_FLIGHT");
    }
}
