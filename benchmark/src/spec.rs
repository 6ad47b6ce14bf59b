//! What the benchmark runs and what it reports: scale tiers, the three
//! workloads and the metric names. `BENCHMARK.json` at the repository root
//! lists the same names; `tests/smoke.rs` holds the two together.

use graceful::prelude::DATASET_NAMES;

/// Worker threads of every session, pool and trainer: pinned, because a
/// result that depends on the thread count is only comparable at one count.
pub const THREADS: usize = 2;
/// GNN hidden width (the shipped `ScaleConfig` default, pinned here so a
/// change of that default cannot move the benchmark).
pub const HIDDEN: usize = 32;
/// Datasets evaluated zero-shot; the model trains on the other sixteen.
pub const HELD_OUT: [usize; 4] = [0, 5, 10, 15];
/// Seed of the labelled corpora and of the model trained on them: the
/// benchmark's fixed query set. A labelled query's cost is heavy-tailed (one
/// generated query can cost as much as the other 899), so corpora drawn from
/// ten different seeds spread label throughput by 20-30 % and advisor
/// speed-up threefold; and models initialised from ten different seeds spread
/// the median q-error on one query set by 5-14 %, wider than the accuracy
/// loss the benchmark is there to catch. With both pinned, q-error belongs to
/// the code alone and repeats bit for bit. `--seed` drives everything else;
/// `--corpus-seed 20250401` moves query set and model for the second look a
/// performance claim needs.
pub const CORPUS_SEED: u64 = 20_250_331;

/// A scale tier, stated like an SSB scale factor so numbers stay comparable
/// across changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    pub name: &'static str,
    pub data_scale: f64,
    pub databases: &'static [&'static str],
    /// Rows over all the tier's databases (exact; checked in every run).
    pub rows: usize,
}

const L_DATABASES: [&str; 3] = ["tpc_h", "imdb", "ssb"];

pub const XS: Tier = Tier { name: "XS", data_scale: 0.05, databases: &DATASET_NAMES, rows: 27_803 };
pub const S: Tier = Tier { name: "S", data_scale: 0.25, databases: &DATASET_NAMES, rows: 138_434 };
pub const L: Tier = Tier { name: "L", data_scale: 4.0, databases: &L_DATABASES, rows: 582_900 };
/// `--smoke` runs every workload on this tier.
pub const SMOKE: Tier =
    Tier { name: "smoke", data_scale: 0.05, databases: &DATASET_NAMES, rows: 27_803 };
pub const SMOKE_L: Tier =
    Tier { name: "smoke-L", data_scale: 0.05, databases: &L_DATABASES, rows: 7_301 };

pub const TIERS: [Tier; 3] = [XS, S, L];

/// What the label stage of a pass runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// `build_all_corpora_in` over the workload's own corpus tier: the
    /// labelled corpus is the one the model then trains on. Datasets are
    /// labelled in parallel; the regions inside a query run inline.
    Corpus,
    /// `build_all_corpora_in` at the reference size, for workloads whose
    /// corpus is built in set-up: every workload reports every metric, so
    /// the stage a workload does not stress still runs, small.
    Reference { tier: Tier, queries_per_db: usize },
    /// `build_corpus_in` per database, one after the other, then the plan
    /// classes: parallelism is inside each query.
    PerDatabase { tier: Tier, queries_per_db: usize, class_reps: usize },
}

/// Load parameters of one workload. All pinned here; none is taken from the
/// product's defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Tier and queries per database of the 20-database corpus the model
    /// trains on and is evaluated on.
    pub corpus_tier: Tier,
    pub corpus_queries_per_db: usize,
    pub label: Label,
    pub epochs: usize,
    /// Passes over the held-out queries timing annotate + predict per call.
    pub predict_rounds: usize,
    /// Passes over the held-out advisable queries timing `decide` per call.
    pub advise_rounds: usize,
    /// The four estimators of Table III, or `Actual` alone.
    pub all_estimators: bool,
    /// One `predict_graphs` call over every training graph.
    pub batch_predict: bool,
}

impl Sizes {
    /// Tier and queries per database of the label stage.
    pub fn label_size(&self) -> (Tier, usize) {
        match self.label {
            Label::Corpus => (self.corpus_tier, self.corpus_queries_per_db),
            Label::Reference { tier, queries_per_db }
            | Label::PerDatabase { tier, queries_per_db, .. } => (tier, queries_per_db),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub sizes: Sizes,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_loop",
        why: "the paper's loop as a user runs it: label 20 databases, train, estimate, advise; \
              every layer works and a speed-up that costs accuracy shows",
        sizes: Sizes {
            corpus_tier: S,
            corpus_queries_per_db: 24,
            label: Label::Corpus,
            epochs: 14,
            predict_rounds: 4,
            advise_rounds: 2,
            all_estimators: true,
            batch_predict: false,
        },
    },
    Workload {
        name: "label_scale",
        why: "labelling at 16x the rows, one database at a time: storage, exec, udf and the \
              runtime inside each query do the work; the model stages stay small",
        sizes: Sizes {
            corpus_tier: XS,
            corpus_queries_per_db: 20,
            label: Label::PerDatabase { tier: L, queries_per_db: 16, class_reps: 4 },
            epochs: 6,
            predict_rounds: 6,
            advise_rounds: 3,
            all_estimators: false,
            batch_predict: false,
        },
    },
    Workload {
        name: "train_and_advise",
        why: "queries labelled in set-up, then the model's side: long training and one estimate \
              or pull-up decision per call; a data-plane change must not move it",
        sizes: Sizes {
            corpus_tier: XS,
            corpus_queries_per_db: 40,
            label: Label::Reference { tier: XS, queries_per_db: 10 },
            epochs: 10,
            predict_rounds: 6,
            advise_rounds: 3,
            all_estimators: false,
            batch_predict: true,
        },
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` size: scale 0.05, 8 queries per database, 2 epochs.
    pub fn smoke_sizes(&self) -> Sizes {
        let label = match self.sizes.label {
            Label::Corpus => Label::Corpus,
            Label::Reference { .. } => Label::Reference { tier: SMOKE, queries_per_db: 4 },
            Label::PerDatabase { .. } => {
                Label::PerDatabase { tier: SMOKE_L, queries_per_db: 8, class_reps: 1 }
            }
        };
        Sizes {
            corpus_tier: SMOKE,
            corpus_queries_per_db: 8,
            label,
            epochs: 2,
            predict_rounds: 1,
            advise_rounds: 1,
            ..self.sizes
        }
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("label_queries_per_s", "1/s"),
    ("train_graphs_per_s", "1/s"),
    ("predict_p50_ms", "ms"),
    ("predict_p95_ms", "ms"),
    ("advise_p50_ms", "ms"),
    ("advise_p95_ms", "ms"),
    ("qerror_median", "ratio"),
    ("advisor_speedup_gmean", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer is a crate; the prefix names it. `share_pct` is the layer's share of
/// the self time of all spans in the traced passes; `udf`, `runtime` and
/// `cfg` have none, because their work happens inside `exec` and `core`
/// calls and is seen from outside only through the probes.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("storage.generate_s", "s"),
    ("storage.generate_rows_per_s", "1/s"),
    ("storage.analyze_s", "s"),
    ("storage.adapt_s", "s"),
    ("storage.adapt_calls", "count"),
    ("storage.decode_mrows_per_s", "Mrows/s"),
    ("storage.bytes_per_row_encoded", "B/row"),
    ("storage.bytes_per_row_plain", "B/row"),
    ("storage.share_pct", "%"),
    ("udf.frontend_s", "s"),
    ("udf.frontend_udfs_per_s", "1/s"),
    ("udf.compile_s", "s"),
    ("udf.compile_udfs_per_s", "1/s"),
    ("udf.eval_filter_rows_per_s", "1/s"),
    ("udf.eval_project_rows_per_s", "1/s"),
    ("plan.querygen_s", "s"),
    ("plan.querygen_per_s", "1/s"),
    ("plan.build_plan_us", "us"),
    ("plan.verify_us", "us"),
    ("plan.rewrite_us", "us"),
    ("plan.share_pct", "%"),
    ("exec.run_s", "s"),
    ("exec.plans_per_s", "1/s"),
    ("exec.scan_mrows_per_s", "Mrows/s"),
    ("exec.class_scan_rows_per_s", "1/s"),
    ("exec.class_join_rows_per_s", "1/s"),
    ("exec.class_agg_rows_per_s", "1/s"),
    ("exec.peak_inter_rows_max", "count"),
    ("exec.row_cap_aborts", "count"),
    ("exec.share_pct", "%"),
    ("runtime.speedup_2t", "ratio"),
    ("runtime.region_overhead_us", "us"),
    ("cfg.build_dag_us", "us"),
    ("cfg.dag_nodes_mean", "count"),
    ("card.datadriven_build_s", "s"),
    ("card.annotate_actual_us", "us"),
    ("card.annotate_datadriven_us", "us"),
    ("card.annotate_sampling_us", "us"),
    ("card.annotate_naive_us", "us"),
    ("card.share_pct", "%"),
    ("core.featurize_us", "us"),
    ("core.featurize_corpora_s", "s"),
    ("core.label_self_s", "s"),
    ("core.decide_predicts", "count"),
    ("core.model_load_ms", "ms"),
    ("core.replay_mismatch", "count"),
    ("core.qerror_p90", "ratio"),
    ("core.advisor_speedup_total", "ratio"),
    ("core.advisor_hit_share", "ratio"),
    ("core.share_pct", "%"),
    ("nn.train_epoch_s", "s"),
    ("nn.forward_batch_graphs_per_s", "1/s"),
    ("nn.forward_single_us", "us"),
    ("nn.param_count", "count"),
    ("nn.share_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];
