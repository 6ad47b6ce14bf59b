//! The traced run: the same pass, made from the layers' public functions
//! with a span around every call, plus probes that time single functions on
//! the workload's own inputs. It yields the per-layer metrics; end-to-end
//! numbers never come from here.
//!
//! The label stage is replayed from `generate` → `QueryGenerator::generate`
//! → `apply_adaptations` → `build_plan` → `run_and_annotate`, mirroring
//! `build_corpus_with_in`, and its labels are compared bit for bit with the
//! product path's. `core.replay_mismatch` counts the differences: when it is
//! not 0 the label-stage numbers describe the replay, not the product.

use crate::spec::{Label, HELD_OUT, PER_LAYER, THREADS};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Recorder, Span, Total, LAYERS};
use crate::workload::{
    dataset_seed, estimator_kinds, held_out, held_out_order, is_advisable, label_config, new_model,
    run_pass, session, train_config, training_set, Args, Digest, Inputs, Pass, Tally,
};
use graceful::core_model::corpus::{DatasetCorpus, LabeledQuery};
use graceful::core_model::experiments::EstimatorKind;
use graceful::core_model::featurize::Featurizer;
use graceful::core_model::model::GracefulModel;
use graceful::plan::analysis::{verify, RewriteSet};
use graceful::plan::{valid_placements, PlanOpKind};
use graceful::prelude::{
    build_dag, build_plan, compile, generate, parse_udf, print_udf, schema, DagConfig, DataType,
    PullUpAdvisor, QueryGenerator, Rng, ScaleConfig, Strategy, UdfPlacement,
};
use graceful::storage::TableStats;
use graceful::udf::generator::apply_adaptations;
use graceful::Session;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Counters the replayed label stage keeps beside its spans.
#[derive(Default)]
struct LabelCounts {
    rows_generated: usize,
    scan_rows: f64,
    peak_inter_rows: usize,
    row_cap_aborts: usize,
}

/// One dataset's corpus from the layer functions — the body of
/// `build_corpus_with_in`, one span per call. Returns the digest of every
/// label it produced, in order: the replay builds none of the product's
/// corpus types, so a field added to them cannot stop it compiling.
fn replay_corpus(
    rec: &Recorder,
    parent: u64,
    session: &Session,
    dataset: &str,
    cfg: &ScaleConfig,
    seed: u64,
) -> (Vec<u64>, LabelCounts) {
    let _corpus_span = rec.span_under(parent, "core", "label_corpus", 0);
    let mut counts = LabelCounts::default();
    let mut db =
        rec.time("storage", "generate", || generate(&schema(dataset), cfg.data_scale, seed));
    counts.rows_generated = db.total_rows();
    let qgen = QueryGenerator::default();
    let mut rng = Rng::seed(seed ^ 0x51EE7);
    let mut labels = Vec::with_capacity(cfg.queries_per_db);
    let mut id = 0u64;
    while labels.len() < cfg.queries_per_db && id < (cfg.queries_per_db as u64) * 4 {
        id += 1;
        let query_id = seed.wrapping_mul(1000) + id;
        let generated = {
            let _s = rec.span("plan", "querygen", query_id);
            qgen.generate(&db, query_id, &mut rng)
        };
        let Ok(spec) = generated else { continue };
        if let Some(u) = &spec.udf {
            let _s = rec.span("storage", "adapt", query_id);
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                continue;
            }
        }
        let placements = valid_placements(&spec);
        let placement = *rng.choose(&placements);
        let built = {
            let _s = rec.span("plan", "build_plan", query_id);
            build_plan(&spec, placement)
        };
        let Ok(mut plan) = built else { continue };
        let run = {
            let _s = rec.span("exec", "run", query_id);
            session.run_and_annotate(&db, &mut plan, spec.id)
        };
        match run {
            Ok(run) => {
                counts.peak_inter_rows = counts.peak_inter_rows.max(run.peak_inter_rows);
                counts.scan_rows += plan
                    .ops
                    .iter()
                    .filter(|o| matches!(o.kind, PlanOpKind::Scan { .. }))
                    .map(|o| o.actual_out_rows)
                    .sum::<f64>();
                let mut digest = Digest::new();
                digest.label(run.runtime_ns, run.udf_input_rows, &plan);
                labels.push(digest.0);
            }
            Err(_) => counts.row_cap_aborts += 1,
        }
    }
    (labels, counts)
}

/// Queries whose replayed label differs from the product path's.
fn label_mismatches(replayed: &[Vec<u64>], product: &[DatasetCorpus]) -> usize {
    let digest = |q: &LabeledQuery| {
        let mut d = Digest::new();
        d.query(q);
        d.0
    };
    let mut mismatches = replayed.len().abs_diff(product.len());
    for (a, b) in replayed.iter().zip(product) {
        mismatches += a.len().abs_diff(b.queries.len());
        mismatches += a.iter().zip(&b.queries).filter(|(x, y)| **x != digest(y)).count();
    }
    mismatches
}

/// Q-error of one prediction (Leis et al.): the factor by which it is off,
/// in either direction.
fn q_error(predicted: f64, actual: f64) -> f64 {
    let (p, a) = (predicted.max(1e-9), actual.max(1e-9));
    (p / a).max(a / p)
}

fn kind_names(kind: EstimatorKind) -> (&'static str, &'static str) {
    match kind {
        EstimatorKind::Actual => ("build_actual", "annotate_actual"),
        EstimatorKind::DataDriven => ("build_datadriven", "annotate_datadriven"),
        EstimatorKind::Sampling => ("build_sampling", "annotate_sampling"),
        EstimatorKind::Naive => ("build_naive", "annotate_naive"),
    }
}

/// What a traced pass hands to the metrics beside its spans.
struct TracedPass {
    wall_s: f64,
    counts: LabelCounts,
    replay_mismatch: usize,
    qerrors: Vec<f64>,
    advisor_hit_share: f64,
    decide_predicts: usize,
}

/// The pass of `workload::run_pass`, call by call, under spans. `product` is
/// an untraced pass of the same run: its labels, predictions and advisor
/// choices are what the replay must reproduce.
fn traced_pass(
    args: &Args,
    inputs: &Inputs,
    rec: &Recorder,
    product: &Pass,
    tally: &mut Tally,
) -> TracedPass {
    let sizes = &args.sizes;
    let started = Instant::now();
    let pass_span = rec.span("bench", "pass", 0);
    let mut counts = LabelCounts::default();
    let mut replay_mismatch = 0usize;

    // Label. The later stages run on the product path's corpora, which the
    // replay must have reproduced bit for bit.
    let replayed: Vec<Vec<u64>> = {
        let stage = rec.span("bench", "stage_label", 0);
        let cfg = label_config(args);
        let replay = |i: usize, name: &str| {
            let seed = dataset_seed(args.corpus_seed, i);
            replay_corpus(rec, stage.id(), &inputs.session, name, &cfg, seed)
        };
        let replayed: Vec<(Vec<u64>, LabelCounts)> = match sizes.label {
            // Dataset-parallel, as `build_all_corpora_in` is.
            Label::Corpus | Label::Reference { .. } => {
                let (tier, _) = sizes.label_size();
                inputs.session.pool().ordered_map(tier.databases, |i, name| replay(i, name))
            }
            Label::PerDatabase { tier, class_reps, .. } => {
                let out =
                    tier.databases.iter().enumerate().map(|(i, name)| replay(i, name)).collect();
                for rep in 0..class_reps {
                    for class in &inputs.classes {
                        let _s = rec.span("exec", "run_class", 0);
                        let seed = args.seed ^ rep as u64;
                        let _ = black_box(inputs.session.run(&inputs.class_db, &class.plan, seed));
                    }
                }
                out
            }
        };
        replayed
            .into_iter()
            .map(|(labels, c)| {
                counts.rows_generated += c.rows_generated;
                counts.scan_rows += c.scan_rows;
                counts.peak_inter_rows = counts.peak_inter_rows.max(c.peak_inter_rows);
                counts.row_cap_aborts += c.row_cap_aborts;
                labels
            })
            .collect()
    };
    replay_mismatch += label_mismatches(&replayed, &product.labelled);
    let corpus: &[DatasetCorpus] = inputs.corpus.as_deref().unwrap_or(&product.labelled);

    // Train: one public call does featurization and the epochs; `probes`
    // carves the featurization out of it afterwards.
    let mut model = new_model(args);
    {
        let _stage = rec.span("bench", "stage_train", 0);
        let config = train_config(args);
        let trained = rec.time("nn", "train", || model.train(&training_set(corpus), &config));
        tally.op(trained.is_ok(), || "traced train".into());
    }

    // Estimate: `evaluate_model` and the single calls, split into annotate
    // (card), featurize (core, which builds the UDF DAG through cfg) and the
    // forward pass (nn).
    let featurizer = Featurizer::full();
    let mut predicted = Vec::new();
    let mut qerrors = Vec::new();
    let datadriven: HashMap<usize, _> = {
        let _stage = rec.span("bench", "stage_estimate", 0);
        for held in held_out(corpus) {
            for &kind in estimator_kinds(sizes) {
                let (build, annotate) = kind_names(kind);
                let est = rec.time("card", build, || kind.build(&held.db, args.seed));
                for q in &held.queries {
                    let mut plan = q.plan.clone();
                    let annotated = {
                        let _s = rec.span("card", annotate, q.spec.id);
                        est.annotate(&mut plan)
                    };
                    if annotated.is_err() {
                        continue;
                    }
                    let graph = {
                        let _s = rec.span("core", "featurize", q.spec.id);
                        featurizer.featurize(&held.db, &q.spec, &plan, est.as_ref())
                    };
                    let Ok(graph) = graph else { continue };
                    let forward = {
                        let _s = rec.span("nn", "forward_single", q.spec.id);
                        model.predict_graph(&graph)
                    };
                    if let (Ok(p), EstimatorKind::Actual) = (forward, kind) {
                        predicted.push(p);
                        qerrors.push(q_error(p, q.runtime_ns));
                    }
                }
            }
        }
        if sizes.batch_predict {
            let pool = inputs.session.pool();
            let graphs = rec.time("core", "featurize_corpora", || {
                model.featurize_corpora(&pool, &training_set(corpus))
            });
            if let Ok(graphs) = graphs {
                let refs: Vec<_> = graphs.iter().map(|(g, _)| g).collect();
                let _ = black_box(rec.time("nn", "forward_batch", || model.predict_graphs(&refs)));
            }
        }
        let datadriven: HashMap<usize, _> = HELD_OUT
            .iter()
            .map(|&c| {
                let est = rec.time("card", "build_datadriven", || {
                    EstimatorKind::DataDriven.build(&corpus[c].db, args.seed)
                });
                (c, est)
            })
            .collect();
        for round in 0..sizes.predict_rounds {
            for (c, q) in held_out_order(corpus, args.seed ^ round as u64, false) {
                let (held, query, est) = (&corpus[c], &corpus[c].queries[q], &datadriven[&c]);
                let mut plan = query.plan.clone();
                let _call = rec.span("bench", "predict_call", query.spec.id);
                if rec.time("card", "annotate_datadriven", || est.annotate(&mut plan)).is_err() {
                    continue;
                }
                let graph = rec.time("core", "featurize", || {
                    featurizer.featurize(&held.db, &query.spec, &plan, est.as_ref())
                });
                if let Ok(graph) = graph {
                    let _ =
                        black_box(rec.time("nn", "forward_single", || model.predict_graph(&graph)));
                }
            }
        }
        datadriven
    };
    replay_mismatch += predicted.len().abs_diff(product.predicted.len())
        + predicted
            .iter()
            .zip(&product.predicted)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();

    // Advise: `run_advisor_in` and the single decisions. A decision is one
    // public call; what it spends below `core` is accounted for by the
    // probes (see the README's interaction list).
    let advisor = PullUpAdvisor::new(&model);
    let mut chosen = Vec::new();
    let mut hits = 0usize;
    let mut decide_predicts = 0usize;
    {
        let _stage = rec.span("bench", "stage_advise", 0);
        for (&c, est) in HELD_OUT.iter().map(|c| (c, &datadriven[c])) {
            let held = &corpus[c];
            for q in held.queries.iter().filter(|q| is_advisable(q)) {
                let id = q.spec.id;
                let build = |placement| {
                    let _s = rec.span("plan", "build_plan", id);
                    build_plan(&q.spec, placement)
                };
                let (Ok(down_plan), Ok(up_plan)) =
                    (build(UdfPlacement::PushDown), build(UdfPlacement::PullUp))
                else {
                    continue;
                };
                let run = |plan| {
                    let _s = rec.span("exec", "run_placement", id);
                    inputs.session.run(&held.db, plan, id)
                };
                let (Ok(down), Ok(up)) = (run(&down_plan), run(&up_plan)) else { continue };
                let known = q.plan.udf_op().map_or(0.5, |i| {
                    let input = q.plan.ops[q.plan.ops[i].children[0]].actual_out_rows.max(1.0);
                    (q.plan.ops[i].actual_out_rows / input).clamp(0.0, 1.0)
                });
                let decision = {
                    let _s = rec.span("core", "decide", id);
                    advisor.decide(
                        &held.db,
                        &q.spec,
                        est.as_ref(),
                        Strategy::Conservative,
                        Some(known),
                    )
                };
                let Ok(decision) = decision else { continue };
                decide_predicts = decision.pullup_costs.len() + decision.pushdown_costs.len();
                let pick = if decision.pull_up { up.runtime_ns } else { down.runtime_ns };
                hits += usize::from(pick <= down.runtime_ns.min(up.runtime_ns));
                chosen.push(pick);
            }
        }
        for round in 0..sizes.advise_rounds {
            for (c, q) in held_out_order(corpus, args.seed ^ round as u64, true) {
                let (held, query) = (&corpus[c], &corpus[c].queries[q]);
                let _s = rec.span("core", "decide", query.spec.id);
                let _ = black_box(advisor.decide(
                    &held.db,
                    &query.spec,
                    datadriven[&c].as_ref(),
                    Strategy::AreaUnderCurve,
                    None,
                ));
            }
        }
    }
    replay_mismatch += chosen.len().abs_diff(product.chosen.len())
        + chosen.iter().zip(&product.chosen).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    drop(datadriven);
    drop(pass_span);

    TracedPass {
        wall_s: started.elapsed().as_secs_f64(),
        counts,
        replay_mismatch,
        qerrors,
        advisor_hit_share: hits as f64 / chosen.len().max(1) as f64,
        decide_predicts,
    }
}

/// Numbers the probes measure directly rather than through span totals.
#[derive(Default)]
struct Probed {
    bytes_per_row_encoded: f64,
    bytes_per_row_plain: f64,
    decode_mrows_per_s: f64,
    udfs: usize,
    dag_nodes_mean: f64,
    featurize_corpora_s: f64,
    /// Median seconds per class at one thread and at `THREADS`.
    class_s: BTreeMap<&'static str, (f64, f64)>,
    region_overhead_us: f64,
    model_load_ms: f64,
    param_count: usize,
}

/// Probes: single public functions timed on the workload's own inputs, for
/// the layers a pass cannot see from outside.
fn probes(args: &Args, inputs: &Inputs, rec: &Recorder, product: &Pass) -> Probed {
    let _probes = rec.span("bench", "probes", 0);
    let corpus: &[DatasetCorpus] = inputs.corpus.as_deref().unwrap_or(&product.labelled);
    let mut out = Probed::default();

    // storage: ANALYZE, a full decode through the accessors, bytes per row.
    let (mut rows, mut values, mut encoded, mut plain) = (0usize, 0usize, 0usize, 0usize);
    let mut decode_s = 0.0;
    for c in &product.labelled {
        for table in c.db.tables() {
            black_box(rec.time("storage", "analyze", || TableStats::compute(table)));
            rows += table.num_rows();
            let started = Instant::now();
            let _s = rec.span("storage", "decode", 0);
            for column in table.columns() {
                encoded += column.data.heap_bytes();
                plain += column.data.plain_bytes();
                values += column.len();
                let mut sink = 0u64;
                match column.data_type() {
                    DataType::Int => (0..column.len()).for_each(|r| {
                        sink = sink.wrapping_add(column.get_i64(r).unwrap_or(0) as u64)
                    }),
                    DataType::Float => (0..column.len())
                        .for_each(|r| sink ^= column.get_f64(r).unwrap_or(0.0).to_bits()),
                    DataType::Text => (0..column.len())
                        .for_each(|r| sink += column.get_str(r).map_or(0, str::len) as u64),
                    DataType::Bool => {
                        (0..column.len()).for_each(|r| sink += u64::from(column.value(r).truthy()))
                    }
                }
                black_box(sink);
            }
            decode_s += started.elapsed().as_secs_f64();
        }
    }
    out.bytes_per_row_encoded = encoded as f64 / rows.max(1) as f64;
    out.bytes_per_row_plain = plain as f64 / rows.max(1) as f64;
    out.decode_mrows_per_s = values as f64 / decode_s.max(1e-9) * 1e-6;

    // udf, cfg, plan: per-UDF and per-plan fixed costs over the corpus.
    let mut dag_nodes = Vec::new();
    for c in corpus {
        for q in &c.queries {
            if let Some(u) = &q.spec.udf {
                out.udfs += 1;
                black_box(rec.time("udf", "frontend", || parse_udf(&print_udf(&u.def))).is_ok());
                black_box(rec.time("udf", "compile", || compile(&u.def)).is_ok());
                let dag = rec.time("cfg", "build_dag", || {
                    build_dag(&u.def, &[], DataType::Float, DagConfig::default())
                });
                dag_nodes.push(dag.nodes.len() as f64);
            }
            black_box(rec.time("plan", "verify", || verify(&q.plan, &c.db)).is_ok());
            black_box(rec.time("plan", "rewrite", || RewriteSet::analyze(&q.plan, &c.db)));
        }
    }
    out.dag_nodes_mean = mean(&dag_nodes);

    // card: every estimator of the ladder over the held-out queries.
    for held in held_out(corpus) {
        for kind in EstimatorKind::ALL {
            let (build, annotate) = kind_names(kind);
            let est = rec.time("card", build, || kind.build(&held.db, args.seed));
            for q in &held.queries {
                let mut plan = q.plan.clone();
                let _s = rec.span("card", annotate, q.spec.id);
                black_box(est.annotate(&mut plan).is_ok());
            }
        }
    }

    // core + nn: featurization of the training set, the batched forward
    // pass, and a model save/load.
    let pool = inputs.session.pool();
    let train = training_set(corpus);
    let started = Instant::now();
    let graphs =
        rec.time("core", "featurize_corpora", || product.model.featurize_corpora(&pool, &train));
    out.featurize_corpora_s = started.elapsed().as_secs_f64();
    if let Ok(graphs) = graphs {
        let refs: Vec<_> = graphs.iter().map(|(g, _)| g).collect();
        black_box(rec.time("nn", "forward_batch", || product.model.predict_graphs(&refs)).is_ok());
    }
    let started = Instant::now();
    let loaded =
        rec.time("core", "model_load", || GracefulModel::from_json(&product.model.to_json()));
    out.model_load_ms = started.elapsed().as_secs_f64() * 1e3;
    black_box(loaded.is_ok());
    out.param_count = product.model.param_count();

    // exec + udf + runtime: the plan classes at one thread and at THREADS.
    let sessions = [session(1), session(THREADS)];
    for class in &inputs.classes {
        let seconds = sessions.each_ref().map(|s| {
            let runs: Vec<f64> = (0..3)
                .map(|rep| {
                    let started = Instant::now();
                    let _s = rec.span("exec", "run_class", 0);
                    black_box(s.run(&inputs.class_db, &class.plan, args.seed ^ rep).is_ok());
                    started.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        });
        out.class_s.insert(class.name, (seconds[0], seconds[1]));
    }
    let items = [0u64; 2 * THREADS];
    let calls = 500;
    let started = Instant::now();
    {
        let _s = rec.span("runtime", "ordered_map", 0);
        for _ in 0..calls {
            black_box(pool.ordered_map(&items, |i, x| x + i as u64));
        }
    }
    out.region_overhead_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(calls);
    out
}

pub struct Traced {
    /// In `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// The layer × {busy, self, calls, share} table and the accounting of a
    /// pull-up decision, for the log.
    pub report: String,
}

/// Spans of the passes only: those under a `bench.pass` root.
fn pass_spans(spans: &[Span]) -> Vec<Span> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let in_pass = |s: &Span| {
        let mut cur = s;
        while let Some(parent) = by_id.get(&cur.parent) {
            cur = parent;
        }
        cur.layer == "bench" && cur.name == "pass"
    };
    spans.iter().filter(|s| in_pass(s)).cloned().collect()
}

/// Run untraced and traced passes in turn for `--seconds`, then the probes.
pub fn traced_run(args: &Args, inputs: &Inputs, warm_up: &Pass, tally: &mut Tally) -> Traced {
    let rec = Recorder::new();
    let started = Instant::now();
    let min_pairs = if args.smoke { 1 } else { 2 };
    let (mut untraced_s, mut traced) = (Vec::new(), Vec::new());
    // As in `timed_passes`: another pair starts only while half of it fits.
    let mut pair_s = f64::INFINITY;
    while traced.len() < min_pairs || started.elapsed().as_secs_f64() + 0.5 * pair_s < args.seconds
    {
        let pair_started = Instant::now();
        untraced_s.push(run_pass(args, inputs, tally).wall_s);
        traced.push(traced_pass(args, inputs, &rec, warm_up, tally));
        pair_s = pair_s.min(pair_started.elapsed().as_secs_f64());
    }
    let probed = probes(args, inputs, &rec, warm_up);
    let n = traced.len() as f64;

    // `train` featurizes, then runs the epochs: carve the former out.
    for train in rec.spans().iter().filter(|s| s.layer == "nn" && s.name == "train") {
        rec.carve(train, "core", "featurize_corpora", probed.featurize_corpora_s);
    }
    let spans = rec.spans();
    let totals = trace::totals(&spans);
    let in_passes = pass_spans(&spans);
    let pass_totals = trace::totals(&in_passes);
    let layers = trace::layer_totals(&in_passes);
    let attributed: f64 =
        layers.iter().filter(|(l, _)| **l != "bench").map(|(_, t)| t.self_s).sum();

    let total = |key: &str| totals.get(key).copied().unwrap_or_default();
    let per_pass = |key: &str| pass_totals.get(key).copied().unwrap_or_default().busy_s / n;
    let mean_us = |key: &str| {
        let t = total(key);
        if t.calls == 0 {
            0.0
        } else {
            t.busy_s / t.calls as f64 * 1e6
        }
    };
    let rate = |count: f64, seconds: f64| if seconds > 0.0 { count / seconds } else { 0.0 };
    let share = |layer: &str| {
        let own = layers.get(layer).map_or(0.0, |t| t.self_s);
        if attributed > 0.0 {
            100.0 * own / attributed
        } else {
            0.0
        }
    };
    let class_rows = |name: &str| {
        inputs.classes.iter().find(|c| c.name == name).map_or(0.0, |c| c.input_rows as f64)
    };
    let class_rate = |name: &str| rate(class_rows(name), probed.class_s[name].1);
    // UDF evaluation is a class minus its no-UDF twin.
    let udf_rate = |class: &str, twin: &str| {
        rate(class_rows(class), probed.class_s[class].1 - probed.class_s[twin].1)
    };
    let one_thread: f64 = probed.class_s.values().map(|s| s.0).sum();
    let two_threads: f64 = probed.class_s.values().map(|s| s.1).sum();
    let sum = |f: &dyn Fn(&TracedPass) -> f64| traced.iter().map(f).sum::<f64>();
    let last = traced.last().expect("at least one traced pass");
    let run = pass_totals.get("exec.run").copied().unwrap_or_default();
    let train = pass_totals.get("nn.train").copied().unwrap_or_default();
    let epochs = (args.sizes.epochs as f64 * train.calls as f64).max(1.0);
    let corpus = inputs.corpus.as_deref().unwrap_or(&warm_up.labelled);
    let batch_graphs = training_set(corpus).iter().map(|c| c.queries.len()).sum::<usize>() as f64
        * total("nn.forward_batch").calls as f64;
    // Best traced pass against best untraced pass of this run.
    let best = |seconds: &[f64]| seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let traced_s: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();

    let values: HashMap<&str, f64> = HashMap::from([
        ("storage.generate_s", per_pass("storage.generate")),
        (
            "storage.generate_rows_per_s",
            rate(sum(&|t| t.counts.rows_generated as f64), per_pass("storage.generate") * n),
        ),
        ("storage.analyze_s", total("storage.analyze").busy_s),
        ("storage.adapt_s", per_pass("storage.adapt")),
        (
            "storage.adapt_calls",
            pass_totals.get("storage.adapt").map_or(0.0, |t| t.calls as f64 / n),
        ),
        ("storage.decode_mrows_per_s", probed.decode_mrows_per_s),
        ("storage.bytes_per_row_encoded", probed.bytes_per_row_encoded),
        ("storage.bytes_per_row_plain", probed.bytes_per_row_plain),
        ("udf.frontend_s", total("udf.frontend").busy_s),
        ("udf.frontend_udfs_per_s", rate(probed.udfs as f64, total("udf.frontend").busy_s)),
        ("udf.compile_s", total("udf.compile").busy_s),
        ("udf.compile_udfs_per_s", rate(probed.udfs as f64, total("udf.compile").busy_s)),
        ("udf.eval_filter_rows_per_s", udf_rate("udf_filter", "count_all")),
        ("udf.eval_project_rows_per_s", udf_rate("udf_project", "agg")),
        ("plan.querygen_s", per_pass("plan.querygen")),
        (
            "plan.querygen_per_s",
            rate(total("plan.querygen").calls as f64, total("plan.querygen").busy_s),
        ),
        ("plan.build_plan_us", mean_us("plan.build_plan")),
        ("plan.verify_us", mean_us("plan.verify")),
        ("plan.rewrite_us", mean_us("plan.rewrite")),
        ("exec.run_s", run.busy_s / n),
        ("exec.plans_per_s", rate(run.calls as f64, run.busy_s)),
        ("exec.scan_mrows_per_s", rate(sum(&|t| t.counts.scan_rows), run.busy_s) * 1e-6),
        ("exec.class_scan_rows_per_s", class_rate("scan")),
        ("exec.class_join_rows_per_s", class_rate("join")),
        ("exec.class_agg_rows_per_s", class_rate("agg")),
        (
            "exec.peak_inter_rows_max",
            traced.iter().map(|t| t.counts.peak_inter_rows).max().unwrap_or(0) as f64,
        ),
        ("exec.row_cap_aborts", last.counts.row_cap_aborts as f64),
        ("runtime.speedup_2t", rate(one_thread, two_threads)),
        ("runtime.region_overhead_us", probed.region_overhead_us),
        ("cfg.build_dag_us", mean_us("cfg.build_dag")),
        ("cfg.dag_nodes_mean", probed.dag_nodes_mean),
        (
            "card.datadriven_build_s",
            rate(
                total("card.build_datadriven").busy_s,
                total("card.build_datadriven").calls as f64,
            ),
        ),
        ("card.annotate_actual_us", mean_us("card.annotate_actual")),
        ("card.annotate_datadriven_us", mean_us("card.annotate_datadriven")),
        ("card.annotate_sampling_us", mean_us("card.annotate_sampling")),
        ("card.annotate_naive_us", mean_us("card.annotate_naive")),
        ("core.featurize_us", mean_us("core.featurize")),
        ("core.featurize_corpora_s", probed.featurize_corpora_s),
        ("core.label_self_s", pass_totals.get("core.label_corpus").map_or(0.0, |t| t.self_s / n)),
        ("core.decide_predicts", last.decide_predicts as f64),
        ("core.model_load_ms", probed.model_load_ms),
        ("core.replay_mismatch", sum(&|t| t.replay_mismatch as f64)),
        ("core.qerror_p90", percentile(&last.qerrors, 0.9)),
        ("core.advisor_speedup_total", warm_up.advisor_speedup_total),
        ("core.advisor_hit_share", last.advisor_hit_share),
        (
            "nn.train_epoch_s",
            (train.busy_s - probed.featurize_corpora_s * train.calls as f64).max(0.0) / epochs,
        ),
        ("nn.forward_batch_graphs_per_s", rate(batch_graphs, total("nn.forward_batch").busy_s)),
        ("nn.forward_single_us", mean_us("nn.forward_single")),
        ("nn.param_count", probed.param_count as f64),
        ("bench.trace_overhead_pct", 100.0 * (best(&traced_s) / best(&untraced_s) - 1.0)),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name.strip_suffix(".share_pct") {
                Some(layer) => share(layer),
                None => *values
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} has no value")),
            };
            (name, value)
        })
        .collect();

    let mut report = String::new();
    let pass_wall = sum(&|t| t.wall_s);
    let _ = writeln!(
        report,
        "traced passes: {}, wall {:.3} s each; layer table over the passes",
        traced.len(),
        pass_wall / n
    );
    let _ = writeln!(
        report,
        "{:<10} {:>10} {:>10} {:>9} {:>8}",
        "layer", "busy s", "self s", "calls", "share %"
    );
    for layer in LAYERS {
        let t: Total = layers.get(layer).copied().unwrap_or_default();
        let _ = writeln!(
            report,
            "{layer:<10} {:>10.4} {:>10.4} {:>9} {:>8.2}",
            t.busy_s / n,
            t.self_s / n,
            t.calls / traced.len() as u64,
            if layer == "bench" { 0.0 } else { share(layer) }
        );
    }
    // What a decision should cost if it is the sum of its parts (README).
    let v = |k: &str| values[k];
    let accounted = 2.0 * v("plan.build_plan_us")
        + 2.0 * v("card.annotate_datadriven_us")
        + v("core.decide_predicts") * (v("core.featurize_us") + v("nn.forward_single_us"));
    let _ = writeln!(
        report,
        "one decision: {:.1} us measured, {:.1} us accounted for by its parts ({:.0} %)",
        mean_us("core.decide"),
        accounted,
        100.0 * accounted / mean_us("core.decide").max(1e-9)
    );
    Traced { metrics, spans, report }
}
