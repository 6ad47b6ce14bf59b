//! The untraced run: set-up, passes of the paper loop through the product's
//! public entry points, and the correctness checks.
//!
//! A pass is the loop the paper describes, at the workload's sizes: label →
//! train → estimate → advise. Every workload runs all four stages, because
//! every run reports every end-to-end metric; the workloads differ in where
//! the time goes (see `spec::WORKLOADS`). The run is a closed loop with one
//! client: the next pass starts when the previous one has returned.

use crate::json::Json;
use crate::spec::{Label, Sizes, Tier, Workload, HELD_OUT, HIDDEN, THREADS};
use crate::stats::{median, percentile};
use graceful::core_model::corpus::{DatasetCorpus, LabeledQuery};
use graceful::core_model::experiments::{
    evaluate_model, run_advisor_in, summarize_advisor, EstimatorKind,
};
use graceful::core_model::featurize::Featurizer;
use graceful::core_model::model::{GracefulModel, TrainConfig, TrainOptions};
use graceful::plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred, UdfUsage};
use graceful::prelude::{
    build_all_corpora_in, build_corpus_in, build_plan, generate, parse_udf, schema, Database,
    PullUpAdvisor, Rng, ScaleConfig, Strategy, UdfGenerator, UdfPlacement, Value,
};
use graceful::udf::ast::CmpOp;
use graceful::udf::GeneratedUdf;
use graceful::{ExecOptions, Session};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Input generation is repeated this often in one run and `setup_s` takes
/// the median, so one cold start does not decide it.
const SETUP_REPEATS: usize = 3;
/// A run times at least this many passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Queries re-run on one and on two threads by the determinism check.
const THREAD_CHECK_SAMPLE: usize = 60;

/// The fixed numeric UDF of the `udf_filter` / `udf_project` plan classes.
const CLASS_UDF: &str = "\
def class_udf(q, p):
    if q < 25:
        z = p * 0.5 + q
    else:
        z = math.sqrt(p) + q * 2
    return z
";

pub struct Args {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    pub corpus_seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Operations attempted and failed, and the failures that make the run's
/// outputs wrong. An operation that errors is a failed operation; an output
/// that breaks an invariant is also a failed check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: u64,
    /// First few failure messages, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    pub fn ops(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what} failed"));
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures += 1;
            self.note(format!("check failed: {}", what()));
        }
    }

    fn note(&mut self, message: String) {
        if self.notes.len() < 20 {
            self.notes.push(message);
        }
    }
}

pub struct PlanClass {
    pub name: &'static str,
    pub plan: Plan,
    /// Rows entering the class's defining operator: the rows/s basis.
    pub input_rows: usize,
}

/// Inputs made outside the timed section.
pub struct Inputs {
    pub session: Session,
    /// `tpc_h` at the label tier's scale, generated from `--seed`: the data
    /// under the plan classes and the brute-force check.
    pub class_db: Database,
    pub classes: Vec<PlanClass>,
    /// The 20-database corpus the model uses, when the label stage does not
    /// produce it.
    pub corpus: Option<Vec<DatasetCorpus>>,
}

/// What one pass produced and how long its stages took.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub label_queries: usize,
    pub label_wall_s: f64,
    pub train_graph_epochs: usize,
    pub train_wall_s: f64,
    /// `(wall, CPU)` seconds of label, train, estimate and advise. The four
    /// stages tile the pass: their sums are `wall_s` and `cpu_s`.
    pub stages: [(f64, f64); 4],
    /// One `(query, milliseconds)` per single call, in call order.
    pub predict_ms: Vec<(QueryKey, f64)>,
    pub advise_ms: Vec<(QueryKey, f64)>,
    pub qerrors: Vec<f64>,
    /// Predictions under `Actual` cardinalities and the runtimes the advisor
    /// chose, in evaluation order: what the traced replay must reproduce.
    pub predicted: Vec<f64>,
    pub chosen: Vec<f64>,
    /// Geometric mean over the advised queries of push-down ÷ chosen runtime.
    pub advisor_speedup_gmean: f64,
    /// Σ push-down ÷ Σ chosen runtime (Table V's total speed-up).
    pub advisor_speedup_total: f64,
    /// Bits of every label, q-error and advisor outcome: equal between two
    /// passes exactly when the passes agree bit for bit.
    pub digest: u64,
    /// Corpora the label stage built.
    pub labelled: Vec<DatasetCorpus>,
    pub model: GracefulModel,
}

pub fn session(threads: usize) -> Session {
    ExecOptions::new().threads(threads).build().expect("a positive thread count is valid")
}

/// The product's corpus-build configuration at a pinned size. Corpus
/// building reads the scale, the query count and the seed; folds and epochs
/// are not its business (training takes its epochs from `TrainOptions`).
///
/// Every field that exists today is set here, so no load parameter comes from
/// the product's defaults; the `..Default` only keeps this compiling when a
/// later change gives `ScaleConfig` another field.
#[allow(clippy::needless_update)]
pub fn scale_config(tier: Tier, queries_per_db: usize, seed: u64) -> ScaleConfig {
    ScaleConfig {
        data_scale: tier.data_scale,
        queries_per_db,
        folds: 1,
        epochs: 1,
        hidden: HIDDEN,
        seed,
        ..ScaleConfig::default()
    }
}

/// Configuration of the label stage.
pub fn label_config(args: &Args) -> ScaleConfig {
    let (tier, queries_per_db) = args.sizes.label_size();
    scale_config(tier, queries_per_db, args.corpus_seed)
}

/// Seed of the `index`-th dataset of a corpus, as `build_all_corpora_in`
/// derives it.
pub fn dataset_seed(corpus_seed: u64, index: usize) -> u64 {
    corpus_seed.wrapping_add(index as u64 * 7919)
}

/// The class UDF as the plan operators take it. `GeneratedUdf` has no
/// constructor, and a struct literal here would stop compiling the day the
/// product gives it another field; so the generator makes one over the same
/// table and every field that exists today is overwritten.
pub fn class_udf(db: &Database) -> Arc<GeneratedUdf> {
    let mut udf = UdfGenerator::default()
        .generate_for_table(db, "lineitem_t", &mut Rng::seed(0))
        .expect("lineitem_t has numeric columns");
    udf.def = parse_udf(CLASS_UDF).expect("the class UDF parses");
    udf.source = CLASS_UDF.to_string();
    udf.table = "lineitem_t".into();
    udf.input_columns = vec!["quantity".into(), "price".into()];
    udf.adaptations.clear();
    Arc::new(udf)
}

/// The plan classes over `tpc_h`, as literal plans: a pruned filter-scan, a
/// partitioned hash join, a column aggregate, a UDF filter and a UDF
/// projection, and `count_all`, the no-UDF twin of `udf_filter` (`agg` is
/// the twin of `udf_project`), so UDF time is a difference of two classes.
pub fn plan_classes(db: &Database, udf: Arc<GeneratedUdf>) -> Vec<PlanClass> {
    let rows = |t: &str| db.table(t).expect("tpc_h table").num_rows();
    let scan = || PlanOp::new(PlanOpKind::Scan { table: "lineitem_t".into() }, vec![]);
    let count = |child| {
        PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![child])
    };
    let lineitem = rows("lineitem_t");
    let class = |name, ops: Vec<PlanOp>, input_rows| {
        let root = ops.len() - 1;
        PlanClass { name, plan: Plan { ops, root }, input_rows }
    };
    vec![
        class(
            "scan",
            vec![
                scan(),
                PlanOp::new(
                    PlanOpKind::Filter {
                        preds: vec![Pred::new("lineitem_t", "quantity", CmpOp::Lt, Value::Int(11))],
                    },
                    vec![0],
                ),
                count(1),
            ],
            lineitem,
        ),
        class(
            "join",
            vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("orders_t", "cust_id"),
                        right_col: ColRef::new("customer_t", "id"),
                    },
                    vec![0, 1],
                ),
                count(2),
            ],
            rows("orders_t") + rows("customer_t"),
        ),
        class(
            "agg",
            vec![
                scan(),
                PlanOp::new(
                    PlanOpKind::Agg {
                        func: AggFunc::Sum,
                        column: Some(ColRef::new("lineitem_t", "price")),
                    },
                    vec![0],
                ),
            ],
            lineitem,
        ),
        class(
            "udf_filter",
            vec![
                scan(),
                PlanOp::new(
                    PlanOpKind::UdfFilter { udf: udf.clone(), op: CmpOp::Lt, literal: 20_000.0 },
                    vec![0],
                ),
                count(1),
            ],
            lineitem,
        ),
        class(
            "udf_project",
            vec![
                scan(),
                PlanOp::new(PlanOpKind::UdfProject { udf }, vec![0]),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column: None }, vec![1]),
            ],
            lineitem,
        ),
        class("count_all", vec![scan(), count(0)], lineitem),
    ]
}

pub fn make_inputs(args: &Args) -> Inputs {
    let session = session(THREADS);
    let (tier, _) = args.sizes.label_size();
    let class_db = generate(&schema("tpc_h"), tier.data_scale, args.seed);
    let classes = plan_classes(&class_db, class_udf(&class_db));
    let corpus = (args.sizes.label != Label::Corpus).then(|| {
        let size = (args.sizes.corpus_tier, args.sizes.corpus_queries_per_db);
        build_all_corpora_in(&session, &scale_config(size.0, size.1, args.corpus_seed))
    });
    Inputs { session, class_db, classes, corpus }
}

/// User + system CPU seconds of the whole process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks = |n: usize| rest.split_whitespace().nth(n).and_then(|f| f.parse::<f64>().ok());
    // After `)` the next field is number 3, so 14 and 15 sit at 11 and 12.
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / 100.0,
        _ => f64::NAN,
    }
}

/// `VmHWM`, the peak resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The label of one query: runtime, UDF input rows, every cardinality.
    pub fn label(&mut self, runtime_ns: f64, udf_input_rows: usize, plan: &Plan) {
        self.word(runtime_ns.to_bits());
        self.word(udf_input_rows as u64);
        plan.ops.iter().for_each(|op| self.word(op.actual_out_rows.to_bits()));
    }

    pub fn query(&mut self, q: &LabeledQuery) {
        self.label(q.runtime_ns, q.udf_input_rows, &q.plan);
    }
}

/// SplitMix64: the harness's own stream for call order, so the order depends
/// on `--seed` and on nothing the product may change.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// `(corpus index, query index)`: one query of the model's corpus.
pub type QueryKey = (usize, usize);

pub fn is_advisable(q: &LabeledQuery) -> bool {
    q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()
}

/// `(corpus index, query index)` of the held-out queries, in an order drawn
/// from the seed: the online stages call one query at a time, as an
/// optimizer would, not dataset by dataset.
pub fn held_out_order(corpus: &[DatasetCorpus], seed: u64, advisable_only: bool) -> Vec<QueryKey> {
    let mut order: Vec<QueryKey> = HELD_OUT
        .iter()
        .flat_map(|&c| (0..corpus[c].queries.len()).map(move |q| (c, q)))
        .filter(|&(c, q)| !advisable_only || is_advisable(&corpus[c].queries[q]))
        .collect();
    SplitMix(seed).shuffle(&mut order);
    order
}

fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// The label stage through the product's entry points. Returns the corpora
/// it built and the number of labelled queries (plan-class runs included).
pub fn label_stage(args: &Args, inputs: &Inputs, tally: &mut Tally) -> (Vec<DatasetCorpus>, usize) {
    let sizes = &args.sizes;
    let cfg = label_config(args);
    let mut labelled: Vec<DatasetCorpus> = match sizes.label {
        Label::Corpus | Label::Reference { .. } => build_all_corpora_in(&inputs.session, &cfg),
        Label::PerDatabase { tier, .. } => tier
            .databases
            .iter()
            .enumerate()
            .filter_map(|(i, name)| {
                let seed = dataset_seed(args.corpus_seed, i);
                let built = build_corpus_in(&inputs.session, name, &cfg, seed);
                tally.op(built.is_ok(), || format!("build_corpus_in({name})"));
                built.ok()
            })
            .collect(),
    };
    let mut queries = 0;
    for c in &labelled {
        tally.ops(c.queries.len() + c.skipped, c.skipped, "query generations");
        queries += c.queries.len();
    }
    if let Label::PerDatabase { class_reps, .. } = sizes.label {
        for rep in 0..class_reps {
            for class in &inputs.classes {
                let run = inputs.session.run(&inputs.class_db, &class.plan, args.seed ^ rep as u64);
                tally.op(run.is_ok(), || format!("plan class {}", class.name));
                queries += usize::from(black_box(run).is_ok());
            }
        }
    }
    labelled.shrink_to_fit();
    (labelled, queries)
}

/// The untrained model. Its initialisation and the order it trains in come
/// from the corpus seed, like the queries it learns from: the accuracy
/// metrics then belong to the code and the query set alone, and two runs of
/// one commit report them bit for bit the same (see `spec::CORPUS_SEED`).
pub fn new_model(args: &Args) -> GracefulModel {
    GracefulModel::new(Featurizer::full(), HIDDEN, args.corpus_seed)
        .expect("a positive hidden width is valid")
}

pub fn train_config(args: &Args) -> TrainConfig {
    TrainOptions::new()
        .epochs(args.sizes.epochs)
        .seed(args.corpus_seed)
        .threads(THREADS)
        .build()
        .expect("positive epochs and threads are valid")
}

pub fn training_set(corpus: &[DatasetCorpus]) -> Vec<&DatasetCorpus> {
    corpus.iter().enumerate().filter(|(i, _)| !HELD_OUT.contains(i)).map(|(_, c)| c).collect()
}

pub fn held_out(corpus: &[DatasetCorpus]) -> impl Iterator<Item = &DatasetCorpus> {
    HELD_OUT.iter().map(|&i| &corpus[i])
}

pub fn estimator_kinds(sizes: &Sizes) -> &'static [EstimatorKind] {
    if sizes.all_estimators {
        &EstimatorKind::ALL
    } else {
        &[EstimatorKind::Actual]
    }
}

/// Wall and CPU clock of a pass, read at the stage boundaries.
struct StageClock {
    wall: Instant,
    cpu_s: f64,
}

impl StageClock {
    fn start() -> StageClock {
        StageClock { wall: Instant::now(), cpu_s: cpu_seconds() }
    }

    /// `(wall, CPU)` seconds since the previous lap.
    fn lap(&mut self) -> (f64, f64) {
        let now = StageClock::start();
        let lap = (now.wall.duration_since(self.wall).as_secs_f64(), now.cpu_s - self.cpu_s);
        *self = now;
        lap
    }
}

/// One pass of the loop through the product's public entry points.
pub fn run_pass(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Pass {
    let sizes = &args.sizes;
    let mut clock = StageClock::start();
    let mut digest = Digest::new();

    // Label.
    let started = Instant::now();
    let (labelled, label_queries) = label_stage(args, inputs, tally);
    let label_wall_s = started.elapsed().as_secs_f64();
    labelled.iter().flat_map(|c| &c.queries).for_each(|q| digest.query(q));
    let corpus: &[DatasetCorpus] = inputs.corpus.as_deref().unwrap_or(&labelled);
    let label = clock.lap();

    // Train (featurization included, as shipped).
    let train = training_set(corpus);
    let train_graphs: usize = train.iter().map(|c| c.queries.len()).sum();
    let config = train_config(args);
    let mut model = new_model(args);
    let started = Instant::now();
    let trained = model.train(&train, &config);
    let train_wall_s = started.elapsed().as_secs_f64();
    tally.op(trained.is_ok(), || format!("train: {:?}", trained.as_ref().err()));
    let train_stage = clock.lap();

    // Estimate: the zero-shot evaluation of Table III, then single calls.
    let (mut qerrors, mut predicted) = (Vec::new(), Vec::new());
    for held in held_out(corpus) {
        for &kind in estimator_kinds(sizes) {
            let records = evaluate_model(&model, held, kind, args.seed);
            tally.ops(held.queries.len(), held.queries.len() - records.len(), "evaluations");
            for r in &records {
                tally.check(positive(r.predicted_ns) && r.q_error() >= 1.0, || {
                    format!(
                        "prediction {} / q-error {} on {}",
                        r.predicted_ns,
                        r.q_error(),
                        held.name
                    )
                });
                if kind == EstimatorKind::Actual {
                    qerrors.push(r.q_error());
                    predicted.push(r.predicted_ns);
                    digest.word(r.predicted_ns.to_bits());
                }
            }
        }
    }
    if sizes.batch_predict {
        let pool = inputs.session.pool();
        let graphs = model.featurize_corpora(&pool, &train);
        tally.op(graphs.is_ok(), || "featurize_corpora".into());
        if let Ok(graphs) = graphs {
            let refs: Vec<_> = graphs.iter().map(|(g, _)| g).collect();
            let predicted = model.predict_graphs(&refs);
            tally.op(predicted.is_ok(), || "predict_graphs".into());
            for p in predicted.unwrap_or_default() {
                tally.check(positive(p), || format!("batch prediction {p}"));
            }
        }
    }
    let estimators: HashMap<usize, _> = HELD_OUT
        .iter()
        .map(|&c| (c, EstimatorKind::DataDriven.build(&corpus[c].db, args.seed)))
        .collect();
    let mut predict_ms = Vec::new();
    for round in 0..sizes.predict_rounds {
        for (c, q) in held_out_order(corpus, args.seed ^ round as u64, false) {
            let (held, query) = (&corpus[c], &corpus[c].queries[q]);
            let mut plan = query.plan.clone();
            let started = Instant::now();
            let predicted = estimators[&c].annotate(&mut plan).and_then(|()| {
                model.predict(&held.db, &query.spec, &plan, estimators[&c].as_ref())
            });
            predict_ms.push(((c, q), started.elapsed().as_secs_f64() * 1e3));
            tally.op(predicted.is_ok(), || format!("predict: {:?}", predicted.as_ref().err()));
            if let Ok(p) = predicted {
                tally.check(positive(p), || format!("online prediction {p}"));
            }
        }
    }
    let estimate = clock.lap();

    // Advise: Table V's end-to-end runner, then single decisions.
    let mut outcomes = Vec::new();
    for held in held_out(corpus) {
        let advisable = held.queries.iter().filter(|q| is_advisable(q)).count();
        let out = run_advisor_in(
            &inputs.session,
            &model,
            held,
            EstimatorKind::DataDriven,
            Strategy::Conservative,
            args.seed,
            held.queries.len(),
        );
        tally.ops(advisable, advisable - out.len(), "advisor runs");
        outcomes.extend(out);
    }
    for o in &outcomes {
        digest.word(o.chosen_ns.to_bits());
        tally.check(positive(o.pushdown_ns) && positive(o.pullup_ns), || {
            format!("advisor runtimes {} / {}", o.pushdown_ns, o.pullup_ns)
        });
    }
    let summary = summarize_advisor(&outcomes);
    let advisor = PullUpAdvisor::new(&model);
    let mut advise_ms = Vec::new();
    for round in 0..sizes.advise_rounds {
        for (c, q) in held_out_order(corpus, args.seed ^ round as u64, true) {
            let (held, query) = (&corpus[c], &corpus[c].queries[q]);
            let started = Instant::now();
            let decision = advisor.decide(
                &held.db,
                &query.spec,
                estimators[&c].as_ref(),
                Strategy::AreaUnderCurve,
                None,
            );
            advise_ms.push(((c, q), started.elapsed().as_secs_f64() * 1e3));
            tally.op(decision.is_ok(), || format!("decide: {:?}", decision.as_ref().err()));
            if let Ok(d) = decision {
                let costs = d.pullup_costs.iter().chain(&d.pushdown_costs);
                tally.check(costs.clone().all(|&(_, c)| positive(c)), || "advisor cost".into());
            }
        }
    }
    drop(estimators);
    let stages = [label, train_stage, estimate, clock.lap()];

    Pass {
        wall_s: stages.iter().map(|s| s.0).sum(),
        cpu_s: stages.iter().map(|s| s.1).sum(),
        label_queries,
        label_wall_s,
        train_graph_epochs: train_graphs * sizes.epochs,
        train_wall_s,
        stages,
        predict_ms,
        advise_ms,
        qerrors,
        predicted,
        chosen: outcomes.iter().map(|o| o.chosen_ns).collect(),
        advisor_speedup_gmean: (outcomes
            .iter()
            .map(|o| (o.pushdown_ns / o.chosen_ns).ln())
            .sum::<f64>()
            / outcomes.len().max(1) as f64)
            .exp(),
        advisor_speedup_total: summary.total_speedup,
        digest: digest.0,
        labelled,
        model,
    }
}

/// Set-up: inputs generated outside the timed section (several times, the
/// median counts) plus one discarded warm-up pass, which fills caches and
/// finishes any lazy initialisation. Returns the inputs, the warm-up pass and
/// the seconds from process start to the warm-up (`inputs_s`).
pub fn set_up(args: &Args, process_started: Instant, tally: &mut Tally) -> (Inputs, Pass, f64) {
    let init_s = process_started.elapsed().as_secs_f64();
    let mut generation_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(make_inputs(args));
        generation_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");
    let warm_up = run_pass(args, &inputs, tally);
    (inputs, warm_up, init_s + median(&generation_s))
}

/// `setup_s`: process start to first timed pass, which is the inputs plus the
/// warm-up pass. The inputs are generated three times and count as measured
/// (the median). The warm-up runs once in a process, so the machine's noise
/// cannot be taken out of it by repeating it; it is priced instead as what it
/// is, a pass plus whatever the first pass costs beyond a later one: stage by
/// stage, the stage at its best over the timed passes (as `wall_s` prices a
/// pass) plus the time the warm-up took beyond the run's median pass. Work
/// that a change moves into the inputs, into a lazy first call or into every
/// pass all shows; a neighbour that slows the warm-up as it slows the passes
/// around it does not.
pub fn setup_seconds(inputs_s: f64, warm_up: &Pass, passes: &[Pass]) -> f64 {
    let warm_up_s: f64 = (0..4)
        .map(|k| {
            let stage: Vec<f64> = passes.iter().map(|p| p.stages[k].0).collect();
            let best = stage.iter().copied().fold(f64::INFINITY, f64::min);
            best + (warm_up.stages[k].0 - median(&stage)).max(0.0)
        })
        .sum();
    inputs_s + warm_up_s
}

/// The timed section: passes for `--seconds`. A pass is never cut short, so
/// the section ends at the pass boundary nearest to `--seconds`: another pass
/// starts only while more than half of it (going by the fastest so far) still
/// fits.
pub fn timed_passes(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Vec<Pass> {
    let min_passes = if args.smoke { 2 } else { MIN_PASSES };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let fits = |passes: &[Pass]| {
        let fastest = passes.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min);
        started.elapsed().as_secs_f64() + 0.5 * fastest < args.seconds
    };
    while passes.len() < min_passes || fits(&passes) {
        let pass = run_pass(args, inputs, tally);
        // Only the newest pass keeps its corpora and model alive.
        if let Some(prev) = passes.last_mut() {
            prev.labelled = Vec::new();
        }
        passes.push(pass);
    }
    passes
}

/// Where a pass spends its time, stage by stage (medians over the passes).
pub fn stage_line(passes: &[Pass]) -> String {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    format!(
        "{} passes; median stage seconds: label {:.3}, train {:.3}, estimate {:.3}, advise {:.3}",
        passes.len(),
        med(&|p| p.stages[0].0),
        med(&|p| p.stages[1].0),
        med(&|p| p.stages[2].0),
        med(&|p| p.stages[3].0),
    )
}

fn label_rate(p: &Pass) -> f64 {
    p.label_queries as f64 / p.label_wall_s
}

fn train_rate(p: &Pass) -> f64 {
    p.train_graph_epochs as f64 / p.train_wall_s
}

/// Latency of a single call over the query set: every query is called many
/// times in a run (every round of every pass), its latency is its fastest
/// call, and the result holds one such latency per query. The queries are the
/// pinned held-out set, so the percentiles over them belong to the code. It
/// is the rule of the times and rates applied to single calls: every call of
/// a query does the same work, the machine's noise only adds time, and a
/// neighbour that takes a core for seconds at a time slows half the calls of
/// a run, so that any statistic from the middle of a query's calls reads the
/// neighbour (see the README for the figures).
pub fn per_query_ms<'a>(calls: impl Iterator<Item = &'a (QueryKey, f64)>) -> Vec<f64> {
    let mut fastest: BTreeMap<QueryKey, f64> = BTreeMap::new();
    for &(query, ms) in calls {
        fastest.entry(query).and_modify(|best| *best = best.min(ms)).or_insert(ms);
    }
    fastest.into_values().collect()
}

/// The end-to-end metrics of a run, in `spec::END_TO_END` order.
///
/// Every time and rate is a stage at its best over the run's passes: the
/// highest label and train rate, and for `wall_s` and `cpu_s` the sum over
/// the four stages of each stage's fastest pass, which is a pass with every
/// stage at its best. Every pass of a run does the same work on the same
/// inputs (checked bit for bit), so what separates them is the machine, and
/// its noise only adds time; a stage of a second finds an undisturbed moment
/// in a run far more often than a whole pass of three does. The run record
/// keeps every stage of every pass, so whole passes and medians are one look
/// away.
///
/// The per-call latencies are percentiles over the queries of each query's
/// fastest call in the run (`per_query_ms`); for `setup_s` see
/// `setup_seconds`.
pub fn end_to_end(inputs_s: f64, warm_up: &Pass, passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let highest = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).fold(0.0, f64::max);
    let stages_at_best = |f: &dyn Fn(&(f64, f64)) -> f64| -> f64 {
        (0..4).map(|k| passes.iter().map(|p| f(&p.stages[k])).fold(f64::INFINITY, f64::min)).sum()
    };
    let predict_ms = per_query_ms(passes.iter().flat_map(|p| &p.predict_ms));
    let advise_ms = per_query_ms(passes.iter().flat_map(|p| &p.advise_ms));
    vec![
        ("setup_s", setup_seconds(inputs_s, warm_up, passes)),
        ("wall_s", stages_at_best(&|s| s.0)),
        ("cpu_s", stages_at_best(&|s| s.1)),
        ("peak_rss_mib", peak_rss_mib()),
        ("label_queries_per_s", highest(&label_rate)),
        ("train_graphs_per_s", highest(&train_rate)),
        ("predict_p50_ms", percentile(&predict_ms, 0.5)),
        ("predict_p95_ms", percentile(&predict_ms, 0.95)),
        ("advise_p50_ms", percentile(&advise_ms, 0.5)),
        ("advise_p95_ms", percentile(&advise_ms, 0.95)),
        // Passes of one run agree bit for bit (checked), so the first speaks
        // for all.
        ("qerror_median", median(&passes[0].qerrors)),
        ("advisor_speedup_gmean", passes[0].advisor_speedup_gmean),
    ]
}

/// The set-up as it ran, for the run record: what `setup_seconds` starts from.
pub fn set_up_json(inputs_s: f64, warm_up: &Pass) -> Json {
    Json::obj(vec![
        ("inputs_s", Json::Num(inputs_s)),
        (
            "warm_up_stage_wall_s",
            Json::Arr(warm_up.stages.iter().map(|s| Json::Num(s.0)).collect()),
        ),
    ])
}

/// Every timed pass on its own, for the run record: its times (whole, and
/// label, train, estimate, advise), its rates and every single call, as
/// `[corpus, query, milliseconds]`.
pub fn passes_json(passes: &[Pass]) -> Json {
    let calls = |calls: &[(QueryKey, f64)]| {
        let call = |&((c, q), ms): &(QueryKey, f64)| {
            Json::Arr(vec![Json::Num(c as f64), Json::Num(q as f64), Json::Num(ms)])
        };
        Json::Arr(calls.iter().map(call).collect())
    };
    let pass = |p: &Pass| {
        Json::obj(vec![
            ("wall_s", Json::Num(p.wall_s)),
            ("cpu_s", Json::Num(p.cpu_s)),
            ("stage_wall_s", Json::Arr(p.stages.iter().map(|s| Json::Num(s.0)).collect())),
            ("stage_cpu_s", Json::Arr(p.stages.iter().map(|s| Json::Num(s.1)).collect())),
            ("label_queries_per_s", Json::Num(label_rate(p))),
            ("train_graphs_per_s", Json::Num(train_rate(p))),
            ("predict_calls", calls(&p.predict_ms)),
            ("advise_calls", calls(&p.advise_ms)),
        ])
    };
    Json::Arr(passes.iter().map(pass).collect())
}

fn label_bits(run: &graceful::exec::QueryRun) -> (u64, u64, Vec<usize>) {
    (run.runtime_ns.to_bits(), run.agg_value.to_bits(), run.out_rows.clone())
}

/// Brute-force results of the `scan`, `join` and `agg` classes, computed
/// from the raw column values with none of the engine's code.
pub fn brute_force(db: &Database) -> Result<(f64, f64, f64), String> {
    let column = |table: &str, column: &str| {
        db.table(table).and_then(|t| t.column(column)).map_err(|e| e.to_string())
    };
    let quantity = column("lineitem_t", "quantity")?;
    let scan = (0..quantity.len()).filter(|&r| quantity.get_i64(r).is_some_and(|q| q < 11)).count();
    let customer_id = column("customer_t", "id")?;
    let mut customers: HashMap<i64, u64> = HashMap::new();
    for id in (0..customer_id.len()).filter_map(|r| customer_id.get_i64(r)) {
        *customers.entry(id).or_default() += 1;
    }
    let cust_id = column("orders_t", "cust_id")?;
    let join: u64 = (0..cust_id.len())
        .filter_map(|r| cust_id.get_i64(r))
        .map(|id| customers.get(&id).copied().unwrap_or(0))
        .sum();
    let price = column("lineitem_t", "price")?;
    let agg: f64 = (0..price.len()).filter_map(|r| price.get_f64(r)).sum();
    Ok((scan as f64, join as f64, agg))
}

/// Float sums are folded per morsel, so they may differ from a sequential
/// sum in the last bits; everything else must match exactly.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The checks every run makes after its timed section. Each comparison is
/// one attempted operation.
pub fn check_outputs(
    args: &Args,
    inputs: &Inputs,
    warm_up: &Pass,
    passes: &[Pass],
    tally: &mut Tally,
) {
    let last = passes.last().expect("at least one timed pass");
    let corpus: &[DatasetCorpus] = inputs.corpus.as_deref().unwrap_or(&last.labelled);

    // The tier table states row counts; hold the generator to them.
    let rows = |corpora: &[DatasetCorpus]| corpora.iter().map(|c| c.db.total_rows()).sum::<usize>();
    let mut tiers = vec![(args.sizes.label_size().0, rows(&last.labelled))];
    if let Some(corpus) = &inputs.corpus {
        tiers.push((args.sizes.corpus_tier, rows(corpus)));
    }
    for (tier, rows) in tiers {
        tally.check(rows == tier.rows, || {
            format!("tier {} has {rows} rows, its table says {}", tier.name, tier.rows)
        });
    }

    // Two passes in one process give bit-identical labels and q-errors.
    for (i, pass) in passes.iter().enumerate() {
        tally.check(pass.digest == warm_up.digest, || {
            format!(
                "pass {i} digest {:x} differs from the warm-up's {:x}",
                pass.digest, warm_up.digest
            )
        });
    }

    // Labels do not depend on the thread count.
    let single = session(1);
    let labelled: Vec<(&DatasetCorpus, usize)> =
        last.labelled.iter().flat_map(|c| (0..c.queries.len()).map(move |q| (c, q))).collect();
    let step = labelled.len().div_ceil(THREAD_CHECK_SAMPLE).max(1);
    for &(c, q) in labelled.iter().step_by(step) {
        let query = &c.queries[q];
        let one = single.run(&c.db, &query.plan, query.spec.id).map(|r| label_bits(&r));
        let two = inputs.session.run(&c.db, &query.plan, query.spec.id).map(|r| label_bits(&r));
        tally.check(one.is_ok() && one.as_ref().ok() == two.as_ref().ok(), || {
            format!(
                "query {} of {} labels differ between 1 and {THREADS} threads",
                query.spec.id, c.name
            )
        });
    }
    for class in &inputs.classes {
        let one = single.run(&inputs.class_db, &class.plan, args.seed).map(|r| label_bits(&r));
        let two =
            inputs.session.run(&inputs.class_db, &class.plan, args.seed).map(|r| label_bits(&r));
        tally.check(one.is_ok() && one.as_ref().ok() == two.as_ref().ok(), || {
            format!("plan class {} differs between 1 and {THREADS} threads", class.name)
        });
    }

    // UDF placement never changes a query's result.
    for (c, q) in held_out_order(corpus, args.seed, true).into_iter().take(THREAD_CHECK_SAMPLE) {
        let (held, query) = (&corpus[c], &corpus[c].queries[q]);
        let run = |placement| {
            let plan = build_plan(&query.spec, placement).map_err(|e| e.to_string())?;
            let run =
                inputs.session.run(&held.db, &plan, query.spec.id).map_err(|e| e.to_string())?;
            let below_agg = plan.ops[plan.root].children.first().map(|&c| run.out_rows[c]);
            Ok::<_, String>((run.agg_value, below_agg))
        };
        let (down, up) = (run(UdfPlacement::PushDown), run(UdfPlacement::PullUp));
        let same = match (&down, &up) {
            (Ok((a, rows_a)), Ok((b, rows_b))) => close(*a, *b) && rows_a == rows_b,
            _ => false,
        };
        tally.check(same, || {
            format!("query {} of {}: push-down {down:?}, pull-up {up:?}", query.spec.id, held.name)
        });
    }

    // The engine's scan, join and aggregate equal a brute-force computation.
    match brute_force(&inputs.class_db) {
        Ok((scan, join, agg)) => {
            for (name, expected) in [("scan", scan), ("join", join), ("agg", agg)] {
                let class = inputs.classes.iter().find(|c| c.name == name).expect("class exists");
                let got = inputs
                    .session
                    .run(&inputs.class_db, &class.plan, args.seed)
                    .map(|r| r.agg_value);
                tally.check(got.as_ref().is_ok_and(|&g| close(g, expected)), || {
                    format!("class {name}: engine {got:?}, brute force {expected}")
                });
            }
        }
        Err(e) => tally.check(false, || format!("brute force: {e}")),
    }

    // A saved and reloaded model predicts bit-identically.
    let reloaded = GracefulModel::from_json(&last.model.to_json());
    tally.check(reloaded.is_ok(), || format!("model reload: {:?}", reloaded.as_ref().err()));
    if let Ok(reloaded) = reloaded {
        for held in held_out(corpus) {
            let a = evaluate_model(&last.model, held, EstimatorKind::Naive, args.seed);
            let b = evaluate_model(&reloaded, held, EstimatorKind::Naive, args.seed);
            let same = a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.predicted_ns.to_bits() == y.predicted_ns.to_bits());
            tally.check(same && !a.is_empty(), || {
                format!("reloaded model predicts differently on {}", held.name)
            });
        }
    }
}
