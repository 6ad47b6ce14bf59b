//! Criterion micro-benchmarks (engineering, not a paper artifact):
//! executor throughput, UDF interpretation, GNN inference latency — the
//! pieces whose performance bounds how fast the corpus and the experiments
//! can be regenerated.

use criterion::{criterion_group, criterion_main, Criterion};
use graceful_card::{ActualCard, CardEstimator};
use graceful_common::config::ScaleConfig;
use graceful_common::rng::Rng;
use graceful_core::corpus::build_corpus_in;
use graceful_core::experiments::train_graceful;
use graceful_core::featurize::Featurizer;
use graceful_exec::Session;
use graceful_storage::datagen::{generate, schema};
use graceful_storage::Value;
use graceful_udf::{parse_udf, Interpreter};
use std::hint::black_box;

fn bench_interpreter(c: &mut Criterion) {
    let udf = parse_udf(
        "def f(x, y):\n    z = x * 1.5\n    if x < 50:\n        z = z + math.sqrt(y)\n    else:\n        for i in range(20):\n            z = z + np.log(y + 1) * 0.5\n    return z\n",
    )
    .unwrap();
    let mut interp = Interpreter::default();
    c.bench_function("udf_interpret_row", |b| {
        let mut x = 0i64;
        b.iter(|| {
            x = (x + 7) % 100;
            let out = interp.eval(&udf, &[Value::Int(black_box(x)), Value::Float(2.5)]).unwrap();
            black_box(out.cost.total)
        })
    });
}

fn bench_executor(c: &mut Criterion) {
    let db = generate(&schema("tpc_h"), 0.2, 3);
    use graceful_plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind};
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("orders_t", "cust_id"),
                    right_col: ColRef::new("customer_t", "id"),
                },
                vec![0, 1],
            ),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
        ],
        root: 3,
    };
    let exec = Session::from_env().expect("valid GRACEFUL_* configuration").executor(&db);
    c.bench_function("executor_fk_join", |b| {
        b.iter(|| black_box(exec.run(&plan, 1).unwrap().runtime_ns))
    });
}

fn bench_inference(c: &mut Criterion) {
    let cfg = ScaleConfig {
        data_scale: 0.05,
        queries_per_db: 24,
        epochs: 4,
        hidden: 32,
        ..ScaleConfig::default()
    };
    let session = Session::from_env().expect("valid GRACEFUL_* configuration");
    let corpus = build_corpus_in(&session, "imdb", &cfg, 5).unwrap();
    let model =
        train_graceful(&session, std::slice::from_ref(&corpus), &cfg, Featurizer::full()).unwrap();
    let est = ActualCard::new(&corpus.db);
    let q = corpus.queries.iter().find(|q| q.has_udf()).unwrap();
    let mut plan = q.plan.clone();
    est.annotate(&mut plan).unwrap();
    let graph = model.graph_for(&corpus.db, &q.spec, &plan, &est).unwrap();
    c.bench_function("gnn_inference", |b| {
        b.iter(|| black_box(model.predict_graph(&graph).unwrap()))
    });
    c.bench_function("featurize_and_predict", |b| {
        b.iter(|| {
            let g = model.graph_for(&corpus.db, &q.spec, &plan, &est).unwrap();
            black_box(model.predict_graph(&g).unwrap())
        })
    });
    let mut rng = Rng::seed(1);
    c.bench_function("rng_overhead_floor", |b| b.iter(|| black_box(rng.next_u64())));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_interpreter, bench_executor, bench_inference
}
criterion_main!(benches);
