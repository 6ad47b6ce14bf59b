//! Each generated UDF is analysed once for featurization: its return type,
//! DAG and control paths become one template the UDF keeps, built by the
//! first `featurize` that meets it and read by every later one. The
//! `core.udf_templates` registry counter is process-wide, so this file is
//! its own test process and holds one test.

use graceful::card::{ActualCard, CardEstimator};
use graceful::nn::TypedGraph;
use graceful::obs::registry;
use graceful::plan::{AggFunc, Plan, PlanOp, PlanOpKind};
use graceful::prelude::*;
use graceful::udf::GeneratedUdf;
use std::sync::Arc;

fn templates() -> u64 {
    registry::snapshot().counter("core.udf_templates")
}

/// Every emitted bit of a graph: its sizes, node types, feature bits, edges
/// and root.
fn bits(g: &TypedGraph) -> Vec<u64> {
    let sizes = [g.node_types.len(), g.features.iter().flatten().count(), g.edges.len(), g.root];
    let types = g.node_types.iter().map(|&t| t as u64);
    let features = g.features.iter().flatten().map(|f| u64::from(f.to_bits()));
    let edges = g.edges.iter().flat_map(|&(s, d)| [s as u64, d as u64]);
    sizes.iter().map(|&n| n as u64).chain(types).chain(features).chain(edges).collect()
}

/// `SELECT SUM(udf(..)) FROM udf.table`, annotated with exact cardinalities.
fn project(udf: Arc<GeneratedUdf>, est: &ActualCard) -> Plan {
    let table = udf.table.clone();
    let mut plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table }, vec![]),
            PlanOp::new(PlanOpKind::UdfProject { udf }, vec![0]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column: None }, vec![1]),
        ],
        root: 2,
    };
    est.annotate(&mut plan).expect("the plan annotates");
    plan
}

#[test]
fn a_corpus_analyses_each_udf_once_and_a_stale_template_never_emits() {
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 14, ..ScaleConfig::default() };
    let corpora: Vec<DatasetCorpus> = ["imdb", "tpc_h", "airline"]
        .iter()
        .zip(11..)
        .map(|(name, seed)| build_corpus_in(&session, name, &cfg, seed).expect("a corpus"))
        .collect();
    let udf_specs = corpora.iter().flat_map(|c| &c.queries).filter(|q| q.has_udf()).count();
    assert!(udf_specs > 20, "only {udf_specs} UDF-bearing specs");

    // Featurized twice, then estimated and decided on: one template per
    // UDF, and the second graph of a plan is the first, bit for bit.
    let (full, before) = (Featurizer::full(), templates());
    let model = GracefulModel::new(full, 12, 3).expect("a model");
    let advisor = PullUpAdvisor::new(&model);
    let mut decided = 0;
    for c in &corpora {
        let est = ActualCard::new(&c.db);
        for q in &c.queries {
            let mut plan = q.plan.clone();
            est.annotate(&mut plan).expect("the plan annotates");
            let first = full.featurize(&c.db, &q.spec, &plan, &est).expect("it featurizes");
            let second = full.featurize(&c.db, &q.spec, &plan, &est).expect("it featurizes");
            assert_eq!(bits(&first), bits(&second));
            model.predict(&c.db, &q.spec, &plan, &est).expect("it estimates");
            let decision = advisor.decide(&c.db, &q.spec, &est, Strategy::AreaUnderCurve, None);
            decided += usize::from(decision.is_ok());
        }
    }
    assert!(decided > 0, "no query was decided on");
    assert_eq!(templates() - before, udf_specs as u64, "templates per UDF-bearing spec");

    // The harness's way of making a UDF: take one that has been featurized
    // and overwrite its `def`, with its `Arc` shared and with it unique. It
    // featurizes to the graph of a fresh analysis of what it holds now, built
    // afresh on every call and never kept, and the UDF it came from keeps
    // its own template.
    let corpus = &corpora[0];
    let est = ActualCard::new(&corpus.db);
    let query = corpus.queries.iter().find(|q| q.has_udf()).expect("a UDF query");
    let ran = query.spec.udf.clone().expect("the query's UDF");
    let graph = |udf: &Arc<GeneratedUdf>, fz: Featurizer| {
        let plan = project(Arc::clone(udf), &est);
        bits(&fz.featurize(&corpus.db, &query.spec, &plan, &est).expect("it featurizes"))
    };
    let fresh = |udf: &GeneratedUdf, fz: Featurizer| {
        graph(
            &Arc::new(GeneratedUdf::new(udf.def.clone(), &udf.table, udf.input_columns.clone())),
            fz,
        )
    };
    let kept = graph(&ran, full);
    let params = ran.def.params.join(", ");
    let sources = [
        format!("def f({params}):\n    return 1.5\n"),
        format!(
            "def f({params}):\n    if {} > 3:\n        return 2.0\n    return 1.0\n",
            ran.def.params[0]
        ),
    ];
    for (shared, source) in [true, false].into_iter().zip(&sources) {
        let mut udf = if shared { Arc::clone(&ran) } else { Arc::new((*ran).clone()) };
        Arc::make_mut(&mut udf).def = parse_udf(source).expect("parses");
        let want = fresh(&udf, full);
        for _ in 0..2 {
            let before = templates();
            assert_eq!(graph(&udf, full), want, "shared: {shared}");
            assert_eq!(templates() - before, 1, "a stale UDF's template was kept");
        }
        assert_ne!(want, kept, "the overwritten UDF emitted its old template");
        let before = templates();
        assert_eq!(graph(&ran, full), kept, "the original lost its template");
        assert_eq!(templates(), before, "the original's template was built again");
    }

    // Another ablation level gets its own configuration's graph.
    for level in Featurizer::LEVELS {
        let fz = Featurizer::level(level).expect("a level");
        assert_eq!(graph(&ran, fz), fresh(&ran, fz), "level {level}");
    }
}
