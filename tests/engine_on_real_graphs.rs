//! The GNN engine against its tape oracle on the graphs the featurizer
//! really emits.
//!
//! The differential suites of graceful-nn draw four toy node types with
//! dense random features. Here the graphs come from the estimate-digest
//! corpora (scale 0.05, 8 queries per database) under every
//! [`EstimatorKind`]: thirteen node types, COMP rows of 45 features with two
//! or three nonzeros (the only ones the encoder reads), all-zero rows
//! (`log_mag(0)`), the hidden width 32 of the kernel's register-tile path,
//! and ladder graphs with one root per annotation variant. Every estimate
//! entry point and two training steps must keep the oracle's bits.

use graceful::common::{GracefulError, Serial};
use graceful::nn::{AdamConfig, TypedGraph};
use graceful::prelude::*;

fn corpora() -> (Session, Vec<DatasetCorpus>, u64) {
    let session = ExecOptions::new().threads(1).build().expect("valid options");
    let cfg = ScaleConfig {
        data_scale: 0.05,
        queries_per_db: 8,
        seed: 20_250_331,
        ..ScaleConfig::default()
    };
    let corpora = build_all_corpora_in(&session, &cfg);
    (session, corpora, cfg.seed)
}

/// `graph` read out at `root` by the tape reference.
fn oracle(model: &GracefulModel, graph: &TypedGraph, root: usize) -> u64 {
    let alone = TypedGraph { root, ..graph.clone() };
    model.gnn().predict_reference(&alone).expect("a featurized graph is valid").to_bits()
}

#[test]
fn estimates_and_steps_on_featurized_graphs_keep_the_oracles_bits() {
    let (session, corpora, seed) = corpora();
    let mut model = GracefulModel::new(Featurizer::full(), 32, 7).expect("hidden 32 is valid");
    let all: Vec<&DatasetCorpus> = corpora.iter().collect();
    let samples = model.featurize_corpora(&session.pool(), &all).expect("corpora featurize");
    let labels: Vec<f64> = samples.iter().map(|s| s.1).collect();
    model.gnn_mut().fit_target_norm(&labels).expect("finite labels");

    // Two steps on the engine and on the reference, from the same weights.
    let mut reference = model.clone();
    let adam = AdamConfig { lr: 3e-3, ..AdamConfig::default() };
    for step in samples.chunks(40).take(2) {
        let graphs: Vec<&TypedGraph> = step.iter().map(|(g, _)| g).collect();
        let labels: Vec<f64> = step.iter().map(|s| s.1).collect();
        let engine = model.gnn_mut().train_batch(&Serial, &graphs, &labels, &adam, 1.0);
        let tape = reference.gnn_mut().train_batch_reference(&graphs, &labels, &adam, 1.0);
        assert_eq!(engine.expect("engine step").to_bits(), tape.expect("tape step").to_bits());
        assert_eq!(model.param_checksum(), reference.param_checksum(), "a step diverged");
    }

    let fz = model.featurizer();
    let (mut estimates, mut ladder_roots) = (0, 0);
    for corpus in &corpora {
        let db = &corpus.db;
        let estimators = EstimatorKind::ALL.map(|k| k.build(db, seed));
        // Every graph of this database, then every ladder and its roots.
        let (mut graphs, mut ladders, mut roots) = (Vec::new(), Vec::new(), Vec::new());
        for q in &corpus.queries {
            let mut variants = Vec::new();
            for est in &estimators {
                let mut plan = q.plan.clone();
                est.annotate(&mut plan).expect("every digest query annotates");
                let graph = fz.featurize(db, &q.spec, &plan, est.as_ref()).expect("featurizes");
                let want = oracle(&model, &graph, graph.root);
                let got = model.predict(db, &q.spec, &plan, est.as_ref()).expect("estimates");
                assert_eq!(got.to_bits(), want, "predict, query {} on {}", q.spec.id, corpus.name);
                assert_eq!(model.predict_graph(&graph).expect("estimates").to_bits(), want);
                graphs.push((graph, want));
                variants.push(plan.ops.iter().map(|op| op.est_out_rows).collect());
                estimates += 1;
            }
            let (ladder, variant_roots) = fz
                .featurize_ladder(db, &q.spec, &q.plan, &variants, estimators[0].as_ref())
                .expect("ladder");
            roots.extend(variant_roots.into_iter().map(|r| (ladders.len(), r)));
            ladders.push(ladder);
        }
        let refs: Vec<&TypedGraph> = graphs.iter().map(|(g, _)| g).collect();
        let batch = model.predict_graphs(&refs).expect("batch estimates");
        for ((_, want), got) in graphs.iter().zip(batch) {
            assert_eq!(got.to_bits(), *want, "predict_graphs on {}", corpus.name);
        }
        let refs: Vec<&TypedGraph> = ladders.iter().collect();
        let costs = model.gnn().predict_roots(&refs, &roots).expect("ladder estimates");
        for (&(gi, r), got) in roots.iter().zip(costs) {
            assert_eq!(
                got.to_bits(),
                oracle(&model, refs[gi], r),
                "ladder root on {}",
                corpus.name
            );
            ladder_roots += 1;
        }
    }
    assert_eq!((estimates, ladder_roots), (640, 640), "every query under every estimator");
}

/// The typed checks an estimate runs are the ones the featurizer's own pass
/// ran before it was dropped: each invalid graph is rejected with the same
/// error, word for word, and an annotation that overflows a feature is a
/// typed error, never `Ok(NaN)` or `Ok(inf)`.
#[test]
fn an_estimate_rejects_what_the_featurizer_rejected() {
    let (_session, corpora, seed) = corpora();
    let model = GracefulModel::new(Featurizer::full(), 8, 3).expect("hidden 8 is valid");
    let corpus = &corpora[0];
    let q = corpus.queries.iter().find(|q| q.has_udf()).expect("a UDF query");
    let est = EstimatorKind::DataDriven.build(&corpus.db, seed);
    let mut plan = q.plan.clone();
    est.annotate(&mut plan).expect("annotates");
    let graph = model.featurizer().featurize(&corpus.db, &q.spec, &plan, est.as_ref()).unwrap();
    assert!(model.predict_graph(&graph).expect("a featurized graph estimates").is_finite());
    let rows: Vec<Vec<f32>> = graph.features.iter().map(<[f32]>::to_vec).collect();
    let with_rows =
        |rows: &[Vec<f32>]| TypedGraph { features: rows.iter().collect(), ..graph.clone() };
    let (t0, t3, n) = (graph.node_types[0], graph.node_types[3], graph.len());

    let mut nan = rows.clone();
    nan[3][0] = f32::NAN;
    let mut wide = rows.clone();
    wide[0].push(0.5);
    let unknown =
        TypedGraph { node_types: [&[99][..], &graph.node_types[1..]].concat(), ..graph.clone() };
    let mut backward = graph.clone();
    backward.edges.push((n - 1, 1));
    let root = TypedGraph { root: n, ..graph.clone() };
    let cases = [
        (with_rows(&nan), format!("node 3 (type {t3}) has feature NaN")),
        (
            with_rows(&wide),
            format!(
                "node 0 (type {t0}) has {} features, expected {}",
                rows[0].len() + 1,
                rows[0].len()
            ),
        ),
        (unknown, "unknown node type 99".to_string()),
        (backward, format!("edge ({},1) violates topological order", n - 1)),
        (root, "root out of bounds".to_string()),
    ];
    for (bad, words) in cases {
        assert_eq!(model.predict_graph(&bad), Err(GracefulError::Model(words)));
    }

    // An estimate of infinitely many rows: the SCAN feature `log_mag(inf)`.
    let scan = plan.ops.iter().position(|op| op.children.is_empty()).expect("a scan");
    plan.ops[scan].est_out_rows = f64::INFINITY;
    match model.predict(&corpus.db, &q.spec, &plan, est.as_ref()) {
        Err(GracefulError::Model(m)) => assert!(m.contains("has feature inf"), "{m}"),
        other => panic!("expected a typed Model error, got {other:?}"),
    }
}
