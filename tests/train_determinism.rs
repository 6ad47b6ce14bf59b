//! Training-stack determinism and batched/reference differential coverage
//! over *real* featurized corpora (the `graceful-nn` unit suite covers
//! synthetic property-generated graphs; this suite covers the full
//! `GracefulModel::train` pipeline end to end).
//!
//! Pinned guarantees:
//!
//! * the batched level-synchronous trainer produces **bit-identical** loss
//!   curves, parameters and predictions to the node-at-a-time reference
//!   (`TrainOptions::exec(GnnExecMode::NodeAtATime)`,
//!   `GnnModel::predict_reference`) at every batch size, and
//! * training is bit-identical for any featurization thread count
//!   (`GRACEFUL_THREADS` ∈ {1, 2, 4} via `TrainOptions::threads`).

use graceful::prelude::*;

fn tiny_corpus(name: &str, seed: u64) -> DatasetCorpus {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 12, ..ScaleConfig::default() };
    build_corpus(name, &cfg, seed).expect("corpus builds")
}

fn train_with(
    corpora: &[&DatasetCorpus],
    exec: GnnExecMode,
    threads: usize,
    batch: usize,
) -> (Vec<f32>, GracefulModel) {
    let mut model = GracefulModel::new(Featurizer::full(), 12, 7).expect("valid architecture");
    let cfg = TrainOptions::new()
        .epochs(4)
        .batch_size(batch)
        .exec(exec)
        .threads(threads)
        .seed(99)
        .build()
        .expect("valid options");
    let losses = model.train(corpora, &cfg).expect("training succeeds");
    (losses, model)
}

#[test]
fn batched_training_bit_identical_to_reference_on_real_corpora() {
    let a = tiny_corpus("tpc_h", 31);
    let b = tiny_corpus("imdb", 32);
    let corpora = [&a, &b];
    for batch in [1usize, 8, 16] {
        let (ref_losses, ref_model) = train_with(&corpora, GnnExecMode::NodeAtATime, 1, batch);
        let (bat_losses, bat_model) = train_with(&corpora, GnnExecMode::Batched, 1, batch);
        assert_eq!(
            ref_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            bat_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "loss curves diverged at batch size {batch}"
        );
        assert_eq!(
            ref_model.param_checksum(),
            bat_model.param_checksum(),
            "final parameters diverged at batch size {batch}"
        );
        // Predictions agree bit-for-bit on held-out queries: the reference
        // entry point on the reference-trained model, graph by graph, against
        // the engine on the engine-trained one, alone and as one batch.
        let est = ActualCard::new(&a.db);
        let graphs: Vec<_> = a
            .queries
            .iter()
            .take(6)
            .map(|q| {
                let mut plan = q.plan.clone();
                est.annotate(&mut plan).unwrap();
                ref_model.graph_for(&a.db, &q.spec, &plan, &est).unwrap()
            })
            .collect();
        let refs: Vec<&graceful::nn::TypedGraph> = graphs.iter().collect();
        let single: Vec<f64> =
            refs.iter().map(|g| ref_model.gnn().predict_reference(g).unwrap()).collect();
        let packed = bat_model.predict_graphs(&refs).unwrap();
        for ((g, x), y) in refs.iter().zip(&single).zip(&packed) {
            assert_eq!(x.to_bits(), y.to_bits(), "prediction diverged");
            assert_eq!(x.to_bits(), bat_model.predict_graph(g).unwrap().to_bits());
        }
    }
}

#[test]
fn training_is_thread_count_independent() {
    let a = tiny_corpus("ssb", 41);
    let b = tiny_corpus("airline", 42);
    let corpora = [&a, &b];
    let (ref_losses, ref_model) = train_with(&corpora, GnnExecMode::Batched, 1, 16);
    for threads in [2usize, 4] {
        let (losses, model) = train_with(&corpora, GnnExecMode::Batched, threads, 16);
        assert_eq!(
            ref_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "loss curves diverged at {threads} threads"
        );
        assert_eq!(
            ref_model.param_checksum(),
            model.param_checksum(),
            "final parameters diverged at {threads} threads"
        );
    }
}

#[test]
fn train_config_validation_reaches_train() {
    let c = tiny_corpus("movielens", 43);
    let mut model = GracefulModel::new(Featurizer::full(), 8, 1).expect("valid architecture");
    // A hand-rolled zero-epoch config is rejected by train itself.
    let bad = TrainConfig { epochs: 0, ..TrainConfig::default() };
    assert!(matches!(model.train(&[&c], &bad), Err(graceful::common::GracefulError::Config(_))));
}
