//! Training-stack determinism and engine/reference differential coverage
//! over *real* featurized corpora (the `graceful-nn` unit suite covers
//! synthetic property-generated graphs; this suite covers what
//! `GracefulModel::train` feeds the GNN).
//!
//! Pinned guarantees:
//!
//! * the level-synchronous engine (`GnnModel::train_batch`, what every
//!   training step runs on) produces **bit-identical** losses, parameters
//!   and predictions to the node-at-a-time reference
//!   (`GnnModel::train_batch_reference`, `GnnModel::predict_reference`) at
//!   every batch size — batch 16 is two shards of eight graphs, batch 8
//!   one — and
//! * training is bit-identical for any thread count (`GRACEFUL_THREADS` ∈
//!   {1, 2, 4} via `TrainOptions::threads`), which sizes the pool both
//!   featurization and every step's shards run on.

use graceful::common::Serial;
use graceful::nn::{AdamConfig, TypedGraph};
use graceful::prelude::*;

fn tiny_corpus(name: &str, seed: u64) -> DatasetCorpus {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 12, ..ScaleConfig::default() };
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    build_corpus_in(&session, name, &cfg, seed).expect("corpus builds")
}

fn new_model() -> GracefulModel {
    GracefulModel::new(Featurizer::full(), 12, 7).expect("valid architecture")
}

#[test]
fn batched_training_bit_identical_to_reference_on_real_corpora() {
    let a = tiny_corpus("tpc_h", 31);
    let b = tiny_corpus("imdb", 32);
    // Featurize once, the way `train` does; both models step over the same
    // graphs in the same chunks.
    let samples = new_model().featurize_corpora(&Pool::new(2), &[&a, &b]).expect("featurizes");
    let targets: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
    let adam = AdamConfig { lr: 2e-3, ..AdamConfig::default() };
    for batch in [1usize, 8, 16] {
        let (mut engine, mut reference) = (new_model(), new_model());
        engine.gnn_mut().fit_target_norm(&targets).unwrap();
        reference.gnn_mut().fit_target_norm(&targets).unwrap();
        for epoch in 0..4 {
            for (step, chunk) in samples.chunks(batch).enumerate() {
                let graphs: Vec<&TypedGraph> = chunk.iter().map(|(g, _)| g).collect();
                let ts: Vec<f64> = chunk.iter().map(|(_, t)| *t).collect();
                let on_engine =
                    engine.gnn_mut().train_batch(&Serial, &graphs, &ts, &adam, 1.0).unwrap();
                let on_tape =
                    reference.gnn_mut().train_batch_reference(&graphs, &ts, &adam, 1.0).unwrap();
                assert_eq!(
                    on_engine.to_bits(),
                    on_tape.to_bits(),
                    "loss diverged at batch size {batch}, epoch {epoch}, step {step}"
                );
            }
            assert_eq!(
                engine.param_checksum(),
                reference.param_checksum(),
                "parameters diverged at batch size {batch}, epoch {epoch}"
            );
        }
        // Predictions agree bit-for-bit: the reference entry point on the
        // reference-trained model, graph by graph, against the engine on
        // the engine-trained one, alone and as one batch.
        let refs: Vec<&TypedGraph> = samples.iter().take(6).map(|(g, _)| g).collect();
        let single: Vec<f64> =
            refs.iter().map(|g| reference.gnn().predict_reference(g).unwrap()).collect();
        let packed = engine.predict_graphs(&refs).unwrap();
        for ((g, x), y) in refs.iter().zip(&single).zip(&packed) {
            assert_eq!(x.to_bits(), y.to_bits(), "prediction diverged");
            assert_eq!(x.to_bits(), engine.predict_graph(g).unwrap().to_bits());
        }
    }
}

#[test]
fn training_is_thread_count_independent() {
    let a = tiny_corpus("ssb", 41);
    let b = tiny_corpus("airline", 42);
    let train_on = |threads: usize| {
        let mut model = new_model();
        let cfg = TrainOptions::new()
            .epochs(4)
            .batch_size(16)
            .threads(threads)
            .seed(99)
            .build()
            .expect("valid options");
        let losses = model.train(&[&a, &b], &cfg).expect("training succeeds");
        (losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(), model.param_checksum())
    };
    let reference = train_on(1);
    for threads in [2usize, 4] {
        assert_eq!(train_on(threads), reference, "training diverged at {threads} threads");
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
