//! Every trained bit of the three GNNs in core, pinned.
//!
//! At a tiny tier (scale 0.02, 12 queries per database, two training
//! corpora, 3 epochs, hidden width 8) one FNV-1a digest covers
//! `GracefulModel::train`'s per-epoch losses and parameter checksum, and
//! another every prediction of the two split baselines (Flat+Graph, whose
//! GBDT and query-side GNN it exercises, and Graph+Graph, whose UDF-side
//! and query-side GNNs it exercises) over a held-out corpus under actual
//! cardinalities. The constants were recorded before the training loop was
//! written once; GRACEFUL must reproduce its digest on one thread and on two.

use graceful::core_model::baselines::{FlatGraphBaseline, GraphGraphBaseline};
use graceful::prelude::*;

const GRACEFUL_DIGEST: u64 = 0x4dd9_9c5c_58f9_01f2;
const BASELINES_DIGEST: u64 = 0xbcce_1122_cabd_4151;

/// FNV-1a over little-endian words, as the benchmark harness digests labels.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn tiny_corpus(name: &str, seed: u64) -> DatasetCorpus {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 12, ..ScaleConfig::default() };
    let session = ExecOptions::new().threads(1).build().expect("valid options");
    build_corpus_in(&session, name, &cfg, seed).expect("corpus builds")
}

fn graceful_digest(train: &[&DatasetCorpus], threads: usize) -> u64 {
    let mut model = GracefulModel::new(Featurizer::full(), 8, 7).expect("valid architecture");
    let cfg = TrainOptions::new().epochs(3).seed(11).threads(threads).build().expect("valid");
    let losses = model.train(train, &cfg).expect("GRACEFUL trains");
    let mut d = Digest::new();
    d.word(losses.len() as u64);
    losses.iter().for_each(|l| d.word(u64::from(l.to_bits())));
    d.word(model.param_checksum());
    d.0
}

#[test]
fn every_trained_bit_keeps_its_value() {
    let (a, b) = (tiny_corpus("tpc_h", 31), tiny_corpus("imdb", 32));
    let held_out = tiny_corpus("ssb", 33);
    let train = [&a, &b];
    for threads in [1, 2] {
        assert_eq!(
            graceful_digest(&train, threads),
            GRACEFUL_DIGEST,
            "{threads} threads: GRACEFUL's training moved"
        );
    }

    let flat = FlatGraphBaseline::train(&train, 3, 8, 5).expect("Flat+Graph trains");
    let gg = GraphGraphBaseline::train(&train, 3, 8, 6).expect("Graph+Graph trains");
    let est = ActualCard::new(&held_out.db);
    let mut d = Digest::new();
    for q in &held_out.queries {
        let mut plan = q.plan.clone();
        est.annotate(&mut plan).expect("annotates");
        let spec = &q.spec;
        d.word(flat.predict(&held_out.db, spec, &plan, &est).expect("predicts").to_bits());
        d.word(gg.predict(&held_out.db, spec, &plan, &est).expect("predicts").to_bits());
    }
    assert_eq!(d.0, BASELINES_DIGEST, "a baseline's prediction moved");
}
