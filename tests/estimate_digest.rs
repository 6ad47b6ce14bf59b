//! Every estimate of the four cardinality estimators, pinned bit for bit.
//!
//! One FNV-1a digest per [`EstimatorKind`] (the style of `label_digest.rs`)
//! covers the generated corpora at scale 0.05 with 8 queries per database.
//! It takes every operator's `est_out_rows` after `annotate` and every
//! feature of the graph `Featurizer::full().featurize` emits from that plan,
//! which reads the estimator's `conjunction_selectivity` through the UDF's
//! branch hit ratios. An estimator that counts one row differently from the
//! executor's filter, or draws its sample in another order, fails here, and
//! the message names it.

use graceful::prelude::*;

const DIGESTS: [(EstimatorKind, u64); 4] = [
    (EstimatorKind::Actual, 0xd897_b4c6_cf7d_dd85),
    (EstimatorKind::DataDriven, 0x1f48_b3c4_fa5e_172f),
    (EstimatorKind::Sampling, 0xbaea_2a5d_865f_3205),
    (EstimatorKind::Naive, 0x2f6e_9226_d23b_be68),
];

/// FNV-1a over little-endian words, as the benchmark harness digests labels.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn every_estimate_and_feature_keeps_its_bits() {
    let session = ExecOptions::new().threads(1).build().expect("valid options");
    let cfg = ScaleConfig {
        data_scale: 0.05,
        queries_per_db: 8,
        seed: 20_250_331,
        ..ScaleConfig::default()
    };
    let featurizer = Featurizer::full();
    let corpora = build_all_corpora_in(&session, &cfg);
    let mut moved = Vec::new();
    for (kind, want) in DIGESTS {
        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        let (mut annotated, mut featurized) = (0, 0);
        for corpus in &corpora {
            let est = kind.build(&corpus.db, cfg.seed);
            d.word(corpus.queries.len() as u64);
            for q in &corpus.queries {
                let mut plan = q.plan.clone();
                if est.annotate(&mut plan).is_err() {
                    d.word(u64::MAX);
                    continue;
                }
                annotated += 1;
                plan.ops.iter().for_each(|op| d.word(op.est_out_rows.to_bits()));
                let Ok(graph) = featurizer.featurize(&corpus.db, &q.spec, &plan, est.as_ref())
                else {
                    d.word(u64::MAX - 1);
                    continue;
                };
                featurized += 1;
                d.word(graph.features.len() as u64);
                for x in graph.features.iter().flatten() {
                    d.word(u64::from(x.to_bits()));
                }
            }
        }
        assert_eq!((annotated, featurized), (160, 160), "{kind:?}: every query annotates");
        if d.0 != want {
            moved.push(format!("{kind:?}: {:#x}", d.0));
        }
    }
    assert!(moved.is_empty(), "an estimate or a feature moved: {moved:?}");
}
