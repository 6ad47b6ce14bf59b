//! Every label of the generated corpora, pinned bit for bit.
//!
//! One FNV-1a digest (the benchmark harness's `Digest` style) covers every
//! labelled query `build_all_corpora_in` emits at scale 0.05 with 8 queries
//! per database, for two corpus seeds: the runtime, the UDF's own work, the
//! rows that entered the UDF, every operator's actual cardinality and every
//! calibrated UDF-filter literal, all as bits. Query generation calibrates
//! its literals by evaluating each UDF and the executor labels by evaluating
//! it again, so a UDF evaluator that moves one value or one cost bit fails
//! here. The constant was recorded before the evaluators ran pruned
//! programs; the build must reproduce it on one thread and on two.

use graceful::prelude::*;

const DIGEST: u64 = 0x997d_3ddc_b00d_a348;

/// FNV-1a over little-endian words, as the benchmark harness digests labels.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn label_digest(threads: usize) -> u64 {
    let session = ExecOptions::new().threads(threads).build().expect("valid options");
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for seed in [20_250_331, 20_250_401] {
        let cfg =
            ScaleConfig { data_scale: 0.05, queries_per_db: 8, seed, ..ScaleConfig::default() };
        for corpus in build_all_corpora_in(&session, &cfg) {
            d.word(corpus.queries.len() as u64);
            for q in &corpus.queries {
                d.word(q.runtime_ns.to_bits());
                d.word(q.udf_work_ns.to_bits());
                d.word(q.udf_input_rows as u64);
                d.word(q.spec.udf_filter_literal.to_bits());
                q.plan.ops.iter().for_each(|op| d.word(op.actual_out_rows.to_bits()));
            }
        }
    }
    d.0
}

#[test]
fn every_label_keeps_its_bits_on_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(label_digest(threads), DIGEST, "{threads} threads: a label moved");
    }
}
