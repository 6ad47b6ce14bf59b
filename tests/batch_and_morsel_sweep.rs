//! UDF batch size and morsel size change no label.
//!
//! Both are execution settings, not knobs: `ExecOptions::udf_batch_size`
//! cuts the rows of one evaluator call, `ExecOptions::morsel_rows` the rows
//! of one parallel task of every operator (filter, UDF, probe, aggregate).
//! This sweep labels the generated corpora at scale 0.05 under every pair of
//! a grid through those setters — from one-row batches and 64-row morsels,
//! where every kernel sees many morsel boundaries, up to sizes above any
//! table — and holds each to the default session's labels, bit for bit.

use graceful::prelude::*;

/// FNV-1a over little-endian words, as the benchmark harness digests labels.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every label `build_all_corpora_in` emits on `session`: the runtime, the
/// UDF's own work, the rows that entered it, the calibrated literal and
/// every operator's actual cardinality, as bits.
fn label_digest(session: &Session) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let cfg = ScaleConfig { data_scale: 0.05, queries_per_db: 8, ..ScaleConfig::default() };
    for corpus in build_all_corpora_in(session, &cfg) {
        d.word(corpus.queries.len() as u64);
        for q in &corpus.queries {
            d.word(q.runtime_ns.to_bits());
            d.word(q.udf_work_ns.to_bits());
            d.word(q.udf_input_rows as u64);
            d.word(q.spec.udf_filter_literal.to_bits());
            q.plan.ops.iter().for_each(|op| d.word(op.actual_out_rows.to_bits()));
        }
    }
    d.0
}

#[test]
fn every_batch_and_morsel_size_labels_like_the_default_session() {
    let default = label_digest(&ExecOptions::new().threads(2).build().expect("valid options"));
    for batch in [1, 257, 1024, 1 << 20] {
        for morsel in [64, 2048, 1 << 20] {
            let session = ExecOptions::new()
                .threads(2)
                .udf_batch_size(batch)
                .morsel_rows(morsel)
                .build()
                .expect("valid options");
            assert_eq!(label_digest(&session), default, "batch {batch}, morsel {morsel}");
        }
    }
}
