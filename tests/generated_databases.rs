//! Every generated database, pinned bit for bit.
//!
//! One FNV-1a digest covers every database the generators can emit at the
//! sizes the suites and the benchmark use: all 20 schemas at scales 0.05 and
//! 0.25, and the three tier-L schemas (tpc_h, imdb, ssb) at 1.0. It reads
//! each column's representation, dictionary, codes or value bits and null
//! mask, the primary and foreign keys, and every `ColumnStats` field, so a
//! change to how generation is scheduled or encoded that moves one bit of
//! one database fails here. The constant was recorded before generation ran
//! columns as independent jobs; `generate_in` must reproduce it on any pool.

use graceful::prelude::*;
use graceful::storage::datagen::generate_in;
use graceful::storage::{ColumnData, ColumnStats};

const DIGEST: u64 = 0xdf11_11dc_5bf2_2601;

/// FNV-1a over little-endian words, as the benchmark harness digests labels.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.word(0),
            Value::Int(x) => self.words(&[1, *x as u64]),
            Value::Float(x) => self.words(&[2, x.to_bits()]),
            Value::Text(s) => {
                self.word(3);
                self.text(s);
            }
            Value::Bool(b) => self.words(&[4, u64::from(*b)]),
        }
    }

    fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }

    fn data(&mut self, data: &ColumnData) {
        self.word(data.len() as u64);
        match data {
            ColumnData::Int(v) => {
                self.word(0);
                v.iter().for_each(|&x| self.word(x as u64));
            }
            ColumnData::Float(v) => {
                self.word(1);
                v.iter().for_each(|x| self.word(x.to_bits()));
            }
            ColumnData::Text(v) => {
                self.word(2);
                v.iter().for_each(|s| self.text(s));
            }
            ColumnData::Bool(v) => {
                self.word(3);
                v.iter().for_each(|&b| self.word(u64::from(b)));
            }
            ColumnData::DictInt { codes, dict } => {
                self.words(&[4, dict.len() as u64]);
                dict.iter().for_each(|&x| self.word(x as u64));
                codes.iter().for_each(|&c| self.word(u64::from(c)));
            }
            ColumnData::DictText { codes, dict } => {
                self.words(&[5, dict.len() as u64]);
                dict.iter().for_each(|s| self.text(s));
                codes.iter().for_each(|&c| self.word(u64::from(c)));
            }
        }
    }

    fn stats(&mut self, s: &ColumnStats) {
        self.text(&s.name);
        self.text(&format!("{:?}", s.data_type));
        self.word(s.num_rows as u64);
        self.word(s.null_fraction.to_bits());
        self.word(s.ndv as u64);
        self.word(s.min.to_bits());
        self.word(s.max.to_bits());
        // `{:?}` prints each bound in the shortest form that parses back to
        // the same bits.
        self.text(&format!("{:?}", s.histogram));
        self.word(s.mcv.len() as u64);
        for (v, freq) in &s.mcv {
            self.value(v);
            self.word(freq.to_bits());
        }
        self.word(s.avg_text_len.to_bits());
    }

    fn database(&mut self, db: &Database) {
        self.text(&db.name);
        for table in db.tables() {
            self.text(&table.name);
            self.word(table.primary_key.map_or(u64::MAX, |k| k as u64));
            for fk in &table.foreign_keys {
                self.text(&fk.column);
                self.text(&fk.ref_table);
                self.text(&fk.ref_column);
            }
            let stats = db.stats(&table.name).expect("every table has stats");
            self.word(stats.num_rows as u64);
            assert_eq!(stats.columns().len(), table.num_columns());
            for (column, st) in table.columns().iter().zip(stats.columns()) {
                self.text(&column.name);
                self.data(&column.data);
                column.nulls.iter().for_each(|&n| self.word(u64::from(n)));
                self.stats(st);
            }
        }
    }
}

/// `(schema, scale, seed)` of every database the digest covers.
fn cases() -> Vec<(&'static str, f64, u64)> {
    let mut cases = Vec::new();
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        cases.push((*name, 0.05, 7 + i as u64));
        cases.push((*name, 0.25, 40 + i as u64));
    }
    for (i, name) in ["tpc_h", "imdb", "ssb"].into_iter().enumerate() {
        cases.push((name, 1.0, 100 + i as u64));
    }
    cases
}

fn digest_of(generate: impl Fn(&str, f64, u64) -> Database) -> u64 {
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    for (name, scale, seed) in cases() {
        digest.database(&generate(name, scale, seed));
    }
    digest.0
}

#[test]
fn every_generated_database_keeps_its_bits() {
    let serial = digest_of(|name, scale, seed| generate(&schema(name), scale, seed));
    assert_eq!(serial, DIGEST, "digest {serial:#018x}");
    for threads in [1, 2, 4] {
        let pool = Pool::new(threads);
        let pooled = digest_of(|name, scale, seed| generate_in(&schema(name), scale, seed, &pool));
        assert_eq!(pooled, DIGEST, "generate_in on {threads} threads: digest {pooled:#018x}");
    }
}

/// A NULL-free column holds no mask: of the columns the digest covers, only
/// those with a NULL carry one.
#[test]
fn a_column_holds_a_mask_exactly_when_it_holds_a_null() {
    let mut masked = 0;
    for (name, scale, seed) in cases() {
        let db = generate(&schema(name), scale, seed);
        for table in db.tables() {
            for column in table.columns() {
                let has_null = column.nulls.iter().any(|&null| null);
                let held = column.nulls.as_slice().is_some();
                assert_eq!(held, has_null, "{name} at {scale}: {}.{}", table.name, column.name);
                masked += usize::from(has_null);
            }
        }
    }
    assert!(masked > 0, "the cases hold NULLs too");
}
