//! Data-plane properties: an encoded column is a physical choice, never a
//! semantics change.
//!
//! * **Encoding transparency** — dictionary-encoded columns answer every
//!   query bit-identically to their plain decodings, through `run` and
//!   through `run_reference` (the typed-lane gather decodes straight from
//!   codes, so this is a real differential, not a no-op), and the generator
//!   really produces such columns and queries that read them.
//! * **`ANALYZE`** — counting on typed keys (one counter per dictionary
//!   code) yields bit for bit the statistics of the boxed per-row
//!   implementation it replaced, kept here as the oracle.

use graceful::exec::QueryRun;
use graceful::plan::PlanOpKind;
use graceful::prelude::*;
use graceful::storage::{Column, ColumnData, ColumnStats};
use graceful::udf::generator::apply_adaptations;
use proptest::prelude::*;

fn assert_runs_bit_identical(a: &QueryRun, b: &QueryRun, what: &str) {
    assert_eq!(
        a.runtime_ns.to_bits(),
        b.runtime_ns.to_bits(),
        "{what}: runtimes differ: {} vs {}",
        a.runtime_ns,
        b.runtime_ns
    );
    assert_eq!(a.agg_value.to_bits(), b.agg_value.to_bits(), "{what}: answers differ");
    assert_eq!(a.out_rows, b.out_rows, "{what}: cardinalities differ");
    assert_eq!(a.udf_input_rows, b.udf_input_rows, "{what}: UDF input rows differ");
    assert_eq!(a.op_work.len(), b.op_work.len());
    for (x, y) in a.op_work.iter().zip(b.op_work.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: op_work differs: {x} vs {y}");
    }
}

fn session(threads: usize) -> Session {
    ExecOptions::new()
        .udf_batch_size(37)
        .threads(threads)
        .morsel_rows(64)
        .build()
        .expect("valid options")
}

/// A copy of `db` with every column decoded to its plain representation
/// (statistics recomputed from the identical values).
fn decoded(db: &Database) -> Database {
    let mut plain = db.clone();
    let names: Vec<String> = db.tables().iter().map(|t| t.name.clone()).collect();
    for name in names {
        plain
            .update_table(&name, |t| {
                for c in t.columns_mut() {
                    c.data = c.data.to_plain();
                }
                Ok(())
            })
            .expect("table exists");
    }
    plain
}

/// The encodings have traffic, or the differentials below are vacuous: the
/// tier-S database set (every schema at scale 0.25) holds dictionary columns
/// of both kinds, they shrink the heap, and generated queries read them —
/// through filter predicates and UDF arguments.
#[test]
fn generated_databases_actually_encode() {
    let (mut dict_int, mut dict_text, mut heap, mut plain) = (0usize, 0usize, 0usize, 0usize);
    let (mut read_dict_int, mut read_dict_text) = (0usize, 0usize);
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        let db = generate(&schema(name), 0.25, 7 + i as u64);
        for c in db.tables().iter().flat_map(|t| t.columns()) {
            heap += c.data.heap_bytes();
            plain += c.data.plain_bytes();
            dict_int += usize::from(matches!(c.data, ColumnData::DictInt { .. }));
            dict_text += usize::from(matches!(c.data, ColumnData::DictText { .. }));
        }
        let g = QueryGenerator::default();
        for seed in 0..10u64 {
            let Ok(spec) = g.generate(&db, seed, &mut Rng::seed(seed)) else { continue };
            let Ok(plan) = build_plan(&spec, UdfPlacement::PushDown) else { continue };
            let mut reads: Vec<(&str, &str)> = Vec::new();
            for op in &plan.ops {
                match &op.kind {
                    PlanOpKind::Filter { preds } => {
                        reads.extend(preds.iter().map(|p| (&*p.col.table, &*p.col.column)))
                    }
                    PlanOpKind::UdfFilter { udf, .. } | PlanOpKind::UdfProject { udf } => {
                        reads.extend(udf.input_columns.iter().map(|c| (&*udf.table, &**c)))
                    }
                    _ => {}
                }
            }
            for (table, column) in reads {
                let data = &db.table(table).unwrap().column(column).unwrap().data;
                read_dict_int += usize::from(matches!(data, ColumnData::DictInt { .. }));
                read_dict_text += usize::from(matches!(data, ColumnData::DictText { .. }));
            }
        }
    }
    assert!(dict_int > 0 && dict_text > 0, "{dict_int} DictInt, {dict_text} DictText columns");
    assert!(heap < plain, "encodings must shrink the heap ({heap} vs {plain})");
    assert!(
        read_dict_int > 0 && read_dict_text > 0,
        "generated queries read {read_dict_int} DictInt and {read_dict_text} DictText columns"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Dictionary-encoded columns are invisible to execution: generated
    /// queries answer bit-identically on the encoded database and on its
    /// plain decoding, through `run` and through `run_reference` — which
    /// agree with each other on both.
    #[test]
    fn encoded_columns_run_bit_identical_to_plain(seed in 0u64..5_000) {
        let mut db = generate(&schema("tpc_h"), 0.05, 11);
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(seed);
        let spec = match g.generate(&db, seed, &mut rng) {
            Ok(s) => s,
            Err(_) => return Ok(()), // rejected draw
        };
        if let Some(u) = &spec.udf {
            prop_assume!(apply_adaptations(&mut db, &u.adaptations).is_ok());
        }
        let plain_db = decoded(&db);
        for placement in graceful::plan::valid_placements(&spec) {
            let plan = match build_plan(&spec, placement) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let s = session(2);
            let enc = match s.run(&db, &plan, seed) {
                Ok(r) => r,
                Err(_) => continue, // cap trips identically on both
            };
            let pln = s.run(&plain_db, &plan, seed).expect("plain run succeeds");
            assert_runs_bit_identical(&enc, &pln, "encoded vs plain");
            let enc_ref = s.run_reference(&db, &plan, seed).expect("encoded reference run");
            let pln = s.run_reference(&plain_db, &plan, seed).expect("plain reference run");
            assert_runs_bit_identical(&enc_ref, &pln, "encoded vs plain, reference");
            assert_runs_bit_identical(&enc, &enc_ref, "run vs reference");
        }
    }
}

/// `ANALYZE` as it was before counting moved to typed keys: one `String`
/// hash key and one boxed `Value` per non-NULL row through the decoding
/// accessors, min and max folded over every numeric row in row order. Kept as
/// the oracle for `ColumnStats::compute`. One line differs from the old code:
/// equal counts tie-break on the typed key (as the shipped code does) because
/// the old `Value::compare` tie-break fell through to hash-map order on keys
/// it cannot tell apart (`i64`s beyond 2^53, NaN payloads, ±0.0).
fn analyze_oracle(column: &Column) -> ColumnStats {
    use std::collections::HashMap;
    let mut numeric: Vec<f64> = Vec::new();
    let (mut text_len_sum, mut text_count) = (0.0, 0usize);
    let mut counts: HashMap<String, (Value, usize)> = HashMap::new();
    for row in (0..column.len()).filter(|&r| !column.is_null(r)) {
        let (key, value) = match &column.data {
            ColumnData::Float(v) => {
                numeric.push(v[row]);
                (v[row].to_bits().to_string(), Value::Float(v[row]))
            }
            ColumnData::Bool(v) => {
                numeric.push(v[row] as u8 as f64);
                (v[row].to_string(), Value::Bool(v[row]))
            }
            data => match data.str_at(row) {
                Some(s) => {
                    text_len_sum += s.len() as f64;
                    text_count += 1;
                    (s.to_string(), Value::Text(s.to_string()))
                }
                None => {
                    let x = data.int_at(row).expect("int representation");
                    numeric.push(x as f64);
                    (x.to_string(), Value::Int(x))
                }
            },
        };
        counts.entry(key).or_insert((value, 0)).1 += 1;
    }
    let ndv = counts.len();
    let mut by_count: Vec<(Value, usize)> = counts.into_values().collect();
    by_count.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| match (&a.0, &b.0) {
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
            (Value::Text(x), Value::Text(y)) => x.cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            other => unreachable!("one column, one type: {other:?}"),
        })
    });
    by_count.truncate(graceful::storage::stats::MCV_ENTRIES);
    let (min, max) = numeric
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    ColumnStats {
        name: column.name.clone(),
        data_type: column.data_type(),
        num_rows: column.len(),
        null_fraction: column.null_fraction(),
        ndv,
        min: if min.is_finite() { min } else { 0.0 },
        max: if max.is_finite() { max } else { 0.0 },
        mcv: by_count.into_iter().map(|(v, _)| v).collect(),
        avg_text_len: if text_count > 0 { text_len_sum / text_count as f64 } else { 0.0 },
    }
}

/// Field-by-field, floats by bit pattern (`Debug` would print every NaN
/// payload alike).
fn assert_stats_bit_identical(got: &ColumnStats, want: &ColumnStats, what: &str) {
    assert_eq!(got.name, want.name, "{what}");
    assert_eq!(got.data_type, want.data_type, "{what}");
    assert_eq!((got.num_rows, got.ndv), (want.num_rows, want.ndv), "{what}: rows/ndv");
    for (g, w, field) in [
        (got.null_fraction, want.null_fraction, "null_fraction"),
        (got.min, want.min, "min"),
        (got.max, want.max, "max"),
        (got.avg_text_len, want.avg_text_len, "avg_text_len"),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {field} {g} vs {w}");
    }
    let bits = |mcv: &[Value]| -> Vec<String> {
        mcv.iter()
            .map(|v| match v {
                Value::Float(x) => format!("f{:016x}", x.to_bits()),
                other => format!("{other:?}"),
            })
            .collect()
    };
    assert_eq!(bits(&got.mcv), bits(&want.mcv), "{what}: mcv");
}

/// `compute` on the column as built, on its `encoded()` form and on its
/// plain decoding all equal the oracle.
fn assert_analyze_matches_oracle(column: &Column, what: &str) {
    let want = analyze_oracle(column);
    assert_stats_bit_identical(&ColumnStats::compute(column), &want, what);
    let mut other = column.clone();
    other.data = column.data.to_plain();
    assert_stats_bit_identical(&ColumnStats::compute(&other), &want, &format!("{what} (plain)"));
    other.encode();
    assert_stats_bit_identical(&ColumnStats::compute(&other), &want, &format!("{what} (encoded)"));
}

/// Typed `ANALYZE` equals the boxed oracle on every column of all 20
/// schemas — as generated (dictionary-encoded where that pays), decoded and
/// re-encoded.
#[test]
fn typed_analyze_matches_the_boxed_oracle_on_every_schema() {
    let mut kinds = std::collections::HashSet::new();
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        let db = generate(&schema(name), 0.25, 40 + i as u64);
        for t in db.tables() {
            for c in t.columns() {
                kinds.insert(std::mem::discriminant(&c.data));
                assert_analyze_matches_oracle(c, &format!("{name}.{}.{}", t.name, c.name));
            }
        }
    }
    assert!(kinds.len() >= 5, "the schemas should cover plain and dictionary columns");
}

/// Hand-built columns aimed at every place the typed and the boxed count
/// could part ways: NULL runs, all-NULL, empty, NaN payloads of both signs,
/// ±0.0 interleaved, ±inf, `i64::MIN`/`MAX` (equal as `f64` to their
/// neighbours), dictionaries carrying a duplicate and an unused entry,
/// frequency ties.
#[test]
fn typed_analyze_matches_the_boxed_oracle_on_adversarial_columns() {
    let n = 600;
    let every = |k: usize| (0..n).map(|r| r % k == 0).collect::<Vec<bool>>();
    let floats: Vec<f64> = (0..n)
        .map(|r| match r % 10 {
            0 => f64::NAN,
            1 => f64::from_bits(0x7ff8_0000_0000_0001),
            2 => -f64::NAN,
            3 => 0.0,
            4 => -0.0,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => 1e300,
            _ => (r % 7) as f64 - 3.0,
        })
        .collect();
    let zeros: Vec<f64> = (0..n).map(|r| if r % 3 == 0 { 0.0 } else { -0.0 }).collect();
    let ints: Vec<i64> = (0..n)
        .map(|r| match r % 6 {
            0 => i64::MAX,
            1 => i64::MAX - 1,
            2 => i64::MIN,
            3 => i64::MIN + 1,
            _ => (r % 5) as i64,
        })
        .collect();
    let texts: Vec<String> = (0..n).map(|r| ["", "a", "ab", "b", ""][r % 5].to_string()).collect();
    let null_run: Vec<bool> = (0..n).map(|r| (100..400).contains(&r)).collect();
    let columns = [
        Column::with_nulls("floats", ColumnData::Float(floats), every(7)),
        Column::new("zeros", ColumnData::Float(zeros)),
        Column::with_nulls("only_nan", ColumnData::Float(vec![f64::NAN; 9]), vec![false; 9]),
        Column::with_nulls("ints", ColumnData::Int(ints.clone()), null_run),
        Column::new("ints_no_nulls", ColumnData::Int(ints)),
        Column::with_nulls("all_null_int", ColumnData::Int(vec![3; n]), vec![true; n]),
        Column::with_nulls("all_null_text", ColumnData::Text(texts.clone()), vec![true; n]),
        Column::new("empty_int", ColumnData::Int(vec![])),
        Column::new("empty_float", ColumnData::Float(vec![])),
        Column::new("empty_text", ColumnData::Text(vec![])),
        Column::new("one_row", ColumnData::Int(vec![-7])),
        Column::with_nulls("texts", ColumnData::Text(texts), every(11)),
        Column::with_nulls(
            "bools",
            ColumnData::Bool((0..n).map(|r| r % 3 == 0).collect()),
            every(4),
        ),
        Column::with_nulls(
            "dict_int_dup",
            ColumnData::DictInt {
                codes: (0..n as u16).map(|r| r % 4).collect(),
                dict: vec![5, i64::MAX, 5, -1, 77],
            },
            every(5),
        ),
        Column::with_nulls(
            "dict_text_dup",
            ColumnData::DictText {
                codes: (0..n as u16).map(|r| r % 3).collect(),
                dict: vec!["x".into(), "yy".into(), "x".into(), "unused".into()],
            },
            every(2),
        ),
    ];
    for c in &columns {
        assert_analyze_matches_oracle(c, &c.name);
    }
}
