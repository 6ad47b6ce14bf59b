//! Data-plane properties: encoded columns and zone-map pruning are
//! execution shortcuts, never semantics changes.
//!
//! Two invariants guard the compressed, parallel data plane:
//!
//! * **Encoding transparency** — dictionary/RLE-encoded columns answer
//!   every query bit-identically to their plain decodings, through `run`
//!   and through `run_reference` (the typed-lane gather decodes straight
//!   from codes, so this is a real differential, not a no-op).
//! * **Pruning soundness** — the reference run never prunes, and every
//!   contracted `QueryRun` field of the pruned `run` matches it bit for
//!   bit, on generated corpus queries and on hand-built adversarial zones
//!   (NaN runs, `i64::MIN`/`i64::MAX` keys, all-NULL morsels,
//!   NULL/text/NaN literals).
//!
//! A third guards `ANALYZE`: counting on typed keys (one counter per
//! dictionary code, one add per RLE run) yields bit for bit the statistics
//! of the boxed per-row implementation it replaced, kept here as the oracle.

use graceful::exec::QueryRun;
use graceful::plan::{AggFunc, Plan, PlanOp, PlanOpKind, Pred};
use graceful::prelude::*;
use graceful::storage::{Column, ColumnData, ColumnStats, Histogram, Table, ZONE_ROWS};
use graceful::udf::ast::CmpOp;
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
/// (zones and statistics recomputed from the identical values).
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

/// `generate()` really produces encoded columns, and the encodings really
/// shrink the footprint — otherwise the differentials below are vacuous.
#[test]
fn generated_databases_actually_encode() {
    for name in ["tpc_h", "imdb", "airline"] {
        let db = generate(&schema(name), 0.3, 7);
        let mut encoded_cols = 0usize;
        let mut heap = 0usize;
        let mut plain = 0usize;
        for t in db.tables() {
            for c in t.columns() {
                heap += c.data.heap_bytes();
                plain += c.data.plain_bytes();
                if !matches!(
                    c.data,
                    ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Text(_)
                ) {
                    encoded_cols += 1;
                }
            }
        }
        assert!(encoded_cols > 0, "{name}: no column picked an encoding");
        assert!(heap < plain, "{name}: encodings must shrink the heap ({heap} vs {plain})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Dict/RLE-encoded columns are invisible to execution: generated
    /// queries answer bit-identically on the encoded database and on its
    /// plain decoding, through `run` and through `run_reference`.
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
            let enc = s.run_reference(&db, &plan, seed).expect("encoded reference run");
            let pln = s.run_reference(&plain_db, &plan, seed).expect("plain reference run");
            assert_runs_bit_identical(&enc, &pln, "encoded vs plain, reference");
        }
    }
}

/// Scan → single-predicate filter → COUNT(*) over `table`.
fn filter_count_plan(table: &str, pred: Pred) -> Plan {
    Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: table.into() }, vec![]),
            PlanOp::new(PlanOpKind::Filter { preds: vec![pred] }, vec![0]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
        ],
        root: 2,
    }
}

/// The pruning `run` is bit-identical to the never-pruning reference on
/// generated corpus queries, and the `scan.pruned_morsels` counter actually
/// fires on range scans over the generated data's sorted keys.
#[test]
fn pruning_is_invisible_and_fires_on_generated_corpus() {
    let before = graceful::obs::registry::snapshot().counter("scan.pruned_morsels");
    let mut db = generate(&schema("tpc_h"), 0.3, 3);
    let g = QueryGenerator::default();
    let mut compared = 0usize;
    for seed in 0..20u64 {
        let mut rng = Rng::seed(seed);
        let Ok(spec) = g.generate(&db, seed, &mut rng) else { continue };
        if let Some(u) = &spec.udf {
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                continue;
            }
        }
        for placement in graceful::plan::valid_placements(&spec) {
            let Ok(plan) = build_plan(&spec, placement) else { continue };
            let on = session(2).run(&db, &plan, seed);
            let off = session(2).run_reference(&db, &plan, seed);
            match (on, off) {
                (Ok(on), Ok(off)) => {
                    assert_runs_bit_identical(&on, &off, &format!("run vs reference: seed {seed}"));
                    compared += 1;
                }
                (Err(_), Err(_)) => {} // caps trip identically
                (on, off) => panic!("pruning changed the outcome: {on:?} vs {off:?}"),
            }
        }
    }
    assert!(compared >= 20, "only {compared} corpus differentials ran");

    // Range scans over the sorted serial key: whole zones reject, so the
    // pruned-morsel counter must move — and the answer must not.
    let orders = db.table("orders_t").expect("tpc_h table");
    assert!(orders.num_rows() > 2 * ZONE_ROWS, "need multiple zones to prune");
    for (op, v) in [(CmpOp::Lt, 64), (CmpOp::Ge, orders.num_rows() as i64 - 64), (CmpOp::Eq, 5)] {
        let pred = Pred::new("orders_t", "id", op, Value::Int(v));
        let expected = (0..orders.num_rows()).filter(|&r| pred.matches(orders, r)).count();
        let plan = filter_count_plan("orders_t", pred);
        let on = session(2).run(&db, &plan, 1).unwrap();
        let off = session(2).run_reference(&db, &plan, 1).unwrap();
        assert_runs_bit_identical(&on, &off, &format!("range scan {op:?} {v}"));
        assert_eq!(on.agg_value, expected as f64, "{op:?} {v}");
    }
    let after = graceful::obs::registry::snapshot().counter("scan.pruned_morsels");
    assert!(after > before, "zone pruning never fired on the generated corpus");
}

/// Hand-built adversarial zones: NaN runs, `i64::MIN`/`i64::MAX` keys,
/// all-NULL stretches, constant runs — probed with every comparison
/// operator and with NaN / extreme / NULL / text literals. The pruning
/// `run` stays bit-identical to the never-pruning reference run and
/// COUNT(*) matches a row-by-row count.
#[test]
fn pruning_handles_adversarial_zone_edges() {
    let n = 4 * ZONE_ROWS;
    // Float column: zone 1 is all NaN, zone 2 all NULL; extremes elsewhere.
    let x: Vec<f64> = (0..n)
        .map(|r| match r / ZONE_ROWS {
            1 => f64::NAN,
            _ if r % 997 == 0 => 1e300,
            _ if r % 991 == 0 => -1e300,
            _ => (r % 100) as f64,
        })
        .collect();
    let x_nulls: Vec<bool> = (0..n).map(|r| r / ZONE_ROWS == 2).collect();
    // Int column: i64 extremes inside zone 0, a constant run in zone 3.
    let k: Vec<i64> = (0..n)
        .map(|r| match r {
            10 => i64::MIN,
            20 => i64::MAX,
            _ if r / ZONE_ROWS == 3 => 7,
            _ => (r % 50) as i64 - 25,
        })
        .collect();
    // Fully NULL column (every zone all-NULL).
    let nul: Vec<f64> = vec![0.0; n];
    let mut cols = vec![
        Column::with_nulls("x", ColumnData::Float(x), x_nulls),
        Column::new("k", ColumnData::Int(k)),
        Column::with_nulls("n", ColumnData::Float(nul), vec![true; n]),
    ];
    for c in &mut cols {
        c.encode();
        c.compute_zones();
    }
    let table = Table::new("adv", cols).expect("valid table");
    let db = Database::new("advdb", vec![table]);
    let adv = db.table("adv").unwrap();

    let before = graceful::obs::registry::snapshot().counter("scan.pruned_morsels");
    let lits = [
        Value::Float(f64::NAN),
        Value::Float(1e300),
        Value::Float(-1e301),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(7),
        Value::Null,
        Value::Text("zzz".into()),
    ];
    for col in ["x", "k", "n"] {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            for lit in &lits {
                let pred = Pred::new("adv", col, op, lit.clone());
                let expected = (0..n).filter(|&r| pred.matches(adv, r)).count();
                let plan = filter_count_plan("adv", pred);
                for threads in [1usize, 2] {
                    let on = session(threads).run(&db, &plan, 1);
                    let off = session(threads).run_reference(&db, &plan, 1);
                    let what = format!("{col} {op:?} {lit:?} x {threads}");
                    match (on, off) {
                        (Ok(on), Ok(off)) => {
                            assert_runs_bit_identical(&on, &off, &what);
                            assert_eq!(on.agg_value, expected as f64, "{what}: wrong count");
                        }
                        // The plan verifier rejects never-comparable
                        // literals (NULL, text vs numeric) up front —
                        // identically for both entry points.
                        (Err(a), Err(b)) => {
                            assert_eq!(a.to_string(), b.to_string(), "{what}: errors differ")
                        }
                        (on, off) => {
                            panic!("{what}: pruning changed the outcome: {on:?} vs {off:?}")
                        }
                    }
                }
            }
        }
    }
    let after = graceful::obs::registry::snapshot().counter("scan.pruned_morsels");
    assert!(after > before, "adversarial preds never pruned a morsel");
}

/// `ANALYZE` as it was before counting moved to typed keys: one `String`
/// hash key and one boxed `Value` per non-NULL row through the decoding
/// accessors, every numeric row sorted for the histogram. Kept as the oracle
/// for `ColumnStats::compute`. One line differs from the old code: equal
/// frequencies tie-break on the typed key (as the shipped code does) because
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
    let non_null = counts.values().map(|(_, c)| *c).sum::<usize>().max(1);
    let ndv = counts.len();
    let mut freq: Vec<(Value, f64)> =
        counts.into_values().map(|(v, c)| (v, c as f64 / non_null as f64)).collect();
    freq.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).expect("finite freq").then_with(|| match (&a.0, &b.0) {
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
            (Value::Text(x), Value::Text(y)) => x.cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            other => unreachable!("one column, one type: {other:?}"),
        })
    });
    freq.truncate(graceful::storage::stats::MCV_ENTRIES);
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
        histogram: Histogram::build(numeric),
        mcv: freq,
        avg_text_len: if text_count > 0 { text_len_sum / text_count as f64 } else { 0.0 },
    }
}

/// Field-by-field, floats by bit pattern (`Debug` would print every NaN
/// payload alike; the histogram holds finite bounds only, where `Debug` is
/// lossless and tells -0.0 from 0.0).
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
    assert_eq!(format!("{:?}", got.histogram), format!("{:?}", want.histogram), "{what}");
    let bits = |mcv: &[(Value, f64)]| -> Vec<(String, u64)> {
        mcv.iter()
            .map(|(v, f)| match v {
                Value::Float(x) => (format!("f{:016x}", x.to_bits()), f.to_bits()),
                other => (format!("{other:?}"), f.to_bits()),
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
/// schemas — as generated (dictionary/RLE-encoded where that pays), decoded
/// and re-encoded.
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
    assert!(kinds.len() >= 5, "the schemas should cover plain, dictionary and RLE columns");
}

/// Hand-built columns aimed at every place the typed and the boxed count
/// could part ways: NULL runs, all-NULL, empty, NaN payloads of both signs,
/// ±0.0 interleaved, ±inf, `i64::MIN`/`MAX` (equal as `f64` to their
/// neighbours), dictionaries carrying a duplicate and an unused entry,
/// single-run RLE, an RLE run that is NULL throughout, frequency ties.
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
        Column::with_nulls("ints", ColumnData::Int(ints.clone()), null_run.clone()),
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
                codes: (0..n as u32).map(|r| r % 4).collect(),
                dict: vec![5, i64::MAX, 5, -1, 77],
            },
            every(5),
        ),
        Column::with_nulls(
            "dict_text_dup",
            ColumnData::DictText {
                codes: (0..n as u32).map(|r| r % 3).collect(),
                dict: vec!["x".into(), "yy".into(), "x".into(), "unused".into()],
            },
            every(2),
        ),
        Column::with_nulls(
            "rle_single_run",
            ColumnData::RleInt { starts: vec![0], values: vec![42], len: n },
            null_run.clone(),
        ),
        Column::with_nulls(
            "rle_null_run",
            ColumnData::RleInt {
                starts: vec![0, 100, 400, 401],
                values: vec![9, i64::MIN, 9, i64::MAX],
                len: n,
            },
            null_run,
        ),
    ];
    for c in &columns {
        assert_analyze_matches_oracle(c, &c.name);
    }
}
