//! Zone-map scan pruning: skip whole morsels that provably match nothing.
//!
//! Generated base tables carry per-block min/max summaries
//! ([`graceful_storage::Zone`], [`ZONE_ROWS`] rows per block). When a filter
//! runs directly over a scan's identity row ids, each morsel covers a
//! contiguous row range, so a conjunct that provably fails on every zone
//! overlapping that range empties the morsel without evaluating a single
//! row. Pruning is an **execution shortcut, not a semantics change**: the
//! filter's work is charged closed-form over the full input before any
//! morsel runs, and a pruned morsel contributes exactly the zero kept rows
//! it would have produced row by row — so every contracted `QueryRun` field
//! is bit-identical with pruning on or off (the differential suite proves
//! it; `ExecConfig::pruning` exists for that).
//!
//! The decision logic mirrors [`Pred::matches`] conservatively:
//! `Value::compare` widens both sides to `f64` (except Text/Text and
//! Bool/Bool, which order consistently with their widening), NULL on either
//! side never matches, and NaN comparisons are always false. A zone may
//! only be rejected when *no* row in it can match; any uncertainty — no
//! zones computed, text columns, stale block counts — falls back to row
//! evaluation.
//!
//! Every pruned morsel increments the registry counter
//! `scan.pruned_morsels`.

use graceful_obs::registry::{counter, Counter};
use graceful_plan::Pred;
use graceful_storage::{Column, Value, Zone, ZONE_ROWS};
use graceful_udf::ast::CmpOp;
use std::ops::Range;
use std::sync::OnceLock;

/// Registry counter for morsels skipped by zone pruning.
pub(crate) fn pruned_morsels_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| counter("scan.pruned_morsels"))
}

/// True when `pred`, whose column is `col`, provably matches no row of it in
/// `rows` (a contiguous base-table row range). `false` means "cannot prove
/// it" — the caller evaluates row by row.
pub(crate) fn pred_prunes_range(col: &Column, pred: &Pred, rows: Range<usize>) -> bool {
    if rows.is_empty() {
        return false;
    }
    let Some(zones) = col.zones() else { return false };
    // Zones exist only on numeric-ish columns (Int/Float/Bool and the
    // encoded int representations). Classify the literal the way
    // `Value::compare` will see it against such a column:
    let v = match &pred.value {
        // NULL literal: compare() is None for every row — nothing matches.
        Value::Null => return true,
        // Text literal vs numeric column: both sides widen via as_f64 and
        // Text has none — nothing matches.
        Value::Text(_) => return true,
        v => v.as_f64().expect("Int/Float/Bool literals widen"),
    };
    // NaN literal: partial_cmp is None for every row — nothing matches.
    if v.is_nan() {
        return true;
    }
    let first = rows.start / ZONE_ROWS;
    let last = (rows.end - 1) / ZONE_ROWS;
    // A stale zone vector (data mutated outside the sanctioned paths)
    // surfaces as an out-of-range block index; never prune on it.
    let Some(covering) = zones.get(first..=last) else { return false };
    covering.iter().all(|z| zone_rejects(z, pred.op, v))
}

/// True when no row summarized by `z` can satisfy `col OP v`.
fn zone_rejects(z: &Zone, op: CmpOp, v: f64) -> bool {
    // A block of only NULL/NaN rows matches nothing regardless of OP.
    if !z.any_matchable {
        return true;
    }
    // min/max summarize the matchable rows; NULL and NaN rows never match,
    // so they cannot weaken these bounds.
    match op {
        CmpOp::Lt => z.min >= v,
        CmpOp::Le => z.min > v,
        CmpOp::Gt => z.max <= v,
        CmpOp::Ge => z.max < v,
        CmpOp::Eq => v < z.min || v > z.max,
        // `!=` only fails everywhere when every matchable row equals v.
        CmpOp::Ne => z.min == v && z.max == v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::{ColumnData, Table};

    fn zoned_table(data: ColumnData, nulls: Vec<bool>) -> Table {
        let mut col = Column::with_nulls("x", data, nulls);
        col.compute_zones();
        Table::new("t", vec![col]).unwrap()
    }

    /// [`pred_prunes_range`] over the test tables' one column.
    fn prunes(t: &Table, p: &Pred, rows: Range<usize>) -> bool {
        pred_prunes_range(&t.columns()[0], p, rows)
    }

    fn pred(op: CmpOp, value: Value) -> Pred {
        Pred::new("t", "x", op, value)
    }

    /// Pruning ground truth: a range may be pruned only if no row matches.
    fn check_sound(t: &Table, p: &Pred, n: usize) {
        for (start, end) in [(0, n), (0, n.min(700)), (n / 2, n)] {
            if start >= end {
                continue;
            }
            if prunes(t, p, start..end) {
                for r in start..end {
                    assert!(!p.matches(t, r), "pruned range hides a match at row {r}: {p:?}");
                }
            }
        }
    }

    #[test]
    fn int_range_pruning_fires_and_is_sound() {
        let n = ZONE_ROWS * 2;
        let t = zoned_table(ColumnData::Int((0..n as i64).collect()), vec![false; n]);
        // All values in the first block are < ZONE_ROWS.
        assert!(prunes(&t, &pred(CmpOp::Ge, Value::Int(ZONE_ROWS as i64)), 0..100));
        assert!(!prunes(&t, &pred(CmpOp::Ge, Value::Int(50)), 0..100));
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            for lit in [-1i64, 0, 77, ZONE_ROWS as i64, (2 * ZONE_ROWS) as i64, i64::MAX] {
                check_sound(&t, &pred(op, Value::Int(lit)), n);
            }
        }
    }

    #[test]
    fn adversarial_literals_prune_everything_soundly() {
        let n = ZONE_ROWS;
        let t = zoned_table(ColumnData::Int((0..n as i64).collect()), vec![false; n]);
        for lit in [Value::Null, Value::Float(f64::NAN), Value::Text("0".into())] {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt] {
                let p = pred(op, lit.clone());
                assert!(prunes(&t, &p, 0..n), "{p:?} can never match");
                check_sound(&t, &p, n);
            }
        }
    }

    #[test]
    fn all_null_and_nan_blocks_are_unmatchable() {
        let n = ZONE_ROWS * 2;
        let mut vals = vec![1.0f64; n];
        for v in vals.iter_mut().take(ZONE_ROWS) {
            *v = f64::NAN;
        }
        let nulls: Vec<bool> = (0..n).map(|r| r >= ZONE_ROWS).collect();
        let t = zoned_table(ColumnData::Float(vals), nulls);
        // Block 0 is all NaN, block 1 all NULL: every predicate prunes.
        let p = pred(CmpOp::Ne, Value::Float(0.0));
        assert!(prunes(&t, &p, 0..n));
        check_sound(&t, &p, n);
    }

    #[test]
    fn i64_extremes_stay_sound() {
        let t = zoned_table(ColumnData::Int(vec![i64::MIN, -1, 1, i64::MAX]), vec![false; 4]);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            for lit in [i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX] {
                check_sound(&t, &pred(op, Value::Int(lit)), 4);
            }
        }
        // min == max == v: Ne prunes a constant block.
        let c = zoned_table(ColumnData::Int(vec![7; 100]), vec![false; 100]);
        assert!(prunes(&c, &pred(CmpOp::Ne, Value::Int(7)), 0..100));
        assert!(!prunes(&c, &pred(CmpOp::Eq, Value::Int(7)), 0..100));
    }

    #[test]
    fn no_zones_means_no_pruning() {
        // Text columns never carry zones; columns without compute_zones()
        // don't either.
        let t =
            Table::new("t", vec![Column::new("x", ColumnData::Text(vec!["a".into(), "b".into()]))])
                .unwrap();
        assert!(!prunes(&t, &pred(CmpOp::Eq, Value::Text("zz".into())), 0..2));
        let plain = Table::new("t", vec![Column::new("x", ColumnData::Int(vec![1, 2]))]).unwrap();
        assert!(!prunes(&plain, &pred(CmpOp::Gt, Value::Int(100)), 0..2));
    }
}
