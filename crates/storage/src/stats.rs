//! Per-column statistics: the raw material of cardinality estimation.
//!
//! A real DBMS computes these during `ANALYZE`. We keep exactly the
//! statistics that something reads:
//!
//! * **NDV** — `NaiveCard`'s 1/NDV equality selectivity and join formula,
//!   `DataDrivenCard`'s non-FK join fallback, and the featurizer;
//! * **null fraction** — `NaiveCard`, the featurizer and the UDF generator
//!   (which replaces the NULLs of a nullable input);
//! * **min / max** — `NaiveCard`'s uniform range selectivity, the
//!   featurizer, the UDF generator's numeric parameters and NULL defaults,
//!   and the query generator's range predicates;
//! * **most-common values**, most common first — the query generator's text
//!   equality literals;
//! * **row count and average text length** — the featurizer.
//!
//! No estimator or generator reads a histogram or a value frequency: the
//! weakest rung of the paper's ladder (the DuckDB optimizer) assumes
//! uniformity between min and max, 1/NDV and independence, and the stronger
//! rungs read the data.

use crate::column::{Column, ColumnData};
use crate::table::Table;
use crate::types::{DataType, Value};
use graceful_common::{GracefulError, Result};
use std::cmp::Ordering;

/// Number of most-common values tracked per column.
pub const MCV_ENTRIES: usize = 16;

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub name: String,
    pub data_type: DataType,
    pub num_rows: usize,
    pub null_fraction: f64,
    /// Number of distinct non-NULL values.
    pub ndv: usize,
    /// Numeric min/max (0.0 for text columns; check `data_type`).
    pub min: f64,
    pub max: f64,
    /// Up to [`MCV_ENTRIES`] most common non-NULL values, most common first;
    /// equal counts in ascending typed-key order.
    pub mcv: Vec<Value>,
    /// Mean string length for Text columns (0 otherwise).
    pub avg_text_len: f64,
}

impl ColumnStats {
    /// Compute statistics from column data (`ANALYZE`).
    ///
    /// Counting runs on the native key of each representation — no per-row
    /// `String`, no per-row [`Value`]: plain vectors contribute one `(key, 1)`
    /// per non-NULL row, dictionaries one counter per code; `tally` sorts
    /// and coalesces them. Statistics are identical on every representation
    /// of the same values.
    pub fn compute(column: &Column) -> Self {
        let nulls = column.nulls.as_slice();
        let int_stats = |t: Vec<(i64, usize)>| {
            Self::assemble(column, &t, Value::Int, sorted_range(&t, |k| k as f64))
        };
        let text_stats = |t: Vec<(&str, usize)>| {
            let (chars, rows) =
                t.iter().fold((0, 0), |(c, n), &(s, rows)| (c + s.len() * rows, n + rows));
            ColumnStats {
                avg_text_len: if rows > 0 { chars as f64 / rows as f64 } else { 0.0 },
                ..Self::assemble(column, &t, |s| Value::Text(s.to_string()), (0.0, 0.0))
            }
        };
        match &column.data {
            ColumnData::Int(v) => int_stats(tally(plain_rows(v.iter().copied(), nulls), Ord::cmp)),
            ColumnData::DictInt { codes, dict } => {
                int_stats(tally(dict_rows(codes, nulls, dict.iter().copied()), Ord::cmp))
            }
            ColumnData::Bool(v) => {
                let t = tally(plain_rows(v.iter().copied(), nulls), Ord::cmp);
                Self::assemble(column, &t, Value::Bool, sorted_range(&t, |b| b as u8 as f64))
            }
            ColumnData::Float(v) => {
                // Distinct bit patterns count as distinct values (NaN
                // payloads, ±0.0), in `total_cmp` order. Min/max keep the
                // row-order fold: where ±0.0 meet it, unlike a walk over the
                // tally, depends on row order.
                let rows = || plain_rows(v.iter().copied(), nulls);
                let t = tally(rows(), f64::total_cmp);
                Self::assemble(column, &t, Value::Float, row_range(rows().map(|(x, _)| x)))
            }
            ColumnData::Text(v) => {
                text_stats(tally(plain_rows(v.iter().map(String::as_str), nulls), Ord::cmp))
            }
            ColumnData::DictText { codes, dict } => text_stats(tally(
                dict_rows(codes, nulls, dict.iter().map(String::as_str)),
                Ord::cmp,
            )),
        }
    }

    /// Everything that is the same for every key type (`avg_text_len` is
    /// left 0), from the column's `tally` (distinct non-NULL keys ascending,
    /// with row counts) and its `(min, max)`.
    fn assemble<K: Copy>(
        column: &Column,
        tally: &[(K, usize)],
        to_value: impl Fn(K) -> Value,
        (min, max): (f64, f64),
    ) -> Self {
        // Most common first; keys arrive ascending and an equal count never
        // displaces an earlier one, so ties break on the typed key order —
        // a total order, unlike `Value::compare` (which widens to `f64`).
        let mut top: Vec<(K, usize)> = Vec::with_capacity(MCV_ENTRIES + 1);
        for &(key, rows) in tally {
            let pos = top.partition_point(|&(_, r)| r >= rows);
            if pos < MCV_ENTRIES {
                top.insert(pos, (key, rows));
                top.truncate(MCV_ENTRIES);
            }
        }
        ColumnStats {
            name: column.name.clone(),
            data_type: column.data_type(),
            num_rows: column.len(),
            null_fraction: column.null_fraction(),
            ndv: tally.len(),
            min,
            max,
            mcv: top.into_iter().map(|(k, _)| to_value(k)).collect(),
            avg_text_len: 0.0,
        }
    }
}

/// `(min, max)` from a column's tally (distinct keys ascending). Integer and
/// boolean columns only: every value is finite and equal `f64`s are
/// bit-equal, so the ends give exactly what a fold over every row would.
fn sorted_range<K: Copy>(tally: &[(K, usize)], to_f64: impl Fn(K) -> f64) -> (f64, f64) {
    let end = |e: Option<&(K, usize)>| e.map_or(0.0, |&(k, _)| to_f64(k));
    (end(tally.first()), end(tally.last()))
}

/// `(min, max)` folded over the non-NULL values in row order; 0.0 where no
/// finite one exists.
fn row_range(rows: impl Iterator<Item = f64>) -> (f64, f64) {
    let (min, max) =
        rows.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
    (finite(min), finite(max))
}

/// `(value, 1)` for every non-NULL row of a plain vector; `nulls` is the
/// column's mask, `None` when no row is NULL.
fn plain_rows<'a, T: 'a>(
    values: impl Iterator<Item = T> + 'a,
    nulls: Option<&'a [bool]>,
) -> impl Iterator<Item = (T, usize)> + 'a {
    let nulls = nulls.unwrap_or_default().iter().chain(std::iter::repeat(&false));
    values.zip(nulls).filter(|(_, &null)| !null).map(|(v, _)| (v, 1))
}

/// `(dictionary entry, non-NULL rows holding its code)`: one counter per
/// code, so the per-row work is an indexed add.
fn dict_rows<T>(
    codes: &[u16],
    nulls: Option<&[bool]>,
    dict: impl ExactSizeIterator<Item = T>,
) -> impl Iterator<Item = (T, usize)> {
    let mut per_code = vec![0usize; dict.len()];
    match nulls {
        Some(nulls) => {
            for (&code, &null) in codes.iter().zip(nulls) {
                per_code[usize::from(code)] += usize::from(!null);
            }
        }
        None => codes.iter().for_each(|&code| per_code[usize::from(code)] += 1),
    }
    dict.zip(per_code)
}

/// Distinct keys in ascending `cmp` order, each with the sum of its weights
/// (keys of weight 0 — all-NULL runs, unused dictionary entries — dropped).
/// Sorting replaces a hash table: the order is the deterministic MCV
/// tie-break for free, and keys that arrive sorted (a serial primary key)
/// cost one pass.
fn tally<K: Copy>(
    weighted: impl Iterator<Item = (K, usize)>,
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<(K, usize)> {
    let mut runs: Vec<(K, usize)> = weighted.filter(|&(_, rows)| rows > 0).collect();
    runs.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
    runs.dedup_by(|next, kept| {
        let same = cmp(&next.0, &kept.0).is_eq();
        if same {
            kept.1 += next.1;
        }
        same
    });
    runs
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub table: String,
    pub num_rows: usize,
    columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(table: &Table) -> Self {
        Self::from_columns(table, table.columns().iter().map(ColumnStats::compute).collect())
    }

    /// `compute` with the per-column statistics already computed, one per
    /// column in table order.
    pub(crate) fn from_columns(table: &Table, columns: Vec<ColumnStats>) -> Self {
        debug_assert_eq!(columns.len(), table.num_columns());
        TableStats { table: table.name.clone(), num_rows: table.num_rows(), columns }
    }

    pub fn column(&self, name: &str) -> Result<&ColumnStats> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| GracefulError::Unresolved(format!("stats for {}.{name}", self.table)))
    }

    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_stats_basics() {
        let col = Column::with_nulls(
            "x",
            ColumnData::Int(vec![1, 1, 1, 2, 3, 0]),
            vec![false, false, false, false, false, true],
        );
        let s = ColumnStats::compute(&col);
        assert_eq!(s.ndv, 3);
        assert!((s.null_fraction - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        // Most common first (1 holds 3 of the 5 non-NULL rows), then the
        // tie of 2 and 3 in key order; the NULL row's 0 is no value.
        assert_eq!(s.mcv, [Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    /// `i64::MAX` and `i64::MAX - 1` are one `f64`, so a tie-break through
    /// `Value::compare` left their MCV order to hash-map iteration.
    #[test]
    fn mcv_order_is_deterministic_on_f64_equal_ties() {
        let data: Vec<i64> = [i64::MAX, i64::MAX - 1].repeat(8);
        let col = Column::new("x", ColumnData::Int(data));
        let want = [Value::Int(i64::MAX - 1), Value::Int(i64::MAX)];
        for _ in 0..32 {
            assert_eq!(ColumnStats::compute(&col).mcv, want);
        }
    }

    #[test]
    fn mcv_keeps_the_most_common_values() {
        // Value `k` fills `k + 1` rows, so the top 16 are 19 down to 4.
        let data: Vec<i64> = (0..20).flat_map(|k| vec![k; k as usize + 1]).collect();
        let s = ColumnStats::compute(&Column::new("x", ColumnData::Int(data)));
        let want: Vec<Value> = (4..20).rev().map(Value::Int).collect();
        assert_eq!(s.mcv, want);
    }

    #[test]
    fn text_stats() {
        let col = Column::new("s", ColumnData::Text(vec!["ab".into(), "abcd".into(), "ab".into()]));
        let s = ColumnStats::compute(&col);
        assert_eq!(s.ndv, 2);
        assert!((s.avg_text_len - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (0.0, 0.0));
        assert_eq!(s.mcv, [Value::Text("ab".into()), Value::Text("abcd".into())]);
    }
}
