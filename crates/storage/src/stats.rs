//! Per-column statistics: the raw material of cardinality estimation.
//!
//! A real DBMS computes these during `ANALYZE`. We keep exactly the
//! statistics that the paper's cardinality-estimation ladder needs:
//!
//! * **equi-depth histograms** over numeric columns (range selectivity),
//! * **most-common values** with frequencies (equality selectivity, skew),
//! * **NDV / null fraction / min / max** (uniformity fallbacks),
//! * **average text length** (string-op cost featurization).
//!
//! The estimators in `graceful-card` combine these with either independence
//! assumptions ("DuckDB-like"), join-aware sampling ("WanderJoin-like") or
//! per-table sample synopses ("DeepDB-like").

use crate::column::{Column, ColumnData};
use crate::table::Table;
use crate::types::{DataType, Value};
use graceful_common::{GracefulError, Result};
use std::cmp::Ordering;

/// Number of equi-depth buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;
/// Number of most-common values tracked per column.
pub const MCV_ENTRIES: usize = 16;

/// Equi-depth histogram over the non-NULL numeric values of a column.
///
/// `bounds` has `buckets + 1` entries; bucket `i` spans
/// `[bounds[i], bounds[i+1]]` and holds `1/buckets` of the probability mass.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
}

impl Histogram {
    /// Build from raw (unsorted) values. Returns `None` when fewer than two
    /// finite values exist — the caller falls back to min/max/NDV logic.
    pub fn build(mut values: Vec<f64>) -> Option<Self> {
        values.retain(|v| v.is_finite());
        // Finite values always compare, so the fallback is never taken
        // (`total_cmp` would put -0.0 before 0.0 and move bounds).
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        Self::from_sorted_runs(values.len(), values.iter().map(|&v| (v, 1)))
    }

    /// [`Histogram::build`] over run-length input: `runs` yields each finite
    /// value in ascending order with how many of the `n` rows hold it. Bound
    /// `i` is the value at rank `i·(n-1)/buckets` of the expanded sequence,
    /// found by walking the runs once instead of materializing every row.
    fn from_sorted_runs(n: usize, runs: impl IntoIterator<Item = (f64, usize)>) -> Option<Self> {
        if n < 2 {
            return None;
        }
        let buckets = HISTOGRAM_BUCKETS.min(n - 1).max(1);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut runs = runs.into_iter();
        // `covered` rows lie in the runs consumed so far; `value` is the last
        // of them.
        let (mut value, mut covered) = (0.0, 0usize);
        for i in 0..=buckets {
            let rank = (i * (n - 1)) / buckets;
            while covered <= rank {
                // The runs cover all `n` rows, so they last past rank `n - 1`.
                let Some((v, rows)) = runs.next() else { break };
                value = v;
                covered += rows;
            }
            bounds.push(value);
        }
        Some(Histogram { bounds })
    }

    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    pub fn max(&self) -> f64 {
        // `bounds` holds `buckets + 1 >= 2` entries, so there is a last one.
        self.bounds.last().copied().unwrap_or_default()
    }

    /// Fraction of values `< x` (linear interpolation inside buckets).
    pub fn selectivity_lt(&self, x: f64) -> f64 {
        if x <= self.min() {
            return 0.0;
        }
        if x > self.max() {
            return 1.0;
        }
        let buckets = self.bounds.len() - 1;
        let per_bucket = 1.0 / buckets as f64;
        let mut acc = 0.0;
        for i in 0..buckets {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if x >= hi {
                acc += per_bucket;
            } else if x > lo {
                let width = (hi - lo).max(f64::EPSILON);
                acc += per_bucket * ((x - lo) / width).clamp(0.0, 1.0);
                break;
            } else {
                break;
            }
        }
        acc.clamp(0.0, 1.0)
    }
}

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
    pub histogram: Option<Histogram>,
    /// Most common values with their frequency (fraction of non-NULL rows).
    pub mcv: Vec<(Value, f64)>,
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
            Self::assemble(column, &t, Value::Int, Numeric::of_sorted(&t, |k| k as f64))
        };
        let text_stats = |t: Vec<(&str, usize)>| {
            let (chars, rows) =
                t.iter().fold((0, 0), |(c, n), &(s, rows)| (c + s.len() * rows, n + rows));
            ColumnStats {
                avg_text_len: if rows > 0 { chars as f64 / rows as f64 } else { 0.0 },
                ..Self::assemble(column, &t, |s| Value::Text(s.to_string()), Numeric::NONE)
            }
        };
        match &column.data {
            ColumnData::Int(v) => int_stats(tally(plain_rows(v.iter().copied(), nulls), Ord::cmp)),
            ColumnData::DictInt { codes, dict } => {
                int_stats(tally(dict_rows(codes, nulls, dict.iter().copied()), Ord::cmp))
            }
            ColumnData::Bool(v) => {
                let t = tally(plain_rows(v.iter().copied(), nulls), Ord::cmp);
                Self::assemble(column, &t, Value::Bool, Numeric::of_sorted(&t, |b| b as u8 as f64))
            }
            ColumnData::Float(v) => {
                // Distinct bit patterns count as distinct values (NaN
                // payloads, ±0.0), in `total_cmp` order. Min/max/histogram
                // keep the row-order fold and stable sort: where ±0.0 meet
                // they, unlike a walk over the tally, depend on row order.
                let rows: Vec<f64> = plain_rows(v.iter().copied(), nulls).map(|(x, _)| x).collect();
                let t = tally(rows.iter().map(|&x| (x, 1)), f64::total_cmp);
                Self::assemble(column, &t, Value::Float, Numeric::of_rows(rows))
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
    /// left 0), from the column's `tally`: distinct non-NULL keys ascending,
    /// with row counts.
    fn assemble<K: Copy>(
        column: &Column,
        tally: &[(K, usize)],
        to_value: impl Fn(K) -> Value,
        numeric: Numeric,
    ) -> Self {
        let non_null: usize = tally.iter().map(|&(_, rows)| rows).sum();
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
        let mcv =
            top.into_iter().map(|(k, rows)| (to_value(k), rows as f64 / non_null as f64)).collect();
        ColumnStats {
            name: column.name.clone(),
            data_type: column.data_type(),
            num_rows: column.len(),
            null_fraction: column.null_fraction(),
            ndv: tally.len(),
            min: numeric.min,
            max: numeric.max,
            histogram: numeric.histogram,
            mcv,
            avg_text_len: 0.0,
        }
    }
}

/// The numeric third of a [`ColumnStats`]: min, max (0.0 when there is no
/// finite one) and the equi-depth histogram.
struct Numeric {
    min: f64,
    max: f64,
    histogram: Option<Histogram>,
}

impl Numeric {
    /// Text columns have no numeric summary.
    const NONE: Numeric = Numeric { min: 0.0, max: 0.0, histogram: None };

    /// From a column's tally (distinct keys ascending, with row counts).
    /// Integer and boolean columns only: every value is finite and equal
    /// `f64`s are bit-equal, so the walk gives exactly what sorting every
    /// row would.
    fn of_sorted<K: Copy>(tally: &[(K, usize)], to_f64: impl Fn(K) -> f64) -> Numeric {
        let n = tally.iter().map(|&(_, rows)| rows).sum();
        let runs = tally.iter().map(|&(k, rows)| (to_f64(k), rows));
        Numeric {
            min: tally.first().map_or(0.0, |&(k, _)| to_f64(k)),
            max: tally.last().map_or(0.0, |&(k, _)| to_f64(k)),
            histogram: Histogram::from_sorted_runs(n, runs),
        }
    }

    /// From the non-NULL values in row order.
    fn of_rows(rows: Vec<f64>) -> Numeric {
        let (min, max) = rows
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        Numeric {
            min: if min.is_finite() { min } else { 0.0 },
            max: if max.is_finite() { max } else { 0.0 },
            histogram: Histogram::build(rows),
        }
    }
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
/// tie-break and the histogram walk for free, and keys that arrive sorted
/// (a serial primary key) cost one pass.
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

    impl Histogram {
        /// Fraction of values in `[lo, hi)`.
        fn selectivity_range(&self, lo: f64, hi: f64) -> f64 {
            if hi <= lo {
                return 0.0;
            }
            (self.selectivity_lt(hi) - self.selectivity_lt(lo)).clamp(0.0, 1.0)
        }
    }

    impl ColumnStats {
        /// Frequency of `value` if it is among the most common values.
        fn mcv_frequency(&self, value: &Value) -> Option<f64> {
            self.mcv.iter().find(|(v, _)| v == value).map(|(_, f)| *f)
        }
    }

    #[test]
    fn histogram_uniform_selectivity() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(values).unwrap();
        assert!((h.selectivity_lt(500.0) - 0.5).abs() < 0.05);
        assert_eq!(h.selectivity_lt(-1.0), 0.0);
        assert_eq!(h.selectivity_lt(2000.0), 1.0);
        assert!((h.selectivity_range(250.0, 750.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn histogram_skewed_selectivity() {
        // 90% zeros, 10% spread out: selectivity_lt(1) should be ~0.9.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = Histogram::build(values).unwrap();
        let s = h.selectivity_lt(1.0);
        assert!(s > 0.8, "s={s}");
    }

    #[test]
    fn histogram_needs_two_values() {
        assert!(Histogram::build(vec![]).is_none());
        assert!(Histogram::build(vec![1.0]).is_none());
        assert!(Histogram::build(vec![1.0, 2.0]).is_some());
    }

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
        // MCV ordered by frequency: 1 appears 3/5 of non-null rows.
        assert_eq!(s.mcv[0].0, Value::Int(1));
        assert!((s.mcv[0].1 - 0.6).abs() < 1e-12);
        assert_eq!(s.mcv_frequency(&Value::Int(2)), Some(0.2));
        assert_eq!(s.mcv_frequency(&Value::Int(42)), None);
    }

    /// `i64::MAX` and `i64::MAX - 1` are one `f64`, so a tie-break through
    /// `Value::compare` left their MCV order to hash-map iteration.
    #[test]
    fn mcv_order_is_deterministic_on_f64_equal_ties() {
        let data: Vec<i64> = [i64::MAX, i64::MAX - 1].repeat(8);
        let col = Column::new("x", ColumnData::Int(data));
        let want = vec![(Value::Int(i64::MAX - 1), 0.5), (Value::Int(i64::MAX), 0.5)];
        for _ in 0..32 {
            assert_eq!(ColumnStats::compute(&col).mcv, want);
        }
    }

    #[test]
    fn histogram_from_runs_equals_histogram_from_rows() {
        let runs = [(-3.0, 5usize), (0.5, 1), (2.0, 70), (9.0, 2)];
        let rows: Vec<f64> = runs.iter().flat_map(|&(v, n)| vec![v; n]).collect();
        assert_eq!(Histogram::from_sorted_runs(rows.len(), runs), Histogram::build(rows));
        assert_eq!(Histogram::from_sorted_runs(1, [(4.0, 1)]), None);
    }

    #[test]
    fn text_stats() {
        let col = Column::new("s", ColumnData::Text(vec!["ab".into(), "abcd".into(), "ab".into()]));
        let s = ColumnStats::compute(&col);
        assert_eq!(s.ndv, 2);
        assert!((s.avg_text_len - 8.0 / 3.0).abs() < 1e-12);
        assert!(s.histogram.is_none());
    }

    #[test]
    fn selectivity_monotone() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let h = Histogram::build(values).unwrap();
        let mut prev = 0.0;
        for i in 0..100 {
            let s = h.selectivity_lt(i as f64 * 0.25);
            assert!(s >= prev - 1e-12, "monotonicity violated at {i}");
            prev = s;
        }
    }
}
