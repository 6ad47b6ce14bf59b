//! Null-aware typed columns with optional compressed encodings.
//!
//! Columns store their data in dense typed vectors plus a separate null
//! bitmap (a `Vec<bool>`; simplicity over bit-packing at this scale). The
//! executor and the UDF interpreter access values through the cheap typed
//! accessors (`get_f64`, `get_str`, ...) so the hot row-by-row UDF loop never
//! allocates.
//!
//! # Encodings
//!
//! One compressed representation lives behind the same accessors:
//! **dictionary** encoding ([`ColumnData::DictInt`]/[`ColumnData::DictText`])
//! for low-cardinality columns: per-row `u32` codes into a distinct-value
//! dictionary ordered by first occurrence, so a 3-million-row `mktsegment`
//! column stores 4 bytes per row instead of a `String`.
//!
//! [`ColumnData::encoded`] picks the dictionary when it is clearly smaller
//! (it never encodes unless the footprint drops below 75% of plain) and
//! [`ColumnData::to_plain`] decodes back; the round trip is bit-exact,
//! including values stored under NULL positions. Encoding is a *physical*
//! choice: `value()`, `get_f64`, `get_i64`, `get_str` and `DataType` behave
//! identically on every representation, so predicates, join keys and the
//! tree-walking/VM UDF backends never notice. The columnar SIMD gather path
//! decodes straight into its unboxed morsel lanes
//! (`graceful_udf::TypedCol::fill_from_column`) without `Value` boxing.
//!
//! A column carries no derived state: statistics live in the catalog
//! (`Database`), which recomputes them on `Database::update_table`.

use crate::types::{DataType, Value};

/// Largest dictionary [`ColumnData::encoded`] will build; columns with more
/// distinct values stay plain.
pub const MAX_DICT: usize = 1 << 16;

/// Heap bytes a `String` costs besides its text.
const STRING_HEAD: usize = std::mem::size_of::<String>();

/// Most distinct values an integer dictionary may hold over `rows` rows: it
/// saves 25 % of the plain `8n` bytes iff `4n + 8d <= 6n`, i.e. `d <= n/4`.
fn int_dict_limit(rows: usize) -> usize {
    MAX_DICT.min(rows / 4)
}

/// Whether a text dictionary of `dict` heap bytes (codes included) is worth
/// it against `plain` bytes: it must save at least 25 %.
fn text_dict_pays(plain: usize, dict: usize) -> bool {
    dict <= plain - plain / 4
}

/// Codes numbering the distinct entries of `index` in first-appearance
/// order, with those entries in that order; `None` once more than `limit`
/// are distinct. Every index is below `domain`.
fn first_appearance(
    index: &[usize],
    domain: usize,
    limit: usize,
) -> Option<(Vec<u32>, Vec<usize>)> {
    let mut code = vec![u32::MAX; domain];
    let mut order = Vec::new();
    let codes = index
        .iter()
        .map(|&i| {
            if code[i] == u32::MAX {
                if order.len() == limit {
                    return None;
                }
                code[i] = order.len() as u32;
                order.push(i);
            }
            Some(code[i])
        })
        .collect::<Option<Vec<u32>>>()?;
    Some((codes, order))
}

/// Typed backing storage of a column: a plain dense vector per type, plus
/// the dictionary representations (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<String>),
    Bool(Vec<bool>),
    /// Dictionary-encoded integers: row `r` holds `dict[codes[r]]`.
    DictInt {
        codes: Vec<u32>,
        dict: Vec<i64>,
    },
    /// Dictionary-encoded strings: row `r` holds `dict[codes[r]]`.
    DictText {
        codes: Vec<u32>,
        dict: Vec<String>,
    },
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::DictInt { codes, .. } => codes.len(),
            ColumnData::DictText { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) | ColumnData::DictInt { .. } => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text(_) | ColumnData::DictText { .. } => DataType::Text,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// True for the compressed representations.
    pub fn is_encoded(&self) -> bool {
        matches!(self, ColumnData::DictInt { .. } | ColumnData::DictText { .. })
    }

    /// `i64` at `row` for integer-typed representations (plain, dict);
    /// `None` for other types. Ignores nulls — callers check the bitmap.
    #[inline]
    pub fn int_at(&self, row: usize) -> Option<i64> {
        match self {
            ColumnData::Int(v) => Some(v[row]),
            ColumnData::DictInt { codes, dict } => Some(dict[codes[row] as usize]),
            _ => None,
        }
    }

    /// `&str` at `row` for text-typed representations; `None` otherwise.
    /// Ignores nulls — callers check the bitmap.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            ColumnData::Text(v) => Some(&v[row]),
            ColumnData::DictText { codes, dict } => Some(&dict[codes[row] as usize]),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes of this representation (data
    /// vectors and string heads/bytes; excludes the null bitmap, which is
    /// identical across representations).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(v) => v.iter().map(|s| STRING_HEAD + s.len()).sum(),
            ColumnData::DictInt { codes, dict } => codes.len() * 4 + dict.len() * 8,
            ColumnData::DictText { codes, dict } => {
                codes.len() * 4 + dict.iter().map(|s| STRING_HEAD + s.len()).sum::<usize>()
            }
        }
    }

    /// Heap footprint the *plain* representation of the same values would
    /// take — the baseline `heap_bytes` is compared against.
    pub fn plain_bytes(&self) -> usize {
        match self {
            ColumnData::DictInt { codes, .. } => codes.len() * 8,
            ColumnData::DictText { codes, dict } => {
                codes.iter().map(|&c| STRING_HEAD + dict[c as usize].len()).sum()
            }
            plain => plain.heap_bytes(),
        }
    }

    /// Decode to the plain dense representation (identity for plain data).
    /// The round trip through [`ColumnData::encoded`] is bit-exact,
    /// including values stored under NULL positions.
    pub fn to_plain(&self) -> ColumnData {
        match self {
            ColumnData::DictInt { codes, dict } => {
                ColumnData::Int(codes.iter().map(|&c| dict[c as usize]).collect())
            }
            ColumnData::DictText { codes, dict } => {
                ColumnData::Text(codes.iter().map(|&c| dict[c as usize].clone()).collect())
            }
            plain => plain.clone(),
        }
    }

    /// Pick the smaller representation for these values: a dictionary when
    /// the distinct count is low (at most [`MAX_DICT`]), plain otherwise.
    /// Encoding only happens when it saves at least 25% of the plain
    /// footprint — a near-breakeven dictionary is not worth the indirection.
    /// Values are preserved bit-exactly (see [`ColumnData::to_plain`]).
    pub fn encoded(&self) -> ColumnData {
        match self {
            ColumnData::Int(v) => {
                if v.is_empty() {
                    return self.clone();
                }
                // One pass: distinct values in first-occurrence order, stopping
                // as soon as the dictionary outgrows its limit.
                let limit = int_dict_limit(v.len());
                let mut dict: Vec<i64> = Vec::new();
                let mut index = std::collections::HashMap::new();
                for &x in v {
                    index.entry(x).or_insert_with(|| {
                        dict.push(x);
                        (dict.len() - 1) as u32
                    });
                    if dict.len() > limit {
                        return self.clone();
                    }
                }
                let codes = v.iter().map(|x| index[x]).collect();
                ColumnData::DictInt { codes, dict }
            }
            ColumnData::Text(v) => {
                if v.is_empty() {
                    return self.clone();
                }
                let plain: usize = v.iter().map(|s| STRING_HEAD + s.len()).sum();
                let mut dict: Vec<String> = Vec::new();
                let mut index: std::collections::HashMap<&str, u32> =
                    std::collections::HashMap::new();
                for s in v {
                    index.entry(s.as_str()).or_insert_with(|| {
                        dict.push(s.clone());
                        (dict.len() - 1) as u32
                    });
                    if dict.len() > MAX_DICT {
                        return self.clone();
                    }
                }
                let dict_bytes =
                    v.len() * 4 + dict.iter().map(|s| STRING_HEAD + s.len()).sum::<usize>();
                if text_dict_pays(plain, dict_bytes) {
                    let codes = v.iter().map(|s| index[s.as_str()]).collect();
                    ColumnData::DictText { codes, dict }
                } else {
                    self.clone()
                }
            }
            // Floats and bools stay plain; already-encoded data keeps its
            // representation.
            other => other.clone(),
        }
    }

    /// [`ColumnData::encoded`] of the integer column whose row `r` holds
    /// `values[index[r]]`, for distinct `values`: the dictionary is read off
    /// the indices, so no value is hashed.
    pub(crate) fn ints_encoded(index: &[usize], values: &[i64]) -> ColumnData {
        match first_appearance(index, values.len(), int_dict_limit(index.len())) {
            Some((codes, order)) if !codes.is_empty() => {
                ColumnData::DictInt { codes, dict: order.iter().map(|&i| values[i]).collect() }
            }
            _ => ColumnData::Int(index.iter().map(|&i| values[i]).collect()),
        }
    }

    /// [`ColumnData::ints_encoded`] for text: [`ColumnData::encoded`] of the
    /// column whose row `r` holds `values[index[r]]`, for distinct `values`.
    pub(crate) fn texts_encoded(index: &[usize], values: &[String]) -> ColumnData {
        let bytes = |i: usize| STRING_HEAD + values[i].len();
        if let Some((codes, order)) = first_appearance(index, values.len(), MAX_DICT) {
            let mut rows = vec![0usize; order.len()];
            codes.iter().for_each(|&c| rows[c as usize] += 1);
            let plain: usize = order.iter().zip(&rows).map(|(&i, &n)| n * bytes(i)).sum();
            let dict_bytes = codes.len() * 4 + order.iter().map(|&i| bytes(i)).sum::<usize>();
            if !codes.is_empty() && text_dict_pays(plain, dict_bytes) {
                let dict = order.iter().map(|&i| values[i].clone()).collect();
                return ColumnData::DictText { codes, dict };
            }
        }
        ColumnData::Text(index.iter().map(|&i| values[i].clone()).collect())
    }
}

/// A named, nullable, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
    /// `true` marks a NULL at that row. Always the same length as `data`.
    pub nulls: Vec<bool>,
}

impl Column {
    /// Build a column without NULLs.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        let nulls = vec![false; data.len()];
        Column { name: name.into(), data, nulls }
    }

    /// Build a column with an explicit null bitmap.
    ///
    /// # Panics
    /// Panics if the bitmap length differs from the data length.
    pub fn with_nulls(name: impl Into<String>, data: ColumnData, nulls: Vec<bool>) -> Self {
        assert_eq!(data.len(), nulls.len(), "null bitmap length mismatch");
        Column { name: name.into(), data, nulls }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    pub fn is_null(&self, row: usize) -> bool {
        self.nulls[row]
    }

    /// Owned value at `row` (allocates for Text; prefer typed accessors in
    /// hot paths).
    pub fn value(&self, row: usize) -> Value {
        if self.nulls[row] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Text(v) => Value::Text(v[row].clone()),
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::DictInt { codes, dict } => Value::Int(dict[codes[row] as usize]),
            ColumnData::DictText { codes, dict } => Value::Text(dict[codes[row] as usize].clone()),
        }
    }

    /// Numeric view of the value at `row`; `None` for NULL or Text.
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        if self.nulls[row] {
            return None;
        }
        match &self.data {
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Bool(v) => Some(v[row] as u8 as f64),
            data => data.int_at(row).map(|x| x as f64),
        }
    }

    /// Integer view (used for join keys); `None` for NULL or non-int types.
    pub fn get_i64(&self, row: usize) -> Option<i64> {
        if self.nulls[row] {
            return None;
        }
        match &self.data {
            ColumnData::Float(v) => Some(v[row] as i64),
            ColumnData::Bool(v) => Some(v[row] as i64),
            data => data.int_at(row),
        }
    }

    /// Borrowed string at `row` for Text columns; `None` otherwise.
    pub fn get_str(&self, row: usize) -> Option<&str> {
        if self.nulls[row] {
            return None;
        }
        self.data.str_at(row)
    }

    /// Fraction of NULL rows.
    pub fn null_fraction(&self) -> f64 {
        if self.nulls.is_empty() {
            return 0.0;
        }
        self.nulls.iter().filter(|&&n| n).count() as f64 / self.nulls.len() as f64
    }

    /// Re-encode this column's data into its smallest representation (see
    /// [`ColumnData::encoded`]). Values are preserved bit-exactly.
    pub fn encode(&mut self) {
        self.data = self.data.encoded();
    }

    /// Decode this column to the plain dense representation.
    pub fn decode(&mut self) {
        self.data = self.data.to_plain();
    }

    /// Replace every NULL with `default`, mutating in place. This is the
    /// "data adaptation" primitive from Section V of the paper (align data
    /// with generated UDFs instead of constraining the UDFs). Encoded
    /// columns are decoded first (point mutation defeats dictionary
    /// sharing).
    pub fn replace_nulls(&mut self, default: &Value) {
        if self.data.is_encoded() {
            self.data = self.data.to_plain();
        }
        for row in 0..self.len() {
            if !self.nulls[row] {
                continue;
            }
            let ok = match (&mut self.data, default) {
                (ColumnData::Int(v), Value::Int(d)) => {
                    v[row] = *d;
                    true
                }
                (ColumnData::Float(v), Value::Float(d)) => {
                    v[row] = *d;
                    true
                }
                (ColumnData::Float(v), Value::Int(d)) => {
                    v[row] = *d as f64;
                    true
                }
                (ColumnData::Text(v), Value::Text(d)) => {
                    v[row] = d.clone();
                    true
                }
                (ColumnData::Bool(v), Value::Bool(d)) => {
                    v[row] = *d;
                    true
                }
                _ => false,
            };
            if ok {
                self.nulls[row] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col() -> Column {
        Column::with_nulls("x", ColumnData::Int(vec![1, 2, 3, 4]), vec![false, true, false, false])
    }

    #[test]
    fn accessors_respect_nulls() {
        let c = int_col();
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.get_i64(2), Some(3));
        assert!((c.null_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn replace_nulls_clears_bitmap() {
        let mut c = int_col();
        c.replace_nulls(&Value::Int(99));
        assert_eq!(c.value(1), Value::Int(99));
        assert_eq!(c.null_fraction(), 0.0);
    }

    #[test]
    fn replace_nulls_type_mismatch_is_noop() {
        let mut c = int_col();
        c.replace_nulls(&Value::Text("nope".into()));
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn text_access() {
        let c = Column::new("s", ColumnData::Text(vec!["ab".into(), "cd".into()]));
        assert_eq!(c.get_str(1), Some("cd"));
        assert_eq!(c.get_f64(0), None);
        assert_eq!(c.data_type(), DataType::Text);
    }

    #[test]
    #[should_panic(expected = "null bitmap length mismatch")]
    fn bitmap_length_checked() {
        Column::with_nulls("x", ColumnData::Int(vec![1]), vec![false, true]);
    }

    #[test]
    fn dict_int_round_trips_and_shrinks() {
        let v: Vec<i64> = (0..4096).map(|i| (i * 2654435761u64 as usize % 5) as i64).collect();
        let plain = ColumnData::Int(v.clone());
        let enc = plain.encoded();
        assert!(matches!(enc, ColumnData::DictInt { .. }), "low-NDV unsorted ints pick dict");
        assert!(enc.heap_bytes() < plain.heap_bytes());
        assert_eq!(enc.plain_bytes(), plain.heap_bytes());
        assert_eq!(enc.to_plain(), plain);
        assert_eq!(enc.data_type(), DataType::Int);
        assert_eq!(enc.len(), 4096);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(enc.int_at(i), Some(x));
        }
    }

    #[test]
    fn dict_text_round_trips_and_shrinks() {
        let words = ["alpha", "beta", "gamma"];
        let v: Vec<String> = (0..2048).map(|i| words[i % 3].to_string()).collect();
        let plain = ColumnData::Text(v.clone());
        let enc = plain.encoded();
        assert!(matches!(enc, ColumnData::DictText { .. }));
        assert!(enc.heap_bytes() < plain.heap_bytes());
        assert_eq!(enc.to_plain(), plain);
        assert_eq!(enc.str_at(4), Some("beta"));
    }

    #[test]
    fn high_cardinality_stays_plain() {
        let serial = ColumnData::Int((0..4096).collect());
        assert_eq!(serial.encoded(), serial, "serial PKs gain nothing from a dictionary");
        let text = ColumnData::Text((0..64).map(|i| format!("unique-{i}")).collect());
        assert_eq!(text.encoded(), text);
        let floats = ColumnData::Float(vec![1.5; 100]);
        assert_eq!(floats.encoded(), floats, "floats always stay plain");
    }

    #[test]
    fn int_dictionary_rule_holds_at_its_boundary() {
        // 4n + 8d <= 6n: two distinct values in eight rows encode, three stay plain.
        let two = ColumnData::Int(vec![1, 2, 1, 2, 1, 2, 1, 2]);
        assert!(matches!(two.encoded(), ColumnData::DictInt { .. }));
        let three = ColumnData::Int(vec![1, 2, 3, 1, 2, 3, 1, 2]);
        assert_eq!(three.encoded(), three);
        assert_eq!(ColumnData::Int(vec![]).encoded(), ColumnData::Int(vec![]));
    }

    #[test]
    fn text_dictionary_stops_at_max_dict() {
        // Rows cycle through the distinct strings often enough for the
        // dictionary to win on size; only the distinct count decides.
        let mut v: Vec<String> =
            (0..4 * MAX_DICT).map(|i| format!("s{:07}", i % MAX_DICT)).collect();
        match ColumnData::Text(v.clone()).encoded() {
            ColumnData::DictText { dict, .. } => assert_eq!(dict.len(), MAX_DICT),
            other => panic!("{} distinct strings stayed {:?}", MAX_DICT, other.data_type()),
        }
        // One more distinct string, in the last row.
        v.push("one more".into());
        let plain = ColumnData::Text(v);
        assert_eq!(plain.encoded(), plain);
    }

    #[test]
    fn encoded_column_accessors_match_plain() {
        let data: Vec<i64> = (0..3000).map(|i| (i / 100) as i64).collect();
        let nulls: Vec<bool> = (0..3000).map(|i| i % 7 == 0).collect();
        let plain = Column::with_nulls("x", ColumnData::Int(data.clone()), nulls.clone());
        let mut enc = plain.clone();
        enc.encode();
        assert!(enc.data.is_encoded());
        for row in 0..3000 {
            assert_eq!(enc.value(row), plain.value(row));
            assert_eq!(enc.get_f64(row), plain.get_f64(row));
            assert_eq!(enc.get_i64(row), plain.get_i64(row));
        }
        assert_eq!(enc.data.to_plain(), plain.data, "decode round-trips bit-exactly");
    }

    #[test]
    fn replace_nulls_decodes_encoded_columns() {
        let data: Vec<i64> = std::iter::repeat_n(5i64, 2000).collect();
        let nulls: Vec<bool> = (0..2000).map(|i| i == 1999).collect();
        let mut c = Column::with_nulls("x", ColumnData::Int(data), nulls);
        c.encode();
        assert!(c.data.is_encoded());
        c.replace_nulls(&Value::Int(-100));
        assert!(!c.data.is_encoded(), "point mutation decodes first");
        assert_eq!(c.value(1999), Value::Int(-100));
        assert_eq!(c.value(0), Value::Int(5));
    }
}
