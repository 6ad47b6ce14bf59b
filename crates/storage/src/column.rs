//! Null-aware typed columns with optional compressed encodings.
//!
//! Columns store their data in dense typed vectors plus a separate NULL
//! mask ([`Nulls`]): nothing at all for a column without a NULL, one `bool`
//! per row otherwise (simplicity over bit-packing: few columns hold a NULL).
//! The executor and the UDF interpreter access values through the cheap
//! typed accessors (`get_f64`, `get_str`, ...) so the hot row-by-row UDF
//! loop never allocates.
//!
//! # Encodings
//!
//! One compressed representation lives behind the same accessors:
//! **dictionary** encoding ([`ColumnData::DictInt`]/[`ColumnData::DictText`])
//! for low-cardinality columns: per-row `u16` codes into a distinct-value
//! dictionary ordered by first occurrence ([`MAX_DICT`] entries at most), so
//! a 3-million-row `mktsegment` column stores 2 bytes per row instead of a
//! `String`.
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
use std::collections::hash_map::Entry;

/// Largest dictionary [`ColumnData::encoded`] will build; columns with more
/// distinct values stay plain.
pub const MAX_DICT: usize = 1 << 16;

// Every code of a `MAX_DICT`-entry dictionary fits the `u16` codes.
const _: () = assert!(MAX_DICT <= u16::MAX as usize + 1);

/// Heap bytes a `String` costs besides its text.
const STRING_HEAD: usize = std::mem::size_of::<String>();

/// What the encoding *choice* prices a code at: 4 B, the width codes had
/// when the rule was set, although they are stored in 2. Pricing them at 2
/// would encode more columns, which changes the generated databases.
const RULE_CODE_BYTES: usize = 4;

/// Most distinct values an integer dictionary may hold over `rows` rows: it
/// saves 25 % of the plain `8n` bytes iff `4n + 8d <= 6n`, i.e. `d <= n/4`
/// (codes priced at [`RULE_CODE_BYTES`]).
fn int_dict_limit(rows: usize) -> usize {
    MAX_DICT.min(rows / 4)
}

/// Whether a text dictionary of `dict` heap bytes (codes included, at
/// [`RULE_CODE_BYTES`] each) is worth it against `plain` bytes: it must save
/// at least 25 %.
fn text_dict_pays(plain: usize, dict: usize) -> bool {
    dict <= plain - plain / 4
}

/// The code of the next distinct value when `distinct` are numbered so far;
/// `None` once `limit` are.
fn next_code(distinct: usize, limit: usize) -> Option<u16> {
    u16::try_from(distinct).ok().filter(|_| distinct < limit)
}

/// Codes numbering the distinct entries of `index` in first-appearance
/// order, with those entries in that order; `None` once more than `limit`
/// are distinct. Every index is below `domain`.
fn first_appearance(
    index: &[usize],
    domain: usize,
    limit: usize,
) -> Option<(Vec<u16>, Vec<usize>)> {
    let mut code: Vec<Option<u16>> = vec![None; domain];
    let mut order = Vec::new();
    let codes = index
        .iter()
        .map(|&i| {
            if code[i].is_none() {
                code[i] = Some(next_code(order.len(), limit)?);
                order.push(i);
            }
            code[i]
        })
        .collect::<Option<Vec<u16>>>()?;
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
        codes: Vec<u16>,
        dict: Vec<i64>,
    },
    /// Dictionary-encoded strings: row `r` holds `dict[codes[r]]`.
    DictText {
        codes: Vec<u16>,
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
    /// `None` for other types. Ignores nulls — callers check the NULL mask.
    #[inline]
    pub fn int_at(&self, row: usize) -> Option<i64> {
        match self {
            ColumnData::Int(v) => Some(v[row]),
            ColumnData::DictInt { codes, dict } => Some(dict[codes[row] as usize]),
            _ => None,
        }
    }

    /// `&str` at `row` for text-typed representations; `None` otherwise.
    /// Ignores nulls — callers check the NULL mask.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            ColumnData::Text(v) => Some(&v[row]),
            ColumnData::DictText { codes, dict } => Some(&dict[codes[row] as usize]),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes of this representation (data
    /// vectors and string heads/bytes; excludes the NULL mask, which is
    /// identical across representations).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(v) => v.iter().map(|s| STRING_HEAD + s.len()).sum(),
            ColumnData::DictInt { codes, dict } => codes.len() * 2 + dict.len() * 8,
            ColumnData::DictText { codes, dict } => {
                codes.len() * 2 + dict.iter().map(|s| STRING_HEAD + s.len()).sum::<usize>()
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
    /// The rule prices a code at 4 B (`RULE_CODE_BYTES`), not the 2 B it is
    /// stored in, so that it picks what it always picked.
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
                    if let Entry::Vacant(slot) = index.entry(x) {
                        let Some(code) = next_code(dict.len(), limit) else {
                            return self.clone();
                        };
                        slot.insert(code);
                        dict.push(x);
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
                let mut index: std::collections::HashMap<&str, u16> =
                    std::collections::HashMap::new();
                for s in v {
                    if let Entry::Vacant(slot) = index.entry(s.as_str()) {
                        let Some(code) = next_code(dict.len(), MAX_DICT) else {
                            return self.clone();
                        };
                        slot.insert(code);
                        dict.push(s.clone());
                    }
                }
                let dict_bytes = v.len() * RULE_CODE_BYTES
                    + dict.iter().map(|s| STRING_HEAD + s.len()).sum::<usize>();
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
            let dict_bytes =
                codes.len() * RULE_CODE_BYTES + order.iter().map(|&i| bytes(i)).sum::<usize>();
            if !codes.is_empty() && text_dict_pays(plain, dict_bytes) {
                let dict = order.iter().map(|&i| values[i].clone()).collect();
                return ColumnData::DictText { codes, dict };
            }
        }
        ColumnData::Text(index.iter().map(|&i| values[i].clone()).collect())
    }
}

/// A column's NULL mask: nothing for a column without a NULL, one flag per
/// row (`true` marks a NULL) otherwise. It reads as one flag per row either
/// way, and two masks are equal when they mark the same rows.
#[derive(Debug, Clone)]
pub struct Nulls {
    rows: usize,
    /// `rows` flags, held where a row is NULL (or after `iter_mut`).
    mask: Option<Vec<bool>>,
}

impl Nulls {
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The flags, or `None` when no mask is held and so no row is NULL: a
    /// loop over many rows asks once whether it must read a flag at all.
    pub fn as_slice(&self) -> Option<&[bool]> {
        self.mask.as_deref()
    }

    /// One flag per row.
    pub fn iter(&self) -> impl Iterator<Item = &bool> {
        let mask = self.mask.as_deref().unwrap_or_default();
        mask.iter().chain(std::iter::repeat_n(&false, self.rows - mask.len()))
    }

    /// One mutable flag per row; a column without a NULL gets its all-false
    /// mask first.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, bool> {
        self.mask.get_or_insert_with(|| vec![false; self.rows]).iter_mut()
    }
}

impl std::ops::Index<usize> for Nulls {
    type Output = bool;

    #[inline]
    fn index(&self, row: usize) -> &bool {
        assert!(row < self.rows, "row {row} out of {} rows", self.rows);
        self.mask.as_ref().map_or(&false, |mask| &mask[row])
    }
}

impl PartialEq for Nulls {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.iter().eq(other.iter())
    }
}

/// A named, nullable, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
    /// Which rows are NULL. Always the same length as `data`.
    pub nulls: Nulls,
}

impl Column {
    /// Build a column without NULLs.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        let nulls = Nulls { rows: data.len(), mask: None };
        Column { name: name.into(), data, nulls }
    }

    /// Build a column with an explicit null bitmap (`true` marks a NULL),
    /// kept only if a row is NULL.
    ///
    /// # Panics
    /// Panics if the bitmap length differs from the data length.
    pub fn with_nulls(name: impl Into<String>, data: ColumnData, nulls: Vec<bool>) -> Self {
        assert_eq!(data.len(), nulls.len(), "null bitmap length mismatch");
        let nulls = Nulls { rows: nulls.len(), mask: nulls.contains(&true).then_some(nulls) };
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
        match self.nulls.as_slice() {
            Some(mask) => mask.iter().filter(|&&n| n).count() as f64 / mask.len() as f64,
            None => 0.0,
        }
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
    /// with generated UDFs instead of constraining the UDFs). An encoded
    /// column that holds a NULL is decoded first (point mutation defeats
    /// dictionary sharing); one without a NULL is left as it is. A column
    /// whose NULLs are all replaced keeps no mask.
    pub fn replace_nulls(&mut self, default: &Value) {
        let Column { data, nulls, .. } = self;
        let Some(mask) = nulls.mask.as_mut().filter(|mask| mask.contains(&true)) else {
            return;
        };
        if data.is_encoded() {
            *data = data.to_plain();
        }
        for (row, null) in mask.iter_mut().enumerate().filter(|(_, null)| **null) {
            match (&mut *data, default) {
                (ColumnData::Int(v), Value::Int(d)) => v[row] = *d,
                (ColumnData::Float(v), Value::Float(d)) => v[row] = *d,
                (ColumnData::Float(v), Value::Int(d)) => v[row] = *d as f64,
                (ColumnData::Text(v), Value::Text(d)) => v[row] = d.clone(),
                (ColumnData::Bool(v), Value::Bool(d)) => v[row] = *d,
                // A default of another type replaces no NULL.
                _ => return,
            }
            *null = false;
        }
        if !mask.contains(&true) {
            nulls.mask = None;
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

    #[test]
    fn replace_nulls_keeps_a_null_free_dictionary_encoded() {
        let mut c = Column::new("x", ColumnData::Int((0..2000).map(|i| i % 3).collect()));
        c.encode();
        let (data, bytes) = (c.data.clone(), c.data.heap_bytes());
        c.replace_nulls(&Value::Int(-100));
        assert_eq!(c.data, data, "no NULL, so nothing to decode");
        assert_eq!(c.data.heap_bytes(), bytes);
        assert_eq!(c.nulls.as_slice(), None);
    }

    #[test]
    fn replacing_every_null_drops_the_mask() {
        let mut c = int_col();
        assert!(c.nulls.as_slice().is_some());
        c.replace_nulls(&Value::Int(99));
        assert_eq!(c.nulls.as_slice(), None);
        // A mismatched default replaces nothing, and the mask stays.
        let mut c = int_col();
        c.replace_nulls(&Value::Bool(true));
        assert_eq!(c.nulls.as_slice(), Some(&[false, true, false, false][..]));
    }

    #[test]
    fn a_mask_is_held_only_where_a_null_is() {
        let data = ColumnData::Int(vec![1, 2, 3]);
        let new = Column::new("x", data.clone());
        let all_false = Column::with_nulls("x", data.clone(), vec![false; 3]);
        assert_eq!(new.nulls.as_slice(), None);
        assert_eq!(all_false.nulls.as_slice(), None, "an all-false mask is not kept");
        assert_eq!(all_false, new);
        for c in [&new, &int_col()] {
            assert_eq!(c.nulls.iter().count(), c.nulls.len());
            assert_eq!(c.nulls.len(), c.len());
            assert!(c.nulls.iter().enumerate().all(|(r, &null)| null == c.nulls[r]));
        }
        assert_eq!(
            int_col().nulls.iter().copied().collect::<Vec<_>>(),
            [false, true, false, false]
        );
        // Equality is logical: a materialised all-false mask equals none.
        let mut materialised = new.clone();
        materialised.nulls.iter_mut().for_each(|_| {});
        assert!(materialised.nulls.as_slice().is_some());
        assert_eq!(materialised, new);
        assert_ne!(Column::with_nulls("x", data, vec![false, false, true]), new);
    }

    #[test]
    fn setting_one_flag_of_a_null_free_column_gives_one_null() {
        let mut c = Column::new("x", ColumnData::Int(vec![4, 5, 6, 7]));
        if let Some(flag) = c.nulls.iter_mut().nth(2) {
            *flag = true;
        }
        assert_eq!(c.nulls.as_slice(), Some(&[false, false, true, false][..]));
        assert_eq!((0..4).filter(|&r| c.is_null(r)).collect::<Vec<_>>(), [2]);
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.value(3), Value::Int(7));
    }

    #[test]
    fn dictionary_codes_take_two_bytes_a_row() {
        let ints = ColumnData::Int((0..4096).map(|i| i % 5).collect()).encoded();
        assert_eq!(ints.heap_bytes(), 2 * 4096 + 8 * 5);
        let words = ["alpha", "beta", "gamma"];
        let texts: Vec<String> = (0..2048).map(|i| words[i % 3].to_string()).collect();
        let texts = ColumnData::Text(texts).encoded();
        let dict: usize = words.iter().map(|w| STRING_HEAD + w.len()).sum();
        assert_eq!(texts.heap_bytes(), 2 * 2048 + dict);
    }

    #[test]
    fn the_last_code_of_a_full_dictionary_round_trips() {
        // Enough rows for `int_dict_limit` to allow MAX_DICT entries.
        let index: Vec<usize> = (0..4 * MAX_DICT).map(|i| (i * 7 + 3) % MAX_DICT).collect();
        let values: Vec<i64> = (0..MAX_DICT as i64).map(|v| v * 1_000_003 - 5).collect();
        let plain = ColumnData::Int(index.iter().map(|&i| values[i]).collect());
        let words: Vec<String> = (0..MAX_DICT).map(|i| format!("w{i:06}")).collect();
        let text = ColumnData::Text(index.iter().map(|&i| words[i].clone()).collect());
        let full = [
            (plain.encoded(), &plain),
            (ColumnData::ints_encoded(&index, &values), &plain),
            (text.encoded(), &text),
            (ColumnData::texts_encoded(&index, &words), &text),
        ];
        for (enc, plain) in full {
            let (codes, dict_len) = match &enc {
                ColumnData::DictInt { codes, dict } => (codes, dict.len()),
                ColumnData::DictText { codes, dict } => (codes, dict.len()),
                other => panic!("a full dictionary stayed {:?}", other.data_type()),
            };
            assert_eq!(dict_len, MAX_DICT);
            let row = codes.iter().position(|&c| c == u16::MAX).expect("the last code is used");
            assert_eq!((enc.int_at(row), enc.str_at(row)), (plain.int_at(row), plain.str_at(row)));
            assert_eq!(&enc.to_plain(), plain);
        }
    }
}
