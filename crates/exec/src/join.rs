//! The join index: key → build-row ids, ascending.
//!
//! [`JoinIndex::build`] sorts the `(key, build row)` pairs once and lays
//! them out flat: `keys` holds each distinct key once, in order;
//! `offsets[i]..offsets[i + 1]` is key `i`'s slice of `rows`. Sorting by
//! `(key, row)` makes every match list row-ascending *by construction* —
//! whatever order the pairs arrived in — so a probe reads the same list, and
//! emits the same rows in the same order, for any thread count or driver.
//! Lookup is a binary search over the distinct keys.
//!
//! The executor's hash-join build sink and the sampling estimator's join
//! walk (`graceful-card`) build this one type.

/// Flat key → build-row index. NULL keys never match, so callers leave
/// them out of the pairs.
#[derive(Debug, Default)]
pub struct JoinIndex {
    /// Distinct keys, ascending.
    keys: Vec<i64>,
    /// `keys.len() + 1` boundaries into `rows`.
    offsets: Vec<u32>,
    /// Build-row ids grouped by key, ascending within each key.
    rows: Vec<u32>,
}

impl JoinIndex {
    /// Index `pairs` of `(join key, build row)`.
    pub fn build(mut pairs: Vec<(i64, u32)>) -> Self {
        pairs.sort_unstable();
        let mut index = JoinIndex { rows: Vec::with_capacity(pairs.len()), ..Self::default() };
        for (i, &(key, row)) in pairs.iter().enumerate() {
            if index.keys.last() != Some(&key) {
                index.keys.push(key);
                index.offsets.push(i as u32);
            }
            index.rows.push(row);
        }
        index.offsets.push(pairs.len() as u32);
        index
    }

    /// Build rows matching `key`, ascending; empty when the key is absent.
    #[inline]
    pub fn get(&self, key: i64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_sequential_hashmap_build_exactly() {
        // Duplicates, NULLs, negatives and the extremes.
        let mut keys: Vec<Option<i64>> = (0..997).map(|i| Some((i * 37) % 101 - 50)).collect();
        keys[13] = None;
        keys[500] = None;
        keys.push(Some(i64::MIN));
        keys.push(Some(i64::MAX));
        let mut reference: HashMap<i64, Vec<u32>> = HashMap::new();
        let mut pairs = Vec::new();
        for (r, k) in keys.iter().enumerate() {
            if let Some(k) = k {
                reference.entry(*k).or_default().push(r as u32);
                pairs.push((*k, r as u32));
            }
        }
        // Arrival order must not leak into the match lists.
        pairs.reverse();
        let index = JoinIndex::build(pairs);
        for (k, rows) in &reference {
            assert_eq!(index.get(*k), rows.as_slice(), "key {k}");
        }
        assert!(index.get(999_999).is_empty());
        assert!(JoinIndex::build(Vec::new()).get(0).is_empty());
    }
}
