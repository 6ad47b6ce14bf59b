//! The join index: key → build-row ids, ascending.
//!
//! [`JoinIndex::new`] takes the build keys in row order (row id = position,
//! `None` = NULL, which never matches) and groups the keyed rows by slot with
//! a counting sort — counts, their prefix sum as `offsets`, then each row in
//! row order — so every match list is row-ascending *by construction*, and a
//! probe emits the same rows in the same order for any thread count. A key's
//! slot is `key − min` when the span `max − min + 1` is at most
//! `DENSE_SPAN_PER_ROW` × keyed rows + `DENSE_SLACK` (dense: one subtraction
//! per lookup; generated keys are small dense integers), else its rank among
//! the sorted distinct keys (sparse: a binary search, for any `i64` key set —
//! `i64::MIN` and `i64::MAX` together would need 2^64 dense slots). The bound
//! keeps the slot array within a constant factor of the build. The hash-join
//! build sink and the sampling estimator (`graceful-card`) build this type.

/// Key span per keyed row up to which a build is dense.
const DENSE_SPAN_PER_ROW: i128 = 8;
/// Span every build may use densely, however few its keyed rows.
const DENSE_SLACK: i128 = 1024;

/// Key → build-row index in one of the two layouts of the module docs.
#[derive(Debug, Default)]
pub struct JoinIndex {
    /// Dense layout: a key's slot is `key − base`.
    base: i64,
    /// Sparse layout: the distinct keys, ascending, a key's slot its rank.
    sorted: Option<Vec<i64>>,
    /// `slots + 1` boundaries into `rows` (empty when no row is keyed).
    offsets: Vec<u32>,
    /// Build-row ids grouped by slot, ascending within each slot.
    rows: Vec<u32>,
}

impl JoinIndex {
    /// Index `keys`, the join key of each build row in row order.
    pub fn new(keys: &[Option<i64>]) -> Self {
        let (mut keyed, mut min, mut max) = (0, i64::MAX, i64::MIN);
        for &k in keys.iter().flatten() {
            (keyed, min, max) = (keyed + 1, min.min(k), max.max(k));
        }
        let span = i128::from(max) - i128::from(min) + 1;
        if keyed == 0 {
            return JoinIndex::default();
        } else if span <= DENSE_SPAN_PER_ROW * keyed + DENSE_SLACK {
            return Self::counted(keys, min, None, span as usize);
        }
        let mut sorted: Vec<i64> = keys.iter().flatten().copied().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let slots = sorted.len();
        Self::counted(keys, 0, Some(sorted), slots)
    }

    /// The counting sort of `keys` into `slots` slots of the given layout.
    fn counted(keys: &[Option<i64>], base: i64, sorted: Option<Vec<i64>>, slots: usize) -> Self {
        let offsets = vec![0u32; slots + 1];
        let mut index = JoinIndex { base, sorted, offsets, rows: Vec::new() };
        for &k in keys.iter().flatten() {
            let s = index.slot(k);
            index.offsets[s + 1] += 1;
        }
        for s in 0..slots {
            index.offsets[s + 1] += index.offsets[s];
        }
        let mut next = index.offsets.clone();
        index.rows = vec![0; index.offsets[slots] as usize];
        for (r, &k) in keys.iter().enumerate() {
            if let Some(s) = k.map(|k| index.slot(k)) {
                index.rows[next[s] as usize] = r as u32;
                next[s] += 1;
            }
        }
        index
    }

    /// `key`'s slot; at or past the last slot when no build row holds it
    /// (a dense key outside the span wraps past it, never back into it).
    #[inline]
    fn slot(&self, key: i64) -> usize {
        match &self.sorted {
            None => usize::try_from(key.wrapping_sub(self.base) as u64).unwrap_or(usize::MAX),
            Some(sorted) => sorted.binary_search(&key).unwrap_or(usize::MAX),
        }
    }

    /// Whether no build row is keyed, so no probe key can match.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Build rows matching `key`, ascending; empty when the key is absent.
    #[inline]
    pub fn get(&self, key: i64) -> &[u32] {
        let s = self.slot(key);
        match (self.offsets.get(s), self.offsets.get(s.wrapping_add(1))) {
            (Some(&lo), Some(&hi)) => &self.rows[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl JoinIndex {
        /// Index `(join key, build row)` pairs in any order: the keys of
        /// the rows they name, every other row NULL.
        fn build(pairs: Vec<(i64, u32)>) -> Self {
            let n = pairs.iter().map(|&(_, r)| r as usize + 1).max().unwrap_or(0);
            let mut keys = vec![None; n];
            for (k, r) in pairs {
                keys[r as usize] = Some(k);
            }
            JoinIndex::new(&keys)
        }
    }

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

    /// Both layouts against a `HashMap` built in row order: every inserted
    /// key, its neighbours at ±1 and ±2, and both ends of the span.
    #[test]
    fn both_layouts_hold_the_hashmap_lists() {
        let threshold = |keyed: i128| (DENSE_SPAN_PER_ROW * keyed + DENSE_SLACK) as i64;
        let fk: Vec<Option<i64>> = (0..5000).map(|i| Some((i * 7919) % 1200)).collect();
        // 100 keyed rows spanning exactly the dense bound, then one past it.
        let span_at = |extra: i64| -> Vec<Option<i64>> {
            let top = threshold(100) - 1 + extra;
            (0..100).map(|i| Some(if i == 99 { top } else { i % 37 })).collect()
        };
        // (what, keys in row order, whether the layout must be dense)
        type Case = (&'static str, Vec<Option<i64>>, Option<bool>);
        let cases: [Case; 8] = [
            ("foreign keys with duplicates", fk, Some(true)),
            ("span at the threshold", span_at(0), Some(true)),
            ("span one past it", span_at(1), Some(false)),
            ("negative base", (0..300).map(|i| (i % 4 != 1).then_some(i - 1000)).collect(), None),
            ("extremes", vec![Some(i64::MIN), None, Some(5), Some(i64::MAX), Some(5)], Some(false)),
            ("one key", vec![None, Some(-7), None], Some(true)),
            ("empty", Vec::new(), None),
            ("all NULL", vec![None; 9], None),
        ];
        for (what, keys, dense) in cases {
            let mut oracle: HashMap<i64, Vec<u32>> = HashMap::new();
            for (r, k) in keys.iter().enumerate() {
                if let Some(k) = k {
                    oracle.entry(*k).or_default().push(r as u32);
                }
            }
            let index = JoinIndex::new(&keys);
            if let Some(dense) = dense {
                assert_eq!(index.sorted.is_none(), dense, "{what}: layout");
            }
            assert_eq!(index.is_empty(), oracle.is_empty(), "{what}: emptiness");
            let (min, max) = (oracle.keys().min().copied(), oracle.keys().max().copied());
            let mut probes: Vec<i64> = [min, max].into_iter().flatten().collect();
            for &k in oracle.keys() {
                probes.extend([-2, -1, 0, 1, 2].map(|d| k.saturating_add(d)));
            }
            probes.extend([i64::MIN, i64::MAX, 0]);
            // The sparse layout takes any key set; the dense one any whose
            // span fits its slots.
            let mut sorted: Vec<i64> = oracle.keys().copied().collect();
            sorted.sort_unstable();
            let sparse = JoinIndex::counted(&keys, 0, Some(sorted.clone()), sorted.len());
            let mut layouts = vec![("chosen", index), ("sparse", sparse)];
            if let (Some(lo), Some(hi)) = (min, max) {
                if let Ok(span) = usize::try_from(i128::from(hi) - i128::from(lo) + 1) {
                    if span <= 1 << 20 {
                        layouts.push(("dense", JoinIndex::counted(&keys, lo, None, span)));
                    }
                }
            }
            for (layout, index) in &layouts {
                for k in &probes {
                    let expected = oracle.get(k).map_or(&[][..], Vec::as_slice);
                    assert_eq!(index.get(*k), expected, "{what}, {layout}: key {k}");
                }
            }
        }
    }
}
