//! Radix-partitioned parallel hash-join build and probe.
//!
//! The build side is split into a fixed [`JOIN_PARTITIONS`] partitions by a
//! pure hash of the key — the
//! layout depends only on key values, never on thread count or arrival
//! order — and each partition's hash table is built independently, so the
//! three build phases parallelize without locks:
//!
//! 1. **Scatter** (parallel, per build morsel): bucket `(key, row)` pairs
//!    by partition.
//! 2. **Merge** (sequential, morsel-index order): concatenate each
//!    partition's buckets in morsel order, restoring global row order
//!    within every partition.
//! 3. **Index** (parallel, per partition): insert in that order, so every
//!    key's match list is exactly the row-ascending list the sequential
//!    `HashMap` build produced.
//!
//! Probes then read identical match lists regardless of `GRACEFUL_THREADS`,
//! which is what keeps join output — and everything downstream of it —
//! bit-identical. Each build reports its non-empty partition count to the
//! registry counter `join.partitions`.

use graceful_common::Result;
use graceful_obs::registry::{counter, Counter};
use graceful_runtime::Pool;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Fixed partition fan-out. A power of two so the hash folds with a mask;
/// small enough that phase-2 merge stays cheap on tiny build sides.
pub(crate) const JOIN_PARTITIONS: usize = 16;

/// Registry counter for non-empty partitions across all join builds.
fn join_partitions_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| counter("join.partitions"))
}

/// Partition of a join key: SplitMix64 finalizer folded to the fan-out.
/// Pure function of the key so the partition layout is reproducible.
#[inline]
pub(crate) fn partition_of(key: i64) -> usize {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z & (JOIN_PARTITIONS as u64 - 1)) as usize
}

/// Partitioned build-side index: key → build-row ids ascending.
pub(crate) struct PartitionedIndex {
    parts: Vec<HashMap<i64, Vec<u32>>>,
}

impl PartitionedIndex {
    /// Build from `n` build-side rows chunked into `morsel`-row morsels.
    /// `key_of(r)` returns row `r`'s join key, or `None` for NULL keys
    /// (which never match and are dropped here).
    pub(crate) fn build(
        pool: &Pool,
        n: usize,
        morsel: usize,
        key_of: impl Fn(usize) -> Option<i64> + Sync,
    ) -> Result<Self> {
        // Phase 1: scatter each morsel's keys into per-partition buckets.
        let scattered = pool.try_map_init(
            Pool::morsel_count(n, morsel),
            || (),
            |_, m| {
                let mut buckets: Vec<Vec<(i64, u32)>> = vec![Vec::new(); JOIN_PARTITIONS];
                for r in Pool::morsel_range(m, n, morsel) {
                    if let Some(k) = key_of(r) {
                        buckets[partition_of(k)].push((k, r as u32));
                    }
                }
                buckets
            },
        )?;
        // Phase 2: concatenate per partition in morsel-index order. Rows
        // within a partition come out globally ascending.
        let mut per_part: Vec<Vec<(i64, u32)>> = vec![Vec::new(); JOIN_PARTITIONS];
        for buckets in scattered {
            for (p, b) in buckets.into_iter().enumerate() {
                per_part[p].extend(b);
            }
        }
        // Phase 3: index each partition independently.
        let parts = pool.try_map_init(
            JOIN_PARTITIONS,
            || (),
            |_, p| {
                let entries = &per_part[p];
                let mut map: HashMap<i64, Vec<u32>> = HashMap::with_capacity(entries.len());
                for &(k, r) in entries {
                    map.entry(k).or_default().push(r);
                }
                map
            },
        )?;
        join_partitions_counter().add(parts.iter().filter(|m| !m.is_empty()).count() as u64);
        Ok(PartitionedIndex { parts })
    }

    /// Build-row ids matching `key`, ascending; `None` when absent.
    #[inline]
    pub(crate) fn get(&self, key: i64) -> Option<&[u32]> {
        self.parts[partition_of(key)].get(&key).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<Option<i64>> {
        // Duplicates, NULLs, negatives, and extremes across partitions.
        let mut ks: Vec<Option<i64>> = (0..997).map(|i| Some((i * 37) % 101 - 50)).collect();
        ks[13] = None;
        ks[500] = None;
        ks.push(Some(i64::MIN));
        ks.push(Some(i64::MAX));
        ks
    }

    fn index_with(threads: usize, morsel: usize) -> PartitionedIndex {
        let ks = keys();
        let pool = Pool::new(threads);
        PartitionedIndex::build(&pool, ks.len(), morsel, move |r| ks[r]).expect("no morsel panics")
    }

    #[test]
    fn matches_sequential_hashmap_build_exactly() {
        let ks = keys();
        let mut reference: HashMap<i64, Vec<u32>> = HashMap::new();
        for (r, k) in ks.iter().enumerate() {
            if let Some(k) = k {
                reference.entry(*k).or_default().push(r as u32);
            }
        }
        for threads in [1, 2, 4] {
            for morsel in [1, 64, 10_000] {
                let idx = index_with(threads, morsel);
                for (k, rows) in &reference {
                    assert_eq!(
                        idx.get(*k),
                        Some(rows.as_slice()),
                        "key {k} at threads={threads} morsel={morsel}"
                    );
                }
                assert!(idx.get(999_999).is_none());
            }
        }
    }

    #[test]
    fn partition_of_covers_fanout_and_is_stable() {
        let mut seen = [false; JOIN_PARTITIONS];
        for k in -2000i64..2000 {
            let p = partition_of(k);
            assert!(p < JOIN_PARTITIONS);
            assert_eq!(p, partition_of(k), "pure function of the key");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "4k consecutive keys should touch all partitions");
    }
}
