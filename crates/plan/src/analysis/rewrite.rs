//! Verified rewrites: execution hints proven not to change results.
//!
//! A [`RewriteSet`] is computed once per query from the plan, then consumed
//! by lowering. Rewrites never transform the logical plan —
//! `Plan::fingerprint` is taken over the untouched plan, so flight-recorder
//! and featurization-cache joins stay stable — and they never change
//! `QueryRun` values or accounted work.
//!
//! There is one: **join-payload pruning**. A join output lane whose table no
//! ancestor reads is dropped. Row counts (and therefore every closed-form
//! work charge and `peak_inter_rows`, which counts rows not lanes) are
//! unchanged.
//!
//! It degrades conservatively: a table bound twice below a join prunes
//! nothing there.

use crate::analysis::liveness::live_tables_above;
use crate::logical::Plan;
use graceful_storage::Database;
use std::collections::BTreeSet;

/// Decide which input lanes a join's output must carry.
///
/// `live` is the set of tables read strictly above the join
/// ([`live_tables_above`]). Returns `(keep_left, keep_right)` lane indices
/// into the left/right input tuples, or `None` when pruning must be skipped
/// because a table name appears twice across the inputs (lane resolution is
/// by first-occurrence table name, so duplicate names make positional
/// pruning ambiguous). When every lane is dead, the first left lane is kept
/// as a row-count carrier — downstream operators still need `rows.len() /
/// stride` to mean the row count.
pub fn join_keep_lanes(
    live: &BTreeSet<String>,
    ltables: &[&str],
    rtables: &[&str],
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut seen = BTreeSet::new();
    for t in ltables.iter().chain(rtables.iter()) {
        if !seen.insert(*t) {
            return None;
        }
    }
    let keep_l: Vec<usize> = (0..ltables.len()).filter(|&i| live.contains(ltables[i])).collect();
    let keep_r: Vec<usize> = (0..rtables.len()).filter(|&i| live.contains(rtables[i])).collect();
    if keep_l.is_empty() && keep_r.is_empty() {
        return Some((vec![0], Vec::new()));
    }
    Some((keep_l, keep_r))
}

/// The rewrite decisions for one plan, computed up front and consumed by
/// lowering. Construction is infallible: anything unprovable simply isn't
/// rewritten.
#[derive(Debug, Clone)]
pub struct RewriteSet {
    /// Per operator: tables read strictly above it (drives join-lane
    /// pruning via [`join_keep_lanes`]).
    pub live_above: Vec<BTreeSet<String>>,
}

impl RewriteSet {
    /// Analyze a plan. Infallible — a structurally broken plan, which
    /// liveness cannot walk, yields empty sets; lowering rejects such a plan
    /// before it reads them. `_db` is unused: liveness is a property of the
    /// plan alone, and the parameter stays only because `benchmark/` calls
    /// this signature.
    pub fn analyze(plan: &Plan, _db: &Database) -> RewriteSet {
        let live_above = if crate::analysis::verify_structure(plan).is_ok() {
            live_tables_above(plan)
        } else {
            vec![BTreeSet::new(); plan.ops.len()]
        };
        RewriteSet { live_above }
    }
}
