//! Sampling-based estimation (the paper's WanderJoin column).
//!
//! WanderJoin estimates join cardinalities by random walks through join
//! indexes. We reproduce its statistical character — unbiased-ish medians,
//! heavy error tails on selective queries — by pushing a bounded row sample
//! through the plan: scans draw `walks` random rows, filters thin the sample
//! (tracking the survival ratio), joins probe the full build side — through
//! the executor's own [`JoinIndex`], so a walk sees exactly the row-ascending
//! match lists a probe would — but keep at most `walks` result rows
//! (re-scaling the estimate), so estimation cost stays O(walks · plan depth)
//! like WanderJoin's.

use crate::CardEstimator;
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result};
use graceful_exec::join::JoinIndex;
use graceful_plan::{Plan, PlanOpKind, Pred};
use graceful_storage::Database;
use std::cell::RefCell;

/// Sampling estimator (default 100 walks, like the paper's configuration).
pub struct SamplingCard<'a> {
    db: &'a Database,
    walks: usize,
    rng: RefCell<Rng>,
}

/// Sample flowing through the plan: per sampled tuple one row id per bound
/// table, plus the scale factor mapping sample size to estimated rows.
struct SampleRel {
    tables: Vec<String>,
    rows: Vec<u32>,
    /// Estimated real cardinality this sample represents.
    estimate: f64,
}

impl SampleRel {
    fn n(&self) -> usize {
        if self.tables.is_empty() {
            0
        } else {
            self.rows.len() / self.tables.len()
        }
    }
}

impl<'a> SamplingCard<'a> {
    pub fn new(db: &'a Database, walks: usize, seed: u64) -> Self {
        SamplingCard { db, walks: walks.max(4), rng: RefCell::new(Rng::seed(seed)) }
    }

    /// One sampled join step: probe the full right base table from the left
    /// sample (WanderJoin walks into indexes, so the true fan-out is
    /// visible), keep one random continuation per walk, and scale the
    /// estimate by the observed average fan-out and the right side's
    /// survival ratio.
    fn join_sample(
        &self,
        left: SampleRel,
        right: SampleRel,
        left_col: &graceful_plan::ColRef,
        right_col: &graceful_plan::ColRef,
        rng: &mut Rng,
    ) -> Result<SampleRel> {
        let lpos = left.tables.iter().position(|t| *t == left_col.table);
        let rpos = right.tables.iter().position(|t| *t == right_col.table);
        let (lpos, rpos) = match (lpos, rpos) {
            (Some(l), Some(r)) => (l, r),
            _ => {
                let estimate = left.estimate.min(right.estimate);
                return Ok(SampleRel { tables: left.tables, rows: left.rows, estimate });
            }
        };
        let rtab = self.db.table(&right_col.table)?;
        let rcol = rtab.column(&right_col.column)?;
        let keys: Vec<_> = (0..rtab.num_rows()).map(|r| rcol.get_i64(r)).collect();
        let index = JoinIndex::new(&keys);
        let r_base = rtab.num_rows() as f64;
        let r_ratio = if r_base > 0.0 { right.estimate / r_base } else { 0.0 };
        let ltab = self.db.table(&left_col.table)?;
        let lcol = ltab.column(&left_col.column)?;
        let lstride = left.tables.len();
        let ln = left.n();
        let mut fanout_sum = 0.0f64;
        let mut out_rows: Vec<u32> = Vec::new();
        let rstride = right.tables.len();
        let mut kept = 0usize;
        for l in 0..ln {
            let lid = left.rows[l * lstride + lpos] as usize;
            let Some(k) = lcol.get_i64(lid) else { continue };
            let matches = index.get(k);
            fanout_sum += matches.len() as f64;
            // Keep at most one continuation per walk (WanderJoin walks a
            // single random edge). Multi-table right sides need a non-empty
            // right sample to draw companion rows from.
            if !matches.is_empty()
                && kept < self.walks
                && (right.tables.len() == 1 || right.n() > 0)
            {
                let pick = matches[rng.range(0..matches.len())];
                out_rows.extend_from_slice(&left.rows[l * lstride..(l + 1) * lstride]);
                // The joined-in table takes the walked row; any other tables
                // already bound on the right (bushy samples) are re-sampled.
                for ti in 0..right.tables.len() {
                    if ti == rpos {
                        out_rows.push(pick);
                    } else {
                        let rn = right.n().max(1);
                        out_rows.push(right.rows[rng.range(0..rn) * rstride + ti]);
                    }
                }
                kept += 1;
            }
        }
        let avg_fanout = if ln > 0 { fanout_sum / ln as f64 } else { 0.0 };
        let estimate = left.estimate * avg_fanout * r_ratio;
        let mut tables = left.tables;
        tables.extend(right.tables);
        Ok(SampleRel { tables, rows: out_rows, estimate })
    }
}

impl CardEstimator for SamplingCard<'_> {
    fn name(&self) -> &'static str {
        "WanderJoin-like (sampling)"
    }

    fn annotate(&self, plan: &mut Plan) -> Result<()> {
        let mut rng = self.rng.borrow_mut();
        let mut rels: Vec<Option<SampleRel>> = (0..plan.ops.len()).map(|_| None).collect();
        for idx in 0..plan.ops.len() {
            // Children come before their parent and feed it alone: a child
            // that is missing, later in the plan or already consumed by
            // another operator has no sample here.
            let mut child = |i: usize| -> Result<SampleRel> {
                let c = *plan.ops[idx].children.get(i).ok_or_else(|| {
                    GracefulError::InvalidPlan(format!("op {idx}: child {i} is missing"))
                })?;
                rels.get_mut(c).and_then(Option::take).ok_or_else(|| {
                    GracefulError::InvalidPlan(format!(
                        "op {idx}: child {c} is not an earlier operator feeding only op {idx}"
                    ))
                })
            };
            let (rel, est) = match &plan.ops[idx].kind {
                PlanOpKind::Scan { table } => {
                    let t = self.db.table(table)?;
                    let n = t.num_rows();
                    let k = self.walks.min(n);
                    let rows: Vec<u32> = (0..k).map(|_| rng.range(0..n.max(1)) as u32).collect();
                    let est = n as f64;
                    (SampleRel { tables: vec![table.clone()], rows, estimate: est }, est)
                }
                PlanOpKind::Filter { preds } => {
                    let child = child(0)?;
                    let stride = child.tables.len();
                    let n = child.n();
                    let mut rows = Vec::new();
                    let mut kept = 0usize;
                    for r in 0..n {
                        let ok = preds.iter().all(|p| {
                            child
                                .tables
                                .iter()
                                .position(|t| *t == p.col.table)
                                .and_then(|pos| self.db.table(&p.col.table).ok().map(|t| (pos, t)))
                                .is_some_and(|(pos, t)| {
                                    p.matches(t, child.rows[r * stride + pos] as usize)
                                })
                        });
                        if ok {
                            kept += 1;
                            rows.extend_from_slice(&child.rows[r * stride..(r + 1) * stride]);
                        }
                    }
                    let ratio = if n > 0 { kept as f64 / n as f64 } else { 0.0 };
                    let est = child.estimate * ratio;
                    (SampleRel { tables: child.tables, rows, estimate: est }, est)
                }
                PlanOpKind::Join { left_col, right_col } => {
                    let (left, right) = (child(0)?, child(1)?);
                    let rel = self.join_sample(left, right, left_col, right_col, &mut rng)?;
                    let est = rel.estimate;
                    (rel, est)
                }
                PlanOpKind::UdfFilter { .. } => {
                    let child = child(0)?;
                    let est = child.estimate * crate::udf_filter_hint(plan, idx);
                    (SampleRel { estimate: est, ..child }, est)
                }
                PlanOpKind::UdfProject { .. } => {
                    let child = child(0)?;
                    let est = child.estimate;
                    (child, est)
                }
                PlanOpKind::Agg { .. } => {
                    let child = child(0)?;
                    (SampleRel { tables: child.tables, rows: Vec::new(), estimate: 1.0 }, 1.0)
                }
            };
            plan.ops[idx].est_out_rows = est.max(0.0);
            rels[idx] = Some(rel);
        }
        Ok(())
    }

    fn conjunction_selectivity(&self, table: &str, preds: &[Pred]) -> f64 {
        let t = match self.db.table(table) {
            Ok(t) => t,
            Err(_) => return 0.5,
        };
        let n = t.num_rows();
        if n == 0 {
            return 0.0;
        }
        let mut rng = self.rng.borrow_mut();
        let k = self.walks.min(n);
        let mut hits = 0usize;
        for _ in 0..k {
            let r = rng.range(0..n);
            if preds.iter().all(|p| p.matches(t, r)) {
                hits += 1;
            }
        }
        hits as f64 / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::datagen::{generate, schema};
    use graceful_storage::Value;
    use graceful_udf::ast::CmpOp;

    #[test]
    fn selectivity_approximates_truth() {
        let db = generate(&schema("tpc_h"), 0.1, 3);
        let est = SamplingCard::new(&db, 400, 7);
        let sel = est.conjunction_selectivity(
            "lineitem_t",
            &[Pred::new("lineitem_t", "quantity", CmpOp::Le, Value::Int(25))],
        );
        assert!((sel - 0.5).abs() < 0.12, "sel={sel}");
    }

    #[test]
    fn selective_predicates_have_high_variance() {
        // A very selective predicate often yields 0 hits with 50 walks —
        // the heavy-tail failure mode of sampling estimators.
        let db = generate(&schema("tpc_h"), 0.1, 3);
        let t = db.table("lineitem_t").unwrap();
        let n = t.num_rows();
        let est = SamplingCard::new(&db, 50, 9);
        let sel = est.conjunction_selectivity(
            "lineitem_t",
            &[Pred::new("lineitem_t", "quantity", CmpOp::Le, Value::Int(1))],
        );
        // Truth is ~2%; the sample estimate is coarse: it can only be a
        // multiple of 1/50.
        let granularity = sel * 50.0;
        assert!(granularity.fract().abs() < 1e-9, "estimate must be k/50");
        let _ = n;
    }

    #[test]
    fn plan_annotation_tracks_joins_reasonably() {
        use graceful_plan::{AggFunc, ColRef, Plan, PlanOp};
        let db = generate(&schema("tpc_h"), 0.1, 3);
        let mut plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("orders_t", "cust_id"),
                        right_col: ColRef::new("customer_t", "id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        let est = SamplingCard::new(&db, 200, 5);
        est.annotate(&mut plan).unwrap();
        let truth = db.table("orders_t").unwrap().num_rows() as f64;
        let q = (plan.ops[2].est_out_rows / truth).max(truth / plan.ops[2].est_out_rows);
        assert!(q < 1.6, "join estimate off by {q}: est={}", plan.ops[2].est_out_rows);
    }

    #[test]
    fn malformed_plans_are_typed_errors_not_panics() {
        use graceful_common::GracefulError;
        use graceful_plan::{AggFunc, ColRef, PlanOp};
        let db = generate(&schema("tpc_h"), 0.02, 3);
        let scan = |t: &str| PlanOp::new(PlanOpKind::Scan { table: t.into() }, vec![]);
        let agg = |children| {
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, children)
        };
        let join = |children| {
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("orders_t", "cust_id"),
                    right_col: ColRef::new("customer_t", "id"),
                },
                children,
            )
        };
        let shapes = [
            ("shared", vec![scan("orders_t"), join(vec![0, 0]), agg(vec![1])]),
            ("forward", vec![agg(vec![1]), scan("orders_t")]),
            ("missing", vec![scan("orders_t"), scan("customer_t"), join(vec![0]), agg(vec![2])]),
            ("dangling", vec![scan("orders_t"), agg(vec![7])]),
        ];
        for (what, ops) in shapes {
            let root = ops.len() - 1;
            let mut plan = Plan { ops, root };
            match SamplingCard::new(&db, 50, 1).annotate(&mut plan) {
                Err(GracefulError::InvalidPlan(_)) => {}
                other => panic!("{what} child: {other:?}"),
            }
        }
    }

    #[test]
    fn join_index_moves_no_estimate_on_generated_joins() {
        // The walk used to probe a private `HashMap<i64, Vec<u32>>` built in
        // row order. For every generated fact→dimension join, the shared
        // `JoinIndex` holds exactly those match lists, so the walk draws the
        // same `rng` values; and every annotated `est_out_rows` still has
        // the bits recorded with the `HashMap` at commit ee37079.
        use graceful_plan::{build_plan, QueryGenerator, UdfPlacement};
        use std::collections::HashMap;
        let db = generate(&schema("tpc_h"), 0.1, 3);
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(17);
        let est = SamplingCard::new(&db, 100, 0xACE5);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut joins = 0;
        for id in 0..24 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            let mut plan = build_plan(&spec, UdfPlacement::PushDown).unwrap();
            for op in &plan.ops {
                let PlanOpKind::Join { right_col, .. } = &op.kind else { continue };
                let col = db.table(&right_col.table).unwrap().column(&right_col.column).unwrap();
                let mut by_hash: HashMap<i64, Vec<u32>> = HashMap::new();
                let keys: Vec<_> = (0..col.len()).map(|r| col.get_i64(r)).collect();
                for (r, k) in keys.iter().enumerate() {
                    if let Some(k) = k {
                        by_hash.entry(*k).or_default().push(r as u32);
                    }
                }
                let index = JoinIndex::new(&keys);
                assert!(by_hash.iter().all(|(k, rows)| index.get(*k) == rows.as_slice()));
                joins += 1;
            }
            est.annotate(&mut plan).unwrap();
            for op in &plan.ops {
                digest = (digest ^ op.est_out_rows.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        assert_eq!(joins, 53, "the generator's join mix changed; re-record the digest");
        assert_eq!(digest, 0x714d_0e79_eaa0_f0cc, "an estimate moved");
    }
}
