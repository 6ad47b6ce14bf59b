//! Static analysis over the logical plan DAG.
//!
//! This module mirrors `graceful_udf::analysis` one layer up: where the UDF
//! framework runs dataflow over compiled bytecode, this one runs dataflow
//! over the [`Plan`](crate::Plan) operator arena. Three analyses share the
//! same bottom-up/top-down walks:
//!
//! * **Schema/type inference** ([`schema::infer_schemas`]) — resolves every
//!   table, column and UDF input against the storage catalog, checks that
//!   predicate literals are comparable to their columns, that join keys have
//!   an integer view and identical types on both sides, and that aggregates
//!   see the inputs the engine expects.
//! * **Liveness** ([`live_tables_above`]) — for every operator, which
//!   base-table lanes the operators *above* it can still read. A join
//!   output lane whose table is dead above the join never needs to be
//!   carried.
//! * **Cardinality bounds** ([`bounds::upper_bounds`]) — monotone upper
//!   bounds propagated bottom-up (scan ≤ table rows, filter ≤ input,
//!   join ≤ product, aggregate ≤ 1) that `est_out_rows` annotations can be
//!   cross-checked against ([`bounds::verify_bounds`]).
//!
//! Two clients sit on top:
//!
//! * [`verify`] — the **plan verifier** the execution engine runs before
//!   every lowering. It combines
//!   the catalog-free structural checks ([`verify_structure`]: bounds,
//!   arity, genuine cycle/unreachability detection, parent counts,
//!   topological order) with schema inference and estimate sanity, and
//!   rejects malformed plans as typed
//!   [`GracefulError::PlanVerify`](graceful_common::GracefulError::PlanVerify)
//!   diagnostics naming the operator index, kind and column — instead of
//!   letting them surface as engine panics mid-execution. Note that
//!   [`verify`] deliberately does **not** include [`bounds::verify_bounds`]:
//!   the cardinality advisor legitimately scales ancestor estimates past the
//!   monotone bound when enumerating hypothetical UDF selectivities, so the
//!   bound cross-check is a lint (see `examples/lint.rs`), not a gate.
//! * [`RewriteSet`] — the **verified rewrite** derived from liveness:
//!   join-payload pruning (lanes liveness proves unused above a join are
//!   not stored or emitted). A rewrite is an *execution hint*: it never
//!   changes `QueryRun` values or accounted work (all work charges are
//!   closed-form over logical properties), and `Plan::fingerprint` is taken
//!   over the untouched logical plan, so flight-recorder joins stay stable.
//!
//! Like the bytecode analyses, everything here is conservative: an
//! unprovable fact degrades to "keep" (no prune), never to an unsound
//! transformation.

mod bounds;
mod liveness;
mod rewrite;
mod schema;
mod verify;

pub use bounds::{upper_bounds, verify_bounds};
pub use liveness::live_tables_above;
pub use rewrite::{join_keep_lanes, RewriteSet};
pub use schema::{infer_schemas, OpSchema};
pub use verify::{verify, verify_structure};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind};
    use crate::predicate::Pred;
    use graceful_common::GracefulError;
    use graceful_storage::{Column, ColumnData, Database, Table, Value};
    use graceful_udf::ast::CmpOp;

    /// Two small hand-built tables: `a(id, x, note)` (id 1..4, x has a
    /// NULL, note is Text) and `b(a_id, y)`.
    fn db() -> Database {
        let mut a = Table::new(
            "a",
            vec![
                Column::new("id", ColumnData::Int(vec![1, 2, 3, 4])),
                Column::with_nulls(
                    "x",
                    ColumnData::Int(vec![10, 20, 30, 40]),
                    vec![false, true, false, false],
                ),
                Column::new(
                    "note",
                    ColumnData::Text(vec!["p".into(), "q".into(), "r".into(), "s".into()]),
                ),
            ],
        )
        .unwrap();
        a.set_primary_key("id").unwrap();
        let mut b = Table::new(
            "b",
            vec![
                Column::new("a_id", ColumnData::Int(vec![1, 1, 2, 3, 3, 3])),
                Column::new("y", ColumnData::Float(vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5])),
            ],
        )
        .unwrap();
        b.add_foreign_key("a_id", "a", "id");
        Database::new("mini", vec![a, b])
    }

    fn join_plan() -> Plan {
        let ops = vec![
            PlanOp::new(PlanOpKind::Scan { table: "a".into() }, vec![]),
            PlanOp::new(PlanOpKind::Scan { table: "b".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("a", "id"),
                    right_col: ColRef::new("b", "a_id"),
                },
                vec![0, 1],
            ),
            PlanOp::new(
                PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("b", "y")) },
                vec![2],
            ),
        ];
        Plan { ops, root: 3 }
    }

    fn assert_plan_verify(r: graceful_common::Result<()>, needle: &str) {
        match r {
            Err(GracefulError::PlanVerify(m)) => {
                assert!(m.contains(needle), "diagnostic {m:?} should contain {needle:?}")
            }
            other => panic!("expected PlanVerify({needle:?}), got {other:?}"),
        }
    }

    #[test]
    fn verifier_accepts_well_formed_plan() {
        verify(&join_plan(), &db()).unwrap();
    }

    #[test]
    fn structure_rejects_cycles_dangling_arity_and_unreachable() {
        let db = db();
        let mut cyc = join_plan();
        cyc.ops[3].children = vec![3];
        assert_plan_verify(verify(&cyc, &db), "cycle");

        let mut dangle = join_plan();
        dangle.ops[3].children = vec![99];
        assert_plan_verify(verify(&dangle, &db), "dangling child 99");

        let mut arity = join_plan();
        arity.ops[3].children = vec![2, 2];
        assert_plan_verify(verify(&arity, &db), "children (expected 1)");

        let mut unreachable = join_plan();
        unreachable.ops[3].children = vec![1];
        // op 2 (and 0) no longer reachable from the root.
        assert_plan_verify(verify(&unreachable, &db), "unreachable");

        let mut agg_mid = join_plan();
        agg_mid.ops.push(PlanOp::new(PlanOpKind::Filter { preds: vec![] }, vec![3]));
        agg_mid.root = 4;
        assert_plan_verify(verify(&agg_mid, &db), "must be the plan root");
    }

    #[test]
    fn schema_rejects_unknown_names_and_type_mismatches() {
        let db = db();
        let mut bad_table = join_plan();
        bad_table.ops[0].kind = PlanOpKind::Scan { table: "zzz".into() };
        assert_plan_verify(verify(&bad_table, &db), "unknown table zzz");

        let mut bad_col = join_plan();
        bad_col.ops[3].kind =
            PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("b", "nope")) };
        assert_plan_verify(verify(&bad_col, &db), "unknown column b.nope");

        // Int-vs-Float join keys hash differently: rejected.
        let mut bad_keys = join_plan();
        bad_keys.ops[2].kind =
            PlanOpKind::Join { left_col: ColRef::new("a", "id"), right_col: ColRef::new("b", "y") };
        assert_plan_verify(verify(&bad_keys, &db), "mismatched types");

        // Text join key: rejected.
        let mut text_key = join_plan();
        text_key.ops[2].kind = PlanOpKind::Join {
            left_col: ColRef::new("a", "note"),
            right_col: ColRef::new("b", "a_id"),
        };
        assert_plan_verify(verify(&text_key, &db), "type Text");

        // Predicate on a table not bound below.
        let mut unbound = join_plan();
        unbound.ops.insert(
            1,
            PlanOp::new(
                PlanOpKind::Filter {
                    preds: vec![Pred::new("b", "y", CmpOp::Gt, Value::Float(0.0))],
                },
                vec![0],
            ),
        );
        // Re-wire the shifted indices: scan b is now 2, join 3, agg 4.
        unbound.ops[3] = PlanOp::new(
            PlanOpKind::Join {
                left_col: ColRef::new("a", "id"),
                right_col: ColRef::new("b", "a_id"),
            },
            vec![1, 2],
        );
        unbound.ops[4] = PlanOp::new(
            PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("b", "y")) },
            vec![3],
        );
        unbound.root = 4;
        assert_plan_verify(verify(&unbound, &db), "not bound below");

        // NULL literal can never compare.
        let mut null_lit = join_plan();
        null_lit.ops.insert(
            1,
            PlanOp::new(
                PlanOpKind::Filter { preds: vec![Pred::new("a", "id", CmpOp::Eq, Value::Null)] },
                vec![0],
            ),
        );
        null_lit.ops[3] = PlanOp::new(
            PlanOpKind::Join {
                left_col: ColRef::new("a", "id"),
                right_col: ColRef::new("b", "a_id"),
            },
            vec![1, 2],
        );
        null_lit.ops[4] = PlanOp::new(
            PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("b", "y")) },
            vec![3],
        );
        null_lit.root = 4;
        assert_plan_verify(verify(&null_lit, &db), "never compare");
    }

    #[test]
    fn verify_flags_bad_estimates_and_bounds() {
        let db = db();
        let mut nan = join_plan();
        nan.ops[2].est_out_rows = f64::NAN;
        assert_plan_verify(verify(&nan, &db), "est_out_rows");
        let mut neg = join_plan();
        neg.ops[2].est_out_rows = -5.0;
        assert_plan_verify(verify(&neg, &db), "est_out_rows");

        // Bounds: scan a ≤ 4, scan b ≤ 6, join ≤ 24, agg ≤ 1.
        let p = join_plan();
        assert_eq!(upper_bounds(&p, &db).unwrap(), vec![4.0, 6.0, 24.0, 1.0]);
        let mut over = join_plan();
        over.ops[2].est_out_rows = 25.0;
        verify(&over, &db).unwrap(); // gate does not bound-check...
        assert_plan_verify(verify_bounds(&over, &db), "monotone upper bound"); // ...the lint does
        let mut ok = join_plan();
        ok.ops[0].est_out_rows = 4.0;
        ok.ops[1].est_out_rows = 6.0;
        ok.ops[2].est_out_rows = 24.0;
        ok.ops[3].est_out_rows = 1.0;
        verify_bounds(&ok, &db).unwrap();
    }

    #[test]
    fn liveness_and_keep_lanes() {
        let p = join_plan();
        let live = live_tables_above(&p);
        // Above the join: only the AGG, which reads b.y.
        assert!(live[2].contains("b") && !live[2].contains("a"));
        // Above the scans: the join reads both key tables, the agg reads b.
        assert!(live[0].contains("a") && live[0].contains("b"));
        assert!(live[3].is_empty());

        // The a-lane is dead above the join: keep only b's lane.
        let (kl, kr) = join_keep_lanes(&live[2], &["a"], &["b"]).unwrap();
        assert!(kl.is_empty());
        assert_eq!(kr, vec![0]);
        // All lanes dead: keep the first left lane as a row-count carrier.
        let none = std::collections::BTreeSet::new();
        assert_eq!(join_keep_lanes(&none, &["a"], &["b"]).unwrap(), (vec![0], vec![]));
        // Duplicate table names: pruning declines.
        assert!(join_keep_lanes(&live[2], &["a", "b"], &["b"]).is_none());
    }

    #[test]
    fn rewrite_set_is_conservative_on_broken_plans() {
        let db = db();
        let mut broken = join_plan();
        broken.ops[3].children = vec![99];
        let rw = RewriteSet::analyze(&broken, &db);
        assert_eq!(rw.live_above.len(), broken.ops.len());
        assert!(rw.live_above.iter().all(|live| live.is_empty()));

        let rw = RewriteSet::analyze(&join_plan(), &db);
        assert!(rw.live_above[2].contains("b"));
    }
}
