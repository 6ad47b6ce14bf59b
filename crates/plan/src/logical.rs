//! The logical plan arena.
//!
//! Plans are stored as a flat operator arena ([`Plan::ops`]) with child
//! indices — the representation the executor walks, the cardinality
//! estimators annotate, and the featurizer turns into query-graph nodes.
//! Children always have smaller indices than their parents (the arena is in
//! topological order), which both the executor and the GNN's topological
//! message passing rely on.

use crate::predicate::Pred;
use graceful_common::Result;
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::fmt::Write as _;
use std::sync::Arc;

/// A fully qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    pub table: String,
    pub column: String,
}

impl ColRef {
    pub fn new(table: &str, column: &str) -> Self {
        ColRef { table: table.to_string(), column: column.to_string() }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Aggregate functions (plans are single-aggregate SPJA, no GROUP BY).
///
/// Over an empty input every aggregate is pinned to a number (the engine's
/// `QueryRun::agg_value` is a plain `f64`, so there is no NULL): `COUNT(*)`
/// is 0, and `SUM`/`AVG`/`MIN`/`MAX` are 0.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub const ALL: [AggFunc; 5] =
        [AggFunc::CountStar, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&a| a == self).expect("agg in ALL")
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Operator kinds.
#[derive(Debug, Clone)]
pub enum PlanOpKind {
    /// Base-table scan.
    Scan { table: String },
    /// Conjunctive filter of simple predicates.
    Filter { preds: Vec<Pred> },
    /// Equi hash join (`left_col = right_col`); children `[left, right]`.
    Join { left_col: ColRef, right_col: ColRef },
    /// Filter on a UDF's output: `udf(args...) OP literal`.
    UdfFilter { udf: Arc<GeneratedUdf>, op: CmpOp, literal: f64 },
    /// Compute the UDF per row as a projected column (consumed by Agg).
    UdfProject { udf: Arc<GeneratedUdf> },
    /// Final aggregate. `column: None` aggregates the UDF-projected column
    /// when a UdfProject is below, otherwise it is COUNT(*).
    Agg { func: AggFunc, column: Option<ColRef> },
}

impl PlanOpKind {
    pub const TYPE_COUNT: usize = 6;

    pub fn name(&self) -> &'static str {
        match self {
            PlanOpKind::Scan { .. } => "SCAN",
            PlanOpKind::Filter { .. } => "FILTER",
            PlanOpKind::Join { .. } => "JOIN",
            PlanOpKind::UdfFilter { .. } => "UDF_FILTER",
            PlanOpKind::UdfProject { .. } => "UDF_PROJECT",
            PlanOpKind::Agg { .. } => "AGG",
        }
    }
}

/// One operator with its annotation slots.
#[derive(Debug, Clone)]
pub struct PlanOp {
    pub kind: PlanOpKind,
    pub children: Vec<usize>,
    /// Estimated output cardinality (filled by a cardinality estimator).
    pub est_out_rows: f64,
    /// Actual output cardinality (filled by the executor).
    pub actual_out_rows: f64,
}

impl PlanOp {
    pub fn new(kind: PlanOpKind, children: Vec<usize>) -> Self {
        PlanOp { kind, children, est_out_rows: 0.0, actual_out_rows: 0.0 }
    }

    /// True for `UdfFilter` / `UdfProject`.
    pub fn is_udf_op(&self) -> bool {
        matches!(self.kind, PlanOpKind::UdfFilter { .. } | PlanOpKind::UdfProject { .. })
    }
}

/// A logical plan: operator arena in topological order plus the root index.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ops: Vec<PlanOp>,
    pub root: usize,
}

impl Plan {
    /// Validate arena invariants. A thin wrapper over
    /// [`crate::analysis::verify_structure`] — the single source of truth
    /// for structural checks (child bounds, operator arity, genuine
    /// cycle/unreachability detection, parent counts, topological order).
    /// Violations surface as
    /// [`GracefulError::PlanVerify`](graceful_common::GracefulError::PlanVerify).
    /// Catalog-backed
    /// checks (schema, types, estimate sanity) live in
    /// [`crate::analysis::verify`].
    pub fn validate(&self) -> Result<()> {
        crate::analysis::verify_structure(self)
    }

    /// Index of the UDF operator, if the plan has one.
    pub fn udf_op(&self) -> Option<usize> {
        self.ops.iter().position(PlanOp::is_udf_op)
    }

    /// Number of joins in the plan.
    pub fn join_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o.kind, PlanOpKind::Join { .. })).count()
    }

    /// All base tables scanned.
    pub fn tables(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter_map(|o| match &o.kind {
                PlanOpKind::Scan { table } => Some(table.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Operators on the path from `from` (exclusive) up to the root
    /// (inclusive) — the operators "above" an op, whose cardinalities the
    /// advisor scales when enumerating UDF-filter selectivities.
    pub fn ops_above(&self, from: usize) -> Vec<usize> {
        let mut parent = vec![usize::MAX; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            for &c in &op.children {
                parent[c] = i;
            }
        }
        let mut out = Vec::new();
        let mut cur = parent[from];
        while cur != usize::MAX {
            out.push(cur);
            cur = parent[cur];
        }
        out
    }

    /// Number of operators in the subtree rooted at `op` (inclusive).
    pub fn subtree_size(&self, op: usize) -> usize {
        let mut count = 0;
        let mut stack = vec![op];
        while let Some(i) = stack.pop() {
            count += 1;
            stack.extend(self.ops[i].children.iter().copied());
        }
        count
    }

    /// A stable structural fingerprint of the plan: FNV-1a over every
    /// operator's kind, arguments (tables, predicates, join columns, UDF
    /// name + source, comparison + literal bits, aggregate) and child
    /// indices. Annotation slots (`est_out_rows` / `actual_out_rows`) are
    /// deliberately **excluded**, so the fingerprint identifies the plan
    /// *shape* across annotated and unannotated copies — the key the flight
    /// recorder and featurization caches join on. The hash is a fixed
    /// algorithm over explicit bytes (not `std::hash`), so it is stable
    /// across runs, platforms and compiler versions.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            // Separator so concatenated fields cannot alias.
            h ^= 0xff;
            h = h.wrapping_mul(FNV_PRIME);
        };
        eat(&(self.ops.len() as u64).to_le_bytes());
        eat(&(self.root as u64).to_le_bytes());
        for op in &self.ops {
            eat(op.kind.name().as_bytes());
            for &c in &op.children {
                eat(&(c as u64).to_le_bytes());
            }
            match &op.kind {
                PlanOpKind::Scan { table } => eat(table.as_bytes()),
                PlanOpKind::Filter { preds } => {
                    for p in preds {
                        eat(p.display().as_bytes());
                    }
                }
                PlanOpKind::Join { left_col, right_col } => {
                    eat(left_col.to_string().as_bytes());
                    eat(right_col.to_string().as_bytes());
                }
                PlanOpKind::UdfFilter { udf, op, literal } => {
                    eat(udf.def.name.as_bytes());
                    eat(udf.source.as_bytes());
                    eat(op.symbol().as_bytes());
                    eat(&literal.to_bits().to_le_bytes());
                }
                PlanOpKind::UdfProject { udf } => {
                    eat(udf.def.name.as_bytes());
                    eat(udf.source.as_bytes());
                }
                PlanOpKind::Agg { func, column } => {
                    eat(func.name().as_bytes());
                    if let Some(c) = column {
                        eat(c.to_string().as_bytes());
                    }
                }
            }
        }
        h
    }

    /// [`Plan::fingerprint`] rendered as 16 lowercase hex digits — the form
    /// stored in flight-recorder records.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// EXPLAIN-style rendering with cardinality annotations.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_rec(self.root, 0, &mut out);
        out
    }

    fn explain_rec(&self, idx: usize, depth: usize, out: &mut String) {
        let op = &self.ops[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = match &op.kind {
            PlanOpKind::Scan { table } => format!("SCAN {table}"),
            PlanOpKind::Filter { preds } => {
                let ps: Vec<String> = preds.iter().map(Pred::display).collect();
                format!("FILTER {}", ps.join(" AND "))
            }
            PlanOpKind::Join { left_col, right_col } => {
                format!("JOIN {left_col} = {right_col}")
            }
            PlanOpKind::UdfFilter { udf, op, literal } => {
                format!("UDF_FILTER {}(...) {} {literal}", udf.def.name, op.symbol())
            }
            PlanOpKind::UdfProject { udf } => format!("UDF_PROJECT {}(...)", udf.def.name),
            PlanOpKind::Agg { func, column } => match column {
                Some(c) => format!("AGG {}({c})", func.name()),
                None => format!("AGG {}", func.name()),
            },
        };
        let _ = writeln!(
            out,
            "{label}  [est={:.0}, actual={:.0}]",
            op.est_out_rows, op.actual_out_rows
        );
        for &c in &op.children {
            self.explain_rec(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_plan() -> Plan {
        // AGG <- JOIN <- (SCAN a, SCAN b)
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
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
        ];
        Plan { ops, root: 3 }
    }

    #[test]
    fn validate_accepts_well_formed() {
        two_table_plan().validate().unwrap();
    }

    #[test]
    fn validate_rejects_forward_children() {
        let mut p = two_table_plan();
        p.ops[2].children = vec![0, 3];
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_shared_children() {
        let mut p = two_table_plan();
        p.ops[3].children = vec![2, 2];
        assert!(p.validate().is_err());
    }

    #[test]
    fn ops_above_walks_to_root() {
        let p = two_table_plan();
        assert_eq!(p.ops_above(0), vec![2, 3]);
        assert_eq!(p.ops_above(2), vec![3]);
        assert!(p.ops_above(3).is_empty());
    }

    #[test]
    fn fingerprint_is_structural_and_annotation_invariant() {
        let p = two_table_plan();
        let fp = p.fingerprint();
        assert_eq!(p.fingerprint(), fp, "deterministic");
        assert_eq!(p.fingerprint_hex(), format!("{fp:016x}"));
        assert_eq!(p.fingerprint_hex().len(), 16);

        // Annotations do not move the fingerprint...
        let mut annotated = p.clone();
        annotated.ops[0].est_out_rows = 123.0;
        annotated.ops[2].actual_out_rows = 45.0;
        assert_eq!(annotated.fingerprint(), fp);

        // ...but structural changes do.
        let mut other_table = p.clone();
        other_table.ops[1].kind = PlanOpKind::Scan { table: "c".into() };
        assert_ne!(other_table.fingerprint(), fp);
        let mut other_agg = p.clone();
        other_agg.ops[3].kind =
            PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("a", "id")) };
        assert_ne!(other_agg.fingerprint(), fp);
        let mut other_shape = p.clone();
        other_shape.ops[2].children = vec![1, 0];
        assert_ne!(other_shape.fingerprint(), fp);
    }

    #[test]
    fn metadata_helpers() {
        let p = two_table_plan();
        assert_eq!(p.join_count(), 1);
        assert_eq!(p.tables(), vec!["a", "b"]);
        assert_eq!(p.udf_op(), None);
        assert_eq!(p.subtree_size(p.root), 4);
        assert!(p.explain().contains("JOIN a.id = b.a_id"));
    }
}
