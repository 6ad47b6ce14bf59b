//! Node and edge types of the UDF DAG, mirroring Table I of the paper.
//!
//! The featurization is *transferable*: nothing in a node refers to concrete
//! identifiers, table names or comparison literals — only to closed
//! vocabularies (operator sets, library functions, data types) plus
//! magnitudes: a loop's `nr_iter` here, and the rows reaching each node,
//! which the annotator computes per query ([`crate::ControlPaths::in_rows`]).
//! This is what lets one trained model generalize to unseen UDFs and
//! databases.

use graceful_storage::DataType;
use graceful_udf::ast::{BinOp, CmpOp};
use graceful_udf::LibFn;

/// The five node types of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdfNodeKind {
    /// Invocation: input conversion DBMS → UDF runtime.
    Inv,
    /// A single computation statement (after single-statement splitting).
    Comp,
    /// An `if` condition.
    Branch,
    /// Loop head.
    Loop,
    /// Explicit loop end (transformation (4) of the ablation study).
    LoopEnd,
    /// Return: output conversion UDF runtime → DBMS.
    Ret,
}

impl UdfNodeKind {
    pub const COUNT: usize = 6;

    pub fn index(self) -> usize {
        match self {
            UdfNodeKind::Inv => 0,
            UdfNodeKind::Comp => 1,
            UdfNodeKind::Branch => 2,
            UdfNodeKind::Loop => 3,
            UdfNodeKind::LoopEnd => 4,
            UdfNodeKind::Ret => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            UdfNodeKind::Inv => "INV",
            UdfNodeKind::Comp => "COMP",
            UdfNodeKind::Branch => "BRANCH",
            UdfNodeKind::Loop => "LOOP",
            UdfNodeKind::LoopEnd => "LOOP_END",
            UdfNodeKind::Ret => "RET",
        }
    }
}

/// Loop kind feature (`loop_type` in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKindFeat {
    For,
    While,
}

/// Edge kinds of the DAG.
///
/// Execution-probability propagation follows `Flow`/`BranchTrue`/
/// `BranchFalse`; `Residual` edges are GNN shortcuts only (transformation (5)
/// of the ablation study) and are excluded from path enumeration, exactly as
/// footnote 4 of the paper prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential control flow.
    Flow,
    /// Branch taken (condition true).
    BranchTrue,
    /// Branch not taken.
    BranchFalse,
    /// Residual LOOP → LOOP_END shortcut.
    Residual,
}

/// A traceable branch condition: `param CMP literal`.
///
/// The hit-ratio estimator rewrites these back to predicates over the UDF's
/// input columns. Conditions over derived variables are untraceable and get
/// the 0.5 fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchCondInfo {
    /// UDF parameter name the condition tests.
    pub param: String,
    /// Comparison operator (normalized so the parameter is on the left).
    pub op: CmpOp,
    /// Comparison literal.
    pub literal: f64,
}

/// A node of the UDF DAG with its Table I features.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfNode {
    pub kind: UdfNodeKind,
    /// INV: histogram of argument data types (count per [`DataType`]).
    pub in_dts: [u8; DataType::COUNT],
    /// INV: number of UDF parameters.
    pub nr_params: u8,
    /// COMP: library calls performed by the statement, as a count per
    /// function (indexed by [`LibFn::index`]).
    pub libs: [u32; LibFn::COUNT],
    /// COMP: arithmetic operators used by the statement, as a count per
    /// operator (indexed by [`BinOp::index`]).
    pub ops: [u32; BinOp::ALL.len()],
    /// BRANCH: comparison operator of the condition.
    pub cmp_op: Option<CmpOp>,
    /// BRANCH: traceable condition, if any.
    pub cond: Option<BranchCondInfo>,
    /// Whether the node sits inside a loop body (`loop_part`).
    pub loop_part: bool,
    /// LOOP / LOOP_END: loop kind.
    pub loop_kind: Option<LoopKindFeat>,
    /// LOOP / LOOP_END: estimated trip count (`nr_iter`).
    pub nr_iter: f64,
    /// RET: output data type.
    pub out_dt: Option<DataType>,
    /// COMP/BRANCH: indices of UDF parameters the statement reads directly
    /// (drives the COLUMN → COMP data-flow edges of the joint graph,
    /// Section III-C).
    pub param_reads: Vec<u8>,
}

impl UdfNode {
    /// A blank node of the given kind (features zeroed).
    pub fn new(kind: UdfNodeKind) -> Self {
        UdfNode {
            kind,
            in_dts: [0; DataType::COUNT],
            nr_params: 0,
            libs: [0; LibFn::COUNT],
            ops: [0; BinOp::ALL.len()],
            cmp_op: None,
            cond: None,
            loop_part: false,
            loop_kind: None,
            nr_iter: 0.0,
            out_dt: None,
            param_reads: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_dense() {
        let all = [
            UdfNodeKind::Inv,
            UdfNodeKind::Comp,
            UdfNodeKind::Branch,
            UdfNodeKind::Loop,
            UdfNodeKind::LoopEnd,
            UdfNodeKind::Ret,
        ];
        let mut seen = [false; UdfNodeKind::COUNT];
        for k in all {
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(UdfNodeKind::LoopEnd.name(), "LOOP_END");
        assert_eq!(UdfNodeKind::Inv.name(), "INV");
    }
}
