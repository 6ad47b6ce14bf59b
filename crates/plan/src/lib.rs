//! Logical query plans and workload generation.
//!
//! The paper's workload is SPJA queries (1–5 joins, up to 21 filters, one
//! aggregate) that invoke a scalar UDF either inside a filter predicate or in
//! the projection/aggregation (Section V). This crate provides:
//!
//! * [`predicate`] — simple column-vs-literal predicates,
//! * [`logical`] — the plan arena ([`logical::Plan`]) with per-operator
//!   cardinality annotation slots (estimated *and* actual),
//! * [`querygen`] — the workload generator: FK-walk join trees, filters from
//!   column statistics, UDF placement, and selectivity-controlled UDF filter
//!   literals (Table II's 0.0001–1.0 range),
//! * [`variants`] — the pull-up / intermediate / push-down rewrites the
//!   advisor of Section IV chooses between,
//! * [`analysis`] — static analysis over the plan DAG: the pre-execution
//!   verifier ([`analysis::verify`]), schema/type inference, liveness,
//!   monotone cardinality bounds, and the verified rewrite hint
//!   ([`analysis::RewriteSet`]) lowering consumes.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod logical;
pub mod predicate;
pub mod querygen;
pub mod variants;

pub use analysis::RewriteSet;
pub use logical::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind};
pub use predicate::Pred;
pub use querygen::{QueryGenConfig, QueryGenerator, QuerySpec, UdfUsage};
pub use variants::{build_plan, valid_placements, UdfPlacement};
