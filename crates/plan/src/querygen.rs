//! The SPJA+UDF workload generator (Section V, component 2).
//!
//! Queries are generated per database: a foreign-key random walk builds a
//! join tree of 1–5 tables, plain filters are drawn from column statistics,
//! one synthetic UDF is attached (as a filter predicate or a projection), and
//! the UDF-filter literal is chosen by *sampling the UDF's output
//! distribution* so the filter selectivity lands on a log-uniform target in
//! `[0.0001, 1.0]` — Table II's selectivity range.

use crate::logical::{AggFunc, ColRef};
use crate::predicate::Pred;
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result};
use graceful_storage::{DataType, Database, Value};
use graceful_udf::ast::CmpOp;
use graceful_udf::{ColumnEvaluator, CostCounter, GeneratedUdf, UdfGenerator, UdfStats};
use std::cmp::Ordering;
use std::sync::Arc;

/// How the UDF appears in the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdfUsage {
    /// `WHERE udf(args) <= literal` — movable by the advisor.
    Filter,
    /// `SELECT AGG(udf(args))` — always computed after joins.
    Projection,
}

/// One join step of the FK walk.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Newly joined table.
    pub table: String,
    /// Join column on the already-bound side.
    pub left_col: ColRef,
    /// Join column on the new table.
    pub right_col: ColRef,
}

/// A generated query specification (independent of UDF placement).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub id: u64,
    pub database: String,
    pub base_table: String,
    pub joins: Vec<JoinStep>,
    pub filters: Vec<Pred>,
    pub udf: Option<Arc<GeneratedUdf>>,
    pub udf_usage: UdfUsage,
    pub udf_filter_op: CmpOp,
    pub udf_filter_literal: f64,
    /// Selectivity the literal was calibrated for (ground truth may differ).
    pub target_udf_selectivity: f64,
    pub agg: AggFunc,
    pub agg_col: Option<ColRef>,
}

impl QuerySpec {
    pub fn has_udf(&self) -> bool {
        self.udf.is_some()
    }

    /// All tables bound by the query (base + joined).
    pub fn tables(&self) -> Vec<&str> {
        let mut out = vec![self.base_table.as_str()];
        out.extend(self.joins.iter().map(|j| j.table.as_str()));
        out
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Probability weights for 0..=5 joins.
    pub join_weights: [f64; 6],
    /// Max plain filter predicates per bound table.
    pub max_filters_per_table: usize,
    /// Probability that the UDF is a filter (vs. projection) —
    /// Table II: 72k filter vs 21k projection queries.
    pub udf_filter_prob: f64,
    /// Probability that a query has a UDF at all (the paper trains with
    /// <10% non-UDF queries).
    pub udf_prob: f64,
    /// Rows sampled to calibrate the UDF-filter literal.
    pub calibration_sample: usize,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            join_weights: [0.12, 0.24, 0.26, 0.2, 0.12, 0.06],
            max_filters_per_table: 3,
            udf_filter_prob: 0.77,
            udf_prob: 0.9,
            calibration_sample: 240,
        }
    }
}

/// The workload generator.
#[derive(Debug, Clone, Default)]
pub struct QueryGenerator {
    pub config: QueryGenConfig,
    pub udf_gen: UdfGenerator,
}

impl QueryGenerator {
    pub fn new(config: QueryGenConfig, udf_gen: UdfGenerator) -> Self {
        QueryGenerator { config, udf_gen }
    }

    /// Generate one query over `db`.
    ///
    /// Returns the spec and the adaptation actions of its UDF (to be applied
    /// to the database before the query is labelled).
    pub fn generate(&self, db: &Database, id: u64, rng: &mut Rng) -> Result<QuerySpec> {
        let cfg = &self.config;
        // --- join tree via FK walk ---
        let want_joins = rng.choose_weighted(&cfg.join_weights);
        let (base_table, joins) = fk_walk(db, want_joins, rng)?;
        let mut bound: Vec<String> = vec![base_table.clone()];
        bound.extend(joins.iter().map(|j| j.table.clone()));
        // --- plain filters ---
        let mut filters = Vec::new();
        for t in &bound {
            let n = rng.range(0..=cfg.max_filters_per_table);
            for _ in 0..n {
                if let Some(p) = gen_filter(db, t, rng) {
                    filters.push(p);
                }
            }
        }
        // --- UDF ---
        let (udf, udf_usage) = if rng.chance(cfg.udf_prob) {
            // The UDF must read from a bound table with numeric columns.
            let mut candidates: Vec<&String> = bound.iter().collect();
            rng.shuffle(&mut candidates);
            let mut generated = None;
            for t in candidates {
                if let Ok(u) = self.udf_gen.generate_for_table(db, t, rng) {
                    generated = Some(u);
                    break;
                }
            }
            let usage = if rng.chance(cfg.udf_filter_prob) {
                UdfUsage::Filter
            } else {
                UdfUsage::Projection
            };
            (generated.map(Arc::new), usage)
        } else {
            (None, UdfUsage::Filter)
        };
        // --- UDF filter literal calibration ---
        let (op, literal, target_sel) = match (&udf, udf_usage) {
            (Some(u), UdfUsage::Filter) => {
                // Log-uniform selectivity in [1e-4, 1].
                let target = 10f64.powf(rng.range(-4.0..0.0));
                let (op, lit) = calibrate_literal(db, u, target, cfg.calibration_sample, rng)?;
                (op, lit, target)
            }
            _ => (CmpOp::Le, 0.0, 1.0),
        };
        // --- aggregate ---
        let (agg, agg_col) = gen_agg(db, &bound, &udf, udf_usage, rng);
        Ok(QuerySpec {
            id,
            database: db.name.clone(),
            base_table,
            joins,
            filters,
            udf,
            udf_usage,
            udf_filter_op: op,
            udf_filter_literal: literal,
            target_udf_selectivity: target_sel,
            agg,
            agg_col,
        })
    }
}

/// Random walk over the FK graph: start anywhere, extend with FK edges
/// (either direction) to unbound tables.
fn fk_walk(db: &Database, want_joins: usize, rng: &mut Rng) -> Result<(String, Vec<JoinStep>)> {
    let tables = db.tables();
    if tables.is_empty() {
        return Err(GracefulError::Benchmark("empty database".into()));
    }
    // Collect undirected FK edges: (child, child_col, parent, parent_col).
    let mut edges: Vec<(String, String, String, String)> = Vec::new();
    for t in tables {
        for fk in &t.foreign_keys {
            edges.push((
                t.name.clone(),
                fk.column.clone(),
                fk.ref_table.clone(),
                fk.ref_column.clone(),
            ));
        }
    }
    let start = tables[rng.range(0..tables.len())].name.clone();
    let mut bound = vec![start.clone()];
    let mut joins = Vec::new();
    for _ in 0..want_joins {
        // Candidate edges touching exactly one bound table.
        let mut candidates: Vec<JoinStep> = Vec::new();
        for (child, ccol, parent, pcol) in &edges {
            let child_bound = bound.contains(child);
            let parent_bound = bound.contains(parent);
            if child_bound && !parent_bound {
                candidates.push(JoinStep {
                    table: parent.clone(),
                    left_col: ColRef::new(child, ccol),
                    right_col: ColRef::new(parent, pcol),
                });
            } else if parent_bound && !child_bound {
                candidates.push(JoinStep {
                    table: child.clone(),
                    left_col: ColRef::new(parent, pcol),
                    right_col: ColRef::new(child, ccol),
                });
            }
        }
        if candidates.is_empty() {
            break;
        }
        let step = candidates[rng.range(0..candidates.len())].clone();
        bound.push(step.table.clone());
        joins.push(step);
    }
    Ok((start, joins))
}

/// A plain filter predicate on a random column of `table`.
fn gen_filter(db: &Database, table: &str, rng: &mut Rng) -> Option<Pred> {
    let t = db.table(table).ok()?;
    let stats = db.stats(table).ok()?;
    // Skip key columns: filtering PKs/FKs produces degenerate joins.
    let cols: Vec<_> = t
        .columns()
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            Some(*i) != t.primary_key && !t.foreign_keys.iter().any(|fk| fk.column == c.name)
        })
        .map(|(_, c)| c)
        .collect();
    if cols.is_empty() {
        return None;
    }
    let col = cols[rng.range(0..cols.len())];
    let cs = stats.column(&col.name).ok()?;
    match cs.data_type {
        DataType::Int | DataType::Float => {
            let q = rng.range(0.08..0.92);
            let raw = cs.min + q * (cs.max - cs.min);
            let op = *rng.choose(&[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
            let value = if cs.data_type == DataType::Int {
                Value::Int(raw.round() as i64)
            } else {
                Value::Float(raw)
            };
            Some(Pred::new(table, &col.name, op, value))
        }
        DataType::Text => {
            // Equality on a most-common value (selective but non-empty).
            let v = cs.mcv.first()?;
            let pick = if cs.mcv.len() > 1 && rng.chance(0.5) {
                &cs.mcv[rng.range(0..cs.mcv.len())]
            } else {
                v
            };
            Some(Pred::new(table, &col.name, CmpOp::Eq, pick.clone()))
        }
        DataType::Bool => {
            Some(Pred::new(table, &col.name, CmpOp::Eq, Value::Bool(rng.chance(0.5))))
        }
    }
}

/// Choose the UDF-filter literal so that `udf(args) <= literal` keeps
/// roughly `target` of the rows: evaluate the UDF on a sample of its base
/// table and take the target-quantile of the numeric outputs.
fn calibrate_literal(
    db: &Database,
    udf: &GeneratedUdf,
    target: f64,
    sample: usize,
    rng: &mut Rng,
) -> Result<(CmpOp, f64)> {
    let t = db.table(&udf.table)?;
    let n = t.num_rows();
    if n == 0 {
        return Ok((CmpOp::Le, 0.0));
    }
    let cols: Vec<_> = udf.input_columns.iter().map(|c| t.column(c)).collect::<Result<Vec<_>>>()?;
    // The UDF's prepared program — the one its operators run later — on the
    // engine's evaluator, one sampled row per call so a row whose evaluation
    // fails is skipped alone. The memo is on (it mirrors the tree-walker's
    // values and per-row errors exactly, so every literal keeps its bits);
    // the lanes are off, as one-row batches only pay their set-up.
    let types: Vec<_> = cols.iter().map(|c| c.data_type()).collect();
    let prepared = udf.prepared(&types)?;
    let mut eval = ColumnEvaluator::new(prepared.program(), prepared.shape(), &cols, true, false);
    let (mut out, mut stats) = (Vec::with_capacity(1), UdfStats::default());
    let mut outputs: Vec<f64> = Vec::with_capacity(sample.min(n));
    for _ in 0..sample.min(n) {
        let row = rng.range(0..n);
        out.clear();
        // Adaptations are applied by the corpus builder before labelling;
        // during calibration a NULL arg simply yields a NULL output we skip.
        // A NaN output can never satisfy `<= literal`, so it is no candidate.
        if eval.eval(&[row], &mut out, &mut CostCounter::new(), &mut stats).is_ok() {
            if let Some(v) = out.first().and_then(Value::as_f64).filter(|v| !v.is_nan()) {
                outputs.push(v);
            }
        }
    }
    if outputs.is_empty() {
        return Ok((CmpOp::Le, 0.0));
    }
    outputs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let idx = ((outputs.len() - 1) as f64 * target).round() as usize;
    Ok((CmpOp::Le, outputs[idx.min(outputs.len() - 1)]))
}

fn gen_agg(
    db: &Database,
    bound: &[String],
    udf: &Option<Arc<GeneratedUdf>>,
    usage: UdfUsage,
    rng: &mut Rng,
) -> (AggFunc, Option<ColRef>) {
    // SUM/AVG dominate (the paper's workloads aggregate magnitudes);
    // MIN/MAX appear with a small weight so extremes stay represented in
    // every corpus.
    let value_aggs =
        [AggFunc::Sum, AggFunc::Sum, AggFunc::Avg, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
    if udf.is_some() && usage == UdfUsage::Projection {
        // Aggregate over the UDF output column.
        return (*rng.choose(&value_aggs), None);
    }
    if rng.chance(0.5) {
        return (AggFunc::CountStar, None);
    }
    // SUM/AVG/MIN/MAX over a random numeric column of a bound table.
    for _ in 0..8 {
        let t = &bound[rng.range(0..bound.len())];
        if let Ok(table) = db.table(t) {
            let numeric: Vec<_> =
                table.columns().iter().filter(|c| c.data_type().is_numeric()).collect();
            if !numeric.is_empty() {
                let c = numeric[rng.range(0..numeric.len())];
                let f = *rng.choose(&value_aggs);
                return (f, Some(ColRef::new(t, &c.name)));
            }
        }
    }
    (AggFunc::CountStar, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{build_plan, UdfPlacement};
    use graceful_storage::datagen::{generate, schema};
    use graceful_storage::{Column, ColumnData, Table};
    use graceful_udf::generator::apply_adaptations;
    use graceful_udf::{parse_udf, Interpreter};

    fn db() -> Database {
        generate(&schema("tpc_h"), 0.03, 5)
    }

    #[test]
    fn generates_valid_specs() {
        let db = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(1);
        let mut saw_udf = false;
        let mut saw_joins = false;
        for id in 0..50 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            assert!(spec.joins.len() <= 5);
            saw_udf |= spec.has_udf();
            saw_joins |= !spec.joins.is_empty();
            // Join steps connect bound tables to new ones.
            let mut bound = vec![spec.base_table.clone()];
            for j in &spec.joins {
                assert!(bound.contains(&j.left_col.table), "left side must be bound");
                assert_eq!(j.right_col.table, j.table);
                bound.push(j.table.clone());
            }
        }
        assert!(saw_udf && saw_joins);
    }

    #[test]
    fn udf_reads_from_bound_table() {
        let db = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(2);
        for id in 0..40 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            if let Some(u) = &spec.udf {
                assert!(spec.tables().contains(&u.table.as_str()));
            }
        }
    }

    #[test]
    fn all_placements_build_valid_plans() {
        let db = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(3);
        let mut built = 0;
        for id in 0..60 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            for placement in crate::variants::valid_placements(&spec) {
                let plan = build_plan(&spec, placement).unwrap();
                plan.validate().unwrap();
                if spec.has_udf() && spec.udf_usage == UdfUsage::Filter {
                    assert!(plan.udf_op().is_some());
                }
                built += 1;
            }
        }
        assert!(built > 60);
    }

    #[test]
    fn pullup_has_all_joins_below_udf() {
        let db = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(4);
        for id in 0..80 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            if !spec.has_udf() || spec.udf_usage != UdfUsage::Filter || spec.joins.is_empty() {
                continue;
            }
            let plan = build_plan(&spec, UdfPlacement::PullUp).unwrap();
            let udf_idx = plan.udf_op().unwrap();
            // Every join is in the subtree below the UDF filter.
            let below = plan.subtree_size(plan.ops[udf_idx].children[0]);
            let joins_below = (0..plan.ops.len())
                .filter(|&i| {
                    matches!(plan.ops[i].kind, crate::logical::PlanOpKind::Join { .. })
                        && i < udf_idx
                })
                .count();
            assert_eq!(joins_below, spec.joins.len());
            assert!(below > spec.joins.len());
            // And for push-down, no join sits below the UDF filter.
            let pd = build_plan(&spec, UdfPlacement::PushDown).unwrap();
            let pd_udf = pd.udf_op().unwrap();
            let mut stack = vec![pd.ops[pd_udf].children[0]];
            while let Some(i) = stack.pop() {
                assert!(
                    !matches!(pd.ops[i].kind, crate::logical::PlanOpKind::Join { .. }),
                    "push-down must keep joins above the UDF"
                );
                stack.extend(pd.ops[i].children.iter().copied());
            }
        }
    }

    #[test]
    fn calibrated_literal_is_quantile_like() {
        let db = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(5);
        // Find a UDF filter query and verify the literal keeps roughly the
        // target fraction on a fresh sample.
        for id in 0..40 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            let (u, target) = match (&spec.udf, spec.udf_usage) {
                (Some(u), UdfUsage::Filter) => (u, spec.target_udf_selectivity),
                _ => continue,
            };
            if target < 0.2 {
                continue; // need a coarse target for a 200-row check
            }
            let t = db.table(&u.table).unwrap();
            let cols: Vec<_> = u.input_columns.iter().map(|c| t.column(c).unwrap()).collect();
            let mut interp = Interpreter::default();
            let mut kept = 0usize;
            let mut total = 0usize;
            for row in 0..t.num_rows().min(300) {
                let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
                if let Ok(out) = interp.eval(&u.def, &args) {
                    if let Some(v) = out.value.as_f64() {
                        total += 1;
                        if v <= spec.udf_filter_literal {
                            kept += 1;
                        }
                    }
                }
            }
            if total < 50 {
                continue;
            }
            let sel = kept as f64 / total as f64;
            // Near-constant outputs make the quantile trick all-or-nothing;
            // skip those (they are legitimate UDFs, just uncontrollable).
            if sel == 0.0 || sel == 1.0 {
                continue;
            }
            assert!((sel - target).abs() < 0.35, "selectivity {sel} too far from target {target}");
            return;
        }
    }

    /// `calibrate_literal` as it was on the tree-walker (minus the panic on a
    /// NaN output), the oracle for the compiled path.
    fn calibrate_literal_oracle(
        db: &Database,
        udf: &GeneratedUdf,
        target: f64,
        sample: usize,
        rng: &mut Rng,
    ) -> (CmpOp, f64) {
        let t = db.table(&udf.table).unwrap();
        let n = t.num_rows();
        let cols: Vec<_> = udf.input_columns.iter().map(|c| t.column(c).unwrap()).collect();
        let mut interp = Interpreter::default();
        let mut outputs: Vec<f64> = Vec::new();
        for _ in 0..sample.min(n) {
            let row = rng.range(0..n);
            let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            if let Ok(out) = interp.eval(&udf.def, &args) {
                outputs.extend(out.value.as_f64());
            }
        }
        if outputs.is_empty() {
            return (CmpOp::Le, 0.0);
        }
        outputs.sort_by(|a, b| a.partial_cmp(b).expect("finite udf outputs"));
        let idx = ((outputs.len() - 1) as f64 * target).round() as usize;
        (CmpOp::Le, outputs[idx.min(outputs.len() - 1)])
    }

    /// Over the `lint plan` corpus (same schemas, scale, seeds, adaptations
    /// applied as it goes): the compiled calibration returns the oracle's
    /// literal bit for bit and leaves the generator's RNG where the oracle
    /// leaves it — `calibrate_literal` is the only place `generate` touches
    /// UDF evaluation, so every `QuerySpec` is unchanged.
    #[test]
    fn compiled_calibration_keeps_every_literal_of_the_lint_corpus() {
        let g = QueryGenerator::default();
        let mut compared = 0usize;
        for name in ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"] {
            let mut db = generate(&schema(name), 0.02, 7);
            for seed in 0..250u64 {
                let Ok(spec) = g.generate(&db, seed, &mut Rng::seed(seed)) else { continue };
                let Some(u) = &spec.udf else { continue };
                if apply_adaptations(&mut db, &u.adaptations).is_err() {
                    continue;
                }
                let target = spec.target_udf_selectivity;
                let (mut a, mut b) = (Rng::seed(seed), Rng::seed(seed));
                let sample = g.config.calibration_sample;
                let (op, lit) = calibrate_literal(&db, u, target, sample, &mut a).unwrap();
                let (want_op, want) = calibrate_literal_oracle(&db, u, target, sample, &mut b);
                assert_eq!((op, lit.to_bits()), (want_op, want.to_bits()), "{name}/{seed}");
                assert_eq!(a.range(0..u64::MAX), b.range(0..u64::MAX), "{name}/{seed}: rng drift");
                compared += 1;
            }
        }
        assert!(compared > 1000, "only {compared} UDFs calibrated");
    }

    /// A NaN cell flowing through `return x0` used to panic the literal
    /// sort; NaN can never satisfy `<= literal`, so it is no candidate.
    #[test]
    fn nan_udf_outputs_are_skipped_not_sorted() {
        let x: Vec<f64> = (0..64).map(|r| if r % 2 == 0 { f64::NAN } else { r as f64 }).collect();
        let cols = vec![
            Column::new("x", ColumnData::Float(x)),
            Column::new("all_nan", ColumnData::Float(vec![f64::NAN; 64])),
        ];
        let db = Database::new("nandb", vec![Table::new("t", cols).unwrap()]);
        let def = parse_udf("def f(x0):\n    return x0\n").unwrap();
        let udf = |column: &str| GeneratedUdf::new(def.clone(), "t", vec![column.into()]);
        let (op, lit) = calibrate_literal(&db, &udf("x"), 0.5, 240, &mut Rng::seed(1)).unwrap();
        assert_eq!(op, CmpOp::Le);
        assert!((1.0..=63.0).contains(&lit), "literal {lit} is a sampled non-NaN output");
        let none = calibrate_literal(&db, &udf("all_nan"), 0.5, 240, &mut Rng::seed(1)).unwrap();
        assert_eq!(none, (CmpOp::Le, 0.0));
    }

    #[test]
    fn determinism() {
        let db = db();
        let g = QueryGenerator::default();
        let a = g.generate(&db, 7, &mut Rng::seed(99)).unwrap();
        let b = g.generate(&db, 7, &mut Rng::seed(99)).unwrap();
        assert_eq!(a.base_table, b.base_table);
        assert_eq!(a.joins, b.joins);
        assert_eq!(a.udf_filter_literal, b.udf_filter_literal);
    }
}
