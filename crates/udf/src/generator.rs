//! Synthetic UDF generation (Section V of the paper).
//!
//! The paper generates UDFs in three steps — input selection, high-level
//! structure definition, source-code generation — calibrated against the
//! real-world UDF study of Gupta & Ramachandra: 0–3 branches, 0–3 loops,
//! 10–150 arithmetic/string operations, `math`/`numpy` calls (Table II).
//!
//! Semantic correctness is achieved the same way the paper does it: instead
//! of constraining UDFs to the data, the generator emits **data-adaptation
//! actions** ([`AdaptAction`]) that align the data with the generated code
//! (replace NULLs in input columns); syntactic hazards (division by zero,
//! `sqrt` of negatives) are guarded in the generated code itself and,
//! defensively, in the interpreter.
//!
//! Every generated UDF is guaranteed to terminate: `for` loops have bounded
//! `range()` expressions and generated `while` loops follow a counting-down
//! pattern.

use crate::ast::{BinOp, CmpOp, Expr, Stmt, UdfDef};
use crate::libfns::LibFn;
use crate::prepared::{image, image_is, PreparedUdf};
use crate::printer::print_udf;
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result};
use graceful_storage::{DataType, Database, Value};
use std::any::{Any, TypeId};
use std::sync::{Arc, OnceLock};

/// Data-adaptation action emitted alongside a generated UDF.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptAction {
    /// Replace NULLs of `table.column` with `default` so UDF inputs are total.
    ReplaceNulls { table: String, column: String, default: Value },
}

/// Configuration of the UDF generator, mirroring Table II's ranges.
#[derive(Debug, Clone)]
pub struct UdfGenConfig {
    /// Probability weights for 0/1/2/3 branches.
    pub branch_weights: [f64; 4],
    /// Probability weights for 0/1/2/3 loops.
    pub loop_weights: [f64; 4],
    /// Minimum total operation count.
    pub min_ops: usize,
    /// Maximum total operation count.
    pub max_ops: usize,
    /// Upper bound for literal `range()` trip counts.
    pub max_loop_iters: usize,
    /// Probability of drawing a string input column (when one exists).
    pub string_prob: f64,
    /// Probability that a computation statement calls a library function.
    pub lib_call_prob: f64,
    /// Maximum number of UDF parameters.
    pub max_params: usize,
}

impl Default for UdfGenConfig {
    fn default() -> Self {
        UdfGenConfig {
            branch_weights: [0.35, 0.35, 0.2, 0.1],
            loop_weights: [0.45, 0.35, 0.13, 0.07],
            min_ops: 10,
            max_ops: 150,
            max_loop_iters: 48,
            string_prob: 0.25,
            lib_call_prob: 0.4,
            max_params: 3,
        }
    }
}

/// A generated UDF plus everything the benchmark needs to use it.
#[derive(Debug, Clone)]
pub struct GeneratedUdf {
    pub def: UdfDef,
    /// Source text (round-trips through the parser).
    pub source: String,
    /// Table the UDF reads from.
    pub table: String,
    /// Input columns, positionally matching `def.params`.
    pub input_columns: Vec<String>,
    /// Data-adaptation actions the caller must apply before execution.
    pub adaptations: Vec<AdaptAction>,
    /// What the first call of [`GeneratedUdf::prepared`] or
    /// [`GeneratedUdf::analysis`] built, kept for later uses.
    kept: OnceLock<Arc<Kept>>,
}

/// The builds of one `def` over one list of parameter types (the prepared
/// program, then the analysis), and the one record they are checked
/// against: the [`image`] of `def` and the types.
#[derive(Debug, Default)]
struct Kept {
    def: Vec<u8>,
    types: Vec<DataType>,
    slots: [OnceLock<Arc<dyn Any + Send + Sync>>; 2],
}

impl GeneratedUdf {
    /// A UDF over `table`'s `input_columns` (one per parameter of `def`, in
    /// order) with its printed source and no data-adaptation actions.
    pub fn new(def: UdfDef, table: impl Into<String>, input_columns: Vec<String>) -> Self {
        let (source, table) = (print_udf(&def), table.into());
        GeneratedUdf {
            def,
            source,
            table,
            input_columns,
            adaptations: Vec::new(),
            kept: OnceLock::new(),
        }
    }

    /// The prepared program of `def` over parameters of `types` (the input
    /// columns' types), kept as [`GeneratedUdf::analysis`] keeps it. A stale
    /// program cannot run.
    pub fn prepared(&self, types: &[DataType]) -> Result<Arc<PreparedUdf>> {
        self.analysis(types, || PreparedUdf::new(&self.def, types))
    }

    /// What `build` derives from `def` over parameters of `types` alone (the
    /// prepared program, the featurizer's template): built on the first call,
    /// the same `Arc` on every later one. The fields are public, so if `def`
    /// or `types` differ from what the kept build was built from, or it is no
    /// `T`, `build` runs afresh on what the UDF holds now and is not kept.
    pub fn analysis<T: Any + Send + Sync>(
        &self,
        types: &[DataType],
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        let kept = (self.kept).get_or_init(|| {
            Arc::new(Kept { def: image(&self.def), types: types.to_vec(), ..Kept::default() })
        });
        // The prepared program has a slot of its own, any other build the other.
        let slot = usize::from(TypeId::of::<T>() != TypeId::of::<PreparedUdf>());
        let holds = kept.types == types && image_is(&self.def, &kept.def);
        let slot = holds.then(|| &kept.slots[slot]);
        if let Some(kept) = slot.and_then(|s| Arc::clone(s.get()?).downcast().ok()) {
            return Ok(kept);
        }
        let built = Arc::new(build()?);
        let _ = slot.map(|slot| slot.set(Arc::clone(&built) as _));
        Ok(built)
    }
}

/// The synthetic UDF generator.
#[derive(Debug, Clone, Default)]
pub struct UdfGenerator {
    pub config: UdfGenConfig,
}

/// Internal generation context.
struct Ctx<'a> {
    cfg: &'a UdfGenConfig,
    /// (param name, data type, column stats min/max) for numeric params.
    numeric_params: Vec<(String, f64, f64)>,
    string_params: Vec<String>,
    /// Numeric local variables available for reading.
    locals: Vec<String>,
    next_var: usize,
    ops_budget: i64,
    branches_left: usize,
    loops_left: usize,
    /// Loop variable names currently in scope (usable in expressions).
    loop_vars: Vec<String>,
    loop_depth: usize,
    /// Depth of conditionally executed scopes (branch arms, loop bodies).
    /// Fresh temporaries may only be introduced at depth 0 — otherwise a
    /// later read could hit an unassigned variable (Python `NameError`).
    cond_depth: usize,
}

impl UdfGenerator {
    pub fn new(config: UdfGenConfig) -> Self {
        UdfGenerator { config }
    }

    /// Generate a UDF over a random table of `db`.
    pub fn generate(&self, db: &Database, rng: &mut Rng) -> Result<GeneratedUdf> {
        // Prefer tables with at least two numeric non-key columns.
        let candidates: Vec<&str> = db
            .tables()
            .iter()
            .filter(|t| !numeric_value_columns(db, &t.name).is_empty())
            .map(|t| t.name.as_str())
            .collect();
        if candidates.is_empty() {
            return Err(GracefulError::Benchmark(format!(
                "database {} has no table with numeric columns",
                db.name
            )));
        }
        let table = candidates[rng.range(0..candidates.len())].to_string();
        self.generate_for_table(db, &table, rng)
    }

    /// Generate a UDF reading from a specific table.
    pub fn generate_for_table(
        &self,
        db: &Database,
        table: &str,
        rng: &mut Rng,
    ) -> Result<GeneratedUdf> {
        let cfg = &self.config;
        let numeric_cols = numeric_value_columns(db, table);
        if numeric_cols.is_empty() {
            return Err(GracefulError::Benchmark(format!("table {table} has no numeric columns")));
        }
        let text_cols = text_value_columns(db, table);
        // --- Step 1: input selection ---
        let n_numeric = rng.range(1..=numeric_cols.len().min(cfg.max_params));
        let mut chosen: Vec<String> = rng
            .sample_indices(numeric_cols.len(), n_numeric)
            .into_iter()
            .map(|i| numeric_cols[i].clone())
            .collect();
        let use_string =
            !text_cols.is_empty() && chosen.len() < cfg.max_params && rng.chance(cfg.string_prob);
        if use_string {
            chosen.push(text_cols[rng.range(0..text_cols.len())].clone());
        }
        let stats = db.stats(table)?;
        let mut numeric_params = Vec::new();
        let mut string_params = Vec::new();
        let mut params = Vec::new();
        for (i, col) in chosen.iter().enumerate() {
            let pname = format!("x{i}");
            let cs = stats.column(col)?;
            if cs.data_type.is_numeric() {
                numeric_params.push((pname.clone(), cs.min, cs.max));
            } else {
                string_params.push(pname.clone());
            }
            params.push(pname);
        }
        // --- Step 2: structure definition ---
        let n_branches = rng.choose_weighted(&cfg.branch_weights);
        let n_loops = rng.choose_weighted(&cfg.loop_weights);
        let target_ops = rng.range(cfg.min_ops..=cfg.max_ops) as i64;
        let mut ctx = Ctx {
            cfg,
            numeric_params,
            string_params,
            locals: Vec::new(),
            next_var: 0,
            ops_budget: target_ops,
            branches_left: n_branches,
            loops_left: n_loops,
            loop_vars: Vec::new(),
            loop_depth: 0,
            cond_depth: 0,
        };
        // --- Step 3: source generation ---
        let mut body = Vec::new();
        // Seed accumulator `z` from a numeric param (or literal).
        let init = if let Some((p, _, _)) = ctx.numeric_params.first() {
            Expr::bin(BinOp::Mul, Expr::name(p), Expr::Float(round2(rng.range(0.5..2.0))))
        } else {
            Expr::Int(rng.range(1..10))
        };
        body.push(Stmt::Assign { target: "z".into(), expr: init });
        ctx.locals.push("z".into());
        ctx.ops_budget -= 1;
        // String preprocessing: derive a numeric from the string input.
        if let Some(s) = ctx.string_params.first().cloned() {
            let derived = gen_string_stmt(&s, rng);
            body.push(Stmt::Assign { target: "slen".into(), expr: derived });
            ctx.locals.push("slen".into());
            ctx.ops_budget -= 2;
        }
        gen_segments(&mut ctx, &mut body, rng, true);
        // Final mixing step: fold an input back into the accumulator so the
        // UDF's output distribution depends on the data (required for
        // selectivity-controlled UDF filters; a constant output would make
        // every filter trivially all-or-nothing).
        if let Some((p, _, _)) = ctx.numeric_params.first() {
            body.push(Stmt::Assign {
                target: "z".into(),
                expr: Expr::bin(
                    BinOp::Add,
                    Expr::name("z"),
                    Expr::bin(BinOp::Mul, Expr::name(p), Expr::Float(round2(rng.range(0.1..3.0)))),
                ),
            });
        }
        // Return value: numeric accumulator, or a string for projection UDFs.
        let ret = if !ctx.string_params.is_empty() && rng.chance(0.2) {
            let s = ctx.string_params[0].clone();
            Expr::Method {
                func: if rng.chance(0.5) { LibFn::StrUpper } else { LibFn::StrLower },
                recv: Box::new(Expr::name(&s)),
                args: vec![],
            }
        } else {
            Expr::name("z")
        };
        body.push(Stmt::Return(ret));
        let def = UdfDef { name: format!("udf_{}", rng.range(0..1_000_000u32)), params, body };
        // --- Data adaptation ---
        let mut adaptations = Vec::new();
        for col in &chosen {
            let cs = stats.column(col)?;
            if cs.null_fraction > 0.0 {
                let default = match cs.data_type {
                    DataType::Int => Value::Int(((cs.min + cs.max) / 2.0) as i64),
                    DataType::Float => Value::Float((cs.min + cs.max) / 2.0),
                    DataType::Text => Value::Text("missing".into()),
                    DataType::Bool => Value::Bool(false),
                };
                adaptations.push(AdaptAction::ReplaceNulls {
                    table: table.to_string(),
                    column: col.clone(),
                    default,
                });
            }
        }
        Ok(GeneratedUdf { adaptations, ..GeneratedUdf::new(def, table, chosen) })
    }
}

/// Emit a mix of computation statements, branches and loops until the
/// structural quota and operation budget are spent.
fn gen_segments(ctx: &mut Ctx<'_>, body: &mut Vec<Stmt>, rng: &mut Rng, top_level: bool) {
    let mut guard = 0;
    while (ctx.ops_budget > 0 || (top_level && (ctx.branches_left > 0 || ctx.loops_left > 0)))
        && guard < 400
    {
        guard += 1;
        let can_branch = top_level && ctx.branches_left > 0;
        let can_loop = top_level && ctx.loops_left > 0 && ctx.loop_depth < 2;
        let roll = rng.unit();
        if can_branch && roll < 0.30 {
            ctx.branches_left -= 1;
            body.push(gen_branch(ctx, rng));
        } else if can_loop && roll < 0.55 {
            ctx.loops_left -= 1;
            body.push(gen_loop(ctx, rng));
        } else {
            body.push(gen_comp_stmt(ctx, rng));
        }
        // Stop early once both quotas are filled and the budget is gone.
        if ctx.ops_budget <= 0 && ctx.branches_left == 0 && ctx.loops_left == 0 {
            break;
        }
    }
}

/// A branch whose condition is (usually) directly on an input parameter so
/// the hit-ratio estimator can rewrite it to SQL.
fn gen_branch(ctx: &mut Ctx<'_>, rng: &mut Rng) -> Stmt {
    let cond = if !ctx.numeric_params.is_empty() && rng.chance(0.8) {
        let (p, lo, hi) = ctx.numeric_params[rng.range(0..ctx.numeric_params.len())].clone();
        let q = rng.range(0.05..0.95);
        let lit = lo + q * (hi - lo);
        let op = *rng.choose(&[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
        Expr::cmp(op, Expr::name(&p), Expr::Float(round2(lit)))
    } else {
        // Condition on the derived accumulator (untraceable for the
        // hit-ratio estimator, which falls back to 0.5).
        let op = *rng.choose(&[CmpOp::Lt, CmpOp::Gt]);
        Expr::cmp(op, Expr::name("z"), Expr::Float(round2(rng.range(-100.0..100.0))))
    };
    ctx.ops_budget -= 1;
    ctx.cond_depth += 1;
    let mut then_body = vec![gen_comp_stmt(ctx, rng)];
    // Nest a loop inside one branch arm with high probability — the paper's
    // Figure 2 pattern, and the reason branch hit-ratios dominate UDF cost:
    // rows taking the loop arm cost one to two orders of magnitude more.
    if ctx.loops_left > 0 && rng.chance(0.6) {
        ctx.loops_left -= 1;
        then_body.push(gen_loop(ctx, rng));
    } else if rng.chance(0.5) {
        then_body.push(gen_comp_stmt(ctx, rng));
    }
    let else_body = if rng.chance(0.7) { vec![gen_comp_stmt(ctx, rng)] } else { Vec::new() };
    ctx.cond_depth -= 1;
    Stmt::If { cond, then_body, else_body }
}

/// A `for`/`while` loop with a bounded trip count.
fn gen_loop(ctx: &mut Ctx<'_>, rng: &mut Rng) -> Stmt {
    ctx.loop_depth += 1;
    let var = format!("i{}", ctx.next_var);
    ctx.next_var += 1;
    let kind = rng.unit();
    let stmt = if kind < 0.4 {
        // Literal trip count (featurized exactly on the LOOP node).
        let n = 2 + rng.zipf(ctx.cfg.max_loop_iters.max(2) - 1, 0.45) as i64;
        ctx.loop_vars.push(var.clone());
        let body = gen_loop_body(ctx, rng);
        ctx.loop_vars.pop();
        Stmt::For { var, count: Expr::Int(n), body }
    } else if kind < 0.8 && !ctx.numeric_params.is_empty() {
        // Data-dependent trip count: range(int(x) % M + 1).
        let (p, _, _) = ctx.numeric_params[rng.range(0..ctx.numeric_params.len())].clone();
        let m = rng.range(3..(ctx.cfg.max_loop_iters as i64).max(4));
        let count = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mod,
                Expr::call(LibFn::BuiltinInt, vec![Expr::name(&p)]),
                Expr::Int(m),
            ),
            Expr::Int(1),
        );
        ctx.loop_vars.push(var.clone());
        let body = gen_loop_body(ctx, rng);
        ctx.loop_vars.pop();
        Stmt::For { var, count, body }
    } else {
        // Counting-down while loop (loop_type = while, always terminates).
        let n = 2 + rng.zipf(ctx.cfg.max_loop_iters.max(2) - 1, 0.45) as i64;
        let counter = var.clone();
        let mut body = gen_loop_body(ctx, rng);
        body.push(Stmt::Assign {
            target: counter.clone(),
            expr: Expr::bin(BinOp::Sub, Expr::name(&counter), Expr::Int(1)),
        });
        ctx.loop_depth -= 1;
        return Stmt::If {
            // Wrap init+while in a no-op `if True:` so a single Stmt is
            // returned; printed code stays valid Python.
            cond: Expr::Bool(true),
            then_body: vec![
                Stmt::Assign { target: counter.clone(), expr: Expr::Int(n) },
                Stmt::While {
                    cond: Expr::cmp(CmpOp::Gt, Expr::name(&counter), Expr::Int(0)),
                    body,
                },
            ],
            else_body: Vec::new(),
        };
    };
    ctx.loop_depth -= 1;
    stmt
}

fn gen_loop_body(ctx: &mut Ctx<'_>, rng: &mut Rng) -> Vec<Stmt> {
    ctx.cond_depth += 1;
    let n_stmts = rng.range(1..=3usize);
    let mut body = Vec::with_capacity(n_stmts);
    for _ in 0..n_stmts {
        body.push(gen_comp_stmt(ctx, rng));
    }
    // Nested loop with small probability.
    if ctx.loops_left > 0 && ctx.loop_depth < 2 && rng.chance(0.2) {
        ctx.loops_left -= 1;
        body.push(gen_loop(ctx, rng));
    }
    ctx.cond_depth -= 1;
    body
}

/// One computation statement: `z = <expr>` or a fresh temporary.
fn gen_comp_stmt(ctx: &mut Ctx<'_>, rng: &mut Rng) -> Stmt {
    let expr = gen_numeric_expr(ctx, rng, 2);
    let ops = expr.op_count() as i64 + 1;
    ctx.ops_budget -= ops;
    let target = if ctx.cond_depth == 0 && rng.chance(0.25) {
        let t = format!("t{}", ctx.next_var);
        ctx.next_var += 1;
        ctx.locals.push(t.clone());
        t
    } else {
        "z".to_string()
    };
    Stmt::Assign { target, expr }
}

/// Random numeric expression tree of bounded depth over the visible names.
fn gen_numeric_expr(ctx: &mut Ctx<'_>, rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.3) {
        return gen_leaf(ctx, rng);
    }
    if rng.chance(ctx.cfg.lib_call_prob) {
        let f = *rng.choose(&[
            LibFn::MathSqrt,
            LibFn::MathPow,
            LibFn::MathLog,
            LibFn::MathExp,
            LibFn::MathSin,
            LibFn::MathFabs,
            LibFn::NpAbs,
            LibFn::NpSqrt,
            LibFn::NpLog,
            LibFn::NpMinimum,
            LibFn::NpMaximum,
            LibFn::BuiltinAbs,
            LibFn::BuiltinMin,
            LibFn::BuiltinMax,
        ]);
        let args = match f.arity() {
            1 => vec![gen_numeric_expr(ctx, rng, depth - 1)],
            2 => {
                if f == LibFn::MathPow {
                    // Keep exponents small so values stay bounded.
                    vec![gen_numeric_expr(ctx, rng, depth - 1), Expr::Int(rng.range(2..4))]
                } else {
                    vec![gen_numeric_expr(ctx, rng, depth - 1), gen_leaf(ctx, rng)]
                }
            }
            _ => vec![gen_leaf(ctx, rng), Expr::Int(0), Expr::Int(100)],
        };
        return Expr::Call { func: f, args };
    }
    let op = *rng.choose(&[
        BinOp::Add,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Pow,
        BinOp::FloorDiv,
    ]);
    let left = gen_numeric_expr(ctx, rng, depth - 1);
    let right = match op {
        // Guard division/modulo: denominator is |leaf| + 1.
        BinOp::Div | BinOp::Mod | BinOp::FloorDiv => Expr::bin(
            BinOp::Add,
            Expr::call(LibFn::BuiltinAbs, vec![gen_leaf(ctx, rng)]),
            Expr::Int(1),
        ),
        // Guard exponentiation: small literal exponents only.
        BinOp::Pow => Expr::Int(rng.range(2..4)),
        _ => gen_numeric_expr(ctx, rng, depth - 1),
    };
    Expr::bin(op, left, right)
}

fn gen_leaf(ctx: &mut Ctx<'_>, rng: &mut Rng) -> Expr {
    let mut choices: Vec<Expr> = Vec::new();
    for (p, _, _) in &ctx.numeric_params {
        choices.push(Expr::name(p));
    }
    for l in &ctx.locals {
        choices.push(Expr::name(l));
    }
    for v in &ctx.loop_vars {
        choices.push(Expr::name(v));
    }
    choices.push(Expr::Float(round2(rng.range(0.1..9.9))));
    choices.push(Expr::Int(rng.range(1..20)));
    choices[rng.range(0..choices.len())].clone()
}

/// Derive a numeric value from a string parameter (counts, finds, lengths).
fn gen_string_stmt(param: &str, rng: &mut Rng) -> Expr {
    let roll = rng.unit();
    if roll < 0.4 {
        Expr::call(LibFn::BuiltinLen, vec![Expr::name(param)])
    } else if roll < 0.7 {
        Expr::call(
            LibFn::BuiltinLen,
            vec![Expr::Method {
                func: LibFn::StrStrip,
                recv: Box::new(Expr::Method {
                    func: LibFn::StrUpper,
                    recv: Box::new(Expr::name(param)),
                    args: vec![],
                }),
                args: vec![],
            }],
        )
    } else {
        Expr::Method {
            func: LibFn::StrFind,
            recv: Box::new(Expr::name(param)),
            args: vec![Expr::Str("a".into())],
        }
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn numeric_value_columns(db: &Database, table: &str) -> Vec<String> {
    let t = match db.table(table) {
        Ok(t) => t,
        Err(_) => return Vec::new(),
    };
    t.columns()
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            c.data_type().is_numeric()
                && Some(*i) != t.primary_key
                && !t.foreign_keys.iter().any(|fk| fk.column == c.name)
        })
        .map(|(_, c)| c.name.clone())
        .collect()
}

fn text_value_columns(db: &Database, table: &str) -> Vec<String> {
    let t = match db.table(table) {
        Ok(t) => t,
        Err(_) => return Vec::new(),
    };
    t.columns().iter().filter(|c| c.data_type() == DataType::Text).map(|c| c.name.clone()).collect()
}

/// Apply a set of adaptation actions to a database.
pub fn apply_adaptations(db: &mut Database, actions: &[AdaptAction]) -> Result<()> {
    for a in actions {
        match a {
            AdaptAction::ReplaceNulls { table, column, default } => {
                db.update_table(table, |t| {
                    t.column_mut(column)?.replace_nulls(default);
                    Ok(())
                })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse_udf;
    use graceful_storage::datagen::{generate, schema};

    fn test_db() -> Database {
        generate(&schema("imdb"), 0.02, 11)
    }

    #[test]
    fn generated_udfs_parse_and_round_trip() {
        let db = test_db();
        let mut rng = Rng::seed(1);
        let g = UdfGenerator::default();
        for _ in 0..40 {
            let u = g.generate(&db, &mut rng).unwrap();
            let reparsed = parse_udf(&u.source)
                .unwrap_or_else(|e| panic!("generated UDF failed to parse: {e}\n{}", u.source));
            assert_eq!(u.def, reparsed, "round trip mismatch:\n{}", u.source);
        }
    }

    #[test]
    fn generated_udfs_respect_structural_bounds() {
        let db = test_db();
        let mut rng = Rng::seed(2);
        let g = UdfGenerator::default();
        for _ in 0..60 {
            let u = g.generate(&db, &mut rng).unwrap();
            assert!(u.def.branch_count() <= 6, "too many branches:\n{}", u.source);
            assert!(u.def.loop_count() <= 3, "too many loops:\n{}", u.source);
            assert!(!u.input_columns.is_empty());
            assert_eq!(u.def.params.len(), u.input_columns.len());
        }
    }

    #[test]
    fn generated_udfs_evaluate_on_real_rows() {
        let mut db = test_db();
        let mut rng = Rng::seed(3);
        let g = UdfGenerator::default();
        let mut interp = Interpreter::default();
        for k in 0..30 {
            let u = g.generate(&db, &mut rng).unwrap();
            apply_adaptations(&mut db, &u.adaptations).unwrap();
            let table = db.table(&u.table).unwrap();
            let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
            for row in 0..table.num_rows().min(25) {
                let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
                let out = interp
                    .eval(&u.def, &args)
                    .unwrap_or_else(|e| panic!("udf #{k} failed on row {row}: {e}\n{}", u.source));
                assert!(out.cost.total > 0.0);
            }
        }
    }

    #[test]
    fn adaptations_remove_nulls_from_inputs() {
        let mut db = generate(&schema("walmart"), 0.2, 17);
        let mut rng = Rng::seed(4);
        let g = UdfGenerator::default();
        // Force generation on the table with a nullable column until it picks
        // the nullable `markdown` column.
        for _ in 0..80 {
            let u = g.generate_for_table(&db, "sales", &mut rng).unwrap();
            if u.input_columns.iter().any(|c| c == "markdown") {
                assert!(
                    u.adaptations.iter().any(|a| matches!(
                        a,
                        AdaptAction::ReplaceNulls { column, .. } if column == "markdown"
                    )),
                    "expected a ReplaceNulls adaptation"
                );
                apply_adaptations(&mut db, &u.adaptations).unwrap();
                let frac = db.table("sales").unwrap().column("markdown").unwrap().null_fraction();
                assert_eq!(frac, 0.0);
                return;
            }
        }
        panic!("generator never picked the nullable column");
    }

    #[test]
    fn op_counts_land_in_configured_range() {
        let db = test_db();
        let mut rng = Rng::seed(5);
        let g = UdfGenerator::default();
        let mut total = 0usize;
        for _ in 0..40 {
            let u = g.generate(&db, &mut rng).unwrap();
            let ops = u.def.op_count();
            assert!(ops >= 5, "udf too trivial ({ops} ops):\n{}", u.source);
            total += ops;
        }
        let avg = total / 40;
        assert!((10..=200).contains(&avg), "avg ops {avg} outside Table II range");
    }

    #[test]
    fn determinism() {
        let db = test_db();
        let g = UdfGenerator::default();
        let a = g.generate(&db, &mut Rng::seed(42)).unwrap();
        let b = g.generate(&db, &mut Rng::seed(42)).unwrap();
        assert_eq!(a.source, b.source);
        assert_eq!(a.input_columns, b.input_columns);
    }
}
