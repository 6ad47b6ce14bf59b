//! The repository's corpus lints and the flight-log check, one subcommand
//! each. Every subcommand exits non-zero on its first corpus (or file) with a
//! diagnostic — CI runs `udf` and `plan` in both debug and `--release` to pin
//! the generator/compiler/verifier contracts, and `flight` over the JSONL the
//! observability leg records.
//!
//! ```sh
//! cargo run --release --example lint -- udf
//! cargo run --release --example lint -- plan
//! GRACEFUL_FLIGHT=/tmp/flight.jsonl cargo run --release --example quickstart
//! cargo run --release --example lint -- flight /tmp/flight.jsonl
//! ```
//!
//! **`udf`** — the generated UDF corpus through the bytecode verifier and a
//! set of structural lints over the compiled programs. Per program:
//! - `compile` succeeds — it always verifies (jump targets, register/const
//!   bounds, cost-charge placement, loop pairing, definite initialization) —
//!   and an explicit re-`verify` of the result is clean;
//! - the SIMD shape covers every instruction, `Counted` classification and
//!   recorded trip counts agree instruction-by-instruction, and no recorded
//!   trip count exceeds [`MAX_COUNTED_TRIPS`];
//! - the entry block dominates every reachable block of the CFG;
//! - the constant pool carries no duplicates;
//! - the program [`prune()`] makes of it over its table's column types
//!   passes all of the above.
//!
//! It prints the pruning census: programs the pass applies to, static
//! instructions it removes (dead values and merged charges), loops it closes
//! (folded, or with a closed-form head) and the mean time of one `prune`.
//!
//! **`plan`** — the generated query-plan corpus through the plan verifier and
//! the static analysis behind the verified rewrite. Per plan (every valid
//! UDF placement of every generated query):
//! - [`analysis::verify`] is clean (structure, schema/type inference,
//!   cardinality-annotation sanity) on the raw plan *and* after cardinality
//!   annotation;
//! - annotated estimates respect the monotone upper bounds
//!   ([`analysis::verify_bounds`]);
//! - liveness is consistent (nothing is live above the root).
//!
//! Both also gate the engine's shortcuts on traffic: a corpus with no counted
//! loop, no typed-lane-eligible program, no pruned instruction or no closed
//! loop (`udf`) or no dead join lane (`plan`) fails with "shortcut without
//! traffic" — a fast path the generators never reach is code to delete, not
//! to carry.
//!
//! **`flight <file>`** — parse every line of a flight-recorder JSONL file
//! back into [`graceful::obs::flight::FlightRecord`]s and summarize the
//! estimator quality they carry; a missing file, a malformed record or an
//! empty recording fails. Pins the on-disk format.

use graceful::obs::flight;
use graceful::plan::analysis::{self, RewriteSet};
use graceful::plan::{Plan, PlanOpKind};
use graceful::prelude::*;
use graceful::udf::analysis::{verify, Cfg, MAX_COUNTED_TRIPS};
use graceful::udf::bytecode::Instr;
use graceful::udf::{prune, CostWeights, InstrClass, Program};
use std::time::{Duration, Instant};

/// The corpus both generators are linted over.
const SCHEMAS: [&str; 6] = ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"];
const SEEDS_PER_SCHEMA: u64 = 250;
const MIN_PLANS: usize = 1000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match args[..] {
        ["udf"] => lint_udfs(),
        ["plan"] => lint_plans(),
        ["flight", path] => check_flight(path),
        _ => {
            eprintln!("usage: lint udf | plan | flight <flight.jsonl>");
            2
        }
    };
    std::process::exit(code);
}

fn lint_program(prog: &Program) -> Vec<String> {
    let mut diags = Vec::new();
    if let Err(e) = verify(prog) {
        diags.push(format!("re-verification failed: {e}"));
    }

    let shape = prog.simd_shape();
    if shape.class.len() != prog.instrs.len() {
        diags.push(format!(
            "SIMD shape covers {} instructions, program has {}",
            shape.class.len(),
            prog.instrs.len()
        ));
    }
    for (pc, class) in shape.class.iter().enumerate() {
        let trip = shape.trip_count.get(pc).copied().flatten();
        if (*class == InstrClass::Counted) != trip.is_some() {
            diags.push(format!("pc {pc}: class {class:?} disagrees with trip count {trip:?}"));
        }
        if *class == InstrClass::Counted
            && !matches!(prog.instrs[pc], Instr::ForInit { .. } | Instr::ForNext { .. })
        {
            diags.push(format!("pc {pc}: Counted on a non-loop instruction"));
        }
        if let Some(n) = trip {
            if i64::from(n) > MAX_COUNTED_TRIPS {
                diags.push(format!("pc {pc}: trip count {n} exceeds {MAX_COUNTED_TRIPS}"));
            }
        }
    }

    match Cfg::build(prog) {
        Ok(cfg) => {
            let idoms = cfg.idoms();
            for b in cfg.rpo() {
                if !cfg.dominates(&idoms, 0, b) {
                    diags.push(format!("entry does not dominate reachable block {b}"));
                }
            }
        }
        Err(e) => diags.push(format!("CFG construction failed: {e}")),
    }

    for (i, c) in prog.consts.iter().enumerate() {
        if prog.consts[..i].contains(c) {
            diags.push(format!("constant pool entry {i} ({c:?}) is a duplicate"));
        }
    }
    diags
}

fn lint_udfs() -> i32 {
    let mut programs = 0usize;
    let (mut counted_loops, mut lane_eligible) = (0usize, 0usize);
    let (mut pruned_programs, mut instrs, mut pruned_instrs) = (0usize, 0usize, 0usize);
    let (mut closed_loops, mut prune_time) = (0usize, Duration::ZERO);
    let loops =
        |p: &Program| p.instrs.iter().filter(|i| matches!(i, Instr::ForNext { .. })).count();
    let mut diagnostics = 0usize;
    for name in SCHEMAS {
        let db = generate(&schema(name), 0.02, 7);
        let gen = UdfGenerator::default();
        for seed in 0..SEEDS_PER_SCHEMA {
            let mut rng = Rng::seed(seed);
            let u = match gen.generate(&db, &mut rng) {
                Ok(u) => u,
                Err(e) => {
                    eprintln!("lint udf: {name}/{seed}: generator failed: {e}");
                    diagnostics += 1;
                    continue;
                }
            };
            let prog = match compile(&u.def) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("lint udf: {name}/{seed} {}: rejected: {e}", u.def.name);
                    diagnostics += 1;
                    continue;
                }
            };
            programs += 1;
            let shape = prog.simd_shape();
            counted_loops += shape.trip_count.iter().flatten().count() / 2;
            lane_eligible += usize::from(shape.has_fast_path);
            for d in lint_program(&prog) {
                eprintln!("lint udf: {name}/{seed} {}: {d}", prog.name);
                diagnostics += 1;
            }
            let types: Option<Vec<DataType>> = db.table(&u.table).ok().and_then(|t| {
                u.input_columns.iter().map(|c| t.column(c).ok().map(|c| c.data_type())).collect()
            });
            let Some(types) = types else {
                eprintln!("lint udf: {name}/{seed}: input columns not in {}", u.table);
                diagnostics += 1;
                continue;
            };
            let (n, plain_loops, start) = (prog.instrs.len(), loops(&prog), Instant::now());
            let pruned = prune(prog, &types, &CostWeights::default());
            prune_time += start.elapsed();
            pruned_programs += usize::from(!pruned.charges.is_empty());
            (instrs, pruned_instrs) = (instrs + n, pruned_instrs + n - pruned.instrs.len());
            closed_loops += plain_loops - loops(&pruned);
            for d in lint_program(&pruned) {
                eprintln!("lint udf: {name}/{seed} {} (pruned): {d}", pruned.name);
                diagnostics += 1;
            }
        }
    }
    if diagnostics > 0 {
        eprintln!("lint udf: {diagnostics} diagnostics over {programs} programs");
        return 1;
    }
    if counted_loops == 0 || lane_eligible == 0 || pruned_instrs == 0 || closed_loops == 0 {
        eprintln!(
            "lint udf: shortcut without traffic: {counted_loops} counted loops, \
             {lane_eligible} typed-lane-eligible programs, {pruned_instrs} pruned instructions, \
             {closed_loops} closed loops over {programs} programs"
        );
        return 1;
    }
    println!(
        "lint udf: {programs} programs verified clean ({} schemas, {counted_loops} counted \
         loops, {lane_eligible} typed-lane-eligible programs)",
        SCHEMAS.len()
    );
    println!(
        "lint udf: pruning: {pruned_programs} programs eligible, {pruned_instrs} of {instrs} \
         static instructions removed, {closed_loops} loops closed, {:.1} us per prune",
        prune_time.as_secs_f64() * 1e6 / programs.max(1) as f64
    );
    0
}

/// Lint one plan; `dead_join_lanes` tallies the join output lanes whose table
/// nothing above the join reads (the executor prunes these from join output).
fn lint_plan(db: &Database, plan: &mut Plan, dead_join_lanes: &mut usize) -> Vec<String> {
    let mut diags = Vec::new();
    if let Err(e) = analysis::verify(plan, db) {
        diags.push(format!("raw plan rejected: {e}"));
        return diags; // downstream analyses assume a verified plan
    }
    if let Err(e) = NaiveCard::new(db).annotate(plan) {
        diags.push(format!("cardinality annotation failed: {e}"));
        return diags;
    }
    if let Err(e) = analysis::verify(plan, db) {
        diags.push(format!("annotated plan rejected: {e}"));
    }
    if let Err(e) = analysis::verify_bounds(plan, db) {
        diags.push(format!("estimate exceeds monotone bound: {e}"));
    }

    let rw = RewriteSet::analyze(plan, db);
    if !rw.live_above[plan.root].is_empty() {
        diags
            .push(format!("liveness claims tables above the root: {:?}", rw.live_above[plan.root]));
    }
    let schemas = match analysis::infer_schemas(plan, db) {
        Ok(s) => s,
        Err(e) => {
            diags.push(format!("schema inference failed after verify passed: {e}"));
            return diags;
        }
    };
    for (i, op) in plan.ops.iter().enumerate() {
        if let PlanOpKind::Join { .. } = &op.kind {
            for c in &op.children {
                *dead_join_lanes +=
                    schemas[*c].tables.iter().filter(|t| !rw.live_above[i].contains(*t)).count();
            }
        }
    }
    diags
}

fn lint_plans() -> i32 {
    let qgen = QueryGenerator::default();
    let (mut plans, mut dead_join_lanes) = (0usize, 0usize);
    let mut diagnostics = 0usize;
    for name in SCHEMAS {
        let mut db = generate(&schema(name), 0.02, 7);
        for seed in 0..SEEDS_PER_SCHEMA {
            let mut rng = Rng::seed(seed);
            let spec = match qgen.generate(&db, seed, &mut rng) {
                Ok(s) => s,
                Err(_) => continue, // rejected draw, not a corpus plan
            };
            if let Some(u) = &spec.udf {
                if graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).is_err() {
                    continue;
                }
            }
            for placement in graceful::plan::valid_placements(&spec) {
                let mut plan = match build_plan(&spec, placement) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!(
                            "lint plan: {name}/{seed}/{}: build failed: {e}",
                            placement.label()
                        );
                        diagnostics += 1;
                        continue;
                    }
                };
                plans += 1;
                for d in lint_plan(&db, &mut plan, &mut dead_join_lanes) {
                    eprintln!("lint plan: {name}/{seed}/{}: {d}", placement.label());
                    diagnostics += 1;
                }
            }
        }
    }
    if plans < MIN_PLANS {
        eprintln!("lint plan: corpus shrank to {plans} plans (< {MIN_PLANS})");
        diagnostics += 1;
    }
    if diagnostics > 0 {
        eprintln!("lint plan: {diagnostics} diagnostics over {plans} plans");
        return 1;
    }
    if dead_join_lanes == 0 {
        eprintln!("lint plan: shortcut without traffic: 0 dead join lanes over {plans} plans");
        return 1;
    }
    println!(
        "lint plan: {plans} plans verified clean ({} schemas, {dead_join_lanes} dead join lanes)",
        SCHEMAS.len()
    );
    0
}

fn check_flight(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lint flight: cannot read {path}: {e}");
            return 2;
        }
    };
    let records = match flight::parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint flight: {path}: {e}");
            return 1;
        }
    };
    if records.is_empty() {
        eprintln!("lint flight: {path}: no flight records");
        return 1;
    }
    let model_scored = records.iter().filter(|r| r.model_q.is_some()).count();
    let card_qs: Vec<f64> =
        records.iter().flat_map(|r| r.ops.iter().filter_map(|o| o.card_q)).collect();
    let worst = card_qs.iter().copied().fold(f64::NAN, f64::max);
    println!(
        "{path}: {} records OK ({model_scored} model-scored, {} per-op cardinality q-errors{})",
        records.len(),
        card_qs.len(),
        if card_qs.is_empty() { String::new() } else { format!(", worst {worst:.2}") }
    );
    0
}
