//! Property-based tests over the substrate invariants.
//!
//! Strategy: `proptest` drives seeds and scalar knobs; the domain generators
//! (databases, UDFs, queries) are deterministic functions of those seeds, so
//! failures shrink to a reproducible seed.

use graceful::prelude::*;
use graceful_cfg::EdgeKind;
use graceful_common::metrics::q_error;
use graceful_common::rng::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every generated UDF's printed source re-parses to the identical AST.
    #[test]
    fn generated_udfs_round_trip(seed in 0u64..5_000) {
        let db = generate(&schema("tpc_h"), 0.02, 1);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        let reparsed = parse_udf(&u.source).expect("generated UDF parses");
        prop_assert_eq!(&u.def, &reparsed);
    }

    /// Every generated UDF evaluates without error on adapted data and its
    /// DAG satisfies the paper's structural invariants.
    #[test]
    fn generated_udfs_evaluate_and_lower(seed in 0u64..5_000) {
        let mut db = generate(&schema("imdb"), 0.02, 2);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        let table = db.table(&u.table).unwrap();
        let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
        let mut interp = Interpreter::default();
        for row in 0..table.num_rows().min(10) {
            let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            let out = interp.eval(&u.def, &args).expect("UDF evaluates");
            prop_assert!(out.cost.total > 0.0);
        }
        // DAG invariants: single INV + RET, balanced LOOP/LOOP_END, acyclic
        // by index order, one residual edge per loop.
        let types: Vec<DataType> = u
            .input_columns
            .iter()
            .map(|c| table.column_type(c).unwrap())
            .collect();
        let dag = build_dag(&u.def, &types, DataType::Float, DagConfig::default());
        let count = |k: UdfNodeKind| dag.nodes.iter().filter(|n| n.kind == k).count();
        prop_assert_eq!(count(UdfNodeKind::Inv), 1);
        prop_assert_eq!(count(UdfNodeKind::Ret), 1);
        prop_assert_eq!(count(UdfNodeKind::Loop), count(UdfNodeKind::LoopEnd));
        let residuals = dag.edges.iter().filter(|(_, _, k)| *k == EdgeKind::Residual).count();
        prop_assert_eq!(residuals, count(UdfNodeKind::Loop));
        for &(s, d, _) in &dag.edges {
            prop_assert!(s < d);
        }
    }

    /// Row annotation conserves probability: INV and RET always carry the
    /// full input rows; no node exceeds them.
    #[test]
    fn dag_row_annotation_is_conservative(seed in 0u64..5_000, sel in 0.01f64..0.99) {
        let db = generate(&schema("tpc_h"), 0.02, 3);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        let dag = build_dag(&u.def, &[], DataType::Float, DagConfig::default());
        let rows = dag.control_paths().in_rows(1000.0, |decisions| {
            decisions.iter().fold(1.0, |p, &(b, taken)| {
                let s = dag.nodes[b as usize].cond.as_ref().map_or(0.5, |_| sel);
                p * if taken { s } else { 1.0 - s }
            })
        });
        prop_assert!((rows[dag.inv] - 1000.0).abs() < 1e-6);
        prop_assert!((rows[dag.ret] - 1000.0).abs() < 1e-6);
        for &r in &rows {
            prop_assert!(r <= 1000.0 + 1e-6);
            prop_assert!(r >= -1e-6);
        }
    }

    /// Plan rewrites preserve query answers (pull-up == push-down), for any
    /// generated query with a movable UDF filter.
    #[test]
    fn plan_rewrites_preserve_semantics(seed in 0u64..2_000) {
        let mut db = generate(&schema("movielens"), 0.02, 4);
        let qgen = QueryGenerator::default();
        let mut rng = Rng::seed(seed);
        let spec = qgen.generate(&db, seed, &mut rng).unwrap();
        prop_assume!(spec.has_udf() && spec.udf_usage == UdfUsage::Filter && !spec.joins.is_empty());
        if let Some(u) = &spec.udf {
            graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        }
        let session = Session::from_env().unwrap();
        let mut results = Vec::new();
        for placement in graceful::plan::valid_placements(&spec) {
            let plan = build_plan(&spec, placement).unwrap();
            plan.validate().unwrap();
            results.push(session.run(&db, &plan, spec.id).unwrap().agg_value);
        }
        for w in results.windows(2) {
            let rel = (w[0] - w[1]).abs() / w[0].abs().max(1e-9);
            prop_assert!(rel < 1e-9, "placements disagree: {:?}", results);
        }
    }

    /// The bytecode VM is a drop-in replacement for the tree-walker: for
    /// every generator-produced UDF and every row, the evaluated value AND
    /// the accounted cost (every counter, bit-for-bit totals) must match.
    #[test]
    fn vm_matches_tree_walker_on_generated_corpus(seed in 0u64..5_000) {
        let mut db = generate(&schema("tpc_h"), 0.02, 6);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        let table = db.table(&u.table).unwrap();
        let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
        let prog = compile(&u.def).expect("generated UDF compiles");
        let mut interp = Interpreter::default();
        let mut vm = Vm::default();
        for row in 0..table.num_rows().min(16) {
            let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            let reference = interp.eval(&u.def, &args).expect("tree-walker evaluates");
            let out = vm.eval(&prog, &args).expect("VM evaluates");
            prop_assert_eq!(&out.value, &reference.value, "row {} value", row);
            prop_assert_eq!(&out.cost, &reference.cost, "row {} cost", row);
        }
    }

    /// Batch evaluation equals row-at-a-time evaluation: same outputs in
    /// order, and the batch cost counter equals the row costs merged in row
    /// order (so the engine's work accounting is batch-size independent).
    #[test]
    fn vm_batches_equal_rows(seed in 0u64..5_000) {
        let mut db = generate(&schema("ssb"), 0.02, 8);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        let table = db.table(&u.table).unwrap();
        let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
        let rows = table.num_rows().min(24);
        let col_data: Vec<Vec<Value>> = cols
            .iter()
            .map(|c| (0..rows).map(|r| c.value(r)).collect())
            .collect();
        let prog = compile(&u.def).unwrap();
        let mut vm = Vm::default();
        let slices: Vec<&[Value]> = col_data.iter().map(|c| c.as_slice()).collect();
        let mut batch_out = Vec::new();
        let mut batch_cost = graceful::udf::CostCounter::new();
        vm.eval_batch(&prog, &slices, &mut batch_out, &mut batch_cost).unwrap();
        prop_assert_eq!(batch_out.len(), rows);
        let mut merged = graceful::udf::CostCounter::new();
        for r in 0..rows {
            let args: Vec<Value> = col_data.iter().map(|c| c[r].clone()).collect();
            let one = vm.eval(&prog, &args).unwrap();
            prop_assert_eq!(&one.value, &batch_out[r]);
            merged.merge(&one.cost);
        }
        prop_assert_eq!(merged, batch_cost);
    }

    /// The columnar SIMD path is a drop-in for the batch VM: over the
    /// generated corpus, batch values and the merged cost counters (every
    /// counter, bit-for-bit `f64` totals) must equal both the row-at-a-time
    /// VM and a tree-walker row loop.
    #[test]
    fn simd_matches_vm_and_tree_walker_on_generated_corpus(seed in 0u64..5_000) {
        use graceful::udf::TypedCol;
        let mut db = generate(&schema("baseball"), 0.02, 9);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        let table = db.table(&u.table).unwrap();
        let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
        let rows = table.num_rows().min(48);
        let col_data: Vec<Vec<Value>> =
            cols.iter().map(|c| (0..rows).map(|r| c.value(r)).collect()).collect();
        let slices: Vec<&[Value]> = col_data.iter().map(|c| c.as_slice()).collect();
        let prog = compile(&u.def).unwrap();
        let shape = prog.simd_shape();

        let mut vm = Vm::default();
        let mut vm_out = Vec::new();
        let mut vm_cost = graceful::udf::CostCounter::new();
        vm.eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).expect("VM evaluates");

        let mut interp = Interpreter::default();
        let mut tw_cost = graceful::udf::CostCounter::new();
        for r in 0..rows {
            let args: Vec<Value> = col_data.iter().map(|c| c[r].clone()).collect();
            let o = interp.eval(&u.def, &args).expect("tree-walker evaluates");
            prop_assert_eq!(&o.value, &vm_out[r], "row {} value", r);
            tw_cost.merge(&o.cost);
        }
        prop_assert_eq!(&vm_cost, &tw_cost, "counters differ from tree-walker");
        prop_assert_eq!(vm_cost.total.to_bits(), tw_cost.total.to_bits());

        // The engine's own decision (`UdfEvalSpec::prepare`): lanes when the
        // program has a lane path and every input a lane type, gathered
        // straight from storage. Any other UDF runs on the batch VM, which
        // the loop above has just compared.
        let lanes: Option<Vec<TypedCol>> = shape
            .has_fast_path
            .then(|| cols.iter().map(|c| TypedCol::for_type(c.data_type())).collect())
            .flatten();
        if let Some(mut lanes) = lanes {
            let rids: Vec<usize> = (0..rows).collect();
            for (lane, col) in lanes.iter_mut().zip(&cols) {
                lane.fill_from_column(col, &rids).expect("lane type matches the column");
            }
            let mut simd_out = Vec::new();
            let mut simd_cost = graceful::udf::CostCounter::new();
            let mut stats = graceful::udf::UdfStats::default();
            graceful::udf::simd::eval_batch_typed(
                &mut vm, &prog, &shape, &lanes, &mut simd_out, &mut simd_cost, &mut stats,
            ).expect("typed lanes evaluate");
            prop_assert_eq!(stats.rows, rows as u64, "the lanes saw every row");
            prop_assert_eq!(stats.lane_rows + stats.bail_rows, stats.rows, "and classified it");
            prop_assert_eq!(&simd_out, &vm_out, "values differ from batch VM");
            prop_assert_eq!(&simd_cost, &vm_cost, "counters differ from batch VM");
            prop_assert_eq!(
                simd_cost.total.to_bits(), vm_cost.total.to_bits(),
                "work totals not bit-identical: {} vs {}", simd_cost.total, vm_cost.total
            );
        } else {
            prop_assert!(
                !shape.has_fast_path || cols.iter().any(|c| c.data_type() == DataType::Text),
                "a UDF stays off the lanes for its shape or for a text input"
            );
        }
    }

    /// Q-error is symmetric and >= 1 for all positive pairs.
    #[test]
    fn q_error_properties(a in 1e-6f64..1e12, b in 1e-6f64..1e12) {
        let q = q_error(a, b);
        prop_assert!(q >= 1.0);
        prop_assert!((q - q_error(b, a)).abs() < 1e-9 * q);
    }

    /// Estimator outputs are always finite, non-negative selectivities.
    #[test]
    fn estimator_selectivities_in_range(seed in 0u64..2_000, lit in -100f64..100.0) {
        let db = generate(&schema("airline"), 0.02, 5);
        let preds = vec![graceful::plan::Pred::new(
            "flight",
            "dep_delay",
            graceful::udf::ast::CmpOp::Lt,
            Value::Float(lit),
        )];
        let actual = ActualCard::new(&db);
        let naive = NaiveCard::new(&db);
        let dd = DataDrivenCard::build(&db, seed);
        let samp = SamplingCard::new(&db, 50, seed);
        for est in [&actual as &dyn CardEstimator, &naive, &dd, &samp] {
            let s = est.conjunction_selectivity("flight", &preds);
            prop_assert!((0.0..=1.0).contains(&s), "{} returned {s}", est.name());
        }
    }
}

/// One call an estimator answers: annotate a query's plan (and featurize
/// it, which reads the UDF's hit ratios), or a conjunction's selectivity.
enum Call<'a> {
    Annotate(&'a QuerySpec, graceful::plan::Plan),
    Select(&'a str, Vec<graceful::plan::Pred>),
}

/// The bits `est` answers `call` with: every estimate and every feature of
/// the graph featurized from them, or the selectivity. Every estimate must
/// be finite, non-negative and at most the plan's monotone upper bound.
fn answer(db: &Database, est: &dyn CardEstimator, call: &Call) -> Vec<u64> {
    let (spec, plan) = match call {
        Call::Annotate(spec, plan) => (spec, plan),
        Call::Select(table, preds) => {
            return vec![est.conjunction_selectivity(table, preds).to_bits()]
        }
    };
    let mut plan = plan.clone();
    est.annotate(&mut plan).expect("a generated plan annotates");
    let bounds = graceful::plan::analysis::upper_bounds(&plan, db).expect("bounds");
    for (op, bound) in plan.ops.iter().zip(bounds) {
        let e = op.est_out_rows;
        let what = format!("{}: {} estimates {e}, bound {bound}", est.name(), op.kind.name());
        assert!(e.is_finite() && e >= 0.0 && e <= bound, "{what}");
    }
    let graph = Featurizer::full().featurize(db, spec, &plan, est).expect("featurizes");
    let features = graph.features.iter().flatten().map(|x| u64::from(x.to_bits()));
    plan.ops.iter().map(|op| op.est_out_rows.to_bits()).chain(features).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The estimator contract, for all four estimators, over generated
    /// plans: a call returns the same bits whatever calls came before it
    /// (every answer is computed in one order and again in the reverse
    /// order, so each sees another history), and every estimate is finite,
    /// non-negative and within `plan::analysis::upper_bounds`.
    #[test]
    fn every_estimator_is_a_function_of_its_input(seed in 0u64..2_000) {
        let mut db = generate(&schema("tpc_h"), 0.02, 13);
        let (qgen, mut rng) = (QueryGenerator::default(), Rng::seed(seed));
        let specs = [0, 1].map(|i| qgen.generate(&db, seed + i, &mut rng).unwrap());
        for u in specs.iter().filter_map(|s| s.udf.as_ref()) {
            graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        }
        let mut calls = Vec::new();
        for spec in &specs {
            for placement in graceful::plan::valid_placements(spec) {
                calls.push(Call::Annotate(spec, build_plan(spec, placement).unwrap()));
            }
            for p in &spec.filters {
                let on_table = spec.filters.iter().filter(|q| q.col.table == p.col.table);
                calls.push(Call::Select(&p.col.table, vec![p.clone()]));
                calls.push(Call::Select(&p.col.table, on_table.cloned().collect()));
            }
        }
        for kind in EstimatorKind::ALL {
            let est = kind.build(&db, seed);
            let forward: Vec<_> = calls.iter().map(|c| answer(&db, est.as_ref(), c)).collect();
            let mut backward: Vec<_> =
                calls.iter().rev().map(|c| answer(&db, est.as_ref(), c)).collect();
            backward.reverse();
            prop_assert!(forward == backward, "{:?} answered by its call history", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The bytecode verifier accepts every program the compiler emits over
    /// the generated corpus. `compile()` already runs it, always; a second
    /// explicit pass proves verification is idempotent on an accepted
    /// program.
    #[test]
    fn verifier_accepts_every_compiled_program(seed in 0u64..5_000) {
        let db = generate(&schema("imdb"), 0.02, 11);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        let prog = compile(&u.def).expect("compile verifies");
        graceful::udf::analysis::verify(&prog).expect("verification is idempotent");
    }

    /// Corrupted bytecode — the mutations a decoder bug or a stale plan
    /// cache could produce — is rejected with a typed
    /// [`GracefulError::Verify`] before anything executes it: never a panic,
    /// never a silent accept.
    #[test]
    fn corrupted_bytecode_is_rejected_not_executed(seed in 0u64..2_000) {
        use graceful::udf::bytecode::{Instr, Operand};
        use graceful_common::GracefulError;
        let db = generate(&schema("ssb"), 0.02, 12);
        let gen = UdfGenerator::default();
        let mut rng = Rng::seed(seed);
        let u = gen.generate(&db, &mut rng).unwrap();
        let prog = compile(&u.def).unwrap();
        let verify = graceful::udf::analysis::verify;

        // Jump target far past the end of the program.
        let jump_pc = prog.instrs.iter().position(|i| {
            matches!(i, Instr::Jump { .. } | Instr::JumpIfFalse { .. } | Instr::JumpIfTrue { .. })
        });
        if let Some(pc) = jump_pc {
            let mut bad = prog.clone();
            match &mut bad.instrs[pc] {
                Instr::Jump { target }
                | Instr::JumpIfFalse { target, .. }
                | Instr::JumpIfTrue { target, .. } => *target = 1_000_000,
                _ => unreachable!(),
            }
            prop_assert!(matches!(verify(&bad), Err(GracefulError::Verify(_))));
        }

        // Dropped trailing return (the compiler always ends on one):
        // control can now fall off the end of the instruction stream.
        let mut bad = prog.clone();
        let last = bad.instrs.len() - 1;
        bad.instrs[last] = Instr::Cost(graceful::udf::bytecode::CostKind::Stmt);
        prop_assert!(matches!(verify(&bad), Err(GracefulError::Verify(_))));

        // Write to a register past the frame.
        let mut bad = prog.clone();
        bad.instrs.insert(0, Instr::Copy { dst: prog.n_regs + 7, src: Operand::constant(0) });
        prop_assert!(matches!(verify(&bad), Err(GracefulError::Verify(_))));

        // Read of a constant-pool index that does not exist.
        let mut bad = prog.clone();
        let oob = Operand::constant(prog.consts.len() as u16 + 5);
        bad.instrs.insert(0, Instr::Copy { dst: 0, src: oob });
        prop_assert!(matches!(verify(&bad), Err(GracefulError::Verify(_))));
    }

    /// A constant-trip `for` loop is a loop to the lanes: every row bails
    /// to the scalar VM at it and stays bit-identical to the scalar VM and
    /// the tree-walker across random inputs.
    #[test]
    fn literal_loops_bail_and_stay_bit_identical(seed in 0u64..5_000) {
        use graceful::udf::{InstrClass, TypedCol};
        let u = parse_udf(
            "def f(x0):\n    z = 0\n    for i in range(12):\n        z = z + i * x0\n    return z\n",
        )
        .unwrap();
        let prog = compile(&u).unwrap();
        let shape = prog.simd_shape();
        prop_assert!(shape.class.contains(&InstrClass::Bail), "the loop bails");

        let mut rng = Rng::seed(seed);
        let rows = 256;
        let data: Vec<Value> =
            (0..rows).map(|_| Value::Int(rng.normal(0.0, 50.0) as i64)).collect();
        let cols = vec![TypedCol::from_values(&data).expect("int column types")];

        let mut simd_vm = Vm::default();
        let mut simd_out = Vec::new();
        let mut simd_cost = graceful::udf::CostCounter::new();
        let mut stats = graceful::udf::UdfStats::default();
        graceful::udf::simd::eval_batch_typed(
            &mut simd_vm, &prog, &shape, &cols, &mut simd_out, &mut simd_cost, &mut stats,
        )
        .expect("SIMD path evaluates");
        prop_assert_eq!((stats.lane_rows, stats.bail_rows), (0, rows as u64), "every row bails");

        let slices = vec![data.as_slice()];
        let mut vm = Vm::default();
        let mut vm_out = Vec::new();
        let mut vm_cost = graceful::udf::CostCounter::new();
        vm.eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).unwrap();
        prop_assert_eq!(&simd_out, &vm_out);
        prop_assert_eq!(&simd_cost, &vm_cost);
        prop_assert_eq!(simd_cost.total.to_bits(), vm_cost.total.to_bits());

        let mut interp = Interpreter::default();
        let mut tw_cost = graceful::udf::CostCounter::new();
        for r in 0..rows {
            let o = interp.eval(&u, &[data[r].clone()]).unwrap();
            prop_assert_eq!(&o.value, &simd_out[r], "row {} value", r);
            tw_cost.merge(&o.cost);
        }
        prop_assert_eq!(&simd_cost, &tw_cost);
        prop_assert_eq!(simd_cost.total.to_bits(), tw_cost.total.to_bits());
    }
}

/// The mutated plan must be rejected twice over: by the standalone plan
/// verifier, and by the executor's gate, which nothing switches off, in front
/// of `run` and of `run_reference` — all with the typed [`GracefulError::PlanVerify`](graceful_common::GracefulError),
/// never a panic, never a silent accept.
fn assert_plan_rejected(db: &Database, bad: &graceful::plan::Plan, seed: u64, what: &str) {
    use graceful_common::GracefulError;
    match graceful::plan::analysis::verify(bad, db) {
        Err(GracefulError::PlanVerify(_)) => {}
        other => panic!("verifier accepted a plan with {what}: {other:?}"),
    }
    let session = Session::new();
    for (entry, run) in [
        ("run", session.run(db, bad, seed)),
        ("run_reference", session.run_reference(db, bad, seed)),
    ] {
        match run {
            Err(GracefulError::PlanVerify(_)) => {}
            Err(other) => panic!("{entry} mis-typed {what}: {other:?}"),
            Ok(run) => panic!("{entry} ran a plan with {what}: {}", run.agg_value),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every plan the workload generator emits — across all valid UDF
    /// placements — passes the plan verifier, and after cardinality
    /// annotation the estimates stay within the monotone upper bounds.
    #[test]
    fn plan_verifier_accepts_generated_corpus(seed in 0u64..5_000) {
        let mut db = generate(&schema("tpc_h"), 0.02, 13);
        let qgen = QueryGenerator::default();
        let mut rng = Rng::seed(seed);
        let spec = qgen.generate(&db, seed, &mut rng).unwrap();
        if let Some(u) = &spec.udf {
            graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        }
        for placement in graceful::plan::valid_placements(&spec) {
            let mut plan = build_plan(&spec, placement).unwrap();
            graceful::plan::analysis::verify(&plan, &db).expect("generated plan verifies");
            NaiveCard::new(&db).annotate(&mut plan).unwrap();
            graceful::plan::analysis::verify(&plan, &db).expect("annotated plan verifies");
            graceful::plan::analysis::verify_bounds(&plan, &db)
                .expect("estimates respect monotone bounds");
        }
    }

    /// Mutated plans — the corruptions a buggy rewriter or a stale plan
    /// cache could produce — are rejected with typed `PlanVerify` errors by
    /// the verifier and by the gate of both executor entry points: dangling
    /// children, cycles, unknown columns, wrong aggregate arity, mismatched
    /// join-key types and corrupted cardinality estimates all surface as
    /// errors, never as panics.
    #[test]
    fn mutated_plans_rejected_with_typed_errors(seed in 0u64..2_000) {
        use graceful::plan::{PlanOpKind, Pred};
        use graceful::udf::ast::CmpOp;
        let mut db = generate(&schema("movielens"), 0.02, 14);
        let qgen = QueryGenerator::default();
        let mut rng = Rng::seed(seed);
        let spec = qgen.generate(&db, seed, &mut rng).unwrap();
        if let Some(u) = &spec.udf {
            graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        }
        let placement = graceful::plan::valid_placements(&spec)[0];
        let plan = build_plan(&spec, placement).unwrap();
        graceful::plan::analysis::verify(&plan, &db).expect("baseline plan verifies");
        let root = plan.root;

        // Dangling child index, far out of the arena.
        if !plan.ops[root].children.is_empty() {
            let mut bad = plan.clone();
            bad.ops[root].children[0] = bad.ops.len() + 40;
            assert_plan_rejected(&db, &bad, seed, "a dangling child");

            // Self-loop: the root consumes itself.
            let mut bad = plan.clone();
            bad.ops[root].children[0] = root;
            assert_plan_rejected(&db, &bad, seed, "a cycle");

            // Wrong arity: a second child on a unary operator.
            let mut bad = plan.clone();
            bad.ops[root].children.push(0);
            assert_plan_rejected(&db, &bad, seed, "wrong arity");
        }

        // Unknown column in a filter predicate.
        let filter = plan.ops.iter().position(|op| matches!(op.kind, PlanOpKind::Filter { .. }));
        if let Some(i) = filter {
            let mut bad = plan.clone();
            if let PlanOpKind::Filter { preds } = &mut bad.ops[i].kind {
                let t = preds[0].col.table.clone();
                preds[0] = Pred::new(&t, "no_such_column", CmpOp::Lt, Value::Int(0));
            }
            assert_plan_rejected(&db, &bad, seed, "an unknown column");
        }

        // Join keys of mismatched types (when the right table has a column
        // of a different type to retarget the key at).
        let join = plan.ops.iter().position(|op| matches!(op.kind, PlanOpKind::Join { .. }));
        if let Some(i) = join {
            let mut bad = plan.clone();
            let mut mutated = false;
            if let PlanOpKind::Join { left_col, right_col } = &mut bad.ops[i].kind {
                let lt = db.table(&left_col.table).unwrap()
                    .column_type(&left_col.column).unwrap();
                let rt = db.table(&right_col.table).unwrap();
                if let Some(alt) = rt.columns().iter().find(|c| c.data_type() != lt) {
                    right_col.column = alt.name.clone();
                    mutated = true;
                }
            }
            if mutated {
                assert_plan_rejected(&db, &bad, seed, "mismatched join-key types");
            }
        }

        // Corrupted cardinality annotations.
        for est in [f64::NAN, f64::INFINITY, -5.0] {
            let mut bad = plan.clone();
            bad.ops[root].est_out_rows = est;
            assert_plan_rejected(&db, &bad, seed, "a corrupt est_out_rows");
        }
    }
}

/// Neutralising a definedness guard (`CheckDef` → plain `Cost(Stmt)`) on a
/// branch-only assignment turns a guarded read into a use-before-def, and the
/// verifier must say so — with the variable named in the diagnostic.
#[test]
fn verifier_names_the_variable_in_use_before_def_mutations() {
    use graceful::udf::bytecode::{CostKind, Instr};
    use graceful_common::GracefulError;
    let u = parse_udf("def f(x0):\n    if x0 < 0:\n        z = 1\n    return z\n").unwrap();
    let prog = compile(&u).unwrap();
    let pc = prog
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::CheckDef { .. }))
        .expect("branch-only assignment compiles a CheckDef guard");
    let mut bad = prog.clone();
    bad.instrs[pc] = Instr::Cost(CostKind::Stmt);
    match graceful::udf::analysis::verify(&bad) {
        Err(GracefulError::Verify(msg)) => {
            assert!(msg.contains("read before it is written"), "got: {msg}");
            assert!(msg.contains("`z`"), "diagnostic names the slot: {msg}");
        }
        other => panic!("expected Verify error, got {other:?}"),
    }
}

/// A pathological `while True` UDF must be cut off by the typed
/// [`GracefulError::IterationLimit`] — and both backends must report the
/// exact same error.
#[test]
fn iteration_limit_reported_identically_by_both_backends() {
    use graceful_common::GracefulError;
    let udf =
        parse_udf("def f(x0):\n    z = 0\n    while x0 < 1:\n        z = z + 1\n    return z\n")
            .unwrap();
    let args = [Value::Int(0)];
    let tree_err = Interpreter::default().eval(&udf, &args).unwrap_err();
    let prog = compile(&udf).unwrap();
    let vm_err = Vm::default().eval(&prog, &args).unwrap_err();
    assert_eq!(tree_err, GracefulError::IterationLimit { limit: graceful::udf::MAX_WHILE_ITERS });
    assert_eq!(tree_err, vm_err);
    assert_eq!(tree_err.to_string(), vm_err.to_string());
}
