//! Edge-case integration tests: empty intermediates, degenerate
//! selectivities, projection UDFs, and whole-catalog generation.

use graceful::prelude::*;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::sync::Arc;

#[test]
fn all_twenty_datasets_generate_with_stats() {
    for name in DATASET_NAMES {
        let db = generate(&schema(name), 0.02, 1);
        assert!(db.total_rows() > 0, "{name} generated empty");
        for t in db.tables() {
            let st = db.stats(&t.name).unwrap();
            assert_eq!(st.num_rows, t.num_rows());
            for c in t.columns() {
                // Stats exist and are internally consistent for every column.
                let cs = st.column(&c.name).unwrap();
                assert!(cs.ndv <= st.num_rows.max(1), "{name}.{}.{}", t.name, c.name);
                assert!((0.0..=1.0).contains(&cs.null_fraction));
            }
        }
    }
}

#[test]
fn udf_filter_over_empty_input_is_free_and_correct() {
    let db = generate(&schema("tpc_h"), 0.02, 2);
    let def = parse_udf("def f(x0):\n    return x0 * 2\n").unwrap();
    let udf = Arc::new(GeneratedUdf::new(def, "orders_t", vec!["totalprice".into()]));
    // A filter that eliminates everything, below the UDF.
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Filter {
                    preds: vec![Pred::new(
                        "orders_t",
                        "totalprice",
                        CmpOp::Lt,
                        Value::Float(-1e18),
                    )],
                },
                vec![0],
            ),
            PlanOp::new(PlanOpKind::UdfFilter { udf, op: CmpOp::Ge, literal: 0.0 }, vec![1]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
        ],
        root: 3,
    };
    let run = Session::from_env().unwrap().run(&db, &plan, 1).unwrap();
    assert_eq!(run.agg_value, 0.0);
    assert_eq!(run.udf_input_rows, 0);
    assert_eq!(run.out_rows[1], 0);
    assert!(run.runtime_ns > 0.0, "scan work is still accounted");
}

#[test]
fn scale_above_udf_extremes() {
    use graceful::card::scale_above_udf;
    let _db = generate(&schema("tpc_h"), 0.02, 3);
    let def = parse_udf("def f(x0):\n    return x0\n").unwrap();
    let udf = Arc::new(GeneratedUdf::new(def, "orders_t", vec!["totalprice".into()]));
    let mut plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::UdfFilter { udf, op: CmpOp::Le, literal: 0.0 }, vec![0]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("orders_t", "cust_id"),
                    right_col: ColRef::new("customer_t", "id"),
                },
                vec![1, 1],
            ),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
        ],
        root: 3,
    };
    plan.ops[0].est_out_rows = 1000.0;
    plan.ops[1].est_out_rows = 500.0;
    plan.ops[2].est_out_rows = 2000.0;
    plan.ops[3].est_out_rows = 1.0;
    scale_above_udf(&mut plan, 0.0);
    assert_eq!(plan.ops[1].est_out_rows, 0.0);
    assert_eq!(plan.ops[2].est_out_rows, 0.0);
    assert_eq!(plan.ops[3].est_out_rows, 1.0, "agg output stays 1");
    scale_above_udf(&mut plan, 1.0);
    assert_eq!(plan.ops[1].est_out_rows, 1000.0);
}

#[test]
fn projection_udf_queries_execute_and_featurize() {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 30, ..ScaleConfig::default() };
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    let corpus = build_corpus_in(&session, "consumer", &cfg, 11).unwrap();
    let proj =
        corpus.queries.iter().find(|q| q.has_udf() && q.spec.udf_usage == UdfUsage::Projection);
    let Some(q) = proj else { return };
    // UDF_PROJECT op exists, aggregate consumed its output.
    assert!(q.plan.ops.iter().any(|o| matches!(o.kind, PlanOpKind::UdfProject { .. })));
    let est = ActualCard::new(&corpus.db);
    let mut plan = q.plan.clone();
    est.annotate(&mut plan).unwrap();
    let g = Featurizer::full().featurize(&corpus.db, &q.spec, &plan, &est).unwrap();
    assert!(g.len() > plan.ops.len());
}

#[test]
fn interpreter_string_edge_cases() {
    let mut interp = Interpreter::default();
    // find() miss returns -1 like Python.
    let udf = parse_udf("def f(s):\n    return s.find('zzz')\n").unwrap();
    let out = interp.eval(&udf, &[Value::Text("abc".into())]).unwrap();
    assert_eq!(out.value, Value::Int(-1));
    // Repetition is clamped, replace with empty needle is identity.
    let udf2 = parse_udf("def f(s):\n    return s.replace('', 'x')\n").unwrap();
    let out2 = interp.eval(&udf2, &[Value::Text("ab".into())]).unwrap();
    assert_eq!(out2.value, Value::Text("ab".into()));
    // String method on NULL yields NULL, not an error.
    let out3 = interp.eval(&udf2, &[Value::Null]).unwrap();
    assert_eq!(out3.value, Value::Null);
}

#[test]
fn hit_ratio_with_contradictory_prefilter_is_zero_ish() {
    let db = generate(&schema("tpc_h"), 0.05, 5);
    let def = parse_udf("def f(x0):\n    if x0 > 40:\n        return 1\n    return 0\n").unwrap();
    let udf = GeneratedUdf::new(def, "lineitem_t", vec!["quantity".into()]);
    let actual = ActualCard::new(&db);
    let hr = HitRatioEstimator::new(&actual);
    // Pre-filter keeps only quantity <= 10, branch needs > 40: impossible.
    let pre = vec![Pred::new("lineitem_t", "quantity", CmpOp::Le, Value::Int(10))];
    let cond = graceful::cfg::BranchCondInfo { param: "x0".into(), op: CmpOp::Gt, literal: 40.0 };
    let p = hr.path_probability(&udf, &pre, &[(Some(cond), true)]);
    assert!(p < 1e-6, "impossible path got probability {p}");
}

#[test]
fn q_error_summary_average_matches_manual() {
    use graceful::common::metrics::QErrorSummary;
    let a = QErrorSummary { median: 1.2, p95: 3.0, p99: 9.0, count: 5 };
    let b = QErrorSummary { median: 1.8, p95: 5.0, p99: 11.0, count: 7 };
    let avg = QErrorSummary::average(&[a, b]);
    assert!((avg.median - 1.5).abs() < 1e-12);
    assert_eq!(avg.count, 12);
}

#[test]
fn type_inference_agrees_with_interpreter_on_generated_udfs() {
    use graceful::udf::infer_return_type;
    let mut db = generate(&schema("movielens"), 0.02, 9);
    let gen = UdfGenerator::default();
    let mut rng = Rng::seed(77);
    let mut interp = Interpreter::default();
    let mut checked = 0;
    for _ in 0..25 {
        let u = gen.generate(&db, &mut rng).unwrap();
        graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
        let table = db.table(&u.table).unwrap();
        let types: Vec<DataType> =
            u.input_columns.iter().map(|c| table.column_type(c).unwrap()).collect();
        let inferred = infer_return_type(&u.def, &types);
        let cols: Vec<_> = u.input_columns.iter().map(|c| table.column(c).unwrap()).collect();
        for row in 0..table.num_rows().min(5) {
            let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            let out = interp.eval(&u.def, &args).unwrap();
            match out.value.data_type() {
                // Int is allowed to widen to Float in the static result.
                Some(DataType::Int) => {
                    assert!(matches!(inferred, DataType::Int | DataType::Float))
                }
                Some(dt) => assert_eq!(dt, inferred, "udf:\n{}", u.source),
                None => {} // NULL carries no type evidence
            }
            checked += 1;
        }
    }
    assert!(checked > 50);
}

/// Float→int cast edges (`math.floor` / `math.ceil` / `int(..)` on NaN, ±inf
/// and floats beyond the i64 range) follow Rust's saturating cast — NaN → 0,
/// out-of-range clamps to i64::MIN/MAX — and all three execution paths
/// (tree-walker, batch VM, columnar SIMD) pin the identical results.
#[test]
fn float_to_int_cast_edges_are_identical_across_all_three_paths() {
    use graceful::udf::{simd, CostCounter, TypedCol, UdfStats};

    let udf =
        parse_udf("def f(x0):\n    return int(x0) + math.floor(x0) + math.ceil(x0)\n").unwrap();
    let prog = compile(&udf).unwrap();
    let shape = prog.simd_shape();

    let edges = [
        (f64::NAN, 0i64),
        (f64::INFINITY, i64::MAX), // saturates: 3 * MAX wraps below
        (f64::NEG_INFINITY, i64::MIN),
        (1e19, i64::MAX),                 // > i64::MAX
        (-1e19, i64::MIN),                // < i64::MIN
        (9.223372036854776e18, i64::MAX), // just past i64::MAX
    ];
    let xs: Vec<Value> = edges.iter().map(|&(x, _)| Value::Float(x)).collect();

    // Reference: the tree-walker, row by row.
    let mut interp = Interpreter::default();
    let mut tw_vals = Vec::new();
    let mut tw_cost = CostCounter::new();
    for x in &xs {
        let o = interp.eval(&udf, std::slice::from_ref(x)).unwrap();
        tw_vals.push(o.value);
        tw_cost.merge(&o.cost);
    }
    // Each single cast saturates to the documented pin (the UDF sums three
    // casts, so check the raw single-cast pin explicitly through int()).
    let single = parse_udf("def f(x0):\n    return int(x0)\n").unwrap();
    for &(x, pinned) in &edges {
        let o = Interpreter::default().eval(&single, &[Value::Float(x)]).unwrap();
        assert_eq!(o.value, Value::Int(pinned), "int({x}) pin");
    }

    // Batch VM.
    let slices: Vec<&[Value]> = vec![&xs];
    let mut vm = Vm::default();
    let mut vm_vals = Vec::new();
    let mut vm_cost = CostCounter::new();
    vm.eval_batch(&prog, &slices, &mut vm_vals, &mut vm_cost).unwrap();
    assert_eq!(vm_vals, tw_vals);
    assert_eq!(vm_cost, tw_cost);

    // Typed lanes, every row on them.
    let lanes = [TypedCol::from_values(&xs).expect("a float column")];
    let mut simd_vals = Vec::new();
    let mut simd_cost = CostCounter::new();
    let mut stats = UdfStats::default();
    simd::eval_batch_typed(
        &mut Vm::default(),
        &prog,
        &shape,
        &lanes,
        &mut simd_vals,
        &mut simd_cost,
        &mut stats,
    )
    .unwrap();
    assert_eq!(stats.lane_rows, xs.len() as u64, "all-numeric straight line: {stats:?}");
    assert_eq!(simd_vals, tw_vals);
    assert_eq!(simd_cost, tw_cost);
    assert_eq!(simd_cost.total.to_bits(), tw_cost.total.to_bits());
}

/// The two kernel-semantics pins of this PR, end to end through UDF source:
/// `np.sign(0)` is 0 (not ±1), and `abs()` of `i64::MIN` saturates instead
/// of panicking — identically on every execution path.
#[test]
fn sign_and_abs_kernel_pins_hold_on_every_path() {
    use graceful::udf::{simd, CostCounter, TypedCol, UdfStats};

    let udf = parse_udf("def f(x0, x1):\n    return np.sign(x0) + abs(x1)\n").unwrap();
    let prog = compile(&udf).unwrap();
    let shape = prog.simd_shape();
    // One type per column: a mixed column has no lanes.
    let xs = vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(-3.5), Value::Float(2.0)];
    let ys = vec![Value::Int(i64::MIN), Value::Int(-5), Value::Int(i64::MIN), Value::Int(7)];

    let mut interp = Interpreter::default();
    let expected: Vec<Value> = (0..xs.len())
        .map(|r| interp.eval(&udf, &[xs[r].clone(), ys[r].clone()]).unwrap().value)
        .collect();
    // np.sign(0.0) == 0.0 and abs(i64::MIN) == i64::MAX ⇒ 0.0 + MAX as f64.
    assert_eq!(expected[0], Value::Float(0.0 + i64::MAX as f64));
    assert_eq!(expected[1], Value::Float(0.0 + 5.0));

    let slices: Vec<&[Value]> = vec![&xs, &ys];
    let mut vm_vals = Vec::new();
    Vm::default().eval_batch(&prog, &slices, &mut vm_vals, &mut CostCounter::new()).unwrap();
    assert_eq!(vm_vals, expected);

    let lanes: Vec<TypedCol> =
        slices.iter().map(|c| TypedCol::from_values(c).expect("one type per column")).collect();
    let mut simd_vals = Vec::new();
    let mut stats = UdfStats::default();
    simd::eval_batch_typed(
        &mut Vm::default(),
        &prog,
        &shape,
        &lanes,
        &mut simd_vals,
        &mut CostCounter::new(),
        &mut stats,
    )
    .unwrap();
    assert_eq!(stats.lane_rows, xs.len() as u64, "the lanes carry every row: {stats:?}");
    assert_eq!(simd_vals, expected);
}

/// One answer for NaN under `!=`, wherever the comparison sits: a plain
/// `WHERE x != 1.0`, `x != 1.0` inside a UDF, and `WHERE f(x) != 1.0` over
/// the identity UDF keep the same single row of `[1, 2, NaN, NaN, 1]`
/// (NaN satisfies no SQL comparison), under `run` and `run_reference`.
#[test]
fn nan_under_not_equal_has_one_answer_at_all_three_comparison_sites() {
    use graceful_storage::{Column, ColumnData, Table};

    let x = vec![1.0, 2.0, f64::NAN, f64::NAN, 1.0];
    let table = Table::new("t", vec![Column::new("x", ColumnData::Float(x))]).unwrap();
    let db = Database::new("nandb", vec![table]);
    let udf = |source: &str| {
        Arc::new(GeneratedUdf::new(parse_udf(source).unwrap(), "t", vec!["x".into()]))
    };
    let scan = || PlanOp::new(PlanOpKind::Scan { table: "t".into() }, vec![]);
    let count = |filter: PlanOpKind| Plan {
        ops: vec![
            scan(),
            PlanOp::new(filter, vec![0]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
        ],
        root: 2,
    };
    let sites = [
        (
            "WHERE x != 1.0",
            count(PlanOpKind::Filter {
                preds: vec![Pred::new("t", "x", CmpOp::Ne, Value::Float(1.0))],
            }),
        ),
        (
            "WHERE (x != 1.0 inside the UDF) >= 1",
            count(PlanOpKind::UdfFilter {
                udf: udf("def f(x0):\n    return x0 != 1.0\n"),
                op: CmpOp::Ge,
                literal: 1.0,
            }),
        ),
        (
            "WHERE f(x) != 1.0",
            count(PlanOpKind::UdfFilter {
                udf: udf("def f(x0):\n    return x0\n"),
                op: CmpOp::Ne,
                literal: 1.0,
            }),
        ),
    ];
    let session = Session::new();
    for (site, plan) in &sites {
        let run = session.run(&db, plan, 1).unwrap();
        let reference = session.run_reference(&db, plan, 1).unwrap();
        assert_eq!(run.agg_value, 1.0, "{site}: only the 2.0 row differs from 1.0");
        assert_eq!(reference.agg_value, 1.0, "{site} (run_reference)");
        assert_eq!(run.out_rows, reference.out_rows, "{site}");
    }
}

/// A malformed plan gets one answer from every reader of plans: each of the
/// four estimators' `annotate`, `Featurizer::featurize` and
/// `GracefulModel::predict` return the `PlanVerify` error of
/// `Plan::validate`, naming the operator at fault, and none panics. The
/// shapes: a child shared by two parents, a child later in the arena, a join
/// with one child, a dangling child, and a join with a dangling child.
#[test]
fn malformed_plans_are_plan_verify_errors_naming_the_operator() {
    use graceful::common::GracefulError;
    let db = generate(&schema("tpc_h"), 0.02, 3);
    let spec = QueryGenerator::default().generate(&db, 0, &mut Rng::seed(1)).unwrap();
    let model = GracefulModel::new(Featurizer::full(), 8, 1).unwrap();
    let scan = |t: &str| PlanOp::new(PlanOpKind::Scan { table: t.into() }, vec![]);
    let agg = |children| {
        PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, children)
    };
    let join = |children| {
        let (left_col, right_col) =
            (ColRef::new("orders_t", "cust_id"), ColRef::new("customer_t", "id"));
        PlanOp::new(PlanOpKind::Join { left_col, right_col }, children)
    };
    let (orders, customer) = (|| scan("orders_t"), || scan("customer_t"));
    let shapes = [
        ("shared", vec![orders(), join(vec![0, 0]), agg(vec![1])], "op 0 (SCAN)"),
        ("forward", vec![agg(vec![1]), orders()], "op 0 (AGG)"),
        ("one-child join", vec![orders(), customer(), join(vec![0]), agg(vec![2])], "op 2 (JOIN)"),
        ("dangling", vec![orders(), agg(vec![7])], "op 1 (AGG)"),
        (
            "dangling join",
            vec![orders(), customer(), join(vec![0, 9]), agg(vec![2])],
            "op 2 (JOIN)",
        ),
    ];
    for (what, ops, names) in shapes {
        let root = ops.len() - 1;
        let plan = Plan { ops, root };
        let check = |reader: &str, got: Result<(), GracefulError>| match got {
            Err(GracefulError::PlanVerify(m)) if m.contains(names) => {}
            other => panic!("{what}: {reader} should name {names}, got {other:?}"),
        };
        for kind in EstimatorKind::ALL {
            let est = kind.build(&db, 1);
            check(&format!("{kind:?} annotate"), est.annotate(&mut plan.clone()));
            let featurized = Featurizer::full().featurize(&db, &spec, &plan, est.as_ref());
            check("featurize", featurized.map(drop));
            check("predict", model.predict(&db, &spec, &plan, est.as_ref()).map(drop));
        }
    }
}
