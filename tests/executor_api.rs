//! Executor API contract tests: pinned aggregate-over-empty-input
//! semantics, the `max_intermediate_rows` safety valve, and the `Session`
//! construction path — each through `run` and `run_reference` — the surface
//! itself (no option or variable picks an implementation or switches a
//! verifier off), plus the two checks that do not compare the engine with
//! itself: a naive row-at-a-time evaluator of the query semantics and of the
//! UDF operator's accounted work, and the work accounting as a pure function
//! of plan and cardinalities.

use graceful::common::GracefulError;
use graceful::exec::estimated_work;
use graceful::prelude::*;
use graceful::udf::generator::apply_adaptations;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::collections::HashMap;
use std::sync::Arc;

fn session(threads: usize) -> Session {
    ExecOptions::new()
        .threads(threads)
        .morsel_rows(64)
        .udf_batch_size(17)
        .build()
        .expect("valid options")
}

/// The two entry points of the engine, by name.
type Entry =
    fn(&Session, &Database, &Plan, u64) -> graceful::common::Result<graceful::exec::QueryRun>;
const ENTRIES: [(&str, Entry); 2] =
    [("run", Session::run), ("run_reference", Session::run_reference)];

/// Scan → impossible filter → (optional UdfProject) → Agg.
fn empty_input_plan(agg: AggFunc, over_udf: bool) -> Plan {
    let mut ops = vec![
        PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
        PlanOp::new(
            PlanOpKind::Filter {
                preds: vec![Pred::new("orders_t", "totalprice", CmpOp::Lt, Value::Float(-1e18))],
            },
            vec![0],
        ),
    ];
    let column = if over_udf {
        let def = parse_udf("def f(x0):\n    return x0 * 2.0\n").unwrap();
        ops.push(PlanOp::new(
            PlanOpKind::UdfProject {
                udf: Arc::new(GeneratedUdf::new(def, "orders_t", vec!["totalprice".into()])),
            },
            vec![1],
        ));
        None
    } else {
        Some(ColRef::new("orders_t", "totalprice"))
    };
    let child = ops.len() - 1;
    ops.push(PlanOp::new(PlanOpKind::Agg { func: agg, column }, vec![child]));
    let root = ops.len() - 1;
    Plan { ops, root }
}

/// The pinned empty-input semantics: COUNT(*) = 0 and SUM/AVG/MIN/MAX = 0.0
/// over zero rows — identical from `run` and from `run_reference` (the other
/// UDF backend, the other driver mode), for both column aggregates and
/// UDF-projected aggregates.
#[test]
fn aggregates_over_empty_input_are_pinned_across_backends_and_modes() {
    let db = generate(&schema("tpc_h"), 0.02, 2);
    let s = session(2);
    for (entry, run) in ENTRIES {
        for over_udf in [false, true] {
            for agg in AggFunc::ALL {
                // COUNT(*) never aggregates a projected column.
                if agg == AggFunc::CountStar && over_udf {
                    continue;
                }
                let plan = empty_input_plan(agg, over_udf);
                let run = run(&s, &db, &plan, 1).unwrap();
                assert_eq!(
                    run.agg_value, 0.0,
                    "{agg:?} over empty input ({entry}, over_udf={over_udf})"
                );
                assert_eq!(run.out_rows[1], 0, "filter must eliminate everything");
                assert_eq!(run.out_rows[plan.root], 1, "aggregate still emits one row");
                assert!(run.runtime_ns > 0.0, "scan work is still accounted");
            }
        }
    }
}

/// Non-empty sanity for the MIN/MAX aggregates: the streaming and the
/// collecting mode (`run`, `run_reference`) agree with a hand-computed fold
/// over the column.
#[test]
fn min_max_agree_across_modes_on_real_rows() {
    let db = generate(&schema("tpc_h"), 0.02, 5);
    let plan = |func| Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "lineitem_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Agg { func, column: Some(ColRef::new("lineitem_t", "quantity")) },
                vec![0],
            ),
        ],
        root: 1,
    };
    let t = db.table("lineitem_t").unwrap();
    let c = t.column("quantity").unwrap();
    let vals: Vec<f64> = (0..t.num_rows()).filter_map(|r| c.get_f64(r)).collect();
    let tmin = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let tmax = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let s = session(4);
    for (entry, run) in ENTRIES {
        assert_eq!(run(&s, &db, &plan(AggFunc::Min), 1).unwrap().agg_value, tmin, "{entry}");
        assert_eq!(run(&s, &db, &plan(AggFunc::Max), 1).unwrap().agg_value, tmax, "{entry}");
    }
}

/// A join whose output blows past `max_intermediate_rows` must return a
/// typed `GracefulError::InvalidPlan` — not OOM, not a panic — through both
/// the streaming `run` and the collecting `run_reference`, at 1 and 4
/// threads.
#[test]
fn join_over_cap_returns_typed_error_in_both_modes() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    // orders ⋈ customer on cust_id=id: |join| == |orders|, far above cap 10.
    let plan = Plan {
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
    let n_customers = db.table("customer_t").unwrap().num_rows();
    let cap = n_customers + 10; // scans fit; the join output cannot
    assert!(db.table("orders_t").unwrap().num_rows() > cap);
    for (entry, run) in ENTRIES {
        for threads in [1usize, 4] {
            let s = ExecOptions::new().threads(threads).max_intermediate_rows(cap).build().unwrap();
            match run(&s, &db, &plan, 1) {
                Err(GracefulError::InvalidPlan(m)) => {
                    assert!(m.contains("cap"), "error names the cap: {m}")
                }
                other => panic!("{entry} x {threads} threads returned {other:?}"),
            }
        }
    }
}

/// A build side with no keyed row matches nothing, whether a filter left it
/// no rows or every key is NULL: `run` (whose probe then reads no input)
/// agrees with `run_reference` in every contracted field and with the naive
/// evaluator in cardinalities and answer, and the probe still charges its
/// whole input.
#[test]
fn an_empty_build_side_is_probed_by_nothing() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    let mut null_keys = db.clone();
    null_keys
        .update_table("customer_t", |t| {
            t.column_mut("id")?.nulls.iter_mut().for_each(|null| *null = true);
            Ok(())
        })
        .unwrap();
    // orders ⋈ customer on cust_id = id, the build side optionally filtered.
    let plan = |build_filter: Option<Pred>| {
        let mut ops = vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
        ];
        if let Some(pred) = build_filter {
            ops.push(PlanOp::new(PlanOpKind::Filter { preds: vec![pred] }, vec![1]));
        }
        let build = ops.len() - 1;
        ops.push(PlanOp::new(
            PlanOpKind::Join {
                left_col: ColRef::new("orders_t", "cust_id"),
                right_col: ColRef::new("customer_t", "id"),
            },
            vec![0, build],
        ));
        let join = ops.len() - 1;
        let column = Some(ColRef::new("orders_t", "totalprice"));
        ops.push(PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column }, vec![join]));
        (Plan { root: ops.len() - 1, ops }, build, join)
    };
    let nothing = Pred::new("customer_t", "id", CmpOp::Lt, Value::Int(i64::MIN));
    let s = session(2);
    let w = &s.config().weights;
    for (what, db, (plan, build, join)) in
        [("filtered away", &db, plan(Some(nothing))), ("NULL keys", &null_keys, plan(None))]
    {
        let (out_rows, udf_input_rows, agg_value, _) = naive_run(db, &plan).expect("no UDF");
        assert_eq!(out_rows[join], 0, "{what}: the join matches nothing");
        let probed = db.table("orders_t").unwrap().num_rows();
        assert!(probed > 64, "{what}: the probe input spans several morsels");
        let built = out_rows[build];
        let [run, reference] = ENTRIES.map(|(_, run)| run(&s, db, &plan, 1).expect("executes"));
        for (entry, run) in [("run", &run), ("run_reference", &reference)] {
            assert_eq!(run.out_rows, out_rows, "{what} ({entry}): cardinalities");
            assert_eq!(run.udf_input_rows, udf_input_rows, "{what} ({entry}): udf rows");
            assert_eq!(run.agg_value.to_bits(), agg_value.to_bits(), "{what} ({entry}): answer");
            let charged = w.join(built as f64, probed as f64, 0.0);
            assert_eq!(run.op_work[join].to_bits(), charged.to_bits(), "{what} ({entry}): probe");
        }
        assert_eq!(run.runtime_ns.to_bits(), reference.runtime_ns.to_bits(), "{what}: runtime");
        assert_eq!(run.op_work, reference.op_work, "{what}: work");
    }
}

/// The valve also trips on non-join operators (a scan bigger than the cap),
/// in the streaming `run` and the collecting `run_reference` alike.
#[test]
fn scan_over_cap_returns_typed_error_in_both_modes() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![0]),
        ],
        root: 1,
    };
    let s = ExecOptions::new().max_intermediate_rows(5).build().unwrap();
    for (entry, run) in ENTRIES {
        assert!(
            matches!(run(&s, &db, &plan, 1), Err(GracefulError::InvalidPlan(_))),
            "{entry} must trip the valve on the scan"
        );
    }
}

/// A hand-built plan with UDF filters on *both* sides of a join: the
/// `udf_input_rows` channel must follow plan-index-order semantics
/// (highest-index UDF operator wins), not the pipelines' execution order, in
/// the streaming `run` as in the collecting `run_reference` — regression
/// test for a mode divergence.
#[test]
fn udf_input_rows_agree_across_modes_with_two_udf_operators() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    let mk_udf = |table: &str, column: &str| {
        let def = parse_udf("def f(x0):\n    return x0 + 1.0\n").unwrap();
        Arc::new(GeneratedUdf::new(def, table, vec![column.into()]))
    };
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::UdfFilter {
                    udf: mk_udf("orders_t", "totalprice"),
                    op: CmpOp::Ge,
                    literal: 0.0,
                },
                vec![0],
            ),
            PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::UdfFilter {
                    udf: mk_udf("customer_t", "acctbal"),
                    op: CmpOp::Ge,
                    literal: -1e18,
                },
                vec![2],
            ),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("orders_t", "cust_id"),
                    right_col: ColRef::new("customer_t", "id"),
                },
                vec![1, 3],
            ),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![4]),
        ],
        root: 5,
    };
    let pipe = session(2).run(&db, &plan, 1).expect("plan executes");
    let mat = session(2).run_reference(&db, &plan, 1).expect("plan executes");
    assert_eq!(pipe.udf_input_rows, mat.udf_input_rows, "udf_input_rows diverged across modes");
    assert_eq!(
        mat.udf_input_rows,
        db.table("customer_t").unwrap().num_rows(),
        "highest-index UDF operator (customer side) owns the channel"
    );
    assert_eq!(pipe.agg_value.to_bits(), mat.agg_value.to_bits());
    assert_eq!(pipe.runtime_ns.to_bits(), mat.runtime_ns.to_bits());
}

/// `udf_batch_size` bounds how many rows one evaluator call sees and sizes
/// nothing: at the largest count its shape admits a UDF-filter plan runs in
/// the memory its rows need (both evaluators used to allocate the knob's
/// value per parameter and abort), and `run` == `run_reference` bit for bit —
/// a data-dependent loop keeps part of the rows off the lanes, so the typed
/// gather, the scalar fallback and the boxed gather all run.
#[test]
fn the_largest_udf_batch_size_allocates_for_its_rows_only() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    let def = parse_udf(
        "def f(x0):\n    z = x0 * 0.5\n    if x0 < 100000:\n        for i in range(int(x0) % 5):\n            z = z + i\n    return z\n",
    )
    .unwrap();
    let udf = Arc::new(GeneratedUdf::new(def, "orders_t", vec!["totalprice".into()]));
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::UdfFilter { udf, op: CmpOp::Ge, literal: 50000.0 }, vec![0]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
        ],
        root: 2,
    };
    let s = ExecOptions::new().threads(2).udf_batch_size(usize::MAX).build().unwrap();
    let run = s.run(&db, &plan, 1).expect("run executes");
    let reference = s.run_reference(&db, &plan, 1).expect("run_reference executes");
    assert!(run.agg_value > 0.0 && run.agg_value < run.udf_input_rows as f64, "filter is partial");
    assert_eq!(run.out_rows, reference.out_rows);
    assert_eq!(run.agg_value.to_bits(), reference.agg_value.to_bits());
    assert_eq!(run.runtime_ns.to_bits(), reference.runtime_ns.to_bits());
    let bits = |work: &[f64]| work.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&run.op_work), bits(&reference.op_work));
}

/// Below the cap the valve changes nothing for passing queries.
#[test]
fn runs_below_cap_are_unaffected_by_the_valve() {
    let db = generate(&schema("tpc_h"), 0.02, 3);
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "nation_t".into() }, vec![]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![0]),
        ],
        root: 1,
    };
    let loose = ExecOptions::new().build().unwrap();
    let tight = ExecOptions::new().max_intermediate_rows(1_000_000).build().unwrap();
    let a = loose.run(&db, &plan, 7).unwrap();
    let b = tight.run(&db, &plan, 7).unwrap();
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits());
    assert_eq!(a.agg_value, b.agg_value);
}

/// Both verifiers run whatever the environment says, and nothing in the API
/// switches one off: a mutated plan is a typed `PlanVerify` error from `run`
/// and from `run_reference`, corrupted bytecode a typed `Verify` error, and
/// `compile` still hands out verified programs.
fn assert_the_verifiers_reject() {
    let db = generate(&schema("tpc_h"), 0.02, 2);
    let mut bad = empty_input_plan(AggFunc::Sum, true);
    bad.ops[1].children[0] = 40; // a dangling child
    for (entry, run) in ENTRIES {
        match run(&Session::new(), &db, &bad, 1) {
            Err(GracefulError::PlanVerify(_)) => {}
            other => panic!("{entry} did not reject a dangling child: {other:?}"),
        }
    }
    let def = parse_udf("def f(x0):\n    return x0 * 2.0\n").unwrap();
    let mut prog = compile(&def).expect("a sound UDF compiles");
    assert!(graceful::udf::analysis::verify(&prog).is_ok());
    let last = prog.instrs.len() - 1;
    prog.instrs[last] =
        graceful::udf::bytecode::Instr::Cost(graceful::udf::bytecode::CostKind::Stmt);
    match graceful::udf::analysis::verify(&prog) {
        Err(GracefulError::Verify(_)) => {}
        other => panic!("a program that falls off its end verified: {other:?}"),
    }
}

/// What ships is the typed-lane backend: a default session's profiled `run`
/// of a numeric UDF carries every row on the SIMD lanes. The environment has
/// no say in that, in the driver, in the GNN engine or in either verifier —
/// a *set* `GRACEFUL_UDF_BACKEND`, `GRACEFUL_EXEC`, `GRACEFUL_GNN_EXEC`,
/// `GRACEFUL_VERIFY`, `GRACEFUL_PLAN_VERIFY`, `GRACEFUL_UDF_BATCH` or
/// `GRACEFUL_MORSEL` (the removed knobs) fails
/// every environment-defaulted construction, the session's and the
/// trainer's, with a typed `Config` error instead of being silently ignored,
/// and the verifiers reject as they do with the variable unset. A knob that
/// is still read is strict: `GRACEFUL_EPOCHS=1O` fails the trainer's
/// construction instead of training the default 14 epochs.
///
/// The environment half runs in child processes (this test re-executed with
/// one variable set): mutating the environment in-process would race every
/// other test of this binary.
#[test]
fn simd_is_the_shipped_backend_and_its_old_env_knob_is_rejected() {
    let db = generate(&schema("tpc_h"), 0.02, 2);
    let mut numeric = empty_input_plan(AggFunc::Sum, true);
    numeric.ops.remove(1); // no filter: the UDF sees every order
    numeric.ops[1].children[0] = 0;
    numeric.ops[2].children[0] = 1;
    numeric.root = 2;
    let run = ExecOptions::new().profile(true).build().unwrap().run(&db, &numeric, 1).unwrap();
    let udf = run.profile.expect("profile on").udf[1].expect("a UDF operator");
    assert_eq!(udf.lane_rows as usize, db.table("orders_t").unwrap().num_rows());
    assert_the_verifiers_reject();

    // (variable, value, what the error names besides it, removed?) — a removed
    // knob is rejected whatever its value and by the session too.
    const CASES: [(&str, &str, &str, bool); 8] = [
        ("GRACEFUL_UDF_BACKEND", "simd", "no longer read", true),
        ("GRACEFUL_UDF_BATCH", "257", "no longer read", true),
        ("GRACEFUL_MORSEL", "4096", "no longer read", true),
        ("GRACEFUL_EXEC", "anything", "no longer read", true),
        ("GRACEFUL_GNN_EXEC", "batched", "no longer read", true),
        ("GRACEFUL_VERIFY", "off", "no longer read", true),
        ("GRACEFUL_PLAN_VERIFY", "strict", "no longer read", true),
        ("GRACEFUL_EPOCHS", "1O", "expected an integer", false),
    ];
    let set = CASES.iter().find(|c| std::env::var_os(c.0).is_some_and(|v| c.3 || v == c.1));
    if let Some(&(knob, _, names, removed)) = set {
        let session = [
            Session::from_env().map(drop),
            ExecOptions::new().threads(1).build_with_env().map(drop),
        ];
        assert!(removed || session.iter().all(|built| built.is_ok()), "{knob}: {session:?}");
        let trainer = TrainOptions::new().build_with_env().map(drop);
        for built in session.into_iter().filter(|_| removed).chain([trainer]) {
            match built {
                Err(GracefulError::Config(m)) => assert!(
                    m.contains(knob) && m.contains(names),
                    "message {m:?} names the knob and {names:?}"
                ),
                other => panic!("a set {knob} produced {other:?}"),
            }
        }
        return;
    }
    for (knob, value, ..) in CASES {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", "simd_is_the_shipped_backend_and_its_old_env_knob_is_rejected"])
            .env(knob, value)
            .output()
            .expect("re-run this test with the knob set");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success() && stdout.contains("1 passed"), "{knob} child: {stdout}");
    }
}

/// Generated tpc_h queries in every valid UDF placement, over the database
/// with their UDF adaptations applied.
fn generated_plans() -> (Database, Vec<(u64, Plan)>) {
    let mut db = generate(&schema("tpc_h"), 0.02, 5);
    let g = QueryGenerator::default();
    let mut rng = Rng::seed(47);
    let mut plans = Vec::new();
    for id in 0..60 {
        let Ok(spec) = g.generate(&db, id, &mut rng) else { continue };
        if spec.udf.as_ref().is_some_and(|u| apply_adaptations(&mut db, &u.adaptations).is_err()) {
            continue;
        }
        for placement in graceful::plan::valid_placements(&spec) {
            plans.extend(build_plan(&spec, placement).ok().map(|p| (id, p)));
        }
    }
    assert!(plans.len() >= 40, "corpus too small: {} plans", plans.len());
    (db, plans)
}

/// An intermediate relation of the naive evaluator: one row-id per bound
/// table per row, plus the UDF-projected column once a `UdfProject` ran.
struct Rel {
    tables: Vec<String>,
    rows: Vec<Vec<usize>>,
    computed: Vec<Value>,
}

impl Rel {
    fn rid(&self, row: &[usize], table: &str) -> usize {
        row[self.tables.iter().position(|t| t == table).expect("table bound")]
    }
}

/// The query semantics, written as naively as possible and sharing no code
/// with the executor's operators: one row at a time through `Pred::matches`,
/// a `HashMap` join, the tree-walking `Interpreter` per row, and a sequential
/// left fold. Returns `(out_rows, udf_input_rows, agg_value, udf_cost)` —
/// the last the interpreter's per-row costs of the UDF operator, summed — or
/// `None` when a UDF invocation errors (the engine fails such a query too).
fn naive_run(db: &Database, plan: &Plan) -> Option<(Vec<usize>, usize, f64, f64)> {
    let mut interp = Interpreter::default();
    let (mut udf_input_rows, mut agg_value, mut udf_cost) = (0, 0.0, 0.0);
    let mut out_rows = Vec::new();
    let mut rels: Vec<Option<Rel>> = Vec::new();
    for op in &plan.ops {
        let mut child = |k: usize| rels[op.children[k]].take().expect("children precede parents");
        let mut eval_udf = |udf: &GeneratedUdf, rel: &Rel| -> Option<Vec<Value>> {
            let t = db.table(&udf.table).unwrap();
            udf_input_rows = rel.rows.len();
            (rel.rows.iter())
                .map(|row| {
                    let rid = rel.rid(row, &udf.table);
                    let args: Vec<Value> =
                        udf.input_columns.iter().map(|c| t.column(c).unwrap().value(rid)).collect();
                    let out = interp.eval(&udf.def, &args).ok()?;
                    udf_cost += out.cost.total;
                    Some(out.value)
                })
                .collect()
        };
        let rel = match &op.kind {
            PlanOpKind::Scan { table } => Rel {
                tables: vec![table.clone()],
                rows: (0..db.table(table).unwrap().num_rows()).map(|r| vec![r]).collect(),
                computed: Vec::new(),
            },
            PlanOpKind::Filter { preds } => {
                let mut rel = child(0);
                let keep = |row: &[usize]| {
                    preds.iter().all(|p| {
                        p.matches(db.table(&p.col.table).unwrap(), rel.rid(row, &p.col.table))
                    })
                };
                rel.rows = rel.rows.iter().filter(|row| keep(row)).cloned().collect();
                rel
            }
            PlanOpKind::Join { left_col, right_col } => {
                let (left, right) = (child(0), child(1));
                let key = |rel: &Rel, c: &ColRef, row: &[usize]| {
                    let col = db.table(&c.table).unwrap().column(&c.column).unwrap();
                    col.get_i64(rel.rid(row, &c.table))
                };
                let mut index: HashMap<i64, Vec<&Vec<usize>>> = HashMap::new();
                for row in &right.rows {
                    if let Some(k) = key(&right, right_col, row) {
                        index.entry(k).or_default().push(row);
                    }
                }
                let mut rows = Vec::new();
                for lrow in &left.rows {
                    let matches = key(&left, left_col, lrow).and_then(|k| index.get(&k));
                    for rrow in matches.into_iter().flatten() {
                        rows.push([lrow.as_slice(), rrow.as_slice()].concat());
                    }
                }
                Rel { tables: [left.tables, right.tables].concat(), rows, computed: Vec::new() }
            }
            PlanOpKind::UdfFilter { udf, op: cmp, literal } => {
                let mut rel = child(0);
                let values = eval_udf(udf, &rel)?;
                let passes = |v: &Value| {
                    v.as_f64().is_some_and(|v| match cmp {
                        CmpOp::Lt => v < *literal,
                        CmpOp::Le => v <= *literal,
                        CmpOp::Gt => v > *literal,
                        CmpOp::Ge => v >= *literal,
                        CmpOp::Eq => v == *literal,
                        // An SQL comparison: NaN satisfies no operator,
                        // `!=` included (`v != literal` would accept it).
                        CmpOp::Ne => v.partial_cmp(literal).is_some_and(|ord| ord.is_ne()),
                    })
                };
                let kept = rel.rows.into_iter().zip(&values).filter(|(_, v)| passes(v));
                rel.rows = kept.map(|(row, _)| row).collect();
                rel
            }
            PlanOpKind::UdfProject { udf } => {
                let mut rel = child(0);
                rel.computed = eval_udf(udf, &rel)?;
                rel
            }
            PlanOpKind::Agg { func, column } => {
                let rel = child(0);
                let values: Vec<f64> = match column {
                    Some(c) => {
                        let col = db.table(&c.table).unwrap().column(&c.column).unwrap();
                        rel.rows.iter().filter_map(|r| col.get_f64(rel.rid(r, &c.table))).collect()
                    }
                    None => rel.computed.iter().filter_map(Value::as_f64).collect(),
                };
                let sum = values.iter().fold(0.0, |acc, v| acc + v);
                agg_value = match func {
                    AggFunc::CountStar => rel.rows.len() as f64,
                    _ if values.is_empty() => 0.0,
                    AggFunc::Sum => sum,
                    AggFunc::Avg => sum / values.len() as f64,
                    AggFunc::Min => values.iter().copied().reduce(f64::min).unwrap(),
                    AggFunc::Max => values.iter().copied().reduce(f64::max).unwrap(),
                };
                Rel { tables: rel.tables, rows: vec![Vec::new()], computed: Vec::new() }
            }
        };
        out_rows.push(rel.rows.len());
        rels.push(Some(rel));
    }
    Some((out_rows, udf_input_rows, agg_value, udf_cost))
}

/// The executor against the semantics themselves, not against its twin: on
/// the generated corpus in every valid placement, cardinalities and the UDF
/// input-row channel are exact and the answer is bit-exact. One morsel per
/// operator (`morsel_rows` above any table) makes the engine's fold the
/// oracle's left fold; the many-morsel session re-checks the counts where
/// rebatching is live. This is "UDF placement never changes query results",
/// checked per placement against one oracle.
///
/// The oracle prices the UDF operator too: the engine's accounted `op_work`
/// of that operator is the tree-walking interpreter's per-row cost, summed,
/// plus the operator's per-row overhead — up to float grouping (the engine
/// adds per batch and per morsel), hence 1e-9 relative, not bits. No engine
/// path evaluates a UDF with the interpreter, so this is what holds the
/// compiled backends' cost accounting to it from outside `graceful-udf`.
#[test]
fn executor_matches_a_naive_evaluator_of_the_query_semantics() {
    let (db, plans) = generated_plans();
    let one_morsel = ExecOptions::new().morsel_rows(1 << 24).build().unwrap();
    let many_morsels = session(2);
    let mut udf_plans = 0;
    for (id, plan) in &plans {
        let Some((out_rows, udf_input_rows, agg_value, udf_cost)) = naive_run(&db, plan) else {
            assert!(many_morsels.run(&db, plan, *id).is_err(), "query {id}: UDF error swallowed");
            continue;
        };
        // What the engine should have charged the UDF operator, if any.
        let w = &one_morsel.config().weights;
        let udf_work = plan.udf_op().map(|i| {
            let overhead = match plan.ops[i].kind {
                PlanOpKind::UdfFilter { .. } => w.udf_compare,
                _ => w.project_row,
            };
            (i, udf_cost + udf_input_rows as f64 * overhead)
        });
        let assert_udf_work = |run: &graceful::exec::QueryRun, what: &str| {
            let Some((i, expected)) = udf_work else { return };
            let rel = (run.op_work[i] - expected).abs() / expected.max(1.0);
            assert!(rel < 1e-9, "query {id} ({what}): UDF work {} vs {expected}", run.op_work[i]);
        };
        for (entry, run) in ENTRIES {
            let run = run(&one_morsel, &db, plan, *id).expect("plan executes");
            assert_eq!(run.out_rows, out_rows, "query {id} ({entry}): cardinalities");
            assert_eq!(run.udf_input_rows, udf_input_rows, "query {id} ({entry}): udf rows");
            assert_eq!(
                run.agg_value.to_bits(),
                agg_value.to_bits(),
                "query {id} ({entry}): answer {} vs {agg_value}",
                run.agg_value
            );
            assert_udf_work(&run, entry);
        }
        let run = many_morsels.run(&db, plan, *id).expect("plan executes");
        assert_eq!(run.out_rows, out_rows, "query {id}: cardinalities across morsels");
        assert_eq!(run.udf_input_rows, udf_input_rows, "query {id}: udf rows across morsels");
        assert_udf_work(&run, "many morsels");
        udf_plans += usize::from(udf_input_rows > 0);
    }
    assert!(udf_plans >= 10, "only {udf_plans} plans fed a UDF");
}

/// Work is a pure function of the plan and the data: with the measured
/// cardinalities written into the estimate slots, the closed-form prediction
/// reproduces the accounted work of every relational operator bit for bit —
/// both call the same `OperatorWeights` methods. (UDF operators are
/// excluded: their accounted work is data-dependent, which is the gap the
/// learned estimator exists to close.)
#[test]
fn accounted_work_is_the_closed_form_of_the_measured_cardinalities() {
    let (db, plans) = generated_plans();
    let s = session(2);
    let mut checked = 0;
    for (id, plan) in plans {
        let mut plan = plan;
        let Ok(run) = s.run_and_annotate(&db, &mut plan, id) else { continue };
        for op in &mut plan.ops {
            op.est_out_rows = op.actual_out_rows;
        }
        let predicted = estimated_work(&plan, s.config());
        for (i, op) in plan.ops.iter().enumerate() {
            if matches!(op.kind, PlanOpKind::UdfFilter { .. } | PlanOpKind::UdfProject { .. }) {
                continue;
            }
            assert_eq!(
                predicted[i].to_bits(),
                run.op_work[i].to_bits(),
                "query {id} op {i} ({}): predicted {} vs accounted {}",
                op.kind.name(),
                predicted[i],
                run.op_work[i]
            );
            checked += 1;
        }
    }
    assert!(checked >= 100, "only {checked} operators compared");
}
