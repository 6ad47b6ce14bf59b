//! Executor API contract tests: pinned aggregate-over-empty-input
//! semantics, the `max_intermediate_rows` safety valve, and the `Session`
//! construction path — each across UDF backends × executor modes × thread
//! counts.

use graceful::common::GracefulError;
use graceful::prelude::*;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::sync::Arc;

fn session(backend: UdfBackend, mode: ExecMode, threads: usize) -> Session {
    ExecOptions::new()
        .udf_backend(backend)
        .threads(threads)
        .morsel_rows(64)
        .udf_batch_size(17)
        .mode(mode)
        .build()
        .expect("valid options")
}

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
                udf: Arc::new(GeneratedUdf {
                    source: print_udf(&def),
                    def,
                    table: "orders_t".into(),
                    input_columns: vec!["totalprice".into()],
                    adaptations: vec![],
                }),
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
/// over zero rows — identical across all three UDF backends, both executor
/// modes, for both column aggregates and UDF-projected aggregates.
#[test]
fn aggregates_over_empty_input_are_pinned_across_backends_and_modes() {
    let db = generate(&schema("tpc_h"), 0.02, 2);
    for backend in [UdfBackend::TreeWalk, UdfBackend::Vm, UdfBackend::Simd] {
        for mode in [ExecMode::Pipeline, ExecMode::Materialize] {
            let s = session(backend, mode, 2);
            for over_udf in [false, true] {
                for agg in AggFunc::ALL {
                    // COUNT(*) never aggregates a projected column.
                    if agg == AggFunc::CountStar && over_udf {
                        continue;
                    }
                    let plan = empty_input_plan(agg, over_udf);
                    let run = s.run(&db, &plan, 1).unwrap();
                    assert_eq!(
                        run.agg_value, 0.0,
                        "{agg:?} over empty input ({backend:?}, {mode:?}, over_udf={over_udf})"
                    );
                    assert_eq!(run.out_rows[1], 0, "filter must eliminate everything");
                    assert_eq!(run.out_rows[plan.root], 1, "aggregate still emits one row");
                    assert!(run.runtime_ns > 0.0, "scan work is still accounted");
                }
            }
        }
    }
}

/// Non-empty sanity for the new MIN/MAX aggregates: both modes and all
/// backends agree with a hand-computed fold over the column.
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
    for mode in [ExecMode::Pipeline, ExecMode::Materialize] {
        let s = session(UdfBackend::TreeWalk, mode, 4);
        assert_eq!(s.run(&db, &plan(AggFunc::Min), 1).unwrap().agg_value, tmin, "{mode:?}");
        assert_eq!(s.run(&db, &plan(AggFunc::Max), 1).unwrap().agg_value, tmax, "{mode:?}");
    }
}

/// A join whose output blows past `max_intermediate_rows` must return a
/// typed `GracefulError::InvalidPlan` — not OOM, not a panic — through both
/// the materializing path and the pipeline, at 1 and 4 threads.
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
    for mode in [ExecMode::Pipeline, ExecMode::Materialize] {
        for threads in [1usize, 4] {
            let s = ExecOptions::new()
                .threads(threads)
                .max_intermediate_rows(cap)
                .mode(mode)
                .build()
                .unwrap();
            match s.run(&db, &plan, 1) {
                Err(GracefulError::InvalidPlan(m)) => {
                    assert!(m.contains("cap"), "error names the cap: {m}")
                }
                other => panic!("{mode:?} x {threads} threads returned {other:?}"),
            }
        }
    }
}

/// The valve also trips on non-join operators (a scan bigger than the cap),
/// in both modes.
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
    for mode in [ExecMode::Pipeline, ExecMode::Materialize] {
        let s = ExecOptions::new().max_intermediate_rows(5).mode(mode).build().unwrap();
        assert!(
            matches!(s.run(&db, &plan, 1), Err(GracefulError::InvalidPlan(_))),
            "{mode:?} must trip the valve on the scan"
        );
    }
}

/// A hand-built plan with UDF filters on *both* sides of a join: the
/// `udf_input_rows` channel must follow the materializing engine's
/// plan-index-order semantics (highest-index UDF operator wins), not the
/// pipeline's execution order — regression test for a mode divergence.
#[test]
fn udf_input_rows_agree_across_modes_with_two_udf_operators() {
    let db = generate(&schema("tpc_h"), 0.05, 3);
    let mk_udf = |table: &str, column: &str| {
        let def = parse_udf("def f(x0):\n    return x0 + 1.0\n").unwrap();
        Arc::new(GeneratedUdf {
            source: print_udf(&def),
            def,
            table: table.into(),
            input_columns: vec![column.into()],
            adaptations: vec![],
        })
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
    let run_in =
        |mode| session(UdfBackend::TreeWalk, mode, 2).run(&db, &plan, 1).expect("plan executes");
    let pipe = run_in(ExecMode::Pipeline);
    let mat = run_in(ExecMode::Materialize);
    assert_eq!(pipe.udf_input_rows, mat.udf_input_rows, "udf_input_rows diverged across modes");
    assert_eq!(
        mat.udf_input_rows,
        db.table("customer_t").unwrap().num_rows(),
        "highest-index UDF operator (customer side) owns the channel"
    );
    assert_eq!(pipe.agg_value.to_bits(), mat.agg_value.to_bits());
    assert_eq!(pipe.runtime_ns.to_bits(), mat.runtime_ns.to_bits());
}

/// Below the cap, both modes still agree bit-for-bit — the valve changes
/// nothing for passing queries.
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
    let loose = ExecOptions::new().mode(ExecMode::Pipeline).build().unwrap();
    let tight = ExecOptions::new()
        .max_intermediate_rows(1_000_000)
        .mode(ExecMode::Pipeline)
        .build()
        .unwrap();
    let a = loose.run(&db, &plan, 7).unwrap();
    let b = tight.run(&db, &plan, 7).unwrap();
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits());
    assert_eq!(a.agg_value, b.agg_value);
}

/// What ships is the typed-lane backend: `ExecOptions::new().build()` and
/// `Session::new()` report `UdfBackend::Simd`, and the environment has no say
/// in it — a *set* `GRACEFUL_UDF_BACKEND` (the removed knob) fails every
/// environment-defaulted construction with a typed `Config` error naming the
/// programmatic replacement instead of being silently ignored.
///
/// The environment half runs in a child process (this test re-executed with
/// the variable set): mutating the environment in-process would race every
/// other test of this binary.
#[test]
fn simd_is_the_shipped_backend_and_its_old_env_knob_is_rejected() {
    assert_eq!(ExecOptions::new().build().unwrap().config().udf_backend, UdfBackend::Simd);
    assert_eq!(Session::new().config().udf_backend, UdfBackend::Simd);

    const KNOB: &str = "GRACEFUL_UDF_BACKEND";
    if std::env::var_os(KNOB).is_some() {
        for built in [Session::from_env(), ExecOptions::new().threads(1).build_with_env()] {
            match built {
                Err(GracefulError::Config(m)) => assert!(
                    m.contains(KNOB) && m.contains("ExecOptions::udf_backend"),
                    "message {m:?} names the knob and its replacement"
                ),
                other => panic!("a set {KNOB} produced {other:?}"),
            }
        }
        return;
    }
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "simd_is_the_shipped_backend_and_its_old_env_knob_is_rejected"])
        .env(KNOB, "simd")
        .output()
        .expect("re-run this test with the knob set");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success() && stdout.contains("1 passed"), "child run: {stdout}");
}
