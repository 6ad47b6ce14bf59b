//! Determinism of the morsel-driven parallel runtime and of the engine's
//! execution shortcuts.
//!
//! The acceptance bar for `graceful-runtime` and the executor: for a fixed
//! seed, everything the experiments consume — `QueryRun` outputs, accounted
//! cost totals, corpus labels — is **bit-identical for any thread count**,
//! and `Session::run` (typed UDF lanes, streaming driver, join-lane pruning)
//! is bit-identical to `Session::run_reference` (the same operators with all
//! of those off at once). Thread counts are pinned
//! programmatically through the `ExecOptions` builder rather than
//! `GRACEFUL_THREADS`, because mutating the environment would race the rest
//! of the multi-threaded test suite. Which single shortcut broke, when this
//! suite fails, is what `graceful-exec`'s own unit tests localise.

use graceful::exec::QueryRun;
use graceful::prelude::*;
use graceful::udf::generator::apply_adaptations;
use proptest::prelude::*;

/// Small morsels and an awkward VM batch size so even the test-scale tables
/// split into many morsels with ragged boundaries.
fn session(threads: usize) -> Session {
    session_profiled(threads, false)
}

fn session_profiled(threads: usize, profile: bool) -> Session {
    ExecOptions::new()
        .udf_batch_size(37)
        .threads(threads)
        .morsel_rows(64)
        .profile(profile)
        .build()
        .expect("valid options")
}

fn assert_runs_bit_identical(a: &QueryRun, b: &QueryRun, what: &str) {
    assert_eq!(
        a.runtime_ns.to_bits(),
        b.runtime_ns.to_bits(),
        "{what}: runtimes differ: {} vs {}",
        a.runtime_ns,
        b.runtime_ns
    );
    assert_eq!(a.agg_value.to_bits(), b.agg_value.to_bits(), "{what}: answers differ");
    assert_eq!(a.out_rows, b.out_rows, "{what}: cardinalities differ");
    assert_eq!(a.udf_input_rows, b.udf_input_rows, "{what}: UDF input rows differ");
    assert_eq!(a.op_work.len(), b.op_work.len());
    for (x, y) in a.op_work.iter().zip(b.op_work.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: op_work differs: {x} vs {y}");
    }
}

/// `run` at threads {1, 2, 4} against `run_reference`, on one plan.
fn assert_run_equals_reference(db: &Database, plan: &graceful::plan::Plan, seed: u64, what: &str) {
    let reference = session(1).run_reference(db, plan, seed).expect("reference run succeeds");
    for threads in [1usize, 2, 4] {
        let run = session(threads).run(db, plan, seed).expect("run succeeds");
        assert_runs_bit_identical(&run, &reference, &format!("{what} x {threads} threads"));
    }
}

/// One generated query over `schema_name` in every valid UDF placement,
/// through [`assert_run_equals_reference`].
fn check_generated_query(schema_name: &str, db_seed: u64, seed: u64) {
    let mut db = generate(&schema(schema_name), 0.02, db_seed);
    let g = QueryGenerator::default();
    let mut rng = Rng::seed(seed);
    // A rejected draw, or data that cannot be adapted to the drawn UDF, is
    // not a determinism case.
    let Ok(spec) = g.generate(&db, seed, &mut rng) else { return };
    if spec.udf.as_ref().is_some_and(|u| apply_adaptations(&mut db, &u.adaptations).is_err()) {
        return;
    }
    for placement in graceful::plan::valid_placements(&spec) {
        if let Ok(plan) = build_plan(&spec, placement) {
            assert_run_equals_reference(&db, &plan, seed, &format!("{placement:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// `QueryRun` is bit-identical across thread counts {1, 2, 4} and to the
    /// reference run — which swaps the UDF backend (boxed batch VM for typed
    /// lanes) and the driver mode (collecting for streaming) — over
    /// generated queries in every valid UDF placement.
    #[test]
    fn query_runs_bit_identical_across_threads_backends_and_modes(seed in 0u64..5_000) {
        check_generated_query("tpc_h", 3, seed);
    }

    /// The verified rewrite (dead join-lane pruning) is invisible in
    /// results: the reference run does not take it, and every contracted
    /// `QueryRun` field is bit-identical to the shipped (rewriting) run —
    /// over generated queries on a second schema, in every valid UDF
    /// placement, at threads {1, 2, 4}.
    #[test]
    fn rewrites_change_no_contracted_bit(seed in 0u64..5_000) {
        check_generated_query("imdb", 7, seed);
    }
}

/// A hand-built plan on the edges of the filter and of lane pruning:
/// predicates every row passes, a predicate no row passes, a UDF that reads
/// only one of its three parameters, and a join whose build side nothing
/// above it reads. The shipped runs at threads {1, 2, 4} stay bit-identical
/// to the reference run, which lowers without the rewrite set.
#[test]
fn dead_join_lane_and_constant_filters_stay_bit_identical() {
    use graceful::plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred, RewriteSet};
    use graceful::udf::ast::CmpOp;
    use std::sync::Arc;

    let db = generate(&schema("tpc_h"), 0.03, 5);
    let def = parse_udf("def f(x0, x1, x2):\n    return x2 * 2\n").unwrap();
    let udf = Arc::new(graceful::udf::GeneratedUdf {
        source: print_udf(&def),
        def,
        table: "orders_t".into(),
        input_columns: vec!["id".into(), "cust_id".into(), "totalprice".into()],
        adaptations: vec![],
    });

    // customer_t.id is a null-free serial Int column, so predicates far
    // outside its range hold for every row or for none; mktsegment stays
    // data-dependent.
    let plan_with = |extra_pred: Pred| Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Filter {
                    preds: vec![
                        Pred::new("customer_t", "id", CmpOp::Ge, Value::Int(-1_000_000)),
                        Pred::new("customer_t", "mktsegment", CmpOp::Ge, Value::Int(2)),
                        extra_pred,
                    ],
                },
                vec![0],
            ),
            PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("orders_t", "cust_id"),
                    right_col: ColRef::new("customer_t", "id"),
                },
                vec![2, 1],
            ),
            PlanOp::new(PlanOpKind::UdfProject { udf: udf.clone() }, vec![3]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column: None }, vec![4]),
        ],
        root: 5,
    };
    let live = plan_with(Pred::new("customer_t", "id", CmpOp::Lt, Value::Int(1_000_000_000)));
    let empty = plan_with(Pred::new("customer_t", "id", CmpOp::Lt, Value::Int(-1_000_000)));

    assert!(
        !RewriteSet::analyze(&live, &db).live_above[3].contains("customer_t"),
        "customer_t is dead above the join, so its payload lane prunes"
    );
    for (what, plan) in [("always-true", &live), ("always-false", &empty)] {
        assert_run_equals_reference(&db, plan, 42, what);
    }
    // The filter no row passes really empties the query.
    let run = Session::new().run(&db, &empty, 42).unwrap();
    assert_eq!(run.out_rows[1], 0, "always-false filter emits nothing");
    assert_eq!(run.agg_value, 0.0);
}

/// The partitioned hash join and parallel aggregation are bit-identical
/// (values AND `op_work`) across threads {1, 2, 4} and to the reference run,
/// at data scale {1, 50}. A custom mini star schema
/// keeps scale 50 at ≈ 50k fact rows, so the `GRACEFUL_SCALE`-style
/// multiplier is exercised for real (thousands of morsels, all 16 join
/// partitions populated) without stretching the
/// debug-mode suite.
#[test]
fn partitioned_join_and_parallel_agg_bit_identical_across_scales() {
    use graceful::plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind, Pred};
    use graceful::storage::datagen::{ColGen, ColumnSpec, SchemaSpec, TableSpec};
    use graceful::udf::ast::CmpOp;
    use std::sync::Arc;

    let col = ColumnSpec::new;
    let spec = SchemaSpec {
        name: "mini_star".into(),
        tables: vec![
            TableSpec {
                name: "dim".into(),
                base_rows: 60,
                columns: vec![
                    col("id", ColGen::Serial),
                    col("grp", ColGen::IntZipf { domain: 8, skew: 0.7 }),
                ],
            },
            TableSpec {
                name: "fact".into(),
                base_rows: 1000,
                columns: vec![
                    col("id", ColGen::Serial),
                    col("dim_id", ColGen::Fk { table: "dim".into(), skew: 0.8 }).nulls(0.05),
                    col("amount", ColGen::FloatUniform { lo: -50.0, hi: 950.0 }).nulls(0.02),
                    col("qty", ColGen::IntUniform { lo: 1, hi: 40 }),
                ],
            },
        ],
    };
    let def = parse_udf("def f(x0):\n    return x0 * 0.5 + 1.0\n").unwrap();
    let udf = Arc::new(graceful::udf::GeneratedUdf {
        source: print_udf(&def),
        def,
        table: "fact".into(),
        input_columns: vec!["amount".into()],
        adaptations: vec![],
    });
    // Filtered fact ⋈ dim, UDF-projected, summed: every parallel operator
    // class in one chain (filtered scan, partitioned join, parallel agg).
    let join_udf_sum = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "fact".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Filter {
                    preds: vec![Pred::new("fact", "qty", CmpOp::Lt, Value::Int(30))],
                },
                vec![0],
            ),
            PlanOp::new(PlanOpKind::Scan { table: "dim".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("fact", "dim_id"),
                    right_col: ColRef::new("dim", "id"),
                },
                vec![1, 2],
            ),
            PlanOp::new(PlanOpKind::UdfProject { udf }, vec![3]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column: None }, vec![4]),
        ],
        root: 5,
    };
    // Column-path MIN over the raw join: the merge order of per-morsel
    // partial states is what is under test.
    let join_min = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "fact".into() }, vec![]),
            PlanOp::new(PlanOpKind::Scan { table: "dim".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::Join {
                    left_col: ColRef::new("fact", "dim_id"),
                    right_col: ColRef::new("dim", "id"),
                },
                vec![0, 1],
            ),
            PlanOp::new(
                PlanOpKind::Agg { func: AggFunc::Min, column: Some(ColRef::new("fact", "amount")) },
                vec![2],
            ),
        ],
        root: 3,
    };

    for scale in [1.0f64, 50.0] {
        let db = generate(&spec, scale, 21);
        for (what, plan) in [("join+udf+sum", &join_udf_sum), ("join+min", &join_min)] {
            let join_idx = plan.ops.iter().position(|o| matches!(o.kind, PlanOpKind::Join { .. }));
            let run = session(1).run(&db, plan, 21).expect("single-thread run succeeds");
            assert!(run.out_rows[join_idx.unwrap()] > 0, "{what}: join must produce rows");
            assert_run_equals_reference(&db, plan, 21, &format!("{what} x scale {scale}"));
        }
    }
}

/// Observability is outside the bit-identity contract and must stay there:
/// with per-operator profiling, span tracing *and* the flight recorder
/// enabled, every contracted `QueryRun` field is bit-identical to the
/// unobserved run — across thread counts {1, 2, 4}. The profile itself must
/// exist and cover every plan operator, and every observed run must land one
/// flight record.
#[test]
fn profiling_tracing_and_flight_recording_change_no_contracted_bit() {
    use graceful::obs::flight;
    graceful::obs::trace::enable();
    let mut db = generate(&schema("tpc_h"), 0.02, 3);
    let g = QueryGenerator::default();
    let mut recorded_runs = 0u64;
    for seed in [11u64, 42, 1234] {
        let mut rng = Rng::seed(seed);
        let Ok(spec) = g.generate(&db, seed, &mut rng) else { continue };
        if let Some(u) = &spec.udf {
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                continue;
            }
        }
        for placement in graceful::plan::valid_placements(&spec) {
            let Ok(plan) = build_plan(&spec, placement) else { continue };
            for threads in [1usize, 2, 4] {
                // Plain run: no profile, no flight recording.
                flight::disable();
                let plain =
                    session(threads).run(&db, &plan, seed).expect("unprofiled run succeeds");
                // Observed run: profiled and flight-recorded.
                let records_before = flight::record_count();
                flight::enable();
                let observed = session_profiled(threads, true)
                    .run(&db, &plan, seed)
                    .expect("observed run succeeds");
                flight::disable();
                assert_runs_bit_identical(
                    &observed,
                    &plain,
                    &format!("observed vs plain x {threads} threads"),
                );
                assert!(plain.profile.is_none(), "profile must be opt-in");
                assert!(flight::record_count() > records_before, "flight recorder missed the run");
                recorded_runs += 1;
                let prof = observed.profile.expect("profile attached when enabled");
                assert_eq!(prof.ops.len(), plan.ops.len(), "one OpProfile per plan op");
                assert_eq!(prof.threads, threads);
            }
        }
    }
    graceful::obs::trace::disable();
    assert!(graceful::obs::trace::event_count() > 0, "tracing recorded spans");
    assert!(recorded_runs > 0, "no combination was exercised");
}

/// Corpus labels — the paper's 142-hour bottleneck, and the training data of
/// every experiment — are bit-identical whether the 20 datasets are labelled,
/// and each of their queries run, on one worker or four.
#[test]
fn corpus_labels_bit_identical_across_pool_sizes() {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 5, ..ScaleConfig::default() };
    let on = |threads| {
        let session = ExecOptions::new().threads(threads).build_with_env().expect("valid options");
        build_all_corpora_in(&session, &cfg)
    };
    let (single, parallel) = (on(1), on(4));
    assert_eq!(single.len(), parallel.len());
    for (a, b) in single.iter().zip(parallel.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.queries.len(), b.queries.len(), "{}: query counts differ", a.name);
        for (x, y) in a.queries.iter().zip(b.queries.iter()) {
            assert_eq!(x.runtime_ns.to_bits(), y.runtime_ns.to_bits(), "{}: labels differ", a.name);
            assert_eq!(x.udf_work_ns.to_bits(), y.udf_work_ns.to_bits());
            assert_eq!(x.udf_input_rows, y.udf_input_rows);
            assert_eq!(x.placement, y.placement);
            assert_eq!(x.plan.ops.len(), y.plan.ops.len());
            for (p, q) in x.plan.ops.iter().zip(y.plan.ops.iter()) {
                assert_eq!(p.actual_out_rows.to_bits(), q.actual_out_rows.to_bits());
            }
        }
    }
}

/// Corpus labels are also what the reference would have recorded: every
/// labelled query of a corpus, re-run over the corpus's database, yields the
/// same label fields from `run` and from `run_reference`. (Not compared with
/// the recorded label itself: the database kept adapting to later queries'
/// UDFs after an earlier query was labelled.)
#[test]
fn corpus_labels_bit_identical_across_exec_modes() {
    let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 6, ..ScaleConfig::default() };
    let session = ExecOptions::new().threads(2).build().expect("valid options");
    let corpus = build_corpus_in(&session, "tpc_h", &cfg, 9).unwrap();
    assert!(!corpus.queries.is_empty());
    for q in &corpus.queries {
        let run = session.run(&corpus.db, &q.plan, q.spec.id).expect("relabelling run");
        let reference =
            session.run_reference(&corpus.db, &q.plan, q.spec.id).expect("reference relabelling");
        assert_runs_bit_identical(&run, &reference, &format!("query {}", q.spec.id));
    }
}
