//! The benchmark corpus of Section V: databases × queries × runtimes.
//!
//! For each of the 20 databases, the builder generates SPJA+UDF queries
//! (filter and projection UDFs per Table II's mix plus <10% non-UDF
//! queries), applies each UDF's data-adaptation actions, picks a UDF
//! placement, executes the plan on the real engine and records the
//! simulated runtime and per-operator actual cardinalities — the exact
//! labelling pipeline the paper ran for 142 hours in DuckDB.

use graceful_common::config::ScaleConfig;
use graceful_common::rng::Rng;
use graceful_common::Result;
use graceful_exec::Session;
use graceful_plan::{build_plan, QueryGenerator, QuerySpec, UdfPlacement, UdfUsage};
use graceful_storage::datagen::{generate_in, schema, DATASET_NAMES};
use graceful_storage::Database;
use graceful_udf::generator::apply_adaptations;

/// One labelled query: spec, placement, executed plan, ground-truth runtime.
#[derive(Debug, Clone)]
pub struct LabeledQuery {
    pub spec: QuerySpec,
    pub placement: UdfPlacement,
    /// Plan with `actual_out_rows` filled by execution (estimates empty).
    pub plan: graceful_plan::Plan,
    /// Ground-truth simulated runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Rows that entered the UDF operator (0 for non-UDF queries).
    pub udf_input_rows: usize,
    /// Work units spent in the UDF operator (the "UDF-only runtime" label
    /// used to train the split baselines).
    pub udf_work_ns: f64,
}

impl LabeledQuery {
    pub fn has_udf(&self) -> bool {
        self.spec.has_udf()
    }

    /// Placement label used by Table III's column groups.
    pub fn position_label(&self) -> &'static str {
        self.placement.label()
    }
}

/// A database plus its labelled workload.
#[derive(Debug)]
pub struct DatasetCorpus {
    pub name: String,
    pub db: Database,
    pub queries: Vec<LabeledQuery>,
    /// Queries skipped due to execution caps (kept for Table II accounting).
    pub skipped: usize,
}

impl DatasetCorpus {
    /// Total labelled runtime (the "Total Runtime Of Benchmark" of Table II).
    pub fn total_runtime_ns(&self) -> f64 {
        self.queries.iter().map(|q| q.runtime_ns).sum()
    }
}

/// Build the corpus for one named dataset (default workload mix) on the
/// engine `session` configures ([`Session::from_env`] for the documented
/// `GRACEFUL_*` defaults).
pub fn build_corpus_in(
    session: &Session,
    dataset: &str,
    cfg: &ScaleConfig,
    seed: u64,
) -> Result<DatasetCorpus> {
    build_corpus_with_in(session, dataset, cfg, seed, QueryGenerator::default())
}

/// Build a corpus with a custom workload generator — used by Exp 3's
/// select-only workload (`SELECT udf(col) FROM table WHERE filter`).
pub fn build_corpus_with_in(
    session: &Session,
    dataset: &str,
    cfg: &ScaleConfig,
    seed: u64,
    qgen: QueryGenerator,
) -> Result<DatasetCorpus> {
    // One job per column on the session's pool; inside a dataset-parallel
    // build the region is nested and runs inline.
    let mut db = generate_in(&schema(dataset), cfg.data_scale, seed, &session.pool());
    let mut rng = Rng::seed(seed ^ 0x51EE7);
    let mut queries = Vec::with_capacity(cfg.queries_per_db);
    let mut skipped = 0usize;
    let mut id = 0u64;
    while queries.len() < cfg.queries_per_db && id < (cfg.queries_per_db as u64) * 4 {
        id += 1;
        let spec = match qgen.generate(&db, seed.wrapping_mul(1000) + id, &mut rng) {
            Ok(s) => s,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        // Align the data with the generated UDF (Section V): mutates the
        // database, so later queries see the adapted data — matching the
        // paper's one-time benchmark preparation.
        if let Some(u) = &spec.udf {
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                skipped += 1;
                continue;
            }
        }
        let placements = graceful_plan::variants::valid_placements(&spec);
        let placement = *rng.choose(&placements);
        let mut plan = match build_plan(&spec, placement) {
            Ok(p) => p,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        let exec = session.executor(&db);
        match exec.run_and_annotate(&mut plan, spec.id) {
            Ok(run) => {
                let udf_work = plan.udf_op().map(|i| run.op_work[i]).unwrap_or(0.0);
                queries.push(LabeledQuery {
                    spec,
                    placement,
                    plan,
                    runtime_ns: run.runtime_ns,
                    udf_input_rows: run.udf_input_rows,
                    udf_work_ns: udf_work,
                });
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(DatasetCorpus { name: dataset.to_string(), db, queries, skipped })
}

/// Build all 20 corpora (Figure 5 order) on the engine `session` configures;
/// its thread budget also sizes the dataset pool. The build is embarrassingly
/// parallel and dominated by query execution, the paper's 142-hour
/// bottleneck. Each dataset is one morsel and its seed derives from its
/// index, so the labels are bit-identical for any thread budget.
///
/// Experiment-harness entry point: **panics** if a dataset's corpus cannot
/// be built (the 20 schemas are the crate's own, so that is a bug here, not
/// a condition a caller can meet).
pub fn build_all_corpora_in(session: &Session, cfg: &ScaleConfig) -> Vec<DatasetCorpus> {
    session.pool().ordered_map(&DATASET_NAMES, |i, name| {
        let seed = cfg.seed.wrapping_add((i as u64) * 7919);
        build_corpus_in(session, name, cfg, seed).expect("corpus build failed")
    })
}

/// Table II summary statistics over a set of corpora.
#[derive(Debug, Clone, Default)]
pub struct BenchmarkStats {
    pub n_queries: usize,
    pub n_udf_filter: usize,
    pub n_udf_projection: usize,
    pub n_non_udf: usize,
    pub n_databases: usize,
    pub total_runtime_hours: f64,
    pub max_joins: usize,
    pub max_filters: usize,
    pub max_branches: usize,
    pub max_loops: usize,
    pub min_ops: usize,
    pub max_ops: usize,
}

/// Compute Table II's rows.
pub fn benchmark_stats(corpora: &[DatasetCorpus]) -> BenchmarkStats {
    let mut s =
        BenchmarkStats { n_databases: corpora.len(), min_ops: usize::MAX, ..Default::default() };
    for c in corpora {
        for q in &c.queries {
            s.n_queries += 1;
            match (&q.spec.udf, q.spec.udf_usage) {
                (Some(u), UdfUsage::Filter) => {
                    s.n_udf_filter += 1;
                    s.max_branches = s.max_branches.max(u.def.branch_count());
                    s.max_loops = s.max_loops.max(u.def.loop_count());
                    s.min_ops = s.min_ops.min(u.def.op_count());
                    s.max_ops = s.max_ops.max(u.def.op_count());
                }
                (Some(u), UdfUsage::Projection) => {
                    s.n_udf_projection += 1;
                    s.max_branches = s.max_branches.max(u.def.branch_count());
                    s.max_loops = s.max_loops.max(u.def.loop_count());
                    s.min_ops = s.min_ops.min(u.def.op_count());
                    s.max_ops = s.max_ops.max(u.def.op_count());
                }
                (None, _) => s.n_non_udf += 1,
            }
            s.max_joins = s.max_joins.max(q.spec.joins.len());
            s.max_filters = s.max_filters.max(q.spec.filters.len());
        }
        s.total_runtime_hours += c.total_runtime_ns() * 1e-9 / 3600.0;
    }
    if s.min_ops == usize::MAX {
        s.min_ops = 0;
    }
    s
}

/// The corpus every unit test of this crate builds: on the environment's
/// session, so the CI legs' `GRACEFUL_THREADS` reaches the labelling.
#[cfg(test)]
pub(crate) fn env_corpus(dataset: &str, cfg: &ScaleConfig, seed: u64) -> DatasetCorpus {
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    build_corpus_in(&session, dataset, cfg, seed).expect("corpus builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ScaleConfig {
        ScaleConfig { data_scale: 0.02, queries_per_db: 10, ..ScaleConfig::default() }
    }

    #[test]
    fn corpus_builds_and_labels() {
        let c = env_corpus("tpc_h", &tiny_cfg(), 1);
        assert!(c.queries.len() >= 8, "got {} queries", c.queries.len());
        for q in &c.queries {
            assert!(q.runtime_ns > 0.0);
            // Actual cards recorded on every op.
            assert!(q.plan.ops.iter().all(|o| o.actual_out_rows >= 0.0));
            if q.has_udf() && q.spec.udf_usage == UdfUsage::Filter {
                assert!(q.plan.udf_op().is_some());
            }
        }
        // Most queries have UDFs (udf_prob = 0.9).
        let with_udf = c.queries.iter().filter(|q| q.has_udf()).count();
        assert!(with_udf * 2 > c.queries.len());
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = env_corpus("imdb", &tiny_cfg(), 7);
        let b = env_corpus("imdb", &tiny_cfg(), 7);
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.runtime_ns, y.runtime_ns);
            assert_eq!(x.placement, y.placement);
        }
    }

    #[test]
    fn stats_cover_table2_fields() {
        let c = env_corpus("ssb", &tiny_cfg(), 3);
        let s = benchmark_stats(std::slice::from_ref(&c));
        assert_eq!(s.n_databases, 1);
        assert_eq!(s.n_queries, c.queries.len());
        assert_eq!(s.n_queries, s.n_udf_filter + s.n_udf_projection + s.n_non_udf);
        assert!(s.max_joins <= 5);
        assert!(s.total_runtime_hours > 0.0);
    }
}
