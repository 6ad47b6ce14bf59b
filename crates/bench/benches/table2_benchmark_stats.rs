//! **Table II** — statistics of the generated benchmark: query counts by UDF
//! usage, database count, total labelled runtime, and the complexity ranges
//! of queries and UDFs.

use graceful_bench::{announce, corpora, rule};
use graceful_core::corpus::benchmark_stats;

fn main() {
    let (session, cfg) = announce("Table II: statistics of the created benchmark");
    let all = corpora(&session, &cfg);
    let s = benchmark_stats(&all);
    rule(72);
    println!("{:<38} {}", "Number of Queries", s.n_queries);
    println!(
        "{:<38} {} w/ UDFs in filters, {} w/ UDFs in projection, {} non-UDF",
        "", s.n_udf_filter, s.n_udf_projection, s.n_non_udf
    );
    println!("{:<38} {}", "Number of Databases", s.n_databases);
    println!("{:<38} {:.3} hours (simulated)", "Total Runtime Of Benchmark", s.total_runtime_hours);
    println!("{:<38} 0-{} joins, 0-{} filters", "Query Complexity", s.max_joins, s.max_filters);
    println!("{:<38} 0-{}", "UDF: Number of Branches", s.max_branches);
    println!("{:<38} 0-{}", "UDF: Number of Loops", s.max_loops);
    println!("{:<38} {}-{}", "UDF: Number of Arithmetic/String Ops", s.min_ops, s.max_ops);
    println!("{:<38} math, numpy", "UDF: Supported Libraries");
    println!("{:<38} 0.0001-1.0 (log-uniform target)", "UDF: Filter Selectivity");
    rule(72);
    println!(
        "\npaper reference: 93.8k queries (72k filter / 21k projection), 20 databases, \
         142h, 1-5 joins, 0-21 filters, 0-3 branches, 0-3 loops, 10-150 ops"
    );
}
