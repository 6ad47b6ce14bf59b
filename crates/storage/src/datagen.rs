//! Seeded generators for the paper's 20 benchmark databases.
//!
//! The paper evaluates on 20 real-world databases (18 relational datasets
//! plus SSB, TPC-H and IMDB). Those datasets are not redistributable here, so
//! we synthesise 20 databases carrying the same names and — more importantly —
//! the *properties the experiments depend on*:
//!
//! * PK/FK schemas with 3–7 tables so the query generator can build 1–5 join
//!   SPJA queries (Table II),
//! * skewed foreign-key fan-outs and intra-table column correlations so the
//!   naive (independence-assuming) cardinality estimator degrades visibly
//!   while sampling / data-driven estimators stay accurate (Table III's
//!   estimator ladder),
//! * diverse value ranges and distributions per dataset so zero-shot transfer
//!   across databases is non-trivial (Figure 5),
//! * deliberately *stronger* correlations in `airline` and `baseball`, the
//!   two datasets the paper singles out as hard for learned estimators.
//!
//! Everything is a pure function of `(schema, scale, seed)`.
//!
//! # How a database is generated
//!
//! [`generate_in`] makes one job per column and runs them on an
//! [`OrderedMap`] (a `graceful_runtime::Pool`, or [`Serial`] for
//! [`generate`]). Every column's [`Rng`] stream is forked up front in
//! table-then-column order. A fork advances its parent by exactly one draw,
//! so each column gets the stream a serial walk would give it, on any thread.
//! FK columns take their parent's row count from the spec, and `Correlated`
//! columns, the only ones that read another column, run in a second round
//! with every column's `ANALYZE`. Keys, Zipf and narrow uniform integers and
//! text draw a domain index per row (the skewed ones through a guide-table
//! [`ZipfSampler`]) and number the indices in first-appearance order: exactly
//! what [`ColumnData::encoded`] makes of the values, with no value hashed.

use crate::column::{Column, ColumnData};
use crate::database::Database;
use crate::stats::{ColumnStats, TableStats};
use crate::table::Table;
use crate::types::DataType;
use graceful_common::rng::{Rng, ZipfSampler};
use graceful_common::{fnv1a, OrderedMap, Serial, FNV1A_OFFSET};

/// How a column's values are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ColGen {
    /// Dense primary key `0..n`.
    Serial,
    /// Foreign key into `table`'s serial PK, fan-out skewed by `skew`
    /// (0 = uniform).
    Fk { table: String, skew: f64 },
    /// Uniform integer in `[lo, hi]`.
    IntUniform { lo: i64, hi: i64 },
    /// Zipf-distributed integer over `0..domain` with skew `s`.
    IntZipf { domain: usize, skew: f64 },
    /// Uniform float in `[lo, hi)`.
    FloatUniform { lo: f64, hi: f64 },
    /// Normal float (clamped to ±6σ).
    FloatNormal { mean: f64, std: f64 },
    /// Text drawn from a pool of `domain` distinct strings, zipf-skewed,
    /// with lengths roughly in `[min_len, max_len]`.
    Text { domain: usize, skew: f64, min_len: usize, max_len: usize },
    /// Bernoulli boolean.
    Bool { p: f64 },
    /// Correlated with another, not `Correlated`, column of the same table:
    /// `value = factor * source + N(0, noise * |range(source)|)`.
    /// This is what breaks attribute-independence assumptions.
    Correlated { source: String, factor: f64, noise: f64 },
}

/// Column specification: generator plus a NULL fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    pub name: String,
    pub gen: ColGen,
    pub null_fraction: f64,
}

impl ColumnSpec {
    pub fn new(name: &str, gen: ColGen) -> Self {
        ColumnSpec { name: name.to_string(), gen, null_fraction: 0.0 }
    }

    /// Builder: inject NULLs with the given probability.
    pub fn nulls(mut self, fraction: f64) -> Self {
        self.null_fraction = fraction.clamp(0.0, 0.9);
        self
    }
}

/// Table specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    pub name: String,
    /// Base row count before `scale` is applied.
    pub base_rows: usize,
    pub columns: Vec<ColumnSpec>,
}

/// A whole database schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaSpec {
    pub name: String,
    pub tables: Vec<TableSpec>,
}

// --- spec construction helpers (keep the 20 schema definitions terse) ---

fn serial(name: &str) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::Serial)
}
fn fk(name: &str, table: &str, skew: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::Fk { table: table.to_string(), skew })
}
fn int_u(name: &str, lo: i64, hi: i64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::IntUniform { lo, hi })
}
fn int_z(name: &str, domain: usize, skew: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::IntZipf { domain, skew })
}
fn float_u(name: &str, lo: f64, hi: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::FloatUniform { lo, hi })
}
fn float_n(name: &str, mean: f64, std: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::FloatNormal { mean, std })
}
fn text(name: &str, domain: usize, skew: f64, min_len: usize, max_len: usize) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::Text { domain, skew, min_len, max_len })
}
fn boolean(name: &str, p: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::Bool { p })
}
fn corr(name: &str, source: &str, factor: f64, noise: f64) -> ColumnSpec {
    ColumnSpec::new(name, ColGen::Correlated { source: source.to_string(), factor, noise })
}
fn tbl(name: &str, base_rows: usize, columns: Vec<ColumnSpec>) -> TableSpec {
    TableSpec { name: name.to_string(), base_rows, columns }
}

/// The names of the 20 benchmark databases (Figure 5's x-axis).
pub const DATASET_NAMES: [&str; 20] = [
    "accidents",
    "airline",
    "baseball",
    "basketball",
    "carc",
    "consumer",
    "credit",
    "employee",
    "fhnk",
    "financial",
    "geneea",
    "genome",
    "hepatitis",
    "imdb",
    "movielens",
    "seznam",
    "ssb",
    "tournament",
    "tpc_h",
    "walmart",
];

/// Build the schema for one named dataset.
///
/// Each schema is a star/snowflake of 3–7 tables. Dimension tables come
/// first; fact tables reference them. `airline` and `baseball` carry the
/// strongest correlations and fan-out skew (see module docs).
pub fn schema(name: &str) -> SchemaSpec {
    let tables = match name {
        "accidents" => vec![
            tbl(
                "region",
                220,
                vec![serial("id"), text("name", 220, 0.3, 4, 12), float_u("area", 1.0, 500.0)],
            ),
            tbl(
                "vehicle",
                900,
                vec![
                    serial("id"),
                    text("model", 300, 0.9, 4, 14),
                    int_u("year", 1980, 2020),
                    float_u("weight", 600.0, 3500.0),
                ],
            ),
            tbl(
                "accident",
                9000,
                vec![
                    serial("id"),
                    fk("region_id", "region", 1.1),
                    fk("vehicle_id", "vehicle", 0.7),
                    int_u("severity", 0, 4),
                    float_n("damage", 4200.0, 1600.0),
                    corr("claims", "severity", 900.0, 0.08),
                    boolean("fatal", 0.06),
                ],
            ),
            tbl(
                "casualty",
                12000,
                vec![
                    serial("id"),
                    fk("accident_id", "accident", 0.9),
                    int_u("age", 1, 95),
                    text("injury", 40, 1.0, 3, 10),
                ],
            ),
        ],
        // Strong cross-column correlation + heavy fan-out skew: the paper's
        // problem child for learned cardinality estimation.
        "airline" => vec![
            tbl(
                "carrier",
                140,
                vec![serial("id"), text("code", 140, 0.2, 2, 3), float_u("rating", 1.0, 5.0)],
            ),
            tbl(
                "airport",
                400,
                vec![
                    serial("id"),
                    text("iata", 400, 0.2, 3, 3),
                    float_u("lat", -60.0, 70.0),
                    float_u("lon", -180.0, 180.0),
                ],
            ),
            tbl(
                "flight",
                14000,
                vec![
                    serial("id"),
                    fk("carrier_id", "carrier", 1.6),
                    fk("origin_id", "airport", 1.4),
                    fk("dest_id", "airport", 1.4),
                    int_u("dep_delay", -10, 180),
                    corr("arr_delay", "dep_delay", 1.0, 0.02),
                    corr("taxi_time", "dep_delay", 0.3, 0.03),
                    float_u("distance", 80.0, 5200.0),
                ],
            ),
            tbl(
                "booking",
                20000,
                vec![
                    serial("id"),
                    fk("flight_id", "flight", 1.3),
                    int_z("fare_class", 6, 1.2),
                    float_n("price", 320.0, 140.0).nulls(0.04),
                ],
            ),
        ],
        // Correlated performance statistics; noted as hard in Figure 8.
        "baseball" => vec![
            tbl(
                "team",
                120,
                vec![serial("id"), text("name", 120, 0.2, 5, 14), int_u("founded", 1880, 1995)],
            ),
            tbl(
                "player",
                2600,
                vec![
                    serial("id"),
                    fk("team_id", "team", 1.5),
                    int_u("birth_year", 1950, 2002),
                    float_u("height", 160.0, 205.0),
                    corr("weight", "height", 0.55, 0.04),
                ],
            ),
            tbl(
                "batting",
                16000,
                vec![
                    serial("id"),
                    fk("player_id", "player", 1.4),
                    int_u("at_bats", 0, 650),
                    corr("hits", "at_bats", 0.27, 0.03),
                    corr("runs", "at_bats", 0.14, 0.04),
                    int_z("hr", 60, 1.5),
                ],
            ),
            tbl(
                "pitching",
                9000,
                vec![
                    serial("id"),
                    fk("player_id", "player", 1.8),
                    float_u("era", 0.9, 9.8),
                    corr("whip", "era", 0.14, 0.05),
                    int_u("strikeouts", 0, 380),
                ],
            ),
        ],
        "basketball" => vec![
            tbl("franchise", 90, vec![serial("id"), text("city", 90, 0.3, 4, 12)]),
            tbl(
                "athlete",
                1800,
                vec![
                    serial("id"),
                    fk("franchise_id", "franchise", 0.8),
                    float_u("height", 170.0, 225.0),
                    int_u("draft_year", 1970, 2022),
                ],
            ),
            tbl(
                "game_stat",
                14000,
                vec![
                    serial("id"),
                    fk("athlete_id", "athlete", 1.0),
                    int_u("points", 0, 60),
                    corr("minutes", "points", 0.55, 0.12),
                    int_u("rebounds", 0, 25),
                    int_u("assists", 0, 20),
                ],
            ),
        ],
        "carc" => vec![
            tbl(
                "compound",
                500,
                vec![
                    serial("id"),
                    text("formula", 500, 0.4, 5, 16),
                    float_u("mol_weight", 20.0, 900.0),
                ],
            ),
            tbl(
                "atom",
                7000,
                vec![
                    serial("id"),
                    fk("compound_id", "compound", 0.6),
                    text("element", 12, 1.1, 1, 2),
                    float_u("charge", -2.0, 2.0),
                ],
            ),
            tbl(
                "bond",
                10000,
                vec![
                    serial("id"),
                    fk("atom_id", "atom", 0.7),
                    int_u("bond_type", 1, 3),
                    boolean("aromatic", 0.3),
                ],
            ),
        ],
        "consumer" => vec![
            tbl(
                "household",
                1600,
                vec![serial("id"), int_u("size", 1, 8), float_n("income", 58000.0, 21000.0)],
            ),
            tbl(
                "product",
                800,
                vec![
                    serial("id"),
                    text("category", 60, 1.0, 4, 12),
                    float_u("unit_price", 0.5, 240.0),
                ],
            ),
            tbl(
                "purchase",
                15000,
                vec![
                    serial("id"),
                    fk("household_id", "household", 0.9),
                    fk("product_id", "product", 1.2),
                    int_u("quantity", 1, 12),
                    corr("total", "quantity", 18.0, 0.15),
                ],
            ),
        ],
        "credit" => vec![
            tbl(
                "customer",
                2400,
                vec![
                    serial("id"),
                    int_u("age", 18, 90),
                    float_n("income", 52000.0, 18000.0),
                    corr("limit", "income", 0.35, 0.06),
                ],
            ),
            tbl(
                "card",
                4200,
                vec![
                    serial("id"),
                    fk("customer_id", "customer", 0.8),
                    int_u("open_year", 2000, 2024),
                    boolean("gold", 0.2),
                ],
            ),
            tbl(
                "txn",
                18000,
                vec![
                    serial("id"),
                    fk("card_id", "card", 1.2),
                    float_n("amount", 84.0, 60.0),
                    int_z("merchant_cat", 40, 1.1),
                    boolean("disputed", 0.02),
                ],
            ),
        ],
        "employee" => vec![
            tbl("dept", 60, vec![serial("id"), text("name", 60, 0.2, 4, 14)]),
            tbl(
                "emp",
                4000,
                vec![
                    serial("id"),
                    fk("dept_id", "dept", 1.0),
                    int_u("hire_year", 1985, 2024),
                    float_n("salary", 61000.0, 17000.0),
                    corr("bonus", "salary", 0.08, 0.1).nulls(0.08),
                ],
            ),
            tbl(
                "assignment",
                9000,
                vec![
                    serial("id"),
                    fk("emp_id", "emp", 0.9),
                    int_u("hours", 1, 40),
                    text("role", 30, 0.9, 3, 10),
                ],
            ),
        ],
        "fhnk" => vec![
            tbl("hospital", 90, vec![serial("id"), text("name", 90, 0.2, 6, 16)]),
            tbl(
                "patient",
                3200,
                vec![
                    serial("id"),
                    fk("hospital_id", "hospital", 1.2),
                    int_u("age", 0, 99),
                    boolean("chronic", 0.22),
                ],
            ),
            tbl(
                "stay",
                11000,
                vec![
                    serial("id"),
                    fk("patient_id", "patient", 1.0),
                    int_u("days", 1, 60),
                    corr("cost", "days", 740.0, 0.1),
                    int_z("ward", 14, 0.8),
                ],
            ),
            tbl(
                "procedure_rec",
                14000,
                vec![
                    serial("id"),
                    fk("stay_id", "stay", 0.8),
                    int_z("proc_code", 160, 1.3),
                    float_u("duration", 0.2, 8.0),
                ],
            ),
        ],
        "financial" => vec![
            tbl("branch", 80, vec![serial("id"), text("district", 80, 0.3, 4, 12)]),
            tbl(
                "account",
                3000,
                vec![
                    serial("id"),
                    fk("branch_id", "branch", 0.9),
                    int_u("open_year", 1993, 2024),
                    float_n("balance", 9400.0, 5200.0),
                ],
            ),
            tbl(
                "loan",
                2600,
                vec![
                    serial("id"),
                    fk("account_id", "account", 0.4),
                    float_u("amount", 500.0, 90000.0),
                    corr("payments", "amount", 0.021, 0.04),
                    int_u("months", 6, 120),
                ],
            ),
            tbl(
                "trans",
                17000,
                vec![
                    serial("id"),
                    fk("account_id", "account", 1.3),
                    float_n("amount", 410.0, 380.0),
                    int_z("k_symbol", 9, 0.9),
                ],
            ),
        ],
        "geneea" => vec![
            tbl(
                "politician",
                700,
                vec![serial("id"), text("party", 24, 1.0, 3, 9), int_u("born", 1940, 1992)],
            ),
            tbl(
                "session",
                260,
                vec![serial("id"), int_u("year", 2013, 2024), int_u("length_min", 30, 600)],
            ),
            tbl(
                "vote",
                16000,
                vec![
                    serial("id"),
                    fk("politician_id", "politician", 0.9),
                    fk("session_id", "session", 0.9),
                    int_u("choice", 0, 3),
                    boolean("present", 0.88),
                ],
            ),
        ],
        // Held-out dataset of the ablation study (Figure 7).
        "genome" => vec![
            tbl("chromosome", 48, vec![serial("id"), int_u("length_mb", 40, 250)]),
            tbl(
                "gene",
                5200,
                vec![
                    serial("id"),
                    fk("chromosome_id", "chromosome", 0.8),
                    int_u("start_pos", 0, 240_000),
                    corr("end_pos", "start_pos", 1.0, 0.001),
                    float_u("gc_content", 0.3, 0.7),
                ],
            ),
            tbl(
                "expression",
                15000,
                vec![
                    serial("id"),
                    fk("gene_id", "gene", 1.1),
                    float_n("level", 4.2, 2.1),
                    int_z("tissue", 30, 1.0),
                ],
            ),
            tbl(
                "variant",
                12000,
                vec![
                    serial("id"),
                    fk("gene_id", "gene", 1.5),
                    int_u("position", 0, 240_000),
                    text("allele", 4, 0.4, 1, 1),
                ],
            ),
        ],
        "hepatitis" => vec![
            tbl("patient_h", 1200, vec![serial("id"), int_u("age", 10, 85), boolean("sex", 0.5)]),
            tbl(
                "biopsy",
                2600,
                vec![
                    serial("id"),
                    fk("patient_id", "patient_h", 0.6),
                    int_u("fibros", 0, 4),
                    corr("activity", "fibros", 0.8, 0.2),
                ],
            ),
            tbl(
                "lab",
                14000,
                vec![
                    serial("id"),
                    fk("patient_id", "patient_h", 1.0),
                    float_u("got", 10.0, 400.0),
                    corr("gpt", "got", 1.1, 0.08),
                    float_u("alb", 2.0, 5.5).nulls(0.05),
                ],
            ),
        ],
        // The running example of Figure 1 uses IMDB's movie_keyword / title /
        // movie_info_idx tables; keep those names so the motivating example
        // reads like the paper.
        "imdb" => vec![
            tbl(
                "title",
                8000,
                vec![
                    serial("id"),
                    text("name", 8000, 0.9, 6, 24),
                    int_u("production_year", 1930, 2024),
                    int_z("kind_id", 7, 0.8),
                    text("series_years", 70, 1.1, 4, 9),
                ],
            ),
            tbl(
                "movie_keyword",
                26000,
                vec![serial("id"), fk("movie_id", "title", 1.3), int_z("keyword_id", 3000, 1.2)],
            ),
            tbl(
                "movie_info_idx",
                10000,
                vec![
                    serial("id"),
                    fk("movie_id", "title", 1.0),
                    int_z("info_type_id", 24, 0.9),
                    float_u("info", 1.0, 10.0),
                ],
            ),
            tbl(
                "cast_info",
                30000,
                vec![
                    serial("id"),
                    fk("movie_id", "title", 1.5),
                    int_z("role_id", 11, 1.0),
                    int_u("nr_order", 0, 60),
                ],
            ),
        ],
        "movielens" => vec![
            tbl(
                "movie",
                3600,
                vec![serial("id"), int_u("year", 1930, 2024), int_z("genre", 18, 0.9)],
            ),
            tbl(
                "user_ml",
                2400,
                vec![serial("id"), int_u("age", 14, 80), int_z("occupation", 20, 0.8)],
            ),
            tbl(
                "rating",
                24000,
                vec![
                    serial("id"),
                    fk("movie_id", "movie", 1.5),
                    fk("user_id", "user_ml", 1.1),
                    int_u("stars", 1, 5),
                    int_u("ts", 0, 1_000_000),
                ],
            ),
            tbl(
                "tag",
                9000,
                vec![serial("id"), fk("movie_id", "movie", 1.7), text("label", 400, 1.2, 3, 12)],
            ),
        ],
        "seznam" => vec![
            tbl("client", 2200, vec![serial("id"), int_z("region", 14, 0.7)]),
            tbl(
                "campaign",
                5200,
                vec![
                    serial("id"),
                    fk("client_id", "client", 1.2),
                    float_u("budget", 100.0, 60000.0),
                ],
            ),
            tbl(
                "impression",
                22000,
                vec![
                    serial("id"),
                    fk("campaign_id", "campaign", 1.4),
                    int_u("clicks", 0, 900),
                    corr("cost", "clicks", 2.4, 0.1),
                ],
            ),
        ],
        "ssb" => vec![
            tbl(
                "supplier_s",
                400,
                vec![serial("id"), text("region", 5, 0.3, 4, 10), text("nation", 25, 0.5, 4, 12)],
            ),
            tbl(
                "customer_s",
                1200,
                vec![serial("id"), text("region", 5, 0.3, 4, 10), int_z("segment", 5, 0.4)],
            ),
            tbl(
                "part_s",
                1600,
                vec![serial("id"), text("brand", 50, 0.6, 5, 9), int_u("size", 1, 50)],
            ),
            tbl(
                "lineorder",
                26000,
                vec![
                    serial("id"),
                    fk("cust_id", "customer_s", 0.8),
                    fk("part_id", "part_s", 0.9),
                    fk("supp_id", "supplier_s", 0.7),
                    int_u("quantity", 1, 50),
                    float_u("extendedprice", 90.0, 10_000.0),
                    corr("revenue", "extendedprice", 0.95, 0.02),
                    int_u("discount", 0, 10),
                ],
            ),
        ],
        "tournament" => vec![
            tbl("club", 150, vec![serial("id"), text("country", 40, 0.8, 4, 12)]),
            tbl(
                "match_t",
                8000,
                vec![
                    serial("id"),
                    fk("home_id", "club", 1.0),
                    fk("away_id", "club", 1.0),
                    int_u("home_goals", 0, 8),
                    int_u("away_goals", 0, 8),
                ],
            ),
            tbl(
                "event_t",
                16000,
                vec![
                    serial("id"),
                    fk("match_id", "match_t", 1.1),
                    int_u("minute", 0, 95),
                    int_z("kind", 9, 1.0),
                ],
            ),
        ],
        "tpc_h" => vec![
            tbl("nation_t", 25, vec![serial("id"), text("name", 25, 0.2, 4, 12)]),
            tbl(
                "supplier_t",
                500,
                vec![
                    serial("id"),
                    fk("nation_id", "nation_t", 0.4),
                    float_u("acctbal", -900.0, 9900.0),
                ],
            ),
            tbl(
                "customer_t",
                2000,
                vec![
                    serial("id"),
                    fk("nation_id", "nation_t", 0.5),
                    float_u("acctbal", -900.0, 9900.0),
                    int_z("mktsegment", 5, 0.3),
                ],
            ),
            tbl(
                "orders_t",
                10000,
                vec![
                    serial("id"),
                    fk("cust_id", "customer_t", 1.0),
                    float_u("totalprice", 900.0, 350_000.0),
                    int_u("orderyear", 1992, 1998),
                    int_z("priority", 5, 0.5),
                ],
            ),
            tbl(
                "lineitem_t",
                30000,
                vec![
                    serial("id"),
                    fk("order_id", "orders_t", 0.9),
                    fk("supp_id", "supplier_t", 0.8),
                    int_u("quantity", 1, 50),
                    float_u("price", 900.0, 95_000.0),
                    corr("disc_price", "price", 0.95, 0.02),
                    int_u("shipdelay", 1, 120),
                ],
            ),
        ],
        "walmart" => vec![
            tbl(
                "store",
                180,
                vec![serial("id"), int_z("store_type", 3, 0.4), int_u("sqft", 30_000, 220_000)],
            ),
            tbl("dept_w", 420, vec![serial("id"), text("name", 90, 0.7, 4, 14)]),
            tbl(
                "sales",
                24000,
                vec![
                    serial("id"),
                    fk("store_id", "store", 0.9),
                    fk("dept_id", "dept_w", 1.1),
                    float_n("weekly_sales", 16_000.0, 9000.0),
                    boolean("holiday", 0.07),
                    corr("markdown", "weekly_sales", 0.05, 0.2).nulls(0.1),
                ],
            ),
        ],
        other => panic!("unknown dataset name: {other}"),
    };
    SchemaSpec { name: name.to_string(), tables }
}

/// All 20 schemas in Figure 5 order.
pub fn all_schemas() -> Vec<SchemaSpec> {
    DATASET_NAMES.iter().map(|n| schema(n)).collect()
}

/// Generate a database from a schema at the given scale, on the calling
/// thread: [`generate_in`] with [`Serial`].
pub fn generate(spec: &SchemaSpec, scale: f64, seed: u64) -> Database {
    generate_in(spec, scale, seed, &Serial)
}

/// Generate a database from a schema at the given scale, as jobs on `map`
/// (a `graceful_runtime::Pool`, or [`Serial`]).
///
/// `scale` multiplies every table's `base_rows` (at least 16 rows each);
/// `seed` makes the result fully deterministic, and the same on every `map`.
/// Tables may come in any order: an FK column draws keys from its parent's
/// row count in the spec, not from the generated parent. A `Correlated`
/// column's source must be a column of its own table that is not
/// `Correlated` itself.
pub fn generate_in(spec: &SchemaSpec, scale: f64, seed: u64, map: &impl OrderedMap) -> Database {
    let mut rng = Rng::seed(seed ^ 0x6772_6163); // "grac"
    let words = WordPool::new(&mut rng.fork(0xF00D));
    // Every stream is forked before any value is drawn. A fork advances its
    // parent by exactly one draw, however much the child draws, so these are
    // the streams a table-by-table, column-by-column walk would hand out.
    let mut jobs: Vec<ColumnJob> = Vec::new();
    for tspec in &spec.tables {
        let mut trng = rng.fork(fnv1a(FNV1A_OFFSET, tspec.name.as_bytes()));
        let base = jobs.len();
        for cspec in &tspec.columns {
            let source = match &cspec.gen {
                ColGen::Correlated { source, .. } => {
                    let at = tspec.columns.iter().position(|c| {
                        c.name == *source && !matches!(c.gen, ColGen::Correlated { .. })
                    });
                    let at = at.unwrap_or_else(|| {
                        panic!("correlated source {source} is not a plain column of {}", tspec.name)
                    });
                    Some(base + at)
                }
                _ => None,
            };
            let rng = trng.fork(fnv1a(FNV1A_OFFSET, cspec.name.as_bytes()));
            jobs.push(ColumnJob { spec: cspec, rows: table_rows(tspec, scale), rng, source });
        }
    }
    // Round 1: every column that reads no other. Round 2: the `Correlated`
    // columns, which read theirs, and every column's `ANALYZE`.
    let independent = map.ordered_map(&jobs, |_, job| {
        job.source.is_none().then(|| job.column(spec, scale, &words, None))
    });
    let analyzed = map.ordered_map(&jobs, |j, job| match &independent[j] {
        Some(column) => (None, ColumnStats::compute(column)),
        None => {
            let column =
                job.column(spec, scale, &words, job.source.and_then(|s| independent[s].as_ref()));
            let stats = ColumnStats::compute(&column);
            (Some(column), stats)
        }
    });
    let mut built =
        independent.into_iter().zip(analyzed).filter_map(|(independent, (correlated, stats))| {
            Some((independent.or(correlated)?, stats))
        });
    let (mut tables, mut stats) = (Vec::new(), Vec::new());
    for tspec in &spec.tables {
        let (columns, column_stats): (Vec<Column>, Vec<ColumnStats>) =
            built.by_ref().take(tspec.columns.len()).unzip();
        let mut table =
            Table::new(tspec.name.clone(), columns).expect("generated columns are ragged-free");
        // First Serial column is the primary key; FKs registered from spec.
        table.primary_key = tspec.columns.iter().position(|c| c.gen == ColGen::Serial);
        for cspec in &tspec.columns {
            if let ColGen::Fk { table: parent, .. } = &cspec.gen {
                table.add_foreign_key(&cspec.name, parent, "id");
            }
        }
        stats.push(TableStats::from_columns(&table, column_stats));
        tables.push(table);
    }
    Database::with_stats(spec.name.clone(), tables, stats)
}

fn table_rows(spec: &TableSpec, scale: f64) -> usize {
    ((spec.base_rows as f64 * scale) as usize).max(16)
}

/// One column to generate: its spec, its table's row count, its own stream
/// and, for a `Correlated` column, the job that generates its source.
struct ColumnJob<'a> {
    spec: &'a ColumnSpec,
    rows: usize,
    rng: Rng,
    source: Option<usize>,
}

impl ColumnJob<'_> {
    /// The column, from the job's own stream: values (drawn straight into
    /// their encoding, which draws nothing), then the NULL mask. A
    /// `Correlated` column reads `source` through `get_f64`, which no
    /// representation changes.
    fn column(
        &self,
        schema: &SchemaSpec,
        scale: f64,
        words: &WordPool,
        source: Option<&Column>,
    ) -> Column {
        let (rows, mut rng) = (self.rows, self.rng.clone());
        let ranks = |sampler: &ZipfSampler, rng: &mut Rng| -> Vec<usize> {
            (0..rows).map(|_| sampler.sample(rng)).collect()
        };
        let data = match &self.spec.gen {
            // `n` distinct values never pass the dictionary's `d <= n/4`.
            ColGen::Serial => ColumnData::Int((0..rows as i64).collect()),
            ColGen::Fk { table, skew } => {
                let parent = schema.tables.iter().find(|t| t.name == *table);
                let parent =
                    parent.unwrap_or_else(|| panic!("FK parent {table} is not in the schema"));
                let n = table_rows(parent, scale);
                let sampler = ZipfSampler::new(n, *skew);
                // Shuffle rank->pk mapping so the skew does not always favour
                // low PKs (which would correlate with other serial columns).
                let mut perm: Vec<i64> = (0..n as i64).collect();
                rng.shuffle(&mut perm);
                ColumnData::ints_encoded(&ranks(&sampler, &mut rng), &perm)
            }
            ColGen::IntUniform { lo, hi } => {
                let draws = (0..rows).map(|_| rng.range(*lo..=*hi));
                // Only a domain no wider than the column is remapped, so the
                // remap table never outgrows the column.
                if lo <= hi && hi.abs_diff(*lo) < rows as u64 {
                    let offsets: Vec<usize> = draws.map(|v| v.abs_diff(*lo) as usize).collect();
                    ColumnData::ints_encoded(&offsets, &(*lo..=*hi).collect::<Vec<_>>())
                } else {
                    ColumnData::Int(draws.collect()).encoded()
                }
            }
            ColGen::IntZipf { domain, skew } => {
                let n = (*domain).max(1);
                let sampler = ZipfSampler::new(n, *skew);
                let values: Vec<i64> = (0..n as i64).collect();
                ColumnData::ints_encoded(&ranks(&sampler, &mut rng), &values)
            }
            ColGen::FloatUniform { lo, hi } => {
                ColumnData::Float((0..rows).map(|_| rng.range(*lo..*hi)).collect())
            }
            ColGen::FloatNormal { mean, std } => ColumnData::Float(
                (0..rows)
                    .map(|_| rng.normal(*mean, *std).clamp(mean - 6.0 * std, mean + 6.0 * std))
                    .collect(),
            ),
            ColGen::Text { domain, skew, min_len, max_len } => {
                // `strings` dedups, so a pool index names one value.
                let pool = words.strings(*domain, *min_len, *max_len, &mut rng.fork(7));
                let sampler = ZipfSampler::new(pool.len(), *skew);
                ColumnData::texts_encoded(&ranks(&sampler, &mut rng), &pool)
            }
            ColGen::Bool { p } => ColumnData::Bool((0..rows).map(|_| rng.chance(*p)).collect()),
            ColGen::Correlated { factor, noise, .. } => {
                let src = source.expect("a source is built in the first round");
                let (lo, hi) = numeric_range(src);
                let spread = (hi - lo).abs().max(1.0) * noise;
                let vals: Vec<f64> = (0..rows)
                    .map(|r| factor * src.get_f64(r).unwrap_or(0.0) + rng.normal(0.0, spread))
                    .collect();
                if src.data_type() == DataType::Int {
                    ColumnData::Int(vals.into_iter().map(|v| v.round() as i64).collect()).encoded()
                } else {
                    ColumnData::Float(vals)
                }
            }
        };
        if self.spec.null_fraction > 0.0 {
            let nulls = (0..rows).map(|_| rng.chance(self.spec.null_fraction)).collect();
            Column::with_nulls(self.spec.name.clone(), data, nulls)
        } else {
            Column::new(self.spec.name.clone(), data)
        }
    }
}

fn numeric_range(col: &Column) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in 0..col.len() {
        if let Some(v) = col.get_f64(r) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo.is_finite() && hi.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

/// A pool of word-like tokens used to synthesise text columns.
struct WordPool {
    words: Vec<String>,
}

impl WordPool {
    fn new(rng: &mut Rng) -> Self {
        const SYLLABLES: [&str; 24] = [
            "ka", "ro", "mi", "ta", "ve", "lo", "si", "na", "du", "pe", "ri", "so", "ba", "ne",
            "gu", "la", "ti", "mo", "za", "fe", "hu", "ce", "wa", "dy",
        ];
        let mut words = Vec::with_capacity(600);
        for _ in 0..600 {
            let syls = rng.range(2..=4usize);
            let mut w = String::new();
            for _ in 0..syls {
                w.push_str(SYLLABLES[rng.range(0..SYLLABLES.len())]);
            }
            words.push(w);
        }
        WordPool { words }
    }

    /// Produce `domain` distinct strings with lengths in `[min_len, max_len]`.
    fn strings(&self, domain: usize, min_len: usize, max_len: usize, rng: &mut Rng) -> Vec<String> {
        let mut out = Vec::with_capacity(domain.max(1));
        for i in 0..domain.max(1) {
            let mut s = self.words[rng.range(0..self.words.len())].clone();
            while s.len() < min_len {
                s.push_str(&self.words[rng.range(0..self.words.len())]);
            }
            if s.len() > max_len.max(min_len) {
                s.truncate(max_len.max(min_len).max(1));
            }
            // Guarantee distinctness with a numeric suffix when needed.
            if i >= self.words.len() || domain > 200 {
                s.push_str(&format!("{i}"));
            }
            out.push(s);
        }
        out.sort();
        out.dedup();
        // Top up if dedup removed entries.
        let mut i = 0;
        while out.len() < domain {
            out.push(format!("tok{i}_{domain}"));
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_20_schemas_build() {
        let schemas = all_schemas();
        assert_eq!(schemas.len(), 20);
        for s in &schemas {
            assert!(s.tables.len() >= 3, "{} too small", s.name);
            // Every FK parent is in the schema.
            for t in &s.tables {
                for c in &t.columns {
                    if let ColGen::Fk { table, .. } = &c.gen {
                        assert!(s.tables.iter().any(|p| &p.name == table), "{}.{}", s.name, t.name);
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = schema("imdb");
        let a = generate(&spec, 0.05, 7);
        let b = generate(&spec, 0.05, 7);
        assert_eq!(a.total_rows(), b.total_rows());
        let ta = a.table("title").unwrap();
        let tb = b.table("title").unwrap();
        for r in 0..ta.num_rows().min(50) {
            assert_eq!(ta.column("name").unwrap().value(r), tb.column("name").unwrap().value(r));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = schema("imdb");
        let a = generate(&spec, 0.05, 7);
        let b = generate(&spec, 0.05, 8);
        let ca = a.table("title").unwrap().column("production_year").unwrap().value(0);
        let cb = b.table("title").unwrap().column("production_year").unwrap().value(0);
        // Extremely unlikely to collide on every early row.
        let mut any_diff = ca != cb;
        for r in 1..20 {
            any_diff |= a.table("title").unwrap().column("production_year").unwrap().value(r)
                != b.table("title").unwrap().column("production_year").unwrap().value(r);
        }
        assert!(any_diff);
    }

    #[test]
    fn fk_values_are_valid_parent_pks() {
        let db = generate(&schema("airline"), 0.05, 3);
        let flight = db.table("flight").unwrap();
        let carriers = db.table("carrier").unwrap().num_rows() as i64;
        let col = flight.column("carrier_id").unwrap();
        for r in 0..flight.num_rows() {
            let v = col.get_i64(r).unwrap();
            assert!(v >= 0 && v < carriers);
        }
    }

    #[test]
    fn correlated_columns_correlate() {
        let db = generate(&schema("airline"), 0.2, 5);
        let flight = db.table("flight").unwrap();
        let dep = flight.column("dep_delay").unwrap();
        let arr = flight.column("arr_delay").unwrap();
        let n = flight.num_rows();
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for r in 0..n {
            let x = dep.get_f64(r).unwrap();
            let y = arr.get_f64(r).unwrap();
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let nf = n as f64;
        let corr =
            (nf * sxy - sx * sy) / ((nf * sxx - sx * sx).sqrt() * (nf * syy - sy * sy).sqrt());
        assert!(corr > 0.9, "corr={corr}");
    }

    #[test]
    fn nulls_injected_at_requested_rate() {
        let db = generate(&schema("walmart"), 0.5, 9);
        let sales = db.table("sales").unwrap();
        let frac = sales.column("markdown").unwrap().null_fraction();
        assert!((frac - 0.1).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn zipf_fk_fanout_is_skewed() {
        let db = generate(&schema("airline"), 0.2, 4);
        let flight = db.table("flight").unwrap();
        let col = flight.column("carrier_id").unwrap();
        let mut counts = std::collections::HashMap::new();
        for r in 0..flight.num_rows() {
            *counts.entry(col.get_i64(r).unwrap()).or_insert(0usize) += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Heaviest carrier should have far more flights than the median one.
        let median = sorted[sorted.len() / 2];
        assert!(sorted[0] > median * 3, "max={} median={}", sorted[0], median);
    }

    #[test]
    fn stats_available_for_generated_db() {
        let db = generate(&schema("tpc_h"), 0.05, 2);
        let st = db.stats("lineitem_t").unwrap();
        let q = st.column("quantity").unwrap();
        assert!(q.ndv > 1 && !q.mcv.is_empty());
        assert!(q.min >= 1.0 && q.max <= 50.0);
    }

    /// A one-table, one-column schema, its generated column, and the stream
    /// that column drew from.
    fn lone_column(gen: ColGen, rows: usize, seed: u64) -> (Column, Rng) {
        let spec = SchemaSpec {
            name: "lone".into(),
            tables: vec![tbl("t", rows, vec![ColumnSpec::new("c", gen)])],
        };
        let db = generate(&spec, 1.0, seed);
        let mut rng = Rng::seed(seed ^ 0x6772_6163);
        rng.fork(0xF00D);
        let stream = rng.fork(fnv1a(FNV1A_OFFSET, b"t")).fork(fnv1a(FNV1A_OFFSET, b"c"));
        (db.table("t").unwrap().column("c").unwrap().clone(), stream)
    }

    #[test]
    fn int_uniform_encodes_like_its_draws_at_any_width() {
        for (lo, hi) in [(i64::MIN, i64::MAX), (5, 5), (-3, 400), (i64::MAX - 2, i64::MAX)] {
            for rows in [16, 500] {
                let (column, mut rng) = lone_column(ColGen::IntUniform { lo, hi }, rows, 3);
                let draws: Vec<i64> = (0..rows).map(|_| rng.range(lo..=hi)).collect();
                assert_eq!(column.data, ColumnData::Int(draws).encoded(), "[{lo}, {hi}] x {rows}");
            }
        }
    }

    #[test]
    fn fk_parents_may_follow_their_children() {
        let spec = SchemaSpec {
            name: "reversed".into(),
            tables: vec![
                tbl("child", 400, vec![serial("id"), fk("parent_id", "parent", 1.2)]),
                tbl("parent", 30, vec![serial("id"), int_u("x", 0, 9)]),
            ],
        };
        let db = generate(&spec, 1.0, 5);
        let parents = db.table("parent").unwrap().num_rows() as i64;
        let child = db.table("child").unwrap();
        let keys = child.column("parent_id").unwrap();
        assert!((0..child.num_rows()).all(|r| (0..parents).contains(&keys.get_i64(r).unwrap())));
        assert_eq!(child.foreign_keys[0].ref_table, "parent");
    }
}
