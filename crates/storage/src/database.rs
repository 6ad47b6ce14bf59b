//! The database catalog: a named set of tables plus computed statistics.

use crate::stats::TableStats;
use crate::table::Table;
use graceful_common::{GracefulError, Result};

/// An in-memory database with lazily computed statistics.
#[derive(Debug, Clone)]
pub struct Database {
    pub name: String,
    tables: Vec<Table>,
    stats: Vec<TableStats>,
}

impl Database {
    /// Build a database and compute statistics for every table.
    ///
    /// Statistics are computed eagerly at load time — the same moment a real
    /// system would run `ANALYZE` — so the cardinality estimators in
    /// `graceful-card` can treat them as always available.
    pub fn new(name: impl Into<String>, tables: Vec<Table>) -> Self {
        let stats = tables.iter().map(TableStats::compute).collect();
        Self::with_stats(name, tables, stats)
    }

    /// `new` with the statistics already computed, one per table in order.
    pub(crate) fn with_stats(
        name: impl Into<String>,
        tables: Vec<Table>,
        stats: Vec<TableStats>,
    ) -> Self {
        debug_assert_eq!(tables.len(), stats.len());
        Database { name: name.into(), tables, stats }
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| GracefulError::Unresolved(format!("table {name}")))
    }

    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// Statistics for a table (same order as [`Database::tables`]).
    pub fn stats(&self, table: &str) -> Result<&TableStats> {
        let idx = self
            .table_index(table)
            .ok_or_else(|| GracefulError::Unresolved(format!("table {table}")))?;
        Ok(&self.stats[idx])
    }

    /// Mutate a table in place and recompute its statistics afterwards.
    ///
    /// Used by the benchmark's data-adaptation step (Section V): after a UDF
    /// is generated, its input columns may get NULLs replaced or ranges
    /// clamped; statistics must stay consistent with the data. They are the
    /// only derived state: nothing the executor reads can go stale here.
    pub fn update_table<F>(&mut self, name: &str, f: F) -> Result<()>
    where
        F: FnOnce(&mut Table) -> Result<()>,
    {
        let idx = self
            .table_index(name)
            .ok_or_else(|| GracefulError::Unresolved(format!("table {name}")))?;
        f(&mut self.tables[idx])?;
        self.stats[idx] = TableStats::compute(&self.tables[idx]);
        Ok(())
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnData};
    use crate::types::Value;

    fn db() -> Database {
        let t = Table::new("a", vec![Column::new("x", ColumnData::Int(vec![1, 2, 3]))]).unwrap();
        Database::new("testdb", vec![t])
    }

    #[test]
    fn lookup_and_stats() {
        let d = db();
        assert_eq!(d.table("a").unwrap().num_rows(), 3);
        assert!(d.table("b").is_err());
        let st = d.stats("a").unwrap();
        assert_eq!(st.num_rows, 3);
        assert_eq!(d.total_rows(), 3);
    }

    #[test]
    fn update_recomputes_stats() {
        let mut d = db();
        let before = d.stats("a").unwrap().column("x").unwrap().max;
        d.update_table("a", |t| {
            if let ColumnData::Int(v) = &mut t.column_mut("x")?.data {
                v[0] = 1000;
            }
            Ok(())
        })
        .unwrap();
        let after = d.stats("a").unwrap().column("x").unwrap().max;
        assert!(after > before);
        // The data itself changed too.
        assert_eq!(d.table("a").unwrap().column("x").unwrap().value(0), Value::Int(1000));
    }
}
