//! Tables: named collections of equal-length columns plus key metadata.

use crate::column::Column;
use crate::types::DataType;
use graceful_common::{GracefulError, Result};

/// Foreign-key edge used by the query generator and the join-order logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in this table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (the parent's primary key).
    pub ref_column: String,
}

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    columns: Vec<Column>,
    /// Index of the primary-key column, if any.
    pub primary_key: Option<usize>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl Table {
    /// Build a table, validating that all columns share one length.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let name = name.into();
        if let Some(first) = columns.first() {
            let n = first.len();
            if let Some(bad) = columns.iter().find(|c| c.len() != n) {
                return Err(GracefulError::InvalidPlan(format!(
                    "table {name}: column {} has {} rows, expected {n}",
                    bad.name,
                    bad.len()
                )));
            }
        }
        Ok(Table { name, columns, primary_key: None, foreign_keys: Vec::new() })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| GracefulError::Unresolved(format!("column {}.{name}", self.name)))
    }

    /// Mutable column by name.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let table = self.name.clone();
        self.columns
            .iter_mut()
            .find(|c| c.name == name)
            .ok_or_else(|| GracefulError::Unresolved(format!("column {table}.{name}")))
    }

    /// Data type of a named column.
    pub fn column_type(&self, name: &str) -> Result<DataType> {
        Ok(self.column(name)?.data_type())
    }

    /// Mark the primary key column (must exist).
    pub fn set_primary_key(&mut self, column: &str) -> Result<()> {
        let idx = self
            .column_index(column)
            .ok_or_else(|| GracefulError::Unresolved(format!("pk column {column}")))?;
        self.primary_key = Some(idx);
        Ok(())
    }

    /// Register a foreign key (referential integrity is the generator's job).
    pub fn add_foreign_key(&mut self, column: &str, ref_table: &str, ref_column: &str) {
        self.foreign_keys.push(ForeignKey {
            column: column.to_string(),
            ref_table: ref_table.to_string(),
            ref_column: ref_column.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            vec![
                Column::new("id", ColumnData::Int(vec![0, 1, 2])),
                Column::new("v", ColumnData::Float(vec![0.5, 1.5, 2.5])),
            ],
        )
        .unwrap();
        t.set_primary_key("id").unwrap();
        t
    }

    #[test]
    fn basic_lookup() {
        let t = table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_index("v"), Some(1));
        assert_eq!(t.column_type("v").unwrap(), DataType::Float);
        assert_eq!(t.primary_key, Some(0));
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = Table::new(
            "bad",
            vec![
                Column::new("a", ColumnData::Int(vec![1, 2])),
                Column::new("b", ColumnData::Int(vec![1])),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn missing_column_error() {
        let t = table();
        assert!(t.column("nope").is_err());
        let mut t2 = table();
        assert!(t2.set_primary_key("nope").is_err());
        assert!(t2.column_mut("nope").is_err());
    }

    #[test]
    fn foreign_keys_registered() {
        let mut t = table();
        t.add_foreign_key("id", "parent", "pid");
        assert_eq!(
            t.foreign_keys[0],
            ForeignKey {
                column: "id".into(),
                ref_table: "parent".into(),
                ref_column: "pid".into()
            }
        );
    }
}
