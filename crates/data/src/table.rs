//! In-memory relational store: tables of [`Value`] rows.

use crate::value::Value;
use crate::DataError;
use std::collections::HashMap;

/// A named table with a fixed column list.
#[derive(Clone, Debug, Default)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column.
    pub fn column_index(&self, name: &str) -> Result<usize, DataError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| DataError::Unknown {
                kind: "column",
                name: name.to_string(),
            })
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the column list.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch for table {}",
            self.name
        );
        self.rows.push(row);
    }

    /// Appends a row given `(column, value)` pairs; missing columns get
    /// NULL.
    pub fn push_record(&mut self, record: &[(&str, Value)]) -> Result<(), DataError> {
        let mut row = vec![Value::Null; self.columns.len()];
        for (col, v) in record {
            let i = self.column_index(col)?;
            row[i] = v.clone();
        }
        self.rows.push(row);
        Ok(())
    }
}

/// A collection of named tables.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DataError> {
        self.tables.get(name).ok_or_else(|| DataError::Unknown {
            kind: "table",
            name: name.to_string(),
        })
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DataError> {
        self.tables.get_mut(name).ok_or_else(|| DataError::Unknown {
            kind: "table",
            name: name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new("people", vec!["name".into(), "age".into()]);
        t.push_row(vec![Value::from("ada"), Value::from(36i64)]);
        t.push_row(vec![Value::from("alan"), Value::from(41i64)]);
        t
    }

    #[test]
    fn column_lookup() {
        let t = people();
        assert_eq!(t.column_index("age").unwrap(), 1);
        assert!(t.column_index("nope").is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn push_record_fills_nulls() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_record(&[("b", Value::Int(1))]).unwrap();
        assert_eq!(t.rows()[0], vec![Value::Null, Value::Int(1)]);
        assert!(t.push_record(&[("zz", Value::Int(1))]).is_err());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = people();
        t.push_row(vec![Value::Null]);
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new();
        db.add_table(people());
        assert!(db.table("people").is_ok());
        assert!(db.table("ghosts").is_err());
        db.table_mut("people")
            .unwrap()
            .push_row(vec![Value::from("grace"), Value::from(35i64)]);
        assert_eq!(db.table("people").unwrap().len(), 3);
    }
}
