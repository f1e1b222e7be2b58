//! Column and schema descriptors.

use crate::error::{Error, Result};
use crate::value::Value;

/// Data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 32-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Dense f32 vector.
    Vector,
    /// Raw bytes.
    Blob,
}

/// One column: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column at `i`.
    pub fn column(&self, i: usize) -> Result<&Column> {
        self.columns
            .get(i)
            .ok_or_else(|| Error::UnknownColumn(format!("#{i}")))
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Validate that `values` conforms to this schema.
    pub fn check(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(Error::SchemaMismatch(format!(
                "tuple has {} values, schema has {} columns",
                values.len(),
                self.arity()
            )));
        }
        for (v, c) in values.iter().zip(&self.columns) {
            if v.dtype() != c.dtype {
                return Err(Error::SchemaMismatch(format!(
                    "column `{}` expects {:?}, got {:?}",
                    c.name,
                    c.dtype,
                    v.dtype()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("amount", DataType::Float),
            Column::new("features", DataType::Vector),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.index_of("amount").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn check_validates_arity_and_types() {
        let s = sample();
        assert!(s
            .check(&[Value::Int(1), Value::Float(2.0), Value::Vector(vec![])])
            .is_ok());
        assert!(s.check(&[Value::Int(1)]).is_err());
        assert!(s
            .check(&[Value::Float(1.0), Value::Float(2.0), Value::Vector(vec![])])
            .is_err());
    }
}
