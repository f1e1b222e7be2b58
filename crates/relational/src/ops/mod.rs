//! Pull-based (Volcano-style) relational operators.
//!
//! Operators form a tree; calling [`Operator::next`] on the root pulls one
//! tuple at a time through the pipeline. The set is what the §7.2.1
//! decomposition experiment (`core::rules`) runs: scans and the similarity
//! join. Matrix multiplication is not lowered at tuple level; it is
//! [`crate::TensorTable`]'s block join.

mod scan;
mod sim_join;

pub use scan::{MemScan, SeqScan};
pub use sim_join::SimilarityJoin;

use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A pull-based relational operator.
pub trait Operator {
    /// Schema of the tuples this operator produces.
    fn schema(&self) -> &Schema;

    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;
}

/// Drain an operator into a vector.
pub fn collect(op: &mut dyn Operator) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(t) = op.next()? {
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    /// An `(id: Int, score: Float)` schema used across operator tests.
    pub fn id_score_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Float),
        ])
    }

    /// Rows `(i, f(i))` for `i in 0..n`.
    pub fn id_score_rows(n: i64, f: impl Fn(i64) -> f32) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Float(f(i))]))
            .collect()
    }
}
