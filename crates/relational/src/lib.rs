//! Relational algebra runtime for `relserve`.
//!
//! This crate is the query-processing half of the envisioned RDBMS: typed
//! schemas and tuples over the paged storage engine, the band join on float
//! keys that §7.2.1's decomposition query joins its two tables with, and —
//! the part specific to the paper — **tensor relations**: tables whose
//! tuples are tensor blocks, plus the relational lowering of matrix
//! multiplication into a join followed by an aggregation over those blocks
//! (§7.1).
//!
//! Everything executes through the buffer pool, so both ordinary tables and
//! tensor relations spill to disk transparently when they outgrow memory.

pub mod band_join;
pub mod error;
pub mod schema;
pub mod table;
pub mod tensor_table;
pub mod tuple;
pub mod value;
pub mod weight_blocks;

pub use band_join::band_join;
pub use error::{Error, Result};
pub use schema::{Column, DataType, Schema};
pub use table::Table;
pub use tensor_table::TensorTable;
pub use tuple::Tuple;
pub use value::Value;
pub use weight_blocks::{BlockRows, WeightBlocks, WeightBlocksWriter};
