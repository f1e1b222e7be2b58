//! Relational-layer errors.

use std::fmt;

/// Result alias for the relational crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from schema validation, value access, and operators.
#[derive(Debug)]
pub enum Error {
    /// Underlying storage failure.
    Storage(relserve_storage::Error),
    /// Underlying tensor failure.
    Tensor(relserve_tensor::Error),
    /// A tuple does not match the schema it was used with.
    SchemaMismatch(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A value was read as the wrong type.
    TypeError(String),
    /// Tuple bytes failed to decode.
    Codec(String),
    /// An operator was configured inconsistently.
    Plan(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Error::TypeError(m) => write!(f, "type error: {m}"),
            Error::Codec(m) => write!(f, "tuple codec error: {m}"),
            Error::Plan(m) => write!(f, "invalid plan: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            Error::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relserve_storage::Error> for Error {
    fn from(e: relserve_storage::Error) -> Self {
        Error::Storage(e)
    }
}

impl From<relserve_tensor::Error> for Error {
    fn from(e: relserve_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}
