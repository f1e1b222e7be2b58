//! Errors for model construction, inference, and training.

use std::fmt;

/// Result alias for the nn crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from the neural-network layer.
#[derive(Debug)]
pub enum Error {
    /// Underlying tensor failure.
    Tensor(relserve_tensor::Error),
    /// A layer stack is inconsistent (shape chain broken, bad config).
    InvalidModel(String),
    /// Input data does not match the model's expected input shape.
    InputMismatch {
        /// Shape the model expects per example.
        expected: Vec<usize>,
        /// Shape that arrived.
        actual: Vec<usize>,
    },
    /// Training configuration or data problem.
    Training(String),
    /// Model (de)serialization failure.
    Serde(String),
    /// The pages a stored weight matrix lives on could not be read back as
    /// written (including [`relserve_storage::Error::Checksum`]).
    Storage(relserve_storage::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::InvalidModel(m) => write!(f, "invalid model: {m}"),
            Error::InputMismatch { expected, actual } => {
                write!(
                    f,
                    "input shape {actual:?} does not match model input {expected:?}"
                )
            }
            Error::Training(m) => write!(f, "training error: {m}"),
            Error::Serde(m) => write!(f, "model serialization error: {m}"),
            Error::Storage(e) => write!(f, "stored weights: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relserve_tensor::Error> for Error {
    fn from(e: relserve_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl From<relserve_storage::Error> for Error {
    fn from(e: relserve_storage::Error) -> Self {
        Error::Storage(e)
    }
}

/// A stored weight matrix is read and written through its weight relation:
/// a page that fails its checksum stays the storage error it is.
impl From<relserve_relational::Error> for Error {
    fn from(e: relserve_relational::Error) -> Self {
        match e {
            relserve_relational::Error::Storage(e) => Error::Storage(e),
            relserve_relational::Error::Tensor(e) => Error::Tensor(e),
            other => Error::Serde(format!("stored weight matrix: {other}")),
        }
    }
}
