//! Error type shared by all tensor operations.

use std::fmt;

/// Result alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by tensor construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two shapes that had to agree did not.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: Vec<usize>,
        /// Shape of the right/second operand.
        rhs: Vec<usize>,
    },
    /// A shape with zero dimensions (or an otherwise unusable rank) was used
    /// where a concrete rank was required.
    InvalidRank {
        /// The operation that required a specific rank.
        op: &'static str,
        /// Rank the operation expected.
        expected: usize,
        /// Rank it received.
        actual: usize,
    },
    /// The raw buffer handed to a constructor does not match the shape.
    BufferSizeMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// An index was outside the tensor bounds.
    IndexOutOfBounds {
        /// The offending flat or dimensional index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
    /// A blocked-tensor operation referenced a block that is not present.
    MissingBlock {
        /// Row-block coordinate.
        row: usize,
        /// Column-block coordinate.
        col: usize,
    },
    /// Blocking specifications of two operands are incompatible.
    BlockingMismatch(String),
    /// A convolution specification is inconsistent with its input.
    InvalidConv(String),
    /// SIMD dispatch selection failed: an unknown `RELSERVE_ISA` token, or a
    /// tier the running CPU cannot execute.
    Isa(String),
    /// Int8 quantization failed: non-finite weights, or stored quantized
    /// parts that are internally inconsistent.
    Quantize(String),
    /// An activation row to quantize holds a NaN or an infinity; the value
    /// is the row's index in the quantized matrix.
    NonFiniteRow(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            Error::InvalidRank {
                op,
                expected,
                actual,
            } => write!(f, "{op} expects rank {expected}, got rank {actual}"),
            Error::BufferSizeMismatch { expected, actual } => {
                write!(f, "buffer has {actual} elements but shape needs {expected}")
            }
            Error::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds ({bound})")
            }
            Error::MissingBlock { row, col } => {
                write!(f, "blocked tensor is missing block ({row}, {col})")
            }
            Error::BlockingMismatch(msg) => write!(f, "incompatible blocking: {msg}"),
            Error::InvalidConv(msg) => write!(f, "invalid convolution: {msg}"),
            Error::Isa(msg) => write!(f, "isa dispatch: {msg}"),
            Error::Quantize(msg) => write!(f, "quantize: {msg}"),
            Error::NonFiniteRow(r) => write!(
                f,
                "quantize: activation row {r} contains non-finite values; cannot quantize"
            ),
        }
    }
}

impl std::error::Error for Error {}
