//! Dense and blocked tensor primitives for `relserve`.
//!
//! This crate is the numeric substrate of the system described in *Serving
//! Deep Learning Models from Relational Databases* (EDBT 2024). It provides:
//!
//! * [`Shape`] — a lightweight dimension descriptor.
//! * [`Tensor`] — a dense, row-major `f32` tensor with the linear-algebra
//!   kernels the paper's models need (matmul, conv2d, activations).
//! * [`blocked::BlockedTensor`] — a tensor represented as a *collection of
//!   tensor blocks*, the relation-centric data model: each block is addressed
//!   by a `(row_block, col_block)` coordinate and can live in a relational
//!   table, spill to disk through the buffer pool, or be joined/aggregated.
//! * [`simd`] — the ISA dispatch seam: scalar / AVX2+FMA / AVX-512
//!   micro-kernels and vectorized elementwise kernels, selected once per
//!   process (overridable via `RELSERVE_ISA`).
//!
//! The crate is deliberately dependency-free: kernels never spawn threads
//! themselves but submit stripe tasks to the [`parallel::StripeRunner`]
//! installed by the runtime's persistent kernel pool, so every layer above
//! it — storage, relational execution, the optimizer — can build on the same
//! kernels under one thread budget.

pub mod blocked;
pub mod conv;
pub mod dense;
pub mod error;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod quant;
pub mod shape;
pub mod simd;

pub use blocked::{BlockCoord, BlockedTensor, BlockingSpec};
pub use conv::{im2col, spatial_rewrite_1x1, Conv2dSpec};
pub use dense::Tensor;
pub use error::{Error, Result};
pub use quant::{QuantEpilogue, QuantizedActivations, QuantizedTensor};
pub use shape::Shape;
pub use simd::Isa;

/// Size of one `f32` element in bytes; used by memory estimators everywhere.
pub const ELEM_BYTES: usize = std::mem::size_of::<f32>();
