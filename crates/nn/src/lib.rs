//! Neural-network library for `relserve`.
//!
//! Models here are what the paper loads *into* the RDBMS: feed-forward and
//! convolutional networks expressed as a sequence of layers, whose shapes
//! and parameter bytes the adaptive optimizer reads per layer (§7.1).
//!
//! * [`model`] — [`model::Model`]: a sequential layer stack with forward
//!   inference, shape inference and parameter accounting.
//! * [`train`] — SGD with backprop (dense and conv via im2col/col2im), the
//!   §6.1 training extension; used to produce the genuinely trained models
//!   the §7.2.2 caching experiment needs.
//! * [`zoo`] — constructors for every model in Tables 1–2 and §7.2,
//!   parameterized by a scale factor.
//! * [`quant`] — int8 quantization and magnitude pruning, producing the
//!   accuracy/size model versions of §4.1.
//! * [`weight`] — a dense layer's weight matrix as one cell, shared by
//!   clones, holding one resident form: raw values, the packed form the
//!   kernels multiply from (which replaces them), or an artifact's pages.
//! * [`serialize`] — a hand-rolled binary model format for catalog storage,
//!   encoded and decoded as streams; [`serialize::store`] decodes into a
//!   model whose weight matrices stay on the artifact's pages.

pub mod error;
pub mod init;
pub mod layer;
pub mod model;
pub mod quant;
pub mod serialize;
pub mod train;
pub mod weight;
pub mod zoo;

pub use error::{Error, Result};
pub use layer::{Activation, Layer};
pub use model::Model;
pub use train::Trainer;
pub use weight::{DenseWeight, Precision, QuantWeight, Weight, WeightReader};
