//! The linear-algebra graph IR (§2.1) and its memory accounting (§7.1).
//!
//! A model UDF operator "can be lowered to a graph IR, where each node
//! represents a linear algebra operator such as matrix multiplication,
//! matrix addition, relu, softmax, conv2d" (§2.1). [`lower`] performs that
//! lowering for a sequential model at a given batch size, and each
//! [`LinalgOp`] reports the paper's memory estimate: for a matmul with
//! inputs `m×k` and `k×n`, `m×k + k×n + m×n` elements — i.e. data input +
//! parameters + output.

use crate::error::{Error, Result};
use crate::layer::{Activation, Layer};
use crate::model::Model;
use crate::weight::Precision;
use relserve_tensor::{Conv2dSpec, Shape};

/// Kind of a linear-algebra operator node.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `X[m,k] × Wᵀ` with `W: [n,k]` — a dense layer's linear part.
    MatMul {
        /// Batch rows.
        m: usize,
        /// Inner (feature) dimension.
        k: usize,
        /// Output features.
        n: usize,
    },
    /// `X[m,k] × Wᵀ` with int8-quantized `W: [n,k]` — the linear part of a
    /// quantized dense layer. Same FLOP-equivalent count as [`OpKind::MatMul`]
    /// but reads 1-byte parameters, so its memory estimate is ~4× smaller.
    MatMulI8 {
        /// Batch rows.
        m: usize,
        /// Inner (feature) dimension.
        k: usize,
        /// Output features.
        n: usize,
    },
    /// Bias addition over rows.
    AddBias {
        /// Bias width.
        width: usize,
    },
    /// Elementwise activation.
    Activation(Activation),
    /// 2-D convolution.
    Conv2d {
        /// Geometry of the convolution.
        spec: Conv2dSpec,
        /// Input spatial dims `(h, w)`.
        input_hw: (usize, usize),
    },
    /// Shape-only reshape (flatten); costs no memory of its own.
    Reshape,
}

/// One node of the lowered linear-algebra graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LinalgOp {
    /// Which operator this is.
    pub kind: OpKind,
    /// Index of the model layer this op came from.
    pub layer_index: usize,
    /// Full input shape (batch included).
    pub input_shape: Shape,
    /// Full output shape (batch included).
    pub output_shape: Shape,
    /// Bytes of parameters the op reads (weights, kernels, biases).
    pub param_bytes: usize,
    /// Whether the weight matrix the op multiplies by is on the pages of
    /// the model's artifact ([`Layer::Stored`]) rather than in memory — where
    /// its packed form or weight relation is built from.
    pub params_stored: bool,
}

impl LinalgOp {
    /// The paper's §7.1 estimate: input size + parameter size + output size.
    ///
    /// (For matmul this is exactly the `m×k + k×n + m×n` formula; reshapes
    /// report zero because they are free in a strided tensor.)
    pub fn memory_requirement_bytes(&self) -> usize {
        if matches!(self.kind, OpKind::Reshape) {
            return 0;
        }
        self.input_shape.num_bytes() + self.param_bytes + self.output_shape.num_bytes()
    }

    /// Approximate FLOP count.
    pub fn flops(&self) -> f64 {
        match &self.kind {
            OpKind::MatMul { m, k, n } | OpKind::MatMulI8 { m, k, n } => {
                2.0 * (*m as f64) * (*k as f64) * (*n as f64)
            }
            OpKind::Conv2d { spec, input_hw } => {
                let (oh, ow) = spec.output_dims(input_hw.0, input_hw.1).unwrap_or((0, 0));
                let batch = self.output_shape.dims().first().copied().unwrap_or(1) as f64;
                2.0 * batch
                    * (oh * ow) as f64
                    * (spec.out_channels * spec.kh * spec.kw * spec.in_channels) as f64
            }
            OpKind::AddBias { .. } | OpKind::Activation(_) => {
                self.output_shape.num_elements() as f64
            }
            OpKind::Reshape => 0.0,
        }
    }

    /// Short label for plans and logs.
    pub fn label(&self) -> String {
        match &self.kind {
            OpKind::MatMul { m, k, n } => format!("matmul[{m}x{k} * {k}x{n}]"),
            OpKind::MatMulI8 { m, k, n } => format!("matmul_i8[{m}x{k} * {k}x{n}]"),
            OpKind::AddBias { width } => format!("add_bias[{width}]"),
            OpKind::Activation(a) => format!("{a:?}").to_lowercase(),
            OpKind::Conv2d { spec, .. } => format!(
                "conv2d[{}x{}x{}x{}]",
                spec.out_channels, spec.kh, spec.kw, spec.in_channels
            ),
            OpKind::Reshape => "reshape".to_string(),
        }
    }
}

/// Lower a model to its linear-algebra graph at `batch_size`.
pub fn lower(model: &Model, batch_size: usize) -> Result<Vec<LinalgOp>> {
    let mut ops = Vec::new();
    let mut shape = model.input_shape().clone();
    for (layer_index, layer) in model.layers().iter().enumerate() {
        let out_shape = layer.output_shape(&shape)?;
        let batched = |s: &Shape| {
            let mut dims = vec![batch_size];
            dims.extend_from_slice(s.dims());
            Shape::from(dims)
        };
        match layer {
            Layer::Conv2d {
                kernel,
                bias,
                spec,
                activation,
            } => {
                let dims = shape.dims();
                ops.push(LinalgOp {
                    kind: OpKind::Conv2d {
                        spec: *spec,
                        input_hw: (dims[0], dims[1]),
                    },
                    layer_index,
                    input_shape: batched(&shape),
                    output_shape: batched(&out_shape),
                    param_bytes: kernel.num_bytes() + bias.num_bytes(),
                    params_stored: false,
                });
                if *activation != Activation::None {
                    ops.push(LinalgOp {
                        kind: OpKind::Activation(*activation),
                        layer_index,
                        input_shape: batched(&out_shape),
                        output_shape: batched(&out_shape),
                        param_bytes: 0,
                        params_stored: false,
                    });
                }
            }
            Layer::Flatten => {
                ops.push(LinalgOp {
                    kind: OpKind::Reshape,
                    layer_index,
                    input_shape: batched(&shape),
                    output_shape: batched(&out_shape),
                    param_bytes: 0,
                    params_stored: false,
                });
            }
            dense => {
                let (weight, bias, activation) = dense
                    .dense_parts()
                    .ok_or_else(|| Error::InvalidModel("dense weight is not a matrix".into()))?;
                let (n, k) = weight.shape();
                let (m, lin_out) = (batch_size, Shape::from([batch_size, n]));
                ops.push(LinalgOp {
                    kind: match weight.precision() {
                        Precision::F32 => OpKind::MatMul { m, k, n },
                        Precision::Int8 => OpKind::MatMulI8 { m, k, n },
                    },
                    layer_index,
                    input_shape: Shape::from([batch_size, k]),
                    output_shape: lin_out.clone(),
                    // The weight's storage form: f32 values, or i8 levels
                    // plus per-row scales.
                    param_bytes: weight.storage_bytes(),
                    params_stored: matches!(dense, Layer::Stored { .. }),
                });
                ops.push(LinalgOp {
                    kind: OpKind::AddBias { width: n },
                    layer_index,
                    input_shape: lin_out.clone(),
                    output_shape: lin_out.clone(),
                    param_bytes: bias.num_bytes(),
                    params_stored: false,
                });
                if activation != Activation::None {
                    ops.push(LinalgOp {
                        kind: OpKind::Activation(activation),
                        layer_index,
                        input_shape: lin_out.clone(),
                        output_shape: lin_out,
                        param_bytes: 0,
                        params_stored: false,
                    });
                }
            }
        }
        shape = out_shape;
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use relserve_tensor::ELEM_BYTES;

    fn small_ffnn() -> Model {
        let mut rng = seeded_rng(11);
        Model::new("g", [28])
            .push(Layer::dense(28, 256, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(256, 2, Activation::Softmax, &mut rng))
            .unwrap()
    }

    #[test]
    fn lowering_expands_dense_layers() {
        let ops = small_ffnn().to_graph(100).unwrap();
        // dense+relu → matmul, add_bias, relu; dense+softmax → matmul, add_bias, softmax.
        assert_eq!(ops.len(), 6);
        assert!(matches!(
            ops[0].kind,
            OpKind::MatMul {
                m: 100,
                k: 28,
                n: 256
            }
        ));
        assert!(matches!(ops[2].kind, OpKind::Activation(Activation::Relu)));
        assert!(matches!(
            ops[5].kind,
            OpKind::Activation(Activation::Softmax)
        ));
    }

    #[test]
    fn matmul_memory_matches_paper_formula() {
        let ops = small_ffnn().to_graph(1000).unwrap();
        let matmul = &ops[0];
        // m×k + k×n + m×n elements, 4 bytes each.
        let expect = (1000 * 28 + 28 * 256 + 1000 * 256) * ELEM_BYTES;
        assert_eq!(matmul.memory_requirement_bytes(), expect);
    }

    #[test]
    fn reshape_is_free() {
        let mut rng = seeded_rng(12);
        let m = Model::new("c", [4, 4, 1])
            .push(Layer::Flatten)
            .unwrap()
            .push(Layer::dense(16, 2, Activation::None, &mut rng))
            .unwrap();
        let ops = m.to_graph(10).unwrap();
        assert!(matches!(ops[0].kind, OpKind::Reshape));
        assert_eq!(ops[0].memory_requirement_bytes(), 0);
    }

    #[test]
    fn conv_op_carries_geometry() {
        let mut rng = seeded_rng(13);
        let m = Model::new("c", [112, 112, 64])
            .push(Layer::conv2d(64, 64, 1, 1, Activation::None, &mut rng))
            .unwrap();
        let ops = m.to_graph(1).unwrap();
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.input_shape.dims(), &[1, 112, 112, 64]);
        assert_eq!(op.output_shape.dims(), &[1, 112, 112, 64]);
        // DeepBench-CONV1 FLOPs: 2 * 112*112*64*64.
        let expect = 2.0 * (112 * 112) as f64 * (64 * 64) as f64;
        assert!((op.flops() - expect).abs() < 1.0);
    }

    #[test]
    fn memory_grows_with_batch() {
        let m = small_ffnn();
        let small = m.to_graph(10).unwrap()[0].memory_requirement_bytes();
        let large = m.to_graph(10_000).unwrap()[0].memory_requirement_bytes();
        assert!(large > small);
    }

    #[test]
    fn quantized_lowering_reports_i8_param_bytes() {
        let m = small_ffnn();
        let q = crate::quant::quantize_int8(&m).unwrap().model;
        let f32_ops = m.to_graph(64).unwrap();
        let q_ops = q.to_graph(64).unwrap();
        assert_eq!(f32_ops.len(), q_ops.len());
        assert!(matches!(
            q_ops[0].kind,
            OpKind::MatMulI8 {
                m: 64,
                k: 28,
                n: 256
            }
        ));
        assert_eq!(q_ops[0].label(), "matmul_i8[64x28 * 28x256]");
        // Same FLOP-equivalents, ~4× smaller parameter reads.
        assert_eq!(q_ops[0].flops(), f32_ops[0].flops());
        assert!(q_ops[0].param_bytes * 3 < f32_ops[0].param_bytes);
        assert!(q_ops[0].memory_requirement_bytes() < f32_ops[0].memory_requirement_bytes());
    }

    #[test]
    fn labels_are_descriptive() {
        let ops = small_ffnn().to_graph(8).unwrap();
        assert_eq!(ops[0].label(), "matmul[8x28 * 28x256]");
        assert_eq!(ops[1].label(), "add_bias[256]");
        assert_eq!(ops[2].label(), "relu");
    }
}
