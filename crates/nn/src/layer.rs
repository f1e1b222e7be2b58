//! Model layers.

use crate::error::{Error, Result};
use crate::init;
use crate::stored::{Precision, StoredWeight};
use rand::rngs::StdRng;
use relserve_tensor::matmul::{self, PackedB};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::{self, QuantEpilogue};
use relserve_tensor::{conv, ops, Conv2dSpec, QuantizedTensor, Shape, Tensor};

/// Activation applied after a layer's linear part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Row-wise softmax (output layers).
    Softmax,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to a rank-2 tensor.
    pub fn apply(&self, t: &Tensor) -> Result<Tensor> {
        let mut out = t.clone();
        self.apply_inplace(&mut out)?;
        Ok(out)
    }

    /// [`Activation::apply`] in place, for a caller that owns `t`: no second
    /// output-sized tensor, and [`Activation::None`] touches nothing.
    pub fn apply_inplace(&self, t: &mut Tensor) -> Result<()> {
        match self {
            Activation::None => {}
            Activation::Relu => ops::relu_inplace(t),
            Activation::Softmax => ops::softmax_inplace(t)?,
            Activation::Sigmoid => ops::sigmoid_inplace(t),
            Activation::Tanh => ops::map_inplace(t, f32::tanh),
        }
        Ok(())
    }
}

/// A dense layer's weight matrix laid out once in the form the dispatched
/// kernel multiplies from, so that no call packs it again: f32
/// `[panel][k][nr]` panels, or i8 `[panel][kq][nr][4]` quads with the
/// per-row scales and level sums the int8 store needs — all a forward pass
/// reads of the weight. `nr` is the panel width of the kernel dispatched in
/// this process, which makes the form per-process: it is never serialized.
pub(crate) enum PreparedWeights {
    /// Of an f32 weight.
    Panels { nr: usize, panels: Vec<f32> },
    /// Of an int8 weight.
    Quads {
        nr: usize,
        quads: Vec<i8>,
        scales: Vec<f32>,
        row_sums: Vec<i32>,
    },
}

impl PreparedWeights {
    /// Bytes the packed form holds.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            PreparedWeights::Panels { panels, .. } => std::mem::size_of_val(panels.as_slice()),
            PreparedWeights::Quads {
                quads,
                scales,
                row_sums,
                ..
            } => quads.len() + std::mem::size_of_val(scales.as_slice()) + 4 * row_sums.len(),
        }
    }
}

/// One model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully connected: `y = act(x × Wᵀ + b)` with `W: [out, in]`.
    Dense {
        /// Weight matrix, `[out_features, in_features]`.
        weight: Tensor,
        /// Bias vector, `[out_features]`.
        bias: Tensor,
        /// Post-linear activation.
        activation: Activation,
    },
    /// Fully connected with **int8 quantized** weights: the storage form of
    /// an `@int8` model version. Weights are true i8 levels with
    /// per-output-channel scales; the forward pass runs the u8×i8
    /// micro-kernels with i32 accumulation and folds dequantization and the
    /// bias into the store. Quantized layers are frozen — the training path
    /// rejects them.
    QuantDense {
        /// Quantized weight matrix, logically `[out_features, in_features]`.
        weight: QuantizedTensor,
        /// Bias vector, `[out_features]` (kept f32; it is one row).
        bias: Tensor,
        /// Post-linear activation.
        activation: Activation,
    },
    /// 2-D convolution over NHWC input.
    Conv2d {
        /// Kernel bank, `[out_channels, kh, kw, in_channels]`.
        kernel: Tensor,
        /// Bias per output channel.
        bias: Tensor,
        /// Geometry (stride, padding, dims).
        spec: Conv2dSpec,
        /// Post-conv activation.
        activation: Activation,
    },
    /// Collapse all non-batch dims into one feature dim.
    Flatten,
    /// A [`Layer::Dense`] or [`Layer::QuantDense`] whose weight matrix is
    /// not in memory: it stays on the pages of the artifact the model was
    /// loaded from ([`crate::serialize::store`]), and the layer's packed
    /// form — or a session's weight relation — is built from there.
    Stored {
        /// Where the weight matrix, logically `[out_features, in_features]`,
        /// is, and how it is encoded.
        weight: StoredWeight,
        /// Bias vector, `[out_features]`.
        bias: Tensor,
        /// Post-linear activation.
        activation: Activation,
    },
}

impl Layer {
    /// A dense layer with He-initialized weights.
    pub fn dense(
        in_features: usize,
        out_features: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Layer {
        Layer::Dense {
            weight: init::he_normal([out_features, in_features], in_features, rng),
            bias: Tensor::zeros([out_features]),
            activation,
        }
    }

    /// A conv layer with He-initialized kernels (stride 1, padding 0 —
    /// the Table 2 configuration).
    pub fn conv2d(
        in_channels: usize,
        out_channels: usize,
        kh: usize,
        kw: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Layer {
        let spec = Conv2dSpec::unit(out_channels, kh, kw, in_channels);
        Layer::Conv2d {
            kernel: init::he_normal(
                [out_channels, kh, kw, in_channels],
                kh * kw * in_channels,
                rng,
            ),
            bias: Tensor::zeros([out_channels]),
            spec,
            activation,
        }
    }

    /// The weight matrix of a dense layer — raw, quantized or stored — as
    /// `(precision, (out_features, in_features))`, with its bias and
    /// activation; `None` for a layer without one.
    pub(crate) fn dense_parts(&self) -> Option<(Precision, (usize, usize), &Tensor, Activation)> {
        match self {
            Layer::Dense {
                weight,
                bias,
                activation,
            } => {
                let shape = weight.shape().as_matrix().ok()?;
                Some((Precision::F32, shape, bias, *activation))
            }
            Layer::QuantDense {
                weight,
                bias,
                activation,
            } => Some((
                Precision::Int8,
                (weight.rows(), weight.cols()),
                bias,
                *activation,
            )),
            Layer::Stored {
                weight,
                bias,
                activation,
            } => Some((weight.precision(), weight.shape(), bias, *activation)),
            Layer::Conv2d { .. } | Layer::Flatten => None,
        }
    }

    /// `(out_features, in_features)` of a dense layer's weight matrix,
    /// wherever the matrix is; `None` for a conv or flatten layer.
    pub fn weight_shape(&self) -> Option<(usize, usize)> {
        self.dense_parts().map(|(_, shape, _, _)| shape)
    }

    /// Bytes of the layer's weight matrix in its storage form (f32 values,
    /// or i8 levels plus per-row scales); 0 for a layer without one.
    pub fn weight_bytes(&self) -> usize {
        match self {
            Layer::Dense { weight, .. } => weight.num_bytes(),
            Layer::QuantDense { weight, .. } => weight.storage_bytes(),
            Layer::Stored { weight, .. } => weight.payload_bytes(),
            Layer::Conv2d { .. } | Layer::Flatten => 0,
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Conv2d { kernel, bias, .. } => kernel.len() + bias.len(),
            Layer::Flatten => 0,
            dense => dense
                .dense_parts()
                .map_or(0, |(_, (n, k), bias, _)| n * k + bias.len()),
        }
    }

    /// This layer with any stored weight matrix read back into memory: a
    /// [`Layer::Stored`] becomes the [`Layer::Dense`] or
    /// [`Layer::QuantDense`] it was loaded from; every other layer is cloned.
    pub fn materialize(&self) -> Result<Layer> {
        Ok(match self {
            Layer::Stored {
                weight,
                bias,
                activation,
            } => match weight.precision() {
                Precision::F32 => Layer::Dense {
                    weight: weight.load_dense()?,
                    bias: bias.clone(),
                    activation: *activation,
                },
                Precision::Int8 => Layer::QuantDense {
                    weight: weight.load_quantized()?,
                    bias: bias.clone(),
                    activation: *activation,
                },
            },
            other => other.clone(),
        })
    }

    /// Per-example output shape given the per-example input shape.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape> {
        match self {
            Layer::Conv2d { spec, .. } => {
                let dims = input.dims();
                if dims.len() != 3 {
                    return Err(Error::InvalidModel(format!(
                        "conv layer expects [h, w, c] input, got {dims:?}"
                    )));
                }
                if dims[2] != spec.in_channels {
                    return Err(Error::InvalidModel(format!(
                        "conv layer expects {} channels, got {}",
                        spec.in_channels, dims[2]
                    )));
                }
                let (oh, ow) = spec.output_dims(dims[0], dims[1])?;
                Ok(Shape::from([oh, ow, spec.out_channels]))
            }
            Layer::Flatten => Ok(Shape::from([input.num_elements()])),
            dense => {
                let (precision, (out, inf), _, _) = dense
                    .dense_parts()
                    .ok_or_else(|| Error::InvalidModel("dense weight is not a matrix".into()))?;
                let in_features = input.num_elements();
                if in_features != inf {
                    return Err(Error::InvalidModel(format!(
                        "{} layer expects {inf} input features, previous layer provides {in_features}",
                        match precision {
                            Precision::F32 => "dense",
                            Precision::Int8 => "quantized dense",
                        }
                    )));
                }
                Ok(Shape::from([out]))
            }
        }
    }

    /// Pack this layer's weights for the dispatched kernels — from memory,
    /// or from the artifact pages of a [`Layer::Stored`]. `None` for a layer
    /// whose multiply has no constant matrix to pack: a convolution packs
    /// its im2col product per call, a flatten multiplies nothing.
    pub(crate) fn prepare(&self) -> Result<Option<PreparedWeights>> {
        Ok(match self {
            Layer::Dense { weight, .. } => {
                let (n, k) = weight.shape().as_matrix()?;
                let nr = matmul::panel_width()?;
                let mut panels = Vec::new();
                matmul::pack_bt(weight.data(), k, n, k, nr, &mut panels);
                Some(PreparedWeights::Panels { nr, panels })
            }
            Layer::QuantDense { weight, .. } => {
                let nr = quant::quad_panel_width()?;
                let mut quads = Vec::new();
                quant::pack_quads(weight.data(), weight.rows(), weight.cols(), nr, &mut quads);
                Some(PreparedWeights::Quads {
                    nr,
                    quads,
                    scales: weight.scales().to_vec(),
                    row_sums: weight.row_sums().to_vec(),
                })
            }
            Layer::Stored { weight, .. } => Some(weight.prepare()?),
            Layer::Conv2d { .. } | Layer::Flatten => None,
        })
    }

    /// Forward pass over a batch.
    ///
    /// `input` is `[batch, ...example dims]`; `par` bounds kernel
    /// parallelism (set by the resource coordinator).
    ///
    /// A layer on its own has nowhere to keep packed weights, so a dense
    /// layer packs them for this call. A model's layers run through
    /// [`crate::Model::forward_layer`], which packs once per model.
    pub fn forward(&self, input: &Tensor, par: &Parallelism) -> Result<Tensor> {
        self.forward_prepared(input, self.prepare()?.as_ref(), par)
    }

    /// The one forward route: `prepared` is what [`Layer::prepare`] returned
    /// for this layer, whenever it was built.
    pub(crate) fn forward_prepared(
        &self,
        input: &Tensor,
        prepared: Option<&PreparedWeights>,
        par: &Parallelism,
    ) -> Result<Tensor> {
        match (self.dense_parts(), prepared) {
            (
                Some((Precision::F32, (n, k), bias, activation)),
                Some(PreparedWeights::Panels { nr, panels }),
            ) => {
                let packed = PackedB::new(k, n, *nr, panels)?;
                let mut z = matmul::matmul_prepacked(input, &packed, par)?;
                ops::add_bias_inplace(&mut z, bias)?;
                activation.apply_inplace(&mut z)?;
                Ok(z)
            }
            (
                Some((Precision::Int8, (_, k), bias, activation)),
                Some(PreparedWeights::Quads {
                    nr,
                    quads,
                    scales,
                    row_sums,
                }),
            ) => {
                // Genuine int8 execution: each row stripe quantizes its
                // activations, the u8×i8 kernels accumulate in i32, and the
                // epilogue folds scale and bias into the f32 store — no f32
                // weight tensor is ever materialized on this path.
                let w = QuantEpilogue {
                    cols: k,
                    scales,
                    row_sums,
                };
                let bias = Some(bias.data());
                let mut z = quant::qmatmul_prepacked(input, w, *nr, quads, bias, par)?;
                activation.apply_inplace(&mut z)?;
                Ok(z)
            }
            (None, None) => match self {
                Layer::Conv2d {
                    kernel,
                    bias,
                    spec,
                    activation,
                } => {
                    let z = conv::conv2d(input, kernel, bias, spec, par)?;
                    let dims = z.shape().dims().to_vec();
                    // Activations operate on a matrix view, then restore shape.
                    let mut flat = z.reshape([dims[0] * dims[1] * dims[2], dims[3]])?;
                    activation.apply_inplace(&mut flat)?;
                    Ok(flat.reshape(dims)?)
                }
                Layer::Flatten => {
                    let dims = input.shape().dims();
                    let batch = dims[0];
                    let rest: usize = dims[1..].iter().product();
                    Ok(input.clone().reshape([batch, rest])?)
                }
                dense => Err(Error::InvalidModel(format!(
                    "a {} layer ran without its prepared weights",
                    dense.kind()
                ))),
            },
            _ => Err(Error::InvalidModel(format!(
                "prepared weights of another kind handed to a {} layer",
                self.kind()
            ))),
        }
    }

    /// Human-readable kind, for plans and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Dense { .. } => "dense",
            Layer::QuantDense { .. } => "quant_dense",
            Layer::Conv2d { .. } => "conv2d",
            Layer::Flatten => "flatten",
            Layer::Stored { weight, .. } => match weight.precision() {
                Precision::F32 => "dense",
                Precision::Int8 => "quant_dense",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn dense_forward_shape_and_value() {
        let layer = Layer::Dense {
            weight: Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 0.]).unwrap(),
            bias: Tensor::from_vec([2], vec![10.0, 20.0]).unwrap(),
            activation: Activation::None,
        };
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = layer.forward(&x, &Parallelism::serial()).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn relu_activation_applied() {
        let layer = Layer::Dense {
            weight: Tensor::from_vec([1, 1], vec![-1.0]).unwrap(),
            bias: Tensor::zeros([1]),
            activation: Activation::Relu,
        };
        let x = Tensor::from_vec([1, 1], vec![5.0]).unwrap();
        assert_eq!(
            layer.forward(&x, &Parallelism::serial()).unwrap().data(),
            &[0.0]
        );
    }

    #[test]
    fn output_shape_chain() {
        let mut rng = seeded_rng(7);
        let conv = Layer::conv2d(3, 8, 3, 3, Activation::Relu, &mut rng);
        let out = conv.output_shape(&Shape::from([28, 28, 3])).unwrap();
        assert_eq!(out.dims(), &[26, 26, 8]);
        let flat = Layer::Flatten.output_shape(&out).unwrap();
        assert_eq!(flat.dims(), &[26 * 26 * 8]);
        let dense = Layer::dense(26 * 26 * 8, 10, Activation::Softmax, &mut rng);
        assert_eq!(dense.output_shape(&flat).unwrap().dims(), &[10]);
    }

    #[test]
    fn shape_chain_errors_on_mismatch() {
        let mut rng = seeded_rng(8);
        let dense = Layer::dense(10, 5, Activation::None, &mut rng);
        assert!(dense.output_shape(&Shape::from([11])).is_err());
        let conv = Layer::conv2d(3, 4, 1, 1, Activation::None, &mut rng);
        assert!(conv.output_shape(&Shape::from([28, 28, 4])).is_err());
        assert!(conv.output_shape(&Shape::from([784])).is_err());
    }

    #[test]
    fn flatten_forward_preserves_batch() {
        let x = Tensor::from_fn([2, 3, 4, 5], |i| i as f32);
        let y = Layer::Flatten.forward(&x, &Parallelism::serial()).unwrap();
        assert_eq!(y.shape().dims(), &[2, 60]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_forward_shape() {
        let mut rng = seeded_rng(9);
        let conv = Layer::conv2d(3, 16, 3, 3, Activation::Relu, &mut rng);
        let x = Tensor::from_fn([2, 8, 8, 3], |i| (i % 7) as f32 * 0.1);
        let y = conv.forward(&x, &Parallelism::serial()).unwrap();
        assert_eq!(y.shape().dims(), &[2, 6, 6, 16]);
        // Relu output is non-negative.
        assert!(y.data().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let mut rng = seeded_rng(10);
        assert_eq!(
            Layer::dense(28, 256, Activation::Relu, &mut rng).num_params(),
            28 * 256 + 256
        );
        assert_eq!(
            Layer::conv2d(3, 8, 3, 3, Activation::None, &mut rng).num_params(),
            8 * 3 * 3 * 3 + 8
        );
        assert_eq!(Layer::Flatten.num_params(), 0);
    }

    #[test]
    fn softmax_activation_normalizes() {
        let layer = Layer::Dense {
            weight: Tensor::eye(3),
            bias: Tensor::zeros([3]),
            activation: Activation::Softmax,
        };
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 0., 0., 0.]).unwrap();
        let y = layer.forward(&x, &Parallelism::serial()).unwrap();
        for r in 0..2 {
            let s: f32 = y.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
