//! Model layers.

use crate::error::{Error, Result};
use crate::init;
use crate::weight::{DenseWeight, Precision, QuantWeight, Weight};
use rand::rngs::StdRng;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{conv, ops, Conv2dSpec, Shape, Tensor};

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

/// One model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully connected: `y = act(x × Wᵀ + b)` with `W: [out, in]`.
    Dense {
        /// Weight matrix, `[out_features, in_features]`: one cell that clones
        /// share, holding the raw values until the layer's first run packs
        /// them (see [`crate::weight`]). Made from a tensor with `.into()`.
        weight: DenseWeight,
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
        /// Quantized weight matrix, logically `[out_features, in_features]`,
        /// in a cell like [`Layer::Dense`]'s. Made from a quantized tensor
        /// with `.into()`.
        weight: QuantWeight,
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
    /// loaded from ([`crate::serialize::store`]), stored as the blocks of
    /// its weight relation, which a session joins against and the layer's
    /// packed form is built from.
    Stored {
        /// The weight matrix, logically `[out_features, in_features]`, on
        /// its artifact's pages until packed.
        weight: Weight,
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
            weight: init::he_normal([out_features, in_features], in_features, rng).into(),
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

    /// The weight matrix of a dense layer — raw, quantized or stored — in
    /// whatever form it is; `None` for a conv or flatten layer.
    pub fn weight(&self) -> Option<&Weight> {
        match self {
            Layer::Dense { weight, .. } => Some(&weight.0),
            Layer::QuantDense { weight, .. } => Some(&weight.0),
            Layer::Stored { weight, .. } => Some(weight),
            Layer::Conv2d { .. } | Layer::Flatten => None,
        }
    }

    /// [`Layer::weight`], to detach or edit.
    pub(crate) fn weight_mut(&mut self) -> Option<&mut Weight> {
        match self {
            Layer::Dense { weight, .. } => Some(&mut weight.0),
            Layer::QuantDense { weight, .. } => Some(&mut weight.0),
            Layer::Stored { weight, .. } => Some(weight),
            Layer::Conv2d { .. } | Layer::Flatten => None,
        }
    }

    /// A dense layer's weight matrix with its bias and activation; `None`
    /// for a layer without one.
    pub fn dense_parts(&self) -> Option<(&Weight, &Tensor, Activation)> {
        match self {
            Layer::Dense {
                bias, activation, ..
            }
            | Layer::QuantDense {
                bias, activation, ..
            }
            | Layer::Stored {
                bias, activation, ..
            } => Some((self.weight()?, bias, *activation)),
            Layer::Conv2d { .. } | Layer::Flatten => None,
        }
    }

    /// `(out_features, in_features)` of a dense layer's weight matrix,
    /// wherever the matrix is; `None` for a conv or flatten layer.
    pub fn weight_shape(&self) -> Option<(usize, usize)> {
        self.weight().map(Weight::shape)
    }

    /// Bytes of the layer's weight matrix in its storage form (f32 values,
    /// or i8 levels plus per-row scales); 0 for a layer without one.
    pub fn weight_bytes(&self) -> usize {
        self.weight().map_or(0, Weight::storage_bytes)
    }

    /// Bytes of all the layer's parameters in their storage form: what
    /// [`Layer::weight_bytes`] counts plus the f32 bias, or a conv layer's
    /// f32 kernel and bias.
    pub fn param_bytes(&self) -> usize {
        match self {
            Layer::Conv2d { kernel, bias, .. } => kernel.num_bytes() + bias.num_bytes(),
            Layer::Flatten => 0,
            dense => dense.dense_parts().map_or(0, |(weight, bias, _)| {
                weight.storage_bytes() + bias.num_bytes()
            }),
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Conv2d { kernel, bias, .. } => kernel.len() + bias.len(),
            Layer::Flatten => 0,
            dense => dense.dense_parts().map_or(0, |(weight, bias, _)| {
                let (n, k) = weight.shape();
                n * k + bias.len()
            }),
        }
    }

    /// This layer with any stored weight matrix brought into memory: a
    /// [`Layer::Stored`] becomes the [`Layer::Dense`] or
    /// [`Layer::QuantDense`] it was loaded from, holding the packed form if
    /// the stored weight has one (shared, not copied) or else the values
    /// read back from the pages; every other layer is cloned, sharing its
    /// weight.
    pub fn materialize(&self) -> Result<Layer> {
        Ok(match self {
            Layer::Stored {
                weight,
                bias,
                activation,
            } => {
                let (bias, activation) = (bias.clone(), *activation);
                match weight.precision() {
                    Precision::F32 => Layer::Dense {
                        weight: DenseWeight(weight.in_memory()?),
                        bias,
                        activation,
                    },
                    Precision::Int8 => Layer::QuantDense {
                        weight: QuantWeight(weight.in_memory()?),
                        bias,
                        activation,
                    },
                }
            }
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
                let weight = dense
                    .weight()
                    .ok_or_else(|| Error::InvalidModel("dense weight is not a matrix".into()))?;
                let (out, inf) = weight.shape();
                let in_features = input.num_elements();
                if in_features != inf {
                    return Err(Error::InvalidModel(format!(
                        "{} layer expects {inf} input features, previous layer provides {in_features}",
                        match weight.precision() {
                            Precision::F32 => "dense",
                            Precision::Int8 => "quantized dense",
                        }
                    )));
                }
                Ok(Shape::from([out]))
            }
        }
    }

    /// Forward pass over a batch.
    ///
    /// `input` is `[batch, ...example dims]`; `par` bounds kernel
    /// parallelism (set by the resource coordinator). A dense layer
    /// multiplies from its weight's packed form, packing it on the weight's
    /// first run — for every clone that shares the weight.
    pub fn forward(&self, input: &Tensor, par: &Parallelism) -> Result<Tensor> {
        if let Some((weight, bias, activation)) = self.dense_parts() {
            return weight.multiply(input, bias, activation, par);
        }
        match self {
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
            dense => unreachable!("a {} layer has a weight", dense.kind()),
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
            weight: Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 0.])
                .unwrap()
                .into(),
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
            weight: Tensor::from_vec([1, 1], vec![-1.0]).unwrap().into(),
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
            weight: Tensor::eye(3).into(),
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
