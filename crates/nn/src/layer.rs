//! Model layers.

use crate::error::{Error, Result};
use crate::init;
use rand::rngs::StdRng;
use relserve_tensor::matmul::{self, PackedB};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{conv, ops, quant, Conv2dSpec, QuantizedTensor, Shape, Tensor};

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
/// `[panel][k][nr]` panels, or i8 `[panel][kq][nr][4]` quads. `nr` is the
/// panel width of the kernel dispatched in this process, which makes the
/// form per-process: it is never serialized.
pub(crate) enum PreparedWeights {
    /// Of a [`Layer::Dense`] weight.
    Panels { nr: usize, panels: Vec<f32> },
    /// Of a [`Layer::QuantDense`] weight's i8 levels.
    Quads { nr: usize, quads: Vec<i8> },
}

impl PreparedWeights {
    /// Bytes the packed form holds, beside the raw weights it was built from.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            PreparedWeights::Panels { panels, .. } => std::mem::size_of_val(panels.as_slice()),
            PreparedWeights::Quads { quads, .. } => quads.len(),
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

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense { weight, bias, .. } => weight.len() + bias.len(),
            Layer::QuantDense { weight, bias, .. } => weight.rows() * weight.cols() + bias.len(),
            Layer::Conv2d { kernel, bias, .. } => kernel.len() + bias.len(),
            Layer::Flatten => 0,
        }
    }

    /// Per-example output shape given the per-example input shape.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape> {
        match self {
            Layer::Dense { weight, .. } => {
                let (out, inf) = weight.shape().as_matrix()?;
                let in_features = input.num_elements();
                if in_features != inf {
                    return Err(Error::InvalidModel(format!(
                        "dense layer expects {inf} input features, previous layer provides {in_features}"
                    )));
                }
                Ok(Shape::from([out]))
            }
            Layer::QuantDense { weight, .. } => {
                let in_features = input.num_elements();
                if in_features != weight.cols() {
                    return Err(Error::InvalidModel(format!(
                        "quantized dense layer expects {} input features, previous layer provides {in_features}",
                        weight.cols()
                    )));
                }
                Ok(Shape::from([weight.rows()]))
            }
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
        }
    }

    /// Pack this layer's weights for the dispatched kernels. `None` for a
    /// layer whose multiply has no constant matrix to pack: a convolution
    /// packs its im2col product per call, a flatten multiplies nothing.
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
                quant::pack_quads(weight, nr, &mut quads);
                Some(PreparedWeights::Quads { nr, quads })
            }
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
        match (self, prepared) {
            (
                Layer::Dense {
                    weight,
                    bias,
                    activation,
                },
                Some(PreparedWeights::Panels { nr, panels }),
            ) => {
                let (n, k) = weight.shape().as_matrix()?;
                let packed = PackedB::new(k, n, *nr, panels)?;
                let mut z = matmul::matmul_prepacked(input, &packed, par)?;
                ops::add_bias_inplace(&mut z, bias)?;
                activation.apply_inplace(&mut z)?;
                Ok(z)
            }
            (
                Layer::QuantDense {
                    weight,
                    bias,
                    activation,
                },
                Some(PreparedWeights::Quads { nr, quads }),
            ) => {
                // Genuine int8 execution: each row stripe quantizes its
                // activations, the u8×i8 kernels accumulate in i32, and the
                // epilogue folds scale and bias into the f32 store — no f32
                // weight tensor is ever materialized on this path.
                let bias = Some(bias.data());
                let mut z = quant::qmatmul_prepacked(input, weight, *nr, quads, bias, par)?;
                activation.apply_inplace(&mut z)?;
                Ok(z)
            }
            (
                Layer::Conv2d {
                    kernel,
                    bias,
                    spec,
                    activation,
                },
                None,
            ) => {
                let z = conv::conv2d(input, kernel, bias, spec, par)?;
                let dims = z.shape().dims().to_vec();
                // Activations operate on a matrix view, then restore shape.
                let mut flat = z.reshape([dims[0] * dims[1] * dims[2], dims[3]])?;
                activation.apply_inplace(&mut flat)?;
                Ok(flat.reshape(dims)?)
            }
            (Layer::Flatten, None) => {
                let dims = input.shape().dims();
                let batch = dims[0];
                let rest: usize = dims[1..].iter().product();
                Ok(input.clone().reshape([batch, rest])?)
            }
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
