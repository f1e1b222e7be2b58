//! SGD training with backpropagation — the §6.1 extension.
//!
//! The paper notes that for the UDF-centric architecture, training support
//! "relies on the implementation of the UDF that should be able to integrate
//! the functionality of the corresponding backward computation and the
//! SGD-based optimizers". This module is that implementation: a forward pass
//! that caches per-layer intermediates, a backward pass for dense and conv
//! layers (conv via im2col/col2im so its backward is two matmuls plus a
//! scatter), and in-place SGD updates.
//!
//! The §7.2.2 caching experiment depends on it: cache-induced accuracy drops
//! are only observable on a genuinely trained model.

use crate::error::{Error, Result};
use crate::layer::{Activation, Layer};
use crate::model::Model;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{conv, matmul, ops, Tensor};

/// Per-layer forward cache used by the backward pass.
enum Cache {
    Dense {
        /// Layer input `[batch, in]`.
        input: Tensor,
        /// Pre-activation `[batch, out]`.
        z: Tensor,
        /// Post-activation (needed for sigmoid/tanh gradients).
        a: Tensor,
    },
    Conv {
        /// im2col patch matrix `[batch*oh*ow, patch]`.
        cols: Tensor,
        /// Pre-activation matrix `[batch*oh*ow, oc]`.
        z: Tensor,
        /// Post-activation matrix.
        a: Tensor,
        /// Input spatial dims `(n, h, w)`.
        input_dims: (usize, usize, usize),
    },
    Flatten {
        /// Shape before flattening.
        input_dims: Vec<usize>,
    },
}

/// Gradient of the activation at cached `z`/`a`, chained with upstream `da`.
fn activation_backward(act: Activation, z: &Tensor, a: &Tensor, da: &Tensor) -> Result<Tensor> {
    match act {
        Activation::None => Ok(da.clone()),
        Activation::Relu => Ok(ops::mul(da, &ops::relu_grad_mask(z))?),
        Activation::Sigmoid => {
            let g = ops::zip(a, a, |y, _| y * (1.0 - y))?;
            Ok(ops::mul(da, &g)?)
        }
        Activation::Tanh => {
            let g = ops::map(a, |y| 1.0 - y * y);
            Ok(ops::mul(da, &g)?)
        }
        Activation::Softmax => Err(Error::Training(
            "softmax backward is fused with cross-entropy; only the final layer may use softmax"
                .into(),
        )),
    }
}

/// Mini-batch SGD trainer for classification models.
///
/// The model's final layer must use [`Activation::Softmax`]; the loss is
/// cross-entropy, whose gradient fuses with softmax into `p - onehot`.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Learning rate.
    pub learning_rate: f32,
    /// Kernel grant per matmul (coordinate with the resource manager).
    pub par: Parallelism,
}

impl Trainer {
    /// A trainer with the given learning rate, single-threaded kernels.
    pub fn new(learning_rate: f32) -> Self {
        Trainer {
            learning_rate,
            par: Parallelism::serial(),
        }
    }

    /// Set the kernel parallelism grant.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    fn forward_cached(&self, model: &Model, batch: &Tensor) -> Result<(Tensor, Vec<Cache>)> {
        let batch_size = model.check_input(batch)?;
        let mut full_dims = vec![batch_size];
        full_dims.extend_from_slice(model.input_shape().dims());
        let mut x = batch.clone().reshape(full_dims)?;
        let mut caches = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            match layer {
                Layer::Dense {
                    weight,
                    bias,
                    activation,
                } => {
                    // A weight the last step edited holds raw values until it
                    // next packs: multiply by them as they are, rather than
                    // pack a matrix each step only for the next step to edit.
                    let z = match weight.0.raw_f32() {
                        Some(w) => {
                            ops::add_bias(&matmul::matmul_bt_parallel(&x, &w, &self.par)?, bias)?
                        }
                        None => weight.0.multiply(&x, bias, Activation::None, &self.par)?,
                    };
                    let a = activation.apply(&z)?;
                    caches.push(Cache::Dense {
                        input: x,
                        z: z.clone(),
                        a: a.clone(),
                    });
                    x = a;
                }
                Layer::Conv2d {
                    kernel,
                    bias,
                    spec,
                    activation,
                } => {
                    let dims = x.shape().dims().to_vec();
                    let (n, h, w) = (dims[0], dims[1], dims[2]);
                    let cols = conv::im2col(&x, spec)?;
                    let kflat = kernel
                        .clone()
                        .reshape([spec.out_channels, spec.patch_len()])?;
                    let z = ops::add_bias(
                        &matmul::matmul_bt_parallel(&cols, &kflat, &self.par)?,
                        bias,
                    )?;
                    let a = activation.apply(&z)?;
                    let (oh, ow) = spec.output_dims(h, w)?;
                    caches.push(Cache::Conv {
                        cols,
                        z,
                        a: a.clone(),
                        input_dims: (n, h, w),
                    });
                    x = a.reshape([n, oh, ow, spec.out_channels])?;
                }
                Layer::QuantDense { .. } => {
                    return Err(Error::Training(
                        "quantized models are frozen: int8 levels carry no gradient; \
                         train the f32 original and re-quantize"
                            .into(),
                    ));
                }
                Layer::Stored { .. } => {
                    return Err(Error::Training(
                        "a stored weight is not in memory to update: train \
                         `Model::materialize` of the model"
                            .into(),
                    ));
                }
                Layer::Flatten => {
                    let dims = x.shape().dims().to_vec();
                    let batch = dims[0];
                    let rest: usize = dims[1..].iter().product();
                    caches.push(Cache::Flatten { input_dims: dims });
                    x = x.reshape([batch, rest])?;
                }
            }
        }
        Ok((x, caches))
    }

    /// One SGD step on a mini-batch; returns the batch's mean cross-entropy.
    fn train_batch(&self, model: &mut Model, batch: &Tensor, labels: &[usize]) -> Result<f32> {
        let Some(Layer::Dense {
            activation: Activation::Softmax,
            ..
        }) = model.layers().last()
        else {
            return Err(Error::Training(
                "trainer requires a final dense layer with softmax activation".into(),
            ));
        };
        let (probs, caches) = self.forward_cached(model, batch)?;
        let (batch_size, classes) = probs.shape().as_matrix()?;
        if labels.len() != batch_size {
            return Err(Error::Training(format!(
                "{} labels for a batch of {batch_size}",
                labels.len()
            )));
        }
        // Loss and the fused softmax+CE gradient: dz = (p - onehot) / batch.
        let mut loss = 0.0f32;
        let mut dz = probs.clone();
        {
            let data = dz.data_mut();
            for (r, &label) in labels.iter().enumerate() {
                if label >= classes {
                    return Err(Error::Training(format!(
                        "label {label} out of range for {classes} classes"
                    )));
                }
                let p = data[r * classes + label].max(1e-12);
                loss -= p.ln();
                data[r * classes + label] -= 1.0;
            }
            for v in data.iter_mut() {
                *v /= batch_size as f32;
            }
        }
        loss /= batch_size as f32;
        self.backward(model, caches, dz)?;
        Ok(loss)
    }

    /// Backward pass + parameter update. `grad` arrives as dL/dz of the final
    /// layer (softmax fused), and as dL/da for every earlier layer.
    fn backward(&self, model: &mut Model, caches: Vec<Cache>, final_dz: Tensor) -> Result<()> {
        let lr = self.learning_rate;
        let num_layers = model.layers().len();
        let mut upstream = final_dz;
        for (rev_idx, cache) in caches.into_iter().rev().enumerate() {
            let idx = num_layers - 1 - rev_idx;
            let is_final = rev_idx == 0;
            let layer = &mut model.layers_mut()[idx];
            match (layer, cache) {
                (
                    Layer::Dense {
                        weight,
                        bias,
                        activation,
                    },
                    Cache::Dense { input, z, a },
                ) => {
                    let dz = if is_final {
                        upstream // already dL/dz (softmax+CE fused)
                    } else {
                        activation_backward(*activation, &z, &a, &upstream)?
                    };
                    // dW[out,in] = dzᵀ[out,batch] × input[batch,in]
                    let dw =
                        matmul::matmul_parallel(&dz.transpose()?, &input, &Parallelism::serial())?;
                    let db = ops::col_sums(&dz)?;
                    // The layer's own raw values (an edit: see `layers_mut`).
                    let weight: &mut Tensor = weight;
                    // dx[batch,in] = dz[batch,out] × W[out,in]
                    upstream = matmul::matmul_parallel(&dz, weight, &Parallelism::serial())?;
                    ops::axpy(weight, &dw, -lr)?;
                    ops::axpy(bias, &db, -lr)?;
                }
                (
                    Layer::Conv2d {
                        kernel,
                        bias,
                        spec,
                        activation,
                    },
                    Cache::Conv {
                        cols,
                        z,
                        a,
                        input_dims,
                    },
                ) => {
                    let (n, h, w) = input_dims;
                    let (oh, ow) = spec.output_dims(h, w)?;
                    // Upstream is spatial [n, oh, ow, oc] (or already matrix
                    // for a final conv, which the trainer disallows).
                    let da = upstream.reshape([n * oh * ow, spec.out_channels])?;
                    let dz = activation_backward(*activation, &z, &a, &da)?;
                    let kflat = kernel
                        .clone()
                        .reshape([spec.out_channels, spec.patch_len()])?;
                    // dK[oc,patch] = dzᵀ[oc,rows] × cols[rows,patch]
                    let dk =
                        matmul::matmul_parallel(&dz.transpose()?, &cols, &Parallelism::serial())?;
                    let db = ops::col_sums(&dz)?;
                    // dcols[rows,patch] = dz[rows,oc] × Kflat[oc,patch]
                    let dcols = matmul::matmul_parallel(&dz, &kflat, &Parallelism::serial())?;
                    upstream = conv::col2im(&dcols, spec, n, h, w)?;
                    let dk_shaped =
                        dk.reshape([spec.out_channels, spec.kh, spec.kw, spec.in_channels])?;
                    ops::axpy(kernel, &dk_shaped, -lr)?;
                    ops::axpy(bias, &db, -lr)?;
                }
                (Layer::Flatten, Cache::Flatten { input_dims }) => {
                    upstream = upstream.reshape(input_dims)?;
                }
                _ => {
                    return Err(Error::Training(
                        "forward cache out of sync with layer stack".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// One pass over the dataset in mini-batches; returns mean loss.
    pub fn train_epoch(
        &self,
        model: &mut Model,
        data: &Tensor,
        labels: &[usize],
        batch_size: usize,
    ) -> Result<f32> {
        let (n, _width) = data.shape().as_matrix()?;
        if labels.len() != n {
            return Err(Error::Training(format!(
                "{} labels for {n} examples",
                labels.len()
            )));
        }
        if batch_size == 0 {
            return Err(Error::Training("batch_size must be positive".into()));
        }
        let width = data.shape().num_elements() / n;
        let flat = data.clone().reshape([n, width])?;
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for start in (0..n).step_by(batch_size) {
            let end = (start + batch_size).min(n);
            let xb = flat.slice2(start, end, 0, width)?;
            total += self.train_batch(model, &xb, &labels[start..end])?;
            batches += 1;
        }
        Ok(total / batches.max(1) as f32)
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(
        model: &Model,
        data: &Tensor,
        labels: &[usize],
        par: &Parallelism,
    ) -> Result<f32> {
        let preds = model.predict(data, par)?;
        if preds.len() != labels.len() {
            return Err(Error::Training("prediction/label length mismatch".into()));
        }
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f32 / labels.len().max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use rand::Rng;

    /// Two Gaussian blobs in `dim` dimensions, linearly separable.
    fn blobs(n: usize, dim: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { -1.0f32 } else { 1.0 };
            for _ in 0..dim {
                data.push(center + rng.gen_range(-0.5f32..0.5));
            }
            labels.push(label);
        }
        (Tensor::from_vec([n, dim], data).unwrap(), labels)
    }

    #[test]
    fn ffnn_learns_separable_blobs() {
        let mut rng = seeded_rng(100);
        let mut model = Model::new("blob-ffnn", [8])
            .push(Layer::dense(8, 16, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(16, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let (x, y) = blobs(200, 8, 1);
        let trainer = Trainer::new(0.1);
        let first = trainer.train_epoch(&mut model, &x, &y, 32).unwrap();
        let mut last = first;
        for _ in 0..20 {
            last = trainer.train_epoch(&mut model, &x, &y, 32).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} → {last}");
        let acc = Trainer::evaluate(&model, &x, &y, &Parallelism::serial()).unwrap();
        assert!(acc > 0.95, "accuracy = {acc}");
    }

    #[test]
    fn cnn_learns_spatial_patterns() {
        // Class 0: bright top half; class 1: bright bottom half.
        let mut rng = seeded_rng(101);
        let n = 120;
        let (h, w) = (6, 6);
        let mut data = Vec::with_capacity(n * h * w);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            for y in 0..h {
                for _x in 0..w {
                    let bright = (label == 0) == (y < h / 2);
                    data.push(if bright { 1.0 } else { 0.0 } + rng.gen_range(-0.2f32..0.2));
                }
            }
            labels.push(label);
        }
        let x = Tensor::from_vec([n, h, w, 1], data).unwrap();
        let mut model = Model::new("tiny-cnn", [h, w, 1])
            .push(Layer::conv2d(1, 4, 3, 3, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::Flatten)
            .unwrap()
            .push(Layer::dense(4 * 4 * 4, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let trainer = Trainer::new(0.05);
        let flat = x.clone().reshape([n, h * w]).unwrap();
        for _ in 0..25 {
            trainer.train_epoch(&mut model, &flat, &labels, 24).unwrap();
        }
        let acc = Trainer::evaluate(&model, &flat, &labels, &Parallelism::serial()).unwrap();
        assert!(acc > 0.9, "accuracy = {acc}");
    }

    #[test]
    fn trainer_requires_softmax_head() {
        let mut rng = seeded_rng(102);
        let mut model = Model::new("no-softmax", [4])
            .push(Layer::dense(4, 2, Activation::None, &mut rng))
            .unwrap();
        let x = Tensor::zeros([2, 4]);
        assert!(matches!(
            Trainer::new(0.1).train_batch(&mut model, &x, &[0, 1]),
            Err(Error::Training(_))
        ));
    }

    #[test]
    fn label_validation() {
        let mut rng = seeded_rng(103);
        let mut model = Model::new("m", [4])
            .push(Layer::dense(4, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let x = Tensor::zeros([2, 4]);
        // Wrong label count.
        assert!(Trainer::new(0.1).train_batch(&mut model, &x, &[0]).is_err());
        // Out-of-range class.
        assert!(Trainer::new(0.1)
            .train_batch(&mut model, &x, &[0, 5])
            .is_err());
    }

    #[test]
    fn numerical_gradient_check_dense() {
        // Compare the analytic weight gradient against finite differences on
        // a tiny deterministic network.
        let mut rng = seeded_rng(104);
        let model = Model::new("gc", [3])
            .push(Layer::dense(3, 4, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(4, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let x = Tensor::from_vec([2, 3], vec![0.5, -0.2, 0.8, -0.1, 0.4, 0.9]).unwrap();
        let labels = vec![0usize, 1];

        let loss_of = |m: &Model| -> f32 {
            let probs = m.forward(&x, &Parallelism::serial()).unwrap();
            let mut loss = 0.0;
            for (r, &l) in labels.iter().enumerate() {
                loss -= probs.at2(r, l).unwrap().max(1e-12).ln();
            }
            loss / labels.len() as f32
        };

        // Analytic: run one SGD step with lr and recover grad from the delta.
        let lr = 1e-3f32;
        let mut trained = model.clone();
        Trainer::new(lr)
            .train_batch(&mut trained, &x, &labels)
            .unwrap();
        let (w_before, w_after) = match (&model.layers()[0], &trained.layers()[0]) {
            (Layer::Dense { weight: a, .. }, Layer::Dense { weight: b, .. }) => (a, b),
            _ => unreachable!(),
        };
        // grad ≈ (before - after) / lr
        let eps = 1e-3f32;
        for flat in [0usize, 5, 11] {
            let analytic = (w_before.data()[flat] - w_after.data()[flat]) / lr;
            let mut plus = model.clone();
            if let Layer::Dense { weight, .. } = &mut plus.layers_mut()[0] {
                weight.data_mut()[flat] += eps;
            }
            let mut minus = model.clone();
            if let Layer::Dense { weight, .. } = &mut minus.layers_mut()[0] {
                weight.data_mut()[flat] -= eps;
            }
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 + 0.1 * numeric.abs(),
                "flat {flat}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn epoch_batch_validation() {
        let mut rng = seeded_rng(105);
        let mut model = Model::new("m", [2])
            .push(Layer::dense(2, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let x = Tensor::zeros([4, 2]);
        assert!(Trainer::new(0.1)
            .train_epoch(&mut model, &x, &[0, 1, 0], 2)
            .is_err());
        assert!(Trainer::new(0.1)
            .train_epoch(&mut model, &x, &[0, 1, 0, 1], 0)
            .is_err());
    }
}
