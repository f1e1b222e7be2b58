//! Accuracy-aware model compression (§4.1).
//!
//! "The storage optimizer may automatically employ compression, such as
//! pruning and quantization, to create multiple versions of the same model
//! with different size, efficiency, and accuracy trade-offs." This module
//! produces those versions: true int8 quantization (dense weights become
//! [`Layer::QuantDense`] with 1-byte levels and per-output-channel scales)
//! and magnitude pruning, each returning the compressed model plus its
//! storage footprint so the SLA-driven version selector in `relserve-core`
//! can choose among them.

use crate::error::Result;
use crate::layer::Layer;
use crate::model::Model;
use crate::weight::{Precision, QuantWeight, Weight};
use relserve_tensor::{quant, QuantizedTensor, Tensor};

/// How a model version was derived from the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionKind {
    /// The uncompressed original.
    None,
    /// Symmetric int8 quantization. Dense layers store genuine i8 levels
    /// with per-output-channel scales and execute on the u8×i8 SIMD
    /// kernels; conv layers (not on the serving ladder's dense hot path)
    /// keep f32 storage with values snapped to the 255-level grid.
    QuantizedInt8,
    /// Magnitude pruning: the given fraction of smallest weights zeroed.
    Pruned {
        /// Fraction of weights removed, in `[0, 1]`.
        fraction: f32,
    },
}

/// One storable version of a model.
#[derive(Debug, Clone)]
pub struct ModelVersion {
    /// The (possibly lossy) model.
    pub model: Model,
    /// How it was compressed.
    pub kind: CompressionKind,
    /// Storage bytes this version needs on disk.
    pub storage_bytes: usize,
}

/// Snap a tensor's values to a symmetric 255-level int8 grid (simulated
/// quantization: values stay f32 but carry only 8 bits of information).
/// Used for conv kernels, which stay off the i8 kernel path.
fn quantize_tensor(t: &Tensor) -> Tensor {
    let max_abs = t.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        return t.clone();
    }
    let scale = max_abs / 127.0;
    let mut out = t.clone();
    for v in out.data_mut() {
        *v = (*v / scale).round().clamp(-127.0, 127.0) * scale;
    }
    out
}

/// Zero exactly `round(n · fraction)` entries of smallest magnitude
/// (capped at `n`; `fraction >= 1.0` therefore zeroes every entry).
///
/// Ties between equal magnitudes break by index, so the kill count is
/// deterministic even when many weights share a magnitude — a plain
/// threshold comparison would either spare or kill *all* duplicates of
/// the boundary value depending on strictness.
fn prune_tensor(mut t: Tensor, fraction: f32) -> Tensor {
    let n = t.len();
    let kill = (((n as f64) * (fraction as f64)).round() as usize).min(n);
    if kill == 0 {
        return t;
    }
    let mut order: Vec<usize> = (0..n).collect();
    let data = t.data();
    order.sort_by(|&a, &b| {
        data[a]
            .abs()
            .partial_cmp(&data[b].abs())
            .expect("no NaN weights")
            .then(a.cmp(&b))
    });
    let data = t.data_mut();
    for &i in &order[..kill] {
        data[i] = 0.0;
    }
    t
}

/// The int8 version of an f32 weight matrix, quantized a row at a time as it
/// is read out of whichever form holds it: each row on its own scale, as
/// [`QuantizedTensor::quantize`] does.
fn quantize_weight(weight: &Weight) -> Result<QuantizedTensor> {
    let (rows, cols) = weight.shape();
    let mut reader = weight.reader()?;
    let (mut levels, mut scales) = (vec![0; rows * cols], Vec::with_capacity(rows));
    let mut row = vec![0.0; cols];
    for r in 0..rows {
        reader.f32_rows(&mut row)?;
        let scale = quant::quantize_row(&row, &mut levels[r * cols..(r + 1) * cols]);
        scales.push(scale.ok_or_else(|| {
            relserve_tensor::Error::Quantize(format!(
                "row {r} contains non-finite values; cannot quantize"
            ))
        })?);
    }
    Ok(QuantizedTensor::from_parts(rows, cols, levels, scales)?)
}

/// Nonzero values (or levels) of a weight matrix, counted a row at a time
/// as it is read.
fn nonzero_weights(weight: &Weight) -> Result<usize> {
    let (rows, cols) = weight.shape();
    let mut reader = weight.reader()?;
    let mut nonzero = 0;
    match weight.precision() {
        Precision::F32 => {
            let mut row = vec![0.0; cols];
            for _ in 0..rows {
                reader.f32_rows(&mut row)?;
                nonzero += row.iter().filter(|v| **v != 0.0).count();
            }
        }
        Precision::Int8 => {
            reader.scales()?;
            let mut row = vec![0; cols];
            for _ in 0..rows {
                reader.i8_rows(&mut row)?;
                nonzero += row.iter().filter(|lv| **lv != 0).count();
            }
        }
    }
    Ok(nonzero)
}

/// `model` with `f` applied to every f32 parameter tensor, stored layers
/// brought into memory. A dense layer's f32 weight matrix is read into a
/// tensor of its own for `f`; int8 levels are frozen, and shared.
fn map_params(model: &Model, f: impl Fn(Tensor) -> Tensor) -> Result<Model> {
    let mut out = model.clone();
    for layer in out.layers_mut() {
        if let Layer::Conv2d { kernel, bias, .. } = layer {
            *kernel = f(kernel.clone());
            *bias = f(bias.clone());
        } else if let Some((weight, bias, activation)) = layer.dense_parts() {
            let bias = f(bias.clone());
            let mapped = match weight.precision() {
                Precision::F32 => Layer::Dense {
                    weight: f(weight.to_tensor()?).into(),
                    bias,
                    activation,
                },
                Precision::Int8 => Layer::QuantDense {
                    weight: QuantWeight(weight.in_memory()?),
                    bias,
                    activation,
                },
            };
            *layer = mapped;
        }
    }
    Ok(out)
}

fn count_nonzero(model: &Model) -> Result<usize> {
    let count = |t: &Tensor| t.data().iter().filter(|v| **v != 0.0).count();
    let mut nonzero = 0;
    for layer in model.layers() {
        nonzero += match layer {
            Layer::Conv2d { kernel, bias, .. } => count(kernel) + count(bias),
            dense => match dense.dense_parts() {
                Some((weight, bias, _)) => nonzero_weights(weight)? + count(bias),
                None => 0,
            },
        };
    }
    Ok(nonzero)
}

/// Int8-quantized version.
///
/// Dense layers become [`Layer::QuantDense`]: genuine 1-byte levels with a
/// per-output-channel f32 scale, executed by the u8×i8 micro-kernels. Conv
/// layers keep f32 storage snapped to the int8 grid (the serving ladder
/// sheds work on the dense hot path; conv quantization would need its own
/// kernel tier) and are accounted at 1 byte per parameter plus one scale,
/// matching what a quantized conv store would occupy. An f32 weight matrix
/// is quantized a row at a time as it is read, out of whichever form holds
/// it; an int8 one is shared, or brought into memory if it is stored.
pub fn quantize_int8(model: &Model) -> Result<ModelVersion> {
    let mut quantized = model.clone().with_name(format!("{}@int8", model.name()));
    let mut storage_bytes = 0usize;
    for layer in quantized.layers_mut() {
        if let Layer::Conv2d { kernel, bias, .. } = layer {
            *kernel = quantize_tensor(kernel);
            storage_bytes += kernel.len() + bias.num_bytes() + 4;
        } else if let Some((weight, bias, activation)) = layer.dense_parts() {
            let weight = match weight.precision() {
                Precision::F32 => QuantWeight::from(quantize_weight(weight)?),
                Precision::Int8 => QuantWeight(weight.in_memory()?),
            };
            let mapped = Layer::QuantDense {
                weight,
                bias: bias.clone(),
                activation,
            };
            *layer = mapped;
            storage_bytes += layer.param_bytes();
        }
    }
    Ok(ModelVersion {
        model: quantized,
        kind: CompressionKind::QuantizedInt8,
        storage_bytes,
    })
}

/// Magnitude-pruned version: sparse storage as (index, value) pairs.
fn prune_magnitude(model: &Model, fraction: f32) -> Result<ModelVersion> {
    let fraction = fraction.clamp(0.0, 1.0);
    let pruned = map_params(model, |t| prune_tensor(t, fraction))?.with_name(format!(
        "{}@prune{:.0}",
        model.name(),
        fraction * 100.0
    ));
    let nonzero = count_nonzero(&pruned)?;
    let storage_bytes = nonzero * 8; // 4 B index + 4 B value
    Ok(ModelVersion {
        model: pruned,
        kind: CompressionKind::Pruned { fraction },
        storage_bytes,
    })
}

/// The default version ladder the storage optimizer materializes: original,
/// int8, and 50 % / 80 % pruned.
pub fn default_versions(model: &Model) -> Result<Vec<ModelVersion>> {
    Ok(vec![
        ModelVersion {
            model: model.clone(),
            kind: CompressionKind::None,
            storage_bytes: model.param_bytes(),
        },
        quantize_int8(model)?,
        prune_magnitude(model, 0.5)?,
        prune_magnitude(model, 0.8)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layer::Activation;
    use relserve_tensor::parallel::Parallelism;
    use relserve_tensor::Isa;

    fn model() -> Model {
        let mut rng = seeded_rng(30);
        Model::new("m", [16])
            .push(Layer::dense(16, 32, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(32, 4, Activation::Softmax, &mut rng))
            .unwrap()
    }

    /// Wider layers so per-row scale overhead (4 B per output channel) is
    /// negligible next to the 1 B/param levels.
    fn wide_model() -> Model {
        let mut rng = seeded_rng(31);
        Model::new("w", [128])
            .push(Layer::dense(128, 128, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(128, 16, Activation::Softmax, &mut rng))
            .unwrap()
    }

    /// `model.forward` with every `QuantDense` multiply forced onto `isa`'s
    /// int8 kernels (the activations stay on the process's tier).
    fn forward_on_int8_tier(model: &Model, batch: &Tensor, isa: Isa) -> Tensor {
        let mut x = batch.clone();
        for layer in model.layers() {
            let Layer::QuantDense {
                weight,
                bias,
                activation,
            } = layer
            else {
                unreachable!("a zoo model at int8 is all QuantDense layers")
            };
            let z = quant::qmatmul_bt_with_isa(&x, weight, Some(bias.data()), isa).unwrap();
            x = activation.apply(&z).unwrap();
        }
        x
    }

    /// An `@int8` zoo model answers with the same bits whichever int8 tier
    /// runs it: the process's (the tile unit where the host has one), the
    /// VNNI register tile, and the scalar reference. The unoptimized test
    /// build needs tens of seconds for Encoder-FC's 1.3 G multiply-adds at
    /// 512 rows on the scalar reference, so that one cell is left to the
    /// accumulator proptests, which pin every tier to scalar.
    #[test]
    fn int8_zoo_forward_is_bit_identical_on_every_int8_tier() {
        let mut rng = seeded_rng(25);
        let models = [
            crate::zoo::encoder_fc(&mut rng).unwrap(),
            crate::zoo::fraud_fc_256(&mut rng).unwrap(),
        ];
        let serial = Parallelism::serial();
        for model in models {
            let q = quantize_int8(&model).unwrap().model;
            let k = model.input_shape().dims()[0];
            for rows in [1, 37, 512] {
                let x =
                    Tensor::from_fn([rows, k], |i| ((i * 37 + rows) as f32 * 0.7311).sin() * 2.0);
                let got = q.forward(&x, &serial).unwrap();
                let scalar_affordable = rows * model.num_params() < 1 << 28;
                for isa in [Isa::Avx512Vnni, Isa::Scalar]
                    .into_iter()
                    .filter(|i| i.available() && (*i != Isa::Scalar || scalar_affordable))
                {
                    let want = forward_on_int8_tier(&q, &x, isa);
                    assert!(
                        got.data() == want.data(),
                        "{} at {rows} rows vs {isa}",
                        q.name()
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_shrinks_storage_4x() {
        let m = wide_model();
        let q = quantize_int8(&m).unwrap();
        assert!(q.storage_bytes < m.param_bytes() / 3);
        assert_eq!(q.model.num_params(), m.num_params());
        // Every dense layer became a genuinely quantized one.
        for layer in q.model.layers() {
            assert_eq!(layer.kind(), "quant_dense");
        }
        // Accounting matches the actual i8 representation exactly.
        let expected: usize = q
            .model
            .layers()
            .iter()
            .map(|l| match l {
                Layer::QuantDense { weight, bias, .. } => weight.storage_bytes() + bias.num_bytes(),
                _ => 0,
            })
            .sum();
        assert_eq!(q.storage_bytes, expected);
    }

    #[test]
    fn quantization_error_is_bounded() {
        let m = model();
        let q = quantize_int8(&m).unwrap();
        for (orig, quant) in m.layers().iter().zip(q.model.layers()) {
            if let (Layer::Dense { weight: w0, .. }, Layer::QuantDense { weight: w1, .. }) =
                (orig, quant)
            {
                // Per-output-channel scales: each row's error is at most
                // half that row's quantization step.
                let deq = w1.dequantize();
                for r in 0..w1.rows() {
                    let row0 = w0.row(r).unwrap();
                    let row1 = deq.row(r).unwrap();
                    let max_abs = row0.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                    let step = max_abs / 127.0;
                    let err = row0
                        .iter()
                        .zip(row1)
                        .fold(0.0f32, |a, (x, y)| a.max((x - y).abs()));
                    assert!(err <= step / 2.0 + 1e-6, "row {r}: err {err} > step {step}");
                }
            }
        }
    }

    #[test]
    fn quantized_model_stays_close_on_inference() {
        let m = model();
        let q = quantize_int8(&m).unwrap();
        let x = Tensor::from_fn([8, 16], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let y0 = m
            .forward(&x, &relserve_tensor::parallel::Parallelism::serial())
            .unwrap();
        let y1 = q
            .model
            .forward(&x, &relserve_tensor::parallel::Parallelism::serial())
            .unwrap();
        assert!(y0.max_abs_diff(&y1).unwrap() < 0.05);
    }

    #[test]
    fn quantizing_twice_is_stable() {
        let m = model();
        let q1 = quantize_int8(&m).unwrap();
        let q2 = quantize_int8(&q1.model).unwrap();
        assert_eq!(q1.storage_bytes, q2.storage_bytes);
        assert_eq!(q1.model.layers(), q2.model.layers());
    }

    #[test]
    fn pruning_zeroes_requested_fraction() {
        let m = model();
        let p = prune_magnitude(&m, 0.5).unwrap();
        let zeros = p.model.num_params() - count_nonzero(&p.model).unwrap();
        let frac = zeros as f32 / p.model.num_params() as f32;
        assert!(frac > 0.4 && frac < 0.6, "pruned fraction = {frac}");
        assert!(p.storage_bytes < m.param_bytes());
    }

    #[test]
    fn prune_kill_count_is_exact_with_duplicate_magnitudes() {
        // 8 entries, all the same magnitude: a threshold comparison would
        // zero either none or all of them; the exact-count rule zeroes
        // round(8 · f).
        let t = Tensor::from_vec([2, 4], vec![1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0]).unwrap();
        for (fraction, expect_zeros) in [(0.25, 2usize), (0.5, 4), (0.75, 6)] {
            let p = prune_tensor(t.clone(), fraction);
            let zeros = p.data().iter().filter(|v| **v == 0.0).count();
            assert_eq!(zeros, expect_zeros, "fraction {fraction}");
        }
        // Mixed magnitudes: exactly the smallest half dies.
        let t = Tensor::from_vec([1, 4], vec![0.1, -4.0, 0.2, 3.0]).unwrap();
        let p = prune_tensor(t, 0.5);
        assert_eq!(p.data(), &[0.0, -4.0, 0.0, 3.0]);
    }

    #[test]
    fn prune_fraction_one_zeroes_everything() {
        let t = Tensor::from_vec([1, 5], vec![5.0, -3.0, 9.0, 1.0, -7.0]).unwrap();
        let p = prune_tensor(t, 1.0);
        assert!(p.data().iter().all(|v| *v == 0.0), "max entry survived");
        // Over-unity requests clamp rather than panic.
        let p = prune_magnitude(&model(), 1.5).unwrap();
        assert_eq!(count_nonzero(&p.model).unwrap(), 0);
        assert_eq!(p.storage_bytes, 0);
    }

    #[test]
    fn version_ladder_is_monotone_in_size() {
        let m = model();
        let versions = default_versions(&m).unwrap();
        assert_eq!(versions.len(), 4);
        assert_eq!(versions[0].kind, CompressionKind::None);
        // 80 % pruned must be smaller than 50 % pruned.
        assert!(versions[3].storage_bytes < versions[2].storage_bytes);
        // int8 must be smaller than the original.
        assert!(versions[1].storage_bytes < versions[0].storage_bytes);
    }

    #[test]
    fn zero_tensor_quantizes_to_itself() {
        let t = Tensor::zeros([4, 4]);
        assert_eq!(quantize_tensor(&t), t);
    }
}
