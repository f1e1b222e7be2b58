//! Prepared weights change *when* a dense layer's weight matrix is packed —
//! once per model instead of once per call — and never a bit of what the
//! layer returns. The oracle here is the pack-per-call route spelled out
//! through the public per-call entry points, with the allocating epilogue.

use proptest::prelude::*;
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{Activation, Layer, Model};
use relserve_tensor::matmul::matmul_bt_parallel;
use relserve_tensor::parallel::{Parallelism, SerialRunner};
use relserve_tensor::quant::qmatmul_bt_parallel;
use relserve_tensor::{ops, Tensor};
use std::sync::Arc;

/// A grant of `threads` whose stripes run inline: the partitioning is the
/// real one, the interleaving is not the point here.
fn grant(threads: usize) -> Parallelism {
    Parallelism::new(Arc::new(SerialRunner), threads)
}

/// `model.forward` as it ran before weights were prepared: every dense
/// layer packs its weights inside the call, bias and activation each
/// allocate their output.
fn per_call_forward(model: &Model, batch: &Tensor, par: &Parallelism) -> Tensor {
    let mut x = batch.clone();
    for layer in model.layers() {
        x = match layer {
            Layer::Dense {
                weight,
                bias,
                activation,
            } => {
                let z = matmul_bt_parallel(&x, weight, par).unwrap();
                activation.apply(&ops::add_bias(&z, bias).unwrap()).unwrap()
            }
            Layer::QuantDense {
                weight,
                bias,
                activation,
            } => {
                let z = qmatmul_bt_parallel(&x, weight, Some(bias.data()), par).unwrap();
                activation.apply(&z).unwrap()
            }
            other => other.forward(&x, par).unwrap(),
        };
    }
    x
}

const ACTIVATIONS: [Activation; 5] = [
    Activation::None,
    Activation::Relu,
    Activation::Softmax,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// `k → hidden → n` with weights and biases that round under every product.
fn ffnn(k: usize, hidden: usize, n: usize, head: Activation, seed: u64) -> Model {
    let mut rng = seeded_rng(seed);
    let mut model = Model::new("prepared-prop", [k])
        .push(Layer::dense(k, hidden, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::dense(hidden, n, head, &mut rng))
        .unwrap();
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        if let Layer::Dense { bias, .. } = layer {
            for (j, b) in bias.data_mut().iter_mut().enumerate() {
                *b = ((i * 31 + j) as f32 * 0.377).sin() * 0.5;
            }
        }
    }
    model
}

fn inputs(m: usize, k: usize, seed: u64) -> Tensor {
    Tensor::from_fn([m, k], |i| {
        ((i as u64 * 37 + seed) as f32 * 0.7311).sin() * 3.0
    })
}

/// Both twins of `model`, each against its per-call oracle, under every
/// grant, on a first (packing) and a second (packed) forward.
fn assert_prepared_equals_per_call(model: &Model, x: &Tensor, what: &str) {
    let int8 = quantize_int8(model).unwrap().model;
    for (twin, model) in [("f32", model), ("int8", &int8)] {
        for threads in [1, 2, 3, 8] {
            let par = grant(threads);
            let oracle = per_call_forward(model, x, &par);
            for pass in ["packing", "packed"] {
                let got = model.forward(x, &par).unwrap();
                assert!(
                    got.data() == oracle.data(),
                    "{what} {twin} threads={threads} {pass} forward differs from per-call"
                );
            }
        }
        assert_eq!(model.prepared_weights().0, model.layers().len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ragged shapes on both sides of the small-product shortcut, `k % 4`
    /// and `n % nr` tails included.
    #[test]
    fn prepared_forward_is_per_call_forward_bit_for_bit(
        m in 1usize..48,
        k in 1usize..90,
        hidden in 1usize..70,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let model = ffnn(k, hidden, n, ACTIVATIONS[seed as usize % ACTIVATIONS.len()], seed);
        assert_prepared_equals_per_call(&model, &inputs(m, k, seed), &format!("{m}x{k}x{hidden}x{n}"));
    }
}

#[test]
fn prepared_forward_is_per_call_forward_when_the_grant_stripes() {
    // Enough work per layer for 2, 3 and (first shape) 4 row stripes, with
    // ragged tiles on every edge.
    for (m, k, hidden, n) in [(130, 257, 129, 67), (70, 300, 105, 301)] {
        let model = ffnn(k, hidden, n, Activation::Softmax, 7);
        assert_prepared_equals_per_call(
            &model,
            &inputs(m, k, 11),
            &format!("{m}x{k}x{hidden}x{n}"),
        );
    }
}

#[test]
fn prepared_model_forward_is_the_chain_of_lone_layer_forwards() {
    // Every layer kind: a lone `Layer::forward` packs for its call, the
    // model packs once; conv and flatten have nothing to pack either way.
    let mut rng = seeded_rng(5);
    let model = Model::new("prepared-cnn", [6, 6, 1])
        .push(Layer::conv2d(1, 4, 3, 3, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::Flatten)
        .unwrap()
        .push(Layer::dense(4 * 4 * 4, 9, Activation::Tanh, &mut rng))
        .unwrap();
    let x = Tensor::from_fn([5, 6, 6, 1], |i| (i as f32 * 0.4177).sin());
    for threads in [1, 3] {
        let par = grant(threads);
        let mut chained = x.clone();
        for layer in model.layers() {
            chained = layer.forward(&chained, &par).unwrap();
        }
        assert!(model.forward(&x, &par).unwrap().data() == chained.data());
    }
    assert_eq!(model.prepared_weights().0, 1, "only the dense layer packs");
}
