//! Prepared weights through the session: every architecture that runs a
//! layer dense multiplies from weights packed once per model, returns what
//! the pack-per-call route returns bit for bit, and a layer that only ever
//! runs relation-centric is never packed.

use proptest::prelude::*;
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{Activation, Layer, Model};
use relserve_runtime::{FaultConfig, FaultInjector, RuntimeProfile, TransferProfile};
use relserve_tensor::matmul::matmul_bt_parallel;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::qmatmul_bt_parallel;
use relserve_tensor::{ops, Tensor};

/// `model.forward` by the pack-per-call entry points and the allocating
/// epilogue, on one thread: striping never changes a bit, so this is the
/// oracle for any grant.
fn per_call_forward(model: &Model, batch: &Tensor) -> Tensor {
    let par = Parallelism::serial();
    let mut x = batch.clone();
    for layer in model.layers() {
        x = match layer {
            Layer::Dense {
                weight,
                bias,
                activation,
            } => {
                let z = matmul_bt_parallel(&x, weight, &par).unwrap();
                activation.apply(&ops::add_bias(&z, bias).unwrap()).unwrap()
            }
            Layer::QuantDense {
                weight,
                bias,
                activation,
            } => {
                let z = qmatmul_bt_parallel(&x, weight, Some(bias.data()), &par).unwrap();
                activation.apply(&z).unwrap()
            }
            other => panic!("dense stacks only, found {}", other.kind()),
        };
    }
    x
}

fn ffnn(k: usize, hidden: usize, n: usize, seed: u64) -> Model {
    let mut rng = seeded_rng(seed);
    Model::new("prepared-core", [k])
        .push(Layer::dense(k, hidden, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::dense(hidden, n, Activation::Softmax, &mut rng))
        .unwrap()
}

fn inputs(m: usize, k: usize, seed: u64) -> Tensor {
    Tensor::from_fn([m, k], |i| {
        ((i as u64 * 37 + seed) as f32 * 0.7311).sin() * 3.0
    })
}

/// A session of `cores` cores with nothing injected and nothing simulated,
/// whose §7.1 threshold is `threshold` bytes.
fn session(cores: usize, threshold: usize) -> InferenceSession {
    let config = SessionConfig::builder()
        .buffer_pool_bytes(4 << 20)
        .block_size(16)
        .cores(cores)
        .memory_threshold_bytes(threshold)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap();
    InferenceSession::open(config)
        .unwrap()
        .with_fault_injector(FaultInjector::new(FaultConfig::quiet(0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_dense_architecture_answers_what_pack_per_call_answers(
        m in 1usize..40,
        k in 1usize..60,
        hidden in 1usize..50,
        n in 2usize..12,
        micro in 1usize..16,
        seed in 0u64..1000,
    ) {
        let f32_model = ffnn(k, hidden, n, seed);
        let int8_model = quantize_int8(&f32_model).unwrap().model;
        let x = inputs(m, k, seed);
        for cores in [1, 2, 3, 8] {
            let session = session(cores, 1 << 30);
            for model in [&f32_model, &int8_model] {
                session.load_model(model.clone()).unwrap();
                let whole = per_call_forward(model, &x);
                // A pipeline multiplies micro-batch by micro-batch, and a
                // micro-batch may fall under the small-product shortcut the
                // whole batch is over: its oracle is cut the same way.
                let cuts = (0..m).step_by(micro).map(|r| (r, (r + micro).min(m)));
                let piecewise = cuts
                    .map(|(r0, r1)| per_call_forward(model, &x.slice2(r0, r1, 0, k).unwrap()))
                    .reduce(|a, b| a.vconcat(&b).unwrap())
                    .unwrap();
                for (architecture, oracle) in [
                    (Architecture::UdfCentric, &whole),
                    (Architecture::Adaptive, &whole),
                    (Architecture::DlCentric(RuntimeProfile::tensorflow_like()), &whole),
                    (Architecture::Pipelined { micro_batch: micro }, &piecewise),
                ] {
                    for pass in ["packing", "packed"] {
                        let outcome = session
                            .infer_batch(model.name(), &x, architecture.clone())
                            .unwrap();
                        prop_assert!(outcome.degraded_to.is_none());
                        let got = outcome.output.into_dense().unwrap();
                        prop_assert!(
                            got.data() == oracle.data(),
                            "{} under {architecture} on {cores} cores, {pass} query",
                            model.name()
                        );
                    }
                }
            }
            // Two models of two dense layers, however many queries ran.
            prop_assert_eq!(session.stats().prepared_weight_builds, 4);
        }
    }
}

#[test]
fn prepared_builds_stay_at_the_number_of_dense_executed_layers() {
    let model = ffnn(28, 64, 2, 3);
    let x = inputs(16, 28, 3);
    let session = session(2, 1 << 30);
    session.load_model(model.clone()).unwrap();
    assert_eq!(session.stats().prepared_weight_builds, 0);
    assert_eq!(session.stats().prepared_weight_bytes, 0);
    let first = session
        .infer_batch(model.name(), &x, Architecture::UdfCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    let after_first = session.stats();
    assert_eq!(after_first.prepared_weight_builds, 2);
    // Panels hold every weight once, padded up to whole panels.
    let weights = (28 * 64 + 64 * 2) * 4;
    assert!(after_first.prepared_weight_bytes >= weights);
    assert!(after_first.prepared_weight_bytes < 2 * weights + 64 * 64 * 4);
    for i in 0..20 {
        let architecture = match i % 3 {
            0 => Architecture::UdfCentric,
            1 => Architecture::Adaptive,
            _ => Architecture::Pipelined { micro_batch: 16 },
        };
        let again = session.infer_batch(model.name(), &x, architecture).unwrap();
        assert_eq!(again.output.into_dense().unwrap().data(), first.data());
    }
    let after_many = session.stats();
    assert_eq!(after_many.prepared_weight_builds, 2);
    assert_eq!(
        after_many.prepared_weight_bytes,
        after_first.prepared_weight_bytes
    );
    // The caller's copy of the model multiplies from the session's build.
    assert_eq!(model.prepared_weights().0, 2);
    assert!(model.forward(&x, &Parallelism::serial()).unwrap().data() == first.data());
    assert_eq!(session.stats().prepared_weight_builds, 2);
    let exported = after_many.counters();
    assert!(exported.contains(&("prepared_weight_builds", 2)));
    assert!(exported.contains(&("prepared_weight_bytes", after_many.prepared_weight_bytes)));
}

#[test]
fn a_layer_that_only_runs_relation_centric_is_never_prepared() {
    // 40 → 96 → 3 at 8 rows: layer 0's operator estimate is
    // (8·40 + 96·40 + 8·96)·4 B, layer 1's far smaller; a threshold between
    // them sends layer 0 — and only it — relation-centric.
    let model = ffnn(40, 96, 3, 9);
    let x = inputs(8, 40, 9);
    let layer0 = (8 * 40 + 96 * 40 + 8 * 96) * 4;
    let session = session(2, layer0 - 1);
    session.load_model(model.clone()).unwrap();
    let plan = session.plan(model.name(), 8).unwrap();
    let text = plan.explain();
    assert_eq!(text.matches("[weight relation]").count(), 1, "{text}");
    assert_eq!(text.matches("[prepared weights]").count(), 1, "{text}");
    for _ in 0..3 {
        let outcome = session
            .infer_batch(model.name(), &x, Architecture::Adaptive)
            .unwrap();
        assert!(outcome.rel_stats.joins > 0);
    }
    let stats = session.stats();
    assert_eq!(
        stats.weight_relation_reuses, 3,
        "layer 0 joins its stored relation"
    );
    assert_eq!(stats.prepared_weight_builds, 1, "layer 1 alone runs dense");
    // Every layer relation-centric: nothing more is packed.
    session
        .infer_batch(model.name(), &x, Architecture::RelationCentric)
        .unwrap();
    assert_eq!(session.stats().prepared_weight_builds, 1);
    assert_eq!(session.stats().weight_relation_builds, 0);
}
