//! Property tests: every execution architecture computes the same function.
//!
//! The unified IR's whole premise (§2.1) is that representation choice is a
//! *performance* decision, never a *semantics* decision. These properties
//! pin that down over randomized models, batch sizes, block sizes, and
//! thresholds.

use proptest::prelude::*;
use relserve_core::exec::relation_centric::WeightRelations;
use relserve_core::exec::{self, Output};
use relserve_core::{
    Architecture, InferencePlan, InferenceSession, Representation, RuleBasedOptimizer,
    SessionConfig,
};
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{serialize, zoo, Activation, Layer, Model};
use relserve_runtime::{ExecContext, MemoryGovernor};
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use std::sync::Arc;

fn ctx(threads: usize) -> ExecContext {
    ExecContext::standalone(threads, MemoryGovernor::unlimited("prop"))
}

/// A random small FFNN: 1–3 dense layers with relu, softmax head.
fn random_ffnn(features: usize, hiddens: &[usize], classes: usize, seed: u64) -> Model {
    let mut rng = seeded_rng(seed);
    let mut model = Model::new("prop-ffnn", [features]);
    let mut prev = features;
    for &h in hiddens {
        model = model
            .push(Layer::dense(prev, h, Activation::Relu, &mut rng))
            .unwrap();
        prev = h;
    }
    model
        .push(Layer::dense(prev, classes, Activation::Softmax, &mut rng))
        .unwrap()
}

/// A random small CNN over `[5, 5, channels]` images: a pointwise conv, a
/// 3×3 conv, a flatten and a softmax head — every layer kind, and both conv
/// routes of the relation-centric path.
fn random_cnn(channels: usize, mid: usize, kernels: usize, classes: usize, seed: u64) -> Model {
    let mut rng = seeded_rng(seed);
    Model::new("prop-cnn", [5, 5, channels])
        .push(Layer::conv2d(
            channels,
            mid,
            1,
            1,
            Activation::Relu,
            &mut rng,
        ))
        .unwrap()
        .push(Layer::conv2d(
            mid,
            kernels,
            3,
            3,
            Activation::Tanh,
            &mut rng,
        ))
        .unwrap()
        .push(Layer::Flatten)
        .unwrap()
        .push(Layer::dense(
            3 * 3 * kernels,
            classes,
            Activation::Softmax,
            &mut rng,
        ))
        .unwrap()
}

/// The plan that runs every layer of `model` over `x` in `representation`.
fn uniform(model: &Model, x: &Tensor, representation: Representation) -> InferencePlan {
    InferencePlan::uniform(model, x.shape().dim(0), representation).unwrap()
}

/// The plan over `x` whose layer `i` runs relation-centric iff bit `i` of
/// `mask` is set.
fn assignment(model: &Model, x: &Tensor, mask: u32) -> InferencePlan {
    let mut plan = uniform(model, x, Representation::UdfCentric);
    for (i, node) in plan.ops.iter_mut().enumerate() {
        if mask >> i & 1 == 1 {
            node.representation = Representation::RelationCentric;
        }
    }
    plan
}

/// The one executor under `plan`, on an unlimited governor: the output and
/// the governor's peak.
fn run_assigned(model: &Model, x: &Tensor, plan: &InferencePlan, block: usize) -> (Tensor, usize) {
    let governor = MemoryGovernor::unlimited("prop");
    let ctx = ExecContext::standalone(2, governor.clone());
    let (out, _) = exec::run(model, x, plan, &weights(64, block), &ctx).unwrap();
    (out.into_dense().unwrap(), governor.peak())
}

/// The UDF-centric plan: every layer dense.
fn udf(model: &Model, x: &Tensor) -> Tensor {
    let plan = uniform(model, x, Representation::UdfCentric);
    exec::run(model, x, &plan, &weights(16, 8), &ctx(1))
        .unwrap()
        .0
        .into_dense()
        .unwrap()
}

/// The relation-centric plan: every layer a block join.
fn relational(model: &Model, x: &Tensor, weights: &WeightRelations, threads: usize) -> Output {
    let plan = uniform(model, x, Representation::RelationCentric);
    exec::run(model, x, &plan, weights, &ctx(threads))
        .unwrap()
        .0
}

/// Fresh (empty) weight relations over a scratch pool of `frames` frames.
fn weights(frames: usize, block: usize) -> WeightRelations {
    let disk = Arc::new(DiskManager::temp().unwrap());
    WeightRelations::new(Arc::new(BufferPool::new(disk, frames)), block)
}

/// A model whose weight relation is a dense `W`, an int8 `W`, or the
/// rewritten kernel `K` of a pointwise convolution, and its batch width.
fn cached_relation_model(
    kind: usize,
    width: usize,
    hidden: usize,
    seed: u64,
) -> (Model, Vec<usize>) {
    let ffnn = random_ffnn(width, &[hidden], 3, seed);
    match kind {
        0 => (ffnn, vec![width]),
        1 => (quantize_int8(&ffnn).unwrap().model, vec![width]),
        _ => {
            let conv = Layer::conv2d(width, hidden, 1, 1, Activation::Relu, &mut seeded_rng(seed));
            let model = Model::new("prop-conv", [2, 3, width]).push(conv).unwrap();
            (model, vec![2, 3, width])
        }
    }
}

/// A session on which `architecture` runs every layer relation-centric:
/// directly, through the optimizer (a 1-byte operator threshold), or down
/// the degradation ladder (a database budget no dense layer fits in).
fn open_relational(path: usize, block: usize) -> (InferenceSession, Architecture) {
    let config = SessionConfig::builder()
        .buffer_pool_bytes(2 << 20)
        .block_size(block)
        .cores(2)
        .memory_threshold_bytes(if path == 1 { 1 } else { 1 << 30 })
        .db_memory_bytes(if path == 2 { 16 } else { 64 << 20 });
    let session = InferenceSession::open(config.build().unwrap()).unwrap();
    let architecture = match path {
        0 => Architecture::RelationCentric,
        1 => Architecture::Adaptive,
        _ => Architecture::UdfCentric,
    };
    (session, architecture)
}

/// [`open_relational`], with `model` loaded.
fn relational_session(
    path: usize,
    block: usize,
    model: &Model,
) -> (InferenceSession, Architecture) {
    let (session, architecture) = open_relational(path, block);
    session.load_model(model.clone()).unwrap();
    (session, architecture)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A query that finds its weight relations already built computes
    /// exactly what the query that built them did, and what a fresh session
    /// does: the cache changes when the weights are chunked, never the bits.
    #[test]
    fn cached_weight_relation_is_bit_identical_to_a_fresh_one(
        width in 1usize..14,
        hidden in 1usize..14,
        rows_first in 1usize..12,
        rows_second in 1usize..12,
        block in 1usize..9,
        seed in 0u64..1000,
    ) {
        for (kind, path) in (0..3).flat_map(|kind| (0..3).map(move |path| (kind, path))) {
            let (model, row_shape) = cached_relation_model(kind, width, hidden, seed);
            let batch = |rows: usize| {
                let mut dims = vec![rows];
                dims.extend_from_slice(&row_shape);
                Tensor::from_fn(dims, |i| (((i as u64 * 31 + seed) % 29) as f32 - 14.0) * 0.07)
            };
            let (first, second) = (batch(rows_first), batch(rows_second));
            let (session, architecture) = relational_session(path, block, &model);
            let query = |session: &InferenceSession, x: &Tensor| {
                let outcome = session.infer_batch(model.name(), x, architecture.clone()).unwrap();
                assert_eq!(outcome.degraded_to.is_some(), path == 2, "kind {kind} path {path}");
                assert!(outcome.rel_stats.joins > 0, "kind {kind} path {path}");
                outcome.output.into_dense().unwrap()
            };
            let built = query(&session, &first);
            let layers = model.layers().len() as u64;
            // A dense layer's relation is stored at load; a convolution's
            // kernel relation is built by the first query.
            let stored = if kind == 2 { 0 } else { layers };
            prop_assert_eq!(session.stats().weight_relation_builds, layers - stored);
            prop_assert_eq!(session.stats().weight_relation_reuses, stored);
            let other_batch = query(&session, &second);
            let again = query(&session, &first);
            prop_assert_eq!(session.stats().weight_relation_builds, layers - stored);
            prop_assert_eq!(session.stats().weight_relation_reuses, 2 * layers + stored);
            prop_assert!(built.data() == again.data(), "kind {kind} path {path}: cached != first");
            let (fresh, _) = relational_session(path, block, &model);
            prop_assert!(
                other_batch.data() == query(&fresh, &second).data(),
                "kind {kind} path {path}: cached != fresh session"
            );
        }
    }

    /// A loaded model's dense weights are stored once, as the blocks of
    /// their weight relations: every relation-centric route joins against
    /// those pages — whether the model came in through `load_model` or
    /// streamed in through `load_model_from` — builds no relation, and
    /// computes exactly what relations chunked from the model in memory do.
    /// Exported, the session's model is the original's bytes.
    #[test]
    fn stored_weight_relations_join_as_relations_built_in_memory(
        width in 1usize..14,
        hidden in 1usize..14,
        rows in 1usize..12,
        block in 1usize..9,
        seed in 0u64..1000,
    ) {
        for (kind, path, streamed) in (0..2)
            .flat_map(|kind| (0..3).map(move |path| (kind, path)))
            .flat_map(|(kind, path)| [false, true].map(|streamed| (kind, path, streamed)))
        {
            let case = format!("int8 {} path {path} streamed {streamed}", kind == 1);
            let (model, _) = cached_relation_model(kind, width, hidden, seed);
            let x = Tensor::from_fn([rows, width], |i| {
                (((i as u64 * 17 + seed) % 23) as f32 - 11.0) * 0.09
            });
            let (session, architecture) = open_relational(path, block);
            if streamed {
                let mut artifact = serialize::to_bytes(&model).unwrap();
                if kind == 0 {
                    // A version-1 artifact: one without quantized layers.
                    artifact[4..8].copy_from_slice(&1u32.to_le_bytes());
                }
                session.load_model_from(&artifact[..]).unwrap();
            } else {
                session.load_model(model.clone()).unwrap();
            }
            let outcome = session.infer_batch(model.name(), &x, architecture).unwrap();
            prop_assert!(outcome.degraded_to.is_some() == (path == 2), "{}", case);
            let stored = outcome.output.into_dense().unwrap();
            let in_memory = weights(64, block);
            let built = if path == 1 {
                let plan = RuleBasedOptimizer::new(1).plan(&model, rows, 1).unwrap();
                exec::run(&model, &x, &plan, &in_memory, &ctx(2)).unwrap().0
            } else {
                relational(&model, &x, &in_memory, 2)
            };
            prop_assert!(stored.data() == built.into_dense().unwrap().data(), "{}", case);
            let layers = model.layers().len() as u64;
            prop_assert_eq!(in_memory.builds(), layers);
            let stats = session.stats();
            let relations = (stats.weight_relation_builds, stats.weight_relation_reuses);
            prop_assert!(relations == (0, layers), "{}: {:?}", case, relations);
            let exported = serialize::to_bytes(&session.model(model.name()).unwrap()).unwrap();
            prop_assert!(exported == serialize::to_bytes(&model).unwrap(), "{}", case);
        }
    }

    /// Representation is a per-layer choice of one executor, never a change
    /// of function: any assignment — including relation-centric/UDF
    /// sandwiches the threshold rule never emits — matches the all-UDF run,
    /// which is exactly `Model::forward`, and the all-relation-centric run
    /// reserves nothing from the database governor.
    #[test]
    fn any_assignment_computes_the_same_function(
        features in 1usize..12,
        hiddens in proptest::collection::vec(1usize..12, 1..4),
        channels in 1usize..4,
        mid in 1usize..5,
        kernels in 1usize..4,
        classes in 2usize..5,
        batch in 1usize..7,
        block in 1usize..9,
        mask in any::<u32>(),
        seed in 0u64..1000,
    ) {
        let ffnn = random_ffnn(features, &hiddens, classes, seed);
        let cnn = random_cnn(channels, mid, kernels, classes, seed);
        for model in [&ffnn, &cnn] {
            let mut dims = vec![batch];
            dims.extend_from_slice(model.input_shape().dims());
            let x = Tensor::from_fn(dims, |i| (((i as u64 * 29 + seed) % 31) as f32 - 15.0) * 0.06);
            let layers = model.layers().len();
            let (all_udf, _) = run_assigned(model, &x, &assignment(model, &x, 0), block);
            let expect = model.forward(&x, &Parallelism::serial()).unwrap();
            prop_assert!(all_udf.data() == expect.data(), "{}: all-UDF != Model::forward", model.name());
            let (_, peak) = run_assigned(model, &x, &assignment(model, &x, u32::MAX), block);
            prop_assert!(peak == 0, "{}: relation-centric reserved {} bytes", model.name(), peak);
            let plan = assignment(model, &x, mask);
            let (mixed, _) = run_assigned(model, &x, &plan, block);
            let mixed = mixed.reshape(all_udf.shape().clone()).unwrap();
            prop_assert!(
                mixed.approx_eq(&all_udf, 1e-3),
                "{} under {:?} ({} layers): max diff {}",
                model.name(),
                plan.layer_representations(),
                layers,
                mixed.max_abs_diff(&all_udf).unwrap()
            );
        }
    }

    #[test]
    fn relation_centric_matches_udf(
        features in 1usize..24,
        hidden in 1usize..24,
        classes in 2usize..6,
        batch in 1usize..20,
        block in 1usize..12,
        seed in 0u64..1000,
    ) {
        let model = random_ffnn(features, &[hidden], classes, seed);
        let x = Tensor::from_fn([batch, features], |i| (((i as u64 + seed) * 37 % 19) as f32 - 9.0) * 0.1);
        let dense = udf(&model, &x);
        let rel = relational(&model, &x, &weights(64, block), 2).into_dense().unwrap();
        prop_assert!(dense.approx_eq(&rel, 1e-3), "max diff {}", dense.max_abs_diff(&rel).unwrap());
    }

    #[test]
    fn hybrid_matches_udf_for_any_threshold(
        features in 1usize..20,
        hidden in 1usize..32,
        batch in 1usize..16,
        threshold_exp in 4u32..24,
        seed in 0u64..1000,
    ) {
        let model = random_ffnn(features, &[hidden], 3, seed);
        let x = Tensor::from_fn([batch, features], |i| (((i as u64 * 13 + seed) % 23) as f32 - 11.0) * 0.05);
        let dense = udf(&model, &x);
        let plan = RuleBasedOptimizer::new(1usize << threshold_exp)
            .plan(&model, batch, 1)
            .unwrap();
        let (out, _) = exec::run(&model, &x, &plan, &weights(64, 8), &ctx(1)).unwrap();
        let out = out.into_dense().unwrap();
        prop_assert!(dense.approx_eq(&out, 1e-3));
    }

    #[test]
    fn pipelined_matches_udf_for_any_micro_batch(
        features in 1usize..16,
        hidden in 1usize..16,
        batch in 1usize..24,
        micro in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Each morsel is its row slice through the same layers, so the
        // pipelined plan answers what a forward of each slice answers.
        let model = random_ffnn(features, &[hidden], 2, seed);
        let x = Tensor::from_fn([batch, features], |i| (((i as u64 * 7 + seed) % 17) as f32 - 8.0) * 0.1);
        let plan = InferencePlan {
            morsel_rows: micro,
            ..uniform(&model, &x, Representation::UdfCentric)
        };
        let (out, _) = exec::run(&model, &x, &plan, &weights(64, 8), &ctx(2)).unwrap();
        let piecewise: Vec<f32> = (0..batch)
            .step_by(micro)
            .flat_map(|r0| {
                let slice = x.slice2(r0, (r0 + micro).min(batch), 0, features).unwrap();
                model.forward(&slice, &Parallelism::serial()).unwrap().data().to_vec()
            })
            .collect();
        prop_assert!(out.into_dense().unwrap().data() == &piecewise[..]);
    }

    #[test]
    fn deeper_networks_agree_too(
        h1 in 1usize..12,
        h2 in 1usize..12,
        seed in 0u64..500,
    ) {
        let model = random_ffnn(8, &[h1, h2], 4, seed);
        let x = Tensor::from_fn([9, 8], |i| ((i * 11 % 13) as f32 - 6.0) * 0.1);
        let dense = udf(&model, &x);
        let rel = relational(&model, &x, &weights(64, 4), 3);
        prop_assert!(dense.approx_eq(&rel.into_dense().unwrap(), 1e-3));
    }
}

/// The adaptive plan's default morsels never change a bit. For every zoo
/// model of dense layers and its `@int8` twin, at the largest batch the
/// rule keeps whole below the first it cuts, at that first, and at a larger
/// one, the plan's output on two kernel threads is `==` the same plan's run
/// as one morsel. The rule cuts only where every f32 layer packs at the
/// smallest morsel's rows: `Pack-Edge`'s 512 → 2 layer is the one that
/// decides, as its smallest morsel reaches 8 rows (8·512·2 is
/// `PACK_THRESHOLD`) after the work rule already holds.
#[test]
fn default_morsels_are_bit_identical_to_the_whole_batch() {
    let rng = &mut seeded_rng(0x42);
    let edge = Model::new("Pack-Edge", [512])
        .push(Layer::dense(512, 512, Activation::Relu, rng))
        .unwrap()
        .push(Layer::dense(512, 2, Activation::Softmax, rng))
        .unwrap();
    let models = [
        zoo::fraud_fc_256(rng).unwrap(),
        zoo::fraud_fc_512(rng).unwrap(),
        zoo::encoder_fc(rng).unwrap(),
        zoo::amazon_14k_fc(512, rng).unwrap(),
        zoo::bosch_ffnn(rng).unwrap(),
        zoo::caching_ffnn(rng).unwrap(),
        edge,
    ];
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for f32_model in models {
        let int8 = quantize_int8(&f32_model).unwrap().model;
        for model in [f32_model, int8] {
            let plan = |rows: usize| {
                RuleBasedOptimizer::paper_default()
                    .plan(&model, rows, 2)
                    .unwrap()
            };
            let first = (1..=2048)
                .find(|&rows| plan(rows).morsel_rows < rows)
                .unwrap_or_else(|| panic!("`{}` is never cut", model.name()));
            for rows in [first - 1, first, 3 * first + 5] {
                let cut = plan(rows);
                assert_eq!(cut.morsel_rows < rows, rows >= first, "{}", model.name());
                let width = model.input_shape().num_elements();
                let x = Tensor::from_fn([rows, width], |i| ((i * 37 % 101) as f32 - 50.0) * 0.02);
                let whole = InferencePlan {
                    morsel_rows: rows,
                    ..cut.clone()
                };
                let (got, _) = run_assigned(&model, &x, &cut, 64);
                let (want, _) = run_assigned(&model, &x, &whole, 64);
                assert!(
                    bits(&got) == bits(&want),
                    "`{}` at {rows} rows in morsels of {}",
                    model.name(),
                    cut.morsel_rows
                );
            }
        }
    }
}

/// A non-finite activation fails a query cut into morsels with the error of
/// the whole batch: the row it names is the batch's row, not its row in the
/// morsel, and of two bad rows in different morsels, the first.
#[test]
fn a_non_finite_row_in_a_later_morsel_is_named_by_its_batch_row() {
    let rng = &mut seeded_rng(0x43);
    let model = quantize_int8(&zoo::encoder_fc(rng).unwrap()).unwrap().model;
    let rows = 512;
    let cut = RuleBasedOptimizer::paper_default()
        .plan(&model, rows, 2)
        .unwrap();
    assert!(cut.morsel_rows <= 150, "{} rows", cut.morsel_rows);
    let mut x = Tensor::from_fn([rows, 76], |i| ((i * 37 % 101) as f32 - 50.0) * 0.02);
    x.data_mut()[300 * 76 + 5] = f32::NAN;
    x.data_mut()[470 * 76 + 1] = f32::INFINITY;
    let whole = InferencePlan {
        morsel_rows: rows,
        ..cut.clone()
    };
    let fail = |plan: &InferencePlan| {
        let ctx = ExecContext::standalone(2, MemoryGovernor::unlimited("nan"));
        match exec::run(&model, &x, plan, &weights(64, 8), &ctx) {
            Err(err) => err.to_string(),
            Ok(_) => panic!("a NaN row was quantized"),
        }
    };
    let want = fail(&whole);
    assert!(want.contains("activation row 300 "), "{want}");
    for _ in 0..8 {
        assert_eq!(fail(&cut), want);
    }
}
