//! Integration tests for the paper's §2–§5 techniques across crates:
//! decomposition push-down, result caching, dedup, model versions, and the
//! resource-coordination seams.

use rand::Rng;
use relserve_core::cache::CachedModel;
use relserve_core::dedup::dedup_blocks;
use relserve_core::versions::{Sla, VersionCatalog};
use relserve_core::{Architecture, InferenceSession, JoinQuery, JoinSide, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::{zoo, Activation, Layer, Model, Trainer};
use relserve_relational::{Column, DataType, Schema, Tuple, Value};
use relserve_runtime::AdmissionPolicy;
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{BlockedTensor, BlockingSpec, Tensor};
use relserve_vectoridx::HnswParams;
use std::sync::Arc;

#[test]
fn decomposition_pushdown_full_bosch_shape() {
    // Paper dimensions (968 = 484 + 484, hidden 256) at reduced cardinality:
    // the adaptive plan of a session join query pushes layer 0 below the
    // join and answers as the join-then-infer plan does.
    let session = InferenceSession::open(SessionConfig::default()).unwrap();
    let schema = Schema::new(vec![
        Column::new("key", DataType::Float),
        Column::new("features", DataType::Vector),
    ]);
    for (name, seed) in [("d1", 1), ("d2", 2)] {
        session.create_table(name, schema.clone()).unwrap();
        let mut rng = seeded_rng(seed);
        let rows: Vec<Tuple> = (0..300)
            .map(|i| {
                let f: Vec<f32> = (0..484).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                Tuple::new(vec![Value::Float(i as f32), Value::Vector(f)])
            })
            .collect();
        session.insert(name, &rows).unwrap();
    }
    session
        .load_model(zoo::bosch_ffnn(&mut seeded_rng(3)).unwrap())
        .unwrap();
    let query = JoinQuery {
        left: JoinSide {
            table: "d1",
            key: "key",
            features: "features",
        },
        right: JoinSide {
            table: "d2",
            key: "key",
            features: "features",
        },
        epsilon: 0.2,
    };
    let run = |architecture| {
        session
            .infer_join(
                "Bosch-FFNN",
                &query,
                architecture,
                &AdmissionPolicy::default(),
            )
            .unwrap()
    };
    let pushed = run(Architecture::Adaptive);
    let plan = pushed.plan.as_ref().unwrap();
    assert_eq!(plan.pushdown, Some(484));
    assert!(
        session.governor().peak() <= plan.ops[0].estimated_bytes.max(plan.ops[1].estimated_bytes)
    );
    let baseline = run(Architecture::UdfCentric).output.into_dense().unwrap();
    let pushed = pushed.output.into_dense().unwrap();
    assert_eq!(baseline.shape().dims(), &[300, 2]);
    assert!(
        baseline.approx_eq(&pushed, 1e-5),
        "max diff {}",
        baseline.max_abs_diff(&pushed).unwrap()
    );
}

#[test]
fn cached_model_trades_accuracy_for_speed() {
    // Train a digit classifier, warm the cache, and verify the §7.2.2
    // behaviour: high hit rate, accuracy within a bounded drop.
    let mut rng = seeded_rng(4);
    let mut model = Model::new("digits", [32])
        .push(Layer::dense(32, 64, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::dense(64, 10, Activation::Softmax, &mut rng))
        .unwrap();
    // Train and test must share class centroids (only the noise differs).
    let mut r = seeded_rng(5);
    let centroids: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..32).map(|_| r.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut make_digits = |n: usize| {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 10;
            for &cv in centroids[c].iter().take(32) {
                data.push(cv + r.gen_range(-0.3f32..0.3));
            }
            labels.push(c);
        }
        (Tensor::from_vec([n, 32], data).unwrap(), labels)
    };
    let (train_x, train_y) = make_digits(600);
    let (test_x, test_y) = make_digits(300);
    let trainer = Trainer::new(0.1);
    for _ in 0..20 {
        trainer
            .train_epoch(&mut model, &train_x, &train_y, 32)
            .unwrap();
    }
    let exact_acc = Trainer::evaluate(&model, &test_x, &test_y, &Parallelism::serial()).unwrap();
    assert!(exact_acc > 0.9, "training failed: {exact_acc}");

    let mut cached =
        CachedModel::new(model, 4.0, HnswParams::default(), Parallelism::serial()).unwrap();
    cached.warm(&train_x).unwrap();
    let preds = cached.predict_batch(&test_x).unwrap();
    let cached_acc =
        preds.iter().zip(&test_y).filter(|(p, l)| p == l).count() as f32 / test_y.len() as f32;
    let stats = cached.stats();
    assert!(stats.hit_rate() > 0.8, "hit rate {}", stats.hit_rate());
    // Accuracy may drop but must stay in the same regime (paper: ~3-5 pts).
    assert!(
        cached_acc >= exact_acc - 0.15,
        "cache destroyed accuracy: {exact_acc} -> {cached_acc}"
    );
}

#[test]
fn dedup_preserves_inference_within_bound() {
    // Dedup a weight matrix with duplicated block structure and verify the
    // model still produces near-identical outputs.
    let mut rng = seeded_rng(7);
    let block = 16;
    let base = Tensor::from_fn([block, block], |i| ((i % 23) as f32 - 11.0) * 0.01);
    let mut blocked = BlockedTensor::empty(64, 64, BlockingSpec::square(block));
    for br in 0..4 {
        for bc in 0..4 {
            let mut copy = base.clone();
            for v in copy.data_mut() {
                *v += rng.gen_range(-1e-5f32..1e-5);
            }
            copy.data_mut()[0] += (br * 4 + bc) as f32 * 1e-6;
            blocked
                .insert_block(relserve_tensor::BlockCoord { row: br, col: bc }, copy)
                .unwrap();
        }
    }
    let (deduped, stats) = dedup_blocks(&blocked, 1e-4).unwrap();
    assert!(stats.blocks_after < stats.blocks_before);
    let x = Tensor::from_fn([8, 64], |i| ((i % 13) as f32) * 0.1);
    let exact = relserve_tensor::matmul::matmul_parallel(
        &x,
        &blocked.to_dense().unwrap(),
        &Parallelism::serial(),
    )
    .unwrap();
    let approx = relserve_tensor::matmul::matmul_parallel(
        &x,
        &deduped.to_blocked().unwrap().to_dense().unwrap(),
        &Parallelism::serial(),
    )
    .unwrap();
    // 64 summands × per-element bound 2e-4 × |x|≤1.2 — loose envelope.
    assert!(exact.max_abs_diff(&approx).unwrap() < 64.0 * 2e-4 * 1.3);
}

#[test]
fn sla_version_selection_end_to_end() {
    let mut rng = seeded_rng(8);
    let mut model = Model::new("sla-model", [10])
        .push(Layer::dense(10, 20, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::dense(20, 2, Activation::Softmax, &mut rng))
        .unwrap();
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..200 {
        let label = i % 2;
        let c = if label == 0 { -1.0f32 } else { 1.0 };
        for _ in 0..10 {
            data.push(c + rng.gen_range(-0.5f32..0.5));
        }
        labels.push(label);
    }
    let x = Tensor::from_vec([200, 10], data).unwrap();
    let trainer = Trainer::new(0.1);
    for _ in 0..15 {
        trainer.train_epoch(&mut model, &x, &labels, 25).unwrap();
    }
    let catalog = VersionCatalog::build(&model, &x, &labels, &Parallelism::serial()).unwrap();
    let chosen = catalog.select(Sla { min_accuracy: 0.85 }).unwrap();
    assert!(chosen.accuracy >= 0.85);
    // The chosen version is never larger than the original.
    assert!(chosen.version.storage_bytes <= model.param_bytes());
}

#[test]
fn relational_tensor_pipeline_through_tiny_pool() {
    // storage → relational → tensor: a two-layer FFNN executed purely as
    // block relations through a pool an order of magnitude smaller than the
    // data it processes.
    let p = Arc::new(BufferPool::with_budget_bytes(
        Arc::new(DiskManager::temp().unwrap()),
        1 << 20, // 1 MiB pool
    ));
    let x = Tensor::from_fn([512, 128], |i| ((i % 31) as f32 - 15.0) * 0.05);
    let w1 = Tensor::from_fn([256, 128], |i| ((i % 29) as f32 - 14.0) * 0.01);
    let w2 = Tensor::from_fn([16, 256], |i| ((i % 27) as f32 - 13.0) * 0.01);
    let spec = BlockingSpec::square(64);
    let xt = relserve_relational::TensorTable::from_dense(p.clone(), "x", &x, spec).unwrap();
    let w1t = relserve_relational::TensorTable::from_dense(p.clone(), "w1", &w1, spec).unwrap();
    let w2t = relserve_relational::TensorTable::from_dense(p.clone(), "w2", &w2, spec).unwrap();
    let (h, _) = xt
        .matmul_bt_parallel(&w1t, "h", &Parallelism::serial())
        .unwrap();
    let h = h.map("h.relu", |v| v.max(0.0)).unwrap();
    let (y, _) = h
        .matmul_bt_parallel(&w2t, "y", &Parallelism::serial())
        .unwrap();
    // Oracle on dense tensors.
    let expect = {
        let h = relserve_tensor::ops::relu(
            &relserve_tensor::matmul::matmul_bt_parallel(&x, &w1, &Parallelism::serial()).unwrap(),
        );
        relserve_tensor::matmul::matmul_bt_parallel(&h, &w2, &Parallelism::serial()).unwrap()
    };
    assert!(y.to_dense().unwrap().approx_eq(&expect, 1e-2));
    assert!(p.stats().evictions > 0, "1 MiB pool must have spilled");
}
