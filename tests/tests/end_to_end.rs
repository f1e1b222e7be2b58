//! End-to-end integration tests spanning every crate: storage → relational →
//! nn → core, exercised the way the paper's experiments use them.

use rand::Rng;
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_relational::{Column, DataType, Schema, Tuple, Value};
use relserve_runtime::{RuntimeProfile, TransferProfile};
use relserve_tensor::Tensor;

fn test_config() -> SessionConfig {
    SessionConfig::builder()
        .db_memory_bytes(64 << 20)
        .buffer_pool_bytes(16 << 20)
        .memory_threshold_bytes(4 << 20)
        .block_size(64)
        .cores(2)
        .external_memory_bytes(64 << 20)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap()
}

fn load_fraud_workload(session: &InferenceSession, rows: usize) {
    let mut rng = seeded_rng(200);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("features", DataType::Vector),
    ]);
    session.create_table("tx", schema).unwrap();
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            let f: Vec<f32> = (0..28).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            Tuple::new(vec![Value::Int(i as i64), Value::Vector(f)])
        })
        .collect();
    session.insert("tx", &tuples).unwrap();
}

#[test]
fn four_architectures_agree_on_predictions() {
    let session = InferenceSession::open(test_config()).unwrap();
    load_fraud_workload(&session, 200);
    let reference = session
        .infer("Fraud-FC-256", "tx", "features", Architecture::UdfCentric)
        .unwrap()
        .predictions()
        .unwrap();
    assert_eq!(reference.len(), 200);
    for arch in [
        Architecture::RelationCentric,
        Architecture::Adaptive,
        Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
        Architecture::DlCentric(RuntimeProfile::pytorch_like()),
        Architecture::Pipelined { micro_batch: 32 },
    ] {
        let preds = session
            .infer("Fraud-FC-256", "tx", "features", arch.clone())
            .unwrap()
            .predictions()
            .unwrap();
        assert_eq!(preds, reference, "architecture {arch:?} diverged");
    }
}

#[test]
fn logits_agree_numerically_across_architectures() {
    let session = InferenceSession::open(test_config()).unwrap();
    load_fraud_workload(&session, 64);
    let batch = session.features("tx", "features").unwrap();
    let dense = session
        .infer_batch("Fraud-FC-256", &batch, Architecture::UdfCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    let relational = session
        .infer_batch("Fraud-FC-256", &batch, Architecture::RelationCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    assert!(
        dense.approx_eq(&relational, 1e-3),
        "max diff {}",
        dense.max_abs_diff(&relational).unwrap()
    );
}

#[test]
fn table3_oom_pattern_reproduces_at_test_scale() {
    // A model + budgets where: small batch fits everywhere, large batch only
    // completes relation-centric — the Table 3 pattern end-to-end.
    let mut rng = seeded_rng(201);
    let model = zoo::amazon_14k_fc(512, &mut rng).unwrap(); // 1167 features
    let features = model.input_shape().num_elements();
    let name = model.name().to_string();
    // Footprints: params ≈ (1167·1024 + 1024·28)·4 ≈ 4.9 MB. The pool is
    // smaller than the first layer's weights and its 1500-row output (6 MB)
    // together, which is all the relation-centric layer puts in it.
    let config = SessionConfig::builder()
        .db_memory_bytes(8 << 20)
        .buffer_pool_bytes(8 << 20)
        .memory_threshold_bytes(2 << 20)
        .block_size(128)
        .cores(2)
        .external_memory_bytes(12 << 20)
        .transfer(TransferProfile::instant())
        // This test asserts which cells OOM, so the graceful-degradation
        // fallback must stay out of the way.
        .degradation(false)
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    session.load_model(model).unwrap();

    let small = Tensor::from_fn([32, features], |i| ((i % 97) as f32) * 0.01);
    let large = Tensor::from_fn([1500, features], |i| ((i % 89) as f32) * 0.01);

    // Small batch: everything completes.
    for arch in [
        Architecture::UdfCentric,
        Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
        Architecture::Adaptive,
    ] {
        session.infer_batch(&name, &small, arch).unwrap();
    }
    // Large batch: dense paths OOM...
    assert!(session
        .infer_batch(&name, &large, Architecture::UdfCentric)
        .unwrap_err()
        .is_oom());
    assert!(session
        .infer_batch(
            &name,
            &large,
            Architecture::DlCentric(RuntimeProfile::pytorch_like())
        )
        .unwrap_err()
        .is_oom());
    // ...while the adaptive plan (relation-centric matmul) completes.
    let outcome = session
        .infer_batch(&name, &large, Architecture::Adaptive)
        .unwrap();
    assert_eq!(outcome.output.num_rows(), 1500);
    // And it spilled through the buffer pool to do so.
    assert!(session.pool().stats().evictions > 0);
}

#[test]
fn trained_model_survives_catalog_roundtrip_and_serves() {
    use relserve_nn::{Activation, Layer, Model, Trainer};
    let mut rng = seeded_rng(202);
    let mut model = Model::new("clf", [8])
        .push(Layer::dense(8, 16, Activation::Relu, &mut rng))
        .unwrap()
        .push(Layer::dense(16, 2, Activation::Softmax, &mut rng))
        .unwrap();
    // Train on separable blobs.
    let n = 200;
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let label = i % 2;
        let c = if label == 0 { -1.0f32 } else { 1.0 };
        for _ in 0..8 {
            data.push(c + rng.gen_range(-0.4f32..0.4));
        }
        labels.push(label);
    }
    let x = Tensor::from_vec([n, 8], data).unwrap();
    let trainer = Trainer::new(0.1);
    for _ in 0..15 {
        trainer.train_epoch(&mut model, &x, &labels, 32).unwrap();
    }
    let acc = Trainer::evaluate(
        &model,
        &x,
        &labels,
        &relserve_tensor::parallel::Parallelism::serial(),
    )
    .unwrap();
    assert!(acc > 0.95);

    // Load into the session, reload from catalog bytes, verify identity.
    let session = InferenceSession::open(test_config()).unwrap();
    session.load_model(model.clone()).unwrap();
    let reloaded = session.reload_model_from_catalog("clf").unwrap();
    assert_eq!(reloaded, model);

    // And the session serves it with the same accuracy.
    let preds = session
        .infer_batch("clf", &x, Architecture::Adaptive)
        .unwrap()
        .predictions()
        .unwrap();
    let served_acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f32 / n as f32;
    assert!((served_acc - acc).abs() < 1e-6);
}

#[test]
fn cnn_serves_identically_across_architectures() {
    let mut rng = seeded_rng(203);
    let model = zoo::landcover(250, &mut rng).unwrap(); // 10x10x3 → 8 channels
    let name = model.name().to_string();
    let session = InferenceSession::open(test_config()).unwrap();
    session.load_model(model).unwrap();
    let tiles = Tensor::from_fn([2, 10, 10, 3], |i| ((i % 17) as f32) * 0.05);
    let udf = session
        .infer_batch(&name, &tiles, Architecture::UdfCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    let rel = session
        .infer_batch(&name, &tiles, Architecture::RelationCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    // UDF output is NHWC [2,10,10,8]; relational output is pixel-major
    // [200, 8] — same data.
    let udf_flat = udf.reshape([200, 8]).unwrap();
    assert!(udf_flat.approx_eq(&rel, 1e-3));
}
