//! Work counters of the relation-centric dense layer, not wall clocks: a
//! warm query's buffer-pool misses, the operand bytes its block join copies,
//! and the pins it leaves behind when its deadline runs out mid-layer.
//!
//! The shape is a scaled-down `large_spill`: Amazon-14k-FC/512, whose first
//! layer's weights (4.6 MiB, with a 143-wide ragged last column block) exceed
//! a 2 MiB pool, so that layer runs relation-centric and streams its stored
//! weight relation through the pool on every query.

use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{zoo, Model};
use relserve_runtime::{AdmissionPolicy, TransferProfile};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use std::time::{Duration, Instant};

/// Pool misses of a warm query when the join copied each weight block out of
/// its pages one page at a time and wrote the batch into the pool.
const COPYING_JOIN_MISSES: u64 = 61;

fn session() -> InferenceSession {
    let config = SessionConfig::builder()
        .buffer_pool_bytes(2 << 20)
        .memory_threshold_bytes(1 << 20)
        .db_memory_bytes(64 << 20)
        .block_size(256)
        .cores(2)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap();
    InferenceSession::open(config).unwrap()
}

fn model_and_batch() -> (Model, Tensor) {
    let model = zoo::amazon_14k_fc(512, &mut seeded_rng(0x14C)).unwrap();
    let width = model.input_shape().num_elements();
    let batch = Tensor::from_fn([16, width], |i| ((i * 31 % 97) as f32 - 48.0) * 0.01);
    (model, batch)
}

#[test]
fn a_warm_query_misses_no_more_than_the_copying_join_and_copies_nothing() {
    let (model, batch) = model_and_batch();
    let oracle = model.forward(&batch, &Parallelism::serial()).unwrap();
    let session = session();
    session.load_model(model.clone()).unwrap();
    let plan = session.plan(model.name(), 16).unwrap();
    assert!(
        plan.explain().contains("[weight relation]"),
        "{}",
        plan.explain()
    );
    // The first query faults the pool's frames in.
    session
        .infer_batch(model.name(), &batch, Architecture::Adaptive)
        .unwrap();
    for _ in 0..3 {
        let before = session.pool().stats();
        let outcome = session
            .infer_batch(model.name(), &batch, Architecture::Adaptive)
            .unwrap();
        let misses = session.pool().stats().misses - before.misses;
        let stats = outcome.rel_stats;
        assert_eq!(outcome.output.into_dense().unwrap(), oracle);
        // 52 with whole blocks pinned and the batch joined in place.
        assert!(
            misses <= COPYING_JOIN_MISSES,
            "{misses} pool misses in a warm query"
        );
        // Four weight block-rows by five column blocks, against one
        // activation block-row; the product goes out as four blocks.
        assert_eq!((stats.joins, stats.blocks_out), (20, 4));
        assert_eq!(stats.bytes_copied, 0, "{stats:?}");
        assert_eq!(session.pool().pinned_pages(), 0);
    }
}

#[test]
fn a_deadline_that_runs_out_in_a_relation_centric_layer_leaves_no_page_pinned() {
    let (model, batch) = model_and_batch();
    let session = session();
    session.load_model(model.clone()).unwrap();
    session
        .infer_batch(model.name(), &batch, Architecture::Adaptive)
        .unwrap();
    // Deadlines that double until one lets the query finish: some run out
    // before the first layer starts, at least one after its join has read
    // pages and before the second layer, and each leaves nothing pinned.
    let (mut budget, mut mid_layer) = (Duration::from_micros(250), 0);
    loop {
        let before = session.pool().stats();
        let policy = AdmissionPolicy::with_deadline(Instant::now() + budget);
        let result =
            session.infer_batch_with(model.name(), &batch, Architecture::Adaptive, &policy);
        assert_eq!(session.pool().pinned_pages(), 0, "deadline {budget:?}");
        match result {
            Ok(_) => break,
            Err(err) => {
                assert!(err.is_deadline_exceeded(), "{err}");
                let fetched = session.pool().stats();
                mid_layer +=
                    usize::from(fetched.hits + fetched.misses > before.hits + before.misses);
            }
        }
        budget *= 2;
    }
    assert!(mid_layer > 0, "no deadline ran out after the join began");
}

/// Kernel-pool forks of one warm query, from the pool's counters. An
/// all-dense adaptive plan cut into morsels runs them in one fork: the int8
/// Encoder-FC at 512 rows forks once, not once per layer. Its f32 twin
/// stays whole (cut, it would read its 10 MB of weights twice more than
/// the whole batch does) and forks once per layer. A serving-sized
/// Fraud-FC query is too small to fork at all. The relation-centric Amazon plan is never cut,
/// and forks once, as it did before plans were cut: its layer 0 block join
/// forks, and its 16-row layer 1 is too small to.
#[test]
fn a_warm_query_forks_once_per_morsel_wave() {
    let rng = &mut seeded_rng(0xF0);
    let dense = InferenceSession::open(
        SessionConfig::builder()
            .cores(2)
            .transfer(TransferProfile::instant())
            .build()
            .unwrap(),
    )
    .unwrap();
    let forks = |session: &InferenceSession, name: &str, batch: &Tensor| {
        let run = || {
            session
                .infer_batch(name, batch, Architecture::Adaptive)
                .unwrap()
        };
        run();
        let before = session.coordinator().kernel_pool().counters().forks;
        run();
        session.coordinator().kernel_pool().counters().forks - before
    };
    let encoder = zoo::encoder_fc(rng).unwrap();
    let int8 = quantize_int8(&encoder).unwrap().model;
    dense.load_model(encoder).unwrap();
    dense.load_model(int8).unwrap();
    let batch = Tensor::from_fn([512, 76], |i| ((i * 31 % 97) as f32 - 48.0) * 0.01);
    assert!(dense.plan("Encoder-FC@int8", 512).unwrap().morsel_rows < 512);
    assert_eq!(forks(&dense, "Encoder-FC@int8", &batch), 1);
    assert_eq!(dense.plan("Encoder-FC", 512).unwrap().morsel_rows, 512);
    assert_eq!(forks(&dense, "Encoder-FC", &batch), 2);
    let fraud = zoo::fraud_fc_256(rng).unwrap();
    dense.load_model(fraud).unwrap();
    for rows in [1, 27, 64] {
        let batch = Tensor::from_fn([rows, 28], |i| ((i * 31 % 97) as f32 - 48.0) * 0.01);
        assert_eq!(forks(&dense, "Fraud-FC-256", &batch), 0, "{rows} rows");
    }
    let (model, batch) = model_and_batch();
    let spill = session();
    spill.load_model(model.clone()).unwrap();
    assert_eq!(spill.plan(model.name(), 16).unwrap().morsel_rows, 16);
    assert_eq!(forks(&spill, model.name(), &batch), 1);
}
