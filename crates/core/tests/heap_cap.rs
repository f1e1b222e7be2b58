//! Serving a model larger than the heap allows: Amazon-14k-FC/512, whose
//! first layer's weights (4.6 MiB) exceed both the buffer pool and the heap
//! the session may use, is loaded through `load_model_from` from a file
//! `serialize` wrote — its weight matrices stored as the blocks of their
//! weight relations as they stream in — and served relation-centric from
//! those pages.
//! A counting allocator holds the session to a live-heap high-water mark
//! below that layer's bytes above what was live before it opened: no copy
//! of the matrix — raw, serialized or packed — is ever whole on the heap.
//!
//! The same model in memory holds each weight in one form: after its first
//! forward, the packed panels that replaced the raw matrix; a clone copies
//! none of it; and a session it is loaded into — encoding its artifact,
//! storing its first layer as a weight relation, serving queries — never
//! makes a second copy. That is also what shows no library path reads a
//! weight through the copy its `Deref` would make.
//!
//! Its own test binary, so that the allocator counts nothing else; the tests
//! take turns.

use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::{serialize, zoo};
use relserve_runtime::TransferProfile;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

/// Held by each test: one measures at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn config() -> SessionConfig {
    SessionConfig::builder()
        .buffer_pool_bytes(2 * MIB)
        .memory_threshold_bytes(MIB)
        .db_memory_bytes(64 * MIB)
        .block_size(256)
        .cores(2)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap()
}

#[test]
fn a_first_layer_larger_than_the_heap_cap_is_served_from_its_pages() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let model = zoo::amazon_14k_fc(512, &mut seeded_rng(0x14C)).unwrap();
    let first_layer = model.layers()[0].weight_bytes();
    assert!(first_layer > 4 * MIB, "{first_layer} B");
    let width = model.input_shape().num_elements();
    let batch = Tensor::from_fn([16, width], |i| ((i * 31 % 97) as f32 - 48.0) * 0.01);
    let oracle = model.predict(&batch, &Parallelism::serial()).unwrap();

    // The artifact goes to a file as `serialize` streams it.
    let path = std::env::temp_dir().join(format!("relserve-heap-cap-{}.rsnn", std::process::id()));
    let mut file = std::fs::File::create(&path).unwrap();
    std::io::copy(&mut serialize::encode(&model), &mut file).unwrap();
    drop((file, model));

    let config = SessionConfig::builder()
        .buffer_pool_bytes(2 * MIB)
        .memory_threshold_bytes(MIB)
        .db_memory_bytes(64 * MIB)
        .block_size(256)
        .cores(2)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap();
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let session = InferenceSession::open(config).unwrap();
    let name = session
        .load_model_from(std::fs::File::open(&path).unwrap())
        .unwrap();
    let plan = session.plan(&name, 16).unwrap();
    assert!(
        plan.explain()
            .contains("[weight relation] <- catalog pages"),
        "{}",
        plan.explain()
    );
    let served = session
        .infer_batch(&name, &batch, Architecture::Adaptive)
        .unwrap();
    let again = session
        .infer_batch(&name, &batch, Architecture::Adaptive)
        .unwrap();
    let high_water = PEAK.load(Ordering::Relaxed) - baseline;
    std::fs::remove_file(&path).unwrap();

    assert_eq!(served.predictions().unwrap(), oracle);
    assert_eq!(again.predictions().unwrap(), oracle);
    let stats = session.stats();
    assert_eq!(
        stats.weight_relation_builds, 0,
        "layer 0 joins its stored relation"
    );
    assert_eq!(stats.weight_relation_reuses, 2);
    assert!(stats.artifact_bytes >= first_layer as u64);
    assert!(
        high_water < first_layer,
        "the session's heap rose {high_water} B above the {baseline} B live before it; \
         the first layer alone is {first_layer} B"
    );
}

#[test]
fn an_in_memory_model_holds_one_form_of_each_weight() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let before_model = LIVE.load(Ordering::Relaxed);
    let model = zoo::amazon_14k_fc(512, &mut seeded_rng(0x14C)).unwrap();
    let first_layer = model.layers()[0].weight_bytes();
    assert!(first_layer > 4 * MIB, "{first_layer} B");
    let width = model.input_shape().num_elements();
    let batch = Tensor::from_fn([16, width], |i| ((i * 31 % 97) as f32 - 48.0) * 0.01);

    // The serial oracle packs every layer, and the panels replace the raw
    // matrices: what stays live is the packed form and the batch, and no
    // more than a row group's 64 KiB besides (the model's own records).
    let oracle = model.predict(&batch, &Parallelism::serial()).unwrap();
    let (builds, packed) = model.prepared_weights();
    assert_eq!(builds, 2);
    let held = LIVE.load(Ordering::Relaxed) - before_model;
    assert!(
        held <= packed + batch.num_bytes() + 64 * KIB,
        "{held} B live after the forward; the packed weights are {packed} B"
    );

    // A clone shares every weight.
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let clone = model.clone();
    let cloned = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(cloned < 64 * KIB, "a clone allocated {cloned} B");

    // A session serves the clone from the shared cells: its artifact is
    // encoded out of the panels onto pages — its first layer stored as the
    // blocks of its weight relation a group of rows at a time — and no
    // query makes a copy of the matrix.
    let session = InferenceSession::open(config()).unwrap();
    session.load_model(clone).unwrap();
    for _ in 0..8 {
        let served = session
            .infer_batch(model.name(), &batch, Architecture::Adaptive)
            .unwrap();
        assert_eq!(served.predictions().unwrap(), oracle);
    }
    let high_water = PEAK.load(Ordering::Relaxed) - baseline;
    let stats = session.stats();
    assert_eq!(
        stats.weight_relation_builds, 0,
        "layer 0 joins its stored relation"
    );
    assert_eq!(stats.weight_relation_reuses, 8);
    assert_eq!(stats.prepared_weight_builds, 2, "the oracle's panels serve");
    assert!(
        high_water < first_layer,
        "the heap rose {high_water} B above the {baseline} B live after the oracle; \
         the first layer alone is {first_layer} B"
    );
}
