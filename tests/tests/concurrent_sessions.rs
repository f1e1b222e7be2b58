//! §3.1 unified resource management, end to end: two [`InferenceSession`]s
//! sharing one [`ThreadCoordinator`] run queries concurrently from separate
//! OS threads. Every query executes inside its own admitted `ExecContext`,
//! so the sum of granted kernel budgets sampled at any instant must never
//! exceed the coordinator's cores — and the concurrent results must still
//! match serial oracles exactly.

use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{ThreadCoordinator, TransferProfile};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const CORES: usize = 4;

fn shared_config() -> SessionConfig {
    SessionConfig::builder()
        .db_memory_bytes(256 << 20)
        .buffer_pool_bytes(64 << 20)
        .memory_threshold_bytes(64 << 20)
        .block_size(64)
        .cores(CORES)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap()
}

#[test]
fn concurrent_sessions_share_one_thread_budget() {
    let coordinator = ThreadCoordinator::new(CORES);
    let session_a = InferenceSession::open_shared(shared_config(), &coordinator).unwrap();
    let session_b = InferenceSession::open_shared(shared_config(), &coordinator).unwrap();

    let mut rng = seeded_rng(90);
    let model_a = zoo::fraud_fc_256(&mut rng).unwrap();
    let model_b = zoo::encoder_fc(&mut rng).unwrap();
    let x_a = Tensor::from_fn([96, 28], |i| ((i % 23) as f32 - 11.0) * 0.07);
    let x_b = Tensor::from_fn([64, 76], |i| ((i % 19) as f32 - 9.0) * 0.05);

    // Serial oracles before any concurrency.
    let oracle_a = model_a.forward(&x_a, &Parallelism::serial()).unwrap();
    let oracle_b = model_b.forward(&x_b, &Parallelism::serial()).unwrap();

    session_a.load_model(model_a).unwrap();
    session_b.load_model(model_b).unwrap();

    let session_a = Arc::new(session_a);
    let session_b = Arc::new(session_b);
    let stop = Arc::new(AtomicBool::new(false));
    let max_granted = Arc::new(AtomicUsize::new(0));

    // A watcher samples the admission ledger the whole time both queries
    // run: the invariant is global, not per-query, so it has to be observed
    // from outside either session.
    let watcher = {
        let coordinator = coordinator.clone();
        let stop = Arc::clone(&stop);
        let max_granted = Arc::clone(&max_granted);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                max_granted.fetch_max(coordinator.granted_threads(), Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };

    let rounds = 6;
    let thread_a = {
        let session = Arc::clone(&session_a);
        let x = x_a.clone();
        std::thread::spawn(move || {
            (0..rounds)
                .map(|_| {
                    session
                        .infer_batch("Fraud-FC-256", &x, Architecture::RelationCentric)
                        .unwrap()
                        .output
                        .into_dense()
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    };
    let thread_b = {
        let session = Arc::clone(&session_b);
        let x = x_b.clone();
        std::thread::spawn(move || {
            (0..rounds)
                .map(|_| {
                    session
                        .infer_batch(
                            "Encoder-FC",
                            &x,
                            Architecture::Pipelined { micro_batch: 16 },
                        )
                        .unwrap()
                        .output
                        .into_dense()
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    };

    let outs_a = thread_a.join().unwrap();
    let outs_b = thread_b.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    watcher.join().unwrap();

    for out in &outs_a {
        assert!(
            oracle_a.approx_eq(out, 1e-4),
            "relation-centric diverged under concurrency: max diff {}",
            oracle_a.max_abs_diff(out).unwrap()
        );
    }
    for out in &outs_b {
        assert!(
            oracle_b.approx_eq(out, 1e-4),
            "pipelined diverged under concurrency: max diff {}",
            oracle_b.max_abs_diff(out).unwrap()
        );
    }

    let peak = max_granted.load(Ordering::Relaxed);
    assert!(
        peak <= CORES,
        "admission ledger oversubscribed: granted {peak} of {CORES} cores"
    );
    assert!(peak > 0, "watcher never saw an admitted query");
    // Both grants returned: the ledger must be empty again.
    assert_eq!(coordinator.granted_threads(), 0);
}

#[test]
fn dedicated_context_waits_for_full_machine() {
    // A DL-centric (dedicated) query admitted while another query holds part
    // of the budget must still be granted at least one thread and never push
    // the ledger past the core count.
    let coordinator = ThreadCoordinator::new(CORES);
    let session = Arc::new(InferenceSession::open_shared(shared_config(), &coordinator).unwrap());
    let mut rng = seeded_rng(91);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    let x = Tensor::from_fn([48, 28], |i| ((i % 17) as f32 - 8.0) * 0.06);

    let serial = session
        .model("Fraud-FC-256")
        .unwrap()
        .forward(&x, &Parallelism::serial())
        .unwrap();

    let handles: Vec<_> = (0..3)
        .map(|i| {
            let session = Arc::clone(&session);
            let x = x.clone();
            std::thread::spawn(move || {
                let arch = if i == 0 {
                    Architecture::DlCentric(relserve_runtime::RuntimeProfile::tensorflow_like())
                } else {
                    Architecture::UdfCentric
                };
                session
                    .infer_batch("Fraud-FC-256", &x, arch)
                    .unwrap()
                    .output
                    .into_dense()
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let out = h.join().unwrap();
        assert!(serial.approx_eq(&out, 1e-4));
    }
    assert_eq!(coordinator.granted_threads(), 0);
}

#[test]
fn racing_first_queries_build_each_weight_relation_once() {
    // Every thread's first query reaches the session's weight relations at
    // the same moment (the barrier): the dense layers' stored at load, the
    // convolutions' kernel relations not yet built. Exactly one of them may
    // chunk each kernel; the rest must wait for the finished relation —
    // never join against a half-built one — and all must compute what a
    // lone caller on a session of its own computes, bit for bit.
    const RACERS: usize = 6;
    let mut rng = seeded_rng(92);
    let model = zoo::caching_cnn(&mut rng).unwrap();
    let name = model.name().to_string();
    let (layers, convs) = (4, 2);
    let x = Tensor::from_fn([2, 28, 28, 1], |i| ((i % 13) as f32 - 6.0) * 0.09);

    let solo = InferenceSession::open(shared_config()).unwrap();
    solo.load_model(model.clone()).unwrap();
    let oracle = solo
        .infer_batch(&name, &x, Architecture::RelationCentric)
        .unwrap()
        .output
        .into_dense()
        .unwrap();
    let forward = model.forward(&x, &Parallelism::serial()).unwrap();
    assert!(forward.approx_eq(&oracle, 1e-4));

    let session = InferenceSession::open(shared_config()).unwrap();
    session.load_model(model).unwrap();
    let barrier = std::sync::Barrier::new(RACERS);
    let answers: Vec<Tensor> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    session
                        .infer_batch(&name, &x, Architecture::RelationCentric)
                        .unwrap()
                        .output
                        .into_dense()
                        .unwrap()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer.data(), oracle.data());
    }
    let stats = session.stats();
    assert_eq!(stats.weight_relation_builds, convs);
    assert_eq!(stats.weight_relation_reuses, RACERS as u64 * layers - convs);
}

#[test]
fn racing_first_queries_prepare_each_dense_layer_once() {
    // Every racer's first forward reaches the model's empty prepared-weight
    // slots at the same moment (the barrier): half through the session, half
    // through the caller's own clone of the model, which shares the slots.
    // Exactly one of them may pack each layer's weights — Encoder-FC's second
    // layer is 9 MiB of panels, a window wide enough to fall into — and the
    // rest must wait for the finished panels, never multiply from half-built
    // ones: all compute what a lone caller computes, bit for bit.
    const RACERS: usize = 6;
    let mut rng = seeded_rng(93);
    let model = zoo::encoder_fc(&mut rng).unwrap();
    let layers = model.layers().len() as u64;
    let x = Tensor::from_fn([4, 76], |i| ((i % 17) as f32 - 8.0) * 0.11);

    // A copy with slots of its own (`layers_mut` leaves the shared ones), so
    // that the oracle packs nothing the racers could find.
    let mut lone = model.clone();
    lone.layers_mut();
    let oracle = lone.forward(&x, &Parallelism::serial()).unwrap();
    assert_eq!(model.prepared_weights().0, 0);

    let session = InferenceSession::open(shared_config()).unwrap();
    session.load_model(model.clone()).unwrap();
    let barrier = std::sync::Barrier::new(RACERS);
    let answers: Vec<Tensor> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..RACERS)
            .map(|i| {
                let (session, model, barrier, x) = (&session, &model, &barrier, &x);
                scope.spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        session
                            .infer_batch("Encoder-FC", x, Architecture::UdfCentric)
                            .unwrap()
                            .output
                            .into_dense()
                            .unwrap()
                    } else {
                        model.forward(x, &Parallelism::serial()).unwrap()
                    }
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer.data(), oracle.data());
    }
    assert_eq!(session.stats().prepared_weight_builds, layers);
    assert_eq!(model.prepared_weights().0 as u64, layers);
}
