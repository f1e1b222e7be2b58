//! The serving frontend end to end over loopback TCP: dynamic
//! micro-batching with per-connection demultiplexing, priority/SLA
//! admission classes under saturation, deadline rejection before batch
//! admission, SLA version step-down, and fault-injected degradation
//! surfaced in per-request wire responses.

use relserve_core::versions::PressureLadder;
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::zoo;
use relserve_runtime::{
    AdmissionPolicy, FaultConfig, FaultInjector, Priority, RuntimeProfile, TransferProfile,
};
use relserve_serve::wire::{self, ErrorCode, Response};
use relserve_serve::{Client, ServeConfig, ServeStats, Server, ServerHandle};
use relserve_tensor::Tensor;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;
const CORES: usize = 2;

fn small_config() -> SessionConfig {
    SessionConfig::builder()
        .db_memory_bytes(64 << 20)
        .buffer_pool_bytes(16 << 20)
        .memory_threshold_bytes(16 << 20)
        .block_size(64)
        .cores(CORES)
        .external_memory_bytes(64 << 20)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap()
}

fn fraud_session() -> Arc<InferenceSession> {
    let session = InferenceSession::open(small_config()).unwrap();
    let mut rng = seeded_rng(310);
    let model = zoo::fraud_fc_256(&mut rng).unwrap();
    let int8 = quantize_int8(&model).unwrap().model;
    session.load_model(model).unwrap();
    session.load_model(int8).unwrap();
    Arc::new(session)
}

fn spawn_server(config: ServeConfig) -> ServerHandle {
    Server::spawn(fraud_session(), config).unwrap()
}

fn row(tag: usize, i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((tag * 131 + i * 31 + j) % 19) as f32 - 9.0) * 0.085)
        .collect()
}

/// Poll the server's counters until `cond` holds (bounded: a stuck server
/// fails the test instead of hanging it).
fn wait_for(server: &ServerHandle, what: &str, cond: impl Fn(&ServeStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond(&server.stats()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing from {stats:?}"))
        .1
}

/// Single-row requests from concurrent connections coalesce into fused
/// batches, and every connection gets back exactly its own ids with
/// predictions matching the serial per-connection oracle — demux never
/// crosses connections.
#[test]
fn coalesced_predictions_match_oracle_and_never_cross_connections() {
    let config = ServeConfig::builder()
        .max_batch_rows(16)
        .executors(1)
        .build()
        .unwrap();
    let server = spawn_server(config);
    let addr = server.addr();
    let session = Arc::clone(server.session());

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 12;
    // Batches form from what queues while executors are busy: hold every
    // core so the one executor blocks in admission on whatever it took
    // first, and the rest must queue behind it.
    let hold = session.coordinator().admit(CORES).unwrap();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|tag| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent = HashMap::new();
                for i in 0..PER_CLIENT {
                    let data = row(tag, i);
                    let id = client
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, data.clone())
                        .unwrap();
                    sent.insert(id, data);
                }
                let mut got: HashMap<u64, Vec<u32>> = HashMap::new();
                for _ in 0..PER_CLIENT {
                    match client.recv().unwrap() {
                        Response::Infer {
                            id, predictions, ..
                        } => {
                            assert!(sent.contains_key(&id), "foreign id {id} on this connection");
                            assert!(got.insert(id, predictions).is_none(), "duplicate id {id}");
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                // Serial oracle for exactly this connection's rows.
                for (id, data) in sent {
                    let batch = Tensor::from_vec([1, WIDTH], data).unwrap();
                    let oracle = session
                        .infer_batch(MODEL, &batch, Architecture::UdfCentric)
                        .unwrap()
                        .predictions()
                        .unwrap();
                    let wire: Vec<usize> = got[&id].iter().map(|p| *p as usize).collect();
                    assert_eq!(wire, oracle, "prediction mismatch for id {id}");
                }
            })
        })
        .collect();
    wait_for(&server, "every request to be read", |s| {
        s.requests == (CLIENTS * PER_CLIENT) as u64
    });
    drop(hold);
    for w in workers {
        w.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.requests, (CLIENTS * PER_CLIENT) as u64);
    assert!(
        stats.batches < stats.requests,
        "{} requests should fuse into fewer than {} batches",
        stats.requests,
        stats.batches
    );
    server.shutdown();
}

/// Property-style bound check: over randomized request sizes, no fused
/// batch ever exceeds `max_batch_rows`, and every response carries exactly
/// the requested number of row predictions.
#[test]
fn fused_batches_respect_the_row_bound_for_random_request_sizes() {
    for seed in [3u64, 17, 99] {
        let config = ServeConfig::builder().max_batch_rows(16).build().unwrap();
        let server = spawn_server(config);
        let mut client = Client::connect(server.addr()).unwrap();

        // Deterministic pseudo-random sizes in 1..=9 (always under the
        // 16-row bound, so no single request can exceed it alone).
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 9 + 1) as usize
        };
        let mut expected = HashMap::new();
        for i in 0..40 {
            let rows = next();
            let mut data = Vec::with_capacity(rows * WIDTH);
            for r in 0..rows {
                data.extend(row(i, r));
            }
            let id = client
                .send_infer(MODEL, Priority::Standard, None, rows, WIDTH, data)
                .unwrap();
            expected.insert(id, rows);
        }
        for _ in 0..40 {
            match client.recv().unwrap() {
                Response::Infer {
                    id, predictions, ..
                } => {
                    assert_eq!(predictions.len(), expected[&id], "row count for id {id}");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        let stats = server.stats();
        assert!(
            stats.max_batch_rows_seen <= 16,
            "seed {seed}: fused batch of {} rows exceeds the 16-row bound",
            stats.max_batch_rows_seen
        );
        assert!(stats.batches >= 1);
        server.shutdown();
    }
}

/// Eight concurrent mixed-priority clients: the batcher flushes
/// interactive groups first, so interactive p99 buffered wait stays below
/// batch-class p99.
#[test]
fn interactive_p99_queue_wait_beats_batch_under_mixed_load() {
    let config = ServeConfig::builder()
        .max_batch_rows(8)
        .executors(1) // one drain lane => priority picks the order
        .build()
        .unwrap();
    let server = spawn_server(config);
    let addr = server.addr();
    // Priority orders what is *queued*: hold every core until the whole
    // load has been read, so it all queues behind the one busy executor.
    let hold = server.session().coordinator().admit(CORES).unwrap();

    const PER_CLIENT: usize = 12;
    let classes = [
        Priority::Interactive,
        Priority::Batch,
        Priority::Interactive,
        Priority::Batch,
        Priority::Interactive,
        Priority::Batch,
        Priority::Interactive,
        Priority::Batch,
    ];
    let workers: Vec<_> = classes
        .iter()
        .enumerate()
        .map(|(tag, &class)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..PER_CLIENT {
                    client
                        .send_infer(MODEL, class, None, 2, WIDTH, {
                            let mut d = row(tag, i);
                            d.extend(row(tag, i + 1));
                            d
                        })
                        .unwrap();
                }
                let mut waits = Vec::with_capacity(PER_CLIENT);
                for _ in 0..PER_CLIENT {
                    match client.recv().unwrap() {
                        Response::Infer {
                            queue_wait_micros, ..
                        } => waits.push(queue_wait_micros),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                (class, waits)
            })
        })
        .collect();

    wait_for(&server, "the whole load to be read", |s| {
        s.requests == (classes.len() * PER_CLIENT) as u64
    });
    drop(hold);
    let mut by_class: HashMap<Priority, Vec<u64>> = HashMap::new();
    for w in workers {
        let (class, waits) = w.join().unwrap();
        by_class.entry(class).or_default().extend(waits);
    }
    let p99 = |mut v: Vec<u64>| -> u64 {
        v.sort_unstable();
        v[(v.len() * 99).div_ceil(100).saturating_sub(1)]
    };
    let interactive = p99(by_class.remove(&Priority::Interactive).unwrap());
    let batch = p99(by_class.remove(&Priority::Batch).unwrap());
    assert!(
        interactive < batch,
        "interactive p99 queue wait {interactive}µs should beat batch {batch}µs"
    );
    server.shutdown();
}

/// A deadline that expires while the request is buffered is rejected with
/// `DeadlineExceeded` *before* batch admission: the coordinator's
/// per-class deadline ledger stays untouched, and the co-batched request
/// still succeeds (the stale member never poisons the fused batch).
#[test]
fn buffered_deadline_expiry_is_rejected_before_admission() {
    // Requests buffer only behind busy executors: hold every core so the
    // single executor blocks in admission on a plug request, and the tight
    // deadline expires while its request queues behind it.
    let config = ServeConfig::builder()
        .executors(1)
        .max_batch_rows(64)
        .build()
        .unwrap();
    let server = spawn_server(config);
    let mut client = Client::connect(server.addr()).unwrap();

    let hold = server.session().coordinator().admit(CORES).unwrap();
    let plug = client
        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(0, 0))
        .unwrap();
    wait_for(&server, "the executor to take the plug", |s| s.batches == 1);
    let doomed = client
        .send_infer(
            MODEL,
            Priority::Standard,
            Some(Duration::from_millis(1)),
            1,
            WIDTH,
            row(1, 0),
        )
        .unwrap();
    let healthy = client
        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(2, 0))
        .unwrap();
    wait_for(&server, "both requests to buffer", |s| s.requests == 3);
    std::thread::sleep(Duration::from_millis(5)); // outlive the 1 ms deadline
    drop(hold);

    let mut rejected = false;
    let mut completed = Vec::new();
    for _ in 0..3 {
        match client.recv().unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (doomed, ErrorCode::DeadlineExceeded));
                rejected = true;
            }
            Response::Infer {
                id, predictions, ..
            } => {
                assert_eq!(predictions.len(), 1);
                completed.push(id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(rejected);
    assert_eq!(completed, [plug, healthy]);

    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.deadline_rejected"), 1);
    assert_eq!(
        counter(&stats, "serve.batches"),
        2,
        "plug, then healthy alone"
    );
    // Rejection happened at the serve layer, not in the admission queue.
    assert_eq!(counter(&stats, "admission.standard.deadline_expired"), 0);
    server.shutdown();
}

/// Under a fully held machine, batch-class requests shed on their short
/// admission timeout while an interactive request queues through and
/// completes — visible both in wire responses and per-class
/// `AdmissionStats`.
#[test]
fn batch_sheds_while_interactive_completes_under_saturation() {
    // Batch gives up admission after 5ms; interactive keeps its patient
    // class default.
    let mut batch_policy = AdmissionPolicy::for_class(Priority::Batch);
    batch_policy.queue_timeout = Some(Duration::from_millis(5));
    let config = ServeConfig::builder()
        .executors(2)
        .admission(Priority::Batch, batch_policy)
        .build()
        .unwrap();
    let server = spawn_server(config);
    let addr = server.addr();
    let session = Arc::clone(server.session());

    // Hold every core so fused batches must queue for admission.
    let hold = session.coordinator().admit(CORES).unwrap();

    let mut batch_client = Client::connect(addr).unwrap();
    let mut batch_ids = Vec::new();
    for i in 0..4usize {
        batch_ids.push(
            batch_client
                .send_infer(MODEL, Priority::Batch, None, 1, WIDTH, row(3, i))
                .unwrap(),
        );
    }
    let interactive = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .infer(MODEL, Priority::Interactive, None, 1, WIDTH, row(4, 0))
            .unwrap()
    });

    std::thread::sleep(Duration::from_millis(60));
    drop(hold);

    let resp = interactive.join().unwrap();
    assert!(
        matches!(resp, Response::Infer { .. }),
        "interactive should complete once the hold lifts, got {resp:?}"
    );
    let mut shed = 0;
    for _ in 0..batch_ids.len() {
        match batch_client.recv().unwrap() {
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => shed += 1,
            Response::Infer { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(shed >= 1, "at least one batch fused batch sheds on timeout");

    let stats = batch_client.stats().unwrap();
    assert!(counter(&stats, "admission.batch.shed") >= 1);
    assert!(counter(&stats, "admission.interactive.admitted") >= 1);
    assert_eq!(counter(&stats, "admission.interactive.shed"), 0);
    server.shutdown();
}

/// Backlog pressure steps fused batches down the registered version
/// ladder; responses report the cheaper `model_used`.
#[test]
fn backlog_pressure_steps_down_the_version_ladder() {
    let config = ServeConfig::builder()
        .max_batch_rows(8)
        .executors(1)
        .ladder(
            MODEL,
            PressureLadder::new(vec![MODEL.to_string(), format!("{MODEL}@int8")], 16).unwrap(),
        )
        .build()
        .unwrap();
    let server = spawn_server(config);
    let mut client = Client::connect(server.addr()).unwrap();

    for i in 0..40usize {
        client
            .send_infer(MODEL, Priority::Batch, None, 4, WIDTH, {
                let mut d = Vec::new();
                for r in 0..4 {
                    d.extend(row(i, r));
                }
                d
            })
            .unwrap();
    }
    let mut stepped = 0;
    for _ in 0..40 {
        match client.recv().unwrap() {
            Response::Infer { model_used, .. } => {
                if model_used == format!("{MODEL}@int8") {
                    stepped += 1;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(stepped >= 1, "deep backlog should reach the int8 rung");
    // The per-model ladder ledger saw the step-downs (keyed by the
    // *requested* model name) and, once the backlog drained, the restore
    // back to rung 0.
    let ladder = server.ladder_stats();
    let (_, m) = ladder
        .iter()
        .find(|(name, _)| name == MODEL)
        .expect("ladder stats for the requested model");
    assert!(m.step_downs >= 1, "ladder ledger missed the step-downs");
    assert_eq!(
        m.current_rung, 0,
        "drained backlog should restore rung 0 (restores={})",
        m.restores
    );
    assert!(m.restores >= 1, "return to rung 0 should count a restore");
    // The same ledger is visible over the wire Stats opcode, replacing the
    // old global serve.step_downs counter.
    let stats = client.stats().unwrap();
    assert!(counter(&stats, &format!("serve.ladder.{MODEL}.step_downs")) >= 1);
    assert!(counter(&stats, &format!("serve.ladder.{MODEL}.restores")) >= 1);
    assert!(!stats.iter().any(|(n, _)| n == "serve.step_downs"));
    server.shutdown();
}

/// With a dead connector wire, a DL-centric fused batch degrades to
/// relation-centric execution and every member's wire response carries
/// `degraded_to` — per-request status survives the network hop.
#[test]
fn degraded_to_crosses_the_wire_under_injected_faults() {
    let session = InferenceSession::open(small_config()).unwrap();
    let mut rng = seeded_rng(310);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    // A wire that always fails: transfers to the external runtime can
    // never succeed, so the session's degradation ladder must kick in.
    let session = session.with_fault_injector(FaultInjector::new(FaultConfig::flaky_wire(7, 1.0)));

    let config = ServeConfig::builder()
        .architecture(Architecture::DlCentric(RuntimeProfile::tensorflow_like()))
        .build()
        .unwrap();
    let server = Server::spawn(Arc::new(session), config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let a = client
        .send_infer(MODEL, Priority::Standard, None, 2, WIDTH, {
            let mut d = row(5, 0);
            d.extend(row(5, 1));
            d
        })
        .unwrap();
    let b = client
        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(6, 0))
        .unwrap();
    let mut seen = 0;
    for _ in 0..2 {
        match client.recv().unwrap() {
            Response::Infer {
                id,
                degraded_to,
                predictions,
                ..
            } => {
                assert!(id == a || id == b);
                assert_eq!(
                    degraded_to.as_deref(),
                    Some("relation-centric"),
                    "fused batch must report its degradation per request"
                );
                assert_eq!(predictions.len(), if id == a { 2 } else { 1 });
                seen += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(seen, 2);
    let stats = client.stats().unwrap();
    assert!(counter(&stats, "session.degradations") >= 1);
    assert!(counter(&stats, "session.wire_transient_failures") >= 1);
    server.shutdown();
}

/// An undecodable frame gets one error response carrying the reserved
/// connection-level id 0, then the server closes the connection — a
/// corrupt frame stream is never left to mis-attribute later errors. A
/// crafted frame whose `rows × cols × 4` wraps to 0 in release builds is
/// rejected the same way instead of panicking the connection thread.
#[test]
fn undecodable_frames_answer_id_zero_and_close_the_connection() {
    let server = spawn_server(ServeConfig::default());

    for payload in [
        b"\xFFgarbage".to_vec(),
        // Infer op, id 1, standard class, no deadline, model "m", then a
        // hostile 2^31 x 2^31 shape with no data behind it.
        {
            let mut p = vec![0u8];
            p.extend_from_slice(&1u64.to_le_bytes());
            p.push(1);
            p.extend_from_slice(&0u64.to_le_bytes());
            p.extend_from_slice(&1u16.to_le_bytes());
            p.push(b'm');
            p.extend_from_slice(&(1u32 << 31).to_le_bytes());
            p.extend_from_slice(&(1u32 << 31).to_le_bytes());
            p
        },
    ] {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        wire::write_frame(&mut writer, &payload).unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::decode_response(&resp).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 0, "connection-level errors use the reserved id");
                assert_eq!(code, ErrorCode::Invalid);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(
            wire::read_frame(&mut reader).unwrap().is_none(),
            "server must close the connection after an undecodable frame"
        );
    }
    assert!(server.stats().wire_errors >= 2);
    server.shutdown();
}

/// A request whose frame the server would refuse (over the frame cap) is a
/// typed `Wire` error on the client before any byte is sent: the resilient
/// client does not heal and replay it, and the same connection goes on
/// serving the next request.
#[test]
fn oversized_requests_are_refused_client_side_and_the_connection_survives() {
    let server = spawn_server(ServeConfig::default());
    let mut client =
        Client::connect_resilient(server.addr(), relserve_serve::retry_policy_from_env()).unwrap();
    // A zeroed Vec is never touched by the refusal, so this costs no RSS.
    let values = wire::MAX_FRAME_BYTES / 4;
    let err = client
        .send_infer(
            MODEL,
            Priority::Standard,
            None,
            1,
            values,
            vec![0.0; values],
        )
        .unwrap_err();
    assert!(matches!(err, relserve_serve::Error::Wire(_)), "{err:?}");
    match client
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(0, 0))
        .unwrap()
    {
        Response::Infer { predictions, .. } => assert_eq!(predictions.len(), 1),
        other => panic!("expected predictions, got {other:?}"),
    }
    assert_eq!(client.reconnects(), 0, "nothing was sent that could sever");
    assert_eq!(server.stats().wire_errors, 0);
    server.shutdown();
}

/// Closed connections deregister themselves from the server's live table,
/// so long-running servers don't leak per-connection state.
#[test]
fn closed_connections_deregister_from_the_live_table() {
    let server = spawn_server(ServeConfig::default());
    let clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() < 4 {
        assert!(Instant::now() < deadline, "connections never registered");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(clients);
    while server.live_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still registered after all clients hung up",
            server.live_connections()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
}

/// The Stats opcode exports serve, session and per-class admission
/// counters in one snapshot, without the server holding locks across the
/// socket write.
#[test]
fn stats_opcode_exports_all_three_counter_domains() {
    let server = spawn_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .infer(MODEL, Priority::Interactive, None, 1, WIDTH, row(7, 0))
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.requests"), 1);
    assert_eq!(counter(&stats, "serve.interactive.requests"), 1);
    assert_eq!(counter(&stats, "serve.interactive.completed"), 1);
    assert!(counter(&stats, "serve.batches") >= 1);
    assert!(counter(&stats, "admission.interactive.admitted") >= 1);
    // Session counters ride along under their own prefix.
    assert!(stats.iter().any(|(n, _)| n == "session.kernel_panics"));
    server.shutdown();
}
