//! The distributed shard tier end to end: a serving frontend whose fused
//! batches scatter across worker processes' sessions and gather back,
//! checked bit-identical against a single-process frontend, through
//! worker crashes mid-stream (zero lost requests), and observable through
//! the Health opcode's fleet gauges.

use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::shard::WorkerHandle;
use relserve_serve::wire::Response;
use relserve_serve::{Client, HealthState, ServeConfig, Server};
use std::sync::Arc;

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;

fn fraud_session() -> Arc<InferenceSession> {
    let config = SessionConfig::builder()
        .db_memory_bytes(64 << 20)
        .buffer_pool_bytes(16 << 20)
        .memory_threshold_bytes(16 << 20)
        .block_size(64)
        .cores(2)
        .external_memory_bytes(64 << 20)
        .transfer(TransferProfile::instant())
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    // One seed everywhere: every frontend and worker in this file serves
    // the same frozen weights, so predictions are comparable bit-for-bit.
    session
        .load_model(zoo::fraud_fc_256(&mut seeded_rng(310)).unwrap())
        .unwrap();
    Arc::new(session)
}

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j * 7) % 23) as f32 - 11.0) * 0.07)
        .collect()
}

/// Run `n` pipelined single-row requests against a server and collect the
/// per-request predictions in submission order. Panics on any non-Infer
/// response — the shard suite's contract is that distribution never turns
/// an answerable request into an error.
fn pump(addr: std::net::SocketAddr, n: usize) -> Vec<Vec<u32>> {
    let mut client = Client::connect(addr).unwrap();
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            client
                .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
                .unwrap()
        })
        .collect();
    ids.iter()
        .map(|id| match client.wait(*id).unwrap() {
            Response::Infer { predictions, .. } => predictions,
            other => panic!("request {id} must be answered, got {other:?}"),
        })
        .collect()
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} not exported"))
        .1
}

/// A coordinator frontend with two workers serves the fraud workload end
/// to end, bit-identical to a single-process frontend over the same
/// weights, and the shard counters record remote execution.
#[test]
fn sharded_frontend_matches_single_process() {
    let w0 = WorkerHandle::spawn(fraud_session(), None).unwrap();
    let w1 = WorkerHandle::spawn(fraud_session(), None).unwrap();
    let sharded = Server::spawn(
        fraud_session(),
        ServeConfig::builder()
            .workers(vec![w0.addr(), w1.addr()])
            .build()
            .unwrap(),
    )
    .unwrap();
    let plain = Server::spawn(fraud_session(), ServeConfig::builder().build().unwrap()).unwrap();

    let n = 24;
    let from_sharded = pump(sharded.addr(), n);
    let from_plain = pump(plain.addr(), n);
    assert_eq!(
        from_sharded, from_plain,
        "scatter-gather must not change predictions"
    );

    let stats = sharded.stats();
    assert_eq!(stats.shard.workers_configured, 2);
    assert_eq!(stats.shard.workers_live, 2);
    assert!(stats.shard.scatter_batches >= 1, "batches were scattered");
    assert!(
        stats.shard.shard_execs_remote >= 2,
        "both workers executed shards"
    );
    assert_eq!(stats.shard.worker_losses, 0);
    assert_eq!(stats.shard.shards_degraded_local, 0);
    assert!(w0.shard_execs() >= 1 && w1.shard_execs() >= 1);

    // The wire Stats export carries the shard domain too.
    let mut client = Client::connect(sharded.addr()).unwrap();
    let exported = client.stats().unwrap();
    assert_eq!(counter(&exported, "serve.shard.workers_configured"), 2);
    assert_eq!(counter(&exported, "serve.shard.workers_live"), 2);
    assert!(counter(&exported, "serve.shard.scatter_batches") >= 1);

    sharded.shutdown();
    plain.shutdown();
    w0.shutdown();
    w1.shutdown();
}

/// Chaos: one worker dies mid-stream. Every in-flight and subsequent
/// request is still answered (requests_lost = 0), answers stay identical
/// to a single-process server, and the loss is visible in the stats and
/// the Health opcode's fleet gauges.
#[test]
fn worker_death_mid_stream_loses_no_requests() {
    let w0 = WorkerHandle::spawn(fraud_session(), None).unwrap();
    let w1 = WorkerHandle::spawn(fraud_session(), None).unwrap();
    let sharded = Server::spawn(
        fraud_session(),
        ServeConfig::builder()
            .workers(vec![w0.addr(), w1.addr()])
            .build()
            .unwrap(),
    )
    .unwrap();
    let plain = Server::spawn(fraud_session(), ServeConfig::builder().build().unwrap()).unwrap();

    let mut client = Client::connect(sharded.addr()).unwrap();
    let n = 30;
    let mut answers = Vec::with_capacity(n);
    for i in 0..n {
        if i == n / 3 {
            // Crash a worker between requests already in flight: the
            // coordinator's retry budget drains, then the shard degrades
            // to local execution — mid-batch, not at a tidy boundary.
            w1.kill();
        }
        let id = client
            .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
            .unwrap();
        answers.push((id, i));
    }
    let sent = answers.len();
    let mut got = 0usize;
    let mut predictions = Vec::with_capacity(sent);
    for (id, _) in answers {
        match client.wait(id).unwrap() {
            Response::Infer { predictions: p, .. } => {
                got += 1;
                predictions.push(p);
            }
            other => panic!("request {id} lost to the worker crash: {other:?}"),
        }
    }
    assert_eq!(got, sent, "requests_lost must be zero");
    assert_eq!(
        predictions,
        pump(plain.addr(), n),
        "degraded batches must answer bit-identically"
    );

    let stats = sharded.stats();
    assert_eq!(stats.shard.worker_losses, 1);
    assert_eq!(stats.shard.workers_live, 1);
    assert!(
        stats.shard.shards_degraded_local >= 1,
        "the dead worker's shards ran locally"
    );

    // Satellite: the Health payload carries the fleet gauges, so a plain
    // client observes the distribution state.
    let report = client.health().unwrap();
    assert_eq!(report.state, HealthState::Ok);
    assert_eq!(report.workers_live, 1);
    assert!(report.shards_degraded_local >= 1);

    sharded.shutdown();
    plain.shutdown();
    w0.shutdown();
}

/// Worker probes: WorkerHealth reports installed slices and served
/// executions; frontends reject shard opcodes with a typed error.
#[test]
fn worker_health_probe_and_frontend_rejection() {
    let w0 = WorkerHandle::spawn(fraud_session(), None).unwrap();
    let sharded = Server::spawn(
        fraud_session(),
        ServeConfig::builder()
            .workers(vec![w0.addr()])
            .build()
            .unwrap(),
    )
    .unwrap();
    let _ = pump(sharded.addr(), 4);

    let mut probe = Client::connect(w0.addr()).unwrap();
    let (state, assigned, execs) = probe.worker_health().unwrap();
    assert_eq!(state, HealthState::Ok);
    assert_eq!(assigned, 1, "one model slice installed");
    assert!(execs >= 1, "the worker served shard executions");

    // A frontend is not a worker: shard opcodes get a typed refusal.
    let mut front = Client::connect(sharded.addr()).unwrap();
    let err = front.worker_health();
    assert!(
        err.is_err(),
        "frontend must refuse worker opcodes, got {err:?}"
    );

    sharded.shutdown();
    w0.shutdown();
}
