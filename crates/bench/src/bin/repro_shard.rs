//! Distributed block-sharded serving: a coordinator frontend scattering
//! the decomposed first dense layer across N shard-worker *processes*
//! (§2.2 / §7.2.1's W×(D1⋈D2) = (W1×D1)⊕(W2×D2) identity, served over
//! the wire) and gathering partials back into one response. Measures
//! rows/s for an unsharded baseline and 1/2/4-worker fleets on the fraud
//! workload, checks every fleet bit-identical to the baseline, then
//! SIGKILLs a worker mid-stream and counts lost requests (the acceptance
//! bar is zero — the lost shard degrades to local execution). Emits
//! `BENCH_shard.json`.
//!
//! Workers are real child processes: the binary re-executes itself with
//! `RELSERVE_SHARD_ROLE=worker`, and each child prints its ephemeral
//! address on stdout for the parent to collect into the fleet list.
//!
//! Run with `cargo run --release --bin repro_shard`.

use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::{init::seeded_rng, zoo};
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::shard::WorkerHandle;
use relserve_serve::wire::Response;
use relserve_serve::{Client, ServeConfig, Server, ShardServeStats};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;
/// Role marker for self-exec: children serve shards, the parent measures.
const ROLE_ENV: &str = "RELSERVE_SHARD_ROLE";

/// One seed for the parent and every worker process: the whole fleet
/// serves the same frozen weights, so gathered answers are comparable
/// bit-for-bit against the unsharded baseline.
fn session() -> Arc<InferenceSession> {
    let config = SessionConfig::builder()
        .transfer(TransferProfile::instant())
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    session
        .load_model(zoo::fraud_fc_256(&mut seeded_rng(2024)).unwrap())
        .unwrap();
    Arc::new(session)
}

/// Child-process entry: serve shard requests until the parent kills us.
/// The handle must outlive the loop — dropping it closes the listener.
fn worker_main() -> ! {
    let handle = WorkerHandle::spawn(session(), None).expect("spawn shard worker");
    println!("ADDR {}", handle.addr());
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// A shard worker running as a real OS child process.
struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl WorkerProc {
    fn launch() -> WorkerProc {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .env(ROLE_ENV, "worker")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn worker process");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker address line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .expect("worker announces ADDR <addr>")
            .parse()
            .expect("worker address parses");
        WorkerProc { child, addr }
    }

    /// SIGKILL — no drain, no goodbye: the OS resets the worker's sockets
    /// and the coordinator sees exactly a process crash.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j) % 23) as f32 - 11.0) * 0.07)
        .collect()
}

/// Pipelined single-row flood: send all `n`, then collect in id order.
/// Returns per-request predictions plus the wall-clock seconds.
fn pump(addr: SocketAddr, n: usize) -> (Vec<Vec<u32>>, f64) {
    let mut client = Client::connect(addr).unwrap();
    let started = Instant::now();
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            client
                .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
                .unwrap()
        })
        .collect();
    let predictions = ids
        .iter()
        .map(|id| match client.wait(*id).unwrap() {
            Response::Infer { predictions, .. } => predictions,
            other => panic!("request {id} must be answered, got {other:?}"),
        })
        .collect();
    (predictions, started.elapsed().as_secs_f64())
}

fn serve_config(workers: Option<Vec<SocketAddr>>) -> ServeConfig {
    let mut builder = ServeConfig::builder().max_batch_rows(32);
    if let Some(fleet) = workers {
        builder = builder.workers(fleet);
    }
    builder.build().unwrap()
}

struct FleetLeg {
    workers: usize,
    rps: f64,
    matches_baseline: bool,
    stats: ShardServeStats,
}

/// Measure a `k`-worker fleet: launch `k` child processes, front them
/// with a coordinator server, warm the links (connect + slice install is
/// one-time cost, not steady state), then time the flood.
fn fleet_leg(k: usize, n: usize, baseline: &[Vec<u32>]) -> FleetLeg {
    let fleet: Vec<WorkerProc> = (0..k).map(|_| WorkerProc::launch()).collect();
    let server = Server::spawn(
        session(),
        serve_config(Some(fleet.iter().map(|w| w.addr).collect())),
    )
    .unwrap();
    let _ = pump(server.addr(), 16);
    let (predictions, secs) = pump(server.addr(), n);
    let stats = server.stats().shard;
    server.shutdown();
    FleetLeg {
        workers: k,
        rps: n as f64 / secs,
        matches_baseline: predictions == baseline,
        stats,
    }
}

struct ChaosLeg {
    requests: usize,
    answered: usize,
    lost: usize,
    matches_baseline: bool,
    stats: ShardServeStats,
}

/// Kill one of two worker processes while a pipelined stream is in
/// flight. Every request must still be answered — the dead worker's
/// shard degrades to local execution on the coordinator — and the
/// answers must stay bit-identical to the unsharded baseline.
fn chaos_leg(n: usize, baseline: &[Vec<u32>]) -> ChaosLeg {
    let mut fleet: Vec<WorkerProc> = (0..2).map(|_| WorkerProc::launch()).collect();
    let server = Server::spawn(
        session(),
        serve_config(Some(fleet.iter().map(|w| w.addr).collect())),
    )
    .unwrap();
    let _ = pump(server.addr(), 16);

    let mut client = Client::connect(server.addr()).unwrap();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        if i == n / 3 {
            fleet[1].kill();
        }
        ids.push(
            client
                .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
                .unwrap(),
        );
    }
    let mut predictions = Vec::with_capacity(n);
    for id in &ids {
        if let Ok(Response::Infer { predictions: p, .. }) = client.wait(*id) {
            predictions.push(p);
        }
    }
    let answered = predictions.len();
    let stats = server.stats().shard;
    server.shutdown();
    ChaosLeg {
        requests: n,
        answered,
        lost: n - answered,
        matches_baseline: predictions == baseline,
        stats,
    }
}

fn fleet_json(leg: &FleetLeg, baseline_rps: f64) -> String {
    format!(
        "    {{\n      \"workers\": {},\n      \"rows_per_sec\": {:.1},\n      \
         \"speedup_vs_unsharded\": {:.3},\n      \
         \"predictions_match_baseline\": {},\n      \
         \"scatter_batches\": {},\n      \"shard_execs_remote\": {},\n      \
         \"shards_degraded_local\": {},\n      \"worker_losses\": {}\n    }}",
        leg.workers,
        leg.rps,
        leg.rps / baseline_rps,
        leg.matches_baseline,
        leg.stats.scatter_batches,
        leg.stats.shard_execs_remote,
        leg.stats.shards_degraded_local,
        leg.stats.worker_losses,
    )
}

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("worker") {
        worker_main();
    }

    let n = 192usize;

    // Unsharded baseline: the same frontend, batcher, and wire path, with
    // no fleet configured — the answers every fleet must reproduce.
    let server = Server::spawn(session(), serve_config(None)).unwrap();
    let _ = pump(server.addr(), 16);
    let (baseline, secs) = pump(server.addr(), n);
    server.shutdown();
    let baseline_rps = n as f64 / secs;

    println!("sharded serving, {n} single-row Standard requests, fraud workload:");
    println!("  unsharded baseline      : {baseline_rps:>9.0} rows/s");
    let legs: Vec<FleetLeg> = [1usize, 2, 4]
        .iter()
        .map(|&k| {
            let leg = fleet_leg(k, n, &baseline);
            println!(
                "  {k} worker process(es)    : {:>9.0} rows/s  ({:.2}x, {} remote shard execs, identical answers: {})",
                leg.rps,
                leg.rps / baseline_rps,
                leg.stats.shard_execs_remote,
                leg.matches_baseline
            );
            assert!(
                leg.matches_baseline,
                "{k}-worker fleet must answer bit-identically to the baseline"
            );
            assert_eq!(leg.stats.worker_losses, 0, "no fleet losses in the clean legs");
            leg
        })
        .collect();

    let chaos = chaos_leg(96, &pump_baseline_for(96));
    println!(
        "chaos, SIGKILL one of 2 worker processes mid-stream, {} requests:",
        chaos.requests
    );
    println!(
        "  requests lost           : {:>9}     ({} answered, {} worker losses, {} shards degraded to local, identical answers: {})",
        chaos.lost,
        chaos.answered,
        chaos.stats.worker_losses,
        chaos.stats.shards_degraded_local,
        chaos.matches_baseline
    );
    assert_eq!(chaos.lost, 0, "a worker crash must not lose requests");
    assert!(
        chaos.matches_baseline,
        "degraded answers must stay identical"
    );

    let host_cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let fleet_json = legs
        .iter()
        .map(|l| fleet_json(l, baseline_rps))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"model\": \"{MODEL}\",\n  \
         \"requests\": {n},\n  \
         \"note\": \"workers are OS child processes sharing this host's {host_cores} core(s); on a single-core container the scaling curve validates correctness and protocol overhead, not multi-core speedup — rows/s scales with workers only when each worker process owns its own core(s). Re-run `cargo run --release --bin repro_shard` on a multi-core host for the scaling measurement.\",\n  \
         \"baseline_unsharded_rows_per_sec\": {baseline_rps:.1},\n  \
         \"scaling\": [\n{fleet_json}\n  ],\n  \
         \"chaos\": {{\n    \"workers\": 2,\n    \"requests\": {},\n    \
         \"answered\": {},\n    \"requests_lost\": {},\n    \
         \"worker_losses\": {},\n    \"shards_degraded_local\": {},\n    \
         \"predictions_match_baseline\": {}\n  }}\n}}\n",
        chaos.requests,
        chaos.answered,
        chaos.lost,
        chaos.stats.worker_losses,
        chaos.stats.shards_degraded_local,
        chaos.matches_baseline,
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}

/// Baseline answers for the chaos stream length, from a fresh unsharded
/// frontend over the same frozen weights.
fn pump_baseline_for(n: usize) -> Vec<Vec<u32>> {
    let server = Server::spawn(session(), serve_config(None)).unwrap();
    let (predictions, _) = pump(server.addr(), n);
    server.shutdown();
    predictions
}
