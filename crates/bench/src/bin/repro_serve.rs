//! Serving-frontend throughput: dynamic micro-batching vs one request per
//! session call, and the §5.1/§7.2.2 semantic result cache fronting the
//! batcher. The served architecture is DL-centric over a modeled
//! ConnectorX-like wire (2 ms fixed latency per transfer), the fixed cost
//! the micro-batcher amortizes — the online-serving face of the paper's
//! Fig. 2 effect. Floods the loopback server with pipelined single-row
//! Standard requests and compares rows/s plus p50/p99 request latency
//! against (a) a serial one-request-per-`infer_batch` baseline, (b) the
//! same server with batching disabled (`max_batch_rows = 1`), and (c) a
//! cached server under a tolerance sweep (exact, near 5 %, near 100 %) on
//! a Zipf-skewed fraud stream, including the `RELSERVE_CACHE=off` kill
//! switch. A pressure-ladder leg replays the same deep flood with and
//! without a registered f32 → `@int8` ladder to measure the p99 effect of
//! stepping fused batches down to the quantized rung. Emits
//! `BENCH_serve.json`.
//!
//! Run with `cargo run --release --bin repro_serve`.

use relserve_bench::workloads::{jittered_row, skewed_request_stream};
use relserve_core::versions::PressureLadder;
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::quant::quantize_int8;
use relserve_nn::{init::seeded_rng, zoo};
use relserve_runtime::{Priority, RetryPolicy, RuntimeProfile, TransferProfile};
use relserve_serve::{
    CacheConfig, CacheTolerance, Client, ServeConfig, ServeStats, Server, CACHE_ENV,
};
use relserve_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;
/// Jitter magnitude for "same entity, new measurement" requests; its L2
/// displacement (~3e-3) sits well inside the cache's 0.05 near-hit radius.
const JITTER_EPS: f32 = 1e-3;

fn architecture() -> Architecture {
    Architecture::DlCentric(RuntimeProfile::tensorflow_like())
}

fn session() -> Arc<InferenceSession> {
    let config = SessionConfig::builder()
        .transfer(TransferProfile::local_connectorx())
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    let mut rng = seeded_rng(2024);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    Arc::new(session)
}

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j) % 23) as f32 - 11.0) * 0.07)
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct LegResult {
    rps: f64,
    avg_batch: f64,
    p50_ms: f64,
    p99_ms: f64,
    stats: ServeStats,
}

/// Drive `sequence` (pool-slot indices; every 8th request jittered when
/// `jitter` is set) as pipelined single-row Standard requests over
/// `clients` loopback connections; per-request latency is send→receive,
/// demultiplexed by request id.
///
/// Before timing starts, an untimed warm phase seeds every pool slot and
/// replays jittered variants so cache admissions land and the shadow
///-validation ledger can leave its pessimistic starting bound — the
/// steady state a long-running server converges to. Uncached legs run the
/// identical warm traffic for fairness.
fn run_leg(
    clients: usize,
    max_batch_rows: usize,
    cache: CacheConfig,
    sequence: &[usize],
    jitter: f32,
    pool: usize,
) -> LegResult {
    let cache_live = cache.enabled && !relserve_serve::cache_disabled_by_env();
    // Near tolerances keep a live Monte-Carlo bound; wait for enough warm
    // validations that the bound leaves its pessimistic 1.0 start before
    // measuring (bound-rejected warm probes validate for free, served warm
    // near-hits validate via sampled shadows).
    let need_validations = match cache.per_class[Priority::Standard.rank()] {
        CacheTolerance::Near { .. } if cache_live => cache.min_validations,
        _ => 0,
    };
    let warm_jittered = 6 * cache.min_validations as usize;
    let config = ServeConfig::builder()
        .max_batch_rows(max_batch_rows)
        .architecture(architecture())
        .cache(cache)
        .build()
        .unwrap();
    let server = Server::spawn(session(), config).unwrap();
    let addr = server.addr();
    let per_client = sequence.len() / clients;

    {
        let wait_for = |want: &dyn Fn(relserve_serve::CacheServeStats) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !want(server.stats().cache) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let mut warm = Client::connect(addr).unwrap();
        // Round 1: seed every pool slot, and wait until the demux-time
        // admissions land so round 2's probes can find neighbors.
        for slot in 0..pool {
            warm.send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(slot))
                .unwrap();
        }
        for _ in 0..pool {
            warm.recv().unwrap();
        }
        if cache_live {
            wait_for(&|c| c.insertions >= pool as u64);
        }
        // Round 2: jittered re-measurements accrue validations against the
        // seeded entries.
        for k in 0..warm_jittered {
            let data = jittered_row(&row(k % pool), JITTER_EPS, 1_000_000 + k as u64);
            warm.send_infer(MODEL, Priority::Standard, None, 1, WIDTH, data)
                .unwrap();
        }
        for _ in 0..warm_jittered {
            warm.recv().unwrap();
        }
        if need_validations > 0 {
            wait_for(&|c| c.validations >= need_validations);
        }
    }
    // Warm admissions land at demux, behind the warm responses; snapshot
    // the warm counters only once they stop moving so they aren't
    // misattributed to the measured flood.
    let warm_cache = {
        let mut prev = server.stats().cache;
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let cur = server.stats().cache;
            if cur == prev || Instant::now() > deadline {
                break cur;
            }
            prev = cur;
        }
    };

    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|tag| {
            let chunk: Vec<usize> = sequence[tag * per_client..(tag + 1) * per_client].to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent: HashMap<u64, Instant> = HashMap::with_capacity(chunk.len());
                for (i, &slot) in chunk.iter().enumerate() {
                    let global = tag * per_client + i;
                    let data = if jitter != 0.0 && global % 8 == 7 {
                        jittered_row(&row(slot), jitter, global as u64)
                    } else {
                        row(slot)
                    };
                    let id = client
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, data)
                        .unwrap();
                    sent.insert(id, Instant::now());
                }
                let mut latencies_ms = Vec::with_capacity(chunk.len());
                for _ in 0..chunk.len() {
                    match client.recv().unwrap() {
                        relserve_serve::wire::Response::Infer { id, .. } => {
                            let t0 = sent.remove(&id).expect("response id was sent");
                            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(sequence.len());
    for w in workers {
        latencies.extend(w.join().unwrap());
    }
    let secs = started.elapsed().as_secs_f64();
    // Let trailing demux-time admissions and shadow validations settle so
    // the reported counters cover the whole measured stream.
    std::thread::sleep(Duration::from_millis(50));
    let mut stats = server.stats();
    let avg_batch = stats.fused_rows as f64 / stats.batches.max(1) as f64;
    // Report flood-only cache counters (gauges stay at their final value).
    let c = &mut stats.cache;
    c.hits -= warm_cache.hits;
    c.near_hits -= warm_cache.near_hits;
    c.misses -= warm_cache.misses;
    c.bound_rejections -= warm_cache.bound_rejections;
    c.insertions -= warm_cache.insertions;
    c.evictions -= warm_cache.evictions;
    c.validations -= warm_cache.validations;
    c.disagreements -= warm_cache.disagreements;
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    LegResult {
        rps: (per_client * clients) as f64 / secs,
        avg_batch,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        stats,
    }
}

struct ScalePoint {
    connections: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    serve_threads: usize,
}

/// Count this process's live `serve-` threads (pollers + executors) via
/// `/proc/self/task`, proving the frontend holds its connection fan-in
/// with O(pollers) threads rather than one thread per connection.
fn serve_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim_end().starts_with("serve-"))
                .unwrap_or(false)
        })
        .count()
}

/// Reactor fan-in curve: hold `connections` mostly-idle connections open
/// while `clients` of them drive the same pipelined single-row flood, and
/// measure how active-path rows/s and p99 hold up as idle fan-in grows.
fn connection_scaling_leg(connections: usize, total: usize, clients: usize) -> ScalePoint {
    let config = ServeConfig::builder()
        .max_batch_rows(32)
        .architecture(architecture())
        .max_connections(connections + 64)
        .accept_backlog(connections.max(128) as u32)
        .build()
        .unwrap();
    let server = Server::spawn(session(), config).unwrap();
    let addr = server.addr();

    // Idle fan-in: connected, registered with the reactor, never speaking.
    let idle: Vec<Client> = (0..connections.saturating_sub(clients))
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.live_connections() < idle.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let serve_threads = serve_thread_count();

    let per_client = total / clients;
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|tag| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent: HashMap<u64, Instant> = HashMap::with_capacity(per_client);
                for i in 0..per_client {
                    let id = client
                        .send_infer(
                            MODEL,
                            Priority::Standard,
                            None,
                            1,
                            WIDTH,
                            row(tag * per_client + i),
                        )
                        .unwrap();
                    sent.insert(id, Instant::now());
                }
                let mut latencies_ms = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    match client.recv().unwrap() {
                        relserve_serve::wire::Response::Infer { id, .. } => {
                            let t0 = sent.remove(&id).expect("response id was sent");
                            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for w in workers {
        latencies.extend(w.join().unwrap());
    }
    let secs = started.elapsed().as_secs_f64();
    drop(idle);
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    ScalePoint {
        connections,
        rps: (per_client * clients) as f64 / secs,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        serve_threads,
    }
}

struct RecoveryResult {
    requests: u64,
    answered: u64,
    typed_errors: u64,
    lost: u64,
    reconnects: u64,
    injected_downtime_ms: f64,
    time_to_recover_ms: f64,
}

/// Recovery leg: hard-kill the server mid-stream, hold the port dark for a
/// deliberate downtime window, restart on the same address, and let the
/// self-healing clients reconnect and replay their unanswered requests.
/// The acceptance bar is zero lost acknowledged requests: every request a
/// worker submitted resolves to a typed outcome on the restarted server.
fn recovery_leg(total: usize, clients: usize) -> RecoveryResult {
    let config = ServeConfig::builder()
        .max_batch_rows(32)
        .architecture(architecture())
        .build()
        .unwrap();
    let server = Server::spawn(session(), config).unwrap();
    let addr = server.addr();
    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(5),
        jitter: 0.25,
    };
    let per_client = total / clients;

    let workers: Vec<_> = (0..clients)
        .map(|tag| {
            std::thread::spawn(move || {
                let mut client = Client::connect_resilient(addr, policy).unwrap();
                let mut attempted = 0u64;
                let mut answered = 0u64;
                let mut typed_errors = 0u64;
                // Windows of 8 pipelined requests: a kill mid-window leaves
                // several unanswered ids for the healed connection to replay.
                'stream: for window in 0..per_client.div_ceil(8) {
                    let base = window * 8;
                    let count = 8.min(per_client - base);
                    let mut ids = Vec::with_capacity(count);
                    for i in 0..count {
                        attempted += 1;
                        match client.send_infer(
                            MODEL,
                            Priority::Standard,
                            None,
                            1,
                            WIDTH,
                            row(tag * per_client + base + i),
                        ) {
                            Ok(id) => ids.push(id),
                            Err(_) => break 'stream,
                        }
                    }
                    for id in ids {
                        match client.wait(id) {
                            Ok(relserve_serve::wire::Response::Infer { .. }) => answered += 1,
                            Ok(_) => typed_errors += 1,
                            Err(_) => break 'stream,
                        }
                    }
                }
                (attempted, answered, typed_errors, client.reconnects())
            })
        })
        .collect();

    // Kill mid-stream. The standby session is built *before* the kill so
    // the measured recovery gap is bind + accept, not model loading.
    std::thread::sleep(Duration::from_millis(20));
    let standby = session();
    let killed_at = Instant::now();
    server.shutdown();
    let injected_downtime = Duration::from_millis(50);
    std::thread::sleep(injected_downtime);
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let config = ServeConfig::builder()
                .bind(addr)
                .max_batch_rows(32)
                .architecture(architecture())
                .build()
                .unwrap();
            match Server::spawn(Arc::clone(&standby), config) {
                Ok(s) => break s,
                Err(e) => assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr} after kill: {e}"
                ),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // Time to recover: kill instant → first successful inference against
    // the restarted server, observed by an independent healing probe.
    let mut probe = Client::connect_resilient(addr, policy).unwrap();
    match probe
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(0))
        .expect("probe inference after restart")
    {
        relserve_serve::wire::Response::Infer { .. } => {}
        other => panic!("unexpected probe response {other:?}"),
    }
    let time_to_recover_ms = killed_at.elapsed().as_secs_f64() * 1e3;

    let mut attempted = 0u64;
    let mut answered = 0u64;
    let mut typed_errors = 0u64;
    let mut reconnects = 0u64;
    for w in workers {
        let (a, ok, typed, r) = w.join().unwrap();
        attempted += a;
        answered += ok;
        typed_errors += typed;
        reconnects += r;
    }
    restarted.shutdown();
    RecoveryResult {
        requests: attempted,
        answered,
        typed_errors,
        lost: attempted - answered - typed_errors,
        reconnects,
        injected_downtime_ms: injected_downtime.as_secs_f64() * 1e3,
        time_to_recover_ms,
    }
}

struct LadderLeg {
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    stepped_responses: u64,
    step_downs: u64,
    restores: u64,
}

/// Model for the ladder leg: wide enough (76 → 3072 → 768) that the int8
/// rung's cheaper arithmetic outruns its per-batch activation-quantization
/// overhead — on the 28-wide fraud model the rung is latency-neutral.
const LADDER_MODEL: &str = "Encoder-FC";
const LADDER_WIDTH: usize = 76;

fn ladder_row(i: usize) -> Vec<f32> {
    (0..LADDER_WIDTH)
        .map(|j| (((i * 31 + j) % 23) as f32 - 11.0) * 0.07)
        .collect()
}

/// Session with the f32 model *and* its `@int8` quantized version loaded,
/// so a pressure ladder has a cheaper rung to step down to.
fn ladder_session() -> Arc<InferenceSession> {
    let config = SessionConfig::builder()
        .transfer(TransferProfile::local_connectorx())
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    let mut rng = seeded_rng(2024);
    let model = zoo::encoder_fc(&mut rng).unwrap();
    let int8 = quantize_int8(&model).unwrap().model;
    session.load_model(model).unwrap();
    session.load_model(int8).unwrap();
    Arc::new(session)
}

/// Ladder-fire leg: flood the server with pipelined multi-row requests deep
/// enough that the backlog crosses the ladder's `step_rows` threshold. With
/// `with_ladder` unset the identical flood runs rung 0 (f32) throughout —
/// the "pre step-down" baseline; with it set, fused batches past the
/// threshold execute the `@int8` rung and the measured p99 is the "post
/// step-down" latency under the same offered load.
fn ladder_leg(
    requests: usize,
    rows_per_request: usize,
    clients: usize,
    step_rows: usize,
    with_ladder: bool,
) -> LadderLeg {
    let mut builder = ServeConfig::builder()
        .max_batch_rows(32)
        .architecture(architecture());
    if with_ladder {
        builder = builder.ladder(
            LADDER_MODEL,
            PressureLadder::new(
                vec![LADDER_MODEL.to_string(), format!("{LADDER_MODEL}@int8")],
                step_rows,
            )
            .unwrap(),
        );
    }
    let config = builder.build().unwrap();
    let server = Server::spawn(ladder_session(), config).unwrap();
    let addr = server.addr();
    let per_client = requests / clients;

    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|tag| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent: HashMap<u64, Instant> = HashMap::with_capacity(per_client);
                for i in 0..per_client {
                    let mut data = Vec::with_capacity(rows_per_request * LADDER_WIDTH);
                    for r in 0..rows_per_request {
                        data.extend(ladder_row((tag * per_client + i) * rows_per_request + r));
                    }
                    let id = client
                        .send_infer(
                            LADDER_MODEL,
                            Priority::Standard,
                            None,
                            rows_per_request,
                            LADDER_WIDTH,
                            data,
                        )
                        .unwrap();
                    sent.insert(id, Instant::now());
                }
                let mut latencies_ms = Vec::with_capacity(per_client);
                let mut stepped = 0u64;
                for _ in 0..per_client {
                    match client.recv().unwrap() {
                        relserve_serve::wire::Response::Infer { id, model_used, .. } => {
                            let t0 = sent.remove(&id).expect("response id was sent");
                            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            if model_used.ends_with("@int8") {
                                stepped += 1;
                            }
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                (latencies_ms, stepped)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(requests);
    let mut stepped_responses = 0u64;
    for w in workers {
        let (lat, stepped) = w.join().unwrap();
        latencies.extend(lat);
        stepped_responses += stepped;
    }
    let secs = started.elapsed().as_secs_f64();
    let (step_downs, restores) = server
        .ladder_stats()
        .iter()
        .find(|(name, _)| name == LADDER_MODEL)
        .map(|(_, m)| (m.step_downs, m.restores))
        .unwrap_or((0, 0));
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    LadderLeg {
        rps: (per_client * clients * rows_per_request) as f64 / secs,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        stepped_responses,
        step_downs,
        restores,
    }
}

/// Cache config for the sweep: eager validation so the Monte-Carlo bound
/// goes live within the run instead of staying pessimistic for its whole
/// duration.
fn cache_config(enabled: bool, tolerance: CacheTolerance) -> CacheConfig {
    CacheConfig {
        enabled,
        per_class: [tolerance; 3],
        validate_every: 4,
        min_validations: 8,
        ..CacheConfig::default()
    }
}

fn cache_leg_json(name: &str, leg: &LegResult, baseline_rps: f64) -> String {
    let c = &leg.stats.cache;
    format!(
        "      {{\n        \"tolerance\": \"{name}\",\n        \
         \"rows_per_sec\": {:.1},\n        \
         \"speedup_vs_batched_uncached\": {:.3},\n        \
         \"p50_ms\": {:.3},\n        \"p99_ms\": {:.3},\n        \
         \"hit_rate\": {:.4},\n        \"hits\": {},\n        \
         \"near_hits\": {},\n        \"misses\": {},\n        \
         \"bound_rejections\": {},\n        \"insertions\": {},\n        \
         \"evictions\": {},\n        \"cache_bytes\": {},\n        \
         \"validations\": {},\n        \"disagreements\": {},\n        \
         \"error_bound_ppm\": {}\n      }}",
        leg.rps,
        leg.rps / baseline_rps,
        leg.p50_ms,
        leg.p99_ms,
        c.hit_rate(),
        c.hits,
        c.near_hits,
        c.misses,
        c.bound_rejections,
        c.insertions,
        c.evictions,
        c.bytes,
        c.validations,
        c.disagreements,
        c.error_bound_ppm,
    )
}

fn main() {
    let total = 512usize;
    let clients = 4usize;

    // Baseline: one admission + plan + connector transfer + kernel launch
    // per request, straight against the session (no batching, no wire).
    let s = session();
    let started = Instant::now();
    let mut serial_ms: Vec<f64> = Vec::with_capacity(total);
    for i in 0..total {
        let t0 = Instant::now();
        let batch = Tensor::from_vec([1, WIDTH], row(i)).unwrap();
        s.infer_batch(MODEL, &batch, architecture()).unwrap();
        serial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let session_rps = total as f64 / started.elapsed().as_secs_f64();
    serial_ms.sort_by(|a, b| a.total_cmp(b));

    let pool = 12usize;
    let skew = 1.1f64;

    // Uniform stream (every request a distinct row) for the batching
    // comparison: same wire path with batching disabled vs micro-batching.
    let uniform: Vec<usize> = (0..total).collect();
    let unbatched = run_leg(clients, 1, CacheConfig::default(), &uniform, 0.0, pool);
    let batched = run_leg(clients, 32, CacheConfig::default(), &uniform, 0.0, pool);

    println!("serving throughput, {total} single-row Standard requests, {clients} clients:");
    println!(
        "  session serial baseline : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms)",
        session_rps,
        percentile(&serial_ms, 50.0),
        percentile(&serial_ms, 99.0)
    );
    println!(
        "  server, batching off    : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms)",
        unbatched.rps, unbatched.p50_ms, unbatched.p99_ms
    );
    println!(
        "  server, micro-batching  : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms, avg fused batch {:.1} rows)",
        batched.rps, batched.p50_ms, batched.p99_ms, batched.avg_batch
    );
    println!(
        "  batched vs unbatched: {:.2}x, batched vs session-serial: {:.2}x",
        batched.rps / unbatched.rps,
        batched.rps / session_rps
    );

    // Cached serving on a Zipf-skewed fraud stream: a 12-account pool with
    // s = 1.1 hot-head skew; every 8th request is a jittered re-measurement
    // of its account (near-hit material). All cached legs and their
    // batched-uncached baseline share this exact stream.
    let stream = skewed_request_stream(total, pool, skew, 77);
    let skewed_uncached = run_leg(
        clients,
        32,
        CacheConfig::default(),
        &stream,
        JITTER_EPS,
        pool,
    );
    let exact = run_leg(
        clients,
        32,
        cache_config(true, CacheTolerance::Exact),
        &stream,
        JITTER_EPS,
        pool,
    );
    let near_tight = run_leg(
        clients,
        32,
        cache_config(
            true,
            CacheTolerance::Near {
                max_error_bound: 0.05,
            },
        ),
        &stream,
        JITTER_EPS,
        pool,
    );
    let near_loose = run_leg(
        clients,
        32,
        cache_config(
            true,
            CacheTolerance::Near {
                max_error_bound: 1.0,
            },
        ),
        &stream,
        JITTER_EPS,
        pool,
    );
    // Kill switch: identical cache-enabled config, force-disabled by env.
    std::env::set_var(CACHE_ENV, "off");
    let killed = run_leg(
        clients,
        32,
        cache_config(true, CacheTolerance::Exact),
        &stream,
        JITTER_EPS,
        pool,
    );
    std::env::remove_var(CACHE_ENV);

    println!("cached serving, zipf(s={skew}) over {pool} accounts, same stream for every leg:");
    println!(
        "  batched, uncached       : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms)",
        skewed_uncached.rps, skewed_uncached.p50_ms, skewed_uncached.p99_ms
    );
    for (name, leg) in [
        ("exact", &exact),
        ("near 5%", &near_tight),
        ("near 100%", &near_loose),
    ] {
        let c = &leg.stats.cache;
        println!(
            "  cached, {name:<15} : {:>9.0} rows/s  ({:.2}x, hit rate {:.0}%, {} near, bound {} ppm, p50 {:.2} ms, p99 {:.2} ms)",
            leg.rps,
            leg.rps / skewed_uncached.rps,
            c.hit_rate() * 100.0,
            c.near_hits,
            c.error_bound_ppm,
            leg.p50_ms,
            leg.p99_ms
        );
    }
    println!(
        "  RELSERVE_CACHE=off      : {:>9.0} rows/s  ({:.2}x vs uncached, {} probes)",
        killed.rps,
        killed.rps / skewed_uncached.rps,
        killed.stats.cache.hits + killed.stats.cache.misses
    );

    // Connection-scaling curve: the same active flood under growing idle
    // fan-in. Each point needs ~2 fds per connection (client + server
    // side), so cap the curve to what the fd rlimit can hold.
    let fd_budget = relserve_bench::fd_soft_limit().saturating_sub(128) / 2;
    let scale_points: Vec<ScalePoint> = [16usize, 256, 1024, 4096]
        .iter()
        .copied()
        .filter(|&c| c <= fd_budget)
        .map(|c| connection_scaling_leg(c, total, clients))
        .collect();
    println!("connection scaling, {total} active requests over {clients} of N connections:");
    for p in &scale_points {
        println!(
            "  {:>5} connections       : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms, {} serve threads)",
            p.connections, p.rps, p.p50_ms, p.p99_ms, p.serve_threads
        );
    }

    // Pressure-ladder fire: the same deep multi-row flood with and without
    // a registered f32 → @int8 ladder. Past the step threshold the ladder
    // leg's fused batches execute the int8 rung, so its p99 is the
    // post-step-down latency under identical offered load.
    let ladder_requests = 192usize;
    let ladder_rows = 4usize;
    let ladder_step = 64usize;
    let pre = ladder_leg(ladder_requests, ladder_rows, clients, ladder_step, false);
    let post = ladder_leg(ladder_requests, ladder_rows, clients, ladder_step, true);
    println!(
        "pressure ladder, {LADDER_MODEL}, {ladder_requests} pipelined {ladder_rows}-row requests, step at {ladder_step} backlog rows:"
    );
    println!(
        "  ladder off (all f32)    : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms)",
        pre.rps, pre.p50_ms, pre.p99_ms
    );
    println!(
        "  ladder on  (f32→int8)   : {:>9.0} rows/s  (p50 {:.2} ms, p99 {:.2} ms, {} of {} responses on @int8, {} step-downs, {} restores)",
        post.rps,
        post.p50_ms,
        post.p99_ms,
        post.stepped_responses,
        ladder_requests,
        post.step_downs,
        post.restores
    );
    println!(
        "  p99 ladder-on vs ladder-off: {:.2}x",
        post.p99_ms / pre.p99_ms
    );

    // Recovery: kill the server mid-stream, restart on the same address,
    // and measure time-to-recover plus acknowledged requests lost.
    let recovery = recovery_leg(256, clients);
    println!(
        "recovery, kill + restart mid-stream, {} requests:",
        recovery.requests
    );
    println!(
        "  time to recover         : {:>9.1} ms  (injected downtime {:.0} ms)",
        recovery.time_to_recover_ms, recovery.injected_downtime_ms
    );
    println!(
        "  requests lost           : {:>9}     ({} answered, {} typed errors, {} reconnects)",
        recovery.lost, recovery.answered, recovery.typed_errors, recovery.reconnects
    );

    let host_cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let scaling_json = scale_points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"connections\": {},\n      \
                 \"rows_per_sec\": {:.1},\n      \
                 \"p50_ms\": {:.3},\n      \"p99_ms\": {:.3},\n      \
                 \"serve_threads\": {}\n    }}",
                p.connections, p.rps, p.p50_ms, p.p99_ms, p.serve_threads
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"model\": \"{MODEL}\",\n  \"requests\": {total},\n  \"clients\": {clients},\n  \
         \"session_serial_rows_per_sec\": {session_rps:.1},\n  \
         \"session_serial_p50_ms\": {:.3},\n  \"session_serial_p99_ms\": {:.3},\n  \
         \"server_unbatched_rows_per_sec\": {:.1},\n  \
         \"server_unbatched_p50_ms\": {:.3},\n  \"server_unbatched_p99_ms\": {:.3},\n  \
         \"server_batched_rows_per_sec\": {:.1},\n  \
         \"server_batched_p50_ms\": {:.3},\n  \"server_batched_p99_ms\": {:.3},\n  \
         \"avg_fused_batch_rows\": {:.2},\n  \
         \"speedup_batched_vs_unbatched\": {:.3},\n  \
         \"speedup_batched_vs_session_serial\": {:.3},\n  \
         \"cached_serving\": {{\n    \
         \"workload\": \"zipf(s={skew}) over {pool} slots, {total} single-row requests, every 8th jittered by {JITTER_EPS}\",\n    \
         \"batched_uncached_rows_per_sec\": {:.1},\n    \
         \"batched_uncached_p50_ms\": {:.3},\n    \"batched_uncached_p99_ms\": {:.3},\n    \
         \"cache_off_env_rows_per_sec\": {:.1},\n    \
         \"cache_off_env_probes\": {},\n    \
         \"tolerance_sweep\": [\n{}\n    ]\n  }},\n  \
         \"connection_scaling\": [\n{scaling_json}\n  ],\n  \
         \"pressure_ladder\": {{\n    \
         \"note\": \"small host (see host_cores): clients, pollers and the executors share its cores, so absolute latencies are inflated and noisy; compare the two legs relatively\",\n    \
         \"model\": \"{LADDER_MODEL}\",\n    \
         \"requests\": {ladder_requests},\n    \"rows_per_request\": {ladder_rows},\n    \
         \"step_rows\": {ladder_step},\n    \
         \"pre_stepdown_rows_per_sec\": {:.1},\n    \
         \"pre_stepdown_p50_ms\": {:.3},\n    \"pre_stepdown_p99_ms\": {:.3},\n    \
         \"post_stepdown_rows_per_sec\": {:.1},\n    \
         \"post_stepdown_p50_ms\": {:.3},\n    \"post_stepdown_p99_ms\": {:.3},\n    \
         \"p99_ratio_post_vs_pre\": {:.3},\n    \
         \"stepped_responses\": {},\n    \"step_downs\": {},\n    \"restores\": {}\n  }},\n  \
         \"recovery\": {{\n    \
         \"requests\": {},\n    \"answered\": {},\n    \
         \"typed_errors\": {},\n    \"requests_lost\": {},\n    \
         \"client_reconnects\": {},\n    \
         \"injected_downtime_ms\": {:.1},\n    \
         \"time_to_recover_ms\": {:.1}\n  }}\n}}\n",
        percentile(&serial_ms, 50.0),
        percentile(&serial_ms, 99.0),
        unbatched.rps,
        unbatched.p50_ms,
        unbatched.p99_ms,
        batched.rps,
        batched.p50_ms,
        batched.p99_ms,
        batched.avg_batch,
        batched.rps / unbatched.rps,
        batched.rps / session_rps,
        skewed_uncached.rps,
        skewed_uncached.p50_ms,
        skewed_uncached.p99_ms,
        killed.rps,
        killed.stats.cache.hits + killed.stats.cache.misses,
        [
            cache_leg_json("exact", &exact, skewed_uncached.rps),
            cache_leg_json("near_0.05", &near_tight, skewed_uncached.rps),
            cache_leg_json("near_1.0", &near_loose, skewed_uncached.rps),
        ]
        .join(",\n"),
        pre.rps,
        pre.p50_ms,
        pre.p99_ms,
        post.rps,
        post.p50_ms,
        post.p99_ms,
        post.p99_ms / pre.p99_ms,
        post.stepped_responses,
        post.step_downs,
        post.restores,
        recovery.requests,
        recovery.answered,
        recovery.typed_errors,
        recovery.lost,
        recovery.reconnects,
        recovery.injected_downtime_ms,
        recovery.time_to_recover_ms,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
