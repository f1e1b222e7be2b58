//! The semantic result cache on the serving hot path, end to end over
//! loopback TCP: repeat traffic answered with no admission ticket and no
//! kernel launch, per-connection response ordering preserved when cached
//! and uncached answers interleave, governor-bounded capacity with
//! evictions observable over the Stats opcode, and the `RELSERVE_CACHE`
//! kill switch.
//!
//! Every assertion is env-aware: under `RELSERVE_CACHE=off` the same
//! scenarios must behave exactly like the uncached server (zero hits),
//! so CI runs this file in both legs of the matrix.

use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::wire::Response;
use relserve_serve::{
    cache_disabled_by_env, CacheConfig, CacheTolerance, Client, ServeConfig, Server, ServerHandle,
};
use std::sync::Arc;
use std::time::Duration;

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
    let mut rng = seeded_rng(808);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    Arc::new(session)
}

fn spawn_cached(cache: CacheConfig) -> ServerHandle {
    Server::spawn(
        fraud_session(),
        ServeConfig::builder()
            .max_batch_rows(16)
            .cache(cache)
            .build()
            .unwrap(),
    )
    .unwrap()
}

fn row(tag: usize, i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((tag * 131 + i * 31 + j) % 19) as f32 - 9.0) * 0.085)
        .collect()
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

/// Cache population happens at demux *after* the responses are written, so
/// a Stats probe sent right behind the last response can race the final
/// admit. Poll until `name` reaches `want` (or time out and return the
/// last snapshot for the caller's assertion to report).
fn stats_when_at_least(client: &mut Client, name: &str, want: u64) -> Vec<(String, u64)> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().unwrap();
        if counter(&stats, name) >= want || std::time::Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Warm round then repeat round: with the cache on, the repeats add zero
/// fused batches and zero session admissions — the whole point of probing
/// before the coordinator ticket. With `RELSERVE_CACHE=off`, hits stay 0.
#[test]
fn repeat_round_adds_no_batches_and_no_admissions() {
    let server = spawn_cached(CacheConfig {
        enabled: true,
        per_class: [CacheTolerance::Exact; 3],
        ..CacheConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    const N: usize = 12;
    for i in 0..N {
        let resp = client
            .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(1, i))
            .unwrap();
        assert!(matches!(resp, Response::Infer { .. }));
    }
    // Population is asynchronous to the responses: wait for the warm
    // round's admits to land before the repeat round relies on them.
    let warm = if cache_disabled_by_env() {
        client.stats().unwrap()
    } else {
        stats_when_at_least(&mut client, "serve.cache.insertions", N as u64)
    };
    let warm_batches = counter(&warm, "serve.batches");
    let warm_admitted = counter(&warm, "session.admitted");

    for i in 0..N {
        match client
            .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(1, i))
            .unwrap()
        {
            Response::Infer { cached, .. } => {
                assert_eq!(
                    cached,
                    !cache_disabled_by_env(),
                    "repeat {i}: cached flag must track the kill switch"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let hot = client.stats().unwrap();
    if cache_disabled_by_env() {
        assert_eq!(counter(&hot, "serve.cache.hits"), 0);
        assert!(counter(&hot, "serve.batches") > warm_batches);
    } else {
        assert_eq!(counter(&hot, "serve.cache.hits"), N as u64);
        assert_eq!(
            counter(&hot, "serve.batches"),
            warm_batches,
            "cache hits must not execute fused batches"
        );
        assert_eq!(
            counter(&hot, "session.admitted"),
            warm_admitted,
            "cache hits must not take coordinator tickets"
        );
        assert_eq!(counter(&hot, "serve.cache.insertions"), N as u64);
        assert!(counter(&hot, "serve.cache.bytes") > 0);
    }
    server.shutdown();
}

/// Interleaved cached and uncached requests on pipelined connections:
/// each connection sees exactly its own ids, every request is answered,
/// and a response never arrives before its request (per-connection
/// ordering holds even though cached answers skip the batcher entirely).
#[test]
fn cached_responses_preserve_per_connection_ordering() {
    let server = spawn_cached(CacheConfig {
        enabled: true,
        per_class: [CacheTolerance::Exact; 3],
        ..CacheConfig::default()
    });
    let addr = server.addr();

    // Warm a shared hot row so later repeats hit on every connection, and
    // wait for the (post-response) admit to land.
    let hot = row(9, 0);
    {
        let mut client = Client::connect(addr).unwrap();
        client
            .infer(MODEL, Priority::Standard, None, 1, WIDTH, hot.clone())
            .unwrap();
        if !cache_disabled_by_env() {
            stats_when_at_least(&mut client, "serve.cache.insertions", 1);
        }
    }

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 16;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|tag| {
            let hot = hot.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent = Vec::new();
                for i in 0..PER_CLIENT {
                    // Alternate a guaranteed-hot row with cold unique rows,
                    // so cached and batched responses interleave.
                    let data = if i % 2 == 0 { hot.clone() } else { row(tag, i) };
                    let id = client
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, data)
                        .unwrap();
                    sent.push(id);
                }
                let mut got = Vec::new();
                for _ in 0..PER_CLIENT {
                    match client.recv().unwrap() {
                        Response::Infer { id, .. } => got.push(id),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                let mut sorted = got.clone();
                sorted.sort_unstable();
                let mut expect = sent.clone();
                expect.sort_unstable();
                assert_eq!(sorted, expect, "client {tag}: ids lost or crossed");
                // Cached answers are written synchronously on the reader
                // thread, so the even (hot) positions answer in request
                // order relative to each other.
                let hot_ids: Vec<u64> = sent.iter().step_by(2).copied().collect();
                let hot_got: Vec<u64> = got
                    .iter()
                    .copied()
                    .filter(|id| hot_ids.contains(id))
                    .collect();
                assert_eq!(hot_got, hot_ids, "client {tag}: hot responses reordered");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    server.shutdown();
}

/// A tiny entry cap makes eviction observable over the wire: insertions
/// exceed capacity, `serve.cache.evictions` rises, and the hit ledgers
/// stay consistent (hits + misses == probes).
#[test]
fn evictions_are_visible_over_wire_stats() {
    let server = spawn_cached(CacheConfig {
        enabled: true,
        per_class: [CacheTolerance::Exact; 3],
        max_entries: Some(4),
        ..CacheConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    const N: usize = 16;
    for i in 0..N {
        client
            .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(3, i))
            .unwrap();
    }
    let stats = if cache_disabled_by_env() {
        client.stats().unwrap()
    } else {
        stats_when_at_least(&mut client, "serve.cache.insertions", N as u64)
    };
    if cache_disabled_by_env() {
        assert_eq!(counter(&stats, "serve.cache.insertions"), 0);
        assert_eq!(counter(&stats, "serve.cache.evictions"), 0);
    } else {
        assert_eq!(counter(&stats, "serve.cache.insertions"), N as u64);
        assert!(
            counter(&stats, "serve.cache.evictions") >= (N - 4) as u64,
            "a 4-entry cap over {N} distinct rows must evict"
        );
        let probes = counter(&stats, "serve.cache.hits") + counter(&stats, "serve.cache.misses");
        assert_eq!(probes, N as u64, "every single-row request probes once");
    }
    server.shutdown();
}

/// Multi-row requests never serve from the cache (no probe — partial-hit
/// assembly would cost more than the fused batch it displaces), but their
/// rows still populate it at demux, seeding future single-row hits.
#[test]
fn multi_row_requests_bypass_the_probe_but_populate() {
    let server = spawn_cached(CacheConfig {
        enabled: true,
        per_class: [CacheTolerance::Exact; 3],
        ..CacheConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let data = [row(5, 0), row(5, 1)].concat();
    for _ in 0..3 {
        match client
            .infer(MODEL, Priority::Standard, None, 2, WIDTH, data.clone())
            .unwrap()
        {
            Response::Infer {
                cached,
                predictions,
                ..
            } => {
                assert!(!cached, "multi-row requests must not serve from cache");
                assert_eq!(predictions.len(), 2);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let stats = if cache_disabled_by_env() {
        client.stats().unwrap()
    } else {
        stats_when_at_least(&mut client, "serve.cache.insertions", 2)
    };
    // No probe happened: the hit/miss ledgers are untouched.
    assert_eq!(counter(&stats, "serve.cache.hits"), 0);
    assert_eq!(counter(&stats, "serve.cache.misses"), 0);
    if cache_disabled_by_env() {
        assert_eq!(counter(&stats, "serve.cache.insertions"), 0);
    } else {
        // ...but the rows were admitted (deduplicated across repeats),
        // so the same row now hits as a single-row request.
        assert_eq!(counter(&stats, "serve.cache.insertions"), 2);
        match client
            .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(5, 0))
            .unwrap()
        {
            Response::Infer { cached, .. } => {
                assert!(cached, "a row seeded by a multi-row request must hit")
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown();
}

/// Interactive's Exact tolerance refuses near neighbors that Batch's
/// approximate tolerance would accept — the per-class SLA split, visible
/// as `bound_rejections` in the wire counters.
#[test]
fn per_class_tolerance_gates_near_hits() {
    if cache_disabled_by_env() {
        return; // the cached path under test is disabled in this leg
    }
    let mut cache = CacheConfig {
        enabled: true,
        max_distance: 1.0,
        min_validations: 0,
        validate_every: 0,
        ..CacheConfig::default()
    };
    cache.per_class = [
        CacheTolerance::Exact,
        CacheTolerance::Near {
            max_error_bound: 1.0,
        },
        CacheTolerance::Near {
            max_error_bound: 1.0,
        },
    ];
    let server = spawn_cached(cache);
    let mut client = Client::connect(server.addr()).unwrap();
    let base = row(7, 0);
    client
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, base.clone())
        .unwrap();
    stats_when_at_least(&mut client, "serve.cache.insertions", 1);
    let mut near = base.clone();
    near[0] += 0.05;
    // Batch accepts the near neighbor...
    match client
        .infer(MODEL, Priority::Batch, None, 1, WIDTH, near.clone())
        .unwrap()
    {
        Response::Infer { cached, .. } => assert!(cached, "batch class must accept near hits"),
        other => panic!("unexpected response {other:?}"),
    }
    // ...Interactive does not.
    match client
        .infer(MODEL, Priority::Interactive, None, 1, WIDTH, near.clone())
        .unwrap()
    {
        Response::Infer { cached, .. } => {
            assert!(!cached, "interactive must refuse near hits under Exact")
        }
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(counter(&stats, "serve.cache.near_hits") >= 1);
    assert!(
        counter(&stats, "serve.cache.bound_rejections") >= 1,
        "the refused near neighbor must surface as a bound rejection"
    );
    server.shutdown();
}
