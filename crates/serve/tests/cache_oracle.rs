//! Semantic-cache oracle: the cached server must be *indistinguishable*
//! from the uncached server on exact hits, and agree within the configured
//! tolerance on near hits (extending the `simd_oracle.rs` pattern of
//! driving the optimized and reference paths with identical inputs).
//!
//! Both servers in each property share identically seeded sessions, so the
//! uncached server IS the oracle. The properties also hold under
//! `RELSERVE_CACHE=off` (the "cached" server silently runs uncached and
//! equality becomes trivial), which is exactly what the CI kill-switch leg
//! checks.

use proptest::prelude::*;
use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::wire::Response;
use relserve_serve::{CacheConfig, CacheTolerance, Client, ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    let mut rng = seeded_rng(4242);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    Arc::new(session)
}

fn spawn(cache: CacheConfig) -> ServerHandle {
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

/// A deterministic feature row parameterized by `(pool_slot, salt)`.
fn pool_row(slot: usize, salt: u64) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((slot * 97 + j * 13 + salt as usize) % 23) as f32 - 11.0) * 0.07)
        .collect()
}

/// Drive one server with single-row Standard requests over `sequence`
/// (indexes into the row pool); returns per-request predictions in send
/// order.
fn drive(
    server: &ServerHandle,
    class: Priority,
    sequence: &[usize],
    salt: u64,
    jitter: f32,
) -> Vec<Vec<u32>> {
    let mut client = Client::connect(server.addr()).unwrap();
    let mut out = Vec::with_capacity(sequence.len());
    for (i, &slot) in sequence.iter().enumerate() {
        let mut data = pool_row(slot, salt);
        if jitter != 0.0 && i % 2 == 1 {
            // Odd occurrences ask a slightly perturbed variant of the row,
            // exercising the near-hit path on the cached server.
            data[0] += jitter;
        }
        match client.infer(MODEL, class, None, 1, WIDTH, data).unwrap() {
            Response::Infer { predictions, .. } => out.push(predictions),
            other => panic!("unexpected response {other:?}"),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Exact tolerance: the cached server's responses are bit-identical to
    /// the uncached server's for an arbitrary repeat-heavy sequence.
    #[test]
    fn exact_hits_match_uncached_oracle(salt in 0u64..1000, pool in 1usize..5) {
        let cached = spawn(CacheConfig {
            enabled: true,
            per_class: [CacheTolerance::Exact; 3],
            ..CacheConfig::default()
        });
        let uncached = spawn(CacheConfig::default());
        // Repeat-heavy: every pool slot asked several times.
        let sequence: Vec<usize> = (0..pool * 4).map(|i| i % pool).collect();
        let got = drive(&cached, Priority::Interactive, &sequence, salt, 0.0);
        let want = drive(&uncached, Priority::Interactive, &sequence, salt, 0.0);
        prop_assert_eq!(got, want);
        cached.shutdown();
        uncached.shutdown();
    }

    /// Near tolerance with a jitter small enough that the exact model is
    /// verified to predict identically: the cached near-hit answers must
    /// still equal the uncached oracle.
    #[test]
    fn near_hits_agree_when_exact_model_is_stable(salt in 0u64..1000) {
        const JITTER: f32 = 1e-4;
        let uncached = spawn(CacheConfig::default());
        // Verify the premise on the oracle first: the jittered variants
        // predict the same class as their base rows. Skip salts where the
        // jitter crosses a decision boundary — there the tolerance
        // legitimately allows disagreement and equality is not promised.
        let base = drive(&uncached, Priority::Standard, &[0, 0, 1, 1], salt, 0.0);
        let jit = drive(&uncached, Priority::Standard, &[0, 0, 1, 1], salt, JITTER);
        if base == jit {
            let cached = spawn(CacheConfig {
                enabled: true,
                max_distance: 0.01,
                per_class: [CacheTolerance::Near { max_error_bound: 1.0 }; 3],
                ..CacheConfig::default()
            });
            let sequence: Vec<usize> = (0..8).map(|i| i % 2).collect();
            let got = drive(&cached, Priority::Standard, &sequence, salt, JITTER);
            let want = drive(&uncached, Priority::Standard, &sequence, salt, JITTER);
            prop_assert_eq!(got, want);
            cached.shutdown();
        }
        uncached.shutdown();
    }
}

/// The server's `serve.cache.insertions` counter.
fn cache_insertions(client: &mut Client) -> u64 {
    client
        .stats()
        .unwrap()
        .into_iter()
        .find(|(name, _)| name == "serve.cache.insertions")
        .map_or(0, |(_, value)| value)
}

/// Under exact tolerance every repeated request is a cache hit, observable
/// on the wire via the `cached` flag — unless `RELSERVE_CACHE=off`, in
/// which case the flag must *never* be set (the kill switch truly kills).
///
/// The batcher writes a response before it admits the result to the cache,
/// so the repeats wait until the server reports the first insertion; after
/// that, every one of them must be a hit.
#[test]
fn cached_flag_tracks_kill_switch() {
    let server = spawn(CacheConfig {
        enabled: true,
        per_class: [CacheTolerance::Exact; 3],
        ..CacheConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let data = pool_row(0, 7);
    let infer = |client: &mut Client| match client
        .infer(MODEL, Priority::Interactive, None, 1, WIDTH, data.clone())
        .unwrap()
    {
        Response::Infer { cached, .. } => cached,
        other => panic!("unexpected response {other:?}"),
    };
    let first = infer(&mut client);
    let disabled = relserve_serve::cache_disabled_by_env();
    if !disabled {
        let deadline = Instant::now() + Duration::from_secs(10);
        while cache_insertions(&mut client) == 0 {
            assert!(
                Instant::now() < deadline,
                "the first result was never admitted to the cache"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let repeats_cached = (0..5).filter(|_| infer(&mut client)).count();
    if disabled {
        assert!(
            !first && repeats_cached == 0,
            "kill switch must suppress every cache hit"
        );
    } else {
        assert_eq!(
            repeats_cached, 5,
            "every repeat after the first insertion must hit the cache"
        );
    }
    server.shutdown();
}
