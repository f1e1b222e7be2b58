//! Fault-tolerant serving: the reactor under seeded wire chaos (torn
//! frames, stalled reads, mid-write resets, delayed accepts), graceful
//! drain that never loses an admitted request, the exactly-once release
//! audit for parked write buffers, the `Health` opcode, the
//! signal-triggered drain path, and the self-healing client's reconnect
//! and replay contract.
//!
//! The tests in this file measure process-global resources
//! (`/proc/self/fd`), so they serialize on one mutex — the default
//! concurrent test harness would otherwise cross-contaminate the counts.

use proptest::prelude::*;
use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{FaultConfig, Priority, RetryPolicy, TransferProfile};
use relserve_serve::wire::{self, ErrorCode, HealthState, Response};
use relserve_serve::{sys, Client, ServeConfig, Server, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;

/// Serializes the tests in this file: they count process-wide fds, which
/// concurrent servers would skew.
static PROC_COUNTS: Mutex<()> = Mutex::new(());

/// One shared session: every test here serves the same frozen model, and
/// building it (seeded weight init) dominates per-test cost.
fn fraud_session() -> Arc<InferenceSession> {
    static SESSION: OnceLock<Arc<InferenceSession>> = OnceLock::new();
    Arc::clone(SESSION.get_or_init(|| {
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
        let mut rng = seeded_rng(555);
        session
            .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
            .unwrap();
        Arc::new(session)
    }))
}

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j) % 19) as f32 - 9.0) * 0.085)
        .collect()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Every reaped connection must return its descriptor; a little slack for
/// unrelated runtime fds.
fn assert_fds_settle(baseline: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_fds();
        if now <= baseline + 8 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "fd leak ({what}): {now} open fds, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_live(server: &ServerHandle, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let live = server.live_connections();
        if live == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {want} live connections ({what}): at {live}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A generous healing policy for chaos runs: many cheap attempts so a
/// client outlives bursts of injected resets.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(2),
        jitter: 0.25,
    }
}

/// Chaos soak: with torn frames, stalled reads, mid-write resets and
/// delayed accepts all injected from one seeded stream, every request
/// still gets a typed outcome (self-healing clients replay across
/// resets), no fd leaks, no parked-byte residue, and the fault counters
/// prove the chaos actually fired.
#[test]
fn chaos_soak_yields_typed_outcomes_without_leaks() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let fds_before = open_fds();
    let config = ServeConfig::builder()
        .wire_faults(FaultConfig::sock_chaos(0xC4A05, 0.2, 0.2, 0.05, 0.2))
        .build()
        .unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();

    let mut reconnects = 0;
    for c in 0..3 {
        let mut client = Client::connect_resilient(addr, chaos_policy()).unwrap();
        for i in 0..40 {
            match client.infer(MODEL, Priority::Standard, None, 1, WIDTH, row(c * 40 + i)) {
                Ok(Response::Infer { predictions, .. }) => assert_eq!(predictions.len(), 1),
                Ok(Response::Error { code, .. }) => {
                    panic!("unexpected typed error under chaos: {code:?}")
                }
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(e) => panic!("untyped failure leaked through healing: {e}"),
            }
        }
        reconnects += client.reconnects();
    }

    wait_live(&server, 0, "chaos soak teardown");
    let stats = server.stats();
    let injected = stats.faults.torn_reads
        + stats.faults.stalled_reads
        + stats.faults.write_resets
        + stats.faults.delayed_accepts;
    assert!(
        injected > 0,
        "chaos rates 0.2/0.2/0.05/0.2 over 120 requests must inject: {:?}",
        stats.faults
    );
    if stats.faults.write_resets > 0 {
        assert!(
            reconnects > 0,
            "injected write resets must have forced client reconnects"
        );
    }
    assert_eq!(
        stats.reactor.parked_bytes, 0,
        "chaos must not strand parked response bytes"
    );
    server.shutdown();
    assert_fds_settle(fds_before, "chaos soak");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Drain under seeded read-path chaos never loses a request the
    /// server received: after a `Stats` barrier proves the server has
    /// read every pipelined frame, `drain()` resolves each id as either
    /// a real prediction or a typed `Draining` shed — and the process
    /// leaks no fd.
    #[test]
    fn drain_under_chaos_resolves_every_received_request(
        seed in any::<u64>(),
        tear in 0.0f64..0.35,
        stall in 0.0f64..0.35,
    ) {
        let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
        let fds_before = open_fds();
        let config = ServeConfig::builder()
            // One executor and every core held: it blocks in admission on
            // the first batch it takes, so the requests behind it are
            // still buffered (and thus sheddable) when the drain lands.
            .executors(1)
            .wire_faults(FaultConfig::sock_chaos(seed, tear, stall, 0.0, 0.0))
            .drain_deadline(Duration::from_secs(10))
            .build()
            .unwrap();
        let session = fraud_session();
        let hold = session.coordinator().admit(2).unwrap();
        let server = Server::spawn(session, config).unwrap();
        let addr = server.addr();

        let mut clients = Vec::new();
        for c in 0..2 {
            let mut client = Client::connect_resilient(addr, chaos_policy()).unwrap();
            let ids: Vec<u64> = (0..12)
                .map(|i| {
                    client
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(c * 12 + i))
                        .unwrap()
                })
                .collect();
            // Barrier: a Stats round-trip on the same connection proves
            // the server has read every infer frame sent before it.
            client.stats().unwrap();
            clients.push((client, ids));
        }

        // Drain from a helper thread, and free the executor only once a
        // Health probe has seen the drain land.
        let drainer = std::thread::spawn(move || server.drain_graceful());
        let probe_deadline = Instant::now() + Duration::from_secs(10);
        while clients[0].0.health().unwrap().state != HealthState::Draining {
            prop_assert!(Instant::now() < probe_deadline, "drain never landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(hold);
        let report = drainer.join().unwrap();
        prop_assert!(
            report.completed_within_deadline,
            "drain missed a 10s deadline: {report:?}"
        );

        for (client, ids) in &mut clients {
            for &id in ids.iter() {
                match client.wait(id) {
                    Ok(Response::Infer { id: got, .. }) => prop_assert_eq!(got, id),
                    Ok(Response::Error { id: got, code, .. }) => {
                        prop_assert_eq!(got, id);
                        prop_assert_eq!(code, ErrorCode::Draining);
                    }
                    Ok(other) => prop_assert!(false, "unexpected response {:?}", other),
                    Err(e) => prop_assert!(
                        false,
                        "request {} lost by drain (no typed outcome): {}",
                        id, e
                    ),
                }
            }
        }
        drop(clients);
        assert_fds_settle(fds_before, "drain chaos");
    }

    /// Satellite: the jittered backoff is bounded by
    /// `backoff_for(retry) * [1 - jitter, 1 + jitter]` for every policy,
    /// retry count and seed, and zero jitter reproduces the exact
    /// exponential schedule.
    #[test]
    fn jittered_backoff_stays_within_documented_bound(
        base_ms in 1u64..50,
        jitter in 0.0f64..1.0,
        retry in 1u32..8,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(base_ms),
            jitter,
        };
        let exact = policy.backoff_for(retry).as_secs_f64();
        let mut stream = seed;
        let jittered = policy.backoff_jittered(retry, &mut stream).as_secs_f64();
        let slack = 1e-9;
        prop_assert!(jittered >= exact * (1.0 - jitter) - slack);
        prop_assert!(jittered <= exact * (1.0 + jitter) + slack);

        let no_jitter = RetryPolicy { jitter: 0.0, ..policy };
        let mut untouched = seed;
        prop_assert_eq!(
            no_jitter.backoff_jittered(retry, &mut untouched),
            no_jitter.backoff_for(retry)
        );
        prop_assert!(untouched == seed, "zero jitter must not consume the stream");
    }
}

/// CI smoke: a drain issued while loader threads are mid-stream finishes
/// inside the configured deadline, with every loader seeing only typed
/// outcomes (predictions, a `Draining` error, or a clean connection
/// error) — never a hang.
#[test]
fn drain_under_load_completes() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder()
        .drain_deadline(Duration::from_secs(5))
        .build()
        .unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();

    let loaders: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0u64;
                loop {
                    match client.infer(MODEL, Priority::Standard, None, 1, WIDTH, row(t)) {
                        Ok(Response::Infer { .. }) => ok += 1,
                        Ok(Response::Error {
                            code: ErrorCode::Draining,
                            ..
                        }) => break,
                        Ok(other) => panic!("unexpected response {other:?}"),
                        // Post-drain the socket is gone; a plain client
                        // surfaces that as an error and stops.
                        Err(_) => break,
                    }
                }
                ok
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let report = server.drain_graceful();
    assert!(
        report.completed_within_deadline,
        "drain under load missed its 5s deadline: {report:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(6),
        "drain overran its deadline wall-clock"
    );
    let total: u64 = loaders.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        total > 0,
        "loaders must have completed work before the drain"
    );
}

/// Regression (exactly-once release audit): a peer that resets its
/// connection while response bytes are parked — including with mid-write
/// reset chaos injected on top — releases those bytes from the global
/// gauge exactly once. A double release would wrap the u64 gauge to an
/// astronomically large value; a missed release would leave it nonzero.
#[test]
fn reset_during_parked_write_releases_exactly_once() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let fds_before = open_fds();
    for chaos in [
        None,
        Some(FaultConfig::sock_chaos(0xBADC0DE, 0.0, 0.0, 0.05, 0.0)),
    ] {
        let mut builder = ServeConfig::builder()
            // Small cap so the hog's queue crosses its watermarks quickly.
            .write_buffer_bytes(64 << 10);
        if let Some(f) = chaos {
            builder = builder.wire_faults(f);
        }
        let server = Server::spawn(fraud_session(), builder.build().unwrap()).unwrap();
        let addr = server.addr();

        // The hog pipelines thousands of tiny Stats requests (multi-KB
        // response each) and never reads a byte, parking responses.
        let mut hog = TcpStream::connect(addr).unwrap();
        let stats_frame = {
            let payload = wire::encode_request(&wire::Request::Stats { id: 7 }).unwrap();
            let mut f = Vec::with_capacity(4 + payload.len());
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(&payload);
            f
        };
        let mut burst = Vec::new();
        for _ in 0..4000 {
            burst.extend_from_slice(&stats_frame);
        }
        // Under reset chaos the hog's connection may be severed while the
        // burst is still being written; that reset is the point.
        let _ = hog.write_all(&burst);

        // Wait until bytes actually parked (no chaos) or the connection
        // resolved either way (chaos may sever before anything parks).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = server.stats().reactor;
            assert!(
                r.parked_bytes < u64::MAX / 2,
                "parked-bytes gauge wrapped: double release ({})",
                r.parked_bytes
            );
            if r.parked_bytes > 0 || server.live_connections() == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no bytes ever parked and the hog never resolved: {r:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The reset: drop the socket with unread response data pending —
        // the kernel answers further server writes with ECONNRESET.
        drop(hog);
        wait_live(&server, 0, "hog reset");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let parked = server.stats().reactor.parked_bytes;
            assert!(
                parked < u64::MAX / 2,
                "parked-bytes gauge wrapped: double release ({parked})"
            );
            if parked == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "missed release: {parked} parked bytes after reset"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }
    assert_fds_settle(fds_before, "parked reset");
}

/// The `Health` opcode and the signal-triggered drain: a routed SIGTERM
/// flips health from `Ok` to `Draining`, new connections are refused with
/// a typed `Draining` frame, existing connections still get probe and
/// shed answers, and the drain then completes in the deadline.
#[test]
fn sigterm_routes_to_drain_and_health_reports_it() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder()
        .drain_deadline(Duration::from_secs(5))
        .build()
        .unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    let report = client.health().unwrap();
    assert_eq!(report.state, HealthState::Ok);
    assert!(
        report.live_connections >= 1,
        "the probing connection itself is live"
    );
    assert_eq!(
        report.stalled_pollers, 0,
        "fresh pollers must not be stalled"
    );

    server.install_sigterm_drain().unwrap();
    assert!(!server.drain_pending());
    sys::raise_signal(sys::SIGTERM).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.drain_pending() {
        assert!(
            Instant::now() < deadline,
            "poller never observed the routed SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.health_state(), HealthState::Draining);

    // Existing connections still get typed answers during the drain.
    assert_eq!(client.health().unwrap().state, HealthState::Draining);
    match client
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(1))
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
        other => panic!("infer during drain must shed typed, got {other:?}"),
    }

    // New connections are refused with a typed Draining frame, then EOF.
    let probe = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(probe);
    let payload = wire::read_frame(&mut reader)
        .unwrap()
        .expect("refused connection must receive an error frame before close");
    match wire::decode_response(&payload).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0, "accept-time shed uses the connection-level id");
            assert_eq!(code, ErrorCode::Draining);
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert!(
        wire::read_frame(&mut reader).unwrap().is_none(),
        "refused connection must be closed after the error frame"
    );

    let report = server.drain_graceful();
    assert!(report.completed_within_deadline, "{report:?}");
    assert!(
        report.shed_requests >= 1,
        "the shed infer must be counted: {report:?}"
    );
}

/// The self-healing client survives a full server restart on the same
/// address: unanswered requests are replayed over the new connection
/// under their original ids, and the caller never observes the gap.
#[test]
fn resilient_client_replays_across_server_restart() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder().build().unwrap();
    let server = Server::spawn(fraud_session(), config.clone()).unwrap();
    let addr = server.addr();

    let policy = RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(5),
        jitter: 0.25,
    };
    let mut client = Client::connect_resilient(addr, policy).unwrap();
    match client
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(0))
        .unwrap()
    {
        Response::Infer { predictions, .. } => assert_eq!(predictions.len(), 1),
        other => panic!("unexpected response {other:?}"),
    }

    // Kill the server, then restart it on the same address (std listeners
    // set SO_REUSEADDR, so the rebind races only lingering accepts).
    server.shutdown();
    let restarted = {
        let config = ServeConfig::builder().bind(addr).build().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::spawn(fraud_session(), config.clone()) {
                Ok(s) => break s,
                Err(e) => assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr} after shutdown: {e}"
                ),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // The next call rides the healing path: reconnect + replay.
    match client
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(1))
        .unwrap()
    {
        Response::Infer { predictions, .. } => assert_eq!(predictions.len(), 1),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(
        client.reconnects() >= 1,
        "a restart must be visible as at least one reconnect"
    );
    restarted.shutdown();
}
