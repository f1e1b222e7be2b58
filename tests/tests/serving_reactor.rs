//! The reactor frontend under hostile connection behavior: thousands of
//! idle connections on O(pollers) threads, connection churn without fd or
//! table leaks, never-reading clients contained by write-queue
//! backpressure, slot exhaustion shed with a typed wire error at accept
//! time, and the pipelining client's id-demux contract.
//!
//! The tests in this file measure process-global resources
//! (`/proc/self/fd`, `/proc/self/task`), so they serialize on one mutex —
//! the default concurrent test harness would otherwise cross-contaminate
//! the counts.

use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::wire::{self, ErrorCode, Response};
use relserve_serve::{Client, ServeConfig, Server, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;

/// Serializes the tests in this file: they count process-wide fds and
/// threads, which concurrent servers would skew.
static PROC_COUNTS: Mutex<()> = Mutex::new(());

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
    let mut rng = seeded_rng(555);
    session
        .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
        .unwrap();
    Arc::new(session)
}

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j) % 19) as f32 - 9.0) * 0.085)
        .collect()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Live threads of this process whose name starts with `serve-`
/// (reactor pollers + batch executors).
fn serve_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim_end().starts_with("serve-"))
                .unwrap_or(false)
        })
        .count()
}

/// Soft `RLIMIT_NOFILE`, so the soak scales itself to CI's lowered
/// `ulimit -n` leg instead of exhausting descriptors.
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        })
        .unwrap_or(1024)
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

/// Thousands of idle connections plus active traffic are held by
/// O(pollers) threads, not one thread per connection — the acceptance bar
/// for the reactor redesign. The target self-scales under a lowered fd
/// ulimit (each connection costs two descriptors, one per side).
#[test]
fn soak_idle_connection_fanin_runs_on_o_pollers_threads() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let target = 5000.min((fd_soft_limit().saturating_sub(64)) / 2);
    assert!(target >= 32, "fd limit too low to say anything");

    let threads_before = serve_threads();
    let config = ServeConfig::builder()
        .pollers(2)
        .executors(2)
        .max_connections(target + 16)
        .accept_backlog(1024)
        .build()
        .unwrap();
    let server = Server::spawn(fraud_session(), config);
    let server = server.unwrap();
    let addr = server.addr();

    // Idle fan-in: raw sockets, registered with the reactor, never
    // speaking. (Raw TcpStream, not Client, to keep the test's own memory
    // flat at 5k connections.)
    let idle: Vec<TcpStream> = (0..target)
        .map(|i| {
            TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connect {i}/{target} failed: {e}"))
        })
        .collect();
    wait_live(&server, target, "idle soak");

    // Active traffic rides on top of the idle mass.
    let mut active = Client::connect(addr).unwrap();
    for i in 0..32 {
        active
            .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
            .unwrap();
    }
    for _ in 0..32 {
        match active.recv().unwrap() {
            Response::Infer { predictions, .. } => assert_eq!(predictions.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // The whole fan-in is multiplexed by this server's 2 pollers + 2
    // executors; thread-per-connection would sit at `target` threads.
    let grown = serve_threads().saturating_sub(threads_before);
    assert!(
        grown <= 4,
        "expected <= 4 new serve- threads for {target} connections, got {grown}"
    );
    assert_eq!(server.stats().reactor.pollers, 2);

    drop(active);
    drop(idle);
    wait_live(&server, 0, "idle soak teardown");
    server.shutdown();
}

/// Hundreds of short-lived, slow-reading and mid-frame-vanishing clients:
/// no fd leaks (via `/proc/self/fd`), no leaked connection-table entries
/// (`live_connections` returns to zero), and no parked-byte gauge residue
/// (bounded memory).
#[test]
fn connection_churn_leaks_neither_fds_nor_table_entries() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder().build().unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();
    let fds_before = open_fds();

    for wave in 0..10 {
        let mut keep = Vec::new();
        for k in 0..30usize {
            match k % 3 {
                // A well-behaved short-lived client.
                0 => {
                    let mut c = Client::connect(addr).unwrap();
                    match c.infer(
                        MODEL,
                        Priority::Standard,
                        None,
                        1,
                        WIDTH,
                        row(wave * 30 + k),
                    ) {
                        Ok(Response::Infer { .. }) => {}
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                // A peer that vanishes mid-frame: length prefix promises
                // 1000 bytes, only 10 arrive, then the socket drops.
                1 => {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(&1000u32.to_le_bytes()).unwrap();
                    s.write_all(&[0u8; 10]).unwrap();
                    drop(s);
                }
                // A slow reader: asks, dawdles, then reads and leaves.
                _ => {
                    let mut c = Client::connect(addr).unwrap();
                    let id = c
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(k))
                        .unwrap();
                    keep.push((c, id));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
        for (mut c, id) in keep {
            match c.wait(id) {
                Ok(Response::Infer { .. }) => {}
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    wait_live(&server, 0, "churn teardown");
    // Reaped connections must return their descriptors; allow a little
    // slack for unrelated runtime fds (timerfd and friends).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_fds();
        if now <= fds_before + 8 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fd leak: {now} open fds after churn, baseline {fds_before}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(
        stats.reactor.parked_bytes, 0,
        "reaped connections must release their parked response bytes"
    );
    assert!(stats.requests > 0);
    server.shutdown();
}

/// A client that never reads its responses is paused (and bounded) by
/// write-queue backpressure, while a well-behaved client on another
/// connection keeps getting answers — a slow peer cannot pin an executor
/// or starve its neighbors.
#[test]
fn never_reading_client_cannot_block_other_connections() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder()
        // Small cap so the hog's queue crosses its watermarks quickly.
        .write_buffer_bytes(64 << 10)
        .build()
        .unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();

    // The hog pipelines thousands of tiny Stats requests (9 bytes each,
    // multi-KB response each — an amplification attack on the write path)
    // and never reads a byte.
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
    hog.write_all(&burst).unwrap();

    // Meanwhile a polite client must keep completing inferences promptly.
    let started = Instant::now();
    let mut polite = Client::connect(addr).unwrap();
    for i in 0..16 {
        match polite
            .infer(MODEL, Priority::Interactive, None, 1, WIDTH, row(i))
            .unwrap()
        {
            Response::Infer { predictions, .. } => assert_eq!(predictions.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "polite client starved behind a never-reading hog"
    );

    // The hog was contained by backpressure, not by unbounded buffering:
    // responses parked, its reads paused once parked bytes crossed the
    // high-water mark, and the parked gauge stays under the configured cap.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = server.stats().reactor;
        if r.response_parks > 0 && r.read_pauses > 0 {
            assert!(
                r.parked_bytes <= 64 << 10,
                "parked bytes {} exceed the configured cap",
                r.parked_bytes
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure never engaged: {r:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(hog);
    wait_live(&server, 1, "hog teardown"); // polite client still connected
    assert_eq!(
        server.stats().reactor.parked_bytes,
        0,
        "severed hog must release its parked bytes"
    );
    server.shutdown();
}

/// Accepts past `max_connections` are shed at accept time with a typed
/// `Overloaded` wire error on the reserved connection-level id, and the
/// live gauge stays accurate so freed slots become usable again.
#[test]
fn slot_exhaustion_sheds_typed_error_at_accept_time() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder().max_connections(4).build().unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();
    let addr = server.addr();

    let mut holders: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    // Prove all four are registered (an infer round-trips through the
    // reactor) before probing the limit.
    for (i, c) in holders.iter_mut().enumerate() {
        c.infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
            .unwrap();
    }
    wait_live(&server, 4, "slot holders");

    // The fifth connection gets a typed rejection, then EOF.
    let probe = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(probe);
    let payload = wire::read_frame(&mut reader)
        .unwrap()
        .expect("shed connection must receive an error frame before close");
    match wire::decode_response(&payload).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0, "accept-time shed uses the connection-level id");
            assert_eq!(code, ErrorCode::Overloaded);
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert!(
        wire::read_frame(&mut reader).unwrap().is_none(),
        "shed connection must be closed after the error frame"
    );
    assert_eq!(server.live_connections(), 4);
    assert!(server.stats().reactor.accept_shed >= 1);

    // Churn releases the slot: a freed connection admits a new peer.
    holders.pop();
    wait_live(&server, 3, "slot release");
    let mut replacement = Client::connect(addr).unwrap();
    replacement
        .infer(MODEL, Priority::Standard, None, 1, WIDTH, row(9))
        .unwrap();
    wait_live(&server, 4, "slot reuse");
    server.shutdown();
}

/// The pipelining client's contract: many requests in flight, responses
/// collected out of order by id via `wait`, with foreign responses stashed
/// rather than lost — and within one connection every id is answered
/// exactly once. (Across connections there is no ordering relationship;
/// each connection's responses are matched purely by its own ids.)
#[test]
fn pipelined_responses_demux_by_id_in_any_wait_order() {
    let _guard = PROC_COUNTS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig::builder().max_batch_rows(8).build().unwrap();
    let server = Server::spawn(fraud_session(), config).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let ids: Vec<u64> = (0..24)
        .map(|i| {
            client
                .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(i))
                .unwrap()
        })
        .collect();
    let stats_id = client.send_stats().unwrap();

    // Collect in reverse send order: every wait but the last forces the
    // client to stash responses that arrived for other ids.
    for &id in ids.iter().rev() {
        match client.wait(id).unwrap() {
            Response::Infer {
                id: got,
                predictions,
                ..
            } => {
                assert_eq!(got, id);
                assert_eq!(predictions.len(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    match client.wait(stats_id).unwrap() {
        Response::Stats { counters, .. } => {
            let reqs = counters
                .iter()
                .find(|(n, _)| n == "serve.requests")
                .unwrap()
                .1;
            assert_eq!(reqs, 24);
        }
        other => panic!("unexpected response {other:?}"),
    }
    server.shutdown();
}
