//! The two online workloads: `serve::Server` over loopback TCP, driven
//! through the public wire codec.
//!
//! Phase A is an open loop on one connection: a sender thread paces frames
//! on a fixed schedule, a receiver thread timestamps replies, and latency
//! runs from each request's *due* time, so a stall is charged to every
//! request it delays. Phase B is a closed loop, two connections with 64
//! requests in flight each, and gives the sustained rate.
//!
//! `online_skewed` runs its open loop in the traced pass only and takes its
//! end-to-end latency from the closed loop: the open loop finds the server
//! idle between requests, and three quarters of what it then measures is the
//! sandbox waking idle cores, not the program (see the README's End-to-end
//! metrics section).

use crate::gen::{EntityDraw, RequestStream};
use crate::json::Json;
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, segment_of};
use crate::trace::Tracer;
use crate::workload::{
    repeat_setup, report_latency, Latencies, Outcome, RunArgs, MODEL_SEED, SEGMENTS,
};
use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::{zoo, Model};
use relserve_serve::wire::{self, Request, Response};
use relserve_serve::{CacheConfig, CacheTolerance, ServeConfig, ServeStats, Server, ServerHandle};
use relserve_tensor::parallel::Parallelism;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct feature rows a stream draws from: 8x the result cache.
const UNIVERSE: usize = 8192;
/// Live-entry cap of the result cache on `online_skewed`.
const CACHE_ENTRIES: usize = 1024;
/// Zipf exponent of `online_skewed`.
const ZIPF_S: f64 = 1.1;
/// Closed-loop requests sent before anything is timed: fills the cache to
/// its cap and lets the batcher, pool and allocator reach steady state.
const WARMUP_REQUESTS: u64 = 4000;
/// Closed-loop connections, one generator thread each.
const CONNECTIONS: u64 = 2;
/// Requests each closed-loop connection keeps in flight.
const IN_FLIGHT: u64 = 64;
/// Tail percentile of the latency phase.
const TAIL_P: f64 = 0.99;
/// How long unanswered open-loop requests are waited for after the last
/// send before they count as failed.
const DRAIN: Duration = Duration::from_secs(2);
/// A send is late when it leaves more than this share of the workload's
/// latency limit behind schedule (1 ms of `online_small`'s 5 ms).
const LATE_SEND_SHARE: f64 = 0.2;
/// Requests of the traced open loop whose spans are kept.
const TRACE_REQUEST_CAP: usize = 10_000;
/// Health round trips timed in the traced pass.
const HEALTH_PROBES: usize = 400;

/// What distinguishes the two online workloads.
pub struct OnlineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Result cache on, Zipf entities; otherwise cache off, uniform entities.
    pub skewed: bool,
    /// Open-loop send rate, requests per second.
    pub rate: f64,
    /// Latency limit of the open loop, ms.
    pub slo_ms: f64,
    /// Share of the end-to-end pass's `--seconds` the open loop gets; the
    /// closed loop gets the rest. At 0 the closed loop's own replies give
    /// the end-to-end latency.
    pub open_share: f64,
}

/// `online_small`: cache off, so every request reaches the batcher.
pub const SMALL: OnlineSpec = OnlineSpec {
    name: "online_small",
    skewed: false,
    rate: 15_000.0,
    slo_ms: 5.0,
    open_share: 0.6,
};

/// `online_skewed`: cache on, hits beside admissions and evictions.
pub const SKEWED: OnlineSpec = OnlineSpec {
    name: "online_skewed",
    skewed: true,
    rate: 1_000.0,
    slo_ms: 250.0,
    open_share: 0.0,
};

struct Env {
    stream: Arc<RequestStream>,
    oracle: Arc<Vec<u32>>,
    model: Model,
    server: ServerHandle,
    next_id: u64,
}

fn setup(spec: &OnlineSpec, seed: u64) -> Env {
    let model = zoo::fraud_fc_256(&mut seeded_rng(MODEL_SEED)).expect("zoo model builds");
    let features = model.input_shape().num_elements();
    let draw = if spec.skewed {
        EntityDraw::zipf(UNIVERSE, ZIPF_S)
    } else {
        EntityDraw::Uniform { universe: UNIVERSE }
    };
    let stream = Arc::new(RequestStream::new(
        seed,
        model.name(),
        draw,
        UNIVERSE,
        features,
    ));
    let oracle: Vec<u32> = model
        .predict(stream.universe(), &Parallelism::serial())
        .expect("serial oracle runs")
        .into_iter()
        .map(|p| p as u32)
        .collect();
    let session = InferenceSession::open(SessionConfig::default()).expect("session opens");
    session.load_model(model.clone()).expect("model loads");
    let mut config = ServeConfig::builder();
    if spec.skewed {
        config = config.cache(CacheConfig {
            enabled: true,
            per_class: [CacheTolerance::Exact; 3],
            max_entries: Some(CACHE_ENTRIES),
            ..CacheConfig::default()
        });
    }
    let server = Server::spawn(Arc::new(session), config.build().expect("config is valid"))
        .expect("server spawns on loopback");
    let mut env = Env {
        stream,
        oracle: Arc::new(oracle),
        model,
        server,
        next_id: 1,
    };
    let warm = closed_loop(
        &mut env,
        Stop::After(WARMUP_REQUESTS / CONNECTIONS),
        Keep::Nothing,
    );
    assert_eq!(warm.failed, 0, "warm-up requests failed");
    env
}

/// One reply as the client saw it.
struct Reply {
    id: u64,
    recv: Instant,
    ok: bool,
    cached: bool,
    queue_wait_us: u64,
}

fn judge(payload: &[u8], recv: Instant, stream: &RequestStream, oracle: &[u32]) -> Reply {
    let (id, ok, cached, queue_wait_us) = match wire::decode_response(payload) {
        Ok(Response::Infer {
            id,
            queue_wait_micros,
            cached,
            predictions,
            ..
        }) => (
            id,
            predictions == [oracle[stream.entity(id)]],
            cached,
            queue_wait_micros,
        ),
        Ok(other) => (other.id(), false, false, 0),
        Err(_) => (0, false, false, 0),
    };
    Reply {
        id,
        recv,
        ok,
        cached,
        queue_wait_us,
    }
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let sock = TcpStream::connect(addr).expect("loopback connect");
    sock.set_nodelay(true).expect("nodelay");
    (
        BufReader::new(sock.try_clone().expect("clone socket")),
        sock,
    )
}

// ---- closed loop ----------------------------------------------------------

#[derive(Clone, Copy)]
enum Stop {
    /// Keep the window full for `seconds` from `start`.
    For { start: Instant, seconds: f64 },
    /// Send this many requests per connection.
    After(u64),
}

/// What a closed loop remembers of its replies beyond counting them.
#[derive(Clone, Copy)]
enum Keep {
    /// Counts only: the generator's memory does not grow with the rate it
    /// measures.
    Nothing,
    /// The spans of the first [`TRACE_REQUEST_CAP`] replies, for the tracer.
    Spans,
    /// The latency of every correct reply inside a timed window.
    Latencies,
}

#[derive(Default)]
struct ClosedResult {
    attempted: u64,
    failed: u64,
    /// Correct replies received in each equal part of a timed window. Counted
    /// as they arrive, so the generator's memory does not grow with the rate
    /// it measures.
    per_segment: [u64; SEGMENTS],
    /// `(request id, sent, received)` of the first replies, with `Keep::Spans`.
    spans: Vec<(u64, Instant, Instant)>,
    /// Send to reply of the correct replies, with `Keep::Latencies`.
    latencies: Latencies,
}

fn closed_conn(env: &Env, conn: u64, first_id: u64, stop: Stop, keep: Keep) -> ClosedResult {
    let (mut reader, mut writer) = connect(env.server.addr());
    let mut out = ClosedResult::default();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut buf = Vec::new();
    let mut next = first_id + conn;
    let mut outstanding = 0u64;
    let more = |attempted: u64, now: Instant| match stop {
        Stop::For { start, seconds } => now < start + Duration::from_secs_f64(seconds),
        Stop::After(n) => attempted < n,
    };
    let mut send = |n: u64, out: &mut ClosedResult, sent_at: &mut HashMap<u64, Instant>| -> bool {
        buf.clear();
        for _ in 0..n {
            env.stream.write_frame(next, &mut buf);
            let wanted = match keep {
                Keep::Nothing => false,
                Keep::Spans => out.spans.len() + sent_at.len() < TRACE_REQUEST_CAP,
                Keep::Latencies => true,
            };
            if wanted {
                sent_at.insert(next, Instant::now());
            }
            next += CONNECTIONS;
        }
        out.attempted += n;
        writer.write_all(&buf).is_ok()
    };
    let window = match stop {
        Stop::After(n) => n.min(IN_FLIGHT),
        Stop::For { .. } => IN_FLIGHT,
    };
    if !send(window, &mut out, &mut sent_at) {
        out.failed = out.attempted;
        return out;
    }
    outstanding += window;
    while outstanding > 0 {
        let Ok(Some(payload)) = wire::read_frame(&mut reader) else {
            break;
        };
        let reply = judge(&payload, Instant::now(), &env.stream, &env.oracle);
        outstanding -= 1;
        let sent = sent_at.remove(&reply.id);
        if reply.ok {
            if let Stop::For { start, seconds } = stop {
                let at = reply.recv.saturating_duration_since(start).as_secs_f64();
                if let Some(part) = segment_of(at, seconds, SEGMENTS) {
                    out.per_segment[part] += 1;
                }
                if let (Keep::Latencies, Some(sent)) = (keep, sent) {
                    out.latencies.push(at, reply.recv - sent);
                }
            }
            if let (Keep::Spans, Some(sent)) = (keep, sent) {
                out.spans.push((reply.id, sent, reply.recv));
            }
        } else {
            out.failed += 1;
        }
        if more(out.attempted, reply.recv) {
            if !send(1, &mut out, &mut sent_at) {
                break;
            }
            outstanding += 1;
        }
    }
    // Whatever is still outstanding here was never answered.
    out.failed += outstanding;
    out
}

fn closed_loop(env: &mut Env, stop: Stop, keep: Keep) -> ClosedResult {
    let first_id = env.next_id;
    let parts: Vec<ClosedResult> = std::thread::scope(|s| {
        let env = &*env;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || closed_conn(env, c, first_id, stop, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop generator thread"))
            .collect()
    });
    let mut all = ClosedResult::default();
    let mut widest = 0;
    for part in parts {
        widest = widest.max(part.attempted);
        all.attempted += part.attempted;
        all.failed += part.failed;
        for (sum, n) in all.per_segment.iter_mut().zip(part.per_segment) {
            *sum += n;
        }
        all.spans.extend(part.spans);
        all.latencies.extend(part.latencies);
    }
    env.next_id = first_id + widest * CONNECTIONS;
    all
}

/// Closed loop for `seconds`; returns the result and the median of the
/// per-segment rates of correct rows.
fn closed_phase(env: &mut Env, seconds: f64, keep: Keep) -> (ClosedResult, f64) {
    let start = Instant::now();
    let result = closed_loop(env, Stop::For { start, seconds }, keep);
    let part_s = seconds / SEGMENTS as f64;
    let rates: Vec<f64> = result
        .per_segment
        .iter()
        .map(|n| *n as f64 / part_s)
        .collect();
    println!("segments: rows/s {rates:.0?}");
    (result, median(&rates))
}

// ---- open loop ------------------------------------------------------------

struct OpenResult {
    first_id: u64,
    start: Instant,
    seconds: f64,
    rate: f64,
    /// When each request actually left, in send order.
    sent: Vec<Instant>,
    replies: Vec<Reply>,
}

impl OpenResult {
    fn due(&self, id: u64) -> Instant {
        self.start + Duration::from_secs_f64((id - self.first_id) as f64 / self.rate)
    }
}

fn open_loop(env: &mut Env, rate: f64, seconds: f64) -> OpenResult {
    let total = (rate * seconds) as u64;
    let first_id = env.next_id;
    env.next_id += total;
    let (mut reader, mut writer) = connect(env.server.addr());
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let (stream, oracle) = (&env.stream, &env.oracle);

    let (sent, replies) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut replies = Vec::with_capacity(total as usize);
            while (replies.len() as u64) < total {
                let Ok(Some(payload)) = wire::read_frame(&mut reader) else {
                    break;
                };
                replies.push(judge(&payload, Instant::now(), stream, oracle));
            }
            replies
        });
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(total as usize);
            let mut buf = Vec::new();
            let mut next = 0u64;
            while next < total {
                let now = Instant::now();
                let due_count = if now < start {
                    0
                } else {
                    (((now - start).as_secs_f64() * rate) as u64 + 1).min(total)
                };
                if due_count > next {
                    buf.clear();
                    for k in next..due_count {
                        stream.write_frame(first_id + k, &mut buf);
                    }
                    if writer.write_all(&buf).is_err() {
                        break;
                    }
                    let left = Instant::now();
                    sent.resize(due_count as usize, left);
                    next = due_count;
                } else {
                    // Sleep, never spin: a spinning generator would take a
                    // core from the server it is measuring. The timer's
                    // slack makes sends leave in small bursts; how late
                    // they leave is measured, not hidden.
                    std::thread::sleep(due(next).saturating_duration_since(now));
                }
            }
            (sent, writer)
        });
        let (sent, writer) = sender.join().expect("open-loop sender thread");
        // Give stragglers DRAIN, then cut the socket so the receiver ends.
        let deadline = Instant::now() + DRAIN;
        while !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = writer.shutdown(Shutdown::Both);
        (sent, receiver.join().expect("open-loop receiver thread"))
    });
    OpenResult {
        first_id,
        start,
        seconds,
        rate,
        sent,
        replies,
    }
}

/// What the open loop says about latency, the SLO and itself.
struct OpenSummary {
    seconds: f64,
    attempted: u64,
    failed: u64,
    all: Latencies,
    cached: Latencies,
    uncached: Latencies,
    queue_wait: Latencies,
    lag: Latencies,
    late_send_frac: f64,
    /// Completions over sends in the last quarter of the phase.
    tail_drain_ratio: f64,
}

fn summarise_open(open: &OpenResult, slo_ms: f64) -> OpenSummary {
    let attempted = (open.rate * open.seconds) as u64;
    let mut s = OpenSummary {
        seconds: open.seconds,
        attempted,
        failed: 0,
        all: Latencies::default(),
        cached: Latencies::default(),
        uncached: Latencies::default(),
        queue_wait: Latencies::default(),
        lag: Latencies::default(),
        late_send_frac: 0.0,
        tail_drain_ratio: 0.0,
    };
    let mut ok = 0u64;
    let tail_from = open.start + Duration::from_secs_f64(open.seconds * 0.75);
    let tail_to = open.start + Duration::from_secs_f64(open.seconds);
    let mut tail_done = 0u64;
    for r in &open.replies {
        if r.recv >= tail_from && r.recv < tail_to {
            tail_done += 1;
        }
        if !r.ok {
            continue;
        }
        ok += 1;
        // A request belongs to the part of the window it was due in.
        let due = open.due(r.id);
        let at = (due - open.start).as_secs_f64();
        let latency = r.recv.saturating_duration_since(due);
        s.all.push(at, latency);
        if r.cached {
            s.cached.push(at, latency);
        } else {
            s.uncached.push(at, latency);
            // A cached reply never entered the batcher and has no wait.
            s.queue_wait
                .push(at, Duration::from_micros(r.queue_wait_us));
        }
    }
    s.failed = attempted - ok;
    let mut late = 0u64;
    for (k, left) in open.sent.iter().enumerate() {
        let due = open.due(open.first_id + k as u64);
        let lag = left.saturating_duration_since(due);
        if lag.as_secs_f64() * 1e3 > slo_ms * LATE_SEND_SHARE {
            late += 1;
        }
        s.lag.push((due - open.start).as_secs_f64(), lag);
    }
    late += attempted - open.sent.len() as u64; // never sent at all
    s.late_send_frac = late as f64 / attempted.max(1) as f64;
    s.tail_drain_ratio = tail_done as f64 / (open.rate * open.seconds * 0.25).max(1.0);
    s
}

/// The generator's self-audit: a saturated or late-running run is reported
/// as such, not as a latency. More than 1 % of sends late, or fewer than 0.98
/// completions per send over the last quarter of the phase, fails it.
fn audit(s: &OpenSummary) -> Result<(), String> {
    if s.late_send_frac > 0.01 {
        return Err(format!(
            "{:.2} % of sends ran later than {LATE_SEND_SHARE} of the latency limit",
            s.late_send_frac * 100.0
        ));
    }
    if s.tail_drain_ratio < 0.98 {
        return Err(format!(
            "backlog still growing: {:.3} completions per send over the last quarter",
            s.tail_drain_ratio
        ));
    }
    Ok(())
}

fn open_spans(tracer: &mut Tracer, open: &OpenResult) {
    let last = open.first_id + TRACE_REQUEST_CAP as u64;
    for r in open.replies.iter().filter(|r| r.ok && r.id < last) {
        let due = open.due(r.id);
        let left = open.sent[(r.id - open.first_id) as usize];
        let root = tracer.record("client.request", 0, r.id, due, r.recv);
        tracer.record("client.gen_lag", root, r.id, due, left);
        if !r.cached {
            // The reply carries the wait's length, not its position; it
            // starts when the request reaches the batcher, which on
            // loopback is within microseconds of the send.
            let wait = Duration::from_micros(r.queue_wait_us);
            tracer.record("serve.queue_wait", root, r.id, left, left + wait);
        }
    }
}

fn health_rtts(addr: SocketAddr) -> Latencies {
    let (mut reader, mut writer) = connect(addr);
    let mut rtts = Latencies::default();
    let mut buf = Vec::new();
    for id in 1..=HEALTH_PROBES as u64 {
        buf.clear();
        let payload = wire::encode_request(&Request::Health { id }).expect("health encodes");
        wire::write_frame(&mut buf, &payload).expect("write to Vec");
        let start = Instant::now();
        writer.write_all(&buf).expect("health probe sends");
        let reply = wire::read_frame(&mut reader)
            .expect("health reply")
            .expect("open socket");
        rtts.push(0.0, start.elapsed());
        assert!(matches!(
            wire::decode_response(&reply),
            Ok(Response::Health { .. })
        ));
    }
    rtts
}

// ---- the runs -------------------------------------------------------------

/// The workload's parameters; `open_s` is 0 in a pass without the open loop.
fn params(spec: &OnlineSpec, open_s: f64, closed_s: f64) -> Vec<(String, Json)> {
    vec![
        ("model".into(), Json::Str("Fraud-FC-256".into())),
        ("universe_rows".into(), Json::Num(UNIVERSE as f64)),
        (
            "entities".into(),
            Json::Str(if spec.skewed {
                format!("zipf(s={ZIPF_S})")
            } else {
                "uniform".into()
            }),
        ),
        (
            "cache".into(),
            Json::Str(if spec.skewed {
                format!("exact, max_entries={CACHE_ENTRIES}")
            } else {
                "off".into()
            }),
        ),
        ("open_loop_rate_per_s".into(), Json::Num(spec.rate)),
        ("open_loop_s".into(), Json::Num(open_s)),
        ("closed_loop_s".into(), Json::Num(closed_s)),
        (
            "closed_loop_connections".into(),
            Json::Num(CONNECTIONS as f64),
        ),
        ("closed_loop_in_flight".into(), Json::Num(IN_FLIGHT as f64)),
        ("latency_limit_ms".into(), Json::Num(spec.slo_ms)),
        ("tail_percentile".into(), Json::Num(TAIL_P)),
        ("warmup_requests".into(), Json::Num(WARMUP_REQUESTS as f64)),
        ("server_config".into(), Json::Str("library defaults".into())),
    ]
}

/// What the open loop of a pass found, its latencies already in the values.
struct PhaseA {
    attempted: u64,
    failed: u64,
    valid: bool,
}

/// Report an open loop's latencies and audit its generator. Only the
/// end-to-end pass is long enough to be held to its tail percentile's sample
/// count.
fn report_open(
    values: &mut Values,
    spec: &OnlineSpec,
    open: &OpenSummary,
    need_tail: bool,
) -> PhaseA {
    println!(
        "phase A (open loop, {} req/s, {:.1} s): attempted {}, succeeded {}, failed {}",
        spec.rate,
        open.seconds,
        open.attempted,
        open.attempted - open.failed,
        open.failed
    );
    let mut valid =
        report_latency(values, "open loop", &open.all, open.seconds, TAIL_P) || !need_tail;
    println!(
        "segments: p{:.0} ms {:.3?}",
        TAIL_P * 100.0,
        open.all.segment_percentiles(TAIL_P, open.seconds, SEGMENTS)
    );
    println!(
        "generator: send lag p50 {:.0} us, p99 {:.0} us, max {:.0} us; {:.3} % of sends late",
        open.lag.percentile_us(0.5),
        open.lag.percentile_us(0.99),
        open.lag.percentile_us(1.0),
        open.late_send_frac * 100.0
    );
    if let Err(why) = audit(open) {
        println!("generator audit: INVALID, {why}");
        valid = false;
    }
    values.insert(
        "diag.slo_miss_frac",
        open.all.miss_frac(spec.slo_ms, open.attempted),
    );
    PhaseA {
        attempted: open.attempted,
        failed: open.failed,
        valid,
    }
}

/// Run one online workload.
pub fn run(spec: &OnlineSpec, args: &RunArgs) -> Outcome {
    let (mut env, setup_s) = repeat_setup(args.setups(), || setup(spec, args.seed));
    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    println!("set-up: {setup_s:.4} s (median of {})", args.setups());
    if args.trace {
        return run_traced(spec, args, &mut env, values);
    }

    let open_s = args.seconds * spec.open_share;
    let closed_s = args.seconds - open_s;
    let open = (open_s > 0.0).then(|| {
        let open = summarise_open(&open_loop(&mut env, spec.rate, open_s), spec.slo_ms);
        report_open(&mut values, spec, &open, true)
    });
    let keep = if open.is_some() {
        Keep::Nothing
    } else {
        Keep::Latencies
    };
    let (closed, rows_per_s) = closed_phase(&mut env, closed_s, keep);
    println!(
        "phase B (closed loop, {CONNECTIONS} x {IN_FLIGHT}, {closed_s:.1} s): attempted {}, succeeded {}, failed {}",
        closed.attempted,
        closed.attempted - closed.failed,
        closed.failed
    );
    values.insert("rows_per_s", rows_per_s);
    let (mut attempted, mut failed) = (closed.attempted, closed.failed);
    let valid = match open {
        Some(a) => {
            attempted += a.attempted;
            failed += a.failed;
            a.valid
        }
        // Without an open loop the closed loop's replies, each timed from
        // its own send, are the latency a user sees.
        None => {
            values.insert(
                "diag.slo_miss_frac",
                closed.latencies.miss_frac(spec.slo_ms, closed.attempted),
            );
            report_latency(
                &mut values,
                "closed loop",
                &closed.latencies,
                closed_s,
                TAIL_P,
            )
        }
    };
    Outcome {
        attempted,
        failed,
        valid,
        values,
        params: params(spec, open_s, closed_s),
    }
}

fn counter_deltas(values: &mut Values, before: &ServeStats, after: &ServeStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let batches = d(after.batches, before.batches);
    values.insert(
        "serve.fused_rows_per_batch",
        d(after.fused_rows, before.fused_rows) / batches.max(1.0),
    );
    let hits = d(after.cache.hits, before.cache.hits);
    let misses = d(after.cache.misses, before.cache.misses);
    values.insert("serve.cache_hit_frac", hits / (hits + misses).max(1.0));
    values.insert(
        "serve.cache_insertions",
        d(after.cache.insertions, before.cache.insertions),
    );
    values.insert(
        "serve.cache_evictions",
        d(after.cache.evictions, before.cache.evictions),
    );
    values.insert("serve.cache_bytes", after.cache.bytes as f64);
    values.insert(
        "serve.read_pauses",
        d(after.reactor.read_pauses, before.reactor.read_pauses),
    );
    values.insert(
        "serve.response_parks",
        d(after.reactor.response_parks, before.reactor.response_parks),
    );
    values.insert("serve.shed", d(after.shed, before.shed));
    values.insert(
        "serve.deadline_rejected",
        d(after.deadline_rejected, before.deadline_rejected),
    );
}

fn run_traced(spec: &OnlineSpec, args: &RunArgs, env: &mut Env, mut values: Values) -> Outcome {
    let mut tracer = Tracer::new(true);
    let (open_s, closed_s) = (args.seconds * 0.3, args.seconds * 0.15);
    let session = Arc::clone(env.server.session());
    let serve_before = env.server.stats();
    let session_before = layers::SessionSnapshot::take(&session);

    let raw = open_loop(env, spec.rate, open_s);
    // Counters cover the open loop only: they explain its latencies, and the
    // closed loops that follow would swamp them with full batches.
    counter_deltas(&mut values, &serve_before, &env.server.stats());
    session_before.deltas_into(&mut values, &session);
    open_spans(&mut tracer, &raw);
    let open = summarise_open(&raw, spec.slo_ms);
    let a = report_open(&mut values, spec, &open, false);
    // On `online_skewed` the open loop's median is not the end-to-end
    // latency; it is reported beside the layers on both workloads.
    let open_p50 = values["latency_p50_ms"];
    values.insert("diag.open_loop_p50_ms", open_p50);
    let health = health_rtts(env.server.addr());
    let (traced, traced_rate) = closed_phase(env, closed_s, Keep::Spans);
    for (id, sent, recv) in &traced.spans {
        tracer.record("client.closed_request", 0, *id, *sent, *recv);
    }
    let (plain, plain_rate) = closed_phase(env, closed_s, Keep::Nothing);
    println!(
        "traced phase B (closed loop, {closed_s:.1} s traced + {closed_s:.1} s untraced): attempted {}, failed {}",
        traced.attempted + plain.attempted,
        traced.failed + plain.failed
    );

    values.insert("rows_per_s", plain_rate);
    let valid = a.valid;
    let attempted = a.attempted + traced.attempted + plain.attempted;
    let failed = a.failed + traced.failed + plain.failed;
    values.insert("diag.failed_frac", failed as f64 / attempted.max(1) as f64);
    values.insert("diag.run_valid", f64::from(u8::from(valid)));
    values.insert(
        "trace_overhead_frac",
        1.0 - traced_rate / plain_rate.max(1.0),
    );
    values.insert(
        "serve.queue_wait_p50_us",
        open.queue_wait.percentile_us(0.50),
    );
    values.insert(
        "serve.queue_wait_p99_us",
        open.queue_wait.percentile_us(0.99),
    );
    values.insert("serve.cached_resp_p50_us", open.cached.percentile_us(0.50));
    values.insert(
        "serve.uncached_resp_p50_us",
        open.uncached.percentile_us(0.50),
    );
    values.insert(
        "serve.uncached_resp_p99_us",
        open.uncached.percentile_us(0.99),
    );
    values.insert("serve.gen_lag_p99_us", open.lag.percentile_us(0.99));
    values.insert("serve.health_rtt_p50_us", health.percentile_us(0.50));

    // Replay each layer's calls at the shapes this workload produced: the
    // mean fused batch the batcher formed, one request frame, one reply.
    let fused_rows = (values["serve.fused_rows_per_batch"].round() as usize).max(1);
    let sample_id = raw.first_id;
    layers::serve_codec(
        &mut values,
        &mut tracer,
        &env.stream.request(sample_id),
        env.oracle[env.stream.entity(sample_id)],
    );
    let replay = layers::ModelReplay {
        model: &env.model,
        int8: None,
        batch: env
            .stream
            .universe()
            .slice2(0, fused_rows, 0, env.model.input_shape().num_elements())
            .expect("universe slice"),
        parts: fused_rows,
        config: SessionConfig::default(),
        architecture: relserve_core::Architecture::UdfCentric,
    };
    layers::model_stack(&mut values, &mut tracer, &replay);
    layers::session_overhead(&mut values, &tracer);
    if spec.skewed {
        layers::vectoridx(
            &mut values,
            &mut tracer,
            env.stream.universe(),
            CACHE_ENTRIES,
        );
    }
    layers::write_trace(&tracer, args, spec.name);

    let mut params = params(spec, open_s, 2.0 * closed_s);
    params.push(("replay_fused_rows".into(), Json::Num(fused_rows as f64)));
    Outcome {
        attempted,
        failed,
        valid,
        values,
        params,
    }
}
