//! A blocking, pipelining-capable, self-healing client for the serving
//! frontend's wire protocol.
//!
//! [`Client`] is deliberately a *second implementation* of the wire
//! contract (the server's reactor being the first): it speaks the same
//! `serve::wire` codec from the peer side, which pins the protocol in
//! tests. It supports deep pipelining — issue many requests with
//! [`send_infer`](Client::send_infer), then collect responses in any
//! order by id with [`wait`](Client::wait) or in server send order with
//! [`recv`](Client::recv).
//!
//! ## Ordering guarantees
//!
//! Within one connection, the server may complete pipelined requests out
//! of order (different priority classes, batch boundaries, cache hits), so
//! responses are matched by echoed request id, never by position.
//! [`wait`] stashes any response that arrives for a different id and hands
//! it out when that id is waited on. Across *different* connections there
//! is no ordering relationship at all.
//!
//! ## Self-healing
//!
//! A client built with [`connect_resilient`](Client::connect_resilient)
//! carries a [`RetryPolicy`]. When the connection dies mid-conversation —
//! peer reset, torn frame, server restart — the client transparently
//! reconnects with jittered exponential backoff and **re-submits every
//! request that was sent but not yet answered**, preserving the original
//! request ids. Inference over a relational snapshot is idempotent (the
//! same rows through the same frozen model weights produce the same
//! predictions), so replaying an unanswered request is always safe; the
//! caller's `wait(id)` eventually resolves against the replayed response
//! without ever observing the reconnect. Healing is bounded: after
//! `max_attempts` *consecutive* failed cycles with no successfully read
//! response in between, the underlying error surfaces to the caller.

use crate::error::{Error, Result};
use crate::wire::{self, HealthState, InferRequest, Request, Response};
use relserve_runtime::{Priority, RetryPolicy, FAULT_SEED_ENV};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Max attempts used by [`retry_policy_from_env`] when
/// [`CLIENT_RETRIES_ENV`] is unset.
const DEFAULT_CLIENT_RETRIES: u32 = 6;
/// Base backoff (milliseconds) used by [`retry_policy_from_env`] when
/// [`CLIENT_BACKOFF_MS_ENV`] is unset.
const DEFAULT_CLIENT_BACKOFF_MS: u64 = 10;

/// Env var overriding the resilient client's max reconnect attempts.
pub const CLIENT_RETRIES_ENV: &str = "RELSERVE_CLIENT_RETRIES";
/// Env var overriding the resilient client's base backoff in milliseconds.
pub const CLIENT_BACKOFF_MS_ENV: &str = "RELSERVE_CLIENT_BACKOFF_MS";
/// Env var overriding the resilient client's jitter fraction (`[0, 1]`).
pub const CLIENT_JITTER_ENV: &str = "RELSERVE_CLIENT_JITTER";

/// The [`RetryPolicy`] a resilient client uses by default: 6 attempts,
/// 10 ms base backoff, 25% jitter — overridable per-knob through
/// [`CLIENT_RETRIES_ENV`], [`CLIENT_BACKOFF_MS_ENV`] and
/// [`CLIENT_JITTER_ENV`].
pub fn retry_policy_from_env() -> RetryPolicy {
    let parse_u = |var: &str, default: u64| {
        std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(default)
    };
    let jitter = std::env::var(CLIENT_JITTER_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.25);
    RetryPolicy {
        max_attempts: parse_u(CLIENT_RETRIES_ENV, u64::from(DEFAULT_CLIENT_RETRIES)).max(1) as u32,
        base_backoff: Duration::from_millis(parse_u(
            CLIENT_BACKOFF_MS_ENV,
            DEFAULT_CLIENT_BACKOFF_MS,
        )),
        jitter: jitter.clamp(0.0, 1.0),
    }
}

/// What a Health probe reported, as one named snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Readiness of the server.
    pub state: HealthState,
    /// Live connections at probe time.
    pub live_connections: u64,
    /// Reactor pollers currently past the watchdog staleness threshold.
    pub stalled_pollers: u64,
}

/// The buffered read/write halves of one live connection.
struct Io {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Io {
    fn open(addr: SocketAddr) -> Result<Io> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Io {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// A blocking connection to a [`crate::Server`] with id-matched
/// pipelining and (optionally) policy-driven self-healing.
pub struct Client {
    addr: SocketAddr,
    io: Option<Io>,
    /// `Some` makes the client self-healing; `None` keeps the historical
    /// fail-fast behavior of [`Client::connect`].
    policy: Option<RetryPolicy>,
    /// SplitMix64 state feeding `backoff_jittered`.
    jitter_stream: u64,
    next_id: u64,
    /// Responses read off the wire while waiting for a different id.
    stash: HashMap<u64, Response>,
    /// Encoded payloads of requests sent but not yet answered, keyed by
    /// request id — the replay set after a reconnect. Ordered so replays
    /// hit the server in original submission order.
    inflight: BTreeMap<u64, Vec<u8>>,
    /// Failed heal cycles since the last successfully read response.
    consecutive_heals: u32,
    reconnects: u64,
}

impl Client {
    /// Connect to a serving frontend. The returned client fails fast: any
    /// socket error surfaces immediately, with no reconnection.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        Ok(Self::build(addr, Io::open(addr)?, None))
    }

    /// Connect with self-healing: the initial connect and any later
    /// mid-conversation failure retry up to `policy.max_attempts` times
    /// with jittered exponential backoff, replaying unanswered requests
    /// after each reconnect.
    pub fn connect_resilient(addr: SocketAddr, policy: RetryPolicy) -> Result<Self> {
        let mut stream = Self::seed_stream(addr);
        let mut last: Option<Error> = None;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff_jittered(attempt, &mut stream));
            }
            match Io::open(addr) {
                Ok(io) => {
                    let mut client = Self::build(addr, io, Some(policy));
                    client.jitter_stream = stream;
                    client.reconnects = u64::from(attempt);
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::Protocol("connect: zero attempts".into())))
    }

    fn build(addr: SocketAddr, io: Io, policy: Option<RetryPolicy>) -> Self {
        Client {
            addr,
            io: Some(io),
            policy,
            jitter_stream: Self::seed_stream(addr),
            next_id: 1,
            stash: HashMap::new(),
            inflight: BTreeMap::new(),
            consecutive_heals: 0,
            reconnects: 0,
        }
    }

    /// Deterministic per-destination jitter seed: the fault seed when the
    /// run pins one (reproducible chaos tests), else the destination port
    /// folded into SplitMix64's golden-gamma constant.
    fn seed_stream(addr: SocketAddr) -> u64 {
        std::env::var(FAULT_SEED_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(addr.port()).rotate_left(17)
    }

    /// How many times this client has torn down and re-established its
    /// connection (including extra attempts during `connect_resilient`).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Tear down the current connection, reconnect with backoff, and
    /// replay every unanswered request under its original id. Returns the
    /// original `cause` once the policy's attempt budget (or the
    /// consecutive-heal bound) is exhausted.
    fn heal(&mut self, cause: Error) -> Result<()> {
        let Some(policy) = self.policy else {
            self.io = None;
            return Err(cause);
        };
        let budget = policy.max_attempts.max(1);
        if self.consecutive_heals >= budget {
            self.io = None;
            return Err(cause);
        }
        self.consecutive_heals += 1;
        self.io = None;
        for attempt in 1..=budget {
            std::thread::sleep(policy.backoff_jittered(attempt, &mut self.jitter_stream));
            let Ok(mut io) = Io::open(self.addr) else {
                continue;
            };
            // Replay unanswered requests in submission order. A failure
            // here means the fresh connection died under us — try again.
            let replayed = self
                .inflight
                .values()
                .try_for_each(|payload| wire::write_frame(&mut io.writer, payload).map(|_| ()));
            if replayed.is_ok() {
                self.reconnects += 1;
                self.io = Some(io);
                return Ok(());
            }
        }
        Err(cause)
    }

    /// Record `payload` as in flight under `id` and send it, healing the
    /// connection on failure. The replay inside `heal` covers this request
    /// too, so a successful heal means the frame is on the wire.
    fn track_and_send(&mut self, id: u64, payload: Vec<u8>) -> Result<()> {
        let err = match self.io.as_mut() {
            Some(io) => match wire::write_frame(&mut io.writer, &payload) {
                Ok(()) => {
                    self.inflight.insert(id, payload);
                    return Ok(());
                }
                Err(e) => e.into(),
            },
            None => Error::Protocol("connection is down".into()),
        };
        self.inflight.insert(id, payload);
        self.heal(err)
    }

    /// Send one inference request without waiting for its response;
    /// returns the request id for demultiplexing. Any number of requests
    /// may be in flight before the first [`wait`](Self::wait). A request
    /// whose frame the server would refuse (over
    /// [`wire::MAX_FRAME_BYTES`]) is an [`Error::Wire`] before any byte is
    /// sent, and the connection stays usable.
    pub fn send_infer(
        &mut self,
        model: &str,
        class: Priority,
        deadline: Option<Duration>,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request(&Request::Infer(InferRequest {
            id,
            class,
            deadline_micros: deadline.map_or(0, |d| d.as_micros().max(1) as u64),
            model: model.to_string(),
            rows: rows as u32,
            cols: cols as u32,
            data,
        }))?;
        self.track_and_send(id, payload)?;
        Ok(id)
    }

    /// Send a `Stats` request without waiting; returns its id.
    pub fn send_stats(&mut self) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request(&Request::Stats { id })?;
        self.track_and_send(id, payload)?;
        Ok(id)
    }

    /// Send a `Health` probe without waiting; returns its id.
    fn send_health(&mut self) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request(&Request::Health { id })?;
        self.track_and_send(id, payload)?;
        Ok(id)
    }

    /// Read one response frame off the wire (ignoring the stash), healing
    /// the connection — and retrying the read — when it dies mid-stream.
    fn read_wire(&mut self) -> Result<Response> {
        loop {
            let err = match self.io.as_mut() {
                Some(io) => match wire::read_frame(&mut io.reader) {
                    Ok(Some(payload)) => {
                        let resp = wire::decode_response(&payload)?;
                        self.inflight.remove(&resp.id());
                        self.consecutive_heals = 0;
                        return Ok(resp);
                    }
                    Ok(None) => Error::Protocol("server closed the connection".into()),
                    Err(e) => e.into(),
                },
                None => Error::Protocol("connection is down".into()),
            };
            self.heal(err)?;
        }
    }

    /// Receive the next response: stashed responses first (oldest id
    /// first, for determinism), then the wire in server send order.
    pub fn recv(&mut self) -> Result<Response> {
        if let Some(&id) = self.stash.keys().min() {
            return Ok(self.stash.remove(&id).expect("stash key just seen"));
        }
        self.read_wire()
    }

    /// Block until the response for `id` arrives, stashing responses for
    /// other in-flight ids along the way.
    ///
    /// A response with the reserved connection-level id 0 (the server
    /// failing the whole connection, e.g. on an undecodable frame) is
    /// surfaced as a [`Error::Protocol`] immediately — it can never match
    /// a legitimate request id and waiting on would deadlock.
    pub fn wait(&mut self, id: u64) -> Result<Response> {
        if let Some(resp) = self.stash.remove(&id) {
            return Ok(resp);
        }
        loop {
            let resp = self.read_wire()?;
            if resp.id() == id {
                return Ok(resp);
            }
            if resp.id() == 0 {
                return Err(Error::Protocol(format!(
                    "connection-level error while awaiting id {id}: {resp:?}"
                )));
            }
            self.stash.insert(resp.id(), resp);
        }
    }

    /// Send one inference request and block for *its* response. Safe to
    /// interleave with pipelined requests: foreign responses are stashed,
    /// not errors.
    pub fn infer(
        &mut self,
        model: &str,
        class: Priority,
        deadline: Option<Duration>,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Result<Response> {
        let id = self.send_infer(model, class, deadline, rows, cols, data)?;
        self.wait(id)
    }

    /// Fetch the server's counter snapshot.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        let id = self.send_stats()?;
        match self.wait(id)? {
            Response::Stats { counters, .. } => Ok(counters),
            other => Err(Error::Protocol(format!(
                "expected stats response for id {id}, got {other:?}"
            ))),
        }
    }

    /// Probe the server's health: the [`HealthState`] plus every gauge
    /// the server reported.
    pub fn health(&mut self) -> Result<HealthReport> {
        let id = self.send_health()?;
        match self.wait(id)? {
            Response::Health {
                state,
                live_connections,
                stalled_pollers,
                ..
            } => Ok(HealthReport {
                state,
                live_connections,
                stalled_pollers,
            }),
            other => Err(Error::Protocol(format!(
                "expected health response for id {id}, got {other:?}"
            ))),
        }
    }
}
