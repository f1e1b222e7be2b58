//! The readiness-driven event loop replacing thread-per-connection.
//!
//! One (or a few) **poller** threads multiplex every accepted connection
//! through a level-triggered epoll set. Poller 0 additionally owns the
//! listener: accepted sockets are made nonblocking, checked against the
//! connection-slot budget (exhaustion sheds with a typed `Overloaded`
//! frame at accept time), and handed to their owning poller — chosen by
//! connection id — through a mutex inbox plus eventfd wake. All read-side
//! state (frame reassembly buffer) lives in the owning poller's table, so
//! it needs no locking; the write side is the shared [`Conn`] state
//! machine.
//!
//! Decoded requests pass the cache front on the poller thread, and all
//! that one socket read produced enter the batcher together
//! ([`Batcher::enqueue`]: one lock, at most one wake per parked executor);
//! responses come back from executor threads through
//! [`Conn::send_frames`], which never blocks a poller or an executor on a
//! slow peer.

use crate::batcher::{Batcher, Responder, ResponseSink, Submission};
use crate::conn::{Conn, Flush};
use crate::stats::{export_counters, ServeCounters};
use crate::sys::{
    self, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::{self, ErrorCode, HealthState, Request, Response, MAX_FRAME_BYTES};
use relserve_core::InferenceSession;
use relserve_runtime::FaultInjector;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of a poller's wake eventfd.
const TOKEN_WAKER: u64 = u64::MAX;
/// Token of the listener (poller 0 only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Cap on bytes pulled off one socket per readiness event, so one firehose
/// connection cannot starve its poller's siblings.
const READ_BUDGET: usize = 256 * 1024;
/// A heartbeat older than this marks its poller stalled. Generous: the
/// epoll timeout is 250 ms, so a healthy poller beats at least 8× faster
/// even on a loaded single-core host.
const WATCHDOG_STALL_MS: u64 = 2_000;

/// Reactor-wide shared context.
pub(crate) struct ReactorCtx {
    pub counters: Arc<ServeCounters>,
    pub batcher: Arc<Batcher>,
    pub session: Arc<InferenceSession>,
    pub shutdown: Arc<AtomicBool>,
    /// Live connection gauge; accept increments, close decrements.
    pub live: Arc<AtomicUsize>,
    pub max_connections: usize,
    pub write_buffer_bytes: usize,
    /// Seeded socket chaos; `None` outside fault-injection runs.
    pub faults: Option<FaultInjector>,
    /// 0 = running, 1 = draining. Set once by [`ReactorCtx::enter_drain`].
    drain: AtomicU8,
    /// When true, poller 0 polls the SIGTERM flag and enters drain on it.
    watch_sigterm: AtomicBool,
    /// Per-poller heartbeat: milliseconds since `epoch` of the poller's
    /// last loop iteration, stored relaxed from the poller itself.
    heartbeats: Vec<AtomicU64>,
    epoch: Instant,
    next_conn_id: AtomicU64,
}

impl ReactorCtx {
    #[allow(clippy::too_many_arguments)] // one-time wiring call from Server::spawn
    pub fn new(
        counters: Arc<ServeCounters>,
        batcher: Arc<Batcher>,
        session: Arc<InferenceSession>,
        shutdown: Arc<AtomicBool>,
        live: Arc<AtomicUsize>,
        max_connections: usize,
        write_buffer_bytes: usize,
        pollers: usize,
        faults: Option<FaultInjector>,
    ) -> ReactorCtx {
        ReactorCtx {
            counters,
            batcher,
            session,
            shutdown,
            live,
            max_connections,
            write_buffer_bytes,
            faults,
            drain: AtomicU8::new(0),
            watch_sigterm: AtomicBool::new(false),
            heartbeats: (0..pollers).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            next_conn_id: AtomicU64::new(1),
        }
    }

    /// Flip the reactor into draining exactly once: new work is refused
    /// with typed `Draining` errors and every buffered-but-unadmitted
    /// request is shed. Idempotent; returns true on the first call.
    pub fn enter_drain(&self) -> bool {
        if self
            .drain
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        self.counters.drain.state.store(1, Ordering::Relaxed);
        self.batcher.drain_shed();
        true
    }

    pub fn is_draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) == 1
    }

    /// Ask poller 0 to watch the process SIGTERM flag.
    pub fn watch_sigterm(&self) {
        self.watch_sigterm.store(true, Ordering::SeqCst);
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Record that poller `idx` completed a loop iteration just now.
    fn heartbeat(&self, idx: usize) {
        if let Some(hb) = self.heartbeats.get(idx) {
            hb.store(self.now_ms(), Ordering::Relaxed);
        }
    }

    /// Recount stalled pollers from the heartbeat array, updating the
    /// `serve.reactor.stalled_pollers` gauge and bumping
    /// `serve.reactor.watchdog_stalls` for every fresh-to-stale flip.
    /// Driven by poller 0 each loop and by `ServerHandle::stats()` as a
    /// backstop (so a wedged poller 0 is still reported).
    pub fn refresh_watchdog(&self) {
        let stalled = count_stalled(&self.heartbeats, self.now_ms(), WATCHDOG_STALL_MS);
        let prev = self
            .counters
            .reactor
            .stalled_pollers
            .swap(stalled, Ordering::Relaxed);
        if stalled > prev {
            self.counters
                .reactor
                .watchdog_stalls
                .fetch_add(stalled - prev, Ordering::Relaxed);
        }
    }

    /// The readiness this server would report on a Health probe.
    pub fn health_state(&self) -> HealthState {
        if self.is_draining() {
            HealthState::Draining
        } else if self.live.load(Ordering::SeqCst) >= self.max_connections {
            HealthState::Overloaded
        } else {
            HealthState::Ok
        }
    }
}

/// Heartbeats older than `threshold_ms` (against `now_ms`) are stalled.
fn count_stalled(heartbeats: &[AtomicU64], now_ms: u64, threshold_ms: u64) -> u64 {
    heartbeats
        .iter()
        .filter(|hb| now_ms.saturating_sub(hb.load(Ordering::Relaxed)) > threshold_ms)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    // A poller cannot be genuinely wedged from a unit test, so the
    // positive watchdog case runs against synthetic heartbeats.
    #[test]
    fn watchdog_counts_stale_heartbeats() {
        let beats: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        // t=0: all fresh (age 0 is not > threshold).
        assert_eq!(count_stalled(&beats, 0, 2_000), 0);
        beats[0].store(5_000, Ordering::Relaxed);
        beats[1].store(4_500, Ordering::Relaxed);
        // Poller 2 never beat again: age 5_100 > 2_000.
        assert_eq!(count_stalled(&beats, 5_100, 2_000), 1);
        // Everyone stale once the clock runs far enough ahead.
        assert_eq!(count_stalled(&beats, 10_000, 2_000), 3);
        // A fresh beat recovers the poller.
        beats[2].store(10_000, Ordering::Relaxed);
        assert_eq!(count_stalled(&beats, 10_000, 2_000), 2);
    }
}

/// The cross-thread face of one poller: its epoll set, its wake eventfd,
/// and the inbox through which the accepting poller hands it fresh
/// connections.
pub(crate) struct PollerShared {
    pub epoll: Arc<Epoll>,
    pub waker: WakeFd,
    inbox: Mutex<Vec<Arc<Conn>>>,
}

impl PollerShared {
    /// Close connections handed to this poller but never adopted (the
    /// poller exited between the handoff and its final inbox sweep).
    /// Called after the poller joins; without it the live gauge leaks and
    /// the straggler sockets outlive the server.
    pub fn reap_stragglers(&self, live: &AtomicUsize) {
        let pending: Vec<Arc<Conn>> = {
            let mut inbox = self.inbox.lock().expect("poller inbox poisoned");
            std::mem::take(&mut *inbox)
        };
        for conn in pending {
            conn.close();
            live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// What [`spawn_reactor`] hands back: the cross-thread poller faces and
/// the poller thread handles, for wake-on-shutdown and join.
pub(crate) type ReactorParts = (Vec<Arc<PollerShared>>, Vec<JoinHandle<()>>);

/// Spawn `pollers` event-loop threads; poller 0 owns `listener`.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    pollers: usize,
    ctx: Arc<ReactorCtx>,
) -> std::io::Result<ReactorParts> {
    listener.set_nonblocking(true)?;
    let shared: Vec<Arc<PollerShared>> = (0..pollers)
        .map(|_| {
            Ok(Arc::new(PollerShared {
                epoll: Arc::new(Epoll::new()?),
                waker: WakeFd::new()?,
                inbox: Mutex::new(Vec::new()),
            }))
        })
        .collect::<std::io::Result<_>>()?;
    ctx.counters
        .reactor
        .pollers
        .store(pollers as u64, Ordering::Relaxed);

    let mut handles = Vec::with_capacity(pollers);
    let mut listener = Some(listener);
    for idx in 0..pollers {
        let me = Arc::clone(&shared[idx]);
        let all = shared.clone();
        let ctx = Arc::clone(&ctx);
        let listener = if idx == 0 { listener.take() } else { None };
        handles.push(
            std::thread::Builder::new()
                .name(format!("serve-poll-{idx}"))
                .spawn(move || run_poller(idx, me, all, listener, ctx))
                .expect("spawn poller thread"),
        );
    }
    Ok((shared, handles))
}

/// Read-side state the owning poller keeps per connection.
struct Entry {
    conn: Arc<Conn>,
    /// Partial-frame reassembly buffer.
    rbuf: Vec<u8>,
}

/// What to do with a connection after handling its event.
#[derive(PartialEq, Eq)]
enum ConnFlow {
    Continue,
    Close,
}

fn run_poller(
    idx: usize,
    me: Arc<PollerShared>,
    all: Vec<Arc<PollerShared>>,
    listener: Option<TcpListener>,
    ctx: Arc<ReactorCtx>,
) {
    let mut entries: HashMap<u64, Entry> = HashMap::new();
    let mut events = vec![EpollEvent::zeroed(); 512];
    me.epoll
        .add(me.waker.raw(), EPOLLIN, TOKEN_WAKER)
        .expect("register poller waker");
    if let Some(l) = &listener {
        me.epoll
            .add(std::os::fd::AsRawFd::as_raw_fd(l), EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
    }

    ctx.heartbeat(idx);
    while !ctx.shutdown.load(Ordering::SeqCst) {
        // The timeout is only a safety net: shutdown and handoffs arrive
        // via the eventfd, response readiness via EPOLLOUT.
        let n = match me.epoll.wait(&mut events, 250) {
            Ok(n) => n,
            Err(_) => continue,
        };
        ctx.heartbeat(idx);
        if idx == 0 {
            ctx.refresh_watchdog();
            if ctx.watch_sigterm.load(Ordering::SeqCst)
                && sys::take_signal(sys::SIGTERM)
                && ctx.enter_drain()
            {
                // Keep polling: in-flight responses still need flushing,
                // and probes/arrivals get typed Draining answers. The
                // application observes `drain_pending` and finishes the
                // drain from its own thread.
            }
        }
        for ev in events.iter().take(n) {
            let (mask, token) = (ev.events(), ev.token());
            match token {
                TOKEN_WAKER => {
                    me.waker.drain();
                    adopt_inbox(idx, &me, &mut entries, &ctx);
                }
                TOKEN_LISTENER => {
                    if let Some(l) = &listener {
                        accept_burst(idx, l, &all, &mut entries, &ctx);
                    }
                }
                id => {
                    let flow = handle_conn_event(mask, id, &mut entries, &ctx);
                    if flow == ConnFlow::Close {
                        close_conn(id, &mut entries, &ctx);
                    }
                }
            }
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }

    // Teardown: sever everything this poller owns, including connections
    // handed over but never adopted.
    adopt_inbox(idx, &me, &mut entries, &ctx);
    let ids: Vec<u64> = entries.keys().copied().collect();
    for id in ids {
        close_conn(id, &mut entries, &ctx);
    }
}

/// Move freshly accepted connections from the inbox into this poller's
/// table and epoll set.
fn adopt_inbox(
    _idx: usize,
    me: &Arc<PollerShared>,
    entries: &mut HashMap<u64, Entry>,
    ctx: &Arc<ReactorCtx>,
) {
    let pending: Vec<Arc<Conn>> = {
        let mut inbox = me.inbox.lock().expect("poller inbox poisoned");
        std::mem::take(&mut *inbox)
    };
    for conn in pending {
        adopt(conn, entries, ctx);
    }
}

fn adopt(conn: Arc<Conn>, entries: &mut HashMap<u64, Entry>, ctx: &Arc<ReactorCtx>) {
    if conn.register().is_err() {
        conn.close();
        ctx.live.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    entries.insert(
        conn.id(),
        Entry {
            conn,
            rbuf: Vec::new(),
        },
    );
}

fn close_conn(id: u64, entries: &mut HashMap<u64, Entry>, ctx: &Arc<ReactorCtx>) {
    if let Some(entry) = entries.remove(&id) {
        entry.conn.close();
        ctx.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accept until the listener runs dry. Slot exhaustion sheds with a typed
/// wire error *at accept time* instead of accepting and stalling.
fn accept_burst(
    my_idx: usize,
    listener: &TcpListener,
    all: &[Arc<PollerShared>],
    entries: &mut HashMap<u64, Entry>,
    ctx: &Arc<ReactorCtx>,
) {
    // Chaos draw: defer the whole burst one reactor round. The listener
    // stays readable, so level-triggered epoll re-reports it — accepts are
    // delayed, never lost.
    if let Some(f) = &ctx.faults {
        if f.should_delay_accept() {
            ctx.counters
                .faults
                .delayed_accepts
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctx.is_draining() {
                    ctx.counters
                        .drain
                        .shed_accepts
                        .fetch_add(1, Ordering::Relaxed);
                    shed_connection(
                        stream,
                        ErrorCode::Draining,
                        "server is draining; not accepting connections".into(),
                    );
                    continue;
                }
                if ctx.live.load(Ordering::SeqCst) >= ctx.max_connections {
                    ctx.counters
                        .reactor
                        .accept_shed
                        .fetch_add(1, Ordering::Relaxed);
                    shed_connection(
                        stream,
                        ErrorCode::Overloaded,
                        format!("connection slots exhausted ({} live)", ctx.max_connections),
                    );
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let id = ctx.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let owner = (id as usize) % all.len();
                let conn = Arc::new(Conn::new(
                    id,
                    stream,
                    Arc::clone(&all[owner].epoll),
                    ctx.write_buffer_bytes,
                    Arc::clone(&ctx.counters),
                    ctx.faults.clone(),
                ));
                ctx.live.fetch_add(1, Ordering::SeqCst);
                ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
                if owner == my_idx {
                    adopt(conn, entries, ctx);
                } else {
                    all[owner]
                        .inbox
                        .lock()
                        .expect("poller inbox poisoned")
                        .push(conn);
                    all[owner].waker.wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept failure (EMFILE under fd pressure, aborted
            // handshake): back off briefly instead of spinning on the
            // level-triggered listener event.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                break;
            }
        }
    }
}

/// Best-effort typed rejection for a connection we will not serve —
/// slot exhaustion (`Overloaded`) or drain (`Draining`).
fn shed_connection(stream: TcpStream, code: ErrorCode, message: String) {
    let _ = stream.set_nonblocking(true);
    let resp = Response::Error {
        id: 0,
        code,
        message,
    };
    let mut frame = Vec::new();
    if wire::encode_response_frame_into(&mut frame, &resp).is_ok() {
        let mut off = 0;
        while off < frame.len() {
            match (&stream).write(&frame[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    // Dropping the stream closes it; the frame (if it fit the socket
    // buffer, which a ~40-byte error always does) is still delivered.
}

fn handle_conn_event(
    mask: u32,
    id: u64,
    entries: &mut HashMap<u64, Entry>,
    ctx: &Arc<ReactorCtx>,
) -> ConnFlow {
    let Some(entry) = entries.get_mut(&id) else {
        return ConnFlow::Continue;
    };
    if mask & (EPOLLERR | EPOLLHUP) != 0 {
        return ConnFlow::Close;
    }
    if mask & EPOLLOUT != 0 {
        match entry.conn.flush() {
            Flush::Closed => return ConnFlow::Close,
            Flush::Ok => {
                // The queue drained: re-run any frames that were parked in
                // the reassembly buffer behind backpressure, then resume
                // reading if the pressure is off.
                if entry.conn.reads_paused() && entry.conn.parked() <= entry.conn.low_water() {
                    if dispatch_frames(entry, ctx) == ConnFlow::Close {
                        return ConnFlow::Close;
                    }
                    apply_backpressure(&entry.conn);
                }
            }
        }
    }
    if mask & (EPOLLIN | EPOLLRDHUP) != 0 && !entry.conn.reads_paused() {
        return read_and_dispatch(entry, ctx);
    }
    ConnFlow::Continue
}

/// Pause reads over the high-water mark, resume below the low-water mark.
fn apply_backpressure(conn: &Arc<Conn>) {
    let parked = conn.parked();
    if parked > conn.high_water() {
        conn.pause_reads();
    } else if conn.reads_paused() && parked <= conn.low_water() {
        conn.resume_reads();
    }
}

/// Pull bytes off the socket (bounded per event for fairness) and run the
/// frame state machine.
fn read_and_dispatch(entry: &mut Entry, ctx: &Arc<ReactorCtx>) -> ConnFlow {
    let mut chunk = [0u8; 16 * 1024];
    let mut budget = READ_BUDGET;
    if let Some(f) = &ctx.faults {
        // Stalled peer: skip the whole readiness event. Level-triggered
        // epoll re-reports it next round, so data is delayed, not lost.
        if f.should_stall_read() {
            ctx.counters
                .faults
                .stalled_reads
                .fetch_add(1, Ordering::Relaxed);
            return ConnFlow::Continue;
        }
        // Torn read: pull only a few bytes so frames land in fragments and
        // the reassembly buffer sees every partial-prefix shape. The rest
        // of the data stays in the kernel buffer for the next event.
        if f.should_tear_read() {
            ctx.counters
                .faults
                .torn_reads
                .fetch_add(1, Ordering::Relaxed);
            let mut tiny = [0u8; 3];
            loop {
                match (&mut entry.conn.sock()).read(&mut tiny) {
                    Ok(0) => return ConnFlow::Close, // clean EOF
                    Ok(n) => {
                        entry.rbuf.extend_from_slice(&tiny[..n]);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return ConnFlow::Close,
                }
            }
            let flow = dispatch_frames(entry, ctx);
            if flow == ConnFlow::Continue {
                apply_backpressure(&entry.conn);
            }
            return flow;
        }
    }
    loop {
        match (&mut entry.conn.sock()).read(&mut chunk) {
            Ok(0) => return ConnFlow::Close, // clean EOF
            Ok(n) => {
                entry.rbuf.extend_from_slice(&chunk[..n]);
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    break; // level-triggered epoll re-reports the rest
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFlow::Close,
        }
    }
    let flow = dispatch_frames(entry, ctx);
    if flow == ConnFlow::Continue {
        apply_backpressure(&entry.conn);
    }
    flow
}

/// Decode and dispatch every complete frame in the reassembly buffer,
/// stopping early when the connection's write queue crosses its
/// high-water mark (the remaining frames stay buffered until the queue
/// drains). Inference requests are answered by the cache front inline or
/// collected, and the collected ones enter the batcher in one hand-off.
fn dispatch_frames(entry: &mut Entry, ctx: &Arc<ReactorCtx>) -> ConnFlow {
    let mut consumed = 0;
    let mut flow = ConnFlow::Continue;
    let mut pending: Vec<Submission> = Vec::new();
    loop {
        let avail = entry.rbuf.len() - consumed;
        if avail < 4 {
            break;
        }
        let len = u32::from_le_bytes(
            entry.rbuf[consumed..consumed + 4]
                .try_into()
                .expect("4 bytes checked"),
        ) as usize;
        if len > MAX_FRAME_BYTES {
            ctx.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
            flow = ConnFlow::Close;
            break;
        }
        if avail < 4 + len {
            break;
        }
        let payload = &entry.rbuf[consumed + 4..consumed + 4 + len];
        let request_flow = handle_request(payload, &entry.conn, ctx, &mut pending);
        consumed += 4 + len;
        if request_flow == ConnFlow::Close {
            flow = ConnFlow::Close;
            break;
        }
        if entry.conn.parked() > entry.conn.high_water() {
            break; // backpressure: leave the rest buffered
        }
    }
    if consumed > 0 {
        entry.rbuf.drain(..consumed);
    }
    if !pending.is_empty() {
        ctx.batcher.enqueue(pending);
    }
    flow
}

/// One decoded frame: answer inference from the cache or push it onto
/// `pending` for the batcher, answer stats inline, or fail the connection
/// on an undecodable payload.
fn handle_request(
    payload: &[u8],
    conn: &Arc<Conn>,
    ctx: &Arc<ReactorCtx>,
    pending: &mut Vec<Submission>,
) -> ConnFlow {
    let counters = &ctx.counters;
    let responder = Responder {
        sink: ResponseSink::Conn(Arc::clone(conn)),
        counters: Arc::clone(counters),
    };
    let received = Instant::now();
    match wire::decode_request(payload) {
        Ok(Request::Infer(req)) => {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            counters.per_class[req.class.rank()]
                .requests
                .fetch_add(1, Ordering::Relaxed);
            let deadline = (req.deadline_micros > 0)
                .then(|| received + Duration::from_micros(req.deadline_micros));
            pending.extend(ctx.batcher.cache_front(Submission {
                id: req.id,
                class: req.class,
                deadline,
                model: req.model,
                rows: req.rows as usize,
                width: req.cols as usize,
                data: req.data,
                received,
                responder,
                guess: None,
                shadow: false,
            }));
            ConnFlow::Continue
        }
        Ok(Request::Stats { id }) => {
            // Take every snapshot before touching the connection; the send
            // below never blocks the poller (nonblocking write or park).
            let serve = counters.snapshot();
            let session_stats = ctx.session.stats();
            let admission = ctx.session.coordinator().admission_stats();
            let mut export = export_counters(&serve, &session_stats, &admission);
            export.extend(counters.ladder_counters());
            responder.send(&Response::Stats {
                id,
                counters: export,
            });
            ConnFlow::Continue
        }
        Ok(Request::Health { id }) => {
            // Answered inline even while draining, so a load balancer can
            // watch this server leave rotation.
            responder.send(&Response::Health {
                id,
                state: ctx.health_state(),
                live_connections: ctx.live.load(Ordering::SeqCst) as u64,
                stalled_pollers: counters.reactor.stalled_pollers.load(Ordering::Relaxed),
            });
            ConnFlow::Continue
        }
        Err(e) => {
            // Framing can no longer be trusted after an undecodable
            // payload: answer with the reserved connection-level id 0 and
            // close instead of mis-attributing future errors.
            counters.wire_errors.fetch_add(1, Ordering::Relaxed);
            responder.send(&Response::Error {
                id: 0,
                code: ErrorCode::Invalid,
                message: e.to_string(),
            });
            ConnFlow::Close
        }
    }
}
