//! Dynamic micro-batcher: coalesces compatible in-flight requests into
//! fused batches.
//!
//! Pollers hand decoded requests to [`Batcher::enqueue`]; executor threads
//! pull a **fused batch** — whole requests of the same
//! `(model, class, width)` group, up to `max_batch_rows` — the moment they
//! are free. There is one flush rule and no timer: an idle executor takes
//! whatever is queued, so a lone request runs alone at once, and batches
//! form only from what arrived *while every executor was busy* — batch
//! size rises with load by itself. The fused batch pays for admission,
//! planning and kernel launch once via [`InferenceSession::infer_fused`],
//! and each member's predictions are demultiplexed back to its own
//! connection, one write per connection per batch.
//!
//! Three SLA levers act at flush time:
//!
//! 1. members whose deadline expired while buffered are rejected with
//!    `DeadlineExceeded` *before* the batch is admitted, so a stale
//!    request never poisons the fused batch;
//! 2. the fused batch runs under the class's [`AdmissionPolicy`], carrying
//!    the *loosest* member deadline (none if any member is unbounded) so
//!    one tight deadline cannot fail its co-batched peers;
//! 3. if a [`PressureLadder`] is registered for the model and the class's
//!    remaining backlog is deep, the batch steps down to a cheaper model
//!    version.

use crate::cache::{Lookup, SemanticCache};
use crate::conn::Conn;
use crate::stats::ServeCounters;
use crate::wire::{self, ErrorCode, Response};
use relserve_core::versions::PressureLadder;
use relserve_core::{Architecture, Error as CoreError, InferenceSession};
use relserve_runtime::{AdmissionPolicy, Priority};
use relserve_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Where a submission's response goes. Connections hand the batcher their
/// reactor-side write queue; unit tests hand it a channel.
#[derive(Clone)]
pub(crate) enum ResponseSink {
    /// A reactor connection's bounded write queue.
    Conn(Arc<Conn>),
    /// An in-process collector (tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Channel(mpsc::Sender<Response>),
}

/// Sends responses for one submission and keeps the response/wire-error
/// ledgers. Cloned into every co-batched submission of a connection.
#[derive(Clone)]
pub(crate) struct Responder {
    pub sink: ResponseSink,
    pub counters: Arc<ServeCounters>,
}

impl Responder {
    /// Encode and send one response; wire failures are counted, not
    /// propagated (the peer is gone — nothing else to do). The send never
    /// blocks on the peer: an unwritable frame parks in the connection's
    /// bounded write queue with write interest armed, and a queue that
    /// would overflow its cap severs the connection instead.
    pub fn send(&self, resp: &Response) {
        let mut outbox = Outbox::default();
        outbox.push(self, resp);
        outbox.flush(&self.counters);
    }
}

/// The responses one fused batch owes, encoded into one buffer per
/// connection so each connection costs one lock and one `write` per batch.
/// Per connection, frames keep the order they were pushed in.
#[derive(Default)]
struct Outbox {
    per_conn: Vec<ConnFrames>,
}

struct ConnFrames {
    conn: Arc<Conn>,
    buf: Vec<u8>,
    frames: u64,
}

impl Outbox {
    fn push(&mut self, responder: &Responder, resp: &Response) {
        responder.counters.responses.fetch_add(1, Ordering::Relaxed);
        match &responder.sink {
            ResponseSink::Conn(conn) => {
                // A batch spans a handful of connections at most: a scan
                // beats hashing.
                let slot = match self
                    .per_conn
                    .iter()
                    .position(|c| Arc::ptr_eq(&c.conn, conn))
                {
                    Some(slot) => slot,
                    None => {
                        self.per_conn.push(ConnFrames {
                            conn: Arc::clone(conn),
                            // One small response fits without regrowth.
                            buf: Vec::with_capacity(64),
                            frames: 0,
                        });
                        self.per_conn.len() - 1
                    }
                };
                let frames = &mut self.per_conn[slot];
                match wire::encode_response_frame_into(&mut frames.buf, resp) {
                    Ok(()) => frames.frames += 1,
                    Err(_) => {
                        responder
                            .counters
                            .wire_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            ResponseSink::Channel(tx) => {
                let _ = tx.send(resp.clone());
            }
        }
    }

    /// Deliver every connection's frames with one [`Conn::send_frames`].
    fn flush(self, counters: &ServeCounters) {
        for ConnFrames { conn, buf, frames } in self.per_conn {
            if frames > 0 && !conn.send_frames(buf, frames) {
                counters.wire_errors.fetch_add(frames, Ordering::Relaxed);
            }
        }
    }
}

/// One buffered inference request awaiting a fused batch.
pub(crate) struct Submission {
    pub id: u64,
    pub class: Priority,
    /// Absolute deadline derived from the wire's relative microseconds.
    pub deadline: Option<Instant>,
    pub model: String,
    pub rows: usize,
    pub width: usize,
    pub data: Vec<f32>,
    /// When the server finished decoding the request.
    pub received: Instant,
    pub responder: Responder,
    /// A bound-rejected cache guess riding along for free validation at
    /// demux time.
    pub guess: Option<u32>,
    /// A shadow submission: its response was already served from the
    /// cache, so it executes only to validate — no second response, no
    /// completion accounting, no share of the backlog ledger.
    pub shadow: bool,
}

/// Batcher tuning; the server builds this from its `ServeConfig`.
pub(crate) struct BatcherConfig {
    pub max_batch_rows: usize,
    pub architecture: Architecture,
    /// Admission policy per class, indexed by [`Priority::rank`].
    pub admission: [AdmissionPolicy; 3],
    /// Per-class buffered-row cap; submissions past it are shed at arrival.
    pub backlog_shed_rows: [Option<usize>; 3],
    /// SLA step-down ladder per model name.
    pub ladders: HashMap<String, PressureLadder>,
}

/// Requests of the same model, class and feature width can fuse. A group
/// exists only while it holds a request, and its model is the model of its
/// members: no key is allocated per request.
struct Group {
    rank: usize,
    width: usize,
    /// Rows queued, shadows included (they fill a batch like any other).
    rows: usize,
    queue: VecDeque<Submission>,
}

impl Group {
    fn holds(&self, sub: &Submission) -> bool {
        self.rank == sub.class.rank()
            && self.width == sub.width
            && self.queue.front().is_some_and(|f| f.model == sub.model)
    }
}

struct State {
    groups: Vec<Group>,
    /// Buffered rows per class, indexed by rank; shadows are not counted.
    class_rows: [usize; 3],
    /// Executors asleep in [`Batcher::next_batch`], the only threads a
    /// wake can reach.
    parked: usize,
    shutdown: bool,
    /// Shutdown was entered through the graceful-drain path: arrivals are
    /// refused with the typed `Draining` code instead of `Overloaded`.
    draining: bool,
}

impl State {
    /// Executors worth waking now: as many as are parked *and* have a
    /// batch to take. Zero whenever every executor is busy — each looks at
    /// the queue again before it parks, so no wake is owed.
    fn wakes_owed(&self, max_batch_rows: usize) -> usize {
        if self.parked == 0 {
            return 0;
        }
        let batches: usize = self
            .groups
            .iter()
            .map(|g| g.rows.div_ceil(max_batch_rows))
            .sum();
        self.parked.min(batches)
    }
}

/// Why [`Batcher::enqueue`] turned a submission away.
enum Refusal {
    Draining,
    ShuttingDown,
    Backlog(usize),
}

/// The shared micro-batching core: pollers submit, executor threads drain.
pub(crate) struct Batcher {
    state: Mutex<State>,
    ready: Condvar,
    config: BatcherConfig,
    counters: Arc<ServeCounters>,
    session: Arc<InferenceSession>,
    /// The semantic result cache fronting this batcher, when enabled.
    cache: Option<Arc<SemanticCache>>,
}

impl Batcher {
    pub fn new(
        config: BatcherConfig,
        counters: Arc<ServeCounters>,
        session: Arc<InferenceSession>,
        cache: Option<Arc<SemanticCache>>,
    ) -> Arc<Self> {
        Arc::new(Batcher {
            state: Mutex::new(State {
                groups: Vec::new(),
                class_rows: [0; 3],
                parked: 0,
                shutdown: false,
                draining: false,
            }),
            ready: Condvar::new(),
            config,
            counters,
            session,
            cache,
        })
    }

    /// Probe the semantic cache for one request. A hit answers here on the
    /// calling (poller) thread — no buffering, no admission ticket, no
    /// kernel — and only a sampled subset of near-hits come back as shadow
    /// work to keep the error bound live. Returns what still has to be
    /// [`enqueue`](Self::enqueue)d.
    pub fn cache_front(&self, mut sub: Submission) -> Option<Submission> {
        let Some(cache) = self.cache.as_deref() else {
            return Some(sub);
        };
        if sub.shadow {
            return Some(sub);
        }
        match cache.lookup(&sub.model, sub.class, sub.rows, sub.width, &sub.data) {
            Lookup::Hit {
                predictions,
                near: _,
                validate,
            } => {
                self.counters.per_class[sub.class.rank()]
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                sub.responder.send(&Response::Infer {
                    id: sub.id,
                    queue_wait_micros: 0,
                    cached: true,
                    model_used: sub.model.clone(),
                    degraded_to: None,
                    predictions: predictions.clone(),
                });
                if !validate {
                    return None;
                }
                // Shadow-execute this hit to validate the cached
                // answer; the client already has its response.
                sub.shadow = true;
                sub.deadline = None;
                sub.guess = predictions.first().copied();
            }
            Lookup::Miss { guess } => sub.guess = guess,
            Lookup::Bypass => {}
        }
        Some(sub)
    }

    /// Cache probe, then buffer: what a poller does with a read of one
    /// request.
    #[cfg(test)]
    pub fn submit(&self, sub: Submission) {
        if let Some(sub) = self.cache_front(sub) {
            self.enqueue(std::iter::once(sub));
        }
    }

    /// Buffer requests for coalescing under one lock acquisition — a poller
    /// passes every request of one socket read — shedding those whose class
    /// backlog is over its cap. Wakes only executors that are parked and
    /// have a batch to take; refusals are answered after the lock drops.
    pub fn enqueue(&self, subs: impl IntoIterator<Item = Submission>) {
        let mut refused: Vec<(Submission, Refusal)> = Vec::new();
        let wakes = {
            let mut state = self.state.lock().expect("batcher lock poisoned");
            for sub in subs {
                let rank = sub.class.rank();
                if state.shutdown {
                    let why = if state.draining {
                        Refusal::Draining
                    } else {
                        Refusal::ShuttingDown
                    };
                    refused.push((sub, why));
                    continue;
                }
                if let Some(cap) = self.config.backlog_shed_rows[rank] {
                    if state.class_rows[rank] + sub.rows > cap {
                        refused.push((sub, Refusal::Backlog(cap)));
                        continue;
                    }
                }
                if !sub.shadow {
                    state.class_rows[rank] += sub.rows;
                }
                match state.groups.iter_mut().find(|g| g.holds(&sub)) {
                    Some(group) => {
                        group.rows += sub.rows;
                        group.queue.push_back(sub);
                    }
                    None => state.groups.push(Group {
                        rank,
                        width: sub.width,
                        rows: sub.rows,
                        queue: VecDeque::from([sub]),
                    }),
                }
            }
            state.wakes_owed(self.config.max_batch_rows)
        };
        for _ in 0..wakes {
            self.ready.notify_one();
        }
        for (sub, why) in refused {
            self.refuse(sub, why);
        }
    }

    /// Answer a refused submission. Shadows drop silently: their client
    /// was already answered, and validation is best-effort under pressure.
    fn refuse(&self, sub: Submission, why: Refusal) {
        if sub.shadow {
            return;
        }
        let (code, message) = match why {
            Refusal::Draining => (ErrorCode::Draining, "server is draining".to_string()),
            Refusal::ShuttingDown => (ErrorCode::Overloaded, "server is shutting down".to_string()),
            Refusal::Backlog(cap) => (
                ErrorCode::Overloaded,
                format!("{} backlog over {cap} buffered rows", sub.class),
            ),
        };
        if code == ErrorCode::Draining {
            self.counters
                .drain
                .shed_requests
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            self.counters.per_class[sub.class.rank()]
                .shed
                .fetch_add(1, Ordering::Relaxed);
        }
        sub.responder.send(&Response::Error {
            id: sub.id,
            code,
            message,
        });
    }

    /// Wake every executor so it can observe the shutdown flag and drain.
    pub fn shutdown(&self) {
        self.state.lock().expect("batcher lock poisoned").shutdown = true;
        self.ready.notify_all();
    }

    /// Enter graceful drain: shed every *buffered-but-unadmitted*
    /// submission with a typed `Draining` error, refuse new arrivals the
    /// same way, and let executors finish the batches they already popped.
    /// Returns the number of requests shed (shadows drop silently — their
    /// clients were answered from the cache long ago).
    pub fn drain_shed(&self) -> u64 {
        let buffered: Vec<Submission> = {
            let mut state = self.state.lock().expect("batcher lock poisoned");
            state.shutdown = true;
            state.draining = true;
            state.class_rows = [0; 3];
            state.groups.drain(..).flat_map(|g| g.queue).collect()
        };
        self.ready.notify_all();
        let mut shed = 0u64;
        for sub in buffered {
            if sub.shadow {
                continue;
            }
            shed += 1;
            sub.responder.send(&Response::Error {
                id: sub.id,
                code: ErrorCode::Draining,
                message: "server is draining; request was not admitted".into(),
            });
        }
        self.counters
            .drain
            .shed_requests
            .fetch_add(shed, Ordering::Relaxed);
        shed
    }

    /// Executor thread body: pull fused batches until shutdown drains the
    /// last group.
    pub fn run_executor(&self) {
        while let Some(batch) = self.next_batch() {
            self.execute(batch);
        }
    }

    /// The flush rule: a free executor takes the highest-priority, oldest
    /// non-empty group at once — whole requests up to `max_batch_rows` —
    /// and parks only when nothing is queued. `None` (shutdown with an
    /// empty buffer) ends the executor.
    fn next_batch(&self) -> Option<FusedWork> {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        loop {
            if let Some(idx) = pick_group(&state.groups) {
                return Some(self.pop_batch(&mut state, idx));
            }
            if state.shutdown {
                return None;
            }
            state.parked += 1;
            state = self.ready.wait(state).expect("batcher lock poisoned");
            state.parked -= 1;
        }
    }

    /// Pop whole submissions (at least one) until the fused batch would
    /// exceed `max_batch_rows`, updating the backlog ledgers.
    fn pop_batch(&self, state: &mut State, idx: usize) -> FusedWork {
        let group = &mut state.groups[idx];
        let rank = group.rank;
        let mut members = Vec::new();
        let mut rows = 0usize;
        let mut ledger_rows = 0usize;
        while let Some(front) = group.queue.front() {
            if !members.is_empty() && rows + front.rows > self.config.max_batch_rows {
                break;
            }
            let sub = group.queue.pop_front().expect("front exists");
            rows += sub.rows;
            if !sub.shadow {
                ledger_rows += sub.rows;
            }
            members.push(sub);
        }
        group.rows -= rows;
        if group.queue.is_empty() {
            state.groups.swap_remove(idx);
        }
        state.class_rows[rank] -= ledger_rows;
        FusedWork {
            rank,
            members,
            // Depth the SLA ladder sees: rows of this class still buffered
            // *after* this batch leaves the queue.
            backlog_rows: state.class_rows[rank],
        }
    }

    /// Execute one fused batch outside the batcher lock and demux the
    /// responses.
    fn execute(&self, work: FusedWork) {
        let flush_start = Instant::now();
        let rank = work.rank;

        // Satellite guarantee: a deadline that expired while the request
        // sat buffered is rejected *before* admission — it never joins the
        // fused tensor, so it cannot poison its peers.
        let mut live = Vec::with_capacity(work.members.len());
        for sub in work.members {
            if !sub.shadow && sub.deadline.is_some_and(|d| d <= flush_start) {
                self.counters
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.per_class[rank]
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                sub.responder.send(&Response::Error {
                    id: sub.id,
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired while buffered for batching".into(),
                });
            } else {
                live.push(sub);
            }
        }
        let Some(first) = live.first() else {
            return;
        };
        let model = first.model.clone();

        // SLA step-down: deep remaining backlog for this class sends the
        // whole batch to a cheaper rung of the model's version ladder.
        let (model_used, stepped_down) = match self.config.ladders.get(&model) {
            Some(ladder) => {
                let (rung, idx) = ladder.rung_for_depth(work.backlog_rows);
                self.counters.record_ladder_rung(&model, idx);
                (rung.to_string(), idx > 0)
            }
            None => (model.clone(), false),
        };

        // The fused policy carries the *loosest* member deadline; one
        // member with an unbounded deadline unbinds the batch.
        let mut policy = self.config.admission[rank];
        policy.deadline = live
            .iter()
            .map(|s| s.deadline)
            .collect::<Option<Vec<_>>>()
            .and_then(|ds| ds.into_iter().max());

        // Each request's features move into its part: `infer_fused` makes
        // the one copy into the fused tensor.
        let parts: Vec<Tensor> = match live
            .iter_mut()
            .map(|s| Tensor::from_vec([s.rows, s.width], std::mem::take(&mut s.data)))
            .collect()
        {
            Ok(parts) => parts,
            Err(e) => {
                self.respond_error(&live, ErrorCode::Invalid, &format!("bad feature data: {e}"));
                return;
            }
        };
        let total_rows: usize = live.iter().map(|s| s.rows).sum();
        self.counters.record_batch(total_rows as u64);

        match self.session.infer_fused(
            &model_used,
            &parts,
            self.config.architecture.clone(),
            &policy,
        ) {
            Ok(outcome) => {
                let mut outbox = Outbox::default();
                for (sub, preds) in live.iter().zip(outcome.per_request.iter()) {
                    if !sub.shadow {
                        self.counters.per_class[rank]
                            .completed
                            .fetch_add(1, Ordering::Relaxed);
                        outbox.push(
                            &sub.responder,
                            &Response::Infer {
                                id: sub.id,
                                queue_wait_micros: flush_start
                                    .duration_since(sub.received)
                                    .as_micros()
                                    as u64,
                                cached: false,
                                model_used: model_used.clone(),
                                degraded_to: outcome.degraded_to.map(String::from),
                                predictions: preds.iter().map(|p| *p as u32).collect(),
                            },
                        );
                    }
                }
                outbox.flush(&self.counters);
                // Cache maintenance after every client got its response:
                // only trustworthy outputs — the requested model, no
                // degraded fallback — validate guesses or populate.
                if let Some(cache) = self.cache.as_deref() {
                    if !stepped_down && outcome.degraded_to.is_none() {
                        for ((sub, part), preds) in
                            live.iter().zip(&parts).zip(outcome.per_request.iter())
                        {
                            let exact: Vec<u32> = preds.iter().map(|p| *p as u32).collect();
                            if let (Some(guess), Some(&first)) = (sub.guess, exact.first()) {
                                cache.record_validation(guess, first);
                            }
                            cache.admit(&model, sub.width, sub.rows, part.data(), &exact);
                        }
                    }
                }
            }
            Err(err) => {
                let code = classify(&err);
                // Shadow members already answered from the cache: they are
                // invisible to the error ledgers and get no second response.
                let visible = live.iter().filter(|s| !s.shadow).count() as u64;
                if code == ErrorCode::Overloaded {
                    self.counters.shed.fetch_add(visible, Ordering::Relaxed);
                    self.counters.per_class[rank]
                        .shed
                        .fetch_add(visible, Ordering::Relaxed);
                } else if code == ErrorCode::DeadlineExceeded {
                    self.counters
                        .deadline_rejected
                        .fetch_add(visible, Ordering::Relaxed);
                    self.counters.per_class[rank]
                        .deadline_rejected
                        .fetch_add(visible, Ordering::Relaxed);
                }
                self.respond_error(&live, code, &err.to_string());
            }
        }
    }

    fn respond_error(&self, members: &[Submission], code: ErrorCode, message: &str) {
        let mut outbox = Outbox::default();
        for sub in members.iter().filter(|s| !s.shadow) {
            outbox.push(
                &sub.responder,
                &Response::Error {
                    id: sub.id,
                    code,
                    message: message.to_string(),
                },
            );
        }
        outbox.flush(&self.counters);
    }
}

/// The non-empty group an executor takes next: highest priority first,
/// then the one whose oldest member has waited longest.
fn pick_group(groups: &[Group]) -> Option<usize> {
    groups
        .iter()
        .enumerate()
        .min_by_key(|(_, g)| (g.rank, g.queue.front().map(|s| s.received)))
        .map(|(idx, _)| idx)
}

struct FusedWork {
    rank: usize,
    members: Vec<Submission>,
    backlog_rows: usize,
}

/// Map a session error onto the wire's typed codes.
pub(crate) fn classify(err: &CoreError) -> ErrorCode {
    if err.is_overloaded() {
        ErrorCode::Overloaded
    } else if err.is_deadline_exceeded() {
        ErrorCode::DeadlineExceeded
    } else {
        match err {
            CoreError::NotFound(_) => ErrorCode::NotFound,
            CoreError::Invalid(_) => ErrorCode::Invalid,
            _ => ErrorCode::Internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_core::SessionConfig;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::TransferProfile;
    use std::collections::HashSet;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// Bound on every wait below: a lost wake-up fails the test instead of
    /// hanging it.
    const HANG: Duration = Duration::from_secs(20);

    fn test_session() -> Arc<InferenceSession> {
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
        let mut rng = seeded_rng(77);
        session
            .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
            .unwrap();
        Arc::new(session)
    }

    fn test_config(max_rows: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch_rows: max_rows,
            architecture: Architecture::UdfCentric,
            admission: [
                AdmissionPolicy::for_class(Priority::Interactive),
                AdmissionPolicy::for_class(Priority::Standard),
                AdmissionPolicy::for_class(Priority::Batch),
            ],
            backlog_shed_rows: [None; 3],
            ladders: HashMap::new(),
        }
    }

    fn submission(
        id: u64,
        rows: usize,
        deadline: Option<Instant>,
        tx: &mpsc::Sender<Response>,
        counters: &Arc<ServeCounters>,
    ) -> Submission {
        Submission {
            id,
            class: Priority::Standard,
            deadline,
            model: "Fraud-FC-256".into(),
            rows,
            width: 28,
            data: (0..rows * 28)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.11)
                .collect(),
            received: Instant::now(),
            responder: Responder {
                sink: ResponseSink::Channel(tx.clone()),
                counters: Arc::clone(counters),
            },
            guess: None,
            shadow: false,
        }
    }

    fn submission_in(
        class: Priority,
        id: u64,
        tx: &mpsc::Sender<Response>,
        counters: &Arc<ServeCounters>,
    ) -> Submission {
        Submission {
            class,
            ..submission(id, 1, None, tx, counters)
        }
    }

    fn spawn_executors(batcher: &Arc<Batcher>, n: usize) -> Vec<JoinHandle<()>> {
        (0..n)
            .map(|_| {
                let batcher = Arc::clone(batcher);
                std::thread::spawn(move || batcher.run_executor())
            })
            .collect()
    }

    /// Spin (bounded) until `cond` holds on the batcher's state.
    fn wait_state(batcher: &Batcher, what: &str, cond: impl Fn(&State) -> bool) {
        let start = Instant::now();
        while !cond(&batcher.state.lock().unwrap()) {
            assert!(start.elapsed() < HANG, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Submit a one-row plug while every core of the session is held, and
    /// return once the only executor sits inside that batch, blocked on
    /// admission: whatever is submitted next queues behind a busy executor.
    fn plug_executor(
        batcher: &Batcher,
        counters: &Arc<ServeCounters>,
        tx: &mpsc::Sender<Response>,
        id: u64,
    ) {
        batcher.submit(submission(id, 1, None, tx, counters));
        let start = Instant::now();
        while counters.snapshot().batches == 0 {
            assert!(start.elapsed() < HANG, "executor never took the plug");
            std::thread::yield_now();
        }
    }

    fn expect_infer(rx: &mpsc::Receiver<Response>) -> u64 {
        match rx.recv_timeout(HANG).expect("response (lost wake-up?)") {
            Response::Infer { id, .. } => id,
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn lone_request_on_an_idle_executor_runs_alone_at_once() {
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(test_config(64), Arc::clone(&counters), test_session(), None);
        let (tx, rx) = mpsc::channel();
        let runners = spawn_executors(&batcher, 1);
        for id in 1..=3u64 {
            // Parked executor, empty queue: nothing but the submit's own
            // wake can run this request.
            wait_state(&batcher, "the executor to park", |s| s.parked == 1);
            batcher.submit(submission(id, 1, None, &tx, &counters));
            assert_eq!(expect_infer(&rx), id);
            let snap = counters.snapshot();
            assert_eq!((snap.batches, snap.fused_rows), (id, id));
        }
        batcher.shutdown();
        for r in runners {
            r.join().unwrap();
        }
    }

    #[test]
    fn requests_queued_behind_a_busy_executor_fuse_up_to_the_cap() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(8),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
        );
        let (tx, rx) = mpsc::channel();
        let runners = spawn_executors(&batcher, 1);
        let hold = session.coordinator().admit(2).unwrap();
        plug_executor(&batcher, &counters, &tx, 100);
        batcher.enqueue((1..=12u64).map(|id| submission(id, 1, None, &tx, &counters)));
        wait_state(&batcher, "12 buffered rows", |s| s.class_rows[1] == 12);
        drop(hold);
        let mut ids: Vec<u64> = (0..13).map(|_| expect_infer(&rx)).collect();
        // One executor, one channel: responses arrive in execution order,
        // and within a batch in submission order.
        assert_eq!(ids.remove(0), 100);
        assert_eq!(ids, (1..=12).collect::<Vec<u64>>());
        let snap = counters.snapshot();
        assert_eq!(snap.batches, 3, "plug, then 12 queued rows as 8 + 4");
        assert_eq!(snap.fused_rows, 13);
        assert_eq!(snap.max_batch_rows_seen, 8);
        batcher.shutdown();
        for r in runners {
            r.join().unwrap();
        }
    }

    #[test]
    fn ready_groups_are_taken_in_priority_order() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(64),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
        );
        let (tx, rx) = mpsc::channel();
        let runners = spawn_executors(&batcher, 1);
        let hold = session.coordinator().admit(2).unwrap();
        plug_executor(&batcher, &counters, &tx, 100);
        // Oldest first is the lowest class: priority must override age.
        batcher.submit(submission_in(Priority::Batch, 1, &tx, &counters));
        batcher.submit(submission_in(Priority::Standard, 2, &tx, &counters));
        batcher.submit(submission_in(Priority::Interactive, 3, &tx, &counters));
        batcher.submit(submission_in(Priority::Batch, 4, &tx, &counters));
        drop(hold);
        let order: Vec<u64> = (0..5).map(|_| expect_infer(&rx)).collect();
        assert_eq!(order, [100, 3, 2, 1, 4]);
        assert_eq!(counters.snapshot().batches, 4, "the two Batch rows fuse");
        batcher.shutdown();
        for r in runners {
            r.join().unwrap();
        }
    }

    #[test]
    fn wakes_are_owed_only_to_parked_executors_with_a_batch_to_take() {
        let counters = Arc::new(ServeCounters::default());
        let (tx, _rx) = mpsc::channel();
        let group = |class: Priority, rows: usize| {
            let sub = Submission {
                class,
                ..submission(1, rows, None, &tx, &counters)
            };
            Group {
                rank: class.rank(),
                width: sub.width,
                rows,
                queue: VecDeque::from([sub]),
            }
        };
        let mut state = State {
            groups: vec![group(Priority::Standard, 3)],
            class_rows: [0; 3],
            parked: 0,
            shutdown: false,
            draining: false,
        };
        assert_eq!(state.wakes_owed(8), 0, "nobody parked: no wake");
        state.parked = 2;
        assert_eq!(state.wakes_owed(8), 1, "one batch: one executor");
        state.groups.push(group(Priority::Batch, 1));
        assert_eq!(state.wakes_owed(8), 2);
        state.groups[0].rows = 20;
        state.parked = 5;
        assert_eq!(state.wakes_owed(8), 4, "20 rows are 3 batches, plus 1");
        state.groups.clear();
        assert_eq!(state.wakes_owed(8), 0, "nothing queued: no wake");
    }

    #[test]
    fn shadow_validations_do_not_count_as_backlog() {
        let counters = Arc::new(ServeCounters::default());
        let mut config = test_config(64);
        config.backlog_shed_rows[Priority::Standard.rank()] = Some(4);
        let batcher = Batcher::new(config, Arc::clone(&counters), test_session(), None);
        let (tx, rx) = mpsc::channel();
        batcher.enqueue([Submission {
            shadow: true,
            ..submission(1, 4, None, &tx, &counters)
        }]);
        // The cap is 4 real rows: 4 shadow rows ahead leave it untouched.
        batcher.submit(submission(2, 4, None, &tx, &counters));
        assert_eq!(batcher.state.lock().unwrap().class_rows[1], 4);
        batcher.submit(submission(3, 1, None, &tx, &counters));
        match rx.recv_timeout(HANG).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (3, ErrorCode::Overloaded));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Shadow and request still fuse; the ladder sees no depth behind.
        let work = batcher.next_batch().unwrap();
        assert_eq!(work.members.len(), 2);
        assert_eq!(work.backlog_rows, 0);
        assert_eq!(batcher.state.lock().unwrap().class_rows, [0; 3]);
    }

    /// Producers of three shapes against executors that keep parking and
    /// unparking: every submission is answered exactly once (a lost
    /// wake-up strands one and trips `HANG`), and a drain racing the last
    /// wave sheds only what no executor had taken.
    fn lost_wakeup_stress(executors: usize) {
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(test_config(16), Arc::clone(&counters), test_session(), None);
        let runners = spawn_executors(&batcher, executors);

        // Each producer owns an id range and a channel, and returns how
        // many answers it checked.
        let ping_pong = {
            let (batcher, counters) = (Arc::clone(&batcher), Arc::clone(&counters));
            std::thread::spawn(move || {
                // One in flight: the executors run dry, and park, after
                // every answer.
                let (tx, rx) = mpsc::channel();
                for id in 1..=300u64 {
                    batcher.submit(submission(id, 1, None, &tx, &counters));
                    assert_eq!(expect_infer(&rx), id);
                }
                300
            })
        };
        let bursts = {
            let (batcher, counters) = (Arc::clone(&batcher), Arc::clone(&counters));
            std::thread::spawn(move || {
                // A socket read's worth at a time, then wait it out.
                let (tx, rx) = mpsc::channel();
                let mut next = 10_000u64;
                let mut total = 0;
                for burst in 0..40u64 {
                    let n = 1 + (burst * 7) % 37;
                    batcher.enqueue(
                        (next..next + n).map(|id| submission(id, 1, None, &tx, &counters)),
                    );
                    let got: HashSet<u64> = (0..n).map(|_| expect_infer(&rx)).collect();
                    assert_eq!(got, (next..next + n).collect::<HashSet<u64>>());
                    next += n;
                    total += n;
                }
                total
            })
        };
        let firehose = {
            let (batcher, counters) = (Arc::clone(&batcher), Arc::clone(&counters));
            std::thread::spawn(move || {
                // Singles without waiting: submits land while executors
                // are mid-park, mid-wake and mid-batch.
                let (tx, rx) = mpsc::channel();
                for id in 20_000..20_400u64 {
                    batcher.submit(submission(id, 1, None, &tx, &counters));
                    if id % 8 == 0 {
                        std::thread::yield_now();
                    }
                }
                let got: HashSet<u64> = (0..400).map(|_| expect_infer(&rx)).collect();
                assert_eq!(got, (20_000..20_400).collect::<HashSet<u64>>());
                400
            })
        };
        let answered: u64 = [ping_pong, bursts, firehose]
            .into_iter()
            .map(|p| p.join().unwrap())
            .sum();
        assert_eq!(counters.snapshot().fused_rows, answered);

        // Last wave with a drain racing it.
        let (tx, rx) = mpsc::channel();
        let wave = {
            let (batcher, counters) = (Arc::clone(&batcher), Arc::clone(&counters));
            std::thread::spawn(move || {
                for id in 30_000..30_200u64 {
                    batcher.submit(submission(id, 1, None, &tx, &counters));
                }
            })
        };
        wait_state(&batcher, "the wave to start", |s| !s.groups.is_empty());
        batcher.drain_shed();
        wave.join().unwrap();
        for r in runners {
            r.join().unwrap();
        }
        let (mut served, mut shed) = (HashSet::new(), HashSet::new());
        for resp in rx.try_iter() {
            let fresh = match resp {
                Response::Infer { id, .. } => served.insert(id),
                Response::Error {
                    id,
                    code: ErrorCode::Draining,
                    ..
                } => shed.insert(id),
                other => panic!("unexpected response {other:?}"),
            };
            assert!(fresh, "a submission was answered twice");
        }
        assert!(served.is_disjoint(&shed));
        assert_eq!(served.len() + shed.len(), 200);
        // Shed = never admitted: every row an executor fused was served.
        let snap = counters.snapshot();
        assert_eq!(snap.fused_rows, answered + served.len() as u64);
        assert_eq!(snap.drain.shed_requests, shed.len() as u64);
    }

    #[test]
    fn lost_wakeup_stress_one_executor() {
        lost_wakeup_stress(1);
    }

    #[test]
    fn lost_wakeup_stress_two_executors() {
        lost_wakeup_stress(2);
    }

    #[test]
    fn coalesces_and_demuxes_per_request() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(64),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
        );
        let (tx, rx) = mpsc::channel();
        for (id, rows) in [(1u64, 3usize), (2, 5), (3, 1)] {
            batcher.submit(submission(id, rows, None, &tx, &counters));
        }
        let runner = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run_executor())
        };
        let mut got = HashMap::new();
        for _ in 0..3 {
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            match resp {
                Response::Infer {
                    id, predictions, ..
                } => {
                    got.insert(id, predictions.len());
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(got, HashMap::from([(1, 3), (2, 5), (3, 1)]));
        let snap = counters.snapshot();
        assert_eq!(snap.batches, 1, "three requests fused into one batch");
        assert_eq!(snap.fused_rows, 9);
        batcher.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn expired_deadline_is_rejected_before_admission() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(64),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
        );
        let (tx, rx) = mpsc::channel();
        let expired = Instant::now() - Duration::from_millis(5);
        batcher.submit(submission(1, 2, Some(expired), &tx, &counters));
        batcher.submit(submission(2, 2, None, &tx, &counters));
        let runner = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run_executor())
        };
        let mut expired_seen = false;
        let mut ok_seen = false;
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
                Response::Error { id, code, .. } => {
                    assert_eq!((id, code), (1, ErrorCode::DeadlineExceeded));
                    expired_seen = true;
                }
                Response::Infer {
                    id, predictions, ..
                } => {
                    assert_eq!((id, predictions.len()), (2, 2));
                    ok_seen = true;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(expired_seen && ok_seen);
        assert_eq!(counters.snapshot().deadline_rejected, 1);
        batcher.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn drain_sheds_buffered_with_typed_error() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        // No executor runs: submissions stay buffered until the drain.
        let batcher = Batcher::new(test_config(64), Arc::clone(&counters), session, None);
        let (tx, rx) = mpsc::channel();
        batcher.submit(submission(1, 2, None, &tx, &counters));
        batcher.submit(submission(2, 2, None, &tx, &counters));
        assert_eq!(batcher.drain_shed(), 2);
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
                other => panic!("expected Draining, got {other:?}"),
            }
        }
        // Arrivals after the drain began get the same typed refusal.
        batcher.submit(submission(3, 1, None, &tx, &counters));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (3, ErrorCode::Draining));
            }
            other => panic!("expected Draining, got {other:?}"),
        }
        assert_eq!(counters.snapshot().drain.shed_requests, 3);
        // Executors observe shutdown with an empty buffer and exit.
        batcher.run_executor();
    }

    #[test]
    fn backlog_cap_sheds_at_submit() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let mut config = test_config(64);
        config.backlog_shed_rows[Priority::Standard.rank()] = Some(4);
        let batcher = Batcher::new(config, Arc::clone(&counters), session, None);
        let (tx, rx) = mpsc::channel();
        batcher.submit(submission(1, 4, None, &tx, &counters));
        batcher.submit(submission(2, 1, None, &tx, &counters));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (2, ErrorCode::Overloaded));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(counters.snapshot().class(Priority::Standard).shed, 1);
    }
}
