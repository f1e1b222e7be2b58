//! Distributed block-sharded execution: coordinator/worker scatter-gather
//! over the [`crate::wire`] protocol.
//!
//! The §2.2 push-down identity `W × (D1 ⋈ D2) = (W1 × D1) ⊕ (W2 × D2)`
//! generalizes to *n* column slices of the first dense layer's weight
//! ([`relserve_core::PartitionSpec`]). This module distributes those
//! slices across processes:
//!
//! * a **worker** ([`WorkerHandle::spawn`]) is a thin wrapper around an
//!   [`InferenceSession`]: it holds weight slices installed by
//!   `ShardAssign`, and answers each `ShardExec` with the partial product
//!   `X_i · W_iᵀ` computed under the session's
//!   [`relserve_runtime::ThreadCoordinator`] admission (one grant per
//!   shard execution, same ledger as local queries);
//! * the **coordinator** ([`ShardCoordinator`]) slices each fused batch
//!   column-wise, scatters the blocks to its workers over self-healing
//!   [`Client`]s, gathers the partials, and finishes the layer (sum →
//!   bias → activation) plus the model's tail layers locally.
//!
//! ## Fault tolerance
//!
//! Worker loss is expected, not exceptional. Every worker link is a
//! [`Client::connect_resilient`] with a bounded [`RetryPolicy`]; when the
//! retry budget is exhausted the worker is declared dead (sticky — a
//! worker process that crashed does not come back) and its shard
//! **degrades to local execution**: the coordinator computes that shard's
//! partial itself with the weight slice it still owns, under the same
//! admitted context as the gather. The batch's output is unchanged —
//! partials are summed in shard order whether they were computed remotely
//! or locally — so a worker crash costs latency, never answers. The
//! deterministic kill switch ([`relserve_runtime::FaultConfig`]'s
//! `worker_kill_rate`) lets chaos tests trigger exactly this mid-stream.
//!
//! Bit-identity note: a column-partitioned dot product accumulates the
//! same scalar chain as the unsplit kernel (shard partials are summed in
//! column order), and remote and local shard execution share one
//! [`compute_partial`] function, so a degraded batch is bit-identical to
//! an undegraded one.

use crate::client::Client;
use crate::error::{Error, Result};
use crate::stats::{ShardCounters, ShardServeStats};
use crate::wire::{
    self, ErrorCode, HealthState, Request, Response, ShardAssignRequest, ShardExecRequest,
};
use relserve_core::{
    Architecture, Error as CoreError, FusedOutcome, InferenceSession, PartitionSpec, ShardRange,
};
use relserve_nn::{Activation, Layer, Precision, Weight};
use relserve_runtime::{AdmissionPolicy, FaultInjector, RetryPolicy};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{matmul, ops, Tensor};
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Env var naming the worker fleet: a comma-separated list of
/// `host:port` socket addresses. Read by [`workers_from_env`] when the
/// server config does not set workers explicitly.
pub const WORKERS_ENV: &str = "RELSERVE_WORKERS";

/// Parse the worker fleet from [`WORKERS_ENV`]. `None` when the variable
/// is unset, empty, or contains any unparsable address (a fleet with a
/// typo'd member would silently re-plan the shard layout, so the whole
/// list is rejected instead).
pub fn workers_from_env() -> Option<Vec<SocketAddr>> {
    let raw = std::env::var(WORKERS_ENV).ok()?;
    let mut out = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.parse().ok()?);
    }
    (!out.is_empty()).then_some(out)
}

/// The one shard kernel: the partial product `X_i · W_iᵀ` for a feature
/// block `X_i: [rows, w_i]` and a weight slice `W_i: [hidden, w_i]`.
///
/// Workers and the coordinator's degradation-to-local path both call
/// exactly this function, which is what makes a degraded batch
/// bit-identical to an undegraded one.
pub fn compute_partial(
    block: &Tensor,
    weight_slice: &Tensor,
    par: &Parallelism,
) -> relserve_tensor::Result<Tensor> {
    matmul::matmul_bt_parallel(block, weight_slice, par)
}

// ---- worker --------------------------------------------------------------

/// One installed weight slice on a worker.
struct AssignedSlice {
    weight: Tensor,
    shard_id: u32,
}

/// State shared by a worker's accept loop and connection threads.
struct WorkerShared {
    session: Arc<InferenceSession>,
    /// Weight slices keyed by `(model, shard_id)`. Connection-independent:
    /// a coordinator that heals its connection must not lose assignments.
    slices: Mutex<HashMap<(String, u32), AssignedSlice>>,
    /// Read halves of every live connection, for severing on stop/kill.
    conns: Mutex<Vec<TcpStream>>,
    /// Set on graceful stop *and* on a fault-injected kill; connection
    /// loops drop mid-request without answering once it is up.
    stop: AtomicBool,
    /// Set only by the kill switch, to distinguish crash from stop.
    killed: AtomicBool,
    faults: Option<FaultInjector>,
    shard_execs: AtomicU64,
}

impl WorkerShared {
    /// Sever every live connection and stop the accept loop, as if the
    /// process died: no goodbye frames, reads on the peer side fail.
    fn sever_all(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut conns = self.conns.lock().expect("worker conns lock");
        for conn in conns.drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running shard worker: a bound listener plus its service threads.
///
/// Spawned with [`WorkerHandle::spawn`]; stopped gracefully with
/// [`shutdown`](WorkerHandle::shutdown) (also run on drop) or crashed on
/// purpose with [`kill`](WorkerHandle::kill).
pub struct WorkerHandle {
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Bind an ephemeral loopback port and start serving shard requests
    /// against `session`'s admission ledger. `faults` arms the
    /// deterministic kill switch (`worker_kill_rate`): each incoming
    /// request first draws from it, and a firing draw makes the worker
    /// die mid-request — every connection severed, the listener closed,
    /// no response sent.
    pub fn spawn(
        session: Arc<InferenceSession>,
        faults: Option<FaultInjector>,
    ) -> Result<WorkerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(WorkerShared {
            session,
            slices: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            faults,
            shard_execs: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("shard-worker-{}", addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(Error::Io)?;
        Ok(WorkerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The worker's bound address, for the coordinator's fleet list.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Crash the worker as a real process death would: sever every
    /// connection mid-whatever and stop listening. Chaos tests call this
    /// directly; the `worker_kill_rate` fault switch reaches the same
    /// path from inside.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.sever_all();
    }

    /// True once the worker died by [`kill`](WorkerHandle::kill) or by a
    /// fault-injected draw (as opposed to a graceful shutdown).
    pub fn is_killed(&self) -> bool {
        self.shared.killed.load(Ordering::SeqCst)
    }

    /// ShardExec requests this worker has answered.
    pub fn shard_execs(&self) -> u64 {
        self.shared.shard_execs.load(Ordering::Relaxed)
    }

    /// Stop serving and join the accept thread. Connection severing is
    /// identical to [`kill`](WorkerHandle::kill) — the protocol has no
    /// goodbye frame — but the killed flag stays clear.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.sever_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Worker accept loop: nonblocking accepts polled against the stop flag,
/// one service thread per connection (a coordinator fleet is a handful of
/// links, not ten thousand — thread-per-connection is the simple right
/// answer here, unlike the frontend's reactor).
fn accept_loop(listener: TcpListener, shared: Arc<WorkerShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if let Ok(read_half) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .expect("worker conns lock")
                        .push(read_half);
                }
                let conn_shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("shard-worker-conn".into())
                    .spawn(move || serve_conn(stream, conn_shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping the listener here closes the port: a healed client retries
    // against a dead socket and exhausts its budget, exactly like a
    // crashed process.
}

/// Serve one coordinator connection until EOF, error, or worker stop.
fn serve_conn(stream: TcpStream, shared: Arc<WorkerShared>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            _ => return,
        };
        // The kill switch draws once per received request: a firing draw
        // kills the whole worker *before* any answer, so the coordinator
        // observes a request it sent and a connection that died — the
        // exact shape of a process crash mid-request.
        if let Some(faults) = &shared.faults {
            if faults.should_kill_worker() {
                shared.killed.store(true, Ordering::SeqCst);
                shared.sever_all();
                return;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let response = match wire::decode_request(&payload) {
            Ok(req) => answer(req, &shared),
            Err(e) => Response::Error {
                id: 0,
                code: ErrorCode::Invalid,
                message: format!("undecodable worker request: {e}"),
            },
        };
        let encoded = match wire::encode_response(&response) {
            Ok(b) => b,
            Err(_) => return,
        };
        if wire::write_frame(&mut writer, &encoded).is_err() {
            return;
        }
    }
}

/// Answer one decoded request against the worker's state.
fn answer(req: Request, shared: &WorkerShared) -> Response {
    match req {
        Request::ShardAssign(assign) => answer_assign(assign, shared),
        Request::ShardExec(exec) => answer_exec(exec, shared),
        Request::WorkerHealth { id } => {
            let state = if shared.stop.load(Ordering::SeqCst) {
                HealthState::Draining
            } else {
                HealthState::Ok
            };
            Response::WorkerHealth {
                id,
                state,
                shards_assigned: shared.slices.lock().expect("worker slices lock").len() as u64,
                shard_execs: shared.shard_execs.load(Ordering::Relaxed),
            }
        }
        Request::Infer(r) => invalid_opcode(r.id),
        Request::Stats { id } | Request::Health { id } => invalid_opcode(id),
    }
}

fn invalid_opcode(id: u64) -> Response {
    Response::Error {
        id,
        code: ErrorCode::Invalid,
        message: "shard workers serve ShardAssign/ShardExec/WorkerHealth only".into(),
    }
}

/// Install (or idempotently overwrite) one weight slice.
fn answer_assign(assign: ShardAssignRequest, shared: &WorkerShared) -> Response {
    let width = (assign.col_end - assign.col_start) as usize;
    let weight = match Tensor::from_vec([assign.out_rows as usize, width], assign.weight) {
        Ok(w) => w,
        Err(e) => {
            return Response::Error {
                id: assign.id,
                code: ErrorCode::Invalid,
                message: format!("bad weight slice: {e}"),
            }
        }
    };
    shared.slices.lock().expect("worker slices lock").insert(
        (assign.model, assign.shard_id),
        AssignedSlice {
            weight,
            shard_id: assign.shard_id,
        },
    );
    Response::ShardAssigned {
        id: assign.id,
        shard_id: assign.shard_id,
    }
}

/// Multiply one feature block against an installed slice, under one
/// admission grant from the worker session's coordinator.
fn answer_exec(exec: ShardExecRequest, shared: &WorkerShared) -> Response {
    let id = exec.id;
    match run_exec(exec, shared) {
        Ok(resp) => resp,
        Err(err) => Response::Error {
            id,
            code: crate::batcher::classify(&err),
            message: err.to_string(),
        },
    }
}

fn run_exec(exec: ShardExecRequest, shared: &WorkerShared) -> relserve_core::Result<Response> {
    let (weight, shard_id) = {
        let slices = shared.slices.lock().expect("worker slices lock");
        let Some(slice) = slices.get(&(exec.model.clone(), exec.shard_id)) else {
            return Err(CoreError::NotFound(format!(
                "no slice assigned for model {:?} shard {}",
                exec.model, exec.shard_id
            )));
        };
        (slice.weight.clone(), slice.shard_id)
    };
    let (_, slice_width) = weight.shape().as_matrix()?;
    if exec.cols as usize != slice_width {
        return Err(CoreError::Invalid(format!(
            "exec block has {} columns, slice expects {slice_width}",
            exec.cols
        )));
    }
    let block = Tensor::from_vec([exec.rows as usize, exec.cols as usize], exec.data)?;
    // Per-shard admission: each execution takes one grant from the worker
    // session's coordinator, so shard work queues behind (and sheds like)
    // any local inference sharing this worker's cores.
    let session = &shared.session;
    let ctx = session.coordinator().context_with(
        1,
        session.governor().clone(),
        &AdmissionPolicy::default(),
    )?;
    let partial = compute_partial(&block, &weight, &ctx.parallelism())?;
    let (rows, hidden) = partial.shape().as_matrix()?;
    shared.shard_execs.fetch_add(1, Ordering::Relaxed);
    Ok(Response::Partial {
        id: exec.id,
        shard_id,
        rows: rows as u32,
        hidden: hidden as u32,
        data: partial.data().to_vec(),
    })
}

// ---- coordinator ---------------------------------------------------------

/// The sharded head of a model: its first dense layer decomposed for
/// scatter, plus the tail executed locally after the gather.
struct ShardableHead<'m> {
    /// The layer's f32 weight matrix, in whichever form it is: the tier
    /// ships column slices of it.
    weight: &'m Weight,
    bias: &'m Tensor,
    activation: Activation,
    /// Indices of the layers after the sharded one, run locally on the
    /// gathered output.
    tail: std::ops::Range<usize>,
}

/// A model's head is shardable when an optional run of `Flatten` layers
/// (identity on the 2-D feature batches the serving path carries) is
/// followed by an f32 dense layer of matching input width, and every tail
/// layer is dense too (the gather output is 2-D; feeding it to a conv
/// would need spatial bookkeeping the shard tier does not do).
fn shardable_head(layers: &[Layer], width: usize) -> Option<ShardableHead<'_>> {
    let idx = layers
        .iter()
        .take_while(|l| matches!(l, Layer::Flatten))
        .count();
    let tail = idx + 1..layers.len();
    let head = layers.get(idx)?;
    if head.weight_shape().map(|(_, k)| k) != Some(width)
        || !layers[tail.clone()]
            .iter()
            .all(|l| l.weight_shape().is_some())
    {
        return None;
    }
    let (bias, activation) = match head {
        Layer::Dense {
            bias, activation, ..
        }
        | Layer::Stored {
            bias, activation, ..
        } => (bias, *activation),
        _ => return None,
    };
    let weight = head.weight().filter(|w| w.precision() == Precision::F32)?;
    Some(ShardableHead {
        weight,
        bias,
        activation,
        tail,
    })
}

impl ShardableHead<'_> {
    /// The columns of `range` of the head's weight matrix, read out of
    /// whichever form holds it.
    fn slice(&self, plan: &PartitionSpec, range: ShardRange) -> relserve_core::Result<Tensor> {
        plan.slice_weight(&self.weight.to_tensor()?, range)
    }
}

/// Mutable state of one worker link, behind its slot mutex.
struct SlotState {
    /// Lazily established resilient connection.
    client: Option<Client>,
    /// Sticky death: set when the client's retry budget is exhausted.
    dead: bool,
    /// Models whose slice this worker has acknowledged installing.
    assigned: HashSet<String>,
}

/// One worker link: address plus its serialized connection state.
struct WorkerSlot {
    addr: SocketAddr,
    state: Mutex<SlotState>,
}

/// What one shard contributed to a gather, for the accumulation loop.
enum ShardOutcome {
    Remote(Vec<f32>),
    /// Must be computed locally (worker dead, refused, or answered
    /// garbage).
    Local,
}

/// Scatter-gather coordinator over a fixed worker fleet.
///
/// Shard *i* of every fused batch is owned by worker *i* (the partition
/// layout is fixed at construction so weight-slice assignments stay
/// valid); a dead worker's shard degrades to local execution forever
/// after. Construct standalone with [`ShardCoordinator::connect`], or let
/// [`crate::ServeConfigBuilder::workers`] embed one in a server.
pub struct ShardCoordinator {
    workers: Vec<WorkerSlot>,
    policy: RetryPolicy,
    counters: Arc<ShardCounters>,
}

impl ShardCoordinator {
    /// A coordinator over `workers`, connecting lazily on first use with
    /// `policy` bounding every link's reconnect budget.
    pub fn connect(workers: Vec<SocketAddr>, policy: RetryPolicy) -> Result<ShardCoordinator> {
        Self::with_counters(workers, policy, Arc::new(ShardCounters::default()))
    }

    /// As [`connect`](Self::connect), but sharing the server's counter
    /// block so scatter-side increments land in `serve.shard.*`.
    pub(crate) fn with_counters(
        workers: Vec<SocketAddr>,
        policy: RetryPolicy,
        counters: Arc<ShardCounters>,
    ) -> Result<ShardCoordinator> {
        if workers.is_empty() {
            return Err(Error::Config(
                "a shard coordinator needs at least one worker".into(),
            ));
        }
        counters
            .workers_configured
            .store(workers.len() as u64, Ordering::Relaxed);
        counters
            .workers_live
            .store(workers.len() as u64, Ordering::Relaxed);
        Ok(ShardCoordinator {
            workers: workers
                .into_iter()
                .map(|addr| WorkerSlot {
                    addr,
                    state: Mutex::new(SlotState {
                        client: None,
                        dead: false,
                        assigned: HashSet::new(),
                    }),
                })
                .collect(),
            policy,
            counters,
        })
    }

    /// Size of the configured fleet (live or not).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently believed live.
    pub fn workers_live(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| !w.state.lock().expect("slot lock").dead)
            .count()
    }

    /// Snapshot of the shard-tier counters.
    pub fn stats(&self) -> ShardServeStats {
        self.counters.snapshot()
    }

    /// Declare a slot dead (once) and update the liveness gauge. The
    /// caller holds that slot's lock, so the gauge is decremented rather
    /// than recomputed — [`workers_live`](Self::workers_live) would
    /// re-lock the held slot and self-deadlock.
    fn mark_dead(&self, state: &mut SlotState) {
        if !state.dead {
            state.dead = true;
            state.client = None;
            self.counters.worker_losses.fetch_add(1, Ordering::Relaxed);
            self.counters.workers_live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Sharded drop-in for [`InferenceSession::infer_fused`]: same
    /// validation, same outcome contract, same error type. Falls back to
    /// the session's own fused path when the model is not shardable or no
    /// worker is live; degrades individual shards to local execution when
    /// their worker dies mid-batch. Never loses a request to a worker
    /// crash.
    pub fn infer_fused(
        &self,
        session: &InferenceSession,
        model_name: &str,
        parts: &[Tensor],
        architecture: Architecture,
        policy: &AdmissionPolicy,
    ) -> relserve_core::Result<FusedOutcome> {
        let started = Instant::now();
        // Mirror infer_fused's part validation so the two paths reject
        // exactly the same inputs.
        if parts.is_empty() {
            return Err(CoreError::Invalid(
                "fused batch needs at least one part".into(),
            ));
        }
        let width = match parts[0].shape().dims() {
            [_, w] => *w,
            other => {
                return Err(CoreError::Invalid(format!(
                    "fused parts must be 2-D [rows, width], got {other:?}"
                )))
            }
        };
        let mut rows_per_part = Vec::with_capacity(parts.len());
        let mut total_rows = 0usize;
        for part in parts {
            match part.shape().dims() {
                [r, w] if *w == width && *r > 0 => {
                    rows_per_part.push(*r);
                    total_rows += *r;
                }
                other => {
                    return Err(CoreError::Invalid(format!(
                        "fused part shape {other:?} incompatible with width {width}"
                    )))
                }
            }
        }

        let model = session.model(model_name)?;
        let shards = self.workers.len().min(width);
        let head = shardable_head(model.layers(), width);
        let (Some(head), true) = (head, shards >= 1 && self.workers_live() > 0) else {
            self.counters
                .fallback_unsharded
                .fetch_add(1, Ordering::Relaxed);
            return session.infer_fused(model_name, parts, architecture, policy);
        };

        let mut data = Vec::with_capacity(total_rows * width);
        for part in parts {
            data.extend_from_slice(part.data());
        }
        let fused = Tensor::from_vec([total_rows, width], data)?;
        let plan = PartitionSpec::even(width, shards)?;
        let (out_rows, _) = head.weight.shape();

        // One admission grant covers the coordinator's side of the batch:
        // slicing, any degraded-to-local shard, and the gather tail.
        let ctx = session
            .coordinator()
            .context_with(1, session.governor().clone(), policy)?;
        let par = ctx.parallelism();

        // Scatter: slice the batch column-wise and start every live
        // worker on its shard before waiting on any of them — worker-side
        // compute overlaps across the fleet.
        let mut blocks = Vec::with_capacity(shards);
        let mut pending: Vec<Option<u64>> = Vec::with_capacity(shards);
        for range in plan.shards() {
            let block = plan.slice_batch(&fused, *range)?;
            pending.push(self.scatter_one(model_name, &head, &plan, *range, &block));
            blocks.push(block);
        }

        // Gather in shard order (the accumulation order fixes the
        // floating-point chain regardless of which shards were remote).
        let mut acc = vec![0.0f32; total_rows * out_rows];
        for (i, range) in plan.shards().iter().enumerate() {
            ctx.check_deadline("shard gather")?;
            let outcome = match pending[i] {
                Some(id) => self.gather_one(i, id, total_rows, out_rows),
                None => None,
            };
            let partial = match outcome {
                Some(ShardOutcome::Remote(p)) => {
                    self.counters
                        .shard_execs_remote
                        .fetch_add(1, Ordering::Relaxed);
                    p
                }
                Some(ShardOutcome::Local) | None => {
                    // Degradation to local single-process execution of the
                    // lost shard: same kernel, same weight slice, answers
                    // preserved.
                    self.counters
                        .shards_degraded_local
                        .fetch_add(1, Ordering::Relaxed);
                    let w_i = head.slice(&plan, *range)?;
                    compute_partial(&blocks[i], &w_i, &par)?.data().to_vec()
                }
            };
            if partial.len() != acc.len() {
                return Err(CoreError::Invalid(format!(
                    "shard {i} partial has {} values, expected {}",
                    partial.len(),
                    acc.len()
                )));
            }
            for (a, p) in acc.iter_mut().zip(partial) {
                *a += p;
            }
        }

        // Finish the decomposed layer, then the tail, locally.
        let mut x = Tensor::from_vec([total_rows, out_rows], acc)?;
        ops::add_bias_inplace(&mut x, head.bias)?;
        head.activation.apply_inplace(&mut x)?;
        for i in head.tail {
            ctx.check_deadline("shard tail")?;
            x = model.forward_layer(i, &x, &par)?;
        }
        let predictions = ops::argmax_rows(&x)?;

        self.counters
            .scatter_batches
            .fetch_add(1, Ordering::Relaxed);
        let mut per_request = Vec::with_capacity(parts.len());
        let mut offset = 0usize;
        for rows in rows_per_part {
            per_request.push(predictions[offset..offset + rows].to_vec());
            offset += rows;
        }
        Ok(FusedOutcome {
            per_request,
            elapsed: started.elapsed(),
            architecture: format!("sharded({shards})+{architecture}"),
            degraded_to: None,
        })
    }

    /// Start shard `range` on its worker: connect if this is the link's
    /// first use, install the model's weight slice if this worker has not
    /// acknowledged it yet, and send the exec without waiting. `None`
    /// means the shard must run locally (worker dead now or already).
    fn scatter_one(
        &self,
        model_name: &str,
        head: &ShardableHead<'_>,
        plan: &PartitionSpec,
        range: ShardRange,
        block: &Tensor,
    ) -> Option<u64> {
        let slot = &self.workers[range.shard_id as usize];
        let mut state = slot.state.lock().expect("slot lock");
        if state.dead {
            return None;
        }
        if state.client.is_none() {
            match Client::connect_resilient(slot.addr, self.policy) {
                Ok(c) => state.client = Some(c),
                Err(_) => {
                    self.mark_dead(&mut state);
                    return None;
                }
            }
        }
        if !state.assigned.contains(model_name) {
            let slice = head.slice(plan, range).ok()?;
            let (out_rows, _) = slice.shape().as_matrix().ok()?;
            let assigned = state
                .client
                .as_mut()
                .expect("client just ensured")
                .shard_assign(
                    model_name,
                    range.shard_id,
                    plan.shard_count() as u32,
                    range.col_start,
                    range.col_end,
                    out_rows as u32,
                    slice.data().to_vec(),
                );
            if assigned.is_err() {
                self.mark_dead(&mut state);
                return None;
            }
            state.assigned.insert(model_name.to_string());
            self.counters.assigns.fetch_add(1, Ordering::Relaxed);
        }
        let (rows, cols) = block.shape().as_matrix().ok()?;
        match state
            .client
            .as_mut()
            .expect("client just ensured")
            .send_shard_exec(
                model_name,
                range.shard_id,
                rows as u32,
                cols as u32,
                block.data().to_vec(),
            ) {
            Ok(id) => Some(id),
            Err(_) => {
                self.mark_dead(&mut state);
                None
            }
        }
    }

    /// Wait for shard `i`'s partial. `Remote` carries validated data;
    /// anything else — connection death after the retry budget, a typed
    /// worker error (admission shed), a malformed partial — resolves to
    /// `Local(empty)` and the caller recomputes the shard itself.
    fn gather_one(&self, i: usize, id: u64, rows: usize, hidden: usize) -> Option<ShardOutcome> {
        let slot = &self.workers[i];
        let mut state = slot.state.lock().expect("slot lock");
        let client = state.client.as_mut()?;
        match client.wait(id) {
            Ok(Response::Partial {
                shard_id,
                rows: r,
                hidden: h,
                data,
                ..
            }) if shard_id as usize == i && r as usize == rows && h as usize == hidden => {
                Some(ShardOutcome::Remote(data))
            }
            Ok(Response::Error { .. }) => {
                // The worker is alive but refused (e.g. its admission
                // ledger shed the shard): absorb this one locally without
                // declaring the worker dead.
                Some(ShardOutcome::Local)
            }
            Ok(_) | Err(_) => {
                self.mark_dead(&mut state);
                Some(ShardOutcome::Local)
            }
        }
    }
}

impl std::fmt::Debug for ShardCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCoordinator")
            .field("workers", &self.workers.len())
            .field("live", &self.workers_live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relserve_core::SessionConfig;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::{FaultConfig, TransferProfile};

    const MODEL: &str = "Fraud-FC-256";
    const WIDTH: usize = 28;

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
        session
            .load_model(zoo::fraud_fc_256(&mut seeded_rng(77)).unwrap())
            .unwrap();
        Arc::new(session)
    }

    fn feature_part(rows: usize, salt: usize) -> Tensor {
        let data: Vec<f32> = (0..rows * WIDTH)
            .map(|i| (((i + salt) % 13) as f32 - 6.0) * 0.11)
            .collect();
        Tensor::from_vec([rows, WIDTH], data).unwrap()
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            jitter: 0.0,
        }
    }

    #[test]
    fn workers_from_env_parses_lists_and_rejects_typos() {
        // Process-env tests poke the real environment; keep the key unique.
        let key = WORKERS_ENV;
        std::env::remove_var(key);
        assert_eq!(workers_from_env(), None);
        std::env::set_var(key, "127.0.0.1:7001, 127.0.0.1:7002");
        assert_eq!(
            workers_from_env(),
            Some(vec![
                "127.0.0.1:7001".parse().unwrap(),
                "127.0.0.1:7002".parse().unwrap()
            ])
        );
        std::env::set_var(key, "127.0.0.1:7001,not-an-addr");
        assert_eq!(workers_from_env(), None, "a typo rejects the whole fleet");
        std::env::remove_var(key);
    }

    #[test]
    fn scatter_gather_matches_single_process_execution() {
        let coordinator_session = test_session();
        let workers: Vec<WorkerHandle> = (0..2)
            .map(|_| WorkerHandle::spawn(test_session(), None).unwrap())
            .collect();
        let coord = ShardCoordinator::connect(
            workers.iter().map(WorkerHandle::addr).collect(),
            fast_retry(),
        )
        .unwrap();

        let parts = [feature_part(5, 0), feature_part(3, 7), feature_part(1, 2)];
        let policy = AdmissionPolicy::default();
        let sharded = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        let local = coordinator_session
            .infer_fused(MODEL, &parts, Architecture::UdfCentric, &policy)
            .unwrap();
        assert_eq!(sharded.per_request, local.per_request);

        let stats = coord.stats();
        assert_eq!(stats.scatter_batches, 1);
        assert_eq!(stats.assigns, 2, "one slice per worker");
        assert_eq!(stats.shard_execs_remote, 2);
        assert_eq!(stats.shards_degraded_local, 0);
        assert_eq!(stats.workers_live, 2);
        for w in &workers {
            assert_eq!(w.shard_execs(), 1);
        }
    }

    #[test]
    fn killed_worker_degrades_to_local_and_answers_survive() {
        let coordinator_session = test_session();
        let w0 = WorkerHandle::spawn(test_session(), None).unwrap();
        let w1 = WorkerHandle::spawn(test_session(), None).unwrap();
        let coord = ShardCoordinator::connect(vec![w0.addr(), w1.addr()], fast_retry()).unwrap();
        let parts = [feature_part(4, 1)];
        let policy = AdmissionPolicy::default();

        let before = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        w1.kill();
        let after = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        assert_eq!(
            before.per_request, after.per_request,
            "degradation to local must not change answers"
        );
        let stats = coord.stats();
        assert_eq!(stats.worker_losses, 1);
        assert_eq!(stats.shards_degraded_local, 1);
        assert_eq!(stats.workers_live, 1);

        // The dead worker stays dead: later batches degrade without
        // re-probing forever, and answers still match.
        let again = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        assert_eq!(before.per_request, again.per_request);
        assert_eq!(coord.stats().worker_losses, 1, "death is counted once");
    }

    #[test]
    fn fault_injected_kill_fires_deterministically() {
        let coordinator_session = test_session();
        // worker_chaos(rate=1.0) bounded to one fault: the worker dies on
        // its first received request, exactly once.
        let faults = FaultInjector::new(FaultConfig {
            max_faults: Some(1),
            ..FaultConfig::worker_chaos(42, 1.0)
        });
        let w0 = WorkerHandle::spawn(test_session(), Some(faults)).unwrap();
        let w1 = WorkerHandle::spawn(test_session(), None).unwrap();
        let coord = ShardCoordinator::connect(vec![w0.addr(), w1.addr()], fast_retry()).unwrap();
        let parts = [feature_part(6, 3)];
        let policy = AdmissionPolicy::default();
        let sharded = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        let local = coordinator_session
            .infer_fused(MODEL, &parts, Architecture::UdfCentric, &policy)
            .unwrap();
        assert_eq!(sharded.per_request, local.per_request);
        assert!(w0.is_killed(), "kill switch fired on the first request");
        let stats = coord.stats();
        assert_eq!(stats.shards_degraded_local, 1);
        assert_eq!(stats.worker_losses, 1);
    }

    #[test]
    fn all_workers_dead_falls_back_to_unsharded() {
        let coordinator_session = test_session();
        let w0 = WorkerHandle::spawn(test_session(), None).unwrap();
        let coord = ShardCoordinator::connect(vec![w0.addr()], fast_retry()).unwrap();
        w0.kill();
        let parts = [feature_part(2, 0)];
        let policy = AdmissionPolicy::default();
        // First batch discovers the death (degrading its one shard), the
        // second takes the unsharded fast path outright.
        coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        let outcome = coord
            .infer_fused(
                &coordinator_session,
                MODEL,
                &parts,
                Architecture::UdfCentric,
                &policy,
            )
            .unwrap();
        let local = coordinator_session
            .infer_fused(MODEL, &parts, Architecture::UdfCentric, &policy)
            .unwrap();
        assert_eq!(outcome.per_request, local.per_request);
        assert_eq!(coord.stats().fallback_unsharded, 1);
        assert_eq!(coord.stats().workers_live, 0);
    }

    #[test]
    fn unshardable_width_falls_back() {
        let session = test_session();
        let w0 = WorkerHandle::spawn(test_session(), None).unwrap();
        let coord = ShardCoordinator::connect(vec![w0.addr()], fast_retry()).unwrap();
        // Width 28 model, width-27 parts: infer_fused rejects them the
        // same way on both paths.
        let bad = Tensor::from_vec([2, 27], vec![0.5; 54]).unwrap();
        let policy = AdmissionPolicy::default();
        let err = coord
            .infer_fused(&session, MODEL, &[bad], Architecture::UdfCentric, &policy)
            .unwrap_err();
        assert!(matches!(err, CoreError::Nn(_) | CoreError::Invalid(_)));
        assert_eq!(coord.stats().fallback_unsharded, 1);
    }

    // Satellite 3: the serial-oracle property — a coordinator with two
    // workers is bit-identical to single-process execution of the same
    // partition plan, across random shapes and values.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn coordinator_matches_serial_oracle(
            rows in 1usize..6,
            parts_count in 1usize..4,
            seed in 0u64..1000,
        ) {
            let coordinator_session = test_session();
            let workers: Vec<WorkerHandle> = (0..2)
                .map(|_| WorkerHandle::spawn(test_session(), None).unwrap())
                .collect();
            let coord = ShardCoordinator::connect(
                workers.iter().map(WorkerHandle::addr).collect(),
                fast_retry(),
            )
            .unwrap();
            let parts: Vec<Tensor> = (0..parts_count)
                .map(|p| feature_part(rows + p, seed as usize + p))
                .collect();
            let policy = AdmissionPolicy::default();
            let sharded = coord
                .infer_fused(
                    &coordinator_session,
                    MODEL,
                    &parts,
                    Architecture::UdfCentric,
                    &policy,
                )
                .unwrap();
            let serial = coordinator_session
                .infer_fused(MODEL, &parts, Architecture::UdfCentric, &policy)
                .unwrap();
            prop_assert_eq!(sharded.per_request, serial.per_request);
        }
    }
}
