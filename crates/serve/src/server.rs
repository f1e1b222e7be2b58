//! The TCP serving frontend.
//!
//! [`Server::spawn`] binds a listener and starts the readiness reactor —
//! one or a few poller threads multiplexing every accepted connection
//! through epoll ([`crate::reactor`]) — plus a pool of batch executor
//! threads. Pollers decode frames and hand inference requests to the
//! micro-batcher; `Stats` requests are answered inline from lock-free
//! snapshots; responses flow back through each connection's bounded write
//! queue without any thread ever blocking on a slow peer.
//! [`ServerHandle::shutdown`] (also run on drop) stops the reactor, severs
//! every live connection, and drains the batcher before joining all
//! threads.
//!
//! Configuration is built through [`ServeConfig::builder`]; the config's
//! fields are validated once at [`ServeConfigBuilder::build`] time, so a
//! spawned server never runs with a nonsensical knob.

use crate::batcher::{Batcher, BatcherConfig};
use crate::cache::{cache_disabled_by_env, CacheConfig, SemanticCache};
use crate::error::{Error, Result};
use crate::reactor::{spawn_reactor, PollerShared, ReactorCtx};
use crate::stats::{ServeCounters, ServeStats};
use crate::sys::{self, set_listen_backlog};
use crate::wire::HealthState;
use relserve_core::versions::PressureLadder;
use relserve_core::{Architecture, InferenceSession};
use relserve_runtime::{AdmissionPolicy, FaultConfig, FaultInjector, Priority};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`Server`]. Construct via [`ServeConfig::builder`]; every
/// knob is validated when the builder finishes, and the set of fields is
/// private so invalid combinations cannot be assembled by hand.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub(crate) bind: SocketAddr,
    /// Row budget of one fused batch: the most a free executor takes from
    /// a group at once.
    pub(crate) max_batch_rows: usize,
    /// Batch executor threads draining the micro-batcher.
    pub(crate) executors: usize,
    /// Reactor poller threads multiplexing connections.
    pub(crate) pollers: usize,
    /// Per-connection cap on parked (unwritten) response bytes; crossing
    /// half of it pauses reads, overflowing it severs the connection.
    pub(crate) write_buffer_bytes: usize,
    /// Connection slots; accepts past this are shed with a typed
    /// `Overloaded` wire error instead of being admitted and stalled.
    pub(crate) max_connections: usize,
    /// Kernel accept backlog requested for the listener.
    pub(crate) accept_backlog: u32,
    /// Execution architecture for fused batches.
    pub(crate) architecture: Architecture,
    /// Admission policy per class, indexed by [`Priority::rank`].
    pub(crate) admission: [AdmissionPolicy; 3],
    /// Per-class cap on buffered rows; arrivals past it are shed with
    /// `Overloaded` before they ever buffer. `None` = unbounded.
    pub(crate) backlog_shed_rows: [Option<usize>; 3],
    /// SLA step-down ladders, keyed by requested model name.
    pub(crate) ladders: HashMap<String, PressureLadder>,
    /// Semantic result cache fronting the micro-batcher.
    pub(crate) cache: CacheConfig,
    /// Default deadline for [`ServerHandle::drain_graceful`].
    pub(crate) drain_deadline: Duration,
    /// Deterministic socket chaos for the reactor; `None` (the default)
    /// falls back to the `RELSERVE_FAULT_SEED` + `RELSERVE_SOCK_FAULTS`
    /// environment pair, and quiet configs are ignored entirely.
    pub(crate) wire_faults: Option<FaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".parse().expect("static addr parses"),
            max_batch_rows: 64,
            executors: 2,
            pollers: 1,
            write_buffer_bytes: 1 << 20,
            max_connections: 10_000,
            accept_backlog: 1024,
            architecture: Architecture::UdfCentric,
            admission: [
                AdmissionPolicy::for_class(Priority::Interactive),
                AdmissionPolicy::for_class(Priority::Standard),
                AdmissionPolicy::for_class(Priority::Batch),
            ],
            backlog_shed_rows: [None; 3],
            ladders: HashMap::new(),
            cache: CacheConfig::default(),
            drain_deadline: Duration::from_secs(5),
            wire_faults: None,
        }
    }
}

impl ServeConfig {
    /// Start building a validated configuration from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`], mirroring
/// [`relserve_core::SessionConfig::builder`]: setters are chainable and
/// [`build`](Self::build) rejects invalid combinations with
/// [`Error::Config`] instead of letting a bad knob reach the reactor.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Address to bind; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.config.bind = addr;
        self
    }

    /// Row budget of one fused batch.
    pub fn max_batch_rows(mut self, rows: usize) -> Self {
        self.config.max_batch_rows = rows;
        self
    }

    /// Batch executor threads draining the micro-batcher.
    pub fn executors(mut self, executors: usize) -> Self {
        self.config.executors = executors;
        self
    }

    /// Reactor poller threads. Connections are sharded across pollers by
    /// id; one poller is plenty below a few thousand mostly-idle
    /// connections.
    pub fn pollers(mut self, pollers: usize) -> Self {
        self.config.pollers = pollers;
        self
    }

    /// Per-connection cap on parked response bytes (the backpressure
    /// budget): reads pause at half of it, overflow severs.
    pub fn write_buffer_bytes(mut self, bytes: usize) -> Self {
        self.config.write_buffer_bytes = bytes;
        self
    }

    /// Connection slots; accepts past this are shed with a typed
    /// `Overloaded` wire error at accept time.
    pub fn max_connections(mut self, conns: usize) -> Self {
        self.config.max_connections = conns;
        self
    }

    /// Kernel accept backlog requested for the listener.
    pub fn accept_backlog(mut self, backlog: u32) -> Self {
        self.config.accept_backlog = backlog;
        self
    }

    /// Execution architecture for fused batches.
    pub fn architecture(mut self, architecture: Architecture) -> Self {
        self.config.architecture = architecture;
        self
    }

    /// Admission policy for one class (defaults to
    /// [`AdmissionPolicy::for_class`]).
    pub fn admission(mut self, class: Priority, policy: AdmissionPolicy) -> Self {
        self.config.admission[class.rank()] = policy;
        self
    }

    /// Cap buffered rows for one class; arrivals past the cap are shed
    /// with `Overloaded` before they buffer.
    pub fn backlog_shed_rows(mut self, class: Priority, rows: usize) -> Self {
        self.config.backlog_shed_rows[class.rank()] = Some(rows);
        self
    }

    /// Register an SLA step-down ladder for a model name.
    pub fn ladder(mut self, model: impl Into<String>, ladder: PressureLadder) -> Self {
        self.config.ladders.insert(model.into(), ladder);
        self
    }

    /// Semantic result cache fronting the micro-batcher. Disabled by
    /// default; `RELSERVE_CACHE=off` force-disables it even when enabled
    /// here.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Default deadline for [`ServerHandle::drain_graceful`]: how long a
    /// drain waits for in-flight batches to execute and parked response
    /// bytes to flush before severing what remains.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.config.drain_deadline = deadline;
        self
    }

    /// Inject deterministic socket chaos (torn reads, stalled reads,
    /// mid-write resets, delayed accepts) into the reactor. Chaos-soak
    /// tests set this explicitly; otherwise the
    /// `RELSERVE_FAULT_SEED` + `RELSERVE_SOCK_FAULTS` environment pair
    /// enables an ambient profile.
    pub fn wire_faults(mut self, faults: FaultConfig) -> Self {
        self.config.wire_faults = Some(faults);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig> {
        let c = &self.config;
        if c.max_batch_rows == 0 {
            return Err(Error::Config("max_batch_rows must be at least 1".into()));
        }
        if c.executors == 0 {
            return Err(Error::Config("executors must be at least 1".into()));
        }
        if c.pollers == 0 || c.pollers > 64 {
            return Err(Error::Config(format!(
                "pollers must be in 1..=64, got {}",
                c.pollers
            )));
        }
        if c.write_buffer_bytes < 4096 {
            return Err(Error::Config(format!(
                "write_buffer_bytes must be at least 4096 (one small response \
                 must fit under the backpressure watermarks), got {}",
                c.write_buffer_bytes
            )));
        }
        if c.max_connections == 0 {
            return Err(Error::Config("max_connections must be at least 1".into()));
        }
        if c.accept_backlog == 0 {
            return Err(Error::Config("accept_backlog must be at least 1".into()));
        }
        if c.drain_deadline.is_zero() {
            return Err(Error::Config(
                "drain_deadline must be nonzero (a zero deadline is a hard \
                 stop; call shutdown() for that)"
                    .into(),
            ));
        }
        if let Some(f) = &c.wire_faults {
            for (name, rate) in [
                ("sock_tear_rate", f.sock_tear_rate),
                ("sock_stall_rate", f.sock_stall_rate),
                ("sock_reset_rate", f.sock_reset_rate),
                ("accept_delay_rate", f.accept_delay_rate),
            ] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(Error::Config(format!(
                        "wire_faults.{name} must be in [0, 1], got {rate}"
                    )));
                }
            }
        }
        Ok(self.config)
    }
}

/// The serving frontend. Construct with [`Server::spawn`]; the returned
/// [`ServerHandle`] owns every thread.
pub struct Server;

impl Server {
    /// Bind, start the reactor pollers and executor pool, and return a
    /// handle.
    pub fn spawn(session: Arc<InferenceSession>, config: ServeConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(config.bind)?;
        let addr = listener.local_addr()?;
        // std's bind hardcodes a backlog of 128; re-listen to the
        // configured depth so an accept burst at 10k connections does not
        // overflow the SYN queue.
        set_listen_backlog(&listener, config.accept_backlog)?;

        let counters = Arc::new(ServeCounters::default());
        // The semantic cache charges its entries to the session's database
        // memory governor, so budget pressure evicts cold cached results
        // instead of OOMing inference.
        let cache = (config.cache.enabled && !cache_disabled_by_env()).then(|| {
            Arc::new(SemanticCache::new(
                config.cache.clone(),
                session.governor().clone(),
                Arc::clone(&counters),
            ))
        });
        let batcher = Batcher::new(
            BatcherConfig {
                max_batch_rows: config.max_batch_rows.max(1),
                architecture: config.architecture,
                admission: config.admission,
                backlog_shed_rows: config.backlog_shed_rows,
                ladders: config.ladders.clone(),
            },
            Arc::clone(&counters),
            Arc::clone(&session),
            cache,
        );

        let executors: Vec<JoinHandle<()>> = (0..config.executors.max(1))
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || batcher.run_executor())
                    .expect("spawn executor thread")
            })
            .collect();

        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        // Socket chaos: an explicit builder config wins; otherwise the
        // RELSERVE_FAULT_SEED + RELSERVE_SOCK_FAULTS environment pair
        // supplies an ambient stream. All-zero rates cost nothing.
        let faults = config
            .wire_faults
            .filter(FaultConfig::has_socket_faults)
            .map(FaultInjector::new)
            .or_else(FaultInjector::socket_from_env);
        let poller_count = config.pollers.max(1);
        let ctx = Arc::new(ReactorCtx::new(
            Arc::clone(&counters),
            Arc::clone(&batcher),
            Arc::clone(&session),
            Arc::clone(&shutdown),
            Arc::clone(&live),
            config.max_connections,
            config.write_buffer_bytes,
            poller_count,
            faults,
        ));
        let (poller_shared, pollers) = spawn_reactor(listener, poller_count, Arc::clone(&ctx))?;

        Ok(ServerHandle {
            addr,
            session,
            counters,
            batcher,
            shutdown,
            live,
            ctx,
            drain_deadline: config.drain_deadline,
            poller_shared,
            pollers,
            executors,
        })
    }
}

/// What a completed [`ServerHandle::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every in-flight batch executed and every parked response
    /// byte flushed before the deadline. False means the deadline expired
    /// and the remainder was severed, exactly like a hard shutdown.
    pub completed_within_deadline: bool,
    /// Buffered-but-unadmitted requests shed with a typed `Draining`
    /// error (includes arrivals refused after the drain began).
    pub shed_requests: u64,
    /// Wall time from drain entry to the final thread join.
    pub duration: Duration,
}

/// Owns the server's threads; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    session: Arc<InferenceSession>,
    counters: Arc<ServeCounters>,
    batcher: Arc<Batcher>,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    ctx: Arc<ReactorCtx>,
    drain_deadline: Duration,
    poller_shared: Vec<Arc<PollerShared>>,
    pollers: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the serving counters. Refreshes the poller watchdog
    /// first — the backstop that reports a stall even when the poller that
    /// normally drives the watchdog is itself the one wedged.
    pub fn stats(&self) -> ServeStats {
        self.ctx.refresh_watchdog();
        self.counters.snapshot()
    }

    /// Per-model SLA-ladder activity (step-downs, restores, current rung),
    /// sorted by model name. Empty until a ladder-registered model executes
    /// its first fused batch.
    pub fn ladder_stats(&self) -> Vec<(String, crate::stats::LadderModelStats)> {
        self.counters.ladder_stats()
    }

    /// The readiness a Health probe would report right now.
    pub fn health_state(&self) -> HealthState {
        self.ctx.health_state()
    }

    /// Number of currently live connections (closed connections are reaped
    /// by their poller, so this tracks live peers, not the total ever
    /// accepted).
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// The session this server executes against.
    pub fn session(&self) -> &Arc<InferenceSession> {
        &self.session
    }

    /// Stop accepting, sever live connections, drain buffered batches, and
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Route the process `SIGTERM` to the graceful-drain path: the next
    /// SIGTERM makes poller 0 enter drain (refuse new work with typed
    /// `Draining` errors, shed the unadmitted buffer) instead of the
    /// default disposition killing the process mid-batch. The application
    /// observes [`ServerHandle::drain_pending`] and finishes with
    /// [`ServerHandle::drain_graceful`]. Process-global.
    pub fn install_sigterm_drain(&self) -> Result<()> {
        sys::install_signal_flag(sys::SIGTERM)?;
        self.ctx.watch_sigterm();
        Ok(())
    }

    /// True once a drain has been entered (by [`ServerHandle::drain`], a
    /// routed SIGTERM, or a concurrent caller) and the handle should be
    /// taken through [`ServerHandle::drain_graceful`].
    pub fn drain_pending(&self) -> bool {
        self.ctx.is_draining()
    }

    /// [`ServerHandle::drain`] with the configured `drain_deadline`.
    pub fn drain_graceful(self) -> DrainReport {
        let deadline = self.drain_deadline;
        self.drain(deadline)
    }

    /// Gracefully drain, then stop:
    ///
    /// 1. enter drain — accepts are refused with typed `Draining` frames,
    ///    buffered-but-unadmitted requests are shed with `Draining`
    ///    errors, arrivals after this instant get the same;
    /// 2. in-flight fused batches (and their cache shadows) finish
    ///    executing — executors exit once the drained batcher is empty;
    /// 3. parked response bytes flush to their peers as sockets drain
    ///    (pollers keep running through this phase);
    /// 4. everything joins. Work still pending when `deadline` expires is
    ///    severed exactly like a hard shutdown, and the report says so.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        let start = Instant::now();
        let deadline_at = start + deadline;
        self.ctx.enter_drain();
        let poll = Duration::from_millis(1);
        // Phase 2: executors finish the batches they already popped.
        let mut executed = false;
        while Instant::now() < deadline_at {
            if self.executors.iter().all(JoinHandle::is_finished) {
                executed = true;
                break;
            }
            std::thread::sleep(poll);
        }
        // Phase 3: parked write buffers flush (pollers are still serving
        // EPOLLOUT). A peer that stopped reading keeps its bytes parked —
        // the deadline bounds how long we indulge it.
        let mut flushed = false;
        while Instant::now() < deadline_at {
            if self.counters.reactor.parked_bytes.load(Ordering::Relaxed) == 0 {
                flushed = true;
                break;
            }
            std::thread::sleep(poll);
        }
        let completed = executed && flushed;
        self.counters
            .drain
            .deadline_exceeded
            .store(u64::from(!completed), Ordering::Relaxed);
        // Phase 4: hard stop — joins pollers and executors.
        self.stop();
        let duration = start.elapsed();
        self.counters
            .drain
            .duration_micros
            .store(duration.as_micros() as u64, Ordering::Relaxed);
        DrainReport {
            completed_within_deadline: completed,
            shed_requests: self.counters.drain.shed_requests.load(Ordering::Relaxed),
            duration,
        }
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake every poller out of epoll_wait; each closes the connections
        // it owns (severing their sockets) on the way out, so no response
        // write can stall shutdown.
        for shared in &self.poller_shared {
            shared.waker.wake();
        }
        for poller in self.pollers.drain(..) {
            let _ = poller.join();
        }
        // Reap connections handed to a poller's inbox after its final
        // sweep (accepted during the shutdown race): without this the live
        // gauge leaks and their sockets outlive the server.
        for shared in &self.poller_shared {
            shared.reap_stragglers(&self.live);
        }
        self.batcher.shutdown();
        for exec in self.executors.drain(..) {
            let _ = exec.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
