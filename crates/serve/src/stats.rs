//! Lock-free serving counters and their plain-old-data snapshot.
//!
//! The server mutates [`ServeCounters`] (atomics, relaxed ordering) from
//! accept, connection and batcher threads; [`ServeCounters::snapshot`]
//! materializes a [`ServeStats`] value that is `Copy`, holds no locks, and
//! can be encoded onto a socket without stalling the hot path — the same
//! contract [`relserve_core::SessionStats`] follows.

use relserve_core::SessionStats;
use relserve_runtime::{AdmissionStats, Priority};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-class slice of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassServeStats {
    /// Inference requests received in this class.
    pub requests: u64,
    /// Requests answered with predictions.
    pub completed: u64,
    /// Requests shed (serve-layer backlog or admission overload).
    pub shed: u64,
    /// Requests rejected because their deadline expired while buffered.
    pub deadline_rejected: u64,
}

/// Semantic result-cache slice of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheServeStats {
    /// Requests answered from the cache without entering a batch
    /// (exact and near hits).
    pub hits: u64,
    /// Subset of [`hits`](Self::hits) served by a near (non-identical)
    /// neighbor under an approximate tolerance.
    pub near_hits: u64,
    /// Requests that probed the cache and fell through to the batcher.
    pub misses: u64,
    /// Near-hits rejected because the live Monte-Carlo error bound
    /// exceeded the class tolerance (each also counted as a miss).
    pub bound_rejections: u64,
    /// Entries admitted into the cache at demux time.
    pub insertions: u64,
    /// Entries evicted under capacity or governor budget pressure.
    pub evictions: u64,
    /// Gauge: bytes currently charged to the memory governor.
    pub bytes: u64,
    /// Shadow validations executed (cached answers re-checked against
    /// exact inference).
    pub validations: u64,
    /// Shadow validations where the cached answer disagreed.
    pub disagreements: u64,
    /// Gauge: live Monte-Carlo upper bound on the near-hit error rate, in
    /// parts per million (1_000_000 until enough validations accrue).
    pub error_bound_ppm: u64,
}

impl CacheServeStats {
    /// Cache hit rate in `[0, 1]`; 0 when the cache saw no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reactor / backpressure slice of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorServeStats {
    /// Gauge: poller threads multiplexing connections.
    pub pollers: u64,
    /// Connections rejected at accept time because every slot was taken
    /// (each answered with a typed `Overloaded` frame before close).
    pub accept_shed: u64,
    /// Times a connection's reads were paused because its parked response
    /// bytes crossed the high-water mark.
    pub read_pauses: u64,
    /// Response frames that could not be written immediately and parked in
    /// a connection's write queue.
    pub response_parks: u64,
    /// Gauge: bytes currently parked across all connection write queues.
    pub parked_bytes: u64,
    /// Connections severed because parked responses would have exceeded
    /// the per-connection write-buffer cap.
    pub overflow_severed: u64,
    /// Responses dropped because their connection was already severed.
    pub dropped_responses: u64,
    /// Gauge: pollers whose watchdog heartbeat is currently stale.
    pub stalled_pollers: u64,
    /// Times the watchdog observed a poller go from fresh to stale.
    pub watchdog_stalls: u64,
}

/// Graceful-drain slice of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainServeStats {
    /// Gauge: 0 = running, 1 = draining (set once, never cleared).
    pub state: u64,
    /// Buffered-but-unadmitted requests shed with a typed `Draining`
    /// error when the drain began.
    pub shed_requests: u64,
    /// Connections rejected at accept time while draining.
    pub shed_accepts: u64,
    /// Gauge: how long the completed drain took, in microseconds.
    pub duration_micros: u64,
    /// 1 when the drain deadline expired before in-flight work finished.
    pub deadline_exceeded: u64,
}

/// Wire-chaos slice of [`ServeStats`] — counts deterministic socket
/// faults the injector actually fired, so a soak can assert the chaos
/// paths ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultServeStats {
    /// Reads torn into tiny fragments.
    pub torn_reads: u64,
    /// Read-readiness events skipped (stalled peer).
    pub stalled_reads: u64,
    /// Connections reset mid-write.
    pub write_resets: u64,
    /// Accept bursts deferred one reactor round.
    pub delayed_accepts: u64,
}

/// Snapshot of the serving frontend's counters; see
/// [`ServeCounters::snapshot`]. Plain old data: `Copy`, stable field set,
/// safe to ship across threads and encode over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Inference requests received (all classes).
    pub requests: u64,
    /// Fused batches executed.
    pub batches: u64,
    /// Total feature rows executed across fused batches.
    pub fused_rows: u64,
    /// Largest fused batch (rows) executed so far.
    pub max_batch_rows_seen: u64,
    /// Responses written to sockets (success and error).
    pub responses: u64,
    /// Requests rejected with `DeadlineExceeded` while still buffered,
    /// before their batch was admitted.
    pub deadline_rejected: u64,
    /// Requests shed with `Overloaded` (backlog or admission).
    pub shed: u64,
    /// Frames or payloads that failed to decode/write.
    pub wire_errors: u64,
    /// The request counters broken down by class, indexed by
    /// [`Priority::rank`].
    pub per_class: [ClassServeStats; 3],
    /// Semantic result-cache health.
    pub cache: CacheServeStats,
    /// Reactor event-loop and backpressure health.
    pub reactor: ReactorServeStats,
    /// Graceful-drain progress.
    pub drain: DrainServeStats,
    /// Injected socket faults (all zero outside chaos runs).
    pub faults: FaultServeStats,
}

impl ServeStats {
    /// The breakdown for one admission class.
    pub fn class(&self, class: Priority) -> ClassServeStats {
        self.per_class[class.rank()]
    }

    /// The counters as stable `(name, value)` pairs for wire export.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("serve.connections".to_string(), self.connections),
            ("serve.requests".to_string(), self.requests),
            ("serve.batches".to_string(), self.batches),
            ("serve.fused_rows".to_string(), self.fused_rows),
            (
                "serve.max_batch_rows_seen".to_string(),
                self.max_batch_rows_seen,
            ),
            ("serve.responses".to_string(), self.responses),
            (
                "serve.deadline_rejected".to_string(),
                self.deadline_rejected,
            ),
            ("serve.shed".to_string(), self.shed),
            ("serve.wire_errors".to_string(), self.wire_errors),
        ];
        out.push(("serve.cache.hits".to_string(), self.cache.hits));
        out.push(("serve.cache.near_hits".to_string(), self.cache.near_hits));
        out.push(("serve.cache.misses".to_string(), self.cache.misses));
        out.push((
            "serve.cache.bound_rejections".to_string(),
            self.cache.bound_rejections,
        ));
        out.push(("serve.cache.insertions".to_string(), self.cache.insertions));
        out.push(("serve.cache.evictions".to_string(), self.cache.evictions));
        out.push(("serve.cache.bytes".to_string(), self.cache.bytes));
        out.push((
            "serve.cache.validations".to_string(),
            self.cache.validations,
        ));
        out.push((
            "serve.cache.disagreements".to_string(),
            self.cache.disagreements,
        ));
        out.push((
            "serve.cache.error_bound_ppm".to_string(),
            self.cache.error_bound_ppm,
        ));
        out.push(("serve.reactor.pollers".to_string(), self.reactor.pollers));
        out.push((
            "serve.reactor.accept_shed".to_string(),
            self.reactor.accept_shed,
        ));
        out.push((
            "serve.reactor.read_pauses".to_string(),
            self.reactor.read_pauses,
        ));
        out.push((
            "serve.reactor.response_parks".to_string(),
            self.reactor.response_parks,
        ));
        out.push((
            "serve.reactor.parked_bytes".to_string(),
            self.reactor.parked_bytes,
        ));
        out.push((
            "serve.reactor.overflow_severed".to_string(),
            self.reactor.overflow_severed,
        ));
        out.push((
            "serve.reactor.dropped_responses".to_string(),
            self.reactor.dropped_responses,
        ));
        out.push((
            "serve.reactor.stalled_pollers".to_string(),
            self.reactor.stalled_pollers,
        ));
        out.push((
            "serve.reactor.watchdog_stalls".to_string(),
            self.reactor.watchdog_stalls,
        ));
        out.push(("serve.drain.state".to_string(), self.drain.state));
        out.push((
            "serve.drain.shed_requests".to_string(),
            self.drain.shed_requests,
        ));
        out.push((
            "serve.drain.shed_accepts".to_string(),
            self.drain.shed_accepts,
        ));
        out.push((
            "serve.drain.duration_micros".to_string(),
            self.drain.duration_micros,
        ));
        out.push((
            "serve.drain.deadline_exceeded".to_string(),
            self.drain.deadline_exceeded,
        ));
        out.push((
            "serve.faults.torn_reads".to_string(),
            self.faults.torn_reads,
        ));
        out.push((
            "serve.faults.stalled_reads".to_string(),
            self.faults.stalled_reads,
        ));
        out.push((
            "serve.faults.write_resets".to_string(),
            self.faults.write_resets,
        ));
        out.push((
            "serve.faults.delayed_accepts".to_string(),
            self.faults.delayed_accepts,
        ));
        for class in Priority::ALL {
            let c = self.class(class);
            out.push((format!("serve.{class}.requests"), c.requests));
            out.push((format!("serve.{class}.completed"), c.completed));
            out.push((format!("serve.{class}.shed"), c.shed));
            out.push((
                format!("serve.{class}.deadline_rejected"),
                c.deadline_rejected,
            ));
        }
        out
    }
}

/// Per-model SLA-ladder activity, snapshotted from
/// [`ServeCounters::ladder_stats`]. One entry per model name that has a
/// registered [`relserve_core::PressureLadder`] and has executed at least
/// one fused batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderModelStats {
    /// Fused batches served by a cheaper rung because the class backlog
    /// exceeded the model's SLA step depth.
    pub step_downs: u64,
    /// Transitions back to rung 0 after one or more stepped-down batches —
    /// the ladder recovering once backlog drains.
    pub restores: u64,
    /// Gauge: the rung index the most recent fused batch served on
    /// (0 = the original, most accurate model).
    pub current_rung: u64,
}

#[derive(Default)]
pub(crate) struct ClassCounters {
    pub requests: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub deadline_rejected: AtomicU64,
}

#[derive(Default)]
pub(crate) struct CacheCounters {
    pub hits: AtomicU64,
    pub near_hits: AtomicU64,
    pub misses: AtomicU64,
    pub bound_rejections: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    /// Gauge, not a counter: set to the cache's governor-charged bytes.
    pub bytes: AtomicU64,
    pub validations: AtomicU64,
    pub disagreements: AtomicU64,
    /// Gauge: live error upper bound in ppm; starts at 1_000_000 (no
    /// confidence until enough shadow validations accrue).
    pub error_bound_ppm: AtomicU64,
}

#[derive(Default)]
pub(crate) struct ReactorCounters {
    /// Gauge: poller threads; set once at spawn.
    pub pollers: AtomicU64,
    pub accept_shed: AtomicU64,
    pub read_pauses: AtomicU64,
    pub response_parks: AtomicU64,
    /// Gauge, not a counter: bytes currently parked in write queues.
    pub parked_bytes: AtomicU64,
    pub overflow_severed: AtomicU64,
    pub dropped_responses: AtomicU64,
    /// Gauge: pollers currently past the watchdog staleness threshold.
    pub stalled_pollers: AtomicU64,
    pub watchdog_stalls: AtomicU64,
}

#[derive(Default)]
pub(crate) struct DrainCounters {
    /// Gauge: 0 running, 1 draining.
    pub state: AtomicU64,
    pub shed_requests: AtomicU64,
    pub shed_accepts: AtomicU64,
    /// Gauge: microseconds the completed drain took.
    pub duration_micros: AtomicU64,
    /// Gauge: 1 when the drain outlived its deadline.
    pub deadline_exceeded: AtomicU64,
}

#[derive(Default)]
pub(crate) struct FaultCounters {
    pub torn_reads: AtomicU64,
    pub stalled_reads: AtomicU64,
    pub write_resets: AtomicU64,
    pub delayed_accepts: AtomicU64,
}

/// Live atomic counters mutated by the server's threads.
pub(crate) struct ServeCounters {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub batches: AtomicU64,
    pub fused_rows: AtomicU64,
    pub max_batch_rows_seen: AtomicU64,
    pub responses: AtomicU64,
    pub deadline_rejected: AtomicU64,
    pub shed: AtomicU64,
    pub wire_errors: AtomicU64,
    /// Per-model SLA-ladder activity, keyed by the *requested* model name.
    /// A mutex (not atomics): the map is touched once per fused batch —
    /// far off the per-request hot path — and step-down/restore accounting
    /// needs a consistent read-modify-write of all three fields.
    pub ladder: Mutex<BTreeMap<String, LadderModelStats>>,
    pub per_class: [ClassCounters; 3],
    pub cache: CacheCounters,
    pub reactor: ReactorCounters,
    pub drain: DrainCounters,
    pub faults: FaultCounters,
}

impl Default for ServeCounters {
    fn default() -> Self {
        let counters = ServeCounters {
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            fused_rows: AtomicU64::new(0),
            max_batch_rows_seen: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            ladder: Mutex::new(BTreeMap::new()),
            per_class: Default::default(),
            cache: CacheCounters::default(),
            reactor: ReactorCounters::default(),
            drain: DrainCounters::default(),
            faults: FaultCounters::default(),
        };
        // Until shadow validation has samples, the only honest bound is
        // "could be always wrong".
        counters
            .cache
            .error_bound_ppm
            .store(1_000_000, Ordering::Relaxed);
        counters
    }
}

impl ServeCounters {
    /// Record one executed fused batch of `rows` rows.
    pub fn record_batch(&self, rows: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.fused_rows.fetch_add(rows, Ordering::Relaxed);
        self.max_batch_rows_seen.fetch_max(rows, Ordering::Relaxed);
    }

    /// Record the ladder rung one fused batch for `model` served on.
    /// `rung > 0` counts a step-down; a return to rung 0 from deeper
    /// counts a restore.
    pub fn record_ladder_rung(&self, model: &str, rung: usize) {
        let mut map = self.ladder.lock().expect("ladder counters poisoned");
        let entry = map.entry(model.to_string()).or_default();
        if rung > 0 {
            entry.step_downs += 1;
        } else if entry.current_rung > 0 {
            entry.restores += 1;
        }
        entry.current_rung = rung as u64;
    }

    /// Per-model ladder snapshot, sorted by model name.
    pub fn ladder_stats(&self) -> Vec<(String, LadderModelStats)> {
        self.ladder
            .lock()
            .expect("ladder counters poisoned")
            .iter()
            .map(|(name, stats)| (name.clone(), *stats))
            .collect()
    }

    /// The per-model ladder counters as stable `(name, value)` pairs for
    /// wire export: `serve.ladder.<model>.{step_downs,restores,rung}`.
    pub fn ladder_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (model, stats) in self.ladder_stats() {
            out.push((format!("serve.ladder.{model}.step_downs"), stats.step_downs));
            out.push((format!("serve.ladder.{model}.restores"), stats.restores));
            out.push((format!("serve.ladder.{model}.rung"), stats.current_rung));
        }
        out
    }

    /// Materialize the plain-old-data snapshot.
    pub fn snapshot(&self) -> ServeStats {
        let class = |c: &ClassCounters| ClassServeStats {
            requests: c.requests.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            deadline_rejected: c.deadline_rejected.load(Ordering::Relaxed),
        };
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fused_rows: self.fused_rows.load(Ordering::Relaxed),
            max_batch_rows_seen: self.max_batch_rows_seen.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            per_class: [
                class(&self.per_class[0]),
                class(&self.per_class[1]),
                class(&self.per_class[2]),
            ],
            cache: CacheServeStats {
                hits: self.cache.hits.load(Ordering::Relaxed),
                near_hits: self.cache.near_hits.load(Ordering::Relaxed),
                misses: self.cache.misses.load(Ordering::Relaxed),
                bound_rejections: self.cache.bound_rejections.load(Ordering::Relaxed),
                insertions: self.cache.insertions.load(Ordering::Relaxed),
                evictions: self.cache.evictions.load(Ordering::Relaxed),
                bytes: self.cache.bytes.load(Ordering::Relaxed),
                validations: self.cache.validations.load(Ordering::Relaxed),
                disagreements: self.cache.disagreements.load(Ordering::Relaxed),
                error_bound_ppm: self.cache.error_bound_ppm.load(Ordering::Relaxed),
            },
            reactor: ReactorServeStats {
                pollers: self.reactor.pollers.load(Ordering::Relaxed),
                accept_shed: self.reactor.accept_shed.load(Ordering::Relaxed),
                read_pauses: self.reactor.read_pauses.load(Ordering::Relaxed),
                response_parks: self.reactor.response_parks.load(Ordering::Relaxed),
                parked_bytes: self.reactor.parked_bytes.load(Ordering::Relaxed),
                overflow_severed: self.reactor.overflow_severed.load(Ordering::Relaxed),
                dropped_responses: self.reactor.dropped_responses.load(Ordering::Relaxed),
                stalled_pollers: self.reactor.stalled_pollers.load(Ordering::Relaxed),
                watchdog_stalls: self.reactor.watchdog_stalls.load(Ordering::Relaxed),
            },
            drain: DrainServeStats {
                state: self.drain.state.load(Ordering::Relaxed),
                shed_requests: self.drain.shed_requests.load(Ordering::Relaxed),
                shed_accepts: self.drain.shed_accepts.load(Ordering::Relaxed),
                duration_micros: self.drain.duration_micros.load(Ordering::Relaxed),
                deadline_exceeded: self.drain.deadline_exceeded.load(Ordering::Relaxed),
            },
            faults: FaultServeStats {
                torn_reads: self.faults.torn_reads.load(Ordering::Relaxed),
                stalled_reads: self.faults.stalled_reads.load(Ordering::Relaxed),
                write_resets: self.faults.write_resets.load(Ordering::Relaxed),
                delayed_accepts: self.faults.delayed_accepts.load(Ordering::Relaxed),
            },
        }
    }
}

/// The full counter export answered to a `Stats` request: serve counters,
/// the session's robustness counters, and the coordinator's per-class
/// admission ledger — all taken from lock-free or briefly-locked snapshots
/// *before* any byte hits the socket.
pub fn export_counters(
    serve: &ServeStats,
    session: &SessionStats,
    admission: &AdmissionStats,
) -> Vec<(String, u64)> {
    let mut out = serve.counters();
    for (name, value) in session.counters() {
        out.push((format!("session.{name}"), value));
    }
    for class in Priority::ALL {
        let c = admission.class(class);
        out.push((format!("admission.{class}.admitted"), c.admitted));
        out.push((format!("admission.{class}.shed"), c.shed));
        out.push((
            format!("admission.{class}.deadline_expired"),
            c.deadline_expired,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_pod_and_counters_are_stable() {
        let counters = ServeCounters::default();
        counters.requests.fetch_add(3, Ordering::Relaxed);
        counters.record_batch(8);
        counters.record_batch(2);
        counters.per_class[Priority::Batch.rank()]
            .shed
            .fetch_add(1, Ordering::Relaxed);
        let snap = counters.snapshot();
        let copy = snap; // Copy: snapshot is plain old data.
        assert_eq!(copy, snap);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.fused_rows, 10);
        assert_eq!(snap.max_batch_rows_seen, 8);
        assert_eq!(snap.class(Priority::Batch).shed, 1);
        let pairs = snap.counters();
        assert!(pairs.iter().any(|(n, v)| n == "serve.requests" && *v == 3));
        assert!(pairs
            .iter()
            .any(|(n, v)| n == "serve.batch.shed" && *v == 1));
    }

    #[test]
    fn cache_counters_are_exported_and_bound_starts_pessimistic() {
        let counters = ServeCounters::default();
        let snap = counters.snapshot();
        assert_eq!(
            snap.cache.error_bound_ppm, 1_000_000,
            "no validations yet: the bound must be maximally pessimistic"
        );
        counters.cache.hits.fetch_add(3, Ordering::Relaxed);
        counters.cache.near_hits.fetch_add(1, Ordering::Relaxed);
        counters.cache.misses.fetch_add(1, Ordering::Relaxed);
        counters
            .cache
            .bound_rejections
            .fetch_add(1, Ordering::Relaxed);
        let snap = counters.snapshot();
        assert!((snap.cache.hit_rate() - 0.75).abs() < 1e-9);
        let pairs = snap.counters();
        for (name, want) in [
            ("serve.cache.hits", 3),
            ("serve.cache.near_hits", 1),
            ("serve.cache.misses", 1),
            ("serve.cache.bound_rejections", 1),
            ("serve.cache.error_bound_ppm", 1_000_000),
        ] {
            assert!(
                pairs.iter().any(|(n, v)| n == name && *v == want),
                "missing {name}={want}"
            );
        }
    }

    #[test]
    fn drain_and_fault_counters_are_exported() {
        let counters = ServeCounters::default();
        counters.drain.state.store(1, Ordering::Relaxed);
        counters.drain.shed_requests.fetch_add(4, Ordering::Relaxed);
        counters.faults.torn_reads.fetch_add(2, Ordering::Relaxed);
        counters
            .reactor
            .watchdog_stalls
            .fetch_add(1, Ordering::Relaxed);
        let pairs = counters.snapshot().counters();
        for (name, want) in [
            ("serve.drain.state", 1),
            ("serve.drain.shed_requests", 4),
            ("serve.drain.shed_accepts", 0),
            ("serve.drain.duration_micros", 0),
            ("serve.drain.deadline_exceeded", 0),
            ("serve.faults.torn_reads", 2),
            ("serve.faults.stalled_reads", 0),
            ("serve.faults.write_resets", 0),
            ("serve.faults.delayed_accepts", 0),
            ("serve.reactor.stalled_pollers", 0),
            ("serve.reactor.watchdog_stalls", 1),
        ] {
            assert!(
                pairs.iter().any(|(n, v)| n == name && *v == want),
                "missing {name}={want}"
            );
        }
    }

    #[test]
    fn ladder_counters_track_per_model_step_downs_and_restores() {
        let counters = ServeCounters::default();
        assert!(counters.ladder_counters().is_empty());
        // Model "a": down, down, back up. Model "b": always rung 0.
        counters.record_ladder_rung("a", 1);
        counters.record_ladder_rung("a", 2);
        counters.record_ladder_rung("a", 0);
        counters.record_ladder_rung("b", 0);
        let stats = counters.ladder_stats();
        assert_eq!(stats.len(), 2);
        let a = stats.iter().find(|(n, _)| n == "a").unwrap().1;
        assert_eq!(a.step_downs, 2);
        assert_eq!(a.restores, 1);
        assert_eq!(a.current_rung, 0);
        let b = stats.iter().find(|(n, _)| n == "b").unwrap().1;
        assert_eq!(b, LadderModelStats::default());
        let pairs = counters.ladder_counters();
        for (name, want) in [
            ("serve.ladder.a.step_downs", 2),
            ("serve.ladder.a.restores", 1),
            ("serve.ladder.a.rung", 0),
            ("serve.ladder.b.step_downs", 0),
        ] {
            assert!(
                pairs.iter().any(|(n, v)| n == name && *v == want),
                "missing {name}={want}"
            );
        }
        // The single global counter is gone from the snapshot export.
        assert!(!counters
            .snapshot()
            .counters()
            .iter()
            .any(|(n, _)| n == "serve.step_downs"));
    }

    #[test]
    fn export_combines_all_three_domains() {
        let serve = ServeCounters::default().snapshot();
        let session = SessionStats::default();
        let admission = AdmissionStats::default();
        let pairs = export_counters(&serve, &session, &admission);
        assert!(pairs.iter().any(|(n, _)| n == "serve.requests"));
        assert!(pairs.iter().any(|(n, _)| n == "session.admitted"));
        // Resident bytes per owner ride beside the session's counters.
        for owner in [
            "session.prepared_weight_bytes",
            "session.weight_relation_resident_bytes",
            "session.artifact_bytes",
        ] {
            assert!(pairs.iter().any(|(n, _)| n == owner), "missing {owner}");
        }
        assert!(pairs
            .iter()
            .any(|(n, _)| n == "admission.interactive.admitted"));
    }
}
