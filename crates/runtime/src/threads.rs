//! Coordinated thread budgeting between DB workers and kernel threads (§3.1).
//!
//! The paper observes that when RDBMS worker threads execute pipeline stages
//! containing linear-algebra operators, and each operator independently spins
//! up its own OpenMP-style thread pool, the machine is oversubscribed and
//! context-switch overhead dominates. The fix is a single coordinator that
//! hands each side an explicit share of the cores.
//!
//! Beyond per-query planning, [`ThreadCoordinator`] is the **admission
//! point** for concurrent queries: each query requests its plan's worst-case
//! thread count and is granted `min(requested, remaining)` kernel threads
//! (blocking only when nothing at all remains), recorded in a
//! [`BudgetGrant`] that releases its share when dropped. Cloned coordinators
//! share the same admission ledger and the same lazily-created
//! [`KernelPool`], so sessions that should compete for one machine's cores
//! are built from clones of one coordinator.

use crate::error::{Error, Result};
use crate::pool::KernelPool;
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// An agreed split of physical cores between the two runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Threads driving relational pipeline stages (scans, joins, aggregates).
    pub db_workers: usize,
    /// Threads each linear-algebra kernel invocation may use.
    pub kernel_threads: usize,
}

impl ThreadPlan {
    /// Total threads the plan would run concurrently in the worst case
    /// (every DB worker inside a kernel at once). A dedicated plan
    /// (`db_workers == 0`) still runs its kernels on one submitting thread,
    /// so the worst case is never reported as zero.
    pub fn worst_case_threads(&self) -> usize {
        self.db_workers.max(1) * self.kernel_threads.max(1)
    }
}

/// Admission class of a query: which band of the ticket queue it waits in.
///
/// The queue orders tickets by `(class, arrival)`, so every waiting
/// `Interactive` query is admitted before any waiting `Standard` one, and
/// `Batch` analytics only run when nothing more urgent is queued. Within one
/// class the order stays strict FIFO — a single-class workload behaves
/// exactly like the pre-band queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-critical point lookups: first band, shortest patience —
    /// if even the front of the queue cannot get a core quickly, the
    /// caller would rather fail fast and retry elsewhere.
    Interactive,
    /// Ordinary queries (the default; matches the pre-band behavior).
    #[default]
    Standard,
    /// Throughput-oriented analytics: last band. Patient in the queue, but
    /// the first class to shed when the machine stays saturated.
    Batch,
}

impl Priority {
    /// All classes, most urgent first (also their queue-band order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Band index: 0 = most urgent. Used as the major sort key of the
    /// ticket queue and as the index into per-class stats arrays.
    pub fn rank(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Inverse of [`Priority::rank`], for wire protocols.
    pub fn from_rank(rank: u8) -> Option<Priority> {
        match rank {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Standard),
            2 => Some(Priority::Batch),
            _ => None,
        }
    }

    /// The per-class default queue patience used by
    /// [`AdmissionPolicy::for_class`]: interactive queries fail fast,
    /// batch queries wait out long saturation before shedding.
    fn default_queue_timeout(self) -> Duration {
        match self {
            Priority::Interactive => Duration::from_secs(2),
            Priority::Standard => Duration::from_secs(30),
            Priority::Batch => Duration::from_secs(60),
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Standard => write!(f, "standard"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// How a query is willing to wait for admission. The default policy never
/// blocks indefinitely: a saturated machine sheds the query with
/// [`Error::Overloaded`] after `queue_timeout` instead of queueing it
/// forever — the ROADMAP's "shed or delay load instead of degrading every
/// query to its serial floor".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Longest the query will sit in the admission queue before being shed
    /// with [`Error::Overloaded`]. `None` waits indefinitely (explicit
    /// opt-in; no default path blocks forever).
    pub queue_timeout: Option<Duration>,
    /// Smallest grant worth admitting with. A query that would be admitted
    /// with fewer threads keeps waiting — useful for plans whose parallel
    /// layout degenerates below a floor.
    pub min_threads: usize,
    /// Absolute deadline for the whole query. Expiring in the queue yields
    /// [`Error::DeadlineExceeded`]; executors also check it cooperatively
    /// mid-flight, before each layer (not inside a layer's block join).
    pub deadline: Option<Instant>,
    /// The queue band this query waits in. Defaults to
    /// [`Priority::Standard`]; a single-class workload is strict FIFO.
    pub priority: Priority,
    /// Depth-based load shedding at the door: if more than this many
    /// tickets are queued *ahead of* the query when it arrives, it is shed
    /// immediately with [`Error::Overloaded`] instead of joining the queue.
    /// `None` (the default) never depth-sheds. Giving `Batch` policies a
    /// small depth makes batch analytics the first load shed under
    /// saturation while interactive queries keep queueing.
    pub shed_queue_depth: Option<usize>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_timeout: Some(Duration::from_secs(30)),
            min_threads: 1,
            deadline: None,
            priority: Priority::Standard,
            shed_queue_depth: None,
        }
    }
}

impl AdmissionPolicy {
    /// A policy that sheds after `timeout` (FIFO position permitting).
    pub fn with_queue_timeout(timeout: Duration) -> Self {
        AdmissionPolicy {
            queue_timeout: Some(timeout),
            ..Self::default()
        }
    }

    /// A policy whose query must finish by `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        AdmissionPolicy {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// The default policy of an admission `class`: the class's queue band
    /// plus its [`Priority::default_queue_timeout`] patience.
    pub fn for_class(class: Priority) -> Self {
        AdmissionPolicy {
            queue_timeout: Some(class.default_queue_timeout()),
            priority: class,
            ..Self::default()
        }
    }
}

/// Per-class slice of [`AdmissionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassAdmissionStats {
    /// Queries of this class admitted (granted a thread share).
    pub admitted: u64,
    /// Queries of this class shed with [`Error::Overloaded`] (queue timeout
    /// or depth-based door shedding).
    pub shed: u64,
    /// Queries of this class whose deadline expired while still queued.
    pub deadline_expired: u64,
}

/// Counters describing what the admission queue has done so far; see
/// [`ThreadCoordinator::admission_stats`]. The aggregate fields sum the
/// [`AdmissionStats::per_class`] breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted (granted a thread share).
    pub admitted: u64,
    /// Queries shed with [`Error::Overloaded`] after their queue timeout or
    /// by depth-based door shedding.
    pub shed: u64,
    /// Queries whose deadline expired while still queued.
    pub deadline_expired: u64,
    /// The same counters broken down by admission class, indexed by
    /// [`Priority::rank`].
    pub per_class: [ClassAdmissionStats; 3],
}

impl AdmissionStats {
    /// The breakdown for one admission class.
    pub fn class(&self, class: Priority) -> ClassAdmissionStats {
        self.per_class[class.rank()]
    }
}

/// A waiting query's position: priority band first, then arrival order.
/// `BTreeSet` keeps the minimum — the next ticket to admit — at the front.
type TicketKey = (usize, u64);

/// Ledger guarded by the admission mutex: outstanding granted threads plus
/// the banded ticket queue of waiting queries.
struct AdmissionState {
    /// Sum of granted threads across live [`BudgetGrant`]s.
    outstanding: usize,
    /// Tickets of queries waiting for admission, minimum = next to admit.
    /// Ordered by `(priority band, ticket)`: within a band strict FIFO, so
    /// a stream of small queries cannot starve an earlier arrival of the
    /// same class, while a more urgent class overtakes the whole band.
    queue: BTreeSet<TicketKey>,
    /// Next ticket number to hand out.
    next_ticket: u64,
    stats: AdmissionStats,
}

/// Shared admission ledger across every clone of one coordinator.
struct Admission {
    cores: usize,
    state: Mutex<AdmissionState>,
    released: Condvar,
}

impl Admission {
    /// Remove `key` from the wait queue (used when a waiter gives up).
    /// The queue's front may have changed, so wake the other waiters.
    fn abandon(&self, state: &mut AdmissionState, key: TicketKey) {
        state.queue.remove(&key);
        self.released.notify_all();
    }
}

/// One query's admitted share of the kernel-thread budget. Dropping the
/// grant returns the share to the coordinator and wakes queries waiting for
/// admission.
pub struct BudgetGrant {
    admission: Arc<Admission>,
    granted: usize,
}

impl BudgetGrant {
    /// Number of kernel threads this query was granted.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for BudgetGrant {
    fn drop(&mut self) {
        let mut state = self.admission.state.lock().expect("admission ledger lock");
        state.outstanding = state.outstanding.saturating_sub(self.granted);
        drop(state);
        self.admission.released.notify_all();
    }
}

impl std::fmt::Debug for BudgetGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetGrant")
            .field("granted", &self.granted)
            .finish()
    }
}

/// Allocates cores between DB workers and kernel threads, and admits
/// concurrent queries into bounded slices of the machine.
#[derive(Clone)]
pub struct ThreadCoordinator {
    cores: usize,
    admission: Arc<Admission>,
    /// The machine's one persistent kernel pool, created on first use and
    /// shared by every clone of this coordinator.
    pool: Arc<OnceLock<Arc<KernelPool>>>,
}

impl ThreadCoordinator {
    /// A coordinator for a machine with `cores` physical cores.
    pub fn new(cores: usize) -> Self {
        let cores = cores.max(1);
        ThreadCoordinator {
            cores,
            admission: Arc::new(Admission {
                cores,
                state: Mutex::new(AdmissionState {
                    outstanding: 0,
                    queue: BTreeSet::new(),
                    next_ticket: 0,
                    stats: AdmissionStats::default(),
                }),
                released: Condvar::new(),
            }),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// A coordinator sized from the current machine.
    fn from_host() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(cores)
    }

    /// Number of cores being managed.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Plan for a query whose relational side runs `db_parallelism`
    /// concurrent pipeline workers: each kernel gets the leftover share so
    /// the worst case never exceeds the core count.
    pub fn plan_for(&self, db_parallelism: usize) -> ThreadPlan {
        let db_workers = db_parallelism.clamp(1, self.cores);
        let kernel_threads = (self.cores / db_workers).max(1);
        // Belt and braces: however db_workers and kernel_threads were
        // derived, the advertised worst case must fit the machine.
        let plan = ThreadPlan {
            db_workers,
            kernel_threads,
        };
        debug_assert!(plan.worst_case_threads() <= self.cores);
        plan
    }

    /// Plan for a dedicated (external) DL runtime: no DB workers compete, so
    /// kernels get every core. This is the thread-level advantage a decoupled
    /// TensorFlow/PyTorch process enjoys in the DL-centric architecture.
    pub fn plan_dedicated(&self) -> ThreadPlan {
        ThreadPlan {
            db_workers: 0,
            kernel_threads: self.cores,
        }
    }

    /// The machine's persistent kernel pool: one submitter slot plus
    /// `cores - 1` workers, created on first use and shared by every clone
    /// of this coordinator, so a kernel batch can use every core without
    /// oversubscribing (§3.1).
    pub fn kernel_pool(&self) -> Arc<KernelPool> {
        Arc::clone(
            self.pool
                .get_or_init(|| Arc::new(KernelPool::for_cores(self.cores))),
        )
    }

    /// Admit a query requesting `requested` kernel threads under the
    /// default [`AdmissionPolicy`]: grants `min(requested, remaining)` once
    /// the query reaches the front of the FIFO admission queue and at least
    /// one thread is free, shedding with [`Error::Overloaded`] if the
    /// machine stays saturated for the default queue timeout. The sum of
    /// outstanding grants never exceeds the cores and every admitted query
    /// holds at least one thread. The contract is one live grant per query
    /// thread: a thread must drop its current grant before requesting
    /// another, or it may wait on other queries to release theirs.
    pub fn admit(&self, requested: usize) -> Result<BudgetGrant> {
        self.admit_with(requested, &AdmissionPolicy::default())
    }

    /// Admit a query requesting `requested` kernel threads under `policy`.
    ///
    /// Queries wait in `(priority, arrival)` order: only the query at the
    /// front of the banded queue may take threads — within one class strict
    /// FIFO (a stream of one-thread queries cannot starve an earlier
    /// arrival of the same class), across classes every waiting
    /// [`Priority::Interactive`] query overtakes `Standard` and `Batch`
    /// ones. The front query is admitted as soon as at least
    /// `policy.min_threads` are free, receiving `min(requested, free)` of
    /// them. Instead of blocking indefinitely the wait is bounded three
    /// ways:
    ///
    /// * `policy.shed_queue_depth` exceeded on arrival → the query is shed
    ///   at the door with [`Error::Overloaded`] without queueing at all
    ///   (per-class load shedding: batch sheds first under saturation).
    /// * `policy.queue_timeout` elapses → the query is **shed** with
    ///   [`Error::Overloaded`] carrying the measured wait.
    /// * `policy.deadline` passes → [`Error::DeadlineExceeded`] (phase
    ///   `"admission-queue"`); a query that cannot finish in time should
    ///   not take threads at all.
    ///
    /// Either way the ticket is removed from the queue and other waiters
    /// are woken, so an abandoned waiter never blocks the queue.
    pub fn admit_with(&self, requested: usize, policy: &AdmissionPolicy) -> Result<BudgetGrant> {
        let requested = requested.max(1);
        let min_threads = policy.min_threads.clamp(1, self.admission.cores);
        let rank = policy.priority.rank();
        let start = Instant::now();
        let mut state = self.admission.state.lock().expect("admission ledger lock");
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let key: TicketKey = (rank, ticket);
        state.queue.insert(key);
        // Door check: per-class depth shedding. Counting only tickets
        // *ahead* of this one makes the threshold class-relative — a wall
        // of queued batch work never sheds an interactive arrival.
        if let Some(depth) = policy.shed_queue_depth {
            let ahead = state.queue.range(..key).count();
            if ahead > depth {
                state.stats.shed += 1;
                state.stats.per_class[rank].shed += 1;
                self.admission.abandon(&mut state, key);
                return Err(Error::Overloaded {
                    waited: start.elapsed(),
                    queue_timeout: policy.queue_timeout.unwrap_or(Duration::ZERO),
                });
            }
        }
        loop {
            if policy.deadline.is_some_and(|d| Instant::now() >= d) {
                state.stats.deadline_expired += 1;
                state.stats.per_class[rank].deadline_expired += 1;
                self.admission.abandon(&mut state, key);
                return Err(Error::DeadlineExceeded {
                    phase: "admission-queue".into(),
                });
            }
            let free = self.admission.cores - state.outstanding;
            if state.queue.iter().next() == Some(&key) && free >= min_threads {
                state.queue.remove(&key);
                let granted = requested.min(free);
                state.outstanding += granted;
                state.stats.admitted += 1;
                state.stats.per_class[rank].admitted += 1;
                drop(state);
                // The next ticket may now be at the front with threads to
                // spare; let it re-evaluate.
                self.admission.released.notify_all();
                return Ok(BudgetGrant {
                    admission: Arc::clone(&self.admission),
                    granted,
                });
            }
            // Bound the wait by whichever expires first: queue timeout or
            // deadline. With neither set, the caller explicitly opted into
            // an unbounded wait.
            let waited = start.elapsed();
            let until_timeout = match policy.queue_timeout {
                Some(timeout) => match timeout.checked_sub(waited) {
                    Some(left) => Some(left),
                    None => {
                        state.stats.shed += 1;
                        state.stats.per_class[rank].shed += 1;
                        self.admission.abandon(&mut state, key);
                        return Err(Error::Overloaded {
                            waited,
                            queue_timeout: timeout,
                        });
                    }
                },
                None => None,
            };
            let until_deadline = policy
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            let bound = match (until_timeout, until_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            state = match bound {
                Some(dur) => {
                    self.admission
                        .released
                        .wait_timeout(state, dur)
                        .expect("admission wait")
                        .0
                }
                None => self.admission.released.wait(state).expect("admission wait"),
            };
        }
    }

    /// Sum of kernel threads currently granted across outstanding queries;
    /// never exceeds [`ThreadCoordinator::cores`].
    pub fn granted_threads(&self) -> usize {
        self.admission
            .state
            .lock()
            .expect("admission ledger lock")
            .outstanding
    }

    /// Number of queries currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.admission
            .state
            .lock()
            .expect("admission ledger lock")
            .queue
            .len()
    }

    /// Admission counters (admitted / shed / deadline-expired) across every
    /// clone of this coordinator.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission
            .state
            .lock()
            .expect("admission ledger lock")
            .stats
    }

    /// Relative context-switch penalty of running `plan` on this machine:
    /// 1.0 when the plan fits the cores, growing linearly with
    /// oversubscription. Used by the hyper-parameter tuning ablation.
    pub fn oversubscription_penalty(&self, plan: ThreadPlan) -> f64 {
        let worst = plan.worst_case_threads().max(1) as f64;
        (worst / self.cores as f64).max(1.0)
    }
}

impl Default for ThreadCoordinator {
    fn default() -> Self {
        Self::from_host()
    }
}

impl std::fmt::Debug for ThreadCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCoordinator")
            .field("cores", &self.cores)
            .field("granted", &self.granted_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_divides_cores() {
        let c = ThreadCoordinator::new(8);
        let p = c.plan_for(4);
        assert_eq!(p.db_workers, 4);
        assert_eq!(p.kernel_threads, 2);
        assert_eq!(p.worst_case_threads(), 8);
    }

    #[test]
    fn plan_never_starves_kernels() {
        let c = ThreadCoordinator::new(4);
        let p = c.plan_for(16);
        assert_eq!(p.db_workers, 4);
        assert_eq!(p.kernel_threads, 1);
    }

    #[test]
    fn dedicated_uses_all_cores() {
        let c = ThreadCoordinator::new(8);
        let p = c.plan_dedicated();
        assert_eq!(p.kernel_threads, 8);
        assert_eq!(p.db_workers, 0);
        assert_eq!(p.worst_case_threads(), 8, "submitter counts");
    }

    #[test]
    fn zero_core_machines_are_clamped() {
        let c = ThreadCoordinator::new(0);
        assert_eq!(c.cores(), 1);
        assert_eq!(c.plan_for(0).db_workers, 1);
    }

    #[test]
    fn penalty_grows_with_oversubscription() {
        let c = ThreadCoordinator::new(4);
        let fits = ThreadPlan {
            db_workers: 2,
            kernel_threads: 2,
        };
        let over = ThreadPlan {
            db_workers: 4,
            kernel_threads: 4,
        };
        assert_eq!(c.oversubscription_penalty(fits), 1.0);
        assert_eq!(c.oversubscription_penalty(over), 4.0);
    }

    /// Regression (ISSUE 2): sweeping db_parallelism far past the core
    /// count, no plan may advertise a worst case above the machine, and the
    /// oversubscription penalty of every planned query is exactly 1.0.
    #[test]
    fn planned_queries_never_oversubscribe() {
        for cores in [1, 2, 3, 4, 7, 8, 64] {
            let c = ThreadCoordinator::new(cores);
            for db in 0..=4 * cores + 1 {
                let p = c.plan_for(db);
                assert!(
                    p.worst_case_threads() <= cores,
                    "cores={cores} db={db}: {p:?}"
                );
                assert_eq!(
                    c.oversubscription_penalty(p),
                    1.0,
                    "cores={cores} db={db}: {p:?}"
                );
            }
            assert!(c.plan_dedicated().worst_case_threads() <= cores);
        }
    }

    #[test]
    fn admission_grants_min_of_requested_and_remaining() {
        let c = ThreadCoordinator::new(4);
        let a = c.admit(3).unwrap();
        assert_eq!(a.granted(), 3);
        assert_eq!(c.granted_threads(), 3);
        let b = c.admit(3).unwrap();
        assert_eq!(b.granted(), 1, "only one core remained");
        assert_eq!(c.granted_threads(), 4);
        drop(a);
        assert_eq!(c.granted_threads(), 1);
        let again = c.admit(99).unwrap();
        assert_eq!(again.granted(), 3);
        drop(again);
        drop(b);
        assert_eq!(c.granted_threads(), 0);
        assert_eq!(c.admission_stats().admitted, 3);
    }

    #[test]
    fn admission_blocks_until_release() {
        let c = ThreadCoordinator::new(2);
        let held = c.admit(2).unwrap();
        assert_eq!(c.granted_threads(), 2);
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || c2.admit(1).unwrap().granted());
        // Give the waiter time to block, then release.
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn clones_share_ledger_and_pool() {
        let c = ThreadCoordinator::new(4);
        let d = c.clone();
        let g = c.admit(2).unwrap();
        assert_eq!(d.granted_threads(), 2);
        assert!(Arc::ptr_eq(&c.kernel_pool(), &d.kernel_pool()));
        drop(g);
    }

    #[test]
    fn saturated_coordinator_sheds_within_queue_timeout() {
        let c = ThreadCoordinator::new(1);
        let _held = c.admit(1).unwrap();
        let timeout = Duration::from_millis(40);
        let start = Instant::now();
        let err = c
            .admit_with(1, &AdmissionPolicy::with_queue_timeout(timeout))
            .unwrap_err();
        let elapsed = start.elapsed();
        match err {
            Error::Overloaded {
                waited,
                queue_timeout,
            } => {
                assert!(waited >= timeout, "shed before the timeout: {waited:?}");
                assert_eq!(queue_timeout, timeout);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Bounded: the old indefinite block is gone. Generous upper bound
        // for loaded CI machines.
        assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
        assert_eq!(c.admission_stats().shed, 1);
        assert_eq!(c.queued(), 0, "shed ticket left the queue");
    }

    #[test]
    fn deadline_expires_in_admission_queue() {
        let c = ThreadCoordinator::new(1);
        let _held = c.admit(1).unwrap();
        let policy = AdmissionPolicy::with_deadline(Instant::now() + Duration::from_millis(30));
        let err = c.admit_with(1, &policy).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { ref phase } if phase == "admission-queue"));
        assert_eq!(c.admission_stats().deadline_expired, 1);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn min_threads_keeps_query_queued_until_enough_are_free() {
        let c = ThreadCoordinator::new(4);
        let held = c.admit(3).unwrap();
        // One core free: a min_threads=2 query sheds rather than accept 1.
        let picky = AdmissionPolicy {
            queue_timeout: Some(Duration::from_millis(30)),
            min_threads: 2,
            ..AdmissionPolicy::default()
        };
        assert!(matches!(
            c.admit_with(2, &picky).unwrap_err(),
            Error::Overloaded { .. }
        ));
        // The same request with the floor released is admitted in full.
        drop(held);
        let g = c.admit_with(2, &picky).unwrap();
        assert_eq!(g.granted(), 2);
    }

    #[test]
    fn fifo_order_is_observed_under_contention() {
        let c = ThreadCoordinator::new(1);
        let held = c.admit(1).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for id in 0..3 {
            let c2 = c.clone();
            let order2 = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let g = c2.admit(1).unwrap();
                order2.lock().unwrap().push(id);
                // Hold briefly so the next waiter demonstrably comes after.
                std::thread::sleep(Duration::from_millis(5));
                drop(g);
            }));
            // Wait until this waiter is queued before spawning the next, so
            // arrival order is deterministic.
            while c.queued() < id + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "strict FIFO");
    }

    /// A later-arriving interactive query overtakes queued standard/batch
    /// queries; within a class, arrival order is preserved.
    #[test]
    fn priority_bands_overtake_lower_classes() {
        let c = ThreadCoordinator::new(1);
        let held = c.admit(1).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        // Arrival order: batch, standard, interactive, batch. Admission
        // order must be: interactive, standard, batch (arrival order).
        let classes = [
            ("batch-0", Priority::Batch),
            ("standard", Priority::Standard),
            ("interactive", Priority::Interactive),
            ("batch-1", Priority::Batch),
        ];
        for (i, (name, class)) in classes.into_iter().enumerate() {
            let c2 = c.clone();
            let order2 = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let policy = AdmissionPolicy::for_class(class);
                let g = c2.admit_with(1, &policy).unwrap();
                order2.lock().unwrap().push(name);
                std::thread::sleep(Duration::from_millis(5));
                drop(g);
            }));
            while c.queued() < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["interactive", "standard", "batch-0", "batch-1"]
        );
    }

    /// Depth-based door shedding: a batch query arriving behind a deep
    /// queue is shed immediately, while an interactive arrival behind the
    /// same queue is not (the depth counts only tickets ahead of its band).
    #[test]
    fn shed_queue_depth_sheds_batch_at_the_door() {
        let c = ThreadCoordinator::new(1);
        let held = c.admit(1).unwrap();
        // Two standard waiters pile up.
        let mut waiters = Vec::new();
        for i in 0..2 {
            let c2 = c.clone();
            waiters.push(std::thread::spawn(move || {
                drop(c2.admit(1).unwrap());
            }));
            while c.queued() < i + 1 {
                std::thread::yield_now();
            }
        }
        // A batch query with depth 1 sheds instantly (2 tickets ahead)…
        let start = Instant::now();
        let batch = AdmissionPolicy {
            shed_queue_depth: Some(1),
            ..AdmissionPolicy::for_class(Priority::Batch)
        };
        let err = c.admit_with(1, &batch).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "door shed must not wait out the queue timeout"
        );
        // …while an interactive query with the same depth knob is ahead of
        // both standard waiters, so it queues (and is admitted first).
        let inter = AdmissionPolicy {
            shed_queue_depth: Some(1),
            ..AdmissionPolicy::for_class(Priority::Interactive)
        };
        drop(held);
        let g = c.admit_with(1, &inter).unwrap();
        drop(g);
        for w in waiters {
            w.join().unwrap();
        }
        let stats = c.admission_stats();
        assert_eq!(stats.class(Priority::Batch).shed, 1);
        assert_eq!(stats.class(Priority::Interactive).admitted, 1);
        assert_eq!(stats.class(Priority::Interactive).shed, 0);
        // The initial hold plus the two waiters, all default-class.
        assert_eq!(stats.class(Priority::Standard).admitted, 3);
        assert_eq!(stats.shed, 1, "aggregate mirrors the per-class breakdown");
    }

    /// The per-class stats sum to the aggregate counters.
    #[test]
    fn per_class_stats_sum_to_aggregate() {
        let c = ThreadCoordinator::new(1);
        let held = c.admit(1).unwrap();
        for class in Priority::ALL {
            let mut policy = AdmissionPolicy::for_class(class);
            policy.queue_timeout = Some(Duration::from_millis(5));
            let _ = c.admit_with(1, &policy);
        }
        drop(held);
        drop(
            c.admit_with(1, &AdmissionPolicy::for_class(Priority::Interactive))
                .unwrap(),
        );
        let stats = c.admission_stats();
        let sum_admitted: u64 = stats.per_class.iter().map(|s| s.admitted).sum();
        let sum_shed: u64 = stats.per_class.iter().map(|s| s.shed).sum();
        assert_eq!(stats.admitted, sum_admitted);
        assert_eq!(stats.shed, sum_shed);
        assert_eq!(stats.shed, 3, "one timed-out waiter per class");
        assert_eq!(stats.class(Priority::Interactive).admitted, 1);
    }

    #[test]
    fn priority_rank_round_trips() {
        for class in Priority::ALL {
            assert_eq!(Priority::from_rank(class.rank() as u8), Some(class));
        }
        assert_eq!(Priority::from_rank(3), None);
        assert_eq!(Priority::default(), Priority::Standard);
    }
}
