//! Persistent kernel thread pool (§3.1).
//!
//! The seed implementation spawned a fresh scope of OS threads
//! for every parallel kernel invocation — tens of microseconds of
//! create/join overhead per matmul, paid again for every block of every
//! layer. [`KernelPool`] replaces that with long-lived workers created once
//! per [`crate::ThreadCoordinator`] budget:
//!
//! * A *batch* of `n_tasks` independent stripe tasks is published to a
//!   shared injector queue; workers claim task indices with an atomic
//!   counter (work-stealing-lite: contention-free chunk claiming rather
//!   than per-worker deques, which is enough when tasks are pre-sized
//!   stripes).
//! * The **submitting thread participates**: after publishing it claims and
//!   runs tasks like any worker. This makes `run_stripes` deadlock-free
//!   under nesting (a pool task may itself submit a batch) and lets a
//!   zero-worker pool degrade to serial execution.
//! * Kernels reach the pool through the [`StripeRunner`] trait from
//!   `relserve-tensor`, via a query-scoped [`PoolHandle`] that carries an
//!   admitted thread *budget*: a batch submitted through a handle may
//!   occupy at most `budget` threads (the submitter plus `budget - 1`
//!   helper workers), so concurrent queries sharing one pool stay inside
//!   their own admission-controlled slice. There is no process-global
//!   runner; the tensor crate itself owns no threads.
//!
//! Counters ([`KernelPool::counters`]) expose tasks run, tasks *stolen*
//! (executed by a pool worker rather than the submitter), and worker park
//! events, so tests and the tuning ablation can observe scheduling behavior
//! instead of guessing.

use crate::error::{Error, Result};
use relserve_tensor::parallel::{Parallelism, StripeRunner};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Best-effort string form of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Type-erased pointer to a borrowed `&(dyn Fn(usize) + Sync)` task closure.
///
/// The `'static` lifetime is a lie told to the type system: soundness comes
/// from [`KernelPool::run_stripes`] blocking until every claimed task index
/// has finished, so the referent provably outlives every dereference. The
/// pointer itself is only dereferenced for successfully claimed indices.
#[derive(Clone, Copy)]
struct TaskPtr(&'static (dyn Fn(usize) + Sync));

// SAFETY: the referent is `Sync` (shared calls from any thread are fine) and
// outlives the batch per the blocking-submit contract above.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One published batch of stripe tasks.
struct Batch {
    task: TaskPtr,
    n_tasks: usize,
    /// Next unclaimed task index; claims are `fetch_add` so they never race.
    next: AtomicUsize,
    /// Completed task count; the batch is done when this reaches `n_tasks`.
    finished: AtomicUsize,
    /// Helper-worker slots remaining: a worker must claim one before it may
    /// drain this batch, which is how a budgeted submission keeps a batch
    /// from occupying more than its handle's share of the pool. The
    /// submitter is not counted — it always participates.
    helper_slots: AtomicUsize,
    panicked: AtomicBool,
    /// First captured panic payload, surfaced to the submitter as
    /// [`Error::KernelPanicked`] once the whole batch has completed.
    panic_message: Mutex<Option<String>>,
    /// Completion signal for the submitting thread.
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    fn is_exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_tasks
    }

    /// Claim one helper slot; a worker that fails must leave the batch to
    /// the threads already inside its budget.
    fn try_claim_helper(&self) -> bool {
        self.helper_slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
    }
}

/// Monotonic scheduling counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Batches submitted — one per fork of a multiply's stripes or of a
    /// plan's morsels.
    pub forks: usize,
    /// Stripe tasks executed, by anyone.
    pub tasks_run: usize,
    /// Tasks executed by a pool worker rather than the submitting thread.
    pub steals: usize,
    /// Times a worker went to sleep waiting for work.
    pub parks: usize,
}

#[derive(Default)]
struct Counters {
    forks: AtomicUsize,
    tasks_run: AtomicUsize,
    steals: AtomicUsize,
    parks: AtomicUsize,
}

struct Injector {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    work_cv: Condvar,
    counters: Counters,
}

impl Shared {
    /// Run claimable tasks from `batch` until none remain. `stealing` marks
    /// execution by a pool worker (vs the submitter) for the counters.
    fn drain_batch(&self, batch: &Batch, stealing: bool) {
        loop {
            let t = batch.next.fetch_add(1, Ordering::Relaxed);
            if t >= batch.n_tasks {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.task.0)(t))) {
                let mut msg = batch.panic_message.lock().expect("panic message lock");
                msg.get_or_insert_with(|| payload_message(payload.as_ref()));
                drop(msg);
                batch.panicked.store(true, Ordering::Relaxed);
            }
            self.counters.tasks_run.fetch_add(1, Ordering::Relaxed);
            if stealing {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
            }
            if batch.finished.fetch_add(1, Ordering::Relaxed) + 1 == batch.n_tasks {
                *batch.done_lock.lock().expect("batch done lock") = true;
                batch.done_cv.notify_all();
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut inj = self.injector.lock().expect("injector lock");
                loop {
                    if inj.shutdown {
                        return;
                    }
                    // Drop batches everyone has finished claiming from.
                    while inj.batches.front().is_some_and(|b| b.is_exhausted()) {
                        inj.batches.pop_front();
                    }
                    if let Some(b) = inj
                        .batches
                        .iter()
                        .find(|b| !b.is_exhausted() && b.try_claim_helper())
                    {
                        break Arc::clone(b);
                    }
                    self.counters.parks.fetch_add(1, Ordering::Relaxed);
                    inj = self.work_cv.wait(inj).expect("injector wait");
                }
            };
            self.drain_batch(&batch, true);
        }
    }
}

/// A persistent pool of kernel worker threads; see the module docs.
pub struct KernelPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl KernelPool {
    /// A pool with `workers` long-lived background threads. The submitting
    /// thread always participates in its own batches, so a pool sized for a
    /// `kernel_threads` budget wants `kernel_threads - 1` workers; a
    /// zero-worker pool is valid and runs everything on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            counters: Counters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("relserve-kernel-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn kernel worker")
            })
            .collect();
        KernelPool {
            shared,
            workers: handles,
        }
    }

    /// A pool sized for a machine with `cores` cores: one thread is the
    /// submitter, the rest are workers.
    pub fn for_cores(cores: usize) -> Self {
        Self::new(cores.max(1) - 1)
    }

    /// Number of background worker threads (excludes the submitter).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the scheduling counters.
    pub fn counters(&self) -> PoolCounters {
        let c = &self.shared.counters;
        PoolCounters {
            forks: c.forks.load(Ordering::Relaxed),
            tasks_run: c.tasks_run.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
        }
    }

    /// A [`Parallelism`] grant over this pool capped at `threads`: the seam
    /// value tensor kernels take in place of a bare thread count. Intended
    /// for benches and tests that drive the pool without an admission
    /// coordinator; query execution goes through `ExecContext` instead.
    pub fn parallelism(self: &Arc<Self>, threads: usize) -> Parallelism {
        let handle = PoolHandle::new(Arc::clone(self), threads);
        Parallelism::new(Arc::new(handle), threads)
    }

    /// Run a batch that may occupy at most `budget` threads of this pool:
    /// the submitting thread plus up to `budget - 1` helper workers. This is
    /// the primitive behind [`PoolHandle`]; `budget` is clamped to at least
    /// 1 (the submitter always runs).
    ///
    /// A panicking task does **not** panic the submitting thread: the whole
    /// batch still runs to completion (the pool stays reusable) and the
    /// first captured panic payload comes back as
    /// [`Error::KernelPanicked`], so one poisoned query surfaces a typed
    /// error instead of aborting a serving thread.
    fn run_batch(
        &self,
        n_tasks: usize,
        task: &(dyn Fn(usize) + Sync),
        budget: usize,
    ) -> Result<()> {
        if n_tasks == 0 {
            return Ok(());
        }
        self.shared.counters.forks.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see `TaskPtr` — we block on batch completion below, so the
        // borrow outlives every dereference.
        let erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        let helpers = budget.max(1) - 1;
        let batch = Arc::new(Batch {
            task: TaskPtr(erased),
            n_tasks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            helper_slots: AtomicUsize::new(helpers.min(self.workers.len())),
            panicked: AtomicBool::new(false),
            panic_message: Mutex::new(None),
            done_lock: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if n_tasks > 1 && helpers > 0 && !self.workers.is_empty() {
            let mut inj = self.shared.injector.lock().expect("injector lock");
            inj.batches.push_back(Arc::clone(&batch));
            drop(inj);
            self.shared.work_cv.notify_all();
        }
        // The submitter helps; this also covers the zero-worker pool,
        // budget-1 grants, and nested submissions from inside a worker.
        self.shared.drain_batch(&batch, false);
        let mut done = batch.done_lock.lock().expect("batch done lock");
        while !*done {
            done = batch.done_cv.wait(done).expect("batch done wait");
        }
        drop(done);
        if batch.panicked.load(Ordering::Relaxed) {
            let message = batch
                .panic_message
                .lock()
                .expect("panic message lock")
                .take()
                .unwrap_or_else(|| "unknown panic".to_string());
            return Err(Error::KernelPanicked { message });
        }
        Ok(())
    }

    /// Legacy infallible form of [`KernelPool::run_batch`] behind the
    /// [`StripeRunner`] seam (whose signature cannot carry errors):
    /// re-raises a captured task panic on the submitting thread. Callers
    /// that can propagate typed errors should use `run_batch`.
    fn run_stripes_budgeted(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync), budget: usize) {
        if let Err(e) = self.run_batch(n_tasks, task, budget) {
            panic!("{e}");
        }
    }
}

/// A query-scoped handle onto a shared [`KernelPool`], capped at an admitted
/// thread budget. Cloning shares the pool and budget; every submission
/// through the handle uses budgeted publication, so two queries holding
/// handles with budgets `a` and `b` can never occupy more than `a + b`
/// threads of the pool between them.
#[derive(Clone)]
pub struct PoolHandle {
    pool: Arc<KernelPool>,
    budget: usize,
}

impl PoolHandle {
    /// A handle over `pool` limited to `budget` threads (min 1).
    pub fn new(pool: Arc<KernelPool>, budget: usize) -> Self {
        PoolHandle {
            pool,
            budget: budget.max(1),
        }
    }

    /// The admitted thread budget of this handle.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The shared pool behind this handle.
    pub fn pool(&self) -> &Arc<KernelPool> {
        &self.pool
    }
}

impl StripeRunner for PoolHandle {
    fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.pool.run_stripes_budgeted(n_tasks, task, self.budget);
    }

    fn max_concurrency(&self) -> usize {
        self.budget.min(self.pool.workers() + 1)
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("budget", &self.budget)
            .field("pool_workers", &self.pool.workers())
            .finish()
    }
}

impl StripeRunner for KernelPool {
    /// Run `task(0..n_tasks)` to completion, sharing the work with every
    /// pool worker (an unbudgeted submission). Blocks until every task has
    /// finished; panics (after the whole batch completes) if any task
    /// panicked.
    fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_stripes_budgeted(n_tasks, task, self.workers.len() + 1);
    }

    fn max_concurrency(&self) -> usize {
        self.workers.len() + 1
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut inj = self.shared.injector.lock().expect("injector lock");
            inj.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for KernelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelPool")
            .field("workers", &self.workers.len())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sum(pool: &KernelPool, n_tasks: usize) -> usize {
        let sum = AtomicUsize::new(0);
        pool.run_stripes(n_tasks, &|t| {
            sum.fetch_add(t + 1, Ordering::Relaxed);
        });
        sum.load(Ordering::Relaxed)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = KernelPool::new(3);
        for n in [0, 1, 2, 7, 64] {
            assert_eq!(run_sum(&pool, n), n * (n + 1) / 2, "n_tasks={n}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_caller() {
        let pool = KernelPool::new(0);
        assert_eq!(run_sum(&pool, 13), 13 * 14 / 2);
        let c = pool.counters();
        assert_eq!(c.tasks_run, 13);
        assert_eq!(c.steals, 0, "no workers, nothing can be stolen");
    }

    #[test]
    fn counters_track_tasks_and_accounting_is_consistent() {
        let pool = KernelPool::new(2);
        for _ in 0..16 {
            run_sum(&pool, 8);
        }
        let c = pool.counters();
        assert_eq!(c.forks, 16, "one fork per batch");
        assert_eq!(c.tasks_run, 16 * 8);
        assert!(c.steals <= c.tasks_run);
    }

    #[test]
    fn reused_across_batches_without_respawn() {
        let pool = KernelPool::new(2);
        assert_eq!(pool.workers(), 2);
        let before = pool.counters().tasks_run;
        for n in 1..20 {
            run_sum(&pool, n);
        }
        assert_eq!(pool.counters().tasks_run - before, (1..20).sum::<usize>());
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Arc::new(KernelPool::new(1));
        let inner_total = AtomicUsize::new(0);
        let p2 = Arc::clone(&pool);
        pool.run_stripes(4, &|_| {
            p2.run_stripes(3, &|t| {
                inner_total.fetch_add(t + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 6);
    }

    #[test]
    fn panicking_task_propagates_after_batch_completes() {
        let pool = KernelPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_stripes(6, &|t| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 6, "all tasks still ran");
        // Pool is still usable after a panicked batch.
        assert_eq!(run_sum(&pool, 5), 15);

        // The typed primitive surfaces the same failure as an error value —
        // no panic on the submitting thread, payload captured verbatim.
        let ran = AtomicUsize::new(0);
        let err = pool
            .run_batch(
                6,
                &|t| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if t == 3 {
                        panic!("poisoned stripe {t}");
                    }
                },
                3,
            )
            .unwrap_err();
        match err {
            Error::KernelPanicked { ref message } => {
                assert_eq!(message, "poisoned stripe 3");
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 6, "batch ran to completion");
        // And the pool is still usable after the typed failure too.
        assert_eq!(run_sum(&pool, 5), 15);
        assert!(pool.run_batch(4, &|_| {}, 2).is_ok());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(KernelPool::new(3));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(run_sum(&pool, 9), 45);
                    }
                });
            }
        });
        assert_eq!(pool.counters().tasks_run, 4 * 25 * 9);
    }

    #[test]
    fn for_cores_reserves_the_submitter() {
        assert_eq!(KernelPool::for_cores(4).workers(), 3);
        assert_eq!(KernelPool::for_cores(1).workers(), 0);
        assert_eq!(KernelPool::for_cores(0).workers(), 0);
    }

    #[test]
    fn budget_one_never_publishes_to_workers() {
        // A budget-1 batch stays on the submitter even with idle workers:
        // nothing can be stolen, so the steal counter must not move.
        let pool = KernelPool::new(2);
        let before = pool.counters().steals;
        let sum = AtomicUsize::new(0);
        for _ in 0..8 {
            pool.run_stripes_budgeted(
                16,
                &|t| {
                    sum.fetch_add(t + 1, Ordering::Relaxed);
                },
                1,
            );
        }
        assert_eq!(sum.load(Ordering::Relaxed), 8 * 16 * 17 / 2);
        assert_eq!(pool.counters().steals, before);
    }

    #[test]
    fn budgeted_batches_complete_for_every_budget() {
        let pool = KernelPool::new(3);
        for budget in [0, 1, 2, 3, 4, 99] {
            let sum = AtomicUsize::new(0);
            pool.run_stripes_budgeted(
                11,
                &|t| {
                    sum.fetch_add(t + 1, Ordering::Relaxed);
                },
                budget,
            );
            assert_eq!(sum.load(Ordering::Relaxed), 11 * 12 / 2, "budget={budget}");
        }
    }

    #[test]
    fn pool_handle_caps_concurrency_report() {
        let pool = Arc::new(KernelPool::new(3));
        let h = PoolHandle::new(Arc::clone(&pool), 2);
        assert_eq!(h.budget(), 2);
        assert_eq!(h.max_concurrency(), 2);
        let wide = PoolHandle::new(Arc::clone(&pool), 64);
        assert_eq!(wide.max_concurrency(), 4, "capped by pool size");
        let zero = PoolHandle::new(pool, 0);
        assert_eq!(zero.budget(), 1, "budget clamps to the submitter");
    }

    #[test]
    fn parallelism_grant_runs_on_the_pool() {
        let pool = Arc::new(KernelPool::new(2));
        let par = pool.parallelism(3);
        assert_eq!(par.threads(), 3);
        let sum = AtomicUsize::new(0);
        par.run_stripes(9, &|t| {
            sum.fetch_add(t + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }
}
