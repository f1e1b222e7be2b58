//! Query-scoped execution contexts: the admitted slice of the machine one
//! query runs in.
//!
//! The paper's unified resource manager (§3.1) is *per query*: a query's
//! relational workers and kernel threads together must fit the share of the
//! machine the scheduler granted it, even while other queries run. An
//! [`ExecContext`] packages that share — the [`ThreadPlan`], the admitted
//! [`BudgetGrant`], a budgeted handle on the shared [`KernelPool`], and the
//! [`MemoryGovernor`] lease — and travels by value through every execution
//! backend. When the context drops, its grant returns to the coordinator
//! and the next waiting query is admitted. There is deliberately no
//! process-global runner: two sessions built from clones of one
//! [`ThreadCoordinator`] each get a bounded, admission-controlled slice of
//! the same pool instead of first-install-wins.

use crate::error::{Error, Result};
use crate::governor::MemoryGovernor;
use crate::pool::{KernelPool, PoolHandle};
use crate::threads::{AdmissionPolicy, BudgetGrant, ThreadCoordinator, ThreadPlan};
use relserve_tensor::parallel::{Parallelism, StripeRunner};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-query kernel scheduling statistics, accumulated by every stripe
/// batch the context's grants submit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Stripe batches submitted through this context.
    pub batches: usize,
    /// Individual stripe tasks those batches contained.
    pub tasks: usize,
}

#[derive(Default)]
struct StatsCells {
    batches: AtomicUsize,
    tasks: AtomicUsize,
}

/// A [`StripeRunner`] that counts submissions into the owning context's
/// stats before delegating to the budgeted pool handle.
struct CountingRunner {
    handle: PoolHandle,
    stats: Arc<StatsCells>,
}

impl StripeRunner for CountingRunner {
    fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.tasks.fetch_add(n_tasks, Ordering::Relaxed);
        self.handle.run_stripes(n_tasks, task);
    }

    fn max_concurrency(&self) -> usize {
        self.handle.max_concurrency()
    }
}

/// Everything one query needs to execute inside its admitted share of the
/// machine; see the module docs. Created by
/// [`ThreadCoordinator::context`] / [`ThreadCoordinator::context_dedicated_with`]
/// and threaded by value through the execution backends.
pub struct ExecContext {
    plan: ThreadPlan,
    grant: BudgetGrant,
    pool: Arc<KernelPool>,
    governor: MemoryGovernor,
    stats: Arc<StatsCells>,
    deadline: Option<Instant>,
}

impl ExecContext {
    fn new(
        plan: ThreadPlan,
        grant: BudgetGrant,
        pool: Arc<KernelPool>,
        governor: MemoryGovernor,
        deadline: Option<Instant>,
    ) -> Self {
        ExecContext {
            plan,
            grant,
            pool,
            governor,
            stats: Arc::new(StatsCells::default()),
            deadline,
        }
    }

    /// A context for tests and benches that is not admission-controlled:
    /// a private coordinator with exactly `threads` cores, granted in full.
    /// Production queries get their contexts from a shared coordinator.
    pub fn standalone(threads: usize, governor: MemoryGovernor) -> Self {
        ThreadCoordinator::new(threads.max(1))
            .context(1, governor)
            .expect("a private unloaded coordinator always admits")
    }

    /// The query's absolute deadline, when it arrived with one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Cooperative deadline check, called by executors between the steps
    /// of a query — before each layer, and between a join query's scan,
    /// join and inference — never inside one layer or block join:
    /// [`Error::DeadlineExceeded`] once the query's deadline has passed,
    /// naming `phase` as the detection point. Returning the
    /// error unwinds the executor, dropping this context and releasing the
    /// grant mid-flight — a timed-out query stops consuming the machine.
    pub fn check_deadline(&self, phase: &str) -> Result<()> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Error::DeadlineExceeded {
                phase: phase.into(),
            }),
            _ => Ok(()),
        }
    }

    /// The agreed DB-worker / kernel-thread split for this query.
    pub fn plan(&self) -> ThreadPlan {
        self.plan
    }

    /// Kernel threads this query was actually granted (`<=` what the plan
    /// requested whenever other queries hold part of the machine).
    pub fn kernel_threads(&self) -> usize {
        self.grant
            .granted()
            .clamp(1, self.plan.worst_case_threads())
    }

    /// The memory lease this query charges tensor allocations against.
    pub fn governor(&self) -> &MemoryGovernor {
        &self.governor
    }

    /// The full granted kernel budget as a [`Parallelism`] seam value for
    /// tensor kernels. Submissions are budgeted: a batch occupies at most
    /// [`ExecContext::kernel_threads`] pool threads.
    pub fn parallelism(&self) -> Parallelism {
        let threads = self.kernel_threads();
        let runner = CountingRunner {
            handle: PoolHandle::new(Arc::clone(&self.pool), threads),
            stats: Arc::clone(&self.stats),
        };
        Parallelism::new(Arc::new(runner), threads)
    }

    /// Snapshot of the kernel batches and tasks this query has submitted.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            batches: self.stats.batches.load(Ordering::Relaxed),
            tasks: self.stats.tasks.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("plan", &self.plan)
            .field("granted", &self.grant.granted())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ThreadCoordinator {
    /// Admit a query whose relational side runs `db_parallelism` pipeline
    /// workers and build its execution context under the default
    /// [`AdmissionPolicy`]: plans the thread split, requests the plan's
    /// worst case from the admission ledger, and wraps the granted share
    /// around the shared kernel pool plus the query's memory lease. A
    /// machine that stays saturated past the default queue timeout sheds
    /// the query with [`Error::Overloaded`] instead of blocking forever.
    pub fn context(&self, db_parallelism: usize, governor: MemoryGovernor) -> Result<ExecContext> {
        self.context_with(db_parallelism, governor, &AdmissionPolicy::default())
    }

    /// [`ThreadCoordinator::context`] under an explicit [`AdmissionPolicy`]:
    /// the query queues FIFO for at most `policy.queue_timeout`, respects
    /// `policy.deadline` both in the queue and (carried on the context)
    /// cooperatively during execution, and refuses grants below
    /// `policy.min_threads`.
    pub fn context_with(
        &self,
        db_parallelism: usize,
        governor: MemoryGovernor,
        policy: &AdmissionPolicy,
    ) -> Result<ExecContext> {
        let plan = self.plan_for(db_parallelism);
        let grant = self.admit_with(plan.worst_case_threads(), policy)?;
        Ok(ExecContext::new(
            plan,
            grant,
            self.kernel_pool(),
            governor,
            policy.deadline,
        ))
    }

    /// An execution context for a dedicated (external) DL runtime, admitted
    /// under `policy`: the kernels may use every granted core, with no DB
    /// workers competing.
    pub fn context_dedicated_with(
        &self,
        governor: MemoryGovernor,
        policy: &AdmissionPolicy,
    ) -> Result<ExecContext> {
        let plan = self.plan_dedicated();
        let grant = self.admit_with(plan.worst_case_threads(), policy)?;
        Ok(ExecContext::new(
            plan,
            grant,
            self.kernel_pool(),
            governor,
            policy.deadline,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> MemoryGovernor {
        MemoryGovernor::unlimited("test")
    }

    #[test]
    fn context_grants_release_on_drop() {
        let c = ThreadCoordinator::new(4);
        let ctx = c.context(1, gov()).unwrap();
        assert_eq!(ctx.plan().kernel_threads, 4);
        assert_eq!(ctx.kernel_threads(), 4);
        assert_eq!(c.granted_threads(), 4);
        drop(ctx);
        assert_eq!(c.granted_threads(), 0);
    }

    #[test]
    fn concurrent_contexts_split_the_machine() {
        let c = ThreadCoordinator::new(4);
        // Another query holds part of the machine while ours is admitted:
        // the context gets exactly the remainder, never oversubscribing.
        let other = c.admit(3).unwrap();
        let ctx = c.context(1, gov()).unwrap();
        assert_eq!(other.granted() + ctx.kernel_threads(), 4);
        assert!(c.granted_threads() <= c.cores());
        drop(other);
        drop(ctx);
        let full = c
            .context_dedicated_with(gov(), &AdmissionPolicy::default())
            .unwrap();
        assert_eq!(full.kernel_threads(), 4);
    }

    /// Admission queues: a context request against a fully granted machine
    /// waits for a release instead of oversubscribing, so the sum of grants
    /// can never exceed the cores.
    #[test]
    fn saturated_machine_queues_the_next_context() {
        let c = ThreadCoordinator::new(2);
        let hold = c.context(1, gov()).unwrap();
        assert_eq!(c.granted_threads(), 2);
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || {
            let ctx = c2.context(1, gov()).unwrap();
            (ctx.kernel_threads(), c2.granted_threads())
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(hold);
        let (granted, outstanding) = waiter.join().unwrap();
        assert_eq!(granted, 2);
        assert!(outstanding <= 2);
    }

    /// The saturated machine sheds instead of blocking when the policy says
    /// so, and the context carries its deadline for cooperative checks.
    #[test]
    fn saturated_machine_sheds_context_and_deadline_is_carried() {
        let c = ThreadCoordinator::new(2);
        let hold = c.context(1, gov()).unwrap();
        let policy = AdmissionPolicy::with_queue_timeout(std::time::Duration::from_millis(25));
        let err = c.context_with(1, gov(), &policy).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }), "{err:?}");
        drop(hold);

        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let ctx = c
            .context_with(1, gov(), &AdmissionPolicy::with_deadline(deadline))
            .unwrap();
        assert_eq!(ctx.deadline(), Some(deadline));
        assert!(ctx.check_deadline("test.block").is_ok());
    }

    #[test]
    fn expired_deadline_is_detected_cooperatively() {
        let c = ThreadCoordinator::new(1);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        // Admission itself fails fast on an already-expired deadline…
        let err = c
            .context_with(1, gov(), &AdmissionPolicy::with_deadline(past))
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }));
        // …and a context whose deadline expires mid-flight reports the
        // phase that detected it.
        let soon = Instant::now() + std::time::Duration::from_millis(10);
        let ctx = c
            .context_with(1, gov(), &AdmissionPolicy::with_deadline(soon))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let err = ctx.check_deadline("exec.layer").unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { ref phase } if phase == "exec.layer"));
    }

    #[test]
    fn parallelism_counts_into_stats() {
        let c = ThreadCoordinator::new(2);
        let ctx = c.context(1, gov()).unwrap();
        let par = ctx.parallelism();
        par.run_stripes(5, &|_| {});
        par.run_stripes(3, &|_| {});
        // A 1-task batch short-circuits inside Parallelism and never reaches
        // the runner, so only multi-task batches are counted.
        par.run_stripes(1, &|_| {});
        let stats = ctx.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.tasks, 8);
    }

    #[test]
    fn sub_grants_never_exceed_the_admitted_budget() {
        let c = ThreadCoordinator::new(4);
        let hold = c.admit(3).unwrap();
        let ctx = c.context(1, gov()).unwrap();
        assert_eq!(ctx.kernel_threads(), 1, "only one core remained");
        assert_eq!(ctx.parallelism().threads(), 1);
        drop(hold);
    }

    #[test]
    fn standalone_context_is_self_contained() {
        let ctx = ExecContext::standalone(3, gov());
        assert_eq!(ctx.kernel_threads(), 3);
        let par = ctx.parallelism();
        let sum = std::sync::atomic::AtomicUsize::new(0);
        par.run_stripes(7, &|t| {
            sum.fetch_add(t, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 21);
    }
}
