//! Kernel-parallelism seam: how tensor kernels fan work out without owning
//! threads.
//!
//! The paper's unified resource manager (§3.1) requires that linear-algebra
//! kernels never spawn threads behind the scheduler's back. This crate
//! therefore owns **no** threads at all: kernels describe their work as
//! `n_tasks` independent stripe tasks and hand them to the [`StripeRunner`]
//! carried by the caller's [`Parallelism`] value. The persistent
//! implementation (`relserve_runtime::KernelPool`, wrapped by a query-scoped
//! `ExecContext`) lives one crate up; there is deliberately **no**
//! process-global runner slot — every kernel call is parameterized by the
//! query that issued it, so concurrent queries each stay inside their own
//! admitted thread budget. Without a runner the kernels degrade to serial
//! execution, which keeps this crate dependency-free and keeps results
//! identical either way.

use std::fmt;
use std::sync::{Arc, Mutex};

/// Executes a batch of independent tasks, indexed `0..n_tasks`, returning
/// only after every task has run. Implementations may run tasks on any
/// thread, in any order, with any concurrency.
pub trait StripeRunner: Send + Sync {
    /// Run `task(0), …, task(n_tasks - 1)` to completion.
    fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync));

    /// Upper bound on useful concurrency (worker threads available).
    fn max_concurrency(&self) -> usize;
}

/// Runs every task inline on the calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialRunner;

impl StripeRunner for SerialRunner {
    fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for t in 0..n_tasks {
            task(t);
        }
    }

    fn max_concurrency(&self) -> usize {
        1
    }
}

/// A query-scoped parallelism grant: *how many* threads a kernel invocation
/// may use and *where* those threads come from. Passed by reference down
/// every `*_parallel` kernel entry point in place of the old bare
/// `threads: usize` + process-global runner pair.
///
/// `Parallelism::serial()` (also `Default`) runs everything inline; it is
/// what unit tests and single-threaded callers use. A runner-backed value is
/// built by the runtime crate from a budgeted `KernelPool` handle.
#[derive(Clone, Default)]
pub struct Parallelism {
    runner: Option<Arc<dyn StripeRunner>>,
    threads: usize,
}

impl Parallelism {
    /// Inline execution on the calling thread only.
    pub fn serial() -> Self {
        Parallelism {
            runner: None,
            threads: 1,
        }
    }

    /// Parallelism backed by `runner`, allowed up to `threads` concurrent
    /// threads (clamped to at least 1).
    pub fn new(runner: Arc<dyn StripeRunner>, threads: usize) -> Self {
        Parallelism {
            runner: Some(runner),
            threads: threads.max(1),
        }
    }

    /// The thread budget kernels should partition work for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A copy of this grant capped at `threads` (never raised above the
    /// current budget, never below 1). Used when a caller needs fewer
    /// threads than its grant, as the `TensorTable` join does when it has
    /// fewer output cells than threads.
    pub fn with_threads(&self, threads: usize) -> Self {
        Parallelism {
            runner: self.runner.clone(),
            threads: threads.clamp(1, self.threads.max(1)),
        }
    }

    /// Run `n_tasks` stripe tasks under this grant: inline when the budget
    /// is 1 (or there is nothing to overlap), otherwise on the backing
    /// runner. Completion of every task is guaranteed on return.
    pub fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.threads <= 1 || n_tasks <= 1 {
            SerialRunner.run_stripes(n_tasks, task);
            return;
        }
        match &self.runner {
            Some(runner) => runner.run_stripes(n_tasks, task),
            None => SerialRunner.run_stripes(n_tasks, task),
        }
    }

    /// Hand each of `parts`'s elements to its same-indexed stripe task. This
    /// is the safe bridge for kernels that split a `&mut` output into
    /// disjoint chunks: ownership of each chunk moves through a per-task
    /// slot, so the `Fn(usize)` task interface never aliases mutable state.
    pub fn run_owned<T: Send>(&self, parts: Vec<T>, body: impl Fn(T) + Sync) {
        let slots: Vec<Mutex<Option<T>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.run_stripes(slots.len(), &|t| {
            let part = slots[t]
                .lock()
                .expect("stripe slot lock")
                .take()
                .expect("stripe task ran twice");
            body(part);
        });
    }
}

impl fmt::Debug for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Parallelism")
            .field("threads", &self.threads)
            .field("runner", &self.runner.as_ref().map(|_| "<runner>"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runner_covers_all_tasks() {
        let hits = AtomicUsize::new(0);
        SerialRunner.run_stripes(17, &|t| {
            hits.fetch_add(t + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17 * 18 / 2);
    }

    #[test]
    fn run_owned_moves_each_part_once() {
        let parts: Vec<usize> = (0..9).collect();
        let sum = AtomicUsize::new(0);
        Parallelism::serial().run_owned(parts, |p| {
            sum.fetch_add(p, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn run_stripes_zero_tasks_is_noop() {
        Parallelism::serial().run_stripes(0, &|_| panic!("no tasks to run"));
    }

    #[test]
    fn with_threads_caps_but_never_raises() {
        struct Counting(AtomicUsize);
        impl StripeRunner for Counting {
            fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                self.0.fetch_add(1, Ordering::Relaxed);
                SerialRunner.run_stripes(n_tasks, task);
            }
            fn max_concurrency(&self) -> usize {
                8
            }
        }
        let runner = Arc::new(Counting(AtomicUsize::new(0)));
        let par = Parallelism::new(runner.clone(), 4);
        assert_eq!(par.threads(), 4);
        assert_eq!(par.with_threads(2).threads(), 2);
        assert_eq!(par.with_threads(99).threads(), 4);
        assert_eq!(par.with_threads(0).threads(), 1);
        // A capped-to-1 grant never touches the runner.
        par.with_threads(1).run_stripes(5, &|_| {});
        assert_eq!(runner.0.load(Ordering::Relaxed), 0);
        // A multi-thread grant with >1 task does.
        par.run_stripes(5, &|_| {});
        assert_eq!(runner.0.load(Ordering::Relaxed), 1);
    }
}
