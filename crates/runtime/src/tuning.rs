//! Hyper-parameter tuning for the DB-worker / kernel-thread split (§3.1).
//!
//! The paper observes that the threading configurations of RDBMS workers and
//! in-UDF kernel libraries must be co-tuned: "we must carefully configure
//! the number of threads for the SQL query processing and OpenMP. Otherwise,
//! significant context switch overheads may occur." This module provides the
//! measurement-driven tuner: enumerate the non-oversubscribing thread plans
//! for a machine, measure a caller-supplied representative workload under
//! each, and return the fastest — with the measurements kept so the caller
//! can cache them (the "historical knowledge" the paper suggests reusing).

use crate::threads::{ThreadCoordinator, ThreadPlan};
use std::time::Duration;

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedPlan {
    /// The thread split that was measured.
    pub plan: ThreadPlan,
    /// Measured wall-clock for the probe workload.
    pub elapsed: Duration,
}

/// Result of a tuning sweep: the winner plus every measurement.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// The fastest measured plan.
    pub best: TunedPlan,
    /// All measurements, in sweep order.
    pub measurements: Vec<TunedPlan>,
}

/// Enumerate the candidate plans for `coordinator`'s machine: every
/// DB-worker count from 1 to the core count, each paired with its
/// non-oversubscribing kernel-thread share.
fn candidate_plans(coordinator: &ThreadCoordinator) -> Vec<ThreadPlan> {
    (1..=coordinator.cores())
        .map(|db| coordinator.plan_for(db))
        .collect()
}

/// Measure `workload` under every candidate plan and return the fastest.
///
/// `workload` receives the plan (so it can size its own parallelism) and
/// must run the representative query once. Measurements run `repeats` times
/// per plan, keeping the minimum (robust to scheduler noise).
pub fn tune(
    coordinator: &ThreadCoordinator,
    repeats: usize,
    mut workload: impl FnMut(ThreadPlan),
) -> TuningReport {
    let repeats = repeats.max(1);
    let mut measurements = Vec::new();
    for plan in candidate_plans(coordinator) {
        let mut best = Duration::MAX;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            workload(plan);
            best = best.min(start.elapsed());
        }
        measurements.push(TunedPlan {
            plan,
            elapsed: best,
        });
    }
    let best = *measurements
        .iter()
        .min_by_key(|m| m.elapsed)
        .expect("at least one candidate");
    TuningReport { best, measurements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_cover_every_db_worker_count() {
        let c = ThreadCoordinator::new(4);
        let plans = candidate_plans(&c);
        assert_eq!(plans.len(), 4);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.db_workers, i + 1);
            assert!(p.worst_case_threads() <= 4);
        }
    }

    #[test]
    fn tuner_picks_the_fastest_plan() {
        let c = ThreadCoordinator::new(4);
        // Synthetic workload: pretend 2 DB workers is optimal by sleeping
        // longer for every other configuration.
        let report = tune(&c, 1, |plan| {
            let penalty_us = if plan.db_workers == 2 { 1 } else { 500 };
            std::thread::sleep(Duration::from_micros(penalty_us));
        });
        assert_eq!(report.best.plan.db_workers, 2);
        assert_eq!(report.measurements.len(), 4);
    }

    #[test]
    fn repeats_take_the_minimum() {
        let c = ThreadCoordinator::new(2);
        let mut calls = 0;
        let report = tune(&c, 3, |_| {
            calls += 1;
        });
        assert_eq!(calls, 2 * 3);
        assert!(report.best.elapsed < Duration::from_secs(1));
    }
}
