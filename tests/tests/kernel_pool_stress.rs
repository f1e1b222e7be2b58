//! Stress tests for the persistent kernel pool: dense and relational matmuls
//! fanned out on a *real* [`KernelPool`]-backed [`Parallelism`] must match
//! the serial oracles bit-for-tolerance across thread counts and ragged
//! shapes.
//!
//! The in-crate tensor/relational tests mostly run serial `Parallelism`
//! values, so this integration binary is where the pooled paths actually
//! cross threads.

use proptest::prelude::*;
use relserve_relational::TensorTable;
use relserve_runtime::KernelPool;
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::matmul as mm;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{BlockingSpec, Tensor};
use std::sync::{Arc, OnceLock};

/// Thread counts the ISSUE calls out: serial, even, odd, oversubscribed.
const THREADS: [usize; 5] = [1, 2, 3, 7, 16];

/// One shared pool for the whole test binary, handed out as per-call
/// [`Parallelism`] values (there is no global runner slot any more). Three
/// workers plus the submitting test thread gives real cross-thread traffic
/// even though requests go up to 16 stripes (extras queue).
fn pool() -> &'static Arc<KernelPool> {
    static POOL: OnceLock<Arc<KernelPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(KernelPool::new(3)))
}

/// A pooled `Parallelism` with the given thread budget.
fn par(threads: usize) -> Parallelism {
    pool().parallelism(threads)
}

fn pattern(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn([rows, cols], |i| {
        (((i * 31 + salt * 17) % 41) as f32 - 20.0) * 0.1
    })
}

fn bufpool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 256))
}

#[test]
fn pooled_matmul_matches_oracle_across_thread_counts() {
    // Ragged shapes: nothing divides the 4x8 register tile evenly. Only the
    // last is big enough for the work clamp to hand stripes to the pool
    // (four of them); the small ones pin that a pooled grant on a multiply
    // too small to stripe is still right.
    for &(m, k, n) in &[
        (1, 1, 1),
        (5, 3, 11),
        (13, 17, 19),
        (64, 64, 64),
        (33, 70, 9),
        (131, 129, 257),
    ] {
        let a = pattern(m, k, 1);
        let b = pattern(k, n, 2);
        let oracle = mm::matmul_naive(&a, &b).unwrap();
        for &t in &THREADS {
            let got = mm::matmul_parallel(&a, &b, &par(t)).unwrap();
            assert!(
                oracle.approx_eq(&got, 1e-4),
                "matmul {m}x{k}x{n} threads={t}: max diff {}",
                oracle.max_abs_diff(&got).unwrap()
            );
        }
    }
}

#[test]
fn pooled_relational_matmul_bt_matches_serial_across_thread_counts() {
    let (m, k, n) = (37, 23, 29);
    let x = pattern(m, k, 3);
    let w = pattern(n, k, 4);
    let bp = bufpool();
    let xt = TensorTable::from_dense(bp.clone(), "X", &x, BlockingSpec::square(8)).unwrap();
    let wt = TensorTable::from_dense(bp, "W", &w, BlockingSpec::square(8)).unwrap();
    let (serial, serial_stats) = xt
        .matmul_bt_parallel(&wt, "C0", &Parallelism::serial())
        .unwrap();
    let serial = serial.to_dense().unwrap();
    for &t in &THREADS {
        let (out, stats) = xt
            .matmul_bt_parallel(&wt, format!("C{t}"), &par(t))
            .unwrap();
        let out = out.to_dense().unwrap();
        assert!(
            serial.approx_eq(&out, 1e-4),
            "relational bt threads={t}: max diff {}",
            serial.max_abs_diff(&out).unwrap()
        );
        // Stats are partition-invariant: same blocks touched regardless of
        // how the stripes were carved up.
        assert_eq!(stats, serial_stats, "stats diverged at threads={t}");
    }
}

#[test]
fn pool_counters_advance_under_load() {
    let p = pool();
    let before = p.counters();
    // 2.4 M multiply-adds: enough for the work clamp to cut two stripes.
    let a = pattern(192, 128, 5);
    let b = pattern(128, 96, 6);
    let oracle = mm::matmul_naive(&a, &b).unwrap();
    for &t in &THREADS[1..] {
        let got = mm::matmul_parallel(&a, &b, &par(t)).unwrap();
        assert!(oracle.approx_eq(&got, 1e-4));
    }
    let after = p.counters();
    assert!(
        after.tasks_run > before.tasks_run,
        "no tasks ran on the pool: {before:?} -> {after:?}"
    );
    // Parks/steals are timing-dependent; just check the counters are sane.
    assert!(after.steals >= before.steals);
    assert!(after.parks >= before.parks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled dense matmul agrees with the naive oracle on random ragged
    /// shapes and thread counts, including oversubscription.
    #[test]
    fn prop_pooled_matmul_matches_oracle(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        t_idx in 0usize..THREADS.len(),
        salt in 0usize..100,
    ) {
        let a = pattern(m, k, salt);
        let b = pattern(k, n, salt + 1);
        let oracle = mm::matmul_naive(&a, &b).unwrap();
        let got = mm::matmul_parallel(&a, &b, &par(THREADS[t_idx])).unwrap();
        prop_assert!(
            oracle.approx_eq(&got, 1e-4),
            "max diff {}", oracle.max_abs_diff(&got).unwrap()
        );
    }

    /// Parallel relational block join agrees with the serial join for random
    /// ragged shapes, block sizes, and thread counts.
    #[test]
    fn prop_parallel_block_join_matches_serial(
        m in 1usize..30,
        k in 1usize..20,
        n in 1usize..30,
        block in 1usize..9,
        t_idx in 0usize..THREADS.len(),
        salt in 0usize..100,
    ) {
        let x = pattern(m, k, salt);
        let w = pattern(n, k, salt + 7);
        let bp = bufpool();
        let xt = TensorTable::from_dense(bp.clone(), "X", &x, BlockingSpec::square(block)).unwrap();
        let wt = TensorTable::from_dense(bp, "W", &w, BlockingSpec::square(block)).unwrap();
        let (serial, _) = xt.matmul_bt_parallel(&wt, "S", &Parallelism::serial()).unwrap();
        let (out, _) = xt.matmul_bt_parallel(&wt, "P", &par(THREADS[t_idx])).unwrap();
        prop_assert!(
            serial.to_dense().unwrap().approx_eq(&out.to_dense().unwrap(), 1e-4)
        );
    }
}
