//! Criterion comparison of the matmul tiers: serial tiled kernel, the same
//! kernel fanned out on the persistent pool, and the relational block join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relserve_relational::TensorTable;
use relserve_runtime::KernelPool;
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::matmul as mm;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{BlockingSpec, Tensor};
use std::sync::Arc;

fn pattern(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn([rows, cols], |i| {
        (((i * 29 + salt * 13) % 37) as f32 - 18.0) * 0.1
    })
}

fn bench_dense(c: &mut Criterion) {
    let pool = Arc::new(KernelPool::for_cores(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    ));
    let threads = pool.workers() + 1;
    let par = pool.parallelism(threads);

    let mut group = c.benchmark_group("matmul_256");
    group.sample_size(10);
    let n = 256usize;
    let a = pattern(n, n, 1);
    let b = pattern(n, n, 2);
    group.bench_function(BenchmarkId::new("tiled_serial", n), |bench| {
        bench.iter(|| mm::matmul_parallel(&a, &b, &Parallelism::serial()).unwrap())
    });
    group.bench_function(BenchmarkId::new("tiled_pooled", threads), |bench| {
        bench.iter(|| mm::matmul_parallel(&a, &b, &par).unwrap())
    });
    group.bench_function(BenchmarkId::new("bt_packed", n), |bench| {
        bench.iter(|| mm::matmul_bt_parallel(&a, &b, &Parallelism::serial()).unwrap())
    });
    group.finish();
}

fn bench_relational(c: &mut Criterion) {
    let pool = Arc::new(KernelPool::for_cores(4));
    let n = 512usize;
    let block = 64usize;
    let bufpool = Arc::new(BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 256));
    let x = pattern(n, n, 3);
    let w = pattern(n, n, 4);
    let xt =
        TensorTable::from_dense(bufpool.clone(), "X", &x, BlockingSpec::square(block)).unwrap();
    let wt = TensorTable::from_dense(bufpool, "W", &w, BlockingSpec::square(block)).unwrap();

    let mut group = c.benchmark_group("relational_matmul_bt_512");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &threads| {
                let par = pool.parallelism(threads);
                bench.iter(|| xt.matmul_bt_parallel(&wt, "C", &par).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dense, bench_relational);
criterion_main!(benches);
