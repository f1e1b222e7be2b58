//! Ablation A2: tensor block size for the relation-centric matmul.
//!
//! Small blocks maximize spill granularity but pay per-block join/codec
//! overhead; large blocks amortize it but raise the working-set unit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relserve_bench::workloads;
use relserve_relational::TensorTable;
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::BlockingSpec;
use std::sync::Arc;

fn bench_block_size(c: &mut Criterion) {
    let x = workloads::feature_batch(256, 1024, 41);
    let w = workloads::feature_batch(512, 1024, 42); // [n, k] weight layout

    let mut group = c.benchmark_group("block_size");
    group.sample_size(10);
    for block in [32usize, 64, 128, 256, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, &blk| {
            b.iter_with_setup(
                || {
                    let pool = Arc::new(BufferPool::with_budget_bytes(
                        Arc::new(DiskManager::temp().unwrap()),
                        64 << 20,
                    ));
                    let xt =
                        TensorTable::from_dense(pool.clone(), "x", &x, BlockingSpec::square(blk))
                            .unwrap();
                    let wt =
                        TensorTable::from_dense(pool, "w", &w, BlockingSpec::square(blk)).unwrap();
                    (xt, wt)
                },
                |(xt, wt)| {
                    xt.matmul_bt_parallel(&wt, "c", &Parallelism::serial())
                        .unwrap()
                },
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_size);
criterion_main!(benches);
