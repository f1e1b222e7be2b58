//! Ablation A4 (§4.1): accuracy-aware tensor-block deduplication — storage
//! saved vs inference deviation across error bounds.
//!
//! The weight matrix is given repetitive block structure (as embedding
//! tables and fine-tuned checkpoints have in practice), then deduplicated at
//! increasing tolerances; the harness reports storage savings and the
//! resulting output deviation.
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_dedup
//! ```

use relserve_bench::config::scaling_banner;
use relserve_bench::report::{Cell, ResultTable};
use relserve_bench::workloads;
use relserve_core::dedup::{dedup_blocks, error_bound};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{matmul, BlockedTensor, BlockingSpec, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", scaling_banner("Ablation A4: accuracy-aware dedup"));

    // A 1024×1024 weight matrix built from a pool of 24 base blocks with
    // small per-copy jitter — near-duplicate structure.
    let block = 64usize;
    let side = 1024usize;
    let mut rng = relserve_nn::init::seeded_rng(17);
    use rand::Rng;
    let pool: Vec<Tensor> = (0..24)
        .map(|_| Tensor::from_fn([block, block], |_| rng.gen_range(-0.1f32..0.1)))
        .collect();
    let mut weight = BlockedTensor::empty(side, side, BlockingSpec::square(block));
    for br in 0..side / block {
        for bc in 0..side / block {
            let base = &pool[(br * 7 + bc * 3) % pool.len()];
            let mut copy = base.clone();
            for v in copy.data_mut() {
                *v += rng.gen_range(-1e-4f32..1e-4);
            }
            weight
                .insert_block(relserve_tensor::BlockCoord { row: br, col: bc }, copy)
                .unwrap();
        }
    }
    let x = workloads::feature_batch(32, side, 18);
    let exact = matmul::matmul_parallel(&x, &weight.to_dense()?, &Parallelism::serial())?;

    let mut table = ResultTable::new(&[
        "tolerance",
        "unique blocks",
        "storage saved",
        "max output dev",
        "guaranteed bound/elem",
    ]);
    for tol in [0.0f32, 1e-5, 1e-4, 1e-3, 1e-2] {
        let (deduped, stats) = dedup_blocks(&weight, tol)?;
        let approx = matmul::matmul_parallel(
            &x,
            &deduped.to_blocked()?.to_dense()?,
            &Parallelism::serial(),
        )?;
        let dev = exact.max_abs_diff(&approx)?;
        table.row(
            &format!("{tol:.0e}"),
            &[
                Cell::Text(format!("{}/{}", stats.blocks_after, stats.blocks_before)),
                Cell::Text(format!("{:.1}%", stats.savings() * 100.0)),
                Cell::Text(format!("{dev:.3e}")),
                Cell::Text(format!("{:.1e}", error_bound(tol))),
            ],
        );
    }
    println!("{}", table.render());
    println!(
        "expected shape (§4.1): savings grow with tolerance while output deviation\n\
         stays within the per-element bound times the reduction width — the\n\
         storage optimizer can pick a tolerance per the application's accuracy SLA."
    );
    Ok(())
}
