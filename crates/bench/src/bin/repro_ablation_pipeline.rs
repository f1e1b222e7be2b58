//! Ablation A5 (§5.2): DL-style pipelining inside the UDF-centric
//! architecture — micro-batch size vs latency and peak activation memory.
//!
//! The paper contrasts DL-framework pipelining (streaming micro-batches,
//! bounded per-device memory, no shuffles) with RDBMS data parallelism. The
//! pipelined plan is the UDF-centric plan run in morsels of `micro` rows:
//! the granted kernel threads claim morsels and carry each through every
//! layer. This sweep shows the trade-off directly: small micro-batches
//! shrink the activation window (the pipeline's "device memory") at the
//! cost of smaller, less efficient multiplies.
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_ablation_pipeline
//! ```

use relserve_bench::config::scaling_banner;
use relserve_bench::report::{timed, Cell, ResultTable};
use relserve_bench::workloads;
use relserve_core::exec;
use relserve_core::exec::relation_centric::WeightRelations;
use relserve_core::{InferencePlan, Representation};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::{ExecContext, MemoryGovernor};
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::parallel::Parallelism;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{}",
        scaling_banner("Ablation A5: pipelined micro-batch sweep")
    );
    let mut rng = seeded_rng(19);
    let model = zoo::caching_ffnn(&mut rng)?;
    let batch = 2_048;
    let x = workloads::feature_batch(batch, 784, 20);
    println!("Caching-FFNN (5 layers), batch {batch}\n");

    let mut table = ResultTable::new(&["execution", "latency", "peak activations"]);
    let pool = BufferPool::new(Arc::new(DiskManager::temp()?), 16);
    let weights = WeightRelations::new(Arc::new(pool), 64);
    // An untimed forward first: a model's first dense run of a layer packs
    // its weights, and every row below multiplies from the packed form.
    model.forward(&x, &Parallelism::serial())?;

    // Baseline: whole-batch UDF execution, every layer dense.
    {
        let governor = MemoryGovernor::unlimited("udf");
        let ctx = ExecContext::standalone(2, governor.clone());
        let plan = InferencePlan::uniform(&model, batch, Representation::UdfCentric)?;
        let (res, elapsed) = timed(|| exec::run(&model, &x, &plan, &weights, &ctx));
        res?;
        table.row(
            "whole-batch UDF",
            &[
                Cell::Time(elapsed),
                Cell::Text(format!("{:.1} MiB", peak_mib(&governor, &model))),
            ],
        );
    }
    for micro in [32usize, 128, 512] {
        let governor = MemoryGovernor::unlimited("pipe");
        let ctx = ExecContext::standalone(2, governor.clone());
        let plan = InferencePlan {
            morsel_rows: micro,
            ..InferencePlan::uniform(&model, batch, Representation::UdfCentric)?
        };
        let (res, elapsed) = timed(|| exec::run(&model, &x, &plan, &weights, &ctx));
        res?;
        table.row(
            &format!("morsels of {micro} rows ({} workers)", ctx.kernel_threads()),
            &[
                Cell::Time(elapsed),
                Cell::Text(format!("{:.1} MiB", peak_mib(&governor, &model))),
            ],
        );
    }
    println!("{}", table.render());
    println!(
        "expected shape (§5.2): pipelining bounds activation memory by the\n\
         output plus one micro-batch window per worker instead of the whole\n\
         batch, while the workers keep latency competitive — the\n\
         DL-framework trade-off the paper wants inside the RDBMS."
    );
    Ok(())
}

/// Peak governor bytes excluding the (constant) parameter reservation.
fn peak_mib(governor: &MemoryGovernor, model: &relserve_nn::Model) -> f64 {
    governor.peak().saturating_sub(model.param_bytes()) as f64 / (1 << 20) as f64
}
