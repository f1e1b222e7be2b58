//! Ablation A1: sweep the §7.1 memory-limit threshold and watch the
//! optimizer shift layers between UDF-centric and relation-centric — and
//! what that does to latency.
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_ablation_threshold
//! ```

use relserve_bench::config::scaling_banner;
use relserve_bench::report::{Cell, ResultTable};
use relserve_bench::workloads;
use relserve_core::{Architecture, InferenceSession, Representation, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::TransferProfile;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", scaling_banner("Ablation A1: memory-threshold sweep"));
    let batch = 512;
    let features = workloads::feature_batch(batch, 76, 13);

    // "load" stores each dense layer's weights as the blocks of its weight
    // relation; "cold" is a fresh session's first query, which reads its
    // relation-centric layers' relations into an empty pool and packs the
    // weights of its dense ones; "warm" is the median of WARM_QUERIES repeats
    // on the same session (one query is too few to tell two thresholds apart
    // on a shared host).
    const WARM_QUERIES: usize = 9;
    let mut table = ResultTable::new(&[
        "threshold",
        "relational layers",
        "udf layers",
        "load",
        "latency (cold)",
        "latency (warm)",
    ]);
    for threshold_mb in [1usize, 4, 16, 64, 2048] {
        let config = SessionConfig::builder()
            .memory_threshold_bytes(threshold_mb << 20)
            .db_memory_bytes(2 << 30)
            .buffer_pool_bytes(128 << 20)
            .block_size(256)
            .transfer(TransferProfile::instant())
            .build()?;
        let session = InferenceSession::open(config)?;
        let mut rng = seeded_rng(14);
        let model = zoo::encoder_fc(&mut rng)?;
        let loading = Instant::now();
        session.load_model(model)?;
        let load = loading.elapsed();
        let outcome = session.infer_batch("Encoder-FC", &features, Architecture::Adaptive)?;
        let plan = outcome.plan.as_ref().expect("adaptive plans");
        let relational = plan
            .ops
            .iter()
            .filter(|o| o.representation == Representation::RelationCentric)
            .count();
        table.row(
            &format!("{threshold_mb} MiB"),
            &[
                Cell::Text(relational.to_string()),
                Cell::Text((plan.ops.len() - relational).to_string()),
                Cell::Time(load),
                Cell::Time(outcome.elapsed),
                Cell::Time({
                    let mut warm = Vec::with_capacity(WARM_QUERIES);
                    for _ in 0..WARM_QUERIES {
                        let query =
                            session.infer_batch("Encoder-FC", &features, Architecture::Adaptive)?;
                        warm.push(query.elapsed);
                    }
                    warm.sort();
                    warm[WARM_QUERIES / 2]
                }),
            ],
        );
    }
    println!("{}", table.render());
    println!(
        "expected shape: raising the threshold monotonically moves layers from\n\
         relation-centric to UDF-centric. Chunking the weights into relations\n\
         happens in `load`, whatever the threshold; cold latency adds an empty\n\
         pool and packing for the dense layers, which a warm session no longer\n\
         pays (warm = median of 9 queries)."
    );
    Ok(())
}
