//! Reproduce Tables 1–2: the model inventory, with parameter counts and the
//! §7.1 memory estimate of the largest layer in each model's plan.
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_models
//! ```

use relserve_bench::config::{scaling_banner, AMAZON_SCALE, LANDCOVER_SCALE};
use relserve_bench::report::Cell;
use relserve_bench::report::ResultTable;
use relserve_core::RuleBasedOptimizer;
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", scaling_banner("Tables 1-2: model inventory"));
    let mut rng = seeded_rng(1);
    let models = vec![
        zoo::fraud_fc_256(&mut rng)?,
        zoo::fraud_fc_512(&mut rng)?,
        zoo::encoder_fc(&mut rng)?,
        zoo::amazon_14k_fc(AMAZON_SCALE, &mut rng)?,
        zoo::deepbench_conv1(&mut rng)?,
        zoo::landcover(LANDCOVER_SCALE, &mut rng)?,
        zoo::bosch_ffnn(&mut rng)?,
        zoo::caching_cnn(&mut rng)?,
        zoo::caching_ffnn(&mut rng)?,
    ];
    let mut table = ResultTable::new(&[
        "model",
        "input",
        "output",
        "params",
        "max layer est @ batch 1000",
    ]);
    for model in &models {
        let plan = RuleBasedOptimizer::paper_default().plan(model, 1000, 1)?;
        let max_est = plan
            .ops
            .iter()
            .map(|node| node.estimated_bytes)
            .max()
            .unwrap_or(0);
        table.row(
            model.name(),
            &[
                Cell::Text(model.input_shape().to_string()),
                Cell::Text(model.output_shape()?.to_string()),
                Cell::Text(format_count(model.num_params())),
                Cell::Text(format_bytes(max_est)),
            ],
        );
    }
    println!("{}", table.render());
    Ok(())
}

fn format_count(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn format_bytes(n: usize) -> String {
    if n >= 1 << 30 {
        format!("{:.1} GiB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", n as f64 / 1024.0)
    }
}
