//! Reproduce Fig. 2: latency reduction of in-database serving for FFNN
//! models over data managed by the RDBMS, against the DL-centric
//! architecture (external runtime + ConnectorX-class transfer).
//!
//! Paper shape: for small models the cross-system transfer dominates, so the
//! in-database (UDF-centric, chosen by the rule) path wins; the advantage
//! shrinks as model compute grows (Encoder-FC).
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_fig2
//! ```

use relserve_bench::config::{fig2_config, scaling_banner, FIG2_BATCH};
use relserve_bench::report::{Cell, ResultTable};
use relserve_bench::workloads;
use relserve_core::{Architecture, InferenceSession};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::RuntimeProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", scaling_banner("Fig. 2: FFNN inference latency"));
    let session = InferenceSession::open(fig2_config())?;
    let mut rng = seeded_rng(2);
    session.load_model(zoo::fraud_fc_256(&mut rng)?)?;
    session.load_model(zoo::fraud_fc_512(&mut rng)?)?;
    session.load_model(zoo::encoder_fc(&mut rng)?)?;

    // (model, batch): Encoder-FC is ~200× more compute per row, so its
    // batch is reduced to keep the run short; the comparison is per-query.
    let cases = [
        ("Fraud-FC-256", 28usize, FIG2_BATCH),
        ("Fraud-FC-512", 28, FIG2_BATCH),
        ("Encoder-FC", 76, 500),
    ];

    let mut table = ResultTable::new(&[
        "model",
        "ours (in-DB)",
        "dl-centric (TF-like)",
        "dl-centric (PT-like)",
        "reduction",
    ]);
    const REPEATS: usize = 9; // interleaved best-of-N damps host noise
    for (model, width, batch) in cases {
        let features = workloads::feature_batch(batch, width, 3);
        // Untimed warm-up: touch weights and page in the working set so the
        // first measured architecture is not penalized.
        session.infer_batch(model, &features, Architecture::UdfCentric)?;
        // Interleave the architectures round-robin so slow host phases on a
        // shared machine penalize all of them equally; keep each one's best.
        let mut ours = std::time::Duration::MAX;
        let mut tf = std::time::Duration::MAX;
        let mut pt = std::time::Duration::MAX;
        for _ in 0..REPEATS {
            ours = ours.min(
                session
                    .infer_batch(model, &features, Architecture::Adaptive)?
                    .elapsed,
            );
            tf = tf.min(
                session
                    .infer_batch(
                        model,
                        &features,
                        Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
                    )?
                    .elapsed,
            );
            pt = pt.min(
                session
                    .infer_batch(
                        model,
                        &features,
                        Architecture::DlCentric(RuntimeProfile::pytorch_like()),
                    )?
                    .elapsed,
            );
        }
        let best_external = tf.min(pt);
        let reduction = 100.0 * (1.0 - ours.as_secs_f64() / best_external.as_secs_f64());
        table.row(
            &format!("{model} (batch {batch})"),
            &[
                Cell::Time(ours),
                Cell::Time(tf),
                Cell::Time(pt),
                Cell::Text(format!("{reduction:.0}%")),
            ],
        );
    }
    println!("{}", table.render());
    println!(
        "expected shape (paper Fig. 2): in-database serving wins because the\n\
         DL-centric path pays serialization + wire time; the margin is widest\n\
         for the smallest (Fraud) models. Encoder-FC is compute-dominated, so\n\
         with this repo's equal-kernels substitution its reduction is the\n\
         smallest of the three — see EXPERIMENTS.md."
    );
    Ok(())
}
