//! Reproduce §7.2.1: model decomposition and push-down (paper: 5.7×).
//!
//! Pipeline: similarity-join two vertically-partitioned Bosch-like feature
//! tables (484 + 484 features) on their most-correlated column pair, then
//! run the 968/256/2 FFNN. Both plans are one session join query
//! (`InferenceSession::infer_join`): forced UDF-centric, it joins first and
//! multiplies the gathered 968-wide rows after; adaptive, the optimizer
//! pushes `W1×D1` and `W2×D2` below the join so the join moves 256-wide
//! partials instead of 484-wide feature halves. Each plan is timed over the
//! join and the forward (the outcome's `elapsed`) and end to end, the two
//! tables' scans included.
//!
//! ```sh
//! cargo run --release -p relserve-bench --bin repro_decomposition
//! ```

use relserve_bench::config::{scaling_banner, BOSCH_FAN, BOSCH_ROWS, BOSCH_WIDTH};
use relserve_bench::report::{format_duration, timed};
use relserve_bench::workloads;
use relserve_core::{Architecture, InferenceSession, JoinQuery, JoinSide, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::AdmissionPolicy;
use std::time::Duration;

/// Timed runs of each plan, alternating, after one untimed run of each.
const ROUNDS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{}",
        scaling_banner("§7.2.1: model decomposition & push-down")
    );
    let session = InferenceSession::open(SessionConfig::default())?;
    let (rows1, rows2) = workloads::bosch_split_tables(BOSCH_ROWS, BOSCH_WIDTH, BOSCH_FAN, 10);
    for (table, rows) in [("bosch_d1", &rows1), ("bosch_d2", &rows2)] {
        session.create_table(table, workloads::keyed_feature_schema())?;
        session.insert(table, rows)?;
    }
    session.load_model(zoo::bosch_ffnn(&mut seeded_rng(11))?)?;
    let side = |table| JoinSide {
        table,
        key: "key",
        features: "features",
    };
    let query = JoinQuery {
        left: side("bosch_d1"),
        right: side("bosch_d2"),
        epsilon: 0.15,
    };
    println!(
        "D1, D2: {BOSCH_ROWS} rows x {} features each; similarity join expands ~{BOSCH_FAN}x;\n\
         FFNN 968/256/2 over the joined features\n",
        BOSCH_WIDTH / 2
    );

    let policy = AdmissionPolicy::default();
    let plans = [Architecture::UdfCentric, Architecture::Adaptive];
    // Per plan, the timed rounds' [join + forward, end to end].
    let mut times: [[Vec<Duration>; 2]; 2] = Default::default();
    let mut outcomes = vec![];
    for round in 0..=ROUNDS {
        outcomes.clear();
        for (plan, times) in plans.iter().zip(&mut times) {
            let (outcome, total) =
                timed(|| session.infer_join("Bosch-FFNN", &query, plan.clone(), &policy));
            let outcome = outcome?;
            if round > 0 {
                times[0].push(outcome.elapsed);
                times[1].push(total);
            }
            outcomes.push(outcome);
        }
    }

    // Correctness: both plans produce the same predictions.
    let pushed_plan = outcomes[1]
        .plan
        .clone()
        .expect("an in-database query has a plan");
    assert_eq!(
        pushed_plan.pushdown,
        Some(BOSCH_WIDTH / 2),
        "adaptive pushes layer 0 down"
    );
    assert_eq!(outcomes[0].plan.as_ref().map(|p| p.pushdown), Some(None));
    let mut dense = outcomes.into_iter().map(|o| o.output.into_dense());
    let (baseline, pushed) = (dense.next().unwrap()?, dense.next().unwrap()?);
    assert_eq!(baseline.shape(), pushed.shape());
    let max_diff = baseline.max_abs_diff(&pushed)?;
    assert!(max_diff <= 1e-5, "plans diverged: {max_diff}");

    let median = |times: &[Duration]| {
        let mut sorted = times.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };
    println!("median of {ROUNDS} alternating runs    join + forward   end to end (scans included)");
    let labels = ["join-then-infer (udf-centric)", "push-down (adaptive)"];
    for (label, [span, total]) in labels.iter().zip(&times) {
        let [span, total] = [median(span), median(total)].map(format_duration);
        println!("{label:<33} {span:>15}   {total:>12}");
    }
    // The ratio of the medians, and the range of the per-run ratios.
    let speedup = |at: usize| {
        let [base, push] = [&times[0][at], &times[1][at]];
        let secs = |times: &[Duration]| median(times).as_secs_f64();
        let runs = base
            .iter()
            .zip(push)
            .map(|(b, p)| b.as_secs_f64() / p.as_secs_f64());
        let (lo, hi) = runs.fold((f64::MAX, 0f64), |(lo, hi), r| (lo.min(r), hi.max(r)));
        format!("{:.1}x ({lo:.1}-{hi:.1})", secs(base) / secs(push))
    };
    let (span, total) = (speedup(0), speedup(1));
    println!("speedup (per-run range)    {span:>21}   {total:>12}   (paper: 5.7x)");
    let scans = median(&times[1][1]).saturating_sub(median(&times[1][0]));
    println!(
        "the scans take {} of the push-down query",
        format_duration(scans)
    );
    println!("\nthe adaptive plan:\n{}", pushed_plan.explain());
    println!(
        "both plans agree on all {} output rows (max |diff| = {max_diff:.2e})",
        baseline.shape().dim(0)
    );
    Ok(())
}
