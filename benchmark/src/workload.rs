//! What the four workloads share: their names, the arguments of one run, the
//! outcome a run reports, and the oracle comparisons.

use crate::json::Json;
use crate::metrics::Values;
use crate::stats::{median, percentile, segment_of, sorted, tail_percentile};
use relserve_tensor::Tensor;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "online_small",
    "online_skewed",
    "batch_compute",
    "large_spill",
];

/// Seed of every model's weights. The model is part of the program under
/// test, not of its input, so `--seed` does not change it.
pub const MODEL_SEED: u64 = 0x5EED_0DE1;

/// Equal parts a measured window is cut into. `rows_per_s` is the median
/// part's rate and `latency_p50_ms` the median of the parts' own medians, so
/// an episode of interference from outside the program (this is a shared
/// sandbox) that covers fewer than half the parts moves neither.
pub const SEGMENTS: usize = 10;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name, one of [`NAMES`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
}

impl RunArgs {
    /// How often set-up is repeated; `setup_s` is the median. The traced
    /// pass reports no `setup_s` and sets up once.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            5
        }
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored, were refused, went unanswered or mismatched
    /// the oracle.
    pub failed: u64,
    /// False when the measurement itself cannot be trusted: the generator
    /// ran late, the backlog was still growing, or too few operations ran.
    pub valid: bool,
    /// Every metric measured, by name.
    pub values: Values,
    /// The workload's parameters, for the result file.
    pub params: Vec<(String, Json)>,
}

/// Run `setup` `n` times, tearing each down before the next; returns the
/// last environment and the median set-up time in seconds.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut env = None;
    for _ in 0..n.max(1) {
        drop(env.take());
        let start = Instant::now();
        env = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (env.expect("set up at least once"), median(&times))
}

/// Latency samples of one kind of operation: when in the window each
/// completed (seconds since the window began) and how long it took (ms).
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<(f64, f64)>,
}

impl Latencies {
    /// Add one operation that completed `at_s` into the window.
    pub fn push(&mut self, at_s: f64, d: Duration) {
        self.samples.push((at_s, d.as_secs_f64() * 1e3));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Take over the samples of `other`.
    pub fn extend(&mut self, other: Latencies) {
        self.samples.extend(other.samples);
    }

    fn sorted_ms(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|(_, ms)| *ms).collect())
    }

    /// Fraction of `attempted` operations that did not complete within
    /// `limit_ms`; operations without a sample (failed, unanswered) miss.
    pub fn miss_frac(&self, limit_ms: f64, attempted: u64) -> f64 {
        let met = self
            .samples
            .iter()
            .filter(|(_, ms)| *ms <= limit_ms)
            .count() as u64;
        attempted.saturating_sub(met) as f64 / attempted.max(1) as f64
    }

    /// `(p50, tail)` in ms. When fewer than ten samples lie beyond the tail
    /// percentile it is refused: the largest sample stands in for it and the
    /// reason comes back, which makes the run invalid. `None` without any
    /// sample.
    pub fn p50_and_tail(&self, tail_p: f64) -> Option<(f64, f64, Option<String>)> {
        let s = self.sorted_ms();
        let largest = *s.last()?;
        let p50 = percentile(&s, 0.5);
        Some(match tail_percentile(&s, tail_p) {
            Ok(tail) => (p50, tail, None),
            Err(why) => (p50, largest, Some(why)),
        })
    }

    /// Percentile `p` of the samples completing in each of `segments` equal
    /// parts of a `window_s` window; a part without samples is left out.
    pub fn segment_percentiles(&self, p: f64, window_s: f64, segments: usize) -> Vec<f64> {
        let mut parts = vec![Vec::new(); segments];
        for (at, ms) in &self.samples {
            if let Some(part) = segment_of(*at, window_s, segments) {
                parts[part].push(*ms);
            }
        }
        parts
            .into_iter()
            .filter(|part| !part.is_empty())
            .map(|part| percentile(&sorted(part), p))
            .collect()
    }

    /// The nearest-rank percentile in microseconds, 0 without samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        percentile(&self.sorted_ms(), p) * 1e3
    }
}

/// Report the latency of a `window_s` window; returns whether it supports
/// its tail percentile.
pub fn report_latency(
    values: &mut Values,
    what: &str,
    latencies: &Latencies,
    window_s: f64,
    tail_p: f64,
) -> bool {
    let Some((p50, tail, refused)) = latencies.p50_and_tail(tail_p) else {
        println!("{what}: INVALID, no operation completed");
        values.insert("latency_p50_ms", 0.0);
        return false;
    };
    let parts = latencies.segment_percentiles(0.5, window_s, SEGMENTS);
    // The query that straddles the end of a closed-loop window completes
    // outside it, so a window with one sample can be left without parts.
    let steady_p50 = if parts.is_empty() {
        p50
    } else {
        median(&parts)
    };
    values.insert("latency_p50_ms", steady_p50);
    values.insert("diag.latency_tail_ms", tail);
    println!(
        "{what}: p50 {steady_p50:.4} ms (median of the parts), whole window p50 {p50:.4} ms, p{:.0} {tail:.4} ms over {} samples",
        tail_p * 100.0,
        latencies.len()
    );
    println!("segments: p50 ms {parts:.3?}");
    if let Some(why) = &refused {
        println!("{what}: INVALID, {why}; the largest sample stands in for the tail");
    }
    refused.is_none()
}

/// Elements of `actual` further from `expected` than `1e-4` relative, with
/// the mean magnitude of `expected` as the floor of the scale so that
/// entries near zero are not held to an impossible absolute error. A shape
/// mismatch counts every element.
pub fn dense_mismatches(actual: &Tensor, expected: &Tensor) -> usize {
    if actual.shape() != expected.shape() {
        return expected.len().max(1);
    }
    let floor =
        expected.data().iter().map(|v| v.abs() as f64).sum::<f64>() / expected.len().max(1) as f64;
    actual
        .data()
        .iter()
        .zip(expected.data())
        .filter(|(a, e)| {
            let (a, e) = (**a as f64, **e as f64);
            let error = (a - e).abs();
            error.is_nan() || error > 1e-4 * (e.abs() + floor)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::{zoo, Layer};
    use relserve_tensor::parallel::Parallelism;

    #[test]
    fn setup_repeats_and_reports_the_median() {
        let mut calls = 0;
        let (env, secs) = repeat_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((env, calls), (3, 3));
        assert!(secs >= 0.0);
    }

    #[test]
    fn miss_fraction_counts_the_unanswered() {
        let mut l = Latencies::default();
        for (at, ms) in [(0.1, 1), (0.2, 2), (1.5, 3), (1.6, 10)] {
            l.push(at, Duration::from_millis(ms));
        }
        assert_eq!(l.segment_percentiles(0.5, 2.0, 2), vec![1.0, 3.0]);
        assert_eq!(
            l.segment_percentiles(0.5, 4.0, 2),
            vec![2.0],
            "empty part left out"
        );
        // 5 attempted, 4 answered, 3 within 5 ms.
        assert!((l.miss_frac(5.0, 5) - 0.4).abs() < 1e-12);
        let (p50, tail, refused) = l.p50_and_tail(0.9).unwrap();
        assert_eq!((p50, tail), (2.0, 10.0));
        assert!(refused.is_some(), "4 samples support no tail");
        assert!(Latencies::default().p50_and_tail(0.9).is_none());
    }

    /// The oracle check must fail when one weight of the served model moves.
    #[test]
    fn oracle_detects_a_perturbed_weight() {
        let model = zoo::fraud_fc_256(&mut seeded_rng(MODEL_SEED)).unwrap();
        let batch = crate::gen::features(1, 64, 28);
        let par = Parallelism::serial();
        let expected = model.forward(&batch, &par).unwrap();
        assert_eq!(dense_mismatches(&expected, &expected), 0);

        let mut perturbed = model.clone();
        let Layer::Dense { weight, .. } = &mut perturbed.layers_mut()[1] else {
            unreachable!()
        };
        weight.data_mut()[0] += 0.5;
        let actual = perturbed.forward(&batch, &par).unwrap();
        assert!(dense_mismatches(&actual, &expected) > 0);
        assert_ne!(
            perturbed.predict(&batch, &par).unwrap(),
            model.predict(&batch, &par).unwrap(),
            "a moved output weight must flip some prediction"
        );
        // NaN never passes.
        let mut nan = expected.clone();
        nan.data_mut()[3] = f32::NAN;
        assert_eq!(dense_mismatches(&nan, &expected), 1);
    }
}
