//! Weight initializers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relserve_tensor::{Shape, Tensor};

/// He (Kaiming) normal initialization for relu networks: each weight is
/// drawn from `N(0, sqrt(2 / fan_in))`, approximated here by the sum of
/// twelve uniforms (Irwin–Hall) to avoid pulling in a distributions crate.
pub fn he_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    gaussian(shape, 0.0, std, rng)
}

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut StdRng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    let shape = shape.into();
    let n = shape.num_elements();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(rng.gen_range(-a..=a));
    }
    Tensor::from_vec(shape, data).expect("sized to shape")
}

/// Approximate `N(mean, std)` samples via Irwin–Hall.
fn gaussian(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let n = shape.num_elements();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let s: f32 = (0..12).map(|_| rng.gen_range(0.0f32..1.0)).sum::<f32>() - 6.0;
        data.push(mean + std * s);
    }
    Tensor::from_vec(shape, data).expect("sized to shape")
}

/// A deterministically-seeded RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_normal_has_expected_scale() {
        let mut rng = seeded_rng(1);
        let t = he_normal([1000], 500, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / 1000.0;
        let var: f32 = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 1000.0;
        let expected_var = 2.0 / 500.0;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - expected_var).abs() < expected_var, "var = {var}");
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = seeded_rng(2);
        let t = xavier_uniform([100, 100], 100, 100, &mut rng);
        let a = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn same_seed_same_weights() {
        let a = he_normal([64], 64, &mut seeded_rng(42));
        let b = he_normal([64], 64, &mut seeded_rng(42));
        assert_eq!(a, b);
        let c = he_normal([64], 64, &mut seeded_rng(43));
        assert_ne!(a, c);
    }
}
