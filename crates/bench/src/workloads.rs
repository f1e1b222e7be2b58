//! Synthetic workload generators matching the paper's datasets.
//!
//! Each generator reproduces the *schema and shape* of the dataset the paper
//! evaluates on; values are synthetic (see DESIGN.md's substitution table).
//! All generators are seeded for reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relserve_relational::{Column, DataType, Schema, Tuple, Value};
use relserve_tensor::Tensor;

/// Seeded RNG for workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Schema of a `(key: Float, features: Vector)` similarity-join table.
pub fn keyed_feature_schema() -> Schema {
    Schema::new(vec![
        Column::new("key", DataType::Float),
        Column::new("features", DataType::Vector),
    ])
}

/// Credit-card-fraud rows: 28 anonymized features (the Kaggle/ULB shape the
/// Fraud-FC models consume).
pub fn fraud_rows(n: usize, seed: u64) -> Vec<Tuple> {
    dense_feature_rows(n, 28, seed)
}

/// Dense feature rows of arbitrary width.
fn dense_feature_rows(n: usize, width: usize, seed: u64) -> Vec<Tuple> {
    let mut r = rng(seed);
    (0..n)
        .map(|i| {
            let features: Vec<f32> = (0..width).map(|_| r.gen_range(-2.0f32..2.0)).collect();
            Tuple::new(vec![Value::Int(i as i64), Value::Vector(features)])
        })
        .collect()
}

/// A dense feature batch (the tensor form of [`dense_feature_rows`]).
pub fn feature_batch(n: usize, width: usize, seed: u64) -> Tensor {
    let mut r = rng(seed);
    Tensor::from_fn([n, width], |_| r.gen_range(-2.0f32..2.0))
}

/// Amazon-14k-style extreme-classification batch: mostly-sparse positive
/// bag-of-words activations over `features` dims (scaled from 597,540).
pub fn amazon_batch(n: usize, features: usize, seed: u64) -> Tensor {
    let mut r = rng(seed);
    let mut t = Tensor::zeros([n, features]);
    // ~0.5 % of features active per example, like a bag-of-words row.
    let active = (features / 200).max(4);
    for row in 0..n {
        for _ in 0..active {
            let col = r.gen_range(0..features);
            t.data_mut()[row * features + col] = r.gen_range(0.1f32..1.0);
        }
    }
    t
}

/// NHWC image tiles in `[0, 1)` (DeepBench inputs, LandCover tiles).
pub fn image_batch(n: usize, h: usize, w: usize, c: usize, seed: u64) -> Tensor {
    let mut r = rng(seed);
    Tensor::from_fn([n, h, w, c], |_| r.gen_range(0.0f32..1.0))
}

/// A Zipf-skewed stream of pool-slot indices: slot `k` is drawn with
/// probability ∝ 1/(k+1)^s. Models the repeat-heavy request mix of online
/// fraud scoring (a few hot accounts dominate) where an inference-result
/// cache pays off; `s = 0` degenerates to uniform.
pub fn skewed_request_stream(n: usize, pool: usize, s: f64, seed: u64) -> Vec<usize> {
    assert!(pool > 0, "need a non-empty slot pool");
    let mut r = rng(seed);
    let weights: Vec<f64> = (0..pool).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut x = r.gen_range(0.0..total);
            for (k, w) in weights.iter().enumerate() {
                if x < *w {
                    return k;
                }
                x -= w;
            }
            pool - 1
        })
        .collect()
}

/// Perturb a feature row by uniform noise in `(-eps, eps)` per dimension —
/// the "same entity, slightly different measurement" variants a semantic
/// cache answers as near hits.
pub fn jittered_row(base: &[f32], eps: f32, seed: u64) -> Vec<f32> {
    if eps == 0.0 {
        return base.to_vec();
    }
    let mut r = rng(seed);
    base.iter().map(|v| v + r.gen_range(-eps..eps)).collect()
}

/// The §7.2.1 Bosch-like vertical split: two tables of `width/2` features
/// each, with correlated float join keys. `fan` controls the similarity
/// join's expansion factor: `fan` rows on each side share a key bucket, so
/// each D1 row band-matches ~`fan` D2 rows — the typical behaviour of an
/// ε-join on correlated continuous columns (the paper's
/// highest-correlated-pair setup).
pub fn bosch_split_tables(
    n: usize,
    width: usize,
    fan: usize,
    seed: u64,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut r = rng(seed);
    let fan = fan.max(1);
    let half = width / 2;
    let mut d1 = Vec::with_capacity(n);
    let mut d2 = Vec::with_capacity(n);
    for i in 0..n {
        // `fan` consecutive rows share a key bucket; jitter stays well
        // inside the ε = 0.15 band the experiments use.
        let base = (i / fan) as f32;
        let f1: Vec<f32> = (0..half).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let f2: Vec<f32> = (0..width - half)
            .map(|_| r.gen_range(-1.0f32..1.0))
            .collect();
        d1.push(Tuple::new(vec![
            Value::Float(base + r.gen_range(-0.05f32..0.05)),
            Value::Vector(f1),
        ]));
        d2.push(Tuple::new(vec![
            Value::Float(base + r.gen_range(-0.05f32..0.05)),
            Value::Vector(f2),
        ]));
    }
    (d1, d2)
}

/// MNIST-like synthetic digits: 10 Gaussian class clusters in `dim`
/// dimensions. `spread` controls class overlap (larger → harder task,
/// more cache-induced errors).
pub fn synthetic_digits(n: usize, dim: usize, spread: f32, seed: u64) -> (Tensor, Vec<usize>) {
    let (x, y, _, _) = synthetic_digits_split(n, 0, dim, spread, seed);
    (x, y)
}

/// Train/test split drawn from the **same** class centroids (the centroids
/// are the "true" digit shapes; train and test differ only in noise).
/// Returns `(train_x, train_y, test_x, test_y)`.
fn synthetic_digits_split(
    train_n: usize,
    test_n: usize,
    dim: usize,
    spread: f32,
    seed: u64,
) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
    let mut r = rng(seed);
    let centroids: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..dim).map(|_| r.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut draw = |n: usize| {
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 10;
            for &cv in centroids[class].iter().take(dim) {
                data.push(cv + r.gen_range(-spread..spread));
            }
            labels.push(class);
        }
        (Tensor::from_vec([n, dim], data).expect("sized"), labels)
    };
    let (train_x, train_y) = draw(train_n);
    let (test_x, test_y) = draw(test_n);
    (train_x, train_y, test_x, test_y)
}

/// Expected L2 distance between a query and its nearest same-class cached
/// key: both are `centroid + U(-spread, spread)^dim`, so the difference per
/// dim has variance `2·spread²/3`.
pub fn expected_same_class_distance(dim: usize, spread: f32) -> f32 {
    (dim as f32 * 2.0 * spread * spread / 3.0).sqrt()
}

/// Digits whose **fine strokes and coarse shape can disagree** — the
/// ambiguous-handwriting mechanism behind the §7.2.2 accuracy drop.
///
/// Every example carries its true label as a low-energy per-class *stroke
/// template* (`±stroke_amp` over the first 64 dims — distributed like the
/// fine pen strokes that distinguish a 7 from a 1), while the remaining dims
/// hold a high-energy "shape": a class centroid plus noise. With probability
/// `confusion` an example's shape is drawn from a *different* class (a 7
/// written to look like a 1). A trained model reads the strokes and stays
/// accurate; an L2 nearest-neighbor cache is dominated by the shape dims and
/// returns the look-alike class's answer for confused queries — precisely
/// how approximate result caching loses accuracy in the paper.
#[allow(clippy::too_many_arguments)]
pub fn synthetic_digits_decoupled(
    train_n: usize,
    test_n: usize,
    dim: usize,
    spread: f32,
    train_confusion: f32,
    test_confusion: f32,
    stroke_amp: f32,
    seed: u64,
) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
    const STROKE_DIMS: usize = 64;
    assert!(dim > STROKE_DIMS, "need room for the stroke dims");
    let mut r = rng(seed);
    let shape_dim = dim - STROKE_DIMS;
    let strokes: Vec<Vec<f32>> = (0..10)
        .map(|_| {
            (0..STROKE_DIMS)
                .map(|_| {
                    if r.gen_range(0.0f32..1.0) < 0.5 {
                        stroke_amp
                    } else {
                        -stroke_amp
                    }
                })
                .collect()
        })
        .collect();
    let centroids: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..shape_dim).map(|_| r.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let draw = |n: usize, confusion: f32, r: &mut StdRng| {
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 10;
            let shape_class = if r.gen_range(0.0f32..1.0) < confusion {
                (label + r.gen_range(1usize..10)) % 10
            } else {
                label
            };
            for &sv in strokes[label].iter().take(STROKE_DIMS) {
                data.push(sv + r.gen_range(-spread * 0.25..spread * 0.25));
            }
            for &cv in centroids[shape_class].iter().take(shape_dim) {
                data.push(cv + r.gen_range(-spread..spread));
            }
            labels.push(label);
        }
        (Tensor::from_vec([n, dim], data).expect("sized"), labels)
    };
    let (train_x, train_y) = draw(train_n, train_confusion, &mut r);
    let (test_x, test_y) = draw(test_n, test_confusion, &mut r);
    (train_x, train_y, test_x, test_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraud_rows_have_paper_width() {
        let rows = fraud_rows(10, 1);
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert_eq!(row.value(1).unwrap().as_vector().unwrap().len(), 28);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(fraud_rows(5, 42), fraud_rows(5, 42));
        assert_ne!(fraud_rows(5, 42), fraud_rows(5, 43));
        let (a, _) = synthetic_digits(10, 16, 0.1, 7);
        let (b, _) = synthetic_digits(10, 16, 0.1, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn amazon_batch_is_sparse() {
        let t = amazon_batch(4, 2000, 3);
        let nonzero = t.data().iter().filter(|v| **v != 0.0).count();
        // ≈ 4 rows × 10 active ± collisions.
        assert!(nonzero > 8 && nonzero < 60, "nonzero = {nonzero}");
    }

    #[test]
    fn skewed_stream_is_hot_headed() {
        let stream = skewed_request_stream(1000, 8, 1.1, 17);
        assert_eq!(stream.len(), 1000);
        assert!(stream.iter().all(|&s| s < 8));
        let hot = stream.iter().filter(|&&s| s == 0).count();
        let cold = stream.iter().filter(|&&s| s == 7).count();
        // Slot 0 outdraws slot 7 by roughly 8^1.1 ≈ 9x in expectation.
        assert!(hot > 3 * cold, "hot {hot} cold {cold}");
        assert_eq!(stream, skewed_request_stream(1000, 8, 1.1, 17));
    }

    #[test]
    fn jittered_row_stays_within_eps() {
        let base = vec![0.5f32; 16];
        let jit = jittered_row(&base, 1e-3, 3);
        assert_ne!(base, jit);
        for (a, b) in base.iter().zip(&jit) {
            assert!((a - b).abs() < 1e-3);
        }
        assert_eq!(jittered_row(&base, 0.0, 3), base);
    }

    #[test]
    fn bosch_tables_join_pairwise() {
        let (d1, d2) = bosch_split_tables(20, 10, 1, 5);
        assert_eq!(d1.len(), 20);
        for (a, b) in d1.iter().zip(&d2) {
            let ka = a.value(0).unwrap().as_float().unwrap();
            let kb = b.value(0).unwrap().as_float().unwrap();
            assert!((ka - kb).abs() <= 0.1);
            assert_eq!(a.value(1).unwrap().as_vector().unwrap().len(), 5);
            assert_eq!(b.value(1).unwrap().as_vector().unwrap().len(), 5);
        }
    }

    #[test]
    fn bosch_fan_groups_keys() {
        let (d1, _) = bosch_split_tables(12, 10, 4, 6);
        let key = |i: usize| d1[i].value(0).unwrap().as_float().unwrap();
        // Rows 0..4 share bucket 0, rows 4..8 bucket 1, etc.
        assert!((key(0) - key(3)).abs() <= 0.1);
        assert!((key(3) - key(4)).abs() > 0.5);
    }

    #[test]
    fn digits_cluster_by_class() {
        let (x, y) = synthetic_digits(100, 32, 0.1, 9);
        // Same-class rows are closer than different-class rows on average.
        let dist = |a: usize, b: usize| {
            relserve_tensor::ops::l2_distance(x.row(a).unwrap(), x.row(b).unwrap())
        };
        let same = dist(0, 10); // both class 0
        let diff = dist(0, 1); // class 0 vs class 1
        assert!(same < diff, "same {same} diff {diff}");
        assert_eq!(y[0], y[10]);
    }
}
