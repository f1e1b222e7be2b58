//! Similarity (band) join on float keys.
//!
//! The §7.2.1 pipeline joins two feature tables on the *similarity* of two
//! float columns: `|l - r| ≤ ε`. A nested loop would be quadratic; this join
//! buckets the right keys by `floor(key / ε)`, so each left key inspects
//! three buckets (its own and both neighbours), then verifies the predicate
//! exactly. Bucket arithmetic saturates: a key of ±∞, or one beyond
//! `i64::MAX · ε`, lands in the last bucket instead of wrapping, and NaN
//! keys join nothing, exactly as under the nested loop.

use crate::error::{Error, Result};
use std::collections::HashMap;

/// Every `(i, j)` with `|left[i] - right[j]| ≤ epsilon`: in `left` order,
/// and for one left key by bucket (its lower neighbour, its own, its upper
/// neighbour), each bucket in `right` order.
pub fn band_join(left: &[f32], right: &[f32], epsilon: f32) -> Result<Vec<(usize, usize)>> {
    if epsilon <= 0.0 || !epsilon.is_finite() {
        return Err(Error::Plan(format!(
            "a band join needs a positive finite epsilon, got {epsilon}"
        )));
    }
    // `as` saturates ±∞ and out-of-range quotients and maps NaN to 0.
    let bucket = |key: f32| (key / epsilon).floor() as i64;
    let mut build: HashMap<i64, Vec<usize>> = HashMap::new();
    for (j, &key) in right.iter().enumerate() {
        build.entry(bucket(key)).or_default().push(j);
    }
    let mut pairs = Vec::new();
    for (i, &key) in left.iter().enumerate() {
        let b = bucket(key);
        for probe in b.saturating_sub(1)..=b.saturating_add(1) {
            for &j in build.get(&probe).map_or(&[][..], Vec::as_slice) {
                if (key - right[j]).abs() <= epsilon {
                    pairs.push((i, j));
                }
            }
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_loop(left: &[f32], right: &[f32], eps: f32) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if (l - r).abs() <= eps {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    fn sorted(mut pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn matches_within_epsilon() {
        let out = band_join(&[1.0, 5.0], &[1.05, 7.0], 0.1).unwrap();
        assert_eq!(out, vec![(0, 0)]);
    }

    #[test]
    fn boundary_is_inclusive() {
        assert_eq!(band_join(&[0.0], &[0.5], 0.5).unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn cross_bucket_matches_found() {
        // 0.99 and 1.01 land in different ε=0.5 buckets (1 and 2) but differ by 0.02.
        assert_eq!(band_join(&[0.99], &[1.01], 0.5).unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn matches_agree_with_nested_loop() {
        let left: Vec<f32> = (0..40).map(|i| (i as f32 * 0.37) % 5.0).collect();
        let right: Vec<f32> = (0..40).map(|i| (i as f32 * 0.61) % 5.0).collect();
        let expect = nested_loop(&left, &right, 0.15);
        assert!(!expect.is_empty(), "the case needs some matches");
        assert_eq!(sorted(band_join(&left, &right, 0.15).unwrap()), expect);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        for eps in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let err = band_join(&[1.0], &[1.0], eps).unwrap_err();
            assert!(matches!(err, Error::Plan(_)), "{eps}: {err}");
        }
    }

    #[test]
    fn extreme_keys_join_what_the_nested_loop_joins() {
        // ±∞ and 1e30 saturate the bucket (the neighbours of `i64::MAX`
        // and `i64::MIN` would overflow); NaN lands in bucket 0.
        let keys = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e30,
            -1e30,
            f32::MAX,
            0.0,
            0.1,
            1e30,
            f32::INFINITY,
        ];
        for eps in [0.15, 1.0, 1e-30] {
            let expect = nested_loop(&keys, &keys, eps);
            assert_eq!(
                sorted(band_join(&keys, &keys, eps).unwrap()),
                expect,
                "{eps}"
            );
        }
        // Equal finite extremes join; infinities and NaN join nothing.
        let out = band_join(
            &[1e30, f32::INFINITY, f32::NAN],
            &[1e30, f32::INFINITY, f32::NAN],
            0.5,
        );
        assert_eq!(out.unwrap(), vec![(0, 0)]);
    }
}
