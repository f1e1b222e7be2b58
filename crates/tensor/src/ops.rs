//! Elementwise operations and activations.
//!
//! These are the per-node kernels of the linear-algebra graph IR (§2.1 of the
//! paper): relu, sigmoid, tanh, softmax, bias addition, and the elementwise
//! arithmetic the training extension (§6.1) needs.
//!
//! The hot loops (relu, bias-add, axpy, scale, and the row-max/row-sum
//! reductions inside softmax) route through the [`crate::simd`] dispatch
//! table, so they run on the widest ISA the host supports — or whatever
//! `RELSERVE_ISA` forces — without the callers (activation paths in the
//! executors, the SGD update, `softmax_blocked`) changing at all. The
//! generic [`map`]/[`zip`] combinators remain scalar: they take arbitrary
//! closures the dispatch table cannot see through.

use crate::dense::Tensor;
use crate::error::{Error, Result};
use crate::simd;

/// Apply a unary function elementwise, producing a new tensor.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = t.clone();
    for v in out.data_mut() {
        *v = f(*v);
    }
    out
}

/// Apply a unary function elementwise, in place.
pub fn map_inplace(t: &mut Tensor, f: impl Fn(f32) -> f32) {
    for v in t.data_mut() {
        *v = f(*v);
    }
}

/// Elementwise binary operation on same-shape tensors.
pub fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op: "zip",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = a.clone();
    for (o, r) in out.data_mut().iter_mut().zip(b.data()) {
        *o = f(*o, *r);
    }
    Ok(out)
}

/// Elementwise addition.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op: "add",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = a.clone();
    simd::kernels().add_assign(out.data_mut(), b.data());
    Ok(out)
}

/// Elementwise subtraction.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip(a, b, |x, y| x - y)
}

/// Elementwise (Hadamard) product.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip(a, b, |x, y| x * y)
}

/// Scale every element by a constant.
pub fn scale(t: &Tensor, k: f32) -> Tensor {
    let mut out = t.clone();
    simd::kernels().scale(out.data_mut(), k);
    out
}

/// `a += b * k` in place — the fused update SGD uses.
pub fn axpy(a: &mut Tensor, b: &Tensor, k: f32) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op: "axpy",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    simd::kernels().axpy(a.data_mut(), b.data(), k);
    Ok(())
}

/// Rectified linear unit.
pub fn relu(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    relu_inplace(&mut out);
    out
}

/// Rectified linear unit, in place — the vectorized form activation paths
/// use when the input is consumed anyway.
pub fn relu_inplace(t: &mut Tensor) {
    simd::kernels().relu(t.data_mut());
}

/// Derivative mask of relu evaluated at the *pre-activation*: 1 where x > 0.
pub fn relu_grad_mask(pre: &Tensor) -> Tensor {
    map(pre, |x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Logistic sigmoid.
pub fn sigmoid(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    sigmoid_inplace(&mut out);
    out
}

/// [`sigmoid`] in place.
pub fn sigmoid_inplace(t: &mut Tensor) {
    map_inplace(t, |x| 1.0 / (1.0 + (-x).exp()));
}

/// Hyperbolic tangent.
pub fn tanh(t: &Tensor) -> Tensor {
    map(t, f32::tanh)
}

/// Add a bias row-vector to every row of a rank-2 tensor.
pub fn add_bias(t: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let mut out = t.clone();
    add_bias_inplace(&mut out, bias)?;
    Ok(out)
}

/// [`add_bias`] in place, for a caller that owns `t` and would drop it
/// anyway: no second output-sized tensor.
pub fn add_bias_inplace(t: &mut Tensor, bias: &Tensor) -> Result<()> {
    let (rows, cols) = t.shape().as_matrix()?;
    if bias.len() != cols {
        return Err(Error::ShapeMismatch {
            op: "add_bias",
            lhs: t.shape().dims().to_vec(),
            rhs: bias.shape().dims().to_vec(),
        });
    }
    let b = bias.data();
    let kernels = simd::kernels();
    for r in 0..rows {
        kernels.add_assign(&mut t.data_mut()[r * cols..(r + 1) * cols], b);
    }
    Ok(())
}

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
///
/// The row-max and row-sum reductions and the normalizing scale run on the
/// dispatched SIMD tier; only the `exp` sweep stays scalar (a vector `exp`
/// would be a polynomial approximation with its own error budget).
pub fn softmax(t: &Tensor) -> Result<Tensor> {
    let mut out = t.clone();
    softmax_inplace(&mut out)?;
    Ok(out)
}

/// [`softmax`] in place.
pub fn softmax_inplace(t: &mut Tensor) -> Result<()> {
    let (rows, cols) = t.shape().as_matrix()?;
    let kernels = simd::kernels();
    for r in 0..rows {
        let row = &mut t.data_mut()[r * cols..(r + 1) * cols];
        let max = kernels.max(row);
        for v in row.iter_mut() {
            *v = (*v - max).exp();
        }
        let sum = kernels.sum(row);
        if sum > 0.0 {
            kernels.scale(row, 1.0 / sum);
        }
    }
    Ok(())
}

/// Index of the maximum entry in each row of a rank-2 tensor.
pub fn argmax_rows(t: &Tensor) -> Result<Vec<usize>> {
    let (rows, cols) = t.shape().as_matrix()?;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        let mut best = 0usize;
        for (i, v) in row.iter().enumerate() {
            if *v > row[best] {
                best = i;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Sum of every element.
pub fn sum(t: &Tensor) -> f32 {
    simd::kernels().sum(t.data())
}

/// Column-wise sums of a rank-2 tensor (used for bias gradients).
pub fn col_sums(t: &Tensor) -> Result<Tensor> {
    let (rows, cols) = t.shape().as_matrix()?;
    let mut out = vec![0.0f32; cols];
    let kernels = simd::kernels();
    for r in 0..rows {
        kernels.add_assign(&mut out, &t.data()[r * cols..(r + 1) * cols]);
    }
    Tensor::from_vec([cols], out)
}

/// Euclidean (L2) distance between two equal-length vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Pearson correlation between two equal-length slices; 0.0 when degenerate.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f32;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f32>() / n;
    let mb = b.iter().sum::<f32>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        let dx = x - ma;
        let dy = y - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    let denom = (va * vb).sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        cov / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec([4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_grad_mask_matches_relu() {
        let t = Tensor::from_vec([3], vec![-1.0, 0.0, 3.0]).unwrap();
        assert_eq!(relu_grad_mask(&t).data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax(&t).unwrap();
        for r in 0..2 {
            let row_sum: f32 = s.row(r).unwrap().iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let t = Tensor::from_vec([1, 2], vec![1000.0, 1001.0]).unwrap();
        let s = softmax(&t).unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let t = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let out = add_bias(&t, &b).unwrap();
        assert_eq!(out.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_bias_rejects_wrong_width() {
        let t = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4]);
        assert!(add_bias(&t, &b).is_err());
    }

    #[test]
    fn zip_rejects_shape_mismatch() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([2, 3]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full([3], 1.0);
        let b = Tensor::full([3], 2.0);
        axpy(&mut a, &b, 0.5).unwrap();
        assert_eq!(a.data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 5.0, 5.0, 9.0, 1.0, 2.0]).unwrap();
        assert_eq!(argmax_rows(&t).unwrap(), vec![1, 0]);
    }

    #[test]
    fn col_sums_accumulate_columns() {
        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(col_sums(&t).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn l2_distance_basic() {
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-5);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        let a = [1.0, 1.0, 1.0];
        let b = [2.0, 3.0, 4.0];
        assert_eq!(pearson(&a, &b), 0.0);
    }
}
