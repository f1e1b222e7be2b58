//! Dense row-major `f32` tensor.

use crate::error::{Error, Result};
use crate::shape::Shape;
use std::fmt;

/// A dense, row-major, `f32` tensor.
///
/// All model parameters and activations in the paper's workloads are single
/// precision, so the element type is fixed; this keeps kernels monomorphic
/// and fast without a generics tax on every downstream crate.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a shape and a data buffer.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.num_elements() != data.len() {
            return Err(Error::BufferSizeMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(f(i));
        }
        Tensor { shape, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of bytes of payload data.
    pub fn num_bytes(&self) -> usize {
        self.shape.num_bytes()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a flat (row-major) index.
    pub fn at(&self, flat: usize) -> Result<f32> {
        self.data.get(flat).copied().ok_or(Error::IndexOutOfBounds {
            index: flat,
            bound: self.data.len(),
        })
    }

    /// Element of a rank-2 tensor at `(row, col)`.
    pub fn at2(&self, row: usize, col: usize) -> Result<f32> {
        let (rows, cols) = self.shape.as_matrix()?;
        if row >= rows || col >= cols {
            return Err(Error::IndexOutOfBounds {
                index: row * cols + col,
                bound: rows * cols,
            });
        }
        Ok(self.data[row * cols + col])
    }

    /// Reinterpret the tensor with a new shape (same element count).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if !self.shape.can_reshape_to(&shape) {
            return Err(Error::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// A contiguous row slice of a rank-2 tensor.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.shape.as_matrix()?;
        if r >= rows {
            return Err(Error::IndexOutOfBounds {
                index: r,
                bound: rows,
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor> {
        let (rows, cols) = self.shape.as_matrix()?;
        let mut out = vec![0.0f32; rows * cols];
        // Tile the transpose to stay cache-friendly on large weight matrices.
        const TILE: usize = 32;
        for rb in (0..rows).step_by(TILE) {
            for cb in (0..cols).step_by(TILE) {
                for r in rb..(rb + TILE).min(rows) {
                    for c in cb..(cb + TILE).min(cols) {
                        out[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        Tensor::from_vec([cols, rows], out)
    }

    /// Extract the sub-matrix `[row0..row1) x [col0..col1)` of a rank-2 tensor.
    pub fn slice2(&self, row0: usize, row1: usize, col0: usize, col1: usize) -> Result<Tensor> {
        let (rows, cols) = self.shape.as_matrix()?;
        if row1 > rows || col1 > cols || row0 > row1 || col0 > col1 {
            return Err(Error::IndexOutOfBounds {
                index: row1.max(col1),
                bound: rows.max(cols),
            });
        }
        let (h, w) = (row1 - row0, col1 - col0);
        let mut out = Vec::with_capacity(h * w);
        for r in row0..row1 {
            out.extend_from_slice(&self.data[r * cols + col0..r * cols + col1]);
        }
        Tensor::from_vec([h, w], out)
    }

    /// Concatenate two rank-2 tensors horizontally (same row count).
    pub fn hconcat(&self, other: &Tensor) -> Result<Tensor> {
        let (r1, c1) = self.shape.as_matrix()?;
        let (r2, c2) = other.shape.as_matrix()?;
        if r1 != r2 {
            return Err(Error::ShapeMismatch {
                op: "hconcat",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity(r1 * (c1 + c2));
        for r in 0..r1 {
            out.extend_from_slice(&self.data[r * c1..(r + 1) * c1]);
            out.extend_from_slice(&other.data[r * c2..(r + 1) * c2]);
        }
        Tensor::from_vec([r1, c1 + c2], out)
    }

    /// Concatenate two rank-2 tensors vertically (same column count).
    pub fn vconcat(&self, other: &Tensor) -> Result<Tensor> {
        let (r1, c1) = self.shape.as_matrix()?;
        let (r2, c2) = other.shape.as_matrix()?;
        if c1 != c2 {
            return Err(Error::ShapeMismatch {
                op: "vconcat",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity((r1 + r2) * c1);
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&other.data);
        Tensor::from_vec([r1 + r2, c1], out)
    }

    /// Maximum absolute difference between two tensors of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// True if every element is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{} elements]", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_size() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 3]),
            Err(Error::BufferSizeMismatch { .. })
        ));
    }

    #[test]
    fn eye_has_ones_on_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at2(i, j).unwrap(), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_fn([3, 5], |i| i as f32);
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_moves_elements() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn slice2_extracts_submatrix() {
        let t = Tensor::from_fn([4, 4], |i| i as f32);
        let s = t.slice2(1, 3, 2, 4).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.data(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn hconcat_then_slice_recovers_parts() {
        let a = Tensor::from_fn([2, 3], |i| i as f32);
        let b = Tensor::from_fn([2, 2], |i| 100.0 + i as f32);
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 5]);
        assert_eq!(c.slice2(0, 2, 0, 3).unwrap(), a);
        assert_eq!(c.slice2(0, 2, 3, 5).unwrap(), b);
    }

    #[test]
    fn vconcat_stacks_rows() {
        let a = Tensor::from_fn([1, 3], |i| i as f32);
        let b = Tensor::from_fn([2, 3], |i| 10.0 + i as f32);
        let c = a.vconcat(&b).unwrap();
        assert_eq!(c.shape().dims(), &[3, 3]);
        assert_eq!(c.row(0).unwrap(), &[0.0, 1.0, 2.0]);
        assert_eq!(c.row(2).unwrap(), &[13.0, 14.0, 15.0]);
    }

    #[test]
    fn hconcat_rejects_row_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3, 3]);
        assert!(a.hconcat(&b).is_err());
    }

    #[test]
    fn reshape_checks_element_count() {
        let t = Tensor::zeros([2, 6]);
        assert!(t.clone().reshape([3, 4]).is_ok());
        assert!(t.reshape([3, 5]).is_err());
    }

    #[test]
    fn row_accessor_bounds() {
        let t = Tensor::from_fn([2, 2], |i| i as f32);
        assert_eq!(t.row(1).unwrap(), &[2.0, 3.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::full([2, 2], 1.0);
        let b = Tensor::full([2, 2], 1.0 + 1e-6);
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-7));
    }
}
