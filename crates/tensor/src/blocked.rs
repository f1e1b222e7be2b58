//! Blocked tensors — the relation-centric data model.
//!
//! The relation-centric architecture (§1, §7.1 of the paper) views a tensor
//! as *a collection of tensor blocks*: a relation whose tuples are
//! `(row_block, col_block, block_payload)`. A large matrix multiplication
//! then becomes a **join** on the inner block coordinate followed by an
//! **aggregation** (block-sum) on the outer coordinates, and the blocks can
//! spill to disk through the RDBMS buffer pool instead of OOM-ing.
//!
//! [`BlockedTensor`] is the in-memory form of such a relation; the
//! `relserve-relational` crate stores the same blocks in pages and executes
//! the join/aggregation plan with real relational operators.

use crate::dense::Tensor;
use crate::error::{Error, Result};
use crate::parallel::Parallelism;
use std::collections::BTreeMap;

/// How a matrix is carved into blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockingSpec {
    /// Rows per block (edge blocks may be smaller).
    pub block_rows: usize,
    /// Columns per block (edge blocks may be smaller).
    pub block_cols: usize,
}

impl BlockingSpec {
    /// A square blocking.
    pub fn square(side: usize) -> Self {
        BlockingSpec {
            block_rows: side,
            block_cols: side,
        }
    }

    /// Number of block rows needed to cover `rows` matrix rows.
    pub fn row_blocks(&self, rows: usize) -> usize {
        rows.div_ceil(self.block_rows)
    }

    /// Number of block columns needed to cover `cols` matrix columns.
    pub fn col_blocks(&self, cols: usize) -> usize {
        cols.div_ceil(self.block_cols)
    }

    /// The rows `(start, end)` block-row `rb` covers of `rows` matrix rows.
    pub fn row_range(&self, rb: usize, rows: usize) -> (usize, usize) {
        let start = rb * self.block_rows;
        (start, (start + self.block_rows).min(rows))
    }

    /// The columns `(start, end)` block-column `cb` covers of `cols`.
    pub fn col_range(&self, cb: usize, cols: usize) -> (usize, usize) {
        let start = cb * self.block_cols;
        (start, (start + self.block_cols).min(cols))
    }
}

/// Coordinate of one block inside a blocked tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockCoord {
    /// Block-row index.
    pub row: usize,
    /// Block-column index.
    pub col: usize,
}

/// A rank-2 tensor stored as a sorted collection of dense blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedTensor {
    rows: usize,
    cols: usize,
    spec: BlockingSpec,
    blocks: BTreeMap<BlockCoord, Tensor>,
}

impl BlockedTensor {
    /// An empty (all-zero, no materialized blocks) blocked tensor.
    pub fn empty(rows: usize, cols: usize, spec: BlockingSpec) -> Self {
        BlockedTensor {
            rows,
            cols,
            spec,
            blocks: BTreeMap::new(),
        }
    }

    /// Carve a dense matrix into blocks.
    pub fn from_dense(dense: &Tensor, spec: BlockingSpec) -> Result<Self> {
        let (rows, cols) = dense.shape().as_matrix()?;
        let mut blocks = BTreeMap::new();
        for br in 0..spec.row_blocks(rows) {
            let r0 = br * spec.block_rows;
            let r1 = (r0 + spec.block_rows).min(rows);
            for bc in 0..spec.col_blocks(cols) {
                let c0 = bc * spec.block_cols;
                let c1 = (c0 + spec.block_cols).min(cols);
                let block = dense.slice2(r0, r1, c0, c1)?;
                blocks.insert(BlockCoord { row: br, col: bc }, block);
            }
        }
        Ok(BlockedTensor {
            rows,
            cols,
            spec,
            blocks,
        })
    }

    /// Reassemble the dense matrix (allocates the full tensor).
    pub fn to_dense(&self) -> Result<Tensor> {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        for (coord, block) in &self.blocks {
            let (bh, bw) = block.shape().as_matrix()?;
            let r0 = coord.row * self.spec.block_rows;
            let c0 = coord.col * self.spec.block_cols;
            if r0 + bh > self.rows || c0 + bw > self.cols {
                return Err(Error::BlockingMismatch(format!(
                    "block ({},{}) of {bh}x{bw} overflows {}x{}",
                    coord.row, coord.col, self.rows, self.cols
                )));
            }
            for r in 0..bh {
                let dst0 = (r0 + r) * self.cols + c0;
                out.data_mut()[dst0..dst0 + bw].copy_from_slice(block.row(r)?);
            }
        }
        Ok(out)
    }

    /// Matrix row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The blocking spec.
    pub fn spec(&self) -> BlockingSpec {
        self.spec
    }

    /// Number of block rows.
    pub fn row_blocks(&self) -> usize {
        self.spec.row_blocks(self.rows)
    }

    /// Number of block columns.
    pub fn col_blocks(&self) -> usize {
        self.spec.col_blocks(self.cols)
    }

    /// Number of materialized blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Expected dimensions of the block at `coord` (edge blocks are smaller).
    fn block_dims(&self, coord: BlockCoord) -> (usize, usize) {
        let r0 = coord.row * self.spec.block_rows;
        let c0 = coord.col * self.spec.block_cols;
        (
            self.spec.block_rows.min(self.rows - r0.min(self.rows)),
            self.spec.block_cols.min(self.cols - c0.min(self.cols)),
        )
    }

    /// Fetch one block.
    pub fn block(&self, coord: BlockCoord) -> Result<&Tensor> {
        self.blocks.get(&coord).ok_or(Error::MissingBlock {
            row: coord.row,
            col: coord.col,
        })
    }

    /// Insert (or replace) a block; validates its dimensions.
    pub fn insert_block(&mut self, coord: BlockCoord, block: Tensor) -> Result<()> {
        let want = self.block_dims(coord);
        let got = block.shape().as_matrix()?;
        if want != got || coord.row >= self.row_blocks() || coord.col >= self.col_blocks() {
            return Err(Error::BlockingMismatch(format!(
                "block ({},{}) should be {:?}, got {:?}",
                coord.row, coord.col, want, got
            )));
        }
        self.blocks.insert(coord, block);
        Ok(())
    }

    /// Iterate blocks in `(row, col)` order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockCoord, &Tensor)> {
        self.blocks.iter().map(|(c, t)| (*c, t))
    }

    /// Payload bytes across all materialized blocks.
    pub fn num_bytes(&self) -> usize {
        self.blocks.values().map(Tensor::num_bytes).sum()
    }

    /// Largest single block payload in bytes — the working-set unit the
    /// buffer pool must hold, i.e. the quantity that replaces whole-tensor
    /// size in relation-centric memory accounting.
    pub fn max_block_bytes(&self) -> usize {
        self.blocks
            .values()
            .map(Tensor::num_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Blocked matrix multiplication `self[m,k] × other[k,n]`.
    ///
    /// This is the in-memory shape of the relation-centric plan: for every
    /// pair of blocks that **join** on the inner coordinate
    /// (`a.col == b.row`), multiply them, then **aggregate** (sum) partial
    /// products that share an output coordinate. The relational executor in
    /// `relserve-relational` runs the identical dataflow through a hash join
    /// and hash aggregation over block tuples.
    pub fn matmul(&self, other: &BlockedTensor) -> Result<BlockedTensor> {
        if self.cols != other.rows {
            return Err(Error::ShapeMismatch {
                op: "blocked matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        if self.spec.block_cols != other.spec.block_rows {
            return Err(Error::BlockingMismatch(format!(
                "inner blockings differ: {} vs {}",
                self.spec.block_cols, other.spec.block_rows
            )));
        }
        let out_spec = BlockingSpec {
            block_rows: self.spec.block_rows,
            block_cols: other.spec.block_cols,
        };
        let mut out = BlockedTensor::empty(self.rows, other.cols, out_spec);
        // Join on the shared inner coordinate, aggregate into output blocks.
        let mut acc: BTreeMap<BlockCoord, Tensor> = BTreeMap::new();
        for (ac, ablock) in &self.blocks {
            for bc in 0..other.col_blocks() {
                let bcoord = BlockCoord {
                    row: ac.col,
                    col: bc,
                };
                let Some(bblock) = other.blocks.get(&bcoord) else {
                    continue; // implicit zero block contributes nothing
                };
                let partial =
                    crate::matmul::matmul_parallel(ablock, bblock, &Parallelism::serial())?;
                let out_coord = BlockCoord {
                    row: ac.row,
                    col: bc,
                };
                match acc.get_mut(&out_coord) {
                    Some(sum) => crate::ops::axpy(sum, &partial, 1.0)?,
                    None => {
                        acc.insert(out_coord, partial);
                    }
                }
            }
        }
        for (coord, block) in acc {
            out.insert_block(coord, block)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pattern(rows: usize, cols: usize, salt: usize) -> Tensor {
        Tensor::from_fn([rows, cols], |i| ((i * 31 + salt * 7) % 23) as f32 - 11.0)
    }

    #[test]
    fn dense_roundtrip_exact_multiple() {
        let t = pattern(8, 6, 1);
        let b = BlockedTensor::from_dense(
            &t,
            BlockingSpec {
                block_rows: 4,
                block_cols: 3,
            },
        )
        .unwrap();
        assert_eq!(b.num_blocks(), 4);
        assert_eq!(b.to_dense().unwrap(), t);
    }

    #[test]
    fn dense_roundtrip_ragged_edges() {
        let t = pattern(7, 5, 2);
        let b = BlockedTensor::from_dense(&t, BlockingSpec::square(3)).unwrap();
        assert_eq!(b.row_blocks(), 3);
        assert_eq!(b.col_blocks(), 2);
        assert_eq!(b.to_dense().unwrap(), t);
    }

    #[test]
    fn block_dims_shrink_at_edges() {
        let t = pattern(7, 5, 3);
        let b = BlockedTensor::from_dense(&t, BlockingSpec::square(3)).unwrap();
        assert_eq!(b.block_dims(BlockCoord { row: 0, col: 0 }), (3, 3));
        assert_eq!(b.block_dims(BlockCoord { row: 2, col: 1 }), (1, 2));
    }

    #[test]
    fn blocked_matmul_matches_dense() {
        let a = pattern(7, 9, 4);
        let bm = pattern(9, 5, 5);
        let ab = BlockedTensor::from_dense(
            &a,
            BlockingSpec {
                block_rows: 3,
                block_cols: 4,
            },
        )
        .unwrap();
        let bb = BlockedTensor::from_dense(
            &bm,
            BlockingSpec {
                block_rows: 4,
                block_cols: 2,
            },
        )
        .unwrap();
        let blocked = ab.matmul(&bb).unwrap().to_dense().unwrap();
        let dense = crate::matmul::matmul_parallel(&a, &bm, &Parallelism::serial()).unwrap();
        assert!(blocked.approx_eq(&dense, 1e-3));
    }

    #[test]
    fn blocked_matmul_rejects_blocking_mismatch() {
        let a = pattern(4, 4, 6);
        let b = pattern(4, 4, 7);
        let ab = BlockedTensor::from_dense(&a, BlockingSpec::square(2)).unwrap();
        let bb = BlockedTensor::from_dense(&b, BlockingSpec::square(3)).unwrap();
        assert!(ab.matmul(&bb).is_err());
    }

    #[test]
    fn missing_blocks_are_implicit_zeros() {
        let spec = BlockingSpec::square(2);
        let mut a = BlockedTensor::empty(4, 4, spec);
        // Only the top-left block is materialized.
        a.insert_block(BlockCoord { row: 0, col: 0 }, Tensor::full([2, 2], 1.0))
            .unwrap();
        let b = BlockedTensor::from_dense(&Tensor::eye(4), spec).unwrap();
        let c = a.matmul(&b).unwrap().to_dense().unwrap();
        let mut expect = Tensor::zeros([4, 4]);
        for r in 0..2 {
            for cidx in 0..2 {
                expect.data_mut()[r * 4 + cidx] = 1.0;
            }
        }
        assert!(c.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn insert_block_validates_dims() {
        let mut b = BlockedTensor::empty(4, 4, BlockingSpec::square(2));
        assert!(b
            .insert_block(BlockCoord { row: 0, col: 0 }, Tensor::zeros([3, 2]))
            .is_err());
        assert!(b
            .insert_block(BlockCoord { row: 5, col: 0 }, Tensor::zeros([2, 2]))
            .is_err());
    }

    #[test]
    fn max_block_bytes_reflects_blocking() {
        let t = pattern(8, 8, 8);
        let b = BlockedTensor::from_dense(&t, BlockingSpec::square(4)).unwrap();
        assert_eq!(b.max_block_bytes(), 4 * 4 * crate::ELEM_BYTES);
        assert_eq!(b.num_bytes(), t.num_bytes());
    }

    proptest! {
        #[test]
        fn roundtrip_any_blocking(
            rows in 1usize..12,
            cols in 1usize..12,
            br in 1usize..6,
            bc in 1usize..6,
        ) {
            let t = pattern(rows, cols, rows * 13 + cols);
            let b = BlockedTensor::from_dense(&t, BlockingSpec { block_rows: br, block_cols: bc }).unwrap();
            prop_assert_eq!(b.to_dense().unwrap(), t);
        }

        #[test]
        fn blocked_matmul_equiv(
            m in 1usize..8,
            k in 1usize..8,
            n in 1usize..8,
            blk in 1usize..5,
        ) {
            let a = pattern(m, k, m + k);
            let b = pattern(k, n, k + n);
            let ab = BlockedTensor::from_dense(&a, BlockingSpec { block_rows: blk, block_cols: blk }).unwrap();
            let bb = BlockedTensor::from_dense(&b, BlockingSpec { block_rows: blk, block_cols: blk }).unwrap();
            let blocked = ab.matmul(&bb).unwrap().to_dense().unwrap();
            let dense = crate::matmul::matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
            prop_assert!(blocked.approx_eq(&dense, 1e-2));
        }
    }
}
