//! A weight matrix stored as the blocks of its weight relation.
//!
//! The relation-centric representation keeps a layer's weights in the
//! database as a relation of tensor blocks that queries only join against
//! (§1, §7.1). [`WeightBlocks`] is that relation's stored form: each block's
//! payload — f32 in the dispatched kernel's `[panel][k][nr]` panels, or int8
//! `QBLK` (`[scales f32 × rows][levels i8]`) — on sealed pages of a model's
//! artifact, written once, around the buffer pool, as the artifact streams
//! in ([`WeightBlocksWriter`]). A session joins against it through the pool
//! as a [`TensorTable`] over pages it does not own
//! ([`TensorTable::over`]); everything else reads the logical matrix back
//! around the pool ([`BlockRows`]), or the dense kernel's panels
//! ([`WeightBlocks::dense_panels`]).
//!
//! `RowEncoder` is the one definition of the layout: the same code writes a
//! relation built in the pool ([`TensorTable::from_weight_rows`]) and one
//! stored on an artifact's pages, a group of rows at a time.
//!
//! [`TensorTable`]: crate::TensorTable
//! [`TensorTable::over`]: crate::TensorTable::over
//! [`TensorTable::from_weight_rows`]: crate::TensorTable::from_weight_rows

use crate::error::{Error, Result};
use crate::tensor_table::{put_f32s, BlockKind};
use relserve_storage::{ArtifactPages, ArtifactReader, ArtifactWriter, PageId, PAGE_SIZE};
use relserve_tensor::matmul::{self, PackedB};
use relserve_tensor::{BlockingSpec, ELEM_BYTES};
use std::sync::Arc;

/// The rows of one group of a weight matrix, row-major.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    F32(&'a [f32]),
    I8(&'a [i8]),
}

/// A weight relation's shape, blocking and block kind, and the groups of
/// rows it is written and read in: whole kernel panels of rows (f32) as
/// many as fill a page of a full-width block, or a page of levels (int8) —
/// never across a block-row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) spec: BlockingSpec,
    pub(crate) kind: BlockKind,
    group: usize,
}

impl Layout {
    fn new(rows: usize, cols: usize, spec: BlockingSpec, kind: BlockKind) -> Layout {
        let group = match kind {
            BlockKind::Packed { nr } => (PAGE_SIZE / (spec.block_cols * ELEM_BYTES).max(1))
                .next_multiple_of(nr)
                .clamp(nr, spec.block_rows.next_multiple_of(nr)),
            BlockKind::Int8 | BlockKind::F32 => {
                (PAGE_SIZE / spec.block_cols.max(1)).clamp(1, spec.block_rows)
            }
        };
        Layout {
            rows,
            cols,
            spec,
            kind,
            group,
        }
    }

    /// Rows in the group that starts at row `r0`; 0 at the end.
    fn group_at(&self, r0: usize) -> usize {
        if r0 >= self.rows {
            return 0;
        }
        let (_, end) = self.spec.row_range(r0 / self.spec.block_rows, self.rows);
        self.group.min(end - r0)
    }

    fn col_blocks(&self) -> usize {
        self.spec.col_blocks(self.cols)
    }

    /// Bytes of the scales a block of block-row `rb` starts with.
    fn scale_bytes(&self, rb: usize) -> usize {
        match self.kind {
            BlockKind::Int8 => {
                let (r0, r1) = self.spec.row_range(rb, self.rows);
                (r1 - r0) * ELEM_BYTES
            }
            _ => 0,
        }
    }
}

/// Encodes a weight matrix, a group of rows at a time, into the payloads of
/// its relation's blocks: each group adds one piece to every block of its
/// block-row.
pub(crate) struct RowEncoder {
    pub(crate) layout: Layout,
    /// An int8 matrix's per-row scales.
    scales: Vec<f32>,
    /// The first row of the next group.
    at: usize,
    panels: Vec<f32>,
    piece: Vec<u8>,
}

impl RowEncoder {
    /// Of a `[rows, cols]` f32 matrix, in the dispatched kernel's panels.
    pub(crate) fn f32((rows, cols): (usize, usize), spec: BlockingSpec) -> Result<Self> {
        let nr = matmul::panel_width()?;
        Ok(Self::new(
            Layout::new(rows, cols, spec, BlockKind::Packed { nr }),
            Vec::new(),
        ))
    }

    /// Of an int8 matrix with per-row `scales` and `cols` columns.
    pub(crate) fn int8(scales: Vec<f32>, cols: usize, spec: BlockingSpec) -> Self {
        Self::new(
            Layout::new(scales.len(), cols, spec, BlockKind::Int8),
            scales,
        )
    }

    fn new(layout: Layout, scales: Vec<f32>) -> Self {
        RowEncoder {
            layout,
            scales,
            at: 0,
            panels: Vec::new(),
            piece: Vec::new(),
        }
    }

    /// The first row of the next group.
    pub(crate) fn at(&self) -> usize {
        self.at
    }

    /// Rows the next group holds; 0 once every row is in.
    pub(crate) fn next_group(&self) -> usize {
        self.layout.group_at(self.at)
    }

    /// Whether the rows in so far end a block-row.
    pub(crate) fn block_row_done(&self) -> bool {
        self.at.is_multiple_of(self.layout.spec.block_rows) || self.at == self.layout.rows
    }

    /// Encode the next group, whose rows are `rows`, handing each block of
    /// the block-row its piece — `emit(column block, bytes)`, in column
    /// order.
    pub(crate) fn encode<E: From<Error>>(
        &mut self,
        rows: Rows<'_>,
        mut emit: impl FnMut(usize, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let Layout {
            cols, spec, kind, ..
        } = self.layout;
        let (r0, g) = (self.at, self.next_group());
        let given = match rows {
            Rows::F32(values) => values.len(),
            Rows::I8(levels) => levels.len(),
        };
        if given != g * cols {
            return Err(Error::Codec(format!(
                "a group of {g} rows of {cols} takes {} values, not {given}",
                g * cols
            ))
            .into());
        }
        for cb in 0..spec.col_blocks(cols) {
            let (c0, c1) = spec.col_range(cb, cols);
            self.piece.clear();
            match (kind, rows) {
                (BlockKind::Packed { nr }, Rows::F32(values)) => {
                    self.panels.clear();
                    matmul::pack_bt(&values[c0..], cols, g, c1 - c0, nr, &mut self.panels);
                    self.piece.resize(self.panels.len() * ELEM_BYTES, 0);
                    put_f32s(&mut self.piece, &self.panels);
                }
                (BlockKind::Int8, Rows::I8(levels)) => {
                    if r0.is_multiple_of(spec.block_rows) {
                        // A block's payload starts with the scales of its rows.
                        let (b0, b1) = spec.row_range(r0 / spec.block_rows, self.layout.rows);
                        self.piece.resize((b1 - b0) * ELEM_BYTES, 0);
                        put_f32s(&mut self.piece, &self.scales[b0..b1]);
                    }
                    for row in levels.chunks_exact(cols) {
                        self.piece.extend(row[c0..c1].iter().map(|q| *q as u8));
                    }
                }
                _ => {
                    return Err(
                        Error::Codec(format!("{kind:?} blocks cannot hold these rows")).into(),
                    )
                }
            }
            emit(cb, &self.piece)?;
        }
        self.at += g;
        Ok(())
    }
}

/// One block's payload: `len` bytes laid over `pages`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Chain {
    pub(crate) pages: Vec<PageId>,
    pub(crate) len: usize,
}

/// A block being written onto an artifact's pages: whole pages go out as
/// they are complete, the last partial one waits in `tail`.
#[derive(Default)]
struct OpenBlock {
    chain: Chain,
    tail: Vec<u8>,
}

impl OpenBlock {
    fn append(&mut self, mut piece: &[u8], artifact: &mut ArtifactWriter) -> Result<()> {
        while !piece.is_empty() {
            let take = piece.len().min(PAGE_SIZE - self.tail.len());
            if take == PAGE_SIZE {
                self.chain.pages.push(artifact.write_page(&piece[..take])?);
            } else {
                self.tail.reserve_exact(take);
                self.tail.extend_from_slice(&piece[..take]);
                if self.tail.len() == PAGE_SIZE {
                    self.chain.pages.push(artifact.write_page(&self.tail)?);
                    self.tail.clear();
                }
            }
            self.chain.len += take;
            piece = &piece[take..];
        }
        Ok(())
    }

    fn finish(mut self, artifact: &mut ArtifactWriter) -> Result<Chain> {
        if !self.tail.is_empty() {
            self.chain.pages.push(artifact.write_page(&self.tail)?);
        }
        Ok(self.chain)
    }
}

/// Writes a weight matrix, a group of rows at a time as it arrives, straight
/// into the blocks of its weight relation on sealed pages of an artifact,
/// around the buffer pool. What it holds is the group being encoded and one
/// partial page per block of the block-row whose payload is not a whole
/// number of pages. Dropped unfinished, it leaves the pages it wrote to the
/// artifact writer, which gives them back unless it finishes.
pub struct WeightBlocksWriter {
    encoder: RowEncoder,
    /// Finished blocks, in `(row, col)` order.
    done: Vec<Chain>,
    /// The blocks of the block-row being written.
    open: Vec<OpenBlock>,
}

impl WeightBlocksWriter {
    /// For a `[rows, cols]` f32 matrix, in `spec` blocks of the dispatched
    /// kernel's panels.
    pub fn f32(shape: (usize, usize), spec: BlockingSpec) -> Result<Self> {
        Ok(Self::new(RowEncoder::f32(shape, spec)?))
    }

    /// For an int8 matrix of per-row `scales` and `cols` columns, in `spec`
    /// `QBLK` blocks.
    pub fn int8(scales: Vec<f32>, cols: usize, spec: BlockingSpec) -> Self {
        Self::new(RowEncoder::int8(scales, cols, spec))
    }

    fn new(encoder: RowEncoder) -> Self {
        WeightBlocksWriter {
            encoder,
            done: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Rows the next push must hold; 0 once the matrix is in.
    pub fn next_group(&self) -> usize {
        self.encoder.next_group()
    }

    /// Write the next [`WeightBlocksWriter::next_group`] rows of an f32
    /// matrix, row-major.
    pub fn push_f32(&mut self, rows: &[f32], artifact: &mut ArtifactWriter) -> Result<()> {
        self.push(Rows::F32(rows), artifact)
    }

    /// Write the next [`WeightBlocksWriter::next_group`] rows of an int8
    /// matrix's levels, row-major.
    pub fn push_i8(&mut self, rows: &[i8], artifact: &mut ArtifactWriter) -> Result<()> {
        self.push(Rows::I8(rows), artifact)
    }

    fn push(&mut self, rows: Rows<'_>, artifact: &mut ArtifactWriter) -> Result<()> {
        let open = &mut self.open;
        self.encoder.encode(rows, |cb, piece| {
            if open.len() == cb {
                open.push(OpenBlock::default());
            }
            open[cb].append(piece, artifact)
        })?;
        if self.encoder.block_row_done() {
            for block in self.open.drain(..) {
                self.done.push(block.finish(artifact)?);
            }
        }
        Ok(())
    }

    /// The stored matrix, once every row is in.
    pub fn finish(self, artifact: &ArtifactWriter) -> Result<WeightBlocks> {
        let layout = self.encoder.layout;
        if self.next_group() != 0 {
            return Err(Error::Codec(format!(
                "a {}x{} weight matrix ended after {} rows",
                layout.rows, layout.cols, self.encoder.at
            )));
        }
        Ok(WeightBlocks {
            layout,
            blocks: self.done,
            artifact: artifact.artifact().clone(),
        })
    }
}

/// A weight matrix stored as the blocks of its weight relation, on sealed
/// pages of an artifact that it keeps alive (see the module docs).
pub struct WeightBlocks {
    layout: Layout,
    /// Each block's payload, in `(row, col)` order.
    blocks: Vec<Chain>,
    artifact: Arc<ArtifactPages>,
}

impl WeightBlocks {
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn chains(&self) -> &[Chain] {
        &self.blocks
    }

    /// Logical rows (output features).
    pub fn rows(&self) -> usize {
        self.layout.rows
    }

    /// Logical columns (input features).
    pub fn cols(&self) -> usize {
        self.layout.cols
    }

    /// The blocking the matrix is stored in.
    pub fn spec(&self) -> BlockingSpec {
        self.layout.spec
    }

    /// Whether the blocks are int8 `QBLK` payloads.
    pub fn is_quantized(&self) -> bool {
        self.layout.kind == BlockKind::Int8
    }

    /// The pages the blocks occupy.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.blocks
            .iter()
            .flat_map(|chain| chain.pages.iter().copied())
    }

    /// Readers of the payloads of block-row `rb`'s blocks, past the scales
    /// an int8 block starts with.
    fn block_row(&self, rb: usize) -> Result<Vec<ArtifactReader<'_>>> {
        let width = self.layout.col_blocks();
        let skip = self.layout.scale_bytes(rb) as u64;
        self.blocks[rb * width..(rb + 1) * width]
            .iter()
            .map(|chain| {
                Ok(self
                    .artifact
                    .page_reader(&chain.pages, chain.len as u64, skip)?)
            })
            .collect()
    }

    /// An int8 matrix's per-row scales, read from its first column of
    /// blocks.
    pub fn scales(&self) -> Result<Vec<f32>> {
        if !self.is_quantized() {
            return Err(Error::Codec("an f32 weight matrix has no scales".into()));
        }
        let spec = self.layout.spec;
        let mut scales = vec![0.0; self.layout.rows];
        if self.layout.col_blocks() > 0 {
            for rb in 0..spec.row_blocks(self.layout.rows) {
                let (r0, r1) = spec.row_range(rb, self.layout.rows);
                let chain = &self.blocks[rb * self.layout.col_blocks()];
                self.artifact
                    .page_reader(&chain.pages, chain.len as u64, 0)?
                    .read_f32s(&mut scales[r0..r1])?;
            }
        }
        Ok(scales)
    }

    /// A reader of the logical matrix, row-major from its first row.
    pub fn reader(&self) -> BlockRows<'_> {
        BlockRows {
            blocks: self,
            at: 0,
            readers: Vec::new(),
            panels: Vec::new(),
            levels: Vec::new(),
            stage_f32: Vec::new(),
            stage_i8: Vec::new(),
            taken: 0,
        }
    }

    /// The f32 matrix as the dense kernel's `[panel][k][nr]` panels of
    /// width `nr`, each assembled by copying the block panels it is made of
    /// — `None` when the blocks are not made of such panels: int8 blocks,
    /// another `nr`, or block-rows that are not whole panels.
    pub fn dense_panels(&self, nr: usize) -> Result<Option<Vec<f32>>> {
        let Layout {
            rows,
            cols,
            spec,
            kind,
            ..
        } = self.layout;
        if kind != (BlockKind::Packed { nr }) || !spec.block_rows.is_multiple_of(nr) {
            return Ok(None);
        }
        let mut panels = Vec::with_capacity(PackedB::len_for(cols, rows, nr));
        for rb in 0..spec.row_blocks(rows) {
            let (r0, r1) = spec.row_range(rb, rows);
            let mut readers = self.block_row(rb)?;
            for _ in 0..(r1 - r0).div_ceil(nr) {
                for (cb, reader) in readers.iter_mut().enumerate() {
                    let (c0, c1) = spec.col_range(cb, cols);
                    let start = panels.len();
                    panels.resize(start + (c1 - c0) * nr, 0.0);
                    reader.read_f32s(&mut panels[start..])?;
                }
            }
        }
        Ok(Some(panels))
    }
}

impl std::fmt::Debug for WeightBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightBlocks")
            .field("shape", &(self.layout.rows, self.layout.cols))
            .field("kind", &self.layout.kind)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

/// Reads a stored weight matrix back in row-major order, as many values at
/// a time as asked, a group of rows staged at a time; every page is read
/// around the buffer pool and verified.
pub struct BlockRows<'a> {
    blocks: &'a WeightBlocks,
    /// The first row of the next group to stage.
    at: usize,
    /// Readers of the current block-row's blocks.
    readers: Vec<ArtifactReader<'a>>,
    panels: Vec<f32>,
    levels: Vec<i8>,
    /// The staged group of rows, and how many of its values are taken.
    stage_f32: Vec<f32>,
    stage_i8: Vec<i8>,
    taken: usize,
}

impl BlockRows<'_> {
    /// Fill `out` with the next values of an f32 matrix.
    pub fn read_f32s(&mut self, out: &mut [f32]) -> Result<()> {
        let mut done = 0;
        while done < out.len() {
            if self.taken == self.stage_f32.len() {
                self.stage()?;
            }
            let n = (out.len() - done).min(self.stage_f32.len() - self.taken);
            out[done..done + n].copy_from_slice(&self.stage_f32[self.taken..self.taken + n]);
            (done, self.taken) = (done + n, self.taken + n);
        }
        Ok(())
    }

    /// Fill `out` with the next levels of an int8 matrix.
    pub fn read_i8s(&mut self, out: &mut [i8]) -> Result<()> {
        let mut done = 0;
        while done < out.len() {
            if self.taken == self.stage_i8.len() {
                self.stage()?;
            }
            let n = (out.len() - done).min(self.stage_i8.len() - self.taken);
            out[done..done + n].copy_from_slice(&self.stage_i8[self.taken..self.taken + n]);
            (done, self.taken) = (done + n, self.taken + n);
        }
        Ok(())
    }

    /// Stage the next group of rows, gathered from every block of its
    /// block-row.
    fn stage(&mut self) -> Result<()> {
        let layout = *self.blocks.layout();
        let Layout {
            cols, spec, kind, ..
        } = layout;
        let g = layout.group_at(self.at);
        if g == 0 || cols == 0 {
            return Err(Error::Codec(format!(
                "read past the end of a {}x{cols} weight matrix",
                layout.rows
            )));
        }
        if self.at.is_multiple_of(spec.block_rows) {
            self.readers = self.blocks.block_row(self.at / spec.block_rows)?;
        }
        match kind {
            BlockKind::Packed { nr } => {
                self.stage_f32.resize(g * cols, 0.0);
                for (cb, reader) in self.readers.iter_mut().enumerate() {
                    let (c0, c1) = spec.col_range(cb, cols);
                    self.panels.resize(PackedB::len_for(c1 - c0, g, nr), 0.0);
                    reader.read_f32s(&mut self.panels)?;
                    let packed = PackedB::new(c1 - c0, g, nr, &self.panels)?;
                    for (j, row) in self.stage_f32.chunks_exact_mut(cols).enumerate() {
                        packed.read_row(j, 0, &mut row[c0..c1]);
                    }
                }
            }
            BlockKind::Int8 => {
                self.stage_i8.resize(g * cols, 0);
                for (cb, reader) in self.readers.iter_mut().enumerate() {
                    let (c0, c1) = spec.col_range(cb, cols);
                    self.levels.resize(g * (c1 - c0), 0);
                    reader.read_i8s(&mut self.levels)?;
                    for (row, block_row) in self
                        .stage_i8
                        .chunks_exact_mut(cols)
                        .zip(self.levels.chunks_exact(c1 - c0))
                    {
                        row[c0..c1].copy_from_slice(block_row);
                    }
                }
            }
            BlockKind::F32 => unreachable!("a weight matrix is stored packed or int8"),
        }
        self.at += g;
        self.taken = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorTable;
    use relserve_storage::{BufferPool, DiskManager};
    use relserve_tensor::parallel::Parallelism;
    use relserve_tensor::{QuantizedTensor, Tensor};

    fn inexact(rows: usize, cols: usize, step: f32) -> Tensor {
        Tensor::from_fn([rows, cols], |i| (i as f32 * step).sin())
    }

    /// `w` (or its int8 quantization) stored on a fresh artifact of `disk`
    /// in `block`-square blocks, pushed a group at a time.
    fn stored(disk: &Arc<DiskManager>, w: &Tensor, int8: bool, block: usize) -> WeightBlocks {
        let (rows, cols) = w.shape().as_matrix().unwrap();
        let spec = BlockingSpec::square(block);
        let mut artifact = ArtifactPages::writer(disk.clone());
        let mut at = 0;
        let blocks = if int8 {
            let q = QuantizedTensor::quantize(w).unwrap();
            let mut writer = WeightBlocksWriter::int8(q.scales().to_vec(), cols, spec);
            while let g @ 1.. = writer.next_group() {
                writer
                    .push_i8(&q.data()[at..at + g * cols], &mut artifact)
                    .unwrap();
                at += g * cols;
            }
            writer.finish(&artifact).unwrap()
        } else {
            let mut writer = WeightBlocksWriter::f32((rows, cols), spec).unwrap();
            while let g @ 1.. = writer.next_group() {
                writer
                    .push_f32(&w.data()[at..at + g * cols], &mut artifact)
                    .unwrap();
                at += g * cols;
            }
            writer.finish(&artifact).unwrap()
        };
        artifact.finish().unwrap();
        blocks
    }

    #[test]
    fn a_stored_matrix_reads_back_in_any_runs() {
        let disk = Arc::new(DiskManager::temp().unwrap());
        let w = inexact(45, 70, 0.59);
        let q = QuantizedTensor::quantize(&w).unwrap();
        for block in [1, 7, 16, 32, 64] {
            let f32s = stored(&disk, &w, false, block);
            let int8 = stored(&disk, &w, true, block);
            assert_eq!(int8.scales().unwrap(), q.scales(), "block {block}");
            assert!(f32s.scales().is_err());
            for run in [1, 13, 70, 71, 45 * 70] {
                let mut values = Vec::new();
                let mut levels = Vec::new();
                let (mut a, mut b) = (f32s.reader(), int8.reader());
                while values.len() < w.len() {
                    let n = run.min(w.len() - values.len());
                    let (mut v, mut l) = (vec![0.0; n], vec![0; n]);
                    a.read_f32s(&mut v).unwrap();
                    b.read_i8s(&mut l).unwrap();
                    values.extend(v);
                    levels.extend(l);
                }
                assert_eq!(values, w.data(), "block {block}, runs of {run}");
                assert_eq!(levels, q.data(), "block {block}, runs of {run}");
                assert!(a.read_f32s(&mut [0.0]).is_err(), "nothing past the end");
            }
        }
    }

    #[test]
    fn dense_panels_are_copied_from_block_panels_when_they_line_up() {
        let disk = Arc::new(DiskManager::temp().unwrap());
        let nr = matmul::panel_width().unwrap();
        let w = inexact(2 * nr * 3 + 5, 40, 0.31);
        let (rows, cols) = w.shape().as_matrix().unwrap();
        let mut expect = Vec::new();
        matmul::pack_bt(w.data(), cols, rows, cols, nr, &mut expect);
        for block in [nr, 2 * nr, 4 * nr] {
            let panels = stored(&disk, &w, false, block).dense_panels(nr).unwrap();
            assert!(panels.as_deref() == Some(&expect[..]), "block {block}");
        }
        // Block-rows that are not whole panels, another width, int8: no.
        assert!(stored(&disk, &w, false, nr + 1)
            .dense_panels(nr)
            .unwrap()
            .is_none());
        assert!(stored(&disk, &w, false, nr)
            .dense_panels(nr * 2)
            .unwrap()
            .is_none());
        assert!(stored(&disk, &w, true, nr)
            .dense_panels(nr)
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_relation_over_stored_blocks_joins_as_the_one_built_in_the_pool() {
        let disk = Arc::new(DiskManager::temp().unwrap());
        let pool = Arc::new(BufferPool::new(disk.clone(), 8));
        let (x, w) = (inexact(37, 200, 0.73), inexact(150, 200, 0.41));
        let spec = BlockingSpec::square(64);
        let xt = TensorTable::from_dense(pool.clone(), "X", &x, spec).unwrap();
        for int8 in [false, true] {
            let built = if int8 {
                let q = QuantizedTensor::quantize(&w).unwrap();
                TensorTable::from_quantized(pool.clone(), "W", &q, spec).unwrap()
            } else {
                TensorTable::from_weights(pool.clone(), "W", &w, spec).unwrap()
            };
            let blocks = Arc::new(stored(&disk, &w, int8, 64));
            let pages: Vec<PageId> = blocks.page_ids().collect();
            let view = TensorTable::over(pool.clone(), "W", blocks.clone()).unwrap();
            assert_eq!(view.is_quantized(), int8);
            assert_eq!(view.bytes_stored(), built.bytes_stored());
            assert_eq!(view.to_dense().unwrap(), built.to_dense().unwrap());
            let grant = Parallelism::new(Arc::new(relserve_tensor::parallel::SerialRunner), 3);
            let join = |w: &TensorTable| {
                let (c, stats) = if int8 {
                    xt.matmul_bt_quant_parallel(w, "C", &grant).unwrap()
                } else {
                    xt.matmul_bt_parallel(w, "C", &grant).unwrap()
                };
                (c.to_dense().unwrap(), stats)
            };
            let (expect, expect_stats) = join(&built);
            let (got, stats) = join(&view);
            assert!(got.data() == expect.data(), "int8={int8}");
            assert_eq!(stats, expect_stats);
            // The view read its pages through the pool, and gives back their
            // frames — not the pages — when it goes.
            assert!(pool.resident_among(pages.iter().copied()) > 0);
            let free = disk.free_pages();
            drop(view);
            assert_eq!(pool.resident_among(pages.iter().copied()), 0);
            assert_eq!(disk.free_pages(), free);
            // The pages go with the last holder of the stored matrix.
            drop(blocks);
            assert_eq!(disk.free_pages(), free + pages.len());
        }
    }

    #[test]
    fn only_ragged_blocks_hold_a_partial_page_and_a_cut_short_matrix_is_refused() {
        let disk = Arc::new(DiskManager::temp().unwrap());
        // 512-wide blocks: a group of rows is exactly a page of each full
        // block, so only the 120-wide last block ever waits on a tail.
        let w = inexact(40, 512 + 120, 0.17);
        let blocks = stored(&disk, &w, false, 512);
        let nr = matmul::panel_width().unwrap();
        let full = PackedB::len_for(512, 40, nr) * ELEM_BYTES;
        let ragged = PackedB::len_for(120, 40, nr) * ELEM_BYTES;
        let lens: Vec<usize> = blocks.chains().iter().map(|c| c.len).collect();
        assert_eq!(lens, [full, ragged]);
        assert_eq!(blocks.page_ids().count(), full.div_ceil(PAGE_SIZE) + 1);
        let mut artifact = ArtifactPages::writer(disk.clone());
        let mut writer = WeightBlocksWriter::f32((40, 632), BlockingSpec::square(512)).unwrap();
        let g = writer.next_group();
        writer.push_f32(&vec![0.0; g * 632], &mut artifact).unwrap();
        assert!(
            writer.push_f32(&[0.0; 3], &mut artifact).is_err(),
            "not a group"
        );
        assert!(matches!(writer.finish(&artifact), Err(Error::Codec(_))));
    }
}
