//! Tensor relations: tensors stored as block collections in the RDBMS.
//!
//! A [`TensorTable`] is the storage form of the relation-centric
//! architecture (§1, §7.1): a matrix is a relation of tuples
//! `(row_block, col_block, block_payload)`, with payloads kept in multi-page
//! blobs behind the buffer pool. The two central relational rewrites live
//! here:
//!
//! * [`TensorTable::matmul`] — `A × B` as a **join** of A's blocks with B's
//!   blocks on the inner block coordinate followed by an **aggregation**
//!   (block sum) on the output coordinate.
//! * [`TensorTable::matmul_bt`] — `A × Bᵀ` with B stored `[n, k]`, the
//!   `X × Wᵀ` layout inference uses.
//!
//! Both stream A one block-row at a time and flush finished output blocks
//! immediately, so the working set is one block-row of partial sums — never
//! the whole tensor. That is precisely why this path avoids the OOM errors
//! of Table 3.
//!
//! A relation owns its pages: dropping it (or replacing a block) hands them
//! back to the buffer pool's free list unwritten, so per-query temporaries
//! cost no file growth and no write-back once they are gone.

use crate::error::{Error, Result};
use crate::weight_blocks::{packed_len, panel_starts, RowEncoder, Rows, WeightBlocks};
use relserve_storage::{BlobId, BlobStore, BlobWriter, BufferPool, PAGE_SIZE};
use relserve_tensor::matmul::{self, Epilogue, PackedB};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::{self, QuantizedActivations, QuantizedTensor};
use relserve_tensor::{BlockCoord, BlockedTensor, BlockingSpec, Tensor, ELEM_BYTES};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// How a stored block's payload encodes its `rows × cols` values. The kind
/// and the dimensions live in the relation's index, not in the payload, so
/// a payload is exactly its values (a 512×512 f32 block is exactly 16 pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Row-major f32, little endian.
    F32,
    /// f32 in the `[panel][col][nr]` layout the matmul kernel of panel width
    /// `nr` multiplies from, the block standing as `Bᵀ` in `X × Wᵀ` (see
    /// [`PackedB`]), each panel placed so that the kernel reads it where it
    /// is stored (see `weight_blocks::panel_offset`): what
    /// [`TensorTable::from_weights`] stores.
    Packed { nr: usize },
    /// `[scales f32 × rows][levels i8 × rows·cols]`; row sums are derived on
    /// decode, not stored.
    Int8,
}

/// Index entry of one stored block.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    blob: BlobId,
    rows: usize,
    cols: usize,
    kind: BlockKind,
}

impl BlockKind {
    /// Bytes a `rows × cols` payload of this kind occupies.
    fn payload_len(self, rows: usize, cols: usize) -> usize {
        match self {
            BlockKind::F32 => rows * cols * ELEM_BYTES,
            BlockKind::Packed { nr } => packed_len(rows, cols, nr),
            BlockKind::Int8 => rows * cols + rows * ELEM_BYTES,
        }
    }
}

impl BlockMeta {
    fn payload_len(&self) -> usize {
        self.kind.payload_len(self.rows, self.cols)
    }
}

// A packed payload is read in place as the f32 values it stores, little
// endian.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "stored f32 payloads are multiplied in place as little-endian values"
);

/// A pinned page's payload bytes as the f32 values they encode, where they
/// are: a frame of the pool's mapping is page-aligned, a heap image is
/// aligned by the allocator.
fn as_f32s(bytes: &[u8]) -> Result<&[f32]> {
    // SAFETY: every bit pattern is an f32, and `align_to` only puts whole,
    // aligned values in the middle part.
    let (head, values, tail) = unsafe { bytes.align_to::<f32>() };
    if !head.is_empty() || !tail.is_empty() {
        return Err(Error::Codec(format!(
            "a {} B page image is not a run of aligned f32 values",
            bytes.len()
        )));
    }
    Ok(values)
}

/// Fill `bytes` with the leading `values`, little endian.
pub(crate) fn put_f32s(bytes: &mut [u8], values: &[f32]) {
    for (dst, v) in bytes.chunks_exact_mut(ELEM_BYTES).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian `bytes` over `out`, value for value (compiles to a
/// copy on a little-endian target).
fn get_f32s(out: &mut [f32], bytes: &[u8]) {
    for (v, b) in out.iter_mut().zip(bytes.chunks_exact(ELEM_BYTES)) {
        *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Execution statistics of one relational tensor operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TensorOpStats {
    /// Block pairs joined (partial products computed).
    pub joins: u64,
    /// Output blocks aggregated and written.
    pub blocks_out: u64,
    /// Operand bytes the operation read: block payloads from the store, and
    /// activation blocks of a dense batch joined in place.
    pub bytes_read: u64,
    /// Block payload bytes written to the store.
    pub bytes_written: u64,
    /// Operand bytes copied before a kernel read them: an activation block
    /// gathered out of its pages (or out of a dense batch, for a kernel that
    /// cannot read it in place), a weight block decoded out of its pages. 0
    /// for an f32 join of a dense batch against a packed relation, which
    /// multiplies both where they are.
    pub bytes_copied: u64,
}

impl TensorOpStats {
    /// Fold another worker's accumulator into this one.
    pub fn merge(&mut self, other: TensorOpStats) {
        self.joins += other.joins;
        self.blocks_out += other.blocks_out;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.bytes_copied += other.bytes_copied;
    }
}

/// The activation side `X` of a block join `X × Wᵀ`.
#[derive(Debug, Clone, Copy)]
pub enum Activations<'a> {
    /// A relation of activation blocks, read through the buffer pool.
    Blocks(&'a TensorTable),
    /// A dense row-major `[rows, k]` matrix, blocked square at the weight
    /// relation's inner block size and read where it is: a batch joined in
    /// place is never written into the pool.
    Dense(&'a Tensor),
}

/// What a join does to each output block once its sum is complete, before
/// it stores it, given the block's first column in the output: a layer's
/// bias and element-wise activation, applied at flush instead of in passes
/// over the stored product.
pub type Finish<'a> = &'a (dyn Fn(usize, &mut Tensor) -> Result<()> + Sync);

/// The activation side of one join, resolved: where its blocks come from,
/// how they are cut, and whether the kernel reads a dense one in place.
struct Lhs<'a> {
    x: Activations<'a>,
    rows: usize,
    cols: usize,
    spec: BlockingSpec,
    in_place: bool,
}

impl Lhs<'_> {
    fn row_blocks(&self) -> usize {
        self.spec.row_blocks(self.rows)
    }

    fn col_blocks(&self) -> usize {
        self.spec.col_blocks(self.cols)
    }
}

/// Which micro-kernel multiplies one `(activation block, weight block)` pair
/// of the `A × Bᵀ` block join — the only thing the f32 and the int8 join
/// differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairKernel {
    /// f32 blocks through `matmul_bt_parallel` (an int8 weight block dequantizes).
    F32,
    /// Stored i8 weight blocks through the int8 micro-kernels.
    Int8,
}

/// An activation block as its [`PairKernel`] consumes it. The int8 form is
/// quantized to 7-bit levels **once** and reused across every weight block
/// sharing its `k` coordinate.
enum PreparedBlock<'a> {
    /// `rows` rows of a block's width, `ld` apart: a window of a dense
    /// batch, multiplied where it is.
    Window {
        data: &'a [f32],
        rows: usize,
        ld: usize,
    },
    /// A block gathered out of its pages.
    F32(Tensor),
    Int8(QuantizedActivations),
}

/// A matrix stored as a relation of tensor blocks.
pub struct TensorTable {
    name: String,
    rows: usize,
    cols: usize,
    spec: BlockingSpec,
    blobs: BlobStore,
    index: BTreeMap<BlockCoord, BlockMeta>,
    /// Whether this relation stores int8 quantized block payloads.
    quantized: bool,
    /// The stored matrix whose pages the blocks are, for a relation over
    /// pages it does not own ([`TensorTable::over`]): kept alive until the
    /// store has dropped their frames.
    stored: Option<Arc<WeightBlocks>>,
}

impl TensorTable {
    /// An empty tensor relation for a `rows × cols` matrix.
    pub fn create(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        spec: BlockingSpec,
    ) -> Self {
        TensorTable {
            name: name.into(),
            rows,
            cols,
            spec,
            blobs: BlobStore::new(pool),
            index: BTreeMap::new(),
            quantized: false,
            stored: None,
        }
    }

    /// Chunk a dense matrix and store it, one block at a time: each block's
    /// payload is encoded straight from the matrix rows it covers, so no
    /// second copy of the matrix is ever materialized.
    pub fn from_dense(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        dense: &Tensor,
        spec: BlockingSpec,
    ) -> Result<Self> {
        let (rows, cols) = dense.shape().as_matrix()?;
        let mut table = Self::create(pool, name, rows, cols, spec);
        // One block's values in payload order, reused from block to block.
        let mut values = Vec::new();
        for rb in 0..spec.row_blocks(rows) {
            let (r0, r1) = spec.row_range(rb, rows);
            for cb in 0..spec.col_blocks(cols) {
                let (c0, c1) = spec.col_range(cb, cols);
                values.clear();
                for r in r0..r1 {
                    values.extend_from_slice(&dense.data()[r * cols + c0..r * cols + c1]);
                }
                let coord = BlockCoord { row: rb, col: cb };
                table.put_values(coord, (r1 - r0, c1 - c0), BlockKind::F32, &values)?;
            }
        }
        Ok(table)
    }

    /// Chunk a constant `[n, k]` weight matrix for `X × Wᵀ` joins: as
    /// [`TensorTable::from_dense`], but every block is stored as the panels
    /// the dispatched matmul kernel multiplies from, so a join against this
    /// relation neither decodes nor packs a weight block — it copies the
    /// pages into a scratch and runs the kernel. Every other reader
    /// ([`TensorTable::get_block`], [`TensorTable::to_dense`]) sees the
    /// logical matrix.
    ///
    /// The layout is that of the kernel dispatched in *this process*: such a
    /// relation belongs in a session's scratch database, which does not
    /// outlive the process either.
    pub fn from_weights(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        weights: &Tensor,
        spec: BlockingSpec,
    ) -> Result<Self> {
        let shape = weights.shape().as_matrix()?;
        let mut rest = weights.data();
        Self::from_weight_rows(pool, name, shape, spec, |out: &mut [f32]| {
            let (next, after) = rest.split_at(out.len());
            out.copy_from_slice(next);
            rest = after;
            Ok::<(), Error>(())
        })
    }

    /// [`TensorTable::from_weights`] of a `[rows, cols]` matrix that is never
    /// whole in memory: `next_rows` fills its argument with the matrix's next
    /// rows, row-major. A block-row is written a group of rows at a time
    /// into all of its blocks at once (a group is whole kernel panels, and
    /// as many as fill a page of a full-width block), so what is held is one
    /// group of rows — not a block-row, and not the matrix.
    pub fn from_weight_rows<E: From<Error>>(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        shape: (usize, usize),
        spec: BlockingSpec,
        next_rows: impl FnMut(&mut [f32]) -> std::result::Result<(), E>,
    ) -> std::result::Result<Self, E> {
        let encoder = RowEncoder::f32(shape, spec).map_err(E::from)?;
        Self::from_rows(pool, name, encoder, next_rows, |v| Rows::F32(v))
    }

    /// Chunk an int8 quantized matrix into quantized block payloads.
    ///
    /// The per-output-channel scales slice with the rows: block `(rb, cb)`
    /// carries levels `data[r0..r1][c0..c1]` plus `scales[r0..r1]`, so each
    /// stored block is itself a self-contained [`QuantizedTensor`] whose
    /// dequantization equals the same chunk of the full dequantized matrix.
    /// This is the storage form of an `@int8` model version's weights: the
    /// block join reads these payloads directly — roughly 4× fewer bytes
    /// than f32 blocks — and feeds them to the int8 micro-kernels without
    /// ever materializing f32 weights.
    pub fn from_quantized(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        q: &QuantizedTensor,
        spec: BlockingSpec,
    ) -> Result<Self> {
        let mut rest = q.data();
        Self::from_quantized_rows(
            pool,
            name,
            q.scales(),
            q.cols(),
            spec,
            |out: &mut [i8]| {
                let (next, after) = rest.split_at(out.len());
                out.copy_from_slice(next);
                rest = after;
                Ok::<(), Error>(())
            },
        )
    }

    /// [`TensorTable::from_quantized`] of a matrix with per-row `scales` and
    /// `cols` columns whose levels are never whole in memory: `next_rows`
    /// fills its argument with the next rows' levels, row-major, a group of
    /// rows at a time (see [`TensorTable::from_weight_rows`]).
    pub fn from_quantized_rows<E: From<Error>>(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        scales: &[f32],
        cols: usize,
        spec: BlockingSpec,
        next_rows: impl FnMut(&mut [i8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<Self, E> {
        let encoder = RowEncoder::int8(scales.to_vec(), cols, spec);
        let mut table = Self::from_rows(pool, name, encoder, next_rows, |v| Rows::I8(v))?;
        table.quantized = true;
        Ok(table)
    }

    /// Write every block of the relation `encoder` lays out, a group of rows
    /// from `next_rows` at a time, each group's piece of every block of its
    /// block-row appended to that block's blob. Every payload is checked
    /// against the length its dimensions and kind imply.
    fn from_rows<T: Copy + Default, E: From<Error>>(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        mut encoder: RowEncoder,
        mut next_rows: impl FnMut(&mut [T]) -> std::result::Result<(), E>,
        rows_of: impl Fn(&[T]) -> Rows<'_>,
    ) -> std::result::Result<Self, E> {
        let layout = encoder.layout;
        let (rows, cols, spec) = (layout.rows, layout.cols, layout.spec);
        let mut table = Self::create(pool, name, rows, cols, spec);
        let mut values = vec![T::default(); encoder.next_group() * cols];
        let mut writers: Vec<BlobWriter<'_>> = Vec::new();
        while let g @ 1.. = encoder.next_group() {
            let rb = encoder.at() / spec.block_rows;
            let values = &mut values[..g * cols];
            next_rows(values)?;
            encoder.encode(rows_of(values), |cb, piece| {
                if writers.len() == cb {
                    writers.push(table.blobs.writer());
                }
                writers[cb]
                    .write_with(piece.len(), |at, page| {
                        page.copy_from_slice(&piece[at..at + page.len()])
                    })
                    .map_err(|e| E::from(Error::from(e)))
            })?;
            if !encoder.block_row_done() {
                continue;
            }
            let (r0, r1) = spec.row_range(rb, rows);
            for (cb, writer) in writers.drain(..).enumerate() {
                let (c0, c1) = spec.col_range(cb, cols);
                let meta = BlockMeta {
                    blob: writer.finish().map_err(Error::from)?,
                    rows: r1 - r0,
                    cols: c1 - c0,
                    kind: layout.kind,
                };
                table.index.insert(BlockCoord { row: rb, col: cb }, meta);
                table.payload_len(&meta)?;
            }
        }
        drop(writers);
        Ok(table)
    }

    /// The weight relation of a stored weight matrix, over its pages: its
    /// blocks are read through `pool` like any relation's, but the relation
    /// does not own them — dropping it drops their frames, and the pages
    /// stay with `blocks`, which it keeps alive till then.
    pub fn over(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        blocks: Arc<WeightBlocks>,
    ) -> Result<Self> {
        let layout = *blocks.layout();
        let (rows, cols, spec) = (layout.rows, layout.cols, layout.spec);
        let mut table = Self::create(pool, name, rows, cols, spec);
        let width = spec.col_blocks(cols);
        for (i, chain) in blocks.chains().iter().enumerate() {
            let (rb, cb) = (i / width, i % width);
            let ((r0, r1), (c0, c1)) = (spec.row_range(rb, rows), spec.col_range(cb, cols));
            let meta = BlockMeta {
                blob: table.blobs.adopt(chain.pages.clone(), chain.len),
                rows: r1 - r0,
                cols: c1 - c0,
                kind: layout.kind,
            };
            table.index.insert(BlockCoord { row: rb, col: cb }, meta);
            table.payload_len(&meta)?;
        }
        table.quantized = blocks.is_quantized();
        table.stored = Some(blocks);
        Ok(table)
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical matrix row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical matrix column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The blocking spec.
    pub fn spec(&self) -> BlockingSpec {
        self.spec
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Number of block rows.
    pub fn row_blocks(&self) -> usize {
        self.spec.row_blocks(self.rows)
    }

    /// Number of block columns.
    pub fn col_blocks(&self) -> usize {
        self.spec.col_blocks(self.cols)
    }

    /// Payload bytes stored.
    pub fn bytes_stored(&self) -> u64 {
        self.blobs.bytes_stored()
    }

    /// Bytes of this relation's pages resident in the buffer pool's frames
    /// right now.
    pub fn resident_bytes(&self) -> u64 {
        (self.blobs.resident_pages() * PAGE_SIZE) as u64
    }

    /// The buffer pool backing this relation.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.blobs.pool()
    }

    /// Coordinates of stored blocks, `(row, col)` ordered.
    pub fn coords(&self) -> impl Iterator<Item = BlockCoord> + '_ {
        self.index.keys().copied()
    }

    /// Length of `meta`'s stored payload, checked against what its
    /// dimensions and kind imply.
    fn payload_len(&self, meta: &BlockMeta) -> Result<usize> {
        let (stored, implied) = (self.blobs.blob_len(meta.blob)?, meta.payload_len());
        if stored != implied {
            return Err(Error::Codec(format!(
                "block payload is {stored} B, but {}x{} values as {:?} take {implied} B",
                meta.rows, meta.cols, meta.kind
            )));
        }
        Ok(stored)
    }

    /// Copy an f32 payload (row-major or packed) straight out of its pinned
    /// pages over `out`: page size is a multiple of four, so no value
    /// straddles two pages.
    fn read_f32s(&self, meta: &BlockMeta, out: &mut Vec<f32>) -> Result<()> {
        out.resize(self.payload_len(meta)? / ELEM_BYTES, 0.0);
        let mut at = 0;
        self.blobs.read_chunks(meta.blob, |chunk| {
            let n = chunk.len() / ELEM_BYTES;
            get_f32s(&mut out[at..at + n], chunk);
            at += n;
            Ok::<(), Error>(())
        })
    }

    /// Run `f` on a packed block as it lies in its pinned pages: the pages
    /// stay pinned, and their images locked for reading, until `f` returns.
    fn with_packed<R>(
        &self,
        meta: &BlockMeta,
        nr: usize,
        f: impl FnOnce(&PackedB<'_>) -> Result<R>,
    ) -> Result<R> {
        let mut left = self.payload_len(meta)?;
        let guards = self.blobs.pin(meta.blob)?;
        // Dropped before `guards`: the images are unlocked, then unpinned.
        let images: Vec<_> = guards.iter().map(|guard| guard.read()).collect();
        let mut pages = Vec::with_capacity(images.len());
        for image in &images {
            let take = left.min(PAGE_SIZE);
            pages.push(as_f32s(&image.bytes()[..take])?);
            left -= take;
        }
        let starts = panel_starts(meta.rows, meta.cols, nr);
        f(&PackedB::paged(meta.cols, meta.rows, nr, &pages, &starts)?)
    }

    fn read_qblock(&self, meta: &BlockMeta) -> Result<QuantizedTensor> {
        if meta.kind != BlockKind::Int8 {
            return Err(Error::Codec(
                "payload is not an int8 quantized block".into(),
            ));
        }
        self.payload_len(meta)?;
        let bytes = self.blobs.get(meta.blob)?;
        let (scale_bytes, levels) = bytes.split_at(meta.rows * ELEM_BYTES);
        let mut scales = vec![0.0; meta.rows];
        get_f32s(&mut scales, scale_bytes);
        Ok(QuantizedTensor::from_parts(
            meta.rows,
            meta.cols,
            levels.iter().map(|b| *b as i8).collect(),
            scales,
        )?)
    }

    /// Whether this relation stores int8 quantized block payloads.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Store the `rows × cols` block at `coord`, releasing any block it
    /// replaces. `fill` writes the payload — as long as the dimensions and
    /// kind imply — a page at a time (see `BlobStore::put_with`).
    fn put_payload(
        &mut self,
        coord: BlockCoord,
        (rows, cols): (usize, usize),
        kind: BlockKind,
        fill: impl FnMut(usize, &mut [u8]),
    ) -> Result<()> {
        let blob = self.blobs.put_with(kind.payload_len(rows, cols), fill)?;
        let meta = BlockMeta {
            blob,
            rows,
            cols,
            kind,
        };
        if let Some(old) = self.index.insert(coord, meta) {
            self.blobs.delete(old.blob)?;
        }
        Ok(())
    }

    /// Store a block whose payload is `values` in order, encoded straight
    /// into the block's pages.
    fn put_values(
        &mut self,
        coord: BlockCoord,
        dims: (usize, usize),
        kind: BlockKind,
        values: &[f32],
    ) -> Result<()> {
        self.put_payload(coord, dims, kind, |at, page| {
            put_f32s(page, &values[at / ELEM_BYTES..])
        })
    }

    /// Insert (or replace) the block at `coord`.
    pub fn insert_block(&mut self, coord: BlockCoord, block: &Tensor) -> Result<()> {
        let dims = block.shape().as_matrix()?;
        self.put_values(coord, dims, BlockKind::F32, block.data())
    }

    fn meta_for(&self, coord: BlockCoord) -> Result<&BlockMeta> {
        Ok(self
            .index
            .get(&coord)
            .ok_or(relserve_tensor::Error::MissingBlock {
                row: coord.row,
                col: coord.col,
            })?)
    }

    /// Fetch the block at `coord` (reads through the buffer pool) as the
    /// logical row-major matrix, whatever its stored form: a packed payload
    /// is unpacked and a quantized one dequantized, so f32 consumers
    /// (`to_dense`, elementwise maps) work on every relation.
    pub fn get_block(&self, coord: BlockCoord) -> Result<Tensor> {
        let meta = self.meta_for(coord)?;
        let (rows, cols) = (meta.rows, meta.cols);
        let mut values = Vec::new();
        match meta.kind {
            BlockKind::Int8 => return Ok(self.read_qblock(meta)?.dequantize()),
            BlockKind::F32 => self.read_f32s(meta, &mut values)?,
            BlockKind::Packed { nr } => {
                values.resize(rows * cols, 0.0);
                self.with_packed(meta, nr, |packed| {
                    packed.read_rows(0, &mut values);
                    Ok(())
                })?;
            }
        }
        Ok(Tensor::from_vec([rows, cols], values)?)
    }

    /// Reassemble the full dense matrix (allocates it whole; only for
    /// results known to fit, e.g. final logits).
    pub fn to_dense(&self) -> Result<Tensor> {
        let mut blocked = BlockedTensor::empty(self.rows, self.cols, self.spec);
        for coord in self.index.keys() {
            blocked.insert_block(*coord, self.get_block(*coord)?)?;
        }
        Ok(blocked.to_dense()?)
    }

    /// Relation-centric `C = A × Bᵀ` with `B` stored `[n, k]` — join on the
    /// shared `k` block coordinate (`a.col_blk == b.col_blk`), aggregate by
    /// `(a.row_blk, b.row_blk)` — striped over **output cells**: that grid
    /// is cut into up to `par.threads()` contiguous runs and the runs execute
    /// as tasks on the caller's kernel-pool grant (a serial grant runs them
    /// in order on the caller), so even a batch of one block-row fans out
    /// across the weight relation's block-rows. Each worker owns a disjoint
    /// set of output blocks and walks `k` ascending for each, so every
    /// output block is accumulated in the same order whatever the thread
    /// count — results are bit-identical to the serial join. Workers only
    /// contend on the (internally locked) buffer pool for reads and on the
    /// output table's insert lock when flushing finished blocks. Peak memory
    /// is at most one block-row of partials per worker.
    ///
    /// A packed weight block is multiplied where it lies, in its pinned
    /// frames: each worker pins one block at a time, and a pool that cannot
    /// hold one block per worker — besides a page to read an activation
    /// block through and one to write an output page in — runs fewer
    /// stripes.
    ///
    /// The returned stats describe the join's logical work and do not depend
    /// on the striping: an activation block that two workers both fetch,
    /// because the cut fell inside its block-row, is counted once.
    pub fn matmul_bt_parallel(
        &self,
        other: &TensorTable,
        out_name: impl Into<String>,
        par: &Parallelism,
    ) -> Result<(TensorTable, TensorOpStats)> {
        other.block_join(
            Activations::Blocks(self),
            out_name.into(),
            par,
            PairKernel::F32,
            &|_, _| Ok(()),
        )
    }

    /// Relation-centric **quantized** `C = X × Wᵀ` with `W` stored as int8
    /// block payloads (see [`TensorTable::from_quantized`]): the same block
    /// join as [`TensorTable::matmul_bt_parallel`], but each weight block is
    /// read as its stored i8 payload (≈4× fewer bytes through the buffer
    /// pool) and multiplied by the int8 micro-kernels. Each activation block
    /// is quantized to 7-bit levels **once per worker sweep** and reused
    /// across every matching weight block; each partial product dequantizes
    /// into f32 at the kernel epilogue, and the aggregation over the shared
    /// `k` coordinate stays in f32 — so per-k-block activation scales never
    /// have to agree across blocks.
    pub fn matmul_bt_quant_parallel(
        &self,
        other: &TensorTable,
        out_name: impl Into<String>,
        par: &Parallelism,
    ) -> Result<(TensorTable, TensorOpStats)> {
        if !other.quantized {
            return Err(Error::Plan(format!(
                "the int8 join requires an int8 weight relation, but {:?} stores f32 blocks",
                other.name
            )));
        }
        other.block_join(
            Activations::Blocks(self),
            out_name.into(),
            par,
            PairKernel::Int8,
            &|_, _| Ok(()),
        )
    }

    /// A dense layer over this weight relation: `finish(X × selfᵀ)`, block
    /// by block, on the kernel of the relation's precision (the int8 join
    /// of [`TensorTable::matmul_bt_quant_parallel`] for int8 blocks, the f32
    /// join otherwise). `finish` — the layer's bias and element-wise
    /// activation — runs on each output block as its sum completes, so the
    /// product is stored once, finished.
    pub fn join_layer(
        &self,
        x: Activations<'_>,
        out_name: impl Into<String>,
        par: &Parallelism,
        finish: Finish<'_>,
    ) -> Result<(TensorTable, TensorOpStats)> {
        let kernel = if self.quantized {
            PairKernel::Int8
        } else {
            PairKernel::F32
        };
        self.block_join(x, out_name.into(), par, kernel, finish)
    }

    /// The one parallel `X × selfᵀ` block join behind the public forms.
    fn block_join(
        &self,
        x: Activations<'_>,
        out_name: String,
        par: &Parallelism,
        kernel: PairKernel,
        finish: Finish<'_>,
    ) -> Result<(TensorTable, TensorOpStats)> {
        // The f32 kernel reads a dense batch where it is, against panels.
        let in_place = kernel == PairKernel::F32
            && self
                .index
                .values()
                .all(|meta| matches!(meta.kind, BlockKind::Packed { .. }));
        let lhs = match x {
            Activations::Blocks(table) => Lhs {
                x,
                rows: table.rows,
                cols: table.cols,
                spec: table.spec,
                in_place,
            },
            Activations::Dense(dense) => {
                let (rows, cols) = dense.shape().as_matrix()?;
                Lhs {
                    x,
                    rows,
                    cols,
                    spec: BlockingSpec::square(self.spec.block_cols),
                    in_place,
                }
            }
        };
        if lhs.cols != self.cols {
            return Err(Error::Tensor(relserve_tensor::Error::ShapeMismatch {
                op: "relational matmul_bt",
                lhs: vec![lhs.rows, lhs.cols],
                rhs: vec![self.rows, self.cols],
            }));
        }
        if lhs.spec.block_cols != self.spec.block_cols {
            return Err(Error::Plan(format!(
                "inner blockings differ: {} vs {}",
                lhs.spec.block_cols, self.spec.block_cols
            )));
        }
        let out_spec = BlockingSpec {
            block_rows: lhs.spec.block_rows,
            block_cols: self.spec.block_rows,
        };
        let mut out =
            TensorTable::create(self.pool().clone(), out_name, lhs.rows, self.rows, out_spec);
        // Output cell `i` is block `(i / b_rows, i % b_rows)` of `C`.
        let cells = lhs.row_blocks() * self.row_blocks();
        let threads = par
            .threads()
            .min(self.pinnable_workers(kernel))
            .clamp(1, cells.max(1));
        let per_stripe = cells.div_ceil(threads).max(1);
        let stripes = cells.div_ceil(per_stripe);
        let out_lock = Mutex::new(&mut out);
        let results: Vec<Mutex<Option<Result<TensorOpStats>>>> =
            (0..stripes).map(|_| Mutex::new(None)).collect();
        par.with_threads(threads).run_stripes(stripes, &|t| {
            let run = t * per_stripe..((t + 1) * per_stripe).min(cells);
            let res = self.join_cells(&lhs, run, kernel, finish, &out_lock);
            *results[t].lock().expect("stripe result lock") = Some(res);
        });
        let mut stats = TensorOpStats::default();
        for slot in results {
            let worker_stats = slot
                .into_inner()
                .expect("stripe result lock")
                .expect("stripe task did not run")?;
            stats.merge(worker_stats);
        }
        Ok((out, stats))
    }

    /// Workers the pool can give a pinned packed block each, besides a
    /// frame to read an activation page through and one to write an output
    /// page in; unbounded when `kernel` pins nothing.
    fn pinnable_workers(&self, kernel: PairKernel) -> usize {
        let block_pages = self
            .index
            .values()
            .filter(|meta| {
                kernel == PairKernel::F32 && matches!(meta.kind, BlockKind::Packed { .. })
            })
            .map(|meta| meta.payload_len().div_ceil(PAGE_SIZE))
            .max();
        match block_pages {
            Some(pages @ 1..) => (self.pool().capacity().saturating_sub(2) / pages).max(1),
            _ => usize::MAX,
        }
    }

    /// One worker's share of the block join: compute, finish and flush the
    /// output cells in `run`, returning this worker's stats accumulator.
    /// Cells of one activation block-row are swept together, so each
    /// activation block is fetched (and, for int8, quantized) once per
    /// sweep.
    fn join_cells(
        &self,
        lhs: &Lhs<'_>,
        run: Range<usize>,
        kernel: PairKernel,
        finish: Finish<'_>,
        out: &Mutex<&mut TensorTable>,
    ) -> Result<TensorOpStats> {
        let mut stats = TensorOpStats::default();
        let b_rows = self.row_blocks();
        let mut cell = run.start;
        while cell < run.end {
            let a_row = cell / b_rows;
            let b_lo = cell % b_rows;
            let b_hi = (b_lo + (run.end - cell)).min(b_rows);
            cell += b_hi - b_lo;
            let mut partials: Vec<Option<Tensor>> = (b_lo..b_hi).map(|_| None).collect();
            // `k` ascending: the accumulation order of every output block.
            for k in 0..lhs.col_blocks() {
                let a_coord = BlockCoord { row: a_row, col: k };
                let Some((a_block, copied)) = self.activation_block(lhs, a_coord, kernel)? else {
                    continue;
                };
                // Charged to the sweep that starts the block-row, so that the
                // stats do not depend on where the striping cut it.
                if b_lo == 0 {
                    let (r0, r1) = lhs.spec.row_range(a_row, lhs.rows);
                    let (c0, c1) = lhs.spec.col_range(k, lhs.cols);
                    stats.bytes_read += ((r1 - r0) * (c1 - c0) * ELEM_BYTES) as u64;
                    stats.bytes_copied += copied;
                }
                for (sum, b_row) in partials.iter_mut().zip(b_lo..b_hi) {
                    let b_coord = BlockCoord { row: b_row, col: k };
                    if !self.index.contains_key(&b_coord) {
                        continue;
                    }
                    let partial = self.multiply_pair(&a_block, b_coord, &mut stats)?;
                    stats.joins += 1;
                    match sum {
                        Some(sum) => relserve_tensor::ops::axpy(sum, &partial, 1.0)?,
                        None => *sum = Some(partial),
                    }
                }
            }
            let mut finished = Vec::with_capacity(partials.len());
            for (block, b_row) in partials.into_iter().zip(b_lo..b_hi) {
                let Some(mut block) = block else { continue };
                finish(b_row * self.spec.block_rows, &mut block)?;
                finished.push((b_row, block));
            }
            let mut guard = out.lock().expect("output table lock");
            for (b_row, block) in finished {
                stats.blocks_out += 1;
                stats.bytes_written += block.num_bytes() as u64;
                guard.insert_block(
                    BlockCoord {
                        row: a_row,
                        col: b_row,
                    },
                    &block,
                )?;
            }
        }
        Ok(stats)
    }

    /// Activation block `coord` as `kernel` consumes it against this weight
    /// relation, and the bytes gathering it copied; `None` where the
    /// activation relation has no block.
    fn activation_block<'a>(
        &self,
        lhs: &Lhs<'a>,
        coord: BlockCoord,
        kernel: PairKernel,
    ) -> Result<Option<(PreparedBlock<'a>, u64)>> {
        let block = match lhs.x {
            Activations::Blocks(table) => {
                if !table.index.contains_key(&coord) {
                    return Ok(None);
                }
                table.get_block(coord)?
            }
            Activations::Dense(dense) => {
                let (r0, r1) = lhs.spec.row_range(coord.row, lhs.rows);
                let (c0, c1) = lhs.spec.col_range(coord.col, lhs.cols);
                let window = PreparedBlock::Window {
                    data: &dense.data()[r0 * lhs.cols + c0..],
                    rows: r1 - r0,
                    ld: lhs.cols,
                };
                if lhs.in_place {
                    return Ok(Some((window, 0)));
                }
                dense.slice2(r0, r1, c0, c1)?
            }
        };
        let copied = block.num_bytes() as u64;
        Ok(Some((
            match kernel {
                PairKernel::F32 => PreparedBlock::F32(block),
                PairKernel::Int8 => PreparedBlock::Int8(quant::quantize_activations(&block)?),
            },
            copied,
        )))
    }

    /// `lhs × selfᵀ[coord]` for one weight block of this relation, charging
    /// the payload bytes it cost to read — for the int8 kernel the bytes the
    /// i8 payload actually occupies, which is the 4× traffic reduction the
    /// step-down buys — and those it copied. A packed f32 block goes to the
    /// kernel where it lies in its pinned frames, with no copy and no
    /// repacking; the product is the same to the bit as for the row-major
    /// block of the same values.
    fn multiply_pair(
        &self,
        lhs: &PreparedBlock<'_>,
        coord: BlockCoord,
        stats: &mut TensorOpStats,
    ) -> Result<Tensor> {
        let meta = self.meta_for(coord)?;
        let serial = Parallelism::serial();
        let (product, read, copied) = match (lhs, meta.kind) {
            (PreparedBlock::Window { .. } | PreparedBlock::F32(_), BlockKind::Packed { nr }) => {
                let (data, rows, ld) = match lhs {
                    PreparedBlock::Window { data, rows, ld } => (*data, *rows, *ld),
                    PreparedBlock::F32(a) => {
                        let (rows, cols) = a.shape().as_matrix()?;
                        (a.data(), rows, cols)
                    }
                    PreparedBlock::Int8(_) => unreachable!("matched above"),
                };
                let product = self.with_packed(meta, nr, |b| {
                    Ok(matmul::matmul_prepacked_window(
                        data,
                        ld,
                        rows,
                        b,
                        Epilogue::None,
                        &serial,
                    )?)
                })?;
                let panels = PackedB::len_for(meta.cols, meta.rows, nr) * ELEM_BYTES;
                (product, panels as u64, 0)
            }
            (PreparedBlock::F32(a), _) => {
                let b = self.get_block(coord)?;
                let bytes = b.num_bytes() as u64;
                (matmul::matmul_bt_parallel(a, &b, &serial)?, bytes, bytes)
            }
            (PreparedBlock::Int8(aq), _) => {
                let b = self.read_qblock(meta)?;
                let bytes = b.storage_bytes() as u64;
                (
                    quant::qmatmul_prequantized(aq, &b, None, &serial)?,
                    bytes,
                    bytes,
                )
            }
            (PreparedBlock::Window { .. }, _) => {
                unreachable!("a window is only kept for packed weights")
            }
        };
        stats.bytes_read += read;
        stats.bytes_copied += copied;
        Ok(product)
    }

    /// Apply `f` to every stored block, producing a new relation (the
    /// relation-centric form of an elementwise operator such as relu).
    pub fn map(&self, out_name: impl Into<String>, f: impl Fn(f32) -> f32) -> Result<TensorTable> {
        let mut out = TensorTable::create(
            self.pool().clone(),
            out_name,
            self.rows,
            self.cols,
            self.spec,
        );
        for coord in self.coords() {
            let mut block = self.get_block(coord)?;
            relserve_tensor::ops::map_inplace(&mut block, &f);
            out.insert_block(coord, &block)?;
        }
        Ok(out)
    }
}

impl std::fmt::Debug for TensorTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorTable")
            .field("name", &self.name)
            .field("shape", &(self.rows, self.cols))
            .field("blocks", &self.index.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_storage::DiskManager;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(DiskManager::temp().unwrap()),
            frames,
        ))
    }

    fn pattern(rows: usize, cols: usize, salt: usize) -> Tensor {
        Tensor::from_fn([rows, cols], |i| ((i * 29 + salt * 13) % 19) as f32 - 9.0)
    }

    /// `C = A × Bᵀ` on a serial grant.
    fn join(a: &TensorTable, b: &TensorTable) -> Result<(TensorTable, TensorOpStats)> {
        a.matmul_bt_parallel(b, "C", &Parallelism::serial())
    }

    #[test]
    fn dense_roundtrip() {
        let t = pattern(10, 7, 1);
        let table = TensorTable::from_dense(pool(16), "t", &t, BlockingSpec::square(4)).unwrap();
        assert_eq!(table.num_blocks(), 3 * 2);
        assert!(table.to_dense().unwrap().approx_eq(&t, 0.0));
    }

    #[test]
    fn get_block_matches_blocked_tensor() {
        let t = pattern(6, 6, 2);
        let spec = BlockingSpec::square(3);
        let blocked = BlockedTensor::from_dense(&t, spec).unwrap();
        let table = TensorTable::from_dense(pool(16), "t", &t, spec).unwrap();
        for (coord, block) in blocked.iter_blocks() {
            assert_eq!(&table.get_block(coord).unwrap(), block);
        }
        assert!(table.get_block(BlockCoord { row: 9, col: 9 }).is_err());
    }

    #[test]
    fn relational_matmul_matches_dense() {
        // `A × B` is the join against `B` stored transposed, `[n, k]`; the
        // two relations block their shared `k` alike and their rows apart.
        let a = pattern(7, 9, 3);
        let b = pattern(9, 5, 4);
        let p = pool(32);
        let at = TensorTable::from_dense(
            p.clone(),
            "A",
            &a,
            BlockingSpec {
                block_rows: 3,
                block_cols: 4,
            },
        )
        .unwrap();
        let bt = TensorTable::from_dense(
            p,
            "Bt",
            &b.transpose().unwrap(),
            BlockingSpec {
                block_rows: 2,
                block_cols: 4,
            },
        )
        .unwrap();
        let (c, stats) = join(&at, &bt).unwrap();
        let expect =
            relserve_tensor::matmul::matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
        assert!(c.to_dense().unwrap().approx_eq(&expect, 1e-3));
        assert!(stats.joins > 0);
        assert_eq!(stats.blocks_out as usize, c.num_blocks());
    }

    #[test]
    fn relational_matmul_bt_matches_dense() {
        let x = pattern(8, 10, 5);
        let w = pattern(6, 10, 6); // [n, k] weight layout
        let p = pool(32);
        let xt = TensorTable::from_dense(p.clone(), "X", &x, BlockingSpec::square(4)).unwrap();
        let wt = TensorTable::from_dense(p, "W", &w, BlockingSpec::square(4)).unwrap();
        let (c, _) = join(&xt, &wt).unwrap();
        let expect =
            relserve_tensor::matmul::matmul_bt_parallel(&x, &w, &Parallelism::serial()).unwrap();
        assert!(c.to_dense().unwrap().approx_eq(&expect, 1e-3));
    }

    /// The output-cell-striped join against the serial join, f32 or int8:
    /// bit-identical whatever the thread count, because every output block
    /// is still accumulated `k` ascending by exactly one worker.
    fn assert_striped_join_is_bit_identical(x: &Tensor, w: &Tensor, block: usize, int8: bool) {
        let p = pool(256);
        let spec = BlockingSpec::square(block);
        let xt = TensorTable::from_dense(p.clone(), "X", x, spec).unwrap();
        let wt = if int8 {
            let q = QuantizedTensor::quantize(w).unwrap();
            TensorTable::from_quantized(p, "Wq", &q, spec).unwrap()
        } else {
            TensorTable::from_dense(p, "W", w, spec).unwrap()
        };
        let join = |par: &Parallelism| {
            if int8 {
                xt.matmul_bt_quant_parallel(&wt, "C", par).unwrap()
            } else {
                xt.matmul_bt_parallel(&wt, "C", par).unwrap()
            }
        };
        let (serial, serial_stats) = join(&Parallelism::serial());
        let expect = serial.to_dense().unwrap();
        for threads in [1, 2, 3, 7, 16] {
            let grant = Parallelism::new(
                std::sync::Arc::new(relserve_tensor::parallel::SerialRunner),
                threads,
            );
            let (c, stats) = join(&grant);
            let what = format!("int8={int8} threads={threads} x={}", x.shape());
            assert_eq!(c.to_dense().unwrap().data(), expect.data(), "{what}");
            // Stats describe the same logical work however it is striped.
            assert_eq!(stats, serial_stats, "{what}");
        }
    }

    #[test]
    fn striped_join_matches_serial_any_thread_count() {
        for int8 in [false, true] {
            // Ragged edge blocks on every axis.
            assert_striped_join_is_bit_identical(
                &pattern(13, 10, 12),
                &pattern(9, 10, 13),
                4,
                int8,
            );
            // One activation block-row: all the parallelism is across the
            // weight relation's block-rows.
            assert_striped_join_is_bit_identical(
                &pattern(3, 33, 14),
                &pattern(29, 33, 15),
                4,
                int8,
            );
            // Fewer output cells than threads.
            assert_striped_join_is_bit_identical(&pattern(2, 5, 16), &pattern(3, 5, 17), 8, int8);
        }
    }

    /// Values whose products and sums round, so that bit-identity is not
    /// satisfied by exact arithmetic whatever the order of summation.
    fn inexact(rows: usize, cols: usize, step: f32) -> Tensor {
        Tensor::from_fn([rows, cols], |i| (i as f32 * step).sin())
    }

    /// A join against the packed weight relation of `w` must equal, to the
    /// bit, the join against its row-major relation — for every grant.
    fn assert_packed_join_equals_plain(x: &Tensor, w: &Tensor, block: usize) {
        let p = pool(512);
        let spec = BlockingSpec::square(block);
        let xt = TensorTable::from_dense(p.clone(), "X", x, spec).unwrap();
        let plain = TensorTable::from_dense(p.clone(), "W", w, spec).unwrap();
        let packed = TensorTable::from_weights(p, "Wp", w, spec).unwrap();
        let (expect, plain_stats) = join(&xt, &plain).unwrap();
        let expect = expect.to_dense().unwrap();
        for threads in [1, 2, 16] {
            let grant = Parallelism::new(
                std::sync::Arc::new(relserve_tensor::parallel::SerialRunner),
                threads,
            );
            let (c, stats) = xt.matmul_bt_parallel(&packed, "C", &grant).unwrap();
            let what = format!("threads={threads} x={} w={}", x.shape(), w.shape());
            assert!(c.to_dense().unwrap().data() == expect.data(), "{what}");
            assert_eq!(stats.joins, plain_stats.joins, "{what}");
            assert_eq!(stats.blocks_out, plain_stats.blocks_out, "{what}");
        }
    }

    #[test]
    fn packed_weight_join_equals_plain_join_bit_for_bit() {
        // Dense-layer shape: one activation block-row (all the fan-out is
        // across weight block-rows), a 120-wide last column block, and a
        // ragged last weight block-row on both kernel panel widths.
        assert_packed_join_equals_plain(&inexact(64, 632, 0.73), &inexact(300, 632, 0.41), 128);
        // Pointwise-conv shape: many pixel rows, a handful of channels.
        assert_packed_join_equals_plain(&inexact(200, 4, 0.73), &inexact(8, 4, 0.41), 16);
        // Block products on the dot-product side of the packing threshold.
        assert_packed_join_equals_plain(&inexact(13, 10, 0.73), &inexact(9, 10, 0.41), 4);
    }

    #[test]
    fn packed_relation_reads_back_as_the_logical_matrix() {
        let w = inexact(45, 70, 0.59);
        let spec = BlockingSpec::square(32);
        let packed = TensorTable::from_weights(pool(64), "Wp", &w, spec).unwrap();
        assert!(!packed.is_quantized());
        assert_eq!(packed.to_dense().unwrap(), w);
        let corner = packed.get_block(BlockCoord { row: 1, col: 2 }).unwrap();
        assert_eq!(corner, w.slice2(32, 45, 64, 70).unwrap());
        // Its blocks are not int8 blocks, and it joins as the rhs of `A × Wᵀ`.
        let a =
            TensorTable::from_dense(packed.pool().clone(), "A", &pattern(7, 70, 48), spec).unwrap();
        assert!(a
            .matmul_bt_quant_parallel(&packed, "C", &Parallelism::serial())
            .is_err());
        let (c, _) = join(&a, &packed).unwrap();
        let expect = relserve_tensor::matmul::matmul_bt_parallel(
            &pattern(7, 70, 48),
            &w,
            &Parallelism::serial(),
        )
        .unwrap();
        assert!(c.to_dense().unwrap().approx_eq(&expect, 1e-2));
    }

    #[test]
    fn weight_rows_stream_a_group_at_a_time_through_a_pool_smaller_than_a_block_row() {
        // Ten block columns of a 16-square blocking, four frames.
        let (rows, cols) = (70, 9 * 16 + 5);
        let w = inexact(rows, cols, 0.37);
        let spec = BlockingSpec::square(16);
        let nr = matmul::panel_width().unwrap();
        let p = pool(4);
        let (mut fed, mut widest) = (0, 0);
        let packed = TensorTable::from_weight_rows(p.clone(), "W", (rows, cols), spec, |out| {
            widest = widest.max(out.len());
            out.copy_from_slice(&w.data()[fed..fed + out.len()]);
            fed += out.len();
            Ok::<(), Error>(())
        })
        .unwrap();
        assert_eq!(fed, w.len(), "every row read once");
        assert!(widest <= 16usize.next_multiple_of(nr) * cols, "{widest}");
        assert_eq!(packed.to_dense().unwrap(), w);
        let q = QuantizedTensor::quantize(&w).unwrap();
        let qt = TensorTable::from_quantized(p.clone(), "Wq", &q, spec).unwrap();
        assert_eq!(qt.to_dense().unwrap(), q.dequantize());
        let corner = qt.get_block(BlockCoord { row: 4, col: 9 }).unwrap();
        assert_eq!(corner, q.dequantize().slice2(64, 70, 144, 149).unwrap());
        // A source that fails part-way fails the build, which gives back
        // every page it wrote.
        drop((packed, qt));
        let allocated = p.disk().num_pages() as usize;
        let mut calls = 0;
        let failed = TensorTable::from_weight_rows(p.clone(), "W", (rows, cols), spec, |_| {
            calls += 1;
            if calls == 3 {
                return Err(Error::Codec("source gave out".into()));
            }
            Ok(())
        });
        assert!(matches!(failed, Err(Error::Codec(_))));
        assert_eq!(p.disk().free_pages(), allocated);
    }

    #[test]
    fn a_block_is_exactly_its_values_on_disk() {
        // 512x512 f32 = 1 MiB = 16 pages, row-major or packed; no 17th page
        // for a header.
        let w = pattern(512, 512, 49);
        let spec = BlockingSpec::square(512);
        for packed in [false, true] {
            let p = pool(64);
            let table = if packed {
                TensorTable::from_weights(p.clone(), "W", &w, spec).unwrap()
            } else {
                TensorTable::from_dense(p.clone(), "W", &w, spec).unwrap()
            };
            assert_eq!(p.disk().num_pages(), 16, "packed={packed}");
            assert_eq!(table.bytes_stored(), 1 << 20);
        }
    }

    #[test]
    fn a_payload_that_disagrees_with_its_index_entry_is_a_codec_error() {
        let mut table =
            TensorTable::from_dense(pool(8), "t", &pattern(4, 4, 50), BlockingSpec::square(4))
                .unwrap();
        let coord = BlockCoord { row: 0, col: 0 };
        table.index.get_mut(&coord).unwrap().cols = 5;
        assert!(matches!(table.get_block(coord), Err(Error::Codec(_))));
        table.index.get_mut(&coord).unwrap().kind = BlockKind::Int8;
        assert!(matches!(table.get_block(coord), Err(Error::Codec(_))));
    }

    #[test]
    fn one_block_row_fans_out_across_weight_block_rows() {
        // A batch no taller than a block used to clamp the join to one
        // stripe; count the tasks the runner is actually handed.
        struct Counting(std::sync::atomic::AtomicUsize);
        impl relserve_tensor::parallel::StripeRunner for Counting {
            fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                self.0
                    .fetch_max(n_tasks, std::sync::atomic::Ordering::Relaxed);
                (0..n_tasks).for_each(task);
            }
            fn max_concurrency(&self) -> usize {
                8
            }
        }
        let p = pool(64);
        let spec = BlockingSpec::square(4);
        let xt = TensorTable::from_dense(p.clone(), "X", &pattern(3, 10, 1), spec).unwrap();
        let wt = TensorTable::from_dense(p, "W", &pattern(16, 10, 2), spec).unwrap();
        let runner = std::sync::Arc::new(Counting(Default::default()));
        xt.matmul_bt_parallel(&wt, "C", &Parallelism::new(runner.clone(), 4))
            .unwrap();
        assert_eq!(runner.0.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn matmul_streams_through_tiny_pool() {
        // The point of relation-centric execution: a matmul whose operands
        // exceed the buffer pool must still complete, spilling via disk.
        let a = pattern(64, 64, 7);
        let b = pattern(64, 64, 8);
        let p = pool(4); // 4 frames = 256 KiB; operands are 16 KiB each + outputs
        let at = TensorTable::from_dense(p.clone(), "A", &a, BlockingSpec::square(16)).unwrap();
        let bt = TensorTable::from_dense(p.clone(), "B", &b, BlockingSpec::square(16)).unwrap();
        let (c, _) = join(&at, &bt).unwrap();
        let expect =
            relserve_tensor::matmul::matmul_bt_parallel(&a, &b, &Parallelism::serial()).unwrap();
        assert!(c.to_dense().unwrap().approx_eq(&expect, 1e-2));
        assert!(p.stats().evictions > 0);
    }

    #[test]
    fn dropped_and_replaced_relations_give_their_pages_back() {
        let p = pool(8);
        let t = pattern(40, 40, 3);
        let spec = BlockingSpec::square(16);
        let first = TensorTable::from_dense(p.clone(), "t0", &t, spec).unwrap();
        let pages = p.disk().num_pages();
        drop(first);
        // Temporaries of the same shape now live in the freed pages.
        for i in 0..10 {
            let mut table = TensorTable::from_dense(p.clone(), format!("t{i}"), &t, spec).unwrap();
            let coord = BlockCoord { row: 0, col: 0 };
            table
                .insert_block(coord, &Tensor::full([16, 16], i as f32))
                .unwrap();
            assert_eq!(
                table.get_block(coord).unwrap(),
                Tensor::full([16, 16], i as f32)
            );
            assert!(
                table.to_dense().unwrap().slice2(16, 40, 0, 40).unwrap()
                    == t.slice2(16, 40, 0, 40).unwrap()
            );
        }
        // One spare block: a replacement is written before the old one goes.
        assert!(
            p.disk().num_pages() <= pages + 1,
            "file grew: {pages} -> {}",
            p.disk().num_pages()
        );
    }

    #[test]
    fn shape_and_blocking_validation() {
        let p = pool(8);
        let a = TensorTable::from_dense(p.clone(), "A", &pattern(4, 4, 1), BlockingSpec::square(2))
            .unwrap();
        let bad_shape =
            TensorTable::from_dense(p.clone(), "B", &pattern(4, 5, 2), BlockingSpec::square(2))
                .unwrap();
        assert!(join(&a, &bad_shape).is_err());
        let bad_blocking =
            TensorTable::from_dense(p, "B2", &pattern(4, 4, 3), BlockingSpec::square(3)).unwrap();
        assert!(join(&a, &bad_blocking).is_err());
    }

    #[test]
    fn map_applies_elementwise() {
        let t = pattern(5, 5, 9);
        let table = TensorTable::from_dense(pool(8), "t", &t, BlockingSpec::square(2)).unwrap();
        let relu = table.map("relu", |x| x.max(0.0)).unwrap();
        let expect = relserve_tensor::ops::relu(&t);
        assert!(relu.to_dense().unwrap().approx_eq(&expect, 0.0));
    }

    /// A grant of `threads` on a real kernel pool, so that workers pin
    /// their weight blocks at the same time.
    fn pooled(threads: usize) -> Parallelism {
        Parallelism::new(
            Arc::new(relserve_runtime::KernelPool::new(threads)),
            threads,
        )
    }

    #[test]
    fn a_dense_batch_joins_in_place_against_a_packed_relation_and_copies_nothing() {
        // A 120-wide last column block, whose panels do not tile a page,
        // and a ragged last weight block-row.
        let (x, w) = (inexact(64, 632, 0.73), inexact(600, 632, 0.41));
        let spec = BlockingSpec::square(512);
        let p = pool(64);
        let packed = TensorTable::from_weights(p.clone(), "W", &w, spec).unwrap();
        let xt = TensorTable::from_dense(p.clone(), "X", &x, spec).unwrap();
        let (expect, table_stats) = join(&xt, &packed).unwrap();
        let expect = expect.to_dense().unwrap();
        let none = |_: usize, _: &mut Tensor| Ok(());
        for par in [Parallelism::serial(), pooled(2)] {
            let (c, stats) = packed
                .join_layer(Activations::Dense(&x), "C", &par, &none)
                .unwrap();
            assert!(c.to_dense().unwrap().data() == expect.data());
            assert_eq!(stats.bytes_copied, 0, "{stats:?}");
            // The same logical work as joining the batch's relation, which
            // gathers each activation block out of its pages.
            assert_eq!(
                table_stats.bytes_copied,
                x.num_bytes() as u64,
                "{table_stats:?}"
            );
            assert_eq!(
                stats,
                TensorOpStats {
                    bytes_copied: 0,
                    ..table_stats
                }
            );
        }
        assert_eq!(p.pinned_pages(), 0);
        // Against row-major or int8 blocks the batch's blocks are copied out
        // for the kernel, once each.
        let plain = TensorTable::from_dense(p.clone(), "Wr", &w, spec).unwrap();
        let (c, stats) = plain
            .join_layer(Activations::Dense(&x), "C", &Parallelism::serial(), &none)
            .unwrap();
        assert!(c.to_dense().unwrap().data() == expect.data());
        assert_eq!(stats.bytes_copied, (x.num_bytes() + w.num_bytes()) as u64);
        let q = QuantizedTensor::quantize(&w).unwrap();
        let wq = TensorTable::from_quantized(p, "Wq", &q, spec).unwrap();
        let (c, _) = wq
            .join_layer(Activations::Dense(&x), "C", &Parallelism::serial(), &none)
            .unwrap();
        let (expect_q, _) = xt
            .matmul_bt_quant_parallel(&wq, "C", &Parallelism::serial())
            .unwrap();
        assert!(c.to_dense().unwrap().data() == expect_q.to_dense().unwrap().data());
    }

    #[test]
    fn a_layer_join_finishes_each_block_before_storing_it() {
        // `+ bias` then ReLU at flush, bit for bit the passes over the
        // stored product they replace.
        let (x, w) = (inexact(13, 70, 0.73), inexact(45, 70, 0.41));
        let bias = Tensor::from_fn([45], |i| (i as f32 * 0.3).cos());
        let spec = BlockingSpec::square(16);
        let p = pool(64);
        let packed = TensorTable::from_weights(p.clone(), "W", &w, spec).unwrap();
        let xt = TensorTable::from_dense(p, "X", &x, spec).unwrap();
        let (product, _) = join(&xt, &packed).unwrap();
        let mut expect = product.to_dense().unwrap();
        relserve_tensor::ops::add_bias_inplace(&mut expect, &bias).unwrap();
        relserve_tensor::ops::relu_inplace(&mut expect);
        let finish = |c0: usize, block: &mut Tensor| {
            let (_, width) = block.shape().as_matrix()?;
            let slice = Tensor::from_vec([width], bias.data()[c0..c0 + width].to_vec())?;
            relserve_tensor::ops::add_bias_inplace(block, &slice)?;
            relserve_tensor::ops::relu_inplace(block);
            Ok(())
        };
        for x in [Activations::Dense(&x), Activations::Blocks(&xt)] {
            let (c, stats) = packed.join_layer(x, "C", &pooled(2), &finish).unwrap();
            assert!(c.to_dense().unwrap().data() == expect.data());
            assert_eq!(stats.blocks_out as usize, c.num_blocks());
        }
    }

    #[test]
    fn a_pool_that_pins_one_block_runs_one_stripe_and_completes() {
        let (x, w) = (inexact(20, 300, 0.73), inexact(600, 300, 0.41));
        let spec = BlockingSpec::square(256);
        let p = pool(64);
        let packed = TensorTable::from_weights(p.clone(), "W", &w, spec).unwrap();
        let xt = TensorTable::from_dense(p.clone(), "X", &x, spec).unwrap();
        let (expect, expect_stats) = join(&xt, &packed).unwrap();
        let expect = expect.to_dense().unwrap();
        let block_pages = packed
            .index
            .values()
            .map(|meta| meta.payload_len().div_ceil(PAGE_SIZE))
            .max()
            .unwrap();
        // The relation's pages, around a pool that holds one block of them
        // and two frames more.
        let small = Arc::new(BufferPool::new(p.disk().clone(), block_pages + 2));
        let mut tight = TensorTable::create(small.clone(), "Wt", 600, 300, spec);
        p.flush_all().unwrap();
        for (coord, meta) in &packed.index {
            let pages = packed.blobs.pin(meta.blob).unwrap();
            let ids = pages.iter().map(|page| page.id()).collect();
            drop(pages);
            let blob = tight.blobs.adopt(ids, meta.payload_len());
            tight.index.insert(*coord, BlockMeta { blob, ..*meta });
        }
        for x in [Activations::Dense(&x), Activations::Blocks(&xt)] {
            let (c, stats) = tight
                .join_layer(x, "C", &pooled(2), &|_, _| Ok(()))
                .unwrap();
            assert!(c.to_dense().unwrap().data() == expect.data());
            assert_eq!(stats.joins, expect_stats.joins);
            assert_eq!(small.pinned_pages(), 0);
        }
    }

    #[test]
    fn quantized_roundtrip_and_dequantizing_get_block() {
        let w = pattern(10, 7, 21);
        let q = QuantizedTensor::quantize(&w).unwrap();
        let table =
            TensorTable::from_quantized(pool(16), "wq", &q, BlockingSpec::square(4)).unwrap();
        assert!(table.is_quantized());
        assert_eq!(table.num_blocks(), 3 * 2);
        // i8 payloads approach a quarter of the f32 encoding at realistic
        // block sizes (per-row scales amortize over the block width).
        let big = pattern(64, 64, 22);
        let big_q = QuantizedTensor::quantize(&big).unwrap();
        let big_qt =
            TensorTable::from_quantized(pool(16), "bq", &big_q, BlockingSpec::square(16)).unwrap();
        let big_ft =
            TensorTable::from_dense(pool(16), "bf", &big, BlockingSpec::square(16)).unwrap();
        assert!(big_qt.bytes_stored() * 3 < big_ft.bytes_stored());
        let f32_table =
            TensorTable::from_dense(pool(16), "wf", &w, BlockingSpec::square(4)).unwrap();
        // get_block transparently dequantizes; blocks match the chunks of
        // the full dequantized matrix exactly (scales slice with rows).
        assert!(table.to_dense().unwrap().approx_eq(&q.dequantize(), 0.0));
        let qb = table.get_block(BlockCoord { row: 0, col: 0 }).unwrap();
        assert_eq!(qb, q.dequantize().slice2(0, 4, 0, 4).unwrap());
        // The int8 join reads the raw i8 blocks; an f32 table has none.
        let x = TensorTable::from_dense(pool(16), "x", &pattern(2, 7, 23), BlockingSpec::square(4))
            .unwrap();
        assert!(x
            .matmul_bt_quant_parallel(&table, "C", &Parallelism::serial())
            .is_ok());
        assert!(x
            .matmul_bt_quant_parallel(&f32_table, "C", &Parallelism::serial())
            .is_err());
    }

    #[test]
    fn quantized_matmul_bt_matches_dequantized_reference() {
        let x = pattern(8, 10, 31);
        let w = pattern(6, 10, 32);
        let p = pool(32);
        let xt = TensorTable::from_dense(p.clone(), "X", &x, BlockingSpec::square(4)).unwrap();
        let q = QuantizedTensor::quantize(&w).unwrap();
        let wt = TensorTable::from_quantized(p, "Wq", &q, BlockingSpec::square(4)).unwrap();
        let (c, stats) = xt
            .matmul_bt_quant_parallel(&wt, "C", &Parallelism::serial())
            .unwrap();
        // The quantized join must track the f32 product of the same data to
        // within quantization error (weights snap to 127 levels per row,
        // activations to 127 levels per block row).
        let expect =
            relserve_tensor::matmul::matmul_bt_parallel(&x, &w, &Parallelism::serial()).unwrap();
        let got = c.to_dense().unwrap();
        let scale = expect.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        assert!(
            got.approx_eq(&expect, scale * 0.05),
            "max diff {}",
            got.max_abs_diff(&expect).unwrap()
        );
        assert!(stats.joins > 0);
        // The weight side of the join must be charged i8 bytes, not f32: each
        // of X's two block-rows reads every weight block once (at 4-row
        // blocks the per-row scales are over half of an i8 payload).
        let f32_weight_traffic = 2 * w.num_bytes() as u64;
        assert!(stats.bytes_read - (x.num_bytes() as u64) < f32_weight_traffic * 2 / 3);
    }

    #[test]
    fn quantized_join_rejects_f32_weight_relation() {
        let p = pool(16);
        let x = pattern(4, 6, 1);
        let w = pattern(3, 6, 2);
        let xt = TensorTable::from_dense(p.clone(), "X", &x, BlockingSpec::square(2)).unwrap();
        let wt = TensorTable::from_dense(p, "W", &w, BlockingSpec::square(2)).unwrap();
        assert!(xt
            .matmul_bt_quant_parallel(&wt, "C", &Parallelism::serial())
            .is_err());
    }

    #[test]
    fn insert_block_replaces() {
        let t = pattern(4, 4, 11);
        let mut table = TensorTable::from_dense(pool(8), "t", &t, BlockingSpec::square(2)).unwrap();
        let coord = BlockCoord { row: 0, col: 0 };
        let replacement = Tensor::full([2, 2], 42.0);
        table.insert_block(coord, &replacement).unwrap();
        assert_eq!(table.get_block(coord).unwrap(), replacement);
        assert_eq!(table.num_blocks(), 4);
    }
}
