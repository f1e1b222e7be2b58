//! Relation-centric execution: tensor operators lowered onto block relations.
//!
//! Each layer's tensor math is executed as relational dataflow over
//! [`TensorTable`]s (§7.1): weights live in the database as block relations
//! ([`WeightRelations`]: stored as such when a session loads the model, or
//! chunked the first time a layer runs here, and joined against by every
//! query), matmul becomes a join + aggregation
//! streaming through the buffer pool, pointwise convolutions are first
//! spatially rewritten into a matmul (`F × Kᵀ`), and general convolutions
//! build their im2col patch relation one image at a time. A dense input —
//! the scanned batch, or a pointwise conv's rewritten pixels — is joined
//! where it is, never written into the pool. The bias and an element-wise
//! activation are applied to each output block as the join finishes it;
//! softmax gathers one block-row at a time (it needs whole rows). Because
//! every intermediate lives behind the buffer pool, working memory is
//! bounded by block-row stripes — not tensor sizes — which is exactly why
//! this path survives the Table 3 workloads that OOM everywhere else.

use crate::error::{Error, Result};
use parking_lot::Mutex;
use relserve_nn::{Activation, Layer, Model, Precision, Weight};
use relserve_relational::tensor_table::{Activations, TensorOpStats};
use relserve_relational::TensorTable;
use relserve_storage::BufferPool;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{conv, ops, BlockCoord, BlockingSpec, Tensor};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One layer's weight relation: empty until the first query that needs it
/// has built it. The slot's own lock is held while building, so a racing
/// query waits for the finished relation instead of building a second one.
type WeightSlot = Arc<Mutex<Option<Arc<TensorTable>>>>;

/// The persistent weight relations of one database session (§1, §7.1):
/// queries only join against a layer's block relation, which exists once.
///
/// A loaded model's dense layers bring theirs: the session stores each
/// weight matrix as its relation's blocks at load and registers a relation
/// over those pages ([`WeightRelations::insert`]). Any other layer's — a
/// convolution's kernel relation, or a layer of a model run outside a
/// session — is chunked into the pool the first time it executes
/// relation-centrically ([`WeightRelations::get_or_build`]).
///
/// A relation is keyed by `(model name, layer index)` and lives as long as
/// this handle: a loaded model is immutable and the block size is fixed, so
/// nothing ever invalidates one. Its blocks sit behind the buffer pool, not
/// on the heap — a relation larger than the pool is read back per join,
/// without write-back. Concurrent queries share one `Arc<TensorTable>`; the
/// block join only reads it.
///
/// The handle also carries the pool and block size a relation-centric layer
/// needs, so the in-database executor ([`crate::exec::run`]) takes this one
/// argument.
pub struct WeightRelations {
    pool: Arc<BufferPool>,
    block: usize,
    slots: Mutex<HashMap<(String, usize), WeightSlot>>,
    builds: AtomicU64,
    reuses: AtomicU64,
}

impl WeightRelations {
    /// An empty set of weight relations over `pool`, chunked `block` square.
    pub fn new(pool: Arc<BufferPool>, block: usize) -> Self {
        WeightRelations {
            pool,
            block,
            slots: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// The buffer pool weight relations and per-query temporaries live in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Tensor block side length.
    pub fn block_size(&self) -> usize {
        self.block
    }

    fn spec(&self) -> BlockingSpec {
        BlockingSpec::square(self.block)
    }

    /// Weight relations chunked into the pool so far (one per layer without
    /// a stored relation that ever executed relation-centrically).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Layer executions that found their weight relation already there,
    /// stored or built.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Bytes of the built weight relations' pages resident in the buffer
    /// pool's frames right now. A relation still being built is not counted.
    pub fn resident_bytes(&self) -> u64 {
        let slots: Vec<WeightSlot> = self.slots.lock().values().cloned().collect();
        slots
            .iter()
            .filter_map(|slot| Some(slot.try_lock()?.as_ref()?.resident_bytes()))
            .sum()
    }

    /// Register `table` as layer `layer` of `model`'s weight relation: a
    /// relation over the pages its weights are stored on, which queries join
    /// against as they would against one they built.
    pub fn insert(&self, model: &str, layer: usize, table: TensorTable) {
        let slot = Arc::new(Mutex::new(Some(Arc::new(table))));
        self.slots.lock().insert((model.to_string(), layer), slot);
    }

    /// The weight relation of layer `layer` of `model`, building it with
    /// `build` if this is the first query to need it. `shape` is what the
    /// layer's `[n, k]` weight matrix must measure: a relation cached under
    /// the same key with another shape means two different models share a
    /// name, and is refused rather than joined against.
    fn get_or_build(
        &self,
        model: &str,
        layer: usize,
        shape: (usize, usize),
        build: impl FnOnce(String) -> Result<TensorTable>,
    ) -> Result<Arc<TensorTable>> {
        let slot = self
            .slots
            .lock()
            .entry((model.to_string(), layer))
            .or_default()
            .clone();
        // A build that fails or panics leaves the slot empty — nothing
        // half-built is ever published — and the next query tries again.
        let mut slot = slot.lock();
        let table = match &*slot {
            Some(table) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                table.clone()
            }
            None => {
                let table = Arc::new(build(format!("{model}.l{layer}.w"))?);
                self.builds.fetch_add(1, Ordering::Relaxed);
                *slot = Some(table.clone());
                table
            }
        };
        if (table.rows(), table.cols()) != shape {
            return Err(Error::Invalid(format!(
                "weight relation {:?} is {}x{} but the layer's weights are {}x{}",
                table.name(),
                table.rows(),
                table.cols(),
                shape.0,
                shape.1
            )));
        }
        Ok(table)
    }
}

impl std::fmt::Debug for WeightRelations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightRelations")
            .field("block", &self.block)
            .field("builds", &self.builds())
            .field("reuses", &self.reuses())
            .finish()
    }
}

/// The data flowing between layers of the in-database executor.
pub(crate) enum Flow<'a> {
    /// Still dense in memory: the caller's scanned batch, borrowed, or a
    /// dense layer's result.
    Dense(Cow<'a, Tensor>),
    /// A block relation with one row per logical example.
    Rows(TensorTable),
    /// A block relation with one row per *pixel* (conv output), remembering
    /// the spatial geometry for later flatten/conv layers.
    Pixels {
        /// The pixel-major block relation `[n*h*w, channels]`.
        table: TensorTable,
        /// Batch size.
        n: usize,
        /// Spatial height.
        h: usize,
        /// Spatial width.
        w: usize,
    },
}

impl<'a> Flow<'a> {
    /// Bytes the flow would take densified, or `None` if it already is.
    pub(crate) fn blocked_bytes(&self) -> Option<usize> {
        match self {
            Flow::Dense(_) => None,
            Flow::Rows(table) | Flow::Pixels { table, .. } => {
                Some(table.rows() * table.cols() * relserve_tensor::ELEM_BYTES)
            }
        }
    }

    /// Materialize the flow as one dense tensor: `[n, h, w, c]` for pixels.
    /// A dense flow stays what it is, borrowed or owned.
    pub(crate) fn into_dense(self) -> Result<Cow<'a, Tensor>> {
        Ok(match self {
            Flow::Dense(t) => t,
            Flow::Rows(table) => Cow::Owned(table.to_dense()?),
            Flow::Pixels { table, n, h, w } => {
                let c = table.cols();
                Cow::Owned(table.to_dense()?.reshape([n, h, w, c])?)
            }
        })
    }

    /// The executor's result: a dense flow stays dense, a blocked one is
    /// returned as its relation.
    pub(crate) fn into_output(self) -> super::Output {
        match self {
            Flow::Dense(t) => super::Output::Dense(t.into_owned()),
            Flow::Rows(table) | Flow::Pixels { table, .. } => super::Output::Blocked(table),
        }
    }

    fn describe(&self) -> String {
        match self {
            Flow::Dense(t) => format!("dense{}", t.shape()),
            Flow::Rows(t) => format!("rows[{}x{}]", t.rows(), t.cols()),
            Flow::Pixels { table, n, h, w } => {
                format!("pixels[{n}x{h}x{w} -> {}x{}]", table.rows(), table.cols())
            }
        }
    }
}

/// Accumulates rows into fixed-height block stripes and writes them into a
/// [`TensorTable`], so arbitrarily large row streams (im2col output, layer
/// results) materialize without ever being whole in memory.
pub(crate) struct RowStreamBuilder {
    table: TensorTable,
    cols: usize,
    block_rows: usize,
    block_cols: usize,
    buffered: Vec<f32>,
    next_block_row: usize,
    total_rows: usize,
    rows_seen: usize,
}

impl RowStreamBuilder {
    pub(crate) fn new(
        pool: Arc<BufferPool>,
        name: impl Into<String>,
        total_rows: usize,
        cols: usize,
        spec: BlockingSpec,
    ) -> Self {
        RowStreamBuilder {
            table: TensorTable::create(pool, name, total_rows, cols, spec),
            cols,
            block_rows: spec.block_rows,
            block_cols: spec.block_cols,
            buffered: Vec::with_capacity(spec.block_rows * cols),
            next_block_row: 0,
            total_rows,
            rows_seen: 0,
        }
    }

    /// Append `rows × cols` values (row-major).
    pub(crate) fn push_rows(&mut self, data: &[f32]) -> Result<()> {
        debug_assert_eq!(data.len() % self.cols, 0);
        self.rows_seen += data.len() / self.cols;
        if self.rows_seen > self.total_rows {
            return Err(Error::Invalid(format!(
                "row stream overflow: {} rows into a {}-row relation",
                self.rows_seen, self.total_rows
            )));
        }
        self.buffered.extend_from_slice(data);
        while self.buffered.len() >= self.block_rows * self.cols {
            let stripe: Vec<f32> = self.buffered.drain(..self.block_rows * self.cols).collect();
            self.flush_stripe(stripe, self.block_rows)?;
        }
        Ok(())
    }

    fn flush_stripe(&mut self, stripe: Vec<f32>, rows: usize) -> Result<()> {
        let stripe = Tensor::from_vec([rows, self.cols], stripe)?;
        for bc in 0..self.cols.div_ceil(self.block_cols) {
            let c0 = bc * self.block_cols;
            let c1 = (c0 + self.block_cols).min(self.cols);
            let block = stripe.slice2(0, rows, c0, c1)?;
            self.table.insert_block(
                BlockCoord {
                    row: self.next_block_row,
                    col: bc,
                },
                &block,
            )?;
        }
        self.next_block_row += 1;
        Ok(())
    }

    /// Flush the final partial stripe and return the finished relation.
    pub(crate) fn finish(mut self) -> Result<TensorTable> {
        if self.rows_seen != self.total_rows {
            return Err(Error::Invalid(format!(
                "row stream ended early: {} of {} rows",
                self.rows_seen, self.total_rows
            )));
        }
        if !self.buffered.is_empty() {
            let rows = self.buffered.len() / self.cols;
            let stripe = std::mem::take(&mut self.buffered);
            self.flush_stripe(stripe, rows)?;
        }
        Ok(self.table)
    }
}

/// Row-wise softmax over a block relation, gathering one block-row stripe at
/// a time (softmax needs whole rows; a stripe is the bounded unit).
///
/// Each stripe is assembled by copying blocks into a preallocated
/// `[rows, cols]` buffer — one write per element — instead of repeated
/// `hconcat`, whose rebuild-per-block assembly is quadratic in the number of
/// column blocks.
pub(crate) fn softmax_blocked(table: &TensorTable, name: &str) -> Result<TensorTable> {
    let spec = table.spec();
    let cols = table.cols();
    let mut out = TensorTable::create(table.pool().clone(), name, table.rows(), cols, spec);
    for block_row in 0..table.row_blocks() {
        if table.col_blocks() == 0 {
            continue;
        }
        // Gather this stripe's blocks into one contiguous [rows, cols] buffer.
        let mut stripe: Vec<f32> = Vec::new();
        let mut rows = 0usize;
        for bc in 0..table.col_blocks() {
            let block = table.get_block(BlockCoord {
                row: block_row,
                col: bc,
            })?;
            let (r, w) = block.shape().as_matrix()?;
            if stripe.is_empty() {
                rows = r;
                stripe.resize(rows * cols, 0.0);
            }
            let c0 = bc * spec.block_cols;
            for (i, src) in block.data().chunks_exact(w).enumerate() {
                stripe[i * cols + c0..i * cols + c0 + w].copy_from_slice(src);
            }
        }
        let stripe = Tensor::from_vec([rows, cols], stripe)?;
        let soft = relserve_tensor::ops::softmax(&stripe)?;
        for bc in 0..table.col_blocks() {
            let c0 = bc * spec.block_cols;
            let c1 = (c0 + spec.block_cols).min(cols);
            let block = soft.slice2(0, rows, c0, c1)?;
            out.insert_block(
                BlockCoord {
                    row: block_row,
                    col: bc,
                },
                &block,
            )?;
        }
    }
    Ok(out)
}

/// What a layer's join does to each output block as it finishes it: `+
/// bias` (a pointwise conv's rode along in its rewritten kernel), then the
/// activation if it is element-wise — the same operations, in the same
/// order, as the layer's dense forward. Softmax needs whole rows, and runs
/// after the join ([`softmax_pass`]).
fn finish_block(
    bias: Option<&Tensor>,
    activation: Activation,
) -> impl Fn(usize, &mut Tensor) -> relserve_relational::Result<()> + Sync + '_ {
    move |c0, block| {
        if let Some(bias) = bias {
            let (_, width) = block.shape().as_matrix()?;
            let slice = Tensor::from_vec([width], bias.data()[c0..c0 + width].to_vec())?;
            ops::add_bias_inplace(block, &slice)?;
        }
        match activation {
            Activation::Relu => ops::relu_inplace(block),
            Activation::Sigmoid => ops::sigmoid_inplace(block),
            Activation::Tanh => ops::map_inplace(block, f32::tanh),
            Activation::None | Activation::Softmax => {}
        }
        Ok(())
    }
}

/// A softmax layer's pass over its finished product; any other activation
/// was applied as the join flushed each block.
fn softmax_pass(
    product: TensorTable,
    activation: Activation,
    tag: &str,
    stats: &mut TensorOpStats,
) -> Result<TensorTable> {
    if activation != Activation::Softmax {
        return Ok(product);
    }
    let out = softmax_blocked(&product, &format!("{tag}.softmax"))?;
    // The pass read every input block and wrote every output block.
    stats.blocks_out += out.num_blocks() as u64;
    stats.bytes_read += product.bytes_stored();
    stats.bytes_written += out.bytes_stored();
    Ok(out)
}

/// The weight relation of a dense layer's matrix, chunked from wherever the
/// matrix is — raw values, packed panels or quads, or its artifact pages — a
/// group of rows at a time, so the matrix is never whole in memory on the
/// way.
fn weight_relation(
    weight: &Weight,
    pool: Arc<BufferPool>,
    name: String,
    spec: BlockingSpec,
) -> Result<TensorTable> {
    let mut rows = weight.reader()?;
    Ok(match weight.precision() {
        Precision::F32 => TensorTable::from_weight_rows(pool, name, weight.shape(), spec, |out| {
            Ok::<_, Error>(rows.f32_rows(out)?)
        })?,
        Precision::Int8 => {
            let scales = rows.scales()?;
            TensorTable::from_quantized_rows(pool, name, &scales, weight.shape().1, spec, |out| {
                Ok::<_, Error>(rows.i8_rows(out)?)
            })?
        }
    })
}

/// Execute layer `index` of `model` relation-centrically. `par` is this
/// layer's share of the query's admitted kernel budget: the output cells of
/// the matmul join fan out to the kernel pool up to that width. The layer's
/// weight relation comes from `weights` — stored at load, or chunked on the
/// first such execution (the runtime chunking overhead Table 3 attributes to
/// this path) and looked up ever after.
pub(crate) fn exec_layer<'a>(
    model: &Model,
    index: usize,
    flow: Flow<'a>,
    weights: &WeightRelations,
    par: &Parallelism,
    stats: &mut TensorOpStats,
) -> Result<Flow<'a>> {
    let tag = &format!("l{index}");
    let pool = &weights.pool;
    let spec_sq = weights.spec();
    match &model.layers()[index] {
        layer @ (Layer::Dense {
            bias, activation, ..
        }
        | Layer::QuantDense {
            bias, activation, ..
        }
        | Layer::Stored {
            bias, activation, ..
        }) => {
            let x =
                match &flow {
                    Flow::Dense(t) => Activations::Dense(t),
                    Flow::Rows(table) => Activations::Blocks(table),
                    Flow::Pixels { .. } => return Err(Error::Invalid(
                        "dense layer cannot consume pixel-major conv output; add a Flatten layer"
                            .into(),
                    )),
                };
            let weight = layer
                .weight()
                .ok_or_else(|| Error::Invalid("dense weight is not a matrix".into()))?;
            let w = weights.get_or_build(model.name(), index, weight.shape(), |name| {
                weight_relation(weight, pool.clone(), name, spec_sq)
            })?;
            // An int8 relation holds genuine i8 blocks — each carries its own
            // per-row scales, so the buffer pool moves ~4× fewer bytes than
            // the f32 path.
            let finish = finish_block(Some(bias), *activation);
            let (product, op_stats) = w.join_layer(x, format!("{tag}.xw"), par, &finish)?;
            stats.merge(op_stats);
            Ok(Flow::Rows(softmax_pass(product, *activation, tag, stats)?))
        }
        Layer::Conv2d {
            kernel,
            bias,
            spec,
            activation,
        } => {
            let input = flow.into_dense()?;
            let dims = input.shape().dims().to_vec();
            if dims.len() != 4 {
                return Err(Error::Invalid(format!(
                    "conv layer needs spatial input, got {dims:?}"
                )));
            }
            let (n, h, w) = (dims[0], dims[1], dims[2]);
            let (oh, ow) = spec.output_dims(h, w)?;
            let fold_bias = spec.is_pointwise();
            let (pixels, patches);
            let x = if fold_bias {
                // Spatial rewriting (§7.1): F = pixels+bias column, conv ≡ F×Kᵀ,
                // joined where it is.
                pixels = conv::spatial_rewrite_1x1(&input)?;
                Activations::Dense(&pixels)
            } else {
                // Stream the im2col patch relation one image at a time.
                let mut builder = RowStreamBuilder::new(
                    pool.clone(),
                    format!("{tag}.F"),
                    n * oh * ow,
                    spec.patch_len(),
                    spec_sq,
                );
                for img in 0..n {
                    let image = input.slice2(img * h * w, (img + 1) * h * w, 0, dims[3])?;
                    let image = image.reshape([1, h, w, dims[3]])?;
                    let cols = conv::im2col(&image, spec)?;
                    builder.push_rows(cols.data())?;
                }
                patches = builder.finish()?;
                Activations::Blocks(&patches)
            };
            // The kernel relation K: the rewritten kernel (bias folded into
            // its last column) for a pointwise conv, the flattened one
            // otherwise. It depends on the layer alone.
            let k_shape = (spec.out_channels, spec.patch_len() + usize::from(fold_bias));
            let k_table = weights.get_or_build(model.name(), index, k_shape, |name| {
                let k_dense = if fold_bias {
                    conv::rewrite_kernel_1x1(kernel, bias)?
                } else {
                    kernel
                        .clone()
                        .reshape([spec.out_channels, spec.patch_len()])?
                };
                Ok(TensorTable::from_weights(
                    pool.clone(),
                    name,
                    &k_dense,
                    spec_sq,
                )?)
            })?;
            // A pointwise conv's bias rode along in its rewritten kernel's
            // last column.
            let finish = finish_block((!fold_bias).then_some(bias), *activation);
            let (product, op_stats) = k_table.join_layer(x, format!("{tag}.FK"), par, &finish)?;
            stats.merge(op_stats);
            Ok(Flow::Pixels {
                table: softmax_pass(product, *activation, tag, stats)?,
                n,
                h: oh,
                w: ow,
            })
        }
        Layer::Flatten => match flow {
            Flow::Pixels { table, n, h, w } => {
                // Regroup pixel-major rows into example-major rows. This
                // densifies one example at a time via block-row streaming.
                let channels = table.cols();
                let width = h * w * channels;
                let mut builder =
                    RowStreamBuilder::new(pool.clone(), format!("{tag}.flat"), n, width, spec_sq);
                let dense = table.to_dense()?; // [n*h*w, c] — bounded by flatten sites
                for img in 0..n {
                    let rows = dense.slice2(img * h * w, (img + 1) * h * w, 0, channels)?;
                    builder.push_rows(rows.data())?;
                }
                Ok(Flow::Rows(builder.finish()?))
            }
            Flow::Dense(t) => {
                let dims = t.shape().dims().to_vec();
                let batch = dims[0];
                let rest: usize = dims[1..].iter().product();
                Ok(Flow::Dense(Cow::Owned(
                    t.into_owned().reshape([batch, rest])?,
                )))
            }
            rows @ Flow::Rows(_) => Ok(rows),
        },
    }
}

impl std::fmt::Debug for Flow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Flow::{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InferencePlan, Representation};
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_storage::DiskManager;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(DiskManager::temp().unwrap()),
            frames,
        ))
    }

    fn weights(frames: usize, block: usize) -> WeightRelations {
        WeightRelations::new(pool(frames), block)
    }

    fn ctx(threads: usize) -> relserve_runtime::ExecContext {
        relserve_runtime::ExecContext::standalone(
            threads,
            relserve_runtime::MemoryGovernor::unlimited("rc-test"),
        )
    }

    /// The relation-centric assignment: every layer a block join.
    fn run_rc(
        model: &Model,
        x: &Tensor,
        weights: &WeightRelations,
        ctx: &relserve_runtime::ExecContext,
    ) -> Result<(crate::exec::Output, TensorOpStats)> {
        let plan =
            InferencePlan::uniform(model, x.shape().dim(0), Representation::RelationCentric)?;
        crate::exec::run(model, x, &plan, weights, ctx)
    }

    fn serial() -> Parallelism {
        Parallelism::serial()
    }

    #[test]
    fn ffnn_matches_udf_path() {
        let mut rng = seeded_rng(80);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([10, 28], |i| ((i % 11) as f32 - 5.0) * 0.2);
        let (out, stats) = run_rc(&model, &x, &weights(64, 16), &ctx(2)).unwrap();
        let got = out.into_dense().unwrap();
        let expect = model.forward(&x, &serial()).unwrap();
        assert!(got.approx_eq(&expect, 1e-3));
        assert!(stats.joins > 0);
    }

    #[test]
    fn pointwise_conv_matches_udf_path() {
        let mut rng = seeded_rng(81);
        let model = zoo::landcover(250, &mut rng).unwrap(); // 10x10x3 → 8 kernels
        let x = Tensor::from_fn([2, 10, 10, 3], |i| ((i % 9) as f32 - 4.0) * 0.1);
        let (out, _) = run_rc(&model, &x, &weights(64, 16), &ctx(2)).unwrap();
        let got = out.into_dense().unwrap();
        let expect = model
            .forward(&x, &serial())
            .unwrap()
            .reshape([2 * 10 * 10, 8])
            .unwrap();
        assert!(got.approx_eq(&expect, 1e-3));
    }

    #[test]
    fn general_conv_and_flatten_match_udf_path() {
        let mut rng = seeded_rng(82);
        let model = zoo::caching_cnn(&mut rng).unwrap();
        let x = Tensor::from_fn([2, 28, 28, 1], |i| ((i % 7) as f32) * 0.1);
        let (out, _) = run_rc(&model, &x, &weights(256, 32), &ctx(2)).unwrap();
        let got = out.into_dense().unwrap();
        let expect = model.forward(&x, &serial()).unwrap();
        assert!(
            got.approx_eq(&expect, 1e-3),
            "max diff {}",
            got.max_abs_diff(&expect).unwrap()
        );
    }

    #[test]
    fn softmax_blocked_matches_dense() {
        let t = Tensor::from_fn([7, 9], |i| ((i * 13) % 17) as f32 * 0.3 - 2.0);
        let table = TensorTable::from_dense(pool(16), "s", &t, BlockingSpec::square(3)).unwrap();
        let soft = softmax_blocked(&table, "out").unwrap();
        let expect = relserve_tensor::ops::softmax(&t).unwrap();
        assert!(soft.to_dense().unwrap().approx_eq(&expect, 1e-5));
    }

    #[test]
    fn row_stream_builder_roundtrip() {
        let p = pool(16);
        let mut b = RowStreamBuilder::new(p, "rs", 10, 6, BlockingSpec::square(4));
        let full = Tensor::from_fn([10, 6], |i| i as f32);
        // Push in ragged chunks: 3 + 4 + 3 rows.
        b.push_rows(&full.data()[..3 * 6]).unwrap();
        b.push_rows(&full.data()[3 * 6..7 * 6]).unwrap();
        b.push_rows(&full.data()[7 * 6..]).unwrap();
        let table = b.finish().unwrap();
        assert!(table.to_dense().unwrap().approx_eq(&full, 0.0));
    }

    #[test]
    fn row_stream_builder_rejects_overflow_and_underflow() {
        let p = pool(16);
        let mut b = RowStreamBuilder::new(p.clone(), "rs", 2, 3, BlockingSpec::square(2));
        b.push_rows(&[0.0; 6]).unwrap();
        assert!(b.push_rows(&[0.0; 3]).is_err());
        let b2 = RowStreamBuilder::new(p, "rs2", 5, 3, BlockingSpec::square(2));
        assert!(b2.finish().is_err());
    }

    #[test]
    fn works_through_a_tiny_buffer_pool() {
        // The defining property: completes even when intermediates exceed
        // the pool, by spilling.
        let mut rng = seeded_rng(83);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::from_fn([64, 28], |i| (i % 5) as f32 * 0.1);
        let w = weights(4, 8); // 256 KiB pool; weights alone are ~57 KiB + activations
        let (out, _) = run_rc(&model, &x, &w, &ctx(2)).unwrap();
        let expect = model.forward(&x, &serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-3));
        assert!(w.pool().stats().evictions > 0, "expected spilling");
    }

    #[test]
    fn dense_after_pixels_requires_flatten() {
        let mut rng = seeded_rng(84);
        // An invalid model flow: a dense layer fed pixel-major conv output.
        let conv_model = zoo::landcover(500, &mut rng).unwrap();
        let x = Tensor::from_fn([1, 5, 5, 3], |i| i as f32 * 0.01);
        let w = weights(32, 4);
        let mut stats = TensorOpStats::default();
        let flow = exec_layer(
            &conv_model,
            0,
            Flow::Dense(Cow::Owned(x)),
            &w,
            &serial(),
            &mut stats,
        )
        .unwrap();
        let dense_model = Model::new("dense-only", [4])
            .push(relserve_nn::Layer::dense(4, 2, Activation::None, &mut rng))
            .unwrap();
        assert!(exec_layer(&dense_model, 0, flow, &w, &serial(), &mut stats).is_err());
    }

    #[test]
    fn weight_relations_build_once_and_refuse_a_name_clash() {
        let mut rng = seeded_rng(85);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([5, 28], |i| (i % 7) as f32 * 0.1);
        let w = weights(64, 16);
        let first = run_rc(&model, &x, &w, &ctx(2))
            .unwrap()
            .0
            .into_dense()
            .unwrap();
        assert_eq!((w.builds(), w.reuses()), (2, 0));
        let second = run_rc(&model, &x, &w, &ctx(1))
            .unwrap()
            .0
            .into_dense()
            .unwrap();
        assert_eq!((w.builds(), w.reuses()), (2, 2));
        assert_eq!(first.data(), second.data());
        // A failed build publishes nothing: the next query builds afresh.
        let shape = (3, 3);
        let failed = w.get_or_build("m", 0, shape, |_| Err(Error::Invalid("boom".into())));
        assert!(failed.is_err());
        let t = Tensor::from_fn([3, 3], |i| i as f32);
        let built = w.get_or_build("m", 0, shape, |name| {
            Ok(TensorTable::from_dense(
                w.pool().clone(),
                name,
                &t,
                w.spec(),
            )?)
        });
        assert_eq!(built.unwrap().name(), "m.l0.w");
        assert_eq!(w.builds(), 3);
        // Same key, different shape: another model is hiding behind the name.
        assert!(w.get_or_build("m", 0, (4, 3), |_| unreachable!()).is_err());
    }
}
