//! The one in-database executor, plus the DL-centric path.
//!
//! [`run`] is the in-database executor of §2.1's unified IR: it walks an
//! [`InferencePlan`], one node per model layer, running each layer in its
//! node's [`Representation`]. A UDF-centric layer runs on dense tensors
//! charged to the database governor; a relation-centric layer runs as block
//! joins through the buffer pool ([`relation_centric`]). The architectures
//! are plans, not engines: UDF-centric is the uniform `UdfCentric` plan,
//! relation-centric (and the session's degradation ladder) the uniform
//! `RelationCentric` plan, adaptive the §7.1 rule's per-layer mix, and
//! pipelined (§5.2) the uniform `UdfCentric` plan cut into morsels of
//! `micro_batch` rows that the granted kernel threads claim.
//! [`dl_centric`] ships the batch to an external runtime instead.
//!
//! All executors share one contract: take a model and a dense feature batch
//! pulled from the RDBMS, return an [`Output`] — dense when the result fits
//! the memory budget, blocked (a tensor relation) when only the
//! relation-centric path could materialize it.

pub mod dl_centric;
pub mod relation_centric;

use crate::error::{Error, Result};
use crate::ir::{InferencePlan, Representation};
use parking_lot::Mutex;
use relation_centric::{exec_layer, Flow, WeightRelations};
use relserve_nn::{Layer, Model};
use relserve_relational::tensor_table::TensorOpStats;
use relserve_relational::TensorTable;
use relserve_runtime::governor::Reservation;
use relserve_runtime::ExecContext;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{ops, Shape, Tensor};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Result of an inference execution.
pub enum Output {
    /// A dense result tensor (fits in memory).
    Dense(Tensor),
    /// A tensor relation of result blocks (may exceed memory; lives behind
    /// the buffer pool).
    Blocked(TensorTable),
}

impl Output {
    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        match self {
            Output::Dense(t) => t.shape().as_matrix().map(|(r, _)| r).unwrap_or(0),
            Output::Blocked(t) => t.rows(),
        }
    }

    /// Number of result columns.
    pub fn num_cols(&self) -> usize {
        match self {
            Output::Dense(t) => t.shape().as_matrix().map(|(_, c)| c).unwrap_or(0),
            Output::Blocked(t) => t.cols(),
        }
    }

    /// Row-wise argmax (class predictions). For blocked outputs this streams
    /// one block-row at a time so it never materializes the full tensor.
    pub fn predictions(&self) -> Result<Vec<usize>> {
        match self {
            Output::Dense(t) => {
                let (r, c) = t.shape().as_matrix()?;
                let flat = t.clone().reshape([r, c])?;
                Ok(ops::argmax_rows(&flat)?)
            }
            Output::Blocked(table) => {
                let mut best = vec![(f32::NEG_INFINITY, 0usize); table.rows()];
                let spec = table.spec();
                for coord in table.coords().collect::<Vec<_>>() {
                    let block = table.get_block(coord)?;
                    let (bh, bw) = block.shape().as_matrix()?;
                    let r0 = coord.row * spec.block_rows;
                    let c0 = coord.col * spec.block_cols;
                    for r in 0..bh {
                        for c in 0..bw {
                            let v = block.data()[r * bw + c];
                            if v > best[r0 + r].0 {
                                best[r0 + r] = (v, c0 + c);
                            }
                        }
                    }
                }
                Ok(best.into_iter().map(|(_, c)| c).collect())
            }
        }
    }

    /// Materialize as dense, whatever the representation. Only for results
    /// known to fit (tests, small outputs).
    pub fn into_dense(self) -> Result<Tensor> {
        match self {
            Output::Dense(t) => Ok(t),
            Output::Blocked(table) => Ok(table.to_dense()?),
        }
    }

    /// Sum of all elements — a cheap whole-result checksum that works
    /// streaming for blocked outputs.
    pub fn checksum(&self) -> Result<f64> {
        match self {
            Output::Dense(t) => Ok(t.data().iter().map(|v| *v as f64).sum()),
            Output::Blocked(table) => {
                let mut sum = 0.0f64;
                for coord in table.coords().collect::<Vec<_>>() {
                    let block = table.get_block(coord)?;
                    sum += block.data().iter().map(|v| *v as f64).sum::<f64>();
                }
                Ok(sum)
            }
        }
    }
}

impl std::fmt::Debug for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Output::Dense(t) => write!(f, "Output::Dense({:?})", t.shape()),
            Output::Blocked(t) => write!(
                f,
                "Output::Blocked({}x{}, {} blocks)",
                t.rows(),
                t.cols(),
                t.num_blocks()
            ),
        }
    }
}

/// Run `model` over `batch` inside `ctx`'s admitted slice of the machine,
/// each of `plan.ops` running its layer in the node's representation. The
/// nodes are the model's layers from the first node's `layer_index` on: a
/// plan may start past layer 0 (the rest of a join query's plan once
/// §7.2.1's push-down has run layer 0), and `batch` is then that layer's
/// input.
///
/// A dense (`UdfCentric`) layer holds its parameters, in their storage form,
/// for the whole call and slides an input/output window over the database
/// governor ([`forward_charged`]); a layer whose input arrives blocked is
/// densified under the governor first, and stays relation-centric when that
/// would OOM. A `RelationCentric` layer joins against its weight relation in
/// `weights` and reserves nothing: its intermediates live behind the buffer
/// pool. Kernels and block joins use the context's granted thread budget.
/// The deadline is checked before each layer, not inside one.
///
/// A plan whose `morsel_rows` is below the batch's rows runs every layer
/// dense, morsel by morsel ([`run_morsels`]); one with a relation-centric
/// node, or with `morsel_rows == 0`, is refused.
pub fn run(
    model: &Model,
    batch: &Tensor,
    plan: &InferencePlan,
    weights: &WeightRelations,
    ctx: &ExecContext,
) -> Result<(Output, TensorOpStats)> {
    let layers = model.layers().len();
    let first = plan.ops.first().map_or(0, |node| node.layer_index);
    if plan.ops.is_empty()
        || plan
            .ops
            .iter()
            .map(|node| node.layer_index)
            .ne(first..layers)
    {
        return Err(Error::Invalid(format!(
            "a plan of {} nodes from layer {first} for `{}`'s {layers} layers",
            plan.ops.len(),
            model.name()
        )));
    }
    if plan.morsel_rows == 0 {
        return Err(Error::Invalid("a plan of 0-row morsels".into()));
    }
    let in_shape = input_shape_of(model, first)?;
    let batch_size = match batch.shape().dims() {
        [rows, example @ ..]
            if example == in_shape.dims() || example == [in_shape.num_elements()] =>
        {
            *rows
        }
        dims => {
            return Err(Error::Nn(relserve_nn::Error::InputMismatch {
                expected: in_shape.dims().to_vec(),
                actual: dims.to_vec(),
            }))
        }
    };
    let dense =
        |i: usize| i >= first && plan.ops[i - first].representation == Representation::UdfCentric;
    let morsels = plan.morsel_rows < batch_size;
    if morsels && !(first..layers).all(dense) {
        return Err(Error::Invalid(format!(
            "`{}`: a plan cut into morsels runs every layer udf-centric",
            model.name()
        )));
    }
    let governor = ctx.governor();
    let _params = match model.param_bytes_of(dense) {
        0 => None,
        bytes => Some(governor.reserve(bytes)?),
    };
    if morsels {
        let out = run_morsels(model, first, batch, plan.morsel_rows, ctx)?;
        return Ok((Output::Dense(out), TensorOpStats::default()));
    }
    let par = ctx.parallelism();
    // The batch is the first dense window, unless the first layer joins it
    // where it is.
    let mut window = match dense(first) {
        true => Some(governor.reserve(batch.num_bytes())?),
        false => None,
    };
    let mut full_dims = vec![batch_size];
    full_dims.extend_from_slice(in_shape.dims());
    // The batch flows in borrowed; only a flat batch for a spatial model is
    // reshaped, into a copy.
    let mut flow = Flow::Dense(if batch.shape().dims() == full_dims.as_slice() {
        Cow::Borrowed(batch)
    } else {
        Cow::Owned(batch.clone().reshape(full_dims)?)
    });
    let mut stats = TensorOpStats::default();
    for i in first..layers {
        // Cooperative deadline check at every layer boundary: a timed-out
        // query unwinds here, dropping its context and grant.
        ctx.check_deadline("exec.layer")?;
        // A blocked flow entering a dense layer is densified under the
        // governor; if that would OOM, the layer runs relation-centric.
        if let (true, Some(bytes)) = (dense(i), flow.blocked_bytes()) {
            if let Ok(res) = governor.reserve(bytes) {
                window = Some(res);
                flow = Flow::Dense(flow.into_dense()?);
            }
        }
        flow = match flow {
            Flow::Dense(x) if dense(i) => Flow::Dense(Cow::Owned(forward_charged(
                model,
                i,
                &x,
                &par,
                &mut window,
                |bytes| Ok(governor.reserve(bytes)?),
            )?)),
            flow => {
                let out = exec_layer(model, i, flow, weights, &par, &mut stats)?;
                window = None;
                out
            }
        };
    }
    Ok((flow.into_output(), stats))
}

/// The per-example shape layer `first` of `model` takes.
fn input_shape_of(model: &Model, first: usize) -> Result<Shape> {
    let mut shape = model.input_shape().clone();
    for layer in &model.layers()[..first] {
        shape = layer.output_shape(&shape)?;
    }
    Ok(shape)
}

/// Run layers `first..` of `model` dense over `batch`, cut into morsels of
/// `morsel_rows` rows: the context's granted kernel threads claim morsels,
/// and each worker carries its morsel through every layer on a serial grant,
/// sliding its own input/output window over the governor as [`run`] does
/// for the whole batch. The assembled output is charged once; the batch is
/// the caller's. A failed morsel stops the later morsels at their next
/// layer boundary, and the error of the first failed morsel is returned,
/// a non-finite activation row in it named by its row in the batch.
fn run_morsels(
    model: &Model,
    first: usize,
    batch: &Tensor,
    morsel_rows: usize,
    ctx: &ExecContext,
) -> Result<Tensor> {
    let governor = ctx.governor();
    let rows = batch.shape().dim(0);
    let in_shape = input_shape_of(model, first)?;
    let out_shape = model.output_shape()?;
    let (width, out_width) = (in_shape.num_elements(), out_shape.num_elements());
    let _output = governor.reserve(rows * out_shape.num_bytes())?;
    let mut data = vec![0.0; rows * out_width];
    let failed = AtomicUsize::new(usize::MAX);
    let first_error = Mutex::new(None);
    let serial = Parallelism::serial();
    let parts = data.chunks_mut(morsel_rows * out_width).enumerate();
    ctx.parallelism()
        .run_owned(parts.collect(), |(m, out): (usize, &mut [f32])| {
            let (r0, r1) = (m * morsel_rows, (m * morsel_rows + morsel_rows).min(rows));
            let mut morsel = || -> Result<()> {
                let mut window = Some(governor.reserve((r1 - r0) * in_shape.num_bytes())?);
                let mut dims = vec![r1 - r0];
                dims.extend_from_slice(in_shape.dims());
                let mut x = Tensor::from_vec(dims, batch.data()[r0 * width..r1 * width].to_vec())?;
                for i in first..model.layers().len() {
                    if failed.load(Ordering::Relaxed) < m {
                        return Ok(());
                    }
                    ctx.check_deadline("exec.layer")?;
                    x = forward_charged(model, i, &x, &serial, &mut window, |bytes| {
                        Ok(governor.reserve(bytes)?)
                    })?;
                }
                out.copy_from_slice(x.data());
                Ok(())
            };
            if let Err(err) = morsel() {
                failed.fetch_min(m, Ordering::Relaxed);
                let mut first = first_error.lock();
                if first.as_ref().is_none_or(|&(f, _)| m < f) {
                    *first = Some((m, at_batch_row(err, r0)));
                }
            }
        });
    if let Some((_, err)) = first_error.into_inner() {
        return Err(err);
    }
    let mut dims = vec![rows];
    dims.extend_from_slice(out_shape.dims());
    Ok(Tensor::from_vec(dims, data)?)
}

/// `err` of a morsel whose first row is batch row `r0`, a non-finite
/// activation row renumbered as the batch's row.
fn at_batch_row(err: Error, r0: usize) -> Error {
    use relserve_tensor::Error::NonFiniteRow;
    match err {
        Error::Nn(relserve_nn::Error::Tensor(NonFiniteRow(r))) => {
            Error::Nn(relserve_nn::Error::Tensor(NonFiniteRow(r0 + r)))
        }
        err => err,
    }
}

/// Run layer `i` of `model` on the dense `x` under one memory domain's
/// charge — the database governor for [`run`], the external runtime for
/// [`dl_centric`]. `reserve` charges bytes to that domain: first the layer's
/// transient working memory (the im2col patch matrix of a non-pointwise
/// convolution), then its output, and the output's reservation replaces the
/// input's as the live `window` once the layer has run. Both input and output
/// are live during the layer, and a model that does not fit gets the
/// domain's recoverable OOM (Table 3's UDF-centric and DL-centric columns).
pub(crate) fn forward_charged(
    model: &Model,
    i: usize,
    x: &Tensor,
    par: &Parallelism,
    window: &mut Option<Reservation>,
    mut reserve: impl FnMut(usize) -> Result<Reservation>,
) -> Result<Tensor> {
    let batch = x.shape().dim(0);
    let in_shape = Shape::from(&x.shape().dims()[1..]);
    let layer = &model.layers()[i];
    let out_shape = layer.output_shape(&in_shape)?;
    let transient = match layer {
        Layer::Conv2d { spec, .. } if !spec.is_pointwise() => {
            let pixels = batch * out_shape.dim(0) * out_shape.dim(1);
            pixels * spec.patch_len() * relserve_tensor::ELEM_BYTES
        }
        _ => 0,
    };
    let _scratch = match transient {
        0 => None,
        bytes => Some(reserve(bytes)?),
    };
    let out = reserve(batch * out_shape.num_bytes())?;
    let y = model.forward_layer(i, x, par)?;
    *window = Some(out);
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::RuleBasedOptimizer;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::MemoryGovernor;
    use relserve_storage::{BufferPool, DiskManager};
    use relserve_tensor::BlockingSpec;
    use std::sync::Arc;

    fn weights(frames: usize, block: usize) -> WeightRelations {
        let disk = Arc::new(DiskManager::temp().unwrap());
        WeightRelations::new(Arc::new(BufferPool::new(disk, frames)), block)
    }

    fn ctx(threads: usize, governor: &MemoryGovernor) -> ExecContext {
        ExecContext::standalone(threads, governor.clone())
    }

    /// The UDF-centric plan: every layer dense.
    fn udf(model: &Model, x: &Tensor, ctx: &ExecContext) -> Result<Output> {
        let rows = x.shape().dim(0);
        let plan = InferencePlan::uniform(model, rows, Representation::UdfCentric)?;
        Ok(run(model, x, &plan, &weights(16, 8), ctx)?.0)
    }

    /// The pipelined plan: every layer dense, in morsels of `morsel_rows`.
    fn morsels(model: &Model, x: &Tensor, morsel_rows: usize, ctx: &ExecContext) -> Result<Tensor> {
        let rows = x.shape().dim(0);
        let plan = InferencePlan {
            morsel_rows,
            ..InferencePlan::uniform(model, rows, Representation::UdfCentric)?
        };
        run(model, x, &plan, &weights(16, 8), ctx)?.0.into_dense()
    }

    fn blocked_from(t: &Tensor) -> TensorTable {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 16));
        TensorTable::from_dense(pool, "t", t, BlockingSpec::square(2)).unwrap()
    }

    #[test]
    fn predictions_agree_between_representations() {
        let t = Tensor::from_vec(
            [3, 4],
            vec![
                0.1, 0.9, 0.0, 0.0, //
                0.7, 0.1, 0.1, 0.1, //
                0.0, 0.0, 0.2, 0.8,
            ],
        )
        .unwrap();
        let dense = Output::Dense(t.clone());
        let blocked = Output::Blocked(blocked_from(&t));
        assert_eq!(dense.predictions().unwrap(), vec![1, 0, 3]);
        assert_eq!(blocked.predictions().unwrap(), vec![1, 0, 3]);
    }

    #[test]
    fn checksum_agrees_between_representations() {
        let t = Tensor::from_fn([5, 7], |i| (i as f32).sin());
        let dense = Output::Dense(t.clone());
        let blocked = Output::Blocked(blocked_from(&t));
        let a = dense.checksum().unwrap();
        let b = blocked.checksum().unwrap();
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn dims_reported() {
        let t = Tensor::zeros([6, 2]);
        let o = Output::Blocked(blocked_from(&t));
        assert_eq!(o.num_rows(), 6);
        assert_eq!(o.num_cols(), 2);
    }

    #[test]
    fn matches_plain_forward() {
        let mut rng = seeded_rng(70);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([16, 28], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let governor = MemoryGovernor::unlimited("udf");
        let out = udf(&model, &x, &ctx(2, &governor))
            .unwrap()
            .into_dense()
            .unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.approx_eq(&expect, 1e-5));
        // All reservations must be released.
        assert_eq!(governor.in_use(), 0);
        assert!(governor.peak() > model.param_bytes());
    }

    #[test]
    fn oom_when_budget_too_small() {
        let mut rng = seeded_rng(71);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        // Budget below even the parameter size.
        let governor = MemoryGovernor::with_budget("udf", model.param_bytes() / 2);
        let err = udf(&model, &x, &ctx(1, &governor)).unwrap_err();
        assert!(err.is_oom(), "{err}");
        assert_eq!(governor.in_use(), 0, "OOM must not leak reservations");
    }

    #[test]
    fn oom_scales_with_batch_size() {
        // A budget that fits batch 8 but not batch 4096 — the Table 3
        // pattern where UDF-centric works at small batch and OOMs at large.
        let mut rng = seeded_rng(72);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let budget = model.param_bytes() + 8 * (28 + 512 + 512 + 512 + 2 + 2 + 2) * 4 + 4096;
        let governor = MemoryGovernor::with_budget("udf", budget);
        assert!(udf(&model, &Tensor::zeros([8, 28]), &ctx(1, &governor)).is_ok());
        let err = udf(&model, &Tensor::zeros([4096, 28]), &ctx(1, &governor)).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn conv_transient_is_charged() {
        // A 3×3 conv's im2col patch matrix is ~9× the input. With an
        // unlimited governor, record the true peak, then set the budget just
        // below it and expect OOM.
        let mut rng = seeded_rng(73);
        let model = zoo::caching_cnn(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28, 28, 1]);
        let unlimited = MemoryGovernor::unlimited("probe");
        udf(&model, &x, &ctx(1, &unlimited)).unwrap();
        let peak = unlimited.peak();
        let tight = MemoryGovernor::with_budget("udf", peak - 1);
        assert!(udf(&model, &x, &ctx(1, &tight)).unwrap_err().is_oom());
        let enough = MemoryGovernor::with_budget("udf", peak);
        assert!(udf(&model, &x, &ctx(1, &enough)).is_ok());
    }

    #[test]
    fn peak_includes_input_and_output_window() {
        let mut rng = seeded_rng(74);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let batch = 32;
        let x = Tensor::zeros([batch, 76]);
        let governor = MemoryGovernor::unlimited("udf");
        udf(&model, &x, &ctx(1, &governor)).unwrap();
        // Peak must cover params + the widest in/out window (76→3072 layer).
        let window = batch * (76 + 3072) * 4;
        assert!(governor.peak() >= model.param_bytes() + window);
    }

    #[test]
    fn a_plan_whose_node_count_differs_from_the_layer_count_is_refused() {
        let model = zoo::fraud_fc_256(&mut seeded_rng(75)).unwrap();
        let governor = MemoryGovernor::unlimited("db");
        let x = Tensor::zeros([2, 28]);
        let uniform = InferencePlan::uniform(&model, 2, Representation::UdfCentric).unwrap();
        for nodes in [0, 1, 3] {
            let mut plan = uniform.clone();
            plan.ops.resize(nodes, uniform.ops[0].clone());
            let err = run(&model, &x, &plan, &weights(16, 8), &ctx(1, &governor)).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{nodes} nodes: {err}");
        }
        assert_eq!(governor.peak(), 0, "a refused plan reserves nothing");
    }

    #[test]
    fn a_plan_starting_past_layer_0_runs_the_rest_of_the_model() {
        let model = zoo::encoder_fc(&mut seeded_rng(77)).unwrap();
        let x = Tensor::from_fn([5, 76], |i| ((i % 9) as f32 - 4.0) * 0.1);
        let par = Parallelism::serial();
        let hidden = model.forward_layer(0, &x, &par).unwrap();
        let mut plan = InferencePlan::uniform(&model, 5, Representation::UdfCentric).unwrap();
        plan.ops.remove(0);
        let governor = MemoryGovernor::unlimited("db");
        let (out, _) = run(&model, &hidden, &plan, &weights(16, 8), &ctx(1, &governor)).unwrap();
        assert_eq!(out.into_dense().unwrap(), model.forward(&x, &par).unwrap());
        // The batch is layer 1's input, and a plan skipping a middle layer
        // is refused.
        let err = run(&model, &x, &plan, &weights(16, 8), &ctx(1, &governor)).unwrap_err();
        assert!(
            matches!(err, Error::Nn(relserve_nn::Error::InputMismatch { .. })),
            "{err}"
        );
        let mut gap = InferencePlan::uniform(&model, 5, Representation::UdfCentric).unwrap();
        gap.ops.remove(1);
        let err = run(&model, &x, &gap, &weights(16, 8), &ctx(1, &governor)).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
    }

    #[test]
    fn the_estimate_is_what_a_dense_run_charges() {
        // An all-UDF run holds every parameter and slides an input/output
        // window: its peak is the parameters plus the widest layer's
        // `estimate − params`, exactly.
        let rng = &mut seeded_rng(76);
        let ffnns = [
            zoo::fraud_fc_256(rng).unwrap(),
            zoo::fraud_fc_512(rng).unwrap(),
            zoo::encoder_fc(rng).unwrap(),
            zoo::amazon_14k_fc(1024, rng).unwrap(),
            zoo::bosch_ffnn(rng).unwrap(),
            zoo::caching_ffnn(rng).unwrap(),
        ];
        let int8 = |m| relserve_nn::quant::quantize_int8(m).unwrap().model;
        for model in ffnns.iter().flat_map(|m| [m.clone(), int8(m)]) {
            for rows in [1, 64, 512] {
                let plan =
                    InferencePlan::uniform(&model, rows, Representation::UdfCentric).unwrap();
                let params = |i: usize| model.layers()[i].param_bytes();
                let window = plan
                    .ops
                    .iter()
                    .map(|n| n.estimated_bytes - params(n.layer_index));
                let governor = MemoryGovernor::unlimited("db");
                let x = Tensor::zeros([rows, model.input_shape().num_elements()]);
                run(&model, &x, &plan, &weights(16, 8), &ctx(2, &governor)).unwrap();
                let expect = model.param_bytes() + window.max().unwrap();
                assert_eq!(governor.peak(), expect, "{} @ {rows}", model.name());
            }
        }
    }

    #[test]
    fn all_udf_plan_matches_forward() {
        let mut rng = seeded_rng(95);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([12, 28], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let plan = RuleBasedOptimizer::paper_default()
            .plan(&model, 12, 1)
            .unwrap();
        assert_eq!(
            plan.layer_representations(),
            [Representation::UdfCentric; 2]
        );
        let governor = MemoryGovernor::unlimited("db");
        let (out, stats) = run(&model, &x, &plan, &weights(16, 8), &ctx(1, &governor)).unwrap();
        assert_eq!(stats.joins, 0);
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-4));
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn mixed_plan_matches_forward() {
        let mut rng = seeded_rng(96);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let x = Tensor::from_fn([6, 76], |i| ((i % 13) as f32 - 6.0) * 0.05);
        // A threshold between the two layers' estimates forces layer 0
        // (76→3072) relational and layer 1 (3072→768) UDF, or vice versa.
        let opt = RuleBasedOptimizer::new(9_000_000);
        let plan = opt.plan(&model, 6, 1).unwrap();
        let reps = plan.layer_representations();
        assert!(
            reps.contains(&Representation::RelationCentric)
                || reps.contains(&Representation::UdfCentric)
        );
        let governor = MemoryGovernor::unlimited("db");
        let (out, _) = run(&model, &x, &plan, &weights(128, 64), &ctx(1, &governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-2));
    }

    #[test]
    fn forced_relational_plan_matches_forward() {
        let mut rng = seeded_rng(97);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::from_fn([9, 28], |i| (i % 5) as f32 * 0.1);
        // Zero threshold: everything relational.
        let plan = RuleBasedOptimizer::new(0).plan(&model, 9, 1).unwrap();
        assert_eq!(
            plan.layer_representations(),
            [Representation::RelationCentric; 2]
        );
        let governor = MemoryGovernor::with_budget("db", 64 * 1024); // tiny
        let (out, stats) = run(&model, &x, &plan, &weights(64, 16), &ctx(1, &governor)).unwrap();
        assert!(stats.joins >= 2);
        assert_eq!(governor.peak(), 0, "relation-centric reserves nothing");
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-3));
    }

    #[test]
    fn fallback_keeps_layer_blocked_when_densify_would_oom() {
        let mut rng = seeded_rng(98);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let batch = 256;
        let x = Tensor::from_fn([batch, 28], |i| (i % 3) as f32 * 0.2);
        // Plan: layer 0 relational (big hidden activation), layer 1 UDF.
        let first_est = (batch * 28 + 28 * 512 + batch * 512) * 4;
        let opt = RuleBasedOptimizer::new(first_est - 1);
        let plan = opt.plan(&model, batch, 1).unwrap();
        assert_eq!(
            plan.layer_representations(),
            [Representation::RelationCentric, Representation::UdfCentric]
        );
        // Governor too small to densify the 256×512 hidden activation, so
        // layer 1 must fall back to relation-centric execution: the result
        // is still a block relation.
        let governor = MemoryGovernor::with_budget("db", 16 * 1024);
        let (out, _) = run(&model, &x, &plan, &weights(128, 32), &ctx(1, &governor)).unwrap();
        assert!(matches!(out, Output::Blocked(_)), "{out:?}");
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-3));
    }

    #[test]
    fn morsels_match_plain_forward_ffnn() {
        let mut rng = seeded_rng(150);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([37, 28], |i| ((i % 11) as f32 - 5.0) * 0.2);
        let governor = MemoryGovernor::unlimited("morsels");
        let out = morsels(&model, &x, 8, &ctx(1, &governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.approx_eq(&expect, 1e-4));
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn morsels_match_plain_forward_cnn() {
        let mut rng = seeded_rng(151);
        let model = zoo::caching_cnn(&mut rng).unwrap();
        let x = Tensor::from_fn([6, 28, 28, 1], |i| ((i % 7) as f32) * 0.1);
        let governor = MemoryGovernor::unlimited("morsels");
        let out = morsels(&model, &x, 2, &ctx(1, &governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.approx_eq(&expect, 1e-4));
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn morsel_workers_match_one_worker() {
        // Four granted threads claim the morsels on the shared pool; each
        // morsel computes what it computes on one thread, bit for bit.
        let mut rng = seeded_rng(156);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([53, 28], |i| ((i % 13) as f32 - 6.0) * 0.15);
        let governor = MemoryGovernor::unlimited("morsels");
        let four = morsels(&model, &x, 4, &ctx(4, &governor)).unwrap();
        let one = morsels(&model, &x, 4, &ctx(1, &governor)).unwrap();
        assert!(four.data() == one.data());
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn a_morsel_larger_than_the_batch_runs_the_whole_batch() {
        let mut rng = seeded_rng(152);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([5, 28], |i| i as f32 * 0.01);
        let governor = MemoryGovernor::unlimited("morsels");
        let out = morsels(&model, &x, 100, &ctx(1, &governor)).unwrap();
        assert!(
            out.data()
                == udf(&model, &x, &ctx(1, &governor))
                    .unwrap()
                    .into_dense()
                    .unwrap()
                    .data()
        );
    }

    #[test]
    fn morsel_peak_is_params_output_and_one_window() {
        // On one thread one morsel is in flight: the peak is the parameters,
        // the assembled output and a full morsel's widest in/out window —
        // far below the whole batch's.
        let mut rng = seeded_rng(153);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let (rows, morsel_rows) = (50, 16);
        let x = Tensor::zeros([rows, 76]);
        let governor = MemoryGovernor::unlimited("morsels");
        morsels(&model, &x, morsel_rows, &ctx(1, &governor)).unwrap();
        let mut shape = model.input_shape().clone();
        let mut widest = 0;
        for layer in model.layers() {
            let out = layer.output_shape(&shape).unwrap();
            widest = widest.max(shape.num_bytes() + out.num_bytes());
            shape = out;
        }
        let output = rows * shape.num_bytes();
        let expect = model.param_bytes() + output + morsel_rows * widest;
        assert_eq!(governor.peak(), expect);
        let whole = MemoryGovernor::unlimited("whole");
        udf(&model, &x, &ctx(1, &whole)).unwrap();
        assert!(governor.peak() < whole.peak());
    }

    #[test]
    fn morsel_oom_is_recoverable() {
        let mut rng = seeded_rng(154);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        // Below the parameters, and room for parameters and output but not
        // one morsel's window while two workers run.
        let output = 64 * 2 * 4;
        for budget in [model.param_bytes() - 1, model.param_bytes() + output + 1024] {
            let governor = MemoryGovernor::with_budget("morsels", budget);
            let err = morsels(&model, &x, 8, &ctx(2, &governor)).unwrap_err();
            assert!(err.is_oom(), "{err}");
            assert_eq!(governor.in_use(), 0, "OOM must not leak reservations");
        }
    }

    #[test]
    fn expired_deadline_stops_every_morsel_worker() {
        use relserve_runtime::{AdmissionPolicy, ThreadCoordinator};
        let mut rng = seeded_rng(157);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        let c = ThreadCoordinator::new(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(2);
        let ctx = c
            .context_with(
                1,
                MemoryGovernor::unlimited("morsels"),
                &AdmissionPolicy::with_deadline(deadline),
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = morsels(&model, &x, 4, &ctx).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
        // The grant was released when the context dropped with the error.
        drop(ctx);
        assert_eq!(c.granted_threads(), 0);
    }

    #[test]
    fn zero_morsel_rows_are_refused() {
        let mut rng = seeded_rng(155);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28]);
        let governor = MemoryGovernor::unlimited("morsels");
        let err = morsels(&model, &x, 0, &ctx(1, &governor)).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(governor.peak(), 0, "a refused plan reserves nothing");
    }

    #[test]
    fn a_morsel_plan_with_a_relation_centric_node_is_refused() {
        let model = zoo::fraud_fc_512(&mut seeded_rng(158)).unwrap();
        let x = Tensor::zeros([9, 28]);
        let governor = MemoryGovernor::unlimited("morsels");
        let mut plan = InferencePlan::uniform(&model, 9, Representation::UdfCentric).unwrap();
        plan.ops[1].representation = Representation::RelationCentric;
        plan.morsel_rows = 4;
        let err = run(&model, &x, &plan, &weights(16, 8), &ctx(1, &governor)).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(governor.peak(), 0, "a refused plan reserves nothing");
        // One morsel of the whole batch is today's mixed plan.
        plan.morsel_rows = 9;
        assert!(run(&model, &x, &plan, &weights(16, 8), &ctx(1, &governor)).is_ok());
    }
}
