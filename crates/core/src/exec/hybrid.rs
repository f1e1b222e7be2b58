//! Hybrid execution: run a mixed plan where each layer uses the
//! representation the adaptive optimizer chose (§7.1).
//!
//! Layers assigned UDF-centric execute on dense tensors under the database
//! governor; layers assigned relation-centric execute on block relations
//! through the buffer pool. Transitions between the two materialize or chunk
//! the activation as needed — and the dense direction is itself guarded by
//! the governor, with an automatic fallback: if densifying an intermediate
//! would OOM, the layer stays relation-centric instead of failing.

use crate::error::Result;
use crate::exec::relation_centric::{exec_layer, Flow, WeightRelations};
use crate::exec::{layer_transient_bytes, Output};
use crate::ir::{InferencePlan, Representation};
use relserve_nn::Model;
use relserve_relational::tensor_table::TensorOpStats;
use relserve_runtime::ExecContext;
use relserve_tensor::Tensor;

/// Statistics of one hybrid execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridStats {
    /// Layers executed as in-database UDFs.
    pub udf_layers: usize,
    /// Layers executed relation-centrically.
    pub relational_layers: usize,
    /// Layers the optimizer wanted dense but the governor forced blocked.
    pub fallbacks: usize,
    /// Aggregated relational-operator statistics.
    pub rel_stats: TensorOpStats,
}

/// Execute `model` under `plan`'s per-layer representation choices, inside
/// `ctx`'s admitted slice of the machine (governor lease + kernel budget).
/// Relation-centric layers join against their weight relation in `weights`.
#[allow(unused_assignments)] // reservations: assignment *is* the drop-and-replace
pub fn run(
    model: &Model,
    batch: &Tensor,
    plan: &InferencePlan,
    weights: &WeightRelations,
    ctx: &ExecContext,
) -> Result<(Output, HybridStats)> {
    let governor = ctx.governor();
    let par = ctx.parallelism();
    let batch_size = model.check_input(batch)?;
    let reps = plan.layer_representations();
    let mut stats = HybridStats::default();
    // Parameters of UDF-executed layers are charged, in their storage form,
    // for the whole call.
    let _params = governor
        .reserve(model.param_bytes_of(|i| reps.get(i) == Some(&Representation::UdfCentric)))?;

    let mut full_dims = vec![batch_size];
    full_dims.extend_from_slice(model.input_shape().dims());
    // When the first layer runs relation-centrically the input is chunked
    // straight into the buffer pool, so no dense reservation is needed.
    let input_res = if reps.first() == Some(&Representation::RelationCentric) {
        None
    } else {
        Some(governor.reserve(batch.num_bytes())?)
    };
    let mut flow = Flow::Dense(batch.clone().reshape(full_dims)?);
    // Reservation backing the current dense activation (None while blocked);
    // each assignment drops the previous reservation, which is its purpose.
    let mut live = input_res;
    let mut shape = model.input_shape().clone();

    for (i, layer) in model.layers().iter().enumerate() {
        ctx.check_deadline("hybrid.layer")?;
        let rep = reps.get(i).copied().unwrap_or(Representation::UdfCentric);
        let out_shape = layer.output_shape(&shape)?;
        match rep {
            Representation::UdfCentric | Representation::DlCentric => {
                // Need a dense input. If the flow is blocked, try to
                // materialize it under the governor; on OOM fall back to
                // relation-centric for this layer.
                let dense_in: Option<Tensor> = match &flow {
                    Flow::Dense(_) => None, // already dense; reuse below
                    Flow::Rows(t) => {
                        let bytes = t.rows() * t.cols() * relserve_tensor::ELEM_BYTES;
                        match governor.reserve(bytes) {
                            Ok(res) => {
                                live = Some(res);
                                Some(t.to_dense()?)
                            }
                            Err(_) => None,
                        }
                    }
                    Flow::Pixels { table, n, h, w } => {
                        let bytes = table.rows() * table.cols() * relserve_tensor::ELEM_BYTES;
                        match governor.reserve(bytes) {
                            Ok(res) => {
                                live = Some(res);
                                let c = table.cols();
                                Some(table.to_dense()?.reshape([*n, *h, *w, c])?)
                            }
                            Err(_) => None,
                        }
                    }
                };
                let dense_flow = match (&flow, dense_in) {
                    (Flow::Dense(_), _) => true,
                    (_, Some(t)) => {
                        flow = Flow::Dense(t);
                        true
                    }
                    (_, None) => false,
                };
                if dense_flow {
                    let Flow::Dense(x) = &flow else {
                        unreachable!()
                    };
                    let out_bytes = batch_size * out_shape.num_bytes();
                    let transient = layer_transient_bytes(layer, batch_size, &shape);
                    let _scratch = if transient > 0 {
                        Some(governor.reserve(transient)?)
                    } else {
                        None
                    };
                    let out_res = governor.reserve(out_bytes)?;
                    let y = model.forward_layer(i, x, &par)?;
                    flow = Flow::Dense(y);
                    live = Some(out_res);
                    stats.udf_layers += 1;
                } else {
                    // Fallback: stay blocked.
                    flow = exec_layer(model, i, flow, weights, &par, &mut stats.rel_stats)?;
                    live = None;
                    stats.relational_layers += 1;
                    stats.fallbacks += 1;
                }
            }
            Representation::RelationCentric => {
                // Dense→blocked transition releases the dense reservation.
                flow = exec_layer(model, i, flow, weights, &par, &mut stats.rel_stats)?;
                live = None;
                stats.relational_layers += 1;
            }
        }
        shape = out_shape;
    }
    let _ = live;
    Ok((
        match flow {
            Flow::Dense(t) => Output::Dense(t),
            Flow::Rows(t) => Output::Blocked(t),
            Flow::Pixels { table, .. } => Output::Blocked(table),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::RuleBasedOptimizer;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::MemoryGovernor;
    use relserve_storage::{BufferPool, DiskManager};
    use relserve_tensor::parallel::Parallelism;
    use std::sync::Arc;

    fn weights(frames: usize, block: usize) -> WeightRelations {
        let disk = Arc::new(DiskManager::temp().unwrap());
        WeightRelations::new(Arc::new(BufferPool::new(disk, frames)), block)
    }

    fn ctx(governor: &MemoryGovernor) -> ExecContext {
        ExecContext::standalone(1, governor.clone())
    }

    #[test]
    fn all_udf_plan_matches_forward() {
        let mut rng = seeded_rng(95);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([12, 28], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let plan = RuleBasedOptimizer::paper_default()
            .plan(&model, 12)
            .unwrap();
        let governor = MemoryGovernor::unlimited("db");
        let (out, stats) = run(&model, &x, &plan, &weights(16, 8), &ctx(&governor)).unwrap();
        assert_eq!(stats.udf_layers, 2);
        assert_eq!(stats.relational_layers, 0);
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
        let plan = opt.plan(&model, 6).unwrap();
        let reps = plan.layer_representations();
        assert!(
            reps.contains(&Representation::RelationCentric)
                || reps.contains(&Representation::UdfCentric)
        );
        let governor = MemoryGovernor::unlimited("db");
        let (out, _) = run(&model, &x, &plan, &weights(128, 64), &ctx(&governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-2));
    }

    #[test]
    fn forced_relational_plan_matches_forward() {
        let mut rng = seeded_rng(97);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::from_fn([9, 28], |i| (i % 5) as f32 * 0.1);
        // Zero threshold: everything relational.
        let plan = RuleBasedOptimizer::new(0).plan(&model, 9).unwrap();
        let governor = MemoryGovernor::with_budget("db", 64 * 1024); // tiny
        let (out, stats) = run(&model, &x, &plan, &weights(64, 16), &ctx(&governor)).unwrap();
        assert_eq!(stats.udf_layers, 0);
        assert!(stats.relational_layers >= 2);
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
        let plan = opt.plan(&model, batch).unwrap();
        assert_eq!(
            plan.layer_representations()[0],
            Representation::RelationCentric
        );
        // Governor too small to densify the 256×512 hidden activation, so
        // layer 1 must fall back to relation-centric execution.
        let governor = MemoryGovernor::with_budget("db", 16 * 1024);
        let (out, stats) = run(&model, &x, &plan, &weights(128, 32), &ctx(&governor)).unwrap();
        assert!(stats.fallbacks >= 1, "stats: {stats:?}");
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-3));
    }
}
