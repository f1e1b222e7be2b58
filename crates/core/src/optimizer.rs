//! The rule-based adaptive optimizer (§7.1).
//!
//! "We developed a naive rule-based inference query optimizer, which
//! adaptively selects the in-database representation for each operator based
//! on the required memory size of the operator. If the operator's memory
//! requirement exceeds a configurable memory limit threshold, it will choose
//! the relation-centric representation, otherwise, it will choose the
//! UDF-centric representation."
//!
//! That rule is implemented verbatim here, plus the ahead-of-time planning
//! hook (§2.2): [`RuleBasedOptimizer::plan_for_batches`] generates plans for
//! several candidate batch sizes at model-load time so runtime dispatch is a
//! lookup.

use crate::error::Result;
use crate::ir::{InferencePlan, OpAssignment, Representation};
use relserve_nn::Model;
use relserve_runtime::{DeviceModel, PlacementDecision};
use std::collections::BTreeMap;

/// Per-operator representation chooser with a single memory threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleBasedOptimizer {
    /// Operators whose `input + params + output` estimate exceeds this run
    /// relation-centric. The paper's experiments use 2 GiB.
    pub memory_threshold_bytes: usize,
}

impl RuleBasedOptimizer {
    /// An optimizer with the given threshold.
    pub fn new(memory_threshold_bytes: usize) -> Self {
        RuleBasedOptimizer {
            memory_threshold_bytes,
        }
    }

    /// The paper's configuration: a 2 GiB threshold.
    pub fn paper_default() -> Self {
        Self::new(2 * 1024 * 1024 * 1024)
    }

    /// Plan one model at one batch size.
    pub fn plan(&self, model: &Model, batch_size: usize) -> Result<InferencePlan> {
        let ops = model.to_graph(batch_size)?;
        let assignments = ops
            .into_iter()
            .map(|op| {
                let estimated_bytes = op.memory_requirement_bytes();
                let representation = if estimated_bytes > self.memory_threshold_bytes {
                    Representation::RelationCentric
                } else {
                    Representation::UdfCentric
                };
                OpAssignment {
                    op,
                    representation,
                    estimated_bytes,
                }
            })
            .collect();
        Ok(InferencePlan {
            model_name: model.name().to_string(),
            batch_size,
            memory_threshold: self.memory_threshold_bytes,
            ops: assignments,
            weight_relations_stored: false,
        })
    }

    /// Device placement (§3.2): for every operator of a plan, run the
    /// producer-transfer-consumer estimate and decide CPU vs (modeled) GPU.
    /// Small operators stay on the CPU because host↔device transfer would
    /// dominate — the decision-forest observation the paper cites.
    pub fn place_devices(plan: &InferencePlan, devices: &DeviceModel) -> Vec<PlacementDecision> {
        plan.ops
            .iter()
            .map(|op| {
                devices.place(
                    op.op.flops(),
                    (op.op.input_shape.num_bytes() + op.op.param_bytes) as f64,
                    op.op.output_shape.num_bytes() as f64,
                )
            })
            .collect()
    }

    /// Ahead-of-time compilation (§2.2): plan several batch sizes at model
    /// load; at runtime the session picks the plan for the smallest
    /// pre-planned batch ≥ the actual batch.
    pub fn plan_for_batches(
        &self,
        model: &Model,
        batch_sizes: &[usize],
    ) -> Result<BTreeMap<usize, InferencePlan>> {
        let mut plans = BTreeMap::new();
        for &b in batch_sizes {
            plans.insert(b, self.plan(model, b)?);
        }
        Ok(plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;

    #[test]
    fn small_model_is_all_udf_centric() {
        let mut rng = seeded_rng(60);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let plan = RuleBasedOptimizer::paper_default()
            .plan(&model, 1000)
            .unwrap();
        assert!(plan.uses(Representation::UdfCentric));
        assert!(!plan.uses(Representation::RelationCentric));
    }

    #[test]
    fn huge_operator_goes_relation_centric() {
        let mut rng = seeded_rng(61);
        // Amazon-scaled: first weight matrix alone exceeds a small threshold.
        let model = zoo::amazon_14k_fc(100, &mut rng).unwrap();
        let opt = RuleBasedOptimizer::new(4 * 1024 * 1024); // 4 MiB
        let plan = opt.plan(&model, 1000).unwrap();
        // First matmul (5975 features × 1024 hidden) must be relation-centric.
        assert_eq!(plan.ops[0].representation, Representation::RelationCentric);
        assert!(plan.uses(Representation::UdfCentric)); // small tail ops stay UDF
    }

    #[test]
    fn threshold_is_monotone() {
        // Raising the threshold can only move ops relation→udf, never back.
        let mut rng = seeded_rng(62);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let batch = 512;
        let mut prev_relational = usize::MAX;
        for threshold in [1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 30] {
            let plan = RuleBasedOptimizer::new(threshold)
                .plan(&model, batch)
                .unwrap();
            let relational = plan
                .ops
                .iter()
                .filter(|o| o.representation == Representation::RelationCentric)
                .count();
            assert!(relational <= prev_relational, "threshold {threshold}");
            prev_relational = relational;
        }
    }

    #[test]
    fn batch_size_flips_the_decision() {
        // The same operator can fit at batch 10 and exceed at batch 100k.
        let mut rng = seeded_rng(63);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let opt = RuleBasedOptimizer::new(1 << 21); // 2 MiB
        let small = opt.plan(&model, 10).unwrap();
        let large = opt.plan(&model, 200_000).unwrap();
        assert!(!small.uses(Representation::RelationCentric));
        assert!(large.uses(Representation::RelationCentric));
    }

    #[test]
    fn device_placement_scales_with_operator_size() {
        use relserve_runtime::DeviceKind;
        let mut rng = seeded_rng(66);
        let opt = RuleBasedOptimizer::paper_default();
        let devices = DeviceModel::default_testbed();
        // Tiny fraud model at batch 1: every op stays on CPU.
        let small_model = zoo::fraud_fc_256(&mut rng).unwrap();
        let small = opt.plan(&small_model, 1).unwrap();
        for d in RuleBasedOptimizer::place_devices(&small, &devices) {
            assert_eq!(d.device, DeviceKind::Cpu);
        }
        // Encoder at batch 100k: the big matmuls are worth the transfer.
        let big_model = zoo::encoder_fc(&mut rng).unwrap();
        let big = opt.plan(&big_model, 100_000).unwrap();
        let placements = RuleBasedOptimizer::place_devices(&big, &devices);
        assert!(
            placements.iter().any(|d| d.device == DeviceKind::Gpu),
            "no op offloaded at batch 100k"
        );
    }

    #[test]
    fn aot_plans_cover_requested_batches() {
        let mut rng = seeded_rng(64);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let plans = RuleBasedOptimizer::paper_default()
            .plan_for_batches(&model, &[1, 100, 10_000])
            .unwrap();
        assert_eq!(plans.len(), 3);
        assert!(plans.contains_key(&100));
        assert_eq!(plans[&10_000].batch_size, 10_000);
    }

    #[test]
    fn paper_threshold_reproduces_section_7_1_arithmetic() {
        // At the paper's 2 GiB threshold, paper-scale Amazon-14k-FC at
        // batch 1000 must exceed the threshold on its first matmul: the
        // §7.1 estimate is (m·k + k·n + m·n) × 4 B with m=1000, k=597,540,
        // n=1024, dominated by the 2.28 GiB weight matrix. (Checked
        // arithmetically — materializing the real weights needs ~2.4 GB.)
        let (m, k, n) = (1000usize, 597_540usize, 1024usize);
        let estimate = (m * k + k * n + m * n) * relserve_tensor::ELEM_BYTES;
        let opt = RuleBasedOptimizer::paper_default();
        assert!(estimate > opt.memory_threshold_bytes);
        // And the batch-8000 row of Table 3 exceeds it even further.
        let estimate_8000 = (8000 * k + k * n + 8000 * n) * relserve_tensor::ELEM_BYTES;
        assert!(estimate_8000 > estimate);
    }
}
