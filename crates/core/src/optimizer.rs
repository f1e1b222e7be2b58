//! The rule-based adaptive optimizer (§7.1).
//!
//! "We developed a naive rule-based inference query optimizer, which
//! adaptively selects the in-database representation for each operator based
//! on the required memory size of the operator. If the operator's memory
//! requirement exceeds a configurable memory limit threshold, it will choose
//! the relation-centric representation, otherwise, it will choose the
//! UDF-centric representation."
//!
//! That rule is implemented verbatim here.

use crate::error::Result;
use crate::ir::{InferencePlan, Representation};
use relserve_nn::Model;
use relserve_tensor::{matmul, ELEM_BYTES};

/// Per-layer representation chooser with a single memory threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleBasedOptimizer {
    /// Layers whose `input + params + output` estimate exceeds this run
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

    /// Plan one model at one batch size for a query granted `threads`
    /// kernel threads: one node per layer, relation-centric iff the layer's
    /// `input + params + output` estimate exceeds the threshold, and, when
    /// every node is UDF-centric, the batch cut into the morsels of
    /// [`morsel_rows`].
    pub fn plan(&self, model: &Model, batch_size: usize, threads: usize) -> Result<InferencePlan> {
        let threshold = self.memory_threshold_bytes;
        let mut plan = InferencePlan::build(model, batch_size, Some(threshold), |estimate| {
            if estimate > threshold {
                Representation::RelationCentric
            } else {
                Representation::UdfCentric
            }
        })?;
        if plan
            .ops
            .iter()
            .all(|node| node.representation == Representation::UdfCentric)
        {
            plan.morsel_rows = morsel_rows(model, batch_size, threads)?;
        }
        Ok(plan)
    }

    /// Plan a join query's model over its `pairs` joined rows, whose two
    /// sides are `(rows, feature width)`: [`Self::plan`], with §7.2.1's
    /// push-down of layer 0 when that layer is f32 dense, narrower than half
    /// the joined features (`2·hidden < f1 + f2`, so the join moves fewer
    /// bytes), and what the push-down holds is within the threshold. The
    /// pushed-down node runs udf-centric and carries that estimate: each
    /// side's run holds its weight slice, a zero bias, its features and its
    /// partials; the left partials stay while the right side runs, and both
    /// while their sums are made.
    pub(crate) fn plan_join(
        &self,
        model: &Model,
        pairs: usize,
        [(n1, f1), (n2, f2)]: [(usize, usize); 2],
        threads: usize,
    ) -> Result<InferencePlan> {
        let mut plan = self.plan(model, pairs, threads)?;
        let (Some(layer), Some(node)) = (model.layers().first(), plan.ops.first_mut()) else {
            return Ok(plan);
        };
        let Some((hidden, inputs)) = layer.weight_shape().filter(|_| layer.kind() == "dense")
        else {
            return Ok(plan);
        };
        let side = |rows: usize, width: usize| hidden * (width + 1) + rows * (width + hidden);
        let floats = side(n1, f1)
            .max(n1 * hidden + side(n2, f2))
            .max((n1 + n2 + pairs) * hidden);
        let estimate = floats * ELEM_BYTES;
        if f1 + f2 == inputs && 2 * hidden < inputs && estimate <= self.memory_threshold_bytes {
            node.representation = Representation::UdfCentric;
            node.estimated_bytes = estimate;
            node.label = format!("{} [{f1}+{f2}] -> [{hidden}]", node.kind);
            plan.pushdown = Some(f1);
            plan.morsel_rows = pairs;
        }
        Ok(plan)
    }
}

/// Bytes of one core's L2 a morsel's widest window may fill: its rows of
/// the widest layer's input and output. 2 MiB is the per-core L2 of the
/// x86-64 servers the kernels are tuned on (Sapphire Rapids); a smaller L2
/// only makes the window spill as the whole batch's does.
const L2_BYTES: usize = 2 << 20;

/// Rows per morsel for `model` at `batch_size` under `threads` kernel
/// threads — `batch_size`, one morsel, where the batch stays whole.
///
/// Only a model whose every layer is a dense (f32 or int8) multiply is cut.
/// The morsels come in waves of one per granted thread, as many as it takes
/// for a morsel to fit the widest layer's input + output window in
/// [`L2_BYTES`]; they are balanced, and a multiple of the dispatched
/// kernel's tile height. Each morsel reads every weight once, where the
/// whole batch reads it once per thread, so the batch stays whole when
/// those extra weight reads outweigh the activation traffic the cut keeps
/// in L2 (every intermediate activation, written and read back once): a
/// wide layer 0 of 38 MB, as Amazon-14k-FC/64's, is read once per thread,
/// not once per L2-sized morsel of ~48 rows. It also stays whole when its
/// smallest morsel would do less than [`matmul::MIN_STRIPE_WORK`] of
/// multiply-adds (small batches, the serving path), or would send an f32
/// layer under [`matmul::PACK_THRESHOLD`] into the small-product shortcut,
/// whose sums round differently: cut or whole, every layer takes the packed path at
/// the same rows, so the output bits do not depend on the cut. Int8 layers
/// quantize per row and have no shortcut.
pub fn morsel_rows(model: &Model, batch_size: usize, threads: usize) -> Result<usize> {
    let shapes: Option<Vec<(usize, usize, bool)>> = model
        .layers()
        .iter()
        .map(|layer| {
            let (n, k) = layer.weight_shape()?;
            Some((n, k, layer.kind() == "dense"))
        })
        .collect();
    let Some(shapes) = shapes else {
        return Ok(batch_size);
    };
    let Some(window) = shapes.iter().map(|&(n, k, _)| (n + k) * ELEM_BYTES).max() else {
        return Ok(batch_size);
    };
    let tile = matmul::tile_height()?;
    let fit = L2_BYTES / window / tile * tile;
    if fit == 0 {
        return Ok(batch_size);
    }
    let threads = threads.max(1);
    let count = batch_size.div_ceil(fit).next_multiple_of(threads);
    let hidden: usize = shapes[..shapes.len() - 1].iter().map(|&(n, _, _)| n).sum();
    let kept = 2 * batch_size * hidden * ELEM_BYTES;
    let rows = batch_size.div_ceil(count).next_multiple_of(tile);
    if rows >= batch_size || (count - threads) * model.param_bytes() > kept {
        return Ok(batch_size);
    }
    let smallest = batch_size - (batch_size.div_ceil(rows) - 1) * rows;
    let work: usize = shapes.iter().map(|&(n, k, _)| smallest * n * k).sum();
    let packs = shapes
        .iter()
        .all(|&(n, k, f32)| !f32 || smallest * n * k >= matmul::PACK_THRESHOLD);
    Ok(match work >= matmul::MIN_STRIPE_WORK && packs {
        true => rows,
        false => batch_size,
    })
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
            .plan(&model, 1000, 1)
            .unwrap();
        assert_eq!(
            plan.layer_representations(),
            [Representation::UdfCentric; 2]
        );
    }

    #[test]
    fn huge_operator_goes_relation_centric() {
        let mut rng = seeded_rng(61);
        // Amazon-scaled: first weight matrix alone exceeds a small threshold.
        let model = zoo::amazon_14k_fc(100, &mut rng).unwrap();
        // 8 MiB: between layer 1's ~5.3 MB (a 4 MB input window) and
        // layer 0's ~52 MB.
        let opt = RuleBasedOptimizer::new(8 * 1024 * 1024);
        let plan = opt.plan(&model, 1000, 1).unwrap();
        // Layer 0 (5975 features × 1024 hidden) must be relation-centric;
        // the small output layer stays UDF.
        assert_eq!(
            plan.layer_representations(),
            [Representation::RelationCentric, Representation::UdfCentric]
        );
    }

    #[test]
    fn threshold_is_monotone() {
        // Raising the threshold can only move layers relation→udf, never back.
        let mut rng = seeded_rng(62);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let batch = 512;
        let mut prev_relational = usize::MAX;
        for threshold in [1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 30] {
            let plan = RuleBasedOptimizer::new(threshold)
                .plan(&model, batch, 1)
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
        // The same layer can fit at batch 10 and exceed at batch 200k.
        let mut rng = seeded_rng(63);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let opt = RuleBasedOptimizer::new(1 << 21); // 2 MiB
        let small = opt.plan(&model, 10, 1).unwrap();
        let large = opt.plan(&model, 200_000, 1).unwrap();
        let relational = |p: &InferencePlan| {
            p.layer_representations()
                .contains(&Representation::RelationCentric)
        };
        assert!(!relational(&small));
        assert!(relational(&large));
    }

    #[test]
    fn a_join_plan_pushes_down_only_a_narrowing_f32_dense_first_layer() {
        let rng = &mut seeded_rng(64);
        let bosch = zoo::bosch_ffnn(rng).unwrap();
        let opt = RuleBasedOptimizer::paper_default();
        let sides = [(100, 484), (80, 484)];
        let plan = opt.plan_join(&bosch, 300, sides, 1).unwrap();
        assert_eq!(plan.pushdown, Some(484));
        assert_eq!(plan.ops[0].representation, Representation::UdfCentric);
        // Node 0 holds the larger of: the left side's run, the right side's
        // beside the left partials, and both partials with the summed output.
        let left = 256 * 485 + 100 * (484 + 256);
        let right = 100 * 256 + 256 * 485 + 80 * (484 + 256);
        let sums = (100 + 80 + 300) * 256;
        assert_eq!(plan.ops[0].estimated_bytes, left.max(right).max(sums) * 4);
        // The rest of the plan is the plain plan's.
        let plain = opt.plan(&bosch, 300, 1).unwrap();
        assert_eq!(plan.ops[1..], plain.ops[1..]);
        // Widths that do not make up the input, a first layer at least half
        // as wide as its input, an int8 one, and a push-down over the
        // threshold all keep the plain plan.
        assert_eq!(
            opt.plan_join(&bosch, 300, [(100, 484), (80, 483)], 1)
                .unwrap(),
            plain
        );
        let widening = zoo::fraud_fc_256(rng).unwrap();
        let sides = [(10, 14), (10, 14)];
        assert_eq!(
            opt.plan_join(&widening, 20, sides, 1).unwrap(),
            opt.plan(&widening, 20, 1).unwrap()
        );
        let int8 = relserve_nn::quant::quantize_int8(&bosch).unwrap().model;
        let halves = [(100, 484), (80, 484)];
        assert_eq!(opt.plan_join(&int8, 300, halves, 1).unwrap().pushdown, None);
        let tight = RuleBasedOptimizer::new(plan.ops[0].estimated_bytes - 1);
        assert_eq!(
            tight
                .plan_join(&bosch, 300, [(100, 484), (80, 484)], 1)
                .unwrap(),
            tight.plan(&bosch, 300, 1).unwrap()
        );
    }

    #[test]
    fn morsels_come_in_whole_waves_unless_they_reread_a_large_weight() {
        let rng = &mut seeded_rng(64);
        let tile = matmul::tile_height().unwrap();
        let int8 = |m: &Model| relserve_nn::quant::quantize_int8(m).unwrap().model;
        // Amazon-14k-FC/64's 38 MB layer 0 would be read by 12 L2-sized
        // morsels of 512 rows, not 2 stripes: the batch stays whole. So
        // does Encoder-FC's f32 twin (two 10 MB reads more than the whole
        // batch against 12.6 MB of activations kept in L2), while its int8
        // twin (2.6 MB of weights) is cut into two waves.
        let amazon = zoo::amazon_14k_fc(64, rng).unwrap();
        let encoder = zoo::encoder_fc(rng).unwrap();
        assert_eq!(morsel_rows(&amazon, 512, 2).unwrap(), 512);
        assert_eq!(morsel_rows(&encoder, 512, 2).unwrap(), 512);
        assert_eq!(
            morsel_rows(&int8(&encoder), 512, 2).unwrap(),
            128usize.next_multiple_of(tile)
        );
        // Bosch-FFNN at 1000 rows fits three L2-sized morsels; two threads
        // get four, so neither waits on the other's second.
        let bosch = zoo::bosch_ffnn(rng).unwrap();
        let rows = morsel_rows(&bosch, 1000, 2).unwrap();
        assert_eq!(1000usize.div_ceil(rows) % 2, 0, "{rows}-row morsels");
        // A serving-sized batch stays whole.
        let fraud = zoo::fraud_fc_256(rng).unwrap();
        assert_eq!(morsel_rows(&fraud, 64, 2).unwrap(), 64);
    }

    #[test]
    fn paper_threshold_reproduces_section_7_1_arithmetic() {
        // At the paper's 2 GiB threshold, paper-scale Amazon-14k-FC at
        // batch 1000 must exceed the threshold on its first layer: the
        // §7.1 estimate is (m·k + k·n + m·n) × 4 B (plus the bias) with
        // m=1000, k=597,540, n=1024, dominated by the 2.28 GiB weight matrix. (Checked
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
