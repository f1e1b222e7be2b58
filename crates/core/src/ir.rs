//! The unified intermediate representation (§2.1).
//!
//! An inference query's model portion is a plan of one node per layer, each
//! tagged with the *representation* it runs in (UDF-centric or
//! relation-centric) and the §7.1 estimate that chose it; a layer's bias and
//! activation run in its multiply's store. [`crate::exec::run`] walks it.

use crate::error::Result;
use relserve_nn::{Layer, Model};

/// Which in-database representation executes a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Executed as an in-database UDF on dense tensors.
    UdfCentric,
    /// Lowered to join + aggregation over tensor-block relations.
    RelationCentric,
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::UdfCentric => write!(f, "udf-centric"),
            Representation::RelationCentric => write!(f, "relation-centric"),
        }
    }
}

/// One plan node: a model layer and the representation it runs in.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Index of the model layer.
    pub layer_index: usize,
    /// The layer's [`Layer::kind`].
    pub kind: &'static str,
    /// Short label for plans and logs.
    pub label: String,
    /// The representation the layer runs in.
    pub representation: Representation,
    /// Whether the layer's weight matrix is on the artifact's pages
    /// ([`Layer::Stored`]), where its packed form is built from.
    pub params_stored: bool,
    /// The §7.1 estimate: `batch × input bytes + parameter bytes + batch ×
    /// output bytes` (0 for a flatten, which is free in a strided tensor).
    pub estimated_bytes: usize,
}

/// An inference plan for one model at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct InferencePlan {
    /// Name of the planned model.
    pub model_name: String,
    /// Batch size the plan was generated for.
    pub batch_size: usize,
    /// Memory threshold (bytes) of the §7.1 rule that assigned the
    /// representations; `None` for a uniform plan.
    pub memory_threshold: Option<usize>,
    /// One node per model layer, in execution order.
    pub ops: Vec<PlanNode>,
    /// Rows of the batch one worker carries through every layer at a time
    /// (§5.2's micro-batch): `batch_size` for every plan but the pipelined
    /// one, so the whole batch is one morsel.
    pub morsel_rows: usize,
    /// Whether the model's dense layers have weight relations stored on
    /// catalog pages — a model loaded into a session — which a
    /// relation-centric multiply joins against whatever form the layer's
    /// weight has in memory.
    pub weight_relations_stored: bool,
    /// §7.2.1's push-down of a join query `D1 ⋈ D2`: the input column of
    /// layer 0 where `D2`'s features start. Each side then multiplies by its
    /// column slice of layer 0's weight before the join, and the joined
    /// partials are summed into layer 0's output; node 0's estimate is that
    /// layer's. `None` for every other plan.
    pub pushdown: Option<usize>,
}

impl InferencePlan {
    /// One node per layer of `model` at `batch_size`, in the representation
    /// `choose` picks from the node's §7.1 estimate.
    pub(crate) fn build(
        model: &Model,
        batch_size: usize,
        memory_threshold: Option<usize>,
        choose: impl Fn(usize) -> Representation,
    ) -> Result<Self> {
        let mut shape = model.input_shape().clone();
        let mut ops = Vec::with_capacity(model.layers().len());
        for (layer_index, layer) in model.layers().iter().enumerate() {
            let out_shape = layer.output_shape(&shape)?;
            let estimated_bytes = match layer {
                Layer::Flatten => 0,
                _ => batch_size * (shape.num_bytes() + out_shape.num_bytes()) + layer.param_bytes(),
            };
            ops.push(PlanNode {
                layer_index,
                kind: layer.kind(),
                label: format!("{} {shape} -> {out_shape}", layer.kind()),
                representation: choose(estimated_bytes),
                params_stored: matches!(layer, Layer::Stored { .. }),
                estimated_bytes,
            });
            shape = out_shape;
        }
        Ok(InferencePlan {
            model_name: model.name().to_string(),
            batch_size,
            memory_threshold,
            ops,
            morsel_rows: batch_size,
            weight_relations_stored: false,
            pushdown: None,
        })
    }

    /// The plan that runs every layer of `model` in `representation`: the
    /// UDF-centric and relation-centric architectures, and the degradation
    /// ladder's relation-centric re-run.
    pub fn uniform(
        model: &Model,
        batch_size: usize,
        representation: Representation,
    ) -> Result<Self> {
        Self::build(model, batch_size, None, |_| representation)
    }

    /// The representation of each layer, in order.
    pub fn layer_representations(&self) -> Vec<Representation> {
        self.ops.iter().map(|node| node.representation).collect()
    }

    /// EXPLAIN-style rendering of the plan. A layer that multiplies by model
    /// weights also says what it multiplies from — the model's prepared
    /// (packed once) weights, the session's weight relation, or an operand it
    /// packs on every call — and what that operand is read from: a loaded
    /// model's weight relation is its catalog pages, prepared weights are
    /// packed from artifact pages or from weights in memory. A plan that
    /// cuts its batch into morsels says how many rows each carries, and a
    /// join query's push-down where it splits layer 0's input.
    pub fn explain(&self) -> String {
        let mut rule = self
            .memory_threshold
            .map_or("uniform".into(), |bytes| format!("threshold {bytes} B"));
        if self.morsel_rows < self.batch_size {
            rule.push_str(&format!(", morsels of {} rows", self.morsel_rows));
        }
        if let Some(split) = self.pushdown {
            rule.push_str(&format!(
                ", layer 0 pushed below the join at column {split}"
            ));
        }
        let mut out = format!(
            "InferencePlan for `{}` (batch {}, {rule})\n",
            self.model_name, self.batch_size
        );
        for node in &self.ops {
            let relational = node.representation == Representation::RelationCentric;
            let multiply = matches!(node.kind, "dense" | "quant_dense");
            let conv = node.kind == "conv2d";
            // A pushed-down layer's weight slices are packed per query.
            let sliced = self.pushdown.is_some() && node.layer_index == 0;
            let weights = match (multiply || conv, relational) {
                (true, true) => "  [weight relation]",
                (true, false) if multiply && !sliced => "  [prepared weights]",
                (true, false) => "  [packs per call]",
                (false, _) => "",
            };
            let stored = node.params_stored || (relational && self.weight_relations_stored);
            let built_from = match (multiply, stored) {
                (true, true) if relational => " <- catalog pages",
                (true, true) => " <- artifact pages",
                (true, false) => " <- weights in memory",
                (false, _) if conv && relational => " <- kernel in memory",
                (false, _) => "",
            };
            out.push_str(&format!(
                "  #{:<2} {:<34} {:>14} B  -> {}{weights}{built_from}\n",
                node.layer_index, node.label, node.estimated_bytes, node.representation
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::RuleBasedOptimizer;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;

    fn fraud(rows: usize) -> InferencePlan {
        let model = zoo::fraud_fc_256(&mut seeded_rng(50)).unwrap();
        InferencePlan::uniform(&model, rows, Representation::UdfCentric).unwrap()
    }

    #[test]
    fn each_layer_is_one_node_estimated_input_params_output() {
        // 1000 rows through 28→256: the matmul's m×k + k×n + m×n plus the
        // bias it stores into, × 4 B.
        let expect = (1000 * 28 + 28 * 256 + 256 + 1000 * 256) * 4;
        assert_eq!(fraud(1000).ops[0].estimated_bytes, expect);
        // An int8 layer counts its weight's storage bytes.
        let model = zoo::encoder_fc(&mut seeded_rng(51)).unwrap();
        let q = relserve_nn::quant::quantize_int8(&model).unwrap().model;
        let plan = InferencePlan::uniform(&q, 64, Representation::UdfCentric).unwrap();
        let window = 64 * (76 + 3072) * 4;
        assert_eq!(
            plan.ops[0].estimated_bytes,
            window + q.layers()[0].param_bytes()
        );
        assert_eq!(plan.ops[0].label, "quant_dense [76] -> [3072]");
        // A flatten is free in a strided tensor.
        let cnn = zoo::caching_cnn(&mut seeded_rng(52)).unwrap();
        let plan = InferencePlan::uniform(&cnn, 4, Representation::RelationCentric).unwrap();
        assert_eq!(plan.ops.len(), 5);
        assert_eq!(plan.ops[2].label, "flatten [24x24x16] -> [9216]");
        assert_eq!(plan.ops[2].estimated_bytes, 0);
    }

    #[test]
    fn explain_lists_every_op() {
        let p = fraud(4);
        let text = p.explain();
        assert_eq!(text.lines().count(), p.ops.len() + 1);
        assert!(text.contains("dense [28] -> [256]"));
        assert!(text.contains("udf-centric"));
        assert!(text.contains("uniform"));
        assert!(!text.contains("morsels"));
        let mut morsels = p.clone();
        morsels.morsel_rows = 3;
        let text = morsels.explain();
        assert!(
            text.starts_with(
                "InferencePlan for `Fraud-FC-256` (batch 4, uniform, morsels of 3 rows)"
            ),
            "{text}"
        );
        // A join query's push-down says where it splits layer 0's input, and
        // that layer 0 multiplies weight slices packed per call.
        let mut pushed = p.clone();
        pushed.pushdown = Some(20);
        let text = pushed.explain();
        assert!(
            text.contains(", layer 0 pushed below the join at column 20)"),
            "{text}"
        );
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("[packs per call]"), "{text}");
        assert!(lines[2].contains("[prepared weights]"), "{text}");
    }

    #[test]
    fn explain_names_what_each_multiply_reads_its_weights_from() {
        let mut p = fraud(4);
        let dense = p.explain();
        assert_eq!(dense.matches("[prepared weights]").count(), 2);
        assert!(!dense.contains("[weight relation]"));
        p.ops[0].representation = Representation::RelationCentric;
        let mixed = p.explain();
        assert_eq!(mixed.matches("[weight relation]").count(), 1);
        assert_eq!(mixed.matches("[prepared weights]").count(), 1);
        // A convolution's im2col product is not a constant: it packs per call.
        let cnn = zoo::caching_cnn(&mut seeded_rng(51)).unwrap();
        let conv_plan = RuleBasedOptimizer::paper_default()
            .plan(&cnn, 2, 1)
            .unwrap();
        assert!(conv_plan.explain().contains("[packs per call]"));
        // Each weight operand says what it is built from.
        let count = |text: &str, tag: &str| text.matches(tag).count();
        assert_eq!(count(&mixed, " <- weights in memory"), 2);
        let mut stored = p.clone();
        for node in &mut stored.ops {
            node.params_stored = true;
        }
        let stored = stored.explain();
        assert_eq!(count(&stored, "[weight relation] <- catalog pages"), 1);
        assert_eq!(count(&stored, "[prepared weights] <- artifact pages"), 1);
        // A loaded model whose layers share the caller's weights in memory:
        // its relation-centric multiply still joins the catalog pages.
        let mut loaded = p.clone();
        loaded.weight_relations_stored = true;
        let loaded = loaded.explain();
        assert_eq!(count(&loaded, "[weight relation] <- catalog pages"), 1);
        assert_eq!(count(&loaded, "[prepared weights] <- weights in memory"), 1);
    }
}
