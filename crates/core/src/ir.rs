//! The unified intermediate representation (§2.1).
//!
//! An inference query's model portion lowers to a linear-algebra graph
//! (`relserve_nn::graph`); the unified IR annotates every node of that graph
//! with the *representation* the optimizer chose for it. Any subgraph can
//! thus be scheduled DL-centric, UDF-centric, or relation-centric — the
//! flexibility the paper argues for.

use relserve_nn::{LinalgOp, OpKind};

/// Which architecture executes an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Offloaded to the external DL runtime over the connector.
    DlCentric,
    /// Executed as an in-database UDF on dense tensors.
    UdfCentric,
    /// Lowered to join + aggregation over tensor-block relations.
    RelationCentric,
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::DlCentric => write!(f, "dl-centric"),
            Representation::UdfCentric => write!(f, "udf-centric"),
            Representation::RelationCentric => write!(f, "relation-centric"),
        }
    }
}

/// One IR node: a linear-algebra operator plus its chosen representation.
#[derive(Debug, Clone)]
pub struct OpAssignment {
    /// The lowered operator.
    pub op: LinalgOp,
    /// The representation the optimizer selected.
    pub representation: Representation,
    /// The §7.1 memory estimate that drove the decision, in bytes.
    pub estimated_bytes: usize,
}

/// A fully-annotated inference plan for one model at one batch size.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    /// Name of the planned model.
    pub model_name: String,
    /// Batch size the plan was generated for.
    pub batch_size: usize,
    /// Memory threshold (bytes) used by the rule.
    pub memory_threshold: usize,
    /// Per-operator assignments, in execution order.
    pub ops: Vec<OpAssignment>,
    /// Whether the model's dense layers have weight relations stored on
    /// catalog pages — a model loaded into a session — which a
    /// relation-centric multiply joins against whatever form the layer's
    /// weight has in memory.
    pub weight_relations_stored: bool,
}

impl InferencePlan {
    /// Whether any operator was assigned the given representation.
    pub fn uses(&self, representation: Representation) -> bool {
        self.ops.iter().any(|o| o.representation == representation)
    }

    /// Per-layer representation: a layer runs relation-centric if *any* of
    /// its ops does (a layer's matmul and bias/activation stay together).
    pub fn layer_representations(&self) -> Vec<Representation> {
        let num_layers = self
            .ops
            .iter()
            .map(|o| o.op.layer_index + 1)
            .max()
            .unwrap_or(0);
        let mut reps = vec![Representation::UdfCentric; num_layers];
        for op in &self.ops {
            if op.representation == Representation::RelationCentric {
                reps[op.op.layer_index] = Representation::RelationCentric;
            }
        }
        reps
    }

    /// EXPLAIN-style rendering of the plan. An operator that multiplies by
    /// model weights also says what it multiplies from — the model's prepared
    /// (packed once) weights, the session's weight relation, or an operand it
    /// packs on every call — and what that operand is read from: a loaded
    /// model's weight relation is its catalog pages, prepared weights are
    /// packed from artifact pages or from weights in memory.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "InferencePlan for `{}` (batch {}, threshold {} B)\n",
            self.model_name, self.batch_size, self.memory_threshold
        );
        let layers = self.layer_representations();
        for (i, op) in self.ops.iter().enumerate() {
            let relational = layers[op.op.layer_index] == Representation::RelationCentric;
            let weights = match (&op.op.kind, relational) {
                (OpKind::MatMul { .. } | OpKind::MatMulI8 { .. } | OpKind::Conv2d { .. }, true) => {
                    "  [weight relation]"
                }
                (OpKind::MatMul { .. } | OpKind::MatMulI8 { .. }, false) => "  [prepared weights]",
                (OpKind::Conv2d { .. }, false) => "  [packs per call]",
                _ => "",
            };
            let stored = op.op.params_stored || (relational && self.weight_relations_stored);
            let built_from = match (&op.op.kind, stored) {
                (OpKind::MatMul { .. } | OpKind::MatMulI8 { .. }, true) if relational => {
                    " <- catalog pages"
                }
                (OpKind::MatMul { .. } | OpKind::MatMulI8 { .. }, true) => " <- artifact pages",
                (OpKind::MatMul { .. } | OpKind::MatMulI8 { .. }, false) => " <- weights in memory",
                (OpKind::Conv2d { .. }, _) if relational => " <- kernel in memory",
                _ => "",
            };
            out.push_str(&format!(
                "  #{i:<2} {:<34} {:>14} B  -> {}{weights}{built_from}\n",
                op.op.label(),
                op.estimated_bytes,
                op.representation
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;

    fn plan_with(reps: &[Representation]) -> InferencePlan {
        let mut rng = seeded_rng(50);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let ops = model.to_graph(4).unwrap();
        InferencePlan {
            model_name: "m".into(),
            batch_size: 4,
            memory_threshold: 1024,
            weight_relations_stored: false,
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| OpAssignment {
                    estimated_bytes: op.memory_requirement_bytes(),
                    representation: reps[i % reps.len()],
                    op,
                })
                .collect(),
        }
    }

    #[test]
    fn uses_detects_representations() {
        let p = plan_with(&[Representation::UdfCentric]);
        assert!(p.uses(Representation::UdfCentric));
        assert!(!p.uses(Representation::RelationCentric));
    }

    #[test]
    fn layer_representation_is_sticky_relation_centric() {
        // If any op of a layer is relation-centric, the layer is.
        let mut p = plan_with(&[Representation::UdfCentric]);
        p.ops[0].representation = Representation::RelationCentric; // layer 0 matmul
        let reps = p.layer_representations();
        assert_eq!(reps[0], Representation::RelationCentric);
        assert_eq!(reps[1], Representation::UdfCentric);
    }

    #[test]
    fn explain_lists_every_op() {
        let p = plan_with(&[Representation::UdfCentric]);
        let text = p.explain();
        assert_eq!(text.lines().count(), p.ops.len() + 1);
        assert!(text.contains("matmul"));
        assert!(text.contains("udf-centric"));
    }

    #[test]
    fn explain_names_what_each_multiply_reads_its_weights_from() {
        let mut p = plan_with(&[Representation::UdfCentric]);
        let dense = p.explain();
        let matmuls = p
            .ops
            .iter()
            .filter(|o| matches!(o.op.kind, OpKind::MatMul { .. }))
            .count();
        assert_eq!(dense.matches("[prepared weights]").count(), matmuls);
        assert!(!dense.contains("[weight relation]"));
        // A layer runs relation-centric as a whole, whichever op tipped it.
        let bias_of_layer_0 = p
            .ops
            .iter()
            .position(|o| o.op.layer_index == 0 && matches!(o.op.kind, OpKind::AddBias { .. }))
            .unwrap();
        p.ops[bias_of_layer_0].representation = Representation::RelationCentric;
        let mixed = p.explain();
        assert_eq!(mixed.matches("[weight relation]").count(), 1);
        assert_eq!(mixed.matches("[prepared weights]").count(), matmuls - 1);
        // A convolution's im2col product is not a constant: it packs per call.
        let cnn = relserve_nn::zoo::caching_cnn(&mut seeded_rng(51)).unwrap();
        let conv_plan = crate::optimizer::RuleBasedOptimizer::paper_default()
            .plan(&cnn, 2)
            .unwrap();
        assert!(conv_plan.explain().contains("[packs per call]"));
        // Each weight operand says what it is built from.
        assert_eq!(mixed.matches(" <- weights in memory").count(), matmuls);
        let mut stored = p.clone();
        for op in &mut stored.ops {
            op.op.params_stored = matches!(op.op.kind, OpKind::MatMul { .. });
        }
        let stored = stored.explain();
        assert_eq!(
            stored.matches("[weight relation] <- catalog pages").count(),
            1
        );
        assert_eq!(
            stored
                .matches("[prepared weights] <- artifact pages")
                .count(),
            matmuls - 1
        );
        // A loaded model whose layers share the caller's weights in memory:
        // its relation-centric multiply still joins the catalog pages.
        let mut loaded = p.clone();
        loaded.weight_relations_stored = true;
        let loaded = loaded.explain();
        assert_eq!(
            loaded.matches("[weight relation] <- catalog pages").count(),
            1
        );
        assert_eq!(
            loaded
                .matches("[prepared weights] <- weights in memory")
                .count(),
            matmuls - 1
        );
    }
}
