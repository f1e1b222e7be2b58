//! SLA-driven model-version selection (§4.1).
//!
//! The storage optimizer materializes several versions of each model
//! (original, quantized, pruned); at query time the planner picks the
//! smallest version whose measured accuracy still satisfies the query's SLA.

use crate::error::{Error, Result};
use relserve_nn::quant::ModelVersion;
use relserve_nn::{Model, Trainer};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;

/// A query's service-level agreement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// Minimum acceptable accuracy, in `[0, 1]`.
    pub min_accuracy: f32,
}

/// A model version with its measured accuracy on a validation set.
#[derive(Debug, Clone)]
pub struct ScoredVersion {
    /// The version (model + compression + storage bytes).
    pub version: ModelVersion,
    /// Accuracy on the validation set.
    pub accuracy: f32,
}

/// A version ladder with validation-measured accuracy per rung.
#[derive(Debug, Clone)]
pub struct VersionCatalog {
    versions: Vec<ScoredVersion>,
}

impl VersionCatalog {
    /// Build the default ladder for `model` and score every rung on the
    /// validation set.
    pub fn build(
        model: &Model,
        val_x: &Tensor,
        val_labels: &[usize],
        par: &Parallelism,
    ) -> Result<Self> {
        let versions = relserve_nn::quant::default_versions(model)?;
        let mut scored = Vec::with_capacity(versions.len());
        for version in versions {
            let accuracy = Trainer::evaluate(&version.model, val_x, val_labels, par)?;
            scored.push(ScoredVersion { version, accuracy });
        }
        Ok(VersionCatalog { versions: scored })
    }

    /// All rungs, original first.
    pub fn versions(&self) -> &[ScoredVersion] {
        &self.versions
    }

    /// The smallest version meeting the SLA, or an error naming the best
    /// achievable accuracy when none does.
    pub fn select(&self, sla: Sla) -> Result<&ScoredVersion> {
        self.versions
            .iter()
            .filter(|v| v.accuracy >= sla.min_accuracy)
            .min_by_key(|v| v.version.storage_bytes)
            .ok_or_else(|| {
                let best = self
                    .versions
                    .iter()
                    .map(|v| v.accuracy)
                    .fold(0.0f32, f32::max);
                Error::Invalid(format!(
                    "no model version reaches accuracy {:.3} (best is {best:.3})",
                    sla.min_accuracy
                ))
            })
    }
}

/// Queue-pressure-driven version step-down for a serving frontend.
///
/// Where [`VersionCatalog::select`] picks a version from an *accuracy* SLA,
/// a saturated server has a second lever: as the queue for an admission
/// class deepens past its SLA threshold, step queries down the rungs of a
/// pre-agreed ladder of loaded model versions (original first, cheaper
/// compressed versions after), trading accuracy for drain rate instead of
/// shedding. The mapping is pure and deterministic so a serving layer can
/// consult it per fused batch without coordination.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureLadder {
    rungs: Vec<String>,
    step_depth: usize,
}

impl PressureLadder {
    /// A ladder over model names already loaded in the session, most
    /// accurate (and most expensive) first, with one step down per
    /// `step_depth` rows of queued work. `step_depth` is the class's SLA
    /// threshold: queue depth at or below it always serves rung 0.
    pub fn new(rungs: Vec<String>, step_depth: usize) -> Result<Self> {
        if rungs.is_empty() {
            return Err(Error::Invalid(
                "a pressure ladder needs at least one rung".into(),
            ));
        }
        if step_depth == 0 {
            return Err(Error::Invalid("step_depth must be positive".into()));
        }
        Ok(PressureLadder { rungs, step_depth })
    }

    /// The model version to serve at `queue_depth` rows of backlog, with
    /// its rung index (0 = original). Depth below `step_depth` keeps rung
    /// 0; every full `step_depth` of backlog steps one rung down, clamped
    /// to the cheapest rung.
    pub fn rung_for_depth(&self, queue_depth: usize) -> (&str, usize) {
        let rung = (queue_depth / self.step_depth.max(1)).min(self.rungs.len() - 1);
        (&self.rungs[rung], rung)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::{Activation, Layer};

    /// A trained model plus validation data it classifies well.
    fn trained_setup() -> (Model, Tensor, Vec<usize>) {
        let mut rng = seeded_rng(120);
        let mut model = Model::new("vc", [6])
            .push(Layer::dense(6, 12, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(12, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let n = 160;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { -1.0f32 } else { 1.0 };
            for _ in 0..6 {
                data.push(center + rng.gen_range(-0.4f32..0.4));
            }
            labels.push(label);
        }
        let x = Tensor::from_vec([n, 6], data).unwrap();
        let trainer = Trainer::new(0.1);
        for _ in 0..15 {
            trainer.train_epoch(&mut model, &x, &labels, 32).unwrap();
        }
        (model, x, labels)
    }

    #[test]
    fn catalog_scores_every_version() {
        let (model, x, labels) = trained_setup();
        let catalog = VersionCatalog::build(&model, &x, &labels, &Parallelism::serial()).unwrap();
        assert_eq!(catalog.versions().len(), 4);
        // The original must be highly accurate on this separable task.
        assert!(catalog.versions()[0].accuracy > 0.95);
    }

    #[test]
    fn sla_selects_smallest_sufficient() {
        let (model, x, labels) = trained_setup();
        let catalog = VersionCatalog::build(&model, &x, &labels, &Parallelism::serial()).unwrap();
        // A lenient SLA must pick something smaller than the original.
        let lenient = catalog.select(Sla { min_accuracy: 0.8 }).unwrap();
        let original_bytes = catalog.versions()[0].version.storage_bytes;
        assert!(lenient.version.storage_bytes < original_bytes);
        // A strict-but-satisfiable SLA still returns something.
        let strict = catalog.select(Sla { min_accuracy: 0.95 }).unwrap();
        assert!(strict.accuracy >= 0.95);
    }

    #[test]
    fn pressure_ladder_steps_down_with_depth() {
        let ladder =
            PressureLadder::new(vec!["m".into(), "m@int8".into(), "m@pruned".into()], 8).unwrap();
        assert_eq!(ladder.rung_for_depth(0), ("m", 0));
        assert_eq!(ladder.rung_for_depth(7), ("m", 0));
        assert_eq!(ladder.rung_for_depth(8), ("m@int8", 1));
        assert_eq!(ladder.rung_for_depth(16), ("m@pruned", 2));
        // Clamped to the cheapest rung, never out of range.
        assert_eq!(ladder.rung_for_depth(10_000), ("m@pruned", 2));
        assert!(PressureLadder::new(vec![], 8).is_err());
        assert!(PressureLadder::new(vec!["m".into()], 0).is_err());
    }

    #[test]
    fn impossible_sla_is_an_error() {
        let (model, x, labels) = trained_setup();
        let catalog = VersionCatalog::build(&model, &x, &labels, &Parallelism::serial()).unwrap();
        let err = catalog.select(Sla { min_accuracy: 1.01 }).unwrap_err();
        assert!(err.to_string().contains("no model version"));
    }
}
