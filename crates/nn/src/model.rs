//! Sequential models.

use crate::error::{Error, Result};
use crate::graph::LinalgOp;
use crate::layer::{Layer, PreparedWeights};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{ops, Shape, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A sequential neural network: an input shape and a stack of layers.
///
/// The weights of a model are constants between two [`Model::layers_mut`]
/// calls, so [`Model::forward`] and [`Model::forward_layer`] pack each dense
/// layer's weights once, on the layer's first execution, and multiply from
/// the packed form from then on. Clones share what has been packed; the
/// packed form is derived state, so it takes no part in `==`, `Debug` or
/// serialization.
#[derive(Clone)]
pub struct Model {
    name: String,
    input_shape: Shape,
    layers: Vec<Layer>,
    prepared: Arc<PreparedSlots>,
}

/// One slot per layer: unset until the layer first runs dense, then what
/// [`Layer::prepare`] returned for it.
struct PreparedSlots {
    slots: Box<[OnceLock<Option<PreparedWeights>>]>,
    /// Held while a slot is filled, so that racing first runs pack once.
    building: Mutex<()>,
    /// Weight matrices packed: one per filled slot of a dense layer, unless
    /// some layer was packed twice.
    builds: AtomicUsize,
}

impl PreparedSlots {
    fn empty(layers: usize) -> Arc<Self> {
        Arc::new(PreparedSlots {
            slots: (0..layers).map(|_| OnceLock::new()).collect(),
            building: Mutex::new(()),
            builds: AtomicUsize::new(0),
        })
    }

    /// The packed weights of `layer`, which is layer `i`; built on first use.
    fn get(&self, i: usize, layer: &Layer) -> Result<Option<&PreparedWeights>> {
        let slot = &self.slots[i];
        if let Some(built) = slot.get() {
            return Ok(built.as_ref());
        }
        // The lock guards no data, so a builder that panicked left nothing
        // half-done behind it.
        let _building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.get().is_none() {
            // A failed build publishes nothing; the next run tries again.
            let built = layer.prepare()?;
            // A statistic: it publishes nothing.
            self.builds
                .fetch_add(usize::from(built.is_some()), Ordering::Relaxed);
            let _ = slot.set(built);
        }
        Ok(slot.get().and_then(Option::as_ref))
    }

    /// Bytes of every packed form held.
    fn bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.get()?.as_ref())
            .map(PreparedWeights::bytes)
            .sum()
    }
}

impl PartialEq for Model {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.input_shape == other.input_shape
            && self.layers == other.layers
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("name", &self.name)
            .field("input_shape", &self.input_shape)
            .field("layers", &self.layers)
            .finish()
    }
}

impl Model {
    /// An empty model taking per-example inputs of `input_shape`.
    pub fn new(name: impl Into<String>, input_shape: impl Into<Shape>) -> Self {
        Model {
            name: name.into(),
            input_shape: input_shape.into(),
            layers: Vec::new(),
            prepared: PreparedSlots::empty(0),
        }
    }

    /// A model of `layers`, validating the shape chain.
    pub(crate) fn from_layers(
        name: String,
        input_shape: Shape,
        layers: Vec<Layer>,
    ) -> Result<Self> {
        // Every shape on the chain must count its elements without
        // overflow before a layer is asked what it makes of it.
        let counted = |shape: &Shape| {
            shape
                .dims()
                .iter()
                .try_fold(1usize, |n, d| n.checked_mul(*d))
                .ok_or_else(|| Error::InvalidModel(format!("shape {shape} overflows")))
        };
        let mut shape = input_shape.clone();
        counted(&shape)?;
        for layer in &layers {
            shape = layer.output_shape(&shape)?;
            counted(&shape)?;
        }
        Ok(Model {
            name,
            input_shape,
            prepared: PreparedSlots::empty(layers.len()),
            layers,
        })
    }

    /// This model, multiplying from — and building into — the packed
    /// weights of `other`, which must be the same network (as a model and
    /// its artifact decoded into [`Layer::Stored`] layers are).
    pub(crate) fn sharing_prepared(mut self, other: &Model) -> Result<Self> {
        let same = self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(a, b)| a.kind() == b.kind() && a.weight_shape() == b.weight_shape());
        if !same {
            return Err(Error::InvalidModel(format!(
                "`{}` cannot share the packed weights of `{}`: the layers differ",
                self.name, other.name
            )));
        }
        self.prepared = other.prepared.clone();
        Ok(self)
    }

    /// Append a layer, validating the shape chain.
    pub fn push(mut self, layer: Layer) -> Result<Self> {
        let current = self.output_shape()?;
        layer.output_shape(&current)?;
        self.layers.push(layer);
        self.prepared = PreparedSlots::empty(self.layers.len());
        Ok(self)
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the model (used when deriving quantized/pruned versions).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Per-example input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// This model with every [`Layer::Stored`] weight matrix read back into
    /// memory (see [`Layer::materialize`]); it shares this model's packed
    /// weights, which it multiplies the same as.
    pub fn materialize(&self) -> Result<Model> {
        Ok(Model {
            name: self.name.clone(),
            input_shape: self.input_shape.clone(),
            layers: self
                .layers
                .iter()
                .map(Layer::materialize)
                .collect::<Result<_>>()?,
            prepared: self.prepared.clone(),
        })
    }

    /// Mutable access to the layer stack (training updates parameters).
    /// Whatever this model had packed is dropped — the next forward packs
    /// the edited weights — while clones made earlier keep theirs.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        self.prepared = PreparedSlots::empty(self.layers.len());
        &mut self.layers
    }

    /// How many weight matrices have been packed, and the bytes the packed
    /// forms take: one build per dense layer that has run since the last
    /// [`Model::layers_mut`], on this model or a clone that shares its
    /// packed weights.
    pub fn prepared_weights(&self) -> (usize, usize) {
        (
            self.prepared.builds.load(Ordering::Relaxed),
            self.prepared.bytes(),
        )
    }

    /// Per-example output shape after all layers.
    pub fn output_shape(&self) -> Result<Shape> {
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Total parameter bytes.
    pub fn param_bytes(&self) -> usize {
        self.num_params() * relserve_tensor::ELEM_BYTES
    }

    /// Check a batch tensor against the model input shape.
    pub fn check_input(&self, batch: &Tensor) -> Result<usize> {
        let dims = batch.shape().dims();
        let expected = self.input_shape.dims();
        // Accept either [batch, ...example dims] or a flattened
        // [batch, num_features] for models with flat inputs.
        let matches_full = dims.len() == expected.len() + 1 && &dims[1..] == expected;
        let matches_flat = dims.len() == 2 && dims[1] == self.input_shape.num_elements();
        if !matches_full && !matches_flat {
            return Err(Error::InputMismatch {
                expected: expected.to_vec(),
                actual: dims.to_vec(),
            });
        }
        Ok(dims[0])
    }

    /// Forward inference over a batch under the caller's kernel grant.
    pub fn forward(&self, batch: &Tensor, par: &Parallelism) -> Result<Tensor> {
        let batch_size = self.check_input(batch)?;
        // Restore the full example shape in case a flat batch arrived for a
        // spatial model.
        let mut full_dims = vec![batch_size];
        full_dims.extend_from_slice(self.input_shape.dims());
        let mut x = batch.clone().reshape(full_dims)?;
        for i in 0..self.layers.len() {
            x = self.forward_layer(i, &x, par)?;
        }
        Ok(x)
    }

    /// Forward pass of layer `i` alone over `input`, `[batch, ...dims of the
    /// layer's input]`: what every executor runs a dense-executed layer
    /// through, so that its weights are packed once per model.
    pub fn forward_layer(&self, i: usize, input: &Tensor, par: &Parallelism) -> Result<Tensor> {
        let layer = self.layers.get(i).ok_or_else(|| {
            Error::InvalidModel(format!(
                "`{}` has {} layers, no layer {i}",
                self.name,
                self.layers.len()
            ))
        })?;
        layer.forward_prepared(input, self.prepared.get(i, layer)?, par)
    }

    /// Forward inference followed by row-wise argmax (classification).
    pub fn predict(&self, batch: &Tensor, par: &Parallelism) -> Result<Vec<usize>> {
        let logits = self.forward(batch, par)?;
        let (rows, cols) = logits.shape().as_matrix()?;
        let flat = logits.reshape([rows, cols])?;
        Ok(ops::argmax_rows(&flat)?)
    }

    /// Lower the model into its linear-algebra graph IR for `batch_size`
    /// (the representation the adaptive optimizer walks, §7.1).
    pub fn to_graph(&self, batch_size: usize) -> Result<Vec<LinalgOp>> {
        crate::graph::lower(self, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layer::Activation;

    fn ffnn() -> Model {
        let mut rng = seeded_rng(3);
        Model::new("test-ffnn", [4])
            .push(Layer::dense(4, 8, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(8, 3, Activation::Softmax, &mut rng))
            .unwrap()
    }

    #[test]
    fn push_validates_shape_chain() {
        let mut rng = seeded_rng(4);
        let m = Model::new("bad", [4])
            .push(Layer::dense(4, 8, Activation::Relu, &mut rng))
            .unwrap();
        // Next layer expects 9 features but gets 8.
        assert!(m
            .push(Layer::dense(9, 2, Activation::None, &mut rng))
            .is_err());
    }

    #[test]
    fn forward_produces_distribution() {
        let m = ffnn();
        let x = Tensor::from_fn([5, 4], |i| (i % 3) as f32);
        let y = m.forward(&x, &Parallelism::serial()).unwrap();
        assert_eq!(y.shape().dims(), &[5, 3]);
        for r in 0..5 {
            let s: f32 = y.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let m = ffnn();
        let x = Tensor::zeros([5, 7]);
        assert!(matches!(
            m.forward(&x, &Parallelism::serial()),
            Err(Error::InputMismatch { .. })
        ));
    }

    #[test]
    fn predict_returns_argmax() {
        let m = ffnn();
        let x = Tensor::from_fn([3, 4], |i| i as f32 * 0.1);
        let preds = m.predict(&x, &Parallelism::serial()).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| *p < 3));
    }

    #[test]
    fn num_params_sums_layers() {
        let m = ffnn();
        assert_eq!(m.num_params(), (4 * 8 + 8) + (8 * 3 + 3));
        assert_eq!(m.param_bytes(), m.num_params() * 4);
    }

    #[test]
    fn conv_model_accepts_flat_and_spatial_batches() {
        let mut rng = seeded_rng(5);
        let m = Model::new("cnn", [6, 6, 1])
            .push(Layer::conv2d(1, 4, 3, 3, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::Flatten)
            .unwrap()
            .push(Layer::dense(4 * 4 * 4, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let spatial = Tensor::from_fn([2, 6, 6, 1], |i| (i % 5) as f32);
        let flat = spatial.clone().reshape([2, 36]).unwrap();
        let a = m.forward(&spatial, &Parallelism::serial()).unwrap();
        let b = m.forward(&flat, &Parallelism::serial()).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
    }

    /// Address of layer `i`'s packed weights, if packed.
    fn packed_at(m: &Model, i: usize) -> Option<*const u8> {
        m.prepared.slots[i]
            .get()
            .and_then(Option::as_ref)
            .map(|p| match p {
                PreparedWeights::Panels { panels, .. } => panels.as_ptr().cast(),
                PreparedWeights::Quads { quads, .. } => quads.as_ptr().cast(),
            })
    }

    #[test]
    fn prepared_weights_are_built_on_first_forward_and_shared_by_clones() {
        let m = ffnn();
        let x = Tensor::from_fn([5, 4], |i| (i as f32 * 0.31).sin());
        let par = Parallelism::serial();
        assert_eq!(
            m.prepared_weights(),
            (0, 0),
            "nothing packs before a forward"
        );
        assert_eq!(packed_at(&m, 0), None);
        // One layer alone packs that layer alone.
        let hidden = m.forward_layer(0, &x, &par).unwrap();
        assert_eq!(m.prepared_weights().0, 1);
        assert!(packed_at(&m, 0).is_some() && packed_at(&m, 1).is_none());
        assert!(m.forward_layer(2, &hidden, &par).is_err(), "no layer 2");

        let first = m.forward(&x, &par).unwrap();
        let (builds, bytes) = m.prepared_weights();
        assert_eq!(builds, 2);
        assert!(
            bytes >= (4 * 8 + 8 * 3) * 4,
            "panels hold at least the weights"
        );

        // A clone made after the build multiplies from the same panels; one
        // made before it sees the build too (the slots are shared, not the
        // contents copied), and nobody packs a second time.
        let clone = m.clone();
        assert_eq!(clone.forward(&x, &par).unwrap(), first);
        for i in 0..2 {
            assert_eq!(packed_at(&clone, i), packed_at(&m, i));
        }
        let early = ffnn();
        let late = early.clone();
        late.forward(&x, &par).unwrap();
        assert_eq!(packed_at(&early, 1), packed_at(&late, 1));
        assert_eq!(early.prepared_weights().0, 2);
        assert_eq!(m.prepared_weights(), (2, bytes));
        // Derived state: no part of equality or of the debug form.
        assert_eq!(ffnn(), m);
        assert_eq!(format!("{:?}", ffnn()), format!("{m:?}"));
    }

    #[test]
    fn prepared_weights_are_dropped_by_an_edit_and_kept_by_the_untouched_clone() {
        let mut edited = ffnn();
        let x = Tensor::from_fn([3, 4], |i| (i as f32 * 0.77).cos());
        let par = Parallelism::serial();
        let before = edited.forward(&x, &par).unwrap();
        let untouched = edited.clone();
        let kept = packed_at(&untouched, 0);

        let Layer::Dense { weight, .. } = &mut edited.layers_mut()[0] else {
            unreachable!()
        };
        for w in weight.data_mut() {
            *w = -*w;
        }
        assert_eq!(
            edited.prepared_weights(),
            (0, 0),
            "an edit drops the packed form"
        );
        let after = edited.forward(&x, &par).unwrap();
        assert_ne!(
            after, before,
            "the forward after an edit multiplies by the edited weights"
        );
        // What a model built from the edited weights computes, bit for bit.
        let rebuilt = edited
            .layers()
            .iter()
            .fold(Model::new("test-ffnn", [4]), |m, l| {
                m.push(l.clone()).unwrap()
            });
        assert_eq!(rebuilt.forward(&x, &par).unwrap(), after);
        // The clone made before the edit still holds, and multiplies from,
        // the weights it was cloned with.
        assert_eq!(packed_at(&untouched, 0), kept);
        assert_eq!(untouched.forward(&x, &par).unwrap(), before);
        assert_eq!(untouched.prepared_weights().0, 2);
    }

    #[test]
    fn output_shape_reports_final_layer() {
        assert_eq!(ffnn().output_shape().unwrap().dims(), &[3]);
    }
}
