//! Sequential models.

use crate::error::{Error, Result};
use crate::layer::Layer;
use crate::weight::Weight;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{ops, Shape, Tensor};

/// A sequential neural network: an input shape and a stack of layers.
///
/// Each dense layer's weight matrix is one cell ([`crate::weight`]) holding
/// one resident form: the raw values until the layer first runs dense, the
/// packed form [`Model::forward`] and [`Model::forward_layer`] multiply from
/// after that — packing replaces the raw values — or, for a model loaded into
/// a session, the artifact's pages. A clone copies no weight bytes: it
/// shares every cell, and what any sharer packs; [`Model::layers_mut`] gives
/// the editing model cells of its own, and an edit copies the matrix back
/// into raw values only then. Forms are a matter of layout, so they take no
/// part in `==`, `Debug` or serialization, which read the logical matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    input_shape: Shape,
    layers: Vec<Layer>,
}

impl Model {
    /// An empty model taking per-example inputs of `input_shape`.
    pub fn new(name: impl Into<String>, input_shape: impl Into<Shape>) -> Self {
        Model {
            name: name.into(),
            input_shape: input_shape.into(),
            layers: Vec::new(),
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
            layers,
        })
    }

    /// This model — decoded from `original`'s own artifact — with every
    /// layer whose weight `original` shares with a clone taken from
    /// `original` instead: that weight's one resident form serves both.
    pub(crate) fn keeping_shared(mut self, original: Model) -> Self {
        for (mine, theirs) in self.layers.iter_mut().zip(original.layers) {
            if theirs.weight().is_some_and(Weight::is_shared) {
                *mine = theirs;
            }
        }
        self
    }

    /// Append a layer, validating the shape chain.
    pub fn push(mut self, layer: Layer) -> Result<Self> {
        let current = self.output_shape()?;
        layer.output_shape(&current)?;
        self.layers.push(layer);
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

    /// This model with every [`Layer::Stored`] weight matrix brought into
    /// memory (see [`Layer::materialize`]); every other weight is shared,
    /// not copied.
    pub fn materialize(&self) -> Result<Model> {
        Ok(Model {
            name: self.name.clone(),
            input_shape: self.input_shape.clone(),
            layers: self
                .layers
                .iter()
                .map(Layer::materialize)
                .collect::<Result<_>>()?,
        })
    }

    /// Mutable access to the layer stack (training updates parameters).
    /// Every weight this model shares with a clone gets a cell of its own,
    /// in the forms the shared one holds (no bytes are copied): what this
    /// model packs or edits from now on, clones made earlier do not see. An
    /// edit of a weight's values turns it back into raw values, its own,
    /// and the next forward packs them.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        for weight in self.layers.iter_mut().filter_map(Layer::weight_mut) {
            weight.detach();
        }
        &mut self.layers
    }

    /// How many weight matrices have been packed, and the bytes the packed
    /// forms take: one build per dense layer that has run since its weight
    /// was last edited, on this model or a clone that shares the weight.
    pub fn prepared_weights(&self) -> (usize, usize) {
        self.layers
            .iter()
            .filter_map(Layer::weight)
            .map(Weight::packing)
            .fold((0, 0), |(builds, bytes), (b, n)| (builds + b, bytes + n))
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

    /// Bytes of every layer's parameters in their storage form (see
    /// [`Layer::param_bytes`]): 4 B per parameter of an f32 model, about 1 B
    /// per weight of an `@int8` one.
    pub fn param_bytes(&self) -> usize {
        self.param_bytes_of(|_| true)
    }

    /// [`Model::param_bytes`] of the layers whose index `keep` accepts: what
    /// an executor holding those layers' parameters charges for them.
    pub fn param_bytes_of(&self, mut keep: impl FnMut(usize) -> bool) -> usize {
        self.layers
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, layer)| layer.param_bytes())
            .sum()
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
    /// through.
    pub fn forward_layer(&self, i: usize, input: &Tensor, par: &Parallelism) -> Result<Tensor> {
        let layer = self.layers.get(i).ok_or_else(|| {
            Error::InvalidModel(format!(
                "`{}` has {} layers, no layer {i}",
                self.name,
                self.layers.len()
            ))
        })?;
        layer.forward(input, par)
    }

    /// Forward inference followed by row-wise argmax (classification).
    pub fn predict(&self, batch: &Tensor, par: &Parallelism) -> Result<Vec<usize>> {
        let logits = self.forward(batch, par)?;
        let (rows, cols) = logits.shape().as_matrix()?;
        let flat = logits.reshape([rows, cols])?;
        Ok(ops::argmax_rows(&flat)?)
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
        m.layers[i].weight().and_then(Weight::packed_at)
    }

    /// Whether any weight of `m` holds raw values or a copy `Deref` made.
    fn holds_values(m: &Model) -> bool {
        m.layers
            .iter()
            .filter_map(Layer::weight)
            .any(|w| w.holds_values() != (false, false))
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
        assert!(!holds_values(&m), "the panels replaced the raw weights");

        // A clone made after the build multiplies from the same panels; one
        // made before it sees the build too (the cells are shared, not the
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
        // The form is layout: no part of equality or of the debug form.
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
            packed_at(&edited, 0),
            None,
            "an edit drops the edited layer's packed form"
        );
        assert_eq!(
            packed_at(&edited, 1),
            packed_at(&untouched, 1),
            "and shares on the packed form of the layer it did not touch"
        );
        assert_eq!(edited.prepared_weights().0, 1);
        let after = edited.forward(&x, &par).unwrap();
        assert_ne!(
            after, before,
            "the forward after an edit multiplies by the edited weights"
        );
        assert_eq!(edited.prepared_weights().0, 2, "the edited layer repacks");
        // What a model built from the edited values computes, bit for bit.
        let rebuilt =
            crate::serialize::from_bytes(&crate::serialize::to_bytes(&edited).unwrap()).unwrap();
        assert_eq!(rebuilt.forward(&x, &par).unwrap(), after);
        // The clone made before the edit still holds, and multiplies from,
        // the weights it was cloned with.
        assert_eq!(packed_at(&untouched, 0), kept);
        assert_eq!(untouched.forward(&x, &par).unwrap(), before);
        assert_eq!(untouched.prepared_weights().0, 2);
    }

    /// `k → n → 7` with `n` not a multiple of any kernel's panel width and
    /// `k` not a multiple of the int8 quad depth, and its `@int8` version.
    fn ragged() -> [Model; 2] {
        let mut rng = seeded_rng(6);
        let mut m = Model::new("ragged", [13])
            .push(Layer::dense(13, 19, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(19, 7, Activation::Softmax, &mut rng))
            .unwrap();
        for (i, layer) in m.layers_mut().iter_mut().enumerate() {
            if let Layer::Dense { bias, .. } = layer {
                for (j, b) in bias.data_mut().iter_mut().enumerate() {
                    *b = ((i * 7 + j) as f32 * 0.41).sin() * 0.3;
                }
            }
        }
        let q = crate::quant::quantize_int8(&m).unwrap().model;
        [m, q]
    }

    #[test]
    fn bytes_and_bits_survive_packing() {
        use crate::serialize::{from_bytes, to_bytes};
        let x = Tensor::from_fn([5, 13], |i| (i as f32 * 0.53).sin() * 2.0);
        let par = Parallelism::serial();
        for m in ragged() {
            let fresh = m.clone().materialize().unwrap();
            let v2 = to_bytes(&m).unwrap();
            let out = m.forward(&x, &par).unwrap();
            assert!(
                !holds_values(&m),
                "{}: packing replaced the values",
                m.name()
            );
            // V2 bytes are those of the raw values, read back from panels.
            assert_eq!(to_bytes(&m).unwrap(), v2, "{}", m.name());
            assert_eq!(from_bytes(&v2).unwrap().forward(&x, &par).unwrap(), out);
            // Equality, the debug form and materialize agree across forms,
            // and none of them leaves a copy of the values behind.
            assert_eq!(m, fresh);
            assert_eq!(format!("{m:?}"), format!("{fresh:?}"));
            assert_eq!(m.materialize().unwrap(), m);
            assert!(!holds_values(&m), "{}: a reader kept a copy", m.name());
        }
        // A V1 artifact (f32 only) decodes to the same model, and packing
        // that model changes none of its bytes either.
        let [f32_model, _] = ragged();
        let v2 = to_bytes(&f32_model).unwrap();
        let mut v1 = v2.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let from_v1 = from_bytes(&v1).unwrap();
        assert_eq!(from_v1, f32_model);
        from_v1.forward(&x, &par).unwrap();
        assert!(!holds_values(&from_v1));
        assert_eq!(to_bytes(&from_v1).unwrap(), v2);
    }

    #[test]
    fn an_edit_of_a_clone_made_after_packing_changes_that_clone_alone() {
        let [original, _] = ragged();
        let x = Tensor::from_fn([6, 13], |i| (i as f32 * 0.29).cos());
        let par = Parallelism::serial();
        let out = original.forward(&x, &par).unwrap();
        let bytes = crate::serialize::to_bytes(&original).unwrap();
        let packed = [packed_at(&original, 0), packed_at(&original, 1)];

        let mut clone = original.clone();
        let Layer::Dense { weight, .. } = &mut clone.layers_mut()[1] else {
            unreachable!()
        };
        weight.data_mut()[0] += 0.5;
        // The original's predictions, bytes and panels are untouched.
        assert_eq!(original.forward(&x, &par).unwrap(), out);
        assert_eq!(crate::serialize::to_bytes(&original).unwrap(), bytes);
        assert_eq!([packed_at(&original, 0), packed_at(&original, 1)], packed);
        assert_eq!(original.prepared_weights().0, 2);
        // The clone multiplies by its edit, repacking that layer once.
        assert_eq!(packed_at(&clone, 0), packed[0]);
        assert_eq!(packed_at(&clone, 1), None);
        assert_ne!(clone.forward(&x, &par).unwrap(), out);
        clone.forward(&x, &par).unwrap();
        assert_eq!(clone.prepared_weights().0, 2, "one build per layer");
        assert_ne!(packed_at(&clone, 1), packed[1]);
        assert_ne!(crate::serialize::to_bytes(&clone).unwrap(), bytes);
    }

    #[test]
    fn output_shape_reports_final_layer() {
        assert_eq!(ffnn().output_shape().unwrap().dims(), &[3]);
    }
}
