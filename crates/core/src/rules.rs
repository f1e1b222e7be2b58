//! Query-transformation rules (§2.2), headlined by **model decomposition and
//! push-down** — the §7.2.1 experiment.
//!
//! For a pipeline that joins two feature tables `D1 ⋈ D2` and then applies a
//! dense layer with weight `W`, the identity
//!
//! ```text
//! W × (D1 ⋈ D2) = (W1 × D1) ⊕ (W2 × D2)        (⊕ = join + elementwise add)
//! ```
//!
//! lets the optimizer push the two sub-multiplications *below* the join. The
//! join then moves `hidden`-wide intermediates instead of `features`-wide
//! rows — a large win whenever the first layer shrinks dimensionality, as in
//! the Bosch pipeline (968 features → 256 hidden; the paper reports 5.7×).

use crate::error::{Error, Result};
use relserve_nn::{Activation, Layer, Model, Precision};
use relserve_relational::ops::{Operator, SimilarityJoin};
use relserve_relational::{Table, Tuple, Value};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{matmul, ops, Tensor};

/// Split a dense layer's weight `W: [out, in]` by input columns into
/// `W1: [out, split]` and `W2: [out, in - split]`.
fn decompose_weight(weight: &Tensor, split: usize) -> Result<(Tensor, Tensor)> {
    let (out, inf) = weight.shape().as_matrix()?;
    if split == 0 || split >= inf {
        return Err(Error::Invalid(format!("split {split} outside (0, {inf})")));
    }
    Ok((
        weight.slice2(0, out, 0, split)?,
        weight.slice2(0, out, split, inf)?,
    ))
}

/// The first dense layer of a model, or an error. Its f32 weight matrix is
/// read into a tensor of its own, out of whichever form holds it (raw,
/// packed, or a loaded model's artifact pages): the decomposition slices it.
fn first_dense(model: &Model) -> Result<(Tensor, &Tensor, Activation)> {
    match model.layers().first().map(|l| (l, l.weight())) {
        Some((
            Layer::Dense {
                bias, activation, ..
            }
            | Layer::Stored {
                bias, activation, ..
            },
            Some(weight),
        )) if weight.precision() == Precision::F32 => Ok((weight.to_tensor()?, bias, *activation)),
        _ => Err(Error::Invalid(
            "decomposition requires a model starting with a dense layer".into(),
        )),
    }
}

/// Inputs to the §7.2.1 pipeline: two feature tables and the similarity-join
/// predicate `|d1.join_col - d2.join_col| ≤ epsilon`, where each table has a
/// join-key float column and a feature-vector column.
pub struct JoinedInference<'a> {
    /// Left feature table.
    pub d1: &'a Table,
    /// Right feature table.
    pub d2: &'a Table,
    /// Index of the float join column in `d1`.
    pub d1_join_col: usize,
    /// Index of the float join column in `d2`.
    pub d2_join_col: usize,
    /// Index of the feature-vector column in `d1`.
    pub d1_features: usize,
    /// Index of the feature-vector column in `d2`.
    pub d2_features: usize,
    /// Similarity-join tolerance.
    pub epsilon: f32,
}

/// Baseline plan: join first, **materialize the joined wide table** (an
/// RDBMS pipeline materializes intermediate sets between operators, as
/// netsDB does), then scan it back and run the model over the augmented
/// features. The materialized intermediate carries the *full* feature width
/// — the cost the push-down transformation removes.
pub fn run_join_then_infer(
    q: &JoinedInference<'_>,
    model: &Model,
    par: &Parallelism,
) -> Result<Tensor> {
    let pool = q.d1.heap().pool().clone();
    let left = relserve_relational::ops::SeqScan::new(q.d1);
    let right = relserve_relational::ops::SeqScan::new(q.d2);
    let mut join = SimilarityJoin::new(
        Box::new(left),
        Box::new(right),
        q.d1_join_col,
        q.d2_join_col,
        q.epsilon,
    )
    .map_err(Error::Relational)?;
    // Materialize the augmented feature table D = D1 ⋈ D2.
    let d1_arity = q.d1.schema().arity();
    let f2_idx = d1_arity + q.d2_features;
    let joined_schema = relserve_relational::Schema::new(vec![relserve_relational::Column::new(
        "features",
        relserve_relational::DataType::Vector,
    )]);
    let joined = Table::create(pool, "joined.wide", joined_schema);
    let mut width = 0usize;
    {
        use relserve_relational::ops::Operator;
        while let Some(t) = join.next().map_err(Error::Relational)? {
            let mut wide = t.value(q.d1_features)?.as_vector()?.to_vec();
            wide.extend_from_slice(t.value(f2_idx)?.as_vector()?);
            width = wide.len();
            joined
                .insert(&Tuple::new(vec![Value::Vector(wide)]))
                .map_err(Error::Relational)?;
        }
    }
    if joined.cardinality() == 0 {
        return Err(Error::Invalid("similarity join produced no rows".into()));
    }
    // Scan the materialized table back and run the model over it.
    let rows = joined.cardinality() as usize;
    let mut data = Vec::with_capacity(rows * width);
    for row in joined.scan() {
        let row = row.map_err(Error::Relational)?;
        data.extend_from_slice(row.value(0)?.as_vector()?);
    }
    let features = Tensor::from_vec([rows, width], data)?;
    Ok(model.forward(&features, par)?)
}

/// Push-down plan: multiply each side's features by its weight slice *before*
/// the join, join the narrow intermediates, add the partial products, then
/// finish the model (bias, activation, remaining layers).
pub fn run_pushdown_infer(
    q: &JoinedInference<'_>,
    model: &Model,
    par: &Parallelism,
) -> Result<Tensor> {
    let (weight, bias, activation) = first_dense(model)?;
    // Determine the split from the actual feature widths.
    let probe = |table: &Table, col: usize| -> Result<usize> {
        match table.scan().next() {
            Some(row) => {
                let row = row.map_err(Error::Relational)?;
                Ok(row.value(col)?.as_vector()?.len())
            }
            None => Err(Error::Invalid("empty feature table".into())),
        }
    };
    let f1_len = probe(q.d1, q.d1_features)?;
    let f2_len = probe(q.d2, q.d2_features)?;
    let (_, inf) = weight.shape().as_matrix()?;
    if f1_len + f2_len != inf {
        return Err(Error::Invalid(format!(
            "feature widths {f1_len}+{f2_len} do not match weight input {inf}"
        )));
    }
    let (w1, w2) = decompose_weight(&weight, f1_len)?;

    // Push down: compute Xi × Wiᵀ per side and **materialize the narrow
    // partial tables** — the same pipeline materialization the baseline
    // pays, but on `hidden`-wide rows instead of raw-feature-wide rows.
    let pool = q.d1.heap().pool().clone();
    let partial_schema = relserve_relational::Schema::new(vec![
        relserve_relational::Column::new("key", relserve_relational::DataType::Float),
        relserve_relational::Column::new("partial", relserve_relational::DataType::Vector),
    ]);
    let pushed = |table: &Table,
                  join_col: usize,
                  feat_col: usize,
                  w: &Tensor,
                  name: &str|
     -> Result<Table> {
        let out = Table::create(pool.clone(), name, partial_schema.clone());
        let width = w.shape().as_matrix()?.1;
        // Stream the base table in bounded batches: scan → multiply → write.
        const CHUNK: usize = 4096;
        let mut keys: Vec<f32> = Vec::with_capacity(CHUNK);
        let mut batch: Vec<f32> = Vec::with_capacity(CHUNK * width);
        let flush = |keys: &mut Vec<f32>, batch: &mut Vec<f32>| -> Result<()> {
            if keys.is_empty() {
                return Ok(());
            }
            let rows = keys.len();
            let x = Tensor::from_vec([rows, width], std::mem::take(batch))?;
            let partial = matmul::matmul_bt_parallel(&x, w, par)?;
            for (i, key) in keys.iter().enumerate() {
                out.insert(&Tuple::new(vec![
                    Value::Float(*key),
                    Value::Vector(partial.row(i)?.to_vec()),
                ]))
                .map_err(Error::Relational)?;
            }
            keys.clear();
            Ok(())
        };
        for row in table.scan() {
            let row = row.map_err(Error::Relational)?;
            keys.push(row.value(join_col)?.as_float().map_err(Error::Relational)?);
            batch.extend_from_slice(row.value(feat_col)?.as_vector()?);
            if keys.len() == CHUNK {
                flush(&mut keys, &mut batch)?;
            }
        }
        flush(&mut keys, &mut batch)?;
        Ok(out)
    };
    let p1 = pushed(q.d1, q.d1_join_col, q.d1_features, &w1, "pushed.p1")?;
    let p2 = pushed(q.d2, q.d2_join_col, q.d2_features, &w2, "pushed.p2")?;

    let left = relserve_relational::ops::SeqScan::new(&p1);
    let right = relserve_relational::ops::SeqScan::new(&p2);
    let mut join = SimilarityJoin::new(Box::new(left), Box::new(right), 0, 0, q.epsilon)
        .map_err(Error::Relational)?;

    // Combine partials: hidden = act(p1 + p2 + bias), then the tail layers.
    let mut hidden_rows: Vec<f32> = Vec::new();
    let mut count = 0usize;
    let hidden_width = bias.len();
    while let Some(t) = join.next().map_err(Error::Relational)? {
        let a = t.value(1)?.as_vector()?;
        let b = t.value(3)?.as_vector()?;
        hidden_rows.extend(a.iter().zip(b).map(|(x, y)| x + y));
        count += 1;
    }
    if count == 0 {
        return Err(Error::Invalid("similarity join produced no rows".into()));
    }
    let mut x = Tensor::from_vec([count, hidden_width], hidden_rows)?;
    ops::add_bias_inplace(&mut x, bias)?;
    activation.apply_inplace(&mut x).map_err(Error::Nn)?;
    for i in 1..model.layers().len() {
        x = model.forward_layer(i, &x, par).map_err(Error::Nn)?;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_relational::{Column, DataType, Schema};
    use relserve_storage::{BufferPool, DiskManager};
    use std::sync::Arc;

    fn feature_table(
        name: &str,
        n: usize,
        width: usize,
        key_of: impl Fn(usize) -> f32,
        seed: u64,
    ) -> Table {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 32));
        let schema = Schema::new(vec![
            Column::new("key", DataType::Float),
            Column::new("features", DataType::Vector),
        ]);
        let table = Table::create(pool, name, schema);
        use rand::Rng;
        let mut rng = relserve_nn::init::seeded_rng(seed);
        for i in 0..n {
            let features: Vec<f32> = (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            table
                .insert(&Tuple::new(vec![
                    Value::Float(key_of(i)),
                    Value::Vector(features),
                ]))
                .unwrap();
        }
        table
    }

    fn query<'a>(d1: &'a Table, d2: &'a Table) -> JoinedInference<'a> {
        JoinedInference {
            d1,
            d2,
            d1_join_col: 0,
            d2_join_col: 0,
            d1_features: 1,
            d2_features: 1,
            epsilon: 0.25,
        }
    }

    #[test]
    fn decompose_weight_splits_columns() {
        let w = Tensor::from_fn([3, 10], |i| i as f32);
        let (w1, w2) = decompose_weight(&w, 4).unwrap();
        assert_eq!(w1.shape().dims(), &[3, 4]);
        assert_eq!(w2.shape().dims(), &[3, 6]);
        assert_eq!(w1.hconcat(&w2).unwrap(), w);
        assert!(decompose_weight(&w, 0).is_err());
        assert!(decompose_weight(&w, 10).is_err());
    }

    #[test]
    fn pushdown_matches_baseline() {
        // The correctness heart of §7.2.1: both plans must produce the same
        // predictions (up to float reassociation).
        let mut rng = seeded_rng(110);
        let model = Model::new("mini-bosch", [12])
            .push(Layer::dense(12, 6, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(6, 2, Activation::Softmax, &mut rng))
            .unwrap();
        // Keys 0.0, 1.0, 2.0, ... on both sides → each row joins its twin.
        let d1 = feature_table("d1", 30, 7, |i| i as f32, 1);
        let d2 = feature_table("d2", 30, 5, |i| i as f32, 2);
        let q = query(&d1, &d2);
        let baseline = run_join_then_infer(&q, &model, &Parallelism::serial()).unwrap();
        let pushed = run_pushdown_infer(&q, &model, &Parallelism::serial()).unwrap();
        assert_eq!(baseline.shape(), pushed.shape());
        assert!(
            baseline.approx_eq(&pushed, 1e-4),
            "max diff {}",
            baseline.max_abs_diff(&pushed).unwrap()
        );
    }

    #[test]
    fn pushdown_handles_one_to_many_joins() {
        let mut rng = seeded_rng(111);
        let model = Model::new("m", [8])
            .push(Layer::dense(8, 4, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(4, 2, Activation::Softmax, &mut rng))
            .unwrap();
        // d2 keys cluster: key/2 → two d2 rows match each d1 key bucket.
        let d1 = feature_table("d1", 10, 5, |i| i as f32, 3);
        let d2 = feature_table("d2", 20, 3, |i| (i / 2) as f32, 4);
        let q = query(&d1, &d2);
        let baseline = run_join_then_infer(&q, &model, &Parallelism::serial()).unwrap();
        let pushed = run_pushdown_infer(&q, &model, &Parallelism::serial()).unwrap();
        // Join order may differ between plans; compare sorted row checksums.
        let row_sums = |t: &Tensor| {
            let (r, c) = t.shape().as_matrix().unwrap();
            let mut sums: Vec<f32> = (0..r)
                .map(|i| {
                    t.row(i)
                        .unwrap()
                        .iter()
                        .enumerate()
                        .map(|(j, v)| v * (j as f32 + 1.0))
                        .sum()
                })
                .collect();
            sums.sort_by(f32::total_cmp);
            let _ = c;
            sums
        };
        let a = row_sums(&baseline);
        let b = row_sums(&pushed);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn feature_width_mismatch_is_rejected() {
        let mut rng = seeded_rng(112);
        let model = Model::new("m", [10])
            .push(Layer::dense(10, 4, Activation::Softmax, &mut rng))
            .unwrap();
        let d1 = feature_table("d1", 5, 7, |i| i as f32, 5);
        let d2 = feature_table("d2", 5, 5, |i| i as f32, 6); // 7+5 ≠ 10
        let q = query(&d1, &d2);
        assert!(run_pushdown_infer(&q, &model, &Parallelism::serial()).is_err());
    }

    #[test]
    fn non_dense_first_layer_rejected() {
        let mut rng = seeded_rng(113);
        let model = Model::new("m", [4, 4, 1])
            .push(Layer::conv2d(1, 2, 1, 1, Activation::None, &mut rng))
            .unwrap();
        let d1 = feature_table("d1", 5, 8, |i| i as f32, 7);
        let d2 = feature_table("d2", 5, 8, |i| i as f32, 8);
        let q = query(&d1, &d2);
        assert!(run_pushdown_infer(&q, &model, &Parallelism::serial()).is_err());
    }
}
