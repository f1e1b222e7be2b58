//! Similarity (band) join on float keys.
//!
//! The §7.2.1 pipeline joins two feature tables on the *similarity* of two
//! float columns: `|l.key - r.key| ≤ ε`. A nested loop would be quadratic;
//! this operator buckets the build side by `floor(key / ε)` so each probe
//! only inspects three buckets (its own and both neighbours), then verifies
//! the predicate exactly.

use super::Operator;
use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::HashMap;

/// Band join: emits `left ++ right` when the two float keys differ by ≤ ε.
pub struct SimilarityJoin<'a> {
    left: Box<dyn Operator + 'a>,
    left_key: usize,
    right_key: usize,
    epsilon: f32,
    schema: Schema,
    build: Option<HashMap<i64, Vec<(f32, Tuple)>>>,
    right: Option<Box<dyn Operator + 'a>>,
    pending: Vec<Tuple>,
    pending_left: Option<Tuple>,
    pending_idx: usize,
}

impl<'a> SimilarityJoin<'a> {
    /// Join on `|left[left_key] - right[right_key]| <= epsilon`, where the
    /// keys are indices of float columns.
    pub fn new(
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        left_key: usize,
        right_key: usize,
        epsilon: f32,
    ) -> Result<Self> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(crate::error::Error::Plan(format!(
                "similarity join needs a positive finite epsilon, got {epsilon}"
            )));
        }
        let schema = left.schema().join(right.schema());
        Ok(SimilarityJoin {
            left,
            left_key,
            right_key,
            epsilon,
            schema,
            build: None,
            right: Some(right),
            pending: Vec::new(),
            pending_left: None,
            pending_idx: 0,
        })
    }

    fn bucket(&self, v: f32) -> i64 {
        (v / self.epsilon).floor() as i64
    }

    fn build_side(&mut self) -> Result<()> {
        let mut right = self.right.take().expect("build called once");
        let mut table: HashMap<i64, Vec<(f32, Tuple)>> = HashMap::new();
        while let Some(t) = right.next()? {
            let key = t.value(self.right_key)?.as_float()?;
            table.entry(self.bucket(key)).or_default().push((key, t));
        }
        self.build = Some(table);
        Ok(())
    }
}

impl Operator for SimilarityJoin<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.build.is_none() {
            self.build_side()?;
        }
        loop {
            if let Some(left) = &self.pending_left {
                if self.pending_idx < self.pending.len() {
                    let joined = left.clone().join(&self.pending[self.pending_idx]);
                    self.pending_idx += 1;
                    return Ok(Some(joined));
                }
                self.pending_left = None;
            }
            let Some(left) = self.left.next()? else {
                return Ok(None);
            };
            let key = left.value(self.left_key)?.as_float()?;
            let bucket = self.bucket(key);
            let mut matches = Vec::new();
            let build = self.build.as_ref().expect("built above");
            for b in [bucket - 1, bucket, bucket + 1] {
                if let Some(entries) = build.get(&b) {
                    for (rk, rt) in entries {
                        if (key - rk).abs() <= self.epsilon {
                            matches.push(rt.clone());
                        }
                    }
                }
            }
            if matches.is_empty() {
                continue;
            }
            self.pending = matches;
            self.pending_idx = 0;
            self.pending_left = Some(left);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::id_score_schema;
    use crate::ops::{collect, MemScan};
    use crate::value::Value;

    fn rows(pairs: &[(i64, f32)]) -> Vec<Tuple> {
        pairs
            .iter()
            .map(|(i, s)| Tuple::new(vec![Value::Int(*i), Value::Float(*s)]))
            .collect()
    }

    fn run_join(left: &[(i64, f32)], right: &[(i64, f32)], eps: f32) -> Vec<(i64, i64)> {
        let l = MemScan::new(id_score_schema(), rows(left));
        let r = MemScan::new(id_score_schema(), rows(right));
        let mut j = SimilarityJoin::new(Box::new(l), Box::new(r), 1, 1, eps).unwrap();
        collect(&mut j)
            .unwrap()
            .iter()
            .map(|t| {
                (
                    t.value(0).unwrap().as_int().unwrap(),
                    t.value(2).unwrap().as_int().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_within_epsilon() {
        let out = run_join(&[(1, 1.0), (2, 5.0)], &[(10, 1.05), (20, 7.0)], 0.1);
        assert_eq!(out, vec![(1, 10)]);
    }

    #[test]
    fn boundary_is_inclusive() {
        let out = run_join(&[(1, 0.0)], &[(2, 0.5)], 0.5);
        assert_eq!(out, vec![(1, 2)]);
    }

    #[test]
    fn cross_bucket_matches_found() {
        // 0.99 and 1.01 land in different ε=0.5 buckets (1 and 2) but differ by 0.02.
        let out = run_join(&[(1, 0.99)], &[(2, 1.01)], 0.5);
        assert_eq!(out, vec![(1, 2)]);
    }

    #[test]
    fn matches_agree_with_nested_loop() {
        let left: Vec<(i64, f32)> = (0..40).map(|i| (i, (i as f32 * 0.37) % 5.0)).collect();
        let right: Vec<(i64, f32)> = (0..40)
            .map(|i| (100 + i, (i as f32 * 0.61) % 5.0))
            .collect();
        let eps = 0.15;
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for (li, lv) in &left {
            for (ri, rv) in &right {
                if (lv - rv).abs() <= eps {
                    expect.push((*li, *ri));
                }
            }
        }
        let mut got = run_join(&left, &right, eps);
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(
            !expect.is_empty(),
            "test needs some matches to be meaningful"
        );
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let l = MemScan::new(id_score_schema(), vec![]);
        let r = MemScan::new(id_score_schema(), vec![]);
        assert!(SimilarityJoin::new(Box::new(l), Box::new(r), 1, 1, 0.0).is_err());
        let l = MemScan::new(id_score_schema(), vec![]);
        let r = MemScan::new(id_score_schema(), vec![]);
        assert!(SimilarityJoin::new(Box::new(l), Box::new(r), 1, 1, f32::NAN).is_err());
    }
}
