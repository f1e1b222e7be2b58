//! The approximate inference-result cache (§5.1, validated in §7.2.2).
//!
//! A table of `(feature vector, prediction)` pairs under a nearest-neighbor
//! index. A lookup searches the index; if the nearest cached features are
//! within the admission distance, the cached prediction is returned without
//! running the model — trading accuracy for latency exactly as the paper's
//! experiments show (10.3× / 7.3× speedups against a few points of accuracy).
//!
//! Cache admission is SLA-aware twice over:
//!
//! * [`InferenceResultCache::estimate_error_bound`] runs the Monte-Carlo
//!   estimation the paper proposes — sample cached lookups, compare against
//!   exact inference, and report the disagreement rate with a confidence
//!   interval — so a caller can refuse to serve a query from the cache when
//!   the bound exceeds the application's tolerance.
//! * [`InferenceResultCache::lookup_policied`] lets the caller reject a
//!   near-hit whose error bound is out of tolerance *without* corrupting the
//!   ledgers: a rejected near-hit counts as a **miss** plus a distinct
//!   [`CacheStats::bound_rejections`] tick, never as a hit.
//!
//! The cache is bounded: [`InferenceResultCache::set_capacity`] caps entries
//! and bytes, and [`InferenceResultCache::evict_cold`] /
//! [`InferenceResultCache::evict_to_free`] reclaim the least-recently-used
//! entries on demand (serving layers call these under memory-governor
//! pressure instead of letting the cache grow without bound). Evicted HNSW
//! nodes are tombstoned and the index is compacted once tombstones outnumber
//! live entries, keeping lookup cost proportional to the live set.

use crate::error::Result;
use crate::hnsw::{HnswIndex, HnswParams};
use crate::{Neighbor, VectorIndex};

/// Cache hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (exact and near hits).
    pub hits: u64,
    /// Subset of [`hits`](Self::hits) answered by a *near* neighbor
    /// (distance > 0) rather than a bit-identical key.
    pub near_hits: u64,
    /// Lookups that fell through to the model (including rejected
    /// near-hits — see [`bound_rejections`](Self::bound_rejections)).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted (capacity pressure or explicit eviction calls).
    pub evictions: u64,
    /// Near-hits the caller's tolerance/error-bound policy rejected. Each
    /// one is *also* counted in [`misses`](Self::misses): a rejected
    /// near-hit runs the model, so reporting it as a hit would overstate
    /// the cache's usefulness.
    pub bound_rejections: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Monte-Carlo estimate of the cache's prediction error (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBoundEstimate {
    /// Fraction of sampled hits whose cached prediction disagreed with
    /// exact inference.
    pub error_rate: f64,
    /// Half-width of the 95 % normal-approximation confidence interval.
    pub half_width_95: f64,
    /// Number of samples the estimate is based on.
    pub samples: usize,
}

impl ErrorBoundEstimate {
    /// Conservative upper bound: estimate plus the interval half-width.
    pub fn upper_bound(&self) -> f64 {
        (self.error_rate + self.half_width_95).min(1.0)
    }
}

/// One policy-aware lookup outcome; see
/// [`InferenceResultCache::lookup_policied`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A bit-identical cached key (distance 0) answered the lookup.
    ExactHit {
        /// The cached prediction.
        prediction: Vec<f32>,
    },
    /// A near neighbor within the admission distance answered the lookup
    /// (the caller's policy accepted approximate answers).
    NearHit {
        /// The cached prediction.
        prediction: Vec<f32>,
        /// Distance from the query to the serving key.
        distance: f32,
    },
    /// A near neighbor was within the admission distance but the caller's
    /// tolerance rejected it: counted as a miss + one `bound_rejections`
    /// tick. Carries the rejected guess so the caller can validate it
    /// against the exact result it is about to compute.
    BoundRejected {
        /// The prediction the cache *would* have served.
        prediction: Vec<f32>,
        /// Distance from the query to the rejected key.
        distance: f32,
    },
    /// No live cached key within the admission distance.
    Miss,
}

/// One cached `(key → prediction)` pair plus its bookkeeping.
struct Entry {
    key: Vec<f32>,
    prediction: Vec<f32>,
    /// Accounted bytes of this entry (see [`InferenceResultCache::entry_cost`]).
    bytes: usize,
    /// Logical recency tick of the last lookup that served this entry (or
    /// its insertion).
    last_used: u64,
    /// False once evicted; the HNSW node stays as a tombstoned waypoint
    /// until the next compaction.
    live: bool,
}

/// How many nearest neighbors a lookup probes so tombstoned (evicted) nodes
/// can be skipped. Compaction keeps tombstones below half the node count,
/// so 8 probes make missing a live in-range neighbor vanishingly unlikely.
const LOOKUP_PROBES: usize = 8;

/// An approximate inference-result cache over an HNSW index.
pub struct InferenceResultCache {
    index: HnswIndex,
    /// Entry slab, parallel to HNSW ids (id = position, including dead).
    entries: Vec<Entry>,
    /// Live entry count (`entries` also holds tombstones).
    live: usize,
    /// Accounted bytes across live entries.
    bytes: usize,
    /// Admission distance: a hit requires NN distance ≤ this.
    max_distance: f32,
    /// Live-entry cap (`None` = uncapped).
    max_entries: Option<usize>,
    /// Accounted-byte cap (`None` = uncapped).
    max_bytes: Option<usize>,
    /// Monotonic recency clock.
    tick: u64,
    dim: usize,
    params: HnswParams,
    stats: CacheStats,
}

impl InferenceResultCache {
    /// A cache for `dim`-dimensional feature keys with the given admission
    /// distance.
    pub fn new(dim: usize, max_distance: f32, params: HnswParams) -> Result<Self> {
        Ok(InferenceResultCache {
            index: HnswIndex::new(dim, params)?,
            entries: Vec::new(),
            live: 0,
            bytes: 0,
            max_distance,
            max_entries: None,
            max_bytes: None,
            tick: 0,
            dim,
            params,
            stats: CacheStats::default(),
        })
    }

    /// A cache with default HNSW parameters.
    pub fn with_defaults(dim: usize, max_distance: f32) -> Self {
        Self::new(dim, max_distance, HnswParams::default()).expect("default params valid")
    }

    /// The admission distance.
    pub fn max_distance(&self) -> f32 {
        self.max_distance
    }

    /// Change the admission distance (SLA renegotiation).
    pub fn set_max_distance(&mut self, d: f32) {
        self.max_distance = d;
    }

    /// The key dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cap the cache at `max_entries` live entries and/or `max_bytes`
    /// accounted bytes; inserts past a cap evict the least-recently-used
    /// entries first. Shrinking a cap evicts immediately.
    fn set_capacity(&mut self, max_entries: Option<usize>, max_bytes: Option<usize>) {
        self.max_entries = max_entries;
        self.max_bytes = max_bytes;
        if let Some(cap) = max_entries {
            if self.live > cap {
                self.evict_cold(self.live - cap);
            }
        }
        if let Some(cap) = max_bytes {
            if self.bytes > cap {
                self.evict_to_free(self.bytes - cap);
            }
        }
    }

    /// Builder form of [`set_capacity`](Self::set_capacity).
    pub fn with_capacity(mut self, max_entries: Option<usize>, max_bytes: Option<usize>) -> Self {
        self.set_capacity(max_entries, max_bytes);
        self
    }

    /// Number of live cached entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Accounted bytes across live entries (keys, predictions and the
    /// estimated per-node index overhead — the number a memory governor
    /// should be charged).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accounted cost of one entry whose prediction holds `pred_len`
    /// values: the key is stored twice (entry + HNSW node vector), plus the
    /// prediction, plus the node's expected adjacency (level 0 allows `2m`
    /// links) and slab/struct overhead.
    pub fn entry_cost(&self, pred_len: usize) -> usize {
        (2 * self.dim + pred_len) * 4 + 2 * self.params.m * 8 + 96
    }

    /// Insert a `(features → prediction)` pair, evicting cold entries first
    /// when a capacity cap would be exceeded. Returns `false` (without
    /// inserting) only when the entry can never fit — a byte cap smaller
    /// than the entry itself, or a zero entry cap.
    ///
    /// A bit-identical live key is *replaced* in place (refreshing its
    /// recency) instead of inserting a duplicate node.
    pub fn insert(&mut self, features: &[f32], prediction: Vec<f32>) -> Result<bool> {
        // Replace-in-place for an exact duplicate key: repeated misses of a
        // hot key (e.g. while a tolerance gate rejects its near-hits) must
        // not grow the index.
        if let Some((id, distance)) = self.probe_live(features)? {
            if distance == 0.0 {
                let cost = self.entry_cost(prediction.len());
                let entry = &mut self.entries[id];
                self.bytes = self.bytes - entry.bytes + cost;
                entry.bytes = cost;
                entry.prediction = prediction;
                self.tick += 1;
                entry.last_used = self.tick;
                return Ok(true);
            }
        }
        let cost = self.entry_cost(prediction.len());
        if self.max_entries == Some(0) || self.max_bytes.is_some_and(|cap| cost > cap) {
            return Ok(false);
        }
        if let Some(cap) = self.max_entries {
            if self.live + 1 > cap {
                self.evict_cold(self.live + 1 - cap);
            }
        }
        if let Some(cap) = self.max_bytes {
            if self.bytes + cost > cap {
                self.evict_to_free(self.bytes + cost - cap);
            }
        }
        let id = self.entries.len() as u64;
        self.index.insert(id, features)?;
        self.tick += 1;
        self.entries.push(Entry {
            key: features.to_vec(),
            prediction,
            bytes: cost,
            last_used: self.tick,
            live: true,
        });
        self.live += 1;
        self.bytes += cost;
        self.stats.insertions += 1;
        Ok(true)
    }

    /// Look up a prediction; `Some` only when the nearest live cached key
    /// is within the admission distance.
    pub fn lookup(&mut self, features: &[f32]) -> Result<Option<&[f32]>> {
        match self.probe_live(features)? {
            Some((id, distance)) => {
                self.tick += 1;
                self.entries[id].last_used = self.tick;
                self.stats.hits += 1;
                if distance > 0.0 {
                    self.stats.near_hits += 1;
                }
                Ok(Some(self.entries[id].prediction.as_slice()))
            }
            None => {
                self.stats.misses += 1;
                Ok(None)
            }
        }
    }

    /// Policy-aware lookup: an exact (distance-0) hit always serves; a near
    /// hit serves only when `accept_near` is true. A rejected near-hit is
    /// accounted as a miss plus one [`CacheStats::bound_rejections`] tick
    /// and returns the rejected guess so the caller can validate it against
    /// the exact inference it now has to run.
    pub fn lookup_policied(&mut self, features: &[f32], accept_near: bool) -> Result<CacheLookup> {
        let nearest = self.probe_live(features)?;
        self.tick += 1;
        match nearest {
            Some((id, 0.0)) => {
                self.entries[id].last_used = self.tick;
                self.stats.hits += 1;
                Ok(CacheLookup::ExactHit {
                    prediction: self.entries[id].prediction.clone(),
                })
            }
            Some((id, distance)) if accept_near => {
                self.entries[id].last_used = self.tick;
                self.stats.hits += 1;
                self.stats.near_hits += 1;
                Ok(CacheLookup::NearHit {
                    prediction: self.entries[id].prediction.clone(),
                    distance,
                })
            }
            Some((id, distance)) => {
                self.stats.misses += 1;
                self.stats.bound_rejections += 1;
                Ok(CacheLookup::BoundRejected {
                    prediction: self.entries[id].prediction.clone(),
                    distance,
                })
            }
            None => {
                self.stats.misses += 1;
                Ok(CacheLookup::Miss)
            }
        }
    }

    /// Like [`lookup`](Self::lookup) but without touching statistics or
    /// recency; returns the hit id and distance.
    pub fn peek(&self, features: &[f32]) -> Result<Option<(u64, f32)>> {
        Ok(self.probe_live(features)?.map(|(id, d)| (id as u64, d)))
    }

    /// Nearest *live* neighbor within the admission distance, skipping
    /// tombstoned nodes. No stats, no recency updates.
    fn probe_live(&self, features: &[f32]) -> Result<Option<(usize, f32)>> {
        if self.live == 0 {
            return Ok(None);
        }
        let hits = self.index.search(features, LOOKUP_PROBES)?;
        Ok(hits
            .iter()
            .find(|Neighbor { id, .. }| self.entries[*id as usize].live)
            .filter(|Neighbor { distance, .. }| *distance <= self.max_distance)
            .map(|Neighbor { id, distance }| (*id as usize, *distance)))
    }

    /// Evict the `n` least-recently-used live entries; returns the bytes
    /// freed. The index compacts itself once tombstones outnumber live
    /// entries.
    pub fn evict_cold(&mut self, n: usize) -> usize {
        if n == 0 || self.live == 0 {
            return 0;
        }
        let mut order: Vec<(u64, usize)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.live)
            .map(|(i, e)| (e.last_used, i))
            .collect();
        order.sort_unstable();
        let mut freed = 0usize;
        for &(_, i) in order.iter().take(n) {
            let entry = &mut self.entries[i];
            entry.live = false;
            freed += entry.bytes;
            self.bytes -= entry.bytes;
            self.live -= 1;
            self.stats.evictions += 1;
        }
        self.maybe_compact();
        freed
    }

    /// Evict least-recently-used entries until at least `bytes` of
    /// accounted memory have been reclaimed (or the cache is empty);
    /// returns the bytes actually freed.
    fn evict_to_free(&mut self, bytes: usize) -> usize {
        let mut freed = 0usize;
        while freed < bytes && self.live > 0 {
            // Evict in chunks so one deep deficit doesn't re-sort per entry.
            let chunk = ((bytes - freed) / self.entry_cost(1).max(1)).clamp(1, self.live);
            freed += self.evict_cold(chunk);
        }
        freed
    }

    /// Drop every entry (stats are kept; evictions are counted).
    pub fn clear(&mut self) {
        let n = self.live;
        if n > 0 {
            self.evict_cold(n);
        }
    }

    /// Rebuild the index without tombstones once they outnumber live
    /// entries, so search cost tracks the live set, not the insert history.
    fn maybe_compact(&mut self) {
        let dead = self.entries.len() - self.live;
        if dead <= self.live || dead == 0 {
            return;
        }
        let mut index = HnswIndex::new(self.dim, self.params).expect("params were valid at build");
        let mut entries = Vec::with_capacity(self.live);
        for entry in self.entries.drain(..).filter(|e| e.live) {
            index
                .insert(entries.len() as u64, &entry.key)
                .expect("re-inserting validated keys");
            entries.push(entry);
        }
        self.index = index;
        self.entries = entries;
    }

    /// Iterate the live `(key, prediction)` pairs (insertion order, with
    /// evicted entries skipped).
    fn iter_live(&self) -> impl Iterator<Item = (&[f32], &[f32])> {
        self.entries
            .iter()
            .filter(|e| e.live)
            .map(|e| (e.key.as_slice(), e.prediction.as_slice()))
    }

    /// Monte-Carlo error-bound estimation: perturb up to `samples` cached
    /// keys by `perturbation`, answer each from the cache, compare the
    /// cached argmax against `exact(features)`, and report the disagreement
    /// rate with a 95 % normal-approximation confidence interval.
    pub fn estimate_error_bound(
        &self,
        samples: usize,
        perturbation: f32,
        mut exact: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> Result<ErrorBoundEstimate> {
        let keys: Vec<&[f32]> = self.iter_live().map(|(k, _)| k).collect();
        let n = samples.min(keys.len());
        if n == 0 {
            return Ok(ErrorBoundEstimate {
                error_rate: 1.0,
                half_width_95: 0.0,
                samples: 0,
            });
        }
        let argmax = |v: &[f32]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let mut disagreements = 0usize;
        // Deterministic stratified sampling over the live keys.
        let stride = (keys.len() / n).max(1);
        let mut used = 0usize;
        for key in keys.iter().step_by(stride).take(n) {
            let mut q = key.to_vec();
            // Deterministic perturbation pattern (alternating signs).
            for (j, x) in q.iter_mut().enumerate() {
                *x += if j % 2 == 0 {
                    perturbation
                } else {
                    -perturbation
                };
            }
            let cached = match self.probe_live(&q)? {
                Some((id, _)) => argmax(&self.entries[id].prediction),
                None => continue, // a miss runs the model: never wrong
            };
            let truth = argmax(&exact(&q));
            if cached != truth {
                disagreements += 1;
            }
            used += 1;
        }
        if used == 0 {
            return Ok(ErrorBoundEstimate {
                error_rate: 0.0,
                half_width_95: 0.0,
                samples: 0,
            });
        }
        let p = disagreements as f64 / used as f64;
        let half = 1.96 * (p * (1.0 - p) / used as f64).sqrt();
        Ok(ErrorBoundEstimate {
            error_rate: p,
            half_width_95: half,
            samples: used,
        })
    }
}

impl std::fmt::Debug for InferenceResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceResultCache")
            .field("entries", &self.live)
            .field("bytes", &self.bytes)
            .field("max_distance", &self.max_distance)
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_threshold_miss_outside() {
        let mut cache = InferenceResultCache::with_defaults(2, 0.1);
        cache.insert(&[0.0, 0.0], vec![0.9, 0.1]).unwrap();
        // Within 0.1 → hit.
        let hit = cache.lookup(&[0.05, 0.0]).unwrap();
        assert_eq!(hit, Some(&[0.9f32, 0.1][..]));
        // Far away → miss.
        assert!(cache.lookup(&[5.0, 5.0]).unwrap().is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.near_hits, 1, "distance 0.05 is a near hit");
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exact_key_always_hits() {
        let mut cache = InferenceResultCache::with_defaults(4, 1e-6);
        for i in 0..50 {
            let v = [i as f32, 0.0, 0.0, 0.0];
            cache.insert(&v, vec![i as f32]).unwrap();
        }
        for i in 0..50 {
            let v = [i as f32, 0.0, 0.0, 0.0];
            assert_eq!(cache.lookup(&v).unwrap(), Some(&[i as f32][..]));
        }
        assert_eq!(cache.stats().near_hits, 0, "identical keys are exact hits");
    }

    #[test]
    fn threshold_is_adjustable() {
        let mut cache = InferenceResultCache::with_defaults(1, 0.0);
        cache.insert(&[0.0], vec![1.0]).unwrap();
        assert!(cache.lookup(&[0.5]).unwrap().is_none());
        cache.set_max_distance(1.0);
        assert!(cache.lookup(&[0.5]).unwrap().is_some());
    }

    #[test]
    fn policied_lookup_counts_rejected_near_hit_as_miss() {
        let mut cache = InferenceResultCache::with_defaults(2, 1.0);
        cache.insert(&[0.0, 0.0], vec![0.25]).unwrap();
        // Exact hits serve regardless of the near policy.
        match cache.lookup_policied(&[0.0, 0.0], false).unwrap() {
            CacheLookup::ExactHit { prediction } => assert_eq!(prediction, vec![0.25]),
            other => panic!("expected exact hit, got {other:?}"),
        }
        // A near-hit under a rejecting policy is a miss + bound rejection,
        // and carries the rejected guess for validation.
        match cache.lookup_policied(&[0.5, 0.0], false).unwrap() {
            CacheLookup::BoundRejected {
                prediction,
                distance,
            } => {
                assert_eq!(prediction, vec![0.25]);
                assert!((distance - 0.5).abs() < 1e-6);
            }
            other => panic!("expected bound rejection, got {other:?}"),
        }
        // The same lookup under an accepting policy is a near hit.
        match cache.lookup_policied(&[0.5, 0.0], true).unwrap() {
            CacheLookup::NearHit { .. } => {}
            other => panic!("expected near hit, got {other:?}"),
        }
        // Nothing nearby at all is a plain miss.
        assert_eq!(
            cache.lookup_policied(&[9.0, 9.0], true).unwrap(),
            CacheLookup::Miss
        );
        let s = cache.stats();
        assert_eq!(s.hits, 2, "exact hit + accepted near hit");
        assert_eq!(s.near_hits, 1);
        assert_eq!(s.misses, 2, "rejected near-hit + plain miss");
        assert_eq!(s.bound_rejections, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = InferenceResultCache::with_defaults(1, 0.01).with_capacity(Some(3), None);
        for i in 0..3 {
            cache.insert(&[i as f32], vec![i as f32]).unwrap();
        }
        // Touch 0 and 2 so 1 is the coldest.
        assert!(cache.lookup(&[0.0]).unwrap().is_some());
        assert!(cache.lookup(&[2.0]).unwrap().is_some());
        assert!(cache.insert(&[3.0], vec![3.0]).unwrap());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&[1.0]).unwrap().is_none(), "1 was evicted");
        for k in [0.0f32, 2.0, 3.0] {
            assert!(cache.lookup(&[k]).unwrap().is_some(), "{k} must survive");
        }
    }

    #[test]
    fn byte_cap_bounds_accounted_bytes() {
        let mut cache = InferenceResultCache::with_defaults(4, 0.01);
        let cost = cache.entry_cost(1);
        cache.set_capacity(None, Some(3 * cost));
        for i in 0..10 {
            assert!(cache.insert(&[i as f32, 0.0, 0.0, 0.0], vec![0.0]).unwrap());
            assert!(
                cache.bytes() <= 3 * cost,
                "bytes within cap after insert {i}"
            );
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 7);
        // An entry that can never fit is rejected, not force-inserted.
        cache.set_capacity(None, Some(cost / 2));
        assert!(!cache.insert(&[99.0, 0.0, 0.0, 0.0], vec![0.0]).unwrap());
    }

    #[test]
    fn eviction_tombstones_then_compacts() {
        let mut cache = InferenceResultCache::with_defaults(1, 0.01);
        for i in 0..16 {
            cache.insert(&[i as f32], vec![i as f32]).unwrap();
        }
        let freed = cache.evict_cold(12);
        assert!(freed > 0);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 12);
        // Survivors (the most recently inserted) still resolve exactly.
        for i in 12..16 {
            assert_eq!(
                cache.lookup(&[i as f32]).unwrap(),
                Some(&[i as f32][..]),
                "entry {i} must survive compaction"
            );
        }
        // Evicted keys are gone even though their nodes were tombstoned.
        for i in 0..12 {
            assert!(cache.lookup(&[i as f32]).unwrap().is_none());
        }
    }

    #[test]
    fn duplicate_key_replaces_in_place() {
        let mut cache = InferenceResultCache::with_defaults(1, 0.5);
        cache.insert(&[1.0], vec![0.1]).unwrap();
        cache.insert(&[1.0], vec![0.2]).unwrap();
        assert_eq!(cache.len(), 1, "exact re-insert must not duplicate");
        assert_eq!(cache.lookup(&[1.0]).unwrap(), Some(&[0.2f32][..]));
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn evict_to_free_reclaims_requested_bytes() {
        let mut cache = InferenceResultCache::with_defaults(2, 0.01);
        for i in 0..20 {
            cache.insert(&[i as f32, 0.0], vec![0.0]).unwrap();
        }
        let before = cache.bytes();
        let want = 5 * cache.entry_cost(1);
        let freed = cache.evict_to_free(want);
        assert!(freed >= want, "freed {freed} < requested {want}");
        assert_eq!(cache.bytes(), before - freed);
    }

    #[test]
    fn error_bound_zero_when_cache_agrees() {
        let mut cache = InferenceResultCache::with_defaults(2, 10.0);
        // All cached predictions say class 0, exact inference also says 0.
        for i in 0..20 {
            cache.insert(&[i as f32, 0.0], vec![1.0, 0.0]).unwrap();
        }
        let bound = cache
            .estimate_error_bound(10, 0.01, |_| vec![1.0, 0.0])
            .unwrap();
        assert_eq!(bound.error_rate, 0.0);
        assert!(bound.samples > 0);
        assert_eq!(bound.upper_bound(), 0.0);
    }

    #[test]
    fn error_bound_one_when_cache_always_wrong() {
        let mut cache = InferenceResultCache::with_defaults(2, 10.0);
        for i in 0..20 {
            cache.insert(&[i as f32, 0.0], vec![1.0, 0.0]).unwrap();
        }
        let bound = cache
            .estimate_error_bound(10, 0.01, |_| vec![0.0, 1.0])
            .unwrap();
        assert_eq!(bound.error_rate, 1.0);
        assert!(bound.upper_bound() <= 1.0);
    }

    #[test]
    fn empty_cache_reports_max_error() {
        let cache = InferenceResultCache::with_defaults(2, 1.0);
        let bound = cache.estimate_error_bound(10, 0.01, |_| vec![1.0]).unwrap();
        assert_eq!(bound.error_rate, 1.0);
        assert_eq!(bound.samples, 0);
    }

    #[test]
    fn peek_does_not_mutate_stats() {
        let mut cache = InferenceResultCache::with_defaults(1, 1.0);
        cache.insert(&[0.0], vec![1.0]).unwrap();
        cache.peek(&[0.1]).unwrap();
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
    }
}
