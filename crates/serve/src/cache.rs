//! Semantic inference-result cache on the serving hot path (§5.1 applied
//! to §6's online serving).
//!
//! Before a request enters the micro-batcher, [`SemanticCache::lookup`]
//! probes a per-model [`InferenceResultCache`]: an exact hit — or a
//! bounded-error near hit the request class tolerates — is answered
//! immediately, paying **no admission ticket and no kernel launch**.
//! Misses flow through the existing batcher unchanged and populate the
//! cache at demux time via [`SemanticCache::admit`].
//!
//! Three properties make the cache safe to put in front of an SLA-bearing
//! server:
//!
//! 1. **Per-class tolerance** ([`CacheTolerance`]): Interactive traffic may
//!    demand exact (distance-0) hits only, while Batch accepts near-hits as
//!    long as the *live* Monte-Carlo error upper bound stays under its
//!    configured ceiling. A near-hit whose bound is out of tolerance is
//!    refused and accounted as a miss plus a `bound_rejections` tick.
//! 2. **Governor-charged memory**: every admitted entry grows a
//!    [`Reservation`] against the session's database [`MemoryGovernor`];
//!    budget pressure evicts cold entries ([`InferenceResultCache::evict_cold`])
//!    instead of OOMing the server.
//! 3. **Live error bound**: the bound is not a one-shot estimate — every
//!    bound-rejected near-hit validates for free (the exact answer is
//!    computed anyway), and every [`CacheConfig::validate_every`]-th served
//!    near-hit is shadow-executed through the batcher. The resulting
//!    disagreement rate (p + 1.96·√(p(1−p)/n), in ppm) gates future
//!    near-hit admission.
//!
//! `RELSERVE_CACHE=off` (also `0`, `false`, `disabled`) kills the cache at
//! server spawn so the cached and uncached paths stay independently
//! testable — mirroring `RELSERVE_ISA=scalar`.

use crate::stats::ServeCounters;
use relserve_runtime::{MemoryGovernor, Priority, Reservation};
use relserve_vectoridx::{CacheLookup, HnswParams, InferenceResultCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable killing the semantic cache regardless of config.
pub const CACHE_ENV: &str = "RELSERVE_CACHE";

/// True when [`CACHE_ENV`] requests the cache off.
pub fn cache_disabled_by_env() -> bool {
    std::env::var(CACHE_ENV)
        .map(|v| cache_env_disables(&v))
        .unwrap_or(false)
}

/// Whether a [`CACHE_ENV`] value means "off" (factored out so the parsing
/// is testable without mutating the process environment).
fn cache_env_disables(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "off" | "0" | "false" | "disabled"
    )
}

/// How much approximation one request class tolerates from the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheTolerance {
    /// Never consult the cache for this class.
    Bypass,
    /// Serve only exact (distance-0) hits; near neighbors fall through.
    Exact,
    /// Serve near hits while the live Monte-Carlo error upper bound stays
    /// at or below this ceiling (a fraction in `[0, 1]`).
    Near {
        /// Maximum tolerated error upper bound.
        max_error_bound: f64,
    },
}

/// Semantic-cache tuning; part of the server's `ServeConfig`.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch; `RELSERVE_CACHE=off` overrides it to off.
    pub enabled: bool,
    /// Admission distance for near-hits (L2 over the feature vector).
    pub max_distance: f32,
    /// Tolerance per class, indexed by [`Priority::rank`]. The default is
    /// the paper's SLA split: Interactive exact, Standard and Batch
    /// approximate with tightening ceilings.
    pub per_class: [CacheTolerance; 3],
    /// Cap on live entries per model (`None` = bytes-bound only).
    pub max_entries: Option<usize>,
    /// Cap on governor-charged bytes per model.
    pub max_bytes: usize,
    /// Shadow-execute every Nth served near-hit to keep the error bound
    /// live (0 disables sampling; bound-rejected near-hits still validate
    /// for free).
    pub validate_every: u64,
    /// Validations required before the bound leaves its pessimistic
    /// 1.0 starting point and near-hits can be served at all.
    pub min_validations: u64,
    /// HNSW parameters for the per-model indexes.
    pub hnsw: HnswParams,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            max_distance: 0.05,
            per_class: [
                CacheTolerance::Exact,
                CacheTolerance::Near {
                    max_error_bound: 0.05,
                },
                CacheTolerance::Near {
                    max_error_bound: 0.20,
                },
            ],
            max_entries: None,
            max_bytes: 8 << 20,
            validate_every: 16,
            min_validations: 32,
            hnsw: HnswParams::default(),
        }
    }
}

/// Outcome of one hot-path probe.
#[derive(Debug)]
pub enum Lookup {
    /// Cache disabled for this request (class bypass, multi-row request,
    /// or cache off) — submit without probing side effects.
    Bypass,
    /// Answer immediately with these per-row predictions; no ticket, no
    /// kernel. `validate` asks the caller to *also* shadow-execute the
    /// request through the batcher (without responding again) so the error
    /// bound stays live.
    Hit {
        /// Per-row class predictions to respond with.
        predictions: Vec<u32>,
        /// True when served by a near (non-identical) neighbor.
        near: bool,
        /// True when this hit was sampled for shadow validation.
        validate: bool,
    },
    /// Fall through to the batcher. `guess` carries a rejected near-hit's
    /// prediction so the demux path can validate it for free.
    Miss {
        /// The bound-rejected prediction, if any, for free validation.
        guess: Option<u32>,
    },
}

struct ModelCache {
    cache: InferenceResultCache,
    reservation: Reservation,
}

/// The serving layer's semantic result cache: per-model
/// [`InferenceResultCache`]s, governor-charged memory, per-class tolerance
/// and a live shadow-validated error bound.
pub struct SemanticCache {
    config: CacheConfig,
    governor: MemoryGovernor,
    counters: Arc<ServeCounters>,
    models: Mutex<HashMap<String, ModelCache>>,
    /// Near-hits served since the last shadow validation was scheduled.
    near_served: AtomicU64,
}

impl SemanticCache {
    /// Build a cache charging entries against `governor` and reporting
    /// into `counters`.
    pub(crate) fn new(
        config: CacheConfig,
        governor: MemoryGovernor,
        counters: Arc<ServeCounters>,
    ) -> Self {
        SemanticCache {
            config,
            governor,
            counters,
            models: Mutex::new(HashMap::new()),
            near_served: AtomicU64::new(0),
        }
    }

    /// The live Monte-Carlo error upper bound, in parts per million.
    pub fn error_bound_ppm(&self) -> u64 {
        self.counters.cache.error_bound_ppm.load(Ordering::Relaxed)
    }

    /// Whether near-hits are currently admissible under `ceiling`.
    fn near_admissible(&self, ceiling: f64) -> bool {
        self.error_bound_ppm() as f64 <= ceiling * 1_000_000.0
    }

    /// Hot-path probe: called by the batcher on submission, before any
    /// buffering or admission. Single-row requests only — a multi-row
    /// request would need per-row partial-hit assembly, which costs more
    /// than the fused batch it displaces.
    pub(crate) fn lookup(
        &self,
        model: &str,
        class: Priority,
        rows: usize,
        width: usize,
        data: &[f32],
    ) -> Lookup {
        if rows != 1 {
            return Lookup::Bypass;
        }
        let tolerance = self.config.per_class[class.rank()];
        let accept_near = match tolerance {
            CacheTolerance::Bypass => return Lookup::Bypass,
            CacheTolerance::Exact => false,
            CacheTolerance::Near { max_error_bound } => self.near_admissible(max_error_bound),
        };
        let mut models = self.models.lock().expect("semantic cache poisoned");
        let entry = match models.get_mut(model) {
            Some(entry) if entry.cache.dim() == width => entry,
            // Unknown model or mismatched width: the miss will populate it.
            _ => {
                self.counters.cache.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss { guess: None };
            }
        };
        let outcome = match entry.cache.lookup_policied(data, accept_near) {
            Ok(outcome) => outcome,
            Err(_) => return Lookup::Bypass,
        };
        match outcome {
            CacheLookup::ExactHit { prediction } => {
                self.counters.cache.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit {
                    predictions: vec![prediction.first().copied().unwrap_or(0.0) as u32],
                    near: false,
                    validate: false,
                }
            }
            CacheLookup::NearHit { prediction, .. } => {
                self.counters.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .cache
                    .near_hits
                    .fetch_add(1, Ordering::Relaxed);
                let validate = self.config.validate_every > 0
                    && self
                        .near_served
                        .fetch_add(1, Ordering::Relaxed)
                        .is_multiple_of(self.config.validate_every);
                Lookup::Hit {
                    predictions: vec![prediction.first().copied().unwrap_or(0.0) as u32],
                    near: true,
                    validate,
                }
            }
            CacheLookup::BoundRejected { prediction, .. } => {
                self.counters.cache.misses.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .cache
                    .bound_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Lookup::Miss {
                    guess: Some(prediction.first().copied().unwrap_or(0.0) as u32),
                }
            }
            CacheLookup::Miss => {
                self.counters.cache.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss { guess: None }
            }
        }
    }

    /// Demux-path population: admit one request's `(row → prediction)`
    /// pairs, charging the governor and evicting cold entries under budget
    /// pressure instead of failing.
    pub(crate) fn admit(
        &self,
        model: &str,
        width: usize,
        rows: usize,
        data: &[f32],
        preds: &[u32],
    ) {
        if rows == 0 || preds.len() != rows || data.len() != rows * width {
            return;
        }
        let mut models = self.models.lock().expect("semantic cache poisoned");
        let entry = match models.get_mut(model) {
            Some(entry) => {
                if entry.cache.dim() != width {
                    return;
                }
                entry
            }
            None => {
                let cache = match InferenceResultCache::new(
                    width,
                    self.config.max_distance,
                    self.config.hnsw,
                ) {
                    Ok(cache) => {
                        cache.with_capacity(self.config.max_entries, Some(self.config.max_bytes))
                    }
                    Err(_) => return,
                };
                let reservation = match self.governor.reserve(0) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                models
                    .entry(model.to_string())
                    .or_insert(ModelCache { cache, reservation })
            }
        };
        for (row, &pred) in data.chunks_exact(width).zip(preds.iter()) {
            let _ = entry.cache.insert(row, vec![pred as f32]);
        }
        Self::sync_reservation(entry);
        self.refresh_totals(&models);
    }

    /// Grow/shrink the governor reservation to the cache's accounted bytes;
    /// on OOM, evict cold entries and retry until it fits (terminates: an
    /// empty cache needs zero bytes).
    fn sync_reservation(entry: &mut ModelCache) {
        loop {
            let want = entry.cache.bytes();
            let held = entry.reservation.bytes();
            if want <= held {
                entry.reservation.shrink(held - want);
                return;
            }
            if entry.reservation.grow(want - held).is_ok() {
                return;
            }
            // Budget pressure: reclaim the cold eighth (at least one entry)
            // and try again — the cache shrinks, never the server.
            let n = (entry.cache.len() / 8).max(1);
            if entry.cache.evict_cold(n) == 0 {
                // Nothing left to evict; give up holding what we have.
                return;
            }
        }
    }

    /// Record one shadow-validation outcome (cached/rejected `guess`
    /// against the `exact` prediction the batcher just computed) and
    /// refresh the live error bound.
    pub(crate) fn record_validation(&self, guess: u32, exact: u32) {
        let n = self
            .counters
            .cache
            .validations
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        let d = if guess != exact {
            self.counters
                .cache
                .disagreements
                .fetch_add(1, Ordering::Relaxed)
                + 1
        } else {
            self.counters.cache.disagreements.load(Ordering::Relaxed)
        };
        let ppm = if n < self.config.min_validations {
            1_000_000
        } else {
            let p = d as f64 / n as f64;
            let half = 1.96 * (p * (1.0 - p) / n as f64).sqrt();
            ((p + half).min(1.0) * 1_000_000.0) as u64
        };
        self.counters
            .cache
            .error_bound_ppm
            .store(ppm, Ordering::Relaxed);
    }

    /// Mirror the per-model caches' cumulative insertion/eviction ledgers
    /// and byte gauges into the serve counters (store, not add: the
    /// vectoridx stats are already cumulative). Callers hold the `models`
    /// lock; the map is a handful of models at most.
    fn refresh_totals(&self, models: &HashMap<String, ModelCache>) {
        let (mut ins, mut ev, mut bytes) = (0u64, 0u64, 0u64);
        for m in models.values() {
            let s = m.cache.stats();
            ins += s.insertions;
            ev += s.evictions;
            bytes += m.cache.bytes() as u64;
        }
        self.counters.cache.insertions.store(ins, Ordering::Relaxed);
        self.counters.cache.evictions.store(ev, Ordering::Relaxed);
        self.counters.cache.bytes.store(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cache(config: CacheConfig, budget: usize) -> SemanticCache {
        SemanticCache::new(
            config,
            MemoryGovernor::with_budget("cache-test", budget),
            Arc::new(ServeCounters::default()),
        )
    }

    fn row(v: f32, width: usize) -> Vec<f32> {
        let mut out = vec![0.0; width];
        out[0] = v;
        out
    }

    #[test]
    fn env_value_parsing() {
        for v in ["off", "OFF", " 0 ", "false", "Disabled"] {
            assert!(cache_env_disables(v), "{v:?} must disable");
        }
        for v in ["on", "1", "", "yes"] {
            assert!(!cache_env_disables(v), "{v:?} must not disable");
        }
    }

    #[test]
    fn exact_hit_after_admit() {
        let cache = test_cache(CacheConfig::default(), 64 << 20);
        let data = row(1.0, 4);
        assert!(matches!(
            cache.lookup("m", Priority::Interactive, 1, 4, &data),
            Lookup::Miss { guess: None }
        ));
        cache.admit("m", 4, 1, &data, &[3]);
        match cache.lookup("m", Priority::Interactive, 1, 4, &data) {
            Lookup::Hit {
                predictions,
                near,
                validate,
            } => {
                assert_eq!(predictions, vec![3]);
                assert!(!near && !validate);
            }
            other => panic!("expected exact hit, got {other:?}"),
        }
        let snap = cache.counters.snapshot();
        assert_eq!((snap.cache.hits, snap.cache.misses), (1, 1));
    }

    #[test]
    fn multi_row_requests_bypass() {
        let cache = test_cache(CacheConfig::default(), 64 << 20);
        let data = [row(1.0, 2), row(2.0, 2)].concat();
        assert!(matches!(
            cache.lookup("m", Priority::Batch, 2, 2, &data),
            Lookup::Bypass
        ));
        // A bypass is invisible in the ledgers.
        assert_eq!(cache.counters.snapshot().cache.misses, 0);
    }

    #[test]
    fn near_hit_gated_by_live_bound() {
        let mut config = CacheConfig {
            min_validations: 4,
            ..CacheConfig::default()
        };
        config.max_distance = 1.0;
        config.per_class[Priority::Batch.rank()] = CacheTolerance::Near {
            max_error_bound: 0.5,
        };
        let cache = test_cache(config, 64 << 20);
        cache.admit("m", 2, 1, &row(0.0, 2), &[1]);
        let near = row(0.3, 2);
        // No validations yet → bound is 1.0 → near-hit refused, but the
        // rejected guess comes back for free validation.
        match cache.lookup("m", Priority::Batch, 1, 2, &near) {
            Lookup::Miss { guess: Some(1) } => {}
            other => panic!("expected bound-rejected miss, got {other:?}"),
        }
        let snap = cache.counters.snapshot();
        assert_eq!(snap.cache.bound_rejections, 1);
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.hits, 0, "a rejected near-hit is not a hit");
        // Agreeing validations drive the bound to 0 → near-hits admissible.
        for _ in 0..4 {
            cache.record_validation(1, 1);
        }
        assert_eq!(cache.error_bound_ppm(), 0);
        match cache.lookup("m", Priority::Batch, 1, 2, &near) {
            Lookup::Hit { near: true, .. } => {}
            other => panic!("expected near hit, got {other:?}"),
        }
        // Disagreements push the bound back over the ceiling.
        for _ in 0..8 {
            cache.record_validation(0, 1);
        }
        assert!(cache.error_bound_ppm() > 500_000);
        match cache.lookup("m", Priority::Batch, 1, 2, &near) {
            Lookup::Miss { guess: Some(_) } => {}
            other => panic!("expected re-rejection, got {other:?}"),
        }
    }

    #[test]
    fn interactive_exact_never_serves_near() {
        let config = CacheConfig {
            max_distance: 1.0,
            ..CacheConfig::default()
        };
        let cache = test_cache(config, 64 << 20);
        cache.admit("m", 2, 1, &row(0.0, 2), &[1]);
        for _ in 0..64 {
            cache.record_validation(1, 1); // perfect bound
        }
        match cache.lookup("m", Priority::Interactive, 1, 2, &row(0.2, 2)) {
            Lookup::Miss { guess: Some(1) } => {}
            other => panic!("expected exact-only rejection, got {other:?}"),
        }
        assert!(matches!(
            cache.lookup("m", Priority::Interactive, 1, 2, &row(0.0, 2)),
            Lookup::Hit { near: false, .. }
        ));
    }

    #[test]
    fn governor_pressure_evicts_instead_of_growing() {
        let config = CacheConfig {
            max_bytes: 64 << 20, // cache's own cap is loose; governor is tight
            ..CacheConfig::default()
        };
        let probe = InferenceResultCache::with_defaults(8, 0.05);
        let cost = probe.entry_cost(1);
        // Budget fits ~6 entries.
        let cache = test_cache(config, 6 * cost + cost / 2);
        for i in 0..40 {
            cache.admit("m", 8, 1, &row(i as f32, 8), &[i as u32]);
        }
        let models = cache.models.lock().unwrap();
        let m = &models["m"];
        assert!(m.cache.len() <= 6, "governor must bound the cache");
        assert!(m.reservation.bytes() == m.cache.bytes());
        assert!(m.cache.stats().evictions > 0);
        drop(models);
        // The governor never OOM'd the server — admission just evicted.
        assert!(cache.governor.in_use() <= cache.governor.budget());
    }

    #[test]
    fn totals_mirror_across_models() {
        let cache = test_cache(CacheConfig::default(), 64 << 20);
        cache.admit("a", 2, 1, &row(1.0, 2), &[0]);
        cache.admit("b", 3, 1, &row(2.0, 3), &[1]);
        let models = cache.models.lock().unwrap();
        cache.refresh_totals(&models);
        drop(models);
        let snap = cache.counters.snapshot();
        assert_eq!(snap.cache.insertions, 2);
        assert!(snap.cache.bytes > 0);
    }

    #[test]
    fn width_mismatch_is_a_plain_miss() {
        let cache = test_cache(CacheConfig::default(), 64 << 20);
        cache.admit("m", 4, 1, &row(1.0, 4), &[2]);
        // Same model probed at a different width cannot consult the index.
        assert!(matches!(
            cache.lookup("m", Priority::Interactive, 1, 8, &row(1.0, 8)),
            Lookup::Miss { guess: None }
        ));
        // And admit at the mismatched width is dropped, not corrupting.
        cache.admit("m", 8, 1, &row(1.0, 8), &[2]);
        let models = cache.models.lock().unwrap();
        assert_eq!(models["m"].cache.dim(), 4);
    }
}
