//! Vector indexes and the inference-result cache (§5.1).
//!
//! The paper proposes leveraging the nearest-neighbor indexing of vector
//! databases *inside* the RDBMS to cache inference results: a table of
//! feature vectors (or embeddings) and their predictions, indexed so an
//! inference query can retrieve a cached result instead of running the
//! model. This crate implements the index structures from scratch:
//!
//! * [`flat::FlatIndex`] — exact linear-scan kNN, the recall oracle.
//! * [`hnsw::HnswIndex`] — hierarchical navigable small world graphs
//!   (Malkov & Yashunin), the index the §7.2.2 experiment uses.
//! * [`cache::InferenceResultCache`] — the approximate result cache itself,
//!   with hit/miss statistics and Monte-Carlo error-bound estimation for
//!   SLA-aware cache admission (§5.1).

pub mod cache;
pub mod error;
pub mod flat;
pub mod hnsw;

pub use cache::{CacheLookup, CacheStats, ErrorBoundEstimate, InferenceResultCache};
pub use error::{Error, Result};
pub use flat::FlatIndex;
pub use hnsw::{HnswIndex, HnswParams};

/// A search hit: the stored item's id and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Caller-assigned id of the stored vector.
    pub id: u64,
    /// Euclidean distance to the query.
    pub distance: f32,
}

/// Common interface over the two index structures: [`flat`], the exact
/// scan that serves as HNSW's recall oracle, and [`hnsw`].
pub trait VectorIndex {
    /// Insert a vector under `id`.
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<()>;

    /// The `k` nearest stored vectors to `query` (approximate for HNSW).
    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
