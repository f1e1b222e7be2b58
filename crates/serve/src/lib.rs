//! Network serving frontend for relserve (EDBT '24 §6, "serving deep
//! learning models from relational databases" as an online service).
//!
//! A std-only TCP server speaking a length-prefixed binary protocol
//! ([`wire`]), feeding decoded requests into a dynamic micro-batcher that
//! coalesces compatible requests (same model, class and feature width)
//! into fused batches. A fused batch pays for admission, planning and
//! kernel launch once via [`relserve_core::InferenceSession::infer_fused`],
//! and per-request predictions are demultiplexed back to their
//! connections. Requests carry a priority class ([`Priority`]) and an
//! optional deadline; the batcher sheds per class, rejects
//! buffered-expired deadlines before admission, and steps fused batches
//! down the model-version ladder under backlog pressure.

#![warn(missing_docs)]

mod batcher;
pub mod cache;
pub mod client;
mod conn;
pub mod error;
mod reactor;
pub mod registry;
pub mod server;
pub mod stats;
pub mod sys;
pub mod wire;

pub use cache::{cache_disabled_by_env, CacheConfig, CacheTolerance, CACHE_ENV};
pub use client::{
    retry_policy_from_env, Client, HealthReport, CLIENT_BACKOFF_MS_ENV, CLIENT_JITTER_ENV,
    CLIENT_RETRIES_ENV,
};
pub use error::{Error, Result};
pub use server::{DrainReport, ServeConfig, ServeConfigBuilder, Server, ServerHandle};
pub use stats::{
    export_counters, CacheServeStats, ClassServeStats, DrainServeStats, FaultServeStats,
    LadderModelStats, ReactorServeStats, ServeStats,
};
pub use wire::HealthState;
