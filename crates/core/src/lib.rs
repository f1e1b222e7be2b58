//! `relserve-core` — the paper's primary contribution, assembled.
//!
//! This crate unifies the three architectures for serving deep-learning
//! models over relational data (*Serving Deep Learning Models from
//! Relational Databases*, EDBT 2024):
//!
//! * **DL-centric** — ship features over the connector to a decoupled DL
//!   runtime and ship predictions back ([`exec::dl_centric`]).
//! * **UDF-centric** — run the whole model as one in-database UDF under the
//!   database memory governor.
//! * **Relation-centric** — lower each tensor operator onto tensor-block
//!   relations: matmul becomes a join + aggregation that spills through the
//!   buffer pool ([`exec::relation_centric`]).
//!
//! The two in-database architectures are plans of one executor,
//! [`exec::run`], which walks an [`InferencePlan`] of one node per layer and
//! runs each layer in its node's [`Representation`]: every layer UDF-centric,
//! or every layer relation-centric. The [`optimizer::RuleBasedOptimizer`]
//! implements §7.1's adaptive rule: estimate each layer's memory as
//! `input + params + output` and choose relation-centric iff the estimate
//! exceeds the configured threshold, otherwise UDF-centric; its per-layer
//! mix is a third plan of the same executor. [`session::InferenceSession`] is the user-facing facade that wires
//! tables, models, governors and the optimizer together.
//!
//! A join query's model runs in the same executor:
//! [`InferenceSession::infer_join`] band-joins two tables, and its adaptive
//! plan pushes a dense first layer below the join (§2.2's model
//! decomposition, §7.2.1).
//!
//! Around that core sit the paper's §2–§5 techniques:
//! [`dedup`] (accuracy-aware tensor-block deduplication),
//! [`versions`] (SLA-driven selection among compressed model versions), and
//! [`cache`] (the HNSW inference-result cache with Monte-Carlo error bounds).

#![warn(missing_docs)]

pub mod cache;
pub mod dedup;
pub mod error;
pub mod exec;
pub mod ir;
pub mod optimizer;
pub mod session;
pub mod versions;

pub use error::{Error, Result};
pub use ir::{InferencePlan, PlanNode, Representation};
pub use optimizer::RuleBasedOptimizer;
pub use session::{
    Architecture, FusedOutcome, InferenceOutcome, InferenceSession, JoinQuery, JoinSide,
    SessionConfig, SessionConfigBuilder, SessionStats,
};
