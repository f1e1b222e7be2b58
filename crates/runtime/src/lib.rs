//! Unified resource management for `relserve` (§3 of the paper).
//!
//! The paper argues that an RDBMS serving DL inference must coordinate
//! resources across three runtimes that traditionally manage themselves:
//! the database engine, in-UDF kernel libraries, and external DL frameworks.
//! This crate provides that coordination layer:
//!
//! * [`MemoryGovernor`] — tracked, budgeted allocation. Every tensor an
//!   executor materializes is charged against a governor; exceeding the
//!   budget yields a *recoverable* [`Error::OutOfMemory`], which is how the
//!   repo reproduces the deterministic OOM column of the paper's Table 3.
//! * [`ThreadCoordinator`] — splits physical cores between DB worker threads
//!   and kernel (linear-algebra) threads so in-UDF kernels do not
//!   oversubscribe the machine behind the scheduler's back (§3.1).
//! * [`KernelPool`] — the persistent worker pool those kernel threads live
//!   on: long-lived threads claim stripe tasks from a shared injector, so
//!   per-invocation thread spawn/join cost disappears from the kernel path.
//! * [`Connector`] — the simulated cross-system boundary (ConnectorX in the
//!   paper): rows are genuinely serialized, shipped over a bandwidth/latency
//!   model, and deserialized on the other side.
//! * [`ExternalRuntime`] — a decoupled DL runtime profile (TensorFlow- or
//!   PyTorch-like) with its own governor and memory-overhead factor; the
//!   DL-centric executor in `relserve-core` runs models "inside" it.

#![warn(missing_docs)]

pub mod connector;
pub mod context;
pub mod error;
pub mod external;
pub mod faults;
pub mod governor;
pub mod pool;
pub mod threads;
pub mod tuning;

pub use connector::{Connector, ConnectorStats, TransferProfile};
pub use context::{ContextStats, ExecContext};
pub use error::{Error, Result};
pub use external::{ExternalRuntime, RuntimeProfile};
pub use faults::{FaultConfig, FaultInjector, RetryPolicy, FAULT_SEED_ENV, SOCK_FAULTS_ENV};
pub use governor::{MemoryGovernor, Reservation};
pub use pool::{KernelPool, PoolCounters, PoolHandle};
pub use threads::{
    AdmissionPolicy, AdmissionStats, BudgetGrant, ClassAdmissionStats, Priority, ThreadCoordinator,
    ThreadPlan,
};
pub use tuning::{tune, TunedPlan, TuningReport};
