//! Errors for resource management and cross-system transfer.

use std::fmt;
use std::time::Duration;

/// Result alias for the runtime crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by governors, connectors, admission and the external
/// runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A memory budget would be exceeded.
    ///
    /// This error is *recoverable by design*: the adaptive optimizer catches
    /// it (or avoids it ahead of time via estimation) and falls back to the
    /// relation-centric representation, exactly as the paper's Table 3
    /// experiment requires. It must therefore never be turned into a panic.
    OutOfMemory {
        /// The governor's domain, e.g. `"udf-centric"` or `"tensorflow-like"`.
        domain: String,
        /// Bytes the failed request asked for.
        requested: usize,
        /// Bytes already in use at the time of the request.
        in_use: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Malformed payload on the connector wire.
    Codec(String),
    /// Tensor-level failure surfaced through a runtime API.
    Tensor(relserve_tensor::Error),
    /// The machine stayed saturated for the query's whole admission
    /// `queue_timeout`, so the query was shed instead of served. Like OOM,
    /// this is recoverable by design: callers retry later or route the load
    /// elsewhere.
    Overloaded {
        /// How long the query waited in the admission queue before shedding.
        waited: Duration,
        /// The queue timeout the query arrived with.
        queue_timeout: Duration,
    },
    /// The query's deadline passed — while queued for admission or
    /// cooperatively detected mid-execution between two steps of the query
    /// (layers; a join query's scan, join and inference).
    DeadlineExceeded {
        /// Where the deadline was detected, e.g. `"admission-queue"`,
        /// `"exec.layer"` (before a layer of the in-database executor) or
        /// `"join.scan"` (a join query's tables read).
        phase: String,
    },
    /// A transient (retryable) fault on the cross-system boundary: a flaky
    /// wire, a codec hiccup, an external-runtime allocator stall. Bounded
    /// retry with backoff is the intended response; exhausted retries
    /// degrade to relation-centric execution.
    Transient {
        /// The operation that failed, e.g. `"connector.ship"`.
        op: String,
    },
    /// A kernel-pool task panicked. The panic payload is captured so a
    /// poisoned query surfaces a typed error on its own thread instead of
    /// aborting a serving thread; the pool itself stays usable.
    KernelPanicked {
        /// The captured panic payload (message).
        message: String,
    },
}

impl Error {
    /// True for transient (retryable) faults.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Transient { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfMemory {
                domain,
                requested,
                in_use,
                budget,
            } => write!(
                f,
                "out of memory in `{domain}`: requested {requested} B with {in_use} B in use (budget {budget} B)"
            ),
            Error::Codec(msg) => write!(f, "connector codec error: {msg}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::Overloaded {
                waited,
                queue_timeout,
            } => write!(
                f,
                "overloaded: shed from the admission queue after {waited:?} (queue timeout {queue_timeout:?})"
            ),
            Error::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded during `{phase}`")
            }
            Error::Transient { op } => write!(f, "transient fault in `{op}` (retryable)"),
            Error::KernelPanicked { message } => {
                write!(f, "kernel pool task panicked: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relserve_tensor::Error> for Error {
    fn from(e: relserve_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}
