//! Unified error type for the core engine.

use std::fmt;

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the unified inference engine.
#[derive(Debug)]
pub enum Error {
    /// Tensor kernel failure.
    Tensor(relserve_tensor::Error),
    /// Resource-management failure (including out-of-memory).
    Runtime(relserve_runtime::Error),
    /// Storage-engine failure.
    Storage(relserve_storage::Error),
    /// Relational-operator failure.
    Relational(relserve_relational::Error),
    /// Model failure.
    Nn(relserve_nn::Error),
    /// Vector-index failure.
    VectorIdx(relserve_vectoridx::Error),
    /// A referenced session object does not exist.
    NotFound(String),
    /// A session object name is already taken.
    AlreadyExists(String),
    /// Invalid query or configuration.
    Invalid(String),
}

impl Error {
    /// True when the error is an out-of-memory rejection from any governor —
    /// the signal Table 3 catches to report "OOM" instead of crashing.
    pub fn is_oom(&self) -> bool {
        matches!(
            self,
            Error::Runtime(relserve_runtime::Error::OutOfMemory { .. })
        )
    }

    /// The memory domain that rejected, when this is an OOM error.
    pub fn oom_domain(&self) -> Option<&str> {
        match self {
            Error::Runtime(relserve_runtime::Error::OutOfMemory { domain, .. }) => Some(domain),
            _ => None,
        }
    }

    /// True when the query was shed from the admission queue because the
    /// machine stayed saturated past its queue timeout.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            Error::Runtime(relserve_runtime::Error::Overloaded { .. })
        )
    }

    /// True when the query's deadline expired (in the admission queue or
    /// cooperatively detected mid-execution).
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(
            self,
            Error::Runtime(relserve_runtime::Error::DeadlineExceeded { .. })
        )
    }

    /// True for a transient (retryable) boundary fault — surfaced only when
    /// bounded retry was exhausted.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::Runtime(relserve_runtime::Error::Transient { .. })
        )
    }

    /// True when the failure is recoverable by re-executing the query
    /// relation-centric (the degradation ladder's trigger): a governor OOM
    /// or an exhausted transient retry. Deadline/overload errors are *not*
    /// degradable — the query ran out of time or was shed, so re-executing
    /// would make the overload worse.
    pub fn is_degradable(&self) -> bool {
        self.is_oom() || self.is_transient()
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Tensor(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Relational(e) => write!(f, "{e}"),
            Error::Nn(e) => write!(f, "{e}"),
            Error::VectorIdx(e) => write!(f, "{e}"),
            Error::NotFound(n) => write!(f, "`{n}` not found"),
            Error::AlreadyExists(n) => write!(f, "`{n}` already exists"),
            Error::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Relational(e) => Some(e),
            Error::Nn(e) => Some(e),
            Error::VectorIdx(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        }
    };
}

impl_from!(Tensor, relserve_tensor::Error);
impl_from!(Runtime, relserve_runtime::Error);
impl_from!(Storage, relserve_storage::Error);

/// A relational error that is a storage error — a weight relation's page
/// failing its checksum on a pool miss — surfaces as the storage error it is.
impl From<relserve_relational::Error> for Error {
    fn from(e: relserve_relational::Error) -> Self {
        match e {
            relserve_relational::Error::Storage(e) => Error::Storage(e),
            other => Error::Relational(other),
        }
    }
}

/// A model error that is a storage error — a stored weight's page failing
/// its checksum — surfaces as the storage error it is.
impl From<relserve_nn::Error> for Error {
    fn from(e: relserve_nn::Error) -> Self {
        match e {
            relserve_nn::Error::Storage(e) => Error::Storage(e),
            other => Error::Nn(other),
        }
    }
}
impl_from!(VectorIdx, relserve_vectoridx::Error);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_detection() {
        let oom: Error = relserve_runtime::Error::OutOfMemory {
            domain: "udf-centric".into(),
            requested: 100,
            in_use: 0,
            budget: 50,
        }
        .into();
        assert!(oom.is_oom());
        assert_eq!(oom.oom_domain(), Some("udf-centric"));
        let not_oom: Error = Error::NotFound("x".into());
        assert!(!not_oom.is_oom());
        assert_eq!(not_oom.oom_domain(), None);
    }

    #[test]
    fn conversions_compile_and_display() {
        let e: Error = relserve_tensor::Error::MissingBlock { row: 1, col: 2 }.into();
        assert!(e.to_string().contains("missing block"));
    }
}
