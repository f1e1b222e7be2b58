//! Storage-layer errors.

use std::fmt;

/// Result alias for the storage crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from pages, the buffer pool, heaps, blobs, and the catalog.
#[derive(Debug)]
pub enum Error {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A page id does not exist on disk or in the pool.
    PageNotFound(u64),
    /// Every frame in the buffer pool is pinned; nothing can be evicted.
    PoolExhausted {
        /// Number of frames in the pool.
        frames: usize,
    },
    /// A tuple was larger than the usable space of a page.
    TupleTooLarge {
        /// Size of the offending tuple.
        size: usize,
        /// Maximum storable size.
        max: usize,
    },
    /// A tuple id referenced a slot that does not exist or was deleted.
    TupleNotFound {
        /// The page the tuple id pointed at.
        page: u64,
        /// The slot within the page.
        slot: u16,
    },
    /// A blob id is unknown.
    BlobNotFound(u64),
    /// A named catalog object is missing.
    ObjectNotFound(String),
    /// A named catalog object already exists.
    ObjectExists(String),
    /// On-disk bytes failed validation.
    Corrupt(String),
    /// A page read back does not match the checksum recorded when it was
    /// written.
    Checksum {
        /// The page whose image changed.
        page: u64,
    },
}

impl Error {
    /// The storage error an `io::Error` carries — as a byte stream over
    /// pages reports one through [`std::io::Read`] — or else `Error::Io`.
    pub fn from_io(e: std::io::Error) -> Error {
        match e.get_ref().and_then(|inner| inner.downcast_ref::<Error>()) {
            Some(_) => *e
                .into_inner()
                .and_then(|inner| inner.downcast::<Error>().ok())
                .expect("checked to carry a storage error"),
            None => Error::Io(e),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "storage I/O error: {e}"),
            Error::PageNotFound(id) => write!(f, "page {id} not found"),
            Error::PoolExhausted { frames } => {
                write!(f, "buffer pool exhausted: all {frames} frames pinned")
            }
            Error::TupleTooLarge { size, max } => {
                write!(f, "tuple of {size} B exceeds page capacity {max} B")
            }
            Error::TupleNotFound { page, slot } => {
                write!(f, "tuple (page {page}, slot {slot}) not found")
            }
            Error::BlobNotFound(id) => write!(f, "blob {id} not found"),
            Error::ObjectNotFound(name) => write!(f, "catalog object `{name}` not found"),
            Error::ObjectExists(name) => write!(f, "catalog object `{name}` already exists"),
            Error::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            Error::Checksum { page } => {
                write!(f, "page {page} no longer matches its checksum")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
