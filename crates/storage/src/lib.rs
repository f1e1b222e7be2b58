//! Paged storage engine for `relserve`.
//!
//! The relation-centric architecture works *because* the RDBMS can treat a
//! tensor as a relation of blocks that spill to disk through the buffer pool
//! instead of exhausting memory (§1, §7.1, Table 3). This crate provides
//! that substrate:
//!
//! * [`page`] — fixed 64 KiB pages with a slotted-tuple layout.
//! * [`disk`] — a file-backed [`disk::DiskManager`] doing positioned I/O;
//!   a sealed page is verified against its checksum on every read.
//! * [`bufferpool`] — an LRU [`bufferpool::BufferPool`] with pin/unpin RAII
//!   guards, dirty-page write-back, and hit/miss/eviction statistics. Its
//!   capacity is expressed in bytes so experiments can set it exactly like
//!   the paper sets its 20 GB pool (scaled down); its frames are one
//!   anonymous mapping, returned to the kernel when the pool closes.
//! * [`heap`] — an unordered tuple heap ([`heap::TableHeap`]) over pages.
//! * [`blob`] — multi-page blobs for payloads larger than a page (tensor
//!   blocks routinely are).
//! * [`artifact`] — model artifacts as sealed pages written around the
//!   buffer pool: a loaded model's one stored form, its dense weights as
//!   the blocks of their weight relations.
//! * [`catalog`] — a minimal name → storage-root catalog; the relational
//!   layer adds schema semantics on top.

pub mod artifact;
pub mod blob;
pub mod bufferpool;
pub mod catalog;
pub mod disk;
pub mod error;
mod frames;
pub mod heap;
pub mod page;

pub use artifact::{ArtifactPages, ArtifactReader, ArtifactWriter};
pub use blob::{BlobId, BlobStore, BlobWriter};
pub use bufferpool::{BufferPool, PageGuard, PoolStats};
pub use catalog::{Catalog, StoredObject};
pub use disk::DiskManager;
pub use error::{Error, Result};
pub use heap::{TableHeap, TupleId};
pub use page::{Page, PageId, PAGE_SIZE};
