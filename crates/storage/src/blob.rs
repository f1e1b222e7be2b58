//! Multi-page blobs for payloads larger than a page.
//!
//! Tensor blocks are the primary customer: a 256×256 `f32` block is 256 KiB,
//! four pages. Blob pages bypass the slotted layout — the whole page image is
//! payload — and the store keeps the page chain and byte length per blob.

use crate::bufferpool::{BufferPool, PageGuard};
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(pub u64);

#[derive(Debug, Clone)]
struct BlobMeta {
    pages: Vec<PageId>,
    len: usize,
    /// Whether the store owns the pages (wrote them through the pool) or
    /// only reads them ([`BlobStore::adopt`]).
    owned: bool,
}

/// Give a removed blob's pages back: an owned blob's to the free list, an
/// adopted one's frames only.
fn release(pool: &BufferPool, blobs: impl IntoIterator<Item = BlobMeta>) {
    let (owned, adopted): (Vec<_>, Vec<_>) = blobs.into_iter().partition(|meta| meta.owned);
    let pages = |metas: Vec<BlobMeta>| -> Vec<PageId> {
        metas.into_iter().flat_map(|meta| meta.pages).collect()
    };
    pool.discard_pages(&pages(owned));
    pool.forget_pages(&pages(adopted));
}

/// Stores arbitrary-size byte blobs as page chains through the buffer pool.
pub struct BlobStore {
    pool: Arc<BufferPool>,
    state: Mutex<BlobState>,
}

#[derive(Debug, Default)]
struct BlobState {
    blobs: HashMap<BlobId, BlobMeta>,
    next_id: u64,
    bytes_stored: u64,
}

impl BlobStore {
    /// An empty blob store on `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        BlobStore {
            pool,
            state: Mutex::new(BlobState::default()),
        }
    }

    /// The buffer pool used for blob pages.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Total payload bytes currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.state.lock().bytes_stored
    }

    /// Pages of the stored blobs resident in the buffer pool right now.
    pub fn resident_pages(&self) -> usize {
        let state = self.state.lock();
        self.pool.resident_among(
            state
                .blobs
                .values()
                .flat_map(|meta| meta.pages.iter().copied()),
        )
    }

    /// Number of blobs currently stored.
    pub fn len(&self) -> usize {
        self.state.lock().blobs.len()
    }

    /// True when no blobs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store `payload`, returning its id.
    pub fn put(&self, payload: &[u8]) -> Result<BlobId> {
        self.put_with(payload.len(), |at, page| {
            page.copy_from_slice(&payload[at..at + page.len()])
        })
    }

    /// Store a blob of `len` bytes that `fill` writes one page at a time, in
    /// order, given each piece's offset and the pinned page to write it to
    /// (every piece but the last is [`PAGE_SIZE`] bytes): an encoder's output
    /// goes straight into the pages.
    pub fn put_with(&self, len: usize, fill: impl FnMut(usize, &mut [u8])) -> Result<BlobId> {
        let mut writer = self.writer();
        writer.write_with(len, fill)?;
        writer.finish()
    }

    /// A blob of `len` bytes over `pages` that were written elsewhere —
    /// sealed pages of an artifact, around the pool — read through the pool
    /// like any other. The store does not own them: deleting the blob, or
    /// dropping the store, drops their frames and leaves the pages alone.
    pub fn adopt(&self, pages: Vec<PageId>, len: usize) -> BlobId {
        self.register(BlobMeta {
            pages,
            len,
            owned: false,
        })
    }

    fn register(&self, meta: BlobMeta) -> BlobId {
        let mut state = self.state.lock();
        let id = BlobId(state.next_id);
        state.next_id += 1;
        state.bytes_stored += meta.len as u64;
        state.blobs.insert(id, meta);
        id
    }

    /// A blob written in several appends; see [`BlobWriter`].
    pub fn writer(&self) -> BlobWriter<'_> {
        BlobWriter {
            store: self,
            pages: Vec::new(),
            len: 0,
            tail: Vec::new(),
        }
    }

    /// Read a blob's payload back.
    pub fn get(&self, id: BlobId) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.blob_len(id)?);
        self.read_chunks(id, |chunk| {
            out.extend_from_slice(chunk);
            Ok::<(), Error>(())
        })?;
        Ok(out)
    }

    /// Pin every page of a blob, in order: while the guards live, the
    /// payload stays where it is in the pool's frames, to be read in place
    /// (every page but the last holds [`PAGE_SIZE`] bytes of it). A page
    /// that cannot be fetched fails the call, and the pages pinned before
    /// it are let go.
    pub fn pin(&self, id: BlobId) -> Result<Vec<PageGuard>> {
        let (meta, scan) = self.meta(id)?;
        meta.pages
            .iter()
            .map(|pid| self.fetch(*pid, scan))
            .collect()
    }

    /// A blob's pages, and whether they are read as a scan (see
    /// [`BufferPool::fetch_scan`]): a store the pool cannot hold is read
    /// start to end again and again — a weight relation, once per query.
    fn meta(&self, id: BlobId) -> Result<(BlobMeta, bool)> {
        let state = self.state.lock();
        let meta = state.blobs.get(&id).ok_or(Error::BlobNotFound(id.0))?;
        let pool_bytes = (self.pool.capacity() * PAGE_SIZE) as u64;
        Ok((meta.clone(), state.bytes_stored > pool_bytes))
    }

    fn fetch(&self, pid: PageId, scan: bool) -> Result<PageGuard> {
        if scan {
            self.pool.fetch_scan(pid)
        } else {
            self.pool.fetch(pid)
        }
    }

    /// Hand a blob's payload to `visit` one page-sized chunk at a time, in
    /// order, straight out of the pinned pages: every chunk but the last is
    /// [`PAGE_SIZE`] bytes. Lets a decoder build its result without first
    /// assembling the payload in a buffer of its own.
    pub fn read_chunks<E: From<Error>>(
        &self,
        id: BlobId,
        mut visit: impl FnMut(&[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let (meta, scan) = self.meta(id)?;
        let mut remaining = meta.len;
        for pid in &meta.pages {
            let take = remaining.min(PAGE_SIZE);
            let guard = self.fetch(*pid, scan)?;
            visit(&guard.read().bytes()[..take])?;
            remaining -= take;
        }
        Ok(())
    }

    /// Length of a blob without reading it.
    pub fn blob_len(&self, id: BlobId) -> Result<usize> {
        self.state
            .lock()
            .blobs
            .get(&id)
            .map(|m| m.len)
            .ok_or(Error::BlobNotFound(id.0))
    }

    /// Remove a blob and give its pages back to the pool's free list,
    /// unwritten (a page a reader still pins stays behind as dead space) —
    /// or, for an adopted blob, drop their frames. The pages' next owner
    /// overwrites them, so the caller must not let a delete race a read of
    /// the same blob.
    pub fn delete(&self, id: BlobId) -> Result<()> {
        let meta = {
            let mut state = self.state.lock();
            let meta = state.blobs.remove(&id).ok_or(Error::BlobNotFound(id.0))?;
            state.bytes_stored -= meta.len as u64;
            meta
        };
        release(&self.pool, [meta]);
        Ok(())
    }
}

/// Writes one blob of a [`BlobStore`] in order, an append at a time.
/// Several writers may be open on one store at once — a weight relation's
/// block-row is written a row group at a time into every block of the row.
/// A page is created when its bytes are complete and written once, pinned
/// only while it is filled: an append that ends mid-page leaves the rest in
/// the writer until the next append (or [`BlobWriter::finish`]) completes
/// the page, so the pool never has to hand a half-written page back.
/// Dropped unfinished, the writer discards what it wrote.
pub struct BlobWriter<'a> {
    store: &'a BlobStore,
    pages: Vec<PageId>,
    len: usize,
    /// The bytes of the last page, while it is not full.
    tail: Vec<u8>,
}

impl BlobWriter<'_> {
    /// Append `len` bytes that `fill` writes a piece at a time, given each
    /// piece's offset within this append and the bytes to write it to.
    /// Pieces break where the blob's pages do.
    pub fn write_with(&mut self, len: usize, mut fill: impl FnMut(usize, &mut [u8])) -> Result<()> {
        let mut done = 0;
        while done < len {
            let in_page = self.tail.len();
            let take = (len - done).min(PAGE_SIZE - in_page);
            if take == PAGE_SIZE {
                let guard = self.store.pool.create_page()?;
                fill(done, &mut guard.write().bytes_mut()[..]);
                self.pages.push(guard.id());
            } else {
                self.tail.resize(in_page + take, 0);
                fill(done, &mut self.tail[in_page..]);
                if self.tail.len() == PAGE_SIZE {
                    self.flush_tail()?;
                }
            }
            done += take;
            self.len += take;
        }
        Ok(())
    }

    /// Write the tail to a page of its own.
    fn flush_tail(&mut self) -> Result<()> {
        let guard = self.store.pool.create_page()?;
        guard.write().bytes_mut()[..self.tail.len()].copy_from_slice(&self.tail);
        self.pages.push(guard.id());
        self.tail.clear();
        Ok(())
    }

    /// Write the last page, register the blob and return its id.
    pub fn finish(mut self) -> Result<BlobId> {
        if !self.tail.is_empty() {
            self.flush_tail()?;
        }
        Ok(self.store.register(BlobMeta {
            pages: std::mem::take(&mut self.pages),
            len: self.len,
            owned: true,
        }))
    }
}

impl Drop for BlobWriter<'_> {
    fn drop(&mut self) {
        self.store.pool.discard_pages(&self.pages);
    }
}

/// Dropping the store deletes every blob still in it: a temporary relation
/// returns its pages when it goes out of scope.
impl Drop for BlobStore {
    fn drop(&mut self) {
        let blobs = self.state.get_mut().blobs.drain().map(|(_, meta)| meta);
        release(&self.pool, blobs);
    }
}

impl std::fmt::Debug for BlobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("BlobStore")
            .field("blobs", &st.blobs.len())
            .field("bytes", &st.bytes_stored)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn store(frames: usize) -> BlobStore {
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::temp().unwrap()),
            frames,
        ));
        BlobStore::new(pool)
    }

    #[test]
    fn small_blob_roundtrip() {
        let s = store(4);
        let id = s.put(b"tiny").unwrap();
        assert_eq!(s.get(id).unwrap(), b"tiny");
        assert_eq!(s.blob_len(id).unwrap(), 4);
    }

    #[test]
    fn multi_page_blob_roundtrip() {
        let s = store(8);
        let payload: Vec<u8> = (0..PAGE_SIZE * 3 + 123).map(|i| (i % 251) as u8).collect();
        let id = s.put(&payload).unwrap();
        assert_eq!(s.get(id).unwrap(), payload);
    }

    #[test]
    fn exact_page_boundary() {
        let s = store(4);
        let payload = vec![0x5au8; PAGE_SIZE];
        let id = s.put(&payload).unwrap();
        assert_eq!(s.get(id).unwrap(), payload);
    }

    #[test]
    fn empty_blob() {
        let s = store(4);
        let id = s.put(b"").unwrap();
        assert_eq!(s.get(id).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn blobs_survive_pool_pressure() {
        // Store far more blob data than the pool holds; everything must read
        // back via disk.
        let s = store(2);
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let payload = vec![i; PAGE_SIZE + 17];
            ids.push((s.put(&payload).unwrap(), payload));
        }
        for (id, payload) in &ids {
            assert_eq!(&s.get(*id).unwrap(), payload);
        }
        assert!(s.pool().stats().evictions > 0);
        assert_eq!(s.resident_pages(), 2, "a two-frame pool holds two of them");
    }

    #[test]
    fn deleted_and_dropped_blobs_give_their_pages_back() {
        let s = store(8);
        let disk = s.pool().disk().clone();
        let a = s.put(&vec![1u8; 2 * PAGE_SIZE + 5]).unwrap();
        s.put(&vec![2u8; PAGE_SIZE]).unwrap();
        assert_eq!(disk.num_pages(), 4);
        s.delete(a).unwrap();
        assert_eq!(disk.free_pages(), 3);
        // A same-sized blob fits in the freed pages: the file does not grow.
        let b = s.put(&vec![3u8; 2 * PAGE_SIZE + 5]).unwrap();
        assert_eq!(disk.num_pages(), 4);
        assert_eq!(s.get(b).unwrap(), vec![3u8; 2 * PAGE_SIZE + 5]);
        let pool = s.pool().clone();
        drop(s);
        assert_eq!(disk.free_pages(), 4);
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(disk.write_count(), 0, "freed dirty pages were written");
    }

    #[test]
    fn read_chunks_visits_the_payload_in_page_order() {
        let s = store(8);
        let payload: Vec<u8> = (0..PAGE_SIZE * 2 + 9).map(|i| (i % 253) as u8).collect();
        let id = s.put(&payload).unwrap();
        let mut lens = Vec::new();
        let mut seen = Vec::new();
        s.read_chunks(id, |chunk| {
            lens.push(chunk.len());
            seen.extend_from_slice(chunk);
            Ok::<(), Error>(())
        })
        .unwrap();
        assert_eq!(lens, [PAGE_SIZE, PAGE_SIZE, 9]);
        assert_eq!(seen, payload);
    }

    #[test]
    fn interleaved_writers_each_write_their_own_blob() {
        let s = store(3);
        let (mut a, mut b) = (s.writer(), s.writer());
        let piece = |salt: u8| {
            move |at: usize, page: &mut [u8]| {
                for (i, v) in page.iter_mut().enumerate() {
                    *v = ((at + i) as u8).wrapping_mul(salt);
                }
            }
        };
        // Appends that end mid-page, alternating between the two blobs,
        // through a pool too small to keep both blobs' pages resident.
        for _ in 0..5 {
            a.write_with(PAGE_SIZE / 2 + 3, piece(3)).unwrap();
            b.write_with(PAGE_SIZE / 3, piece(5)).unwrap();
        }
        // No half-written page went into the pool to be fetched back.
        assert_eq!(s.pool().stats().hits, 0);
        let (a, b) = (a.finish().unwrap(), b.finish().unwrap());
        let expect = |len: usize, per: usize, salt: u8| -> Vec<u8> {
            (0..len)
                .map(|i| ((i % per) as u8).wrapping_mul(salt))
                .collect()
        };
        assert_eq!(
            s.get(a).unwrap(),
            expect(5 * (PAGE_SIZE / 2 + 3), PAGE_SIZE / 2 + 3, 3)
        );
        assert_eq!(
            s.get(b).unwrap(),
            expect(5 * (PAGE_SIZE / 3), PAGE_SIZE / 3, 5)
        );
        // An abandoned writer gives back what it wrote.
        let disk = s.pool().disk().clone();
        let free = disk.free_pages();
        let mut c = s.writer();
        c.write_with(2 * PAGE_SIZE, |_, _| {}).unwrap();
        drop(c);
        assert_eq!(disk.free_pages(), free + 2);
    }

    #[test]
    fn an_adopted_blob_is_read_through_the_pool_and_never_freed_by_it() {
        let s = store(4);
        let disk = s.pool().disk().clone();
        let payload: Vec<u8> = (0..PAGE_SIZE + 10).map(|i| (i % 241) as u8).collect();
        let pages: Vec<PageId> = payload
            .chunks(PAGE_SIZE)
            .map(|chunk| {
                let id = disk.allocate_page();
                let mut image = vec![0; PAGE_SIZE];
                image[..chunk.len()].copy_from_slice(chunk);
                disk.write_sealed(id, &image).unwrap();
                id
            })
            .collect();
        let id = s.adopt(pages.clone(), payload.len());
        assert_eq!(s.bytes_stored(), payload.len() as u64);
        assert_eq!(s.get(id).unwrap(), payload);
        assert_eq!(s.resident_pages(), 2);
        // Deleted, its frames go and its pages stay with their owner.
        s.delete(id).unwrap();
        assert_eq!((s.resident_pages(), s.pool().resident_pages()), (0, 0));
        assert_eq!(disk.free_pages(), 0);
        let again = s.adopt(pages, payload.len());
        s.get(again).unwrap();
        drop(s);
        assert_eq!(
            disk.free_pages(),
            0,
            "nor does dropping the store free them"
        );
        assert_eq!(disk.write_count(), 2, "and nothing wrote them back");
    }

    #[test]
    fn delete_frees_accounting() {
        let s = store(4);
        let id = s.put(&[0u8; 100]).unwrap();
        assert_eq!(s.bytes_stored(), 100);
        s.delete(id).unwrap();
        assert_eq!(s.bytes_stored(), 0);
        assert!(s.get(id).is_err());
        assert!(s.delete(id).is_err());
    }

    #[test]
    fn ids_are_unique() {
        let s = store(4);
        let a = s.put(b"a").unwrap();
        let b = s.put(b"b").unwrap();
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
    }
}
