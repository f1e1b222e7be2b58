//! File-backed page storage with positioned I/O.

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit checksum of a page image: eight lanes of multiply-rotate rounds
/// over 8-byte words, folded with distinct rotations. A round is a bijection
/// of its lane for a fixed word and an injection of the word for a fixed
/// lane, so a change confined to one word — any single flipped byte — always
/// changes the sum. One multiply per word keeps it at ~20 GB/s.
pub(crate) fn checksum(image: &[u8]) -> u64 {
    const P: u64 = 0x9E37_79B1_85EB_CA87;
    let mut lanes: [u64; 8] = std::array::from_fn(|i| (i as u64 + 1).wrapping_mul(P));
    let mut blocks = image.chunks_exact(64);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(P).rotate_left(29);
        }
    }
    let mut sum = lanes.iter().zip(0u32..).fold(0u64, |sum, (lane, i)| {
        sum.wrapping_add(lane.rotate_left(7 * i + 1))
    });
    for &byte in blocks.remainder() {
        sum = (sum ^ u64::from(byte)).wrapping_mul(P).rotate_left(11);
    }
    sum ^ image.len() as u64
}

/// Allocates and persists pages in a single backing file.
///
/// The disk manager is intentionally dumb: no caching (that is the buffer
/// pool's job). Freed page ids go on a free list and are handed out again
/// before the file grows, so a workload of short-lived relations runs in a
/// file of bounded size. It counts physical reads and writes so benchmarks
/// can report spill traffic.
///
/// A page written with [`DiskManager::write_sealed`] is *sealed*: the
/// checksum of its image is recorded, and every later read of the page from
/// disk — a buffer-pool miss or an artifact read alike — is verified against
/// it, so a page that changed on disk is [`Error::Checksum`], never wrong
/// bytes. Freeing the page unseals it.
#[derive(Debug)]
pub struct DiskManager {
    file: File,
    path: PathBuf,
    next_page: AtomicU64,
    /// Ids given back by [`DiskManager::free_page`], reused LIFO.
    free: Mutex<Vec<PageId>>,
    /// The checksum of every sealed page's image.
    sealed: RwLock<HashMap<PageId, u64>>,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Length of the file, so that no read or write has to `fstat` for it.
    /// Raised (`Release`) once the write that extended the file has returned,
    /// so a reader that sees it (`Acquire`) can read every byte below it.
    /// Reads and writes use positioned I/O and need no lock.
    len: AtomicU64,
    delete_on_drop: bool,
    #[cfg(test)]
    read_hook: tests::ReadHook,
}

impl DiskManager {
    /// Open (or create) a database file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(DiskManager {
            file,
            path,
            next_page: AtomicU64::new(len / PAGE_SIZE as u64),
            free: Mutex::new(Vec::new()),
            sealed: RwLock::new(HashMap::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            len: AtomicU64::new(len),
            delete_on_drop: false,
            #[cfg(test)]
            read_hook: Default::default(),
        })
    }

    /// Create a scratch database in the OS temp dir, removed on drop.
    pub fn temp() -> Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "relserve-{}-{}-{n}.db",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        let mut dm = Self::open(&path)?;
        dm.delete_on_drop = true;
        Ok(dm)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocate a page id: a freed one if any, else a fresh one at the end
    /// of the file (the page exists on disk once first written). A reused
    /// id may still hold its previous image on disk; callers overwrite it.
    pub fn allocate_page(&self) -> PageId {
        if let Some(id) = self.free.lock().pop() {
            return id;
        }
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    /// Give `id` back for reuse, unsealed. The caller must hold no reference
    /// to the page: its next owner overwrites it.
    pub fn free_page(&self, id: PageId) {
        self.sealed.write().remove(&id);
        self.free.lock().push(id);
    }

    /// Number of distinct page ids ever allocated — the file's high-water
    /// mark in pages; reusing a freed id does not raise it.
    pub fn num_pages(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Page ids currently on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.lock().len()
    }

    /// Read a page image from disk.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        let mut page = Page::new(id);
        self.read_into(&mut page)?;
        Ok(page)
    }

    /// Overwrite `page`'s image with what the disk holds for its id, leaving
    /// it clean: the form the buffer pool uses to load into a reused frame.
    pub(crate) fn read_into(&self, page: &mut Page) -> Result<()> {
        self.read_image(page.id(), page.image_mut())
    }

    /// Read page `id`'s image into `image` (one page long). Pages allocated
    /// but never written read back as zeroes, which is a valid empty page —
    /// unless the page is sealed, and its image verified: a sealed page cut
    /// off the end of the file reads as zeroes, which fail its checksum.
    pub(crate) fn read_image(&self, id: PageId, image: &mut [u8]) -> Result<()> {
        #[cfg(test)]
        self.read_hook.call(id)?;
        let offset = id.0 * PAGE_SIZE as u64;
        if offset + PAGE_SIZE as u64 <= self.len.load(Ordering::Acquire) {
            self.file.read_exact_at(image, offset)?;
        } else {
            image.fill(0);
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        match self.sealed.read().get(&id) {
            Some(&sum) if checksum(image) != sum => Err(Error::Checksum { page: id.0 }),
            _ => Ok(()),
        }
    }

    /// Write a page image to disk; a write past the end extends the file
    /// (any gap reads back as zeroes).
    pub fn write_page(&self, page: &Page) -> Result<()> {
        self.write_image(page.id(), page.bytes())
    }

    /// Write `image` (one page long) as page `id`'s.
    pub(crate) fn write_image(&self, id: PageId, image: &[u8]) -> Result<()> {
        let offset = id.0 * PAGE_SIZE as u64;
        self.file.write_all_at(image, offset)?;
        self.len
            .fetch_max(offset + PAGE_SIZE as u64, Ordering::AcqRel);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write `image` (one page long) as page `id`'s and seal the page:
    /// every read of it from now until it is freed is verified against the
    /// checksum of `image`.
    pub fn write_sealed(&self, id: PageId, image: &[u8]) -> Result<()> {
        self.write_image(id, image)?;
        self.sealed.write().insert(id, checksum(image));
        Ok(())
    }

    /// Physical page reads since open.
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page writes since open.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

impl Drop for DiskManager {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    type ReadFn = dyn Fn(PageId) -> std::io::Result<()> + Send + Sync;

    /// Runs at the top of every physical read, outside every lock of this
    /// crate: lets a test fail a read or hold several inside the disk at once.
    #[derive(Default)]
    pub(crate) struct ReadHook(Mutex<Option<Arc<ReadFn>>>);

    impl ReadHook {
        pub(crate) fn call(&self, id: PageId) -> std::io::Result<()> {
            let hook = self.0.lock().clone();
            hook.map_or(Ok(()), |hook| hook(id))
        }
    }

    impl std::fmt::Debug for ReadHook {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "ReadHook(set: {})", self.0.lock().is_some())
        }
    }

    impl DiskManager {
        pub(crate) fn set_read_hook(&self, hook: Option<Arc<ReadFn>>) {
            *self.read_hook.0.lock() = hook;
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let dm = DiskManager::temp().unwrap();
        let id = dm.allocate_page();
        let mut p = Page::new(id);
        p.insert_tuple(b"on disk").unwrap();
        dm.write_page(&p).unwrap();
        let q = dm.read_page(id).unwrap();
        assert_eq!(q.tuple(0).unwrap(), b"on disk");
    }

    #[test]
    fn unwritten_page_reads_as_empty() {
        let dm = DiskManager::temp().unwrap();
        let id = dm.allocate_page();
        let p = dm.read_page(id).unwrap();
        assert_eq!(p.live_tuples(), 0);
    }

    #[test]
    fn a_write_past_the_end_extends_the_file_and_the_gap_reads_empty() {
        let dm = DiskManager::temp().unwrap();
        let ids: Vec<PageId> = (0..4).map(|_| dm.allocate_page()).collect();
        let mut p = Page::new(ids[2]);
        p.insert_tuple(b"far").unwrap();
        dm.write_page(&p).unwrap();
        assert_eq!(dm.read_page(ids[2]).unwrap().tuple(0).unwrap(), b"far");
        // Below the written page (a hole) and above it (past the end).
        assert_eq!(dm.read_page(ids[0]).unwrap().live_tuples(), 0);
        assert_eq!(dm.read_page(ids[3]).unwrap().live_tuples(), 0);
        // A shorter write afterwards does not pull the tracked length back.
        dm.write_page(&Page::new(ids[0])).unwrap();
        assert_eq!(dm.read_page(ids[2]).unwrap().tuple(0).unwrap(), b"far");
    }

    #[test]
    fn page_ids_are_sequential() {
        let dm = DiskManager::temp().unwrap();
        assert_eq!(dm.allocate_page(), PageId(0));
        assert_eq!(dm.allocate_page(), PageId(1));
        assert_eq!(dm.num_pages(), 2);
    }

    #[test]
    fn freed_ids_are_reused_before_the_file_grows() {
        let dm = DiskManager::temp().unwrap();
        let (a, _b, c) = (dm.allocate_page(), dm.allocate_page(), dm.allocate_page());
        dm.free_page(a);
        dm.free_page(c);
        assert_eq!(dm.free_pages(), 2);
        let reused = [dm.allocate_page(), dm.allocate_page()];
        assert!(reused.contains(&a) && reused.contains(&c));
        assert_eq!(
            dm.num_pages(),
            3,
            "reuse must not raise the high-water mark"
        );
        assert_eq!(dm.allocate_page(), PageId(3));
    }

    #[test]
    fn io_counters_track_operations() {
        let dm = DiskManager::temp().unwrap();
        let id = dm.allocate_page();
        dm.write_page(&Page::new(id)).unwrap();
        dm.read_page(id).unwrap();
        dm.read_page(id).unwrap();
        assert_eq!(dm.write_count(), 1);
        assert_eq!(dm.read_count(), 2);
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("relserve-reopen-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        {
            let dm = DiskManager::open(&dir).unwrap();
            let id = dm.allocate_page();
            let mut p = Page::new(id);
            p.insert_tuple(b"durable").unwrap();
            dm.write_page(&p).unwrap();
        }
        {
            let dm = DiskManager::open(&dir).unwrap();
            assert_eq!(dm.num_pages(), 1);
            let p = dm.read_page(PageId(0)).unwrap();
            assert_eq!(p.tuple(0).unwrap(), b"durable");
        }
        std::fs::remove_file(&dir).unwrap();
    }

    /// A page holding `fill` in every byte, sealed as page `id`.
    fn sealed(dm: &DiskManager, fill: u8) -> PageId {
        let id = dm.allocate_page();
        dm.write_sealed(id, &[fill; PAGE_SIZE]).unwrap();
        id
    }

    #[test]
    fn a_sealed_page_cut_off_the_file_is_a_checksum_error() {
        let dm = DiskManager::temp().unwrap();
        let (kept, cut) = (sealed(&dm, 3), sealed(&dm, 4));
        let file = OpenOptions::new().write(true).open(dm.path()).unwrap();
        file.set_len(cut.0 * PAGE_SIZE as u64 + 100).unwrap();
        // Cut inside the page: the read comes up short.
        assert!(matches!(dm.read_page(cut), Err(Error::Io(_))));
        // Cut before it, as the disk sees a file it learns the length of:
        // the page reads as zeroes, which fail its checksum.
        dm.len.store(cut.0 * PAGE_SIZE as u64, Ordering::Release);
        assert!(matches!(dm.read_page(cut), Err(Error::Checksum { page }) if page == cut.0));
        assert_eq!(dm.read_page(kept).unwrap().bytes()[9], 3);
    }

    #[test]
    fn freeing_a_page_unseals_it() {
        let dm = DiskManager::temp().unwrap();
        let id = sealed(&dm, 7);
        dm.free_page(id);
        // Its next owner writes it unsealed: nothing checks the old sum.
        assert_eq!(dm.allocate_page(), id);
        let mut page = Page::new(id);
        page.insert_tuple(b"reused").unwrap();
        dm.write_page(&page).unwrap();
        assert_eq!(dm.read_page(id).unwrap().tuple(0).unwrap(), b"reused");
        assert!(dm.sealed.read().is_empty());
    }

    #[test]
    fn temp_file_is_deleted_on_drop() {
        let path;
        {
            let dm = DiskManager::temp().unwrap();
            path = dm.path().to_path_buf();
            dm.write_page(&Page::new(dm.allocate_page())).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
