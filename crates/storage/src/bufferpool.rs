//! Buffer pool with pin/unpin guards, dirty write-back, and one replacement
//! policy: LRU that survives a cyclic scan.
//!
//! This is the mechanism that lets relation-centric execution process
//! tensors far larger than memory (Table 3): block pages that do not fit the
//! pool are evicted to disk and read back on demand. The pool's size is set
//! in bytes, mirroring the paper's "buffer pool set to 20 gigabytes"
//! configuration knob.
//!
//! §5.1 asks for a replacement policy that copes with "disparate access
//! patterns". The one that matters here is a weight relation larger than the
//! pool, read start to end by every query: under plain LRU each page goes
//! just before its next use. With [`BufferPool::fetch_scan`] a page such a
//! read *misses* on is the next victim instead of the last, so the misses
//! stream through a few frames and the resident part of the relation stays.
//!
//! A miss reads its page with the pool's mutex released: the frame is
//! published first, loading, with the page's write lock held, so misses on
//! different pages overlap and a second fetch of the same page waits on that
//! lock instead of reading twice.
//!
//! Frames are carved from one anonymous mapping sized to the pool's
//! capacity ([`crate::frames`]): made at open, touched only as pages are
//! loaded, and unmapped when the pool (and the last page image it handed
//! out) is dropped, so a closed pool returns its memory to the kernel.

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::frames::FrameArena;
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Running statistics of a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches satisfied from memory.
    pub hits: u64,
    /// Fetches that had to read from disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back during eviction or flush.
    pub writebacks: u64,
}

struct Frame {
    page: Arc<RwLock<Page>>,
    pin_count: usize,
    /// The unpinned frame of lowest rank is evicted first. A hit, a new page
    /// and an ordinary miss take the pool's next tick (most recent goes
    /// last); a scan-mode miss takes its negative (most recent goes first).
    rank: i64,
    /// This frame's key in [`PoolInner::order`]. A hit only raises `rank`;
    /// the next victim search to meet the frame re-files it.
    filed: i64,
    /// The fetch that missed on this page is still reading it in, holding
    /// the page's write lock.
    loading: bool,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    /// Every frame by `filed` rank: victims come off the low end.
    order: BTreeMap<i64, PageId>,
    tick: i64,
    stats: PoolStats,
}

impl PoolInner {
    /// Add a frame for `id`, pinned once.
    fn insert(&mut self, id: PageId, page: Arc<RwLock<Page>>, rank: i64, loading: bool) {
        let frame = Frame {
            page,
            pin_count: 1,
            rank,
            filed: rank,
            loading,
        };
        self.frames.insert(id, frame);
        self.order.insert(rank, id);
    }

    /// Take `id`'s frame out. Its memory goes back to the mapping once
    /// nobody holds the page any more.
    fn remove(&mut self, id: PageId) {
        if let Some(frame) = self.frames.remove(&id) {
            self.order.remove(&frame.filed);
        }
    }

    /// The unpinned frame of lowest rank.
    fn victim(&mut self) -> Option<PageId> {
        let mut from = i64::MIN;
        loop {
            let (&filed, &id) = self.order.range(from..).next()?;
            let frame = self.frames.get_mut(&id).expect("every filed frame exists");
            if frame.rank != filed {
                // Hit since it was filed: its rank only rose, so it moves up.
                frame.filed = frame.rank;
                self.order.remove(&filed);
                self.order.insert(frame.rank, id);
            } else if frame.pin_count == 0 {
                return Some(id);
            } else {
                from = filed + 1;
            }
        }
    }
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    /// Where page images live; `None` if the kernel refused the mapping, and
    /// then every image is a heap buffer of its own.
    frames: Option<Arc<FrameArena>>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool holding at most `capacity` frames.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        BufferPool {
            disk,
            capacity,
            frames: FrameArena::map(capacity),
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// A pool sized by a byte budget (the paper's configuration style).
    pub fn with_budget_bytes(disk: Arc<DiskManager>, bytes: usize) -> Self {
        Self::new(disk, (bytes / PAGE_SIZE).max(2))
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Snapshot of pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Resident pages somebody pins right now.
    pub fn pinned_pages(&self) -> usize {
        let inner = self.inner.lock();
        inner.frames.values().filter(|f| f.pin_count > 0).count()
    }

    /// How many of `ids` are resident right now.
    pub fn resident_among(&self, ids: impl IntoIterator<Item = PageId>) -> usize {
        let inner = self.inner.lock();
        ids.into_iter()
            .filter(|id| inner.frames.contains_key(id))
            .count()
    }

    /// Fetch a page, reading from disk on a miss; the returned guard pins it.
    pub fn fetch(self: &Arc<Self>, id: PageId) -> Result<PageGuard> {
        self.fetch_ranked(id, false)
    }

    /// [`BufferPool::fetch`] for a start-to-end read of something larger than
    /// the pool: a page that has to be read from disk is the next to be
    /// evicted, not the last, so a repeated scan keeps what fits resident.
    pub fn fetch_scan(self: &Arc<Self>, id: PageId) -> Result<PageGuard> {
        self.fetch_ranked(id, true)
    }

    fn fetch_ranked(self: &Arc<Self>, id: PageId, scan: bool) -> Result<PageGuard> {
        loop {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let Some(frame) = inner.frames.get_mut(&id) else {
                return self.load(inner, id, scan);
            };
            frame.pin_count += 1;
            frame.rank = tick;
            let (page, loading) = (frame.page.clone(), frame.loading);
            inner.stats.hits += 1;
            drop(inner);
            if loading {
                // Wait for the read to finish. If it failed, the frame went
                // away, and this fetch's pin with it: start over.
                drop(page.read());
                let same = |f: &Frame| Arc::ptr_eq(&f.page, &page);
                if !self.inner.lock().frames.get(&id).is_some_and(same) {
                    continue;
                }
            }
            return Ok(self.guard(id, page));
        }
    }

    /// The miss half of a fetch: publish a loading frame for `id`, then read
    /// the page with the pool unlocked.
    fn load(
        self: &Arc<Self>,
        mut inner: MutexGuard<'_, PoolInner>,
        id: PageId,
        scan: bool,
    ) -> Result<PageGuard> {
        inner.stats.misses += 1;
        self.evict_if_full(&mut inner)?;
        let page = Arc::new(RwLock::new(self.frame(id)));
        let mut image = page.write();
        let rank = if scan { -inner.tick } else { inner.tick };
        inner.insert(id, page.clone(), rank, true);
        drop(inner);
        let read = self.disk.read_into(&mut image);
        let mut inner = self.inner.lock();
        if let Err(e) = read {
            inner.remove(id);
            return Err(e);
        }
        inner
            .frames
            .get_mut(&id)
            .expect("a loading frame is pinned")
            .loading = false;
        drop(image);
        Ok(self.guard(id, page))
    }

    /// A clean image for page `id` in a free frame of the mapping, holding
    /// whatever the frame held last. Between a page leaving the pool and its
    /// last reader letting go of it every frame can be taken; the image is
    /// then a heap buffer of its own.
    fn frame(&self, id: PageId) -> Page {
        match self.frames.as_ref().and_then(FrameArena::take) {
            Some(slot) => Page::in_frame(id, slot),
            None => Page::new(id),
        }
    }

    fn guard(self: &Arc<Self>, id: PageId, page: Arc<RwLock<Page>>) -> PageGuard {
        PageGuard {
            pool: self.clone(),
            id,
            page,
        }
    }

    /// Allocate a brand-new page and pin it.
    pub fn create_page(self: &Arc<Self>) -> Result<PageGuard> {
        let id = self.disk.allocate_page();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        self.evict_if_full(&mut inner)?;
        // An all-zero image is a valid empty page; writing it also forces
        // the new page dirty, so it reaches disk even if never edited.
        let mut fresh = self.frame(id);
        fresh.bytes_mut().fill(0);
        let page = Arc::new(RwLock::new(fresh));
        inner.insert(id, page.clone(), tick, false);
        Ok(self.guard(id, page))
    }

    fn evict_if_full(&self, inner: &mut PoolInner) -> Result<()> {
        while inner.frames.len() >= self.capacity {
            let Some(victim) = inner.victim() else {
                return Err(Error::PoolExhausted {
                    frames: self.capacity,
                });
            };
            {
                let mut page = inner.frames[&victim].page.write();
                if page.is_dirty() {
                    self.disk.write_page(&page)?;
                    page.mark_clean();
                    inner.stats.writebacks += 1;
                }
            }
            inner.remove(victim);
            inner.stats.evictions += 1;
        }
        Ok(())
    }

    /// Drop `ids` — pages of a deleted relation — without write-back and put
    /// them on the disk manager's free list. Returns how many were freed. A
    /// page somebody still pins is skipped and stays allocated as dead
    /// space: its holder may yet read it, and its id must not be reissued.
    pub fn discard_pages(&self, ids: &[PageId]) -> usize {
        let mut inner = self.inner.lock();
        let mut freed = 0;
        for id in ids {
            if inner.frames.get(id).is_some_and(|f| f.pin_count > 0) {
                continue;
            }
            inner.remove(*id);
            self.disk.free_page(*id);
            freed += 1;
        }
        freed
    }

    /// Drop the unpinned frames of `ids` — pages the pool reads but does not
    /// own, such as an artifact's — without write-back, leaving the pages
    /// allocated to their owner, whose next write goes around the pool.
    pub fn forget_pages(&self, ids: &[PageId]) {
        let mut inner = self.inner.lock();
        for id in ids {
            if inner.frames.get(id).is_none_or(|f| f.pin_count == 0) {
                inner.remove(*id);
            }
        }
    }

    fn unpin(&self, id: PageId) {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.pin_count = frame.pin_count.saturating_sub(1);
        }
    }

    /// Write every dirty resident page back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let inner = self.inner.lock();
        // A frame still loading is clean, and its reader holds its lock.
        for frame in inner.frames.values().filter(|f| !f.loading) {
            let mut page = frame.page.write();
            if page.is_dirty() {
                self.disk.write_page(&page)?;
                page.mark_clean();
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident_pages())
            .field("stats", &self.stats())
            .finish()
    }
}

/// RAII pin on a buffered page.
///
/// While a guard lives, the page cannot be evicted. Access the page through
/// [`read`](Self::read) / [`write`](Self::write).
pub struct PageGuard {
    pool: Arc<BufferPool>,
    id: PageId,
    page: Arc<RwLock<Page>>,
}

impl PageGuard {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Shared read access to the page.
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, Page> {
        self.page.read()
    }

    /// Exclusive write access to the page.
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, Page> {
        self.page.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.pool.unpin(self.id);
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(DiskManager::temp().unwrap()),
            frames,
        ))
    }

    #[test]
    fn create_and_refetch() {
        let p = pool(4);
        let id = {
            let g = p.create_page().unwrap();
            g.write().insert_tuple(b"cached").unwrap();
            g.id()
        };
        let g = p.fetch(id).unwrap();
        assert_eq!(g.read().tuple(0).unwrap(), b"cached");
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn eviction_spills_dirty_pages() {
        let p = pool(2);
        let mut ids = Vec::new();
        for i in 0..5 {
            let g = p.create_page().unwrap();
            g.write()
                .insert_tuple(format!("tuple-{i}").as_bytes())
                .unwrap();
            ids.push(g.id());
        }
        // Pool held only 2 frames, so at least 3 pages were spilled.
        let s = p.stats();
        assert!(s.evictions >= 3, "evictions = {}", s.evictions);
        assert!(s.writebacks >= 3);
        // Every page must still be readable (from disk).
        for (i, id) in ids.iter().enumerate() {
            let g = p.fetch(*id).unwrap();
            assert_eq!(g.read().tuple(0).unwrap(), format!("tuple-{i}").as_bytes());
        }
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let g0 = p.create_page().unwrap();
        let g1 = p.create_page().unwrap();
        // Both frames pinned: the next create must fail.
        let err = p.create_page().unwrap_err();
        assert!(matches!(err, Error::PoolExhausted { frames: 2 }));
        drop(g0);
        // Now one frame can be evicted.
        let g2 = p.create_page().unwrap();
        drop(g1);
        drop(g2);
    }

    #[test]
    fn discarded_pages_are_never_written_and_their_ids_are_reused() {
        let p = pool(4);
        let ids: Vec<PageId> = (0..3)
            .map(|i| {
                let g = p.create_page().unwrap();
                g.write().bytes_mut()[0] = i;
                g.id()
            })
            .collect();
        assert_eq!(p.discard_pages(&ids), 3);
        assert_eq!(p.resident_pages(), 0);
        // The dirty frames are gone, so a flush has nothing of theirs to write.
        p.flush_all().unwrap();
        assert_eq!(p.disk().write_count(), 0);
        let reused: Vec<PageId> = (0..3).map(|_| p.create_page().unwrap().id()).collect();
        for id in &ids {
            assert!(reused.contains(id), "{id} was not reused");
        }
        assert_eq!(p.disk().num_pages(), 3);
    }

    #[test]
    fn discard_frees_spilled_pages_and_skips_pinned_ones() {
        let p = pool(2);
        let spilled = p.create_page().unwrap().id();
        let pinned = p.create_page().unwrap();
        drop(p.create_page().unwrap()); // evicts `spilled` to disk
        assert_eq!(p.discard_pages(&[spilled, pinned.id()]), 1);
        assert_eq!(p.disk().free_pages(), 1);
        // The pinned page is still there, readable through its guard and by id.
        pinned.write().bytes_mut()[7] = 9;
        assert_eq!(p.fetch(pinned.id()).unwrap().read().bytes()[7], 9);
        assert_eq!(p.create_page().unwrap().id(), spilled);
    }

    /// `n` pages holding their index in byte 0, on disk and nowhere else:
    /// whatever was resident is written out too, and the pool is left empty.
    fn spilled_pages(p: &Arc<BufferPool>, n: usize) -> Vec<PageId> {
        let ids: Vec<PageId> = (0..n)
            .map(|i| {
                let g = p.create_page().unwrap();
                g.write().bytes_mut()[0] = i as u8;
                g.id()
            })
            .collect();
        let filler: Vec<PageId> = (0..p.capacity())
            .map(|_| p.create_page().unwrap().id())
            .collect();
        assert_eq!(p.discard_pages(&filler), filler.len());
        assert_eq!(p.resident_pages(), 0);
        ids
    }

    #[test]
    fn racing_fetches_of_an_evicted_page_read_it_once() {
        const THREADS: usize = 8;
        let p = pool(4);
        let id = spilled_pages(&p, 1)[0];
        let reads = p.disk().read_count();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let g = p.fetch(id).unwrap();
                    assert_eq!(g.read().bytes()[0], 0);
                    barrier.wait(); // every guard alive at once: one frame, THREADS pins
                });
            }
        });
        assert_eq!(p.disk().read_count(), reads + 1);
        let s = p.stats();
        assert_eq!(s.hits as usize, THREADS - 1);
    }

    #[test]
    fn misses_on_different_pages_read_outside_the_pool_mutex() {
        use std::sync::{Condvar, Mutex as StdMutex};
        let p = pool(4);
        let ids = spilled_pages(&p, 2);
        // Each read waits inside the disk manager until both are there (or
        // gives up after a while, so that a pool which reads under its mutex
        // fails the assertion below rather than hanging).
        let inside = Arc::new((StdMutex::new(0usize), Condvar::new()));
        let together = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hook = {
            let (inside, together) = (inside.clone(), together.clone());
            move |_| {
                let (count, arrived) = &*inside;
                let mut count = count.lock().unwrap();
                *count += 1;
                arrived.notify_all();
                let (count, _) = arrived
                    .wait_timeout_while(count, std::time::Duration::from_secs(5), |c| *c < 2)
                    .unwrap();
                if *count >= 2 {
                    together.store(true, std::sync::atomic::Ordering::SeqCst);
                }
                Ok(())
            }
        };
        p.disk().set_read_hook(Some(Arc::new(hook)));
        std::thread::scope(|s| {
            for (i, id) in ids.iter().enumerate() {
                let p = &p;
                s.spawn(move || assert_eq!(p.fetch(*id).unwrap().read().bytes()[0], i as u8));
            }
        });
        assert!(
            together.load(std::sync::atomic::Ordering::SeqCst),
            "the second miss could not start its read while the first was in progress"
        );
    }

    #[test]
    fn a_failed_read_leaves_no_frame_and_the_next_fetch_retries() {
        let p = pool(4);
        let id = spilled_pages(&p, 1)[0];
        let other = p.create_page().unwrap().id();
        p.disk().set_read_hook(Some(Arc::new(|_| {
            Err(std::io::Error::other("injected read fault"))
        })));
        assert!(matches!(p.fetch(id), Err(Error::Io(_))));
        assert!(p.fetch_scan(id).is_err());
        assert_eq!(p.resident_pages(), 1);
        assert_eq!(p.stats().misses, 2);
        p.disk().set_read_hook(None);
        assert_eq!(p.fetch(id).unwrap().read().bytes()[0], 0);
        assert_eq!(p.resident_pages(), 2);
        drop(p.fetch(other).unwrap());
        assert_eq!(
            p.stats().hits,
            1,
            "the failed fetches displaced a resident page"
        );
    }

    #[test]
    fn a_fetch_that_waited_on_a_failed_read_reads_the_page_itself() {
        let p = pool(4);
        let id = spilled_pages(&p, 1)[0];
        // The first read fails, but only once a second fetch has pinned the
        // loading frame and is waiting on it; that fetch must then retry.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let pool = Arc::downgrade(&p);
        let hook = {
            let calls = calls.clone();
            move |_| {
                if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) > 0 {
                    return Ok(());
                }
                let pool = pool.upgrade().expect("pool is alive");
                while pool.stats().hits == 0 {
                    std::thread::yield_now();
                }
                Err(std::io::Error::other("injected read fault"))
            }
        };
        p.disk().set_read_hook(Some(Arc::new(hook)));
        std::thread::scope(|s| {
            let first = s.spawn(|| p.fetch(id).map(|g| g.read().bytes()[0]));
            while p.stats().misses == 0 {
                std::thread::yield_now();
            }
            let second = s.spawn(|| p.fetch(id).map(|g| g.read().bytes()[0]));
            assert!(first.join().unwrap().is_err());
            assert_eq!(second.join().unwrap().unwrap(), 0);
        });
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(p.resident_pages(), 1);
    }

    /// One start-to-end read of `ids` in scan mode; returns the hits.
    fn scan(p: &Arc<BufferPool>, ids: &[PageId]) -> u64 {
        let before = p.stats().hits;
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.fetch_scan(*id).unwrap().read().bytes()[0], i as u8);
        }
        p.stats().hits - before
    }

    #[test]
    fn a_cyclic_scan_keeps_what_fits_and_leaves_a_working_set_alone() {
        const FRAMES: usize = 16;
        const HOT: usize = 4;
        let p = pool(FRAMES);
        let relation = spilled_pages(&p, 2 * FRAMES);
        let hot = spilled_pages(&p, HOT);
        let touch_hot = || {
            let before = p.stats().hits;
            for (i, id) in hot.iter().enumerate() {
                assert_eq!(p.fetch(*id).unwrap().read().bytes()[0], i as u8);
            }
            p.stats().hits - before
        };
        touch_hot();
        scan(&p, &relation);
        for cycle in 2..=5 {
            // The working set fetched between cycles was not displaced by the
            // scan's misses, and the scan finds all of the pool but it.
            assert_eq!(touch_hot(), HOT as u64, "cycle {cycle}");
            let hits = scan(&p, &relation);
            assert!(
                hits >= (FRAMES - HOT - 1) as u64,
                "cycle {cycle}: {hits} hits"
            );
        }
        // Plain LRU on the same scan never hits at all.
        let lru = pool(FRAMES);
        let relation = spilled_pages(&lru, 2 * FRAMES);
        for _ in 0..3 {
            let before = lru.stats().hits;
            for id in &relation {
                drop(lru.fetch(*id).unwrap());
            }
            assert_eq!(lru.stats().hits, before);
        }
    }

    #[test]
    fn a_scan_never_evicts_a_pinned_page() {
        let p = pool(3);
        let relation = spilled_pages(&p, 8);
        let pinned = p.fetch_scan(relation[0]).unwrap();
        let also = p.fetch(relation[1]).unwrap();
        for _ in 0..3 {
            scan(&p, &relation);
        }
        assert_eq!(pinned.read().bytes()[0], 0);
        assert_eq!(also.read().bytes()[0], 1);
        let reads = p.disk().read_count();
        drop(p.fetch(relation[0]).unwrap());
        drop(p.fetch(relation[1]).unwrap());
        assert_eq!(p.disk().read_count(), reads, "a pinned page left the pool");
    }

    #[test]
    fn a_sealed_page_is_verified_on_every_miss_and_its_frame_forgotten() {
        use std::os::unix::fs::FileExt;
        let p = pool(2);
        let id = p.disk().allocate_page();
        p.disk().write_sealed(id, &[5; PAGE_SIZE]).unwrap();
        assert_eq!(p.fetch(id).unwrap().read().bytes()[0], 5);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(p.disk().path())
            .unwrap();
        let at = id.0 * PAGE_SIZE as u64 + 777;
        file.write_all_at(&[6], at).unwrap();
        // Resident, the page is what was read; a miss reads the flip.
        assert_eq!(p.fetch(id).unwrap().read().bytes()[777], 5);
        p.forget_pages(&[id]);
        assert_eq!(p.resident_pages(), 0);
        assert_eq!(p.disk().free_pages(), 0, "forgetting frees nothing");
        for fetch in [BufferPool::fetch, BufferPool::fetch_scan] {
            let err = fetch(&p, id).unwrap_err();
            assert!(
                matches!(err, Error::Checksum { page } if page == id.0),
                "{err}"
            );
            assert_eq!(p.resident_pages(), 0, "a failed read leaves no frame");
        }
        file.write_all_at(&[5], at).unwrap();
        assert_eq!(p.fetch_scan(id).unwrap().read().bytes()[777], 5);
        // A pinned frame is not forgotten.
        let pinned = p.fetch(id).unwrap();
        p.forget_pages(&[id]);
        assert_eq!(p.resident_pages(), 1);
        drop(pinned);
    }

    #[test]
    fn evicted_buffers_are_reused_and_new_pages_start_empty() {
        let p = pool(2);
        let ids = spilled_pages(&p, 3);
        // Frames that now hold someone else's old bytes.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.fetch(*id).unwrap().read().bytes()[0], i as u8);
        }
        let fresh = p.create_page().unwrap();
        assert!(fresh.read().bytes().iter().all(|b| *b == 0));
        assert_eq!(fresh.read().live_tuples(), 0);
        // An allocated-but-never-written page loaded into a used buffer, too.
        let never_written = p.disk().allocate_page();
        assert!(p
            .fetch(never_written)
            .unwrap()
            .read()
            .bytes()
            .iter()
            .all(|b| *b == 0));
    }

    #[test]
    fn frames_come_from_the_mapping_and_go_back_when_the_pool_closes() {
        let p = pool(4);
        let arena = p.frames.clone().expect("the frames are mapped");
        let ids = spilled_pages(&p, 6);
        assert_eq!(arena.free_slots(), 4, "an empty pool holds no frame");
        for id in &ids[..4] {
            drop(p.fetch(*id).unwrap());
        }
        assert_eq!(arena.free_slots(), 0, "four resident pages, four frames");
        assert_eq!(p.discard_pages(&ids[..1]), 1);
        assert_eq!(arena.free_slots(), 1, "a discarded page frees its frame");
        // Evictions reuse frames; the mapping goes with the pool.
        for _ in 0..8 {
            drop(p.create_page().unwrap());
        }
        assert_eq!(arena.free_slots(), 0);
        let weak = Arc::downgrade(&arena);
        drop((arena, p));
        assert!(weak.upgrade().is_none(), "the pool's frames are unmapped");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let a = p.create_page().unwrap().id();
        let b = p.create_page().unwrap().id();
        // Touch `a` so `b` becomes the LRU victim.
        drop(p.fetch(a).unwrap());
        let _c = p.create_page().unwrap();
        let inner_has = |id: PageId| p.inner.lock().frames.contains_key(&id);
        assert!(inner_has(a));
        assert!(!inner_has(b));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let p = pool(2);
        let id = p.create_page().unwrap().id();
        drop(p.fetch(id).unwrap()); // hit
        let other = p.create_page().unwrap().id();
        drop(p.fetch(other).unwrap()); // hit
                                       // Evict `id` by filling the pool, then fetch it again -> miss.
        drop(p.create_page().unwrap());
        drop(p.create_page().unwrap());
        drop(p.fetch(id).unwrap());
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert!(s.misses >= 1);
    }

    #[test]
    fn flush_all_cleans_pages() {
        let p = pool(4);
        let g = p.create_page().unwrap();
        g.write().insert_tuple(b"dirty").unwrap();
        assert!(g.read().is_dirty());
        p.flush_all().unwrap();
        assert!(!g.read().is_dirty());
        // The image reached disk.
        let from_disk = p.disk().read_page(g.id()).unwrap();
        assert_eq!(from_disk.tuple(0).unwrap(), b"dirty");
    }

    #[test]
    fn budget_bytes_sizing() {
        let disk = Arc::new(DiskManager::temp().unwrap());
        let p = BufferPool::with_budget_bytes(disk, 10 * PAGE_SIZE + 5);
        assert_eq!(p.capacity(), 10);
    }

    #[test]
    fn concurrent_fetches_share_the_frame() {
        let p = pool(4);
        let id = {
            let g = p.create_page().unwrap();
            g.write().insert_tuple(b"shared").unwrap();
            g.id()
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let g = p.fetch(id).unwrap();
                        assert_eq!(g.read().tuple(0).unwrap(), b"shared");
                    }
                });
            }
        });
        assert_eq!(p.resident_pages(), 1);
    }
}
