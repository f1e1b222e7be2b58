//! Buffer pool with pin/unpin guards, dirty write-back, and pluggable
//! eviction (LRU or Clock).
//!
//! This is the mechanism that lets relation-centric execution process
//! tensors far larger than memory (Table 3): block pages that do not fit the
//! pool are evicted to disk and read back on demand. The pool's size is set
//! in bytes, mirroring the paper's "buffer pool set to 20 gigabytes"
//! configuration knob.
//!
//! §5.1 notes that "the buffer pool page replacement policy also needs to be
//! improved to coordinate the disparate access patterns of the vector data,
//! the relational data, and various indexes" — the [`EvictionPolicy`] seam
//! is where such policies plug in; LRU (default) and Clock are provided.

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Which page-replacement policy the pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used unpinned page (exact timestamps).
    #[default]
    Lru,
    /// Second-chance clock: cheaper bookkeeping, approximates LRU; behaves
    /// better under the looping scan patterns tensor-block joins produce.
    Clock,
}

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
    last_used: u64,
    /// Clock reference bit: set on access, cleared as the hand sweeps.
    referenced: bool,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    /// Clock-hand order (page ids in insertion order; the hand is an index).
    order: Vec<PageId>,
    hand: usize,
    tick: u64,
    stats: PoolStats,
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    policy: EvictionPolicy,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool holding at most `capacity` frames, with LRU eviction.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        Self::with_policy(disk, capacity, EvictionPolicy::Lru)
    }

    /// A pool with an explicit eviction policy.
    pub fn with_policy(disk: Arc<DiskManager>, capacity: usize, policy: EvictionPolicy) -> Self {
        BufferPool {
            disk,
            capacity: capacity.max(2),
            policy,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                order: Vec::new(),
                hand: 0,
                tick: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// A pool sized by a byte budget (the paper's configuration style).
    pub fn with_budget_bytes(disk: Arc<DiskManager>, bytes: usize) -> Self {
        Self::new(disk, (bytes / PAGE_SIZE).max(2))
    }

    /// The eviction policy in use.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
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

    /// Fetch a page, reading from disk on a miss; the returned guard pins it.
    pub fn fetch(self: &Arc<Self>, id: PageId) -> Result<PageGuard> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.pin_count += 1;
            frame.last_used = tick;
            frame.referenced = true;
            let page = frame.page.clone();
            inner.stats.hits += 1;
            return Ok(PageGuard {
                pool: self.clone(),
                id,
                page,
            });
        }
        inner.stats.misses += 1;
        self.evict_if_full(&mut inner)?;
        let page = Arc::new(RwLock::new(self.disk.read_page(id)?));
        inner.frames.insert(
            id,
            Frame {
                page: page.clone(),
                pin_count: 1,
                last_used: tick,
                referenced: true,
            },
        );
        inner.order.push(id);
        Ok(PageGuard {
            pool: self.clone(),
            id,
            page,
        })
    }

    /// Allocate a brand-new page and pin it.
    pub fn create_page(self: &Arc<Self>) -> Result<PageGuard> {
        let id = self.disk.allocate_page();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        self.evict_if_full(&mut inner)?;
        let mut fresh = Page::new(id);
        // Force the new page dirty so it reaches disk even if never edited.
        fresh.bytes_mut();
        let page = Arc::new(RwLock::new(fresh));
        inner.frames.insert(
            id,
            Frame {
                page: page.clone(),
                pin_count: 1,
                last_used: tick,
                referenced: true,
            },
        );
        inner.order.push(id);
        Ok(PageGuard {
            pool: self.clone(),
            id,
            page,
        })
    }

    fn pick_victim(&self, inner: &mut PoolInner) -> Option<PageId> {
        match self.policy {
            EvictionPolicy::Lru => inner
                .frames
                .iter()
                .filter(|(_, f)| f.pin_count == 0)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(id, _)| *id),
            EvictionPolicy::Clock => {
                // Drop stale entries lazily as the hand passes them.
                let mut sweeps = 0usize;
                let max_sweeps = inner.order.len() * 2 + 1;
                while sweeps < max_sweeps && !inner.order.is_empty() {
                    if inner.hand >= inner.order.len() {
                        inner.hand = 0;
                    }
                    let id = inner.order[inner.hand];
                    match inner.frames.get_mut(&id) {
                        None => {
                            inner.order.swap_remove(inner.hand);
                            continue;
                        }
                        Some(f) if f.pin_count > 0 => {
                            inner.hand += 1;
                        }
                        Some(f) if f.referenced => {
                            f.referenced = false; // second chance
                            inner.hand += 1;
                        }
                        Some(_) => {
                            inner.order.swap_remove(inner.hand);
                            return Some(id);
                        }
                    }
                    sweeps += 1;
                }
                None
            }
        }
    }

    fn evict_if_full(&self, inner: &mut PoolInner) -> Result<()> {
        while inner.frames.len() >= self.capacity {
            let Some(victim) = self.pick_victim(inner) else {
                return Err(Error::PoolExhausted {
                    frames: self.capacity,
                });
            };
            let frame = inner.frames.remove(&victim).expect("victim exists");
            let mut page = frame.page.write();
            if page.is_dirty() {
                self.disk.write_page(&page)?;
                page.mark_clean();
                inner.stats.writebacks += 1;
            }
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
        let PoolInner { frames, order, .. } = &mut *inner;
        let mut freed = 0;
        for id in ids {
            if frames.get(id).is_some_and(|f| f.pin_count > 0) {
                continue;
            }
            frames.remove(id);
            self.disk.free_page(*id);
            freed += 1;
        }
        if self.policy == EvictionPolicy::Clock {
            // A freed id may be reissued before the hand next passes its old
            // entry, which would then alias the new frame.
            order.retain(|id| frames.contains_key(id));
        }
        freed
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
        for frame in inner.frames.values() {
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

    #[test]
    fn clock_survives_discard_and_reuse() {
        let p = Arc::new(BufferPool::with_policy(
            Arc::new(DiskManager::temp().unwrap()),
            3,
            EvictionPolicy::Clock,
        ));
        for round in 0..20u8 {
            let ids: Vec<PageId> = (0..3)
                .map(|_| {
                    let g = p.create_page().unwrap();
                    g.write().bytes_mut()[0] = round;
                    g.id()
                })
                .collect();
            assert_eq!(p.fetch(ids[0]).unwrap().read().bytes()[0], round);
            assert_eq!(p.discard_pages(&ids[..2]), 2);
        }
        assert!(p.inner.lock().order.len() <= p.capacity() + 1);
        assert!(p.disk().num_pages() <= 3 + 20);
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
    fn clock_policy_spills_and_restores() {
        let p = Arc::new(BufferPool::with_policy(
            Arc::new(DiskManager::temp().unwrap()),
            2,
            EvictionPolicy::Clock,
        ));
        assert_eq!(p.policy(), EvictionPolicy::Clock);
        let mut ids = Vec::new();
        for i in 0..6 {
            let g = p.create_page().unwrap();
            g.write().insert_tuple(format!("c{i}").as_bytes()).unwrap();
            ids.push(g.id());
        }
        for (i, id) in ids.iter().enumerate() {
            let g = p.fetch(*id).unwrap();
            assert_eq!(g.read().tuple(0).unwrap(), format!("c{i}").as_bytes());
        }
        assert!(p.stats().evictions >= 4);
    }

    #[test]
    fn clock_gives_referenced_pages_a_second_chance() {
        let p = Arc::new(BufferPool::with_policy(
            Arc::new(DiskManager::temp().unwrap()),
            3,
            EvictionPolicy::Clock,
        ));
        let a = p.create_page().unwrap().id();
        let b = p.create_page().unwrap().id();
        let c = p.create_page().unwrap().id();
        // First eviction sweep clears every reference bit and evicts `a`.
        drop(p.create_page().unwrap());
        let resident = |id: PageId| p.inner.lock().frames.contains_key(&id);
        assert!(!resident(a));
        // Re-reference `b`; the next eviction must spare it and take the
        // unreferenced `c` instead — the second chance.
        drop(p.fetch(b).unwrap());
        drop(p.create_page().unwrap());
        assert!(resident(b), "referenced page was evicted");
        assert!(!resident(c), "unreferenced page survived");
    }

    #[test]
    fn clock_reports_exhaustion_when_all_pinned() {
        let p = Arc::new(BufferPool::with_policy(
            Arc::new(DiskManager::temp().unwrap()),
            2,
            EvictionPolicy::Clock,
        ));
        let _a = p.create_page().unwrap();
        let _b = p.create_page().unwrap();
        assert!(matches!(
            p.create_page().unwrap_err(),
            Error::PoolExhausted { .. }
        ));
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
