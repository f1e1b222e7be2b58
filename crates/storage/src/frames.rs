//! The buffer pool's frame memory: one anonymous mapping of page-sized
//! slots.
//!
//! The mapping is made when the pool opens and sized to its capacity, but a
//! slot costs no resident memory until a page is first loaded into it. A
//! page that leaves the pool gives its slot back to the pool, not to the
//! allocator, and the whole mapping goes back to the kernel when the last
//! page carved from it is dropped — so a closed session leaves no frames
//! behind in the process, as 64 KiB heap buffers did (the allocator kept
//! them resident after free).
//!
//! The workspace vendors no `libc` crate; `mmap`/`munmap` are declared
//! against the C library `std` already links, as `serve::sys` does.

use crate::page::PAGE_SIZE;
use parking_lot::Mutex;
use std::os::raw::{c_int, c_void};
use std::ptr::NonNull;
use std::sync::Arc;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
/// Reserve no swap for the mapping: a pool sized in gigabytes must open on
/// a host that could not back all of it at once.
const MAP_NORESERVE: c_int = 0x4000;
/// Back the mapping with transparent huge pages where the kernel can: a
/// fresh session's first query faults its frames in 2 MiB at a time
/// instead of 4 KiB (~4× faster for a 24 MiB pool), and slots are handed out
/// densely, so residency still tracks the frames in use.
const MADV_HUGEPAGE: c_int = 14;

/// `slots` page-sized frames in one anonymous mapping.
pub(crate) struct FrameArena {
    base: NonNull<u8>,
    slots: usize,
    /// Slots no page holds. Most recently freed first, so that the pool
    /// reuses memory it has already touched before it touches more.
    free: Mutex<Vec<usize>>,
}

// SAFETY: the arena hands each slot to at most one `FrameSlot` at a time
// (the free list is behind a mutex), and a slot's bytes are reachable only
// through that slot, so sharing the arena between threads shares no bytes.
unsafe impl Send for FrameArena {}
unsafe impl Sync for FrameArena {}

impl FrameArena {
    /// Map `slots` frames; `None` if the kernel refuses the mapping (the
    /// pool then falls back to heap pages).
    pub(crate) fn map(slots: usize) -> Option<Arc<FrameArena>> {
        let len = slots.checked_mul(PAGE_SIZE)?;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing touches no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return None;
        }
        // SAFETY: advice on the mapping just made; refusal changes nothing.
        unsafe {
            madvise(base, len, MADV_HUGEPAGE);
        }
        Some(Arc::new(FrameArena {
            base: NonNull::new(base.cast())?,
            slots,
            free: Mutex::new((0..slots).rev().collect()),
        }))
    }

    /// Frames no page holds.
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> usize {
        self.free.lock().len()
    }

    /// A free frame, if any.
    pub(crate) fn take(self: &Arc<Self>) -> Option<FrameSlot> {
        let index = self.free.lock().pop()?;
        Some(FrameSlot {
            arena: self.clone(),
            index,
        })
    }
}

impl Drop for FrameArena {
    fn drop(&mut self) {
        // SAFETY: every slot has been given back (each held an `Arc` to the
        // arena), so nothing refers into the mapping any more.
        unsafe {
            munmap(self.base.as_ptr().cast(), self.slots * PAGE_SIZE);
        }
    }
}

/// One frame of a [`FrameArena`], held by exactly one page image and given
/// back to the arena when dropped.
pub(crate) struct FrameSlot {
    arena: Arc<FrameArena>,
    index: usize,
}

impl FrameSlot {
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: slot `index < slots` lies inside the mapping, and this
        // slot is its only holder.
        unsafe {
            std::slice::from_raw_parts(
                self.arena.base.as_ptr().add(self.index * PAGE_SIZE),
                PAGE_SIZE,
            )
        }
    }

    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, and `&mut self` makes the access exclusive.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.arena.base.as_ptr().add(self.index * PAGE_SIZE),
                PAGE_SIZE,
            )
        }
    }
}

impl Drop for FrameSlot {
    fn drop(&mut self) {
        self.arena.free.lock().push(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_zeroed_and_reused_most_recent_first() {
        let arena = FrameArena::map(3).expect("an anonymous mapping");
        let mut a = arena.take().unwrap();
        let mut b = arena.take().unwrap();
        assert!(a.bytes().iter().all(|v| *v == 0), "fresh frames are zero");
        a.bytes_mut().fill(1);
        b.bytes_mut().fill(2);
        assert!(a.bytes().iter().all(|v| *v == 1));
        let c = arena.take().unwrap();
        assert!(arena.take().is_none(), "three slots, three holders");
        let b_index = b.index;
        drop(b);
        let again = arena.take().unwrap();
        assert_eq!(again.index, b_index);
        assert!(
            again.bytes().iter().all(|v| *v == 2),
            "a reused slot keeps its bytes"
        );
        drop((a, c, again));
        assert_eq!(arena.free_slots(), 3);
    }

    #[test]
    fn the_mapping_outlives_the_arena_handle_while_a_slot_is_held() {
        let arena = FrameArena::map(2).unwrap();
        let mut slot = arena.take().unwrap();
        drop(arena);
        slot.bytes_mut()[PAGE_SIZE - 1] = 7;
        assert_eq!(slot.bytes()[PAGE_SIZE - 1], 7);
    }
}
