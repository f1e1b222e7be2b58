//! Fixed-size pages with a slotted tuple layout.
//!
//! Layout of a slotted page (offsets in bytes, little endian):
//!
//! ```text
//! 0..4    slot_count: u32
//! 4..8    free_ptr:   u32   (offset where tuple data grows *down* from)
//! 8..     slot array: slot_count × { offset: u32, len: u32 }
//! ...     free space
//! ...     tuple payloads, packed from the end of the page downward
//! ```
//!
//! A slot with `len == 0` is a tombstone (deleted tuple).

use crate::error::{Error, Result};
use crate::frames::FrameSlot;

/// Size of every page in bytes (64 KiB).
pub const PAGE_SIZE: usize = 64 * 1024;

const HEADER: usize = 8;
const SLOT: usize = 8;

/// Identifier of a page within one [`crate::DiskManager`] file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Where a page image's bytes live: a buffer of its own, or a frame of the
/// buffer pool's mapping.
enum Image {
    Heap(Box<[u8]>),
    Frame(FrameSlot),
}

impl std::ops::Deref for Image {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Image::Heap(bytes) => bytes,
            Image::Frame(slot) => slot.bytes(),
        }
    }
}

impl std::ops::DerefMut for Image {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Image::Heap(bytes) => bytes,
            Image::Frame(slot) => slot.bytes_mut(),
        }
    }
}

/// A copy of a page lives on the heap, whatever held the original.
impl Clone for Image {
    fn clone(&self) -> Self {
        Image::Heap(Box::from(&self[..]))
    }
}

/// An in-memory page image plus its identity and dirty flag.
#[derive(Clone)]
pub struct Page {
    id: PageId,
    data: Image,
    dirty: bool,
}

impl Page {
    /// A zeroed page (valid empty slotted page: 0 slots, free_ptr at end).
    pub fn new(id: PageId) -> Self {
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        data[4..8].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        Page {
            id,
            data: Image::Heap(data),
            dirty: false,
        }
    }

    /// A clean page `id` whose image is the buffer pool frame `frame`, as
    /// the frame's previous holder left it.
    pub(crate) fn in_frame(id: PageId, frame: FrameSlot) -> Self {
        Page {
            id,
            data: Image::Frame(frame),
            dirty: false,
        }
    }

    /// Reconstruct a page from a disk image.
    pub fn from_bytes(id: PageId, bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(Error::Corrupt(format!(
                "page image is {} B, expected {PAGE_SIZE} B",
                bytes.len()
            )));
        }
        Ok(Page {
            id,
            data: Image::Heap(bytes.into_boxed_slice()),
            dirty: false,
        })
    }

    /// The image as the target of a disk read: the page stays clean.
    pub(crate) fn image_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The page's identity.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Raw page image.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw page image; marks the page dirty.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.dirty = true;
        &mut self.data
    }

    /// Whether the in-memory image differs from disk.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Mark the page clean (after write-back).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    fn slot_count(&self) -> u32 {
        u32::from_le_bytes(self.data[0..4].try_into().expect("header"))
    }

    fn free_ptr(&self) -> u32 {
        let v = u32::from_le_bytes(self.data[4..8].try_into().expect("header"));
        // A fresh all-zero image (never formatted) reads 0, meaning "end".
        if v == 0 && self.slot_count() == 0 {
            PAGE_SIZE as u32
        } else {
            v
        }
    }

    fn set_slot_count(&mut self, n: u32) {
        self.dirty = true;
        self.data[0..4].copy_from_slice(&n.to_le_bytes());
    }

    fn set_free_ptr(&mut self, p: u32) {
        self.dirty = true;
        self.data[4..8].copy_from_slice(&p.to_le_bytes());
    }

    fn slot(&self, i: u32) -> (u32, u32) {
        let base = HEADER + (i as usize) * SLOT;
        let off = u32::from_le_bytes(self.data[base..base + 4].try_into().expect("slot"));
        let len = u32::from_le_bytes(self.data[base + 4..base + 8].try_into().expect("slot"));
        (off, len)
    }

    fn set_slot(&mut self, i: u32, off: u32, len: u32) {
        self.dirty = true;
        let base = HEADER + (i as usize) * SLOT;
        self.data[base..base + 4].copy_from_slice(&off.to_le_bytes());
        self.data[base + 4..base + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes available for one more tuple (including its slot entry).
    fn free_space(&self) -> usize {
        let slots_end = HEADER + self.slot_count() as usize * SLOT;
        (self.free_ptr() as usize).saturating_sub(slots_end)
    }

    /// Largest tuple a completely empty page can store.
    pub const fn max_tuple_size() -> usize {
        PAGE_SIZE - HEADER - SLOT
    }

    /// Number of live (non-tombstone) tuples.
    pub fn live_tuples(&self) -> usize {
        (0..self.slot_count())
            .filter(|&i| self.slot(i).1 > 0)
            .count()
    }

    /// Insert a tuple; returns its slot index.
    pub fn insert_tuple(&mut self, payload: &[u8]) -> Result<u16> {
        if payload.len() > Self::max_tuple_size() {
            return Err(Error::TupleTooLarge {
                size: payload.len(),
                max: Self::max_tuple_size(),
            });
        }
        if payload.len() + SLOT > self.free_space() {
            return Err(Error::TupleTooLarge {
                size: payload.len(),
                max: self.free_space().saturating_sub(SLOT),
            });
        }
        let slot_idx = self.slot_count();
        let new_free = self.free_ptr() as usize - payload.len();
        self.data[new_free..new_free + payload.len()].copy_from_slice(payload);
        self.set_slot(slot_idx, new_free as u32, payload.len() as u32);
        self.set_slot_count(slot_idx + 1);
        self.set_free_ptr(new_free as u32);
        Ok(slot_idx as u16)
    }

    /// Read the tuple in `slot`.
    pub fn tuple(&self, slot: u16) -> Result<&[u8]> {
        let slot = slot as u32;
        if slot >= self.slot_count() {
            return Err(Error::TupleNotFound {
                page: self.id.0,
                slot: slot as u16,
            });
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return Err(Error::TupleNotFound {
                page: self.id.0,
                slot: slot as u16,
            });
        }
        Ok(&self.data[off as usize..off as usize + len as usize])
    }

    /// Tombstone the tuple in `slot` (space is not reclaimed until compaction).
    pub fn delete_tuple(&mut self, slot: u16) -> Result<()> {
        let slot = slot as u32;
        if slot >= self.slot_count() || self.slot(slot).1 == 0 {
            return Err(Error::TupleNotFound {
                page: self.id.0,
                slot: slot as u16,
            });
        }
        let (off, _) = self.slot(slot);
        self.set_slot(slot, off, 0);
        Ok(())
    }

    /// Iterate `(slot, payload)` over live tuples.
    pub fn iter_tuples(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            (len > 0).then(|| (i as u16, &self.data[off as usize..(off + len) as usize]))
        })
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id)
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .field("dirty", &self.dirty)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new(PageId(1));
        assert_eq!(p.live_tuples(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER);
        assert!(!p.is_dirty());
    }

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new(PageId(1));
        let s0 = p.insert_tuple(b"hello").unwrap();
        let s1 = p.insert_tuple(b"world!").unwrap();
        assert_eq!(p.tuple(s0).unwrap(), b"hello");
        assert_eq!(p.tuple(s1).unwrap(), b"world!");
        assert_eq!(p.live_tuples(), 2);
        assert!(p.is_dirty());
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut p = Page::new(PageId(1));
        let s0 = p.insert_tuple(b"a").unwrap();
        let s1 = p.insert_tuple(b"b").unwrap();
        p.delete_tuple(s0).unwrap();
        assert!(p.tuple(s0).is_err());
        assert_eq!(p.tuple(s1).unwrap(), b"b");
        assert_eq!(p.live_tuples(), 1);
        assert_eq!(p.slot_count(), 2);
        // Double delete fails.
        assert!(p.delete_tuple(s0).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new(PageId(1));
        let tuple = vec![0xabu8; 1000];
        let mut n = 0;
        while p.insert_tuple(&tuple).is_ok() {
            n += 1;
        }
        // 64 KiB / (1000 + 8 slot) ≈ 65 tuples.
        assert!((64..=66).contains(&n), "n = {n}");
        assert!(p.free_space() < 1008);
    }

    #[test]
    fn oversized_tuple_rejected_up_front() {
        let mut p = Page::new(PageId(1));
        let err = p.insert_tuple(&vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, Error::TupleTooLarge { .. }));
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new(PageId(7));
        p.insert_tuple(b"persist me").unwrap();
        p.insert_tuple(b"and me").unwrap();
        p.delete_tuple(0).unwrap();
        let image = p.bytes().to_vec();
        let q = Page::from_bytes(PageId(7), image).unwrap();
        assert_eq!(q.live_tuples(), 1);
        assert_eq!(q.tuple(1).unwrap(), b"and me");
        assert!(!q.is_dirty());
    }

    #[test]
    fn from_bytes_validates_length() {
        assert!(Page::from_bytes(PageId(1), vec![0; 100]).is_err());
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut p = Page::new(PageId(1));
        p.insert_tuple(b"x").unwrap();
        p.insert_tuple(b"y").unwrap();
        p.insert_tuple(b"z").unwrap();
        p.delete_tuple(1).unwrap();
        let collected: Vec<_> = p.iter_tuples().map(|(s, b)| (s, b.to_vec())).collect();
        assert_eq!(collected, vec![(0, b"x".to_vec()), (2, b"z".to_vec())]);
    }

    #[test]
    fn empty_payload_roundtrip() {
        // Zero-length tuples are indistinguishable from tombstones by design;
        // they should be rejected as not-found on read.
        let mut p = Page::new(PageId(1));
        let s = p.insert_tuple(b"").unwrap();
        assert!(p.tuple(s).is_err());
    }
}
