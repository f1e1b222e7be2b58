//! Model artifacts on pages.
//!
//! A loaded model's artifact — the `nn::serialize` byte stream — is the
//! session's one copy of the model's logical weights. It is written once,
//! a page at a time, straight to pages of the scratch file, and read back
//! only to build a weight's prepared form or weight relation or to reload
//! the model. Both directions go around the buffer pool: the artifact takes
//! no frames from the relations every query joins against.
//!
//! Each page's checksum is kept beside its id and checked on every read, so
//! a page that changed on disk is [`Error::Checksum`], never a wrong weight.

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE};
use std::sync::{Arc, OnceLock};

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

/// What a finished artifact is made of.
#[derive(Debug)]
struct Written {
    /// Each page of the stream, in order, with the checksum of its image.
    pages: Vec<(PageId, u64)>,
    /// Bytes in the stream; the last page is zero-padded past it.
    len: u64,
}

/// An append-only byte stream on checksummed pages of a [`DiskManager`],
/// readable once its [`ArtifactWriter`] has finished. Dropping it gives its
/// pages back to the disk manager's free list.
#[derive(Debug)]
pub struct ArtifactPages {
    disk: Arc<DiskManager>,
    written: OnceLock<Written>,
}

impl ArtifactPages {
    /// Start an artifact on `disk`.
    pub fn writer(disk: Arc<DiskManager>) -> ArtifactWriter {
        ArtifactWriter {
            artifact: Arc::new(ArtifactPages {
                disk,
                written: OnceLock::new(),
            }),
            pages: Vec::new(),
            page: vec![0; PAGE_SIZE].into_boxed_slice(),
            filled: 0,
        }
    }

    fn written(&self) -> Result<&Written> {
        self.written
            .get()
            .ok_or_else(|| Error::Corrupt("artifact read before it was finished".into()))
    }

    /// Bytes in the stream (0 until it is finished).
    pub fn len(&self) -> u64 {
        self.written.get().map_or(0, |w| w.len)
    }

    /// Whether the stream holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pages the stream occupies, in order.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.written
            .get()
            .map_or_else(Vec::new, |w| w.pages.iter().map(|(id, _)| *id).collect())
    }

    /// Bytes the stream's pages take on disk.
    pub fn bytes_on_disk(&self) -> u64 {
        self.written
            .get()
            .map_or(0, |w| (w.pages.len() * PAGE_SIZE) as u64)
    }

    /// A reader of the stream from byte `offset` on.
    pub fn reader(&self, offset: u64) -> Result<ArtifactReader<'_>> {
        let written = self.written()?;
        if offset > written.len {
            return Err(Error::Corrupt(format!(
                "artifact offset {offset} is past its end ({} B)",
                written.len
            )));
        }
        Ok(ArtifactReader {
            disk: &self.disk,
            written,
            pos: offset,
            page: vec![0; PAGE_SIZE].into_boxed_slice(),
            loaded: None,
        })
    }
}

impl Drop for ArtifactPages {
    fn drop(&mut self) {
        if let Some(written) = self.written.get() {
            for (id, _) in &written.pages {
                self.disk.free_page(*id);
            }
        }
    }
}

/// Writes an artifact a page at a time. Dropped unfinished, it gives back
/// the pages it wrote.
#[derive(Debug)]
pub struct ArtifactWriter {
    artifact: Arc<ArtifactPages>,
    pages: Vec<(PageId, u64)>,
    /// The page being filled.
    page: Box<[u8]>,
    filled: usize,
}

impl ArtifactWriter {
    /// The artifact being written: a handle to hand out now, readable once
    /// [`ArtifactWriter::finish`] has returned.
    pub fn artifact(&self) -> &Arc<ArtifactPages> {
        &self.artifact
    }

    /// Bytes written so far: the offset the next byte will have.
    pub fn position(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE + self.filled) as u64
    }

    /// Append `bytes`, writing every page they fill.
    pub fn write(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let take = bytes.len().min(PAGE_SIZE - self.filled);
            self.page[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled == PAGE_SIZE {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.page[self.filled..].fill(0);
        let id = self.artifact.disk.allocate_page();
        let written = self.artifact.disk.write_image(id, &self.page);
        if let Err(e) = written {
            self.artifact.disk.free_page(id);
            return Err(e);
        }
        self.pages.push((id, checksum(&self.page)));
        self.filled = 0;
        Ok(())
    }

    /// Write the last, partial page and make the artifact readable.
    pub fn finish(mut self) -> Result<Arc<ArtifactPages>> {
        let len = self.position();
        if self.filled > 0 {
            self.flush()?;
        }
        let pages = std::mem::take(&mut self.pages);
        self.artifact
            .written
            .set(Written { pages, len })
            .expect("an artifact is finished once");
        Ok(self.artifact.clone())
    }
}

impl Drop for ArtifactWriter {
    fn drop(&mut self) {
        for (id, _) in &self.pages {
            self.artifact.disk.free_page(*id);
        }
    }
}

/// Reads an artifact's bytes in order, a verified page at a time.
pub struct ArtifactReader<'a> {
    disk: &'a DiskManager,
    written: &'a Written,
    pos: u64,
    /// The image of page `loaded`, checksum verified: the page a read
    /// starts or ends inside of.
    page: Box<[u8]>,
    loaded: Option<usize>,
}

impl ArtifactReader<'_> {
    /// Bytes left before the end of the stream.
    pub fn remaining(&self) -> u64 {
        self.written.len - self.pos
    }

    /// Fill `out` with the next bytes of the stream.
    pub fn read_exact(&mut self, mut out: &mut [u8]) -> Result<()> {
        if out.len() as u64 > self.remaining() {
            return Err(Error::Corrupt(format!(
                "artifact read of {} B at offset {} runs past its end ({} B)",
                out.len(),
                self.pos,
                self.written.len
            )));
        }
        while !out.is_empty() {
            let index = (self.pos / PAGE_SIZE as u64) as usize;
            let at = (self.pos % PAGE_SIZE as u64) as usize;
            let take = out.len().min(PAGE_SIZE - at);
            if take == PAGE_SIZE && self.loaded != Some(index) {
                // A whole page lands in `out`: read and verify it there.
                let (page, rest) = std::mem::take(&mut out).split_at_mut(PAGE_SIZE);
                self.read_page(index, page)?;
                out = rest;
            } else {
                if self.loaded != Some(index) {
                    self.loaded = None;
                    let mut page = std::mem::take(&mut self.page);
                    let read = self.read_page(index, &mut page);
                    self.page = page;
                    read?;
                    self.loaded = Some(index);
                }
                let (head, rest) = std::mem::take(&mut out).split_at_mut(take);
                head.copy_from_slice(&self.page[at..at + take]);
                out = rest;
            }
            self.pos += take as u64;
        }
        Ok(())
    }

    /// Fill `out` with the next `4 · out.len()` bytes, as little-endian f32
    /// values, copied once: from the verified page straight into `out`.
    pub fn read_f32s(&mut self, out: &mut [f32]) -> Result<()> {
        // SAFETY: every bit pattern is an f32 and a u8 is aligned anywhere,
        // so `out`'s memory may be written as the bytes it is made of.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                out.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(out),
            )
        };
        self.read_exact(bytes)?;
        if cfg!(target_endian = "big") {
            for v in out.iter_mut() {
                *v = f32::from_bits(u32::from_le(v.to_bits()));
            }
        }
        Ok(())
    }

    /// Fill `out` with the next `out.len()` bytes, as i8 values.
    pub fn read_i8s(&mut self, out: &mut [i8]) -> Result<()> {
        // SAFETY: i8 and u8 have the same size, alignment and validity.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), out.len()) };
        self.read_exact(bytes)
    }

    /// Read page `index` of the stream into `image`, verified.
    fn read_page(&self, index: usize, image: &mut [u8]) -> Result<()> {
        let (id, sum) = self.written.pages[index];
        self.disk.read_image(id, image)?;
        if checksum(image) != sum {
            return Err(Error::Checksum { page: id.0 });
        }
        Ok(())
    }
}

/// The stream as a [`std::io::Read`]; a storage error travels inside the
/// `io::Error` (see [`Error::from_io`]).
impl std::io::Read for ArtifactReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (buf.len() as u64).min(self.remaining()) as usize;
        self.read_exact(&mut buf[..n])
            .map_err(std::io::Error::other)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn disk() -> Arc<DiskManager> {
        Arc::new(DiskManager::temp().unwrap())
    }

    fn stream(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn stored(disk: &Arc<DiskManager>, payload: &[u8], piece: usize) -> Arc<ArtifactPages> {
        let mut w = ArtifactPages::writer(disk.clone());
        for chunk in payload.chunks(piece.max(1)) {
            w.write(chunk).unwrap();
        }
        assert_eq!(w.position(), payload.len() as u64);
        w.finish().unwrap()
    }

    #[test]
    fn a_stream_reads_back_whole_and_from_any_offset() {
        let d = disk();
        let payload = stream(2 * PAGE_SIZE + 1234);
        for piece in [1, 977, PAGE_SIZE, 3 * PAGE_SIZE] {
            let artifact = stored(&d, &payload, piece);
            assert_eq!(artifact.len(), payload.len() as u64);
            assert_eq!(artifact.page_ids().len(), 3);
            assert_eq!(artifact.bytes_on_disk(), 3 * PAGE_SIZE as u64);
            let mut back = Vec::new();
            artifact.reader(0).unwrap().read_to_end(&mut back).unwrap();
            assert_eq!(back, payload, "written {piece} B at a time");
            let at = PAGE_SIZE - 3;
            let mut r = artifact.reader(at as u64).unwrap();
            let mut some = vec![0; 10];
            r.read_exact(&mut some).unwrap();
            assert_eq!(some, payload[at..at + 10]);
            assert_eq!(r.remaining(), (payload.len() - at - 10) as u64);
        }
        let empty = stored(&d, &[], 1);
        assert!(empty.is_empty() && empty.page_ids().is_empty());
        assert!(empty.reader(1).is_err());
    }

    #[test]
    fn artifact_pages_bypass_the_pool_and_are_freed_with_the_artifact() {
        let d = disk();
        let pool = crate::BufferPool::new(d.clone(), 4);
        let artifact = stored(&d, &stream(PAGE_SIZE + 1), 4096);
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.stats(), crate::PoolStats::default());
        assert_eq!(d.num_pages(), 2);
        drop(artifact);
        assert_eq!(d.free_pages(), 2);
        // An unfinished writer gives its pages back too.
        let mut w = ArtifactPages::writer(d.clone());
        w.write(&stream(2 * PAGE_SIZE)).unwrap();
        let handle = w.artifact().clone();
        drop(w);
        assert_eq!(d.free_pages(), 2);
        assert!(handle.reader(0).is_err(), "never finished, never readable");
        assert_eq!(d.num_pages(), 2, "the writer reused the freed ids");
    }

    #[test]
    fn values_read_back_as_written_across_page_boundaries() {
        let d = disk();
        let values: Vec<f32> = (0..3 * PAGE_SIZE / 4)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let mut w = ArtifactPages::writer(d);
        // An odd offset, so that values straddle pages.
        w.write(&[1, 2, 3]).unwrap();
        for v in &values {
            w.write(&v.to_le_bytes()).unwrap();
        }
        w.write(&[0x80, 0x7f, 0xff]).unwrap();
        let artifact = w.finish().unwrap();
        let mut r = artifact.reader(3).unwrap();
        let mut back = vec![0.0; values.len()];
        r.read_f32s(&mut back).unwrap();
        assert_eq!(back, values);
        let mut levels = [0i8; 3];
        r.read_i8s(&mut levels).unwrap();
        assert_eq!(levels, [-128, 127, -1]);
        assert!(r.read_i8s(&mut levels).is_err(), "past the end");
    }

    #[test]
    fn every_flipped_byte_is_a_checksum_error() {
        use std::os::unix::fs::FileExt;
        let d = disk();
        let payload = stream(PAGE_SIZE + 100);
        let artifact = stored(&d, &payload, PAGE_SIZE);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(d.path())
            .unwrap();
        let second = artifact.page_ids()[1];
        // A byte inside the payload, and one in the zero padding past it.
        for at in [7u64, 5000] {
            let offset = second.0 * PAGE_SIZE as u64 + at;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, offset).unwrap();
            file.write_all_at(&[byte[0] ^ 0x10], offset).unwrap();
            let mut r = artifact.reader(0).unwrap();
            let mut first = vec![0; PAGE_SIZE];
            r.read_exact(&mut first).unwrap();
            assert_eq!(first, payload[..PAGE_SIZE], "page 0 is intact");
            let err = r.read_exact(&mut [0; 1]).unwrap_err();
            assert!(
                matches!(err, Error::Checksum { page } if page == second.0),
                "{err}"
            );
            // Through `io::Read`, the same error rides inside.
            let io = artifact.reader(0).unwrap().read_to_end(&mut Vec::new());
            let err = Error::from_io(io.unwrap_err());
            assert!(matches!(err, Error::Checksum { .. }), "{err}");
            file.write_all_at(&byte, offset).unwrap();
        }
        let mut back = Vec::new();
        artifact.reader(0).unwrap().read_to_end(&mut back).unwrap();
        assert_eq!(back, payload, "restored bytes verify again");
    }

    #[test]
    fn checksum_sees_every_single_byte_change() {
        let image = stream(4096 + 5);
        let sum = checksum(&image);
        for at in 0..image.len() {
            for bit in [0x01, 0x80] {
                let mut changed = image.clone();
                changed[at] ^= bit;
                assert_ne!(checksum(&changed), sum, "byte {at} bit {bit:#x}");
            }
        }
        assert_ne!(checksum(&image[..4096]), checksum(&image[..4097]));
    }
}
