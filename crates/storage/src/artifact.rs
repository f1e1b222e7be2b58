//! Model artifacts on pages.
//!
//! A loaded model's artifact is the catalog's one stored form of the model,
//! written once, straight to pages of the scratch file, around the buffer
//! pool. Its byte stream — the `nn::serialize` stream — is one chain of
//! pages, except for each dense weight matrix, which is stored once, as the
//! blocks of its weight relation, on pages of its own that the artifact
//! also owns ([`ArtifactWriter::write_page`]). A query's block join reads
//! those pages through the pool; a reload, or a weight's packed form, reads
//! them around it ([`ArtifactPages::page_reader`]), as it reads the stream.
//!
//! Every page is sealed ([`DiskManager::write_sealed`]), so a page that
//! changed on disk is [`Error::Checksum`] on any read, never a wrong weight.

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE};
use std::sync::{Arc, OnceLock};

/// Side of the square blocks an artifact's dense weight matrices are stored
/// in, unless its writer is given another ([`ArtifactWriter::weight_block`]).
const DEFAULT_WEIGHT_BLOCK: usize = 256;

/// What a finished artifact is made of.
#[derive(Debug)]
struct Written {
    /// The pages of the stream, in order.
    stream: Vec<PageId>,
    /// Bytes in the stream; its last page is zero-padded past them.
    len: u64,
    /// The pages written outside the stream: its weight matrices' blocks.
    blocks: Vec<PageId>,
}

/// An append-only byte stream, and pages beside it, on sealed pages of a
/// [`DiskManager`], readable once its [`ArtifactWriter`] has finished.
/// Dropping it gives every page back to the disk manager's free list.
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
            stream: Vec::new(),
            blocks: Vec::new(),
            page: vec![0; PAGE_SIZE].into_boxed_slice(),
            filled: 0,
            scratch: vec![0; PAGE_SIZE].into_boxed_slice(),
            block: DEFAULT_WEIGHT_BLOCK,
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

    /// Every page the artifact occupies: the stream's in order, then the
    /// others in the order they were written.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.written.get().map_or_else(Vec::new, |w| {
            w.stream.iter().chain(&w.blocks).copied().collect()
        })
    }

    /// Bytes the artifact's pages take on disk.
    pub fn bytes_on_disk(&self) -> u64 {
        self.written.get().map_or(0, |w| {
            ((w.stream.len() + w.blocks.len()) * PAGE_SIZE) as u64
        })
    }

    /// A reader of the stream from byte `offset` on.
    pub fn reader(&self, offset: u64) -> Result<ArtifactReader<'_>> {
        let written = self.written()?;
        self.page_reader(&written.stream, written.len, offset)
    }

    /// A reader, from byte `offset` on, of `len` bytes laid over `pages` —
    /// pages of this artifact outside its stream, such as one block of a
    /// stored weight matrix — read and verified around the buffer pool.
    pub fn page_reader<'a>(
        &'a self,
        pages: &'a [PageId],
        len: u64,
        offset: u64,
    ) -> Result<ArtifactReader<'a>> {
        self.written()?;
        if offset > len || len > (pages.len() * PAGE_SIZE) as u64 {
            return Err(Error::Corrupt(format!(
                "artifact read at offset {offset} of {len} B over {} pages",
                pages.len()
            )));
        }
        Ok(ArtifactReader {
            disk: &self.disk,
            pages,
            len,
            pos: offset,
            page: Vec::new(),
            loaded: None,
        })
    }
}

impl Drop for ArtifactPages {
    fn drop(&mut self) {
        if let Some(written) = self.written.get() {
            for id in written.stream.iter().chain(&written.blocks) {
                self.disk.free_page(*id);
            }
        }
    }
}

/// Writes an artifact: its stream a page at a time, and pages beside it.
/// Dropped unfinished, it gives back every page it wrote.
#[derive(Debug)]
pub struct ArtifactWriter {
    artifact: Arc<ArtifactPages>,
    stream: Vec<PageId>,
    blocks: Vec<PageId>,
    /// The stream page being filled.
    page: Box<[u8]>,
    filled: usize,
    /// Where a page shorter than [`PAGE_SIZE`] is padded before it is written.
    scratch: Box<[u8]>,
    block: usize,
}

impl ArtifactWriter {
    /// This writer, storing weight matrices in `side`-square blocks: the
    /// block side of the relations that will join against them.
    pub fn weight_block(mut self, side: usize) -> Self {
        self.block = side.max(1);
        self
    }

    /// The side of the square blocks the artifact's weight matrices are
    /// stored in.
    pub fn block_side(&self) -> usize {
        self.block
    }

    /// The artifact being written: a handle to hand out now, readable once
    /// [`ArtifactWriter::finish`] has returned.
    pub fn artifact(&self) -> &Arc<ArtifactPages> {
        &self.artifact
    }

    /// Bytes written to the stream so far: the offset its next byte will
    /// have.
    pub fn position(&self) -> u64 {
        (self.stream.len() * PAGE_SIZE + self.filled) as u64
    }

    /// Append `bytes` to the stream, writing every page they fill.
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
        let id = seal(&self.artifact.disk, &self.page)?;
        self.stream.push(id);
        self.filled = 0;
        Ok(())
    }

    /// Write `bytes` (at most a page, zero-padded to one) as a page of the
    /// artifact outside its stream, and return its id.
    pub fn write_page(&mut self, bytes: &[u8]) -> Result<PageId> {
        let image = if bytes.len() == PAGE_SIZE {
            bytes
        } else {
            let (head, tail) = self.scratch.split_at_mut(bytes.len());
            head.copy_from_slice(bytes);
            tail.fill(0);
            &self.scratch
        };
        let id = seal(&self.artifact.disk, image)?;
        self.blocks.push(id);
        Ok(id)
    }

    /// Write the stream's last, partial page and make the artifact readable.
    pub fn finish(mut self) -> Result<Arc<ArtifactPages>> {
        let len = self.position();
        if self.filled > 0 {
            self.flush()?;
        }
        let written = Written {
            stream: std::mem::take(&mut self.stream),
            len,
            blocks: std::mem::take(&mut self.blocks),
        };
        self.artifact
            .written
            .set(written)
            .expect("an artifact is finished once");
        Ok(self.artifact.clone())
    }
}

/// Write `image` to a new sealed page of `disk`, giving the page back if the
/// write fails.
fn seal(disk: &DiskManager, image: &[u8]) -> Result<PageId> {
    let id = disk.allocate_page();
    if let Err(e) = disk.write_sealed(id, image) {
        disk.free_page(id);
        return Err(e);
    }
    Ok(id)
}

impl Drop for ArtifactWriter {
    fn drop(&mut self) {
        for id in self.stream.iter().chain(&self.blocks) {
            self.artifact.disk.free_page(*id);
        }
    }
}

/// Reads bytes laid over pages of an artifact in order, a verified page at
/// a time.
pub struct ArtifactReader<'a> {
    disk: &'a DiskManager,
    pages: &'a [PageId],
    len: u64,
    pos: u64,
    /// The image of page `loaded`, checksum verified: the page a read
    /// starts or ends inside of (allocated on the first such read).
    page: Vec<u8>,
    loaded: Option<usize>,
}

impl ArtifactReader<'_> {
    /// Bytes left before the end.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Move to byte `offset` of what the reader reads.
    pub fn seek(&mut self, offset: u64) -> Result<()> {
        if offset > self.len {
            return Err(Error::Corrupt(format!(
                "artifact seek to offset {offset} past its end ({} B)",
                self.len
            )));
        }
        self.pos = offset;
        Ok(())
    }

    /// Fill `out` with the next bytes.
    pub fn read_exact(&mut self, mut out: &mut [u8]) -> Result<()> {
        if out.len() as u64 > self.remaining() {
            return Err(Error::Corrupt(format!(
                "artifact read of {} B at offset {} runs past its end ({} B)",
                out.len(),
                self.pos,
                self.len
            )));
        }
        while !out.is_empty() {
            let index = (self.pos / PAGE_SIZE as u64) as usize;
            let at = (self.pos % PAGE_SIZE as u64) as usize;
            let take = out.len().min(PAGE_SIZE - at);
            if take == PAGE_SIZE && self.loaded != Some(index) {
                // A whole page lands in `out`: read and verify it there.
                let (page, rest) = std::mem::take(&mut out).split_at_mut(PAGE_SIZE);
                self.disk.read_image(self.pages[index], page)?;
                out = rest;
            } else {
                if self.loaded != Some(index) {
                    self.loaded = None;
                    self.page.resize(PAGE_SIZE, 0);
                    self.disk.read_image(self.pages[index], &mut self.page)?;
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
}

/// The bytes as a [`std::io::Read`]; a storage error travels inside the
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
    use crate::disk::checksum;
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
    fn pages_beside_the_stream_are_the_artifacts_and_read_back_verified() {
        use std::os::unix::fs::FileExt;
        let d = disk();
        let payload = stream(PAGE_SIZE + 300);
        let mut w = ArtifactPages::writer(d.clone()).weight_block(64);
        assert_eq!(w.block_side(), 64);
        w.write(b"head").unwrap();
        let full = w.write_page(&payload[..PAGE_SIZE]).unwrap();
        let short = w.write_page(&payload[PAGE_SIZE..]).unwrap();
        assert_eq!(w.position(), 4, "the stream holds none of it");
        let artifact = w.finish().unwrap();
        assert_eq!(artifact.page_ids().len(), 3);
        assert_eq!(artifact.bytes_on_disk(), 3 * PAGE_SIZE as u64);
        let chain = [full, short];
        let mut back = vec![0; payload.len()];
        let len = payload.len() as u64;
        artifact
            .page_reader(&chain, len, 0)
            .unwrap()
            .read_exact(&mut back)
            .unwrap();
        assert_eq!(back, payload);
        let mut tail = vec![0; 100];
        let mut r = artifact.page_reader(&chain, len, len - 100).unwrap();
        r.read_exact(&mut tail).unwrap();
        assert_eq!(tail, payload[payload.len() - 100..]);
        assert!(artifact
            .page_reader(&chain, 3 * PAGE_SIZE as u64, 0)
            .is_err());
        // A flipped byte in the padding of the short page fails its read.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(d.path())
            .unwrap();
        file.write_all_at(&[1], short.0 * PAGE_SIZE as u64 + 400)
            .unwrap();
        let err = artifact
            .page_reader(&chain, len, PAGE_SIZE as u64)
            .unwrap()
            .read_exact(&mut [0; 8])
            .unwrap_err();
        assert!(
            matches!(err, Error::Checksum { page } if page == short.0),
            "{err}"
        );
        drop(artifact);
        assert_eq!(d.free_pages(), 3, "every page goes back with the artifact");
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
