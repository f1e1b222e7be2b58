//! Model artifacts are untrusted bytes: a session streams them from any
//! reader straight into its catalog (`serialize::store`). Every prefix, and
//! random byte flips, of V1 and V2 artifacts of three zoo models must decode
//! to `Err(Serde)` or to a model the bytes describe exactly — never a panic,
//! and never an allocation sized by a length field the input cannot back:
//!
//! * decoding a slice, no allocation exceeds the input (plus a fixed
//!   allowance for the model's own records: its layer list, a shape);
//! * decoding a stream, no allocation exceeds twice the bytes that have
//!   arrived (plus the same allowance) — a stream's length is not known.

use proptest::prelude::*;
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{serialize, zoo, Error, Model};
use relserve_storage::{ArtifactPages, DiskManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::{Arc, OnceLock};

/// Allocations a decode may make beyond its input: a model's layer list, a
/// shape's dims, an error message.
const RECORDS: usize = 4096;

thread_local! {
    /// The largest allocation this thread may make, while armed.
    static LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
    /// The largest allocation over the limit seen while armed, if any.
    static OVER: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, watching the armed thread's requests.
struct Watch;

fn note(size: usize) {
    let _ = LIMIT.try_with(|limit| {
        if let Some(limit) = limit.get() {
            if size > limit {
                OVER.with(|over| over.set(over.get().max(size)));
            }
        }
    });
}

unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Watch = Watch;

/// Run `f` with this thread's allocations capped at `limit`; returns what
/// `f` returned and the largest allocation over the cap, if any.
fn watched<T>(limit: usize, f: impl FnOnce() -> T) -> (T, Option<usize>) {
    OVER.with(|over| over.set(0));
    LIMIT.with(|l| l.set(Some(limit)));
    let out = f();
    LIMIT.with(|l| l.set(None));
    let over = OVER.with(Cell::get);
    (out, (over > 0).then_some(over))
}

/// A stream over `bytes` that raises the allocation cap to twice what it
/// has handed out, as bytes arrive.
struct Arriving<'a> {
    rest: &'a [u8],
    arrived: usize,
}

impl Read for Arriving<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.rest.read(buf)?;
        self.arrived += n;
        LIMIT.with(|l| l.set(Some(2 * self.arrived + RECORDS)));
        Ok(n)
    }
}

/// The three zoo models, and their artifacts: V2 as encoded, and the same
/// f32 dense stack as a V1 artifact (V1 has no quantized layers).
fn artifacts() -> &'static [(String, Vec<u8>)] {
    static ARTIFACTS: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    ARTIFACTS.get_or_init(encode_zoo)
}

fn encode_zoo() -> Vec<(String, Vec<u8>)> {
    let mut rng = seeded_rng(0xA27);
    let fraud = zoo::fraud_fc_256(&mut rng).unwrap();
    let int8 = quantize_int8(&fraud).unwrap().model;
    let conv = zoo::landcover(250, &mut rng).unwrap();
    let mut out: Vec<(String, Vec<u8>)> = [&fraud, &int8, &conv]
        .iter()
        .map(|m| (m.name().to_string(), serialize::to_bytes(m).unwrap()))
        .collect();
    let mut v1 = out[0].1.clone();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    out.push((format!("{} (V1)", fraud.name()), v1));
    out
}

/// `Err(Serde)`, or a model whose own encoding is `input` (up to the
/// version field, which is re-encoded as 2).
fn check_outcome(input: &[u8], decoded: relserve_nn::Result<Model>) -> Result<(), String> {
    match decoded {
        Err(Error::Serde(_)) => Ok(()),
        Err(other) => Err(format!("a malformed artifact gave {other:?}, not Serde")),
        Ok(model) => {
            let again = serialize::to_bytes(&model).map_err(|e| e.to_string())?;
            let same =
                again.len() == input.len() && again[..4] == input[..4] && again[8..] == input[8..];
            if same {
                Ok(())
            } else {
                Err("decoded a model its bytes do not describe".into())
            }
        }
    }
}

fn from_slice(input: &[u8]) -> Result<(), String> {
    let (decoded, over) = watched(input.len() + RECORDS, || serialize::from_bytes(input));
    if let Some(size) = over {
        return Err(format!(
            "allocated {size} B decoding {} B of input",
            input.len()
        ));
    }
    check_outcome(input, decoded)
}

fn from_stream(input: &[u8]) -> Result<(), String> {
    let stream = Arriving {
        rest: input,
        arrived: 0,
    };
    let (decoded, over) = watched(RECORDS, || serialize::from_reader(stream));
    if let Some(size) = over {
        return Err(format!("allocated {size} B ahead of the stream"));
    }
    check_outcome(input, decoded)
}

/// The streaming loader: into pages, which it gives back on an error.
fn into_pages(input: &[u8]) -> Result<(), String> {
    let disk = Arc::new(DiskManager::temp().unwrap());
    let sink = ArtifactPages::writer(disk.clone());
    let stream = Arriving {
        rest: input,
        arrived: 0,
    };
    let (stored, over) = watched(RECORDS, || serialize::store(stream, sink));
    if let Some(size) = over {
        return Err(format!("allocated {size} B ahead of the stream"));
    }
    match stored {
        Ok((model, artifact)) => {
            let back = serialize::from_artifact(&artifact).map_err(|e| e.to_string())?;
            check_outcome(input, Ok(back))?;
            let materialized = model.materialize().map_err(|e| e.to_string())?;
            (materialized == serialize::from_bytes(input).unwrap())
                .then_some(())
                .ok_or_else(|| "the stored model reads back as another".to_string())
        }
        Err(e) => {
            if (disk.free_pages() as u64) < disk.num_pages() {
                return Err("a failed load kept pages".into());
            }
            check_outcome(input, Err(e))
        }
    }
}

#[test]
fn every_prefix_is_a_serde_error() {
    // The watch sees this thread's allocations, and only while armed.
    let (_, over) = watched(64, || vec![0u8; 100]);
    assert_eq!(over, Some(100));
    assert_eq!(watched(64, || vec![0u8; 64]).1, None);
    for (name, bytes) in artifacts() {
        let bytes = &bytes[..];
        for end in 0..bytes.len() {
            let prefix = &bytes[..end];
            from_slice(prefix).unwrap_or_else(|e| panic!("{name}, prefix {end}: {e}"));
            // A stream is cut short the same way; sampled, as it re-reads.
            if end % 97 == 0 || end + 64 > bytes.len() {
                from_stream(prefix).unwrap_or_else(|e| panic!("{name}, stream {end}: {e}"));
                into_pages(prefix).unwrap_or_else(|e| panic!("{name}, pages {end}: {e}"));
            }
        }
        // And whole, every route decodes it.
        from_slice(bytes).unwrap();
        from_stream(bytes).unwrap();
        into_pages(bytes).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flips of one to four bytes anywhere — in half the cases within the
    /// first 96 bytes, where the lengths, shapes and tags of the header and
    /// the first layer are.
    #[test]
    fn flipped_bytes_decode_to_errors_or_to_what_they_say(
        which in 0usize..4,
        positions in proptest::collection::vec(any::<u64>(), 1..5),
        masks in proptest::collection::vec(1u8..=255, 4),
        in_header in any::<bool>(),
    ) {
        let (name, original) = &artifacts()[which];
        let mut bytes = original.clone();
        let span = if in_header { bytes.len().min(96) } else { bytes.len() };
        for (at, mask) in positions.iter().zip(&masks) {
            bytes[(at % span as u64) as usize] ^= mask;
        }
        for (route, outcome) in [
            ("slice", from_slice(&bytes)),
            ("stream", from_stream(&bytes)),
            ("pages", into_pages(&bytes)),
        ] {
            prop_assert!(outcome.is_ok(), "{} via {}: {:?}", name, route, outcome);
        }
    }
}
