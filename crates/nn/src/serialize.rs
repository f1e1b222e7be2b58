//! Binary model serialization for catalog storage.
//!
//! Managing models *inside* the RDBMS catalog (§4.1) requires a storable
//! artifact. The format is a simple little-endian layout:
//!
//! ```text
//! "RSNN" magic | u32 version | name | input shape | u32 layer count | layers
//! ```
//!
//! where strings are `u32 len + bytes`, shapes are `u32 rank + u64 dims`,
//! tensors are `shape + f32 data`, and each layer is a tag byte plus its
//! fields.
//!
//! Both directions stream, so neither holds the artifact in one buffer:
//! [`encode`] is a [`Read`] that encodes a model a piece at a time as it is
//! read — a dense weight matrix a group of rows at a time, out of whichever
//! form holds it ([`crate::weight`]) — and the decoders read any [`Read`].
//! [`store`] decodes into a model whose dense weight matrices stay where it
//! writes them, on pages — how a session loads a model. It stores each one
//! once, as the blocks of its weight relation ([`WeightBlocks`]), and every
//! other byte of the artifact as a stream beside them ([`Artifact`]).
//!
//! Decoding treats its input as untrusted: every read is length-checked and
//! every size derived from a length field is computed with overflow checks,
//! so a malformed artifact is an [`Error::Serde`], never a panic. Nothing is
//! allocated for a length field before its bytes are known to exist: from a
//! slice or an artifact (of known length) the claim is checked against what
//! remains first; from a stream of unknown length an allocation grows with
//! the bytes that have arrived, to at most twice them.

use crate::error::{Error, Result};
use crate::layer::{Activation, Layer};
use crate::model::Model;
use crate::weight::{io_error, Precision, Weight, WeightReader};
use relserve_relational::{WeightBlocks, WeightBlocksWriter};
use relserve_storage::{ArtifactPages, ArtifactReader, ArtifactWriter, PageId};
use relserve_tensor::{BlockingSpec, Conv2dSpec, QuantizedTensor, Shape, Tensor, ELEM_BYTES};
use std::io::{self, Read};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"RSNN";
/// Format version 2 added int8 quantized dense layers ([`TAG_QDENSE`]);
/// version-1 artifacts (no quantized layers) still load.
const VERSION: u32 = 2;
const MIN_VERSION: u32 = 1;

const TAG_DENSE: u8 = 1;
const TAG_CONV: u8 = 2;
const TAG_FLATTEN: u8 = 3;
/// Quantized dense layer: activation, `u32 rows`, `u32 cols`, per-row f32
/// scales, row-major i8 levels, then the f32 bias tensor — true 1-byte
/// parameter storage, ~4× smaller than [`TAG_DENSE`].
const TAG_QDENSE: u8 = 4;

/// Shapes have at most this many dimensions.
const MAX_RANK: usize = 8;
/// Bytes a decoder moves per read, through a buffer on its stack.
const CHUNK: usize = 16 * 1024;

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::None => 0,
        Activation::Relu => 1,
        Activation::Softmax => 2,
        Activation::Sigmoid => 3,
        Activation::Tanh => 4,
    }
}

fn activation_from(tag: u8) -> Result<Activation> {
    Ok(match tag {
        0 => Activation::None,
        1 => Activation::Relu,
        2 => Activation::Softmax,
        3 => Activation::Sigmoid,
        4 => Activation::Tanh,
        other => return Err(Error::Serde(format!("unknown activation tag {other}"))),
    })
}

// ---- encoding ----

/// One piece of an artifact's byte stream.
enum Piece<'m> {
    /// Tags, lengths and shapes.
    Bytes(Vec<u8>),
    /// f32 values, little endian.
    F32(&'m [f32]),
    /// A dense weight matrix, as an artifact holds it.
    Weight(&'m Weight),
}

impl Piece<'_> {
    fn len(&self) -> usize {
        match self {
            Piece::Bytes(bytes) => bytes.len(),
            Piece::F32(values) => values.len() * ELEM_BYTES,
            Piece::Weight(weight) => weight.storage_bytes(),
        }
    }
}

/// The pieces of an artifact, header bytes gathered until the next value
/// piece.
#[derive(Default)]
struct Pieces<'m> {
    pieces: Vec<Piece<'m>>,
    head: Vec<u8>,
}

impl<'m> Pieces<'m> {
    fn u8(&mut self, v: u8) {
        self.head.push(v);
    }

    fn u32(&mut self, v: usize) {
        self.head.extend_from_slice(&(v as u32).to_le_bytes());
    }

    fn shape(&mut self, dims: &[usize]) {
        self.u32(dims.len());
        for d in dims {
            self.head.extend_from_slice(&(*d as u64).to_le_bytes());
        }
    }

    fn push(&mut self, piece: Piece<'m>) {
        if !self.head.is_empty() {
            self.pieces
                .push(Piece::Bytes(std::mem::take(&mut self.head)));
        }
        self.pieces.push(piece);
    }

    fn tensor(&mut self, t: &'m Tensor) {
        self.shape(t.shape().dims());
        self.push(Piece::F32(t.data()));
    }

    fn of(model: &'m Model) -> Vec<Piece<'m>> {
        let mut p = Pieces::default();
        p.head.extend_from_slice(MAGIC);
        p.u32(VERSION as usize);
        p.u32(model.name().len());
        p.head.extend_from_slice(model.name().as_bytes());
        p.shape(model.input_shape().dims());
        p.u32(model.layers().len());
        for layer in model.layers() {
            if let Some((weight, bias, activation)) = layer.dense_parts() {
                match weight.precision() {
                    Precision::F32 => {
                        p.u8(TAG_DENSE);
                        p.u8(activation_tag(activation));
                        p.shape(weight.tensor_shape().dims());
                    }
                    Precision::Int8 => {
                        let (rows, cols) = weight.shape();
                        p.u8(TAG_QDENSE);
                        p.u8(activation_tag(activation));
                        p.u32(rows);
                        p.u32(cols);
                    }
                }
                p.push(Piece::Weight(weight));
                p.tensor(bias);
                continue;
            }
            match layer {
                Layer::Conv2d {
                    kernel,
                    bias,
                    spec,
                    activation,
                } => {
                    p.u8(TAG_CONV);
                    p.u8(activation_tag(*activation));
                    p.u32(spec.stride);
                    p.u32(spec.padding);
                    p.tensor(kernel);
                    p.tensor(bias);
                }
                Layer::Flatten => p.u8(TAG_FLATTEN),
                dense => unreachable!("a {} layer has a weight", dense.kind()),
            }
        }
        if !p.head.is_empty() {
            p.pieces.push(Piece::Bytes(p.head));
        }
        p.pieces
    }
}

/// A model's artifact as a byte stream, encoded a piece at a time as it is
/// read; see [`encode`].
pub struct Encoder<'m> {
    pieces: Vec<Piece<'m>>,
    /// The piece being read, and how many of its bytes have been.
    piece: usize,
    at: usize,
    /// Open on the weight matrix being read.
    weight: Option<WeightReader<'m>>,
}

impl Encoder<'_> {
    /// Bytes in the whole artifact.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(Piece::len).sum()
    }

    /// Whether the artifact is empty (it never is: it has a header).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Encode `values`' little-endian bytes from byte `at` on over `out`.
fn encode_f32s(values: &[f32], at: usize, out: &mut [u8]) {
    let byte = |i: usize| values[i / ELEM_BYTES].to_le_bytes()[i % ELEM_BYTES];
    // Up to the first whole value, whole values, then the rest.
    let head = ((ELEM_BYTES - at % ELEM_BYTES) % ELEM_BYTES).min(out.len());
    let (first, rest) = out.split_at_mut(head);
    for (i, b) in first.iter_mut().enumerate() {
        *b = byte(at + i);
    }
    let from = (at + head) / ELEM_BYTES;
    let done = at + head + (rest.len() / ELEM_BYTES) * ELEM_BYTES;
    let mut whole = rest.chunks_exact_mut(ELEM_BYTES);
    for (dst, v) in (&mut whole).zip(&values[from..]) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    for (i, b) in whole.into_remainder().iter_mut().enumerate() {
        *b = byte(done + i);
    }
}

impl Read for Encoder<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut n = 0;
        while let Some(piece) = self.pieces.get(self.piece) {
            let take = (out.len() - n).min(piece.len() - self.at);
            let dst = &mut out[n..n + take];
            match piece {
                Piece::Bytes(bytes) => dst.copy_from_slice(&bytes[self.at..self.at + take]),
                Piece::F32(values) => encode_f32s(values, self.at, dst),
                Piece::Weight(weight) => {
                    if self.weight.is_none() {
                        self.weight = Some(weight.reader().map_err(io_error)?);
                    }
                    let matrix = self.weight.as_mut().expect("opened above");
                    matrix.read_exact(dst)?;
                }
            }
            n += take;
            self.at += take;
            if self.at < piece.len() {
                break;
            }
            self.piece += 1;
            self.at = 0;
            self.weight = None;
        }
        Ok(n)
    }
}

/// Encode `model` as its artifact's byte stream, a piece at a time as it is
/// read: no whole-model buffer exists. A dense weight matrix is read as its
/// piece is reached, out of whichever form holds it — raw values, packed
/// panels or quads, or its artifact's pages — so the bytes do not depend on
/// whether the model has run.
pub fn encode(model: &Model) -> Encoder<'_> {
    Encoder {
        pieces: Pieces::of(model),
        piece: 0,
        at: 0,
        weight: None,
    }
}

/// Serialize a model into one buffer (prefer [`encode`] for a stream).
pub fn to_bytes(model: &Model) -> Result<Vec<u8>> {
    let mut encoder = encode(model);
    let mut bytes = Vec::with_capacity(encoder.len());
    encoder
        .read_to_end(&mut bytes)
        .map_err(|e| read_error(e, "stored weight"))?;
    Ok(bytes)
}

// ---- decoding ----

/// What a read error means: a storage error riding inside it (a stored
/// weight's page, or an artifact's) stays one; the input ending early is a
/// truncated artifact.
fn read_error(e: io::Error, what: &str) -> Error {
    match relserve_storage::Error::from_io(e) {
        relserve_storage::Error::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Error::Serde(format!("truncated {what}"))
        }
        relserve_storage::Error::Io(e) => Error::Serde(format!("reading {what}: {e}")),
        carried => Error::Storage(carried),
    }
}

/// A dense layer's weight matrix in an [`Artifact`]: the layer's index, the
/// offset in the stream its payload goes in front of, and the matrix, stored
/// as the blocks of its weight relation.
type StoredWeight = (usize, u64, Weight);

/// Where a decoder puts dense weight matrices.
enum Sink<'s> {
    /// Into the model, as tensors.
    Memory,
    /// Onto pages: every other byte read is appended to the artifact's
    /// stream, and each dense weight matrix is written as the blocks of its
    /// weight relation beside it, a [`Layer::Stored`]'s [`Weight`].
    Pages {
        artifact: &'s mut ArtifactWriter,
        weights: Vec<StoredWeight>,
    },
}

struct Decoder<'s, R> {
    input: R,
    /// Input bytes not yet read, when known up front.
    remaining: Option<u64>,
    sink: Sink<'s>,
}

impl<R: Read> Decoder<'_, R> {
    /// Refuse a claim of `len` more bytes than the input can still hold.
    fn check(&self, len: usize, what: &str) -> Result<()> {
        match self.remaining {
            Some(left) if len as u64 > left => Err(Error::Serde(format!("truncated {what}"))),
            _ => Ok(()),
        }
    }

    /// Read `buf` from the input and append it to the artifact's stream.
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        self.take(buf, what)?;
        if let Sink::Pages { artifact, .. } = &mut self.sink {
            artifact.write(buf)?;
        }
        Ok(())
    }

    /// Read `buf` from the input.
    fn take(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        self.check(buf.len(), what)?;
        self.input
            .read_exact(buf)
            .map_err(|e| read_error(e, what))?;
        if let Some(left) = &mut self.remaining {
            *left -= buf.len() as u64;
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut bytes = [0; N];
        self.fill(&mut bytes, what)?;
        Ok(bytes)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Read `n` values of `size` bytes each, handing them to `visit` a
    /// chunk of whole values at a time; `stream` says whether they are
    /// appended to the artifact's stream too.
    fn chunks(
        &mut self,
        n: usize,
        size: usize,
        what: &str,
        stream: bool,
        mut visit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        let len = n
            .checked_mul(size)
            .ok_or_else(|| Error::Serde(format!("{what}: {n} values overflow")))?;
        self.check(len, what)?;
        let mut chunk = [0; CHUNK];
        let mut left = n;
        while left > 0 {
            let take = left.min(CHUNK / size);
            let bytes = &mut chunk[..take * size];
            if stream {
                self.fill(bytes, what)?;
            } else {
                self.take(bytes, what)?;
            }
            visit(bytes)?;
            left -= take;
        }
        Ok(())
    }

    /// `n` values of `size` bytes each, decoded by `decode`.
    fn values<T>(
        &mut self,
        n: usize,
        size: usize,
        what: &str,
        decode: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.values_into(&mut out, n, size, what, true, decode)?;
        Ok(out)
    }

    /// Append `n` values of `size` bytes each, decoded by `decode`, to
    /// `out`; `stream` as for [`Decoder::chunks`].
    fn values_into<T>(
        &mut self,
        out: &mut Vec<T>,
        n: usize,
        size: usize,
        what: &str,
        stream: bool,
        decode: impl Fn(&[u8]) -> T,
    ) -> Result<()> {
        let end = out.len().saturating_add(n);
        if self.remaining.is_some() {
            // Checked against the input before anything is allocated.
            self.check(n.saturating_mul(size), what)?;
            out.reserve_exact(n);
        }
        self.chunks(n, size, what, stream, |bytes| {
            let take = bytes.len() / size;
            if out.len() + take > out.capacity() {
                // A stream of unknown length: grow with what has arrived.
                out.reserve_exact(out.len().max(take).min(end - out.len()));
            }
            out.extend(bytes.chunks_exact(size).map(&decode));
            Ok(())
        })
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>> {
        self.values(n, ELEM_BYTES, what, |b| {
            f32::from_le_bytes([b[0], b[1], b[2], b[3]])
        })
    }

    fn string(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.values(len, 1, what, |b| b[0])?;
        String::from_utf8(bytes).map_err(|e| Error::Serde(format!("invalid utf8: {e}")))
    }

    fn shape(&mut self, what: &str) -> Result<Shape> {
        let rank = self.u32(what)? as usize;
        if rank > MAX_RANK {
            return Err(Error::Serde(format!("implausible rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let dim = u64::from_le_bytes(self.array(what)?);
            dims.push(
                usize::try_from(dim)
                    .map_err(|_| Error::Serde(format!("{what}: dimension {dim} overflows")))?,
            );
        }
        // Every size derived from a shape is then safe to compute.
        if dims
            .iter()
            .try_fold(1usize, |n, d| n.checked_mul(*d))
            .is_none()
        {
            return Err(Error::Serde(format!("{what} {dims:?} overflows")));
        }
        Ok(Shape::new(dims))
    }

    fn tensor(&mut self, what: &str) -> Result<Tensor> {
        let shape = self.shape(what)?;
        let data = self.f32s(shape.num_elements(), what)?;
        Ok(Tensor::from_vec(shape, data)?)
    }

    /// The next `shape` weight payload of `precision`, written as the
    /// blocks of its weight relation beside the artifact's stream as it
    /// arrives, a group of rows at a time — or `None` when decoding into
    /// memory, for the caller to read. `layer` is the layer's index.
    fn stored(
        &mut self,
        layer: usize,
        (rows, cols): (usize, usize),
        precision: Precision,
        what: &str,
    ) -> Result<Option<Weight>> {
        let Sink::Pages { artifact, .. } = &self.sink else {
            return Ok(None);
        };
        let (at, spec) = (
            artifact.position(),
            BlockingSpec::square(artifact.block_side()),
        );
        let overflow = || Error::Serde(format!("{what} {rows}x{cols} overflows"));
        let levels = rows.checked_mul(cols).ok_or_else(overflow)?;
        let bytes = match precision {
            Precision::F32 => levels.checked_mul(ELEM_BYTES),
            Precision::Int8 => levels.checked_add(rows * ELEM_BYTES),
        };
        self.check(bytes.ok_or_else(overflow)?, what)?;
        let blocks = match precision {
            Precision::F32 => {
                let mut writer = WeightBlocksWriter::f32((rows, cols), spec)?;
                let mut group = Vec::new();
                while let g @ 1.. = writer.next_group() {
                    group.clear();
                    self.values_into(&mut group, g * cols, ELEM_BYTES, what, false, |b| {
                        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
                    })?;
                    writer.push_f32(&group, self.artifact())?;
                }
                writer.finish(self.artifact())?
            }
            Precision::Int8 => {
                let mut scales = Vec::new();
                self.values_into(&mut scales, rows, ELEM_BYTES, what, false, |b| {
                    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
                })?;
                // Checked here, as `QuantizedTensor::from_parts` checks a
                // weight decoded into memory.
                if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                    return Err(Error::Serde(format!(
                        "{what}: scales must be finite and positive"
                    )));
                }
                let mut writer = WeightBlocksWriter::int8(scales, cols, spec);
                let mut group = Vec::new();
                while let g @ 1.. = writer.next_group() {
                    group.clear();
                    self.values_into(&mut group, g * cols, 1, what, false, |b| b[0] as i8)?;
                    writer.push_i8(&group, self.artifact())?;
                }
                writer.finish(self.artifact())?
            }
        };
        let weight = Weight::stored(Arc::new(blocks));
        if let Sink::Pages { weights, .. } = &mut self.sink {
            weights.push((layer, at, weight.clone()));
        }
        Ok(Some(weight))
    }

    /// The artifact a decoder into pages writes.
    fn artifact(&mut self) -> &mut ArtifactWriter {
        match &mut self.sink {
            Sink::Pages { artifact, .. } => artifact,
            Sink::Memory => unreachable!("only a decoder into pages stores weights"),
        }
    }

    fn layer(&mut self, index: usize) -> Result<Layer> {
        Ok(match self.u8("layer tag")? {
            TAG_DENSE => {
                let activation = activation_from(self.u8("dense activation")?)?;
                let shape = self.shape("dense weight")?;
                let [rows, cols] = shape.dims()[..] else {
                    return Err(Error::Serde(format!(
                        "dense weight must be a matrix, got {shape}"
                    )));
                };
                match self.stored(index, (rows, cols), Precision::F32, "dense weight")? {
                    Some(weight) => Layer::Stored {
                        weight,
                        bias: self.tensor("dense bias")?,
                        activation,
                    },
                    None => Layer::Dense {
                        weight: Tensor::from_vec(shape, self.f32s(rows * cols, "dense weight")?)?
                            .into(),
                        bias: self.tensor("dense bias")?,
                        activation,
                    },
                }
            }
            TAG_CONV => {
                let activation = activation_from(self.u8("conv activation")?)?;
                let stride = self.u32("conv stride")? as usize;
                let padding = self.u32("conv padding")? as usize;
                let kernel = self.tensor("conv kernel")?;
                let bias = self.tensor("conv bias")?;
                let [out_channels, kh, kw, in_channels] = kernel.shape().dims()[..] else {
                    return Err(Error::Serde("conv kernel must be rank 4".into()));
                };
                Layer::Conv2d {
                    kernel,
                    bias,
                    spec: Conv2dSpec {
                        out_channels,
                        kh,
                        kw,
                        in_channels,
                        stride,
                        padding,
                    },
                    activation,
                }
            }
            TAG_QDENSE => {
                let activation = activation_from(self.u8("quantized activation")?)?;
                let rows = self.u32("quantized dims")? as usize;
                let cols = self.u32("quantized dims")? as usize;
                match self.stored(index, (rows, cols), Precision::Int8, "quantized weight")? {
                    Some(weight) => Layer::Stored {
                        weight,
                        bias: self.tensor("quantized bias")?,
                        activation,
                    },
                    None => {
                        let scales = self.f32s(rows, "quantized scales")?;
                        let levels = rows
                            .checked_mul(cols)
                            .ok_or_else(|| Error::Serde("quantized dims overflow".into()))?;
                        let levels = self.values(levels, 1, "quantized levels", |b| b[0] as i8)?;
                        let weight = QuantizedTensor::from_parts(rows, cols, levels, scales)
                            .map_err(|e| Error::Serde(format!("invalid quantized weight: {e}")))?;
                        Layer::QuantDense {
                            weight: weight.into(),
                            bias: self.tensor("quantized bias")?,
                            activation,
                        }
                    }
                }
            }
            TAG_FLATTEN => Layer::Flatten,
            other => return Err(Error::Serde(format!("unknown layer tag {other}"))),
        })
    }

    fn model(&mut self) -> Result<Model> {
        if &self.array::<4>("header")? != MAGIC {
            return Err(Error::Serde("bad magic".into()));
        }
        let version = self.u32("header")?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(Error::Serde(format!("unsupported version {version}")));
        }
        let name = self.string("model name")?;
        let input_shape = self.shape("input shape")?;
        let count = self.u32("layer count")?;
        let mut layers = Vec::new();
        for index in 0..count as usize {
            layers.push(self.layer(index)?);
        }
        let trailing = match self.remaining {
            Some(left) => left > 0,
            None => {
                self.input
                    .read(&mut [0])
                    .map_err(|e| read_error(e, "end of model"))?
                    > 0
            }
        };
        if trailing {
            return Err(Error::Serde("trailing bytes after model".into()));
        }
        Model::from_layers(name, input_shape, layers)
            .map_err(|e| Error::Serde(format!("inconsistent model: {e}")))
    }
}

/// Deserialize a model from bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<Model> {
    Decoder {
        input: bytes,
        remaining: Some(bytes.len() as u64),
        sink: Sink::Memory,
    }
    .model()
}

/// Deserialize a model from a stream.
pub fn from_reader(reader: impl Read) -> Result<Model> {
    Decoder {
        input: reader,
        remaining: None,
        sink: Sink::Memory,
    }
    .model()
}

/// Deserialize the model an artifact on pages holds, every weight back in
/// memory (a reload, not a load), verifying every page on the way.
pub fn from_artifact(artifact: &Artifact) -> Result<Model> {
    Decoder {
        input: artifact.reader()?,
        remaining: Some(artifact.len()),
        sink: Sink::Memory,
    }
    .model()
}

/// A model's artifact as [`store`] keeps it, on pages: each dense weight
/// matrix stored once, as the blocks of its weight relation (the session's
/// block side, the dispatched kernel's panel layout), and every other byte
/// of the artifact as a stream beside them. Read back, the stream and the
/// matrices splice into the artifact's bytes. Dropping it, and every model
/// whose weights are its blocks, gives the pages back.
pub struct Artifact {
    pages: Arc<ArtifactPages>,
    /// In stream order.
    weights: Vec<StoredWeight>,
}

impl Artifact {
    /// Bytes of the artifact it holds.
    pub fn len(&self) -> u64 {
        let payloads: usize = self.weights.iter().map(|(_, _, w)| w.storage_bytes()).sum();
        self.pages.len() + payloads as u64
    }

    /// Whether it holds no bytes (it never does: an artifact has a header).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every page it occupies: the stream's, then the weight blocks'.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.page_ids()
    }

    /// Bytes its pages take on the scratch file.
    pub fn bytes_on_disk(&self) -> u64 {
        self.pages.bytes_on_disk()
    }

    /// Each dense layer's index and its weight matrix's stored blocks.
    pub fn weight_relations(&self) -> impl Iterator<Item = (usize, &Arc<WeightBlocks>)> {
        self.weights
            .iter()
            .filter_map(|(layer, _, weight)| Some((*layer, weight.stored_blocks()?)))
    }

    /// The artifact's bytes, every page verified.
    fn reader(&self) -> Result<Spliced<'_>> {
        Ok(Spliced {
            stream: self.pages.reader(0)?,
            at: 0,
            weights: self.weights.iter(),
            payload: None,
        })
    }
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("len", &self.len())
            .field("weights", &self.weights.len())
            .finish()
    }
}

/// An [`Artifact`]'s bytes: the stream, with each weight matrix's payload
/// read out of its blocks at its offset.
struct Spliced<'a> {
    stream: ArtifactReader<'a>,
    /// Stream bytes read so far.
    at: u64,
    /// The weights still to come.
    weights: std::slice::Iter<'a, StoredWeight>,
    /// The payload being read, and its bytes not yet read.
    payload: Option<(WeightReader<'a>, usize)>,
}

impl Read for Spliced<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            if let Some((payload, left)) = &mut self.payload {
                if *left > 0 {
                    let n = out.len().min(*left);
                    payload.read_exact(&mut out[..n])?;
                    *left -= n;
                    return Ok(n);
                }
                self.payload = None;
            }
            let next = self.weights.as_slice().first();
            if let Some((_, at, weight)) = next {
                if *at == self.at {
                    self.payload = Some((weight.stored_reader(), weight.storage_bytes()));
                    self.weights.next();
                    continue;
                }
            }
            let until = next.map_or(self.at + self.stream.remaining(), |(_, at, _)| *at);
            let n = out.len().min((until - self.at) as usize);
            self.stream
                .read_exact(&mut out[..n])
                .map_err(io::Error::other)?;
            self.at += n as u64;
            return Ok(n);
        }
    }
}

/// Decode the artifact `reader` streams into a model whose dense weight
/// matrices stay on pages of `sink`: each [`Layer::Dense`] or
/// [`Layer::QuantDense`] becomes a [`Layer::Stored`] whose matrix is written,
/// a group of rows at a time as it arrives, as the blocks of its weight
/// relation in `sink`'s block side ([`ArtifactWriter::weight_block`]); every
/// other byte is appended to `sink`'s stream. Nothing holds a whole weight
/// matrix, or the whole artifact, in memory. Returns the model and the
/// finished artifact; on an error the pages written are given back.
pub fn store(reader: impl Read, sink: ArtifactWriter) -> Result<(Model, Artifact)> {
    store_from(reader, None, sink)
}

/// [`store`] of `model`'s own artifact, as [`encode`] streams it. The stored
/// model keeps no form of a weight that nothing else holds: a dense layer
/// whose weight a clone of `model` still shares stays that layer — one cell
/// serves both, and whichever of the two packs it packs it for both — and
/// every other dense layer's weight is left on the pages, `model`'s own
/// form of it dropped with `model`. Either way the artifact stores every
/// dense weight matrix as its weight relation's blocks.
pub fn store_model(model: Model, sink: ArtifactWriter) -> Result<(Model, Artifact)> {
    let encoder = encode(&model);
    let len = encoder.len() as u64;
    let (stored, artifact) = store_from(encoder, Some(len), sink)?;
    Ok((stored.keeping_shared(model), artifact))
}

fn store_from(
    reader: impl Read,
    remaining: Option<u64>,
    mut sink: ArtifactWriter,
) -> Result<(Model, Artifact)> {
    let mut decoder = Decoder {
        input: reader,
        remaining,
        sink: Sink::Pages {
            artifact: &mut sink,
            weights: Vec::new(),
        },
    };
    let model = decoder.model()?;
    let Sink::Pages { weights, .. } = decoder.sink else {
        unreachable!("decoded into pages")
    };
    let pages = sink.finish()?;
    Ok((model, Artifact { pages, weights }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::zoo;
    use relserve_storage::DiskManager;
    use relserve_tensor::parallel::Parallelism;

    fn bytes(m: &Model) -> Vec<u8> {
        to_bytes(m).unwrap()
    }

    #[test]
    fn ffnn_roundtrip() {
        let mut rng = seeded_rng(40);
        let m = zoo::fraud_fc_256(&mut rng).unwrap();
        let back = from_bytes(&bytes(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn cnn_roundtrip_preserves_spec() {
        let mut rng = seeded_rng(41);
        let m = zoo::caching_cnn(&mut rng).unwrap();
        let back = from_bytes(&bytes(&m)).unwrap();
        assert_eq!(back, m);
        // Inference must agree exactly.
        let x = Tensor::from_fn([1, 28, 28, 1], |i| (i % 9) as f32 * 0.1);
        let par = Parallelism::serial();
        assert_eq!(
            m.forward(&x, &par).unwrap(),
            back.forward(&x, &par).unwrap()
        );
    }

    #[test]
    fn quantized_roundtrip_preserves_levels_and_scales() {
        let mut rng = seeded_rng(45);
        let m = zoo::fraud_fc_256(&mut rng).unwrap();
        let q = crate::quant::quantize_int8(&m).unwrap().model;
        let back = from_bytes(&bytes(&q)).unwrap();
        assert_eq!(back, q);
        // i8 storage makes the artifact ~4× smaller than the f32 one.
        assert!(bytes(&q).len() * 3 < bytes(&m).len());
        // Inference over the wire-roundtripped model agrees exactly.
        let x = Tensor::from_fn([2, 28], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let par = Parallelism::serial();
        assert_eq!(
            q.forward(&x, &par).unwrap(),
            back.forward(&x, &par).unwrap()
        );
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut rng = seeded_rng(42);
        let m = zoo::fraud_fc_256(&mut rng).unwrap();
        let mut bytes = bytes(&m);
        assert!(from_bytes(&bytes[..bytes.len() - 4]).is_err());
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
        assert!(from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut rng = seeded_rng(43);
        let m = zoo::fraud_fc_256(&mut rng).unwrap();
        let mut bytes = bytes(&m);
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
        assert!(from_reader(&bytes[..]).is_err());
        bytes.pop();
        assert_eq!(from_reader(&bytes[..]).unwrap(), m);
    }

    #[test]
    fn size_is_dominated_by_params() {
        let mut rng = seeded_rng(44);
        let m = zoo::fraud_fc_512(&mut rng).unwrap();
        let bytes = bytes(&m);
        assert!(bytes.len() >= m.param_bytes());
        assert!(bytes.len() < m.param_bytes() + 1024);
        assert_eq!(encode(&m).len(), bytes.len());
    }

    /// The lone-tag truncations the checked reads exist for: each used to
    /// read past the end of its buffer and panic.
    #[test]
    fn a_layer_cut_after_its_tag_is_a_serde_error() {
        let header = |layers: u32| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&1u32.to_le_bytes());
            b.push(b'm');
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&4u64.to_le_bytes());
            b.extend_from_slice(&layers.to_le_bytes());
            b
        };
        for tail in [
            vec![TAG_DENSE],
            vec![TAG_CONV],
            vec![TAG_CONV, 1, 0, 0],
            vec![TAG_QDENSE],
            vec![TAG_QDENSE, 0, 1, 0, 0, 0],
        ] {
            let mut artifact = header(1);
            artifact.extend_from_slice(&tail);
            assert!(
                matches!(from_bytes(&artifact), Err(Error::Serde(_))),
                "{tail:?}"
            );
            assert!(matches!(from_reader(&artifact[..]), Err(Error::Serde(_))));
        }
        // A tensor whose element count overflows is refused before any
        // size is computed from it.
        let mut huge = header(1);
        huge.extend_from_slice(&[TAG_DENSE, 0]);
        huge.extend_from_slice(&2u32.to_le_bytes());
        huge.extend_from_slice(&(1u64 << 62).to_le_bytes());
        huge.extend_from_slice(&4u64.to_le_bytes());
        assert!(matches!(from_bytes(&huge), Err(Error::Serde(_))));
        assert!(matches!(from_reader(&huge[..]), Err(Error::Serde(_))));
        // So is a quantized matrix claiming more than the input holds.
        let mut claim = header(1);
        claim.extend_from_slice(&[TAG_QDENSE, 0]);
        claim.extend_from_slice(&u32::MAX.to_le_bytes());
        claim.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&claim), Err(Error::Serde(_))));
        assert!(matches!(from_reader(&claim[..]), Err(Error::Serde(_))));
    }

    fn sink() -> ArtifactWriter {
        ArtifactPages::writer(Arc::new(DiskManager::temp().unwrap()))
    }

    #[test]
    fn a_stored_model_keeps_its_weights_on_pages_and_computes_the_same() {
        let mut rng = seeded_rng(46);
        let cnn = zoo::caching_cnn(&mut rng).unwrap();
        let q = crate::quant::quantize_int8(&zoo::fraud_fc_256(&mut rng).unwrap())
            .unwrap()
            .model;
        let par = Parallelism::serial();
        for (model, x) in [
            (
                cnn,
                Tensor::from_fn([2, 28, 28, 1], |i| (i % 9) as f32 * 0.1),
            ),
            (
                q,
                Tensor::from_fn([3, 28], |i| ((i % 13) as f32 - 6.0) * 0.1),
            ),
        ] {
            let (stored, artifact) = store(&bytes(&model)[..], sink()).unwrap();
            assert_eq!(artifact.len() as usize, bytes(&model).len());
            for (a, b) in stored.layers().iter().zip(model.layers()) {
                assert_eq!(a.kind(), b.kind());
                assert_eq!(a.weight_shape(), b.weight_shape());
                let in_memory = matches!(b, Layer::Dense { .. } | Layer::QuantDense { .. });
                assert_eq!(matches!(a, Layer::Stored { .. }), in_memory);
            }
            // Packed from the pages, the same bits as packed from memory.
            assert_eq!(
                stored.forward(&x, &par).unwrap(),
                model.forward(&x, &par).unwrap()
            );
            // The artifact is the model's, and reads back whole.
            assert_eq!(from_artifact(&artifact).unwrap(), model);
            assert_eq!(stored.materialize().unwrap(), model);
            assert_eq!(to_bytes(&stored).unwrap(), bytes(&model));
        }
    }

    #[test]
    fn store_model_shares_the_callers_packed_weights() {
        let mut rng = seeded_rng(47);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([4, 28], |i| (i as f32 * 0.37).sin());
        let par = Parallelism::serial();
        // The caller kept a clone: the stored model serves from its cells.
        let (stored, _artifact) = store_model(model.clone(), sink()).unwrap();
        assert!(stored
            .layers()
            .iter()
            .all(|l| matches!(l, Layer::Dense { .. })));
        assert_eq!(stored.prepared_weights().0, 0, "nothing packed at load");
        let out = stored.forward(&x, &par).unwrap();
        assert_eq!(model.prepared_weights().0, 2, "one build, seen by both");
        assert_eq!(model.forward(&x, &par).unwrap(), out);
        assert_eq!(stored.prepared_weights().0, 2);
        // Nobody else holds these: they stay on the pages.
        let (alone, _artifact) =
            store_model(zoo::fraud_fc_256(&mut seeded_rng(47)).unwrap(), sink()).unwrap();
        assert!(alone
            .layers()
            .iter()
            .all(|l| matches!(l, Layer::Stored { .. })));
        assert_eq!(alone.forward(&x, &par).unwrap(), out);
    }

    #[test]
    fn a_failed_store_gives_its_pages_back() {
        let mut rng = seeded_rng(48);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let bytes = bytes(&model);
        let disk = Arc::new(DiskManager::temp().unwrap());
        let cut = &bytes[..bytes.len() - 10];
        let err = store(cut, ArtifactPages::writer(disk.clone())).unwrap_err();
        assert!(matches!(err, Error::Serde(_)), "{err}");
        assert_eq!(disk.free_pages() as u64, disk.num_pages());
    }
}
