//! A dense layer's weight matrix, held in one resident form.
//!
//! A `[out_features, in_features]` weight matrix can exist in three forms:
//! its raw values in memory (a [`Tensor`], or a [`QuantizedTensor`]), the
//! packed panels or quads the dispatched kernel multiplies from (built on
//! the layer's first dense run), and — for a model loaded into a session —
//! the blocks of its weight relation on the artifact's pages
//! ([`crate::serialize::store`]), which are on the scratch file, not
//! resident. A [`Weight`] is one cell, shared by clones, holding whichever
//! of them exists:
//!
//! * **Packing replaces the raw matrix.** The packed form is an exact
//!   re-layout of it, so once the panels exist the raw values are dropped.
//! * **Readers stream the logical matrix** from whichever form exists, a
//!   group of rows at a time ([`WeightReader`]): serialization, the quantizer
//!   and the pruner, a session's weight relation, equality.
//! * **Clones share, edits copy.** A clone of a layer or a model shares the
//!   cell, and whatever it packs. [`crate::Model::layers_mut`] gives each
//!   shared weight a cell of its own in the same forms (no bytes copied), and
//!   an edit through [`DenseWeight`]'s or [`QuantWeight`]'s `DerefMut` turns
//!   the matrix back into raw values only then, dropping the packed form the
//!   edit invalidates.
//!
//! `Layer::Dense`'s weight dereferences to a [`Tensor`] (`Layer::QuantDense`'s
//! to a [`QuantizedTensor`]) so that code written against the raw matrix
//! still compiles; but `Deref` must hand out a reference, so on a packed
//! weight it **materializes a copy**, which the cell keeps until the weight
//! is edited or dropped — a second resident form. The library never derefs
//! a weight: [`DenseWeight::shape`] and [`Weight`]'s accessors read what
//! they need without a copy.

use crate::error::{Error, Result};
use crate::layer::Activation;
use relserve_relational::{BlockRows, WeightBlocks};
use relserve_tensor::matmul::{self, Epilogue, PackedB};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::{self, QuantEpilogue};
use relserve_tensor::{QuantizedTensor, Shape, Tensor, ELEM_BYTES};
use std::fmt;
use std::io::{self, Read};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bytes of a matrix a reader of it holds at a time: a row group is this
/// many bytes of f32 rows, and at least one row.
const GROUP_BYTES: usize = 64 * 1024;

/// Rows in a group of rows `cols` wide.
fn group_rows(cols: usize) -> usize {
    (GROUP_BYTES / (cols * ELEM_BYTES).max(1)).max(1)
}

/// How a weight matrix encodes its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// f32 values: a [`crate::Layer::Dense`] weight. In an artifact,
    /// row-major little-endian f32.
    F32,
    /// i8 levels with an f32 scale per row: a [`crate::Layer::QuantDense`]
    /// weight. In an artifact, the scales, then the row-major levels.
    Int8,
}

/// Bytes a `shape` matrix of `precision` occupies in its storage form — an
/// artifact's payload.
fn payload_bytes((rows, cols): (usize, usize), precision: Precision) -> usize {
    match precision {
        Precision::F32 => rows * cols * ELEM_BYTES,
        Precision::Int8 => rows * ELEM_BYTES + rows * cols,
    }
}

/// A weight matrix's raw values in memory.
#[derive(Clone)]
enum Raw {
    F32(Arc<Tensor>),
    Int8(Arc<QuantizedTensor>),
}

/// A weight matrix laid out once in the form the dispatched kernel
/// multiplies from, so that no call packs it again: f32 `[panel][k][nr]`
/// panels, or i8 `[panel][kq][nr][4]` quads with the per-row scales and
/// level sums the int8 store needs — all a forward pass reads of the weight.
/// `nr` is the panel width of the kernel dispatched in this process, which
/// makes the form per-process: it is never serialized.
pub(crate) enum PreparedWeights {
    /// Of an f32 weight.
    Panels { nr: usize, panels: Vec<f32> },
    /// Of an int8 weight.
    Quads {
        nr: usize,
        quads: Vec<i8>,
        scales: Vec<f32>,
        row_sums: Vec<i32>,
    },
}

impl PreparedWeights {
    /// Bytes the packed form holds.
    fn bytes(&self) -> usize {
        match self {
            PreparedWeights::Panels { panels, .. } => std::mem::size_of_val(panels.as_slice()),
            PreparedWeights::Quads {
                quads,
                scales,
                row_sums,
                ..
            } => quads.len() + std::mem::size_of_val(scales.as_slice()) + 4 * row_sums.len(),
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every writer leaves the value whole (a failed build changes nothing),
    // so a writer that panicked left nothing half-done behind it.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared state of a [`Weight`]. At least one of `raw`, `packed` and
/// `stored` holds the matrix.
struct Cell {
    /// The shape the matrix was made with: `[rows, cols]`, unless a tensor
    /// of another rank became a dense weight.
    shape: Shape,
    rows: usize,
    cols: usize,
    precision: Precision,
    /// The raw values, until packing replaces them. Held while the packed
    /// form is built, so that racing first runs pack once.
    raw: Mutex<Option<Raw>>,
    /// The blocks of a stored matrix's weight relation: where it is read
    /// from for good (the pages are not resident).
    stored: Option<Arc<WeightBlocks>>,
    /// The packed form, once built; shared with cells detached from this one.
    packed: OnceLock<Arc<PreparedWeights>>,
    /// The copy `Deref` handed out.
    pinned: OnceLock<Raw>,
    /// Times the matrix was packed: once, unless some run packed it twice.
    builds: AtomicUsize,
}

impl Cell {
    /// A cell of this one's matrix holding the given forms.
    fn with(
        &self,
        raw: Option<Raw>,
        stored: Option<Arc<WeightBlocks>>,
        packed: Option<Arc<PreparedWeights>>,
    ) -> Cell {
        Cell {
            shape: self.shape.clone(),
            rows: self.rows,
            cols: self.cols,
            precision: self.precision,
            raw: Mutex::new(raw),
            stored,
            packed: packed.map_or_else(OnceLock::new, OnceLock::from),
            pinned: OnceLock::new(),
            builds: AtomicUsize::new(self.builds.load(Ordering::Relaxed)),
        }
    }

    /// The raw values, if the cell holds them.
    fn raw(&self) -> Option<Raw> {
        lock(&self.raw).clone()
    }

    fn reader_over<'a>(&'a self, form: Form<'a>) -> WeightReader<'a> {
        WeightReader {
            rows: self.rows,
            cols: self.cols,
            precision: self.precision,
            form,
            at: 0,
            scaled: false,
            stage: Vec::new(),
            taken: 0,
        }
    }

    fn reader(&self) -> Result<WeightReader<'_>> {
        match (self.raw(), self.packed.get()) {
            (Some(raw), _) => Ok(self.reader_over(Form::Raw(raw))),
            (None, Some(packed)) => Ok(self.reader_over(Form::Packed(packed))),
            (None, None) => Ok(self.stored_reader()),
        }
    }

    /// A reader of a stored matrix's pages.
    fn stored_reader(&self) -> WeightReader<'_> {
        let blocks = self
            .stored
            .as_deref()
            .expect("a weight is raw, packed or stored");
        self.reader_over(Form::Stored(blocks, blocks.reader()))
    }

    fn expect(&self, precision: Precision) -> Result<()> {
        if self.precision == precision {
            Ok(())
        } else {
            Err(Error::InvalidModel(format!(
                "the weight is {:?}, not {precision:?}",
                self.precision
            )))
        }
    }

    fn to_tensor(&self) -> Result<Tensor> {
        self.expect(Precision::F32)?;
        let mut values = vec![0.0; self.rows * self.cols];
        self.reader()?.f32_rows(&mut values)?;
        Ok(Tensor::from_vec(self.shape.clone(), values)?)
    }

    fn to_quantized(&self) -> Result<QuantizedTensor> {
        self.expect(Precision::Int8)?;
        let mut reader = self.reader()?;
        let scales = reader.scales()?;
        let mut levels = vec![0; self.rows * self.cols];
        reader.i8_rows(&mut levels)?;
        QuantizedTensor::from_parts(self.rows, self.cols, levels, scales)
            .map_err(|e| Error::Serde(format!("invalid stored quantized weight: {e}")))
    }

    /// The matrix read back into raw values.
    fn read_raw(&self) -> Result<Raw> {
        Ok(match self.precision {
            Precision::F32 => Raw::F32(Arc::new(self.to_tensor()?)),
            Precision::Int8 => Raw::Int8(Arc::new(self.to_quantized()?)),
        })
    }

    /// The packed form, built on first use from the raw values (which it
    /// then replaces) or the stored blocks — f32 panels copied from the
    /// block panels when they line up.
    fn packed(&self) -> Result<&PreparedWeights> {
        if let Some(packed) = self.packed.get() {
            return Ok(packed);
        }
        let mut raw = lock(&self.raw);
        if self.packed.get().is_none() {
            // A failed build publishes nothing; the next run tries again.
            let built = match (&*raw, &self.stored) {
                (Some(values), _) => pack(self.reader_over(Form::Raw(values.clone())))?,
                (None, Some(blocks)) => {
                    let nr = matmul::panel_width()?;
                    match blocks.dense_panels(nr)? {
                        Some(panels) => PreparedWeights::Panels { nr, panels },
                        None => pack(self.stored_reader())?,
                    }
                }
                (None, None) => unreachable!("a weight is raw, packed or stored"),
            };
            self.builds.fetch_add(1, Ordering::Relaxed);
            let _ = self.packed.set(Arc::new(built));
            *raw = None;
        }
        Ok(self.packed.get().expect("built above"))
    }
}

/// A dense layer's weight matrix in one resident form (see the module
/// docs): a cell that clones share.
#[derive(Clone)]
pub struct Weight {
    cell: Arc<Cell>,
}

impl Weight {
    fn new(
        shape: Shape,
        (rows, cols): (usize, usize),
        precision: Precision,
        raw: Option<Raw>,
        stored: Option<Arc<WeightBlocks>>,
    ) -> Weight {
        Weight {
            cell: Arc::new(Cell {
                shape,
                rows,
                cols,
                precision,
                raw: Mutex::new(raw),
                stored,
                packed: OnceLock::new(),
                pinned: OnceLock::new(),
                builds: AtomicUsize::new(0),
            }),
        }
    }

    /// The matrix stored as `blocks`.
    pub(crate) fn stored(blocks: Arc<WeightBlocks>) -> Weight {
        let (rows, cols) = (blocks.rows(), blocks.cols());
        let precision = match blocks.is_quantized() {
            true => Precision::Int8,
            false => Precision::F32,
        };
        Weight::new(
            Shape::from([rows, cols]),
            (rows, cols),
            precision,
            None,
            Some(blocks),
        )
    }

    /// The blocks of a stored matrix's weight relation.
    pub(crate) fn stored_blocks(&self) -> Option<&Arc<WeightBlocks>> {
        self.cell.stored.as_ref()
    }

    /// A reader of a stored matrix's pages — whatever other form it has.
    pub(crate) fn stored_reader(&self) -> WeightReader<'_> {
        self.cell.stored_reader()
    }

    /// `(rows, cols)`: `(out_features, in_features)` of its layer.
    pub fn shape(&self) -> (usize, usize) {
        (self.cell.rows, self.cell.cols)
    }

    /// The shape the matrix was made with.
    pub(crate) fn tensor_shape(&self) -> &Shape {
        &self.cell.shape
    }

    /// How the matrix encodes its values.
    pub fn precision(&self) -> Precision {
        self.cell.precision
    }

    /// Bytes of the matrix in its storage form: f32 values, or i8 levels
    /// plus per-row scales (what an artifact holds of it).
    pub fn storage_bytes(&self) -> usize {
        payload_bytes(self.shape(), self.precision())
    }

    /// A reader of the matrix, from its first row, out of whichever form
    /// holds it.
    pub fn reader(&self) -> Result<WeightReader<'_>> {
        self.cell.reader()
    }

    /// The matrix of an f32 weight, read into a tensor of its own.
    pub fn to_tensor(&self) -> Result<Tensor> {
        self.cell.to_tensor()
    }

    /// How many times the matrix has been packed — on its first dense run,
    /// by whichever model sharing the cell ran it first — and the bytes the
    /// packed form takes (0 before that).
    pub(crate) fn packing(&self) -> (usize, usize) {
        (
            self.cell.builds.load(Ordering::Relaxed),
            self.cell.packed.get().map_or(0, |p| p.bytes()),
        )
    }

    /// `activation(input × Wᵀ + bias)`, from the packed form (packed here on
    /// first use). An f32 weight adds the bias, and applies a ReLU, in the
    /// multiply's own tile store; other activations run after it.
    pub(crate) fn multiply(
        &self,
        input: &Tensor,
        bias: &Tensor,
        activation: Activation,
        par: &Parallelism,
    ) -> Result<Tensor> {
        let (n, k) = self.shape();
        let (mut z, rest) = match self.cell.packed()? {
            PreparedWeights::Panels { nr, panels } => {
                let packed = PackedB::new(k, n, *nr, panels)?;
                let (epilogue, rest) = match activation {
                    Activation::Relu => (Epilogue::BiasRelu(bias.data()), Activation::None),
                    other => (Epilogue::Bias(bias.data()), other),
                };
                (
                    matmul::matmul_prepacked(input, &packed, epilogue, par)?,
                    rest,
                )
            }
            PreparedWeights::Quads {
                nr,
                quads,
                scales,
                row_sums,
            } => {
                // Genuine int8 execution: each row stripe quantizes its
                // activations, the u8×i8 kernels accumulate in i32, and the
                // epilogue folds scale and bias into the f32 store — no f32
                // weight tensor is ever materialized on this path.
                let w = QuantEpilogue {
                    cols: k,
                    scales,
                    row_sums,
                };
                let z = quant::qmatmul_prepacked(input, w, *nr, quads, Some(bias.data()), par)?;
                (z, activation)
            }
        };
        rest.apply_inplace(&mut z)?;
        Ok(z)
    }

    /// The raw values of an f32 weight that holds them (an edited one, until
    /// it next packs).
    pub(crate) fn raw_f32(&self) -> Option<Arc<Tensor>> {
        match self.cell.raw()? {
            Raw::F32(values) => Some(values),
            Raw::Int8(_) => None,
        }
    }

    /// Whether a clone elsewhere shares this weight's cell.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.cell) > 1
    }

    /// Give this weight a cell of its own, in the forms the shared one
    /// holds: no bytes are copied, but what either packs or edits from now
    /// on the other does not see.
    pub(crate) fn detach(&mut self) {
        if Arc::get_mut(&mut self.cell).is_none() {
            let raw = self.cell.raw();
            let packed = self.cell.packed.get().cloned();
            self.cell = Arc::new(self.cell.with(raw, self.cell.stored.clone(), packed));
        }
    }

    /// This weight with a stored matrix brought into memory: the packed form
    /// if there is one (shared, not copied), else the values read back from
    /// the pages. A weight in memory is itself.
    pub(crate) fn in_memory(&self) -> Result<Weight> {
        if self.cell.stored.is_none() {
            return Ok(self.clone());
        }
        let packed = self.cell.packed.get().cloned();
        let raw = match packed {
            Some(_) => None,
            None => Some(self.cell.read_raw()?),
        };
        Ok(Weight {
            cell: Arc::new(self.cell.with(raw, None, packed)),
        })
    }

    /// The raw values `Deref` hands out: the cell's own if it holds them
    /// (shared, not copied), else a copy read back from the packed form.
    fn pinned(&self) -> &Raw {
        self.cell.pinned.get_or_init(|| {
            self.cell
                .raw()
                .unwrap_or_else(|| self.cell.read_raw().expect("a weight in memory reads back"))
        })
    }

    /// The raw values, this weight's alone, for an edit: the cell is
    /// detached if shared, the values read back if packed, and the packed
    /// form — which the edit invalidates — dropped.
    fn raw_mut(&mut self) -> &mut Raw {
        self.detach();
        let cell = Arc::get_mut(&mut self.cell).expect("detached above");
        let pinned = cell.pinned.take();
        if lock(&cell.raw).is_none() {
            let values = match pinned {
                Some(values) => values,
                None => cell.read_raw().expect("a weight in memory reads back"),
            };
            *lock(&cell.raw) = Some(values);
        } else {
            drop(pinned);
        }
        cell.packed = OnceLock::new();
        cell.stored = None;
        *cell.builds.get_mut() = 0;
        cell.raw
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
            .expect("set above")
    }
}

#[cfg(test)]
impl Weight {
    /// Address of the packed form's values, if the weight is packed.
    pub(crate) fn packed_at(&self) -> Option<*const u8> {
        self.cell.packed.get().map(|packed| match &**packed {
            PreparedWeights::Panels { panels, .. } => panels.as_ptr().cast(),
            PreparedWeights::Quads { quads, .. } => quads.as_ptr().cast(),
        })
    }

    /// Whether the cell holds raw values, or a copy `Deref` made.
    pub(crate) fn holds_values(&self) -> (bool, bool) {
        (self.cell.raw().is_some(), self.cell.pinned.get().is_some())
    }
}

/// Two weights are equal when their matrices are: same shape, precision and
/// values (f32 `==`, so a NaN equals nothing), in whatever forms they are.
impl PartialEq for Weight {
    fn eq(&self, other: &Self) -> bool {
        self.cell.shape == other.cell.shape
            && self.precision() == other.precision()
            && same_values(&self.cell, &other.cell).unwrap_or(false)
    }
}

/// Whether the matrices of `a` and `b`, of one shape and precision, hold the
/// same values: both read a group of rows at a time.
fn same_values(a: &Cell, b: &Cell) -> Result<bool> {
    let (mut x, mut y) = (a.reader()?, b.reader()?);
    let (total, group) = (a.rows * a.cols, group_rows(a.cols) * a.cols);
    let mut left = total;
    match a.precision {
        Precision::F32 => {
            let (mut u, mut v) = (vec![0.0; group.min(total)], vec![0.0; group.min(total)]);
            while left > 0 {
                let n = left.min(group);
                x.f32_rows(&mut u[..n])?;
                y.f32_rows(&mut v[..n])?;
                if u[..n] != v[..n] {
                    return Ok(false);
                }
                left -= n;
            }
        }
        Precision::Int8 => {
            if x.scales()? != y.scales()? {
                return Ok(false);
            }
            let (mut u, mut v) = (vec![0; group.min(total)], vec![0; group.min(total)]);
            while left > 0 {
                let n = left.min(group);
                x.i8_rows(&mut u[..n])?;
                y.i8_rows(&mut v[..n])?;
                if u[..n] != v[..n] {
                    return Ok(false);
                }
                left -= n;
            }
        }
    }
    Ok(true)
}

/// Shape and precision: the same whatever form the matrix is in.
impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Weight{} {:?}", self.cell.shape, self.cell.precision)
    }
}

/// The f32 weight of a [`crate::Layer::Dense`]: a [`Weight`] that
/// dereferences to its matrix as a [`Tensor`] — a copy, once packed (see
/// the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseWeight(pub(crate) Weight);

impl DenseWeight {
    /// The matrix's shape, without the copy `Deref` would make.
    pub fn shape(&self) -> &Shape {
        self.0.tensor_shape()
    }
}

impl From<Tensor> for DenseWeight {
    fn from(values: Tensor) -> Self {
        let shape = values.shape().clone();
        let dims = shape.as_matrix().unwrap_or((1, values.len()));
        DenseWeight(Weight::new(
            shape,
            dims,
            Precision::F32,
            Some(Raw::F32(Arc::new(values))),
            None,
        ))
    }
}

impl Deref for DenseWeight {
    type Target = Tensor;

    /// The matrix; a copy the weight keeps, if it is packed.
    fn deref(&self) -> &Tensor {
        match self.0.pinned() {
            Raw::F32(values) => values,
            Raw::Int8(_) => unreachable!("a dense weight is f32"),
        }
    }
}

impl DerefMut for DenseWeight {
    /// The matrix, to edit: this weight's own raw values (see
    /// [`crate::Model::layers_mut`]).
    fn deref_mut(&mut self) -> &mut Tensor {
        match self.0.raw_mut() {
            Raw::F32(values) => Arc::make_mut(values),
            Raw::Int8(_) => unreachable!("a dense weight is f32"),
        }
    }
}

/// The int8 weight of a [`crate::Layer::QuantDense`]: a [`Weight`] that
/// dereferences to its matrix as a [`QuantizedTensor`] — a copy, once packed
/// (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantWeight(pub(crate) Weight);

impl QuantWeight {
    /// Rows (output channels), without the copy `Deref` would make.
    pub fn rows(&self) -> usize {
        self.0.shape().0
    }

    /// Columns (input features), without the copy `Deref` would make.
    pub fn cols(&self) -> usize {
        self.0.shape().1
    }
}

impl From<QuantizedTensor> for QuantWeight {
    fn from(values: QuantizedTensor) -> Self {
        let dims = (values.rows(), values.cols());
        QuantWeight(Weight::new(
            Shape::from([dims.0, dims.1]),
            dims,
            Precision::Int8,
            Some(Raw::Int8(Arc::new(values))),
            None,
        ))
    }
}

impl Deref for QuantWeight {
    type Target = QuantizedTensor;

    /// The matrix; a copy the weight keeps, if it is packed.
    fn deref(&self) -> &QuantizedTensor {
        match self.0.pinned() {
            Raw::Int8(values) => values,
            Raw::F32(_) => unreachable!("a quantized weight is int8"),
        }
    }
}

impl DerefMut for QuantWeight {
    /// The matrix, to edit: this weight's own raw values.
    fn deref_mut(&mut self) -> &mut QuantizedTensor {
        match self.0.raw_mut() {
            Raw::Int8(values) => Arc::make_mut(values),
            Raw::F32(_) => unreachable!("a quantized weight is int8"),
        }
    }
}

/// Where a [`WeightReader`] reads from.
enum Form<'a> {
    Raw(Raw),
    Packed(&'a PreparedWeights),
    Stored(&'a WeightBlocks, BlockRows<'a>),
}

/// Reads a weight matrix in row-major order out of whichever form holds it
/// — raw values, the packed form, or a stored matrix's blocks, every page
/// verified —
/// as many values at a time as the caller asks for. An int8 matrix reads its
/// per-row scales first ([`WeightReader::scales`]), then its levels. As a
/// [`Read`], it streams the matrix as an artifact holds it.
pub struct WeightReader<'a> {
    rows: usize,
    cols: usize,
    precision: Precision,
    form: Form<'a>,
    /// Values, or levels, read so far.
    at: usize,
    /// Whether an int8 matrix's scales have been read.
    scaled: bool,
    /// Bytes encoded for [`Read`], and how many of them have been taken.
    stage: Vec<u8>,
    taken: usize,
}

/// Fill `out` with values `at ..` of a matrix `cols` wide: a run within a
/// row with `run(row, first column, out)`, and as many whole rows as fit with
/// `rows(first row, out)`.
fn by_rows<T>(
    at: usize,
    cols: usize,
    out: &mut [T],
    mut run: impl FnMut(usize, usize, &mut [T]),
    rows: impl FnOnce(usize, &mut [T]),
) {
    if out.is_empty() {
        return;
    }
    let (head, rest) = out.split_at_mut(((cols - at % cols) % cols).min(out.len()));
    if !head.is_empty() {
        run(at / cols, at % cols, head);
    }
    let (whole, tail) = rest.split_at_mut(rest.len() / cols * cols);
    let j = (at + head.len()) / cols;
    if !whole.is_empty() {
        rows(j, whole);
    }
    if !tail.is_empty() {
        run(j + whole.len() / cols, 0, tail);
    }
}

impl WeightReader<'_> {
    /// The per-row scales of an int8 matrix: the first part of it.
    pub fn scales(&mut self) -> Result<Vec<f32>> {
        if self.precision != Precision::Int8 || self.scaled {
            return Err(Error::InvalidModel(format!(
                "a {:?} weight has no scales to read here",
                self.precision
            )));
        }
        self.scaled = true;
        Ok(match &mut self.form {
            Form::Raw(Raw::Int8(values)) => values.scales().to_vec(),
            Form::Packed(PreparedWeights::Quads { scales, .. }) => scales.clone(),
            Form::Stored(blocks, _) => blocks.scales()?,
            _ => unreachable!("the forms of an int8 weight are int8"),
        })
    }

    /// Where the next `len` values of `precision` start, once checked to be
    /// there.
    fn advance(&mut self, len: usize, precision: Precision) -> Result<usize> {
        let ready = self.precision == precision && (self.scaled || precision == Precision::F32);
        if !ready || len > self.rows * self.cols - self.at {
            return Err(Error::InvalidModel(format!(
                "cannot read {len} {precision:?} values at {} of a {}x{} {:?} weight",
                self.at, self.rows, self.cols, self.precision
            )));
        }
        self.at += len;
        Ok(self.at - len)
    }

    /// Fill `out` with the next values of an f32 matrix.
    pub fn f32_rows(&mut self, out: &mut [f32]) -> Result<()> {
        let at = self.advance(out.len(), Precision::F32)?;
        match &mut self.form {
            Form::Raw(Raw::F32(values)) => out.copy_from_slice(&values.data()[at..at + out.len()]),
            Form::Packed(PreparedWeights::Panels { nr, panels }) => {
                let packed = PackedB::new(self.cols, self.rows, *nr, panels)?;
                by_rows(
                    at,
                    self.cols,
                    out,
                    |j, p0, run| packed.read_row(j, p0, run),
                    |j, rows| packed.read_rows(j, rows),
                );
            }
            Form::Stored(_, rows) => rows.read_f32s(out)?,
            _ => unreachable!("the forms of an f32 weight are f32"),
        }
        Ok(())
    }

    /// Fill `out` with the next levels of an int8 matrix.
    pub fn i8_rows(&mut self, out: &mut [i8]) -> Result<()> {
        let at = self.advance(out.len(), Precision::Int8)?;
        match &mut self.form {
            Form::Raw(Raw::Int8(values)) => out.copy_from_slice(&values.data()[at..at + out.len()]),
            Form::Packed(PreparedWeights::Quads { nr, quads, .. }) => {
                let (k, nr) = (self.cols, *nr);
                by_rows(
                    at,
                    k,
                    out,
                    |j, p0, run| quant::read_quad_row(quads, k, nr, j, p0, run),
                    |j, rows| quant::read_quad_rows(quads, k, nr, j, rows),
                );
            }
            Form::Stored(_, rows) => rows.read_i8s(out)?,
            _ => unreachable!("the forms of an int8 weight are int8"),
        }
        Ok(())
    }

    /// Encode the next bytes of the artifact form into the stage: an int8
    /// matrix's scales, then a group of values or levels at a time; nothing
    /// once the matrix is read.
    fn stage_next(&mut self) -> Result<()> {
        self.stage.clear();
        self.taken = 0;
        let left = self.rows * self.cols - self.at;
        match self.precision {
            Precision::Int8 if !self.scaled => {
                for scale in self.scales()? {
                    self.stage.extend_from_slice(&scale.to_le_bytes());
                }
            }
            Precision::F32 => {
                let mut values = vec![0.0; left.min(GROUP_BYTES / ELEM_BYTES)];
                self.f32_rows(&mut values)?;
                for v in values {
                    self.stage.extend_from_slice(&v.to_le_bytes());
                }
            }
            Precision::Int8 => {
                let mut levels = vec![0; left.min(GROUP_BYTES)];
                self.i8_rows(&mut levels)?;
                self.stage.extend(levels.iter().map(|&l| l as u8));
            }
        }
        Ok(())
    }
}

/// `e` as an `io::Error`; a storage error rides inside it as
/// [`relserve_storage::Error::from_io`] expects.
pub(crate) fn io_error(e: Error) -> io::Error {
    match e {
        Error::Storage(e) => io::Error::other(e),
        e => io::Error::other(e),
    }
}

impl Read for WeightReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.taken == self.stage.len() {
            self.stage_next().map_err(io_error)?;
        }
        let n = out.len().min(self.stage.len() - self.taken);
        out[..n].copy_from_slice(&self.stage[self.taken..self.taken + n]);
        self.taken += n;
        Ok(n)
    }
}

/// The packed form of the matrix `reader` reads, built a group of whole
/// kernel panels of rows at a time — a panel's rows alone pack to exactly
/// that panel of the whole matrix — so that what is held beside the result
/// is one group of rows.
fn pack(mut reader: WeightReader<'_>) -> Result<PreparedWeights> {
    let (n, k) = (reader.rows, reader.cols);
    Ok(match reader.precision {
        Precision::F32 => {
            let nr = matmul::panel_width()?;
            let group = group_rows(k).next_multiple_of(nr);
            let mut panels = Vec::with_capacity(PackedB::len_for(k, n, nr));
            let mut rows = vec![0.0; group.min(n) * k];
            for j0 in (0..n).step_by(group) {
                let g = group.min(n - j0);
                reader.f32_rows(&mut rows[..g * k])?;
                matmul::pack_bt(&rows, k, g, k, nr, &mut panels);
            }
            PreparedWeights::Panels { nr, panels }
        }
        Precision::Int8 => {
            let nr = quant::quad_panel_width()?;
            let group = group_rows(k).next_multiple_of(nr);
            let scales = reader.scales()?;
            let mut row_sums = Vec::with_capacity(n);
            let mut quads = Vec::with_capacity(quant::quads_len(n, k, nr));
            let (mut levels, mut panel) = (vec![0; group.min(n) * k], Vec::new());
            for j0 in (0..n).step_by(group) {
                let g = group.min(n - j0);
                let rows = &mut levels[..g * k];
                reader.i8_rows(rows)?;
                row_sums.extend((0..g).map(|r| {
                    rows[r * k..(r + 1) * k]
                        .iter()
                        .map(|&q| q as i32)
                        .sum::<i32>()
                }));
                quant::pack_quads(rows, g, k, nr, &mut panel);
                quads.extend_from_slice(&panel);
            }
            PreparedWeights::Quads {
                nr,
                quads,
                scales,
                row_sums,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ragged `19 × 13` matrix: rows not a whole number of panels, columns
    /// not a whole number of quads.
    fn ragged() -> (DenseWeight, QuantWeight) {
        let values = Tensor::from_fn([19, 13], |i| ((i * 37 % 101) as f32 - 50.0) * 0.03);
        let levels = QuantizedTensor::quantize(&values).unwrap();
        (values.into(), levels.into())
    }

    /// Every value of `weight`, read in runs of `chunk`.
    fn read_in(weight: &Weight, chunk: usize) -> (Vec<f32>, Vec<f32>, Vec<i8>) {
        let mut reader = weight.reader().unwrap();
        let total = weight.shape().0 * weight.shape().1;
        let (mut values, mut scales, mut levels) = (vec![], vec![], vec![]);
        if weight.precision() == Precision::Int8 {
            scales = reader.scales().unwrap();
        }
        let mut at = 0;
        while at < total {
            let n = chunk.min(total - at);
            match weight.precision() {
                Precision::F32 => {
                    let mut run = vec![0.0; n];
                    reader.f32_rows(&mut run).unwrap();
                    values.extend(run);
                }
                Precision::Int8 => {
                    let mut run = vec![0; n];
                    reader.i8_rows(&mut run).unwrap();
                    levels.extend(run);
                }
            }
            at += n;
        }
        assert!(reader.f32_rows(&mut [0.0]).is_err(), "nothing past the end");
        (values, scales, levels)
    }

    #[test]
    fn a_packed_weight_reads_back_its_raw_values_in_any_runs() {
        let (dense, quant) = ragged();
        for weight in [&dense.0, &quant.0] {
            let mut payload = Vec::new();
            weight.reader().unwrap().read_to_end(&mut payload).unwrap();
            assert_eq!(payload.len(), weight.storage_bytes());
            let raw = read_in(weight, usize::MAX);
            weight.cell.packed().unwrap();
            assert_eq!(
                weight.cell.raw().map(|_| ()),
                None,
                "the panels replaced it"
            );
            for chunk in [1, 3, 12, 13, 14, 40, 13 * 19] {
                assert!(read_in(weight, chunk) == raw, "runs of {chunk}");
            }
            let mut again = Vec::new();
            weight.reader().unwrap().read_to_end(&mut again).unwrap();
            assert_eq!(again, payload);
        }
        assert_eq!(
            dense.0.to_tensor().unwrap(),
            ragged().0 .0.to_tensor().unwrap()
        );
    }

    #[test]
    fn deref_shares_raw_values_and_pins_a_copy_of_packed_ones() {
        let (dense, _) = ragged();
        let expect = dense.0.to_tensor().unwrap();
        // Raw: the reference is the cell's own values, not a copy.
        let Some(Raw::F32(values)) = dense.0.cell.raw() else {
            unreachable!()
        };
        assert!(std::ptr::eq(&*dense, Arc::as_ptr(&values)));
        drop(values);
        // Packing drops the raw values, but not the ones a deref handed out.
        dense.0.cell.packed().unwrap();
        assert_eq!(dense.0.holds_values(), (false, true));
        // A packed weight that never handed any out reads them back.
        let (fresh, _) = ragged();
        fresh.0.cell.packed().unwrap();
        assert_eq!(fresh.0.holds_values(), (false, false));
        assert_eq!(*fresh, expect);
        assert_eq!(fresh.0.holds_values(), (false, true), "the copy stays");
        // An edit of a clone is the clone's alone, and is not packed.
        let mut edited = fresh.clone();
        edited.data_mut()[0] += 1.0;
        assert_ne!(*edited, expect);
        assert_eq!(*fresh, expect);
        assert_eq!(edited.0.packing(), (0, 0));
        assert_eq!(fresh.0.packing().0, 1);
    }
}
