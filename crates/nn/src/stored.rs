//! Weight matrices that stay on the pages of a model artifact.
//!
//! A model loaded into a session is decoded by [`crate::serialize::store`],
//! which writes the artifact to pages and leaves each dense layer's weight
//! matrix there: the layer becomes a [`crate::Layer::Stored`] holding a
//! [`StoredWeight`] — where the payload is, its shape and element type — and
//! nothing else of the matrix. Whatever multiplies by the matrix is built
//! from the pages on first use (the packed panels or quads of
//! [`crate::Model::forward_layer`], or a session's weight relation), reading
//! the rows in order, a group at a time.

use crate::error::{Error, Result};
use crate::layer::PreparedWeights;
use relserve_storage::{ArtifactPages, ArtifactReader};
use relserve_tensor::matmul::{self, PackedB};
use relserve_tensor::{quant, QuantizedTensor, Tensor, ELEM_BYTES};
use std::sync::Arc;

/// How a stored weight matrix encodes its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Row-major little-endian f32: a [`crate::Layer::Dense`] weight.
    F32,
    /// Per-row f32 scales, then row-major i8 levels: a
    /// [`crate::Layer::QuantDense`] weight.
    Int8,
}

/// A `[rows, cols]` weight matrix on an artifact's pages, at `offset`.
#[derive(Clone)]
pub struct StoredWeight {
    artifact: Arc<ArtifactPages>,
    offset: u64,
    rows: usize,
    cols: usize,
    precision: Precision,
}

/// Two stored weights are equal when they are the same payload of the same
/// artifact.
impl PartialEq for StoredWeight {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.artifact, &other.artifact)
            && self.offset == other.offset
            && self.shape() == other.shape()
            && self.precision == other.precision
    }
}

impl std::fmt::Debug for StoredWeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredWeight")
            .field("shape", &self.shape())
            .field("precision", &self.precision)
            .field("offset", &self.offset)
            .finish()
    }
}

impl StoredWeight {
    pub(crate) fn new(
        artifact: Arc<ArtifactPages>,
        offset: u64,
        (rows, cols): (usize, usize),
        precision: Precision,
    ) -> Self {
        StoredWeight {
            artifact,
            offset,
            rows,
            cols,
            precision,
        }
    }

    /// `(rows, cols)`: `(out_features, in_features)` of its layer.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// How the payload encodes the values.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes the payload occupies in the artifact.
    pub fn payload_bytes(&self) -> usize {
        payload_bytes(self.shape(), self.precision)
    }

    /// A reader of the payload from its first byte: for an int8 matrix,
    /// read [`WeightReader::scales`] first, then the levels.
    pub fn reader(&self) -> Result<WeightReader<'_>> {
        Ok(WeightReader {
            bytes: self.bytes()?,
        })
    }

    /// The payload's bytes as the artifact holds them.
    pub(crate) fn bytes(&self) -> relserve_storage::Result<ArtifactReader<'_>> {
        self.artifact.reader(self.offset)
    }

    /// The whole matrix back in memory, as the f32 tensor of a
    /// [`crate::Layer::Dense`].
    pub fn load_dense(&self) -> Result<Tensor> {
        self.expect(Precision::F32)?;
        let mut values = vec![0.0; self.rows * self.cols];
        self.reader()?.f32_rows(&mut values)?;
        Ok(Tensor::from_vec([self.rows, self.cols], values)?)
    }

    /// The whole matrix back in memory, as the quantized tensor of a
    /// [`crate::Layer::QuantDense`].
    pub fn load_quantized(&self) -> Result<QuantizedTensor> {
        self.expect(Precision::Int8)?;
        let mut reader = self.reader()?;
        let scales = reader.scales(self.rows)?;
        let mut levels = vec![0; self.rows * self.cols];
        reader.i8_rows(&mut levels)?;
        QuantizedTensor::from_parts(self.rows, self.cols, levels, scales)
            .map_err(|e| Error::Serde(format!("invalid stored quantized weight: {e}")))
    }

    fn expect(&self, precision: Precision) -> Result<()> {
        if self.precision == precision {
            Ok(())
        } else {
            Err(Error::InvalidModel(format!(
                "stored weight is {:?}, not {precision:?}",
                self.precision
            )))
        }
    }

    /// The packed form [`crate::Layer`] multiplies from, built from the
    /// pages a kernel panel of rows at a time: what is held beside the
    /// result is one panel's rows.
    pub(crate) fn prepare(&self) -> Result<PreparedWeights> {
        let (n, k) = self.shape();
        let mut reader = self.reader()?;
        Ok(match self.precision {
            Precision::F32 => {
                let nr = matmul::panel_width()?;
                let mut panels = Vec::with_capacity(PackedB::len_for(k, n, nr));
                let (mut rows, mut panel) = (vec![0.0; nr.min(n) * k], Vec::new());
                for j0 in (0..n).step_by(nr) {
                    let g = nr.min(n - j0);
                    reader.f32_rows(&mut rows[..g * k])?;
                    matmul::pack_bt(&rows, k, g, k, nr, &mut panel);
                    panels.extend_from_slice(&panel);
                }
                PreparedWeights::Panels { nr, panels }
            }
            Precision::Int8 => {
                let nr = quant::quad_panel_width()?;
                let scales = reader.scales(n)?;
                let mut row_sums = Vec::with_capacity(n);
                let mut quads = Vec::with_capacity(quant::quads_len(n, k, nr));
                let (mut levels, mut panel) = (vec![0; nr.min(n) * k], Vec::new());
                for j0 in (0..n).step_by(nr) {
                    let g = nr.min(n - j0);
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
}

/// Bytes a `shape` payload of `precision` occupies in an artifact.
pub(crate) fn payload_bytes((rows, cols): (usize, usize), precision: Precision) -> usize {
    match precision {
        Precision::F32 => rows * cols * ELEM_BYTES,
        Precision::Int8 => rows * ELEM_BYTES + rows * cols,
    }
}

/// Reads a [`StoredWeight`]'s payload in order, verifying every artifact
/// page it crosses.
pub struct WeightReader<'a> {
    bytes: ArtifactReader<'a>,
}

impl WeightReader<'_> {
    /// The per-row scales of an int8 matrix of `rows` rows: the first part
    /// of its payload.
    pub fn scales(&mut self, rows: usize) -> Result<Vec<f32>> {
        let mut scales = vec![0.0; rows];
        self.f32_rows(&mut scales)?;
        Ok(scales)
    }

    /// Fill `out` with the next f32 values of the payload.
    pub fn f32_rows(&mut self, out: &mut [f32]) -> Result<()> {
        Ok(self.bytes.read_f32s(out)?)
    }

    /// Fill `out` with the next i8 levels of the payload.
    pub fn i8_rows(&mut self, out: &mut [i8]) -> Result<()> {
        Ok(self.bytes.read_i8s(out)?)
    }
}
