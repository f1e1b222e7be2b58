//! Int8 quantized tensors and the quantized matmul driver.
//!
//! The serve tier's `PressureLadder` steps overloaded model classes down to
//! `@int8` versions; this module is what makes that step-down shed real
//! work instead of simulating quantization in f32. It provides:
//!
//! * [`QuantizedTensor`] — true i8 weight storage with **per-output-channel**
//!   (per-row) symmetric scales, 4× smaller than f32 and the layout the int8
//!   micro-kernels consume.
//! * [`QuantizedActivations`] — per-row **7-bit** affine quantization of f32
//!   activations (`v ≈ scale·q + offset`, `q ∈ 0..=127`). Capping at 127
//!   keeps every AVX2 `maddubs` pair sum within i16, so the scalar, AVX2,
//!   and VNNI tiers produce **bit-identical i32 accumulators** (see
//!   [`crate::simd::MatmulKernelI8`]).
//! * [`qmatmul_bt_parallel`] / [`qmatmul_bt_with_isa`] — `X × Wᵀ` with `W`
//!   quantized (stored `[out, in]`, the inference layout): pack `W`'s quads,
//!   then per row stripe quantize the activations per row, run the u8×i8
//!   quad kernels with i32 accumulation, and fold scale, offset correction,
//!   and bias into one dequantizing f32 epilogue at the store.
//! * [`pack_quads`] / [`qmatmul_prepacked`] — the same multiply from quads
//!   packed ahead of the call, for a `W` that is a constant (a loaded
//!   model's layer). Every entry point is "get `W`'s quads, then run the one
//!   driver on them", so the routes cannot differ by a bit.
//!
//! The affine form needs no integer zero-point plumbing: with
//! `x[i][p] = sa[i]·aq[i][p] + lo[i]` and `w[j][p] = sw[j]·wq[j][p]`,
//!
//! ```text
//! C[i][j] = Σ_p x[i][p]·w[j][p]
//!         = sa[i]·sw[j]·Σ_p aq·wq  +  lo[i]·sw[j]·Σ_p wq
//! ```
//!
//! so the epilogue is `sw[j]·(sa[i]·acc[i][j] + lo[i]·wsum[j]) + bias[j]`,
//! where `wsum[j]` is the precomputed i32 row sum stored alongside the
//! quantized weights. The epilogue is evaluated in the same f32 expression
//! order on every tier — vectorized, but as separate multiplies and adds —
//! so whole-matmul outputs are bit-identical across ISAs, not just
//! accumulator-exact. So is the row quantizer, which refuses a row holding
//! a NaN or an infinity with a typed error.
//!
//! On [`Isa::Amx`] a stripe runs on the tile unit instead of the register
//! tile: its rows are quantized straight into 64-byte-window rows (the A
//! tile layout), multiplied in 2×2 blocks of 16×16 i32 tiles over pairs of
//! quad panels (already the B tile layout), stored as i32 into the output
//! and dequantized there in place.
//!
//! i32 accumulation is exact while `k · 127 · 127 < 2³¹`, i.e. any inner
//! dimension below ~133 000 — far beyond the block and layer shapes the
//! system stores.

use crate::dense::Tensor;
use crate::error::{Error, Result};
use crate::matmul::{row_stripes, stripe_count};
use crate::parallel::Parallelism;
use crate::simd::{self, DequantCols, Isa, MatmulKernelI8, TileShape, TileUnit, TILE_ROWS};
use std::cell::RefCell;
use std::sync::Mutex;

/// Maximum quantized activation level: 7-bit so the AVX2 `maddubs` i16
/// intermediates cannot saturate (`127·127·2 = 32258 < 32767`).
pub const ACT_QMAX: u8 = 127;

/// Maximum weight magnitude level (symmetric i8, `-127..=127`; -128 unused
/// to keep the range symmetric).
const WEIGHT_QMAX: i8 = 127;

/// An i8 matrix with per-row symmetric scales — the storage form of a
/// quantized weight tensor `[out_features, in_features]`, where each output
/// channel (row) carries its own scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    /// Row-major i8 levels; `w[r][c] ≈ scales[r] · data[r*cols + c]`.
    data: Vec<i8>,
    /// Per-row dequantization scale (always finite and positive).
    scales: Vec<f32>,
    /// Per-row level sums `Σ_c data[r][c]` — the affine-epilogue correction
    /// term, precomputed once at quantization time.
    row_sums: Vec<i32>,
}

impl QuantizedTensor {
    /// Quantize a 2-D f32 tensor to i8 with per-row symmetric scales.
    pub fn quantize(w: &Tensor) -> Result<QuantizedTensor> {
        let (rows, cols) = w.shape().as_matrix()?;
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![1.0f32; rows];
        for (r, (row, levels)) in w
            .data()
            .chunks_exact(cols.max(1))
            .zip(data.chunks_exact_mut(cols.max(1)))
            .enumerate()
        {
            scales[r] = quantize_row(row, levels).ok_or_else(|| {
                Error::Quantize(format!(
                    "row {r} contains non-finite values; cannot quantize"
                ))
            })?;
        }
        Ok(Self::assemble(rows, cols, data, scales))
    }

    /// Rebuild from stored parts (deserialization); `row_sums` are
    /// recomputed rather than trusted from the wire.
    pub fn from_parts(rows: usize, cols: usize, data: Vec<i8>, scales: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols || scales.len() != rows {
            return Err(Error::Quantize(format!(
                "quantized tensor parts disagree: {rows}x{cols} with {} levels, {} scales",
                data.len(),
                scales.len()
            )));
        }
        if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(Error::Quantize(
                "quantized tensor scales must be finite and positive".into(),
            ));
        }
        Ok(Self::assemble(rows, cols, data, scales))
    }

    fn assemble(rows: usize, cols: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        let row_sums = (0..rows)
            .map(|r| {
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .map(|&q| q as i32)
                    .sum()
            })
            .collect();
        QuantizedTensor {
            rows,
            cols,
            data,
            scales,
            row_sums,
        }
    }

    /// Matrix height (output channels for a weight tensor).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix width (input features for a weight tensor).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major i8 levels.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row level sums (the affine-epilogue correction term).
    pub fn row_sums(&self) -> &[i32] {
        &self.row_sums
    }

    /// What the int8 store needs of this matrix beside its packed levels.
    pub fn epilogue(&self) -> QuantEpilogue<'_> {
        QuantEpilogue {
            cols: self.cols,
            scales: &self.scales,
            row_sums: &self.row_sums,
        }
    }

    /// Bytes this tensor occupies in storage: one byte per level plus one
    /// f32 scale per row (`row_sums` are derived, not stored).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Expand back to f32 (`scales[r] · data[r][c]`) — the reference the
    /// accuracy oracles compare the int8 kernel path against.
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let s = self.scales[r];
            for c in 0..self.cols {
                out[r * self.cols + c] = s * self.data[r * self.cols + c] as f32;
            }
        }
        Tensor::from_vec([self.rows, self.cols], out).expect("quantized dims are consistent")
    }
}

/// Quantize one row of a weight matrix into `levels` (as long as `row`) on
/// its own symmetric scale, which is returned — what
/// [`QuantizedTensor::quantize`] does to every row, for a caller that has
/// the matrix a few rows at a time. `None` if the row holds a NaN or an
/// infinity.
pub fn quantize_row(row: &[f32], levels: &mut [i8]) -> Option<f32> {
    // `f32::max` would skip a NaN; this fold keeps it, and it fails below.
    let max_abs = row.iter().fold(0.0f32, |m, v| {
        if v.abs() > m || v.is_nan() {
            v.abs()
        } else {
            m
        }
    });
    if !max_abs.is_finite() {
        return None;
    }
    let scale = if max_abs > 0.0 {
        max_abs / WEIGHT_QMAX as f32
    } else {
        1.0
    };
    for (q, &v) in levels.iter_mut().zip(row) {
        *q = (v / scale)
            .round()
            .clamp(-(WEIGHT_QMAX as f32), WEIGHT_QMAX as f32) as i8;
    }
    Some(scale)
}

/// What the dequantizing store of `X × Wᵀ` needs of a quantized `W[n, k]`
/// beside its packed levels: the width `k` and, per row, the scale and the
/// level sum. A weight whose levels live elsewhere (packed once, or on
/// storage pages) multiplies with just these.
#[derive(Debug, Clone, Copy)]
pub struct QuantEpilogue<'a> {
    /// `k`, the width of `W`.
    pub cols: usize,
    /// Per-row dequantization scales, `n` of them.
    pub scales: &'a [f32],
    /// Per-row level sums, `n` of them.
    pub row_sums: &'a [i32],
}

/// Per-row 7-bit affine quantization of an activation matrix:
/// `x[r][c] ≈ scales[r] · data[r*cols + c] + offsets[r]`, levels in
/// `0..=`[`ACT_QMAX`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedActivations {
    rows: usize,
    cols: usize,
    /// Row-major u8 levels, each `<= ACT_QMAX`.
    data: Vec<u8>,
    /// Per-row scale.
    scales: Vec<f32>,
    /// Per-row offset (the row minimum).
    offsets: Vec<f32>,
}

impl QuantizedActivations {
    /// Matrix height (batch rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix width (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major u8 levels.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row offsets.
    pub fn offsets(&self) -> &[f32] {
        &self.offsets
    }

    /// Expand back to f32 — the oracle-side counterpart of the packed path.
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let (s, lo) = (self.scales[r], self.offsets[r]);
            for c in 0..self.cols {
                out[r * self.cols + c] = s * self.data[r * self.cols + c] as f32 + lo;
            }
        }
        Tensor::from_vec([self.rows, self.cols], out).expect("quantized dims are consistent")
    }
}

/// Quantize a 2-D f32 activation matrix per row to 7-bit affine levels.
/// `Error::NonFiniteRow` names the first row holding a NaN or an infinity.
pub fn quantize_activations(a: &Tensor) -> Result<QuantizedActivations> {
    let (rows, cols) = a.shape().as_matrix()?;
    quantize_rows(&simd::try_kernels()?.matmul_i8, a.data(), rows, cols, 0)
}

/// Quantize `rows` rows of `cols` values each with `kern`'s row quantizer
/// (every tier's returns the same levels, scales and offsets). A row's
/// levels, scale and offset depend on that row alone, so a row stripe
/// quantized by itself holds exactly what the whole matrix's quantization
/// holds for its rows; `first_row` is the stripe's position in that matrix,
/// for the error.
fn quantize_rows(
    kern: &MatmulKernelI8,
    ad: &[f32],
    rows: usize,
    cols: usize,
    first_row: usize,
) -> Result<QuantizedActivations> {
    let mut data = vec![0u8; rows * cols];
    let mut scales = vec![1.0f32; rows];
    let mut offsets = vec![0.0f32; rows];
    for r in 0..rows {
        let span = r * cols..(r + 1) * cols;
        (scales[r], offsets[r]) = kern
            .quantize_row(&ad[span.clone()], &mut data[span])
            .ok_or_else(|| Error::NonFiniteRow(first_row + r))?;
    }
    Ok(QuantizedActivations {
        rows,
        cols,
        data,
        scales,
        offsets,
    })
}

/// Pack quantized weight `W[n,k]` (stored row-major, one row per output
/// channel) into zero-padded quad panels: panel `jp` holds channels
/// `jp*nr ..`, laid out `[kq][nr][4]` so the micro-kernel streams one
/// `nr·4`-byte line per quad step. Zero-padded lanes (ragged right edge,
/// ragged final quad) contribute nothing to the i32 accumulators.
fn pack_b_i8(levels: &[i8], n: usize, k: usize, nr: usize, out: &mut Vec<i8>) {
    let kq = k.div_ceil(4);
    let panels = n.div_ceil(nr);
    out.clear();
    out.resize(panels * kq * nr * 4, 0);
    for jp in 0..panels {
        let j0 = jp * nr;
        let width = nr.min(n - j0);
        let base = jp * kq * nr * 4;
        for jj in 0..width {
            let row = &levels[(j0 + jj) * k..(j0 + jj) * k + k];
            for (p, &v) in row.iter().enumerate() {
                out[base + (p / 4) * nr * 4 + jj * 4 + (p % 4)] = v;
            }
        }
    }
}

/// Pack rows `i0 .. i0+rows` of the quantized activations into an
/// interleaved `[kq][mr][4]` u8 quad micro-panel (rows past `rows` and
/// k past `cols` zero-padded).
fn pack_a_u8(a: &QuantizedActivations, i0: usize, rows: usize, mr: usize, out: &mut [u8]) {
    let k = a.cols;
    let kq = k.div_ceil(4);
    out[..kq * mr * 4].fill(0);
    for r in 0..rows {
        let row = &a.data[(i0 + r) * k..(i0 + r) * k + k];
        for (p, &v) in row.iter().enumerate() {
            out[(p / 4) * mr * 4 + r * 4 + (p % 4)] = v;
        }
    }
}

thread_local! {
    /// Reusable i8 B-pack scratch, mirroring the f32 path's `B_SCRATCH`.
    static QB_SCRATCH: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
    /// Reusable u8 A scratch: micro-panels on the register tile, window
    /// rows on the tile unit.
    static QA_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Compute rows `i0..i1` of the raw i32 product `acc[i][j] = Σ_p aq·wq`
/// from pre-packed B quad panels, then run `epilogue(global_row, j0, width,
/// acc_tile_row)` for each finished tile row.
fn qgemm_stripe(
    kern: &MatmulKernelI8,
    a: &QuantizedActivations,
    bpack: &[i8],
    i0: usize,
    i1: usize,
    n: usize,
    mut sink: impl FnMut(usize, usize, usize, &[i32]),
) {
    let rows = i1 - i0;
    let k = a.cols;
    if rows == 0 || n == 0 {
        return;
    }
    let (mr, nr) = (kern.mr, kern.nr);
    let kq = k.div_ceil(4);
    let tiles = rows.div_ceil(mr);
    let panels = n.div_ceil(nr);
    let mut acc_tile = [0i32; simd::MAX_MR * simd::MAX_NR];
    QA_SCRATCH.with(|scratch| {
        let mut apack = scratch.borrow_mut();
        let need = tiles * mr * 4 * kq;
        if apack.len() < need {
            apack.resize(need, 0);
        }
        for t in 0..tiles {
            let i = i0 + t * mr;
            let rows_here = mr.min(i1 - i);
            pack_a_u8(
                a,
                i,
                rows_here,
                mr,
                &mut apack[t * mr * 4 * kq..(t + 1) * mr * 4 * kq],
            );
        }
        for jp in 0..panels {
            let bpanel = &bpack[jp * kq * nr * 4..(jp + 1) * kq * nr * 4];
            let j0 = jp * nr;
            let width = nr.min(n - j0);
            for t in 0..tiles {
                let i = i0 + t * mr;
                let rows_here = mr.min(i1 - i);
                let acc = &mut acc_tile[..mr * nr];
                acc.fill(0);
                kern.run(&apack[t * mr * 4 * kq..][..mr * 4 * kq], bpanel, kq, acc);
                for r in 0..rows_here {
                    sink(i + r, j0, width, &acc[r * nr..r * nr + width]);
                }
            }
        }
    });
}

/// The activations of one multiply.
#[derive(Clone, Copy)]
enum Acts<'a> {
    /// Quantized by the caller (the relational block join quantizes an
    /// activation block once and reuses it across weight blocks).
    Quantized(&'a QuantizedActivations),
    /// Row-major f32 `[m, k]`: every row stripe quantizes its own rows, so
    /// the sweep runs on the grant instead of ahead of it.
    Raw { data: &'a [f32], m: usize, k: usize },
}

impl Acts<'_> {
    /// `(m, k)`.
    fn dims(&self) -> (usize, usize) {
        match *self {
            Acts::Quantized(a) => (a.rows, a.cols),
            Acts::Raw { m, k, .. } => (m, k),
        }
    }
}

/// Pack-per-call: pack `w`'s quads into this thread's scratch for `kern`,
/// then run `f` on them.
fn with_scratch_quads<R>(
    kern: &MatmulKernelI8,
    w: &QuantizedTensor,
    f: impl FnOnce(&[i8]) -> R,
) -> R {
    QB_SCRATCH.with(|scratch| {
        let mut bpack = scratch.borrow_mut();
        pack_b_i8(&w.data, w.rows, w.cols, kern.nr, &mut bpack);
        f(&bpack)
    })
}

/// The one quantized-matmul driver: stripe the batch rows over the grant,
/// multiply each stripe from `w`'s packed quads `bpack`, and fold
/// dequantization (+ optional bias) into the f32 store.
fn qmatmul_impl(
    kern: &MatmulKernelI8,
    acts: Acts<'_>,
    w: QuantEpilogue<'_>,
    bpack: &[i8],
    bias: Option<&[f32]>,
    par: &Parallelism,
) -> Result<Tensor> {
    let (m, k) = acts.dims();
    let n = w.scales.len();
    if w.cols != k || w.row_sums.len() != n {
        return Err(Error::ShapeMismatch {
            op: "qmatmul_bt",
            lhs: vec![m, k],
            rhs: vec![n, w.cols],
        });
    }
    if let Some(b) = bias {
        if b.len() != n {
            return Err(Error::ShapeMismatch {
                op: "qmatmul_bt bias",
                lhs: vec![m, n],
                rhs: vec![b.len()],
            });
        }
    }
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return Tensor::from_vec([m, n], c);
    }
    let cols = DequantCols {
        scales: w.scales,
        sums: w.row_sums,
        bias,
    };
    // One stripe: rows `row0..` of the output, from activations this stripe
    // quantizes itself unless the caller already has.
    let run_stripe = |row0: usize, out: &mut [f32]| -> Result<()> {
        if on_tiles(kern, k) {
            tile_stripe(kern, acts, bpack, cols, row0, out)
        } else {
            register_stripe(kern, acts, bpack, cols, row0, out)
        }
    };
    let threads = stripe_count(par.threads(), m, k, n);
    if threads == 1 {
        run_stripe(0, &mut c)?;
    } else {
        // The error of the lowest failing stripe: the first row the whole
        // matrix's quantization would have refused.
        let failed: Mutex<Option<(usize, Error)>> = Mutex::new(None);
        par.run_owned(
            row_stripes(&mut c, m, n, threads, kern.stripe_rows()),
            |(row0, stripe)| {
                if let Err(e) = run_stripe(row0, stripe) {
                    let mut failed = failed.lock().expect("stripe error lock");
                    if failed.as_ref().is_none_or(|(at, _)| row0 < *at) {
                        *failed = Some((row0, e));
                    }
                }
            },
        );
        if let Some((_, e)) = failed.into_inner().expect("stripe error lock") {
            return Err(e);
        }
    }
    Tensor::from_vec([m, n], c)
}

/// Whether a multiply with inner dimension `k` runs on the tile unit: on a
/// tile tier, at any row count (one row padded to a tile still beats the
/// register tile), unless there is no `k` to multiply over.
fn on_tiles(kern: &MatmulKernelI8, k: usize) -> bool {
    kern.has_tiles() && k > 0
}

/// The register-tile body of one stripe (output rows `row0..`, `out`): its
/// rows quantized here unless the caller did, multiplied a micro-tile at a
/// time and dequantized at each tile row's store.
fn register_stripe(
    kern: &MatmulKernelI8,
    acts: Acts<'_>,
    bpack: &[i8],
    cols: DequantCols<'_>,
    row0: usize,
    out: &mut [f32],
) -> Result<()> {
    let n = cols.scales.len();
    let rows = out.len() / n;
    let own;
    let (aq, first) = match acts {
        Acts::Quantized(a) => (a, row0),
        Acts::Raw { data, k, .. } => {
            own = quantize_rows(kern, &data[row0 * k..(row0 + rows) * k], rows, k, row0)?;
            (&own, 0)
        }
    };
    qgemm_stripe(
        kern,
        aq,
        bpack,
        first,
        first + rows,
        n,
        |i, j0, width, acc_row| {
            let c_row = &mut out[(i - first) * n + j0..][..width];
            let (sa, lo) = (aq.scales[i], aq.offsets[i]);
            kern.dequantize_row(acc_row, c_row, sa, lo, cols.range(j0, width));
        },
    );
    Ok(())
}

/// The tile body of one stripe (output rows `row0..`, `out`): its rows laid
/// out for the tile unit — quantized straight into place unless the caller
/// quantized them — then multiplied into `out` as i32 and dequantized there
/// in place once all its panels are done.
fn tile_stripe(
    kern: &MatmulKernelI8,
    acts: Acts<'_>,
    bpack: &[i8],
    cols: DequantCols<'_>,
    row0: usize,
    out: &mut [f32],
) -> Result<()> {
    let n = cols.scales.len();
    let rows = out.len() / n;
    let (_, k) = acts.dims();
    let fill = |r: usize, dst: &mut [u8]| match acts {
        Acts::Quantized(a) => copy_levels(a, row0 + r, dst),
        Acts::Raw { data, .. } => kern
            .quantize_row(&data[(row0 + r) * k..][..k], dst)
            .ok_or_else(|| Error::NonFiniteRow(row0 + r)),
    };
    with_tile_rows(kern, k, rows, fill, |unit, a, params| {
        unit.multiply(a, rows, bpack, n, as_i32(out));
        for (row, &(sa, lo)) in out.chunks_exact_mut(n).zip(params) {
            kern.dequantize_in_place(row, sa, lo, cols);
        }
    })
}

/// Row `r` of caller-quantized activations copied into `dst`, with its
/// scale and offset.
fn copy_levels(a: &QuantizedActivations, r: usize, dst: &mut [u8]) -> Result<(f32, f32)> {
    dst.copy_from_slice(&a.data[r * a.cols..][..a.cols]);
    Ok((a.scales[r], a.offsets[r]))
}

/// A row of f32 slots as i32 slots, for the tile unit to store accumulators
/// into before they are dequantized in place.
fn as_i32(row: &mut [f32]) -> &mut [i32] {
    // SAFETY: f32 and i32 have the same size and alignment, and every bit
    // pattern is a valid value of both.
    unsafe { std::slice::from_raw_parts_mut(row.as_mut_ptr().cast(), row.len()) }
}

/// Lay `rows` activation rows out in this thread's A scratch the way the
/// tile unit loads them (`fill(r, levels)` writes row `r`'s `k` levels and
/// returns its scale and offset; the first error stops the layout), then
/// run `f` with the tile unit configured for `k`, the rows and their
/// `(scale, offset)`s.
fn with_tile_rows<R>(
    kern: &MatmulKernelI8,
    k: usize,
    rows: usize,
    mut fill: impl FnMut(usize, &mut [u8]) -> Result<(f32, f32)>,
    f: impl FnOnce(&TileUnit<'_>, &[u8], &[(f32, f32)]) -> R,
) -> Result<R> {
    let shape = TileShape::new(k);
    let lda = shape.row_bytes();
    let padded = rows.div_ceil(TILE_ROWS) * TILE_ROWS;
    QA_SCRATCH.with(|scratch| {
        let mut a = scratch.borrow_mut();
        if a.len() < padded * lda {
            a.resize(padded * lda, 0);
        }
        let mut params = Vec::with_capacity(rows);
        for (r, row) in a[..rows * lda].chunks_exact_mut(lda).enumerate() {
            params.push(fill(r, &mut row[..k])?);
            shape.place(row);
        }
        a[rows * lda..padded * lda].fill(0);
        Ok(f(&kern.tile_unit(&shape), &a[..padded * lda], &params))
    })
}

/// Raw i32 accumulation `acc[i][j] = Σ_p aq[i][p]·wq[j][p]` on a forced ISA
/// tier — the cross-tier exactness surface the oracle tests pin: every
/// supported tier must return the identical vector.
pub fn qgemm_i32(a: &QuantizedActivations, w: &QuantizedTensor, isa: Isa) -> Result<Vec<i32>> {
    let kern = &simd::kernels_for(isa)?.matmul_i8;
    if w.cols != a.cols {
        return Err(Error::ShapeMismatch {
            op: "qgemm_i32",
            lhs: vec![a.rows, a.cols],
            rhs: vec![w.rows, w.cols],
        });
    }
    let (m, k, n) = (a.rows, a.cols, w.rows);
    let mut acc = vec![0i32; m * n];
    with_scratch_quads(kern, w, |bpack| {
        if on_tiles(kern, k) {
            let fill = |r: usize, dst: &mut [u8]| copy_levels(a, r, dst);
            with_tile_rows(kern, k, m, fill, |unit, at, _| {
                unit.multiply(at, m, bpack, n, &mut acc)
            })
        } else {
            qgemm_stripe(kern, a, bpack, 0, m, n, |i, j0, width, acc_row| {
                acc[i * n + j0..i * n + j0 + width].copy_from_slice(&acc_row[..width]);
            });
            Ok(())
        }
    })?;
    Ok(acc)
}

fn raw_acts(a: &Tensor) -> Result<Acts<'_>> {
    let (m, k) = a.shape().as_matrix()?;
    Ok(Acts::Raw {
        data: a.data(),
        m,
        k,
    })
}

/// Quantized `X × Wᵀ` (+bias) on the process-selected ISA tier, striped over
/// the caller's kernel grant: pack `W`'s quads, then per row stripe quantize
/// `X`'s rows, multiply in u8×i8 with i32 accumulation and dequantize into
/// the store. For a `W` that is a constant, pack once with [`pack_quads`]
/// and call [`qmatmul_prepacked`].
pub fn qmatmul_bt_parallel(
    a: &Tensor,
    w: &QuantizedTensor,
    bias: Option<&[f32]>,
    par: &Parallelism,
) -> Result<Tensor> {
    let kern = &simd::try_kernels()?.matmul_i8;
    let acts = raw_acts(a)?;
    with_scratch_quads(kern, w, |quads| {
        qmatmul_impl(kern, acts, w.epilogue(), quads, bias, par)
    })
}

/// Single-threaded quantized `X × Wᵀ` (+bias) forced onto a specific ISA
/// tier, for tests and benchmarks; errors if the CPU lacks `isa`.
pub fn qmatmul_bt_with_isa(
    a: &Tensor,
    w: &QuantizedTensor,
    bias: Option<&[f32]>,
    isa: Isa,
) -> Result<Tensor> {
    let kern = &simd::kernels_for(isa)?.matmul_i8;
    let acts = raw_acts(a)?;
    with_scratch_quads(kern, w, |quads| {
        qmatmul_impl(
            kern,
            acts,
            w.epilogue(),
            quads,
            bias,
            &Parallelism::serial(),
        )
    })
}

/// Quantized multiply from pre-quantized activations — the relational block
/// join quantizes each activation block once and reuses it across every
/// matching weight block.
pub fn qmatmul_prequantized(
    aq: &QuantizedActivations,
    w: &QuantizedTensor,
    bias: Option<&[f32]>,
    par: &Parallelism,
) -> Result<Tensor> {
    let kern = &simd::try_kernels()?.matmul_i8;
    with_scratch_quads(kern, w, |quads| {
        qmatmul_impl(kern, Acts::Quantized(aq), w.epilogue(), quads, bias, par)
    })
}

/// The panel width [`qmatmul_prepacked`] multiplies from on this host: the
/// dispatched int8 kernel's `nr`.
pub fn quad_panel_width() -> Result<usize> {
    Ok(simd::try_kernels()?.matmul_i8.nr)
}

/// Bytes in the quad panels of an `n × k` quantized matrix at panel width
/// `nr`.
pub fn quads_len(n: usize, k: usize, nr: usize) -> usize {
    n.div_ceil(nr) * k.div_ceil(4) * nr * 4
}

/// Pack the row-major i8 `levels` of an `n × k` matrix into the
/// `[panel][kq][nr][4]` quad panels a kernel of panel width `nr` multiplies
/// from, so that a constant `W` is packed once instead of on every call.
/// `out` is resized to [`quads_len`]. Panels are independent: the rows of
/// panel `p` alone pack to exactly panel `p` of the whole matrix.
pub fn pack_quads(levels: &[i8], n: usize, k: usize, nr: usize, out: &mut Vec<i8>) {
    assert!(
        nr > 0 && n.checked_mul(k) == Some(levels.len()),
        "pack_quads: {} levels are not {n}x{k}, or panel width {nr} is not positive",
        levels.len()
    );
    pack_b_i8(levels, n, k, nr, out);
}

/// Levels `p0 .. p0 + out.len()` of row `j` of the `n × k` matrix that
/// [`pack_quads`] packed into `quads` at panel width `nr`: the packing read
/// back, a run at a time.
pub fn read_quad_row(quads: &[i8], k: usize, nr: usize, j: usize, p0: usize, out: &mut [i8]) {
    let base = j / nr * k.div_ceil(4) * nr * 4 + (j % nr) * 4;
    for (p, v) in (p0..).zip(out.iter_mut()) {
        *v = quads[base + (p / 4) * nr * 4 + p % 4];
    }
}

/// Rows `j0 ..` of that matrix, as many whole rows as `out` holds: the
/// quads read back in order, each once.
pub fn read_quad_rows(quads: &[i8], k: usize, nr: usize, j0: usize, out: &mut [i8]) {
    let kq = k.div_ceil(4);
    let j1 = j0 + out.len() / k.max(1);
    for panel in j0 / nr..j1.div_ceil(nr) {
        let lanes = (j0.max(panel * nr) - panel * nr)..(j1.min(panel * nr + nr) - panel * nr);
        let rows = (panel * nr + lanes.start - j0) * k;
        for (q, quad) in quads[panel * kq * nr * 4..(panel + 1) * kq * nr * 4]
            .chunks_exact(nr * 4)
            .enumerate()
        {
            let width = 4.min(k - 4 * q);
            for (r, lane) in lanes.clone().enumerate() {
                let at = rows + r * k + 4 * q;
                out[at..at + width].copy_from_slice(&quad[lane * 4..lane * 4 + width]);
            }
        }
    }
}

/// [`qmatmul_bt_parallel`] from quads of `W` packed ahead of the call by
/// [`pack_quads`] at panel width `nr`, with `w` the rest of what the store
/// needs of `W`: the same driver on the same panels, so bit-identical to it
/// under any grant. `Error::Isa` if the dispatched kernel multiplies from
/// another width.
pub fn qmatmul_prepacked(
    a: &Tensor,
    w: QuantEpilogue<'_>,
    nr: usize,
    quads: &[i8],
    bias: Option<&[f32]>,
    par: &Parallelism,
) -> Result<Tensor> {
    let kern = &simd::try_kernels()?.matmul_i8;
    if nr != kern.nr {
        return Err(Error::Isa(format!(
            "quads packed {nr} wide, but the dispatched int8 kernel ({}) multiplies from {}",
            kern.name, kern.nr
        )));
    }
    let expected = quads_len(w.scales.len(), w.cols, nr);
    if quads.len() != expected {
        return Err(Error::BufferSizeMismatch {
            expected,
            actual: quads.len(),
        });
    }
    qmatmul_impl(kern, raw_acts(a)?, w, quads, bias, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_bt_parallel;
    use crate::parallel::{SerialRunner, StripeRunner};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Runs stripes inline and remembers the widest fan-out it was asked for.
    #[derive(Default)]
    struct FanOut(AtomicUsize);

    impl StripeRunner for FanOut {
        fn run_stripes(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
            self.0.fetch_max(n_tasks, Ordering::Relaxed);
            SerialRunner.run_stripes(n_tasks, task);
        }

        fn max_concurrency(&self) -> usize {
            usize::MAX
        }
    }

    fn inline_grant(threads: usize) -> Parallelism {
        Parallelism::new(Arc::new(SerialRunner), threads)
    }

    /// Values whose quantization rounds, on a per-row range of their own.
    fn inexact(rows: usize, cols: usize, step: f32) -> Tensor {
        Tensor::from_fn([rows, cols], |i| {
            (i as f32 * step).sin() * (1.0 + (i / cols.max(1)) as f32)
        })
    }

    #[test]
    fn int8_stripes_are_clamped_by_work_not_only_by_rows() {
        let widest_fan_out = |threads: usize, m: usize, k: usize, n: usize| {
            let runner = Arc::new(FanOut::default());
            let w = QuantizedTensor::quantize(&inexact(n, k, 0.4177)).unwrap();
            qmatmul_bt_parallel(
                &inexact(m, k, 0.7311),
                &w,
                None,
                &Parallelism::new(runner.clone(), threads),
            )
            .unwrap();
            runner.0.load(Ordering::Relaxed)
        };
        // Fraud-FC-256@int8 up to a full serving batch: nothing leaves the
        // calling thread.
        assert_eq!(widest_fan_out(2, 64, 28, 256), 0);
        assert_eq!(widest_fan_out(2, 64, 256, 2), 0);
        assert_eq!(widest_fan_out(8, 128, 28, 256), 0);
        // Encoder-FC@int8 at 512 rows: a stripe per granted thread.
        for threads in [2, 4] {
            assert_eq!(widest_fan_out(threads, 512, 76, 3072), threads);
            assert_eq!(widest_fan_out(threads, 512, 3072, 768), threads);
        }
    }

    #[test]
    fn int8_striping_never_changes_a_bit() {
        // Either side of the work clamp, with rows that do not divide into
        // the kernel's tile height, a constant row and a bias: each stripe
        // quantizes its own rows, and returns what one sweep of the whole
        // matrix followed by one stripe does.
        for (m, k, n) in [
            (64, 28, 256),
            (300, 28, 256),
            (131, 129, 257),
            (67, 300, 130),
        ] {
            let mut a = inexact(m, k, 0.7311);
            a.data_mut()[(m / 2) * k..(m / 2 + 1) * k].fill(4.25);
            let w = QuantizedTensor::quantize(&inexact(n, k, 0.4177)).unwrap();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.377).cos()).collect();
            let whole = quantize_activations(&a).unwrap();
            let serial = qmatmul_prequantized(&whole, &w, Some(&bias), &Parallelism::serial());
            let serial = serial.unwrap();
            let mut quads = Vec::new();
            let nr = quad_panel_width().unwrap();
            pack_quads(w.data(), n, k, nr, &mut quads);
            assert_eq!(quads.len(), quads_len(n, k, nr));
            for threads in [1, 2, 3, 8] {
                let grant = inline_grant(threads);
                let per_call = qmatmul_bt_parallel(&a, &w, Some(&bias), &grant).unwrap();
                let prepacked =
                    qmatmul_prepacked(&a, w.epilogue(), nr, &quads, Some(&bias), &grant);
                let prequantized = qmatmul_prequantized(&whole, &w, Some(&bias), &grant);
                for (route, got) in [
                    ("per-call", per_call),
                    ("prepacked", prepacked.unwrap()),
                    ("prequantized", prequantized.unwrap()),
                ] {
                    assert!(
                        got.data() == serial.data(),
                        "{route} {m}x{k}x{n} under {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn a_non_finite_row_is_the_same_typed_error_under_any_grant() {
        // Enough work for four stripes; bad rows in the first, the second
        // and the last.
        let (m, k, n) = (128, 256, 128);
        let mut a = inexact(m, k, 0.7311);
        a.data_mut()[100 * k + 3] = f32::INFINITY;
        a.data_mut()[41 * k + 7] = f32::NEG_INFINITY;
        let w = QuantizedTensor::quantize(&inexact(n, k, 0.4177)).unwrap();
        let expected = quantize_activations(&a).unwrap_err();
        assert_eq!(expected, Error::NonFiniteRow(41));
        for threads in [1, 2, 4, 8] {
            let got = qmatmul_bt_parallel(&a, &w, None, &inline_grant(threads)).unwrap_err();
            assert_eq!(got, expected, "threads={threads}");
        }
        // A NaN is refused like an infinity, on every tier: the lowest
        // failing row is now the NaN's.
        a.data_mut()[17 * k + 200] = f32::NAN;
        let expected = quantize_activations(&a).unwrap_err();
        assert_eq!(expected, Error::NonFiniteRow(17));
        for threads in [1, 2, 4, 8] {
            let got = qmatmul_bt_parallel(&a, &w, None, &inline_grant(threads)).unwrap_err();
            assert_eq!(got, expected, "threads={threads}");
        }
        for isa in Isa::supported() {
            let got = qmatmul_bt_with_isa(&a, &w, None, isa).unwrap_err();
            assert_eq!(got, expected, "{isa}");
        }
    }

    #[test]
    fn nan_is_a_quantize_error_not_level_zero() {
        let row = Tensor::from_vec([1, 4], vec![0.5, f32::NAN, -1.0, 2.0]).unwrap();
        assert!(matches!(
            quantize_activations(&row),
            Err(Error::NonFiniteRow(0))
        ));
        let ones = QuantizedTensor::quantize(&Tensor::full([3, 4], 1.0)).unwrap();
        for isa in Isa::supported() {
            let got = qmatmul_bt_with_isa(&row, &ones, None, isa);
            assert!(matches!(got, Err(Error::NonFiniteRow(0))), "{isa}");
        }
        assert!(matches!(
            qmatmul_bt_parallel(&row, &ones, None, &Parallelism::serial()),
            Err(Error::NonFiniteRow(0))
        ));
        assert!(matches!(
            QuantizedTensor::quantize(&row),
            Err(Error::Quantize(_))
        ));
    }

    #[test]
    fn prepacked_quads_are_validated() {
        let w = QuantizedTensor::quantize(&inexact(5, 6, 0.4177)).unwrap();
        let a = inexact(2, 6, 0.7311);
        let nr = quad_panel_width().unwrap();
        let mut quads = Vec::new();
        pack_quads(w.data(), 5, 6, nr, &mut quads);
        let serial = Parallelism::serial();
        let e = w.epilogue();
        assert!(qmatmul_prepacked(&a, e, nr, &quads, None, &serial).is_ok());
        assert!(matches!(
            qmatmul_prepacked(&a, e, nr, &quads[1..], None, &serial),
            Err(Error::BufferSizeMismatch { .. })
        ));
        let mut foreign = Vec::new();
        pack_quads(w.data(), 5, 6, nr + 1, &mut foreign);
        assert!(matches!(
            qmatmul_prepacked(&a, e, nr + 1, &foreign, None, &serial),
            Err(Error::Isa(_))
        ));
        assert!(matches!(
            qmatmul_prepacked(&inexact(2, 7, 0.7311), e, nr, &quads, None, &serial),
            Err(Error::ShapeMismatch { .. })
        ));
        // Panels are independent: packing a panel's rows alone gives that
        // panel of the whole matrix.
        let tall = QuantizedTensor::quantize(&inexact(3 * nr + 2, 9, 0.31)).unwrap();
        let mut whole = Vec::new();
        pack_quads(tall.data(), 3 * nr + 2, 9, nr, &mut whole);
        let mut pieces = Vec::new();
        for rows in tall.data().chunks(nr * 9) {
            let mut panel = Vec::new();
            pack_quads(rows, rows.len() / 9, 9, nr, &mut panel);
            pieces.extend_from_slice(&panel);
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn packed_quads_read_back_as_the_rows_they_were_packed_from() {
        // Ragged panels and a k with a partial last quad, at every width.
        for nr in [4, 8, 16] {
            let (n, k) = (2 * nr + 3, 9);
            let levels: Vec<i8> = (0..n * k).map(|i| (i % 251) as i8).collect();
            let mut quads = Vec::new();
            pack_quads(&levels, n, k, nr, &mut quads);
            for (j0, rows) in [(0, n), (1, nr), (nr - 1, 2), (n - 1, 1), (3, 0)] {
                let mut out = vec![0; rows * k];
                read_quad_rows(&quads, k, nr, j0, &mut out);
                assert_eq!(out, levels[j0 * k..(j0 + rows) * k], "nr={nr} j0={j0}");
            }
            let mut run = [0; 5];
            read_quad_row(&quads, k, nr, nr + 1, 3, &mut run);
            assert_eq!(run, levels[(nr + 1) * k + 3..(nr + 1) * k + 8]);
        }
    }

    /// One row at a time is the whole matrix's quantization.
    #[test]
    fn quantizing_rows_alone_is_quantizing_the_matrix() {
        let w = inexact(7, 13, 0.377);
        let q = QuantizedTensor::quantize(&w).unwrap();
        for (r, row) in w.data().chunks(13).enumerate() {
            let mut levels = [0; 13];
            assert_eq!(quantize_row(row, &mut levels), Some(q.scales()[r]));
            assert_eq!(levels, q.data()[r * 13..(r + 1) * 13]);
        }
        assert_eq!(quantize_row(&[1.0, f32::INFINITY], &mut [0; 2]), None);
        assert_eq!(quantize_row(&[1.0, f32::NAN], &mut [0; 2]), None);
        assert_eq!(quantize_row(&[f32::NAN, 1.0], &mut [0; 2]), None);
    }

    /// Rows that stress the row quantizer: ragged lengths (every vector tail
    /// at both widths), constant rows, −0 beside +0 in either order, ranges
    /// that overflow or underflow the step, and non-finite values.
    fn quantizer_rows() -> Vec<Vec<f32>> {
        let mut rows = Vec::new();
        for len in 0..=(3 * 16 + 15) {
            rows.push(
                (0..len)
                    .map(|i| ((i * 7 + len) as f32 * 0.7311).sin() * 9.0)
                    .collect(),
            );
            rows.push(vec![-2.5; len]);
            rows.push(
                (0..len)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            rows.push(
                (0..len)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            );
            rows.push(
                (0..len)
                    .map(|i| (i % 5) as f32 - if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            );
        }
        for len in [1, 5, 16, 17, 40] {
            let at = len / 2;
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row: Vec<f32> = (0..len).map(|i| i as f32).collect();
                row[at] = bad;
                rows.push(row);
            }
            // hi − lo overflows to infinity: a zero step reciprocal.
            rows.push(
                (0..len)
                    .map(|i| if i % 2 == 0 { 3.0e38 } else { -3.0e38 })
                    .collect(),
            );
            // hi − lo is subnormal: the step underflows to zero.
            rows.push(
                (0..len)
                    .map(|i| if i % 2 == 0 { 1.0e-45 } else { 0.0 })
                    .collect(),
            );
        }
        rows
    }

    #[test]
    fn every_tier_quantizes_rows_like_the_scalar_tier() {
        let scalar = &simd::kernels_for(Isa::Scalar).unwrap().matmul_i8;
        for row in quantizer_rows() {
            let mut want = vec![0u8; row.len()];
            let want_params = scalar.quantize_row(&row, &mut want);
            for isa in Isa::supported() {
                let kern = &simd::kernels_for(isa).unwrap().matmul_i8;
                let mut got = vec![0xAAu8; row.len()];
                let got_params = kern.quantize_row(&row, &mut got);
                let bits = |p: Option<(f32, f32)>| p.map(|(s, lo)| (s.to_bits(), lo.to_bits()));
                assert_eq!(bits(got_params), bits(want_params), "{isa} {row:?}");
                if want_params.is_some() {
                    assert_eq!(got, want, "{isa} {row:?}");
                    assert!(got.iter().all(|&q| q <= ACT_QMAX), "{isa}");
                }
            }
        }
    }

    #[test]
    fn every_tier_dequantizes_like_the_scalar_tier() {
        let scalar = &simd::kernels_for(Isa::Scalar).unwrap().matmul_i8;
        for n in 0..=(2 * 16 + 15) {
            let acc: Vec<i32> = (0..n as i32)
                .map(|j| (j * 7919 - 60_000) * (j % 3 - 1))
                .collect();
            let scales: Vec<f32> = (0..n)
                .map(|j| 0.001 + (j as f32 * 0.37).cos().abs() * 0.01)
                .collect();
            let sums: Vec<i32> = (0..n as i32).map(|j| j * 131 - 900).collect();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.41).sin()).collect();
            for bias in [None, Some(&bias[..])] {
                let cols = DequantCols {
                    scales: &scales,
                    sums: &sums,
                    bias,
                };
                let mut want = vec![0.0f32; n];
                scalar.dequantize_row(&acc, &mut want, 0.0173, -1.25, cols);
                for isa in Isa::supported() {
                    let kern = &simd::kernels_for(isa).unwrap().matmul_i8;
                    let mut got = vec![0.0f32; n];
                    kern.dequantize_row(&acc, &mut got, 0.0173, -1.25, cols);
                    let mut in_place: Vec<f32> =
                        acc.iter().map(|&a| f32::from_bits(a as u32)).collect();
                    kern.dequantize_in_place(&mut in_place, 0.0173, -1.25, cols);
                    for (g, w) in got.iter().chain(&in_place).zip(want.iter().cycle()) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{isa} n={n}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Rows quantize independently: stripes cut anywhere hold exactly the
        /// levels, scales and offsets of the whole matrix's quantization.
        #[test]
        fn striped_quantization_is_whole_matrix_quantization(
            rows in 1usize..24,
            cols in 0usize..40,
            cut_a in 0usize..24,
            cut_b in 0usize..24,
            constant_row in 0usize..24,
            values in proptest::collection::vec(-1.0e4f32..1.0e4, 24 * 40),
        ) {
            let mut a = Tensor::from_vec([rows, cols], values[..rows * cols].to_vec()).unwrap();
            if constant_row < rows {
                a.data_mut()[constant_row * cols..(constant_row + 1) * cols].fill(-3.5);
            }
            let whole = quantize_activations(&a).unwrap();
            let (lo, hi) = (cut_a.min(cut_b).min(rows), cut_a.max(cut_b).min(rows));
            let (mut data, mut scales, mut offsets) = (Vec::new(), Vec::new(), Vec::new());
            for (r0, r1) in [(0, lo), (lo, hi), (hi, rows)] {
                let kern = &simd::kernels().matmul_i8;
                let stripe = quantize_rows(kern, &a.data()[r0 * cols..r1 * cols], r1 - r0, cols, r0).unwrap();
                data.extend_from_slice(stripe.data());
                scales.extend_from_slice(stripe.scales());
                offsets.extend_from_slice(stripe.offsets());
            }
            prop_assert!(data == whole.data());
            prop_assert!(scales == whole.scales());
            prop_assert!(offsets == whole.offsets());
        }

        /// Every route into `qmatmul_impl`, under grants of 1, 2 and 3, is the
        /// serial multiply — across ragged `k` (partial quads, partial tile
        /// windows, windows moved to the panel's end), rows that do not fill
        /// a tile, and columns that do not fill a panel.
        #[test]
        fn int8_routes_under_any_grant_are_the_serial_multiply(
            m in 1usize..80,
            k in 1usize..200,
            n in 1usize..70,
            seed in 0usize..1000,
        ) {
            let a = Tensor::from_fn([m, k], |i| ((i * 37 + seed) as f32 * 0.7311).sin() * 3.0);
            let w = QuantizedTensor::quantize(&inexact(n, k, 0.4177 + seed as f32 * 1e-4)).unwrap();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.377).cos()).collect();
            let aq = quantize_activations(&a).unwrap();
            let serial = qmatmul_prequantized(&aq, &w, Some(&bias), &Parallelism::serial()).unwrap();
            let nr = quad_panel_width().unwrap();
            let mut quads = Vec::new();
            pack_quads(w.data(), n, k, nr, &mut quads);
            for threads in [1, 2, 3] {
                let grant = inline_grant(threads);
                let routes = [
                    ("per-call", qmatmul_bt_parallel(&a, &w, Some(&bias), &grant).unwrap()),
                    ("prepacked", qmatmul_prepacked(&a, w.epilogue(), nr, &quads, Some(&bias), &grant).unwrap()),
                    ("prequantized", qmatmul_prequantized(&aq, &w, Some(&bias), &grant).unwrap()),
                ];
                for (route, got) in routes {
                    prop_assert!(got.data() == serial.data(), "{} {}x{}x{} under {}", route, m, k, n, threads);
                }
            }
        }
    }

    fn test_matrix(rows: usize, cols: usize, seed: usize) -> Tensor {
        Tensor::from_fn([rows, cols], |i| {
            (((i * 31 + seed * 17 + 7) % 97) as f32 - 48.0) * 0.21
        })
    }

    #[test]
    fn weight_roundtrip_error_is_within_half_step() {
        let w = test_matrix(9, 23, 3);
        let q = QuantizedTensor::quantize(&w).unwrap();
        let back = q.dequantize();
        for r in 0..9 {
            let half_step = q.scales()[r] * 0.5 + 1e-6;
            for c in 0..23 {
                let d = (w.at2(r, c).unwrap() - back.at2(r, c).unwrap()).abs();
                assert!(d <= half_step, "row {r} col {c}: err {d} > {half_step}");
            }
        }
    }

    #[test]
    fn activation_levels_respect_the_7_bit_cap() {
        let a = test_matrix(5, 40, 11);
        let q = quantize_activations(&a).unwrap();
        assert!(q.data().iter().all(|&v| v <= ACT_QMAX));
        let back = q.dequantize();
        for r in 0..5 {
            let half_step = q.scales()[r] * 0.5 + 1e-6;
            for c in 0..40 {
                let d = (a.at2(r, c).unwrap() - back.at2(r, c).unwrap()).abs();
                assert!(d <= half_step);
            }
        }
    }

    #[test]
    fn storage_is_roughly_a_quarter_of_f32() {
        let w = test_matrix(64, 64, 1);
        let q = QuantizedTensor::quantize(&w).unwrap();
        assert_eq!(q.storage_bytes(), 64 * 64 + 64 * 4);
        assert!(q.storage_bytes() * 3 < w.num_bytes());
    }

    #[test]
    fn qmatmul_matches_dequantized_f32_reference() {
        let a = test_matrix(7, 33, 5);
        let w = QuantizedTensor::quantize(&test_matrix(12, 33, 9)).unwrap();
        let aq = quantize_activations(&a).unwrap();
        // Oracle: plain f32 matmul over the *dequantized* operands — the
        // int8 path must agree up to f32 rounding, not quantization error.
        let oracle =
            matmul_bt_parallel(&aq.dequantize(), &w.dequantize(), &Parallelism::serial()).unwrap();
        for isa in Isa::supported() {
            let got = qmatmul_bt_with_isa(&a, &w, None, isa).unwrap();
            assert!(
                got.approx_eq(&oracle, 1e-3),
                "{isa}: max diff {}",
                got.max_abs_diff(&oracle).unwrap()
            );
        }
    }

    #[test]
    fn all_tiers_agree_bit_exactly() {
        let a = test_matrix(11, 50, 2);
        let w = QuantizedTensor::quantize(&test_matrix(19, 50, 4)).unwrap();
        let aq = quantize_activations(&a).unwrap();
        let tiers = Isa::supported();
        let reference = qgemm_i32(&aq, &w, Isa::Scalar).unwrap();
        let ref_out = qmatmul_bt_with_isa(&a, &w, Some(&[0.25; 19]), Isa::Scalar).unwrap();
        for &isa in &tiers[1..] {
            assert_eq!(qgemm_i32(&aq, &w, isa).unwrap(), reference, "{isa} acc");
            let out = qmatmul_bt_with_isa(&a, &w, Some(&[0.25; 19]), isa).unwrap();
            assert_eq!(out.data(), ref_out.data(), "{isa} f32 store");
        }
    }

    #[test]
    fn bias_is_folded_into_the_epilogue() {
        let a = test_matrix(3, 16, 8);
        let w = QuantizedTensor::quantize(&test_matrix(5, 16, 6)).unwrap();
        let bias = vec![1.0, -2.0, 0.5, 3.0, -0.25];
        let plain = qmatmul_bt_with_isa(&a, &w, None, Isa::Scalar).unwrap();
        let biased = qmatmul_bt_with_isa(&a, &w, Some(&bias), Isa::Scalar).unwrap();
        for r in 0..3 {
            for (c, b) in bias.iter().enumerate() {
                let d = biased.at2(r, c).unwrap() - plain.at2(r, c).unwrap();
                assert!((d - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let a = test_matrix(4, 10, 1);
        let w = QuantizedTensor::quantize(&test_matrix(6, 11, 2)).unwrap();
        assert!(matches!(
            qmatmul_bt_with_isa(&a, &w, None, Isa::Scalar),
            Err(Error::ShapeMismatch { .. })
        ));
        let w2 = QuantizedTensor::quantize(&test_matrix(6, 10, 2)).unwrap();
        assert!(matches!(
            qmatmul_bt_with_isa(&a, &w2, Some(&[0.0; 5]), Isa::Scalar),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_rejects_inconsistent_or_bad_scales() {
        assert!(QuantizedTensor::from_parts(2, 3, vec![0; 5], vec![1.0; 2]).is_err());
        assert!(QuantizedTensor::from_parts(2, 3, vec![0; 6], vec![1.0; 3]).is_err());
        assert!(QuantizedTensor::from_parts(2, 3, vec![0; 6], vec![1.0, 0.0]).is_err());
        assert!(QuantizedTensor::from_parts(2, 3, vec![0; 6], vec![1.0, f32::NAN]).is_err());
        let ok = QuantizedTensor::from_parts(2, 3, vec![1, 2, 3, -1, -2, -3], vec![0.5, 2.0]);
        assert_eq!(ok.unwrap().row_sums(), &[6, -6]);
    }

    #[test]
    fn degenerate_shapes_and_constant_rows() {
        // Zero-size operands.
        let a = Tensor::zeros([0, 8]);
        let w = QuantizedTensor::quantize(&Tensor::zeros([3, 8])).unwrap();
        let c = qmatmul_bt_with_isa(&a, &w, None, Isa::Scalar).unwrap();
        assert_eq!(c.shape().dims(), &[0, 3]);
        // A constant activation row (hi == lo) must round-trip exactly.
        let a = Tensor::full([2, 9], 4.25);
        let aq = quantize_activations(&a).unwrap();
        assert_eq!(aq.dequantize(), a);
        // k not a multiple of 4 exercises the ragged final quad.
        let a = test_matrix(4, 7, 3);
        let w = QuantizedTensor::quantize(&test_matrix(5, 7, 1)).unwrap();
        let aq = quantize_activations(&a).unwrap();
        let oracle =
            matmul_bt_parallel(&aq.dequantize(), &w.dequantize(), &Parallelism::serial()).unwrap();
        for isa in Isa::supported() {
            let got = qmatmul_bt_with_isa(&a, &w, None, isa).unwrap();
            assert!(got.approx_eq(&oracle, 1e-3), "{isa}");
        }
    }
}
