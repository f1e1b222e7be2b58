//! ISA-dispatched SIMD kernel layer.
//!
//! The relation-centric execution model bottoms out in dense block kernels
//! (§7.1 of the paper), so the in-database compute is only competitive with
//! an external DL runtime if those kernels use the widest vector units the
//! host offers. This module is the single seam where that decision is made:
//!
//! * [`Isa`] names the dispatch tiers: portable [`Isa::Scalar`], 256-bit
//!   [`Isa::Avx2Fma`], 512-bit [`Isa::Avx512`], [`Isa::Avx512Vnni`] when
//!   the host has the int8 dot-product extension, and [`Isa::Amx`] when it
//!   also has the AMX tile unit and the kernel lets the process use it.
//! * [`Kernels`] is a table of function pointers — one f32 matmul
//!   micro-kernel and one int8 matmul micro-kernel (each with its own tile
//!   geometry, the int8 one with its row quantizer and dequantizing store)
//!   plus the vectorized elementwise kernels (relu, add-assign, axpy, scale,
//!   max/sum reductions) the activation and softmax paths use.
//! * [`kernels`] resolves the table **once per process**: the best available
//!   ISA by runtime CPU feature detection, overridable with the
//!   `RELSERVE_ISA=scalar|avx2|avx512|avx512vnni|amx` environment variable
//!   for reproducibility, testing, and benchmarking. Forcing an ISA the host
//!   does not support fails with a clear error instead of executing illegal
//!   instructions.
//!
//! Every kernel entry point in [`crate::matmul`] and [`crate::ops`] routes
//! through this table, so higher layers (conv2d's im2col product, the
//! relational `TensorTable::matmul_bt`, the executors' activation paths)
//! inherit the widest ISA without call-site changes. Tests and benchmarks
//! that need a *specific* path use [`kernels_for`] directly.

use crate::error::{Error, Result};
use crate::matmul::Epilogue;
use std::fmt;
use std::sync::OnceLock;

/// Environment variable that forces the dispatch tier for the whole process.
pub const ISA_ENV: &str = "RELSERVE_ISA";

/// Largest micro-tile height any kernel uses (the AVX-512 f32 tile's 12);
/// sizing for stack accumulators.
pub const MAX_MR: usize = 12;
/// Largest micro-tile width any kernel uses (the AVX-512 f32 tile's 32);
/// sizing for stack accumulators.
pub const MAX_NR: usize = 32;

/// An instruction-set tier the kernel layer can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable Rust; the compiler autovectorizes for the baseline target
    /// (SSE2 on `x86-64`). Always available.
    Scalar,
    /// 256-bit AVX2 with fused multiply-add (`ymm` registers).
    Avx2Fma,
    /// 512-bit AVX-512F (`zmm` registers and lane masks).
    Avx512,
    /// AVX-512 with the VNNI int8 dot-product extension (`vpdpbusd`). The
    /// f32 kernels are identical to [`Isa::Avx512`]; this tier upgrades the
    /// int8 matmul micro-kernel from the `maddubs`+`madd` emulation to a
    /// single fused u8×i8→i32 instruction per quad.
    Avx512Vnni,
    /// [`Isa::Avx512Vnni`] plus the AMX tile unit (AMX-TILE and AMX-INT8):
    /// the int8 multiply runs its row stripes in 16×16 i32 tiles with
    /// `tdpbusd`, from the same 16-wide quad panels. The f32 kernels and the
    /// int8 panel width are the VNNI tier's.
    Amx,
}

impl Isa {
    /// The stable token used by [`ISA_ENV`], benchmark JSON, and logs.
    pub fn token(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Avx512Vnni => "avx512vnni",
            Isa::Amx => "amx",
        }
    }

    /// Parse an [`ISA_ENV`] token.
    pub fn parse(s: &str) -> Result<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Isa::Scalar),
            "avx2" => Ok(Isa::Avx2Fma),
            "avx512" => Ok(Isa::Avx512),
            "avx512vnni" | "vnni" => Ok(Isa::Avx512Vnni),
            "amx" => Ok(Isa::Amx),
            other => Err(Error::Isa(format!(
                "unknown ISA {other:?} (valid {ISA_ENV} values: scalar, avx2, avx512, avx512vnni, amx)"
            ))),
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Vnni => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Amx => Isa::Avx512Vnni.available() && tile::permitted(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every tier the running CPU supports, narrowest first.
    pub fn supported() -> Vec<Isa> {
        [
            Isa::Scalar,
            Isa::Avx2Fma,
            Isa::Avx512,
            Isa::Avx512Vnni,
            Isa::Amx,
        ]
        .into_iter()
        .filter(|isa| isa.available())
        .collect()
    }

    /// The widest tier the running CPU supports.
    pub fn best() -> Isa {
        *Isa::supported().last().expect("scalar is always available")
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One register-tiled matmul micro-kernel and its tile geometry.
///
/// The micro-kernel multiplies an interleaved `[kc][mr]` A micro-panel by a
/// `[kc][nr]` B panel in registers and stores the product itself: it starts
/// its accumulators at zero, runs one chain over `p` per element, then adds
/// each accumulator into its element of `C` with masked vector loads and
/// stores and finishes it with the [`Epilogue`] — bias, then ReLU — in
/// registers. `mr`/`nr`/`kc` are *per-kernel* parameters — the packing and
/// blocking driver in [`crate::matmul`] shapes its panels to whatever
/// geometry the dispatched kernel declares, so a 12×32 `zmm` tile and a 4×8
/// `ymm` tile coexist behind one seam. The FMA tiers' chains are sequential
/// fused multiply-adds from zero, so they agree to the bit whatever their
/// geometry; a tile of fewer live rows or columns than the kernel's runs a
/// narrower variant of the same chains.
pub struct MatmulKernel {
    /// The tier this kernel requires.
    pub isa: Isa,
    /// Micro-tile rows: accumulator height held in registers.
    pub mr: usize,
    /// Micro-tile columns: accumulator width held in registers.
    pub nr: usize,
    /// k-dimension cache block: packed panels of this depth stay L1/L2
    /// resident.
    pub kc: usize,
    /// Human-readable kernel name, e.g. `"avx512 12x32"`; benchmarks print it
    /// so a reader can tell which micro-kernel actually ran.
    pub name: &'static str,
    micro: unsafe fn(&[f32], &[f32], usize, CTile<'_>, Epilogue<'_>),
}

/// The live corner of one micro-tile in `C`: `rows × width` elements, row
/// `r` at `c[r * ldc ..][.. width]`.
#[derive(Debug)]
pub struct CTile<'c> {
    /// `C` from the tile's first element on.
    pub c: &'c mut [f32],
    /// Distance between the tile's rows in `c`.
    pub ldc: usize,
    /// Live rows, `1..=mr`.
    pub rows: usize,
    /// Live columns, `1..=nr`.
    pub width: usize,
}

impl MatmulKernel {
    /// Run the micro-kernel on one tile: element `(r, j)` of `tile` becomes
    /// `epilogue(tile[r][j] + Σ_p apack[p*mr + r] * bpanel[p*nr + j])` for
    /// `p < kc`, the sum one chain started from zero and the epilogue's bias
    /// indexed from the tile's first column.
    #[inline(always)]
    pub fn run(
        &self,
        apack: &[f32],
        bpanel: &[f32],
        kc: usize,
        tile: CTile<'_>,
        epilogue: Epilogue<'_>,
    ) {
        let (rows, width) = (tile.rows, tile.width);
        assert!(
            apack.len() >= kc * self.mr
                && bpanel.len() >= kc * self.nr
                && (1..=self.mr).contains(&rows)
                && (1..=self.nr).contains(&width)
                && width <= tile.ldc
                && tile.c.len() >= (rows - 1) * tile.ldc + width
                && epilogue.bias().is_none_or(|b| b.len() >= width),
            "micro-kernel operands smaller than the declared tile geometry"
        );
        // SAFETY: kernels are only reachable through `kernels_for`, which
        // verifies the ISA is available on this CPU, and the slice bounds the
        // target-feature implementations rely on were just asserted.
        unsafe { (self.micro)(apack, bpanel, kc, tile, epilogue) }
    }
}

impl fmt::Debug for MatmulKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatmulKernel")
            .field("isa", &self.isa)
            .field("name", &self.name)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .field("kc", &self.kc)
            .finish()
    }
}

/// One register-tiled **int8** matmul micro-kernel and its tile geometry.
///
/// Operands are packed in *quads* — groups of 4 adjacent k elements — to
/// match the u8×i8 dot-product instructions, which consume 4 bytes per lane
/// per step. The micro-kernel computes
/// `acc[r][c] += Σ_j apack[q][r][j] * bpanel[q][c][j]` (`j < 4`) over `kq`
/// quads, where `apack` is a `[kq][mr][4]` panel of **unsigned** activation
/// bytes, `bpanel` a `[kq][nr][4]` panel of **signed** weight bytes, and
/// `acc` a row-major `mr×nr` i32 accumulator.
///
/// Activation bytes are restricted to `0..=127` (7-bit quantization) by the
/// packers in [`crate::quant`]. That keeps every `maddubs` intermediate pair
/// sum within i16 (max `127·127·2 = 32258 < 32767`), so the AVX2 tier never
/// saturates and **all tiers produce bit-identical i32 accumulators** — the
/// cross-tier exactness the oracle tests pin.
///
/// Beside the micro-kernel, each tier carries the two sweeps around it: the
/// row quantizer that makes those levels and the dequantizing store that
/// turns accumulators into f32. Both are vectorized where the tier has
/// vectors and return exactly what the scalar tier returns. On
/// [`Isa::Amx`] the int8 multiply runs on the tile unit instead; that
/// tier's micro-kernel is the VNNI one.
pub struct MatmulKernelI8 {
    /// The tier this kernel requires.
    pub isa: Isa,
    /// Micro-tile rows: accumulator height held in registers.
    pub mr: usize,
    /// Micro-tile columns: accumulator width held in registers.
    pub nr: usize,
    /// Human-readable kernel name, e.g. `"vnni vpdpbusd 8x16"`.
    pub name: &'static str,
    micro: unsafe fn(&[u8], &[i8], usize, &mut [i32]),
    quantize: RowQuantizer,
    dequantize: RowDequantizer,
    tiles: bool,
}

/// A row quantizer: a row's levels into the second slice, its `(scale,
/// offset)` returned, `None` for a row holding a NaN or an infinity.
type RowQuantizer = unsafe fn(&[f32], &mut [u8]) -> Option<(f32, f32)>;

/// A dequantizing store of `cols.len()` accumulators into as many f32 slots
/// (possibly the same memory), given the row's scale and offset.
type RowDequantizer = unsafe fn(*const i32, *mut f32, f32, f32, DequantCols<'_>);

/// Per output column, what the dequantizing store of `X × Wᵀ` multiplies
/// and adds: `W`'s row scales and level sums, and the bias, one per column
/// of a run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DequantCols<'a> {
    pub scales: &'a [f32],
    pub sums: &'a [i32],
    pub bias: Option<&'a [f32]>,
}

impl<'a> DequantCols<'a> {
    /// Columns `j0 .. j0 + len`.
    pub fn range(self, j0: usize, len: usize) -> DequantCols<'a> {
        DequantCols {
            scales: &self.scales[j0..j0 + len],
            sums: &self.sums[j0..j0 + len],
            bias: self.bias.map(|b| &b[j0..j0 + len]),
        }
    }

    fn len(&self) -> usize {
        self.scales.len()
    }

    fn holds(&self, len: usize) -> bool {
        self.scales.len() == len
            && self.sums.len() == len
            && self.bias.is_none_or(|b| b.len() == len)
    }
}

impl MatmulKernelI8 {
    /// Run the micro-kernel over `kq` quads:
    /// `acc[r*nr + c] += Σ_{j<4} apack[(q*mr + r)*4 + j] *
    /// bpanel[(q*nr + c)*4 + j]` for `q < kq`.
    #[inline(always)]
    pub fn run(&self, apack: &[u8], bpanel: &[i8], kq: usize, acc: &mut [i32]) {
        assert!(
            apack.len() >= kq * self.mr * 4
                && bpanel.len() >= kq * self.nr * 4
                && acc.len() >= self.mr * self.nr,
            "int8 micro-kernel operands smaller than the declared tile geometry"
        );
        // SAFETY: kernels are only reachable through `kernels_for`, which
        // verifies the ISA is available on this CPU, and the slice bounds the
        // target-feature implementations rely on were just asserted.
        unsafe { (self.micro)(apack, bpanel, kq, acc) }
    }

    /// Quantize one activation row to 7-bit affine levels in `out`:
    /// `round((v − lo)/scale)` capped at 127, with `lo` the row minimum and
    /// `scale = (max − lo)/127` (1 for a constant row). Returns
    /// `(scale, lo)`, or `None` if the row holds a NaN or an infinity.
    pub(crate) fn quantize_row(&self, row: &[f32], out: &mut [u8]) -> Option<(f32, f32)> {
        assert_eq!(row.len(), out.len(), "quantize_row length mismatch");
        // SAFETY: availability checked at table selection; lengths agree.
        unsafe { (self.quantize)(row, out) }
    }

    /// The dequantizing store of one output row:
    /// `out[j] = scales[j]·(sa·acc[j] + lo·sums[j]) + bias[j]`, evaluated in
    /// that order with no fused multiply-add on every tier.
    pub(crate) fn dequantize_row(
        &self,
        acc: &[i32],
        out: &mut [f32],
        sa: f32,
        lo: f32,
        cols: DequantCols<'_>,
    ) {
        assert!(
            acc.len() == out.len() && cols.holds(out.len()),
            "dequantize_row length mismatch"
        );
        // SAFETY: availability checked at table selection; every operand
        // holds `cols.len()` elements.
        unsafe { (self.dequantize)(acc.as_ptr(), out.as_mut_ptr(), sa, lo, cols) }
    }

    /// [`MatmulKernelI8::dequantize_row`] over a row whose slots hold the
    /// i32 accumulators' bits, as the tile unit stores them.
    pub(crate) fn dequantize_in_place(
        &self,
        row: &mut [f32],
        sa: f32,
        lo: f32,
        cols: DequantCols<'_>,
    ) {
        assert!(cols.holds(row.len()), "dequantize_in_place length mismatch");
        let p = row.as_mut_ptr();
        // SAFETY: as above; every kernel reads element `j` before it writes
        // it, so reading and writing the same slots is sound.
        unsafe { (self.dequantize)(p.cast::<i32>().cast_const(), p, sa, lo, cols) }
    }

    /// Whether the int8 multiply runs this tier's stripes on the tile
    /// unit.
    pub(crate) fn has_tiles(&self) -> bool {
        self.tiles
    }

    /// The tile unit, configured for `shape` on this thread.
    pub(crate) fn tile_unit<'s>(&self, shape: &'s TileShape) -> TileUnit<'s> {
        assert!(self.tiles, "{} has no tile unit", self.name);
        // SAFETY: `tiles` is set only on the AMX table, which `kernels_for`
        // hands out after the CPU and the kernel granted the tile unit.
        unsafe { TileUnit::configure(shape) }
    }

    /// Rows a stripe of the int8 multiply is a multiple of (but the last):
    /// whole micro-tiles, or whole pairs of 16-row tiles on a tile tier.
    pub(crate) fn stripe_rows(&self) -> usize {
        if self.tiles {
            2 * TILE_ROWS
        } else {
            self.mr
        }
    }
}

impl fmt::Debug for MatmulKernelI8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatmulKernelI8")
            .field("isa", &self.isa)
            .field("name", &self.name)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .finish()
    }
}

/// The dispatch table for one ISA tier: a matmul micro-kernel plus the
/// vectorized elementwise/reduction kernels. Obtained from [`kernels`]
/// (process-wide selection) or [`kernels_for`] (explicit tier).
pub struct Kernels {
    /// The tier every kernel in this table requires.
    pub isa: Isa,
    /// The register-tiled matmul micro-kernel.
    pub matmul: MatmulKernel,
    /// The register-tiled int8 matmul micro-kernel (quantized path).
    pub matmul_i8: MatmulKernelI8,
    relu: unsafe fn(&mut [f32]),
    add_assign: unsafe fn(&mut [f32], &[f32]),
    axpy: unsafe fn(&mut [f32], &[f32], f32),
    scale: unsafe fn(&mut [f32], f32),
    vmax: unsafe fn(&[f32]) -> f32,
    vsum: unsafe fn(&[f32]) -> f32,
}

impl Kernels {
    /// `x = max(x, 0)` over the slice.
    #[inline]
    pub fn relu(&self, xs: &mut [f32]) {
        // SAFETY: availability was checked when this table was handed out.
        unsafe { (self.relu)(xs) }
    }

    /// `dst[i] += src[i]` — the bias-add / accumulation row kernel.
    #[inline]
    pub fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
        // SAFETY: availability checked at table selection; lengths agree.
        unsafe { (self.add_assign)(dst, src) }
    }

    /// `dst[i] += src[i] * k` — the fused SGD update kernel.
    #[inline]
    pub fn axpy(&self, dst: &mut [f32], src: &[f32], k: f32) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        // SAFETY: availability checked at table selection; lengths agree.
        unsafe { (self.axpy)(dst, src, k) }
    }

    /// `x *= k` over the slice.
    #[inline]
    pub fn scale(&self, xs: &mut [f32], k: f32) {
        // SAFETY: availability was checked when this table was handed out.
        unsafe { (self.scale)(xs, k) }
    }

    /// Maximum element (`NEG_INFINITY` for an empty slice) — the row-max
    /// reduction of numerically-stabilized softmax.
    #[inline]
    pub fn max(&self, xs: &[f32]) -> f32 {
        if xs.is_empty() {
            return f32::NEG_INFINITY;
        }
        // SAFETY: availability was checked when this table was handed out.
        unsafe { (self.vmax)(xs) }
    }

    /// Sum of the elements — the row-sum reduction of softmax normalization.
    #[inline]
    pub fn sum(&self, xs: &[f32]) -> f32 {
        // SAFETY: availability was checked when this table was handed out.
        unsafe { (self.vsum)(xs) }
    }
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels")
            .field("isa", &self.isa)
            .field("matmul", &self.matmul)
            .finish()
    }
}

/// The dispatch table for an explicit tier; errors if the CPU lacks it.
pub fn kernels_for(isa: Isa) -> Result<&'static Kernels> {
    if !isa.available() {
        return Err(Error::Isa(format!(
            "ISA {isa:?} ({isa}) is not supported by this CPU; supported tiers: {}",
            Isa::supported()
                .iter()
                .map(|i| i.token())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    Ok(match isa {
        Isa::Scalar => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => &AVX2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => &AVX512VNNI,
        #[cfg(target_arch = "x86_64")]
        Isa::Amx => &AMX,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar ISAs report unavailable off x86_64"),
    })
}

/// The process-wide dispatch table: resolved once at first use from
/// [`ISA_ENV`] if set (an unset or empty variable means auto-detect),
/// otherwise from [`Isa::best`]. Errors only when the override names an
/// unknown token or a tier this CPU cannot execute.
pub fn try_kernels() -> Result<&'static Kernels> {
    static SELECTED: OnceLock<Result<&'static Kernels>> = OnceLock::new();
    SELECTED
        .get_or_init(|| match std::env::var(ISA_ENV) {
            Ok(v) if !v.trim().is_empty() => kernels_for(Isa::parse(&v)?),
            _ => kernels_for(Isa::best()),
        })
        .clone()
}

/// Infallible form of [`try_kernels`] for kernels whose signatures cannot
/// carry a `Result` (elementwise ops). Panics with the selection error when
/// [`ISA_ENV`] forces an unknown or unavailable tier — a clear failure
/// instead of an illegal-instruction fault.
pub fn kernels() -> &'static Kernels {
    try_kernels().unwrap_or_else(|e| panic!("SIMD kernel selection failed: {e}"))
}

/// The tier the process-wide table dispatches to (selection is cached).
pub fn active_isa() -> Isa {
    kernels().isa
}

// ---------------------------------------------------------------------------
// Scalar tier. Plain Rust loops over fixed 4×8 tiles: the compiler unrolls
// and autovectorizes for the baseline target, and this is the oracle-adjacent
// fallback every other tier is property-tested against.
// ---------------------------------------------------------------------------

/// 4×8 scalar micro-kernel, a separate multiply and add per step.
/// `unsafe` only to share the dispatch-table signature; it has no safety
/// requirements beyond the asserted bounds.
unsafe fn micro_scalar_4x8(
    apack: &[f32],
    bpanel: &[f32],
    kc: usize,
    tile: CTile<'_>,
    epilogue: Epilogue<'_>,
) {
    let mut acc = [0.0f32; 32];
    for p in 0..kc {
        let a: &[f32; 4] = apack[p * 4..p * 4 + 4].try_into().unwrap();
        let b: &[f32; 8] = bpanel[p * 8..p * 8 + 8].try_into().unwrap();
        for r in 0..4 {
            let ar = a[r];
            for c in 0..8 {
                acc[r * 8 + c] += ar * b[c];
            }
        }
    }
    for (r, sums) in acc.chunks_exact(8).take(tile.rows).enumerate() {
        let row = &mut tile.c[r * tile.ldc..][..tile.width];
        for (j, (c, t)) in row.iter_mut().zip(sums).enumerate() {
            *c = epilogue.finish(*c + *t, j);
        }
    }
}

unsafe fn relu_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

unsafe fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

unsafe fn axpy_scalar(dst: &mut [f32], src: &[f32], k: f32) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s * k;
    }
}

unsafe fn scale_scalar(xs: &mut [f32], k: f32) {
    for x in xs {
        *x *= k;
    }
}

unsafe fn max_scalar(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

unsafe fn sum_scalar(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// 4×8 scalar int8 micro-kernel over quads — the reference the SIMD tiers
/// are pinned to bit-for-bit. `unsafe` only to share the dispatch-table
/// signature.
unsafe fn micro_i8_scalar_4x8(apack: &[u8], bpanel: &[i8], kq: usize, acc: &mut [i32]) {
    let acc: &mut [i32; 32] = (&mut acc[..32]).try_into().unwrap();
    for q in 0..kq {
        let a = &apack[q * 16..q * 16 + 16];
        let b = &bpanel[q * 32..q * 32 + 32];
        for r in 0..4 {
            let aq = &a[r * 4..r * 4 + 4];
            for c in 0..8 {
                let bq = &b[c * 4..c * 4 + 4];
                let mut dot = 0i32;
                for j in 0..4 {
                    dot += aq[j] as i32 * bq[j] as i32;
                }
                acc[r * 8 + c] += dot;
            }
        }
    }
}

/// The affine step of a row with range `lo..=hi` (`empty` rows have range
/// `0..=0`): `(scale, lo)`, `None` if the row held a NaN (`nan`) or either
/// end is infinite. Every tier's row quantizer ends its min/max sweep here,
/// so they agree on the parameters by construction.
#[inline(always)]
fn act_params(lo: f32, hi: f32, empty: bool, nan: bool) -> Option<(f32, f32)> {
    let (lo, hi) = if empty { (0.0, 0.0) } else { (lo, hi) };
    if nan || !lo.is_finite() || !hi.is_finite() {
        return None;
    }
    let qmax = crate::quant::ACT_QMAX as f32;
    let scale = if hi > lo { (hi - lo) / qmax } else { 1.0 };
    // A min/max sweep may meet −0 and +0 in any order; they quantize alike,
    // and one of them is reported so that every tier reports the same bits.
    Some((scale, if lo == 0.0 { 0.0 } else { lo }))
}

/// The level of `v` on a row's affine step: `(v − lo)·inv` is in `0..=127`
/// (± an ulp), so the truncating cast after `+ 0.5` rounds half up, and the
/// cap catches the ulp. The vector tiers cap in f32 before converting, which
/// is the same for every input (a NaN from an overflowing range converts to
/// level 0 both ways).
#[inline(always)]
fn act_level(v: f32, lo: f32, inv: f32) -> u8 {
    (((v - lo) * inv + 0.5) as i32).min(crate::quant::ACT_QMAX as i32) as u8
}

/// One dequantized output: `sw·(sa·acc + lo·sum) + b`, in this order.
#[inline(always)]
fn dequant_one(acc: i32, sa: f32, lo: f32, sw: f32, sum: i32, bias: Option<f32>) -> f32 {
    let v = sw * (sa * acc as f32 + lo * sum as f32);
    match bias {
        Some(b) => v + b,
        None => v,
    }
}

/// The reference row quantizer: one pass for the range, one for the levels.
unsafe fn quantize_row_scalar(row: &[f32], out: &mut [u8]) -> Option<(f32, f32)> {
    let (mut lo, mut hi, mut nan) = (f32::INFINITY, f32::NEG_INFINITY, false);
    for &v in row {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
        nan |= v.is_nan();
    }
    let (scale, lo) = act_params(lo, hi, row.is_empty(), nan)?;
    let inv = 1.0 / scale;
    for (d, &v) in out.iter_mut().zip(row) {
        *d = act_level(v, lo, inv);
    }
    Some((scale, lo))
}

/// The reference dequantizing store; `acc` and `out` may be the same slots.
unsafe fn dequantize_scalar(
    acc: *const i32,
    out: *mut f32,
    sa: f32,
    lo: f32,
    cols: DequantCols<'_>,
) {
    for j in 0..cols.len() {
        let b = cols.bias.map(|b| b[j]);
        *out.add(j) = dequant_one(*acc.add(j), sa, lo, cols.scales[j], cols.sums[j], b);
    }
}

static SCALAR: Kernels = Kernels {
    isa: Isa::Scalar,
    matmul: MatmulKernel {
        isa: Isa::Scalar,
        mr: 4,
        nr: 8,
        kc: 256,
        name: "scalar 4x8",
        micro: micro_scalar_4x8,
    },
    matmul_i8: MatmulKernelI8 {
        isa: Isa::Scalar,
        mr: 4,
        nr: 8,
        name: "scalar i8 4x8",
        micro: micro_i8_scalar_4x8,
        quantize: quantize_row_scalar,
        dequantize: dequantize_scalar,
        tiles: false,
    },
    relu: relu_scalar,
    add_assign: add_assign_scalar,
    axpy: axpy_scalar,
    scale: scale_scalar,
    vmax: max_scalar,
    vsum: sum_scalar,
};

// ---------------------------------------------------------------------------
// AVX2+FMA tier. 256-bit lanes: the 4×8 matmul tile is four ymm accumulator
// registers; elementwise kernels run 8 lanes per step with a scalar tail.
// The crate builds for baseline x86-64 (SSE2), so these are selected at
// runtime via feature detection rather than compile-time target flags.
// ---------------------------------------------------------------------------

/// AVX2+FMA 4×8 micro-kernel: each accumulator row is one 256-bit register,
/// so the whole tile lives in four `ymm` registers and every `p` step issues
/// four fused multiply-adds against a single B load. The live rows are then
/// added into `C` through a lane mask of the live columns, and finished.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2_4x8(
    apack: &[f32],
    bpanel: &[f32],
    kc: usize,
    tile: CTile<'_>,
    epilogue: Epilogue<'_>,
) {
    use std::arch::x86_64::*;
    debug_assert!(apack.len() >= kc * 4 && bpanel.len() >= kc * 8);
    let mut acc = [_mm256_setzero_ps(); 4];
    let ap = apack.as_ptr();
    let bp = bpanel.as_ptr();
    for p in 0..kc {
        let b = _mm256_loadu_ps(bp.add(p * 8));
        let a = ap.add(p * 4);
        for (r, c) in acc.iter_mut().enumerate() {
            *c = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(r)), b, *c);
        }
    }
    let live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(tile.width as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let zero = _mm256_setzero_ps();
    // A match, not a closure, keeps the intrinsic in this target-feature
    // function.
    #[allow(clippy::manual_map)]
    let bias = match epilogue.bias() {
        Some(b) => Some(_mm256_maskload_ps(b.as_ptr(), live)),
        None => None,
    };
    let relu = matches!(epilogue, Epilogue::BiasRelu(_));
    let c = tile.c.as_mut_ptr();
    for (r, sums) in acc.iter().enumerate() {
        if r < tile.rows {
            let row = c.add(r * tile.ldc);
            let mut v = _mm256_add_ps(_mm256_maskload_ps(row, live), *sums);
            if let Some(b) = bias {
                v = _mm256_add_ps(v, b);
            }
            if relu {
                v = _mm256_max_ps(v, zero);
            }
            _mm256_maskstore_ps(row, live, v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relu_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_max_ps(_mm256_loadu_ps(p.add(i)), zero));
        i += 8;
    }
    for x in &mut xs[i..] {
        *x = x.max(0.0);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let sum = _mm256_add_ps(_mm256_loadu_ps(d.add(i)), _mm256_loadu_ps(s.add(i)));
        _mm256_storeu_ps(d.add(i), sum);
        i += 8;
    }
    for (x, y) in dst[i..].iter_mut().zip(&src[i..]) {
        *x += *y;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], k: f32) {
    use std::arch::x86_64::*;
    let kv = _mm256_set1_ps(k);
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let acc = _mm256_fmadd_ps(_mm256_loadu_ps(s.add(i)), kv, _mm256_loadu_ps(d.add(i)));
        _mm256_storeu_ps(d.add(i), acc);
        i += 8;
    }
    for (x, y) in dst[i..].iter_mut().zip(&src[i..]) {
        *x += *y * k;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(xs: &mut [f32], k: f32) {
    use std::arch::x86_64::*;
    let kv = _mm256_set1_ps(k);
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), kv));
        i += 8;
    }
    for x in &mut xs[i..] {
        *x *= k;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_avx2(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_ptr();
    let mut best = f32::NEG_INFINITY;
    let mut i = 0;
    if n >= 8 {
        let mut acc = _mm256_loadu_ps(p);
        i = 8;
        while i + 8 <= n {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        best = lanes.iter().copied().fold(best, f32::max);
    }
    xs[i..].iter().copied().fold(best, f32::max)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i)));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut total: f32 = lanes.iter().sum();
    for x in &xs[i..] {
        total += *x;
    }
    total
}

/// AVX2 4×8 int8 micro-kernel: emulates the u8×i8 dot-product with
/// `maddubs` (u8×i8 → adjacent-pair i16 sums) followed by `madd` against
/// ones (i16 pairs → i32). Each accumulator row is one `ymm` of 8 i32
/// lanes; every quad step issues one 32-byte B load and four broadcast
/// multiply-accumulate sequences. Activation bytes ≤ 127 guarantee the
/// i16 intermediates cannot saturate, so the result is bit-identical to
/// the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_i8_avx2_4x8(apack: &[u8], bpanel: &[i8], kq: usize, acc: &mut [i32]) {
    use std::arch::x86_64::*;
    debug_assert!(apack.len() >= kq * 16 && bpanel.len() >= kq * 32 && acc.len() >= 32);
    let cp = acc.as_mut_ptr();
    let mut c0 = _mm256_loadu_si256(cp as *const __m256i);
    let mut c1 = _mm256_loadu_si256(cp.add(8) as *const __m256i);
    let mut c2 = _mm256_loadu_si256(cp.add(16) as *const __m256i);
    let mut c3 = _mm256_loadu_si256(cp.add(24) as *const __m256i);
    let ones = _mm256_set1_epi16(1);
    let ap = apack.as_ptr();
    let bp = bpanel.as_ptr();
    for q in 0..kq {
        let b = _mm256_loadu_si256(bp.add(q * 32) as *const __m256i);
        let a = ap.add(q * 16) as *const i32;
        let p0 = _mm256_madd_epi16(
            _mm256_maddubs_epi16(_mm256_set1_epi32(a.read_unaligned()), b),
            ones,
        );
        let p1 = _mm256_madd_epi16(
            _mm256_maddubs_epi16(_mm256_set1_epi32(a.add(1).read_unaligned()), b),
            ones,
        );
        let p2 = _mm256_madd_epi16(
            _mm256_maddubs_epi16(_mm256_set1_epi32(a.add(2).read_unaligned()), b),
            ones,
        );
        let p3 = _mm256_madd_epi16(
            _mm256_maddubs_epi16(_mm256_set1_epi32(a.add(3).read_unaligned()), b),
            ones,
        );
        c0 = _mm256_add_epi32(c0, p0);
        c1 = _mm256_add_epi32(c1, p1);
        c2 = _mm256_add_epi32(c2, p2);
        c3 = _mm256_add_epi32(c3, p3);
    }
    _mm256_storeu_si256(cp as *mut __m256i, c0);
    _mm256_storeu_si256(cp.add(8) as *mut __m256i, c1);
    _mm256_storeu_si256(cp.add(16) as *mut __m256i, c2);
    _mm256_storeu_si256(cp.add(24) as *mut __m256i, c3);
}

/// AVX2 row quantizer: 8-lane min/max with an unordered-compare NaN mask,
/// then `(v − lo)·inv + 0.5` (separate multiply and add), capped at 127 in
/// f32, truncated to i32 and narrowed to bytes by two saturating packs. The
/// ragged tail runs the scalar expressions, lane for lane the same.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], out: &mut [u8]) -> Option<(f32, f32)> {
    use std::arch::x86_64::*;
    let n = row.len();
    let p = row.as_ptr();
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut unordered = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(p.add(i));
        unordered = _mm256_or_ps(unordered, _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
        i += 8;
    }
    let (mut lanes_lo, mut lanes_hi) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(lanes_lo.as_mut_ptr(), vlo);
    _mm256_storeu_ps(lanes_hi.as_mut_ptr(), vhi);
    let mut nan = _mm256_movemask_ps(unordered) != 0;
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for (&l, &h) in lanes_lo.iter().zip(&lanes_hi) {
        lo = if l < lo { l } else { lo };
        hi = if h > hi { h } else { hi };
    }
    for &v in &row[i..] {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
        nan |= v.is_nan();
    }
    let (scale, lo) = act_params(lo, hi, n == 0, nan)?;
    let inv = 1.0 / scale;
    let (vlo, vinv) = (_mm256_set1_ps(lo), _mm256_set1_ps(inv));
    let (half, cap) = (
        _mm256_set1_ps(0.5),
        _mm256_set1_ps(crate::quant::ACT_QMAX as f32),
    );
    let o = out.as_mut_ptr();
    i = 0;
    while i + 8 <= n {
        let t = _mm256_add_ps(
            _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vlo), vinv),
            half,
        );
        // `min(cap, t)`, not `min(t, cap)`: a NaN `t` must reach the convert.
        let q = _mm256_cvttps_epi32(_mm256_min_ps(cap, t));
        let words = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storel_epi64(o.add(i).cast(), _mm_packus_epi16(words, words));
        i += 8;
    }
    for (d, &v) in out[i..].iter_mut().zip(&row[i..]) {
        *d = act_level(v, lo, inv);
    }
    Some((scale, lo))
}

/// AVX2 dequantizing store, 8 columns per step with a scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_avx2(acc: *const i32, out: *mut f32, sa: f32, lo: f32, cols: DequantCols<'_>) {
    use std::arch::x86_64::*;
    let n = cols.len();
    let (vsa, vlo) = (_mm256_set1_ps(sa), _mm256_set1_ps(lo));
    let (sw, sums) = (cols.scales.as_ptr(), cols.sums.as_ptr());
    let mut j = 0;
    while j + 8 <= n {
        let a = _mm256_cvtepi32_ps(_mm256_loadu_si256(acc.add(j).cast()));
        let s = _mm256_cvtepi32_ps(_mm256_loadu_si256(sums.add(j).cast()));
        let t = _mm256_add_ps(_mm256_mul_ps(vsa, a), _mm256_mul_ps(vlo, s));
        let mut v = _mm256_mul_ps(_mm256_loadu_ps(sw.add(j)), t);
        if let Some(b) = cols.bias {
            v = _mm256_add_ps(v, _mm256_loadu_ps(b.as_ptr().add(j)));
        }
        _mm256_storeu_ps(out.add(j), v);
        j += 8;
    }
    for j in j..n {
        let b = cols.bias.map(|b| b[j]);
        *out.add(j) = dequant_one(*acc.add(j), sa, lo, cols.scales[j], cols.sums[j], b);
    }
}

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    isa: Isa::Avx2Fma,
    matmul: MatmulKernel {
        isa: Isa::Avx2Fma,
        mr: 4,
        nr: 8,
        kc: 256,
        name: "avx2+fma 4x8",
        micro: micro_avx2_4x8,
    },
    matmul_i8: MatmulKernelI8 {
        isa: Isa::Avx2Fma,
        mr: 4,
        nr: 8,
        name: "avx2 maddubs 4x8",
        micro: micro_i8_avx2_4x8,
        quantize: quantize_row_avx2,
        dequantize: dequantize_avx2,
        tiles: false,
    },
    relu: relu_avx2,
    add_assign: add_assign_avx2,
    axpy: axpy_avx2,
    scale: scale_avx2,
    vmax: max_avx2,
    vsum: sum_avx2,
};

// ---------------------------------------------------------------------------
// AVX-512 tier. 512-bit lanes: the matmul tile widens to 12×32 — 24 zmm
// accumulator registers, two 16-float B loads per k step, twelve broadcast
// rows each feeding two FMAs. Elementwise kernels run 16 lanes per step and
// use lane masks for ragged tails instead of scalar epilogues.
// ---------------------------------------------------------------------------

/// AVX-512 12×32 micro-kernel: accumulator row `r` is two 512-bit registers
/// (columns 0..16 and 16..32), so the whole tile occupies 24 of the 32
/// architectural `zmm` registers, leaving two for the B row and room for
/// the broadcasts. Each `p` step loads one 32-float B row and issues 24
/// fused multiply-adds against twelve broadcast A values: 24 independent
/// accumulator chains cover the FMA latency of two 512-bit ports (4 cycles
/// × 2 ports = 8 in flight) three times over, and 14 loads feed 24 FMAs.
/// Each element is one sequential FMA chain over `p`, so the tile agrees
/// with the AVX2 4×8 kernel bit for bit.
///
/// A tile of at most 16 live columns (a narrow output layer) runs only the
/// low half, 12 accumulators and one B load per step: the chains of the
/// live elements are the same.
///
/// # Safety
/// The CPU has AVX-512F, and the operands hold what
/// [`MatmulKernel::run`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512_12x32(
    apack: &[f32],
    bpanel: &[f32],
    kc: usize,
    tile: CTile<'_>,
    epilogue: Epilogue<'_>,
) {
    debug_assert!(apack.len() >= kc * 12 && bpanel.len() >= kc * 32);
    let (ap, bp) = (apack.as_ptr(), bpanel.as_ptr());
    match tile.width > 16 {
        true => tile_avx512::<true>(ap, bp, kc, tile, epilogue),
        false => tile_avx512::<false>(ap, bp, kc, tile, epilogue),
    }
}

/// [`micro_avx512_12x32`]'s chains, both column halves when `WIDE` and the
/// low one otherwise, stored into the tile's live corner.
///
/// # Safety
/// As [`micro_avx512_12x32`]; `tile.width <= 16` unless `WIDE`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const WIDE: bool>(
    ap: *const f32,
    bp: *const f32,
    kc: usize,
    tile: CTile<'_>,
    epilogue: Epilogue<'_>,
) {
    use std::arch::x86_64::*;
    let mut lo = [_mm512_setzero_ps(); 12];
    let mut hi = [_mm512_setzero_ps(); 12];
    for p in 0..kc {
        let a = ap.add(p * 12);
        let b0 = _mm512_loadu_ps(bp.add(p * 32));
        if WIDE {
            let b1 = _mm512_loadu_ps(bp.add(p * 32 + 16));
            for r in 0..12 {
                let ar = _mm512_set1_ps(*a.add(r));
                lo[r] = _mm512_fmadd_ps(ar, b0, lo[r]);
                hi[r] = _mm512_fmadd_ps(ar, b1, hi[r]);
            }
        } else {
            for (r, acc) in lo.iter_mut().enumerate() {
                *acc = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r)), b0, *acc);
            }
        }
    }
    let lanes = |w: usize| -> __mmask16 { (((1u32 << w.min(16)) - 1) & 0xffff) as __mmask16 };
    let (m_lo, m_hi) = (lanes(tile.width), lanes(tile.width.saturating_sub(16)));
    // A match, not a closure, keeps the intrinsics in this target-feature
    // function.
    #[allow(clippy::manual_map)]
    let bias = match epilogue.bias() {
        Some(b) => Some((
            _mm512_maskz_loadu_ps(m_lo, b.as_ptr()),
            _mm512_maskz_loadu_ps(m_hi, b.as_ptr().wrapping_add(16)),
        )),
        None => None,
    };
    let relu = matches!(epilogue, Epilogue::BiasRelu(_));
    let c = tile.c.as_mut_ptr();
    for r in 0..tile.rows {
        let row = c.add(r * tile.ldc);
        store_avx512(row, m_lo, lo[r], bias.map(|b| b.0), relu);
        if WIDE {
            store_avx512(row.add(16), m_hi, hi[r], bias.map(|b| b.1), relu);
        }
    }
}

/// Add `sums` into the `mask` lanes at `c`, then `+ bias` and ReLU.
///
/// # Safety
/// The CPU has AVX-512F, and the `mask` lanes at `c` are `C`'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store_avx512(
    c: *mut f32,
    mask: std::arch::x86_64::__mmask16,
    sums: std::arch::x86_64::__m512,
    bias: Option<std::arch::x86_64::__m512>,
    relu: bool,
) {
    use std::arch::x86_64::*;
    let mut v = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, c), sums);
    if let Some(b) = bias {
        v = _mm512_add_ps(v, b);
    }
    if relu {
        v = _mm512_max_ps(v, _mm512_setzero_ps());
    }
    _mm512_mask_storeu_ps(c, mask, v);
}

/// Lane mask selecting the `rem` low lanes (`rem` in `1..=15`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn tail_mask16(rem: usize) -> u16 {
    debug_assert!((1..16).contains(&rem));
    (1u16 << rem) - 1
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn relu_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        _mm512_storeu_ps(p.add(i), _mm512_max_ps(_mm512_loadu_ps(p.add(i)), zero));
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        let v = _mm512_maskz_loadu_ps(m, p.add(i));
        _mm512_mask_storeu_ps(p.add(i), m, _mm512_max_ps(v, zero));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_assign_avx512(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i + 16 <= n {
        let sum = _mm512_add_ps(_mm512_loadu_ps(d.add(i)), _mm512_loadu_ps(s.add(i)));
        _mm512_storeu_ps(d.add(i), sum);
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        let sum = _mm512_add_ps(
            _mm512_maskz_loadu_ps(m, d.add(i)),
            _mm512_maskz_loadu_ps(m, s.add(i)),
        );
        _mm512_mask_storeu_ps(d.add(i), m, sum);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(dst: &mut [f32], src: &[f32], k: f32) {
    use std::arch::x86_64::*;
    let kv = _mm512_set1_ps(k);
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i + 16 <= n {
        let acc = _mm512_fmadd_ps(_mm512_loadu_ps(s.add(i)), kv, _mm512_loadu_ps(d.add(i)));
        _mm512_storeu_ps(d.add(i), acc);
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        let acc = _mm512_fmadd_ps(
            _mm512_maskz_loadu_ps(m, s.add(i)),
            kv,
            _mm512_maskz_loadu_ps(m, d.add(i)),
        );
        _mm512_mask_storeu_ps(d.add(i), m, acc);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scale_avx512(xs: &mut [f32], k: f32) {
    use std::arch::x86_64::*;
    let kv = _mm512_set1_ps(k);
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        _mm512_storeu_ps(p.add(i), _mm512_mul_ps(_mm512_loadu_ps(p.add(i)), kv));
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        let v = _mm512_mul_ps(_mm512_maskz_loadu_ps(m, p.add(i)), kv);
        _mm512_mask_storeu_ps(p.add(i), m, v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn max_avx512(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_ptr();
    let mut acc = _mm512_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i + 16 <= n {
        acc = _mm512_max_ps(acc, _mm512_loadu_ps(p.add(i)));
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        // Masked-out lanes keep the running maxima, not zeros.
        let v = _mm512_mask_loadu_ps(acc, m, p.add(i));
        acc = _mm512_max_ps(acc, v);
    }
    _mm512_reduce_max_ps(acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sum_avx512(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_ptr();
    let mut acc = _mm512_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        acc = _mm512_add_ps(acc, _mm512_loadu_ps(p.add(i)));
        i += 16;
    }
    if i < n {
        // Masked-out lanes load as zero, which is the additive identity.
        acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(tail_mask16(n - i), p.add(i)));
    }
    _mm512_reduce_add_ps(acc)
}

#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    isa: Isa::Avx512,
    matmul: MatmulKernel {
        isa: Isa::Avx512,
        mr: 12,
        nr: 32,
        kc: 256,
        name: "avx512 12x32",
        micro: micro_avx512_12x32,
    },
    // Plain AVX-512F does not imply VNNI, and there is no profitable 512-bit
    // int8 path without it (avx512bw `vpmaddubsw` CPUs without VNNI are
    // rare); every avx512f CPU has AVX2, so the maddubs kernel is the widest
    // int8 kernel this tier can promise.
    matmul_i8: MatmulKernelI8 {
        isa: Isa::Avx2Fma,
        mr: 4,
        nr: 8,
        name: "avx2 maddubs 4x8",
        micro: micro_i8_avx2_4x8,
        quantize: quantize_row_avx2,
        dequantize: dequantize_avx2,
        tiles: false,
    },
    relu: relu_avx512,
    add_assign: add_assign_avx512,
    axpy: axpy_avx512,
    scale: scale_avx512,
    vmax: max_avx512,
    vsum: sum_avx512,
};

// ---------------------------------------------------------------------------
// AVX-512 VNNI tier. Same f32 kernels as AVX-512; the int8 matmul upgrades
// to `vpdpbusd` — one instruction fuses the u8×i8 multiply, the quad
// horizontal add, and the i32 accumulate that cost three instructions on
// the AVX2 tier, at twice the vector width.
// ---------------------------------------------------------------------------

/// AVX-512 VNNI 8×16 int8 micro-kernel: accumulator row `r` is one `zmm` of
/// 16 i32 lanes; every quad step issues one 64-byte B load and eight
/// `vpdpbusd` instructions against broadcast activation quads. `vpdpbusd`
/// accumulates the full u8×i8 quad dot-product in i32 with no intermediate
/// narrowing, so it is exact for any byte inputs — bit-identical to the
/// scalar reference by construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn micro_i8_vnni_8x16(apack: &[u8], bpanel: &[i8], kq: usize, acc: &mut [i32]) {
    use std::arch::x86_64::*;
    debug_assert!(apack.len() >= kq * 32 && bpanel.len() >= kq * 64 && acc.len() >= 128);
    let cp = acc.as_mut_ptr();
    let mut c0 = _mm512_loadu_si512(cp.cast());
    let mut c1 = _mm512_loadu_si512(cp.add(16).cast());
    let mut c2 = _mm512_loadu_si512(cp.add(32).cast());
    let mut c3 = _mm512_loadu_si512(cp.add(48).cast());
    let mut c4 = _mm512_loadu_si512(cp.add(64).cast());
    let mut c5 = _mm512_loadu_si512(cp.add(80).cast());
    let mut c6 = _mm512_loadu_si512(cp.add(96).cast());
    let mut c7 = _mm512_loadu_si512(cp.add(112).cast());
    let ap = apack.as_ptr();
    let bp = bpanel.as_ptr();
    for q in 0..kq {
        let b = _mm512_loadu_si512(bp.add(q * 64).cast());
        let a = ap.add(q * 32) as *const i32;
        c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(a.read_unaligned()), b);
        c1 = _mm512_dpbusd_epi32(c1, _mm512_set1_epi32(a.add(1).read_unaligned()), b);
        c2 = _mm512_dpbusd_epi32(c2, _mm512_set1_epi32(a.add(2).read_unaligned()), b);
        c3 = _mm512_dpbusd_epi32(c3, _mm512_set1_epi32(a.add(3).read_unaligned()), b);
        c4 = _mm512_dpbusd_epi32(c4, _mm512_set1_epi32(a.add(4).read_unaligned()), b);
        c5 = _mm512_dpbusd_epi32(c5, _mm512_set1_epi32(a.add(5).read_unaligned()), b);
        c6 = _mm512_dpbusd_epi32(c6, _mm512_set1_epi32(a.add(6).read_unaligned()), b);
        c7 = _mm512_dpbusd_epi32(c7, _mm512_set1_epi32(a.add(7).read_unaligned()), b);
    }
    _mm512_storeu_si512(cp.cast(), c0);
    _mm512_storeu_si512(cp.add(16).cast(), c1);
    _mm512_storeu_si512(cp.add(32).cast(), c2);
    _mm512_storeu_si512(cp.add(48).cast(), c3);
    _mm512_storeu_si512(cp.add(64).cast(), c4);
    _mm512_storeu_si512(cp.add(80).cast(), c5);
    _mm512_storeu_si512(cp.add(96).cast(), c6);
    _mm512_storeu_si512(cp.add(112).cast(), c7);
}

/// AVX-512 row quantizer: the AVX2 tier's sweeps at 16 lanes, with a lane
/// mask for the ragged tail and `vpmovdb` to narrow.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_row_avx512(row: &[f32], out: &mut [u8]) -> Option<(f32, f32)> {
    use std::arch::x86_64::*;
    let n = row.len();
    let p = row.as_ptr();
    let mut vlo = _mm512_set1_ps(f32::INFINITY);
    let mut vhi = _mm512_set1_ps(f32::NEG_INFINITY);
    let mut unordered: __mmask16 = 0;
    let mut i = 0;
    while i + 16 <= n {
        let v = _mm512_loadu_ps(p.add(i));
        unordered |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
        vlo = _mm512_min_ps(vlo, v);
        vhi = _mm512_max_ps(vhi, v);
        i += 16;
    }
    if i < n {
        let m = tail_mask16(n - i);
        let v = _mm512_maskz_loadu_ps(m, p.add(i));
        unordered |= _mm512_mask_cmp_ps_mask::<_CMP_UNORD_Q>(m, v, v);
        vlo = _mm512_mask_min_ps(vlo, m, vlo, v);
        vhi = _mm512_mask_max_ps(vhi, m, vhi, v);
    }
    let (lo, hi) = (_mm512_reduce_min_ps(vlo), _mm512_reduce_max_ps(vhi));
    let (scale, lo) = act_params(lo, hi, n == 0, unordered != 0)?;
    let inv = 1.0 / scale;
    let (vlo, vinv) = (_mm512_set1_ps(lo), _mm512_set1_ps(inv));
    let (half, cap) = (
        _mm512_set1_ps(0.5),
        _mm512_set1_ps(crate::quant::ACT_QMAX as f32),
    );
    let o = out.as_mut_ptr();
    i = 0;
    while i < n {
        let m = if n - i >= 16 { !0 } else { tail_mask16(n - i) };
        let v = _mm512_maskz_loadu_ps(m, p.add(i));
        let t = _mm512_add_ps(_mm512_mul_ps(_mm512_sub_ps(v, vlo), vinv), half);
        // `min(cap, t)`, not `min(t, cap)`: a NaN `t` must reach the convert.
        let q = _mm512_cvttps_epi32(_mm512_min_ps(cap, t));
        _mm512_mask_cvtepi32_storeu_epi8(o.add(i).cast(), m, q);
        i += 16;
    }
    Some((scale, lo))
}

/// AVX-512 dequantizing store, 16 columns per step, the tail masked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dequantize_avx512(
    acc: *const i32,
    out: *mut f32,
    sa: f32,
    lo: f32,
    cols: DequantCols<'_>,
) {
    use std::arch::x86_64::*;
    let n = cols.len();
    let (vsa, vlo) = (_mm512_set1_ps(sa), _mm512_set1_ps(lo));
    let (sw, sums) = (cols.scales.as_ptr(), cols.sums.as_ptr());
    let mut j = 0;
    while j < n {
        let m = if n - j >= 16 { !0 } else { tail_mask16(n - j) };
        let a = _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(m, acc.add(j)));
        let s = _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(m, sums.add(j)));
        let t = _mm512_add_ps(_mm512_mul_ps(vsa, a), _mm512_mul_ps(vlo, s));
        let mut v = _mm512_mul_ps(_mm512_maskz_loadu_ps(m, sw.add(j)), t);
        if let Some(b) = cols.bias {
            v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, b.as_ptr().add(j)));
        }
        _mm512_mask_storeu_ps(out.add(j), m, v);
        j += 16;
    }
}

#[cfg(target_arch = "x86_64")]
static AVX512VNNI: Kernels = Kernels {
    isa: Isa::Avx512Vnni,
    matmul: MatmulKernel {
        isa: Isa::Avx512,
        mr: 12,
        nr: 32,
        kc: 256,
        name: "avx512 12x32",
        micro: micro_avx512_12x32,
    },
    matmul_i8: MatmulKernelI8 {
        isa: Isa::Avx512Vnni,
        mr: 8,
        nr: 16,
        name: "vnni vpdpbusd 8x16",
        micro: micro_i8_vnni_8x16,
        quantize: quantize_row_avx512,
        dequantize: dequantize_avx512,
        tiles: false,
    },
    relu: relu_avx512,
    add_assign: add_assign_avx512,
    axpy: axpy_avx512,
    scale: scale_avx512,
    vmax: max_avx512,
    vsum: sum_avx512,
};

// ---------------------------------------------------------------------------
// AMX tier. The VNNI tier's kernels, plus the tile unit: eight 1 KiB tile
// registers and `tdpbusd`, which multiplies a 16×64 u8 tile by a 16×(16·4)
// i8 tile into a 16×16 i32 tile — 16 384 multiply-adds per instruction. A
// 16-wide quad panel `[kq][16][4]` is already the B tile's layout (one
// 64-byte tile row per quad step), so weights are packed exactly as on the
// VNNI tier.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
static AMX: Kernels = Kernels {
    isa: Isa::Amx,
    matmul: MatmulKernel {
        isa: Isa::Avx512,
        mr: 12,
        nr: 32,
        kc: 256,
        name: "avx512 12x32",
        micro: micro_avx512_12x32,
    },
    matmul_i8: MatmulKernelI8 {
        isa: Isa::Amx,
        mr: 8,
        nr: 16,
        name: "amx tdpbusd 16x16",
        micro: micro_i8_vnni_8x16,
        quantize: quantize_row_avx512,
        dequantize: dequantize_avx512,
        tiles: true,
    },
    relu: relu_avx512,
    add_assign: add_assign_avx512,
    axpy: axpy_avx512,
    scale: scale_avx512,
    vmax: max_avx512,
    vsum: sum_avx512,
};

/// Rows of an A and a C tile, and i32 columns of a C tile.
pub(crate) const TILE_ROWS: usize = 16;
/// Bytes in one tile row: one A window of 16 quads, one B quad step of 16
/// columns, one C row of 16 i32.
const TILE_BYTES: usize = 64;

/// How a stripe with inner dimension `k` meets the tile unit.
///
/// The k axis is cut into windows of up to 16 quads, one `tdpbusd` each. A
/// holds a row's levels row-major, `row_bytes()` per row: one 64-byte window
/// after another, zero past `k`. When `k` spans more than one window and
/// the quad count is not a multiple of 16, the last window is moved back to
/// end at the panel's last quad — so its B tile never reads past the panel
/// — and the A levels it shares with the window before are zero in its
/// copy. When `k` fits one window, the tiles are configured that short. No
/// B byte is ever copied.
#[derive(Debug, Clone)]
pub(crate) struct TileShape {
    k: usize,
    kq: usize,
    /// Quads per window: 16, or `kq` when `k` fits one window.
    quads: usize,
    windows: usize,
    /// Windows that start at quad `16·w`; any other is the moved last one.
    aligned: usize,
    /// Bytes the moved window's own levels sit right of their place in `k`.
    shift: usize,
}

impl TileShape {
    /// The windows of inner dimension `k` (`k > 0`).
    pub(crate) fn new(k: usize) -> TileShape {
        assert!(k > 0, "the tile unit needs a non-empty inner dimension");
        let kq = k.div_ceil(4);
        let per = TILE_BYTES / 4;
        let (aligned, tail) = if kq <= per {
            (1, 0)
        } else {
            (kq / per, kq % per)
        };
        TileShape {
            k,
            kq,
            quads: kq.min(per),
            windows: aligned + usize::from(tail > 0),
            aligned,
            shift: if tail > 0 { TILE_BYTES - 4 * tail } else { 0 },
        }
    }

    /// Bytes per A row.
    pub(crate) fn row_bytes(&self) -> usize {
        self.windows * TILE_BYTES
    }

    /// Lay out a row of `row_bytes()` whose levels are in `row[..k]`: move
    /// the last window's levels into place and zero everything else.
    pub(crate) fn place(&self, row: &mut [u8]) {
        let row = &mut row[..self.row_bytes()];
        row[self.k..].fill(0);
        if self.shift > 0 {
            let start = self.aligned * TILE_BYTES;
            row.copy_within(start..self.k, start + self.shift);
            row[start..start + self.shift].fill(0);
        }
    }

    /// First quad of window `w` in a B panel.
    fn b_quad(&self, w: usize) -> usize {
        if w < self.aligned {
            w * self.quads
        } else {
            self.kq - self.quads
        }
    }
}

/// The tile unit, configured for one [`TileShape`] on this thread:
/// tiles 0–3 are a 2×2 block of C, 4–5 two A tiles, 6–7 two B tiles.
/// Dropping it releases the tiles, so a thread that returns to the kernel
/// pool carries no live tile state.
pub(crate) struct TileUnit<'s> {
    shape: &'s TileShape,
    /// Tile state belongs to the thread that loaded it.
    _thread: std::marker::PhantomData<*const ()>,
}

impl<'s> TileUnit<'s> {
    /// # Safety
    /// The CPU has AMX-TILE and AMX-INT8, and the process was granted the
    /// tile data state ([`Isa::Amx`] is available).
    unsafe fn configure(shape: &'s TileShape) -> TileUnit<'s> {
        let mut cfg = tile::Config::default();
        let window = (4 * shape.quads) as u16;
        for t in 0..4 {
            cfg.set(t, TILE_ROWS, TILE_BYTES as u16);
        }
        for t in 4..6 {
            cfg.set(t, TILE_ROWS, window);
        }
        for t in 6..8 {
            cfg.set(t, shape.quads, TILE_BYTES as u16);
        }
        tile::load_config(&cfg);
        TileUnit {
            shape,
            _thread: std::marker::PhantomData,
        }
    }

    /// `c[i][j] = Σ_p a[i][p]·w[j][p]` for `rows` rows: `a` is laid out by
    /// the shape (`row_bytes()` per row, whole 16-row tiles), `bpack` holds
    /// the 16-wide quad panels of `n` columns, and `c` is row-major `rows ×
    /// n`. Whole C tiles are stored straight into `c`; a tile cut by the
    /// last row or column goes through a scratch tile.
    pub(crate) fn multiply(&self, a: &[u8], rows: usize, bpack: &[i8], n: usize, c: &mut [i32]) {
        let shape = self.shape;
        let lda = shape.row_bytes();
        let row_tiles = rows.div_ceil(TILE_ROWS);
        let panels = n.div_ceil(TILE_ROWS);
        let panel = shape.kq * TILE_BYTES;
        assert!(
            a.len() >= row_tiles * TILE_ROWS * lda
                && bpack.len() >= panels * panel
                && c.len() >= rows * n,
            "tile operands smaller than their shapes"
        );
        let mut edge = tile::EdgeTile::default();
        for rt in (0..row_tiles).step_by(2) {
            let two_rows = rt + 1 < row_tiles;
            for p in (0..panels).step_by(2) {
                let two_cols = p + 1 < panels;
                // SAFETY: the unit is configured for `shape`, so every load
                // reads `TILE_ROWS` rows of `4·quads` bytes `lda` apart from
                // `a` (inside the asserted row tiles) and `quads` rows of 64
                // bytes from a window that ends inside its panel.
                unsafe {
                    tile::zero_block();
                    for w in 0..shape.windows {
                        let a0 = a.as_ptr().add(rt * TILE_ROWS * lda + w * TILE_BYTES);
                        let b0 = bpack.as_ptr().add(p * panel + shape.b_quad(w) * TILE_BYTES);
                        tile::dot_block(a0, lda, b0.cast(), panel, two_rows, two_cols);
                    }
                }
                for (t, dr, dc) in [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)] {
                    if (dr == 0 || two_rows) && (dc == 0 || two_cols) {
                        let at = ((rt + dr) * TILE_ROWS, (p + dc) * TILE_ROWS);
                        // SAFETY: configured unit; `c` holds `rows × n`.
                        unsafe { tile::store_c(t, c, rows, n, at, &mut edge) };
                    }
                }
            }
        }
    }
}

impl Drop for TileUnit<'_> {
    fn drop(&mut self) {
        // SAFETY: the unit exists only where the tile unit is usable.
        unsafe { tile::release() }
    }
}

/// The tile unit's instructions. The compiler does not track tile
/// registers, so each `asm!` names its tiles and the blocks stay in program
/// order (none is `pure`); loads and stores touch memory the compiler can
/// see through their pointer operands.
#[cfg(target_arch = "x86_64")]
mod tile {
    use super::{TILE_BYTES, TILE_ROWS};
    use std::arch::asm;
    use std::os::raw::c_long;
    use std::sync::OnceLock;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    /// Whether this process may use the tile unit: the CPU reports AMX-TILE
    /// (CPUID.(7,0):EDX[24]) and AMX-INT8 (EDX[25]), and Linux granted the
    /// tile data state (`arch_prctl(ARCH_REQ_XCOMP_PERM,
    /// XFEATURE_XTILEDATA)`). Asked once per process; the grant covers
    /// every thread.
    pub(super) fn permitted() -> bool {
        static PERMITTED: OnceLock<bool> = OnceLock::new();
        *PERMITTED.get_or_init(|| {
            use std::arch::x86_64::{__cpuid_count, __get_cpuid_max};
            if __get_cpuid_max(0).0 < 7 {
                return false;
            }
            let edx = __cpuid_count(7, 0).edx;
            edx & (1 << 24) != 0 && edx & (1 << 25) != 0 && request_tile_data()
        })
    }

    #[cfg(target_os = "linux")]
    fn request_tile_data() -> bool {
        const SYS_ARCH_PRCTL: c_long = 158;
        const ARCH_REQ_XCOMP_PERM: c_long = 0x1023;
        const XFEATURE_XTILEDATA: c_long = 18;
        // SAFETY: arch_prctl with these arguments only changes which
        // extended states the process may use; it reads no memory of ours.
        unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    fn request_tile_data() -> bool {
        false
    }

    /// The 64-byte `ldtilecfg` operand, palette 1.
    #[repr(C, align(64))]
    pub(super) struct Config {
        palette: u8,
        start_row: u8,
        reserved: [u8; 14],
        colsb: [u16; 16],
        rows: [u8; 16],
    }

    impl Default for Config {
        fn default() -> Config {
            Config {
                palette: 1,
                start_row: 0,
                reserved: [0; 14],
                colsb: [0; 16],
                rows: [0; 16],
            }
        }
    }

    impl Config {
        pub(super) fn set(&mut self, tile: usize, rows: usize, bytes: u16) {
            self.rows[tile] = rows as u8;
            self.colsb[tile] = bytes;
        }
    }

    pub(super) unsafe fn load_config(cfg: &Config) {
        asm!("ldtilecfg [{}]", in(reg) cfg as *const Config, options(nostack, readonly));
    }

    pub(super) unsafe fn release() {
        asm!("tilerelease", options(nostack, nomem));
    }

    #[inline(always)]
    unsafe fn load<const T: u8>(src: *const u8, stride: usize) {
        asm!(
            "tileloadd tmm{t}, [{src} + {stride}*1]",
            t = const T,
            src = in(reg) src,
            stride = in(reg) stride,
            options(nostack, readonly),
        );
    }

    #[inline(always)]
    unsafe fn store<const T: u8>(dst: *mut i32, stride: usize) {
        asm!(
            "tilestored [{dst} + {stride}*1], tmm{t}",
            t = const T,
            dst = in(reg) dst,
            stride = in(reg) stride,
            options(nostack),
        );
    }

    /// `tmm{C} += tmm{A} (u8) · tmm{B} (i8)`, quad by quad.
    #[inline(always)]
    unsafe fn dot<const C: u8, const A: u8, const B: u8>() {
        asm!("tdpbusd tmm{c}, tmm{a}, tmm{b}", c = const C, a = const A, b = const B, options(nostack, nomem));
    }

    /// Zero the 2×2 C block.
    #[inline(always)]
    pub(super) unsafe fn zero_block() {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            options(nostack, nomem)
        );
    }

    /// One window into the C block: A tiles from `a` and `a + 16·lda`, B
    /// tiles from `b` and `b + panel`; the second row or column of tiles
    /// only where it exists.
    #[inline(always)]
    pub(super) unsafe fn dot_block(
        a: *const u8,
        lda: usize,
        b: *const u8,
        panel: usize,
        two_rows: bool,
        two_cols: bool,
    ) {
        load::<4>(a, lda);
        load::<6>(b, TILE_BYTES);
        dot::<0, 4, 6>();
        if two_cols {
            load::<7>(b.add(panel), TILE_BYTES);
            dot::<1, 4, 7>();
        }
        if two_rows {
            load::<5>(a.add(TILE_ROWS * lda), lda);
            dot::<2, 5, 6>();
            if two_cols {
                dot::<3, 5, 7>();
            }
        }
    }

    /// One C tile of i32, where a tile cut by the edge of the output is
    /// stored before the part inside the output is copied out.
    #[repr(C, align(64))]
    pub(super) struct EdgeTile([i32; TILE_ROWS * TILE_ROWS]);

    impl Default for EdgeTile {
        fn default() -> EdgeTile {
            EdgeTile([0; TILE_ROWS * TILE_ROWS])
        }
    }

    /// Store C tile `t` at row `r0`, column `j0` of the row-major `rows ×
    /// n` output `c`: straight in if the whole tile fits, else through
    /// `edge`.
    ///
    /// # Safety
    /// The tile unit is configured and `c` holds `rows × n` cells.
    pub(super) unsafe fn store_c(
        t: usize,
        c: &mut [i32],
        rows: usize,
        n: usize,
        (r0, j0): (usize, usize),
        edge: &mut EdgeTile,
    ) {
        let (h, w) = ((rows - r0).min(TILE_ROWS), (n - j0).min(TILE_ROWS));
        let whole = h == TILE_ROWS && w == TILE_ROWS;
        let (dst, stride) = if whole {
            // Rows r0..r0+16, columns j0..j0+16 are inside `c`.
            (c.as_mut_ptr().add(r0 * n + j0), n * 4)
        } else {
            (edge.0.as_mut_ptr(), TILE_BYTES)
        };
        match t {
            0 => store::<0>(dst, stride),
            1 => store::<1>(dst, stride),
            2 => store::<2>(dst, stride),
            _ => store::<3>(dst, stride),
        }
        if !whole {
            for (r, src) in edge.0.chunks_exact(TILE_ROWS).take(h).enumerate() {
                c[(r0 + r) * n + j0..][..w].copy_from_slice(&src[..w]);
            }
        }
    }
}

/// Off x86-64 no tier has a tile unit; these are never reached.
#[cfg(not(target_arch = "x86_64"))]
mod tile {
    #[derive(Default)]
    pub(super) struct Config;
    impl Config {
        pub(super) fn set(&mut self, _: usize, _: usize, _: u16) {}
    }
    #[derive(Default)]
    pub(super) struct EdgeTile;
    pub(super) unsafe fn store_c(
        _: usize,
        _: &mut [i32],
        _: usize,
        _: usize,
        _: (usize, usize),
        _: &mut EdgeTile,
    ) {
        unreachable!("no tile unit off x86-64")
    }
    pub(super) unsafe fn load_config(_: &Config) {
        unreachable!("no tile unit off x86-64")
    }
    pub(super) unsafe fn release() {}
    pub(super) unsafe fn zero_block() {}
    pub(super) unsafe fn dot_block(
        _: *const u8,
        _: usize,
        _: *const u8,
        _: usize,
        _: bool,
        _: bool,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_tokens() {
        assert_eq!(Isa::parse("scalar").unwrap(), Isa::Scalar);
        assert_eq!(Isa::parse("AVX2").unwrap(), Isa::Avx2Fma);
        assert_eq!(Isa::parse(" avx512 ").unwrap(), Isa::Avx512);
    }

    #[test]
    fn parse_rejects_unknown_tokens_with_valid_list() {
        let err = Isa::parse("neon").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("neon") && msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn scalar_tier_is_always_available() {
        assert!(Isa::Scalar.available());
        assert!(Isa::supported().contains(&Isa::Scalar));
        let k = kernels_for(Isa::Scalar).unwrap();
        assert_eq!(k.isa, Isa::Scalar);
    }

    #[test]
    fn supported_tiers_hand_out_matching_tables() {
        for isa in Isa::supported() {
            let k = kernels_for(isa).unwrap();
            assert_eq!(k.isa, isa);
            // A table may reuse a narrower tier's kernel (e.g. the VNNI
            // table shares the AVX-512 f32 kernel, the AVX-512 table the
            // AVX2 int8 kernel) but never a wider one.
            assert!(k.matmul.isa <= isa);
            assert!(k.matmul_i8.isa <= isa);
            assert!(k.matmul.mr <= MAX_MR && k.matmul.nr <= MAX_NR);
            assert!(k.matmul_i8.mr <= MAX_MR && k.matmul_i8.nr <= MAX_NR);
        }
    }

    #[test]
    fn int8_tiers_match_scalar_reference_bit_exactly() {
        // Random-ish deterministic quads; activations capped at 127.
        let kq = 9;
        let mut apack = vec![0u8; kq * MAX_MR * 4];
        let mut bpanel = vec![0i8; kq * MAX_NR * 4];
        for (i, a) in apack.iter_mut().enumerate() {
            *a = ((i * 37 + 11) % 128) as u8;
        }
        for (i, b) in bpanel.iter_mut().enumerate() {
            *b = (((i * 53 + 7) % 255) as i32 - 127) as i8;
        }
        for isa in Isa::supported() {
            let k = &kernels_for(isa).unwrap().matmul_i8;
            let (mr, nr) = (k.mr, k.nr);
            // Repack for this kernel's geometry from the same logical
            // [k][row]/[k][col] values.
            let mut ap = vec![0u8; kq * mr * 4];
            let mut bp = vec![0i8; kq * nr * 4];
            for q in 0..kq {
                for r in 0..mr {
                    for j in 0..4 {
                        ap[(q * mr + r) * 4 + j] = apack[(q * MAX_MR + r) * 4 + j];
                    }
                }
                for c in 0..nr {
                    for j in 0..4 {
                        bp[(q * nr + c) * 4 + j] = bpanel[(q * MAX_NR + c) * 4 + j];
                    }
                }
            }
            let mut acc = vec![0i32; mr * nr];
            k.run(&ap, &bp, kq, &mut acc);
            for r in 0..mr {
                for c in 0..nr {
                    let mut expect = 0i64;
                    for q in 0..kq {
                        for j in 0..4 {
                            expect +=
                                ap[(q * mr + r) * 4 + j] as i64 * bp[(q * nr + c) * 4 + j] as i64;
                        }
                    }
                    assert_eq!(acc[r * nr + c] as i64, expect, "{isa} r={r} c={c}");
                }
            }
        }
    }

    #[test]
    fn process_selection_honors_env_override() {
        // The selection is cached once per process; whatever it resolved to
        // must be consistent with the ambient environment.
        let selected = kernels().isa;
        match std::env::var(ISA_ENV) {
            Ok(v) if !v.trim().is_empty() => {
                assert_eq!(selected, Isa::parse(&v).unwrap());
            }
            _ => assert_eq!(selected, Isa::best()),
        }
        assert_eq!(active_isa(), selected);
    }

    #[test]
    fn elementwise_tiers_match_scalar_oracle() {
        let src: Vec<f32> = (0..53).map(|i| (i as f32 - 26.0) * 0.37).collect();
        for isa in Isa::supported() {
            let k = kernels_for(isa).unwrap();
            let mut relu = src.clone();
            k.relu(&mut relu);
            for (o, s) in relu.iter().zip(&src) {
                assert_eq!(*o, s.max(0.0), "relu {isa}");
            }
            let mut acc = src.clone();
            k.axpy(&mut acc, &src, 0.5);
            for (o, s) in acc.iter().zip(&src) {
                assert!((o - (s + s * 0.5)).abs() < 1e-6, "axpy {isa}");
            }
            assert_eq!(k.max(&src), 26.0 * 0.37, "max {isa}");
            let expect: f32 = src.iter().sum();
            assert!((k.sum(&src) - expect).abs() < 1e-4, "sum {isa}");
        }
    }

    #[test]
    fn reductions_handle_empty_and_tiny_slices() {
        for isa in Isa::supported() {
            let k = kernels_for(isa).unwrap();
            assert_eq!(k.max(&[]), f32::NEG_INFINITY);
            assert_eq!(k.sum(&[]), 0.0);
            assert_eq!(k.max(&[-3.0]), -3.0);
            assert_eq!(k.sum(&[1.5, 2.5]), 4.0);
        }
    }
}
