//! Matrix multiplication kernels.
//!
//! One contract (`C = A × B`), two tiers:
//!
//! * [`matmul_naive`] — reference triple loop, used by tests as an oracle.
//! * [`matmul_parallel`] — the register-tiled kernel: `B` is packed once
//!   into zero-padded column panels of width `NR`, `A` into row micro-panels
//!   of height `MR`, and a `MR×NR` accumulator tile lives in registers
//!   across the whole `k` sweep of a cache block, with no per-element
//!   branches. It is sharded over disjoint row stripes
//!   submitted through the caller's [`crate::parallel::Parallelism`] grant
//!   (a query-scoped handle onto the runtime's persistent kernel pool); the
//!   grant carries the thread budget so the unified resource manager (§3 of
//!   the paper) can coordinate it with DB worker threads instead of letting
//!   a BLAS runtime spawn threads behind the system's back.
//!
//! The tile geometry (`MR`/`NR`/`KC`) is **not** fixed by this module: it is
//! a property of the micro-kernel the [`crate::simd`] dispatch layer selects
//! at first use (scalar 4×8, AVX2+FMA 4×8, or AVX-512 12×32), and the packing
//! and blocking driver here shapes its panels to whatever geometry the
//! dispatched [`simd::MatmulKernel`] declares. `RELSERVE_ISA` forces a
//! specific tier process-wide; [`matmul_with_isa`] / [`matmul_bt_with_isa`]
//! force one per call for tests and benchmarks.
//!
//! A constant `B` need not be packed per call: [`pack_bt`] writes the panels
//! once and [`matmul_prepacked`] multiplies from them ([`PackedB`]) — what a
//! loaded model's dense layers and the weight relations do. It also takes the
//! dense layer's [`Epilogue`] — bias, or bias and ReLU — and applies it in
//! the last k-block's tile store, so the layer makes no extra pass over its
//! output. Every other
//! entry point below is "pack `B` into a per-thread scratch, then run the
//! same driver on the panels", so the two routes cannot differ by a bit;
//! they are for a `B` that is not a constant.
//!
//! [`matmul_bt_parallel`] — `A × Bᵀ` with `B` stored
//! `[n, k]`, the natural layout for `X × Wᵀ` inference (weights are stored
//! `[out_features, in_features]`) — pack `B` straight out of that layout, so
//! no transpose is ever materialized.

use crate::dense::Tensor;
use crate::error::{Error, Result};
use crate::parallel::Parallelism;
use crate::simd::{self, CTile, Isa, MatmulKernel};
use std::cell::RefCell;

/// Minimum `m·k·n` before the packed kernel beats plain dot products; below
/// it packing overhead dominates the O(m·k·n) arithmetic. The shortcut's
/// dot products sum in another order than the tiles' k-blocks, so a caller
/// that cuts a batch keeps each piece on the side of this the whole takes.
pub const PACK_THRESHOLD: usize = 1 << 13;

/// Minimum `m·k·n` per row stripe before handing stripes to the kernel pool
/// beats running them here: a hand-off wakes a sleeping worker, which costs
/// what ~1M multiply-adds cost. Serving-sized multiplies (Fraud-FC at up
/// to 128 rows) stay on the calling thread; Encoder-FC at 512 rows and
/// Amazon-14k-FC/64 at 64 rows still get a stripe per granted thread.
pub const MIN_STRIPE_WORK: usize = 1 << 20;

/// Row stripes for an `m×k×n` multiply under a grant of `threads`: at most
/// one per thread and per row, and none smaller than [`MIN_STRIPE_WORK`].
/// The f32 and the int8 driver both stripe by this rule.
pub(crate) fn stripe_count(threads: usize, m: usize, k: usize, n: usize) -> usize {
    let by_work = m.saturating_mul(k).saturating_mul(n) / MIN_STRIPE_WORK;
    threads.min(m).min(by_work).max(1)
}

/// Split the `m × n` output `c` into `stripes` row stripes, each tagged with
/// its first row. Boundaries land on multiples of the kernel's tile height
/// `mr`, so no tile spans two tasks.
pub(crate) fn row_stripes(
    c: &mut [f32],
    m: usize,
    n: usize,
    stripes: usize,
    mr: usize,
) -> Vec<(usize, &mut [f32])> {
    let rows_per = m.div_ceil(stripes).div_ceil(mr) * mr;
    let mut out = Vec::with_capacity(stripes);
    let mut rest = c;
    let mut row = 0usize;
    while row < m {
        let take = rows_per.min(m - row);
        let (head, tail) = rest.split_at_mut(take * n);
        out.push((row, head));
        rest = tail;
        row += take;
    }
    out
}

fn matrix_dims(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    let (m, k1) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k1 != k2 {
        return Err(Error::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    Ok((m, k1, n))
}

/// Reference `C[m,n] = A[m,k] × B[k,n]` — slow but obviously correct.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matrix_dims(a, b, "matmul_naive")?;
    let (ad, bd) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    Tensor::from_vec([m, n], c)
}

/// A logical `B` over row-major storage that may hold the data transposed;
/// [`pack_b`] reads through it so the kernels never materialize a transpose.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    /// Stored transposed: logical element `(r, c)` lives at `data[c*ld + r]`.
    trans: bool,
    /// Leading dimension of the *stored* layout.
    ld: usize,
}

impl View<'_> {
    fn plain(data: &[f32], cols: usize) -> View<'_> {
        View {
            data,
            trans: false,
            ld: cols,
        }
    }

    fn transposed(data: &[f32], rows: usize) -> View<'_> {
        View {
            data,
            trans: true,
            ld: rows,
        }
    }
}

/// Stored rows of a transposed `B` scattered into a panel together: each
/// `[p][nr]` row of the panel then takes one short contiguous store instead
/// of `GROUP` stores a whole pass apart.
const GROUP: usize = 8;

/// Pack logical `B[k,n]` into zero-padded column panels of the kernel's panel
/// width `nr`: panel `jp` holds columns `jp*nr ..`, laid out `[p][nr]` so the
/// micro-kernel streams it linearly. Ragged right edges are padded with
/// zeros, which contribute nothing to the accumulators and let the kernel
/// skip edge branches. `out` holds [`PackedB::len_for`]`(k, n, nr)` slots,
/// and every one is written: what it held is irrelevant.
fn pack_b(b: &View<'_>, k: usize, n: usize, nr: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), PackedB::len_for(k, n, nr));
    if k == 0 {
        return;
    }
    for (jp, panel) in out.chunks_exact_mut(k * nr).enumerate() {
        let j0 = jp * nr;
        let width = nr.min(n - j0);
        if width < nr {
            panel.fill(0.0);
        }
        if b.trans {
            // Stored [n, k]: logical column j is the contiguous stored row j.
            let col = |j: usize| &b.data[(j0 + j) * b.ld..(j0 + j) * b.ld + k];
            let mut jj = 0;
            while jj + GROUP <= width {
                let cols: [&[f32]; GROUP] = std::array::from_fn(|g| col(jj + g));
                for (p, row) in panel.chunks_exact_mut(nr).enumerate() {
                    let dst: &mut [f32; GROUP] = (&mut row[jj..jj + GROUP])
                        .try_into()
                        .expect("a slice of GROUP values");
                    *dst = std::array::from_fn(|g| cols[g][p]);
                }
                jj += GROUP;
            }
            for jj in jj..width {
                for (row, &v) in panel.chunks_exact_mut(nr).zip(col(jj)) {
                    row[jj] = v;
                }
            }
        } else {
            for (p, row) in panel.chunks_exact_mut(nr).enumerate() {
                row[..width].copy_from_slice(&b.data[p * b.ld + j0..p * b.ld + j0 + width]);
            }
        }
    }
}

/// Pack the first `rows` rows of row-major `a` (rows `lda` apart), k-range
/// `p0..p1`, into an interleaved `[p][mr]` micro-panel of the kernel's tile
/// height `mr`, one contiguous `mr`-row per `p`, its rows past `rows`
/// zero-padded.
fn pack_a(a: &[f32], lda: usize, rows: usize, p0: usize, p1: usize, mr: usize, out: &mut [f32]) {
    for (pi, dst) in out[..(p1 - p0) * mr].chunks_exact_mut(mr).enumerate() {
        let (live, pad) = dst.split_at_mut(rows);
        for (r, v) in live.iter_mut().enumerate() {
            *v = a[r * lda + p0 + pi];
        }
        pad.fill(0.0);
    }
}

thread_local! {
    /// Reusable B-pack scratch: persistent kernel-pool workers and the
    /// session thread each keep one buffer alive across matmul calls instead
    /// of reallocating ~k·n floats per multiply.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable A-pack scratch, one per worker thread for the same reason:
    /// every stripe re-packs its A micro-panels per k-block, and kernel-pool
    /// workers run one stripe per matmul call — without this they would
    /// reallocate ~stripe_rows·KC floats on every call.
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// What a multiply does to each output element after its last partial
/// product: nothing, `+ bias[j]` on column `j`, or that and then ReLU.
///
/// [`matmul_prepacked`] applies it in the tile store of the last k-block,
/// while the tile is in cache, and the small-product shortcut after its dot
/// products. Either way an element is `max((c + tile) + bias[j], 0)` in that
/// order, which is bit for bit what [`crate::ops::add_bias_inplace`] and
/// [`crate::ops::relu_inplace`] give on every tier: the additions are the
/// same IEEE additions, and an element is never `-0.0` (it starts at `+0.0`
/// and only ever has values added to it), so no tier's `max` can tell its
/// zeros apart; a NaN goes to `0` on every tier.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// The product as it is.
    None,
    /// `+ bias[j]` on column `j`.
    Bias(&'a [f32]),
    /// `max(· + bias[j], 0)` on column `j`.
    BiasRelu(&'a [f32]),
}

impl<'a> Epilogue<'a> {
    pub(crate) fn bias(&self) -> Option<&'a [f32]> {
        match *self {
            Epilogue::None => None,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) => Some(b),
        }
    }

    /// The same epilogue for the columns from `j0` on.
    fn at_column(self, j0: usize) -> Self {
        match self {
            Epilogue::None => Epilogue::None,
            Epilogue::Bias(b) => Epilogue::Bias(&b[j0..]),
            Epilogue::BiasRelu(b) => Epilogue::BiasRelu(&b[j0..]),
        }
    }

    /// Finish `v`, the element of column `j`.
    #[inline(always)]
    pub(crate) fn finish(&self, v: f32, j: usize) -> f32 {
        match *self {
            Epilogue::None => v,
            Epilogue::Bias(b) => v + b[j],
            Epilogue::BiasRelu(b) => (v + b[j]).max(0.0),
        }
    }

    /// Finish every element of a whole output row in place.
    fn apply(&self, row: &mut [f32]) {
        if !matches!(self, Epilogue::None) {
            for (j, c) in row.iter_mut().enumerate() {
                *c = self.finish(*c, j);
            }
        }
    }
}

/// Compute rows `i0..i1` of `C += A × B` (`A` row-major `[m, k]`, rows `lda`
/// apart) from pre-packed `B` panels using `kern`'s micro-kernel and tile
/// geometry, finishing each element with `epilogue` as the last k-block
/// stores it.
///
/// Loop order is `(k-block, pack A tiles, panel, tile)`: within one k-block
/// every A micro-panel is packed once, then each B panel (≈`nr·kc` floats,
/// L1-resident) is reused across all row tiles of the stripe before moving
/// on. `cd` is the stripe's slice of C, `stripe_rows × n`, and accumulates
/// one partial product per k-block: the micro-kernel starts its chains from
/// zero each block and adds them into its tile of `cd` itself, so an element
/// is the same sequential FMA chain whatever the tile geometry.
#[allow(clippy::too_many_arguments)] // a stripe is (kernel, A, lda, packed B, C-slice, row range, epilogue)
fn tiled_stripe(
    kern: &MatmulKernel,
    a: &[f32],
    lda: usize,
    b: &PackedB<'_>,
    cd: &mut [f32],
    i0: usize,
    i1: usize,
    epilogue: Epilogue<'_>,
) {
    let (k, n) = (b.k, b.n);
    let rows = i1 - i0;
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let (mr, nr) = (kern.mr, kern.nr);
    let tiles = rows.div_ceil(mr);
    let panels = n.div_ceil(nr);
    A_SCRATCH.with(|scratch| {
        let mut apack = scratch.borrow_mut();
        let need = tiles * mr * kern.kc.min(k);
        if apack.len() < need {
            apack.resize(need, 0.0);
        }
        for p0 in (0..k).step_by(kern.kc) {
            let p1 = (p0 + kern.kc).min(k);
            let kc = p1 - p0;
            let finish = if p1 == k { epilogue } else { Epilogue::None };
            for t in 0..tiles {
                let i = i0 + t * mr;
                let rows = mr.min(i1 - i);
                pack_a(
                    &a[i * lda..],
                    lda,
                    rows,
                    p0,
                    p1,
                    mr,
                    &mut apack[t * mr * kc..(t + 1) * mr * kc],
                );
            }
            for jp in 0..panels {
                let bpanel = b.run(b.start(jp) + p0 * nr, kc * nr);
                let j0 = jp * nr;
                let width = nr.min(n - j0);
                let finish = finish.at_column(j0);
                for t in 0..tiles {
                    let r0 = t * mr;
                    let tile = CTile {
                        c: &mut cd[r0 * n + j0..],
                        ldc: n,
                        rows: mr.min(rows - r0),
                        width,
                    };
                    kern.run(&apack[r0 * kc..][..mr * kc], bpanel, kc, tile, finish);
                }
            }
        }
    });
}

/// The one kernel driver: row stripes of `epilogue(A × B)` over packed `B`
/// panels, `A`'s `m` rows `lda` apart, run serially or on the grant. An
/// empty product is returned as zeros; [`matmul_prepacked`], the one caller
/// with an epilogue, sends those to the small-product shortcut.
fn run_packed(
    kern: &MatmulKernel,
    (a, lda, m): (&[f32], usize, usize),
    b: &PackedB<'_>,
    par: &Parallelism,
    epilogue: Epilogue<'_>,
) -> Vec<f32> {
    let (k, n) = (b.k, b.n);
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let threads = stripe_count(par.threads(), m, k, n);
    if threads == 1 {
        tiled_stripe(kern, a, lda, b, &mut c, 0, m, epilogue);
        return c;
    }
    let stripes = row_stripes(&mut c, m, n, threads, kern.mr);
    par.run_owned(stripes, |(row0, stripe)| {
        let rows = stripe.len() / n;
        tiled_stripe(kern, a, lda, b, stripe, row0, row0 + rows, epilogue);
    });
    c
}

/// Pack-per-call: pack `B` into this thread's scratch, then [`run_packed`].
fn matmul_packed(
    kern: &MatmulKernel,
    a: &[f32],
    b: View<'_>,
    m: usize,
    k: usize,
    n: usize,
    par: &Parallelism,
) -> Vec<f32> {
    B_SCRATCH.with(|scratch| {
        let mut bpack = scratch.borrow_mut();
        bpack.resize(PackedB::len_for(k, n, kern.nr), 0.0);
        pack_b(&b, k, n, kern.nr, &mut bpack);
        let panels = PackedB {
            k,
            n,
            nr: kern.nr,
            panels: Panels::Flat(&bpack),
        };
        run_packed(kern, (a, k, m), &panels, par, Epilogue::None)
    })
}

/// Logical `B[k, n]` already in the panel layout a kernel of panel width
/// `nr` multiplies from — `[panel][p][nr]`, the ragged last panel padded
/// with zeros — so that a constant operand is packed once, by [`pack_bt`],
/// instead of on every call.
///
/// The panels are one slice ([`PackedB::new`]), or lie where they were
/// stored, across the pages of a block payload ([`PackedB::paged`]): the
/// kernel reads each `[kc][nr]` slice of a panel where it is, so a weight
/// block pinned in the buffer pool is multiplied without a copy.
#[derive(Debug, Clone, Copy)]
pub struct PackedB<'a> {
    k: usize,
    n: usize,
    nr: usize,
    panels: Panels<'a>,
}

/// Where the panels of a [`PackedB`] are.
#[derive(Debug, Clone, Copy)]
enum Panels<'a> {
    /// Panel `jp` at `jp · k · nr` of one slice.
    Flat(&'a [f32]),
    /// A payload laid over `pages` of `page` values each (the last may be
    /// shorter); panel `jp` starts at payload offset `starts[jp]`.
    Paged {
        pages: &'a [&'a [f32]],
        page: usize,
        starts: &'a [usize],
    },
}

impl<'a> PackedB<'a> {
    /// Floats in the panels of a `k × n` matrix at panel width `nr`.
    pub fn len_for(k: usize, n: usize, nr: usize) -> usize {
        n.div_ceil(nr) * k * nr
    }

    /// View `panels` as a packed `k × n` matrix of panel width `nr`.
    pub fn new(k: usize, n: usize, nr: usize, panels: &'a [f32]) -> Result<Self> {
        let expected = Self::len_for(k, n, nr.max(1));
        if nr == 0 || panels.len() != expected {
            return Err(Error::BufferSizeMismatch {
                expected,
                actual: panels.len(),
            });
        }
        Ok(PackedB {
            k,
            n,
            nr,
            panels: Panels::Flat(panels),
        })
    }

    /// View a payload laid over `pages` — every page but the last as long
    /// as the first — as a packed `k × n` matrix of panel width `nr` whose
    /// panel `jp` starts at payload offset `starts[jp]`. A panel lies in one
    /// page, or starts one and runs on into the next.
    pub fn paged(
        k: usize,
        n: usize,
        nr: usize,
        pages: &'a [&'a [f32]],
        starts: &'a [usize],
    ) -> Result<Self> {
        let page = pages.first().map_or(0, |p| p.len());
        let total = pages.iter().map(|p| p.len()).sum::<usize>();
        let short = pages.iter().rev().skip(1).any(|p| p.len() != page);
        let panel = k * nr;
        let misplaced = starts.iter().any(|&s| {
            s + panel > total || (s % page.max(1) + panel > page && s % page.max(1) != 0)
        });
        if nr == 0 || starts.len() != n.div_ceil(nr) || short || misplaced {
            return Err(Error::BufferSizeMismatch {
                expected: Self::len_for(k, n, nr.max(1)),
                actual: total,
            });
        }
        Ok(PackedB {
            k,
            n,
            nr,
            panels: Panels::Paged {
                pages,
                page,
                starts,
            },
        })
    }

    /// Where panel `jp` starts.
    fn start(&self, jp: usize) -> usize {
        match self.panels {
            Panels::Flat(_) => jp * self.k * self.nr,
            Panels::Paged { starts, .. } => starts[jp],
        }
    }

    /// The `len` values at offset `at`, which lie in one page.
    fn run(&self, at: usize, len: usize) -> &'a [f32] {
        match self.panels {
            Panels::Flat(panels) => &panels[at..at + len],
            Panels::Paged { pages, page, .. } => &pages[at / page][at % page..][..len],
        }
    }

    /// Whether every `[kc][nr]` slice the kernel reads lies in one page.
    fn slices_fit(&self, kc: usize) -> bool {
        let Panels::Paged { page, starts, .. } = self.panels else {
            return true;
        };
        starts.iter().all(|&s| {
            (0..self.k)
                .step_by(kc.max(1))
                .all(|p0| (s + p0 * self.nr) % page + kc.min(self.k - p0) * self.nr <= page)
        })
    }

    /// `B[p, j]` — the `p`-th value of row `j` of the `[n, k]` matrix the
    /// panels were packed from.
    pub fn at(&self, p: usize, j: usize) -> f32 {
        let at = self.start(j / self.nr) + p * self.nr + j % self.nr;
        match self.panels {
            Panels::Flat(panels) => panels[at],
            Panels::Paged { pages, page, .. } => pages[at / page][at % page],
        }
    }

    /// Values `p0 .. p0 + out.len()` of row `j` of that matrix: what
    /// [`PackedB::at`] reads, a run at a time.
    pub fn read_row(&self, j: usize, p0: usize, out: &mut [f32]) {
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.at(p0 + i, j);
        }
    }

    /// Rows `j0 ..` of that matrix, as many whole rows as `out` holds: the
    /// panels read back in order, each once.
    pub fn read_rows(&self, j0: usize, out: &mut [f32]) {
        let (k, nr) = (self.k, self.nr);
        let j1 = j0 + out.len() / k.max(1);
        for panel in j0 / nr..j1.div_ceil(nr) {
            let lanes = (j0.max(panel * nr) - panel * nr)..(j1.min(panel * nr + nr) - panel * nr);
            let rows = (panel * nr + lanes.start - j0) * k;
            for p in 0..k {
                let col = self.run(self.start(panel) + p * nr, nr);
                for (r, lane) in lanes.clone().enumerate() {
                    out[rows + r * k + p] = col[lane];
                }
            }
        }
    }
}

/// The panel width [`matmul_prepacked`] multiplies from on this host: the
/// dispatched kernel's `nr`.
pub fn panel_width() -> Result<usize> {
    Ok(simd::try_kernels()?.matmul.nr)
}

/// The tile height the dispatched f32 kernel multiplies in: its `mr`.
pub fn tile_height() -> Result<usize> {
    Ok(simd::try_kernels()?.matmul.mr)
}

/// Pack `Bᵀ` into panels of width `nr`, where `b` holds `n` stored rows of
/// `k` values, `ld` apart (`ld > k` packs a column window of a wider
/// matrix). The [`PackedB::len_for`]`(k, n, nr)` values are appended to
/// `out`, so a matrix packed a group of whole panels at a time is its
/// panels in order, with no copy.
pub fn pack_bt(b: &[f32], ld: usize, n: usize, k: usize, nr: usize, out: &mut Vec<f32>) {
    assert!(
        nr > 0 && k <= ld && (n == 0 || (n - 1) * ld + k <= b.len()),
        "pack_bt: {n} rows of {k}, {ld} apart, do not fit {} values",
        b.len()
    );
    let view = View {
        data: b,
        trans: true,
        ld,
    };
    let start = out.len();
    out.resize(start + PackedB::len_for(k, n, nr), 0.0);
    pack_b(&view, k, n, nr, &mut out[start..]);
}

/// `epilogue(A[m,k] × B)` from prepacked panels of `B`, on the dispatched
/// kernel.
///
/// With [`Epilogue::None`], bit-identical to [`matmul_bt_parallel`] on the
/// `[n, k]` matrix the panels were packed from, under any grant — including
/// that function's small-product shortcut, which here reads the same values
/// out of the panels in the same order. With a bias (and ReLU), identical to
/// that product followed by [`crate::ops::add_bias_inplace`] (and
/// [`crate::ops::relu_inplace`]), without their passes over the output.
pub fn matmul_prepacked(
    a: &Tensor,
    b: &PackedB<'_>,
    epilogue: Epilogue<'_>,
    par: &Parallelism,
) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    if k != b.k {
        return Err(Error::ShapeMismatch {
            op: "matmul_prepacked",
            lhs: a.shape().dims().to_vec(),
            rhs: vec![b.k, b.n],
        });
    }
    matmul_prepacked_window(a.data(), k, m, b, epilogue, par)
}

/// [`matmul_prepacked`] of the `m × k` window of a row-major matrix whose
/// first row starts at `a[0]` and whose rows are `lda` values apart (`k` is
/// `B`'s): a block of columns of a wider matrix multiplies where it is.
pub fn matmul_prepacked_window(
    a: &[f32],
    lda: usize,
    m: usize,
    b: &PackedB<'_>,
    epilogue: Epilogue<'_>,
    par: &Parallelism,
) -> Result<Tensor> {
    let kern = &simd::try_kernels()?.matmul;
    if b.nr != kern.nr {
        return Err(Error::Isa(format!(
            "panels packed {} wide, but the dispatched kernel ({}) multiplies from {}",
            b.nr, kern.name, kern.nr
        )));
    }
    let (k, n) = (b.k, b.n);
    if m > 0 && (lda < k || (m - 1) * lda + k > a.len()) {
        return Err(Error::BufferSizeMismatch {
            expected: (m - 1) * lda.max(k) + k,
            actual: a.len(),
        });
    }
    if !b.slices_fit(kern.kc) {
        return Err(Error::Isa(format!(
            "a {}-deep slice of a stored panel straddles a page",
            kern.kc
        )));
    }
    if let Some(bias) = epilogue.bias().filter(|bias| bias.len() != n) {
        return Err(Error::ShapeMismatch {
            op: "matmul_prepacked epilogue",
            lhs: vec![m, n],
            rhs: vec![bias.len()],
        });
    }
    let c = if m * k * n < PACK_THRESHOLD {
        // One closure per form, so that the shortcut's inner loop indexes
        // flat panels directly.
        let mut c = match b.panels {
            Panels::Flat(panels) => small_product(a, lda, m, k, n, |j, p| {
                panels[(j / b.nr * k + p) * b.nr + j % b.nr]
            }),
            Panels::Paged { .. } => small_product(a, lda, m, k, n, |j, p| b.at(p, j)),
        };
        if n > 0 {
            c.chunks_exact_mut(n).for_each(|row| epilogue.apply(row));
        }
        c
    } else {
        run_packed(kern, (a, lda, m), b, par, epilogue)
    };
    Tensor::from_vec([m, n], c)
}

/// `A × Bᵀ` by plain dot products, `p` ascending, for products too small to
/// repay packing; `A`'s rows are `lda` apart, and `b(j, p)` is the `p`-th
/// value of `B`'s stored row `j`.
fn small_product(
    a: &[f32],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * lda..i * lda + k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (p, x) in a_row.iter().enumerate() {
                acc += x * b(j, p);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Single-threaded `A × B` forced onto a specific ISA dispatch path.
///
/// Bypasses the process-wide selection so tests and benchmarks can exercise
/// every tier the host supports; errors if the CPU lacks `isa`.
pub fn matmul_with_isa(a: &Tensor, b: &Tensor, isa: Isa) -> Result<Tensor> {
    let kern = &simd::kernels_for(isa)?.matmul;
    let (m, k, n) = matrix_dims(a, b, "matmul_with_isa")?;
    let c = matmul_packed(
        kern,
        a.data(),
        View::plain(b.data(), n),
        m,
        k,
        n,
        &Parallelism::serial(),
    );
    Tensor::from_vec([m, n], c)
}

/// Multi-threaded `A × B` over row stripes on the caller's kernel grant.
///
/// With a serial grant (budget 1, or no backing pool) this runs on the
/// calling thread, which is what the resource manager requests when DB
/// worker threads already saturate the cores (§3.1).
pub fn matmul_parallel(a: &Tensor, b: &Tensor, par: &Parallelism) -> Result<Tensor> {
    let kern = &simd::try_kernels()?.matmul;
    let (m, k, n) = matrix_dims(a, b, "matmul_parallel")?;
    let c = matmul_packed(kern, a.data(), View::plain(b.data(), n), m, k, n, par);
    Tensor::from_vec([m, n], c)
}

/// Single-threaded `A × Bᵀ` (`B` stored `[n, k]`) forced onto a specific ISA
/// dispatch path. Always takes the packed-panel path — no small-product
/// shortcut — so tests can drive every tier through the transposed packing
/// and tail handling; errors if the CPU lacks `isa`.
pub fn matmul_bt_with_isa(a: &Tensor, b: &Tensor, isa: Isa) -> Result<Tensor> {
    let kern = &simd::kernels_for(isa)?.matmul;
    let (m, k1) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    if k1 != k2 {
        return Err(Error::ShapeMismatch {
            op: "matmul_bt_with_isa",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let c = matmul_packed(
        kern,
        a.data(),
        View::transposed(b.data(), k1),
        m,
        k1,
        n,
        &Parallelism::serial(),
    );
    Tensor::from_vec([m, n], c)
}

/// Multi-threaded `A × Bᵀ` with `B` stored `[n, k]`.
///
/// `B`'s panels are packed directly from the `[n, k]` storage (a stored row
/// is a logical column), so no transpose is ever materialized. Tiny
/// multiplies skip packing and use row-by-row dot products, which are
/// already contiguous in this layout.
pub fn matmul_bt_parallel(a: &Tensor, b: &Tensor, par: &Parallelism) -> Result<Tensor> {
    let (m, k1) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    if k1 != k2 {
        return Err(Error::ShapeMismatch {
            op: "matmul_bt",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let k = k1;
    if m * k * n < PACK_THRESHOLD {
        let bd = b.data();
        let c = small_product(a.data(), k, m, k, n, |j, p| bd[j * k + p]);
        return Tensor::from_vec([m, n], c);
    }
    let kern = &simd::try_kernels()?.matmul;
    let c = matmul_packed(kern, a.data(), View::transposed(b.data(), k), m, k, n, par);
    Tensor::from_vec([m, n], c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::SerialRunner;
    use proptest::prelude::*;

    fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Tensor::from_vec([rows, cols], v).unwrap())
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn([3, 3], |i| i as f32);
        let i = Tensor::eye(3);
        assert_eq!(matmul_parallel(&a, &i, &Parallelism::serial()).unwrap(), a);
        assert_eq!(matmul_parallel(&i, &a, &Parallelism::serial()).unwrap(), a);
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn rejects_inner_dim_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul_parallel(&a, &b, &Parallelism::serial()).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = Tensor::from_fn([4, 6], |i| (i % 7) as f32 - 3.0);
        let w = Tensor::from_fn([5, 6], |i| (i % 5) as f32 * 0.5);
        let expect = matmul_parallel(&a, &w.transpose().unwrap(), &Parallelism::serial()).unwrap();
        let got = matmul_bt_parallel(&a, &w, &Parallelism::serial()).unwrap();
        assert!(expect.approx_eq(&got, 1e-4));
    }

    #[test]
    fn matmul_bt_large_packed_path() {
        // Big enough to cross PACK_THRESHOLD so the panel-packed path runs.
        let a = Tensor::from_fn([21, 37], |i| ((i * 13) % 17) as f32 * 0.25 - 2.0);
        let w = Tensor::from_fn([19, 37], |i| ((i * 7) % 23) as f32 * 0.125 - 1.0);
        let expect = matmul_naive(&a, &w.transpose().unwrap()).unwrap();
        let got = matmul_bt_parallel(&a, &w, &Parallelism::serial()).unwrap();
        assert!(expect.approx_eq(&got, 1e-3));
    }

    #[test]
    fn parallel_matches_serial_odd_sizes() {
        // Big enough for four stripes, ragged on every edge.
        let a = Tensor::from_fn([131, 129], |i| ((i * 31) % 11) as f32 - 5.0);
        let b = Tensor::from_fn([129, 257], |i| ((i * 17) % 9) as f32 - 4.0);
        let serial = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            // An inline runner still exercises the stripe partitioning.
            let grant = Parallelism::new(std::sync::Arc::new(SerialRunner), threads);
            let par = matmul_parallel(&a, &b, &grant).unwrap();
            assert!(serial.approx_eq(&par, 1e-4), "threads={threads}");
        }
    }

    #[test]
    fn stripes_are_clamped_by_work_not_only_by_rows() {
        // Fraud-FC-256 at a full serving batch: too small to fan out.
        assert_eq!(stripe_count(2, 64, 28, 256), 1);
        assert_eq!(stripe_count(2, 64, 256, 2), 1);
        assert_eq!(stripe_count(8, 128, 28, 256), 1);
        // The layers the in-database workloads run stripe as before the
        // clamp: one stripe per granted thread.
        for threads in [1, 2, 4, 8] {
            for (m, k, n) in [
                (512, 76, 3072),  // Encoder-FC, layer 0 at 512 rows
                (512, 3072, 768), // Encoder-FC, layer 1
                (64, 9336, 1024), // Amazon-14k-FC/64, layer 0 at 64 rows
                (64, 1024, 227),  // Amazon-14k-FC/64, layer 1
            ] {
                assert_eq!(stripe_count(threads, m, k, n), threads, "{m}x{k}x{n}");
            }
        }
        assert_eq!(stripe_count(64, 3, 4096, 4096), 3, "never more than rows");
    }

    #[test]
    fn striping_never_changes_a_bit() {
        // A row stripe owns whole output rows and sweeps `k` in the same
        // block order as the serial kernel, so no element's accumulation
        // order depends on the stripe count: on either side of the work
        // clamp the grant changes speed only.
        for (m, k, n) in [(64, 28, 256), (64, 256, 2), (300, 28, 256), (131, 129, 257)] {
            let a = Tensor::from_fn([m, k], |i| ((i * 29) % 31) as f32 * 0.125 - 1.5);
            let w = Tensor::from_fn([n, k], |i| ((i * 37) % 41) as f32 * 0.0625 - 1.0);
            let serial = matmul_bt_parallel(&a, &w, &Parallelism::serial()).unwrap();
            for threads in [2, 3, 8] {
                let grant = Parallelism::new(std::sync::Arc::new(SerialRunner), threads);
                let striped = matmul_bt_parallel(&a, &w, &grant).unwrap();
                let same = serial
                    .data()
                    .iter()
                    .zip(striped.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{m}x{k}x{n} under {threads} threads");
            }
        }
    }

    /// Values whose products and sums round, so that two summation orders
    /// (or a value read from the wrong slot) do not agree by accident.
    fn inexact(shape: [usize; 2], step: f32) -> Tensor {
        Tensor::from_fn(shape, |i| (i as f32 * step).sin())
    }

    #[test]
    fn prepacked_equals_pack_per_call_on_every_tier() {
        // Ragged `n % nr` for nr 8 and 32, `k` past one cache block with a
        // tail, one shape small enough for a single stripe whatever the grant.
        for (m, k, n) in [(70, 300, 53), (64, 512, 512), (9, 37, 19), (130, 257, 129)] {
            let (a, w) = (inexact([m, k], 0.7311), inexact([n, k], 0.4177));
            for isa in Isa::supported() {
                let kern = &simd::kernels_for(isa).unwrap().matmul;
                let mut panels = Vec::new();
                pack_bt(w.data(), k, n, k, kern.nr, &mut panels);
                assert_eq!(panels.len(), PackedB::len_for(k, n, kern.nr));
                for threads in [1, 2, 16] {
                    let grant = Parallelism::new(std::sync::Arc::new(SerialRunner), threads);
                    let per_call = matmul_packed(
                        kern,
                        a.data(),
                        View::transposed(w.data(), k),
                        m,
                        k,
                        n,
                        &grant,
                    );
                    let packed = PackedB::new(k, n, kern.nr, &panels).unwrap();
                    let pre = run_packed(kern, (a.data(), k, m), &packed, &grant, Epilogue::None);
                    assert!(per_call == pre, "{isa} {m}x{k}x{n} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn matmul_prepacked_is_matmul_bt_parallel_bit_for_bit() {
        let nr = panel_width().unwrap();
        // Both sides of PACK_THRESHOLD: the shortcut reads the same values
        // out of the panels in the same order.
        for (m, k, n) in [
            (1, 28, 256),
            (3, 16, 16),
            (5, 4, 3),
            (64, 512, 120),
            (33, 120, 512),
        ] {
            let (a, w) = (inexact([m, k], 0.7311), inexact([n, k], 0.4177));
            let mut panels = Vec::new();
            pack_bt(w.data(), k, n, k, nr, &mut panels);
            let packed = PackedB::new(k, n, nr, &panels).unwrap();
            for threads in [1, 2, 16] {
                let grant = Parallelism::new(std::sync::Arc::new(SerialRunner), threads);
                let expect = matmul_bt_parallel(&a, &w, &grant).unwrap();
                let got = matmul_prepacked(&a, &packed, Epilogue::None, &grant).unwrap();
                assert!(expect.data() == got.data(), "{m}x{k}x{n} threads={threads}");
            }
        }
    }

    /// `panels` (panel `jp` at `jp · len`) laid over pages of `page` values:
    /// a panel that does not fit in the rest of its page starts the next.
    fn paginate(panels: &[f32], len: usize, page: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let (mut payload, mut starts) = (Vec::new(), Vec::new());
        for panel in panels.chunks_exact(len) {
            let at = payload.len() % page;
            if at != 0 && at + len > page {
                payload.resize(payload.len() + page - at, f32::NAN);
            }
            starts.push(payload.len());
            payload.extend_from_slice(panel);
        }
        (payload.chunks(page).map(<[f32]>::to_vec).collect(), starts)
    }

    #[test]
    fn paged_panels_multiply_where_they_lie_as_flat_ones_do() {
        let nr = panel_width().unwrap();
        let serial = Parallelism::serial();
        // Panels that share pages with padding between, and panels longer
        // than a page; both sides of PACK_THRESHOLD.
        for (m, k, n, page) in [
            (64, 120, 100, 16 * nr * 16),
            (12, 600, 70, 256 * nr),
            (3, 5, 4, 2 * 5 * nr),
        ] {
            // A is columns 7.. of a wider matrix.
            let wide = inexact([m, k + 9], 0.7311);
            let a = wide.slice2(0, m, 7, 7 + k).unwrap();
            let w = inexact([n, k], 0.4177);
            let mut panels = Vec::new();
            pack_bt(w.data(), k, n, k, nr, &mut panels);
            let flat = PackedB::new(k, n, nr, &panels).unwrap();
            let (pages, starts) = paginate(&panels, k * nr, page);
            let pages: Vec<&[f32]> = pages.iter().map(Vec::as_slice).collect();
            let paged = PackedB::paged(k, n, nr, &pages, &starts).unwrap();
            for epilogue in [Epilogue::None, Epilogue::BiasRelu(&w.data()[..n])] {
                let expect = matmul_prepacked(&a, &flat, epilogue, &serial).unwrap();
                let got =
                    matmul_prepacked_window(&wide.data()[7..], k + 9, m, &paged, epilogue, &serial)
                        .unwrap();
                assert!(expect.data() == got.data(), "{m}x{k}x{n}");
            }
            let mut rows = vec![0.0; n * k];
            paged.read_rows(0, &mut rows);
            assert_eq!(rows, w.data());
        }
        // A panel that straddles a page, and a panel that spans pages but
        // whose kernel slices would straddle them, are refused.
        let (k, n) = (10, 2 * nr);
        let panels = vec![1.0; 2 * k * nr];
        let (a, b) = panels.split_at(k * nr * 3 / 2);
        assert!(PackedB::paged(k, n, nr, &[a, b], &[0, k * nr]).is_err());
        let (k, n, page) = (300, nr, 256 * nr + 1);
        let panels = vec![1.0; k * nr];
        let (a, b) = panels.split_at(page);
        let pages = [a, b];
        let spans = PackedB::paged(k, n, nr, &pages, &[0]).unwrap();
        let a = Tensor::zeros([20, k]);
        assert!(matches!(
            matmul_prepacked(&a, &spans, Epilogue::None, &serial),
            Err(Error::Isa(_))
        ));
    }

    #[test]
    fn pack_bt_packs_a_column_window_in_place() {
        // Rows 2..7, columns 3..14 of a 9x20 matrix, against packing a copy.
        let full = Tensor::from_fn([9, 20], |i| i as f32);
        let window = full.slice2(2, 7, 3, 14).unwrap();
        let (mut in_place, mut copied) = (Vec::new(), Vec::new());
        pack_bt(&full.data()[2 * 20 + 3..], 20, 5, 11, 8, &mut in_place);
        pack_bt(window.data(), 11, 5, 11, 8, &mut copied);
        assert_eq!(in_place, copied);
    }

    #[test]
    fn pack_bt_appends_groups_of_whole_panels() {
        let w = inexact([2 * 8 + 3, 7], 0.4177);
        let (mut whole, mut groups) = (Vec::new(), Vec::new());
        pack_bt(w.data(), 7, 19, 7, 8, &mut whole);
        pack_bt(w.data(), 7, 16, 7, 8, &mut groups);
        pack_bt(&w.data()[16 * 7..], 7, 3, 7, 8, &mut groups);
        assert_eq!(whole, groups);
    }

    #[test]
    fn packed_panels_read_back_as_the_rows_they_were_packed_from() {
        // Ragged panels (n % nr != 0) at every panel width a kernel uses.
        for nr in [4, 8, 16, 32] {
            let (n, k) = (2 * nr + 3, 7);
            let w = Tensor::from_fn([n, k], |i| i as f32 * 0.5 - 9.0);
            let mut panels = Vec::new();
            pack_bt(w.data(), k, n, k, nr, &mut panels);
            let packed = PackedB::new(k, n, nr, &panels).unwrap();
            for (j0, rows) in [(0, n), (1, nr), (nr - 1, 2), (n - 1, 1), (3, 0)] {
                let mut out = vec![0.0; rows * k];
                packed.read_rows(j0, &mut out);
                assert_eq!(out, w.data()[j0 * k..(j0 + rows) * k], "nr={nr} j0={j0}");
            }
            let mut run = [0.0; 4];
            packed.read_row(nr + 1, 2, &mut run);
            assert_eq!(run, w.row(nr + 1).unwrap()[2..6]);
        }
    }

    #[test]
    fn prepacked_operands_are_validated() {
        let nr = panel_width().unwrap();
        let panels = vec![0.0; PackedB::len_for(6, 5, nr)];
        assert!(PackedB::new(6, 5, nr, &panels[1..]).is_err());
        assert!(PackedB::new(6, 5, 0, &[]).is_err());
        let packed = PackedB::new(6, 5, nr, &panels).unwrap();
        let serial = Parallelism::serial();
        assert!(matmul_prepacked(&Tensor::zeros([2, 6]), &packed, Epilogue::None, &serial).is_ok());
        // Inner dimension, and a panel width the dispatched kernel does not use.
        assert!(matches!(
            matmul_prepacked(&Tensor::zeros([2, 7]), &packed, Epilogue::None, &serial),
            Err(Error::ShapeMismatch { .. })
        ));
        let other = vec![0.0; PackedB::len_for(6, 5, nr + 1)];
        let foreign = PackedB::new(6, 5, nr + 1, &other).unwrap();
        assert!(matches!(
            matmul_prepacked(&Tensor::zeros([2, 6]), &foreign, Epilogue::None, &serial),
            Err(Error::Isa(_))
        ));
        // A bias that is not one value per output column.
        let short = Epilogue::BiasRelu(&[0.0; 4]);
        assert!(matches!(
            matmul_prepacked(&Tensor::zeros([2, 6]), &packed, short, &serial),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn parallel_bt_matches_serial() {
        let a = Tensor::from_fn([9, 5], |i| i as f32 * 0.25);
        let w = Tensor::from_fn([4, 5], |i| (i as f32).sin());
        let serial = matmul_bt_parallel(&a, &w, &Parallelism::serial()).unwrap();
        let grant = Parallelism::new(std::sync::Arc::new(SerialRunner), 4);
        let par = matmul_bt_parallel(&a, &w, &grant).unwrap();
        assert!(serial.approx_eq(&par, 1e-4));
    }

    #[test]
    fn single_row_and_column() {
        let a = Tensor::from_vec([1, 3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3, 1], vec![4., 5., 6.]).unwrap();
        let c = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
        assert_eq!(c.data(), &[32.0]);
    }

    #[test]
    fn ragged_edges_exercise_partial_tiles() {
        // Dimensions chosen to leave partial MR/NR/KC tiles on every edge,
        // checked against every ISA tier the host can execute.
        for (m, k, n) in [(1, 1, 1), (3, 5, 9), (5, 3, 11), (13, 17, 19), (4, 8, 8)] {
            let a = Tensor::from_fn([m, k], |i| ((i * 29) % 31) as f32 * 0.125 - 1.5);
            let b = Tensor::from_fn([k, n], |i| ((i * 37) % 41) as f32 * 0.0625 - 1.0);
            let slow = matmul_naive(&a, &b).unwrap();
            let fast = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
            assert!(fast.approx_eq(&slow, 1e-3), "shape ({m},{k},{n})");
            for isa in Isa::supported() {
                let forced = matmul_with_isa(&a, &b, isa).unwrap();
                assert!(forced.approx_eq(&slow, 1e-3), "{isa} shape ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn deep_k_crosses_cache_blocks() {
        // k > KC forces multiple k-block accumulation passes over C, on every
        // supported tier (tile geometry, and therefore KC, is per-kernel).
        let kc = simd::kernels().matmul.kc;
        let k = kc + 37;
        let a = Tensor::from_fn([5, k], |i| (((i * 11) % 7) as f32 - 3.0) * 0.25);
        let b = Tensor::from_fn([k, 6], |i| (((i * 13) % 5) as f32 - 2.0) * 0.5);
        let slow = matmul_naive(&a, &b).unwrap();
        let fast = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-2));
        for isa in Isa::supported() {
            let forced = matmul_with_isa(&a, &b, isa).unwrap();
            assert!(forced.approx_eq(&slow, 1e-2), "{isa}");
        }
    }

    #[test]
    fn forcing_unavailable_isa_is_a_clean_error() {
        let a = Tensor::zeros([4, 4]);
        for isa in [Isa::Scalar, Isa::Avx2Fma, Isa::Avx512] {
            let got = matmul_with_isa(&a, &a, isa);
            if isa.available() {
                assert!(got.is_ok(), "{isa} available but dispatch failed");
            } else {
                // Must surface as Error::Isa, never an illegal instruction.
                assert!(matches!(got, Err(Error::Isa(_))), "{isa}");
            }
        }
    }

    proptest! {
        #[test]
        fn blocked_matches_naive(a in tensor_strategy(5, 8), b in tensor_strategy(8, 6)) {
            let fast = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            prop_assert!(fast.approx_eq(&slow, 1e-3));
        }

        #[test]
        fn parallel_matches_naive(a in tensor_strategy(7, 4), b in tensor_strategy(4, 9)) {
            let fast = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            prop_assert!(fast.approx_eq(&slow, 1e-3));
        }

        #[test]
        fn matmul_distributes_over_hconcat(
            a1 in tensor_strategy(3, 4),
            a2 in tensor_strategy(3, 5),
            b1 in tensor_strategy(4, 2),
            b2 in tensor_strategy(5, 2),
        ) {
            // The §2.2 decomposition identity: [A1 | A2] × [B1; B2] = A1×B1 + A2×B2.
            let a = a1.hconcat(&a2).unwrap();
            let b = b1.vconcat(&b2).unwrap();
            let whole = matmul_parallel(&a, &b, &Parallelism::serial()).unwrap();
            let parts = crate::ops::add(
                &matmul_parallel(&a1, &b1, &Parallelism::serial()).unwrap(),
                &matmul_parallel(&a2, &b2, &Parallelism::serial()).unwrap(),
            ).unwrap();
            prop_assert!(whole.approx_eq(&parts, 1e-2));
        }
    }
}
