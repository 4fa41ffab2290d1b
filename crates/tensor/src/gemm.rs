//! Packed, register-blocked parallel GEMM — the workspace's `cblas_sgemm`
//! replacement and the single hottest kernel in GCN training.
//!
//! Three layout-specialised entry points cover every multiply in training:
//!
//! * [`matmul`] / [`gemm_nn`] (`C = A·B`) — forward weight application `H·W`;
//! * [`matmul_tn`] / [`gemm_tn`] (`C = Aᵀ·B`) — weight gradients `Hᵀ·dY`;
//! * [`matmul_nt`] / [`gemm_nt`] (`C = A·Bᵀ`) — input gradients `dY·Wᵀ`.
//!
//! The `*_v` variants take strided [`MatRef`]/[`MatMut`] views, so callers
//! can multiply into (or from) column sub-ranges of larger matrices — the
//! neighbor‖self halves of a concatenated GCN activation — without copies.
//!
//! # Kernel design
//!
//! This is a BLIS-style packed kernel:
//!
//! ```text
//! for jc in 0..n step NC:                    (column strip of C)
//!   for pc in 0..k step KC:                  (reduction panel)
//!     pack B[pc.., jc..]  →  b_pack          (NR-wide column panels)
//!     par for ic in 0..m step MC:            (row block — rayon task)
//!       pack α·A[ic.., pc..]  →  a_pack      (MR-tall row panels)
//!       for jr, ir tiles:  microkernel MR×NR over KC
//! ```
//!
//! * **Packing** copies each operand panel once into contiguous,
//!   panel-interleaved, 64-byte-aligned scratch (from [`crate::scratch`],
//!   reused across calls), so the microkernel's loads are unit-stride
//!   vector loads regardless of the operand layout — this is what makes
//!   the `tn`/`nt` transpose variants and strided views run at `nn` speed,
//!   and it bounds cache/TLB traffic to one streaming pass per panel. `α`
//!   is folded into the A-pack. The A-panel interleave ([`MR`] = 8 rows)
//!   is **tier-invariant**; the B-panel width `NR` belongs to the selected
//!   microkernel.
//! * **The microkernel** is an explicit SIMD register-tile kernel selected
//!   at runtime from the tiers in [`crate::ukernel`]: hand-written
//!   AVX-512F (`8×48`, `_mm512_fmadd_ps`) and AVX2+FMA (`8×16`,
//!   `_mm256_fmadd_ps`) kernels, with the portable autovectorised
//!   virtual-vector kernel (`8×32`) as the fallback. Dispatch is resolved
//!   once per process (`is_x86_feature_detected!`, overridable with the
//!   `GSGCN_KERNEL` env var — `scalar`/`avx2`/`avx512`/`auto`) into a
//!   cached kernel table; [`with_tier`] forces a tier per thread for
//!   tests/benches. All tiers compute each C element as the same FMA
//!   chain, so tier choice never changes results. There is **no**
//!   zero-skip branch: the seed kernel's `if aik == 0.0 { continue; }`
//!   stalled the pipeline on every dense activation element to optimise a
//!   case (exact zeros) that occurs only for ReLU-sparse inputs, and even
//!   then saves nothing once the loop is memory-bound.
//! * **Parallelism** is over `MC`-row blocks of `C` on the current rayon
//!   pool. Tasks own disjoint C rows and the block structure is a function
//!   of the shape alone, so results are bit-identical for any thread
//!   count. The dispatched kernel is resolved on the calling thread and
//!   carried into the tasks, so a per-thread tier override composes with
//!   thread pools.
//! * Accumulation order per C element is fixed (pc-major, then kk), so the
//!   kernel is deterministic; tests pin it against [`matmul_reference`].
//!
//! Edge tiles run the same microkernel against zero-padded panels and clip
//! on the C store, so odd shapes take the fast path too.
//!
//! # Fusion: producer-packed A panels
//!
//! A-panel packing is driven by the [`PackSource`] trait rather than a
//! matrix view: the driver asks the source for each `MC×KC` panel, and the
//! dense entry points above are just the [`DensePack`] implementation. A
//! producer implementation can instead *compute* its rows directly into
//! the thread-local pack scratch — `gsgcn-prop` uses this to fuse the
//! sparse aggregation `Â·H` of a GCN layer with the weight GEMM
//! ([`gemm_source_nn_v`] / [`gemm_source_nt_v`]), so the aggregated matrix
//! never materialises in DRAM.
//!
//! # Precision: bf16 panels, f32 accumulate
//!
//! The fused layer is memory-bandwidth-bound at the GCN shapes, so the
//! driver has a second panel pipeline where both packed operands hold
//! **bf16** (u16) elements: [`gemm_source_nn_bf16_v`] packs B by rounding
//! once ([`Bf16::from_f32`], round-to-nearest-even) and asks a
//! [`PackSourceBf16`] for bf16 A panels, and the microkernel widens both
//! in registers (a 16-bit shift) while accumulating in f32 — see
//! [`crate::ukernel`]'s precision section. Panel indices and the `MR`
//! interleave are identical to the f32 path, only the element width
//! halves, which halves the panel bytes re-streamed per block (packed B
//! is re-read for every `MC`-row block — ~1 MiB/strip in f32 — and
//! packed A is re-swept per `NR` tile column). Conversions happen **at
//! pack time inside the L2-resident panel**, never as a separate DRAM
//! pass: a bf16 producer (quantised activations, bf16 shard rows)
//! aggregates/copies straight into the panel, and any f32
//! [`PackSource`] rides along via [`QuantizePack`] with exactly one
//! rounding per element. α is folded into the A-pack *before* that
//! rounding, so the stored panel carries a single quantisation. The
//! result differs from the f32 path only by the per-element input
//! rounding (≤ 2⁻⁸ relative); equivalence tests are therefore
//! tolerance-banded via [`crate::precision::rel_tolerance`], while the
//! f32 path itself stays bit-identical. When the **AMX tile unit** is
//! present ([`crate::amx`]), the bf16 driver escalates past the vector
//! kernels altogether: A packs **row-major** (what `tileloadd` strides
//! over, via [`PackSourceBf16::pack_a_bf16_rowmajor`]) and B packs 16-column
//! VNNI panels, and each `tdpbf16ps` call covers a 32×32×32 brick —
//! measured ~5× over the f32 GEMM on the GCN layer shape, where the
//! widen kernels only break even. [`bf16_engine`] reports the path;
//! `GSGCN_AMX=0` falls back to the vector kernels.

use crate::bf16::{self, Bf16, Bf16MatRef};
use crate::matrix::DMatrix;
use crate::scratch;
use crate::ukernel::{self, Kernel, NR_MAX};
use crate::view::{MatMut, MatRef};
use rayon::prelude::*;

// Microkernel tiers and their dispatch live in `crate::ukernel`; the tier
// inspection/override API is re-exported here because this is the module
// callers already import for everything GEMM.
pub use crate::ukernel::{
    available_tiers, best_available_tier, bf16_dot_native, bf16_engine, selected_tier, with_tier,
    Tier, ALL_TIERS,
};

/// Microkernel tile height (rows of C per register tile), identical for
/// every tier. Public because [`PackSource`] implementors must produce
/// panels in the MR-interleaved pack layout (see [`PackSource::pack_a`]).
pub use crate::ukernel::MR;

/// Reduction-dimension block: one packed A panel column-block (`MC×KC`)
/// plus the B panel rows stay L2-resident.
const KC: usize = 256;
/// Rows of C per parallel task / packed A block.
const MC: usize = 64;

// ---------------------------------------------------------------------------
// Allocating convenience wrappers
// ---------------------------------------------------------------------------

/// `C = A·B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.rows(), b.cols());
    gemm_nn(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = Aᵀ·B` (A is `k × m`, B is `k × n`, C is `m × n`).
pub fn matmul_tn(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.cols(), b.cols());
    gemm_tn(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = A·Bᵀ` (A is `m × k`, B is `n × k`, C is `m × n`).
pub fn matmul_nt(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.rows(), b.rows());
    gemm_nt(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = α·A·B + β·C`.
pub fn gemm_nn(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: A is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    gemm_nn_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

/// `C = α·Aᵀ·B + β·C` where A is `k × m` (so `Aᵀ` is `m × k`), B is `k × n`.
pub fn gemm_tn(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: Aᵀ is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    gemm_tn_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

/// `C = α·A·Bᵀ + β·C` where A is `m × k`, B is `n × k`.
pub fn gemm_nt(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: A is {m}x{k}, Bᵀ is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    gemm_nt_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

// ---------------------------------------------------------------------------
// View-based entry points
// ---------------------------------------------------------------------------

/// `C = α·A·B + β·C` over strided views.
pub fn gemm_nn_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: A is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver(alpha, &DensePack::new(a), b, false, beta, c);
}

/// `C = α·Aᵀ·B + β·C` over strided views (A stored `k × m`).
pub fn gemm_tn_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: Aᵀ is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver(alpha, &DensePack::transposed(a), b, false, beta, c);
}

/// `C = α·A·Bᵀ + β·C` over strided views (B stored `n × k`).
pub fn gemm_nt_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: A is {m}x{k}, Bᵀ is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver(alpha, &DensePack::new(a), b, true, beta, c);
}

// ---------------------------------------------------------------------------
// A-panel sources
// ---------------------------------------------------------------------------

/// A source of packed A panels for the GEMM driver.
///
/// The driver never reads the A operand directly — it asks the source to
/// pack `α·A[ic..ic+mc, pc..pc+kc]` into the microkernel's panel layout,
/// one `MC×KC` block at a time, inside each parallel row-block task. This
/// is the hook that makes **operator fusion** possible: a producer can
/// *compute* its rows (e.g. the sparse aggregation `Σ_{u∈N(v)} H[u]` of a
/// GCN layer, see `gsgcn-prop`) straight into the thread-local pack
/// scratch, so the logical A matrix only ever exists as an L2-resident
/// panel and never round-trips through DRAM. The dense paths ([`matmul`]
/// and friends) go through the same trait via [`DensePack`].
///
/// `pack_a` may be called for the same `(ic, pc)` block more than once
/// (once per `NC`-column strip of C), from different threads across calls
/// but never concurrently for overlapping row ranges within one strip.
pub trait PackSource: Sync {
    /// Logical shape `(m, k)` of the A operand.
    fn shape(&self) -> (usize, usize);

    /// Pack `α·A[ic..ic+mc, pc..pc+kc]` into MR-tall row panels:
    /// `out[p·kc·MR + kk·MR + r] = α·A[ic + p·MR + r, pc + kk]`,
    /// zero-padding rows past `mc`. `out.len()` is
    /// `mc.div_ceil(MR) · kc · MR`.
    fn pack_a(&self, alpha: f32, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]);
}

/// The dense [`PackSource`]: an A operand stored as a (possibly strided,
/// possibly transposed) matrix view.
pub struct DensePack<'a> {
    a: MatRef<'a>,
    trans: bool,
}

impl<'a> DensePack<'a> {
    /// Source reading `A` in its logical orientation.
    pub fn new(a: MatRef<'a>) -> Self {
        DensePack { a, trans: false }
    }

    /// Source reading `Aᵀ` (the view stores `k × m`).
    pub fn transposed(a: MatRef<'a>) -> Self {
        DensePack { a, trans: true }
    }
}

impl PackSource for DensePack<'_> {
    fn shape(&self) -> (usize, usize) {
        if self.trans {
            (self.a.cols(), self.a.rows())
        } else {
            self.a.shape()
        }
    }

    fn pack_a(&self, alpha: f32, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]) {
        pack_a_dense(self.a, self.trans, alpha, ic, mc, pc, kc, out);
    }
}

// ---------------------------------------------------------------------------
// Fused entry points
// ---------------------------------------------------------------------------

/// `C = α·S·B + β·C`, with the A operand produced by a [`PackSource`].
pub fn gemm_source_nn_v<S: PackSource + ?Sized>(
    alpha: f32,
    src: &S,
    b: MatRef<'_>,
    beta: f32,
    c: MatMut<'_>,
) {
    let (m, k) = src.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: source is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver(alpha, src, b, false, beta, c);
}

/// `C = α·S·Bᵀ + β·C` (B stored `n × k`), A produced by a [`PackSource`].
pub fn gemm_source_nt_v<S: PackSource + ?Sized>(
    alpha: f32,
    src: &S,
    b: MatRef<'_>,
    beta: f32,
    c: MatMut<'_>,
) {
    let (m, k) = src.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: source is {m}x{k}, Bᵀ is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver(alpha, src, b, true, beta, c);
}

// ---------------------------------------------------------------------------
// bf16 A-panel sources and entry points
// ---------------------------------------------------------------------------

/// A source of packed **bf16** A panels — the half-width twin of
/// [`PackSource`] (same `(ic, mc, pc, kc)` protocol, same MR
/// interleave, same zero padding).
///
/// `α` must be applied *before* the bf16 rounding so the stored panel
/// carries exactly one quantisation; producers that accumulate (the
/// fused aggregation) do so in f32 and round once on the final scatter.
pub trait PackSourceBf16: Sync {
    /// Logical shape `(m, k)` of the A operand.
    fn shape(&self) -> (usize, usize);

    /// Pack `bf16(α·A[ic..ic+mc, pc..pc+kc])` into MR-tall row panels
    /// (layout as [`PackSource::pack_a`], u16-width elements).
    fn pack_a_bf16(&self, alpha: f32, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [Bf16]);

    /// Pack the same block **row-major** for the AMX tile driver:
    /// `out[r·kc_pad + kk] = bf16(α·A[ic+r, pc+kk])`, rows past `mc` and
    /// depth past `kc` zero-filled. `out.len()` is `mc_pad · kc_pad`
    /// with both dimensions padded to the tile grid.
    ///
    /// The default goes through [`Self::pack_a_bf16`] and de-interleaves
    /// — correct for any source; producers whose natural output is a
    /// contiguous row (the dense and fused-aggregation sources) override
    /// it to skip the intermediate scatter.
    #[allow(clippy::too_many_arguments)]
    fn pack_a_bf16_rowmajor(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        kc_pad: usize,
        out: &mut [Bf16],
    ) {
        let panels = mc.div_ceil(MR);
        scratch::with_buf_u16(panels * kc * MR, |lin| {
            self.pack_a_bf16(alpha, ic, mc, pc, kc, bf16::from_bits_slice_mut(lin));
            out.fill(Bf16::ZERO);
            for r in 0..mc {
                let panel = &lin[(r / MR) * kc * MR..];
                let dst = &mut out[r * kc_pad..][..kc];
                for (kk, d) in dst.iter_mut().enumerate() {
                    *d = Bf16(panel[kk * MR + r % MR]);
                }
            }
        });
    }
}

/// The dense [`PackSourceBf16`]: an A operand already stored bf16
/// (quantised activations, bf16 shard feature rows). With `α = 1` the
/// pack is a pure u16 interleave — no conversion at all; other `α`
/// widen, scale and re-round (documented single extra rounding).
pub struct DensePackBf16<'a> {
    a: Bf16MatRef<'a>,
}

impl<'a> DensePackBf16<'a> {
    pub fn new(a: Bf16MatRef<'a>) -> Self {
        DensePackBf16 { a }
    }
}

impl PackSourceBf16 for DensePackBf16<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.a.rows(), self.a.cols())
    }

    fn pack_a_bf16(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        out: &mut [Bf16],
    ) {
        let panels = mc.div_ceil(MR);
        debug_assert_eq!(out.len(), panels * kc * MR);
        for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
            let r0 = p * MR;
            let rows_here = MR.min(mc - r0);
            for r in 0..rows_here {
                let src = &self.a.row(ic + r0 + r)[pc..pc + kc];
                if alpha == 1.0 {
                    for (kk, &s) in src.iter().enumerate() {
                        panel[kk * MR + r] = s;
                    }
                } else {
                    for (kk, &s) in src.iter().enumerate() {
                        panel[kk * MR + r] = Bf16::from_f32(alpha * s.to_f32());
                    }
                }
            }
            if rows_here < MR {
                for kk in 0..kc {
                    panel[kk * MR + rows_here..(kk + 1) * MR].fill(Bf16::ZERO);
                }
            }
        }
    }

    fn pack_a_bf16_rowmajor(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        kc_pad: usize,
        out: &mut [Bf16],
    ) {
        // Already row-major bf16 storage: at α = 1 the pack is a straight
        // row copy; other α widen, scale and re-round.
        for (r, dst) in out.chunks_exact_mut(kc_pad).enumerate() {
            if r < mc {
                let src = &self.a.row(ic + r)[pc..pc + kc];
                if alpha == 1.0 {
                    dst[..kc].copy_from_slice(src);
                } else {
                    for (d, &s) in dst[..kc].iter_mut().zip(src) {
                        *d = Bf16::from_f32(alpha * s.to_f32());
                    }
                }
                dst[kc..].fill(Bf16::ZERO);
            } else {
                dst.fill(Bf16::ZERO);
            }
        }
    }
}

/// Adapter giving every existing f32 [`PackSource`] a bf16 panel path:
/// the wrapped source packs `α·A` into f32 scratch (one L2-resident
/// panel), which is rounded once into the bf16 panel. This is how
/// producers "ride along" without a bf16-native implementation.
pub struct QuantizePack<'a, S: PackSource + ?Sized>(pub &'a S);

impl<S: PackSource + ?Sized> PackSourceBf16 for QuantizePack<'_, S> {
    fn shape(&self) -> (usize, usize) {
        self.0.shape()
    }

    fn pack_a_bf16(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        out: &mut [Bf16],
    ) {
        scratch::with_buf(out.len(), |tmp| {
            self.0.pack_a(alpha, ic, mc, pc, kc, tmp);
            for (d, &s) in out.iter_mut().zip(tmp.iter()) {
                *d = Bf16::from_f32(s);
            }
        });
    }
}

/// `C = α·S·B + β·C` on **bf16 panels with f32 accumulate**: A panels
/// come from a [`PackSourceBf16`], B is rounded to bf16 at pack time,
/// and the selected tier's bf16 microkernel widens both in registers.
/// C and the accumulation stay f32.
pub fn gemm_source_nn_bf16_v<S: PackSourceBf16 + ?Sized>(
    alpha: f32,
    src: &S,
    b: MatRef<'_>,
    beta: f32,
    c: MatMut<'_>,
) {
    let (m, k) = src.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "inner dimensions must match: source is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    driver_bf16(alpha, src, b, beta, c);
}

/// `C = α·A·B + β·C` with a bf16-stored A (convenience wrapper over
/// [`DensePackBf16`]).
pub fn gemm_bf16_nn_v(alpha: f32, a: Bf16MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    gemm_source_nn_bf16_v(alpha, &DensePackBf16::new(a), b, beta, c);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Pointer wrapper for handing disjoint C row blocks to parallel tasks.
#[derive(Clone, Copy)]
struct CPtr {
    ptr: *mut f32,
    row_stride: usize,
}

// SAFETY: tasks write disjoint row ranges of C (each `ic` block is owned
// by exactly one task) and never read rows they do not own.
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

fn driver<S: PackSource + ?Sized>(
    alpha: f32,
    a: &S,
    b: MatRef<'_>,
    b_trans: bool,
    beta: f32,
    mut c: MatMut<'_>,
) {
    // Logical dimensions: C is m×n, reduction length k.
    let (m, n) = c.shape();
    let k = a.shape().1;

    if m == 0 || n == 0 {
        return;
    }
    scale_c(&mut c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }

    let c_base = CPtr {
        ptr: c.as_mut_ptr(),
        row_stride: c.row_stride(),
    };

    // Resolve the microkernel once, on the calling thread (honouring any
    // `with_tier` override there), and carry it into the parallel tasks.
    let kern = ukernel::current_kernel();
    let nr = kern.nr;

    let ic_blocks = m.div_ceil(MC);
    for jc in (0..n).step_by(kern.nc) {
        let nc = kern.nc.min(n - jc);
        let b_panels = nc.div_ceil(nr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            scratch::with_buf(b_panels * kc * nr, |b_pack| {
                pack_b(b, b_trans, pc, kc, jc, nc, nr, b_pack);
                let b_pack = &*b_pack;
                (0..ic_blocks).into_par_iter().for_each(|blk| {
                    let ic = blk * MC;
                    let mc = MC.min(m - ic);
                    let a_panels = mc.div_ceil(MR);
                    scratch::with_buf(a_panels * kc * MR, |a_pack| {
                        a.pack_a(alpha, ic, mc, pc, kc, a_pack);
                        multiply_block(kern, a_pack, b_pack, c_base, ic, mc, jc, nc, kc);
                    });
                });
            });
        }
    }
}

/// The bf16-panel driver: [`driver`]'s blocking with u16 panel scratch
/// and the tier's bf16 microkernel. Only the `nn` orientation exists —
/// the backward GEMMs (`tn`/`nt`) stay on the f32 master path.
fn driver_bf16<S: PackSourceBf16 + ?Sized>(
    alpha: f32,
    a: &S,
    b: MatRef<'_>,
    beta: f32,
    mut c: MatMut<'_>,
) {
    let (m, n) = c.shape();
    let k = a.shape().1;

    if m == 0 || n == 0 {
        return;
    }
    scale_c(&mut c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }

    let c_base = CPtr {
        ptr: c.as_mut_ptr(),
        row_stride: c.row_stride(),
    };

    let kern = ukernel::current_kernel();

    // At the top tier, hand the whole block schedule to the AMX tile
    // driver when the unit is present — the only path on these parts
    // where bf16 buys compute throughput, not just bandwidth.
    #[cfg(target_arch = "x86_64")]
    {
        if kern.tier == Tier::Avx512 && crate::amx::bf16_ready() {
            driver_bf16_amx(alpha, a, b, c_base, m, n, k);
            return;
        }
    }

    let nr = kern.nr;

    let ic_blocks = m.div_ceil(MC);
    for jc in (0..n).step_by(kern.nc) {
        let nc = kern.nc.min(n - jc);
        let b_panels = nc.div_ceil(nr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            scratch::with_buf_u16(b_panels * kc * nr, |b_bits| {
                pack_b_bf16(b, pc, kc, jc, nc, nr, bf16::from_bits_slice_mut(b_bits));
                let b_pack = bf16::from_bits_slice(b_bits);
                (0..ic_blocks).into_par_iter().for_each(|blk| {
                    let ic = blk * MC;
                    let mc = MC.min(m - ic);
                    let a_panels = mc.div_ceil(MR);
                    scratch::with_buf_u16(a_panels * kc * MR, |a_bits| {
                        a.pack_a_bf16(alpha, ic, mc, pc, kc, bf16::from_bits_slice_mut(a_bits));
                        let a_pack = bf16::from_bits_slice(a_bits);
                        multiply_block_bf16(kern, a_pack, b_pack, c_base, ic, mc, jc, nc, kc);
                    });
                });
            });
        }
    }
}

/// The AMX tile driver: same `MC×KC` block schedule as [`driver_bf16`],
/// but panels are laid out for the tile unit — A blocks **row-major**
/// (what `tileloadd` strides over; produced directly by
/// [`PackSourceBf16::pack_a_bf16_rowmajor`], no MR interleave), B in
/// 16-column VNNI pair-interleaved panels, both zero-padded to the
/// 32×32×32 tile grid. Each microkernel call covers a 32×32 block of C
/// with the accumulation held in tile registers across the whole `kc`.
#[cfg(target_arch = "x86_64")]
fn driver_bf16_amx<S: PackSourceBf16 + ?Sized>(
    alpha: f32,
    a: &S,
    b: MatRef<'_>,
    c_base: CPtr,
    m: usize,
    n: usize,
    k: usize,
) {
    use crate::amx::{self, TILE_K, TILE_M, TILE_N};
    /// B VNNI panel width: half a C-tile column block.
    const NR_AMX: usize = 16;
    /// C column strip per packed-B round (panel bytes stay L2-resident:
    /// `512 · KC · 2` = 256 KiB).
    const NC_AMX: usize = 512;

    let ic_blocks = m.div_ceil(MC);
    for jc in (0..n).step_by(NC_AMX) {
        let nc = NC_AMX.min(n - jc);
        let b_panels = nc.div_ceil(NR_AMX);
        // Pad the panel count to the 2-panel C-tile grid; a dangling
        // half tile (nc % 32 ≤ 16) reads an all-zero right panel.
        let panels_pad = nc.div_ceil(TILE_N) * 2;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let kc_pad = kc.next_multiple_of(TILE_K);
            scratch::with_buf_u16(panels_pad * kc_pad * NR_AMX, |b_vnni| {
                scratch::with_buf_u16(b_panels * kc * NR_AMX, |lin| {
                    pack_b_bf16(b, pc, kc, jc, nc, NR_AMX, bf16::from_bits_slice_mut(lin));
                    b_vnni[b_panels * kc_pad * NR_AMX..].fill(0);
                    ukernel::pair_interleave_bf16_panels(
                        lin,
                        &mut b_vnni[..b_panels * kc_pad * NR_AMX],
                        kc,
                        NR_AMX,
                        kc_pad,
                    );
                });
                let b_vnni = &*b_vnni;
                (0..ic_blocks).into_par_iter().for_each(|blk| {
                    amx::ensure_thread_configured();
                    let ic = blk * MC;
                    let mc = MC.min(m - ic);
                    let mc_pad = mc.next_multiple_of(TILE_M);
                    scratch::with_buf_u16(mc_pad * kc_pad, |a_bits| {
                        a.pack_a_bf16_rowmajor(
                            alpha,
                            ic,
                            mc,
                            pc,
                            kc,
                            kc_pad,
                            bf16::from_bits_slice_mut(a_bits),
                        );
                        multiply_block_amx(a_bits, b_vnni, c_base, ic, mc, mc_pad, jc, nc, kc_pad);
                    });
                });
            });
        }
    }
}

/// 32×32 f32 tile buffer the AMX kernel `tilestored`s into.
#[cfg(target_arch = "x86_64")]
#[repr(align(64))]
struct AccTile32([f32; 32 * 32]);

/// `C[ic..ic+mc, jc..jc+nc] += rowmajor_A · vnni_B` for one row block on
/// the tile unit: the store loop mirrors [`multiply_block`], clipped to
/// the block edge.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn multiply_block_amx(
    a_bits: &[u16],
    b_vnni: &[u16],
    c_base: CPtr,
    ic: usize,
    mc: usize,
    mc_pad: usize,
    jc: usize,
    nc: usize,
    kc_pad: usize,
) {
    use crate::amx::{self, TILE_K, TILE_M, TILE_N};
    let kpads = kc_pad / TILE_K;
    // One 16-column VNNI panel: `kc_pad/2` pair rows × 32 elements.
    let panel_len = kc_pad * 16;
    let mut acc = AccTile32([0.0f32; 32 * 32]);
    for jt in 0..nc.div_ceil(TILE_N) {
        let jr = jt * TILE_N;
        let tile_cols = TILE_N.min(nc - jr);
        let b0 = b_vnni[2 * jt * panel_len..].as_ptr();
        let b1 = b_vnni[(2 * jt + 1) * panel_len..].as_ptr();
        for it in 0..mc_pad / TILE_M {
            let ir = it * TILE_M;
            let tile_rows = TILE_M.min(mc - ir);
            // SAFETY: the packed A block holds `mc_pad ≥ ir+32` rows of
            // `kc_pad` elements, `b0`/`b1` each cover one full padded
            // panel (`panels_pad` is even), and `acc` is 32×32. The
            // driver gated on `amx::bf16_ready()` and configured this
            // thread's tile palette.
            unsafe {
                amx::tile_kernel_32x32(
                    kpads,
                    a_bits.as_ptr().add(ir * kc_pad),
                    kc_pad * 2,
                    b0,
                    b1,
                    acc.0.as_mut_ptr(),
                );
            }
            for (r, acc_row) in acc.0.chunks_exact(TILE_N).enumerate().take(tile_rows) {
                // SAFETY: this task owns rows [ic, ic+mc) of C, and
                // jc+jr+tile_cols ≤ n by construction.
                let c_row: &mut [f32] = unsafe {
                    std::slice::from_raw_parts_mut(
                        c_base.ptr.add((ic + ir + r) * c_base.row_stride + jc + jr),
                        tile_cols,
                    )
                };
                for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                    *cv += *av;
                }
            }
        }
    }
}

/// Stack tile buffer for the microkernel output, 64-byte aligned so the
/// widest tier's stores stay within cache lines.
#[repr(align(64))]
struct AccTile([f32; MR * NR_MAX]);

/// `C[ic..ic+mc, jc..jc+nc] += packed_A · packed_B` for one row block.
#[allow(clippy::too_many_arguments)]
fn multiply_block(
    kern: &Kernel,
    a_pack: &[f32],
    b_pack: &[f32],
    c_base: CPtr,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
) {
    let nr = kern.nr;
    // Tile buffer the microkernel overwrites per call (row-major MR×nr).
    let mut acc = AccTile([0.0f32; MR * NR_MAX]);
    let acc = &mut acc.0[..MR * nr];
    for (jp, b_panel) in b_pack.chunks_exact(kc * nr).enumerate() {
        let jr = jp * nr;
        let tile_cols = nr.min(nc - jr);
        for (ip, a_panel) in a_pack.chunks_exact(kc * MR).enumerate() {
            let ir = ip * MR;
            let tile_rows = MR.min(mc - ir);
            kern.run(kc, a_panel, b_panel, acc);
            // (acc now holds the full tile product for this pc panel.)
            // Store: C[ic+ir .., jc+jr ..] += acc (clipped to the edge).
            for (r, acc_row) in acc.chunks_exact(nr).enumerate().take(tile_rows) {
                // SAFETY: this task owns rows [ic, ic+mc) of C, and
                // jc+jr+tile_cols ≤ n by construction.
                let c_row: &mut [f32] = unsafe {
                    std::slice::from_raw_parts_mut(
                        c_base.ptr.add((ic + ir + r) * c_base.row_stride + jc + jr),
                        tile_cols,
                    )
                };
                for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                    *cv += *av;
                }
            }
        }
    }
}

/// [`multiply_block`] over bf16 panels: identical tiling and store loop,
/// but the tier's bf16 microkernel widens panel elements in registers.
#[allow(clippy::too_many_arguments)]
fn multiply_block_bf16(
    kern: &Kernel,
    a_pack: &[Bf16],
    b_pack: &[Bf16],
    c_base: CPtr,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
) {
    let nr = kern.nr;
    let mut acc = AccTile([0.0f32; MR * NR_MAX]);
    let acc = &mut acc.0[..MR * nr];
    for (jp, b_panel) in b_pack.chunks_exact(kc * nr).enumerate() {
        let jr = jp * nr;
        let tile_cols = nr.min(nc - jr);
        for (ip, a_panel) in a_pack.chunks_exact(kc * MR).enumerate() {
            let ir = ip * MR;
            let tile_rows = MR.min(mc - ir);
            kern.run_bf16(
                kc,
                bf16::to_bits_slice(a_panel),
                bf16::to_bits_slice(b_panel),
                acc,
            );
            for (r, acc_row) in acc.chunks_exact(nr).enumerate().take(tile_rows) {
                // SAFETY: this task owns rows [ic, ic+mc) of C, and
                // jc+jr+tile_cols ≤ n by construction.
                let c_row: &mut [f32] = unsafe {
                    std::slice::from_raw_parts_mut(
                        c_base.ptr.add((ic + ir + r) * c_base.row_stride + jc + jr),
                        tile_cols,
                    )
                };
                for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                    *cv += *av;
                }
            }
        }
    }
}

/// Pack `α·A[ic..ic+mc, pc..pc+kc]` (logical orientation) into MR-tall row
/// panels: `out[p*kc*MR + kk*MR + r] = α·A[ic+p·MR+r, pc+kk]`, zero-padding
/// rows past `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a_dense(
    a: MatRef<'_>,
    a_trans: bool,
    alpha: f32,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    let panels = mc.div_ceil(MR);
    debug_assert_eq!(out.len(), panels * kc * MR);
    for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
        let r0 = p * MR;
        let rows_here = MR.min(mc - r0);
        if a_trans {
            // A stored k×m: for fixed kk the MR logical rows are contiguous.
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                let src = &a.row(pc + kk)[ic + r0..ic + r0 + rows_here];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = alpha * s;
                }
                dst[rows_here..].fill(0.0);
            }
        } else {
            // A stored m×k: walk each logical row once (contiguous in kk).
            for r in 0..rows_here {
                let src = &a.row(ic + r0 + r)[pc..pc + kc];
                for (kk, &s) in src.iter().enumerate() {
                    panel[kk * MR + r] = alpha * s;
                }
            }
            if rows_here < MR {
                for kk in 0..kc {
                    panel[kk * MR + rows_here..(kk + 1) * MR].fill(0.0);
                }
            }
        }
    }
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` (logical orientation) into `nr`-wide
/// column panels: `out[p*kc*nr + kk*nr + j] = B[pc+kk, jc+p·nr+j]`,
/// zero-padding columns past `nc`. `nr` is the selected microkernel's
/// tile width — the one pack-layout parameter that varies per tier.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: MatRef<'_>,
    b_trans: bool,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    out: &mut [f32],
) {
    let panels = nc.div_ceil(nr);
    debug_assert_eq!(out.len(), panels * kc * nr);
    for (p, panel) in out.chunks_exact_mut(kc * nr).enumerate() {
        let c0 = p * nr;
        let cols_here = nr.min(nc - c0);
        if b_trans {
            // B stored n×k: each logical column is a contiguous stored row.
            for j in 0..cols_here {
                let src = &b.row(jc + c0 + j)[pc..pc + kc];
                for (kk, &s) in src.iter().enumerate() {
                    panel[kk * nr + j] = s;
                }
            }
            if cols_here < nr {
                for kk in 0..kc {
                    panel[kk * nr + cols_here..(kk + 1) * nr].fill(0.0);
                }
            }
        } else {
            // B stored k×n: one contiguous copy per kk.
            for (kk, dst) in panel.chunks_exact_mut(nr).enumerate() {
                let src = &b.row(pc + kk)[jc + c0..jc + c0 + cols_here];
                dst[..cols_here].copy_from_slice(src);
                dst[cols_here..].fill(0.0);
            }
        }
    }
}

/// [`pack_b`] into bf16 panels: same `nr`-wide layout, each element
/// rounded once (RNE) as it enters the L2-resident panel — this is the
/// pack-time dequantisation boundary; the microkernel widens in
/// registers. Only the `k×n` orientation exists (forward path).
#[allow(clippy::too_many_arguments)]
fn pack_b_bf16(
    b: MatRef<'_>,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    out: &mut [Bf16],
) {
    let panels = nc.div_ceil(nr);
    debug_assert_eq!(out.len(), panels * kc * nr);
    for (p, panel) in out.chunks_exact_mut(kc * nr).enumerate() {
        let c0 = p * nr;
        let cols_here = nr.min(nc - c0);
        for (kk, dst) in panel.chunks_exact_mut(nr).enumerate() {
            let src = &b.row(pc + kk)[jc + c0..jc + c0 + cols_here];
            for (d, &s) in dst[..cols_here].iter_mut().zip(src) {
                *d = Bf16::from_f32(s);
            }
            dst[cols_here..].fill(Bf16::ZERO);
        }
    }
}

/// `C = β·C`, with BLAS semantics: `β = 0` overwrites even NaN garbage.
fn scale_c(c: &mut MatMut<'_>, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..c.rows() {
        let row = c.row_mut(i);
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for x in row {
                *x *= beta;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

/// Naive triple-loop reference with f64 accumulation, used by tests and
/// benches as ground truth. Kept as the oracle every packed path is
/// checked against.
pub fn matmul_reference(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    let mut c = DMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64; // f64 accumulation for a tighter reference
            for l in 0..k {
                acc += a.get(i, l) as f64 * b.get(l, j) as f64;
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize, scale: f32) -> DMatrix {
        // Bounded values keep f32 accumulation error well below tolerances.
        DMatrix::from_fn(rows, cols, |i, j| {
            (((i * cols + j) % 17) as f32 * 0.05 - 0.4) * scale
        })
    }

    #[test]
    fn matmul_matches_reference() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 33), (64, 128, 32)] {
            let a = seq(m, k, 1.0);
            let b = seq(k, n, 2.0);
            let c = matmul(&a, &b);
            let r = matmul_reference(&a, &b);
            assert!(c.max_abs_diff(&r) < 1e-3, "m={m} k={k} n={n}");
        }
    }

    /// Shapes straddling every blocking boundary: MR, every tier's NR
    /// (16 / 32 / 48), KC and MC.
    #[test]
    fn matmul_matches_reference_at_block_edges() {
        let dims = [
            1,
            MR - 1,
            MR,
            MR + 1,
            15,
            17,
            31,
            33,
            47,
            49,
            MC - 1,
            MC + 1,
        ];
        for &m in &dims {
            for &n in &dims {
                for &k in &[1usize, 7, KC - 1, KC + 1] {
                    let a = seq(m, k, 0.7);
                    let b = seq(k, n, 1.1);
                    let c = matmul(&a, &b);
                    let r = matmul_reference(&a, &b);
                    assert!(c.max_abs_diff(&r) < 5e-3, "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn tn_matches_transpose_then_multiply() {
        let a = seq(7, 5, 1.0); // k=7, m=5
        let b = seq(7, 6, 1.5);
        let c = matmul_tn(&a, &b);
        let r = matmul_reference(&a.transpose(), &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn nt_matches_transpose_then_multiply() {
        let a = seq(5, 7, 1.0);
        let b = seq(6, 7, 1.5); // Bᵀ is 7x6
        let c = matmul_nt(&a, &b);
        let r = matmul_reference(&a, &b.transpose());
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = seq(3, 3, 1.0);
        let b = DMatrix::eye(3);
        let mut c = DMatrix::filled(3, 3, 1.0);
        gemm_nn(2.0, &a, &b, 0.5, &mut c);
        // c = 2a + 0.5
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.get(i, j) - (2.0 * a.get(i, j) + 0.5)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C (BLAS semantics).
        let a = DMatrix::eye(2);
        let b = DMatrix::eye(2);
        let mut c = DMatrix::filled(2, 2, f32::NAN);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        assert!(c.all_finite());
        assert_eq!(c, DMatrix::eye(2));
    }

    #[test]
    fn identity_multiplication() {
        let a = seq(4, 4, 3.0);
        let c = matmul(&a, &DMatrix::eye(4));
        assert!(c.max_abs_diff(&a) < 1e-6);
        let c = matmul(&DMatrix::eye(4), &a);
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn empty_dimensions() {
        let a = DMatrix::zeros(0, 3);
        let b = DMatrix::zeros(3, 2);
        assert_eq!(matmul(&a, &b).shape(), (0, 2));
        let a = DMatrix::zeros(2, 0);
        let b = DMatrix::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c, DMatrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch_panics() {
        matmul(&DMatrix::zeros(2, 3), &DMatrix::zeros(4, 2));
    }

    #[test]
    fn large_parallel_consistency() {
        // A result spanning multiple KC panels, MC blocks and rayon tasks
        // must match the reference.
        let a = seq(100, 300, 0.7);
        let b = seq(300, 50, 1.3);
        let c = matmul(&a, &b);
        let r = matmul_reference(&a, &b);
        assert!(c.max_abs_diff(&r) < 5e-3);
    }

    #[test]
    fn every_tier_matches_reference_end_to_end() {
        // Spans several KC panels and MC blocks so each tier's full
        // driver path (packing, strips, edge tiles) is exercised.
        let a = seq(65, 300, 0.8);
        let b = seq(300, 70, 1.2);
        let r = matmul_reference(&a, &b);
        for tier in available_tiers() {
            let c = with_tier(tier, || matmul(&a, &b));
            assert!(c.max_abs_diff(&r) < 5e-3, "tier {}", tier.name());
        }
    }

    #[test]
    fn tiers_are_bit_identical() {
        // Every tier runs the same FMA chain per C element (see the
        // ukernel module docs), so tier choice must not change results
        // at all — not merely within tolerance.
        let a = seq(70, 260, 0.9);
        let b = seq(260, 50, 1.1);
        let reference = with_tier(Tier::Scalar, || matmul(&a, &b));
        for tier in available_tiers() {
            let c = with_tier(tier, || matmul(&a, &b));
            assert_eq!(c, reference, "tier {}", tier.name());
        }
    }

    #[test]
    fn strided_views_multiply_into_column_halves() {
        // C's two column halves written by two separate gemms must equal
        // the concatenation of the dense products.
        let h = seq(10, 6, 1.0);
        let w1 = seq(6, 4, 0.8);
        let w2 = seq(6, 4, 1.3);
        let mut c = DMatrix::filled(10, 8, f32::NAN);
        gemm_nn_v(1.0, h.view(), w1.view(), 0.0, c.view_cols_mut(0, 4));
        gemm_nn_v(1.0, h.view(), w2.view(), 0.0, c.view_cols_mut(4, 8));
        let left = matmul(&h, &w1);
        let right = matmul(&h, &w2);
        for i in 0..10 {
            for j in 0..4 {
                assert!((c.get(i, j) - left.get(i, j)).abs() < 1e-5);
                assert!((c.get(i, j + 4) - right.get(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn strided_view_operands_read_column_ranges() {
        // Multiply from a column slice of a wider matrix without copying.
        let wide = seq(9, 10, 1.0);
        let b = seq(4, 5, 1.1);
        let mut c = DMatrix::zeros(9, 5);
        gemm_nn_v(1.0, wide.view_cols(3, 7), b.view(), 0.0, c.view_mut());
        // Reference: materialise the slice.
        let sliced = DMatrix::from_fn(9, 4, |i, j| wide.get(i, j + 3));
        let r = matmul_reference(&sliced, &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    /// A [`PackSource`] that computes `A[i,j] = f(i, j)` on the fly —
    /// exercises the producer-packed path against materialised GEMM.
    struct FnSource {
        m: usize,
        k: usize,
    }

    impl FnSource {
        fn at(&self, i: usize, j: usize) -> f32 {
            ((i * 13 + j * 5) % 23) as f32 * 0.1 - 1.0
        }

        fn materialise(&self) -> DMatrix {
            DMatrix::from_fn(self.m, self.k, |i, j| self.at(i, j))
        }
    }

    impl PackSource for FnSource {
        fn shape(&self) -> (usize, usize) {
            (self.m, self.k)
        }

        fn pack_a(&self, alpha: f32, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]) {
            for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
                let r0 = p * MR;
                let rows_here = MR.min(mc - r0);
                for kk in 0..kc {
                    for r in 0..MR {
                        panel[kk * MR + r] = if r < rows_here {
                            alpha * self.at(ic + r0 + r, pc + kk)
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn source_nn_matches_materialised() {
        // Shapes straddling MR/MC/KC boundaries so producer packs hit
        // edge panels too.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (9, 7, 33), (65, 257, 40)] {
            let src = FnSource { m, k };
            let b = seq(k, n, 1.1);
            let mut c = DMatrix::filled(m, n, f32::NAN);
            gemm_source_nn_v(1.0, &src, b.view(), 0.0, c.view_mut());
            let r = matmul(&src.materialise(), &b);
            assert!(c.max_abs_diff(&r) < 1e-4, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn source_nt_matches_materialised_and_accumulates() {
        let (m, k, n) = (20usize, 9usize, 12usize);
        let src = FnSource { m, k };
        let b = seq(n, k, 0.9); // stored n×k for nt
        let mut c = DMatrix::filled(m, n, 0.5);
        gemm_source_nt_v(2.0, &src, b.view(), 1.0, c.view_mut());
        let mut r = DMatrix::filled(m, n, 0.5);
        gemm_nt(2.0, &src.materialise(), &b, 1.0, &mut r);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn strided_tn_nt_match_dense() {
        let a = seq(12, 9, 1.0);
        let d = seq(12, 7, 0.9);
        // dW = Aᵀ·D via views == dense matmul_tn.
        let mut c = DMatrix::zeros(9, 7);
        gemm_tn_v(1.0, a.view(), d.view(), 0.0, c.view_mut());
        assert!(c.max_abs_diff(&matmul_tn(&a, &d)) < 1e-4);
        // dH = D·Wᵀ with W (stored n×k) read from a column range.
        let w_wide = seq(9, 12, 1.0); // take cols 2..7 as a 9×5 "W"
        let w = DMatrix::from_fn(9, 5, |i, j| w_wide.get(i, j + 2));
        let dd = seq(12, 5, 1.0);
        let mut c2 = DMatrix::zeros(12, 9);
        gemm_nt_v(1.0, dd.view(), w_wide.view_cols(2, 7), 0.0, c2.view_mut());
        assert!(c2.max_abs_diff(&matmul_nt(&dd, &w)) < 1e-4);
    }

    /// Quantise a dense matrix to its bf16 storage values.
    fn quantize_mat(m: &DMatrix) -> Vec<Bf16> {
        m.data().iter().map(|&x| Bf16::from_f32(x)).collect()
    }

    /// Exact widening of a quantised matrix back to f32 — the reference
    /// operand for bf16-path comparisons (storage rounding applied, so
    /// only accumulation-order differences remain).
    fn widen_mat(vals: &[Bf16], rows: usize, cols: usize) -> DMatrix {
        DMatrix::from_fn(rows, cols, |i, j| vals[i * cols + j].to_f32())
    }

    #[test]
    fn bf16_matches_widened_reference() {
        // The bf16 path's only deviation from an f32 GEMM over the
        // *widened* operands is accumulation order — panels store the
        // exact quantised values. Shapes straddle MR/NR/KC/MC edges.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (9, 7, 33),
            (65, 257, 49),
            (70, 300, 17),
        ] {
            let a = seq(m, k, 0.8);
            let b = seq(k, n, 1.2);
            let qa = quantize_mat(&a);
            let qb = quantize_mat(&b);
            let r = matmul_reference(&widen_mat(&qa, m, k), &widen_mat(&qb, k, n));
            let mut c = DMatrix::filled(m, n, f32::NAN);
            gemm_bf16_nn_v(1.0, Bf16MatRef::new(&qa, m, k), b.view(), 0.0, c.view_mut());
            assert!(c.max_abs_diff(&r) < 5e-3, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn bf16_tiers_are_bit_identical() {
        // The widen-based bf16 microkernels run the same FMA chain per C
        // element as each other, so tier choice must not change bf16
        // results at all (mirrors `tiers_are_bit_identical`). Every
        // vector bf16 kernel widens, so bands apply only under AMX: the
        // avx512 tier then runs the tile unit, which sums each 32-deep
        // group before joining the chain — pure f32 accumulation-order
        // noise, orders of magnitude below the bf16 input rounding.
        let a = seq(70, 260, 0.9);
        let b = seq(260, 50, 1.1);
        let qa = quantize_mat(&a);
        let run = |tier| {
            with_tier(tier, || {
                let mut c = DMatrix::zeros(70, 50);
                gemm_bf16_nn_v(
                    1.0,
                    Bf16MatRef::new(&qa, 70, 260),
                    b.view(),
                    0.0,
                    c.view_mut(),
                );
                c
            })
        };
        let reference = run(Tier::Scalar);
        let scale = reference.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
        for tier in available_tiers() {
            let got = run(tier);
            if bf16_dot_native(tier) {
                assert!(
                    got.max_abs_diff(&reference) <= 1e-5 * scale.max(1.0),
                    "AMX tier {} outside accumulation band",
                    tier.name()
                );
            } else {
                assert_eq!(got, reference, "tier {}", tier.name());
            }
        }
    }

    #[test]
    fn quantize_pack_rides_along_bit_exact() {
        // QuantizePack rounds the wrapped f32 source's panel once, so at
        // α = 1 it must equal packing the pre-quantised matrix directly.
        let (m, k, n) = (65usize, 257usize, 40usize);
        let src = FnSource { m, k };
        let b = seq(k, n, 1.1);
        let mut via_adapter = DMatrix::filled(m, n, f32::NAN);
        gemm_source_nn_bf16_v(
            1.0,
            &QuantizePack(&src),
            b.view(),
            0.0,
            via_adapter.view_mut(),
        );
        let qa = quantize_mat(&src.materialise());
        let mut direct = DMatrix::filled(m, n, f32::NAN);
        gemm_bf16_nn_v(
            1.0,
            Bf16MatRef::new(&qa, m, k),
            b.view(),
            0.0,
            direct.view_mut(),
        );
        assert_eq!(via_adapter, direct);
    }

    #[test]
    fn bf16_alpha_beta_accumulation() {
        // α ≠ 1 widens, scales and re-rounds the stored A exactly once;
        // β scales C first. Build the same double-rounded operand for
        // the reference.
        let (m, k, n) = (9usize, 20usize, 12usize);
        let a = seq(m, k, 1.0);
        let b = seq(k, n, 0.9);
        let qa = quantize_mat(&a);
        let qb = quantize_mat(&b);
        let a2 = DMatrix::from_fn(m, k, |i, j| {
            Bf16::from_f32(2.0 * qa[i * k + j].to_f32()).to_f32()
        });
        let mut r = matmul_reference(&a2, &widen_mat(&qb, k, n));
        let c0 = seq(m, n, 0.3);
        for i in 0..m {
            for j in 0..n {
                r.set(i, j, r.get(i, j) + 0.5 * c0.get(i, j));
            }
        }
        let mut c = c0.clone();
        gemm_bf16_nn_v(2.0, Bf16MatRef::new(&qa, m, k), b.view(), 0.5, c.view_mut());
        assert!(c.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn bf16_result_within_tolerance_of_f32_path() {
        // End-to-end band check: bf16 storage vs the pure-f32 GEMM on
        // the *unquantised* operands stays inside the composed
        // `rel_tolerance` model for depth 1.
        let (m, k, n) = (64usize, 300usize, 48usize);
        let a = seq(m, k, 0.8);
        let b = seq(k, n, 1.2);
        let qa = quantize_mat(&a);
        let f32_c = matmul(&a, &b);
        let mut c = DMatrix::zeros(m, n);
        gemm_bf16_nn_v(1.0, Bf16MatRef::new(&qa, m, k), b.view(), 0.0, c.view_mut());
        let tol = crate::precision::rel_tolerance(crate::Precision::Bf16, 1, k);
        let scale = f32_c.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
        assert!(scale > 0.0);
        for (cv, rv) in c.data().iter().zip(f32_c.data()) {
            assert!(
                (cv - rv).abs() <= tol * scale,
                "bf16 {cv} vs f32 {rv} outside band {tol}"
            );
        }
    }
}
