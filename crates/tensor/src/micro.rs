//! Register-blocked packed GEMM micro-kernel (BLIS-style) with a runtime
//! kernel registry.
//!
//! The axpy kernel in [`crate::gemm`] streams `B` straight from memory and
//! re-reads every `C` row once per `k`-block; past roughly 128³ it is bound
//! by load bandwidth, not FLOPs. This module rebuilds the dense path around
//! the classic three-loop-around-a-micro-kernel structure:
//!
//! * `A` is packed into **row panels** of [`MR`] rows, column-interleaved so
//!   the micro-kernel reads it as one contiguous stream;
//! * `B` is packed into **column panels** of [`NR`] columns, row-interleaved
//!   the same way;
//! * the inner [`MR`]`x`[`NR`] tile lives entirely in registers.
//!
//! The register tile itself is provided by one of several interchangeable
//! micro-kernels (the [`Kernel`] registry, DESIGN.md §2.2): a portable
//! scalar form and hand-written AVX2 / NEON intrinsics kernels. Dispatch is
//! decided once per GEMM from runtime CPU detection, overridable via the
//! `EL_KERNEL` environment variable (`portable|avx2|neon`) or the
//! [`set_kernel`] test hook.
//!
//! Packing is parameterized by row/column **strides** ([`Layout`]), so a
//! transposed operand costs nothing extra: the transpose is absorbed while
//! packing instead of being materialized into a scratch matrix.
//!
//! Cache blocking follows BLIS: `KC x NR` slivers of packed `B` stream from
//! L1, the `MC x KC` packed `A` block sits in L2, and the `KC x NC` packed
//! `B` panel in L3. Pack buffers are thread-local and grow-only, so the
//! steady-state hot path performs no heap allocation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Rows per A panel / micro-tile. With `NR = 16` (two AVX2 vectors) the
/// accumulator needs `6 x 2 = 12` vector registers, leaving room for two
/// `B` loads and one `A` broadcast inside the 16-register x86-64 budget.
pub const MR: usize = 6;
/// Columns per B panel / micro-tile: two 8-lane f32 vectors.
pub const NR: usize = 16;
/// Depth of one packed block (`KC x NR` sliver = 16 KiB, half of L1d).
///
/// Under Miri the cache-blocking constants shrink (`KC = 16`, `MC = 12`,
/// `NC = 32`, `PACK_CUTOFF = 256`) so the multi-block loop structure and
/// tail-panel arithmetic execute at interpreter-affordable sizes; the
/// constants are performance tuning only, never correctness.
pub const KC: usize = if cfg!(miri) { 16 } else { 256 };
/// Rows of one packed A block (multiple of `MR`; `MC x KC` = 120 KiB ≈ L2).
pub const MC: usize = if cfg!(miri) { 12 } else { 120 };
/// Columns of one packed B panel (multiple of `NR`; `KC x NC` = 512 KiB).
pub const NC: usize = if cfg!(miri) { 32 } else { 512 };

/// `m·n·k` at or above which packing pays for itself. Below it (notably the
/// TT-slice products, whose `m·n·k` is a few thousand) the axpy kernel in
/// [`crate::gemm`] wins because the operands already fit in L1.
pub const PACK_CUTOFF: usize = if cfg!(miri) { 1 << 8 } else { 1 << 17 };

/// Strides describing how a logical `rows x cols` operand sits in its
/// slice: element `(r, c)` lives at `r * rs + c * cs`.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Distance between vertically adjacent elements.
    pub rs: usize,
    /// Distance between horizontally adjacent elements.
    pub cs: usize,
}

impl Layout {
    /// Row-major storage with `cols` columns.
    #[inline]
    pub fn row_major(cols: usize) -> Self {
        Layout { rs: cols, cs: 1 }
    }

    /// The logical transpose of a row-major operand with `stored_cols`
    /// columns (i.e. the operand is consumed as `X^T` without copying).
    #[inline]
    pub fn transposed(stored_cols: usize) -> Self {
        Layout { rs: 1, cs: stored_cols }
    }
}

thread_local! {
    static A_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static B_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    // Dedicated buffer for `with_packed_a`: its borrow spans the caller's
    // closure, so it must not be shared with the per-call `A_PACK` that
    // `gemm_packed` borrows internally.
    static A_SHARED_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Grow-only resize: reuses capacity, never shrinks, and only zero-fills
/// bytes that have never been written (the pack routines overwrite every
/// element they later read).
#[inline]
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs the `mc x kc` block of `A` starting at `(i0, p0)` into MR-row
/// panels: panel `pi` holds rows `i0 + pi*MR ..`, stored column by column
/// (`buf[pi*MR*kc + p*MR + i]`). Short tail panels are zero-padded so the
/// micro-kernel never branches on `mr`.
#[allow(clippy::too_many_arguments)]
fn pack_a(a: &[f32], la: Layout, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut [f32]) {
    let mut dst = 0;
    let mut ir = 0;
    while ir < mc {
        let mr = MR.min(mc - ir);
        let base = (i0 + ir) * la.rs + p0 * la.cs;
        for p in 0..kc {
            let col = base + p * la.cs;
            for i in 0..mr {
                buf[dst + i] = a[col + i * la.rs];
            }
            for i in mr..MR {
                buf[dst + i] = 0.0;
            }
            dst += MR;
        }
        ir += MR;
    }
}

/// Packs the `kc x nc` block of `B` starting at `(p0, j0)` into NR-column
/// panels: panel `pj` holds columns `j0 + pj*NR ..`, stored row by row
/// (`buf[pj*NR*kc + p*NR + j]`), zero-padded on the column tail.
#[allow(clippy::too_many_arguments)]
fn pack_b(b: &[f32], lb: Layout, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut [f32]) {
    let mut dst = 0;
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let base = p0 * lb.rs + (j0 + jr) * lb.cs;
        for p in 0..kc {
            let row = base + p * lb.rs;
            for j in 0..nr {
                buf[dst + j] = b[row + j * lb.cs];
            }
            for j in nr..NR {
                buf[dst + j] = 0.0;
            }
            dst += NR;
        }
        jr += NR;
    }
}

// ---------------------------------------------------------------------------
// Micro-kernel implementations
// ---------------------------------------------------------------------------

/// The register tile: `acc[i][j] += A_panel[p][i] * B_panel[p][j]` over the
/// packed `kc` depth. `FMA` selects `mul_add` versus the portable
/// mul-then-add form. Only the portable form is dispatched; the `mul_add`
/// form (a libm routine without hardware FMA, so slow but correctly
/// rounded) is the test oracle the hand-written FMA kernels must match bit
/// for bit.
#[inline(always)]
fn ukr_body<const FMA: bool>(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let ap: &[f32; MR] = a[p * MR..p * MR + MR].try_into().unwrap();
        let bp: &[f32; NR] = b[p * NR..p * NR + NR].try_into().unwrap();
        for i in 0..MR {
            let av = ap[i];
            for j in 0..NR {
                acc[i][j] = if FMA { av.mul_add(bp[j], acc[i][j]) } else { av * bp[j] + acc[i][j] };
            }
        }
    }
}

/// Portable micro-kernel (auto-vectorized with whatever the baseline
/// target features allow).
fn ukr_portable(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    ukr_body::<false>(kc, a, b, acc);
}

/// Hand-written AVX2+FMA micro-kernel: the `MR x NR` tile held in twelve
/// `__m256` accumulators, one broadcast + two FMAs per (row, depth) step,
/// depth loop unrolled by four.
///
/// Per-element arithmetic (one fused multiply-add per accumulation, depth
/// ascending) is identical to the scalar `ukr_body::<true>`, so the two
/// produce bit-equal tiles; only the instruction schedule differs.
///
/// # Safety
/// The caller must have verified AVX2 and FMA support at runtime
/// (`is_x86_feature_detected!`) before calling; in-bounds access is
/// guaranteed by the panel-length assert on entry.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ukr_avx2(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    assert!(a.len() >= kc * MR && b.len() >= kc * NR, "packed panel shorter than kc");
    // SAFETY: every load/store below stays in bounds — `a[p*MR + i]` with
    // `p < kc`, `i < MR` and the 8-wide loads at `b[p*NR]`/`b[p*NR + 8]`
    // with `NR == 16` are covered by the length assert above; `acc` rows
    // are `[f32; NR]` so the two 8-wide spills per row fit exactly. The
    // AVX2/FMA instructions themselves are available per this function's
    // caller contract.
    unsafe {
        let mut t: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for (i, row) in acc.iter().enumerate() {
            t[i][0] = _mm256_loadu_ps(row.as_ptr());
            t[i][1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        macro_rules! step {
            ($p:expr) => {{
                let p = $p;
                let b0 = _mm256_loadu_ps(bp.add(p * NR));
                let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
                for (i, tr) in t.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(p * MR + i));
                    tr[0] = _mm256_fmadd_ps(av, b0, tr[0]);
                    tr[1] = _mm256_fmadd_ps(av, b1, tr[1]);
                }
            }};
        }
        let mut p = 0;
        while p + 4 <= kc {
            step!(p);
            step!(p + 1);
            step!(p + 2);
            step!(p + 3);
            p += 4;
        }
        while p < kc {
            step!(p);
            p += 1;
        }
        for (i, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(row.as_mut_ptr(), t[i][0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), t[i][1]);
        }
    }
}

/// Hand-written NEON micro-kernel for aarch64: four 4-lane `float32x4_t`
/// vectors per tile row (24 q-registers of accumulator out of 32), one
/// broadcast + four FMAs per (row, depth) step.
///
/// Same per-element arithmetic as the other FMA-contracted kernels
/// (`vfmaq_f32` is fused), so results are bit-equal to `ukr_body::<true>`.
///
/// # Safety
/// The caller must only dispatch this on aarch64, where NEON is a baseline
/// target feature; in-bounds access is guaranteed by the panel-length
/// assert on entry.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn ukr_neon(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    use core::arch::aarch64::*;

    assert!(a.len() >= kc * MR && b.len() >= kc * NR, "packed panel shorter than kc");
    // SAFETY: the four 4-wide loads per depth step at `b[p*NR + 4h]`
    // (`NR == 16`, `h < 4`) and scalar reads `a[p*MR + i]` with `p < kc`,
    // `i < MR` are covered by the length assert above; each `acc` row takes
    // exactly four 4-lane spills. NEON is a baseline aarch64 feature per
    // this function's caller contract.
    unsafe {
        let mut t: [[float32x4_t; 4]; MR] = [[vdupq_n_f32(0.0); 4]; MR];
        for (i, row) in acc.iter().enumerate() {
            for (h, lane) in t[i].iter_mut().enumerate() {
                *lane = vld1q_f32(row.as_ptr().add(4 * h));
            }
        }
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kc {
            let b0 = vld1q_f32(bp.add(p * NR));
            let b1 = vld1q_f32(bp.add(p * NR + 4));
            let b2 = vld1q_f32(bp.add(p * NR + 8));
            let b3 = vld1q_f32(bp.add(p * NR + 12));
            for (i, tr) in t.iter_mut().enumerate() {
                let av = vdupq_n_f32(*ap.add(p * MR + i));
                tr[0] = vfmaq_f32(tr[0], av, b0);
                tr[1] = vfmaq_f32(tr[1], av, b1);
                tr[2] = vfmaq_f32(tr[2], av, b2);
                tr[3] = vfmaq_f32(tr[3], av, b3);
            }
        }
        for (i, row) in acc.iter_mut().enumerate() {
            for (h, lane) in t[i].iter().enumerate() {
                vst1q_f32(row.as_mut_ptr().add(4 * h), *lane);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel registry & dispatch
// ---------------------------------------------------------------------------

/// The selectable micro-kernel implementations (DESIGN.md §2.2).
///
/// Discriminant values double as the wire encoding of the dispatch atomics
/// (0 is reserved for "no override").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    /// Scalar mul-then-add body, baseline target features only. The one
    /// kernel every platform (and Miri) can run.
    Portable = 1,
    /// Hand-written AVX2+FMA intrinsics kernel (`ukr_avx2`).
    Avx2 = 2,
    /// Hand-written NEON intrinsics kernel, auto-selected on aarch64.
    Neon = 3,
}

impl Kernel {
    /// Every registry entry, in override-name order.
    pub const ALL: [Kernel; 3] = [Kernel::Portable, Kernel::Avx2, Kernel::Neon];

    /// The provenance / `EL_KERNEL` name of this kernel.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parses an `EL_KERNEL` value.
    pub fn from_name(s: &str) -> Option<Kernel> {
        match s {
            "portable" => Some(Kernel::Portable),
            "avx2" => Some(Kernel::Avx2),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// True when this kernel's CPU-feature contract holds on the running
    /// machine, i.e. dispatching it is sound.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }
            Kernel::Neon => cfg!(target_arch = "aarch64"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            Kernel::Avx2 => false,
        }
    }
}

/// Kernel-override state: 0 = none (consult the environment, cached in
/// [`ENV_KERNEL`]), otherwise the discriminant of the forced [`Kernel`].
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);
/// Cached environment decision: 0 = not yet resolved, otherwise a
/// [`Kernel`] discriminant.
static ENV_KERNEL: AtomicU8 = AtomicU8::new(0);

fn decode(v: u8) -> Kernel {
    match v {
        2 => Kernel::Avx2,
        3 => Kernel::Neon,
        _ => Kernel::Portable,
    }
}

/// The micro-kernel the current dispatch decision selects.
///
/// Priority order:
/// 1. under Miri the portable kernel is always used, so the interpreter
///    never executes `#[target_feature]` code its host may not model;
/// 2. the [`set_kernel`] test hook;
/// 3. the `EL_KERNEL` environment variable (consulted once) — an unknown
///    or unsupported-on-this-host value falls back to auto-detection, so a
///    shared CI matrix can set it unconditionally;
/// 4. auto-detection: the fastest hand-written kernel whose CPU-feature
///    contract holds (AVX2 on x86 with AVX2+FMA, NEON on aarch64),
///    otherwise portable.
pub fn selected_kernel() -> Kernel {
    if cfg!(miri) {
        return Kernel::Portable;
    }
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_kernel(),
        v => decode(v),
    }
}

fn env_kernel() -> Kernel {
    match ENV_KERNEL.load(Ordering::Relaxed) {
        0 => {
            let k = resolve_env_kernel();
            ENV_KERNEL.store(k as u8, Ordering::Relaxed);
            k
        }
        v => decode(v),
    }
}

fn resolve_env_kernel() -> Kernel {
    if let Ok(v) = std::env::var("EL_KERNEL") {
        if let Some(k) = Kernel::from_name(v.trim()) {
            if k.supported() {
                return k;
            }
        }
    }
    auto_kernel()
}

fn auto_kernel() -> Kernel {
    if Kernel::Avx2.supported() {
        return Kernel::Avx2;
    }
    if Kernel::Neon.supported() {
        return Kernel::Neon;
    }
    Kernel::Portable
}

/// Test/bench hook pinning kernel dispatch to `kernel` (process-global), or
/// — with `None` — clearing the override *and* the cached `EL_KERNEL`
/// decision so the environment is re-read on next use.
///
/// Panics when the requested kernel's CPU-feature contract does not hold on
/// this machine: the hook exists for tests and benches, which must skip
/// unsupported variants rather than silently measure a fallback. All
/// kernels compute identical results (within FMA-contraction rounding), so
/// flipping the hook concurrently with running GEMMs is benign.
pub fn set_kernel(kernel: Option<Kernel>) {
    match kernel {
        Some(k) => {
            assert!(k.supported(), "kernel `{}` is not supported on this host", k.name());
            KERNEL_OVERRIDE.store(k as u8, Ordering::Relaxed);
        }
        None => {
            KERNEL_OVERRIDE.store(0, Ordering::Relaxed);
            ENV_KERNEL.store(0, Ordering::Relaxed);
        }
    }
}

/// Name of the micro-kernel the current dispatch decision selects — for
/// logs, benchmark provenance, and tests asserting an override took
/// effect.
pub fn active_kernel() -> &'static str {
    selected_kernel().name()
}

/// Comma-separated list of the SIMD CPU features detected at runtime on
/// this machine — recorded as provenance next to benchmark numbers.
pub fn cpu_features() -> String {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        let mut out = Vec::new();
        for (name, on) in [
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("fma", std::is_x86_feature_detected!("fma")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                out.push(name);
            }
        }
        out.join(",")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

#[inline]
fn run_ukr(kern: Kernel, kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    match kern {
        Kernel::Portable => ukr_portable(kc, a, b, acc),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: dispatch only yields Avx2 after `Kernel::supported`
        // verified AVX2+FMA at runtime (set_kernel asserts it; env/auto
        // selection checks it), meeting ukr_avx2's caller contract.
        Kernel::Avx2 => unsafe { ukr_avx2(kc, a, b, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon is only selectable on aarch64, where NEON is a
        // baseline feature of the target.
        Kernel::Neon => unsafe { ukr_neon(kc, a, b, acc) },
        // A kernel compiled out on this target (cross-arch names that slip
        // past the supported() gates) degrades to the portable tile.
        _ => ukr_portable(kc, a, b, acc),
    }
}

/// Spills the register tile into `C` (row-major, leading dimension `ldc`)
/// at `(row0, col0)`, applying `alpha`/`beta` BLAS-style: `beta == 0`
/// overwrites unconditionally (NaN-safe), `beta == 1` accumulates.
#[allow(clippy::too_many_arguments)]
fn write_tile(
    acc: &[[f32; NR]; MR],
    mr: usize,
    nr: usize,
    alpha: f32,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
) {
    for (i, arow) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + i) * ldc + col0..][..nr];
        if beta == 0.0 {
            for (cv, &av) in crow.iter_mut().zip(arow) {
                *cv = alpha * av;
            }
        } else if beta == 1.0 {
            for (cv, &av) in crow.iter_mut().zip(arow) {
                *cv += alpha * av;
            }
        } else {
            for (cv, &av) in crow.iter_mut().zip(arow) {
                *cv = alpha * av + beta * *cv;
            }
        }
    }
}

/// `C *= beta` with BLAS semantics (`beta == 0` overwrites NaN).
fn scale_c(beta: f32, c: &mut [f32]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// Packed GEMM: `C = alpha * A * B + beta * C` where `A` is a logical
/// `m x k` operand described by `la`, `B` a logical `k x n` operand
/// described by `lb`, and `C` is row-major `m x n`.
///
/// Transposed operands are handled by their [`Layout`] — packing reads
/// through the strides, so no transpose is ever materialized. Degenerate
/// shapes (`m`, `n` or `k` of 0) follow the BLAS contract.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(c.len(), m * n, "C must be m x n");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        scale_c(beta, c);
        return;
    }
    let kern = selected_kernel();
    A_PACK.with(|ac| {
        B_PACK.with(|bc| {
            let a_buf = &mut *ac.borrow_mut();
            let b_buf = &mut *bc.borrow_mut();
            let mut jc = 0;
            while jc < n {
                let nc = NC.min(n - jc);
                let nc_panels = nc.div_ceil(NR);
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    // beta applies once, on the first depth block; later
                    // blocks accumulate.
                    let beta_eff = if pc == 0 { beta } else { 1.0 };
                    let b_need = nc_panels * NR * kc;
                    ensure_len(b_buf, b_need);
                    pack_b(b, lb, pc, kc, jc, nc, &mut b_buf[..b_need]);
                    let mut ic = 0;
                    while ic < m {
                        let mc = MC.min(m - ic);
                        let mc_panels = mc.div_ceil(MR);
                        let a_need = mc_panels * MR * kc;
                        ensure_len(a_buf, a_need);
                        pack_a(a, la, ic, mc, pc, kc, &mut a_buf[..a_need]);
                        macro_kernel(
                            mc,
                            nc,
                            kc,
                            alpha,
                            beta_eff,
                            &a_buf[..a_need],
                            &b_buf[..b_need],
                            c,
                            n,
                            ic,
                            jc,
                            kern,
                        );
                        ic += mc;
                    }
                    pc += kc;
                }
                jc += nc;
            }
        });
    });
}

/// Drives the micro-kernel over one packed `mc x kc` A block and one packed
/// `kc x nc` B panel, writing the `mc x nc` result block of `C` at
/// `(row0, col0)`.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f32,
    beta: f32,
    a_pack: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    kern: Kernel,
) {
    let mc_panels = mc.div_ceil(MR);
    let nc_panels = nc.div_ceil(NR);
    for pj in 0..nc_panels {
        let jr = pj * NR;
        let nr = NR.min(nc - jr);
        let b_panel = &b_pack[pj * NR * kc..][..NR * kc];
        for pi in 0..mc_panels {
            let ir = pi * MR;
            let mr = MR.min(mc - ir);
            let a_panel = &a_pack[pi * MR * kc..][..MR * kc];
            let mut acc = [[0.0f32; NR]; MR];
            run_ukr(kern, kc, a_panel, b_panel, &mut acc);
            write_tile(&acc, mr, nr, alpha, beta, c, ldc, row0 + ir, col0 + jr);
        }
    }
}

/// Packs an entire `m x k` A operand (requires `k <= KC`) into the
/// thread-local A buffer and hands the packed panels to `f`.
///
/// This is the batched-GEMM reuse hook: when many tasks share one A block
/// (the Eff-TT chain, where every child of a slot multiplies the same
/// partial product), the block is packed once per group instead of once per
/// task.
///
/// The closure may freely call [`gemm_prepacked_a`], [`gemm_packed`] or
/// [`gemm_nn`](crate::gemm::gemm_nn) — the shared pack lives in its own
/// thread-local buffer, separate from the per-call scratch those kernels
/// borrow. The one thing it must **not** do is call `with_packed_a` again
/// on the same thread: that would overwrite (and double-borrow) the pack
/// the outer closure is still reading.
pub fn with_packed_a<R>(
    m: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    assert!(k <= KC, "shared-A packing requires k <= KC");
    let need = m.div_ceil(MR) * MR * k;
    A_SHARED_PACK.with(|ac| {
        let buf = &mut *ac.borrow_mut();
        ensure_len(buf, need);
        pack_a(a, la, 0, m, 0, k, &mut buf[..need]);
        f(&buf[..need])
    })
}

/// `C = alpha * A * B + beta * C` with `A` already packed by
/// [`with_packed_a`] (so `k <= KC` and the whole depth is one block).
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_a(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a_pack: &[f32],
    b: &[f32],
    lb: Layout,
    beta: f32,
    c: &mut [f32],
) {
    assert!(k <= KC, "prepacked-A products require k <= KC");
    assert_eq!(c.len(), m * n, "C must be m x n");
    assert_eq!(a_pack.len(), m.div_ceil(MR) * MR * k, "A pack length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        scale_c(beta, c);
        return;
    }
    let kern = selected_kernel();
    B_PACK.with(|bc| {
        let b_buf = &mut *bc.borrow_mut();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let nc_panels = nc.div_ceil(NR);
            let b_need = nc_panels * NR * k;
            ensure_len(b_buf, b_need);
            pack_b(b, lb, 0, k, jc, nc, &mut b_buf[..b_need]);
            macro_kernel(m, nc, k, alpha, beta, a_pack, &b_buf[..b_need], c, n, 0, jc, kern);
            jc += nc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_ref, Trans};
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "multi-second shapes; miri covers the same paths at small sizes")]
    fn packed_matches_reference_across_tile_remainders() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        // shapes probing every edge: sub-tile, exact tiles, MR/NR/KC
        // remainders, and multi-block m/n/k
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 1),
            (MC, NC, KC),
            (MC + 5, NC + 9, KC + 17),
            (3, 300, 2),
            (130, 70, 300),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c_ref = rand_vec(m * n, &mut rng);
            let mut c_pck = c_ref.clone();
            gemm_ref(m, n, k, 0.9, &a, Trans::No, &b, Trans::No, 0.4, &mut c_ref);
            gemm_packed(
                m,
                n,
                k,
                0.9,
                &a,
                Layout::row_major(k),
                &b,
                Layout::row_major(n),
                0.4,
                &mut c_pck,
            );
            assert_close(&c_ref, &c_pck, 1e-4);
        }
    }

    #[test]
    fn strided_layouts_absorb_transposes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (m, n, k) = if cfg!(miri) { (9, 8, 7) } else { (37, 29, 23) };
        for &(ta, tb) in
            &[(Trans::Yes, Trans::No), (Trans::No, Trans::Yes), (Trans::Yes, Trans::Yes)]
        {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let la = match ta {
                Trans::No => Layout::row_major(k),
                Trans::Yes => Layout::transposed(m),
            };
            let lb = match tb {
                Trans::No => Layout::row_major(n),
                Trans::Yes => Layout::transposed(k),
            };
            let mut c_ref = vec![0.0; m * n];
            let mut c_pck = vec![0.0; m * n];
            gemm_ref(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c_ref);
            gemm_packed(m, n, k, 1.0, &a, la, &b, lb, 0.0, &mut c_pck);
            assert_close(&c_ref, &c_pck, 1e-4);
        }
    }

    #[test]
    fn degenerate_shapes_follow_blas_contract() {
        // m == 0 / n == 0: no-op; k == 0: C = beta * C with NaN-safe beta=0.
        let mut c: Vec<f32> = vec![];
        gemm_packed(
            0,
            5,
            3,
            1.0,
            &[],
            Layout::row_major(3),
            &[0.0; 15],
            Layout::row_major(5),
            0.0,
            &mut c,
        );
        let mut c = vec![f32::NAN; 6];
        gemm_packed(
            2,
            3,
            0,
            1.0,
            &[],
            Layout::row_major(0),
            &[],
            Layout::row_major(3),
            0.0,
            &mut c,
        );
        assert!(c.iter().all(|&x| x == 0.0));
        let mut c = vec![2.0; 6];
        gemm_packed(
            2,
            3,
            0,
            1.0,
            &[],
            Layout::row_major(0),
            &[],
            Layout::row_major(3),
            0.5,
            &mut c,
        );
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn beta_zero_overwrites_nan_poison() {
        let (m, n, k) = (MR + 2, NR + 3, 9);
        let a = vec![1.0; m * k];
        let b = vec![1.0; k * n];
        let mut c = vec![f32::NAN; m * n];
        gemm_packed(m, n, k, 1.0, &a, Layout::row_major(k), &b, Layout::row_major(n), 0.0, &mut c);
        assert!(c.iter().all(|&x| (x - k as f32).abs() < 1e-5));
    }

    #[test]
    fn prepacked_a_matches_full_packed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        // `k` must stay within the (miri-shrunk) KC; `n` spans several NC
        // panels either way.
        let (m, n, k) = if cfg!(miri) { (5, 70, 12) } else { (11, 600, 40) };
        let a = rand_vec(m * k, &mut rng);
        let b1 = rand_vec(k * n, &mut rng);
        let b2 = rand_vec(k * n, &mut rng);
        let mut c_full = vec![0.0; m * n];
        let mut c_pre1 = vec![0.0; m * n];
        let mut c_pre2 = vec![0.0; m * n];
        with_packed_a(m, k, &a, Layout::row_major(k), |apack| {
            gemm_prepacked_a(m, n, k, 1.0, apack, &b1, Layout::row_major(n), 0.0, &mut c_pre1);
            gemm_prepacked_a(m, n, k, 1.0, apack, &b2, Layout::row_major(n), 0.0, &mut c_pre2);
        });
        gemm_packed(
            m,
            n,
            k,
            1.0,
            &a,
            Layout::row_major(k),
            &b1,
            Layout::row_major(n),
            0.0,
            &mut c_full,
        );
        assert_close(&c_full, &c_pre1, 1e-5);
        gemm_packed(
            m,
            n,
            k,
            1.0,
            &a,
            Layout::row_major(k),
            &b2,
            Layout::row_major(n),
            0.0,
            &mut c_full,
        );
        assert_close(&c_full, &c_pre2, 1e-5);
    }

    #[test]
    fn packed_gemm_inside_shared_a_closure_does_not_double_borrow() {
        // Regression: with_packed_a once shared A_PACK with gemm_packed's
        // internal scratch, so a packed product inside the closure hit a
        // RefCell double-borrow. The inner shape is large enough that
        // gemm_packed packs A (not just the axpy path).
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let (m, n, k) = (8, 16, 12);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let (im, inn, ik) = if cfg!(miri) { (16, 16, 16) } else { (64, 64, 64) };
        let ia = rand_vec(im * ik, &mut rng);
        let ib = rand_vec(ik * inn, &mut rng);
        let mut c_outer = vec![0.0; m * n];
        let mut c_inner = vec![0.0; im * inn];
        with_packed_a(m, k, &a, Layout::row_major(k), |apack| {
            gemm_packed(
                im,
                inn,
                ik,
                1.0,
                &ia,
                Layout::row_major(ik),
                &ib,
                Layout::row_major(inn),
                0.0,
                &mut c_inner,
            );
            gemm_prepacked_a(m, n, k, 1.0, apack, &b, Layout::row_major(n), 0.0, &mut c_outer);
        });
        let mut c_ref = vec![0.0; m * n];
        gemm_ref(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_ref);
        assert_close(&c_ref, &c_outer, 1e-5);
        let mut ci_ref = vec![0.0; im * inn];
        gemm_ref(im, inn, ik, 1.0, &ia, Trans::No, &ib, Trans::No, 0.0, &mut ci_ref);
        assert_close(&ci_ref, &c_inner, 1e-4);
    }

    #[test]
    fn block_constants_are_tile_aligned() {
        assert_eq!(MC % MR, 0, "MC must hold whole A panels");
        assert_eq!(NC % NR, 0, "NC must hold whole B panels");
    }

    /// Miri-sized sweep of the packing + tile arithmetic: shapes straddle
    /// every boundary of the (miri-shrunk) MR/NR/KC/MC/NC grid, so the
    /// multi-block loops, tail panels and zero-padding all execute under
    /// the interpreter in a few thousand operations.
    #[test]
    fn small_shapes_cover_all_pack_boundaries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR - 1, NR - 1, 2),
            (MR, NR, 3),
            (MR + 1, NR + 1, KC.min(8) + 1),
            (MC + 1, NC + 1, KC + 1),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c_ref = rand_vec(m * n, &mut rng);
            let mut c_pck = c_ref.clone();
            gemm_ref(m, n, k, 1.1, &a, Trans::No, &b, Trans::No, 0.3, &mut c_ref);
            gemm_packed(
                m,
                n,
                k,
                1.1,
                &a,
                Layout::row_major(k),
                &b,
                Layout::row_major(n),
                0.3,
                &mut c_pck,
            );
            assert_close(&c_ref, &c_pck, 1e-4);
        }
    }

    /// Every kernel name round-trips through the `EL_KERNEL` parser.
    #[test]
    fn kernel_names_round_trip() {
        for kern in Kernel::ALL {
            assert_eq!(Kernel::from_name(kern.name()), Some(kern));
        }
        assert_eq!(Kernel::from_name("sse9000"), None);
    }

    /// Register-tile agreement at the micro-kernel level, across depths
    /// that exercise the 4x unroll and its remainders: every hand-written
    /// FMA kernel (avx2 / neon) is **bit-exact** against the scalar
    /// `ukr_body::<true>` oracle (`f32::mul_add` is correctly rounded on
    /// every host, and the per-element operation order is identical), and
    /// the portable mul-then-add kernel stays within one rounding step per
    /// accumulation of it.
    #[test]
    #[cfg_attr(miri, ignore = "SIMD kernels are never dispatched under miri")]
    fn micro_tile_variants_agree_within_per_step_ulp() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        for &kc in &[1usize, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100, KC] {
            let a = rand_vec(kc * MR, &mut rng);
            let b = rand_vec(kc * NR, &mut rng);
            let mut init = [[0.0f32; NR]; MR];
            for row in init.iter_mut() {
                for v in row.iter_mut() {
                    *v = rng.gen_range(-1.0..1.0);
                }
            }

            let mut fused = init;
            ukr_body::<true>(kc, &a, &b, &mut fused);
            let mut portable = init;
            ukr_portable(kc, &a, &b, &mut portable);

            // Per-element bound: the portable kernel rounds each product
            // before adding where the fused oracle does not — at most one
            // extra rounding per accumulation step, i.e. eps * sum|a*b|.
            for i in 0..MR {
                for j in 0..NR {
                    let bound: f32 = (0..kc).map(|p| (a[p * MR + i] * b[p * NR + j]).abs()).sum();
                    let diff = (fused[i][j] - portable[i][j]).abs();
                    let tol = f32::EPSILON * (kc as f32 + 1.0) * (bound + 1.0);
                    assert!(
                        diff <= tol,
                        "portable: tile ({i},{j}) kc={kc}: |{} - {}| = {diff} > {tol}",
                        portable[i][j],
                        fused[i][j],
                    );
                }
            }

            for kern in [Kernel::Avx2, Kernel::Neon] {
                if !kern.supported() {
                    continue;
                }
                let mut acc = init;
                run_ukr(kern, kc, &a, &b, &mut acc);
                for (i, (ra, rb)) in acc.iter().zip(&fused).enumerate() {
                    for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
                        assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "{} must be bit-exact with the fused oracle at ({i},{j}), kc={kc}",
                            kern.name()
                        );
                    }
                }
            }
        }
    }
}
