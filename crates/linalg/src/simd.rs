//! Runtime-dispatched SIMD kernels behind [`crate::vector`].
//!
//! The public BLAS-1 API in [`crate::vector`] routes every call through one
//! of three implementations, chosen once per process:
//!
//! * **`scalar`** — the reference 4-wide unrolled loops (exactly the
//!   kernels this workspace shipped before explicit SIMD existed). Always
//!   available, on every architecture.
//! * **`avx2`** — explicit `f64x4` AVX2 intrinsics. One 4-lane vector
//!   accumulator replays the scalar kernel's four accumulators lane for
//!   lane, so results are **bit-identical** to `scalar`.
//! * **`avx512`** — explicit `f64x8` AVX-512F intrinsics, two interleaved
//!   8-lane accumulators per reduction (16 partial sums, so one vaddpd
//!   latency chain never bounds throughput): reductions reassociate, so
//!   low-order bits of `dot`/`norm_sq`/`axpy_project_l2` differ from the
//!   4-wide modes (element-wise kernels — `axpy`, `scale` — are
//!   bit-identical at every width).
//!
//! ## Reproducibility contract (per lane width)
//!
//! For a fixed lane width `W`, every kernel computes exactly
//! [`reference_dot`]`(W, …)` and friends: `W` running partial sums over
//! lane-strided elements, reduced pairwise
//! (`((a₀+a₁)+(a₂+a₃)) + ((a₄+a₅)+(a₆+a₇)) …`), plus a sequential tail.
//! Therefore:
//!
//! * same lane width ⇒ **bit-identical** results across runs, machines,
//!   and dispatch modes (`scalar` and `avx2` share `W = 4`);
//! * different lane widths reassociate the reduction and differ in
//!   low-order bits — exactly the caveat documented when the 4-wide unroll
//!   replaced the left-fold sums, one more time at `W = 16`.
//!
//! Models trained under `BOLTON_SIMD=off` are bit-for-bit the models of
//! the pre-SIMD workspace at the same seed.
//!
//! The reference functions and the recursive pairwise `tree_reduce` they
//! share are the *spec*; the SIMD kernels do not call them. Each kernel
//! collapses its lanes with a straight-line, always-inlined unroll
//! (`reduce4` for AVX2, `reduce16` for AVX-512) that pairs exactly the
//! operands `tree_reduce` pairs, so the fixed per-call cost stays a few
//! adds and short vectors (d = 16, 50) pay no recursion.
//!
//! ## Selection
//!
//! The `BOLTON_SIMD` environment variable (read once, at the first kernel
//! call) overrides auto-detection: `off`/`scalar` force the reference
//! kernels, `avx2`/`avx512` request a specific instruction set, anything
//! else (or unset, or `auto`) picks the best the CPU supports. A request
//! the hardware cannot honor falls back to the best supported mode at or
//! below it, so a pinned configuration never crashes on older hardware —
//! it only loses the width (and the matching bit pattern).

use std::sync::OnceLock;

/// Environment variable overriding kernel dispatch
/// (`off|scalar|avx2|avx512|auto`).
pub const SIMD_ENV: &str = "BOLTON_SIMD";

/// One dispatchable kernel implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// The reference 4-wide unrolled scalar kernels (`BOLTON_SIMD=off`).
    Scalar,
    /// AVX2 `f64x4` intrinsics — bit-identical to [`Mode::Scalar`].
    Avx2,
    /// AVX-512F `f64x8` intrinsics — 16-wide reductions (two interleaved
    /// 8-lane accumulators, so the single add-latency chain never bounds
    /// throughput; low-order bits differ from the 4-wide modes).
    Avx512,
}

impl Mode {
    /// Every mode, narrowest first.
    pub const ALL: [Mode; 3] = [Mode::Scalar, Mode::Avx2, Mode::Avx512];

    /// Number of independent partial sums a reduction in this mode keeps —
    /// the entire reproducibility contract keys on this value.
    pub fn lane_width(self) -> usize {
        match self {
            Mode::Scalar | Mode::Avx2 => 4,
            Mode::Avx512 => 16,
        }
    }

    /// The knob/JSON spelling of the mode.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Scalar => "scalar",
            Mode::Avx2 => "avx2",
            Mode::Avx512 => "avx512",
        }
    }
}

/// The widest mode this CPU supports (checked at runtime, not compile
/// time — the binary carries every implementation).
pub fn detected() -> Mode {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Mode::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Mode::Avx2;
        }
    }
    Mode::Scalar
}

/// Whether this CPU can execute `mode`'s kernels.
pub fn supported(mode: Mode) -> bool {
    mode <= detected()
}

/// The modes this CPU supports, narrowest first.
pub fn supported_modes() -> Vec<Mode> {
    Mode::ALL.into_iter().filter(|&m| supported(m)).collect()
}

/// The process-wide dispatch decision: `BOLTON_SIMD` (read exactly once)
/// clamped to what the hardware supports.
pub fn active() -> Mode {
    static ACTIVE: OnceLock<Mode> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let requested = match std::env::var(SIMD_ENV) {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" | "auto" => detected(),
                "off" | "scalar" => Mode::Scalar,
                "avx2" => Mode::Avx2,
                "avx512" => Mode::Avx512,
                other => {
                    eprintln!("{SIMD_ENV}: unknown mode '{other}', using auto-detection");
                    detected()
                }
            },
            Err(_) => detected(),
        };
        // Fall back to the widest supported mode at or below the request.
        Mode::ALL
            .into_iter()
            .rev()
            .find(|&m| m <= requested && supported(m))
            .unwrap_or(Mode::Scalar)
    })
}

/// Pairwise tree reduction `((a₀+a₁)+(a₂+a₃)) + …` — the fixed reduction
/// order every kernel's partial sums collapse through. The executable spec
/// behind the `reference_*` functions; the SIMD kernels use the unrolled
/// [`reduce4`]/[`reduce16`], which pair the same operands.
fn tree_reduce(acc: &[f64]) -> f64 {
    match acc.len() {
        0 => 0.0,
        1 => acc[0],
        n => {
            let half = n / 2;
            tree_reduce(&acc[..half]) + tree_reduce(&acc[half..])
        }
    }
}

/// [`tree_reduce`] of four lanes, straight-line: `(a₀+a₁)+(a₂+a₃)`.
#[inline(always)]
fn reduce4(a: &[f64; 4]) -> f64 {
    (a[0] + a[1]) + (a[2] + a[3])
}

/// [`tree_reduce`] of sixteen lanes, straight-line: four quads, each
/// paired as in [`reduce4`], then summed pairwise.
#[inline(always)]
fn reduce16(a: &[f64; 16]) -> f64 {
    let q0 = (a[0] + a[1]) + (a[2] + a[3]);
    let q1 = (a[4] + a[5]) + (a[6] + a[7]);
    let q2 = (a[8] + a[9]) + (a[10] + a[11]);
    let q3 = (a[12] + a[13]) + (a[14] + a[15]);
    (q0 + q1) + (q2 + q3)
}

// ---------------------------------------------------------------------------
// Lane-width-parameterized references (the reproducibility contract)
// ---------------------------------------------------------------------------

/// The reference dot product at lane width `lanes`: what every dispatch
/// mode of that width must reproduce bit for bit.
///
/// # Panics
/// Panics on length mismatch or `lanes ∉ {1, 2, 4, 8, 16}`.
pub fn reference_dot(lanes: usize, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    assert!(lanes.is_power_of_two() && lanes <= 16, "unsupported lane width {lanes}");
    let split = x.len() - x.len() % lanes;
    let mut acc = [0.0f64; 16];
    for (cx, cy) in x[..split].chunks_exact(lanes).zip(y[..split].chunks_exact(lanes)) {
        for j in 0..lanes {
            acc[j] += cx[j] * cy[j];
        }
    }
    let mut tail = 0.0;
    for (a, b) in x[split..].iter().zip(y[split..].iter()) {
        tail += a * b;
    }
    tree_reduce(&acc[..lanes]) + tail
}

/// The reference squared norm at lane width `lanes`
/// (`reference_norm_sq(w, x) == reference_dot(w, x, x)` bit for bit).
///
/// # Panics
/// Panics if `lanes ∉ {1, 2, 4, 8, 16}`.
pub fn reference_norm_sq(lanes: usize, x: &[f64]) -> f64 {
    reference_dot(lanes, x, x)
}

/// The reference fused update-and-project at lane width `lanes`: applies
/// `w ← w + alpha·x`, accumulates `‖w‖²` in the same sweep with `lanes`
/// partial sums, and rescales onto the `radius` ball if needed. Returns
/// the pre-projection norm.
///
/// # Panics
/// Panics on length mismatch, negative/NaN radius, or an unsupported lane
/// width.
pub fn reference_axpy_project_l2(
    lanes: usize,
    alpha: f64,
    x: &[f64],
    w: &mut [f64],
    radius: f64,
) -> f64 {
    assert_eq!(x.len(), w.len(), "axpy_project_l2: length mismatch");
    assert!(radius >= 0.0, "radius must be >= 0");
    assert!(lanes.is_power_of_two() && lanes <= 16, "unsupported lane width {lanes}");
    let split = w.len() - w.len() % lanes;
    let mut acc = [0.0f64; 16];
    for (cw, cx) in w[..split].chunks_exact_mut(lanes).zip(x[..split].chunks_exact(lanes)) {
        for j in 0..lanes {
            cw[j] += alpha * cx[j];
            acc[j] += cw[j] * cw[j];
        }
    }
    let mut tail = 0.0;
    for (wi, xi) in w[split..].iter_mut().zip(x[split..].iter()) {
        *wi += alpha * xi;
        tail += *wi * *wi;
    }
    let n = (tree_reduce(&acc[..lanes]) + tail).sqrt();
    if n > radius {
        scale(Mode::Scalar, radius / n, w);
    }
    n
}

// ---------------------------------------------------------------------------
// Mode-parameterized kernels (tests and benches drive these directly; the
// `vector` API calls them with `active()`)
// ---------------------------------------------------------------------------

/// Dot product under an explicit dispatch mode.
///
/// # Panics
/// Panics on length mismatch or an unsupported mode.
pub fn dot(mode: Mode, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    assert!(supported(mode), "{} kernels not supported on this CPU", mode.name());
    match mode {
        Mode::Scalar => scalar::dot(x, y),
        // SAFETY: `supported(mode)` verified the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => unsafe { avx2::dot(x, y) },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => unsafe { avx512::dot(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dot(x, y),
    }
}

/// Squared norm under an explicit dispatch mode (`norm_sq(m, x) ==
/// dot(m, x, x)` bit for bit).
///
/// # Panics
/// Panics on an unsupported mode.
pub fn norm_sq(mode: Mode, x: &[f64]) -> f64 {
    assert!(supported(mode), "{} kernels not supported on this CPU", mode.name());
    match mode {
        Mode::Scalar => scalar::norm_sq(x),
        // SAFETY: `supported(mode)` verified the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => unsafe { avx2::norm_sq(x) },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => unsafe { avx512::norm_sq(x) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::norm_sq(x),
    }
}

/// `y ← y + alpha·x` under an explicit dispatch mode. Element-wise: bit
/// identical across every mode.
///
/// # Panics
/// Panics on length mismatch or an unsupported mode.
pub fn axpy(mode: Mode, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    assert!(supported(mode), "{} kernels not supported on this CPU", mode.name());
    match mode {
        Mode::Scalar => scalar::axpy(alpha, x, y),
        // SAFETY: `supported(mode)` verified the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => unsafe { avx512::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::axpy(alpha, x, y),
    }
}

/// `x ← alpha·x` under an explicit dispatch mode. Element-wise: bit
/// identical across every mode.
///
/// # Panics
/// Panics on an unsupported mode.
pub fn scale(mode: Mode, alpha: f64, x: &mut [f64]) {
    assert!(supported(mode), "{} kernels not supported on this CPU", mode.name());
    match mode {
        Mode::Scalar => scalar::scale(alpha, x),
        // SAFETY: `supported(mode)` verified the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => unsafe { avx2::scale(alpha, x) },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => unsafe { avx512::scale(alpha, x) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::scale(alpha, x),
    }
}

/// Fused `w ← Π_R(w + alpha·x)` under an explicit dispatch mode; returns
/// the pre-projection norm. Bit-identical to the unfused
/// `axpy` + `norm_sq`-based projection *of the same mode*.
///
/// # Panics
/// Panics on length mismatch, negative/NaN radius, or an unsupported mode.
pub fn axpy_project_l2(mode: Mode, alpha: f64, x: &[f64], w: &mut [f64], radius: f64) -> f64 {
    assert_eq!(x.len(), w.len(), "axpy_project_l2: length mismatch");
    assert!(radius >= 0.0, "radius must be >= 0");
    assert!(supported(mode), "{} kernels not supported on this CPU", mode.name());
    match mode {
        Mode::Scalar => scalar::axpy_project_l2(alpha, x, w, radius),
        // SAFETY: `supported(mode)` verified the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => unsafe { avx2::axpy_project_l2(alpha, x, w, radius) },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => unsafe { avx512::axpy_project_l2(alpha, x, w, radius) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::axpy_project_l2(alpha, x, w, radius),
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels — the pre-SIMD 4-wide unrolls, verbatim
// ---------------------------------------------------------------------------

mod scalar {
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        let split = x.len() - x.len() % 4;
        let mut acc = [0.0f64; 4];
        for (cx, cy) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
            acc[0] += cx[0] * cy[0];
            acc[1] += cx[1] * cy[1];
            acc[2] += cx[2] * cy[2];
            acc[3] += cx[3] * cy[3];
        }
        let mut tail = 0.0;
        for (a, b) in x[split..].iter().zip(y[split..].iter()) {
            tail += a * b;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    pub fn norm_sq(x: &[f64]) -> f64 {
        let split = x.len() - x.len() % 4;
        let mut acc = [0.0f64; 4];
        for c in x[..split].chunks_exact(4) {
            acc[0] += c[0] * c[0];
            acc[1] += c[1] * c[1];
            acc[2] += c[2] * c[2];
            acc[3] += c[3] * c[3];
        }
        let mut tail = 0.0;
        for a in &x[split..] {
            tail += a * a;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    pub fn scale(alpha: f64, x: &mut [f64]) {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    }

    pub fn axpy_project_l2(alpha: f64, x: &[f64], w: &mut [f64], radius: f64) -> f64 {
        let split = w.len() - w.len() % 4;
        let mut acc = [0.0f64; 4];
        for (cw, cx) in w[..split].chunks_exact_mut(4).zip(x[..split].chunks_exact(4)) {
            cw[0] += alpha * cx[0];
            cw[1] += alpha * cx[1];
            cw[2] += alpha * cx[2];
            cw[3] += alpha * cx[3];
            acc[0] += cw[0] * cw[0];
            acc[1] += cw[1] * cw[1];
            acc[2] += cw[2] * cw[2];
            acc[3] += cw[3] * cw[3];
        }
        let mut tail = 0.0;
        for (wi, xi) in w[split..].iter_mut().zip(x[split..].iter()) {
            *wi += alpha * xi;
            tail += *wi * *wi;
        }
        let n = ((acc[0] + acc[1]) + (acc[2] + acc[3]) + tail).sqrt();
        if n > radius {
            scale(radius / n, w);
        }
        n
    }
}

// ---------------------------------------------------------------------------
// AVX2 f64x4 kernels — lane-for-lane the scalar 4-wide unroll
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::reduce4;
    use std::arch::x86_64::*;

    // Each kernel mirrors its scalar counterpart exactly: one mul + one
    // add per lane per block (never an FMA — the scalar code rounds the
    // product before accumulating, so a fused multiply-add would change
    // bits), and the identical `(a₀+a₁)+(a₂+a₃)+tail` reduction.

    /// # Safety
    /// Caller must have verified AVX2 support; slices must be equal length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let split = n - n % 4;
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < split {
            let vx = _mm256_loadu_pd(px.add(i));
            let vy = _mm256_loadu_pd(py.add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for j in split..n {
            tail += x[j] * y[j];
        }
        reduce4(&lanes) + tail
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn norm_sq(x: &[f64]) -> f64 {
        dot(x, x)
    }

    /// # Safety
    /// Caller must have verified AVX2 support; slices must be equal length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let split = n - n % 4;
        let va = _mm256_set1_pd(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm256_loadu_pd(py.add(i));
            let vx = _mm256_loadu_pd(px.add(i));
            _mm256_storeu_pd(py.add(i), _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
            i += 4;
        }
        for j in split..n {
            y[j] += alpha * x[j];
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(alpha: f64, x: &mut [f64]) {
        let n = x.len();
        let split = n - n % 4;
        let va = _mm256_set1_pd(alpha);
        let px = x.as_mut_ptr();
        let mut i = 0;
        while i < split {
            _mm256_storeu_pd(px.add(i), _mm256_mul_pd(va, _mm256_loadu_pd(px.add(i))));
            i += 4;
        }
        for v in &mut x[split..] {
            *v *= alpha;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support; slices must be equal
    /// length; `radius` must be a non-negative non-NaN value.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_project_l2(alpha: f64, x: &[f64], w: &mut [f64], radius: f64) -> f64 {
        let n = w.len();
        let split = n - n % 4;
        let va = _mm256_set1_pd(alpha);
        let px = x.as_ptr();
        let pw = w.as_mut_ptr();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < split {
            let vw = _mm256_loadu_pd(pw.add(i));
            let vx = _mm256_loadu_pd(px.add(i));
            let nw = _mm256_add_pd(vw, _mm256_mul_pd(va, vx));
            _mm256_storeu_pd(pw.add(i), nw);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(nw, nw));
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for j in split..n {
            let wi = &mut w[j];
            *wi += alpha * x[j];
            tail += *wi * *wi;
        }
        let norm = (reduce4(&lanes) + tail).sqrt();
        if norm > radius {
            scale(radius / norm, w);
        }
        norm
    }
}

// ---------------------------------------------------------------------------
// AVX-512F f64x8 kernels — the 16-wide reduction contract
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::reduce16;
    use std::arch::x86_64::*;

    // Same mul-then-add discipline as the AVX2 kernels (no FMA), but 16
    // partial sums held in two interleaved zmm accumulators — a single
    // 8-lane chain would serialize on vaddpd latency and lose to AVX2 on
    // cache-resident inputs. Bit-identical to `reference_*(16, …)`, not
    // to the 4-wide modes.

    /// # Safety
    /// Caller must have verified AVX-512F support; slices must be equal
    /// length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let split = n - n % 16;
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut i = 0;
        while i < split {
            let x0 = _mm512_loadu_pd(px.add(i));
            let y0 = _mm512_loadu_pd(py.add(i));
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(x0, y0));
            let x1 = _mm512_loadu_pd(px.add(i + 8));
            let y1 = _mm512_loadu_pd(py.add(i + 8));
            acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(x1, y1));
            i += 16;
        }
        let mut lanes = [0.0f64; 16];
        _mm512_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm512_storeu_pd(lanes.as_mut_ptr().add(8), acc1);
        let mut tail = 0.0;
        for j in split..n {
            tail += x[j] * y[j];
        }
        reduce16(&lanes) + tail
    }

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn norm_sq(x: &[f64]) -> f64 {
        dot(x, x)
    }

    /// # Safety
    /// Caller must have verified AVX-512F support; slices must be equal
    /// length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let split = n - n % 8;
        let va = _mm512_set1_pd(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm512_loadu_pd(py.add(i));
            let vx = _mm512_loadu_pd(px.add(i));
            _mm512_storeu_pd(py.add(i), _mm512_add_pd(vy, _mm512_mul_pd(va, vx)));
            i += 8;
        }
        for j in split..n {
            y[j] += alpha * x[j];
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale(alpha: f64, x: &mut [f64]) {
        let n = x.len();
        let split = n - n % 8;
        let va = _mm512_set1_pd(alpha);
        let px = x.as_mut_ptr();
        let mut i = 0;
        while i < split {
            _mm512_storeu_pd(px.add(i), _mm512_mul_pd(va, _mm512_loadu_pd(px.add(i))));
            i += 8;
        }
        for v in &mut x[split..] {
            *v *= alpha;
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F support; slices must be equal
    /// length; `radius` must be a non-negative non-NaN value.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_project_l2(alpha: f64, x: &[f64], w: &mut [f64], radius: f64) -> f64 {
        let n = w.len();
        let split = n - n % 16;
        let va = _mm512_set1_pd(alpha);
        let px = x.as_ptr();
        let pw = w.as_mut_ptr();
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut i = 0;
        while i < split {
            let w0 = _mm512_loadu_pd(pw.add(i));
            let x0 = _mm512_loadu_pd(px.add(i));
            let n0 = _mm512_add_pd(w0, _mm512_mul_pd(va, x0));
            _mm512_storeu_pd(pw.add(i), n0);
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(n0, n0));
            let w1 = _mm512_loadu_pd(pw.add(i + 8));
            let x1 = _mm512_loadu_pd(px.add(i + 8));
            let n1 = _mm512_add_pd(w1, _mm512_mul_pd(va, x1));
            _mm512_storeu_pd(pw.add(i + 8), n1);
            acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(n1, n1));
            i += 16;
        }
        let mut lanes = [0.0f64; 16];
        _mm512_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm512_storeu_pd(lanes.as_mut_ptr().add(8), acc1);
        let mut tail = 0.0;
        for j in split..n {
            let wi = &mut w[j];
            *wi += alpha * x[j];
            tail += *wi * *wi;
        }
        let norm = (reduce16(&lanes) + tail).sqrt();
        if norm > radius {
            scale(radius / norm, w);
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(len: usize, f: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * f).sin() * 3.0 - 1.0).collect()
    }

    #[test]
    fn detection_is_consistent() {
        assert!(supported(Mode::Scalar));
        assert!(supported(detected()));
        assert!(supported(active()));
        let modes = supported_modes();
        assert_eq!(modes[0], Mode::Scalar);
        assert!(modes.contains(&detected()));
    }

    #[test]
    fn lane_widths() {
        assert_eq!(Mode::Scalar.lane_width(), 4);
        assert_eq!(Mode::Avx2.lane_width(), 4);
        assert_eq!(Mode::Avx512.lane_width(), 16);
    }

    /// The scalar dispatch mode IS the 4-wide reference (and therefore the
    /// pre-SIMD kernels) bit for bit.
    #[test]
    fn scalar_mode_is_the_4wide_reference() {
        for len in 0..=16 {
            let x = wave(len, 0.7);
            let y = wave(len, 1.3);
            assert_eq!(dot(Mode::Scalar, &x, &y).to_bits(), reference_dot(4, &x, &y).to_bits());
            assert_eq!(norm_sq(Mode::Scalar, &x).to_bits(), reference_norm_sq(4, &x).to_bits());
        }
    }

    /// Awkward values for the reductions: signed zeros, subnormals, and
    /// large opposite-sign magnitudes whose products cancel (≈ ±1e300,
    /// still finite after eighty terms).
    const EDGE: [f64; 11] =
        [0.0, -0.0, 5e-324, -2.5e-310, 1e150, -1e150, 3.0, -1e-300, 1e16, -1e16, 0.5];

    fn edge(len: usize, stride: usize) -> Vec<f64> {
        (0..len).map(|i| EDGE[(i * stride + len) % EDGE.len()]).collect()
    }

    /// Input pairs per length: smooth waves, edge-value mixes, all signed
    /// zeros, and alternating huge products that cancel almost exactly.
    fn reduction_inputs(len: usize) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let cancel_x: Vec<f64> =
            (0..len).map(|i| if i % 2 == 0 { 1e150 } else { -1e150 }).collect();
        let cancel_y: Vec<f64> = (0..len).map(|i| 1e150 * (1.0 + i as f64 * 1e-3)).collect();
        vec![
            ("wave", wave(len, 0.7), wave(len, 1.3)),
            ("edge", edge(len, 3), edge(len, 7)),
            ("signed zeros", vec![-0.0; len], edge(len, 1).iter().map(|v| v.abs()).collect()),
            ("cancel", cancel_x, cancel_y),
        ]
    }

    /// Every supported mode matches the lane-width reference bit for bit,
    /// across lengths 0–80: several full 16-lane blocks, every tail class of
    /// both widths, and the served dimensions d = 16 and d = 50.
    #[test]
    fn kernels_match_reference_at_their_lane_width() {
        for mode in supported_modes() {
            let w = mode.lane_width();
            for len in 0..=80usize {
                for (case, x, y) in reduction_inputs(len) {
                    let at = format!("{} len {len} {case}", mode.name());
                    assert_eq!(
                        dot(mode, &x, &y).to_bits(),
                        reference_dot(w, &x, &y).to_bits(),
                        "dot {at}"
                    );
                    assert_eq!(
                        norm_sq(mode, &x).to_bits(),
                        reference_norm_sq(w, &x).to_bits(),
                        "norm_sq {at}"
                    );
                    let mut got = y.clone();
                    axpy(mode, -0.37, &x, &mut got);
                    let mut want = y.clone();
                    super::scalar::axpy(-0.37, &x, &mut want);
                    assert_eq!(bits(&got), bits(&want), "axpy {at}");
                    let mut got = x.clone();
                    scale(mode, 1.0 / 3.0, &mut got);
                    let mut want = x.clone();
                    super::scalar::scale(1.0 / 3.0, &mut want);
                    assert_eq!(bits(&got), bits(&want), "scale {at}");
                    for radius in [0.01, 1.0, 1e6] {
                        let mut got = y.clone();
                        let gn = axpy_project_l2(mode, 0.81, &x, &mut got, radius);
                        let mut want = y.clone();
                        let wn = reference_axpy_project_l2(w, 0.81, &x, &mut want, radius);
                        assert_eq!(bits(&got), bits(&want), "fused {at} r {radius}");
                        assert_eq!(gn.to_bits(), wn.to_bits(), "fused norm {at} r {radius}");
                    }
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The element-wise kernels are bit-identical across *all* modes, not
    /// just within a lane width.
    #[test]
    fn elementwise_kernels_agree_across_modes() {
        let x = wave(37, 0.9);
        let y0 = wave(37, 0.4);
        let mut axpys: Vec<Vec<f64>> = Vec::new();
        let mut scales: Vec<Vec<f64>> = Vec::new();
        for mode in supported_modes() {
            let mut y = y0.clone();
            axpy(mode, 2.5, &x, &mut y);
            axpys.push(y);
            let mut s = x.clone();
            scale(mode, -0.125, &mut s);
            scales.push(s);
        }
        for v in &axpys[1..] {
            assert_eq!(v, &axpys[0]);
        }
        for v in &scales[1..] {
            assert_eq!(v, &scales[0]);
        }
    }

    #[test]
    fn length_mismatch_panics_in_every_mode() {
        for mode in supported_modes() {
            assert!(std::panic::catch_unwind(|| dot(mode, &[1.0], &[1.0, 2.0])).is_err());
            assert!(std::panic::catch_unwind(|| {
                let mut y = [1.0];
                axpy(mode, 1.0, &[1.0, 2.0], &mut y);
            })
            .is_err());
            assert!(std::panic::catch_unwind(|| {
                let mut w = [1.0, 2.0, 3.0];
                axpy_project_l2(mode, 1.0, &[1.0], &mut w, 1.0);
            })
            .is_err());
        }
    }

    #[test]
    fn unsupported_mode_panics_not_ub() {
        if let Some(&unsupported) = Mode::ALL.iter().find(|m| !supported(**m)) {
            assert!(std::panic::catch_unwind(|| dot(unsupported, &[1.0], &[1.0])).is_err());
        }
    }

    /// The straight-line reductions the SIMD kernels use are `tree_reduce`
    /// bit for bit, on random arrays mixing subnormal-to-huge magnitudes
    /// (where association order decides the rounding) with signs.
    #[test]
    fn unrolled_reductions_are_tree_reduce() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |narrow: bool| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Exponent field: a narrow band around 1.0, or 0..=2000 (from
            // subnormal to 2⁹⁷⁷, so sixteen terms never overflow).
            let exp = if narrow { 1013 + (z >> 52) % 21 } else { (z >> 52) % 2001 };
            f64::from_bits((z & (1 << 63)) | (exp << 52) | (z & ((1 << 52) - 1)))
        };
        for round in 0..20_000 {
            let narrow = round % 2 == 0;
            let a4: [f64; 4] = std::array::from_fn(|_| next(narrow));
            assert_eq!(reduce4(&a4).to_bits(), tree_reduce(&a4).to_bits(), "{a4:?}");
            let a16: [f64; 16] = std::array::from_fn(|_| next(narrow));
            assert_eq!(reduce16(&a16).to_bits(), tree_reduce(&a16).to_bits(), "{a16:?}");
        }
    }

    #[test]
    fn tree_reduce_orders() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(tree_reduce(&a).to_bits(), ((1.0 + 2.0) + (3.0 + 4.0f64)).to_bits());
        let b = [1e16, 1.0, -1e16, 1.0, 2.0, -2.0, 0.5, 0.25];
        let want = ((b[0] + b[1]) + (b[2] + b[3])) + ((b[4] + b[5]) + (b[6] + b[7]));
        assert_eq!(tree_reduce(&b).to_bits(), want.to_bits());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn vec_of(len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-100.0f64..100.0, len..=len)
    }

    proptest! {
        /// Satellite property: each SIMD kernel is bit-identical to the
        /// scalar reference at the same lane width, across tail lengths
        /// 0–16 (`len = 4·blocks + tail` covers every remainder class of
        /// both the 4- and 16-wide kernels).
        #[test]
        fn reductions_match_reference_bitwise(
            blocks in 0usize..6,
            tail in 0usize..17,
            seed_x in vec_of(41),
            seed_y in vec_of(41),
        ) {
            let len = (blocks * 4 + tail).min(41);
            let x = &seed_x[..len];
            let y = &seed_y[..len];
            for mode in supported_modes() {
                let w = mode.lane_width();
                prop_assert_eq!(dot(mode, x, y).to_bits(), reference_dot(w, x, y).to_bits());
                prop_assert_eq!(norm_sq(mode, x).to_bits(), reference_norm_sq(w, x).to_bits());
            }
        }

        /// Satellite property: fused `axpy_project_l2` equals the unfused
        /// `axpy` + norm + conditional rescale sequence under every
        /// dispatch mode (same-mode kernels throughout).
        #[test]
        fn fused_equals_unfused_under_every_mode(
            seed_x in vec_of(23),
            seed_w in vec_of(23),
            len in 0usize..23,
            alpha in -2.0f64..2.0,
            radius in 0.0f64..50.0,
        ) {
            let x = &seed_x[..len];
            let w0 = &seed_w[..len];
            for mode in supported_modes() {
                let mut fused = w0.to_vec();
                let pre_fused = axpy_project_l2(mode, alpha, x, &mut fused, radius);
                let mut unfused = w0.to_vec();
                axpy(mode, alpha, x, &mut unfused);
                let pre = norm_sq(mode, &unfused).sqrt();
                if pre > radius {
                    scale(mode, radius / pre, &mut unfused);
                }
                prop_assert_eq!(pre_fused.to_bits(), pre.to_bits());
                prop_assert_eq!(&fused, &unfused);
            }
        }
    }
}
