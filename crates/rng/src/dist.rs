//! Scalar distribution samplers built on the [`Rng`] trait.
//!
//! Two normal samplers serve two different kinds of randomness:
//! * [`ziggurat_normal`] — the **noise** sampler. Gaussian-mechanism noise
//!   (Theorem 3: bolt-on at δ > 0 and the per-step noise of SCS13 and
//!   BST14) is drawn here: an exact ziggurat that costs one `u64` and a
//!   table lookup for 98.5% of its draws.
//! * [`standard_normal`] / [`Normal`] — the **data** sampler: cosine-branch
//!   Box–Muller, kept bit for bit so synthetic datasets (`SYNTH`, the data
//!   generators) and Gaussian random projections stay reproducible from
//!   their seeds across releases. The ε-DP Laplace-ball noise keeps it
//!   too: its sphere direction normalizes `standard_normal` draws, and
//!   [`Gamma`] uses it as the proposal of its squeeze method.
//!
//! Also here:
//! * [`Exponential`] — building block for Erlang sampling.
//! * [`Gamma`] — the magnitude of the ε-DP noise vector is distributed
//!   `Γ(d, Δ₂/ε)` (Theorem 1 / Appendix E).

use crate::rng::Rng;
use std::sync::OnceLock;

/// Draws one standard normal variate via the Box–Muller transform.
///
/// Uses two uniforms and returns the cosine branch; this trades a small
/// constant factor for statelessness (no cached spare), which keeps every
/// call site reproducible from the raw `u64` stream alone. This is the
/// data sampler: its stream is pinned, so changing it would move every
/// synthetic table. Noise is drawn with [`ziggurat_normal`].
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bits of the layer index: the ziggurat has `2^LAYER_BITS` layers.
const LAYER_BITS: u32 = 8;
/// Number of ziggurat layers.
const LAYERS: usize = 1 << LAYER_BITS;
/// The low bits of a draw that pick the layer.
const LAYER_MASK: u64 = LAYERS as u64 - 1;
/// The bit after the layer index that picks the sign.
const SIGN_BIT: u64 = 1 << LAYER_BITS;
/// The uniform takes the top 53 bits of the draw, disjoint from the layer
/// index and the sign (Doornik 2005: reusing the layer bits in the uniform
/// correlates the two and biases the output).
const UNIFORM_SHIFT: u32 = 11;
/// Start of the tail: the right edge of the base layer for 256 layers.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The common area of every layer under `f(x) = exp(−x²/2)`, the base
/// layer's tail beyond [`ZIG_R`] included. `ZIG_R` and `ZIG_V` solve the
/// table recurrence to f64 precision (the top layer closes at `x = 0`).
const ZIG_V: f64 = 0.004_928_673_233_974_655;

/// The ziggurat's layer edges: layer `i` covers `[0, x[i]] × [f[i], f[i+1]]`
/// (layer 0 is the base strip, whose width `x[0] = V/f(R)` folds the tail
/// in), with `x[1] = R` and `x[LAYERS] = 0`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// The unnormalized normal density `exp(−x²/2)`.
#[inline]
fn gauss(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The tables, built once per process.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / gauss(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..LAYERS - 1 {
            // Each layer above the base has area V: x[i]·(f(x[i+1]) − f(x[i])) = V.
            x[i + 1] = (-2.0 * (gauss(x[i]) + ZIG_V / x[i]).ln()).sqrt();
        }
        x[LAYERS] = 0.0;
        Ziggurat { x, f: x.map(gauss) }
    })
}

/// Splits one `u64` into the layer index, the sign (as the f64 sign bit)
/// and a uniform in `[0, 1)`, each from its own bits.
#[inline(always)]
fn split_bits(bits: u64) -> (usize, u64, f64) {
    let layer = (bits & LAYER_MASK) as usize;
    let sign = (bits & SIGN_BIT) << (63 - LAYER_BITS);
    let u = (bits >> UNIFORM_SHIFT) as f64 * (1.0 / (1u64 << 53) as f64);
    (layer, sign, u)
}

/// Draws one standard normal variate with an exact ziggurat (Marsaglia &
/// Tsang 2000, with Doornik's 2005 fix): 256 layers, the layer index and
/// the uniform taken from disjoint bits of one `u64`.
///
/// 98.5% of draws are accepted from the rectangle under the curve after
/// one `u64`. The rest take an exact wedge test against `exp(−x²/2)` (with
/// a full restart on rejection) or, beyond `|x| > R`, Marsaglia's exact
/// tail sampler, so the output is `N(0, 1)` with no approximation beyond
/// the 53-bit uniforms. This is the noise sampler: every Gaussian
/// coordinate a privacy mechanism adds is drawn here; data is drawn with
/// [`standard_normal`].
#[inline]
pub fn ziggurat_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = ziggurat();
    loop {
        let (i, sign, u) = split_bits(rng.next_u64());
        let x = u * zig.x[i];
        let accepted = if x < zig.x[i + 1] {
            x
        } else if i == 0 {
            normal_tail(rng)
        } else if zig.f[i] + rng.next_f64() * (zig.f[i + 1] - zig.f[i]) < gauss(x) {
            x
        } else {
            continue;
        };
        return f64::from_bits(accepted.to_bits() | sign);
    }
}

/// Draws from the normal tail beyond [`ZIG_R`] (Marsaglia 1964): an
/// exponential proposal `R + E/R`, accepted with probability
/// `exp(−(E/R)²/2)`.
#[cold]
fn normal_tail<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let x = -rng.next_f64_open().ln() / ZIG_R;
        let y = -rng.next_f64_open().ln();
        if y + y > x * x {
            return ZIG_R + x;
        }
    }
}

/// A normal distribution with the given mean and standard deviation.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a `N(mean, sd²)` distribution.
    ///
    /// # Panics
    /// Panics if `sd` is negative or not finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd.is_finite() && sd >= 0.0, "standard deviation must be finite and >= 0");
        Self { mean, sd }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }
}

/// An exponential distribution with the given rate λ (mean `1/λ`).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an `Exp(rate)` distribution.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be finite and > 0");
        Self { rate }
    }

    /// Draws one sample by inversion: `-ln(U)/λ`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

/// A gamma distribution `Γ(shape, scale)` with density
/// `x^{shape-1} e^{-x/scale} / (Γ(shape) scale^shape)`.
///
/// Sampling uses Marsaglia & Tsang's squeeze method (2000) for `shape ≥ 1`
/// and the Johnk-style boost `Γ(a) = Γ(a+1)·U^{1/a}` for `shape < 1`.
#[derive(Clone, Copy, Debug)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a `Γ(shape, scale)` distribution.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "shape must be finite and > 0");
        assert!(scale.is_finite() && scale > 0.0, "scale must be finite and > 0");
        Self { shape, scale }
    }

    /// The distribution mean, `shape · scale`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// The distribution variance, `shape · scale²`.
    pub fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: if X ~ Γ(shape+1, scale) and U uniform, X·U^{1/shape} ~ Γ(shape, scale).
            let boosted = Gamma::new(self.shape + 1.0, self.scale).sample(rng);
            return boosted * rng.next_f64_open().powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.next_f64_open();
            let x2 = x * x;
            // Squeeze acceptance (cheap) then exact log acceptance.
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }
}

/// Draws an Erlang(`k`, `scale`) sample — i.e. `Γ(k, scale)` for integer `k` —
/// as a sum of `k` exponentials. Slower than [`Gamma`] for large `k` but
/// exact and independent of the Marsaglia–Tsang code path, so tests
/// cross-validate the two.
pub fn erlang<R: Rng + ?Sized>(rng: &mut R, k: u32, scale: f64) -> f64 {
    assert!(k > 0, "Erlang shape must be >= 1");
    assert!(scale.is_finite() && scale > 0.0, "scale must be finite and > 0");
    let mut acc = 0.0;
    for _ in 0..k {
        acc -= rng.next_f64_open().ln();
    }
    acc * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(21);
        let samples: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_shift_scale() {
        let mut rng = seeded(22);
        let dist = Normal::new(3.0, 2.0);
        let samples: Vec<f64> = (0..200_000).map(|_| dist.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_moments() {
        let mut rng = seeded(23);
        let dist = Exponential::new(0.5);
        let samples: Vec<f64> = (0..200_000).map(|_| dist.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 2.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn gamma_moments_large_shape() {
        let mut rng = seeded(24);
        let dist = Gamma::new(50.0, 0.25);
        let samples: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - dist.mean()).abs() < 0.02 * dist.mean(), "mean {mean}");
        assert!((var - dist.variance()).abs() < 0.05 * dist.variance(), "var {var}");
    }

    #[test]
    fn gamma_moments_small_shape() {
        let mut rng = seeded(25);
        let dist = Gamma::new(0.5, 2.0);
        let samples: Vec<f64> = (0..200_000).map(|_| dist.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
        assert!((var - 2.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gamma_agrees_with_erlang() {
        let mut rng = seeded(26);
        let k = 7u32;
        let scale = 1.5;
        let g = Gamma::new(k as f64, scale);
        let a: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..100_000).map(|_| erlang(&mut rng, k, scale)).collect();
        let (ma, va) = mean_var(&a);
        let (mb, vb) = mean_var(&b);
        assert!((ma - mb).abs() < 0.05 * ma.max(mb), "means {ma} vs {mb}");
        assert!((va - vb).abs() < 0.1 * va.max(vb), "vars {va} vs {vb}");
    }

    #[test]
    fn gamma_samples_positive() {
        let mut rng = seeded(27);
        for shape in [0.3, 1.0, 2.0, 17.0] {
            let g = Gamma::new(shape, 0.7);
            for _ in 0..1000 {
                assert!(g.sample(&mut rng) > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape must be finite")]
    fn gamma_rejects_zero_shape() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn exponential_rejects_negative_rate() {
        Exponential::new(-1.0);
    }

    /// `∫_a^b φ(x) dx` for the standard normal density by composite Simpson
    /// (step ≤ 1e-3; the truncation error is far below the test tolerances).
    /// Infinite ends are cut at ±40, where φ underflows.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let (a, b) = (a.max(-40.0), b.min(40.0));
        let panels = (((b - a) / 1e-3).ceil() as usize).max(2) & !1;
        let h = (b - a) / panels as f64;
        let phi = |x: f64| gauss(x) / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 =
            (1..panels).map(|k| if k % 2 == 1 { 4.0 } else { 2.0 } * phi(a + k as f64 * h)).sum();
        (phi(a) + inner + phi(b)) * h / 3.0
    }

    /// The stream `standard_normal` produced before the noise sampler
    /// existed: the first 64 draws at seed 1. Synthetic data depends on it.
    const STANDARD_NORMAL_SEED1: [u64; 64] = [
        0xbf88_1214_0a29_bbcb,
        0xbfaa_1b24_5424_3d06,
        0xbff8_c857_d73b_c80f,
        0xbfc4_9534_0fb7_14bc,
        0x3ff6_fdbe_8011_7135,
        0xbfcc_e673_da03_061a,
        0xbffc_e8aa_1d45_2b95,
        0x3ff3_831e_c066_8315,
        0xbff1_0e43_25ae_e6fc,
        0xbfc7_850e_b41a_992e,
        0x3fdc_794a_194a_7b58,
        0xbffa_457c_e1c5_72cf,
        0xbff5_a991_a78f_1904,
        0x3ffd_3e7d_7a65_d886,
        0xbfbf_af53_f974_438d,
        0xbfe3_4aaf_62d8_4212,
        0xbfeb_1fe1_5124_5d6c,
        0xbfc1_5b38_37b7_299d,
        0xbfca_a846_f9f7_568d,
        0xbfc4_bf1e_89c5_78dc,
        0xbff3_a6e9_e67c_7cb8,
        0x3fdf_2c32_9b68_1010,
        0xbfec_086c_0522_643a,
        0x3fd3_4e72_fc38_7a81,
        0x4000_969e_4f94_8cbe,
        0xbfe6_4818_0f0c_fcfa,
        0x3feb_6aa4_a01e_3049,
        0xbff4_9b25_366a_44ce,
        0xbfbe_82bb_7792_91ec,
        0x3ff2_ef0b_7aa4_2805,
        0xbffd_0ae4_6b9c_a5c0,
        0xbfd8_17fc_dc96_9022,
        0x3fe1_ce41_e95f_1a00,
        0xbfce_3702_0fba_efe2,
        0xbffd_1432_69bf_cea9,
        0xbff7_f2c6_de4e_88fb,
        0xbf94_2c31_86fa_09e1,
        0xbff4_d072_b706_41cf,
        0x3ff5_4116_601a_12d7,
        0x3fc3_65d1_2a8b_6a41,
        0xbff5_df66_520d_74f6,
        0x3fb0_abe9_7575_1598,
        0xbfdd_6a17_66c2_1475,
        0xbfb2_d705_3ac3_9bf2,
        0x3fdf_c818_e2fc_f30c,
        0xbfcf_9aa3_9562_bc45,
        0xbfea_88b2_7689_0857,
        0x3fd4_d18e_e013_9569,
        0x3fd1_40d8_6e60_4d33,
        0x3fd9_4a46_fb76_aeeb,
        0x3fd0_9f29_1123_014b,
        0xbfc4_0867_f971_e727,
        0x3ff4_1a1c_ad66_8267,
        0xbfe9_c2c0_e9ac_2611,
        0xc004_3062_c13a_505f,
        0xbff6_6880_d124_d9fb,
        0xbfe0_e918_a9e7_7fb0,
        0x3fe7_a799_1fb8_07c1,
        0x3fbc_8c6f_37cc_3860,
        0xbfe2_1afb_36e0_9ea8,
        0xbfc4_70be_845d_c686,
        0xbfe6_e2f0_0e41_0d5c,
        0x3ff6_bfc9_d7e9_318c,
        0xbf73_c49f_c9ec_3372,
    ];

    #[test]
    fn standard_normal_stream_is_pinned() {
        let mut rng = seeded(1);
        let bits: Vec<u64> = (0..64).map(|_| standard_normal(&mut rng).to_bits()).collect();
        assert_eq!(bits, STANDARD_NORMAL_SEED1, "the data sampler's stream moved");
    }

    #[test]
    fn ziggurat_tables_close() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[LAYERS], 0.0, "the top layer must reach x = 0");
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "layer edges must decrease");
        // Base strip: the rectangle [0, R] × [0, f(R)] plus the tail has area V.
        let tail = (2.0 * std::f64::consts::PI).sqrt() * normal_mass(ZIG_R, f64::INFINITY);
        let base = ZIG_R * gauss(ZIG_R) + tail;
        assert!((base / ZIG_V - 1.0).abs() < 1e-9, "base area {base} vs V {ZIG_V}");
        assert!((zig.x[0] * zig.f[1] / ZIG_V - 1.0).abs() < 1e-12);
        // Every layer above has area V, the top one (up to f(0) = 1) included:
        // the recurrence closes.
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-11, "layer {i}: area {area} vs V {ZIG_V}");
        }
    }

    #[test]
    fn ziggurat_bits_are_disjoint() {
        let uniform_bits = u64::MAX << UNIFORM_SHIFT;
        assert_eq!(LAYER_MASK & SIGN_BIT, 0);
        assert_eq!((LAYER_MASK | SIGN_BIT) & uniform_bits, 0);
        assert_eq!(uniform_bits.count_ones(), 53, "the uniform needs 53 bits");
        let mut rng = seeded(60);
        for _ in 0..1000 {
            let bits = rng.next_u64();
            let (layer, sign, u) = split_bits(bits);
            for b in 0..64 {
                let (l2, s2, u2) = split_bits(bits ^ (1 << b));
                if (1u64 << b) & uniform_bits != 0 {
                    assert_eq!((l2, s2), (layer, sign), "uniform bit {b} moved the layer or sign");
                } else {
                    assert_eq!(u2, u, "layer/sign bit {b} moved the uniform");
                }
            }
        }
    }

    /// Binned χ² goodness of fit against Φ over 4 M draws, with bins beyond
    /// R so the tail sampler's output is tested too.
    #[test]
    fn ziggurat_matches_normal_cdf() {
        let edges = [
            -4.4, -4.0, -ZIG_R, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5,
            3.0, ZIG_R, 4.0, 4.4,
        ];
        let n = 4_000_000usize;
        let mut counts = vec![0u64; edges.len() + 1];
        let mut rng = seeded(61);
        for _ in 0..n {
            let x = ziggurat_normal(&mut rng);
            counts[edges.partition_point(|&e| e <= x)] += 1;
        }
        let mut chi2 = 0.0;
        for (k, &count) in counts.iter().enumerate() {
            let lo = if k == 0 { f64::NEG_INFINITY } else { edges[k - 1] };
            let hi = if k == edges.len() { f64::INFINITY } else { edges[k] };
            let expected = n as f64 * normal_mass(lo, hi);
            assert!(expected >= 5.0, "bin [{lo}, {hi}) is too thin for χ²");
            chi2 += (count as f64 - expected).powi(2) / expected;
        }
        // Wilson–Hilferty 0.999 quantile of χ² with counts.len() − 1 dof.
        let dof = (counts.len() - 1) as f64;
        let c = 2.0 / (9.0 * dof);
        let critical = dof * (1.0 - c + 3.090 * c.sqrt()).powi(3);
        assert!(chi2 < critical, "χ² {chi2:.1} ≥ {critical:.1}; counts {counts:?}");
    }

    #[test]
    fn ziggurat_tails_are_symmetric_and_weighted() {
        let n = 4_000_000usize;
        let mut rng = seeded(62);
        let (mut pos, mut neg) = (0u64, 0u64);
        for _ in 0..n {
            let x = ziggurat_normal(&mut rng);
            if x > ZIG_R {
                pos += 1;
            } else if x < -ZIG_R {
                neg += 1;
            }
        }
        let tails = (pos + neg) as f64;
        // pos ~ Binomial(tails, 1/2): pos − neg has standard deviation √tails.
        assert!((pos as f64 - neg as f64).abs() < 4.0 * tails.sqrt(), "tail counts {pos} vs {neg}");
        let p = 2.0 * normal_mass(ZIG_R, f64::INFINITY);
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!((tails - n as f64 * p).abs() < 4.0 * sd, "{tails} tail draws vs {}", n as f64 * p);
    }

    #[test]
    fn ziggurat_moments() {
        let mut rng = seeded(63);
        let samples: Vec<f64> = (0..400_000).map(|_| ziggurat_normal(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        let kurtosis = samples.iter().map(|x| x.powi(4)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        assert!((kurtosis - 3.0).abs() < 0.05, "fourth moment {kurtosis}");
    }

    #[test]
    fn ziggurat_same_seed_same_stream() {
        let (mut a, mut b) = (seeded(64), seeded(64));
        for _ in 0..10_000 {
            assert_eq!(ziggurat_normal(&mut a).to_bits(), ziggurat_normal(&mut b).to_bits());
        }
        let mut c = seeded(65);
        let mut a = seeded(64);
        let same = (0..64).filter(|_| ziggurat_normal(&mut a) == ziggurat_normal(&mut c)).count();
        assert_eq!(same, 0);
    }
}
