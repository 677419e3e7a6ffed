//! Output-perturbation noise mechanisms.
//!
//! * [`LaplaceBallMechanism`] — Theorem 1: publishing `f(D) + κ` with
//!   density `p(κ) ∝ exp(−ε‖κ‖/Δ₂)` is ε-DP. Sampling follows Appendix E:
//!   draw a uniform direction on the unit sphere and an independent
//!   magnitude from `Γ(d, Δ₂/ε)`.
//! * [`GaussianMechanism`] — Theorem 3: per-coordinate `N(0, σ²)` noise with
//!   `σ = √(2 ln(1.25/δ))·Δ₂/ε` is (ε, δ)-DP for `ε ∈ (0, 1)`.
//! * [`NoiseMechanism`] — an enum over the two (plus `Noiseless`) so the
//!   training drivers can treat noise injection uniformly.
//!
//! The Gaussian mechanism draws its coordinates from the exact ziggurat
//! [`ziggurat_normal`], the workspace's per-step noise sampler. The
//! Box–Muller [`standard_normal`](bolton_rng::dist::standard_normal) is the
//! data sampler (synthetic tables, random projections); it also draws the
//! Laplace ball's sphere direction (and objective perturbation's `b`)
//! through [`sample_unit_sphere`], and its `Γ(d, Δ₂/ε)` magnitude through
//! [`Gamma`], so a pure-ε release at a given seed keeps its bits.

use crate::budget::{Budget, PrivacyError};
use bolton_linalg::vector;
use bolton_rng::dist::{ziggurat_normal, Gamma};
use bolton_rng::Rng;

pub use bolton_linalg::random::sample_unit_sphere;

/// The ε-DP high-dimensional Laplace mechanism of Theorem 1.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceBallMechanism {
    dim: usize,
    sensitivity: f64,
    eps: f64,
}

impl LaplaceBallMechanism {
    /// Calibrates the mechanism for a query with the given L2-sensitivity.
    ///
    /// # Errors
    /// Returns [`PrivacyError::InvalidMechanism`] if `dim == 0` or
    /// `sensitivity` is not finite/non-negative, and
    /// [`PrivacyError::InvalidBudget`] for an invalid ε.
    pub fn new(dim: usize, sensitivity: f64, eps: f64) -> Result<Self, PrivacyError> {
        if dim == 0 {
            return Err(PrivacyError::InvalidMechanism("dimension must be positive".into()));
        }
        if !sensitivity.is_finite() || sensitivity < 0.0 {
            return Err(PrivacyError::InvalidMechanism(format!(
                "sensitivity must be finite and >= 0, got {sensitivity}"
            )));
        }
        Budget::pure(eps)?;
        Ok(Self { dim, sensitivity, eps })
    }

    /// The Gamma scale `Δ₂/ε` of the noise magnitude.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.eps
    }

    /// The L2-sensitivity this mechanism was calibrated for.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Expected noise norm `E‖κ‖ = d·Δ₂/ε` (mean of `Γ(d, Δ₂/ε)`).
    pub fn expected_norm(&self) -> f64 {
        self.dim as f64 * self.scale()
    }

    /// Draws one noise vector (Appendix E sampler).
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        if self.sensitivity == 0.0 {
            return vec![0.0; self.dim];
        }
        let mut direction = sample_unit_sphere(rng, self.dim);
        let magnitude = Gamma::new(self.dim as f64, self.scale()).sample(rng);
        vector::scale(magnitude, &mut direction);
        direction
    }

    /// Adds one noise draw to `w` in place.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, w: &mut [f64]) {
        assert_eq!(w.len(), self.dim, "model dimension mismatch");
        let noise = self.sample_noise(rng);
        vector::axpy(1.0, &noise, w);
    }
}

/// The (ε, δ)-DP Gaussian mechanism of Theorem 3: i.i.d. `N(0, σ²)` noise
/// on every coordinate.
#[derive(Clone, Copy, Debug)]
pub struct GaussianMechanism {
    sigma: f64,
}

impl GaussianMechanism {
    /// Calibrates `σ = √(2 ln(1.25/δ))·Δ₂/ε`.
    ///
    /// Theorem 3 is stated for `ε ∈ (0, 1)`; the paper's experiments (and
    /// ours) also run it at larger ε, where the same σ is conservative under
    /// the standard extension, so larger ε is accepted here.
    ///
    /// # Errors
    /// Returns an error for invalid sensitivity, non-positive ε, or δ
    /// outside (0, 1).
    pub fn new(sensitivity: f64, eps: f64, delta: f64) -> Result<Self, PrivacyError> {
        if !sensitivity.is_finite() || sensitivity < 0.0 {
            return Err(PrivacyError::InvalidMechanism(format!(
                "sensitivity must be finite and >= 0, got {sensitivity}"
            )));
        }
        if delta <= 0.0 {
            return Err(PrivacyError::InvalidBudget(
                "Gaussian mechanism requires delta > 0".into(),
            ));
        }
        Budget::approx(eps, delta)?;
        let c = (2.0 * (1.25 / delta).ln()).sqrt();
        Ok(Self { sigma: c * sensitivity / eps })
    }

    /// A mechanism with a per-coordinate σ calibrated elsewhere — BST14
    /// derives its σ from advanced composition and amplification by
    /// subsampling rather than from one (ε, δ).
    ///
    /// # Errors
    /// Returns [`PrivacyError::InvalidMechanism`] unless σ is finite and
    /// positive.
    pub fn from_sigma(sigma: f64) -> Result<Self, PrivacyError> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(PrivacyError::InvalidMechanism(format!(
                "sigma must be finite and > 0, got {sigma}"
            )));
        }
        Ok(Self { sigma })
    }

    /// The per-coordinate noise standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Expected noise norm, `E‖κ‖ ≈ σ·√d` (exact up to the χ_d mean factor,
    /// which tends to √d for large d). Exposed for the dimension ablation.
    pub fn expected_norm(&self, dim: usize) -> f64 {
        self.sigma * (dim as f64).sqrt()
    }

    /// Draws one noise vector of length `dim`.
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R, dim: usize) -> Vec<f64> {
        let mut noise = vec![0.0; dim];
        self.perturb(rng, &mut noise);
        noise
    }

    /// Adds one noise draw to `w` in place.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, w: &mut [f64]) {
        for v in w.iter_mut() {
            *v += self.sigma * ziggurat_normal(rng);
        }
    }
}

/// A unified handle over the supported output-noise mechanisms.
#[derive(Clone, Copy, Debug)]
pub enum NoiseMechanism {
    /// No noise: the noiseless baseline.
    Noiseless,
    /// ε-DP Laplace-ball noise (Theorem 1).
    LaplaceBall(LaplaceBallMechanism),
    /// (ε, δ)-DP Gaussian noise (Theorem 3).
    Gaussian(GaussianMechanism),
}

impl NoiseMechanism {
    /// Builds the mechanism matching `budget` for a `dim`-dimensional query
    /// of the given sensitivity: pure budgets get the Laplace ball, approx
    /// budgets the Gaussian.
    pub fn for_budget(budget: &Budget, dim: usize, sensitivity: f64) -> Result<Self, PrivacyError> {
        if budget.is_pure() {
            Ok(NoiseMechanism::LaplaceBall(LaplaceBallMechanism::new(
                dim,
                sensitivity,
                budget.eps(),
            )?))
        } else {
            Ok(NoiseMechanism::Gaussian(GaussianMechanism::new(
                sensitivity,
                budget.eps(),
                budget.delta(),
            )?))
        }
    }

    /// Adds one noise draw to `w` in place (no-op for `Noiseless`).
    ///
    /// Both noisy mechanisms perturb *every* coordinate, so the release of
    /// a sparsely trained model (most coordinates exactly zero) is dense:
    /// the nonzero support of the unperturbed model — itself a function of
    /// which examples were seen — never leaks through the released vector.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, w: &mut [f64]) {
        match self {
            NoiseMechanism::Noiseless => {}
            NoiseMechanism::LaplaceBall(m) => m.perturb(rng, w),
            NoiseMechanism::Gaussian(m) => m.perturb(rng, w),
        }
    }

    /// Expected noise norm for a `dim`-dimensional model.
    pub fn expected_norm(&self, dim: usize) -> f64 {
        match self {
            NoiseMechanism::Noiseless => 0.0,
            NoiseMechanism::LaplaceBall(m) => m.expected_norm(),
            NoiseMechanism::Gaussian(m) => m.expected_norm(dim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolton_linalg::stats::OnlineStats;
    use bolton_rng::seeded;

    #[test]
    fn unit_sphere_samples_are_unit_norm() {
        let mut rng = seeded(41);
        for dim in [1, 2, 5, 50] {
            for _ in 0..100 {
                let v = sample_unit_sphere(&mut rng, dim);
                assert!((vector::norm(&v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn unit_sphere_is_directionally_unbiased() {
        let mut rng = seeded(42);
        let dim = 3;
        let mut mean = vec![0.0; dim];
        let n = 50_000;
        for _ in 0..n {
            let v = sample_unit_sphere(&mut rng, dim);
            vector::axpy(1.0 / n as f64, &v, &mut mean);
        }
        assert!(vector::norm(&mean) < 0.02, "mean norm {}", vector::norm(&mean));
    }

    /// The private release of a sparsely trained model must not leak its
    /// sparsity pattern: both mechanisms perturb every coordinate, so a
    /// mostly-zero model densifies on release (a zero noise coordinate has
    /// probability zero; over many trials every coordinate moves).
    #[test]
    fn release_of_sparse_model_is_dense() {
        let mut rng = seeded(48);
        let dim = 64;
        for mech in [
            NoiseMechanism::for_budget(&Budget::pure(1.0).unwrap(), dim, 0.1).unwrap(),
            NoiseMechanism::for_budget(&Budget::approx(1.0, 1e-6).unwrap(), dim, 0.1).unwrap(),
        ] {
            for _ in 0..20 {
                // One nonzero out of 64 — the shape a sparse run produces.
                let mut w = vec![0.0; dim];
                w[17] = 0.25;
                mech.perturb(&mut rng, &mut w);
                let zeros = w.iter().filter(|v| **v == 0.0).count();
                assert_eq!(zeros, 0, "released model leaked zero coordinates");
            }
        }
    }

    #[test]
    fn laplace_ball_norm_follows_gamma() {
        let mut rng = seeded(43);
        let dim = 10;
        let mech = LaplaceBallMechanism::new(dim, 0.5, 2.0).unwrap();
        let mut stats = OnlineStats::new();
        for _ in 0..20_000 {
            stats.push(vector::norm(&mech.sample_noise(&mut rng)));
        }
        // Γ(10, 0.25): mean 2.5, variance 0.625.
        assert!((stats.mean() - mech.expected_norm()).abs() < 0.05 * mech.expected_norm());
        assert!((stats.variance() - 0.625).abs() < 0.05);
    }

    #[test]
    fn laplace_ball_zero_sensitivity_is_noiseless() {
        let mut rng = seeded(44);
        let mech = LaplaceBallMechanism::new(5, 0.0, 1.0).unwrap();
        assert_eq!(mech.sample_noise(&mut rng), vec![0.0; 5]);
    }

    #[test]
    fn laplace_ball_rejects_invalid() {
        assert!(LaplaceBallMechanism::new(0, 1.0, 1.0).is_err());
        assert!(LaplaceBallMechanism::new(5, f64::NAN, 1.0).is_err());
        assert!(LaplaceBallMechanism::new(5, -1.0, 1.0).is_err());
        assert!(LaplaceBallMechanism::new(5, 1.0, 0.0).is_err());
    }

    #[test]
    fn gaussian_sigma_formula() {
        let mech = GaussianMechanism::new(2.0, 0.5, 1e-5).unwrap();
        let expected = (2.0f64 * (1.25f64 / 1e-5).ln()).sqrt() * 2.0 / 0.5;
        assert!((mech.sigma() - expected).abs() < 1e-12);
    }

    #[test]
    fn gaussian_noise_moments() {
        let mut rng = seeded(45);
        let mech = GaussianMechanism::new(1.0, 1.0, 1e-4).unwrap();
        let mut stats = OnlineStats::new();
        for _ in 0..5_000 {
            for v in mech.sample_noise(&mut rng, 4) {
                stats.push(v);
            }
        }
        assert!(stats.mean().abs() < 0.1);
        let sd = stats.std_dev();
        assert!((sd - mech.sigma()).abs() < 0.02 * mech.sigma(), "sd {sd} vs {}", mech.sigma());
    }

    #[test]
    fn gaussian_rejects_zero_delta() {
        assert!(GaussianMechanism::new(1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn gaussian_from_sigma_validates() {
        assert_eq!(GaussianMechanism::from_sigma(0.75).unwrap().sigma(), 0.75);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(GaussianMechanism::from_sigma(bad).is_err(), "accepted sigma {bad}");
        }
    }

    /// Gaussian noise comes from the noise sampler, coordinate by
    /// coordinate, in both entry points.
    #[test]
    fn gaussian_noise_is_drawn_by_the_ziggurat() {
        let mech = GaussianMechanism::from_sigma(1.5).unwrap();
        let mut expect_rng = seeded(49);
        let expected: Vec<f64> = (0..20).map(|_| 1.5 * ziggurat_normal(&mut expect_rng)).collect();
        let mut w = vec![0.0; 20];
        mech.perturb(&mut seeded(49), &mut w);
        assert_eq!(w, expected);
        assert_eq!(mech.sample_noise(&mut seeded(49), 20), expected);
    }

    #[test]
    fn noise_scales_inversely_with_eps() {
        // Core DP intuition: doubling ε halves expected noise.
        let tight = LaplaceBallMechanism::new(10, 1.0, 2.0).unwrap();
        let loose = LaplaceBallMechanism::new(10, 1.0, 1.0).unwrap();
        assert!((loose.expected_norm() / tight.expected_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn for_budget_picks_mechanism_by_delta() {
        let pure = Budget::pure(1.0).unwrap();
        let approx = Budget::approx(1.0, 1e-6).unwrap();
        assert!(matches!(
            NoiseMechanism::for_budget(&pure, 3, 1.0).unwrap(),
            NoiseMechanism::LaplaceBall(_)
        ));
        assert!(matches!(
            NoiseMechanism::for_budget(&approx, 3, 1.0).unwrap(),
            NoiseMechanism::Gaussian(_)
        ));
    }

    #[test]
    fn perturb_changes_model_noiseless_does_not() {
        let mut rng = seeded(46);
        let mut w = vec![1.0, 2.0, 3.0];
        let orig = w.clone();
        NoiseMechanism::Noiseless.perturb(&mut rng, &mut w);
        assert_eq!(w, orig);
        NoiseMechanism::for_budget(&Budget::pure(1.0).unwrap(), 3, 0.5)
            .unwrap()
            .perturb(&mut rng, &mut w);
        assert_ne!(w, orig);
    }

    /// The ε-DP noise norm grows linearly in d while the Gaussian mechanism
    /// grows as √d — the reason the paper random-projects MNIST (Section 2).
    #[test]
    fn dimension_dependence_laplace_vs_gaussian() {
        let lap_small = LaplaceBallMechanism::new(50, 1.0, 1.0).unwrap().expected_norm();
        let lap_big = LaplaceBallMechanism::new(800, 1.0, 1.0).unwrap().expected_norm();
        assert!((lap_big / lap_small - 16.0).abs() < 1e-9);
        let gauss = GaussianMechanism::new(1.0, 1.0, 1e-6).unwrap();
        let ratio = gauss.expected_norm(800) / gauss.expected_norm(50);
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}

/// The exponential mechanism (McSherry & Talwar 2007): selects index `i`
/// with probability `∝ exp(ε·u_i / (2·Δu))` where `u` are utilities with
/// sensitivity `Δu`. This is the selection rule behind the paper's private
/// tuning Algorithm 3 (utilities `u_i = −χ_i`, Δu = 1: one changed example
/// changes each holdout error count by at most one).
///
/// ```
/// use bolton_privacy::ExponentialMechanism;
/// let mech = ExponentialMechanism::new(1.0, 1.0).unwrap();
/// let p = mech.probabilities(&[-3.0, 0.0]); // utilities
/// assert!(p[1] > p[0]);
/// assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExponentialMechanism {
    eps: f64,
    utility_sensitivity: f64,
}

impl ExponentialMechanism {
    /// Calibrates the mechanism.
    ///
    /// # Errors
    /// Rejects non-positive ε or utility sensitivity.
    pub fn new(eps: f64, utility_sensitivity: f64) -> Result<Self, PrivacyError> {
        Budget::pure(eps)?;
        if !utility_sensitivity.is_finite() || utility_sensitivity <= 0.0 {
            return Err(PrivacyError::InvalidMechanism(format!(
                "utility sensitivity must be finite and > 0, got {utility_sensitivity}"
            )));
        }
        Ok(Self { eps, utility_sensitivity })
    }

    /// The selection probabilities for the given utilities (stabilized by
    /// shifting by the maximum utility).
    ///
    /// # Panics
    /// Panics on an empty or non-finite utility list.
    pub fn probabilities(&self, utilities: &[f64]) -> Vec<f64> {
        assert!(!utilities.is_empty(), "need at least one candidate");
        assert!(utilities.iter().all(|u| u.is_finite()), "utilities must be finite");
        let scale = self.eps / (2.0 * self.utility_sensitivity);
        let max = utilities.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = utilities.iter().map(|u| ((u - max) * scale).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Draws one selection.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, utilities: &[f64]) -> usize {
        let probabilities = self.probabilities(utilities);
        let mut pick = rng.next_f64();
        for (i, p) in probabilities.iter().enumerate() {
            if pick < *p {
                return i;
            }
            pick -= p;
        }
        probabilities.len() - 1
    }
}

#[cfg(test)]
mod exponential_tests {
    use super::*;
    use bolton_rng::seeded;

    #[test]
    fn probabilities_sum_to_one_and_order_by_utility() {
        let mech = ExponentialMechanism::new(1.0, 1.0).unwrap();
        let p = mech.probabilities(&[-10.0, -2.0, -5.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn large_eps_concentrates_small_eps_flattens() {
        let utilities = [0.0, -4.0];
        let sharp = ExponentialMechanism::new(10.0, 1.0).unwrap().probabilities(&utilities);
        let flat = ExponentialMechanism::new(1e-6, 1.0).unwrap().probabilities(&utilities);
        assert!(sharp[0] > 0.999);
        assert!((flat[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn select_frequencies_match_probabilities() {
        let mech = ExponentialMechanism::new(2.0, 1.0).unwrap();
        let utilities = [0.0, -1.0, -3.0];
        let target = mech.probabilities(&utilities);
        let mut rng = seeded(551);
        let n = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[mech.select(&mut rng, &utilities)] += 1;
        }
        for (c, t) in counts.iter().zip(target.iter()) {
            let freq = *c as f64 / n as f64;
            assert!((freq - t).abs() < 0.01, "freq {freq} vs target {t}");
        }
    }

    /// The defining DP property: for neighboring utility vectors (each
    /// entry moved by ≤ Δu), selection odds change by at most e^ε.
    #[test]
    fn neighboring_utilities_bounded_odds_ratio() {
        let eps = 0.7;
        let mech = ExponentialMechanism::new(eps, 1.0).unwrap();
        let u1 = [0.0, -2.0, -4.0, -1.5];
        // Worst-case neighbor: shift each utility by ±1.
        let u2 = [-1.0, -1.0, -3.0, -2.5];
        let p1 = mech.probabilities(&u1);
        let p2 = mech.probabilities(&u2);
        for (a, b) in p1.iter().zip(p2.iter()) {
            let ratio = (a / b).max(b / a);
            assert!(ratio <= eps.exp() * (1.0 + 1e-9), "odds ratio {ratio}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ExponentialMechanism::new(0.0, 1.0).is_err());
        assert!(ExponentialMechanism::new(1.0, 0.0).is_err());
        assert!(ExponentialMechanism::new(1.0, f64::NAN).is_err());
    }
}
