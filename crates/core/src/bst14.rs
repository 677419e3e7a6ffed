//! The BST14 baseline: Bassily, Smith & Thakurta, "Private empirical risk
//! minimization" (FOCS 2014), extended to a constant number of epochs —
//! paper Algorithms 4 (convex) and 5 (strongly convex).
//!
//! BST14 samples each iterate's example uniformly **with replacement**
//! (subsampling amplification is essential to its analysis) and adds
//! Gaussian noise to every gradient. With `T = km/b` iterations:
//!
//! * `δ₁ = δ/T`
//! * `ε₁` solves `ε = Tε₁(e^{ε₁} − 1) + ε₁√(2T ln(1/δ₁))` (advanced
//!   composition)
//! * `ε₂ = min(1, m·ε₁/(2b))` (privacy amplification by subsampling at rate
//!   `b/m`)
//! * `σ² = 2 ln(1.25/δ₁)/ε₂²` with per-coordinate scale `ι` (`ι = L²`, which
//!   is 1 for logistic regression as the paper notes)
//!
//! The update uses the **sum** batch gradient (sensitivity `2L` per
//! replaced example, norm ≤ `bL`), which is why Algorithm 4's step scale is
//! `G = √(dσ²ι + b²L²)`. BST14 supports only (ε, δ)-DP with δ > 0.

use bolton_privacy::budget::{Budget, PrivacyError};
use bolton_privacy::composition::solve_per_iteration_eps;
use bolton_privacy::mechanisms::GaussianMechanism;
use bolton_rng::Rng;
use bolton_sgd::engine::{
    batches_per_pass, run_psgd_with_hook, Averaging, BatchPlan, SamplingScheme, SgdConfig,
};
use bolton_sgd::loss::Loss;
use bolton_sgd::schedule::StepSize;
use bolton_sgd::TrainSet;

/// Configuration for constant-epoch BST14.
#[derive(Clone, Copy, Debug)]
pub struct Bst14Config {
    /// Total (ε, δ) budget; must have δ > 0.
    pub budget: Budget,
    /// Number of epochs `k` (the constant-epoch extension).
    pub passes: usize,
    /// Mini-batch size `b`.
    pub batch_size: usize,
    /// Hypothesis-space radius `R` (the algorithms require constrained
    /// optimization; the paper sets `R = 1/λ`).
    pub radius: f64,
}

impl Bst14Config {
    /// A 1-pass, batch-1 configuration with the given radius.
    pub fn new(budget: Budget, radius: f64) -> Self {
        Self { budget, passes: 1, batch_size: 1, radius }
    }

    /// Sets the number of passes.
    pub fn with_passes(mut self, k: usize) -> Self {
        self.passes = k;
        self
    }

    /// Sets the mini-batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }
}

/// The calibration derived on lines 2–7 of Algorithms 4/5.
#[derive(Clone, Copy, Debug)]
pub struct Bst14Calibration {
    /// Total iterations `T`.
    pub iterations: u64,
    /// Per-iteration failure probability `δ₁ = δ/T`.
    pub delta1: f64,
    /// Per-iteration `ε₁` from advanced composition.
    pub eps1: f64,
    /// Amplified `ε₂ = min(1, m·ε₁/(2b))`.
    pub eps2: f64,
    /// Per-coordinate noise variance `σ²·ι`.
    pub sigma_sq: f64,
    /// Step scale `G = √(dσ²ι + b²L²)` (convex schedule only).
    pub step_scale: f64,
}

/// Computes the calibration for a dataset of `m` examples in `d` dimensions.
///
/// # Errors
/// Rejects pure budgets (BST14 needs δ > 0) and invalid shapes.
pub fn calibrate(
    loss: &dyn Loss,
    config: &Bst14Config,
    m: usize,
    d: usize,
) -> Result<Bst14Calibration, PrivacyError> {
    if config.budget.is_pure() {
        return Err(PrivacyError::InvalidBudget(
            "BST14 requires (eps, delta)-DP with delta > 0".into(),
        ));
    }
    if m == 0 || d == 0 {
        return Err(PrivacyError::InvalidMechanism("empty dataset or zero dimension".into()));
    }
    let b = config.batch_size.min(m);
    let iterations = batches_per_pass(m, b) as u64 * config.passes as u64;
    let delta1 = config.budget.delta() / iterations as f64;
    let eps1 = solve_per_iteration_eps(config.budget.eps(), iterations, delta1)?;
    let eps2 = 1.0_f64.min(m as f64 * eps1 / (2.0 * b as f64));
    // ι = L² localizes the per-iteration sensitivity (ι = 1 for logistic).
    let iota = loss.lipschitz() * loss.lipschitz();
    let sigma_sq = 2.0 * (1.25 / delta1).ln() / (eps2 * eps2) * iota;
    let bl = b as f64 * loss.lipschitz();
    let step_scale = (d as f64 * sigma_sq + bl * bl).sqrt();
    Ok(Bst14Calibration { iterations, delta1, eps1, eps2, sigma_sq, step_scale })
}

/// The result of a BST14 run.
#[derive(Clone, Debug)]
pub struct Bst14Model {
    /// The released model.
    pub model: Vec<f64>,
    /// Updates performed.
    pub updates: u64,
    /// The calibration used.
    pub calibration: Bst14Calibration,
}

/// Trains with Algorithm 4 (convex) or Algorithm 5 (strongly convex),
/// dispatching on `loss.is_strongly_convex()`.
///
/// # Errors
/// Propagates calibration errors.
///
/// # Panics
/// Panics on an empty dataset.
pub fn train_bst14<D, R>(
    data: &D,
    loss: &dyn Loss,
    config: &Bst14Config,
    rng: &mut R,
) -> Result<Bst14Model, PrivacyError>
where
    D: TrainSet + ?Sized,
    R: Rng + ?Sized,
{
    let m = data.len();
    assert!(m > 0, "training set must be non-empty");
    let d = data.dim();
    let cal = calibrate(loss, config, m, d)?;
    let noise = GaussianMechanism::from_sigma(cal.sigma_sq.sqrt())?;

    let step = if loss.is_strongly_convex() {
        // Algorithm 5 line 12.
        StepSize::InvGammaT { gamma: loss.strong_convexity() }
    } else {
        // Algorithm 4 line 12: η_t = 2R/(G√t).
        StepSize::BstConvex { radius: config.radius, g: cal.step_scale }
    };

    let b = config.batch_size.min(m);
    let sgd_config = SgdConfig::new(step)
        .with_passes(config.passes)
        .with_batch_size(b)
        .with_averaging(Averaging::FinalIterate)
        .with_sampling(SamplingScheme::WithReplacement)
        .with_projection(config.radius);

    // The engine applies `w ← Π(w − η·g_hooked)` with `g` the *mean* batch
    // gradient; BST14 updates with the *sum* plus noise, so the hook rescales
    // g ← |B|·g + z. |B| is b except possibly the final batch of a pass.
    let plan = BatchPlan::new(m, b);
    let batches = plan.batches as u64;
    let mut noise_rng = rng.fork_stream();
    let outcome = run_psgd_with_hook(data, loss, &sgd_config, rng, |t, grad| {
        let within = ((t - 1) % batches) as usize;
        let batch_len = plan.size_of(within);
        bolton_linalg::vector::scale(batch_len as f64, grad);
        noise.perturb(&mut noise_rng, grad);
    });

    Ok(Bst14Model { model: outcome.model, updates: outcome.updates, calibration: cal })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolton_privacy::composition::advanced_composition_total;
    use bolton_rng::seeded;
    use bolton_sgd::dataset::InMemoryDataset;
    use bolton_sgd::loss::Logistic;

    fn dataset(m: usize, seed: u64) -> InMemoryDataset {
        let mut rng = seeded(seed);
        let mut features = Vec::with_capacity(m * 2);
        let mut labels = Vec::with_capacity(m);
        for _ in 0..m {
            let x0 = rng.next_range(-0.9, 0.9);
            features.push(x0);
            features.push(rng.next_range(-0.3, 0.3));
            labels.push(if x0 >= 0.0 { 1.0 } else { -1.0 });
        }
        InMemoryDataset::from_flat(features, labels, 2)
    }

    #[test]
    fn calibration_solves_composition() {
        let loss = Logistic::plain();
        let config = Bst14Config::new(Budget::approx(1.0, 1e-6).unwrap(), 10.0).with_passes(5);
        let cal = calibrate(&loss, &config, 1000, 50).unwrap();
        assert_eq!(cal.iterations, 5000);
        assert!((cal.delta1 - 1e-6 / 5000.0).abs() < 1e-18);
        let recomposed = advanced_composition_total(cal.eps1, cal.iterations, cal.delta1);
        assert!((recomposed - 1.0).abs() < 1e-6);
        // Amplification: ε₂ = min(1, m·ε₁/2).
        assert!((cal.eps2 - (1000.0 * cal.eps1 / 2.0).min(1.0)).abs() < 1e-12);
    }

    #[test]
    fn pure_budget_rejected() {
        let loss = Logistic::plain();
        let config = Bst14Config::new(Budget::pure(1.0).unwrap(), 10.0);
        assert!(calibrate(&loss, &config, 100, 2).is_err());
    }

    #[test]
    fn fewer_iterations_need_less_noise_per_step() {
        // The paper's constant-epoch extension: reducing passes from the
        // original O(m²) iterations shrinks per-iteration noise.
        let loss = Logistic::plain();
        let mk = |k: usize| {
            let config = Bst14Config::new(Budget::approx(1.0, 1e-6).unwrap(), 10.0).with_passes(k);
            calibrate(&loss, &config, 2000, 10).unwrap().sigma_sq
        };
        assert!(mk(1) < mk(10), "1-pass sigma² {} should be < 10-pass {}", mk(1), mk(10));
    }

    #[test]
    fn trains_and_stays_in_ball() {
        let data = dataset(800, 241);
        let loss = Logistic::plain();
        let radius = 5.0;
        let config = Bst14Config::new(Budget::approx(2.0, 1e-6).unwrap(), radius)
            .with_passes(2)
            .with_batch_size(10);
        let out = train_bst14(&data, &loss, &config, &mut seeded(242)).unwrap();
        assert!(bolton_linalg::vector::norm(&out.model) <= radius + 1e-9);
        assert_eq!(out.updates, 160);
    }

    #[test]
    fn strongly_convex_variant_runs() {
        let data = dataset(500, 243);
        let lambda = 0.01;
        let loss = Logistic::regularized(lambda, 1.0 / lambda);
        let config = Bst14Config::new(Budget::approx(1.0, 1e-6).unwrap(), 1.0 / lambda)
            .with_passes(3)
            .with_batch_size(25);
        let out = train_bst14(&data, &loss, &config, &mut seeded(244)).unwrap();
        assert!(bolton_linalg::vector::norm(&out.model) <= 1.0 / lambda + 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = dataset(200, 245);
        let loss = Logistic::plain();
        let config = Bst14Config::new(Budget::approx(1.0, 1e-6).unwrap(), 5.0).with_passes(2);
        let a = train_bst14(&data, &loss, &config, &mut seeded(9)).unwrap();
        let b = train_bst14(&data, &loss, &config, &mut seeded(9)).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn larger_dataset_amplifies_privacy() {
        // ε₂ grows with m (less noise needed) until it caps at 1.
        let loss = Logistic::plain();
        let eps2_at = |m: usize| {
            let config = Bst14Config::new(Budget::approx(0.5, 1e-8).unwrap(), 10.0);
            calibrate(&loss, &config, m, 10).unwrap().eps2
        };
        assert!(eps2_at(100_000) >= eps2_at(1_000));
    }
}
