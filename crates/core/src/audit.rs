//! Empirical privacy auditing: estimate a lower bound on the effective ε
//! of a randomized release by Monte-Carlo hypothesis testing on
//! neighboring datasets — the style of check DP testing frameworks run
//! against mechanism implementations (a buggy mechanism shows
//! `ε̂ ≫ ε_configured`; a correct one stays below).
//!
//! The audit runs the mechanism many times on a fixed pair of neighboring
//! datasets, projects each released model onto a fixed direction (a scalar
//! test statistic — post-processing, so still ε-DP), histograms the two
//! statistic distributions over shared bins, and reports
//!
//! ```text
//! ε̂ = max_bins |ln( P_S(bin) / P_S'(bin) )|
//! ```
//!
//! over bins with enough mass on both sides. This is a *statistical lower
//! bound witness*: ε̂ substantially above the configured ε is evidence of a
//! calibration bug; ε̂ below it proves nothing (no finite test can), which
//! is exactly how the tests here use it.

use bolton_rng::Rng;

/// Audit configuration.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Monte-Carlo releases per dataset.
    pub trials: usize,
    /// Histogram bins over the pooled statistic range.
    pub bins: usize,
    /// Minimum per-bin count (on both sides) for a bin to vote.
    pub min_count: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { trials: 2000, bins: 24, min_count: 20 }
    }
}

/// The audit verdict.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The empirical ε lower-bound witness.
    pub empirical_eps: f64,
    /// Number of bins that had enough mass to vote.
    pub informative_bins: usize,
    /// Trials run per dataset.
    pub trials: usize,
}

/// Audits a release mechanism: `release(which, rng)` runs the full private
/// pipeline on dataset `S` (`which = false`) or its neighbor `S'`
/// (`which = true`) and returns the released model; `statistic` projects a
/// release to a scalar.
///
/// # Panics
/// Panics on a degenerate configuration (zero trials/bins).
pub fn audit_mechanism<R: Rng + ?Sized>(
    config: &AuditConfig,
    rng: &mut R,
    mut release: impl FnMut(bool, &mut R) -> Vec<f64>,
    statistic: impl Fn(&[f64]) -> f64,
) -> AuditReport {
    assert!(config.trials >= 10, "need at least 10 trials");
    assert!(config.bins >= 2, "need at least 2 bins");

    let mut stats_s = Vec::with_capacity(config.trials);
    let mut stats_n = Vec::with_capacity(config.trials);
    for _ in 0..config.trials {
        stats_s.push(statistic(&release(false, rng)));
        stats_n.push(statistic(&release(true, rng)));
    }

    // Shared binning over the pooled range.
    let lo = stats_s.iter().chain(stats_n.iter()).cloned().fold(f64::INFINITY, f64::min);
    let hi = stats_s.iter().chain(stats_n.iter()).cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / config.bins as f64).max(f64::MIN_POSITIVE);
    let bin_of = |x: f64| (((x - lo) / width) as usize).min(config.bins - 1);

    let mut counts_s = vec![0usize; config.bins];
    let mut counts_n = vec![0usize; config.bins];
    for &x in &stats_s {
        counts_s[bin_of(x)] += 1;
    }
    for &x in &stats_n {
        counts_n[bin_of(x)] += 1;
    }

    let mut empirical_eps = 0.0f64;
    let mut informative = 0usize;
    for (cs, cn) in counts_s.iter().zip(counts_n.iter()) {
        if *cs >= config.min_count && *cn >= config.min_count {
            informative += 1;
            let ratio = (*cs as f64 / *cn as f64).ln().abs();
            empirical_eps = empirical_eps.max(ratio);
        }
    }
    AuditReport { empirical_eps, informative_bins: informative, trials: config.trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_perturbation::{train_private, BoltOnConfig};
    use crate::Budget;
    use bolton_sgd::dataset::InMemoryDataset;
    use bolton_sgd::loss::Logistic;

    fn fixture() -> (InMemoryDataset, InMemoryDataset) {
        let mut rng = bolton_rng::seeded(901);
        use bolton_rng::Rng;
        let m = 120;
        let mut features = Vec::with_capacity(m * 2);
        let mut labels = Vec::with_capacity(m);
        for _ in 0..m {
            let x0 = rng.next_range(-0.9, 0.9);
            features.extend_from_slice(&[x0, 0.3]);
            labels.push(if x0 >= 0.0 { 1.0 } else { -1.0 });
        }
        let data = InMemoryDataset::from_flat(features, labels, 2);
        // Adversarial neighbor: flip one extreme example.
        let neighbor = data.neighbor(0, &[0.9, -0.3], -data.label_of(0));
        (data, neighbor)
    }

    /// A correctly calibrated bolt-on release passes the audit: the
    /// empirical ε witness stays below the configured ε (with slack for
    /// Monte-Carlo error).
    #[test]
    fn calibrated_mechanism_passes_audit() {
        let (data, neighbor) = fixture();
        let loss = Logistic::plain();
        let eps = 1.0;
        let config = BoltOnConfig::new(Budget::pure(eps).unwrap()).with_passes(2);
        let mut rng = bolton_rng::seeded(902);
        let report = audit_mechanism(
            &AuditConfig { trials: 1500, bins: 16, min_count: 25 },
            &mut rng,
            |which, r| {
                let d = if which { &neighbor } else { &data };
                train_private(d, &loss, &config, r).unwrap().model
            },
            |w| w[0],
        );
        assert!(report.informative_bins > 3, "audit needs informative bins");
        assert!(
            report.empirical_eps < eps + 0.6,
            "empirical ε {} should not blow past configured ε {eps}",
            report.empirical_eps
        );
    }

    /// The same audit on the (ε, δ) path: bolt-on training at δ > 0
    /// releases through the Gaussian mechanism, and its witness stays below
    /// the configured ε.
    #[test]
    fn calibrated_gaussian_mechanism_passes_audit() {
        let (data, neighbor) = fixture();
        let loss = Logistic::plain();
        let eps = 1.0;
        let config = BoltOnConfig::new(Budget::approx(eps, 1e-5).unwrap()).with_passes(2);
        let mut rng = bolton_rng::seeded(906);
        let report = audit_mechanism(
            &AuditConfig { trials: 3000, bins: 12, min_count: 100 },
            &mut rng,
            |which, r| {
                let d = if which { &neighbor } else { &data };
                train_private(d, &loss, &config, r).unwrap().model
            },
            |w| w[0],
        );
        assert!(report.informative_bins > 3, "audit needs informative bins");
        assert!(
            report.empirical_eps < eps,
            "empirical ε {} should stay below configured ε {eps}",
            report.empirical_eps
        );
    }

    /// A deliberately *mis*calibrated release (noise 100× too small) is
    /// caught: the witness explodes past the claimed ε.
    #[test]
    fn broken_mechanism_fails_audit() {
        let (data, neighbor) = fixture();
        let loss = Logistic::plain();
        let claimed_eps = 0.05;
        let mut rng = bolton_rng::seeded(903);
        let report = audit_mechanism(
            &AuditConfig { trials: 1200, bins: 12, min_count: 15 },
            &mut rng,
            |which, r| {
                let d = if which { &neighbor } else { &data };
                // BUG under test: train at ε = 100·claimed but claim tiny ε.
                let config =
                    BoltOnConfig::new(Budget::pure(claimed_eps * 100.0).unwrap()).with_passes(2);
                train_private(d, &loss, &config, r).unwrap().model
            },
            |w| w[0],
        );
        assert!(
            report.empirical_eps > claimed_eps * 4.0,
            "audit should catch the 100× undershoot: witness {} vs claimed {claimed_eps}",
            report.empirical_eps
        );
    }

    /// The noiseless release is far more distinguishable than a properly
    /// noised one at small ε. (Interestingly, it is not *infinitely*
    /// distinguishable: the permutation randomness alone blurs the single
    /// differing example — precisely the Hardt–Recht–Singer stability the
    /// paper's analysis formalizes. The audit quantifies the gap.)
    #[test]
    fn noiseless_release_is_more_distinguishable_than_private() {
        let (data, neighbor) = fixture();
        let loss = Logistic::plain();
        // High per-bin mass keeps the Monte-Carlo noise floor of the
        // ln-ratio estimator (≈ √(2/count)) well below the gap under test.
        let audit_cfg = AuditConfig { trials: 6000, bins: 8, min_count: 250 };

        let mut rng = bolton_rng::seeded(904);
        let noiseless = audit_mechanism(
            &audit_cfg,
            &mut rng,
            |which, r| {
                use bolton_sgd::engine::{run_psgd, SgdConfig};
                use bolton_sgd::schedule::StepSize;
                let d = if which { &neighbor } else { &data };
                let config = SgdConfig::new(StepSize::Constant(0.3)).with_passes(2);
                run_psgd(d, &loss, &config, r).model
            },
            |w| w[0],
        );

        let eps = 0.1;
        let bolt = BoltOnConfig::new(Budget::pure(eps).unwrap()).with_passes(2);
        let mut rng = bolton_rng::seeded(905);
        let private = audit_mechanism(
            &audit_cfg,
            &mut rng,
            |which, r| {
                let d = if which { &neighbor } else { &data };
                train_private(d, &loss, &bolt, r).unwrap().model
            },
            |w| w[0],
        );

        assert!(
            noiseless.empirical_eps > 2.5 * private.empirical_eps,
            "noiseless witness {} should dwarf the ε={eps} witness {}",
            noiseless.empirical_eps,
            private.empirical_eps
        );
    }

    #[test]
    #[should_panic(expected = "at least 10 trials")]
    fn degenerate_config_rejected() {
        let mut rng = bolton_rng::seeded(905);
        audit_mechanism(
            &AuditConfig { trials: 1, bins: 4, min_count: 1 },
            &mut rng,
            |_, _| vec![0.0],
            |w| w[0],
        );
    }
}
