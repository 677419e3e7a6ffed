//! In-RDBMS experiment support: run each of the four algorithms through the
//! Bismarck epoch driver, mirroring the paper's integration (Figure 1) for
//! the runtime/scalability experiments (Figures 2 and 5).

use bolton::bst14::{calibrate, Bst14Config};
use bolton::output_perturbation::{calibrate_sensitivity, paper_step_size, BoltOnConfig};
use bolton::{Budget, InMemoryDataset, TrainSet};
use bolton_bismarck::driver::{train, DriverConfig, TrainedModel};
use bolton_bismarck::{Backing, Table};
use bolton_privacy::mechanisms::{GaussianMechanism, LaplaceBallMechanism, NoiseMechanism};
use bolton_rng::Rng;
use bolton_sgd::engine::BatchPlan;
use bolton_sgd::loss::{Logistic, Loss};
use std::time::{Duration, Instant};

/// Loads an in-memory dataset into a Bismarck table.
pub fn table_from_dataset(
    data: &InMemoryDataset,
    name: &str,
    backing: Backing,
    pool_pages: usize,
) -> Table {
    let mut table = Table::create(name, data.dim(), backing, pool_pages).expect("table creation");
    for i in 0..data.len() {
        table.insert(data.features_of(i), data.label_of(i)).expect("insert row");
    }
    table.flush().expect("flush");
    table
}

/// Which algorithm to push through the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BisAlg {
    /// Regular Bismarck (Figure 1 A).
    Noiseless,
    /// Output perturbation at the controller (Figure 1 B).
    Ours,
    /// Per-batch Laplace/Gaussian noise in the UDA (Figure 1 C).
    Scs13,
    /// Per-batch Gaussian noise with BST14's calibration (Figure 1 C).
    Bst14,
}

impl BisAlg {
    /// All four, in the paper's legend order.
    pub const ALL: [BisAlg; 4] = [BisAlg::Noiseless, BisAlg::Ours, BisAlg::Scs13, BisAlg::Bst14];

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            BisAlg::Noiseless => "Noiseless",
            BisAlg::Ours => "Ours",
            BisAlg::Scs13 => "SCS13",
            BisAlg::Bst14 => "BST14",
        }
    }
}

/// Runs one training job inside Bismarck, returning the model and the
/// wall-clock time of the epoch loop (shuffle included, like the paper's
/// per-epoch runtime measurements).
///
/// Uses the strongly convex (ε, δ) setting of Figures 2/5: L2-regularized
/// logistic regression, `R = 1/λ`, Gaussian noise.
pub fn run_bismarck_sc(
    table: &mut Table,
    alg: BisAlg,
    lambda: f64,
    eps: f64,
    epochs: usize,
    batch: usize,
    seed: u64,
) -> (TrainedModel, Duration) {
    let m = table.row_count();
    let dim = TrainSet::dim(table);
    let delta = 1.0 / (m as f64 * m as f64);
    let budget = Budget::approx(eps, delta).expect("budget");
    let radius = 1.0 / lambda;
    let loss = Logistic::regularized(lambda, radius);
    let step = paper_step_size(&loss, m);
    let config = DriverConfig { step, ..DriverConfig::new(epochs, step) }
        .with_batch_size(batch)
        .with_projection(radius);
    let mut rng = bolton_rng::seeded(seed);
    let mut noise_rng = rng.fork_stream();

    let start = Instant::now();
    let out = match alg {
        BisAlg::Noiseless => train(table, &loss, &config, &mut rng, None, None).expect("train"),
        BisAlg::Ours => {
            let bolt = BoltOnConfig::new(budget)
                .with_passes(epochs)
                .with_batch_size(batch)
                .with_projection(radius);
            let delta2 = calibrate_sensitivity(&loss, &bolt, m).expect("sensitivity");
            let mechanism = NoiseMechanism::for_budget(&budget, dim, delta2).expect("mechanism");
            let mut output = |w: &mut [f64]| mechanism.perturb(&mut noise_rng, w);
            train(table, &loss, &config, &mut rng, None, Some(&mut output)).expect("train")
        }
        BisAlg::Scs13 => {
            let per_pass = budget.split_even(epochs);
            let grad_sens = 2.0 * loss.lipschitz() / batch as f64;
            let mech = GaussianMechanism::new(grad_sens, per_pass.eps(), per_pass.delta())
                .expect("mechanism");
            let mut hook = |_t: u64, g: &mut [f64]| mech.perturb(&mut noise_rng, g);
            train(table, &loss, &config, &mut rng, Some(&mut hook), None).expect("train")
        }
        BisAlg::Bst14 => {
            let bst = Bst14Config::new(budget, radius).with_passes(epochs).with_batch_size(batch);
            let cal = calibrate(&loss, &bst, m, dim).expect("calibration");
            let mech = GaussianMechanism::from_sigma(cal.sigma_sq.sqrt()).expect("mechanism");
            let plan = BatchPlan::new(m, batch);
            let batches = plan.batches as u64;
            let mut hook = |t: u64, g: &mut [f64]| {
                let len = plan.size_of(((t - 1) % batches) as usize);
                bolton_linalg::vector::scale(len as f64, g);
                mech.perturb(&mut noise_rng, g);
            };
            train(table, &loss, &config, &mut rng, Some(&mut hook), None).expect("train")
        }
    };
    (out, start.elapsed())
}

/// ε-DP per-batch noise variant of SCS13 used by the pure-DP runtime cells.
pub fn scs13_pure_hook<'a, R: Rng>(
    loss: &dyn Loss,
    dim: usize,
    batch: usize,
    eps_per_pass: f64,
    noise_rng: &'a mut R,
) -> impl FnMut(u64, &mut [f64]) + 'a {
    let grad_sens = 2.0 * loss.lipschitz() / batch as f64;
    let mech = LaplaceBallMechanism::new(dim, grad_sens, eps_per_pass).expect("mechanism");
    move |_t, g: &mut [f64]| mech.perturb(noise_rng, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolton_data::{generate_scaled, DatasetSpec};

    #[test]
    fn all_four_run_in_bismarck() {
        let bench = generate_scaled(DatasetSpec::Covtype, 51, 0.002);
        for alg in BisAlg::ALL {
            let mut table = table_from_dataset(&bench.train, "t", Backing::Memory, 256);
            let (out, elapsed) = run_bismarck_sc(&mut table, alg, 1e-4, 0.1, 2, 10, 52);
            assert_eq!(out.epochs_run, 2, "{}", alg.label());
            assert!(out.model.iter().all(|v| v.is_finite()), "{}", alg.label());
            assert!(elapsed.as_nanos() > 0);
        }
    }

    #[test]
    fn disk_backed_run_works() {
        let bench = generate_scaled(DatasetSpec::Covtype, 53, 0.002);
        let mut table = table_from_dataset(&bench.train, "t", Backing::TempFile, 4);
        let (out, _) = run_bismarck_sc(&mut table, BisAlg::Ours, 1e-4, 0.1, 1, 10, 54);
        assert!(out.model.iter().all(|v| v.is_finite()));
    }
}
