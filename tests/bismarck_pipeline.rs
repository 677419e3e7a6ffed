//! Cross-crate storage-engine pipeline tests: SQL → tables → UDA training,
//! including larger-than-memory equivalence (the property behind Figure 2b:
//! "scalability to larger-than-memory data comes for free").

use bolton::{metrics, TrainSet};
use bolton_bismarck::driver::{train, DriverConfig};
use bolton_bismarck::sql::{run, QueryResult};
use bolton_bismarck::{Backing, Catalog, SynthSpec, Table};
use bolton_sgd::loss::Logistic;
use bolton_sgd::schedule::StepSize;

/// A full SQL session that ends in a trained model.
#[test]
fn sql_session_trains_model() {
    let mut catalog = Catalog::new();
    run(&mut catalog, "CREATE TABLE t (DIM 10)").unwrap();
    run(&mut catalog, "SYNTH t ROWS 2000 SEED 77").unwrap();
    assert_eq!(run(&mut catalog, "SELECT COUNT(*) FROM t").unwrap(), QueryResult::Count(2000));

    let loss = Logistic::plain();
    let config = DriverConfig::new(5, StepSize::Constant(0.8));
    let table = catalog.get_mut("t").unwrap();
    let mut rng = bolton_rng::seeded(78);
    let out = train(table, &loss, &config, &mut rng, None, None).unwrap();
    let acc = metrics::accuracy(&out.model, table);
    assert!(acc > 0.93, "clean synthetic data should be learnable: {acc}");
}

/// The same seed must produce the same model whether the table lives in
/// memory or on disk behind a tiny buffer pool — storage is transparent to
/// training.
#[test]
fn disk_and_memory_training_agree_exactly() {
    let spec = SynthSpec { rows: 800, dim: 30, label_noise: 0.1, feature_scale: 1.0 };
    let loss = Logistic::plain();
    let config = DriverConfig::new(3, StepSize::InvSqrtT).with_batch_size(7);

    let run_with = |backing: Backing, pool: usize| {
        let mut gen_rng = bolton_rng::seeded(500);
        let mut table =
            bolton_bismarck::synthesize("t", &spec, backing, pool, &mut gen_rng).unwrap();
        let mut rng = bolton_rng::seeded(501);
        train(&mut table, &loss, &config, &mut rng, None, None).unwrap().model
    };

    let in_memory = run_with(Backing::Memory, 256);
    let on_disk = run_with(Backing::TempFile, 3);
    assert_eq!(in_memory, on_disk, "storage backend must not affect the trained model");
}

/// Disk-backed training with a starved pool really does hit the eviction
/// path (otherwise the test above proves nothing).
#[test]
fn starved_pool_evicts_during_training() {
    let spec = SynthSpec { rows: 1000, dim: 100, label_noise: 0.0, feature_scale: 1.0 };
    let mut gen_rng = bolton_rng::seeded(502);
    let mut table =
        bolton_bismarck::synthesize("t", &spec, Backing::TempFile, 3, &mut gen_rng).unwrap();
    table.reset_pool_stats();
    let loss = Logistic::plain();
    let config = DriverConfig::new(2, StepSize::Constant(0.5));
    let mut rng = bolton_rng::seeded(503);
    train(&mut table, &loss, &config, &mut rng, None, None).unwrap();
    let stats = table.pool_stats();
    assert!(stats.evictions > 50, "expected heavy eviction traffic, saw {stats:?}");
}

/// A Bismarck table is a TrainSet: the private trainers run on it directly,
/// producing the same models as on in-memory data.
#[test]
fn private_training_runs_directly_on_tables() {
    use bolton::api::{AlgorithmKind, LossKind, TrainPlan};
    use bolton::{Budget, InMemoryDataset};
    let spec = SynthSpec { rows: 1500, dim: 12, label_noise: 0.05, feature_scale: 1.0 };
    let mut gen_rng = bolton_rng::seeded(504);
    let table =
        bolton_bismarck::synthesize("t", &spec, Backing::TempFile, 8, &mut gen_rng).unwrap();

    let plan = TrainPlan::new(
        LossKind::Logistic { lambda: 1e-3 },
        AlgorithmKind::BoltOn,
        Some(Budget::pure(0.5).unwrap()),
    )
    .with_passes(5)
    .with_batch_size(10);
    let model = plan.train(&table, &mut bolton_rng::seeded(505)).unwrap();
    assert_eq!(model.len(), TrainSet::dim(&table));

    let (mut features, mut labels) = (Vec::new(), Vec::new());
    table
        .scan_rows(&mut |_, x, y| {
            features.extend_from_slice(x);
            labels.push(y);
        })
        .unwrap();
    let in_memory = InMemoryDataset::from_flat(features, labels, spec.dim);
    let reference = plan.train(&in_memory, &mut bolton_rng::seeded(505)).unwrap();
    assert_eq!(model, reference, "a table and the same rows in memory must train alike");

    let acc = metrics::accuracy(&model, &table);
    assert!(acc > 0.8, "private model on table: accuracy {acc}");
}

/// Shuffling between epochs (ORDER BY RANDOM()) preserves the row multiset
/// even on disk, across several rounds.
#[test]
fn repeated_shuffles_preserve_data_on_disk() {
    let spec = SynthSpec { rows: 300, dim: 40, label_noise: 0.0, feature_scale: 1.0 };
    let mut gen_rng = bolton_rng::seeded(506);
    let mut table =
        bolton_bismarck::synthesize("t", &spec, Backing::TempFile, 4, &mut gen_rng).unwrap();
    let sum_of = |t: &Table| {
        let mut sum = 0.0;
        t.scan_rows(&mut |_, x, y| sum += x.iter().sum::<f64>() + y).unwrap();
        sum
    };
    let before = sum_of(&table);
    let mut rng = bolton_rng::seeded(507);
    for _ in 0..3 {
        table.shuffle(&mut rng).unwrap();
        assert_eq!(table.row_count(), 300);
        let after = sum_of(&table);
        assert!((before - after).abs() < 1e-9, "shuffle changed data: {before} vs {after}");
    }
}
