//! Micro-benchmarks of the noise mechanisms (Appendix E sampler and the
//! Gaussian mechanism) across dimensions — the per-update cost that makes
//! SCS13/BST14 slow and that output perturbation pays exactly once.
//!
//! The `*_d50` rows are the per-step cost at the `train-fig5` dimension:
//! one `GaussianMechanism::perturb` (noise sampler, the ziggurat) against
//! the same 50 draws from the Box–Muller data sampler `standard_normal`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bolton_privacy::mechanisms::{sample_unit_sphere, GaussianMechanism, LaplaceBallMechanism};
use bolton_rng::dist::{standard_normal, Gamma};
use bolton_rng::{seeded, Rng};

fn bench_laplace_ball(c: &mut Criterion) {
    let mut group = c.benchmark_group("laplace_ball_sample");
    for dim in [5usize, 50, 500] {
        let mech = LaplaceBallMechanism::new(dim, 0.01, 0.1).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            let mut rng = seeded(1);
            bench.iter(|| black_box(mech.sample_noise(&mut rng)));
        });
    }
    group.finish();
}

fn bench_gaussian(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_sample");
    for dim in [5usize, 50, 500] {
        let mech = GaussianMechanism::new(0.01, 0.1, 1e-8).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, &d| {
            let mut rng = seeded(2);
            bench.iter(|| black_box(mech.sample_noise(&mut rng, d)));
        });
    }
    group.finish();
}

fn bench_d50(c: &mut Criterion) {
    c.bench_function("gaussian_perturb_d50", |b| {
        let mech = GaussianMechanism::new(0.01, 0.1, 1e-8).unwrap();
        let mut rng = seeded(6);
        let mut w = vec![0.0; 50];
        b.iter(|| {
            mech.perturb(&mut rng, &mut w);
            black_box(&w);
        });
    });
    c.bench_function("standard_normal_loop_d50", |b| {
        let mut rng = seeded(7);
        let mut w = vec![0.0; 50];
        b.iter(|| {
            for v in w.iter_mut() {
                *v += standard_normal(&mut rng);
            }
            black_box(&w);
        });
    });
}

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("gamma_draw_shape_50", |b| {
        let gamma = Gamma::new(50.0, 0.1);
        let mut rng = seeded(3);
        b.iter(|| black_box(gamma.sample(&mut rng)));
    });
    c.bench_function("unit_sphere_d50", |b| {
        let mut rng = seeded(4);
        b.iter(|| black_box(sample_unit_sphere(&mut rng, 50)));
    });
    c.bench_function("xoshiro_u64", |b| {
        let mut rng = seeded(5);
        b.iter(|| black_box(rng.next_u64()));
    });
}

criterion_group!(benches, bench_laplace_ball, bench_gaussian, bench_d50, bench_primitives);
criterion_main!(benches);
