//! Criterion micro-benchmarks of the CoScale decision path — the §3.1
//! claim: the greedy search is O(M + C·N²) and takes microseconds, not the
//! exponential O(M·Cᴺ) of brute force.

use bench::experiments::synthetic_profile;
use coscale::{CoScalePolicy, MemScalePolicy, Model, OfflinePolicy, Plan, Policy, SimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memsim::MemConfig;
use powermodel::PowerConfig;
use simkernel::Ps;
use std::hint::black_box;

struct Fixture {
    core_grid: Vec<simkernel::Freq>,
    mem_cfg: MemConfig,
    power: PowerConfig,
}

impl Fixture {
    fn new() -> Fixture {
        Fixture {
            core_grid: SimConfig::core_grid_with_steps(10),
            mem_cfg: MemConfig::default(),
            power: PowerConfig::default(),
        }
    }
}

fn bench_decision(c: &mut Criterion) {
    let fx = Fixture::new();
    let mut group = c.benchmark_group("coscale_decision");
    for &n in &[16usize, 64, 128] {
        let profile = synthetic_profile(n);
        let slack = vec![0.0; n];
        let model = Model::new(
            &profile,
            &fx.core_grid,
            &fx.mem_cfg.freq_grid,
            &fx.power,
            &slack,
            Ps::from_ms(5),
            0.10,
        );
        let current = Plan::max(n, 10, 10);
        group.bench_with_input(BenchmarkId::new("cores", n), &n, |b, _| {
            let mut policy = CoScalePolicy::default();
            b.iter(|| black_box(policy.decide(&model, &current)));
        });
    }
    group.finish();
}

fn bench_policies_at_16(c: &mut Criterion) {
    let fx = Fixture::new();
    let n = 16;
    let profile = synthetic_profile(n);
    let slack = vec![0.0; n];
    let model = Model::new(
        &profile,
        &fx.core_grid,
        &fx.mem_cfg.freq_grid,
        &fx.power,
        &slack,
        Ps::from_ms(5),
        0.10,
    );
    let current = Plan::max(n, 10, 10);
    let mut group = c.benchmark_group("policy_decision_16c");
    group.bench_function("coscale", |b| {
        let mut p = CoScalePolicy::default();
        b.iter(|| black_box(p.decide(&model, &current)));
    });
    group.bench_function("coscale_no_grouping", |b| {
        let mut p = CoScalePolicy { group_cores: false };
        b.iter(|| black_box(p.decide(&model, &current)));
    });
    group.bench_function("memscale", |b| {
        let mut p = MemScalePolicy;
        b.iter(|| black_box(p.decide(&model, &current)));
    });
    group.bench_function("offline_exhaustive_equiv", |b| {
        let mut p = OfflinePolicy;
        b.iter(|| black_box(p.decide(&model, &current)));
    });
    group.finish();
}

fn bench_model_primitives(c: &mut Criterion) {
    let fx = Fixture::new();
    let n = 16;
    let profile = synthetic_profile(n);
    let slack = vec![0.0; n];
    let model = Model::new(
        &profile,
        &fx.core_grid,
        &fx.mem_cfg.freq_grid,
        &fx.power,
        &slack,
        Ps::from_ms(5),
        0.10,
    );
    let plan = Plan::max(n, 10, 10);
    let mut group = c.benchmark_group("model_primitives");
    group.bench_function("tpi", |b| {
        b.iter(|| black_box(model.tpi(black_box(7), black_box(4), black_box(5))))
    });
    group.bench_function("ser", |b| b.iter(|| black_box(model.ser(&plan))));
    group.bench_function("power", |b| {
        b.iter(|| black_box(model.power(&plan).total()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decision,
    bench_policies_at_16,
    bench_model_primitives
);
criterion_main!(benches);
