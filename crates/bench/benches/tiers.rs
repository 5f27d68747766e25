//! Criterion micro-benchmarks of the multi-tier topology hot path: the
//! per-round `TraceCollector` aggregation and the critical-path budget
//! split, compared against the FastCap and SLA-aware quantum greedies at
//! the same fan-out (FastCap both congested and with a budget above total
//! demand), and against FastCap run through the split executor every fleet
//! uses (a one-group `HierSplitter`), recomputed and replayed.
//!
//! Both run once per coordination round, so they must stay far below the
//! round length even at cluster scale (~1024 children).

use cluster::{
    split_caps, split_caps_critical, split_caps_sla, BudgetTree, CapSplit, HierSplitter,
    ServerDemand, SlaSignal,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use topology::TraceCollector;

/// A deterministic heterogeneous fleet: demands spread over [40, 140) W,
/// floors at 40% of demand.
fn demands(n: usize) -> Vec<ServerDemand> {
    (0..n)
        .map(|i| {
            let demand_w = 40.0 + (i as f64 * 37.0) % 100.0;
            ServerDemand {
                demand_w,
                min_w: demand_w * 0.4,
                active: true,
            }
        })
        .collect()
}

/// Critical-path shares biased toward the tail of the child list, as a
/// storage-heavy trace window would produce.
fn shares(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|s| s / sum).collect()
}

fn bench_collector(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_collector");
    for &roots in &[64usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("record_round_3tier", roots),
            &roots,
            |b, &roots| {
                let mut col = TraceCollector::new(3, 4);
                let crit: Vec<[u64; 3]> = (0..roots)
                    .map(|i| [1_000 + i as u64, 4_000 + i as u64, 2_000])
                    .collect();
                b.iter(|| {
                    for c in &crit {
                        col.record(black_box(c));
                    }
                    col.end_round();
                    black_box(col.shares())
                });
            },
        );
    }
    group.finish();
}

fn bench_splits(c: &mut Criterion) {
    let mut group = c.benchmark_group("tier_split_1024");
    let n = 1024;
    let ds = demands(n);
    let sh = shares(n);
    let floors: Vec<f64> = ds.iter().map(|d| d.min_w).collect();
    let budget_w = ds.iter().map(|d| d.demand_w).sum::<f64>() * 0.7;
    group.bench_function("critical_path_warm", |b| {
        b.iter(|| {
            black_box(split_caps_critical(
                black_box(budget_w),
                &ds,
                Some(&sh),
                Some(&floors),
            ))
        })
    });
    group.bench_function("critical_path_sparse", |b| {
        b.iter(|| {
            black_box(split_caps_critical(
                black_box(budget_w),
                &ds,
                None,
                Some(&floors),
            ))
        })
    });
    group.bench_function("fastcap", |b| {
        b.iter(|| black_box(split_caps(CapSplit::FastCap, black_box(budget_w), &ds, 1.0)))
    });
    // The quantum `fleet_flat` and the `fleet-scale` experiment run at.
    group.bench_function("fastcap_20mw", |b| {
        b.iter(|| {
            black_box(split_caps(
                CapSplit::FastCap,
                black_box(budget_w),
                &ds,
                0.02,
            ))
        })
    });
    // FastCap at the same quantum with the budget above total demand, as
    // `fleet_flat` runs it: every server saturates, so the split grants
    // server by server instead of on the heap.
    let uncongested_w = ds.iter().map(|d| d.demand_w).sum::<f64>() * 1.1;
    group.bench_function("fastcap_20mw_uncongested", |b| {
        b.iter(|| {
            black_box(split_caps(
                CapSplit::FastCap,
                black_box(uncongested_w),
                &ds,
                0.02,
            ))
        })
    });
    // The same split through the executor: invalidated every iteration it
    // recomputes, so the gap to `fastcap_20mw` is the executor's overhead;
    // left warm, every iteration is a root replay.
    let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let tree = BudgetTree::flat(CapSplit::FastCap, &names);
    let mut splitter = HierSplitter::compile(&tree, &names, 0.0);
    group.bench_function("compiled_fastcap_20mw", |b| {
        b.iter(|| {
            splitter.invalidate();
            black_box(splitter.split(black_box(budget_w), &ds, None, 0.02))
        })
    });
    group.bench_function("compiled_replay", |b| {
        b.iter(|| black_box(splitter.split(black_box(budget_w), &ds, None, 0.02)))
    });
    // A third of the children violating, a third meeting, a third unknown.
    let sla: Vec<SlaSignal> = (0..n)
        .map(|i| SlaSignal {
            p99_s: [2e-3, 0.5e-3, 0.0][i % 3],
            target_s: 1e-3,
        })
        .collect();
    group.bench_function("sla_aware", |b| {
        b.iter(|| black_box(split_caps_sla(black_box(budget_w), &ds, &sla, 1.0)))
    });
    group.finish();
}

criterion_group!(benches, bench_collector, bench_splits);
criterion_main!(benches);
