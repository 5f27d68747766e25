//! Criterion benchmarks of the simulation substrates: DDR3 request
//! throughput, L2 access rate, warm-up and eviction cost, trace generation,
//! and whole runs through the engine.

use cluster::synthetic_fleet;
use coscale::{run_policy, PolicyKind, SimConfig};
use cpusim::{CacheConfig, CoreSim, L2Cache};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memsim::{LineAddr, MemConfig, MemEvent, MemorySystem, Outcome};
use simkernel::{EventQueue, Ps, SimRng};
use std::hint::black_box;
use workloads::{app, TraceGen};

fn bench_memsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    let n = 512u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("reads_512", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(MemConfig::default());
            let mut out = Outcome::default();
            let mut q = EventQueue::new();
            for i in 0..n {
                mem.enqueue_read(Ps::from_ns(i * 3), LineAddr(i * 17), i, &mut out);
            }
            for (t, e) in out.wakeups.drain(..) {
                q.push(t, e);
            }
            let mut done = 0u64;
            while let Some((t, e)) = q.pop() {
                if matches!(e, MemEvent::Refresh { .. }) {
                    continue;
                }
                let mut o = Outcome::default();
                mem.handle(t, e, &mut o);
                done += o.completions.len() as u64;
                for (wt, we) in o.wakeups {
                    q.push(wt, we);
                }
            }
            black_box(done)
        });
    });
    group.finish();
}

fn bench_l2(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_cache");
    let accesses = 4096u64;
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("hot_accesses", |b| {
        let mut l2 = L2Cache::new(CacheConfig::default());
        for i in 0..8192u64 {
            l2.fill(LineAddr(i), false, false);
        }
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..accesses {
                if matches!(
                    l2.access(LineAddr(rng.below(8192)), false),
                    cpusim::Access::Hit { .. }
                ) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    // What a synthetic-fleet server's construction is mostly made of:
    // allocating its 1 MiB L2 and warming it with both cores' hot lines.
    let spec = &synthetic_fleet(1, 0.0)[0].config;
    let fmax = spec.core_freqs[spec.max_core_idx()];
    let cores: Vec<CoreSim> = (0..spec.cores)
        .map(|i| CoreSim::new(i, spec.mix.app_for_core(i), spec.seed, fmax, spec.core))
        .collect();
    group.throughput(Throughput::Elements(8192));
    group.bench_function("warm_1mib", |b| {
        b.iter(|| {
            let mut l2 = L2Cache::new(spec.cache);
            for c in &cores {
                c.warm_l2(&mut l2);
            }
            black_box(l2.stats().hits)
        });
    });
    // Streaming fills into a full 4-way cache: every fill evicts the
    // least-recent way, and every other victim is dirty.
    let fills = 4096u64;
    group.throughput(Throughput::Elements(fills));
    group.bench_function("evicting_fills", |b| {
        let mut l2 = L2Cache::new(CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        let mut next = 0u64;
        b.iter(|| {
            let mut writebacks = 0u64;
            for _ in 0..fills {
                if l2
                    .fill(LineAddr(next), next.is_multiple_of(2), false)
                    .is_some()
                {
                    writebacks += 1;
                }
                next += 1;
            }
            black_box(writebacks)
        });
    });
    group.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads");
    let ops = 10_000u64;
    group.throughput(Throughput::Elements(ops));
    group.bench_function("milc_ops", |b| {
        let mut g = TraceGen::new(app("milc"), 0, 42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..ops {
                acc = acc.wrapping_add(g.next_op().line.0);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_full_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("mix2_small_coscale", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::small(workloads::mix("MIX2").expect("known"));
            cfg.target_instrs = 500_000;
            black_box(run_policy(cfg, PolicyKind::CoScale))
        });
    });
    // The paper's compute-bound path at full width: ILP1 on 16 cores,
    // where core steps, not memory, make up the event stream.
    group.bench_function("ilp1_16core", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::for_mix(workloads::mix("ILP1").expect("known"));
            cfg.target_instrs = 2_000_000;
            black_box(run_policy(cfg, PolicyKind::CoScale))
        });
    });
    // Its memory-bound twin: MEM1 on 16 cores, where the memory lanes'
    // scheduling passes and the read completions carry the event stream.
    group.bench_function("mem1_16core", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::for_mix(workloads::mix("MEM1").expect("known"));
            cfg.target_instrs = 500_000;
            black_box(run_policy(cfg, PolicyKind::CoScale))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_memsim,
    bench_l2,
    bench_tracegen,
    bench_full_epochs
);
criterion_main!(benches);
