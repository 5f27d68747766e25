//! The FastCap and SLA-aware splits against two independent references.
//!
//! * **The linear scans they replaced.** Both greedies used to scan every
//!   server for every quantum. Those loops are kept below, verbatim, as
//!   reference implementations; the max-heap greedy, and FastCap's
//!   server-by-server pass where its budget outlasts every bid, must
//!   reproduce their caps to the bit (`to_bits`) over exact ties, inactive
//!   and zero-headroom servers, every budget regime, quanta from 1 mW to
//!   10 W, and mixed SLA signals.
//! * **The continuous optimum.** FastCap's objective
//!   `max Σ demand·sqrt((c − min)/headroom)` subject to the budget is a
//!   concave program whose solution is a water level on the dual price λ
//!   (Liu et al.). Below saturation the quantum greedy must never sit more
//!   than one quantum below it, and on fleet-like servers must stay within
//!   two quanta of it either way.
//! * **The flat split as a one-group tree.** Every fleet layer runs its
//!   flat split through `HierSplitter` over `BudgetTree::flat`, so the
//!   one-group tree must reproduce `split_caps` and `split_caps_sla` over
//!   raw signals to the bit.

use cluster::{
    split_caps, split_caps_sla, BudgetTree, CapSplit, HierSplitter, ServerDemand, SlaSignal,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference: the per-quantum scan loops, as they stood before the heap.
// ---------------------------------------------------------------------------

const CLIP_EPS_W: f64 = 1e-9;

fn headroom(d: &ServerDemand) -> f64 {
    (d.demand_w - d.min_w).max(0.0)
}

fn perf_at(d: &ServerDemand, cap: f64) -> f64 {
    let headroom = headroom(d);
    if headroom <= 0.0 {
        return 1.0;
    }
    let fill = ((cap - d.min_w) / headroom).clamp(0.0, 1.0);
    fill.sqrt()
}

fn utility_at(d: &ServerDemand, cap: f64) -> f64 {
    d.demand_w * perf_at(d, cap)
}

fn floors(global_cap_w: f64, demands: &[ServerDemand]) -> Vec<f64> {
    let total_min: f64 = demands.iter().filter(|d| d.active).map(|d| d.min_w).sum();
    let scale = if total_min > global_cap_w {
        global_cap_w / total_min
    } else {
        1.0
    };
    demands
        .iter()
        .map(|d| if d.active { d.min_w * scale } else { 0.0 })
        .collect()
}

fn ref_sla_core(
    global_cap_w: f64,
    demands: &[ServerDemand],
    sla: &[SlaSignal],
    quantum_w: f64,
) -> Vec<f64> {
    assert_eq!(demands.len(), sla.len(), "one SLA signal per server");
    let n_active = demands.iter().filter(|d| d.active).count();
    if n_active == 0 {
        return vec![0.0; demands.len()];
    }
    let desired: Vec<f64> = demands
        .iter()
        .zip(sla)
        .map(|(d, s)| {
            if !d.active {
                0.0
            } else if s.violating() || s.p99_s <= 0.0 || s.target_s <= 0.0 {
                d.demand_w
            } else {
                let ratio = (s.p99_s / s.target_s).clamp(0.0, 1.0);
                (d.min_w + headroom(d) * (0.25 + 0.75 * ratio)).min(d.demand_w)
            }
        })
        .collect();
    let mut caps = floors(global_cap_w, demands);
    let desired: Vec<f64> = desired
        .iter()
        .zip(&caps)
        .map(|(&want, &floor)| want.max(floor))
        .collect();
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let mut clipped = vec![false; demands.len()];
    for violators_only in [true, false] {
        if demands
            .iter()
            .enumerate()
            .all(|(i, d)| !d.active || clipped[i] || desired[i] - caps[i] <= CLIP_EPS_W)
        {
            break;
        }
        while spare > 1e-9 {
            let q = quantum_w.min(spare);
            let mut best: Option<(usize, f64)> = None;
            for (i, d) in demands.iter().enumerate() {
                if !d.active || clipped[i] || desired[i] - caps[i] <= CLIP_EPS_W {
                    continue;
                }
                if violators_only && !sla[i].violating() {
                    continue;
                }
                let gain = utility_at(d, caps[i] + q) - utility_at(d, caps[i]);
                if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            match best {
                Some((i, _)) => {
                    let grant = q.min(desired[i] - caps[i]);
                    let before = caps[i];
                    caps[i] += grant;
                    if caps[i] == before {
                        clipped[i] = true;
                    } else {
                        spare -= grant;
                    }
                }
                None => break,
            }
        }
    }
    caps
}

fn ref_fastcap_core(
    global_cap_w: f64,
    demands: &[ServerDemand],
    quantum_w: f64,
    parks: bool,
) -> Vec<f64> {
    let mut caps = floors(global_cap_w, demands);
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let mut clipped = vec![false; demands.len()];
    while spare > 1e-9 {
        let q = quantum_w.min(spare);
        let mut best: Option<(usize, f64)> = None;
        for (i, d) in demands.iter().enumerate() {
            let saturated = if parks {
                clipped[i] || caps[i] >= d.demand_w
            } else {
                clipped[i] || d.demand_w - caps[i] <= CLIP_EPS_W
            };
            if !d.active || saturated {
                continue;
            }
            let gain = utility_at(d, caps[i] + q) - utility_at(d, caps[i]);
            if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((i, _)) => {
                let grant = if parks {
                    q
                } else {
                    q.min(demands[i].demand_w - caps[i])
                };
                let before = caps[i];
                caps[i] += grant;
                if caps[i] == before {
                    clipped[i] = true;
                } else {
                    spare -= grant;
                }
            }
            None => {
                if parks {
                    let n_active = demands.iter().filter(|d| d.active).count() as f64;
                    for (cap, d) in caps.iter_mut().zip(demands) {
                        if d.active {
                            *cap += spare / n_active;
                        }
                    }
                }
                break;
            }
        }
    }
    caps
}

/// The reference for `split_caps` on the two greedy disciplines, including
/// its all-inactive early return.
fn ref_split_caps(split: CapSplit, global_cap_w: f64, ds: &[ServerDemand], q: f64) -> Vec<f64> {
    if !ds.iter().any(|d| d.active) {
        return vec![0.0; ds.len()];
    }
    let park = match split {
        CapSplit::FastCap => true,
        CapSplit::SlaAware => false,
        other => panic!("no greedy reference for {other}"),
    };
    ref_fastcap_core(global_cap_w, ds, q, park)
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

/// One server's raw draws: `(kind, a, b, sla_kind, u)`.
type RawServer = (u8, f64, f64, u8, f64);

fn raw_servers(max: usize) -> impl Strategy<Value = Vec<RawServer>> {
    prop::collection::vec(
        (0u8..8, 0.0f64..1.0, 0.0f64..1.0, 0u8..4, 0.0f64..1.0),
        1..max,
    )
}

/// Servers sized in quanta, so every quantum from 1 mW to 10 W sees a few
/// hundred grants per server at most. Kind 0 duplicates the previous
/// server exactly (every bid ties), kind 1 is inactive, kind 2 has no
/// headroom (its floor at or above its demand); the rest are ordinary.
fn fleet(raw: &[RawServer], quantum_w: f64) -> Vec<ServerDemand> {
    let mut ds: Vec<ServerDemand> = Vec::with_capacity(raw.len());
    for &(kind, a, b, _, _) in raw {
        let demand_w = quantum_w * (2.0 + 300.0 * a);
        let fresh = ServerDemand {
            demand_w,
            min_w: demand_w * (0.1 + 0.7 * b),
            active: true,
        };
        let d = match kind {
            0 => *ds.last().unwrap_or(&fresh),
            1 => ServerDemand {
                active: false,
                ..fresh
            },
            2 => ServerDemand {
                min_w: demand_w * (1.0 + b),
                ..fresh
            },
            _ => fresh,
        };
        ds.push(d);
    }
    ds
}

/// Violating, meeting, unknown (`p99 == 0`) and target-less signals.
fn signals(raw: &[RawServer]) -> Vec<SlaSignal> {
    raw.iter()
        .map(|&(_, _, _, kind, u)| {
            let target_s = 1e-3;
            match kind {
                0 => SlaSignal {
                    p99_s: target_s * (1.0 + 2.0 * u),
                    target_s,
                },
                1 => SlaSignal {
                    p99_s: target_s * u,
                    target_s,
                },
                2 => SlaSignal {
                    p99_s: 0.0,
                    target_s,
                },
                _ => SlaSignal {
                    p99_s: target_s * u,
                    target_s: 0.0,
                },
            }
        })
        .collect()
}

/// A budget in one of six regimes relative to the sums of the active
/// floors and demands in `ds`: below the floors, between floors and
/// demand, inside the last few quanta below demand (where
/// `spare < quantum` and clipped grants meet), just above demand, within
/// two quanta of where FastCap's spare starts to cover every climb from
/// floor to demand in whole quanta (`ceil(headroom / quantum) + 1` per
/// active server, plus one), where the split switches from the heap to
/// granting server by server, and far above it (FastCap's parking path).
fn budget(regime: u8, frac: f64, ds: &[ServerDemand], quantum_w: f64) -> f64 {
    let floor_w = active_sum(ds, |_, d| d.min_w);
    let demand_w = active_sum(ds, |_, d| d.demand_w);
    match regime {
        0 => floor_w * (0.2 + 0.8 * frac),
        1 => floor_w + frac * (demand_w - floor_w).max(0.0),
        2 => (demand_w - 3.0 * quantum_w * frac).max(0.0),
        3 => demand_w + quantum_w * frac,
        4 => {
            let quanta = active_sum(ds, |_, d| {
                ((d.demand_w - d.min_w) / quantum_w).ceil().max(0.0) + 1.0
            }) + 1.0;
            floor_w + quantum_w * (quanta - 2.0 + 4.0 * frac)
        }
        _ => demand_w * (2.0 + 10.0 * frac) + 1.0,
    }
}

fn active_sum(ds: &[ServerDemand], f: impl Fn(usize, &ServerDemand) -> f64) -> f64 {
    ds.iter()
        .enumerate()
        .filter(|(_, d)| d.active)
        .map(|(i, d)| f(i, d))
        .sum()
}

fn bits(caps: &[f64]) -> Vec<u64> {
    caps.iter().map(|c| c.to_bits()).collect()
}

fn assert_bit_identical(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(
        bits(got),
        bits(want),
        "{what}: {got:?} vs reference {want:?}"
    );
}

/// Checks every greedy entry point against its reference on one instance.
fn check_instance(ds: &[ServerDemand], sla: &[SlaSignal], budget_w: f64, q: f64) {
    let tag = |f: &str| format!("{f} budget {budget_w} quantum {q}");
    for split in [CapSplit::FastCap, CapSplit::SlaAware] {
        assert_bit_identical(
            &tag(&split.to_string()),
            &split_caps(split, budget_w, ds, q),
            &ref_split_caps(split, budget_w, ds, q),
        );
    }
    assert_bit_identical(
        &tag("split_caps_sla"),
        &split_caps_sla(budget_w, ds, sla, q),
        &ref_sla_core(budget_w, ds, sla, q),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every greedy entry point is bit-identical to its linear-scan
    /// reference, with budgets placed against the floors.
    #[test]
    fn heap_greedy_matches_scan_reference(
        raw in raw_servers(17),
        log_q in -3.0f64..1.0,
        regime in 0u8..6,
        frac in 0.0f64..1.0,
    ) {
        let q = 10f64.powf(log_q);
        let ds = fleet(&raw, q);
        let b = budget(regime, frac, &ds, q);
        check_instance(&ds, &signals(&raw), b, q);
    }
}

/// Fleet-sized magnitudes: 64 servers of 40–140 W at the 20 mW and 1 W
/// quanta the fleets run, with budgets from scarce to past saturation.
#[test]
fn heap_greedy_matches_scan_reference_at_fleet_magnitudes() {
    let ds: Vec<ServerDemand> = (0..64)
        .map(|i| {
            let demand_w = 40.0 + (i as f64 * 37.0) % 100.0;
            ServerDemand {
                demand_w,
                min_w: demand_w * 0.4,
                active: i % 7 != 3,
            }
        })
        .collect();
    let sla: Vec<SlaSignal> = (0..64)
        .map(|i| SlaSignal {
            p99_s: [2e-3, 0.4e-3, 0.0, 0.9e-3][i % 4],
            target_s: 1e-3,
        })
        .collect();
    let demand_sum = active_sum(&ds, |_, d| d.demand_w);
    for q in [0.02, 1.0] {
        for share in [0.3, 0.7, 0.95, 1.0, 1.5] {
            check_instance(&ds, &sla, demand_sum * share, q);
        }
    }
}

/// The heap is rebuilt only when the quantum changes: in the tail, where
/// `spare < quantum` and grants clip at demand or desire. Quanta larger
/// than most headrooms put nearly every grant there.
#[test]
fn heap_greedy_matches_scan_reference_in_the_clipped_tail() {
    let ds: Vec<ServerDemand> = [13.7, 9.1, 13.7, 4.3, 27.9, 6.6]
        .iter()
        .map(|&h| ServerDemand {
            demand_w: 20.0 + h,
            min_w: 20.0,
            active: true,
        })
        .collect();
    let sla: Vec<SlaSignal> = [3e-3, 0.5e-3, 3e-3, 0.0, 0.8e-3, 2e-3]
        .iter()
        .map(|&p99_s| SlaSignal {
            p99_s,
            target_s: 1e-3,
        })
        .collect();
    let demand_sum: f64 = ds.iter().map(|d| d.demand_w).sum();
    for q in [5.0, 10.0, 7.3] {
        for k in 0..12 {
            check_instance(&ds, &sla, demand_sum - 0.37 * q * k as f64, q);
        }
    }
}

// ---------------------------------------------------------------------------
// The flat split as a one-group tree.
// ---------------------------------------------------------------------------

const ALL_SPLITS: [CapSplit; 5] = [
    CapSplit::Uniform,
    CapSplit::DemandProportional,
    CapSplit::FastCap,
    CapSplit::SlaAware,
    CapSplit::CriticalPath,
];

/// Raw latency signals over mixed targets: violating, meeting, p99 equal
/// to its target, one ULP above it, no samples yet, and no target.
fn mixed_signals(raw: &[(u8, f64, f64)]) -> Vec<SlaSignal> {
    raw.iter()
        .map(|&(kind, t, u)| {
            let target_s = 1e-4 + 2e-3 * t;
            let p99_s = match kind {
                0 => target_s * (1.0 + 2.0 * u),
                1 => target_s * u,
                2 => target_s,
                3 => f64::from_bits(target_s.to_bits() + 1),
                4 => 0.0,
                _ => {
                    return SlaSignal {
                        p99_s: target_s * u,
                        target_s: 0.0,
                    }
                }
            };
            SlaSignal { p99_s, target_s }
        })
        .collect()
}

/// Splits through a one-group `HierSplitter` over `names`.
fn one_group(
    split: CapSplit,
    budget_w: f64,
    ds: &[ServerDemand],
    sla: Option<&[SlaSignal]>,
    q: f64,
) -> Vec<f64> {
    let names: Vec<String> = (0..ds.len()).map(|i| format!("s{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    HierSplitter::new(&BudgetTree::flat(split, &names), &names).split(budget_w, ds, sla, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A one-group compiled tree is the flat split: `to_bits`-identical
    /// caps to `split_caps` for every discipline without signals, and to
    /// `split_caps_sla` over the raw per-server signals with them — the
    /// tree normalizes each signal to `p99/target` against a target of 1.
    #[test]
    fn one_group_tree_matches_the_flat_split(
        raw in raw_servers(17),
        sla_raw in prop::collection::vec((0u8..6, 0.0f64..1.0, 0.0f64..1.0), 16),
        log_q in -3.0f64..1.0,
        regime in 0u8..6,
        frac in 0.0f64..1.0,
    ) {
        let q = 10f64.powf(log_q);
        let ds = fleet(&raw, q);
        let b = budget(regime, frac, &ds, q);
        let tag = |f: &str| format!("one-group {f} budget {b} quantum {q}");
        for split in ALL_SPLITS {
            assert_bit_identical(
                &tag(&split.to_string()),
                &one_group(split, b, &ds, None, q),
                &split_caps(split, b, &ds, q),
            );
        }
        let sla = mixed_signals(&sla_raw[..ds.len()]);
        assert_bit_identical(
            &tag("sla-aware with signals"),
            &one_group(CapSplit::SlaAware, b, &ds, Some(&sla), q),
            &split_caps_sla(b, &ds, &sla, q),
        );
    }
}

// ---------------------------------------------------------------------------
// Oracle: the continuous water level.
// ---------------------------------------------------------------------------

/// Watts above each floor that maximize `Σ demand·sqrt(x/headroom)` with
/// `Σ x = spare_w` and `0 ≤ x ≤ headroom`: at dual price λ each server
/// takes `x = (demand / (2λ·sqrt(headroom)))²`, clipped to its headroom,
/// and λ is bisected (geometrically) until the grants use the budget.
fn water_level(ds: &[ServerDemand], spare_w: f64) -> Vec<f64> {
    let take = |lambda: f64| -> Vec<f64> {
        ds.iter()
            .map(|d| {
                let h = headroom(d);
                (d.demand_w / (2.0 * lambda * h.sqrt())).powi(2).min(h)
            })
            .collect()
    };
    let (mut lo, mut hi) = (1e-12f64, 1e12f64);
    for _ in 0..300 {
        let mid = (lo * hi).sqrt();
        if take(mid).iter().sum::<f64>() > spare_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    take((lo * hi).sqrt())
}

/// A small deterministic generator in `[0, 1)`.
fn lcg(seed: &mut u64) -> f64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*seed >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs the non-parking greedies on 360 random instances (2–64 servers,
/// quanta 0.05–1 W, budgets strictly between the floor and demand sums,
/// demands and floor fractions drawn from the given ranges) and returns the
/// largest distance of a cap above and below its water level, in quanta.
fn water_level_distances(
    demand_w: (f64, f64),
    floor_frac: (f64, f64),
    mut seed: u64,
) -> (f64, f64) {
    let (mut above, mut below) = (0.0f64, 0.0f64);
    for _ in 0..360 {
        let n = 2 + (lcg(&mut seed) * 63.0) as usize;
        let q = 0.05 + 0.95 * lcg(&mut seed);
        let ds: Vec<ServerDemand> = (0..n)
            .map(|_| {
                let demand_w = demand_w.0 + (demand_w.1 - demand_w.0) * lcg(&mut seed);
                ServerDemand {
                    demand_w,
                    min_w: demand_w
                        * (floor_frac.0 + (floor_frac.1 - floor_frac.0) * lcg(&mut seed)),
                    active: true,
                }
            })
            .collect();
        let floor_sum: f64 = ds.iter().map(|d| d.min_w).sum();
        let demand_sum: f64 = ds.iter().map(|d| d.demand_w).sum();
        let budget_w = floor_sum + (0.02 + 0.96 * lcg(&mut seed)) * (demand_sum - floor_sum);
        let x = water_level(&ds, budget_w - floor_sum);
        let greedy = [
            split_caps(CapSplit::SlaAware, budget_w, &ds, q),
            split_caps(CapSplit::FastCap, budget_w, &ds, q),
        ];
        for caps in &greedy {
            for (i, d) in ds.iter().enumerate() {
                let off = (caps[i] - d.min_w - x[i]) / q;
                above = above.max(off);
                below = below.max(-off);
            }
        }
    }
    (above, below)
}

/// The greedy is the exact optimum of the problem discretized into quanta,
/// so it can sit at most one quantum below the continuous water level on
/// any server (the proximity theorem for separable concave allocation).
/// The quanta those shortfalls free up move the price, and a price move
/// shifts each server's grant in proportion to the grant itself, so how
/// far a cap can sit *above* the water level grows with how unequal the
/// servers are: fleet-like servers (40–140 W, floors at 40%) stay within
/// two quanta either way, while a wider spread (40–200 W, floors at
/// 20–60%) measured 2.63 quanta above at worst.
#[test]
fn non_parking_greedy_tracks_the_continuous_water_level() {
    let (above, below) = water_level_distances((40.0, 140.0), (0.4, 0.4), 0x5eed_f00d);
    assert!(
        above <= 2.0 && below <= 2.0,
        "fleet-like servers: {above:.3} quanta above, {below:.3} below"
    );
    let (above, below) = water_level_distances((40.0, 200.0), (0.2, 0.6), 0x5eed_f00d);
    assert!(below <= 1.0, "wide spread: {below:.3} quanta below");
    assert!(above <= 3.0, "wide spread: {above:.3} quanta above");
}
