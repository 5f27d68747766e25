//! Property tests for the front-end load balancer, centred on the
//! PowerHeadroom policy's highest-averages (D'Hondt) apportionment —
//! previously only exercised end-to-end through serving runs — and on the
//! router's contract: an endless stream of targets whose round-robin
//! cursor lands back in the balancer as it advances.
//!
//! The key subtlety is ties: D'Hondt breaks equal averages toward the
//! lowest server index, which is *not* permutation-equivariant (see
//! `dhondt_ties_break_toward_lowest_index_and_defeat_naive_permutation`),
//! so the permutation property is asserted only for pairwise-distinct
//! weights, and tie behavior is pinned by a model implementation instead.

use cluster::{BalancePolicy, LoadBalancer, ServerDemand, ServerLoad};
use proptest::prelude::*;

fn load(demand_w: f64, min_w: f64, cap_w: f64, queue_depth: usize) -> ServerLoad {
    ServerLoad {
        demand: ServerDemand {
            demand_w,
            min_w,
            active: true,
        },
        cap_w,
        queue_depth,
    }
}

/// The balancer's weight function, mirrored from the coordinator's
/// predicted-absolute-performance curve: `demand × sqrt(fill)` where
/// `fill` is the fraction of the demand headroom the cap covers (a server
/// at or below its floor predicts zero performance; one with no headroom
/// predicts full).
fn model_weight(l: &ServerLoad) -> f64 {
    let headroom = (l.demand.demand_w - l.demand.min_w).max(0.0);
    let perf = if headroom <= 0.0 {
        1.0
    } else {
        ((l.cap_w - l.demand.min_w) / headroom)
            .clamp(0.0, 1.0)
            .sqrt()
    };
    (l.demand.demand_w * perf).max(0.0)
}

/// Reference D'Hondt: assign each request to the server maximizing
/// `weight / (assigned + 1)`, strict-greater comparison so ties stay with
/// the lowest index. Returns per-server counts.
fn model_dhondt(weights: &[f64], count: usize) -> Vec<usize> {
    let mut assigned = vec![0usize; weights.len()];
    for _ in 0..count {
        let mut best = 0usize;
        let mut best_avg = f64::NEG_INFINITY;
        for (i, &w) in weights.iter().enumerate() {
            let avg = w / (assigned[i] + 1) as f64;
            if avg > best_avg {
                best = i;
                best_avg = avg;
            }
        }
        assigned[best] += 1;
    }
    assigned
}

/// The first `count` targets a fresh `policy` balancer routes over `loads`.
fn routed(policy: BalancePolicy, loads: &[ServerLoad], count: usize) -> Vec<usize> {
    LoadBalancer::new(policy).route(loads).take(count).collect()
}

const POLICIES: [BalancePolicy; 3] = [
    BalancePolicy::RoundRobin,
    BalancePolicy::LeastQueue,
    BalancePolicy::PowerHeadroom,
];

fn counts(assign: &[usize], fleet: usize) -> Vec<usize> {
    let mut c = vec![0usize; fleet];
    for &i in assign {
        c[i] += 1;
    }
    c
}

/// A deterministic fleet whose telemetry is scrambled by `seed` (a small
/// multiplicative generator — the vendored proptest shim has no collection
/// strategies, so structure comes from integers).
fn fleet_from_seed(n: usize, mut seed: u64) -> Vec<ServerLoad> {
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as f64 / (1u64 << 31) as f64 // in [0, 1)
    };
    (0..n)
        .map(|_| {
            let min_w = 10.0 + 30.0 * next();
            let demand_w = min_w + 120.0 * next();
            // Caps anywhere from below the floor to above demand.
            let cap_w = demand_w * (0.2 + next());
            let queue_depth = (next() * 20.0) as usize;
            load(demand_w, min_w, cap_w, queue_depth)
        })
        .collect()
}

proptest! {
    /// Every policy conserves the batch: each request lands on exactly one
    /// valid server, so per-server counts sum to the batch size.
    #[test]
    fn assignments_sum_to_batch(
        policy in 0u8..3,
        n in 1usize..9,
        count in 0usize..40,
        seed in any::<u64>(),
    ) {
        let loads = fleet_from_seed(n, seed);
        let assign = routed(POLICIES[policy as usize], &loads, count);
        prop_assert_eq!(assign.len(), count);
        prop_assert!(assign.iter().all(|&i| i < n), "out-of-range index");
        let c = counts(&assign, n);
        prop_assert_eq!(c.iter().sum::<usize>(), count);
    }

    /// PowerHeadroom matches the reference D'Hondt apportionment over the
    /// mirrored weight curve exactly — ties, fallback and all.
    #[test]
    fn power_headroom_matches_model_dhondt(
        n in 1usize..9,
        count in 0usize..40,
        seed in any::<u64>(),
        pin_first in any::<bool>(),
    ) {
        let mut loads = fleet_from_seed(n, seed);
        if pin_first {
            // Force at least one zero-weight server into the mix.
            loads[0].cap_w = loads[0].demand.min_w;
        }
        let mut weights: Vec<f64> = loads.iter().map(model_weight).collect();
        if weights.iter().all(|&w| w <= 0.0) {
            weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let assign =
            routed(BalancePolicy::PowerHeadroom, &loads, count);
        prop_assert_eq!(counts(&assign, n), model_dhondt(&weights, count));
    }

    /// LeastQueue matches a naive linear-scan join-the-shortest-queue
    /// reference exactly, provisional assignments and lowest-index ties
    /// included — the heap in the implementation is a pure speedup.
    #[test]
    fn least_queue_matches_linear_scan_model(
        n in 1usize..9,
        count in 0usize..60,
        seed in any::<u64>(),
    ) {
        let loads = fleet_from_seed(n, seed);
        let mut depth: Vec<usize> = loads.iter().map(|l| l.queue_depth).collect();
        let reference: Vec<usize> = (0..count)
            .map(|_| {
                let mut best = 0;
                for (i, &d) in depth.iter().enumerate().skip(1) {
                    if d < depth[best] {
                        best = i;
                    }
                }
                depth[best] += 1;
                best
            })
            .collect();
        let assign = routed(BalancePolicy::LeastQueue, &loads, count);
        prop_assert_eq!(assign, reference);
    }

    /// A server predicting zero performance (capped at or below its floor)
    /// receives nothing while any server predicts more — watts-starved
    /// machines are shielded from traffic.
    #[test]
    fn zero_utility_servers_get_zero(
        n in 2usize..9,
        count in 1usize..40,
        seed in any::<u64>(),
        n_pinned in 1usize..8,
    ) {
        let mut loads = fleet_from_seed(n, seed);
        let n_pinned = n_pinned.min(n - 1);
        for l in loads.iter_mut().take(n_pinned) {
            l.cap_w = l.demand.min_w; // at the floor: zero predicted perf
        }
        for l in loads.iter_mut().skip(n_pinned) {
            l.cap_w = l.demand.demand_w; // full demand: positive perf
        }
        let assign =
            routed(BalancePolicy::PowerHeadroom, &loads, count);
        prop_assert!(
            assign.iter().all(|&i| i >= n_pinned),
            "a floor-pinned server was handed traffic: {:?}",
            assign
        );
    }

    /// With pairwise-distinct weights the apportionment is a pure function
    /// of each server's weight, not its position: rotating the fleet
    /// rotates the per-server counts with it.
    #[test]
    fn distinct_weight_apportionment_is_permutation_equivariant(
        n in 2usize..9,
        count in 0usize..40,
        rot in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Distinct-by-construction weights: strictly increasing demands,
        // every server granted its full demand (perf 1, weight = demand).
        let base: Vec<ServerLoad> = (0..n)
            .map(|i| {
                let demand = 40.0 + 13.7 * i as f64 + (seed % 997) as f64 * 1e-3;
                load(demand, 10.0, demand, 0)
            })
            .collect();
        let rot = rot % n;
        let rotated: Vec<ServerLoad> = (0..n).map(|i| base[(i + rot) % n]).collect();

        let c_base = counts(
            &routed(BalancePolicy::PowerHeadroom, &base, count),
            n,
        );
        let c_rot = counts(
            &routed(BalancePolicy::PowerHeadroom, &rotated, count),
            n,
        );
        for i in 0..n {
            // rotated[i] is base[(i + rot) % n]: same server, same count.
            prop_assert_eq!(
                c_rot[i],
                c_base[(i + rot) % n],
                "server moved from {} to {} but its share changed",
                (i + rot) % n,
                i
            );
        }
    }
}

/// A fluid-scale batch: one hundred thousand requests over an uneven
/// fleet stay exact — D'Hondt shares match the closed-form proportional
/// split to within one request per server, and least-queue levels the
/// depths to within one. This is the regime (million-client barriers)
/// the heap-based assignment exists for; the naive O(n·count) references
/// above stay confined to small batches.
#[test]
fn heap_policies_stay_exact_at_bulk_batch_sizes() {
    let count = 100_000;
    let loads: Vec<ServerLoad> = (0..7)
        .map(|i| load(40.0 + 20.0 * i as f64, 10.0, 40.0 + 20.0 * i as f64, 13 * i))
        .collect();
    // Every server granted full demand: weight = demand, so the D'Hondt
    // share converges to weight / total within one seat.
    let assign = routed(BalancePolicy::PowerHeadroom, &loads, count);
    let c = counts(&assign, loads.len());
    let total_w: f64 = loads.iter().map(|l| l.demand.demand_w).sum();
    for (i, l) in loads.iter().enumerate() {
        let ideal = count as f64 * l.demand.demand_w / total_w;
        assert!(
            (c[i] as f64 - ideal).abs() <= 1.0,
            "server {i}: {} seats vs ideal {ideal:.2}",
            c[i]
        );
    }
    // Least-queue levels final depths (initial + assigned) to within one.
    let assign = routed(BalancePolicy::LeastQueue, &loads, count);
    let c = counts(&assign, loads.len());
    let final_depths: Vec<usize> = loads
        .iter()
        .zip(&c)
        .map(|(l, &a)| l.queue_depth + a)
        .collect();
    let (lo, hi) = (
        *final_depths.iter().min().unwrap(),
        *final_depths.iter().max().unwrap(),
    );
    assert!(hi - lo <= 1, "unlevel final depths: {final_depths:?}");
}

/// Ties go to the lowest index, which is exactly why the permutation
/// property above must exclude them: `[2, 1, 1]` at batch 2 gives server 0
/// both requests (averages 2, then 1-tie resolved to index 0), while the
/// permuted `[1, 2, 1]` spreads them — naive permutation invariance is
/// false under ties, and this pins the documented behavior.
#[test]
fn dhondt_ties_break_toward_lowest_index_and_defeat_naive_permutation() {
    let tied = |ws: &[f64]| -> Vec<ServerLoad> { ws.iter().map(|&w| load(w, 0.0, w, 0)).collect() };
    let c1 = counts(
        &routed(BalancePolicy::PowerHeadroom, &tied(&[2.0, 1.0, 1.0]), 2),
        3,
    );
    assert_eq!(c1, vec![2, 0, 0]);
    let c2 = counts(
        &routed(BalancePolicy::PowerHeadroom, &tied(&[1.0, 2.0, 1.0]), 2),
        3,
    );
    assert_eq!(c2, vec![1, 1, 0]);
}

proptest! {
    /// Round-robin routes of `k1` and then `k2` requests continue one
    /// cycle: after `k0` earlier requests, the two rounds together name
    /// servers `k0 % n, (k0 + 1) % n, ...` — the cursor each router
    /// advances is the one the next router starts from.
    #[test]
    fn round_robin_rounds_continue_one_cycle(
        n in 1usize..9,
        k0 in 0usize..20,
        k1 in 0usize..20,
        k2 in 1usize..20,
    ) {
        let loads = fleet_from_seed(n, 7);
        let mut lb = LoadBalancer::new(BalancePolicy::RoundRobin);
        let mut got: Vec<usize> = lb.route(&loads).take(k0).collect();
        got.extend(lb.route(&loads).take(k1));
        got.extend(lb.route(&loads).take(k2));
        let cycle: Vec<usize> = (0..k0 + k1 + k2).map(|j| j % n).collect();
        prop_assert_eq!(got, cycle);
    }

    /// `route_within` names only members, and it is exactly `route` over
    /// the compacted view of the members, mapped back to fleet indices —
    /// for every policy, and again in a second round on the same balancers.
    #[test]
    fn route_within_is_route_over_the_compacted_view(
        policy in 0u8..3,
        n in 1usize..9,
        mask in any::<u8>(),
        rounds in (0usize..30, 0usize..30),
        seed in any::<u64>(),
    ) {
        let loads = fleet_from_seed(n, seed);
        let mut members: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        if members.is_empty() {
            members.push(seed as usize % n);
        }
        let view: Vec<ServerLoad> = members.iter().map(|&i| loads[i]).collect();
        let policy = POLICIES[policy as usize];
        let mut within = LoadBalancer::new(policy);
        let mut compact = LoadBalancer::new(policy);
        for count in [rounds.0, rounds.1] {
            let got: Vec<usize> = within.route_within(&loads, &members).take(count).collect();
            prop_assert!(
                got.iter().all(|i| members.contains(i)),
                "a non-member was routed to: {:?} over {:?}",
                got,
                members
            );
            let mapped: Vec<usize> = compact
                .route(&view)
                .take(count)
                .map(|v| members[v])
                .collect();
            prop_assert_eq!(got, mapped);
        }
    }

    /// Opening a router and taking no targets leaves the balancer as it
    /// was, whatever it routed before.
    #[test]
    fn taking_zero_targets_leaves_the_balancer_unchanged(
        policy in 0u8..3,
        n in 1usize..9,
        k0 in 0usize..20,
        seed in any::<u64>(),
    ) {
        let loads = fleet_from_seed(n, seed);
        let mut lb = LoadBalancer::new(POLICIES[policy as usize]);
        lb.route(&loads).take(k0).for_each(drop);
        let before = format!("{lb:?}");
        prop_assert_eq!(lb.route(&loads).take(0).count(), 0);
        prop_assert_eq!(lb.route_within(&loads, &[n - 1]).take(0).count(), 0);
        prop_assert_eq!(format!("{lb:?}"), before);
    }
}
