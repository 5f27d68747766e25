//! Front-end load balancing: routing closed-loop requests to servers.
//!
//! A capped fleet only saves cluster-level power if load can actually
//! *move* — PowerTracer's request steering is where its savings come from,
//! and FastCap's fairness framing presumes a front end that could send work
//! elsewhere. This module is that front end: at a round barrier a
//! [`LoadBalancer`] opens a router over the fleet's loads
//! ([`LoadBalancer::route`]), and the router names one server per request
//! as the round's requests stream out of the client population. Nothing
//! holds the round's requests or targets, so a flash crowd of 10⁶ requests
//! costs no more memory to route than one. All three policies are
//! deterministic (no RNG; ties break toward the lowest server index), so
//! balanced runs keep the round-barrier thread-count invariance the
//! cluster and service layers pin with digests.
//!
//! * [`BalancePolicy::RoundRobin`] — cycle through the fleet, oblivious to
//!   both queues and caps; the classic baseline that keeps feeding a
//!   throttled server its full share of traffic.
//! * [`BalancePolicy::LeastQueue`] — join the shortest queue, counting the
//!   requests already routed this round; backlog-aware but cap-blind.
//! * [`BalancePolicy::PowerHeadroom`] — weight servers by their predicted
//!   absolute performance under their *current cap* (the coordinator's own
//!   concave utility curve) and split the round's requests proportionally
//!   by highest averages (D'Hondt), steering traffic toward servers with
//!   watts of slack and away from ones pinned near their floors.

use crate::coordinator::{utility_at, ServerDemand};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the front end assigns each generated request to a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Cycle through the servers in fleet order, one request each.
    RoundRobin,
    /// Send each request to the server with the fewest queued requests
    /// (counting the requests already routed this round).
    LeastQueue,
    /// Split the round's requests proportionally to each server's
    /// predicted performance under its current power cap.
    PowerHeadroom,
}

impl std::fmt::Display for BalancePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BalancePolicy::RoundRobin => "round-robin",
            BalancePolicy::LeastQueue => "least-queue",
            BalancePolicy::PowerHeadroom => "power-headroom",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for BalancePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<BalancePolicy, String> {
        match s {
            "round-robin" | "rr" => Ok(BalancePolicy::RoundRobin),
            "least-queue" | "lq" => Ok(BalancePolicy::LeastQueue),
            "power-headroom" | "headroom" => Ok(BalancePolicy::PowerHeadroom),
            other => Err(format!(
                "unknown balance policy '{other}' \
                 (known: round-robin, least-queue, power-headroom)"
            )),
        }
    }
}

/// One server's state as the front end sees it at a round barrier.
#[derive(Clone, Copy, Debug)]
pub struct ServerLoad {
    /// The server's power telemetry (predicted demand, floor, activity).
    pub demand: ServerDemand,
    /// The cap the coordinator granted for the coming round, watts.
    pub cap_w: f64,
    /// Requests already queued on the server.
    pub queue_depth: usize,
}

/// The front-end request router. Holds the (deterministic) cross-round
/// state a policy needs — currently just the round-robin cursor.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    policy: BalancePolicy,
    rr_next: usize,
}

impl LoadBalancer {
    /// A balancer running `policy`, with its cursor at the first server.
    pub fn new(policy: BalancePolicy) -> LoadBalancer {
        LoadBalancer { policy, rr_next: 0 }
    }

    /// The policy in force.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// Opens a router over the servers described by `loads`: an endless
    /// iterator naming one server index per request, in request order.
    /// Draw as many targets as the round has requests. Each draw makes the
    /// policy's one step (a cursor step, or a heap pop and push), and the
    /// round-robin cursor is written back as the router advances, so the
    /// next round resumes where this one stopped. A router that is never
    /// drawn from leaves the balancer unchanged.
    ///
    /// # Panics
    ///
    /// Drawing a target panics if `loads` is empty: an empty fleet cannot
    /// absorb requests (the caller skips issuing in that case).
    pub fn route(&mut self, loads: &[ServerLoad]) -> impl Iterator<Item = usize> + '_ {
        let mut picker = match self.policy {
            BalancePolicy::RoundRobin => Picker::RoundRobin,
            // Min-heap on (depth, index): popping the smallest pair is the
            // lowest index among the shallowest queues — the same
            // tie-break as a linear scan, at O((n + count)·log n) instead
            // of O(n·count). Million-request barrier rounds (the fluid
            // client model) made the scan the bottleneck.
            BalancePolicy::LeastQueue => Picker::LeastQueue(
                loads
                    .iter()
                    .enumerate()
                    .map(|(i, l)| Reverse((l.queue_depth, i)))
                    .collect(),
            ),
            BalancePolicy::PowerHeadroom => {
                // Weight each server by its predicted absolute performance
                // under the cap it was just granted — the same concave
                // curve the coordinator allocates by. A fleet with no
                // telemetry yet (all weights zero, e.g. the first round)
                // degrades to an even split.
                let mut weights: Vec<f64> = loads
                    .iter()
                    .map(|l| utility_at(&l.demand, l.cap_w).max(0.0))
                    .collect();
                if weights.iter().all(|&w| w <= 0.0) {
                    weights.iter_mut().for_each(|w| *w = 1.0);
                }
                // Highest-averages (D'Hondt) apportionment: each request
                // goes to the server maximizing weight / (already routed +
                // 1). Each server keeps exactly one live heap entry
                // carrying its current average, so popping the max and
                // reinserting the next quotient walks the same sequence
                // as a full rescan — ties toward the lowest index included
                // (see HeadroomSlot's ordering) — at O((n + count)·log n).
                let heap = weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| HeadroomSlot { avg: w, idx: i })
                    .collect();
                Picker::PowerHeadroom {
                    routed: vec![0; weights.len()],
                    weights,
                    heap,
                }
            }
        };
        let servers = loads.len();
        let rr_next = &mut self.rr_next;
        std::iter::from_fn(move || {
            assert!(servers > 0, "cannot balance over an empty fleet");
            let i = match &mut picker {
                Picker::RoundRobin => {
                    let i = *rr_next % servers;
                    *rr_next = (i + 1) % servers;
                    i
                }
                Picker::LeastQueue(heap) => {
                    let Reverse((depth, i)) = heap.pop().expect("non-empty fleet");
                    heap.push(Reverse((depth + 1, i)));
                    i
                }
                Picker::PowerHeadroom {
                    weights,
                    routed,
                    heap,
                } => {
                    let i = heap.pop().expect("non-empty fleet").idx;
                    routed[i] += 1;
                    heap.push(HeadroomSlot {
                        avg: weights[i] / (routed[i] + 1) as f64,
                        idx: i,
                    });
                    i
                }
            };
            Some(i)
        })
    }

    /// Tier-aware routing: like [`LoadBalancer::route`] over only the
    /// fleet positions in `members`, naming *fleet* indices. Multi-tier
    /// topologies route client requests to the entry tier this way — the
    /// policy sees a compacted view of the eligible servers (round-robin
    /// state advances over that view), and picks map back to fleet order.
    ///
    /// # Panics
    ///
    /// Panics when a member index is out of `loads`' bounds, and drawing a
    /// target panics if `members` is empty.
    pub fn route_within<'a>(
        &'a mut self,
        loads: &[ServerLoad],
        members: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        let view: Vec<ServerLoad> = members.iter().map(|&i| loads[i]).collect();
        self.route(&view).map(move |v| members[v])
    }
}

/// A router's per-round state for one policy, built from the loads once.
/// The round-robin cursor lives in the [`LoadBalancer`] itself.
enum Picker {
    RoundRobin,
    LeastQueue(BinaryHeap<Reverse<(usize, usize)>>),
    PowerHeadroom {
        weights: Vec<f64>,
        routed: Vec<usize>,
        heap: BinaryHeap<HeadroomSlot>,
    },
}

/// One server's live D'Hondt quotient in the PowerHeadroom max-heap.
///
/// Ordered by average (weights are finite and non-negative, so
/// `total_cmp` agrees with the naive strict-`>` rescan) and, among equal
/// averages, by *lower* index first — preserving the documented
/// ties-toward-the-lowest-index behavior the digests pin.
#[derive(Clone, Copy, Debug)]
struct HeadroomSlot {
    avg: f64,
    idx: usize,
}

impl PartialEq for HeadroomSlot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeadroomSlot {}

impl Ord for HeadroomSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.avg
            .total_cmp(&other.avg)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeadroomSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `count` targets of one router.
    fn routed(lb: &mut LoadBalancer, count: usize, loads: &[ServerLoad]) -> Vec<usize> {
        lb.route(loads).take(count).collect()
    }

    /// The first `count` targets of one router over `members`.
    fn routed_within(
        lb: &mut LoadBalancer,
        count: usize,
        loads: &[ServerLoad],
        members: &[usize],
    ) -> Vec<usize> {
        lb.route_within(loads, members).take(count).collect()
    }

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

    #[test]
    fn policy_parse_display_round_trip() {
        for p in [
            BalancePolicy::RoundRobin,
            BalancePolicy::LeastQueue,
            BalancePolicy::PowerHeadroom,
        ] {
            assert_eq!(p.to_string().parse::<BalancePolicy>().unwrap(), p);
        }
        assert_eq!(
            "rr".parse::<BalancePolicy>().unwrap(),
            BalancePolicy::RoundRobin
        );
        assert_eq!(
            "headroom".parse::<BalancePolicy>().unwrap(),
            BalancePolicy::PowerHeadroom
        );
        assert!("nosuch".parse::<BalancePolicy>().is_err());
    }

    #[test]
    fn round_robin_cycles_across_rounds() {
        let loads = vec![load(50.0, 20.0, 50.0, 0); 3];
        let mut lb = LoadBalancer::new(BalancePolicy::RoundRobin);
        assert_eq!(routed(&mut lb, 4, &loads), vec![0, 1, 2, 0]);
        // The cursor survives the barrier: the next round resumes at 1.
        assert_eq!(routed(&mut lb, 2, &loads), vec![1, 2]);
    }

    #[test]
    fn route_within_restricts_to_members_and_maps_back() {
        // Fleet of five; only positions 1 and 3 (the entry tier) are
        // eligible. Targets come back as fleet indices and the round-robin
        // cursor advances over the tier view, not the fleet.
        let loads = vec![load(50.0, 20.0, 50.0, 0); 5];
        let mut lb = LoadBalancer::new(BalancePolicy::RoundRobin);
        assert_eq!(routed_within(&mut lb, 3, &loads, &[1, 3]), vec![1, 3, 1]);
        assert_eq!(routed_within(&mut lb, 2, &loads, &[1, 3]), vec![3, 1]);
        // Least-queue respects per-member depths through the mapping.
        let mut loads = vec![load(50.0, 20.0, 50.0, 0); 5];
        loads[1].queue_depth = 4;
        let mut lb = LoadBalancer::new(BalancePolicy::LeastQueue);
        assert_eq!(routed_within(&mut lb, 3, &loads, &[1, 3]), vec![3, 3, 3]);
        assert!(routed_within(&mut lb, 0, &loads, &[]).is_empty());
    }

    #[test]
    fn least_queue_counts_provisional_assignments() {
        let loads = vec![
            load(50.0, 20.0, 50.0, 5),
            load(50.0, 20.0, 50.0, 0),
            load(50.0, 20.0, 50.0, 2),
        ];
        let mut lb = LoadBalancer::new(BalancePolicy::LeastQueue);
        // Depths 5/0/2: requests fill server 1 up to 2, then alternate 1
        // and 2 (ties toward the lower index) until they reach 5.
        assert_eq!(routed(&mut lb, 6, &loads), vec![1, 1, 1, 2, 1, 2]);
    }

    #[test]
    fn power_headroom_steers_away_from_capped_servers() {
        // Server 0 is pinned at its floor (no watts above min → zero
        // predicted performance); servers 1 and 2 run at full demand.
        let loads = vec![
            load(100.0, 40.0, 40.0, 0),
            load(100.0, 40.0, 100.0, 0),
            load(100.0, 40.0, 100.0, 0),
        ];
        let mut lb = LoadBalancer::new(BalancePolicy::PowerHeadroom);
        let assign = routed(&mut lb, 10, &loads);
        assert!(assign.iter().all(|&i| i != 0), "{assign:?}");
        let to_1 = assign.iter().filter(|&&i| i == 1).count();
        assert_eq!(to_1, 5, "equal weights must split evenly: {assign:?}");
    }

    #[test]
    fn power_headroom_without_telemetry_splits_evenly() {
        // First round: every demand is still zero. The fallback must not
        // dump the whole batch on server 0.
        let loads = vec![load(0.0, 0.0, 70.0, 0); 4];
        let mut lb = LoadBalancer::new(BalancePolicy::PowerHeadroom);
        let assign = routed(&mut lb, 8, &loads);
        for i in 0..4 {
            assert_eq!(assign.iter().filter(|&&s| s == i).count(), 2, "{assign:?}");
        }
    }

    #[test]
    fn headroom_weights_follow_granted_watts() {
        // Same demand curve, different caps: the server with twice the
        // headroom fill gets measurably more of the batch.
        let loads = vec![load(100.0, 40.0, 55.0, 0), load(100.0, 40.0, 100.0, 0)];
        let mut lb = LoadBalancer::new(BalancePolicy::PowerHeadroom);
        let assign = routed(&mut lb, 12, &loads);
        let to_0 = assign.iter().filter(|&&i| i == 0).count();
        let to_1 = assign.iter().filter(|&&i| i == 1).count();
        assert!(to_1 > to_0, "{assign:?}");
        assert!(to_0 > 0, "a throttled-but-alive server still gets traffic");
    }
}
