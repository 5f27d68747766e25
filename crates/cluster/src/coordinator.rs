//! The cluster-level coordinator: turns one global power budget into
//! per-server caps, once per coordination round.
//!
//! Three signal-free disciplines are implemented (see [`CapSplit`]):
//!
//! * **Uniform** — `C/N` each; the baseline every capping paper compares
//!   against.
//! * **Demand-proportional** — floors first, then leftover budget in
//!   proportion to each server's demand above its floor.
//! * **FastCap-style** — marginal-utility greedy after FastCap (Liu et
//!   al.): budget is granted in quanta, each to the server with the
//!   highest predicted *absolute* performance return per watt under a
//!   concave (square-root) performance-versus-power curve scaled by the
//!   server's uncapped demand — a proxy for machine size, so a watt that
//!   buys a big server 1% buys more instructions than 1% on a small one.
//!   Servers far below their demand have steep curves and win quanta;
//!   saturated servers stop bidding.
//!
//! All three are deterministic: ties break toward the lowest server index.
//!
//! The quantum greedy keeps every bidding server's marginal gain in a
//! max-heap, so a split costs `O(n + quanta · log n)` rather than a scan
//! of all `n` servers per quantum (`grant_quanta`). When FastCap's budget
//! outlasts every bid, the order of grants cannot change any cap, so the
//! split grants each server its quanta in index order instead, in
//! `O(n + quanta)` (`grant_in_index_order`).
//!
//! Two signal-driven disciplines build on the same machinery: **SLA-aware**
//! (see [`split_caps_sla`]) bids tail-latency violators to full demand, and
//! **critical-path** (see [`split_caps_critical`]) shifts budget toward the
//! service tier dominating end-to-end request latency. Without latency
//! samples every server is unknown to the SLA-aware split, so each bids its
//! full demand on FastCap's greedy and leftover budget stays unspent (it is
//! never parked, unlike FastCap's); without trace shares the critical-path
//! split is exactly demand-proportional.

use crate::CapSplit;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What the coordinator knows about one server at a round boundary.
#[derive(Clone, Copy, Debug)]
pub struct ServerDemand {
    /// Predicted uncapped (all-max plan) power draw, watts.
    pub demand_w: f64,
    /// Predicted all-minimum plan power draw — the floor below which a cap
    /// is unreachable, watts.
    pub min_w: f64,
    /// Whether the server still has work to run. Finished servers get a
    /// zero cap and their share returns to the pool.
    pub active: bool,
}

impl ServerDemand {
    /// Demand headroom above the floor, clamped non-negative.
    fn headroom(&self) -> f64 {
        (self.demand_w - self.min_w).max(0.0)
    }
}

/// Splits `global_cap_w` across servers according to `split`.
///
/// The returned caps sum to at most `global_cap_w` (up to rounding in the
/// last FastCap quantum) and are zero for inactive servers. When the
/// budget cannot even cover every active server's floor, floors are scaled
/// down proportionally — each server then receives an unreachable cap and
/// degrades to its all-minimum plan (see `PowerCapPolicy`).
pub fn split_caps(
    split: CapSplit,
    global_cap_w: f64,
    demands: &[ServerDemand],
    quantum_w: f64,
) -> Vec<f64> {
    let n_active = demands.iter().filter(|d| d.active).count();
    if n_active == 0 {
        return vec![0.0; demands.len()];
    }
    match split {
        CapSplit::Uniform => {
            let share = global_cap_w / n_active as f64;
            demands
                .iter()
                .map(|d| if d.active { share } else { 0.0 })
                .collect()
        }
        CapSplit::DemandProportional => {
            let mut caps = floors(global_cap_w, demands);
            let spare = (global_cap_w - caps.iter().sum::<f64>()).max(0.0);
            spread_by_headroom(&mut caps, demands, spare);
            caps
        }
        CapSplit::FastCap => fastcap_split(global_cap_w, demands, quantum_w),
        // Without latency signals every server is unknown and bids its full
        // demand; leftover budget stays unspent, as in every SLA-aware split.
        CapSplit::SlaAware => {
            let unknown = SlaSignal {
                p99_s: 0.0,
                target_s: 0.0,
            };
            split_caps_sla(
                global_cap_w,
                demands,
                &vec![unknown; demands.len()],
                quantum_w,
            )
        }
        // Without trace signals the critical-path discipline degrades to
        // demand-proportional (legacy floors cannot be infeasible).
        CapSplit::CriticalPath => split_caps_critical(global_cap_w, demands, None, None)
            .expect("legacy floors are always feasible"),
    }
}

/// Why a budget split could not be computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SplitError {
    /// Configured per-child floors sum above the group budget. Earlier
    /// callers only ever floored at each server's *scaled* all-minimum
    /// power, which is feasible by construction; explicit per-tier floor
    /// configs can genuinely over-commit, and silently clamping them would
    /// hide a broken configuration behind unreachable caps.
    InfeasibleFloors {
        /// Sum of the active children's effective floors, watts.
        required_w: f64,
        /// The group budget those floors must fit inside, watts.
        budget_w: f64,
    },
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::InfeasibleFloors {
                required_w,
                budget_w,
            } => write!(
                f,
                "infeasible floors: required {required_w:.3} W exceeds budget {budget_w:.3} W"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

/// Critical-path aware splitting across children that are service *tiers*.
///
/// `shares` is each child's windowed share of end-to-end critical-path
/// time (from a `TraceCollector`); `floor_w` is an optional explicit floor
/// per child (e.g. a per-tier fraction of the group budget), raised to the
/// child's all-minimum power and validated against the budget.
///
/// With warm shares, spare budget above the floors water-fills in
/// proportion to each child's share, clipped at its demand and
/// re-distributed to unsaturated children; leftover is deliberately
/// unspent (the energy the discipline saves). With `shares` of `None` or
/// all-zero — traces too sparse to trust — the split degrades to exactly
/// the demand-proportional discipline over the same floors.
pub fn split_caps_critical(
    global_cap_w: f64,
    demands: &[ServerDemand],
    shares: Option<&[f64]>,
    floor_w: Option<&[f64]>,
) -> Result<Vec<f64>, SplitError> {
    let n_active = demands.iter().filter(|d| d.active).count();
    if n_active == 0 {
        return Ok(vec![0.0; demands.len()]);
    }
    let mut caps = checked_floors(global_cap_w, demands, floor_w)?;
    let mut spare = (global_cap_w - caps.iter().sum::<f64>()).max(0.0);
    let warm = shares.is_some_and(|s| {
        assert_eq!(s.len(), demands.len(), "one share per child");
        s.iter().any(|&x| x > 0.0)
    });
    if !warm {
        // Sparse traces: exactly the demand-proportional discipline.
        spread_by_headroom(&mut caps, demands, spare);
        return Ok(caps);
    }
    let shares = shares.expect("warm implies shares");
    // Water-fill spare budget by critical-path share, clipping each child
    // at its demand; every pass either spends the spare or saturates a
    // child, so at most n passes run.
    for _ in 0..demands.len() {
        let total_share: f64 = demands
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.active && d.demand_w - caps[i] > CLIP_EPS_W)
            .map(|(i, _)| shares[i])
            .sum();
        if spare <= CLIP_EPS_W || total_share <= 0.0 {
            break;
        }
        let mut granted = 0.0;
        for (i, d) in demands.iter().enumerate() {
            if !d.active || shares[i] <= 0.0 {
                continue;
            }
            let room = d.demand_w - caps[i];
            if room <= CLIP_EPS_W {
                continue;
            }
            let give = (spare * shares[i] / total_share).min(room);
            caps[i] += give;
            granted += give;
        }
        spare -= granted;
        if granted <= CLIP_EPS_W {
            break;
        }
    }
    Ok(caps)
}

/// One server's tail-latency telemetry for SLA-aware splitting.
#[derive(Clone, Copy, Debug)]
pub struct SlaSignal {
    /// Observed p99 request latency over the recent window, seconds.
    /// Zero means "no samples yet" — the server is treated as unknown and
    /// bids its full demand.
    pub p99_s: f64,
    /// The server's p99 latency target, seconds.
    pub target_s: f64,
}

impl SlaSignal {
    /// Whether the server is violating its target (requires samples).
    pub fn violating(&self) -> bool {
        self.p99_s > self.target_s && self.target_s > 0.0
    }
}

/// SLA-aware splitting: latency-violating servers bid for the budget first.
///
/// Each server's *desired* cap depends on its latency signal:
///
/// * **Violating** (`p99 > target`) or **unknown** (`p99 == 0`): desires its
///   full uncapped demand — nothing less is defensible while requests are
///   missing their SLO.
/// * **Meeting**: trimmed below demand in proportion to how much latency
///   headroom it has — `min_w + headroom × (0.25 + 0.75 × p99/target)`. A
///   server at 40% of its target gives up over half its power headroom; one
///   brushing the target keeps nearly all of it.
///
/// Floors are covered first (scaled when infeasible), then quanta go to
/// violators in FastCap marginal-utility order until they saturate at their
/// desires, then to everyone else. Unlike [`split_caps`] with
/// `CapSplit::FastCap`, leftover budget is **not** parked on servers: when
/// every desire is satisfied the fleet deliberately draws less than the
/// budget — that slack is the energy the discipline saves.
pub fn split_caps_sla(
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
    // Per-server desired cap (the ceiling it may be granted up to).
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
                (d.min_w + d.headroom() * (0.25 + 0.75 * ratio)).min(d.demand_w)
            }
        })
        .collect();
    let mut caps = floors(global_cap_w, demands);
    // A floor may sit above the desire of a server whose demand is below
    // its all-minimum power; the grant loop treats such servers as
    // already saturated and the floor stands.
    let desired: Vec<f64> = desired
        .iter()
        .zip(&caps)
        .map(|(&want, &floor)| want.max(floor))
        .collect();
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let mut clipped = vec![false; demands.len()];
    // Two passes: violators first, then everyone still below desire. A
    // server at its desire never bids, so once every server saturates the
    // leftover pass starts with an empty heap and grants nothing.
    for violators_only in [true, false] {
        grant_quanta(
            demands,
            Ceiling::Clip(&desired),
            |i| !violators_only || sla[i].violating(),
            quantum_w,
            &mut caps,
            &mut clipped,
            &mut spare,
        );
    }
    caps
}

/// Watts below which a server counts as clipped at its granting ceiling:
/// the residual is smaller than the budget-exhaustion threshold, so
/// spending quanta on it cannot meaningfully move the allocation.
const CLIP_EPS_W: f64 = 1e-9;

/// Where a quantum greedy stops granting a server.
#[derive(Clone, Copy)]
enum Ceiling<'a> {
    /// FastCap: every grant is a whole quantum (the last may overshoot
    /// demand) and a server bids while its cap is below its demand.
    Demand,
    /// Grants are clipped at the per-server ceiling, and a server within
    /// [`CLIP_EPS_W`] of it is saturated: granting the remaining sliver
    /// cannot change the allocation.
    Clip(&'a [f64]),
}

/// One server's bid for the next quantum. Ordered by gain, ties toward the
/// lower server index, so the heap's maximum is exactly the server a
/// linear `gain > best` scan in index order would pick.
#[derive(Clone, Copy, Debug)]
struct Bid {
    gain: f64,
    server: usize,
}

impl Ord for Bid {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.server.cmp(&self.server))
    }
}

impl PartialOrd for Bid {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Bid {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Bid {}

/// The quantum greedy behind the FastCap and SLA-aware splits: while more
/// than a nanowatt of `spare` remains, grant `q = quantum_w.min(spare)` to
/// the active, unsaturated server admitted by `bids` whose predicted
/// utility gains most from it, ties toward the lowest index.
///
/// Bids live in a max-heap. A grant changes only the granted server's cap
/// and `clipped` flag, so it pops that server and re-pushes its new gain;
/// every other bid is still exact. Only a change of `q` (the final partial
/// quantum, or a clipped grant in that tail) moves every gain, and then
/// the heap is rebuilt. Each grant costs `O(log n)`.
///
/// Returns `true` when it stopped because no server bids any more, with
/// budget left; `false` when the budget ran out.
fn grant_quanta(
    demands: &[ServerDemand],
    ceiling: Ceiling<'_>,
    bids: impl Fn(usize) -> bool,
    quantum_w: f64,
    caps: &mut [f64],
    clipped: &mut [bool],
    spare: &mut f64,
) -> bool {
    let bid = |i: usize, cap: f64, clipped: bool, q: f64| -> Option<Bid> {
        let d = &demands[i];
        let saturated = clipped
            || match ceiling {
                Ceiling::Demand => cap >= d.demand_w,
                Ceiling::Clip(ceil) => ceil[i] - cap <= CLIP_EPS_W,
            };
        if !d.active || saturated || !bids(i) {
            return None;
        }
        let gain = utility_at(d, cap + q) - utility_at(d, cap);
        (gain > 0.0).then_some(Bid { gain, server: i })
    };
    let mut heap: BinaryHeap<Bid> = BinaryHeap::new();
    let mut heap_q: Option<f64> = None;
    while *spare > 1e-9 {
        let q = quantum_w.min(*spare);
        if heap_q.map(f64::to_bits) != Some(q.to_bits()) {
            // Rebuild in the old heap's buffer, so a split allocates it once.
            let mut entries = std::mem::take(&mut heap).into_vec();
            entries.clear();
            entries.extend((0..demands.len()).filter_map(|i| bid(i, caps[i], clipped[i], q)));
            heap = BinaryHeap::from(entries);
            heap_q = Some(q);
        }
        let Some(Bid { server: i, .. }) = heap.pop() else {
            return true;
        };
        let grant = match ceiling {
            Ceiling::Demand => q,
            Ceiling::Clip(ceil) => q.min(ceil[i] - caps[i]),
        };
        let before = caps[i];
        caps[i] += grant;
        if caps[i] == before {
            // The grant is below this cap's float resolution; no further
            // quantum can land here either. Count the server as clipped
            // instead of re-granting it nothing forever.
            clipped[i] = true;
        } else {
            *spare -= grant;
            heap.extend(bid(i, caps[i], clipped[i], q));
        }
    }
    false
}

/// Whether `spare` outlasts every active server's climb from `caps` to its
/// demand in whole quanta: `ceil((demand − cap) / quantum)` each, one more
/// per server for rounding in the running sums, and one for margin. This
/// only picks the greedy; [`grant_in_index_order`] checks every grant and
/// declines the split when the estimate was wrong.
fn budget_outlasts_bids(
    demands: &[ServerDemand],
    caps: &[f64],
    spare: f64,
    quantum_w: f64,
) -> bool {
    let quanta: f64 = demands
        .iter()
        .zip(caps)
        .filter(|(d, _)| d.active)
        .map(|(d, cap)| ((d.demand_w - cap) / quantum_w).ceil().max(0.0) + 1.0)
        .sum();
    spare >= (quanta + 1.0) * quantum_w
}

/// FastCap's quantum greedy (`Ceiling::Demand`, every server bidding) for a
/// budget that outlasts every bid: grants each active server whole quanta,
/// in index order, until it stops bidding at `cap ≥ demand` or at a gain of
/// zero or less. It leaves `caps` and `spare` bit-equal to what
/// [`grant_quanta`] leaves and returns what it returns.
///
/// Every grant is the same whole quantum `q`, so each cap is its own running
/// sum `cap + q + q + …`, its stop rules read only that server's state, and
/// `spare` falls by the same steps in any order. The heap's rule for a
/// grant that no longer moves a cap cannot fire: such a grant gains exactly
/// zero, so the server has already stopped bidding. The order starts to
/// matter only where the heap greedy would change `q`, once `spare` falls
/// below a quantum or to a nanowatt, so every grant first checks that it
/// has not. If it has, the pass puts `caps` back as it found them and
/// returns `None` for the heap greedy to run instead.
///
/// After the last grant the heap greedy either stops with at most a
/// nanowatt left (`Some(false)`: nothing to park) or finds no bid even at a
/// smaller final quantum, since a utility that does not grow by a quantum
/// does not grow by less, and reports every server saturated
/// (`Some(true)`).
fn grant_in_index_order(
    demands: &[ServerDemand],
    quantum_w: f64,
    caps: &mut [f64],
    spare: &mut f64,
) -> Option<bool> {
    let q = quantum_w;
    let whole_quantum = |left: f64| left > 1e-9 && left >= q;
    let entry = caps.to_vec();
    let mut left = *spare;
    for (i, d) in demands.iter().enumerate() {
        if !d.active {
            continue;
        }
        let mut cap = caps[i];
        let mut utility = utility_at(d, cap);
        while cap < d.demand_w {
            let raised = utility_at(d, cap + q);
            let bids = raised - utility > 0.0;
            if !bids {
                break;
            }
            if !whole_quantum(left) {
                caps.copy_from_slice(&entry);
                return None;
            }
            cap += q;
            utility = raised;
            left -= q;
        }
        caps[i] = cap;
    }
    *spare = left;
    Some(left > 1e-9)
}

/// The demand-proportional spread: adds `spare` to each active server's cap
/// in proportion to its headroom above the floor, or evenly when no active
/// server has headroom.
fn spread_by_headroom(caps: &mut [f64], demands: &[ServerDemand], spare: f64) {
    let n_active = demands.iter().filter(|d| d.active).count();
    let total_headroom: f64 = demands
        .iter()
        .filter(|d| d.active)
        .map(ServerDemand::headroom)
        .sum();
    for (cap, d) in caps.iter_mut().zip(demands) {
        if !d.active {
            continue;
        }
        *cap += if total_headroom > 0.0 {
            spare * d.headroom() / total_headroom
        } else {
            spare / n_active as f64
        };
    }
}

/// Per-server power floors: each active server's all-minimum power, scaled
/// down proportionally when the budget cannot cover them all.
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

/// Starting caps for the critical-path split. `floor_w` of `None` keeps
/// the scaled floors above (always feasible); explicit floors are raised
/// to each active server's all-minimum power and rejected with
/// [`SplitError::InfeasibleFloors`] when their sum exceeds the budget.
fn checked_floors(
    global_cap_w: f64,
    demands: &[ServerDemand],
    floor_w: Option<&[f64]>,
) -> Result<Vec<f64>, SplitError> {
    let Some(floor_w) = floor_w else {
        return Ok(floors(global_cap_w, demands));
    };
    assert_eq!(floor_w.len(), demands.len(), "one floor per server");
    let eff: Vec<f64> = demands
        .iter()
        .zip(floor_w)
        .map(|(d, &f)| if d.active { d.min_w.max(f) } else { 0.0 })
        .collect();
    let required_w: f64 = eff.iter().sum();
    if required_w > global_cap_w + 1e-9 {
        return Err(SplitError::InfeasibleFloors {
            required_w,
            budget_w: global_cap_w,
        });
    }
    Ok(eff)
}

/// Predicted relative performance (0..=1) of a server allocated `cap`
/// watts, under the concave curve `perf = sqrt(fill)` where `fill` is the
/// fraction of the demand headroom covered. Square root models diminishing
/// returns: the first watts above the floor buy back the most performance.
fn perf_at(d: &ServerDemand, cap: f64) -> f64 {
    let headroom = d.headroom();
    if headroom <= 0.0 {
        return 1.0;
    }
    let fill = ((cap - d.min_w) / headroom).clamp(0.0, 1.0);
    fill.sqrt()
}

/// Predicted absolute performance: relative performance scaled by the
/// server's uncapped demand, the coordinator's proxy for how much work the
/// machine does at full speed. Without the weighting the greedy would hand
/// small-headroom servers the most watts above their floors (their
/// *relative* curves are steepest) and starve the servers whose watts buy
/// the most instructions.
pub(crate) fn utility_at(d: &ServerDemand, cap: f64) -> f64 {
    d.demand_w * perf_at(d, cap)
}

/// FastCap's marginal-utility greedy. Budget left after every active
/// server saturates at its demand is parked on them uniformly as headroom,
/// so transient demand spikes between rounds stay within budget.
///
/// A budget that outlasts every bid is granted server by server
/// (`grant_in_index_order`), and any other on the heap.
fn fastcap_split(global_cap_w: f64, demands: &[ServerDemand], quantum_w: f64) -> Vec<f64> {
    let mut caps = floors(global_cap_w, demands);
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let in_order = if budget_outlasts_bids(demands, &caps, spare, quantum_w) {
        grant_in_index_order(demands, quantum_w, &mut caps, &mut spare)
    } else {
        None
    };
    let all_saturated = in_order.unwrap_or_else(|| {
        let mut clipped = vec![false; demands.len()];
        grant_quanta(
            demands,
            Ceiling::Demand,
            |_| true,
            quantum_w,
            &mut caps,
            &mut clipped,
            &mut spare,
        )
    });
    if all_saturated {
        let n_active = demands.iter().filter(|d| d.active).count() as f64;
        for (cap, d) in caps.iter_mut().zip(demands) {
            if d.active {
                *cap += spare / n_active;
            }
        }
    }
    caps
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n·Σx²)`, 1 when perfectly equal, `1/n` when one party takes
/// everything. Empty or all-zero inputs report 1 (nothing is unfair about
/// nothing).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(demand_w: f64, min_w: f64) -> ServerDemand {
        ServerDemand {
            demand_w,
            min_w,
            active: true,
        }
    }

    #[test]
    fn uniform_splits_equally_among_active() {
        let mut ds = vec![d(100.0, 30.0), d(200.0, 30.0), d(50.0, 30.0)];
        ds[1].active = false;
        let caps = split_caps(CapSplit::Uniform, 120.0, &ds, 1.0);
        assert_eq!(caps, vec![60.0, 0.0, 60.0]);
    }

    #[test]
    fn demand_proportional_tracks_headroom() {
        let ds = vec![d(130.0, 30.0), d(80.0, 30.0)];
        // Floors take 60; spare 90 splits 2:1 by headroom (100 vs 50).
        let caps = split_caps(CapSplit::DemandProportional, 150.0, &ds, 1.0);
        assert!((caps[0] - 90.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 60.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn fastcap_never_exceeds_budget_and_covers_floors() {
        let ds = vec![d(150.0, 40.0), d(90.0, 35.0), d(60.0, 30.0)];
        for budget in [110.0, 160.0, 250.0, 400.0] {
            let caps = split_caps(CapSplit::FastCap, budget, &ds, 1.0);
            let total: f64 = caps.iter().sum();
            assert!(total <= budget + 1e-6, "budget {budget}: {caps:?}");
            if budget >= 105.0 {
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!(*c >= dem.min_w - 1e-9, "floor unmet: {caps:?}");
                }
            }
        }
    }

    #[test]
    fn fastcap_beats_uniform_on_modelled_performance() {
        // Strongly heterogeneous demand: uniform wastes budget on the
        // small server while starving the big ones.
        let ds = vec![d(200.0, 40.0), d(180.0, 40.0), d(50.0, 40.0)];
        let budget = 270.0;
        let uni = split_caps(CapSplit::Uniform, budget, &ds, 1.0);
        let fc = split_caps(CapSplit::FastCap, budget, &ds, 1.0);
        let perf =
            |caps: &[f64]| -> f64 { caps.iter().zip(&ds).map(|(c, d)| utility_at(d, *c)).sum() };
        assert!(
            perf(&fc) > perf(&uni) + 1e-6,
            "fastcap {} vs uniform {}",
            perf(&fc),
            perf(&uni)
        );
    }

    #[test]
    fn infeasible_floors_scale_down() {
        let ds = vec![d(100.0, 60.0), d(100.0, 60.0)];
        for split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
        ] {
            let caps = split_caps(split, 60.0, &ds, 1.0);
            assert!(caps.iter().sum::<f64>() <= 60.0 + 1e-9, "{split}: {caps:?}");
        }
    }

    fn sla(p99_s: f64, target_s: f64) -> SlaSignal {
        SlaSignal { p99_s, target_s }
    }

    #[test]
    fn sla_split_boosts_violators_and_trims_meeters() {
        // Two identical servers; one violating, one comfortably meeting.
        let ds = vec![d(120.0, 30.0), d(120.0, 30.0)];
        let sig = vec![sla(2e-3, 1e-3), sla(0.3e-3, 1e-3)];
        let caps = split_caps_sla(200.0, &ds, &sig, 1.0);
        // The violator bids full demand and there is budget for it.
        assert!((caps[0] - 120.0).abs() < 1e-9, "{caps:?}");
        // The meeter is trimmed below demand: at 30% of target its desire
        // is 30 + 90·(0.25 + 0.75·0.3) = 72.75 W.
        assert!((caps[1] - 72.75).abs() < 1e-9, "{caps:?}");
        // And the fleet deliberately under-consumes the budget.
        assert!(caps.iter().sum::<f64>() < 200.0);
    }

    #[test]
    fn sla_split_respects_budget_under_pressure() {
        let ds = vec![d(150.0, 40.0), d(90.0, 35.0), d(60.0, 30.0)];
        let sig = vec![sla(5e-3, 1e-3), sla(5e-3, 1e-3), sla(5e-3, 1e-3)];
        for budget in [90.0, 140.0, 200.0, 500.0] {
            let caps = split_caps_sla(budget, &ds, &sig, 1.0);
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "budget {budget}: {caps:?}"
            );
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(*c <= dem.demand_w + 1e-9, "over demand: {caps:?}");
            }
        }
    }

    #[test]
    fn sla_split_with_unknown_latency_bids_full_demand() {
        // No samples yet (p99 == 0): treated like a violator's full-demand
        // bid, so a generous budget grants everything.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let sig = vec![sla(0.0, 1e-3), sla(0.0, 1e-3)];
        let caps = split_caps_sla(400.0, &ds, &sig, 1.0);
        assert!((caps[0] - 100.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 100.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn sla_split_violators_win_scarce_budget() {
        // Budget covers floors plus ~one server's headroom. The violator
        // must get its headroom before the meeter sees a single quantum.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let sig = vec![sla(2e-3, 1e-3), sla(0.99e-3, 1e-3)];
        let caps = split_caps_sla(130.0, &ds, &sig, 1.0);
        assert!((caps[0] - 100.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 30.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn sla_variant_without_signals_grants_like_fastcap_until_demand_is_met() {
        // Every server is unknown, so each bids its full demand. Below
        // saturation that is FastCap's granting order.
        let ds = vec![d(200.0, 40.0), d(180.0, 40.0), d(50.0, 40.0)];
        let a = split_caps(CapSplit::SlaAware, 270.0, &ds, 1.0);
        let b = split_caps(CapSplit::FastCap, 270.0, &ds, 1.0);
        assert_eq!(a, b);
        // Saturated, every server gets exactly its demand, while FastCap
        // parks the 70 W left over above it.
        let a = split_caps(CapSplit::SlaAware, 500.0, &ds, 1.0);
        let demands: Vec<f64> = ds.iter().map(|d| d.demand_w).collect();
        assert_eq!(a, demands);
        let b = split_caps(CapSplit::FastCap, 500.0, &ds, 1.0);
        assert!((b.iter().sum::<f64>() - 500.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn sla_variant_without_signals_never_parks_leftover() {
        // Regression: the degraded SlaAware path used to call fastcap_split
        // verbatim, which parks surplus budget on servers *above* their
        // demand — violating split_caps_sla's "leftover goes unspent"
        // invariant and making `--split sla-aware` batch runs draw more
        // power than serve runs at the same budget.
        let ds = vec![d(100.0, 30.0), d(60.0, 20.0), d(80.0, 25.0)];
        for budget in [300.0, 500.0, 1000.0] {
            let caps = split_caps(CapSplit::SlaAware, budget, &ds, 1.0);
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "budget {budget}: {caps:?}"
            );
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(
                    *c <= dem.demand_w + 1e-9,
                    "budget {budget}: cap above demand in {caps:?}"
                );
            }
            // A generous budget saturates everyone exactly at demand.
            if budget >= 240.0 {
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!((c - dem.demand_w).abs() < 1e-9, "{caps:?}");
                }
            }
        }
        // FastCap proper still parks — the two variants genuinely differ.
        let parked = split_caps(CapSplit::FastCap, 500.0, &ds, 1.0);
        assert!(parked.iter().sum::<f64>() > 400.0, "{parked:?}");
    }

    #[test]
    fn sla_degenerate_all_violators_short_circuits() {
        // Every server violating, with deliberately awkward fractional
        // demands so the final clipped grants leave float residue, and a
        // budget far above total demand so `spare` stays large after
        // everyone saturates. The first pass clips the whole fleet at
        // demand; the leftover pass must then see an empty unclipped set
        // and stop — the old loop kept scanning the clipped servers,
        // shaving sub-nanowatt grants off `spare` per iteration.
        let ds = vec![d(97.3, 24.1), d(55.7, 19.9), d(61.9, 21.3)];
        let sig = vec![sla(3e-3, 1e-3); 3];
        for quantum in [0.1, 0.3, 1.0, 7.0] {
            let caps = split_caps_sla(1e4, &ds, &sig, quantum);
            // Saturation exactly at demand, nothing parked above it.
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(
                    (c - dem.demand_w).abs() < 1e-9,
                    "quantum {quantum}: {caps:?}"
                );
            }
            assert!(caps.iter().sum::<f64>() <= 1e4 + 1e-6);
        }
    }

    #[test]
    fn sla_fractional_desires_terminate_and_respect_ceilings() {
        // Meeting servers get fractional desires (floor + trimmed
        // headroom), which the quantum clip rounds against. Whatever the
        // quantum, granting must terminate with every cap at or below its
        // desire and the budget respected.
        let ds = vec![d(103.7, 31.9), d(87.3, 22.1), d(64.9, 17.7)];
        let sig = vec![sla(0.41e-3, 1e-3), sla(0.73e-3, 1e-3), sla(0.97e-3, 1e-3)];
        for quantum in [0.1, 0.7, 2.3] {
            for budget in [120.0, 260.0, 5e3] {
                let caps = split_caps_sla(budget, &ds, &sig, quantum);
                assert!(
                    caps.iter().sum::<f64>() <= budget + 1e-6,
                    "q={quantum} b={budget}: {caps:?}"
                );
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!(
                        *c <= dem.demand_w + 1e-9,
                        "q={quantum} b={budget}: {caps:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_explicit_floors_surface_structured_error() {
        // Two servers whose configured floors (70 + 70) over-commit a
        // 100 W budget. The legacy paths silently scale; explicit floors
        // must refuse instead.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let floors_w = [70.0, 70.0];
        let expect = SplitError::InfeasibleFloors {
            required_w: 140.0,
            budget_w: 100.0,
        };
        assert_eq!(
            split_caps_critical(100.0, &ds, Some(&[0.5, 0.5]), Some(&floors_w)),
            Err(expect)
        );
        let msg = expect.to_string();
        assert!(msg.contains("infeasible floors"), "{msg}");
        assert!(msg.contains("140.000") && msg.contains("100.000"), "{msg}");
        // The same floors under a sufficient budget succeed and cover them.
        let caps = split_caps_critical(150.0, &ds, Some(&[0.5, 0.5]), Some(&floors_w)).unwrap();
        assert!(caps.iter().all(|&c| c >= 70.0 - 1e-9), "{caps:?}");
    }

    #[test]
    fn explicit_floors_are_raised_to_min_power() {
        // A floor below the server's all-minimum power is unreachable;
        // the effective floor is min_w.
        let ds = vec![d(100.0, 40.0), d(100.0, 40.0)];
        let caps = split_caps_critical(80.0, &ds, Some(&[1.0, 0.0]), Some(&[5.0, 5.0])).unwrap();
        assert!(caps[1] >= 40.0 - 1e-9, "{caps:?}");
        // And min_w-raised floors count toward infeasibility.
        assert!(split_caps_critical(70.0, &ds, None, Some(&[5.0, 5.0])).is_err());
    }

    #[test]
    fn critical_split_degrades_to_demand_proportional() {
        let ds = vec![d(130.0, 30.0), d(80.0, 30.0), d(60.0, 25.0)];
        let dp = split_caps(CapSplit::DemandProportional, 180.0, &ds, 1.0);
        for shares in [None, Some([0.0, 0.0, 0.0].as_slice())] {
            let caps = split_caps_critical(180.0, &ds, shares, None).unwrap();
            assert_eq!(caps, dp, "shares {shares:?}");
        }
        // The flat CapSplit arm (batch runs, no traces) matches too.
        assert_eq!(split_caps(CapSplit::CriticalPath, 180.0, &ds, 1.0), dp);
    }

    #[test]
    fn critical_split_shifts_budget_toward_critical_tier() {
        // Three identical tiers; traces say tier 2 dominates the
        // critical path.
        let ds = vec![d(120.0, 30.0), d(120.0, 30.0), d(120.0, 30.0)];
        let shares = [0.1, 0.2, 0.7];
        let caps = split_caps_critical(180.0, &ds, Some(&shares), None).unwrap();
        assert!(caps.iter().sum::<f64>() <= 180.0 + 1e-9, "{caps:?}");
        assert!(caps[2] > caps[1] && caps[1] > caps[0], "{caps:?}");
        // Spare above floors (90 W) goes exactly by share.
        assert!((caps[2] - (30.0 + 0.7 * 90.0)).abs() < 1e-9, "{caps:?}");
        // A tier entirely off the critical path keeps its floor.
        let caps = split_caps_critical(180.0, &ds, Some(&[0.0, 0.3, 0.7]), None).unwrap();
        assert!((caps[0] - 30.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn critical_split_clips_at_demand_and_leaves_leftover_unspent() {
        // The critical tier saturates at its demand; surplus flows to the
        // others by share, and budget beyond everyone's demand is unspent.
        let ds = vec![d(60.0, 20.0), d(60.0, 20.0), d(200.0, 20.0)];
        let caps = split_caps_critical(400.0, &ds, Some(&[0.0, 0.4, 0.6]), None).unwrap();
        assert!((caps[1] - 60.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[2] - 200.0).abs() < 1e-9, "{caps:?}");
        // Tier 0 has zero share: floor only, even with budget to spare.
        assert!((caps[0] - 20.0).abs() < 1e-9, "{caps:?}");
        assert!(
            caps.iter().sum::<f64>() < 400.0 - 1.0,
            "leftover spent: {caps:?}"
        );
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the index-order pass and the heap greedy from the same state.
    /// When the pass runs, its caps, spare and outcome must equal the heap's
    /// to the bit, and the heap must have clipped nobody; when it declines,
    /// it must leave the state as it found it. Returns the pass's caps,
    /// spare and outcome, or `None` when it declined.
    fn pass_against_heap(
        ds: &[ServerDemand],
        caps: &[f64],
        spare: f64,
        q: f64,
    ) -> Option<(Vec<f64>, f64, bool)> {
        let (mut heap_caps, mut heap_spare) = (caps.to_vec(), spare);
        let mut clipped = vec![false; ds.len()];
        let heap = grant_quanta(
            ds,
            Ceiling::Demand,
            |_| true,
            q,
            &mut heap_caps,
            &mut clipped,
            &mut heap_spare,
        );
        let (mut pass_caps, mut pass_spare) = (caps.to_vec(), spare);
        let tag = format!("q {q}, spare {spare}, {ds:?} from {caps:?}");
        let Some(saturated) = grant_in_index_order(ds, q, &mut pass_caps, &mut pass_spare) else {
            assert_eq!(bits(&pass_caps), bits(caps), "declined, caps moved: {tag}");
            assert_eq!(pass_spare.to_bits(), spare.to_bits(), "declined: {tag}");
            return None;
        };
        assert_eq!(saturated, heap, "outcome: {tag}");
        assert_eq!(bits(&pass_caps), bits(&heap_caps), "caps: {tag}");
        assert_eq!(pass_spare.to_bits(), heap_spare.to_bits(), "spare: {tag}");
        assert_eq!(clipped, vec![false; ds.len()], "heap clipped: {tag}");
        Some((pass_caps, pass_spare, saturated))
    }

    /// Random fleets (inactive, zero-headroom and already saturated servers
    /// among them) with quanta from 1 mW to 10 W and a spare within three
    /// quanta of the whole climb to demand, so the pass both runs and
    /// declines.
    #[test]
    fn index_order_pass_matches_the_heap_wherever_it_runs() {
        let mut seed = 0x5eed_c0de_u64;
        let mut uniform = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut ran, mut declined) = (0, 0);
        for _ in 0..3000 {
            let n = 1 + (uniform() * 12.0) as usize;
            let q = 10f64.powf(-3.0 + 4.0 * uniform());
            let mut ds = Vec::with_capacity(n);
            let mut caps = Vec::with_capacity(n);
            for _ in 0..n {
                let demand_w = q * (1.0 + 200.0 * uniform());
                let kind = uniform();
                let min_w = if kind < 0.1 {
                    demand_w * (1.0 + uniform())
                } else {
                    demand_w * (0.1 + 0.7 * uniform())
                };
                let active = kind >= 0.2;
                // Anywhere from the floor to a fifth past demand.
                let cap = min_w + (demand_w - min_w).max(0.0) * 1.2 * uniform();
                ds.push(ServerDemand {
                    demand_w,
                    min_w,
                    active,
                });
                caps.push(if active { cap } else { 0.0 });
            }
            let climb: f64 = ds
                .iter()
                .zip(&caps)
                .filter(|(d, _)| d.active)
                .map(|(d, cap)| ((d.demand_w - cap) / q).ceil().max(0.0))
                .sum();
            let spare = q * (climb + 6.0 * uniform() - 3.0);
            match pass_against_heap(&ds, &caps, spare, q) {
                Some(_) => ran += 1,
                None => declined += 1,
            }
        }
        assert!(
            ran > 300 && declined > 300,
            "ran {ran}, declined {declined}"
        );
    }

    /// Three servers that reach demand in 4, 6 and 3 grants of a quantum
    /// every sum represents exactly: 13 grants in all.
    fn thirteen_grants() -> (Vec<ServerDemand>, Vec<f64>, f64) {
        let ds = vec![d(12.0, 10.0), d(23.0, 20.0), d(6.5, 5.0)];
        let caps = ds.iter().map(|d| d.min_w).collect();
        (ds, caps, 0.5)
    }

    #[test]
    fn index_order_pass_with_exactly_enough_or_one_quantum_more() {
        let (ds, caps, q) = thirteen_grants();
        let demand: Vec<f64> = ds.iter().map(|d| d.demand_w).collect();
        // The budget runs out on the last grant: nothing is left to park.
        let (got, spare, saturated) = pass_against_heap(&ds, &caps, 13.0 * q, q).expect("ran");
        assert_eq!(
            (got.as_slice(), spare, saturated),
            (&demand[..], 0.0, false)
        );
        // A quantum to spare: every server saturates with it left over.
        let (got, spare, saturated) = pass_against_heap(&ds, &caps, 14.0 * q, q).expect("ran");
        assert_eq!((got.as_slice(), spare, saturated), (&demand[..], q, true));
    }

    #[test]
    fn index_order_pass_does_not_park_a_nanowatt_remainder() {
        // The last grant leaves half a nanowatt, where the heap greedy stops
        // as if the budget ran out. Reporting saturation instead would park
        // that remainder and move every cap by a few ulps.
        let (ds, caps, q) = thirteen_grants();
        let (_, spare, saturated) =
            pass_against_heap(&ds, &caps, 13.0 * q + 5e-10, q).expect("ran");
        assert!(spare > 0.0 && spare <= 1e-9, "{spare}");
        assert!(!saturated);
    }

    #[test]
    fn index_order_pass_declines_short_of_a_whole_quantum() {
        // The thirteenth grant would see no quantum, or half of one, where
        // the heap greedy stops or shrinks the quantum and the grant order
        // matters.
        let (ds, caps, q) = thirteen_grants();
        for short in [1.0, 0.5] {
            let spare = (13.0 - short) * q;
            assert!(pass_against_heap(&ds, &caps, spare, q).is_none(), "{short}");
            // The covering estimate would not have chosen the pass either.
            assert!(!budget_outlasts_bids(&ds, &caps, spare, q), "{short}");
        }
    }

    #[test]
    fn index_order_pass_declines_at_a_nanowatt() {
        // Below a nanowatt of spare the heap greedy grants nothing, even
        // when the quantum is smaller still and would cover the climb.
        let q = 2f64.powi(-34);
        let ds = vec![d(1.0 + 4.0 * q, 1.0)];
        assert!(pass_against_heap(&ds, &[1.0], 8.0 * q, q).is_none());
    }

    #[test]
    fn index_order_pass_declines_a_quantum_near_the_ulp_of_the_caps() {
        // At 2^22 W a cap's ulp is 2^-30 W, and a quantum of 1.25 ulps moves
        // a cap by one ulp. Each server climbs 64 ulps in 64 grants where the
        // covering estimate counts ceil(64 / 1.25) + 1 = 53, so a budget the
        // estimate accepts runs out of whole quanta and the heap takes over.
        let ulp = 2f64.powi(-30);
        let q = 1.25 * ulp;
        let floor = 2f64.powi(22);
        let ds = vec![d(floor + 64.0 * ulp, floor); 4];
        let caps = vec![floor; 4];
        let spare = (4.0 * 53.0 + 1.0) * q;
        assert!(budget_outlasts_bids(&ds, &caps, spare, q));
        assert!(pass_against_heap(&ds, &caps, spare, q).is_none());
        // With a whole quantum per grant the same climb runs in order.
        let (got, _, saturated) = pass_against_heap(&ds, &caps, 257.0 * q, q).expect("ran");
        assert!(saturated);
        assert!(
            got.iter().zip(&ds).all(|(c, d)| *c == d.demand_w),
            "{got:?}"
        );
    }
}
