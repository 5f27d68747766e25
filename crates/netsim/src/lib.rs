//! A simulated message plane over the deterministic event queue.
//!
//! `MsgPlane` models the network between a fleet coordinator and its servers
//! as point-to-point links that share one configuration: one-way latency,
//! uniform jitter, drop probability, and duplication probability. It is built
//! on [`simkernel::EventQueue`], so delivery order is totally ordered by
//! (delivery time, send sequence) — two messages due at the same instant pop
//! in the order they were sent, never by heap accident.
//!
//! # Determinism
//!
//! Every random choice about a message's fate (lost? duplicated? how much
//! jitter?) is drawn from a private [`SimRng`] seeded by
//! `(plane seed, send counter)`: the fate of the *k*-th `send` call depends
//! only on the plane's seed and *k*, never on delivery order, wall clock, or
//! worker-thread count. Callers who issue sends in a deterministic order
//! (e.g. from a single-threaded coordination barrier) therefore get
//! bit-identical traffic per seed across 1–8 threads.
//!
//! # Partitions
//!
//! Each node carries a boolean partition flag. A message is dropped when its
//! endpoints are on opposite sides of the partition, checked both at send
//! time and again at delivery time — so traffic already in flight when a
//! partition rises is cut too, like a cable being pulled mid-transfer.
//!
//! # Example
//!
//! ```
//! use netsim::{LinkConfig, MsgPlane, NodeId};
//! use simkernel::Ps;
//!
//! let mut plane: MsgPlane<&str> = MsgPlane::new(2, LinkConfig::loopback(), 1);
//! plane.send(Ps::ZERO, NodeId(0), NodeId(1), "hello");
//! let delivered = plane.deliver_due(Ps::ZERO);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].msg, "hello");
//! ```

use simkernel::{EventQueue, Ps, SimRng};

/// A node on the plane, identified by a dense index in `0..nodes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Delivery characteristics of every link on a plane. Defaults to a
/// perfect link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Fixed one-way latency added to every message.
    pub latency: Ps,
    /// Maximum extra delay; each message draws uniformly from
    /// `[0, jitter]` (inclusive) on top of `latency`.
    pub jitter: Ps,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a message is delivered twice; the copy
    /// draws its own independent jitter.
    pub duplicate: f64,
}

impl LinkConfig {
    /// A perfect link: zero latency, zero jitter, no loss, no duplication.
    /// Messages sent at time `t` are deliverable at `t`.
    pub fn loopback() -> Self {
        LinkConfig {
            latency: Ps::ZERO,
            jitter: Ps::ZERO,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// Validates probability ranges. Returns a human-readable error rather
    /// than panicking, so CLI layers can surface it cleanly.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) || self.loss.is_nan() {
            return Err(format!("link loss must be in [0, 1], got {}", self.loss));
        }
        if !(0.0..=1.0).contains(&self.duplicate) || self.duplicate.is_nan() {
            return Err(format!(
                "link duplication must be in [0, 1], got {}",
                self.duplicate
            ));
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::loopback()
    }
}

/// A message in flight (or delivered): payload plus routing metadata.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
}

/// Counters describing everything the plane has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// `send` calls observed.
    pub sent: u64,
    /// Envelopes handed to receivers (duplicates count individually).
    pub delivered: u64,
    /// Messages dropped by the loss coin at send time.
    pub dropped_loss: u64,
    /// Messages dropped because the endpoints were partitioned, at send or
    /// at delivery time.
    pub dropped_partition: u64,
    /// Extra copies injected by the duplication coin.
    pub duplicated: u64,
}

/// The simulated message plane. See the crate docs for the model.
#[derive(Clone, Debug)]
pub struct MsgPlane<M> {
    nodes: usize,
    link: LinkConfig,
    partitioned: Vec<bool>,
    queue: EventQueue<Envelope<M>>,
    seed: u64,
    sends: u64,
    stats: PlaneStats,
}

impl<M: Clone> MsgPlane<M> {
    /// Creates a plane over `nodes` nodes where every link uses `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` fails validation; validate first when the config
    /// comes from user input.
    pub fn new(nodes: usize, link: LinkConfig, seed: u64) -> Self {
        link.validate()
            .expect("invalid LinkConfig; call validate() on user input first");
        MsgPlane {
            nodes,
            link,
            partitioned: vec![false; nodes],
            queue: EventQueue::new(),
            seed,
            sends: 0,
            stats: PlaneStats::default(),
        }
    }

    /// Number of nodes on the plane.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Moves `node` onto (or off) the minority side of the partition.
    /// Messages between nodes with differing flags are dropped.
    pub fn set_partitioned(&mut self, node: NodeId, cut: bool) {
        self.partitioned[node.0] = cut;
    }

    /// A private RNG for the fate of the `k`-th send. Mixing the counter
    /// through SplitMix64-style multiplication keeps nearby counters'
    /// streams unrelated.
    fn fate_rng(&self, k: u64) -> SimRng {
        SimRng::new(
            self.seed
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Sends `msg` from `from` to `to` at time `now`. The message's fate
    /// (loss, jitter, duplication) is fixed here, deterministically from the
    /// plane seed and the send counter.
    pub fn send(&mut self, now: Ps, from: NodeId, to: NodeId, msg: M) {
        assert!(
            from.0 < self.nodes && to.0 < self.nodes,
            "node out of range"
        );
        let k = self.sends;
        self.sends += 1;
        self.stats.sent += 1;
        if self.partitioned[from.0] != self.partitioned[to.0] {
            self.stats.dropped_partition += 1;
            return;
        }
        let link = self.link;
        let mut rng = self.fate_rng(k);
        // Fixed draw order (loss, jitter, dup, dup-jitter) so a message's
        // fate is a pure function of the plane seed, `k` and the link.
        let lost = rng.chance(link.loss);
        let jitter = if link.jitter == Ps::ZERO {
            0
        } else {
            rng.below(link.jitter.as_ps() + 1)
        };
        let duplicated = rng.chance(link.duplicate);
        let dup_jitter = if link.jitter == Ps::ZERO {
            0
        } else {
            rng.below(link.jitter.as_ps() + 1)
        };
        if lost {
            self.stats.dropped_loss += 1;
            return;
        }
        let env = Envelope { from, to, msg };
        let due = Ps::new(now.as_ps() + link.latency.as_ps() + jitter);
        if duplicated {
            self.stats.duplicated += 1;
            let dup_due = Ps::new(now.as_ps() + link.latency.as_ps() + dup_jitter);
            self.queue.push(dup_due, env.clone());
        }
        self.queue.push(due, env);
    }

    /// Pops every envelope due at or before `now`, in (due time, send
    /// order). Envelopes whose endpoints are partitioned *at delivery time*
    /// are dropped here.
    pub fn deliver_due(&mut self, now: Ps) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while self.queue.peek_time().is_some_and(|t| t <= now) {
            let (_, env) = self.queue.pop().expect("peeked entry vanished");
            if self.partitioned[env.from.0] != self.partitioned[env.to.0] {
                self.stats.dropped_partition += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push(env);
        }
        out
    }

    /// Envelopes currently queued for future delivery.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> PlaneStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(link: LinkConfig, seed: u64) -> MsgPlane<u32> {
        MsgPlane::new(4, link, seed)
    }

    #[test]
    fn loopback_delivers_same_instant_in_send_order() {
        let mut p = plane(LinkConfig::loopback(), 7);
        for i in 0..10 {
            p.send(Ps::new(5), NodeId(0), NodeId(1), i);
        }
        let got: Vec<u32> = p
            .deliver_due(Ps::new(5))
            .into_iter()
            .map(|e| e.msg)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn latency_defers_delivery() {
        let link = LinkConfig {
            latency: Ps::new(3),
            ..LinkConfig::loopback()
        };
        let mut p = plane(link, 7);
        p.send(Ps::new(10), NodeId(0), NodeId(1), 1);
        assert!(p.deliver_due(Ps::new(12)).is_empty());
        assert_eq!(p.deliver_due(Ps::new(13)).len(), 1);
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let link = LinkConfig {
            loss: 0.5,
            ..LinkConfig::loopback()
        };
        let run = |seed| {
            let mut p = plane(link, seed);
            for i in 0..100 {
                p.send(Ps::ZERO, NodeId(0), NodeId(1), i);
            }
            p.deliver_due(Ps::ZERO)
                .into_iter()
                .map(|e| e.msg)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let survivors = run(42).len();
        assert!(
            (20..=80).contains(&survivors),
            "loss 0.5 kept {survivors}/100"
        );
    }

    #[test]
    fn duplication_delivers_twice() {
        let link = LinkConfig {
            duplicate: 1.0,
            ..LinkConfig::loopback()
        };
        let mut p = plane(link, 1);
        p.send(Ps::ZERO, NodeId(0), NodeId(1), 9);
        let got = p.deliver_due(Ps::ZERO);
        assert_eq!(got.len(), 2);
        assert_eq!(p.stats().duplicated, 1);
        assert_eq!(p.stats().delivered, 2);
    }

    #[test]
    fn partition_drops_at_send_and_delivery() {
        let link = LinkConfig {
            latency: Ps::new(5),
            ..LinkConfig::loopback()
        };
        let mut p = plane(link, 3);
        // In flight when the partition rises: dropped at delivery.
        p.send(Ps::ZERO, NodeId(0), NodeId(1), 1);
        p.set_partitioned(NodeId(1), true);
        assert!(p.deliver_due(Ps::new(5)).is_empty());
        // Sent across an existing partition: dropped at send.
        p.send(Ps::new(6), NodeId(0), NodeId(1), 2);
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.stats().dropped_partition, 2);
        // Same side of the cut still talks.
        p.set_partitioned(NodeId(2), true);
        p.send(Ps::new(6), NodeId(2), NodeId(1), 3);
        assert_eq!(p.deliver_due(Ps::new(11)).len(), 1);
        // Healing restores traffic.
        p.set_partitioned(NodeId(1), false);
        p.set_partitioned(NodeId(2), false);
        p.send(Ps::new(20), NodeId(0), NodeId(1), 4);
        assert_eq!(p.deliver_due(Ps::new(25)).len(), 1);
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        for loss in [-0.1, 1.1, f64::NAN] {
            let link = LinkConfig {
                loss,
                ..LinkConfig::loopback()
            };
            assert!(link.validate().is_err(), "loss {loss} accepted");
        }
        let link = LinkConfig {
            duplicate: 2.0,
            ..LinkConfig::loopback()
        };
        assert!(link.validate().is_err());
    }

    #[test]
    fn fate_independent_of_delivery_interleaving() {
        // Draining the queue early vs late must not change later fates.
        let link = LinkConfig {
            loss: 0.3,
            jitter: Ps::new(4),
            ..LinkConfig::loopback()
        };
        let mut a = plane(link, 11);
        let mut b = plane(link, 11);
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for i in 0..50u32 {
            a.send(Ps::new(i as u64), NodeId(0), NodeId(1), i);
            // Plane A drains eagerly at every step.
            got_a.extend(a.deliver_due(Ps::new(i as u64)).into_iter().map(|e| e.msg));
            b.send(Ps::new(i as u64), NodeId(0), NodeId(1), i);
        }
        got_a.extend(a.deliver_due(Ps::new(1000)).into_iter().map(|e| e.msg));
        got_b.extend(b.deliver_due(Ps::new(1000)).into_iter().map(|e| e.msg));
        let mut sa = got_a.clone();
        let mut sb = got_b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "the set of surviving messages must match");
    }
}
