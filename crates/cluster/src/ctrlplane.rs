//! The message-passing control plane: coordinator ↔ server RPC over a
//! simulated network, with leases, liveness tracking, and failover.
//!
//! Historically the coordinator read telemetry and wrote caps by direct
//! function call — an implicit perfect network. This module makes every
//! exchange an explicit typed message ([`CtrlMsg`]) over a
//! [`netsim::MsgPlane`], so the control loop tolerates (and experiments can
//! measure) delay, loss, duplication, and partitions:
//!
//! * **Telemetry** — each server reports its [`ServerDemand`] to the leader
//!   it last heard from, every barrier. Telemetry doubles as the
//!   server's liveness signal: a leader that hasn't heard from a server for
//!   `suspect_after` barriers stops granting to it (its share is
//!   redistributed once its lease expires, never before).
//! * **Cap grants are leases** — a [`CapGrant`] carries `(term, seq)`
//!   ordering, a cap in watts, and an expiry barrier. A server that misses
//!   renewals keeps running on its last-applied cap until the lease
//!   expires, then falls to the safe floor cap ([`RpcConfig::floor_cap_w`],
//!   default 0 W, which drives the local policy to its minimum-power plan).
//!   Servers ack every applied grant; the coordinator's [`LeaseLedger`]
//!   counts a server's watts as reserved until the grant that lowered them
//!   is acked or the lease expires, so the fleet's in-force caps never
//!   exceed the budget — conservation by conservative accounting, not by
//!   assuming delivery.
//! * **Heartbeats and failover** — with [`RpcConfig::failover`] enabled a
//!   standby coordinator mirrors the leader's state from per-barrier
//!   heartbeats. A coordinator that hasn't heard a live leader for
//!   `heartbeat_timeout` barriers elects itself at the next term **of its
//!   own parity** (primary takes even terms, standby odd), so two
//!   coordinators can never elect the same term — the election is
//!   deterministic and tie-free by construction. Servers follow the highest
//!   term they have applied and nack lower-term grants with their current
//!   term, which makes a healed stale leader adopt the new term and step
//!   down — immediately, mid-batch: the first higher-term nack aborts the
//!   round's remaining grants.
//! * **The acked-state handoff** — replication is *acknowledged*: every
//!   heartbeat carries a sequence number, the follower answers each
//!   adoption with a [`CtrlMsg::HeartbeatAck`], and the leader tracks the
//!   highest acked sequence as its **replication watermark**. Watts freed
//!   at the leader (a decrease acked by a server, or a lease expiring) are
//!   not returned to the free pool immediately — the freeing entry is
//!   *pinned* in the ledger, tagged with the heartbeat sequence current at
//!   release time, and only dropped once the watermark proves the follower
//!   adopted a snapshot in which the entry had already left `outstanding`.
//!   The leader therefore never re-spends watts its follower might still
//!   believe in force. On takeover the new leader rebuilds the ledger
//!   **conservatively**: for every server it replaces its (possibly stale)
//!   entries with one synthetic reservation at the maximum outstanding cap
//!   it replicated — the worst case over the un-acked suffix it may never
//!   have seen — expiring one full quarantine later, and it quarantines
//!   the free pool for `latency + jitter + lease` rounds (see
//!   [`RpcConfig::resolve`]), so late-arriving grants from the
//!   dead leader can never land outside the reserved window. Conservation
//!   — in-force caps ≤ budget + expired-lease floors — thereby holds
//!   through failover under any loss/dup/latency/partition schedule, at
//!   the price that a leader cut off from its follower stops re-spending
//!   freed watts until contact resumes (frozen, never over-committed).
//!
//! # Loopback equivalence
//!
//! Under the default [`RpcConfig`] (zero latency, zero loss, no failover)
//! every message sent at a barrier is delivered and answered within that
//! same barrier, and the reconcile loop below converges to the caps of a
//! direct [`HierSplitter`] split up to float dust. An increase is funded
//! from `budget − Σ reserved`; when that remainder is a few ulps short of
//! the increase, the server is granted `reserved + free` instead of its
//! target. In the seed-0 traced `perfbench` runs 8,190 of 8,192 caps on
//! `fleet_racks` and 27,084 of 27,136 on `fleet_flat` were bit-identical
//! to a direct split, and the rest were within a relative 2e-10. With
//! failover on, the leader also heartbeats *between* reconcile passes, so
//! at zero latency each pass's freed watts are confirmed by the standby
//! within the barrier and the caps equal the failover-less run's
//! (`loopback_standby_is_a_pure_observer` in
//! `tests/engine_equivalence.rs`).

use crate::coordinator::ServerDemand;
use crate::hiercache::HierSplitter;
use crate::{BudgetTree, ClusterConfig};
use netsim::{Envelope, LinkConfig, MsgPlane, NodeId, PlaneStats};
use simkernel::Ps;

/// One scheduled network partition: the named nodes are cut off from the
/// rest of the plane for barriers `from_round <= r < to_round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// First barrier (inclusive) the cut is in effect.
    pub from_round: u64,
    /// First barrier (exclusive) after the cut heals.
    pub to_round: u64,
    /// Server names, plus the special names `primary` and `standby` for
    /// the coordinators.
    pub nodes: Vec<String>,
}

/// Control-plane (RPC) configuration for a cluster run. The default is the
/// **loopback** plane: zero latency, zero jitter, no loss, no duplication,
/// no partitions, no standby — under which the in-force caps match a
/// direct split of the budget up to float dust (see the module doc's
/// "Loopback equivalence").
#[derive(Clone, Debug)]
pub struct RpcConfig {
    /// One-way message latency, microseconds (rounded up to whole
    /// coordination rounds; sub-round latency still costs one round,
    /// because messages only land at barriers).
    pub latency_us: f64,
    /// Maximum uniform extra delay per message, microseconds (quantized to
    /// whole rounds, rounding up).
    pub jitter_us: f64,
    /// Probability in `[0, 1]` that any message is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that any message is delivered twice.
    pub duplicate: f64,
    /// Seed for the plane's message-fate randomness (loss, jitter,
    /// duplication draws). Independent of every workload seed.
    pub seed: u64,
    /// Lease length in coordination rounds: a grant applied at round `r`
    /// is in force through round `r + lease_rounds - 1`. Must exceed the
    /// resolved latency + jitter (in rounds) or grants would expire in
    /// flight.
    pub lease_rounds: u64,
    /// The safe cap a server falls to when its lease expires unrenewed,
    /// watts. The default 0 W drives the server's capping policy to its
    /// minimum-power plan.
    pub floor_cap_w: f64,
    /// Run a standby coordinator that mirrors the leader via heartbeats
    /// and takes over by deterministic election when the leader goes
    /// silent.
    pub failover: bool,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Record every applied grant in
    /// [`ControlStats::grant_log`] — memory proportional to
    /// rounds × servers, so off by default; the invariant tests turn it
    /// on.
    pub audit: bool,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            latency_us: 0.0,
            jitter_us: 0.0,
            loss: 0.0,
            duplicate: 0.0,
            seed: 0xC0CA,
            lease_rounds: 8,
            floor_cap_w: 0.0,
            failover: false,
            partitions: Vec::new(),
            audit: false,
        }
    }
}

impl RpcConfig {
    /// Whether this is the perfect loopback plane (no delay, no loss, no
    /// duplication, no partitions).
    pub fn is_loopback(&self) -> bool {
        self.latency_us == 0.0
            && self.jitter_us == 0.0
            && self.loss == 0.0
            && self.duplicate == 0.0
            && self.partitions.is_empty()
    }

    /// Validates ranges and partition names against the fleet.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem found.
    pub fn validate(&self, server_names: &[&str]) -> Result<(), String> {
        for (label, v) in [
            ("rpc latency", self.latency_us),
            ("rpc jitter", self.jitter_us),
        ] {
            if v.is_nan() || !v.is_finite() || v < 0.0 {
                return Err(format!("{label} must be finite and >= 0 µs, got {v}"));
            }
        }
        for (label, p) in [("rpc loss", self.loss), ("rpc duplication", self.duplicate)] {
            if p.is_nan() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} must be in [0, 1], got {p}"));
            }
        }
        if self.lease_rounds == 0 {
            return Err("lease must last at least 1 round".into());
        }
        if !self.floor_cap_w.is_finite() || self.floor_cap_w < 0.0 {
            return Err(format!(
                "floor cap {} must be finite and non-negative",
                self.floor_cap_w
            ));
        }
        for p in &self.partitions {
            if p.from_round >= p.to_round {
                return Err(format!(
                    "partition rounds {}..{} are empty (from must be < to)",
                    p.from_round, p.to_round
                ));
            }
            if p.nodes.is_empty() {
                return Err("partition lists no nodes".into());
            }
            for n in &p.nodes {
                let known = n == "primary" || n == "standby" || server_names.iter().any(|s| s == n);
                if !known {
                    return Err(format!(
                        "partition names unknown node '{n}' (server name, 'primary', or 'standby')"
                    ));
                }
                if n == "standby" && !self.failover {
                    return Err("partition names 'standby' but failover is disabled".into());
                }
            }
        }
        Ok(())
    }

    /// Converts microsecond knobs to whole coordination rounds given the
    /// round length, and derives the protocol's timings from the worst
    /// one-way delay `d` = latency + jitter, in rounds:
    ///
    /// * a server is **suspected** after `max(5, 2d + 1)` barriers without
    ///   telemetry, and a coordinator **elects itself** after
    ///   `max(3, d + 1)` barriers without a heartbeat: both thresholds
    ///   exceed the plane's delay, so delay alone never makes a live
    ///   server or leader look silent;
    /// * a new leader **quarantines** its free pool for `d + lease`
    ///   rounds: every grant the dead leader could have issued, even one
    ///   still in flight, expires inside the reserved window.
    ///
    /// # Errors
    ///
    /// Rejects a lease shorter than the resolved latency + jitter: such
    /// grants would expire in flight and the fleet could never hold a cap.
    pub fn resolve(&self, round_s: f64) -> Result<ResolvedRpc, String> {
        assert!(round_s > 0.0, "round length must be positive");
        let to_rounds = |us: f64| ((us * 1e-6) / round_s).ceil() as u64;
        let latency = to_rounds(self.latency_us);
        let jitter = to_rounds(self.jitter_us);
        // Saturating, so a delay past `u64::MAX` rounds fails the lease
        // check below instead of wrapping under it.
        let delay = latency.saturating_add(jitter);
        if delay >= self.lease_rounds {
            return Err(format!(
                "lease of {} rounds does not outlast the rpc delay of up to {} rounds \
                 ({} + {} µs at {:.1} µs/round); grants would expire in flight — raise \
                 --lease-rounds or lower the latency",
                self.lease_rounds,
                delay,
                self.latency_us,
                self.jitter_us,
                round_s * 1e6
            ));
        }
        Ok(ResolvedRpc {
            latency_rounds: latency,
            jitter_rounds: jitter,
            heartbeat_timeout: (delay + 1).max(3),
            quarantine: delay.saturating_add(self.lease_rounds),
            suspect_after: delay.saturating_mul(2).saturating_add(1).max(5),
        })
    }
}

/// The timings [`RpcConfig::resolve`] derives, in whole coordination
/// rounds (the plane's clock: 1 tick = 1 barrier). Every other setting is
/// read from the [`RpcConfig`] itself.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedRpc {
    /// One-way latency in rounds.
    pub latency_rounds: u64,
    /// Maximum uniform extra delay in rounds.
    pub jitter_rounds: u64,
    /// Leader-silence threshold, rounds: `max(3, latency + jitter + 1)`.
    pub heartbeat_timeout: u64,
    /// Post-takeover quarantine length, rounds: latency + jitter + lease.
    pub quarantine: u64,
    /// Server-silence threshold, rounds: `max(5, 2·(latency + jitter) + 1)`.
    pub suspect_after: u64,
}

/// A cap lease offered to one server (the envelope's `to`).
#[derive(Clone, Copy, Debug)]
pub struct CapGrant {
    /// Issuing leader's term.
    pub term: u64,
    /// Issue sequence within the coordinator (totally ordered with `term`,
    /// lexicographically).
    pub seq: u64,
    /// The cap, watts.
    pub cap_w: f64,
    /// First barrier at which this lease is no longer in force.
    pub expires: u64,
}

/// A coordinator's replicated state, carried by heartbeats.
#[derive(Clone, Debug)]
pub struct ReplState {
    /// Last known telemetry per server.
    pub view: Vec<ServerDemand>,
    /// Barrier each view entry was reported at.
    pub view_round: Vec<u64>,
    /// The lease ledger.
    pub ledger: LeaseLedger,
    /// Next grant sequence number.
    pub next_seq: u64,
}

/// Every message that crosses the control plane. The [`Envelope`] names
/// sender and receiver, so no message repeats a server index.
#[derive(Clone, Debug)]
pub enum CtrlMsg {
    /// Server → leader: telemetry for one barrier (also the server's
    /// liveness signal).
    Telemetry {
        /// Barrier the report describes.
        round: u64,
        /// The telemetry.
        demand: ServerDemand,
    },
    /// Leader → server: a cap lease.
    Grant(CapGrant),
    /// Server → leader: grant applied; carries the server's now-current
    /// `(term, seq)` so re-acks of duplicates are idempotent.
    Ack {
        /// The server's current applied term.
        term: u64,
        /// The server's current applied sequence.
        seq: u64,
    },
    /// Server → leader: grant refused; carries the server's current term
    /// so a stale leader can fence itself.
    Nack {
        /// The server's current applied term.
        term: u64,
    },
    /// Leader → standby: state replication and liveness.
    Heartbeat(Box<Heartbeat>),
    /// Standby → leader: replication acknowledgement. The sender has
    /// adopted the leader's heartbeat `seq`, so every ledger release that
    /// snapshot reflected is confirmed replicated — the leader advances
    /// its watermark and may re-spend those watts.
    HeartbeatAck {
        /// Acking coordinator's current term.
        term: u64,
        /// The highest heartbeat sequence the sender has adopted.
        seq: u64,
    },
}

/// Heartbeat payload (boxed to keep [`CtrlMsg`] small).
#[derive(Clone, Debug)]
pub struct Heartbeat {
    /// Sender's term.
    pub term: u64,
    /// Sender's heartbeat sequence: monotone per coordinator, echoed by
    /// [`CtrlMsg::HeartbeatAck`]. Followers adopt only strictly newer
    /// sequences within a term, so jitter-reordered heartbeats can never
    /// roll replicated state backwards.
    pub seq: u64,
    /// Snapshot of the sender's replicated state.
    pub state: ReplState,
}

/// What happened when a server examined a grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantOutcome {
    /// Applied: the grant is newer than the current lease and not yet
    /// expired.
    Applied,
    /// Refused: `(term, seq)` not newer than the current lease.
    Stale,
    /// Refused: the grant arrived at or after its own expiry barrier — a
    /// lease that could never be in force must not resurrect a cap.
    Expired,
}

/// The server-side lease state machine: grant → renew → expire → floor.
///
/// A lease applied at barrier `r` with expiry `e` is in force for barriers
/// `r <= round < e`; outside it the server runs at the floor cap. Grants
/// are ordered by `(term, seq)` lexicographically and only strictly newer
/// grants apply, so duplicated or reordered renewals are harmless. The
/// clock used for expiry is the *server's* barrier clock — renewals from a
/// skew-free coordinator simply keep `expires` ahead of `round`; the
/// property tests skew the two clocks deliberately.
#[derive(Clone, Debug)]
pub struct LeaseClient {
    term: u64,
    seq: u64,
    cap_w: f64,
    expires: u64,
    floor_w: f64,
    leader: NodeId,
}

impl LeaseClient {
    /// A client holding an initial lease `(term 0, seq 0)` of `cap_w`
    /// expiring at `expires`, following `leader`.
    pub fn new(cap_w: f64, expires: u64, floor_w: f64, leader: NodeId) -> LeaseClient {
        LeaseClient {
            term: 0,
            seq: 0,
            cap_w,
            expires,
            floor_w,
            leader,
        }
    }

    /// Examines `grant` (delivered from `from`) at local barrier `now`.
    /// On [`GrantOutcome::Applied`] the lease is replaced and the server
    /// follows `from` as its leader.
    pub fn apply(&mut self, now: u64, grant: &CapGrant, from: NodeId) -> GrantOutcome {
        if (grant.term, grant.seq) <= (self.term, self.seq) {
            return GrantOutcome::Stale;
        }
        if grant.expires <= now {
            return GrantOutcome::Expired;
        }
        self.term = grant.term;
        self.seq = grant.seq;
        self.cap_w = grant.cap_w;
        self.expires = grant.expires;
        self.leader = from;
        GrantOutcome::Applied
    }

    /// The cap in force at `now`: the leased cap while the lease lives,
    /// the floor after it expires.
    pub fn effective_cap(&self, now: u64) -> f64 {
        if now < self.expires {
            self.cap_w
        } else {
            self.floor_w
        }
    }

    /// Whether the lease has expired at `now`.
    pub fn on_floor(&self, now: u64) -> bool {
        now >= self.expires
    }

    /// The leader this server currently reports to.
    pub fn leader(&self) -> NodeId {
        self.leader
    }

    /// The `(term, seq)` of the applied lease.
    pub fn granted(&self) -> (u64, u64) {
        (self.term, self.seq)
    }

    /// The applied term (what lower-term grants are fenced against).
    pub fn term(&self) -> u64 {
        self.term
    }
}

/// One outstanding (sent, not yet superseded-and-acked, not yet expired)
/// grant in the coordinator's ledger.
#[derive(Clone, Copy, Debug)]
pub struct LeaseEntry {
    /// Issuing term.
    pub term: u64,
    /// Issue sequence.
    pub seq: u64,
    /// Granted cap, watts.
    pub cap_w: f64,
    /// First barrier the grant is no longer in force.
    pub expires: u64,
}

/// The coordinator's conservative accounting of watts that may be in force
/// somewhere in the fleet.
///
/// Every sent grant is an entry until it **expires** or until a **newer**
/// grant to the same server is acked (an ack of `(term, seq)` proves every
/// older grant is superseded at the server, so only entries at or above the
/// ack survive). A server's reserved watts are the *maximum* cap over its
/// surviving entries — the worst case over which of its grants is actually
/// in force — and the leader only funds cap increases from
/// `budget − Σ reserved`. Decreases therefore free watts only when acked
/// or expired, never on hope.
///
/// A release ([`note_ack`](Self::note_ack) or [`expire`](Self::expire))
/// does not drop an entry but *pins* it, tagged with the heartbeat
/// sequence current at release time, and a pinned entry still counts as
/// reserved. Only [`release_confirmed`](Self::release_confirmed) — called
/// when the replication watermark proves the follower adopted a snapshot
/// in which the entry had already left `outstanding` — drops it. A
/// coordinator without a follower has nothing to wait for: its watermark
/// is `u64::MAX`, so its next confirmation drops every pin. A takeover then
/// rebuilds via [`reconstruct`](Self::reconstruct): the maximum
/// *outstanding* cap per server becomes a synthetic reservation (pinned
/// entries are provably not in force — superseded-and-acked or expired on
/// the shared barrier clock — and are exactly what the old leader is
/// licensed to re-spend once confirmed, so they must not be re-reserved).
#[derive(Clone, Debug)]
pub struct LeaseLedger {
    outstanding: Vec<Vec<LeaseEntry>>,
    /// Released entries awaiting replication confirmation, tagged with the
    /// heartbeat sequence at release. Kept as an antichain in
    /// `(cap, tag)`: an entry is dropped when another pins at least as
    /// many watts at least as long — observable state is identical.
    pinned: Vec<Vec<(u64, LeaseEntry)>>,
    acked: Vec<(u64, u64)>,
    last_sent_cap: Vec<f64>,
}

impl LeaseLedger {
    /// A ledger bootstrapped to match the fleet's initial state: every
    /// server holds an acked `(term 0, seq 0)` lease of `initial_cap_w`
    /// expiring at `expires`.
    pub fn new(n: usize, initial_cap_w: f64, expires: u64) -> LeaseLedger {
        LeaseLedger {
            outstanding: (0..n)
                .map(|_| {
                    vec![LeaseEntry {
                        term: 0,
                        seq: 0,
                        cap_w: initial_cap_w,
                        expires,
                    }]
                })
                .collect(),
            pinned: vec![Vec::new(); n],
            acked: vec![(0, 0); n],
            last_sent_cap: vec![initial_cap_w; n],
        }
    }

    /// Releases every entry no longer in force at `round`, pinning it
    /// under `tag` so its watts stay reserved until the follower confirms
    /// having seen the release. Returns how many expired. Pinned entries
    /// never re-expire — expiry is what proves they are not in force, so
    /// only confirmation may drop them.
    pub fn expire(&mut self, round: u64, tag: u64) -> u64 {
        let mut expired = 0;
        for (entries, pinned) in self.outstanding.iter_mut().zip(&mut self.pinned) {
            entries.retain(|e| {
                let live = e.expires > round;
                if !live {
                    expired += 1;
                    Self::pin(pinned, tag, *e);
                }
                live
            });
        }
        expired
    }

    /// Records a sent grant.
    pub fn note_sent(&mut self, server: usize, entry: LeaseEntry) {
        self.last_sent_cap[server] = entry.cap_w;
        self.outstanding[server].push(entry);
    }

    /// Processes an ack: the server's current lease is `(term, seq)`, so
    /// every strictly older entry is superseded and released, pinned
    /// under `tag` like an expiry.
    pub fn note_ack(&mut self, server: usize, term: u64, seq: u64, tag: u64) {
        if server >= self.acked.len() || (term, seq) <= self.acked[server] {
            return;
        }
        self.acked[server] = (term, seq);
        let pinned = &mut self.pinned[server];
        self.outstanding[server].retain(|e| {
            let current = (e.term, e.seq) >= (term, seq);
            if !current {
                Self::pin(pinned, tag, *e);
            }
            current
        });
    }

    fn pin(pinned: &mut Vec<(u64, LeaseEntry)>, tag: u64, entry: LeaseEntry) {
        // Antichain pruning: `a` dominates `b` when it reserves at least
        // as many watts (cap) at least as long (tag) — max-over-pinned is
        // unchanged at every future watermark, so dominated entries are
        // dead weight.
        if pinned
            .iter()
            .any(|(t, e)| *t >= tag && e.cap_w >= entry.cap_w)
        {
            return;
        }
        pinned.retain(|(t, e)| *t > tag || e.cap_w > entry.cap_w);
        pinned.push((tag, entry));
    }

    /// Drops every pinned entry whose release the follower has confirmed:
    /// `tag < watermark` means a heartbeat sent *after* the release was
    /// adopted, so the follower's snapshot no longer counts the entry as
    /// outstanding and a takeover would not re-reserve it.
    pub fn release_confirmed(&mut self, watermark: u64) {
        for pinned in &mut self.pinned {
            pinned.retain(|(tag, _)| *tag >= watermark);
        }
    }

    /// Rebuilds the ledger for a takeover at `round`: each server's
    /// entries are replaced by one synthetic reservation at its maximum
    /// **outstanding** cap — the worst case over the un-acked suffix the
    /// dead leader may have granted unseen — held until `expires` (one
    /// full quarantine out, so it outlives every lease the dead leader
    /// could have issued). The synthetic carries `(term, seq 0)`: the new
    /// leader's own grants start at seq 1, so a server ack of any fresh
    /// grant releases it, while stragglers acking the dead leader's terms
    /// cannot. Inherited pinned entries are dropped — they are provably
    /// not in force, and their tags belong to the dead leader's heartbeat
    /// counter.
    pub fn reconstruct(&mut self, term: u64, expires: u64) {
        for i in 0..self.outstanding.len() {
            let worst = self.outstanding[i]
                .iter()
                .map(|e| e.cap_w)
                .fold(0.0, f64::max);
            self.outstanding[i].clear();
            self.pinned[i].clear();
            if worst > 0.0 {
                self.outstanding[i].push(LeaseEntry {
                    term,
                    seq: 0,
                    cap_w: worst,
                    expires,
                });
            }
        }
    }

    /// Watts that may be in force at `server`: the max over its surviving
    /// entries, pinned included (0 when none).
    pub fn reserved_w(&self, server: usize) -> f64 {
        self.outstanding[server]
            .iter()
            .map(|e| e.cap_w)
            .chain(self.pinned[server].iter().map(|(_, e)| e.cap_w))
            .fold(0.0, f64::max)
    }

    /// Fleet-wide reserved watts.
    pub fn total_reserved(&self) -> f64 {
        (0..self.outstanding.len())
            .map(|i| self.reserved_w(i))
            .sum()
    }

    /// The cap of the most recently sent grant to `server`. A later
    /// reconcile pass of a barrier sends only a cap above it, and a
    /// finished server gets its release-to-zero while it is not zero.
    pub fn last_sent_cap(&self, server: usize) -> f64 {
        self.last_sent_cap[server]
    }
}

/// One applied grant, recorded when [`RpcConfig::audit`] is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantRecord {
    /// Barrier the server applied it.
    pub round: u64,
    /// Applying server.
    pub server: usize,
    /// Grant term.
    pub term: u64,
    /// Grant sequence.
    pub seq: u64,
    /// Granted cap, as raw f64 bits (exact).
    pub cap_bits: u64,
}

/// Counters describing one run's control-plane behaviour. Not part of
/// [`ClusterResult::digest`](crate::ClusterResult::digest) — the digest
/// pins physics, these describe the transport.
#[derive(Clone, Debug, Default)]
pub struct ControlStats {
    /// Raw transport counters.
    pub plane: PlaneStats,
    /// Grants sent by leaders.
    pub grants_sent: u64,
    /// Grants applied by servers.
    pub grants_applied: u64,
    /// Grants refused as stale (duplicates, reorders, fenced terms).
    pub grants_stale: u64,
    /// Grants refused as expired-on-arrival.
    pub grants_expired: u64,
    /// Acks processed by coordinators.
    pub acks: u64,
    /// Nacks processed by coordinators.
    pub nacks: u64,
    /// Ledger entries that expired unacked.
    pub lease_expirations: u64,
    /// Server-barriers spent on the expired-lease floor cap (running
    /// servers only).
    pub floor_rounds: u64,
    /// Server-barriers spent suspected by the acting leader.
    pub suspect_rounds: u64,
    /// Self-elections.
    pub elections: u64,
    /// Leaders that stepped down after seeing a higher term.
    pub step_downs: u64,
    /// Final term per coordinator (primary first).
    pub terms: Vec<u64>,
    /// Messages still in flight when the run ended.
    pub in_flight_at_end: usize,
    /// Applied grants, when auditing ([`RpcConfig::audit`]) is on.
    pub grant_log: Vec<GrantRecord>,
}

/// One coordinator (primary or standby).
#[derive(Clone, Debug)]
struct Coordinator {
    node: NodeId,
    peer: Option<NodeId>,
    term: u64,
    is_leader: bool,
    /// What heartbeats replicate: the view, the ledger and the grant
    /// sequence.
    state: ReplState,
    last_peer_heard: u64,
    quarantine_until: u64,
    /// Heartbeats this coordinator has sent (the next heartbeat's seq is
    /// `hb_seq + 1`); doubles as the release tag for ledger frees.
    hb_seq: u64,
    /// Highest own-term heartbeat seq the peer has acked: releases tagged
    /// strictly below it are confirmed replicated. `u64::MAX` without a
    /// peer, so every release is confirmed at the next sweep.
    repl_watermark: u64,
    /// Highest heartbeat seq adopted from the current term's leader.
    last_adopted_hb: u64,
}

impl Coordinator {
    fn new(
        node: NodeId,
        peer: Option<NodeId>,
        is_leader: bool,
        n: usize,
        initial_cap_w: f64,
        lease_rounds: u64,
    ) -> Coordinator {
        Coordinator {
            node,
            peer,
            term: 0,
            is_leader,
            state: ReplState {
                view: vec![
                    ServerDemand {
                        demand_w: 0.0,
                        min_w: 0.0,
                        active: true,
                    };
                    n
                ],
                view_round: vec![0; n],
                ledger: LeaseLedger::new(n, initial_cap_w, lease_rounds),
                next_seq: 1,
            },
            last_peer_heard: 0,
            quarantine_until: 0,
            hb_seq: 0,
            repl_watermark: if peer.is_some() { 0 } else { u64::MAX },
            last_adopted_hb: 0,
        }
    }

    fn adopt(&mut self, hb: Heartbeat) {
        self.term = hb.term;
        self.is_leader = false;
        self.last_adopted_hb = hb.seq;
        self.state = hb.state;
    }
}

/// The control plane the fleet loop drives: the message plane, the
/// coordinator(s), and one [`LeaseClient`] per server. The loop calls
/// [`ControlPlane::barrier`] once per coordination round with the
/// telemetry that round produced and apply the returned effective caps.
pub struct ControlPlane {
    plane: MsgPlane<CtrlMsg>,
    coords: Vec<Coordinator>,
    /// The compiled budget tree (a one-group tree for flat configs) that
    /// whichever coordinator leads splits its live view with.
    splitter: HierSplitter,
    leases: Vec<LeaseClient>,
    n: usize,
    rpc: RpcConfig,
    timing: ResolvedRpc,
    budget: f64,
    quantum_w: f64,
    partitions: Vec<(u64, u64, Vec<usize>)>,
    stats: ControlStats,
}

impl ControlPlane {
    /// Builds the plane for a validated [`ClusterConfig`]. Servers are
    /// nodes `0..n`, the primary coordinator is node `n`, the standby
    /// (when failover is on) node `n + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the config's RPC section fails validation — validate the
    /// [`ClusterConfig`] first.
    pub fn new(config: &ClusterConfig) -> ControlPlane {
        let n = config.servers.len();
        let names: Vec<&str> = config.servers.iter().map(|s| s.name.as_str()).collect();
        let rpc = config.rpc.clone();
        rpc.validate(&names)
            .expect("invalid rpc config; ClusterConfig::validate reports this cleanly");
        let timing = rpc
            .resolve(config.round_s())
            .expect("unresolvable rpc config; ClusterConfig::validate reports this cleanly");
        let coords_n = if rpc.failover { 2 } else { 1 };
        let link = LinkConfig {
            latency: Ps::new(timing.latency_rounds),
            jitter: Ps::new(timing.jitter_rounds),
            loss: rpc.loss,
            duplicate: rpc.duplicate,
        };
        let plane = MsgPlane::new(n + coords_n, link, rpc.seed);
        let primary = NodeId(n);
        let standby = NodeId(n + 1);
        let initial = config.global_cap_w / n as f64;
        // The tree compiles once, a flat config as one group over the
        // fleet.
        let flat;
        let tree = match &config.topology {
            Some(tree) => tree,
            None => {
                flat = BudgetTree::flat(config.split, &names);
                &flat
            }
        };
        let splitter = HierSplitter::new(tree, &names);
        let coords = (0..coords_n)
            .map(|c| {
                let (node, peer) = if c == 0 {
                    (primary, rpc.failover.then_some(standby))
                } else {
                    (standby, Some(primary))
                };
                Coordinator::new(node, peer, c == 0, n, initial, rpc.lease_rounds)
            })
            .collect();
        let leases = (0..n)
            .map(|_| LeaseClient::new(initial, rpc.lease_rounds, rpc.floor_cap_w, primary))
            .collect();
        let name_to_node = |name: &str| -> usize {
            match name {
                "primary" => n,
                "standby" => n + 1,
                _ => names
                    .iter()
                    .position(|s| *s == name)
                    .expect("validated partition name"),
            }
        };
        let partitions = rpc
            .partitions
            .iter()
            .map(|p| {
                (
                    p.from_round,
                    p.to_round,
                    p.nodes.iter().map(|s| name_to_node(s)).collect(),
                )
            })
            .collect();
        ControlPlane {
            plane,
            coords,
            splitter,
            leases,
            n,
            rpc,
            timing,
            budget: config.global_cap_w,
            quantum_w: config.quantum_w,
            partitions,
            stats: ControlStats::default(),
        }
    }

    /// Runs one coordination barrier: telemetry out, election checks, the
    /// acting leader's reconcile/grant cycle, and returns the cap in force
    /// at every server for this round (the lease cap, or the floor once a
    /// lease has expired).
    ///
    /// `reports` carries `(server index, telemetry)` for every server with
    /// something to say this barrier. The fleet loop sends every server,
    /// finished ones included (as inactive), in index order: the plane
    /// draws each message's fate from its send order, so who reports
    /// decides a lossy run's outcome.
    ///
    /// `_config` and `_names` (the fleet order) are unused:
    /// [`ControlPlane::new`] captured the budget and quantum and compiled
    /// the splitter against the fleet order.
    pub fn barrier(
        &mut self,
        round: u64,
        reports: &[(usize, ServerDemand)],
        _config: &ClusterConfig,
        _names: &[&str],
    ) -> Vec<f64> {
        let t = Ps::new(round);
        self.apply_partitions(round);

        // Servers report to whichever leader they last applied a grant
        // from. Telemetry doubles as the liveness heartbeat.
        for &(i, demand) in reports {
            let to = self.leases[i].leader();
            self.plane
                .send(t, NodeId(i), to, CtrlMsg::Telemetry { round, demand });
        }
        self.pump(t, round);
        self.maybe_elect(round);
        for c in 0..self.coords.len() {
            if self.coords[c].is_leader {
                self.decide(c, round, t);
            }
        }

        let caps: Vec<f64> = (0..self.n)
            .map(|i| self.leases[i].effective_cap(round))
            .collect();
        for &(i, demand) in reports {
            if demand.active && self.leases[i].on_floor(round) {
                self.stats.floor_rounds += 1;
            }
        }
        caps
    }

    /// Recomputes every node's partition flag from the schedule.
    fn apply_partitions(&mut self, round: u64) {
        let nodes = self.plane.nodes();
        for node in 0..nodes {
            let cut = self.partitions.iter().any(|(from, to, members)| {
                (*from..*to).contains(&round) && members.contains(&node)
            });
            self.plane.set_partitioned(NodeId(node), cut);
        }
    }

    /// Delivers and dispatches every message due at `t`, repeatedly, until
    /// nothing more lands (zero-latency replies circulate to fixpoint
    /// within the barrier). Returns how many messages were dispatched.
    fn pump(&mut self, t: Ps, round: u64) -> u64 {
        let mut dispatched = 0;
        loop {
            let batch = self.plane.deliver_due(t);
            if batch.is_empty() {
                return dispatched;
            }
            dispatched += batch.len() as u64;
            for env in batch {
                self.dispatch(env, t, round);
            }
        }
    }

    fn dispatch(&mut self, env: Envelope<CtrlMsg>, t: Ps, round: u64) {
        let to = env.to;
        if to.0 < self.n {
            // Server side: only grants matter, and each gets one reply.
            let CtrlMsg::Grant(g) = env.msg else {
                return;
            };
            let i = to.0;
            let lease = &mut self.leases[i];
            let reply = match lease.apply(round, &g, env.from) {
                GrantOutcome::Applied => {
                    self.stats.grants_applied += 1;
                    if self.rpc.audit {
                        self.stats.grant_log.push(GrantRecord {
                            round,
                            server: i,
                            term: g.term,
                            seq: g.seq,
                            cap_bits: g.cap_w.to_bits(),
                        });
                    }
                    let (term, seq) = lease.granted();
                    CtrlMsg::Ack { term, seq }
                }
                GrantOutcome::Stale => {
                    self.stats.grants_stale += 1;
                    if g.term < lease.term() {
                        // A lower-term leader: fence it with our term.
                        CtrlMsg::Nack { term: lease.term() }
                    } else {
                        // A duplicate or reordered renewal from the
                        // current leader: re-ack the current state so a
                        // lost ack still converges.
                        let (term, seq) = lease.granted();
                        CtrlMsg::Ack { term, seq }
                    }
                }
                GrantOutcome::Expired => {
                    self.stats.grants_expired += 1;
                    CtrlMsg::Nack { term: lease.term() }
                }
            };
            self.plane.send(t, to, env.from, reply);
            return;
        }
        // Coordinator side.
        let Some(c) = self.coords.iter().position(|co| co.node == to) else {
            return;
        };
        match env.msg {
            CtrlMsg::Telemetry { round: r0, demand } => {
                let co = &mut self.coords[c];
                let i = env.from.0;
                if r0 >= co.state.view_round[i] {
                    co.state.view[i] = demand;
                    co.state.view_round[i] = r0;
                }
            }
            CtrlMsg::Ack { term, seq } => {
                self.stats.acks += 1;
                // The release stays pinned under the current heartbeat
                // seq until the standby confirms having replicated it (at
                // the next sweep when there is no standby).
                let co = &mut self.coords[c];
                co.state.ledger.note_ack(env.from.0, term, seq, co.hb_seq);
            }
            CtrlMsg::Nack { term } => {
                self.stats.nacks += 1;
                let co = &mut self.coords[c];
                if term > co.term {
                    // A server already follows a newer leader: adopt the
                    // term and stop acting as leader. The new term's
                    // heartbeats start from scratch — nothing is adopted
                    // yet, so nothing may be re-acked.
                    co.term = term;
                    co.last_adopted_hb = 0;
                    if co.is_leader {
                        co.is_leader = false;
                        self.stats.step_downs += 1;
                    }
                }
            }
            CtrlMsg::Heartbeat(hb) => {
                let co = &mut self.coords[c];
                let newer = hb.term > co.term
                    || (hb.term == co.term && !co.is_leader && hb.seq > co.last_adopted_hb);
                if newer {
                    let was_leader = co.is_leader;
                    co.adopt(*hb);
                    co.last_peer_heard = round;
                    if was_leader {
                        self.stats.step_downs += 1;
                    }
                } else if hb.term == co.term && !co.is_leader {
                    // A duplicate or jitter-reordered heartbeat: never
                    // adopt (state must not roll backwards), but it is
                    // still leader liveness, and re-acking the newest
                    // adopted seq lets a lost ack converge.
                    co.last_peer_heard = round;
                } else {
                    return;
                }
                let co = &self.coords[c];
                let (term, seq) = (co.term, co.last_adopted_hb);
                self.plane
                    .send(t, co.node, env.from, CtrlMsg::HeartbeatAck { term, seq });
            }
            CtrlMsg::HeartbeatAck { term, seq } => {
                let co = &mut self.coords[c];
                if term == co.term && co.is_leader && seq > co.repl_watermark {
                    co.repl_watermark = seq;
                }
            }
            CtrlMsg::Grant(_) => {}
        }
    }

    /// A coordinator that hasn't heard a live leader for the timeout
    /// elects itself at the next term of its own parity (primary even,
    /// standby odd — terms are leader-unique by construction). The new
    /// leader reconstructs its ledger conservatively (one synthetic
    /// reservation per server at the worst replicated outstanding cap),
    /// quarantines the free pool for the full handoff horizon (latency,
    /// jitter and lease, so every grant the dead leader could have
    /// issued, even one still in flight, expires inside the reserved
    /// window) and resets its suspicion clocks so servers get a fresh
    /// window to reach it (`decide` derives suspicion from them
    /// afresh).
    fn maybe_elect(&mut self, round: u64) {
        if !self.rpc.failover {
            return;
        }
        let quarantine = self.timing.quarantine;
        for (c, co) in self.coords.iter_mut().enumerate() {
            if co.is_leader || round <= co.last_peer_heard + self.timing.heartbeat_timeout {
                continue;
            }
            let mut term = co.term + 1;
            if term % 2 != c as u64 {
                term += 1;
            }
            co.term = term;
            co.is_leader = true;
            co.quarantine_until = round.saturating_add(quarantine);
            co.state.ledger.reconstruct(term, co.quarantine_until);
            // The peer has confirmed nothing of this leadership yet.
            co.repl_watermark = 0;
            co.hb_seq = 0;
            co.last_adopted_hb = 0;
            for r in &mut co.state.view_round {
                *r = round;
            }
            self.stats.elections += 1;
        }
    }

    /// The acting leader's barrier work: expire the ledger, refresh
    /// suspicion, compute the desired split over the live view, then
    /// reconcile — send renewals/decreases, fund increases from the free
    /// pool, and repeat as zero-latency acks free more watts, until the
    /// barrier is quiet. With failover on, a heartbeat goes out between
    /// passes so the standby's acks confirm each pass's releases before
    /// the next pass spends them, and the first higher-term nack aborts
    /// the batch — a deposed leader stops granting immediately. Ends with
    /// a heartbeat to the peer.
    fn decide(&mut self, c: usize, round: u64, t: Ps) {
        let n = self.n;
        let co = &mut self.coords[c];
        self.stats.lease_expirations += co.state.ledger.expire(round, co.hb_seq);
        co.state.ledger.release_confirmed(co.repl_watermark);
        // The split runs over the live view: suspected servers are treated
        // as inactive (no fresh telemetry to honor).
        let mut live = co.state.view.clone();
        let mut suspected = vec![false; n];
        for i in 0..n {
            suspected[i] = live[i].active
                && round.saturating_sub(co.state.view_round[i]) > self.timing.suspect_after;
            if suspected[i] {
                live[i].active = false;
                self.stats.suspect_rounds += 1;
            }
        }
        let desired = self
            .splitter
            .split(self.budget, &live, None, self.quantum_w);

        // Reconcile to fixpoint: at zero latency each pass's acks free the
        // watts the next pass's increases need, and the loop converges to
        // the exact desired split; at positive latency the second pass
        // finds nothing new and the deficit waits for future barriers.
        let mut passes = 0;
        loop {
            let planned = self.reconcile_pass(c, round, &desired, &suspected, passes == 0);
            let sent = planned.len() as u64;
            let mut delivered = 0;
            if self.rpc.failover {
                // Send one grant at a time, pumping between sends: a
                // higher-term nack delivered mid-batch deposes this
                // leader *before* the rest of the batch goes out.
                for (i, cap) in planned {
                    if !self.coords[c].is_leader {
                        break;
                    }
                    self.send_grant(c, i, cap, round, t);
                    delivered += self.pump(t, round);
                }
                if !self.coords[c].is_leader {
                    // Stepped down: no more passes, and the final
                    // heartbeat below belongs to the new leader, not us.
                    return;
                }
            } else {
                // Without a standby no higher term can exist, so the
                // batch order (all grants, then the pump) is safe — and
                // keeps the plane's message-fate sequence identical to
                // the pre-handoff protocol.
                for (i, cap) in planned {
                    self.send_grant(c, i, cap, round, t);
                }
                delivered = self.pump(t, round);
            }
            passes += 1;
            if (sent == 0 && delivered == 0) || passes > n + 4 {
                break;
            }
            // Mid-barrier replication: at zero latency the standby adopts
            // and acks within this pump, confirming the releases this
            // pass's acks pinned, so the next pass may spend them.
            self.heartbeat(c, t, round);
            let co = &mut self.coords[c];
            co.state.ledger.release_confirmed(co.repl_watermark);
        }

        self.heartbeat(c, t, round);
        let co = &mut self.coords[c];
        co.state.ledger.release_confirmed(co.repl_watermark);
    }

    /// Sends a state-replicating heartbeat to the peer (if any) and pumps
    /// so a zero-latency ack advances the watermark within the barrier.
    fn heartbeat(&mut self, c: usize, t: Ps, round: u64) {
        let co = &mut self.coords[c];
        let Some(peer) = co.peer else {
            return;
        };
        co.hb_seq += 1;
        let hb = Heartbeat {
            term: co.term,
            seq: co.hb_seq,
            state: co.state.clone(),
        };
        let from = co.node;
        self.plane
            .send(t, from, peer, CtrlMsg::Heartbeat(Box::new(hb)));
        self.pump(t, round);
    }

    /// Materializes one planned grant: ledger entry, stats, and the
    /// message onto the plane. Kept separate from planning so a leader
    /// deposed mid-batch leaves no trace of the grants it never sent.
    fn send_grant(&mut self, c: usize, i: usize, cap: f64, round: u64, t: Ps) {
        let co = &mut self.coords[c];
        let entry = LeaseEntry {
            term: co.term,
            seq: co.state.next_seq,
            cap_w: cap,
            expires: round.saturating_add(self.rpc.lease_rounds),
        };
        co.state.next_seq += 1;
        co.state.ledger.note_sent(i, entry);
        self.stats.grants_sent += 1;
        let from = co.node;
        self.plane.send(
            t,
            from,
            NodeId(i),
            CtrlMsg::Grant(CapGrant {
                term: entry.term,
                seq: entry.seq,
                cap_w: cap,
                expires: entry.expires,
            }),
        );
    }

    /// One reconcile pass: plan what to send each server given the
    /// ledger's current reservations and the free pool — pure planning,
    /// `(server, cap)` pairs with no ledger or stats side effects. A
    /// `suspected` server gets nothing.
    /// The `first` pass of a barrier renews every lease (decreases and
    /// renewals keep leases alive); a later pass sends only a strict
    /// top-up over the cap this barrier already sent
    /// ([`LeaseLedger::last_sent_cap`]). Increases are funded from
    /// `budget − Σ reserved`, granted at the exact target when the pool
    /// covers the deficit. A new leader in quarantine has an empty pool,
    /// so its grants never exceed what its reconstructed ledger already
    /// reserved.
    fn reconcile_pass(
        &self,
        c: usize,
        round: u64,
        desired: &[f64],
        suspected: &[bool],
        first: bool,
    ) -> Vec<(usize, f64)> {
        let n = self.n;
        let co = &self.coords[c];
        let quarantined = round < co.quarantine_until;
        let mut free = if quarantined {
            0.0
        } else {
            (self.budget - co.state.ledger.total_reserved()).max(0.0)
        };
        let mut out = Vec::new();
        #[allow(clippy::needless_range_loop)] // `co` fields are indexed alongside `desired`
        for i in 0..n {
            if suspected[i] {
                // Possibly partitioned, not dead: leave its lease alone and
                // let expiry return the watts.
                continue;
            }
            if !co.state.view[i].active {
                // Finished: one release-to-zero, the same zeroed cap the
                // direct split used to produce.
                if co.state.ledger.last_sent_cap(i).to_bits() != 0.0f64.to_bits() {
                    out.push((i, 0.0));
                }
                continue;
            }
            let target = desired[i];
            let reserved = co.state.ledger.reserved_w(i);
            let cap = if target <= reserved {
                target
            } else if target - reserved <= free {
                free -= target - reserved;
                target
            } else {
                let take = free;
                free = 0.0;
                reserved + take
            };
            if first || cap > co.state.ledger.last_sent_cap(i) {
                out.push((i, cap));
            }
        }
        out
    }

    /// Consumes the plane and returns the run's control statistics.
    pub fn finish(mut self) -> ControlStats {
        self.stats.plane = self.plane.stats();
        self.stats.in_flight_at_end = self.plane.in_flight();
        self.stats.terms = self.coords.iter().map(|c| c.term).collect();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(term: u64, seq: u64, cap_w: f64, expires: u64) -> CapGrant {
        CapGrant {
            term,
            seq,
            cap_w,
            expires,
        }
    }

    #[test]
    fn lease_client_applies_renews_expires_floors() {
        let mut lc = LeaseClient::new(50.0, 8, 2.0, NodeId(9));
        assert_eq!(lc.effective_cap(0), 50.0);
        assert_eq!(lc.effective_cap(7), 50.0);
        assert_eq!(lc.effective_cap(8), 2.0, "expiry barrier is exclusive");
        assert!(lc.on_floor(8));

        // A renewal pushes the horizon out.
        assert_eq!(
            lc.apply(5, &grant(0, 1, 60.0, 13), NodeId(9)),
            GrantOutcome::Applied
        );
        assert_eq!(lc.effective_cap(12), 60.0);
        assert_eq!(lc.effective_cap(13), 2.0);

        // Stale (term, seq) never applies — duplicates and reorders alike.
        assert_eq!(
            lc.apply(5, &grant(0, 1, 99.0, 20), NodeId(9)),
            GrantOutcome::Stale
        );
        assert_eq!(
            lc.apply(5, &grant(0, 0, 99.0, 20), NodeId(9)),
            GrantOutcome::Stale
        );
        assert_eq!(lc.effective_cap(5), 60.0);

        // A grant arriving at/after its own expiry is rejected and cannot
        // resurrect a cap, even with a newer (term, seq).
        assert_eq!(
            lc.apply(14, &grant(0, 2, 80.0, 14), NodeId(9)),
            GrantOutcome::Expired
        );
        assert_eq!(lc.effective_cap(14), 2.0);

        // A newer term always beats a newer seq of an older term.
        assert_eq!(
            lc.apply(14, &grant(1, 1, 40.0, 22), NodeId(7)),
            GrantOutcome::Applied
        );
        assert_eq!(lc.leader(), NodeId(7), "server follows the granting leader");
        assert_eq!(
            lc.apply(14, &grant(0, 99, 70.0, 30), NodeId(9)),
            GrantOutcome::Stale
        );
    }

    #[test]
    fn ledger_reserves_until_ack_or_expiry() {
        let mut lg = LeaseLedger::new(2, 50.0, 8);
        assert_eq!(lg.total_reserved(), 100.0);

        // A decrease is sent: both old and new grants are reserved-worthy
        // until the ack proves the old one superseded.
        lg.note_sent(
            0,
            LeaseEntry {
                term: 0,
                seq: 1,
                cap_w: 30.0,
                expires: 9,
            },
        );
        assert_eq!(lg.reserved_w(0), 50.0, "decrease frees nothing before ack");
        lg.note_ack(0, 0, 1, 0);
        assert_eq!(
            lg.reserved_w(0),
            50.0,
            "a release stays pinned until confirmed"
        );
        lg.release_confirmed(u64::MAX);
        assert_eq!(lg.reserved_w(0), 30.0, "ack releases the superseded grant");
        assert_eq!(lg.total_reserved(), 80.0);

        // A stale ack can never roll the ledger backwards.
        lg.note_ack(0, 0, 0, 0);
        lg.release_confirmed(u64::MAX);
        assert_eq!(lg.reserved_w(0), 30.0);

        // Expiry releases unacked grants.
        lg.note_sent(
            1,
            LeaseEntry {
                term: 0,
                seq: 2,
                cap_w: 70.0,
                expires: 10,
            },
        );
        assert_eq!(lg.reserved_w(1), 70.0);
        // At round 9 the bootstrap grants (expiry 8) and server 0's seq-1
        // (expiry 9) are gone; server 1's seq-2 (expiry 10) survives.
        let dropped = lg.expire(9, 0);
        lg.release_confirmed(u64::MAX);
        assert!(dropped >= 1);
        assert_eq!(lg.reserved_w(1), 70.0, "live entry survives expiry sweep");
        lg.expire(10, 0);
        lg.release_confirmed(u64::MAX);
        assert_eq!(lg.reserved_w(1), 0.0, "expired entries release their watts");
    }

    #[test]
    fn clock_skewed_renewals_keep_the_lease_alive() {
        // The server's barrier clock runs ahead of the coordinator's by
        // `skew`; renewals expire relative to the coordinator clock. As
        // long as lease_rounds exceeds the skew the server stays leased.
        for skew in 0u64..4 {
            let mut lc = LeaseClient::new(50.0, 8, 0.0, NodeId(9));
            let mut rejected = 0u64;
            for coord_round in 1..40u64 {
                let server_round = coord_round + skew;
                let g = grant(0, coord_round, 50.0, coord_round + 8);
                match lc.apply(server_round, &g, NodeId(9)) {
                    GrantOutcome::Applied => {
                        assert!(
                            !lc.on_floor(server_round),
                            "skew {skew}: applied a grant yet on floor at {server_round}"
                        );
                    }
                    GrantOutcome::Expired => rejected += 1,
                    GrantOutcome::Stale => panic!("seqs are strictly increasing"),
                }
            }
            assert_eq!(rejected, 0, "skew {skew} < lease 8 must never reject");
        }
        // A skew at/above the lease length rejects every renewal on
        // arrival: the grant is already expired by the server's clock.
        let mut lc = LeaseClient::new(50.0, 8, 0.0, NodeId(9));
        let g = grant(0, 1, 50.0, 9); // coordinator round 1 + lease 8
        assert_eq!(lc.apply(9 + 3, &g, NodeId(9)), GrantOutcome::Expired);
    }

    #[test]
    fn rpc_validation_rejects_bad_inputs() {
        let names = ["s0", "s1"];
        let ok = RpcConfig::default();
        assert!(ok.validate(&names).is_ok());
        assert!(ok.is_loopback());

        let bad = RpcConfig {
            loss: 1.5,
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err());
        let bad = RpcConfig {
            latency_us: -1.0,
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err());
        let bad = RpcConfig {
            duplicate: f64::NAN,
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err());
        let bad = RpcConfig {
            lease_rounds: 0,
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err());
        for floor_cap_w in [f64::INFINITY, f64::NAN, -1.0] {
            let bad = RpcConfig {
                floor_cap_w,
                ..RpcConfig::default()
            };
            let err = bad.validate(&names).expect_err("a bad floor cap");
            assert!(
                err.starts_with(&format!("floor cap {floor_cap_w} ")),
                "{err}"
            );
        }
        let bad = RpcConfig {
            partitions: vec![PartitionSpec {
                from_round: 5,
                to_round: 5,
                nodes: vec!["s0".into()],
            }],
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err(), "empty partition window");
        let bad = RpcConfig {
            partitions: vec![PartitionSpec {
                from_round: 1,
                to_round: 5,
                nodes: vec!["ghost".into()],
            }],
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err(), "unknown node name");
        let bad = RpcConfig {
            partitions: vec![PartitionSpec {
                from_round: 1,
                to_round: 5,
                nodes: vec!["standby".into()],
            }],
            ..RpcConfig::default()
        };
        assert!(bad.validate(&names).is_err(), "standby without failover");
    }

    #[test]
    fn resolve_quantizes_and_guards_the_lease() {
        let round_s = 1250e-6; // 5 × 250 µs epochs
        let r = RpcConfig {
            latency_us: 1.0,
            ..RpcConfig::default()
        }
        .resolve(round_s)
        .unwrap();
        assert_eq!(
            r.latency_rounds, 1,
            "sub-round latency still costs a barrier"
        );
        let r = RpcConfig::default().resolve(round_s).unwrap();
        assert_eq!(r.latency_rounds, 0);
        assert_eq!(r.suspect_after, 5, "derived suspicion floor");

        let too_slow = RpcConfig {
            latency_us: 1250.0 * 9.0,
            lease_rounds: 8,
            ..RpcConfig::default()
        };
        let err = too_slow.resolve(round_s).unwrap_err();
        assert!(err.contains("expire in flight"), "{err}");

        // A delay past u64 rounds saturates and fails the lease check
        // instead of wrapping under it.
        let overflowing = RpcConfig {
            latency_us: 1e300,
            jitter_us: 1.0,
            ..RpcConfig::default()
        };
        let err = overflowing.resolve(round_s).unwrap_err();
        assert!(err.contains(&format!("up to {} rounds", u64::MAX)), "{err}");
        // So does a quarantine past u64 rounds: one latency round plus a
        // lease of u64::MAX rounds.
        let forever = RpcConfig {
            latency_us: 1.0,
            lease_rounds: u64::MAX,
            ..RpcConfig::default()
        };
        assert_eq!(forever.resolve(round_s).unwrap().quarantine, u64::MAX);
    }

    #[test]
    fn quarantine_resolves_to_the_handoff_horizon() {
        let round_s = 1250e-6;
        // Latency + jitter + lease, in rounds: 2 latency rounds + 1 jitter
        // round + 8 lease rounds = 11. A grant from the dead leader may
        // still be in flight for latency + jitter rounds and then lives a
        // full lease, so anything shorter would let it land outside the
        // reserved window.
        let r = RpcConfig {
            latency_us: 2500.0,
            jitter_us: 1250.0,
            ..RpcConfig::default()
        }
        .resolve(round_s)
        .unwrap();
        assert_eq!(r.quarantine, 11, "horizon = latency + jitter + lease");
        assert_eq!(
            r.heartbeat_timeout, 4,
            "timeout = delay + 1 above the floor"
        );
        assert_eq!(
            r.suspect_after, 7,
            "suspicion = 2 * delay + 1 above the floor"
        );

        // Loopback: just the lease length (zero latency, zero jitter), and
        // both silence thresholds at their floors.
        let r = RpcConfig::default().resolve(round_s).unwrap();
        assert_eq!(r.quarantine, RpcConfig::default().lease_rounds);
        assert_eq!((r.heartbeat_timeout, r.suspect_after), (3, 5));
    }

    /// Drives a full `ControlPlane` through a partition-and-heal schedule
    /// at loopback and pins the deposed-primary step-down path: when the
    /// healed primary (still leader at its old term) starts its grant
    /// batch, the **first** higher-term nack must depose it mid-batch —
    /// exactly one stale grant reaches a server, not the whole batch.
    #[test]
    fn deposed_primary_aborts_its_grant_batch_on_first_nack() {
        use crate::{CapSplit, ServerSpec};

        // Primary cut off for rounds 2..6: the standby (heartbeat timeout
        // 3, last heard at round 1) elects itself at round 5; the heal at
        // round 6 has both coordinators acting as leader, and barrier
        // order runs the stale primary's decide first.
        let rpc = RpcConfig {
            failover: true,
            partitions: vec![PartitionSpec {
                from_round: 2,
                to_round: 6,
                nodes: vec!["primary".into()],
            }],
            ..RpcConfig::default()
        };
        let fleet: Vec<ServerSpec> = (0..3)
            .map(|i| ServerSpec::small(&format!("s{i}"), "MID1", i as u64))
            .collect();
        let config = ClusterConfig::new(fleet, 90.0, CapSplit::FastCap).with_rpc(rpc);
        let names = ["s0", "s1", "s2"];
        let mut plane = ControlPlane::new(&config);

        // Skewed demands so the split is non-uniform and every server gets
        // a fresh grant each barrier.
        let reports: Vec<(usize, ServerDemand)> = (0..3)
            .map(|i| {
                (
                    i,
                    ServerDemand {
                        demand_w: 30.0 + 10.0 * i as f64,
                        min_w: 0.0,
                        active: true,
                    },
                )
            })
            .collect();
        for round in 0..8u64 {
            let caps = plane.barrier(round, &reports, &config, &names);
            let total: f64 = caps.iter().sum();
            assert!(
                total <= 90.0 + 1e-9,
                "round {round}: caps sum to {total:.6} W over the 90 W budget"
            );
        }
        let stats = plane.finish();

        assert_eq!(stats.elections, 1, "standby must take over: {stats:?}");
        assert_eq!(
            stats.step_downs, 1,
            "healed primary must step down exactly once: {stats:?}"
        );
        // The pin: one stale grant, then the batch aborts. A primary that
        // finished its batch before pumping would land one stale grant per
        // server (3 here).
        assert_eq!(
            stats.grants_stale, 1,
            "first higher-term nack must abort the rest of the batch: {stats:?}"
        );
        assert_eq!(
            stats.terms,
            vec![1, 1],
            "deposed primary adopts the standby's term: {stats:?}"
        );
    }
}
