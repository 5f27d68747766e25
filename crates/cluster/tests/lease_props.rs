//! Property tests for the control plane's lease state machine
//! ([`LeaseClient`]) and the coordinator's conservative accounting
//! ([`LeaseLedger`]) — the two halves whose agreement keeps the fleet's
//! in-force caps under the budget no matter which grants the network
//! drops, delays, duplicates, or reorders.

use cluster::{CapGrant, GrantOutcome, LeaseClient, LeaseEntry, LeaseLedger, NodeId};
use proptest::prelude::*;

const LEASE: u64 = 8;

fn grant(term: u64, seq: u64, cap_w: f64, expires: u64) -> CapGrant {
    CapGrant {
        term,
        seq,
        cap_w,
        expires,
    }
}

proptest! {
    /// The full grant → renew → expire → floor cycle under an arbitrary
    /// schedule of (possibly reordered, duplicated, late) grants and an
    /// advancing clock, checked against first principles at every step:
    ///
    /// * `(term, seq)` only ever advances, and advances exactly on
    ///   `Applied`;
    /// * an applied grant is live on arrival (a grant that would be dead
    ///   on arrival is refused as `Expired`, so expiry can never *raise*
    ///   a cap);
    /// * the effective cap is the applied grant's cap until its expiry
    ///   barrier, the floor from then on — with no third state.
    #[test]
    fn lease_lifecycle_only_moves_forward(
        floor in 0.0f64..5.0,
        events in proptest::collection::vec(
            // (clock advance, term, seq, cap, expiry offset from "now")
            (0u64..4, 0u64..3, 0u64..40, 0.0f64..100.0, 0i64..12),
            1..120,
        ),
    ) {
        let mut lc = LeaseClient::new(50.0, LEASE, floor, NodeId(99));
        let mut now = 0u64;
        for (advance, term, seq, cap, exp_off) in events {
            now += advance;
            let expires = now.saturating_add_signed(exp_off);
            let before = lc.granted();
            let g = grant(term, seq, cap, expires);
            match lc.apply(now, &g, NodeId(7)) {
                GrantOutcome::Applied => {
                    prop_assert!((term, seq) > before, "applied a non-newer grant");
                    prop_assert_eq!(lc.granted(), (term, seq));
                    prop_assert!(expires > now, "applied a grant already expired on arrival");
                    prop_assert!(!lc.on_floor(now), "freshly applied lease cannot be on the floor");
                    prop_assert_eq!(lc.effective_cap(now).to_bits(), cap.to_bits());
                    prop_assert_eq!(lc.leader(), NodeId(7), "apply must adopt the granting leader");
                }
                GrantOutcome::Stale => {
                    prop_assert!((term, seq) <= before, "refused a newer grant as stale");
                    prop_assert_eq!(lc.granted(), before, "stale grant mutated the lease");
                }
                GrantOutcome::Expired => {
                    prop_assert!((term, seq) > before, "expired-refusal of a non-newer grant");
                    prop_assert!(expires <= now, "refused a live grant as expired");
                    prop_assert_eq!(lc.granted(), before, "expired grant mutated the lease");
                }
            }
            // The two-state invariant holds at every instant.
            if lc.on_floor(now) {
                prop_assert_eq!(lc.effective_cap(now).to_bits(), floor.to_bits());
            }
        }
        // With the clock run far enough past any reachable expiry, every
        // lease ends on the floor.
        now += LEASE + 12 + 1;
        prop_assert!(lc.on_floor(now));
        prop_assert_eq!(lc.effective_cap(now).to_bits(), floor.to_bits());
    }

    /// Clock-skewed renewals: a coordinator whose clock lags the server's
    /// by `skew` rounds still keeps the lease alive iff the lease outlasts
    /// the skew, and every renewal is refused the moment the skew reaches
    /// the lease length — the server can never be held above the floor by
    /// grants that are dead on arrival.
    #[test]
    fn skewed_renewals_hold_iff_lease_outlasts_skew(
        skew in 0u64..16,
        rounds in 10u64..60,
    ) {
        let mut lc = LeaseClient::new(50.0, LEASE, 0.0, NodeId(99));
        let mut refusals = 0u64;
        for coord_round in 1..rounds {
            let server_round = coord_round + skew;
            let g = grant(0, coord_round, 50.0, coord_round + LEASE);
            match lc.apply(server_round, &g, NodeId(99)) {
                GrantOutcome::Applied => {
                    prop_assert!(skew < LEASE, "applied a grant dead on arrival (skew {skew})");
                    prop_assert!(!lc.on_floor(server_round));
                }
                GrantOutcome::Expired => {
                    refusals += 1;
                    prop_assert!(skew >= LEASE, "refused a live renewal (skew {skew})");
                }
                GrantOutcome::Stale => prop_assert!(false, "strictly increasing seqs can't be stale"),
            }
        }
        if skew >= LEASE {
            prop_assert_eq!(refusals, rounds - 1, "every renewal must be dead on arrival");
            // The bootstrap lease ran out long ago; the server sits on the
            // floor for good.
            prop_assert!(lc.on_floor(LEASE + skew + rounds));
        } else {
            prop_assert_eq!(refusals, 0);
        }
    }

    /// Ledger conservation: under any interleaving of sends, acks (in any
    /// order, including stale ones), and expiry sweeps,
    ///
    /// * a server's reserved watts never exceed the largest cap ever
    ///   offered to it (no invention of watts);
    /// * reserved watts never drop below the cap of the newest *acked*
    ///   still-live grant (no premature release: the cap the server is
    ///   provably running under stays covered until it expires);
    /// * acks only shrink the reservation, expiry only shrinks it, sends
    ///   only grow it.
    #[test]
    fn ledger_releases_only_on_ack_or_expiry(
        script in proptest::collection::vec(
            // (op selector, cap, lease length)
            (0u8..10, 1.0f64..100.0, 1u64..12),
            1..150,
        ),
    ) {
        let mut lg = LeaseLedger::new(1, 50.0, LEASE);
        // Mirror of every grant ever sent: (term=0, seq, cap, expires).
        let mut sent: Vec<(u64, f64, u64)> = vec![(0, 50.0, LEASE)];
        let mut next_seq = 1u64;
        let mut acked_seq = 0u64;
        let mut now = 0u64;
        for (op, cap, lease) in script {
            match op {
                0..=4 => {
                    lg.note_sent(
                        0,
                        LeaseEntry {
                            term: 0,
                            seq: next_seq,
                            cap_w: cap,
                            expires: now + lease,
                        },
                    );
                    sent.push((next_seq, cap, now + lease));
                    next_seq += 1;
                }
                5..=7 => {
                    // Ack some previously sent grant — newest, oldest, or
                    // repeated; the ledger must be monotone under all.
                    let pick = (cap as u64) % next_seq;
                    let before = lg.reserved_w(0);
                    lg.note_ack(0, 0, pick, 0);
                    lg.release_confirmed(u64::MAX);
                    acked_seq = acked_seq.max(pick);
                    prop_assert!(lg.reserved_w(0) <= before + 1e-12, "ack grew the reservation");
                }
                _ => {
                    now += 1;
                    let before = lg.reserved_w(0);
                    lg.expire(now, 0);
                    lg.release_confirmed(u64::MAX);
                    prop_assert!(lg.reserved_w(0) <= before + 1e-12, "expiry grew the reservation");
                }
            }
            let reserved = lg.reserved_w(0);
            let max_live_sent = sent
                .iter()
                .filter(|(_, _, exp)| *exp > now)
                .map(|(_, c, _)| *c)
                .fold(0.0, f64::max);
            prop_assert!(
                reserved <= max_live_sent + 1e-12,
                "reserved {reserved} exceeds any live sent cap {max_live_sent}"
            );
            // The newest acked grant still in force must stay covered:
            // the server is provably running under it.
            if let Some((_, c, _)) = sent
                .iter()
                .find(|(s, _, exp)| *s == acked_seq && *exp > now)
            {
                prop_assert!(
                    reserved + 1e-12 >= *c,
                    "reserved {reserved} dropped below the acked in-force cap {c}"
                );
            }
        }
    }

    /// The acked-state handoff, end to end over the ledger pair: a primary
    /// runs the ledger discipline (releases pinned under the
    /// heartbeat seq, confirmation-gated drops, funding from
    /// `budget − Σ reserved`) against two lease clients over a lossy,
    /// delaying plane; the standby's state is whichever heartbeat snapshot
    /// it last adopted (a ledger clone, exactly what [`ReplState`]
    /// replicates), and only adopted snapshots advance the primary's
    /// watermark. For **any** send/ack/loss/heartbeat schedule and **any**
    /// takeover point:
    ///
    /// * while the primary lives, each server's in-force cap never exceeds
    ///   the primary's reservation for it, and reservations sum within
    ///   budget;
    /// * the reconstructed standby ledger (worst outstanding cap per
    ///   server, pinned cleared) also sums within budget — the replication
    ///   prefix can lag arbitrarily, but every snapshot entry it reserves
    ///   is still reserved at the primary, because un-confirmed releases
    ///   stay pinned;
    /// * after takeover, even if the new leader immediately re-grants
    ///   every server its full reconstructed reserve while the dead
    ///   primary's in-flight grants keep landing, the fleet's in-force
    ///   caps stay within budget every round until everything old expires.
    #[test]
    fn reconstructed_ledger_dominates_in_force_caps(
        script in proptest::collection::vec(
            // (op selector, server, desired cap, delivery delay, fate)
            (0u8..10, 0usize..2, 1.0f64..90.0, 0u64..4, 0u8..4),
            10..120,
        ),
        standby_fates in 0u8..4,
    ) {
        let budget = 100.0;
        let n = 2;
        let mut primary = LeaseLedger::new(n, 40.0, LEASE);
        let mut standby = primary.clone(); // bootstrap state is shared
        let mut clients: Vec<LeaseClient> =
            (0..n).map(|_| LeaseClient::new(40.0, LEASE, 0.0, NodeId(9))).collect();
        // (due round, server, grant, ack lost?)
        let mut in_flight: Vec<(u64, usize, CapGrant, bool)> = Vec::new();
        let mut hb_seq = 0u64;
        let mut watermark = 0u64;
        let mut next_seq = 1u64;
        let mut now = 0u64;

        // Delivers every grant due by `now`; surviving acks pin their
        // releases under the current heartbeat tag.
        macro_rules! deliver_due {
            () => {
                let due: Vec<_> = in_flight
                    .iter()
                    .filter(|(d, _, _, _)| *d <= now)
                    .cloned()
                    .collect();
                in_flight.retain(|(d, _, _, _)| *d > now);
                for (_, i, g, ack_lost) in due {
                    let outcome = clients[i].apply(now, &g, NodeId(9));
                    if outcome != GrantOutcome::Expired && !ack_lost {
                        // Acks (and re-acks of stale duplicates) carry the
                        // client's now-current state.
                        let (term, seq) = clients[i].granted();
                        primary.note_ack(i, term, seq, hb_seq);
                    }
                }
            };
        }

        for (op, i, desired, delay, fate) in script {
            match op {
                0..=4 => {
                    // Send: fund the increase from the free pool, exactly
                    // like `reconcile_pass`.
                    let reserved = primary.reserved_w(i);
                    let free = (budget - primary.total_reserved()).max(0.0);
                    let cap = if desired <= reserved {
                        desired
                    } else {
                        desired.min(reserved + free)
                    };
                    primary.note_sent(
                        i,
                        LeaseEntry { term: 0, seq: next_seq, cap_w: cap, expires: now + LEASE },
                    );
                    let g = grant(0, next_seq, cap, now + LEASE);
                    next_seq += 1;
                    if fate != 0 {
                        in_flight.push((now + delay, i, g, fate == 1));
                    }
                }
                5..=6 => {
                    // A barrier passes: clock, deliveries, pinned expiry.
                    now += 1;
                    deliver_due!();
                    primary.expire(now, hb_seq);
                    primary.release_confirmed(watermark);
                }
                _ => {
                    // Heartbeat: the snapshot is the ledger as sent —
                    // including releases still pinned awaiting this very
                    // confirmation. A lost heartbeat leaves the standby
                    // (and the watermark) behind.
                    hb_seq += 1;
                    if fate != 0 {
                        standby = primary.clone();
                        watermark = hb_seq;
                        primary.release_confirmed(watermark);
                    }
                }
            }
            prop_assert!(
                primary.total_reserved() <= budget + 1e-9,
                "primary over-reserved: {} W", primary.total_reserved()
            );
            for (i, lc) in clients.iter().enumerate() {
                prop_assert!(
                    lc.effective_cap(now) <= primary.reserved_w(i) + 1e-9,
                    "server {i} in force at {} W over the primary's {} W reservation",
                    lc.effective_cap(now), primary.reserved_w(i)
                );
            }
        }

        // Takeover: the standby rebuilds from its (arbitrarily stale)
        // snapshot, reserving the worst outstanding cap per server.
        let horizon = LEASE + 4;
        standby.reconstruct(99, now + horizon);
        prop_assert!(
            standby.total_reserved() <= budget + 1e-9,
            "reconstructed ledger over-reserved: {} W vs {} W at the primary",
            standby.total_reserved(), primary.total_reserved()
        );

        // Worst-case quarantine spend: the new leader immediately grants
        // every server its full reconstructed reserve (per-server, the
        // most `reconcile_pass` can send with an empty free pool). Some of
        // those grants are lost, leaving servers riding the dead
        // primary's leases.
        for (i, lc) in clients.iter_mut().enumerate() {
            let cap = standby.reserved_w(i);
            if cap > 0.0 && standby_fates & (1 << i) != 0 {
                lc.apply(now, &grant(99, 1 + i as u64, cap, now + LEASE), NodeId(10));
            }
        }
        // The dead primary's in-flight grants keep landing; conservation
        // must hold every round until every old lease has expired.
        let takeover = now;
        for r in takeover..=takeover + horizon {
            now = r;
            deliver_due!();
            let total: f64 = clients.iter().map(|lc| lc.effective_cap(r)).sum();
            prop_assert!(
                total <= budget + 1e-9,
                "takeover + {}: in-force caps sum to {total} W",
                r - takeover
            );
        }
    }
}
