//! The engine's event agenda: one slot per core and per memory lane beside
//! a heap of read completions.
//!
//! A core has at most one live wake, a memory channel at most one pending
//! scheduling pass, and a rank exactly one pending refresh. So instead of
//! a heap entry per wake or pass, each core and each memory lane keeps one
//! slot holding the `(time, seq)` of its latest entry, and a later entry
//! supersedes the pending one. A tournament tree over each kind of slot
//! finds the earliest in O(log slots): one tree for the cores, one for the
//! lanes (each channel's scheduling passes, each rank's refreshes). A
//! popped lane's slot empties. A popped core keeps its slot until the
//! engine re-keys it, with [`Agenda::wake`] or [`Agenda::wake_as_of`] for
//! the step's next wake or [`Agenda::park`] when the step blocks, so a
//! core step replays its path once. Only read completions go into the
//! binary heap.
//!
//! Every entry draws its `seq` from one shared counter, so
//! [`Agenda::pop_until`] returns entries in exactly the `(time, push
//! sequence)` order of a [`simkernel::EventQueue`] that held every push
//! and skipped superseded wakes and lane entries as they popped.
//!
//! A core that takes an L2 hit knows its next wake at once, but that wake
//! used to be pushed by a step at the stall's end, the *instant*, and took
//! its place among same-time entries from there. [`Agenda::wake_as_of`]
//! pushes it at the hit instead, and a tie rule keeps the order exact.
//! The agenda tracks the moment popping has reached (`now`). After any
//! push at time `T` made at moment `M`, every as-of wake at exactly `T`
//! whose instant is later than `M` takes a fresh `seq`, in instant order:
//! the stall-end step would have pushed it after this entry. A plain push
//! is made at `now`. An as-of wake is two pushes: its instant, an entry
//! that never pops, made at `now` as the stall-end step's own wake was,
//! and the wake, made at the instant. So the as-of wake pops after every
//! entry at `T` pushed before its instant and before every entry pushed
//! after it, as the stall-end step's push did, and when it pops, `now`
//! has passed every instant that the stall-end steps would have popped
//! before it.

use simkernel::Ps;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering key: time in the high word; the push sequence and then the
/// slot in the low word. One integer comparison orders by `(time, seq)`,
/// since sequence numbers are unique, and a tree's smallest key names its
/// slot.
type Key = u128;

/// The key of an empty slot; later than any real entry.
const EMPTY: Key = Key::MAX;

/// Low bits of a key that name its slot.
const SLOT_BITS: u32 = 16;

fn key(time: Ps, seq: u64, slot: usize) -> Key {
    (Key::from(time.as_ps()) << 64) | Key::from(seq << SLOT_BITS | slot as u64)
}

fn slot_of(key: Key) -> usize {
    (key as u64 & ((1 << SLOT_BITS) - 1)) as usize
}

fn time_of(key: Key) -> Ps {
    Ps::new((key >> 64) as u64)
}

/// The key just past every key at `time`.
fn past(time: Ps) -> Key {
    (Key::from(time.as_ps()) << 64) | Key::from(u64::MAX)
}

/// A core without an as-of instant. No moment is earlier, so the tie rule
/// never re-keys such a core.
const NO_INSTANT: Key = 0;

/// Buckets in the filter over as-of wake times.
const BUCKETS: usize = 256;

fn bucket(time: Ps) -> usize {
    time.as_ps() as usize % BUCKETS
}

/// Keyed slots under a tournament tree of keys: node `j` holds the
/// smallest key below it, node 1 is the root, and slot `i` is leaf
/// `n + i` of `n` slots. Every node below `n` has both children, so the
/// root sees every leaf without padding the slots to a power of two.
#[derive(Clone, Debug)]
struct Tree {
    nodes: Vec<Key>,
}

impl Tree {
    /// `slots` empty slots.
    fn new(slots: usize) -> Tree {
        assert!(slots < 1 << SLOT_BITS, "{slots} slots overflow a key");
        Tree {
            nodes: vec![EMPTY; 2 * slots.max(1)],
        }
    }

    /// The smallest key.
    fn first(&self) -> Key {
        self.nodes[1]
    }

    /// The time of slot `id`'s key.
    fn time(&self, id: usize) -> Ps {
        time_of(self.nodes[self.nodes.len() / 2 + id])
    }

    /// Sets slot `id`'s key and replays its path to the root.
    fn set(&mut self, id: usize, key: Key) {
        let mut node = self.nodes.len() / 2 + id;
        self.nodes[node] = key;
        while node > 1 {
            node >>= 1;
            self.nodes[node] = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
        }
    }
}

/// What [`Agenda::pop_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Due {
    /// Core `id`'s wake. Its slot keeps the popped key until
    /// [`Agenda::wake`], [`Agenda::wake_as_of`] or [`Agenda::park`]
    /// re-keys it, which must happen before the next pop.
    Core(usize),
    /// Memory lane `lane`'s entry. Its slot is empty again.
    Lane(usize),
    /// The read completion with this tag.
    Read(u64),
}

/// Core and lane slots plus a read heap, popping in `(time, seq)` order.
/// Plain data, so a cloned `System` carries its agenda along.
#[derive(Clone, Debug)]
pub(crate) struct Agenda {
    /// Each core's pending wake.
    cores: Tree,
    /// Each memory lane's pending entry.
    lanes: Tree,
    /// Read completions as `(key, tag)`, the earliest on top.
    reads: BinaryHeap<Reverse<(Key, u64)>>,
    next_seq: u64,
    /// The moment popping has reached: the latest popped key, or past
    /// every key at a limit that [`Agenda::pop_until`] stopped at, if that
    /// is later. Every instant up to it has passed.
    now: Key,
    /// Each core's as-of instant: the key its stall-end wake would have
    /// had, or `NO_INSTANT`.
    instants: Vec<Key>,
    /// How many cores have an as-of instant, by bucket of their wake's
    /// time. A push whose bucket counts none ties with no as-of wake.
    as_of_times: [u8; BUCKETS],
}

impl Agenda {
    /// An empty agenda for `cores` cores and `lanes` memory lanes.
    pub(crate) fn new(cores: usize, lanes: usize) -> Self {
        assert!(
            cores <= u8::MAX.into(),
            "{cores} cores overflow a filter bucket"
        );
        Agenda {
            cores: Tree::new(cores),
            lanes: Tree::new(lanes),
            reads: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            instants: vec![NO_INSTANT; cores],
            as_of_times: [0; BUCKETS],
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq < 1 << (64 - SLOT_BITS), "push sequence exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedules the completion of read `tag` at `time`.
    pub(crate) fn push_read(&mut self, time: Ps, tag: u64) {
        // The heap entry carries its tag, so its key names no slot.
        let key = key(time, self.take_seq(), 0);
        self.reads.push(Reverse((key, tag)));
        self.settle_ties(time, self.now);
    }

    /// Schedules memory lane `lane`'s entry at `time`, superseding its
    /// pending entry if it has one.
    pub(crate) fn push_lane(&mut self, lane: usize, time: Ps) {
        let key = key(time, self.take_seq(), lane);
        self.lanes.set(lane, key);
        self.settle_ties(time, self.now);
    }

    /// Schedules core `id` to wake at `time`, superseding its pending
    /// wake if it has one.
    pub(crate) fn wake(&mut self, id: usize, time: Ps) {
        self.drop_instant(id);
        let key = key(time, self.take_seq(), id);
        self.cores.set(id, key);
        self.settle_ties(time, self.now);
    }

    /// Schedules core `id` to wake at `time` as if [`Agenda::wake`] were
    /// called at `instant`, which must lie ahead of `now` and not after
    /// `time`. Supersedes the core's pending wake, if it has one.
    pub(crate) fn wake_as_of(&mut self, id: usize, instant: Ps, time: Ps) {
        debug_assert!(instant <= time, "an as-of wake before its instant");
        self.drop_instant(id);
        // Two pushes: the instant, an entry that never pops, now...
        let moment = key(instant, self.take_seq(), id);
        debug_assert!(moment > self.now, "an as-of instant that has passed");
        self.settle_ties(instant, self.now);
        // ...and the wake, at the instant.
        let key = key(time, self.take_seq(), id);
        self.cores.set(id, key);
        self.settle_ties(time, moment);
        self.instants[id] = moment;
        self.as_of_times[bucket(time)] += 1;
    }

    /// Cancels core `id`'s pending wake, if it has one.
    pub(crate) fn park(&mut self, id: usize) {
        self.drop_instant(id);
        self.cores.set(id, EMPTY);
    }

    /// Forgets core `id`'s as-of instant, if it has one.
    fn drop_instant(&mut self, id: usize) {
        if self.instants[id] != NO_INSTANT {
            self.instants[id] = NO_INSTANT;
            self.as_of_times[bucket(self.cores.time(id))] -= 1;
        }
    }

    /// The tie rule, after a push at `time` made at `moment`.
    fn settle_ties(&mut self, time: Ps, moment: Key) {
        if self.as_of_times[bucket(time)] != 0 {
            self.rekey_ties(time, moment);
        }
    }

    /// Gives every as-of wake at exactly `time` whose instant is later
    /// than `moment` a fresh `seq`, in instant order.
    #[cold]
    fn rekey_ties(&mut self, time: Ps, moment: Key) {
        let mut after = moment;
        loop {
            let next = (0..self.instants.len())
                .filter(|&id| self.instants[id] > after && self.cores.time(id) == time)
                .min_by_key(|&id| self.instants[id]);
            let Some(id) = next else {
                return;
            };
            after = self.instants[id];
            let key = key(time, self.take_seq(), id);
            self.cores.set(id, key);
        }
    }

    /// Removes and returns the earliest entry if it is due at or before
    /// `t_end`. A core's entry stays in its slot: see [`Due::Core`].
    pub(crate) fn pop_until(&mut self, t_end: Ps) -> Option<(Ps, Due)> {
        let core_key = self.cores.first();
        let lane_key = self.lanes.first();
        let read_key = self.reads.peek().map_or(EMPTY, |Reverse((k, _))| *k);
        let next = core_key.min(lane_key).min(read_key);
        if next == EMPTY || time_of(next) > t_end {
            // Every instant up to `t_end` has passed.
            self.now = self.now.max(past(t_end));
            return None;
        }
        self.now = self.now.max(next);
        // Real keys are unique, so the earliest names its source.
        let due = if next == core_key {
            let id = slot_of(next);
            // Its instant, if it has one, has passed for good; forgetting
            // it now keeps the step's own pushes at this time off the scan.
            self.drop_instant(id);
            Due::Core(id)
        } else if next == lane_key {
            let lane = slot_of(next);
            self.lanes.set(lane, EMPTY);
            Due::Lane(lane)
        } else {
            let Reverse((_, tag)) = self.reads.pop().expect("peeked");
            Due::Read(tag)
        };
        Some((time_of(next), due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkernel::EventQueue;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Tagged {
        Core(usize, u64),
        /// An as-of wake's instant: silent, but while current it pushes
        /// the core's wake as it pops.
        Stall(usize, u64),
        Lane(usize, u64),
        Read(u64),
    }

    /// The reference: every push goes into one `EventQueue`, core wakes
    /// and lane entries carry a generation, and a popped one whose
    /// generation is stale is skipped, as the engine's queue did for wakes
    /// before the agenda replaced it. Reads all pop. An as-of wake is the
    /// stall-end step it replaces: an entry at the instant that pushes the
    /// wake when it pops.
    struct RefQueue {
        queue: EventQueue<Tagged>,
        core_gens: Vec<u64>,
        lane_gens: Vec<u64>,
        /// Each core's as-of wake time, pushed when its instant pops.
        stall_wakes: Vec<Ps>,
    }

    impl RefQueue {
        fn new(cores: usize, lanes: usize) -> Self {
            RefQueue {
                queue: EventQueue::new(),
                core_gens: vec![0; cores],
                lane_gens: vec![0; lanes],
                stall_wakes: vec![Ps::ZERO; cores],
            }
        }

        fn push_read(&mut self, time: Ps, tag: u64) {
            self.queue.push(time, Tagged::Read(tag));
        }

        fn push_lane(&mut self, lane: usize, time: Ps) {
            self.lane_gens[lane] += 1;
            self.queue
                .push(time, Tagged::Lane(lane, self.lane_gens[lane]));
        }

        fn wake(&mut self, id: usize, time: Ps) {
            self.core_gens[id] += 1;
            self.queue.push(time, Tagged::Core(id, self.core_gens[id]));
        }

        fn wake_as_of(&mut self, id: usize, instant: Ps, time: Ps) {
            self.core_gens[id] += 1;
            self.stall_wakes[id] = time;
            self.queue
                .push(instant, Tagged::Stall(id, self.core_gens[id]));
        }

        fn park(&mut self, id: usize) {
            self.core_gens[id] += 1;
        }

        fn pop_until(&mut self, t_end: Ps) -> Option<(Ps, Due)> {
            while let Some(t) = self.queue.peek_time() {
                if t > t_end {
                    return None;
                }
                let (t, ev) = self.queue.pop().expect("peeked");
                match ev {
                    Tagged::Core(id, gen) if gen == self.core_gens[id] => {
                        return Some((t, Due::Core(id)));
                    }
                    Tagged::Stall(id, gen) if gen == self.core_gens[id] => {
                        self.queue.push(self.stall_wakes[id], Tagged::Core(id, gen));
                    }
                    Tagged::Lane(lane, gen) if gen == self.lane_gens[lane] => {
                        return Some((t, Due::Lane(lane)));
                    }
                    Tagged::Core(..) | Tagged::Stall(..) | Tagged::Lane(..) => {}
                    Tagged::Read(tag) => return Some((t, Due::Read(tag))),
                }
            }
            None
        }
    }

    /// The agenda and the reference, driven together.
    struct Lockstep {
        agenda: Agenda,
        reference: RefQueue,
        /// Lanes that behave like refresh lanes: they start with one
        /// entry, and each pop pushes the next one `REFRESH_PERIOD` later.
        refresh_from: usize,
        /// A popped core not yet re-keyed.
        popped: Option<usize>,
        /// Cores whose latest re-key was an as-of wake.
        as_of: Vec<bool>,
        /// The time of the last pop.
        now: u64,
        /// The latest limit a pop stopped at.
        passed: u64,
        reads: u64,
    }

    const REFRESH_PERIOD: u64 = 7;

    impl Lockstep {
        fn new(cores: usize, lanes: usize, refresh: usize) -> Self {
            let mut s = Lockstep {
                agenda: Agenda::new(cores, lanes),
                reference: RefQueue::new(cores, lanes),
                refresh_from: lanes - refresh,
                popped: None,
                as_of: vec![false; cores],
                now: 0,
                passed: 0,
                reads: 0,
            };
            for lane in s.refresh_from..lanes {
                s.push_lane(lane, (lane % REFRESH_PERIOD as usize) as u64);
            }
            s
        }

        /// The earliest time an as-of instant may take: after the last
        /// pop and after the last limit a pop stopped at. The end of a
        /// stall begun in a core step, or resumed after a DVFS halt between
        /// `run_until` calls, always is.
        fn next_instant(&self) -> u64 {
            self.now.max(self.passed) + 1
        }

        fn push_lane(&mut self, lane: usize, t: u64) {
            self.agenda.push_lane(lane, Ps::new(t));
            self.reference.push_lane(lane, Ps::new(t));
        }

        fn push_read(&mut self, t: u64) {
            self.agenda.push_read(Ps::new(t), self.reads);
            self.reference.push_read(Ps::new(t), self.reads);
            self.reads += 1;
        }

        fn rekeyed(&mut self, id: usize, as_of: bool) {
            self.as_of[id] = as_of;
            if self.popped == Some(id) {
                self.popped = None;
            }
        }

        fn wake(&mut self, id: usize, t: u64) {
            self.agenda.wake(id, Ps::new(t));
            self.reference.wake(id, Ps::new(t));
            self.rekeyed(id, false);
        }

        fn wake_as_of(&mut self, id: usize, instant: u64, t: u64) {
            self.agenda.wake_as_of(id, Ps::new(instant), Ps::new(t));
            self.reference.wake_as_of(id, Ps::new(instant), Ps::new(t));
            self.rekeyed(id, true);
        }

        fn park(&mut self, id: usize) {
            self.agenda.park(id);
            self.reference.park(id);
            self.rekeyed(id, false);
        }

        /// Pops from both and checks they agree; a refresh lane re-arms
        /// itself as `MemorySystem::handle` does.
        fn pop(&mut self, t_end: u64) -> bool {
            assert!(self.popped.is_none(), "popped before re-keying");
            let got = self.agenda.pop_until(Ps::new(t_end));
            let want = self.reference.pop_until(Ps::new(t_end));
            assert_eq!(got, want, "pop before {t_end}");
            let Some((t, due)) = got else {
                self.passed = self.passed.max(t_end);
                return false;
            };
            self.now = t.as_ps();
            match due {
                Due::Core(id) => self.popped = Some(id),
                Due::Lane(lane) if lane >= self.refresh_from => {
                    self.push_lane(lane, self.now + REFRESH_PERIOD);
                }
                Due::Lane(_) | Due::Read(_) => {}
            }
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The agenda and the generation-checked reference queue, driven
        /// in lockstep by the same random script, return the same entry at
        /// every pop and drain to the same tail.
        ///
        /// - Times come from a narrow range so ties dominate.
        /// - Re-wakes land before and after the pending wake.
        /// - Lane pushes land before and after the lane's pending entry,
        ///   and supersede it either way.
        /// - Refresh-style lanes always hold exactly one entry.
        /// - As-of wakes take instants after the last pop and the last
        ///   limit, and wake times at or after the instant, from the same
        ///   narrow range. Pending ones are re-keyed DVFS-style, to
        ///   instants near or far ahead.
        /// - A popped core is re-keyed by a wake, an as-of wake or a park,
        ///   after any pushes its step makes, before the next pop, as
        ///   `run_until` does; other cores are parked at random too.
        /// - `t_end` limits stop pops early the way `run_until` does.
        #[test]
        fn agenda_pops_like_a_generation_checked_event_queue(
            cores_pick in 0usize..5,
            lanes_pick in 0usize..4,
            ops in prop::collection::vec((0u8..15, 0usize..32, 0u64..6, 0u64..6), 1..300),
        ) {
            let cores = [1, 2, 3, 5, 16][cores_pick];
            let (lanes, refresh) = [(1, 0), (2, 1), (5, 2), (20, 16)][lanes_pick];
            let mut s = Lockstep::new(cores, lanes, refresh);
            for (action, who, dt, span) in ops {
                let t = s.now + dt;
                let instant = s.next_instant() + dt;
                match action {
                    // Wake a core at or after `now`: earlier or later than
                    // its pending wake, or at the same time.
                    0..=1 => s.wake(who % cores, t),
                    2 => s.wake_as_of(who % cores, instant, instant + span),
                    // Re-key a pending as-of wake as a DVFS change does,
                    // sometimes to an instant far ahead.
                    3 => {
                        if let Some(id) = (0..cores).map(|i| (who + i) % cores).find(|&i| s.as_of[i]) {
                            let instant = instant + if who < 16 { 0 } else { 12 };
                            s.wake_as_of(id, instant, instant + span);
                        }
                    }
                    4 => s.park(who % cores),
                    // A scheduling-pass-style push; a refresh lane is
                    // pushed only by its own pops.
                    5..=6 => s.push_lane(who % (lanes - refresh), t),
                    7 => s.push_read(t),
                    // Pop with a `run_until`-style limit, re-keying the
                    // last popped core first.
                    _ => {
                        if let Some(id) = s.popped {
                            match who % 3 {
                                0 => s.park(id),
                                1 => s.wake(id, t),
                                _ => s.wake_as_of(id, instant, instant + span),
                            }
                        }
                        s.pop(s.now + dt / 2);
                    }
                }
            }
            // Drain without the refresh lanes, which never empty.
            s.refresh_from = lanes;
            loop {
                if let Some(id) = s.popped {
                    s.park(id);
                }
                if !s.pop(u64::MAX) {
                    break;
                }
            }
            let a = &s.agenda;
            prop_assert!(a.cores.nodes.iter().all(|&k| k == EMPTY), "a wake outlived the drain");
            prop_assert!(a.lanes.nodes.iter().all(|&k| k == EMPTY), "a lane entry outlived the drain");
            prop_assert!(a.reads.is_empty(), "a read outlived the drain");
            prop_assert!(a.instants.iter().all(|&k| k == NO_INSTANT), "an instant outlived the drain");
            prop_assert!(a.as_of_times.iter().all(|&n| n == 0), "the filter outlived the drain");
        }
    }

    #[test]
    fn a_rewake_supersedes_the_pending_wake() {
        let mut a = Agenda::new(2, 1);
        a.wake(0, Ps::new(10));
        a.wake(1, Ps::new(20));
        a.wake(0, Ps::new(30));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(20), Due::Core(1))));
        a.park(1);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Core(0))));
        a.park(0);
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn a_popped_core_pops_again_until_it_is_re_keyed() {
        let mut a = Agenda::new(2, 1);
        a.wake(0, Ps::new(10));
        a.wake(1, Ps::new(20));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(10), Due::Core(0))));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(10), Due::Core(0))));
        a.wake(0, Ps::new(30));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(20), Due::Core(1))));
    }

    #[test]
    fn a_later_lane_push_supersedes_the_pending_entry() {
        let mut a = Agenda::new(1, 2);
        // Earlier in time than the pending entry.
        a.push_lane(1, Ps::new(10));
        a.push_lane(1, Ps::new(5));
        // Later in time than the pending entry.
        a.push_lane(0, Ps::new(10));
        a.push_lane(0, Ps::new(20));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(5), Due::Lane(1))));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(20), Due::Lane(0))));
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn ties_pop_in_push_order_across_wakes_lanes_and_reads() {
        let mut a = Agenda::new(3, 2);
        a.push_read(Ps::new(5), 7);
        a.wake(2, Ps::new(5));
        a.push_lane(1, Ps::new(5));
        a.push_read(Ps::new(5), 8);
        a.wake(0, Ps::new(5));
        assert_eq!(a.pop_until(Ps::new(4)), None);
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Read(7))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Core(2))));
        a.park(2);
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Lane(1))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Read(8))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Core(0))));
        a.park(0);
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn an_as_of_wake_pops_after_pushes_before_its_instant_and_before_later_ones() {
        let mut a = Agenda::new(2, 1);
        a.wake(1, Ps::new(10));
        // Core 0's stall ends at 20; its next access is at 30.
        a.wake_as_of(0, Ps::new(20), Ps::new(30));
        // Pushed before the instant: the stall-end step would have
        // pushed core 0's wake after it.
        a.push_read(Ps::new(30), 1);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(10), Due::Core(1))));
        a.push_lane(0, Ps::new(30));
        a.wake(1, Ps::new(25));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(25), Due::Core(1))));
        // Pushed after the instant: after core 0's wake.
        a.push_read(Ps::new(30), 2);
        a.park(1);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Read(1))));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Lane(0))));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Core(0))));
        a.park(0);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Read(2))));
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn as_of_wakes_at_one_time_pop_in_instant_order() {
        let mut a = Agenda::new(3, 1);
        // Pushed first, but with the later instant.
        a.wake_as_of(0, Ps::new(20), Ps::new(30));
        a.wake_as_of(1, Ps::new(10), Ps::new(30));
        // Re-keys both, in instant order, not push order.
        a.push_read(Ps::new(30), 7);
        a.wake_as_of(2, Ps::new(25), Ps::new(30));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Read(7))));
        for id in [1, 0, 2] {
            assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Core(id))));
            a.park(id);
        }
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn an_instant_at_an_as_of_wake_time_passes_before_that_wake_pops() {
        let mut a = Agenda::new(2, 1);
        a.wake_as_of(0, Ps::new(20), Ps::new(30));
        // Core 1's stall, begun before core 0's ends, ends at 30: its
        // stall-end step would have popped before core 0's wake.
        a.wake_as_of(1, Ps::new(30), Ps::new(40));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Core(0))));
        // So core 0's step pushes after core 1's instant.
        a.push_read(Ps::new(40), 1);
        a.park(0);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(40), Due::Core(1))));
        a.park(1);
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(40), Due::Read(1))));
    }

    #[test]
    fn an_instant_at_a_pop_limit_has_passed_for_pushes_between_limits() {
        // Limit 19 stops before the instant at 20: a push between limits
        // comes first. Limit 20 reaches it: the push comes after.
        for (limit, first) in [(19, Due::Read(1)), (20, Due::Core(0))] {
            let mut a = Agenda::new(1, 1);
            a.wake_as_of(0, Ps::new(20), Ps::new(30));
            assert_eq!(a.pop_until(Ps::new(limit)), None);
            a.push_read(Ps::new(30), 1);
            assert_eq!(
                a.pop_until(Ps::MAX),
                Some((Ps::new(30), first)),
                "limit {limit}"
            );
        }
    }
}
