//! The engine's event agenda: one wake slot per core beside a heap of
//! other events.
//!
//! A core has at most one live wake: every new wake supersedes the
//! pending one. So instead of a heap entry per wake, each core keeps one
//! slot holding the `(time, seq)` of its latest wake, and a tournament
//! tree over the slots finds the earliest core in O(log cores). Every
//! other event goes into a binary heap. Core wakes and events draw their
//! `seq` from one shared counter, so [`Agenda::pop_until`] returns
//! entries in exactly the `(time, push sequence)` order of a
//! [`simkernel::EventQueue`] that held every push and skipped the
//! superseded wakes as they popped.

use simkernel::Ps;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ordering key: time in the high word, push sequence in the low word,
/// so one integer comparison orders by `(time, seq)`.
type Key = u128;

/// The key of an empty wake slot; later than any real entry.
const EMPTY: Key = Key::MAX;

fn key(time: Ps, seq: u64) -> Key {
    (Key::from(time.as_ps()) << 64) | Key::from(seq)
}

fn time_of(key: Key) -> Ps {
    Ps::new((key >> 64) as u64)
}

/// A heap entry, ordered so the earliest `(time, seq)` is on top.
#[derive(Clone, Debug)]
struct Entry<E> {
    key: Key,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest entry is on top.
        other.key.cmp(&self.key)
    }
}

/// What [`Agenda::pop_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Due<E> {
    /// Core `id`'s wake; its slot is now empty.
    Core(usize),
    /// A pushed event.
    Event(E),
}

/// Per-core wake slots plus an event heap, popping in `(time, seq)`
/// order. Plain data, so a cloned `System` carries its agenda along.
#[derive(Clone, Debug)]
pub(crate) struct Agenda<E> {
    events: BinaryHeap<Entry<E>>,
    /// Each core's pending wake, or [`EMPTY`]; padded with empty slots to
    /// a power of two.
    wakes: Vec<Key>,
    /// Tournament tree over `wakes`: node `j` holds the slot with the
    /// smallest key below it, node 1 is the root, and slot `i` is leaf
    /// `wakes.len() + i`.
    winner: Vec<u32>,
    next_seq: u64,
}

impl<E> Agenda<E> {
    /// An empty agenda for `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        let size = cores.max(1).next_power_of_two();
        // Every slot starts empty, so each node's winner is its leftmost
        // leaf.
        let mut winner = vec![0u32; 2 * size];
        for (i, leaf) in winner[size..].iter_mut().enumerate() {
            *leaf = i as u32;
        }
        for node in (1..size).rev() {
            winner[node] = winner[2 * node];
        }
        Agenda {
            events: BinaryHeap::new(),
            wakes: vec![EMPTY; size],
            winner,
            next_seq: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time`.
    pub(crate) fn push(&mut self, time: Ps, payload: E) {
        let key = key(time, self.take_seq());
        self.events.push(Entry { key, payload });
    }

    /// Schedules core `id` to wake at `time`, superseding its pending
    /// wake if it has one.
    pub(crate) fn wake(&mut self, id: usize, time: Ps) {
        let key = key(time, self.take_seq());
        self.wakes[id] = key;
        self.replay_path(id);
    }

    /// Recomputes the winners on slot `id`'s path to the root.
    fn replay_path(&mut self, id: usize) {
        let mut node = (self.wakes.len() + id) >> 1;
        while node >= 1 {
            let a = self.winner[2 * node];
            let b = self.winner[2 * node + 1];
            self.winner[node] = if self.wakes[a as usize] <= self.wakes[b as usize] {
                a
            } else {
                b
            };
            node >>= 1;
        }
    }

    /// Removes and returns the earliest entry if it is due at or before
    /// `t_end`.
    pub(crate) fn pop_until(&mut self, t_end: Ps) -> Option<(Ps, Due<E>)> {
        let id = self.winner[1] as usize;
        let core = self.wakes[id];
        let event = self.events.peek().map_or(EMPTY, |e| e.key);
        let next = core.min(event);
        if next == EMPTY || time_of(next) > t_end {
            return None;
        }
        if core < event {
            self.wakes[id] = EMPTY;
            self.replay_path(id);
            Some((time_of(core), Due::Core(id)))
        } else {
            let e = self.events.pop().expect("peeked");
            Some((time_of(e.key), Due::Event(e.payload)))
        }
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
        Event(usize),
    }

    /// The reference: every push goes into one `EventQueue`, core wakes
    /// carry a generation, and a popped wake whose generation is stale is
    /// skipped, as the engine's queue did before the agenda replaced it.
    struct RefQueue {
        queue: EventQueue<Tagged>,
        gens: Vec<u64>,
    }

    impl RefQueue {
        fn new(cores: usize) -> Self {
            RefQueue {
                queue: EventQueue::new(),
                gens: vec![0; cores],
            }
        }

        fn push(&mut self, time: Ps, payload: usize) {
            self.queue.push(time, Tagged::Event(payload));
        }

        fn wake(&mut self, id: usize, time: Ps) {
            self.gens[id] += 1;
            self.queue.push(time, Tagged::Core(id, self.gens[id]));
        }

        fn pop_until(&mut self, t_end: Ps) -> Option<(Ps, Due<usize>)> {
            while let Some(t) = self.queue.peek_time() {
                if t > t_end {
                    return None;
                }
                let (t, ev) = self.queue.pop().expect("peeked");
                match ev {
                    Tagged::Core(id, gen) if gen == self.gens[id] => {
                        return Some((t, Due::Core(id)));
                    }
                    Tagged::Core(..) => {}
                    Tagged::Event(p) => return Some((t, Due::Event(p))),
                }
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The agenda and the generation-checked reference queue, driven
        /// in lockstep by the same random script, return the same entry at
        /// every pop and drain to the same tail. Times come from a narrow
        /// range so ties dominate; re-wakes land both before and after the
        /// pending wake; `t_end` limits stop pops early the way
        /// `run_until` does.
        #[test]
        fn agenda_pops_like_a_generation_checked_event_queue(
            cores_pick in 0usize..5,
            ops in prop::collection::vec((0u8..10, 0usize..16, 0u64..6), 1..300),
        ) {
            let cores = [1, 2, 3, 5, 16][cores_pick];
            let mut agenda = Agenda::new(cores);
            let mut reference = RefQueue::new(cores);
            let mut now = 0u64;
            let mut pushed = 0usize;
            for (action, who, dt) in ops {
                match action {
                    // Wake a core at or after `now`: earlier or later than
                    // its pending wake, or at the same time.
                    0..=3 => {
                        let id = who % cores;
                        let t = Ps::new(now + dt);
                        agenda.wake(id, t);
                        reference.wake(id, t);
                    }
                    // Push a memory-style event.
                    4..=5 => {
                        let t = Ps::new(now + dt);
                        agenda.push(t, pushed);
                        reference.push(t, pushed);
                        pushed += 1;
                    }
                    // Pop with a `run_until`-style limit.
                    _ => {
                        let t_end = Ps::new(now + dt / 2);
                        let got = agenda.pop_until(t_end);
                        let want = reference.pop_until(t_end);
                        prop_assert_eq!(got, want, "pop before {:?}", t_end);
                        if let Some((t, _)) = got {
                            now = t.as_ps();
                        }
                    }
                }
            }
            loop {
                let got = agenda.pop_until(Ps::MAX);
                let want = reference.pop_until(Ps::MAX);
                prop_assert_eq!(got, want, "drain");
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(agenda.wakes.iter().all(|&k| k == EMPTY), "a wake outlived the drain");
            prop_assert!(agenda.events.is_empty(), "an event outlived the drain");
        }
    }

    #[test]
    fn a_rewake_supersedes_the_pending_wake() {
        let mut a: Agenda<u8> = Agenda::new(2);
        a.wake(0, Ps::new(10));
        a.wake(1, Ps::new(20));
        a.wake(0, Ps::new(30));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(20), Due::Core(1))));
        assert_eq!(a.pop_until(Ps::MAX), Some((Ps::new(30), Due::Core(0))));
        assert_eq!(a.pop_until(Ps::MAX), None);
    }

    #[test]
    fn ties_pop_in_push_order_across_wakes_and_events() {
        let mut a = Agenda::new(3);
        a.push(Ps::new(5), 'a');
        a.wake(2, Ps::new(5));
        a.push(Ps::new(5), 'b');
        a.wake(0, Ps::new(5));
        assert_eq!(a.pop_until(Ps::new(4)), None);
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Event('a'))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Core(2))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Event('b'))));
        assert_eq!(a.pop_until(Ps::new(5)), Some((Ps::new(5), Due::Core(0))));
        assert_eq!(a.pop_until(Ps::MAX), None);
    }
}
