//! A stable binary-heap event queue.

use crate::Ps;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the heap. Ordering is by time, then by insertion sequence
/// number, so events at equal times pop in FIFO order. The payload never
/// participates in ordering, which is what lets `EventQueue` hold payloads
/// that are not `Ord`.
#[derive(Clone, Debug)]
struct Entry<E> {
    time: Ps,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue ordered by simulated time with FIFO tie-breaking.
///
/// # Total order
///
/// Pop order is a **total** order over `(time, insertion sequence)`: events
/// pop by ascending time, and two events scheduled for the same picosecond
/// always pop in the order they were pushed, no matter how pushes and pops
/// interleave. No two entries ever compare equal (the sequence counter is
/// unique and never reset, even by [`EventQueue::clear`]), so the heap has
/// no ambiguous orderings for implementation details to resolve — pop
/// order is a pure function of the push history. Simulation outcomes
/// therefore cannot depend on heap internals, hash seeds, or thread
/// timing. The message plane's delivery order leans on this guarantee,
/// and the cycle-simulation engine's agenda (per-core wake slots beside an
/// event heap) is proven against it: its pops must match this queue's.
/// The property test `total_order_is_push_history_stable` pins it.
///
/// # Example
///
/// ```
/// use simkernel::{EventQueue, Ps};
///
/// let mut q = EventQueue::new();
/// q.push(Ps::from_ns(10), 'b');
/// q.push(Ps::from_ns(10), 'c');
/// q.push(Ps::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Ps, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Ps, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Ps> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events. The FIFO sequence counter is *not* reset, so
    /// determinism guarantees continue to hold across a clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Ps::new(30), 3);
        q.push(Ps::new(10), 1);
        q.push(Ps::new(20), 2);
        assert_eq!(q.pop(), Some((Ps::new(10), 1)));
        assert_eq!(q.pop(), Some((Ps::new(20), 2)));
        assert_eq!(q.pop(), Some((Ps::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Ps::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Ps::new(5), ());
        q.push(Ps::new(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Ps::new(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clone_preserves_contents() {
        let mut q = EventQueue::new();
        q.push(Ps::new(2), "x");
        q.push(Ps::new(1), "y");
        let mut c = q.clone();
        assert_eq!(c.pop(), q.pop());
        assert_eq!(c.pop(), q.pop());
    }

    proptest::proptest! {
        /// The documented total order, against a reference model run in
        /// lockstep: at every pop, the queue must return exactly the
        /// resident event with the smallest `(time, push index)` — pushes
        /// draw times from a narrow range so same-timestamp ties dominate,
        /// payloads carry their push index so ties are checked exactly,
        /// and a mid-stream `clear` must not reset the tie-break counter.
        #[test]
        fn total_order_is_push_history_stable(
            ops in proptest::collection::vec((0u64..8, 0u8..10), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(Ps, usize)> = Vec::new();
            let mut idx = 0usize;
            for (time, action) in ops {
                match action {
                    0..=6 => {
                        q.push(Ps::new(time), idx);
                        model.push((Ps::new(time), idx));
                        idx += 1;
                    }
                    7..=8 => {
                        let expect = model.iter().min().copied();
                        proptest::prop_assert_eq!(q.pop(), expect, "pop is not the (time, seq) minimum");
                        if let Some(min) = expect {
                            model.retain(|e| *e != min);
                        }
                    }
                    _ => {
                        q.clear();
                        model.clear();
                    }
                }
            }
            while let Some(e) = q.pop() {
                let min = *model.iter().min().expect("queue outlived the model");
                proptest::prop_assert_eq!(e, min, "drain is not the (time, seq) minimum");
                model.retain(|x| *x != min);
            }
            proptest::prop_assert!(model.is_empty(), "model outlived the queue");
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(Ps::new(10), 10);
        q.push(Ps::new(5), 5);
        assert_eq!(q.pop().unwrap().0, Ps::new(5));
        q.push(Ps::new(1), 1);
        q.push(Ps::new(7), 7);
        let mut last = Ps::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
