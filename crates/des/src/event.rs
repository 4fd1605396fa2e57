//! The event queue: a priority queue over `(SimTime, sequence, E)`.
//!
//! The queue does **not** own the simulation loop. Callers drive it:
//!
//! ```
//! use gpaw_des::{EventQueue, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimDuration::from_ns(10), Ev::Pong);
//! q.schedule(SimDuration::from_ns(5), Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1.0, e1), (5_000, Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2.0, e2), (10_000, Ev::Pong));
//! assert!(q.pop().is_none());
//! ```
//!
//! Events scheduled for the same instant fire in insertion order, which is
//! what makes whole-machine simulations reproducible run to run.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry. Ordered so that the `BinaryHeap` (a max-heap) pops
/// the *earliest* time first, breaking ties by the insertion sequence.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest time (then lowest seq) is the heap maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// `now()` is the time of the most recently popped event (or zero). It is a
/// logic error — caught by a debug assertion — to schedule an event in the
/// past.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far (simulation-size metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at the absolute instant `at` (must not be in the
    /// past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the next event and advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_ns(30), 3u32);
        q.schedule(SimDuration::from_ns(10), 1);
        q.schedule(SimDuration::from_ns(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimDuration::from_ns(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_us(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(2 * crate::time::PS_PER_US));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_ns(10), "a");
        q.pop().unwrap();
        // Scheduled relative to t=10ns, not t=0.
        q.schedule(SimDuration::from_ns(10), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(t.0, 20_000);
    }

    #[test]
    fn counts_processed_events() {
        let mut q = EventQueue::new();
        for _ in 0..5 {
            q.schedule(SimDuration::ZERO, ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        assert!(q.is_empty());
    }

    /// Determinism end-to-end: interleaved schedule/pop sequences yield the
    /// exact same trace on every run.
    #[test]
    fn deterministic_trace() {
        let run = || {
            let mut q = EventQueue::new();
            let mut trace = Vec::new();
            let mut rng = crate::rng::SplitMix64::new(0xDEC0DE);
            for i in 0..1000u64 {
                q.schedule(SimDuration::from_ps(rng.next_u64() % 1000), i);
                if i % 3 == 0 {
                    if let Some((t, e)) = q.pop() {
                        trace.push((t, e));
                    }
                }
            }
            while let Some((t, e)) = q.pop() {
                trace.push((t, e));
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
