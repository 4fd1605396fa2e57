//! In-process message transport for the functional plane.
//!
//! Ranks are OS threads inside one test process; a message is a `Vec<T>`
//! of packed face data, matched MPI-style on `(source, tag)` with FIFO
//! ordering per pair. Sends never block (buffered, like eager-protocol
//! MPI), receives block until a match arrives — which is all the engine
//! needs, since every schedule posts its sends before its receives.
//!
//! The mailbox is thread-safe, so the *hybrid multiple* approach can let
//! all four threads of a process send and receive concurrently — the
//! functional analogue of `MPI_THREAD_MULTIPLE`.

use crate::interp::Comm;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Match key: (source rank, tag).
type Key = (usize, u64);

struct Mailbox<T> {
    queues: Mutex<HashMap<Key, VecDeque<Vec<T>>>>,
    arrived: Condvar,
}

impl<T> Mailbox<T> {
    /// Lock the queue map. Senders never panic while holding the lock, so
    /// a poisoned mutex only ever reflects a panic already unwinding the
    /// test process — recover the guard rather than double-panicking.
    fn lock(&self) -> MutexGuard<'_, HashMap<Key, VecDeque<Vec<T>>>> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            queues: Mutex::new(HashMap::new()),
            arrived: Condvar::new(),
        }
    }
}

/// A cluster-wide transport: one mailbox per rank.
pub struct Transport<T> {
    boxes: Vec<Mailbox<T>>,
}

impl<T: Send> Transport<T> {
    /// Transport for `ranks` ranks.
    pub fn new(ranks: usize) -> Transport<T> {
        Transport {
            boxes: (0..ranks).map(|_| Mailbox::default()).collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// Non-blocking receive (tests and drain checks).
    pub fn try_recv(&self, me: usize, src: usize, tag: u64) -> Option<Vec<T>> {
        let mut q = self.boxes[me].lock();
        q.get_mut(&(src, tag)).and_then(VecDeque::pop_front)
    }

    /// True when rank `me` has no undelivered messages — every schedule
    /// must leave the transport drained (a leftover message means a
    /// send/recv mismatch).
    pub fn is_drained(&self, me: usize) -> bool {
        self.boxes[me].lock().values().all(VecDeque::is_empty)
    }
}

/// The functional plane's [`Comm`]: a receive waits as long as it takes
/// and never fails.
impl<T: Send> Comm<T> for Transport<T> {
    type Error = Infallible;

    fn send(&self, src: usize, dst: usize, tag: u64, payload: Vec<T>) {
        let mbox = &self.boxes[dst];
        let mut q = mbox.lock();
        q.entry((src, tag)).or_default().push_back(payload);
        mbox.arrived.notify_all();
    }

    fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Vec<T>, Infallible> {
        let mbox = &self.boxes[me];
        let mut q = mbox.lock();
        loop {
            if let Some(payload) = q.get_mut(&(src, tag)).and_then(VecDeque::pop_front) {
                return Ok(payload);
            }
            q = mbox.arrived.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn send_then_recv() {
        let t: Transport<f64> = Transport::new(2);
        t.send(0, 1, 7, vec![1.0, 2.0]);
        assert_eq!(t.recv(1, 0, 7), Ok(vec![1.0, 2.0]));
        assert!(t.is_drained(1));
    }

    #[test]
    fn fifo_per_key() {
        let t: Transport<u8> = Transport::new(1);
        t.send(0, 0, 1, vec![1]);
        t.send(0, 0, 1, vec![2]);
        assert_eq!(t.recv(0, 0, 1), Ok(vec![1]));
        assert_eq!(t.recv(0, 0, 1), Ok(vec![2]));
    }

    #[test]
    fn tags_do_not_cross_match() {
        let t: Transport<u8> = Transport::new(1);
        t.send(0, 0, 1, vec![1]);
        t.send(0, 0, 2, vec![2]);
        assert_eq!(t.recv(0, 0, 2), Ok(vec![2]));
        assert_eq!(t.recv(0, 0, 1), Ok(vec![1]));
    }

    #[test]
    fn try_recv_does_not_block() {
        let t: Transport<u8> = Transport::new(1);
        assert_eq!(t.try_recv(0, 0, 9), None);
        t.send(0, 0, 9, vec![3]);
        assert_eq!(t.try_recv(0, 0, 9), Some(vec![3]));
    }

    #[test]
    fn blocking_recv_wakes_on_late_send() {
        let t: Arc<Transport<u64>> = Arc::new(Transport::new(2));
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.recv(1, 0, 42));
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.send(0, 1, 42, vec![99]);
        assert_eq!(h.join().unwrap(), Ok(vec![99]));
    }

    #[test]
    fn concurrent_threads_share_one_mailbox() {
        // Four "threads of a process" receiving distinct tags concurrently —
        // the MPI_THREAD_MULTIPLE pattern of hybrid multiple.
        let t: Arc<Transport<u64>> = Arc::new(Transport::new(1));
        let handles: Vec<_> = (0..4u64)
            .map(|tag| {
                let t = t.clone();
                std::thread::spawn(move || t.recv(0, 0, tag))
            })
            .collect();
        for tag in (0..4u64).rev() {
            t.send(0, 0, tag, vec![tag * 10]);
        }
        for (tag, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), Ok(vec![tag as u64 * 10]));
        }
    }
}
