//! Analytic FIFO resources.
//!
//! Network links, DMA injection FIFOs and the MPI library lock are all
//! modeled as first-come-first-served servers. Instead of simulating the
//! queueing with events, a server just remembers when it becomes free;
//! `acquire` returns the interval during which the request is actually
//! serviced. This is exact for FIFO service disciplines and costs O(1)
//! per request, which matters when the 16 384-core figures push tens of
//! millions of messages through the model.

use crate::time::{SimDuration, SimTime};

/// The service interval granted to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (≥ the request time).
    pub start: SimTime,
    /// When service completes.
    pub done: SimTime,
}

impl Grant {
    /// How long the request waited in queue before being serviced.
    pub fn queue_delay(&self, requested_at: SimTime) -> SimDuration {
        self.start.saturating_since(requested_at)
    }
}

/// A single FIFO server (e.g. one directed torus link).
///
/// ```
/// use gpaw_des::{FifoServer, SimDuration, SimTime};
/// let mut link = FifoServer::new();
/// let a = link.acquire(SimTime::ZERO, SimDuration::from_ns(100));
/// let b = link.acquire(SimTime::ZERO, SimDuration::from_ns(50));
/// assert_eq!(a.done.0, 100_000);
/// assert_eq!(b.start, a.done); // b queued behind a
/// assert_eq!(b.done.0, 150_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    free_at: SimTime,
    busy_total: SimDuration,
    requests: u64,
}

impl FifoServer {
    /// A server that is free immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `service` time starting no earlier than `now`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.busy_total += service;
        self.requests += 1;
        Grant { start, done }
    }

    /// The instant at which the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Aggregate busy time (for utilization reports).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilization over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            return 0.0;
        }
        self.busy_total.as_ps() as f64 / horizon.0 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_ns(n)
    }

    #[test]
    fn fifo_serializes_back_to_back() {
        let mut s = FifoServer::new();
        let g1 = s.acquire(SimTime::ZERO, ns(10));
        let g2 = s.acquire(SimTime::ZERO, ns(10));
        let g3 = s.acquire(SimTime::ZERO, ns(10));
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, g1.done);
        assert_eq!(g3.start, g2.done);
        assert_eq!(g3.done, SimTime::ZERO + ns(30));
    }

    #[test]
    fn fifo_idle_gap_is_not_charged() {
        let mut s = FifoServer::new();
        let g1 = s.acquire(SimTime::ZERO, ns(10));
        // Next request arrives long after the server went idle.
        let late = SimTime::ZERO + ns(100);
        let g2 = s.acquire(late, ns(5));
        assert_eq!(g1.done.0, 10_000);
        assert_eq!(g2.start, late);
        assert_eq!(g2.queue_delay(late), SimDuration::ZERO);
    }

    #[test]
    fn fifo_reports_queue_delay() {
        let mut s = FifoServer::new();
        s.acquire(SimTime::ZERO, ns(100));
        let g = s.acquire(SimTime::ZERO + ns(20), ns(10));
        assert_eq!(g.queue_delay(SimTime::ZERO + ns(20)), ns(80));
    }

    #[test]
    fn fifo_utilization() {
        let mut s = FifoServer::new();
        s.acquire(SimTime::ZERO, ns(25));
        s.acquire(SimTime::ZERO, ns(25));
        let u = s.utilization(SimTime::ZERO + ns(100));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(s.requests(), 2);
    }
}
