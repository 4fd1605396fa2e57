//! Lightweight statistics for simulation reports: the accumulator behind
//! the network's per-node injection counters (Fig. 6's right axis).

/// A plain monotonically increasing counter (bytes sent, messages posted…).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    events: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to the counter (one event).
    pub fn add(&mut self, amount: u64) {
        self.total += amount;
        self.events += 1;
    }

    /// Accumulated total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of `add` calls.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean amount per event (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total as f64 / self.events as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.total += other.total;
        self.events += other.events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(10);
        c.add(30);
        assert_eq!(c.total(), 40);
        assert_eq!(c.events(), 2);
        assert!((c.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn counter_merge() {
        let mut a = Counter::new();
        a.add(1);
        let mut b = Counter::new();
        b.add(2);
        b.add(3);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.events(), 3);
    }
}
