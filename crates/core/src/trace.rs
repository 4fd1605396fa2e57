//! Span instrumentation for the planes that run on real threads.
//!
//! The timed plane gets its spans for free: the machine model knows where
//! every simulated picosecond goes ([`gpaw_simmpi::ThreadPhases`]). The
//! real-data interpreter ([`crate::interp`]) runs on OS threads, so this
//! module provides the equivalent: a per-thread [`WallTracer`] that
//! timestamps spans against a shared monotonic epoch and stores them in
//! the *same* representation the timed plane uses —
//! [`SpanKind`]/[`SpanAgg`] from `gpaw-des`, with nanoseconds mapped onto
//! `SimTime` picoseconds — so one report format serves every plane.
//!
//! Span attribution on real threads:
//!
//! * [`SpanKind::HaloPack`] / [`SpanKind::HaloUnpack`] — face (un)packing;
//! * [`SpanKind::Post`] — handing a packed buffer to the transport;
//! * [`SpanKind::Wait`] — blocked in a receive;
//! * [`SpanKind::Compute`] — the stencil kernel;
//! * [`SpanKind::ThreadBarrier`] — waiting at a barrier.
//!
//! Tracing costs two `Instant::now()` calls per span; the traced
//! operations (packing or computing whole faces/grids) are microseconds
//! each, so the overhead is negligible.

use std::time::Instant;

pub use gpaw_des::{Span, SpanAgg, SpanKind, SpanLog};
pub use gpaw_simmpi::ThreadPhases;

use gpaw_des::{SimDuration, SimTime};

/// Wall-clock span recorder for one thread.
///
/// All tracers of one run share an epoch (`Instant`) so their spans live
/// on a common time axis, mirroring the simulated clock of the timed
/// plane.
#[derive(Debug)]
pub struct WallTracer {
    epoch: Instant,
    log: SpanLog,
}

impl WallTracer {
    /// A recording tracer against the given epoch.
    pub fn new(epoch: Instant) -> WallTracer {
        WallTracer {
            epoch,
            log: SpanLog::new(),
        }
    }

    /// The current time on the shared axis.
    pub fn now(&self) -> SimTime {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    /// Open a span; nested opens suspend the parent (exclusive self-time).
    #[inline]
    pub fn open(&mut self, kind: SpanKind) {
        let t = self.now();
        self.log.open(kind, t);
    }

    /// Close the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        let t = self.now();
        self.log.close(t);
    }

    /// Close every open span at the current time, innermost first.
    ///
    /// Error-path cleanup: a caught panic or a propagated receive failure
    /// can leave spans open mid-nest; closing them keeps the log balanced
    /// so the thread's timeline can still be finished and reported.
    pub fn close_all(&mut self) {
        let t = self.now();
        self.log.close_all(t);
    }

    /// Finish tracing: aggregate the recorded spans, report the thread's
    /// lifetime on the shared axis, and hand back the raw span timeline —
    /// what a timeline exporter such as [`crate::chrome`] needs, and what
    /// the aggregate [`ThreadPhases`] deliberately discards.
    pub fn finish(self, rank: usize, slot: usize) -> ThreadResult {
        debug_assert!(self.log.is_balanced(), "unclosed span at finish");
        let finish = self.now().since(SimTime::ZERO);
        let phases = ThreadPhases {
            rank,
            slot,
            finish,
            spans: self.log.aggregate(),
        };
        ThreadResult {
            phases,
            spans: self.log.spans().to_vec(),
        }
    }
}

/// One traced thread's outcome: the aggregate phase breakdown plus the
/// raw span timeline.
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// Per-kind totals and the thread's lifetime.
    pub phases: ThreadPhases,
    /// Exclusive self-time segments on the run's shared axis.
    pub spans: Vec<Span>,
}

/// One thread's raw span timeline: the per-segment counterpart of
/// [`ThreadPhases`], ordered by (rank, slot) within a run.
#[derive(Debug, Clone)]
pub struct ThreadSpans {
    /// MPI rank the thread belongs to.
    pub rank: usize,
    /// Thread slot within the rank (0 for the master).
    pub slot: usize,
    /// Exclusive self-time segments on the run's shared time axis.
    pub spans: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_nested_exclusive_spans() {
        let mut tr = WallTracer::new(Instant::now());
        tr.open(SpanKind::Compute);
        tr.open(SpanKind::Post);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close();
        tr.close();
        let t = tr.finish(3, 1).phases;
        assert_eq!(t.rank, 3);
        assert_eq!(t.slot, 1);
        assert!(t.spans.get(SpanKind::Post) >= SimDuration::from_ms(2));
        assert!(t.spans.total() <= t.finish);
    }

    #[test]
    fn finish_keeps_the_raw_timeline() {
        let mut tr = WallTracer::new(Instant::now());
        tr.open(SpanKind::HaloPack);
        tr.close();
        tr.open(SpanKind::Compute);
        tr.open(SpanKind::Post);
        tr.close();
        tr.close();
        let ThreadResult { phases, spans } = tr.finish(1, 2);
        // Zero-length segments may be dropped, but the segments that exist
        // must aggregate to exactly the ThreadPhases totals.
        let mut agg = SpanAgg::new();
        for s in &spans {
            agg.record(s);
        }
        assert_eq!(agg, phases.spans);
        assert!(spans
            .iter()
            .all(|s| s.end.since(SimTime::ZERO) <= phases.finish));
    }
}
