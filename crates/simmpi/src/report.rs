//! The outcome of a timed run.

use gpaw_des::{SimDuration, SpanAgg, SpanKind};
use gpaw_netsim::NetReport;

/// Per-thread span breakdown: where one hardware thread's simulated time
/// went. Unlike the legacy `busy_*` counters (which only count time the
/// core is actively charged), the spans tile `[0, finish]` exactly — every
/// picosecond of a thread's life is attributed to exactly one
/// [`SpanKind`], so blocked time inside `Wait`/`ThreadBarrier`/`Collective`
/// is visible instead of folded into "idle".
#[derive(Debug, Clone)]
pub struct ThreadPhases {
    /// MPI rank the thread belongs to.
    pub rank: usize,
    /// Thread slot within the rank (0 for the master).
    pub slot: usize,
    /// Simulated time at which this thread executed `Done`.
    pub finish: SimDuration,
    /// Exclusive per-kind time totals; they sum to `finish`.
    pub spans: SpanAgg,
}

/// Aggregate results of one [`crate::Machine::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated wall-clock time from start to the last thread's `Done`.
    pub makespan: SimDuration,
    /// Discrete events processed (simulation-size diagnostic).
    pub events: u64,
    /// Messages posted (`Isend` count) across all instantiated threads.
    pub messages: u64,
    /// MPI payload bytes posted per node (any destination, including the
    /// intra-node shared-memory messages of virtual mode): the maximum over
    /// nodes. This is the quantity on the right axis of the paper's Fig. 6.
    pub bytes_per_node: u64,
    /// Torus payload bytes injected per node (intra-node traffic excluded):
    /// maximum over nodes in full scope, the cell's injection in unit-cell
    /// scope.
    pub network_bytes_per_node: u64,
    /// Total network payload bytes (equals `bytes_per_node` in unit-cell
    /// scope).
    pub total_network_bytes: u64,
    /// Summed busy time across threads (compute + messaging + sync).
    pub busy: SimDuration,
    /// Busy time spent in the stencil kernel (and explicit delays).
    pub busy_compute: SimDuration,
    /// Busy time spent in messaging (posting, locks, waits, memcpy).
    pub busy_comm: SimDuration,
    /// Busy time spent synchronizing (barriers, collectives).
    pub busy_sync: SimDuration,
    /// Stencil flops retired (points × 25).
    pub flops: f64,
    /// Instantiated hardware threads.
    pub threads: usize,
    /// Fraction of peak flops achieved over the makespan — the paper's
    /// "CPU utilization" (36 % for Flat original, 70 % for the best hybrid
    /// at 16 384 cores).
    pub utilization: f64,
    /// Utilization of the busiest directed torus link.
    pub max_link_utilization: f64,
    /// Per-core peak flop rate of the modeled hardware (for span-derived
    /// utilization figures).
    pub core_peak_flops: f64,
    /// Per-core reference flop rate of the paper's utilization accounting
    /// (see `CostModel::ref_flops_paper`).
    pub paper_ref_flops: f64,
    /// Span totals merged across every instantiated thread.
    pub phases: SpanAgg,
    /// Per-thread span breakdowns (one entry per instantiated thread).
    pub thread_phases: Vec<ThreadPhases>,
    /// Structured interconnect statistics over the run's horizon.
    pub net: NetReport,
}

impl RunReport {
    /// Seconds of simulated time.
    pub fn seconds(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Fraction of aggregate thread time (threads × makespan) spent in a
    /// category; the remainder is idle (waiting on the network or peers).
    fn frac(&self, d: SimDuration) -> f64 {
        let total = self.makespan.as_secs_f64() * self.threads as f64;
        if total <= 0.0 {
            0.0
        } else {
            d.as_secs_f64() / total
        }
    }

    /// Fraction of thread time computing.
    pub fn compute_fraction(&self) -> f64 {
        self.frac(self.busy_compute)
    }

    /// Fraction of thread time in messaging overhead.
    pub fn comm_fraction(&self) -> f64 {
        self.frac(self.busy_comm)
    }

    /// Fraction of thread time synchronizing.
    pub fn sync_fraction(&self) -> f64 {
        self.frac(self.busy_sync)
    }

    /// Fraction of aggregate thread time (threads × makespan) attributed to
    /// one span kind. Spans account for blocked time too, so summing over
    /// all kinds plus [`Self::idle_fraction_from_spans`] yields 1.
    pub fn span_fraction(&self, kind: SpanKind) -> f64 {
        self.frac(self.phases.get(kind))
    }

    /// Fraction of thread time not inside any span: threads that finished
    /// before the makespan (load imbalance between ranks), plus start-up
    /// skew. Within one thread's `[0, finish]` the spans tile exactly.
    pub fn idle_fraction_from_spans(&self) -> f64 {
        let covered: f64 = SpanKind::ALL
            .iter()
            .map(|&k| self.span_fraction(k))
            .sum::<f64>();
        (1.0 - covered).max(0.0)
    }

    /// CPU utilization derived from the span breakdown: the flop rate
    /// achieved during `Compute` spans, as a fraction of peak, scaled by
    /// the fraction of thread time spent computing. Algebraically equal to
    /// `flops / (core_peak × threads × makespan)`, i.e. to the legacy
    /// flops-over-peak [`Self::utilization`], but decomposed so the report
    /// can show *why* utilization is low (lock, wait, barrier fractions).
    pub fn utilization_from_spans(&self) -> f64 {
        let compute = self.phases.get(SpanKind::Compute).as_secs_f64();
        if compute <= 0.0 || self.core_peak_flops <= 0.0 {
            return 0.0;
        }
        let kernel_eff = (self.flops / compute) / self.core_peak_flops;
        kernel_eff * self.span_fraction(SpanKind::Compute)
    }

    /// Span-derived utilization expressed on the paper's scale: the same
    /// quantity as [`Self::utilization_from_spans`], but measured against
    /// the reference flop rate of the paper's accounting instead of the
    /// model's theoretical peak. This is the metric that reproduces the
    /// paper's §VIII headline "utilization grows from 36 % to 70 %" as an
    /// absolute number (see `CostModel::ref_flops_paper`).
    pub fn utilization_paper_scale(&self) -> f64 {
        if self.paper_ref_flops <= 0.0 {
            return 0.0;
        }
        self.utilization_from_spans() * self.core_peak_flops / self.paper_ref_flops
    }

    /// Speedup of this run relative to a baseline run.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        baseline.seconds() / self.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(secs: f64) -> RunReport {
        RunReport {
            makespan: SimDuration::from_secs_f64(secs),
            events: 0,
            messages: 0,
            bytes_per_node: 0,
            network_bytes_per_node: 0,
            total_network_bytes: 0,
            busy: SimDuration::ZERO,
            busy_compute: SimDuration::ZERO,
            busy_comm: SimDuration::ZERO,
            busy_sync: SimDuration::ZERO,
            flops: 0.0,
            threads: 1,
            utilization: 0.0,
            max_link_utilization: 0.0,
            core_peak_flops: 0.0,
            paper_ref_flops: 0.0,
            phases: SpanAgg::new(),
            thread_phases: Vec::new(),
            net: NetReport::default(),
        }
    }

    #[test]
    fn speedup() {
        let base = report(10.0);
        let fast = report(2.5);
        assert!((fast.speedup_vs(&base) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn span_fractions_and_utilization() {
        let mut r = report(10.0);
        r.threads = 2;
        r.core_peak_flops = 100.0;
        // One thread computes 10 s at half peak, the other waits 10 s.
        r.phases
            .add(SpanKind::Compute, SimDuration::from_secs_f64(10.0));
        r.phases
            .add(SpanKind::Wait, SimDuration::from_secs_f64(10.0));
        r.flops = 500.0;
        assert!((r.span_fraction(SpanKind::Compute) - 0.5).abs() < 1e-12);
        assert!((r.span_fraction(SpanKind::Wait) - 0.5).abs() < 1e-12);
        assert!(r.idle_fraction_from_spans().abs() < 1e-12);
        // kernel efficiency 0.5 × compute fraction 0.5 = 0.25, which equals
        // flops / (peak × threads × makespan) = 500 / 2000.
        assert!((r.utilization_from_spans() - 0.25).abs() < 1e-12);
        // Against a reference rate of half peak, the same run reads 0.5.
        r.paper_ref_flops = 50.0;
        assert!((r.utilization_paper_scale() - 0.5).abs() < 1e-12);
    }
}
