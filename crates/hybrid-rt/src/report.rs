//! Mapping a native run onto the timed plane's report shape.
//!
//! Native runs reuse [`gpaw_simmpi::RunReport`] verbatim so the existing
//! JSON emission (`gpaw_fd::report::PointReport`), schema checks, and perf
//! gate all apply unchanged. The mapping:
//!
//! * `makespan` — wall-clock from the shared epoch to the last join;
//! * span fields (`phases`, `thread_phases`, `busy_*`) — the merged
//!   [`WallTracer`](gpaw_fd::trace::WallTracer) ledgers, which tile each
//!   thread's `[0, finish]` exactly, so the report's conservation
//!   invariant (per-kind fractions plus idle sum to 1) holds by
//!   construction;
//! * traffic fields — the fabric's injection counters, with the
//!   intra/inter-node split standing in for shared-memory vs torus
//!   traffic;
//! * hardware-model fields (`utilization`, `core_peak_flops`,
//!   `paper_ref_flops`, link figures) — zero: the native plane measures
//!   the host, not the modeled Blue Gene/P, and the report accessors
//!   already return 0 for them when peak is unset.

use gpaw_des::{SimDuration, SpanAgg, SpanKind};
use gpaw_fd::fabric::FabricStats;
use gpaw_netsim::NetReport;
use gpaw_simmpi::{RunReport, ThreadPhases};

/// Assemble the [`RunReport`] of one native run.
pub fn native_run_report(
    makespan: SimDuration,
    thread_phases: Vec<ThreadPhases>,
    stats: &FabricStats,
    flops: f64,
) -> RunReport {
    let mut phases = SpanAgg::new();
    for t in &thread_phases {
        phases.merge(&t.spans);
    }
    let sum = |kinds: &[SpanKind]| -> SimDuration {
        let mut acc = SimDuration::ZERO;
        for &k in kinds {
            acc += phases.get(k);
        }
        acc
    };
    let busy_compute = sum(&[SpanKind::Compute, SpanKind::HaloPack, SpanKind::HaloUnpack]);
    let busy_comm = sum(&[SpanKind::Post, SpanKind::Wait, SpanKind::LibLock]);
    let busy_sync = sum(&[SpanKind::ThreadBarrier, SpanKind::Collective]);
    let events: u64 = SpanKind::ALL.iter().map(|&k| phases.count(k)).sum();
    RunReport {
        makespan,
        events,
        messages: stats.messages_total,
        bytes_per_node: stats.bytes_per_node_max(),
        network_bytes_per_node: stats.network_bytes_per_node_max(),
        total_network_bytes: stats.network_bytes_total(),
        busy: busy_compute + busy_comm + busy_sync,
        busy_compute,
        busy_comm,
        busy_sync,
        flops,
        threads: thread_phases.len(),
        utilization: 0.0,
        max_link_utilization: 0.0,
        core_peak_flops: 0.0,
        paper_ref_flops: 0.0,
        phases,
        thread_phases,
        net: NetReport {
            nodes: stats.nodes,
            bytes_per_node_max: stats.network_bytes_per_node_max(),
            bytes_total: stats.network_bytes_total(),
            messages_per_node_max: stats.network_messages_per_node_max(),
            messages_total: stats.network_messages_total,
            link_busy_max: SimDuration::ZERO,
            link_busy_total: SimDuration::ZERO,
            max_link_utilization: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(rank: usize, slot: usize, compute_ns: u64, wait_ns: u64) -> ThreadPhases {
        let mut spans = SpanAgg::new();
        spans.add(SpanKind::Compute, SimDuration::from_ns(compute_ns));
        spans.add(SpanKind::Wait, SimDuration::from_ns(wait_ns));
        ThreadPhases {
            rank,
            slot,
            finish: SimDuration::from_ns(compute_ns + wait_ns),
            spans,
        }
    }

    fn stats() -> FabricStats {
        FabricStats {
            nodes: 2,
            messages_total: 10,
            network_messages_total: 6,
            bytes_per_node: vec![800, 400],
            network_bytes_per_node: vec![500, 100],
            network_messages_per_node: vec![4, 2],
            retransmitted_messages: 0,
            retransmitted_bytes: 0,
            messages_verified: 10,
            corruptions_detected: 0,
        }
    }

    #[test]
    fn report_merges_ledgers_and_traffic() {
        let r = native_run_report(
            SimDuration::from_ns(1_000),
            vec![phases(0, 0, 600, 200), phases(1, 0, 500, 400)],
            &stats(),
            123.0,
        );
        assert_eq!(r.threads, 2);
        assert_eq!(r.events, 4);
        assert_eq!(r.messages, 10);
        assert_eq!(r.bytes_per_node, 800);
        assert_eq!(r.network_bytes_per_node, 500);
        assert_eq!(r.total_network_bytes, 600);
        assert_eq!(r.busy_compute, SimDuration::from_ns(1_100));
        assert_eq!(r.busy_comm, SimDuration::from_ns(600));
        assert_eq!(r.busy_sync, SimDuration::ZERO);
        assert_eq!(r.busy, SimDuration::from_ns(1_700));
        assert_eq!(r.net.nodes, 2);
        assert_eq!(r.net.messages_total, 6);
        assert_eq!(r.net.messages_per_node_max, 4);
    }

    #[test]
    fn conservation_invariant_holds() {
        // Thread lifetimes never exceed the makespan, so the per-kind
        // fractions plus idle cover exactly 1.
        let r = native_run_report(
            SimDuration::from_ns(1_000),
            vec![phases(0, 0, 600, 200), phases(0, 1, 500, 400)],
            &stats(),
            0.0,
        );
        let covered: f64 = SpanKind::ALL.iter().map(|&k| r.span_fraction(k)).sum();
        let idle = r.idle_fraction_from_spans();
        assert!(covered <= 1.0 + 1e-12);
        assert!((covered + idle - 1.0).abs() < 1e-12);
        // Hardware-model figures are absent, not fabricated.
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.utilization_from_spans(), 0.0);
        assert_eq!(r.utilization_paper_scale(), 0.0);
    }
}
