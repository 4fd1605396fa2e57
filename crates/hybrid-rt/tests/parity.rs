//! Bitwise validation of the native plane.
//!
//! Every strategy must reproduce the single-threaded functional plane
//! exactly — not approximately: the native schedules move the same bytes
//! and run the same kernel, so any difference at all is a schedule bug.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_des::SimDuration;
use gpaw_fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_fd::trace::SpanKind;
use gpaw_fd::Approach;
use gpaw_grid::scalar::C64;
use gpaw_grid::stencil::BoundaryCond;
use gpaw_hybrid_rt::{execute, NativeJob, RunPolicy};

fn coef(job: &NativeJob) -> gpaw_grid::stencil::StencilCoeffs {
    gpaw_grid::stencil::StencilCoeffs::laplacian(job.spacing)
}

/// Run `approach` natively and assert the grids match the sequential
/// reference bit for bit.
fn check_bitwise<T: gpaw_fd::exec::SyntheticFill>(job: &NativeJob, approach: Approach) {
    let run = execute::<T>(job, approach, &RunPolicy::bare())
        .expect("valid job")
        .run;
    let reference = sequential_reference::<T>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef(job),
        job.bc,
        job.sweeps,
    );
    let cfg = job.config(approach);
    let err = max_error_vs_reference_planned(&run.sets, &run.map, job.grid_ext, &reference, &cfg);
    assert_eq!(
        err,
        0.0,
        "{} diverged from the functional plane",
        approach.label()
    );
}

#[test]
fn all_strategies_match_the_reference_at_4_threads() {
    let job = NativeJob::new([12, 12, 12], 7, 2).with_sweeps(2);
    for a in Approach::ALL {
        check_bitwise::<f64>(&job, a);
    }
}

#[test]
fn all_strategies_match_the_reference_at_2_threads() {
    let job = NativeJob::new([13, 11, 9], 6, 2)
        .with_threads(2)
        .with_sweeps(2);
    for a in Approach::ALL {
        check_bitwise::<f64>(&job, a);
    }
}

#[test]
fn complex_grids_match_the_reference() {
    let job = NativeJob::new([10, 10, 10], 5, 2);
    for a in Approach::ALL {
        check_bitwise::<C64>(&job, a);
    }
}

#[test]
fn zero_boundaries_match_the_reference() {
    let mut job = NativeJob::new([12, 10, 8], 4, 2);
    job.bc = BoundaryCond::Zero;
    for a in Approach::ALL {
        check_bitwise::<f64>(&job, a);
    }
}

#[test]
fn uneven_decomposition_and_single_node_self_exchange() {
    // 13³ on one SMP node: every neighbor is the rank itself, extents
    // indivisible — remainder paths everywhere.
    let job = NativeJob::new([13, 13, 13], 5, 1).with_sweeps(2);
    for a in Approach::ALL {
        check_bitwise::<f64>(&job, a);
    }
}

#[test]
fn native_hybrid_multiple_matches_the_functional_plane_rank_by_rank() {
    // Same approach, same geometry ⇒ the per-rank grid sets must be
    // bitwise equal to run_distributed's, not just to the reference.
    let job = NativeJob::new([12, 12, 12], 9, 2).with_sweeps(2);
    let native = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("valid job")
        .run;
    let cfg = job.config(Approach::HybridMultiple);
    let functional = run_distributed::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef(&job),
        &cfg,
        &native.map,
    );
    assert_eq!(native.sets.len(), functional.len());
    for (rank, (a, b)) in native.sets.iter().zip(&functional).enumerate() {
        for g in 0..a.len() {
            assert_eq!(
                gpaw_grid::norms::max_abs_diff(a.grid(g), b.grid(g)),
                0.0,
                "rank {rank} grid {g} differs between planes"
            );
        }
    }
}

#[test]
fn span_ledgers_satisfy_the_conservation_invariant() {
    let job = NativeJob::new([12, 12, 12], 8, 2).with_sweeps(2);
    for a in Approach::ALL {
        let run = execute::<f64>(&job, a, &RunPolicy::bare())
            .expect("valid job")
            .run;
        let r = &run.report;
        assert!(r.makespan > SimDuration::ZERO);
        assert!(r.threads > 0);
        // Per-thread: spans tile within [0, finish], finish within the run.
        for t in &r.thread_phases {
            assert!(
                t.spans.total() <= t.finish,
                "{}: rank {} slot {} overfull ledger",
                a.label(),
                t.rank,
                t.slot
            );
            assert!(t.finish <= r.makespan);
        }
        // Aggregate: per-kind fractions plus idle sum to exactly 1.
        let covered: f64 = SpanKind::ALL.iter().map(|&k| r.span_fraction(k)).sum();
        assert!(covered <= 1.0 + 1e-9, "{}: covered {covered}", a.label());
        assert!((covered + r.idle_fraction_from_spans() - 1.0).abs() < 1e-9);
        // The raw timelines aggregate to the same totals.
        let mut agg = gpaw_des::SpanAgg::new();
        for t in &run.timelines {
            for span in &t.spans {
                agg.record(span);
            }
        }
        assert_eq!(agg, r.phases, "{}: timeline/aggregate mismatch", a.label());
    }
}

#[test]
fn native_reports_count_real_traffic() {
    let job = NativeJob::new([12, 12, 12], 6, 2);
    for a in Approach::ALL {
        let run = execute::<f64>(&job, a, &RunPolicy::bare())
            .expect("valid job")
            .run;
        let r = &run.report;
        assert!(r.messages > 0, "{}: no messages recorded", a.label());
        assert!(r.bytes_per_node > 0);
        // Two SMP nodes (or eight virtual ranks on two nodes): the halo
        // exchange must cross nodes.
        assert!(r.total_network_bytes > 0);
        assert!(r.network_bytes_per_node <= r.bytes_per_node);
        assert_eq!(r.net.nodes, 2);
        assert!(r.flops > 0.0);
        // Native runs measure the host, not the modeled BGP.
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.max_link_utilization, 0.0);
    }
}

#[test]
fn message_counts_are_deterministic() {
    let job = NativeJob::new([12, 10, 8], 6, 2).with_sweeps(2);
    for approach in Approach::ALL {
        let [a, b] = [0, 1].map(|_| {
            execute::<f64>(&job, approach, &RunPolicy::bare())
                .expect("valid job")
                .run
        });
        let label = approach.label();
        assert_eq!(a.report.messages, b.report.messages, "{label}");
        assert_eq!(
            a.report.total_network_bytes, b.report.total_network_bytes,
            "{label}"
        );
        assert_eq!(a.report.bytes_per_node, b.report.bytes_per_node);
    }
}

#[test]
fn hybrid_ledgers_record_barrier_time() {
    let job = NativeJob::new([12, 12, 12], 8, 2).with_sweeps(3);
    for a in [Approach::HybridMultiple, Approach::HybridMasterOnly] {
        let run = execute::<f64>(&job, a, &RunPolicy::bare())
            .expect("valid job")
            .run;
        assert!(
            run.report.phases.count(SpanKind::ThreadBarrier) > 0,
            "{}: no barrier spans",
            a.label()
        );
        // 2 ranks × 4 threads, one phase set each, and every span kind
        // of the interpreter's ledger present.
        assert_eq!(run.report.thread_phases.len(), 8);
        assert_eq!(run.timelines.len(), 8);
        for kind in [
            SpanKind::Compute,
            SpanKind::HaloPack,
            SpanKind::HaloUnpack,
            SpanKind::Post,
            SpanKind::Wait,
        ] {
            assert!(
                run.report.phases.get(kind) > SimDuration::ZERO,
                "{}: {kind:?} missing from the ledger",
                a.label()
            );
        }
    }
}
