//! Cross-plane validation of the shared sweep-schedule IR.
//!
//! The three execution planes are interpreters of one compiled
//! [`SweepProgram`]; these tests pin that claim down both ways:
//!
//! * **parity matrix** — every approach × thread count runs bitwise
//!   identical on the native plane to the sequential reference *and* to
//!   the functional plane rank by rank (same programs, same packing,
//!   same tags ⇒ same bits);
//! * **traffic property** — the message/byte counts *predicted
//!   statically from the compiled programs* equal the counts the native
//!   fabric *observed*, for every (approach, batch, threads) schedule.
//!   The prediction never ran anything; agreement means the interpreter
//!   executed exactly the schedule the compiler wrote.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::config::Approach;
use gpaw_fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::program::compile_rank;
use gpaw_grid::scalar::Scalar;
use gpaw_grid::stencil::StencilCoeffs;
use gpaw_hybrid_rt::{execute, strategy_for, NativeJob, RunPolicy};

const APPROACHES: [Approach; 6] = Approach::ALL;

/// Threads per rank the native run will actually use for `approach`
/// (flat approaches are pinned to one by virtual node mode).
fn effective_threads(approach: Approach, job_threads: usize) -> usize {
    match approach {
        Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
            job_threads
        }
        _ => 1,
    }
}

#[test]
fn every_approach_is_bitwise_on_every_plane_at_every_thread_count() {
    for &approach in &APPROACHES {
        for threads in [1, 2, 4] {
            let job = NativeJob::new([12, 10, 8], 6, 2)
                .with_threads(threads)
                .with_sweeps(2);
            let cfg = job.config(approach);
            let coef = StencilCoeffs::laplacian(job.spacing);
            let native = execute::<f64>(&job, strategy_for(approach).as_ref(), &RunPolicy::bare())
                .expect("valid job")
                .run;

            // Native vs the sequential reference.
            let reference = sequential_reference::<f64>(
                job.grid_ext,
                job.n_grids,
                job.seed,
                &coef,
                job.bc,
                job.sweeps,
            );
            let err = max_error_vs_reference_planned(
                &native.sets,
                &native.map,
                job.grid_ext,
                &reference,
                &cfg,
            );
            assert_eq!(
                err, 0.0,
                "{approach:?} at {threads} threads diverged from the reference"
            );

            // Native vs the functional plane, rank by rank: both planes
            // interpret the same compiled programs, so the per-rank grid
            // sets must be bitwise equal, not just reference-equal.
            let functional = run_distributed::<f64>(
                job.grid_ext,
                job.n_grids,
                job.seed,
                &coef,
                &cfg,
                &native.map,
            );
            assert_eq!(native.sets.len(), functional.len());
            for (rank, (a, b)) in native.sets.iter().zip(&functional).enumerate() {
                assert_eq!(a.len(), b.len(), "{approach:?} rank {rank} grid count");
                for g in 0..a.len() {
                    assert_eq!(
                        gpaw_grid::norms::max_abs_diff(a.grid(g), b.grid(g)),
                        0.0,
                        "{approach:?} at {threads} threads: rank {rank} grid {g} differs between planes"
                    );
                }
            }
        }
    }
}

#[test]
fn flat_static_runs_natively_with_zero_plane_specific_code() {
    // The §VII diagnostic exists only as a compiler case; the native
    // interpreter had never heard of it. Static quarters on 8 virtual
    // ranks, grids indivisible by the 4 cores.
    let job = NativeJob::new([13, 11, 9], 9, 2).with_sweeps(3);
    let cfg = job.config(Approach::FlatStatic);
    let coef = StencilCoeffs::laplacian(job.spacing);
    let native = execute::<f64>(
        &job,
        strategy_for(Approach::FlatStatic).as_ref(),
        &RunPolicy::bare(),
    )
    .expect("valid job")
    .run;
    // 8 virtual ranks; each holds only its static quarter of the grids,
    // so the 4 cores of each node partition the 9 grids exactly once.
    assert_eq!(native.sets.len(), 8);
    let held: usize = native.sets.iter().map(|s| s.len()).sum();
    assert_eq!(held, 2 * job.n_grids);
    let reference = sequential_reference::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef,
        job.bc,
        job.sweeps,
    );
    let err =
        max_error_vs_reference_planned(&native.sets, &native.map, job.grid_ext, &reference, &cfg);
    assert_eq!(err, 0.0);
}

/// Statically predict the run's traffic from the compiled programs: total
/// messages, and sent payload bytes per node (the fabric charges bytes to
/// the sending node).
fn predict(job: &NativeJob, approach: Approach, map: &gpaw_bgp_hw::CartMap) -> (u64, Vec<u64>) {
    let cfg = job.config(approach);
    let threads = effective_threads(approach, job.threads);
    let mut messages = 0u64;
    let mut bytes_per_node = vec![0u64; job.nodes];
    let shape = map.partition.node_shape;
    for rank in 0..map.ranks() {
        let plan = RankPlan::for_rank(map, job.grid_ext, rank, <f64 as Scalar>::BYTES, &cfg);
        for prog in compile_rank(&cfg, map, &plan, job.n_grids, threads) {
            messages += prog.predicted_messages();
            bytes_per_node[shape.index(map.node_of(rank))] += prog.predicted_bytes();
        }
    }
    (messages, bytes_per_node)
}

#[test]
fn predicted_program_traffic_equals_observed_fabric_traffic() {
    // The satellite property: for every schedule the compiler can emit,
    // the traffic the SweepProgram predicts on paper is the traffic the
    // fabric counted in the metal. One assert per (approach, batch,
    // threads) point.
    for &approach in &APPROACHES {
        let thread_counts: &[usize] = match approach {
            Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
                &[1, 2, 4]
            }
            _ => &[1],
        };
        for &batch in &[1usize, 2, 4] {
            for &threads in thread_counts {
                let mut job = NativeJob::new([12, 10, 8], 6, 2)
                    .with_threads(threads)
                    .with_sweeps(2);
                job.batch = batch;
                let run = execute::<f64>(&job, strategy_for(approach).as_ref(), &RunPolicy::bare())
                    .expect("valid job")
                    .run;
                let (messages, bytes_per_node) = predict(&job, approach, &run.map);
                let point = format!("{approach:?} batch {batch} threads {threads}");
                assert_eq!(
                    messages, run.report.messages,
                    "{point}: predicted vs observed message count"
                );
                assert_eq!(
                    bytes_per_node.iter().copied().max().unwrap_or(0),
                    run.report.bytes_per_node,
                    "{point}: predicted vs observed busiest-node bytes"
                );
                assert!(run.report.messages > 0, "{point}: schedule moved no data");
            }
        }
    }
}
