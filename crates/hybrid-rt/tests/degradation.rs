//! Shrink-to-survive, end to end: permanent rank loss becomes a
//! completed run on fewer ranks.
//!
//! The acceptance bar of the degradation plane:
//!
//! * under a **permanently lethal rank** (its sends panic on every
//!   attempt — retries cannot outrun it), a degradable supervised run
//!   exhausts its retry budget, gathers the last *verified* consistent
//!   epoch, shrinks onto the largest supported smaller geometry, and
//!   completes **bit-identical** to the fault-free sequential
//!   reference — for flat, hybrid, and temporal-blocked strategies,
//!   20 seeds each;
//! * **logical traffic is exact per geometry segment**: each segment's
//!   reported counts equal the statically-predicted traffic of its
//!   committed epoch span ([`predicted_logical_span`]), with work the
//!   shrink threw away itemized as discarded, never leaked into the
//!   logical counters;
//! * the durable variant restores a spilled epoch onto a *different*
//!   geometry (gather → re-shard from disk) with the same guarantees;
//! * escalation is **bounded and policed**: a disabled policy fails
//!   exactly like the plain supervisor.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_fd::exec::{max_error_vs_reference_planned, sequential_reference};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::program::{compile_rank, predicted_logical_span, SweepProgram};
use gpaw_fd::Approach;
use gpaw_hybrid_rt::{
    execute, run_digest, DegradePolicy, DurabilityConfig, FaultPlan, NativeJob, RetryPolicy,
    RunError, RunPolicy, SupervisedRun,
};
use std::time::Duration;

/// The sweep at which the lethal rank starts dying: epochs 1 and 2
/// commit first, so the shrink must gather a real mid-run checkpoint
/// (and 2 is a temporal block boundary, so the fused schedule resumes
/// there too).
const LETHAL_FROM: usize = 2;
const SWEEPS: usize = 4;

/// The strategies the acceptance bar names: one flat, one hybrid, and
/// the temporal-blocked schedule (deep halos, fused epochs).
const STRATEGIES: [Approach; 3] = [
    Approach::FlatOptimized,
    Approach::HybridMultiple,
    Approach::TemporalBlocked,
];

fn base_job() -> NativeJob {
    // Every sub-extent stays ≥ 4, the fused temporal-blocked ghost
    // depth, on both the 2-node and the degraded 1-node geometry.
    NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(2)
        .with_sweeps(SWEEPS)
        .with_recv_timeout_ms(200)
}

/// Two attempts per geometry, then at most `degrade` shrinks.
fn policy(degrade: DegradePolicy) -> RunPolicy<'static> {
    RunPolicy {
        degrade,
        ..RunPolicy::supervised(RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
        })
    }
}

fn coef(job: &NativeJob) -> gpaw_grid::stencil::StencilCoeffs {
    gpaw_grid::stencil::StencilCoeffs::laplacian(job.spacing)
}

/// Compile every rank's programs for `approach` at `nodes` — the static
/// traffic model the per-segment exactness checks compare against.
fn programs_for(job: &NativeJob, approach: Approach, nodes: usize) -> Vec<Vec<SweepProgram>> {
    let part = Partition::standard(nodes, approach.exec_mode()).expect("standard node count");
    let map = CartMap::best(part, job.grid_ext);
    let threads = match approach {
        Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
            job.threads
        }
        _ => 1,
    };
    let cfg = job.config(approach);
    (0..map.ranks())
        .map(|r| {
            let plan = RankPlan::for_rank(&map, job.grid_ext, r, 8, &cfg);
            compile_rank(&cfg, &map, &plan, job.n_grids, threads)
        })
        .collect()
}

fn assert_bitwise(job: &NativeJob, approach: Approach, sup: &SupervisedRun<f64>) {
    let reference = sequential_reference::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef(job),
        job.bc,
        job.sweeps,
    );
    let cfg = job.config(approach);
    let err =
        max_error_vs_reference_planned(&sup.run.sets, &sup.run.map, job.grid_ext, &reference, &cfg);
    assert_eq!(
        err,
        0.0,
        "{}: degraded run diverged from the sequential reference",
        approach.label()
    );
}

/// A permanently lethal rank, 20 seeds × {flat, hybrid, temporal
/// blocked}: every run degrades 2 nodes → 1, completes bit-identical,
/// and reports exact logical traffic per geometry segment.
#[test]
fn degraded_runs_complete_bit_identical_across_twenty_seeds() {
    let base = base_job();
    for approach in STRATEGIES {
        let old_programs = programs_for(&base, approach, 2);
        let new_programs = programs_for(&base, approach, 1);
        let from_ranks = old_programs.len();
        let to_ranks = new_programs.len();
        for seed in 0..20 {
            let job =
                base.with_fault(FaultPlan::benign(seed).with_lethal_rank_from(1, LETHAL_FROM));
            let sup = execute::<f64>(&job, approach, &policy(DegradePolicy::default()))
                .unwrap_or_else(|e| {
                    panic!("{} seed {seed}: degradation failed: {e}", approach.label())
                });
            assert_bitwise(&job, approach, &sup);

            let deg = sup.recovery.degradation.as_ref().unwrap_or_else(|| {
                panic!("{} seed {seed}: no degradation report", approach.label())
            });
            assert_eq!((deg.from_ranks(), deg.to_ranks()), (from_ranks, to_ranks));
            assert_eq!(deg.degrades(), 1);
            assert_eq!(deg.segments.len(), 2);
            assert!(
                deg.triggers.iter().any(|t| t.rank == 1),
                "{} seed {seed}: the lethal rank must be among the triggers",
                approach.label()
            );

            // Segment 1: the doomed geometry committed exactly epochs
            // 0..LETHAL_FROM, reported at the statically-exact traffic
            // of that span.
            let old = &deg.segments[0];
            assert_eq!((old.start_epoch, old.end_epoch), (0, LETHAL_FROM));
            let (m, b) = predicted_logical_span(&old_programs, 0, LETHAL_FROM);
            assert_eq!(
                (old.logical_messages, old.logical_bytes),
                (m, b),
                "{} seed {seed}: old segment traffic is not exact",
                approach.label()
            );

            // Segment 2: the surviving geometry's measured counters
            // cover exactly the remaining span.
            let new = &deg.segments[1];
            assert_eq!((new.start_epoch, new.end_epoch), (LETHAL_FROM, SWEEPS));
            assert_eq!((new.ranks, new.nodes), (to_ranks, 1));
            let (m, b) = predicted_logical_span(&new_programs, LETHAL_FROM, SWEEPS);
            assert_eq!(
                (new.logical_messages, new.logical_bytes),
                (m, b),
                "{} seed {seed}: degraded segment traffic is not exact",
                approach.label()
            );
            assert_eq!((new.messages_discarded, new.bytes_discarded), (0, 0));

            // Satellite: the escalation ledger names the lethal rank's
            // charged retries and every survivor's degradation.
            assert!(
                sup.recovery
                    .rank_escalations()
                    .iter()
                    .any(|e| e.rank == 1 && e.retries > 0),
                "{} seed {seed}: the lethal rank's retries must be charged",
                approach.label()
            );
            let survived: Vec<usize> = sup
                .recovery
                .rank_escalations()
                .iter()
                .filter(|e| e.degrades_survived >= 1)
                .map(|e| e.rank)
                .collect();
            assert_eq!(
                survived,
                (0..to_ranks).collect::<Vec<_>>(),
                "{} seed {seed}: every surviving rank carries the scar",
                approach.label()
            );
        }
    }
}

/// The degraded run's grids match the same job run clean — byte for
/// byte, via the interior bit patterns of the gathered result — and the
/// total committed traffic across segments is consistent with a clean
/// run on each geometry's own span.
#[test]
fn degradation_resumes_from_a_mid_run_epoch_not_the_fill() {
    let base = base_job();
    let job = base.with_fault(FaultPlan::quiet(3).with_lethal_rank_from(1, LETHAL_FROM));
    let approach = Approach::TemporalBlocked;
    let sup = execute::<f64>(&job, approach, &policy(DegradePolicy::default()))
        .expect("degradation must complete");
    let deg = sup.recovery.degradation.as_ref().expect("degraded");
    // The resume point is the verified epoch 2 — a real mid-run
    // checkpoint (temporal block boundary), not the synthetic fill.
    assert_eq!(deg.segments[1].start_epoch, LETHAL_FROM);
    assert!(deg.triggers.iter().all(|t| t.resumed_from == LETHAL_FROM));
    assert_bitwise(&job, approach, &sup);
}

/// A rollback on the surviving geometry that lands below the epoch it
/// took over at: the poisoned epoch-3 snapshot leaves only the synthetic
/// fill, so the survivor replays sweeps the doomed geometry already
/// committed. Those resends are retransmissions, and the surviving
/// segment still reports exactly the traffic of its own span.
#[test]
fn a_rollback_below_the_segment_start_counts_no_message_twice() {
    let base = base_job();
    let approach = Approach::FlatOptimized;
    let job = base.with_fault(
        FaultPlan::quiet(3)
            .with_lethal_rank_from(1, LETHAL_FROM)
            .with_panic_on_send(0, 8)
            .with_corrupt_snapshot(0, 0, 3),
    );
    let sup = execute::<f64>(&job, approach, &policy(DegradePolicy::default()))
        .expect("degradation must complete");
    assert_bitwise(&job, approach, &sup);
    let deg = sup.recovery.degradation.as_ref().expect("degraded");
    let new = deg.segments.last().expect("a surviving segment");
    assert_eq!((new.start_epoch, new.end_epoch), (LETHAL_FROM, SWEEPS));
    // Failures after the shrink's attempt belong to the survivor.
    let shrunk_after = deg.triggers.iter().map(|t| t.attempt).max();
    assert!(
        (sup.recovery.failures.iter())
            .any(|f| Some(f.attempt) > shrunk_after && f.resumed_from < LETHAL_FROM),
        "the survivor must roll back below the epoch it took over at: {:?}",
        sup.recovery.failures
    );
    let (m, b) = predicted_logical_span(&programs_for(&base, approach, 1), LETHAL_FROM, SWEEPS);
    assert_eq!((new.logical_messages, new.logical_bytes), (m, b));
    assert_eq!((new.messages_discarded, new.bytes_discarded), (0, 0));
    assert!(sup.recovery.messages_retransmitted > 0);
}

/// A disabled policy keeps the old contract: exhausted retries surface
/// the final attempt's `RunError`.
#[test]
fn disabled_escalation_fails_like_the_plain_supervisor() {
    let job = base_job().with_fault(FaultPlan::quiet(7).with_lethal_rank(1));
    let approach = Approach::HybridMultiple;
    let err = execute::<f64>(&job, approach, &policy(DegradePolicy::disabled()))
        .err()
        .expect("no escalation budget");
    // The error says how hard the supervisor tried: both attempts.
    assert!(matches!(err, RunError::Failed { attempts: 2, .. }), "{err}");
    assert!(err.to_string().contains("on attempt 2"), "{err}");
}

/// A quiet fabric under a degradable supervisor is exactly a plain
/// supervised run: one geometry, no degradation report.
#[test]
fn clean_degradable_runs_report_no_degradation() {
    let job = base_job();
    let approach = Approach::TemporalBlocked;
    let sup = execute::<f64>(&job, approach, &policy(DegradePolicy::default())).expect("clean run");
    assert!(sup.recovery.degradation.is_none());
    assert!(sup.recovery.rank_escalations().is_empty());
    assert_eq!(sup.recovery.attempts, 1);
    assert_bitwise(&job, approach, &sup);
}

/// The durable variant: an epoch spilled by a 2-node run restores onto
/// a 1-node geometry — gather → re-shard straight from disk — and the
/// resumed run completes bit-identical with both geometry segments
/// reported exactly.
#[test]
fn durable_restore_onto_fewer_ranks_is_bitwise_with_exact_segments() {
    for approach in STRATEGIES {
        let dir = std::env::temp_dir().join(format!(
            "gpaw-degradation-{}-{}",
            std::process::id(),
            approach.label().replace(' ', "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 1: a 2-node run of the *first half* of the job spills
        // its final epoch — the on-disk state of a process that died
        // after committing epoch 2.
        let half = base_job().with_sweeps(LETHAL_FROM);
        execute::<f64>(
            &half,
            approach,
            &RunPolicy {
                durable: Some(DurabilityConfig::new(&dir)),
                ..policy(DegradePolicy::disabled())
            },
        )
        .unwrap_or_else(|e| panic!("{}: phase 1 failed: {e}", approach.label()));

        // Phase 2: restore the full job on 1 node from that checkpoint.
        let full = NativeJob {
            nodes: 1,
            ..base_job()
        };
        let dr = execute::<f64>(
            &full,
            approach,
            &RunPolicy {
                durable: Some(DurabilityConfig::new(&dir).with_restore(true)),
                ..policy(DegradePolicy::disabled())
            },
        )
        .unwrap_or_else(|e| panic!("{}: cross-geometry restore failed: {e}", approach.label()));
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(dr.durable.resumed_from, LETHAL_FROM);
        assert_bitwise(&full, approach, &dr);

        let old_programs = programs_for(&half, approach, 2);
        let new_programs = programs_for(&full, approach, 1);
        let deg = dr
            .recovery
            .degradation
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no degradation report", approach.label()));
        assert_eq!(deg.from_ranks(), old_programs.len());
        assert_eq!(deg.to_ranks(), new_programs.len());
        assert_eq!(deg.segments.len(), 2);
        let (m, b) = predicted_logical_span(&old_programs, 0, LETHAL_FROM);
        assert_eq!(
            (
                deg.segments[0].logical_messages,
                deg.segments[0].logical_bytes
            ),
            (m, b),
            "{}: spilled segment traffic is not exact",
            approach.label()
        );
        let (m, b) = predicted_logical_span(&new_programs, LETHAL_FROM, SWEEPS);
        assert_eq!(
            (
                deg.segments[1].logical_messages,
                deg.segments[1].logical_bytes
            ),
            (m, b),
            "{}: restored segment traffic is not exact",
            approach.label()
        );
        // Survivors carry the scar here too.
        assert!(
            dr.recovery
                .rank_escalations()
                .iter()
                .all(|e| e.degrades_survived >= 1),
            "{}: restored ranks must record the survived degradation",
            approach.label()
        );
    }
}

/// Durability and degradation compose: a durable job on a permanently
/// lethal rank shrinks, completes bit-identical with exact per-segment
/// traffic, and leaves a spill that restoring the same job resumes at its
/// final epoch — re-sharded back onto the original geometry — with the
/// digest of an uninterrupted run.
#[test]
fn durable_runs_shrink_and_their_spill_restores() {
    for approach in STRATEGIES {
        let dir = std::env::temp_dir().join(format!(
            "gpaw-durable-degradation-{}-{}",
            std::process::id(),
            approach.slug()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = |restore| RunPolicy {
            durable: Some(DurabilityConfig::new(&dir).with_restore(restore)),
            ..policy(DegradePolicy::default())
        };
        let job = base_job().with_fault(FaultPlan::quiet(5).with_lethal_rank_from(1, LETHAL_FROM));
        let name = approach.label();

        let sup = execute::<f64>(&job, approach, &durable(false))
            .unwrap_or_else(|e| panic!("{name}: durable degradation failed: {e}"));
        assert_bitwise(&job, approach, &sup);
        assert!(sup.durable.epochs_spilled >= 1, "{name}: nothing spilled");
        let deg = sup.recovery.degradation.as_ref().expect("the run shrank");
        let old_programs = programs_for(&job, approach, 2);
        let new_programs = programs_for(&job, approach, 1);
        assert_eq!(
            (deg.from_ranks(), deg.to_ranks()),
            (old_programs.len(), new_programs.len())
        );
        let spans = [
            (&old_programs, (0, LETHAL_FROM)),
            (&new_programs, (LETHAL_FROM, SWEEPS)),
        ];
        assert_eq!(deg.segments.len(), spans.len());
        for (seg, (programs, (from, to))) in deg.segments.iter().zip(spans) {
            assert_eq!((seg.start_epoch, seg.end_epoch), (from, to), "{name}");
            assert_eq!(
                (seg.logical_messages, seg.logical_bytes),
                predicted_logical_span(programs, from, to),
                "{name}: segment {from}..{to} traffic is not exact"
            );
        }

        let restored = execute::<f64>(&job, approach, &durable(true))
            .unwrap_or_else(|e| panic!("{name}: restoring the shrunken spill failed: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(restored.durable.resumed_from, SWEEPS, "{name}");
        let clean = execute::<f64>(&base_job(), approach, &RunPolicy::bare())
            .expect("clean run")
            .run;
        assert_eq!(
            run_digest(&restored.run.sets),
            run_digest(&clean.sets),
            "{name}: the restored run's digest diverged"
        );
    }
}
