//! The integrity plane, end to end: silent data corruption is detected,
//! contained, and recovered — never absorbed into a result.
//!
//! The acceptance bar:
//!
//! * a **seeded payload corruption** (a deterministic bit flip on one
//!   in-flight message) supervises to a completed run **bitwise
//!   identical** to a fault-free run with **exact logical traffic**, for
//!   every strategy, 20 seeds, and both thread counts — detections are
//!   counted separately, like retransmissions;
//! * a **poisoned checkpoint snapshot** is convicted by its digest at
//!   rollback time and the supervisor degrades past it (down to the
//!   synthetic fill when nothing verifiable remains), still completing
//!   bit-identical;
//! * an **unsupervised** corrupt run fails with the typed
//!   [`RunError::Integrity`] naming the rejected message's exact
//!   `(src, tag, seq)` — never a generic stall;
//! * with verification always on and **no injection**, runs report zero
//!   detections and zero digest failures.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::config::Approach;
use gpaw_fd::plan::RankPlan;
use gpaw_hybrid_rt::{
    execute, run_digest, FailureClass, FailureKind, FaultPlan, NativeJob, NativeRun, RetryPolicy,
    RunError, RunPolicy, SupervisedRun,
};
use std::time::Duration;

fn base_job(threads: usize) -> NativeJob {
    // Every sub-extent stays ≥ 4, the fused temporal-blocked ghost depth.
    NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(threads)
        .with_sweeps(2)
        .with_recv_timeout_ms(300)
}

fn policy() -> RunPolicy<'static> {
    RunPolicy::supervised(RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
    })
}

/// Rank 0's first neighbor under this approach's geometry — flat
/// strategies run virtual ranks, where rank 1 need not be adjacent to
/// rank 0, so injectors must target a real plan edge.
fn neighbor_of_rank0(job: &NativeJob, approach: Approach, clean: &NativeRun<f64>) -> usize {
    let cfg = job.config(approach);
    let plan = RankPlan::for_rank(&clean.map, job.grid_ext, 0, 8, &cfg);
    plan.neighbors
        .iter()
        .flatten()
        .copied()
        .next()
        .expect("rank 0 always has a neighbor on a 2-node partition")
}

/// Assert `sup` is indistinguishable from the uninterrupted `clean` run:
/// same bits, same logical traffic — corruption never leaks into either.
fn assert_bitwise_with_exact_traffic(
    what: &str,
    approach: Approach,
    clean: &NativeRun<f64>,
    sup: &SupervisedRun<f64>,
) {
    assert_eq!(
        run_digest(&sup.run.sets),
        run_digest(&clean.sets),
        "{} ({what}): recovered bits diverged from the fault-free run",
        approach.label()
    );
    assert_eq!(
        sup.run.report.messages,
        clean.report.messages,
        "{} ({what}): logical message count drifted",
        approach.label()
    );
    assert_eq!(
        sup.run.report.total_network_bytes,
        clean.report.total_network_bytes,
        "{} ({what}): logical network bytes drifted",
        approach.label()
    );
}

/// Seeded payload corruption, 20 seeds x 5 strategies x {2, 4} threads:
/// every supervised run completes bitwise with exact logical traffic, the
/// detection is classified as `Corrupted`, and the rejected payload is
/// counted separately from logical traffic.
#[test]
fn corrupted_payloads_supervise_to_bitwise_parity_across_twenty_seeds() {
    for approach in Approach::ALL {
        for threads in [2, 4] {
            let base = base_job(threads);
            let clean = execute::<f64>(&base, approach, &RunPolicy::bare())
                .expect("clean run")
                .run;
            let dst = neighbor_of_rank0(&base, approach, &clean);
            for seed in 0..20 {
                let job = base.with_fault(FaultPlan::benign(seed).with_corrupt_payload(
                    0,
                    dst,
                    1 + seed % 2,
                ));
                let sup = execute::<f64>(&job, approach, &policy()).unwrap_or_else(|e| {
                    panic!(
                        "{} threads {threads} seed {seed}: recovery failed: {e}",
                        approach.label()
                    )
                });
                assert_bitwise_with_exact_traffic("payload corruption", approach, &clean, &sup);
                assert!(
                    sup.recovery.attempts >= 2,
                    "{} seed {seed}: the flipped bit must have been detected",
                    approach.label()
                );
                assert!(
                    sup.recovery.corruptions_detected >= 1,
                    "{} seed {seed}: the detection must be counted — separately from \
                     the logical counts the parity assertions just proved exact",
                    approach.label()
                );
                assert!(
                    sup.recovery
                        .failures
                        .iter()
                        .any(|f| f.rank == dst && f.class == FailureClass::Corrupted),
                    "{} seed {seed}: rank {dst}'s rejected payload must classify as Corrupted",
                    approach.label()
                );
                assert!(
                    sup.recovery.messages_retransmitted > 0,
                    "{} seed {seed}: replay redelivers the intact copy as a retransmission",
                    approach.label()
                );
            }
        }
    }
}

/// An unsupervised corrupt run fails with the *typed* integrity error —
/// naming the rejected message's identity — not a generic stall.
#[test]
fn unsupervised_corruption_is_a_typed_integrity_error() {
    let base = base_job(2);
    for approach in Approach::ALL {
        let clean = execute::<f64>(&base, approach, &RunPolicy::bare())
            .expect("clean run")
            .run;
        let dst = neighbor_of_rank0(&base, approach, &clean);
        let job = base.with_fault(FaultPlan::quiet(11).with_corrupt_payload(0, dst, 1));
        let err = execute::<f64>(&job, approach, &RunPolicy::bare())
            .err()
            .unwrap_or_else(|| {
                panic!(
                    "{}: a corrupted payload must fail the run",
                    approach.label()
                )
            });
        assert!(
            matches!(err, RunError::Integrity { .. }),
            "{}: expected RunError::Integrity, got: {err}",
            approach.label()
        );
        let first = err.first_failure().expect("integrity errors list failures");
        assert_eq!(first.rank, dst, "{}", approach.label());
        assert_eq!(first.phase, "halo-verify", "{}", approach.label());
        let FailureKind::Corrupt(c) = &first.kind else {
            panic!("{}: worst failure must be the corruption", approach.label());
        };
        assert_eq!(c.src, 0, "{}", approach.label());
        let text = err.to_string();
        assert!(text.contains("silent data corruption detected"), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
    }
}

/// A poisoned checkpoint snapshot is convicted at rollback: the panic
/// ordinal is scanned upward until a failure lands past epoch 1's
/// deposits, the poisoned `(rank 0, slot 0, epoch 1)` snapshot fails its
/// digest check, the supervisor degrades past it, and the completed run
/// is still bitwise with exact traffic — for every strategy.
#[test]
fn poisoned_snapshots_degrade_the_rollback_and_recover_bitwise() {
    for approach in Approach::ALL {
        let base = base_job(2).with_sweeps(3);
        let clean = execute::<f64>(&base, approach, &RunPolicy::bare())
            .expect("clean run")
            .run;
        let mut convicted = false;
        for after_sends in [4u64, 6, 8, 12, 16, 24, 32, 48] {
            let job = base.with_fault(
                FaultPlan::quiet(9)
                    .with_panic_on_send(0, after_sends)
                    .with_corrupt_snapshot(0, 0, 1),
            );
            let sup = execute::<f64>(&job, approach, &policy()).unwrap_or_else(|e| {
                panic!(
                    "{} after_sends {after_sends}: recovery failed: {e}",
                    approach.label()
                )
            });
            if sup.recovery.attempts == 1 {
                // The ordinal exceeded the run's sends: the panic never
                // fired and the poison was never on a rollback path.
                break;
            }
            assert_bitwise_with_exact_traffic("snapshot poison", approach, &clean, &sup);
            if sup.recovery.snapshot_digest_failures >= 1 {
                // The digest convicted the poisoned snapshot; the resume
                // epoch degraded below the poisoned epoch 1.
                assert!(
                    sup.recovery.failures.iter().all(|f| f.resumed_from == 0),
                    "{} after_sends {after_sends}: a poisoned epoch-1 snapshot \
                     leaves only the synthetic fill to resume from",
                    approach.label()
                );
                convicted = true;
                break;
            }
        }
        assert!(
            convicted,
            "{}: some panic ordinal must land after epoch 1's deposits and \
             convict the poisoned snapshot",
            approach.label()
        );
    }
}

/// Verification is always on, and it is free of false positives: a clean
/// supervised run reports zero detections and zero digest failures while
/// still completing bitwise.
#[test]
fn clean_runs_report_zero_detections_under_always_on_verification() {
    for approach in Approach::ALL {
        let job = base_job(2);
        let clean = execute::<f64>(&job, approach, &RunPolicy::bare())
            .expect("clean run")
            .run;
        let sup = execute::<f64>(&job, approach, &policy()).expect("supervised clean run");
        assert_bitwise_with_exact_traffic("no faults", approach, &clean, &sup);
        assert_eq!(sup.recovery.attempts, 1, "{}", approach.label());
        assert_eq!(sup.recovery.corruptions_detected, 0, "{}", approach.label());
        assert_eq!(
            sup.recovery.snapshot_digest_failures,
            0,
            "{}",
            approach.label()
        );
    }
}

/// Detection and recovery are deterministic per seed: same seed, same
/// injector, same bits, same detection count — twice.
#[test]
fn corrupt_recovery_is_reproducible_per_seed() {
    let job = base_job(2).with_fault(FaultPlan::benign(42).with_corrupt_payload(0, 1, 1));
    let approach = Approach::HybridMultiple;
    let a = execute::<f64>(&job, approach, &policy()).expect("first recovery");
    let b = execute::<f64>(&job, approach, &policy()).expect("second recovery");
    assert_eq!(run_digest(&a.run.sets), run_digest(&b.run.sets));
    assert_eq!(a.run.report.messages, b.run.report.messages);
    assert_eq!(a.recovery.attempts, b.recovery.attempts);
    assert_eq!(
        a.recovery.corruptions_detected,
        b.recovery.corruptions_detected
    );
}
