//! Checkpoint/replay recovery, end to end: contained failures become
//! completed, bit-identical runs.
//!
//! The acceptance bar of the recovery plane:
//!
//! * under a **lethal injected fault** (a panicking send, a black-holed
//!   message) on top of a benign chaos schedule, a *supervised* run
//!   completes — bitwise identical to the fault-free sequential
//!   reference, for every strategy and 20 seeds per injector;
//! * **logical traffic counts are exact**: a recovered run reports
//!   precisely the clean run's message/byte counts, with every replayed
//!   send itemized separately as a retransmission in the
//!   [`RecoveryReport`];
//! * recovery is **bounded** ([`RetryPolicy::max_attempts`]) and
//!   **mid-program**: a failure past the first epoch resumes from a
//!   checkpointed epoch `>= 1`, not from scratch;
//! * the policy only changes what a run *can* survive, never what it
//!   computes: every [`RunPolicy`] gives the same bits and traffic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::exec::{max_error_vs_reference_planned, sequential_reference};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::progcache::ProgramCache;
use gpaw_fd::Approach;
use gpaw_hybrid_rt::{
    execute, run_digest, DegradePolicy, DurabilityConfig, FailureClass, FaultPlan, NativeJob,
    NativeRun, RetryPolicy, RunError, RunPolicy, SupervisedRun,
};
use std::time::Duration;

fn base_job() -> NativeJob {
    // Every sub-extent stays ≥ 4, the fused temporal-blocked ghost depth.
    NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(2)
        .with_sweeps(2)
        .with_recv_timeout_ms(300)
}

fn policy() -> RunPolicy<'static> {
    RunPolicy::supervised(RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
    })
}

fn coef(job: &NativeJob) -> gpaw_grid::stencil::StencilCoeffs {
    gpaw_grid::stencil::StencilCoeffs::laplacian(job.spacing)
}

/// Rank 0's first neighbor under this approach's geometry — flat
/// strategies run 8 virtual ranks on 2 nodes, where rank 1 need not be
/// adjacent to rank 0, so black holes must target a real plan edge.
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

fn assert_recovered_bitwise(
    job: &NativeJob,
    approach: Approach,
    clean: &NativeRun<f64>,
    sup: &SupervisedRun<f64>,
    what: &str,
) {
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
        "{}: recovered run diverged ({what})",
        approach.label()
    );
    assert_eq!(
        sup.run.report.messages,
        clean.report.messages,
        "{} ({what}): logical message count drifted through recovery",
        approach.label()
    );
    assert_eq!(
        sup.run.report.total_network_bytes,
        clean.report.total_network_bytes,
        "{} ({what}): logical network bytes drifted through recovery",
        approach.label()
    );
}

/// Injected send panics, 20 seeds x 4 strategies: every supervised run
/// completes bitwise with exact logical traffic and the replay overhead
/// reported as retransmissions.
#[test]
fn supervised_runs_absorb_injected_panics_across_twenty_seeds() {
    let base = base_job();
    for a in Approach::ALL {
        let clean = execute::<f64>(&base, a, &RunPolicy::bare())
            .expect("clean run")
            .run;
        for seed in 0..20 {
            let job = base.with_fault(FaultPlan::benign(seed).with_panic_on_send(0, seed % 3));
            let sup = execute::<f64>(&job, a, &policy())
                .unwrap_or_else(|e| panic!("{} seed {seed}: recovery failed: {e}", a.label()));
            assert_recovered_bitwise(&job, a, &clean, &sup, "panic injection");
            assert!(sup.recovery.attempts >= 2, "the panic must have fired");
            assert!(
                sup.recovery
                    .failures
                    .iter()
                    .any(|f| f.rank == 0 && f.class == FailureClass::Panic),
                "{} seed {seed}: rank 0's contained panic must be classified",
                a.label()
            );
            assert!(
                sup.recovery.messages_retransmitted > 0,
                "{} seed {seed}: the replay must retransmit the peers' in-flight sends",
                a.label()
            );
        }
    }
}

/// Black-holed messages, 20 seeds x 4 strategies: the starved receive is
/// classified, the swallowed message is retransmitted on replay, and the
/// completed run is bitwise with exact logical traffic.
#[test]
fn supervised_runs_absorb_black_holes_across_twenty_seeds() {
    let base = base_job();
    for a in Approach::ALL {
        let clean = execute::<f64>(&base, a, &RunPolicy::bare())
            .expect("clean run")
            .run;
        let dst = neighbor_of_rank0(&base, a, &clean);
        for seed in 0..20 {
            let job =
                base.with_fault(FaultPlan::benign(seed).with_black_hole(0, dst, 1 + seed % 2));
            let sup = execute::<f64>(&job, a, &policy())
                .unwrap_or_else(|e| panic!("{} seed {seed}: recovery failed: {e}", a.label()));
            assert_recovered_bitwise(&job, a, &clean, &sup, "black hole");
            assert!(sup.recovery.attempts >= 2, "the black hole must have fired");
            assert!(
                sup.recovery
                    .failures
                    .iter()
                    .any(|f| f.rank == dst && f.class == FailureClass::Starved),
                "{} seed {seed}: rank {dst}'s starved receive must be classified",
                a.label()
            );
            assert!(
                sup.recovery.messages_retransmitted > 0,
                "{} seed {seed}: the swallowed message's resend is a retransmission",
                a.label()
            );
        }
    }
}

/// A failure past the first epoch resumes mid-program: some attempt's
/// failures carry `resumed_from >= 1`, and the completed run is still
/// bitwise with exact traffic. The panic ordinal is scanned upward until
/// it lands past epoch 1 — deterministic, since the schedule is.
#[test]
fn recovery_resumes_mid_program_from_a_checkpointed_epoch() {
    let base = base_job().with_sweeps(3);
    let clean = execute::<f64>(&base, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("clean run")
        .run;
    let mut resumed_mid = None;
    for after_sends in [4u64, 6, 8, 12, 16, 24, 32, 48] {
        let job = base.with_fault(FaultPlan::quiet(9).with_panic_on_send(0, after_sends));
        let sup = execute::<f64>(&job, Approach::HybridMultiple, &policy())
            .unwrap_or_else(|e| panic!("after_sends {after_sends}: recovery failed: {e}"));
        if sup.recovery.attempts == 1 {
            // The ordinal exceeded the run's sends: the panic never fired.
            break;
        }
        assert_recovered_bitwise(
            &job,
            Approach::HybridMultiple,
            &clean,
            &sup,
            "mid-program panic",
        );
        if sup.recovery.failures.iter().any(|f| f.resumed_from >= 1) {
            resumed_mid = Some((after_sends, sup.recovery));
            break;
        }
    }
    let (after_sends, recovery) =
        resumed_mid.expect("some panic ordinal must land past the first checkpointed epoch");
    assert!(
        recovery.messages_retransmitted > 0,
        "after_sends {after_sends}: sends before the panic replay as retransmissions"
    );
    assert!(
        recovery.failures.iter().all(|f| f.resumed_from < 3),
        "resume epochs lie inside the program"
    );
}

/// `max_attempts: 1` means no retries: the first lethal failure surfaces
/// as the run's `RunError`, exactly as unsupervised.
#[test]
fn exhausted_retry_budgets_surface_the_run_error() {
    let job = base_job().with_fault(FaultPlan::quiet(5).with_black_hole(0, 1, 1));
    let one_shot = RetryPolicy {
        max_attempts: 1,
        base_backoff: Duration::from_millis(1),
    };
    let err = execute::<f64>(
        &job,
        Approach::HybridMultiple,
        &RunPolicy::supervised(one_shot),
    )
    .err()
    .expect("one attempt cannot absorb a lethal fault");
    assert!(matches!(err, RunError::Failed { .. }), "{err}");
}

/// Errors no retry can fix fail immediately, without burning attempts.
#[test]
fn unretryable_errors_fail_fast() {
    let mut job = base_job();
    job.n_grids = 0;
    let err = execute::<f64>(&job, Approach::HybridMultiple, &policy())
        .err()
        .expect("zero grids is unretryable");
    assert!(matches!(err, RunError::NoGrids));
}

/// A supervised run on a quiet fabric is exactly an unsupervised run:
/// one attempt, no failures, no retransmissions — and bitwise output.
#[test]
fn clean_supervised_runs_report_no_recovery_overhead() {
    let job = base_job();
    let clean = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("clean run")
        .run;
    let sup =
        execute::<f64>(&job, Approach::HybridMultiple, &policy()).expect("supervised clean run");
    assert_recovered_bitwise(&job, Approach::HybridMultiple, &clean, &sup, "no faults");
    assert_eq!(sup.recovery.attempts, 1);
    assert!(sup.recovery.failures.is_empty());
    assert_eq!(sup.recovery.messages_retransmitted, 0);
    assert_eq!(sup.recovery.bytes_retransmitted, 0);
    assert_eq!(sup.recovery.epochs_replayed, 0);
}

/// Recovery is deterministic per seed: same seed, same injector, same
/// bits and the same logical traffic — twice.
#[test]
fn recovered_runs_are_reproducible_per_seed() {
    let job = base_job().with_fault(FaultPlan::benign(77).with_panic_on_send(0, 1));
    let a = execute::<f64>(&job, Approach::HybridMultiple, &policy()).expect("first recovery");
    let b = execute::<f64>(&job, Approach::HybridMultiple, &policy()).expect("second recovery");
    assert_eq!(a.run.report.messages, b.run.report.messages);
    assert_eq!(a.recovery.attempts, b.recovery.attempts);
    for (x, y) in a.run.sets.iter().zip(&b.run.sets) {
        for g in 0..x.len() {
            assert_eq!(
                gpaw_grid::norms::max_abs_diff(x.grid(g), y.grid(g)),
                0.0,
                "same seed, different bits through recovery"
            );
        }
    }
}

/// The policy matrix: {bare, retry, retry+degrade, durable,
/// durable+degrade} × {one-shot cache, shared cache} — ten ways to drive
/// one clean job, one result. Every run has the bare run's digest and
/// logical traffic; the bare policy makes exactly one attempt; only the
/// durable policies spill, and only their directories exist afterwards;
/// the shared cache compiles the job once for all five of its runs.
#[test]
fn every_policy_gives_the_same_run() {
    let job = base_job();
    let root = std::env::temp_dir().join(format!("gpaw-policy-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let bare = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("bare run")
        .run;
    let identity = |run: &NativeRun<f64>| {
        let r = &run.report;
        (run_digest(&run.sets), r.messages, r.total_network_bytes)
    };
    let shared = ProgramCache::new(4);
    let degrade = DegradePolicy::default();
    for (column, cache) in [("one-shot", None), ("shared", Some(&shared))] {
        let disk = |row: &str| Some(DurabilityConfig::new(root.join(column).join(row)));
        let rows = [
            ("bare", RunPolicy::bare()),
            ("retry", policy()),
            (
                "retry+degrade",
                RunPolicy {
                    degrade,
                    ..policy()
                },
            ),
            (
                "durable",
                RunPolicy {
                    durable: disk("durable"),
                    ..policy()
                },
            ),
            (
                "durable+degrade",
                RunPolicy {
                    durable: disk("durable+degrade"),
                    degrade,
                    ..policy()
                },
            ),
        ];
        for (row, policy) in rows {
            let policy = RunPolicy { cache, ..policy };
            let what = format!("{row} with a {column} cache");
            let sup = execute::<f64>(&job, Approach::HybridMultiple, &policy)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(identity(&sup.run), identity(&bare), "{what}: diverged");
            assert_eq!(sup.recovery.attempts, 1, "{what}: a clean run retried");
            assert_eq!(
                sup.durable.epochs_spilled > 0,
                policy.durable.is_some(),
                "{what}: spilled iff durable"
            );
        }
        let mut dirs: Vec<String> = std::fs::read_dir(root.join(column))
            .expect("the durable rows made their directories")
            .map(|e| {
                e.expect("a dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        dirs.sort();
        assert_eq!(
            dirs,
            ["durable", "durable+degrade"],
            "{column}: stray directories"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    let stats = shared.stats();
    assert_eq!((stats.misses, stats.hits), (1, 4), "{stats:?}");
}
