//! The durability plane, end to end: kill -9 the process, restore
//! bit-identical.
//!
//! The acceptance bar:
//!
//! * **prefix property** — a run killed after `e` sweeps and restored
//!   with `--restore` finishes with the same `run_digest` *and* the same
//!   logical message/byte counts as a run that was never interrupted,
//!   for every strategy, thread count, and kill epoch. The kill is
//!   simulated exactly: a durable run with `sweeps = e` leaves precisely
//!   the on-disk state of a process SIGKILLed right after its epoch-`e`
//!   spill, since spill files are atomically renamed and carry no
//!   state about the process's future;
//! * **degradation, not failure** — a corrupted newest epoch restores
//!   from the retained previous epoch (garbling *everything* restores
//!   from scratch), still bit-identical, with the damage reported in the
//!   [`DurableReport::degraded`] trail; only a caller mistake (missing
//!   directory, wrong geometry) is a typed [`RunError::Durable`];
//! * **one record** — the epoch files are all recovery reads: a
//!   `MANIFEST` an older build left beside them is an unknown file that
//!   changes neither the resume point nor the degradation trail;
//! * **service restart** — a durable job resubmitted under its name to a
//!   fresh [`JobService`] sharing the same `durable_root` resumes from
//!   the dead server's newest durable epoch instead of starting over.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::config::Approach;
use gpaw_fd::durable::{DurableStore, MAGIC};
use gpaw_fd::integrity::crc32;
use gpaw_hybrid_rt::{
    execute, run_digest, AdmissionError, DurabilityConfig, FaultPlan, JobService, NativeJob,
    NativeRun, Priority, RetryPolicy, RunError, RunPolicy, ServiceConfig, SupervisedRun,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn base_job(threads: usize, sweeps: usize) -> NativeJob {
    // Every sub-extent stays ≥ 4, the fused temporal-blocked ghost depth.
    NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(threads)
        .with_sweeps(sweeps)
        .with_recv_timeout_ms(1000)
}

/// Three attempts, spilling to — and, if it says so, first restoring
/// from — `durable`.
fn policy(durable: DurabilityConfig) -> RunPolicy<'static> {
    RunPolicy {
        durable: Some(durable),
        ..RunPolicy::supervised(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
        })
    }
}

/// The uninterrupted, fault-free run of `job`.
fn clean_run(job: &NativeJob, approach: Approach) -> NativeRun<f64> {
    execute::<f64>(job, approach, &RunPolicy::bare())
        .expect("clean run")
        .run
}

/// A fresh scratch directory per call, removed by the next test run of
/// the same tag (leaking one tempdir per tag on abort is acceptable).
fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpwd_it_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_durable(job: &NativeJob, approach: Approach, cfg: &DurabilityConfig) -> SupervisedRun<f64> {
    execute::<f64>(job, approach, &policy(cfg.clone())).expect("durable run completes")
}

/// Assert `dr` is indistinguishable from the uninterrupted `clean` run:
/// same digest, same logical traffic.
fn assert_bit_identical(what: &str, dr: &SupervisedRun<f64>, clean: &NativeRun<f64>) {
    assert_eq!(
        run_digest(&dr.run.sets),
        run_digest(&clean.sets),
        "{what}: digest diverged from the uninterrupted run"
    );
    assert_eq!(
        dr.run.report.messages, clean.report.messages,
        "{what}: logical message count diverged"
    );
    assert_eq!(
        dr.run.report.total_network_bytes, clean.report.total_network_bytes,
        "{what}: logical network bytes diverged"
    );
}

// ---------------------------------------------------------------------
// The prefix property: killed after e sweeps, restored, bit-identical.
// ---------------------------------------------------------------------

#[test]
fn kill_and_restore_is_bit_identical_for_every_strategy() {
    let sweeps = 4;
    for approach in Approach::ALL {
        for threads in [2, 4] {
            let job = base_job(threads, sweeps);
            // A fused program deposits (and therefore can be killed and
            // restored) only at block boundaries, so the kill points must
            // land on multiples of the approach's temporal block.
            let block = job.config(approach).effective_block();
            let clean = clean_run(&job, approach);
            for kill_after in [1, 2, 3].into_iter().filter(|k| k % block == 0) {
                let dir = tmpdir("prefix");
                // The "kill": a durable run of only `kill_after` sweeps
                // leaves exactly a SIGKILLed run's newest durable state.
                let killed = run_durable(
                    &base_job(threads, kill_after),
                    approach,
                    &DurabilityConfig::new(&dir),
                );
                assert!(
                    killed.durable.epochs_spilled >= 1,
                    "the victim spilled nothing"
                );
                // The restart: same job, full sweep count, --restore.
                let restored = run_durable(
                    &job,
                    approach,
                    &DurabilityConfig::new(&dir).with_restore(true),
                );
                assert_eq!(
                    restored.durable.resumed_from,
                    kill_after,
                    "{} {threads}t: restore must resume at the victim's last epoch",
                    approach.label()
                );
                assert_bit_identical(
                    &format!("{} {threads}t kill@{kill_after}", approach.label()),
                    &restored,
                    &clean,
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn restore_of_a_completed_run_rebuilds_the_report_without_rerunning() {
    let job = base_job(2, 3);
    let clean = clean_run(&job, Approach::HybridMultiple);
    let dir = tmpdir("complete");
    let first = run_durable(&job, Approach::HybridMultiple, &DurabilityConfig::new(&dir));
    assert_eq!(first.durable.resumed_from, 0);
    let again = run_durable(
        &job,
        Approach::HybridMultiple,
        &DurabilityConfig::new(&dir).with_restore(true),
    );
    assert_eq!(
        again.durable.resumed_from, job.sweeps,
        "a finished job restores at its final epoch and has nothing to re-run"
    );
    assert_bit_identical("restore-after-complete", &again, &clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 20-byte `MANIFEST` older builds wrote beside the epoch files:
/// magic · schema 1 · epoch u64 · CRC-32 of the 16 bytes before it.
fn legacy_manifest(epoch: usize) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(epoch as u64).to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// A directory an older build wrote — the epoch files plus a `MANIFEST`
/// naming the newest — restores from its newest valid epoch file, and
/// nothing is skipped on the manifest's account, whatever it says.
#[test]
fn a_leftover_manifest_is_an_unknown_file_and_changes_nothing() {
    let job = base_job(2, 4);
    let clean = clean_run(&job, Approach::HybridMultiple);
    let dir = tmpdir("legacy");
    run_durable(&job, Approach::HybridMultiple, &DurabilityConfig::new(&dir));
    let epochs = DurableStore::open(&dir).unwrap().epochs_on_disk().unwrap();
    assert_eq!(
        epochs.last(),
        Some(&job.sweeps),
        "the final epoch is spilled"
    );
    // The spiller coalesces epochs it falls behind on, so whether an older
    // one is kept (and which) depends on timing; 0 is the synthetic fill.
    let older = epochs.len().checked_sub(2).map_or(0, |i| epochs[i]);
    // Valid and current, valid but stale, valid but naming no file, then
    // garbage.
    for manifest in [
        legacy_manifest(job.sweeps),
        legacy_manifest(older),
        legacy_manifest(99),
        b"not a manifest".to_vec(),
    ] {
        std::fs::write(dir.join("MANIFEST"), &manifest).unwrap();
        let store = DurableStore::open(&dir).unwrap();
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, job.sweeps);
        assert!(rec.skipped.is_empty(), "skipped {:?}", rec.skipped);
        let restored = run_durable(
            &job,
            Approach::HybridMultiple,
            &DurabilityConfig::new(&dir).with_restore(true),
        );
        assert_eq!(restored.durable.resumed_from, job.sweeps);
        assert!(
            restored.durable.degraded.is_empty(),
            "{:?}",
            restored.durable.degraded
        );
        assert_bit_identical("leftover manifest", &restored, &clean);
    }
    // A corrupt newest epoch still falls back, and only it is skipped.
    std::fs::write(newest_epoch_file(&dir), b"zzzz").unwrap();
    let rec = DurableStore::open(&dir).unwrap().recover::<f64>().unwrap();
    assert_eq!((rec.epoch, rec.skipped.len()), (older, 1));
    assert!(
        dir.join("MANIFEST").exists(),
        "a foreign file is left alone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Corruption: degrade to the previous durable epoch, never fail.
// ---------------------------------------------------------------------

fn newest_epoch_file(dir: &Path) -> PathBuf {
    let store = DurableStore::open(dir).expect("open store");
    let epochs = store.epochs_on_disk().expect("list epochs");
    store.epoch_path(*epochs.last().expect("at least one epoch on disk"))
}

#[test]
fn corrupt_newest_epoch_degrades_to_previous_and_stays_bit_identical() {
    let job = base_job(2, 4);
    let clean = clean_run(&job, Approach::HybridMultiple);
    let dir = tmpdir("flip");
    run_durable(&job, Approach::HybridMultiple, &DurabilityConfig::new(&dir));
    let path = newest_epoch_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let restored = run_durable(
        &job,
        Approach::HybridMultiple,
        &DurabilityConfig::new(&dir).with_restore(true),
    );
    assert!(
        restored.durable.resumed_from < job.sweeps,
        "the corrupt newest epoch must not be the resume point"
    );
    assert!(
        restored.durable.resumed_from > 0,
        "the retained previous epoch should have been valid"
    );
    assert!(
        !restored.durable.degraded.is_empty(),
        "silent degradation: the corruption left no trail"
    );
    assert_bit_identical("bit-flip degradation", &restored, &clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_garbled_directory_restores_from_scratch_and_stays_bit_identical() {
    let job = base_job(2, 3);
    let clean = clean_run(&job, Approach::FlatOptimized);
    let dir = tmpdir("garble");
    run_durable(&job, Approach::FlatOptimized, &DurabilityConfig::new(&dir));
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), b"zeros all the way down").unwrap();
    }
    let restored = run_durable(
        &job,
        Approach::FlatOptimized,
        &DurabilityConfig::new(&dir).with_restore(true),
    );
    assert_eq!(
        restored.durable.resumed_from, 0,
        "nothing on disk is valid, so the run must start over"
    );
    assert!(!restored.durable.degraded.is_empty());
    assert_bit_identical("all-garbled degradation", &restored, &clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rollback that lands below the restore epoch replays sweeps the
/// killed process already sent, and which the restored fabric was
/// credited with: their resends are retransmissions, so the completed
/// run still reports the uninterrupted run's logical traffic. The
/// poisoned epoch-3 snapshot leaves only the synthetic fill to roll back
/// to once a failure lands past epoch 3's deposits; the panic ordinal is
/// scanned upward until one does.
#[test]
fn a_rollback_below_the_restore_epoch_counts_no_message_twice() {
    let approach = Approach::HybridMultiple;
    let job = base_job(2, 4);
    let clean = clean_run(&job, approach);
    let mut below = false;
    for after_sends in [4u64, 6, 8, 12, 16, 24, 32, 48] {
        let dir = tmpdir("below");
        run_durable(&base_job(2, 2), approach, &DurabilityConfig::new(&dir));
        let faulty = job.with_fault(
            FaultPlan::quiet(9)
                .with_panic_on_send(0, after_sends)
                .with_corrupt_snapshot(0, 0, 3),
        );
        let restored = run_durable(
            &faulty,
            approach,
            &DurabilityConfig::new(&dir).with_restore(true),
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(restored.durable.resumed_from, 2);
        assert_bit_identical(
            &format!("restore@2, panic after {after_sends} sends"),
            &restored,
            &clean,
        );
        if restored
            .recovery
            .failures
            .iter()
            .any(|f| f.resumed_from < 2)
        {
            assert!(restored.recovery.messages_retransmitted > 0);
            below = true;
            break;
        }
    }
    assert!(
        below,
        "some panic ordinal must roll the restored run back below epoch 2"
    );
}

// ---------------------------------------------------------------------
// Caller mistakes are typed errors, not panics.
// ---------------------------------------------------------------------

#[test]
fn restoring_a_missing_directory_is_a_typed_error() {
    let job = base_job(2, 2);
    let dir = tmpdir("missing"); // never created
    let err = execute::<f64>(
        &job,
        Approach::HybridMultiple,
        &policy(DurabilityConfig::new(&dir).with_restore(true)),
    )
    .err()
    .expect("restoring from nowhere must fail");
    assert!(
        matches!(err, RunError::Durable(_)),
        "expected RunError::Durable, got: {err}"
    );
}

#[test]
fn restoring_into_a_different_geometry_is_a_typed_error() {
    let dir = tmpdir("geometry");
    run_durable(
        &base_job(2, 3),
        Approach::HybridMultiple,
        &DurabilityConfig::new(&dir),
    );
    // Same directory, different approach: the checkpoint's key set
    // (one slot per thread) cannot satisfy the master-only geometry.
    let err = execute::<f64>(
        &base_job(2, 3),
        Approach::HybridMasterOnly,
        &policy(DurabilityConfig::new(&dir).with_restore(true)),
    )
    .err()
    .expect("a mismatched geometry must be rejected");
    assert!(
        matches!(err, RunError::Durable(_)),
        "expected RunError::Durable, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Service restart: durable jobs survive the server.
// ---------------------------------------------------------------------

#[test]
fn durable_job_resumes_across_a_service_restart() {
    let root = tmpdir("service");
    let config = ServiceConfig {
        workers: 1,
        durable_root: Some(root.clone()),
        ..ServiceConfig::default()
    };
    let full = base_job(2, 6);
    let clean = clean_run(&full, Approach::HybridMultiple);

    // Server 1 runs the job's first 3 sweeps durably, then "dies" (join
    // is a graceful stand-in: what matters is that only the disk
    // survives into server 2).
    let first: JobService<f64> = JobService::start(config.clone());
    let h = first
        .submit_durable(
            "tenant-a",
            Priority::Normal,
            Approach::HybridMultiple,
            base_job(2, 3),
            "job-1",
        )
        .expect("durable submission admitted");
    let outcome = h.wait();
    let r = outcome.result.expect("first half completes");
    assert_eq!(r.resumed_from_epoch, 0);
    first.join();

    // Server 2, same root: resubmitting the full job under the same name
    // must resume at epoch 3, not recompute it, and finish bit-identical
    // to the uninterrupted run.
    let second: JobService<f64> = JobService::start(ServiceConfig {
        keep_grids: true,
        ..config
    });
    let h = second
        .submit_durable(
            "tenant-a",
            Priority::Normal,
            Approach::HybridMultiple,
            full,
            "job-1",
        )
        .expect("resubmission admitted");
    let outcome = h.wait();
    let r = outcome.result.expect("resumed job completes");
    assert_eq!(
        r.resumed_from_epoch, 3,
        "the restarted service must resume at the dead server's last durable epoch"
    );
    assert_eq!(r.digest, run_digest(&clean.sets));
    assert_eq!(r.messages, clean.report.messages);
    assert_eq!(r.network_bytes, clean.report.total_network_bytes);
    let sets = r.sets.expect("keep_grids retains the result");
    assert_eq!(run_digest(&sets), run_digest(&clean.sets));
    second.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_submission_is_guarded_at_admission() {
    // No durable_root configured: durable submissions bounce, typed.
    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let err = service
        .submit_durable(
            "t",
            Priority::Normal,
            Approach::HybridMultiple,
            base_job(2, 2),
            "job",
        )
        .expect_err("no durable_root must be rejected");
    assert!(matches!(err, AdmissionError::DurabilityUnavailable));
    service.join();

    // A name that could escape the root is rejected before any IO.
    let root = tmpdir("badname");
    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        durable_root: Some(root.clone()),
        ..ServiceConfig::default()
    });
    for bad in ["", ".", "..", "a/b", "a\\b"] {
        let err = service
            .submit_durable(
                "t",
                Priority::Normal,
                Approach::HybridMultiple,
                base_job(2, 2),
                bad,
            )
            .expect_err("escaping names must be rejected");
        assert!(
            matches!(err, AdmissionError::InvalidDurableName(_)),
            "name {bad:?} was admitted"
        );
    }
    service.join();
    let _ = std::fs::remove_dir_all(&root);
}
