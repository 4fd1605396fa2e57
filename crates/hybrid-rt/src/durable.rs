//! The durability plane's disk concerns: kill -9 the process, restore
//! bit-identical.
//!
//! A run whose [`RunPolicy`](crate::supervisor::RunPolicy) carries a
//! [`DurabilityConfig`] gets a background *spiller* thread per geometry
//! it runs on: it sleeps on the run's [`CheckpointStore`] until a deposit
//! advances the consistent epoch a stride past the last spill, then
//! streams that epoch — borrowed from the store's shared snapshots, never
//! copied — into a [`DurableStore`] directory: one atomic write-rename
//! epoch file per spill, each record carrying the digest its snapshot
//! was verified against (`gpaw_fd::durable` has the format). Once an
//! epoch is on disk, older in-memory snapshots are pruned, so RAM holds
//! only the staging window.
//!
//! The restore path (`DurabilityConfig::restore`) inverts it: recover
//! the newest epoch that passes its digests (corrupt or torn files
//! degrade to the previous durable epoch — worst case the synthetic
//! fill — with typed errors reported, never a panic) and validate it
//! against the geometry that wrote it. The driver then rehydrates a fresh
//! checkpoint store, seeds the fabric's *logical* traffic counters with
//! the statically-known messages of the already-completed sweeps, and
//! resumes mid-program via
//! [`Launch::start_sweep`](gpaw_fd::interp::Launch::start_sweep). Because every
//! sweep's traffic is a pure function of the compiled programs, a
//! restored run finishes with the same `run_digest` *and* the same
//! logical message/byte counts as a run that was never killed. A spill
//! written by a different geometry is re-sharded onto the resuming one
//! instead, on the same path a shrink takes.

use crate::error::RunError;
use crate::runtime::{JobGeometry, NativeJob};
use gpaw_fd::checkpoint::CheckpointStore;
use gpaw_fd::durable::{DurableError, DurableStore, RecordRef, SnapshotRecord};
use gpaw_fd::fabric::NativeFabric;
use gpaw_fd::progcache::JobPrograms;
use gpaw_grid::scalar::Scalar;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many epoch files the spiller keeps on disk: the newest plus one
/// fallback, so a file corrupted after the fact still leaves a durable
/// epoch to degrade to.
const KEEP_EPOCH_FILES: usize = 2;

/// Where and how often a supervised run spills, and whether it first
/// restores.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The checkpoint directory (one run — or one resumable job — per
    /// directory).
    pub dir: PathBuf,
    /// Spill every `n` consistent epochs (≥ 1). The final epoch is
    /// always spilled regardless, so a completed run is durable.
    pub spill_every: usize,
    /// Recover the newest valid epoch from `dir` before running, and
    /// resume from it. With `false` the directory is created if missing
    /// and only written.
    pub restore: bool,
}

impl DurabilityConfig {
    /// Spill into `dir` after every consistent epoch, no restore.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            spill_every: 1,
            restore: false,
        }
    }

    /// Set the spill stride in epochs.
    pub fn with_spill_every(mut self, n: usize) -> DurabilityConfig {
        self.spill_every = n.max(1);
        self
    }

    /// Set whether the run restores from `dir` before executing.
    pub fn with_restore(mut self, restore: bool) -> DurabilityConfig {
        self.restore = restore;
        self
    }
}

/// What the durability layer did for one run.
#[derive(Debug, Clone, Default)]
pub struct DurableReport {
    /// The epoch the run resumed from: 0 = a fresh start (no restore, an
    /// empty directory, or nothing on disk validated), `job.sweeps` = the
    /// killed run had already finished and only the report was rebuilt.
    pub resumed_from: usize,
    /// Epoch files written by this run.
    pub epochs_spilled: u64,
    /// Typed errors absorbed along the way, stringified: epochs rejected
    /// during recovery (the degradation trail) and non-fatal spill
    /// failures. Empty on a clean run.
    pub degraded: Vec<String>,
}

/// A durable-layer refusal naming the checkpoint directory.
pub(crate) fn corrupt(dir: &Path, detail: String) -> RunError {
    RunError::Durable(DurableError::Corrupt {
        path: dir.to_path_buf(),
        detail,
    })
}

/// Run `attempts` with a spiller thread beside it. The spiller sleeps on
/// `store` until a deposit advances the consistent epoch `every` epochs
/// past the last spill (counting from `from_epoch`), then streams that
/// epoch into `disk`. Once `attempts` returns, the consistent epoch is
/// spilled regardless of stride — a finished run's last epoch, a failed
/// one's best — so the next process can pick up exactly there. Spill
/// counts and non-fatal spill errors are added to `report`.
pub(crate) fn spilling<T: Scalar, R>(
    store: &CheckpointStore<T>,
    disk: &DurableStore,
    every: usize,
    from_epoch: usize,
    report: &mut DurableReport,
    attempts: impl FnOnce() -> R,
) -> R {
    let stop = AtomicBool::new(false);
    let spilled = AtomicU64::new(0);
    let last_spilled = AtomicUsize::new(from_epoch);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stride = every.max(1);

    let result = std::thread::scope(|s| {
        let spiller = s.spawn(|| {
            // An epoch is attempted once: a refused or failed spill is
            // retried by the next epoch (or the final spill), not spun on.
            let mut attempted = from_epoch;
            loop {
                let due = (last_spilled.load(Ordering::Relaxed) + stride).max(attempted + 1);
                let ce = store.wait_consistent(|ce| stop.load(Ordering::SeqCst) || ce >= due);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                attempted = ce;
                spill_consistent(store, disk, ce, &last_spilled, &spilled, &errors);
            }
        });
        let result = attempts();
        stop.store(true, Ordering::SeqCst);
        store.wake_waiters();
        let _ = spiller.join();
        result
    });

    let ce = store.consistent_epoch();
    if ce > last_spilled.load(Ordering::Relaxed) {
        spill_consistent(store, disk, ce, &last_spilled, &spilled, &errors);
    }
    report.epochs_spilled += spilled.into_inner();
    report
        .degraded
        .extend(errors.into_inner().unwrap_or_else(|e| e.into_inner()));
    result
}

/// An epoch recovered from disk and validated against its writer.
pub(crate) struct Restored<T> {
    /// The recovered epoch (> 0).
    pub epoch: usize,
    /// Its records, on the writer's layout.
    pub records: Vec<SnapshotRecord<T>>,
    /// The geometry that wrote it, when that is not the one resuming it.
    pub writer: Option<JobGeometry>,
}

/// Recover the newest epoch on `disk` that passes its digests and
/// validate it against the geometry that wrote it: `geo` itself when the
/// rank counts match, otherwise the writer's geometry rebuilt from its
/// rank count through `resolve`. Epochs rejected on the way (corrupt or
/// torn files degrade to the previous durable epoch) are recorded in
/// `report`, which also notes where the run resumes. `None` when nothing
/// on disk validated: the run starts from the synthetic fill.
pub(crate) fn recover_validated<T: Scalar>(
    disk: &DurableStore,
    dir: &Path,
    job: &NativeJob,
    geo: &JobGeometry,
    resolve: &impl Fn(&NativeJob) -> Result<JobGeometry, RunError>,
    report: &mut DurableReport,
) -> Result<Option<Restored<T>>, RunError> {
    let rec = disk.recover::<T>()?;
    report
        .degraded
        .extend(rec.skipped.iter().map(|e| e.to_string()));
    if rec.epoch == 0 {
        return Ok(None);
    }
    let disk_ranks = rec
        .records
        .iter()
        .map(|r| r.rank)
        .max()
        .map_or(0, |m| m + 1);
    let writer = if disk_ranks == geo.map.ranks() {
        None
    } else {
        let ppn = geo.cfg.approach.exec_mode().processes_per_node();
        if disk_ranks == 0 || !disk_ranks.is_multiple_of(ppn) {
            return Err(corrupt(
                dir,
                format!(
                    "checkpoint was written by {disk_ranks} ranks, which is not a whole number \
                     of {ppn}-rank nodes in this approach's mode"
                ),
            ));
        }
        let nodes = disk_ranks / ppn;
        let writer = resolve(&NativeJob { nodes, ..*job })?;
        if writer.map.ranks() != disk_ranks {
            return Err(corrupt(
                dir,
                format!(
                    "checkpoint was written by {disk_ranks} ranks but {nodes} nodes resolve to \
                     {} — not a standard partition's checkpoint",
                    writer.map.ranks()
                ),
            ));
        }
        Some(writer)
    };
    validate_restored(
        job,
        dir,
        writer.as_ref().unwrap_or(geo),
        rec.epoch,
        &rec.records,
    )?;
    report.resumed_from = rec.epoch;
    Ok(Some(Restored {
        epoch: rec.epoch,
        records: rec.records,
        writer,
    }))
}

/// Spill consistent epoch `ce` straight from the store's shared
/// snapshots. Failures are recorded, never raised — the run itself must
/// not die of a full disk; the next spill (or the final one) retries.
fn spill_consistent<T: Scalar>(
    store: &CheckpointStore<T>,
    dstore: &DurableStore,
    ce: usize,
    last_spilled: &AtomicUsize,
    spilled: &AtomicU64,
    errors: &Mutex<Vec<String>>,
) {
    // All-keys-or-nothing: a None means the floor already moved on (or a
    // snapshot failed its digest) — a newer epoch is spilled instead.
    let Some(snapshots) = store.epoch_snapshots(ce) else {
        return;
    };
    let records: Vec<RecordRef<'_, T>> = snapshots.iter().map(|s| s.as_record_ref()).collect();
    let push_err = |e: DurableError| {
        errors
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(e.to_string());
    };
    match dstore.spill_records(ce, &records) {
        Ok(_) => {
            last_spilled.store(ce, Ordering::Relaxed);
            spilled.fetch_add(1, Ordering::Relaxed);
            // Disk now guarantees `ce`; memory only stages newer epochs.
            store.prune_below(ce);
            if let Err(e) = dstore.retain_newest(KEEP_EPOCH_FILES) {
                push_err(e);
            }
        }
        Err(e) => push_err(e),
    }
}

/// A restored epoch must actually fit this job: right key set, plausible
/// epoch, grids of each rank's subdomain shape. Violations are typed
/// errors — restoring yesterday's checkpoint into a different geometry
/// is a caller mistake, not a reason to panic mid-rank.
fn validate_restored<T: Scalar>(
    job: &NativeJob,
    dir: &Path,
    writer: &JobGeometry,
    epoch: usize,
    records: &[SnapshotRecord<T>],
) -> Result<(), RunError> {
    let programs = &writer.programs;
    if epoch > job.sweeps {
        return Err(corrupt(
            dir,
            format!(
                "restored epoch {epoch} exceeds the job's {} sweeps — not this job's checkpoint",
                job.sweeps
            ),
        ));
    }
    // A fused program can only resume at a block boundary: deposits only
    // happen there, so anything else is another job's checkpoint.
    let block = programs[0][0].block();
    if !epoch.is_multiple_of(block) {
        return Err(corrupt(
            dir,
            format!(
                "restored epoch {epoch} is not a multiple of the temporal block {block} — \
                 not this job's checkpoint",
            ),
        ));
    }
    let mut expected: Vec<(usize, usize)> =
        writer.layout().iter().map(|s| (s.rank, s.slot)).collect();
    expected.sort_unstable();
    let mut found: Vec<(usize, usize)> = records.iter().map(|r| (r.rank, r.slot)).collect();
    found.sort_unstable();
    if expected != found {
        return Err(corrupt(
            dir,
            format!(
                "checkpoint keys do not match the job: disk has {} records, the geometry \
                 registers {} (approach/threads/nodes changed?)",
                found.len(),
                expected.len()
            ),
        ));
    }
    for r in records {
        let ext = programs[r.rank][0].plan.sub.ext;
        if let Some(g) = r.grids.iter().find(|g| g.n() != ext) {
            return Err(corrupt(
                dir,
                format!(
                    "rank {} slot {}: restored grid is {:?}, this geometry's subdomain is {:?}",
                    r.rank,
                    r.slot,
                    g.n(),
                    ext
                ),
            ));
        }
    }
    Ok(())
}

/// Charge the fabric for the traffic of sweeps `0..epochs`, which the
/// killed process already sent: every message of
/// [`SweepProgram::sends`](gpaw_fd::program::SweepProgram::sends) once
/// per *replay* of the program — `epochs` replays classically,
/// `epochs / block` when the program fuses `block` sweeps per exchange.
/// Per-tag sequence state needs no seeding — resuming at `start_sweep =
/// epochs` means those tags are never used again.
pub(crate) fn seed_restored_traffic<T: Scalar>(
    fabric: &NativeFabric<T>,
    programs: &JobPrograms,
    epochs: usize,
) {
    for (rank, progs) in programs.iter().enumerate() {
        for prog in progs {
            let replays = (epochs / prog.block()) as u64;
            for (nb, bytes) in prog.sends() {
                fabric.credit_logical(rank, nb, replays, bytes * replays);
            }
        }
    }
}
