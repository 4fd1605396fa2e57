//! Durable supervision: kill -9 the process, restore bit-identical.
//!
//! [`supervise_durable`] is [`supervise`](crate::supervisor::supervise)
//! plus a disk: a background *spiller* thread sleeps on the run's
//! [`CheckpointStore`] until a deposit advances the consistent epoch a
//! stride past the last spill, then streams that epoch — borrowed from
//! the store's shared snapshots, never copied — into a [`DurableStore`]
//! directory: atomic write-rename frames, per-record CRCs, a manifest
//! pointing at the newest complete epoch (`gpaw_fd::durable` has the
//! format). Once an epoch is on disk, older in-memory snapshots are
//! pruned, so RAM holds only the staging window.
//!
//! The restore path (`DurabilityConfig::restore`) inverts it: recover
//! the newest epoch that passes its checksums (corrupt or torn files
//! degrade to the previous durable epoch — worst case the synthetic
//! fill — with typed errors reported, never a panic), rehydrate a fresh
//! checkpoint store, seed the fabric's *logical* traffic counters with
//! the statically-known messages of the already-completed sweeps, and
//! resume mid-program through the ordinary supervisor retry loop via
//! [`RankCtx::start_sweep`](crate::strategy::RankCtx). Because every
//! sweep's traffic is a pure function of the compiled programs, a
//! restored run finishes with the same `run_digest` *and* the same
//! logical message/byte counts as a run that was never killed.

use crate::error::RunError;
use crate::fabric::NativeFabric;
use crate::fault::FabricConfig;
use crate::runtime::{fabric_config, resolve_geometry_cached, JobGeometry, NativeJob, NativeRun};
use crate::strategy::Strategy;
use crate::supervisor::{
    checkpoint_keys, retry_loop, DegradationReport, GeometrySegment, RecoveryCarry, RecoveryReport,
    RetryPolicy,
};
use gpaw_fd::checkpoint::{gather_epoch, reshard_epoch, shard_layout, CheckpointStore};
use gpaw_fd::durable::{DurableError, DurableStore, RecordRef, SnapshotRecord};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::progcache::{JobPrograms, ProgramCache};
use gpaw_fd::program::{predicted_logical_span, SweepOp};
use gpaw_grid::scalar::Scalar;
use std::path::PathBuf;
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

/// A durably supervised run that completed.
pub struct DurableRun<T: Scalar> {
    /// The completed run — bit-identical to an uninterrupted one.
    pub run: NativeRun<T>,
    /// Retry/retransmission overhead (the in-process recovery plane).
    pub recovery: RecoveryReport,
    /// Spill/restore overhead (the cross-process durability plane).
    pub durable: DurableReport,
}

/// Execute `job` under `strategy` with supervision *and* durability:
/// spills while running, restores first when asked. See the module docs
/// for the guarantees; see [`supervise_durable_cached`] to share a
/// [`ProgramCache`] across jobs.
pub fn supervise_durable<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
    policy: &RetryPolicy,
    durability: &DurabilityConfig,
) -> Result<DurableRun<T>, RunError> {
    // A one-shot cache: compiled programs are needed up front anyway to
    // seed restored traffic, so the cached resolution path is the only
    // one durability uses.
    let cache = ProgramCache::new(1);
    supervise_durable_cached(job, strategy, policy, durability, &cache)
}

/// [`supervise_durable`] resolving programs through a shared `cache` —
/// the variant the job service uses.
pub fn supervise_durable_cached<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
    policy: &RetryPolicy,
    durability: &DurabilityConfig,
    cache: &ProgramCache,
) -> Result<DurableRun<T>, RunError> {
    let geo = resolve_geometry_cached(job, strategy.approach(), cache, T::BYTES)?;
    let programs = geo
        .programs
        .clone()
        .unwrap_or_else(|| unreachable!("cached resolution always carries programs"));
    let dstore = if durability.restore {
        DurableStore::open(&durability.dir)?
    } else {
        DurableStore::create(&durability.dir)?
    };

    let ranks = geo.map.ranks();
    let keys = checkpoint_keys(strategy.approach(), ranks, geo.threads);
    let store: CheckpointStore<T> = CheckpointStore::new(keys.iter().copied());
    let cfg = FabricConfig {
        retain_history: true,
        ..fabric_config(job)
    };
    let fabric: NativeFabric<T> = NativeFabric::with_config(&geo.map, cfg);

    let mut degraded: Vec<String> = Vec::new();
    let mut resumed_from = 0usize;
    // Filled when the checkpoint on disk was written by a *different*
    // geometry (the killed process ran on more — or fewer — ranks):
    // the restore gathers it globally and re-shards onto this one, and
    // the completed run reports both geometry segments.
    let mut cross: Option<DegradationReport> = None;
    if durability.restore {
        let rec = dstore.recover::<T>()?;
        degraded.extend(rec.skipped.iter().map(|e| e.to_string()));
        if rec.epoch > 0 {
            let disk_ranks = rec
                .records
                .iter()
                .map(|r| r.rank)
                .max()
                .map_or(0, |m| m + 1);
            if disk_ranks == ranks {
                validate_restored(
                    job,
                    &durability.dir,
                    &keys,
                    &programs,
                    rec.epoch,
                    &rec.records,
                )?;
                for r in rec.records {
                    store.deposit(r.rank, r.slot, rec.epoch, r.grids);
                }
                seed_restored_traffic(&fabric, &programs, rec.epoch);
            } else {
                let old_segment = restore_cross_geometry(
                    job,
                    strategy,
                    durability,
                    cache,
                    &geo,
                    &programs,
                    &store,
                    disk_ranks,
                    rec.epoch,
                    &rec.records,
                )?;
                // Survivors carry the scar; the new fabric's logical
                // counters stay unseeded — they measure exactly the new
                // geometry's segment, reported separately below.
                for r in 0..ranks {
                    fabric.note_degrade_survived(r);
                }
                cross = Some(DegradationReport {
                    from_ranks: disk_ranks,
                    to_ranks: ranks,
                    degrades: 1,
                    triggers: Vec::new(),
                    segments: vec![old_segment],
                });
            }
            resumed_from = rec.epoch;
        }
    }

    let stop = AtomicBool::new(false);
    let spilled = AtomicU64::new(0);
    let last_spilled = AtomicUsize::new(resumed_from);
    let spill_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stride = durability.spill_every.max(1);

    let result = std::thread::scope(|s| {
        let spiller = s.spawn(|| {
            // An epoch is attempted once: a refused or failed spill is
            // retried by the next epoch (or the final spill), not spun on.
            let mut attempted = resumed_from;
            loop {
                let due = (last_spilled.load(Ordering::Relaxed) + stride).max(attempted + 1);
                let ce = store.wait_consistent(|ce| stop.load(Ordering::SeqCst) || ce >= due);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                attempted = ce;
                spill_consistent(&store, &dstore, ce, &last_spilled, &spilled, &spill_errors);
            }
        });
        let mut carry = RecoveryCarry::default();
        let result = retry_loop(
            job,
            strategy,
            policy,
            &geo,
            &fabric,
            &store,
            resumed_from,
            &mut carry,
        );
        stop.store(true, Ordering::SeqCst);
        store.wake_waiters();
        let _ = spiller.join();
        result
    });

    // Final spill, stride ignored: a successful run's last epoch (and a
    // failed run's best consistent epoch) must be durable so the next
    // process can pick up exactly here.
    let ce = store.consistent_epoch();
    if ce > last_spilled.load(Ordering::Relaxed) {
        spill_consistent(&store, &dstore, ce, &last_spilled, &spilled, &spill_errors);
    }
    degraded.extend(
        spill_errors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..),
    );

    let mut sup = result?;
    if let Some(mut deg) = cross {
        let stats = fabric.stats();
        deg.segments.push(GeometrySegment {
            nodes: job.nodes,
            ranks,
            proc_dims: geo.map.proc_dims,
            start_epoch: resumed_from,
            end_epoch: job.sweeps,
            logical_messages: stats.messages_total,
            logical_bytes: stats.bytes_per_node.iter().sum(),
            messages_discarded: 0,
            bytes_discarded: 0,
        });
        sup.recovery.degradation = Some(deg);
    }
    Ok(DurableRun {
        run: sup.run,
        recovery: sup.recovery,
        durable: DurableReport {
            resumed_from,
            epochs_spilled: spilled.load(Ordering::Relaxed),
            degraded,
        },
    })
}

/// Restore a spilled epoch written by a geometry with `disk_ranks` ranks
/// onto the current (different) geometry: rebuild the writer's geometry
/// from the rank count, validate the records against *it*, gather them
/// into global grids, re-shard onto this geometry's layout, and deposit.
/// Returns the old geometry's [`GeometrySegment`] — its committed span
/// at the statically-known traffic (the killed process's measured
/// counters died with it).
#[allow(clippy::too_many_arguments)]
fn restore_cross_geometry<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
    durability: &DurabilityConfig,
    cache: &ProgramCache,
    geo: &JobGeometry,
    programs: &JobPrograms,
    store: &CheckpointStore<T>,
    disk_ranks: usize,
    epoch: usize,
    records: &[SnapshotRecord<T>],
) -> Result<GeometrySegment, RunError> {
    let corrupt = |detail: String| {
        RunError::Durable(DurableError::Corrupt {
            path: durability.dir.clone(),
            detail,
        })
    };
    let approach = strategy.approach();
    let ppn = approach.exec_mode().processes_per_node();
    if disk_ranks == 0 || !disk_ranks.is_multiple_of(ppn) {
        return Err(corrupt(format!(
            "checkpoint was written by {disk_ranks} ranks, which is not a whole number of \
             {ppn}-rank nodes in this approach's mode"
        )));
    }
    let mut old_job = *job;
    old_job.nodes = disk_ranks / ppn;
    let old_geo = resolve_geometry_cached(&old_job, approach, cache, T::BYTES)?;
    if old_geo.map.ranks() != disk_ranks {
        return Err(corrupt(format!(
            "checkpoint was written by {disk_ranks} ranks but {} nodes resolve to {} — \
             not a standard partition's checkpoint",
            old_job.nodes,
            old_geo.map.ranks()
        )));
    }
    let old_programs = old_geo
        .programs
        .clone()
        .unwrap_or_else(|| unreachable!("cached resolution always carries programs"));
    let old_keys = checkpoint_keys(approach, disk_ranks, old_geo.threads);
    validate_restored(
        &old_job,
        &durability.dir,
        &old_keys,
        &old_programs,
        epoch,
        records,
    )?;
    let old_layout = shard_layout(&old_programs);
    let global = gather_epoch(
        records,
        &old_layout,
        job.grid_ext,
        job.n_grids,
        old_geo.cfg.halo_depth(),
    )
    .map_err(|e| corrupt(format!("gathering the spilled epoch {epoch} failed: {e}")))?;
    let new_layout = shard_layout(programs);
    for rec in reshard_epoch(&global, &new_layout, geo.cfg.halo_depth()) {
        store.deposit(rec.rank, rec.slot, epoch, rec.grids);
    }
    let (messages, bytes) = predicted_logical_span(&old_programs, 0, epoch);
    Ok(GeometrySegment {
        nodes: old_job.nodes,
        ranks: disk_ranks,
        proc_dims: old_geo.map.proc_dims,
        start_epoch: 0,
        end_epoch: epoch,
        logical_messages: messages,
        logical_bytes: bytes,
        messages_discarded: 0,
        bytes_discarded: 0,
    })
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
    dir: &std::path::Path,
    keys: &[(usize, usize)],
    programs: &JobPrograms,
    epoch: usize,
    records: &[SnapshotRecord<T>],
) -> Result<(), RunError> {
    let corrupt = |detail: String| {
        RunError::Durable(DurableError::Corrupt {
            path: dir.to_path_buf(),
            detail,
        })
    };
    if epoch > job.sweeps {
        return Err(corrupt(format!(
            "restored epoch {epoch} exceeds the job's {} sweeps — not this job's checkpoint",
            job.sweeps
        )));
    }
    // A fused program can only resume at a block boundary: deposits only
    // happen there, so anything else is another job's checkpoint.
    let block = programs[0][0].block();
    if !epoch.is_multiple_of(block) {
        return Err(corrupt(format!(
            "restored epoch {epoch} is not a multiple of the temporal block {block} — \
             not this job's checkpoint",
        )));
    }
    let mut expected: Vec<(usize, usize)> = keys.to_vec();
    expected.sort_unstable();
    let mut found: Vec<(usize, usize)> = records.iter().map(|r| (r.rank, r.slot)).collect();
    found.sort_unstable();
    if expected != found {
        return Err(corrupt(format!(
            "checkpoint keys do not match the job: disk has {} records, the geometry \
             registers {} (approach/threads/nodes changed?)",
            found.len(),
            expected.len()
        )));
    }
    for r in records {
        let ext = programs[r.rank][0].plan.sub.ext;
        if let Some(g) = r.grids.iter().find(|g| g.n() != ext) {
            return Err(corrupt(format!(
                "rank {} slot {}: restored grid is {:?}, this geometry's subdomain is {:?}",
                r.rank,
                r.slot,
                g.n(),
                ext
            )));
        }
    }
    Ok(())
}

/// Charge the fabric for the traffic of sweeps `0..epochs`, which the
/// killed process already sent: per compiled `SendFace` direction with a
/// neighbor, one message of the plan's static size per *replay* of the
/// program — `epochs` replays classically, `epochs / block` when the
/// program fuses `block` sweeps per exchange. Per-tag sequence state
/// needs no seeding — resuming at `start_sweep = epochs` means those
/// tags are never used again.
fn seed_restored_traffic<T: Scalar>(
    fabric: &NativeFabric<T>,
    programs: &JobPrograms,
    epochs: usize,
) {
    for (rank, progs) in programs.iter().enumerate() {
        for prog in progs {
            let replays = (epochs / prog.block()) as u64;
            for op in &prog.ops {
                if let SweepOp::SendFace { batch, dirs, .. } = *op {
                    let grids = prog.batches.size(batch);
                    for ld in dirs.dirs() {
                        if let Some(nb) = prog.plan.neighbors[ld.index()] {
                            let bytes = prog.plan.msg_bytes(ld.axis, grids);
                            fabric.credit_logical(rank, nb, replays, bytes * replays);
                        }
                    }
                }
            }
        }
    }
}
