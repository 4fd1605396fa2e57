//! The run driver: every native run is [`execute`] under a [`RunPolicy`].
//!
//! A bare run, a supervised run, a degradable one and a durable one differ
//! only in policy. The driver resolves the job's geometry — compiled
//! programs included, through the policy's [`ProgramCache`] or a one-shot
//! one — and builds one fabric per geometry it runs on, the same fabric
//! whatever the policy. Only when the policy can roll back (more than one
//! attempt, a shrink budget, or a disk) does it also build a
//! [`CheckpointStore`], so a bare run pays nothing for checkpoints. When
//! an attempt fails with [`RunError::Failed`], the driver
//!
//! 1. **classifies** each rank failure (panic, detected payload
//!    corruption, starved receive — the black-hole shape, where the
//!    awaited queue is empty — or a stalled receive with traffic still in
//!    flight),
//! 2. **rolls back** the checkpoint store and the fabric to the newest
//!    epoch every thread of every rank has deposited **and whose
//!    snapshots all pass their digest checks** (the *verified consistent*
//!    epoch — see `gpaw_fd::checkpoint`; a poisoned snapshot degrades the
//!    target, never replays corrupted state),
//! 3. **backs off** exponentially from [`RetryPolicy::base_backoff`], and
//! 4. **respawns** every rank's workers to resume interpretation at that
//!    epoch: tags embed the absolute sweep, so the interpreter re-enters
//!    mid-program. Recovery is replay, not redelivery: the fabric keeps
//!    no copy of sent traffic, and every rolled-back message is sent
//!    again by its own replaying sender.
//!
//! Once a geometry's retries are exhausted on rank-pinned failures and
//! the [`DegradePolicy`] allows, the driver **shrinks**: it picks the
//! largest supported smaller geometry, gathers the last verified epoch
//! under the old layout, re-shards it onto the new one, closes the old
//! geometry's [`GeometrySegment`] at the statically-exact traffic of its
//! committed span, and resumes there with a fresh retry budget. Restoring
//! a spill that another geometry wrote (`crate::durable`) takes the same
//! gather → re-shard path before the first attempt, so durability and
//! degradation compose.
//!
//! The fabric charges logical traffic per sweep, and a rollback moves the
//! charges of the rolled-back sweeps into its *retransmission* counters
//! before the replay charges them again. A fabric that starts mid-run —
//! after a restore, or on a geometry that took over from another — is
//! told its start epoch, and a replayed send below it is a
//! retransmission too. So a recovered run reports exactly the traffic of
//! a fault-free run plus an explicit [`RecoveryReport`] of the overhead,
//! however far below its start a rollback lands. Lethal injected faults
//! cannot re-fire on replay: the black-hole and panic ordinals count
//! monotonically over the fabric's lifetime.
//!
//! One known limitation: the consistency floor is the *deposit* — a
//! thread that dies between its buffer swap and its deposit simply pins
//! the floor one epoch lower, which is safe. The injectors used here
//! (send-path panics, swallowed messages) can only kill a thread in the
//! communication phase, before the swap, so a deposited epoch is always a
//! fully completed sweep.

use crate::durable::{
    corrupt, recover_validated, restored_traffic, spilling, DurabilityConfig, DurableReport,
};
use crate::error::RunError;
use crate::runtime::{run_attempt, JobGeometry, NativeJob, NativeRun};
use gpaw_fd::checkpoint::{gather_epoch, reshard_epoch, CheckpointStore, RegridError};
use gpaw_fd::config::Approach;
use gpaw_fd::durable::{DurableStore, SnapshotRecord};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::fabric::NativeFabric;
use gpaw_fd::fault::{FabricConfig, FaultPlan};
use gpaw_fd::interp::{FailureKind, RankFailure};
use gpaw_fd::progcache::ProgramCache;
use gpaw_fd::program::predicted_logical_span;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::scalar::Scalar;
use std::collections::BTreeMap;
use std::time::Duration;

/// How hard the supervisor tries before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included. 1 means no retries.
    pub max_attempts: u32,
    /// Sleep before retry `n` is `base_backoff * 2^(n-1)` — exponential,
    /// so repeated faults do not hammer a struggling machine.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
        }
    }
}

/// How far the supervisor escalates once retries are exhausted: shrink
/// the job onto fewer ranks (gathering the last verified epoch, picking
/// the largest supported smaller geometry, re-sharding, and resuming
/// mid-program) at most `max_degrades` times before failing for real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Geometry shrinks allowed per supervised run. 0 disables
    /// escalation entirely — exhausted retries fail as before.
    pub max_degrades: u32,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy { max_degrades: 1 }
    }
}

impl DegradePolicy {
    /// No escalation: exhausted retries fail the run.
    pub fn disabled() -> DegradePolicy {
        DegradePolicy { max_degrades: 0 }
    }
}

/// How [`execute`] drives a run: retries, shrinks, disk, and where the
/// compiled programs come from. A policy that cannot roll back — one
/// attempt, no shrink, no disk — runs with no checkpoints.
pub struct RunPolicy<'a> {
    /// Attempts per geometry and the backoff between them.
    pub retry: RetryPolicy,
    /// Geometry shrinks allowed once a geometry's retries are exhausted.
    pub degrade: DegradePolicy,
    /// Spill consistent epochs to disk (and, with `restore`, resume from
    /// the newest valid one first).
    pub durable: Option<DurabilityConfig>,
    /// A program cache shared across runs; `None` compiles into a
    /// one-shot cache that lives for this run only.
    pub cache: Option<&'a ProgramCache>,
}

impl<'a> RunPolicy<'a> {
    /// One attempt, no shrink, no disk: the plain run.
    pub fn bare() -> RunPolicy<'a> {
        RunPolicy::supervised(RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        })
    }

    /// Checkpoint/replay retries under `retry`, and nothing more.
    pub fn supervised(retry: RetryPolicy) -> RunPolicy<'a> {
        RunPolicy {
            retry,
            degrade: DegradePolicy::disabled(),
            durable: None,
            cache: None,
        }
    }

    /// Whether a failure could ever be rolled back — the one condition
    /// for keeping checkpoints. The fabric needs no such switch: it
    /// retires quiet tags and rolls back the same way under any policy.
    fn rolls_back(&self) -> bool {
        self.retry.max_attempts > 1 || self.degrade.max_degrades > 0 || self.durable.is_some()
    }
}

/// What a rank failure looked like to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The rank (or one of its threads) panicked.
    Panic,
    /// A receive rejected a payload whose checksum did not match — proven
    /// silent data corruption, named explicitly instead of surfacing as a
    /// generic stall.
    Corrupted,
    /// A receive timed out with the awaited `(src, tag)` queue empty —
    /// the message never arrived (the black-hole shape).
    Starved,
    /// A receive timed out with traffic still queued or parked for it —
    /// the fabric stalled rather than lost the message.
    Stalled,
    /// The rank finished but left undelivered messages.
    Undrained,
}

/// One rank failure the supervisor absorbed, with the epoch it resumed
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSummary {
    /// The attempt (1-based) that failed.
    pub attempt: u32,
    /// The failed rank.
    pub rank: usize,
    /// The failure's classification.
    pub class: FailureClass,
    /// The consistent epoch the next attempt resumed from.
    pub resumed_from: usize,
}

/// One geometry's share of a (possibly degraded) supervised run: the
/// epoch span it committed and the logical traffic of that span.
///
/// For a geometry that was degraded away, the logical counts are the
/// statically-known traffic of its *committed* epochs
/// ([`gpaw_fd::program::predicted_logical_span`] — the same arithmetic
/// the durable layer credits restored fabrics with); the final attempt's
/// sends past the gather epoch were thrown away by the shrink and are
/// itemized as discarded. The final (completing) segment reports the
/// fabric's measured logical counters, which cover exactly its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometrySegment {
    /// Nodes of the segment's partition.
    pub nodes: usize,
    /// Ranks of the segment's geometry.
    pub ranks: usize,
    /// The geometry's process grid.
    pub proc_dims: [usize; 3],
    /// First epoch of the span (the state the segment started from).
    pub start_epoch: usize,
    /// Last epoch the segment committed (the gather epoch for a
    /// degraded-away segment, `job.sweeps` for the final one).
    pub end_epoch: usize,
    /// Logical messages of the committed span.
    pub logical_messages: u64,
    /// Logical payload bytes of the committed span.
    pub logical_bytes: u64,
    /// The final attempt's sends past the gather epoch — work the shrink
    /// threw away. 0 for the final segment.
    pub messages_discarded: u64,
    /// Payload bytes of the discarded messages.
    pub bytes_discarded: u64,
}

/// What a degraded run survived: the geometry walk from the original
/// rank count to the one that completed, with per-segment traffic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationReport {
    /// The rank failures that triggered each shrink (their
    /// `resumed_from` is the epoch the next geometry resumed at).
    pub triggers: Vec<FailureSummary>,
    /// Every geometry the run executed on, in order; the last one
    /// completed the job.
    pub segments: Vec<GeometrySegment>,
}

impl DegradationReport {
    /// Ranks the run started with.
    pub fn from_ranks(&self) -> usize {
        self.segments.first().map_or(0, |s| s.ranks)
    }

    /// Ranks of the geometry that completed.
    pub fn to_ranks(&self) -> usize {
        self.segments.last().map_or(0, |s| s.ranks)
    }

    /// Geometry changes: shrinks, plus a restore onto a geometry other
    /// than the one that wrote the spill.
    pub fn degrades(&self) -> u32 {
        self.segments.len().saturating_sub(1) as u32
    }
}

/// Per-rank escalation counters: how many supervised retry attempts were
/// charged to failures pinned on this rank, and how many geometry
/// degradations the rank has survived (been re-sharded through). They
/// explain *why* a degraded run shrank — which rank exhausted the retry
/// budget — instead of just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscalationStat {
    /// The rank the counters describe (within its geometry segment).
    pub rank: usize,
    /// Supervised retry attempts charged to failures on this rank.
    pub retries: u32,
    /// Geometry degradations this rank has been carried through.
    pub degrades_survived: u32,
}

/// Recovery overhead of a run that completed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Attempts used, the successful one included. 1 = no failure.
    pub attempts: u32,
    /// Completed sweeps discarded by rollbacks, summed over ranks — work
    /// that was done, thrown away, and redone.
    pub epochs_replayed: usize,
    /// Logical sends a rollback discarded (their replay is what the
    /// logical counters hold), plus replayed sends of sweeps a fabric's
    /// start epoch had already covered — kept out of the logical traffic
    /// counters by the fabric.
    pub messages_retransmitted: u64,
    /// Payload bytes of those retransmissions.
    pub bytes_retransmitted: u64,
    /// Corrupted message payloads the fabric detected and rejected over
    /// the whole supervised run — counted separately from logical
    /// traffic, like retransmissions.
    pub corruptions_detected: u64,
    /// Checkpoint snapshots that failed their digest check at
    /// rollback/restore time (each was purged and the rollback target
    /// degraded past it).
    pub snapshot_digest_failures: u64,
    /// Every rank failure absorbed on the way to completion.
    pub failures: Vec<FailureSummary>,
    /// The geometry walk, when the run completed on a geometry other than
    /// the one it (or the spill it restored) started on. `None` for a run
    /// that kept its geometry.
    pub degradation: Option<DegradationReport>,
}

impl RecoveryReport {
    /// Per-rank escalation counters, derived from the report: one retry
    /// per absorbed failure, keyed by its rank, and one survived degrade
    /// for every rank of every geometry that took over from another. Rank
    /// indices refer to the geometry active at the time, so one index's
    /// counters sum across geometries; ranks with neither are omitted.
    pub fn rank_escalations(&self) -> Vec<EscalationStat> {
        let retried = self.failures.iter().map(|f| (f.rank, 1, 0));
        let survived = (self.degradation.iter())
            .flat_map(|d| d.segments.iter().skip(1))
            .flat_map(|s| (0..s.ranks).map(|rank| (rank, 0, 1)));
        let mut by_rank = BTreeMap::new();
        for (rank, retries, degrades) in retried.chain(survived) {
            let e = by_rank.entry(rank).or_insert(EscalationStat {
                rank,
                ..EscalationStat::default()
            });
            e.retries += retries;
            e.degrades_survived += degrades;
        }
        by_rank.into_values().collect()
    }
}

/// A completed run: the ordinary outcome plus what completing it cost.
pub struct SupervisedRun<T: Scalar> {
    /// The completed run — grids bitwise identical to a fault-free run.
    pub run: NativeRun<T>,
    /// What the completion cost in retries and retransmissions.
    pub recovery: RecoveryReport,
    /// Spill/restore overhead; `DurableReport::default()` for a run
    /// without a disk.
    pub durable: DurableReport,
}

/// Execute `job` under `approach` as `policy` says.
///
/// Completes with a [`SupervisedRun`] whose grids are bitwise identical
/// to a fault-free run and whose *logical* traffic counts are exactly a
/// fault-free run's: every retry's resends are accounted separately in
/// the [`RecoveryReport`], and a run that changed geometry reports each
/// geometry's share in [`RecoveryReport::degradation`]. Fails at once for
/// errors no rerun can fix — a bad geometry (a non-standard node count,
/// a thread count that does not divide the cores, a decomposition finer
/// than the exchange depth), zero grids, an unusable checkpoint
/// directory — and with the last attempt's [`RunError`] once retries and
/// shrinks are exhausted. No failure aborts or hangs the process.
pub fn execute<T: SyntheticFill>(
    job: &NativeJob,
    approach: Approach,
    policy: &RunPolicy<'_>,
) -> Result<SupervisedRun<T>, RunError> {
    let one_shot;
    let cache = match policy.cache {
        Some(cache) => cache,
        None => {
            one_shot = ProgramCache::new(1);
            &one_shot
        }
    };
    let resolve = |job: &NativeJob| JobGeometry::resolve(job, approach, cache, T::BYTES);
    let mut job = *job;
    let mut geo = resolve(&job)?;
    let rolls_back = policy.rolls_back();
    let mut recovery = RecoveryReport::default();
    let mut durable = DurableReport::default();
    // Closed geometries, oldest first: each one shrunk away, or the
    // writer of a spill restored onto a different geometry.
    let mut segments: Vec<GeometrySegment> = Vec::new();
    let mut triggers: Vec<FailureSummary> = Vec::new();
    let mut shrinks = 0u32;
    // The epoch the next geometry resumes from, with its records already
    // on that geometry's layout; `None` is the synthetic fill at epoch 0.
    let mut resume: Option<(usize, Vec<SnapshotRecord<T>>)> = None;

    let disk = match &policy.durable {
        Some(d) if d.restore => Some((d, DurableStore::open(&d.dir)?)),
        Some(d) => Some((d, DurableStore::create(&d.dir)?)),
        None => None,
    };
    if let Some((d, disk)) = disk.as_ref().filter(|(d, _)| d.restore) {
        if let Some(r) = recover_validated(disk, &d.dir, &job, &geo, &resolve, &mut durable)? {
            let records = match r.writer {
                None => r.records,
                Some(writer) => {
                    let parts = r
                        .records
                        .iter()
                        .map(|r| (r.rank, r.slot, r.grids.as_slice()));
                    let records = regrid(parts, &writer, &geo, &job).map_err(|e| {
                        corrupt(
                            &d.dir,
                            format!("gathering the spilled epoch {} failed: {e}", r.epoch),
                        )
                    })?;
                    // The killed process's measured counters died with
                    // it; its committed span is statically known.
                    let span = predicted_logical_span(&writer.programs, 0, r.epoch);
                    segments.push(segment(&writer, (0, r.epoch), span, span));
                    records
                }
            };
            resume = Some((r.epoch, records));
        }
    }

    loop {
        let ranks = geo.map.ranks();
        let config = FabricConfig {
            recv_timeout: Duration::from_millis(job.recv_timeout_ms),
            plan: job.fault,
        };
        let mut fabric: NativeFabric<T> = NativeFabric::with_config(&geo.map, config);
        let poison = job.fault.and_then(|p| p.corrupt_snapshot);
        let store: Option<CheckpointStore<T>> = rolls_back.then(|| {
            CheckpointStore::new(geo.layout().into_iter().map(|s| (s.rank, s.slot)))
                .with_poison(poison.map(|c| (c.rank, c.slot, c.epoch)))
        });
        let start_epoch = resume.as_ref().map_or(0, |(epoch, _)| *epoch);
        if let (Some((epoch, records)), Some(store)) = (resume.take(), &store) {
            for rec in records {
                store.deposit(rec.rank, rec.slot, epoch, rec.grids);
            }
        }
        // A fresh run, or a restore onto the geometry that wrote the
        // spill, accounts for the whole run: its fabric is credited the
        // traffic of the sweeps already done. A geometry that took over
        // from another measures only its own segment.
        let seg_start = if segments.is_empty() { 0 } else { start_epoch };
        if start_epoch > 0 {
            let credits = match seg_start {
                0 => restored_traffic(&geo.programs, start_epoch),
                _ => Vec::new(),
            };
            fabric.resume(start_epoch, credits);
        }

        let mut attempts = || {
            let store = store.as_ref();
            retry_loop(
                &job,
                &policy.retry,
                &geo,
                &fabric,
                store,
                start_epoch,
                &mut recovery,
            )
        };
        let result = match (&disk, &store) {
            (Some((d, disk)), Some(store)) => spilling(
                store,
                disk,
                d.spill_every,
                start_epoch,
                &mut durable,
                attempts,
            ),
            _ => attempts(),
        };
        // Fold this geometry's overhead in before its fabric and store go.
        let stats = fabric.stats();
        recovery.messages_retransmitted += stats.retransmitted_messages;
        recovery.bytes_retransmitted += stats.retransmitted_bytes;
        recovery.corruptions_detected += stats.corruptions_detected;
        recovery.snapshot_digest_failures += store.as_ref().map_or(0, |s| s.digest_failures());
        let logical = (stats.messages_total, stats.bytes_per_node.iter().sum());

        let err = match result {
            Ok(run) => {
                if !segments.is_empty() {
                    segments.push(segment(&geo, (seg_start, job.sweeps), logical, logical));
                    recovery.degradation = Some(DegradationReport { triggers, segments });
                }
                return Ok(SupervisedRun {
                    run,
                    recovery,
                    durable,
                });
            }
            Err(err) => err,
        };
        // Escalate only rank-pinned failures, within budget, onto a
        // geometry that exists.
        let (Some(failures), Some(store)) = (err.rank_failures(), &store) else {
            return Err(err);
        };
        if shrinks >= policy.degrade.max_degrades {
            return Err(err);
        }
        let Some((next_job, next_geo)) = shrink_target(&job, &resolve) else {
            return Err(err);
        };
        // Hand the last verified epoch over; anything unverifiable
        // degrades the resume point to the synthetic fill.
        let epoch = store.verified_consistent_epoch();
        let handed = (epoch > 0)
            .then(|| store.epoch_snapshots(epoch))
            .flatten()
            .and_then(|snaps| {
                let parts = snaps
                    .iter()
                    .map(|s| s.as_record_ref())
                    .map(|r| (r.rank, r.slot, r.grids));
                regrid(parts, &geo, &next_geo, &job).ok()
            });
        let resumed_from = if handed.is_some() { epoch } else { 0 };
        triggers.extend_from_slice(absorb(&mut recovery, failures, store, ranks, resumed_from));
        let committed = predicted_logical_span(&geo.programs, seg_start, resumed_from);
        segments.push(segment(&geo, (seg_start, resumed_from), committed, logical));
        resume = handed.map(|records| (resumed_from, records));
        (job, geo) = (next_job, next_geo);
        shrinks += 1;
    }
}

/// The handle the benchmark package passes to [`run_native`],
/// [`supervise`] and [`supervise_durable`]: an [`Approach`], the one
/// implementor.
pub trait Strategy<T: SyntheticFill> {
    /// The approach to run.
    fn approach(&self) -> Approach;
}

impl<T: SyntheticFill> Strategy<T> for Approach {
    fn approach(&self) -> Approach {
        *self
    }
}

/// `approach` as a [`Strategy`]. Kept because the benchmark package pins
/// this name.
pub fn strategy_for<T: SyntheticFill>(approach: Approach) -> Box<dyn Strategy<T>> {
    Box::new(approach)
}

/// [`execute`] under [`RunPolicy::bare`], returning only the run. Kept
/// because the benchmark package pins this name.
pub fn run_native<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
) -> Result<NativeRun<T>, RunError> {
    execute(job, strategy.approach(), &RunPolicy::bare()).map(|sup| sup.run)
}

/// [`execute`] under [`RunPolicy::supervised`]. Kept because the
/// benchmark package pins this name.
pub fn supervise<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
    policy: &RetryPolicy,
) -> Result<SupervisedRun<T>, RunError> {
    execute(job, strategy.approach(), &RunPolicy::supervised(*policy))
}

/// [`execute`] under [`RunPolicy::supervised`] plus `durability`. Kept
/// because the benchmark package pins this name.
pub fn supervise_durable<T: SyntheticFill>(
    job: &NativeJob,
    strategy: &dyn Strategy<T>,
    policy: &RetryPolicy,
    durability: &DurabilityConfig,
) -> Result<SupervisedRun<T>, RunError> {
    execute(
        job,
        strategy.approach(),
        &RunPolicy {
            durable: Some(durability.clone()),
            ..RunPolicy::supervised(*policy)
        },
    )
}

/// The attempts on one geometry: run from `start_epoch`; on a rank-pinned
/// failure with attempts left, roll the store and fabric back to the
/// verified consistent epoch, back off, and go again. Attempts and
/// absorbed failures are added to `recovery` as they happen, so they
/// survive an `Err` return; the caller folds in the fabric's and store's
/// counters.
fn retry_loop<T: SyntheticFill>(
    job: &NativeJob,
    policy: &RetryPolicy,
    geo: &JobGeometry,
    fabric: &NativeFabric<T>,
    store: Option<&CheckpointStore<T>>,
    mut start_epoch: usize,
    recovery: &mut RecoveryReport,
) -> Result<NativeRun<T>, RunError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        recovery.attempts += 1;
        let err = match run_attempt(job, geo, fabric, store, start_epoch, recovery.attempts) {
            Ok(run) => return Ok(run),
            Err(err) => err,
        };
        // Geometry/config errors are deterministic; retrying cannot
        // change them.
        let Some(failures) = err.rank_failures() else {
            return Err(err);
        };
        let Some(store) = store.filter(|_| attempt < max_attempts) else {
            return Err(err);
        };
        // The *verified* floor: a poisoned snapshot never becomes a
        // rollback target — the walk purges it and degrades, possibly to
        // the synthetic fill (epoch 0, full replay).
        let epoch = store.verified_consistent_epoch();
        absorb(recovery, failures, store, geo.map.ranks(), epoch);
        // All rank threads have been joined; the fabric is quiescent, so
        // rollback is safe.
        store.rollback(epoch);
        fabric.rollback(epoch);
        std::thread::sleep(
            policy
                .base_backoff
                .saturating_mul(2u32.saturating_pow(attempt - 1)),
        );
        start_epoch = epoch;
    }
}

/// Carry one epoch's state from geometry `from` to geometry `to`: gather
/// `records`, borrowed `(rank, slot, grids)` laid out as `from`'s threads
/// deposit, into global grids, then cut those into `to`'s layout for its
/// store. The one path for both a shrink and a restore of a spill another
/// geometry wrote.
fn regrid<'a, T: Scalar>(
    records: impl IntoIterator<Item = (usize, usize, &'a [Grid3<T>])>,
    from: &JobGeometry,
    to: &JobGeometry,
    job: &NativeJob,
) -> Result<Vec<SnapshotRecord<T>>, RegridError> {
    let halo = from.cfg.halo_depth();
    let global = gather_epoch(records, &from.layout(), job.grid_ext, job.n_grids, halo)?;
    Ok(reshard_epoch(&global, &to.layout(), to.cfg.halo_depth()))
}

/// `geo`'s segment over the epoch `span`: `committed` logical traffic,
/// and whatever its fabric counted as `logical` beyond that as discarded.
fn segment(
    geo: &JobGeometry,
    span: (usize, usize),
    committed: (u64, u64),
    logical: (u64, u64),
) -> GeometrySegment {
    GeometrySegment {
        nodes: geo.map.partition.nodes(),
        ranks: geo.map.ranks(),
        proc_dims: geo.map.proc_dims,
        start_epoch: span.0,
        end_epoch: span.1,
        logical_messages: committed.0,
        logical_bytes: committed.1,
        messages_discarded: logical.0.saturating_sub(committed.0),
        bytes_discarded: logical.1.saturating_sub(committed.1),
    }
}

/// The largest geometry strictly below `job.nodes` that resolves
/// (standard partition, valid thread split, subdomains no shallower than
/// the exchange depth). A rejected candidate fails before compiling, so
/// it never reaches the program cache. The shrunken job runs with the
/// permanent lethal fault stripped — the dead rank's hardware is not part
/// of the surviving partition.
fn shrink_target(
    job: &NativeJob,
    resolve: &impl Fn(&NativeJob) -> Result<JobGeometry, RunError>,
) -> Option<(NativeJob, JobGeometry)> {
    (1..job.nodes).rev().find_map(|nodes| {
        let smaller = NativeJob {
            nodes,
            fault: job.fault.map(FaultPlan::without_lethal),
            ..*job
        };
        Some((smaller, resolve(&smaller).ok()?))
    })
}

/// Absorb one failed attempt's `failures` into `recovery`: classify each
/// and record its [`FailureSummary`] as resuming from `resumed_from`, and
/// count every one of the geometry's `ranks` sweeps past that epoch as
/// replayed. Returns the summaries it recorded — the triggers of a shrink.
fn absorb<'r, T: Scalar>(
    recovery: &'r mut RecoveryReport,
    failures: &[RankFailure],
    store: &CheckpointStore<T>,
    ranks: usize,
    resumed_from: usize,
) -> &'r [FailureSummary] {
    for r in 0..ranks {
        recovery.epochs_replayed += store.rank_epoch(r).saturating_sub(resumed_from);
    }
    let (first, attempt) = (recovery.failures.len(), recovery.attempts);
    recovery
        .failures
        .extend(failures.iter().map(|f| FailureSummary {
            attempt,
            rank: f.rank,
            class: classify(f),
            resumed_from,
        }));
    &recovery.failures[first..]
}

/// Classify one rank failure for the [`RecoveryReport`].
fn classify(f: &RankFailure) -> FailureClass {
    match &f.kind {
        FailureKind::Panic(_) => FailureClass::Panic,
        FailureKind::Corrupt(_) => FailureClass::Corrupted,
        FailureKind::RecvTimeout(t) => {
            let in_flight = t.diagnostic.queues.iter().any(|q| {
                q.dst == t.rank
                    && q.src == t.src
                    && q.tag == t.tag
                    && (q.queued > 0 || q.parked > 0)
            });
            if in_flight {
                FailureClass::Stalled
            } else {
                FailureClass::Starved
            }
        }
        FailureKind::Undrained => FailureClass::Undrained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_fd::fault::{FabricDiagnostic, QueueStat, RecvTimeout};

    fn timeout_failure(queues: Vec<QueueStat>) -> RankFailure {
        RankFailure {
            rank: 1,
            phase: "halo-wait",
            kind: FailureKind::RecvTimeout(Box::new(RecvTimeout {
                rank: 1,
                src: 0,
                tag: 7,
                waited: Duration::from_millis(300),
                diagnostic: FabricDiagnostic {
                    queues,
                    ..FabricDiagnostic::default()
                },
            })),
        }
    }

    #[test]
    fn empty_awaited_queue_classifies_as_starved() {
        assert_eq!(
            classify(&timeout_failure(Vec::new())),
            FailureClass::Starved
        );
        // Traffic on a *different* tag is not the awaited message.
        let other_tag = timeout_failure(vec![QueueStat {
            dst: 1,
            src: 0,
            tag: 9,
            queued: 3,
            parked: 0,
        }]);
        assert_eq!(classify(&other_tag), FailureClass::Starved);
    }

    #[test]
    fn in_flight_awaited_traffic_classifies_as_stalled() {
        let stalled = timeout_failure(vec![QueueStat {
            dst: 1,
            src: 0,
            tag: 7,
            queued: 0,
            parked: 1,
        }]);
        assert_eq!(classify(&stalled), FailureClass::Stalled);
    }

    #[test]
    fn detected_corruption_classifies_as_corrupted() {
        use gpaw_fd::fault::PayloadCorruption;
        let c = RankFailure {
            rank: 1,
            phase: "halo-verify",
            kind: FailureKind::Corrupt(Box::new(PayloadCorruption {
                rank: 1,
                src: 0,
                tag: 7,
                seq: 3,
                diagnostic: FabricDiagnostic::default(),
            })),
        };
        assert_eq!(classify(&c), FailureClass::Corrupted);
    }

    #[test]
    fn panics_and_undrained_keep_their_own_classes() {
        let p = RankFailure {
            rank: 0,
            phase: "run",
            kind: FailureKind::Panic("boom".into()),
        };
        assert_eq!(classify(&p), FailureClass::Panic);
        let u = RankFailure {
            rank: 0,
            phase: "drain",
            kind: FailureKind::Undrained,
        };
        assert_eq!(classify(&u), FailureClass::Undrained);
    }

    fn segment_of(ranks: usize, (start_epoch, end_epoch): (usize, usize)) -> GeometrySegment {
        GeometrySegment {
            nodes: 1,
            ranks,
            proc_dims: [ranks, 1, 1],
            start_epoch,
            end_epoch,
            logical_messages: 0,
            logical_bytes: 0,
            messages_discarded: 0,
            bytes_discarded: 0,
        }
    }

    fn failed(attempt: u32, rank: usize, resumed_from: usize) -> FailureSummary {
        FailureSummary {
            attempt,
            rank,
            class: FailureClass::Panic,
            resumed_from,
        }
    }

    #[test]
    fn rank_escalations_derive_from_failures_and_segments() {
        let stat = |rank, retries, degrades_survived| EscalationStat {
            rank,
            retries,
            degrades_survived,
        };
        // Retries alone, without a geometry change.
        let retried = RecoveryReport {
            attempts: 3,
            failures: vec![failed(1, 2, 0), failed(2, 2, 1), failed(2, 0, 1)],
            ..RecoveryReport::default()
        };
        assert_eq!(
            retried.rank_escalations(),
            vec![stat(0, 1, 0), stat(2, 2, 0)]
        );
        // A restore onto 4 ranks of a spill an 8-rank geometry wrote
        // (segment 0 never ran in this process), then a shrink from 4
        // ranks to 2: rank 1 failed on both geometries, so its counters
        // sum across them; the writer's ranks 4..8 earn nothing.
        let triggers = vec![failed(3, 1, 4), failed(3, 3, 4)];
        let mut failures = vec![failed(1, 1, 3), failed(2, 1, 4)];
        failures.extend_from_slice(&triggers);
        failures.push(failed(4, 1, 5));
        let degradation = DegradationReport {
            triggers,
            segments: vec![
                segment_of(8, (0, 2)),
                segment_of(4, (2, 4)),
                segment_of(2, (4, 6)),
            ],
        };
        assert_eq!(
            (
                degradation.from_ranks(),
                degradation.to_ranks(),
                degradation.degrades()
            ),
            (8, 2, 2)
        );
        let report = RecoveryReport {
            attempts: 5,
            failures,
            degradation: Some(degradation),
            ..RecoveryReport::default()
        };
        assert_eq!(
            report.rank_escalations(),
            vec![stat(0, 0, 2), stat(1, 4, 2), stat(2, 0, 1), stat(3, 1, 1)]
        );
        assert!(RecoveryReport::default().rank_escalations().is_empty());
    }

    #[test]
    fn hybrid_multiple_registers_one_key_per_endpoint() {
        let keys = |approach| {
            let job = NativeJob::new([16, 16, 16], 4, 2).with_threads(4);
            let geo = JobGeometry::resolve(&job, approach, &ProgramCache::new(1), 8)
                .expect("valid geometry");
            let layout = geo.layout();
            layout.iter().map(|s| (s.rank, s.slot)).collect::<Vec<_>>()
        };
        let hm = keys(Approach::HybridMultiple);
        assert_eq!(hm.len(), 8);
        assert!(hm.contains(&(1, 3)));
        assert_eq!(keys(Approach::HybridMasterOnly), vec![(0, 0), (1, 0)]);
    }
}
