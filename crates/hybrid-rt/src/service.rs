//! The multi-tenant job service: many jobs, one fabric's worth of workers.
//!
//! Everything below this module runs *one* job at a time; the ROADMAP's
//! north star is the opposite regime — thousands of jobs from many
//! tenants multiplexed over a fixed pool. [`JobService`] is that layer:
//!
//! * **admission control** — [`JobService::submit`] is non-blocking. A
//!   full queue answers [`AdmissionError::QueueFull`] immediately, and a
//!   job whose geometry can never run (bad node count, non-divisor thread
//!   count, a decomposition finer than the exchange depth, zero grids)
//!   bounces at the door, before anything is compiled, with
//!   [`AdmissionError::Rejected`] instead of wasting a worker slot;
//! * **fair scheduling** — one FIFO lane per tenant. Workers pick the
//!   lane whose head job has the highest [`Priority`]; ties go to the
//!   tenant with the least dispatched work (summed job flops), then to
//!   the earliest submission. The rule reads only scheduler state, so a
//!   given submission order dispatches in a deterministic order;
//! * **program cache** — every worker resolves compiled sweep programs
//!   through one shared [`ProgramCache`]: repeat traffic with the same
//!   `(FdConfig, CartMap, threads)` shape skips `compile_rank` entirely
//!   ([`ServiceStats::cache`] exposes the hit/miss counters);
//! * **fault isolation** — every job is one [`execute`] call under one
//!   [`RunPolicy`], with its own fabric and checkpoint store; durability
//!   and shrink-to-survive compose. A tenant's injected panic or
//!   black-holed message is retried to completion inside its own run;
//!   neighbors share nothing but the scheduler lock and immutable cached
//!   programs, so their bitwise results and traffic counts cannot move;
//! * **bitwise accountability** — each completed job reports an FNV-1a
//!   [`digest`](run_digest) over every result grid's raw bit patterns
//!   plus its logical traffic counts, so a caller (or the service soak)
//!   can hold any concurrent run to its solo-run identity without keeping
//!   the grids alive.
//!
//! Shutdown is graceful: [`JobService::join`] drains the queue, stops the
//! workers, and returns the [`ServiceStats`] ledger.

use crate::durable::DurabilityConfig;
use crate::error::RunError;
use crate::runtime::{check_geometry, NativeJob};
use crate::supervisor::{execute, DegradePolicy, RecoveryReport, RetryPolicy, RunPolicy};
use gpaw_fd::config::Approach;
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::progcache::{CacheStats, ProgramCache};
use gpaw_grid::gridset::GridSet;
use gpaw_grid::scalar::Scalar;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling priority of a submitted job. Within a tenant, jobs stay
/// FIFO regardless of priority — priority orders *lanes*, not jobs, so a
/// tenant cannot starve its own backlog by tagging everything high.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Dispatched before any normal or low lane.
    High,
    /// The default.
    Normal,
    /// Dispatched only when no higher lane has work.
    Low,
}

impl Priority {
    fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug)]
pub enum AdmissionError {
    /// The bounded queue is at capacity; resubmit after completions.
    QueueFull {
        /// The configured bound the queue is at.
        capacity: usize,
    },
    /// The job can never run: its geometry failed validation.
    Rejected(RunError),
    /// A durable submission on a service with no
    /// [`ServiceConfig::durable_root`] configured.
    DurabilityUnavailable,
    /// A durable job name that could escape the durable root: empty, a
    /// path separator, or a `..` component.
    InvalidDurableName(String),
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            AdmissionError::Rejected(e) => write!(f, "job rejected at admission: {e}"),
            AdmissionError::DurabilityUnavailable => {
                write!(f, "durable submission on a service with no durable_root")
            }
            AdmissionError::InvalidDurableName(name) => {
                write!(
                    f,
                    "invalid durable job name {name:?}: must be a single path component"
                )
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Knobs of a [`JobService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads sharing the queue (min 1). Each runs one job at a
    /// time, so this bounds the jobs in flight.
    pub workers: usize,
    /// Submission-queue bound across all tenants; submissions beyond it
    /// get [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Compiled jobs the program cache retains (LRU beyond this).
    pub cache_capacity: usize,
    /// Supervisor retry policy every job runs under.
    pub retry: RetryPolicy,
    /// Escalation policy past exhausted retries: jobs whose geometry
    /// keeps failing — durable ones included — shrink onto fewer ranks
    /// (reporting the geometry walk in its `recovery.degradation`) instead
    /// of failing the tenant. [`DegradePolicy::disabled`] restores fail-fast behavior.
    pub degrade: DegradePolicy,
    /// Keep each job's final grids in its outcome. Off by default: the
    /// digest already pins the result bitwise, and grids are the one
    /// outcome field whose memory scales with job size.
    pub keep_grids: bool,
    /// Start with dispatch paused; queued jobs wait until
    /// [`JobService::resume`]. Lets a caller stage a deterministic
    /// backlog before the workers race for it.
    pub start_paused: bool,
    /// Root directory for durable jobs. `None` (the default) turns
    /// [`JobService::submit_durable`] away with
    /// [`AdmissionError::DurabilityUnavailable`]; `Some(root)` gives each
    /// durable job the spill directory `root/<name>`, so a job
    /// resubmitted under the same name after a server restart resumes
    /// from its newest durable epoch.
    pub durable_root: Option<PathBuf>,
    /// Spill stride for durable jobs: write every Nth consistent epoch
    /// (clamped to at least 1). The final epoch is always spilled.
    pub spill_every: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
            keep_grids: false,
            start_paused: false,
            durable_root: None,
            spill_every: 1,
        }
    }
}

/// What one completed job cost and produced.
#[derive(Debug)]
pub struct JobResult<T: Scalar> {
    /// FNV-1a digest over every result grid's interior bit patterns, in
    /// rank order — equal digests mean bitwise-identical results.
    pub digest: u64,
    /// Logical messages posted (retransmissions excluded).
    pub messages: u64,
    /// Logical network payload bytes (retransmissions excluded).
    pub network_bytes: u64,
    /// Supervision overhead: attempts, replays, retransmissions — and,
    /// when the job only completed by degrading onto a smaller geometry
    /// (an escalated shrink, or a durable restore onto a different
    /// partition), the geometry walk in `recovery.degradation`.
    pub recovery: RecoveryReport,
    /// For a durable job, the epoch it resumed from (0 = ran from the
    /// start). Always 0 for plain submissions.
    pub resumed_from_epoch: usize,
    /// The final grids, kept only under [`ServiceConfig::keep_grids`].
    pub sets: Option<Vec<GridSet<T>>>,
}

/// The terminal record of one submitted job.
#[derive(Debug)]
pub struct ServiceOutcome<T: Scalar> {
    /// The submitting tenant.
    pub tenant: String,
    /// The job's service-wide id (its submission sequence number).
    pub job_id: u64,
    /// Position in the dispatch order (0-based) — what the fairness rule
    /// actually decided.
    pub dispatch_seq: u64,
    /// Time spent queued, submission to dispatch.
    pub queued: Duration,
    /// Time spent running (supervision included).
    pub ran: Duration,
    /// The run's result: completed with a ledger, or failed for good.
    pub result: Result<JobResult<T>, RunError>,
}

/// The service's lifetime ledger, returned by [`JobService::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted past admission.
    pub submitted: u64,
    /// Jobs that completed (possibly after supervised retries).
    pub completed: u64,
    /// Jobs whose supervision exhausted its retry budget.
    pub failed: u64,
    /// Program-cache counters.
    pub cache: CacheStats,
    /// Jobs dispatched per tenant.
    pub served: BTreeMap<String, u64>,
}

/// The run-parity digest, re-exported from the shared integrity module
/// so every digest value (and therefore every recorded solo-run parity
/// check) is unchanged.
pub use gpaw_fd::integrity::run_digest;

/// One queued submission.
struct QueuedJob<T: Scalar> {
    seq: u64,
    tenant: String,
    priority: Priority,
    approach: Approach,
    job: NativeJob,
    /// `Some(dir)` makes the run durable under that spill directory
    /// (resolved to `durable_root/<name>` at admission).
    durable: Option<PathBuf>,
    submitted: Instant,
    slot: Arc<Slot<T>>,
}

/// The rendezvous a [`JobHandle`] waits on.
#[derive(Debug)]
struct Slot<T: Scalar> {
    outcome: Mutex<Option<ServiceOutcome<T>>>,
    done: Condvar,
}

/// A claim on one submitted job's eventual [`ServiceOutcome`].
#[derive(Debug)]
pub struct JobHandle<T: Scalar> {
    /// The job's service-wide id.
    pub job_id: u64,
    slot: Arc<Slot<T>>,
}

impl<T: Scalar> JobHandle<T> {
    /// Block until the job completes and take its outcome. The outcome
    /// is delivered once; a second `wait` on the same handle blocks
    /// forever, so call it once per submission.
    pub fn wait(&self) -> ServiceOutcome<T> {
        let mut guard = self.slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct SchedState<T: Scalar> {
    /// One FIFO lane per tenant. `BTreeMap` so scheduler scans iterate in
    /// a deterministic (lexicographic) order.
    lanes: BTreeMap<String, VecDeque<QueuedJob<T>>>,
    /// Jobs currently queued across all lanes.
    queued: usize,
    /// Jobs dispatched per tenant.
    served: BTreeMap<String, u64>,
    /// Flops dispatched per tenant — the fairness currency.
    served_cost: BTreeMap<String, f64>,
    next_seq: u64,
    next_dispatch: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    paused: bool,
    shutdown: bool,
}

struct Shared<T: SyntheticFill> {
    state: Mutex<SchedState<T>>,
    work: Condvar,
    cache: ProgramCache,
    retry: RetryPolicy,
    degrade: DegradePolicy,
    keep_grids: bool,
    queue_capacity: usize,
    durable_root: Option<PathBuf>,
    spill_every: usize,
}

/// The job server. Generic over the grid scalar, like the runtime it
/// drives; a service instance runs jobs of one scalar width.
pub struct JobService<T: SyntheticFill> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: SyntheticFill> JobService<T> {
    /// Start the worker pool.
    pub fn start(config: ServiceConfig) -> JobService<T> {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                lanes: BTreeMap::new(),
                queued: 0,
                served: BTreeMap::new(),
                served_cost: BTreeMap::new(),
                next_seq: 0,
                next_dispatch: 0,
                submitted: 0,
                completed: 0,
                failed: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            work: Condvar::new(),
            cache: ProgramCache::new(config.cache_capacity),
            retry: config.retry,
            degrade: config.degrade,
            keep_grids: config.keep_grids,
            queue_capacity: config.queue_capacity.max(1),
            durable_root: config.durable_root,
            spill_every: config.spill_every.max(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        JobService { shared, workers }
    }

    /// Submit a job to `tenant`'s lane. Non-blocking: the job is either
    /// queued (with a [`JobHandle`] to wait on) or turned away with the
    /// reason. Geometry is validated here, so a handle means the job can
    /// actually run.
    pub fn submit(
        &self,
        tenant: &str,
        priority: Priority,
        approach: Approach,
        job: NativeJob,
    ) -> Result<JobHandle<T>, AdmissionError> {
        self.submit_inner(tenant, priority, approach, job, None)
    }

    /// Submit a *durable* job: it spills consistent epochs to
    /// `durable_root/<name>` while it runs, and — the restart contract —
    /// a job resubmitted under the same `name` (to this service or a
    /// later one sharing the root) resumes from the newest durable epoch
    /// instead of starting over. `name` must be a single path component
    /// (no separators, not `..`); the result's
    /// [`JobResult::resumed_from_epoch`] reports where the run picked up.
    pub fn submit_durable(
        &self,
        tenant: &str,
        priority: Priority,
        approach: Approach,
        job: NativeJob,
        name: &str,
    ) -> Result<JobHandle<T>, AdmissionError> {
        let Some(root) = &self.shared.durable_root else {
            return Err(AdmissionError::DurabilityUnavailable);
        };
        let escapes = name.is_empty()
            || name == "."
            || name == ".."
            || name.contains('/')
            || name.contains('\\');
        if escapes {
            return Err(AdmissionError::InvalidDurableName(name.to_string()));
        }
        self.submit_inner(tenant, priority, approach, job, Some(root.join(name)))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        priority: Priority,
        approach: Approach,
        job: NativeJob,
        durable: Option<PathBuf>,
    ) -> Result<JobHandle<T>, AdmissionError> {
        check_geometry(&job, approach).map_err(AdmissionError::Rejected)?;
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let mut st = self.lock_state();
            if st.shutdown {
                return Err(AdmissionError::ShuttingDown);
            }
            if st.queued >= self.shared.queue_capacity {
                return Err(AdmissionError::QueueFull {
                    capacity: self.shared.queue_capacity,
                });
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.submitted += 1;
            st.queued += 1;
            st.lanes
                .entry(tenant.to_string())
                .or_default()
                .push_back(QueuedJob {
                    seq,
                    tenant: tenant.to_string(),
                    priority,
                    approach,
                    job,
                    durable,
                    submitted: Instant::now(),
                    slot: Arc::clone(&slot),
                });
            self.shared.work.notify_one();
            Ok(JobHandle { job_id: seq, slot })
        }
    }

    /// Open the dispatch gate of a service started with
    /// [`ServiceConfig::start_paused`]. Idempotent.
    pub fn resume(&self) {
        let mut st = self.lock_state();
        st.paused = false;
        drop(st);
        self.shared.work.notify_all();
    }

    /// Current program-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Drain the queue, stop the workers, and return the ledger. Queued
    /// jobs still run to completion first (even on a paused service —
    /// shutdown opens the gate).
    pub fn join(mut self) -> ServiceStats {
        self.shutdown_and_join();
        let st = self.lock_state();
        ServiceStats {
            submitted: st.submitted,
            completed: st.completed,
            failed: st.failed,
            cache: self.shared.cache.stats(),
            served: st.served.clone(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SchedState<T>> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shutdown_and_join(&mut self) {
        {
            let mut st = self.lock_state();
            st.shutdown = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            // Runs contain their ranks' panics and admission rejects every
            // geometry that could trip a plan assert, so a worker only
            // panics on a driver bug — and then nothing delivers that
            // job's outcome. Its join error carries nothing to salvage.
            let _ = w.join();
        }
    }
}

impl<T: SyntheticFill> Drop for JobService<T> {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The fairness rule: pick the lane whose head job wins on
/// `(priority, least dispatched flops, earliest submission)`. Returns the
/// winning tenant's name.
fn pick_tenant<T: Scalar>(st: &SchedState<T>) -> Option<String> {
    let mut best: Option<(u8, f64, u64, &str)> = None;
    for (tenant, lane) in &st.lanes {
        let Some(head) = lane.front() else { continue };
        let cost = st.served_cost.get(tenant).copied().unwrap_or(0.0);
        let cand = (head.priority.rank(), cost, head.seq, tenant.as_str());
        let wins = match &best {
            None => true,
            Some((p, c, s, _)) => {
                (cand.0, cand.1.total_cmp(c), cand.2) < (*p, std::cmp::Ordering::Equal, *s)
            }
        };
        if wins {
            best = Some(cand);
        }
    }
    best.map(|(_, _, _, t)| t.to_string())
}

fn worker_loop<T: SyntheticFill>(shared: &Shared<T>) {
    loop {
        let (qjob, dispatch_seq) = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let winner = if st.paused { None } else { pick_tenant(&st) };
                if let Some(tenant) = winner {
                    let Some(lane) = st.lanes.get_mut(&tenant) else {
                        continue;
                    };
                    let Some(qjob) = lane.pop_front() else {
                        continue;
                    };
                    st.queued -= 1;
                    *st.served.entry(tenant.clone()).or_insert(0) += 1;
                    *st.served_cost.entry(tenant).or_insert(0.0) += qjob.job.flops();
                    let dispatch_seq = st.next_dispatch;
                    st.next_dispatch += 1;
                    break (qjob, dispatch_seq);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        let queued = qjob.submitted.elapsed();
        let started = Instant::now();
        let policy = RunPolicy {
            retry: shared.retry,
            degrade: shared.degrade,
            // Durable lane: spill under root/<name>, and restore first if
            // that directory already exists — a same-name resubmission
            // after a restart picks up where the dead server left off.
            durable: qjob.durable.as_ref().map(|dir| {
                DurabilityConfig::new(dir)
                    .with_spill_every(shared.spill_every)
                    .with_restore(dir.is_dir())
            }),
            cache: Some(&shared.cache),
        };
        let result = execute(&qjob.job, qjob.approach, &policy).map(|sup| JobResult {
            digest: run_digest(&sup.run.sets),
            messages: sup.run.report.messages,
            network_bytes: sup.run.report.total_network_bytes,
            recovery: sup.recovery,
            resumed_from_epoch: sup.durable.resumed_from,
            sets: shared.keep_grids.then_some(sup.run.sets),
        });
        let ran = started.elapsed();
        {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if result.is_ok() {
                st.completed += 1;
            } else {
                st.failed += 1;
            }
        }
        let outcome = ServiceOutcome {
            tenant: qjob.tenant,
            job_id: qjob.seq,
            dispatch_seq,
            queued,
            ran,
            result,
        };
        *qjob.slot.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        qjob.slot.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_lanes_order_high_first() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
    }

    #[test]
    fn digest_separates_bitwise_different_sets() {
        use gpaw_grid::grid3::Grid3;
        let a = Grid3::<f64>::from_fn([2, 2, 2], 1, |i, j, k| (i + 2 * j + 4 * k) as f64);
        let mut b = a.clone();
        b.set(0, 0, 0, 1.0);
        let sa = vec![GridSet::from_grids(vec![a.clone()])];
        let sb = vec![GridSet::from_grids(vec![b])];
        assert_ne!(run_digest(&sa), run_digest(&sb));
        let sa2 = vec![GridSet::from_grids(vec![a])];
        assert_eq!(run_digest(&sa), run_digest(&sa2));
    }
}
