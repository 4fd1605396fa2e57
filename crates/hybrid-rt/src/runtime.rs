//! Launching a native run: one attempt of the shared launcher.
//!
//! A native run is the counterpart of `gpaw_fd::exec::run_distributed`:
//! the same [`CartMap`]/`RankPlan` geometry, the same synthetic fill, the
//! same launcher and interpreter (`gpaw_fd::interp::launch`) — over a
//! [`NativeFabric`] with faults, checkpoints and a configurable watchdog.
//! The outcome carries the final grids (for bitwise validation), a
//! [`RunReport`] in the timed plane's shape, and the raw per-thread span
//! timelines (for the Chrome exporter).
//!
//! The launcher contains every rank failure — a panicking rank, a
//! receive that hits the deadlock watchdog, an undrained fabric; this
//! module turns them into a [`RunError::Failed`] (or, when a payload was
//! proven corrupt, [`RunError::Integrity`]) listing every rank's failure
//! worst first. The fault plane is wired in through
//! [`NativeJob::with_fault`] and [`NativeJob::with_recv_timeout_ms`].
//!
//! This module holds the two halves of a run: *geometry resolution*
//! (`JobGeometry::resolve`, every check plus every rank's compiled
//! programs) and *one attempt* (`run_attempt`). The run driver
//! ([`crate::supervisor::execute`]) resolves each geometry once and
//! replays attempts on it from checkpointed epochs.

use crate::error::RunError;
use crate::report::native_run_report;
use gpaw_bgp_hw::spec::STENCIL_FLOPS_PER_POINT;
use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_des::SimDuration;
use gpaw_fd::checkpoint::{shard_layout, CheckpointStore, ShardSpec};
use gpaw_fd::config::{Approach, FdConfig};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::fabric::NativeFabric;
use gpaw_fd::fault::FaultPlan;
use gpaw_fd::interp::{launch, FailureKind, Launch, RankFailure};
use gpaw_fd::plan::{decomposition_shortfall, rank_assignment};
use gpaw_fd::progcache::{JobPrograms, ProgramCache};
use gpaw_fd::trace::{ThreadResult, ThreadSpans};
use gpaw_grid::gridset::GridSet;
use gpaw_grid::scalar::Scalar;
use gpaw_grid::stencil::{BoundaryCond, StencilCoeffs};
use gpaw_simmpi::RunReport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one native run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeJob {
    /// Global grid extents.
    pub grid_ext: [usize; 3],
    /// Wave functions (grids) in the job.
    pub n_grids: usize,
    /// Synthetic-fill seed.
    pub seed: u64,
    /// Nodes of the modeled partition (a standard power-of-two count).
    pub nodes: usize,
    /// Threads per process for the hybrid strategies; must divide the
    /// cores one process drives. Flat strategies always run one thread per
    /// rank, as virtual node mode dictates.
    pub threads: usize,
    /// Grids per message batch.
    pub batch: usize,
    /// Applications of the FD operator.
    pub sweeps: usize,
    /// Global boundary condition.
    pub bc: BoundaryCond,
    /// Grid spacing per axis (Laplacian coefficients).
    pub spacing: [f64; 3],
    /// Deadlock-watchdog budget per receive, in milliseconds (plumbs into
    /// [`FabricConfig::recv_timeout`](crate::fault::FabricConfig::recv_timeout)).
    /// A receive that waits longer fails the run with a fabric snapshot
    /// instead of hanging.
    pub recv_timeout_ms: u64,
    /// Sleep this long at every sweep boundary (each `AdvanceBuffer`),
    /// per thread. 0 (the default) means full speed; the durability soak
    /// stretches runs with it so a SIGKILL can land at any sweep. Pure
    /// wall-clock — grids and logical traffic are unaffected.
    pub sweep_throttle_ms: u64,
    /// Optional deterministic fault plan perturbing the fabric.
    pub fault: Option<FaultPlan>,
}

impl NativeJob {
    /// A job with the paper's defaults: periodic boundaries, 4 threads,
    /// seed 42, one sweep, batch of 4, a 30 s watchdog, no faults.
    pub fn new(grid_ext: [usize; 3], n_grids: usize, nodes: usize) -> NativeJob {
        NativeJob {
            grid_ext,
            n_grids,
            seed: 42,
            nodes,
            threads: 4,
            batch: 4,
            sweeps: 1,
            bc: BoundaryCond::Periodic,
            spacing: [0.2, 0.25, 0.3],
            recv_timeout_ms: 30_000,
            sweep_throttle_ms: 0,
            fault: None,
        }
    }

    /// Set the thread count.
    pub fn with_threads(mut self, threads: usize) -> NativeJob {
        self.threads = threads;
        self
    }

    /// Set the sweep count.
    pub fn with_sweeps(mut self, sweeps: usize) -> NativeJob {
        self.sweeps = sweeps;
        self
    }

    /// Inject a deterministic fault plan into the run's fabric.
    pub fn with_fault(mut self, plan: FaultPlan) -> NativeJob {
        self.fault = Some(plan);
        self
    }

    /// Set the deadlock-watchdog budget per receive.
    pub fn with_recv_timeout_ms(mut self, ms: u64) -> NativeJob {
        self.recv_timeout_ms = ms;
        self
    }

    /// Set the per-sweep wall-clock throttle (see `sweep_throttle_ms`).
    pub fn with_sweep_throttle_ms(mut self, ms: u64) -> NativeJob {
        self.sweep_throttle_ms = ms;
        self
    }

    /// Set the synthetic-fill seed.
    pub fn with_seed(mut self, seed: u64) -> NativeJob {
        self.seed = seed;
        self
    }

    /// The engine config this job implies for `approach`.
    pub fn config(&self, approach: Approach) -> FdConfig {
        let mut cfg = FdConfig::paper(approach)
            .with_batch(self.batch)
            .with_sweeps(self.sweeps);
        cfg.bc = self.bc;
        cfg
    }

    /// Stencil flops the whole job retires (points × grids × sweeps × 25).
    pub fn flops(&self) -> f64 {
        let points: usize = self.grid_ext.iter().product();
        points as f64 * self.n_grids as f64 * self.sweeps as f64 * STENCIL_FLOPS_PER_POINT
    }
}

/// The outcome of one native run.
pub struct NativeRun<T: Scalar> {
    /// Each rank's final local grids, in rank order.
    pub sets: Vec<GridSet<T>>,
    /// The run in the timed plane's report shape.
    pub report: RunReport,
    /// Raw per-thread span timelines, ordered by (rank, slot).
    pub timelines: Vec<ThreadSpans>,
    /// The geometry the run executed on.
    pub map: CartMap,
}

/// A job's execution geometry, resolved once per geometry a run executes
/// on and shared by every attempt there: the rank/node map, the engine
/// config, the stencil, and every rank's compiled sweep programs.
pub(crate) struct JobGeometry {
    pub map: CartMap,
    pub cfg: FdConfig,
    pub coef: StencilCoeffs,
    /// Compiled programs for all ranks, shared via the program cache.
    pub programs: Arc<JobPrograms>,
}

/// Every check a run makes before anything is compiled or spawned: grids
/// to sweep, a standard partition, a thread count that divides the
/// cores, subdomains no shallower than the exchange depth, and a grid on
/// every rank. Returns the rank map, the threads per rank and the engine
/// config. Admission calls this alone, so a rejected job never reaches
/// the program cache.
pub(crate) fn check_geometry(
    job: &NativeJob,
    approach: Approach,
) -> Result<(CartMap, usize, FdConfig), RunError> {
    if job.n_grids == 0 {
        return Err(RunError::NoGrids);
    }
    let partition = Partition::standard(job.nodes, approach.exec_mode())
        .ok_or(RunError::UnsupportedNodeCount { nodes: job.nodes })?;
    let map = CartMap::best(partition, job.grid_ext);
    let threads = match approach {
        Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
            job.threads
        }
        _ => 1,
    };
    map.cores_per_thread(threads)?;
    let cfg = job.config(approach);
    if let Some((axis, sub_extent)) = decomposition_shortfall(&map, job.grid_ext, &cfg) {
        return Err(RunError::Decomposition {
            axis,
            sub_extent,
            halo_depth: cfg.halo_depth(),
        });
    }
    let mut cores: Vec<usize> = (0..map.ranks())
        .filter(|&rank| rank_assignment(approach, job.n_grids, &map, rank).count == 0)
        .map(|rank| map.core_of(rank))
        .collect();
    cores.sort_unstable();
    cores.dedup();
    if !cores.is_empty() {
        return Err(RunError::IdleCores {
            approach,
            n_grids: job.n_grids,
            cores,
        });
    }
    Ok((map, threads, cfg))
}

impl JobGeometry {
    /// [`check_geometry`], then every rank's programs through `cache` — a
    /// hit skips `compile_rank` entirely, a miss compiles the whole job
    /// once and memoizes it for the next job of the same shape.
    /// `bytes_per_point` is the scalar width the run will use
    /// (`T::BYTES`); it is part of the cache key because the plan's
    /// message sizes depend on it.
    pub(crate) fn resolve(
        job: &NativeJob,
        approach: Approach,
        cache: &ProgramCache,
        bytes_per_point: usize,
    ) -> Result<JobGeometry, RunError> {
        let (map, threads, cfg) = check_geometry(job, approach)?;
        let programs = cache.get_or_compile(
            &cfg,
            &map,
            job.grid_ext,
            job.n_grids,
            threads,
            bytes_per_point,
        );
        Ok(JobGeometry {
            map,
            cfg,
            coef: StencilCoeffs::laplacian(job.spacing),
            programs,
        })
    }

    /// The geometry's checkpoint layout: one shard per `(rank, slot)` key
    /// its depositing threads snapshot under.
    pub(crate) fn layout(&self) -> Vec<ShardSpec> {
        shard_layout(&self.programs)
    }
}

/// One attempt at `job`: launch every rank from `start_epoch` and
/// collect either a [`NativeRun`] or the worst-first failure list. The
/// driver calls it against one fabric (and, when the policy can roll
/// back, one checkpoint store) per geometry, rolling both back to a
/// consistent epoch between attempts.
pub(crate) fn run_attempt<T: SyntheticFill>(
    job: &NativeJob,
    geo: &JobGeometry,
    fabric: &NativeFabric<T>,
    ckpt: Option<&CheckpointStore<T>>,
    start_epoch: usize,
) -> Result<NativeRun<T>, RunError> {
    let epoch = Instant::now();
    let outcomes = launch(&Launch {
        fabric,
        coef: &geo.coef,
        programs: &geo.programs,
        grid_ext: job.grid_ext,
        seed: job.seed,
        start_sweep: start_epoch,
        ckpt,
        throttle: Duration::from_millis(job.sweep_throttle_ms),
        epoch,
    });
    let makespan = SimDuration::from_ns(epoch.elapsed().as_nanos() as u64);

    let mut sets = Vec::with_capacity(outcomes.len());
    let mut all_results: Vec<ThreadResult> = Vec::new();
    let mut failures: Vec<RankFailure> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok((set, results)) => {
                sets.push(set);
                all_results.extend(results);
            }
            Err(f) => failures.push(f),
        }
    }
    if !failures.is_empty() {
        failures.sort_by_key(|f| (f.kind.severity(), f.rank));
        let strategy = geo.cfg.approach.label();
        // Any proven checksum mismatch makes the whole run an integrity
        // failure: the typed variant is what lets the supervisor (and the
        // soaks' exit codes) treat corruption as its own class, not a
        // generic stall.
        let corrupt = failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Corrupt(_)));
        return Err(if corrupt {
            RunError::Integrity { strategy, failures }
        } else {
            RunError::Failed { strategy, failures }
        });
    }

    all_results.sort_by_key(|r| (r.phases.rank, r.phases.slot));
    let timelines: Vec<ThreadSpans> = all_results
        .iter()
        .map(|r| ThreadSpans {
            rank: r.phases.rank,
            slot: r.phases.slot,
            spans: r.spans.clone(),
        })
        .collect();
    let thread_phases = all_results.into_iter().map(|r| r.phases).collect();
    let report = native_run_report(makespan, thread_phases, &fabric.stats(), job.flops());
    Ok(NativeRun {
        sets,
        report,
        timelines,
        map: geo.map.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{execute, RunPolicy};
    use gpaw_bgp_hw::MapError;

    /// The error a bare hybrid-multiple run of `job` fails with.
    fn bare_error(job: &NativeJob) -> RunError {
        execute::<f64>(job, Approach::HybridMultiple, &RunPolicy::bare())
            .err()
            .expect("the job must be rejected")
    }

    #[test]
    fn thread_counts_that_do_not_divide_are_rejected() {
        let job = NativeJob::new([12, 12, 12], 4, 2).with_threads(3);
        let err = bare_error(&job);
        assert!(matches!(
            err,
            RunError::Map(MapError::ThreadCountNotDivisor {
                threads: 3,
                cores: 4
            })
        ));
    }

    #[test]
    fn unsupported_node_counts_are_an_error_not_a_panic() {
        let job = NativeJob::new([12, 12, 12], 2, 3);
        let err = bare_error(&job);
        assert!(matches!(err, RunError::UnsupportedNodeCount { nodes: 3 }));
        assert!(err.to_string().contains("unsupported node count 3"));
    }

    #[test]
    fn zero_grid_jobs_are_rejected() {
        let mut job = NativeJob::new([12, 12, 12], 1, 1);
        job.n_grids = 0;
        let err = bare_error(&job);
        assert!(matches!(err, RunError::NoGrids));
    }

    #[test]
    fn a_resume_never_reaches_the_fill() {
        // Resuming from epoch 1 with no checkpoint store cannot succeed —
        // and must not quietly refill either: the rank fails typed, from
        // the restore path.
        let job = NativeJob::new([12, 12, 12], 3, 1).with_threads(2);
        let cache = ProgramCache::new(1);
        let geo = JobGeometry::resolve(&job, Approach::HybridMultiple, &cache, f64::BYTES)
            .expect("valid geometry");
        let fabric: NativeFabric<f64> = NativeFabric::new(&geo.map);
        let err = run_attempt(&job, &geo, &fabric, None, 1)
            .err()
            .expect("nothing to restore from");
        let RunError::Failed { failures, .. } = err else {
            panic!("expected a contained rank failure, got {err}");
        };
        assert!(failures.iter().all(|f| matches!(
            &f.kind,
            FailureKind::Panic(m) if m.contains("without a checkpoint store")
        )));
    }

    #[test]
    fn job_flops_count_points_grids_sweeps() {
        let job = NativeJob::new([10, 10, 10], 3, 1).with_sweeps(2);
        assert_eq!(job.flops(), 1000.0 * 3.0 * 2.0 * 25.0);
    }
}
