//! Every call into the program under test, and nothing else.
//!
//! The rest of the benchmark sees only this module's own types (plain
//! numbers, digests, closures) — no `gpaw_*` item is named anywhere else,
//! so when the program's entry points change, this is the one file to
//! edit. `README.md` lists the API surface pinned here.
//!
//! Timed regions bracket exactly the program call: construction, scratch
//! directories, digests and reference comparisons happen outside them.

use gpaw_bgp_hw::{CartMap, CostModel, Partition};
use gpaw_des::{EventQueue, SimDuration, SpanKind};
use gpaw_fd::checkpoint::CheckpointStore;
use gpaw_fd::durable::{DurableStore, SnapshotRecord};
use gpaw_fd::exec::{
    max_error_vs_reference_planned, run_distributed, sequential_reference, SyntheticFill,
};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::progcache::ProgramCache;
use gpaw_fd::program::{compile_rank, SweepOp, SweepProgram};
use gpaw_fd::runner::FdExperiment;
use gpaw_fd::timed::ScopeSel;
use gpaw_fd::{integrity, FdConfig};
use gpaw_grid::grid3::Grid3;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::halo::{self, Side};
use gpaw_grid::scalar::C64;
use gpaw_grid::stencil::{self, BoundaryCond, StencilCoeffs};
use gpaw_hybrid_rt::{
    run_native, strategy_for, supervise, supervise_durable, DurabilityConfig, FaultPlan, JobHandle,
    JobService, NativeFabric, NativeJob, NativeRun, Priority, RetryPolicy, ServiceConfig,
};
use gpaw_mini::poisson::PoissonSolver;
use gpaw_simmpi::RunReport;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub use gpaw_fd::config::Approach;
pub use gpaw_fd::report::Json;

// ---------------------------------------------------------------------
// Native legs: run_native / supervise / supervise_durable
// ---------------------------------------------------------------------

/// Grid scalar of a leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Elem {
    F64,
    C64,
}

/// Which run entry point a leg goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `run_native`.
    Bare,
    /// `supervise` under the default `RetryPolicy`.
    Supervised,
    /// `supervise_durable`, spilling every `spill_every` epochs.
    Durable { spill_every: usize },
}

/// One native job shape.
#[derive(Clone, Copy, Debug)]
pub struct LegSpec {
    pub name: &'static str,
    pub approach: Approach,
    pub elem: Elem,
    pub ext: [usize; 3],
    pub grids: usize,
    pub nodes: usize,
    pub threads: usize,
    pub batch: usize,
    pub sweeps: usize,
    pub entry: Entry,
}

/// Grid-point updates of `sweeps` sweeps over `grids` grids of `ext`.
fn updates(ext: [usize; 3], grids: usize, sweeps: usize) -> f64 {
    ext.iter().product::<usize>() as f64 * grids as f64 * sweeps as f64
}

impl LegSpec {
    /// Grid-point updates the job performs.
    pub fn updates(&self) -> f64 {
        updates(self.ext, self.grids, self.sweeps)
    }
}

/// Program-reported shares of aggregate thread time (`NativeRun.report` /
/// the timed plane's `RunReport`); they sum to 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub compute: f64,
    pub halo: f64,
    pub comm: f64,
    pub barrier: f64,
    pub idle: f64,
}

impl Phases {
    pub fn as_array(&self) -> [f64; 5] {
        [self.compute, self.halo, self.comm, self.barrier, self.idle]
    }

    pub fn from_array([compute, halo, comm, barrier, idle]: [f64; 5]) -> Phases {
        Phases {
            compute,
            halo,
            comm,
            barrier,
            idle,
        }
    }

    fn of(r: &RunReport) -> Phases {
        Phases {
            compute: r.span_fraction(SpanKind::Compute),
            halo: r.span_fraction(SpanKind::HaloPack) + r.span_fraction(SpanKind::HaloUnpack),
            comm: r.span_fraction(SpanKind::Post)
                + r.span_fraction(SpanKind::Wait)
                + r.span_fraction(SpanKind::LibLock),
            barrier: r.span_fraction(SpanKind::ThreadBarrier)
                + r.span_fraction(SpanKind::Collective),
            idle: r.idle_fraction_from_spans(),
        }
    }
}

/// Static op counts of a leg's compiled programs, summed over every rank
/// and thread for the whole run — what the replay budget multiplies by
/// each layer's measured unit time.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// Grid points the stencil ops compute.
    pub stencil_points: f64,
    /// `SendFace` ops executed (each packs and posts a batch's faces).
    pub send_ops: f64,
    /// `WaitAll` ops executed (each unpacks a batch's faces).
    pub wait_ops: f64,
    /// Messages and payload bytes sent.
    pub messages: u64,
    pub bytes: u64,
    /// Hardware threads the ops are spread over.
    pub threads: usize,
    /// One rank's subdomain extents.
    pub sub_ext: [usize; 3],
}

/// A leg constructed and compiled: the `NativeJob`, the geometry, and the
/// statically predicted traffic.
pub struct PreparedLeg {
    pub spec: LegSpec,
    job: NativeJob,
    cfg: FdConfig,
    pub predicted_messages: u64,
    pub ops: OpCounts,
}

fn leg_map(spec: &LegSpec) -> CartMap {
    let partition =
        Partition::standard(spec.nodes, spec.approach.exec_mode()).unwrap_or_else(|| {
            panic!(
                "leg {}: no standard partition for {} nodes",
                spec.name, spec.nodes
            )
        });
    CartMap::best(partition, spec.ext)
}

fn compile_all(spec: &LegSpec, cfg: &FdConfig, map: &CartMap) -> Vec<Vec<SweepProgram>> {
    let bytes = match spec.elem {
        Elem::F64 => 8,
        Elem::C64 => 16,
    };
    (0..map.ranks())
        .map(|rank| {
            let plan = RankPlan::for_rank(map, spec.ext, rank, bytes, cfg);
            compile_rank(cfg, map, &plan, spec.grids, spec.threads)
        })
        .collect()
}

/// Job construction plus a cold compile of every rank's programs (the
/// program compiles again, per rank thread, inside each run).
pub fn prepare_leg(spec: &LegSpec, seed: u64) -> PreparedLeg {
    let mut job = NativeJob::new(spec.ext, spec.grids, spec.nodes)
        .with_threads(spec.threads)
        .with_sweeps(spec.sweeps)
        .with_seed(seed);
    job.batch = spec.batch;
    let cfg = job.config(spec.approach);
    let map = leg_map(spec);
    let programs = compile_all(spec, &cfg, &map);
    let mut ops = OpCounts {
        threads: map.ranks() * spec.threads,
        sub_ext: programs[0][0].plan.sub.ext,
        ..OpCounts::default()
    };
    for prog in programs.iter().flatten() {
        let replays = prog.replays() as f64;
        let unit_points = prog.compute_unit().0 as f64;
        for op in &prog.ops {
            match *op {
                SweepOp::ComputeInterior { batch } | SweepOp::ComputeWavefront { batch, .. } => {
                    ops.stencil_points += prog.batches.size(batch) as f64 * unit_points * replays;
                }
                SweepOp::ApplyBoundarySlab { .. } => ops.stencil_points += unit_points * replays,
                SweepOp::SendFace { .. } => ops.send_ops += replays,
                SweepOp::WaitAll { .. } => ops.wait_ops += replays,
                _ => {}
            }
        }
        ops.messages += prog.predicted_messages();
        ops.bytes += prog.predicted_bytes();
    }
    PreparedLeg {
        spec: *spec,
        job,
        cfg,
        predicted_messages: ops.messages,
        ops,
    }
}

enum Sets {
    F64(Vec<GridSet<f64>>, CartMap),
    C64(Vec<GridSet<C64>>, CartMap),
}

/// What one leg run produced.
pub struct LegRun {
    /// Seconds inside the program call.
    pub wall_s: f64,
    /// Messages the fabric counted (retransmissions excluded).
    pub messages: u64,
    pub phases: Phases,
    /// Epoch files a durable run wrote (0 otherwise).
    pub epochs_spilled: u64,
    /// Attempts the supervisor needed (1 for bare runs).
    pub attempts: u32,
    sets: Sets,
}

/// The sequential ground truth of a leg's job.
pub enum Reference {
    F64(GridSet<f64>),
    C64(GridSet<C64>),
}

fn run_leg_as<T: SyntheticFill>(
    p: &PreparedLeg,
    job: &NativeJob,
    scratch: &Path,
) -> Result<(f64, NativeRun<T>, u64, u32), String> {
    let strategy = strategy_for::<T>(p.spec.approach);
    let policy = RetryPolicy::default();
    match p.spec.entry {
        Entry::Bare => {
            let t = Instant::now();
            let run = run_native::<T>(job, strategy.as_ref());
            let wall = t.elapsed().as_secs_f64();
            run.map(|r| (wall, r, 0, 1)).map_err(|e| e.to_string())
        }
        Entry::Supervised => {
            let t = Instant::now();
            let run = supervise::<T>(job, strategy.as_ref(), &policy);
            let wall = t.elapsed().as_secs_f64();
            run.map(|s| (wall, s.run, 0, s.recovery.attempts))
                .map_err(|e| e.to_string())
        }
        Entry::Durable { spill_every } => {
            let durability = DurabilityConfig::new(scratch).with_spill_every(spill_every);
            let t = Instant::now();
            let run = supervise_durable::<T>(job, strategy.as_ref(), &policy, &durability);
            let wall = t.elapsed().as_secs_f64();
            let run = run.map_err(|e| e.to_string())?;
            if !run.durable.degraded.is_empty() {
                return Err(format!("durable run degraded: {:?}", run.durable.degraded));
            }
            Ok((
                wall,
                run.run,
                run.durable.epochs_spilled,
                run.recovery.attempts,
            ))
        }
    }
}

fn run_leg_job(p: &PreparedLeg, job: &NativeJob, scratch: &Path) -> Result<LegRun, String> {
    let finish =
        |wall_s: f64, report: &RunReport, spilled: u64, attempts: u32, sets: Sets| LegRun {
            wall_s,
            messages: report.messages,
            phases: Phases::of(report),
            epochs_spilled: spilled,
            attempts,
            sets,
        };
    match p.spec.elem {
        Elem::F64 => {
            let (wall, run, spilled, attempts) = run_leg_as::<f64>(p, job, scratch)?;
            Ok(finish(
                wall,
                &run.report,
                spilled,
                attempts,
                Sets::F64(run.sets, run.map),
            ))
        }
        Elem::C64 => {
            let (wall, run, spilled, attempts) = run_leg_as::<C64>(p, job, scratch)?;
            Ok(finish(
                wall,
                &run.report,
                spilled,
                attempts,
                Sets::C64(run.sets, run.map),
            ))
        }
    }
}

/// Run a leg once. `scratch` is a fresh directory a durable leg spills
/// into (unused otherwise); the caller creates and removes it.
pub fn run_leg(p: &PreparedLeg, scratch: &Path) -> Result<LegRun, String> {
    run_leg_job(p, &p.job, scratch)
}

/// Run a leg with a panic injected into rank 0's `after_sends`-th send —
/// the supervisor must absorb it (attempts == 2) and still finish bitwise.
pub fn run_leg_with_send_panic(
    p: &PreparedLeg,
    after_sends: u64,
    scratch: &Path,
) -> Result<LegRun, String> {
    let job = p
        .job
        .with_fault(FaultPlan::benign(p.job.seed).with_panic_on_send(0, after_sends));
    run_leg_job(p, &job, scratch)
}

/// FNV-1a digest over every result grid's bit patterns.
pub fn leg_digest(run: &LegRun) -> u64 {
    match &run.sets {
        Sets::F64(sets, _) => integrity::run_digest(sets),
        Sets::C64(sets, _) => integrity::run_digest(sets),
    }
}

/// Legs with equal keys share one reference.
pub fn reference_key(spec: &LegSpec) -> (Elem, [usize; 3], usize, usize) {
    (spec.elem, spec.ext, spec.grids, spec.sweeps)
}

/// Compute the sequential reference of a leg's job (the oracle; slow).
pub fn reference(p: &PreparedLeg) -> Reference {
    let coef = StencilCoeffs::laplacian(p.job.spacing);
    let (ext, grids, seed, bc, sweeps) = (
        p.job.grid_ext,
        p.job.n_grids,
        p.job.seed,
        p.job.bc,
        p.job.sweeps,
    );
    match p.spec.elem {
        Elem::F64 => Reference::F64(sequential_reference(ext, grids, seed, &coef, bc, sweeps)),
        Elem::C64 => Reference::C64(sequential_reference(ext, grids, seed, &coef, bc, sweeps)),
    }
}

/// Largest absolute difference between a run and the reference; 0.0
/// means bitwise equal.
pub fn error_vs_reference(p: &PreparedLeg, run: &LegRun, reference: &Reference) -> f64 {
    match (&run.sets, reference) {
        (Sets::F64(sets, map), Reference::F64(r)) => {
            max_error_vs_reference_planned(sets, map, p.job.grid_ext, r, &p.cfg)
        }
        (Sets::C64(sets, map), Reference::C64(r)) => {
            max_error_vs_reference_planned(sets, map, p.job.grid_ext, r, &p.cfg)
        }
        _ => f64::INFINITY,
    }
}

// ---------------------------------------------------------------------
// Job service: JobService::{start, submit, join}, JobHandle::wait
// ---------------------------------------------------------------------

/// One program key of the service mix: a 1-node, 1-thread hybrid job.
#[derive(Clone, Copy, Debug)]
pub struct ServiceKey {
    pub approach: Approach,
    pub ext: [usize; 3],
    pub grids: usize,
    pub sweeps: usize,
}

impl ServiceKey {
    pub fn updates(&self) -> f64 {
        updates(self.ext, self.grids, self.sweeps)
    }

    fn job(&self, seed: u64) -> NativeJob {
        NativeJob::new(self.ext, self.grids, 1)
            .with_threads(1)
            .with_sweeps(self.sweeps)
            .with_seed(seed)
    }
}

/// A key's identity when run alone on a quiet fabric.
#[derive(Clone, Copy, Debug)]
pub struct Solo {
    pub digest: u64,
    pub messages: u64,
    pub wall_s: f64,
    pub phases: Phases,
}

/// Run a key alone through `run_native` (the oracle of the service mix).
/// The reported time is a second, warm run's.
pub fn solo_run(key: &ServiceKey, seed: u64) -> Result<Solo, String> {
    let strategy = strategy_for::<f64>(key.approach);
    let job = key.job(seed);
    run_native::<f64>(&job, strategy.as_ref()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let run = run_native::<f64>(&job, strategy.as_ref()).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Solo {
        digest: integrity::run_digest(&run.sets),
        messages: run.report.messages,
        wall_s,
        phases: Phases::of(&run.report),
    })
}

/// A completed service job, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct ServedJob {
    pub digest: u64,
    pub messages: u64,
    pub attempts: u32,
    pub queued_s: f64,
    pub ran_s: f64,
}

pub struct Service {
    inner: JobService<f64>,
    seed: u64,
}

pub struct Ticket(JobHandle<f64>);

/// Program-cache counters of a running service, since its start.
#[derive(Clone, Copy, Debug)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl Service {
    /// Start a service with 2 workers and the default queue and cache
    /// capacities.
    pub fn start(seed: u64) -> Service {
        Service {
            inner: JobService::start(ServiceConfig::default()),
            seed,
        }
    }

    pub fn submit(&self, tenant: &str, key: &ServiceKey) -> Result<Ticket, String> {
        self.inner
            .submit(tenant, Priority::Normal, key.approach, key.job(self.seed))
            .map(Ticket)
            .map_err(|e| e.to_string())
    }

    pub fn wait(&self, ticket: Ticket) -> Result<ServedJob, String> {
        let outcome = ticket.0.wait();
        let result = outcome.result.map_err(|e| e.to_string())?;
        Ok(ServedJob {
            digest: result.digest,
            messages: result.messages,
            attempts: result.recovery.attempts,
            queued_s: outcome.queued.as_secs_f64(),
            ran_s: outcome.ran.as_secs_f64(),
        })
    }

    pub fn counters(&self) -> CacheCounters {
        let c = self.inner.cache_stats();
        CacheCounters {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
        }
    }

    /// Drain the queue and stop the workers.
    pub fn join(self) {
        self.inner.join();
    }
}

// ---------------------------------------------------------------------
// Timed plane: FdExperiment / run_timed
// ---------------------------------------------------------------------

/// One simulated experiment point.
#[derive(Clone, Copy, Debug)]
pub struct TimedPoint {
    pub ext: [usize; 3],
    pub grids: usize,
    pub sweeps: usize,
    pub cores: usize,
    pub approach: Approach,
    pub batch: usize,
    /// Unit-cell scope (torus partitions only) instead of the full mesh.
    pub cell: bool,
}

impl TimedPoint {
    pub fn updates(&self) -> f64 {
        updates(self.ext, self.grids, self.sweeps)
    }
}

/// The simulated statistics of one point: exact, identical on every host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStats {
    pub makespan_ps: u64,
    pub events: u64,
    pub messages: u64,
}

pub struct TimedRun {
    pub wall_s: f64,
    pub stats: SimStats,
    pub phases: Phases,
}

/// The cost model is the set-up of a timed experiment.
pub struct TimedModel(CostModel);

pub fn timed_model() -> TimedModel {
    TimedModel(CostModel::bgp())
}

pub fn run_timed_point(point: &TimedPoint, model: &TimedModel) -> TimedRun {
    let exp = FdExperiment {
        grid_ext: point.ext,
        n_grids: point.grids,
        bytes_per_point: 8,
        sweeps: point.sweeps,
    };
    let scope = if point.cell {
        ScopeSel::Cell
    } else {
        ScopeSel::Full
    };
    let t = Instant::now();
    let report = exp.run(point.cores, point.approach, point.batch, &model.0, scope);
    let wall_s = t.elapsed().as_secs_f64();
    TimedRun {
        wall_s,
        stats: SimStats {
            makespan_ps: report.makespan.as_ps(),
            events: report.events,
            messages: report.messages,
        },
        phases: Phases::of(&report),
    }
}

// ---------------------------------------------------------------------
// Layer kernels: closures over public functions, timed by `layers.rs`
// ---------------------------------------------------------------------

/// A repeatable call into one layer. `units` is the work one call does
/// (points, bytes, messages, events — the constructor says which).
pub struct Kernel {
    pub units: f64,
    call: Box<dyn FnMut()>,
}

impl Kernel {
    pub fn new(units: f64, call: impl FnMut() + 'static) -> Kernel {
        Kernel {
            units,
            call: Box::new(call),
        }
    }

    pub fn call(&mut self) {
        (self.call)()
    }
}

fn coef() -> StencilCoeffs {
    StencilCoeffs::laplacian([0.2, 0.25, 0.3])
}

fn test_grid_f64(n: [usize; 3], halo: usize, salt: usize) -> Grid3<f64> {
    let mut g = Grid3::from_fn(n, halo, |i, j, k| {
        ((i * 31 + j * 7 + k * 3 + salt) % 17) as f64 * 0.25
    });
    g.fill_halo_periodic();
    g
}

fn test_grid_c64(n: [usize; 3], halo: usize) -> Grid3<C64> {
    let mut g = Grid3::from_fn(n, halo, |i, j, k| {
        C64::new(
            ((i + 2 * j + 3 * k) % 5) as f64,
            ((3 * i + j + k) % 7) as f64,
        )
    });
    g.fill_halo_periodic();
    g
}

/// `stencil::apply` over a whole `n` grid. Units: points.
pub fn k_stencil(elem: Elem, n: [usize; 3]) -> Kernel {
    let points = n.iter().product::<usize>() as f64;
    let c = coef();
    match elem {
        Elem::F64 => {
            let input = test_grid_f64(n, StencilCoeffs::HALO, 0);
            let mut out = Grid3::zeros(n, StencilCoeffs::HALO);
            Kernel::new(points, move || {
                stencil::apply(&c, black_box(&input), &mut out);
                black_box(out.data());
            })
        }
        Elem::C64 => {
            let input = test_grid_c64(n, StencilCoeffs::HALO);
            let mut out = Grid3::zeros(n, StencilCoeffs::HALO);
            Kernel::new(points, move || {
                stencil::apply(&c, black_box(&input), &mut out);
                black_box(out.data());
            })
        }
    }
}

/// `stencil::apply_slab` over the four x-slabs master-only cuts, one
/// after the other. Units: points.
pub fn k_stencil_slab4(n: [usize; 3]) -> Kernel {
    let c = coef();
    let input = test_grid_f64(n, StencilCoeffs::HALO, 0);
    let mut out: Grid3<f64> = Grid3::zeros(n, StencilCoeffs::HALO);
    let bounds = stencil::slab_bounds(n[0], 4);
    Kernel::new(n.iter().product::<usize>() as f64, move || {
        let cuts = &bounds[1..bounds.len() - 1];
        let slabs = out.split_x_slabs(cuts);
        for (t, slab) in slabs.into_iter().enumerate() {
            stencil::apply_slab(&c, black_box(&input), bounds[t], bounds[t + 1], slab);
        }
        black_box(out.data());
    })
}

/// `stencil::apply_region`, the first wavefront step of a depth-2
/// temporal block (interior extended by one stencil halo per side).
/// Units: points computed.
pub fn k_stencil_region(n: [usize; 3]) -> Kernel {
    let c = coef();
    let h = StencilCoeffs::HALO;
    let input = test_grid_f64(n, 2 * h, 0);
    let mut out: Grid3<f64> = Grid3::zeros(n, 2 * h);
    let points = n.iter().map(|&e| e + 2 * h).product::<usize>() as f64;
    Kernel::new(points, move || {
        stencil::apply_region(&c, black_box(&input), &mut out, [h; 3], [h; 3]);
        black_box(out.data());
    })
}

fn halo_grids(n: [usize; 3], batch: usize, depth: usize) -> (Vec<Grid3<f64>>, Vec<usize>) {
    let grids = (0..batch).map(|g| test_grid_f64(n, depth, g)).collect();
    (grids, (0..batch).collect())
}

/// `halo::pack_batch_depth` of one face of `batch` grids into a fresh
/// buffer (the program allocates one per message). Units: bytes packed.
pub fn k_halo_pack(n: [usize; 3], batch: usize, axis: usize, depth: usize) -> Kernel {
    let (grids, ids) = halo_grids(n, batch, depth);
    let bytes = (halo::face_points_depth(&grids[0], axis, depth) * batch * 8) as f64;
    Kernel::new(bytes, move || {
        let mut buf = Vec::new();
        halo::pack_batch_depth(black_box(&grids), &ids, axis, Side::High, depth, &mut buf);
        black_box(buf);
    })
}

/// `halo::unpack_batch_depth` of one face of `batch` grids. Units: bytes
/// unpacked.
pub fn k_halo_unpack(n: [usize; 3], batch: usize, axis: usize, depth: usize) -> Kernel {
    let (mut grids, ids) = halo_grids(n, batch, depth);
    let mut buf = Vec::new();
    halo::pack_batch_depth(&grids, &ids, axis, Side::High, depth, &mut buf);
    let bytes = (buf.len() * 8) as f64;
    Kernel::new(bytes, move || {
        halo::unpack_batch_depth(&mut grids, &ids, axis, Side::Low, depth, black_box(&buf));
        black_box(grids[0].data());
    })
}

/// `Grid3::zeros` + `SyntheticFill::fill`, as every `run_native` rank
/// does per grid. Units: points.
pub fn k_fill(n: [usize; 3], halo: usize) -> Kernel {
    let sub = gpaw_grid::decomp::Subdomain {
        start: [0; 3],
        ext: n,
    };
    Kernel::new(n.iter().product::<usize>() as f64, move || {
        let mut grid: Grid3<f64> = Grid3::zeros(n, halo);
        <f64 as SyntheticFill>::fill(&mut grid, &sub, n, 42, 3);
        black_box(grid.data());
    })
}

fn fabric_for(nodes: usize) -> NativeFabric<f64> {
    let partition = Partition::standard(nodes, gpaw_bgp_hw::ExecMode::Smp)
        .unwrap_or_else(|| panic!("no standard partition for {nodes} nodes"));
    NativeFabric::new(&CartMap::best(partition, [16, 16, 16]))
}

/// `NativeFabric::send` then `recv` of `elems` f64 on one thread,
/// `per_call` messages a call; the payload is cloned per message as the
/// program allocates one per send. Units: messages.
pub fn k_fabric_same_thread(elems: usize, per_call: usize) -> Kernel {
    let fabric = fabric_for(2);
    let payload = vec![1.5f64; elems];
    Kernel::new(per_call as f64, move || {
        for i in 0..per_call {
            fabric.send(0, 1, i as u64 % 8, payload.clone());
            match fabric.recv(1, 0, i as u64 % 8) {
                Ok(got) => {
                    black_box(got);
                }
                Err(e) => panic!("fabric recv failed: {e}"),
            }
        }
    })
}

/// Ping-pong between two threads through blocking `recv`: `per_call`
/// round trips a call. Units: round trips.
pub fn k_fabric_pingpong(elems: usize, per_call: usize) -> Kernel {
    let fabric = fabric_for(2);
    let payload = vec![1.5f64; elems];
    Kernel::new(per_call as f64, move || {
        std::thread::scope(|s| {
            let echo = s.spawn(|| {
                for _ in 0..per_call {
                    let got = fabric
                        .recv(1, 0, 7)
                        .unwrap_or_else(|e| panic!("echo recv: {e}"));
                    fabric.send(1, 0, 9, got);
                }
            });
            for _ in 0..per_call {
                fabric.send(0, 1, 7, payload.clone());
                let back = fabric
                    .recv(0, 1, 9)
                    .unwrap_or_else(|e| panic!("ping recv: {e}"));
                black_box(back);
            }
            echo.join()
                .unwrap_or_else(|_| panic!("echo thread panicked"));
        });
    })
}

/// Two sender threads post `per_sender` messages each at one receiver.
/// Units: messages received.
pub fn k_fabric_contended(elems: usize, per_sender: usize) -> Kernel {
    let fabric = fabric_for(4);
    let payload = vec![1.5f64; elems];
    Kernel::new((2 * per_sender) as f64, move || {
        std::thread::scope(|s| {
            let senders: Vec<_> = [1usize, 2]
                .into_iter()
                .map(|src| {
                    let (fabric, payload) = (&fabric, &payload);
                    s.spawn(move || {
                        for _ in 0..per_sender {
                            fabric.send(src, 0, 5, payload.clone());
                        }
                    })
                })
                .collect();
            for _ in 0..per_sender {
                for src in [1usize, 2] {
                    let got = fabric
                        .recv(0, src, 5)
                        .unwrap_or_else(|e| panic!("recv: {e}"));
                    black_box(got);
                }
            }
            for h in senders {
                h.join()
                    .unwrap_or_else(|_| panic!("sender thread panicked"));
            }
        });
    })
}

/// `integrity::payload_digest` over `elems` f64. Units: bytes.
pub fn k_payload_digest(elems: usize) -> Kernel {
    let payload: Vec<f64> = (0..elems).map(|i| i as f64 * 0.5).collect();
    Kernel::new((elems * 8) as f64, move || {
        black_box(integrity::payload_digest(black_box(&payload)));
    })
}

fn snapshot_grids(n: [usize; 3], count: usize) -> Vec<Grid3<f64>> {
    (0..count)
        .map(|g| test_grid_f64(n, StencilCoeffs::HALO, g))
        .collect()
}

fn storage_bytes(grids: &[Grid3<f64>]) -> f64 {
    grids.iter().map(|g| g.data().len() * 8).sum::<usize>() as f64
}

/// `integrity::grids_digest` (FNV-1a) over `count` grids of `n`. Units:
/// bytes of padded storage.
pub fn k_fnv(n: [usize; 3], count: usize) -> Kernel {
    let grids = snapshot_grids(n, count);
    Kernel::new(storage_bytes(&grids), move || {
        black_box(integrity::grids_digest(black_box(&grids)));
    })
}

/// `integrity::crc32` over `bytes` bytes. Units: bytes.
pub fn k_crc32(bytes: usize) -> Kernel {
    let data: Vec<u8> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
    Kernel::new(bytes as f64, move || {
        black_box(integrity::crc32(black_box(&data)));
    })
}

/// `CheckpointStore::deposit` of `count` grids of `n`, clone included (the
/// strategy clones its inputs into every deposit). Units: bytes.
pub fn k_checkpoint_deposit(n: [usize; 3], count: usize) -> Kernel {
    let grids = snapshot_grids(n, count);
    let store: CheckpointStore<f64> = CheckpointStore::new([(0, 0)]);
    let mut epoch = 0usize;
    Kernel::new(storage_bytes(&grids), move || {
        epoch += 1;
        store.deposit(0, 0, epoch, black_box(&grids).clone());
    })
}

/// `CheckpointStore::restore` (digest check + clone out). Units: bytes.
pub fn k_checkpoint_restore(n: [usize; 3], count: usize) -> Kernel {
    let grids = snapshot_grids(n, count);
    let bytes = storage_bytes(&grids);
    let store: CheckpointStore<f64> = CheckpointStore::new([(0, 0)]);
    store.deposit(0, 0, 1, grids);
    Kernel::new(bytes, move || {
        let got = store
            .restore(0, 0, 1)
            .unwrap_or_else(|| panic!("snapshot vanished"));
        black_box(got);
    })
}

fn spill_records(n: [usize; 3], count: usize) -> Vec<SnapshotRecord<f64>> {
    // Two slots, as a 2-thread hybrid-multiple rank deposits.
    let half = count / 2;
    vec![
        SnapshotRecord {
            rank: 0,
            slot: 0,
            grids: snapshot_grids(n, half),
        },
        SnapshotRecord {
            rank: 0,
            slot: 1,
            grids: snapshot_grids(n, count - half),
        },
    ]
}

/// `DurableStore::spill_epoch` + `retain_newest(2)` of `count` grids of
/// `n` into `dir`. Units: bytes of grid storage.
pub fn k_durable_spill(dir: &Path, n: [usize; 3], count: usize) -> Kernel {
    let records = spill_records(n, count);
    let bytes: f64 = records.iter().map(|r| storage_bytes(&r.grids)).sum();
    let store = DurableStore::create(dir).unwrap_or_else(|e| panic!("create {dir:?}: {e}"));
    let mut epoch = 0usize;
    Kernel::new(bytes, move || {
        epoch += 1;
        store
            .spill_epoch(epoch, black_box(&records))
            .unwrap_or_else(|e| panic!("spill: {e}"));
        store
            .retain_newest(2)
            .unwrap_or_else(|e| panic!("retain: {e}"));
    })
}

/// `DurableStore::recover` of what [`k_durable_spill`] wrote into `dir`
/// (spill at least once first). Units: bytes of grid storage.
pub fn k_durable_recover(dir: &Path, n: [usize; 3], count: usize) -> Kernel {
    let bytes: f64 = spill_records(n, count)
        .iter()
        .map(|r| storage_bytes(&r.grids))
        .sum();
    let store = DurableStore::open(dir).unwrap_or_else(|e| panic!("open {dir:?}: {e}"));
    Kernel::new(bytes, move || {
        let rec = store
            .recover::<f64>()
            .unwrap_or_else(|e| panic!("recover: {e}"));
        assert!(
            rec.epoch > 0 && rec.skipped.is_empty(),
            "recover found nothing valid"
        );
        black_box(rec.records);
    })
}

/// `compile_rank` for every rank of a leg. Units: 1 job.
pub fn k_compile(spec: &LegSpec) -> Kernel {
    let spec = *spec;
    let p = prepare_leg(&spec, 1);
    let map = leg_map(&spec);
    Kernel::new(1.0, move || {
        black_box(compile_all(black_box(&spec), &p.cfg, &map));
    })
}

/// `ProgramCache::get_or_compile` on a resident key. Units: 1 lookup.
pub fn k_progcache_hit(spec: &LegSpec) -> Kernel {
    let spec = *spec;
    let p = prepare_leg(&spec, 1);
    let map = leg_map(&spec);
    let cache = ProgramCache::new(4);
    Kernel::new(1.0, move || {
        black_box(cache.get_or_compile(&p.cfg, &map, spec.ext, spec.grids, spec.threads, 8));
    })
}

/// `ProgramCache::get_or_compile` on a capacity-1 cache alternating two
/// keys: every lookup misses, evicts and compiles. Units: 1 lookup.
pub fn k_progcache_miss(spec: &LegSpec) -> Kernel {
    let spec = *spec;
    let p = prepare_leg(&spec, 1);
    let map = leg_map(&spec);
    let cache = ProgramCache::new(1);
    let mut flip = false;
    Kernel::new(1.0, move || {
        flip = !flip;
        let grids = spec.grids + usize::from(flip);
        black_box(cache.get_or_compile(&p.cfg, &map, spec.ext, grids, spec.threads, 8));
    })
}

/// `EventQueue`: schedule `n` events at scattered delays, pop them all.
/// Units: events.
pub fn k_des_queue(n: usize) -> Kernel {
    Kernel::new(n as f64, move || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
        let mut x = 0x9E37_79B9u64;
        // Keep ~1k events in flight, as a machine simulation does.
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.schedule(SimDuration::from_ps(1 + (x >> 40)), i as u32);
            if q.len() > 1024 {
                black_box(q.pop());
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    })
}

/// `run_distributed` (the functional plane) of `grids` grids of `n` under
/// hybrid multiple on `nodes` nodes. Units: 1 run.
pub fn k_functional(n: [usize; 3], grids: usize, nodes: usize) -> Kernel {
    let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(4);
    let partition = Partition::standard(nodes, Approach::HybridMultiple.exec_mode())
        .unwrap_or_else(|| panic!("no standard partition for {nodes} nodes"));
    let map = CartMap::best(partition, n);
    let c = coef();
    Kernel::new(1.0, move || {
        black_box(run_distributed::<f64>(n, grids, 42, &c, &cfg, &map));
    })
}

/// Solve a periodic Poisson problem (Gaussian blob, `n`³) with
/// `gpaw_mini`'s Jacobi solver to 1e-6. Returns (seconds, iterations).
pub fn poisson_solve(n: usize) -> (f64, usize) {
    let ext = [n; 3];
    let blob = gpaw_grid::generator::gaussian_rho(ext, [0.5; 3], 0.15);
    let mut rho: Grid3<f64> = Grid3::from_fn(ext, StencilCoeffs::HALO, blob);
    let mean = rho.iter_interior().map(|(_, v)| v).sum::<f64>() / rho.interior_points() as f64;
    for v in rho.data_mut() {
        *v -= mean;
    }
    let solver = PoissonSolver::new([0.25; 3], BoundaryCond::Periodic)
        .with_tol(1e-6)
        .with_max_iters(100_000);
    let mut phi = Grid3::zeros(ext, StencilCoeffs::HALO);
    let t = Instant::now();
    let stats = solver.solve(black_box(&rho), &mut phi);
    let secs = t.elapsed().as_secs_f64();
    assert!(
        stats.converged(1e-6),
        "poisson did not converge: {}",
        stats.residual
    );
    black_box(phi.data());
    (secs, stats.iterations)
}
