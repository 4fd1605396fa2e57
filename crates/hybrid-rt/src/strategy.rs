//! The native interpreter of the compiled sweep programs.
//!
//! A [`Strategy`] no longer encodes any schedule of its own: it is a
//! marker naming an [`Approach`], and every approach executes through the
//! same interpreter — [`run_programs`] — walking the [`SweepProgram`] op
//! streams compiled once by `gpaw_fd::program::compile_rank` and shared
//! with the functional and timed planes. Results are bitwise identical to
//! the functional plane *by construction*: same op order, same packing,
//! same tags (from `gpaw_fd::plan`), same stencil kernel.
//!
//! What is native here is the *execution substrate*: every
//! [`ThreadRole::Endpoint`] program runs on its own OS thread with its
//! own comm endpoint and a real `std::sync::Barrier` per sweep (§VI:
//! "the synchronization penalty is therefore constant"), and a
//! [`ThreadRole::Master`] program drives a persistent pool of
//! [`ThreadRole::PoolWorker`] threads — each `ApplyBoundarySlab` op is
//! one published grid fenced by a release/completion barrier pair, the
//! paper's pthread scheme.
//!
//! Every thread records a [`WallTracer`] span ledger in the shared
//! [`SpanKind`] vocabulary, so native runs report phases the same way the
//! timed machine does — including [`SpanKind::ThreadBarrier`] time that
//! the functional plane's ephemeral spawns cannot observe.
//!
//! **Failure containment** is an interpreter concern, not a per-strategy
//! one. The interpreter returns a [`StrategyError`] instead of panicking:
//! a receive that hits the deadlock watchdog, or a panicking
//! endpoint/pool thread, terminates the rank cleanly. Threads *drain*
//! their barriers on failure — a failed thread stops communicating and
//! computing but keeps arriving at every remaining barrier op, so its
//! siblings can never deadlock on a peer that died. The barrier count per
//! thread is static in the program (`SweepProgram::barrier_waits_per_sweep`:
//! one `ThreadBarrier` op per sweep for endpoints, two waits per
//! `ApplyBoundarySlab` op for the master pool), which is what makes the
//! drain bounded.

use crate::error::{panic_message, StrategyError};
use crate::fabric::NativeFabric;
use crate::fault::RecvError;
use gpaw_bgp_hw::topology::{Dir, LinkDir};
use gpaw_fd::checkpoint::CheckpointStore;
use gpaw_fd::config::Approach;
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::plan::{recv_tag, send_tag, RankPlan};
use gpaw_fd::program::{SweepOp, SweepProgram, ThreadRole};
use gpaw_fd::trace::{Span, SpanKind, ThreadPhases, WallTracer};
use gpaw_grid::grid3::Grid3;
use gpaw_grid::halo::{pack_batch_region, unpack_batch_region, zero_face_region, Side};
use gpaw_grid::scalar::Scalar;
use gpaw_grid::stencil::{apply, apply_region, apply_slab, slab_bounds, StencilCoeffs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Everything one rank's schedule needs, shared across its threads.
pub struct RankCtx<'a, T: Scalar> {
    /// The in-process transport.
    pub fabric: &'a NativeFabric<T>,
    /// This rank's communication geometry.
    pub plan: &'a RankPlan,
    /// Stencil coefficients.
    pub coef: &'a StencilCoeffs,
    /// The rank's compiled sweep programs, one per thread slot.
    pub programs: &'a [SweepProgram],
    /// Threads per rank (= `programs.len()` for the hybrid approaches,
    /// 1 for flat).
    pub threads: usize,
    /// Shared time origin of the run's span ledgers.
    pub epoch: Instant,
    /// First sweep to execute. 0 for a fresh run; a supervised resume
    /// starts at the rollback epoch — tags embed the absolute sweep, so
    /// the interpreter re-enters mid-program with no other state.
    pub start_sweep: usize,
    /// Where each depositing thread snapshots its inputs after every
    /// `AdvanceBuffer` swap. `None` (plain runs) skips checkpointing
    /// entirely — no clones, no locks.
    pub ckpt: Option<&'a CheckpointStore<T>>,
    /// Sleep per `AdvanceBuffer`, after the swap-and-deposit. Zero in
    /// normal runs; the durability soak stretches sweeps with it so a
    /// SIGKILL lands at an arbitrary epoch boundary.
    pub throttle: std::time::Duration,
}

/// One native thread's outcome: the aggregate phase breakdown plus the raw
/// span timeline (for the Chrome exporter).
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// Per-kind totals and the thread's lifetime.
    pub phases: ThreadPhases,
    /// Exclusive self-time segments on the run's shared axis.
    pub spans: Vec<Span>,
}

fn finish_thread(tr: WallTracer, rank: usize, slot: usize) -> ThreadResult {
    let (phases, spans) = tr.finish_with_spans(rank, slot);
    ThreadResult { phases, spans }
}

/// A native execution schedule for one of the paper's approaches.
///
/// The schedule itself lives in the compiled programs; a strategy only
/// names the approach. `run_rank` has a default implementation — the
/// shared interpreter — so adding an approach to the native plane means
/// adding a marker struct and a compiler arm, nothing else.
pub trait Strategy<T: SyntheticFill>: Sync {
    /// The approach this schedule implements (selects decomposition
    /// granularity and execution mode).
    fn approach(&self) -> Approach;

    /// Figure label.
    fn name(&self) -> &'static str {
        self.approach().label()
    }

    /// Execute one rank: consume its filled input grids (and scratch
    /// outputs), return the final grids in local order plus one
    /// [`ThreadResult`] per thread the schedule ran — or a structured
    /// [`StrategyError`] when a receive hit the watchdog or a thread of
    /// the schedule panicked. Failure never deadlocks: the schedule's
    /// own barriers are drained before the error is returned.
    fn run_rank(
        &self,
        ctx: &RankCtx<'_, T>,
        inputs: Vec<Grid3<T>>,
        outputs: Vec<Grid3<T>>,
    ) -> Result<(Vec<Grid3<T>>, Vec<ThreadResult>), StrategyError> {
        run_programs(ctx, inputs, outputs)
    }
}

/// *Flat original* (§IV-A): one thread per rank, blocking
/// dimension-by-dimension exchange per grid, no batching, no overlap.
pub struct FlatOriginal;

/// *Flat optimized*: one thread per rank with every §V optimization —
/// simultaneous non-blocking exchange, batching, double buffering.
pub struct FlatOptimized;

/// *Hybrid multiple* (§VI): whole grids dealt round-robin to the rank's
/// threads, every thread its own comm endpoint (`MPI_THREAD_MULTIPLE`),
/// one barrier per sweep.
pub struct HybridMultiple;

/// *Hybrid master-only* (§VI): the master thread communicates
/// (`MPI_THREAD_SINGLE`); a persistent pool of worker threads computes
/// each grid in x-slabs, fenced by two barrier waits per grid — the
/// paper's pthread scheme.
pub struct HybridMasterOnly;

/// *Flat static* (§VII): virtual-mode ranks with node-level decomposition
/// and static grid quarters — the paper's diagnostic proving the
/// granularity, not threading, explains the hybrid advantage. Defined
/// entirely in the schedule compiler; it gained this plane without one
/// line of plane-specific code.
pub struct FlatStatic;

/// *Temporal blocked* (Wittmann–Hager–Wellein): `k` sweeps fused per
/// exchange — one depth-`k·h` ordered exchange, then a shrinking
/// wavefront of `k` stencil applications over the widened ghost zone.
/// Like `FlatStatic`, it gained this plane without one line of
/// plane-specific scheduling: the fused schedule is entirely in the
/// compiled op stream.
pub struct TemporalBlocked;

macro_rules! marker_strategy {
    ($ty:ident) => {
        impl<T: SyntheticFill> Strategy<T> for $ty {
            fn approach(&self) -> Approach {
                Approach::$ty
            }
        }
    };
}

marker_strategy!(FlatOriginal);
marker_strategy!(FlatOptimized);
marker_strategy!(HybridMultiple);
marker_strategy!(HybridMasterOnly);
marker_strategy!(FlatStatic);
marker_strategy!(TemporalBlocked);

/// Every registered strategy, derived from [`Approach::ALL`] so a new
/// approach registers in every soak and suite at once.
pub fn all_strategies<T: SyntheticFill>() -> Vec<Box<dyn Strategy<T>>> {
    Approach::ALL.into_iter().map(strategy_for).collect()
}

/// The strategy for any approach, including the diagnostics.
pub fn strategy_for<T: SyntheticFill>(approach: Approach) -> Box<dyn Strategy<T>> {
    match approach {
        Approach::FlatOriginal => Box::new(FlatOriginal),
        Approach::FlatOptimized => Box::new(FlatOptimized),
        Approach::HybridMultiple => Box::new(HybridMultiple),
        Approach::HybridMasterOnly => Box::new(HybridMasterOnly),
        Approach::FlatStatic => Box::new(FlatStatic),
        Approach::TemporalBlocked => Box::new(TemporalBlocked),
    }
}

/// The side of our subdomain whose interior planes feed a send toward
/// `dir`.
fn send_side(dir: Dir) -> Side {
    match dir {
        Dir::Plus => Side::High,
        Dir::Minus => Side::Low,
    }
}

/// The ghost-plane side filled by data arriving from the neighbor in
/// direction `dir`.
fn recv_side(dir: Dir) -> Side {
    match dir {
        Dir::Plus => Side::High,
        Dir::Minus => Side::Low,
    }
}

/// Deposit one thread's post-swap snapshot, then apply any scheduled
/// snapshot poisoning from the fault plan. Poisoning happens *after* the
/// deposit — exactly where a DMA or memory fault would strike a real
/// checkpoint buffer — so the store's digest (computed at deposit) is the
/// witness that convicts the flipped bit at restore time.
fn deposit_snapshot<T: Scalar>(
    ctx: &RankCtx<'_, T>,
    store: &CheckpointStore<T>,
    slot: usize,
    epoch: usize,
    grids: &[Grid3<T>],
) {
    store.deposit_from(ctx.plan.rank, slot, epoch, grids);
    let scheduled = ctx
        .fabric
        .config()
        .plan
        .as_ref()
        .and_then(|p| p.corrupt_snapshot);
    if let Some(cs) = scheduled {
        if cs.rank == ctx.plan.rank && cs.slot == slot && cs.epoch == epoch {
            store.corrupt_snapshot(cs.rank, cs.slot, cs.epoch);
        }
    }
}

/// What every op of one program executes against: the fabric, the
/// program itself, and the stencil.
#[derive(Clone, Copy)]
struct OpEnv<'a, T: Scalar> {
    fabric: &'a NativeFabric<T>,
    prog: &'a SweepProgram,
    coef: &'a StencilCoeffs,
}

/// Execute one *communication or interior-compute* op of a program. The
/// synchronization ops (`ThreadBarrier`, `ApplyBoundarySlab`,
/// `AdvanceBuffer`) are the role runners' concern — they need the
/// barrier and the task slots — and never reach here.
fn exec_comm_op<T: Scalar>(
    env: &OpEnv<'_, T>,
    op: SweepOp,
    sweep: usize,
    inputs: &mut [Grid3<T>],
    outputs: &mut [Grid3<T>],
    tr: &mut WallTracer,
) -> Result<(), RecvError> {
    let OpEnv { fabric, prog, coef } = *env;
    let plan = &prog.plan;
    match op {
        // The native fabric buffers sends internally; a receive needs no
        // pre-posting.
        SweepOp::PostRecv { .. } => {}
        SweepOp::SendFace { batch, dirs, depth } => {
            let local_ids: Vec<usize> = prog.locals_of(batch).collect();
            let first = prog.first_global(batch);
            for &ld in dirs.dirs() {
                if let Some(nb) = plan.neighbors[ld.index()] {
                    let wide = plan.exchange_wide(ld.axis);
                    let points = plan.face_points[ld.axis.index()] * local_ids.len();
                    let mut buf = Vec::with_capacity(points);
                    tr.open(SpanKind::HaloPack);
                    pack_batch_region(
                        inputs,
                        &local_ids,
                        ld.axis.index(),
                        send_side(ld.dir),
                        depth,
                        wide,
                        &mut buf,
                    );
                    tr.close();
                    debug_assert_eq!(buf.len(), points);
                    tr.open(SpanKind::Post);
                    fabric.send(plan.rank, nb, send_tag(sweep, first, ld), buf);
                    tr.close();
                }
            }
        }
        SweepOp::WaitAll { batch, dirs, depth } => {
            let local_ids: Vec<usize> = prog.locals_of(batch).collect();
            let first = prog.first_global(batch);
            for &ld in dirs.dirs() {
                let wide = plan.exchange_wide(ld.axis);
                match plan.neighbors[ld.index()] {
                    Some(nb) => {
                        tr.open(SpanKind::Wait);
                        let res = fabric.recv(plan.rank, nb, recv_tag(sweep, first, ld));
                        tr.close();
                        let buf = res?;
                        tr.open(SpanKind::HaloUnpack);
                        unpack_batch_region(
                            inputs,
                            &local_ids,
                            ld.axis.index(),
                            recv_side(ld.dir),
                            depth,
                            wide,
                            &buf,
                        );
                        tr.close();
                    }
                    None => {
                        tr.open(SpanKind::HaloUnpack);
                        for &g in &local_ids {
                            zero_face_region(
                                &mut inputs[g],
                                ld.axis.index(),
                                recv_side(ld.dir),
                                depth,
                                wide,
                            );
                        }
                        tr.close();
                    }
                }
            }
        }
        SweepOp::ComputeInterior { batch } => {
            tr.open(SpanKind::Compute);
            for g in prog.locals_of(batch) {
                apply(coef, &inputs[g], &mut outputs[g]);
            }
            tr.close();
        }
        // One wavefront step of a fused block: apply over the subdomain
        // extended `shrink * (block - 1 - step)` layers into the ghost
        // zone on every neighbored side. Even steps read `inputs`, odd
        // steps read back from `outputs` — the same alternation as the
        // functional plane, so the accumulation order (and the bits) are
        // identical.
        SweepOp::ComputeWavefront {
            batch,
            step,
            shrink,
        } => {
            let ext = shrink * (prog.block() - 1 - step);
            let mut em = [0usize; 3];
            let mut ep = [0usize; 3];
            for ld in LinkDir::ALL {
                if plan.neighbors[ld.index()].is_some() {
                    match ld.dir {
                        Dir::Minus => em[ld.axis.index()] = ext,
                        Dir::Plus => ep[ld.axis.index()] = ext,
                    }
                }
            }
            tr.open(SpanKind::Compute);
            for g in prog.locals_of(batch) {
                if step % 2 == 0 {
                    apply_region(coef, &inputs[g], &mut outputs[g], em, ep);
                } else {
                    apply_region(coef, &outputs[g], &mut inputs[g], em, ep);
                }
            }
            tr.close();
        }
        SweepOp::ThreadBarrier | SweepOp::ApplyBoundarySlab { .. } | SweepOp::AdvanceBuffer => {
            unreachable!("synchronization ops are handled by the role runner")
        }
    }
    Ok(())
}

/// Interpret one rank's compiled programs on native threads. Dispatches
/// on the role of the first program: a single flat thread, a fleet of
/// peer endpoints, or a master with its worker pool.
pub fn run_programs<T: Scalar>(
    ctx: &RankCtx<'_, T>,
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> Result<(Vec<Grid3<T>>, Vec<ThreadResult>), StrategyError> {
    match ctx.programs[0].role {
        ThreadRole::Single => run_single(ctx, inputs, outputs),
        ThreadRole::Endpoint => run_endpoints(ctx, inputs, outputs),
        ThreadRole::Master => run_master_pool(ctx, inputs, outputs),
        ThreadRole::PoolWorker { .. } => unreachable!("slot 0 is never a pool worker"),
    }
}

/// A single-threaded rank: interpret the one program on the calling
/// thread. (Panic containment lives one level up, in `run_native`'s
/// per-rank `catch_unwind`.)
fn run_single<T: Scalar>(
    ctx: &RankCtx<'_, T>,
    mut inputs: Vec<Grid3<T>>,
    mut outputs: Vec<Grid3<T>>,
) -> Result<(Vec<Grid3<T>>, Vec<ThreadResult>), StrategyError> {
    let prog = &ctx.programs[0];
    let env = OpEnv {
        fabric: ctx.fabric,
        prog,
        coef: ctx.coef,
    };
    let mut tr = WallTracer::new(ctx.epoch);
    let block = prog.block();
    for sweep in (ctx.start_sweep..prog.sweeps).step_by(block) {
        for &op in &prog.ops {
            if op == SweepOp::AdvanceBuffer {
                // An even fused block ends with the result already back
                // in `inputs`; only odd blocks (including the classic
                // depth-1 programs) need the swap.
                if block % 2 == 1 {
                    std::mem::swap(&mut inputs, &mut outputs);
                }
                if let Some(store) = ctx.ckpt {
                    deposit_snapshot(ctx, store, 0, sweep + block, &inputs);
                }
                if !ctx.throttle.is_zero() {
                    std::thread::sleep(ctx.throttle);
                }
                continue;
            }
            if let Err(e) = exec_comm_op(&env, op, sweep, &mut inputs, &mut outputs, &mut tr) {
                tr.close_all();
                return Err(e.into());
            }
        }
    }
    Ok((inputs, vec![finish_thread(tr, ctx.plan.rank, 0)]))
}

/// A fleet of peer endpoints: each program on its own OS thread with its
/// own grids and its own communication, synchronized only at the
/// `ThreadBarrier` op. A failed endpoint keeps arriving at the barrier
/// ops (untraced) so its siblings drain instead of deadlocking.
fn run_endpoints<T: Scalar>(
    ctx: &RankCtx<'_, T>,
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> Result<(Vec<Grid3<T>>, Vec<ThreadResult>), StrategyError> {
    let programs = ctx.programs;
    let threads = programs.len();
    let n_grids = inputs.len();
    // Deal grids to the thread whose program's assignment owns them —
    // derived from the compiled programs, not re-decided here.
    let mut owner = vec![usize::MAX; n_grids];
    for (t, p) in programs.iter().enumerate() {
        for i in 0..p.asg.count {
            owner[p.asg.id(i)] = t;
        }
    }
    debug_assert!(owner.iter().all(|&t| t < threads));
    let mut in_parts: Vec<Vec<Grid3<T>>> = (0..threads).map(|_| Vec::new()).collect();
    let mut out_parts: Vec<Vec<Grid3<T>>> = (0..threads).map(|_| Vec::new()).collect();
    for (g, grid) in inputs.into_iter().enumerate() {
        in_parts[owner[g]].push(grid);
    }
    for (g, grid) in outputs.into_iter().enumerate() {
        out_parts[owner[g]].push(grid);
    }

    let barrier = Barrier::new(threads);
    type EndpointOutcome<T> = Result<(Vec<Grid3<T>>, ThreadResult), StrategyError>;
    let outcomes: Vec<EndpointOutcome<T>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (t, (mut ins, mut outs)) in in_parts.drain(..).zip(out_parts.drain(..)).enumerate() {
            let barrier = &barrier;
            let prog = &programs[t];
            handles.push(s.spawn(move || -> EndpointOutcome<T> {
                let env = OpEnv {
                    fabric: ctx.fabric,
                    prog,
                    coef: ctx.coef,
                };
                let mut tr = WallTracer::new(ctx.epoch);
                debug_assert_eq!(prog.asg.count, ins.len());
                let block = prog.block();
                let mut err: Option<StrategyError> = None;
                for sweep in (ctx.start_sweep..prog.sweeps).step_by(block) {
                    for &op in &prog.ops {
                        match op {
                            SweepOp::ThreadBarrier => {
                                // §VI: the one synchronization per sweep.
                                if err.is_none() {
                                    tr.open(SpanKind::ThreadBarrier);
                                    barrier.wait();
                                    tr.close();
                                } else {
                                    barrier.wait();
                                }
                            }
                            SweepOp::AdvanceBuffer => {
                                if err.is_none() {
                                    // Even fused blocks land the result in
                                    // `ins` already; odd blocks swap.
                                    if block % 2 == 1 {
                                        std::mem::swap(&mut ins, &mut outs);
                                    }
                                    // A failed endpoint never deposits: its
                                    // stale epoch pins the consistent floor,
                                    // so rollback lands where it last swapped.
                                    if let Some(store) = ctx.ckpt {
                                        deposit_snapshot(ctx, store, t, sweep + block, &ins);
                                    }
                                    if !ctx.throttle.is_zero() {
                                        std::thread::sleep(ctx.throttle);
                                    }
                                }
                            }
                            _ => {
                                if err.is_some() {
                                    continue;
                                }
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    exec_comm_op(&env, op, sweep, &mut ins, &mut outs, &mut tr)
                                }));
                                match r {
                                    Ok(Ok(())) => {}
                                    Ok(Err(e)) => {
                                        tr.close_all();
                                        err = Some(e.into());
                                    }
                                    Err(p) => {
                                        tr.close_all();
                                        err = Some(StrategyError::ThreadPanic {
                                            slot: t,
                                            message: panic_message(p.as_ref()),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                match err {
                    None => Ok((ins, finish_thread(tr, ctx.plan.rank, t))),
                    Some(e) => Err(e),
                }
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(t, h)| match h.join() {
                Ok(outcome) => outcome,
                Err(p) => Err(StrategyError::ThreadPanic {
                    slot: t,
                    message: panic_message(p.as_ref()),
                }),
            })
            .collect()
    });

    // Interleave back into the rank's grid order (or surface the first
    // endpoint failure).
    let mut thread_results = Vec::with_capacity(threads);
    let mut parts: Vec<std::vec::IntoIter<Grid3<T>>> = Vec::with_capacity(threads);
    for outcome in outcomes {
        let (grids, tres) = outcome?;
        thread_results.push(tres);
        parts.push(grids.into_iter());
    }
    let mut grids = Vec::with_capacity(n_grids);
    for g in 0..n_grids {
        match parts[owner[g]].next() {
            Some(grid) => grids.push(grid),
            None => unreachable!("owner map exhausted"),
        }
    }
    Ok((grids, thread_results))
}

/// One slab of compute published from the master to a pooled worker: grid
/// `input` applied over x-planes `[x0, x1)` into the raw output `slab`.
///
/// Raw pointers because the mutable slab borrows of one grid cannot
/// outlive the master's op iteration in the type system, while the pool
/// threads outlive the whole run. Soundness comes from the barrier
/// protocol: tasks are published before the release barrier, consumed
/// strictly between the release and completion barriers, and the slabs of
/// one grid are pairwise disjoint (`split_x_slabs`).
struct SlabTask<T> {
    input: *const Grid3<T>,
    x0: usize,
    x1: usize,
    slab: *mut T,
    len: usize,
}

// SAFETY: a task is a message handing exclusive access to one disjoint
// output slab (plus shared access to one input grid) across the release
// barrier; the pointers never alias between tasks of one grid.
unsafe impl<T: Send> Send for SlabTask<T> {}

/// Run one task list (the per-thread compute share of one grid).
///
/// # Safety
/// Must only be called between the release and completion barriers of the
/// grid the tasks were published for.
unsafe fn run_tasks<T: Scalar>(coef: &StencilCoeffs, tasks: &[SlabTask<T>]) {
    for task in tasks {
        let slab = std::slice::from_raw_parts_mut(task.slab, task.len);
        apply_slab(coef, &*task.input, task.x0, task.x1, slab);
    }
}

/// Cut one grid into x-slabs, publish slabs `1..` to the pool slots, and
/// return slot 0's share (the master's own compute).
fn publish_slab_tasks<T: Scalar>(
    ins: &[Grid3<T>],
    outs: &mut [Grid3<T>],
    gid: usize,
    bounds: &[usize],
    slots: &[Mutex<Vec<SlabTask<T>>>],
) -> Vec<SlabTask<T>> {
    let cuts = &bounds[1..bounds.len() - 1];
    let slabs_per_grid = bounds.len() - 1;
    let mut per_slot: Vec<Vec<SlabTask<T>>> = (0..slabs_per_grid).map(|_| Vec::new()).collect();

    let grid = &mut outs[gid];
    for (t, slab) in grid.split_x_slabs(cuts).into_iter().enumerate() {
        let len = slab.len();
        per_slot[t].push(SlabTask {
            input: &ins[gid] as *const Grid3<T>,
            x0: bounds[t],
            x1: bounds[t + 1],
            slab: slab.as_mut_ptr(),
            len,
        });
    }

    let mut iter = per_slot.into_iter();
    let mine = iter.next().unwrap_or_default();
    for (t, tasks) in iter.enumerate() {
        *slots[t + 1].lock().unwrap_or_else(|e| e.into_inner()) = tasks;
    }
    mine
}

/// A master driving its persistent worker pool. Each `ApplyBoundarySlab`
/// op is one grid published to the task slots and fenced by a
/// release/completion barrier pair; the pool protocol is fully static
/// (the worker programs carry the same slab ops), so no shutdown signal
/// is needed — and a failing thread drains the remaining barrier pairs
/// with empty task slots instead of stranding its peers.
fn run_master_pool<T: Scalar>(
    ctx: &RankCtx<'_, T>,
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> Result<(Vec<Grid3<T>>, Vec<ThreadResult>), StrategyError> {
    let threads = ctx.threads;
    let nx = inputs[0].n()[0];
    let bounds = slab_bounds(nx, threads);
    let barrier = Barrier::new(threads);
    // Task slots, one per pool slot. Slots past the slab count (when
    // `nx` is too shallow for `threads` slabs) simply stay empty; the
    // threads still take part in every barrier.
    let slots: Vec<Mutex<Vec<SlabTask<T>>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();

    let (grids, master, workers) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 1..threads {
            let barrier = &barrier;
            let slots = &slots;
            let prog = &ctx.programs[t];
            handles.push(s.spawn(move || -> Result<ThreadResult, StrategyError> {
                let mut tr = WallTracer::new(ctx.epoch);
                let mut err: Option<StrategyError> = None;
                for _ in (ctx.start_sweep..prog.sweeps).step_by(prog.block()) {
                    for &op in &prog.ops {
                        match op {
                            SweepOp::ApplyBoundarySlab { .. } => {
                                tr.open(SpanKind::ThreadBarrier);
                                barrier.wait(); // release: tasks are published
                                tr.close();
                                let tasks = std::mem::take(
                                    &mut *slots[t].lock().unwrap_or_else(|e| e.into_inner()),
                                );
                                if err.is_none() {
                                    tr.open(SpanKind::Compute);
                                    // SAFETY: between the release and
                                    // completion barriers of this grid.
                                    let r = catch_unwind(AssertUnwindSafe(|| unsafe {
                                        run_tasks(ctx.coef, &tasks)
                                    }));
                                    tr.close();
                                    if let Err(p) = r {
                                        err = Some(StrategyError::ThreadPanic {
                                            slot: t,
                                            message: panic_message(p.as_ref()),
                                        });
                                    }
                                }
                                drop(tasks);
                                tr.open(SpanKind::ThreadBarrier);
                                barrier.wait(); // completion: slabs are done
                                tr.close();
                            }
                            SweepOp::AdvanceBuffer => {}
                            _ => unreachable!("pool workers only fence and compute"),
                        }
                    }
                }
                match err {
                    None => Ok(finish_thread(tr, ctx.plan.rank, t)),
                    Some(e) => Err(e),
                }
            }));
        }

        // The master: communication plus its own slab share, walking the
        // same op stream the timed plane lowers.
        let prog = &ctx.programs[0];
        let env = OpEnv {
            fabric: ctx.fabric,
            prog,
            coef: ctx.coef,
        };
        let mut tr = WallTracer::new(ctx.epoch);
        let mut ins = inputs;
        let mut outs = outputs;
        let block = prog.block();
        let mut master_err: Option<StrategyError> = None;
        for sweep in (ctx.start_sweep..prog.sweeps).step_by(block) {
            for &op in &prog.ops {
                match op {
                    SweepOp::ApplyBoundarySlab { batch, index } => {
                        if master_err.is_some() {
                            // Drain this op's barrier pair; the slots hold
                            // nothing, so the workers compute nothing.
                            barrier.wait();
                            barrier.wait();
                            continue;
                        }
                        let gid = prog.locals_of(batch).start + index;
                        let mine = publish_slab_tasks(&ins, &mut outs, gid, &bounds, &slots);
                        tr.open(SpanKind::ThreadBarrier);
                        barrier.wait(); // release
                        tr.close();
                        tr.open(SpanKind::Compute);
                        // SAFETY: between this grid's release and completion
                        // barriers; slot 0's slabs are disjoint from the
                        // pool's.
                        let compute = catch_unwind(AssertUnwindSafe(|| unsafe {
                            run_tasks(ctx.coef, &mine)
                        }));
                        tr.close();
                        drop(mine);
                        tr.open(SpanKind::ThreadBarrier);
                        barrier.wait(); // completion
                        tr.close();
                        if let Err(p) = compute {
                            tr.close_all();
                            master_err = Some(StrategyError::ThreadPanic {
                                slot: 0,
                                message: panic_message(p.as_ref()),
                            });
                        }
                    }
                    SweepOp::AdvanceBuffer => {
                        if master_err.is_none() {
                            if block % 2 == 1 {
                                std::mem::swap(&mut ins, &mut outs);
                            }
                            // Master-only: one deposit covers the rank; the
                            // pool never owns grids across sweeps.
                            if let Some(store) = ctx.ckpt {
                                deposit_snapshot(ctx, store, 0, sweep + block, &ins);
                            }
                            // Workers idle at the next slab fence meanwhile.
                            if !ctx.throttle.is_zero() {
                                std::thread::sleep(ctx.throttle);
                            }
                        }
                    }
                    SweepOp::ThreadBarrier => unreachable!("master programs carry no bare barrier"),
                    _ => {
                        // Comm runs under catch_unwind so an injected send
                        // panic (or a watchdog timeout) turns into a drain,
                        // not a stranded pool.
                        if master_err.is_some() {
                            continue;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            exec_comm_op(&env, op, sweep, &mut ins, &mut outs, &mut tr)
                        }));
                        match r {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => {
                                tr.close_all();
                                master_err = Some(e.into());
                            }
                            Err(p) => {
                                tr.close_all();
                                master_err = Some(StrategyError::ThreadPanic {
                                    slot: 0,
                                    message: panic_message(p.as_ref()),
                                });
                            }
                        }
                    }
                }
            }
        }
        let master: Result<ThreadResult, StrategyError> = match master_err {
            None => Ok(finish_thread(tr, ctx.plan.rank, 0)),
            Some(e) => Err(e),
        };
        let workers: Vec<Result<ThreadResult, StrategyError>> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| match h.join() {
                Ok(outcome) => outcome,
                Err(p) => Err(StrategyError::ThreadPanic {
                    slot: i + 1,
                    message: panic_message(p.as_ref()),
                }),
            })
            .collect();
        (ins, master, workers)
    });

    let mut results = vec![master?];
    for w in workers {
        results.push(w?);
    }
    Ok((grids, results))
}
