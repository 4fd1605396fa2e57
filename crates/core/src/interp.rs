//! The real-data interpreter of the compiled sweep programs.
//!
//! Both planes that move real grid data run one rank's [`SweepProgram`]s
//! through [`run_rank`]: the functional plane
//! ([`crate::exec::run_distributed`]) over the in-process
//! [`Transport`](crate::transport::Transport), and the native plane
//! (`gpaw-hybrid-rt`) over its fault-injecting fabric. The interpreter is
//! generic over [`Comm`], the two message operations the ops need, so the
//! op semantics, the three role runners and their failure containment
//! exist once. Results are bitwise identical across the two planes *by
//! construction*: same op order, same packing, same tags (from
//! [`crate::plan`]), same stencil kernel.
//!
//! The op semantics: `PostRecv` is a no-op (every [`Comm`] buffers sends,
//! so a receive needs no pre-posting), `SendFace` packs and sends,
//! `WaitAll` is the blocking receive and unpack (zero-filling faces with
//! no neighbor), `ComputeInterior` applies the stencil whole-subdomain
//! and `ComputeWavefront` over the box of its step
//! ([`SweepProgram::wavefront_box`]). The synchronization ops belong to
//! the role, chosen by the first program's [`ThreadRole`]:
//!
//! * a **single** flat thread interprets its one program on the calling
//!   thread;
//! * an **endpoint fleet** runs every program on its own thread with its
//!   own grids and its own communication, meeting at a real
//!   `std::sync::Barrier` on each `ThreadBarrier` op (§VI: "the
//!   synchronization penalty is therefore constant");
//! * a **master** drives a persistent pool of worker threads: each
//!   `ApplyBoundarySlab` op publishes one grid's x-slabs as slab tasks
//!   fenced by a release/completion barrier pair — the paper's pthread
//!   scheme.
//!
//! At every `AdvanceBuffer` a thread that owns grids swaps its buffers
//! (odd blocks only: an even fused block lands back in its inputs),
//! deposits a snapshot when the rank checkpoints, and sleeps the
//! throttle.
//!
//! **Failure containment.** A receive error or a panic on a pooled or
//! endpoint thread becomes that thread's [`InterpError`]. A failed thread
//! stops computing and communicating but keeps walking its program, so
//! it still arrives at every barrier op: the barrier count per thread is
//! static in the program ([`SweepProgram::barrier_waits_per_sweep`]), so
//! its siblings always drain instead of deadlocking. Every thread records
//! a [`WallTracer`] span ledger in the shared [`SpanKind`] vocabulary.

use crate::checkpoint::CheckpointStore;
use crate::plan::{recv_tag, send_tag};
use crate::program::{SweepOp, SweepProgram, ThreadRole};
use crate::trace::{SpanKind, ThreadResult, WallTracer};
use gpaw_bgp_hw::topology::Dir;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::halo::{pack_batch_region, unpack_batch_region, zero_face_region, Side};
use gpaw_grid::scalar::Scalar;
use gpaw_grid::stencil::{apply, apply_region, apply_slab, slab_bounds, StencilCoeffs};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// The message operations the interpreter needs from a rank fabric.
pub trait Comm<T> {
    /// Why a receive failed.
    type Error;
    /// Deliver `payload` to `dst`, stamped as coming from `src` with
    /// `tag`. Never blocks.
    fn send(&self, src: usize, dst: usize, tag: u64, payload: Vec<T>);
    /// Block until a message from `(src, tag)` is available for `me`,
    /// then take it.
    fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Vec<T>, Self::Error>;
}

/// How one rank's interpretation failed.
#[derive(Debug)]
pub enum InterpError<E> {
    /// A receive failed.
    Comm(E),
    /// A thread of the rank panicked.
    ThreadPanic {
        /// The thread slot within the rank.
        slot: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl<E: fmt::Display> fmt::Display for InterpError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Comm(e) => write!(f, "receive failed: {e}"),
            InterpError::ThreadPanic { slot, message } => write!(f, "slot {slot}: {message}"),
        }
    }
}

/// Everything one rank's interpretation needs, shared across its threads.
pub struct RankCtx<'a, T, C> {
    /// The rank fabric.
    pub comm: &'a C,
    /// Stencil coefficients.
    pub coef: &'a StencilCoeffs,
    /// The rank's compiled sweep programs, one per thread slot; each
    /// embeds the rank's plan.
    pub programs: &'a [SweepProgram],
    /// Shared time origin of the run's span ledgers.
    pub epoch: Instant,
    /// First sweep to execute: 0 for a fresh run, the rollback epoch for
    /// a resume. Tags embed the absolute sweep, so the interpreter
    /// re-enters mid-program with no other state.
    pub start_sweep: usize,
    /// Where each depositing thread snapshots its inputs at every
    /// `AdvanceBuffer`. `None` skips checkpointing entirely.
    pub ckpt: Option<&'a CheckpointStore<T>>,
    /// Sleep per `AdvanceBuffer`, after the swap and deposit. Zero in
    /// normal runs; a soak stretches sweeps with it so a kill lands at
    /// an arbitrary epoch boundary.
    pub throttle: Duration,
}

/// What [`run_rank`] returns: the rank's final grids in local order plus
/// one [`ThreadResult`] per thread, or the first failure.
pub type RankOutcome<T, E> = Result<(Vec<Grid3<T>>, Vec<ThreadResult>), InterpError<E>>;

/// Stringify a `catch_unwind` payload the way the default panic hook
/// would.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Interpret one rank's compiled programs from `ctx.start_sweep`:
/// consume its input grids (and scratch outputs), return the final grids
/// in local order plus one [`ThreadResult`] per thread. Dispatches on the
/// role of the first program. Failure never deadlocks: the role's own
/// barriers are drained before the error is returned.
pub fn run_rank<T: Scalar, C: Comm<T> + Sync>(
    ctx: &RankCtx<'_, T, C>,
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> RankOutcome<T, C::Error>
where
    C::Error: Send,
{
    match ctx.programs[0].role {
        ThreadRole::Single => run_single(ctx, inputs, outputs),
        ThreadRole::Endpoint => run_endpoints(ctx, inputs, outputs),
        ThreadRole::Master => run_master_pool(ctx, inputs, outputs),
        ThreadRole::PoolWorker { .. } => unreachable!("slot 0 is never a pool worker"),
    }
}

impl<T: Scalar, C> RankCtx<'_, T, C> {
    fn rank(&self) -> usize {
        self.programs[0].plan.rank
    }

    /// The end of one replay on a thread that owns grids: swap the
    /// buffers after an odd block, deposit, throttle.
    fn advance(
        &self,
        prog: &SweepProgram,
        slot: usize,
        sweep: usize,
        ins: &mut Vec<Grid3<T>>,
        outs: &mut Vec<Grid3<T>>,
    ) {
        if prog.block() % 2 == 1 {
            std::mem::swap(ins, outs);
        }
        if let Some(store) = self.ckpt {
            store.deposit_from(self.rank(), slot, sweep + prog.block(), ins);
        }
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
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

/// Execute one data op of `prog` at replay base `sweep`: the exchange
/// ops and the two computes. The synchronization ops need the role
/// runner's barrier and never reach here.
fn exec_op<T: Scalar, C: Comm<T>>(
    ctx: &RankCtx<'_, T, C>,
    prog: &SweepProgram,
    sweep: usize,
    op: SweepOp,
    ins: &mut [Grid3<T>],
    outs: &mut [Grid3<T>],
    tr: &mut WallTracer,
) -> Result<(), C::Error> {
    let plan = &prog.plan;
    match op {
        SweepOp::PostRecv { .. } => {}
        SweepOp::SendFace { batch, dirs, depth } => {
            let ids: Vec<usize> = prog.locals_of(batch).collect();
            let first = prog.first_global(batch);
            for &ld in dirs.dirs() {
                let Some(nb) = plan.neighbors[ld.index()] else {
                    continue;
                };
                let points = plan.face_points[ld.axis.index()] * ids.len();
                let mut buf = Vec::with_capacity(points);
                tr.open(SpanKind::HaloPack);
                pack_batch_region(
                    ins,
                    &ids,
                    ld.axis.index(),
                    send_side(ld.dir),
                    depth,
                    plan.exchange_wide(ld.axis),
                    &mut buf,
                );
                tr.close();
                debug_assert_eq!(buf.len(), points);
                tr.open(SpanKind::Post);
                ctx.comm
                    .send(plan.rank, nb, send_tag(sweep, first, ld), buf);
                tr.close();
            }
        }
        SweepOp::WaitAll { batch, dirs, depth } => {
            let ids: Vec<usize> = prog.locals_of(batch).collect();
            let first = prog.first_global(batch);
            for &ld in dirs.dirs() {
                let (axis, side) = (ld.axis.index(), recv_side(ld.dir));
                let wide = plan.exchange_wide(ld.axis);
                match plan.neighbors[ld.index()] {
                    Some(nb) => {
                        tr.open(SpanKind::Wait);
                        let got = ctx.comm.recv(plan.rank, nb, recv_tag(sweep, first, ld));
                        tr.close();
                        let buf = got?;
                        tr.open(SpanKind::HaloUnpack);
                        unpack_batch_region(ins, &ids, axis, side, depth, wide, &buf);
                        tr.close();
                    }
                    None => {
                        tr.open(SpanKind::HaloUnpack);
                        for &g in &ids {
                            zero_face_region(&mut ins[g], axis, side, depth, wide);
                        }
                        tr.close();
                    }
                }
            }
        }
        SweepOp::ComputeInterior { batch } => {
            tr.open(SpanKind::Compute);
            for g in prog.locals_of(batch) {
                apply(ctx.coef, &ins[g], &mut outs[g]);
            }
            tr.close();
        }
        SweepOp::ComputeWavefront {
            batch,
            step,
            shrink,
        } => {
            let [minus, plus] = prog.wavefront_box(step, shrink);
            tr.open(SpanKind::Compute);
            for g in prog.locals_of(batch) {
                // Even steps read the freshly exchanged inputs; odd steps
                // read back the box the previous step just wrote.
                let (src, dst) = if step % 2 == 0 {
                    (&ins[g], &mut outs[g])
                } else {
                    (&outs[g], &mut ins[g])
                };
                apply_region(ctx.coef, src, dst, minus, plus);
            }
            tr.close();
        }
        SweepOp::ThreadBarrier | SweepOp::ApplyBoundarySlab { .. } | SweepOp::AdvanceBuffer => {
            unreachable!("synchronization ops are handled by the role runner")
        }
    }
    Ok(())
}

/// A single-threaded rank: the one program on the calling thread. A
/// panic unwinds to the caller, which owns the rank's containment.
fn run_single<T: Scalar, C: Comm<T>>(
    ctx: &RankCtx<'_, T, C>,
    mut ins: Vec<Grid3<T>>,
    mut outs: Vec<Grid3<T>>,
) -> RankOutcome<T, C::Error> {
    let prog = &ctx.programs[0];
    let mut tr = WallTracer::new(ctx.epoch);
    for (sweep, op) in prog.walk(ctx.start_sweep) {
        if op == SweepOp::AdvanceBuffer {
            ctx.advance(prog, 0, sweep, &mut ins, &mut outs);
        } else {
            exec_op(ctx, prog, sweep, op, &mut ins, &mut outs, &mut tr)
                .map_err(InterpError::Comm)?;
        }
    }
    Ok((ins, vec![tr.finish(ctx.rank(), 0)]))
}

/// One pooled or endpoint thread's walk: its tracer and the first
/// failure it hit.
struct Walker<E> {
    slot: usize,
    tr: WallTracer,
    err: Option<InterpError<E>>,
}

impl<E> Walker<E> {
    fn new(epoch: Instant, slot: usize) -> Walker<E> {
        Walker {
            slot,
            tr: WallTracer::new(epoch),
            err: None,
        }
    }

    fn ok(&self) -> bool {
        self.err.is_none()
    }

    /// Run `f` unless the thread already failed; a receive error or a
    /// panic becomes the thread's failure.
    fn guard(&mut self, f: impl FnOnce(&mut WallTracer) -> Result<(), E>) {
        if self.err.is_some() {
            return;
        }
        let err = match catch_unwind(AssertUnwindSafe(|| f(&mut self.tr))) {
            Ok(Ok(())) => return,
            Ok(Err(e)) => InterpError::Comm(e),
            Err(p) => InterpError::ThreadPanic {
                slot: self.slot,
                message: panic_message(p.as_ref()),
            },
        };
        self.tr.close_all();
        self.err = Some(err);
    }

    /// Arrive at `barrier` — failed or not, so the siblings drain.
    fn wait(&mut self, barrier: &Barrier) {
        self.tr.open(SpanKind::ThreadBarrier);
        barrier.wait();
        self.tr.close();
    }

    fn finish(self, rank: usize) -> Result<ThreadResult, InterpError<E>> {
        match self.err {
            None => Ok(self.tr.finish(rank, self.slot)),
            Some(e) => Err(e),
        }
    }
}

/// Join the threads spawned for slots `first..`; a panic that escaped a
/// thread becomes its slot's failure.
fn join_slots<R, E>(
    handles: Vec<ScopedJoinHandle<'_, Result<R, InterpError<E>>>>,
    first: usize,
) -> Vec<Result<R, InterpError<E>>> {
    handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            h.join().unwrap_or_else(|p| {
                Err(InterpError::ThreadPanic {
                    slot: first + i,
                    message: panic_message(p.as_ref()),
                })
            })
        })
        .collect()
}

/// A fleet of peer endpoints: each program on its own thread with its
/// own grids and its own communication, synchronized only at the
/// `ThreadBarrier` op.
fn run_endpoints<T: Scalar, C: Comm<T> + Sync>(
    ctx: &RankCtx<'_, T, C>,
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> RankOutcome<T, C::Error>
where
    C::Error: Send,
{
    let programs = ctx.programs;
    // Deal grids to the thread whose program's assignment owns them —
    // derived from the compiled programs, not re-decided here.
    let mut owner = vec![usize::MAX; inputs.len()];
    for (t, p) in programs.iter().enumerate() {
        for i in 0..p.asg.count {
            owner[p.asg.id(i)] = t;
        }
    }
    let mut parts: Vec<_> = programs.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for ((&t, input), output) in owner.iter().zip(inputs).zip(outputs) {
        parts[t].0.push(input);
        parts[t].1.push(output);
    }

    let barrier = Barrier::new(programs.len());
    let outcomes = std::thread::scope(|s| {
        let handles = parts
            .into_iter()
            .zip(programs)
            .enumerate()
            .map(|(t, ((mut ins, mut outs), prog))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut w = Walker::new(ctx.epoch, t);
                    for (sweep, op) in prog.walk(ctx.start_sweep) {
                        match op {
                            SweepOp::ThreadBarrier => w.wait(barrier),
                            // A failed endpoint never deposits: its stale
                            // epoch pins the consistent floor, so rollback
                            // lands where it last swapped.
                            SweepOp::AdvanceBuffer if w.ok() => {
                                ctx.advance(prog, t, sweep, &mut ins, &mut outs)
                            }
                            SweepOp::AdvanceBuffer => {}
                            _ => {
                                w.guard(|tr| exec_op(ctx, prog, sweep, op, &mut ins, &mut outs, tr))
                            }
                        }
                    }
                    w.finish(ctx.rank()).map(|r| (ins, r))
                })
            })
            .collect();
        join_slots(handles, 0)
    });

    // Interleave back into the rank's grid order.
    let mut results = Vec::with_capacity(programs.len());
    let mut grids = Vec::with_capacity(programs.len());
    for outcome in outcomes {
        let (g, r) = outcome?;
        results.push(r);
        grids.push(g.into_iter());
    }
    let grids = owner
        .iter()
        .map(|&t| {
            grids[t]
                .next()
                .unwrap_or_else(|| unreachable!("owner map exhausted"))
        })
        .collect();
    Ok((grids, results))
}

/// One x-slab of compute published from the master to a pooled thread:
/// grid `input` applied over x-planes `[x0, x1)` into the raw output
/// `slab`.
///
/// Raw pointers because the mutable slab borrows of one grid cannot
/// outlive the master's op in the type system, while the pool threads
/// outlive the whole run. Soundness comes from the barrier protocol:
/// tasks are published before the release barrier, consumed strictly
/// between the release and completion barriers, and the slabs of one
/// grid are pairwise disjoint (`split_x_slabs`).
struct SlabTask<T> {
    input: *const Grid3<T>,
    x0: usize,
    x1: usize,
    slab: *mut T,
    len: usize,
}

// SAFETY: a task is a message across the release barrier. `slab`/`len`
// hand over exclusive access to one output slab, disjoint from every
// other task's (so `T: Send`); `input` hands over shared read access to
// one grid that nothing writes while the fence is open (so `T: Sync`);
// `x0`/`x1` are plain values.
unsafe impl<T: Send + Sync> Send for SlabTask<T> {}

/// Run one task list: a thread's share of one grid.
///
/// # Safety
/// Must only be called between the release and completion barriers of
/// the grid the tasks were published for.
unsafe fn run_tasks<T: Scalar>(coef: &StencilCoeffs, tasks: &[SlabTask<T>]) {
    for task in tasks {
        // SAFETY: between the fences the master neither reads nor writes
        // this grid's outputs, and the task's slab is the caller's alone
        // (the slabs of one grid are disjoint), live for the whole fence.
        let slab = unsafe { std::slice::from_raw_parts_mut(task.slab, task.len) };
        // SAFETY: the input grid outlives the fence and nothing writes it
        // while the fence is open.
        let input = unsafe { &*task.input };
        apply_slab(coef, input, task.x0, task.x1, slab);
    }
}

/// Cut grid `gid` into x-slabs, publish slabs `1..` to the pool's task
/// slots, and return slot 0's share (the master's own compute).
fn publish_slab_tasks<T: Scalar>(
    ins: &[Grid3<T>],
    outs: &mut [Grid3<T>],
    gid: usize,
    bounds: &[usize],
    slots: &[Mutex<Vec<SlabTask<T>>>],
) -> Vec<SlabTask<T>> {
    let cuts = &bounds[1..bounds.len() - 1];
    let mut tasks = outs[gid]
        .split_x_slabs(cuts)
        .into_iter()
        .enumerate()
        .map(|(t, slab)| SlabTask {
            input: &ins[gid] as *const Grid3<T>,
            x0: bounds[t],
            x1: bounds[t + 1],
            len: slab.len(),
            slab: slab.as_mut_ptr(),
        });
    let mine = tasks.next().into_iter().collect();
    for (slot, task) in slots[1..].iter().zip(tasks) {
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = vec![task];
    }
    mine
}

/// One slab fence: the release wait, this thread's tasks (taken after
/// the release, when the master has published them), the completion
/// wait.
fn fence<T: Scalar, E>(
    w: &mut Walker<E>,
    barrier: &Barrier,
    coef: &StencilCoeffs,
    tasks: impl FnOnce() -> Vec<SlabTask<T>>,
) {
    w.wait(barrier); // release: the grid's tasks are published
    let tasks = tasks();
    w.guard(|tr| {
        tr.open(SpanKind::Compute);
        // SAFETY: between this grid's release and completion barriers.
        unsafe { run_tasks(coef, &tasks) };
        tr.close();
        Ok(())
    });
    drop(tasks);
    w.wait(barrier); // completion: every slab is written
}

/// A master driving its persistent worker pool. Each `ApplyBoundarySlab`
/// op is one grid published to the task slots and fenced by a
/// release/completion barrier pair. The pool protocol is fully static
/// (the worker programs carry the same slab ops), so no shutdown signal
/// is needed — and a failed master publishes nothing, so the pool
/// computes nothing while every thread still takes both fences.
fn run_master_pool<T: Scalar, C: Comm<T> + Sync>(
    ctx: &RankCtx<'_, T, C>,
    mut ins: Vec<Grid3<T>>,
    mut outs: Vec<Grid3<T>>,
) -> RankOutcome<T, C::Error>
where
    C::Error: Send,
{
    let programs = ctx.programs;
    let threads = programs.len();
    let bounds = slab_bounds(programs[0].plan.sub.ext[0], threads);
    let barrier = Barrier::new(threads);
    // One task slot per pool thread. Slots past the slab count (when the
    // subdomain is too shallow for `threads` slabs) simply stay empty;
    // the threads still take part in every fence.
    let slots: Vec<Mutex<Vec<SlabTask<T>>>> = (0..threads).map(|_| Mutex::default()).collect();

    let (master, workers) = std::thread::scope(|s| {
        let handles = (1..threads)
            .map(|t| {
                let (barrier, slot, prog) = (&barrier, &slots[t], &programs[t]);
                s.spawn(move || {
                    let mut w = Walker::<C::Error>::new(ctx.epoch, t);
                    for (_, op) in prog.walk(ctx.start_sweep) {
                        match op {
                            SweepOp::ApplyBoundarySlab { .. } => {
                                fence(&mut w, barrier, ctx.coef, || {
                                    std::mem::take(
                                        &mut *slot.lock().unwrap_or_else(|e| e.into_inner()),
                                    )
                                })
                            }
                            // The pool owns no grids across sweeps.
                            SweepOp::AdvanceBuffer => {}
                            _ => unreachable!("pool workers only fence and compute"),
                        }
                    }
                    w.finish(ctx.rank())
                })
            })
            .collect();

        let prog = &programs[0];
        let mut w = Walker::new(ctx.epoch, 0);
        for (sweep, op) in prog.walk(ctx.start_sweep) {
            match op {
                SweepOp::ApplyBoundarySlab { batch, index } => {
                    let gid = prog.locals_of(batch).start + index;
                    let mine = if w.ok() {
                        publish_slab_tasks(&ins, &mut outs, gid, &bounds, &slots)
                    } else {
                        Vec::new()
                    };
                    fence(&mut w, &barrier, ctx.coef, || mine);
                }
                // Master-only: one deposit covers the rank.
                SweepOp::AdvanceBuffer if w.ok() => {
                    ctx.advance(prog, 0, sweep, &mut ins, &mut outs)
                }
                SweepOp::AdvanceBuffer => {}
                _ => w.guard(|tr| exec_op(ctx, prog, sweep, op, &mut ins, &mut outs, tr)),
            }
        }
        (w.finish(ctx.rank()), join_slots(handles, 1))
    });

    let mut results = vec![master?];
    for worker in workers {
        results.push(worker?);
    }
    Ok((ins, results))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&17_u64), "non-string panic payload");
    }
}
