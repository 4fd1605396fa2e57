//! The real-data interpreter of the compiled sweep programs, and the one
//! rank launcher that runs it.
//!
//! Both planes that move real grid data call [`launch`]: one scoped OS
//! thread per rank, each filling its inputs (or restoring them from a
//! checkpoint), interpreting its [`SweepProgram`]s over the job's
//! [`NativeFabric`], and checking that the fabric drained. The functional
//! plane ([`crate::exec::run_distributed`]) launches on a clean fabric
//! with no checkpoints; the native plane (`gpaw-hybrid-rt`) adds faults,
//! checkpoints, retries and durability around the same call. Results are
//! bitwise identical across the two planes *by construction*: same
//! launcher, same op order, same packing, same tags (from
//! [`crate::plan`]), same stencil kernel.
//!
//! The op semantics: `PostRecv` is a no-op (the fabric buffers sends, so
//! a receive needs no pre-posting), `SendFace` packs and sends, `WaitAll`
//! is the blocking receive and unpack (zero-filling faces with no
//! neighbor), `ComputeInterior` applies the stencil whole-subdomain and
//! `ComputeWavefront` over the box of its step
//! ([`SweepProgram::wavefront_box`]). The synchronization ops belong to
//! the role, chosen by the first program's [`ThreadRole`]:
//!
//! * a **single** flat thread interprets its one program on the rank
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
//! deposits a snapshot when the run checkpoints, and sleeps the throttle.
//!
//! **Failure containment.** Every failure becomes one [`RankFailure`]: a
//! receive error, a panic on a pooled or endpoint thread, a panic anywhere
//! else on the rank thread (the fill included), an undrained fabric. A
//! failed pooled or endpoint thread stops computing and communicating but
//! keeps walking its program, so it still arrives at every barrier op:
//! the barrier count per thread is static in the program
//! ([`SweepProgram::barrier_waits_per_sweep`]), so its siblings always
//! drain instead of deadlocking. Every thread records a [`WallTracer`]
//! span ledger in the shared [`SpanKind`] vocabulary.

use crate::checkpoint::{restore_inputs, CheckpointStore};
use crate::exec::SyntheticFill;
use crate::fabric::NativeFabric;
use crate::fault::{PayloadCorruption, RecvError, RecvTimeout};
use crate::plan::{recv_tag, send_tag, GridAssignment};
use crate::program::{SweepOp, SweepProgram, ThreadRole};
use crate::trace::{SpanKind, ThreadResult, WallTracer};
use gpaw_bgp_hw::topology::Dir;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::halo::{pack_batch_region, unpack_batch_region, zero_face_region, Side};
use gpaw_grid::scalar::Scalar;
use gpaw_grid::stencil::{apply, apply_region, apply_slab, slab_bounds, StencilCoeffs};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Why one rank failed.
#[derive(Debug)]
pub enum FailureKind {
    /// A receive hit the deadlock watchdog; the snapshot names the
    /// blocked rank, the awaited `(src, tag)`, and all queue depths.
    RecvTimeout(Box<RecvTimeout>),
    /// A receive detected a corrupted payload — the proven integrity
    /// failure, with the rejected message's full identity.
    Corrupt(Box<PayloadCorruption>),
    /// A thread of the rank panicked; the payload message is preserved.
    Panic(String),
    /// The rank's schedule completed but left undelivered messages in the
    /// fabric — a send/recv mismatch.
    Undrained,
}

impl FailureKind {
    /// Severity class for worst-first ordering: panics (0) before proven
    /// corruption (1) before watchdog timeouts (2) before undrained
    /// fabrics (3). Failure lists sort by `(severity, rank)` — the rank
    /// tie-break keeps the order fully deterministic when several ranks
    /// fail the same way, which recovery tests rely on to compare
    /// failure sequences across runs.
    pub fn severity(&self) -> u8 {
        match self {
            FailureKind::Panic(_) => 0,
            FailureKind::Corrupt(_) => 1,
            FailureKind::RecvTimeout(_) => 2,
            FailureKind::Undrained => 3,
        }
    }
}

/// One failed rank of a run.
#[derive(Debug)]
pub struct RankFailure {
    /// The failed rank.
    pub rank: usize,
    /// Where in the rank's lifecycle the failure happened.
    pub phase: &'static str,
    /// What went wrong.
    pub kind: FailureKind,
}

impl RankFailure {
    /// A receive of `rank` failed: a watchdog expiry while waiting, or a
    /// payload that failed verification.
    fn recv(rank: usize, e: RecvError) -> RankFailure {
        let (phase, kind) = match e {
            RecvError::Timeout(t) => ("halo-wait", FailureKind::RecvTimeout(t)),
            RecvError::Corrupt(c) => ("halo-verify", FailureKind::Corrupt(c)),
        };
        RankFailure { rank, phase, kind }
    }

    /// A panic caught on `rank` during `phase`.
    fn panic(rank: usize, phase: &'static str, message: String) -> RankFailure {
        RankFailure {
            rank,
            phase,
            kind: FailureKind::Panic(message),
        }
    }

    /// A panic on thread `slot` of `rank`'s endpoint fleet or slab pool.
    fn slot_panic(rank: usize, slot: usize, payload: &(dyn Any + Send)) -> RankFailure {
        let message = format!("slot {slot}: {}", panic_message(payload));
        RankFailure::panic(rank, "thread-pool", message)
    }
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rank, phase) = (self.rank, self.phase);
        match &self.kind {
            FailureKind::RecvTimeout(t) => write!(f, "rank {rank} failed in {phase}: {t}"),
            FailureKind::Corrupt(c) => write!(f, "rank {rank} failed in {phase}: {c}"),
            FailureKind::Panic(msg) => write!(f, "rank {rank} panicked in {phase}: {msg}"),
            FailureKind::Undrained => write!(
                f,
                "rank {rank} finished {phase} with undelivered messages (schedule mismatch)"
            ),
        }
    }
}

/// Everything one launch of a job's ranks shares.
pub struct Launch<'a, T> {
    /// The job's fabric, one endpoint per rank.
    pub fabric: &'a NativeFabric<T>,
    /// Stencil coefficients.
    pub coef: &'a StencilCoeffs,
    /// Every rank's compiled sweep programs, outer index = rank, inner
    /// index = thread slot; each embeds its rank's plan.
    pub programs: &'a [Vec<SweepProgram>],
    /// Global grid extents of a fresh run's synthetic fill.
    pub grid_ext: [usize; 3],
    /// Seed of a fresh run's synthetic fill.
    pub seed: u64,
    /// First sweep to execute: 0 fills fresh inputs, anything else
    /// restores that epoch's snapshots from `ckpt`. Tags embed the
    /// absolute sweep, so the interpreter re-enters mid-program with no
    /// other state.
    pub start_sweep: usize,
    /// Where each depositing thread snapshots its inputs at every
    /// `AdvanceBuffer`. `None` skips checkpointing entirely.
    pub ckpt: Option<&'a CheckpointStore<T>>,
    /// Sleep per `AdvanceBuffer`, after the swap and deposit. Zero in
    /// normal runs; a soak stretches sweeps with it so a kill lands at
    /// an arbitrary epoch boundary.
    pub throttle: Duration,
    /// Shared time origin of the run's span ledgers.
    pub epoch: Instant,
}

/// What one rank of a [`launch`] ends with: its final grids in local
/// order plus one [`ThreadResult`] per thread, or its failure.
pub type RankOutcome<T> = Result<(GridSet<T>, Vec<ThreadResult>), RankFailure>;

/// What [`run_rank`] returns: the rank's final grids in local order plus
/// one [`ThreadResult`] per thread, or the first failure.
type Interpreted<T> = Result<(Vec<Grid3<T>>, Vec<ThreadResult>), RankFailure>;

/// Stringify a `catch_unwind` payload the way the default panic hook
/// would.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run every rank of the job, one scoped OS thread each, and return their
/// outcomes in rank order. Each rank thread fills its fresh inputs on the
/// rank's own threads (or restores the resume epoch's snapshots), runs its
/// programs under `catch_unwind`, then checks that the fabric holds no
/// message for it. No failure escapes as a panic or a hang.
pub fn launch<T: SyntheticFill>(l: &Launch<'_, T>) -> Vec<RankOutcome<T>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..l.programs.len())
            .map(|rank| s.spawn(move || launch_rank(l, rank)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|p| {
                    Err(RankFailure::panic(rank, "join", panic_message(p.as_ref())))
                })
            })
            .collect()
    })
}

/// One rank thread of [`launch`].
fn launch_rank<T: SyntheticFill>(l: &Launch<'_, T>, rank: usize) -> RankOutcome<T> {
    let programs = &l.programs[rank];
    let run = catch_unwind(AssertUnwindSafe(|| {
        let plan = &programs[0].plan;
        let blank = || Grid3::zeros(plan.sub.ext, plan.halo);
        let inputs = if l.start_sweep == 0 {
            let held = rank_grids(programs);
            let mut inputs: Vec<Grid3<T>> = (0..held.count).map(|_| blank()).collect();
            for_each_dealt(&mut inputs, programs.len(), |i, grid| {
                T::fill(grid, &plan.sub, l.grid_ext, l.seed, held.id(i));
            });
            inputs
        } else {
            restore_inputs(l.ckpt, rank, programs, l.start_sweep)
        };
        let outputs = inputs.iter().map(|_| blank()).collect();
        run_rank(l, programs, inputs, outputs)
    }));
    match run {
        Ok(Ok((grids, results))) if l.fabric.is_drained(rank) => {
            Ok((GridSet::from_grids(grids), results))
        }
        Ok(Ok(_)) => Err(RankFailure {
            rank,
            phase: "drain",
            kind: FailureKind::Undrained,
        }),
        Ok(Err(failure)) => Err(failure),
        Err(p) => Err(RankFailure::panic(rank, "run", panic_message(p.as_ref()))),
    }
}

/// The grids one rank holds, in its local order, read off its compiled
/// programs: an endpoint fleet deals every grid of the job over its
/// threads, so it holds them all; every other role's first program names
/// the rank's whole assignment (flat static's quarter included).
fn rank_grids(programs: &[SweepProgram]) -> GridAssignment {
    match programs[0].role {
        ThreadRole::Endpoint => GridAssignment::all(programs.iter().map(|p| p.asg.count).sum()),
        _ => programs[0].asg,
    }
}

/// Run `work(i, &mut items[i])` for every item, the items dealt round-robin
/// over up to `threads` threads — the caller plus scoped helpers. This is
/// how a rank fills its synthetic inputs: the fill is `sin`-bound and
/// independent per grid, and the rank's compute threads have nothing else
/// to do yet. The grids themselves are allocated by the caller, so the
/// allocator sees the same thread it always did.
///
/// One thread or one item works inline, with no spawn. A helper's panic
/// is re-raised on the caller once every helper has been joined, so it
/// unwinds into the rank's `catch_unwind` like a panic in a serial fill.
fn for_each_dealt<G: Send>(items: &mut [G], threads: usize, work: impl Fn(usize, &mut G) + Sync) {
    let dealers = threads.min(items.len()).max(1);
    let mut hands: Vec<Vec<(usize, &mut G)>> = (0..dealers).map(|_| Vec::new()).collect();
    for (i, item) in items.iter_mut().enumerate() {
        hands[i % dealers].push((i, item));
    }
    let play = |hand: Vec<(usize, &mut G)>| hand.into_iter().for_each(|(i, item)| work(i, item));
    std::thread::scope(|s| {
        let mut hands = hands.into_iter();
        let mine = hands.next().unwrap_or_default();
        let helpers: Vec<_> = hands.map(|hand| s.spawn(|| play(hand))).collect();
        play(mine);
        for helper in helpers {
            helper.join().unwrap_or_else(|p| resume_unwind(p));
        }
    });
}

/// Interpret one rank's compiled programs from `l.start_sweep`: consume
/// its input grids (and scratch outputs), return the final grids in local
/// order plus one [`ThreadResult`] per thread. Dispatches on the role of
/// the first program. Failure never deadlocks: the role's own barriers are
/// drained before the failure is returned.
fn run_rank<T: Scalar>(
    l: &Launch<'_, T>,
    programs: &[SweepProgram],
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> Interpreted<T> {
    match programs[0].role {
        ThreadRole::Single => run_single(l, &programs[0], inputs, outputs),
        ThreadRole::Endpoint => run_endpoints(l, programs, inputs, outputs),
        ThreadRole::Master => run_master_pool(l, programs, inputs, outputs),
        ThreadRole::PoolWorker { .. } => unreachable!("slot 0 is never a pool worker"),
    }
}

impl<T: Scalar> Launch<'_, T> {
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
            store.deposit_from(prog.plan.rank, slot, sweep + prog.block(), ins);
        }
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
    }
}

/// The side of our subdomain a face toward `dir` touches: the interior
/// planes a send packs, and the ghost planes a receive from that
/// neighbor fills.
fn face_side(dir: Dir) -> Side {
    match dir {
        Dir::Plus => Side::High,
        Dir::Minus => Side::Low,
    }
}

/// Execute one data op of `prog` at replay base `sweep`: the exchange
/// ops and the two computes. The synchronization ops need the role
/// runner's barrier and never reach here.
fn exec_op<T: Scalar>(
    l: &Launch<'_, T>,
    prog: &SweepProgram,
    sweep: usize,
    op: SweepOp,
    ins: &mut [Grid3<T>],
    outs: &mut [Grid3<T>],
    tr: &mut WallTracer,
) -> Result<(), RecvError> {
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
                    face_side(ld.dir),
                    depth,
                    plan.exchange_wide(ld.axis),
                    &mut buf,
                );
                tr.close();
                debug_assert_eq!(buf.len(), points);
                tr.open(SpanKind::Post);
                l.fabric
                    .send(plan.rank, nb, send_tag(sweep, first, ld), buf);
                tr.close();
            }
        }
        SweepOp::WaitAll { batch, dirs, depth } => {
            let ids: Vec<usize> = prog.locals_of(batch).collect();
            let first = prog.first_global(batch);
            for &ld in dirs.dirs() {
                let (axis, side) = (ld.axis.index(), face_side(ld.dir));
                let wide = plan.exchange_wide(ld.axis);
                match plan.neighbors[ld.index()] {
                    Some(nb) => {
                        tr.open(SpanKind::Wait);
                        let got = l.fabric.recv(plan.rank, nb, recv_tag(sweep, first, ld));
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
                apply(l.coef, &ins[g], &mut outs[g]);
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
                apply_region(l.coef, src, dst, minus, plus);
            }
            tr.close();
        }
        SweepOp::ThreadBarrier | SweepOp::ApplyBoundarySlab { .. } | SweepOp::AdvanceBuffer => {
            unreachable!("synchronization ops are handled by the role runner")
        }
    }
    Ok(())
}

/// A single-threaded rank: its one program on the rank thread. A panic
/// unwinds to the launcher, which owns the rank's containment.
fn run_single<T: Scalar>(
    l: &Launch<'_, T>,
    prog: &SweepProgram,
    mut ins: Vec<Grid3<T>>,
    mut outs: Vec<Grid3<T>>,
) -> Interpreted<T> {
    let rank = prog.plan.rank;
    let mut tr = WallTracer::new(l.epoch);
    for (sweep, op) in prog.walk(l.start_sweep) {
        if op == SweepOp::AdvanceBuffer {
            l.advance(prog, 0, sweep, &mut ins, &mut outs);
        } else {
            exec_op(l, prog, sweep, op, &mut ins, &mut outs, &mut tr)
                .map_err(|e| RankFailure::recv(rank, e))?;
        }
    }
    Ok((ins, vec![tr.finish(rank, 0)]))
}

/// One pooled or endpoint thread's walk: its tracer and the first
/// failure it hit.
struct Walker {
    rank: usize,
    slot: usize,
    tr: WallTracer,
    err: Option<RankFailure>,
}

impl Walker {
    fn new(epoch: Instant, rank: usize, slot: usize) -> Walker {
        Walker {
            rank,
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
    fn guard(&mut self, f: impl FnOnce(&mut WallTracer) -> Result<(), RecvError>) {
        if self.err.is_some() {
            return;
        }
        let err = match catch_unwind(AssertUnwindSafe(|| f(&mut self.tr))) {
            Ok(Ok(())) => return,
            Ok(Err(e)) => RankFailure::recv(self.rank, e),
            Err(p) => RankFailure::slot_panic(self.rank, self.slot, p.as_ref()),
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

    fn finish(self) -> Result<ThreadResult, RankFailure> {
        match self.err {
            None => Ok(self.tr.finish(self.rank, self.slot)),
            Some(e) => Err(e),
        }
    }
}

/// Join the threads spawned for `rank`'s slots `first..`; a panic that
/// escaped a thread becomes its slot's failure.
fn join_slots<R>(
    handles: Vec<ScopedJoinHandle<'_, Result<R, RankFailure>>>,
    rank: usize,
    first: usize,
) -> Vec<Result<R, RankFailure>> {
    handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            h.join()
                .unwrap_or_else(|p| Err(RankFailure::slot_panic(rank, first + i, p.as_ref())))
        })
        .collect()
}

/// Every slot's result in slot order, or the rank's worst slot failure:
/// the lowest `(severity, slot)`. A rank whose slot 1 panicked reports
/// the panic, not slot 0's watchdog expiry while it waited on slot 1.
fn worst_of_slots<R>(
    outcomes: impl IntoIterator<Item = Result<R, RankFailure>>,
) -> Result<Vec<R>, RankFailure> {
    let (done, failed): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    // `min_by_key` keeps the first of equal keys: the lowest slot.
    match failed
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|f| f.kind.severity())
    {
        Some(worst) => Err(worst),
        None => Ok(done.into_iter().flatten().collect()),
    }
}

/// A fleet of peer endpoints: each program on its own thread with its
/// own grids and its own communication, synchronized only at the
/// `ThreadBarrier` op.
fn run_endpoints<T: Scalar>(
    l: &Launch<'_, T>,
    programs: &[SweepProgram],
    inputs: Vec<Grid3<T>>,
    outputs: Vec<Grid3<T>>,
) -> Interpreted<T> {
    let rank = programs[0].plan.rank;
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
                    let mut w = Walker::new(l.epoch, rank, t);
                    for (sweep, op) in prog.walk(l.start_sweep) {
                        match op {
                            SweepOp::ThreadBarrier => w.wait(barrier),
                            // A failed endpoint never deposits: its stale
                            // epoch pins the consistent floor, so rollback
                            // lands where it last swapped.
                            SweepOp::AdvanceBuffer if w.ok() => {
                                l.advance(prog, t, sweep, &mut ins, &mut outs)
                            }
                            SweepOp::AdvanceBuffer => {}
                            _ => w.guard(|tr| exec_op(l, prog, sweep, op, &mut ins, &mut outs, tr)),
                        }
                    }
                    w.finish().map(|r| (ins, r))
                })
            })
            .collect();
        join_slots(handles, rank, 0)
    });

    // Interleave back into the rank's grid order.
    let mut results = Vec::with_capacity(programs.len());
    let mut grids = Vec::with_capacity(programs.len());
    for (g, r) in worst_of_slots(outcomes)? {
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
fn fence<T: Scalar>(
    w: &mut Walker,
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
fn run_master_pool<T: Scalar>(
    l: &Launch<'_, T>,
    programs: &[SweepProgram],
    mut ins: Vec<Grid3<T>>,
    mut outs: Vec<Grid3<T>>,
) -> Interpreted<T> {
    let rank = programs[0].plan.rank;
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
                    let mut w = Walker::new(l.epoch, rank, t);
                    for (_, op) in prog.walk(l.start_sweep) {
                        match op {
                            SweepOp::ApplyBoundarySlab { .. } => {
                                fence(&mut w, barrier, l.coef, || {
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
                    w.finish()
                })
            })
            .collect();

        let prog = &programs[0];
        let mut w = Walker::new(l.epoch, rank, 0);
        for (sweep, op) in prog.walk(l.start_sweep) {
            match op {
                SweepOp::ApplyBoundarySlab { batch, index } => {
                    let gid = prog.locals_of(batch).start + index;
                    let mine = if w.ok() {
                        publish_slab_tasks(&ins, &mut outs, gid, &bounds, &slots)
                    } else {
                        Vec::new()
                    };
                    fence(&mut w, &barrier, l.coef, || mine);
                }
                // Master-only: one deposit covers the rank.
                SweepOp::AdvanceBuffer if w.ok() => l.advance(prog, 0, sweep, &mut ins, &mut outs),
                SweepOp::AdvanceBuffer => {}
                _ => w.guard(|tr| exec_op(l, prog, sweep, op, &mut ins, &mut outs, tr)),
            }
        }
        (w.finish(), join_slots(handles, rank, 1))
    });

    let results = worst_of_slots(std::iter::once(master).chain(workers))?;
    Ok((ins, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FabricDiagnostic;

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&17_u64), "non-string panic payload");
    }

    fn timeout() -> Box<RecvTimeout> {
        Box::new(RecvTimeout {
            rank: 1,
            src: 0,
            tag: 42,
            waited: Duration::from_millis(300),
            diagnostic: FabricDiagnostic::default(),
        })
    }

    fn corruption() -> Box<PayloadCorruption> {
        Box::new(PayloadCorruption {
            rank: 1,
            src: 0,
            tag: 42,
            seq: 7,
            diagnostic: FabricDiagnostic::default(),
        })
    }

    #[test]
    fn receive_failures_name_their_phase_and_the_pending_recv() {
        let waited = RankFailure::recv(1, RecvError::Timeout(timeout()));
        assert_eq!(waited.phase, "halo-wait");
        let text = waited.to_string();
        assert!(text.contains("rank 1 failed in halo-wait"), "{text}");
        assert!(text.contains("recv(src=0, tag=42)"), "{text}");
        let corrupt = RankFailure::recv(1, RecvError::Corrupt(corruption()));
        assert_eq!(corrupt.phase, "halo-verify");
        assert!(matches!(corrupt.kind, FailureKind::Corrupt(_)));
        assert!(corrupt.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn thread_panic_keeps_slot_and_message() {
        let f = RankFailure::slot_panic(3, 2, &"boom");
        assert_eq!(f.phase, "thread-pool");
        let text = f.to_string();
        assert!(text.contains("rank 3"), "{text}");
        assert!(text.contains("slot 2: boom"), "{text}");
    }

    #[test]
    fn failure_ordering_is_deterministic_with_rank_tie_break() {
        // Build failures out of order: equal-severity entries must sort by
        // rank, and panics outrank corruption outrank timeouts outrank
        // undrained — always the same sequence regardless of completion
        // interleaving.
        let undrained = |rank| RankFailure {
            rank,
            phase: "drain",
            kind: FailureKind::Undrained,
        };
        let mut failures = [
            RankFailure::recv(3, RecvError::Timeout(timeout())),
            undrained(2),
            RankFailure::recv(1, RecvError::Timeout(timeout())),
            RankFailure::panic(2, "run", "boom".into()),
            RankFailure::recv(3, RecvError::Corrupt(corruption())),
        ];
        failures.sort_by_key(|f| (f.kind.severity(), f.rank));
        let order: Vec<(u8, usize)> = failures
            .iter()
            .map(|f| (f.kind.severity(), f.rank))
            .collect();
        assert_eq!(order, vec![(0, 2), (1, 3), (2, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn a_rank_reports_its_worst_slot_not_its_first() {
        // Slot 0 timed out waiting on slot 1, which panicked.
        let outcomes = [
            Err(RankFailure::recv(1, RecvError::Timeout(timeout()))),
            Err(RankFailure::slot_panic(1, 1, &"boom")),
            Ok(2),
        ];
        let worst = worst_of_slots(outcomes).expect_err("two slots failed");
        assert!(matches!(worst.kind, FailureKind::Panic(ref m) if m == "slot 1: boom"));
        // Equal severity: the lower slot wins.
        let panic = |phase| Err(RankFailure::panic(1, phase, "boom".into()));
        let worst = worst_of_slots([Ok(1), panic("slot-1"), panic("slot-2")]);
        assert_eq!(worst.expect_err("two slots failed").phase, "slot-1");
        assert_eq!(worst_of_slots::<u8>([Ok(4), Ok(5)]).ok(), Some(vec![4, 5]));
    }

    #[test]
    fn every_item_is_worked_once_under_its_own_index_whoever_finishes_first() {
        // Two dealers over five items: the caller works 0, 2, 4 and the
        // helper 1, 3. Item 0 blocks until the helper has finished its
        // last item, so the helper's whole hand completes before the
        // caller's first — every slot must still hold its own index.
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let (done, wait) = (std::sync::Mutex::new(done), std::sync::Mutex::new(wait));
        let mut items = vec![None; 5];
        for_each_dealt(&mut items, 2, |i, slot| {
            if i == 0 {
                wait.lock()
                    .expect("unpoisoned")
                    .recv()
                    .expect("helper signals");
            } else if i == 3 {
                done.lock()
                    .expect("unpoisoned")
                    .send(())
                    .expect("caller waits");
            }
            assert!(slot.replace((i, std::thread::current().id())).is_none());
        });
        let me = std::thread::current().id();
        for (at, slot) in items.iter().enumerate() {
            let (i, thread) = slot.expect("worked");
            assert_eq!(i, at);
            assert_eq!(thread == me, at % 2 == 0, "item {at} on the wrong dealer");
        }
        // More threads than items: one dealer per item; no items: no work.
        let mut squares = [0usize; 3];
        for_each_dealt(&mut squares, 8, |i, s| *s = i * i);
        assert_eq!(squares, [0, 1, 4]);
        for_each_dealt(&mut [0u8; 0], 4, |_, _| unreachable!("nothing to deal"));
    }

    #[test]
    fn one_thread_or_one_item_works_on_the_calling_thread() {
        let me = std::thread::current().id();
        for (count, threads) in [(5, 1), (1, 4), (3, 0)] {
            let mut on = vec![None; count];
            for_each_dealt(&mut on, threads, |_, t| {
                *t = Some(std::thread::current().id())
            });
            assert_eq!(on, vec![Some(me); count], "count {count} threads {threads}");
        }
    }

    #[test]
    fn a_helper_panic_resurfaces_on_the_caller_with_its_message() {
        let caught = catch_unwind(|| {
            for_each_dealt(&mut [0u8; 4], 2, |i, _| {
                assert!(i != 3, "item {i} is cursed")
            });
        });
        let payload = caught.expect_err("the helper's panic must propagate");
        assert!(panic_message(payload.as_ref()).contains("item 3 is cursed"));
    }
}
