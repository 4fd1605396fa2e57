//! The sweep-schedule IR: one program, two interpreters, three planes.
//!
//! The paper's four programming approaches differ only in *schedule* —
//! who exchanges which halos when, and who synchronizes with whom — while
//! the FD math is identical (§V–VI). This module makes that schedule a
//! first-class value: [`compile_rank`] turns `(FdConfig, CartMap,
//! RankPlan, n_grids, threads)` into one [`SweepProgram`] per thread
//! slot, a flat op list describing a single sweep. Two interpreters run
//! that list:
//!
//! * `core::interp` executes it on real data and real threads over the
//!   in-process `NativeFabric` — the functional plane on a clean fabric,
//!   the native plane (`gpaw-hybrid-rt`) with faults and checkpoints;
//! * `core::timed` lowers each op to cost-model instructions for the
//!   simulated Blue Gene/P.
//!
//! All three planes step through a program with one [`Cursor`] and take
//! a wavefront step's box from [`SweepProgram::wavefront_box`], so
//! cross-plane parity holds *by construction*: there is no per-plane
//! schedule code to drift. Adding an approach means adding one arm to
//! the compiler — every plane picks it up for free.
//!
//! The ops deliberately say *what* must happen, not *how*: `PostRecv`
//! is a real `Irecv` on the timed plane but a no-op on real data, whose
//! fabric buffers sends; `ThreadBarrier` is a real `std::sync::Barrier`
//! on real data and a simulated barrier instruction on the timed plane.
//! What every interpreter must preserve is the op *order* and the
//! tag/epoch derivation (from [`crate::plan`]).
//!
//! Since the temporal-blocking refactor the exchange ops carry their
//! ghost `depth` explicitly and one replay of `ops` advances
//! [`SweepProgram::block`] sweeps: a fused program exchanges depth
//! `block · h` ghosts once, then applies the stencil `block` times at
//! successively shrinking extents ([`SweepOp::ComputeWavefront`]).

use crate::config::{Approach, FdConfig};
use crate::plan::{slab_share, Batches, GridAssignment, RankPlan};
use gpaw_bgp_hw::topology::{Axis, Dir, LinkDir};
use gpaw_bgp_hw::CartMap;
use gpaw_grid::stencil::StencilCoeffs;

/// Which directed faces one exchange op covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirSet {
    /// All six faces at once (the non-blocking approaches).
    All,
    /// The two faces of one axis (flat original's blocking dim-by-dim
    /// exchange, and the fused schedule's ordered ghost-forwarding
    /// exchange).
    Axis(Axis),
}

impl DirSet {
    /// The directed faces in this set, in canonical `LinkDir::ALL` order.
    pub fn dirs(self) -> &'static [LinkDir] {
        match self {
            DirSet::All => &LinkDir::ALL,
            // `LinkDir::ALL` is grouped by axis: [X−, X+, Y−, Y+, Z−, Z+].
            DirSet::Axis(a) => {
                let i = a.index();
                &LinkDir::ALL[2 * i..2 * i + 2]
            }
        }
    }
}

/// One step of a sweep schedule.
///
/// `batch` always indexes the program's own [`Batches`] (i.e. positions
/// within the thread's [`GridAssignment`], not global grid ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOp {
    /// Post the receives for `batch`'s faces in `dirs`, `depth` ghost
    /// planes deep.
    PostRecv {
        /// Batch index within the program's batches.
        batch: usize,
        /// Which faces.
        dirs: DirSet,
        /// Ghost planes per face (the plan's exchange depth).
        depth: usize,
    },
    /// Pack and send `batch`'s faces in `dirs`, `depth` ghost planes
    /// deep. A fused-schedule send along axis `a` also packs the ghost
    /// cross-section of every axis `< a` (already exchanged this replay),
    /// forwarding edge/corner ghosts without diagonal messages.
    SendFace {
        /// Batch index within the program's batches.
        batch: usize,
        /// Which faces.
        dirs: DirSet,
        /// Ghost planes per face (the plan's exchange depth).
        depth: usize,
    },
    /// Block until every receive posted for `batch` in `dirs` has landed,
    /// and unpack (or zero-fill faces with no neighbor).
    WaitAll {
        /// Batch index within the program's batches.
        batch: usize,
        /// Which faces.
        dirs: DirSet,
        /// Ghost planes per face (the plan's exchange depth).
        depth: usize,
    },
    /// Apply the stencil to every grid of `batch`, whole-subdomain.
    ComputeInterior {
        /// Batch index within the program's batches.
        batch: usize,
    },
    /// Apply one step of a fused temporal block to every grid of
    /// `batch`: compute the subdomain *extended* by
    /// `shrink · (block − 1 − step)` ghost planes per side (clamped to
    /// zero extension at faces with no neighbor). Step 0 computes the
    /// widest box from freshly exchanged depth-`block·shrink` ghosts;
    /// each later step consumes `shrink` planes of what the previous
    /// step produced; the last step lands exactly on the subdomain.
    ComputeWavefront {
        /// Batch index within the program's batches.
        batch: usize,
        /// Position within the fused block (`0..block`).
        step: usize,
        /// Ghost planes consumed per step (the stencil halo).
        shrink: usize,
    },
    /// Apply the stencil to the `index`-th grid of `batch`, slab-split
    /// across the rank's thread pool and fenced by a release/completion
    /// barrier pair (master-only's compute step). One op ⇒ exactly two
    /// barrier waits per participating thread, which is what makes the
    /// fault plane's barrier-drain arithmetic static.
    ApplyBoundarySlab {
        /// Batch index within the program's batches.
        batch: usize,
        /// Grid position within the batch.
        index: usize,
    },
    /// Synchronize every thread of the rank (hybrid multiple's one
    /// barrier per sweep).
    ThreadBarrier,
    /// End of replay: swap input/output grid sets if the replay computed
    /// an odd number of sweeps (a fused block of even `block` lands its
    /// result back in the input buffers).
    AdvanceBuffer,
}

/// What kind of thread executes a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRole {
    /// The only thread of a flat (virtual-mode) rank.
    Single,
    /// One of hybrid multiple's (or temporal blocked's) peer threads,
    /// each with its own communication endpoint.
    Endpoint,
    /// Master-only's communicating thread (also computes slab 0).
    Master,
    /// Master-only's compute-only pool thread.
    PoolWorker {
        /// The thread slot (1-based within the rank; slot 0 is the
        /// master).
        slot: usize,
    },
}

/// A structural defect [`SweepProgram::validate`] found — the schedule
/// compiler's type system. Each variant names the invariant an
/// interpreter would otherwise trip over at runtime (or worse, turn
/// into a silent bitwise diff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An op appears after the replay-terminal `AdvanceBuffer`.
    OpAfterAdvance {
        /// Op index.
        op: usize,
    },
    /// The same `(batch, dir)` receive was posted twice without a wait.
    DoublePostRecv {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Directed face.
        dir: LinkDir,
    },
    /// A send was issued before its matching receive was posted (a
    /// rendezvous deadlock on the timed plane).
    SendBeforePost {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Directed face.
        dir: LinkDir,
    },
    /// A wait references a `(batch, dir)` that was never posted.
    WaitWithoutPost {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Directed face.
        dir: LinkDir,
    },
    /// A wait on a `(batch, dir)` whose own send was never issued: in an
    /// SPMD schedule every rank runs the same ops, so the neighbor is
    /// equally waiting and nobody sends — a guaranteed deadlock.
    WaitBeforeSend {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Directed face.
        dir: LinkDir,
    },
    /// The same `(batch, dir)` was waited twice.
    DoubleWait {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Directed face.
        dir: LinkDir,
    },
    /// An exchange op's `depth` disagrees with the plan's exchange depth
    /// (its face buffers would be mis-sized on every plane).
    DepthMismatch {
        /// Op index.
        op: usize,
        /// The op's depth.
        depth: usize,
        /// The plan's exchange depth.
        plan: usize,
    },
    /// A compute op ran on a batch with posted-but-unwaited receives.
    ComputeUnwaited {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
    },
    /// A slab compute indexed past the end of its batch.
    SlabOutOfRange {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// Offending grid position.
        index: usize,
    },
    /// Wavefront steps of a batch are not contiguous ascending from 0.
    WavefrontOrder {
        /// Op index.
        op: usize,
        /// Batch index.
        batch: usize,
        /// The op's step.
        step: usize,
        /// The step the sequence requires next.
        expected: usize,
    },
    /// A wavefront op's `shrink` differs from the stencil halo.
    WavefrontShrink {
        /// Op index.
        op: usize,
        /// The op's shrink.
        shrink: usize,
        /// The required shrink.
        expected: usize,
    },
    /// A batch's wavefront ended short of the program's block.
    WavefrontIncomplete {
        /// Batch index.
        batch: usize,
        /// Steps emitted.
        steps: usize,
        /// Steps required (the block).
        block: usize,
    },
    /// `AdvanceBuffer` executed with receives still outstanding — the op
    /// list replays, so the dangling receive would cross replays.
    AdvanceWithOutstanding {
        /// Batch index.
        batch: usize,
    },
    /// The replay does not end with `AdvanceBuffer`.
    MissingAdvance,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ValidationError::*;
        match *self {
            OpAfterAdvance { op } => write!(f, "op {op}: op after AdvanceBuffer"),
            DoublePostRecv { op, batch, dir } => {
                write!(f, "op {op}: double PostRecv batch {batch} {dir:?}")
            }
            SendBeforePost { op, batch, dir } => {
                write!(
                    f,
                    "op {op}: SendFace before PostRecv, batch {batch} {dir:?}"
                )
            }
            WaitWithoutPost { op, batch, dir } => {
                write!(
                    f,
                    "op {op}: WaitAll without PostRecv, batch {batch} {dir:?}"
                )
            }
            WaitBeforeSend { op, batch, dir } => write!(
                f,
                "op {op}: WaitAll before SendFace, batch {batch} {dir:?} (SPMD deadlock)"
            ),
            DoubleWait { op, batch, dir } => {
                write!(f, "op {op}: double WaitAll batch {batch} {dir:?}")
            }
            DepthMismatch { op, depth, plan } => {
                write!(f, "op {op}: exchange depth {depth} != plan depth {plan}")
            }
            ComputeUnwaited { op, batch } => {
                write!(f, "op {op}: compute on un-waited batch {batch}")
            }
            SlabOutOfRange { op, batch, index } => {
                write!(f, "op {op}: slab index {index} outside batch {batch}")
            }
            WavefrontOrder {
                op,
                batch,
                step,
                expected,
            } => write!(
                f,
                "op {op}: wavefront step {step} of batch {batch}, expected {expected}"
            ),
            WavefrontShrink {
                op,
                shrink,
                expected,
            } => write!(f, "op {op}: wavefront shrink {shrink}, expected {expected}"),
            WavefrontIncomplete {
                batch,
                steps,
                block,
            } => write!(
                f,
                "batch {batch}: wavefront stopped at step {steps} of block {block}"
            ),
            AdvanceWithOutstanding { batch } => {
                write!(
                    f,
                    "AdvanceBuffer with batch {batch}'s PostRecv left dangling"
                )
            }
            MissingAdvance => write!(f, "sweep does not end with AdvanceBuffer"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// The compiled schedule of one thread of one rank, for one replay.
///
/// Interpreters replay `ops` [`SweepProgram::replays`] times — each
/// replay advances [`SweepProgram::block`] sweeps; tags and epochs are
/// derived from the current `(sweep, batch)` via [`crate::plan`], so the
/// op list itself is replay-invariant and compiled exactly once.
#[derive(Debug, Clone)]
pub struct SweepProgram {
    /// What kind of thread runs this program.
    pub role: ThreadRole,
    /// The rank's communication geometry.
    pub plan: RankPlan,
    /// The grids this thread communicates (global ids); for flat static
    /// this is also the subset of grids the rank *owns*.
    pub asg: GridAssignment,
    /// Batch boundaries over `asg` (positions, not global ids).
    pub batches: Batches,
    /// Thread slots on the rank (slab split width for master-only).
    pub threads: usize,
    /// Total sweeps of the run (replays × block).
    pub sweeps: usize,
    /// The schedule of one replay.
    pub ops: Vec<SweepOp>,
}

impl SweepProgram {
    /// Sweeps one replay of `ops` advances (the fused temporal block;
    /// 1 for every non-blocked approach).
    pub fn block(&self) -> usize {
        self.plan.block
    }

    /// How many times interpreters replay `ops`.
    pub fn replays(&self) -> usize {
        debug_assert_eq!(self.sweeps % self.block(), 0);
        self.sweeps / self.block()
    }

    /// Replay `ops` from `start_sweep` through the last sweep, one replay
    /// per block: every op with its replay's base sweep. `start_sweep` is
    /// 0 for a fresh run, or the epoch a resume rolls back to.
    pub fn walk(&self, start_sweep: usize) -> impl Iterator<Item = (usize, SweepOp)> + '_ {
        let mut cursor = Cursor::at(start_sweep);
        std::iter::from_fn(move || cursor.step(self))
    }

    /// The box one `ComputeWavefront { step, shrink }` computes, as its
    /// extension past the subdomain on each side: `[minus, plus]`, per
    /// axis. The box reaches `shrink · (block − 1 − step)` planes into
    /// the ghost zone on every side that has a neighbor, and not at all at
    /// a face with none (zero-boundary ghosts are zero at every
    /// intermediate sweep, so there is nothing beyond the edge to
    /// compute). Every plane takes its wavefront box from here.
    pub fn wavefront_box(&self, step: usize, shrink: usize) -> [[usize; 3]; 2] {
        let ext = shrink * (self.block() - 1 - step);
        let mut sides = [[0; 3]; 2];
        for ld in LinkDir::ALL {
            if self.plan.neighbors[ld.index()].is_some() {
                let side = match ld.dir {
                    Dir::Minus => 0,
                    Dir::Plus => 1,
                };
                sides[side][ld.axis.index()] = ext;
            }
        }
        sides
    }

    /// Local grid positions (indices into the thread's grid list) of
    /// batch `b`.
    pub fn locals_of(&self, b: usize) -> std::ops::Range<usize> {
        let (s, e) = self.batches.range(b);
        s..e
    }

    /// Global id of the first grid of batch `b` — the tag key both sides
    /// of an exchange agree on.
    pub fn first_global(&self, b: usize) -> usize {
        let (s, e) = self.batches.range(b);
        if s == e {
            0
        } else {
            self.asg.id(s)
        }
    }

    /// The wait epoch of `(sweep, b)`. For fused programs `sweep` is the
    /// block's base sweep, so the three axis waits of one `(block,
    /// batch)` share a single epoch value.
    pub fn epoch(&self, sweep: usize, b: usize) -> u32 {
        crate::plan::exchange_epoch(sweep, b, self.batches.len())
    }

    /// This thread's compute share of one grid, as `(points, rows)` —
    /// a slab for master/pool threads, the whole subdomain otherwise.
    pub fn compute_unit(&self) -> (u64, u64) {
        match self.role {
            ThreadRole::Master => slab_share(&self.plan.sub, 0, self.threads),
            ThreadRole::PoolWorker { slot } => slab_share(&self.plan.sub, slot, self.threads),
            _ => {
                let sub = &self.plan.sub;
                (sub.points() as u64, sub.rows() as u64)
            }
        }
    }

    /// Checkpointable epoch boundaries of the program. Epoch `e` means
    /// "state after `e` completed sweeps"; epoch 0 is the initial fill.
    /// The replay-terminal `AdvanceBuffer` marks them (`validate()`
    /// enforces exactly one), so a fused program's checkpointable epochs
    /// are the multiples of [`SweepProgram::block`] — recovery resumes
    /// from any such epoch `< epochs()` because tags embed the block's
    /// absolute base sweep.
    pub fn epochs(&self) -> usize {
        self.sweeps
    }

    /// Barrier waits one replay of `ops` performs — static per role,
    /// which is what lets the native fault plane drain a failed rank's
    /// barriers without deadlocking its healthy siblings.
    pub fn barrier_waits_per_sweep(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                SweepOp::ThreadBarrier => 1,
                SweepOp::ApplyBoundarySlab { .. } => 2,
                _ => 0,
            })
            .sum()
    }

    /// Messages one replay of `ops` sends from this rank (this thread's
    /// share): one per `SendFace` direction that has a neighbor.
    pub fn messages_per_sweep(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match *op {
                SweepOp::SendFace { dirs, .. } => dirs
                    .dirs()
                    .iter()
                    .filter(|ld| self.plan.neighbors[ld.index()].is_some())
                    .count() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Bytes one replay of `ops` sends from this rank (this thread's
    /// share).
    pub fn bytes_per_sweep(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match *op {
                SweepOp::SendFace { batch, dirs, .. } => {
                    let grids = self.batches.size(batch);
                    dirs.dirs()
                        .iter()
                        .filter(|ld| self.plan.neighbors[ld.index()].is_some())
                        .map(|ld| self.plan.msg_bytes(ld.axis, grids))
                        .sum()
                }
                _ => 0,
            })
            .sum()
    }

    /// Total messages over the whole run ([`SweepProgram::replays`]
    /// replays — a fused program replays `sweeps / block` times, which
    /// is where temporal blocking's message reduction shows up).
    pub fn predicted_messages(&self) -> u64 {
        self.messages_per_sweep() * self.replays() as u64
    }

    /// Total sent bytes over the whole run.
    pub fn predicted_bytes(&self) -> u64 {
        self.bytes_per_sweep() * self.replays() as u64
    }

    /// Distinct exchange epochs this thread's run produces: batches that
    /// wait at least once, times replays. All `WaitAll` ops of one
    /// `(replay, batch)` — e.g. the fused schedule's three ordered axis
    /// waits — share one epoch value, so a `TemporalBlocked(k)` run has
    /// `1/k` the epochs of `HybridMultiple` at equal sweep count.
    pub fn exchange_epochs(&self) -> u64 {
        let mut waits = vec![false; self.batches.len()];
        for op in &self.ops {
            if let SweepOp::WaitAll { batch, .. } = *op {
                waits[batch] = true;
            }
        }
        waits.iter().filter(|&&w| w).count() as u64 * self.replays() as u64
    }

    /// Structural well-formedness: the invariants every interpreter
    /// leans on. Returns the first violation as a typed error.
    ///
    /// * every `PostRecv` is consumed by a later `WaitAll` of the same
    ///   batch (and every `WaitAll`/`SendFace` was posted first);
    /// * every `WaitAll` follows its own side's `SendFace` (the SPMD
    ///   deadlock catcher: if we haven't sent, neither has the
    ///   identically-scheduled neighbor);
    /// * exchange depths match the plan's;
    /// * a batch is fully waited before it is computed;
    /// * wavefront steps run contiguously `0..block` with the stencil
    ///   halo's shrink;
    /// * nothing is left posted at `AdvanceBuffer` (the op list replays,
    ///   so a dangling receive would cross replays);
    /// * the replay ends with exactly one `AdvanceBuffer`.
    pub fn validate(&self) -> Result<(), ValidationError> {
        use ValidationError as E;
        let nb = self.batches.len();
        let block = self.block();
        // posted[b][dir] / sent[b][dir] / waited[b][dir]
        let mut posted = vec![[false; 6]; nb];
        let mut sent = vec![[false; 6]; nb];
        let mut waited = vec![[false; 6]; nb];
        let mut wf_next = vec![0usize; nb];
        let mut advanced = false;
        for (i, op) in self.ops.iter().enumerate() {
            if advanced {
                return Err(E::OpAfterAdvance { op: i });
            }
            match *op {
                SweepOp::PostRecv { batch, dirs, depth } => {
                    if depth != self.plan.halo {
                        return Err(E::DepthMismatch {
                            op: i,
                            depth,
                            plan: self.plan.halo,
                        });
                    }
                    for ld in dirs.dirs() {
                        if posted[batch][ld.index()] {
                            return Err(E::DoublePostRecv {
                                op: i,
                                batch,
                                dir: *ld,
                            });
                        }
                        posted[batch][ld.index()] = true;
                    }
                }
                SweepOp::SendFace { batch, dirs, depth } => {
                    if depth != self.plan.halo {
                        return Err(E::DepthMismatch {
                            op: i,
                            depth,
                            plan: self.plan.halo,
                        });
                    }
                    for ld in dirs.dirs() {
                        if !posted[batch][ld.index()] {
                            return Err(E::SendBeforePost {
                                op: i,
                                batch,
                                dir: *ld,
                            });
                        }
                        sent[batch][ld.index()] = true;
                    }
                }
                SweepOp::WaitAll { batch, dirs, depth } => {
                    if depth != self.plan.halo {
                        return Err(E::DepthMismatch {
                            op: i,
                            depth,
                            plan: self.plan.halo,
                        });
                    }
                    for ld in dirs.dirs() {
                        if !posted[batch][ld.index()] {
                            return Err(E::WaitWithoutPost {
                                op: i,
                                batch,
                                dir: *ld,
                            });
                        }
                        if !sent[batch][ld.index()] {
                            return Err(E::WaitBeforeSend {
                                op: i,
                                batch,
                                dir: *ld,
                            });
                        }
                        if waited[batch][ld.index()] {
                            return Err(E::DoubleWait {
                                op: i,
                                batch,
                                dir: *ld,
                            });
                        }
                        waited[batch][ld.index()] = true;
                    }
                }
                SweepOp::ComputeInterior { batch } | SweepOp::ApplyBoundarySlab { batch, .. } => {
                    if posted[batch] != waited[batch] {
                        return Err(E::ComputeUnwaited { op: i, batch });
                    }
                    if let SweepOp::ApplyBoundarySlab { index, .. } = *op {
                        if index >= self.batches.size(batch) {
                            return Err(E::SlabOutOfRange {
                                op: i,
                                batch,
                                index,
                            });
                        }
                    }
                }
                SweepOp::ComputeWavefront {
                    batch,
                    step,
                    shrink,
                } => {
                    if posted[batch] != waited[batch] {
                        return Err(E::ComputeUnwaited { op: i, batch });
                    }
                    if shrink != StencilCoeffs::HALO {
                        return Err(E::WavefrontShrink {
                            op: i,
                            shrink,
                            expected: StencilCoeffs::HALO,
                        });
                    }
                    if step != wf_next[batch] || step >= block {
                        return Err(E::WavefrontOrder {
                            op: i,
                            batch,
                            step,
                            expected: wf_next[batch],
                        });
                    }
                    wf_next[batch] += 1;
                }
                SweepOp::ThreadBarrier => {}
                SweepOp::AdvanceBuffer => {
                    for b in 0..nb {
                        if posted[b] != waited[b] {
                            return Err(E::AdvanceWithOutstanding { batch: b });
                        }
                    }
                    advanced = true;
                }
            }
        }
        if !advanced {
            return Err(E::MissingAdvance);
        }
        for (b, &steps) in wf_next.iter().enumerate() {
            if steps > 0 && steps != block {
                return Err(E::WavefrontIncomplete {
                    batch: b,
                    steps,
                    block,
                });
            }
        }
        Ok(())
    }
}

/// A position in the replay of one program: the base sweep of the
/// current replay and the next op. [`SweepProgram::walk`] and the timed
/// plane's lazy lowering both step through a program with it, so the
/// replay order is written once.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    sweep: usize,
    op: usize,
}

impl Cursor {
    /// A cursor at the first op of the replay whose base sweep is `sweep`
    /// (a multiple of the program's block).
    pub fn at(sweep: usize) -> Cursor {
        Cursor { sweep, op: 0 }
    }

    /// The op under the cursor with its replay's base sweep, then step
    /// past it — wrapping to the next replay, `block` sweeps on, at the
    /// end of the op list. `None` once the program's sweeps are done.
    pub fn step(&mut self, prog: &SweepProgram) -> Option<(usize, SweepOp)> {
        if self.sweep >= prog.sweeps {
            return None;
        }
        let at = (self.sweep, *prog.ops.get(self.op)?);
        self.op += 1;
        if self.op == prog.ops.len() {
            self.op = 0;
            self.sweep += prog.block();
        }
        Some(at)
    }
}

/// Logical `(messages, bytes)` every rank of `programs` sends for the
/// sweep span `from_epoch..to_epoch` — the statically-known traffic of
/// those completed epochs, summed over every thread slot. A fused
/// program exchanges once per `block` sweeps, so the span contributes
/// `to/block − from/block` replays; spans are expected to start and end
/// on replay boundaries (deposits only happen there).
///
/// This is the arithmetic the durable layer uses to seed a restored
/// fabric and the degradation plane uses to report (and the tests to
/// verify, exactly) per-geometry-segment traffic.
pub fn predicted_logical_span(
    programs: &[Vec<SweepProgram>],
    from_epoch: usize,
    to_epoch: usize,
) -> (u64, u64) {
    let mut messages = 0u64;
    let mut bytes = 0u64;
    for progs in programs {
        for prog in progs {
            let block = prog.block();
            let replays = (to_epoch / block).saturating_sub(from_epoch / block) as u64;
            messages += prog.messages_per_sweep() * replays;
            bytes += prog.bytes_per_sweep() * replays;
        }
    }
    (messages, bytes)
}

/// Compile one rank's schedule: one [`SweepProgram`] per thread slot.
///
/// Flat approaches (single-threaded ranks) get one program; hybrid
/// multiple and temporal blocked get `threads` peer endpoint programs;
/// master-only gets one master plus `threads − 1` pool workers. This is
/// the *only* place in the repo that knows how an approach schedules
/// its sweep.
pub fn compile_rank(
    cfg: &FdConfig,
    map: &CartMap,
    plan: &RankPlan,
    n_grids: usize,
    threads: usize,
) -> Vec<SweepProgram> {
    let mk = |role: ThreadRole, t: usize| -> SweepProgram {
        let asg = RankPlan::assignment(cfg.approach, n_grids, map, plan.rank, t, threads);
        let batches = Batches::build(asg.count, cfg);
        let ops = emit_ops(cfg, role, &batches, asg.count);
        SweepProgram {
            role,
            plan: plan.clone(),
            asg,
            batches,
            threads,
            sweeps: cfg.sweeps,
            ops,
        }
    };
    match cfg.approach {
        Approach::FlatOriginal | Approach::FlatOptimized | Approach::FlatStatic => {
            vec![mk(ThreadRole::Single, 0)]
        }
        Approach::HybridMultiple | Approach::TemporalBlocked => {
            (0..threads).map(|t| mk(ThreadRole::Endpoint, t)).collect()
        }
        Approach::HybridMasterOnly => (0..threads)
            .map(|t| {
                if t == 0 {
                    mk(ThreadRole::Master, 0)
                } else {
                    mk(ThreadRole::PoolWorker { slot: t }, t)
                }
            })
            .collect(),
    }
}

/// Emit the op list for one role. `count` is the thread's grid count —
/// a zero-grid thread still participates in its role's barriers.
fn emit_ops(cfg: &FdConfig, role: ThreadRole, batches: &Batches, count: usize) -> Vec<SweepOp> {
    let depth = cfg.halo_depth();
    let block = cfg.effective_block();
    let mut ops = Vec::new();
    let compute = |ops: &mut Vec<SweepOp>, b: usize| match role {
        ThreadRole::Master => {
            for index in 0..batches.size(b) {
                ops.push(SweepOp::ApplyBoundarySlab { batch: b, index });
            }
        }
        _ => ops.push(SweepOp::ComputeInterior { batch: b }),
    };
    match role {
        ThreadRole::PoolWorker { .. } => {
            // Compute-only: mirror the master's fence sequence, nothing
            // else. (`Batches::build` never yields an empty batch when
            // `count > 0`.)
            if count > 0 {
                for b in 0..batches.len() {
                    for index in 0..batches.size(b) {
                        ops.push(SweepOp::ApplyBoundarySlab { batch: b, index });
                    }
                }
            }
        }
        ThreadRole::Single if cfg.approach == Approach::FlatOriginal => {
            // Blocking, dimension-by-dimension, one grid per batch —
            // GPAW's original scheme (§V-B).
            for b in 0..batches.len() {
                if batches.size(b) == 0 {
                    continue;
                }
                for axis in Axis::ALL {
                    let dirs = DirSet::Axis(axis);
                    ops.push(SweepOp::PostRecv {
                        batch: b,
                        dirs,
                        depth,
                    });
                    ops.push(SweepOp::SendFace {
                        batch: b,
                        dirs,
                        depth,
                    });
                    ops.push(SweepOp::WaitAll {
                        batch: b,
                        dirs,
                        depth,
                    });
                }
                compute(&mut ops, b);
            }
        }
        ThreadRole::Endpoint if cfg.approach == Approach::TemporalBlocked => {
            // The fused temporal block (Wittmann–Hager–Wellein): one
            // ordered depth-`block·h` exchange, then `block` wavefront
            // steps. The axes are exchanged in ascending order and each
            // later axis's face is widened by the earlier axes' ghost
            // depth (`RankPlan::exchange_wide`), so edge and corner
            // ghosts arrive by forwarding — no diagonal neighbors. That
            // ordering is load-bearing: axis `a`'s pack reads ghosts the
            // axis `a−1` wait just unpacked, which is why each axis's
            // exchange completes before the next begins.
            if count > 0 {
                for b in 0..batches.len() {
                    for axis in Axis::ALL {
                        let dirs = DirSet::Axis(axis);
                        ops.push(SweepOp::PostRecv {
                            batch: b,
                            dirs,
                            depth,
                        });
                        ops.push(SweepOp::SendFace {
                            batch: b,
                            dirs,
                            depth,
                        });
                        ops.push(SweepOp::WaitAll {
                            batch: b,
                            dirs,
                            depth,
                        });
                    }
                    for step in 0..block {
                        ops.push(SweepOp::ComputeWavefront {
                            batch: b,
                            step,
                            shrink: StencilCoeffs::HALO,
                        });
                    }
                }
            }
        }
        _ => {
            // The non-blocking batched pipeline shared by flat optimized,
            // flat static, hybrid multiple endpoints, and the master-only
            // comm thread: optionally double-buffered so batch `b+1`'s
            // exchange is in flight while `b` computes (§V-A).
            if count > 0 {
                let n = batches.len();
                let all = DirSet::All;
                if cfg.double_buffer {
                    ops.push(SweepOp::PostRecv {
                        batch: 0,
                        dirs: all,
                        depth,
                    });
                    ops.push(SweepOp::SendFace {
                        batch: 0,
                        dirs: all,
                        depth,
                    });
                    for b in 0..n {
                        if b + 1 < n {
                            ops.push(SweepOp::PostRecv {
                                batch: b + 1,
                                dirs: all,
                                depth,
                            });
                            ops.push(SweepOp::SendFace {
                                batch: b + 1,
                                dirs: all,
                                depth,
                            });
                        }
                        ops.push(SweepOp::WaitAll {
                            batch: b,
                            dirs: all,
                            depth,
                        });
                        compute(&mut ops, b);
                    }
                } else {
                    for b in 0..n {
                        ops.push(SweepOp::PostRecv {
                            batch: b,
                            dirs: all,
                            depth,
                        });
                        ops.push(SweepOp::SendFace {
                            batch: b,
                            dirs: all,
                            depth,
                        });
                        ops.push(SweepOp::WaitAll {
                            batch: b,
                            dirs: all,
                            depth,
                        });
                        compute(&mut ops, b);
                    }
                }
            }
        }
    }
    if role == ThreadRole::Endpoint {
        // Hybrid multiple's (and temporal blocked's) single
        // synchronization point per replay; a zero-grid endpoint still
        // takes it.
        ops.push(SweepOp::ThreadBarrier);
    }
    ops.push(SweepOp::AdvanceBuffer);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_bgp_hw::{CartMap, Partition};

    fn programs(
        cfg: &FdConfig,
        nodes: usize,
        grid: [usize; 3],
        n_grids: usize,
    ) -> Vec<SweepProgram> {
        let p = Partition::standard(nodes, cfg.approach.exec_mode()).unwrap();
        let map = CartMap::best(p, grid);
        let threads = map.partition.threads_per_process();
        let plan = RankPlan::for_rank(&map, grid, 0, 8, cfg);
        compile_rank(cfg, &map, &plan, n_grids, threads)
    }

    #[test]
    fn every_approach_compiles_well_formed_programs() {
        for approach in Approach::ALL {
            let cfg = FdConfig::paper(approach).with_batch(4).with_sweeps(2);
            for prog in programs(&cfg, 8, [32, 32, 32], 10) {
                prog.validate()
                    .unwrap_or_else(|e| panic!("{approach:?} {:?}: {e}", prog.role));
            }
        }
    }

    #[test]
    fn roles_match_the_approach() {
        let cfg = FdConfig::paper(Approach::HybridMasterOnly);
        let progs = programs(&cfg, 8, [32, 32, 32], 8);
        assert_eq!(progs.len(), 4);
        assert_eq!(progs[0].role, ThreadRole::Master);
        for (t, p) in progs.iter().enumerate().skip(1) {
            assert_eq!(p.role, ThreadRole::PoolWorker { slot: t });
        }
        for a in [Approach::HybridMultiple, Approach::TemporalBlocked] {
            let cfg = FdConfig::paper(a);
            let progs = programs(&cfg, 8, [32, 32, 32], 8);
            assert_eq!(progs.len(), 4);
            assert!(progs.iter().all(|p| p.role == ThreadRole::Endpoint));
        }
        for a in [
            Approach::FlatOriginal,
            Approach::FlatOptimized,
            Approach::FlatStatic,
        ] {
            let cfg = FdConfig::paper(a);
            let progs = programs(&cfg, 8, [32, 32, 32], 8);
            assert_eq!(progs.len(), 1);
            assert_eq!(progs[0].role, ThreadRole::Single);
        }
    }

    #[test]
    fn barrier_counts_are_static_per_role() {
        // Hybrid multiple: one barrier per sweep per endpoint, even for
        // endpoints that own zero grids. Master-only: two waits per grid
        // (release + completion), identical across master and workers.
        let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(4);
        for prog in programs(&cfg, 8, [32, 32, 32], 2) {
            assert_eq!(prog.barrier_waits_per_sweep(), 1, "{:?}", prog.role);
        }
        let cfg = FdConfig::paper(Approach::HybridMasterOnly).with_batch(4);
        let progs = programs(&cfg, 8, [32, 32, 32], 10);
        let waits: Vec<usize> = progs.iter().map(|p| p.barrier_waits_per_sweep()).collect();
        assert!(waits.iter().all(|&w| w == 2 * 10), "{waits:?}");
    }

    #[test]
    fn single_rank_zero_bc_has_no_neighbors_and_sends_nothing() {
        // Edge geometry 1: one rank, zero boundaries ⇒ no neighbors, so
        // the compiled program predicts zero traffic yet stays
        // well-formed (receives are still posted and waited — they
        // resolve to zero-fill).
        for approach in Approach::ALL {
            let mut cfg = FdConfig::paper(approach).with_batch(3);
            cfg.bc = gpaw_grid::stencil::BoundaryCond::Zero;
            let nodes = 1;
            let p = Partition::standard(nodes, approach.exec_mode()).unwrap();
            let map = CartMap::best(p, [16, 16, 16]);
            let threads = map.partition.threads_per_process();
            let ranks = map.ranks();
            for rank in 0..ranks {
                let plan = RankPlan::for_rank(&map, [16, 16, 16], rank, 8, &cfg);
                for prog in compile_rank(&cfg, &map, &plan, 6, threads) {
                    prog.validate().unwrap();
                    if ranks == 1 {
                        assert!(plan.neighbors.iter().all(Option::is_none));
                        assert_eq!(prog.predicted_messages(), 0);
                        assert_eq!(prog.predicted_bytes(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_larger_than_grid_count_collapses_to_one_batch() {
        // Edge geometry 2: batch 32 over 3 grids ⇒ one batch, programs
        // well-formed, double-buffering degenerates gracefully.
        for approach in Approach::ALL {
            let cfg = FdConfig::paper(approach).with_batch(32);
            for prog in programs(&cfg, 8, [32, 32, 32], 3) {
                prog.validate().unwrap();
                if approach != Approach::FlatOriginal {
                    // Flat original's effective batch is pinned to 1, so it
                    // keeps one batch per grid; everyone else collapses.
                    assert!(prog.batches.len() <= 1, "{approach:?}: {:?}", prog.batches);
                }
            }
        }
    }

    #[test]
    fn more_threads_than_grids_leaves_idle_endpoints_well_formed() {
        // Edge geometry 3: 2 grids over 4 endpoint threads ⇒ two
        // endpoints own nothing but still barrier once per sweep.
        let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(8);
        let progs = programs(&cfg, 8, [32, 32, 32], 2);
        assert_eq!(progs.len(), 4);
        let empty: Vec<&SweepProgram> = progs.iter().filter(|p| p.asg.count == 0).collect();
        assert_eq!(empty.len(), 2);
        for prog in &progs {
            prog.validate().unwrap();
            assert_eq!(prog.barrier_waits_per_sweep(), 1);
            if prog.asg.count == 0 {
                assert_eq!(
                    prog.ops,
                    vec![SweepOp::ThreadBarrier, SweepOp::AdvanceBuffer]
                );
            }
        }
    }

    #[test]
    fn flat_original_exchanges_axis_by_axis() {
        let cfg = FdConfig::paper(Approach::FlatOriginal);
        let progs = programs(&cfg, 8, [32, 32, 32], 2);
        let prog = &progs[0];
        // One grid per batch (effective batch 1), three blocking axis
        // exchanges each: 6 sends per grid per sweep on a periodic plan.
        assert_eq!(prog.batches.len(), 2);
        assert_eq!(prog.messages_per_sweep(), 12);
        assert!(prog.ops.iter().all(|op| !matches!(
            op,
            SweepOp::SendFace {
                dirs: DirSet::All,
                ..
            }
        )));
    }

    #[test]
    fn double_buffer_pipelines_the_next_batch() {
        let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(2);
        let progs = programs(&cfg, 8, [32, 32, 32], 6);
        let ops = &progs[0].ops;
        // Batch 1's sends are issued before batch 0 is waited on.
        let send1 = ops
            .iter()
            .position(|op| matches!(op, SweepOp::SendFace { batch: 1, .. }))
            .unwrap();
        let wait0 = ops
            .iter()
            .position(|op| matches!(op, SweepOp::WaitAll { batch: 0, .. }))
            .unwrap();
        assert!(send1 < wait0, "{ops:?}");
    }

    #[test]
    fn predicted_traffic_matches_hand_count() {
        // 8 nodes periodic, batch 4 over 8 grids ⇒ 2 batches; all six
        // neighbors exist ⇒ 12 messages/sweep for a flat-optimized rank.
        let cfg = FdConfig::paper(Approach::FlatOptimized)
            .with_batch(4)
            .with_sweeps(3);
        let progs = programs(&cfg, 8, [32, 32, 32], 8);
        let prog = &progs[0];
        assert_eq!(prog.messages_per_sweep(), 12);
        assert_eq!(prog.predicted_messages(), 36);
        let per_axis: u64 = (0..3)
            .map(|a| 2 * prog.plan.msg_bytes(Axis::ALL[a], 4))
            .sum();
        assert_eq!(prog.bytes_per_sweep(), 2 * per_axis);
    }

    #[test]
    fn temporal_blocked_fuses_sweeps_into_ordered_exchanges() {
        // 4 sweeps at depth 2 ⇒ block 2, two replays. Per replay and
        // batch: three ordered axis exchanges (each waited before the
        // next packs, so forwarded ghosts are current), then the two
        // wavefront steps.
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(4)
            .with_sweeps(4);
        let progs = programs(&cfg, 8, [32, 32, 32], 8);
        let prog = &progs[0]; // 8 grids / 4 threads ⇒ 2 grids, 1 batch
        prog.validate().unwrap();
        assert_eq!(prog.block(), 2);
        assert_eq!(prog.replays(), 2);
        assert_eq!(prog.batches.len(), 1);
        let depth = prog.plan.halo;
        assert_eq!(depth, 4);
        let b = 0;
        let mut want = Vec::new();
        for axis in Axis::ALL {
            let dirs = DirSet::Axis(axis);
            want.push(SweepOp::PostRecv {
                batch: b,
                dirs,
                depth,
            });
            want.push(SweepOp::SendFace {
                batch: b,
                dirs,
                depth,
            });
            want.push(SweepOp::WaitAll {
                batch: b,
                dirs,
                depth,
            });
        }
        want.push(SweepOp::ComputeWavefront {
            batch: b,
            step: 0,
            shrink: 2,
        });
        want.push(SweepOp::ComputeWavefront {
            batch: b,
            step: 1,
            shrink: 2,
        });
        want.push(SweepOp::ThreadBarrier);
        want.push(SweepOp::AdvanceBuffer);
        assert_eq!(prog.ops, want);
    }

    #[test]
    fn temporal_blocking_halves_messages_and_epochs() {
        // At equal sweep count, TemporalBlocked(2) sends the same 6
        // messages per replay as HybridMultiple per sweep, but replays
        // half as often — and collapses each replay's three axis waits
        // into one exchange epoch.
        let sweeps = 4;
        let tb = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(4)
            .with_sweeps(sweeps);
        let hm = FdConfig::paper(Approach::HybridMultiple)
            .with_batch(4)
            .with_sweeps(sweeps);
        let tb_prog = &programs(&tb, 8, [32, 32, 32], 8)[0];
        let hm_prog = &programs(&hm, 8, [32, 32, 32], 8)[0];
        assert_eq!(
            tb_prog.predicted_messages() * 2,
            hm_prog.predicted_messages()
        );
        assert_eq!(tb_prog.exchange_epochs() * 2, hm_prog.exchange_epochs());
        // ≥ 40% fewer exchange epochs — the acceptance bar, met at 50%.
        assert!(tb_prog.exchange_epochs() as f64 <= 0.6 * hm_prog.exchange_epochs() as f64);
        // Bytes are *wider* per message (depth 4 + forwarded ghosts):
        // temporal blocking trades bytes for epochs, not the reverse.
        assert!(tb_prog.bytes_per_sweep() > hm_prog.bytes_per_sweep());
    }

    #[test]
    fn validate_rejects_malformed_fused_schedules() {
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(4)
            .with_sweeps(4);
        let good = programs(&cfg, 8, [32, 32, 32], 8).remove(0);
        let dirs = DirSet::Axis(Axis::X);
        let depth = good.plan.halo;

        // Waiting before our own send: the SPMD deadlock.
        let mut p = good.clone();
        p.ops = vec![
            SweepOp::PostRecv {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::WaitAll {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::SendFace {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::AdvanceBuffer,
        ];
        assert!(matches!(
            p.validate(),
            Err(ValidationError::WaitBeforeSend { op: 1, .. })
        ));

        // Advancing with a posted-but-unwaited receive.
        let mut p = good.clone();
        p.ops = vec![
            SweepOp::PostRecv {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::SendFace {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::AdvanceBuffer,
        ];
        assert!(matches!(
            p.validate(),
            Err(ValidationError::AdvanceWithOutstanding { batch: 0 })
        ));

        // Computing before the exchange is waited.
        let mut p = good.clone();
        p.ops = vec![
            SweepOp::PostRecv {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::SendFace {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::ComputeInterior { batch: 0 },
            SweepOp::WaitAll {
                batch: 0,
                dirs,
                depth,
            },
            SweepOp::AdvanceBuffer,
        ];
        assert!(matches!(
            p.validate(),
            Err(ValidationError::ComputeUnwaited { op: 2, batch: 0 })
        ));

        // A depth that disagrees with the plan mis-sizes every buffer.
        let mut p = good.clone();
        p.ops[0] = SweepOp::PostRecv {
            batch: 0,
            dirs: DirSet::Axis(Axis::X),
            depth: depth - 1,
        };
        assert!(matches!(
            p.validate(),
            Err(ValidationError::DepthMismatch { op: 0, .. })
        ));

        // Wavefront steps out of order…
        let mut p = good.clone();
        let n = p.ops.len();
        p.ops.swap(n - 3, n - 4); // step 1 before step 0
        assert!(matches!(
            p.validate(),
            Err(ValidationError::WavefrontOrder {
                step: 1,
                expected: 0,
                ..
            })
        ));

        // …or cut short of the block.
        let mut p = good.clone();
        p.ops.remove(n - 3); // drop step 1
        assert!(matches!(
            p.validate(),
            Err(ValidationError::WavefrontIncomplete {
                batch: 0,
                steps: 1,
                block: 2,
            })
        ));

        // The pristine program still validates after all that cloning.
        good.validate().unwrap();
    }
}
