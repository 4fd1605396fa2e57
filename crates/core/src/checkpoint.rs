//! Epoch checkpoints of a sweep run, derived from the compiled IR.
//!
//! Every [`SweepProgram`] ends each sweep
//! with exactly one `AdvanceBuffer` op (enforced by `validate()`), so
//! "state after `e` completed sweeps" is a well-defined epoch boundary on
//! *every* plane and for *every* approach — the depositing thread just
//! snapshots its input grids right after the buffer swap. A
//! [`CheckpointStore`] collects those per-`(rank, slot)` snapshots and
//! answers the one question recovery needs: what is the newest epoch
//! **every** registered thread has deposited (the *consistent* epoch a
//! failed run can be rolled back to)?
//!
//! Epoch numbering: epoch `e` is the state after `e` completed sweeps.
//! Epoch 0 is the synthetic initial fill — never deposited, because the
//! runner can always re-derive it from the seed; `restore` returning
//! `None` at epoch 0 is therefore the normal "refill from scratch" path.
//!
//! The store prunes aggressively: once every key has deposited epoch `e`,
//! snapshots below `e` can never be a rollback target and are dropped, so
//! steady-state memory is one or two epochs per thread regardless of
//! sweep count.
//!
//! **Integrity:** every snapshot carries a
//! [`grids_digest`] computed at deposit
//! time, and every read path (`restore`, `epoch_snapshots`,
//! [`CheckpointStore::verified_consistent_epoch`]) re-derives and checks
//! it. A snapshot whose bits changed between deposit and restore — a
//! memory fault, or the seeded `CorruptSnapshot` injector — is detected,
//! counted, and *purged*, so recovery degrades to an older verified epoch
//! (possibly all the way to the synthetic fill) instead of silently
//! replaying poisoned state.
//!
//! **Locking:** snapshots are immutable shared handles. The store's one
//! mutex guards only the maps — a reader takes its handles under the
//! lock and then digests, clones or serialises tens of MB *outside* it,
//! and a depositor copies and digests its grids before taking the lock —
//! so a spill in flight never stalls a depositing compute thread.
//!
//! **Allocation:** a pruned snapshot's buffers go to a small pool, and
//! [`CheckpointStore::deposit_from`] copies into a pooled buffer of the
//! right shape instead of allocating (and page-faulting) fresh storage
//! every sweep; copy and digest are one pass
//! ([`copy_grids_digest`]). The pool never
//! holds more buffers than the store's snapshot high-water mark.

use crate::durable::{RecordRef, SnapshotRecord};
use crate::integrity::{copy_grids_digest, grids_digest};
use crate::program::{SweepProgram, ThreadRole};
use gpaw_grid::decomp::Subdomain;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::scalar::Scalar;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The number of completed sweeps a snapshot reflects.
pub type Epoch = usize;

/// One deposited snapshot with the digest that convicts later bit rot.
#[derive(Clone)]
struct Snap<T> {
    /// `grids_digest` of `grids` at deposit time.
    digest: u64,
    /// The thread's input grids, in its own local order.
    grids: Vec<Grid3<T>>,
}

/// A verified, immutable handle on one key's snapshot of some epoch:
/// the grids stay where the deposit put them, shared with the store, for
/// as long as the handle lives — even after the store prunes the epoch.
pub struct SharedSnapshot<T> {
    rank: usize,
    slot: usize,
    snap: Arc<Snap<T>>,
}

impl<T> SharedSnapshot<T> {
    /// The snapshot's grids, in the depositing thread's local order.
    pub fn grids(&self) -> &[Grid3<T>] {
        &self.snap.grids
    }

    /// This snapshot as the borrowed record a durable spill frames,
    /// carrying the deposit-time digest the handle was verified against —
    /// so the spill writes it instead of digesting the grids again.
    pub fn as_record_ref(&self) -> RecordRef<'_, T> {
        RecordRef {
            rank: self.rank,
            slot: self.slot,
            grids: &self.snap.grids,
            digest: self.snap.digest,
        }
    }
}

struct Inner<T> {
    /// Latest deposited epoch per registered `(rank, slot)` key; 0 until
    /// the key's first deposit (epoch 0 is the synthetic fill).
    latest: HashMap<(usize, usize), Epoch>,
    /// Snapshots by `(rank, slot, epoch)`: the thread's input grids, in
    /// its own local order, right after the epoch's buffer swap.
    snaps: HashMap<(usize, usize, Epoch), Arc<Snap<T>>>,
    /// Buffers of pruned snapshots, waiting to back a later deposit.
    pool: Vec<Vec<Grid3<T>>>,
    /// The most snapshots ever held at once — the memory-bound witness,
    /// and the pool's cap.
    high_water: usize,
    /// Digest verifications performed across all read paths.
    digest_checks: u64,
    /// Verifications that failed (each also purged the bad snapshot).
    digest_failures: u64,
}

impl<T> Inner<T> {
    /// The newest epoch every registered key has reached.
    fn floor(&self) -> Epoch {
        self.latest.values().copied().min().unwrap_or(0)
    }

    /// The store lets go of `snap`: its buffers are pooled for reuse
    /// unless a reader still shares them (then the reader's drop frees
    /// them) or the pool already holds a high-water's worth.
    fn retire(&mut self, snap: Arc<Snap<T>>) {
        if let Ok(snap) = Arc::try_unwrap(snap) {
            if self.pool.len() < self.high_water {
                self.pool.push(snap.grids);
            }
        }
    }

    /// Drop every snapshot whose epoch fails `keep`.
    fn prune(&mut self, keep: impl Fn(Epoch) -> bool) {
        let dead: Vec<Arc<Snap<T>>> = self
            .snaps
            .extract_if(|&(_, _, e), _| !keep(e))
            .map(|(_, snap)| snap)
            .collect();
        for snap in dead {
            self.retire(snap);
        }
    }
}

/// Flip one bit of the first stored data word of `grids`, the
/// deterministic model of a memory fault. Returns whether a word existed.
fn flip_first_word<T: Scalar>(grids: &mut [Grid3<T>]) -> bool {
    let Some(w) = grids.iter_mut().find_map(|g| g.data_mut().first_mut()) else {
        return false;
    };
    let mut words = w.bit_pattern();
    words[0] ^= 1;
    *w = T::from_bit_pattern(words);
    true
}

fn same_shape<T: Scalar>(a: &[Grid3<T>], b: &[Grid3<T>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.n() == y.n() && x.halo() == y.halo())
}

/// Shared store of per-thread epoch snapshots for one supervised run.
///
/// Registered once with every `(rank, slot)` key that will deposit;
/// interior-mutable so rank threads deposit concurrently through a shared
/// reference. One mutex is enough because nothing slow happens under it
/// (see the module docs).
pub struct CheckpointStore<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled whenever a deposit advances the consistent epoch.
    advanced: Condvar,
    /// The `(rank, slot, epoch)` whose every [`deposit_from`] is poisoned
    /// right after its digest is taken.
    ///
    /// [`deposit_from`]: CheckpointStore::deposit_from
    poison: Option<(usize, usize, Epoch)>,
}

impl<T: Scalar> CheckpointStore<T> {
    /// A store expecting deposits from exactly `keys` (each a
    /// `(rank, slot)` pair). The key set defines consistency: an epoch is
    /// consistent only when *every* key has deposited it (or a later one).
    pub fn new(keys: impl IntoIterator<Item = (usize, usize)>) -> CheckpointStore<T> {
        CheckpointStore {
            inner: Mutex::new(Inner {
                latest: keys.into_iter().map(|k| (k, 0)).collect(),
                snaps: HashMap::new(),
                pool: Vec::new(),
                high_water: 0,
                digest_checks: 0,
                digest_failures: 0,
            }),
            advanced: Condvar::new(),
            poison: None,
        }
    }

    /// Arm the seeded snapshot-poison fault: every
    /// [`deposit_from`](CheckpointStore::deposit_from) of `key`'s
    /// `(rank, slot, epoch)` flips one bit of its snapshot right after the
    /// digest is taken — where a DMA or memory fault would strike a real
    /// checkpoint buffer — so the digest convicts it on any later read.
    /// `None` arms nothing.
    pub fn with_poison(mut self, key: Option<(usize, usize, Epoch)>) -> CheckpointStore<T> {
        self.poison = key;
        self
    }

    /// Depositors never panic while holding the lock; recover from poison
    /// (a panic elsewhere mid-run is exactly the case recovery serves).
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deposit `(rank, slot)`'s snapshot of epoch `epoch` (its input
    /// grids after the sweep's buffer swap, in the thread's local order),
    /// taking ownership of `grids`. Prunes every snapshot below the new
    /// fleet-wide consistent epoch.
    pub fn deposit(&self, rank: usize, slot: usize, epoch: Epoch, grids: Vec<Grid3<T>>) {
        let digest = grids_digest(&grids);
        self.insert(rank, slot, epoch, Snap { digest, grids });
    }

    /// [`deposit`](CheckpointStore::deposit) for a thread that keeps its
    /// grids: snapshot and digest in one pass, into a recycled buffer
    /// when a pruned snapshot of the same shape left one behind.
    pub fn deposit_from(&self, rank: usize, slot: usize, epoch: Epoch, grids: &[Grid3<T>]) {
        let recycled = {
            let mut st = self.lock();
            let fit = st.pool.iter().position(|buf| same_shape(buf, grids));
            fit.map(|i| st.pool.swap_remove(i))
        };
        let mut snap = match recycled {
            Some(mut buf) => Snap {
                digest: copy_grids_digest(&mut buf, grids),
                grids: buf,
            },
            None => Snap {
                digest: grids_digest(grids),
                grids: grids.to_vec(),
            },
        };
        if self.poison == Some((rank, slot, epoch)) {
            flip_first_word(&mut snap.grids);
        }
        self.insert(rank, slot, epoch, snap);
    }

    fn insert(&self, rank: usize, slot: usize, epoch: Epoch, snap: Snap<T>) {
        let mut st = self.lock();
        let before = st.floor();
        if let Some(replaced) = st.snaps.insert((rank, slot, epoch), Arc::new(snap)) {
            st.retire(replaced);
        }
        // Peak is measured before pruning: the transient counts too.
        st.high_water = st.high_water.max(st.snaps.len());
        let cur = st.latest.entry((rank, slot)).or_insert(0);
        if epoch > *cur {
            *cur = epoch;
        }
        let floor = st.floor();
        st.prune(|e| e >= floor);
        if floor > before {
            self.advanced.notify_all();
        }
    }

    /// The newest epoch every registered key has reached — the rollback
    /// target after a failure. 0 when any thread has yet to complete a
    /// sweep (roll back to the synthetic fill).
    pub fn consistent_epoch(&self) -> Epoch {
        self.lock().floor()
    }

    /// Block until `ready(consistent_epoch)` holds and return that epoch.
    /// Woken by the deposit that advances the consistent epoch (and by
    /// [`wake_waiters`](CheckpointStore::wake_waiters)) — the durable
    /// spiller sleeps here instead of polling the store.
    pub fn wait_consistent(&self, ready: impl Fn(Epoch) -> bool) -> Epoch {
        let mut st = self.lock();
        loop {
            let floor = st.floor();
            if ready(floor) {
                return floor;
            }
            st = self.advanced.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Make every [`wait_consistent`](CheckpointStore::wait_consistent)
    /// caller re-evaluate its predicate — for conditions the store does
    /// not own, like a stop flag. Taking the lock first closes the window
    /// between a waiter's check and its sleep.
    pub fn wake_waiters(&self) {
        let _st = self.lock();
        self.advanced.notify_all();
    }

    /// The newest epoch all of `rank`'s registered slots have deposited.
    pub fn rank_epoch(&self, rank: usize) -> Epoch {
        self.lock()
            .latest
            .iter()
            .filter(|((r, _), _)| *r == rank)
            .map(|(_, &e)| e)
            .min()
            .unwrap_or(0)
    }

    /// Re-derive `snap`'s digest — outside the lock — and settle the
    /// verdict under it. A poisoned snapshot is purged and counted once,
    /// by whichever reader still finds it in the store.
    fn verify(&self, key: (usize, usize, Epoch), snap: &Arc<Snap<T>>) -> bool {
        let clean = grids_digest(&snap.grids) == snap.digest;
        let mut st = self.lock();
        st.digest_checks += 1;
        if !clean && st.snaps.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, snap)) {
            st.digest_failures += 1;
            st.snaps.remove(&key);
        }
        clean
    }

    /// `key`'s snapshot if it is stored and verifies.
    fn verified(&self, key: (usize, usize, Epoch)) -> Option<Arc<Snap<T>>> {
        let snap = self.lock().snaps.get(&key).cloned()?;
        self.verify(key, &snap).then_some(snap)
    }

    /// Clone out `(rank, slot)`'s snapshot of `epoch`, verifying its
    /// digest first. `None` for epoch 0 (the synthetic fill — re-derive
    /// it), for an unknown key/epoch, or for a snapshot whose bits no
    /// longer match its deposit-time digest (the poisoned snapshot is
    /// purged and counted, so the caller falls back like any other miss).
    pub fn restore(&self, rank: usize, slot: usize, epoch: Epoch) -> Option<Vec<Grid3<T>>> {
        self.verified((rank, slot, epoch))
            .map(|snap| snap.grids.clone())
    }

    /// The newest epoch every registered key has deposited **and whose
    /// snapshots all verify** — the rollback target recovery uses when
    /// corruption is in play. Walks down from [`consistent_epoch`],
    /// purging every poisoned snapshot it convicts; degrades to 0 (full
    /// restart from the synthetic fill) when no stored epoch survives —
    /// still bit-identical, just more replay.
    ///
    /// [`consistent_epoch`]: CheckpointStore::consistent_epoch
    pub fn verified_consistent_epoch(&self) -> Epoch {
        let (keys, floor) = {
            let st = self.lock();
            let keys: Vec<(usize, usize)> = st.latest.keys().copied().collect();
            (keys, st.floor())
        };
        // A pruned (or never deposited) key fails its epoch, but keep
        // walking — a lower epoch may still hold every key if pruning
        // has not caught up — and keep checking the epoch's other keys,
        // so every poisoned snapshot on the way down is convicted.
        (1..=floor)
            .rev()
            .find(|&epoch| {
                keys.iter().fold(true, |ok, &(rank, slot)| {
                    self.verified((rank, slot, epoch)).is_some() && ok
                })
            })
            .unwrap_or(0)
    }

    /// Digest verifications performed across all read paths.
    pub fn digest_checks(&self) -> u64 {
        self.lock().digest_checks
    }

    /// Digest verifications that failed (each purged the bad snapshot).
    pub fn digest_failures(&self) -> u64 {
        self.lock().digest_failures
    }

    /// Flip one bit of `(rank, slot, epoch)`'s stored snapshot *without*
    /// updating its digest — a memory fault striking a stored checkpoint
    /// buffer. Returns whether a stored data word existed to corrupt.
    /// Test hook, same spirit as the durable store's `epoch_path`; runs
    /// arm the seeded injector with
    /// [`with_poison`](CheckpointStore::with_poison) instead. (A reader
    /// already holding the snapshot's handle keeps the bits it took: the
    /// fault strikes the store's copy.)
    pub fn corrupt_snapshot(&self, rank: usize, slot: usize, epoch: Epoch) -> bool {
        let mut st = self.lock();
        let Some(snap) = st.snaps.get_mut(&(rank, slot, epoch)) else {
            return false;
        };
        flip_first_word(&mut Arc::make_mut(snap).grids)
    }

    /// Discard every snapshot past `epoch` and clamp each key's progress
    /// to it — called between attempts so replayed sweeps re-deposit on a
    /// clean slate.
    pub fn rollback(&self, epoch: Epoch) {
        let mut st = self.lock();
        st.prune(|e| e <= epoch);
        for v in st.latest.values_mut() {
            *v = (*v).min(epoch);
        }
    }

    /// Snapshots currently held (tests; bounds the memory claim).
    pub fn snapshot_count(&self) -> usize {
        self.lock().snaps.len()
    }

    /// Retired snapshot buffers waiting for reuse (tests; never more
    /// than [`high_water`](CheckpointStore::high_water)).
    pub fn pooled_buffers(&self) -> usize {
        self.lock().pool.len()
    }

    /// The most snapshots ever held at once. Flat over a long run — that
    /// is the memory-bound guarantee the durability spiller relies on
    /// (the store stages at most the window between the consistent floor
    /// and the fastest thread, never the whole history).
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Atomically take a shared handle on *every* registered key's
    /// snapshot of `epoch`, sorted by `(rank, slot)` — the unit a durable
    /// spill serializes and a shrink gathers, without copying it. `None`
    /// if any key lacks that epoch (not yet consistent, or already
    /// pruned) **or fails its digest check** (the poisoned snapshot is
    /// purged), so a spill or a shrink is always all-keys-or-nothing and
    /// never hands on silently-corrupted state.
    pub fn epoch_snapshots(&self, epoch: Epoch) -> Option<Vec<SharedSnapshot<T>>> {
        let held: Vec<SharedSnapshot<T>> = {
            let st = self.lock();
            let mut keys: Vec<(usize, usize)> = st.latest.keys().copied().collect();
            keys.sort_unstable();
            keys.into_iter()
                .map(|(rank, slot)| {
                    let snap = st.snaps.get(&(rank, slot, epoch))?.clone();
                    Some(SharedSnapshot { rank, slot, snap })
                })
                .collect::<Option<_>>()?
        };
        held.iter()
            .all(|s| self.verify((s.rank, s.slot, epoch), &s.snap))
            .then_some(held)
    }
}

/// Where one `(rank, slot)` snapshot's grids live in the global domain —
/// the bridge between one geometry's checkpoint keys and the
/// geometry-free global state a degradation re-shards.
///
/// A layout is derived from a geometry's compiled programs
/// ([`shard_layout`]) and mirrors exactly what each depositing thread
/// snapshots: its subdomain of every grid it holds, in its own local
/// grid order.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Depositing rank.
    pub rank: usize,
    /// Thread slot within the rank (0 for single-key ranks).
    pub slot: usize,
    /// The subdomain of every grid this key's snapshot covers.
    pub sub: Subdomain,
    /// Global grid ids, in the snapshot's local order.
    pub grid_ids: Vec<usize>,
}

/// The programs of one rank that deposit, one per checkpoint slot: every
/// thread of a fleet of peer endpoints (hybrid multiple, temporal
/// blocked), each snapshotting its own round-robin grid share; otherwise
/// the first program alone, under slot 0, holding the rank's whole grid
/// assignment (which for flat static is the core's quarter of the set).
/// Mirrors what the interpreter deposits, for [`shard_layout`] and
/// [`restore_inputs`] alike.
fn deposit_slots(progs: &[SweepProgram]) -> &[SweepProgram] {
    if progs.len() > 1 && matches!(progs[0].role, ThreadRole::Endpoint) {
        progs
    } else {
        &progs[..1]
    }
}

/// The checkpoint layout of one geometry's compiled programs: one
/// [`ShardSpec`] per `(rank, slot)` checkpoint key, in key order. Ranks
/// whose threads are peer endpoints deposit one snapshot per thread slot,
/// holding that slot's round-robin grid share; every other rank deposits
/// a single slot-0 snapshot of its whole grid assignment.
pub fn shard_layout(programs: &[Vec<SweepProgram>]) -> Vec<ShardSpec> {
    let mut layout = Vec::new();
    for (rank, progs) in programs.iter().enumerate() {
        for (slot, prog) in deposit_slots(progs).iter().enumerate() {
            layout.push(ShardSpec {
                rank,
                slot,
                sub: prog.plan.sub,
                grid_ids: prog.asg.ids(),
            });
        }
    }
    layout
}

/// Rebuild one rank's input grids, in the rank's local order, from its
/// snapshots of `epoch` — the resume half of [`shard_layout`]'s layout.
/// A fleet of endpoints holds every grid of the job and deposits per slot
/// in thread-local order, so each slot's grids go back to the global ids
/// its assignment names; every other rank restores its slot-0 snapshot.
///
/// # Panics
/// Panics when there is no store or a snapshot is missing — a driver bug,
/// not a recoverable condition; the rank's `catch_unwind` contains it.
pub(crate) fn restore_inputs<T: Scalar>(
    store: Option<&CheckpointStore<T>>,
    rank: usize,
    programs: &[SweepProgram],
    epoch: Epoch,
) -> Vec<Grid3<T>> {
    let Some(store) = store else {
        panic!("rank {rank}: resume from epoch {epoch} without a checkpoint store");
    };
    let snapshot = |slot: usize| {
        store
            .restore(rank, slot, epoch)
            .unwrap_or_else(|| panic!("rank {rank} slot {slot}: no checkpoint for epoch {epoch}"))
    };
    let slots = deposit_slots(programs);
    if slots.len() == 1 {
        return snapshot(0);
    }
    let held = slots.iter().map(|p| p.asg.count).sum();
    let mut by_id: Vec<Option<Grid3<T>>> = (0..held).map(|_| None).collect();
    for (slot, prog) in slots.iter().enumerate() {
        for (j, g) in snapshot(slot).into_iter().enumerate() {
            by_id[prog.asg.id(j)] = Some(g);
        }
    }
    by_id
        .into_iter()
        .enumerate()
        .map(|(id, g)| {
            g.unwrap_or_else(|| panic!("rank {rank}: grid {id} missing at epoch {epoch}"))
        })
        .collect()
}

/// Why a cross-geometry gather failed. Every mismatch between the
/// records and the layout they claim to implement is a typed value —
/// degradation falls back to an older epoch (or the synthetic fill)
/// instead of assembling a half-covered global grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegridError {
    /// The layout expects a `(rank, slot)` key the records lack.
    MissingRecord {
        /// Expected depositing rank.
        rank: usize,
        /// Expected thread slot.
        slot: usize,
    },
    /// A record holds a different number of grids than its layout key.
    GridCountMismatch {
        /// Depositing rank.
        rank: usize,
        /// Thread slot.
        slot: usize,
        /// Grids in the record.
        got: usize,
        /// Grids the layout expects.
        want: usize,
    },
    /// A record's grid extent is not the layout subdomain's extent.
    ExtentMismatch {
        /// Depositing rank.
        rank: usize,
        /// Thread slot.
        slot: usize,
        /// Extent found in the record.
        got: [usize; 3],
        /// Extent the layout expects.
        want: [usize; 3],
    },
    /// After all records were placed, a grid's interior was not covered
    /// exactly once (a gap or an overlap in the layout).
    Uncovered {
        /// Global grid id.
        grid: usize,
        /// Interior points written.
        covered: usize,
        /// Interior points the global grid has.
        points: usize,
    },
}

impl fmt::Display for RegridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegridError::MissingRecord { rank, slot } => {
                write!(f, "gather: no snapshot record for key ({rank}, {slot})")
            }
            RegridError::GridCountMismatch {
                rank,
                slot,
                got,
                want,
            } => write!(
                f,
                "gather: key ({rank}, {slot}) holds {got} grids, layout expects {want}"
            ),
            RegridError::ExtentMismatch {
                rank,
                slot,
                got,
                want,
            } => write!(
                f,
                "gather: key ({rank}, {slot}) grid extent {got:?} does not match subdomain \
                 extent {want:?}"
            ),
            RegridError::Uncovered {
                grid,
                covered,
                points,
            } => write!(
                f,
                "gather: grid {grid} covered {covered} of {points} interior points"
            ),
        }
    }
}

impl std::error::Error for RegridError {}

/// Assemble one epoch's per-shard snapshots, each a borrowed `(rank,
/// slot, grids)` — from a store's [`SharedSnapshot`]s or from records a
/// restore read — into full global grids.
///
/// Grid state at an epoch boundary is geometry-independent in the
/// *interior* (ghosts are refilled by the halo exchange that opens every
/// sweep), so only interiors are copied; the returned grids' halos are
/// zero. Coverage is checked exactly: every interior point of every
/// grid must be written once, which catches a layout/record mismatch
/// before it can become a silent bitwise diff on the shrunken geometry.
pub fn gather_epoch<'a, T: Scalar>(
    records: impl IntoIterator<Item = (usize, usize, &'a [Grid3<T>])>,
    layout: &[ShardSpec],
    grid_ext: [usize; 3],
    n_grids: usize,
    halo: usize,
) -> Result<Vec<Grid3<T>>, RegridError> {
    let by_key: HashMap<(usize, usize), &[Grid3<T>]> = records
        .into_iter()
        .map(|(rank, slot, grids)| ((rank, slot), grids))
        .collect();
    let mut global: Vec<Grid3<T>> = (0..n_grids).map(|_| Grid3::zeros(grid_ext, halo)).collect();
    let mut covered = vec![0usize; n_grids];
    for spec in layout {
        let grids = by_key
            .get(&(spec.rank, spec.slot))
            .ok_or(RegridError::MissingRecord {
                rank: spec.rank,
                slot: spec.slot,
            })?;
        if grids.len() != spec.grid_ids.len() {
            return Err(RegridError::GridCountMismatch {
                rank: spec.rank,
                slot: spec.slot,
                got: grids.len(),
                want: spec.grid_ids.len(),
            });
        }
        for (g, &id) in grids.iter().zip(&spec.grid_ids) {
            if g.n() != spec.sub.ext {
                return Err(RegridError::ExtentMismatch {
                    rank: spec.rank,
                    slot: spec.slot,
                    got: g.n(),
                    want: spec.sub.ext,
                });
            }
            let dst = &mut global[id];
            let [si, sj, sk] = spec.sub.start;
            for i in 0..spec.sub.ext[0] {
                for j in 0..spec.sub.ext[1] {
                    for k in 0..spec.sub.ext[2] {
                        dst.set(
                            (si + i) as isize,
                            (sj + j) as isize,
                            (sk + k) as isize,
                            g.get(i as isize, j as isize, k as isize),
                        );
                    }
                }
            }
            covered[id] += spec.sub.points();
        }
    }
    let points = grid_ext[0] * grid_ext[1] * grid_ext[2];
    for (id, &c) in covered.iter().enumerate() {
        if c != points {
            return Err(RegridError::Uncovered {
                grid: id,
                covered: c,
                points,
            });
        }
    }
    Ok(global)
}

/// Cut global grids back into per-shard snapshot records for a (possibly
/// different) geometry's `layout` — the inverse of [`gather_epoch`].
/// Each record's grids get `halo` ghost planes, zero-filled: the resumed
/// run's first exchange refills them, exactly as it would after any
/// rollback.
pub fn reshard_epoch<T: Scalar>(
    global: &[Grid3<T>],
    layout: &[ShardSpec],
    halo: usize,
) -> Vec<SnapshotRecord<T>> {
    layout
        .iter()
        .map(|spec| {
            let grids = spec
                .grid_ids
                .iter()
                .map(|&id| {
                    let src = &global[id];
                    let mut g = Grid3::zeros(spec.sub.ext, halo);
                    let [si, sj, sk] = spec.sub.start;
                    for i in 0..spec.sub.ext[0] {
                        for j in 0..spec.sub.ext[1] {
                            for k in 0..spec.sub.ext[2] {
                                g.set(
                                    i as isize,
                                    j as isize,
                                    k as isize,
                                    src.get(
                                        (si + i) as isize,
                                        (sj + j) as isize,
                                        (sk + k) as isize,
                                    ),
                                );
                            }
                        }
                    }
                    g
                })
                .collect();
            SnapshotRecord {
                rank: spec.rank,
                slot: spec.slot,
                grids,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(v: f64) -> Grid3<f64> {
        let mut g = Grid3::zeros([4, 4, 4], 1);
        g.data_mut()[0] = v;
        g
    }

    fn store() -> CheckpointStore<f64> {
        CheckpointStore::new([(0, 0), (1, 0)])
    }

    #[test]
    fn consistent_epoch_is_the_minimum_over_keys() {
        let s = store();
        assert_eq!(s.consistent_epoch(), 0);
        s.deposit(0, 0, 1, vec![grid(1.0)]);
        assert_eq!(s.consistent_epoch(), 0, "rank 1 has not deposited yet");
        s.deposit(1, 0, 1, vec![grid(2.0)]);
        assert_eq!(s.consistent_epoch(), 1);
        s.deposit(0, 0, 2, vec![grid(3.0)]);
        assert_eq!(s.consistent_epoch(), 1);
        assert_eq!(s.rank_epoch(0), 2);
        assert_eq!(s.rank_epoch(1), 1);
    }

    #[test]
    fn restore_round_trips_and_epoch_zero_is_the_synthetic_fill() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(7.0)]);
        let back = s.restore(0, 0, 1).expect("deposited snapshot");
        assert_eq!(back[0].data()[0], 7.0);
        assert!(s.restore(0, 0, 0).is_none(), "epoch 0 is never stored");
        assert!(s.restore(1, 0, 1).is_none(), "rank 1 deposited nothing");
    }

    #[test]
    fn snapshots_below_the_consistent_floor_are_pruned() {
        let s = store();
        for e in 1..=4 {
            s.deposit(0, 0, e, vec![grid(e as f64)]);
            s.deposit(1, 0, e, vec![grid(e as f64)]);
        }
        // Everything below the floor (epoch 4) is gone; the floor stays.
        assert_eq!(s.snapshot_count(), 2);
        assert!(s.restore(0, 0, 4).is_some());
        assert!(s.restore(0, 0, 3).is_none());
    }

    #[test]
    fn rollback_discards_future_snapshots_and_clamps_progress() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(1.0)]);
        s.deposit(1, 0, 1, vec![grid(1.5)]);
        s.deposit(0, 0, 2, vec![grid(2.0)]);
        s.rollback(1);
        assert_eq!(s.rank_epoch(0), 1);
        assert!(s.restore(0, 0, 2).is_none());
        assert!(s.restore(0, 0, 1).is_some());
        // Re-depositing the replayed epoch works.
        s.deposit(0, 0, 2, vec![grid(2.0)]);
        assert_eq!(s.rank_epoch(0), 2);
    }

    #[test]
    fn high_water_stays_flat_over_a_long_run() {
        // The memory-bound claim: 200 epochs of deposits from two keys
        // (one lagging a step behind, the realistic skew) must not grow
        // the live set — the peak is a small constant, not O(epochs).
        let s = store();
        for e in 1..=200 {
            s.deposit(0, 0, e, vec![grid(e as f64)]);
            if e > 1 {
                s.deposit(1, 0, e - 1, vec![grid(e as f64)]);
            }
        }
        // Bound: keys × (skew window + 1) + the one in-flight deposit
        // = 2 × 2 + 1 — a constant in the epoch count.
        assert!(
            s.high_water() <= 5,
            "high water {} snapshots after 200 epochs — memory is not bounded",
            s.high_water()
        );
        assert!(s.snapshot_count() <= s.high_water());
    }

    #[test]
    fn epoch_snapshots_is_all_keys_or_nothing() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(1.0)]);
        assert!(
            s.epoch_snapshots(1).is_none(),
            "epoch 1 is not consistent yet — a spill now would tear"
        );
        s.deposit(1, 0, 1, vec![grid(2.0)]);
        let snaps = s.epoch_snapshots(1).expect("both keys deposited");
        let recs: Vec<_> = snaps.iter().map(SharedSnapshot::as_record_ref).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            (recs[0].rank, recs[0].slot),
            (0, 0),
            "sorted by (rank, slot)"
        );
        assert_eq!(recs[1].grids[0].data()[0], 2.0);
    }

    #[test]
    fn unregistered_stores_report_epoch_zero() {
        let s: CheckpointStore<f64> = CheckpointStore::new([]);
        assert_eq!(s.consistent_epoch(), 0);
        assert_eq!(s.rank_epoch(3), 0);
    }

    #[test]
    fn poisoned_snapshot_is_rejected_purged_and_counted_at_restore() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(7.0)]);
        assert!(s.corrupt_snapshot(0, 0, 1), "snapshot exists to poison");
        assert!(
            s.restore(0, 0, 1).is_none(),
            "a bit-flipped snapshot must never restore"
        );
        assert_eq!(s.digest_checks(), 1);
        assert_eq!(s.digest_failures(), 1);
        // Purged: a second restore is a plain miss, not a second failure.
        assert!(s.restore(0, 0, 1).is_none());
        assert_eq!(s.digest_failures(), 1);
        // Clean snapshots still verify and count.
        s.deposit(0, 0, 2, vec![grid(2.0)]);
        assert!(s.restore(0, 0, 2).is_some());
        assert_eq!(s.digest_checks(), 2);
        assert_eq!(s.digest_failures(), 1);
    }

    #[test]
    fn verified_consistent_epoch_degrades_past_a_poisoned_epoch() {
        let s = store();
        for e in 1..=2 {
            s.deposit(0, 0, e, vec![grid(e as f64)]);
            s.deposit(1, 0, e, vec![grid(e as f64)]);
        }
        // Aggressive pruning dropped epoch 1, so poisoning epoch 2 leaves
        // nothing verifiable: the verified floor is the synthetic fill.
        assert_eq!(s.consistent_epoch(), 2);
        assert!(s.corrupt_snapshot(1, 0, 2));
        assert_eq!(s.verified_consistent_epoch(), 0);
        assert!(s.digest_failures() >= 1);
        // The unverifiable epoch's poisoned snap was purged; the clean
        // sibling still restores (it is simply not part of a full epoch).
        assert!(s.restore(1, 0, 2).is_none());
        assert!(s.restore(0, 0, 2).is_some());
    }

    #[test]
    fn verified_consistent_epoch_matches_plain_floor_when_clean() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(1.0)]);
        s.deposit(1, 0, 1, vec![grid(2.0)]);
        assert_eq!(s.verified_consistent_epoch(), s.consistent_epoch());
        assert_eq!(s.digest_failures(), 0);
    }

    #[test]
    fn epoch_snapshots_refuse_to_hand_over_a_poisoned_epoch() {
        let s = store();
        s.deposit(0, 0, 1, vec![grid(1.0)]);
        s.deposit(1, 0, 1, vec![grid(2.0)]);
        assert!(s.corrupt_snapshot(0, 0, 1));
        assert!(
            s.epoch_snapshots(1).is_none(),
            "a spill must never serialize corrupted state"
        );
        assert!(s.digest_failures() >= 1);
    }

    #[test]
    fn a_poisoned_shared_snapshot_is_convicted_purged_and_counted_once() {
        // Spill path: the epoch is refused, the poisoned key purged.
        let s = store();
        s.deposit_from(0, 0, 1, &[grid(1.0)]);
        s.deposit_from(1, 0, 1, &[grid(2.0)]);
        // A reader that took its handles before the fault keeps the bits
        // it verified; the fault strikes the store's copy.
        let before = s.epoch_snapshots(1).expect("clean epoch");
        assert!(s.corrupt_snapshot(1, 0, 1));
        assert_eq!(before[1].grids()[0].data()[0], 2.0);
        assert!(
            s.epoch_snapshots(1).is_none(),
            "spill must refuse the epoch"
        );
        assert_eq!(s.digest_failures(), 1);
        assert_eq!(s.snapshot_count(), 1, "the poisoned snapshot is purged");
        // Restore path: a plain miss now, not a second conviction.
        assert!(s.restore(1, 0, 1).is_none());
        assert!(s.epoch_snapshots(1).is_none());
        assert_eq!(s.digest_failures(), 1);
        assert!(s.restore(0, 0, 1).is_some(), "the clean sibling survives");
        assert_eq!(s.verified_consistent_epoch(), 0);
        // The key can be deposited again (a replayed sweep does).
        drop(before);
        s.deposit_from(1, 0, 1, &[grid(2.0)]);
        assert_eq!(s.restore(1, 0, 1).expect("re-deposited")[0].data()[0], 2.0);
    }

    #[test]
    fn recycled_deposits_keep_memory_flat_and_snapshots_exact() {
        let s = store();
        let mut buffers_after_warm_up = None;
        for e in 1..=50 {
            for rank in 0..2 {
                // A different value every deposit: a recycled buffer must
                // be fully overwritten, and digested as what it now holds.
                let mut g = grid(e as f64 + rank as f64 * 0.5);
                g.data_mut()[5] = -(e as f64);
                s.deposit_from(rank, 0, e, &[g]);
                assert!(
                    s.pooled_buffers() <= s.high_water(),
                    "epoch {e}: pool {} above high water {}",
                    s.pooled_buffers(),
                    s.high_water()
                );
            }
            let back = s.restore(1, 0, e).expect("verifies after recycling");
            assert_eq!(back[0].data()[0], e as f64 + 0.5);
            assert_eq!(back[0].data()[5], -(e as f64));
            // Past the first epochs every deposit reuses a pruned buffer:
            // the store's total buffer count stops moving.
            let buffers = s.snapshot_count() + s.pooled_buffers();
            if e >= 3 {
                assert_eq!(*buffers_after_warm_up.get_or_insert(buffers), buffers);
            }
        }
        assert!(s.high_water() <= 4, "high water {}", s.high_water());
        assert_eq!(s.digest_failures(), 0);
        // A different shape never reuses a pooled buffer of the old one.
        s.deposit_from(0, 0, 51, &[Grid3::zeros([2, 2, 2], 1)]);
        assert_eq!(s.restore(0, 0, 51).unwrap()[0].n(), [2, 2, 2]);
    }

    #[test]
    fn a_deposit_never_waits_for_a_reader_mid_epoch() {
        // A reader mid-gather / mid-spill is exactly a thread
        // holding the epoch's handles and no lock. Hold them here for the
        // whole test: deposits from another thread must still complete,
        // prune the epoch out from under the reader, and leave the
        // reader's view intact.
        let s = store();
        s.deposit_from(0, 0, 1, &[grid(1.0)]);
        s.deposit_from(1, 0, 1, &[grid(2.0)]);
        let reading = s.epoch_snapshots(1).expect("consistent epoch");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.deposit_from(0, 0, 2, &[grid(3.0)]);
                s.deposit_from(1, 0, 2, &[grid(4.0)]);
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("deposits blocked behind a reader holding an epoch");
        });
        assert_eq!(s.consistent_epoch(), 2);
        assert!(s.restore(0, 0, 1).is_none(), "epoch 1 was pruned meanwhile");
        assert_eq!(s.pooled_buffers(), 0, "shared buffers are not recycled");
        assert_eq!(reading[0].grids()[0].data()[0], 1.0);
        assert_eq!(reading[1].grids()[0].data()[0], 2.0);
        let recs: Vec<_> = reading.iter().map(SharedSnapshot::as_record_ref).collect();
        assert_eq!((recs[1].rank, recs[1].slot), (1, 0));
    }

    #[test]
    fn wait_consistent_is_woken_by_the_advancing_deposit_and_by_wake_waiters() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = store();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| s.wait_consistent(|ce| ce >= 2));
            s.deposit(0, 0, 1, vec![grid(1.0)]);
            s.deposit(1, 0, 1, vec![grid(1.0)]);
            s.deposit(0, 0, 2, vec![grid(2.0)]);
            s.deposit(1, 0, 3, vec![grid(3.0)]);
            assert_eq!(waiter.join().unwrap(), 2);
            // A condition the store does not own: set it, then wake.
            let stopped =
                scope.spawn(|| s.wait_consistent(|ce| stop.load(Ordering::SeqCst) || ce >= 99));
            stop.store(true, Ordering::SeqCst);
            s.wake_waiters();
            assert_eq!(stopped.join().unwrap(), 2);
        });
    }

    #[test]
    fn corrupting_an_absent_snapshot_is_a_no_op() {
        let s = store();
        assert!(!s.corrupt_snapshot(0, 0, 5));
        assert_eq!(s.digest_failures(), 0);
    }
}
