//! The rank fabric: an in-process stand-in for MPI, shared by both data
//! planes.
//!
//! Every rank of a run is an OS thread inside one process; a message is a
//! `Vec<T>` of packed face data matched on `(source, tag)` with FIFO
//! ordering per pair. Sends never block (buffered, like eager-protocol
//! MPI); receives block until a match arrives. The functional plane runs
//! it clean, with no fault plan; the native plane adds one and rolls it
//! back between supervised attempts. What makes it a *measured*,
//! *survivable* transport:
//!
//! * **sharded mailboxes** — one mutex per `(destination, source)` pair,
//!   so the four concurrent endpoints of *hybrid multiple* never contend
//!   on senders from different ranks (lock-free between distinct pairs; a
//!   mutex only orders one pair's FIFO);
//! * **delivery state sized by the traffic in flight** — a shard keeps
//!   one record per tag (its queue and both sequence cursors), and a
//!   message's payload lives only until it is consumed. The record is
//!   retired as soon as the tag goes quiet (everything sent on it
//!   consumed), so a drained fabric holds no tag state however many
//!   sweeps it carried, supervised or not;
//! * **wake-ups only for receivers that sleep** — a receive that finds
//!   its message never registers, reads the clock or sleeps; one that
//!   must wait parks its thread, and a send unparks only the receivers
//!   asleep on its tag (every sleeper on the shard only when the fault
//!   plan parks a message, so they switch to redelivery polls);
//! * **traffic accounting per sweep** — each shard charges its logical
//!   messages and bytes to the sweep the tag names
//!   ([`sweep_of_tag`]), under the shard lock the send already holds.
//!   [`NativeFabric::stats`] folds the sweeps and classifies every pair as
//!   intra-node (shared-memory on a real Blue Gene/P) or inter-node (torus
//!   traffic), giving real-data runs the same `bytes_per_node` /
//!   `network_bytes_per_node` split the timed machine reports. A message
//!   is charged once however the fault plan delivers it (duplicates,
//!   redelivery);
//! * **the fault plane** — an optional seeded
//!   [`FaultPlan`](crate::fault::FaultPlan) perturbs
//!   delivery (delay, duplicate-then-dedup, drop-with-redelivery) within
//!   the bounds the real torus permits: messages carry per-`(src, tag)`
//!   sequence numbers and [`NativeFabric::recv`] delivers strictly in
//!   sequence order, so per-pair FIFO survives any benign schedule. A
//!   deadlock watchdog bounds every blocking receive: instead of hanging
//!   forever on an unmatched `(src, tag)`, `recv` returns a
//!   [`RecvError::Timeout`] carrying a [`FabricDiagnostic`] snapshot of
//!   every blocked receive and undelivered queue;
//! * **the integrity plane** — every envelope carries an FNV-1a checksum
//!   of its payload ([`crate::integrity::payload_digest`]), computed
//!   at send over the intact bits and verified at recv *before* the
//!   per-tag sequence cursor advances. A flipped bit — injected by the
//!   fault plane or otherwise — surfaces as [`RecvError::Corrupt`]
//!   instead of propagating into a grid. The injector is one-shot, so
//!   after a supervised rollback the replaying sender's resend carries
//!   the true bits;
//! * **recovery by replay** — [`NativeFabric::rollback`] deletes every
//!   rolled-back tag's record and parked envelopes, and moves the charges
//!   of the rolled-back sweeps into the retransmission counters: every
//!   rank re-runs from the restored epoch, so each rolled-back message is
//!   sent again by its own sender and charged as logical traffic once
//!   more. A fabric that starts mid-run ([`NativeFabric::resume`]) counts
//!   sends of sweeps below its start epoch as retransmissions, since those
//!   sweeps were charged before it existed.
//!
//! Bytes are charged to the *sending* node (injection accounting, matching
//! the interconnect model's per-node injection counters).

use crate::fault::{
    BadPayload, BlockedRecv, FabricConfig, FabricDiagnostic, FaultAction, IntegrityStat,
    PayloadCorruption, QueueStat, RecvError, RecvTimeout, REDELIVERY_TICK,
};
use crate::integrity::{flip_bit, payload_digest};
use crate::plan::sweep_of_tag;
use gpaw_bgp_hw::CartMap;
use gpaw_grid::scalar::Scalar;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::Instant;

/// One message with its per-`(src, tag)` sequence number and the payload
/// checksum computed at send. Delivery is in sequence order, which both
/// preserves FIFO under fault-plan reordering and dedups duplicated
/// envelopes (a stale sequence is skipped); the checksum is verified
/// before the sequence cursor advances past this envelope.
struct Envelope<T> {
    seq: u64,
    /// [`payload_digest`] of the payload as the sender handed it over —
    /// taken *before* any injected corruption touches the delivered copy.
    sum: u64,
    payload: Vec<T>,
}

/// What one [`ShardState::take_next`] attempt found.
enum Take<T> {
    /// The next-in-sequence envelope, verified.
    Ready(Vec<T>),
    /// The next-in-sequence envelope failed checksum verification. The
    /// sequence cursor did not advance; the corrupt envelope is removed.
    Corrupt {
        /// The rejected envelope's sequence number.
        seq: u64,
    },
    /// The expected sequence number has not arrived.
    Pending,
}

/// A message the fault plan is holding back; becomes matchable after
/// `ticks_left` redelivery ticks.
struct ParkedMsg<T> {
    tag: u64,
    env: Envelope<T>,
    ticks_left: u32,
}

/// A receive asleep on this shard: what it waits for (the watchdog
/// snapshot reports it) and the thread a matching send unparks.
struct Waiter {
    tag: u64,
    since: Instant,
    thread: Thread,
}

/// The delivery state of one `(src, tag)` stream of a shard. Created by
/// the first send on the tag; retired by [`ShardState::take_next`] once
/// the tag goes quiet, and by a rollback of the tag's sweep.
struct TagRecord<T> {
    /// Envelopes in arrival order; delivery goes by sequence number.
    queue: VecDeque<Envelope<T>>,
    /// Next sequence number to assign.
    next_send: u64,
    /// Next sequence number the receiver expects.
    next_recv: u64,
}

impl<T> Default for TagRecord<T> {
    fn default() -> Self {
        TagRecord {
            queue: VecDeque::new(),
            next_send: 0,
            next_recv: 0,
        }
    }
}

/// Messages and payload bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    messages: u64,
    bytes: u64,
}

impl Traffic {
    fn add(&mut self, other: Traffic) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

impl<T> TagRecord<T> {
    /// Matchable (non-duplicate) messages left on this tag.
    fn live_depth(&self) -> usize {
        self.queue
            .iter()
            .filter(|e| e.seq >= self.next_recv)
            .count()
    }
}

/// One `(destination, source)` pair's state: a record per tag with
/// traffic in flight, parked messages, sleeping receivers, and the
/// pair's traffic and integrity counters.
struct ShardState<T> {
    /// tag → its stream; only tags with traffic in flight have one.
    tags: HashMap<u64, TagRecord<T>>,
    /// Fault-plan holdbacks, any tag.
    parked: Vec<ParkedMsg<T>>,
    /// Receives asleep on this shard.
    waiters: Vec<Waiter>,
    /// Unparks issued to sleeping receivers.
    wakeups: u64,
    /// Messages ever sent through this shard (black-hole ordinal).
    /// Monotonic across rollbacks, which is what makes one-shot lethal
    /// faults stay one-shot under replay.
    sent_count: u64,
    /// Logical traffic on this pair by the sweep its tags name (index =
    /// sweep): one slot per sweep sent on, so bounded by the job's
    /// sweeps. Traffic a resumed fabric is credited with sits in slot 0,
    /// below the start epoch, where no rollback reaches.
    by_sweep: Vec<Traffic>,
    /// Logical sends a rollback discarded, plus sends of sweeps below the
    /// fabric's start epoch: recovery overhead, never logical traffic.
    retrans: Traffic,
    /// Payloads whose checksum verified at this shard's receives.
    verified: u64,
    /// Payloads this shard's receives rejected as corrupted.
    corrupted: u64,
    /// The most recent rejected payload, with the fabric-wide detection
    /// ordinal so diagnostics can report the newest one across shards.
    last_bad: Option<BadSeq>,
}

/// A rejected payload's identity on one shard (src is the shard's).
#[derive(Clone, Copy)]
struct BadSeq {
    tag: u64,
    seq: u64,
    ordinal: u64,
}

impl<T> Default for ShardState<T> {
    fn default() -> Self {
        ShardState {
            tags: HashMap::new(),
            parked: Vec::new(),
            waiters: Vec::new(),
            wakeups: 0,
            sent_count: 0,
            by_sweep: Vec::new(),
            retrans: Traffic::default(),
            verified: 0,
            corrupted: 0,
            last_bad: None,
        }
    }
}

impl<T: Scalar> ShardState<T> {
    /// Take the next-in-sequence envelope for `tag`, purging consumed
    /// duplicates, and verify its checksum. [`Take::Pending`] when the
    /// expected sequence number has not arrived (even if later ones have
    /// — FIFO holds). On a checksum mismatch the corrupt envelope is
    /// removed but the sequence cursor does *not* advance: a supervised
    /// rollback resets it, and the sender's replayed intact resend
    /// satisfies the same sequence number.
    ///
    /// A tag that goes quiet here — every sequence number sent on it
    /// consumed — loses its record, and a later send on it starts a fresh
    /// stream at sequence 0. A parked envelope is its message's only
    /// copy, so a quiet tag has none parked.
    fn take_next(&mut self, tag: u64, detections: &AtomicU64) -> Take<T> {
        let Entry::Occupied(mut slot) = self.tags.entry(tag) else {
            return Take::Pending;
        };
        let rec = slot.get_mut();
        let next = rec.next_recv;
        rec.queue.retain(|e| e.seq >= next);
        let Some(pos) = rec.queue.iter().position(|e| e.seq == next) else {
            return Take::Pending;
        };
        let Some(env) = rec.queue.remove(pos) else {
            return Take::Pending;
        };
        if payload_digest(&env.payload) != env.sum {
            self.corrupted += 1;
            self.last_bad = Some(BadSeq {
                tag,
                seq: env.seq,
                ordinal: detections.fetch_add(1, Ordering::Relaxed),
            });
            return Take::Corrupt { seq: env.seq };
        }
        self.verified += 1;
        rec.next_recv = next + 1;
        if rec.next_recv == rec.next_send {
            slot.remove();
        }
        Take::Ready(env.payload)
    }
}

impl<T> ShardState<T> {
    /// One redelivery tick: age every parked message, promoting the ready
    /// ones into the live queues. Returns true if anything was promoted.
    fn tick_parked(&mut self) -> bool {
        let mut promoted = false;
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].ticks_left <= 1 {
                let p = self.parked.swap_remove(i);
                // A parked message keeps its tag from going quiet, so
                // its record is still there to take it.
                self.tags.entry(p.tag).or_default().queue.push_back(p.env);
                promoted = true;
            } else {
                self.parked[i].ticks_left -= 1;
                i += 1;
            }
        }
        promoted
    }

    /// The threads of the receives asleep on this shard whose tag
    /// `wakes`, counted as woken; the caller unparks them. Empty, and
    /// allocation-free, when nobody sleeps.
    fn sleepers_on(&mut self, wakes: impl Fn(u64) -> bool) -> Vec<Thread> {
        let woken: Vec<Thread> = self
            .waiters
            .iter()
            .filter(|w| wakes(w.tag))
            .map(|w| w.thread.clone())
            .collect();
        self.wakeups += woken.len() as u64;
        woken
    }

    /// Drained = nothing matchable left: no parked message (each is its
    /// message's only copy) and no queued envelope at or past its tag's
    /// receive cursor (consumed duplicates do not count).
    fn is_drained(&self) -> bool {
        self.parked.is_empty() && self.tags.values().all(|r| r.live_depth() == 0)
    }

    /// Charge one send of `bytes` on a tag of `sweep`: logical traffic of
    /// that sweep, or a retransmission below the fabric's start epoch
    /// `floor`.
    fn charge(&mut self, sweep: usize, floor: usize, bytes: u64) {
        let sent = Traffic { messages: 1, bytes };
        if sweep < floor {
            self.retrans.add(sent);
            return;
        }
        if self.by_sweep.len() <= sweep {
            self.by_sweep.resize(sweep + 1, Traffic::default());
        }
        self.by_sweep[sweep].add(sent);
    }

    /// Reset this shard to the epoch boundary `epoch`. Tags of committed
    /// sweeps (`sweep < epoch`) went quiet before the epoch committed, so
    /// they hold no record. Tags of rolled-back sweeps lose their record
    /// and parked envelopes: every rank replays from `epoch`, so each
    /// rolled-back message is sent again by its own sender, on a fresh
    /// stream. The logical charges of the rolled-back sweeps become
    /// retransmissions, and the replay charges its sends again; sweeps
    /// below the start epoch `floor` were charged before this fabric
    /// existed and stay as they are.
    fn rollback_to(&mut self, epoch: usize, floor: usize) {
        let rolled = |tag: u64| sweep_of_tag(tag) >= epoch;
        self.parked.retain(|p| !rolled(p.tag));
        self.tags.retain(|&tag, _| !rolled(tag));
        let keep = epoch.max(floor).min(self.by_sweep.len());
        for discarded in self.by_sweep.drain(keep..) {
            self.retrans.add(discarded);
        }
    }

    /// Logical traffic over every sweep.
    fn logical(&self) -> Traffic {
        let mut total = Traffic::default();
        for t in &self.by_sweep {
            total.add(*t);
        }
        total
    }
}

/// Lock one shard's state. Senders never panic while holding the lock,
/// so a poisoned mutex only ever reflects a panic already unwinding
/// elsewhere — recover the guard rather than double-panicking.
fn lock<T>(shard: &Mutex<ShardState<T>>) -> MutexGuard<'_, ShardState<T>> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Snapshot of the fabric's traffic counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStats {
    /// Nodes of the partition the fabric models.
    pub nodes: usize,
    /// Messages sent, any destination.
    pub messages_total: u64,
    /// Messages whose source and destination live on different nodes.
    pub network_messages_total: u64,
    /// Payload bytes injected per node, any destination (index = node).
    pub bytes_per_node: Vec<u64>,
    /// Inter-node payload bytes injected per node.
    pub network_bytes_per_node: Vec<u64>,
    /// Inter-node messages injected per node.
    pub network_messages_per_node: Vec<u64>,
    /// Logical sends a rollback discarded, plus sends of sweeps below the
    /// start epoch of a resumed fabric — recovery overhead, kept out of
    /// every logical counter above so exact-traffic checks hold for
    /// recovered runs too. In a completed run it is every send beyond the
    /// logical ones.
    pub retransmitted_messages: u64,
    /// Payload bytes of the retransmitted sends.
    pub retransmitted_bytes: u64,
    /// Payloads whose checksum verified at a receive. Like the
    /// retransmission counters, an integrity count, not a logical one:
    /// detected corruption never changes the logical traffic above.
    pub messages_verified: u64,
    /// Payloads rejected as corrupted at a receive.
    pub corruptions_detected: u64,
}

impl FabricStats {
    /// Bytes injected by the busiest node (any destination).
    pub fn bytes_per_node_max(&self) -> u64 {
        self.bytes_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Inter-node bytes injected by the busiest node.
    pub fn network_bytes_per_node_max(&self) -> u64 {
        self.network_bytes_per_node
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total inter-node payload bytes.
    pub fn network_bytes_total(&self) -> u64 {
        self.network_bytes_per_node.iter().sum()
    }

    /// Inter-node messages injected by the busiest node.
    pub fn network_messages_per_node_max(&self) -> u64 {
        self.network_messages_per_node
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// A cluster-wide rank fabric: sharded mailboxes plus traffic
/// counters, laid out for the rank/node geometry of one [`CartMap`],
/// with an optional fault plane and a deadlock watchdog.
pub struct NativeFabric<T> {
    ranks: usize,
    /// Shard of pair `(dst, src)` at index `dst * ranks + src`.
    shards: Vec<Mutex<ShardState<T>>>,
    /// Linear node index of each rank.
    node_of: Vec<usize>,
    nodes: usize,
    elem_bytes: u64,
    config: FabricConfig,
    /// The epoch the fabric started at: sweeps below it were charged
    /// before it existed ([`resume`](NativeFabric::resume)).
    floor: usize,
    /// Completed sends per source rank (panic-injection ordinal).
    sends_of_rank: Vec<AtomicU64>,
    /// Fabric-wide corruption-detection ordinal, stamped onto each
    /// shard's `last_bad` so diagnostics can name the newest rejection.
    detections: AtomicU64,
}

impl<T: Scalar> NativeFabric<T> {
    /// A clean fabric for every rank of `map`: no fault plan, default
    /// watchdog.
    pub fn new(map: &CartMap) -> NativeFabric<T> {
        Self::with_config(map, FabricConfig::default())
    }

    /// A fabric with an explicit watchdog and fault plan.
    pub fn with_config(map: &CartMap, config: FabricConfig) -> NativeFabric<T> {
        let ranks = map.ranks();
        let shape = map.partition.node_shape;
        let node_of: Vec<usize> = (0..ranks).map(|r| shape.index(map.node_of(r))).collect();
        let nodes = map.partition.nodes();
        NativeFabric {
            ranks,
            shards: (0..ranks * ranks).map(|_| Mutex::default()).collect(),
            node_of,
            nodes,
            elem_bytes: T::BYTES as u64,
            config,
            floor: 0,
            sends_of_rank: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            detections: AtomicU64::new(0),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The active configuration (watchdog, fault plan).
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    fn shard(&self, dst: usize, src: usize) -> MutexGuard<'_, ShardState<T>> {
        lock(&self.shards[dst * self.ranks + src])
    }

    /// Deliver `payload` to `dst`, stamped as coming from `src` with `tag`.
    /// Never blocks; charges the payload to `src`'s node and the tag's
    /// sweep (once per send, whatever the fault plan does to its
    /// delivery).
    ///
    /// # Panics
    /// Panics when the fault plan's [`PanicInjection`](crate::fault::PanicInjection)
    /// selects this send — deliberately, to exercise panic containment.
    pub fn send(&self, src: usize, dst: usize, tag: u64, payload: Vec<T>) {
        // Panic injection runs before any lock is taken so the poison
        // never lands on a shard mutex.
        if let Some(p) = self.config.plan.as_ref().and_then(|pl| pl.panic_on_send) {
            if p.rank == src {
                let done = self.sends_of_rank[src].fetch_add(1, Ordering::Relaxed);
                if done == p.after_sends {
                    panic!(
                        "chaos: injected panic in rank {src}'s send #{} (to {dst}, tag {tag})",
                        done + 1
                    );
                }
            }
        }
        // Permanent rank loss: once the tagged sweep reaches the plan's
        // onset, *every* send from the lethal rank panics, on every
        // attempt — retries cannot outrun it; only a geometry that
        // excludes the rank can.
        if let Some(pl) = self.config.plan.as_ref() {
            if pl.lethal_rank == Some(src) && sweep_of_tag(tag) >= pl.lethal_from_sweep {
                panic!(
                    "chaos: permanent rank loss — rank {src}'s send (to {dst}, tag {tag}) \
                     panicked; this rank fails every attempt"
                );
            }
        }

        let bytes = payload.len() as u64 * self.elem_bytes;
        // The envelope's checksum covers the payload as the sender handed
        // it over — before any injected corruption — so the receive-side
        // verification detects exactly the bits that changed in flight.
        let sum = payload_digest(&payload);

        let mut guard = self.shard(dst, src);
        let st = &mut *guard;
        st.sent_count += 1;
        let sent_count = st.sent_count;
        st.charge(sweep_of_tag(tag), self.floor, bytes);
        let rec = st.tags.entry(tag).or_default();
        let seq = rec.next_send;
        rec.next_send += 1;

        let mut env = Envelope { seq, sum, payload };

        let action = match self.config.plan.as_ref() {
            None => FaultAction::Deliver,
            Some(plan) => {
                if plan
                    .black_hole
                    .is_some_and(|bh| bh.src == src && bh.dst == dst && bh.nth == sent_count)
                {
                    // The lethal fault: the message vanishes. Its sequence
                    // number stays consumed (and charged), so the receiver
                    // starves on exactly this (src, tag) and the watchdog
                    // names it. `sent_count` is monotonic across rollbacks,
                    // so the replayed send passes through.
                    return;
                }
                // Payload corruption flips one seeded bit of the delivered
                // copy. Keyed on the same monotonic send count, it fires
                // once, so a replayed send delivers the true bits.
                if plan
                    .corrupt_payload
                    .is_some_and(|cp| cp.src == src && cp.dst == dst && cp.nth == sent_count)
                {
                    flip_bit(&mut env.payload, plan.corrupt_raw(src, dst, tag, seq));
                }
                plan.action(src, dst, tag, seq)
            }
        };

        let woken = match action {
            FaultAction::Deliver => {
                rec.queue.push_back(env);
                st.sleepers_on(|t| t == tag)
            }
            FaultAction::Duplicate => {
                let dup = Envelope {
                    seq: env.seq,
                    sum: env.sum,
                    payload: env.payload.clone(),
                };
                rec.queue.push_back(env);
                rec.queue.push_back(dup);
                st.sleepers_on(|t| t == tag)
            }
            FaultAction::Park { ticks } => {
                st.parked.push(ParkedMsg {
                    tag,
                    env,
                    ticks_left: ticks,
                });
                // Every sleeper on the shard must switch from the long
                // watchdog sleep to tick-length redelivery polls.
                st.sleepers_on(|_| true)
            }
        };
        // Unpark once the lock is released, so the woken receiver finds it
        // free.
        drop(guard);
        for thread in woken {
            thread.unpark();
        }
    }

    /// Block until the next-in-sequence message from `(src, tag)` is
    /// available for `me`, verify its checksum, then take it.
    ///
    /// Two failure modes, both structured: if the message has not
    /// arrived within `config.recv_timeout` the watchdog returns
    /// [`RecvError::Timeout`]; if it arrived with corrupted bits the
    /// verification returns [`RecvError::Corrupt`] immediately (no
    /// watchdog wait — the corruption is already proven). Either carries
    /// a fabric-wide [`FabricDiagnostic`].
    pub fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Vec<T>, RecvError> {
        let mut st = self.shard(me, src);
        // Set when the receive first has to sleep. A receive whose message
        // is already there never reads the clock or registers as a waiter.
        let mut asleep_since: Option<Instant> = None;
        loop {
            match st.take_next(tag, &self.detections) {
                Take::Ready(payload) => {
                    if let Some(start) = asleep_since {
                        Self::remove_waiter(&mut st, tag, start);
                    }
                    return Ok(payload);
                }
                Take::Corrupt { seq } => {
                    if let Some(start) = asleep_since {
                        Self::remove_waiter(&mut st, tag, start);
                    }
                    // Same lock discipline as the watchdog below.
                    drop(st);
                    let diagnostic = self.snapshot_diagnostic(None);
                    return Err(RecvError::Corrupt(Box::new(PayloadCorruption {
                        rank: me,
                        src,
                        tag,
                        seq,
                        diagnostic,
                    })));
                }
                Take::Pending => {}
            }
            let now = Instant::now();
            let start = *asleep_since.get_or_insert_with(|| {
                st.waiters.push(Waiter {
                    tag,
                    since: now,
                    thread: thread::current(),
                });
                now
            });
            let deadline = start + self.config.recv_timeout;
            if now >= deadline {
                Self::remove_waiter(&mut st, tag, start);
                // Drop the shard lock before the fabric-wide snapshot:
                // the snapshot locks shards one at a time, and holding
                // ours while another expiring watchdog holds its own
                // would deadlock the deadlock detector.
                drop(st);
                let waited = start.elapsed();
                let me_blocked = BlockedRecv {
                    rank: me,
                    src,
                    tag,
                    waited,
                };
                let diagnostic = self.snapshot_diagnostic(Some(me_blocked));
                return Err(RecvError::Timeout(Box::new(RecvTimeout {
                    rank: me,
                    src,
                    tag,
                    waited,
                    diagnostic,
                })));
            }
            // With parked messages pending, poll at the redelivery tick;
            // otherwise sleep until a send arrives or the watchdog fires.
            let wait_for = if st.parked.is_empty() {
                deadline - now
            } else {
                REDELIVERY_TICK.min(deadline - now)
            };
            // Registered as a waiter under the lock, so a send that lands
            // after it is released unparks this thread, and an unpark that
            // beats the park makes the park return at once.
            drop(st);
            thread::park_timeout(wait_for);
            st = self.shard(me, src);
            // A full tick with no wake-up is one redelivery tick.
            if now.elapsed() >= wait_for && st.tick_parked() {
                // Redelivered messages may belong to other tags whose
                // receivers are also asleep on this shard.
                for thread in st.sleepers_on(|_| true) {
                    thread.unpark();
                }
            }
        }
    }

    fn remove_waiter(st: &mut ShardState<T>, tag: u64, since: Instant) {
        if let Some(pos) = st
            .waiters
            .iter()
            .position(|w| w.tag == tag && w.since == since)
        {
            st.waiters.swap_remove(pos);
        }
    }

    /// Snapshot every shard: blocked receives (the reporting one first,
    /// when there is one), queues with undelivered or parked traffic,
    /// and per-rank integrity counters. Locks one shard at a time —
    /// never called while holding a shard lock.
    fn snapshot_diagnostic(&self, first: Option<BlockedRecv>) -> FabricDiagnostic {
        let pinned = usize::from(first.is_some());
        let mut blocked: Vec<BlockedRecv> = first.into_iter().collect();
        let mut queues = Vec::new();
        for dst in 0..self.ranks {
            for src in 0..self.ranks {
                let st = self.shard(dst, src);
                for w in &st.waiters {
                    blocked.push(BlockedRecv {
                        rank: dst,
                        src,
                        tag: w.tag,
                        waited: w.since.elapsed(),
                    });
                }
                let mut per_tag: HashMap<u64, (usize, usize)> = HashMap::new();
                for (&tag, rec) in &st.tags {
                    let live = rec.live_depth();
                    if live > 0 {
                        per_tag.entry(tag).or_default().0 = live;
                    }
                }
                for p in &st.parked {
                    per_tag.entry(p.tag).or_default().1 += 1;
                }
                let mut tags: Vec<_> = per_tag.into_iter().collect();
                tags.sort_unstable_by_key(|&(tag, _)| tag);
                for (tag, (queued, parked)) in tags {
                    queues.push(QueueStat {
                        dst,
                        src,
                        tag,
                        queued,
                        parked,
                    });
                }
            }
        }
        // Deterministic ordering for everyone but the reporting receive.
        blocked[pinned..].sort_unstable_by_key(|b| (b.rank, b.src, b.tag));
        FabricDiagnostic {
            blocked,
            queues,
            integrity: self.integrity_stats(),
        }
    }

    /// Per-rank integrity counters: payloads verified and rejected by
    /// each rank's receives, with the most recent rejection's identity.
    /// Ranks with no receive activity are omitted. Locks one shard at a
    /// time — never called while holding a shard lock.
    pub fn integrity_stats(&self) -> Vec<IntegrityStat> {
        let mut stats = Vec::new();
        for dst in 0..self.ranks {
            let mut verified = 0u64;
            let mut corrupted = 0u64;
            let mut newest: Option<(u64, BadPayload)> = None;
            for src in 0..self.ranks {
                let st = self.shard(dst, src);
                verified += st.verified;
                corrupted += st.corrupted;
                if let Some(b) = st.last_bad {
                    if newest.is_none_or(|(ord, _)| b.ordinal > ord) {
                        newest = Some((
                            b.ordinal,
                            BadPayload {
                                src,
                                tag: b.tag,
                                seq: b.seq,
                            },
                        ));
                    }
                }
            }
            if verified > 0 || corrupted > 0 {
                stats.push(IntegrityStat {
                    rank: dst,
                    verified,
                    corrupted,
                    last_bad: newest.map(|(_, b)| b),
                });
            }
        }
        stats
    }

    /// Non-blocking receive (tests and drain checks). Ticks parked
    /// messages once so fault-delayed traffic stays reachable without a
    /// blocking receiver. A corrupt next-in-sequence envelope is counted,
    /// removed, and reported as `None` — nothing matchable.
    pub fn try_recv(&self, me: usize, src: usize, tag: u64) -> Option<Vec<T>> {
        let mut st = self.shard(me, src);
        st.tick_parked();
        match st.take_next(tag, &self.detections) {
            Take::Ready(payload) => Some(payload),
            Take::Corrupt { .. } | Take::Pending => None,
        }
    }

    /// True when rank `me` has no undelivered messages — every schedule
    /// must leave the fabric drained (a leftover message means a send/recv
    /// mismatch). Consumed duplicates do not count: only messages a
    /// receive could still match.
    pub fn is_drained(&self, me: usize) -> bool {
        (0..self.ranks).all(|src| self.shard(me, src).is_drained())
    }

    /// Roll every shard back to the epoch boundary `epoch`: delete the
    /// records and parked envelopes of rolled-back sweeps' tags, and move
    /// those sweeps' logical charges into the retransmission counters.
    /// Nothing is re-queued — the caller replays every rank from `epoch`,
    /// so each rolled-back message is sent again by its own sender and
    /// charged as logical traffic again. A completed run therefore counts
    /// every message once, whatever it took to complete. Sweeps below the
    /// start epoch of a [`resume`](NativeFabric::resume)d fabric are never
    /// un-charged.
    ///
    /// Callers must quiesce the fabric first (no rank threads running);
    /// the supervisor only rolls back between attempts.
    pub fn rollback(&self, epoch: usize) {
        for shard in &self.shards {
            lock(shard).rollback_to(epoch, self.floor);
        }
    }

    /// Start the fabric at epoch `epoch`: sweeps below it were run before
    /// this fabric existed, by a killed process or by a geometry this one
    /// took over from. A later send on such a sweep — a rollback can land
    /// below `epoch` — is a retransmission. Each `(src, dst, messages,
    /// bytes)` of `credits` charges logical traffic of those earlier
    /// sweeps without moving any data, like a send on the same pair: the
    /// durable-restore path credits the traffic the killed process already
    /// sent, which is *statically known* (each compiled program sends the
    /// same messages every sweep), so a restored run's final report
    /// carries exactly an uninterrupted run's logical counts. Called once,
    /// before any rank runs.
    pub fn resume(
        &mut self,
        epoch: usize,
        credits: impl IntoIterator<Item = (usize, usize, u64, u64)>,
    ) {
        self.floor = epoch;
        for (src, dst, messages, bytes) in credits {
            let st = self.shards[dst * self.ranks + src]
                .get_mut()
                .unwrap_or_else(|e| e.into_inner());
            if st.by_sweep.is_empty() {
                st.by_sweep.push(Traffic::default());
            }
            st.by_sweep[0].add(Traffic { messages, bytes });
        }
    }

    /// Snapshot the traffic counters, folding each pair's counts into
    /// its sending node. Locks one shard at a time (stats are taken
    /// between attempts or after a run, never concurrently with the hot
    /// path).
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats {
            nodes: self.nodes,
            messages_total: 0,
            network_messages_total: 0,
            bytes_per_node: vec![0; self.nodes],
            network_bytes_per_node: vec![0; self.nodes],
            network_messages_per_node: vec![0; self.nodes],
            retransmitted_messages: 0,
            retransmitted_bytes: 0,
            messages_verified: 0,
            corruptions_detected: 0,
        };
        for dst in 0..self.ranks {
            for src in 0..self.ranks {
                let st = self.shard(dst, src);
                let node = self.node_of[src];
                let logical = st.logical();
                s.messages_total += logical.messages;
                s.bytes_per_node[node] += logical.bytes;
                if node != self.node_of[dst] {
                    s.network_messages_total += logical.messages;
                    s.network_bytes_per_node[node] += logical.bytes;
                    s.network_messages_per_node[node] += logical.messages;
                }
                s.retransmitted_messages += st.retrans.messages;
                s.retransmitted_bytes += st.retrans.bytes;
                s.messages_verified += st.verified;
                s.corruptions_detected += st.corrupted;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use gpaw_bgp_hw::{ExecMode, Partition};
    use std::sync::Arc;
    use std::time::Duration;

    fn map(nodes: usize, mode: ExecMode) -> CartMap {
        let p = Partition::standard(nodes, mode).unwrap();
        CartMap::best(p, [16, 16, 16])
    }

    fn recv_ok<T: Scalar>(f: &NativeFabric<T>, me: usize, src: usize, tag: u64) -> Vec<T> {
        f.recv(me, src, tag).expect("recv within watchdog")
    }

    fn expect_timeout(e: RecvError) -> Box<RecvTimeout> {
        match e {
            RecvError::Timeout(t) => t,
            RecvError::Corrupt(c) => panic!("expected a watchdog timeout, got corruption: {c}"),
        }
    }

    fn expect_corrupt(e: RecvError) -> Box<PayloadCorruption> {
        match e {
            RecvError::Corrupt(c) => c,
            RecvError::Timeout(t) => panic!("expected corruption, got a watchdog timeout: {t}"),
        }
    }

    #[test]
    fn send_then_recv_fifo_per_tag() {
        let f: NativeFabric<f64> = NativeFabric::new(&map(2, ExecMode::Smp));
        assert_eq!(f.try_recv(1, 0, 7), None, "nothing sent yet");
        f.send(0, 1, 7, vec![1.0, 2.0]);
        f.send(0, 1, 7, vec![3.0]);
        f.send(0, 1, 9, vec![4.0]);
        assert_eq!(recv_ok(&f, 1, 0, 9), vec![4.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0, 2.0]);
        assert_eq!(f.try_recv(1, 0, 7), Some(vec![3.0]));
        assert!(f.is_drained(1));
    }

    #[test]
    fn intra_node_traffic_is_not_network_traffic() {
        // One node in virtual mode: 4 ranks, all on the same node.
        let f: NativeFabric<f64> = NativeFabric::new(&map(1, ExecMode::Virtual));
        f.send(0, 3, 1, vec![0.0; 10]);
        let _ = recv_ok(&f, 3, 0, 1);
        let s = f.stats();
        assert_eq!(s.messages_total, 1);
        assert_eq!(s.bytes_per_node_max(), 80);
        assert_eq!(s.network_messages_total, 0);
        assert_eq!(s.network_bytes_total(), 0);
    }

    #[test]
    fn inter_node_traffic_is_charged_to_the_sender() {
        // Two SMP nodes: rank == node.
        let f: NativeFabric<f64> = NativeFabric::new(&map(2, ExecMode::Smp));
        f.send(0, 1, 1, vec![0.0; 4]);
        f.send(0, 1, 2, vec![0.0; 4]);
        f.send(1, 0, 1, vec![0.0; 2]);
        let _ = (
            recv_ok(&f, 1, 0, 1),
            recv_ok(&f, 1, 0, 2),
            recv_ok(&f, 0, 1, 1),
        );
        let s = f.stats();
        assert_eq!(s.messages_total, 3);
        assert_eq!(s.network_messages_total, 3);
        assert_eq!(s.network_bytes_per_node, vec![64, 16]);
        assert_eq!(s.network_bytes_total(), 80);
        assert_eq!(s.network_messages_per_node_max(), 2);
        assert_eq!(s.bytes_per_node, s.network_bytes_per_node);
    }

    /// Tag records held across every shard.
    fn tag_records<T>(f: &NativeFabric<T>) -> usize {
        f.shards.iter().map(|s| lock(s).tags.len()).sum()
    }

    #[test]
    fn a_bare_fabric_holds_state_only_for_traffic_in_flight() {
        let f: NativeFabric<f64> = NativeFabric::new(&map(2, ExecMode::Smp));
        // A hundred sweeps' worth of distinct tags, all in flight at once.
        let tags: Vec<u64> = (0..100u64).map(|s| (s << 40) | 3).collect();
        for &tag in &tags {
            f.send(0, 1, tag, vec![tag as f64]);
        }
        assert_eq!(tag_records(&f), 100);
        for &tag in &tags {
            assert_eq!(recv_ok(&f, 1, 0, tag), vec![tag as f64]);
        }
        assert_eq!(tag_records(&f), 0, "every quiet tag is retired");
        assert!(f.is_drained(1));
        // One message in flight at a time: one record, whatever the
        // number of tags.
        for tag in 1000..2000u64 {
            f.send(0, 1, tag, vec![1.0]);
            assert_eq!(tag_records(&f), 1);
            assert_eq!(recv_ok(&f, 1, 0, tag), vec![1.0]);
        }
        assert_eq!(tag_records(&f), 0);
        // A tag stays open while anything sent on it is unconsumed, and a
        // retired tag reopens as a fresh FIFO stream.
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(tag_records(&f), 1);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);
        assert_eq!(tag_records(&f), 0);
        f.send(0, 1, 7, vec![3.0]);
        assert_eq!(f.try_recv(1, 0, 7), Some(vec![3.0]));
        assert_eq!(tag_records(&f), 0);
        assert_eq!(f.stats().messages_total, 1103, "every message counted once");
    }

    /// Payload elements held across every shard, queued or parked.
    fn held_elements<T>(f: &NativeFabric<T>) -> usize {
        f.shards
            .iter()
            .map(|s| {
                let st = lock(s);
                let queued: usize = st
                    .tags
                    .values()
                    .flat_map(|r| &r.queue)
                    .map(|e| e.payload.len())
                    .sum();
                queued + st.parked.iter().map(|p| p.env.payload.len()).sum::<usize>()
            })
            .sum()
    }

    /// Two SMP ranks, a 5 s watchdog and `plan`.
    fn watched_fabric(plan: Option<FaultPlan>) -> NativeFabric<f64> {
        let cfg = FabricConfig {
            recv_timeout: Duration::from_secs(5),
            plan,
        };
        NativeFabric::with_config(&map(2, ExecMode::Smp), cfg)
    }

    /// Per-sweep counter slots of the `(dst 1, src 0)` shard.
    fn sweep_slots(f: &NativeFabric<f64>) -> usize {
        lock(&f.shards[2]).by_sweep.len()
    }

    #[test]
    fn a_rolled_back_fabric_holds_state_only_for_traffic_in_flight() {
        let f = watched_fabric(Some(FaultPlan::benign(5)));
        let tag = |sweep: u64| (sweep << 40) | 3;
        // Sweeps 0 and 1 complete; sweep 2's message is still in flight
        // when the attempt fails.
        for sweep in 0..2u64 {
            f.send(0, 1, tag(sweep), vec![sweep as f64]);
            assert_eq!(recv_ok(&f, 1, 0, tag(sweep)), vec![sweep as f64]);
        }
        f.send(0, 1, tag(2), vec![2.0]);
        assert_eq!(tag_records(&f), 1, "only the tag in flight has a record");
        // Roll back to epoch 1 and replay sweeps 1 and 2 to completion.
        f.rollback(1);
        assert_eq!(tag_records(&f), 0, "the rolled-back tag's record is gone");
        assert_eq!(held_elements(&f), 0, "and so is its payload");
        for sweep in 1..3u64 {
            f.send(0, 1, tag(sweep), vec![sweep as f64]);
            assert_eq!(recv_ok(&f, 1, 0, tag(sweep)), vec![sweep as f64]);
        }
        assert!(f.is_drained(1));
        assert_eq!(tag_records(&f), 0, "no record outlives a completed replay");
        // What remains is one counter slot per sweep sent on.
        assert_eq!(sweep_slots(&f), 3);
        let s = f.stats();
        assert_eq!(s.messages_total, 3, "every sweep counted once");
        assert_eq!(
            (s.retransmitted_messages, s.retransmitted_bytes),
            (2, 16),
            "the discarded sends of sweeps 1 and 2"
        );
    }

    #[test]
    fn a_resumed_fabric_is_credited_and_never_recharges_below_its_start() {
        // Two SMP nodes: rank == node. The fabric starts at epoch 2, with
        // sweeps 0 and 1 credited to the 1 -> 0 pair.
        let mut f = watched_fabric(None);
        f.resume(2, [(1, 0, 2, 48)]);
        let s = f.stats();
        assert_eq!(s.messages_total, 2);
        assert_eq!(s.network_bytes_per_node, vec![0, 48]);
        assert_eq!(s.network_messages_per_node, vec![0, 2]);
        let tag = |sweep: u64| (sweep << 40) | 7;
        f.send(1, 0, tag(2), vec![2.0; 3]);
        assert_eq!(recv_ok(&f, 0, 1, tag(2)), vec![2.0; 3]);
        // A rollback below the start epoch discards sweep 2's charge but
        // keeps the credit; the replay's sweeps 0 and 1 are resends of
        // traffic charged before the fabric existed.
        f.rollback(0);
        for sweep in 0..3u64 {
            f.send(1, 0, tag(sweep), vec![sweep as f64; 3]);
            assert_eq!(recv_ok(&f, 0, 1, tag(sweep)), vec![sweep as f64; 3]);
        }
        assert_eq!(tag_records(&f), 0);
        let s = f.stats();
        assert_eq!(s.messages_total, 3, "the credit plus sweep 2, once");
        assert_eq!(s.network_bytes_per_node, vec![0, 72]);
        assert_eq!((s.retransmitted_messages, s.retransmitted_bytes), (3, 72));
    }

    #[test]
    fn a_rollback_capable_fabric_holds_no_payload_once_everything_is_consumed() {
        let f = watched_fabric(None);
        let tag = |sweep: u64| (sweep << 40) | 7;
        for sweep in 0..3u64 {
            f.send(0, 1, tag(sweep), vec![sweep as f64; 4]);
            assert_eq!(recv_ok(&f, 1, 0, tag(sweep)), vec![sweep as f64; 4]);
        }
        assert_eq!(held_elements(&f), 0, "a consumed message is not kept");
        // Replay sweeps 1 and 2, the resends landing before their
        // receives.
        f.rollback(1);
        assert_eq!(held_elements(&f), 0, "a rollback re-queues nothing");
        for sweep in 1..3u64 {
            f.send(0, 1, tag(sweep), vec![sweep as f64; 4]);
        }
        for sweep in 1..3u64 {
            assert_eq!(recv_ok(&f, 1, 0, tag(sweep)), vec![sweep as f64; 4]);
        }
        assert_eq!(held_elements(&f), 0, "a consumed resend is not kept");
        assert!(f.is_drained(1));
        assert_eq!(tag_records(&f), 0);
        let s = f.stats();
        assert_eq!(s.messages_total, 3);
        assert_eq!((s.retransmitted_messages, s.retransmitted_bytes), (2, 64));
    }

    #[test]
    fn only_receivers_asleep_on_the_tag_are_woken() {
        let f: Arc<NativeFabric<f64>> = Arc::new(NativeFabric::new(&map(2, ExecMode::Smp)));
        let asleep = |f: &NativeFabric<f64>| lock(&f.shards[2]).waiters.len();
        let wakeups = |f: &NativeFabric<f64>| lock(&f.shards[2]).wakeups;
        // A receive whose message is already there never sleeps.
        f.send(0, 1, 7, vec![0.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![0.0]);
        assert_eq!((asleep(&f), wakeups(&f)), (0, 0));
        let sleepers: Vec<_> = [8u64, 9]
            .into_iter()
            .map(|tag| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f.recv(1, 0, tag))
            })
            .collect();
        while asleep(&f) < 2 {
            std::thread::yield_now();
        }
        for i in 0..10 {
            f.send(0, 1, 7, vec![i as f64]);
        }
        assert_eq!(wakeups(&f), 0, "nobody sleeps on tag 7");
        let mut woken = 0;
        for (tag, h) in [8u64, 9].into_iter().zip(sleepers) {
            f.send(0, 1, tag, vec![tag as f64]);
            assert_eq!(h.join().unwrap().unwrap(), vec![tag as f64]);
            woken += 1;
            assert_eq!(wakeups(&f), woken, "one wake-up per matching sleeper");
        }
        for i in 0..10 {
            assert_eq!(recv_ok(&f, 1, 0, 7), vec![i as f64]);
        }
        assert_eq!(asleep(&f), 0);
        assert!(f.is_drained(1));
    }

    #[test]
    fn blocking_recv_wakes_on_late_send() {
        let f: Arc<NativeFabric<f64>> = Arc::new(NativeFabric::new(&map(2, ExecMode::Smp)));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.recv(1, 0, 42));
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.send(0, 1, 42, vec![99.0]);
        assert_eq!(h.join().unwrap().unwrap(), vec![99.0]);
    }

    #[test]
    fn concurrent_pairs_do_not_cross_match() {
        // The MPI_THREAD_MULTIPLE pattern: four receivers on one rank,
        // distinct tags, senders from two source ranks.
        let f: Arc<NativeFabric<f64>> = Arc::new(NativeFabric::new(&map(4, ExecMode::Smp)));
        let handles: Vec<_> = (0..4u64)
            .map(|tag| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f.recv(0, (tag % 2) as usize + 1, tag))
            })
            .collect();
        for tag in (0..4u64).rev() {
            f.send((tag % 2) as usize + 1, 0, tag, vec![tag as f64]);
        }
        for (tag, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap().unwrap(), vec![tag as f64]);
        }
        assert!(f.is_drained(0));
    }

    #[test]
    fn fifo_holds_under_concurrent_senders_on_the_same_pair() {
        // Two sender threads share the (dst=1, src=0) shard on distinct
        // tags; per-tag FIFO must hold whatever the interleaving.
        let f: Arc<NativeFabric<f64>> = Arc::new(NativeFabric::new(&map(2, ExecMode::Smp)));
        const N: usize = 200;
        let senders: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|tag| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..N {
                        f.send(0, 1, tag, vec![i as f64]);
                    }
                })
            })
            .collect();
        for h in senders {
            h.join().unwrap();
        }
        for tag in [10u64, 20u64] {
            for i in 0..N {
                assert_eq!(recv_ok(&f, 1, 0, tag), vec![i as f64], "tag {tag} msg {i}");
            }
        }
        assert!(f.is_drained(1));
    }

    #[test]
    fn fifo_holds_under_concurrent_senders_with_faults() {
        let f = Arc::new(watched_fabric(Some(FaultPlan::benign(1234))));
        const N: usize = 60;
        let senders: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|tag| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..N {
                        f.send(0, 1, tag, vec![i as f64]);
                    }
                })
            })
            .collect();
        for h in senders {
            h.join().unwrap();
        }
        // Drain both tags concurrently so parked messages of either tag
        // keep being ticked.
        let receivers: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|tag| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..N {
                        assert_eq!(
                            f.recv(1, 0, tag).expect("within watchdog"),
                            vec![i as f64],
                            "tag {tag} msg {i}"
                        );
                    }
                })
            })
            .collect();
        for h in receivers {
            h.join().unwrap();
        }
        assert!(f.is_drained(1));
        assert_eq!(tag_records(&f), 0, "duplicates and redeliveries retire too");
        // Exact traffic counts survive duplication and redelivery.
        assert_eq!(f.stats().messages_total, 2 * N as u64);
    }

    #[test]
    fn tag_mismatch_starvation_hits_the_watchdog() {
        let cfg = FabricConfig {
            recv_timeout: Duration::from_millis(150),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]);
        let start = Instant::now();
        let err = expect_timeout(f.recv(1, 0, 8).expect_err("tag 8 never arrives"));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "watchdog too slow"
        );
        assert_eq!((err.rank, err.src, err.tag), (1, 0, 8));
        assert_eq!(err.diagnostic.blocked[0].rank, 1);
        assert_eq!(err.diagnostic.blocked[0].tag, 8);
        // The unmatched tag-7 message shows up as undelivered traffic.
        assert!(err
            .diagnostic
            .queues
            .iter()
            .any(|q| q.dst == 1 && q.src == 0 && q.tag == 7 && q.queued == 1));
        let text = err.to_string();
        assert!(text.contains("recv(src=0, tag=8)"), "{text}");
    }

    #[test]
    fn duplicates_are_deduped_and_not_double_counted() {
        // Find a seed whose first message on this identity duplicates.
        let mut plan = None;
        for seed in 0..10_000 {
            let p = FaultPlan {
                dup_prob: 0.5,
                ..FaultPlan::quiet(seed)
            };
            if p.action(0, 1, 7, 0) == FaultAction::Duplicate {
                plan = Some(p);
                break;
            }
        }
        let plan = plan.expect("a duplicating seed exists in 10k");
        let cfg = FabricConfig {
            plan: Some(plan),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![5.0]);
        f.send(0, 1, 7, vec![6.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![5.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![6.0]);
        // The duplicate envelope is consumed state, not receivable data.
        assert!(f.is_drained(1));
        assert_eq!(f.stats().messages_total, 2);
    }

    #[test]
    fn black_hole_starves_exactly_the_matching_receive() {
        let cfg = FabricConfig {
            recv_timeout: Duration::from_millis(150),
            plan: Some(FaultPlan::quiet(0).with_black_hole(0, 1, 1)),
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]); // swallowed
        f.send(1, 0, 7, vec![2.0]); // different pair: unaffected
        assert_eq!(recv_ok(&f, 0, 1, 7), vec![2.0]);
        let err = expect_timeout(f.recv(1, 0, 7).expect_err("swallowed message"));
        assert_eq!((err.rank, err.src, err.tag), (1, 0, 7));
    }

    #[test]
    fn corrupted_payload_is_detected_at_recv_with_exact_identity() {
        let f = watched_fabric(Some(FaultPlan::quiet(3).with_corrupt_payload(0, 1, 2)));
        f.send(0, 1, 7, vec![1.0, 2.0]);
        f.send(0, 1, 7, vec![3.0, 4.0]); // the 2nd src→dst message: corrupted
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0, 2.0]);
        let c = expect_corrupt(f.recv(1, 0, 7).expect_err("flipped bit must be rejected"));
        assert_eq!((c.rank, c.src, c.tag, c.seq), (1, 0, 7, 1));
        let text = c.to_string();
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(text.contains("corruption detected"), "{text}");
        // Counted as integrity, never as logical traffic.
        let s = f.stats();
        assert_eq!(s.messages_total, 2);
        assert_eq!(s.messages_verified, 1);
        assert_eq!(s.corruptions_detected, 1);
        let stats = f.integrity_stats();
        let r1 = stats.iter().find(|st| st.rank == 1).expect("rank 1 active");
        assert_eq!((r1.verified, r1.corrupted), (1, 1));
        assert_eq!(
            r1.last_bad,
            Some(BadPayload {
                src: 0,
                tag: 7,
                seq: 1
            })
        );
    }

    #[test]
    fn corruption_does_not_advance_the_cursor_and_replay_delivers_true_bits() {
        // The rejected receive leaves its cursor where it was; a rollback
        // resets it and the replaying sender's resend satisfies the same
        // receive — detection is fail-stop, never data loss.
        let f = watched_fabric(Some(FaultPlan::quiet(3).with_corrupt_payload(0, 1, 1)));
        f.send(0, 1, 7, vec![5.0, 6.0]); // corrupted in flight
        let c = expect_corrupt(f.recv(1, 0, 7).expect_err("corrupt first message"));
        assert_eq!(c.seq, 0, "the cursor must still expect seq 0");
        f.rollback(0);
        assert!(f.try_recv(1, 0, 7).is_none(), "nothing is redelivered");
        // The injector is one-shot (sent_count is monotonic), so the
        // resend carries the true bits.
        f.send(0, 1, 7, vec![5.0, 6.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![5.0, 6.0]);
        assert!(f.is_drained(1));
        let s = f.stats();
        assert_eq!(s.messages_total, 1, "logical count is exactly-once");
        assert_eq!((s.corruptions_detected, s.messages_verified), (1, 1));
        assert_eq!((s.retransmitted_messages, s.retransmitted_bytes), (1, 16));
    }

    #[test]
    fn rollback_replays_and_resends_count_as_retransmissions() {
        let f = watched_fabric(None);
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);
        assert_eq!(f.stats().messages_total, 2);

        // Tag 7 encodes sweep 0, so a rollback to epoch 0 rolls it back:
        // nothing is waiting until the replaying sender sends again.
        f.rollback(0);
        assert!(f.try_recv(1, 0, 7).is_none(), "nothing is redelivered");
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);

        // The rolled-back sends became retransmissions and the resends
        // took their place in the logical counters.
        let s = f.stats();
        assert_eq!(s.messages_total, 2, "logical count is exactly-once");
        assert_eq!((s.retransmitted_messages, s.retransmitted_bytes), (2, 16));
        assert!(f.is_drained(1));
    }

    #[test]
    fn rollback_spares_committed_sweeps() {
        let sweep1_tag = (1u64 << 40) | 7; // sweep_of_tag == 1
        assert_eq!(sweep_of_tag(sweep1_tag), 1);
        let f = watched_fabric(None);
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, sweep1_tag, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, sweep1_tag), vec![2.0]);

        // Epoch 1 commits sweep 0: its consumed tag is not replayed, and
        // its charge stays logical; only sweep 1's sender sends again.
        f.rollback(1);
        assert!(
            f.try_recv(1, 0, 7).is_none(),
            "committed sweep stays consumed"
        );
        f.send(0, 1, sweep1_tag, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, sweep1_tag), vec![2.0]);
        assert!(f.is_drained(1));
        let s = f.stats();
        assert_eq!(s.messages_total, 2, "logical count is exactly-once");
        assert_eq!((s.retransmitted_messages, s.retransmitted_bytes), (1, 8));
    }

    #[test]
    fn seed_zero_benign_plan_is_a_valid_schedule() {
        // Seed 0 must be as lawful as any other seed: deterministic
        // actions, FIFO delivery, exact logical counts.
        let plan = FaultPlan::benign(0);
        for seq in 0..50 {
            assert_eq!(plan.action(0, 1, 7, seq), plan.action(0, 1, 7, seq));
        }
        let cfg = FabricConfig {
            plan: Some(plan),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        const N: usize = 50;
        for i in 0..N {
            f.send(0, 1, 7, vec![i as f64]);
        }
        for i in 0..N {
            assert_eq!(recv_ok(&f, 1, 0, 7), vec![i as f64], "msg {i}");
        }
        assert!(f.is_drained(1));
        assert_eq!(f.stats().messages_total, N as u64);
    }

    #[test]
    fn duplicate_arriving_while_predecessor_is_dropped_stays_in_order() {
        // Find a seed where message 0 is dropped (parked multiple ticks)
        // and message 1 is duplicated: the duplicate pair is matchable
        // long before its predecessor, the nastiest reordering the fault
        // plane can produce.
        let mut plan = None;
        for seed in 0..100_000 {
            let p = FaultPlan {
                dup_prob: 0.3,
                drop_prob: 0.3,
                drop_retries: 2,
                ..FaultPlan::quiet(seed)
            };
            let first_dropped =
                matches!(p.action(0, 1, 7, 0), FaultAction::Park { ticks } if ticks >= 2);
            if first_dropped && p.action(0, 1, 7, 1) == FaultAction::Duplicate {
                plan = Some(p);
                break;
            }
        }
        let plan = plan.expect("a drop-then-duplicate seed exists in 100k");
        let cfg = FabricConfig {
            plan: Some(plan),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0], "FIFO despite the drop");
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);
        assert!(f.is_drained(1), "the duplicate is consumed state");
        assert_eq!(tag_records(&f), 0, "the stale duplicate goes with its tag");
        assert_eq!(f.stats().messages_total, 2);
    }

    #[test]
    fn delay_landing_on_the_watchdog_boundary_still_delivers() {
        // recv_timeout == the redelivery tick: the parked message's
        // promotion lands exactly on the watchdog deadline. Matching runs
        // before the deadline check, so the receive completes rather than
        // timing out.
        let cfg = FabricConfig {
            recv_timeout: REDELIVERY_TICK,
            plan: Some(FaultPlan {
                delay_prob: 1.0,
                ..FaultPlan::quiet(0)
            }),
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![3.0]);
        assert_eq!(
            f.recv(1, 0, 7).expect("boundary promotion still matches"),
            vec![3.0]
        );
        assert!(f.is_drained(1));
    }
}
