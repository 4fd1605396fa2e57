//! The rank fabric: an in-process stand-in for MPI, shared by both data
//! planes.
//!
//! Every rank of a run is an OS thread inside one process; a message is a
//! `Vec<T>` of packed face data matched on `(source, tag)` with FIFO
//! ordering per pair. Sends never block (buffered, like eager-protocol
//! MPI); receives block until a match arrives. The functional plane runs
//! it clean — no fault plan, no send history — and the native plane adds
//! both. What makes it a *measured*, *survivable* transport:
//!
//! * **sharded mailboxes** — one mutex per `(destination, source)` pair,
//!   so the four concurrent endpoints of *hybrid multiple* never contend
//!   on senders from different ranks (lock-free between distinct pairs; a
//!   mutex only orders one pair's FIFO);
//! * **traffic accounting** — atomic per-node counters classify every
//!   message as intra-node (shared-memory on a real Blue Gene/P) or
//!   inter-node (torus traffic), giving real-data runs the same
//!   `bytes_per_node` / `network_bytes_per_node` split the timed machine
//!   reports. Counters are charged once per *logical* message, so fault
//!   injection (duplicates, redelivery) never changes the counts;
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
//!   instead of propagating into a grid. Retransmission buffers always
//!   hold the intact copy (the checksum is taken before any injected
//!   flip), so a supervised rollback replays true bits.
//!
//! Bytes are charged to the *sending* node (injection accounting, matching
//! the interconnect model's per-node injection counters).

use crate::fault::{
    BadPayload, BlockedRecv, EscalationStat, FabricConfig, FabricDiagnostic, FaultAction,
    IntegrityStat, PayloadCorruption, QueueStat, RecvError, RecvTimeout,
};
use crate::integrity::{flip_bit, payload_digest};
use crate::plan::sweep_of_tag;
use gpaw_bgp_hw::CartMap;
use gpaw_grid::scalar::Scalar;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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

/// A receive currently blocked on this shard (for watchdog snapshots).
struct Waiter {
    tag: u64,
    since: Instant,
}

/// One `(destination, source)` pair's state: live queues, parked
/// messages, sequence counters, and blocked receivers.
struct ShardState<T> {
    /// tag → envelopes, delivered in sequence order.
    queues: HashMap<u64, VecDeque<Envelope<T>>>,
    /// Fault-plan holdbacks, any tag.
    parked: Vec<ParkedMsg<T>>,
    /// Next sequence number to assign per tag.
    next_send: HashMap<u64, u64>,
    /// Next sequence number the receiver expects per tag.
    next_recv: HashMap<u64, u64>,
    /// Receives currently blocked on this shard.
    waiters: Vec<Waiter>,
    /// Messages ever sent through this shard (black-hole ordinal).
    /// Monotonic across rollbacks, which is what makes one-shot lethal
    /// faults stay one-shot under replay.
    sent_count: u64,
    /// Send-side retransmission buffer (when `retain_history` is on):
    /// every envelope delivered into the fabric, per tag. A rollback
    /// re-queues the rolled-back sweeps' entries so their receivers can
    /// re-consume in-flight traffic.
    history: HashMap<u64, Vec<Envelope<T>>>,
    /// Sequence high-water already charged to the *logical* traffic
    /// counters, per tag. A send below it is a retransmission (a replayed
    /// send after rollback) and is charged to the retransmission counters
    /// instead — logical counts stay exact across any number of retries.
    charged: HashMap<u64, u64>,
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
            queues: HashMap::new(),
            parked: Vec::new(),
            next_send: HashMap::new(),
            next_recv: HashMap::new(),
            waiters: Vec::new(),
            sent_count: 0,
            history: HashMap::new(),
            charged: HashMap::new(),
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
    /// removed but the sequence cursor does *not* advance: after a
    /// supervised rollback, the re-queued intact history copy satisfies
    /// the same sequence number.
    fn take_next(&mut self, tag: u64, detections: &AtomicU64) -> Take<T> {
        let next = *self.next_recv.get(&tag).unwrap_or(&0);
        let Some(q) = self.queues.get_mut(&tag) else {
            return Take::Pending;
        };
        q.retain(|e| e.seq >= next);
        let Some(pos) = q.iter().position(|e| e.seq == next) else {
            return Take::Pending;
        };
        let Some(env) = q.remove(pos) else {
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
        self.next_recv.insert(tag, next + 1);
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
                self.queues.entry(p.tag).or_default().push_back(p.env);
                promoted = true;
            } else {
                self.parked[i].ticks_left -= 1;
                i += 1;
            }
        }
        promoted
    }

    /// Matchable (non-duplicate) messages left on this shard.
    fn live_depth(&self, tag: u64) -> usize {
        let next = *self.next_recv.get(&tag).unwrap_or(&0);
        self.queues
            .get(&tag)
            .map(|q| q.iter().filter(|e| e.seq >= next).count())
            .unwrap_or(0)
    }

    /// Drained = nothing matchable left. Parked envelopes whose sequence
    /// number was already consumed are ignored like stale queued
    /// duplicates: after a rollback the receiver may satisfy a tag from
    /// the re-queued history while the sender's replayed copy of the same
    /// message sits parked, and that copy can never be needed again.
    fn is_drained(&self) -> bool {
        self.parked
            .iter()
            .all(|p| p.env.seq < *self.next_recv.get(&p.tag).unwrap_or(&0))
            && self.queues.keys().all(|&tag| self.live_depth(tag) == 0)
    }

    /// Reset this shard to the epoch boundary `epoch`. Tags of committed
    /// sweeps (`sweep < epoch`) keep their state — their messages are
    /// already reflected in the checkpointed grids — but their
    /// retransmission buffers are purged (they can never be a rollback
    /// target again). Tags of rolled-back sweeps are reset to pristine
    /// sequence counters, with the buffered send history re-queued so a
    /// rolled-back receiver finds every in-flight message again; the
    /// re-executing sender's own resends dedup against these by sequence
    /// number. `charged` survives untouched: it is the exactly-once
    /// high-water for the logical traffic counters.
    fn rollback_to(&mut self, epoch: usize) {
        let rolled = |tag: u64| sweep_of_tag(tag) >= epoch;
        self.queues.retain(|&tag, _| !rolled(tag));
        self.parked.retain(|p| !rolled(p.tag));
        self.next_send.retain(|&tag, _| !rolled(tag));
        self.next_recv.retain(|&tag, _| !rolled(tag));
        let history = std::mem::take(&mut self.history);
        for (tag, mut envs) in history {
            if rolled(tag) {
                envs.sort_by_key(|e| e.seq);
                self.queues.entry(tag).or_default().extend(envs);
            }
        }
    }
}

struct Shard<T> {
    state: Mutex<ShardState<T>>,
    arrived: Condvar,
}

impl<T> Shard<T> {
    /// Lock the shard state. Senders never panic while holding the lock,
    /// so a poisoned mutex only ever reflects a panic already unwinding
    /// elsewhere — recover the guard rather than double-panicking.
    fn lock(&self) -> MutexGuard<'_, ShardState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            state: Mutex::new(ShardState::default()),
            arrived: Condvar::new(),
        }
    }
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
    /// Replayed sends whose sequence number was already charged before a
    /// rollback — recovery overhead, kept out of every logical counter
    /// above so exact-traffic checks hold for recovered runs too.
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
    shards: Vec<Shard<T>>,
    /// Linear node index of each rank.
    node_of: Vec<usize>,
    nodes: usize,
    elem_bytes: u64,
    config: FabricConfig,
    /// Completed sends per source rank (panic-injection ordinal).
    sends_of_rank: Vec<AtomicU64>,
    messages: AtomicU64,
    network_messages: AtomicU64,
    bytes_per_node: Vec<AtomicU64>,
    network_bytes_per_node: Vec<AtomicU64>,
    network_messages_per_node: Vec<AtomicU64>,
    retrans_messages: AtomicU64,
    retrans_bytes: AtomicU64,
    /// Fabric-wide corruption-detection ordinal, stamped onto each
    /// shard's `last_bad` so diagnostics can name the newest rejection.
    detections: AtomicU64,
    /// Supervised retry attempts charged to failures on each rank —
    /// recorded by the supervisor so watchdog diagnostics can explain an
    /// escalation history, not just the current stall.
    retries_of_rank: Vec<AtomicU32>,
    /// Geometry degradations each rank of *this* fabric was carried
    /// through (re-sharded state from a larger geometry).
    degrades_of_rank: Vec<AtomicU32>,
}

impl<T: Scalar> NativeFabric<T> {
    /// A clean fabric for every rank of `map`: no fault plan, default
    /// watchdog.
    pub fn new(map: &CartMap) -> NativeFabric<T> {
        Self::with_config(map, FabricConfig::default())
    }

    /// A fabric with explicit watchdog/tick/fault-plan knobs.
    pub fn with_config(map: &CartMap, config: FabricConfig) -> NativeFabric<T> {
        let ranks = map.ranks();
        let shape = map.partition.node_shape;
        let node_of: Vec<usize> = (0..ranks).map(|r| shape.index(map.node_of(r))).collect();
        let nodes = map.partition.nodes();
        NativeFabric {
            ranks,
            shards: (0..ranks * ranks).map(|_| Shard::default()).collect(),
            node_of,
            nodes,
            elem_bytes: T::BYTES as u64,
            config,
            sends_of_rank: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            messages: AtomicU64::new(0),
            network_messages: AtomicU64::new(0),
            bytes_per_node: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            network_bytes_per_node: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            network_messages_per_node: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            retrans_messages: AtomicU64::new(0),
            retrans_bytes: AtomicU64::new(0),
            detections: AtomicU64::new(0),
            retries_of_rank: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
            degrades_of_rank: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The active configuration (watchdog, tick, fault plan).
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    fn shard(&self, dst: usize, src: usize) -> &Shard<T> {
        &self.shards[dst * self.ranks + src]
    }

    /// Deliver `payload` to `dst`, stamped as coming from `src` with `tag`.
    /// Never blocks; charges the payload to `src`'s node (once per logical
    /// message, whatever the fault plan does to its delivery).
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
        let src_node = self.node_of[src];
        // The envelope's checksum covers the payload as the sender handed
        // it over — before any injected corruption — so the receive-side
        // verification detects exactly the bits that changed in flight.
        let sum = payload_digest(&payload);

        let shard = self.shard(dst, src);
        let mut st = shard.lock();
        st.sent_count += 1;
        let seq_entry = st.next_send.entry(tag).or_insert(0);
        let seq = *seq_entry;
        *seq_entry += 1;

        // Exactly-once logical accounting: a sequence number below the
        // charged high-water was counted before a rollback replayed this
        // send — it is a *retransmission*, charged to its own counters so
        // exact-traffic checks keep holding for recovered runs.
        let charged = st.charged.entry(tag).or_insert(0);
        if seq < *charged {
            self.retrans_messages.fetch_add(1, Ordering::Relaxed);
            self.retrans_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            *charged = seq + 1;
            self.messages.fetch_add(1, Ordering::Relaxed);
            self.bytes_per_node[src_node].fetch_add(bytes, Ordering::Relaxed);
            if src_node != self.node_of[dst] {
                self.network_messages.fetch_add(1, Ordering::Relaxed);
                self.network_bytes_per_node[src_node].fetch_add(bytes, Ordering::Relaxed);
                self.network_messages_per_node[src_node].fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut env = Envelope { seq, sum, payload };

        let mut action = match self.config.plan.as_ref() {
            None => FaultAction::Deliver,
            Some(plan) => {
                if plan
                    .black_hole
                    .is_some_and(|bh| bh.src == src && bh.dst == dst && bh.nth == st.sent_count)
                {
                    // The lethal fault: the message vanishes. Its sequence
                    // number stays consumed (and charged), so the receiver
                    // starves on exactly this (src, tag) and the watchdog
                    // names it. `sent_count` is monotonic across rollbacks,
                    // so the replayed send passes through — and lands in
                    // the retransmission counters, not the logical ones.
                    return;
                }
                plan.action(src, dst, tag, seq)
            }
        };

        // Corruption resolves to a seeded bit flip applied to the
        // *delivered* copy only, after the retransmission buffer takes
        // its intact clone below. The targeted injector is keyed on the
        // shard's monotonic send count, like the black hole, so it fires
        // once; the probabilistic Corrupt draw is identity-keyed and may
        // re-fire on a replayed send, which is safe — the receiver
        // matches the earlier-queued intact history copy first and the
        // re-corrupted resend is purged as a stale duplicate.
        let mut flip: Option<u64> = None;
        if let FaultAction::Corrupt { raw } = action {
            flip = Some(raw);
            action = FaultAction::Deliver;
        }
        if let Some(plan) = self.config.plan.as_ref() {
            if plan
                .corrupt_payload
                .is_some_and(|cp| cp.src == src && cp.dst == dst && cp.nth == st.sent_count)
            {
                flip = Some(plan.corrupt_raw(src, dst, tag, seq));
            }
        }

        // A retransmission the receiver already consumed (it advanced past
        // this sequence by re-consuming the rollback's re-queued history)
        // must not re-enter the fabric: queued it would be stale-purged,
        // but parked it would strand past the drain check.
        if seq < *st.next_recv.get(&tag).unwrap_or(&0) {
            return;
        }

        if self.config.retain_history {
            st.history.entry(tag).or_default().push(Envelope {
                seq,
                sum,
                payload: env.payload.clone(),
            });
        }

        if let Some(raw) = flip {
            flip_bit(&mut env.payload, raw);
        }

        match action {
            FaultAction::Deliver => {
                st.queues.entry(tag).or_default().push_back(env);
            }
            FaultAction::Duplicate => {
                let dup = Envelope {
                    seq: env.seq,
                    sum: env.sum,
                    payload: env.payload.clone(),
                };
                let q = st.queues.entry(tag).or_default();
                q.push_back(env);
                q.push_back(dup);
            }
            FaultAction::Park { ticks } => {
                st.parked.push(ParkedMsg {
                    tag,
                    env,
                    ticks_left: ticks,
                });
            }
            // Normalized to Deliver above; the flip already happened.
            FaultAction::Corrupt { .. } => unreachable!("corrupt draws are resolved to a flip"),
        }
        // Wake waiters even for a parked message: they must switch from
        // the long watchdog sleep to tick-length redelivery polls.
        shard.arrived.notify_all();
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
        let shard = self.shard(me, src);
        let start = Instant::now();
        let deadline = start + self.config.recv_timeout;
        let mut st = shard.lock();
        st.waiters.push(Waiter { tag, since: start });
        loop {
            match st.take_next(tag, &self.detections) {
                Take::Ready(payload) => {
                    Self::remove_waiter(&mut st, tag, start);
                    return Ok(payload);
                }
                Take::Corrupt { seq } => {
                    Self::remove_waiter(&mut st, tag, start);
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
                self.config.tick.min(deadline - now)
            };
            let (guard, timeout) = shard
                .arrived
                .wait_timeout(st, wait_for)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timeout.timed_out() && st.tick_parked() {
                // Redelivered messages may belong to other tags whose
                // receivers are also parked on this shard.
                shard.arrived.notify_all();
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
                let st = self.shard(dst, src).lock();
                for w in &st.waiters {
                    blocked.push(BlockedRecv {
                        rank: dst,
                        src,
                        tag: w.tag,
                        waited: w.since.elapsed(),
                    });
                }
                let mut per_tag: HashMap<u64, (usize, usize)> = HashMap::new();
                for &tag in st.queues.keys() {
                    let live = st.live_depth(tag);
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
            escalations: self.escalation_stats(),
        }
    }

    /// Charge one retry attempt against `rank` — called by the
    /// supervisor when a failure pinned to this rank sends the strategy
    /// back through the retry loop.
    pub fn note_retry(&self, rank: usize) {
        self.retries_of_rank[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record that `rank` survived a degradation: it was re-sharded
    /// onto this (smaller) geometry after another rank was lost.
    pub fn note_degrade_survived(&self, rank: usize) {
        self.degrades_of_rank[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-rank escalation counters: retry attempts charged and
    /// degradations survived. Ranks with no escalation history are
    /// omitted.
    pub fn escalation_stats(&self) -> Vec<EscalationStat> {
        (0..self.ranks)
            .filter_map(|rank| {
                let retries = self.retries_of_rank[rank].load(Ordering::Relaxed);
                let degrades_survived = self.degrades_of_rank[rank].load(Ordering::Relaxed);
                (retries > 0 || degrades_survived > 0).then_some(EscalationStat {
                    rank,
                    retries,
                    degrades_survived,
                })
            })
            .collect()
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
                let st = self.shard(dst, src).lock();
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
        let mut st = self.shard(me, src).lock();
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
        (0..self.ranks).all(|src| self.shard(me, src).lock().is_drained())
    }

    /// Roll every shard back to the epoch boundary `epoch`: clear and
    /// reset the state of rolled-back sweeps' tags, re-queue their
    /// buffered send history (so rolled-back receivers re-consume
    /// in-flight traffic), and purge committed sweeps' retransmission
    /// buffers. Traffic counters are untouched — the per-tag charged
    /// high-water keeps the logical counts exactly-once across replays.
    ///
    /// Callers must quiesce the fabric first (no rank threads running);
    /// the supervisor only rolls back between attempts.
    pub fn rollback(&self, epoch: usize) {
        for shard in &self.shards {
            shard.lock().rollback_to(epoch);
        }
    }

    /// Credit `messages` logical messages of `bytes` total payload from
    /// `src` to `dst` without moving any data — the durable-restore path
    /// seeds a fresh process's counters with the traffic the killed
    /// process already sent for sweeps `0..restore_epoch`. That traffic
    /// is *statically known* (each compiled program sends the same
    /// messages every sweep), so a restored run's final report carries
    /// exactly an uninterrupted run's logical counts. Charged like
    /// [`send`](NativeFabric::send): to the sending node, with the
    /// network counters only when the pair crosses nodes.
    pub fn credit_logical(&self, src: usize, dst: usize, messages: u64, bytes: u64) {
        let src_node = self.node_of[src];
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes_per_node[src_node].fetch_add(bytes, Ordering::Relaxed);
        if src_node != self.node_of[dst] {
            self.network_messages.fetch_add(messages, Ordering::Relaxed);
            self.network_bytes_per_node[src_node].fetch_add(bytes, Ordering::Relaxed);
            self.network_messages_per_node[src_node].fetch_add(messages, Ordering::Relaxed);
        }
    }

    /// Snapshot the traffic counters. Quiescent reads of the per-shard
    /// integrity counters (stats are taken between attempts or after a
    /// run, never concurrently with the hot path).
    pub fn stats(&self) -> FabricStats {
        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|a| a.load(Ordering::Relaxed)).collect() };
        let mut messages_verified = 0u64;
        let mut corruptions_detected = 0u64;
        for shard in &self.shards {
            let st = shard.lock();
            messages_verified += st.verified;
            corruptions_detected += st.corrupted;
        }
        FabricStats {
            nodes: self.nodes,
            messages_total: self.messages.load(Ordering::Relaxed),
            network_messages_total: self.network_messages.load(Ordering::Relaxed),
            bytes_per_node: load(&self.bytes_per_node),
            network_bytes_per_node: load(&self.network_bytes_per_node),
            network_messages_per_node: load(&self.network_messages_per_node),
            retransmitted_messages: self.retrans_messages.load(Ordering::Relaxed),
            retransmitted_bytes: self.retrans_bytes.load(Ordering::Relaxed),
            messages_verified,
            corruptions_detected,
        }
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
        let cfg = FabricConfig {
            recv_timeout: Duration::from_secs(5),
            plan: Some(FaultPlan::benign(1234)),
            ..FabricConfig::default()
        };
        let f: Arc<NativeFabric<f64>> =
            Arc::new(NativeFabric::with_config(&map(2, ExecMode::Smp), cfg));
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
            ..FabricConfig::default()
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
        let cfg = FabricConfig {
            recv_timeout: Duration::from_secs(5),
            plan: Some(FaultPlan::quiet(3).with_corrupt_payload(0, 1, 2)),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
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
        // Supervised-style fabric: history retained. The corrupted
        // message's intact copy lives in the retransmission buffer; a
        // rollback re-queues it and the same receive then succeeds —
        // detection is fail-stop, never data loss.
        let cfg = FabricConfig {
            recv_timeout: Duration::from_secs(5),
            retain_history: true,
            plan: Some(FaultPlan::quiet(3).with_corrupt_payload(0, 1, 1)),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![5.0, 6.0]); // corrupted in flight
        let c = expect_corrupt(f.recv(1, 0, 7).expect_err("corrupt first message"));
        assert_eq!(c.seq, 0, "the cursor must still expect seq 0");
        f.rollback(0);
        assert_eq!(
            recv_ok(&f, 1, 0, 7),
            vec![5.0, 6.0],
            "history holds the intact bits"
        );
        // The replayed resend is one-shot (sent_count is monotonic): it
        // passes clean, dedups as a stale retransmission, and the fabric
        // drains.
        f.send(0, 1, 7, vec![5.0, 6.0]);
        assert!(f.is_drained(1));
        let s = f.stats();
        assert_eq!(s.messages_total, 1, "logical count is exactly-once");
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.retransmitted_messages, 1);
    }

    #[test]
    fn probabilistic_corruption_is_detected_under_always_on_verification() {
        let cfg = FabricConfig {
            recv_timeout: Duration::from_secs(5),
            plan: Some(FaultPlan::quiet(17).with_corruption(1.0)),
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]);
        let c = expect_corrupt(f.recv(1, 0, 7).expect_err("every message corrupts"));
        assert_eq!((c.rank, c.src, c.tag, c.seq), (1, 0, 7, 0));
    }

    #[test]
    fn rollback_requeues_history_and_resends_count_as_retransmissions() {
        let cfg = FabricConfig {
            retain_history: true,
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);
        assert_eq!(f.stats().messages_total, 2);

        // Tag 7 encodes sweep 0, so a rollback to epoch 0 rolls it back:
        // the receiver re-consumes both messages from the history buffer.
        f.rollback(0);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![2.0]);

        // The replaying sender's own resends are retransmissions — the
        // logical counters never move again for these sequence numbers.
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, 7, vec![2.0]);
        let s = f.stats();
        assert_eq!(s.messages_total, 2, "logical count is exactly-once");
        assert_eq!(s.retransmitted_messages, 2);
        assert_eq!(s.retransmitted_bytes, 16);
        assert!(f.is_drained(1), "stale resends must not strand anywhere");
    }

    #[test]
    fn rollback_spares_committed_sweeps() {
        let sweep1_tag = (1u64 << 40) | 7; // sweep_of_tag == 1
        assert_eq!(sweep_of_tag(sweep1_tag), 1);
        let cfg = FabricConfig {
            retain_history: true,
            ..FabricConfig::default()
        };
        let f: NativeFabric<f64> = NativeFabric::with_config(&map(2, ExecMode::Smp), cfg);
        f.send(0, 1, 7, vec![1.0]);
        f.send(0, 1, sweep1_tag, vec![2.0]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![1.0]);
        assert_eq!(recv_ok(&f, 1, 0, sweep1_tag), vec![2.0]);

        // Epoch 1 commits sweep 0: its tag keeps its consumed state and
        // loses its history; sweep 1's tag is re-queued for replay.
        f.rollback(1);
        assert!(
            f.try_recv(1, 0, 7).is_none(),
            "committed sweep stays consumed"
        );
        assert_eq!(recv_ok(&f, 1, 0, sweep1_tag), vec![2.0]);
        assert!(f.is_drained(1));
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
        assert_eq!(f.stats().messages_total, 2);
    }

    #[test]
    fn delay_landing_on_the_watchdog_boundary_still_delivers() {
        // recv_timeout == tick: the parked message's promotion lands
        // exactly on the watchdog deadline. Matching runs before the
        // deadline check, so the receive completes rather than timing out.
        let cfg = FabricConfig {
            recv_timeout: Duration::from_millis(40),
            tick: Duration::from_millis(40),
            plan: Some(FaultPlan {
                delay_prob: 1.0,
                ..FaultPlan::quiet(0)
            }),
            ..FabricConfig::default()
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
