//! The deterministic fault plane: seeded message perturbation and the
//! deadlock watchdog's structured diagnostics.
//!
//! A [`FaultPlan`] is a pure function from a message's identity
//! `(src, dst, tag, seq)` and a seed to a [`FaultAction`] — so the fault
//! schedule of a run is reproducible from its seed alone, independent of
//! thread interleaving. The plan can
//!
//! * **delay** a message (park it for one redelivery tick),
//! * **drop-with-redelivery** (park it for a bounded number of ticks —
//!   the message is lost to the first match attempts, then redelivered),
//! * **duplicate** it (the fabric dedups by per-`(src, tag)` sequence
//!   number, as the torus DMA engine's packet layer would),
//!
//! and, for lethal experiments,
//!
//! * **black-hole** one chosen message forever (an unmatched receive),
//! * **panic** inside one chosen rank's send path (a crashing rank),
//! * **corrupt** a payload — flip one seeded bit of a message's delivered
//!   copy ([`CorruptPayload`], or probabilistically via
//!   [`FaultPlan::corrupt_prob`]), or poison one checkpoint snapshot
//!   after deposit ([`CorruptSnapshot`]). The send-side retransmission
//!   buffer always keeps the *intact* bits, so a supervised replay
//!   delivers the true payload.
//!
//! None of the benign actions can break per-`(src, tag)` FIFO order: the
//! fabric delivers strictly in sequence order, which is exactly the
//! reordering bound the real torus guarantees. Traffic counters are
//! charged once per *logical* message, so exact message/byte counts
//! survive every benign perturbation.
//!
//! When a receive cannot complete within the watchdog budget, the fabric
//! snapshots every shard into a [`FabricDiagnostic`] — the native
//! counterpart of `gpaw_simmpi`'s loud-deadlock report, sharing its
//! wording through [`gpaw_simmpi::diag`].

use gpaw_des::SplitMix64;
use gpaw_simmpi::diag;
use std::fmt;
use std::time::Duration;

/// What the fault plane does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver immediately (the clean path).
    Deliver,
    /// Enqueue the message twice; the receiver dedups by sequence number.
    Duplicate,
    /// Hold the message back for `ticks` redelivery ticks before it
    /// becomes matchable (1 tick models link delay; more model a drop
    /// followed by bounded retransmission).
    Park {
        /// Redelivery ticks the message stays invisible for.
        ticks: u32,
    },
    /// Deliver the message with one bit of its payload flipped. `raw`
    /// (reduced modulo the payload's bit count) selects the bit; it is
    /// drawn from the same seeded identity chain as the action itself,
    /// so the same message corrupts the same bit on every run. The
    /// receive-side checksum detects the flip before any data is used.
    Corrupt {
        /// Seeded draw selecting the flipped bit.
        raw: u64,
    },
}

/// Swallow the `nth` (1-based) message from `src` to `dst` forever — a
/// lethal fault: the matching receive starves and must hit the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackHole {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Which `src → dst` message (1-based) disappears.
    pub nth: u64,
}

/// Panic inside `rank`'s send path once it has already completed
/// `after_sends` sends — a lethal fault exercising panic containment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// The rank whose send panics.
    pub rank: usize,
    /// Sends the rank completes before the panicking one.
    pub after_sends: u64,
}

/// Flip one seeded bit in the `nth` (1-based) `src → dst` message's
/// delivered payload — silent data corruption in flight. Keyed on the
/// shard's monotonic send count (like [`BlackHole`]), so the injection
/// is one-shot: the replayed resend after a supervised rollback carries
/// the true bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPayload {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Which `src → dst` message (1-based) is corrupted.
    pub nth: u64,
}

/// Flip one bit inside the checkpoint snapshot `(rank, slot)` deposits
/// for `epoch` — silent corruption at rest. The snapshot's recorded
/// digest is *not* updated, so the poison is exactly what
/// `CheckpointStore`'s verified rollback must detect and discard.
/// Re-deposits of the same epoch after a rollback are re-poisoned, which
/// is harmless: a completed run never rolls back to them again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptSnapshot {
    /// The depositing rank.
    pub rank: usize,
    /// The rank's checkpoint slot (endpoint index for hybrid-multiple).
    pub slot: usize,
    /// The poisoned epoch.
    pub epoch: usize,
}

/// A seeded, deterministic fault schedule for one native run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-message action draws.
    pub seed: u64,
    /// Probability a message is parked for one tick (link delay).
    pub delay_prob: f64,
    /// Probability a message is duplicated (dedup'd at the receiver).
    pub dup_prob: f64,
    /// Probability a message is dropped and redelivered after a bounded
    /// number of ticks.
    pub drop_prob: f64,
    /// Bound on extra redelivery ticks for dropped messages.
    pub drop_retries: u32,
    /// Probability a message's delivered copy has one seeded bit
    /// flipped. Detected at recv, contained, and recovered under
    /// supervision; `0.0` leaves every existing schedule untouched.
    pub corrupt_prob: f64,
    /// Optional lethal fault: one message that never arrives.
    pub black_hole: Option<BlackHole>,
    /// Optional lethal fault: one send that panics.
    pub panic_on_send: Option<PanicInjection>,
    /// Optional integrity fault: one message delivered with a flipped bit.
    pub corrupt_payload: Option<CorruptPayload>,
    /// Optional integrity fault: one checkpoint snapshot poisoned after
    /// deposit.
    pub corrupt_snapshot: Option<CorruptSnapshot>,
    /// Optional *permanent* lethal fault: every send from this rank
    /// panics, on every attempt — the model of a rank whose hardware is
    /// gone for good. Unlike [`PanicInjection`] (one-shot by send
    /// ordinal), retrying cannot outrun this; it exists to force the
    /// supervisor's escalation from retry to shrink. A degraded geometry
    /// strips it ([`FaultPlan::without_lethal`]) because the dead rank
    /// is, by construction, not part of the surviving partition.
    pub lethal_rank: Option<usize>,
    /// First sweep (0-based, read from the message tag) at which
    /// `lethal_rank` starts panicking. 0 models a rank dead from the
    /// start; a positive value lets the doomed rank commit that many
    /// epochs first, so the escalation resumes from a real mid-run
    /// checkpoint instead of the synthetic fill.
    pub lethal_from_sweep: usize,
}

impl FaultPlan {
    /// The standard benign chaos mix: delays, duplicates, and
    /// drop-with-redelivery, all survivable — bitwise parity and exact
    /// traffic counts must hold under this plan for any seed.
    pub fn benign(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_prob: 0.15,
            dup_prob: 0.10,
            drop_prob: 0.10,
            drop_retries: 3,
            corrupt_prob: 0.0,
            black_hole: None,
            panic_on_send: None,
            corrupt_payload: None,
            corrupt_snapshot: None,
            lethal_rank: None,
            lethal_from_sweep: 0,
        }
    }

    /// A plan that perturbs nothing (useful as a base for lethal faults).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            dup_prob: 0.0,
            drop_prob: 0.0,
            drop_retries: 0,
            corrupt_prob: 0.0,
            black_hole: None,
            panic_on_send: None,
            corrupt_payload: None,
            corrupt_snapshot: None,
            lethal_rank: None,
            lethal_from_sweep: 0,
        }
    }

    /// Add a black hole for the `nth` `src → dst` message.
    pub fn with_black_hole(mut self, src: usize, dst: usize, nth: u64) -> FaultPlan {
        self.black_hole = Some(BlackHole { src, dst, nth });
        self
    }

    /// Add a panic injection in `rank`'s send path after `after_sends`
    /// completed sends.
    pub fn with_panic_on_send(mut self, rank: usize, after_sends: u64) -> FaultPlan {
        self.panic_on_send = Some(PanicInjection { rank, after_sends });
        self
    }

    /// Corrupt each message's delivered copy with probability `prob`.
    pub fn with_corruption(mut self, prob: f64) -> FaultPlan {
        self.corrupt_prob = prob;
        self
    }

    /// Flip one seeded bit in the `nth` `src → dst` message's payload.
    pub fn with_corrupt_payload(mut self, src: usize, dst: usize, nth: u64) -> FaultPlan {
        self.corrupt_payload = Some(CorruptPayload { src, dst, nth });
        self
    }

    /// Poison the snapshot `(rank, slot)` deposits for `epoch`.
    pub fn with_corrupt_snapshot(mut self, rank: usize, slot: usize, epoch: usize) -> FaultPlan {
        self.corrupt_snapshot = Some(CorruptSnapshot { rank, slot, epoch });
        self
    }

    /// Make every send from `rank` panic, permanently — retries can
    /// never complete while this rank is part of the geometry.
    pub fn with_lethal_rank(mut self, rank: usize) -> FaultPlan {
        self.lethal_rank = Some(rank);
        self
    }

    /// Like [`with_lethal_rank`](FaultPlan::with_lethal_rank), but the
    /// rank only starts dying at sweep `sweep` (0-based): every earlier
    /// epoch commits normally, so the escalation path must gather a real
    /// mid-run checkpoint rather than refill synthetically.
    pub fn with_lethal_rank_from(mut self, rank: usize, sweep: usize) -> FaultPlan {
        self.lethal_rank = Some(rank);
        self.lethal_from_sweep = sweep;
        self
    }

    /// The same plan with the permanent lethal rank removed — what a
    /// degraded geometry runs under, since the dead rank's hardware is
    /// excluded from the surviving partition.
    pub fn without_lethal(mut self) -> FaultPlan {
        self.lethal_rank = None;
        self.lethal_from_sweep = 0;
        self
    }

    /// The action for one message, a pure function of the plan's seed and
    /// the message identity — independent of wall clock and interleaving.
    pub fn action(&self, src: usize, dst: usize, tag: u64, seq: u64) -> FaultAction {
        let mut rng = self.identity_rng(src, dst, tag, seq);
        let f = rng.next_f64();
        if f < self.drop_prob {
            // Dropped once, then redelivered within the retry bound.
            FaultAction::Park {
                ticks: 2 + rng.next_below(u64::from(self.drop_retries)) as u32,
            }
        } else if f < self.drop_prob + self.delay_prob {
            FaultAction::Park { ticks: 1 }
        } else if f < self.drop_prob + self.delay_prob + self.dup_prob {
            FaultAction::Duplicate
        } else if f < self.drop_prob + self.delay_prob + self.dup_prob + self.corrupt_prob {
            FaultAction::Corrupt {
                raw: self.corrupt_raw(src, dst, tag, seq),
            }
        } else {
            FaultAction::Deliver
        }
    }

    /// The seeded draw selecting which payload bit a corruption flips —
    /// pure in seed + identity like [`FaultPlan::action`], but on a
    /// decorrelated stream so the flipped bit is independent of the
    /// action draw.
    pub fn corrupt_raw(&self, src: usize, dst: usize, tag: u64, seq: u64) -> u64 {
        let mut state = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [src as u64, dst as u64, tag, seq] {
            state = SplitMix64::new(state ^ v.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        }
        SplitMix64::new(state).next_u64()
    }

    fn identity_rng(&self, src: usize, dst: usize, tag: u64, seq: u64) -> SplitMix64 {
        let mut state = self.seed;
        for v in [src as u64, dst as u64, tag, seq] {
            state = SplitMix64::new(state ^ v.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        }
        SplitMix64::new(state)
    }
}

/// Runtime knobs of one [`NativeFabric`](crate::fabric::NativeFabric): the recv watchdog, the
/// redelivery tick, the optional fault plan, and (for supervised runs)
/// send-side history retention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// How long a receive may block before the deadlock watchdog declares
    /// it stuck and returns a [`FabricDiagnostic`] (formerly the
    /// hard-coded "watchdog" budget; default unchanged at 30 s).
    pub recv_timeout: Duration,
    /// Granularity of parked-message redelivery (and of watchdog polls
    /// while parked messages exist).
    pub tick: Duration,
    /// The fault schedule; `None` is the clean fabric.
    pub plan: Option<FaultPlan>,
    /// Keep a send-side copy of every in-flight message (the
    /// retransmission buffer) so a rollback can re-queue traffic for
    /// rolled-back receivers. Off for plain runs — it costs one payload
    /// clone per send — and turned on by the supervisor.
    pub retain_history: bool,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            recv_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(1),
            plan: None,
            retain_history: false,
        }
    }
}

/// One receive the watchdog found blocked at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRecv {
    /// The rank whose receive is blocked.
    pub rank: usize,
    /// The awaited source rank.
    pub src: usize,
    /// The awaited tag.
    pub tag: u64,
    /// How long the receive has been blocked.
    pub waited: Duration,
}

impl fmt::Display for BlockedRecv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} blocked {}ms on {}",
            self.rank,
            self.waited.as_millis(),
            diag::pending_recv(self.src, self.tag)
        )
    }
}

/// Undelivered traffic on one `(dst, src, tag)` queue at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStat {
    /// Receiving rank of the shard.
    pub dst: usize,
    /// Sending rank of the shard.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Matchable messages waiting in the live queue.
    pub queued: usize,
    /// Messages parked by the fault plan, not yet matchable.
    pub parked: usize,
}

/// The last corrupted payload one rank detected: its sender, tag, and
/// per-`(src, tag)` sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadPayload {
    /// The sending rank of the rejected payload.
    pub src: usize,
    /// The rejected payload's tag.
    pub tag: u64,
    /// The rejected payload's sequence number.
    pub seq: u64,
}

/// Per-rank integrity counters: how many payloads the rank's receives
/// verified, how many it rejected as corrupted, and the most recent
/// rejection's identity — so a watchdog report names corruption
/// explicitly instead of a generic stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityStat {
    /// The receiving rank.
    pub rank: usize,
    /// Payloads whose checksum verified at this rank's receives.
    pub verified: u64,
    /// Payloads this rank rejected as corrupted.
    pub corrupted: u64,
    /// The most recent rejected payload, if any.
    pub last_bad: Option<BadPayload>,
}

/// Per-rank escalation counters: how many supervised retry attempts were
/// charged to failures pinned on this rank, and how many geometry
/// degradations the rank has survived (been re-sharded through). A
/// degraded run's report carries these so it can explain *why* it shrank
/// — which rank exhausted the retry budget — instead of just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscalationStat {
    /// The rank the counters describe (within its geometry segment).
    pub rank: usize,
    /// Supervised retry attempts charged to failures on this rank.
    pub retries: u32,
    /// Geometry degradations this rank has been carried through.
    pub degrades_survived: u32,
}

/// A structured snapshot of the whole fabric, taken when a receive hits
/// the watchdog: every blocked receive (rank, awaited `(src, tag)`, time
/// blocked), every non-empty queue, each rank's integrity counters, and
/// each rank's escalation counters — the native plane's counterpart of
/// the timed machine's deadlock report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricDiagnostic {
    /// Receives blocked at snapshot time, the watchdog's own first.
    pub blocked: Vec<BlockedRecv>,
    /// Queues with undelivered or parked traffic.
    pub queues: Vec<QueueStat>,
    /// Per-rank payload-verification counters (ranks with activity only).
    pub integrity: Vec<IntegrityStat>,
    /// Per-rank escalation counters (ranks with recorded retries or
    /// survived degrades only).
    pub escalations: Vec<EscalationStat>,
}

impl fmt::Display for FabricDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", diag::stuck_header(self.blocked.len(), "receives"))?;
        for b in &self.blocked {
            writeln!(f, "  {b}")?;
        }
        if self.queues.is_empty() {
            writeln!(
                f,
                "  no undelivered traffic (matching sends were never posted)"
            )?;
        } else {
            writeln!(f, "undelivered traffic:")?;
            for q in &self.queues {
                writeln!(
                    f,
                    "  {} -> {} tag {}: {} queued, {} parked",
                    q.src, q.dst, q.tag, q.queued, q.parked
                )?;
            }
        }
        if self.integrity.iter().any(|s| s.corrupted > 0) {
            writeln!(f, "corruption detected:")?;
            for s in self.integrity.iter().filter(|s| s.corrupted > 0) {
                write!(
                    f,
                    "  rank {}: {} corrupted payload(s) rejected, {} verified",
                    s.rank, s.corrupted, s.verified
                )?;
                if let Some(b) = s.last_bad {
                    write!(
                        f,
                        " (last bad: src {}, tag {}, seq {})",
                        b.src, b.tag, b.seq
                    )?;
                }
                writeln!(f)?;
            }
        }
        if !self.escalations.is_empty() {
            writeln!(f, "escalation history:")?;
            for e in &self.escalations {
                writeln!(
                    f,
                    "  rank {}: {} retry attempt(s) charged, {} degrade(s) survived",
                    e.rank, e.retries, e.degrades_survived
                )?;
            }
        }
        Ok(())
    }
}

/// A receive that hit the deadlock watchdog instead of completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvTimeout {
    /// The rank whose receive timed out.
    pub rank: usize,
    /// The awaited source rank.
    pub src: usize,
    /// The awaited tag.
    pub tag: u64,
    /// How long the receive waited before giving up.
    pub waited: Duration,
    /// The fabric-wide snapshot at expiry.
    pub diagnostic: FabricDiagnostic,
}

impl fmt::Display for RecvTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "watchdog: rank {} gave up after {}ms waiting on {}\n{}",
            self.rank,
            self.waited.as_millis(),
            diag::pending_recv(self.src, self.tag),
            self.diagnostic
        )
    }
}

impl std::error::Error for RecvTimeout {}

/// A receive that found its next-in-sequence payload corrupted: the
/// checksum computed at send does not match the delivered bits. The
/// sequence cursor did *not* advance, so after a supervised rollback the
/// replayed intact copy satisfies the same receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadCorruption {
    /// The rank whose receive rejected the payload.
    pub rank: usize,
    /// The sending rank.
    pub src: usize,
    /// The message tag.
    pub tag: u64,
    /// The corrupted message's per-`(src, tag)` sequence number.
    pub seq: u64,
    /// The fabric-wide snapshot at detection.
    pub diagnostic: FabricDiagnostic,
}

impl fmt::Display for PayloadCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integrity: rank {} rejected corrupted payload from {} (seq {}): checksum mismatch\n{}",
            self.rank,
            diag::pending_recv(self.src, self.tag),
            self.seq,
            self.diagnostic
        )
    }
}

impl std::error::Error for PayloadCorruption {}

/// Why a fabric receive failed: the watchdog expired, or the awaited
/// payload arrived with corrupted bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The deadlock watchdog expired before a matching send arrived.
    Timeout(Box<RecvTimeout>),
    /// The next-in-sequence payload failed checksum verification.
    Corrupt(Box<PayloadCorruption>),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout(t) => t.fmt(f),
            RecvError::Corrupt(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for RecvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_deterministic_per_message_identity() {
        let plan = FaultPlan::benign(42);
        for seq in 0..50 {
            assert_eq!(plan.action(0, 1, 7, seq), plan.action(0, 1, 7, seq));
        }
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = FaultPlan::benign(1);
        let b = FaultPlan::benign(2);
        let differs = (0..200).any(|seq| a.action(0, 1, 7, seq) != b.action(0, 1, 7, seq));
        assert!(
            differs,
            "two seeds produced identical 200-message schedules"
        );
    }

    #[test]
    fn quiet_plan_always_delivers() {
        let plan = FaultPlan::quiet(9);
        for seq in 0..100 {
            assert_eq!(plan.action(3, 0, seq, seq), FaultAction::Deliver);
        }
    }

    #[test]
    fn benign_mix_hits_every_action_kind() {
        let plan = FaultPlan::benign(7);
        let mut saw_dup = false;
        let mut saw_park = false;
        let mut saw_deliver = false;
        for seq in 0..400 {
            match plan.action(0, 1, 3, seq) {
                FaultAction::Duplicate => saw_dup = true,
                FaultAction::Park { ticks } => {
                    assert!(ticks >= 1 && ticks <= 2 + plan.drop_retries);
                    saw_park = true;
                }
                FaultAction::Deliver => saw_deliver = true,
                FaultAction::Corrupt { .. } => {
                    unreachable!("benign plans have corrupt_prob 0")
                }
            }
        }
        assert!(saw_dup && saw_park && saw_deliver);
    }

    /// `corrupt_prob: 0` leaves every draw of every pre-existing schedule
    /// untouched — the corruption arm sits past the old ladder's end.
    #[test]
    fn zero_corruption_preserves_existing_schedules() {
        let old = FaultPlan::benign(7);
        let extended = FaultPlan {
            corrupt_prob: 0.0,
            ..FaultPlan::benign(7)
        };
        for seq in 0..400 {
            assert_eq!(old.action(0, 1, 3, seq), extended.action(0, 1, 3, seq));
        }
    }

    #[test]
    fn corruption_draws_are_deterministic_and_seeded() {
        let plan = FaultPlan::quiet(11).with_corruption(1.0);
        for seq in 0..50 {
            let a = plan.action(0, 1, 7, seq);
            assert_eq!(a, plan.action(0, 1, 7, seq));
            assert!(matches!(a, FaultAction::Corrupt { .. }), "{a:?}");
        }
        // The flipped-bit draw is decorrelated from the action stream
        // and differs across identities.
        let r0 = plan.corrupt_raw(0, 1, 7, 0);
        assert_eq!(r0, plan.corrupt_raw(0, 1, 7, 0));
        assert_ne!(r0, plan.corrupt_raw(0, 1, 7, 1));
        assert_ne!(
            r0,
            FaultPlan::quiet(12)
                .with_corruption(1.0)
                .corrupt_raw(0, 1, 7, 0)
        );
    }

    #[test]
    fn diagnostic_display_names_rank_and_pending_recv() {
        let d = FabricDiagnostic {
            blocked: vec![BlockedRecv {
                rank: 1,
                src: 0,
                tag: 77,
                waited: Duration::from_millis(250),
            }],
            queues: vec![QueueStat {
                dst: 1,
                src: 0,
                tag: 3,
                queued: 2,
                parked: 1,
            }],
            integrity: vec![IntegrityStat {
                rank: 1,
                verified: 9,
                corrupted: 1,
                last_bad: Some(BadPayload {
                    src: 0,
                    tag: 3,
                    seq: 4,
                }),
            }],
            escalations: vec![EscalationStat {
                rank: 1,
                retries: 3,
                degrades_survived: 1,
            }],
        };
        let text = d.to_string();
        assert!(text.contains("recv(src=0, tag=77)"), "{text}");
        assert!(text.contains("rank 1 blocked 250ms"), "{text}");
        assert!(text.contains("0 -> 1 tag 3: 2 queued, 1 parked"), "{text}");
        assert!(
            text.contains("rank 1: 1 corrupted payload(s) rejected, 9 verified"),
            "{text}"
        );
        assert!(text.contains("last bad: src 0, tag 3, seq 4"), "{text}");
        assert!(
            text.contains("rank 1: 3 retry attempt(s) charged, 1 degrade(s) survived"),
            "{text}"
        );
    }

    /// Clean diagnostics do not mention corruption at all.
    #[test]
    fn clean_diagnostics_stay_silent_about_corruption() {
        let d = FabricDiagnostic {
            integrity: vec![IntegrityStat {
                rank: 0,
                verified: 12,
                corrupted: 0,
                last_bad: None,
            }],
            ..FabricDiagnostic::default()
        };
        assert!(!d.to_string().contains("corrupt"), "{d}");
    }
}
