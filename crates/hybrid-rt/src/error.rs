//! Structured failure reporting for native runs.
//!
//! The native plane used to be panic-only: an unmatched receive hung a
//! condvar forever and a panicking rank thread aborted the whole process
//! through `join().expect(..)`. These types are the error channel that
//! replaces both: every way a run can fail — bad geometry, a receive that
//! hit the deadlock watchdog, a rank thread that panicked, a fabric left
//! undrained — terminates [`crate::execute`] with a [`RunError`]
//! naming the failed rank, the strategy, the phase, and (for watchdog
//! expiries) the full [`FabricDiagnostic`](crate::fault::FabricDiagnostic)
//! snapshot.

use crate::fault::{PayloadCorruption, RecvError, RecvTimeout};
use gpaw_bgp_hw::MapError;
use gpaw_fd::durable::DurableError;
use std::fmt;

/// Why one rank of a native run failed.
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

/// One failed rank of a native run.
#[derive(Debug)]
pub struct RankFailure {
    /// The failed rank.
    pub rank: usize,
    /// Where in the rank's lifecycle the failure happened.
    pub phase: &'static str,
    /// What went wrong.
    pub kind: FailureKind,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::RecvTimeout(t) => {
                write!(f, "rank {} failed in {}: {}", self.rank, self.phase, t)
            }
            FailureKind::Corrupt(c) => {
                write!(f, "rank {} failed in {}: {}", self.rank, self.phase, c)
            }
            FailureKind::Panic(msg) => {
                write!(f, "rank {} panicked in {}: {}", self.rank, self.phase, msg)
            }
            FailureKind::Undrained => write!(
                f,
                "rank {} finished {} with undelivered messages (schedule mismatch)",
                self.rank, self.phase
            ),
        }
    }
}

/// How one rank's strategy schedule failed (before rank attribution).
#[derive(Debug)]
pub enum StrategyError {
    /// A receive hit the deadlock watchdog.
    Recv(Box<RecvTimeout>),
    /// A receive rejected a corrupted payload.
    Corrupt(Box<PayloadCorruption>),
    /// A worker/endpoint thread of the schedule panicked.
    ThreadPanic {
        /// The thread slot within the rank.
        slot: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl StrategyError {
    /// Attribute this schedule failure to its rank.
    pub fn into_rank_failure(self, rank: usize) -> RankFailure {
        match self {
            StrategyError::Recv(t) => RankFailure {
                rank,
                phase: "halo-wait",
                kind: FailureKind::RecvTimeout(t),
            },
            StrategyError::Corrupt(c) => RankFailure {
                rank,
                phase: "halo-verify",
                kind: FailureKind::Corrupt(c),
            },
            StrategyError::ThreadPanic { slot, message } => RankFailure {
                rank,
                phase: "thread-pool",
                kind: FailureKind::Panic(format!("slot {slot}: {message}")),
            },
        }
    }
}

impl From<RecvError> for StrategyError {
    fn from(e: RecvError) -> StrategyError {
        match e {
            RecvError::Timeout(t) => StrategyError::Recv(t),
            RecvError::Corrupt(c) => StrategyError::Corrupt(c),
        }
    }
}

/// Why a whole native run failed.
#[derive(Debug)]
pub enum RunError {
    /// The job has no grids to sweep.
    NoGrids,
    /// The requested node count has no standard Blue Gene/P partition.
    UnsupportedNodeCount {
        /// The node count the job asked for.
        nodes: usize,
    },
    /// The geometry could not be mapped (thread count, process grid…).
    Map(MapError),
    /// The decomposition is too fine for the exchange: along `axis`, the
    /// smallest subdomain (0 when the axis has more parts than planes)
    /// is shallower than the ghost depth the job's config needs.
    Decomposition {
        /// The first axis that falls short.
        axis: usize,
        /// Its smallest sub-extent.
        sub_extent: usize,
        /// `cfg.halo_depth()`: the stencil halo times the fused block.
        halo_depth: usize,
    },
    /// One or more ranks failed; every failure is listed, worst first
    /// (panics before timeouts, then by rank).
    Failed {
        /// The strategy that was running.
        strategy: &'static str,
        /// Every rank failure observed, ordered worst-first.
        failures: Vec<RankFailure>,
    },
    /// One or more ranks detected silent data corruption — a payload
    /// whose checksum did not match at receive. Shaped like [`Failed`]
    /// (every failure listed, worst first) but typed separately so
    /// callers and the supervisor can classify integrity failures
    /// without string matching.
    ///
    /// [`Failed`]: RunError::Failed
    Integrity {
        /// The strategy that was running.
        strategy: &'static str,
        /// Every rank failure observed, ordered worst-first; at least
        /// one is a [`FailureKind::Corrupt`].
        failures: Vec<RankFailure>,
    },
    /// The durable checkpoint layer failed in a way recovery cannot paper
    /// over: a missing `--restore` directory, an unwritable spill target,
    /// or a restored state that contradicts the job's geometry. (A merely
    /// *corrupt* epoch file never lands here — recovery degrades to an
    /// older epoch instead.)
    Durable(DurableError),
}

impl RunError {
    /// The first (worst) rank failure, when the run failed mid-flight.
    pub fn first_failure(&self) -> Option<&RankFailure> {
        self.rank_failures()?.first()
    }

    /// Every rank failure, when the run failed mid-flight — the failures
    /// a retry or a shrink can act on. `None` for errors no rerun can fix.
    pub(crate) fn rank_failures(&self) -> Option<&[RankFailure]> {
        match self {
            RunError::Failed { failures, .. } | RunError::Integrity { failures, .. } => {
                Some(failures)
            }
            _ => None,
        }
    }

    /// The process exit code every soak binary maps this error to — one
    /// taxonomy instead of per-binary constants. Reserved codes: 0 is
    /// success and 2 is a usage error (bad CLI flags), neither of which
    /// is a `RunError`; the remaining classes are
    ///
    /// * **3** — durable checkpoint layer failure ([`RunError::Durable`]:
    ///   missing `--restore` dir, unwritable spill target, geometry
    ///   contradiction), distinguishable so kill/restore harnesses can
    ///   tell a typed durability refusal from a mid-run crash;
    /// * **4** — proven silent data corruption ([`RunError::Integrity`]),
    ///   distinguishable so integrity gates can tell "detected and
    ///   refused" from any other failure;
    /// * **1** — everything else (geometry rejections, rank failures).
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Durable(_) => 3,
            RunError::Integrity { .. } => 4,
            _ => 1,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoGrids => write!(f, "a job needs at least one grid"),
            RunError::UnsupportedNodeCount { nodes } => {
                write!(
                    f,
                    "unsupported node count {nodes}: no standard BGP partition"
                )
            }
            RunError::Map(e) => write!(f, "geometry rejected: {e}"),
            RunError::Decomposition {
                axis,
                sub_extent,
                halo_depth,
            } => write!(
                f,
                "decomposition too fine: axis {axis} has a sub-extent of {sub_extent}, \
                 below the exchange depth {halo_depth}"
            ),
            RunError::Failed { strategy, failures } => {
                write!(f, "{strategy}: {} rank(s) failed", failures.len())?;
                for fail in failures {
                    write!(f, "\n{fail}")?;
                }
                Ok(())
            }
            RunError::Integrity { strategy, failures } => {
                write!(
                    f,
                    "{strategy}: silent data corruption detected; {} rank(s) failed",
                    failures.len()
                )?;
                for fail in failures {
                    write!(f, "\n{fail}")?;
                }
                Ok(())
            }
            RunError::Durable(e) => write!(f, "durable checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurableError> for RunError {
    fn from(e: DurableError) -> RunError {
        RunError::Durable(e)
    }
}

impl From<MapError> for RunError {
    fn from(e: MapError) -> RunError {
        RunError::Map(e)
    }
}

/// Stringify a `catch_unwind` payload the way the default panic hook
/// would.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FabricDiagnostic, RecvTimeout};
    use std::time::Duration;

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
    fn run_error_display_names_rank_strategy_and_pending_recv() {
        let e = RunError::Failed {
            strategy: "Hybrid multiple",
            failures: vec![StrategyError::Recv(timeout()).into_rank_failure(1)],
        };
        let text = e.to_string();
        assert!(text.contains("Hybrid multiple"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("recv(src=0, tag=42)"), "{text}");
    }

    #[test]
    fn thread_panic_keeps_slot_and_message() {
        let f = StrategyError::ThreadPanic {
            slot: 2,
            message: "boom".into(),
        }
        .into_rank_failure(3);
        let text = f.to_string();
        assert!(text.contains("rank 3"), "{text}");
        assert!(text.contains("slot 2: boom"), "{text}");
    }

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&17_u64), "non-string panic payload");
    }

    #[test]
    fn failure_ordering_is_deterministic_with_rank_tie_break() {
        // Build failures out of order: equal-severity entries must sort by
        // rank, and panics outrank corruption outrank timeouts outrank
        // undrained — always the same sequence regardless of completion
        // interleaving.
        let mut failures = [
            RankFailure {
                rank: 3,
                phase: "halo-wait",
                kind: FailureKind::RecvTimeout(timeout()),
            },
            RankFailure {
                rank: 2,
                phase: "drain",
                kind: FailureKind::Undrained,
            },
            RankFailure {
                rank: 1,
                phase: "halo-wait",
                kind: FailureKind::RecvTimeout(timeout()),
            },
            RankFailure {
                rank: 2,
                phase: "run",
                kind: FailureKind::Panic("boom".into()),
            },
            RankFailure {
                rank: 3,
                phase: "halo-verify",
                kind: FailureKind::Corrupt(corruption()),
            },
        ];
        failures.sort_by_key(|f| (f.kind.severity(), f.rank));
        let order: Vec<(u8, usize)> = failures
            .iter()
            .map(|f| (f.kind.severity(), f.rank))
            .collect();
        assert_eq!(order, vec![(0, 2), (1, 3), (2, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn exit_codes_are_pinned_per_error_class() {
        // The taxonomy every soak binary and CI harness relies on:
        // durable = 3, integrity = 4, anything else = 1. Changing these
        // breaks kill/restore scripts that match on child exit codes —
        // this test is the contract.
        use gpaw_fd::durable::DurableError;
        use std::path::PathBuf;
        let durable = RunError::Durable(DurableError::MissingDir(PathBuf::from("/nope")));
        assert_eq!(durable.exit_code(), 3);
        let integrity = RunError::Integrity {
            strategy: "Hybrid multiple",
            failures: vec![StrategyError::Corrupt(corruption()).into_rank_failure(1)],
        };
        assert_eq!(integrity.exit_code(), 4);
        let failed = RunError::Failed {
            strategy: "Hybrid multiple",
            failures: vec![StrategyError::Recv(timeout()).into_rank_failure(1)],
        };
        assert_eq!(failed.exit_code(), 1);
        assert_eq!(RunError::NoGrids.exit_code(), 1);
        assert_eq!(RunError::UnsupportedNodeCount { nodes: 3 }.exit_code(), 1);
    }

    #[test]
    fn integrity_error_display_names_corruption_and_identity() {
        let e = RunError::Integrity {
            strategy: "Hybrid multiple",
            failures: vec![StrategyError::Corrupt(corruption()).into_rank_failure(1)],
        };
        let text = e.to_string();
        assert!(text.contains("silent data corruption detected"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("halo-verify"), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(e.first_failure().is_some());
    }
}
