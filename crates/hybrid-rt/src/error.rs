//! Structured failure reporting for native runs.
//!
//! The native plane used to be panic-only: an unmatched receive hung a
//! condvar forever and a panicking rank thread aborted the whole process
//! through `join().expect(..)`. [`RunError`] is the error channel that
//! replaces both: every way a run can fail — bad geometry, a receive that
//! hit the deadlock watchdog, a rank thread that panicked, a fabric left
//! undrained — terminates [`crate::execute`] with a [`RunError`] listing
//! the launcher's [`RankFailure`]s: the failed rank, the phase, and (for
//! watchdog expiries) the full
//! [`FabricDiagnostic`](crate::fault::FabricDiagnostic) snapshot.

use gpaw_bgp_hw::MapError;
use gpaw_fd::config::Approach;
use gpaw_fd::durable::DurableError;
use gpaw_fd::interp::RankFailure;
use std::fmt;

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
    /// The approach deals the grids over the cores statically and some
    /// cores would hold none — a rank with nothing to sweep (flat
    /// static with fewer grids than cores per node).
    IdleCores {
        /// The approach that deals the grids.
        approach: Approach,
        /// The job's grid count.
        n_grids: usize,
        /// The cores whose ranks would hold no grid, ascending.
        cores: Vec<usize>,
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
        /// one is a [`FailureKind::Corrupt`](gpaw_fd::interp::FailureKind::Corrupt).
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
            RunError::IdleCores {
                approach,
                n_grids,
                cores,
            } => write!(
                f,
                "{} over {n_grids} grid(s) leaves core(s) {cores:?} with no grid to sweep",
                approach.label()
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_fd::fault::{FabricDiagnostic, PayloadCorruption, RecvTimeout};
    use gpaw_fd::interp::FailureKind;
    use std::time::Duration;

    fn timed_out() -> RankFailure {
        RankFailure {
            rank: 1,
            phase: "halo-wait",
            kind: FailureKind::RecvTimeout(Box::new(RecvTimeout {
                rank: 1,
                src: 0,
                tag: 42,
                waited: Duration::from_millis(300),
                diagnostic: FabricDiagnostic::default(),
            })),
        }
    }

    fn corrupted() -> RankFailure {
        RankFailure {
            rank: 1,
            phase: "halo-verify",
            kind: FailureKind::Corrupt(Box::new(PayloadCorruption {
                rank: 1,
                src: 0,
                tag: 42,
                seq: 7,
                diagnostic: FabricDiagnostic::default(),
            })),
        }
    }

    #[test]
    fn run_error_display_names_rank_strategy_and_pending_recv() {
        let e = RunError::Failed {
            strategy: "Hybrid multiple",
            failures: vec![timed_out()],
        };
        let text = e.to_string();
        assert!(text.contains("Hybrid multiple"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("recv(src=0, tag=42)"), "{text}");
    }

    #[test]
    fn exit_codes_are_pinned_per_error_class() {
        // The taxonomy every soak binary and CI harness relies on:
        // durable = 3, integrity = 4, anything else = 1. Changing these
        // breaks kill/restore scripts that match on child exit codes —
        // this test is the contract.
        use std::path::PathBuf;
        let durable = RunError::Durable(DurableError::MissingDir(PathBuf::from("/nope")));
        assert_eq!(durable.exit_code(), 3);
        let integrity = RunError::Integrity {
            strategy: "Hybrid multiple",
            failures: vec![corrupted()],
        };
        assert_eq!(integrity.exit_code(), 4);
        let failed = RunError::Failed {
            strategy: "Hybrid multiple",
            failures: vec![timed_out()],
        };
        assert_eq!(failed.exit_code(), 1);
        assert_eq!(RunError::NoGrids.exit_code(), 1);
        assert_eq!(RunError::UnsupportedNodeCount { nodes: 3 }.exit_code(), 1);
    }

    #[test]
    fn integrity_error_display_names_corruption_and_identity() {
        let e = RunError::Integrity {
            strategy: "Hybrid multiple",
            failures: vec![corrupted()],
        };
        let text = e.to_string();
        assert!(text.contains("silent data corruption detected"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("halo-verify"), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(e.first_failure().is_some());
    }
}
