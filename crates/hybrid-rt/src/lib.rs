//! # gpaw-hybrid-rt — the native execution plane
//!
//! The repo's third execution plane. The functional plane
//! (`gpaw_fd::exec`) proves the four programming approaches *correct*;
//! the timed plane (`gpaw_fd::timed`) regenerates the paper's figures on
//! a simulated Blue Gene/P; this crate *runs* the approaches — real
//! `std::thread` workers, real barriers, real comm/compute overlap — so
//! the strategy ranking can be measured on genuine shared-memory hardware
//! rather than only predicted. The interpreter, its rank launcher and the
//! rank fabric are not here: they are `gpaw_fd::interp` and
//! `gpaw_fd::fabric`, shared with the functional plane; this crate
//! supplies the faults, the checkpoints and the supervision around them.
//!
//! Structure:
//!
//! * [`fabric`] and [`fault`] — re-exported from `gpaw_fd`: the
//!   in-process MPI stand-in (sharded mailboxes, exact traffic
//!   accounting, per-`(src, tag)` sequence numbers and checksums, a
//!   deadlock watchdog on every receive) and its seeded [`FaultPlan`]
//!   with the watchdog's structured [`FabricDiagnostic`];
//! * [`error`] — the failure channel: [`RunError`] over the interpreter's
//!   per-rank [`RankFailure`], so no failure mode panics the process or
//!   hangs a condvar;
//! * [`runtime`] — [`NativeJob`] and one attempt: geometry resolution
//!   (every check, every rank's compiled programs), one
//!   `gpaw_fd::interp::launch` of every rank, and the worst-first
//!   classification of its failures, returning grids, a
//!   [`gpaw_simmpi::RunReport`], and raw span timelines;
//! * [`supervisor`] — [`execute`]: the one run driver. A [`RunPolicy`]
//!   names the retries, the geometry shrinks, the disk and the program
//!   cache; a bare policy runs one attempt with no checkpoints. Epoch
//!   checkpoints (`gpaw_fd::checkpoint`, deposited at every sweep's
//!   `AdvanceBuffer` boundary) let a failed attempt roll back to the
//!   newest consistent epoch and resume mid-program, every rank resending
//!   its own traffic from there; exhausted retries shrink the job onto
//!   fewer ranks. Completed runs are bitwise identical to fault-free
//!   ones, with retries, retransmissions and geometry changes itemized
//!   in a [`RecoveryReport`]. [`run_native`], [`supervise`] and
//!   [`supervise_durable`] (over the [`Strategy`] handle [`strategy_for`]
//!   returns) are one-line wrappers kept for the benchmark package;
//! * [`durable`] — the durability plane's disk side. A background
//!   spiller serializes every consistent epoch to disk
//!   (`gpaw_fd::durable`'s digest-checked, atomically-renamed format);
//!   `restore` recovers the newest valid epoch — degrading past corrupt
//!   files with typed errors, never a panic — and the driver seeds the
//!   fabric with the killed process's statically-known logical traffic
//!   and resumes mid-program, so a SIGKILLed run finishes bit-identical
//!   to an uninterrupted one;
//! * [`service`] — [`JobService`]: the multi-tenant job server. A
//!   bounded submission queue with admission control, a shared worker
//!   pool multiplexing many jobs, per-tenant fair scheduling with
//!   priorities, a shared compiled-program cache
//!   (`gpaw_fd::progcache`), and per-job supervised fault isolation —
//!   the layer that turns "run one job" into "serve thousands";
//! * [`report`] — the mapping onto the timed plane's report shape, so
//!   native runs flow through the same JSON emission and perf gate.
//!
//! Every approach is validated bitwise against the sequential reference
//! and the functional plane (`tests/parity.rs`) — both on a quiet fabric
//! and under seeded fault schedules (`tests/chaos.rs`); the span ledgers
//! satisfy the same conservation invariant as simulated runs.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod durable;
pub mod error;
pub mod report;
pub mod runtime;
pub mod service;
pub mod supervisor;

pub use durable::{DurabilityConfig, DurableReport};
pub use error::RunError;
pub use gpaw_fd::fabric::NativeFabric;
pub use gpaw_fd::fault::{FabricDiagnostic, FaultPlan, RecvError, RecvTimeout};
pub use gpaw_fd::interp::{FailureKind, RankFailure};
pub use gpaw_fd::{fabric, fault};
pub use runtime::{NativeJob, NativeRun};
pub use service::{
    run_digest, AdmissionError, JobHandle, JobService, Priority, ServiceConfig, ServiceOutcome,
};
pub use supervisor::{
    execute, run_native, strategy_for, supervise, supervise_durable, DegradePolicy, FailureClass,
    RecoveryReport, RetryPolicy, RunPolicy, Strategy, SupervisedRun,
};
