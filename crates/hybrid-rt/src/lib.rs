//! # gpaw-hybrid-rt — the native execution plane
//!
//! The repo's third execution plane. The functional plane
//! (`gpaw_fd::exec`) proves the four programming approaches *correct*;
//! the timed plane (`gpaw_fd::timed`) regenerates the paper's figures on
//! a simulated Blue Gene/P; this crate *runs* the approaches — real
//! `std::thread` workers, real barriers, real comm/compute overlap over
//! an in-process rank fabric — so the strategy ranking can be measured on
//! genuine shared-memory hardware rather than only predicted.
//!
//! Structure:
//!
//! * [`fabric`] — the in-process MPI stand-in: sharded `(dst, src)`
//!   mailboxes (no cross-pair contention) with atomic intra/inter-node
//!   traffic accounting, per-`(src, tag)` FIFO enforced by sequence
//!   numbers, a deadlock watchdog on every receive, and an optional
//!   seeded fault plan;
//! * [`fault`] — the deterministic fault plane: [`FaultPlan`] (delay,
//!   duplicate, drop-with-redelivery, lethal black holes and injected
//!   panics — all a pure function of seed + message identity) and the
//!   watchdog's structured [`FabricDiagnostic`] snapshot;
//! * [`error`] — the failure channel: [`RunError`] / [`RankFailure`] /
//!   [`StrategyError`], so no failure mode panics the process or hangs a
//!   condvar;
//! * [`strategy`] — the native interpreter of the sweep programs
//!   compiled by `gpaw_fd::program::compile_rank`. A [`Strategy`] is a
//!   marker naming an approach ([`FlatOriginal`], [`FlatOptimized`],
//!   [`HybridMultiple`], [`HybridMasterOnly`], [`FlatStatic`]); every one
//!   executes through the same op-stream walk — single thread, endpoint
//!   fleet, or master + worker pool, chosen by the compiled thread roles
//!   — with barrier draining on failure so a dead thread never strands
//!   its siblings;
//! * [`runtime`] — [`NativeJob`] and one attempt: geometry resolution
//!   (every check, every rank's compiled programs), synthetic fill, and
//!   per-rank threads under `catch_unwind`, returning grids, a
//!   [`gpaw_simmpi::RunReport`], and raw span timelines;
//! * [`supervisor`] — [`execute`]: the one run driver. A [`RunPolicy`]
//!   names the retries, the geometry shrinks, the disk and the program
//!   cache; a bare policy runs one attempt with no checkpoints. Epoch
//!   checkpoints (`gpaw_fd::checkpoint`, deposited at every sweep's
//!   `AdvanceBuffer` boundary) plus the fabric's send-side retransmission
//!   buffers let a failed attempt roll back to the newest consistent
//!   epoch and resume mid-program; exhausted retries shrink the job onto
//!   fewer ranks. Completed runs are bitwise identical to fault-free
//!   ones, with retries, retransmissions and geometry changes itemized
//!   in a [`RecoveryReport`]. [`run_native`], [`supervise`] and
//!   [`supervise_durable`] are one-line wrappers kept for the benchmark
//!   package;
//! * [`durable`] — the durability plane's disk side. A background
//!   spiller serializes every consistent epoch to disk
//!   (`gpaw_fd::durable`'s checksummed, atomically-renamed format);
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
//! Every strategy is validated bitwise against the sequential reference
//! and the functional plane (`tests/parity.rs`) — both on a quiet fabric
//! and under seeded fault schedules (`tests/chaos.rs`); the span ledgers
//! satisfy the same conservation invariant as simulated runs.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod durable;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod report;
pub mod runtime;
pub mod service;
pub mod strategy;
pub mod supervisor;

pub use durable::{DurabilityConfig, DurableReport};
pub use error::{FailureKind, RankFailure, RunError, StrategyError};
pub use fabric::{FabricStats, NativeFabric};
pub use fault::{
    BadPayload, BlackHole, CorruptPayload, CorruptSnapshot, EscalationStat, FabricConfig,
    FabricDiagnostic, FaultAction, FaultPlan, IntegrityStat, PanicInjection, PayloadCorruption,
    RecvError, RecvTimeout,
};
pub use report::native_run_report;
pub use runtime::{NativeJob, NativeRun};
pub use service::{
    run_digest, AdmissionError, JobHandle, JobResult, JobService, Priority, ServiceConfig,
    ServiceOutcome, ServiceStats,
};
pub use strategy::{
    all_strategies, strategy_for, FlatOptimized, FlatOriginal, FlatStatic, HybridMasterOnly,
    HybridMultiple, RankCtx, Strategy, TemporalBlocked, ThreadResult,
};
pub use supervisor::{
    execute, run_native, supervise, supervise_durable, DegradationReport, DegradePolicy,
    FailureClass, FailureSummary, GeometrySegment, RecoveryReport, RetryPolicy, RunPolicy,
    SupervisedRun,
};
