//! # gpaw-fd — the distributed finite-difference engine
//!
//! The paper's primary contribution, implemented as **one program, two
//! interpreters, three planes**: every approach's sweep schedule is
//! compiled exactly once ([`program::compile_rank`]) into a declarative
//! [`program::SweepProgram`] — a per-rank, per-thread-role op list —
//! and every execution plane walks that op stream with the same replay
//! cursor ([`program::Cursor`]):
//!
//! * the **real-data interpreter** ([`interp`]) executes it on real
//!   grids and real threads, generic over a two-method [`interp::Comm`]
//!   fabric. Two data planes run it: the **functional plane** ([`exec`]),
//!   over a tag-matching in-process transport ([`transport`]), and the
//!   **native plane** (`gpaw-hybrid-rt`, a separate crate), over a
//!   fault-injecting fabric with retries, checkpoints and durability.
//!   Every approach is proven bit-identical to the sequential reference;
//! * the **timed plane** ([`timed`]) lowers the same ops to cost-model
//!   instructions for the simulated Blue Gene/P (`gpaw-simmpi`), which
//!   is what regenerates the paper's figures at up to 16 384 cores.
//!
//! The four approaches (§VI of the paper), selected by
//! [`config::Approach`]:
//!
//! | approach | node mode | threads | MPI mode | who communicates |
//! |---|---|---|---|---|
//! | Flat original | virtual | 1/rank | `SINGLE` | each rank, blocking dim-by-dim |
//! | Flat optimized | virtual | 1/rank | `SINGLE` | each rank, non-blocking + batching + double buffering |
//! | Hybrid multiple | SMP | 4 | `MULTIPLE` | every thread, own grids |
//! | Hybrid master-only | SMP | 4 | `SINGLE` | master only; grids computed in 4 slabs with per-grid barrier fences |
//!
//! plus the §VII diagnostic variant [`config::Approach::FlatStatic`] (flat
//! ranks with node-level decomposition and static grid sub-groups — the
//! experiment the paper uses to prove the decomposition granularity, not
//! threading itself, explains the hybrid advantage). Because schedules
//! live in the compiler, `FlatStatic` runs on all three planes with zero
//! plane-specific code.
//!
//! [`runner`] wraps the timed plane into the experiments the benches call
//! (speedup curves, Gustafson sweeps, best-batch searches).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod chrome;
pub mod config;
pub mod durable;
pub mod exec;
pub mod integrity;
pub mod interp;
pub mod plan;
pub mod progcache;
pub mod program;
pub mod report;
pub mod runner;
pub mod timed;
pub mod trace;
pub mod transport;

pub use checkpoint::{
    gather_epoch, reshard_epoch, shard_layout, CheckpointStore, RegridError, ShardSpec,
};
pub use chrome::ChromeTrace;
pub use config::{Approach, FdConfig};
pub use durable::{DurableError, DurableStore, Recovered, SnapshotRecord};
pub use integrity::{crc32, flip_bit, grids_digest, payload_digest, run_digest};
pub use plan::{decomposition_shortfall, decomposition_supports, RankPlan};
pub use progcache::{CacheStats, JobPrograms, ProgramCache, ProgramKey};
pub use program::{
    compile_rank, predicted_logical_span, DirSet, SweepOp, SweepProgram, ThreadRole,
};
pub use report::{ExperimentReport, Json, PointReport};
pub use runner::FdExperiment;
pub use trace::{SpanKind, ThreadResult, ThreadSpans, WallTracer};
