//! # gpaw-simmpi — an MPI-like layer over the simulated Blue Gene/P
//!
//! This crate executes *rank programs* — streams of MPI-ish instructions
//! ([`instr::Instr`]: `Isend`, `Irecv`, `WaitEpoch`, `Compute`,
//! `ThreadBarrier`, `AllReduce`…) — on the discrete-event model of the
//! machine, charging every instruction the costs of the calibrated
//! [`gpaw_bgp_hw::CostModel`]:
//!
//! * non-blocking sends/receives pay a CPU posting overhead, then progress
//!   through the DMA + torus links without occupying the core (the paper's
//!   latency-hiding lever);
//! * in `MPI_THREAD_MULTIPLE` mode every library call additionally
//!   serializes through a per-process lock with a measurable hold time —
//!   the cost the paper's *hybrid master-only* approach avoids by staying
//!   in `SINGLE` mode;
//! * intra-node messages (virtual-mode ranks sharing a node) bypass the
//!   torus and go through the node's shared-memory bus, occupying the
//!   sending core for the copy;
//! * tag matching follows MPI semantics: `(source, tag)` match with FIFO
//!   ordering per pair, with an unexpected-message queue. A pair's entry
//!   lives only while something waits under it, the two sides' sizes
//!   must agree, and a run may not end with a message nobody received.
//!
//! The machine can be instantiated at two scopes ([`machine::Scope`]):
//! `Full` simulates every rank (exact, any topology), `UnitCell` simulates
//! one node and mirrors its off-node traffic (exact for SPMD-symmetric
//! schedules on torus partitions, and what makes 16 384-core runs cheap).
//! Equivalence of the two scopes on symmetric workloads is covered by this
//! crate's tests.

pub mod diag;
pub mod instr;
pub mod machine;
pub mod ping;
pub mod report;

pub use instr::{Instr, Program, Tag, VecProgram};
pub use machine::{Machine, Scope, ThreadMode};
pub use report::{RunReport, ThreadPhases};
