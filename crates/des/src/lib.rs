//! # gpaw-des — deterministic discrete-event simulation kernel
//!
//! A small, dependency-free discrete-event simulation (DES) core used by the
//! Blue Gene/P machine model (`gpaw-netsim`, `gpaw-simmpi`) of the GPAW/BGP
//! reproduction. Everything in the timed execution plane of the project runs
//! on top of this crate.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same inputs produce identical event
//!   orders and identical simulated times. Ties in the event queue are broken
//!   by insertion sequence number, and simulated time is integer picoseconds,
//!   so there is no floating-point comparison anywhere on the hot path.
//! * **No inversion of control.** The queue hands events back to the caller
//!   (`EventQueue::pop`) instead of invoking callbacks, which keeps the
//!   machine state (`World`) and the queue in separate borrows and avoids
//!   `Rc<RefCell<…>>` webs entirely.
//! * **Cheap.** An event is `(SimTime, u64 seq, E)` in a binary heap; large
//!   simulations (tens of millions of events for the 16 384-core figures)
//!   stay allocation-light.
//!
//! The crate also ships an analytic FIFO resource ([`resource::FifoServer`])
//! used to model network links and DMA channels without extra events, a
//! traffic counter, and a deterministic SplitMix64 RNG.

pub mod event;
pub mod resource;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use resource::FifoServer;
pub use rng::SplitMix64;
pub use span::{Span, SpanAgg, SpanKind, SpanLog};
pub use time::{SimDuration, SimTime};
