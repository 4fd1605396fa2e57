//! The native plane's strategies, and its fabric as the interpreter's
//! [`Comm`].
//!
//! A [`Strategy`] encodes no schedule of its own: it is a marker naming
//! an [`Approach`]. Every approach executes through the one real-data
//! interpreter, `gpaw_fd::interp::run_rank`, walking the [`SweepProgram`]
//! op streams compiled once by `gpaw_fd::program::compile_rank` — the
//! same interpreter the functional plane runs over its in-process
//! transport, so results are bitwise identical across the two planes by
//! construction. What is native is the substrate: the [`NativeFabric`]
//! below, whose receives fail typed ([`RecvError`]) on a watchdog expiry
//! or a corrupt payload, and which the interpreter turns into a
//! [`StrategyError`](crate::error::StrategyError) after draining the
//! rank's barriers.
//!
//! [`SweepProgram`]: gpaw_fd::program::SweepProgram

use crate::fabric::NativeFabric;
use crate::fault::RecvError;
use gpaw_fd::config::Approach;
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::interp::Comm;
use gpaw_grid::scalar::Scalar;

/// A native execution schedule for one of the paper's approaches.
///
/// The schedule itself lives in the compiled programs and every approach
/// runs through the shared interpreter; a strategy only names the
/// approach. Adding an approach to the native plane means adding a
/// marker struct and a compiler arm, nothing else.
pub trait Strategy<T: SyntheticFill>: Sync {
    /// The approach this schedule implements (selects decomposition
    /// granularity and execution mode).
    fn approach(&self) -> Approach;

    /// Figure label.
    fn name(&self) -> &'static str {
        self.approach().label()
    }
}

/// *Flat original* (§IV-A): one thread per rank, blocking
/// dimension-by-dimension exchange per grid, no batching, no overlap.
pub struct FlatOriginal;

/// *Flat optimized*: one thread per rank with every §V optimization —
/// simultaneous non-blocking exchange, batching, double buffering.
pub struct FlatOptimized;

/// *Hybrid multiple* (§VI): whole grids dealt round-robin to the rank's
/// threads, every thread its own comm endpoint (`MPI_THREAD_MULTIPLE`),
/// one barrier per sweep.
pub struct HybridMultiple;

/// *Hybrid master-only* (§VI): the master thread communicates
/// (`MPI_THREAD_SINGLE`); a persistent pool of worker threads computes
/// each grid in x-slabs, fenced by two barrier waits per grid — the
/// paper's pthread scheme.
pub struct HybridMasterOnly;

/// *Flat static* (§VII): virtual-mode ranks with node-level decomposition
/// and static grid quarters — the paper's diagnostic proving the
/// granularity, not threading, explains the hybrid advantage. Defined
/// entirely in the schedule compiler; it gained this plane without one
/// line of plane-specific code.
pub struct FlatStatic;

/// *Temporal blocked* (Wittmann–Hager–Wellein): `k` sweeps fused per
/// exchange — one depth-`k·h` ordered exchange, then a shrinking
/// wavefront of `k` stencil applications over the widened ghost zone.
/// Like `FlatStatic`, it gained this plane without one line of
/// plane-specific scheduling: the fused schedule is entirely in the
/// compiled op stream.
pub struct TemporalBlocked;

macro_rules! marker_strategy {
    ($ty:ident) => {
        impl<T: SyntheticFill> Strategy<T> for $ty {
            fn approach(&self) -> Approach {
                Approach::$ty
            }
        }
    };
}

marker_strategy!(FlatOriginal);
marker_strategy!(FlatOptimized);
marker_strategy!(HybridMultiple);
marker_strategy!(HybridMasterOnly);
marker_strategy!(FlatStatic);
marker_strategy!(TemporalBlocked);

/// Every registered strategy, derived from [`Approach::ALL`] so a new
/// approach registers in every soak and suite at once.
pub fn all_strategies<T: SyntheticFill>() -> Vec<Box<dyn Strategy<T>>> {
    Approach::ALL.into_iter().map(strategy_for).collect()
}

/// The strategy for any approach, including the diagnostics.
pub fn strategy_for<T: SyntheticFill>(approach: Approach) -> Box<dyn Strategy<T>> {
    match approach {
        Approach::FlatOriginal => Box::new(FlatOriginal),
        Approach::FlatOptimized => Box::new(FlatOptimized),
        Approach::HybridMultiple => Box::new(HybridMultiple),
        Approach::HybridMasterOnly => Box::new(HybridMasterOnly),
        Approach::FlatStatic => Box::new(FlatStatic),
        Approach::TemporalBlocked => Box::new(TemporalBlocked),
    }
}

/// The native fabric is the interpreter's [`Comm`] on this plane.
impl<T: Scalar> Comm<T> for NativeFabric<T> {
    type Error = RecvError;

    fn send(&self, src: usize, dst: usize, tag: u64, payload: Vec<T>) {
        NativeFabric::send(self, src, dst, tag, payload);
    }

    fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Vec<T>, RecvError> {
        NativeFabric::recv(self, me, src, tag)
    }
}
