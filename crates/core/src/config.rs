//! Approach selection and engine parameters.

use gpaw_bgp_hw::ExecMode;
use gpaw_grid::stencil::{BoundaryCond, StencilCoeffs};
use gpaw_simmpi::ThreadMode;

/// The programming approaches of §VI (plus the §VII diagnostic variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The original GPAW scheme: virtual node mode, blocking
    /// dimension-by-dimension halo exchange, no batching, no overlap.
    FlatOriginal,
    /// Virtual node mode with every §V optimization: simultaneous
    /// non-blocking exchange of all three dimensions, double buffering
    /// across batches, and grid batching.
    FlatOptimized,
    /// One process per node, four threads, every thread communicates for
    /// its own whole grids (`MPI_THREAD_MULTIPLE`); one synchronization per
    /// sweep.
    HybridMultiple,
    /// One process per node, four threads, only the master communicates
    /// (`MPI_THREAD_SINGLE`); each grid is computed in four x-slabs
    /// fenced by two thread barriers.
    HybridMasterOnly,
    /// §VII's modified flat: virtual-mode ranks, but the grids are divided
    /// statically into four sub-groups (one per core) over a *node-level*
    /// decomposition. Performance-equivalent to `HybridMultiple`; not valid
    /// in real GPAW (violates the same-subset requirement) — a diagnostic,
    /// excluded from the paper's graphs but runnable on all three planes
    /// since its schedule lives in the compiler like everyone else's.
    FlatStatic,
    /// Temporal blocking (Wittmann–Hager–Wellein): fuse `k` stencil sweeps
    /// into one pass with ghost layers of depth `k·h`, exchanging once per
    /// block instead of once per sweep — the same bytes move in `1/k` as
    /// many messages and exchange epochs. Runs in SMP mode with every
    /// thread communicating for its own grids, like `HybridMultiple`; the
    /// fused block is `FdConfig::effective_block`.
    TemporalBlocked,
}

impl Approach {
    /// All approaches of the paper's graphs (excludes the diagnostics).
    pub const GRAPHED: [Approach; 4] = [
        Approach::FlatOriginal,
        Approach::FlatOptimized,
        Approach::HybridMultiple,
        Approach::HybridMasterOnly,
    ];

    /// Every approach the compiler can emit, in canonical order. This is
    /// THE strategy list: soaks and suites all iterate it, so a new
    /// approach registers everywhere at once.
    pub const ALL: [Approach; 6] = [
        Approach::FlatOriginal,
        Approach::FlatOptimized,
        Approach::HybridMultiple,
        Approach::HybridMasterOnly,
        Approach::FlatStatic,
        Approach::TemporalBlocked,
    ];

    /// Parse the kebab-case command-line name of an approach.
    pub fn parse(name: &str) -> Option<Approach> {
        Approach::ALL.into_iter().find(|a| a.slug() == name)
    }

    /// The kebab-case name: command-line `--approach` values and per-
    /// approach checkpoint subdirectories. Inverse of [`Approach::parse`].
    pub fn slug(self) -> &'static str {
        match self {
            Approach::FlatOriginal => "flat-original",
            Approach::FlatOptimized => "flat-optimized",
            Approach::HybridMultiple => "hybrid-multiple",
            Approach::HybridMasterOnly => "hybrid-master-only",
            Approach::FlatStatic => "flat-static",
            Approach::TemporalBlocked => "temporal-blocked",
        }
    }

    /// Node execution mode this approach requires.
    pub fn exec_mode(self) -> ExecMode {
        match self {
            Approach::FlatOriginal | Approach::FlatOptimized | Approach::FlatStatic => {
                ExecMode::Virtual
            }
            Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
                ExecMode::Smp
            }
        }
    }

    /// MPI thread support level this approach requires.
    pub fn thread_mode(self) -> ThreadMode {
        match self {
            Approach::HybridMultiple | Approach::TemporalBlocked => ThreadMode::Multiple,
            _ => ThreadMode::Single,
        }
    }

    /// True when the grids are decomposed at node granularity (4× coarser
    /// than virtual mode) — the property the paper identifies as the sole
    /// source of the hybrid advantage.
    pub fn node_level_decomposition(self) -> bool {
        !matches!(self, Approach::FlatOriginal | Approach::FlatOptimized)
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Approach::FlatOriginal => "Flat original",
            Approach::FlatOptimized => "Flat optimized",
            Approach::HybridMultiple => "Hybrid multiple",
            Approach::HybridMasterOnly => "Hybrid master-only",
            Approach::FlatStatic => "Flat static-groups",
            Approach::TemporalBlocked => "Temporal blocked",
        }
    }
}

/// Parameters of one FD engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdConfig {
    /// Which programming approach to run.
    pub approach: Approach,
    /// Grids per message (1 = batching off). `FlatOriginal` ignores this
    /// (it predates batching).
    pub batch: usize,
    /// Shrink the first batch (§V-A: "increase the batch-size continuously
    /// in the initial stage") so double buffering exposes less cold-start
    /// latency.
    pub growing_first_batch: bool,
    /// Post batch *i+1*'s exchange before waiting on batch *i*
    /// (§V-A double buffering). `FlatOriginal` ignores this.
    pub double_buffer: bool,
    /// Global boundary condition (the paper benchmarks periodic).
    pub bc: BoundaryCond,
    /// Applications of the FD operator per run.
    pub sweeps: usize,
    /// Maximum sweeps fused per temporal block (`TemporalBlocked` only;
    /// every other approach exchanges per sweep regardless). The block
    /// actually compiled is [`FdConfig::effective_block`].
    pub temporal_depth: usize,
}

impl FdConfig {
    /// The paper's configuration of an approach: every §V optimization on
    /// for everything except `FlatOriginal`.
    pub fn paper(approach: Approach) -> FdConfig {
        let optimized = !matches!(approach, Approach::FlatOriginal);
        FdConfig {
            approach,
            batch: 1,
            growing_first_batch: false,
            double_buffer: optimized,
            bc: BoundaryCond::Periodic,
            sweeps: 1,
            temporal_depth: if matches!(approach, Approach::TemporalBlocked) {
                2
            } else {
                1
            },
        }
    }

    /// Set the batch size.
    pub fn with_batch(mut self, batch: usize) -> FdConfig {
        assert!(batch >= 1);
        self.batch = batch;
        self
    }

    /// Set the sweep count.
    pub fn with_sweeps(mut self, sweeps: usize) -> FdConfig {
        assert!(sweeps >= 1);
        self.sweeps = sweeps;
        self
    }

    /// Set the maximum temporal block depth (≥ 1).
    pub fn with_temporal_depth(mut self, depth: usize) -> FdConfig {
        assert!(depth >= 1);
        self.temporal_depth = depth;
        self
    }

    /// Effective batch size (FlatOriginal always exchanges per grid).
    pub fn effective_batch(&self) -> usize {
        if self.approach == Approach::FlatOriginal {
            1
        } else {
            self.batch
        }
    }

    /// Sweeps actually fused per exchange: 1 for every non-blocked
    /// approach; for `TemporalBlocked` the largest divisor of `sweeps`
    /// that is at most `temporal_depth`, so the run always decomposes
    /// into whole blocks (a prime sweep count degrades gracefully toward
    /// depth 1 rather than needing a ragged tail block).
    pub fn effective_block(&self) -> usize {
        if self.approach != Approach::TemporalBlocked {
            return 1;
        }
        let cap = self.temporal_depth.max(1);
        (1..=cap.min(self.sweeps))
            .filter(|&k| self.sweeps.is_multiple_of(k))
            .max()
            .unwrap_or(1)
    }

    /// Ghost-layer depth the grids need: one stencil halo per fused sweep.
    pub fn halo_depth(&self) -> usize {
        self.effective_block() * StencilCoeffs::HALO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_match_the_paper_table() {
        use Approach::*;
        assert_eq!(FlatOriginal.exec_mode(), ExecMode::Virtual);
        assert_eq!(FlatOptimized.exec_mode(), ExecMode::Virtual);
        assert_eq!(HybridMultiple.exec_mode(), ExecMode::Smp);
        assert_eq!(HybridMasterOnly.exec_mode(), ExecMode::Smp);
        assert_eq!(HybridMultiple.thread_mode(), ThreadMode::Multiple);
        assert_eq!(HybridMasterOnly.thread_mode(), ThreadMode::Single);
        assert_eq!(FlatOptimized.thread_mode(), ThreadMode::Single);
    }

    #[test]
    fn decomposition_granularity() {
        assert!(!Approach::FlatOptimized.node_level_decomposition());
        assert!(Approach::HybridMultiple.node_level_decomposition());
        assert!(Approach::FlatStatic.node_level_decomposition());
    }

    #[test]
    fn paper_config_defaults() {
        let orig = FdConfig::paper(Approach::FlatOriginal);
        assert!(!orig.double_buffer);
        assert_eq!(orig.effective_batch(), 1);
        // Even if someone sets a batch, FlatOriginal ignores it.
        assert_eq!(orig.with_batch(8).effective_batch(), 1);
        let opt = FdConfig::paper(Approach::FlatOptimized).with_batch(8);
        assert!(opt.double_buffer);
        assert_eq!(opt.effective_batch(), 8);
    }

    #[test]
    fn slugs_round_trip_through_parse() {
        for a in Approach::ALL {
            assert_eq!(Approach::parse(a.slug()), Some(a));
        }
        assert_eq!(Approach::parse("no-such-approach"), None);
        assert_eq!(Approach::ALL.len(), 6);
        // The graphed set is a strict prefix of the canonical order.
        assert_eq!(&Approach::ALL[..4], &Approach::GRAPHED[..]);
    }

    #[test]
    fn temporal_block_divides_the_sweep_count() {
        let tb = FdConfig::paper(Approach::TemporalBlocked);
        assert_eq!(tb.temporal_depth, 2);
        assert_eq!(tb.with_sweeps(4).effective_block(), 2);
        assert_eq!(tb.with_sweeps(4).halo_depth(), 4);
        // A prime sweep count has no divisor ≤ 2 other than 1.
        assert_eq!(tb.with_sweeps(3).effective_block(), 1);
        assert_eq!(tb.with_sweeps(3).halo_depth(), 2);
        // Depth 3 over 9 sweeps fuses 3 at a time.
        assert_eq!(
            tb.with_temporal_depth(3).with_sweeps(9).effective_block(),
            3
        );
        // A depth larger than the sweep count clamps to the sweep count.
        assert_eq!(
            tb.with_temporal_depth(8).with_sweeps(4).effective_block(),
            4
        );
        // Every non-blocked approach exchanges per sweep regardless.
        let hm = FdConfig::paper(Approach::HybridMultiple)
            .with_sweeps(4)
            .with_temporal_depth(2);
        assert_eq!(hm.effective_block(), 1);
        assert_eq!(hm.halo_depth(), StencilCoeffs::HALO);
    }

    #[test]
    fn temporal_blocked_modes_match_hybrid_multiple() {
        use Approach::TemporalBlocked;
        assert_eq!(TemporalBlocked.exec_mode(), ExecMode::Smp);
        assert_eq!(TemporalBlocked.thread_mode(), ThreadMode::Multiple);
        assert!(TemporalBlocked.node_level_decomposition());
    }
}
