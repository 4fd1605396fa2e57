//! The functional plane: the compiled sweep programs on real data.
//!
//! One OS thread per MPI process, real packed faces through a clean
//! [`NativeFabric`] (no fault plan, never rolled back), and the real
//! stencil kernel — launched by [`interp::launch`], the same launcher and
//! interpreter the native plane runs. For the hybrid approaches the
//! interpreter gives each process its inner threads (four, the paper's
//! thread-per-core layout): a fleet of communicating endpoints, or a
//! master and its persistent slab pool. Everything is verified against
//! [`sequential_reference`], the whole-grid single-rank computation.

use crate::config::FdConfig;
use crate::fabric::NativeFabric;
use crate::interp::{self, Launch};
use crate::plan::{rank_assignment, RankPlan};
use crate::progcache::ProgramCache;
use gpaw_bgp_hw::CartMap;
use gpaw_grid::decomp::Subdomain;
use gpaw_grid::generator;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::scalar::{Scalar, C64};
use gpaw_grid::stencil::{apply_sequential, BoundaryCond, StencilCoeffs};
use std::time::{Duration, Instant};

/// Scalars that can regenerate their synthetic wave-function slice locally.
pub trait SyntheticFill: Scalar {
    /// Fill grid `g`'s owned box `sub` of a `global`-extent grid.
    fn fill(grid: &mut Grid3<Self>, sub: &Subdomain, global: [usize; 3], seed: u64, g: usize);
}

impl SyntheticFill for f64 {
    fn fill(grid: &mut Grid3<f64>, sub: &Subdomain, global: [usize; 3], seed: u64, g: usize) {
        generator::fill_local_real(grid, sub, global, seed, g);
    }
}

impl SyntheticFill for C64 {
    fn fill(grid: &mut Grid3<C64>, sub: &Subdomain, global: [usize; 3], seed: u64, g: usize) {
        generator::fill_local_complex(grid, sub, global, seed, g);
    }
}

/// Run a distributed FD job and return each rank's final local grids, in
/// rank order: compile every rank's programs, then [`interp::launch`] one
/// OS thread per rank over a clean fabric, with no checkpoints and no
/// throttle.
///
/// # Panics
/// Panics with the failure's description when a rank fails — a schedule
/// bug this plane exists to catch. A receive that never matches ends at
/// the fabric's 30 s watchdog instead of hanging.
pub fn run_distributed<T: SyntheticFill>(
    grid_ext: [usize; 3],
    n_grids: usize,
    seed: u64,
    coef: &StencilCoeffs,
    cfg: &FdConfig,
    map: &CartMap,
) -> Vec<GridSet<T>> {
    assert!(n_grids > 0);
    let threads = map.partition.threads_per_process();
    let programs =
        ProgramCache::new(1).get_or_compile(cfg, map, grid_ext, n_grids, threads, T::BYTES);
    let outcomes = interp::launch(&Launch {
        fabric: &NativeFabric::new(map),
        coef,
        programs: &programs,
        grid_ext,
        seed,
        start_sweep: 0,
        ckpt: None,
        throttle: Duration::ZERO,
        epoch: Instant::now(),
    });
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok((set, _)) => set,
            Err(failure) => panic!("{failure}"),
        })
        .collect()
}

/// The single-rank, whole-grid ground truth.
pub fn sequential_reference<T: SyntheticFill>(
    grid_ext: [usize; 3],
    n_grids: usize,
    seed: u64,
    coef: &StencilCoeffs,
    bc: BoundaryCond,
    sweeps: usize,
) -> GridSet<T> {
    let halo = StencilCoeffs::HALO;
    let whole = Subdomain {
        start: [0; 3],
        ext: grid_ext,
    };
    let mut inputs: Vec<Grid3<T>> = (0..n_grids)
        .map(|g| {
            let mut grid = Grid3::zeros(grid_ext, halo);
            T::fill(&mut grid, &whole, grid_ext, seed, g);
            grid
        })
        .collect();
    let mut outputs: Vec<Grid3<T>> = (0..n_grids).map(|_| Grid3::zeros(grid_ext, halo)).collect();
    for _ in 0..sweeps {
        for g in 0..n_grids {
            apply_sequential(coef, &mut inputs[g], &mut outputs[g], bc);
        }
        std::mem::swap(&mut inputs, &mut outputs);
    }
    GridSet::from_grids(inputs)
}

/// Largest absolute difference between the distributed outputs and the
/// sequential reference over every rank's subdomain of every grid it
/// owns. Each rank's subdomain and grid ownership come from the compiled
/// plan, so this validates any approach — including flat static, whose
/// ranks own node-level subdomains and a quarter of the grid set.
pub fn max_error_vs_reference_planned<T: SyntheticFill>(
    outputs: &[GridSet<T>],
    map: &CartMap,
    grid_ext: [usize; 3],
    reference: &GridSet<T>,
    cfg: &FdConfig,
) -> f64 {
    let n_grids = reference.len();
    let mut worst = 0.0f64;
    for (rank, set) in outputs.iter().enumerate() {
        let plan = RankPlan::for_rank(map, grid_ext, rank, T::BYTES, cfg);
        let asg = rank_assignment(cfg.approach, n_grids, map, rank);
        assert_eq!(
            set.len(),
            asg.count,
            "rank {rank}: grid count does not match its assignment"
        );
        for i in 0..set.len() {
            worst = worst.max(max_sub_error(
                set.grid(i),
                reference.grid(asg.id(i)),
                &plan.sub,
            ));
        }
    }
    worst
}

/// Largest absolute difference between `local` and the `sub` box of
/// `global`.
fn max_sub_error<T: Scalar>(local: &Grid3<T>, global: &Grid3<T>, sub: &Subdomain) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..sub.ext[0] {
        for j in 0..sub.ext[1] {
            for k in 0..sub.ext[2] {
                let a = local.get(i as isize, j as isize, k as isize);
                let b = global.get(
                    (sub.start[0] + i) as isize,
                    (sub.start[1] + j) as isize,
                    (sub.start[2] + k) as isize,
                );
                worst = worst.max((a - b).abs());
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use gpaw_bgp_hw::{ExecMode, Partition};

    fn coef() -> StencilCoeffs {
        StencilCoeffs::laplacian([0.2, 0.25, 0.3])
    }

    fn virtual_map(nodes: usize, grid: [usize; 3]) -> CartMap {
        let p = Partition::standard(nodes, ExecMode::Virtual).unwrap();
        CartMap::best(p, grid)
    }

    fn smp_map(nodes: usize, grid: [usize; 3]) -> CartMap {
        let p = Partition::standard(nodes, ExecMode::Smp).unwrap();
        CartMap::best(p, grid)
    }

    fn check<T: SyntheticFill>(cfg: &FdConfig, map: &CartMap, grid: [usize; 3], n_grids: usize) {
        let c = coef();
        let outputs = run_distributed::<T>(grid, n_grids, 42, &c, cfg, map);
        let reference = sequential_reference::<T>(grid, n_grids, 42, &c, cfg.bc, cfg.sweeps);
        let err = max_error_vs_reference_planned(&outputs, map, grid, &reference, cfg);
        assert_eq!(
            err,
            0.0,
            "{} diverged from the sequential reference",
            cfg.approach.label()
        );
    }

    #[test]
    fn flat_original_matches_reference() {
        let grid = [12, 10, 8];
        let map = virtual_map(2, grid); // 8 ranks
        check::<f64>(&FdConfig::paper(Approach::FlatOriginal), &map, grid, 5);
    }

    #[test]
    fn flat_optimized_matches_reference() {
        let grid = [12, 10, 8];
        let map = virtual_map(2, grid);
        let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(3);
        check::<f64>(&cfg, &map, grid, 7);
    }

    #[test]
    fn flat_static_matches_reference() {
        // The §VII diagnostic runs functionally now: node-level
        // subdomains, each virtual rank sweeping its core's quarter of
        // the grid set.
        let grid = [12, 10, 8];
        let map = virtual_map(2, grid);
        let cfg = FdConfig::paper(Approach::FlatStatic).with_batch(2);
        check::<f64>(&cfg, &map, grid, 9);
    }

    #[test]
    fn hybrid_multiple_matches_reference() {
        let grid = [12, 12, 12];
        let map = smp_map(2, grid); // 2 processes × 4 threads
        let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(2);
        check::<f64>(&cfg, &map, grid, 9);
    }

    #[test]
    fn hybrid_master_only_matches_reference() {
        let grid = [13, 9, 11]; // odd extents: uneven slabs too
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::HybridMasterOnly).with_batch(4);
        check::<f64>(&cfg, &map, grid, 6);
    }

    #[test]
    fn complex_grids_match_reference() {
        let grid = [10, 10, 10];
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(3);
        check::<C64>(&cfg, &map, grid, 4);
    }

    #[test]
    fn zero_boundary_matches_reference() {
        let grid = [12, 10, 8];
        let map = virtual_map(2, grid);
        let mut cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(2);
        cfg.bc = BoundaryCond::Zero;
        check::<f64>(&cfg, &map, grid, 3);
    }

    #[test]
    fn multiple_sweeps_match_reference() {
        let grid = [10, 10, 10];
        let map = virtual_map(1, grid); // 4 ranks on one node
        let cfg = FdConfig::paper(Approach::FlatOptimized)
            .with_batch(2)
            .with_sweeps(3);
        check::<f64>(&cfg, &map, grid, 4);
    }

    #[test]
    fn uneven_decomposition_matches_reference() {
        // 13 is not divisible by anything useful: remainder paths everywhere.
        let grid = [13, 13, 13];
        let map = virtual_map(2, grid);
        let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(3);
        check::<f64>(&cfg, &map, grid, 5);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let grid = [12, 10, 8];
        let map = smp_map(2, grid);
        let c = coef();
        let base = run_distributed::<f64>(
            grid,
            6,
            7,
            &c,
            &FdConfig::paper(Approach::HybridMultiple).with_batch(1),
            &map,
        );
        for batch in [2, 3, 6, 100] {
            let other = run_distributed::<f64>(
                grid,
                6,
                7,
                &c,
                &FdConfig::paper(Approach::HybridMultiple).with_batch(batch),
                &map,
            );
            for (a, b) in base.iter().zip(&other) {
                for g in 0..a.len() {
                    assert_eq!(
                        gpaw_grid::norms::max_abs_diff(a.grid(g), b.grid(g)),
                        0.0,
                        "batch {batch} changed the result"
                    );
                }
            }
        }
    }

    #[test]
    fn double_buffer_does_not_change_results() {
        let grid = [12, 10, 8];
        let map = virtual_map(2, grid);
        let c = coef();
        let mut on = FdConfig::paper(Approach::FlatOptimized).with_batch(2);
        on.double_buffer = true;
        let mut off = on;
        off.double_buffer = false;
        let a = run_distributed::<f64>(grid, 5, 9, &c, &on, &map);
        let b = run_distributed::<f64>(grid, 5, 9, &c, &off, &map);
        for (x, y) in a.iter().zip(&b) {
            for g in 0..x.len() {
                assert_eq!(gpaw_grid::norms::max_abs_diff(x.grid(g), y.grid(g)), 0.0);
            }
        }
    }

    #[test]
    fn growing_first_batch_does_not_change_results() {
        let grid = [12, 10, 8];
        let map = smp_map(1, grid);
        let c = coef();
        let mut cfg = FdConfig::paper(Approach::HybridMasterOnly).with_batch(4);
        cfg.growing_first_batch = true;
        check::<f64>(&cfg, &map, grid, 10);
        let _ = c;
    }

    #[test]
    fn single_process_periodic_self_exchange() {
        // One SMP process: every neighbor is itself; the exchange must
        // reproduce fill_halo_periodic semantics.
        let grid = [9, 9, 9];
        let map = smp_map(1, grid);
        let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(2);
        check::<f64>(&cfg, &map, grid, 5);
    }

    #[test]
    fn temporal_blocked_matches_reference() {
        // 4 sweeps fused 2 at a time: two depth-4 ordered exchanges
        // replace four depth-2 ones, bitwise against the reference.
        let grid = [12, 10, 8];
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(2)
            .with_sweeps(4);
        check::<f64>(&cfg, &map, grid, 9);
    }

    #[test]
    fn temporal_blocked_zero_boundary_matches_reference() {
        // Zero BC: the wavefront clamps its extension at no-neighbor
        // faces and forwarded ghost zeros are the correct outside data.
        let grid = [12, 10, 8];
        let map = smp_map(2, grid);
        let mut cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(2)
            .with_sweeps(4);
        cfg.bc = BoundaryCond::Zero;
        check::<f64>(&cfg, &map, grid, 5);
    }

    #[test]
    fn temporal_blocked_single_process_self_exchange() {
        // Every neighbor is the rank itself: the fused ordered exchange
        // must still reproduce periodic wrap semantics.
        let grid = [9, 9, 9];
        let map = smp_map(1, grid);
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(2)
            .with_sweeps(4);
        check::<f64>(&cfg, &map, grid, 5);
    }

    #[test]
    fn temporal_blocked_complex_grids_match_reference() {
        let grid = [10, 10, 10];
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(3)
            .with_sweeps(2);
        check::<C64>(&cfg, &map, grid, 4);
    }

    #[test]
    fn temporal_blocked_prime_sweeps_degrade_to_depth_one() {
        // 3 sweeps have no divisor ≤ 2 except 1: the block degrades
        // gracefully to per-sweep exchange and must still be exact.
        let grid = [12, 10, 8];
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(2)
            .with_sweeps(3);
        assert_eq!(cfg.effective_block(), 1);
        check::<f64>(&cfg, &map, grid, 6);
    }

    #[test]
    fn temporal_blocked_depth_three_matches_reference() {
        // An odd block (3): the wavefront ends in `outputs` and the
        // buffers swap, unlike the even case.
        let grid = [16, 14, 12];
        let map = smp_map(2, grid);
        let cfg = FdConfig::paper(Approach::TemporalBlocked)
            .with_batch(2)
            .with_sweeps(3)
            .with_temporal_depth(3);
        assert_eq!(cfg.effective_block(), 3);
        check::<f64>(&cfg, &map, grid, 5);
    }
}
