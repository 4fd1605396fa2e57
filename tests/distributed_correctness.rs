//! Cross-crate integration: every programming approach, on real data, must
//! reproduce the sequential whole-grid stencil bit-for-bit, across scalar
//! types, boundary conditions, decompositions and engine options.

use gpaw_repro::bgp::{CartMap, Partition};
use gpaw_repro::fd::config::{Approach, FdConfig};
use gpaw_repro::fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_repro::grid::scalar::C64;
use gpaw_repro::grid::stencil::{BoundaryCond, StencilCoeffs};

fn coef() -> StencilCoeffs {
    StencilCoeffs::laplacian([0.21, 0.25, 0.31])
}

fn map_for(approach: Approach, nodes: usize, grid: [usize; 3]) -> CartMap {
    let p = Partition::standard(nodes, approach.exec_mode()).expect("standard partition");
    CartMap::best(p, grid)
}

fn check_f64(cfg: &FdConfig, nodes: usize, grid: [usize; 3], n_grids: usize) {
    let map = map_for(cfg.approach, nodes, grid);
    let c = coef();
    let outputs = run_distributed::<f64>(grid, n_grids, 1234, &c, cfg, &map);
    let reference = sequential_reference::<f64>(grid, n_grids, 1234, &c, cfg.bc, cfg.sweeps);
    let err = max_error_vs_reference_planned(&outputs, &map, grid, &reference, cfg);
    assert_eq!(err, 0.0, "{} must be bit-exact", cfg.approach.label());
}

#[test]
fn every_approach_every_bc_matches_reference() {
    for approach in Approach::GRAPHED {
        for bc in [BoundaryCond::Periodic, BoundaryCond::Zero] {
            let mut cfg = FdConfig::paper(approach).with_batch(3);
            cfg.bc = bc;
            check_f64(&cfg, 2, [14, 12, 10], 7);
        }
    }
}

#[test]
fn complex_grids_every_approach() {
    for approach in Approach::GRAPHED {
        let cfg = FdConfig::paper(approach).with_batch(2);
        let map = map_for(approach, 2, [12, 12, 12]);
        let c = coef();
        let outputs = run_distributed::<C64>([12, 12, 12], 5, 99, &c, &cfg, &map);
        let reference = sequential_reference::<C64>([12, 12, 12], 5, 99, &c, cfg.bc, cfg.sweeps);
        let err = max_error_vs_reference_planned(&outputs, &map, [12, 12, 12], &reference, &cfg);
        assert_eq!(err, 0.0, "{} complex", approach.label());
    }
}

#[test]
fn prime_extents_stress_remainder_paths() {
    // 13, 11, 17 share no factors with any process grid: every rank border
    // lands off the uniform split.
    for approach in [Approach::FlatOptimized, Approach::HybridMultiple] {
        let cfg = FdConfig::paper(approach).with_batch(4);
        check_f64(&cfg, 2, [13, 11, 17], 6);
    }
}

#[test]
fn repeated_sweeps_compose() {
    for sweeps in [2, 4] {
        let cfg = FdConfig::paper(Approach::HybridMultiple)
            .with_batch(2)
            .with_sweeps(sweeps);
        check_f64(&cfg, 1, [10, 10, 10], 5);
    }
}

#[test]
fn asymmetric_stencil_distributes_correctly() {
    // The general 13-coefficient operator of §II-A, not just the Laplacian:
    // direction-dependent weights exercise the face orientation logic.
    let c = StencilCoeffs {
        c0: 0.5,
        m1: [1.0, -2.0, 0.25],
        p1: [0.0, 3.0, -1.0],
        m2: [0.125, 0.0, 2.0],
        p2: [-0.5, 1.5, 0.0],
    };
    let grid = [12, 10, 8];
    let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(2);
    let map = map_for(cfg.approach, 2, grid);
    let outputs = run_distributed::<f64>(grid, 4, 5, &c, &cfg, &map);
    let reference = sequential_reference::<f64>(grid, 4, 5, &c, cfg.bc, cfg.sweeps);
    assert_eq!(
        max_error_vs_reference_planned(&outputs, &map, grid, &reference, &cfg),
        0.0
    );
}

#[test]
fn four_nodes_bigger_cluster() {
    // 16 virtual ranks / 4 SMP processes.
    check_f64(&FdConfig::paper(Approach::FlatOriginal), 4, [16, 16, 16], 5);
    check_f64(
        &FdConfig::paper(Approach::HybridMasterOnly).with_batch(2),
        4,
        [16, 16, 16],
        5,
    );
}

#[test]
fn single_grid_job() {
    // One grid: the batching/double-buffering edge case.
    for approach in Approach::GRAPHED {
        let cfg = FdConfig::paper(approach).with_batch(8);
        check_f64(&cfg, 1, [10, 10, 10], 1);
    }
}

#[test]
fn grids_fewer_than_threads() {
    // Hybrid multiple with 3 grids over 4 threads: one thread idles.
    let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(2);
    check_f64(&cfg, 1, [10, 10, 10], 3);
}

#[test]
fn smp_partition_of_one_node_self_wraps() {
    // A single SMP process: every neighbor is the rank itself; the
    // fabric must deliver self-sends.
    let cfg = FdConfig::paper(Approach::HybridMultiple).with_batch(2);
    check_f64(&cfg, 1, [9, 9, 9], 4);
}

#[test]
fn uneven_virtual_mode_partition() {
    // 1x1x2 nodes in virtual mode: process grid blocks differ per axis.
    let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(3);
    check_f64(&cfg, 2, [11, 12, 20], 9);
}
