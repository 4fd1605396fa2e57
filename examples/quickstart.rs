//! Quickstart: apply the 13-point finite-difference Laplacian to a grid,
//! then run the same operation distributed over 8 simulated MPI ranks with
//! the paper's *Flat optimized* schedule and check the answers agree.
//!
//! Run with: `cargo run --release --example quickstart`

use gpaw_repro::bgp::{CartMap, ExecMode, Partition};
use gpaw_repro::fd::config::{Approach, FdConfig};
use gpaw_repro::fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_repro::grid::grid3::Grid3;
use gpaw_repro::grid::stencil::{apply_sequential, BoundaryCond, StencilCoeffs};

fn main() {
    // --- 1. A single grid and the stencil --------------------------------
    let n = [32, 32, 32];
    let h = [0.25, 0.25, 0.25];
    let coef = StencilCoeffs::laplacian(h);

    // f(x) = sin(2πx/L): the Laplacian must return ≈ −(2π/L)²·f.
    let mut f: Grid3<f64> = Grid3::from_fn(n, 2, |i, _, _| {
        (std::f64::consts::TAU * i as f64 / n[0] as f64).sin()
    });
    let mut lap = Grid3::zeros(n, 2);
    apply_sequential(&coef, &mut f, &mut lap, BoundaryCond::Periodic);

    let k2 = (std::f64::consts::TAU / (n[0] as f64 * h[0])).powi(2);
    let probe = lap.get(5, 0, 0) / f.get(5, 0, 0);
    println!(
        "∇² sin(kx) / sin(kx) = {probe:.6}  (analytic −k² = {:.6})",
        -k2
    );

    // --- 2. The same operator, distributed -------------------------------
    // Two Blue Gene/P nodes in virtual mode = 8 MPI ranks; GPAW picks the
    // surface-minimizing decomposition; every rank gets the same subset of
    // every grid.
    let grid_ext = [24, 24, 24];
    let n_grids = 6;
    let partition = Partition::standard(2, ExecMode::Virtual).expect("2-node partition");
    let map = CartMap::best(partition, grid_ext);
    println!(
        "\nDistributing {n_grids} grids of {}³ over {} ranks ({}), process grid {:?}",
        grid_ext[0],
        map.ranks(),
        partition,
        map.proc_dims
    );

    let cfg = FdConfig::paper(Approach::FlatOptimized).with_batch(3);
    let outputs = run_distributed::<f64>(grid_ext, n_grids, 42, &coef, &cfg, &map);
    let reference = sequential_reference::<f64>(grid_ext, n_grids, 42, &coef, cfg.bc, cfg.sweeps);
    let err = max_error_vs_reference_planned(&outputs, &map, grid_ext, &reference, &cfg);
    println!("max |distributed − sequential| = {err:e}");
    assert_eq!(err, 0.0, "the distributed engine must be bit-exact");
    println!("OK: the distributed halo exchange reproduces the sequential stencil exactly.");
}
