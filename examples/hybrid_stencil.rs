//! All four programming approaches of the paper, run *functionally* (real
//! threads, real messages, real arithmetic) on the same workload, verified
//! bit-identical to the sequential reference — and then timed on the
//! simulated Blue Gene/P at 16 384 cores to show why the paper prefers
//! *Hybrid multiple*.
//!
//! Run with: `cargo run --release --example hybrid_stencil`

use gpaw_repro::bgp::{CartMap, CostModel, Partition};
use gpaw_repro::fd::config::{Approach, FdConfig};
use gpaw_repro::fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_repro::fd::timed::{run_timed, ScopeSel, TimedJob};
use gpaw_repro::grid::stencil::StencilCoeffs;

fn main() {
    let grid_ext = [20, 20, 20];
    let n_grids = 8;
    let coef = StencilCoeffs::laplacian([0.3; 3]);

    println!("== Functional plane: 2 nodes, every approach vs the sequential reference ==");
    for approach in Approach::GRAPHED {
        let cfg = FdConfig::paper(approach).with_batch(2);
        let partition = Partition::standard(2, approach.exec_mode()).expect("2 nodes");
        let map = CartMap::best(partition, grid_ext);
        let outputs = run_distributed::<f64>(grid_ext, n_grids, 7, &coef, &cfg, &map);
        let reference =
            sequential_reference::<f64>(grid_ext, n_grids, 7, &coef, cfg.bc, cfg.sweeps);
        let err = max_error_vs_reference_planned(&outputs, &map, grid_ext, &reference, &cfg);
        println!(
            "  {:<20} {} processes x {} threads  -> max error {err:e}",
            approach.label(),
            map.ranks(),
            partition.threads_per_process(),
        );
        assert_eq!(err, 0.0);
    }

    println!("\n== Timed plane: the paper's headline job at 16 384 cores ==");
    let model = CostModel::bgp();
    let mut rows = Vec::new();
    for approach in Approach::GRAPHED {
        let job = TimedJob {
            cores: 16_384,
            grid_ext: [192, 192, 192],
            n_grids: 2816,
            bytes_per_point: 8,
            config: FdConfig::paper(approach).with_batch(32),
        };
        let r = run_timed(&job, &model, ScopeSel::Auto);
        rows.push((approach, r));
    }
    let orig = rows[0].1.seconds();
    for (a, r) in &rows {
        println!(
            "  {:<20} {:>9.3} ms   {:>5.2}x vs Flat original",
            a.label(),
            r.seconds() * 1e3,
            orig / r.seconds()
        );
    }
    println!("\n(The paper's §VIII: hybrid multiple is 94% faster than the original.)");
}
