//! Satellite property test for the degradation plane: the
//! gather→re-shard round trip over supported divisor geometries is
//! bitwise, at uneven extents, for every approach — including
//! temporal-blocked depths, where the shrunken map's sub-extents must
//! still admit the depth-4 exchange.
//!
//! The synthetic fill is a pure function of `(global extent, seed, grid
//! id)`, so two different decompositions of the same epoch describe the
//! same global field; gathering either must produce identical global
//! grids, and re-sharding those onto *any* supported layout must equal
//! that layout's direct fill bit-for-bit (NaN payloads and signed zeros
//! included).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_fd::checkpoint::{gather_epoch, reshard_epoch, shard_layout, RegridError, ShardSpec};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::plan::decomposition_supports;
use gpaw_fd::{compile_rank, Approach, FdConfig, RankPlan, SnapshotRecord, SweepProgram};
use gpaw_grid::decomp::Subdomain;
use gpaw_grid::grid3::Grid3;

/// Uneven on every axis: no candidate geometry divides these evenly, so
/// the remainder-distribution arithmetic is exercised everywhere.
const GRID_EXT: [usize; 3] = [13, 11, 9];
const N_GRIDS: usize = 6;
const SWEEPS: usize = 4;

struct Geo {
    cfg: FdConfig,
    programs: Vec<Vec<SweepProgram>>,
    nodes: usize,
}

/// Compile every rank's programs for `approach` at `nodes`, or `None`
/// when the node count / thread split / decomposition is unsupported —
/// exactly the filter the degradation plane applies to shrink targets.
fn geo_for(approach: Approach, nodes: usize) -> Option<Geo> {
    let part = Partition::standard(nodes, approach.exec_mode())?;
    let map = CartMap::best(part, GRID_EXT);
    let threads = match approach {
        Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => 4,
        _ => 1,
    };
    map.cores_per_thread(threads).ok()?;
    let cfg = FdConfig::paper(approach).with_sweeps(SWEEPS);
    if !decomposition_supports(&map, GRID_EXT, &cfg) {
        return None;
    }
    let programs = (0..map.ranks())
        .map(|r| {
            let plan = RankPlan::for_rank(&map, GRID_EXT, r, 8, &cfg);
            compile_rank(&cfg, &map, &plan, N_GRIDS, threads)
        })
        .collect();
    Some(Geo {
        cfg,
        programs,
        nodes,
    })
}

/// `records` as the borrowed `(rank, slot, grids)` a gather reads.
fn parts(records: &[SnapshotRecord<f64>]) -> impl Iterator<Item = (usize, usize, &[Grid3<f64>])> {
    records.iter().map(|r| (r.rank, r.slot, r.grids.as_slice()))
}

/// Each shard's grids filled directly from the global synthetic field —
/// what a run's epoch-0 state looks like on this geometry.
fn filled_records(layout: &[ShardSpec], halo: usize, seed: u64) -> Vec<SnapshotRecord<f64>> {
    layout
        .iter()
        .map(|spec| {
            let grids = spec
                .grid_ids
                .iter()
                .map(|&id| {
                    let mut g = Grid3::<f64>::zeros(spec.sub.ext, halo);
                    f64::fill(&mut g, &spec.sub, GRID_EXT, seed, id);
                    g
                })
                .collect();
            SnapshotRecord {
                rank: spec.rank,
                slot: spec.slot,
                grids,
            }
        })
        .collect()
}

fn interior_bits(g: &Grid3<f64>) -> Vec<u64> {
    g.iter_interior().map(|(_, v)| v.to_bits()).collect()
}

#[test]
fn gather_reshard_round_trip_is_bitwise_across_geometries() {
    let seed = 42;
    for &approach in &Approach::ALL {
        let geos: Vec<Geo> = [1, 2, 4, 8]
            .iter()
            .filter_map(|&n| geo_for(approach, n))
            .collect();
        assert!(
            geos.len() >= 2,
            "{approach:?}: need ≥2 supported geometries to cross-check"
        );
        if approach == Approach::TemporalBlocked {
            assert_eq!(
                geos[0].cfg.halo_depth(),
                4,
                "temporal blocking must be tested at its widened depth"
            );
        }
        // The whole-domain fill is the reference every gather must hit.
        let mut reference: Vec<Grid3<f64>> = Vec::new();
        let whole = Subdomain {
            start: [0; 3],
            ext: GRID_EXT,
        };
        for id in 0..N_GRIDS {
            let mut g = Grid3::<f64>::zeros(GRID_EXT, 2);
            f64::fill(&mut g, &whole, GRID_EXT, seed, id);
            reference.push(g);
        }
        for geo in &geos {
            let halo = geo.cfg.halo_depth();
            let layout = shard_layout(&geo.programs);
            let records = filled_records(&layout, halo, seed);
            let global = gather_epoch(parts(&records), &layout, GRID_EXT, N_GRIDS, halo)
                .unwrap_or_else(|e| panic!("{approach:?} @{} nodes: {e}", geo.nodes));
            for (id, g) in global.iter().enumerate() {
                assert_eq!(
                    interior_bits(g),
                    interior_bits(&reference[id]),
                    "{approach:?} @{} nodes: gathered grid {id} diverges from the global fill",
                    geo.nodes
                );
            }
            // Re-shard onto every *other* geometry: the records must be
            // bit-identical to that geometry's own direct fill.
            for other in &geos {
                if other.nodes == geo.nodes {
                    continue;
                }
                let ohalo = other.cfg.halo_depth();
                let olayout = shard_layout(&other.programs);
                let resharded = reshard_epoch(&global, &olayout, ohalo);
                let direct = filled_records(&olayout, ohalo, seed);
                assert_eq!(resharded.len(), direct.len());
                for (a, b) in resharded.iter().zip(&direct) {
                    assert_eq!((a.rank, a.slot), (b.rank, b.slot));
                    assert_eq!(a.grids.len(), b.grids.len());
                    for (ga, gb) in a.grids.iter().zip(&b.grids) {
                        assert_eq!(ga.n(), gb.n());
                        assert_eq!(
                            interior_bits(ga),
                            interior_bits(gb),
                            "{approach:?}: re-shard {}→{} nodes is not bitwise",
                            geo.nodes,
                            other.nodes
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn adversarial_bit_patterns_survive_the_round_trip() {
    // NaN payloads and signed zeros — the values any lossy re-grid
    // (interpolation, summation reorder) would destroy.
    let geo_a = geo_for(Approach::TemporalBlocked, 2).expect("2 nodes supported");
    let geo_b = geo_for(Approach::TemporalBlocked, 1).expect("1 node supported");
    let halo_a = geo_a.cfg.halo_depth();
    let layout_a = shard_layout(&geo_a.programs);
    let records = filled_records(&layout_a, halo_a, 7);
    let mut global = gather_epoch(parts(&records), &layout_a, GRID_EXT, N_GRIDS, halo_a).unwrap();
    for (id, g) in global.iter_mut().enumerate() {
        g.set(0, 0, 0, f64::from_bits(0x7ff8_0000_0000_0000 | id as u64));
        g.set(1, 2, 3, -0.0);
        g.set(
            (GRID_EXT[0] - 1) as isize,
            (GRID_EXT[1] - 1) as isize,
            (GRID_EXT[2] - 1) as isize,
            f64::from_bits(0xfff8_dead_beef_0000),
        );
    }
    let halo_b = geo_b.cfg.halo_depth();
    let layout_b = shard_layout(&geo_b.programs);
    let resharded = reshard_epoch(&global, &layout_b, halo_b);
    let back = gather_epoch(parts(&resharded), &layout_b, GRID_EXT, N_GRIDS, halo_b).unwrap();
    for (a, b) in global.iter().zip(&back) {
        assert_eq!(interior_bits(a), interior_bits(b));
    }
}

#[test]
fn gather_rejects_missing_and_miscovered_records() {
    let geo = geo_for(Approach::FlatOptimized, 1).expect("1 node supported");
    let halo = geo.cfg.halo_depth();
    let layout = shard_layout(&geo.programs);
    let mut records = filled_records(&layout, halo, 3);
    let dropped = records.pop().unwrap();
    match gather_epoch(parts(&records), &layout, GRID_EXT, N_GRIDS, halo) {
        Err(RegridError::MissingRecord { rank, slot }) => {
            assert_eq!((rank, slot), (dropped.rank, dropped.slot));
        }
        other => panic!("expected MissingRecord, got {other:?}"),
    }
    // A layout that skips one shard leaves grids under-covered.
    let partial = &layout[..layout.len() - 1];
    let full = filled_records(&layout, halo, 3);
    match gather_epoch(parts(&full), partial, GRID_EXT, N_GRIDS, halo) {
        Err(RegridError::Uncovered {
            covered, points, ..
        }) => assert!(covered < points),
        other => panic!("expected Uncovered, got {other:?}"),
    }
}

#[test]
fn decomposition_supports_rejects_sub_halo_extents() {
    // 8 Smp nodes cut [13, 11, 9] into sub-extents as small as 4 — fine
    // for the depth-2 exchange, and exactly at the limit for temporal
    // blocking's depth-4. A finer virtual-mode cut must be rejected for
    // a deep-halo config without panicking.
    let part = Partition::standard(8, gpaw_bgp_hw::ExecMode::Virtual).unwrap();
    let map = CartMap::best(part, [16, 16, 16]);
    let shallow = FdConfig::paper(Approach::FlatOptimized).with_sweeps(SWEEPS);
    // 32 ranks over 16³: the fine cut still admits depth 2...
    assert!(decomposition_supports(&map, [16, 16, 16], &shallow));
    // ...but not a depth-4 temporal-blocked exchange (sub-extents < 4),
    // and not a grid so small the cut leaves sub-halo slivers.
    let deep = FdConfig::paper(Approach::TemporalBlocked).with_sweeps(SWEEPS);
    assert_eq!(deep.halo_depth(), 4);
    assert!(!decomposition_supports(&map, [8, 8, 8], &deep));
    assert!(!decomposition_supports(&map, [4, 4, 4], &shallow));
}
