//! The shared sweep plan both execution planes consume.
//!
//! A plan answers, for one rank (and thread): which subdomain do I own,
//! who are my six neighbors (if any — zero-boundary edges have none),
//! which grids do I handle, how are they batched, and how many bytes does
//! one face message carry. The functional executor moves real data along
//! this plan; the timed executor charges simulated time for exactly the
//! same message/compute sequence.

use crate::config::{Approach, FdConfig};
use gpaw_bgp_hw::topology::{Axis, Dir, LinkDir};
use gpaw_bgp_hw::CartMap;
use gpaw_grid::decomp::{Decomposition, Subdomain};
use gpaw_grid::stencil::{BoundaryCond, StencilCoeffs};

/// An arithmetic sequence of grid indices: the grids one thread handles.
///
/// Kept implicit (`first + i·stride`) so plans stay O(1) in memory even for
/// the 16 384-grid Gustafson jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridAssignment {
    /// First global grid index.
    pub first: usize,
    /// Step between consecutive grids.
    pub stride: usize,
    /// Number of grids.
    pub count: usize,
}

impl GridAssignment {
    /// Every grid `0..n`.
    pub fn all(n: usize) -> GridAssignment {
        GridAssignment {
            first: 0,
            stride: 1,
            count: n,
        }
    }

    /// The round-robin share of thread `t` of `threads` over `n` grids —
    /// the *hybrid multiple* distribution (whole grids per thread).
    pub fn round_robin(n: usize, t: usize, threads: usize) -> GridAssignment {
        assert!(t < threads);
        GridAssignment {
            first: t,
            stride: threads,
            count: n.saturating_sub(t).div_ceil(threads),
        }
    }

    /// The `i`-th grid's global index.
    pub fn id(&self, i: usize) -> usize {
        debug_assert!(i < self.count);
        self.first + i * self.stride
    }

    /// Materialize the indices (functional plane, small jobs).
    pub fn ids(&self) -> Vec<usize> {
        (0..self.count).map(|i| self.id(i)).collect()
    }
}

/// Batch boundaries over a [`GridAssignment`], stored as index ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batches {
    ranges: Vec<(usize, usize)>,
}

impl Batches {
    /// Cut `count` grids into batches per the config (§V-A): fixed size, or
    /// with a half-size first batch when `growing_first_batch` is set.
    pub fn build(count: usize, cfg: &FdConfig) -> Batches {
        let batch = cfg.effective_batch();
        let mut ranges = Vec::new();
        let mut start = 0;
        if cfg.growing_first_batch && cfg.approach != Approach::FlatOriginal && count > batch {
            let initial = (batch / 2).max(1);
            ranges.push((0, initial));
            start = initial;
        }
        while start < count {
            let end = (start + batch).min(count);
            ranges.push((start, end));
            start = end;
        }
        if ranges.is_empty() {
            ranges.push((0, 0));
        }
        Batches { ranges }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when there are no batches.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Index range `(start, end)` of batch `b`.
    pub fn range(&self, b: usize) -> (usize, usize) {
        self.ranges[b]
    }

    /// Grids in batch `b`.
    pub fn size(&self, b: usize) -> usize {
        let (s, e) = self.ranges[b];
        e - s
    }
}

/// The message tag for a face exchange: unique per (sweep, batch, travel
/// direction). The batch is identified by the global index of its first
/// grid, which sender and receiver agree on because the grid→thread
/// assignment is SPMD-identical on every rank.
pub fn message_tag(sweep: usize, first_grid: usize, dir: LinkDir) -> u64 {
    ((sweep as u64) << 40) | ((first_grid as u64) << 3) | dir.index() as u64
}

/// The sweep a tag belongs to — the inverse of [`message_tag`]'s sweep
/// field. Recovery uses this to decide, per `(dst, src, tag)` queue,
/// whether a message belongs to a committed epoch (sweeps `< epoch` are
/// already reflected in the checkpointed grids) or to a rolled-back one.
pub fn sweep_of_tag(tag: u64) -> usize {
    (tag >> 40) as usize
}

/// The tag a sender stamps on the face it pushes out through `ld`.
///
/// Tags are keyed by *travel* direction, and a message sent through a
/// rank's `ld` face travels in the `ld` direction, so this is just
/// [`message_tag`] — named so call sites read as a send/recv pair.
pub fn send_tag(sweep: usize, first_grid: usize, ld: LinkDir) -> u64 {
    message_tag(sweep, first_grid, ld)
}

/// The tag a receiver matches on its `ld` face.
///
/// A message arriving *at* the `ld` face travelled in the opposite
/// direction (the neighbor sent through its own `ld.opposite()` face…
/// which travels toward us), so the receiver flips the direction before
/// deriving the tag. Every plane must use this one helper — re-deriving
/// the flip at call sites is how send/recv mismatches are born.
pub fn recv_tag(sweep: usize, first_grid: usize, ld: LinkDir) -> u64 {
    let travel = LinkDir {
        axis: ld.axis,
        dir: ld.dir.opposite(),
    };
    message_tag(sweep, first_grid, travel)
}

/// The wait epoch of one `(sweep, batch)` exchange: a monotone counter
/// all planes agree on, used by the timed plane's `WaitEpoch`
/// instructions and by trace grouping.
pub fn exchange_epoch(sweep: usize, batch: usize, n_batches: usize) -> u32 {
    (sweep * n_batches + batch) as u32
}

/// The grids a whole *rank* owns data for under the approach.
///
/// Every approach except `FlatStatic` replicates all grids on every rank
/// (they differ only in which *thread* communicates each grid — see
/// [`RankPlan::assignment`]). `FlatStatic` instead splits the wavefunction
/// set into four static groups by core index: each virtual rank holds —
/// and sweeps — only a quarter of the grids.
pub fn rank_assignment(
    approach: Approach,
    n_grids: usize,
    map: &CartMap,
    rank: usize,
) -> GridAssignment {
    match approach {
        Approach::FlatStatic => GridAssignment::round_robin(n_grids, map.core_of(rank), 4),
        _ => GridAssignment::all(n_grids),
    }
}

/// One rank's communication geometry.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Global rank.
    pub rank: usize,
    /// The subdomain this rank owns (of every grid).
    pub sub: Subdomain,
    /// Neighbor rank per directed face (`LinkDir::index()` order); `None`
    /// at a non-periodic global edge.
    pub neighbors: [Option<usize>; 6],
    /// Face points per grid per side, by axis: `exchange depth ×
    /// cross-section area`, where a temporal-blocked exchange widens the
    /// cross-section of later axes by the depth on each earlier axis (the
    /// ordered exchange that fills edge and corner ghosts).
    pub face_points: [usize; 3],
    /// Bytes per grid point.
    pub bytes_per_point: usize,
    /// Exchange depth: ghost planes filled per face per exchange
    /// (`cfg.halo_depth()` — the stencil halo times the fused block).
    pub halo: usize,
    /// Sweeps fused per exchange (`cfg.effective_block()`).
    pub block: usize,
}

impl RankPlan {
    /// Build the plan for `rank` under `cfg.approach`.
    ///
    /// Flat approaches decompose over the full (virtual-mode) process grid;
    /// the hybrid approaches and `FlatStatic` decompose at node granularity
    /// — 4× coarser, the paper's key structural difference.
    pub fn for_rank(
        map: &CartMap,
        grid_ext: [usize; 3],
        rank: usize,
        bytes_per_point: usize,
        cfg: &FdConfig,
    ) -> RankPlan {
        let halo = cfg.halo_depth();
        let block = cfg.effective_block();
        debug_assert!(halo >= StencilCoeffs::HALO);
        let (sub, neighbors) = if cfg.approach == Approach::FlatStatic {
            // Node-level decomposition; neighbors are the same core on the
            // adjacent node (proc-coordinate step of one node block).
            let node_dims = map.partition.node_shape.dims;
            let decomp = Decomposition::new(grid_ext, node_dims);
            let node = map.node_of(rank);
            let sub = decomp.subdomain(node.0);
            let pc = map.proc_coord(rank);
            let shape = map.proc_shape();
            let mut neighbors = [None; 6];
            for ld in LinkDir::ALL {
                if at_zero_edge(cfg.bc, node.0, node_dims, ld) {
                    continue;
                }
                let step = map.block[ld.axis.index()];
                let mut c = pc;
                let dim = shape.dims[ld.axis.index()];
                let v = c.get(ld.axis);
                let nv = match ld.dir {
                    Dir::Plus => (v + step) % dim,
                    Dir::Minus => (v + dim - step) % dim,
                };
                c = c.with(ld.axis, nv);
                neighbors[ld.index()] = Some(map.rank_of(c));
            }
            (sub, neighbors)
        } else {
            let decomp = Decomposition::new(grid_ext, map.proc_dims);
            let pc = map.proc_coord(rank);
            let sub = decomp.subdomain(pc.0);
            let mut neighbors = [None; 6];
            for ld in LinkDir::ALL {
                if at_zero_edge(cfg.bc, pc.0, map.proc_dims, ld) {
                    continue;
                }
                neighbors[ld.index()] = Some(map.neighbor_rank(rank, ld.axis, ld.dir));
            }
            (sub, neighbors)
        };
        for d in 0..3 {
            assert!(
                sub.ext[d] >= halo,
                "rank {rank}: sub-extent {} along axis {d} is shallower than the stencil halo",
                sub.ext[d]
            );
        }
        // A fused (block > 1) exchange runs the axes in order and widens
        // each later axis's cross-section by the depth on the earlier
        // axes, forwarding the just-received ghosts so edge and corner
        // ghost boxes fill without diagonal messages.
        let wide = if block > 1 { halo } else { 0 };
        let face_points = [
            halo * sub.ext[1] * sub.ext[2],
            halo * (sub.ext[0] + 2 * wide) * sub.ext[2],
            halo * (sub.ext[0] + 2 * wide) * (sub.ext[1] + 2 * wide),
        ];
        RankPlan {
            rank,
            sub,
            neighbors,
            face_points,
            bytes_per_point,
            halo,
            block,
        }
    }

    /// Cross-section widening of one face exchange along `axis`: ghost
    /// planes included per other axis. Zero everywhere for depth-1
    /// exchanges; for fused exchanges, `halo` on every axis exchanged
    /// *before* `axis`.
    pub fn exchange_wide(&self, axis: Axis) -> [usize; 3] {
        let mut wide = [0; 3];
        if self.block > 1 {
            for w in wide.iter_mut().take(axis.index()) {
                *w = self.halo;
            }
        }
        wide
    }

    /// Bytes of one face message carrying `batch` grids along `axis`.
    pub fn msg_bytes(&self, axis: Axis, batch: usize) -> u64 {
        (self.face_points[axis.index()] * batch * self.bytes_per_point) as u64
    }

    /// The grids handled by thread `t` (communication-wise) under the
    /// approach.
    pub fn assignment(
        approach: Approach,
        n_grids: usize,
        map: &CartMap,
        rank: usize,
        t: usize,
        threads: usize,
    ) -> GridAssignment {
        match approach {
            Approach::HybridMultiple | Approach::TemporalBlocked => {
                GridAssignment::round_robin(n_grids, t, threads)
            }
            Approach::FlatStatic => GridAssignment::round_robin(n_grids, map.core_of(rank), 4),
            _ => GridAssignment::all(n_grids),
        }
    }
}

/// Whether `map` can legally decompose `grid_ext` under `cfg` — the
/// panicking geometry asserts of [`RankPlan::for_rank`] and
/// `Decomposition::new`, asked as a question. Every geometry a native run
/// (or a shrink candidate) resolves must pass this before any program is
/// compiled for it: every axis needs at least one plane per part, and the
/// *smallest* sub-extent
/// (the floor share) must still admit the exchange depth
/// (`cfg.halo_depth()` — the stencil halo times the fused block, so a
/// temporal-blocked shrink is checked against its widened ghosts).
pub fn decomposition_supports(map: &CartMap, grid_ext: [usize; 3], cfg: &FdConfig) -> bool {
    decomposition_shortfall(map, grid_ext, cfg).is_none()
}

/// Why [`decomposition_supports`] says no: the first axis whose smallest
/// sub-extent (the floor share — 0 when the axis has more parts than
/// planes) is shallower than `cfg.halo_depth()`, as `(axis, sub_extent)`.
/// `None` when every axis admits the exchange depth.
pub fn decomposition_shortfall(
    map: &CartMap,
    grid_ext: [usize; 3],
    cfg: &FdConfig,
) -> Option<(usize, usize)> {
    let parts = if cfg.approach == Approach::FlatStatic {
        map.partition.node_shape.dims
    } else {
        map.proc_dims
    };
    (0..3)
        .map(|d| (d, grid_ext[d].checked_div(parts[d]).unwrap_or(0)))
        .find(|&(_, sub)| sub < cfg.halo_depth())
}

/// True when the face `ld` of position `pc` in a `dims` grid lies on a
/// non-periodic global edge.
fn at_zero_edge(bc: BoundaryCond, pc: [usize; 3], dims: [usize; 3], ld: LinkDir) -> bool {
    if bc == BoundaryCond::Periodic {
        return false;
    }
    let a = ld.axis.index();
    match ld.dir {
        Dir::Minus => pc[a] == 0,
        Dir::Plus => pc[a] == dims[a] - 1,
    }
}

/// Convenience: coordinates to cut one subdomain's x extent into `parts`
/// slabs — master-only's per-thread compute shares.
pub fn slab_share(sub: &Subdomain, t: usize, parts: usize) -> (u64, u64) {
    let bounds = gpaw_grid::stencil::slab_bounds(sub.ext[0], parts);
    if t + 1 >= bounds.len() {
        return (0, 0);
    }
    let planes = (bounds[t + 1] - bounds[t]) as u64;
    let points = planes * (sub.ext[1] * sub.ext[2]) as u64;
    let rows = planes * sub.ext[1] as u64;
    (points, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_bgp_hw::{ExecMode, Partition};

    fn cfg(approach: Approach) -> FdConfig {
        FdConfig::paper(approach)
    }

    #[test]
    fn assignment_round_robin_partitions() {
        let n = 10;
        let mut seen = vec![0u32; n];
        for t in 0..4 {
            let a = GridAssignment::round_robin(n, t, 4);
            for id in a.ids() {
                seen[id] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        assert_eq!(GridAssignment::round_robin(10, 3, 4).count, 2);
        assert_eq!(GridAssignment::round_robin(3, 3, 4).count, 0);
    }

    #[test]
    fn batches_fixed_and_growing() {
        let c = cfg(Approach::FlatOptimized).with_batch(8);
        let b = Batches::build(20, &c);
        assert_eq!(b.len(), 3);
        assert_eq!(b.range(0), (0, 8));
        assert_eq!(b.size(2), 4);

        let mut g = c;
        g.growing_first_batch = true;
        let b = Batches::build(20, &g);
        assert_eq!(b.range(0), (0, 4)); // half-size head
        assert_eq!(b.range(1), (4, 12));
        let total: usize = (0..b.len()).map(|i| b.size(i)).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn tags_are_unique_per_batch_and_direction() {
        use std::collections::HashSet;
        let mut tags = HashSet::new();
        for sweep in 0..3 {
            for first in [0usize, 8, 16, 131_000] {
                for ld in LinkDir::ALL {
                    assert!(tags.insert(message_tag(sweep, first, ld)));
                }
            }
        }
    }

    #[test]
    fn sweep_of_tag_inverts_message_tag() {
        for sweep in [0usize, 1, 5, 1000] {
            for first in [0usize, 8, 131_000] {
                for ld in LinkDir::ALL {
                    assert_eq!(sweep_of_tag(message_tag(sweep, first, ld)), sweep);
                }
            }
        }
    }

    #[test]
    fn recv_tag_matches_the_neighbors_send_tag() {
        // A message leaving the neighbor through its `opposite(ld)` face
        // arrives at our `ld` face; both sides must derive the same tag.
        for sweep in 0..3 {
            for first in [0usize, 7, 131_000] {
                for ld in LinkDir::ALL {
                    let opp = LinkDir {
                        axis: ld.axis,
                        dir: ld.dir.opposite(),
                    };
                    assert_eq!(recv_tag(sweep, first, ld), send_tag(sweep, first, opp));
                }
            }
        }
    }

    #[test]
    fn rank_assignment_splits_grids_only_for_flat_static() {
        let p = Partition::standard(8, ExecMode::Virtual).unwrap();
        let map = CartMap::best(p, [32, 32, 32]);
        let full = rank_assignment(Approach::FlatOptimized, 10, &map, 3);
        assert_eq!(full, GridAssignment::all(10));
        // Flat static gives each virtual rank its core's quarter of the
        // set; the four cores of any node jointly cover every grid once
        // (the partition property itself is covered by the round-robin
        // test above).
        let mut seen = [0u32; 10];
        let mut cores_met = std::collections::HashSet::new();
        for rank in 0..map.ranks() {
            let core = map.core_of(rank);
            if !cores_met.insert(core) {
                continue;
            }
            let a = rank_assignment(Approach::FlatStatic, 10, &map, rank);
            assert_eq!(a, GridAssignment::round_robin(10, core, 4));
            for id in a.ids() {
                seen[id] += 1;
            }
        }
        assert_eq!(cores_met.len(), 4);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn flat_plan_uses_full_process_grid() {
        let p = Partition::standard(512, ExecMode::Virtual).unwrap();
        let map = CartMap::best(p, [192, 192, 192]);
        let plan = RankPlan::for_rank(&map, [192, 192, 192], 0, 8, &cfg(Approach::FlatOptimized));
        // 2048 ranks ⇒ sub-volume 192³/2048 = 3456 points.
        assert_eq!(plan.sub.points(), 192 * 192 * 192 / 2048);
        assert!(plan.neighbors.iter().all(Option::is_some));
    }

    #[test]
    fn hybrid_plan_is_four_times_coarser() {
        let grid = [192, 192, 192];
        let pv = Partition::standard(512, ExecMode::Virtual).unwrap();
        let flat = RankPlan::for_rank(
            &CartMap::best(pv, grid),
            grid,
            0,
            8,
            &cfg(Approach::FlatOptimized),
        );
        let ps = Partition::standard(512, ExecMode::Smp).unwrap();
        let hyb = RankPlan::for_rank(
            &CartMap::best(ps, grid),
            grid,
            0,
            8,
            &cfg(Approach::HybridMultiple),
        );
        assert_eq!(hyb.sub.points(), 4 * flat.sub.points());
        // Per-grid halo surface of the hybrid sub-grid is smaller than the
        // four flat sub-grids it replaces — the paper's whole point.
        let flat_surface = 4 * flat.sub.halo_surface_points(2);
        let hyb_surface = hyb.sub.halo_surface_points(2);
        assert!(
            hyb_surface < flat_surface,
            "hybrid {hyb_surface} vs flat {flat_surface}"
        );
    }

    #[test]
    fn flat_static_matches_hybrid_granularity() {
        let grid = [192, 192, 192];
        let p = Partition::standard(512, ExecMode::Virtual).unwrap();
        let map = CartMap::best(p, grid);
        let plan = RankPlan::for_rank(&map, grid, 5, 8, &cfg(Approach::FlatStatic));
        // Node-level decomposition: 512 nodes ⇒ 192³/512 points.
        assert_eq!(plan.sub.points(), 192 * 192 * 192 / 512);
        // Neighbors exist and are single-node steps away.
        for (i, nb) in plan.neighbors.iter().enumerate() {
            let nb = nb.expect("periodic plan has all neighbors");
            let ld = LinkDir::ALL[i];
            // Same core on the neighboring node.
            assert_eq!(map.core_of(nb), map.core_of(5), "dir {ld:?}");
            assert_ne!(nb, 5);
        }
    }

    #[test]
    fn zero_bc_drops_edge_neighbors() {
        let p = Partition::standard(8, ExecMode::Smp).unwrap();
        let map = CartMap::new(p, [2, 2, 2]).unwrap();
        let mut c = cfg(Approach::HybridMultiple);
        c.bc = BoundaryCond::Zero;
        let plan = RankPlan::for_rank(&map, [16, 16, 16], 0, 8, &c);
        // Rank 0 sits at the low corner: three Minus faces are global edges.
        let missing = plan.neighbors.iter().filter(|n| n.is_none()).count();
        assert_eq!(missing, 3);
        // In a 2-wide grid every Plus neighbor exists.
        for ld in LinkDir::ALL {
            if ld.dir == Dir::Plus {
                assert!(plan.neighbors[ld.index()].is_some());
            }
        }
    }

    #[test]
    fn message_sizes_follow_face_geometry() {
        let p = Partition::standard(8, ExecMode::Smp).unwrap();
        let map = CartMap::new(p, [2, 2, 2]).unwrap();
        let plan = RankPlan::for_rank(&map, [8, 12, 16], 0, 8, &cfg(Approach::HybridMultiple));
        assert_eq!(plan.sub.ext, [4, 6, 8]);
        assert_eq!(plan.face_points, [2 * 6 * 8, 2 * 4 * 8, 2 * 4 * 6]);
        assert_eq!(plan.msg_bytes(Axis::X, 3), (2 * 6 * 8 * 3 * 8) as u64);
    }

    #[test]
    fn slab_shares_sum_to_subdomain() {
        let sub = Subdomain {
            start: [0; 3],
            ext: [10, 6, 7],
        };
        let total: u64 = (0..4).map(|t| slab_share(&sub, t, 4).0).sum();
        assert_eq!(total, sub.points() as u64);
    }

    #[test]
    fn fused_tags_land_on_block_boundaries() {
        // A temporal-blocked run tags every message with its block's base
        // sweep — always a multiple of the block — so `sweep_of_tag` maps
        // any in-flight message to a valid resume epoch.
        let block = 2;
        let sweeps = 8;
        for base in (0..sweeps).step_by(block) {
            for ld in LinkDir::ALL {
                let tag = message_tag(base, 4, ld);
                assert_eq!(sweep_of_tag(tag), base);
                assert_eq!(sweep_of_tag(tag) % block, 0, "base sweep off-block");
            }
        }
        // The fused epochs are strictly monotone across block boundaries
        // even though intermediate sweep values are skipped.
        let n_batches = 3;
        let mut last = None;
        for base in (0..sweeps).step_by(block) {
            for b in 0..n_batches {
                let e = exchange_epoch(base, b, n_batches);
                if let Some(prev) = last {
                    assert!(e > prev, "epoch not monotone at sweep {base} batch {b}");
                }
                last = Some(e);
            }
        }
        // The final block's epoch stays below the next run's first epoch.
        assert!(
            exchange_epoch(sweeps - block, n_batches - 1, n_batches)
                < exchange_epoch(sweeps, 0, n_batches)
        );
    }

    #[test]
    fn temporal_blocked_plan_widens_later_axes() {
        let p = Partition::standard(8, ExecMode::Smp).unwrap();
        let map = CartMap::new(p, [2, 2, 2]).unwrap();
        let c = cfg(Approach::TemporalBlocked).with_sweeps(4);
        assert_eq!(c.effective_block(), 2);
        let plan = RankPlan::for_rank(&map, [16, 16, 16], 0, 8, &c);
        let h = c.halo_depth();
        assert_eq!(h, 4);
        assert_eq!(plan.halo, 4);
        assert_eq!(plan.block, 2);
        assert_eq!(plan.sub.ext, [8, 8, 8]);
        // Axis 0 exchanges first (interior cross-section); axis 1 carries
        // axis 0's ghosts; axis 2 carries both.
        assert_eq!(
            plan.face_points,
            [
                h * 8 * 8,
                h * (8 + 2 * h) * 8,
                h * (8 + 2 * h) * (8 + 2 * h)
            ]
        );
        assert_eq!(plan.exchange_wide(Axis::X), [0, 0, 0]);
        assert_eq!(plan.exchange_wide(Axis::Y), [h, 0, 0]);
        assert_eq!(plan.exchange_wide(Axis::Z), [h, h, 0]);
        // A depth-1 plan keeps the classic face geometry and no widening.
        let hm = RankPlan::for_rank(
            &map,
            [16, 16, 16],
            0,
            8,
            &cfg(Approach::HybridMultiple).with_sweeps(4),
        );
        assert_eq!(hm.halo, 2);
        assert_eq!(hm.block, 1);
        assert_eq!(hm.exchange_wide(Axis::Z), [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "shallower than the stencil halo")]
    fn too_fine_decomposition_is_rejected() {
        let p = Partition::standard(512, ExecMode::Virtual).unwrap();
        let map = CartMap::best(p, [16, 16, 16]);
        // 2048 ranks over a 16³ grid ⇒ sub-extents of 1 < halo depth 2.
        let _ = RankPlan::for_rank(&map, [16, 16, 16], 0, 8, &cfg(Approach::FlatOptimized));
    }
}
