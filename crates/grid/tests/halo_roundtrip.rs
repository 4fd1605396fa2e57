//! Property-style round-trip tests for the halo pack/unpack pair.
//!
//! The property: decompose a periodic global grid over an *asymmetric*
//! process grid, exchange every one of the six faces between neighbors
//! (wrapping at the edges), and every rank's face-ghost cell must equal the
//! value the periodic global grid holds at that point. Pack and unpack are
//! exercised as the inverse pair they are meant to be — for every axis,
//! both sides, uneven extents, remainder-carrying subdomains, and
//! single-rank self-exchange.

use gpaw_grid::decomp::Decomposition;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::halo::{
    face_points_region, pack_batch_region, pack_face_region, unpack_batch_region,
    unpack_face_region, Side,
};

const HALO: usize = 2;
/// No cross-section widening: the plain face of a star exchange.
const FLAT: [usize; 3] = [0; 3];

/// A unique, order-sensitive value per global point (and per grid).
fn global_value(grid: usize, i: usize, j: usize, k: usize) -> f64 {
    // Small enough to stay exact in f64; distinct across all arguments.
    (((grid * 1_000 + i) * 1_000 + j) * 1_000 + k) as f64
}

/// Euclidean wrap of a possibly-out-of-range global coordinate.
fn wrap(x: isize, n: usize) -> usize {
    x.rem_euclid(n as isize) as usize
}

/// Build one rank's local grid, interior filled from the global function.
fn local_grid(d: &Decomposition, pc: [usize; 3], grid: usize) -> Grid3<f64> {
    local_grid_halo(d, pc, grid, HALO)
}

/// Same, with an explicit halo allocation (depth-`d` exchanges need
/// halo >= d; ghosts start zeroed, which the depth tests exploit).
fn local_grid_halo(d: &Decomposition, pc: [usize; 3], grid: usize, halo: usize) -> Grid3<f64> {
    let sub = d.subdomain(pc);
    Grid3::from_fn(sub.ext, halo, |i, j, k| {
        global_value(grid, sub.start[0] + i, sub.start[1] + j, sub.start[2] + k)
    })
}

/// Exchange all six faces between all ranks of `d`, periodically.
fn exchange_all_faces(d: &Decomposition, grids: &mut [Grid3<f64>]) {
    let rank_of =
        |pc: [usize; 3]| -> usize { (pc[0] * d.proc_dims[1] + pc[1]) * d.proc_dims[2] + pc[2] };
    let coords: Vec<[usize; 3]> = d.iter().map(|(pc, _)| pc).collect();
    for &pc in &coords {
        for axis in 0..3 {
            for side in Side::BOTH {
                // The neighbor on `side` owns the planes that fill our
                // ghost cells beyond that boundary.
                let mut npc = pc;
                let step = match side {
                    Side::Low => -1,
                    Side::High => 1,
                };
                npc[axis] = wrap(pc[axis] as isize + step, d.proc_dims[axis]);
                // It sends the face planes adjacent to its *opposite*
                // boundary: our low ghosts hold the low neighbor's high
                // interior planes.
                let mut buf = Vec::new();
                let sender = &grids[rank_of(npc)];
                let h = sender.halo();
                pack_face_region(sender, axis, side.opposite(), h, FLAT, &mut buf);
                let receiver = &mut grids[rank_of(pc)];
                let consumed = unpack_face_region(receiver, axis, side, h, FLAT, &buf);
                assert_eq!(consumed, buf.len(), "pack/unpack moved unequal points");
            }
        }
    }
}

/// Check every face-ghost cell of every rank against the global function.
///
/// Only single-axis offsets are checked: the 13-point star stencil never
/// reads edge or corner ghosts, and the face exchange never fills them.
fn assert_ghosts_match(d: &Decomposition, grids: &[Grid3<f64>], grid_id: usize) {
    for (rank, (_, sub)) in d.iter().enumerate() {
        let g = &grids[rank];
        for axis in 0..3 {
            let a1 = (axis + 1) % 3;
            let a2 = (axis + 2) % 3;
            for j in 0..sub.ext[a1] {
                for k in 0..sub.ext[a2] {
                    for off in [
                        -(HALO as isize),
                        -1,
                        sub.ext[axis] as isize,
                        (sub.ext[axis] + HALO - 1) as isize,
                    ] {
                        let mut local = [0isize; 3];
                        local[axis] = off;
                        local[a1] = j as isize;
                        local[a2] = k as isize;
                        let gi = [
                            wrap(sub.start[0] as isize + local[0], d.grid_ext[0]),
                            wrap(sub.start[1] as isize + local[1], d.grid_ext[1]),
                            wrap(sub.start[2] as isize + local[2], d.grid_ext[2]),
                        ];
                        assert_eq!(
                            g.get(local[0], local[1], local[2]),
                            global_value(grid_id, gi[0], gi[1], gi[2]),
                            "rank {rank} {sub} axis {axis} offset {off} ({j},{k})"
                        );
                    }
                }
            }
        }
    }
}

/// The decompositions under test: deliberately asymmetric process grids
/// over non-cubic extents with remainders on every axis, plus the
/// single-rank (self-exchange) and single-axis degenerate shapes.
fn cases() -> Vec<([usize; 3], [usize; 3])> {
    vec![
        ([13, 7, 9], [4, 2, 3]),
        ([11, 13, 5], [2, 3, 1]),
        ([9, 6, 17], [3, 2, 4]),
        ([8, 8, 8], [1, 1, 1]),
        ([10, 4, 4], [5, 1, 1]),
        ([4, 4, 15], [1, 1, 6]),
        ([7, 7, 7], [2, 2, 2]),
    ]
}

#[test]
fn exchanged_ghosts_equal_the_periodic_global_grid() {
    for (grid_ext, proc_dims) in cases() {
        let d = Decomposition::new(grid_ext, proc_dims);
        let mut grids: Vec<Grid3<f64>> = d.iter().map(|(pc, _)| local_grid(&d, pc, 0)).collect();
        exchange_all_faces(&d, &mut grids);
        assert_ghosts_match(&d, &grids, 0);
    }
}

#[test]
fn single_rank_exchange_matches_fill_halo_periodic() {
    // With one rank per axis every neighbor is the rank itself; the
    // message round-trip must reproduce the in-place periodic fill.
    for grid_ext in [[13, 7, 9], [5, 9, 6]] {
        let d = Decomposition::new(grid_ext, [1, 1, 1]);
        let mut grids = vec![local_grid(&d, [0, 0, 0], 0)];
        let mut reference = grids[0].clone();
        reference.fill_halo_periodic();
        exchange_all_faces(&d, &mut grids);
        assert_ghosts_match(&d, &grids, 0);
        // Cross-check against the built-in fill on the face ghosts.
        let n = grids[0].n();
        for axis in 0..3 {
            for j in 0..n[(axis + 1) % 3] as isize {
                for k in 0..n[(axis + 2) % 3] as isize {
                    for off in [-2isize, -1, n[axis] as isize, n[axis] as isize + 1] {
                        let mut c = [0isize; 3];
                        c[axis] = off;
                        c[(axis + 1) % 3] = j;
                        c[(axis + 2) % 3] = k;
                        assert_eq!(
                            grids[0].get(c[0], c[1], c[2]),
                            reference.get(c[0], c[1], c[2])
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_round_trip_distributes_across_asymmetric_grids() {
    // Batch several grids of one subdomain through a single buffer and
    // unpack on the neighbor: each grid's ghosts must round-trip intact,
    // in batch order, with nothing left over.
    let d = Decomposition::new([9, 6, 17], [3, 2, 4]);
    let coords: Vec<[usize; 3]> = d.iter().map(|(pc, _)| pc).collect();
    let n_grids = 3;
    for axis in 0..3 {
        for side in Side::BOTH {
            // Sender: the neighbor on `side` of the corner rank.
            let pc = coords[0];
            let mut npc = pc;
            let step = match side {
                Side::Low => -1,
                Side::High => 1,
            };
            npc[axis] = wrap(pc[axis] as isize + step, d.proc_dims[axis]);
            let senders: Vec<Grid3<f64>> = (0..n_grids).map(|g| local_grid(&d, npc, g)).collect();
            let mut receivers: Vec<Grid3<f64>> =
                (0..n_grids).map(|g| local_grid(&d, pc, g)).collect();

            let ids: Vec<usize> = (0..n_grids).collect();
            let mut buf = Vec::new();
            let h = senders[0].halo();
            pack_batch_region(&senders, &ids, axis, side.opposite(), h, FLAT, &mut buf);
            let face = face_points_region(&senders[0], axis, h, FLAT);
            assert_eq!(buf.len(), n_grids * face);
            unpack_batch_region(&mut receivers, &ids, axis, side, h, FLAT, &buf);

            // Every grid's ghost planes now hold the sender's interior.
            let sub = d.subdomain(pc);
            for (g, r) in receivers.iter().enumerate() {
                let a1 = (axis + 1) % 3;
                let a2 = (axis + 2) % 3;
                for j in 0..sub.ext[a1] {
                    for k in 0..sub.ext[a2] {
                        for h in 0..HALO {
                            let off = match side {
                                Side::Low => -(h as isize) - 1,
                                Side::High => (sub.ext[axis] + h) as isize,
                            };
                            let mut local = [0isize; 3];
                            local[axis] = off;
                            local[a1] = j as isize;
                            local[a2] = k as isize;
                            let gi = [
                                wrap(sub.start[0] as isize + local[0], d.grid_ext[0]),
                                wrap(sub.start[1] as isize + local[1], d.grid_ext[1]),
                                wrap(sub.start[2] as isize + local[2], d.grid_ext[2]),
                            ];
                            assert_eq!(
                                r.get(local[0], local[1], local[2]),
                                global_value(g, gi[0], gi[1], gi[2]),
                                "grid {g} axis {axis} side {side:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn pack_then_unpack_is_lossless_for_every_face() {
    // Pure inverse property on a single asymmetric grid: whatever leaves
    // through pack_face_region arrives unchanged through
    // unpack_face_region, and
    // re-packing the ghost region reproduces the buffer exactly is not
    // directly expressible (pack reads interior), so assert the point
    // mapping instead: buffer order is ascending-global over the face.
    let g = Grid3::from_fn([5, 3, 7], HALO, |i, j, k| global_value(1, i, j, k));
    for axis in 0..3 {
        for side in Side::BOTH {
            let mut buf = Vec::new();
            let h = g.halo();
            pack_face_region(&g, axis, side, h, FLAT, &mut buf);
            assert_eq!(buf.len(), face_points_region(&g, axis, h, FLAT));
            let mut sink = Grid3::<f64>::zeros(g.n(), HALO);
            let consumed = unpack_face_region(&mut sink, axis, side.opposite(), h, FLAT, &buf);
            assert_eq!(consumed, buf.len());
            // Each ghost plane holds the matching interior plane of `g`,
            // shifted by the periodic image: plane p on the High side maps
            // to ghost plane p - ext; on the Low side to p + ext.
            let n = g.n();
            let shift = match side {
                Side::High => -(n[axis] as isize),
                Side::Low => n[axis] as isize,
            };
            let planes = match side {
                Side::Low => 0..HALO as isize,
                Side::High => (n[axis] - HALO) as isize..n[axis] as isize,
            };
            for p in planes {
                for j in 0..n[(axis + 1) % 3] as isize {
                    for k in 0..n[(axis + 2) % 3] as isize {
                        let mut src = [0isize; 3];
                        src[axis] = p;
                        src[(axis + 1) % 3] = j;
                        src[(axis + 2) % 3] = k;
                        let mut dst = src;
                        dst[axis] = p + shift;
                        assert_eq!(
                            sink.get(dst[0], dst[1], dst[2]),
                            g.get(src[0], src[1], src[2]),
                            "axis {axis} side {side:?} plane {p}"
                        );
                    }
                }
            }
        }
    }
}

/// The neighbor process coordinate on `side` of `axis`, wrapping.
fn neighbor_pc(d: &Decomposition, pc: [usize; 3], axis: usize, side: Side) -> [usize; 3] {
    let mut npc = pc;
    let step = match side {
        Side::Low => -1,
        Side::High => 1,
    };
    npc[axis] = wrap(pc[axis] as isize + step, d.proc_dims[axis]);
    npc
}

/// Exchange every face at depth `h`, axes in ascending order. With
/// `widen`, each later axis's face region reaches `h` ghost planes into
/// the earlier axes — the ordered (GCE) exchange a temporal-blocked
/// sweep uses, which fills edge and corner ghosts without diagonal
/// messages. Axis rounds are sequential on purpose: a later axis's pack
/// reads the ghosts the earlier rounds just filled.
fn exchange_all_faces_ordered(d: &Decomposition, grids: &mut [Grid3<f64>], h: usize, widen: bool) {
    let rank_of =
        |pc: [usize; 3]| -> usize { (pc[0] * d.proc_dims[1] + pc[1]) * d.proc_dims[2] + pc[2] };
    let coords: Vec<[usize; 3]> = d.iter().map(|(pc, _)| pc).collect();
    for axis in 0..3 {
        let mut wide = [0usize; 3];
        if widen {
            for w in wide.iter_mut().take(axis) {
                *w = h;
            }
        }
        for &pc in &coords {
            for side in Side::BOTH {
                let npc = neighbor_pc(d, pc, axis, side);
                let mut buf = Vec::new();
                pack_face_region(
                    &grids[rank_of(npc)],
                    axis,
                    side.opposite(),
                    h,
                    wide,
                    &mut buf,
                );
                let consumed =
                    unpack_face_region(&mut grids[rank_of(pc)], axis, side, h, wide, &buf);
                assert_eq!(
                    consumed,
                    buf.len(),
                    "region pack/unpack moved unequal points"
                );
            }
        }
    }
}

/// Assert the full depth-`h` ghost shell (faces, edges, AND corners) of
/// every rank equals the periodic global grid.
fn assert_shell_matches(d: &Decomposition, grids: &[Grid3<f64>], grid_id: usize, h: usize) {
    let h = h as isize;
    for (rank, (_, sub)) in d.iter().enumerate() {
        let g = &grids[rank];
        for i in -h..sub.ext[0] as isize + h {
            for j in -h..sub.ext[1] as isize + h {
                for k in -h..sub.ext[2] as isize + h {
                    let local = [i, j, k];
                    if (0..3).all(|a| (0..sub.ext[a] as isize).contains(&local[a])) {
                        continue; // interior: never written by an exchange
                    }
                    let gi = [
                        wrap(sub.start[0] as isize + i, d.grid_ext[0]),
                        wrap(sub.start[1] as isize + j, d.grid_ext[1]),
                        wrap(sub.start[2] as isize + k, d.grid_ext[2]),
                    ];
                    assert_eq!(
                        g.get(i, j, k),
                        global_value(grid_id, gi[0], gi[1], gi[2]),
                        "rank {rank} {sub} ghost ({i},{j},{k}) depth {h}"
                    );
                }
            }
        }
    }
}

/// Uneven decompositions where every sub-extent is >= 3, so depths 1-3
/// are all legal (a depth-`h` sender must own `h` interior planes).
fn deep_cases() -> Vec<([usize; 3], [usize; 3])> {
    vec![
        ([13, 7, 9], [4, 2, 3]),
        ([11, 13, 5], [2, 3, 1]),
        ([9, 6, 17], [3, 2, 4]),
        ([5, 4, 6], [1, 1, 1]),
    ]
}

#[test]
fn depth_d_exchange_fills_exactly_d_planes() {
    // At every depth h in 1..=3 over grids allocated with halo 3: the h
    // ghost planes nearest each face boundary round-trip to the periodic
    // global values, while planes beyond h — and all edge/corner ghosts,
    // which an unwidened face exchange never carries — stay at their
    // zeroed initial state. Grid id 1 keeps 0.0 out of the value range.
    const DEEP: usize = 3;
    for h in 1..=DEEP {
        for (grid_ext, proc_dims) in deep_cases() {
            let d = Decomposition::new(grid_ext, proc_dims);
            let mut grids: Vec<Grid3<f64>> = d
                .iter()
                .map(|(pc, _)| local_grid_halo(&d, pc, 1, DEEP))
                .collect();
            exchange_all_faces_ordered(&d, &mut grids, h, false);
            for (rank, (_, sub)) in d.iter().enumerate() {
                let g = &grids[rank];
                let hs = h as isize;
                for i in -(DEEP as isize)..(sub.ext[0] + DEEP) as isize {
                    for j in -(DEEP as isize)..(sub.ext[1] + DEEP) as isize {
                        for k in -(DEEP as isize)..(sub.ext[2] + DEEP) as isize {
                            let local = [i, j, k];
                            let out: Vec<usize> = (0..3)
                                .filter(|&a| !(0..sub.ext[a] as isize).contains(&local[a]))
                                .collect();
                            if out.is_empty() {
                                continue;
                            }
                            let face_within_h = out.len() == 1 && {
                                let a = out[0];
                                local[a] >= -hs && local[a] < sub.ext[a] as isize + hs
                            };
                            let got = g.get(i, j, k);
                            if face_within_h {
                                let gi = [
                                    wrap(sub.start[0] as isize + i, d.grid_ext[0]),
                                    wrap(sub.start[1] as isize + j, d.grid_ext[1]),
                                    wrap(sub.start[2] as isize + k, d.grid_ext[2]),
                                ];
                                assert_eq!(
                                    got,
                                    global_value(1, gi[0], gi[1], gi[2]),
                                    "rank {rank} depth {h} face ghost ({i},{j},{k})"
                                );
                            } else {
                                assert_eq!(
                                    got, 0.0,
                                    "rank {rank} depth {h} ghost ({i},{j},{k}) \
                                     written outside the exchanged region"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn ordered_widened_exchange_fills_the_full_shell_at_depths_1_to_3() {
    // The temporal-blocking invariant: an ascending-axis exchange whose
    // later axes carry the earlier axes' just-filled ghosts makes the
    // ENTIRE depth-h shell current — faces, edges, and corners — with
    // exactly six messages per rank per grid and no diagonal traffic.
    for h in 1..=3usize {
        for (grid_ext, proc_dims) in deep_cases() {
            let d = Decomposition::new(grid_ext, proc_dims);
            let mut grids: Vec<Grid3<f64>> = d
                .iter()
                .map(|(pc, _)| local_grid_halo(&d, pc, 0, h))
                .collect();
            exchange_all_faces_ordered(&d, &mut grids, h, true);
            assert_shell_matches(&d, &grids, 0, h);
        }
    }
}

#[test]
fn batched_region_round_trip_at_depths_1_to_3() {
    // The batched form the interpreters actually emit: several grids'
    // face regions through one buffer per (axis, side) message, at every
    // depth, with the ordered widening. Each grid's full shell must be
    // current afterwards, in batch order, with nothing left over.
    let n_grids = 3;
    for h in 1..=3usize {
        let (grid_ext, proc_dims) = ([9, 6, 17], [3, 2, 4]);
        let d = Decomposition::new(grid_ext, proc_dims);
        let rank_of =
            |pc: [usize; 3]| -> usize { (pc[0] * d.proc_dims[1] + pc[1]) * d.proc_dims[2] + pc[2] };
        let coords: Vec<[usize; 3]> = d.iter().map(|(pc, _)| pc).collect();
        let mut ranks: Vec<Vec<Grid3<f64>>> = coords
            .iter()
            .map(|&pc| {
                (0..n_grids)
                    .map(|g| local_grid_halo(&d, pc, g, h))
                    .collect()
            })
            .collect();
        let ids: Vec<usize> = (0..n_grids).collect();
        for axis in 0..3 {
            let mut wide = [0usize; 3];
            for w in wide.iter_mut().take(axis) {
                *w = h;
            }
            for &pc in &coords {
                for side in Side::BOTH {
                    let npc = neighbor_pc(&d, pc, axis, side);
                    let mut buf = Vec::new();
                    pack_batch_region(
                        &ranks[rank_of(npc)],
                        &ids,
                        axis,
                        side.opposite(),
                        h,
                        wide,
                        &mut buf,
                    );
                    assert_eq!(
                        buf.len(),
                        n_grids * face_points_region(&ranks[rank_of(pc)][0], axis, h, wide),
                        "batched region buffer length"
                    );
                    unpack_batch_region(&mut ranks[rank_of(pc)], &ids, axis, side, h, wide, &buf);
                }
            }
        }
        for g in 0..n_grids {
            let grids: Vec<Grid3<f64>> = ranks.iter().map(|r| r[g].clone()).collect();
            assert_shell_matches(&d, &grids, g, h);
        }
    }
}
