//! Halo face packing and unpacking.
//!
//! A rank sends its outermost `halo` interior planes per face and receives
//! the neighbor's into its ghost planes. Because the 13-point operator is a
//! *star* stencil (axis-aligned only), faces cover interior `j,k` only —
//! no edge or corner exchange is needed, which is also why the paper can
//! exchange all three dimensions simultaneously.
//!
//! Batching (§V-A): several grids' faces are packed back-to-back into one
//! buffer so one MPI message carries `batch × face` bytes, lifting message
//! sizes back into the saturated region of the Fig. 2 bandwidth curve.

use crate::grid3::Grid3;
use crate::scalar::Scalar;

/// Which side of an axis a face lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The low-index boundary.
    Low,
    /// The high-index boundary.
    High,
}

impl Side {
    /// Both sides.
    pub const BOTH: [Side; 2] = [Side::Low, Side::High];

    /// The other side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Low => Side::High,
            Side::High => Side::Low,
        }
    }
}

/// Points in one depth-`h` face of `g` along `axis`.
pub fn face_points_depth<T: Scalar>(g: &Grid3<T>, axis: usize, h: usize) -> usize {
    face_points_region(g, axis, h, [0; 3])
}

/// Points in one depth-`h` face of `g` along `axis` whose cross-section
/// extends `wide[b]` planes beyond the interior on *both* sides of each
/// other axis `b` (`wide[axis]` is ignored).
///
/// Widened cross-sections are how a multi-sweep (temporal-blocked)
/// exchange fills edge and corner ghosts without diagonal messages: the
/// axes are exchanged in ascending order and each later axis's face
/// carries the ghost planes just received on the earlier axes.
pub fn face_points_region<T: Scalar>(
    g: &Grid3<T>,
    axis: usize,
    h: usize,
    wide: [usize; 3],
) -> usize {
    assert!(axis < 3, "axis out of range");
    assert!(h <= g.halo(), "face depth {h} exceeds halo {}", g.halo());
    let n = g.n();
    let mut points = h;
    for b in 0..3 {
        if b != axis {
            assert!(
                wide[b] <= g.halo(),
                "cross-section width {} exceeds halo {}",
                wide[b],
                g.halo()
            );
            points *= n[b] + 2 * wide[b];
        }
    }
    points
}

/// [`pack_face_region`] appends z-runs no longer than this point by point:
/// for the `depth`-long runs of a z-face a `memcpy` call costs more than it
/// moves (measured 4.65 → 3.91 GB/s on an 8³ z-face). Longer runs — the
/// whole rows of x- and y-faces — are appended as slices.
const SHORT_RUN: usize = 4;

/// One face region as its contiguous z-runs, in ascending global order:
/// run `(di, dj)` starts at storage index `first + di·xs + dj·ys` and all
/// are `run` points long.
struct FaceRuns {
    first: usize,
    planes: usize,
    rows: usize,
    run: usize,
    ys: usize,
    xs: usize,
}

impl FaceRuns {
    /// The region of `h` planes adjacent to `boundary` of `axis` (interior
    /// planes when `pack`, ghost planes when not), crossed with the
    /// `wide`-extended extents of the other axes.
    fn of<T: Scalar>(
        g: &Grid3<T>,
        axis: usize,
        boundary: Side,
        h: usize,
        wide: [usize; 3],
        pack: bool,
    ) -> FaceRuns {
        let n = g.n();
        let mut lo = wide.map(|w| -(w as isize));
        let mut hi = [0, 1, 2].map(|b| (n[b] + wide[b]) as isize);
        let (ext, h) = (n[axis] as isize, h as isize);
        (lo[axis], hi[axis]) = match (boundary, pack) {
            (Side::Low, true) => (0, h),
            (Side::High, true) => (ext - h, ext),
            (Side::Low, false) => (-h, 0),
            (Side::High, false) => (ext, ext + h),
        };
        let (ys, xs) = g.strides();
        FaceRuns {
            first: g.idx(lo[0], lo[1], lo[2]),
            planes: (hi[0] - lo[0]) as usize,
            rows: (hi[1] - lo[1]) as usize,
            run: (hi[2] - lo[2]) as usize,
            ys,
            xs,
        }
    }

    /// Call `f` with every run's first storage index, in order.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for di in 0..self.planes {
            for dj in 0..self.rows {
                f(self.first + di * self.xs + dj * self.ys);
            }
        }
    }
}

/// Append a depth-`h`, `wide`-cross-section face region adjacent to the
/// `side` boundary of `axis` to `buf`, in ascending global order. `h` may
/// be any depth up to the grid's allocated halo; a depth-`h` exchange
/// fills `h` ghost planes on the receiving side. The cross-section
/// reaches `wide[b]` *ghost* planes beyond the interior on the other
/// axes, so a sender whose earlier-axis ghosts are current forwards edge
/// and corner data to its neighbor.
pub fn pack_face_region<T: Scalar>(
    g: &Grid3<T>,
    axis: usize,
    side: Side,
    h: usize,
    wide: [usize; 3],
    buf: &mut Vec<T>,
) {
    buf.reserve(face_points_region(g, axis, h, wide)); // also validates depth and widths
    let runs = FaceRuns::of(g, axis, side, h, wide, true);
    let (src, run) = (g.data(), runs.run);
    runs.for_each(|at| {
        let row = &src[at..at + run];
        if run <= SHORT_RUN {
            buf.extend(row.iter().copied());
        } else {
            buf.extend_from_slice(row);
        }
    });
}

/// Write a depth-`h`, `wide`-cross-section face region received *from*
/// the `from` side of `axis` into the `h` ghost planes nearest that
/// boundary (the exact mirror of [`pack_face_region`] on the sender):
/// data from the `High` neighbor fills `n .. n+h`, data from the `Low`
/// neighbor `-h .. 0`. Returns the number of points consumed from `buf`.
pub fn unpack_face_region<T: Scalar>(
    g: &mut Grid3<T>,
    axis: usize,
    from: Side,
    h: usize,
    wide: [usize; 3],
    buf: &[T],
) -> usize {
    let points = face_points_region(g, axis, h, wide);
    assert!(
        buf.len() >= points,
        "halo buffer underrun: have {}, need {points}",
        buf.len()
    );
    let runs = FaceRuns::of(g, axis, from, h, wide, false);
    let (dst, run) = (g.data_mut(), runs.run);
    let mut rest = buf;
    runs.for_each(|at| {
        let (row, tail) = rest.split_at(run);
        rest = tail;
        // A plain loop at every run length: it vectorizes in place and
        // measured faster than `copy_from_slice` from 2- to 144-point runs.
        for (d, &v) in dst[at..at + run].iter_mut().zip(row) {
            *d = v;
        }
    });
    points
}

/// Pack one depth-`h` face of several grids into a single buffer.
pub fn pack_batch_depth<T: Scalar>(
    grids: &[Grid3<T>],
    ids: &[usize],
    axis: usize,
    side: Side,
    h: usize,
    buf: &mut Vec<T>,
) {
    pack_batch_region(grids, ids, axis, side, h, [0; 3], buf);
}

/// Pack one depth-`h`, `wide`-cross-section face region of several grids
/// into a single buffer.
pub fn pack_batch_region<T: Scalar>(
    grids: &[Grid3<T>],
    ids: &[usize],
    axis: usize,
    side: Side,
    h: usize,
    wide: [usize; 3],
    buf: &mut Vec<T>,
) {
    for &g in ids {
        pack_face_region(&grids[g], axis, side, h, wide, buf);
    }
}

/// Unpack a batched depth-`h` face buffer into several grids' ghosts.
pub fn unpack_batch_depth<T: Scalar>(
    grids: &mut [Grid3<T>],
    ids: &[usize],
    axis: usize,
    from: Side,
    h: usize,
    buf: &[T],
) {
    unpack_batch_region(grids, ids, axis, from, h, [0; 3], buf);
}

/// Unpack a batched depth-`h`, `wide`-cross-section face buffer into
/// several grids' ghost regions.
pub fn unpack_batch_region<T: Scalar>(
    grids: &mut [Grid3<T>],
    ids: &[usize],
    axis: usize,
    from: Side,
    h: usize,
    wide: [usize; 3],
    buf: &[T],
) {
    let mut off = 0;
    for &g in ids {
        off += unpack_face_region(&mut grids[g], axis, from, h, wide, &buf[off..]);
    }
    assert_eq!(off, buf.len(), "batched buffer length mismatch");
}

/// Zero a depth-`h`, `wide`-cross-section ghost region beyond one
/// boundary (non-periodic global edges; the no-neighbor arm of an
/// exchange).
pub fn zero_face_region<T: Scalar>(
    g: &mut Grid3<T>,
    axis: usize,
    from: Side,
    h: usize,
    wide: [usize; 3],
) {
    face_points_region(g, axis, h, wide); // validate depth and widths
    let runs = FaceRuns::of(g, axis, from, h, wide, false);
    let dst = g.data_mut();
    runs.for_each(|at| dst[at..at + runs.run].fill(T::zero()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No cross-section widening: the plain face of a star exchange.
    const FLAT: [usize; 3] = [0; 3];

    fn grid(n: [usize; 3]) -> Grid3<f64> {
        Grid3::from_fn(n, 2, |i, j, k| (i * 10_000 + j * 100 + k) as f64)
    }

    #[test]
    fn face_point_counts() {
        let g = grid([4, 5, 6]);
        assert_eq!(face_points_region(&g, 0, 2, FLAT), 2 * 5 * 6);
        assert_eq!(face_points_region(&g, 1, 2, FLAT), 2 * 4 * 6);
        assert_eq!(face_points_region(&g, 2, 2, FLAT), 2 * 4 * 5);
    }

    #[test]
    fn pack_unpack_round_trip_between_neighbors() {
        // Two x-neighbors: a's high face becomes b's low ghost planes.
        let a = grid([4, 3, 3]);
        let mut b = grid([4, 3, 3]);
        let mut buf = Vec::new();
        pack_face_region(&a, 0, Side::High, a.halo(), FLAT, &mut buf);
        assert_eq!(buf.len(), face_points_region(&a, 0, a.halo(), FLAT));
        let consumed = unpack_face_region(&mut b, 0, Side::Low, a.halo(), FLAT, &buf);
        assert_eq!(consumed, buf.len());
        // b's ghost plane -1 must equal a's interior plane 3; -2 ↔ 2.
        for j in 0..3isize {
            for k in 0..3isize {
                assert_eq!(b.get(-1, j, k), a.get(3, j, k));
                assert_eq!(b.get(-2, j, k), a.get(2, j, k));
            }
        }
    }

    #[test]
    fn self_exchange_equals_periodic_fill() {
        // A single rank whose neighbor is itself (periodic, 1 process along
        // the axis): packing its own faces and unpacking them must equal
        // fill_halo_periodic on that axis.
        let mut g = grid([5, 4, 4]);
        let mut reference = g.clone();
        reference.fill_halo_periodic();
        let h = g.halo();

        for axis in 0..3 {
            for side in Side::BOTH {
                let mut buf = Vec::new();
                pack_face_region(&g, axis, side, h, FLAT, &mut buf);
                // Our own low face arrives "from the high side" (wrap).
                unpack_face_region(&mut g, axis, side.opposite(), h, FLAT, &buf);
            }
        }
        // Compare face-ghost cells (star stencil never reads edge/corner
        // ghosts, so compare only single-axis offsets).
        let n = g.n();
        for axis in 0..3 {
            for j in 0..n[(axis + 1) % 3] {
                for k in 0..n[(axis + 2) % 3] {
                    for off in [-2isize, -1, n[axis] as isize, n[axis] as isize + 1] {
                        let mut c = [0isize; 3];
                        c[axis] = off;
                        c[(axis + 1) % 3] = j as isize;
                        c[(axis + 2) % 3] = k as isize;
                        assert_eq!(
                            g.get(c[0], c[1], c[2]),
                            reference.get(c[0], c[1], c[2]),
                            "axis {axis} offset {off} ({j},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_pack_is_concatenation() {
        let grids = vec![grid([3, 3, 3]), grid([3, 3, 3]), grid([3, 3, 3])];
        let mut batched = Vec::new();
        pack_batch_region(&grids, &[0, 2], 1, Side::Low, 2, FLAT, &mut batched);
        let mut manual = Vec::new();
        pack_face_region(&grids[0], 1, Side::Low, 2, FLAT, &mut manual);
        pack_face_region(&grids[2], 1, Side::Low, 2, FLAT, &mut manual);
        assert_eq!(batched, manual);
    }

    #[test]
    fn batched_unpack_distributes() {
        let src = vec![grid([3, 3, 3]), grid([3, 3, 3])];
        let mut dst = vec![
            Grid3::<f64>::zeros([3, 3, 3], 2),
            Grid3::zeros([3, 3, 3], 2),
        ];
        let mut buf = Vec::new();
        pack_batch_region(&src, &[0, 1], 2, Side::High, 2, FLAT, &mut buf);
        unpack_batch_region(&mut dst, &[0, 1], 2, Side::Low, 2, FLAT, &buf);
        for g in 0..2 {
            for i in 0..3isize {
                for j in 0..3isize {
                    assert_eq!(dst[g].get(i, j, -1), src[g].get(i, j, 2));
                    assert_eq!(dst[g].get(i, j, -2), src[g].get(i, j, 1));
                }
            }
        }
    }

    #[test]
    fn zero_face_clears_ghosts() {
        let mut g = grid([3, 3, 3]);
        g.fill_halo_periodic();
        zero_face_region(&mut g, 0, Side::Low, 2, FLAT);
        for j in 0..3isize {
            for k in 0..3isize {
                assert_eq!(g.get(-1, j, k), 0.0);
                assert_eq!(g.get(-2, j, k), 0.0);
                // High side untouched: still the periodic image.
                assert_eq!(g.get(3, j, k), g.get(0, j, k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn short_buffer_is_rejected() {
        let mut g = grid([3, 3, 3]);
        let buf = vec![0.0; 3];
        unpack_face_region(&mut g, 0, Side::Low, 2, FLAT, &buf);
    }

    #[test]
    fn depth_variants_match_the_flat_regions() {
        let grids = vec![grid([4, 3, 3]), grid([4, 3, 3])];
        let mut region = Vec::new();
        pack_batch_region(&grids, &[1, 0], 0, Side::High, 1, FLAT, &mut region);
        let mut depth = Vec::new();
        pack_batch_depth(&grids, &[1, 0], 0, Side::High, 1, &mut depth);
        assert_eq!(region, depth);
        let g = &grids[0];
        assert_eq!(
            face_points_depth(g, 0, 1),
            face_points_region(g, 0, 1, FLAT)
        );
        let mut sinks = vec![Grid3::<f64>::zeros([4, 3, 3], 2); 2];
        unpack_batch_depth(&mut sinks, &[0, 1], 0, Side::Low, 1, &depth);
        assert_eq!(sinks[0].get(-1, 1, 2), grids[1].get(3, 1, 2));
    }

    #[test]
    fn shallow_depth_moves_the_planes_nearest_the_boundary() {
        // Allocate halo 4 but exchange only depth 1: exactly the single
        // interior plane at the boundary travels, into the single ghost
        // plane nearest it; deeper ghosts stay untouched.
        let a = Grid3::from_fn([4, 3, 3], 4, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let mut b = Grid3::<f64>::zeros([4, 3, 3], 4);
        let mut buf = Vec::new();
        pack_face_region(&a, 0, Side::High, 1, FLAT, &mut buf);
        assert_eq!(buf.len(), face_points_region(&a, 0, 1, FLAT));
        let consumed = unpack_face_region(&mut b, 0, Side::Low, 1, FLAT, &buf);
        assert_eq!(consumed, buf.len());
        for j in 0..3isize {
            for k in 0..3isize {
                assert_eq!(b.get(-1, j, k), a.get(3, j, k));
                assert_eq!(b.get(-2, j, k), 0.0, "deeper ghosts untouched");
            }
        }
    }

    #[test]
    fn a_shallow_zero_clears_only_the_nearest_planes() {
        let mut g = Grid3::from_fn([3, 3, 3], 4, |_, _, _| 1.0);
        g.fill_halo_periodic();
        zero_face_region(&mut g, 0, Side::Low, 2, FLAT);
        for j in 0..3isize {
            for k in 0..3isize {
                assert_eq!(g.get(-1, j, k), 0.0);
                assert_eq!(g.get(-2, j, k), 0.0);
                assert_eq!(g.get(-3, j, k), 1.0, "plane beyond depth untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds halo")]
    fn depth_beyond_the_allocated_halo_is_rejected() {
        let g = grid([3, 3, 3]);
        let mut buf = Vec::new();
        pack_face_region(&g, 0, Side::Low, 3, FLAT, &mut buf);
    }

    #[test]
    fn widened_cross_section_forwards_edge_ghosts() {
        // Ordered multi-axis exchange in miniature: the sender's x-ghosts
        // are already current, so its y-face packed with an x-widened
        // cross-section hands the receiver correct (x,y) edge ghosts.
        let h = 2;
        let mut a = Grid3::from_fn([4, 4, 4], h, |i, j, k| (i * 100 + j * 10 + k) as f64);
        a.fill_halo_periodic(); // stands in for a completed x exchange
        let mut b = Grid3::<f64>::zeros([4, 4, 4], h);
        let mut buf = Vec::new();
        pack_face_region(&a, 1, Side::High, h, [h, 0, 0], &mut buf);
        assert_eq!(buf.len(), face_points_region(&a, 1, h, [h, 0, 0]));
        assert_eq!(buf.len(), h * (4 + 2 * h) * 4);
        let consumed = unpack_face_region(&mut b, 1, Side::Low, h, [h, 0, 0], &buf);
        assert_eq!(consumed, buf.len());
        // b's (x-ghost, y-ghost) edge region holds a's x-ghost face data.
        for i in -(h as isize)..(4 + h) as isize {
            for k in 0..4isize {
                assert_eq!(b.get(i, -1, k), a.get(i, 3, k), "edge ghost ({i},-1,{k})");
                assert_eq!(b.get(i, -2, k), a.get(i, 2, k));
            }
        }
    }
}
