//! The 13-point finite-difference stencil.
//!
//! The paper's §II-A operator: a point is updated as a linear combination
//! of itself and its one- and two-step neighbors along all three axes,
//!
//! ```text
//! A'(x,y,z) = C1·A(x,y,z) + C2·A(x−1,y,z) + C3·A(x+1,y,z) + C4·A(x−2,y,z)
//!           + C5·A(x+2,y,z) + C6·A(x,y−1,z) + … + C13·A(x,y,z+2)
//! ```
//!
//! All thirteen coefficients are independent; [`StencilCoeffs::laplacian`]
//! builds the symmetric order-4 Laplacian GPAW uses for the Poisson and
//! Kohn–Sham equations.

use crate::grid3::Grid3;
use crate::scalar::Scalar;

/// Boundary condition of the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryCond {
    /// Wrap-around (the paper's default for its benchmarks).
    Periodic,
    /// Points outside the grid read as zero (finite systems).
    Zero,
}

/// The thirteen stencil coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilCoeffs {
    /// Weight of the center point (the paper's C1).
    pub c0: f64,
    /// Weight of the −1 neighbor per axis (C2, C6, C10).
    pub m1: [f64; 3],
    /// Weight of the +1 neighbor per axis (C3, C7, C11).
    pub p1: [f64; 3],
    /// Weight of the −2 neighbor per axis (C4, C8, C12).
    pub m2: [f64; 3],
    /// Weight of the +2 neighbor per axis (C5, C9, C13).
    pub p2: [f64; 3],
}

impl StencilCoeffs {
    /// Halo depth this stencil needs.
    pub const HALO: usize = 2;

    /// The order-4 central-difference Laplacian on spacings `h` (per axis):
    /// `d²/dx² ≈ (−1/12, 4/3, −5/2, 4/3, −1/12) / h²`.
    pub fn laplacian(h: [f64; 3]) -> StencilCoeffs {
        let mut c0 = 0.0;
        let mut c1 = [0.0; 3];
        let mut c2 = [0.0; 3];
        for a in 0..3 {
            let inv_h2 = 1.0 / (h[a] * h[a]);
            c0 += -2.5 * inv_h2;
            c1[a] = (4.0 / 3.0) * inv_h2;
            c2[a] = (-1.0 / 12.0) * inv_h2;
        }
        StencilCoeffs {
            c0,
            m1: c1,
            p1: c1,
            m2: c2,
            p2: c2,
        }
    }

    /// `α·I + β·∇²` — the shape of Jacobi-iteration and kinetic-energy
    /// operators built from the Laplacian.
    pub fn scaled_laplacian(alpha: f64, beta: f64, h: [f64; 3]) -> StencilCoeffs {
        let lap = Self::laplacian(h);
        StencilCoeffs {
            c0: alpha + beta * lap.c0,
            m1: lap.m1.map(|c| beta * c),
            p1: lap.p1.map(|c| beta * c),
            m2: lap.m2.map(|c| beta * c),
            p2: lap.p2.map(|c| beta * c),
        }
    }

    /// Sum of all thirteen coefficients — applied to a constant field the
    /// stencil returns `constant × sum` (zero for any pure Laplacian).
    pub fn coefficient_sum(&self) -> f64 {
        self.c0
            + self.m1.iter().sum::<f64>()
            + self.p1.iter().sum::<f64>()
            + self.m2.iter().sum::<f64>()
            + self.p2.iter().sum::<f64>()
    }
}

/// The one row kernel every entry point runs. For each lane `l` of one
/// z-row it accumulates, left to right with a separate multiply and add
/// per term, the centre and then the z, y and x arms, each arm in the order
/// −1, +1, −2, +2 (`arms[a][t]` is the row displaced that way, `k[a][t]`
/// its coefficient). That order *is* the operator's floating-point result:
/// every plane and both scalar types reach it through this function, so
/// they agree bit for bit.
///
/// Re-slicing every row to `dst`'s length up front removes the per-lane
/// bounds checks; inlined into [`sweep_rows`], the re-slices fold into its
/// once-per-row range checks and `dst`'s no-alias guarantee lets the loop
/// vectorize without run-time overlap tests.
#[inline(always)]
fn row_kernel(c0: f64, k: &[[f64; 4]; 3], dst: &mut [f64], centre: &[f64], arms: [[&[f64]; 4]; 3]) {
    let n = dst.len();
    let centre = &centre[..n];
    let [z, y, x] = arms.map(|arm| arm.map(|row| &row[..n]));
    let [kz, ky, kx] = k;
    for l in 0..n {
        let mut acc = centre[l] * c0;
        acc += z[0][l] * kz[0];
        acc += z[1][l] * kz[1];
        acc += z[2][l] * kz[2];
        acc += z[3][l] * kz[3];
        acc += y[0][l] * ky[0];
        acc += y[1][l] * ky[1];
        acc += y[2][l] * ky[2];
        acc += y[3][l] * ky[3];
        acc += x[0][l] * kx[0];
        acc += x[1][l] * kx[1];
        acc += x[2][l] * kx[2];
        acc += x[3][l] * kx[3];
        dst[l] = acc;
    }
}

/// Run [`row_kernel`] over the box of `count` points whose first point is
/// `first` (interior-relative, may reach into ghosts), writing row
/// `(di, dj)` of the box at `dst[dst_first + di·dst_xs + dj·dst_ys ..]`.
///
/// Callers have checked that `input`'s halo covers the box plus
/// [`StencilCoeffs::HALO`]; each of the fourteen row slices is still
/// range-checked once per row.
fn sweep_rows<T: Scalar>(
    coef: &StencilCoeffs,
    input: &Grid3<T>,
    first: [isize; 3],
    count: [usize; 3],
    dst: &mut [T],
    dst_first: usize,
    (dst_ys, dst_xs): (usize, usize),
) {
    let k = [2, 1, 0].map(|a| [coef.m1[a], coef.p1[a], coef.m2[a], coef.p2[a]]);
    // Everything below is in lanes: a point is `T::LANES` consecutive
    // `f64`s, so the z neighbors sit ±1·LANES and ±2·LANES away.
    let lanes = T::LANES;
    let (ys, xs) = input.strides();
    let strides = [lanes, ys * lanes, xs * lanes];
    let src = T::lanes(input.data());
    let dst = T::lanes_mut(dst);
    let len = count[2] * lanes;
    let origin = input.idx(first[0], first[1], first[2]) * lanes;
    for di in 0..count[0] {
        for dj in 0..count[1] {
            let c = origin + di * strides[2] + dj * strides[1];
            let d = (dst_first + di * dst_xs + dj * dst_ys) * lanes;
            let row = |at: usize| &src[at..at + len];
            let arms = strides.map(|s| [row(c - s), row(c + s), row(c - 2 * s), row(c + 2 * s)]);
            row_kernel(coef.c0, &k, &mut dst[d..d + len], row(c), arms);
        }
    }
}

/// Apply the stencil to every interior point of `input` (halos must be
/// filled by the caller), writing into the interior of `out`.
///
/// The input and output are distinct grids — the property the paper notes
/// makes the operation order-free and easy to parallelize.
pub fn apply<T: Scalar>(coef: &StencilCoeffs, input: &Grid3<T>, out: &mut Grid3<T>) {
    let n = input.n();
    apply_xrange(coef, input, out, 0, n[0]);
}

/// Apply the stencil to the x-slab `x0..x1` only — the unit the *hybrid
/// master-only* approach hands to each of the four threads.
pub fn apply_xrange<T: Scalar>(
    coef: &StencilCoeffs,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
    x0: usize,
    x1: usize,
) {
    let n = input.n();
    assert_eq!(n, out.n(), "input/output extents must match");
    assert!(input.halo() >= StencilCoeffs::HALO, "halo too shallow");
    assert!(out.halo() >= StencilCoeffs::HALO);
    assert!(x0 <= x1 && x1 <= n[0]);
    let (dst_first, dst_strides) = (out.idx(x0 as isize, 0, 0), out.strides());
    sweep_rows(
        coef,
        input,
        [x0 as isize, 0, 0],
        [x1 - x0, n[1], n[2]],
        out.data_mut(),
        dst_first,
        dst_strides,
    );
}

/// Apply the stencil to the interior *extended* outward by `em[a]` planes
/// below and `ep[a]` planes above on each axis — the unit of one temporal-
/// blocking wavefront step. Sub-sweep `s` of a fused block of `k` sweeps
/// computes with extension `(k−1−s)·HALO` so that after the final step
/// (extension 0) the interior holds exactly `k` sweeps' worth of updates
/// from one depth-`k·HALO` exchange.
///
/// Reads reach `extension + HALO` ghost planes of `input`; writes land in
/// the interior plus `extension` ghost planes of `out`. Per-point
/// accumulation order is identical to [`apply`], so a fused run is bitwise
/// equal to the sweep-at-a-time run.
pub fn apply_region<T: Scalar>(
    coef: &StencilCoeffs,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
    em: [usize; 3],
    ep: [usize; 3],
) {
    let n = input.n();
    assert_eq!(n, out.n(), "input/output extents must match");
    for a in 0..3 {
        assert!(
            input.halo() >= em[a].max(ep[a]) + StencilCoeffs::HALO,
            "input halo {} too shallow for extension {}/{} on axis {a}",
            input.halo(),
            em[a],
            ep[a],
        );
        assert!(out.halo() >= em[a].max(ep[a]), "output halo too shallow");
    }
    let first = em.map(|e| -(e as isize));
    let (dst_first, dst_strides) = (out.idx(first[0], first[1], first[2]), out.strides());
    sweep_rows(
        coef,
        input,
        first,
        [0, 1, 2].map(|a| n[a] + em[a] + ep[a]),
        out.data_mut(),
        dst_first,
        dst_strides,
    );
}

/// Apply the stencil for interior x range `x0..x1`, writing into a raw
/// output slab as produced by [`Grid3::split_x_slabs`] (the slab's first
/// plane is interior plane `x0`; y/z keep the padded layout).
///
/// This is the concurrent-write path of the *hybrid master-only* approach:
/// four threads each own one slab of the shared output grid.
pub fn apply_slab<T: Scalar>(
    coef: &StencilCoeffs,
    input: &Grid3<T>,
    x0: usize,
    x1: usize,
    slab: &mut [T],
) {
    let n = input.n();
    let h = input.halo();
    assert!(h >= StencilCoeffs::HALO);
    assert!(x0 <= x1 && x1 <= n[0]);
    let (ys, xs) = input.strides();
    assert_eq!(slab.len(), (x1 - x0) * xs, "slab size mismatch");
    sweep_rows(
        coef,
        input,
        [x0 as isize, 0, 0],
        [x1 - x0, n[1], n[2]],
        slab,
        h * ys + h,
        (ys, xs),
    );
}

/// Split `0..nx` into `parts` near-equal slab boundaries (the interior cut
/// points for [`Grid3::split_x_slabs`]). Returns the `parts+1` bounds.
pub fn slab_bounds(nx: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1);
    let mut bounds = Vec::with_capacity(parts + 1);
    for p in 0..=parts {
        bounds.push(p * nx / parts);
    }
    bounds.dedup();
    bounds
}

/// The sequential ground truth: fill the halo of a whole (undecomposed)
/// grid from the boundary condition, then apply the stencil. Everything the
/// distributed engine produces is compared against this.
pub fn apply_sequential<T: Scalar>(
    coef: &StencilCoeffs,
    input: &mut Grid3<T>,
    out: &mut Grid3<T>,
    bc: BoundaryCond,
) {
    match bc {
        BoundaryCond::Periodic => input.fill_halo_periodic(),
        BoundaryCond::Zero => input.clear_halo(),
    }
    apply(coef, input, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use std::f64::consts::TAU;

    #[test]
    fn laplacian_annihilates_constants() {
        let coef = StencilCoeffs::laplacian([0.3, 0.3, 0.3]);
        assert!(coef.coefficient_sum().abs() < 1e-12);
        let mut input: Grid3<f64> = Grid3::from_fn([6, 6, 6], 2, |_, _, _| 4.2);
        let mut out = Grid3::zeros([6, 6, 6], 2);
        apply_sequential(&coef, &mut input, &mut out, BoundaryCond::Periodic);
        for (_, v) in out.iter_interior() {
            assert!(v.abs() < 1e-12, "laplacian of constant must vanish: {v}");
        }
    }

    #[test]
    fn laplacian_of_plane_wave_is_minus_k_squared() {
        // f(x) = sin(2πx/L) ⇒ ∇²f = −(2π/L)² f; order-4 FD error is O(h⁴).
        let n = 32;
        let len = 1.0;
        let h = len / n as f64;
        let coef = StencilCoeffs::laplacian([h, h, h]);
        let mut input: Grid3<f64> =
            Grid3::from_fn([n, n, n], 2, |i, _, _| (TAU * i as f64 / n as f64).sin());
        let mut out = Grid3::zeros([n, n, n], 2);
        apply_sequential(&coef, &mut input, &mut out, BoundaryCond::Periodic);
        let k2 = (TAU / len).powi(2);
        for ([i, j, kk], v) in out.iter_interior() {
            let f = (TAU * i as f64 / n as f64).sin();
            let expect = -k2 * f;
            assert!(
                (v - expect).abs() < k2 * 1e-3,
                "at ({i},{j},{kk}): {v} vs {expect}"
            );
        }
    }

    #[test]
    fn order_four_convergence() {
        // Halving h must shrink the error ≈ 16×.
        let err_for = |n: usize| -> f64 {
            let h = 1.0 / n as f64;
            let coef = StencilCoeffs::laplacian([h, h, h]);
            let mut input: Grid3<f64> =
                Grid3::from_fn([n, 4, 4], 2, |i, _, _| (TAU * i as f64 / n as f64).sin());
            let mut out = Grid3::zeros([n, 4, 4], 2);
            apply_sequential(&coef, &mut input, &mut out, BoundaryCond::Periodic);
            let k2 = TAU * TAU;
            out.iter_interior()
                .map(|([i, _, _], v)| {
                    let f = (TAU * i as f64 / n as f64).sin();
                    (v + k2 * f).abs()
                })
                .fold(0.0, f64::max)
        };
        let e16 = err_for(16);
        let e32 = err_for(32);
        let rate = (e16 / e32).log2();
        assert!(
            (3.5..4.5).contains(&rate),
            "expected 4th-order convergence, got rate {rate} (e16={e16}, e32={e32})"
        );
    }

    #[test]
    fn asymmetric_coefficients_are_honored() {
        // A pure forward-difference along x: C3 = 1, everything else 0 —
        // exercises the paper's "13 independent constants" generality.
        let coef = StencilCoeffs {
            c0: 0.0,
            m1: [0.0; 3],
            p1: [1.0, 0.0, 0.0],
            m2: [0.0; 3],
            p2: [0.0; 3],
        };
        let mut input: Grid3<f64> = Grid3::from_fn([4, 4, 4], 2, |i, _, _| i as f64);
        let mut out = Grid3::zeros([4, 4, 4], 2);
        apply_sequential(&coef, &mut input, &mut out, BoundaryCond::Periodic);
        // out(i) = input(i+1), with wrap at the +x edge.
        assert_eq!(out.get(0, 0, 0), 1.0);
        assert_eq!(out.get(2, 1, 1), 3.0);
        assert_eq!(out.get(3, 0, 0), 0.0); // wrapped
    }

    #[test]
    fn zero_boundary_reads_zeros_outside() {
        let coef = StencilCoeffs {
            c0: 0.0,
            m1: [1.0, 0.0, 0.0],
            p1: [0.0; 3],
            m2: [0.0; 3],
            p2: [0.0; 3],
        };
        let mut input: Grid3<f64> = Grid3::from_fn([3, 3, 3], 2, |_, _, _| 5.0);
        // Pollute the halo first to prove clear_halo runs.
        input.fill_halo_periodic();
        let mut out = Grid3::zeros([3, 3, 3], 2);
        apply_sequential(&coef, &mut input, &mut out, BoundaryCond::Zero);
        assert_eq!(out.get(0, 0, 0), 0.0); // x−1 outside ⇒ zero
        assert_eq!(out.get(1, 0, 0), 5.0);
    }

    #[test]
    fn xrange_slabs_compose_to_full_apply() {
        let coef = StencilCoeffs::laplacian([0.2, 0.2, 0.2]);
        let mut input: Grid3<f64> = Grid3::from_fn([8, 6, 5], 2, |i, j, k| {
            ((i * 31 + j * 7 + k * 3) % 17) as f64
        });
        input.fill_halo_periodic();
        let mut full = Grid3::zeros([8, 6, 5], 2);
        apply(&coef, &input, &mut full);
        let mut slabbed = Grid3::zeros([8, 6, 5], 2);
        // The 4-way split master-only uses.
        for t in 0..4 {
            let x0 = t * 2;
            apply_xrange(&coef, &input, &mut slabbed, x0, x0 + 2);
        }
        assert_eq!(full, slabbed);
    }

    #[test]
    fn complex_matches_componentwise_real() {
        let coef = StencilCoeffs::laplacian([0.25, 0.25, 0.25]);
        let re_f = |i: usize, j: usize, k: usize| ((i + 2 * j + 3 * k) % 5) as f64;
        let im_f = |i: usize, j: usize, k: usize| ((3 * i + j + k) % 7) as f64;

        let mut cin: Grid3<C64> = Grid3::from_fn([5, 5, 5], 2, |i, j, k| {
            C64::new(re_f(i, j, k), im_f(i, j, k))
        });
        let mut cout = Grid3::zeros([5, 5, 5], 2);
        apply_sequential(&coef, &mut cin, &mut cout, BoundaryCond::Periodic);

        let mut rin: Grid3<f64> = Grid3::from_fn([5, 5, 5], 2, &re_f);
        let mut rout = Grid3::zeros([5, 5, 5], 2);
        apply_sequential(&coef, &mut rin, &mut rout, BoundaryCond::Periodic);
        let mut iin: Grid3<f64> = Grid3::from_fn([5, 5, 5], 2, &im_f);
        let mut iout = Grid3::zeros([5, 5, 5], 2);
        apply_sequential(&coef, &mut iin, &mut iout, BoundaryCond::Periodic);

        for ([i, j, k], v) in cout.iter_interior() {
            let r = rout.get(i as isize, j as isize, k as isize);
            let im = iout.get(i as isize, j as isize, k as isize);
            assert!((v.re - r).abs() < 1e-12);
            assert!((v.im - im).abs() < 1e-12);
        }
    }

    #[test]
    fn slab_apply_matches_full_apply() {
        let coef = StencilCoeffs::laplacian([0.2, 0.2, 0.2]);
        let mut input: Grid3<f64> =
            Grid3::from_fn([9, 5, 7], 2, |i, j, k| ((i * 13 + j * 5 + k) % 11) as f64);
        input.fill_halo_periodic();
        let mut full = Grid3::zeros([9, 5, 7], 2);
        apply(&coef, &input, &mut full);

        let mut slabbed: Grid3<f64> = Grid3::zeros([9, 5, 7], 2);
        let bounds = slab_bounds(9, 4);
        let cuts = &bounds[1..bounds.len() - 1];
        let slabs = slabbed.split_x_slabs(cuts);
        for (s, slab) in slabs.into_iter().enumerate() {
            apply_slab(&coef, &input, bounds[s], bounds[s + 1], slab);
        }
        assert_eq!(full, slabbed);
    }

    #[test]
    fn region_with_zero_extension_is_exactly_apply() {
        let coef = StencilCoeffs::laplacian([0.2, 0.2, 0.2]);
        let mut input: Grid3<f64> =
            Grid3::from_fn([6, 5, 7], 4, |i, j, k| ((i * 13 + j * 5 + k) % 11) as f64);
        input.fill_halo_periodic();
        let mut plain = Grid3::zeros([6, 5, 7], 4);
        apply(&coef, &input, &mut plain);
        let mut region = Grid3::zeros([6, 5, 7], 4);
        apply_region(&coef, &input, &mut region, [0; 3], [0; 3]);
        assert_eq!(plain, region);
    }

    #[test]
    fn two_fused_sweeps_match_two_plain_sweeps_bitwise() {
        // Temporal blocking in miniature on one periodic rank with halo 4:
        // fill ghosts once at depth 4, compute sweep 0 at extension 2 and
        // sweep 1 at extension 0; the interior must be bitwise equal to two
        // plain sweeps with a (depth-2) ghost fill before each.
        let coef = StencilCoeffs::laplacian([0.3, 0.25, 0.2]);
        let n = [6, 6, 8];
        let init = |i: usize, j: usize, k: usize| ((i * 31 + j * 7 + k * 3) % 17) as f64;

        // Reference: sweep-at-a-time with halo refills.
        let mut a: Grid3<f64> = Grid3::from_fn(n, 2, &init);
        let mut b = Grid3::zeros(n, 2);
        a.fill_halo_periodic();
        apply(&coef, &a, &mut b);
        b.fill_halo_periodic();
        apply(&coef, &b, &mut a);

        // Fused: one depth-4 fill, then a shrinking wavefront.
        let mut x: Grid3<f64> = Grid3::from_fn(n, 4, &init);
        let mut y = Grid3::zeros(n, 4);
        x.fill_halo_periodic();
        apply_region(&coef, &x, &mut y, [2; 3], [2; 3]);
        apply_region(&coef, &y, &mut x, [0; 3], [0; 3]);

        for ([i, j, k], v) in a.iter_interior() {
            assert_eq!(
                v,
                x.get(i as isize, j as isize, k as isize),
                "fused result differs at ({i},{j},{k})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn region_extension_beyond_input_halo_is_rejected() {
        let coef = StencilCoeffs::laplacian([0.2; 3]);
        let input: Grid3<f64> = Grid3::zeros([4, 4, 4], 2);
        let mut out = Grid3::zeros([4, 4, 4], 2);
        apply_region(&coef, &input, &mut out, [1; 3], [1; 3]);
    }

    /// The scalar, per-element definition the row kernel replaced, kept as
    /// the oracle: bounds-checked `get`s and `Scalar::scale`, accumulated
    /// in the same fixed order.
    fn oracle_point<T: Scalar>(coef: &StencilCoeffs, g: &Grid3<T>, p: [isize; 3]) -> T {
        let at = |a: usize, d: isize| {
            let mut q = p;
            q[a] += d;
            g.get(q[0], q[1], q[2])
        };
        let mut acc = at(0, 0).scale(coef.c0);
        for a in [2, 1, 0] {
            acc += at(a, -1).scale(coef.m1[a]);
            acc += at(a, 1).scale(coef.p1[a]);
            acc += at(a, -2).scale(coef.m2[a]);
            acc += at(a, 2).scale(coef.p2[a]);
        }
        acc
    }

    /// SplitMix64 — the differential test's only source of variety.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A finite value of varied magnitude and sign.
        fn finite(&mut self) -> f64 {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 10f64.powi(self.below(7) as i32 - 3)
        }

        /// Mostly finite values, salted with the ones `==` cannot tell
        /// apart or a sloppy kernel would mangle: signed zeros, subnormals
        /// and (when `infs`) infinities, whose differences mint NaNs.
        fn salted(&mut self, infs: bool) -> f64 {
            let sign = self.next() & (1 << 63);
            match self.below(16) {
                0 => f64::from_bits(sign),
                1 => f64::from_bits(sign | (1 + self.next() % 0xf_ffff)),
                2 if infs => f64::from_bits(sign | f64::INFINITY.to_bits()),
                _ => self.finite(),
            }
        }

        /// A NaN of either sign carrying its own payload.
        fn nan(&mut self) -> f64 {
            let sign = self.next() & (1 << 63);
            f64::from_bits(sign | f64::NAN.to_bits() | (1 + self.next() % 0xffff_ffff))
        }
    }

    /// Fill all of `g`'s storage, ghosts included, with salted values.
    ///
    /// IEEE-754 hardware passes a lone NaN operand's payload through an
    /// add, and the kernel must too; which of *two* NaN operands' payloads
    /// survives is unspecified in Rust (and does differ between the scalar
    /// oracle and the vectorized kernel in release builds). So a grid gets
    /// either infinities or NaNs, and its NaNs — each with its own payload
    /// — are kept out of one another's 13-point footprints.
    fn salt<T: Scalar>(rng: &mut Rng, g: &mut Grid3<T>) {
        let infs = rng.below(2) == 0;
        g.data_mut().fill_with(|| {
            T::from_bit_pattern([rng.salted(infs).to_bits(), rng.salted(infs).to_bits()])
        });
        if infs {
            return;
        }
        let pad = g.padded();
        let mut placed: Vec<[usize; 3]> = Vec::new();
        for _ in 0..g.data().len() / 8 {
            let p = pad.map(|e| rng.below(e));
            let apart = |q: &[usize; 3]| {
                (0..3).any(|a| p[a].abs_diff(q[a]) > 4) || (0..3).all(|a| p[a] != q[a])
            };
            if placed.iter().all(apart) {
                placed.push(p);
                g.data_mut()[(p[0] * pad[1] + p[1]) * pad[2] + p[2]] =
                    T::from_bit_pattern([rng.nan().to_bits(), rng.nan().to_bits()]);
            }
        }
    }

    /// What an output cell holds before a kernel call; any cell outside
    /// the call's box must still hold it afterwards.
    fn sentinel<T: Scalar>() -> T {
        T::from_bit_pattern([0x7ff8_dead_beef_0001; 2])
    }

    fn blank<T: Scalar>(n: [usize; 3], halo: usize) -> Grid3<T> {
        let mut g = Grid3::zeros(n, halo);
        g.data_mut().fill(sentinel());
        g
    }

    /// `got` equals `oracle` bit for bit on the box `lo..hi` and holds the
    /// sentinel everywhere else, ghosts included.
    fn check_box<T: Scalar>(
        got: &Grid3<T>,
        oracle: &Grid3<T>,
        lo: [isize; 3],
        hi: [isize; 3],
        what: &str,
    ) {
        let (n, h) = (got.n().map(|e| e as isize), got.halo() as isize);
        for i in -h..n[0] + h {
            for j in -h..n[1] + h {
                for k in -h..n[2] + h {
                    let p = [i, j, k];
                    let inside = (0..3).all(|a| (lo[a]..hi[a]).contains(&p[a]));
                    let want = if inside {
                        oracle.get(i, j, k)
                    } else {
                        sentinel()
                    };
                    assert_eq!(
                        got.get(i, j, k).bit_pattern(),
                        want.bit_pattern(),
                        "{what}: n={:?} halo={} cell {p:?} (inside the box: {inside})",
                        got.n(),
                        oracle.halo() + 2,
                    );
                }
            }
        }
    }

    /// All four entry points against the oracle on one randomized case.
    fn differential_case<T: Scalar>(rng: &mut Rng, n: [usize; 3], halo: usize) {
        let coef = StencilCoeffs {
            c0: rng.finite(),
            m1: [rng.finite(), rng.finite(), rng.finite()],
            p1: [rng.finite(), rng.finite(), rng.finite()],
            m2: [rng.finite(), rng.finite(), rng.finite()],
            p2: [rng.finite(), rng.finite(), rng.finite()],
        };
        let mut input: Grid3<T> = Grid3::zeros(n, halo);
        salt(rng, &mut input);

        // The oracle over the widest box the halo admits, computed once.
        let e = halo - StencilCoeffs::HALO;
        let (ni, ei) = (n.map(|x| x as isize), e as isize);
        let mut oracle: Grid3<T> = Grid3::zeros(n, e);
        for i in -ei..ni[0] + ei {
            for j in -ei..ni[1] + ei {
                for k in -ei..ni[2] + ei {
                    oracle.set(i, j, k, oracle_point(&coef, &input, [i, j, k]));
                }
            }
        }

        let mut out = blank(n, 2 + rng.below(3));
        apply(&coef, &input, &mut out);
        check_box(&out, &oracle, [0; 3], ni, "apply");

        for x0 in 0..=n[0] {
            for x1 in x0..=n[0] {
                let mut out = blank(n, 2 + rng.below(3));
                apply_xrange(&coef, &input, &mut out, x0, x1);
                let (lo, hi) = ([x0 as isize, 0, 0], [x1 as isize, ni[1], ni[2]]);
                check_box(&out, &oracle, lo, hi, "apply_xrange");
            }
        }

        for parts in 1..=5 {
            let mut out = blank(n, halo);
            let bounds = slab_bounds(n[0], parts);
            let slabs = out.split_x_slabs(&bounds[1..bounds.len() - 1]);
            for (s, slab) in slabs.into_iter().enumerate() {
                apply_slab(&coef, &input, bounds[s], bounds[s + 1], slab);
            }
            check_box(&out, &oracle, [0; 3], ni, "apply_slab");
        }

        // Every (em, ep) the halo admits: (e+1)^6 boxes.
        let steps = e + 1;
        for code in 0..steps.pow(6) {
            let digit = |d: u32| code / steps.pow(d) % steps;
            let (em, ep) = (
                [digit(0), digit(1), digit(2)],
                [digit(3), digit(4), digit(5)],
            );
            let mut out = blank(n, e + rng.below(2));
            apply_region(&coef, &input, &mut out, em, ep);
            let lo = em.map(|x| -(x as isize));
            let hi = [0, 1, 2].map(|a| ni[a] + ep[a] as isize);
            check_box(&out, &oracle, lo, hi, "apply_region");
        }
    }

    fn differential_suite<T: Scalar>(seed: u64) {
        let mut rng = Rng(seed);
        for halo in 2..=4 {
            // Every row length 1..=9 — 1, 2 and 3 are shorter than the
            // stencil's reach — under random x/y extents.
            for nz in 1..=9 {
                let n = [1 + rng.below(9), 1 + rng.below(9), nz];
                differential_case::<T>(&mut rng, n, halo);
            }
        }
    }

    #[test]
    fn every_entry_point_matches_the_scalar_oracle_bitwise_f64() {
        differential_suite::<f64>(0x13);
    }

    #[test]
    fn every_entry_point_matches_the_scalar_oracle_bitwise_c64() {
        differential_suite::<C64>(0xC64);
    }

    #[test]
    fn slab_bounds_cover_and_dedup() {
        assert_eq!(slab_bounds(8, 4), vec![0, 2, 4, 6, 8]);
        assert_eq!(slab_bounds(3, 4), vec![0, 1, 2, 3]); // degenerate part removed
        assert_eq!(slab_bounds(1, 4), vec![0, 1]);
    }

    #[test]
    fn scaled_laplacian_shifts_the_diagonal() {
        let lap = StencilCoeffs::laplacian([0.5; 3]);
        let op = StencilCoeffs::scaled_laplacian(2.0, -0.5, [0.5; 3]);
        assert!((op.c0 - (2.0 - 0.5 * lap.c0)).abs() < 1e-12);
        assert!((op.p1[0] + 0.5 * lap.p1[0]).abs() < 1e-12);
        // Applied to a constant c: (α + β·0)·c = α·c.
        let mut input: Grid3<f64> = Grid3::from_fn([4, 4, 4], 2, |_, _, _| 3.0);
        let mut out = Grid3::zeros([4, 4, 4], 2);
        apply_sequential(&op, &mut input, &mut out, BoundaryCond::Periodic);
        for (_, v) in out.iter_interior() {
            assert!((v - 6.0).abs() < 1e-12);
        }
    }
}
