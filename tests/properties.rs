//! Randomized property tests on the core invariants: decomposition
//! coverage, halo round-trips, stencil algebra, batching invariance and
//! DES determinism.
//!
//! The harness is hand-rolled (seeded `SplitMix64` case loops) instead of
//! proptest so the workspace builds with zero external dependencies. Every
//! case derives from a fixed seed, so failures reproduce exactly; a failed
//! assertion reports the case index, from which the full input can be
//! regenerated.

use gpaw_repro::des::{EventQueue, SimDuration, SplitMix64};
use gpaw_repro::grid::decomp::{best_dims, factor_triples, surface_points, Decomposition};
use gpaw_repro::grid::grid3::Grid3;
use gpaw_repro::grid::gridset::{batch_indices, growing_batches};
use gpaw_repro::grid::halo::{pack_face_region, unpack_face_region, Side};
use gpaw_repro::grid::norms::max_abs_diff;
use gpaw_repro::grid::stencil::{apply, apply_sequential, BoundaryCond, StencilCoeffs};

const CASES: usize = 64;

fn usize_in(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u64) as usize
}

fn small_ext(rng: &mut SplitMix64) -> [usize; 3] {
    [
        usize_in(rng, 4, 12),
        usize_in(rng, 4, 12),
        usize_in(rng, 4, 12),
    ]
}

/// Every decomposition partitions the global index space exactly.
#[test]
fn decomposition_partitions() {
    let mut rng = SplitMix64::new(0xDECDEC01);
    for case in 0..CASES {
        let ext = small_ext(&mut rng);
        let dims = [
            usize_in(&mut rng, 1, 4),
            usize_in(&mut rng, 1, 4),
            usize_in(&mut rng, 1, 4),
        ];
        if (0..3).any(|i| dims[i] > ext[i]) {
            continue;
        }
        let d = Decomposition::new(ext, dims);
        let mut count = vec![0u8; ext[0] * ext[1] * ext[2]];
        for (_, sub) in d.iter() {
            for i in sub.start[0]..sub.end()[0] {
                for j in sub.start[1]..sub.end()[1] {
                    for k in sub.start[2]..sub.end()[2] {
                        count[(i * ext[1] + j) * ext[2] + k] += 1;
                    }
                }
            }
        }
        assert!(
            count.iter().all(|&c| c == 1),
            "case {case}: ext {ext:?} dims {dims:?} not an exact partition"
        );
    }
}

/// Per-axis extents differ by at most one plane across ranks.
#[test]
fn decomposition_is_balanced() {
    let mut rng = SplitMix64::new(0xDECDEC02);
    for case in 0..CASES {
        let ext = small_ext(&mut rng);
        let dims = [
            usize_in(&mut rng, 1, 4),
            usize_in(&mut rng, 1, 4),
            usize_in(&mut rng, 1, 4),
        ];
        if (0..3).any(|i| dims[i] > ext[i]) {
            continue;
        }
        let d = Decomposition::new(ext, dims);
        let mut min = usize::MAX;
        let mut max = 0usize;
        for (_, sub) in d.iter() {
            min = min.min(sub.ext[0]);
            max = max.max(sub.ext[0]);
        }
        assert!(
            max - min <= 1,
            "case {case}: ext {ext:?} dims {dims:?} unbalanced ({min}..{max})"
        );
    }
}

/// factor_triples are complete factorizations.
#[test]
fn factor_triples_multiply_back() {
    for n in 1usize..200 {
        let ts = factor_triples(n);
        assert!(!ts.is_empty(), "n={n}: no factorization");
        for t in ts {
            assert_eq!(t[0] * t[1] * t[2], n, "n={n}: bad triple {t:?}");
        }
    }
}

/// best_dims never beats brute force on the surface metric.
#[test]
fn best_dims_is_optimal() {
    let mut rng = SplitMix64::new(0xDECDEC03);
    for case in 0..CASES {
        let n = usize_in(&mut rng, 1, 65);
        let ext = [
            usize_in(&mut rng, 64, 100),
            usize_in(&mut rng, 64, 100),
            usize_in(&mut rng, 64, 100),
        ];
        let best = best_dims(n, ext);
        let best_surface = surface_points(ext, best);
        for t in factor_triples(n) {
            if (0..3).all(|i| t[i] <= ext[i]) {
                assert!(
                    best_surface <= surface_points(ext, t) + 1e-9,
                    "case {case}: n={n} ext {ext:?} — {best:?} loses to {t:?}"
                );
            }
        }
    }
}

/// Halo pack → unpack between two neighbor grids moves exactly the
/// sender's boundary planes.
#[test]
fn halo_round_trip() {
    let mut rng = SplitMix64::new(0xDECDEC04);
    for case in 0..CASES {
        let ext = small_ext(&mut rng);
        let axis = usize_in(&mut rng, 0, 3);
        let a: Grid3<f64> = {
            let mut vals = rng.split();
            Grid3::from_fn(ext, 2, move |_, _, _| vals.next_f64())
        };
        let mut b: Grid3<f64> = Grid3::zeros(ext, 2);
        let mut buf = Vec::new();
        let (h, wide) = (a.halo(), [0; 3]);
        pack_face_region(&a, axis, Side::High, h, wide, &mut buf);
        unpack_face_region(&mut b, axis, Side::Low, h, wide, &buf);
        // b's low ghost planes must equal a's high interior planes.
        let n = ext[axis];
        for p in 0..2usize {
            let src_plane = (n - 2 + p) as isize;
            let dst_plane = p as isize - 2;
            for j in 0..ext[(axis + 1) % 3] {
                for k in 0..ext[(axis + 2) % 3] {
                    let mut cs = [0isize; 3];
                    cs[axis] = src_plane;
                    cs[(axis + 1) % 3] = j as isize;
                    cs[(axis + 2) % 3] = k as isize;
                    let mut cd = cs;
                    cd[axis] = dst_plane;
                    assert_eq!(
                        a.get(cs[0], cs[1], cs[2]),
                        b.get(cd[0], cd[1], cd[2]),
                        "case {case}: ext {ext:?} axis {axis} plane {p}"
                    );
                }
            }
        }
    }
}

/// The stencil is linear: L(αf + βg) = αLf + βLg.
#[test]
fn stencil_linearity() {
    let mut rng = SplitMix64::new(0xDECDEC05);
    for case in 0..CASES {
        let ext = small_ext(&mut rng);
        let alpha = rng.next_f64() * 6.0 - 3.0;
        let beta = rng.next_f64() * 6.0 - 3.0;
        let coef = StencilCoeffs::laplacian([0.3; 3]);
        let f: Grid3<f64> = {
            let mut vals = rng.split();
            Grid3::from_fn(ext, 2, move |_, _, _| vals.next_f64() - 0.5)
        };
        let g: Grid3<f64> = {
            let mut vals = rng.split();
            Grid3::from_fn(ext, 2, move |_, _, _| vals.next_f64() - 0.5)
        };
        let mut combo: Grid3<f64> = Grid3::zeros(ext, 2);
        for i in 0..ext[0] as isize {
            for j in 0..ext[1] as isize {
                for k in 0..ext[2] as isize {
                    combo.set(i, j, k, alpha * f.get(i, j, k) + beta * g.get(i, j, k));
                }
            }
        }
        let apply_to = |input: &Grid3<f64>| {
            let mut x = input.clone();
            let mut out = Grid3::zeros(ext, 2);
            apply_sequential(&coef, &mut x, &mut out, BoundaryCond::Periodic);
            out
        };
        let lf = apply_to(&f);
        let lg = apply_to(&g);
        let lcombo = apply_to(&combo);
        let mut expect: Grid3<f64> = Grid3::zeros(ext, 2);
        for i in 0..ext[0] as isize {
            for j in 0..ext[1] as isize {
                for k in 0..ext[2] as isize {
                    expect.set(i, j, k, alpha * lf.get(i, j, k) + beta * lg.get(i, j, k));
                }
            }
        }
        assert!(
            max_abs_diff(&lcombo, &expect) < 1e-10,
            "case {case}: ext {ext:?} α={alpha} β={beta}"
        );
    }
}

/// Periodic translation invariance: shifting the input cyclically shifts
/// the output identically.
#[test]
fn stencil_translation_invariance() {
    let mut rng = SplitMix64::new(0xDECDEC06);
    for case in 0..CASES {
        let ext = small_ext(&mut rng);
        let shift = usize_in(&mut rng, 1, 4);
        let coef = StencilCoeffs::laplacian([0.25; 3]);
        let vals: Vec<f64> = (0..ext[0] * ext[1] * ext[2])
            .map(|_| rng.next_f64())
            .collect();
        let at = |i: usize, j: usize, k: usize| vals[(i * ext[1] + j) * ext[2] + k];
        let f: Grid3<f64> = Grid3::from_fn(ext, 2, &at);
        let f_shift: Grid3<f64> = Grid3::from_fn(ext, 2, |i, j, k| at((i + shift) % ext[0], j, k));
        let apply_to = |input: &Grid3<f64>| {
            let mut x = input.clone();
            let mut out = Grid3::zeros(ext, 2);
            apply_sequential(&coef, &mut x, &mut out, BoundaryCond::Periodic);
            out
        };
        let lf = apply_to(&f);
        let lf_shift = apply_to(&f_shift);
        for i in 0..ext[0] {
            for j in 0..ext[1] as isize {
                for k in 0..ext[2] as isize {
                    let a = lf.get(((i + shift) % ext[0]) as isize, j, k);
                    let b = lf_shift.get(i as isize, j, k);
                    assert!(
                        (a - b).abs() < 1e-12,
                        "case {case}: ext {ext:?} shift {shift} at ({i},{j},{k})"
                    );
                }
            }
        }
    }
}

/// Batch slicing covers every index exactly once, in order.
#[test]
fn batches_cover_exactly() {
    let mut rng = SplitMix64::new(0xDECDEC07);
    for _ in 0..CASES {
        let n = usize_in(&mut rng, 0, 100);
        let batch = usize_in(&mut rng, 1, 20);
        let ids: Vec<usize> = (0..n).collect();
        let flat: Vec<usize> = batch_indices(&ids, batch).concat();
        assert_eq!(flat, ids, "n={n} batch={batch}");
        let grown: Vec<usize> = growing_batches(&ids, batch, (batch / 2).max(1)).concat();
        assert_eq!(grown, ids, "n={n} batch={batch} (growing)");
    }
}

/// Event queue: any interleaving of schedules pops in non-decreasing time
/// order and never loses events.
#[test]
fn event_queue_orders_all() {
    let mut rng = SplitMix64::new(0xDECDEC08);
    for case in 0..CASES {
        let n = usize_in(&mut rng, 1, 300);
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut scheduled = 0usize;
        let mut popped = 0usize;
        let mut last = 0u64;
        for i in 0..n {
            q.schedule(SimDuration::from_ps(rng.next_below(10_000)), i);
            scheduled += 1;
            if rng.next_below(3) == 0 {
                if let Some((t, _)) = q.pop() {
                    assert!(t.0 >= last, "case {case}: time went backwards");
                    last = t.0;
                    popped += 1;
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            assert!(t.0 >= last, "case {case}: time went backwards in drain");
            last = t.0;
            popped += 1;
        }
        assert_eq!(scheduled, popped, "case {case}: lost events");
    }
}

/// Apply via whole-grid and via arbitrary slab splits agree.
#[test]
fn slab_split_composition_various_cuts() {
    let coef = StencilCoeffs::laplacian([0.2; 3]);
    let ext = [11, 7, 9];
    let mut input: Grid3<f64> = Grid3::from_fn(ext, 2, |i, j, k| ((i * 5 + j * 3 + k) % 13) as f64);
    input.fill_halo_periodic();
    let mut whole = Grid3::zeros(ext, 2);
    apply(&coef, &input, &mut whole);
    for cuts in [vec![], vec![5], vec![2, 7], vec![1, 4, 8]] {
        let mut slabbed: Grid3<f64> = Grid3::zeros(ext, 2);
        let mut bounds = vec![0];
        bounds.extend(&cuts);
        bounds.push(ext[0]);
        let slabs = slabbed.split_x_slabs(&cuts);
        for (s, slab) in slabs.into_iter().enumerate() {
            gpaw_repro::grid::stencil::apply_slab(&coef, &input, bounds[s], bounds[s + 1], slab);
        }
        assert_eq!(whole, slabbed, "cuts {cuts:?}");
    }
}
