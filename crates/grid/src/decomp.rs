//! GPAW's domain decomposition.
//!
//! Every real-space grid is divided into quadrilaterals, one per MPI
//! process, and — crucially — **every process gets the same subset of every
//! grid** (§IV), because steps like the wave-function orthogonalization
//! need matching subsets. When no user-defined decomposition is given, GPAW
//! picks the process-grid shape minimizing the aggregated halo surface.
//!
//! Extents that do not divide evenly are handled the standard way: the
//! first `ext % parts` processes along an axis get one extra plane.

use std::fmt;

/// The box of global indices a rank owns (identical across all grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subdomain {
    /// First global index per axis.
    pub start: [usize; 3],
    /// Extent per axis.
    pub ext: [usize; 3],
}

impl Subdomain {
    /// Points in the subdomain.
    pub fn points(&self) -> usize {
        self.ext[0] * self.ext[1] * self.ext[2]
    }

    /// Contiguous pencils (x·y rows).
    pub fn rows(&self) -> usize {
        self.ext[0] * self.ext[1]
    }

    /// Surface points a 2-deep halo exchange moves *out* of this subdomain
    /// per grid: two planes per side per axis.
    pub fn halo_surface_points(&self, halo: usize) -> usize {
        2 * halo
            * (self.ext[1] * self.ext[2] + self.ext[0] * self.ext[2] + self.ext[0] * self.ext[1])
    }

    /// Surface points sent through one face (for one direction along
    /// `axis`).
    pub fn face_points(&self, axis: usize, halo: usize) -> usize {
        let e = self.ext;
        halo * match axis {
            0 => e[1] * e[2],
            1 => e[0] * e[2],
            2 => e[0] * e[1],
            _ => panic!("axis out of range"),
        }
    }

    /// One-past-the-end global index per axis.
    pub fn end(&self) -> [usize; 3] {
        [
            self.start[0] + self.ext[0],
            self.start[1] + self.ext[1],
            self.start[2] + self.ext[2],
        ]
    }
}

impl fmt::Display for Subdomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}, {}..{}, {}..{}]",
            self.start[0],
            self.start[0] + self.ext[0],
            self.start[1],
            self.start[1] + self.ext[1],
            self.start[2],
            self.start[2] + self.ext[2],
        )
    }
}

/// A grid extent divided over a 3-D process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Global grid extents.
    pub grid_ext: [usize; 3],
    /// Process-grid extents.
    pub proc_dims: [usize; 3],
}

impl Decomposition {
    /// Decompose `grid_ext` over `proc_dims` processes.
    ///
    /// # Panics
    /// Panics if any axis has more processes than planes (a rank would own
    /// nothing) or fewer planes per rank than the stencil halo needs two
    /// neighbors for correctness is *not* required — sub-extents may be as
    /// small as 1; the halo exchange handles it.
    pub fn new(grid_ext: [usize; 3], proc_dims: [usize; 3]) -> Decomposition {
        for d in 0..3 {
            assert!(proc_dims[d] >= 1);
            assert!(
                proc_dims[d] <= grid_ext[d],
                "axis {d}: {} processes for {} planes",
                proc_dims[d],
                grid_ext[d]
            );
        }
        Decomposition {
            grid_ext,
            proc_dims,
        }
    }

    /// Number of processes.
    pub fn ranks(&self) -> usize {
        self.proc_dims.iter().product()
    }

    /// Extent owned by process index `p` along axis `d` (remainder spread
    /// over the leading processes).
    fn axis_ext(&self, d: usize, p: usize) -> usize {
        let n = self.grid_ext[d];
        let parts = self.proc_dims[d];
        n / parts + usize::from(p < n % parts)
    }

    /// Start index of process `p` along axis `d`.
    fn axis_start(&self, d: usize, p: usize) -> usize {
        let n = self.grid_ext[d];
        let parts = self.proc_dims[d];
        let base = n / parts;
        let rem = n % parts;
        p * base + p.min(rem)
    }

    /// The subdomain of the process at grid position `pc` (one coordinate
    /// per axis).
    pub fn subdomain(&self, pc: [usize; 3]) -> Subdomain {
        let mut start = [0; 3];
        let mut ext = [0; 3];
        for d in 0..3 {
            debug_assert!(pc[d] < self.proc_dims[d]);
            start[d] = self.axis_start(d, pc[d]);
            ext[d] = self.axis_ext(d, pc[d]);
        }
        Subdomain { start, ext }
    }

    /// Iterate `(process coordinate, subdomain)` pairs, z fastest.
    pub fn iter(&self) -> impl Iterator<Item = ([usize; 3], Subdomain)> + '_ {
        let [px, py, pz] = self.proc_dims;
        (0..px).flat_map(move |x| {
            (0..py).flat_map(move |y| (0..pz).map(move |z| ([x, y, z], self.subdomain([x, y, z]))))
        })
    }
}

/// All ordered factorizations of `n` into three factors.
pub fn factor_triples(n: usize) -> Vec<[usize; 3]> {
    let mut out = Vec::new();
    let mut a = 1;
    while a * a * a <= n * n * n {
        if a > n {
            break;
        }
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = 1;
            while b <= m {
                if m.is_multiple_of(b) {
                    out.push([a, b, m / b]);
                }
                b += 1;
            }
        }
        a += 1;
    }
    out
}

/// The aggregated two-deep halo surface (points) of decomposing `grid_ext`
/// over `proc_dims` — GPAW's objective function.
pub fn surface_points(grid_ext: [usize; 3], proc_dims: [usize; 3]) -> f64 {
    let sub = [
        grid_ext[0] as f64 / proc_dims[0] as f64,
        grid_ext[1] as f64 / proc_dims[1] as f64,
        grid_ext[2] as f64 / proc_dims[2] as f64,
    ];
    let per_rank = 4.0 * (sub[1] * sub[2] + sub[0] * sub[2] + sub[0] * sub[1]);
    per_rank * (proc_dims[0] * proc_dims[1] * proc_dims[2]) as f64
}

/// GPAW's default: the factorization of `ranks` minimizing the aggregated
/// surface (ties broken toward balanced shapes by enumeration order).
pub fn best_dims(ranks: usize, grid_ext: [usize; 3]) -> [usize; 3] {
    factor_triples(ranks)
        .into_iter()
        .filter(|d| (0..3).all(|i| d[i] <= grid_ext[i]))
        .min_by(|a, b| {
            surface_points(grid_ext, *a)
                .partial_cmp(&surface_points(grid_ext, *b))
                .expect("surface is finite")
        })
        .unwrap_or_else(|| panic!("no feasible decomposition of {ranks} ranks over {grid_ext:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let d = Decomposition::new([8, 8, 8], [2, 2, 2]);
        let s = d.subdomain([1, 0, 1]);
        assert_eq!(s.start, [4, 0, 4]);
        assert_eq!(s.ext, [4, 4, 4]);
        assert_eq!(s.points(), 64);
    }

    #[test]
    fn uneven_split_spreads_remainder() {
        let d = Decomposition::new([10, 4, 4], [3, 1, 1]);
        let exts: Vec<usize> = (0..3).map(|p| d.subdomain([p, 0, 0]).ext[0]).collect();
        assert_eq!(exts, vec![4, 3, 3]);
        let starts: Vec<usize> = (0..3).map(|p| d.subdomain([p, 0, 0]).start[0]).collect();
        assert_eq!(starts, vec![0, 4, 7]);
    }

    #[test]
    fn subdomains_partition_the_grid() {
        let d = Decomposition::new([13, 7, 9], [4, 2, 3]);
        let mut owned = vec![false; 13 * 7 * 9];
        for (_, s) in d.iter() {
            for i in s.start[0]..s.end()[0] {
                for j in s.start[1]..s.end()[1] {
                    for k in s.start[2]..s.end()[2] {
                        let idx = (i * 7 + j) * 9 + k;
                        assert!(!owned[idx], "double ownership at ({i},{j},{k})");
                        owned[idx] = true;
                    }
                }
            }
        }
        assert!(owned.iter().all(|&o| o), "grid must be fully covered");
    }

    #[test]
    fn factor_triples_complete_for_small_n() {
        let t = factor_triples(4);
        assert!(t.contains(&[1, 1, 4]));
        assert!(t.contains(&[1, 4, 1]));
        assert!(t.contains(&[4, 1, 1]));
        assert!(t.contains(&[1, 2, 2]));
        assert!(t.contains(&[2, 2, 1]));
        assert!(t.contains(&[2, 1, 2]));
        assert_eq!(t.len(), 6);
        for triple in factor_triples(24) {
            assert_eq!(triple.iter().product::<usize>(), 24);
        }
    }

    #[test]
    fn best_dims_is_balanced_for_cubes() {
        assert_eq!(best_dims(8, [144, 144, 144]), [2, 2, 2]);
        assert_eq!(best_dims(64, [192, 192, 192]), [4, 4, 4]);
        // Non-cubic grid pushes processes onto the long axis.
        let d = best_dims(4, [400, 10, 10]);
        assert_eq!(d, [4, 1, 1]);
    }

    #[test]
    fn halo_surface_counts() {
        let s = Subdomain {
            start: [0; 3],
            ext: [6, 6, 12],
        };
        // 2-deep: 2·2·(72 + 72 + 36) = 720 — the Fig. 6 arithmetic.
        assert_eq!(s.halo_surface_points(2), 720);
        assert_eq!(s.face_points(0, 2), 144);
        assert_eq!(s.face_points(2, 2), 72);
    }

    #[test]
    #[should_panic(expected = "processes for")]
    fn overdecomposition_is_rejected() {
        Decomposition::new([4, 4, 4], [5, 1, 1]);
    }
}
