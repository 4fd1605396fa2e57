//! `Grid3<T>`: a 3-D array with a halo shell.
//!
//! Interior extents `n = [nx, ny, nz]` are surrounded by `halo` ghost
//! planes on every side; storage is a single contiguous `Vec<T>` with z
//! fastest. Interior indices are addressed `0..n`, halo cells by signed
//! offsets (e.g. `get(-1, 0, 0)`), which keeps the stencil code readable
//! while the hot kernels work on raw slices.

use crate::scalar::Scalar;

/// A halo-padded 3-D grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<T> {
    n: [usize; 3],
    halo: usize,
    /// Padded extents (n + 2·halo).
    pad: [usize; 3],
    data: Vec<T>,
}

impl<T: Scalar> Grid3<T> {
    /// A zero-initialized grid of interior extents `n` with `halo` ghost
    /// planes per side.
    pub fn zeros(n: [usize; 3], halo: usize) -> Grid3<T> {
        assert!(n.iter().all(|&e| e > 0), "grid extents must be positive");
        let pad = [n[0] + 2 * halo, n[1] + 2 * halo, n[2] + 2 * halo];
        Grid3 {
            n,
            halo,
            pad,
            data: vec![T::zero(); pad[0] * pad[1] * pad[2]],
        }
    }

    /// Build a grid by evaluating `f(i, j, k)` over interior indices.
    pub fn from_fn(
        n: [usize; 3],
        halo: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Grid3<T> {
        let mut g = Grid3::zeros(n, halo);
        for i in 0..n[0] {
            for j in 0..n[1] {
                for k in 0..n[2] {
                    let idx = g.idx(i as isize, j as isize, k as isize);
                    g.data[idx] = f(i, j, k);
                }
            }
        }
        g
    }

    /// Interior extents.
    pub fn n(&self) -> [usize; 3] {
        self.n
    }

    /// Halo depth.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Padded extents.
    pub fn padded(&self) -> [usize; 3] {
        self.pad
    }

    /// Interior point count.
    pub fn interior_points(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Bytes of interior payload.
    pub fn interior_bytes(&self) -> u64 {
        (self.interior_points() * T::BYTES) as u64
    }

    /// Linear index of interior-relative coordinates; halo cells are
    /// reached with negative or ≥ n indices within the halo band.
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.n[0] as isize + h);
        debug_assert!(j >= -h && j < self.n[1] as isize + h);
        debug_assert!(k >= -h && k < self.n[2] as isize + h);
        let x = (i + h) as usize;
        let y = (j + h) as usize;
        let z = (k + h) as usize;
        (x * self.pad[1] + y) * self.pad[2] + z
    }

    /// Read a cell (interior or halo).
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> T {
        self.data[self.idx(i, j, k)]
    }

    /// Write a cell (interior or halo).
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: T) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw storage (padded layout).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (padded layout).
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Stride between consecutive x planes / y rows in the padded layout:
    /// `(y_stride, x_stride)`.
    pub fn strides(&self) -> (usize, usize) {
        (self.pad[2], self.pad[1] * self.pad[2])
    }

    /// Zero every halo cell (used before zero-boundary stencils).
    ///
    /// Walks rows, not cells: a row outside the interior x/y extents is
    /// all halo, any other row is halo only in its first and last `halo`
    /// points.
    pub fn clear_halo(&mut self) {
        let (h, [nx, ny, nz], py) = (self.halo, self.n, self.pad[1]);
        for (r, row) in self.data.chunks_exact_mut(self.pad[2]).enumerate() {
            if (h..h + nx).contains(&(r / py)) && (h..h + ny).contains(&(r % py)) {
                row[..h].fill(T::zero());
                row[h + nz..].fill(T::zero());
            } else {
                row.fill(T::zero());
            }
        }
    }

    /// Fill the halo from the grid's own interior with periodic wrapping —
    /// the single-rank (sequential reference) version of a halo exchange.
    ///
    /// Every coordinate wraps independently, so edge and corner ghosts are
    /// filled too (the star stencil never reads them, but a fully defined
    /// shell keeps the reference simple). Row-wise: a ghost row first takes
    /// its periodic image row's interior run, then every row wraps its own
    /// z ghosts from its (by then current) interior run.
    pub fn fill_halo_periodic(&mut self) {
        let (h, n, pad) = (self.halo, self.n, self.pad);
        // Padded coordinate of the interior cell a padded coordinate images.
        let wrap =
            |p: usize, n: usize| h + (p as isize - h as isize).rem_euclid(n as isize) as usize;
        for x in 0..pad[0] {
            for y in 0..pad[1] {
                let row = (x * pad[1] + y) * pad[2];
                let (wx, wy) = (wrap(x, n[0]), wrap(y, n[1]));
                if (wx, wy) != (x, y) {
                    let image = (wx * pad[1] + wy) * pad[2] + h;
                    self.data.copy_within(image..image + n[2], row + h);
                }
                for z in (0..h).chain(h + n[2]..pad[2]) {
                    self.data[row + z] = self.data[row + wrap(z, n[2])];
                }
            }
        }
    }

    /// Copy another grid's interior into ours (extents must match).
    pub fn copy_interior_from(&mut self, other: &Grid3<T>) {
        assert_eq!(self.n, other.n);
        let nz = self.n[2];
        for i in 0..self.n[0] as isize {
            for j in 0..self.n[1] as isize {
                let (to, from) = (self.idx(i, j, 0), other.idx(i, j, 0));
                self.data[to..to + nz].copy_from_slice(&other.data[from..from + nz]);
            }
        }
    }

    /// Split the storage into disjoint mutable x-slabs at the interior cut
    /// points `cuts` (ascending, `0 < cuts[i] < nx`): returns `cuts.len()+1`
    /// slices, the `s`-th covering the padded planes of interior x range
    /// `[prev_cut, cut)`. Because x-planes are contiguous in the padded
    /// layout, the split is safe and allocation-free — this is what lets
    /// the *hybrid master-only* threads write one output grid concurrently.
    ///
    /// Each returned slice starts at the padded plane of its first interior
    /// x index; pair it with [`crate::stencil::apply_slab`].
    pub fn split_x_slabs(&mut self, cuts: &[usize]) -> Vec<&mut [T]> {
        let nx = self.n[0];
        let h = self.halo;
        let plane = self.pad[1] * self.pad[2];
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(0);
        for &c in cuts {
            assert!(c > 0 && c < nx, "cut {c} out of range 0..{nx}");
            assert!(*bounds.last().expect("non-empty") < c, "cuts must ascend");
            bounds.push(c);
        }
        bounds.push(nx);

        let mut out = Vec::with_capacity(bounds.len() - 1);
        // Skip the low halo planes, then peel one slab per interval.
        let (_, mut rest) = self.data.split_at_mut(h * plane);
        for w in bounds.windows(2) {
            let planes = w[1] - w[0];
            let (slab, tail) = rest.split_at_mut(planes * plane);
            out.push(slab);
            rest = tail;
        }
        out
    }

    /// Iterate interior values with their indices.
    pub fn iter_interior(&self) -> impl Iterator<Item = ([usize; 3], T)> + '_ {
        let n = self.n;
        (0..n[0]).flat_map(move |i| {
            (0..n[1]).flat_map(move |j| {
                (0..n[2]).map(move |k| ([i, j, k], self.get(i as isize, j as isize, k as isize)))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    #[test]
    fn construction_and_extents() {
        let g: Grid3<f64> = Grid3::zeros([4, 5, 6], 2);
        assert_eq!(g.n(), [4, 5, 6]);
        assert_eq!(g.padded(), [8, 9, 10]);
        assert_eq!(g.interior_points(), 120);
        assert_eq!(g.interior_bytes(), 960);
        assert_eq!(g.data().len(), 720);
    }

    #[test]
    fn get_set_round_trip_including_halo() {
        let mut g: Grid3<f64> = Grid3::zeros([3, 3, 3], 2);
        g.set(0, 0, 0, 1.5);
        g.set(-2, 2, 4, 2.5); // halo cells
        assert_eq!(g.get(0, 0, 0), 1.5);
        assert_eq!(g.get(-2, 2, 4), 2.5);
    }

    #[test]
    fn from_fn_fills_interior() {
        let g: Grid3<f64> = Grid3::from_fn([2, 2, 2], 1, |i, j, k| (i * 4 + j * 2 + k) as f64);
        assert_eq!(g.get(1, 1, 1), 7.0);
        assert_eq!(g.get(0, 1, 0), 2.0);
        // Halo untouched (zero).
        assert_eq!(g.get(-1, 0, 0), 0.0);
    }

    #[test]
    fn periodic_halo_fill_wraps() {
        let g0: Grid3<f64> = Grid3::from_fn([3, 3, 3], 2, |i, j, k| (i * 9 + j * 3 + k) as f64);
        let mut g = g0.clone();
        g.fill_halo_periodic();
        // The -1 x-plane equals the x = 2 plane.
        for j in 0..3isize {
            for k in 0..3isize {
                assert_eq!(g.get(-1, j, k), g.get(2, j, k));
                assert_eq!(g.get(3, j, k), g.get(0, j, k));
                assert_eq!(g.get(-2, j, k), g.get(1, j, k));
                assert_eq!(g.get(4, j, k), g.get(1, j, k));
            }
        }
        // Interior untouched.
        assert_eq!(g.get(1, 1, 1), g0.get(1, 1, 1));
    }

    #[test]
    fn clear_halo_only_clears_halo() {
        let mut g: Grid3<f64> = Grid3::from_fn([2, 2, 2], 1, |_, _, _| 7.0);
        g.fill_halo_periodic();
        g.clear_halo();
        assert_eq!(g.get(-1, 0, 0), 0.0);
        assert_eq!(g.get(0, 0, 0), 7.0);
    }

    /// The per-cell walks `clear_halo` and `fill_halo_periodic` replaced,
    /// kept as their references: visit every padded cell, test whether it
    /// is interior, wrap each coordinate independently.
    fn shell_reference(g: &mut Grid3<f64>, periodic: bool) {
        let h = g.halo() as isize;
        let [nx, ny, nz] = g.n().map(|e| e as isize);
        for i in -h..nx + h {
            for j in -h..ny + h {
                for k in -h..nz + h {
                    if (0..nx).contains(&i) && (0..ny).contains(&j) && (0..nz).contains(&k) {
                        continue;
                    }
                    let v = if periodic {
                        g.get(i.rem_euclid(nx), j.rem_euclid(ny), k.rem_euclid(nz))
                    } else {
                        0.0
                    };
                    g.set(i, j, k, v);
                }
            }
        }
    }

    #[test]
    fn shell_walks_match_the_per_cell_reference_cell_for_cell() {
        // Uneven extents, extents smaller than the halo (multiple wraps),
        // halo 0..=4; ghosts start as garbage so a missed cell shows.
        let extents = [
            [1, 1, 1],
            [1, 4, 2],
            [2, 1, 5],
            [3, 5, 4],
            [7, 2, 3],
            [5, 6, 9],
        ];
        for n in extents {
            for halo in 0..=4 {
                for periodic in [true, false] {
                    let mut g: Grid3<f64> =
                        Grid3::from_fn(n, halo, |i, j, k| (1 + i * 100 + j * 10 + k) as f64);
                    let interior: Vec<_> = g.iter_interior().collect();
                    for (c, v) in g.data_mut().iter_mut().enumerate() {
                        if *v == 0.0 {
                            *v = -(c as f64) - 0.5;
                        }
                    }
                    let mut want = g.clone();
                    shell_reference(&mut want, periodic);
                    if periodic {
                        g.fill_halo_periodic();
                    } else {
                        g.clear_halo();
                    }
                    assert_eq!(g, want, "n={n:?} halo={halo} periodic={periodic}");
                    assert_eq!(g.iter_interior().collect::<Vec<_>>(), interior);
                }
            }
        }
    }

    #[test]
    fn copy_interior_crosses_halo_depths_and_leaves_ghosts_alone() {
        let a: Grid3<f64> = Grid3::from_fn([3, 4, 5], 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let mut b: Grid3<f64> = Grid3::zeros([3, 4, 5], 3);
        b.data_mut().fill(-1.0);
        b.copy_interior_from(&a);
        assert_eq!(
            b.iter_interior().collect::<Vec<_>>(),
            a.iter_interior().collect::<Vec<_>>()
        );
        let ghosts = b.data().iter().filter(|&&v| v == -1.0).count();
        assert_eq!(ghosts, b.data().len() - b.interior_points());
    }

    #[test]
    fn complex_grids_work() {
        let g: Grid3<C64> = Grid3::from_fn([2, 2, 2], 2, |i, _, _| C64::new(i as f64, 1.0));
        assert_eq!(g.get(1, 0, 0), C64::new(1.0, 1.0));
        assert_eq!(g.interior_bytes(), 8 * 16);
    }

    #[test]
    fn copy_interior() {
        let a: Grid3<f64> = Grid3::from_fn([3, 3, 3], 2, |i, j, k| (i + j + k) as f64);
        let mut b: Grid3<f64> = Grid3::zeros([3, 3, 3], 2);
        b.copy_interior_from(&a);
        assert_eq!(b.get(2, 1, 0), 3.0);
    }

    #[test]
    fn iter_interior_covers_everything_once() {
        let g: Grid3<f64> = Grid3::from_fn([2, 3, 4], 1, |i, j, k| (i * 12 + j * 4 + k) as f64);
        let collected: Vec<_> = g.iter_interior().collect();
        assert_eq!(collected.len(), 24);
        assert_eq!(collected[0], ([0, 0, 0], 0.0));
        assert_eq!(collected[23], ([1, 2, 3], 23.0));
    }
}
