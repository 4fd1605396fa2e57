//! Collections of real-space grids (wave functions).
//!
//! A GPAW system holds one electron density and *thousands* of wave
//! functions; all of them share the same extents, halo depth and
//! decomposition. `GridSet` is that collection, plus the bookkeeping the
//! engines need (assigning grids to threads, slicing into batches).

use crate::grid3::Grid3;
use crate::scalar::Scalar;

/// A set of same-shaped grids.
#[derive(Debug, Clone)]
pub struct GridSet<T> {
    grids: Vec<Grid3<T>>,
    n: [usize; 3],
    halo: usize,
}

impl<T: Scalar> GridSet<T> {
    /// `count` zero grids of interior extents `n` with `halo` ghost planes.
    pub fn zeros(count: usize, n: [usize; 3], halo: usize) -> GridSet<T> {
        GridSet {
            grids: (0..count).map(|_| Grid3::zeros(n, halo)).collect(),
            n,
            halo,
        }
    }

    /// Wrap existing grids (all must share extents and halo depth).
    pub fn from_grids(grids: Vec<Grid3<T>>) -> GridSet<T> {
        assert!(!grids.is_empty(), "a grid set needs at least one grid");
        let n = grids[0].n();
        let halo = grids[0].halo();
        assert!(
            grids.iter().all(|g| g.n() == n && g.halo() == halo),
            "grids in a set must share shape"
        );
        GridSet { grids, n, halo }
    }

    /// Build `count` grids, the `g`-th from `f(g, i, j, k)`.
    pub fn from_fn(
        count: usize,
        n: [usize; 3],
        halo: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> GridSet<T> {
        GridSet {
            grids: (0..count)
                .map(|g| Grid3::from_fn(n, halo, |i, j, k| f(g, i, j, k)))
                .collect(),
            n,
            halo,
        }
    }

    /// Number of grids.
    pub fn len(&self) -> usize {
        self.grids.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }

    /// Shared interior extents.
    pub fn n(&self) -> [usize; 3] {
        self.n
    }

    /// Shared halo depth.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Borrow one grid.
    pub fn grid(&self, g: usize) -> &Grid3<T> {
        &self.grids[g]
    }

    /// Mutably borrow one grid.
    pub fn grid_mut(&mut self, g: usize) -> &mut Grid3<T> {
        &mut self.grids[g]
    }

    /// Borrow all grids.
    pub fn grids(&self) -> &[Grid3<T>] {
        &self.grids
    }

    /// Mutably borrow all grids.
    pub fn grids_mut(&mut self) -> &mut [Grid3<T>] {
        &mut self.grids
    }

    /// The grid indices assigned to thread `t` of `threads` under the
    /// *hybrid multiple* distribution: whole grids, round-robin — no grid is
    /// split, so threads need no synchronization until the whole sweep is
    /// done (§VI).
    pub fn thread_partition(&self, t: usize, threads: usize) -> Vec<usize> {
        (0..self.len()).filter(|g| g % threads == t).collect()
    }

    /// Slice grid indices into batches of at most `batch` (§V-A batching).
    pub fn batches(&self, batch: usize) -> Vec<Vec<usize>> {
        batch_indices(&(0..self.len()).collect::<Vec<_>>(), batch)
    }
}

/// Slice an arbitrary index list into batches of at most `batch`.
pub fn batch_indices(ids: &[usize], batch: usize) -> Vec<Vec<usize>> {
    assert!(batch >= 1, "batch size must be positive");
    ids.chunks(batch).map(|c| c.to_vec()).collect()
}

/// Batches with a *growing* first batch (§V-A): start with `initial` grids
/// so the first computation can begin sooner, then continue with `batch`.
pub fn growing_batches(ids: &[usize], batch: usize, initial: usize) -> Vec<Vec<usize>> {
    assert!(batch >= 1 && initial >= 1);
    let initial = initial.min(batch);
    if ids.len() <= initial {
        return vec![ids.to_vec()];
    }
    let mut out = vec![ids[..initial].to_vec()];
    out.extend(ids[initial..].chunks(batch).map(|c| c.to_vec()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let s: GridSet<f64> = GridSet::zeros(5, [4, 4, 4], 2);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.grid(0).n(), [4, 4, 4]);
    }

    #[test]
    fn from_fn_distinguishes_grids() {
        let s: GridSet<f64> = GridSet::from_fn(3, [2, 2, 2], 2, |g, i, _, _| (g * 10 + i) as f64);
        assert_eq!(s.grid(0).get(1, 0, 0), 1.0);
        assert_eq!(s.grid(2).get(1, 0, 0), 21.0);
    }

    #[test]
    fn thread_partition_covers_all_grids_disjointly() {
        let s: GridSet<f64> = GridSet::zeros(10, [2, 2, 2], 2);
        let mut seen = [false; 10];
        for t in 0..4 {
            for g in s.thread_partition(t, 4) {
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Balanced to within one grid.
        let sizes: Vec<usize> = (0..4).map(|t| s.thread_partition(t, 4).len()).collect();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn batching() {
        let s: GridSet<f64> = GridSet::zeros(10, [2, 2, 2], 2);
        let b = s.batches(4);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], vec![0, 1, 2, 3]);
        assert_eq!(b[2], vec![8, 9]);
    }

    #[test]
    fn growing_batches_shrink_the_head() {
        let ids: Vec<usize> = (0..20).collect();
        let b = growing_batches(&ids, 8, 4);
        assert_eq!(b[0], vec![0, 1, 2, 3]);
        assert_eq!(b[1].len(), 8);
        assert_eq!(b[2].len(), 8);
        let total: usize = b.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn growing_batches_small_input() {
        let ids = vec![1, 2];
        assert_eq!(growing_batches(&ids, 8, 4), [vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        batch_indices(&[0, 1], 0);
    }
}
