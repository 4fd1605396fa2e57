//! 3-D torus / mesh topology: coordinates, neighbors, dimension-ordered
//! routing.
//!
//! Blue Gene/P point-to-point traffic travels the 3-D torus. A partition of
//! at least 512 nodes closes the wrap-around links and forms a true torus;
//! smaller partitions are open meshes, where a "periodic" neighbor at the
//! surface is reached the long way around through every intermediate node —
//! exactly the asymmetry the paper warns about when it recommends torus
//! partitions for periodic boundary conditions.

use std::fmt;

/// One of the three torus axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// First (x) dimension.
    X,
    /// Second (y) dimension.
    Y,
    /// Third (z) dimension.
    Z,
}

impl Axis {
    /// All three axes in order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Index of the axis (X=0, Y=1, Z=2).
    pub const fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// Direction of travel along an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Toward smaller coordinates.
    Minus,
    /// Toward larger coordinates.
    Plus,
}

impl Dir {
    /// Both directions.
    pub const ALL: [Dir; 2] = [Dir::Minus, Dir::Plus];

    /// The opposite direction.
    pub const fn opposite(self) -> Dir {
        match self {
            Dir::Minus => Dir::Plus,
            Dir::Plus => Dir::Minus,
        }
    }

    /// +1 / -1 as an isize.
    pub const fn sign(self) -> isize {
        match self {
            Dir::Minus => -1,
            Dir::Plus => 1,
        }
    }
}

/// One of the six directed link classes out of a node (`(axis, dir)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkDir {
    /// Axis of travel.
    pub axis: Axis,
    /// Direction along the axis.
    pub dir: Dir,
}

impl LinkDir {
    /// All six directed link classes.
    pub const ALL: [LinkDir; 6] = [
        LinkDir {
            axis: Axis::X,
            dir: Dir::Minus,
        },
        LinkDir {
            axis: Axis::X,
            dir: Dir::Plus,
        },
        LinkDir {
            axis: Axis::Y,
            dir: Dir::Minus,
        },
        LinkDir {
            axis: Axis::Y,
            dir: Dir::Plus,
        },
        LinkDir {
            axis: Axis::Z,
            dir: Dir::Minus,
        },
        LinkDir {
            axis: Axis::Z,
            dir: Dir::Plus,
        },
    ];

    /// Dense index 0..6 (axis-major, minus before plus).
    pub const fn index(self) -> usize {
        self.axis.index() * 2
            + match self.dir {
                Dir::Minus => 0,
                Dir::Plus => 1,
            }
    }
}

/// A node (or process) coordinate in a 3-D shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord(pub [usize; 3]);

impl Coord {
    /// Coordinate along `axis`.
    pub fn get(self, axis: Axis) -> usize {
        self.0[axis.index()]
    }

    /// Copy with `axis` set to `v`.
    pub fn with(mut self, axis: Axis, v: usize) -> Coord {
        self.0[axis.index()] = v;
        self
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.0[0], self.0[1], self.0[2])
    }
}

/// A 3-D grid of nodes, optionally wrapped into a torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Extent along each axis.
    pub dims: [usize; 3],
    /// True for a torus (wrap-around links exist), false for an open mesh.
    pub wrap: bool,
}

impl Shape {
    /// A torus of the given extents.
    pub fn torus(dims: [usize; 3]) -> Shape {
        Shape { dims, wrap: true }
    }

    /// An open mesh of the given extents.
    pub fn mesh(dims: [usize; 3]) -> Shape {
        Shape { dims, wrap: false }
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True when the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `c` lies inside the shape.
    pub fn contains(&self, c: Coord) -> bool {
        c.0[0] < self.dims[0] && c.0[1] < self.dims[1] && c.0[2] < self.dims[2]
    }

    /// Linear index of a coordinate (z fastest).
    pub fn index(&self, c: Coord) -> usize {
        debug_assert!(self.contains(c));
        (c.0[0] * self.dims[1] + c.0[1]) * self.dims[2] + c.0[2]
    }

    /// Coordinate of a linear index.
    pub fn coord(&self, idx: usize) -> Coord {
        debug_assert!(idx < self.len());
        let z = idx % self.dims[2];
        let y = (idx / self.dims[2]) % self.dims[1];
        let x = idx / (self.dims[1] * self.dims[2]);
        Coord([x, y, z])
    }

    /// The neighboring coordinate one step along `axis` in `dir`.
    ///
    /// On a torus this always exists (wraps). On a mesh it is `None` at the
    /// surface.
    pub fn neighbor(&self, c: Coord, axis: Axis, dir: Dir) -> Option<Coord> {
        let n = self.dims[axis.index()];
        let v = c.get(axis);
        let nv = match dir {
            Dir::Plus => {
                if v + 1 < n {
                    v + 1
                } else if self.wrap {
                    0
                } else {
                    return None;
                }
            }
            Dir::Minus => {
                if v > 0 {
                    v - 1
                } else if self.wrap {
                    n - 1
                } else {
                    return None;
                }
            }
        };
        Some(c.with(axis, nv))
    }

    /// The coordinate of the node that is the *logical periodic* neighbor
    /// of `c` along `axis`/`dir` — always defined, even on a mesh (where
    /// reaching it may take many hops).
    pub fn periodic_neighbor(&self, c: Coord, axis: Axis, dir: Dir) -> Coord {
        let n = self.dims[axis.index()];
        let v = c.get(axis);
        let nv = match dir {
            Dir::Plus => (v + 1) % n,
            Dir::Minus => (v + n - 1) % n,
        };
        c.with(axis, nv)
    }

    /// Signed per-axis displacement of the dimension-ordered route from `a`
    /// to `b`: positive = travel Plus. On a torus the shorter way around is
    /// chosen (ties go Plus); on a mesh only the direct way exists.
    pub fn displacement(&self, a: Coord, b: Coord) -> [isize; 3] {
        let mut d = [0isize; 3];
        for axis in Axis::ALL {
            let n = self.dims[axis.index()] as isize;
            let raw = b.get(axis) as isize - a.get(axis) as isize;
            d[axis.index()] = if self.wrap {
                // Shortest signed displacement on a ring of length n.
                let m = raw.rem_euclid(n);
                if m * 2 <= n {
                    m
                } else {
                    m - n
                }
            } else {
                raw
            };
        }
        d
    }

    /// Number of hops of the dimension-ordered route from `a` to `b`.
    pub fn hop_distance(&self, a: Coord, b: Coord) -> usize {
        self.displacement(a, b)
            .iter()
            .map(|d| d.unsigned_abs())
            .sum()
    }

    /// The dimension-ordered (X, then Y, then Z) route from `a` to `b` as a
    /// list of `(node, outgoing link)` pairs — the links whose bandwidth the
    /// message consumes.
    pub fn route(&self, a: Coord, b: Coord) -> Vec<(Coord, LinkDir)> {
        let disp = self.displacement(a, b);
        let mut hops = Vec::with_capacity(self.hop_distance(a, b));
        let mut cur = a;
        for axis in Axis::ALL {
            let d = disp[axis.index()];
            let dir = if d >= 0 { Dir::Plus } else { Dir::Minus };
            for _ in 0..d.unsigned_abs() {
                hops.push((cur, LinkDir { axis, dir }));
                cur = self
                    .neighbor(cur, axis, dir)
                    .expect("route stepped off the mesh");
            }
        }
        debug_assert_eq!(cur, b, "route must terminate at the destination");
        hops
    }

    /// Iterate all coordinates (z fastest).
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.len()).map(|i| self.coord(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coord_round_trip() {
        let s = Shape::torus([3, 4, 5]);
        for i in 0..s.len() {
            assert_eq!(s.index(s.coord(i)), i);
        }
    }

    #[test]
    fn torus_neighbors_wrap() {
        let s = Shape::torus([4, 4, 4]);
        let c = Coord([0, 0, 0]);
        assert_eq!(s.neighbor(c, Axis::X, Dir::Minus), Some(Coord([3, 0, 0])));
        assert_eq!(s.neighbor(c, Axis::Z, Dir::Plus), Some(Coord([0, 0, 1])));
    }

    #[test]
    fn mesh_neighbors_stop_at_surface() {
        let s = Shape::mesh([4, 4, 4]);
        let c = Coord([0, 0, 0]);
        assert_eq!(s.neighbor(c, Axis::X, Dir::Minus), None);
        assert_eq!(s.neighbor(c, Axis::X, Dir::Plus), Some(Coord([1, 0, 0])));
        // The periodic neighbor still exists logically...
        assert_eq!(
            s.periodic_neighbor(c, Axis::X, Dir::Minus),
            Coord([3, 0, 0])
        );
        // ...but is 3 hops away instead of 1.
        assert_eq!(s.hop_distance(c, Coord([3, 0, 0])), 3);
    }

    #[test]
    fn torus_takes_shorter_way_around() {
        let s = Shape::torus([8, 1, 1]);
        let a = Coord([0, 0, 0]);
        let b = Coord([7, 0, 0]);
        assert_eq!(s.hop_distance(a, b), 1); // wrap -x
        assert_eq!(s.displacement(a, b), [-1, 0, 0]);
        let c = Coord([5, 0, 0]);
        assert_eq!(s.hop_distance(a, c), 3); // wrap is shorter: -3
        assert_eq!(s.displacement(a, c), [-3, 0, 0]);
        let d = Coord([4, 0, 0]);
        assert_eq!(s.displacement(a, d), [4, 0, 0]); // tie goes Plus
    }

    #[test]
    fn route_is_dimension_ordered_and_terminates() {
        let s = Shape::torus([4, 4, 4]);
        let a = Coord([0, 0, 0]);
        let b = Coord([2, 3, 1]);
        let route = s.route(a, b);
        assert_eq!(route.len(), s.hop_distance(a, b));
        // X hops first, then Y, then Z.
        let axes: Vec<Axis> = route.iter().map(|(_, l)| l.axis).collect();
        let mut sorted = axes.clone();
        sorted.sort();
        assert_eq!(axes, sorted);
        // First hop leaves a.
        assert_eq!(route[0].0, a);
    }

    #[test]
    fn route_to_self_is_empty() {
        let s = Shape::torus([4, 4, 4]);
        let c = Coord([1, 2, 3]);
        assert!(s.route(c, c).is_empty());
        assert_eq!(s.hop_distance(c, c), 0);
    }

    #[test]
    fn mesh_route_crosses_whole_extent_for_wrap_traffic() {
        // On a 256-node mesh the periodic exchange of the surface processes
        // crosses the full extent — the effect the paper's torus requirement
        // avoids.
        let s = Shape::mesh([8, 8, 4]);
        let a = Coord([7, 0, 0]);
        let b = s.periodic_neighbor(a, Axis::X, Dir::Plus);
        assert_eq!(b, Coord([0, 0, 0]));
        let route = s.route(a, b);
        assert_eq!(route.len(), 7);
        // Every intermediate node's -x link is consumed.
        assert!(route.iter().all(|(_, l)| l.axis == Axis::X));
        assert!(route.iter().all(|(_, l)| l.dir == Dir::Minus));
    }

    #[test]
    fn link_dir_indexing() {
        for (i, l) in LinkDir::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn displacement_round_trips_on_torus() {
        let s = Shape::torus([5, 3, 7]);
        for a in s.iter() {
            for axis in Axis::ALL {
                for dir in Dir::ALL {
                    let b = s.periodic_neighbor(a, axis, dir);
                    assert_eq!(s.hop_distance(a, b), 1);
                }
            }
        }
    }
}
