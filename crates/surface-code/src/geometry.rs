//! Planar surface-code lattice geometry for the bit-flip (X-error) sector.
//!
//! The QECOOL paper decodes Pauli-X and Pauli-Z errors independently on two
//! mirror-image lattices; all of its experiments report the X sector
//! (footnote 2 of the paper). This module models that sector:
//!
//! * **Ancillas** form a `d` (rows) × `d − 1` (columns) grid — the same
//!   `d × (d − 1)` grid the hardware Units occupy in Fig. 5 of the paper.
//! * **Data qubits** are the edges of the matching graph:
//!   * *horizontal* edges connect ancillas within a row and connect the
//!     outermost columns to the open **west**/**east** boundaries (`d` per
//!     row, `d²` total);
//!   * *vertical* edges connect ancillas within a column
//!     (`(d − 1)²` total).
//!
//!   This yields `d² + (d − 1)²` data qubits, the textbook planar-code count.
//! * A **logical X** operator is any west→east chain of `d` horizontal
//!   edges; residual-error logical parity is evaluated on the west-boundary
//!   cut.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error raised when constructing a [`Lattice`] with an unsupported distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeError {
    distance: usize,
}

impl LatticeError {
    /// The rejected code distance.
    pub fn distance(&self) -> usize {
        self.distance
    }
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.distance > Lattice::MAX_DISTANCE {
            write!(
                f,
                "code distance must be at most {}, got {}",
                Lattice::MAX_DISTANCE,
                self.distance
            )
        } else {
            write!(
                f,
                "code distance must be an odd integer >= 3, got {}",
                self.distance
            )
        }
    }
}

impl std::error::Error for LatticeError {}

/// One of the two open boundaries of the planar code (X sector).
///
/// Error chains may terminate on either boundary undetected; the decoder's
/// Boundary Units (paper §III-A, Fig. 2(c)) stand in for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Boundary {
    /// The boundary west of ancilla column 0.
    West,
    /// The boundary east of ancilla column `d − 2`.
    East,
}

impl fmt::Display for Boundary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Boundary::West => write!(f, "west"),
            Boundary::East => write!(f, "east"),
        }
    }
}

/// Grid coordinates of a syndrome ancilla (row-major, `row < d`,
/// `col < d − 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ancilla {
    /// Row index, `0..d`.
    pub row: usize,
    /// Column index, `0..d − 1`.
    pub col: usize,
}

impl Ancilla {
    /// Creates an ancilla coordinate.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

impl fmt::Display for Ancilla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a({},{})", self.row, self.col)
    }
}

/// Classification of a data-qubit edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Horizontal edge at `(row, pos)`: west boundary ↔ column 0 when
    /// `pos == 0`, column `pos − 1` ↔ column `pos` for interior positions,
    /// column `d − 2` ↔ east boundary when `pos == d − 1`.
    Horizontal {
        /// Ancilla row the edge lies in.
        row: usize,
        /// Horizontal position, `0..d`.
        pos: usize,
    },
    /// Vertical edge between ancillas `(row, col)` and `(row + 1, col)`.
    Vertical {
        /// Upper ancilla row, `0..d − 1`.
        row: usize,
        /// Ancilla column.
        col: usize,
    },
}

/// Identifier of a data qubit (an edge of the matching graph).
///
/// `Edge` is a dense index in `0..lattice.num_data_qubits()`; use
/// [`Lattice::edge_kind`] to recover its geometric meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge(pub usize);

impl Edge {
    /// The dense index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Planar surface-code lattice (X sector) of odd code distance `d ≥ 3`.
///
/// The lattice is immutable after construction and provides all index
/// arithmetic: ancilla ↔ dense index, edge ↔ dense index, stabilizer
/// supports, and the routing paths the spike-based decoder and MWPM decoder
/// both use.
///
/// # Example
///
/// ```
/// use qecool_surface_code::Lattice;
///
/// # fn main() -> Result<(), qecool_surface_code::LatticeError> {
/// let lat = Lattice::new(5)?;
/// assert_eq!(lat.num_ancillas(), 5 * 4);
/// assert_eq!(lat.num_data_qubits(), 5 * 5 + 4 * 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    d: usize,
    /// Stabilizer support, indexed by dense ancilla index.
    supports: Vec<Vec<Edge>>,
}

impl Lattice {
    /// The largest supported code distance, far above the paper's 13.
    ///
    /// The decoders index nodes and edges with `u32`: the union-find
    /// graph of the default `3d`-round window has `3d²(d + 1)` nodes and
    /// about `9d³` edges, about 5.0e7 and 1.5e8 at d = 255, well inside
    /// `u32`. The bound also keeps a distance read from outside from
    /// sizing the lattice tables, which grow as d², into an allocation
    /// that cannot succeed.
    pub const MAX_DISTANCE: usize = 255;

    /// Builds the lattice for code distance `d`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError`] unless `d` is an odd integer with
    /// `3 ≤ d ≤` [`Self::MAX_DISTANCE`].
    pub fn new(d: usize) -> Result<Self, LatticeError> {
        if d < 3 || d.is_multiple_of(2) || d > Self::MAX_DISTANCE {
            return Err(LatticeError { distance: d });
        }
        let mut lat = Self {
            d,
            supports: Vec::new(),
        };
        lat.supports = (0..lat.num_ancillas())
            .map(|idx| lat.compute_support(lat.ancilla_from_index(idx)))
            .collect();
        Ok(lat)
    }

    /// Code distance.
    pub fn distance(&self) -> usize {
        self.d
    }

    /// Number of ancilla rows (`d`).
    pub fn rows(&self) -> usize {
        self.d
    }

    /// Number of ancilla columns (`d − 1`).
    pub fn cols(&self) -> usize {
        self.d - 1
    }

    /// Number of syndrome ancillas, `d · (d − 1)`.
    ///
    /// This equals the number of hardware Units per error sector in the
    /// paper's architecture (§IV-A).
    pub fn num_ancillas(&self) -> usize {
        self.d * (self.d - 1)
    }

    /// Number of data qubits relevant to this sector, `d² + (d − 1)²`.
    pub fn num_data_qubits(&self) -> usize {
        self.d * self.d + (self.d - 1) * (self.d - 1)
    }

    /// Dense index of an ancilla (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    #[inline]
    pub fn ancilla_index(&self, a: Ancilla) -> usize {
        assert!(
            a.row < self.rows() && a.col < self.cols(),
            "ancilla {a} outside {}x{} grid",
            self.rows(),
            self.cols()
        );
        a.row * self.cols() + a.col
    }

    /// Ancilla coordinate for a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_ancillas()`.
    #[inline]
    pub fn ancilla_from_index(&self, idx: usize) -> Ancilla {
        assert!(idx < self.num_ancillas(), "ancilla index out of range");
        Ancilla::new(idx / self.cols(), idx % self.cols())
    }

    /// Iterates over all ancillas in row-major (token raster) order.
    pub fn ancillas(&self) -> impl Iterator<Item = Ancilla> + '_ {
        (0..self.num_ancillas()).map(|i| self.ancilla_from_index(i))
    }

    /// The horizontal data-qubit edge at `(row, pos)`; see
    /// [`EdgeKind::Horizontal`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= d` or `pos >= d`.
    #[inline]
    pub fn horizontal_edge(&self, row: usize, pos: usize) -> Edge {
        assert!(row < self.d && pos < self.d, "horizontal edge out of range");
        Edge(row * self.d + pos)
    }

    /// The vertical data-qubit edge between `(row, col)` and `(row + 1, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= d − 1` or `col >= d − 1`.
    #[inline]
    pub fn vertical_edge(&self, row: usize, col: usize) -> Edge {
        assert!(
            row < self.d - 1 && col < self.d - 1,
            "vertical edge out of range"
        );
        Edge(self.d * self.d + row * (self.d - 1) + col)
    }

    /// Geometric classification of a dense edge index.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    pub fn edge_kind(&self, e: Edge) -> EdgeKind {
        let h = self.d * self.d;
        if e.0 < h {
            EdgeKind::Horizontal {
                row: e.0 / self.d,
                pos: e.0 % self.d,
            }
        } else {
            let v = e.0 - h;
            assert!(
                v < (self.d - 1) * (self.d - 1),
                "edge index {} out of range",
                e.0
            );
            EdgeKind::Vertical {
                row: v / (self.d - 1),
                col: v % (self.d - 1),
            }
        }
    }

    fn compute_support(&self, a: Ancilla) -> Vec<Edge> {
        let mut edges = vec![
            self.horizontal_edge(a.row, a.col),
            self.horizontal_edge(a.row, a.col + 1),
        ];
        if a.row > 0 {
            edges.push(self.vertical_edge(a.row - 1, a.col));
        }
        if a.row < self.d - 1 {
            edges.push(self.vertical_edge(a.row, a.col));
        }
        edges
    }

    /// The data qubits whose X errors flip the given ancilla (its stabilizer
    /// support): two horizontal neighbours plus one or two vertical
    /// neighbours.
    pub fn support(&self, a: Ancilla) -> &[Edge] {
        &self.supports[self.ancilla_index(a)]
    }

    /// The one or two ancillas flipped by an X error on `e`. Boundary
    /// horizontal edges flip a single ancilla.
    pub fn endpoints(&self, e: Edge) -> (Ancilla, Option<Ancilla>) {
        match self.edge_kind(e) {
            EdgeKind::Horizontal { row, pos } => {
                if pos == 0 {
                    (Ancilla::new(row, 0), None)
                } else if pos == self.d - 1 {
                    (Ancilla::new(row, self.d - 2), None)
                } else {
                    (Ancilla::new(row, pos - 1), Some(Ancilla::new(row, pos)))
                }
            }
            EdgeKind::Vertical { row, col } => {
                (Ancilla::new(row, col), Some(Ancilla::new(row + 1, col)))
            }
        }
    }

    /// Manhattan distance between two ancillas in the matching graph.
    pub fn grid_distance(&self, a: Ancilla, b: Ancilla) -> usize {
        a.row.abs_diff(b.row) + a.col.abs_diff(b.col)
    }

    /// Hop distance from ancilla `a` to the given boundary.
    pub fn boundary_distance(&self, a: Ancilla, boundary: Boundary) -> usize {
        match boundary {
            Boundary::West => a.col + 1,
            Boundary::East => self.cols() - a.col,
        }
    }

    /// The nearer boundary to `a` and its hop distance (ties go west, the
    /// direction the token raster originates from).
    pub fn nearest_boundary(&self, a: Ancilla) -> (Boundary, usize) {
        let west = self.boundary_distance(a, Boundary::West);
        let east = self.boundary_distance(a, Boundary::East);
        if west <= east {
            (Boundary::West, west)
        } else {
            (Boundary::East, east)
        }
    }

    /// Data-qubit edges along the dimension-ordered (vertical-then-
    /// horizontal) route from `from` to `to`.
    ///
    /// This is exactly the route a QECOOL spike takes (paper `SPIKE`
    /// procedure: north/south in the initiator's column until the sink's
    /// row, then east/west along the sink's row), so the syndrome signal
    /// retraces it when applying corrections.
    pub fn route(&self, from: Ancilla, to: Ancilla) -> impl Iterator<Item = Edge> + '_ {
        let (r0, r1) = (from.row.min(to.row), from.row.max(to.row));
        let (c0, c1) = (from.col.min(to.col), from.col.max(to.col));
        (r0..r1)
            .map(move |r| self.vertical_edge(r, from.col))
            // Crossing from column c to c+1 in the sink's row.
            .chain((c0..c1).map(move |c| self.horizontal_edge(to.row, c + 1)))
    }

    /// Data-qubit edges from ancilla `a` straight to the given boundary
    /// along `a`'s own row.
    pub fn route_to_boundary(
        &self,
        a: Ancilla,
        boundary: Boundary,
    ) -> impl Iterator<Item = Edge> + '_ {
        let positions = match boundary {
            Boundary::West => 0..a.col + 1,
            Boundary::East => a.col + 1..self.d,
        };
        positions.map(move |pos| self.horizontal_edge(a.row, pos))
    }

    /// Edges of the west-boundary cut used for the logical-parity check:
    /// the `pos == 0` horizontal edge of every row.
    pub fn logical_cut(&self) -> Vec<Edge> {
        (0..self.d).map(|r| self.horizontal_edge(r, 0)).collect()
    }

    /// A representative logical-X operator: the full horizontal chain of
    /// row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= d`.
    pub fn logical_x(&self, row: usize) -> Vec<Edge> {
        assert!(row < self.d, "row out of range");
        (0..self.d)
            .map(|pos| self.horizontal_edge(row, pos))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_distances() {
        for d in [0, 1, 2, 4, 6, 10] {
            let err = Lattice::new(d).unwrap_err();
            assert_eq!(err.distance(), d);
            assert!(err.to_string().contains(&d.to_string()));
            assert!(err.to_string().contains("odd integer >= 3"));
        }
        // Above the maximum, odd or even, the error names the bound and
        // nothing is allocated.
        for d in [
            Lattice::MAX_DISTANCE + 1,
            Lattice::MAX_DISTANCE + 2,
            99_999,
            usize::MAX,
        ] {
            let err = Lattice::new(d).unwrap_err();
            assert_eq!(err.distance(), d);
            assert_eq!(
                err.to_string(),
                format!("code distance must be at most 255, got {d}")
            );
        }
        assert_eq!(Lattice::new(Lattice::MAX_DISTANCE).unwrap().distance(), 255);
    }

    #[test]
    fn counts_match_paper() {
        for d in [3, 5, 7, 9, 11, 13] {
            let lat = Lattice::new(d).unwrap();
            assert_eq!(lat.num_ancillas(), d * (d - 1), "d={d}");
            assert_eq!(lat.num_data_qubits(), d * d + (d - 1) * (d - 1));
            assert_eq!(lat.rows(), d);
            assert_eq!(lat.cols(), d - 1);
            assert_eq!(lat.distance(), d);
        }
    }

    #[test]
    fn ancilla_index_roundtrip() {
        let lat = Lattice::new(7).unwrap();
        for idx in 0..lat.num_ancillas() {
            let a = lat.ancilla_from_index(idx);
            assert_eq!(lat.ancilla_index(a), idx);
        }
        assert_eq!(lat.ancillas().count(), lat.num_ancillas());
    }

    #[test]
    fn edge_kind_roundtrip() {
        let lat = Lattice::new(5).unwrap();
        for idx in 0..lat.num_data_qubits() {
            let e = Edge(idx);
            match lat.edge_kind(e) {
                EdgeKind::Horizontal { row, pos } => {
                    assert_eq!(lat.horizontal_edge(row, pos), e);
                }
                EdgeKind::Vertical { row, col } => {
                    assert_eq!(lat.vertical_edge(row, col), e);
                }
            }
        }
    }

    #[test]
    fn interior_support_has_four_edges() {
        let lat = Lattice::new(5).unwrap();
        let interior = Ancilla::new(2, 1);
        assert_eq!(lat.support(interior).len(), 4);
        // Corner ancillas still touch two horizontal edges plus one vertical.
        assert_eq!(lat.support(Ancilla::new(0, 0)).len(), 3);
        assert_eq!(lat.support(Ancilla::new(4, 3)).len(), 3);
    }

    #[test]
    fn support_and_endpoints_agree() {
        let lat = Lattice::new(7).unwrap();
        for a in lat.ancillas() {
            for &e in lat.support(a) {
                let (p, q) = lat.endpoints(e);
                assert!(
                    p == a || q == Some(a),
                    "edge {e} in support of {a} but endpoints are {p}/{q:?}"
                );
            }
        }
        // Converse: every edge appears in the support of each endpoint.
        for idx in 0..lat.num_data_qubits() {
            let e = Edge(idx);
            let (p, q) = lat.endpoints(e);
            assert!(lat.support(p).contains(&e));
            if let Some(q) = q {
                assert!(lat.support(q).contains(&e));
            }
        }
    }

    #[test]
    fn boundary_edges_have_single_endpoint() {
        let lat = Lattice::new(5).unwrap();
        let west = lat.horizontal_edge(2, 0);
        let east = lat.horizontal_edge(2, 4);
        assert_eq!(lat.endpoints(west), (Ancilla::new(2, 0), None));
        assert_eq!(lat.endpoints(east), (Ancilla::new(2, 3), None));
    }

    #[test]
    fn route_length_is_grid_distance() {
        let lat = Lattice::new(9).unwrap();
        let a = Ancilla::new(1, 2);
        let b = Ancilla::new(6, 7);
        assert_eq!(lat.route(a, b).count(), lat.grid_distance(a, b));
        assert_eq!(lat.route(a, a).count(), 0);
    }

    #[test]
    fn route_flips_exactly_the_two_endpoints() {
        // XOR of the supports touched by the route edges must equal {a, b}.
        let lat = Lattice::new(7).unwrap();
        let a = Ancilla::new(0, 0);
        let b = Ancilla::new(5, 4);
        let mut flips = std::collections::HashMap::new();
        for e in lat.route(a, b) {
            let (p, q) = lat.endpoints(e);
            *flips.entry(p).or_insert(0) += 1;
            if let Some(q) = q {
                *flips.entry(q).or_insert(0) += 1;
            }
        }
        let odd: Vec<Ancilla> = flips
            .into_iter()
            .filter_map(|(a, n)| (n % 2 == 1).then_some(a))
            .collect();
        assert_eq!(odd.len(), 2);
        assert!(odd.contains(&a) && odd.contains(&b));
    }

    #[test]
    fn boundary_route_flips_only_the_source() {
        let lat = Lattice::new(7).unwrap();
        for a in lat.ancillas() {
            for boundary in [Boundary::West, Boundary::East] {
                let mut flips = std::collections::HashMap::new();
                for e in lat.route_to_boundary(a, boundary) {
                    let (p, q) = lat.endpoints(e);
                    *flips.entry(p).or_insert(0usize) += 1;
                    if let Some(q) = q {
                        *flips.entry(q).or_insert(0) += 1;
                    }
                }
                let odd: Vec<Ancilla> = flips
                    .into_iter()
                    .filter_map(|(x, n)| (n % 2 == 1).then_some(x))
                    .collect();
                assert_eq!(odd, vec![a], "boundary route from {a} to {boundary}");
            }
        }
    }

    #[test]
    fn boundary_route_length_matches_distance() {
        let lat = Lattice::new(9).unwrap();
        for a in lat.ancillas() {
            for b in [Boundary::West, Boundary::East] {
                assert_eq!(
                    lat.route_to_boundary(a, b).count(),
                    lat.boundary_distance(a, b)
                );
            }
        }
    }

    #[test]
    fn nearest_boundary_is_minimal() {
        let lat = Lattice::new(11).unwrap();
        for a in lat.ancillas() {
            let (b, dist) = lat.nearest_boundary(a);
            assert_eq!(dist, lat.boundary_distance(a, b));
            assert!(dist <= lat.boundary_distance(a, Boundary::West));
            assert!(dist <= lat.boundary_distance(a, Boundary::East));
        }
    }

    #[test]
    fn logical_x_crosses_cut_once() {
        let lat = Lattice::new(5).unwrap();
        let cut: std::collections::HashSet<Edge> = lat.logical_cut().into_iter().collect();
        for row in 0..5 {
            let logical = lat.logical_x(row);
            assert_eq!(logical.len(), 5, "logical operator has weight d");
            let crossings = logical.iter().filter(|e| cut.contains(e)).count();
            assert_eq!(crossings, 1);
        }
    }

    #[test]
    fn logical_x_has_trivial_syndrome() {
        let lat = Lattice::new(7).unwrap();
        let logical: std::collections::HashSet<Edge> = lat.logical_x(3).into_iter().collect();
        for a in lat.ancillas() {
            let parity = lat
                .support(a)
                .iter()
                .filter(|e| logical.contains(e))
                .count()
                % 2;
            assert_eq!(parity, 0, "logical operator must commute with {a}");
        }
    }

    proptest! {
        #[test]
        fn prop_route_is_symmetric_in_length(
            d in prop_oneof![Just(3usize), Just(5), Just(7), Just(9)],
            seed in any::<u64>(),
        ) {
            let lat = Lattice::new(d).unwrap();
            let n = lat.num_ancillas() as u64;
            let a = lat.ancilla_from_index((seed % n) as usize);
            let b = lat.ancilla_from_index(((seed / n) % n) as usize);
            prop_assert_eq!(lat.route(a, b).count(), lat.route(b, a).count());
        }

        #[test]
        fn prop_grid_distance_triangle_inequality(
            d in prop_oneof![Just(5usize), Just(7)],
            s1 in any::<u64>(),
            s2 in any::<u64>(),
            s3 in any::<u64>(),
        ) {
            let lat = Lattice::new(d).unwrap();
            let n = lat.num_ancillas() as u64;
            let a = lat.ancilla_from_index((s1 % n) as usize);
            let b = lat.ancilla_from_index((s2 % n) as usize);
            let c = lat.ancilla_from_index((s3 % n) as usize);
            prop_assert!(
                lat.grid_distance(a, c) <= lat.grid_distance(a, b) + lat.grid_distance(b, c)
            );
        }
    }
}
