//! The 3-D decoding graph the union-find decoder grows clusters on.
//!
//! Nodes are detection cells `(ancilla, round)` for every round of the
//! observation window, plus one *distinct* virtual boundary node per
//! boundary-adjacent horizontal edge per round (keeping west and east
//! boundaries homologically separate — collapsing them into one node
//! would let peeling route a correction "through" the boundary and flip
//! the logical class silently).
//!
//! Edges carry the physical meaning needed to turn a peeled erasure into
//! a correction:
//!
//! * **spatial** edges — one per data qubit per round; peeling one emits
//!   that data-qubit correction;
//! * **temporal** edges — same ancilla, adjacent rounds; peeling one
//!   asserts a measurement error, no data correction.
//!
//! # Index arithmetic
//!
//! Nothing is stored: every node and edge is a number, and endpoints and
//! incidence are computed from the lattice geometry on demand, so a graph
//! costs two integers however many rounds it spans. With `na` ancillas
//! and `nq` data qubits per round:
//!
//! * cell `(a, t)` is node `t·na + a`;
//! * the boundary stubs follow the cells, `2d` per round: the stub of
//!   row `r`'s west (east) boundary qubit in round `t` is node
//!   `rounds·na + t·2d + 2r` (`+ 2r + 1`);
//! * the edges of round `t` are the spatial edges `t·(nq+na) + q`, then
//!   the temporal edges `t·(nq+na) + nq + a` to round `t + 1` (the last
//!   round has none, so the edge count is `rounds·nq + (rounds−1)·na`).
//!
//! Endpoint lookup is O(1), and every node has at most six incident edges
//! (four spatial, two temporal), listed with their far ends in ascending
//! edge index.
//!
//! # Incidence template
//!
//! [`DecodingGraph::incident`] re-derives a node's row and column on every
//! call. The decoder instead reads an incidence template: the incidence
//! of a one-round graph, O(d²), built from [`DecodingGraph::incident`]
//! itself and shared by the decoders of one distance. Every round
//! repeats the same spatial edges, so a cell `(a, t)` of any window takes
//! its template entries shifted by `t` rounds, with a temporal edge
//! before them when `t > 0` and after them when `t + 1 < rounds`; a
//! boundary stub looks up its one edge by rank. The lists come out
//! exactly as [`DecodingGraph::incident`] gives them, in the same order.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use qecool_surface_code::{Edge, Lattice};

/// Physical meaning of one decoding-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEdgeKind {
    /// An X error on a data qubit (correctable).
    Data(Edge),
    /// A syndrome measurement error (nothing to correct on data).
    Measurement,
}

/// One undirected decoding-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// First endpoint (node index).
    pub u: u32,
    /// Second endpoint (node index).
    pub v: u32,
    /// Physical meaning.
    pub kind: GraphEdgeKind,
}

/// The decoding graph for a lattice and a window of `rounds` layers,
/// computed from indices (see the module docs for the numbering).
#[derive(Debug, Clone, Copy)]
pub struct DecodingGraph {
    d: usize,
    rounds: usize,
}

impl DecodingGraph {
    /// The graph for `rounds` measurement layers on `lattice`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new(lattice: &Lattice, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one measurement round");
        Self {
            d: lattice.distance(),
            rounds,
        }
    }

    /// Ancillas per round (`d · (d − 1)`).
    pub(crate) fn num_ancillas(&self) -> usize {
        self.d * (self.d - 1)
    }

    /// Data qubits per round (`d² + (d − 1)²`).
    pub(crate) fn num_qubits(&self) -> usize {
        self.d * self.d + (self.d - 1) * (self.d - 1)
    }

    /// Edge-index stride between consecutive rounds.
    fn stride(&self) -> usize {
        self.num_qubits() + self.num_ancillas()
    }

    /// First virtual boundary node.
    pub(crate) fn first_boundary_node(&self) -> usize {
        self.rounds * self.num_ancillas()
    }

    /// Number of measurement rounds covered.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total node count (cells + virtual boundary nodes).
    pub fn num_nodes(&self) -> usize {
        self.first_boundary_node() + self.rounds * 2 * self.d
    }

    /// Total edge count (spatial + temporal).
    pub fn num_edges(&self) -> usize {
        self.rounds * self.num_qubits() + (self.rounds - 1) * self.num_ancillas()
    }

    /// Edge `i`: its endpoints and physical meaning.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_edges()`.
    pub fn edge(&self, i: usize) -> GraphEdge {
        assert!(i < self.num_edges(), "edge {i} out of range");
        let (t, r) = (i / self.stride(), i % self.stride());
        let nq = self.num_qubits();
        let (u, v, kind) = if r < nq {
            let (u, v) = self.spatial_endpoints(r, t);
            (u, v, GraphEdgeKind::Data(Edge(r)))
        } else {
            let node = t * self.num_ancillas() + (r - nq);
            (node, node + self.num_ancillas(), GraphEdgeKind::Measurement)
        };
        GraphEdge {
            u: u as u32,
            v: v as u32,
            kind,
        }
    }

    /// Endpoints of data qubit `q`'s spatial edge in round `t`: the
    /// cells it joins, or its cell and its boundary stub.
    fn spatial_endpoints(&self, q: usize, t: usize) -> (usize, usize) {
        let (d, cols) = (self.d, self.d - 1);
        let base = t * self.num_ancillas();
        if q < d * d {
            let (row, pos) = (q / d, q % d);
            let west = base + row * cols;
            if pos == 0 {
                (west, self.stub(t, 2 * row))
            } else if pos == d - 1 {
                (west + cols - 1, self.stub(t, 2 * row + 1))
            } else {
                (west + pos - 1, west + pos)
            }
        } else {
            let v = q - d * d;
            let cell = base + v;
            (cell, cell + cols)
        }
    }

    /// Node of the boundary stub with rank `rank` (`2·row + east`) in
    /// round `t`.
    fn stub(&self, t: usize, rank: usize) -> usize {
        self.first_boundary_node() + t * 2 * self.d + rank
    }

    /// The edges incident to `node` as `(edge index, neighbour node)`
    /// pairs, in ascending edge index.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn incident(&self, node: usize) -> impl Iterator<Item = (usize, usize)> {
        assert!(node < self.num_nodes(), "node {node} out of range");
        let (d, cols, na, nq) = (self.d, self.d - 1, self.num_ancillas(), self.num_qubits());
        let stride = self.stride();
        let mut edges = [(0usize, 0usize); 6];
        let mut len = 0;
        let mut push = |e: usize, w: usize| {
            edges[len] = (e, w);
            len += 1;
        };
        if self.is_boundary(node) {
            let b = node - self.first_boundary_node();
            let (t, rank) = (b / (2 * d), b % (2 * d));
            let (row, east) = (rank / 2, rank % 2 == 1);
            let (pos, col) = if east { (d - 1, cols - 1) } else { (0, 0) };
            push(t * stride + row * d + pos, t * na + row * cols + col);
        } else {
            let (t, a) = (node / na, node % na);
            let (row, col) = (a / cols, a % cols);
            let base = t * stride;
            if t > 0 {
                push(base - stride + nq + a, node - na);
            }
            // Horizontal (row, col) and (row, col + 1), then the vertical
            // edges above and below: already ascending.
            let west = if col > 0 {
                node - 1
            } else {
                self.stub(t, 2 * row)
            };
            push(base + row * d + col, west);
            let east = if col + 1 < cols {
                node + 1
            } else {
                self.stub(t, 2 * row + 1)
            };
            push(base + row * d + col + 1, east);
            if row > 0 {
                push(base + d * d + (row - 1) * cols + col, node - cols);
            }
            if row < d - 1 {
                push(base + d * d + row * cols + col, node + cols);
            }
            if t + 1 < self.rounds {
                push(base + nq + a, node + na);
            }
        }
        edges.into_iter().take(len)
    }

    /// Node index of detection cell `(ancilla_index, round)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn cell(&self, ancilla_index: usize, round: usize) -> usize {
        assert!(ancilla_index < self.num_ancillas() && round < self.rounds);
        round * self.num_ancillas() + ancilla_index
    }

    /// `true` for virtual boundary nodes.
    pub fn is_boundary(&self, node: usize) -> bool {
        node >= self.first_boundary_node()
    }
}

/// One round's incidence, the [`DecodingGraph::incident`] lists of a
/// one-round graph, from which the lists of any window are shifted (see
/// the module docs).
#[derive(Debug)]
pub(crate) struct IncidenceTemplate {
    /// Code distance.
    d: usize,
    /// Ancillas per round.
    na: u32,
    /// Data qubits per round.
    nq: u32,
    /// Boundary stubs per round (`2d`).
    stubs_per_round: u32,
    /// `hops[starts[a]..starts[a + 1]]`: cell `a`'s spatial edges in a
    /// one-round graph as `(edge, far node)`, ascending. A far node below
    /// `na` is a cell; `na + rank` is the stub of that rank.
    starts: Vec<u32>,
    hops: Vec<(u32, u32)>,
    /// `stubs[rank]`: the stub's one edge and the cell at its far end.
    stubs: Vec<(u32, u32)>,
}

impl IncidenceTemplate {
    /// The template for `lattice`, shared with every live decoder of the
    /// same distance: a service's sessions hold one template between
    /// them, not one each.
    pub(crate) fn shared(lattice: &Lattice) -> Arc<Self> {
        static LIVE: Mutex<Vec<Weak<IncidenceTemplate>>> = Mutex::new(Vec::new());
        // Every update leaves the list valid, so a panic elsewhere while
        // it was held does not spoil it.
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        live.retain(|t| t.strong_count() > 0);
        let d = lattice.distance();
        if let Some(t) = live.iter().filter_map(Weak::upgrade).find(|t| t.d == d) {
            return t;
        }
        let t = Arc::new(Self::new(lattice));
        live.push(Arc::downgrade(&t));
        t
    }

    /// The template for `lattice`, read off a one-round [`DecodingGraph`].
    fn new(lattice: &Lattice) -> Self {
        let one = DecodingGraph::new(lattice, 1);
        let na = one.num_ancillas();
        let pair = |(e, w): (usize, usize)| (e as u32, w as u32);
        let mut starts = Vec::with_capacity(na + 1);
        starts.push(0);
        let mut hops = Vec::new();
        for a in 0..na {
            hops.extend(one.incident(a).map(pair));
            starts.push(hops.len() as u32);
        }
        hops.shrink_to_fit();
        let stubs = (na..one.num_nodes())
            .map(|stub| pair(one.incident(stub).next().expect("a stub has one edge")))
            .collect();
        Self {
            d: lattice.distance(),
            na: na as u32,
            nq: one.num_qubits() as u32,
            stubs_per_round: (one.num_nodes() - na) as u32,
            starts,
            hops,
            stubs,
        }
    }

    /// The template applied to `graph`, a graph of the same lattice.
    pub(crate) fn on(&self, graph: &DecodingGraph) -> Incidence<'_> {
        assert_eq!(
            graph.num_ancillas(),
            self.na as usize,
            "graph of another lattice"
        );
        assert!(
            u32::try_from(graph.num_edges()).is_ok(),
            "graph too large for u32 indices"
        );
        Incidence {
            template: self,
            rounds: graph.rounds() as u32,
            first_boundary: graph.first_boundary_node() as u32,
            stride: self.nq + self.na,
        }
    }
}

/// An [`IncidenceTemplate`] shifted onto one window's [`DecodingGraph`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Incidence<'a> {
    template: &'a IncidenceTemplate,
    rounds: u32,
    first_boundary: u32,
    /// Edge-index stride between consecutive rounds.
    stride: u32,
}

impl Incidence<'_> {
    /// Calls `f(edge, neighbour)` for every edge incident to `node`, in
    /// ascending edge index: the pairs [`DecodingGraph::incident`] lists.
    #[inline]
    pub(crate) fn for_each(&self, node: usize, mut f: impl FnMut(usize, usize)) {
        let tpl = self.template;
        let (na, stride) = (tpl.na, self.stride);
        let node = node as u32;
        if node >= self.first_boundary {
            let b = node - self.first_boundary;
            let t = b / tpl.stubs_per_round;
            let (e, a) = tpl.stubs[(b - t * tpl.stubs_per_round) as usize];
            f((t * stride + e) as usize, (t * na + a) as usize);
            return;
        }
        let t = node / na;
        let a = node - t * na;
        let base = t * stride;
        if t > 0 {
            f((base - stride + tpl.nq + a) as usize, (node - na) as usize);
        }
        // A far cell `c` of the one-round graph is `t·na + c` here; a far
        // stub `na + rank` is `first_boundary + t·2d + rank`.
        let cells = t * na;
        let stubs = self.first_boundary + t * tpl.stubs_per_round - na;
        let hops = &tpl.hops[tpl.starts[a as usize] as usize..tpl.starts[a as usize + 1] as usize];
        for &(e, far) in hops {
            let shift = if far < na { cells } else { stubs };
            f((base + e) as usize, (far + shift) as usize);
        }
        if t + 1 < self.rounds {
            f((base + tpl.nq + a) as usize, (node + na) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::TableGraph;

    #[test]
    fn counts_are_consistent() {
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 3);
        let na = lat.num_ancillas();
        // Boundary stubs: 2 per row per round.
        let boundary = 2 * lat.rows() * 3;
        assert_eq!(g.num_nodes(), na * 3 + boundary);
        // Edges: data qubits per round + temporal links.
        assert_eq!(g.num_edges(), lat.num_data_qubits() * 3 + na * 2);
        assert_eq!(g.rounds(), 3);
    }

    #[test]
    fn cell_indexing_is_dense() {
        let lat = Lattice::new(3).unwrap();
        let g = DecodingGraph::new(&lat, 2);
        let na = lat.num_ancillas();
        for t in 0..2 {
            for a in 0..na {
                let n = g.cell(a, t);
                assert!(!g.is_boundary(n));
                assert_eq!(n, t * na + a);
            }
        }
    }

    #[test]
    fn boundary_nodes_have_single_incident_edge() {
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 2);
        for n in 0..g.num_nodes() {
            if g.is_boundary(n) {
                assert_eq!(g.incident(n).count(), 1, "boundary node {n}");
            }
        }
    }

    #[test]
    fn interior_cell_degree_matches_geometry() {
        // An interior ancilla in a middle round touches 4 spatial + 2
        // temporal edges.
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 3);
        let a = lat.ancilla_index(qecool_surface_code::Ancilla::new(2, 1));
        assert_eq!(g.incident(g.cell(a, 1)).count(), 4 + 2);
        // First-round cell: 4 spatial + 1 temporal.
        assert_eq!(g.incident(g.cell(a, 0)).count(), 4 + 1);
    }

    #[test]
    fn index_arithmetic_matches_the_edge_table() {
        // The computed graph must number nodes and edges exactly as the
        // stored-table construction it replaced: same endpoints, same
        // kinds, same ascending incidence lists.
        for d in [3, 5, 9] {
            let lat = Lattice::new(d).unwrap();
            for rounds in 1..=4 {
                let g = DecodingGraph::new(&lat, rounds);
                let table = TableGraph::new(&lat, rounds);
                assert_eq!(g.num_nodes(), table.num_nodes(), "d={d} rounds={rounds}");
                assert_eq!(g.num_edges(), table.edges().len());
                for (i, &e) in table.edges().iter().enumerate() {
                    assert_eq!(g.edge(i), e, "d={d} rounds={rounds} edge {i}");
                }
                for n in 0..g.num_nodes() {
                    let expected: Vec<(usize, usize)> = table
                        .incident(n)
                        .iter()
                        .map(|&i| {
                            let e = table.edges()[i as usize];
                            let w = if e.u as usize == n { e.v } else { e.u };
                            (i as usize, w as usize)
                        })
                        .collect();
                    let computed: Vec<(usize, usize)> = g.incident(n).collect();
                    assert_eq!(computed, expected, "d={d} rounds={rounds} node {n}");
                    assert_eq!(g.is_boundary(n), table.is_boundary(n));
                }
            }
        }
    }

    #[test]
    fn the_incidence_template_lists_what_the_oracle_lists() {
        // Growth's `edges_scanned` and the peel's BFS order depend on the
        // order of the lists, so they must match pair for pair.
        for d in [3, 5, 9, 13] {
            let lat = Lattice::new(d).unwrap();
            let template = IncidenceTemplate::shared(&lat);
            for rounds in 1..=3 * d + 1 {
                let g = DecodingGraph::new(&lat, rounds);
                let incidence = template.on(&g);
                let mut listed = Vec::with_capacity(6);
                for n in 0..g.num_nodes() {
                    listed.clear();
                    incidence.for_each(n, |e, w| listed.push((e, w)));
                    assert!(
                        listed.iter().copied().eq(g.incident(n)),
                        "d={d} rounds={rounds} node {n}: {listed:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_rounds_rejected() {
        let lat = Lattice::new(3).unwrap();
        DecodingGraph::new(&lat, 0);
    }
}
