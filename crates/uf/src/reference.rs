//! The original union-find implementation, kept verbatim as the test
//! reference the near-linear decoder is pinned bit-identical against:
//! a stored edge table with per-node incidence lists, growth that scans
//! every edge on every step, and peeling with O(n) scratch per
//! component.

use crate::decoder::{UfComponent, UfComponentOutcome};
use crate::dsu::ClusterSets;
use crate::graph::{GraphEdge, GraphEdgeKind};
use qecool_surface_code::{Edge, Lattice, SyndromeHistory};

/// The decoding graph as an explicit edge table.
#[derive(Debug, Clone)]
pub(crate) struct TableGraph {
    rounds: usize,
    num_ancillas: usize,
    num_nodes: usize,
    first_boundary_node: usize,
    edges: Vec<GraphEdge>,
    incident: Vec<Vec<u32>>,
}

impl TableGraph {
    pub(crate) fn new(lattice: &Lattice, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one measurement round");
        let na = lattice.num_ancillas();
        let cell_nodes = na * rounds;
        let mut edges: Vec<GraphEdge> = Vec::new();
        let mut next_boundary = cell_nodes;

        for t in 0..rounds {
            let base = t * na;
            // Spatial edges: every data qubit of the round.
            for q in 0..lattice.num_data_qubits() {
                let e = Edge(q);
                let (a, b) = lattice.endpoints(e);
                let u = (base + lattice.ancilla_index(a)) as u32;
                match b {
                    Some(b) => {
                        let v = (base + lattice.ancilla_index(b)) as u32;
                        edges.push(GraphEdge {
                            u,
                            v,
                            kind: GraphEdgeKind::Data(e),
                        });
                    }
                    None => {
                        // Boundary edge: a fresh virtual node keeps each
                        // boundary stub distinct.
                        let v = next_boundary as u32;
                        next_boundary += 1;
                        edges.push(GraphEdge {
                            u,
                            v,
                            kind: GraphEdgeKind::Data(e),
                        });
                    }
                }
            }
            // Temporal edges to the next round.
            if t + 1 < rounds {
                for a in 0..na {
                    edges.push(GraphEdge {
                        u: (base + a) as u32,
                        v: (base + na + a) as u32,
                        kind: GraphEdgeKind::Measurement,
                    });
                }
            }
        }

        let num_nodes = next_boundary;
        let mut incident = vec![Vec::new(); num_nodes];
        for (i, e) in edges.iter().enumerate() {
            incident[e.u as usize].push(i as u32);
            incident[e.v as usize].push(i as u32);
        }
        Self {
            rounds,
            num_ancillas: na,
            num_nodes,
            first_boundary_node: cell_nodes,
            edges,
            incident,
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub(crate) fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    pub(crate) fn incident(&self, node: usize) -> &[u32] {
        &self.incident[node]
    }

    pub(crate) fn cell(&self, ancilla_index: usize, round: usize) -> usize {
        assert!(ancilla_index < self.num_ancillas && round < self.rounds);
        round * self.num_ancillas + ancilla_index
    }

    pub(crate) fn is_boundary(&self, node: usize) -> bool {
        node >= self.first_boundary_node
    }
}

/// The original `UnionFindDecoder::decode_components`. Its
/// `edges_scanned` is the number of edges the full-table growth loop
/// visits: every edge on every step.
pub(crate) fn decode_components(
    lattice: &Lattice,
    history: &SyndromeHistory,
) -> UfComponentOutcome {
    assert_eq!(
        history.lattice().num_ancillas(),
        lattice.num_ancillas(),
        "history lattice does not match decoder lattice"
    );
    let num_ancillas = lattice.num_ancillas();
    let graph = TableGraph::new(lattice, history.num_rounds());
    let n = graph.num_nodes();

    // Defects and cluster bookkeeping.
    let mut defect = vec![false; n];
    let mut sets = ClusterSets::new(n, graph.first_boundary_node);
    for (t, round) in history.iter().enumerate() {
        for idx in round.events().iter_ones() {
            let node = graph.cell(idx, t);
            defect[node] = true;
            sets.set_defect(node);
        }
    }
    let defects: Vec<usize> = (0..n).filter(|&v| defect[v]).collect();
    if defects.is_empty() {
        return UfComponentOutcome::default();
    }

    // Phase 1: grow active clusters until neutral.
    let mut support = vec![0u8; graph.edges().len()];
    let mut growth_steps = 0;
    loop {
        if !defects.iter().any(|&v| sets.is_active(v)) {
            break;
        }
        growth_steps += 1;
        let mut fused: Vec<usize> = Vec::new();
        for (i, e) in graph.edges().iter().enumerate() {
            if support[i] >= 2 {
                continue;
            }
            let inc =
                u8::from(sets.is_active(e.u as usize)) + u8::from(sets.is_active(e.v as usize));
            if inc == 0 {
                continue;
            }
            support[i] = (support[i] + inc).min(2);
            if support[i] == 2 {
                fused.push(i);
            }
        }
        assert!(
            !fused.is_empty() || growth_steps < 2 * graph.num_nodes(),
            "union-find growth stalled"
        );
        for i in fused {
            let e = graph.edges()[i];
            sets.union(e.u as usize, e.v as usize);
        }
    }

    // Phase 2: peel the erasure.
    let erasure: Vec<usize> = (0..support.len()).filter(|&i| support[i] == 2).collect();
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &i in &erasure {
        let e = graph.edges()[i];
        adj[e.u as usize].push((e.v, i as u32));
        adj[e.v as usize].push((e.u, i as u32));
    }

    let mut visited = vec![false; n];
    let mut components: Vec<UfComponent> = Vec::new();
    // Roots: boundary nodes first so defects can drain into them.
    let boundary_roots = (0..n).filter(|&v| graph.is_boundary(v));
    let all_roots: Vec<usize> = boundary_roots.chain(0..n).collect();
    for root in all_roots {
        if visited[root] || adj[root].is_empty() {
            continue;
        }
        // BFS spanning tree of this erasure component.
        let mut order: Vec<usize> = vec![root];
        let mut parent_edge: Vec<Option<(usize, u32)>> = vec![None; n];
        visited[root] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &(w, ei) in &adj[v] {
                let w = w as usize;
                if !visited[w] {
                    visited[w] = true;
                    parent_edge[w] = Some((v, ei));
                    order.push(w);
                }
            }
        }
        // The detection events this component explains, in BFS
        // discovery order (boundary stubs never carry defects).
        let comp_defects: Vec<(usize, usize)> = order
            .iter()
            .filter(|&&v| defect[v])
            .map(|&v| (v % num_ancillas, v / num_ancillas))
            .collect();
        // Peel leaf-first (reverse BFS order).
        let mut qubit_parity = vec![false; lattice.num_data_qubits()];
        let mut carry = defect.clone();
        for &v in order.iter().skip(1).rev() {
            if carry[v] {
                let (p, ei) = parent_edge[v].expect("non-root has a parent");
                carry[v] = false;
                carry[p] = !carry[p];
                if let GraphEdgeKind::Data(q) = graph.edges()[ei as usize].kind {
                    qubit_parity[q.index()] ^= true;
                }
            }
        }
        // Defects drained into this component's root must end on a
        // boundary (or cancel) — otherwise the cluster was not neutral.
        assert!(
            !carry[root] || graph.is_boundary(root),
            "peeling left a defect on a non-boundary root"
        );
        // Components are disjoint; clear the processed nodes so the
        // trailing debug_assert can certify full coverage.
        for &v in &order {
            defect[v] = false;
        }
        // Defect-free components contribute no corrections (nothing
        // to carry) — keep only those that explain real events.
        if !comp_defects.is_empty() {
            let corrections: Vec<Edge> = qubit_parity
                .iter()
                .enumerate()
                .filter_map(|(q, &on)| on.then_some(Edge(q)))
                .collect();
            components.push(UfComponent {
                corrections,
                defects: comp_defects,
            });
        }
    }
    debug_assert!(
        defect.iter().all(|&d| !d),
        "some defect was outside every erasure component"
    );

    UfComponentOutcome {
        components,
        growth_steps,
        erasure_edges: erasure.len(),
        edges_scanned: growth_steps * graph.edges().len(),
    }
}
