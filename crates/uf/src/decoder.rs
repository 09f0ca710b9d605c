//! The union-find decoder: cluster growth + peeling.
//!
//! Algorithm (Delfosse–Nickerson):
//!
//! 1. **Syndrome validation / growth** — every detection event starts a
//!    singleton cluster. All *active* clusters (odd defect parity, no
//!    boundary contact) grow by a half-edge per step; edges whose support
//!    reaches 2 merge their endpoint clusters. Growth stops when every
//!    cluster is neutral (even parity or boundary-touching).
//! 2. **Peeling** — the fully-grown edges form an *erasure*; a spanning
//!    forest of the erasure (rooted at boundary nodes where available) is
//!    peeled leaf-first: a leaf carrying a defect emits its tree edge as
//!    part of the correction and hands the defect to its parent.
//!
//! Spatial tree edges emit data-qubit corrections (XOR-accumulated per
//! qubit across rounds); temporal edges absorb measurement errors.
//!
//! # Cost
//!
//! Work grows with the defects and the edges their clusters touch, not
//! with the window: no step scans the whole graph.
//!
//! * **Set-up.** Detection events are unpacked from set bits only, and a
//!   defect-free window returns before touching anything graph-sized.
//!   The graph is index arithmetic ([`DecodingGraph`]), so it costs
//!   nothing to build, and incidence is read from an O(d²) template
//!   shared by every decoder of the same distance. The scratch is a few
//!   flat arrays kept per thread, not per decoder, and grown only to a
//!   new largest window. No decode initialises them whole: the cluster
//!   sets start a new epoch and initialise an element on first touch, an
//!   edge's support counts only if its stamp is a step of this decode,
//!   and the peel clears the flags it set. Set-up is O(defects).
//! * **Growth.** Each step lists the distinct active roots as the roots
//!   of the previous step's active roots that are still active (a union
//!   of inactive clusters is inactive, so no active cluster is missed),
//!   dropping a root already stamped with this step instead of sorting
//!   the list. It then lists those clusters' members (intrusive member
//!   lists spliced on union), stamping each with the step number, and
//!   visits only their incident edges, with a per-step edge stamp so an
//!   edge is examined once per step: O(active clusters + active cluster
//!   size) per step. No union happens during the scan, so the far node
//!   of an edge is in an active cluster exactly when it carries this
//!   step's stamp, and the scan runs no `find`. Every increment is
//!   computed from the clusters as they stood at the start of the step
//!   and the unions are applied after the scan, so the edges fused at
//!   each step are exactly those a scan of the whole graph would fuse;
//!   the order of the root list reaches neither them nor any output.
//!   [`UfComponentOutcome::edges_scanned`] counts the edges examined.
//! * **Peeling.** Unions happen on erasure edges only, so the clusters
//!   that hold defects are exactly the erasure's components. Each tree is
//!   rooted at its cluster's lowest boundary stub, else its lowest cell,
//!   and the trees are peeled in that root order — the order a sweep over
//!   all boundary nodes, then all nodes, would find them. A node's
//!   erasure edges are its incident edges with full support, in the
//!   ascending edge order of [`DecodingGraph::incident`]. Each
//!   component's flipped qubits are XOR-reduced in place by sorting, so
//!   corrections stay sorted by qubit. Peeling touches only the
//!   erasure's nodes, and only the components a caller asks for: it
//!   roots, walks and hands over just the components anchored before
//!   its bound, so a sliding window pays nothing for the tentative
//!   components of its overlap. It allocates nothing either: each
//!   component goes to a visitor ([`UnionFindDecoder::for_each_component`])
//!   as two slices of the thread's scratch, which a sliding window
//!   commits from directly. [`UnionFindDecoder::decode_components`]
//!   collects them into lists, and [`UnionFindDecoder::decode_into`]
//!   XOR-reduces them in place in the caller's list.
//!
//! Union-by-size with path compression keeps the cluster operations
//! near-constant amortised (inverse Ackermann).

use std::cell::Cell;
use std::sync::Arc;

use crate::dsu::ClusterSets;
use crate::graph::{DecodingGraph, GraphEdgeKind, Incidence, IncidenceTemplate};
use qecool_surface_code::{CodePatch, Edge, Lattice, SyndromeHistory};

/// Result of one union-find decode.
#[derive(Debug, Clone, Default)]
pub struct UfOutcome {
    /// Data-qubit corrections (already XOR-reduced per qubit).
    pub corrections: Vec<Edge>,
    /// Growth iterations until all clusters neutralized.
    pub growth_steps: usize,
    /// Number of fully-grown (erasure) edges handed to the peeler.
    pub erasure_edges: usize,
    /// Decoding-graph edges the growth phase examined; see
    /// [`UfComponentOutcome::edges_scanned`].
    pub edges_scanned: usize,
}

impl UfOutcome {
    /// Applies the corrections to a code patch.
    pub fn apply(&self, patch: &mut CodePatch) {
        patch.apply_corrections(self.corrections.iter().copied());
    }
}

/// One erasure component of a union-find decode.
///
/// Components are disjoint: every detection event is peeled by exactly
/// one component, and XOR-composing all component corrections
/// reproduces the monolithic [`UfOutcome::corrections`]. Sliding-window
/// callers use the per-component granularity to decide which matches to
/// *commit* (a component whose earliest defect round falls inside the
/// commit stride) and which to leave tentative for the next window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UfComponent {
    /// Data-qubit corrections contributed by this component
    /// (XOR-reduced within the component, sorted by qubit index).
    pub corrections: Vec<Edge>,
    /// Detection events `(ancilla_index, round)` this component
    /// explains, in deterministic BFS discovery order. Never empty.
    pub defects: Vec<(usize, usize)>,
}

impl UfComponent {
    /// The earliest round any of this component's defects occurred in.
    pub fn min_round(&self) -> usize {
        self.defects
            .iter()
            .map(|&(_, t)| t)
            .min()
            .expect("a UfComponent always holds at least one defect")
    }
}

/// Result of a per-component union-find decode
/// ([`UnionFindDecoder::decode_components`]).
#[derive(Debug, Clone, Default)]
pub struct UfComponentOutcome {
    /// The disjoint erasure components anchored before the decode's
    /// bound (earliest defect round below it), in deterministic peel
    /// order: exactly the full decode's components with that filter
    /// applied, in the same order.
    pub components: Vec<UfComponent>,
    /// Growth iterations until all clusters neutralized.
    pub growth_steps: usize,
    /// Number of fully-grown (erasure) edges handed to the peeler.
    pub erasure_edges: usize,
    /// Decoding-graph edges the growth phase examined, summed over growth
    /// steps (an edge counts at most once per step). It depends only on
    /// the active clusters, not on the window length: 0 for a
    /// defect-free history.
    pub edges_scanned: usize,
}

/// Growth's work counters for one decode, as
/// [`UnionFindDecoder::for_each_component`] returns them; the outcome
/// types carry the same three numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UfGrowth {
    /// Growth iterations until all clusters neutralized.
    pub steps: usize,
    /// Number of fully-grown (erasure) edges handed to the peeler.
    pub erasure_edges: usize,
    /// Decoding-graph edges the growth phase examined; see
    /// [`UfComponentOutcome::edges_scanned`].
    pub edges_scanned: usize,
}

/// Union-find decoder over a [`SyndromeHistory`] (batch decoding).
///
/// # Example
///
/// ```
/// use qecool_surface_code::{CodePatch, Lattice, SyndromeHistory};
/// use qecool_uf::UnionFindDecoder;
///
/// # fn main() -> Result<(), qecool_surface_code::LatticeError> {
/// let lattice = Lattice::new(5)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// patch.inject_error(lattice.horizontal_edge(2, 2));
/// let mut history = SyndromeHistory::new(lattice.clone());
/// history.push(patch.perfect_round());
///
/// let outcome = UnionFindDecoder::new(lattice).decode(&history);
/// outcome.apply(&mut patch);
/// assert!(patch.syndrome_is_trivial());
/// assert!(!patch.has_logical_error());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    lattice: Lattice,
    incidence: Arc<IncidenceTemplate>,
}

thread_local! {
    /// The decode scratch of this thread, kept from one decode to the
    /// next. A decode takes it out and puts it back when done, so a decode
    /// that panics drops it rather than leave it half-reset.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

impl UnionFindDecoder {
    /// Creates a decoder for the given lattice.
    pub fn new(lattice: Lattice) -> Self {
        let incidence = IncidenceTemplate::shared(&lattice);
        Self { lattice, incidence }
    }

    /// The lattice this decoder was built for.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Decodes a full syndrome history.
    ///
    /// Equivalent to XOR-composing the corrections of every component
    /// returned by [`Self::decode_components`] with every round anchored.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or belongs to a different lattice
    /// size.
    pub fn decode(&self, history: &SyndromeHistory) -> UfOutcome {
        let mut corrections = Vec::new();
        let growth = self.decode_into(history, &mut corrections);
        UfOutcome {
            corrections,
            growth_steps: growth.steps,
            erasure_edges: growth.erasure_edges,
            edges_scanned: growth.edges_scanned,
        }
    }

    /// [`Self::decode`] into a caller's list: appends the corrections,
    /// XOR-reduced per qubit and ascending, to `out` and returns the
    /// work counters. The reduction runs in place on what it appended,
    /// so a reused `out` costs no allocation.
    ///
    /// # Panics
    ///
    /// As [`Self::decode`].
    pub fn decode_into(&self, history: &SyndromeHistory, out: &mut Vec<Edge>) -> UfGrowth {
        let start = out.len();
        let growth = self.for_each_component(history, history.num_rounds(), |corrections, _| {
            out.extend_from_slice(corrections);
        });
        xor_reduce(out, start);
        growth
    }

    /// Decodes a full syndrome history and peels the erasure components
    /// *anchored* before round `anchored_before`: those whose earliest
    /// defect round is below it.
    ///
    /// Each returned component holds the detection events it explains
    /// and the corrections it contributes; they are collected from
    /// [`Self::for_each_component`], which a caller that does not keep
    /// them uses directly. Growth always runs over the whole history,
    /// since a tentative cluster can still merge with an anchored one,
    /// so the work counters describe the whole history whatever the
    /// bound. With `anchored_before ≥ history.num_rounds()` every
    /// component is peeled; with 0, none is.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or belongs to a different lattice
    /// size.
    pub fn decode_components(
        &self,
        history: &SyndromeHistory,
        anchored_before: usize,
    ) -> UfComponentOutcome {
        let mut components = Vec::new();
        let growth = self.for_each_component(history, anchored_before, |corrections, defects| {
            components.push(UfComponent {
                corrections: corrections.to_vec(),
                defects: defects.to_vec(),
            });
        });
        UfComponentOutcome {
            components,
            growth_steps: growth.steps,
            erasure_edges: growth.erasure_edges,
            edges_scanned: growth.edges_scanned,
        }
    }

    /// Decodes a full syndrome history and passes each erasure component
    /// anchored before round `anchored_before` to `visit`, in the order
    /// and with the contents of [`Self::decode_components`]: its
    /// corrections (XOR-reduced, ascending) and its detection events
    /// `(ancilla_index, round)` in BFS discovery order. Both slices live
    /// in the thread's decode scratch, so a warmed decode allocates
    /// nothing. A sliding window commits the components anchored in its
    /// stride this way (emitting their corrections and clearing their
    /// defect events from the buffered rounds) and never pays to peel
    /// the tentative rest.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or belongs to a different lattice
    /// size.
    pub fn for_each_component(
        &self,
        history: &SyndromeHistory,
        anchored_before: usize,
        visit: impl FnMut(&[Edge], &[(usize, usize)]),
    ) -> UfGrowth {
        assert_eq!(
            history.lattice().num_ancillas(),
            self.lattice.num_ancillas(),
            "history lattice does not match decoder lattice"
        );
        let graph = DecodingGraph::new(&self.lattice, history.num_rounds());
        let mut scratch = SCRATCH.take();
        // Detection events in ascending node order, from set bits only.
        let defects = &mut scratch.defects;
        defects.clear();
        for (t, round) in history.iter().enumerate() {
            let first = graph.cell(0, t);
            for (i, &word) in round.events().words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    defects.push(first + 64 * i + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        let growth = if scratch.defects.is_empty() {
            UfGrowth::default()
        } else {
            scratch.decode(&graph, self.incidence.on(&graph), anchored_before, visit)
        };
        SCRATCH.set(scratch);
        growth
    }
}

/// A thread's decode scratch. The node- and edge-sized arrays keep the
/// largest window's size, and a decode resets only what it touched:
/// the cluster sets start a new epoch, an edge's support counts only
/// when its stamp is a step of the current decode, a node is active
/// only while its stamp is the current step, and the peel clears the
/// nodes it flagged.
#[derive(Debug, Default)]
struct Scratch {
    /// Detection events in ascending node order.
    defects: Vec<usize>,
    sets: ClusterSets,
    /// Half-edges grown per edge (2 marks an erasure edge); meaningful
    /// only where `stamp` is past `stale_through`.
    support: Vec<u8>,
    /// The growth step that last examined each edge, numbered on across
    /// decodes.
    stamp: Vec<u32>,
    /// The growth step that last listed each node as a member of an
    /// active cluster: a node is in an active cluster exactly while this
    /// is the current step.
    active_at: Vec<u32>,
    /// The last step number handed out.
    step: u32,
    /// Step numbers up to this one belong to earlier decodes: an edge
    /// stamped no later has no support in this one.
    stale_through: u32,
    /// Active roots of the current growth step; the peel's tree roots.
    roots: Vec<usize>,
    /// Members of the active clusters of the current growth step.
    members: Vec<usize>,
    /// Endpoints of the edges fused in the current growth step.
    fused: Vec<(usize, usize)>,
    /// `carry[v]`: v holds an unpaired defect. All false between decodes.
    carry: Vec<bool>,
    /// Nodes the peel's BFS reached. All false between decodes.
    visited: Vec<bool>,
    /// BFS tree parent and tree edge of each reached node.
    parent: Vec<(u32, u32)>,
    /// BFS order of the component being peeled.
    order: Vec<usize>,
    /// Corrections of the component being peeled.
    corrections: Vec<Edge>,
    /// Detection events `(ancilla_index, round)` of the component being
    /// peeled.
    events: Vec<(usize, usize)>,
}

impl Scratch {
    /// Grows `self.defects` (non-empty) on `graph` and peels the
    /// components anchored before round `anchored_before` into `visit`.
    fn decode(
        &mut self,
        graph: &DecodingGraph,
        incidence: Incidence<'_>,
        anchored_before: usize,
        visit: impl FnMut(&[Edge], &[(usize, usize)]),
    ) -> UfGrowth {
        let (n, edges) = (graph.num_nodes(), graph.num_edges());
        self.sets.reset(n, graph.first_boundary_node());
        if self.support.len() < edges {
            self.support.resize(edges, 0);
            self.stamp.resize(edges, 0);
        }
        if self.carry.len() < n {
            self.carry.resize(n, false);
            self.visited.resize(n, false);
            self.parent.resize(n, (0, 0));
            self.active_at.resize(n, 0);
        }
        // Every growth step adds support to some edge, and an edge takes
        // at most two, so this decode's step numbers cannot wrap.
        if u64::from(self.step) + 2 * edges as u64 > u64::from(u32::MAX) {
            self.stamp.fill(0);
            self.active_at.fill(0);
            self.step = 0;
        }
        self.stale_through = self.step;
        for &v in &self.defects {
            self.sets.set_defect(v);
        }
        let growth = self.grow(graph, incidence);
        // Cell `(a, t)` is node `t·na + a`, so the anchored defects are a
        // prefix of the ascending defect list.
        let bound = anchored_before.min(graph.rounds()) * graph.num_ancillas();
        let anchored = self.defects.partition_point(|&v| v < bound);
        self.peel(graph, incidence, anchored, visit);
        growth
    }

    /// Phase 1: grows the active clusters until every cluster is neutral.
    fn grow(&mut self, graph: &DecodingGraph, incidence: Incidence<'_>) -> UfGrowth {
        let Self {
            defects,
            sets,
            support,
            stamp,
            active_at,
            step,
            stale_through,
            roots,
            members,
            fused,
            ..
        } = self;
        // Every defect starts as an active singleton (odd, off the boundary).
        roots.clear();
        roots.extend_from_slice(defects);
        let mut erasure_edges = 0;
        let mut steps = 0;
        let mut edges_scanned = 0;
        loop {
            let this_step = *step + 1;
            // The active roots, from last step's: a union of inactive
            // clusters (even, or touching the boundary) is inactive, so every
            // cluster active now contains one that was active before. A root
            // already stamped this step is listed already. Their order
            // reaches no output: the edges scanned and fused in a step, and
            // so the clusters after it, do not depend on it.
            roots.retain_mut(|r| {
                *r = sets.find(*r);
                if active_at[*r] == this_step || !sets.is_active(*r) {
                    return false;
                }
                active_at[*r] = this_step;
                true
            });
            if roots.is_empty() {
                break;
            }
            steps += 1;
            *step = this_step;
            members.clear();
            for &root in roots.iter() {
                for x in sets.members(root) {
                    active_at[x] = this_step;
                    members.push(x);
                }
            }
            // No union happens during the scan, so every increment sees the
            // clusters as they stood at the start of the step, and a node
            // is in an active cluster exactly when it was stamped above.
            fused.clear();
            for &x in members.iter() {
                incidence.for_each(x, |e, w| {
                    let seen = stamp[e];
                    if seen == this_step {
                        return;
                    }
                    stamp[e] = this_step;
                    edges_scanned += 1;
                    // An edge no step of this decode has examined has no
                    // support yet.
                    let grown = if seen > *stale_through { support[e] } else { 0 };
                    if grown >= 2 {
                        return;
                    }
                    // `x` belongs to an active cluster.
                    let grown = (grown + 1 + u8::from(active_at[w] == this_step)).min(2);
                    support[e] = grown;
                    if grown == 2 {
                        fused.push((x, w));
                    }
                });
            }
            assert!(
                !fused.is_empty() || steps < 2 * graph.num_nodes(),
                "union-find growth stalled"
            );
            erasure_edges += fused.len();
            for &(u, v) in fused.iter() {
                sets.union(u, v);
            }
        }
        UfGrowth {
            steps,
            erasure_edges,
            edges_scanned,
        }
    }

    /// Phase 2: peels a spanning forest of the erasure components that
    /// hold one of the first `anchored` defects, passing each to `visit`.
    fn peel(
        &mut self,
        graph: &DecodingGraph,
        incidence: Incidence<'_>,
        anchored: usize,
        mut visit: impl FnMut(&[Edge], &[(usize, usize)]),
    ) {
        let Self {
            defects,
            sets,
            support,
            stamp,
            stale_through,
            roots,
            carry,
            visited,
            parent,
            order,
            corrections,
            events,
            ..
        } = self;
        let stale_through = *stale_through;
        let is_erasure = |e: usize| stamp[e] > stale_through && support[e] == 2;
        let na = graph.num_ancillas();
        // Unions happen on erasure edges only, so the clusters holding
        // defects are exactly the erasure's components. Each tree is rooted
        // at its component's lowest boundary stub, else its lowest cell, and
        // the trees are peeled in that root order (boundary roots first).
        // Only the anchored defects' clusters are peeled; the components are
        // disjoint, so their order and corrections are those of a full peel.
        let root_key = |v: usize| (!graph.is_boundary(v), v);
        roots.clear();
        roots.extend(defects[..anchored].iter().map(|&v| sets.find(v)));
        roots.sort_unstable();
        roots.dedup();
        let in_peeled_clusters = if cfg!(debug_assertions) {
            defects
                .iter()
                .filter(|&&v| roots.binary_search(&sets.find(v)).is_ok())
                .count()
        } else {
            0
        };
        for r in roots.iter_mut() {
            *r = sets
                .members(*r)
                .min_by_key(|&v| root_key(v))
                .expect("a cluster has members");
        }
        roots.sort_unstable_by_key(|&v| root_key(v));

        // The defects carry themselves until peeling moves them.
        for &v in defects.iter() {
            carry[v] = true;
        }
        let mut peeled_defects = 0;
        for &root in roots.iter() {
            // BFS spanning tree of this erasure component, visiting each
            // node's erasure edges in ascending edge index.
            order.clear();
            order.push(root);
            visited[root] = true;
            let mut head = 0;
            while head < order.len() {
                let v = order[head];
                head += 1;
                incidence.for_each(v, |e, w| {
                    if is_erasure(e) && !visited[w] {
                        visited[w] = true;
                        parent[w] = (v as u32, e as u32);
                        order.push(w);
                    }
                });
            }
            // The detection events this component explains, in BFS
            // discovery order (boundary stubs never carry defects).
            events.clear();
            events.extend(
                order
                    .iter()
                    .filter(|&&v| carry[v])
                    .map(|&v| (v % na, v / na)),
            );
            peeled_defects += events.len();
            // Peel leaf-first (reverse BFS order).
            corrections.clear();
            for &v in order.iter().skip(1).rev() {
                if carry[v] {
                    let (p, e) = parent[v];
                    carry[v] = false;
                    carry[p as usize] ^= true;
                    if let GraphEdgeKind::Data(q) = graph.edge(e as usize).kind {
                        corrections.push(q);
                    }
                }
            }
            // Defects drained into this component's root must end on a
            // boundary (or cancel) — otherwise the cluster was not neutral.
            assert!(
                !carry[root] || graph.is_boundary(root),
                "peeling left a defect on a non-boundary root"
            );
            for &v in order.iter() {
                visited[v] = false;
                carry[v] = false;
            }
            xor_reduce(corrections, 0);
            visit(corrections, events);
        }
        // The defects of the tentative components still carry.
        for &v in defects.iter() {
            carry[v] = false;
        }
        debug_assert_eq!(
            peeled_defects, in_peeled_clusters,
            "a cluster's defects were not all in its erasure component"
        );
    }
}

/// Keeps the edges of `edges[start..]` that occur an odd number of
/// times, once each and ascending, in place.
fn xor_reduce(edges: &mut Vec<Edge>, start: usize) {
    edges[start..].sort_unstable();
    let mut kept = start;
    let mut i = start;
    while i < edges.len() {
        let e = edges[i];
        let run = edges[i..].iter().take_while(|&&f| f == e).count();
        if run % 2 == 1 {
            edges[kept] = e;
            kept += 1;
        }
        i += run;
    }
    edges.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;
    use qecool_surface_code::{Ancilla, BitVec, DetectionRound, NoiseSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Decodes `h` with the decoder and with the full-scan reference and
    /// asserts they agree on everything but the work counter.
    fn assert_matches_reference(lat: &Lattice, h: &SyndromeHistory) -> UfComponentOutcome {
        let fast = UnionFindDecoder::new(lat.clone()).decode_components(h, h.num_rounds());
        let slow = reference::decode_components(lat, h);
        assert_eq!(fast.components, slow.components);
        assert_eq!(fast.growth_steps, slow.growth_steps);
        assert_eq!(fast.erasure_edges, slow.erasure_edges);
        assert!(fast.edges_scanned <= slow.edges_scanned);
        fast
    }

    fn history_of(lat: &Lattice, rounds: &[BitVec]) -> SyndromeHistory {
        let mut h = SyndromeHistory::new(lat.clone());
        for r in rounds {
            h.push(DetectionRound::new(r.clone()));
        }
        h
    }

    fn lit(lat: &Lattice, ancillas: &[Ancilla]) -> BitVec {
        let mut bits = BitVec::zeros(lat.num_ancillas());
        for &a in ancillas {
            bits.set(lat.ancilla_index(a), true);
        }
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn decode_components_matches_the_reference(
            d in prop_oneof![Just(3usize), Just(5), Just(7), Just(9), Just(13)],
            rounds_seed in any::<u64>(),
            p in 0.0f64..0.1,
            family in 0usize..4,
            close in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let lat = Lattice::new(d).unwrap();
            let rounds = 1 + (rounds_seed % (3 * d as u64 + 1)) as usize;
            let noise = match family {
                0 => NoiseSpec::Phenomenological { p },
                1 => NoiseSpec::Biased { p, eta: 0.5 },
                2 => NoiseSpec::Burst { p, burst: p / 4.0, mean_len: 3.0 },
                _ => NoiseSpec::CodeCapacity { p },
            }
            .build();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut h = SyndromeHistory::new(lat.clone());
            for r in 0..rounds {
                if close && r + 1 == rounds {
                    h.push(patch.perfect_round());
                } else {
                    h.push(patch.noisy_round(&noise, &mut rng));
                }
            }
            assert_matches_reference(&lat, &h);
        }
    }

    /// `rounds` noisy rounds of `family` at rate `p`, the last one
    /// perfect when `close`.
    fn sampled_history(
        lat: &Lattice,
        rounds: usize,
        p: f64,
        family: usize,
        close: bool,
        seed: u64,
    ) -> SyndromeHistory {
        let noise = match family {
            0 => NoiseSpec::Phenomenological { p },
            1 => NoiseSpec::Biased { p, eta: 0.5 },
            2 => NoiseSpec::Burst {
                p,
                burst: p / 4.0,
                mean_len: 3.0,
            },
            _ => NoiseSpec::CodeCapacity { p },
        }
        .build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lat.clone());
        let mut h = SyndromeHistory::new(lat.clone());
        for r in 0..rounds {
            if close && r + 1 == rounds {
                h.push(patch.perfect_round());
            } else {
                h.push(patch.noisy_round(&noise, &mut rng));
            }
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn anchored_decode_is_the_filtered_full_decode(
            d in prop_oneof![Just(3usize), Just(5), Just(9), Just(13)],
            rounds_seed in any::<u64>(),
            p in 0.0f64..0.1,
            family in 0usize..4,
            close in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let lat = Lattice::new(d).unwrap();
            let rounds = 1 + (rounds_seed % (3 * d as u64 + 1)) as usize;
            let h = sampled_history(&lat, rounds, p, family, close, seed);
            let decoder = UnionFindDecoder::new(lat);
            let full = decoder.decode_components(&h, rounds);
            for anchored_before in 0..=rounds {
                let part = decoder.decode_components(&h, anchored_before);
                let expected: Vec<&UfComponent> = full
                    .components
                    .iter()
                    .filter(|c| c.min_round() < anchored_before)
                    .collect();
                prop_assert_eq!(part.components.iter().collect::<Vec<_>>(), expected);
                prop_assert_eq!(part.growth_steps, full.growth_steps);
                prop_assert_eq!(part.erasure_edges, full.erasure_edges);
                prop_assert_eq!(part.edges_scanned, full.edges_scanned);
                if anchored_before == 0 {
                    prop_assert!(part.components.is_empty());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn visitor_components_and_whole_decode_agree(
            d in prop_oneof![Just(3usize), Just(5), Just(9)],
            rounds_seed in any::<u64>(),
            p in 0.0f64..0.05,
            family in 0usize..4,
            close in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let lat = Lattice::new(d).unwrap();
            let rounds = 1 + (rounds_seed % (3 * d as u64)) as usize;
            let h = sampled_history(&lat, rounds, p, family, close, seed);
            let decoder = UnionFindDecoder::new(lat.clone());
            let whole = decoder.decode(&h);
            let work = (whole.growth_steps, whole.erasure_edges, whole.edges_scanned);
            for anchored_before in 0..=rounds {
                // The visitor sees the collected components, one for one
                // and in order, and every path reports the same work.
                let collected = decoder.decode_components(&h, anchored_before);
                let mut visited = Vec::new();
                let growth = decoder.for_each_component(&h, anchored_before, |corrections, defects| {
                    visited.push(UfComponent {
                        corrections: corrections.to_vec(),
                        defects: defects.to_vec(),
                    });
                });
                prop_assert_eq!(&visited, &collected.components);
                prop_assert_eq!(
                    (growth.steps, growth.erasure_edges, growth.edges_scanned),
                    work
                );
                prop_assert_eq!(
                    (collected.growth_steps, collected.erasure_edges, collected.edges_scanned),
                    work
                );
            }
            // The whole decode is the XOR of every component.
            let mut parity = vec![false; lat.num_data_qubits()];
            for comp in &decoder.decode_components(&h, rounds).components {
                for e in &comp.corrections {
                    parity[e.index()] ^= true;
                }
            }
            let composed: Vec<Edge> = (0..parity.len())
                .filter(|&q| parity[q])
                .map(Edge)
                .collect();
            prop_assert_eq!(&composed, &whole.corrections);
            // `decode_into` appends exactly that after what the list holds.
            let mut out = vec![Edge(usize::MAX)];
            let growth = decoder.decode_into(&h, &mut out);
            prop_assert_eq!(out[0], Edge(usize::MAX));
            prop_assert_eq!(&out[1..], &whole.corrections[..]);
            prop_assert_eq!(
                (growth.steps, growth.erasure_edges, growth.edges_scanned),
                work
            );
        }
    }

    #[test]
    fn fixed_cases_match_the_reference() {
        let lat = Lattice::new(5).unwrap();
        let quiet = BitVec::zeros(lat.num_ancillas());
        let mut all = BitVec::zeros(lat.num_ancillas());
        for a in 0..lat.num_ancillas() {
            all.set(a, true);
        }
        // An empty history: no growth, no work.
        let out = assert_matches_reference(&lat, &history_of(&lat, &vec![quiet.clone(); 4]));
        assert!(out.components.is_empty());
        assert_eq!(out.edges_scanned, 0);
        // A single defect next to the west boundary drains into it.
        let single = lit(&lat, &[Ancilla::new(2, 0)]);
        let out = assert_matches_reference(&lat, &history_of(&lat, &[single]));
        assert_eq!(out.components.len(), 1);
        assert_eq!(
            out.components[0].corrections,
            vec![lat.horizontal_edge(2, 0)]
        );
        // A fully lit round, alone and between quiet rounds.
        assert_matches_reference(&lat, &history_of(&lat, &[all.clone()]));
        assert_matches_reference(&lat, &history_of(&lat, &[quiet.clone(), all, quiet]));
    }

    #[test]
    fn growth_work_is_independent_of_window_length() {
        // Growth touches only the active clusters: the same adjacent
        // defect pair scans the same edges in a 13- and a 39-round
        // window — the 11 distinct edges around two interior cells.
        let lat = Lattice::new(13).unwrap();
        let quiet = BitVec::zeros(lat.num_ancillas());
        let pair = lit(&lat, &[Ancilla::new(6, 5), Ancilla::new(6, 6)]);
        let scanned = |rounds: usize| {
            let mut layers = vec![quiet.clone(); rounds];
            layers[6] = pair.clone();
            assert_matches_reference(&lat, &history_of(&lat, &layers)).edges_scanned
        };
        assert_eq!(scanned(13), 11);
        assert_eq!(scanned(39), 11);
        let h = history_of(&lat, &vec![quiet; 39]);
        assert_eq!(UnionFindDecoder::new(lat).decode(&h).edges_scanned, 0);
    }

    fn single_round(patch: &mut CodePatch) -> SyndromeHistory {
        let mut h = SyndromeHistory::new(patch.lattice().clone());
        h.push(patch.perfect_round());
        h
    }

    #[test]
    fn empty_syndrome_decodes_to_nothing() {
        let lat = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lat.clone());
        let h = single_round(&mut patch);
        let out = UnionFindDecoder::new(lat).decode(&h);
        assert!(out.corrections.is_empty());
        assert_eq!(out.growth_steps, 0);
        assert_eq!(out.erasure_edges, 0);
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        let lat = Lattice::new(5).unwrap();
        let decoder = UnionFindDecoder::new(lat.clone());
        for q in 0..lat.num_data_qubits() {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q));
            let h = single_round(&mut patch);
            let out = decoder.decode(&h);
            out.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "qubit {q}");
            assert!(!patch.has_logical_error(), "qubit {q}");
        }
    }

    #[test]
    fn corrects_pure_measurement_error() {
        let lat = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lat.clone());
        let idx = lat.ancilla_index(Ancilla::new(2, 1));
        let mut h = SyndromeHistory::new(lat.clone());
        let mut r0 = patch.perfect_round().into_inner();
        r0.toggle(idx);
        h.push(qecool_surface_code::DetectionRound::new(r0));
        let mut r1 = patch.perfect_round().into_inner();
        r1.toggle(idx);
        h.push(qecool_surface_code::DetectionRound::new(r1));
        let out = UnionFindDecoder::new(lat).decode(&h);
        assert!(
            out.corrections.is_empty(),
            "measurement error must not touch data: {out:?}"
        );
    }

    #[test]
    fn always_clears_syndrome_under_noise() {
        let lat = Lattice::new(9).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let decoder = UnionFindDecoder::new(lat.clone());
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut h = SyndromeHistory::new(lat.clone());
            for _ in 0..9 {
                h.push(patch.noisy_round(&noise, &mut rng));
            }
            h.push(patch.perfect_round());
            let out = decoder.decode(&h);
            out.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_mwpm_on_sparse_errors() {
        // On isolated weight-1 and weight-2 errors, UF and MWPM decode to
        // the same homology class.
        let lat = Lattice::new(7).unwrap();
        let uf = UnionFindDecoder::new(lat.clone());
        let mut mwpm = qecool_mwpm::MwpmDecoder::new(lat.clone());
        for (q1, q2) in [(10usize, 11usize), (3, 20), (40, 41), (0, 60)] {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q1 % lat.num_data_qubits()));
            patch.inject_error(Edge(q2 % lat.num_data_qubits()));
            let h = single_round(&mut patch);
            let mut p1 = patch.clone();
            uf.decode(&h).apply(&mut p1);
            let mut p2 = patch.clone();
            mwpm.decode(&h).unwrap().apply(&mut p2);
            assert!(p1.syndrome_is_trivial() && p2.syndrome_is_trivial());
            assert_eq!(
                p1.has_logical_error(),
                p2.has_logical_error(),
                "UF and MWPM disagree on ({q1},{q2})"
            );
        }
    }

    #[test]
    fn components_compose_to_the_monolithic_decode() {
        let lat = Lattice::new(9).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let decoder = UnionFindDecoder::new(lat.clone());
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut h = SyndromeHistory::new(lat.clone());
            for _ in 0..9 {
                h.push(patch.noisy_round(&noise, &mut rng));
            }
            h.push(patch.perfect_round());

            let mono = decoder.decode(&h);
            let parts = decoder.decode_components(&h, h.num_rounds());
            assert_eq!(parts.growth_steps, mono.growth_steps);
            assert_eq!(parts.erasure_edges, mono.erasure_edges);

            // XOR-composing per-component corrections reproduces the
            // monolithic correction exactly.
            let mut parity = vec![false; lat.num_data_qubits()];
            for comp in &parts.components {
                assert!(!comp.defects.is_empty());
                assert!(comp.defects.iter().any(|&(_, t)| t == comp.min_round()));
                for e in &comp.corrections {
                    parity[e.index()] ^= true;
                }
            }
            let composed: Vec<Edge> = parity
                .iter()
                .enumerate()
                .filter_map(|(q, &on)| on.then_some(Edge(q)))
                .collect();
            assert_eq!(composed, mono.corrections, "seed {seed}");

            // Components partition the events: every detection event is
            // explained exactly once.
            let mut seen: Vec<(usize, usize)> = parts
                .components
                .iter()
                .flat_map(|c| c.defects.iter().copied())
                .collect();
            seen.sort_unstable_by_key(|&(a, t)| (t, a));
            let events: Vec<(usize, usize)> = h
                .events()
                .iter()
                .map(|ev| (lat.ancilla_index(ev.ancilla), ev.round))
                .collect();
            assert_eq!(seen, events, "seed {seed}");
        }
    }

    #[test]
    fn growth_steps_scale_with_separation() {
        // Two far-apart events need more growth than two adjacent ones.
        let lat = Lattice::new(9).unwrap();
        let near = {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(lat.horizontal_edge(4, 4));
            let h = single_round(&mut patch);
            UnionFindDecoder::new(lat.clone()).decode(&h).growth_steps
        };
        let far = {
            let mut patch = CodePatch::new(lat.clone());
            let a = Ancilla::new(0, 4);
            let b = Ancilla::new(8, 4);
            for e in lat.route(a, b) {
                patch.inject_error(e);
            }
            let h = single_round(&mut patch);
            UnionFindDecoder::new(lat.clone()).decode(&h).growth_steps
        };
        assert!(far > near, "far {far} vs near {near}");
    }
}
