//! The MWPM baseline decoder for the 3-D surface-code syndrome lattice.
//!
//! This is the comparator of Fig. 4(a) and Table IV of the QECOOL paper
//! (Fowler \[7\]): detection events become nodes of a matching graph, edge
//! weights are 3-D Manhattan distances (space + time — the correct
//! log-likelihood weight when data and measurement error rates are equal,
//! as the paper assumes), and a minimum-weight perfect matching selects
//! the correction. By default each event joins only its 16 nearest events
//! ([`MwpmDecoder::new`]), which can miss the complete-graph optimum;
//! [`MwpmDecoder::exact`] joins every pair.
//!
//! Open boundaries use the standard **graph-doubling reduction**: the event
//! graph is duplicated, each event is connected to its own copy with weight
//! `2 × (distance to nearest boundary)`, and event–event edges appear in
//! both copies. A minimum-weight perfect matching of the doubled graph
//! projects (copy 1 + cross edges) onto an optimal boundary-aware matching
//! of the original events.

use qecool_surface_code::{
    syndrome::DetectionEvent, Boundary, CodePatch, Edge, Lattice, SyndromeHistory,
};

use crate::blossom::WeightedEdge;
use crate::perfect::{PerfectMatcher, PerfectMatchingError};

/// A matched pair of detection events, or an event matched to a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match {
    /// Two detection events paired through the bulk.
    Pair(DetectionEvent, DetectionEvent),
    /// An event matched to the nearest open boundary.
    ToBoundary(DetectionEvent, Boundary),
}

impl Match {
    /// Vertical (temporal) extent of this match in measurement rounds.
    ///
    /// `Pair` extents count the time-layer separation; boundary matches are
    /// purely spatial and have extent 0.
    pub fn vertical_extent(&self) -> usize {
        match self {
            Match::Pair(a, b) => a.round.abs_diff(b.round),
            Match::ToBoundary(..) => 0,
        }
    }

    /// The earliest measurement round this match touches.
    ///
    /// Sliding-window callers use this to decide whether a match is
    /// anchored in the commit stride (committed now) or floats entirely
    /// in the overlap region (left tentative for the next window).
    pub fn min_round(&self) -> usize {
        match self {
            Match::Pair(a, b) => a.round.min(b.round),
            Match::ToBoundary(a, _) => a.round,
        }
    }

    /// The detection events this match explains (one or two).
    pub fn events(&self) -> impl Iterator<Item = DetectionEvent> + '_ {
        let (first, second) = match self {
            Match::Pair(a, b) => (*a, Some(*b)),
            Match::ToBoundary(a, _) => (*a, None),
        };
        std::iter::once(first).chain(second)
    }

    /// Appends the data-qubit corrections this match implies on
    /// `lattice`: the route between its two events, or from its event to
    /// its boundary.
    ///
    /// [`MwpmDecoder::decode`] routes every match through this, so a
    /// sliding-window caller committing a subset of the matches of
    /// [`MwpmDecoder::match_history`] reproduces exactly the corrections
    /// the monolithic decode would have emitted for them.
    pub fn append_corrections(&self, lattice: &Lattice, out: &mut Vec<Edge>) {
        match self {
            Match::Pair(a, b) => out.extend(lattice.route(a.ancilla, b.ancilla)),
            Match::ToBoundary(a, boundary) => {
                out.extend(lattice.route_to_boundary(a.ancilla, *boundary));
            }
        }
    }
}

/// Result of decoding one syndrome history.
#[derive(Debug, Clone, Default)]
pub struct MwpmOutcome {
    /// The pairing selected by the matcher.
    pub matches: Vec<Match>,
    /// Data-qubit corrections implied by the pairing.
    pub corrections: Vec<Edge>,
    /// Vertices of the doubled matching graph handed to the blossom
    /// kernel: two per detection event.
    pub graph_vertices: usize,
    /// Edges of the doubled matching graph: each event–event edge twice
    /// (once per copy) plus one boundary edge per event.
    pub graph_edges: usize,
    /// Blossom stages (augmenting-path searches) the matching ran; every
    /// stage but possibly the last augments the matching by one edge. 0
    /// for a history without events.
    pub stages: usize,
}

impl MwpmOutcome {
    /// Applies the data-qubit corrections to a code patch.
    pub fn apply(&self, patch: &mut CodePatch) {
        patch.apply_corrections(self.corrections.iter().copied());
    }
}

/// MWPM decoder over a [`SyndromeHistory`]: a minimum-weight perfect
/// matching of the detection events on a graph that joins each event to
/// its 16 nearest events ([`MwpmDecoder::new`]). The cap can drop an
/// edge the complete-graph optimum would use, so the matching is not
/// always the exact optimum; [`MwpmDecoder::exact`] matches on the
/// complete event graph instead.
///
/// The decoder keeps its graph and matcher buffers, and the list of its
/// last matching, between decodes, so decoding takes `&mut self`.
///
/// # Example
///
/// ```
/// use qecool_mwpm::MwpmDecoder;
/// use qecool_surface_code::{CodePatch, Lattice, SyndromeHistory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lattice = Lattice::new(5)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// patch.inject_error(lattice.horizontal_edge(2, 2));
/// let mut history = SyndromeHistory::new(lattice.clone());
/// history.push(patch.perfect_round());
///
/// let mut decoder = MwpmDecoder::new(lattice);
/// let outcome = decoder.decode(&history)?;
/// outcome.apply(&mut patch);
/// assert!(patch.syndrome_is_trivial());
/// assert!(!patch.has_logical_error());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MwpmDecoder {
    lattice: Lattice,
    neighbor_cap: Option<usize>,
    /// The events of the history being decoded.
    events: Vec<DetectionEvent>,
    graph: GraphBuilder,
    matcher: PerfectMatcher,
    /// The last [`Self::match_history`] outcome, its lists kept for the
    /// next one.
    matched: MwpmOutcome,
}

/// The matching-graph builder's buffers, reused from one decode to the
/// next.
#[derive(Debug, Clone, Default)]
struct GraphBuilder {
    /// The row, column and round of each event (rounds counted from the
    /// earliest event's), kept as three lists so that one event's
    /// distances to all the others compute lane-parallel.
    rows: Vec<i32>,
    cols: Vec<i32>,
    rounds: Vec<i32>,
    /// The nearest boundary of each event, for its cross edge and for
    /// projecting a cross-edge match.
    boundary: Vec<Boundary>,
    /// One event's distance to every event.
    dists: Vec<u32>,
    /// Per distance bucket, the set of events at that distance from one
    /// event, as a bitset of `n.div_ceil(64)` words; all zero between
    /// events.
    buckets: Vec<u64>,
    /// One event's nearest-neighbour list: `(distance, event)` keys.
    near: Vec<u64>,
    /// Per event: the largest key of its nearest-neighbour list
    /// (`u64::MAX` when the list holds every other event).
    cutoff: Vec<u64>,
}

/// Distances of at least this many share the graph builder's last
/// bucket, which is sorted when a list reaches it.
const FAR: usize = 256;

impl MwpmDecoder {
    /// Creates a decoder with the default neighbor cap: each event
    /// connects to its 16 nearest events, which keeps the graph linear in
    /// the number of events. This rarely changes the matching's logical
    /// outcome, but it is not guaranteed to find the complete-graph
    /// optimum.
    pub fn new(lattice: Lattice) -> Self {
        Self {
            lattice,
            neighbor_cap: Some(16),
            events: Vec::new(),
            graph: GraphBuilder::default(),
            matcher: PerfectMatcher::new(),
            matched: MwpmOutcome::default(),
        }
    }

    /// Creates a decoder that builds the *complete* event graph (exact but
    /// quadratic in the number of events). Useful for validating the capped
    /// variant.
    pub fn exact(lattice: Lattice) -> Self {
        Self::new(lattice).with_neighbor_cap(None)
    }

    /// Sets the neighbor cap (`None` = complete graph).
    pub fn with_neighbor_cap(mut self, cap: Option<usize>) -> Self {
        self.neighbor_cap = cap;
        self
    }

    /// The lattice this decoder was built for.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Decodes a full syndrome history (batch decoding): matches its
    /// events ([`Self::match_history`]) and routes every match into an
    /// outcome of its own.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfectMatchingError`] if the internal doubled graph
    /// admits no perfect matching; by construction (every event has a
    /// cross edge to its copy) this cannot happen, so an error indicates a
    /// bug upstream.
    ///
    /// # Panics
    ///
    /// Panics if the history belongs to a different lattice size.
    pub fn decode(
        &mut self,
        history: &SyndromeHistory,
    ) -> Result<MwpmOutcome, PerfectMatchingError> {
        let mut outcome = self.match_history(history)?.clone();
        for m in &outcome.matches {
            m.append_corrections(&self.lattice, &mut outcome.corrections);
        }
        Ok(outcome)
    }

    /// Matches the events of a full syndrome history without routing
    /// them: the outcome's `corrections` are left empty. The outcome is
    /// kept in the decoder and reused by the next match, so a warmed
    /// decoder matches without allocating. A caller that keeps only some
    /// matches (a sliding window commits those anchored in its stride)
    /// routes just those with [`Match::append_corrections`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode`].
    ///
    /// # Panics
    ///
    /// Panics if the history belongs to a different lattice size.
    pub fn match_history(
        &mut self,
        history: &SyndromeHistory,
    ) -> Result<&MwpmOutcome, PerfectMatchingError> {
        assert_eq!(
            history.lattice().num_ancillas(),
            self.lattice.num_ancillas(),
            "history lattice does not match decoder lattice"
        );
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        for (t, round) in history.iter().enumerate() {
            for idx in round.events().iter_ones() {
                events.push(DetectionEvent::new(self.lattice.ancilla_from_index(idx), t));
            }
        }
        let mut matched = std::mem::take(&mut self.matched);
        let result = self.match_events(&events, &mut matched);
        self.events = events;
        self.matched = matched;
        result.map(|()| &self.matched)
    }

    /// Matches `events` into `outcome` without routing them.
    fn match_events(
        &mut self,
        events: &[DetectionEvent],
        outcome: &mut MwpmOutcome,
    ) -> Result<(), PerfectMatchingError> {
        outcome.matches.clear();
        outcome.graph_vertices = 0;
        outcome.graph_edges = 0;
        outcome.stages = 0;
        let n = events.len();
        if n == 0 {
            return Ok(());
        }
        // The graph is built straight into the matcher's edge list.
        let (lattice, cap, graph) = (&self.lattice, self.neighbor_cap, &mut self.graph);
        let mut graph_edges = 0;
        self.matcher.solve_with(2 * n, |edges| {
            graph.build(lattice, cap, events, edges);
            graph_edges = edges.len();
        })?;
        let mate = self.matcher.mate();

        // Project the copy-1 solution.
        outcome.graph_vertices = 2 * n;
        outcome.graph_edges = graph_edges;
        outcome.stages = self.matcher.stages();
        for i in 0..n {
            let m = mate[i];
            if m == n + i {
                outcome
                    .matches
                    .push(Match::ToBoundary(events[i], self.graph.boundary[i]));
            } else if m < n && i < m {
                outcome.matches.push(Match::Pair(events[i], events[m]));
            } else {
                debug_assert!(
                    m < n || m == n + i,
                    "cross edges only connect an event to its own copy"
                );
            }
        }
        Ok(())
    }

    /// The doubled matching graph [`Self::match_history`] matches for
    /// `events`. Exposed so that the blossom kernel can be timed on the
    /// decoder's own graphs.
    ///
    /// For `n` events, copy-1 nodes are `0..n` and copy-2 nodes `n..2n`.
    /// Each event–event edge `(i, j)`, `i < j`, is followed by its copy
    /// `(n + i, n + j)`; the cross edges `i <-> n + i`, weighted twice the
    /// boundary distance, come last. Without a cap the pairs come in
    /// ascending `(i, j)` order. With cap `c`, event `i` lists its `c`
    /// smallest `(distance, j)` keys in ascending order, and a pair is
    /// emitted the first time a list names it.
    pub fn matching_graph(&mut self, events: &[DetectionEvent]) -> Vec<WeightedEdge> {
        let mut edges = Vec::new();
        self.graph
            .build(&self.lattice, self.neighbor_cap, events, &mut edges);
        edges
    }

    /// The neighbour cap (`None` = complete graph).
    #[cfg(test)]
    pub(crate) fn neighbor_cap(&self) -> Option<usize> {
        self.neighbor_cap
    }
}

impl GraphBuilder {
    /// Writes [`MwpmDecoder::matching_graph`] of `events` into the empty
    /// list `edges`.
    ///
    /// With a cap, row `i` takes its `c` smallest `(distance, j)` keys
    /// by bucketing the other events on their (small integer) distance:
    /// one pass in ascending `j` sets each event's bit in its distance's
    /// bucket, and reading the buckets nearest first, each in ascending
    /// `j`, until the list is full yields exactly ascending keys without
    /// comparing any. Pair `(i, j)` with `j < i` was emitted at row `j`
    /// iff `i` is in `j`'s list, which holds iff `(distance, i)` is at
    /// most the largest key of that list; so one key per event replaces
    /// a set of emitted pairs.
    ///
    /// # Panics
    ///
    /// Panics if the events' rounds span `2^30` or more.
    fn build(
        &mut self,
        lattice: &Lattice,
        neighbor_cap: Option<usize>,
        events: &[DetectionEvent],
        edges: &mut Vec<WeightedEdge>,
    ) {
        let Self {
            rows,
            cols,
            rounds,
            boundary,
            dists,
            buckets,
            near,
            cutoff,
        } = self;
        let n = events.len();
        let first = events.iter().map(|e| e.round).min().unwrap_or(0);
        let span = events.iter().map(|e| e.round - first).max().unwrap_or(0);
        // Rows and columns are below the lattice size, so no distance
        // overflows an `i32`.
        assert!(span < 1 << 30, "event rounds span 2^30 or more");
        rows.clear();
        cols.clear();
        rounds.clear();
        for e in events {
            rows.push(e.ancilla.row as i32);
            cols.push(e.ancilla.col as i32);
            rounds.push((e.round - first) as i32);
        }
        // Event `i`'s distance to every event.
        let distances =
            |i: usize, out: &mut Vec<u32>| {
                let (r0, c0, t0) = (rows[i], cols[i], rounds[i]);
                out.clear();
                out.extend(rows.iter().zip(cols.iter()).zip(rounds.iter()).map(
                    |((&r, &c), &t)| ((r - r0).abs() + (c - c0).abs() + (t - t0).abs()) as u32,
                ));
            };
        let mut push_pair = |i: usize, j: usize, w: i64| {
            edges.push((i, j, w));
            edges.push((n + i, n + j, w));
        };
        match neighbor_cap {
            None => {
                for i in 0..n {
                    distances(i, dists);
                    for (j, &w) in dists.iter().enumerate().skip(i + 1) {
                        push_pair(i, j, i64::from(w));
                    }
                }
            }
            Some(cap) => {
                // Keys `(distance, j)` packed as `distance << 32 | j`
                // compare like the pairs they encode (event indices stay
                // far below 2^32).
                let key = |w: u32, j: usize| (u64::from(w) << 32) | j as u64;
                // No distance exceeds the sum of the sides of the events'
                // bounding box; distances from `FAR` up share the last
                // bucket.
                let side = |v: &[i32]| {
                    let (lo, hi) = v
                        .iter()
                        .fold((i32::MAX, i32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                    (i64::from(hi) - i64::from(lo)).max(0) as usize
                };
                let last = (side(rows) + side(cols) + side(rounds)).min(FAR);
                let words = n.div_ceil(64);
                let word = |w: u32, j: usize| (w as usize).min(last) * words + j / 64;
                buckets.clear();
                buckets.resize((last + 1) * words, 0);
                cutoff.clear();
                for i in 0..n {
                    let take = cap.min(n - 1);
                    distances(i, dists);
                    for (j, &w) in dists.iter().enumerate() {
                        buckets[word(w, j)] |= 1 << (j % 64);
                    }
                    // Event i itself, at distance 0, is never listed.
                    buckets[i / 64] &= !(1 << (i % 64));
                    near.clear();
                    let mut b = 0;
                    while near.len() < take {
                        let set = &buckets[b * words..(b + 1) * words];
                        let from = near.len();
                        'bucket: for (k, &bits) in set.iter().enumerate() {
                            let mut bits = bits;
                            while bits != 0 {
                                if near.len() == take && b < FAR {
                                    break 'bucket;
                                }
                                let j = 64 * k + bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                near.push(key(dists[j], j));
                            }
                        }
                        if b == FAR {
                            // The shared last bucket mixes distances.
                            near[from..].sort_unstable();
                            near.truncate(take);
                        }
                        b += 1;
                    }
                    for (j, &w) in dists.iter().enumerate() {
                        buckets[word(w, j)] = 0;
                    }
                    cutoff.push(if take == n - 1 {
                        u64::MAX
                    } else {
                        near.last().copied().unwrap_or(0)
                    });
                    for &k in near.iter() {
                        let (w, j) = ((k >> 32) as u32, (k & u64::from(u32::MAX)) as usize);
                        let listed_by_j = j < i && key(w, i) <= cutoff[j];
                        if !listed_by_j {
                            push_pair(i.min(j), i.max(j), i64::from(w));
                        }
                    }
                }
            }
        }
        boundary.clear();
        for (i, ev) in events.iter().enumerate() {
            let (side, dist) = lattice.nearest_boundary(ev.ancilla);
            boundary.push(side);
            edges.push((i, n + i, 2 * dist as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{Ancilla, NoiseSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(d: usize) -> (Lattice, CodePatch, SyndromeHistory) {
        let lat = Lattice::new(d).unwrap();
        let patch = CodePatch::new(lat.clone());
        let hist = SyndromeHistory::new(lat.clone());
        (lat, patch, hist)
    }

    #[test]
    fn empty_history_decodes_to_nothing() {
        let (lat, _, hist) = setup(5);
        let outcome = MwpmDecoder::new(lat).decode(&hist).unwrap();
        assert!(outcome.matches.is_empty());
        assert!(outcome.corrections.is_empty());
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = MwpmDecoder::new(lat.clone());
        for q in 0..lat.num_data_qubits() {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q));
            let mut hist = SyndromeHistory::new(lat.clone());
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            outcome.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "qubit {q} left syndrome");
            assert!(!patch.has_logical_error(), "qubit {q} caused logical flip");
        }
    }

    #[test]
    fn corrects_measurement_error_without_touching_data() {
        // A lone measurement error produces two vertically adjacent events
        // on the same ancilla; MWPM must pair them with zero data
        // correction.
        let (lat, mut patch, mut hist) = setup(5);
        let idx = lat.ancilla_index(Ancilla::new(2, 1));
        // Round 0: flip the readout of one ancilla by hand.
        let mut r0 = patch.perfect_round().into_inner();
        r0.toggle(idx);
        hist.push(qecool_surface_code::DetectionRound::new(r0));
        // Round 1: the wrong value reverts, producing the second event.
        let mut r1 = patch.perfect_round().into_inner();
        r1.toggle(idx);
        hist.push(qecool_surface_code::DetectionRound::new(r1));

        let outcome = MwpmDecoder::new(lat).decode(&hist).unwrap();
        assert!(outcome.corrections.is_empty(), "{outcome:?}");
        assert_eq!(outcome.matches.len(), 1);
        assert_eq!(outcome.matches[0].vertical_extent(), 1);
    }

    #[test]
    fn pairs_adjacent_events_rather_than_boundary() {
        let (lat, mut patch, mut hist) = setup(7);
        // Error in the middle: two events one apart; boundary is farther.
        patch.inject_error(lat.horizontal_edge(3, 3));
        hist.push(patch.perfect_round());
        let outcome = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
        assert_eq!(outcome.matches.len(), 1);
        assert!(matches!(outcome.matches[0], Match::Pair(..)));
        assert_eq!(outcome.corrections.len(), 1);
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn matches_edge_event_to_boundary() {
        let (lat, mut patch, mut hist) = setup(7);
        patch.inject_error(lat.horizontal_edge(3, 0));
        hist.push(patch.perfect_round());
        let outcome = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
        assert_eq!(outcome.matches.len(), 1);
        assert!(matches!(
            outcome.matches[0],
            Match::ToBoundary(_, Boundary::West)
        ));
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn corrects_weight_two_chains() {
        let lat = Lattice::new(7).unwrap();
        let mut decoder = MwpmDecoder::new(lat.clone());
        // A chain of two adjacent horizontal errors.
        let mut patch = CodePatch::new(lat.clone());
        patch.inject_error(lat.horizontal_edge(3, 2));
        patch.inject_error(lat.horizontal_edge(3, 3));
        let mut hist = SyndromeHistory::new(lat.clone());
        hist.push(patch.perfect_round());
        let outcome = decoder.decode(&hist).unwrap();
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn capped_and_exact_agree_on_moderate_noise() {
        let lat = Lattice::new(7).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.02 };
        let mut failures = 0;
        for seed in 0..30u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..7 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());

            let exact = MwpmDecoder::exact(lat.clone()).decode(&hist).unwrap();
            let capped = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
            // Both must return to the code space.
            let mut p1 = patch.clone();
            exact.apply(&mut p1);
            assert!(p1.syndrome_is_trivial());
            let mut p2 = patch.clone();
            capped.apply(&mut p2);
            assert!(p2.syndrome_is_trivial());
            if p1.has_logical_error() != p2.has_logical_error() {
                failures += 1;
            }
        }
        assert!(failures <= 2, "cap changed {failures}/30 logical outcomes");
    }

    #[test]
    fn always_returns_to_code_space_under_heavy_noise() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = MwpmDecoder::new(lat.clone());
        let noise = NoiseSpec::Phenomenological { p: 0.1 };
        for seed in 0..25u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..5 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            outcome.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "seed {seed} left syndrome");
        }
    }

    #[test]
    fn vertical_extent_is_reported() {
        let a = DetectionEvent::new(Ancilla::new(0, 0), 1);
        let b = DetectionEvent::new(Ancilla::new(0, 0), 4);
        assert_eq!(Match::Pair(a, b).vertical_extent(), 3);
        assert_eq!(Match::ToBoundary(a, Boundary::West).vertical_extent(), 0);
    }

    #[test]
    fn min_round_and_events_cover_both_match_shapes() {
        let a = DetectionEvent::new(Ancilla::new(0, 0), 4);
        let b = DetectionEvent::new(Ancilla::new(1, 0), 1);
        let pair = Match::Pair(a, b);
        assert_eq!(pair.min_round(), 1);
        assert_eq!(pair.events().collect::<Vec<_>>(), vec![a, b]);
        let bd = Match::ToBoundary(a, Boundary::West);
        assert_eq!(bd.min_round(), 4);
        assert_eq!(bd.events().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn per_match_corrections_compose_to_the_decode_corrections() {
        let lat = Lattice::new(7).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let mut decoder = MwpmDecoder::new(lat.clone());
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..7 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            let mut rebuilt = Vec::new();
            for m in &outcome.matches {
                m.append_corrections(&lat, &mut rebuilt);
            }
            assert_eq!(rebuilt, outcome.corrections, "seed {seed}");
        }
    }

    #[test]
    fn match_history_selects_the_decode_matches_unrouted() {
        let lat = Lattice::new(7).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.04 };
        let mut decoder = MwpmDecoder::new(lat.clone());
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..7 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            let matched = decoder.match_history(&hist).unwrap().clone();
            let decoded = decoder.decode(&hist).unwrap();
            assert!(matched.corrections.is_empty(), "seed {seed}");
            assert_eq!(matched.matches, decoded.matches, "seed {seed}");
            assert_eq!(
                (matched.graph_vertices, matched.graph_edges, matched.stages),
                (decoded.graph_vertices, decoded.graph_edges, decoded.stages),
                "seed {seed}"
            );
        }
    }
}
