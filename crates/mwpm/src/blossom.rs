//! Maximum-weight general-graph matching via Edmonds' blossom algorithm.
//!
//! This is a from-scratch Rust implementation of the O(n³) formulation by
//! Galil ("Efficient algorithms for finding maximum matching in graphs",
//! ACM Computing Surveys, 1986), following the well-known reference
//! structure of van Rantwijk's `mwmatching` (also used by NetworkX): a
//! primal–dual method that maintains vertex/blossom dual variables and
//! alternates labeling stages with dual adjustments.
//!
//! The QECOOL reproduction uses it (through
//! [`min_weight_perfect_matching`](crate::perfect::min_weight_perfect_matching))
//! as the minimum-weight perfect-matching kernel of the MWPM baseline
//! decoder the paper compares against (Fowler \[7\], Fig. 4(a), Table IV).
//!
//! All weights are `i64`; dual variables are kept pre-multiplied by two so
//! that every quantity stays integral throughout (the classic trick that
//! makes the integer algorithm exact).
//!
//! `BlossomMatcher` owns every table the algorithm needs and reuses them
//! from one call to the next: after the first few calls a matching
//! allocates nothing. Incidence is a flat CSR array, a blossom's lists
//! come from and go back to one pool of spare lists, and leaf walks write
//! straight into the queue or one scratch buffer.
//!
//! The bookkeeping around the algorithm costs what the work costs, while
//! every step, and so every tie-break, is the reference's:
//!
//! * A stage starts from a kept ascending list of the single vertices (a
//!   matched vertex never becomes single again): labelling a trivial
//!   single S is two stores, and the queue is one copy of the list.
//!   Only the best edges and allowable edges the last stage set are
//!   reset, not every slot.
//! * A scan reads one incidence entry per edge (remote endpoint, its
//!   vertex and the weight), never the edge list. Each best edge keeps
//!   its slack, which stays exact until the next dual update (the only
//!   place vertex duals move, and which refreshes it), so comparing a
//!   candidate against it recomputes nothing; the scanned vertex's own
//!   blossom keeps its best edge in a local until the scan ends.
//! * The end-of-stage expansion, the delta-3/4 searches and the dual
//!   update visit only the blossom numbers in use, in ascending order,
//!   as a sweep over every slot would meet them.

/// Sentinel for "no vertex / no endpoint / no edge".
const NONE: i64 = -1;

/// An undirected weighted edge `(u, v, weight)` between vertex indices.
pub type WeightedEdge = (usize, usize, i64);

/// A reusable maximum-weight matcher.
///
/// Every buffer lives in the matcher and keeps its capacity between
/// calls, so a decoder that holds one matcher allocates only while its
/// graphs keep growing.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlossomMatcher {
    max_cardinality: bool,
    nvertex: usize,
    edges: Vec<WeightedEdge>,
    /// `neighbend[neighstart[v]..neighstart[v + 1]]` = the edges incident
    /// to `v`, in edge order.
    neighstart: Vec<usize>,
    neighbend: Vec<Incidence>,
    /// `mate[v]` = remote endpoint of `v`'s matched edge, or -1.
    mate: Vec<i64>,
    /// `label[b]`: 0 free, 1 = S, 2 = T (5 = S + breadcrumb).
    label: Vec<u8>,
    /// `labelend[b]` = endpoint through which `b` got its label, or -1.
    labelend: Vec<i64>,
    /// `inblossom[v]` = top-level blossom containing vertex `v`.
    inblossom: Vec<usize>,
    /// `blossomparent[b]` = immediate super-blossom, or -1.
    blossomparent: Vec<i64>,
    /// Sub-blossoms of a non-trivial blossom, ordered around the cycle
    /// (empty for vertices and unused blossoms).
    blossomchilds: Vec<Vec<usize>>,
    /// `blossombase[b]` = base vertex of blossom `b` (-1 when unused).
    blossombase: Vec<i64>,
    /// Endpoints connecting consecutive sub-blossoms.
    blossomendps: Vec<Vec<usize>>,
    /// Least-slack edge candidates, with their slacks.
    bestedge: Vec<BestEdge>,
    /// The slots whose best edge this stage set (some more than once);
    /// every other slot's is `BestEdge::NONE`.
    besttouched: Vec<usize>,
    /// `blossombestedges[b]` is meaningful only while `hasbestedges[b]`.
    blossombestedges: Vec<Vec<usize>>,
    hasbestedges: Vec<bool>,
    /// Cleared lists for the three per-blossom tables above. A blossom
    /// takes its lists from here when it forms and returns them when it
    /// expands or the next call starts, so the capacity kept follows the
    /// most blossoms alive at once, not the largest blossom each blossom
    /// number ever held (which crept up over a long-lived decoder).
    spare_lists: Vec<Vec<usize>>,
    unusedblossoms: Vec<usize>,
    /// The blossom numbers in use (top-level or nested), ascending: the
    /// loops over blossoms visit these instead of every slot.
    live: Vec<usize>,
    /// The single vertices, ascending. A matched vertex never becomes
    /// single again, so each stage starts from this list.
    singles: Vec<usize>,
    /// Dual variables (×2): `0..nvertex` = vertex `u`, rest = blossom `z`.
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    /// The edges this stage made allowable.
    allowed: Vec<usize>,
    queue: Vec<usize>,
    /// Breadcrumbed blossoms of one `scan_blossom` call.
    scanpath: Vec<usize>,
    /// Leaves of one blossom, for walks that cannot write to the queue.
    leaves: Vec<usize>,
    /// `add_blossom`'s least-slack edge per neighbouring S-blossom, and
    /// its slack; all `NONE` between calls.
    bestedgeto: Vec<(i64, i64)>,
    /// The entries of `bestedgeto` one `add_blossom` call set.
    bestedgeto_set: Vec<usize>,
    /// Stages the last call ran.
    stages: usize,
}

/// One edge as seen from one of its vertices: the remote endpoint `p`,
/// its vertex `endpoint(p)` and the edge's weight, stored together so
/// that scanning a vertex reads its incidence list front to back and
/// never the edge list.
#[derive(Debug, Clone, Copy, Default)]
struct Incidence {
    p: usize,
    w: usize,
    wt: i64,
}

/// A least-slack edge candidate and its slack under the current vertex
/// duals. Vertex duals move only in the dual update, which refreshes
/// every kept slack, so a comparison against a candidate never
/// recomputes its slack.
#[derive(Debug, Clone, Copy)]
struct BestEdge {
    slack: i64,
    edge: usize,
}

impl BestEdge {
    /// No candidate: its slack loses every comparison with a real one.
    const NONE: Self = Self {
        slack: i64::MAX,
        edge: usize::MAX,
    };

    fn is_some(self) -> bool {
        self.slack != i64::MAX
    }
}

/// Computes a maximum-weight matching on a general graph.
///
/// Vertices are `0..num_vertices`; `edges` lists undirected weighted edges.
/// If `max_cardinality` is true, only maximum-cardinality matchings are
/// considered (among which the weight is maximized) — the mode the
/// minimum-weight *perfect* matching reduction needs.
///
/// Returns `mate`, where `mate[v]` is the vertex matched to `v`, or `None`
/// if `v` is single.
///
/// # Panics
///
/// Panics if an edge references a vertex `>= num_vertices` or is a
/// self-loop.
///
/// # Example
///
/// ```
/// use qecool_mwpm::blossom::max_weight_matching;
///
/// // A triangle plus a pendant: the best matching takes the two disjoint
/// // heavy edges.
/// let edges = [(0, 1, 6), (0, 2, 5), (1, 2, 4), (2, 3, 3)];
/// let mate = max_weight_matching(4, &edges, false);
/// assert_eq!(mate[0], Some(1));
/// assert_eq!(mate[2], Some(3));
/// ```
pub fn max_weight_matching(
    num_vertices: usize,
    edges: &[WeightedEdge],
    max_cardinality: bool,
) -> Vec<Option<usize>> {
    let mut m = BlossomMatcher::new();
    m.max_weight_matching(num_vertices, max_cardinality, |out| {
        out.extend_from_slice(edges)
    });
    (0..num_vertices).map(|v| m.mate(v)).collect()
}

/// The capacity a new blossom list starts with. The pool hands its lists
/// out in no particular order, so a list that starts small keeps meeting
/// a blossom larger than it holds and grows again; at 16 entries a
/// blossom's lists hold its children, their endpoints and its best
/// edges without growing in all but the busiest windows.
const NEW_LIST_CAPACITY: usize = 16;

/// Returns a blossom's list to the spare pool, cleared; a list that never
/// allocated is just dropped.
fn recycle(spare: &mut Vec<Vec<usize>>, mut list: Vec<usize>) {
    if list.capacity() > 0 {
        list.clear();
        spare.push(list);
    }
}

/// Appends the vertices of blossom `b` (recursively, in child order).
fn push_leaves(nvertex: usize, blossomchilds: &[Vec<usize>], b: usize, out: &mut Vec<usize>) {
    if b < nvertex {
        out.push(b);
    } else {
        for &t in &blossomchilds[b] {
            push_leaves(nvertex, blossomchilds, t, out);
        }
    }
}

/// `list[j mod list.len()]`, for the signed walks round a blossom.
#[inline]
fn cyclic(list: &[usize], j: i64) -> usize {
    list[j.rem_euclid(list.len() as i64) as usize]
}

impl BlossomMatcher {
    /// An empty matcher; its buffers grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Computes a maximum-weight matching on vertices `0..num_vertices`
    /// of the edges `fill` writes into the matcher's own (emptied) edge
    /// list, replacing the previous result; read it back with
    /// [`Self::mate`]. `max_cardinality` has the meaning it has in
    /// [`max_weight_matching`], and the result is identical to it.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices` or is a
    /// self-loop.
    pub(crate) fn max_weight_matching(
        &mut self,
        num_vertices: usize,
        max_cardinality: bool,
        fill: impl FnOnce(&mut Vec<WeightedEdge>),
    ) {
        self.load(num_vertices, max_cardinality, fill);
        if !self.edges.is_empty() {
            self.run();
        }
    }

    /// The vertex matched to `v` by the last call, or `None` if `v` is
    /// single.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the last graph.
    pub(crate) fn mate(&self, v: usize) -> Option<usize> {
        let p = self.mate[v];
        (p >= 0).then(|| self.endpoint(p as usize))
    }

    /// Stages (augmenting-path searches) the last call ran; every stage
    /// but possibly the last augments the matching by one edge.
    pub(crate) fn stages(&self) -> usize {
        self.stages
    }

    /// Resets every table for a new graph, keeping the allocations.
    fn load(
        &mut self,
        nvertex: usize,
        max_cardinality: bool,
        fill: impl FnOnce(&mut Vec<WeightedEdge>),
    ) {
        self.nvertex = nvertex;
        self.max_cardinality = max_cardinality;
        self.stages = 0;
        self.edges.clear();
        fill(&mut self.edges);
        // CSR incidence: count degrees while checking the edges,
        // prefix-sum, fill in edge order (which leaves each `neighstart[v]`
        // at the end of `v`), shift back.
        self.neighstart.clear();
        self.neighstart.resize(nvertex + 1, 0);
        let mut maxweight = 0;
        for &(i, j, w) in &self.edges {
            assert!(i != j, "self-loop edge ({i},{j})");
            assert!(
                i < nvertex && j < nvertex,
                "edge ({i},{j}) references vertex >= {nvertex}"
            );
            maxweight = maxweight.max(w);
            self.neighstart[i + 1] += 1;
            self.neighstart[j + 1] += 1;
        }
        for v in 0..nvertex {
            self.neighstart[v + 1] += self.neighstart[v];
        }
        // A new largest graph grows the incidence to exactly its size:
        // amortised doubling would keep up to twice the largest window.
        self.neighbend.clear();
        self.neighbend.reserve_exact(2 * self.edges.len());
        self.neighbend
            .resize(2 * self.edges.len(), Incidence::default());
        for (k, &(i, j, wt)) in self.edges.iter().enumerate() {
            let p = 2 * k + 1;
            self.neighbend[self.neighstart[i]] = Incidence { p, w: j, wt };
            self.neighstart[i] += 1;
            let p = 2 * k;
            self.neighbend[self.neighstart[j]] = Incidence { p, w: i, wt };
            self.neighstart[j] += 1;
        }
        for v in (1..=nvertex).rev() {
            self.neighstart[v] = self.neighstart[v - 1];
        }
        self.neighstart[0] = 0;

        let nb = 2 * nvertex;
        self.mate.clear();
        self.mate.resize(nvertex, NONE);
        self.label.clear();
        self.label.resize(nb, 0);
        self.labelend.clear();
        self.labelend.resize(nb, NONE);
        self.inblossom.clear();
        self.inblossom.extend(0..nvertex);
        self.blossomparent.clear();
        self.blossomparent.resize(nb, NONE);
        // Only the blossoms the last call left alive hold lists.
        for &b in &self.live {
            for lists in [
                &mut self.blossomchilds,
                &mut self.blossomendps,
                &mut self.blossombestedges,
            ] {
                recycle(&mut self.spare_lists, std::mem::take(&mut lists[b]));
            }
        }
        self.live.clear();
        if self.blossomchilds.len() < nb {
            self.blossomchilds.resize_with(nb, Vec::new);
            self.blossomendps.resize_with(nb, Vec::new);
            self.blossombestedges.resize_with(nb, Vec::new);
        }
        self.blossombase.clear();
        self.blossombase.extend(0..nvertex as i64);
        self.blossombase.resize(nb, NONE);
        self.bestedge.clear();
        self.bestedge.resize(nb, BestEdge::NONE);
        self.besttouched.clear();
        self.hasbestedges.clear();
        self.hasbestedges.resize(nb, false);
        self.unusedblossoms.clear();
        self.unusedblossoms.extend(nvertex..nb);
        self.singles.clear();
        self.singles.extend(0..nvertex);
        self.dualvar.clear();
        self.dualvar.resize(nvertex, maxweight);
        self.dualvar.resize(nb, 0);
        self.allowedge.clear();
        self.allowedge.resize(self.edges.len(), false);
        self.allowed.clear();
        self.queue.clear();
        self.bestedgeto.clear();
        self.bestedgeto.resize(nb, (NONE, 0));
        self.bestedgeto_set.clear();
    }

    /// Vertex at endpoint `p`; endpoints `2k` and `2k+1` belong to edge
    /// `k`.
    #[inline]
    fn endpoint(&self, p: usize) -> usize {
        let (i, j, _) = self.edges[p / 2];
        if p & 1 == 0 {
            i
        } else {
            j
        }
    }

    /// Slack of edge `k` (non-negative for tight constraints).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// A cleared list for a forming blossom, from the spare pool when it
    /// has one. A new list starts at [`NEW_LIST_CAPACITY`] entries.
    fn spare_list(&mut self) -> Vec<usize> {
        self.spare_lists
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(NEW_LIST_CAPACITY))
    }

    /// Refills `self.leaves` with the vertices of blossom `b`.
    fn fill_leaves(&mut self, b: usize) {
        self.leaves.clear();
        push_leaves(self.nvertex, &self.blossomchilds, b, &mut self.leaves);
    }

    /// Assigns label `t` to the top-level blossom containing vertex `w`.
    fn assign_label(&mut self, w: usize, t: u8, p: i64) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = BestEdge::NONE;
        self.bestedge[b] = BestEdge::NONE;
        if t == 1 {
            // b became an S-blossom; add its vertices to the queue.
            if b < self.nvertex {
                self.queue.push(b);
            } else {
                push_leaves(self.nvertex, &self.blossomchilds, b, &mut self.queue);
            }
        } else if t == 2 {
            // b became a T-blossom; label its mate's blossom S.
            let base = self.blossombase[b] as usize;
            debug_assert!(self.mate[base] >= 0);
            let mate_ep = self.mate[base] as usize;
            self.assign_label(self.endpoint(mate_ep), 1, (mate_ep ^ 1) as i64);
        }
    }

    /// Traces back from vertices `v` and `w` to discover either a common
    /// ancestor (new blossom base) or an augmenting path (returns -1).
    fn scan_blossom(&mut self, v: usize, w: usize) -> i64 {
        let mut path = std::mem::take(&mut self.scanpath);
        path.clear();
        let mut base = NONE;
        let mut v = v as i64;
        let mut w = w as i64;
        while v != NONE || w != NONE {
            if v != NONE {
                // Look for a breadcrumb in v's blossom, or put a new one.
                let b = self.inblossom[v as usize];
                if self.label[b] & 4 != 0 {
                    base = self.blossombase[b];
                    break;
                }
                debug_assert_eq!(self.label[b], 1);
                path.push(b);
                self.label[b] = 5;
                // Trace one step back.
                debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b] as usize]);
                if self.labelend[b] == NONE {
                    // The base of blossom b is single; stop tracing this path.
                    v = NONE;
                } else {
                    let t = self.endpoint(self.labelend[b] as usize);
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    // bt is a T-blossom; trace one more step back.
                    debug_assert!(self.labelend[bt] >= 0);
                    v = self.endpoint(self.labelend[bt] as usize) as i64;
                }
            }
            // Swap v and w so that we alternate between both paths.
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        // Remove breadcrumbs.
        for &b in &path {
            self.label[b] = 1;
        }
        self.scanpath = path;
        base
    }

    /// Constructs a new blossom with the given base, through edge `k`
    /// between two S-vertices.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        // Create blossom.
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        let at = self.live.partition_point(|&x| x < b);
        self.live.insert(at, b);
        self.blossombase[b] = base as i64;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as i64;
        // Make list of sub-blossoms and their interconnecting edge
        // endpoints, in spare lists.
        let mut path = self.spare_list();
        let mut endps = self.spare_list();
        // Trace back from v to base.
        while bv != bb {
            self.blossomparent[bv] = b as i64;
            path.push(bv);
            endps.push(self.labelend[bv] as usize);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv] as usize])
            );
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint(self.labelend[bv] as usize);
            bv = self.inblossom[v];
        }
        // Reverse lists, add endpoint that connects the pair of S vertices.
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        // Trace back from w to base.
        while bw != bb {
            self.blossomparent[bw] = b as i64;
            path.push(bw);
            endps.push((self.labelend[bw] as usize) ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw] as usize])
            );
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint(self.labelend[bw] as usize);
            bw = self.inblossom[w];
        }
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;
        // Set label to S.
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        // Set dual variable to zero.
        self.dualvar[b] = 0;
        // Relabel vertices.
        self.fill_leaves(b);
        for i in 0..self.leaves.len() {
            let lv = self.leaves[i];
            if self.label[self.inblossom[lv]] == 2 {
                // This T-vertex now turns into an S-vertex because it
                // becomes part of an S-blossom; add it to the queue.
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }
        // Compute blossombestedges[b].
        let childs = std::mem::take(&mut self.blossomchilds[b]);
        for &bv in &childs {
            if self.hasbestedges[bv] {
                let list = std::mem::take(&mut self.blossombestedges[bv]);
                for &k2 in &list {
                    let (i, j, _) = self.edges[k2];
                    let j = if self.inblossom[j] == b { i } else { j };
                    self.offer_bestedgeto(b, k2, j, self.slack(k2));
                }
                self.blossombestedges[bv] = list;
            } else {
                self.fill_leaves(bv);
                for i in 0..self.leaves.len() {
                    let lv = self.leaves[i];
                    for q in self.neighstart[lv]..self.neighstart[lv + 1] {
                        let Incidence { p, w, wt } = self.neighbend[q];
                        let kslack = self.dualvar[lv] + self.dualvar[w] - 2 * wt;
                        self.offer_bestedgeto(b, p / 2, w, kslack);
                    }
                }
            }
            // Forget about least-slack edges of the subblossom.
            recycle(
                &mut self.spare_lists,
                std::mem::take(&mut self.blossombestedges[bv]),
            );
            self.hasbestedges[bv] = false;
            self.bestedge[bv] = BestEdge::NONE;
        }
        self.blossomchilds[b] = childs;
        // Collect the candidates in blossom order, select bestedge[b] and
        // reset the scratch.
        self.bestedgeto_set.sort_unstable();
        let mut best = self.spare_list();
        self.bestedge[b] = BestEdge::NONE;
        for &bj in &self.bestedgeto_set {
            let (k2, kslack) = self.bestedgeto[bj];
            best.push(k2 as usize);
            if kslack < self.bestedge[b].slack {
                self.bestedge[b] = BestEdge {
                    slack: kslack,
                    edge: k2 as usize,
                };
            }
            self.bestedgeto[bj] = (NONE, 0);
        }
        self.bestedgeto_set.clear();
        if self.bestedge[b].is_some() {
            self.besttouched.push(b);
        }
        self.blossombestedges[b] = best;
        self.hasbestedges[b] = true;
    }

    /// Offers edge `k2`, of slack `kslack`, from new blossom `b` to its
    /// end `j` as the least-slack edge from `b` to the S-blossom holding
    /// `j`.
    fn offer_bestedgeto(&mut self, b: usize, k2: usize, j: usize, kslack: i64) {
        let bj = self.inblossom[j];
        if bj != b && self.label[bj] == 1 {
            let (cur, curslack) = self.bestedgeto[bj];
            if cur == NONE {
                self.bestedgeto_set.push(bj);
            }
            if cur == NONE || kslack < curslack {
                self.bestedgeto[bj] = (k2 as i64, kslack);
            }
        }
    }

    /// Expands the given top-level blossom.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        // Blossom b is recycled below; its lists are only read from here on.
        let childs = std::mem::take(&mut self.blossomchilds[b]);
        let endps = std::mem::take(&mut self.blossomendps[b]);
        // Convert sub-blossoms into top-level blossoms.
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                // Recursively expand this sub-blossom.
                self.expand_blossom(s, endstage);
            } else {
                self.fill_leaves(s);
                for i in 0..self.leaves.len() {
                    let lv = self.leaves[i];
                    self.inblossom[lv] = s;
                }
            }
        }
        // If we expand a T-blossom during a stage, its sub-blossoms must be
        // relabeled.
        if !endstage && self.label[b] == 2 {
            // Start at the sub-blossom through which the expanding blossom
            // obtained its label, and relabel sub-blossoms until we reach
            // the base.
            debug_assert!(self.labelend[b] >= 0);
            let entrychild = self.inblossom[self.endpoint((self.labelend[b] as usize) ^ 1)];
            let len = childs.len() as i64;
            // Decide in which direction we will go round the blossom.
            let start = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entrychild in blossom") as i64;
            let mut j = start;
            let (jstep, endptrick): (i64, i64) = if start & 1 != 0 {
                // Start index is odd; go forward and wrap.
                j -= len;
                (1, 0)
            } else {
                // Start index is even; go backward.
                (-1, 1)
            };
            // Move along the blossom until we get to the base.
            let mut p = self.labelend[b] as usize;
            while j != 0 {
                // Relabel the T-sub-blossom.
                let t = self.endpoint(p ^ 1);
                self.label[t] = 0;
                let q = cyclic(&endps, j - endptrick) ^ (endptrick as usize) ^ 1;
                let s = self.endpoint(q);
                self.label[s] = 0;
                self.assign_label(t, 2, p as i64);
                // Step to the next S-sub-blossom and note its forward
                // endpoint.
                self.allow(cyclic(&endps, j - endptrick) / 2);
                j += jstep;
                p = cyclic(&endps, j - endptrick) ^ (endptrick as usize);
                // Step to the next T-sub-blossom.
                self.allow(p / 2);
                j += jstep;
            }
            // Relabel the base T-sub-blossom WITHOUT stepping through to its
            // mate (so don't call assign_label).
            let bv = cyclic(&childs, j);
            let t = self.endpoint(p ^ 1);
            self.label[t] = 2;
            self.label[bv] = 2;
            self.labelend[t] = p as i64;
            self.labelend[bv] = p as i64;
            self.bestedge[bv] = BestEdge::NONE;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while cyclic(&childs, j) != entrychild {
                // Examine the vertices of the sub-blossom to see whether it
                // is reachable from a neighbouring S-vertex outside the
                // expanding blossom.
                let bv = cyclic(&childs, j);
                if self.label[bv] == 1 {
                    // This sub-blossom just got label S through one of its
                    // neighbours; leave it.
                    j += jstep;
                    continue;
                }
                self.fill_leaves(bv);
                let v = self
                    .leaves
                    .iter()
                    .copied()
                    .find(|&lv| self.label[lv] != 0)
                    .unwrap_or(*self.leaves.last().expect("non-empty blossom"));
                // If the sub-blossom contains a reachable vertex, assign
                // label T to the sub-blossom.
                if self.label[v] != 0 {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base_mate =
                        self.endpoint(self.mate[self.blossombase[bv] as usize] as usize);
                    self.label[base_mate] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom number; its lists go back to the pool.
        recycle(&mut self.spare_lists, childs);
        recycle(&mut self.spare_lists, endps);
        recycle(
            &mut self.spare_lists,
            std::mem::take(&mut self.blossombestedges[b]),
        );
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossombase[b] = NONE;
        self.hasbestedges[b] = false;
        self.bestedge[b] = BestEdge::NONE;
        let at = self
            .live
            .binary_search(&b)
            .expect("expanded blossom is live");
        self.live.remove(at);
        self.unusedblossoms.push(b);
    }

    /// Swaps matched/unmatched edges over an alternating path through
    /// blossom `b` between its base and vertex `v`.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        // Bubble up through the blossom tree from vertex v to an immediate
        // sub-blossom of b.
        let mut t = v;
        while self.blossomparent[t] != b as i64 {
            t = self.blossomparent[t] as usize;
        }
        // Recursively deal with the first sub-blossom.
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        // The recursion below only touches b's sub-blossoms, so b's lists
        // can be held out of the matcher while it runs.
        let mut childs = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        let len = childs.len() as i64;
        // Decide in which direction we will go round the blossom.
        let i = childs.iter().position(|&c| c == t).expect("t in blossom") as i64;
        let mut j = i;
        let (jstep, endptrick): (i64, i64) = if i & 1 != 0 {
            // Start index is odd; go forward and wrap.
            j -= len;
            (1, 0)
        } else {
            // Start index is even; go backward.
            (-1, 1)
        };
        // Move along the blossom until we get to the base.
        while j != 0 {
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t1 = cyclic(&childs, j);
            let p = cyclic(&endps, j - endptrick) ^ (endptrick as usize);
            if t1 >= self.nvertex {
                self.augment_blossom(t1, self.endpoint(p));
            }
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t2 = cyclic(&childs, j);
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint(p ^ 1));
            }
            // Match the edge connecting those sub-blossoms.
            let (a, z) = (self.endpoint(p), self.endpoint(p ^ 1));
            self.mate[a] = (p ^ 1) as i64;
            self.mate[z] = p as i64;
        }
        // Rotate the list of sub-blossoms to put the new base at the front.
        childs.rotate_left(i as usize);
        endps.rotate_left(i as usize);
        self.blossombase[b] = self.blossombase[childs[0]];
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
        debug_assert_eq!(self.blossombase[b], v as i64);
    }

    /// Augments the matching along the alternating path through edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (s0, p0) in [(v, 2 * k + 1), (w, 2 * k)] {
            // Match vertex s to remote endpoint p, then trace back until we
            // find a single vertex, swapping matched/unmatched as we go.
            let mut s = s0;
            let mut p = p0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs] as usize]);
                // Augment through the S-blossom from s to base.
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p as i64;
                // Trace one step back.
                if self.labelend[bs] == NONE {
                    // Reached single vertex; stop.
                    break;
                }
                let t = self.endpoint(self.labelend[bs] as usize);
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint(self.labelend[bt] as usize);
                let j = self.endpoint((self.labelend[bt] as usize) ^ 1);
                // Augment through the T-blossom from j to base.
                debug_assert_eq!(self.blossombase[bt], t as i64);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                // Keep the opposite endpoint; it will be assigned to mate[s]
                // in the next step.
                p = (self.labelend[bt] as usize) ^ 1;
            }
        }
    }

    /// Makes edge `k` allowable.
    fn allow(&mut self, k: usize) {
        if !self.allowedge[k] {
            self.allowedge[k] = true;
            self.allowed.push(k);
        }
    }

    /// Stores `best` as the best edge of slot `b`.
    fn keep_best(&mut self, b: usize, best: BestEdge) {
        if best.is_some() && !self.bestedge[b].is_some() {
            self.besttouched.push(b);
        }
        self.bestedge[b] = best;
    }

    /// Labels the single vertices S and queues them, in ascending order:
    /// the start of a stage.
    fn label_singles(&mut self) {
        // Drop the vertices the last stage matched and label the rest;
        // `assign_label(v, 1, NONE)` of a trivial blossom is two stores
        // (the stage reset already cleared its best edge).
        let mut kept = 0;
        let mut in_blossoms = false;
        for i in 0..self.singles.len() {
            let v = self.singles[i];
            if self.mate[v] != NONE {
                continue;
            }
            self.singles[kept] = v;
            kept += 1;
            if self.inblossom[v] == v {
                self.label[v] = 1;
                self.labelend[v] = NONE;
            } else {
                in_blossoms = true;
            }
        }
        self.singles.truncate(kept);
        if !in_blossoms {
            self.queue.extend_from_slice(&self.singles);
            return;
        }
        // A single base of a blossom queues the blossom's leaves in its
        // place.
        for i in 0..self.singles.len() {
            let v = self.singles[i];
            if self.inblossom[v] == v {
                self.queue.push(v);
            } else {
                self.assign_label(v, 1, NONE);
            }
        }
    }

    /// Scans the edges of S-vertex `v`; returns true if it found an
    /// augmenting path (and augmented the matching through it).
    fn scan(&mut self, v: usize) -> bool {
        debug_assert_eq!(self.label[self.inblossom[v]], 1);
        // Vertex duals only move in the dual update; `v`'s blossom, and
        // so the best edge kept for it (held here until the scan ends),
        // only when the scan adds a blossom.
        let dual_v = self.dualvar[v];
        let mut bv = self.inblossom[v];
        let mut best_bv = self.bestedge[bv];
        for pi in self.neighstart[v]..self.neighstart[v + 1] {
            let Incidence { p, w, wt } = self.neighbend[pi];
            let k = p / 2;
            let bw = self.inblossom[w];
            if bv == bw {
                // This edge is internal to a blossom; ignore it.
                continue;
            }
            let kslack = dual_v + self.dualvar[w] - 2 * wt;
            let lw = self.label[bw];
            // An edge of zero slack is allowable.
            if self.allowedge[k] || kslack <= 0 {
                self.allow(k);
                if lw == 0 {
                    // (C1) w is a free vertex; label w with T and label its
                    // mate with S.
                    self.assign_label(w, 2, (p ^ 1) as i64);
                } else if lw == 1 {
                    // (C2) w is an S-vertex; follow back-links to discover
                    // either an augmenting path or a new blossom.
                    let base = self.scan_blossom(v, w);
                    if base >= 0 {
                        // Found a new blossom.
                        self.keep_best(bv, best_bv);
                        self.add_blossom(base as usize, k);
                        bv = self.inblossom[v];
                        best_bv = self.bestedge[bv];
                    } else {
                        // Found an augmenting path.
                        self.keep_best(bv, best_bv);
                        self.augment_matching(k);
                        return true;
                    }
                } else if self.label[w] == 0 {
                    // w is inside a T-blossom, but w itself has not yet
                    // been reached from outside the blossom; mark it as
                    // reached (needed for relabeling during T-blossom
                    // expansion).
                    debug_assert_eq!(lw, 2);
                    self.label[w] = 2;
                    self.labelend[w] = (p ^ 1) as i64;
                }
            } else if lw == 1 {
                // Track the least-slack non-allowable edge to a different
                // S-blossom.
                if kslack < best_bv.slack {
                    best_bv = BestEdge {
                        slack: kslack,
                        edge: k,
                    };
                }
            } else if self.label[w] == 0 {
                // w is a free vertex (or unreached inside a T-blossom);
                // track the least-slack edge that reaches it.
                let cur = self.bestedge[w];
                if kslack < cur.slack {
                    if !cur.is_some() {
                        self.besttouched.push(w);
                    }
                    self.bestedge[w] = BestEdge {
                        slack: kslack,
                        edge: k,
                    };
                }
            }
        }
        self.keep_best(bv, best_bv);
        false
    }

    fn run(&mut self) {
        // Main loop: continue until no further improvement is possible.
        for _ in 0..self.nvertex {
            // Each iteration of this loop is a "stage".
            self.stages += 1;
            self.label.fill(0);
            // Reset only what the last stage set.
            for &b in &self.besttouched {
                self.bestedge[b] = BestEdge::NONE;
            }
            self.besttouched.clear();
            for &k in &self.allowed {
                self.allowedge[k] = false;
            }
            self.allowed.clear();
            for &b in &self.live {
                self.hasbestedges[b] = false;
            }
            self.queue.clear();
            // Label single blossoms/vertices with S and put them in the
            // queue.
            self.label_singles();
            // Loop until we succeed in augmenting the matching.
            let mut augmented = false;
            loop {
                // Continue labeling until all vertices reachable through an
                // alternating path have got a label.
                while let Some(v) = self.queue.pop() {
                    if self.scan(v) {
                        augmented = true;
                        break;
                    }
                }
                if augmented {
                    break;
                }
                // No augmenting path under these constraints; compute delta
                // and adjust the dual variables. (Vertex duals, slacks and
                // deltas are pre-multiplied by two.)
                let mut deltatype = -1;
                let mut delta = 0i64;
                let mut deltaedge = 0;
                let mut deltablossom = NONE;
                // delta1: minimum vertex dual.
                if !self.max_cardinality {
                    deltatype = 1;
                    delta = *self.dualvar[..self.nvertex].iter().min().expect("vertices");
                }
                // delta2: minimum slack on an edge between an S-vertex and a
                // free vertex.
                for v in 0..self.nvertex {
                    let best = self.bestedge[v];
                    if self.label[self.inblossom[v]] == 0 && best.is_some() {
                        let d = best.slack;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = best.edge;
                        }
                    }
                }
                // delta3: half the minimum slack between a pair of
                // S-blossoms: vertices first, then blossoms in ascending
                // order, as a sweep over every slot would meet them.
                let nvertex = self.nvertex;
                for b in (0..nvertex).chain(self.live.iter().copied()) {
                    let best = self.bestedge[b];
                    if self.blossomparent[b] == NONE && self.label[b] == 1 && best.is_some() {
                        let kslack = best.slack;
                        debug_assert_eq!(kslack % 2, 0, "integer duals stay even");
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = best.edge;
                        }
                    }
                }
                // delta4: minimum z of a top-level T-blossom.
                for &b in &self.live {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b as i64;
                    }
                }
                if deltatype == -1 {
                    // No further improvement possible; max-cardinality
                    // optimum reached. Do a final delta update.
                    debug_assert!(self.max_cardinality);
                    deltatype = 1;
                    delta = self.dualvar[..self.nvertex]
                        .iter()
                        .min()
                        .copied()
                        .expect("vertices")
                        .max(0);
                }
                self.update_duals(delta);
                // Take action at the point where the minimum delta occurred.
                match deltatype {
                    1 => break, // Optimum reached.
                    2 => {
                        // Use the least-slack edge to continue the search.
                        let k = deltaedge;
                        self.allow(k);
                        let (mut i, j, _) = self.edges[k];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        let k = deltaedge;
                        self.allow(k);
                        let (i, _, _) = self.edges[k];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => {
                        self.expand_blossom(deltablossom as usize, false);
                    }
                    _ => unreachable!("invalid delta type"),
                }
            }
            // Stop when no more augmenting paths can be found.
            if !augmented {
                break;
            }
            // End of a stage; expand all S-blossoms with zero dual, in
            // ascending order. An expansion frees blossom numbers and
            // makes sub-blossoms top-level, so each step looks up the next
            // live number above the last one visited.
            let mut next = 0;
            while let Some(&b) = self.live.get(next) {
                if self.blossomparent[b] == NONE && self.label[b] == 1 && self.dualvar[b] == 0 {
                    self.expand_blossom(b, true);
                }
                next = self.live.partition_point(|&x| x <= b);
            }
        }
    }

    /// Moves the duals of every labelled top-level blossom (and its
    /// vertices) by `delta`, then refreshes the kept best-edge slacks.
    fn update_duals(&mut self, delta: i64) {
        for v in 0..self.nvertex {
            match self.label[self.inblossom[v]] {
                1 => self.dualvar[v] -= delta,
                2 => self.dualvar[v] += delta,
                _ => {}
            }
        }
        for &b in &self.live {
            if self.blossomparent[b] == NONE {
                match self.label[b] {
                    1 => self.dualvar[b] += delta,
                    2 => self.dualvar[b] -= delta,
                    _ => {}
                }
            }
        }
        for &b in &self.besttouched {
            let best = self.bestedge[b];
            if best.is_some() {
                self.bestedge[b].slack = self.slack(best.edge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total weight of a mate vector against the edge list (each matched
    /// edge counted once).
    fn matching_weight(edges: &[WeightedEdge], mate: &[Option<usize>]) -> i64 {
        edges
            .iter()
            .filter(|&&(i, j, _)| mate[i] == Some(j))
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// Brute-force maximum matching weight over all subsets of edges
    /// (only for tiny fixtures).
    fn brute_force_max(n: usize, edges: &[WeightedEdge]) -> i64 {
        fn rec(edges: &[WeightedEdge], used: &mut [bool], k: usize) -> i64 {
            if k == edges.len() {
                return 0;
            }
            let skip = rec(edges, used, k + 1);
            let (i, j, w) = edges[k];
            if !used[i] && !used[j] {
                used[i] = true;
                used[j] = true;
                let take = w + rec(edges, used, k + 1);
                used[i] = false;
                used[j] = false;
                skip.max(take)
            } else {
                skip
            }
        }
        rec(edges, &mut vec![false; n], 0)
    }

    fn assert_valid(edges: &[WeightedEdge], mate: &[Option<usize>]) {
        for (v, &m) in mate.iter().enumerate() {
            if let Some(m) = m {
                assert_eq!(mate[m], Some(v), "matching is not symmetric at {v}-{m}");
                assert!(
                    edges
                        .iter()
                        .any(|&(i, j, _)| (i, j) == (v, m) || (i, j) == (m, v)),
                    "matched pair {v}-{m} is not an edge"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(
            max_weight_matching(0, &[], false),
            Vec::<Option<usize>>::new()
        );
        assert_eq!(max_weight_matching(3, &[], false), vec![None, None, None]);
    }

    #[test]
    fn incidence_grows_to_exactly_the_largest_graph() {
        let path = |n: usize| -> Vec<WeightedEdge> { (1..n).map(|v| (v - 1, v, 1)).collect() };
        let mut m = BlossomMatcher::new();
        for (n, largest) in [(40, 39), (50, 49), (30, 49)] {
            m.max_weight_matching(n, false, |out| out.extend(path(n)));
            assert_eq!(m.neighbend.capacity(), 2 * largest, "after {n} vertices");
        }
    }

    #[test]
    fn single_edge() {
        let mate = max_weight_matching(2, &[(0, 1, 1)], false);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn prefers_heavy_single_edge_over_two_light() {
        // Path 0-1-2-3 with middle edge heavier than both outer combined.
        let edges = [(0, 1, 2), (1, 2, 10), (2, 3, 2)];
        let mate = max_weight_matching(4, &edges, false);
        assert_eq!(mate[1], Some(2));
        assert_eq!(mate[0], None);
        assert_eq!(mate[3], None);
    }

    #[test]
    fn max_cardinality_overrides_weight() {
        let edges = [(0, 1, 2), (1, 2, 10), (2, 3, 2)];
        let mate = max_weight_matching(4, &edges, true);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[2], Some(3));
    }

    #[test]
    fn negative_weights_without_cardinality_leaves_single() {
        let edges = [(0, 1, -5)];
        let mate = max_weight_matching(2, &edges, false);
        assert_eq!(mate, vec![None, None]);
    }

    #[test]
    fn negative_weights_with_cardinality_matches_anyway() {
        let edges = [(0, 1, -5)];
        let mate = max_weight_matching(2, &edges, true);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    // The following cases are the classic blossom stress tests from the
    // reference implementation's test-suite (van Rantwijk), which exercise
    // S-blossom creation, T-blossom expansion, nested blossoms, and
    // relabeling.

    #[test]
    fn s_blossom_and_use_for_augmentation_a() {
        let edges = [(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)];
        let mate = max_weight_matching(4, &edges, false);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn s_blossom_and_use_for_augmentation_b() {
        let edges = [
            (0, 1, 8),
            (0, 2, 9),
            (1, 2, 10),
            (2, 3, 7),
            (0, 5, 5),
            (3, 4, 6),
        ];
        let mate = max_weight_matching(6, &edges, false);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn create_s_blossom_relabel_as_t_and_use_for_augmentation_a() {
        let edges = [
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 4),
            (0, 5, 3),
        ];
        let mate = max_weight_matching(6, &edges, false);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn create_s_blossom_relabel_as_t_and_use_for_augmentation_b() {
        let edges = [
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 3),
            (0, 5, 4),
        ];
        let mate = max_weight_matching(6, &edges, false);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn create_nested_s_blossom_use_for_augmentation() {
        let edges = [
            (0, 1, 9),
            (0, 2, 9),
            (1, 2, 10),
            (1, 3, 8),
            (2, 4, 8),
            (3, 4, 10),
            (4, 5, 6),
        ];
        let mate = max_weight_matching(6, &edges, false);
        assert_eq!(
            mate,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn augment_blossom_expand_t_blossom() {
        // "create S-blossom, relabel as T-blossom, use for augmentation"
        let edges = [
            (0, 1, 10),
            (0, 6, 10),
            (1, 2, 12),
            (2, 3, 20),
            (2, 4, 20),
            (3, 4, 25),
            (4, 5, 10),
            (5, 6, 10),
            (6, 7, 8),
        ];
        let mate = max_weight_matching(8, &edges, false);
        assert_eq!(
            mate,
            vec![
                Some(1),
                Some(0),
                Some(3),
                Some(2),
                Some(5),
                Some(4),
                Some(7),
                Some(6)
            ]
        );
    }

    #[test]
    fn create_nested_s_blossom_expand_recursively() {
        let edges = [
            (0, 1, 40),
            (0, 2, 40),
            (1, 2, 60),
            (2, 3, 55),
            (3, 4, 55),
            (4, 5, 50),
            (0, 7, 15),
            (4, 6, 30),
            (6, 8, 10),
            (7, 9, 10),
            (1, 3, 55),
        ];
        let mate = max_weight_matching(10, &edges, false);
        assert_valid(&edges, &mate);
        // Known optimum weight from the reference test-suite family.
        let w = matching_weight(&edges, &mate);
        assert!(w >= 145, "suboptimal matching of weight {w}");
    }

    #[test]
    fn t_blossom_near_augmenting_path() {
        // "create blossom, relabel as T in more than one way, expand,
        // augment"
        let edges = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 3, 30),
            (4, 8, 35),
            (3, 8, 35),
            (7, 8, 26),
            (10, 11, 5),
        ];
        let mate = max_weight_matching(12, &edges, false);
        assert_valid(&edges, &mate);
        assert_eq!(
            matching_weight(&edges, &mate),
            brute_force_max(12, &edges),
            "suboptimal: {mate:?}"
        );
    }

    #[test]
    fn nasty_blossom_expand_relabel() {
        // "again but slightly different" — classic nasty case.
        let edges = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 3, 30),
            (2, 8, 35),
            (4, 8, 26),
            (7, 8, 26),
            (10, 11, 5),
        ];
        let mate = max_weight_matching(12, &edges, false);
        assert_valid(&edges, &mate);
        assert_eq!(
            matching_weight(&edges, &mate),
            brute_force_max(12, &edges),
            "suboptimal: {mate:?}"
        );
    }

    #[test]
    fn nasty_blossom_augmenting_path_through() {
        // "create blossom, relabel as T, expand such that a new least-slack
        // S-to-free edge is produced, augment"
        let edges = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 3, 30),
            (4, 8, 28),
            (2, 8, 26),
            (7, 8, 26),
            (10, 11, 5),
        ];
        let mate = max_weight_matching(12, &edges, false);
        assert_valid(&edges, &mate);
        assert_eq!(mate[8], Some(7));
    }

    #[test]
    fn nested_blossom_expanded_during_augmentation() {
        // "create nested blossom, relabel as T in more than one way, expand
        // outer blossom such that inner blossom ends up on an augmenting
        // path"
        let edges = [
            (0, 1, 45),
            (0, 6, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 95),
            (3, 5, 94),
            (4, 5, 94),
            (5, 6, 50),
            (0, 5, 30),
            (6, 9, 35),
            (8, 9, 36),
            (5, 8, 26),
            (10, 11, 5),
        ];
        let mate = max_weight_matching(12, &edges, false);
        assert_valid(&edges, &mate);
        assert_eq!(mate[9], Some(8));
    }
}
