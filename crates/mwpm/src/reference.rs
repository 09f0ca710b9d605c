//! The original MWPM graph builder and blossom matcher, kept verbatim as
//! the test reference the allocation-free kernel is pinned against: a
//! full sort per event with `HashSet` dedup for the capped graph, and a
//! matcher that allocates its leaf lists, blossom copies and scratch
//! tables as it goes. Edge lists and `mate` vectors must agree exactly.

use std::collections::HashSet;

use qecool_surface_code::{syndrome::DetectionEvent, Lattice};

use crate::blossom::WeightedEdge;

/// The doubled matching graph of `events`, built the original way.
pub(crate) fn doubled_graph(
    lattice: &Lattice,
    events: &[DetectionEvent],
    neighbor_cap: Option<usize>,
) -> Vec<WeightedEdge> {
    let n = events.len();
    let dist = |a: &DetectionEvent, b: &DetectionEvent| {
        (lattice.grid_distance(a.ancilla, b.ancilla) + a.round.abs_diff(b.round)) as i64
    };
    let mut pair_edges: Vec<(usize, usize, i64)> = Vec::new();
    match neighbor_cap {
        None => {
            for i in 0..n {
                for j in i + 1..n {
                    pair_edges.push((i, j, dist(&events[i], &events[j])));
                }
            }
        }
        Some(cap) => {
            let mut seen = HashSet::new();
            for i in 0..n {
                let mut near: Vec<(i64, usize)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (dist(&events[i], &events[j]), j))
                    .collect();
                near.sort_unstable();
                for &(w, j) in near.iter().take(cap) {
                    let key = (i.min(j), i.max(j));
                    if seen.insert(key) {
                        pair_edges.push((key.0, key.1, w));
                    }
                }
            }
        }
    }
    let mut edges: Vec<(usize, usize, i64)> = Vec::with_capacity(2 * pair_edges.len() + n);
    for &(i, j, w) in &pair_edges {
        edges.push((i, j, w));
        edges.push((n + i, n + j, w));
    }
    for (i, ev) in events.iter().enumerate() {
        let (_, dist) = lattice.nearest_boundary(ev.ancilla);
        edges.push((i, n + i, 2 * dist as i64));
    }
    edges
}

/// Minimum-weight perfect matching by the original reduction: negate
/// every weight and run the original matcher at maximum cardinality.
pub(crate) fn min_weight_perfect_mate(
    num_vertices: usize,
    edges: &[WeightedEdge],
) -> Vec<Option<usize>> {
    let negated: Vec<WeightedEdge> = edges.iter().map(|&(i, j, w)| (i, j, -w)).collect();
    max_weight_matching(num_vertices, &negated, true)
}

/// Sentinel for "no vertex / no endpoint / no edge".
const NONE: i64 = -1;

/// State of one matching computation.
struct Matcher<'a> {
    edges: &'a [WeightedEdge],
    max_cardinality: bool,
    nvertex: usize,
    /// `endpoint[p]` = vertex at endpoint `p`; endpoints `2k` and `2k+1`
    /// belong to edge `k`.
    endpoint: Vec<usize>,
    /// `neighbend[v]` = remote endpoints of edges incident to `v`.
    neighbend: Vec<Vec<usize>>,
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
    /// Sub-blossoms of a non-trivial blossom, ordered around the cycle.
    blossomchilds: Vec<Option<Vec<usize>>>,
    /// `blossombase[b]` = base vertex of blossom `b` (-1 when unused).
    blossombase: Vec<i64>,
    /// Endpoints connecting consecutive sub-blossoms.
    blossomendps: Vec<Option<Vec<usize>>>,
    /// Least-slack edge candidates.
    bestedge: Vec<i64>,
    blossombestedges: Vec<Option<Vec<usize>>>,
    unusedblossoms: Vec<usize>,
    /// Dual variables (×2): `0..nvertex` = vertex `u`, rest = blossom `z`.
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
}

/// Maximum-weight matching by the original matcher.
pub(crate) fn max_weight_matching(
    num_vertices: usize,
    edges: &[WeightedEdge],
    max_cardinality: bool,
) -> Vec<Option<usize>> {
    if num_vertices == 0 || edges.is_empty() {
        return vec![None; num_vertices];
    }
    for &(i, j, _) in edges {
        assert!(i != j, "self-loop edge ({i},{j})");
        assert!(
            i < num_vertices && j < num_vertices,
            "edge ({i},{j}) references vertex >= {num_vertices}"
        );
    }
    let mut m = Matcher::new(num_vertices, edges, max_cardinality);
    m.run();
    m.mate
        .iter()
        .map(|&p| {
            if p >= 0 {
                Some(m.endpoint[p as usize])
            } else {
                None
            }
        })
        .collect()
}

impl<'a> Matcher<'a> {
    fn new(nvertex: usize, edges: &'a [WeightedEdge], max_cardinality: bool) -> Self {
        let nedge = edges.len();
        let maxweight = edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        let endpoint: Vec<usize> = (0..2 * nedge)
            .map(|p| {
                if p % 2 == 0 {
                    edges[p / 2].0
                } else {
                    edges[p / 2].1
                }
            })
            .collect();
        let mut neighbend: Vec<Vec<usize>> = vec![Vec::new(); nvertex];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0, nvertex));
        Self {
            edges,
            max_cardinality,
            nvertex,
            endpoint,
            neighbend,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![None; 2 * nvertex],
            blossombase: (0..nvertex as i64)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![None; 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            blossombestedges: vec![None; 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            dualvar,
            allowedge: vec![false; nedge],
            queue: Vec::new(),
        }
    }

    /// Slack of edge `k` (non-negative for tight constraints).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// All vertices contained (recursively) in blossom `b`.
    fn blossom_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.nvertex {
            out.push(b);
        } else {
            let childs = self.blossomchilds[b]
                .as_ref()
                .expect("blossom has children")
                .clone();
            for t in childs {
                self.blossom_leaves(t, out);
            }
        }
    }

    fn leaves(&self, b: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.blossom_leaves(b, &mut out);
        out
    }

    /// Assigns label `t` to the top-level blossom containing vertex `w`.
    fn assign_label(&mut self, w: usize, t: u8, p: i64) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            // b became an S-blossom; add its vertices to the queue.
            let mut lv = self.leaves(b);
            self.queue.append(&mut lv);
        } else if t == 2 {
            // b became a T-blossom; label its mate's blossom S.
            let base = self.blossombase[b] as usize;
            debug_assert!(self.mate[base] >= 0);
            let mate_ep = self.mate[base] as usize;
            self.assign_label(self.endpoint[mate_ep], 1, (mate_ep ^ 1) as i64);
        }
    }

    /// Traces back from vertices `v` and `w` to discover either a common
    /// ancestor (new blossom base) or an augmenting path (returns -1).
    fn scan_blossom(&mut self, v: usize, w: usize) -> i64 {
        let mut path: Vec<usize> = Vec::new();
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
                    let t = self.endpoint[self.labelend[b] as usize];
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    // bt is a T-blossom; trace one more step back.
                    debug_assert!(self.labelend[bt] >= 0);
                    v = self.endpoint[self.labelend[bt] as usize] as i64;
                }
            }
            // Swap v and w so that we alternate between both paths.
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        // Remove breadcrumbs.
        for b in path {
            self.label[b] = 1;
        }
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
        self.blossombase[b] = base as i64;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as i64;
        // Make list of sub-blossoms and their interconnecting edge endpoints.
        let mut path: Vec<usize> = Vec::new();
        let mut endps: Vec<usize> = Vec::new();
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
            v = self.endpoint[self.labelend[bv] as usize];
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
            w = self.endpoint[self.labelend[bw] as usize];
            bw = self.inblossom[w];
        }
        self.blossomchilds[b] = Some(path.clone());
        self.blossomendps[b] = Some(endps);
        // Set label to S.
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        // Set dual variable to zero.
        self.dualvar[b] = 0;
        // Relabel vertices.
        for lv in self.leaves(b) {
            if self.label[self.inblossom[lv]] == 2 {
                // This T-vertex now turns into an S-vertex because it
                // becomes part of an S-blossom; add it to the queue.
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }
        // Compute blossombestedges[b].
        let mut bestedgeto: Vec<i64> = vec![NONE; 2 * self.nvertex];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = match self.blossombestedges[bv].take() {
                Some(list) => vec![list],
                None => self
                    .leaves(bv)
                    .into_iter()
                    .map(|lv| self.neighbend[lv].iter().map(|&p| p / 2).collect())
                    .collect(),
            };
            for nblist in nblists {
                for k2 in nblist {
                    let (mut i, mut j, _) = self.edges[k2];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE
                            || self.slack(k2) < self.slack(bestedgeto[bj] as usize))
                    {
                        bestedgeto[bj] = k2 as i64;
                    }
                }
            }
            // Forget about least-slack edges of the subblossom.
            self.blossombestedges[bv] = None;
            self.bestedge[bv] = NONE;
        }
        let best: Vec<usize> = bestedgeto
            .into_iter()
            .filter(|&k2| k2 != NONE)
            .map(|k2| k2 as usize)
            .collect();
        // Select bestedge[b].
        self.bestedge[b] = NONE;
        for &k2 in &best {
            if self.bestedge[b] == NONE || self.slack(k2) < self.slack(self.bestedge[b] as usize) {
                self.bestedge[b] = k2 as i64;
            }
        }
        self.blossombestedges[b] = Some(best);
    }

    /// Expands the given top-level blossom.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = self.blossomchilds[b].clone().expect("expanding a leaf");
        // Convert sub-blossoms into top-level blossoms.
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                // Recursively expand this sub-blossom.
                self.expand_blossom(s, endstage);
            } else {
                for lv in self.leaves(s) {
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
            let entrychild = self.inblossom[self.endpoint[(self.labelend[b] as usize) ^ 1]];
            let len = childs.len() as i64;
            let at = |j: i64| -> usize { childs[(((j % len) + len) % len) as usize] };
            let endps = self.blossomendps[b].clone().expect("endps");
            let endp_at = |j: i64| -> usize { endps[(((j % len) + len) % len) as usize] };
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
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = endp_at(j - endptrick) ^ (endptrick as usize) ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p as i64);
                // Step to the next S-sub-blossom and note its forward
                // endpoint.
                self.allowedge[endp_at(j - endptrick) / 2] = true;
                j += jstep;
                p = endp_at(j - endptrick) ^ (endptrick as usize);
                // Step to the next T-sub-blossom.
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom WITHOUT stepping through to its
            // mate (so don't call assign_label).
            let bv = at(j);
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p as i64;
            self.labelend[bv] = p as i64;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while at(j) != entrychild {
                // Examine the vertices of the sub-blossom to see whether it
                // is reachable from a neighbouring S-vertex outside the
                // expanding blossom.
                let bv = at(j);
                if self.label[bv] == 1 {
                    // This sub-blossom just got label S through one of its
                    // neighbours; leave it.
                    j += jstep;
                    continue;
                }
                let lvs = self.leaves(bv);
                let v = lvs
                    .iter()
                    .copied()
                    .find(|&lv| self.label[lv] != 0)
                    .unwrap_or(*lvs.last().expect("non-empty blossom"));
                // If the sub-blossom contains a reachable vertex, assign
                // label T to the sub-blossom.
                if self.label[v] != 0 {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    self.label[self.endpoint[self.mate[self.blossombase[bv] as usize] as usize]] =
                        0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom number.
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomchilds[b] = None;
        self.blossomendps[b] = None;
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = None;
        self.bestedge[b] = NONE;
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
        let childs = self.blossomchilds[b].clone().expect("childs");
        let endps = self.blossomendps[b].clone().expect("endps");
        let len = childs.len() as i64;
        let at = |j: i64| -> usize { childs[(((j % len) + len) % len) as usize] };
        let endp_at = |j: i64| -> usize { endps[(((j % len) + len) % len) as usize] };
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
            let t1 = at(j);
            let p = endp_at(j - endptrick) ^ (endptrick as usize);
            if t1 >= self.nvertex {
                self.augment_blossom(t1, self.endpoint[p]);
            }
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t2 = at(j);
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint[p ^ 1]);
            }
            // Match the edge connecting those sub-blossoms.
            self.mate[self.endpoint[p]] = (p ^ 1) as i64;
            self.mate[self.endpoint[p ^ 1]] = p as i64;
        }
        // Rotate the list of sub-blossoms to put the new base at the front.
        let rot = i as usize;
        let mut new_childs = childs.clone();
        new_childs.rotate_left(rot);
        let mut new_endps = endps.clone();
        new_endps.rotate_left(rot);
        self.blossombase[b] = self.blossombase[new_childs[0]];
        self.blossomchilds[b] = Some(new_childs);
        self.blossomendps[b] = Some(new_endps);
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
                let t = self.endpoint[self.labelend[bs] as usize];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint[self.labelend[bt] as usize];
                let j = self.endpoint[(self.labelend[bt] as usize) ^ 1];
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

    fn run(&mut self) {
        // Main loop: continue until no further improvement is possible.
        for _ in 0..self.nvertex {
            // Each iteration of this loop is a "stage".
            self.label.iter_mut().for_each(|l| *l = 0);
            self.bestedge.iter_mut().for_each(|e| *e = NONE);
            for i in self.nvertex..2 * self.nvertex {
                self.blossombestedges[i] = None;
            }
            self.allowedge.iter_mut().for_each(|a| *a = false);
            self.queue.clear();
            // Label single blossoms/vertices with S and put them in the
            // queue.
            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            // Loop until we succeed in augmenting the matching.
            let mut augmented = false;
            loop {
                // Continue labeling until all vertices reachable through an
                // alternating path have got a label.
                while let Some(v) = self.queue.pop() {
                    if augmented {
                        break;
                    }
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    // Scan its neighbours.
                    for pi in 0..self.neighbend[v].len() {
                        let p = self.neighbend[v][pi];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            // This edge is internal to a blossom; ignore it.
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                // Edge k has zero slack: it is allowable.
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                // (C1) w is a free vertex; label w with T
                                // and label its mate with S.
                                self.assign_label(w, 2, (p ^ 1) as i64);
                            } else if self.label[self.inblossom[w]] == 1 {
                                // (C2) w is an S-vertex; follow back-links
                                // to discover either an augmenting path or
                                // a new blossom.
                                let base = self.scan_blossom(v, w);
                                if base >= 0 {
                                    // Found a new blossom.
                                    self.add_blossom(base as usize, k);
                                } else {
                                    // Found an augmenting path.
                                    self.augment_matching(k);
                                    augmented = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                // w is inside a T-blossom, but w itself has
                                // not yet been reached from outside the
                                // blossom; mark it as reached (needed for
                                // relabeling during T-blossom expansion).
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as i64;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            // Track the least-slack non-allowable edge to a
                            // different S-blossom.
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as i64;
                            }
                        } else if self.label[w] == 0 {
                            // w is a free vertex (or unreached inside a
                            // T-blossom); track the least-slack edge that
                            // reaches it.
                            if self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize)
                            {
                                self.bestedge[w] = k as i64;
                            }
                        }
                    }
                    if augmented {
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
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                // delta1: minimum vertex dual.
                if !self.max_cardinality {
                    deltatype = 1;
                    delta = *self.dualvar[..self.nvertex].iter().min().expect("vertices");
                }
                // delta2: minimum slack on an edge between an S-vertex and a
                // free vertex.
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v] as usize);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                // delta3: half the minimum slack between a pair of
                // S-blossoms.
                for b in 0..2 * self.nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.slack(self.bestedge[b] as usize);
                        debug_assert_eq!(kslack % 2, 0, "integer duals stay even");
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                // delta4: minimum z of a top-level T-blossom.
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0
                        && self.blossomparent[b] == NONE
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
                // Update dual variables.
                for v in 0..self.nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                // Take action at the point where the minimum delta occurred.
                match deltatype {
                    1 => break, // Optimum reached.
                    2 => {
                        // Use the least-slack edge to continue the search.
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
                        let (mut i, j, _) = self.edges[k];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
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
            // End of a stage; expand all S-blossoms with zero dual.
            for b in self.nvertex..2 * self.nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

mod tests {
    use super::*;
    use crate::blossom::BlossomMatcher;
    use crate::{Match, MwpmDecoder, PerfectMatcher};
    use proptest::prelude::*;
    use qecool_surface_code::{CodePatch, NoiseSpec, SyndromeHistory};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A random simple graph on `n` vertices.
    fn random_graph(rng: &mut ChaCha8Rng, n: usize, density: f64, wmax: i64) -> Vec<WeightedEdge> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_bool(density) {
                    let (a, b) = if rng.gen_bool(0.5) { (i, j) } else { (j, i) };
                    edges.push((a, b, rng.gen_range(-wmax..=wmax)));
                }
            }
        }
        edges
    }

    /// A d-round phenomenological history closed by a perfect round.
    fn sampled_history(lattice: &Lattice, p: f64, seed: u64) -> SyndromeHistory {
        let noise = NoiseSpec::Phenomenological { p };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        for _ in 0..lattice.distance() {
            history.push(patch.noisy_round(&noise, &mut rng));
        }
        history.push(patch.perfect_round());
        history
    }

    /// Asserts that the decoder builds the reference's edge list, that a
    /// reused matcher finds the reference's `mate` on it, and that the
    /// decode selects the matches that `mate` implies.
    fn assert_decoder_matches(
        decoder: &mut MwpmDecoder,
        matcher: &mut PerfectMatcher,
        history: &SyndromeHistory,
    ) {
        let lattice = decoder.lattice().clone();
        let events = history.events();
        let expected = doubled_graph(&lattice, &events, decoder.neighbor_cap());
        assert_eq!(
            decoder.matching_graph(&events),
            expected,
            "edge lists differ"
        );
        let n = events.len();
        let mate = min_weight_perfect_mate(2 * n, &expected);
        let got = matcher.solve(2 * n, &expected).expect("perfect");
        assert!(
            got.iter().map(|&m| Some(m)).eq(mate.iter().copied()),
            "mate vectors differ"
        );

        let outcome = decoder.decode(history).expect("perfect");
        let implied: Vec<Match> = (0..n)
            .filter_map(|i| match mate[i].expect("perfect") {
                m if m == n + i => Some(Match::ToBoundary(
                    events[i],
                    lattice.nearest_boundary(events[i].ancilla).0,
                )),
                m if m < n && i < m => Some(Match::Pair(events[i], events[m])),
                _ => None,
            })
            .collect();
        assert_eq!(outcome.matches, implied);
        assert_eq!(outcome.graph_vertices, 2 * n);
        assert_eq!(outcome.graph_edges, expected.len());
        assert_eq!(outcome.stages > 0, n > 0);
    }

    /// Sampled histories at d = 3..=`dmax`, both caps, one decoder reused
    /// across every decode.
    fn check_sampled(dmax: usize, ps: &[f64], seed: u64) {
        for d in (3..=dmax).step_by(2) {
            let lattice = Lattice::new(d).unwrap();
            for cap in [Some(16), None] {
                let mut decoder = MwpmDecoder::new(lattice.clone()).with_neighbor_cap(cap);
                let mut matcher = PerfectMatcher::new();
                for (k, &p) in ps.iter().enumerate() {
                    let history = sampled_history(&lattice, p, seed ^ (k as u64) << 32);
                    assert_decoder_matches(&mut decoder, &mut matcher, &history);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One reused matcher equals the original on random graphs, with
        /// and without the cardinality constraint.
        #[test]
        fn blossom_matches_the_reference_on_random_graphs(
            seed in any::<u64>(),
            max_n in 1usize..40,
            max_cardinality in any::<bool>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut matcher = BlossomMatcher::new();
            for _ in 0..4 {
                let n = rng.gen_range(0..=max_n);
                let density = rng.gen_range(0.05..1.0);
                let wmax = if rng.gen_bool(0.5) { 4 } else { 100 };
                let edges = random_graph(&mut rng, n, density, wmax);
                let expected = max_weight_matching(n, &edges, max_cardinality);
                matcher.max_weight_matching(n, max_cardinality, |out| out.extend_from_slice(&edges));
                let got: Vec<Option<usize>> = (0..n).map(|v| matcher.mate(v)).collect();
                prop_assert_eq!(got, expected);
            }
        }

        /// Sampled d = 3..7 histories: equal edge lists and `mate` vectors.
        #[test]
        fn decoder_matches_the_reference_on_small_histories(seed in any::<u64>()) {
            check_sampled(7, &[0.005, 0.01, 0.03], seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The full sweep of the sameness proof: d = 3..13 at p = 0.5 %,
        /// 1 % and 3 %, cap 16 and the complete graph. Too slow
        /// unoptimised, it runs under `cargo test --workspace --release`.
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release-only; run with --release")]
        fn decoder_matches_the_reference_on_sampled_histories(seed in any::<u64>()) {
            check_sampled(13, &[0.005, 0.01, 0.03], seed);
        }
    }

    #[test]
    fn capped_graph_keeps_the_first_listing_of_each_pair() {
        // Events on one row: 0 and 2 list each other, so the pair is
        // emitted once, at row 0, as (0, 2).
        let lattice = Lattice::new(7).unwrap();
        let ev = |col: usize, round: usize| {
            DetectionEvent::new(qecool_surface_code::Ancilla::new(3, col), round)
        };
        let events = [ev(0, 0), ev(5, 0), ev(1, 0), ev(5, 3)];
        for cap in [0, 1, 2, 3, 16] {
            let mut decoder = MwpmDecoder::new(lattice.clone()).with_neighbor_cap(Some(cap));
            assert_eq!(
                decoder.matching_graph(&events),
                doubled_graph(&lattice, &events, Some(cap)),
                "cap {cap}"
            );
        }
    }

    /// `rounds` noisy rounds and no closing perfect round: the window a
    /// streaming MWPM decoder matches mid-stream.
    fn window_history(lattice: &Lattice, rounds: usize, p: f64, seed: u64) -> SyndromeHistory {
        let noise = NoiseSpec::Phenomenological { p };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        for _ in 0..rounds {
            history.push(patch.noisy_round(&noise, &mut rng));
        }
        history
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Graphs of up to 160 vertices whose weights lie in 1..=3, so
        /// that slacks tie everywhere and every strict tie-break and kept
        /// best-edge slack is exercised, through one reused matcher fed
        /// growing and then shrinking graphs. Release-only: the reference
        /// is slow unoptimised.
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release-only; run with --release")]
        fn blossom_matches_the_reference_on_large_tied_graphs(
            seed in any::<u64>(),
            max_cardinality in any::<bool>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut matcher = BlossomMatcher::new();
            for n in [20, 60, 110, 160, 130, 80, 30, 5] {
                let n = rng.gen_range(n / 2..=n);
                let density = rng.gen_range(0.02..0.5);
                let edges: Vec<WeightedEdge> = random_graph(&mut rng, n, density, 3)
                    .into_iter()
                    .map(|(i, j, w)| (i, j, w.abs().max(1)))
                    .collect();
                let expected = max_weight_matching(n, &edges, max_cardinality);
                matcher.max_weight_matching(n, max_cardinality, |out| out.extend_from_slice(&edges));
                let got: Vec<Option<usize>> = (0..n).map(|v| matcher.mate(v)).collect();
                prop_assert_eq!(got, expected, "n = {}", n);
            }
        }

        /// The graphs of 3d-round windows without a closing perfect round
        /// (the sliding-window shape) at d = 9 and 13: equal edge lists
        /// and `mate` vectors through one reused decoder and matcher.
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release-only; run with --release")]
        fn decoder_matches_the_reference_on_open_windows(seed in any::<u64>()) {
            for d in [9, 13] {
                let lattice = Lattice::new(d).unwrap();
                let mut decoder = MwpmDecoder::new(lattice.clone());
                let mut matcher = PerfectMatcher::new();
                for (k, p) in [0.005, 0.01].into_iter().enumerate() {
                    let history = window_history(&lattice, 3 * d, p, seed ^ (k as u64) << 32);
                    assert_decoder_matches(&mut decoder, &mut matcher, &history);
                }
            }
        }
    }

    #[test]
    fn capped_graph_lists_ties_in_event_order() {
        // Events 1..=8 all lie at distance 2 from event 0, so a cap below
        // 8 cuts inside the tie and keeps the lowest event indices; the
        // far events (spread over more rounds than the builder's bucket
        // range) share its last bucket. Caps reaching n - 1 list every
        // other event.
        let lattice = Lattice::new(9).unwrap();
        let ev = |row: usize, col: usize, round: usize| {
            DetectionEvent::new(qecool_surface_code::Ancilla::new(row, col), round)
        };
        let events = [
            ev(4, 4, 1),
            ev(4, 2, 1),
            ev(2, 4, 1),
            ev(4, 6, 1),
            ev(6, 4, 1),
            ev(4, 4, 3),
            ev(4, 3, 0),
            ev(3, 4, 2),
            ev(5, 5, 1),
            ev(0, 0, 900),
            ev(8, 7, 400),
            ev(1, 1, 600),
            ev(4, 4, 300),
        ];
        let n = events.len();
        for cap in (0..=n + 1).chain([16]) {
            let mut decoder = MwpmDecoder::new(lattice.clone()).with_neighbor_cap(Some(cap));
            assert_eq!(
                decoder.matching_graph(&events),
                doubled_graph(&lattice, &events, Some(cap)),
                "cap {cap}"
            );
            // Every prefix, down to one event, as the same decoder's next
            // graphs.
            for len in (1..n).rev() {
                assert_eq!(
                    decoder.matching_graph(&events[..len]),
                    doubled_graph(&lattice, &events[..len], Some(cap)),
                    "cap {cap}, {len} events"
                );
            }
        }
    }
}
