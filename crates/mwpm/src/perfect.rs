//! Minimum-weight perfect matching on top of the blossom kernel.

use crate::blossom::{BlossomMatcher, WeightedEdge};
use std::fmt;

/// Error returned when no perfect matching exists on the given graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectMatchingError {
    unmatched: Vec<usize>,
}

impl PerfectMatchingError {
    /// Vertices the maximum-cardinality matching left single.
    pub fn unmatched(&self) -> &[usize] {
        &self.unmatched
    }
}

impl fmt::Display for PerfectMatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph admits no perfect matching ({} vertices unmatched)",
            self.unmatched.len()
        )
    }
}

impl std::error::Error for PerfectMatchingError {}

/// A reusable minimum-weight perfect matcher.
///
/// Holds one blossom matcher and its result, so repeated solves
/// allocate nothing once the buffers have grown to the largest graph seen.
/// Each solve gives exactly the matching [`min_weight_perfect_matching`]
/// gives.
///
/// # Example
///
/// ```
/// use qecool_mwpm::perfect::PerfectMatcher;
///
/// # fn main() -> Result<(), qecool_mwpm::perfect::PerfectMatchingError> {
/// let mut matcher = PerfectMatcher::new();
/// let mate = matcher.solve(4, &[(0, 1, 1), (2, 3, 1), (0, 2, 10), (1, 3, 10)])?;
/// assert_eq!(mate, &[1, 0, 3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfectMatcher {
    blossom: BlossomMatcher,
    mate: Vec<usize>,
    stages: usize,
}

impl PerfectMatcher {
    /// An empty matcher; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a minimum-weight perfect matching and returns `mate`,
    /// with `mate[v]` = partner of `v`.
    ///
    /// Uses the classic reduction: the blossom kernel negates the weights
    /// and finds a maximum-weight matching among the
    /// maximum-cardinality matchings. When the graph admits a perfect
    /// matching, the result is the perfect matching of minimum total
    /// weight.
    ///
    /// # Errors
    ///
    /// Returns [`PerfectMatchingError`] when the graph has no perfect
    /// matching (for example, an odd number of vertices or a disconnected
    /// odd component).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices` or is a
    /// self-loop.
    pub fn solve(
        &mut self,
        num_vertices: usize,
        edges: &[WeightedEdge],
    ) -> Result<&[usize], PerfectMatchingError> {
        self.solve_with(num_vertices, |out| out.extend_from_slice(edges))
    }

    /// [`Self::solve`] for the edges `fill` writes into the blossom
    /// matcher's own edge list, which is then negated in place: a caller
    /// that builds its graph here never copies it.
    pub(crate) fn solve_with(
        &mut self,
        num_vertices: usize,
        fill: impl FnOnce(&mut Vec<WeightedEdge>),
    ) -> Result<&[usize], PerfectMatchingError> {
        self.mate.clear();
        self.stages = 0;
        if num_vertices == 0 {
            return Ok(&self.mate);
        }
        self.blossom
            .max_weight_matching(num_vertices, true, |edges| {
                fill(edges);
                edges.iter_mut().for_each(|e| e.2 = -e.2);
            });
        self.stages = self.blossom.stages();
        let blossom = &self.blossom;
        let unmatched: Vec<usize> = (0..num_vertices)
            .filter(|&v| blossom.mate(v).is_none())
            .collect();
        if !unmatched.is_empty() {
            return Err(PerfectMatchingError { unmatched });
        }
        self.mate
            .extend((0..num_vertices).map(|v| blossom.mate(v).expect("perfect")));
        Ok(&self.mate)
    }

    /// The `mate` of the last successful solve (empty after an error).
    pub(crate) fn mate(&self) -> &[usize] {
        &self.mate
    }

    /// Blossom stages the last solve ran; 0 for an empty graph.
    pub(crate) fn stages(&self) -> usize {
        self.stages
    }
}

/// Computes a minimum-weight perfect matching with a one-shot
/// [`PerfectMatcher`].
///
/// Returns `mate` with `mate[v]` = partner of `v`.
///
/// # Errors
///
/// Returns [`PerfectMatchingError`] when the graph has no perfect matching
/// (for example, an odd number of vertices or a disconnected odd component).
///
/// # Example
///
/// ```
/// use qecool_mwpm::perfect::min_weight_perfect_matching;
///
/// # fn main() -> Result<(), qecool_mwpm::perfect::PerfectMatchingError> {
/// // Square with one cheap diagonal pairing.
/// let edges = [(0, 1, 1), (2, 3, 1), (0, 2, 10), (1, 3, 10)];
/// let mate = min_weight_perfect_matching(4, &edges)?;
/// assert_eq!(mate[0], 1);
/// assert_eq!(mate[2], 3);
/// # Ok(())
/// # }
/// ```
pub fn min_weight_perfect_matching(
    num_vertices: usize,
    edges: &[WeightedEdge],
) -> Result<Vec<usize>, PerfectMatchingError> {
    PerfectMatcher::new()
        .solve(num_vertices, edges)
        .map(<[usize]>::to_vec)
}

/// Total weight of a mate vector over an edge list, counting each matched
/// pair once.
///
/// Useful for assertions and diagnostics; pairs not present in `edges`
/// contribute nothing.
pub fn matching_weight(edges: &[WeightedEdge], mate: &[usize]) -> i64 {
    edges
        .iter()
        .filter(|&&(i, j, _)| mate.get(i) == Some(&j))
        .map(|&(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Brute-force minimum perfect matching weight by recursion (n <= 10).
    fn brute_force_min(n: usize, edges: &[WeightedEdge]) -> Option<i64> {
        let mut adj = vec![vec![None; n]; n];
        for &(i, j, w) in edges {
            let best = adj[i][j].map_or(w, |x: i64| x.min(w));
            adj[i][j] = Some(best);
            adj[j][i] = Some(best);
        }
        fn rec(used: &mut [bool], adj: &[Vec<Option<i64>>]) -> Option<i64> {
            let first = match used.iter().position(|&u| !u) {
                None => return Some(0),
                Some(f) => f,
            };
            used[first] = true;
            let mut best: Option<i64> = None;
            for j in first + 1..used.len() {
                if !used[j] {
                    if let Some(w) = adj[first][j] {
                        used[j] = true;
                        if let Some(rest) = rec(used, adj) {
                            let total = w + rest;
                            best = Some(best.map_or(total, |b| b.min(total)));
                        }
                        used[j] = false;
                    }
                }
            }
            used[first] = false;
            best
        }
        rec(&mut vec![false; n], &adj)
    }

    #[test]
    fn empty_is_trivially_perfect() {
        assert_eq!(
            min_weight_perfect_matching(0, &[]).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn odd_vertex_count_fails() {
        let err = min_weight_perfect_matching(3, &[(0, 1, 1), (1, 2, 1)]).unwrap_err();
        assert!(!err.unmatched().is_empty());
        assert!(err.to_string().contains("no perfect matching"));
    }

    #[test]
    fn picks_cheap_pairing() {
        let edges = [
            (0, 1, 5),
            (2, 3, 5),
            (0, 2, 1),
            (1, 3, 1),
            (0, 3, 9),
            (1, 2, 9),
        ];
        let mate = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(mate[0], 2);
        assert_eq!(mate[1], 3);
        assert_eq!(matching_weight(&edges, &mate), 2);
    }

    #[test]
    fn forced_expensive_perfect_matching() {
        // Only one perfect matching exists; the algorithm must take it even
        // though a heavier-but-imperfect matching has lower weight.
        let edges = [(0, 1, 100), (2, 3, 100), (1, 2, 1)];
        let mate = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(mate[0], 1);
        assert_eq!(mate[2], 3);
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let edges = [(0, 1, 0), (2, 3, 0), (0, 2, 0)];
        let mate = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(mate[mate[0]], 0);
        assert_eq!(mate[mate[2]], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Blossom output equals brute force on random complete graphs.
        #[test]
        fn prop_matches_brute_force_complete(seed in any::<u64>(), half in 1usize..5) {
            let n = 2 * half;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    edges.push((i, j, rng.gen_range(0..100i64)));
                }
            }
            let mate = min_weight_perfect_matching(n, &edges).unwrap();
            // Perfect + symmetric.
            for v in 0..n {
                prop_assert_eq!(mate[mate[v]], v);
                prop_assert_ne!(mate[v], v);
            }
            let got = matching_weight(&edges, &mate);
            let best = brute_force_min(n, &edges).unwrap();
            prop_assert_eq!(got, best, "blossom {} vs brute {}", got, best);
        }

        /// On sparse random graphs, when brute force finds a perfect
        /// matching, blossom finds one of identical weight; when it does
        /// not, blossom errors.
        #[test]
        fn prop_matches_brute_force_sparse(seed in any::<u64>(), half in 1usize..5) {
            let n = 2 * half;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_bool(0.55) {
                        edges.push((i, j, rng.gen_range(0..50i64)));
                    }
                }
            }
            let brute = brute_force_min(n, &edges);
            match min_weight_perfect_matching(n, &edges) {
                Ok(mate) => {
                    let got = matching_weight(&edges, &mate);
                    prop_assert_eq!(Some(got), brute);
                }
                Err(_) => prop_assert!(brute.is_none(), "blossom missed a perfect matching"),
            }
        }
    }
}
