//! Disjoint-set union with the cluster metadata the union-find decoder
//! tracks: defect parity, boundary contact, and each cluster's members.

/// End-of-list marker for the intrusive member lists.
const NONE: u32 = u32::MAX;

/// Union-find over `n` elements with union-by-size and path compression,
/// carrying per-cluster defect parity, a touches-boundary flag, and an
/// intrusive singly linked list of the cluster's members (headed by the
/// root, spliced in O(1) on union) so growth can walk exactly the
/// members of the clusters it grows.
#[derive(Debug, Clone)]
pub struct ClusterSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Defect parity of the cluster rooted here (valid at roots).
    odd: Vec<bool>,
    /// Whether the cluster contains a boundary node (valid at roots).
    boundary: Vec<bool>,
    /// Next member of the same cluster, or [`NONE`].
    next: Vec<u32>,
    /// Last member of the cluster rooted here (valid at roots).
    tail: Vec<u32>,
}

impl ClusterSets {
    /// Creates `n` singleton clusters. Mark defects and boundary nodes
    /// with [`Self::set_defect`] / [`Self::set_boundary`] before growing.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            odd: vec![false; n],
            boundary: vec![false; n],
            next: vec![NONE; n],
            tail: (0..n as u32).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Marks element `x` as a defect (flips its singleton parity).
    ///
    /// # Panics
    ///
    /// Panics if called after unions began and `x` is no longer a root.
    pub fn set_defect(&mut self, x: usize) {
        assert_eq!(self.parent[x] as usize, x, "set_defect after unions");
        self.odd[x] = !self.odd[x];
    }

    /// Marks element `x` as a boundary node.
    ///
    /// # Panics
    ///
    /// Panics if called after unions began and `x` is no longer a root.
    pub fn set_boundary(&mut self, x: usize) {
        assert_eq!(self.parent[x] as usize, x, "set_boundary after unions");
        self.boundary[x] = true;
    }

    /// Root of `x`'s cluster (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the clusters of `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        let parity = self.odd[big] ^ self.odd[small];
        self.odd[big] = parity;
        self.boundary[big] |= self.boundary[small];
        let big_tail = self.tail[big] as usize;
        self.next[big_tail] = small as u32;
        self.tail[big] = self.tail[small];
        big
    }

    /// The members of the cluster rooted at `root`, starting with the
    /// root itself.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a cluster root.
    pub fn members(&self, root: usize) -> impl Iterator<Item = usize> + '_ {
        assert_eq!(self.parent[root] as usize, root, "members of a non-root");
        std::iter::successors(Some(root), |&x| {
            let next = self.next[x];
            (next != NONE).then_some(next as usize)
        })
    }

    /// Whether `x`'s cluster still needs to grow: odd defect parity and no
    /// boundary contact.
    pub fn is_active(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.odd[r] && !self.boundary[r]
    }

    /// Defect parity of `x`'s cluster.
    pub fn parity(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.odd[r]
    }

    /// Boundary contact of `x`'s cluster.
    pub fn touches_boundary(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.boundary[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_inactive() {
        let mut s = ClusterSets::new(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        for i in 0..4 {
            assert!(!s.is_active(i));
        }
    }

    #[test]
    fn defect_makes_cluster_active() {
        let mut s = ClusterSets::new(4);
        s.set_defect(2);
        assert!(s.is_active(2));
        assert!(!s.is_active(1));
    }

    #[test]
    fn pairing_two_defects_neutralizes() {
        let mut s = ClusterSets::new(4);
        s.set_defect(0);
        s.set_defect(1);
        s.union(0, 1);
        assert!(!s.is_active(0));
        assert!(!s.parity(1));
    }

    #[test]
    fn boundary_contact_deactivates() {
        let mut s = ClusterSets::new(4);
        s.set_defect(0);
        s.set_boundary(3);
        s.union(0, 3);
        assert!(s.parity(0), "parity stays odd");
        assert!(s.touches_boundary(0));
        assert!(!s.is_active(0), "boundary clusters stop growing");
    }

    #[test]
    fn union_find_invariants() {
        let mut s = ClusterSets::new(10);
        for i in 0..9 {
            s.union(i, i + 1);
        }
        let root = s.find(0);
        for i in 1..10 {
            assert_eq!(s.find(i), root);
        }
    }

    #[test]
    fn member_lists_follow_unions() {
        let mut s = ClusterSets::new(6);
        assert_eq!(s.members(4).collect::<Vec<_>>(), vec![4]);
        s.union(0, 1);
        s.union(2, 3);
        s.union(3, 5);
        let root = s.union(1, 5);
        let mut members: Vec<usize> = s.members(root).collect();
        assert_eq!(members[0], root, "the root heads its list");
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 5]);
        assert_eq!(s.members(4).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn triple_defect_cluster_stays_odd() {
        let mut s = ClusterSets::new(5);
        for i in 0..3 {
            s.set_defect(i);
        }
        s.union(0, 1);
        s.union(1, 2);
        assert!(s.parity(0));
        assert!(s.is_active(2));
    }
}
