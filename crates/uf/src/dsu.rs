//! Disjoint-set union with the cluster metadata the union-find decoder
//! tracks: defect parity, boundary contact, and each cluster's members.

/// End-of-list marker for the intrusive member lists.
const NONE: u32 = u32::MAX;

/// One element's entry; the cluster fields are valid at roots.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// The [`ClusterSets::epoch`] this entry was last initialised in.
    epoch: u32,
    parent: u32,
    size: u32,
    /// Next member of the same cluster, or [`NONE`].
    next: u32,
    /// Last member of the cluster rooted here.
    tail: u32,
    /// Defect parity of the cluster rooted here.
    odd: bool,
    /// Whether the cluster rooted here contains a boundary node.
    boundary: bool,
}

/// Union-find over `n` elements with union-by-size and path compression,
/// carrying per-cluster defect parity, a touches-boundary flag, and an
/// intrusive singly linked list of the cluster's members (headed by the
/// root, spliced in O(1) on union) so growth can walk exactly the
/// members of the clusters it grows.
///
/// One structure serves decode after decode: [`Self::reset`] starts a
/// new epoch in O(1), and an element is initialised the first time the
/// epoch reaches it, so a decode pays only for the elements it touches.
#[derive(Debug, Clone, Default)]
pub struct ClusterSets {
    nodes: Vec<Node>,
    len: usize,
    first_boundary: usize,
    /// Entries from an earlier epoch are untouched singletons.
    epoch: u32,
}

impl ClusterSets {
    /// `n` singleton clusters, elements `first_boundary..n` on the
    /// boundary. Mark defects with [`Self::set_defect`] before growing.
    pub fn new(n: usize, first_boundary: usize) -> Self {
        let mut sets = Self::default();
        sets.reset(n, first_boundary);
        sets
    }

    /// Starts over with `n` singleton clusters, elements
    /// `first_boundary..n` on the boundary and no defects, keeping the
    /// allocation. Costs nothing per element beyond growing to a new
    /// largest `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in `u32`.
    pub fn reset(&mut self, n: usize, first_boundary: usize) {
        assert!(u32::try_from(n).is_ok(), "{n} elements overflow u32");
        if self.epoch == u32::MAX {
            // Once in 2³² resets: age every entry out by hand.
            self.nodes.fill(Node::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.nodes.len() < n {
            self.nodes.resize(n, Node::default());
        }
        self.len = n;
        self.first_boundary = first_boundary;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `x`'s entry, initialised as a singleton if this epoch has
    /// not reached it yet.
    #[inline]
    fn touch(&mut self, x: usize) -> &mut Node {
        assert!(x < self.len, "element {x} out of range");
        let boundary = x >= self.first_boundary;
        let epoch = self.epoch;
        let node = &mut self.nodes[x];
        if node.epoch != epoch {
            *node = Node {
                epoch,
                parent: x as u32,
                size: 1,
                next: NONE,
                tail: x as u32,
                odd: false,
                boundary,
            };
        }
        node
    }

    /// Marks element `x` as a defect (flips its singleton parity).
    ///
    /// # Panics
    ///
    /// Panics if called after unions began and `x` is no longer a root.
    pub fn set_defect(&mut self, x: usize) {
        let node = self.touch(x);
        assert_eq!(node.parent as usize, x, "set_defect after unions");
        node.odd = !node.odd;
    }

    /// Root of `x`'s cluster (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        // Every parent link of a touched element was set this epoch, so
        // the whole path is touched.
        let mut root = self.touch(x).parent as usize;
        while self.nodes[root].parent as usize != root {
            root = self.nodes[root].parent as usize;
        }
        let mut cur = x;
        while cur != root {
            let next = self.nodes[cur].parent as usize;
            self.nodes[cur].parent = root as u32;
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
        let (big, small) = if self.nodes[ra].size >= self.nodes[rb].size {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let s = self.nodes[small];
        self.nodes[small].parent = big as u32;
        let b = &mut self.nodes[big];
        b.size += s.size;
        b.odd ^= s.odd;
        b.boundary |= s.boundary;
        let big_tail = b.tail as usize;
        b.tail = s.tail;
        self.nodes[big_tail].next = small as u32;
        big
    }

    /// The members of the cluster rooted at `root`, starting with the
    /// root itself.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a cluster root.
    pub fn members(&mut self, root: usize) -> impl Iterator<Item = usize> + '_ {
        assert_eq!(
            self.touch(root).parent as usize,
            root,
            "members of a non-root"
        );
        let nodes = &self.nodes;
        std::iter::successors(Some(root), |&x| {
            let next = nodes[x].next;
            (next != NONE).then_some(next as usize)
        })
    }

    /// Whether `x`'s cluster still needs to grow: odd defect parity and no
    /// boundary contact.
    pub fn is_active(&mut self, x: usize) -> bool {
        debug_assert!(x < self.len, "element {x} out of range");
        if self.nodes[x].epoch != self.epoch {
            return false; // an untouched singleton holds no defect
        }
        let r = self.find(x);
        self.nodes[r].odd && !self.nodes[r].boundary
    }

    /// Defect parity of `x`'s cluster.
    pub fn parity(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.nodes[r].odd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_inactive() {
        let mut s = ClusterSets::new(4, 4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        for i in 0..4 {
            assert!(!s.is_active(i));
        }
    }

    #[test]
    fn defect_makes_cluster_active() {
        let mut s = ClusterSets::new(4, 4);
        s.set_defect(2);
        assert!(s.is_active(2));
        assert!(!s.is_active(1));
    }

    #[test]
    fn pairing_two_defects_neutralizes() {
        let mut s = ClusterSets::new(4, 4);
        s.set_defect(0);
        s.set_defect(1);
        s.union(0, 1);
        assert!(!s.is_active(0));
        assert!(!s.parity(1));
    }

    #[test]
    fn boundary_contact_deactivates() {
        let mut s = ClusterSets::new(4, 3);
        s.set_defect(0);
        s.union(0, 3);
        assert!(s.parity(0), "parity stays odd");
        assert!(!s.is_active(0), "boundary clusters stop growing");
    }

    #[test]
    fn union_find_invariants() {
        let mut s = ClusterSets::new(10, 10);
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
        let mut s = ClusterSets::new(6, 6);
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
    fn reset_forgets_every_union_and_defect() {
        let mut s = ClusterSets::new(6, 6);
        s.set_defect(0);
        s.set_defect(4);
        s.union(0, 1);
        s.union(4, 5);
        s.reset(8, 5);
        assert_eq!(s.len(), 8);
        for i in 0..8 {
            assert_eq!(s.find(i), i, "element {i} is a singleton again");
            assert!(!s.parity(i));
            assert_eq!(s.members(i).collect::<Vec<_>>(), vec![i]);
            // A lone defect grows unless it sits on the boundary.
            s.set_defect(i);
            assert_eq!(s.is_active(i), i < 5);
        }
        s.reset(3, 3);
        s.set_defect(2);
        assert!(s.is_active(2), "a defect set after the reset counts");
    }

    #[test]
    fn triple_defect_cluster_stays_odd() {
        let mut s = ClusterSets::new(5, 5);
        for i in 0..3 {
            s.set_defect(i);
        }
        s.union(0, 1);
        s.union(1, 2);
        assert!(s.parity(0));
        assert!(s.is_active(2));
    }
}
