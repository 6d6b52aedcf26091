use std::fmt;

/// How [`UnionFind::union`] links two roots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum UnionPolicy {
    /// Link the lower-rank root under the higher-rank root (Tarjan's union
    /// by rank). Required for the `O(α)` bound.
    #[default]
    ByRank,
    /// Link the smaller set under the larger (union by size) — the other
    /// classic balanced policy, also `O(α)` with compression.
    BySize,
    /// Always link the first argument's root under the second's. Worst-case
    /// linear trees; used by the reproduction's ablations.
    Naive,
}

/// How [`UnionFind::find`] restructures the path it traverses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Compression {
    /// Full path compression: every traversed node is re-pointed at the
    /// root. Required for the `O(α)` bound.
    #[default]
    Full,
    /// Path halving: every traversed node is re-pointed at its grandparent.
    /// Also achieves `O(α)`, with cheaper constant factors.
    Halving,
    /// No restructuring. Used by the reproduction's ablations.
    Off,
}

/// Tarjan's disjoint-set forest.
///
/// With the default policies (union by rank + full path compression) a
/// sequence of `m` operations on `n` elements costs `O(m·α(m, n))` pointer
/// traversals — the bound the paper's Ad-hoc algorithm inherits. The
/// [`traversals`](UnionFind::traversals) counter exposes the actual pointer
/// work so the reproduction can compare data-structure cost curves against
/// the distributed algorithm's message curves.
///
/// # Example
///
/// ```
/// use ard_union_find::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(3, 4));
/// assert!(!uf.union(1, 0)); // already joined
/// assert_eq!(uf.set_count(), 3);
/// assert_eq!(uf.find(1), uf.find(0));
/// ```
#[derive(Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
    union_policy: UnionPolicy,
    compression: Compression,
    traversals: u64,
}

impl UnionFind {
    /// Creates `n` singleton sets with the default (optimal) policies.
    pub fn new(n: usize) -> Self {
        Self::with_policies(n, UnionPolicy::ByRank, Compression::Full)
    }

    /// Creates `n` singleton sets with explicit policies (for ablations).
    pub fn with_policies(n: usize, union_policy: UnionPolicy, compression: Compression) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            size: vec![1; n],
            sets: n,
            union_policy,
            compression,
            traversals: 0,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Total parent-pointer traversals performed by all operations so far —
    /// the data structure's analogue of the distributed algorithm's
    /// `search`/`release` message count.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Returns the representative of `x`'s set, applying the configured
    /// compression policy.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        match self.compression {
            Compression::Full => {
                // First pass: find the root.
                let mut root = x;
                while self.parent[root] != root {
                    self.traversals += 1;
                    root = self.parent[root];
                }
                // Second pass: point everything at it.
                let mut cur = x;
                while self.parent[cur] != root {
                    let next = self.parent[cur];
                    self.parent[cur] = root;
                    cur = next;
                }
                root
            }
            Compression::Halving => {
                let mut cur = x;
                while self.parent[cur] != cur {
                    self.traversals += 1;
                    self.parent[cur] = self.parent[self.parent[cur]];
                    cur = self.parent[cur];
                }
                cur
            }
            Compression::Off => {
                let mut cur = x;
                while self.parent[cur] != cur {
                    self.traversals += 1;
                    cur = self.parent[cur];
                }
                cur
            }
        }
    }

    /// The representative of `x`'s set without restructuring or counting
    /// (for assertions and oracles).
    pub(crate) fn find_immutable(&self, x: usize) -> usize {
        let mut cur = x;
        while self.parent[cur] != cur {
            cur = self.parent[cur];
        }
        cur
    }

    /// Whether `x` and `y` are currently in the same set.
    pub fn same_set(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Merges the sets containing `x` and `y`. Returns `false` if they were
    /// already the same set.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        self.sets -= 1;
        let merged_size = self.size[rx] + self.size[ry];
        let new_root = match self.union_policy {
            UnionPolicy::ByRank => {
                if self.rank[rx] < self.rank[ry] {
                    self.parent[rx] = ry;
                    ry
                } else if self.rank[rx] > self.rank[ry] {
                    self.parent[ry] = rx;
                    rx
                } else {
                    self.parent[ry] = rx;
                    self.rank[rx] += 1;
                    rx
                }
            }
            UnionPolicy::BySize => {
                if self.size[rx] < self.size[ry] {
                    self.parent[rx] = ry;
                    ry
                } else {
                    self.parent[ry] = rx;
                    rx
                }
            }
            UnionPolicy::Naive => {
                self.parent[rx] = ry;
                ry
            }
        };
        self.size[new_root] = merged_size;
        true
    }
}

impl fmt::Debug for UnionFind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UnionFind(n={}, sets={}, policy={:?}/{:?})",
            self.len(),
            self.sets,
            self.union_policy,
            self.compression
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth of `x` in its tree (root has depth 0).
    fn depth(uf: &UnionFind, x: usize) -> usize {
        let mut cur = x;
        let mut d = 0;
        while uf.parent[cur] != cur {
            cur = uf.parent[cur];
            d += 1;
        }
        d
    }

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
        assert!(!uf.same_set(0, 3));
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.set_count(), 4);
        assert!(uf.same_set(0, 2));
        assert!(!uf.same_set(0, 3));
    }

    #[test]
    fn full_compression_flattens() {
        let mut uf = UnionFind::with_policies(8, UnionPolicy::Naive, Compression::Full);
        // Chain: 0 under 1 under 2 under ... (naive unions make a path)
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        assert!(depth(&uf, 0) > 1);
        uf.find(0);
        assert_eq!(depth(&uf, 0), 1);
    }

    #[test]
    fn naive_without_compression_builds_deep_trees() {
        let n = 64;
        let mut uf = UnionFind::with_policies(n, UnionPolicy::Naive, Compression::Off);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(depth(&uf, 0), n - 1);
    }

    #[test]
    fn by_rank_keeps_trees_shallow() {
        let n = 1024;
        let mut uf = UnionFind::with_policies(n, UnionPolicy::ByRank, Compression::Off);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        // Union by rank alone bounds depth by log₂ n.
        for i in 0..n {
            assert!(depth(&uf, i) <= 10, "depth({i}) = {}", depth(&uf, i));
        }
    }

    #[test]
    fn halving_shortens_paths() {
        let mut uf = UnionFind::with_policies(16, UnionPolicy::Naive, Compression::Halving);
        for i in 0..15 {
            uf.union(i, i + 1);
        }
        let before = depth(&uf, 0);
        uf.find(0);
        assert!(depth(&uf, 0) < before);
    }

    #[test]
    fn traversals_reflect_compression() {
        let build = |compression| {
            let n = 4096;
            let mut uf = UnionFind::with_policies(n, UnionPolicy::Naive, compression);
            for i in 0..n - 1 {
                uf.union(i, i + 1);
            }
            for _ in 0..4 {
                for i in 0..n {
                    uf.find(i);
                }
            }
            uf.traversals()
        };
        let with = build(Compression::Full);
        let without = build(Compression::Off);
        assert!(
            with * 4 < without,
            "compression should dramatically cut traversals: {with} vs {without}"
        );
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut uf = UnionFind::new(10);
        uf.union(1, 2);
        uf.union(2, 3);
        uf.union(7, 8);
        for i in 0..10 {
            assert_eq!(uf.find_immutable(i), uf.clone().find(i));
        }
    }

    #[test]
    fn by_size_keeps_trees_shallow() {
        let n = 1024;
        let mut uf = UnionFind::with_policies(n, UnionPolicy::BySize, Compression::Off);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        for i in 0..n {
            assert!(depth(&uf, i) <= 10, "depth({i}) = {}", depth(&uf, i));
        }
    }
}
