use std::fmt;

use ard_netsim::NodeId;

/// A directed *knowledge graph* `G = (V, E₀)`.
///
/// An edge `(u → v)` means `u` initially knows `id(v)` and may therefore
/// send `v` messages. Knowledge graphs are the paper's network model; they
/// are *not* assumed strongly connected — the interesting case for resource
/// discovery is weakly connected, non-sparse graphs.
///
/// Self-loops are meaningless (every node knows itself) and are rejected;
/// parallel edges are collapsed.
///
/// Stored flat: every node's out-edges, in insertion order, are one slice
/// of a single target array, delimited by `n + 1` offsets — 4 B per node
/// plus 4 B per edge, and no allocation per node. Bulk constructors
/// ([`from_edges`](KnowledgeGraph::from_edges), every generator) chain
/// each source's edges through one array, allocating nothing per node, and
/// flatten them once. A single
/// [`add_edge`](KnowledgeGraph::add_edge) out of the last node (the
/// newest one, after [`add_node`](KnowledgeGraph::add_node)) is an
/// append; out of any other node it moves the targets behind it, O(n + m).
///
/// # Example
///
/// ```
/// use ard_graph::KnowledgeGraph;
/// use ard_netsim::NodeId;
///
/// let mut g = KnowledgeGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(0), NodeId::new(2));
/// g.add_edge(NodeId::new(0), NodeId::new(1)); // duplicate, collapsed
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
/// assert_eq!(g.out_degree(NodeId::new(0)), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct KnowledgeGraph {
    /// `n + 1` entries: node `u`'s out-edges are
    /// `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

/// Checks an edge the way every constructor does.
fn check_edge(n: usize, u: NodeId, v: NodeId) {
    assert!(u.index() < n && v.index() < n, "edge endpoint out of range");
    assert_ne!(u, v, "self-loops are not meaningful in a knowledge graph");
}

/// An edge count as an offset.
fn offset(m: usize) -> u32 {
    u32::try_from(m).expect("knowledge graph exceeds u32::MAX edges")
}

/// The end of a chain in [`Builder`].
const NIL: u32 = u32::MAX;

/// One edge of a [`Builder`]: its target and the previous edge added out
/// of the same source.
struct Link {
    dst: NodeId,
    prev: u32,
}

/// Per-source out-lists while a graph is built in bulk, chained through
/// one edge array so that building allocates nothing per node; [`freeze`]
/// lays them out flat.
///
/// [`freeze`]: Builder::freeze
pub(crate) struct Builder {
    /// Per node, its newest edge (`NIL` when none) and its out-degree.
    ends: Vec<(u32, u32)>,
    /// Every distinct edge, in the order it was added.
    edges: Vec<Link>,
}

impl Builder {
    /// `n` nodes and no edges.
    pub(crate) fn new(n: usize) -> Self {
        Builder {
            ends: vec![(NIL, 0); n],
            edges: Vec::new(),
        }
    }

    /// Adds `u → v`, as [`KnowledgeGraph::add_edge`] does.
    pub(crate) fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        check_edge(self.ends.len(), u, v);
        let (last, degree) = &mut self.ends[u.index()];
        let mut e = *last;
        while e != NIL {
            let link = &self.edges[e as usize];
            if link.dst == v {
                return false;
            }
            e = link.prev;
        }
        let prev = std::mem::replace(last, offset(self.edges.len()));
        *degree += 1;
        self.edges.push(Link { dst: v, prev });
        true
    }

    /// Number of distinct edges added so far.
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The graph, each out-list in the order its edges were added: every
    /// chain is walked newest first into the back of its node's slice.
    pub(crate) fn freeze(self) -> KnowledgeGraph {
        let mut offsets = Vec::with_capacity(self.ends.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for &(_, degree) in &self.ends {
            end += degree;
            offsets.push(end);
        }
        let mut targets = vec![NodeId::new(0); self.edges.len()];
        for (&(mut e, _), &end) in self.ends.iter().zip(&offsets[1..]) {
            let mut at = end as usize;
            while e != NIL {
                let link = &self.edges[e as usize];
                at -= 1;
                targets[at] = link.dst;
                e = link.prev;
            }
        }
        KnowledgeGraph { offsets, targets }
    }
}

impl KnowledgeGraph {
    /// Creates a graph of `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        KnowledgeGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Creates a graph of `n` nodes from an edge list (duplicates collapsed).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Builder::new(n);
        for (u, v) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
        g.freeze()
    }

    /// Number of nodes `|V|`.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct directed edges `|E₀|`.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// All node ids, in index order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::new)
    }

    /// Adds the directed edge `u → v`. Returns `true` if it was new.
    ///
    /// An append when `u` is the last node; otherwise the targets of every
    /// later node move up one slot.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self-loop.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        check_edge(self.len(), u, v);
        if self.has_edge(u, v) {
            return false;
        }
        offset(self.targets.len() + 1); // the new count must fit an offset
        let end = self.offsets[u.index() + 1];
        self.targets.insert(end as usize, v);
        for o in &mut self.offsets[u.index() + 1..] {
            *o += 1;
        }
        true
    }

    /// Adds a fresh node with no edges, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.offsets.push(offset(self.targets.len()));
        NodeId::new(self.len() - 1)
    }

    /// Whether the directed edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_edges(u).contains(&v)
    }

    /// Out-neighbours of `u` (ids `u` initially knows), in insertion order.
    pub fn out_edges(&self, u: NodeId) -> &[NodeId] {
        let (start, end) = (self.offsets[u.index()], self.offsets[u.index() + 1]);
        &self.targets[start as usize..end as usize]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_edges(u).len()
    }

    /// All directed edges as `(u, v)` pairs, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ids()
            .flat_map(|u| self.out_edges(u).iter().map(move |&v| (u, v)))
    }

    /// The initial knowledge sets in the shape
    /// [`ard_netsim::Runner::new`] expects.
    pub fn initial_knowledge(&self) -> Vec<Vec<NodeId>> {
        self.ids().map(|u| self.out_edges(u).to_vec()).collect()
    }

    /// The *undirected view*: for each node, the union of out-neighbours and
    /// in-neighbours. Weak connectivity is connectivity of this view.
    pub fn undirected_adjacency(&self) -> Vec<Vec<NodeId>> {
        let mut und: Vec<Vec<NodeId>> = vec![Vec::new(); self.len()];
        for (u, v) in self.edges() {
            und[u.index()].push(v);
            und[v.index()].push(u);
        }
        for list in &mut und {
            list.sort_unstable();
            list.dedup();
        }
        und
    }

    /// A new graph with every edge reversed.
    pub fn reversed(&self) -> KnowledgeGraph {
        let mut g = Builder::new(self.len());
        for (u, v) in self.edges() {
            g.add_edge(v, u);
        }
        g.freeze()
    }

    /// The disjoint union of two graphs; `other`'s node `i` becomes node
    /// `self.len() + i`.
    pub fn disjoint_union(&self, other: &KnowledgeGraph) -> KnowledgeGraph {
        let (n, m) = (self.len(), self.edge_count());
        let mut g = self.clone();
        g.offsets
            .extend(other.offsets[1..].iter().map(|&o| offset(m + o as usize)));
        g.targets
            .extend(other.targets.iter().map(|v| NodeId::new(v.index() + n)));
        g
    }
}

impl fmt::Debug for KnowledgeGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KnowledgeGraph(n={}, m={})",
            self.len(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_and_dedups() {
        let g = KnowledgeGraph::from_edges(4, [(0, 1), (1, 2), (0, 1), (3, 0)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(3), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        KnowledgeGraph::from_edges(2, [(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        KnowledgeGraph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn undirected_view_symmetrizes() {
        let g = KnowledgeGraph::from_edges(3, [(0, 1), (2, 1)]);
        let und = g.undirected_adjacency();
        assert_eq!(und[1], vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(und[0], vec![NodeId::new(1)]);
    }

    #[test]
    fn reversed_flips_edges() {
        let g = KnowledgeGraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(r.has_edge(NodeId::new(2), NodeId::new(1)));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn disjoint_union_offsets() {
        let a = KnowledgeGraph::from_edges(2, [(0, 1)]);
        let b = KnowledgeGraph::from_edges(2, [(1, 0)]);
        let u = a.disjoint_union(&b);
        assert_eq!(u.len(), 4);
        assert_eq!(u.edge_count(), 2);
        assert!(u.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(u.has_edge(NodeId::new(3), NodeId::new(2)));
    }

    #[test]
    fn add_node_grows() {
        let mut g = KnowledgeGraph::new(1);
        let v = g.add_node();
        assert_eq!(v, NodeId::new(1));
        g.add_edge(NodeId::new(0), v);
        assert_eq!(g.edge_count(), 1);
    }

    /// An edge out of the last node lands at the end of the target array;
    /// one out of an earlier node moves only the offsets and targets after
    /// it.
    #[test]
    fn add_edge_appends_at_the_last_node_and_inserts_elsewhere() {
        let id = NodeId::new;
        let mut g = KnowledgeGraph::from_edges(3, [(0, 1), (2, 0)]);
        let last = g.add_node();
        assert!(g.add_edge(last, id(1)));
        assert_eq!(g.offsets, [0, 1, 1, 2, 3]);
        assert_eq!(g.targets, [id(1), id(0), id(1)]);
        assert!(g.add_edge(id(1), id(2)));
        assert!(!g.add_edge(id(1), id(2)));
        assert_eq!(g.offsets, [0, 1, 2, 3, 4]);
        assert_eq!(g.targets, [id(1), id(2), id(0), id(1)]);
        assert_eq!(
            g,
            KnowledgeGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
        );
    }

    #[test]
    fn initial_knowledge_matches_out_edges() {
        let g = KnowledgeGraph::from_edges(3, [(0, 1), (0, 2)]);
        let k = g.initial_knowledge();
        assert_eq!(k[0], vec![NodeId::new(1), NodeId::new(2)]);
        assert!(k[1].is_empty());
    }
}
