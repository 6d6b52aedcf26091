//! Topology generators for the reproduction's experiments.
//!
//! All generators are deterministic; the random ones take an explicit seed.
//! The key topologies:
//!
//! * [`binary_tree_down`] — the complete rooted binary tree `T(i)` with all
//!   edges directed toward the leaves, the Theorem 1 lower-bound topology;
//! * [`random_weakly_connected`] — seeded `G(n, m)`-style graphs guaranteed
//!   weakly connected, the workhorse of the complexity sweeps;
//! * classic shapes ([`path`], [`ring`], [`star_out`], [`star_in`],
//!   [`complete`]) exercising extreme degree distributions.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use ard_netsim::NodeId;

use crate::graph::Builder;
use crate::KnowledgeGraph;

/// A directed path `0 → 1 → … → n-1`.
///
/// # Example
///
/// ```
/// let g = ard_graph::gen::path(4);
/// assert_eq!(g.edge_count(), 3);
/// ```
pub fn path(n: usize) -> KnowledgeGraph {
    KnowledgeGraph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
}

/// A directed ring `0 → 1 → … → n-1 → 0` (strongly connected).
///
/// # Panics
///
/// Panics if `n < 2` (a ring needs at least two nodes).
pub fn ring(n: usize) -> KnowledgeGraph {
    assert!(n >= 2, "a ring needs at least two nodes");
    KnowledgeGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// A star with all edges pointing *out* of the centre (node 0 knows all).
pub fn star_out(n: usize) -> KnowledgeGraph {
    KnowledgeGraph::from_edges(n, (1..n).map(|i| (0, i)))
}

/// A star with all edges pointing *into* the centre (all know node 0).
pub fn star_in(n: usize) -> KnowledgeGraph {
    KnowledgeGraph::from_edges(n, (1..n).map(|i| (i, 0)))
}

/// The complete directed graph (every node knows every other).
pub fn complete(n: usize) -> KnowledgeGraph {
    KnowledgeGraph::from_edges(
        n,
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v))),
    )
}

/// The complete rooted binary tree `T(levels)` with `n = 2^levels − 1` nodes
/// and all edges directed toward the leaves — the topology of the paper's
/// Theorem 1, on which any oblivious resource-discovery algorithm can be
/// forced to send `≥ 0.5·n·log n − 2` messages.
///
/// Node `0` is the root; node `i`'s children are `2i + 1` and `2i + 2`.
///
/// # Example
///
/// ```
/// let g = ard_graph::gen::binary_tree_down(3);
/// assert_eq!(g.len(), 7);
/// assert_eq!(g.edge_count(), 6);
/// assert_eq!(g.out_degree(ard_netsim::NodeId::new(0)), 2);
/// ```
///
/// # Panics
///
/// Panics if `levels == 0`.
pub fn binary_tree_down(levels: u32) -> KnowledgeGraph {
    assert!(levels >= 1, "a tree needs at least one level");
    let n = (1usize << levels) - 1;
    KnowledgeGraph::from_edges(n, (1..n).map(|child| ((child - 1) / 2, child)))
}

/// A random weakly connected graph: a random-orientation spanning tree over
/// a random node permutation, plus random extra directed edges until the
/// graph has `min(extra_edges + n − 1, n(n−1))` distinct edges.
///
/// Deterministic in `seed`.
///
/// # Example
///
/// ```
/// use ard_graph::{components, gen};
///
/// let g = gen::random_weakly_connected(50, 200, 3);
/// assert!(components::is_weakly_connected(&g));
/// assert_eq!(g.edge_count(), 49 + 200);
/// ```
pub fn random_weakly_connected(n: usize, extra_edges: usize, seed: u64) -> KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_weakly_connected_with(n, extra_edges, &mut rng)
}

/// As [`random_weakly_connected`], drawing from a caller-supplied RNG.
pub(crate) fn random_weakly_connected_with(
    n: usize,
    extra_edges: usize,
    rng: &mut StdRng,
) -> KnowledgeGraph {
    let mut g = Builder::new(n);
    if n <= 1 {
        return g.freeze();
    }
    // Random spanning tree over a random permutation: attach each node to a
    // uniformly random earlier node, with a random edge orientation. This
    // yields weak connectivity without biasing direction.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        if rng.gen_bool(0.5) {
            g.add_edge(NodeId::new(parent), NodeId::new(child));
        } else {
            g.add_edge(NodeId::new(child), NodeId::new(parent));
        }
    }
    let target = (n - 1 + extra_edges).min(n * (n - 1));
    while g.edge_count() < target {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
    }
    g.freeze()
}

/// A scale-free knowledge graph via preferential attachment
/// (Barabási–Albert style): node `i` attaches `links_per_node` directed
/// edges to earlier nodes chosen proportionally to their current total
/// degree. Models real peer-to-peer bootstrap lists, where a few well-known
/// rendezvous peers are known by almost everyone.
///
/// Always weakly connected; deterministic in `seed`.
///
/// # Example
///
/// ```
/// use ard_graph::{components, gen};
///
/// let g = gen::scale_free(100, 2, 7);
/// assert!(components::is_weakly_connected(&g));
/// // Hubs emerge: some node has far more than average in-degree.
/// let max_in = (0..100).map(|v| {
///     g.edges().filter(|&(_, to)| to.index() == v).count()
/// }).max().unwrap();
/// assert!(max_in > 8);
/// ```
pub fn scale_free(n: usize, links_per_node: usize, seed: u64) -> KnowledgeGraph {
    assert!(links_per_node >= 1, "each newcomer needs at least one link");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Builder::new(n);
    if n <= 1 {
        return g.freeze();
    }
    // `targets` holds one entry per edge endpoint: sampling uniformly from
    // it is degree-proportional sampling.
    let mut endpoints: Vec<usize> = vec![0];
    for i in 1..n {
        let m = links_per_node.min(i);
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != i && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            g.add_edge(NodeId::new(i), NodeId::new(t));
            endpoints.push(t);
            endpoints.push(i);
        }
    }
    g.freeze()
}

/// `count` disjoint copies of random weakly connected graphs, each of
/// `per_component` nodes with `extra_edges` extra edges; used to exercise
/// the "one leader per weakly connected component" requirement.
pub fn random_multi_component(
    count: usize,
    per_component: usize,
    extra_edges: usize,
    seed: u64,
) -> KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = KnowledgeGraph::new(0);
    for _ in 0..count {
        let part = random_weakly_connected_with(per_component, extra_edges, &mut rng);
        g = g.disjoint_union(&part);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{
        is_strongly_connected, is_weakly_connected, weakly_connected_components,
    };

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert!(is_weakly_connected(&g));
        assert!(!is_strongly_connected(&g));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn path_of_one_has_no_edges() {
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).len(), 0);
    }

    #[test]
    fn ring_is_strongly_connected() {
        let g = ring(6);
        assert_eq!(g.edge_count(), 6);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn stars_differ_in_direction() {
        let out = star_out(5);
        let inn = star_in(5);
        assert_eq!(out.out_degree(NodeId::new(0)), 4);
        assert_eq!(inn.out_degree(NodeId::new(0)), 0);
        assert!(is_weakly_connected(&out));
        assert!(is_weakly_connected(&inn));
    }

    #[test]
    fn complete_has_all_edges() {
        let g = complete(4);
        assert_eq!(g.edge_count(), 12);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree_down(4);
        assert_eq!(g.len(), 15);
        assert_eq!(g.edge_count(), 14);
        assert!(is_weakly_connected(&g));
        // leaves have no out-edges
        for leaf in 7..15 {
            assert_eq!(g.out_degree(NodeId::new(leaf)), 0);
        }
    }

    #[test]
    fn random_graph_is_weakly_connected_and_seeded() {
        for seed in 0..20 {
            let g = random_weakly_connected(40, 100, seed);
            assert!(is_weakly_connected(&g), "seed {seed} not weakly connected");
            assert_eq!(g.edge_count(), 39 + 100);
        }
        let a = random_weakly_connected(30, 50, 9);
        let b = random_weakly_connected(30, 50, 9);
        assert_eq!(a, b, "same seed must give same graph");
    }

    #[test]
    fn random_graph_caps_at_complete() {
        let g = random_weakly_connected(4, 1_000, 0);
        assert_eq!(g.edge_count(), 12);
    }

    #[test]
    fn scale_free_is_connected_and_skewed() {
        let n = 200;
        let g = scale_free(n, 2, 3);
        assert!(is_weakly_connected(&g));
        assert_eq!(g.len(), n);
        // Edge count: node 1 adds 1 (only one predecessor), rest add 2.
        assert_eq!(g.edge_count(), 1 + 2 * (n - 2));
        // Determinism.
        assert_eq!(scale_free(50, 2, 9), scale_free(50, 2, 9));
        // Degree skew: the max in-degree dwarfs the mean.
        let mut in_deg = vec![0usize; n];
        for (_, v) in g.edges() {
            in_deg[v.index()] += 1;
        }
        let max = *in_deg.iter().max().unwrap();
        assert!(max >= 10, "no hub emerged: max in-degree {max}");
    }

    #[test]
    fn scale_free_tiny_cases() {
        assert_eq!(scale_free(1, 1, 0).edge_count(), 0);
        let g = scale_free(2, 3, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn multi_component_counts() {
        let g = random_multi_component(3, 10, 5, 11);
        assert_eq!(g.len(), 30);
        assert_eq!(weakly_connected_components(&g).len(), 3);
    }
}
