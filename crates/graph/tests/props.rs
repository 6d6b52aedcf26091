//! Property-based tests: connectivity algorithms against brute-force
//! oracles, generator invariants, and the flat graph against a list-per-node
//! model.

use proptest::prelude::*;

use ard_graph::{components, gen, KnowledgeGraph};
use ard_netsim::NodeId;

/// Brute-force weak-components oracle: repeated relabelling.
fn oracle_weak_components(g: &KnowledgeGraph) -> Vec<usize> {
    let n = g.len();
    let mut label: Vec<usize> = (0..n).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (u, v) in g.edges() {
            let (lu, lv) = (label[u.index()], label[v.index()]);
            if lu != lv {
                let lo = lu.min(lv);
                for l in label.iter_mut() {
                    if *l == lu.max(lv) {
                        *l = lo;
                    }
                }
                changed = true;
            }
        }
    }
    label
}

/// Brute-force strong-connectivity oracle: BFS reachability both ways.
fn oracle_mutually_reachable(g: &KnowledgeGraph, a: NodeId, b: NodeId) -> bool {
    let reach = |from: NodeId, to: NodeId| -> bool {
        let mut seen = vec![false; g.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            for &v in g.out_edges(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        false
    };
    reach(a, b) && reach(b, a)
}

fn arbitrary_graph() -> impl Strategy<Value = KnowledgeGraph> {
    (
        1usize..16,
        prop::collection::vec((0usize..16, 0usize..16), 0..50),
    )
        .prop_map(|(n, edges)| {
            let mut g = KnowledgeGraph::new(n);
            for (u, v) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
            g
        })
}

/// The representation the flat graph replaced: one out-list per node, in
/// insertion order, duplicates dropped.
type Model = Vec<Vec<NodeId>>;

fn model_add_edge(model: &mut Model, u: usize, v: usize) -> bool {
    let v = NodeId::new(v);
    let fresh = !model[u].contains(&v);
    if fresh {
        model[u].push(v);
    }
    fresh
}

fn model_edges(model: &Model) -> Vec<(NodeId, NodeId)> {
    model
        .iter()
        .enumerate()
        .flat_map(|(u, outs)| outs.iter().map(move |&v| (NodeId::new(u), v)))
        .collect()
}

/// Every read of `g` agrees with `model`.
fn assert_matches(g: &KnowledgeGraph, model: &Model) -> Result<(), TestCaseError> {
    let n = model.len();
    prop_assert_eq!(g.len(), n);
    prop_assert_eq!(g.edge_count(), model.iter().map(Vec::len).sum::<usize>());
    for (u, outs) in model.iter().enumerate() {
        let u = NodeId::new(u);
        prop_assert_eq!(g.out_edges(u), &outs[..]);
        prop_assert_eq!(g.out_degree(u), outs.len());
        for v in 0..n {
            let v = NodeId::new(v);
            prop_assert_eq!(g.has_edge(u, v), outs.contains(&v));
        }
    }
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), model_edges(model));
    prop_assert_eq!(&g.initial_knowledge(), model);
    let rebuilt = KnowledgeGraph::from_edges(
        n,
        model_edges(model)
            .into_iter()
            .map(|(u, v)| (u.index(), v.index())),
    );
    prop_assert_eq!(&rebuilt, g);
    Ok(())
}

/// One dynamic mutation; endpoints are reduced modulo the current size.
#[derive(Clone, Debug)]
enum Op {
    Node,
    /// An edge out of any node: a mid-graph insert unless it is the last.
    Edge(usize, usize),
    /// An edge out of the newest node: the append path.
    EdgeFromLast(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Node),
        (0usize..24, 0usize..24).prop_map(|(u, v)| Op::Edge(u, v)),
        (0usize..24).prop_map(Op::EdgeFromLast),
    ]
}

/// Edge lists with self-loops filtered out; duplicates stay in on purpose.
fn edge_list(n: usize, raw: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    raw.into_iter()
        .map(|(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v)
        .collect()
}

/// FNV-1a over `n`, `m` and every `edges()` pair: pins generator output
/// edge for edge, in order.
fn digest(g: &KnowledgeGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(g.len() as u64);
    mix(g.edge_count() as u64);
    for (u, v) in g.edges() {
        mix(u.index() as u64);
        mix(v.index() as u64);
    }
    h
}

/// The generators produce the same graphs, edge for edge and in the same
/// out-list order, as the list-per-node representation did: the values
/// were printed by the build before the graph was stored flat.
#[test]
fn generator_output_is_pinned() {
    let cases = [
        (
            gen::random_weakly_connected(1000, 3000, 1),
            0xd16a_77b8_236a_4152,
        ),
        (
            gen::random_weakly_connected(1000, 3000, 7),
            0x6da6_76a4_e180_4bc6,
        ),
        (
            gen::random_weakly_connected(200, 20_000, 42),
            0xffed_fe8e_9777_44b3,
        ),
        (gen::scale_free(1000, 3, 5), 0xff89_265a_9b9a_3368),
        (gen::binary_tree_down(10), 0xc11c_3da3_5126_96ea),
        (gen::complete(32), 0xf0ba_05ab_2574_8754),
        // The CLI's `components:count=8,per=128,extra=256,seed=3`.
        (
            gen::random_multi_component(8, 128, 256, 3),
            0x3cdb_b232_c7d9_66e0,
        ),
    ];
    for (i, (g, want)) in cases.iter().enumerate() {
        assert_eq!(digest(g), *want, "case {i}: {g:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `add_node` / `add_edge` sequences over a `from_edges` start,
    /// then `reversed` and `disjoint_union`, read the same as the
    /// list-per-node model after every step.
    #[test]
    fn flat_graph_matches_the_list_model(
        n in 1usize..12,
        start in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        ops in prop::collection::vec(op(), 0..40),
        other_n in 0usize..6,
        other in prop::collection::vec((0usize..6, 0usize..6), 0..10),
    ) {
        let start = edge_list(n, start);
        let mut g = KnowledgeGraph::from_edges(n, start.iter().copied());
        let mut model: Model = vec![Vec::new(); n];
        for &(u, v) in &start {
            model_add_edge(&mut model, u, v);
        }
        assert_matches(&g, &model)?;

        for op in ops {
            let len = model.len();
            let (u, v) = match op {
                Op::Node => {
                    prop_assert_eq!(g.add_node(), NodeId::new(len));
                    model.push(Vec::new());
                    assert_matches(&g, &model)?;
                    continue;
                }
                Op::Edge(u, v) => (u % len, v % len),
                Op::EdgeFromLast(v) => (len - 1, v % len),
            };
            if u != v {
                let fresh = model_add_edge(&mut model, u, v);
                prop_assert_eq!(g.add_edge(NodeId::new(u), NodeId::new(v)), fresh);
                assert_matches(&g, &model)?;
            }
        }

        let mut reversed: Model = vec![Vec::new(); model.len()];
        for (u, v) in model_edges(&model) {
            model_add_edge(&mut reversed, v.index(), u.index());
        }
        assert_matches(&g.reversed(), &reversed)?;

        let other = if other_n == 0 { Vec::new() } else { edge_list(other_n, other) };
        let h = KnowledgeGraph::from_edges(other_n, other.iter().copied());
        let mut h_model: Model = vec![Vec::new(); other_n];
        for &(u, v) in &other {
            model_add_edge(&mut h_model, u, v);
        }
        let mut union = model.clone();
        union.extend(h_model.iter().map(|outs| {
            outs.iter().map(|v| NodeId::new(v.index() + model.len())).collect()
        }));
        assert_matches(&g.disjoint_union(&h), &union)?;
        assert_matches(&h.disjoint_union(&KnowledgeGraph::new(0)), &h_model)?;
    }

    /// Weak components agree with the brute-force relabelling oracle.
    #[test]
    fn weak_components_match_oracle(g in arbitrary_graph()) {
        let ours = components::weak_component_ids(&g);
        let oracle = oracle_weak_components(&g);
        for u in 0..g.len() {
            for v in 0..g.len() {
                prop_assert_eq!(
                    ours[u] == ours[v],
                    oracle[u] == oracle[v],
                    "{} vs {}", u, v
                );
            }
        }
    }

    /// Tarjan SCCs: two nodes share a component iff mutually reachable.
    #[test]
    fn sccs_match_reachability_oracle(g in arbitrary_graph()) {
        let sccs = components::strongly_connected_components(&g);
        let mut id = vec![usize::MAX; g.len()];
        for (ci, c) in sccs.iter().enumerate() {
            for &v in c {
                id[v.index()] = ci;
            }
        }
        // Every node appears exactly once.
        prop_assert!(id.iter().all(|&i| i != usize::MAX));
        for u in 0..g.len().min(8) {
            for v in 0..g.len().min(8) {
                if u == v { continue; }
                prop_assert_eq!(
                    id[u] == id[v],
                    oracle_mutually_reachable(&g, NodeId::new(u), NodeId::new(v)),
                    "{} vs {}", u, v
                );
            }
        }
    }

    /// Random generators keep their promises for arbitrary parameters.
    #[test]
    fn random_generator_invariants(n in 1usize..40, extra in 0usize..120, seed in 0u64..10_000) {
        let g = gen::random_weakly_connected(n, extra, seed);
        prop_assert_eq!(g.len(), n);
        prop_assert!(components::is_weakly_connected(&g));
        let expected = (n.saturating_sub(1) + extra).min(n * n.saturating_sub(1));
        prop_assert_eq!(g.edge_count(), expected);
    }

    /// The undirected view is symmetric and edge-complete.
    #[test]
    fn undirected_view_is_symmetric(g in arbitrary_graph()) {
        let und = g.undirected_adjacency();
        for (u, list) in und.iter().enumerate() {
            for &v in list {
                prop_assert!(und[v.index()].contains(&NodeId::new(u)));
            }
        }
        for (u, v) in g.edges() {
            prop_assert!(und[u.index()].contains(&v));
        }
    }

    /// Reversal is an involution that preserves weak components.
    #[test]
    fn reversal_involution(g in arbitrary_graph()) {
        let rr = g.reversed().reversed();
        prop_assert_eq!(rr.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            prop_assert!(rr.has_edge(u, v));
        }
        prop_assert_eq!(
            components::weak_component_ids(&g),
            components::weak_component_ids(&g.reversed())
        );
    }
}
