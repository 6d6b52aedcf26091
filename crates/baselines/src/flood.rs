//! Naive asynchronous flooding ("swamping").
//!
//! Whenever a node learns ids it did not know, it re-broadcasts its entire
//! knowledge to every node it knows. On any weakly connected graph this
//! converges to every node knowing every node in its component (strictly
//! stronger than resource discovery's requirements — the leader can then be
//! chosen locally as the maximum id), but at `Θ(n²)`-ish messages and
//! `Θ(n³ log n)`-ish bits. It is the "do nothing clever" yardstick of
//! experiment E9.

use std::collections::BTreeSet;

use ard_netsim::{Context, LivelockError, NodeId, Protocol, Runner, Scheduler};

use crate::KnownSet;

/// One flooding node: remembers everything it has heard and re-broadcasts
/// on growth.
#[derive(Debug)]
pub struct FloodNode {
    id: NodeId,
    known: BTreeSet<NodeId>,
}

impl FloodNode {
    /// Creates a node that initially knows `initial` (its `E₀` out-edges).
    pub(crate) fn new(id: NodeId, initial: Vec<NodeId>) -> Self {
        let mut known: BTreeSet<NodeId> = initial.into_iter().collect();
        known.insert(id);
        FloodNode { id, known }
    }

    /// Everything this node currently knows (including itself).
    pub fn known(&self) -> &BTreeSet<NodeId> {
        &self.known
    }

    fn broadcast(&self, ctx: &mut Context<'_, KnownSet>) {
        let payload: Vec<NodeId> = self.known.iter().copied().collect();
        for &v in &self.known {
            if v != self.id {
                ctx.send(v, KnownSet(payload.clone()));
            }
        }
    }
}

impl Protocol for FloodNode {
    type Message = KnownSet;

    fn on_wake(&mut self, ctx: &mut Context<'_, KnownSet>) {
        self.broadcast(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: KnownSet, ctx: &mut Context<'_, KnownSet>) {
        let before = self.known.len();
        self.known.insert(from);
        self.known.extend(msg.0);
        if self.known.len() > before {
            self.broadcast(ctx);
        }
    }
}

/// Builds a flooding network over the graph's initial knowledge.
pub(crate) fn network(graph: &ard_graph::KnowledgeGraph) -> Runner<FloodNode> {
    let nodes = graph
        .ids()
        .map(|id| FloodNode::new(id, graph.out_edges(id).to_vec()))
        .collect();
    Runner::new(nodes, graph.initial_knowledge())
}

/// Runs flooding to quiescence and returns the elected leader of each node
/// (the maximum id it knows — identical across a component on success).
///
/// # Errors
///
/// Returns [`LivelockError`] if `max_steps` is exhausted first.
pub fn run(
    graph: &ard_graph::KnowledgeGraph,
    sched: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<(Runner<FloodNode>, Vec<NodeId>), LivelockError> {
    let mut runner = network(graph);
    runner.enqueue_wake_all(sched);
    runner.run(sched, max_steps)?;
    let leaders = runner
        .nodes()
        .map(|n| *n.known().iter().max().expect("knows at least itself"))
        .collect();
    Ok((runner, leaders))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::{components, gen};
    use ard_netsim::RandomScheduler;

    #[test]
    fn flooding_reaches_full_knowledge() {
        let graph = gen::random_weakly_connected(24, 40, 3);
        let mut sched = RandomScheduler::seeded(5);
        let (runner, leaders) = run(&graph, &mut sched, 2_000_000).unwrap();
        for node in runner.nodes() {
            assert_eq!(node.known().len(), 24);
        }
        assert!(leaders.iter().all(|&l| l == NodeId::new(23)));
    }

    #[test]
    fn flooding_respects_components() {
        let graph = gen::random_multi_component(2, 8, 6, 1);
        let mut sched = RandomScheduler::seeded(2);
        let (runner, leaders) = run(&graph, &mut sched, 2_000_000).unwrap();
        let comp = components::weak_component_ids(&graph);
        for v in 0..16 {
            let node = runner.node(NodeId::new(v));
            assert_eq!(node.known().len(), 8, "node {v}");
            // Leader consistent within the component.
            let mate = (0..16).find(|&u| u != v && comp[u] == comp[v]).unwrap();
            assert_eq!(leaders[v], leaders[mate]);
        }
    }

    #[test]
    fn flooding_cost_is_superlinear() {
        let cost = |n: usize| {
            let graph = gen::random_weakly_connected(n, 2 * n, 7);
            let mut sched = RandomScheduler::seeded(7);
            let (runner, _) = run(&graph, &mut sched, 10_000_000).unwrap();
            runner.metrics().total_messages()
        };
        let small = cost(16);
        let large = cost(64);
        // 4x nodes should cost far more than 4x messages.
        assert!(large > small * 8, "flooding {small} -> {large}");
    }
}
