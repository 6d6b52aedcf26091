//! Max-id flooding leader election for **strongly connected** graphs.
//!
//! The paper's §1 observes that on strongly connected networks, resource
//! discovery reduces to classic leader election — Cidon, Gopal & Kutten
//! \[1\] achieve `O(n)` messages — and that the whole difficulty of the
//! problem lives in weakly connected, directed knowledge graphs. This
//! module provides the textbook comparison point: flood the maximum id seen
//! so far along the initial edges. It costs `O(|E₀| · n)` messages in the
//! worst case (each node re-floods at most `n` improvements), `O(|E₀|)` on
//! id-sorted-friendly orders, and terminates with every node agreeing on
//! the component's maximum id as leader.
//!
//! It intentionally solves only *election* (everyone knows the leader), not
//! full discovery (the leader does not learn everyone's id) — exactly the
//! gap the paper's algorithms fill.

use ard_netsim::{Context, Envelope, LivelockError, NodeId, Protocol, Runner, Scheduler};

/// A candidate-leader announcement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate(pub NodeId);

impl Envelope for Candidate {
    fn kind(&self) -> &'static str {
        "candidate"
    }
    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
        f(self.0);
    }
    fn aux_bits(&self) -> u64 {
        0
    }
}

/// One election node: tracks the best candidate and floods improvements to
/// its initial out-neighbours.
#[derive(Debug)]
pub struct ElectionNode {
    peers: Vec<NodeId>,
    best: NodeId,
}

impl ElectionNode {
    /// Creates a node with initial out-neighbours `peers`.
    pub(crate) fn new(id: NodeId, peers: Vec<NodeId>) -> Self {
        ElectionNode { peers, best: id }
    }

    /// The best (maximum) candidate this node has seen.
    pub fn leader(&self) -> NodeId {
        self.best
    }

    fn flood(&self, ctx: &mut Context<'_, Candidate>) {
        for &p in &self.peers {
            ctx.send(p, Candidate(self.best));
        }
    }
}

impl Protocol for ElectionNode {
    type Message = Candidate;

    fn on_wake(&mut self, ctx: &mut Context<'_, Candidate>) {
        self.flood(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Candidate, ctx: &mut Context<'_, Candidate>) {
        if msg.0 > self.best {
            self.best = msg.0;
            self.flood(ctx);
        }
    }
}

/// Runs the election to quiescence.
///
/// # Errors
///
/// Returns [`LivelockError`] if `max_steps` is exhausted first.
///
/// # Panics
///
/// Panics if `graph` is not strongly connected — on merely weakly connected
/// graphs max-id flooding does not converge to agreement, which is the
/// paper's point.
pub fn run(
    graph: &ard_graph::KnowledgeGraph,
    sched: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<Runner<ElectionNode>, LivelockError> {
    assert!(
        ard_graph::components::is_strongly_connected(graph),
        "max-id election requires a strongly connected graph"
    );
    let nodes = graph
        .ids()
        .map(|id| ElectionNode::new(id, graph.out_edges(id).to_vec()))
        .collect();
    let mut runner = Runner::new(nodes, graph.initial_knowledge());
    runner.enqueue_wake_all(sched);
    runner.run(sched, max_steps)?;
    Ok(runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::gen;
    use ard_netsim::{LifoScheduler, RandomScheduler};

    #[test]
    fn ring_elects_max_id() {
        let graph = gen::ring(17);
        let mut sched = RandomScheduler::seeded(4);
        let runner = run(&graph, &mut sched, 1_000_000).unwrap();
        for node in runner.nodes() {
            assert_eq!(node.leader(), NodeId::new(16));
        }
    }

    #[test]
    fn complete_graph_elects_max_id_cheaply() {
        let graph = gen::complete(10);
        let mut sched = LifoScheduler::new();
        let runner = run(&graph, &mut sched, 1_000_000).unwrap();
        for node in runner.nodes() {
            assert_eq!(node.leader(), NodeId::new(9));
        }
    }

    #[test]
    fn ring_cost_is_linear_in_edges_times_improvements() {
        let graph = gen::ring(64);
        let mut sched = RandomScheduler::seeded(0);
        let runner = run(&graph, &mut sched, 1_000_000).unwrap();
        // Worst case O(n²) on a ring; typical far less. Sanity-bound it.
        assert!(runner.metrics().total_messages() <= 64 * 64);
    }

    #[test]
    #[should_panic(expected = "strongly connected")]
    fn weakly_connected_is_rejected() {
        let graph = gen::path(4);
        let mut sched = RandomScheduler::seeded(0);
        let _ = run(&graph, &mut sched, 1_000);
    }
}
