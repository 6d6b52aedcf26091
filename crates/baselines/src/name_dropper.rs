//! The *Name-Dropper* algorithm of Harchol-Balter, Leighton & Lewin
//! (PODC 1999) — the randomized synchronous baseline of the paper's §1.1.
//!
//! Every round, every node chooses one node uniformly from its current
//! neighbour list and sends it that entire list. The original analysis
//! shows that after `O(log² n)` rounds every node knows every node in its
//! weakly connected component with high probability, for `O(n log² n)`
//! messages and `O(n² log³ n)` bits. Both the round budget and the
//! termination condition require knowing `n` — one of the assumptions the
//! Abraham–Dolev algorithms remove.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeSet;

use ard_netsim::sync::{SyncNetwork, SyncProtocol};
use ard_netsim::{Context, NodeId};

use crate::KnownSet;

/// One Name-Dropper node.
#[derive(Debug)]
pub struct NameDropperNode {
    id: NodeId,
    known: BTreeSet<NodeId>,
    rng: StdRng,
    rounds_left: u64,
}

impl NameDropperNode {
    /// Creates a node knowing `initial`, gossiping for `rounds` rounds.
    pub fn new(id: NodeId, initial: Vec<NodeId>, rounds: u64, seed: u64) -> Self {
        let mut known: BTreeSet<NodeId> = initial.into_iter().collect();
        known.insert(id);
        NameDropperNode {
            id,
            known,
            rng: StdRng::seed_from_u64(seed ^ (id.index() as u64).wrapping_mul(0x9e37_79b9)),
            rounds_left: rounds,
        }
    }

    /// Everything this node currently knows (including itself).
    pub fn known(&self) -> &BTreeSet<NodeId> {
        &self.known
    }
}

impl SyncProtocol for NameDropperNode {
    type Message = KnownSet;

    fn on_round(
        &mut self,
        _round: u64,
        inbox: Vec<(NodeId, KnownSet)>,
        ctx: &mut Context<'_, KnownSet>,
    ) {
        for (from, msg) in inbox {
            self.known.insert(from);
            self.known.extend(msg.0);
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let others: Vec<NodeId> = self
            .known
            .iter()
            .copied()
            .filter(|&v| v != self.id)
            .collect();
        if others.is_empty() {
            return;
        }
        let target = others[self.rng.gen_range(0..others.len())];
        ctx.send(target, KnownSet(self.known.iter().copied().collect()));
    }
}

/// The standard round budget: `⌈c · log₂² n⌉` with `c = 3`, which makes the
/// with-high-probability guarantee hold comfortably at experiment scales.
pub(crate) fn round_budget(n: usize) -> u64 {
    let log = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as u64;
    3 * log * log + 3
}

/// Builds and runs Name-Dropper on `graph` for the standard round budget.
/// Returns the finished network (inspect per-node [`NameDropperNode::known`]
/// and the [`Metrics`](ard_netsim::Metrics)).
pub fn run(graph: &ard_graph::KnowledgeGraph, seed: u64) -> SyncNetwork<NameDropperNode> {
    let rounds = round_budget(graph.len());
    let nodes = graph
        .ids()
        .map(|id| NameDropperNode::new(id, graph.out_edges(id).to_vec(), rounds, seed))
        .collect();
    let mut net = SyncNetwork::new(nodes, graph.initial_knowledge());
    net.run(rounds + 2);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::gen;

    #[test]
    fn name_dropper_discovers_everyone_whp() {
        for seed in 0..5 {
            let graph = gen::random_weakly_connected(50, 80, seed);
            let net = run(&graph, seed);
            for node in net.nodes() {
                assert_eq!(
                    node.known().len(),
                    50,
                    "seed {seed}: node {} knows only {:?}",
                    node.id,
                    node.known().len()
                );
            }
        }
    }

    #[test]
    fn message_count_is_n_per_active_round() {
        let graph = gen::ring(32);
        let net = run(&graph, 1);
        let m = net.metrics().total_messages();
        let rounds = round_budget(32);
        assert!(m <= 32 * rounds, "{m} messages over {rounds} rounds");
        assert!(m >= 32 * (rounds - 1), "{m} messages over {rounds} rounds");
    }

    #[test]
    fn round_budget_grows_polylog() {
        assert!(round_budget(16) < round_budget(1 << 16));
        assert!(round_budget(1 << 16) <= 3 * 16 * 16 + 3);
    }

    #[test]
    fn works_on_hard_directed_shapes() {
        // A directed path is the hardest weakly-connected case for gossip:
        // information can initially flow only one way.
        let graph = gen::path(20);
        let net = run(&graph, 9);
        for node in net.nodes() {
            assert_eq!(node.known().len(), 20);
        }
    }
}
