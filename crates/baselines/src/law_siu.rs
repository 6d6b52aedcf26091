//! A Law–Siu-style randomized synchronous algorithm (§1.1's \[5\]).
//!
//! Law & Siu's brief announcement achieves, with high probability,
//! `O(n log n)` messages and `O(log n)` rounds on weakly connected graphs by
//! combining random-mate cluster merging with elements of Name-Dropper. The
//! full algorithm was never published beyond the announcement; this module
//! implements the standard *push–pull random-mate* interpretation that
//! matches the announced bounds (documented as a substitution in
//! DESIGN.md):
//!
//! * every node keeps a candidate **root** (initially itself) and a set of
//!   known ids;
//! * each round, every node **pushes** its root and known set to one random
//!   known node and **pulls** by answering every push with its own;
//! * roots merge toward the minimum id seen, so clusters coalesce like
//!   randomized linking; with the push–pull exchange the expected number of
//!   clusters halves per `O(1)` rounds, giving `O(log n)` rounds and
//!   `O(n log n)` messages w.h.p.
//!
//! Like Name-Dropper (and unlike the paper's algorithms) it needs synchrony
//! and knowledge of `n` for its round budget.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeSet;

use ard_netsim::sync::{SyncNetwork, SyncProtocol};
use ard_netsim::{Context, Envelope, NodeId};

/// One push or pull message: the sender's current root candidate plus its
/// known-id set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootGossip {
    /// Sender's current root candidate (minimum id seen).
    pub root: NodeId,
    /// Sender's known ids.
    pub known: Vec<NodeId>,
    /// Whether the receiver should answer (push) or not (pull answer).
    pub wants_reply: bool,
}

impl Envelope for RootGossip {
    fn kind(&self) -> &'static str {
        "root gossip"
    }
    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
        f(self.root);
        self.known.iter().copied().for_each(f);
    }
    fn carried_id_count(&self) -> usize {
        1 + self.known.len()
    }
    fn aux_bits(&self) -> u64 {
        32 + 1
    }
}

/// One node of the Law–Siu-style algorithm.
#[derive(Debug)]
pub struct LawSiuNode {
    id: NodeId,
    root: NodeId,
    known: BTreeSet<NodeId>,
    rng: StdRng,
    rounds_left: u64,
}

impl LawSiuNode {
    /// Creates a node knowing `initial`, gossiping for `rounds` rounds.
    pub(crate) fn new(id: NodeId, initial: Vec<NodeId>, rounds: u64, seed: u64) -> Self {
        let mut known: BTreeSet<NodeId> = initial.into_iter().collect();
        known.insert(id);
        LawSiuNode {
            id,
            root: id,
            known,
            rng: StdRng::seed_from_u64(seed ^ (id.index() as u64).wrapping_mul(0x1234_5677)),
            rounds_left: rounds,
        }
    }

    fn absorb(&mut self, from: NodeId, msg: &RootGossip) {
        self.known.insert(from);
        self.known.extend(msg.known.iter().copied());
        self.known.insert(msg.root);
        if msg.root < self.root {
            self.root = msg.root;
        }
    }
}

impl SyncProtocol for LawSiuNode {
    type Message = RootGossip;

    fn on_round(
        &mut self,
        _round: u64,
        inbox: Vec<(NodeId, RootGossip)>,
        ctx: &mut Context<'_, RootGossip>,
    ) {
        // Pull phase: answer last round's pushes and absorb everything.
        let mut reply_to = Vec::new();
        for (from, msg) in inbox {
            if msg.wants_reply {
                reply_to.push(from);
            }
            self.absorb(from, &msg);
        }
        for from in reply_to {
            ctx.send(
                from,
                RootGossip {
                    root: self.root,
                    known: self.known.iter().copied().collect(),
                    wants_reply: false,
                },
            );
        }
        // Push phase.
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
        ctx.send(
            target,
            RootGossip {
                root: self.root,
                known: self.known.iter().copied().collect(),
                wants_reply: true,
            },
        );
    }
}

/// The announced round budget: `O(log n)` with a safety constant.
pub(crate) fn round_budget(n: usize) -> u64 {
    let log = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as u64;
    6 * log + 6
}

/// Builds and runs the algorithm on `graph` for the standard round budget.
pub fn run(graph: &ard_graph::KnowledgeGraph, seed: u64) -> SyncNetwork<LawSiuNode> {
    let rounds = round_budget(graph.len());
    let nodes = graph
        .ids()
        .map(|id| LawSiuNode::new(id, graph.out_edges(id).to_vec(), rounds, seed))
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
    fn converges_to_one_root_whp() {
        for seed in 0..5 {
            let graph = gen::random_weakly_connected(60, 120, seed);
            let net = run(&graph, seed);
            let roots: BTreeSet<NodeId> = net.nodes().map(|n| n.root).collect();
            assert_eq!(roots.len(), 1, "seed {seed}: roots {roots:?}");
            assert_eq!(roots.into_iter().next().unwrap(), NodeId::new(0));
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let graph = gen::random_weakly_connected(128, 256, 7);
        let net = run(&graph, 7);
        assert!(net.round() <= round_budget(128) + 2);
        assert!(round_budget(128) < 60);
    }

    #[test]
    fn message_count_is_n_log_n_ish() {
        let n = 128;
        let graph = gen::random_weakly_connected(n, 2 * n, 3);
        let net = run(&graph, 3);
        let m = net.metrics().total_messages();
        // push + pull ≤ 2·n·rounds.
        assert!(m <= 2 * (n as u64) * round_budget(n));
        assert!(
            m >= (n as u64) * (round_budget(n) - 2),
            "pushes happen every round"
        );
    }

    #[test]
    fn everyone_learns_everyone() {
        let graph = gen::path(40);
        let net = run(&graph, 11);
        for node in net.nodes() {
            assert_eq!(node.known.len(), 40);
        }
    }
}
