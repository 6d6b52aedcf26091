//! Synchronous-round execution engine.
//!
//! The prior algorithms the paper compares against (Harchol-Balter, Leighton
//! & Lewin's *Name-Dropper*; Law & Siu's algorithm) are *synchronous*: all
//! nodes proceed in lockstep rounds and every message sent in round `r` is
//! delivered before round `r + 1`. This module provides that model with the
//! same knowledge enforcement and [`Metrics`] accounting as the asynchronous
//! [`Runner`](crate::Runner), so baseline costs are directly comparable.
//!
//! # Example
//!
//! ```
//! use ard_netsim::sync::{SyncNetwork, SyncProtocol};
//! use ard_netsim::{Context, Envelope, NodeId};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Envelope for Hello {
//!     fn kind(&self) -> &'static str { "hello" }
//!     fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
//!     fn aux_bits(&self) -> u64 { 0 }
//! }
//!
//! /// Greets the next node once, in round 0.
//! struct Greeter { next: Option<NodeId>, greeted: u32 }
//! impl SyncProtocol for Greeter {
//!     type Message = Hello;
//!     fn on_round(&mut self, round: u64, inbox: Vec<(NodeId, Hello)>, ctx: &mut Context<'_, Hello>) {
//!         self.greeted += inbox.len() as u32;
//!         if round == 0 {
//!             if let Some(next) = self.next {
//!                 ctx.send(next, Hello);
//!             }
//!         }
//!     }
//! }
//!
//! let mut net = SyncNetwork::new(
//!     vec![Greeter { next: Some(NodeId::new(1)), greeted: 0 }, Greeter { next: None, greeted: 0 }],
//!     vec![vec![NodeId::new(1)], vec![]],
//! );
//! let rounds = net.run(10);
//! assert_eq!(rounds, 2); // one round of sending, one of receiving
//! assert_eq!(net.node(NodeId::new(1)).greeted, 1);
//! ```

use crate::bitset::BitSet;
use crate::envelope::Envelope;
use crate::scheduler::Kind;
use crate::{Context, Metrics, NodeId};

/// Behaviour of one node in a synchronous network.
pub trait SyncProtocol {
    /// The protocol's message type.
    type Message: Envelope;

    /// Called once per round with all messages sent to this node in the
    /// previous round (in sender-id order, per-link FIFO). Messages sent
    /// through `ctx` are delivered next round.
    fn on_round(
        &mut self,
        round: u64,
        inbox: Vec<(NodeId, Self::Message)>,
        ctx: &mut Context<'_, Self::Message>,
    );
}

/// A lockstep synchronous network over [`SyncProtocol`] nodes.
pub struct SyncNetwork<P: SyncProtocol> {
    nodes: Vec<P>,
    knowledge: Vec<BitSet>,
    inboxes: Vec<Vec<(NodeId, P::Message)>>,
    metrics: Metrics,
    round: u64,
}

impl<P: SyncProtocol> SyncNetwork<P> {
    /// Creates a synchronous network with initial knowledge graph `E₀`
    /// (see [`Runner::new`](crate::Runner::new) for conventions).
    pub fn new(nodes: Vec<P>, initial_knowledge: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(nodes.len(), initial_knowledge.len());
        let n = nodes.len();
        let id_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as u64;
        let knowledge = initial_knowledge
            .into_iter()
            .enumerate()
            .map(|(i, known)| {
                let mut set = BitSet::with_capacity(n);
                for v in known {
                    assert!(v.index() < n, "initial edge points outside the network");
                    set.insert(v.index());
                }
                set.insert(i);
                set
            })
            .collect();
        SyncNetwork {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            nodes,
            knowledge,
            metrics: Metrics::new(id_bits),
            round: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether node `u` knows `v`'s id.
    pub fn knows(&self, u: NodeId, v: NodeId) -> bool {
        self.knowledge[u.index()].contains(v.index())
    }

    /// Executes one round. Returns the number of messages sent in it.
    pub fn step_round(&mut self) -> u64 {
        let n = self.nodes.len();
        let mut outgoing: Vec<(NodeId, NodeId, P::Message)> = Vec::new();
        for i in 0..n {
            let me = NodeId::new(i);
            let inbox = std::mem::take(&mut self.inboxes[i]);
            let mut outbox = Vec::new();
            let mut ctx = Context::new(me, &mut outbox);
            self.nodes[i].on_round(self.round, inbox, &mut ctx);
            for (dst, msg) in outbox {
                assert!(
                    self.knowledge[i].contains(dst.index()),
                    "knowledge violation: {me} sent {:?} to {dst} without knowing its id",
                    msg.kind()
                );
                self.metrics
                    .record(msg.kind(), msg.carried_id_count(), msg.aux_bits());
                outgoing.push((me, dst, msg));
            }
        }
        let sent = outgoing.len() as u64;
        // Deliver in (sender, send-order): per-link FIFO and deterministic.
        outgoing.sort_by_key(|(src, _, _)| *src);
        for (src, dst, msg) in outgoing {
            let know = &mut self.knowledge[dst.index()];
            know.insert(src.index());
            msg.for_each_carried_id(&mut |id| {
                know.insert(id.index());
            });
            self.metrics.count(Kind::Deliver);
            self.metrics.observe_causal_depth(self.round + 1);
            self.inboxes[dst.index()].push((src, msg));
        }
        self.round += 1;
        sent
    }

    /// Runs rounds until a round sends no messages and all inboxes are
    /// empty, or `max_rounds` elapse. Returns the number of rounds executed.
    pub fn run(&mut self, max_rounds: u64) -> u64 {
        let start = self.round;
        while self.round - start < max_rounds {
            let sent = self.step_round();
            if sent == 0 && self.inboxes.iter().all(Vec::is_empty) {
                break;
            }
        }
        self.round - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Share(Vec<NodeId>);
    impl Envelope for Share {
        fn kind(&self) -> &'static str {
            "share"
        }
        fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
            self.0.iter().copied().for_each(f);
        }
        fn aux_bits(&self) -> u64 {
            0
        }
    }

    /// Every round, forward everything known to the (single) initial peer.
    struct Gossip {
        peer: Option<NodeId>,
        known: Vec<NodeId>,
        sent: bool,
    }

    impl SyncProtocol for Gossip {
        type Message = Share;
        fn on_round(
            &mut self,
            _round: u64,
            inbox: Vec<(NodeId, Share)>,
            ctx: &mut Context<'_, Share>,
        ) {
            for (from, msg) in inbox {
                if !self.known.contains(&from) {
                    self.known.push(from);
                }
                for id in msg.0 {
                    if !self.known.contains(&id) {
                        self.known.push(id);
                    }
                }
            }
            if !self.sent {
                self.sent = true;
                if let Some(p) = self.peer {
                    ctx.send(p, Share(self.known.clone()));
                }
            }
        }
    }

    #[test]
    fn knowledge_propagates_and_run_terminates() {
        let n = 5;
        let nodes: Vec<Gossip> = (0..n)
            .map(|i| Gossip {
                peer: if i + 1 < n {
                    Some(NodeId::new(i + 1))
                } else {
                    None
                },
                known: vec![NodeId::new(i)],
                sent: false,
            })
            .collect();
        let knowledge = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![NodeId::new(i + 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes, knowledge);
        let rounds = net.run(100);
        assert!(rounds < 100, "should terminate early");
        assert_eq!(net.metrics().total_messages(), (n - 1) as u64);
        // Receiver of each share learns the sender's id.
        for i in 1..n {
            assert!(net.knows(NodeId::new(i), NodeId::new(i - 1)));
        }
    }

    #[test]
    fn round_counter_advances() {
        let mut net = SyncNetwork::new(
            vec![Gossip {
                peer: None,
                known: vec![],
                sent: false,
            }],
            vec![vec![]],
        );
        assert_eq!(net.round(), 0);
        net.step_round();
        assert_eq!(net.round(), 1);
    }
}
