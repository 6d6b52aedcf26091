//! The Theorem 1 adversary: subtree freezing on rooted binary trees.
//!
//! The proof's induction stalls "all messages sent by the root until both
//! subtrees have no more messages to send", recursively. Operationally that
//! is a [`Scheduler`] that holds every message whose *source* is a frozen
//! internal node and thaws internal nodes bottom-up, one at a time, each
//! time the rest of the network quiesces. Before the root speaks, each
//! subtree must believe it is the whole component and elect a leader that
//! knows all of it; every merge then forces the winner to re-inform the
//! loser's nodes, which is where the `Σ level · n/2` ≈ `0.5·n·log n`
//! messages come from.

use std::collections::VecDeque;

use ard_core::{Discovery, Variant};
use ard_graph::gen;
use ard_netsim::{Choice, Metrics, NodeId, Scheduler, SendToken};

/// A scheduler that holds all messages originating at *frozen* nodes and
/// thaws nodes one by one (in the given order) whenever every deliverable
/// event has been consumed.
///
/// This generalizes the Theorem 1 adversary to any freeze set/order; the
/// tree experiment freezes internal tree nodes in bottom-up order.
#[derive(Debug)]
pub struct FreezeScheduler {
    frozen: Vec<bool>,
    thaw_order: Vec<NodeId>,
    next_thaw: usize,
    enabled: VecDeque<Choice>,
    held: Vec<VecDeque<Choice>>,
    held_total: usize,
}

impl FreezeScheduler {
    /// Creates a scheduler for `n` nodes where every node in `thaw_order`
    /// starts frozen and thaws in that order.
    pub fn new(n: usize, thaw_order: Vec<NodeId>) -> Self {
        let mut frozen = vec![false; n];
        for &v in &thaw_order {
            assert!(!frozen[v.index()], "node {v} listed twice in thaw order");
            frozen[v.index()] = true;
        }
        FreezeScheduler {
            frozen,
            thaw_order,
            next_thaw: 0,
            enabled: VecDeque::new(),
            held: (0..n).map(|_| VecDeque::new()).collect(),
            held_total: 0,
        }
    }

    fn thaw_next(&mut self) -> bool {
        let Some(&v) = self.thaw_order.get(self.next_thaw) else {
            return false;
        };
        self.next_thaw += 1;
        self.frozen[v.index()] = false;
        let released = std::mem::take(&mut self.held[v.index()]);
        self.held_total -= released.len();
        self.enabled.extend(released);
        true
    }
}

impl Scheduler for FreezeScheduler {
    fn note_wake(&mut self, node: NodeId) {
        // Wake-ups are local events, not messages: never frozen.
        self.enabled.push_back(Choice::Wake(node));
    }

    fn note_send(&mut self, token: SendToken) {
        let choice = Choice::Deliver {
            src: token.src,
            dst: token.dst,
        };
        if self.frozen[token.src.index()] {
            self.held[token.src.index()].push_back(choice);
            self.held_total += 1;
        } else {
            self.enabled.push_back(choice);
        }
    }

    fn note_tick(&mut self, node: NodeId) {
        // Ticks are local events, like wake-ups: never frozen.
        self.enabled.push_back(Choice::Tick(node));
    }

    fn choose(&mut self) -> Option<Choice> {
        loop {
            if let Some(c) = self.enabled.pop_front() {
                return Some(c);
            }
            if !self.thaw_next() {
                return None;
            }
        }
    }

    fn pending(&self) -> usize {
        self.enabled.len() + self.held_total
    }
}

/// Result of one adversarial tree run.
#[derive(Clone, Debug)]
pub struct TreeRunResult {
    /// Tree depth `i` (so `n = 2^i − 1`).
    pub levels: u32,
    /// Number of nodes.
    pub n: u64,
    /// Total messages the algorithm was forced to send.
    pub messages: u64,
    /// The analytic lower bound `i·2^(i−1) − 2`.
    pub bound: u64,
    /// Full metrics of the run.
    pub metrics: Metrics,
}

/// The Theorem 1 bound for `T(levels)`: `levels · 2^(levels−1) − 2`.
pub fn theorem1_bound(levels: u32) -> u64 {
    (levels as u64) * (1u64 << (levels - 1)) - 2
}

/// Internal nodes of `T(levels)` in bottom-up (deepest first) order — the
/// thaw order of the proof's recursion.
pub(crate) fn bottom_up_internal_nodes(levels: u32) -> Vec<NodeId> {
    let n = (1usize << levels) - 1;
    let first_leaf = n / 2;
    // Heap layout: node i is at depth ⌊log₂(i+1)⌋; internal nodes are
    // 0..first_leaf. Reverse index order = deepest first.
    (0..first_leaf).rev().map(NodeId::new).collect()
}

/// Runs the generic (Oblivious) algorithm on `T(levels)` under the
/// subtree-freezing adversary and returns the forced message count.
///
/// # Panics
///
/// Panics if the run livelocks or ends violating the paper's requirements
/// (both would be implementation bugs).
pub fn run(levels: u32) -> TreeRunResult {
    run_variant(levels, Variant::Oblivious)
}

/// As [`run`], for an arbitrary variant (the Theorem 1 bound is a statement
/// about the Oblivious problem; other variants are informative only).
pub(crate) fn run_variant(levels: u32, variant: Variant) -> TreeRunResult {
    assert!(levels >= 2, "the bound needs at least 3 nodes");
    let graph = gen::binary_tree_down(levels);
    let n = graph.len() as u64;
    let mut sched = FreezeScheduler::new(graph.len(), bottom_up_internal_nodes(levels));
    let mut discovery = Discovery::new(&graph, variant);
    discovery
        .run_all(&mut sched)
        .expect("adversarial tree run livelocked");
    discovery
        .check_requirements(&graph)
        .expect("adversarial tree run violated requirements");
    let metrics = discovery.runner().metrics().clone();
    TreeRunResult {
        levels,
        n,
        messages: metrics.total_messages(),
        bound: theorem1_bound(levels),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_values() {
        assert_eq!(theorem1_bound(2), 2);
        assert_eq!(theorem1_bound(3), 10);
        assert_eq!(theorem1_bound(4), 30);
        assert_eq!(theorem1_bound(10), 10 * 512 - 2);
    }

    #[test]
    fn bottom_up_order_is_deepest_first() {
        let order = bottom_up_internal_nodes(3);
        // Internal nodes of a 7-node heap: 0, 1, 2; deepest (1, 2) first.
        assert_eq!(order, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
    }

    #[test]
    fn freeze_scheduler_holds_and_thaws() {
        let mut s = FreezeScheduler::new(2, vec![NodeId::new(0)]);
        s.note_send(SendToken {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            seq: 0,
            kind: "x",
        });
        s.note_send(SendToken {
            src: NodeId::new(1),
            dst: NodeId::new(0),
            seq: 1,
            kind: "x",
        });
        // The unfrozen node's message comes first even though sent second.
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(1),
                dst: NodeId::new(0)
            })
        );
        // Then thawing releases the held message.
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
        assert_eq!(s.choose(), None);
    }

    #[test]
    fn adversary_forces_the_theorem_1_bound() {
        for levels in 2..=8 {
            let result = run(levels);
            assert!(
                result.messages >= result.bound,
                "T({levels}): forced only {} messages, bound {}",
                result.messages,
                result.bound
            );
        }
    }

    #[test]
    fn forced_messages_grow_superlinearly() {
        let small = run(5);
        let large = run(10);
        let small_rate = small.messages as f64 / small.n as f64;
        let large_rate = large.messages as f64 / large.n as f64;
        assert!(
            large_rate > small_rate + 1.0,
            "per-node cost should grow with depth: {small_rate:.2} vs {large_rate:.2}"
        );
    }
}
