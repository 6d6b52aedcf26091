//! The Lemma 3.1 / Theorem 2 reduction: Union–Find ⇒ Ad-hoc resource
//! discovery.
//!
//! Given a sequence of `n − 1` unions and `m` finds over `n` sets, build a
//! knowledge graph:
//!
//! * one node `sᵢ` per set (no initial edges);
//! * one node `u` per union `U(i, j)`, with edges `u → sᵢ` and `u → sⱼ`;
//! * one node `f` per find `F(i)`, with one edge `f → sᵢ`;
//!
//! then wake the operation nodes **in sequence order, running the algorithm
//! to quiescence between wake-ups**. The Ad-hoc requirements force every
//! `u` wake-up to end with `sᵢ` and `sⱼ` under one leader (a union) and
//! every `f` wake-up to reach the current leader (a find). An
//! `h(N)`-message algorithm therefore yields an `h(2n−1+m)`-time union-find
//! algorithm on a separation-property pointer machine, and Tarjan's
//! `Ω(N·α)` bound transfers.

use ard_core::{Discovery, Variant};
use ard_graph::KnowledgeGraph;
use ard_netsim::{FifoScheduler, Metrics, NodeId};
use ard_union_find::{alpha, Op, OpSequence};

/// The compiled reduction instance: the graph plus the staged wake order.
#[derive(Clone, Debug)]
pub struct ReductionInstance {
    /// The knowledge graph (`sᵢ` nodes first, then one node per op).
    pub graph: KnowledgeGraph,
    /// The operation nodes, in sequence order.
    pub wake_order: Vec<NodeId>,
    /// Universe size `n` of the original union-find instance.
    pub n_sets: usize,
}

/// Compiles an operation sequence into its knowledge graph and wake order.
pub fn compile(seq: &OpSequence) -> ReductionInstance {
    let n = seq.n();
    let mut graph = KnowledgeGraph::new(n);
    let mut wake_order = Vec::with_capacity(seq.len());
    for op in seq.ops() {
        let node = graph.add_node();
        match *op {
            Op::Union(i, j) => {
                graph.add_edge(node, NodeId::new(i));
                graph.add_edge(node, NodeId::new(j));
            }
            Op::Find(i) => {
                graph.add_edge(node, NodeId::new(i));
            }
        }
        wake_order.push(node);
    }
    ReductionInstance {
        graph,
        wake_order,
        n_sets: n,
    }
}

/// Result of executing the reduction.
#[derive(Clone, Debug)]
pub struct ReductionOutcome {
    /// Total network size `N = 2n − 1 + m` (sets + ops).
    pub network_size: u64,
    /// Messages the Ad-hoc algorithm sent over the whole staged execution.
    pub messages: u64,
    /// `N · α(N, N)` — the shape the count should track (Theorems 2 and 6).
    pub n_alpha: u64,
    /// Full metrics.
    pub metrics: Metrics,
}

/// Executes the reduction for `seq`: wakes each operation node in order,
/// running the Ad-hoc algorithm to quiescence in between, and verifies that
/// every union actually unified its arguments' leaders (the simulation
/// faithfulness argument of Lemma 3.1).
///
/// # Panics
///
/// Panics if the execution livelocks or an operation fails to simulate —
/// both would be implementation bugs.
pub fn run(seq: &OpSequence) -> ReductionOutcome {
    run_with_config(seq, ard_core::Config::paper())
}

/// As [`run`], with an explicit (possibly ablated) configuration — used by
/// the path-compression ablation, for which the staged find-heavy workload
/// is the discriminating case.
///
/// # Panics
///
/// As [`run`].
pub fn run_with_config(seq: &OpSequence, config: ard_core::Config) -> ReductionOutcome {
    let instance = compile(seq);
    let mut discovery = Discovery::with_config(&instance.graph, Variant::AdHoc, config);
    let mut sched = FifoScheduler::new();
    for (op, &node) in seq.ops().iter().zip(&instance.wake_order) {
        discovery.runner_mut().wake_now(node, &mut sched);
        discovery
            .run(&mut sched)
            .expect("reduction stage livelocked");
        match *op {
            Op::Union(i, j) => {
                let li = discovery.leader_of(NodeId::new(i));
                let lj = discovery.leader_of(NodeId::new(j));
                assert_eq!(li, lj, "U({i},{j}) left two leaders: {li} vs {lj}");
            }
            Op::Find(i) => {
                // The find node must have reached a leader that knows it —
                // requirement 2 means the leader's `done` will contain it at
                // quiescence; spot-check via pointer resolution.
                let leader = discovery.leader_of(node);
                assert_eq!(leader, discovery.leader_of(NodeId::new(i)));
            }
        }
    }
    // Any never-woken set nodes are singleton components; wake them so the
    // final state satisfies the global requirements.
    discovery
        .run_all(&mut sched)
        .expect("final stage livelocked");
    discovery
        .check_requirements(&instance.graph.clone())
        .expect("reduction violated requirements");
    let metrics = discovery.runner().metrics().clone();
    let network_size = instance.graph.len() as u64;
    ReductionOutcome {
        network_size,
        messages: metrics.total_messages(),
        n_alpha: network_size * alpha(network_size, network_size),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_shapes_the_graph() {
        let seq = OpSequence::new(3, vec![Op::Union(0, 1), Op::Find(1), Op::Union(2, 0)]);
        let inst = compile(&seq);
        // 3 sets + 3 ops.
        assert_eq!(inst.graph.len(), 6);
        // 2 + 1 + 2 edges.
        assert_eq!(inst.graph.edge_count(), 5);
        assert_eq!(
            inst.wake_order,
            vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)]
        );
    }

    /// `compile` adds each operation node and then only edges out of it,
    /// while it is the graph's last node: the flat graph's append path, so
    /// 10⁴ operations build in O(N + m) where edges out of earlier nodes
    /// would cost O(N + m) each.
    #[test]
    fn compile_only_appends() {
        let seq = OpSequence::random(5_001, 5_000, 3);
        assert_eq!(seq.len(), 10_000);
        let inst = compile(&seq);
        let n = seq.n();
        assert_eq!(inst.graph.len(), n + seq.len());
        for set in 0..n {
            assert_eq!(inst.graph.out_degree(NodeId::new(set)), 0);
        }
        for (k, (op, &node)) in seq.ops().iter().zip(&inst.wake_order).enumerate() {
            // The k-th added node, so the last one while its edges went in.
            assert_eq!(node.index(), n + k);
            let want: Vec<NodeId> = match *op {
                Op::Union(i, j) => vec![NodeId::new(i), NodeId::new(j)],
                Op::Find(i) => vec![NodeId::new(i)],
            };
            assert_eq!(inst.graph.out_edges(node), want);
        }
    }

    #[test]
    fn reduction_simulates_small_sequences() {
        let seq = OpSequence::new(
            4,
            vec![
                Op::Union(0, 1),
                Op::Find(0),
                Op::Union(2, 3),
                Op::Union(1, 3),
                Op::Find(2),
            ],
        );
        let out = run(&seq);
        assert_eq!(out.network_size, 4 + 5);
        assert!(out.messages > 0);
    }

    #[test]
    fn reduction_simulates_random_sequences() {
        for seed in 0..4 {
            let seq = OpSequence::random(24, 12, seed);
            let out = run(&seq);
            // N = 2n − 1 + m.
            assert_eq!(out.network_size, 2 * 24 - 1 + 12);
            assert!(out.messages > 0);
        }
    }

    #[test]
    fn message_cost_stays_near_linear() {
        // The point of Theorem 2 + Theorem 6 together: cost per operation is
        // (inverse-Ackermann) constant-ish, not logarithmic.
        let cost_per_node = |n: usize| {
            let seq = OpSequence::random(n, n / 2, 7);
            let out = run(&seq);
            out.messages as f64 / out.network_size as f64
        };
        let small = cost_per_node(32);
        let large = cost_per_node(256);
        assert!(
            large < small * 2.0,
            "per-node cost should be ~flat: {small:.2} → {large:.2}"
        );
    }

    #[test]
    fn adversarial_sequences_also_stay_near_linear() {
        let seq = OpSequence::adversarial_deep(64, 16);
        let out = run(&seq);
        // Generous constant: measured runs sit well below 16·N·(α+1).
        assert!(out.messages <= 16 * (out.n_alpha + out.network_size));
    }
}
