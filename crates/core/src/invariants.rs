//! Checkers for the paper's requirements (§1.2) and execution invariants
//! (§5.1, Lemma 5.1, Lemma 5.10).
//!
//! [`check_requirements`] verifies the quiescent-state requirements; the
//! remaining functions are *always-true* invariants that tests assert after
//! every simulation step.

use std::collections::BTreeSet;

use ard_graph::{components, KnowledgeGraph};
use ard_netsim::{NodeId, Protocol, Runner};

use crate::node::AsArdNode;
use crate::status::Status;
use crate::Variant;

/// Checks the resource-discovery requirements at quiescence:
///
/// 1. exactly one leader per weakly connected component, idle in `Wait`,
///    with every other node `Inactive`;
/// 2. the leader knows the ids of all the nodes in its component
///    (`done` = component, `more`/`unaware`/`unexplored` empty);
/// 3. every non-leader knows its leader — directly (`next == leader`) for
///    the Oblivious/Bounded variants, via the pointer path (3a/3b) for
///    Ad-hoc;
/// 4. liveness bookkeeping: no deferred or relayed messages remain, and for
///    Bounded every node has terminated.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn check_requirements<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
    variant: Variant,
) -> Result<(), String> {
    if !runner.links_empty() {
        return Err("messages still in flight".into());
    }
    for node in runner.nodes().map(AsArdNode::ard) {
        if node.deferred_len() != 0 {
            return Err(format!("{} still has deferred messages", node.id()));
        }
        if node.previous_len() != 0 {
            return Err(format!("{} still relays unanswered requests", node.id()));
        }
        if node.probes_outstanding() != 0 {
            return Err(format!("{} has unanswered probes", node.id()));
        }
    }

    for component in components::weakly_connected_components(graph) {
        let leaders: Vec<NodeId> = component
            .iter()
            .copied()
            .filter(|&v| runner.node(v).ard().is_leader())
            .collect();
        // Requirement 1: exactly one leader.
        if leaders.len() != 1 {
            return Err(format!(
                "component of {} has {} leaders: {:?}",
                component[0],
                leaders.len(),
                leaders
            ));
        }
        let leader = leaders[0];
        let lnode = runner.node(leader).ard();
        if lnode.status() != Status::Wait {
            return Err(format!(
                "leader {leader} not idle in wait: {}",
                lnode.status()
            ));
        }
        if !lnode.more().is_empty() || !lnode.unaware().is_empty() || !lnode.unexplored().is_empty()
        {
            return Err(format!("leader {leader} quiesced with unfinished work"));
        }
        // Requirement 2: the leader knows everyone. Components come sorted,
        // as `done` iterates, so equality is one ascending walk; the
        // difference sets are built for the message only.
        let done = lnode.done();
        if !done.iter().eq(component.iter().copied()) {
            let missing: Vec<_> = component.iter().filter(|&&v| !done.contains(v)).collect();
            let extra: Vec<_> = done
                .iter()
                .filter(|v| component.binary_search(v).is_err())
                .collect();
            return Err(format!(
                "leader {leader} knowledge mismatch: missing {missing:?}, extra {extra:?}"
            ));
        }
        for &v in &component {
            if v == leader {
                continue;
            }
            let node = runner.node(v).ard();
            // Non-leaders end inactive.
            if node.status() != Status::Inactive {
                return Err(format!(
                    "{v} ended in {} instead of inactive",
                    node.status()
                ));
            }
            // Requirement 3 / 3a–3b.
            match variant {
                Variant::Oblivious | Variant::Bounded => {
                    if node.next_pointer() != leader {
                        return Err(format!(
                            "{v} points at {} instead of its leader {leader}",
                            node.next_pointer()
                        ));
                    }
                }
                Variant::AdHoc => {
                    if resolve_leader(runner, v)? != leader {
                        return Err(format!("{v}'s pointer path does not reach {leader}"));
                    }
                }
            }
            if variant == Variant::Bounded && !node.is_terminated() {
                return Err(format!("{v} did not terminate in the bounded variant"));
            }
        }
        if variant == Variant::Bounded && !lnode.is_terminated() {
            return Err(format!(
                "leader {leader} did not terminate in the bounded variant"
            ));
        }
    }
    Ok(())
}

/// Requirement 1 restricted to the *honest survivors*: among each
/// component's nodes outside `excluded` (Byzantine nodes, departed nodes),
/// exactly one is in a leader state. Components with no honest member are
/// skipped.
///
/// This is the single-leader cell of the Byzantine guarantee-survival
/// matrix: it deliberately drops the full checker's quiescence bookkeeping
/// (requirement 4) — forged traffic and mid-protocol departures can
/// legitimately strand deferred messages and relays, which the matrix
/// reports as degradation separately.
///
/// # Errors
///
/// Returns a description of the first component without a unique honest
/// leader.
pub(crate) fn check_survivor_single_leader<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
    excluded: &BTreeSet<NodeId>,
) -> Result<(), String> {
    for component in components::weakly_connected_components(graph) {
        let honest: Vec<NodeId> = component
            .iter()
            .copied()
            .filter(|v| !excluded.contains(v))
            .collect();
        if honest.is_empty() {
            continue;
        }
        let leaders: Vec<NodeId> = honest
            .iter()
            .copied()
            .filter(|&v| runner.node(v).ard().is_leader())
            .collect();
        if leaders.len() != 1 {
            return Err(format!(
                "component of {} has {} honest leaders: {:?}",
                component[0],
                leaders.len(),
                leaders
            ));
        }
    }
    Ok(())
}

/// Requirement 2 restricted to the *honest survivors*: each component's
/// unique honest leader holds every other honest member in its cluster sets
/// (`more ∪ done ∪ unaware`). Extra entries — Byzantine nodes, departed
/// nodes, fabricated ids — are tolerated: knowing too much is not a safety
/// violation, claiming members you never discovered is.
///
/// # Errors
///
/// Returns the first component whose honest leader is missing an honest
/// member (or which has no unique honest leader, without which "the leader
/// knows all" is not even well-posed).
pub(crate) fn check_survivor_leader_knows_all<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
    excluded: &BTreeSet<NodeId>,
) -> Result<(), String> {
    for component in components::weakly_connected_components(graph) {
        let honest: Vec<NodeId> = component
            .iter()
            .copied()
            .filter(|v| !excluded.contains(v))
            .collect();
        if honest.is_empty() {
            continue;
        }
        let leaders: Vec<NodeId> = honest
            .iter()
            .copied()
            .filter(|&v| runner.node(v).ard().is_leader())
            .collect();
        let &[leader] = leaders.as_slice() else {
            return Err(format!(
                "component of {}: leader-knows-all undefined with {} honest leaders",
                component[0],
                leaders.len()
            ));
        };
        let lnode = runner.node(leader).ard();
        for &v in &honest {
            if v == leader {
                continue;
            }
            if !(lnode.done().contains(v)
                || lnode.more().contains(v)
                || lnode.unaware().contains(v))
            {
                return Err(format!(
                    "honest leader {leader} does not know honest member {v}"
                ));
            }
        }
    }
    Ok(())
}

/// Follows `next` pointers from `v` to a fixed point.
///
/// # Errors
///
/// Returns an error if the chain cycles (forest invariant violated).
pub(crate) fn resolve_leader<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    v: NodeId,
) -> Result<NodeId, String> {
    let mut cur = v;
    for _ in 0..=runner.len() {
        let next = runner.node(cur).ard().next_pointer();
        if next == cur {
            return Ok(cur);
        }
        cur = next;
    }
    Err(format!("next-pointer chain from {v} cycles"))
}

/// Lemma 5.1: at any stage of execution, every weakly connected component
/// retains at least one node that can still become (or is) a leader —
/// i.e. a node whose state is a leader state or `Asleep`.
///
/// # Errors
///
/// Returns the offending component's smallest member on violation.
pub(crate) fn check_leader_exists<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
) -> Result<(), String> {
    for component in components::weakly_connected_components(graph) {
        let ok = component.iter().any(|&v| {
            let s = runner.node(v).ard().status();
            s.is_leader() || s == Status::Asleep
        });
        if !ok {
            return Err(format!("component of {} lost all leaders", component[0]));
        }
    }
    Ok(())
}

/// The `next` pointers always form a forest: following them from any node
/// terminates at a self-pointing root.
///
/// # Errors
///
/// Returns the node whose chain cycles.
pub(crate) fn check_forest<P: Protocol + AsArdNode>(runner: &Runner<P>) -> Result<(), String> {
    for v in runner.ids() {
        resolve_leader(runner, v)?;
    }
    Ok(())
}

/// Lemma 5.10's invariant: every node's cluster satisfies
/// `|more| + |done| + |unaware| < 2^(phase+1)`.
///
/// # Errors
///
/// Returns the offending node.
pub(crate) fn check_phase_bound<P: Protocol + AsArdNode>(runner: &Runner<P>) -> Result<(), String> {
    for node in runner.nodes().map(AsArdNode::ard) {
        let size = (node.more().len() + node.done().len() + node.unaware().len()) as u64;
        let bound = 1u64 << (node.phase() + 1);
        // Only meaningful while the node owns its sets (leaders and
        // transitional conquered nodes; inactive nodes shipped theirs).
        if node.status() != Status::Inactive && size >= bound {
            return Err(format!(
                "{}: cluster size {size} ≥ 2^(phase+1) = {bound}",
                node.id()
            ));
        }
    }
    Ok(())
}

/// Phases never decrease and ids never collide: leaders' `(phase, id)` pairs
/// are unique among current leaders of one component. (Uniqueness of ids is
/// structural; this checks the pair ordering sanity used for conquests.)
///
/// # Errors
///
/// Returns a description of the duplicate pair on violation.
pub(crate) fn check_leader_pairs_distinct<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
) -> Result<(), String> {
    for component in components::weakly_connected_components(graph) {
        let mut pairs = BTreeSet::new();
        for &v in &component {
            let node = runner.node(v).ard();
            if node.is_leader() && !pairs.insert((node.phase(), node.id())) {
                return Err(format!(
                    "duplicate leader pair ({}, {})",
                    node.phase(),
                    node.id()
                ));
            }
        }
    }
    Ok(())
}

/// Runs every always-true invariant; convenient per-step hook for tests.
///
/// # Errors
///
/// Propagates the first violation.
pub fn check_step_invariants<P: Protocol + AsArdNode>(
    runner: &Runner<P>,
    graph: &KnowledgeGraph,
) -> Result<(), String> {
    check_leader_exists(runner, graph)?;
    check_forest(runner)?;
    check_phase_bound(runner)?;
    check_leader_pairs_distinct(runner, graph)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discovery, Variant};
    use ard_graph::gen;
    use ard_netsim::RandomScheduler;

    /// Step a discovery one event at a time, asserting the always-true
    /// invariants after each step.
    fn run_with_invariant_checks(graph: &KnowledgeGraph, variant: Variant, seed: u64) {
        let mut d = Discovery::new(graph, variant);
        let mut sched = RandomScheduler::seeded(seed);
        d.enqueue_wake_all(&mut sched);
        let mut steps = 0u64;
        while d.runner_mut().step(&mut sched) {
            steps += 1;
            assert!(steps < 1_000_000, "livelock");
            check_step_invariants(d.runner(), graph).unwrap_or_else(|e| {
                panic!("invariant violated after step {steps} (seed {seed}): {e}")
            });
        }
        check_requirements(d.runner(), graph, variant).unwrap();
    }

    #[test]
    fn invariants_hold_stepwise_random_graphs() {
        for seed in 0..8 {
            let graph = gen::random_weakly_connected(12, 20, seed);
            run_with_invariant_checks(&graph, Variant::Oblivious, seed);
            run_with_invariant_checks(&graph, Variant::Bounded, seed + 100);
            run_with_invariant_checks(&graph, Variant::AdHoc, seed + 200);
        }
    }

    #[test]
    fn invariants_hold_stepwise_extreme_shapes() {
        for (name, graph) in [
            ("path", gen::path(10)),
            ("ring", gen::ring(10)),
            ("star_out", gen::star_out(10)),
            ("star_in", gen::star_in(10)),
            ("tree", gen::binary_tree_down(4)),
            ("complete", gen::complete(8)),
        ] {
            for seed in 0..3 {
                for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
                    let _ = name;
                    run_with_invariant_checks(&graph, variant, seed);
                }
            }
        }
    }

    #[test]
    fn requirement_checker_rejects_in_flight_messages() {
        let graph = gen::path(4);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        let mut sched = RandomScheduler::seeded(0);
        d.enqueue_wake_all(&mut sched);
        // Step only a few events: messages are still in flight.
        for _ in 0..3 {
            d.runner_mut().step(&mut sched);
        }
        assert!(check_requirements(d.runner(), &graph, Variant::Oblivious).is_err());
    }

    #[test]
    fn requirement_checker_names_the_ids_a_leader_should_not_know() {
        let mut d = Discovery::new(&gen::path(4), Variant::Oblivious);
        let outcome = d.run_all(&mut RandomScheduler::seeded(0)).unwrap();
        // Judge the run against a graph whose first component is only the
        // leader and one neighbour: the other two ids are extra.
        let leader = outcome.leaders[0];
        let pair = [0, leader.index().max(1)];
        let smaller = KnowledgeGraph::from_edges(4, [(pair[0], pair[1])]);
        let extra: Vec<NodeId> = (0..4)
            .filter(|v| !pair.contains(v))
            .map(NodeId::new)
            .collect();
        assert_eq!(
            check_requirements(d.runner(), &smaller, Variant::Oblivious),
            Err(format!(
                "leader {leader} knowledge mismatch: missing [], extra {extra:?}"
            ))
        );
    }
}
