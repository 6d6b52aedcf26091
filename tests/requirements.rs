//! Cross-crate integration tests: the §1.2 requirements hold for every
//! variant, across topologies and schedulers.

use asynchronous_resource_discovery::core::{invariants, Discovery, Variant};
use asynchronous_resource_discovery::graph::{components, gen, KnowledgeGraph};
use asynchronous_resource_discovery::netsim::{
    FifoScheduler, LifoScheduler, NodeId, RandomScheduler, Scheduler,
};

const VARIANTS: [Variant; 3] = [Variant::Oblivious, Variant::Bounded, Variant::AdHoc];

fn run_and_check(graph: &KnowledgeGraph, variant: Variant, sched: &mut dyn Scheduler) -> Discovery {
    let mut d = Discovery::new(graph, variant);
    d.run_all(sched).expect("livelock");
    d.check_requirements(graph)
        .unwrap_or_else(|e| panic!("{variant} on {graph:?}: {e}"));
    d
}

#[test]
fn all_variants_on_all_topologies_fifo() {
    let topologies: Vec<(&str, KnowledgeGraph)> = vec![
        ("singleton", KnowledgeGraph::new(1)),
        ("pair", gen::path(2)),
        ("path", gen::path(20)),
        ("ring", gen::ring(20)),
        ("star_out", gen::star_out(20)),
        ("star_in", gen::star_in(20)),
        ("tree", gen::binary_tree_down(5)),
        ("complete", gen::complete(12)),
        ("random", gen::random_weakly_connected(30, 60, 1)),
    ];
    for (name, graph) in &topologies {
        for variant in VARIANTS {
            let _ = name;
            run_and_check(graph, variant, &mut FifoScheduler::new());
        }
    }
}

#[test]
fn all_variants_survive_lifo_reordering() {
    for variant in VARIANTS {
        for graph in [
            gen::path(15),
            gen::ring(15),
            gen::random_weakly_connected(25, 50, 2),
        ] {
            run_and_check(&graph, variant, &mut LifoScheduler::new());
        }
    }
}

#[test]
fn many_random_schedules() {
    let graph = gen::random_weakly_connected(40, 100, 9);
    for variant in VARIANTS {
        for seed in 0..25 {
            run_and_check(&graph, variant, &mut RandomScheduler::seeded(seed));
        }
    }
}

#[test]
fn multi_component_networks_elect_one_leader_each() {
    for seed in 0..5 {
        let graph = gen::random_multi_component(4, 9, 12, seed);
        for variant in VARIANTS {
            let d = run_and_check(&graph, variant, &mut RandomScheduler::seeded(seed + 50));
            assert_eq!(d.leaders().len(), 4);
        }
    }
}

#[test]
fn isolated_nodes_lead_themselves() {
    // No edges at all: every node is its own component and leader.
    let graph = KnowledgeGraph::new(7);
    for variant in VARIANTS {
        let d = run_and_check(&graph, variant, &mut FifoScheduler::new());
        assert_eq!(d.leaders().len(), 7);
    }
}

#[test]
fn staggered_wakeups_match_simultaneous() {
    // Wake nodes one at a time, running to quiescence in between — the
    // algorithm must still satisfy the requirements (no global start).
    let graph = gen::random_weakly_connected(20, 40, 4);
    for variant in VARIANTS {
        let mut d = Discovery::new(&graph, variant);
        let mut sched = FifoScheduler::new();
        for v in 0..20 {
            d.runner_mut().wake_now(NodeId::new(v), &mut sched);
            d.run(&mut sched).expect("livelock");
        }
        d.check_requirements(&graph).unwrap();
    }
}

#[test]
fn sleeping_region_is_woken_by_messages() {
    // Only wake node 0 of a directed path: discovery must cascade through
    // message-triggered wake-ups and still satisfy the requirements.
    let graph = gen::path(12);
    for variant in VARIANTS {
        let mut d = Discovery::new(&graph, variant);
        let mut sched = FifoScheduler::new();
        d.runner_mut().wake_now(NodeId::new(0), &mut sched);
        d.run(&mut sched).expect("livelock");
        // Nodes with no inbound knowledge may stay asleep only if
        // unreachable; on a path from node 0 everyone is reachable.
        assert!(d.runner().ids().all(|v| d.runner().is_awake(v)));
        d.check_requirements(&graph).unwrap();
    }
}

#[test]
fn stepwise_invariants_hold_on_adversarial_lifo() {
    for variant in VARIANTS {
        let graph = gen::random_weakly_connected(15, 30, 3);
        let mut d = Discovery::new(&graph, variant);
        let mut sched = LifoScheduler::new();
        d.enqueue_wake_all(&mut sched);
        while d.runner_mut().step(&mut sched) {
            invariants::check_step_invariants(d.runner(), &graph).unwrap();
        }
        d.check_requirements(&graph).unwrap();
    }
}

#[test]
fn leader_is_the_lexicographic_maximum_on_equal_phases() {
    // On a complete graph the winner must be a node that can never lose a
    // comparison; with FIFO scheduling from a cold start this is always
    // resolved consistently, and the final leader's (phase, id) dominates.
    let graph = gen::complete(10);
    let d = run_and_check(&graph, Variant::Oblivious, &mut FifoScheduler::new());
    let leader = d.leaders()[0];
    let leader_node = d.runner().node(leader);
    for v in d.runner().nodes() {
        assert!(
            (leader_node.phase(), leader_node.id()) >= (v.phase(), v.id()),
            "leader {leader} does not dominate {}",
            v.id()
        );
    }
}

#[test]
fn quiescent_components_are_knowledge_closed() {
    // After discovery, the leader's done set equals the weak component even
    // when components have very different shapes.
    let a = gen::path(6);
    let b = gen::complete(5);
    let c = gen::star_in(4);
    let graph = a.disjoint_union(&b).disjoint_union(&c);
    let d = run_and_check(&graph, Variant::AdHoc, &mut RandomScheduler::seeded(12));
    let comps = components::weakly_connected_components(&graph);
    assert_eq!(d.leaders().len(), comps.len());
    for leader in d.leaders() {
        let members = d.runner().node(leader).done();
        let comp = comps.iter().find(|c| c.contains(&leader)).unwrap();
        assert_eq!(members.len(), comp.len());
    }
}
