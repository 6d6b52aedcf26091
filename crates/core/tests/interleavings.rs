//! Targeted tests of the protocol's trickiest interleavings — the paths the
//! paper's §4.2–4.4 prose spends the most words on.

use ard_core::{Discovery, Status, Transition, Variant};
use ard_graph::{gen, KnowledgeGraph};
use ard_netsim::{FifoScheduler, LifoScheduler, NodeId, RandomScheduler};

/// Two nodes that know each other search each other simultaneously: exactly
/// one surrenders (the lexicographically smaller), one merge happens.
#[test]
fn symmetric_simultaneous_searches() {
    let graph = KnowledgeGraph::from_edges(2, [(0, 1), (1, 0)]);
    let mut d = Discovery::new(&graph, Variant::Oblivious);
    let mut sched = FifoScheduler::new();
    d.run_all(&mut sched).unwrap();
    d.check_requirements(&graph).unwrap();
    // The higher id always wins a same-phase duel.
    assert_eq!(d.leaders(), vec![NodeId::new(1)]);
    let m = d.runner().metrics();
    assert_eq!(m.kind("info").messages, 1);
    assert_eq!(m.kind("merge accept").messages, 1);
}

/// A search routed through a drained inactive node re-opens it: the `new`
/// flag moves it from `done` back to `more`, the leader re-queries it and
/// discovers the searcher — the §4.2 reverse-edge mechanism end to end.
#[test]
fn reverse_edge_reopens_done_nodes() {
    // 0 knows 1; 2 knows 1. Nothing points at 2: it is only discoverable
    // through the reverse-edge bookkeeping.
    let graph = KnowledgeGraph::from_edges(3, [(0, 1), (2, 1)]);
    let mut d = Discovery::new(&graph, Variant::Oblivious);
    let mut sched = FifoScheduler::new();

    // Stage 1: wake only {0}; it conquers 1 and fully drains it.
    d.runner_mut().wake_now(NodeId::new(0), &mut sched);
    d.run(&mut sched).unwrap();
    let leader01 = d.leader_of(NodeId::new(0));
    assert_eq!(d.runner().node(leader01).done().len(), 2);

    // Stage 2: wake 2; its search passes through the drained node 1.
    d.runner_mut().wake_now(NodeId::new(2), &mut sched);
    d.run(&mut sched).unwrap();
    d.check_requirements(&graph).unwrap();
    let final_leader = d.leaders()[0];
    assert!(d
        .runner()
        .node(final_leader)
        .done()
        .contains(NodeId::new(2)));

    // The idle waiting ex-leader must have gone back to Explore to re-query
    // (the [D2] Wait → Explore edge) unless it was itself conquered first.
    let re_explored = d.runner().nodes().any(|n| {
        n.transitions()
            .any(|t| t == Transition::new(Status::Wait, Status::Explore))
    });
    let leader_changed = final_leader != leader01;
    assert!(
        re_explored || leader_changed,
        "someone must have processed the new-edge notification"
    );
}

/// Merge failures (the conquered → passive edge) occur and still converge:
/// scan seeds for executions that exercise the path and verify each.
#[test]
fn merge_fail_chains_converge() {
    let mut exercised = 0;
    for seed in 0..120 {
        let graph = gen::random_weakly_connected(12, 24, seed % 7);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        d.run_all(&mut RandomScheduler::seeded(seed)).unwrap();
        d.check_requirements(&graph).unwrap();
        if d.runner().metrics().kind("merge fail").messages > 0 {
            exercised += 1;
            // The node that received the merge fail went passive and was
            // later conquered: it must appear in the transition logs.
            let reconquered = d.runner().nodes().any(|n| {
                n.transitions()
                    .any(|t| t == Transition::new(Status::Conquered, Status::Passive))
            });
            assert!(
                reconquered,
                "seed {seed}: merge fail without conquered→passive"
            );
        }
    }
    assert!(
        exercised >= 5,
        "only {exercised} seeds exercised merge failures"
    );
}

/// A passive ex-leader is eventually found and conquered — even when it
/// went passive holding knowledge nobody else had.
#[test]
fn passive_hoarders_are_reconquered() {
    let mut exercised = 0;
    for seed in 0..120 {
        let graph = gen::random_weakly_connected(10, 15, seed % 5);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        d.run_all(&mut RandomScheduler::seeded(seed ^ 0xfeed))
            .unwrap();
        d.check_requirements(&graph).unwrap();
        let had_passive = d.runner().nodes().any(|n| {
            n.transitions()
                .any(|t| t == Transition::new(Status::Passive, Status::Conquered))
        });
        if had_passive {
            exercised += 1;
        }
    }
    assert!(
        exercised >= 20,
        "only {exercised} seeds exercised passive reconquest"
    );
}

/// LIFO scheduling maximally reorders unrelated events; the conquest chain
/// must still produce strictly increasing phases at every inactive node.
#[test]
fn conquer_phases_increase_under_lifo() {
    // Oblivious on a complete graph: maximum conquest churn.
    let graph = gen::complete(16);
    let mut d = Discovery::new(&graph, Variant::Oblivious);
    d.run_all(&mut LifoScheduler::new()).unwrap();
    d.check_requirements(&graph).unwrap();
    // (The strict-increase assertion lives in the node as a debug_assert;
    // reaching quiescence without tripping it is the test.)
    let leader = d.leaders()[0];
    assert!(d.runner().node(leader).phase() >= 2);
}

/// Deterministic schedulers give reproducible executions of the full
/// algorithm (metrics identical across runs).
#[test]
fn discovery_is_deterministic_per_seed() {
    let graph = gen::random_weakly_connected(30, 60, 3);
    let run = |seed: u64| {
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        d.run_all(&mut RandomScheduler::seeded(seed)).unwrap();
        (
            d.leaders(),
            d.runner().metrics().total_messages(),
            d.runner().metrics().total_bits(),
        )
    };
    assert_eq!(run(9), run(9));
    // And different schedules may elect different leaders but always one.
    assert_eq!(run(10).0.len(), 1);
}

/// The two-component duel: two cliques joined by a single directed edge.
/// The bridge is only traversable via the reverse-edge mechanism, whatever
/// the schedule.
#[test]
fn one_way_bridge_between_cliques() {
    let a = gen::complete(6);
    let b = gen::complete(6);
    let mut graph = a.disjoint_union(&b);
    graph.add_edge(NodeId::new(2), NodeId::new(8)); // one-way bridge
    for seed in 0..20 {
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        d.run_all(&mut RandomScheduler::seeded(seed)).unwrap();
        d.check_requirements(&graph).unwrap();
        assert_eq!(d.leaders().len(), 1, "seed {seed}: bridge not crossed");
    }
}

/// Search targets that are themselves leaders (not routed through relays):
/// a two-leader duel where the target is hit directly.
#[test]
fn direct_leader_to_leader_search() {
    // 0 knows 1 and nothing else; wake both: 0 searches 1 while 1 is a
    // leader (no relay in between).
    let graph = KnowledgeGraph::from_edges(2, [(0, 1)]);
    for (name, mut sched) in [
        (
            "fifo",
            Box::new(FifoScheduler::new()) as Box<dyn ard_netsim::Scheduler>,
        ),
        (
            "lifo",
            Box::new(LifoScheduler::new()) as Box<dyn ard_netsim::Scheduler>,
        ),
    ] {
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        d.run_all(sched.as_mut()).unwrap();
        d.check_requirements(&graph)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(d.leaders(), vec![NodeId::new(1)], "{name}");
    }
}

/// Regression test for the [D6] stale-release race: an in-flight release
/// delivered *after* a newer conquer wave must not clobber the relay's
/// pointer. Seed 89 on this topology reproduced the race before the
/// leader-phase staleness guard existed (see EXPERIMENTS.md findings).
#[test]
fn stale_release_does_not_clobber_final_conquer() {
    let graph = gen::random_weakly_connected(12, 24, 89 % 7);
    let mut d = Discovery::new(&graph, Variant::Oblivious);
    d.run_all(&mut RandomScheduler::seeded(89)).unwrap();
    d.check_requirements(&graph).unwrap();
    let leader = d.leaders()[0];
    for node in d.runner().nodes() {
        if node.id() != leader {
            assert_eq!(
                node.next_pointer(),
                leader,
                "{} kept a stale pointer past the final conquer wave",
                node.id()
            );
        }
    }
}

/// Probes issued between staged wake-ups observe monotonically growing
/// snapshots.
#[test]
fn probe_snapshots_grow_monotonically() {
    let graph = gen::path(8);
    let mut d = Discovery::new(&graph, Variant::AdHoc);
    let mut sched = FifoScheduler::new();
    let mut last = 0;
    for v in (0..8).rev() {
        d.runner_mut().wake_now(NodeId::new(v), &mut sched);
        d.run(&mut sched).unwrap();
        let snap = d.probe_blocking(NodeId::new(7), &mut sched).unwrap();
        assert!(
            snap.len() >= last,
            "snapshot shrank: {} < {last}",
            snap.len()
        );
        last = snap.len();
    }
    assert_eq!(last, 8);
}
