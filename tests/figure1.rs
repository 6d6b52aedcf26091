//! Figure 1 coverage: the implementation's observed state transitions are
//! exactly the paper's diagram (plus the wake-up edge) — nothing missing,
//! nothing extra.

use std::collections::BTreeMap;

use asynchronous_resource_discovery::core::{
    Discovery, Status, Transition, Variant, EXPECTED_TRANSITIONS,
};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{LifoScheduler, RandomScheduler, Scheduler};

fn collect(counts: &mut BTreeMap<Transition, u64>, d: &Discovery) {
    for node in d.runner().nodes() {
        for tr in node.transitions() {
            *counts.entry(tr).or_default() += 1;
        }
    }
}

fn sweep() -> BTreeMap<Transition, u64> {
    let mut counts = BTreeMap::new();
    for seed in 0..40u64 {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let graphs = [
                gen::random_weakly_connected(20, 50, seed),
                gen::binary_tree_down(4),
                gen::star_in(10),
                gen::complete(8),
            ];
            for graph in graphs {
                let mut d = Discovery::new(&graph, variant);
                let mut sched: Box<dyn Scheduler> = if seed % 5 == 0 {
                    Box::new(LifoScheduler::new())
                } else {
                    Box::new(RandomScheduler::seeded(seed * 977 + 3))
                };
                d.run_all(sched.as_mut()).expect("livelock");
                collect(&mut counts, &d);
            }
        }
    }
    counts
}

#[test]
fn observed_transitions_match_figure_1_exactly() {
    let counts = sweep();
    for &tr in EXPECTED_TRANSITIONS {
        assert!(
            counts.get(&tr).copied().unwrap_or(0) > 0,
            "expected transition never observed: {tr}"
        );
    }
    for tr in counts.keys() {
        assert!(
            EXPECTED_TRANSITIONS.contains(tr),
            "transition outside Figure 1 observed: {tr}"
        );
    }
}

#[test]
fn terminal_states_are_terminal() {
    let counts = sweep();
    // Inactive is absorbing; Asleep is never re-entered.
    for tr in counts.keys() {
        assert_ne!(tr.from, Status::Inactive, "inactive must be terminal: {tr}");
        assert_ne!(tr.to, Status::Asleep, "asleep is never re-entered: {tr}");
    }
}

#[test]
fn every_node_wakes_exactly_once() {
    let graph = gen::random_weakly_connected(25, 50, 3);
    let mut d = Discovery::new(&graph, Variant::Oblivious);
    d.run_all(&mut RandomScheduler::seeded(4)).unwrap();
    for node in d.runner().nodes() {
        let wakes = node
            .transitions()
            .filter(|t| t.from == Status::Asleep)
            .count();
        assert_eq!(wakes, 1, "node {} woke {wakes} times", node.id());
    }
}

#[test]
fn leaders_end_in_wait_and_losers_in_inactive() {
    let graph = gen::random_weakly_connected(25, 50, 5);
    for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
        let mut d = Discovery::new(&graph, variant);
        d.run_all(&mut RandomScheduler::seeded(6)).unwrap();
        for node in d.runner().nodes() {
            let last = node.transitions().last().unwrap().to;
            if node.is_leader() {
                assert_eq!(last, Status::Wait);
            } else {
                assert_eq!(last, Status::Inactive);
            }
        }
    }
}
