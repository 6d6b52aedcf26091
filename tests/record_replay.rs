//! Acceptance: the record→replay round-trip is *exact*. For every scheduler
//! family and n ∈ {8, 32}, a recorded run and its strict replay on a fresh
//! network produce identical `Metrics` totals (compared via the rendered
//! metrics table, which covers every counter) and identical `Trace` event
//! sequences. This is the property that makes a checked-in schedule file a
//! faithful reproduction of the execution that produced it.

use asynchronous_resource_discovery::core::{Discovery, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{
    BoundedDelayScheduler, FifoScheduler, LifoScheduler, RandomScheduler, RecordingScheduler,
    ReplayScheduler, Schedule, Scheduler,
};

fn family(n: usize) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("lifo", Box::new(LifoScheduler::new())),
        ("random", Box::new(RandomScheduler::seeded(n as u64))),
        (
            "bounded:3",
            Box::new(BoundedDelayScheduler::new(3, n as u64 + 1)),
        ),
        (
            "bounded:9",
            Box::new(BoundedDelayScheduler::new(9, n as u64 + 2)),
        ),
    ]
}

fn record_then_replay(n: usize, label: &str, sched: Box<dyn Scheduler>, variant: Variant) {
    let graph = gen::random_weakly_connected(n, 2 * n, 17);
    let mut original = Discovery::new(&graph, variant);
    original.runner_mut().enable_trace();
    let mut recorder = RecordingScheduler::new(sched);
    let recorded = original
        .run_all(&mut recorder)
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
    let schedule = recorder.into_schedule();
    assert_eq!(
        schedule.len() as u64, recorded.steps,
        "{label} n={n}: one recorded choice per executed step"
    );

    // The text format must carry the schedule losslessly.
    let reparsed = Schedule::parse(&schedule.to_text())
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
    assert_eq!(reparsed, schedule, "{label} n={n}: text round-trip");

    let mut fresh = Discovery::new(&graph, variant);
    fresh.runner_mut().enable_trace();
    let replayed = fresh
        .run_all(&mut ReplayScheduler::strict(&reparsed))
        .unwrap();

    assert_eq!(replayed.steps, recorded.steps, "{label} n={n}: steps");
    assert_eq!(replayed.leaders, recorded.leaders, "{label} n={n}: leaders");
    assert_eq!(
        replayed.leader_of, recorded.leader_of,
        "{label} n={n}: leader_of"
    );
    assert_eq!(
        format!("{}", replayed.metrics),
        format!("{}", recorded.metrics),
        "{label} n={n}: full metrics table"
    );
    assert_eq!(
        fresh.runner().trace().unwrap().events(),
        original.runner().trace().unwrap().events(),
        "{label} n={n}: trace event sequence"
    );
    fresh
        .check_requirements(&graph)
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
}

#[test]
fn round_trip_is_exact_for_every_scheduler_family() {
    for n in [8usize, 32] {
        for (label, sched) in family(n) {
            record_then_replay(n, label, sched, Variant::AdHoc);
        }
    }
}

#[test]
fn round_trip_holds_across_variants() {
    for variant in [Variant::Oblivious, Variant::Bounded] {
        record_then_replay(8, "random", Box::new(RandomScheduler::seeded(99)), variant);
        record_then_replay(
            32,
            "bounded:5",
            Box::new(BoundedDelayScheduler::new(5, 4)),
            variant,
        );
    }
}
