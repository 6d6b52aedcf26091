//! Record → strict replay of a discovery under link faults and crashes:
//! `ard_core::record` over `drop=0.1,dup=0.05,crash=3,seed=1` (the plan of
//! the `faulty-16k` benchmark workload), then `ReplayScheduler::strict` on
//! the network the schedule's metadata describes. The replay must execute
//! every recorded choice, leave no token pending and end in the same
//! outcome.
//!
//! The n = 1,024 run is tier 1. The full n = 16,384 run (1.37 M choices)
//! is `--ignored`; `scripts/verify.sh` runs it in release mode.

use asynchronous_resource_discovery::core::{record, run_checked, Plans, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{FaultPlan, RandomScheduler, ReplayScheduler};

fn assert_strict_replay_reproduces(n: usize) {
    // `random:n=N,extra=2N,seed=1` under `--faults drop=0.1,dup=0.05,crash=3,seed=1`.
    let graph = gen::random_weakly_connected(n, 2 * n, 1);
    let plans = Plans {
        faults: Some(
            FaultPlan::new(1)
                .with_drop(0.1)
                .with_dup(0.05)
                .with_spread_crashes(3, n),
        ),
        ..Plans::default()
    };
    let (result, schedule) = record(
        &graph,
        Variant::Oblivious,
        &plans,
        RandomScheduler::seeded(1),
    );
    let want = result.expect("the recorded run completes correctly");

    let (reliable, replans) = Plans::from_schedule(&schedule).expect("stamped metadata");
    assert!(reliable, "a fault plan replays on the reliable layer");
    let mut replay = ReplayScheduler::strict(&schedule);
    let got = run_checked(&graph, Variant::Oblivious, reliable, &replans, &mut replay)
        .expect("the replay completes correctly");

    assert_eq!(replay.position(), schedule.len(), "every choice replayed");
    assert_eq!(replay.leftover(), 0, "no token left pending");
    assert_eq!(got.steps, want.steps);
    assert_eq!(got.leaders, want.leaders);
    assert_eq!(got.metrics, want.metrics);
    assert_eq!(got.metrics.to_string(), want.metrics.to_string());
    assert!(got.metrics.faults().crashes >= 1);
}

#[test]
fn strict_replay_of_a_faulty_recording_reproduces_the_run() {
    assert_strict_replay_reproduces(1_024);
}

#[test]
#[ignore = "n = 16,384: run in release mode (scripts/verify.sh does)"]
fn strict_replay_reproduces_the_faulty_16k_run() {
    assert_strict_replay_reproduces(16_384);
}
