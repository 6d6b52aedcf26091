//! Record → strict replay of a discovery under link faults and crashes:
//! `ard_core::record` over `drop=0.1,dup=0.05,crash=3,seed=1` (the plan of
//! the `faulty-16k` benchmark workload), then `ReplayScheduler::strict` on
//! the network the schedule's metadata describes. The replay must execute
//! every recorded choice, leave no token pending and end in the same
//! outcome.
//!
//! The n = 1,024 run is tier 1. The full n = 16,384 run (1.37 M choices)
//! is `--ignored`; `scripts/verify.sh` runs it in release mode.

use asynchronous_resource_discovery::core::spec::parse_plans;
use asynchronous_resource_discovery::core::{record, run_checked, RunSpec, Variant};
use asynchronous_resource_discovery::netsim::{RandomScheduler, ReplayScheduler};

fn assert_strict_replay_reproduces(n: usize) {
    let spec = RunSpec {
        topology: format!("random:n={n},extra={},seed=1", 2 * n),
        variant: Variant::Oblivious,
        plans: parse_plans(Some("drop=0.1,dup=0.05,crash=3,seed=1"), None, None, n).unwrap(),
    };
    let (result, schedule) = record(&spec, RandomScheduler::seeded(1));
    let want = result.expect("the recorded run completes correctly");

    let (respec, graph) = RunSpec::from_schedule(&schedule).expect("stamped metadata");
    assert_eq!(respec, spec, "the schedule's metadata is the recorded run");
    let mut replay = ReplayScheduler::strict(&schedule);
    let got = run_checked(&graph, respec.variant, &respec.plans, &mut replay)
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
