//! Equivalence contract of the FIFO round loop.
//!
//! `Discovery::run_all_rounds` (what `ard discover --scheduler fifo` runs)
//! must never change *what* a FIFO run produces — only that no scheduler
//! object orders it. These tests pin the contract end to end against the
//! real protocol: the metrics (value and `Display` text), trace events,
//! final knowledge, outcome, and recorded schedule must be byte-identical
//! to `run_all` under a `FifoScheduler`, on every variant — and a capped
//! run must livelock at exactly the same step on both.

use asynchronous_resource_discovery::core::{Discovery, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{FifoScheduler, RecordingScheduler, ReplayScheduler};

use proptest::prelude::*;

/// Runs discovery under a `FifoScheduler` and on the round loop and
/// asserts every observable matches.
fn assert_round_loop_matches(n: usize, extra: usize, seed: u64, variant: Variant) {
    let graph = gen::random_weakly_connected(n, extra, seed);

    let mut fifo = Discovery::new(&graph, variant);
    fifo.runner_mut().enable_trace();
    let want = fifo.run_all(&mut FifoScheduler::new()).unwrap();
    fifo.check_requirements(&graph).unwrap();

    let mut rounds = Discovery::new(&graph, variant);
    rounds.runner_mut().enable_trace();
    let got = rounds.run_all_rounds().unwrap();

    assert_eq!(got.steps, want.steps, "steps");
    assert_eq!(got.leaders, want.leaders, "leaders");
    assert_eq!(got.leader_of, want.leader_of);
    assert_eq!(got.metrics, want.metrics, "metrics");
    assert_eq!(
        got.metrics.to_string(),
        want.metrics.to_string(),
        "metrics text"
    );
    assert_eq!(
        rounds.runner().trace().unwrap().events(),
        fifo.runner().trace().unwrap().events(),
        "trace"
    );
    // The canonical state digest (the explorer's terminal-state / dedup
    // hash) must agree too: the round loop may not perturb anything the
    // digest can see — node state, knowledge, queues, metrics.
    assert_eq!(
        rounds.runner().state_digest(),
        fifo.runner().state_digest(),
        "state digest"
    );
    rounds.check_requirements(&graph).unwrap();
}

#[test]
fn round_loop_is_byte_identical_across_variants() {
    for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
        assert_round_loop_matches(48, 96, 7, variant);
    }
}

#[test]
fn round_loop_terminal_state_digest_matches_without_tracing() {
    let graph = gen::random_weakly_connected(40, 80, 13);
    let mut fifo = Discovery::new(&graph, Variant::AdHoc);
    fifo.run_all(&mut FifoScheduler::new()).unwrap();
    let mut rounds = Discovery::new(&graph, Variant::AdHoc);
    rounds.run_all_rounds().unwrap();
    assert_eq!(rounds.runner().state_digest(), fifo.runner().state_digest());
}

#[test]
fn round_loop_recording_matches_fifo_recording() {
    let graph = gen::random_weakly_connected(32, 64, 3);

    let mut fifo = Discovery::new(&graph, Variant::AdHoc);
    let mut recorder = RecordingScheduler::new(FifoScheduler::new());
    let want = fifo.run_all(&mut recorder).unwrap();
    let want_schedule = recorder.into_schedule();

    let mut rounds = Discovery::new(&graph, Variant::AdHoc);
    let budget = rounds.default_step_budget();
    let (got_steps, got_schedule) = rounds.runner_mut().run_rounds_recorded(budget);
    assert_eq!(got_steps.unwrap(), want.steps);
    assert_eq!(*rounds.runner().metrics(), want.metrics);
    assert_eq!(got_schedule.to_text(), want_schedule.to_text());
}

#[test]
fn replay_of_a_round_loop_recording_reproduces_the_run() {
    let graph = gen::random_weakly_connected(24, 48, 11);
    let mut rec = Discovery::new(&graph, Variant::Oblivious);
    let budget = rec.default_step_budget();
    let (result, schedule) = rec.runner_mut().run_rounds_recorded(budget);
    let recorded_steps = result.unwrap();

    let mut rep = Discovery::new(&graph, Variant::Oblivious);
    let replayed = rep
        .run_all(&mut ReplayScheduler::strict(&schedule))
        .unwrap();
    assert_eq!(replayed.steps, recorded_steps);
    assert_eq!(replayed.metrics, *rec.runner().metrics());
}

#[test]
fn round_loop_livelock_cuts_off_at_the_same_step() {
    let graph = gen::random_weakly_connected(32, 64, 5);

    let mut fifo = Discovery::new(&graph, Variant::Oblivious);
    let mut sched = FifoScheduler::new();
    fifo.enqueue_wake_all(&mut sched);
    let want = fifo.runner_mut().run(&mut sched, 40).unwrap_err();

    let mut rounds = Discovery::new(&graph, Variant::Oblivious);
    rounds.cap_steps(40);
    let got = rounds.run_all_rounds().unwrap_err();
    assert_eq!(got, want, "cutoff step and pending count");
    assert_eq!(
        rounds.runner().metrics(),
        fifo.runner().metrics(),
        "partial metrics"
    );
}

/// Above 8,192 nodes the engine keeps knowledge in `IdSet`s and addresses
/// link queues by key; neither may move a digest. The three values are what
/// the build before that change printed (run-coded knowledge, interned link
/// slots) for the same graph: mid-run under a random scheduler with
/// thousands of messages in flight, at its quiescence, and at the round
/// loop's.
#[test]
fn state_digest_is_pinned_above_the_dense_knowledge_limit() {
    use asynchronous_resource_discovery::netsim::RandomScheduler;
    let graph = gen::random_weakly_connected(10_000, 20_000, 5);

    let mut random = Discovery::new(&graph, Variant::Oblivious);
    let mut sched = RandomScheduler::seeded(9);
    random.enqueue_wake_all(&mut sched);
    for _ in 0..60_000 {
        assert!(random.runner_mut().step(&mut sched));
    }
    assert_eq!(random.runner().in_flight(), 2414);
    assert_eq!(random.runner().state_digest(), 0x1f7a_509e_13b7_35b6);
    random.run(&mut sched).unwrap();
    assert_eq!(random.runner().steps_executed(), 153_812);
    assert_eq!(random.runner().state_digest(), 0x46e9_142a_c220_ec9c);

    let mut rounds = Discovery::new(&graph, Variant::Oblivious);
    rounds.run_all_rounds().unwrap();
    assert_eq!(rounds.runner().state_digest(), 0x55a3_e599_9461_d22a);
}

/// The large-n gate `scripts/verify.sh` runs in release mode: a 10⁵-node
/// discovery completes inside a capped step budget and the round loop
/// agrees with the scheduler-driven run on everything a report prints.
#[test]
#[ignore = "n = 100,000: run in release mode (scripts/verify.sh does)"]
fn round_loop_matches_fifo_scheduler_at_n_100000() {
    let graph = gen::random_weakly_connected(100_000, 200_000, 1);

    let mut fifo = Discovery::new(&graph, Variant::Oblivious);
    let want = fifo.run_all(&mut FifoScheduler::new()).unwrap();
    fifo.check_requirements(&graph).unwrap();

    let mut rounds = Discovery::new(&graph, Variant::Oblivious);
    rounds.cap_steps(4_000_000);
    let got = rounds.run_all_rounds().unwrap();
    assert_eq!(got.steps, want.steps);
    assert_eq!(got.leaders, want.leaders);
    assert_eq!(got.metrics, want.metrics);
    assert_eq!(got.metrics.to_string(), want.metrics.to_string());
    assert_eq!(rounds.runner().state_digest(), fifo.runner().state_digest());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies and sizes, every variant: the contract is not
    /// shape-specific.
    #[test]
    fn round_loop_matches_on_random_topologies(
        n in 2usize..40,
        extra_per_node in 0usize..3,
        seed in 0u64..1000,
    ) {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            assert_round_loop_matches(n, n * extra_per_node, seed, variant);
        }
    }
}
