//! Determinism contract of the parallel explorer and shrinker.
//!
//! The explorer's `--jobs` knob (and the checkpoint/fork prefix reuse
//! behind it) must never change *what* is found — only how fast. These
//! tests pin that contract end to end: explorations and shrinks at
//! `jobs = 1` and `jobs ∈ {2, 4, 8}` must produce byte-identical reports,
//! failing schedules (text form, metadata included) and counters, on
//! clean and fault-injected configurations alike — including the exact
//! configuration that regenerates the corpus crash witness.

use asynchronous_resource_discovery::netsim::explore::{
    explore, explore_fork, fixtures, ExploreConfig, ExploreReport,
};
use asynchronous_resource_discovery::netsim::shrink::shrink_jobs;
use asynchronous_resource_discovery::netsim::{
    FaultPlan, NodeId, Plans, ReplayScheduler, Scheduler,
};

use proptest::prelude::*;

/// Renders everything observable about a report: counters plus the full
/// schedule text (choices + metadata) and provenance of any failure.
fn fingerprint(report: &ExploreReport) -> String {
    let failure = report.failure.as_ref().map_or_else(
        || "none".to_string(),
        |f| {
            format!(
                "run {} origin {} reason {}\n{}",
                f.run_index,
                f.origin,
                f.reason,
                f.schedule.to_text()
            )
        },
    );
    format!(
        "runs {} walks {} dfs {} failure {}",
        report.runs, report.random_walks, report.dfs_runs, failure
    )
}

fn racy_config(seed: u64, walks: u64, dfs: u64, depth: usize) -> ExploreConfig {
    ExploreConfig {
        random_walks: walks,
        dfs_budget: dfs,
        dfs_depth: depth,
        seed,
        ..ExploreConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exploring the planted-race fixture finds the same thing at any job
    /// count, on closure and checkpoint/fork paths alike.
    #[test]
    fn explore_is_byte_identical_at_any_job_count(
        clients in 2usize..5,
        seed in 0u64..32,
        walks in 0u64..24,
        dfs in 8u64..48,
        depth in 3usize..6,
    ) {
        let base = racy_config(seed, walks, dfs, depth);
        let sequential = explore_fork(&base, &fixtures::RacySystem::new(clients));
        let closure = explore(&base, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
        });
        prop_assert_eq!(fingerprint(&sequential), fingerprint(&closure));
        for jobs in [2usize, 4, 8] {
            let config = ExploreConfig { jobs, ..base.clone() };
            let parallel = explore_fork(&config, &fixtures::RacySystem::new(clients));
            prop_assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={}", jobs);
        }
    }

    /// Same contract under fault injection (the fragile fixture only
    /// breaks when a fault fires, so this exercises the fault layer's
    /// seeding in both search phases).
    #[test]
    fn faulty_explore_is_byte_identical_at_any_job_count(
        seed in 0u64..16,
        walks in 16u64..48,
    ) {
        let base = ExploreConfig {
            random_walks: walks,
            dfs_budget: 16,
            dfs_depth: 4,
            seed,
            plans: Plans {
                faults: Some(FaultPlan::new(1).with_drop(0.25)),
                ..Plans::default()
            },
            ..ExploreConfig::default()
        };
        let sequential = explore_fork(&base, &fixtures::FragileSystem::new(2));
        for jobs in [2usize, 4, 8] {
            let config = ExploreConfig { jobs, ..base.clone() };
            let parallel = explore_fork(&config, &fixtures::FragileSystem::new(2));
            prop_assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={}", jobs);
        }
    }

    /// The shrinker accepts the same candidates in the same order at any
    /// job count — schedule, reason and even the attempts counter match.
    #[test]
    fn shrink_is_byte_identical_at_any_job_count(
        clients in 2usize..5,
        seed in 0u64..16,
    ) {
        let config = racy_config(seed, 32, 32, 4);
        let report = explore(&config, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
        });
        let Some(failure) = report.failure else {
            // Some budgets miss the race; nothing to shrink then.
            return Ok(());
        };
        let sequential = shrink_jobs(&failure.schedule, 1, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
        });
        for jobs in [2usize, 4, 8] {
            let parallel = shrink_jobs(&failure.schedule, jobs, || {
                |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
            });
            prop_assert_eq!(&parallel.schedule, &sequential.schedule, "jobs={}", jobs);
            prop_assert_eq!(&parallel.reason, &sequential.reason, "jobs={}", jobs);
            prop_assert_eq!(parallel.attempts, sequential.attempts, "jobs={}", jobs);
        }
    }
}

/// The exact configuration `regenerate_fault_corpus` uses to produce the
/// checked-in crash witness: a crash/restart plan searched by random
/// walks. The parallel engine must find the identical witness.
#[test]
fn corpus_crash_witness_search_is_job_count_invariant() {
    let base = ExploreConfig {
        random_walks: 256,
        dfs_budget: 0,
        dfs_depth: 0,
        seed: 0,
        plans: Plans {
            faults: Some(FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2)),
            ..Plans::default()
        },
        ..ExploreConfig::default()
    };
    let sequential = explore(&base, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    });
    let failure = sequential
        .failure
        .as_ref()
        .expect("the crash plan must break the fragile fixture");
    let minimized = shrink_jobs(&failure.schedule, 1, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    });
    for jobs in [2usize, 4, 8] {
        let config = ExploreConfig { jobs, ..base.clone() };
        let parallel = explore(&config, || {
            |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
        });
        assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={jobs}");
        let shrunk = shrink_jobs(
            &parallel.failure.as_ref().unwrap().schedule,
            jobs,
            || |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched),
        );
        assert_eq!(shrunk.schedule, minimized.schedule, "jobs={jobs}");
        assert_eq!(shrunk.attempts, minimized.attempts, "jobs={jobs}");
    }
}

/// Checkpoint/fork prefix reuse is transparent: on, off, and on-with-
/// verification all produce the same exploration, and the failing
/// schedule still strict-replays to the same failure.
#[test]
fn checkpointing_is_transparent_and_schedules_replay() {
    let base = ExploreConfig {
        random_walks: 0,
        dfs_budget: 96,
        dfs_depth: 6,
        seed: 0,
        jobs: 4,
        ..ExploreConfig::default()
    };
    let scratch = explore_fork(
        &ExploreConfig { checkpoint: false, ..base.clone() },
        &fixtures::RacySystem::new(3),
    );
    let forked = explore_fork(&base, &fixtures::RacySystem::new(3));
    let verified = explore_fork(
        &ExploreConfig { verify_snapshots: true, ..base },
        &fixtures::RacySystem::new(3),
    );
    assert_eq!(fingerprint(&scratch), fingerprint(&forked));
    assert_eq!(fingerprint(&scratch), fingerprint(&verified));

    let failure = forked.failure.expect("depth-6 dfs finds the race");
    let mut replay = ReplayScheduler::strict(&failure.schedule);
    let err = fixtures::run_racy(3, &mut replay).unwrap_err();
    assert_eq!(err, failure.reason);
}
