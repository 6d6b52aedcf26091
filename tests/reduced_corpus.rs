//! The reduced (DPOR) explorer against the pinned corpus witnesses: for
//! every planted bug the corpus pins, a sleep-set-reduced DFS must still
//! find the violation, and ddmin must minimize its find exactly as it
//! minimizes the unreduced explorer's — reduction prunes *redundant*
//! interleavings, never the witnesses.

use std::collections::HashMap;

use asynchronous_resource_discovery::core::{run_checked, Plans, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::explore::{
    explore, explore_fork, fixtures, ExploreConfig, ReduceMode,
};
use asynchronous_resource_discovery::netsim::shrink::shrink;
use asynchronous_resource_discovery::netsim::{
    ByzantinePlan, Choice, ChurnPlan, FaultPlan, NodeId, ReplayScheduler, Schedule, Scheduler,
};

fn corpus(name: &str) -> Schedule {
    let path = format!("tests/corpus/{name}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Schedule::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs `config` unreduced and reduced, asserts both find the same
/// violation, and returns it with the two failure schedules (full,
/// reduced).
fn both_find(
    config: &ExploreConfig,
    run: &dyn Fn(&ExploreConfig) -> asynchronous_resource_discovery::netsim::explore::ExploreReport,
) -> (String, Schedule, Schedule) {
    let full = run(config);
    let reduced = run(&ExploreConfig {
        reduce: ReduceMode::Sleep,
        ..config.clone()
    });
    let f = full.failure.expect("unreduced DFS finds the planted bug");
    let r = reduced.failure.expect("reduced DFS finds the planted bug");
    assert_eq!(f.reason, r.reason, "reduction changed which bug was found");
    (f.reason, f.schedule, r.schedule)
}

#[test]
fn reduced_dfs_finds_and_minimizes_the_racy_witness() {
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: 64,
        dfs_depth: 7,
        seed: 0,
        ..ExploreConfig::default()
    };
    let (_, full, reduced) =
        both_find(&config, &|c| explore_fork(c, &fixtures::RacySystem::new(3)));
    let sf = shrink(&full, || |s: &mut dyn Scheduler| fixtures::run_racy(3, s));
    let sr = shrink(&reduced, || |s: &mut dyn Scheduler| fixtures::run_racy(3, s));
    assert_eq!(sf.schedule.choices(), sr.schedule.choices());
    // Both minimize to exactly the pinned corpus witness.
    let witness = corpus("racy-minimized.schedule");
    assert_eq!(sr.schedule.choices(), witness.choices());
}

#[test]
fn reduced_dfs_finds_and_minimizes_the_crash_fragile_witness() {
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: 512,
        dfs_depth: 5,
        seed: 0,
        plans: Plans {
            faults: Some(FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2)),
            ..Plans::default()
        },
        ..ExploreConfig::default()
    };
    let (_, full, reduced) = both_find(&config, &|c| {
        explore_fork(c, &fixtures::FragileSystem::new(1))
    });
    let sf = shrink(&full, || |s: &mut dyn Scheduler| fixtures::run_fragile(1, s));
    let sr = shrink(&reduced, || |s: &mut dyn Scheduler| fixtures::run_fragile(1, s));
    assert_eq!(sf.schedule.choices(), sr.schedule.choices());
    let witness = corpus("fragile-crash-minimized.schedule");
    assert_eq!(sr.schedule.choices(), witness.choices());
}

#[test]
fn reduced_dfs_finds_and_minimizes_the_equivocation_witness() {
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: 64,
        dfs_depth: 4,
        seed: 0,
        plans: Plans {
            byzantine: Some(ByzantinePlan::new(3, 1).only("equivocate")),
            ..Plans::default()
        },
        nodes: 4,
        ..ExploreConfig::default()
    };
    let (_, full, reduced) = both_find(&config, &|c| {
        explore_fork(c, &fixtures::EquivSystem::new(3))
    });
    let sf = shrink(&full, || |s: &mut dyn Scheduler| fixtures::run_equiv(3, s));
    let sr = shrink(&reduced, || |s: &mut dyn Scheduler| fixtures::run_equiv(3, s));
    assert_eq!(sf.schedule.choices(), sr.schedule.choices());
    let witness = corpus("equiv-forge-minimized.schedule");
    assert_eq!(sr.schedule.choices(), witness.choices());
}

/// The closure the `byzantine-churn-ring-12` witness was recorded against:
/// ring of 12 under two traitors (full fault alphabet) plus join/leave
/// churn, checking the survivor-restricted guarantees.
fn run_byz_churn_ring(sched: &mut dyn Scheduler) -> Result<(), String> {
    let graph = gen::ring(12);
    let plans = Plans {
        byzantine: Some(ByzantinePlan::new(7, 2)),
        churn: Some(ChurnPlan::new(11, 0.2)),
        ..Plans::default()
    };
    run_checked(&graph, Variant::AdHoc, &plans, sched)?.verdict()
}

#[test]
fn reduced_dfs_finds_and_minimizes_the_byzantine_churn_violation() {
    // The pinned `byzantine-churn-ring-12` run violates the survivor
    // guarantees; the reduced explorer must find the violation the full
    // one finds (here via the closure contract — no fork path for the full
    // protocol), and ddmin must minimize both into whole runs that
    // reproduce it.
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: 128,
        dfs_depth: 4,
        seed: 0,
        plans: Plans {
            byzantine: Some(ByzantinePlan::new(7, 2)),
            churn: Some(ChurnPlan::new(11, 0.2)),
            ..Plans::default()
        },
        nodes: 12,
        ..ExploreConfig::default()
    };
    let (reason, full, reduced) = both_find(&config, &|c| explore(c, || run_byz_churn_ring));
    let mut witnesses = Vec::new();
    for found in [full, reduced] {
        let shrunk = shrink(&found, || run_byz_churn_ring);
        assert_eq!(
            shrunk.reason, reason,
            "the witness reproduces the explorer's find"
        );
        let mut replay = ReplayScheduler::strict(&shrunk.schedule);
        assert_eq!(run_byz_churn_ring(&mut replay), Err(reason.clone()));
        assert_eq!(
            replay.position(),
            shrunk.schedule.len(),
            "every choice replayed"
        );
        assert_eq!(replay.leftover(), 0, "a whole run, not a truncation");
        let mut multiset = HashMap::<Choice, usize>::new();
        for choice in shrunk.schedule.choices() {
            *multiset.entry(choice).or_default() += 1;
        }
        witnesses.push(multiset);
    }
    // ddmin is not confluent: the two minima hold the same choices, but
    // not necessarily in the same order.
    assert_eq!(witnesses[0], witnesses[1]);
}

#[test]
fn reduced_reports_are_byte_identical_at_any_jobs_and_checkpointing() {
    let base = ExploreConfig {
        random_walks: 8,
        dfs_budget: 64,
        dfs_depth: 7,
        seed: 0,
        reduce: ReduceMode::Sleep,
        ..ExploreConfig::default()
    };
    let reference = explore_fork(&base, &fixtures::RacySystem::new(3));
    let ref_failure = reference.failure.as_ref().expect("reference finds the race");
    let ref_digest = ref_failure
        .schedule
        .meta("terminal-digest")
        .expect("reduced failures carry a digest")
        .to_string();
    for jobs in [2usize, 4, 8] {
        for checkpoint in [false, true] {
            let report = explore_fork(
                &ExploreConfig {
                    jobs,
                    checkpoint,
                    ..base.clone()
                },
                &fixtures::RacySystem::new(3),
            );
            assert_eq!(report.runs, reference.runs, "jobs={jobs} ckpt={checkpoint}");
            assert_eq!(
                report.sleep_pruned, reference.sleep_pruned,
                "jobs={jobs} ckpt={checkpoint}"
            );
            assert_eq!(
                report.digest_deduped, reference.digest_deduped,
                "jobs={jobs} ckpt={checkpoint}"
            );
            let failure = report.failure.expect("every grid cell finds the race");
            assert_eq!(
                failure.schedule.to_text(),
                ref_failure.schedule.to_text(),
                "jobs={jobs} ckpt={checkpoint}"
            );
            assert_eq!(
                failure.schedule.meta("terminal-digest"),
                Some(ref_digest.as_str()),
                "jobs={jobs} ckpt={checkpoint}"
            );
        }
    }
}
