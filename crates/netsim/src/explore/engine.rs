//! The search itself: the random-walk phase, the depth-bounded branch-point
//! DFS with its speculation waves, and the sleep-set / branch-state-dedup
//! child generation of [`ReduceMode::Sleep`]. Executing a candidate is
//! [`fork`](super::fork)'s job; this module only decides *which* run next
//! and consumes outcomes in the sequential order.

use std::collections::HashMap;

use super::fork::{
    run_fork_system, run_prefix, scheduler_stack, Checkpoints, ForkSystem, PrefixOutcome,
};
use super::{ExploreConfig, ExploreFailure, ExploreReport, Origin, ReduceMode, StopReason};
use crate::par;
use crate::record::Schedule;
use crate::scheduler::{Choice, RandomScheduler, StateDigest};

/// Derives the seed of walk `i` from the configured base seed.
///
/// The obvious `base + i` collides across adjacent user seeds (a sweep
/// over bases 0, 1, 2… re-runs almost every walk); instead each walk takes
/// one output of the splitmix64 stream starting at `base`, whose finalizer
/// scatters consecutive states across the whole 64-bit space.
fn walk_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical digest of a branch node's pending *set*: sorted sort keys, so
/// arrival-order differences between equivalent prefixes don't split the
/// dedup key.
fn pending_set_hash(pending: &[Choice]) -> u64 {
    let mut keys: Vec<(u8, u32, u32, u32)> = pending.iter().map(Choice::sort_key).collect();
    keys.sort_unstable();
    let mut d = StateDigest::new();
    d.mix(keys.len() as u64);
    for (tag, a, b, c) in keys {
        d.mix(u64::from(tag));
        d.mix(u64::from(a));
        d.mix(u64::from(b));
        d.mix(u64::from(c));
    }
    d.finish()
}

/// Whether every choice in `a` also appears in `b` (multiset-insensitive —
/// sleep sets never hold duplicates worth distinguishing).
fn sleep_subset(a: &[Choice], b: &[Choice]) -> bool {
    a.iter().all(|u| b.contains(u))
}

/// The search behind [`explore`](super::explore) and
/// [`explore_fork`](super::explore_fork).
pub(super) fn explore_engine(config: &ExploreConfig, system: &dyn ForkSystem) -> ExploreReport {
    let jobs = config.jobs.max(1);
    let mut report = ExploreReport::default();

    // Phase 1: bounded random walk over mixed seeds; with a fault plan each
    // walk also re-seeds the fault RNG, so the phase explores fault
    // placements, not just interleavings. Walks execute in index-ordered
    // batches: workers run them speculatively, the merge consumes them in
    // order and stops at the first failure, exactly like the sequential loop.
    let mut next_walk = 0u64;
    while next_walk < config.random_walks {
        let remaining = config.random_walks - next_walk;
        let batch = if jobs <= 1 {
            1
        } else {
            remaining.min(jobs as u64 * 4)
        };
        let indices: Vec<u64> = (next_walk..next_walk + batch).collect();
        let outcomes = par::parallel_map(jobs, indices, |i| {
            let seed = walk_seed(config.seed, i);
            let mut sched = scheduler_stack(config, RandomScheduler::seeded(seed), seed);
            let result = run_fork_system(system, &mut sched);
            (seed, result, sched.terminal_digest(), sched.into_schedule())
        });
        for (seed, result, digest, schedule) in outcomes {
            report.random_walks += 1;
            report.runs += 1;
            if let Err(reason) = result {
                fail(&mut report, config, schedule, reason, Origin::RandomWalk { seed }, digest);
                return report;
            }
        }
        next_walk += batch;
    }

    // Phase 2: depth-bounded branch-point DFS. A run with prefix `p`
    // implicitly decides index 0 at every step past `p`, so the children
    // enqueued after running `p` are exactly the prefixes
    // `p + [0]*k + [i]` (`i ≥ 1`, within the observed branching factor):
    // every decision path through the first `dfs_depth` steps is generated
    // exactly once.
    //
    // Parallelism never reorders the search: workers speculatively execute
    // *waves* of prefixes already sitting on the stack (execution of a
    // prefix is a pure function of the prefix), the outcomes land in a
    // cache, and this loop then replays the exact sequential pop / count /
    // push-children discipline against the cache — so the stack evolution,
    // run counters and first failure match the sequential engine choice
    // for choice. Speculative runs past a failure or the budget are
    // discarded unconsumed.
    let reduce = config.reduce == ReduceMode::Sleep;
    // Branch-state dedup matches nodes purely on (depth, runner state,
    // pending set). Fault, Byzantine and churn plans carry extra run state
    // the digest cannot see (RNG positions, timeline cursors), so with any
    // plan attached the dedup arm switches off; sleep sets stay on and
    // degrade via the fault layer's footprint widening.
    let dedup = reduce && config.plans.is_empty();
    // Branch nodes already expanded, by dedup key; the values are the
    // sleep sets they were expanded under (an equivalent node is covered
    // only by an expansion that slept no *more* than it would).
    let mut seen: HashMap<(usize, u64, u64), Vec<Vec<Choice>>> = HashMap::new();

    let checkpoints = Checkpoints::default();
    let reuse = config.checkpoint.then_some(&checkpoints);
    let mut cache: HashMap<Vec<usize>, PrefixOutcome> = HashMap::new();
    // Stack entries pair each candidate prefix with the sleep set of the
    // branch node it starts from (always empty outside reduce mode, and
    // irrelevant to *executing* the prefix — only child generation reads
    // it, in this sequential loop, which keeps every job count
    // byte-identical).
    let mut stack: Vec<(Vec<usize>, Vec<Choice>)> = vec![(Vec::new(), Vec::new())];
    while report.dfs_runs < config.dfs_budget {
        let Some((prefix, sleep0)) = stack.pop() else { break };
        if !cache.contains_key(&prefix) {
            let remaining = (config.dfs_budget - report.dfs_runs) as usize;
            // Speculation-debt throttle: a speculated outcome is only
            // *useful* once the sequential order consumes it, and during a
            // deep dive freshly-pushed children keep preempting the
            // speculated stack entries. Capping the number of cached
            // outcomes bounds how much speculative work can sit unconsumed
            // (and be discarded at budget exhaustion); a throttled wave
            // degenerates to the popped prefix alone, which runs inline.
            let headroom = (jobs * 4).saturating_sub(cache.len());
            let wave_cap = if jobs <= 1 {
                1
            } else {
                (jobs * 4).min(remaining).min(1 + headroom)
            };
            let mut targets: Vec<Vec<usize>> = vec![prefix.clone()];
            let speculated = stack.iter().rev().map(|(p, _)| p).filter(|p| !cache.contains_key(*p));
            targets.extend(speculated.take(wave_cap - 1).cloned());
            cache.extend(par::parallel_map(jobs, targets, |p| {
                let outcome = run_prefix(system, config, &p, reuse);
                (p, outcome)
            }));
        }
        let outcome = cache.remove(&prefix).expect("wave cached the popped prefix");
        report.dfs_runs += 1;
        report.runs += 1;
        if let Err(reason) = outcome.result {
            let origin = Origin::Dfs { prefix };
            fail(&mut report, config, outcome.schedule, reason, origin, outcome.terminal_digest);
            return report;
        }
        let counts = &outcome.branch_counts;
        if !reduce {
            // Reverse push order so the stack pops children in
            // lexicographic (earliest-position, smallest-index) order.
            for j in (prefix.len()..counts.len()).rev() {
                for i in (1..counts[j]).rev() {
                    let mut child = Vec::with_capacity(j + 1);
                    child.extend_from_slice(&prefix);
                    child.resize(j, 0);
                    child.push(i);
                    stack.push((child, Vec::new()));
                }
            }
            continue;
        }
        // Reduced child generation: walk this run's leftmost branch path,
        // evolving the sleep set along each executed edge (Godefroid-style
        // — a slept choice is one whose subtree an earlier sibling's
        // subtree provably covers).
        let obs = &outcome.branch_obs;
        debug_assert_eq!(obs.len(), counts.len(), "one observation per branch");
        let mut sleep = sleep0;
        let mut children: Vec<(Vec<usize>, Vec<Choice>)> = Vec::new();
        'walk: for j in prefix.len()..counts.len() {
            let ob = &obs[j];
            let siblings = counts[j].saturating_sub(1) as u64;
            let deeper = |from: usize| -> u64 {
                (from..counts.len()).map(|jj| counts[jj].saturating_sub(1) as u64).sum()
            };
            if dedup {
                let key = (j, ob.digest, pending_set_hash(&ob.pending));
                let entry = seen.entry(key).or_default();
                if entry.iter().any(|s| sleep_subset(s, &sleep)) {
                    // An equivalent branch node (same depth, same runner
                    // state, same pending set) was already expanded while
                    // sleeping a subset of what this one would: its
                    // subtree covers everything reachable from here.
                    report.digest_deduped += siblings + deeper(j + 1);
                    break 'walk;
                }
                entry.push(sleep.clone());
            }
            // The choice this run executed at the branch (rank 0 — the
            // leftmost continuation) and its alternatives.
            let c0 = ob.pending[0];
            let c0_slept = sleep.contains(&c0);
            let mut done: Vec<Choice> = vec![c0];
            for i in 1..counts[j] {
                let ci = ob.pending[i];
                if sleep.contains(&ci) || done.contains(&ci) {
                    report.sleep_pruned += 1;
                    continue;
                }
                // The sibling's subtree starts by executing `ci`; it
                // inherits every slept-or-already-explored choice that
                // commutes with `ci` (may-footprints on both sides — the
                // sibling hasn't executed, so no exact footprint exists).
                let child_sleep: Vec<Choice> = sleep
                    .iter()
                    .chain(done.iter())
                    .filter(|u| !u.may_conflict(&ci))
                    .copied()
                    .collect();
                let mut child = Vec::with_capacity(j + 1);
                child.extend_from_slice(&prefix);
                child.resize(j, 0);
                child.push(i);
                children.push((child, child_sleep));
                done.push(ci);
            }
            if c0_slept {
                // The whole leftmost subtree below this node is covered
                // elsewhere (this run itself already executed, harmlessly);
                // its deeper branch nodes need no children of their own.
                report.sleep_pruned += deeper(j + 1);
                break 'walk;
            }
            // Advance along the executed edge: survivors are the slept
            // choices that commute with everything this decision actually
            // touched (its exact footprint, plus any fault-layer steps
            // merged in pre-widened).
            sleep.retain(|u| !ob.fp.conflicts_may(*u));
        }
        // Reverse push order so the stack pops children in lexicographic
        // (earliest-position, smallest-index) order.
        stack.extend(children.into_iter().rev());
    }
    // A violation returned above: the budget or the frontier ended the loop.
    report.stop = if stack.is_empty() {
        StopReason::FrontierExhausted
    } else {
        StopReason::BudgetExhausted
    };
    report
}

/// Records the violation that ends the search on the run just counted. A
/// reduced search also stamps the run's terminal digest, if it has one.
fn fail(
    report: &mut ExploreReport,
    config: &ExploreConfig,
    mut schedule: Schedule,
    reason: String,
    origin: Origin,
    terminal_digest: Option<u64>,
) {
    schedule.set_meta("origin", origin.to_string());
    schedule.set_meta("reason", reason.replace('\n', " "));
    if let (ReduceMode::Sleep, Some(digest)) = (config.reduce, terminal_digest) {
        schedule.set_meta("terminal-digest", format!("{digest:016x}"));
    }
    report.stop = StopReason::Violation;
    report.failure = Some(ExploreFailure {
        schedule,
        reason,
        run_index: report.runs - 1,
        origin,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_fork, fixtures, report_fingerprint};
    use crate::fault::{FaultPlan, Plans};
    use crate::record::{RecordingScheduler, ReplayScheduler};
    use crate::{NodeId, Scheduler};
    use std::sync::Mutex;

    #[test]
    fn walk_seeds_never_collide_across_adjacent_bases() {
        // The old `base + i` scheme made walk i of base b identical to
        // walk i - 1 of base b + 1; mixed seeds must all be distinct.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for i in 0..64u64 {
                assert!(
                    seen.insert(walk_seed(base, i)),
                    "walk seed collision at base={base} i={i}"
                );
            }
        }
    }

    #[test]
    fn random_walk_finds_the_planted_race() {
        let config = ExploreConfig {
            random_walks: 64,
            dfs_budget: 0,
            dfs_depth: 0,
            seed: 0,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(4, sched)
        });
        let failure = report.failure.expect("walk should find the race");
        assert!(matches!(failure.origin, Origin::RandomWalk { .. }));
        assert!(failure.reason.contains("highest-id client"));
        assert_eq!(failure.schedule.meta("reason"), Some(failure.reason.as_str()));
    }

    #[test]
    fn dfs_alone_finds_the_planted_race() {
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 128,
            dfs_depth: 4,
            seed: 0,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(2, sched)
        });
        let failure = report.failure.expect("dfs should find the race");
        assert!(matches!(failure.origin, Origin::Dfs { .. }));
    }

    #[test]
    fn found_schedules_replay_to_the_same_failure() {
        let config = ExploreConfig::default();
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(4, sched)
        });
        let failure = report.failure.expect("should find the race");
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = fixtures::run_racy(4, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);
        assert_eq!(replay.leftover(), 0, "recorded run was complete");
    }

    #[test]
    fn exploration_respects_its_budget_and_counts_runs() {
        let config = ExploreConfig {
            random_walks: 3,
            dfs_budget: 5,
            dfs_depth: 3,
            seed: 9,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            // Never fails: drain the schedule against a trivial system.
            let mut r = fixtures::racy_network(2);
            r.enqueue_wake_all(sched);
            r.run(sched, 1_000).map_err(|e| e.to_string())?;
            Ok(())
        });
        assert!(report.failure.is_none());
        assert_eq!(report.random_walks, 3);
        assert!(report.dfs_runs <= 5);
        assert_eq!(report.runs, report.random_walks + report.dfs_runs);
    }

    #[test]
    fn dfs_enumerates_distinct_interleavings() {
        // Every DFS run on a benign system produces a distinct choice
        // sequence: the prefix enumeration never repeats a decision path.
        let seen = Mutex::new(Vec::<Vec<Choice>>::new());
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 40,
            dfs_depth: 3,
            seed: 0,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            let mut recorder = RecordingScheduler::new(&mut *sched);
            let mut r = fixtures::racy_network(2);
            r.enqueue_wake_all(&mut recorder);
            r.run(&mut recorder, 1_000).map_err(|e| e.to_string())?;
            seen.lock().expect("seen lock").push(recorder.recorded().collect());
            Ok(())
        });
        assert!(report.failure.is_none());
        let seen = seen.into_inner().expect("seen lock");
        assert!(seen.len() > 5, "expected a real enumeration");
        for a in 0..seen.len() {
            for b in a + 1..seen.len() {
                assert_ne!(seen[a], seen[b], "schedules {a} and {b} coincide");
            }
        }
    }

    #[test]
    fn reduced_search_still_finds_the_race_and_stamps_the_digest() {
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 256,
            dfs_depth: 5,
            seed: 0,
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let report = explore_fork(&config, &fixtures::RacySystem::new(3));
        let failure = report.failure.expect("reduced dfs should find the race");
        assert!(matches!(failure.origin, Origin::Dfs { .. }));
        assert_eq!(report.stop, StopReason::Violation);
        let digest = failure
            .schedule
            .meta("terminal-digest")
            .expect("reduced failures carry the terminal digest");
        assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
        // The stamped digest is the replayed run's actual terminal state.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let mut runner = fixtures::racy_network(3);
        runner.enqueue_wake_all(&mut replay);
        while runner.step(&mut replay) {}
        assert_eq!(format!("{:016x}", runner.state_digest()), digest);
    }

    #[test]
    fn reduction_prunes_commuting_interleavings_without_losing_violations() {
        // Tolerant fixture: no violation either way, so both searches run
        // to completion and the run counts compare directly.
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 4_000,
            dfs_depth: 7,
            seed: 0,
            ..ExploreConfig::default()
        };
        let full = explore_fork(&base, &fixtures::RacySystem::tolerant(3));
        let reduced = explore_fork(
            &ExploreConfig {
                reduce: ReduceMode::Sleep,
                ..base.clone()
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert!(full.failure.is_none() && reduced.failure.is_none());
        assert_eq!(full.stop, StopReason::FrontierExhausted, "{}", full.dfs_runs);
        assert_eq!(reduced.stop, StopReason::FrontierExhausted);
        assert!(
            reduced.dfs_runs * 2 <= full.dfs_runs,
            "reduction should at least halve the search: {} vs {}",
            reduced.dfs_runs,
            full.dfs_runs
        );
        assert!(reduced.sleep_pruned > 0, "sleep sets should fire");
        assert_eq!(full.sleep_pruned, 0);
        assert_eq!(full.digest_deduped, 0);

        // And on the armed fixture the reduced search still finds the bug.
        let armed = explore_fork(
            &ExploreConfig {
                reduce: ReduceMode::Sleep,
                ..base
            },
            &fixtures::RacySystem::new(3),
        );
        assert!(armed.failure.is_some(), "reduction must not hide the race");
    }

    #[test]
    fn stop_reason_distinguishes_budget_from_frontier() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_depth: 5,
            seed: 0,
            ..ExploreConfig::default()
        };
        let starved = explore_fork(
            &ExploreConfig {
                dfs_budget: 3,
                ..base.clone()
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert_eq!(starved.stop, StopReason::BudgetExhausted);
        let done = explore_fork(
            &ExploreConfig {
                dfs_budget: 100_000,
                ..base
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert_eq!(done.stop, StopReason::FrontierExhausted);
        assert!(done.dfs_runs < 100_000);
    }

    #[test]
    fn reduced_parallel_jobs_leave_the_report_byte_identical() {
        for system in [fixtures::RacySystem::new(4), fixtures::RacySystem::tolerant(4)] {
            let base = ExploreConfig {
                random_walks: 8,
                dfs_budget: 200,
                dfs_depth: 6,
                seed: 1,
                reduce: ReduceMode::Sleep,
                ..ExploreConfig::default()
            };
            let sequential = explore_fork(&base, &system);
            for jobs in [2, 4, 8] {
                let parallel = explore_fork(
                    &ExploreConfig {
                        jobs,
                        ..base.clone()
                    },
                    &system,
                );
                assert_eq!(
                    report_fingerprint(&sequential),
                    report_fingerprint(&parallel),
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn reduced_fault_search_still_finds_the_crash_fragile_bug() {
        // With a fault plan the dedup arm is off and the fault layer
        // widens footprints, but the reduced search must still reach the
        // planted crash-dependent violation.
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 512,
            dfs_depth: 5,
            seed: 0,
            plans: Plans {
                faults: Some(FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2)),
                ..Plans::default()
            },
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let report = explore_fork(&config, &fixtures::FragileSystem::new(1));
        let failure = report.failure.expect("crash search should silence the client");
        assert!(failure.reason.contains("pongs"));
        assert_eq!(report.digest_deduped, 0, "dedup is off under a fault plan");
    }

    #[test]
    fn parallel_jobs_leave_the_report_byte_identical() {
        for faults in [None, Some(FaultPlan::new(1).with_drop(0.25))] {
            let base = ExploreConfig {
                random_walks: 24,
                dfs_budget: 48,
                dfs_depth: 5,
                seed: 1,
                plans: Plans {
                    faults,
                    ..Plans::default()
                },
                ..ExploreConfig::default()
            };
            let sequential = explore_fork(&base, &fixtures::RacySystem::new(3));
            for jobs in [2, 4, 8] {
                let parallel = explore_fork(
                    &ExploreConfig {
                        jobs,
                        ..base.clone()
                    },
                    &fixtures::RacySystem::new(3),
                );
                assert_eq!(
                    report_fingerprint(&sequential),
                    report_fingerprint(&parallel),
                    "jobs={jobs}"
                );
            }
        }
    }
}
