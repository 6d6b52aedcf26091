//! What the explorer executes: a [`ForkSystem`] spawns steppable
//! [`ForkRun`]s, and [`run_prefix`] — the one function that executes a DFS
//! candidate — drives one under a [`DfsScheduler`] stack, resuming from and
//! storing [`Checkpoints`] where the run can be forked.
//!
//! An [`explore`](super::explore) closure rides the same path through
//! [`ClosureSystem`]: a system whose runs cannot fork and whose single step
//! is the whole closure.

use std::collections::HashMap;
use std::sync::Mutex;

use super::dfs::{BranchObs, DfsScheduler};
use super::{ExploreConfig, ReduceMode};
use crate::fault::FaultScheduler;
use crate::record::{RecordingScheduler, Schedule};
use crate::runner::{LivelockError, Protocol, Runner};
use crate::scheduler::Scheduler;

/// A system under exploration: spawns one steppable run per candidate
/// schedule. Where the run can be cloned, the DFS gets **checkpoint/fork**
/// prefix reuse — it snapshots the run at a branch point and forks
/// siblings from the snapshot rather than re-executing the shared prefix.
/// Protocols get this for free from their existing `Clone`able state (see
/// [`fixtures::RacySystem`](super::fixtures::RacySystem)).
pub trait ForkSystem: Sync {
    /// Builds a fresh run: constructs the system and enqueues its initial
    /// events (wake-ups) into `sched`, without executing anything yet.
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun + '_>;
}

/// One in-flight run of a [`ForkSystem`].
pub trait ForkRun {
    /// Deep-copies the run state — the snapshot the DFS forks from — or
    /// `None` if this run cannot be copied, in which case every candidate
    /// schedule executes from scratch.
    fn fork(&self) -> Option<Box<dyn ForkRun + Send>>;

    /// Executes at most one scheduler choice. `Ok(true)` means one event
    /// executed; `Ok(false)` means the run is complete (quiescent, or out
    /// of budget with nothing pending) and its property check passed.
    ///
    /// # Errors
    ///
    /// Returns the violation description if the completed run fails its
    /// property check, or a mid-run failure such as a livelock report.
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String>;

    /// The canonical digest of the run's current state (see
    /// [`Runner::state_digest`](crate::Runner::state_digest)), if the
    /// system exposes one. The reduced explorer stamps it on failing
    /// schedules as `terminal-digest` meta; the default `None` keeps
    /// digest-less systems working, at the cost of that meta.
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Drives a [`ForkSystem`] run to completion under `sched`, property check
/// included — the run-to-completion equivalent of the `run_one` closures
/// passed to [`explore`](super::explore).
///
/// # Errors
///
/// Returns the violation description (or a mid-run failure such as a
/// livelock report) as `Err`.
pub fn run_fork_system(system: &dyn ForkSystem, sched: &mut dyn Scheduler) -> Result<(), String> {
    let mut run = system.spawn(sched);
    let result = loop {
        match run.step(sched) {
            Ok(true) => {}
            done => break done.map(|_| ()),
        }
    };
    // Report the terminal digest even when the run failed: the shrinker
    // and the replay tooling read it off a recording wrapper to compare
    // terminal states of minimized schedules.
    if sched.wants_terminal_digest() {
        if let Some(digest) = run.state_digest() {
            sched.note_terminal_digest(digest);
        }
    }
    result
}

/// An [`explore`](super::explore) factory as a [`ForkSystem`] whose runs
/// cannot fork: `spawn` builds the `run_one` closure (which enqueues
/// nothing yet), and the run's single `step` executes it to completion.
/// A closure that drives a [`Runner`] reports its
/// terminal digest to the scheduler itself.
pub(super) struct ClosureSystem<'a, F>(pub &'a F);

impl<'a, F, R: 'a> ForkSystem for ClosureSystem<'a, F>
where
    F: Fn() -> R + Sync,
    R: FnMut(&mut dyn Scheduler) -> Result<(), String>,
{
    fn spawn(&self, _sched: &mut dyn Scheduler) -> Box<dyn ForkRun + '_> {
        Box::new(ClosureRun((self.0)()))
    }
}

struct ClosureRun<R>(R);

impl<R: FnMut(&mut dyn Scheduler) -> Result<(), String>> ForkRun for ClosureRun<R> {
    fn fork(&self) -> Option<Box<dyn ForkRun + Send>> {
        None
    }
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
        (self.0)(sched).map(|()| false)
    }
}

/// The forkable run of anything that is a fresh [`Runner`]: the runner, a
/// budget for the events it executes, and the property check applied once
/// it stops. Forking is `Clone`. The three fixtures run on it
/// today; a driver that owns a `Runner<P: Clone>` gets checkpoint/fork the
/// same way.
#[derive(Clone)]
pub(crate) struct RunnerRun<P: Protocol> {
    pub(super) runner: Runner<P>,
    budget: u64,
    check: fn(&Runner<P>) -> Result<(), String>,
}

impl<P: Protocol> RunnerRun<P> {
    /// Wakes every node of `runner` into `sched` and wraps it, to stop
    /// with a livelock report after `budget` events.
    pub(crate) fn spawn(
        mut runner: Runner<P>,
        budget: u64,
        check: fn(&Runner<P>) -> Result<(), String>,
        sched: &mut dyn Scheduler,
    ) -> Self {
        runner.enqueue_wake_all(sched);
        RunnerRun {
            runner,
            budget,
            check,
        }
    }
}

impl<P> ForkRun for RunnerRun<P>
where
    P: Protocol + Clone + Send + 'static,
    P::Message: Send,
{
    fn fork(&self) -> Option<Box<dyn ForkRun + Send>> {
        Some(Box::new(self.clone()))
    }

    /// Mirrors `Runner::run`'s loop: quiescence, or an exhausted budget
    /// with nothing pending, completes the run; an exhausted budget with
    /// events pending is the livelock error `Runner::run` would return.
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
        let steps = self.runner.steps_executed();
        if steps < self.budget {
            if self.runner.step(sched) {
                return Ok(true);
            }
        } else if sched.pending() > 0 {
            let pending = sched.pending();
            return Err(LivelockError { steps, pending }.to_string());
        }
        (self.check)(&self.runner).map(|()| false)
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.runner.state_digest())
    }
}

/// The scheduler stack every candidate run executes under: `inner` decides
/// (a `RandomScheduler` for a walk, a [`DfsScheduler`] for a DFS prefix)
/// beneath the config's plans, beneath a recorder. `reseed` varies the
/// fault RNG per walk; the DFS passes `0` and keeps the plan's own seed.
pub(super) fn scheduler_stack<S: Scheduler>(
    config: &ExploreConfig,
    inner: S,
    reseed: u64,
) -> RecordingScheduler<FaultScheduler<S>> {
    let mut sched = config.plans.scheduler(inner, config.nodes);
    sched.reseed_faults(reseed);
    RecordingScheduler::new(sched)
}

/// Outcome of one executed DFS prefix.
#[derive(Debug, PartialEq)]
pub(super) struct PrefixOutcome {
    pub result: Result<(), String>,
    pub schedule: Schedule,
    pub branch_counts: Vec<usize>,
    /// Reduce-mode branch observations (empty otherwise).
    pub branch_obs: Vec<BranchObs>,
    /// Terminal state digest, if the run captured one (reduce mode only).
    pub terminal_digest: Option<u64>,
}

/// A branch-point snapshot: the forked run plus its full scheduler stack,
/// cloned immediately before the decision that completes the key's
/// decision path.
struct Checkpoint {
    run: Box<dyn ForkRun + Send>,
    sched: RecordingScheduler<FaultScheduler<DfsScheduler>>,
}

/// The snapshots one exploration has taken, by decision path; shared by
/// its worker threads.
#[derive(Default)]
pub(super) struct Checkpoints(Mutex<HashMap<Vec<usize>, Checkpoint>>);

impl Checkpoints {
    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<usize>, Checkpoint>> {
        self.0.lock().expect("checkpoint map lock")
    }

    /// A fork of the deepest checkpoint on a proper prefix of `prefix`,
    /// its scheduler retargeted at `prefix`.
    fn resume(&self, prefix: &[usize]) -> Option<Checkpoint> {
        let map = self.map();
        let cp = (0..prefix.len()).rev().find_map(|cut| map.get(&prefix[..cut]))?;
        let mut sched = cp.sched.clone();
        sched.inner_mut().inner_mut().set_prefix(prefix.to_vec());
        Some(Checkpoint {
            run: cp.run.fork().expect("a checkpointed run forks"),
            sched,
        })
    }
}

/// Executes one DFS candidate prefix and returns its outcome.
///
/// With `checkpoints`, the run starts from the deepest checkpoint whose key
/// is a proper prefix of this run's decision path — or from scratch if
/// there is none — and snapshots every new branch point it passes that it
/// can fork at (decision positions in `[prefix.len(), depth)` with more
/// than one pending event — exactly the positions children fork at).
/// Without, it executes from scratch and stores nothing. The outcome is
/// identical either way, which `config.verify_snapshots` double-checks for
/// every resumed run by also running it from scratch.
pub(super) fn run_prefix(
    system: &dyn ForkSystem,
    config: &ExploreConfig,
    prefix: &[usize],
    checkpoints: Option<&Checkpoints>,
) -> PrefixOutcome {
    let depth = config.dfs_depth;
    let reduce = config.reduce == ReduceMode::Sleep;
    let resumed = checkpoints.and_then(|c| c.resume(prefix));
    let verify = config.verify_snapshots && resumed.is_some();
    let (mut run, mut sched) = match resumed {
        Some(cp) => (cp.run as Box<dyn ForkRun + '_>, cp.sched),
        None => {
            let dfs = if reduce {
                DfsScheduler::reduced(prefix.to_vec(), depth)
            } else {
                DfsScheduler::new(prefix.to_vec(), depth)
            };
            let mut sched = scheduler_stack(config, dfs, 0);
            (system.spawn(&mut sched), sched)
        }
    };

    let result = loop {
        let d = sched.inner().inner().decisions();
        // Snapshot *before* the step that would complete the decision path
        // `prefix ++ [0] * (d - prefix.len())` — the checkpoint key — so a
        // sibling resuming here replays that decision under its own
        // prefix. Only the first run through a given path stores it.
        let mut snapshot = None;
        if let Some(checkpoints) = checkpoints {
            if d >= prefix.len() && d < depth && sched.inner().inner().pending() > 1 {
                let mut key = prefix.to_vec();
                key.resize(d, 0);
                if !checkpoints.map().contains_key(&key) {
                    snapshot = run.fork().map(|run| {
                        let sched = sched.clone();
                        (checkpoints, key, Checkpoint { run, sched })
                    });
                }
            }
        }
        match run.step(&mut sched) {
            Ok(true) => {}
            done => break done.map(|_| ()),
        }
        if let Some((checkpoints, key, checkpoint)) = snapshot {
            // Only keep the snapshot if this step really consumed a DFS
            // decision (the choice could have been served by the fault
            // layer instead).
            if sched.inner().inner().decisions() == d + 1 {
                checkpoints.map().entry(key).or_insert(checkpoint);
            }
        }
    };
    let terminal_digest = if reduce {
        run.state_digest().or_else(|| sched.terminal_digest())
    } else {
        None
    };
    let (mut fault_sched, schedule) = sched.into_parts();
    let (branch_counts, branch_obs) = std::mem::take(fault_sched.inner_mut()).into_observations();
    let out = PrefixOutcome {
        result,
        schedule,
        branch_counts,
        branch_obs,
        terminal_digest,
    };
    if verify {
        let scratch = run_prefix(system, config, prefix, None);
        assert!(
            scratch == out,
            "snapshot/replay divergence at dfs prefix {prefix:?}:\n\
             resumed:  {out:?}\nscratch:  {scratch:?}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::explore::{
        explore, explore_fork, fixtures, report_fingerprint, ExploreConfig, ReduceMode,
    };
    use crate::Scheduler;

    #[test]
    fn a_closure_that_is_not_send_explores_at_any_job_count() {
        // `explore` asks `Sync` of the factory but nothing of the closure
        // it builds: a run may hold an `Rc`, because a worker thread
        // builds, runs and drops it without it ever crossing threads.
        let base = ExploreConfig {
            random_walks: 8,
            dfs_budget: 48,
            dfs_depth: 5,
            seed: 3,
            ..ExploreConfig::default()
        };
        let run = |config: &ExploreConfig| {
            explore(config, || {
                let clients = std::rc::Rc::new(3);
                move |sched: &mut dyn Scheduler| fixtures::run_racy(*clients, sched)
            })
        };
        let parallel = run(&ExploreConfig {
            jobs: 2,
            ..base.clone()
        });
        assert_eq!(report_fingerprint(&run(&base)), report_fingerprint(&parallel));
    }

    #[test]
    fn fork_exploration_matches_the_closure_contract() {
        // The checkpointing fork path and the plain closure path must make
        // identical searches — same counters, same failure, same schedule.
        for (walks, dfs, depth) in [(8, 64, 5), (0, 96, 6)] {
            let config = ExploreConfig {
                random_walks: walks,
                dfs_budget: dfs,
                dfs_depth: depth,
                seed: 3,
                ..ExploreConfig::default()
            };
            let closure = explore(&config, || |sched: &mut dyn Scheduler| {
                fixtures::run_racy(3, sched)
            });
            let forked = explore_fork(&config, &fixtures::RacySystem::new(3));
            assert_eq!(report_fingerprint(&closure), report_fingerprint(&forked));
        }
    }

    #[test]
    fn byzantine_fork_exploration_matches_the_closure_contract() {
        use crate::fault::{ByzantinePlan, Plans};
        // Checkpoint/fork must clone the Byzantine scheduler state
        // faithfully: both paths make the identical search.
        let config = ExploreConfig {
            random_walks: 8,
            dfs_budget: 64,
            dfs_depth: 5,
            seed: 3,
            plans: Plans {
                byzantine: Some(ByzantinePlan::new(5, 1)),
                ..Plans::default()
            },
            nodes: 4,
            ..ExploreConfig::default()
        };
        let closure = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_equiv(3, sched)
        });
        let forked = explore_fork(&config, &fixtures::EquivSystem::new(3));
        assert_eq!(report_fingerprint(&closure), report_fingerprint(&forked));
    }

    #[test]
    fn checkpointing_changes_nothing_and_verifies_against_scratch() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 128,
            dfs_depth: 6,
            seed: 0,
            ..ExploreConfig::default()
        };
        let scratch = explore_fork(
            &ExploreConfig {
                checkpoint: false,
                ..base.clone()
            },
            &fixtures::RacySystem::new(3),
        );
        // verify_snapshots re-executes every resumed run from scratch and
        // panics on divergence — running it is the equivalence check.
        let checked = explore_fork(
            &ExploreConfig {
                verify_snapshots: true,
                ..base
            },
            &fixtures::RacySystem::new(3),
        );
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&checked));
    }

    #[test]
    fn reduced_checkpointing_changes_nothing_and_verifies_against_scratch() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 256,
            dfs_depth: 6,
            seed: 0,
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let scratch = explore_fork(
            &ExploreConfig {
                checkpoint: false,
                ..base.clone()
            },
            &fixtures::RacySystem::tolerant(3),
        );
        // verify_snapshots also re-runs every resumed run from scratch and
        // panics on any divergence, including in the reduce-mode branch
        // observations and terminal digests.
        let checked = explore_fork(
            &ExploreConfig {
                verify_snapshots: true,
                ..base
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&checked));
    }
}
