//! Systematic interleaving exploration.
//!
//! The paper's guarantees are quantified over *every* asynchronous schedule
//! (finite but unbounded delays); a handful of seeded random runs samples
//! that space thinly. This module searches it deliberately, in the style of
//! deterministic-simulation testing: a caller-supplied **system factory**
//! builds a fresh run of the system under test for each candidate schedule,
//! drives it against a scheduler the explorer controls and reports whether
//! the run satisfied its properties; the explorer tries many schedules — a
//! bounded **random walk** over seeds plus a depth-bounded **branch-point
//! DFS** that systematically enumerates which pending event fires at each
//! of the first few steps — and, on the first failure, hands back the exact
//! [`Schedule`] so the failure replays forever (and can be
//! [shrunk](crate::shrink)).
//!
//! Two things make the search fast without changing its answers:
//!
//! * **Parallelism** — [`ExploreConfig::jobs`] fans candidate runs out over
//!   `std::thread::scope` workers. Speculative results are merged back in
//!   the exact order the sequential loop would consume them, so reports,
//!   counters and failing schedules are byte-identical at any job count.
//! * **Checkpoint/fork** — every system runs as a [`ForkSystem`] (an
//!   [`explore`] closure is one whose runs cannot fork). Where runs can
//!   (cloneable state, steppable runs), the DFS snapshots a run at each
//!   branch point and *forks* a sibling from the deepest cached checkpoint
//!   instead of re-executing the shared prefix from scratch. Enabled by
//!   [`ExploreConfig::checkpoint`]; the paranoid
//!   [`ExploreConfig::verify_snapshots`] debug flag also re-executes every
//!   resumed run from scratch and panics on any divergence.
//!
//! A third lever, **dynamic partial-order reduction**
//! ([`ExploreConfig::reduce`]), *does* change which schedules run — it
//! prunes interleavings that provably reach states another explored
//! interleaving already covers, so deep searches finish in a fraction of
//! the runs without losing violations. Two mechanisms compose (see
//! `docs/testing.md`):
//!
//! * **Sleep sets** over the dynamic independence relation: each executed
//!   choice's [`Footprint`](crate::Footprint) (node states read/written,
//!   link queues mutated) is recorded by the runner; sibling branches whose
//!   choices commute with everything separating them are explored once,
//!   not once per order.
//! * **Branch-state dedup**: a canonical [`StateDigest`](crate::StateDigest)
//!   of the full run state (node state, knowledge, in-flight queues,
//!   metrics) is taken at every branch point; a branch node whose (depth,
//!   state, pending-set) key was already expanded is not expanded again.
//!
//! Reduction defaults to [`ReduceMode::None`], which is byte-for-byte the
//! unreduced search.
//!
//! # Example
//!
//! ```
//! use ard_netsim::explore::{explore, ExploreConfig};
//! use ard_netsim::Scheduler;
//!
//! // A "system" whose property always holds: the explorer finds nothing.
//! let report = explore(&ExploreConfig::default(), || |sched: &mut dyn Scheduler| {
//!     let mut r = ard_netsim::explore::fixtures::racy_network(2);
//!     r.enqueue_wake_all(sched);
//!     r.run(sched, 1_000).map_err(|e| e.to_string())?;
//!     Ok(()) // ignore the planted bug: pretend all is well
//! });
//! assert!(report.failure.is_none());
//! assert!(report.runs > 0);
//! ```

mod dfs;
mod engine;
pub mod fixtures;
mod fork;

pub use dfs::DfsScheduler;
pub use fork::{run_fork_system, ForkRun, ForkSystem};

use crate::fault::{ByzantinePlan, ChurnPlan, FaultPlan};
use crate::record::Schedule;
use crate::scheduler::Scheduler;

/// Budget and shape of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Number of random-walk schedules to try first (per-walk seeds are
    /// derived from `seed` by splitmix-style mixing, so adjacent base
    /// seeds never share walks).
    pub random_walks: u64,
    /// Maximum number of DFS schedules to try after the walks.
    pub dfs_budget: u64,
    /// Branch-point depth: the DFS enumerates every combination of "which
    /// pending event fires" for the first `dfs_depth` steps (later steps
    /// fall back to oldest-first).
    pub dfs_depth: usize,
    /// Base seed for the random-walk phase.
    pub seed: u64,
    /// Optional fault plan: every candidate schedule runs under a
    /// [`FaultScheduler`](crate::fault::FaultScheduler) injecting these
    /// faults, so fault choices join the search space (the random-walk
    /// phase re-seeds the fault RNG per walk; the DFS phase keeps the
    /// plan's own seed).
    pub fault: Option<FaultPlan>,
    /// Optional Byzantine plan plus the node count its timeline is sized
    /// for: every candidate schedule runs with the plan attached, so
    /// forgeries, selective silence and stale restarts join the search
    /// space. Unlike `fault`, the plan keeps its own seed in both phases —
    /// callers typically derive property checks (excluded-node sets) from
    /// the plan, which must match the plan the runs actually execute.
    pub byzantine: Option<(ByzantinePlan, usize)>,
    /// Optional churn plan plus the node count its timeline is sized for.
    /// The system factory is responsible for withholding the initial
    /// wake-ups of the plan's joiners, exactly as a driver would.
    pub churn: Option<(ChurnPlan, usize)>,
    /// Worker threads for candidate runs. Results are byte-identical at
    /// any value; `1` (the default) executes everything inline on the
    /// caller's thread with no speculation.
    pub jobs: usize,
    /// Reuse DFS prefixes by forking checkpoints instead of re-executing
    /// them (only effective for [`explore_fork`] systems; the closure
    /// contract of [`explore`] always runs from scratch). On by default;
    /// results are byte-identical either way.
    pub checkpoint: bool,
    /// Debug flag: additionally re-execute every DFS run resumed from a
    /// checkpoint from scratch and panic if the two diverge in result,
    /// recorded schedule, branch counts or observations.
    pub verify_snapshots: bool,
    /// Partial-order reduction applied to the DFS phase (the random-walk
    /// phase is sampling, not enumeration, and is never reduced). The
    /// default, [`ReduceMode::None`], reproduces the unreduced search
    /// byte for byte.
    pub reduce: ReduceMode,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            random_walks: 32,
            dfs_budget: 32,
            dfs_depth: 4,
            seed: 0,
            fault: None,
            byzantine: None,
            churn: None,
            jobs: 1,
            checkpoint: true,
            verify_snapshots: false,
            reduce: ReduceMode::None,
        }
    }
}

/// Partial-order reduction mode for the DFS phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReduceMode {
    /// Full enumeration — every decision path through the branch window is
    /// its own run. The default; all existing reports and schedules are
    /// unchanged under it.
    #[default]
    None,
    /// Sleep-set pruning over the dynamic footprint-derived independence
    /// relation, plus branch-state dedup on canonical state digests.
    /// Prunes only interleavings whose reachable states another explored
    /// interleaving covers; under a fault/Byzantine/churn plan the dedup
    /// arm switches off (timeline state is not captured by the digest) and
    /// sleep sets degrade gracefully via the fault layer's
    /// `Footprint::everything` widening.
    Sleep,
}

impl std::fmt::Display for ReduceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceMode::None => write!(f, "none"),
            ReduceMode::Sleep => write!(f, "sleep"),
        }
    }
}

/// Why an exploration stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// Every candidate schedule (within the depth window, after any
    /// reduction) was executed: the search is *complete*, and a clean
    /// report means no violation exists in the explored space.
    #[default]
    FrontierExhausted,
    /// [`ExploreConfig::dfs_budget`] ran out with candidate prefixes still
    /// unexplored: a clean report only covers the schedules that ran.
    BudgetExhausted,
    /// The search stopped at its first property violation.
    Violation,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::FrontierExhausted => write!(f, "frontier exhausted"),
            StopReason::BudgetExhausted => write!(f, "budget exhausted"),
            StopReason::Violation => write!(f, "violation found"),
        }
    }
}

/// Where a failing schedule came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Found by the random-walk phase, under this seed.
    RandomWalk {
        /// The (mixed) seed of the failing walk.
        seed: u64,
    },
    /// Found by the DFS phase, with this branch-decision prefix.
    Dfs {
        /// Pending-event index chosen at each of the first steps.
        prefix: Vec<usize>,
    },
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Origin::RandomWalk { seed } => write!(f, "random-walk seed={seed}"),
            Origin::Dfs { prefix } => {
                let p: Vec<String> = prefix.iter().map(usize::to_string).collect();
                write!(f, "dfs prefix=[{}]", p.join(","))
            }
        }
    }
}

/// A property violation found during exploration.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// The exact schedule that produced the violation (strict-replayable).
    pub schedule: Schedule,
    /// The property-check failure message.
    pub reason: String,
    /// 0-based index of the failing run within the exploration.
    pub run_index: u64,
    /// Which search phase found it.
    pub origin: Origin,
}

/// Summary of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Total schedules executed.
    pub runs: u64,
    /// Schedules executed by the random-walk phase.
    pub random_walks: u64,
    /// Schedules executed by the DFS phase.
    pub dfs_runs: u64,
    /// The first violation found, if any (the exploration stops there).
    pub failure: Option<ExploreFailure>,
    /// Why the search ended. Identical at every job count, like every
    /// other field.
    pub stop: StopReason,
    /// Sibling branches pruned by sleep sets (each would have been the
    /// root of its own DFS subtree). Zero under [`ReduceMode::None`].
    pub sleep_pruned: u64,
    /// Sibling branches pruned because their branch node's
    /// (depth, state-digest, pending-set) key was already expanded. Zero
    /// under [`ReduceMode::None`] or whenever a fault/Byzantine/churn plan
    /// disables the dedup arm.
    pub digest_deduped: u64,
}

/// Searches schedules for a property violation.
///
/// `factory` builds one `run_one` closure per candidate schedule; each
/// closure must construct the system under test *from scratch*, drive it
/// with the given scheduler and return `Err(reason)` on any property
/// violation (requirements, budgets, livelock, a fixture invariant, …).
/// Determinism of the runs given the choice sequence is what makes the
/// returned schedule replayable. The factory is shared across worker
/// threads (hence `Sync`); with [`ExploreConfig::jobs`] `> 1` candidate
/// runs execute speculatively in parallel, but outcomes are consumed in
/// the exact sequential order, so the report, counters and any failing
/// schedule are byte-identical at every job count.
///
/// The search runs `config.random_walks` seeded random schedules, then up
/// to `config.dfs_budget` DFS schedules enumerating the first
/// `config.dfs_depth` branch points, and stops at the first failure. Every
/// run is recorded, so the failing schedule comes back verbatim with
/// `origin` and `reason` metadata attached.
///
/// Systems with cloneable state can use [`explore_fork`] instead, which
/// additionally reuses shared DFS prefixes via checkpoint/fork.
pub fn explore<F, R>(config: &ExploreConfig, factory: F) -> ExploreReport
where
    F: Fn() -> R + Sync,
    R: FnMut(&mut dyn Scheduler) -> Result<(), String>,
{
    engine::explore_engine(config, &fork::ClosureSystem(&factory))
}

/// [`explore`] for [`ForkSystem`] implementors: identical search order and
/// results, but with [`ExploreConfig::checkpoint`] enabled the DFS phase
/// forks each run from the deepest cached branch-point snapshot instead of
/// re-executing its shared prefix from scratch.
pub fn explore_fork(config: &ExploreConfig, system: &dyn ForkSystem) -> ExploreReport {
    engine::explore_engine(config, system)
}

/// Renders a report (counters + failing schedule text) for byte-level
/// comparison across engine configurations.
#[cfg(test)]
fn report_fingerprint(report: &ExploreReport) -> String {
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
        "runs {} walks {} dfs {} stop {} sleep-pruned {} deduped {} failure {}",
        report.runs,
        report.random_walks,
        report.dfs_runs,
        report.stop,
        report.sleep_pruned,
        report.digest_deduped,
        failure
    )
}
