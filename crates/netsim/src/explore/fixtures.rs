//! Deliberately buggy protocols for exercising the explorer and
//! shrinker — test fixtures, not part of the discovery reproduction.
//!
//! [`RacyNode`] plants a classic ordering bug: clients race their
//! requests to a coordinator that implicitly assumes the lowest-id
//! client's request always arrives first. Benign schedules (global
//! FIFO over index-ordered wake-ups) never violate the assumption;
//! an adversarial schedule that wakes the highest-id client early and
//! rushes its message through does — which is exactly the kind of
//! corner [`explore`](super::explore) exists to find and
//! [`shrink`](crate::shrink) to minimize.
//!
//! Every fixture is exposed two ways: as a `run_one`-style function
//! ([`run_racy`], [`run_fragile`], [`run_equiv`]) and as a checkpointable
//! [`ForkSystem`] ([`RacySystem`], [`FragileSystem`], [`EquivSystem`])
//! whose runs the explorer's DFS can snapshot and fork. The functions are
//! [`run_fork_system`](super::run_fork_system) over the systems, so both
//! execute identically.

use super::fork::RunnerRun;
use super::{ForkRun, ForkSystem};
use crate::envelope::Envelope;
use crate::runner::{Protocol, Runner};
use crate::scheduler::{Scheduler, StateDigest};
use crate::{Context, NodeId};

/// The step budget every fixture runs under before declaring a livelock.
const FIXTURE_STEP_BUDGET: u64 = 10_000;

/// Whether node 0 (hub / voter) is awake with nothing in flight. The
/// fragile and equiv checks only judge such *complete* states, so schedule
/// shrinking cannot fake a failure by merely truncating deliveries.
fn complete<P: Protocol>(runner: &Runner<P>) -> bool {
    runner.links_empty() && runner.is_awake(NodeId::new(0))
}

/// The fixture's only message: a client's request for the lease.
#[derive(Clone, Debug)]
pub struct Request;

impl Envelope for Request {
    fn kind(&self) -> &'static str {
        "request"
    }
    fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
    fn aux_bits(&self) -> u64 {
        0
    }
}

/// One node of the planted-bug network: node 0 is the coordinator,
/// every other node a client that requests a lease on wake-up.
///
/// The planted bug: the coordinator grants the lease to the *first*
/// request it receives, written against the (wrong) assumption that
/// requests arrive in client-id order — so a schedule in which the
/// highest-id client's request arrives first hands the lease to a
/// client the coordinator's bookkeeping believes cannot hold it.
#[derive(Clone, Debug)]
pub enum RacyNode {
    /// The coordinator: remembers who was granted the lease.
    Coordinator {
        /// First requester, once a request arrived.
        granted: Option<NodeId>,
    },
    /// A client: knows the coordinator's id.
    Client,
}

impl Protocol for RacyNode {
    type Message = Request;

    fn on_wake(&mut self, ctx: &mut Context<'_, Request>) {
        if matches!(self, RacyNode::Client) {
            ctx.send(NodeId::new(0), Request);
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: Request, _ctx: &mut Context<'_, Request>) {
        if let RacyNode::Coordinator { granted } = self {
            granted.get_or_insert(from);
        }
    }

    fn digest_state(&self, d: &mut StateDigest) {
        match self {
            RacyNode::Coordinator { granted } => {
                d.mix(1);
                d.mix(granted.map_or(u64::MAX, |g| g.index() as u64));
            }
            RacyNode::Client => d.mix(2),
        }
    }
}

/// Builds the fixture network: one coordinator plus `clients` clients,
/// each client initially knowing only the coordinator.
///
/// # Panics
///
/// Panics if `clients == 0`.
pub fn racy_network(clients: usize) -> Runner<RacyNode> {
    assert!(clients >= 1, "the race needs at least one client");
    let mut nodes = vec![RacyNode::Coordinator { granted: None }];
    let mut knowledge = vec![vec![]];
    for _ in 0..clients {
        nodes.push(RacyNode::Client);
        knowledge.push(vec![NodeId::new(0)]);
    }
    Runner::new(nodes, knowledge)
}

/// The fixture's property check: the lease must not sit with the
/// highest-id client (the coordinator's bookkeeping assumes it never
/// can). Returns a failure description when the planted bug fired.
pub(crate) fn racy_violation(runner: &Runner<RacyNode>) -> Option<String> {
    let highest = NodeId::new(runner.len() - 1);
    match runner.node(NodeId::new(0)) {
        RacyNode::Coordinator {
            granted: Some(winner),
        } if *winner == highest => Some(format!(
            "lease granted to highest-id client {winner}: its request outran every other"
        )),
        _ => None,
    }
}

/// The racy fixture as a checkpointable [`ForkSystem`]: exploring it
/// via [`explore_fork`](super::explore_fork) lets the DFS fork runs at
/// cached branch points instead of replaying shared prefixes.
#[derive(Clone, Copy, Debug)]
pub struct RacySystem {
    clients: usize,
    tolerant: bool,
    spin: u32,
}

impl RacySystem {
    /// The standard fixture: `clients` racing clients, planted bug
    /// armed.
    pub fn new(clients: usize) -> Self {
        RacySystem {
            clients,
            tolerant: false,
            spin: 0,
        }
    }

    /// Benchmark mode: identical network and schedules, but the
    /// planted violation is ignored, so a deep exhaustive search runs
    /// to its full budget instead of stopping at the first race.
    pub fn tolerant(clients: usize) -> Self {
        RacySystem {
            tolerant: true,
            ..Self::new(clients)
        }
    }

    /// Attaches `spin` rounds of deterministic mixing work to every
    /// executed event, modeling protocols whose handlers do real
    /// computation (knowledge-set merges, signature checks, …). The
    /// work feeds an accumulator carried in the run state, so it is
    /// identical however the run is reached — from scratch or resumed
    /// from a forked checkpoint — and the scheduler choices are
    /// untouched. This is the knob the explorer benchmark uses to
    /// weight prefix re-execution.
    pub fn spin(mut self, spin: u32) -> Self {
        self.spin = spin;
        self
    }
}

/// The generic run plus [`RacySystem::spin`]'s per-event mixing work.
#[derive(Clone)]
struct RacyRun {
    run: RunnerRun<RacyNode>,
    spin: u32,
    acc: u64,
}

impl ForkSystem for RacySystem {
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun + '_> {
        let check = if self.tolerant {
            |_: &Runner<RacyNode>| Ok(())
        } else {
            |runner: &Runner<RacyNode>| racy_violation(runner).map_or(Ok(()), Err)
        };
        Box::new(RacyRun {
            run: RunnerRun::spawn(racy_network(self.clients), FIXTURE_STEP_BUDGET, check, sched),
            spin: self.spin,
            acc: 0,
        })
    }
}

impl ForkRun for RacyRun {
    fn fork(&self) -> Option<Box<dyn ForkRun + Send>> {
        Some(Box::new(self.clone()))
    }
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
        let stepped = self.run.step(sched)?;
        if stepped && self.spin > 0 {
            let mut z = self.acc ^ self.run.runner.steps_executed();
            for _ in 0..self.spin {
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            self.acc = std::hint::black_box(z);
        }
        Ok(stepped)
    }
    fn state_digest(&self) -> Option<u64> {
        self.run.state_digest()
    }
}

/// Runs the fixture under `sched` to quiescence (or a small step
/// budget) and applies `racy_violation` — the `run_one` closure the
/// explorer and shrinker tests use.
///
/// # Errors
///
/// Returns the violation description (or a livelock report) as `Err`.
pub fn run_racy(clients: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
    super::run_fork_system(&RacySystem::new(clients), sched)
}

/// Messages of the *fragile* fixture: a hub's ping and a client's pong.
#[derive(Clone, Debug)]
pub enum PingPong {
    /// Hub → client.
    Ping,
    /// Client → hub.
    Pong,
}

impl Envelope for PingPong {
    fn kind(&self) -> &'static str {
        match self {
            PingPong::Ping => "ping",
            PingPong::Pong => "pong",
        }
    }
    fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
    fn aux_bits(&self) -> u64 {
        1
    }
}

/// One node of the planted *fault-dependent* bug network: node 0 is a
/// hub that pings every client once on wake-up and counts pongs;
/// clients pong every ping.
///
/// The planted bug: the hub assumes the network is lossless and
/// crash-free — with no faults every ping begets a pong and the
/// invariant `pongs == clients` holds at quiescence under *any*
/// schedule, but a single dropped message (or a delivery discarded by
/// a crashed client) silences a client forever. This is the fixture
/// the explorer's fault search exists to break.
#[derive(Clone, Debug)]
pub enum FragileNode {
    /// The hub: counts the pongs it has heard.
    Hub {
        /// Pongs received so far.
        pongs: usize,
        /// Clients it pinged.
        clients: usize,
    },
    /// A client: pongs every ping.
    Client,
}

impl Protocol for FragileNode {
    type Message = PingPong;

    fn on_wake(&mut self, ctx: &mut Context<'_, PingPong>) {
        if let FragileNode::Hub { clients, .. } = self {
            for c in 1..=*clients {
                ctx.send(NodeId::new(c), PingPong::Ping);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: PingPong, ctx: &mut Context<'_, PingPong>) {
        match (self, msg) {
            (FragileNode::Client, PingPong::Ping) => ctx.send(from, PingPong::Pong),
            (FragileNode::Hub { pongs, .. }, PingPong::Pong) => *pongs += 1,
            _ => {}
        }
    }

    fn digest_state(&self, d: &mut StateDigest) {
        match self {
            FragileNode::Hub { pongs, clients } => {
                d.mix(1);
                d.mix(*pongs as u64);
                d.mix(*clients as u64);
            }
            FragileNode::Client => d.mix(2),
        }
    }
}

/// Builds the fragile network: one hub plus `clients` clients, with
/// mutual knowledge between the hub and each client.
///
/// # Panics
///
/// Panics if `clients == 0`.
pub(crate) fn fragile_network(clients: usize) -> Runner<FragileNode> {
    assert!(clients >= 1, "the fragile hub needs at least one client");
    let mut nodes = vec![FragileNode::Hub { pongs: 0, clients }];
    let mut knowledge = vec![(1..=clients).map(NodeId::new).collect::<Vec<_>>()];
    for _ in 0..clients {
        nodes.push(FragileNode::Client);
        knowledge.push(vec![NodeId::new(0)]);
    }
    Runner::new(nodes, knowledge)
}

/// The fragile fixture as a checkpointable [`ForkSystem`]; see
/// [`RacySystem`].
#[derive(Clone, Copy, Debug)]
pub struct FragileSystem {
    clients: usize,
}

impl FragileSystem {
    /// The fixture with `clients` clients behind the fragile hub.
    pub fn new(clients: usize) -> Self {
        FragileSystem { clients }
    }
}

impl ForkSystem for FragileSystem {
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun + '_> {
        let check = |runner: &Runner<FragileNode>| match runner.node(NodeId::new(0)) {
            FragileNode::Hub { pongs, clients } if complete(runner) && pongs < clients => {
                Err(format!(
                    "fragile hub heard only {pongs} of {clients} pongs: a fault silenced a client"
                ))
            }
            _ => Ok(()),
        };
        Box::new(RunnerRun::spawn(
            fragile_network(self.clients),
            FIXTURE_STEP_BUDGET,
            check,
            sched,
        ))
    }
}

/// Runs the fragile fixture under `sched` and checks its (fault-naive)
/// invariant, against a complete state only (hub awake, nothing in flight).
///
/// # Errors
///
/// Returns the violation description (or a livelock report) as `Err`.
pub fn run_fragile(clients: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
    super::run_fork_system(&FragileSystem::new(clients), sched)
}

/// The *equiv* fixture's only message: an endorsement making its
/// receiver a leader. Forgeable — a Byzantine sender can mint
/// endorsements the voter never issued, whatever the salt flavor.
#[derive(Clone, Debug)]
pub struct Endorse;

impl Envelope for Endorse {
    fn kind(&self) -> &'static str {
        "endorse"
    }
    fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
    fn aux_bits(&self) -> u64 {
        0
    }
    fn forge(_src: NodeId, _dst: NodeId, _salt: u32) -> Option<Self> {
        Some(Endorse)
    }
}

/// One node of the planted *equivocation-dependent* bug network: node 0
/// is a voter that endorses exactly one candidate (node 1) on wake-up;
/// every other node is a candidate that declares itself leader on
/// receiving an endorsement.
///
/// The planted bug: candidates trust endorsements without
/// authentication. Under every honest schedule — any interleaving, any
/// link faults — at most candidate 1 ever leads, so single-leadership
/// holds. A Byzantine equivocator forging endorsements to other
/// candidates elects a second leader: the violation *requires* a
/// [`Choice::Forge`](crate::Choice::Forge) in the schedule, which is
/// exactly what the explorer's Byzantine search exists to inject.
#[derive(Clone, Debug)]
pub enum EquivNode {
    /// The voter: endorses candidate 1 once, on wake-up.
    Voter,
    /// A candidate: leads as soon as anyone endorses it.
    Candidate {
        /// Whether an endorsement arrived.
        leader: bool,
    },
}

impl Protocol for EquivNode {
    type Message = Endorse;

    fn on_wake(&mut self, ctx: &mut Context<'_, Endorse>) {
        if matches!(self, EquivNode::Voter) {
            ctx.send(NodeId::new(1), Endorse);
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: Endorse, _ctx: &mut Context<'_, Endorse>) {
        if let EquivNode::Candidate { leader } = self {
            *leader = true;
        }
    }

    fn digest_state(&self, d: &mut StateDigest) {
        match self {
            EquivNode::Voter => d.mix(1),
            EquivNode::Candidate { leader } => {
                d.mix(2);
                d.mix(u64::from(*leader));
            }
        }
    }
}

/// Builds the equiv network: one voter plus `candidates` candidates,
/// with mutual voter ↔ candidate knowledge.
///
/// # Panics
///
/// Panics if `candidates < 2` (a second leader needs a second
/// candidate).
pub(crate) fn equiv_network(candidates: usize) -> Runner<EquivNode> {
    assert!(candidates >= 2, "equivocation needs at least two candidates");
    let mut nodes = vec![EquivNode::Voter];
    let mut knowledge = vec![(1..=candidates).map(NodeId::new).collect::<Vec<_>>()];
    for _ in 0..candidates {
        nodes.push(EquivNode::Candidate { leader: false });
        knowledge.push(vec![NodeId::new(0)]);
    }
    Runner::new(nodes, knowledge)
}

/// The equiv fixture's property check: at most one candidate may lead.
/// Returns a failure description when forged endorsements elected a
/// second leader.
pub(crate) fn equiv_violation(runner: &Runner<EquivNode>) -> Option<String> {
    let leaders: Vec<NodeId> = (1..runner.len())
        .map(NodeId::new)
        .filter(|&c| matches!(runner.node(c), EquivNode::Candidate { leader: true }))
        .collect();
    if leaders.len() >= 2 {
        let ids: Vec<String> = leaders.iter().map(ToString::to_string).collect();
        Some(format!(
            "forged endorsements elected {} leaders ({}): the voter endorsed only candidate 1",
            leaders.len(),
            ids.join(", ")
        ))
    } else {
        None
    }
}

/// The equiv fixture as a checkpointable [`ForkSystem`]; see
/// [`RacySystem`].
#[derive(Clone, Copy, Debug)]
pub struct EquivSystem {
    candidates: usize,
}

impl EquivSystem {
    /// The fixture with `candidates` candidates behind the voter.
    pub fn new(candidates: usize) -> Self {
        EquivSystem { candidates }
    }
}

impl ForkSystem for EquivSystem {
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun + '_> {
        let check = |runner: &Runner<EquivNode>| {
            if !complete(runner) {
                return Ok(());
            }
            equiv_violation(runner).map_or(Ok(()), Err)
        };
        Box::new(RunnerRun::spawn(
            equiv_network(self.candidates),
            FIXTURE_STEP_BUDGET,
            check,
            sched,
        ))
    }
}

/// Runs the equiv fixture under `sched` and checks single-leadership.
/// Honest schedules always pass; breaking it takes a Byzantine plan
/// (see [`ExploreConfig::plans`](super::ExploreConfig::plans)).
///
/// # Errors
///
/// Returns the violation description (or a livelock report) as `Err`.
pub fn run_equiv(candidates: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
    super::run_fork_system(&EquivSystem::new(candidates), sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use crate::fault::{FaultPlan, Plans};
    use crate::record::ReplayScheduler;
    use crate::{Choice, FifoScheduler};

    #[test]
    fn fixture_is_clean_under_fifo() {
        let mut sched = FifoScheduler::new();
        assert!(run_racy(3, &mut sched).is_ok());
    }

    #[test]
    fn fragile_fixture_is_clean_without_faults() {
        // Even a full exploration finds nothing: the fixture only breaks
        // when a fault silences a client.
        let report = explore(&ExploreConfig::default(), || {
            |sched: &mut dyn Scheduler| run_fragile(3, sched)
        });
        assert!(report.failure.is_none());
    }

    #[test]
    fn fault_search_finds_and_shrinks_the_planted_fragile_bug() {
        let config = ExploreConfig {
            random_walks: 64,
            dfs_budget: 0,
            dfs_depth: 0,
            seed: 0,
            plans: Plans {
                faults: Some(FaultPlan::new(1).with_drop(0.25)),
                ..Plans::default()
            },
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            run_fragile(1, sched)
        });
        let failure = report.failure.expect("fault search should silence the client");
        assert!(failure.reason.contains("pongs"));

        // Strict replay without any fault machinery — the injected faults
        // are ordinary recorded choices.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = run_fragile(1, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);

        // The shrinker minimizes it to the essence: the hub's wake plus the
        // fault that silences its client (a dropped ping, or a delivered
        // ping whose pong is dropped).
        let result = crate::shrink::shrink(&failure.schedule, || {
            |sched: &mut dyn Scheduler| run_fragile(1, sched)
        });
        assert!(
            (2..=3).contains(&result.schedule.len()),
            "expected a 2-3 choice witness, got:\n{}",
            result.schedule.to_text()
        );
        let mut replay = ReplayScheduler::strict(&result.schedule);
        assert_eq!(
            run_fragile(1, &mut replay).unwrap_err(),
            result.reason
        );
    }

    #[test]
    fn equiv_fixture_is_clean_without_a_byzantine_plan() {
        // A full exploration — interleavings alone, no forgeries — finds
        // nothing: only the endorsed candidate ever leads.
        let report = explore(&ExploreConfig::default(), || {
            |sched: &mut dyn Scheduler| run_equiv(3, sched)
        });
        assert!(report.failure.is_none());
    }

    #[test]
    fn byzantine_search_finds_and_shrinks_the_planted_equivocation() {
        use crate::fault::ByzantinePlan;
        // Seed 3 makes candidate 3 the equivocator, forging endorsements
        // to candidates 1 and 2 — two leaders once both deliver.
        let config = ExploreConfig {
            random_walks: 64,
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
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            run_equiv(3, sched)
        });
        let failure = report.failure.expect("byzantine search should split leadership");
        assert!(failure.reason.contains("forged endorsements"));

        // Strict replay without any Byzantine machinery — the forgeries
        // are ordinary recorded choices.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = run_equiv(3, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);

        // ddmin strips the honest bulk; what remains is the voter's wake,
        // its endorsement, one forgery and the deliveries that elect the
        // second leader.
        let result = crate::shrink::shrink(&failure.schedule, || {
            |sched: &mut dyn Scheduler| run_equiv(3, sched)
        });
        assert!(
            result.schedule.len() <= 6,
            "expected a <= 6 choice witness, got:\n{}",
            result.schedule.to_text()
        );
        assert!(
            result
                .schedule
                .choices()
                .any(|c| matches!(c, Choice::Forge { .. })),
            "the minimized witness must keep a forgery"
        );
        let mut replay = ReplayScheduler::strict(&result.schedule);
        assert_eq!(
            run_equiv(3, &mut replay).unwrap_err(),
            result.reason
        );
    }
}
