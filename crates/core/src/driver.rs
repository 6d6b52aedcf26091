use std::collections::BTreeSet;
use std::fmt;

use ard_graph::{components, KnowledgeGraph};
use ard_netsim::{
    LivelockError, Metrics, NodeId, Protocol, RecordingScheduler, ReplayScheduler, Runner,
    Schedule, Scheduler,
};

use crate::node::{ArdNode, AsArdNode};
use crate::plans::Plans;
use crate::reliable::Reliable;
use crate::budgets::{self, Netting};
use crate::{invariants, Config, Variant};

/// The node layer a discovery network is built from: the bare protocol
/// node, or the protocol node inside a delivery envelope. Everything the
/// driver does differently per layer is named here. Sealed: the two layers
/// below are the only ones, so the [`Livelock`](Layer::Livelock) shim can
/// be retired without breaking an outside implementation.
pub trait Layer: Protocol + AsArdNode + Sized + sealed::Sealed {
    /// What a run on this layer returns when its step budget runs out.
    /// Runs on the reliable layer have always reported the livelock as
    /// text, and the frozen `benchmark/` crate compiles against that.
    type Livelock: fmt::Display + fmt::Debug;

    /// How many fault-free step budgets a run on this layer may spend.
    const BUDGET_FACTOR: u64;

    /// What this layer's metering adds to the protocol's own traffic, for
    /// the budget table to net out.
    const NETTING: Netting;

    /// Puts a freshly built protocol node into this layer.
    fn wrap(node: ArdNode) -> Self;

    /// Converts the simulator's livelock report.
    fn livelock(e: LivelockError) -> Self::Livelock;

    /// The layer's own quiescence condition, checked per node next to the
    /// paper's requirements.
    ///
    /// # Errors
    ///
    /// Describes what the layer still has outstanding.
    fn check_quiescent(&self) -> Result<(), String>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ArdNode {}
    impl Sealed for super::Reliable<super::ArdNode> {}
}

impl Layer for ArdNode {
    type Livelock = LivelockError;
    const BUDGET_FACTOR: u64 = 1;
    const NETTING: Netting = Netting::NONE;

    fn wrap(node: ArdNode) -> Self {
        node
    }

    fn livelock(e: LivelockError) -> LivelockError {
        e
    }

    fn check_quiescent(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Layer for Reliable<ArdNode> {
    type Livelock = String;
    /// Retransmission traffic under heavy loss can exceed the fault-free
    /// step count by a large factor, but a correct run still terminates far
    /// below this.
    const BUDGET_FACTOR: u64 = 100;
    const NETTING: Netting = Netting::RELIABLE;

    fn wrap(node: ArdNode) -> Self {
        Reliable::new(node)
    }

    fn livelock(e: LivelockError) -> String {
        e.to_string()
    }

    fn check_quiescent(&self) -> Result<(), String> {
        match self.unacked_len() {
            0 => Ok(()),
            unacked => Err(format!(
                "{} quiesced with {unacked} unacknowledged transmissions",
                self.ard().id()
            )),
        }
    }
}

/// Result of issuing a probe through [`Discovery::probe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeStatus {
    /// The probed node was (still) a leader and answered itself with this
    /// snapshot, costing zero messages.
    Immediate(Vec<NodeId>),
    /// A probe message is in flight toward the leader; the answer will land
    /// in the node's `probe_results` once the
    /// scheduler delivers it.
    InFlight,
}

/// Final (or intermediate) picture of a discovery run, on any layer and
/// under any plans. Injected-fault and adversary counters are part of the
/// metrics: [`Metrics::faults`], [`Metrics::byzantine`] and the reliable
/// layer's `"retransmit"` / `"rd-ack"` kinds.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// All nodes currently in a leader state (one per weakly connected
    /// component once an honest run is quiescent), in id order.
    pub leaders: Vec<NodeId>,
    /// For every node, the leader its `next`-pointer chain reaches. Empty
    /// when [`survivors`](Outcome::survivors) is present: forged pointers
    /// need not form a forest.
    pub leader_of: Vec<NodeId>,
    /// Simulation steps executed by the `run` call that produced this.
    pub steps: u64,
    /// Communication metrics accumulated so far.
    pub metrics: Metrics,
    /// The guarantee-survival verdicts of a network hardened with
    /// [`Config::byzantine`]; `None` for the paper's configuration, whose
    /// runs are held to the full requirements instead.
    pub survivors: Option<Survivors>,
}

impl Outcome {
    /// `Err` with the first survivor guarantee that failed, if any.
    ///
    /// # Errors
    ///
    /// Returns the concrete violation.
    pub fn verdict(&self) -> Result<(), String> {
        let Some(s) = &self.survivors else {
            return Ok(());
        };
        s.single_leader.clone()?;
        s.leader_knows_all.clone()?;
        s.budgets.clone()
    }
}

/// A run's row of the guarantee-survival matrix: who was adversarial, and
/// which of the paper's guarantees held over the *honest survivors*. `Ok`
/// means the guarantee survived this adversary, `Err` carries the concrete
/// violation. A failed guarantee is a *finding*, not a run error — callers
/// decide which cells must hold.
#[derive(Clone, Debug)]
pub struct Survivors {
    /// The plan's Byzantine nodes, in id order (empty without a plan).
    pub byzantine_nodes: Vec<NodeId>,
    /// Nodes whose initial wake the churn plan withheld (they joined via
    /// explicit `Join` events), in draw order.
    pub joined: Vec<NodeId>,
    /// Nodes that permanently left, in draw order.
    pub left: Vec<NodeId>,
    /// Requirement 1 over the honest survivors
    /// (`invariants::check_survivor_single_leader`).
    pub single_leader: Result<(), String>,
    /// Requirement 2 over the honest survivors
    /// (`invariants::check_survivor_leader_knows_all`).
    pub leader_knows_all: Result<(), String>,
    /// The paper's budget lemmas net of forged traffic
    /// (`budgets::check_all_byzantine`).
    pub budgets: Result<(), String>,
}

/// High-level driver: builds a network of [`ArdNode`]s (each inside layer
/// `P`) from a [`KnowledgeGraph`], runs it under a [`Scheduler`], and
/// exposes the paper-level operations (probes, dynamic additions,
/// requirement checks). Use it through [`Discovery`] (bare nodes, the
/// paper's reliable links) or [`FaultyDiscovery`] (every node inside the
/// [`Reliable`] envelope, for runs under a
/// [`FaultPlan`](ard_netsim::FaultPlan)).
///
/// # Example
///
/// ```
/// use ard_core::{Discovery, Variant};
/// use ard_graph::gen;
/// use ard_netsim::FifoScheduler;
///
/// let graph = gen::star_out(8);
/// let mut discovery = Discovery::new(&graph, Variant::Bounded);
/// let outcome = discovery.run_all(&mut FifoScheduler::new()).unwrap();
/// assert_eq!(outcome.leaders.len(), 1);
/// discovery.check_requirements(&graph).unwrap();
/// // Bounded variant: everyone has terminated.
/// assert!(discovery.runner().nodes().all(|n| n.is_terminated()));
/// ```
pub struct DiscoveryOn<P: Layer> {
    runner: Runner<P>,
    graph: KnowledgeGraph,
    variant: Variant,
    config: Config,
    plans: Plans,
    max_steps: Option<u64>,
}

/// Discovery on the bare protocol: the paper's setting.
pub type Discovery = DiscoveryOn<ArdNode>;

/// Discovery with every node inside the [`Reliable`] delivery envelope, so
/// the run survives the message drops, duplications and node
/// crash/restarts a [`FaultPlan`](ard_netsim::FaultPlan) injects.
pub type FaultyDiscovery = DiscoveryOn<Reliable<ArdNode>>;

impl<P: Layer> DiscoveryOn<P> {
    /// Builds a discovery network with the paper's configuration.
    pub fn new(graph: &KnowledgeGraph, variant: Variant) -> Self {
        Self::with_config(graph, variant, Config::paper())
    }

    /// Builds a discovery network with an explicit (possibly ablated)
    /// configuration.
    pub fn with_config(graph: &KnowledgeGraph, variant: Variant, config: Config) -> Self {
        let sizes = (variant == Variant::Bounded).then(|| {
            let mut sizes = vec![0; graph.len()];
            for component in components::weakly_connected_components(graph) {
                for &v in &component {
                    sizes[v.index()] = component.len();
                }
            }
            sizes
        });
        let nodes = graph
            .ids()
            .map(|id| {
                let mut node =
                    ArdNode::new(id, graph.out_edges(id).iter().copied(), variant, config);
                if let Some(sizes) = &sizes {
                    node.set_component_size(sizes[id.index()]);
                }
                P::wrap(node)
            })
            .collect();
        DiscoveryOn {
            // Borrow the adjacency lists straight out of the graph: no
            // per-node `Vec` clones, which matters at n = 10⁶.
            runner: Runner::with_topology(nodes, |id| graph.out_edges(id)),
            graph: graph.clone(),
            variant,
            config,
            plans: Plans::default(),
            max_steps: None,
        }
    }

    /// Builds the network a run under `plans` needs: configured by
    /// `Plans::config`, with the plans kept to withhold the churn
    /// joiners' wake-ups, single out the survivors and stamp recordings.
    /// Injecting the plans is the scheduler's job — [`run_recorded`]
    /// attaches them itself, any other run expects `sched` to carry them
    /// (an explorer's fault-wrapped scheduler, a replayed schedule).
    ///
    /// [`run_recorded`]: DiscoveryOn::run_recorded
    pub fn under(graph: &KnowledgeGraph, variant: Variant, plans: &Plans) -> Self {
        let mut d = Self::with_config(graph, variant, plans.config());
        d.plans = plans.clone();
        d
    }

    /// The knowledge graph as currently known (initial graph plus dynamic
    /// additions).
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// The underlying simulator.
    pub fn runner(&self) -> &Runner<P> {
        &self.runner
    }

    /// Mutable access to the underlying simulator (for custom drivers such
    /// as the lower-bound constructions).
    pub fn runner_mut(&mut self) -> &mut Runner<P> {
        &mut self.runner
    }

    /// A generous step budget: quadratic-ish in `n`, far above any correct
    /// execution, so hitting it means livelock. Scaled by the layer's
    /// [`BUDGET_FACTOR`](Layer::BUDGET_FACTOR), and tenfold for a network
    /// hardened with [`Config::byzantine`]: forged traffic and its honest
    /// echoes (spurious searches, re-conquests after stale restarts) are
    /// bounded by the plan's finite timeline.
    pub fn default_step_budget(&self) -> u64 {
        let n = self.runner.len() as u64;
        let hardened = if self.config.byzantine_tolerant { 10 } else { 1 };
        P::BUDGET_FACTOR * hardened * (200 * n * (64 - n.leading_zeros() as u64 + 1) + 10_000)
    }

    /// Replaces the [default step budget](DiscoveryOn::default_step_budget)
    /// of every later run with `max_steps`.
    pub fn cap_steps(&mut self, max_steps: u64) {
        self.max_steps = Some(max_steps);
    }

    fn budget(&self) -> u64 {
        self.max_steps
            .unwrap_or_else(|| self.default_step_budget())
    }

    /// Enqueues wake-ups for every node (the scheduler orders them) except
    /// the churn plan's joiners, who come online through their `Join`
    /// events.
    pub fn enqueue_wake_all(&mut self, sched: &mut dyn Scheduler) {
        let withheld = self.plans.withheld(self.runner.len());
        for id in self.runner.ids() {
            if !withheld.contains(&id) {
                self.runner.enqueue_wake(id, sched);
            }
        }
    }

    /// Wakes one node immediately (staged drivers).
    pub fn wake_now(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        self.runner.wake_now(node, sched);
    }

    /// Runs until quiescence within the step budget.
    ///
    /// # Errors
    ///
    /// Returns the layer's [`Livelock`](Layer::Livelock) if the budget is
    /// exhausted first.
    pub fn run(&mut self, sched: &mut dyn Scheduler) -> Result<Outcome, P::Livelock> {
        let steps = self
            .runner
            .run(sched, self.budget())
            .map_err(P::livelock)?;
        Ok(self.outcome_after(steps))
    }

    /// Wakes every node and runs to quiescence — the standard experiment.
    ///
    /// # Errors
    ///
    /// Returns the layer's [`Livelock`](Layer::Livelock) if the step
    /// budget is exhausted first.
    pub fn run_all(&mut self, sched: &mut dyn Scheduler) -> Result<Outcome, P::Livelock> {
        self.enqueue_wake_all(sched);
        self.run(sched)
    }

    /// Wakes every node and runs to quiescence on the FIFO round loop
    /// ([`Runner::run_rounds`]) — [`run_all`](DiscoveryOn::run_all) under a
    /// FIFO scheduler without the scheduler object, so for plan-free
    /// networks only. Output (metrics, trace, knowledge, node state, step
    /// count) is byte-identical to that run.
    ///
    /// # Errors
    ///
    /// Returns the layer's [`Livelock`](Layer::Livelock) if the step
    /// budget is exhausted first, exactly when the scheduler-driven run
    /// would.
    pub fn run_all_rounds(&mut self) -> Result<Outcome, P::Livelock> {
        debug_assert!(self.plans.is_empty(), "the round loop injects no plans");
        let steps = self
            .runner
            .run_rounds(self.budget())
            .map_err(P::livelock)?;
        Ok(self.outcome_after(steps))
    }

    /// Like [`run_recorded`](DiscoveryOn::run_recorded) under a FIFO
    /// scheduler, but executed on the round loop: the returned
    /// [`Schedule`] is byte-identical to that recording.
    pub fn run_rounds_recorded(&mut self) -> (Result<Outcome, P::Livelock>, Schedule) {
        debug_assert!(self.plans.is_empty(), "the round loop injects no plans");
        let (result, mut schedule) = self.runner.run_rounds_recorded(self.budget());
        stamp(&mut schedule, self.runner.len(), self.variant, &self.plans);
        let result = result
            .map(|steps| self.outcome_after(steps))
            .map_err(P::livelock);
        (result, schedule)
    }

    /// Like [`run_all`](DiscoveryOn::run_all) with the network's plans
    /// injected around `inner` ([`Plans::scheduler`]), recording the exact
    /// choice sequence — **including** every injected `Drop`, `Duplicate`,
    /// `Crash`, `Restart`, `Tick`, `Forge`, `Silence`, `StaleRestart`,
    /// `Join` and `Leave` — into a replayable [`Schedule`] carrying
    /// `nodes`, `variant` and one metadata entry per plan. The schedule is
    /// returned even when the run livelocks — a livelocking prefix is still
    /// worth replaying.
    pub fn run_recorded<S: Scheduler>(
        &mut self,
        inner: S,
    ) -> (Result<Outcome, P::Livelock>, Schedule) {
        // Cloned because the closure borrows the whole driver.
        let (plans, n, variant) = (self.plans.clone(), self.runner.len(), self.variant);
        recorded(&plans, n, variant, inner, |sched| self.run_all(sched))
    }

    /// Re-executes a recorded [`Schedule`] against this (freshly built)
    /// network: wakes every node and replays strictly, panicking with a
    /// divergence diagnostic if the schedule was recorded against a
    /// different system. The recorded choices carry every injected event,
    /// so no plan and no RNG is involved: replay is byte-exact.
    ///
    /// # Errors
    ///
    /// Returns the layer's [`Livelock`](Layer::Livelock) if the step
    /// budget is exhausted first.
    pub fn run_replay(&mut self, schedule: &Schedule) -> Result<Outcome, P::Livelock> {
        self.run_all(&mut ReplayScheduler::strict(schedule))
    }

    /// Computes the current [`Outcome`] without running anything.
    ///
    /// # Panics
    ///
    /// Panics if a `next`-pointer chain of an unhardened network cycles
    /// (forest invariant violated).
    pub fn outcome(&self) -> Outcome {
        self.outcome_after(0)
    }

    fn outcome_after(&self, steps: u64) -> Outcome {
        let metrics = self.runner.metrics().clone();
        let survivors = self
            .config
            .byzantine_tolerant
            .then(|| self.survivors(&metrics));
        let leader_of = match survivors {
            Some(_) => Vec::new(),
            None => self.runner.ids().map(|v| self.leader_of(v)).collect(),
        };
        Outcome {
            leaders: self.leaders(),
            leader_of,
            steps,
            metrics,
            survivors,
        }
    }

    /// Evaluates the guarantee-survival verdicts over everyone the plans
    /// leave honest and present.
    fn survivors(&self, metrics: &Metrics) -> Survivors {
        let n = self.runner.len();
        let mut byzantine_nodes = match &self.plans.byzantine {
            Some(plan) => plan.byzantine_nodes(n),
            None => Vec::new(),
        };
        byzantine_nodes.sort_unstable();
        let (joined, left) = match &self.plans.churn {
            Some(plan) => (plan.joiners(n), plan.leavers(n)),
            None => Default::default(),
        };
        let excluded: BTreeSet<NodeId> = byzantine_nodes.iter().chain(&left).copied().collect();
        Survivors {
            single_leader: invariants::check_survivor_single_leader(
                &self.runner,
                &self.graph,
                &excluded,
            ),
            leader_knows_all: invariants::check_survivor_leader_knows_all(
                &self.runner,
                &self.graph,
                &excluded,
            ),
            budgets: budgets::check_all_byzantine(
                metrics,
                n as u64,
                self.graph.edge_count() as u64,
                self.variant,
            ),
            byzantine_nodes,
            joined,
            left,
        }
    }

    /// All nodes currently in a leader state, in id order.
    pub fn leaders(&self) -> Vec<NodeId> {
        self.runner
            .nodes()
            .map(AsArdNode::ard)
            .filter(|n| n.is_leader())
            .map(ArdNode::id)
            .collect()
    }

    /// Resolves `v`'s leader by following `next` pointers (requirement
    /// 3a/3b: the pointers induce a directed path to the leader).
    ///
    /// # Panics
    ///
    /// Panics if the pointer chain cycles, which would violate the paper's
    /// forest invariant.
    pub fn leader_of(&self, v: NodeId) -> NodeId {
        invariants::resolve_leader(&self.runner, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks the paper's §1.2 requirements (1, 2, 3/3a–3b and 4) against
    /// the given reference graph, plus the layer's own quiescence condition
    /// (the reliable layer: no transmission still awaiting an ack); call at
    /// quiescence.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// requirement.
    pub fn check_requirements(&self, graph: &KnowledgeGraph) -> Result<(), String> {
        self.runner.nodes().try_for_each(P::check_quiescent)?;
        invariants::check_requirements(&self.runner, graph, self.variant)
    }

    /// Holds a finished run to everything the paper promises it: the
    /// requirements (against the network's own graph) and the layer's
    /// budgets. A hardened network is judged over its survivors instead, and
    /// those verdicts are *reported* in [`Outcome::survivors`] —
    /// degradation is the measurement, not an error — so this accepts it.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement or budget.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        if outcome.survivors.is_some() {
            return Ok(());
        }
        self.check_requirements(&self.graph)?;
        budgets::check(
            &outcome.metrics,
            self.runner.len() as u64,
            self.graph.edge_count() as u64,
            self.variant,
            &P::NETTING,
        )
    }

    fn run_checked(
        graph: &KnowledgeGraph,
        variant: Variant,
        plans: &Plans,
        sched: &mut dyn Scheduler,
    ) -> Result<Outcome, String> {
        let mut d = Self::under(graph, variant, plans);
        let outcome = d.run_all(sched).map_err(|e| e.to_string())?;
        d.check(&outcome)?;
        Ok(outcome)
    }

    /// Extension beyond the paper (its §7 names dynamic *removals* as open):
    /// extracts the knowledge graph induced by the `survivors` of a crash —
    /// every id a survivor has learned (protocol state: `local`, cluster
    /// sets, `next` pointer) that itself survived becomes an initial edge of
    /// a fresh discovery instance. Returns the survivor graph and the
    /// mapping from new dense ids to old ids.
    ///
    /// This is the paper's own recovery story (§1: "The first step toward
    /// rebuilding such a system is discovering and regrouping all the
    /// currently online nodes"): run a new [`Discovery`] over the returned
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if `survivors` contains duplicates or unknown ids.
    pub fn survivor_graph(&self, survivors: &[NodeId]) -> (KnowledgeGraph, Vec<NodeId>) {
        let mut new_id = vec![usize::MAX; self.runner.len()];
        for (i, &v) in survivors.iter().enumerate() {
            assert!(v.index() < self.runner.len(), "unknown survivor {v}");
            assert_eq!(new_id[v.index()], usize::MAX, "duplicate survivor {v}");
            new_id[v.index()] = i;
        }
        let new_id = &new_id;
        let edges = survivors.iter().enumerate().flat_map(|(i, &v)| {
            let node = self.runner.node(v).ard();
            let knows = node
                .local()
                .iter()
                .chain(node.more().iter())
                .chain(node.done().iter())
                .chain(node.unaware().iter())
                .chain(node.unexplored().iter())
                .chain([node.next_pointer()]);
            knows.filter_map(move |w| {
                let j = new_id.get(w.index()).copied().unwrap_or(usize::MAX);
                (j != usize::MAX && j != i).then_some((i, j))
            })
        });
        let graph = KnowledgeGraph::from_edges(survivors.len(), edges);
        (graph, survivors.to_vec())
    }

    /// Renders the current execution state as Graphviz DOT: the initial
    /// knowledge graph in gray, the `next`-pointer forest dashed in blue,
    /// node labels showing `id/status/phase` and leaders highlighted.
    pub fn to_dot(&self) -> String {
        let pointer_edges: Vec<(NodeId, NodeId)> = self
            .runner
            .ids()
            .filter_map(|v| {
                let next = self.runner.node(v).ard().next_pointer();
                (next != v).then_some((v, next))
            })
            .collect();
        ard_graph::dot::to_dot_annotated(
            &self.graph,
            "discovery",
            |v| {
                let node = self.runner.node(v).ard();
                let label = format!("{v}\\n{}/p{}", node.status(), node.phase());
                let color = if node.is_leader() {
                    "gold"
                } else {
                    "lightgray"
                };
                (label, color)
            },
            &pointer_edges,
        )
    }
}

/// The operations that drive a protocol node directly, which no envelope
/// layer forwards: probes and the §6 dynamic additions.
impl Discovery {
    /// Ad-hoc variant: asks `node` for the current component snapshot
    /// (§4.5.2). Leaders answer immediately; inactive nodes route a probe.
    pub fn probe(&mut self, node: NodeId, sched: &mut dyn Scheduler) -> ProbeStatus {
        assert_eq!(
            self.variant,
            Variant::AdHoc,
            "probes exist only in the Ad-hoc variant"
        );
        let before = self.runner.node(node).probe_results().len();
        self.runner.exec(node, sched, |n, ctx| n.start_probe(ctx));
        let n = self.runner.node(node);
        if n.probe_results().len() > before {
            ProbeStatus::Immediate(n.probe_results().last().expect("just pushed").clone())
        } else {
            ProbeStatus::InFlight
        }
    }

    /// Issues a probe and runs to quiescence, returning the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the step budget is exhausted first.
    pub fn probe_blocking(
        &mut self,
        node: NodeId,
        sched: &mut dyn Scheduler,
    ) -> Result<Vec<NodeId>, LivelockError> {
        match self.probe(node, sched) {
            ProbeStatus::Immediate(ids) => Ok(ids),
            ProbeStatus::InFlight => {
                self.runner.run(sched, self.budget())?;
                Ok(self
                    .runner
                    .node(node)
                    .probe_results()
                    .last()
                    .expect("probe answered at quiescence")
                    .clone())
            }
        }
    }

    /// Dynamic node addition (§6): a fresh node that knows `known` joins the
    /// system and is woken. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics for the Bounded variant, whose known component sizes dynamic
    /// growth would invalidate (the paper extends only the Ad-hoc
    /// algorithm).
    pub fn add_node(&mut self, known: Vec<NodeId>, sched: &mut dyn Scheduler) -> NodeId {
        assert_ne!(
            self.variant,
            Variant::Bounded,
            "dynamic additions invalidate known sizes"
        );
        let id = self.graph.add_node();
        for &v in &known {
            self.graph.add_edge(id, v);
        }
        let node = ArdNode::new(id, known.clone(), self.variant, self.config);
        let rid = self.runner.add_node(node, known);
        debug_assert_eq!(rid, id);
        self.runner.enqueue_wake(id, sched);
        id
    }

    /// Dynamic link addition (§6): node `u` learns `v`'s id at runtime.
    ///
    /// # Panics
    ///
    /// Panics for the Bounded variant (see [`add_node`](Discovery::add_node)).
    pub fn add_link(&mut self, u: NodeId, v: NodeId, sched: &mut dyn Scheduler) {
        assert_ne!(
            self.variant,
            Variant::Bounded,
            "dynamic additions invalidate known sizes"
        );
        if u == v || self.graph.has_edge(u, v) {
            return;
        }
        self.graph.add_edge(u, v);
        self.runner.add_link(u, v);
        self.runner
            .exec(u, sched, |n, ctx| n.add_dynamic_edge(v, ctx));
    }

    /// Replays `schedule` on the reliable layer whatever its metadata says
    /// and holds the run to the requirements only; the frozen `benchmark/`
    /// crate replays recordings it never stamped through this spelling.
    ///
    /// # Errors
    ///
    /// Returns the livelock or the first violated requirement.
    #[doc(hidden)]
    pub fn replay_faulty(
        graph: &KnowledgeGraph,
        variant: Variant,
        schedule: &Schedule,
    ) -> Result<Outcome, String> {
        let mut d = FaultyDiscovery::new(graph, variant);
        let outcome = d.run_replay(schedule)?;
        d.check_requirements(graph)?;
        Ok(outcome)
    }
}

impl<P: Layer> fmt::Debug for DiscoveryOn<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Discovery")
            .field("variant", &self.variant)
            .field("nodes", &self.runner.len())
            .field("leaders", &self.leaders().len())
            .finish()
    }
}

/// One judged run, from scratch: builds the network `plans` call for —
/// [`Reliable`]-wrapped iff `reliable` — wakes everyone but the churn
/// joiners, runs it under `sched` and holds it to the paper's requirements
/// and the layer's budgets. Injected events, if any, come from `sched`.
/// Under a Byzantine or churn plan the survivor guarantees are evaluated
/// instead and *reported* ([`Outcome::survivors`], [`Outcome::verdict`]).
///
/// This is the property closure of `ard explore` and `ard replay`.
///
/// # Errors
///
/// Returns the livelock, or the first violated requirement or budget.
pub fn run_checked(
    graph: &KnowledgeGraph,
    variant: Variant,
    reliable: bool,
    plans: &Plans,
    sched: &mut dyn Scheduler,
) -> Result<Outcome, String> {
    if reliable {
        FaultyDiscovery::run_checked(graph, variant, plans, sched)
    } else {
        Discovery::run_checked(graph, variant, plans, sched)
    }
}

/// Runs `run` under a recorder around `plans`' scheduler and returns its
/// result with the recording, stamped for replay.
fn recorded<S: Scheduler, R>(
    plans: &Plans,
    n: usize,
    variant: Variant,
    inner: S,
    run: impl FnOnce(&mut dyn Scheduler) -> R,
) -> (R, Schedule) {
    let mut sched = RecordingScheduler::new(plans.scheduler(inner, n));
    let result = run(&mut sched);
    let mut schedule = sched.into_schedule();
    stamp(&mut schedule, n, variant, plans);
    (result, schedule)
}

/// Writes what a replay rebuilds the recorded network from.
fn stamp(schedule: &mut Schedule, n: usize, variant: Variant, plans: &Plans) {
    schedule.set_meta("nodes", n.to_string());
    schedule.set_meta("variant", variant.to_string());
    plans.stamp(schedule);
}

/// [`run_checked`] on the layer `plans` call for ([`Plans::reliable`]: under
/// any drop rate `< 1` and the plan's bounded crash/restart churn,
/// discovery must still complete correctly), recorded as by
/// [`DiscoveryOn::run_recorded`].
///
/// Returns the run result and the recorded schedule (also on failure — a
/// failing prefix is still worth replaying), which [`replay`] re-executes
/// exactly. With no plan attached the recording is byte-identical to
/// [`Discovery::run_recorded`] of the same inner scheduler.
pub fn record<S: Scheduler>(
    graph: &KnowledgeGraph,
    variant: Variant,
    plans: &Plans,
    inner: S,
) -> (Result<Outcome, String>, Schedule) {
    recorded(plans, graph.len(), variant, inner, |sched| {
        run_checked(graph, variant, plans.reliable(), plans, sched)
    })
}

/// Re-executes a schedule recorded by [`record`] (or `ard discover
/// --record`) strictly, against the network its metadata describes
/// ([`Plans::from_schedule`]). Judged as in [`run_checked`].
///
/// # Errors
///
/// Returns the unparsable metadata key, or the livelock or violation
/// exactly as the recording run produced it.
pub fn replay(
    graph: &KnowledgeGraph,
    variant: Variant,
    schedule: &Schedule,
) -> Result<Outcome, String> {
    let (reliable, plans) = Plans::from_schedule(schedule)?;
    run_checked(graph, variant, reliable, &plans, &mut ReplayScheduler::strict(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::gen;
    use ard_netsim::{
        ByzantinePlan, ChurnPlan, FaultPlan, FifoScheduler, LifoScheduler, RandomScheduler,
    };

    #[test]
    fn single_node_component() {
        let graph = KnowledgeGraph::new(1);
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let mut d = Discovery::new(&graph, variant);
            let outcome = d.run_all(&mut FifoScheduler::new()).unwrap();
            assert_eq!(outcome.leaders, vec![NodeId::new(0)]);
            d.check_requirements(&graph).unwrap();
        }
    }

    #[test]
    fn two_nodes_one_edge() {
        let graph = KnowledgeGraph::from_edges(2, [(0, 1)]);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        let outcome = d.run_all(&mut FifoScheduler::new()).unwrap();
        assert_eq!(outcome.leaders.len(), 1);
        d.check_requirements(&graph).unwrap();
    }

    #[test]
    fn path_all_variants_all_schedulers() {
        let graph = gen::path(9);
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            for seed in 0..5u64 {
                let mut d = Discovery::new(&graph, variant);
                let mut sched = RandomScheduler::seeded(seed);
                d.run_all(&mut sched).unwrap();
                d.check_requirements(&graph)
                    .unwrap_or_else(|e| panic!("{variant} seed {seed}: {e}"));
            }
            let mut d = Discovery::new(&graph, variant);
            d.run_all(&mut LifoScheduler::new()).unwrap();
            d.check_requirements(&graph).unwrap();
        }
    }

    #[test]
    fn multi_component_gets_one_leader_each() {
        let graph = gen::random_multi_component(3, 7, 10, 5);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        let outcome = d.run_all(&mut RandomScheduler::seeded(3)).unwrap();
        assert_eq!(outcome.leaders.len(), 3);
        d.check_requirements(&graph).unwrap();
    }

    #[test]
    fn bounded_terminates_everywhere() {
        let graph = gen::random_weakly_connected(20, 40, 2);
        let mut d = Discovery::new(&graph, Variant::Bounded);
        d.run_all(&mut RandomScheduler::seeded(11)).unwrap();
        d.check_requirements(&graph).unwrap();
        assert!(d.runner().nodes().all(|n| n.is_terminated()));
    }

    #[test]
    fn adhoc_probe_returns_full_snapshot() {
        let graph = gen::random_weakly_connected(15, 20, 4);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let mut sched = RandomScheduler::seeded(9);
        d.run_all(&mut sched).unwrap();
        for v in 0..15 {
            let snap = d.probe_blocking(NodeId::new(v), &mut sched).unwrap();
            assert_eq!(snap.len(), 15, "probe from n{v} saw {} ids", snap.len());
        }
    }

    #[test]
    fn leader_of_resolves_via_pointers() {
        let graph = gen::ring(6);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        d.run_all(&mut FifoScheduler::new()).unwrap();
        let leader = d.leaders()[0];
        for v in d.runner().ids().collect::<Vec<_>>() {
            assert_eq!(d.leader_of(v), leader);
        }
    }

    #[test]
    fn recorded_run_replays_to_identical_outcome() {
        let graph = gen::random_weakly_connected(12, 20, 6);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let (result, schedule) = d.run_recorded(RandomScheduler::seeded(5));
        let recorded = result.unwrap();
        assert_eq!(schedule.meta("nodes"), Some("12"));
        assert_eq!(schedule.meta("variant"), Some("ad-hoc"));
        assert_eq!(schedule.len() as u64, recorded.steps);

        let mut fresh = Discovery::new(&graph, Variant::AdHoc);
        let replayed = fresh.run_replay(&schedule).unwrap();
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(replayed.leader_of, recorded.leader_of);
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
        fresh.check_requirements(&graph).unwrap();
    }

    #[test]
    #[should_panic(expected = "replay divergence")]
    fn replaying_against_a_different_network_diverges() {
        let graph = gen::path(6);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        let (result, schedule) = d.run_recorded(RandomScheduler::seeded(1));
        result.unwrap();
        // A different topology enables different choices: strict replay
        // must detect the mismatch rather than execute nonsense.
        let other = gen::star_in(6);
        let mut fresh = Discovery::new(&other, Variant::Oblivious);
        let _ = fresh.run_replay(&schedule);
    }

    #[test]
    fn outcome_metrics_accumulate() {
        let graph = gen::star_in(5);
        let mut d = Discovery::new(&graph, Variant::Oblivious);
        let outcome = d.run_all(&mut FifoScheduler::new()).unwrap();
        assert!(outcome.metrics.total_messages() > 0);
        assert!(outcome.steps > 0);
        assert!(outcome.survivors.is_none());
    }

    #[test]
    fn step_budget_scales_with_layer_and_hardening() {
        let graph = gen::ring(16);
        let base = Discovery::new(&graph, Variant::AdHoc).default_step_budget();
        assert_eq!(base, 200 * 16 * 6 + 10_000);
        let reliable = FaultyDiscovery::new(&graph, Variant::AdHoc);
        assert_eq!(reliable.default_step_budget(), 100 * base);
        let hardened = Discovery::with_config(&graph, Variant::AdHoc, Config::byzantine());
        assert_eq!(hardened.default_step_budget(), 10 * base);
        let mut capped = Discovery::new(&graph, Variant::AdHoc);
        capped.cap_steps(3);
        assert!(capped.run_all(&mut FifoScheduler::new()).is_err());
    }

    fn lossy(seed: u64, drop: f64, dup: f64) -> Plans {
        Plans {
            faults: Some(FaultPlan::new(seed).with_drop(drop).with_dup(dup)),
            ..Plans::default()
        }
    }

    #[test]
    fn lossy_run_completes_and_checks() {
        let graph = gen::random_weakly_connected(12, 20, 3);
        let (result, schedule) = record(
            &graph,
            Variant::Oblivious,
            &lossy(9, 0.15, 0.05),
            RandomScheduler::seeded(3),
        );
        let outcome = result.unwrap();
        assert_eq!(outcome.leaders.len(), 1);
        assert!(outcome.metrics.faults().drops > 0, "plan injected no drops");
        assert!(
            outcome.metrics.kind("retransmit").messages > 0,
            "drops must force retransmissions"
        );
        assert_eq!(schedule.meta("faults"), Some("drop=0.15,dup=0.05,crash=0,seed=9"));
    }

    #[test]
    fn faulty_schedule_replays_byte_exactly() {
        let graph = gen::random_weakly_connected(10, 16, 7);
        let plans = Plans {
            faults: Some(
                FaultPlan::new(4)
                    .with_drop(0.2)
                    .with_crash(NodeId::new(3), 30, 20),
            ),
            ..Plans::default()
        };
        let (result, schedule) =
            record(&graph, Variant::AdHoc, &plans, RandomScheduler::seeded(1));
        let recorded = result.unwrap();
        assert!(recorded.metrics.faults().crashes >= 1);

        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap();
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(replayed.steps, schedule.len() as u64);
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(replayed.leader_of, recorded.leader_of);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
        // The round-trip through text is also exact.
        let reparsed = Schedule::parse(&schedule.to_text()).unwrap();
        assert_eq!(reparsed.choices(), schedule.choices());
    }

    #[test]
    fn vacuous_fault_plan_behaves_like_reliable_network() {
        let graph = gen::random_weakly_connected(8, 12, 2);
        let (result, _schedule) = record(
            &graph,
            Variant::Bounded,
            &lossy(0, 0.0, 0.0),
            RandomScheduler::seeded(5),
        );
        let outcome = result.unwrap();
        // Ticks still fire (the retransmission timer), but nothing is
        // dropped, duplicated or crashed.
        let faults = outcome.metrics.faults();
        assert_eq!(faults.drops, 0);
        assert_eq!(faults.duplicates, 0);
        assert_eq!(faults.crashes, 0);
        assert!(faults.ticks > 0);
        // Every logical message still costs one ack. (A few spurious
        // retransmissions are possible even without faults: the scheduler
        // may fire ticks faster than it delivers acks.)
        assert!(outcome.metrics.kind("rd-ack").messages > 0);
    }

    #[test]
    fn faulty_budgets_hold_in_every_variant() {
        // `record` judges budgets net of the reliable layer's overhead.
        let graph = gen::random_weakly_connected(24, 48, 5);
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let (result, _) = record(
                &graph,
                variant,
                &lossy(11, 0.1, 0.05),
                RandomScheduler::seeded(6),
            );
            result.unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }

    #[test]
    fn hardened_vacuous_run_matches_honest_recording_byte_for_byte() {
        // With no plans attached, the adversary harness must be invisible:
        // the recorded schedule equals an honest recording of the same
        // inner scheduler, stays in format v1, and every guarantee holds.
        let graph = gen::random_weakly_connected(10, 16, 3);
        let mut hardened = Discovery::with_config(&graph, Variant::Oblivious, Config::byzantine());
        let (result, schedule) = hardened.run_recorded(RandomScheduler::seeded(42));
        let outcome = result.unwrap();
        outcome
            .verdict()
            .expect("honest run must satisfy everything");
        assert!(outcome.survivors.is_some() && outcome.leader_of.is_empty());
        assert_eq!(outcome.metrics.byzantine().forged, 0);

        let (honest_result, honest_schedule) = record(
            &graph,
            Variant::Oblivious,
            &Plans::default(),
            RandomScheduler::seeded(42),
        );
        assert!(honest_result.unwrap().survivors.is_none());
        assert_eq!(schedule.to_text(), honest_schedule.to_text());
        assert!(schedule.to_text().starts_with("ard-schedule v1"));
    }

    #[test]
    fn byzantine_run_records_and_replays_byte_exactly() {
        let graph = gen::random_weakly_connected(12, 20, 5);
        let plans = Plans {
            byzantine: Some(ByzantinePlan::new(7, 2)),
            ..Plans::default()
        };
        let (result, schedule) =
            record(&graph, Variant::Oblivious, &plans, RandomScheduler::seeded(9));
        let recorded = result.unwrap();
        let verdicts = recorded.survivors.as_ref().unwrap();
        assert!(
            recorded.metrics.byzantine().forged > 0,
            "plan injected no forgeries"
        );
        assert_eq!(verdicts.byzantine_nodes.len(), 2);
        assert!(schedule.to_text().starts_with("ard-schedule v2"));
        assert_eq!(
            schedule.meta("byzantine"),
            Some("f=2,seed=7,classes=equivocate+fabricate+silence+stale-restart")
        );

        let replayed = replay(&graph, Variant::Oblivious, &schedule).unwrap();
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
        let again = replayed.survivors.as_ref().unwrap();
        assert_eq!(again.byzantine_nodes, verdicts.byzantine_nodes);
        assert_eq!(again.single_leader, verdicts.single_leader);
        assert_eq!(again.leader_knows_all, verdicts.leader_knows_all);
        assert_eq!(again.budgets, verdicts.budgets);

        // The round-trip through text is also exact.
        let reparsed = Schedule::parse(&schedule.to_text()).unwrap();
        assert_eq!(reparsed.choices(), schedule.choices());
    }

    #[test]
    fn churn_run_joins_and_leaves_and_replays() {
        let graph = gen::random_weakly_connected(16, 32, 2);
        let plans = Plans {
            churn: Some(ChurnPlan::new(11, 0.2)),
            ..Plans::default()
        };
        let (result, schedule) = record(&graph, Variant::AdHoc, &plans, RandomScheduler::seeded(4));
        let recorded = result.unwrap();
        let membership = recorded.survivors.as_ref().unwrap();
        assert!(recorded.metrics.byzantine().joins > 0, "no joins fired");
        assert!(recorded.metrics.byzantine().leaves > 0, "no leaves fired");
        assert_eq!(membership.joined.len(), 4); // ceil(0.2 * 16)
        assert_eq!(membership.left.len(), 4);
        assert_eq!(schedule.meta("churn"), Some("rate=0.2,seed=11"));

        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap();
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(replayed.survivors.unwrap().left, membership.left);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
    }

    #[test]
    fn stale_restart_can_break_single_leader() {
        // The amnesia class resurrects conquered nodes as phase-1 leaders;
        // across enough seeds at least one run must end with an extra
        // honest leader — the violation the matrix pins as a witness.
        let graph = gen::ring(8);
        let broke = (0..40u64).any(|seed| {
            let plans = Plans {
                byzantine: Some(ByzantinePlan::new(seed, 1).only("stale-restart")),
                ..Plans::default()
            };
            let (result, _) = record(
                &graph,
                Variant::Oblivious,
                &plans,
                RandomScheduler::seeded(seed ^ 0xCAFE),
            );
            result.map_or(true, |o| o.survivors.unwrap().single_leader.is_err())
        });
        assert!(broke, "no seed broke single-leader via stale restarts");
    }
}
