use ard_graph::{components, KnowledgeGraph};
use ard_netsim::{
    LivelockError, Metrics, NodeId, RecordingScheduler, ReplayScheduler, Runner, Schedule,
    Scheduler,
};

use crate::invariants;
use crate::node::ArdNode;
use crate::status::Transition;
use crate::{Config, Variant};

/// Result of issuing a probe through [`Discovery::probe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeStatus {
    /// The probed node was (still) a leader and answered itself with this
    /// snapshot, costing zero messages.
    Immediate(Vec<NodeId>),
    /// A probe message is in flight toward the leader; the answer will land
    /// in the node's [`probe_results`](ArdNode::probe_results) once the
    /// scheduler delivers it.
    InFlight,
}

/// Final (or intermediate) picture of a discovery run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// All current leaders (one per weakly connected component once
    /// quiescent), in id order.
    pub leaders: Vec<NodeId>,
    /// For every node, the leader its `next`-pointer chain reaches.
    pub leader_of: Vec<NodeId>,
    /// Simulation steps executed by the `run` call that produced this.
    pub steps: u64,
    /// Communication metrics accumulated so far.
    pub metrics: Metrics,
}

/// High-level driver: builds a network of [`ArdNode`]s from a
/// [`KnowledgeGraph`], runs it under a [`Scheduler`], and exposes the
/// paper-level operations (probes, dynamic additions, requirement checks).
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
pub struct Discovery {
    runner: Runner<ArdNode>,
    graph: KnowledgeGraph,
    variant: Variant,
    config: Config,
}

impl Discovery {
    /// Builds a discovery network with the paper's configuration.
    pub fn new(graph: &KnowledgeGraph, variant: Variant) -> Self {
        Self::with_config(graph, variant, Config::paper())
    }

    /// Builds a discovery network with an explicit (possibly ablated)
    /// configuration.
    pub fn with_config(graph: &KnowledgeGraph, variant: Variant, config: Config) -> Self {
        let mut nodes: Vec<ArdNode> = graph
            .ids()
            .map(|id| ArdNode::new(id, graph.out_edges(id).iter().copied(), variant, config))
            .collect();
        if variant == Variant::Bounded {
            let comp = components::weakly_connected_components(graph);
            for component in &comp {
                for &v in component {
                    nodes[v.index()].set_component_size(component.len());
                }
            }
        }
        Discovery {
            // Borrow the adjacency lists straight out of the graph: no
            // per-node `Vec` clones, which matters at n = 10⁶.
            runner: Runner::with_topology(nodes, |id| graph.out_edges(id)),
            graph: graph.clone(),
            variant,
            config,
        }
    }

    /// The problem variant in force.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The configuration in force.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The knowledge graph as currently known (initial graph plus dynamic
    /// additions).
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// The underlying simulator.
    pub fn runner(&self) -> &Runner<ArdNode> {
        &self.runner
    }

    /// Mutable access to the underlying simulator (for custom drivers such
    /// as the lower-bound constructions).
    pub fn runner_mut(&mut self) -> &mut Runner<ArdNode> {
        &mut self.runner
    }

    /// A generous step budget: quadratic-ish in `n`, far above any correct
    /// execution, so hitting it means livelock.
    pub fn default_step_budget(&self) -> u64 {
        let n = self.runner.len() as u64;
        200 * n * (64 - n.leading_zeros() as u64 + 1) + 10_000
    }

    /// Enqueues wake-ups for every node (the scheduler orders them).
    pub fn enqueue_wake_all(&mut self, sched: &mut dyn Scheduler) {
        self.runner.enqueue_wake_all(sched);
    }

    /// Wakes one node immediately (staged drivers).
    pub fn wake_now(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        self.runner.wake_now(node, sched);
    }

    /// Runs until quiescence within the default step budget.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the budget is exhausted first.
    pub fn run(&mut self, sched: &mut dyn Scheduler) -> Result<Outcome, LivelockError> {
        let steps = self.runner.run(sched, self.default_step_budget())?;
        let mut outcome = self.outcome();
        outcome.steps = steps;
        Ok(outcome)
    }

    /// Wakes every node and runs to quiescence — the standard experiment.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the step budget is exhausted first.
    pub fn run_all(&mut self, sched: &mut dyn Scheduler) -> Result<Outcome, LivelockError> {
        self.enqueue_wake_all(sched);
        self.run(sched)
    }

    /// Wakes every node and runs to quiescence on the FIFO round loop
    /// ([`Runner::run_rounds`]) — [`run_all`](Discovery::run_all) under a
    /// FIFO scheduler without the scheduler object. Output (metrics, trace,
    /// knowledge, node state, step count) is byte-identical to that run.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the default step budget is exhausted
    /// first, exactly when the scheduler-driven run would.
    pub fn run_all_rounds(&mut self) -> Result<Outcome, LivelockError> {
        let budget = self.default_step_budget();
        self.run_all_rounds_capped(budget)
    }

    /// Like [`run_all_rounds`](Discovery::run_all_rounds), with an
    /// explicit step budget instead of the default one.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if `max_steps` events execute without
    /// reaching quiescence.
    pub fn run_all_rounds_capped(&mut self, max_steps: u64) -> Result<Outcome, LivelockError> {
        let steps = self.runner.run_rounds(max_steps)?;
        let mut outcome = self.outcome();
        outcome.steps = steps;
        Ok(outcome)
    }

    /// Like [`run_recorded`](Discovery::run_recorded) under a FIFO
    /// scheduler, but executed on the round loop: the returned
    /// [`Schedule`] is byte-identical to that recording.
    pub fn run_rounds_recorded(&mut self) -> (Result<Outcome, LivelockError>, Schedule) {
        let budget = self.default_step_budget();
        let (result, mut schedule) = self.runner.run_rounds_recorded(budget);
        schedule.set_meta("nodes", self.runner.len().to_string());
        schedule.set_meta("variant", self.variant.to_string());
        let result = result.map(|steps| {
            let mut outcome = self.outcome();
            outcome.steps = steps;
            outcome
        });
        (result, schedule)
    }

    /// Like [`run_all`](Discovery::run_all), but records the exact choice
    /// sequence the scheduler makes into a replayable [`Schedule`] (with
    /// `nodes` and `variant` metadata attached). The schedule is returned
    /// even when the run livelocks — a livelocking prefix is still worth
    /// replaying.
    pub fn run_recorded<S: Scheduler>(
        &mut self,
        inner: S,
    ) -> (Result<Outcome, LivelockError>, Schedule) {
        let mut sched = RecordingScheduler::new(inner);
        let result = self.run_all(&mut sched);
        let mut schedule = sched.into_schedule();
        schedule.set_meta("nodes", self.runner.len().to_string());
        schedule.set_meta("variant", self.variant.to_string());
        (result, schedule)
    }

    /// Re-executes a recorded [`Schedule`] against this (freshly built)
    /// network: wakes every node and replays strictly, panicking with a
    /// divergence diagnostic if the schedule was recorded against a
    /// different system.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the step budget is exhausted first.
    pub fn run_replay(&mut self, schedule: &Schedule) -> Result<Outcome, LivelockError> {
        let mut sched = ReplayScheduler::strict(schedule);
        self.run_all(&mut sched)
    }

    /// Computes the current [`Outcome`] without running anything.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            leaders: self.leaders(),
            leader_of: self.runner.ids().map(|v| self.leader_of(v)).collect(),
            steps: 0,
            metrics: self.runner.metrics().clone(),
        }
    }

    /// All nodes currently in a leader state, in id order.
    pub fn leaders(&self) -> Vec<NodeId> {
        self.runner
            .nodes()
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
        let mut cur = v;
        for _ in 0..=self.runner.len() {
            let next = self.runner.node(cur).next_pointer();
            if next == cur {
                return cur;
            }
            cur = next;
        }
        panic!("next-pointer chain from {v} cycles");
    }

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
                self.runner.run(sched, self.default_step_budget())?;
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

    /// Checks the paper's §1.2 requirements (1, 2, 3/3a–3b and 4) against
    /// the given reference graph; call at quiescence.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// requirement.
    pub fn check_requirements(&self, graph: &KnowledgeGraph) -> Result<(), String> {
        invariants::check_requirements(&self.runner, graph, self.variant)
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
        let mut graph = KnowledgeGraph::new(survivors.len());
        for (i, &v) in survivors.iter().enumerate() {
            let node = self.runner.node(v);
            let knows = node
                .local()
                .iter()
                .chain(node.more())
                .chain(node.done())
                .chain(node.unaware())
                .chain(node.unexplored())
                .copied()
                .chain([node.next_pointer()]);
            for w in knows {
                let j = new_id.get(w.index()).copied().unwrap_or(usize::MAX);
                if j != usize::MAX && j != i {
                    graph.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
        }
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
                let next = self.runner.node(v).next_pointer();
                (next != v).then_some((v, next))
            })
            .collect();
        ard_graph::dot::to_dot_annotated(
            &self.graph,
            "discovery",
            |v| {
                let node = self.runner.node(v);
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

    /// The union of all nodes' observed state transitions (for the Figure 1
    /// coverage experiment).
    pub fn observed_transitions(&self) -> std::collections::BTreeSet<Transition> {
        self.runner
            .nodes()
            .flat_map(|n| n.transitions().iter().copied())
            .collect()
    }
}

impl std::fmt::Debug for Discovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Discovery")
            .field("variant", &self.variant)
            .field("nodes", &self.runner.len())
            .field("leaders", &self.leaders().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::gen;
    use ard_netsim::{FifoScheduler, LifoScheduler, RandomScheduler};

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
    }
}
