//! The seven workloads: how each derives its inputs from `--seed`, what one
//! library repetition and one CLI repetition of it run, and how the outputs
//! are checked.
//!
//! A *repetition* is the whole user-visible pipeline — generate the
//! topology, build the network, run to quiescence, check the paper's
//! requirements and budgets, render, tear down — with a span around each
//! call into a layer. With `wrap` set the nodes are [`Timed`] (and the
//! scheduler, where one exists, a [`TimedScheduler`]); the pipeline is
//! otherwise the same, and its outputs must be byte-identical.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use ard_cli::spec;
use ard_core::node::{ArdNode, AsArdNode};
use ard_core::{budgets, invariants, Config, Discovery, FaultyDiscovery, Reliable, Variant};
use ard_graph::{components, KnowledgeGraph};
use ard_netsim::explore::{explore, ExploreConfig, ExploreReport, ReduceMode};
use ard_netsim::{
    FaultScheduler, FifoScheduler, LivelockError, Metrics, NodeId, Protocol, RandomScheduler,
    RecordingScheduler, Runner, Schedule, Scheduler,
};

use crate::catalogue::WORKLOADS;
use crate::spans::Tracer;
use crate::timed::{take_node_stats, take_sched_stats, SchedOp, Timed, TimedScheduler};

/// How a workload drives the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One run on the thread-free fifo round engine (`run_sharded(1)`).
    Round,
    /// One run through `Runner::run` under a seeded random scheduler.
    Random,
    /// Many short random-scheduler runs on one graph (`--sweep`).
    Sweep,
    /// One run under fault injection with the reliable-delivery layer.
    Faulty,
    /// Interleaving exploration (`ard explore`).
    Explore,
}

/// `--quick` divides every size by this.
pub const QUICK_DIVISOR: usize = 16;

/// Components of the striped topology; component `c` owns ids
/// `{c, c + 64, c + 128, …}`.
pub const STRIPES: usize = 64;

/// One workload's inputs, all derived from the workload name and `--seed`.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub workload: &'static str,
    pub kind: Kind,
    pub seed: u64,
    pub n: usize,
    pub variant: Variant,
    /// The topology in the CLI's spelling (`striped:…` is this crate's own).
    pub topology: String,
    /// `Sweep`: number of trials (scheduler seeds `seed`, `seed + 1`, …).
    pub trials: usize,
    /// `Faulty`: the fault plan in the CLI's spelling.
    pub faults: String,
    /// `Explore`: total schedule budget, random walks among them, DFS depth.
    pub budget: u64,
    pub walks: u64,
    pub depth: usize,
}

impl Inputs {
    /// The inputs of `workload` under `seed`, at full or `--quick` size.
    pub fn new(workload: &str, seed: u64, quick: bool) -> Option<Inputs> {
        let div = if quick { QUICK_DIVISOR } else { 1 };
        let name = WORKLOADS.iter().find(|w| w.name == workload)?.name;
        let random = |n: usize| format!("random:n={n},extra={},seed={seed}", 2 * n);
        let mut inp = Inputs {
            workload: name,
            kind: Kind::Round,
            seed,
            n: 0,
            variant: Variant::Oblivious,
            topology: String::new(),
            trials: 1,
            faults: String::new(),
            budget: 0,
            walks: 0,
            depth: 0,
        };
        match workload {
            "round-64k" | "random-64k" | "round-256k" => {
                inp.kind = if workload == "random-64k" {
                    Kind::Random
                } else {
                    Kind::Round
                };
                inp.n = if workload == "round-256k" {
                    262_144
                } else {
                    65_536
                } / div;
                inp.topology = random(inp.n);
            }
            "striped-64k" => {
                inp.variant = Variant::Bounded;
                let per = 1024 / div;
                inp.n = STRIPES * per;
                inp.topology = format!(
                    "striped:count={STRIPES},per={per},extra={},seed={seed}",
                    2 * per
                );
            }
            "sweep-1k" => {
                inp.kind = Kind::Sweep;
                inp.variant = Variant::AdHoc;
                inp.n = 1024 / div;
                inp.trials = 300usize.div_ceil(div);
                inp.topology = random(inp.n);
            }
            "faulty-16k" => {
                inp.kind = Kind::Faulty;
                inp.n = 16_384 / div;
                inp.topology = random(inp.n);
                inp.faults = format!("drop=0.1,dup=0.05,crash=3,seed={seed}");
            }
            "explore-adhoc16" => {
                inp.kind = Kind::Explore;
                inp.variant = Variant::AdHoc;
                inp.n = 16;
                // One fixed system, as a bug-hunter has: the seed picks the
                // random walks. (A fresh 16-node graph per seed would move
                // every count by ±10 % and say nothing about the explorer.)
                inp.topology = "random:n=16,extra=24".to_string();
                inp.budget = 40_000 / div as u64;
                inp.walks = inp.budget / 2;
                inp.depth = 6;
            }
            _ => unreachable!("every catalogued workload has inputs"),
        }
        Some(inp)
    }

    /// Generates the topology — through the CLI's own parser wherever the
    /// CLI can spell it, so library and CLI repetitions run one graph.
    pub fn graph(&self) -> KnowledgeGraph {
        if self.topology.starts_with("striped:") {
            let per = self.n / STRIPES;
            return striped(STRIPES, per, 2 * per, self.seed);
        }
        spec::parse_topology(&self.topology).expect("catalogued topology parses")
    }

    /// The workload as `ard` arguments; `None` where the CLI cannot spell
    /// it (the striped topology).
    pub fn cli_args(&self, jobs: usize) -> Option<Vec<String>> {
        if self.topology.starts_with("striped:") {
            return None;
        }
        let variant = match self.variant {
            Variant::Oblivious => "oblivious",
            Variant::Bounded => "bounded",
            Variant::AdHoc => "adhoc",
        };
        let command = if self.kind == Kind::Explore {
            "explore"
        } else {
            "discover"
        };
        let mut args = vec![
            command.to_string(),
            "--topology".into(),
            self.topology.clone(),
            "--variant".into(),
            variant.into(),
        ];
        let mut flag = |key: &str, value: String| {
            args.push(format!("--{key}"));
            args.push(value);
        };
        let random = format!("random:{}", self.seed);
        match self.kind {
            Kind::Round => {
                flag("scheduler", "fifo".into());
                flag("shards", "1".into());
            }
            Kind::Random => flag("scheduler", random),
            Kind::Sweep => {
                flag("scheduler", random);
                flag("sweep", self.trials.to_string());
                flag("jobs", jobs.to_string());
            }
            Kind::Faulty => {
                flag("scheduler", random);
                flag("faults", self.faults.clone());
            }
            Kind::Explore => {
                flag("budget", self.budget.to_string());
                flag("walks", self.walks.to_string());
                flag("depth", self.depth.to_string());
                flag("reduce", "sleep".into());
                flag("jobs", jobs.to_string());
                flag("seed", self.seed.to_string());
            }
        }
        Some(args)
    }

    /// The explorer configuration of the `Explore` workload.
    pub fn explore_config(&self, jobs: usize) -> ExploreConfig {
        ExploreConfig {
            random_walks: self.walks,
            dfs_budget: self.budget - self.walks,
            dfs_depth: self.depth,
            seed: self.seed,
            jobs,
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        }
    }
}

/// `count` random weakly connected components of `per` nodes each
/// (`gen::random_multi_component` through the CLI's `components:` spec),
/// relabelled so that component `c` owns ids `{c, c + count, …}`: no two
/// adjacent ids share a component, so no cluster set ever coalesces into a
/// run longer than one id.
pub fn striped(count: usize, per: usize, extra: usize, seed: u64) -> KnowledgeGraph {
    let blocks = spec::parse_topology(&format!(
        "components:count={count},per={per},extra={extra},seed={seed}"
    ))
    .expect("components spec parses");
    let relabel = |v: NodeId| (v.index() % per) * count + v.index() / per;
    KnowledgeGraph::from_edges(
        blocks.len(),
        blocks.edges().map(|(u, v)| (relabel(u), relabel(v))),
    )
}

/// `Discovery::default_step_budget` for a network the benchmark builds
/// itself (`tests/transparency.rs` pins the two together).
pub fn step_budget(n: usize) -> u64 {
    let n = n as u64;
    200 * n * (64 - n.leading_zeros() as u64 + 1) + 10_000
}

/// What one repetition of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Topology generation + network build.
    pub setup_s: f64,
    /// The run phase only.
    pub run_s: f64,
    /// Everything the CLI would do for this workload, through the library.
    pub pipeline_s: f64,
    /// Edges of the topology.
    pub edges: usize,
    /// Simulator events executed, over all schedules.
    pub events: u64,
    /// Complete runs to quiescence.
    pub schedules: u64,
    /// Means over the schedules. `depth` is virtual time:
    /// `Metrics::max_causal_depth`, except under faults. There every timer
    /// tick restarts the causal chain (the runner dispatches ticks at depth
    /// 1), so the maximum is a heavy-tailed extreme of about 100 that moves
    /// by a third with the seed; virtual time is then the reliable layer's
    /// own clock, the largest `Reliable::clock()`.
    pub messages: f64,
    pub bits: f64,
    pub depth: f64,
    /// Every simulated output of the repetition as text; equal across
    /// repetitions, engines and wrappers at equal seed.
    pub fingerprint: String,
    /// Livelock, requirement or budget violation.
    pub failure: Option<String>,
    /// Single-run workloads: the run's metrics and engine gauges.
    pub last: Option<(Metrics, Gauges)>,
    /// The scheduler's token operations, when logging was asked for.
    pub ops: Vec<SchedOp>,
    /// `Faulty`: the recorded schedule. `Explore`: the report.
    pub schedule: Option<Schedule>,
    pub report: Option<ExploreReport>,
}

/// Engine-side gauges read off the runner after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub knowledge_bytes: usize,
    pub payload_bytes_sent: u64,
    pub payload_peak_bytes: u64,
}

/// Which engine drives a single-run workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The workload's own: the single-shard round engine for `Round`, the
    /// seeded random scheduler for everything else.
    #[default]
    Own,
    /// `Runner::run` under a `FifoScheduler` (same schedule as the round
    /// engine, through the scheduler-driven path).
    Fifo,
    /// The round engine on this many shard threads.
    Shards(usize),
}

/// Options of one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepOptions {
    /// Wrap nodes (and scheduler) in the timing wrappers.
    pub wrap: bool,
    /// Log the scheduler's token stream (needs `wrap`).
    pub log_ops: bool,
    /// `Faulty`: run without the recording scheduler.
    pub no_record: bool,
    /// `Round`: drive the network with another engine.
    pub engine: Engine,
    /// Turn on the runner's event trace.
    pub event_trace: bool,
}

/// A discovery network: the real driver, or the same network with every
/// node wrapped for timing.
enum Net {
    Bare(Discovery),
    Wrapped(Runner<Timed<ArdNode>>),
}

fn ard_nodes(graph: &KnowledgeGraph, variant: Variant) -> Vec<ArdNode> {
    // Mirrors `Discovery::with_config`.
    let mut nodes: Vec<ArdNode> = graph
        .ids()
        .map(|id| {
            ArdNode::new(
                id,
                graph.out_edges(id).iter().copied(),
                variant,
                Config::paper(),
            )
        })
        .collect();
    if variant == Variant::Bounded {
        for component in components::weakly_connected_components(graph) {
            for &v in &component {
                nodes[v.index()].set_component_size(component.len());
            }
        }
    }
    nodes
}

impl Net {
    fn build(graph: &KnowledgeGraph, variant: Variant, wrap: bool, tr: &mut Tracer) -> Net {
        if !wrap {
            return Net::Bare(Discovery::new(graph, variant));
        }
        let nodes = tr.span("core.node.new", |_| ard_nodes(graph, variant));
        tr.span("netsim.runner.with_topology", |_| {
            Net::Wrapped(Runner::with_topology(
                nodes.into_iter().map(Timed).collect(),
                |id| graph.out_edges(id),
            ))
        })
    }

    /// Wakes every node and runs to quiescence on the round engine
    /// (`shards` threads) or under `sched`.
    fn run(
        &mut self,
        shards: usize,
        sched: Option<&mut dyn Scheduler>,
    ) -> Result<u64, LivelockError> {
        fn drive<P>(
            runner: &mut Runner<P>,
            shards: usize,
            sched: Option<&mut dyn Scheduler>,
        ) -> Result<u64, LivelockError>
        where
            P: Protocol + Send,
            P::Message: Send,
        {
            let budget = step_budget(runner.len());
            match sched {
                None => runner.run_sharded(shards, budget),
                Some(sched) => {
                    runner.enqueue_wake_all(sched);
                    runner.run(sched, budget)
                }
            }
        }
        match self {
            Net::Bare(d) => drive(d.runner_mut(), shards, sched),
            Net::Wrapped(r) => drive(r, shards, sched),
        }
    }

    /// Requirement check, metrics, digest and gauges of a finished run.
    fn inspect(&self, graph: &KnowledgeGraph, variant: Variant, tr: &mut Tracer) -> Inspection {
        fn look<P: Protocol + AsArdNode>(
            runner: &Runner<P>,
            graph: &KnowledgeGraph,
            variant: Variant,
            tr: &mut Tracer,
        ) -> Inspection {
            let requirements = tr.span("core.invariants.check_requirements", |_| {
                invariants::check_requirements(runner, graph, variant)
            });
            Inspection {
                requirements,
                metrics: runner.metrics().clone(),
                steps: runner.steps_executed(),
                gauges: gauges(runner),
            }
        }
        match self {
            Net::Bare(d) => look(d.runner(), graph, variant, tr),
            Net::Wrapped(r) => look(r, graph, variant, tr),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Net::Bare(d) => d.runner().state_digest(),
            Net::Wrapped(r) => r.state_digest(),
        }
    }

    fn enable_trace(&mut self) {
        match self {
            Net::Bare(d) => d.runner_mut().enable_trace(),
            Net::Wrapped(r) => r.enable_trace(),
        }
    }
}

struct Inspection {
    requirements: Result<(), String>,
    metrics: Metrics,
    steps: u64,
    gauges: Gauges,
}

fn gauges<P: Protocol>(runner: &Runner<P>) -> Gauges {
    Gauges {
        knowledge_bytes: runner.knowledge_bytes(),
        payload_bytes_sent: runner.payload_bytes_sent(),
        payload_peak_bytes: runner.payload_peak_bytes(),
    }
}

/// Moves the wrapper tables of a finished run into the trace, under the
/// open span.
fn attach_wrapper_stats(tr: &mut Tracer) {
    for (layer, name) in [(0, "core.node"), (1, "core.reliable")] {
        let stats = take_node_stats(layer);
        if !stats.ops().is_empty() {
            tr.aggregate(name, stats);
        }
    }
    for (layer, name) in [(0, "netsim.scheduler"), (1, "netsim.fault")] {
        let stats = take_sched_stats(layer);
        if !stats.ops().is_empty() {
            tr.aggregate(name, stats);
        }
    }
}

/// One discovery run on `graph`: build, run, outcome, checks, render,
/// digest, drop. Returns the run's outputs; timings are in the trace.
struct Trial {
    inspection: Inspection,
    display: String,
    digest: u64,
    ops: Vec<SchedOp>,
    failure: Option<String>,
}

/// Runs `net` under `inner`, behind a [`TimedScheduler`] when wrapping.
fn run_scheduled<S: Scheduler>(
    net: &mut Net,
    mut inner: S,
    opt: RepOptions,
    ops: &mut Vec<SchedOp>,
) -> Result<u64, LivelockError> {
    if !opt.wrap {
        return net.run(0, Some(&mut inner));
    }
    let mut sched = TimedScheduler::<S, 0>::new(inner, opt.log_ops);
    let ran = net.run(0, Some(&mut sched));
    *ops = sched.into_log();
    ran
}

fn trial(
    inp: &Inputs,
    graph: &KnowledgeGraph,
    sched_seed: Option<u64>,
    opt: RepOptions,
    with_digest: bool,
    tr: &mut Tracer,
) -> Trial {
    let mut net = tr.span("setup", |tr| {
        tr.span("core.driver.new", |tr| {
            Net::build(graph, inp.variant, opt.wrap, tr)
        })
    });
    if opt.event_trace {
        net.enable_trace();
    }
    let mut ops = Vec::new();
    let ran = tr.span("run", |tr| {
        let ran = match (sched_seed, opt.engine) {
            (None, Engine::Own) => net.run(1, None),
            (None, Engine::Shards(shards)) => net.run(shards, None),
            (None, Engine::Fifo) => run_scheduled(&mut net, FifoScheduler::new(), opt, &mut ops),
            (Some(seed), _) => {
                run_scheduled(&mut net, RandomScheduler::seeded(seed), opt, &mut ops)
            }
        };
        attach_wrapper_stats(tr);
        ran
    });
    if let Net::Bare(d) = &net {
        // What `Discovery::run_all*` computes after the run proper.
        tr.span("core.driver.outcome", |_| drop(d.outcome()));
    }
    let inspection = net.inspect(graph, inp.variant, tr);
    let budgets = tr.span("core.budgets.check_all", |_| {
        budgets::check_all(
            &inspection.metrics,
            graph.len() as u64,
            graph.edge_count() as u64,
            inp.variant,
        )
    });
    let display = tr.span("render", |_| inspection.metrics.to_string());
    let digest = if with_digest {
        tr.span("netsim.runner.state_digest", |_| net.digest())
    } else {
        0
    };
    tr.span("drop", |_| drop(net));
    let failure = ran
        .map(|_| ())
        .map_err(|e| e.to_string())
        .and(inspection.requirements.clone())
        .and(budgets)
        .err();
    Trial {
        inspection,
        display,
        digest,
        ops,
        failure,
    }
}

/// Spans a repetition's pipeline time is made of: what `ard discover`
/// does. The budget check and the state digest are the benchmark's own
/// correctness checks, so they stay out.
const PIPELINE_SPANS: [&str; 6] = [
    "setup",
    "run",
    "core.driver.outcome",
    "core.invariants.check_requirements",
    "render",
    "drop",
];

fn finish_rep(mut rep: Rep, mark: usize, tr: &Tracer) -> Rep {
    rep.setup_s = tr.secs_since(mark, "setup");
    rep.run_s = tr.secs_since(mark, "run");
    rep.pipeline_s = PIPELINE_SPANS.iter().map(|s| tr.secs_since(mark, s)).sum();
    rep
}

/// Name of a repetition's root span.
fn rep_span(opt: RepOptions) -> &'static str {
    if opt.wrap {
        "rep.timed"
    } else {
        "rep.bare"
    }
}

fn single_run_rep(inp: &Inputs, opt: RepOptions, tr: &mut Tracer) -> Rep {
    let mark = tr.mark();
    let rep = tr.span(rep_span(opt), |tr| {
        let graph = tr.span("setup", |tr| tr.span("graph.gen", |_| inp.graph()));
        let sched_seed = (inp.kind == Kind::Random).then_some(inp.seed);
        let t = trial(inp, &graph, sched_seed, opt, true, tr);
        let edges = graph.edge_count();
        tr.span("drop", |_| drop(graph));
        let m = &t.inspection.metrics;
        Rep {
            edges,
            events: t.inspection.steps,
            schedules: 1,
            messages: m.total_messages() as f64,
            bits: m.total_bits() as f64,
            depth: m.max_causal_depth() as f64,
            fingerprint: format!(
                "{}steps {} digest {:016x}\n",
                t.display, t.inspection.steps, t.digest
            ),
            failure: t.failure,
            last: Some((t.inspection.metrics, t.inspection.gauges)),
            ops: t.ops,
            ..Rep::default()
        }
    });
    finish_rep(rep, mark, tr)
}

fn sweep_rep(inp: &Inputs, opt: RepOptions, tr: &mut Tracer) -> Rep {
    let mark = tr.mark();
    let rep = tr.span(rep_span(opt), |tr| {
        let graph = tr.span("setup", |tr| tr.span("graph.gen", |_| inp.graph()));
        let mut rep = Rep {
            edges: graph.edge_count(),
            ..Rep::default()
        };
        for i in 0..inp.trials as u64 {
            let seed = inp.seed.wrapping_add(i);
            let t = trial(inp, &graph, Some(seed), opt, false, tr);
            let m = &t.inspection.metrics;
            rep.events += t.inspection.steps;
            rep.schedules += 1;
            rep.messages += m.total_messages() as f64;
            rep.bits += m.total_bits() as f64;
            rep.depth += m.max_causal_depth() as f64;
            // The tail of the CLI's per-trial line.
            rep.fingerprint += &format!(
                "{} steps, {} msgs, {} bits\n",
                t.inspection.steps,
                m.total_messages(),
                m.total_bits()
            );
            if rep.failure.is_none() {
                rep.failure = t.failure.map(|e| format!("seed {seed}: {e}"));
            }
        }
        let trials = inp.trials as f64;
        rep.messages /= trials;
        rep.bits /= trials;
        rep.depth /= trials;
        rep
    });
    finish_rep(rep, mark, tr)
}

type WrappedReliable = Timed<Reliable<Timed<ArdNode, 0>>, 1>;

fn faulty_rep(inp: &Inputs, opt: RepOptions, tr: &mut Tracer) -> Rep {
    enum Net {
        Bare(FaultyDiscovery),
        Wrapped(Runner<WrappedReliable>),
    }
    let mark = tr.mark();
    let rep = tr.span(rep_span(opt), |tr| {
        let (graph, mut net) = tr.span("setup", |tr| {
            let graph = tr.span("graph.gen", |_| inp.graph());
            let net = tr.span("core.driver.new", |tr| {
                if !opt.wrap {
                    return Net::Bare(FaultyDiscovery::new(&graph, inp.variant));
                }
                // Mirrors `FaultyDiscovery::new`.
                let nodes = tr.span("core.node.new", |_| ard_nodes(&graph, inp.variant));
                tr.span("netsim.runner.with_topology", |_| {
                    Net::Wrapped(Runner::with_topology(
                        nodes
                            .into_iter()
                            .map(|n| Timed(Reliable::new(Timed(n))))
                            .collect(),
                        |id| graph.out_edges(id),
                    ))
                })
            });
            (graph, net)
        });
        let plan = spec::parse_faults(&inp.faults, graph.len()).expect("catalogued fault plan");
        // The scheduler stack of `Discovery::run_faulty`, with a timing
        // wrapper on each side of the fault layer when wrapping.
        let random = RandomScheduler::seeded(inp.seed);
        let mut schedule = None;
        let ran: Result<u64, String> = tr.span("run", |tr| {
            let mut drive = |sched: &mut dyn Scheduler| match &mut net {
                Net::Bare(fd) => fd.run_all(sched).map(|o| o.steps),
                Net::Wrapped(r) => {
                    // `FaultyDiscovery::step_budget`.
                    let budget = 100 * step_budget(r.len());
                    r.enqueue_wake_all(sched);
                    r.run(sched, budget).map_err(|e| e.to_string())
                }
            };
            let ran = if opt.wrap {
                let inner = TimedScheduler::<_, 0>::new(random, false);
                let faults =
                    TimedScheduler::<_, 1>::new(FaultScheduler::new(inner, Some(plan)), false);
                let mut sched = RecordingScheduler::new(faults);
                let ran = drive(&mut sched);
                schedule = Some(sched.into_schedule());
                ran
            } else if opt.no_record {
                drive(&mut FaultScheduler::new(random, Some(plan)))
            } else {
                let mut sched = RecordingScheduler::new(FaultScheduler::new(random, Some(plan)));
                let ran = drive(&mut sched);
                schedule = Some(sched.into_schedule());
                ran
            };
            attach_wrapper_stats(tr);
            ran
        });
        fn look<P: Protocol + AsArdNode>(
            runner: &Runner<P>,
            unacked: usize,
            graph: &KnowledgeGraph,
            variant: Variant,
            tr: &mut Tracer,
        ) -> Inspection {
            let requirements = tr.span("core.invariants.check_requirements", |_| {
                if unacked != 0 {
                    return Err(format!(
                        "quiesced with {unacked} unacknowledged transmissions"
                    ));
                }
                invariants::check_requirements(runner, graph, variant)
            });
            Inspection {
                requirements,
                metrics: runner.metrics().clone(),
                steps: runner.steps_executed(),
                gauges: gauges(runner),
            }
        }
        let (inspection, clock) = match &net {
            Net::Bare(fd) => {
                let nodes = || fd.runner().nodes();
                let unacked = nodes().map(|n| n.unacked_len()).sum();
                let clock = nodes().map(|n| n.clock()).max();
                (look(fd.runner(), unacked, &graph, inp.variant, tr), clock)
            }
            Net::Wrapped(r) => {
                let unacked = r.nodes().map(|n| n.0.unacked_len()).sum();
                let clock = r.nodes().map(|n| n.0.clock()).max();
                (look(r, unacked, &graph, inp.variant, tr), clock)
            }
        };
        let budgets = tr.span("core.budgets.check_all", |_| {
            budgets::check_all_faulty(
                &inspection.metrics,
                graph.len() as u64,
                graph.edge_count() as u64,
                inp.variant,
            )
        });
        let display = tr.span("render", |_| inspection.metrics.to_string());
        let digest = tr.span("netsim.runner.state_digest", |_| match &net {
            Net::Bare(fd) => fd.runner().state_digest(),
            Net::Wrapped(r) => r.state_digest(),
        });
        let edges = graph.edge_count();
        tr.span("drop", |_| drop((net, graph)));
        let m = &inspection.metrics;
        Rep {
            edges,
            events: inspection.steps,
            schedules: 1,
            messages: m.total_messages() as f64,
            bits: m.total_bits() as f64,
            depth: clock.unwrap_or(0) as f64,
            fingerprint: format!("{display}steps {} digest {digest:016x}\n", inspection.steps),
            failure: ran
                .map(|_| ())
                .and(inspection.requirements.clone())
                .and(budgets)
                .err(),
            last: Some((inspection.metrics, inspection.gauges)),
            schedule,
            ..Rep::default()
        }
    });
    finish_rep(rep, mark, tr)
}

/// How many times the explore workload's set-up builds its 16-node system
/// per sample. The explorer rebuilds the system for every schedule, so the
/// build cost matters, but a single build (a few µs) is too short to time.
pub const EXPLORE_SETUP_BUILDS: usize = 1000;

fn explore_setup_builds(inp: &Inputs) {
    let mut scratch = Tracer::default();
    for _ in 0..EXPLORE_SETUP_BUILDS {
        let graph = inp.graph();
        std::hint::black_box(Net::build(&graph, inp.variant, false, &mut scratch));
    }
}

fn explore_rep(inp: &Inputs, opt: RepOptions, config: &ExploreConfig, tr: &mut Tracer) -> Rep {
    #[derive(Default)]
    struct Tally {
        events: AtomicU64,
        messages: AtomicU64,
        bits: AtomicU64,
        depth: AtomicU64,
        schedules: AtomicU64,
    }
    let mark = tr.mark();
    let rep = tr.span(rep_span(opt), |tr| {
        let edges = tr.span("setup", |tr| {
            explore_setup_builds(inp);
            tr.span("graph.gen", |_| inp.graph().edge_count())
        });
        let tally = Tally::default();
        // What `ard explore` runs per candidate schedule (`System::run_one`
        // in the CLI): rebuild from the spec, run, check requirements and
        // budgets. The statistics are counters only, hence `Relaxed`.
        let run_one = |sched: &mut dyn Scheduler| -> Result<(), String> {
            let mut scratch = Tracer::default();
            let graph = inp.graph();
            let mut net = Net::build(&graph, inp.variant, opt.wrap, &mut scratch);
            net.run(0, Some(sched)).map_err(|e| e.to_string())?;
            let seen = net.inspect(&graph, inp.variant, &mut scratch);
            seen.requirements?;
            let m = &seen.metrics;
            budgets::check_all(
                m,
                graph.len() as u64,
                graph.edge_count() as u64,
                inp.variant,
            )?;
            tally.events.fetch_add(seen.steps, Relaxed);
            tally.messages.fetch_add(m.total_messages(), Relaxed);
            tally.bits.fetch_add(m.total_bits(), Relaxed);
            tally.depth.fetch_add(m.max_causal_depth(), Relaxed);
            tally.schedules.fetch_add(1, Relaxed);
            Ok(())
        };
        let report = tr.span("run", |tr| {
            let report = explore(config, || |sched: &mut dyn Scheduler| run_one(sched));
            attach_wrapper_stats(tr);
            report
        });
        let schedules = tally.schedules.load(Relaxed);
        let mean = |total: &AtomicU64| total.load(Relaxed) as f64 / schedules.max(1) as f64;
        Rep {
            edges,
            events: tally.events.load(Relaxed),
            schedules: report.runs,
            messages: mean(&tally.messages),
            bits: mean(&tally.bits),
            depth: mean(&tally.depth),
            fingerprint: format!(
                "explored {} ({} walks, {} dfs), pruned {}, deduped {}, stopped: {}\n\
                 events {}, messages {}, bits {}\n",
                report.runs,
                report.random_walks,
                report.dfs_runs,
                report.sleep_pruned,
                report.digest_deduped,
                report.stop,
                tally.events.load(Relaxed),
                tally.messages.load(Relaxed),
                tally.bits.load(Relaxed),
            ),
            failure: report
                .failure
                .as_ref()
                .map(|f| format!("violation found by {}: {}", f.origin, f.reason)),
            report: Some(report),
            ..Rep::default()
        }
    });
    finish_rep(rep, mark, tr)
}

/// One library repetition of the workload.
pub fn library_rep(inp: &Inputs, opt: RepOptions, tr: &mut Tracer) -> Rep {
    match inp.kind {
        Kind::Round | Kind::Random => single_run_rep(inp, opt, tr),
        Kind::Sweep => sweep_rep(inp, opt, tr),
        Kind::Faulty => faulty_rep(inp, opt, tr),
        Kind::Explore => explore_rep(inp, opt, &inp.explore_config(1), tr),
    }
}

/// The explore workload with its own explorer configuration (phases apart,
/// more jobs).
pub fn explore_with(inp: &Inputs, config: &ExploreConfig, tr: &mut Tracer) -> Rep {
    explore_rep(inp, RepOptions::default(), config, tr)
}

/// Only the set-up part of a repetition (topology + network build), for
/// extra `setup_s` samples.
pub fn setup_only(inp: &Inputs) -> f64 {
    let mut tr = Tracer::default();
    let start = Instant::now();
    if inp.kind == Kind::Explore {
        explore_setup_builds(inp);
        return start.elapsed().as_secs_f64();
    }
    let graph = inp.graph();
    let mut built = start.elapsed().as_secs_f64();
    for _ in 0..inp.trials {
        let start = Instant::now();
        let net = match inp.kind {
            Kind::Faulty => {
                std::hint::black_box(FaultyDiscovery::new(&graph, inp.variant));
                None
            }
            _ => Some(Net::build(&graph, inp.variant, false, &mut tr)),
        };
        built += start.elapsed().as_secs_f64();
        drop(net);
    }
    built
}

/// One CLI repetition: `ard_cli::commands::run` in process, timed from
/// argument parsing to the rendered report. Returns seconds and the report,
/// or `None` where the CLI cannot spell the workload.
pub fn cli_rep(inp: &Inputs, jobs: usize) -> Option<(f64, Result<String, String>)> {
    let args = inp.cli_args(jobs)?;
    let start = Instant::now();
    let out = ard_cli::commands::run(&args);
    let secs = start.elapsed().as_secs_f64();
    Some((secs, out.map_err(|e| e.to_string())))
}

/// Checks a CLI report against a library repetition of the same inputs.
///
/// # Errors
///
/// Returns what differs.
pub fn check_cli_report(inp: &Inputs, report: &str, rep: &Rep) -> Result<(), String> {
    let expect = |needle: String| {
        report
            .contains(&needle)
            .then_some(())
            .ok_or_else(|| format!("CLI report lacks `{}`", needle.trim_end()))
    };
    match inp.kind {
        Kind::Round | Kind::Random | Kind::Faulty => {
            let (metrics, _) = rep.last.as_ref().expect("single-run repetition");
            expect(format!("steps     : {}\n", rep.events))?;
            expect("requirements: satisfied".to_string())?;
            expect(metrics.to_string())
        }
        Kind::Sweep => {
            // Per trial: `  seed S: leaders [..], N steps, M msgs, B bits`.
            let tails: String = report
                .lines()
                .filter(|l| l.trim_start().starts_with("seed"))
                .filter_map(|l| l.split_once("], "))
                .map(|(_, tail)| format!("{tail}\n"))
                .collect();
            (tails == rep.fingerprint)
                .then_some(())
                .ok_or_else(|| "CLI sweep lines differ from the library's".to_string())?;
            expect("requirements: satisfied in every trial".to_string())
        }
        Kind::Explore => {
            let r = rep.report.as_ref().expect("explore repetition");
            expect(format!(
                "explored  : {} schedules ({} random walks, {} dfs, depth {})",
                r.runs, r.random_walks, r.dfs_runs, inp.depth
            ))?;
            expect("result    : no violation found".to_string())
        }
    }
}
