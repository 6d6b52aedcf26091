//! The measuring wrappers must not change what they measure: a network of
//! `Timed<ArdNode>` under a `TimedScheduler` ends with the same metrics
//! text, state digest and recorded schedule as the bare network, on both
//! engines the wrappers are used with. And the striped topology is what
//! the catalogue says it is.

use ard_benchmark::timed::{take_node_stats, take_sched_stats, Timed, TimedScheduler};
use ard_benchmark::workloads::{step_budget, striped, Inputs, STRIPES};
use ard_core::node::ArdNode;
use ard_core::{Config, Discovery, Variant};
use ard_graph::{components, gen, KnowledgeGraph};
use ard_netsim::{Protocol, RandomScheduler, RecordingScheduler, Runner};

fn network<P: Protocol>(graph: &KnowledgeGraph, wrap: impl Fn(ArdNode) -> P) -> Runner<P> {
    let nodes = graph
        .ids()
        .map(|id| {
            let known = graph.out_edges(id).iter().copied();
            wrap(ArdNode::new(id, known, Variant::Oblivious, Config::paper()))
        })
        .collect();
    Runner::with_topology(nodes, |id| graph.out_edges(id))
}

/// Metrics text, state digest and recorded schedule text of a finished run.
type Outputs = (String, u64, String);

fn scheduled<P: Protocol>(mut runner: Runner<P>, timed: bool, seed: u64) -> Outputs {
    let budget = step_budget(runner.len());
    let random = RandomScheduler::seeded(seed);
    let schedule = if timed {
        let mut sched = RecordingScheduler::new(TimedScheduler::<_, 0>::new(random, false));
        runner.enqueue_wake_all(&mut sched);
        runner.run(&mut sched, budget).unwrap();
        sched.into_schedule()
    } else {
        let mut sched = RecordingScheduler::new(random);
        runner.enqueue_wake_all(&mut sched);
        runner.run(&mut sched, budget).unwrap();
        sched.into_schedule()
    };
    (
        runner.metrics().to_string(),
        runner.state_digest(),
        schedule.to_text(),
    )
}

fn round_engine<P>(mut runner: Runner<P>) -> Outputs
where
    P: Protocol + Send,
    P::Message: Send,
{
    let budget = step_budget(runner.len());
    let (steps, schedule) = runner.run_sharded_recorded(1, budget);
    steps.unwrap();
    (
        runner.metrics().to_string(),
        runner.state_digest(),
        schedule.to_text(),
    )
}

#[test]
fn wrapped_runs_end_like_bare_runs_on_both_engines() {
    // One size in the dense-bitset regime, one in the run-coded one.
    for n in [256, 9_000] {
        let graph = gen::random_weakly_connected(n, 2 * n, 7);
        assert_eq!(
            step_budget(n),
            Discovery::new(&graph, Variant::Oblivious).default_step_budget(),
            "step_budget mirrors Discovery::default_step_budget"
        );

        let bare = scheduled(network(&graph, |node| node), false, 11);
        let wrapped = scheduled(network(&graph, Timed::<_, 0>), true, 11);
        assert_eq!(bare, wrapped, "Runner::run, n = {n}");
        let (nodes, sched) = (take_node_stats(0), take_sched_stats(0));
        let events = bare.2.lines().filter(|l| !l.starts_with('#')).count() as u64;
        assert!(events > n as u64);
        assert_eq!(
            sched.op("choose").calls,
            nodes.total().calls + 1,
            "one handler per choice, plus the final empty choose"
        );
        assert_eq!(nodes.op("on_wake").calls, n as u64);

        let bare = round_engine(network(&graph, |node| node));
        let wrapped = round_engine(network(&graph, Timed::<_, 0>));
        assert_eq!(bare, wrapped, "run_sharded(1), n = {n}");
        assert_eq!(take_node_stats(0).op("on_wake").calls, n as u64);
    }
}

#[test]
fn striped_topology_is_deterministic_and_interleaved() {
    let a = striped(STRIPES, 32, 64, 5);
    let b = striped(STRIPES, 32, 64, 5);
    let edges = |g: &KnowledgeGraph| g.edges().collect::<Vec<_>>();
    assert_eq!(edges(&a), edges(&b), "same seed, same graph");
    assert_ne!(
        edges(&a),
        edges(&striped(STRIPES, 32, 64, 6)),
        "the seed matters"
    );

    let comps = components::weakly_connected_components(&a);
    assert_eq!(comps.len(), STRIPES);
    for comp in &comps {
        assert_eq!(comp.len(), 32);
        // Component `c` owns exactly the ids congruent to `c`: no two
        // adjacent ids ever share a component.
        let stripe = comp[0].index() % STRIPES;
        assert!(comp.iter().all(|v| v.index() % STRIPES == stripe));
    }

    // The catalogued workload goes through the same generator.
    let inputs = Inputs::new("striped-64k", 5, true).unwrap();
    assert_eq!(inputs.graph().len(), inputs.n);
    assert_eq!(
        components::weakly_connected_components(&inputs.graph()).len(),
        STRIPES
    );
}
