//! Property-based tests (proptest): correctness and budgets hold for
//! arbitrary random graphs, schedules and operation sequences.

use proptest::prelude::*;

use asynchronous_resource_discovery::core::{
    budgets, record, replay, Discovery, Plans, RunSpec, Variant,
};
use asynchronous_resource_discovery::graph::{components, gen, KnowledgeGraph};
use asynchronous_resource_discovery::netsim::explore::{fixtures, run_fork_system};
use asynchronous_resource_discovery::netsim::{
    BoundedDelayScheduler, ByzantinePlan, Choice, ChurnPlan, FaultPlan, Footprint, Kind,
    LifoScheduler, NodeId, RandomScheduler, RecordingScheduler, ReplayScheduler, Schedule,
    Scheduler,
};
use asynchronous_resource_discovery::union_find::{
    Compression, Op, OpSequence, UnionFind, UnionPolicy,
};

fn variant_strategy() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Oblivious),
        Just(Variant::Bounded),
        Just(Variant::AdHoc),
    ]
}

/// A drawn member of the scheduler family — the paper's guarantees hold for
/// *every* asynchronous schedule, so the properties sample benign, hostile
/// and partially synchronous orderings, not just uniform-random ones.
#[derive(Clone, Debug)]
enum SchedSpec {
    Random(u64),
    Lifo,
    Bounded { delay: u64, seed: u64 },
}

impl SchedSpec {
    fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedSpec::Random(seed) => Box::new(RandomScheduler::seeded(seed)),
            SchedSpec::Lifo => Box::new(LifoScheduler::new()),
            SchedSpec::Bounded { delay, seed } => Box::new(BoundedDelayScheduler::new(delay, seed)),
        }
    }
}

fn sched_strategy() -> impl Strategy<Value = SchedSpec> {
    prop_oneof![
        (0u64..1_000_000).prop_map(SchedSpec::Random),
        Just(SchedSpec::Lifo),
        (1u64..12, 0u64..1_000_000)
            .prop_map(|(delay, seed)| SchedSpec::Bounded { delay, seed }),
    ]
}

/// A drawn fault plan, sized to the network inside the property (crash
/// events need the node count, which is drawn separately).
#[derive(Clone, Debug)]
struct FaultSpec {
    seed: u64,
    drop: f64,
    dup: f64,
    crashes: usize,
}

impl FaultSpec {
    fn plan(&self, n: usize) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with_drop(self.drop)
            .with_dup(self.dup)
            .with_spread_crashes(self.crashes, n)
    }
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (0u64..1_000_000, 0u32..31, 0u32..11, 0usize..3).prop_map(
        |(seed, drop_pct, dup_pct, crashes)| FaultSpec {
            seed,
            drop: f64::from(drop_pct) / 100.0,
            dup: f64::from(dup_pct) / 100.0,
            crashes,
        },
    )
}

/// A drawn Byzantine plan: traitor count, seed, and either a single fault
/// class or the whole alphabet at once.
#[derive(Clone, Debug)]
struct ByzantineSpec {
    seed: u64,
    f: usize,
    class: usize,
}

impl ByzantineSpec {
    const CLASSES: [&'static str; 4] = ["equivocate", "fabricate", "silence", "stale-restart"];

    fn plan(&self) -> ByzantinePlan {
        let plan = ByzantinePlan::new(self.seed, self.f);
        match Self::CLASSES.get(self.class) {
            Some(class) => plan.only(class),
            None => plan, // index 4: every class at once
        }
    }
}

fn byzantine_strategy() -> impl Strategy<Value = ByzantineSpec> {
    (0u64..1_000_000, 1usize..3, 0usize..5)
        .prop_map(|(seed, f, class)| ByzantineSpec { seed, f, class })
}

/// A drawn churn plan (or none): join/leave rate up to the 40% of nodes.
#[derive(Clone, Debug)]
struct ChurnSpec {
    seed: u64,
    rate: f64,
}

impl ChurnSpec {
    fn plan(&self) -> ChurnPlan {
        ChurnPlan::new(self.seed, self.rate)
    }
}

fn churn_strategy() -> impl Strategy<Value = Option<ChurnSpec>> {
    prop_oneof![
        Just(None),
        (0u64..1_000_000, 1u32..41)
            .prop_map(|(seed, pct)| Some(ChurnSpec { seed, rate: f64::from(pct) / 100.0 })),
    ]
}

/// Writes the recorded schedule of a failing plan-free run under
/// `target/failed-schedules/` and returns a test failure naming the
/// artifact, so any property failure is replayable via `ard replay <path>`
/// (the vendored proptest does not shrink; the replay file is the
/// minimization story — see docs/testing.md).
fn fail_with_artifact(
    topology: &str,
    variant: Variant,
    mut schedule: Schedule,
    reason: &str,
) -> TestCaseError {
    let spec = RunSpec {
        topology: topology.into(),
        variant,
        plans: Plans::default(),
    };
    spec.stamp(&mut schedule);
    write_artifact(schedule, reason)
}

/// Writes `schedule` (metadata already stamped) under
/// `target/failed-schedules/` and returns a test failure naming the
/// artifact.
fn write_artifact(mut schedule: Schedule, reason: &str) -> TestCaseError {
    schedule.set_meta("reason", reason.replace('\n', " "));
    let text = schedule.to_text();
    // FNV-1a content hash: stable artifact names, no timestamp needed.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let dir = std::path::Path::new("target").join("failed-schedules");
    let path = dir.join(format!("{hash:016x}.schedule"));
    let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
    match write {
        Ok(()) => TestCaseError::fail(format!(
            "{reason}\nreplay artifact: {} (re-run with `ard replay <path>`, shrink per docs/testing.md)",
            path.display()
        )),
        Err(e) => TestCaseError::fail(format!("{reason}\n(could not write replay artifact: {e})")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Requirements + budgets on arbitrary random weakly connected graphs
    /// under the whole scheduler family (random, LIFO, bounded-delay).
    #[test]
    fn discovery_is_correct_on_random_graphs(
        n in 2usize..40,
        extra in 0usize..120,
        graph_seed in 0u64..1_000_000,
        sched in sched_strategy(),
        variant in variant_strategy(),
    ) {
        let topology = format!("random:n={n},extra={extra},seed={graph_seed}");
        let graph = gen::random_weakly_connected(n, extra, graph_seed);
        let mut d = Discovery::new(&graph, variant);
        let mut recorder = RecordingScheduler::new(sched.build());
        d.run_all(&mut recorder).expect("livelock");
        let schedule = recorder.into_schedule();
        let check = d.check_requirements(&graph).and_then(|()| {
            budgets::check_all(
                d.runner().metrics(),
                n as u64,
                graph.edge_count() as u64,
                variant,
            )
        });
        if let Err(reason) = check {
            return Err(fail_with_artifact(&topology, variant, schedule, &reason));
        }
    }

    /// Multi-component graphs elect exactly one leader per component,
    /// whichever family member schedules them.
    #[test]
    fn one_leader_per_component(
        parts in 1usize..4,
        per in 2usize..10,
        seed in 0u64..100_000,
        sched in sched_strategy(),
        variant in variant_strategy(),
    ) {
        let graph = gen::random_multi_component(parts, per, per, seed);
        let mut d = Discovery::new(&graph, variant);
        let mut recorder = RecordingScheduler::new(sched.build());
        d.run_all(&mut recorder).expect("livelock");
        let schedule = recorder.into_schedule();
        let topology = format!("components:count={parts},per={per},extra={per},seed={seed}");
        if d.leaders().len() != parts {
            let reason = format!("{} leaders for {parts} components", d.leaders().len());
            return Err(fail_with_artifact(&topology, variant, schedule, &reason));
        }
        if let Err(reason) = d.check_requirements(&graph) {
            return Err(fail_with_artifact(&topology, variant, schedule, &reason));
        }
    }

    /// Arbitrary edge lists (possibly disconnected, any shape) still
    /// satisfy the requirements.
    #[test]
    fn discovery_handles_arbitrary_edge_lists(
        n in 1usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..60),
        sched in sched_strategy(),
        variant in variant_strategy(),
    ) {
        let graph = KnowledgeGraph::from_edges(
            n,
            edges.into_iter().map(|(u, v)| (u % n, v % n)).filter(|(u, v)| u != v),
        );
        let mut d = Discovery::new(&graph, variant);
        d.run_all(sched.build().as_mut()).expect("livelock");
        d.check_requirements(&graph).map_err(TestCaseError::fail)?;
    }

    /// The number of leaders always equals the number of weak components.
    #[test]
    fn leader_count_equals_component_count(
        n in 1usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..40),
        seed in 0u64..100_000,
    ) {
        let graph = KnowledgeGraph::from_edges(
            n,
            edges.into_iter().map(|(u, v)| (u % n, v % n)).filter(|(u, v)| u != v),
        );
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        d.run_all(&mut RandomScheduler::seeded(seed)).expect("livelock");
        let comps = components::weakly_connected_components(&graph);
        prop_assert_eq!(d.leaders().len(), comps.len());
    }

    /// Union-find agrees with a naive quadratic oracle on arbitrary
    /// operation sequences, for every policy combination.
    #[test]
    fn union_find_matches_oracle(
        n in 1usize..40,
        ops in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        policy_bits in 0u8..6,
    ) {
        let (up, cp) = match policy_bits {
            0 => (UnionPolicy::ByRank, Compression::Full),
            1 => (UnionPolicy::ByRank, Compression::Halving),
            2 => (UnionPolicy::ByRank, Compression::Off),
            3 => (UnionPolicy::Naive, Compression::Full),
            4 => (UnionPolicy::Naive, Compression::Halving),
            _ => (UnionPolicy::Naive, Compression::Off),
        };
        let mut uf = UnionFind::with_policies(n, up, cp);
        // Oracle: component label vector.
        let mut labels: Vec<usize> = (0..n).collect();
        for (a, b) in ops {
            let (a, b) = (a % n, b % n);
            let merged = uf.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            prop_assert_eq!(merged, la != lb);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(uf.same_set(i, j), labels[i] == labels[j]);
            }
        }
    }

    /// Generated op sequences are always valid and fully merging.
    #[test]
    fn op_sequences_are_valid(n in 1usize..60, finds in 0usize..40, seed in 0u64..100_000) {
        let seq = OpSequence::random(n, finds, seed);
        prop_assert_eq!(seq.union_count(), n - 1);
        prop_assert_eq!(seq.find_count(), finds);
        let mut uf = UnionFind::new(n);
        seq.run(&mut uf); // panics internally if any union is invalid
        prop_assert_eq!(uf.set_count(), 1);
        // Finds never target out-of-range elements.
        for op in seq.ops() {
            if let Op::Find(i) = op {
                prop_assert!(*i < n);
            }
        }
    }

    /// Discovery under arbitrary drawn fault plans (lossy links, duplicate
    /// deliveries, crash/restart churn) still satisfies the requirements
    /// and the net-of-overhead budgets, across the whole scheduler family —
    /// and the recorded schedule, faults included, replays byte-exactly
    /// without any fault machinery. Failing runs land in
    /// `target/failed-schedules/` with `faults` metadata so `ard replay`
    /// rebuilds the reliable-wrapped network.
    #[test]
    fn discovery_survives_arbitrary_faults(
        n in 2usize..28,
        extra in 0usize..80,
        graph_seed in 0u64..1_000_000,
        sched in sched_strategy(),
        variant in variant_strategy(),
        fault in fault_strategy(),
    ) {
        let spec = RunSpec {
            topology: format!("random:n={n},extra={extra},seed={graph_seed}"),
            variant,
            plans: Plans {
                faults: Some(fault.plan(n)),
                ..Plans::default()
            },
        };
        // `record` judges requirements and net-of-overhead budgets itself,
        // and stamps the spec `ard replay` rebuilds the run from.
        let (result, schedule) = record(&spec, sched.build());
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(reason) => {
                return Err(write_artifact(schedule, &reason));
            }
        };
        match replay(&schedule) {
            Err(reason) => {
                let reason = format!("faulty replay diverged: {reason}");
                return Err(write_artifact(schedule, &reason));
            }
            Ok(replayed) => {
                if replayed.steps != outcome.steps
                    || format!("{}", replayed.metrics) != format!("{}", outcome.metrics)
                {
                    let reason = "faulty replay diverged from the recording";
                    return Err(write_artifact(schedule, reason));
                }
            }
        }
    }

    /// Discovery under arbitrary drawn Byzantine plans (equivocation,
    /// fabrication, silence, stale restarts — one class or the whole
    /// alphabet) and optional membership churn always quiesces, honors
    /// its plan, and the recorded schedule replays strictly and
    /// byte-exactly with no plan RNG involved. Which *guarantees* survive
    /// is a separate, pinned question (`tests/survival_matrix.rs`) — this
    /// property is about the engine, not the protocol's envelope. Failing
    /// runs land in `target/failed-schedules/` with `byzantine`/`churn`
    /// metadata so `ard replay` rebuilds the exact run.
    #[test]
    fn byzantine_runs_quiesce_and_replay_exactly(
        n in 4usize..24,
        extra in 0usize..60,
        graph_seed in 0u64..1_000_000,
        sched in sched_strategy(),
        variant in variant_strategy(),
        byz in byzantine_strategy(),
        churn in churn_strategy(),
    ) {
        let spec = RunSpec {
            topology: format!("random:n={n},extra={extra},seed={graph_seed}"),
            variant,
            plans: Plans {
                byzantine: Some(byz.plan()),
                churn: churn.as_ref().map(ChurnSpec::plan),
                ..Plans::default()
            },
        };
        let (result, schedule) = record(&spec, sched.build());
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(reason) => {
                return Err(write_artifact(schedule, &reason));
            }
        };
        let survivors = outcome.survivors.as_ref().expect("judged over survivors");
        if survivors.byzantine_nodes.len() != byz.f.min(n) {
            let reason = format!(
                "plan promised {} traitors, outcome reports {}",
                byz.f.min(n),
                survivors.byzantine_nodes.len()
            );
            return Err(write_artifact(schedule, &reason));
        }
        if let Some(churn_plan) = &spec.plans.churn {
            if survivors.joined.len() != churn_plan.joiners(n).len()
                || survivors.left.len() != churn_plan.leavers(n).len()
            {
                let reason = "membership churn diverged from the plan";
                return Err(write_artifact(schedule, reason));
            }
        }
        match replay(&schedule) {
            Err(reason) => {
                let reason = format!("byzantine replay diverged: {reason}");
                return Err(write_artifact(schedule, &reason));
            }
            Ok(replayed) => {
                if replayed.steps != outcome.steps
                    || replayed.leaders != outcome.leaders
                    || replayed.metrics.byzantine() != outcome.metrics.byzantine()
                    || format!("{}", replayed.metrics) != format!("{}", outcome.metrics)
                {
                    let reason = "byzantine replay diverged from the recording";
                    return Err(write_artifact(schedule, reason));
                }
            }
        }
    }

    /// Soundness of the explorer's DPOR independence relation: swapping
    /// two adjacent recorded choices whose may-footprints do not conflict
    /// must leave the run's terminal-state digest (node state, knowledge,
    /// in-flight queues, metrics) unchanged — that commutation is exactly
    /// what sleep-set pruning assumes. Failing pairs land in
    /// `target/failed-schedules/` with the swap position in the metadata
    /// so `ard replay` can re-execute them. The explorer decides the
    /// relation with `Choice::may_conflict`, which builds no footprint: it
    /// must agree with `Footprint::may` on every pair of kinds.
    #[test]
    fn independent_adjacent_swaps_preserve_the_terminal_state(
        clients in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        // Operands from three node ids, so nodes and links often coincide.
        let node = |shift: u32| NodeId::new((seed >> shift) as usize % 3);
        for ra in Kind::TABLE {
            for rb in Kind::TABLE {
                let a = Choice::from_parts(ra.kind, node(0), node(2), 0);
                let b = Choice::from_parts(rb.kind, node(4), node(6), 1);
                prop_assert_eq!(
                    a.may_conflict(&b),
                    Footprint::may(a).conflicts(&Footprint::may(b)),
                    "{:?} / {:?}", a, b
                );
            }
        }
        // Violation-tolerant mode: every interleaving runs to quiescence,
        // so each swap compares full executions.
        let system = fixtures::RacySystem::tolerant(clients);
        let mut rec = RecordingScheduler::new(RandomScheduler::seeded(seed));
        run_fork_system(&system, &mut rec).expect("tolerant fixture cannot fail");
        let base_digest = rec.terminal_digest().expect("fixture reports a digest");
        let choices: Vec<_> = rec.recorded().collect();
        for i in 0..choices.len().saturating_sub(1) {
            let (a, b) = (choices[i], choices[i + 1]);
            prop_assert_eq!(a.may_conflict(&b), Footprint::may(a).conflicts(&Footprint::may(b)));
            if a == b || a.may_conflict(&b) {
                continue;
            }
            let mut swapped = choices.clone();
            swapped.swap(i, i + 1);
            let mut sched = RecordingScheduler::new(ReplayScheduler::lenient(&swapped));
            run_fork_system(&system, &mut sched).expect("tolerant fixture cannot fail");
            let executed = sched.recorded().len();
            let digest = sched.terminal_digest();
            if executed != choices.len() || digest != Some(base_digest) {
                let mut schedule = Schedule::new(swapped);
                schedule.set_meta("system", format!("racy:{clients}"));
                schedule.set_meta("swapped-at", i.to_string());
                schedule.set_meta("base-digest", format!("{base_digest:016x}"));
                let reason = format!(
                    "swapping independent adjacent choices {a:?} / {b:?} at {i} changed the \
                     run: {executed}/{} choices executed, digest {digest:?} vs {base_digest:#x}",
                    choices.len()
                );
                return Err(write_artifact(schedule, &reason));
            }
        }
    }

    /// Probes from every node return the full component, whatever the
    /// schedule.
    #[test]
    fn probes_see_everything(
        n in 2usize..25,
        extra in 0usize..50,
        seed in 0u64..100_000,
    ) {
        let graph = gen::random_weakly_connected(n, extra, seed);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let mut sched = RandomScheduler::seeded(!seed);
        d.run_all(&mut sched).expect("livelock");
        let probe_from = NodeId::new((seed as usize) % n);
        let snap = d.probe_blocking(probe_from, &mut sched).expect("probe livelock");
        prop_assert_eq!(snap.len(), n);
    }
}
