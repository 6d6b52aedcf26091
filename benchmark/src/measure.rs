//! One benchmark run of one workload: untraced (the end-to-end metrics) or
//! traced (the per-layer metrics).
//!
//! Load shape: closed loop, one client — repetitions run one after another
//! on one thread; the only threaded measurements are the three per-layer
//! speed-ups that use two threads and are skipped on a one-core host.

use std::collections::BTreeMap;
use std::time::Instant;

use ard_core::Discovery;
use ard_graph::components;
use ard_netsim::explore::{explore_fork, fixtures, ExploreConfig, ReduceMode};
use ard_netsim::shrink::shrink;
use ard_netsim::{
    BoundedDelayScheduler, FifoScheduler, LifoScheduler, RandomScheduler, Schedule, Scheduler,
};

use crate::catalogue::{self, op_segment};
use crate::layers;
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::timed::{replay_ops, timer_ns, LayerStats};
use crate::workloads::{
    check_cli_report, cli_rep, explore_with, library_rep, setup_only, Engine, Inputs, Kind, Rep,
    RepOptions,
};

/// What one run reports: operations attempted and failed, and its metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Repetitions executed (library and CLI).
    pub attempted: u64,
    /// Repetitions that livelocked, errored, violated a requirement or a
    /// budget, or whose outputs differ from the first repetition's.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub failures: Vec<String>,
    /// Metric name → summary, in catalogue order.
    pub metrics: Vec<(String, Summary)>,
}

impl RunResult {
    fn attempt(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// Checks a repetition against the reference (first) one.
fn same_outputs(reference: &Rep, rep: &Rep) -> Result<(), String> {
    if let Some(failure) = &rep.failure {
        return Err(failure.clone());
    }
    if rep.fingerprint != reference.fingerprint {
        return Err(format!(
            "outputs differ from the first repetition's:\n{}--- first:\n{}",
            rep.fingerprint, reference.fingerprint
        ));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s` samples a run takes at least.
const SETUP_SAMPLES: usize = 5;

/// The untraced run: bare nodes, bare scheduler. Rounds of one library
/// repetition and one CLI repetition (none where the CLI cannot spell the
/// workload) until `seconds` are up — alternating, so both kinds sample
/// the whole window and a slow stretch of the host hits both. At least one
/// round, and exactly one under `quick`; a further round starts only while
/// at least half of it still fits the window. The first round is a warm-up
/// and is discarded when it cost less than a quarter of the window.
pub fn untraced(inp: &Inputs, seconds: f64, quick: bool) -> RunResult {
    let mut result = RunResult::default();
    let mut tr = Tracer::default();
    let start = Instant::now();
    let mut reference: Option<Rep> = None;
    let (mut setup, mut events, mut schedules) = (vec![], vec![], vec![]);
    let mut wall = Vec::new();
    loop {
        let first = reference.is_none();
        let round_began = start.elapsed().as_secs_f64();
        let rep = library_rep(inp, RepOptions::default(), &mut tr);
        let reference = reference.get_or_insert_with(|| rep.clone());
        result.attempt("library repetition", same_outputs(reference, &rep));
        let cli = cli_rep(inp, 1).map(|(cost, report)| {
            let checked = report.and_then(|report| check_cli_report(inp, &report, reference));
            result.attempt("CLI repetition", checked);
            cost
        });
        let now = start.elapsed().as_secs_f64();
        let warm_up = first && !quick && now < seconds / 4.0;
        if !warm_up {
            setup.push(rep.setup_s);
            events.push(rep.events as f64 / rep.run_s);
            schedules.push(rep.schedules as f64 / rep.run_s);
            // Without a CLI spelling, the same pipeline through the library.
            wall.push(cli.unwrap_or(rep.pipeline_s));
        }
        if quick || now + (now - round_began) / 2.0 >= seconds {
            break;
        }
    }
    let reference = reference.expect("at least one round");
    while !quick && setup.len() < SETUP_SAMPLES {
        setup.push(setup_only(inp));
    }

    let n = inp.n as f64;
    let mut put = |name: &str, summary: Option<Summary>| {
        result
            .metrics
            .push((name.to_string(), summary.expect("at least one round ran")));
    };
    put("setup_s", Summary::of(&setup));
    put("wall_s", Summary::of(&wall));
    put("events_per_sec", Summary::of(&events));
    put("schedules_per_sec", Summary::of(&schedules));
    put("peak_rss_mb", Some(Summary::exact(peak_rss_mb())));
    put(
        "msgs_per_node",
        Some(Summary::exact(reference.messages / n)),
    );
    put("bits_per_node", Some(Summary::exact(reference.bits / n)));
    put("causal_depth", Some(Summary::exact(reference.depth)));
    result
}

/// A wrapper layer's time with the timer's cost taken out, given the layer
/// wrapped inside it (whose every call cost the outer one two clock reads).
fn true_ns(outer: &LayerStats, inner: Option<&LayerStats>, timer: f64) -> f64 {
    let inner_calls = inner.map_or(0, |i| i.total().calls) as f64;
    let total = outer.total();
    (total.ns as f64 - timer * total.calls as f64 - 2.0 * timer * inner_calls).max(0.0)
}

/// Per-layer metric values by name; a metric nobody sets reads 0.
#[derive(Default)]
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Seconds `f` takes.
fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

fn two_threads() -> bool {
    std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2)
}

/// The traced run: one bare repetition (the phase-level layers, timed from
/// outside with nothing in the way), one repetition with the timing
/// wrappers on (handler- and scheduler-level layers), the extra
/// repetitions only this workload's layers need, and the micro-measured
/// layers. Returns every per-layer metric and the trace.
pub fn traced(inp: &Inputs, quick: bool) -> (RunResult, Tracer) {
    let mut result = RunResult::default();
    let mut tr = Tracer::default();
    let mut layers = Layers::default();
    let timer = timer_ns();
    layers.put("trace.timer_ns", timer);

    tr.span("workload", |tr| {
        // Phase-level layers, from the bare repetition.
        let bare_mark = tr.mark();
        let bare = library_rep(inp, RepOptions::default(), tr);
        result.attempt("bare repetition", same_outputs(&bare, &bare));
        let phase = |tr: &Tracer, name: &str| tr.secs_since(bare_mark, name);
        let gen_s = phase(tr, "graph.gen");
        layers.put("graph.gen.s", gen_s);
        layers.put("graph.gen.edges_per_sec", bare.edges as f64 / gen_s);
        layers.put("core.driver.new_s", phase(tr, "core.driver.new"));
        layers.put("core.driver.outcome_s", phase(tr, "core.driver.outcome"));
        layers.put("core.driver.drop_s", phase(tr, "drop"));
        layers.put(
            "core.invariants.check_requirements_s",
            phase(tr, "core.invariants.check_requirements"),
        );
        layers.put(
            "core.budgets.check_all_s",
            phase(tr, "core.budgets.check_all"),
        );
        layers.put("netsim.metrics.display_s", phase(tr, "render"));
        layers.put(
            "netsim.runner.state_digest_s",
            phase(tr, "netsim.runner.state_digest"),
        );
        let graph = inp.graph();
        layers.put(
            "graph.components.wcc_s",
            tr.span("graph.components.wcc", |_| {
                secs(|| components::weakly_connected_components(&graph)).0
            }),
        );
        let events = bare.events as f64;
        if let Some((metrics, gauges)) = &bare.last {
            layers.put(
                "netsim.runner.knowledge_bytes_per_node",
                gauges.knowledge_bytes as f64 / inp.n as f64,
            );
            layers.put(
                "netsim.runner.payload_bytes_per_event",
                gauges.payload_bytes_sent as f64 / events,
            );
            layers.put(
                "netsim.runner.payload_peak_bytes",
                gauges.payload_peak_bytes as f64,
            );
            layers.put(
                "netsim.runner.max_link_queue",
                metrics.max_link_queue() as f64,
            );
            let faults = metrics.faults();
            layers.put("netsim.fault.drops_per_event", faults.drops as f64 / events);
            layers.put(
                "netsim.fault.dups_per_event",
                faults.duplicates as f64 / events,
            );
            layers.put("netsim.fault.ticks_per_event", faults.ticks as f64 / events);
            layers.put("netsim.fault.crashes", faults.crashes as f64);
            if inp.kind == Kind::Faulty {
                let total = metrics.total_messages() as f64;
                let acks = metrics.kind("rd-ack").messages as f64;
                layers.put(
                    "core.reliable.retransmit_share",
                    metrics.kind("retransmit").messages as f64 / total,
                );
                layers.put("core.reliable.acks_per_data_msg", acks / (total - acks));
            }
        }

        // Handler- and scheduler-level layers, from the wrapped repetition.
        let timed_mark = tr.mark();
        let wrapped = RepOptions {
            wrap: true,
            log_ops: inp.kind == Kind::Random,
            ..RepOptions::default()
        };
        let timed = library_rep(inp, wrapped, tr);
        result.attempt("wrapped repetition", same_outputs(&bare, &timed));
        let run_ns = tr.secs_since(timed_mark, "run") * 1e9;
        layers.put("trace.overhead_share", run_ns / (bare.run_s * 1e9) - 1.0);
        let stats = |tr: &Tracer, layer: &str| tr.stats_since(timed_mark, layer);
        let node = stats(tr, "core.node");
        let reliable = stats(tr, "core.reliable");
        let sched = stats(tr, "netsim.scheduler");
        let fault = stats(tr, "netsim.fault");
        // The outermost wrappers are the ones whose clock reads land in the
        // run span itself.
        let (top_node, top_sched) = if inp.kind == Kind::Faulty {
            (&reliable, &fault)
        } else {
            (&node, &sched)
        };
        let run_true =
            run_ns - 2.0 * timer * (top_node.total().calls + top_sched.total().calls) as f64;
        let node_ns = true_ns(&node, None, timer);
        layers.put("core.node.handler_ns_per_event", node_ns / events);
        layers.put("core.node.handler_share", node_ns / run_true);
        layers.put("core.node.sends_per_event", node.sends as f64 / events);
        for (op, stat) in node.ops() {
            let segment = op_segment(op);
            if catalogue::NODE_OPS.contains(&segment.as_str()) {
                layers.put(&format!("core.node.{segment}.calls"), stat.calls as f64);
                layers.put(&format!("core.node.{segment}.ns"), stat.corrected_ns(timer));
            }
        }
        // On fault-free workloads every event is exactly one handler call.
        if inp.kind != Kind::Faulty {
            let calls = node.total().calls;
            result.attempt(
                "wrapper call count",
                (calls == timed.events).then_some(()).ok_or_else(|| {
                    format!("{calls} timed handler calls for {} events", timed.events)
                }),
            );
        }
        let (handlers_ns, sched_ns) = if inp.kind == Kind::Faulty {
            let reliable_ns = true_ns(&reliable, Some(&node), timer);
            let fault_ns = true_ns(&fault, Some(&sched), timer);
            layers.put(
                "core.reliable.self_ns_per_event",
                (reliable_ns - node_ns) / events,
            );
            let tick = reliable.op("on_tick");
            layers.put("core.reliable.on_tick.calls", tick.calls as f64);
            layers.put("core.reliable.on_tick.ns", tick.corrected_ns(timer));
            layers.put(
                "netsim.fault.sched_ns_per_event",
                (fault_ns - true_ns(&sched, None, timer)) / events,
            );
            (reliable_ns, fault_ns)
        } else {
            (node_ns, true_ns(&sched, None, timer))
        };
        match inp.kind {
            Kind::Round => {
                layers.put(
                    "netsim.shard.round_self_ns_per_event",
                    (run_true - handlers_ns) / events,
                );
                layers.put("netsim.shard.mean_round_events", events / bare.depth);
            }
            Kind::Random | Kind::Sweep | Kind::Faulty => {
                layers.put(
                    "netsim.scheduler.random.ns_per_event",
                    true_ns(&sched, None, timer) / events,
                );
                layers.put("netsim.scheduler.max_pending", sched.max_pending as f64);
                layers.put(
                    "netsim.scheduler.choose_calls",
                    sched.op("choose").calls as f64,
                );
                layers.put(
                    "netsim.runner.self_ns_per_event",
                    (run_true - handlers_ns - sched_ns) / events,
                );
            }
            // The explorer owns its schedulers; only the handlers are timed.
            Kind::Explore => {}
        }
        layers.put(
            "netsim.runner.with_topology_s",
            tr.secs_since(timed_mark, "netsim.runner.with_topology"),
        );

        // One CLI repetition: what the command line adds to the library.
        if let Some((wall, report)) = cli_rep(inp, 1) {
            let bytes = report.as_ref().map_or(0, String::len);
            let checked = report.and_then(|report| check_cli_report(inp, &report, &bare));
            result.attempt("CLI repetition", checked);
            layers.put("cli.overhead_s", wall - bare.pipeline_s);
            layers.put("cli.render_bytes", bytes as f64);
            layers.put(
                "cli.parse_topology_s",
                secs(|| ard_cli::spec::parse_topology(&inp.topology)).0,
            );
        }

        // Layers only one workload exercises.
        match inp.workload {
            "round-64k" => round_extras(inp, &bare, tr, &mut result, &mut layers, timer),
            "random-64k" => {
                event_trace_overhead(inp, &bare, tr, &mut result, &mut layers);
                let replay = |name: &str, sched: &mut dyn Scheduler| {
                    (
                        name.to_string(),
                        replay_ops(&timed.ops, sched) as f64 / timed.ops.len() as f64,
                    )
                };
                for (name, ns) in [
                    replay("fifo", &mut FifoScheduler::new()),
                    replay("lifo", &mut LifoScheduler::new()),
                    replay("random", &mut RandomScheduler::seeded(inp.seed)),
                    replay("bounded8", &mut BoundedDelayScheduler::new(8, inp.seed)),
                ] {
                    layers.put(&format!("netsim.scheduler.{name}.ns_per_op"), ns);
                }
            }
            "sweep-1k" if two_threads() => {
                let one = cli_rep(inp, 1).expect("sweep has a CLI spelling");
                let two = cli_rep(inp, 2).expect("sweep has a CLI spelling");
                result.attempt(
                    "sweep at --jobs 2",
                    (one.1 == two.1)
                        .then_some(())
                        .ok_or_else(|| "output differs from --jobs 1".to_string()),
                );
                layers.put("netsim.par.sweep_jobs2_speedup", one.0 / two.0);
            }
            "faulty-16k" => faulty_extras(inp, &bare, tr, &mut result, &mut layers),
            "explore-adhoc16" => explore_extras(inp, &bare, quick, tr, &mut result, &mut layers),
            _ => {}
        }
    });

    let mut micro = Vec::new();
    layers::measure(inp.seed, &mut micro);
    for (name, value) in micro {
        layers.put(&name, value);
    }
    for def in catalogue::per_layer() {
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        let value = layers.0.remove(&def.name).unwrap_or(0.0) + 0.0;
        result.metrics.push((def.name, Summary::exact(value)));
    }
    assert!(
        layers.0.is_empty(),
        "uncatalogued per-layer metrics: {:?}",
        layers.0.keys()
    );
    (result, tr)
}

/// `netsim.runner.trace_overhead_ns_per_event`: the same run with the
/// runner's own event log on.
fn event_trace_overhead(
    inp: &Inputs,
    bare: &Rep,
    tr: &mut Tracer,
    result: &mut RunResult,
    layers: &mut Layers,
) {
    let logged = library_rep(
        inp,
        RepOptions {
            event_trace: true,
            ..RepOptions::default()
        },
        tr,
    );
    result.attempt("repetition with enable_trace", same_outputs(bare, &logged));
    layers.put(
        "netsim.runner.trace_overhead_ns_per_event",
        (logged.run_s - bare.run_s) * 1e9 / bare.events as f64,
    );
}

/// `round-64k` also runs its schedule on the two other fifo engines — the
/// scheduler-driven runner and the threaded shards — whose outputs must be
/// byte-identical, and once with the runner's event log on.
fn round_extras(
    inp: &Inputs,
    bare: &Rep,
    tr: &mut Tracer,
    result: &mut RunResult,
    layers: &mut Layers,
    timer: f64,
) {
    let with_engine = |engine: Engine, wrap: bool| RepOptions {
        engine,
        wrap,
        ..RepOptions::default()
    };
    let fifo = library_rep(inp, with_engine(Engine::Fifo, false), tr);
    result.attempt("FifoScheduler engine", same_outputs(bare, &fifo));
    layers.put(
        "netsim.runner.fifo_sched_events_per_sec",
        fifo.events as f64 / fifo.run_s,
    );
    let mark = tr.mark();
    let timed_fifo = library_rep(inp, with_engine(Engine::Fifo, true), tr);
    result.attempt(
        "wrapped FifoScheduler engine",
        same_outputs(bare, &timed_fifo),
    );
    layers.put(
        "netsim.scheduler.fifo.ns_per_event",
        true_ns(&tr.stats_since(mark, "netsim.scheduler"), None, timer) / bare.events as f64,
    );
    if two_threads() {
        let threads = library_rep(inp, with_engine(Engine::Shards(2), false), tr);
        result.attempt("threaded engine", same_outputs(bare, &threads));
        layers.put(
            "netsim.shard.threads_events_per_sec",
            threads.events as f64 / threads.run_s,
        );
        layers.put("netsim.shard.threads_slowdown", threads.run_s / bare.run_s);
    }
    event_trace_overhead(inp, bare, tr, result, layers);
}

/// `netsim.record.*`: what the always-on recording of a faulty run costs,
/// and how fast its schedule goes to text and back and replays.
fn faulty_extras(
    inp: &Inputs,
    bare: &Rep,
    tr: &mut Tracer,
    result: &mut RunResult,
    layers: &mut Layers,
) {
    let unrecorded = library_rep(
        inp,
        RepOptions {
            no_record: true,
            ..RepOptions::default()
        },
        tr,
    );
    result.attempt("unrecorded repetition", same_outputs(bare, &unrecorded));
    layers.put(
        "netsim.record.record_overhead_share",
        bare.run_s / unrecorded.run_s - 1.0,
    );
    let schedule = bare.schedule.as_ref().expect("faulty runs record");
    let (to_text_s, text) = secs(|| schedule.to_text());
    let (parse_s, parsed) = secs(|| Schedule::parse(&text));
    layers.put("netsim.record.to_text_s", to_text_s);
    layers.put("netsim.record.parse_s", parse_s);
    layers.put(
        "netsim.record.bytes_per_choice",
        text.len() as f64 / schedule.len() as f64,
    );
    // Strict replay looks every choice up in the pending set (36 k tokens
    // at n = 16,384: the full schedule would take ~25 s), so it replays the
    // recording of the workload at 1/16 size.
    let small = Inputs::new(inp.workload, inp.seed, true).expect("same workload");
    let recorded = library_rep(&small, RepOptions::default(), tr);
    let small_schedule = recorded.schedule.as_ref().expect("faulty runs record");
    let graph = small.graph();
    let (replay_s, replayed) = tr.span("netsim.record.replay", |_| {
        secs(|| Discovery::replay_faulty(&graph, small.variant, small_schedule))
    });
    let (metrics, _) = recorded.last.as_ref().expect("single-run repetition");
    result.attempt(
        "schedule text round-trip and replay",
        match (parsed, replayed) {
            (Ok(parsed), _) if parsed.choices() != schedule.choices() => {
                Err("parsed schedule differs from the recorded one".to_string())
            }
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(e),
            (_, Ok(outcome)) if outcome.metrics.to_string() != metrics.to_string() => {
                Err("replayed metrics differ from the recorded run's".to_string())
            }
            _ => Ok(()),
        },
    );
    layers.put(
        "netsim.record.replay_events_per_sec",
        recorded.events as f64 / replay_s,
    );
}

/// `netsim.explore.*`, `netsim.shrink.*`: the two search phases apart, two
/// jobs against one, and — on the explorer's own planted-race fixture, the
/// only forkable system — checkpointing and ddmin.
fn explore_extras(
    inp: &Inputs,
    bare: &Rep,
    quick: bool,
    tr: &mut Tracer,
    result: &mut RunResult,
    layers: &mut Layers,
) {
    let report = bare.report.as_ref().expect("explore repetition");
    layers.put("netsim.explore.runs", report.runs as f64);
    layers.put("netsim.explore.sleep_pruned", report.sleep_pruned as f64);
    layers.put("netsim.explore.state_deduped", report.digest_deduped as f64);
    let base = inp.explore_config(1);
    for (name, config) in [
        (
            "walk",
            ExploreConfig {
                dfs_budget: 0,
                ..base.clone()
            },
        ),
        (
            "dfs",
            ExploreConfig {
                random_walks: 0,
                ..base.clone()
            },
        ),
    ] {
        let phase = explore_with(inp, &config, tr);
        result.attempt("explore phase", phase.failure.clone().map_or(Ok(()), Err));
        layers.put(
            &format!("netsim.explore.{name}_schedules_per_sec"),
            phase.schedules as f64 / phase.run_s,
        );
    }
    if two_threads() {
        let two = explore_with(inp, &inp.explore_config(2), tr);
        // Speculative runs that the search then discards still reach the
        // event tally; the report itself must not move.
        let report_line = |rep: &Rep| rep.fingerprint.lines().next().map(str::to_string);
        result.attempt(
            "explore at --jobs 2",
            (two.failure.is_none() && report_line(&two) == report_line(bare))
                .then_some(())
                .ok_or_else(|| "report differs from --jobs 1".to_string()),
        );
        layers.put("netsim.explore.jobs2_speedup", bare.run_s / two.run_s);
    }

    // The workload BENCH_explore.json pins: depth-13 DFS over racy:6 in
    // violation-tolerant mode, weighted handlers.
    let clients = 6;
    let racy = |checkpoint: bool| {
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: if quick { 100 } else { 600 },
            dfs_depth: 2 * clients + 1,
            checkpoint,
            reduce: ReduceMode::None,
            ..ExploreConfig::default()
        };
        let system = fixtures::RacySystem::tolerant(clients).spin(40_000);
        secs(|| explore_fork(&config, &system))
    };
    let (scratch_s, from_scratch) = racy(false);
    let (forked_s, forked) = racy(true);
    result.attempt(
        "checkpointed exploration",
        (from_scratch.runs == forked.runs && forked.failure.is_none())
            .then_some(())
            .ok_or_else(|| "checkpoint on and off disagree".to_string()),
    );
    layers.put("netsim.explore.checkpoint_speedup", scratch_s / forked_s);

    // ddmin on the racy:6 witness the explorer finds.
    let witness = explore_fork(
        &ExploreConfig::default(),
        &fixtures::RacySystem::new(clients),
    );
    match witness.failure {
        None => result.attempt(
            "racy:6 witness",
            Err("explorer found no violation".to_string()),
        ),
        Some(failure) => {
            let (ddmin_s, shrunk) = secs(|| {
                shrink(&failure.schedule, || {
                    |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
                })
            });
            result.attempt(
                "ddmin",
                (shrunk.schedule.len() <= failure.schedule.len())
                    .then_some(())
                    .ok_or_else(|| "shrunk schedule grew".to_string()),
            );
            layers.put("netsim.shrink.ddmin_s", ddmin_s);
            layers.put("netsim.shrink.ddmin_runs", shrunk.attempts as f64);
        }
    }
}
