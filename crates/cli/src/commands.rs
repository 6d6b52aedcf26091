//! Subcommand implementations.
//!
//! One private table states the command line once: each command's
//! synopsis, positional argument, handler and flags, and each flag's arity,
//! metavar, default and help line. [`run`] parses and dispatches from it,
//! the help text is rendered from it, and a handler only reads values.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use ard_bench::throughput;
use ard_core::node::ArdNode;
use ard_core::spec::{
    byzantine_meta, churn_meta, faults_meta, parse_plans, parse_topology, parse_variant,
    ParseSpecError,
};
use ard_core::{Discovery, DiscoveryOn, Layer, Plans, Reliable, RunSpec, Variant};
use ard_graph::KnowledgeGraph;
use ard_lower_bounds::{tree_adversary, uf_reduction};
use ard_netsim::explore::{
    explore, explore_fork, fixtures, run_fork_system, ExploreConfig, ExploreReport, ForkSystem,
    ReduceMode,
};
use ard_netsim::shrink::shrink_jobs;
use ard_netsim::{
    Metrics, NodeId, RandomScheduler, RecordingScheduler, ReplayScheduler, Schedule, Scheduler,
};
use ard_overlay::{bootstrap, Key};
use ard_union_find::{alpha, OpSequence};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{self, SchedulerSpec};

/// A CLI failure: bad usage or a bad specification.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ParseSpecError> for CliError {
    fn from(e: ParseSpecError) -> Self {
        CliError(e.to_string())
    }
}

/// One subcommand: a row of [`COMMANDS`].
struct Command {
    name: &'static str,
    synopsis: &'static str,
    /// The metavar and description of the one positional argument, which
    /// comes before the flags.
    positional: Option<(&'static str, &'static str)>,
    handler: fn(&Args) -> Result<String, CliError>,
    flags: &'static [Flag],
}

/// One `--flag` of one command.
struct Flag {
    name: &'static str,
    arity: Arity,
    metavar: &'static str,
    /// What a handler reads when the flag is not given; `<file>` stands for
    /// the positional argument.
    default: Option<&'static str>,
    help: &'static str,
}

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Arity {
    Switch,
    Value,
    /// A value unless the next word is a flag; this one when bare.
    Optional(&'static str),
}

/// Declares [`COMMANDS`] from one listing. A flag row is its name, arity,
/// metavar (empty for a switch), default (`-` for none) and help line.
macro_rules! commands {
    (@opt $(-)?) => { None };
    (@opt $value:tt) => { Some($value) };
    (@arity Optional $bare:literal) => { Arity::Optional($bare) };
    (@arity $arity:ident) => { Arity::$arity };
    ($($name:literal $(<$pos:literal $what:literal>)? $synopsis:literal => $handler:ident {
        $($flag:literal $arity:ident $(($bare:literal))? $metavar:literal $default:tt $help:literal)*
    })*) => {
        /// Every command `ard` takes, in `usage` order.
        const COMMANDS: &[Command] = &[$(Command {
            name: $name,
            synopsis: $synopsis,
            positional: commands!(@opt $(($pos, $what))?),
            handler: $handler,
            flags: &[$(Flag {
                name: $flag,
                arity: commands!(@arity $arity $($bare)?),
                metavar: $metavar,
                default: commands!(@opt $default),
                help: $help,
            }),*],
        }),*];
    };
}

commands! {
    "discover" "run resource discovery" => discover {
        // flag       arity   metavar  default  help
        "topology"    Value   "SPEC"   "random:n=64,extra=128"  "the initial knowledge graph"
        "variant"     Value   "oblivious|bounded|adhoc"  "adhoc"  "the problem variant"
        "scheduler"   Value   "fifo|lifo|random[:SEED]|bounded:D[,SEED]"  "random"  "delivery order"
        "max-steps"   Value   "N"      -        "override the livelock step budget"
        "trace"       Value   "N"      "0"      "print the first N trace events"
        "dot"         Value   "PATH"   -        "write the final state as Graphviz DOT"
        "stats"       Switch  ""       -        "print per-node / per-link traffic hot spots"
        "record"      Value   "PATH"   -
            "write the run's schedule, injected events included, for `ard replay`"
        "faults"      Value   "drop=P,dup=P,crash=N[,seed=S]"  -
            "run under fault injection: lossy/duplicating links and N crash/restart events, \
             with every node wrapped in the reliable-delivery layer"
        "byzantine"   Value   "f=K[,seed=S][,class=C]"  -
            "run with K seeded Byzantine nodes (classes: equivocate, fabricate, silence, stale-\
             restart; default all) and report which guarantees survive instead of asserting them"
        "churn"       Value   "rate=R[,seed=S]"  -
            "withhold ⌈R·n⌉ initial wake-ups and replay them as scheduled joins, with as many \
             departures (--byzantine/--churn run the bare protocol: not with --faults)"
        "shards"      Value   "K"      -        "accepted and ignored; needs --scheduler fifo"
        "sweep"       Value   "T"      -
            "run T trials on scheduler seeds S, S+1, … (needs --scheduler random[:S]), one \
             summary line each; on its own, not with any of the flags above from --max-steps down"
        "jobs"        Value   "N"      "1"      "with --sweep: run trials on N worker threads"
    }
    "adversary" "run the Theorem 1 subtree-freezing adversary" => adversary {
        "levels"      Value   "I"      "8"      "tree depth, 2..=16"
    }
    "reduction" "run the Theorem 2 union-find reduction" => reduction {
        "sets"        Value   "N"      "64"     "union-find sets"
        "finds"       Value   "M"      "32"     "find operations"
        "adversarial" Switch  ""       -        "a deep adversarial op sequence, not a random one"
        "seed"        Value   "S"      "0"      "seed of the random op sequence"
    }
    "overlay" "discover, bootstrap a DHT ring and serve lookups" => overlay {
        "n"           Value   "N"      "64"     "network size"
        "lookups"     Value   "K"      "100"    "lookups to serve"
        "seed"        Value   "S"      "0"      "seed of the graph, the scheduler and the lookups"
    }
    "baselines" "compare against name-dropper / law-siu / flooding" => baselines {
        "n"           Value   "N"      "64"     "random graph size"
        "seed"        Value   "S"      "0"      "seed of the first trial"
        "seeds"       Value   "T"      "1"      "run T independent trials (seeds S, S+3, S+6, …)"
        "jobs"        Value   "N"      "1"      "run trials on N worker threads"
    }
    "explore" "search interleavings for requirement/budget violations" => explore_cmd {
        "topology"    Value   "SPEC"   "random:n=16,extra=24"  "the initial knowledge graph"
        "variant"     Value   "oblivious|bounded|adhoc"  "adhoc"  "the problem variant"
        "system"      Value   "discovery|racy:K|fragile:K|equiv:K"  "discovery"
            "racy:K / fragile:K / equiv:K are fixtures with a planted race / fault-dependent / \
             equivocation-dependent bug among K clients"
        "budget"      Value   "N"      "64"     "schedules to try: half random walks, half DFS"
        "walks"       Value   "W"      -
            "random walks to run before the DFS phase; the remaining budget goes to DFS \
             (default half; --walks 0 makes the search pure DFS)"
        "depth"       Value   "D"      "4"      "DFS branch-point depth"
        "seed"        Value   "S"      "0"      "base seed for the random walks"
        "faults"      Value   "drop=P,dup=P,crash=N[,seed=S]"  -
            "inject faults into every candidate schedule, so drops/dups/crashes join the \
             search space"
        "byzantine"   Value   "f=K[,seed=S][,class=C]"  -
            "attach a Byzantine plan to every candidate schedule, so forgeries/silence/stale \
             restarts join the search space"
        "churn"       Value   "rate=R[,seed=S]"  -  "attach join/leave churn to every candidate"
        "out"         Value   "PATH"   "ard-failure.schedule"  "file for the minimized failure"
        "jobs"        Value   "N"      "1"      "worker threads for candidate runs"
        "reduce"      Optional("sleep")  "sleep|none"  "none"
            "dynamic partial-order reduction of the DFS phase: sleep sets + terminal-state \
             dedup prune interleavings that only reorder independent events"
        "stats"       Switch  ""       -        "print reduction counters"
        "check-snapshots"  Switch  ""  -
            "debug: re-execute every checkpoint-resumed DFS run from scratch and panic on \
             divergence (the forkable fixture systems only)"
    }
    "replay" <"file" "a schedule file">
        "re-execute a recorded schedule file byte-for-byte" => replay_cmd {
        "shrink"      Switch  ""       -        "ddmin-minimize the replayed failure into --out"
        "jobs"        Value   "N"      "1"      "with --shrink: worker threads"
        "out"         Value   "PATH"   "<file>.min"  "with --shrink: the 1-minimal schedule's file"
    }
    "tables" "regenerate the paper's evaluation tables (E1–E15, F1, A1–A3)" => tables {
        "exp"         Value   "ID"     -        "build one experiment's table (ids: --list)"
        "quick"       Switch  ""       -        "small sweeps: seconds instead of minutes"
        "list"        Switch  ""       -        "print the experiment index and run nothing"
        "jobs"        Value   "N"      "1"      "build all the tables on N worker threads"
        "bench-throughput"  Optional("BENCH_throughput.json")  "PATH"  -
            "run the engine-throughput sweep (with --quick: n ≤ 4096 only) and write its \
             JSON to PATH (bare: BENCH_throughput.json)"
    }
    "help" "print this text" => help {}
}

/// The help text, rendered from [`COMMANDS`]: help lines wrap at 78
/// columns, indented under the flag.
fn usage() -> String {
    let mut out = String::from("usage: ard <command> [--flag value]...\n\ncommands:\n");
    for command in COMMANDS {
        writeln!(out, "  {:<10} {}", command.name, command.synopsis).unwrap();
        if let Some((metavar, _)) = command.positional {
            let name = command.name;
            writeln!(out, "{:13}ard {name} <{metavar}> [--flag value]...", "").unwrap();
        }
        for flag in command.flags {
            let mut line = match flag.arity {
                Arity::Switch => format!("{:13}--{}", "", flag.name),
                Arity::Value => format!("{:13}--{} {}", "", flag.name, flag.metavar),
                Arity::Optional(_) => format!("{:13}--{} [{}]", "", flag.name, flag.metavar),
            };
            // The default is one piece, so the wrap never splits it.
            let default = flag.default.map(|d| match flag.arity {
                Arity::Optional(bare) => format!("(default {d}; bare {bare})"),
                _ => format!("(default {d})"),
            });
            let words = flag.help.split_whitespace().chain(default.as_deref());
            for (i, word) in words.enumerate() {
                let len = line.chars().count();
                if len < 27 {
                    line += &" ".repeat(27 - len);
                } else if i == 0 || len + 1 + word.chars().count() > 78 {
                    writeln!(out, "{line}").unwrap();
                    line = " ".repeat(27);
                } else {
                    line.push(' ');
                }
                line += word;
            }
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

/// A command line, parsed against its row of [`COMMANDS`].
struct Args {
    positional: String,
    given: HashSet<&'static str>,
    /// Every flag's value: given, else its default.
    values: HashMap<&'static str, String>,
}

impl Args {
    fn parse(command: &Command, mut words: &[String]) -> Result<Self, CliError> {
        let mut positional = String::new();
        if let Some((metavar, what)) = command.positional {
            let name = command.name;
            let missing = || CliError(format!("{name} needs {what}: ard {name} <{metavar}>"));
            let first = words.first().filter(|w| !w.starts_with("--"));
            (positional, words) = (first.ok_or_else(missing)?.clone(), &words[1..]);
        }
        let mut values: HashMap<_, _> = command
            .flags
            .iter()
            .filter_map(|flag| Some((flag.name, flag.default?.replace("<file>", &positional))))
            .collect();
        let mut given = HashSet::new();
        let mut words = words.iter().peekable();
        while let Some(word) = words.next() {
            let key = word
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got `{word}`")))?;
            let flag = (command.flags.iter().find(|flag| flag.name == key))
                .ok_or_else(|| CliError(format!("{} does not take --{key}", command.name)))?;
            // No flag takes a negative number, so a following `--flag` is
            // never this one's value.
            let mut next_value = || words.next_if(|value| !value.starts_with("--")).cloned();
            let needs_value = || CliError(format!("--{key} needs a value"));
            let value = match flag.arity {
                Arity::Switch => String::new(),
                Arity::Value => next_value().ok_or_else(needs_value)?,
                Arity::Optional(bare) => next_value().unwrap_or_else(|| bare.to_string()),
            };
            given.insert(flag.name);
            values.insert(flag.name, value);
        }
        Ok(Args {
            positional,
            given,
            values,
        })
    }

    /// Whether `--name` is on the command line.
    fn has(&self, name: &str) -> bool {
        self.given.contains(name)
    }

    /// The value of `--name`: given, else its default.
    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of a flag with a default.
    fn str(&self, name: &str) -> &str {
        self.value(name).expect("the flag has a default")
    }

    /// The value of `--name` as a number.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let number = |v: &str| v.parse().map_err(|_| format!("`{v}` is not a number"));
        let value = self.value(name).map(number).transpose();
        value.map_err(|e| CliError(format!("--{name}: {e}")))
    }

    /// The value of a flag with a default, as a number.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        Ok(self.get(name)?.expect("the flag has a default"))
    }

    /// A count: a number that must be at least one.
    fn count(&self, name: &str) -> Result<usize, CliError> {
        match self.num(name)? {
            0 => Err(CliError(format!("--{name} must be ≥ 1"))),
            count => Ok(count),
        }
    }
}

/// Executes a full command line (without the program name) and returns the
/// report text.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, bad flags or bad specs.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(usage());
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let command = (COMMANDS.iter().find(|command| command.name == name))
        .ok_or_else(|| CliError(format!("unknown command `{name}`\n\n{}", usage())))?;
    (command.handler)(&Args::parse(command, rest)?)
}

fn help(_: &Args) -> Result<String, CliError> {
    Ok(usage())
}

/// The `--faults` / `--byzantine` / `--churn` plans of an `n`-node system.
fn plan_flags(args: &Args, n: usize) -> Result<Plans, CliError> {
    let [faults, byzantine, churn] = ["faults", "byzantine", "churn"].map(|k| args.value(k));
    Ok(parse_plans(faults, byzantine, churn, n)?)
}

/// The two lines every `discover` report opens with.
fn header(topology: &str, graph: &KnowledgeGraph, variant: Variant) -> String {
    format!(
        "topology  : {topology} ({} nodes, {} edges)\nvariant   : {variant}\n",
        graph.len(),
        graph.edge_count()
    )
}

fn discover(args: &Args) -> Result<String, CliError> {
    let topology = args.str("topology");
    let variant = parse_variant(args.str("variant"))?;
    let graph = parse_topology(topology)?;
    let sched = spec::parse_scheduler(args.str("scheduler"))?;

    if args.has("sweep") {
        let solo = [
            "trace", "stats", "dot", "faults", "byzantine", "churn", "record", "shards",
            "max-steps",
        ];
        if let Some(other) = solo.into_iter().find(|k| args.has(k)) {
            return Err(CliError(format!(
                "--sweep runs summary trials only: drop --{other}"
            )));
        }
        return discover_sweep(args, topology, variant, &graph, sched);
    }
    if args.has("jobs") {
        return Err(CliError("--jobs needs --sweep".into()));
    }
    // `--shards K` used to pick a threaded engine with identical output.
    // It is still accepted, validated as before and otherwise ignored,
    // because the frozen benchmark/ crate passes `--shards 1`.
    if args.has("shards") {
        if sched != SchedulerSpec::Fifo {
            return Err(CliError("--shards needs --scheduler fifo".into()));
        }
        args.count("shards")?;
        if args.has("faults") {
            return Err(CliError(
                "--shards runs a fault-free network: drop --faults".into(),
            ));
        }
    }

    let spec = RunSpec {
        topology: topology.to_string(),
        variant,
        plans: plan_flags(args, graph.len())?,
    };
    if spec.plans.reliable() {
        discover_on::<Reliable<ArdNode>>(args, &spec, &graph, sched)
    } else {
        discover_on::<ArdNode>(args, &spec, &graph, sched)
    }
}

/// Renders a guarantee verdict: `survives` or the failure it degraded to.
fn verdict(check: &Result<(), String>) -> String {
    match check {
        Ok(()) => "survives".to_string(),
        Err(reason) => format!("FAILS: {reason}"),
    }
}

/// One `discover` run on layer `P`: build the network the plans call for,
/// run it (recording if asked), hold it to the paper's requirements and
/// budgets, render. Under a Byzantine or churn plan guarantee violations
/// are *reported*, not asserted: the output says which of the paper's
/// requirements survive this adversary.
fn discover_on<P: Layer>(
    args: &Args,
    spec: &RunSpec,
    graph: &KnowledgeGraph,
    sched: SchedulerSpec,
) -> Result<String, CliError> {
    let plans = &spec.plans;
    let trace_limit = args.num::<usize>("trace")?;
    let want_stats = args.has("stats");
    let mut d = DiscoveryOn::<P>::under(graph, spec.variant, plans);
    if trace_limit > 0 || want_stats {
        d.runner_mut().enable_trace();
    }
    if let Some(cap) = args.get("max-steps")? {
        d.cap_steps(cap);
    }

    let mut saved = String::new();
    let recording = args.value("record");
    let result = if let Some(path) = recording {
        // The recording carries every injected event as an explicit choice
        // and is written even when the run fails: a failing prefix is still
        // worth replaying.
        let mut recorder = RecordingScheduler::new(plans.scheduler(sched.build(), graph.len()));
        let result = d.run_all(&mut recorder);
        let mut schedule = recorder.into_schedule();
        schedule.set_meta("nodes", graph.len().to_string());
        spec.stamp(&mut schedule);
        save(&mut saved, "schedule  : written to", path, &schedule)?;
        result
    } else if !plans.is_empty() {
        d.run_all(&mut plans.scheduler(sched.build(), graph.len()))
    } else if sched == SchedulerSpec::Fifo {
        // A fault-free fifo run is the round loop's schedule: same output
        // without a scheduler object.
        d.run_all_rounds()
    } else {
        d.run_all(sched.build().as_mut())
    };
    // A failed run still names where its recording went.
    let named = recording.map_or(String::new(), |path| {
        format!(" (schedule written to {path}; re-run with `ard replay {path}`)")
    });
    let outcome = result.map_err(|e| CliError(format!("simulation failed: {e}{named}")))?;
    d.check(&outcome)
        .map_err(|e| CliError(format!("requirements violated: {e}{named}")))?;

    let mut out = header(&spec.topology, graph, spec.variant);
    if let Some(plan) = &plans.faults {
        writeln!(out, "faults    : {}", faults_meta(plan)).unwrap();
    }
    if let Some(s) = &outcome.survivors {
        let none = || "(none)".to_string();
        let byzantine = plans.byzantine.as_ref().map_or_else(none, byzantine_meta);
        let churn = plans.churn.as_ref().map_or_else(none, churn_meta);
        writeln!(out, "byzantine : {byzantine}").unwrap();
        writeln!(out, "churn     : {churn}").unwrap();
        if !s.byzantine_nodes.is_empty() {
            writeln!(out, "traitors  : {:?}", s.byzantine_nodes).unwrap();
        }
        if !s.joined.is_empty() || !s.left.is_empty() {
            writeln!(out, "membership: {:?} joined, {:?} left", s.joined, s.left).unwrap();
        }
    }
    writeln!(out, "leaders   : {:?}", outcome.leaders).unwrap();
    writeln!(out, "steps     : {}", outcome.steps).unwrap();
    if plans.faults.is_some() {
        let f = outcome.metrics.faults();
        writeln!(
            out,
            "injected  : {} drops, {} duplicates, {} crashes, {} restarts",
            f.drops, f.duplicates, f.crashes, f.restarts
        )
        .unwrap();
        writeln!(
            out,
            "recovery  : {} retransmits, {} acks, {} timer ticks",
            outcome.metrics.kind("retransmit").messages,
            outcome.metrics.kind("rd-ack").messages,
            f.ticks
        )
        .unwrap();
        writeln!(out, "requirements: satisfied (budgets checked net of overhead)").unwrap();
    } else if let Some(s) = &outcome.survivors {
        let b = outcome.metrics.byzantine();
        writeln!(
            out,
            "injected  : {} forgeries ({} no-op), {} silenced sends, {} stale restarts",
            b.forged, b.forge_noops, b.silenced, b.stale_restarts
        )
        .unwrap();
        writeln!(
            out,
            "churned   : {} joins, {} leaves, {} events discarded after leave",
            b.joins, b.leaves, b.leave_discards
        )
        .unwrap();
        writeln!(out, "single leader   : {}", verdict(&s.single_leader)).unwrap();
        writeln!(out, "leader knows all: {}", verdict(&s.leader_knows_all)).unwrap();
        writeln!(out, "budget lemmas   : {}", verdict(&s.budgets)).unwrap();
    } else {
        writeln!(out, "requirements: satisfied").unwrap();
    }
    write!(out, "{}", outcome.metrics).unwrap();
    if trace_limit > 0 {
        out += "trace:\n";
        out += &d.runner().trace().expect("enabled").render(trace_limit);
    }
    if want_stats {
        let stats = d.runner().trace().expect("enabled").stats();
        writeln!(out, "traffic hot spots:").unwrap();
        for (node, count) in stats.top_senders(5) {
            writeln!(out, "  {node:<6} sent {count} messages").unwrap();
        }
        if let Some(((src, dst), count)) = stats.busiest_link() {
            writeln!(out, "  busiest link: {src} → {dst} ({count} messages)").unwrap();
        }
    }
    if let Some(path) = args.value("dot") {
        std::fs::write(path, d.to_dot())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "dot       : written to {path}").unwrap();
    }
    Ok(out + &saved)
}

/// Runs `--sweep T` independent discovery trials over consecutive scheduler
/// seeds, one summary line each. Trials execute on `--jobs` worker threads
/// but are merged back in seed order, so the report is byte-identical at
/// any job count.
fn discover_sweep(
    args: &Args,
    topology: &str,
    variant: Variant,
    graph: &KnowledgeGraph,
    sched: SchedulerSpec,
) -> Result<String, CliError> {
    let trials = args.count("sweep")?;
    let jobs = args.count("jobs")?;
    let SchedulerSpec::Random(base) = sched else {
        return Err(CliError(
            "--sweep varies the seed, so it needs --scheduler random[:SEED]".into(),
        ));
    };

    let seeds: Vec<u64> = (0..trials as u64).map(|i| base.wrapping_add(i)).collect();
    let lines = ard_netsim::par::parallel_map(jobs, seeds, |seed| -> Result<String, CliError> {
        let mut d = Discovery::new(graph, variant);
        let outcome = d
            .run_all(&mut RandomScheduler::seeded(seed))
            .map_err(|e| CliError(format!("seed {seed}: simulation failed: {e}")))?;
        d.check(&outcome)
            .map_err(|e| CliError(format!("seed {seed}: requirements violated: {e}")))?;
        Ok(format!(
            "seed {seed:>4}: leaders {:?}, {} steps, {} msgs, {} bits",
            outcome.leaders,
            outcome.steps,
            outcome.metrics.total_messages(),
            outcome.metrics.total_bits()
        ))
    });

    let mut out = header(topology, graph, variant);
    writeln!(out, "sweep     : {trials} trials, scheduler seeds {base}..={}", base.wrapping_add(trials as u64 - 1)).unwrap();
    for line in lines {
        writeln!(out, "  {}", line?).unwrap();
    }
    writeln!(out, "requirements: satisfied in every trial").unwrap();
    Ok(out)
}

fn adversary(args: &Args) -> Result<String, CliError> {
    let levels = args.num::<u32>("levels")?;
    if !(2..=16).contains(&levels) {
        return Err(CliError("--levels must be in 2..=16".into()));
    }
    let r = tree_adversary::run(levels);
    Ok(format!(
        "T({levels}): n = {}\nforced messages : {}\nTheorem 1 bound : {}\nratio           : {:.2}\n",
        r.n,
        r.messages,
        r.bound,
        r.messages as f64 / r.bound as f64
    ))
}

fn reduction(args: &Args) -> Result<String, CliError> {
    let sets = args.count("sets")?;
    let finds = args.num::<usize>("finds")?;
    let seed = args.num::<u64>("seed")?;
    let seq = if args.has("adversarial") {
        OpSequence::adversarial_deep(sets, finds)
    } else {
        OpSequence::random(sets, finds, seed)
    };
    let out = uf_reduction::run(&seq);
    Ok(format!(
        "union-find reduction: {} sets, {} unions, {} finds\nnetwork size N : {}\nmessages       : {}\nN·α(N,N)       : {}\nmsgs/N         : {:.2}\n",
        seq.n(),
        seq.union_count(),
        seq.find_count(),
        out.network_size,
        out.messages,
        out.n_alpha,
        out.messages as f64 / out.network_size as f64
    ))
}

fn overlay(args: &Args) -> Result<String, CliError> {
    let n = args.count("n")?;
    let lookups = args.num::<usize>("lookups")?;
    let seed = args.num::<u64>("seed")?;
    let graph = ard_graph::gen::random_weakly_connected(n, 2 * n, seed);
    let mut d = Discovery::new(&graph, Variant::AdHoc);
    let mut sched = RandomScheduler::seeded(seed.wrapping_add(1));
    let outcome = d.run_all(&mut sched).map_err(|e| CliError(e.to_string()))?;
    let leader = outcome.leaders[0];
    let members: Vec<NodeId> = d.runner().node(leader).done().iter().collect();
    let mut ring = bootstrap(&members);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut hops = 0u64;
    let mut worst = 0u32;
    for _ in 0..lookups {
        let key = Key::new(rng.gen());
        let from = members[rng.gen_range(0..members.len())];
        let r = ring
            .lookup_blocking(from, key, &mut sched)
            .map_err(|e| CliError(e.to_string()))?;
        hops += u64::from(r.hops);
        worst = worst.max(r.hops);
    }
    Ok(format!(
        "discovery : {} members in {} messages\noverlay   : {} lookups, avg {:.2} hops, worst {worst} (log2 n = {:.1})\ntraffic   : {} messages / {} bits\n",
        members.len(),
        outcome.metrics.total_messages(),
        lookups,
        hops as f64 / lookups.max(1) as f64,
        (n as f64).log2(),
        ring.runner().metrics().total_messages(),
        ring.runner().metrics().total_bits()
    ))
}

fn baselines(args: &Args) -> Result<String, CliError> {
    let n = args.num::<usize>("n")?;
    let seed = args.num::<u64>("seed")?;
    let seeds = args.count("seeds")?;
    let jobs = args.count("jobs")?;
    // Each trial owns its graph seed and its seeded schedulers (base seed,
    // +1, +2 internally — hence the stride of 3), so trials parallelize
    // freely; merging reports in seed order makes the output independent of
    // the job count.
    let stride = |i| seed.wrapping_add(3 * i);
    let trials: Vec<u64> = (0..seeds as u64).map(stride).collect();
    let reports = ard_netsim::par::parallel_map(jobs, trials.clone(), |s| baseline_trial(n, s));
    if seeds == 1 {
        return reports.into_iter().next().unwrap();
    }
    let mut out = String::new();
    for (i, (report, seed)) in reports.into_iter().zip(trials).enumerate() {
        writeln!(out, "=== trial {} (seed {seed}) ===", i + 1).unwrap();
        out.push_str(&report?);
    }
    Ok(out)
}

fn baseline_trial(n: usize, seed: u64) -> Result<String, CliError> {
    let graph = ard_graph::gen::random_weakly_connected(n, 2 * n, seed);
    let mut out = String::new();
    let (nodes, edges) = (graph.len(), graph.edge_count());
    writeln!(out, "random graph: {nodes} nodes, {edges} edges").unwrap();
    let mut row = |name: &str, metrics: &Metrics| {
        let (msgs, bits) = (metrics.total_messages(), metrics.total_bits());
        writeln!(out, "{name:<28} {msgs:>9} msgs {bits:>12} bits").unwrap();
    };
    for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
        let mut d = Discovery::new(&graph, variant);
        let o = d
            .run_all(&mut RandomScheduler::seeded(seed.wrapping_add(1)))
            .map_err(|e| CliError(e.to_string()))?;
        row(&format!("abraham-dolev {variant}"), &o.metrics);
    }
    let name_dropper = ard_baselines::name_dropper::run(&graph, seed);
    row("name-dropper", name_dropper.metrics());
    let law_siu = ard_baselines::law_siu::run(&graph, seed);
    row("law-siu push-pull", law_siu.metrics());
    if n <= 192 {
        let mut sched = RandomScheduler::seeded(seed.wrapping_add(2));
        let (flood, _) = ard_baselines::flood::run(&graph, &mut sched, 100_000_000)
            .map_err(|e| CliError(e.to_string()))?;
        row("flooding", flood.metrics());
    } else {
        writeln!(
            out,
            "{:<28} (skipped: infeasible above ~192 nodes)",
            "flooding"
        )
        .unwrap();
    }
    writeln!(out, "(α(n,n) = {})", alpha(n as u64, n as u64)).unwrap();
    Ok(out)
}

/// Builds the tables `--exp` / `--list` / `--bench-throughput` pick (at most
/// one of them), else every table.
fn tables(args: &Args) -> Result<String, CliError> {
    let quick = args.has("quick");
    let jobs = args.count("jobs")?;
    let picked: Vec<_> = ["exp", "list", "bench-throughput"]
        .into_iter()
        .filter(|k| args.has(k))
        .collect();
    if let [first, second, ..] = picked[..] {
        let both = format!("--{first} and --{second} pick different runs: give one");
        return Err(CliError(both));
    }
    if let (Some(run), true) = (picked.first(), args.has("jobs")) {
        let all = format!("--jobs builds all the tables: drop it or --{run}");
        return Err(CliError(all));
    }
    let mut out = String::new();
    if let Some(path) = args.value("bench-throughput") {
        let sizes = throughput::THROUGHPUT_SIZES.into_iter();
        let sizes: Vec<_> = sizes.filter(|&n| !quick || n <= 4096).collect();
        let points = throughput::measure(&sizes, 3);
        for p in &points {
            writeln!(
                out,
                "n={:<7} {:<7} {:>9} events in {:>8.3}s  ->  {:>12.0} events/s  ({:>7.1} knowledge B/node, {:>6.1} payload B/event, peak {} B)",
                p.n, p.scheduler, p.events, p.secs, p.events_per_sec, p.knowledge_bytes_per_node,
                p.payload_bytes_per_event, p.payload_peak_bytes
            )
            .unwrap();
        }
        std::fs::write(path, throughput::to_json(&points))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").unwrap();
    } else if args.has("list") {
        for (id, title, _) in ard_bench::EXPERIMENTS {
            writeln!(out, "{id:4}  {title}").unwrap();
        }
    } else if let Some(id) = args.value("exp") {
        let table = ard_bench::table_by_id(id, quick)
            .ok_or_else(|| CliError(format!("unknown experiment id: {id} (try --list)")))?;
        writeln!(out, "{table}").unwrap();
    } else {
        for table in ard_bench::all_tables(quick, jobs) {
            writeln!(out, "{table}").unwrap();
        }
    }
    Ok(out)
}

/// The system an `explore`/`replay` invocation drives: the discovery
/// protocol proper (bare, or reliable-wrapped for faulty runs), or one of
/// the planted-bug demo fixtures.
enum System {
    Discovery {
        /// The run: its layer, configuration and plans. A Byzantine or
        /// churn plan selects the hardened protocol and the
        /// survivor-restricted guarantees, and the churn plan's joiners get
        /// no initial wake-up — their recorded `Join` choices wake them.
        spec: RunSpec,
        /// `spec.topology`, parsed once: every candidate schedule builds
        /// its network from this graph.
        graph: KnowledgeGraph,
    },
    /// A fixture of [`fixtures`] with a planted race, fault-dependent or
    /// equivocation-dependent bug: one hub/coordinator/voter plus `clients`
    /// clients (candidates, for `equiv`). `spec` is its `--system` value.
    Fixture {
        spec: String,
        clients: usize,
        system: Box<dyn ForkSystem>,
    },
}

impl System {
    /// Reconstructs the system a schedule file was recorded against, from
    /// its metadata.
    fn from_schedule(schedule: &Schedule) -> Result<Self, CliError> {
        if let Some(spec) = schedule.meta("system") {
            return Self::parse_fixture(spec);
        }
        let (spec, graph) = match RunSpec::from_schedule(schedule) {
            Err(ParseSpecError::MissingMeta("topology")) => {
                let no_system = "schedule has neither `system` nor `topology` meta";
                return Err(CliError(no_system.into()));
            }
            parsed => parsed?,
        };
        Ok(System::Discovery { spec, graph })
    }

    fn parse_fixture(spec: &str) -> Result<Self, CliError> {
        let unknown = |kind: &str| {
            CliError(format!(
                "unknown system `{kind}` (try discovery, racy:K, fragile:K, equiv:K)"
            ))
        };
        let (kind, clients) = spec.split_once(':').ok_or_else(|| unknown(spec))?;
        let clients = clients
            .parse::<usize>()
            .map_err(|_| CliError(format!("{kind}: `{clients}` is not a client count")))?;
        if clients == 0 {
            return Err(CliError(format!("{kind} needs at least one client")));
        }
        let system: Box<dyn ForkSystem> = match kind {
            "racy" => Box::new(fixtures::RacySystem::new(clients)),
            "fragile" => Box::new(fixtures::FragileSystem::new(clients)),
            "equiv" if clients < 2 => return Err(CliError(
                "equiv needs at least two candidates (a second leader needs a second candidate)"
                    .into(),
            )),
            "equiv" => Box::new(fixtures::EquivSystem::new(clients)),
            other => return Err(unknown(other)),
        };
        let spec = format!("{kind}:{clients}");
        Ok(System::Fixture {
            spec,
            clients,
            system,
        })
    }

    /// Number of nodes in the system — the domain crash events draw from.
    fn node_count(&self) -> usize {
        match self {
            System::Discovery { graph, .. } => graph.len(),
            System::Fixture { clients, .. } => clients + 1,
        }
    }

    /// Stamps the metadata replay needs to rebuild this system.
    fn stamp(&self, schedule: &mut Schedule) {
        match self {
            System::Discovery { spec, .. } => spec.stamp(schedule),
            System::Fixture { spec, .. } => schedule.set_meta("system", spec.clone()),
        }
    }

    /// The property closure shared by explore, shrink and replay: build the
    /// system from scratch, run it under `sched`, return `Err` on any
    /// violation. Fault choices, if any, come from the scheduler (a
    /// fault-wrapped explorer or a replayed schedule), never from here.
    fn run_one(&self, sched: &mut dyn Scheduler) -> Result<(), String> {
        match self {
            System::Discovery { spec, graph } => {
                // Under a Byzantine or churn plan any survivor guarantee
                // that fails under this schedule counts as the violation.
                ard_core::run_checked(graph, spec.variant, &spec.plans, sched)?.verdict()
            }
            System::Fixture { system, .. } => run_fork_system(system.as_ref(), sched),
        }
    }

    /// Runs an exploration over this system. The fixtures go through the
    /// checkpoint/fork path (their runs are cloneable); discovery runs
    /// through the run-to-completion closure contract. Results are
    /// byte-identical either way.
    fn explore(&self, config: &ExploreConfig) -> ExploreReport {
        match self {
            System::Fixture { system, .. } => explore_fork(config, system.as_ref()),
            System::Discovery { .. } => {
                explore(config, || |sched: &mut dyn Scheduler| self.run_one(sched))
            }
        }
    }

    /// ddmin-minimizes a failing `schedule` on `jobs` threads and reports
    /// the `shrunk` line.
    fn shrink(&self, schedule: &Schedule, jobs: usize, out: &mut String) -> Schedule {
        let shrunk = shrink_jobs(schedule, jobs, || {
            |sched: &mut dyn Scheduler| self.run_one(sched)
        });
        writeln!(
            out,
            "shrunk    : {} → {} choices ({} candidate runs)",
            shrunk.original_len,
            shrunk.schedule.len(),
            shrunk.attempts
        )
        .unwrap();
        shrunk.schedule
    }
}

fn explore_cmd(args: &Args) -> Result<String, CliError> {
    let budget = args.num::<u64>("budget")?;
    // The walks' default, half the budget, depends on another flag.
    let walks = args.get::<u64>("walks")?.unwrap_or(budget / 2);
    if walks > budget {
        return Err(CliError(format!(
            "--walks {walks} exceeds the --budget of {budget}"
        )));
    }
    let depth = args.num::<usize>("depth")?;
    let seed = args.num::<u64>("seed")?;
    let jobs = args.count("jobs")?;
    let (system, plans) = match args.str("system") {
        "discovery" => {
            if args.has("check-snapshots") {
                return Err(CliError(
                    "--check-snapshots verifies checkpoint/fork snapshots, which discovery \
                     runs do not take: use a forkable --system (racy:K, fragile:K, equiv:K)"
                        .into(),
                ));
            }
            let topology = args.str("topology");
            // Parsed once, and eagerly, so a bad spec fails before any
            // exploration.
            let graph = parse_topology(topology)?;
            let plans = plan_flags(args, graph.len())?;
            let spec = RunSpec {
                topology: topology.to_string(),
                variant: parse_variant(args.str("variant"))?,
                plans: plans.clone(),
            };
            (System::Discovery { spec, graph }, plans)
        }
        other => {
            let fixture = System::parse_fixture(other)?;
            let plans = plan_flags(args, fixture.node_count())?;
            (fixture, plans)
        }
    };
    let n = system.node_count();
    let reduce = match args.str("reduce") {
        "none" => ReduceMode::None,
        "sleep" => ReduceMode::Sleep,
        other => {
            return Err(CliError(format!(
                "--reduce takes `sleep` or `none`, got `{other}`"
            )))
        }
    };
    if n == 0 {
        // An empty network has no event to order, so no schedule to run
        // (`discover` on it reports `steps : 0`).
        return Ok(format!(
            "explored  : 0 schedules (0 random walks, 0 dfs, depth {depth})\n\
             result    : nothing to explore (the topology has no nodes)\n"
        ));
    }

    let config = ExploreConfig {
        random_walks: walks,
        dfs_budget: budget - walks,
        dfs_depth: depth,
        seed,
        plans,
        nodes: n,
        jobs,
        verify_snapshots: args.has("check-snapshots"),
        reduce,
        ..ExploreConfig::default()
    };
    let report = system.explore(&config);
    let mut out = String::new();
    writeln!(
        out,
        "explored  : {} schedules ({} random walks, {} dfs, depth {depth})",
        report.runs, report.random_walks, report.dfs_runs
    )
    .unwrap();
    let plans = &config.plans;
    if let Some(plan) = &plans.faults {
        writeln!(out, "faults    : {}", faults_meta(plan)).unwrap();
    }
    if let Some(plan) = &plans.byzantine {
        writeln!(out, "byzantine : {}", byzantine_meta(plan)).unwrap();
    }
    if let Some(plan) = &plans.churn {
        writeln!(out, "churn     : {}", churn_meta(plan)).unwrap();
    }
    if args.has("stats") {
        writeln!(
            out,
            "reduction : mode={reduce}, sleep-pruned={}, state-deduped={}",
            report.sleep_pruned, report.digest_deduped
        )
        .unwrap();
    }
    let Some(failure) = report.failure else {
        writeln!(out, "result    : no violation found").unwrap();
        writeln!(out, "stopped   : {}", report.stop).unwrap();
        return Ok(out);
    };
    writeln!(out, "violation : {}", failure.reason).unwrap();
    writeln!(
        out,
        "found by  : {} (run {} of the exploration)",
        failure.origin,
        failure.run_index + 1
    )
    .unwrap();
    let mut schedule = system.shrink(&failure.schedule, jobs, &mut out);
    system.stamp(&mut schedule);
    save(&mut out, "replay    :", args.str("out"), &schedule)?;
    Ok(out)
}

/// Writes `schedule` to `path` in the text format, through a buffer (the
/// file's text is never held in memory whole), and reports it on a `label`
/// line.
fn save(out: &mut String, label: &str, path: &str, schedule: &Schedule) -> Result<(), CliError> {
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        schedule.write_text(&mut file)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    writeln!(out, "{label} {path} (re-run with `ard replay {path}`)").unwrap();
    Ok(())
}

fn replay_cmd(args: &Args) -> Result<String, CliError> {
    let path = &args.positional;
    let want_shrink = args.has("shrink");
    let jobs = args.count("jobs")?;
    if !want_shrink && (args.has("jobs") || args.has("out")) {
        return Err(CliError("--jobs/--out need --shrink".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let schedule = Schedule::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    let system = System::from_schedule(&schedule)?;

    let mut out = String::new();
    writeln!(out, "schedule  : {} choices from {path}", schedule.len()).unwrap();
    for (k, v) in schedule.meta_iter() {
        writeln!(out, "meta      : {k} = {v}").unwrap();
    }
    let mut replay = ReplayScheduler::strict(&schedule);
    let reproduced = match system.run_one(&mut replay) {
        Err(reason) => {
            writeln!(out, "result    : violation reproduced: {reason}").unwrap();
            true
        }
        Ok(()) => {
            writeln!(out, "result    : schedule replayed cleanly (no violation)").unwrap();
            false
        }
    };
    if replay.leftover() > 0 {
        writeln!(
            out,
            "note      : {} events still pending (schedule is a truncation)",
            replay.leftover()
        )
        .unwrap();
    }
    if want_shrink {
        if !reproduced {
            return Err(CliError(
                "--shrink needs a failing schedule, but the replay found no violation".into(),
            ));
        }
        let shrunk = system.shrink(&schedule, jobs, &mut out);
        save(&mut out, "written   :", args.str("out"), &shrunk)?;
    }
    Ok(out)
}
#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run(&[]).unwrap().contains("usage:"));
        assert!(run_line("help").unwrap().contains("commands:"));
    }

    #[test]
    fn usage_lists_every_row_of_the_table() {
        let usage = usage();
        let words = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut lines = usage.lines().skip(3).peekable();
        for command in COMMANDS {
            let synopsis = format!("  {:<10} {}", command.name, command.synopsis);
            assert_eq!(lines.next(), Some(synopsis.as_str()));
            if let Some((metavar, _)) = command.positional {
                let line = format!("ard {} <{metavar}> [--flag value]...", command.name);
                assert_eq!(lines.next().map(str::trim), Some(line.as_str()));
            }
            for flag in command.flags {
                // A flag's entry: its own line and the help lines under it.
                let mut entry = lines.next().expect("an entry per flag").to_string();
                while let Some(more) = lines.next_if(|line| line.starts_with(&" ".repeat(27))) {
                    entry += more;
                }
                let (name, metavar) = (flag.name, flag.metavar);
                let mut want = match flag.arity {
                    Arity::Switch => format!("--{name} {}", flag.help),
                    Arity::Value => format!("--{name} {metavar} {}", flag.help),
                    Arity::Optional(_) => format!("--{name} [{metavar}] {}", flag.help),
                };
                match (flag.default, flag.arity) {
                    (Some(d), Arity::Optional(bare)) => {
                        want += &format!(" (default {d}; bare {bare})")
                    }
                    (Some(d), _) => want += &format!(" (default {d})"),
                    (None, _) => {}
                }
                assert_eq!(words(&entry), words(&want));
            }
        }
        assert_eq!(lines.next(), None);
        // What the usage text listed before it was rendered from the table.
        let listed = "
            --topology SPEC
            (default random:n=64,extra=128)
            (default random:n=16,extra=24)
            --variant oblivious|bounded|adhoc
            (default adhoc)
            --scheduler fifo|lifo|random[:SEED]|bounded:D[,SEED]
            (default random)
            --max-steps N
            --trace N
            --dot PATH
            --stats
            --record PATH
            --faults drop=P,dup=P,crash=N[,seed=S]
            --byzantine f=K[,seed=S][,class=C]
            --churn rate=R[,seed=S]
            --sweep T
            --jobs N
            --levels I
            (default 8)
            --sets N
            --finds M
            --adversarial
            --seed S
            --n N
            --lookups K
            --seeds T
            --system discovery|racy:K|fragile:K|equiv:K
            (default discovery)
            --budget N
            (default 64)
            --walks W
            (default half;
            --depth D
            (default 4)
            (default 0)
            --out PATH
            (default ard-failure.schedule)
            (default 1)
            --reduce [sleep|none]
            (default none
            --check-snapshots
            ard replay <file>
            --shrink
            (default <file>.min)
            help       print this text";
        for listed in listed.lines().skip(1).map(str::trim) {
            assert!(usage.contains(listed), "usage lost `{listed}`");
        }
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_line("launch").unwrap_err();
        assert!(err.0.contains("unknown command"));
        assert!(err.0.contains("usage:"));
    }

    #[test]
    fn discover_runs_and_reports() {
        let out =
            run_line("discover --topology ring:12 --variant bounded --scheduler fifo").unwrap();
        assert!(out.contains("requirements: satisfied"));
        assert!(out.contains("leaders"));
    }

    #[test]
    fn discover_with_trace() {
        let out = run_line("discover --topology path:4 --scheduler fifo --trace 5").unwrap();
        assert!(out.contains("trace:"));
        assert!(out.contains("wake"));
    }

    #[test]
    fn discover_with_stats() {
        let out = run_line("discover --topology ring:8 --scheduler fifo --stats").unwrap();
        assert!(out.contains("traffic hot spots:"));
        assert!(out.contains("busiest link:"));
    }

    #[test]
    fn discover_fifo_matches_the_fifo_scheduler() {
        // `--scheduler fifo` takes the round loop; its report must read
        // like a library run under the scheduler object (and the inert
        // `--shards` spelling must not change a byte).
        let topology = "random:n=40,extra=80";
        let graph = spec::parse_topology(topology).unwrap();
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let want = d.run_all(&mut ard_netsim::FifoScheduler::new()).unwrap();
        let line =
            format!("discover --topology {topology} --variant adhoc --scheduler fifo --stats");
        let out = run_line(&line).unwrap();
        assert!(out.contains(&format!("leaders   : {:?}\n", want.leaders)));
        assert!(out.contains(&format!("steps     : {}\n", want.steps)));
        assert!(out.contains(&want.metrics.to_string()));
        assert_eq!(run_line(&format!("{line} --shards 4")).unwrap(), out);
    }

    #[test]
    fn scheduler_specs_are_case_insensitive_everywhere() {
        // The spec grammar ignores case, so the sweep, the round loop and
        // the `--shards` check must too.
        let sweep = "discover --topology ring:8 --sweep 2 --scheduler";
        assert_eq!(
            run_line(&format!("{sweep} RANDOM:5")).unwrap(),
            run_line(&format!("{sweep} random:5")).unwrap()
        );
        let fifo = "discover --topology ring:8 --scheduler";
        let round_loop = run_line(&format!("{fifo} fifo")).unwrap();
        assert_eq!(
            run_line(&format!("{fifo} FIFO --shards 1")).unwrap(),
            round_loop
        );
        assert_eq!(spec::parse_scheduler("FIFO").unwrap(), SchedulerSpec::Fifo);
    }

    #[test]
    fn seeds_wrap_at_the_top_of_the_range() {
        let max = u64::MAX;
        let overlay = run_line(&format!("overlay --n 8 --lookups 4 --seed {max}")).unwrap();
        assert!(overlay.contains("8 members"), "{overlay}");
        let one = run_line(&format!("baselines --n 8 --seed {max}")).unwrap();
        assert!(one.contains("name-dropper"), "{one}");
        let two = run_line(&format!("baselines --n 8 --seed {} --seeds 2", max - 1)).unwrap();
        let first = format!("=== trial 1 (seed {}) ===", max - 1);
        assert!(two.contains(&first), "{two}");
        assert!(two.contains("=== trial 2 (seed 1) ==="), "{two}");
        let wrapped = run_line("baselines --n 8 --seed 1").unwrap();
        assert!(two.ends_with(&wrapped), "{two}");
    }

    #[test]
    fn discover_shards_need_fifo() {
        let err = run_line("discover --topology ring:8 --shards 2").unwrap_err();
        assert!(err.0.contains("--shards needs --scheduler fifo"));
        let err = run_line("discover --topology ring:8 --scheduler fifo --shards 0").unwrap_err();
        assert!(err.0.contains("--shards must be ≥ 1"));
    }

    #[test]
    fn discover_max_steps_caps_the_run() {
        let err = run_line("discover --topology ring:12 --scheduler fifo --max-steps 3").unwrap_err();
        assert!(err.0.contains("simulation failed"), "{}", err.0);
        let ok = run_line("discover --topology ring:12 --scheduler fifo --max-steps 100000").unwrap();
        assert!(ok.contains("requirements: satisfied"));
    }

    #[test]
    fn discover_rejects_bad_spec() {
        assert!(run_line("discover --topology blob:9").is_err());
        assert!(run_line("discover --variant mystery").is_err());
        assert!(run_line("discover --scheduler psychic").is_err());
    }

    #[test]
    fn rings_below_two_nodes_are_a_usage_error() {
        for line in [
            "discover --topology ring:0",
            "discover --topology ring:1",
            "explore --topology ring:1",
        ] {
            assert_eq!(
                run_line(line).unwrap_err().to_string(),
                "invalid specification: ring size must be ≥ 2",
                "{line}"
            );
        }
    }

    #[test]
    fn adversary_reports_bound() {
        let out = run_line("adversary --levels 4").unwrap();
        assert!(out.contains("Theorem 1 bound : 30"));
        assert!(run_line("adversary --levels 1").is_err());
    }

    #[test]
    fn reduction_runs() {
        let out = run_line("reduction --sets 16 --finds 8").unwrap();
        assert!(out.contains("network size N : 39"));
        let out = run_line("reduction --sets 16 --finds 4 --adversarial").unwrap();
        assert!(out.contains("union-find reduction"));
    }

    #[test]
    fn overlay_runs() {
        let out = run_line("overlay --n 24 --lookups 10").unwrap();
        assert!(out.contains("24 members"));
        assert!(out.contains("10 lookups"));
    }

    #[test]
    fn baselines_run() {
        let out = run_line("baselines --n 24").unwrap();
        assert!(out.contains("name-dropper"));
        assert!(out.contains("law-siu"));
        assert!(out.contains("flooding"));
    }

    #[test]
    fn baselines_jobs_do_not_change_output() {
        let parallel = run_line("baselines --n 16 --seeds 3 --jobs 4").unwrap();
        let sequential = run_line("baselines --n 16 --seeds 3 --jobs 1").unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.contains("=== trial 3 (seed 6) ==="));
        assert!(run_line("baselines --n 16 --jobs 0").is_err());
        assert!(run_line("baselines --n 16 --seeds 0").is_err());
    }

    #[test]
    fn flag_parsing_rejects_orphans() {
        assert!(run_line("discover --topology").is_err());
        assert!(run_line("discover topology ring:5").is_err());
    }

    #[test]
    fn flags_a_command_does_not_take_are_named() {
        // A misspelling must not fall back to the default topology.
        let err = run_line("discover --tpology ring:5").unwrap_err();
        assert_eq!(err.0, "discover does not take --tpology");
        for (line, complaint) in [
            ("discover --topology ring:5 --budget 8", "discover does not take --budget"),
            ("discover --check", "discover does not take --check"),
            ("adversary --level 4", "adversary does not take --level"),
            ("reduction --sets 8 --lookups 3", "reduction does not take --lookups"),
            ("overlay --n 8 --adversarial", "overlay does not take --adversarial"),
            ("baselines --n 8 --trials 2", "baselines does not take --trials"),
            ("explore --system racy:2 --sweep 3", "explore does not take --sweep"),
            ("replay some.schedule --turbo 9", "replay does not take --turbo"),
            // A value-taking flag does not swallow the switch after it.
            ("discover --dot --stats", "--dot needs a value"),
            ("discover --topology ring:5 --trace", "--trace needs a value"),
        ] {
            assert_eq!(run_line(line).unwrap_err().0, complaint, "{line}");
        }
        assert!(run_line("adversary --levels 99999999999").unwrap_err().0.contains("not a number"));
    }

    #[test]
    fn tables_prints_what_ard_bench_builds() {
        let e5 = ard_bench::table_by_id("e5", true).unwrap();
        assert_eq!(
            run_line("tables --exp e5 --quick").unwrap(),
            format!("{e5}\n")
        );
        let list = run_line("tables --list").unwrap();
        let ids: Vec<_> = list
            .lines()
            .map(|line| line.split_whitespace().next())
            .collect();
        let want: Vec<_> = ard_bench::EXPERIMENTS
            .iter()
            .map(|(id, ..)| Some(*id))
            .collect();
        assert_eq!(ids, want);
        let err = run_line("tables --exp zz").unwrap_err();
        assert!(err.0.contains("--list"), "{}", err.0);
    }

    #[test]
    fn tables_takes_one_run_and_jobs_only_for_all_tables() {
        let both = |a: &str, b: &str| format!("--{a} and --{b} pick different runs: give one");
        let jobs = |other: &str| format!("--jobs builds all the tables: drop it or --{other}");
        for (line, complaint) in [
            ("tables --list --exp e5", both("exp", "list")),
            (
                "tables --bench-throughput --exp e5",
                both("exp", "bench-throughput"),
            ),
            (
                "tables --list --bench-throughput x.json",
                both("list", "bench-throughput"),
            ),
            ("tables --exp e5 --jobs 2", jobs("exp")),
            ("tables --list --jobs 2", jobs("list")),
            (
                "tables --bench-throughput x.json --jobs 2",
                jobs("bench-throughput"),
            ),
        ] {
            assert_eq!(run_line(line).unwrap_err().0, complaint, "{line}");
        }
    }

    #[test]
    fn explore_discovery_reports_no_violation() {
        let out =
            run_line("explore --topology path:6 --variant oblivious --budget 8 --depth 2").unwrap();
        assert!(out.contains("explored  : 8 schedules (4 random walks, 4 dfs"));
        assert!(out.contains("no violation found"));
    }

    #[test]
    fn explore_finds_shrinks_and_writes_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-racy.schedule");
        let path = path.to_str().unwrap().to_string();
        let report =
            run_line(&format!("explore --system racy:3 --budget 32 --out {path}")).unwrap();
        assert!(report.contains("violation : lease granted to highest-id client"));
        assert!(report.contains("found by  :"));
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("violation reproduced: lease granted"));
        assert!(replayed.contains("meta      : system = racy:3"));
    }

    #[test]
    fn explore_same_flags_same_stdout() {
        // The command line the gate used to run from the shell: the same
        // flags print the same bytes, clean, at any job count.
        let line = "explore --topology random:n=12,extra=16 --budget 16 --depth 3 --seed 7";
        let first = run_line(&format!("{line} --jobs 1")).unwrap();
        assert!(first.contains("no violation found"), "{first}");
        assert_eq!(first, run_line(&format!("{line} --jobs 1")).unwrap());
        assert_eq!(first, run_line(&format!("{line} --jobs 4")).unwrap());
    }

    #[test]
    fn explore_reports_why_it_stopped() {
        let out =
            run_line("explore --topology path:6 --variant oblivious --budget 8 --depth 2").unwrap();
        assert!(
            out.contains("stopped   : frontier exhausted")
                || out.contains("stopped   : budget exhausted"),
            "{out}"
        );
    }

    #[test]
    fn explore_reduce_finds_the_same_race_and_prints_stats() {
        let path = std::env::temp_dir().join("ard-cli-test-reduce.schedule");
        let path = path.to_str().unwrap().to_string();
        let reduced = run_line(&format!(
            "explore --system racy:3 --budget 32 --depth 7 --reduce --stats --out {path}"
        ))
        .unwrap();
        assert!(reduced.contains("violation : lease granted to highest-id client"));
        assert!(reduced.contains("reduction : mode=sleep, sleep-pruned="), "{reduced}");
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("violation reproduced: lease granted"));
        // `--reduce none` is the explicit off switch and changes nothing
        // about the default output.
        let off = run_line(&format!(
            "explore --system racy:3 --budget 32 --depth 7 --reduce none --stats --out {path}"
        ))
        .unwrap();
        assert!(off.contains("reduction : mode=none, sleep-pruned=0, state-deduped=0"), "{off}");
        assert!(run_line("explore --system racy:3 --reduce bogus").is_err());
    }

    #[test]
    fn explore_walks_controls_the_phase_split() {
        let path = std::env::temp_dir().join("ard-cli-test-walks.schedule");
        let path = path.to_str().unwrap().to_string();
        let pure_dfs = run_line(&format!(
            "explore --system racy:3 --budget 32 --walks 0 --depth 7 --out {path}"
        ))
        .unwrap();
        assert!(pure_dfs.contains("(0 random walks,"), "{pure_dfs}");
        assert!(pure_dfs.contains("violation : lease granted to highest-id client"));
        let pure_walks =
            run_line("explore --topology path:4 --variant oblivious --budget 8 --walks 8").unwrap();
        assert!(pure_walks.contains("(8 random walks, 0 dfs,"), "{pure_walks}");
        let err = run_line("explore --system racy:3 --budget 8 --walks 9").unwrap_err();
        assert!(err.0.contains("exceeds the --budget"), "{}", err.0);
    }

    /// A plan-free Ad-hoc run on `topology`.
    fn adhoc(topology: &str) -> RunSpec {
        RunSpec {
            topology: topology.into(),
            variant: Variant::AdHoc,
            plans: Plans::default(),
        }
    }

    #[test]
    fn replay_same_file_same_stdout() {
        let (result, schedule) = ard_core::record(&adhoc("ring:8"), RandomScheduler::seeded(3));
        result.unwrap();
        let path = std::env::temp_dir().join("ard-cli-test-ring.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let line = format!("replay {}", path.display());
        let a = run_line(&line).unwrap();
        assert_eq!(a, run_line(&line).unwrap());
        assert!(a.contains("result    : schedule replayed cleanly"));
        assert!(a.contains("meta      : variant = ad-hoc"));
    }

    #[test]
    fn discover_faulty_records_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-faulty.schedule");
        let path = path.to_str().unwrap().to_string();
        let out = run_line(&format!(
            "discover --topology ring:10 --variant bounded --scheduler random:3 \
             --faults drop=0.1,dup=0.05,seed=5 --record {path}"
        ))
        .unwrap();
        assert!(out.contains("faults    : drop=0.1,dup=0.05,crash=0,seed=5"));
        assert!(out.contains("injected  :"));
        assert!(out.contains("requirements: satisfied"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : faults = drop=0.1,dup=0.05,crash=0,seed=5"));
        assert!(replayed.contains("result    : schedule replayed cleanly"));
    }

    /// A shrunk discovery witness is a whole run: replayed, it reproduces
    /// the violation the explorer found and leaves no event pending.
    #[test]
    fn explore_writes_a_discovery_witness_that_reproduces_its_violation() {
        let path = std::env::temp_dir().join("ard-cli-test-witness.schedule");
        let path = path.to_str().unwrap().to_string();
        let found = run_line(&format!(
            "explore --topology random:n=8,extra=8 --byzantine f=1,seed=3 --budget 64 --seed 0 \
             --out {path}"
        ))
        .unwrap();
        let violation = found
            .lines()
            .find_map(|line| line.strip_prefix("violation : "));
        let violation = violation.unwrap_or_else(|| panic!("no violation found:\n{found}"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        let reproduced = format!("result    : violation reproduced: {violation}\n");
        assert!(replayed.contains(&reproduced), "{found}{replayed}");
        assert!(!replayed.contains("still pending"), "{found}{replayed}");
    }

    #[test]
    fn discover_faulty_with_crashes_still_satisfies_requirements() {
        let out = run_line(
            "discover --topology random:n=12,extra=18,seed=2 --scheduler random:7 \
             --faults drop=0.05,crash=2,seed=11",
        )
        .unwrap();
        assert!(out.contains("2 crashes, 2 restarts"));
        assert!(out.contains("requirements: satisfied"));
    }

    #[test]
    fn discover_rejects_bad_fault_flags() {
        assert!(run_line("discover --topology ring:6 --faults drop=1.5").is_err());
        assert!(run_line("discover --topology ring:6 --faults mangle=1").is_err());
    }

    #[test]
    fn discover_faulty_explains_itself_with_stats_and_trace() {
        let out = run_line(
            "discover --topology random:n=12,extra=18,seed=2 --scheduler random:7 \
             --faults drop=0.2,crash=1,seed=11 --stats --trace 100000",
        )
        .unwrap();
        assert!(out.contains("injected  :"), "{out}");
        assert!(out.contains("recovery  :"), "{out}");
        assert!(out.contains("traffic hot spots:"), "{out}");
        assert!(out.contains("busiest link:"), "{out}");
        let trace = out.split_once("trace:\n").expect("trace section").1;
        assert!(trace.contains("] drop ") && trace.contains("] crash "), "{trace}");
    }

    #[test]
    fn discover_max_steps_caps_faulty_and_byzantine_runs() {
        for plan in ["--faults drop=0.1,seed=5", "--byzantine f=1,seed=4"] {
            let line = format!("discover --topology ring:10 --scheduler random:3 {plan}");
            let err = run_line(&format!("{line} --max-steps 3")).unwrap_err();
            assert!(err.0.contains("simulation failed"), "{}", err.0);
            assert_eq!(
                run_line(&format!("{line} --max-steps 10000000")).unwrap(),
                run_line(&line).unwrap()
            );
        }
    }

    #[test]
    fn discover_records_any_run() {
        // No plan at all: the recording replays as an honest run, and
        // recording changes nothing but the trailing `schedule` line —
        // also on the fifo path, which otherwise takes the round loop.
        for scheduler in ["random:3", "fifo"] {
            let path = std::env::temp_dir().join(format!("ard-cli-test-plain-{scheduler}.schedule"));
            let path = path.to_str().unwrap().to_string();
            let line = format!("discover --topology ring:10 --variant bounded --scheduler {scheduler}");
            let out = run_line(&format!("{line} --record {path}")).unwrap();
            let (report, schedule_line) = out.split_at(out.find("schedule  :").unwrap());
            assert_eq!(report, run_line(&line).unwrap());
            assert!(schedule_line.contains(&format!("ard replay {path}")));
            let replayed = run_line(&format!("replay {path}")).unwrap();
            assert!(replayed.contains("meta      : topology = ring:10"), "{replayed}");
            assert!(!replayed.contains("meta      : faults"), "{replayed}");
            assert!(replayed.contains("result    : schedule replayed cleanly"), "{replayed}");
        }
    }

    /// `discover --record` and `ard_core::record` compose the recorder
    /// separately; for the same run they must write the same bytes, the
    /// `nodes` metadata included.
    #[test]
    fn discover_records_what_the_library_records() {
        let path = std::env::temp_dir().join(format!("ard-cli-test-{}.schedule", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        for (topology, faults, byzantine, churn) in [
            ("ring:10", None, None, None),
            ("random:n=12,extra=20,seed=3", Some("drop=0.1,crash=1,seed=2"), None, None),
            ("ring:12", None, Some("f=2,seed=7"), Some("rate=0.2,seed=11")),
        ] {
            let mut line =
                format!("discover --topology {topology} --variant adhoc --scheduler random:5");
            for (flag, value) in [("faults", faults), ("byzantine", byzantine), ("churn", churn)] {
                if let Some(value) = value {
                    write!(line, " --{flag} {value}").unwrap();
                }
            }
            run_line(&format!("{line} --record {path}")).unwrap();
            let written = std::fs::read_to_string(&path).unwrap();

            let n = parse_topology(topology).unwrap().len();
            let spec = RunSpec {
                topology: topology.into(),
                variant: Variant::AdHoc,
                plans: parse_plans(faults, byzantine, churn, n).unwrap(),
            };
            let inner = spec::parse_scheduler("random:5").unwrap().build();
            let (_, recorded) = ard_core::record(&spec, inner);
            assert_eq!(written, recorded.to_text(), "{line}");
            assert!(written.contains(&format!("meta nodes {n}\n")), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A run that fails still writes its recording, and the error says
    /// where it went.
    #[test]
    fn a_failed_recorded_discover_names_its_recording() {
        let path = std::env::temp_dir().join(format!("ard-cli-test-{}-failed.schedule", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let line = "discover --topology ring:8 --scheduler fifo --max-steps 5";
        let err = run_line(&format!("{line} --record {path}")).unwrap_err();
        assert!(err.0.starts_with("simulation failed: "), "{err}");
        let named = format!("(schedule written to {path}; re-run with `ard replay {path}`)");
        assert!(err.0.ends_with(&named), "{err}");
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.starts_with("schedule  : 5 choices from"), "{replayed}");
        let unrecorded = run_line(line).unwrap_err();
        assert!(!unrecorded.0.contains("schedule written"), "{unrecorded}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explore_with_faults_finds_the_fragile_bug() {
        let path = std::env::temp_dir().join("ard-cli-test-fragile.schedule");
        let path = path.to_str().unwrap().to_string();
        let report = run_line(&format!(
            "explore --system fragile:1 --budget 128 --faults drop=0.25,seed=1 --out {path}"
        ))
        .unwrap();
        assert!(report.contains("faults    : drop=0.25"));
        assert!(report.contains("violation :"), "{report}");
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : system = fragile:1"));
        assert!(replayed.contains("violation reproduced"), "{replayed}");
    }

    #[test]
    fn discover_byzantine_reports_survival_and_records_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-byzantine.schedule");
        let path = path.to_str().unwrap().to_string();
        let line = format!(
            "discover --topology ring:12 --scheduler random:5 \
             --byzantine f=2,seed=7 --churn rate=0.2,seed=11 --record {path}"
        );
        let out = run_line(&line).unwrap();
        assert!(out.contains("byzantine : f=2,seed=7,classes=equivocate+fabricate+silence+stale-restart"));
        assert!(out.contains("churn     : rate=0.2,seed=11"));
        assert!(out.contains("traitors  : [n1, n5]"));
        assert!(out.contains("single leader   :"), "{out}");
        assert!(out.contains("leader knows all:"), "{out}");
        assert!(out.contains("budget lemmas   :"), "{out}");
        assert_eq!(run_line(&line).unwrap(), out, "byzantine discover must be deterministic");
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : byzantine = f=2,seed=7,classes="));
        assert!(replayed.contains("meta      : churn = rate=0.2,seed=11"));
    }

    #[test]
    fn discover_byzantine_survives_on_a_quiet_seed() {
        // Only silence injected, no churn: the bare protocol rides it out.
        let out = run_line(
            "discover --topology ring:8 --scheduler random:2 --byzantine f=1,seed=4,class=silence",
        )
        .unwrap();
        assert!(out.contains("byzantine : f=1,seed=4,classes=silence"));
        assert!(out.contains("single leader   : survives"), "{out}");
    }

    #[test]
    fn discover_byzantine_writes_dot_and_explains_itself() {
        let dot = std::env::temp_dir().join("ard-cli-test-byzantine.dot");
        let line = "discover --topology ring:12 --scheduler random:5 \
                    --byzantine f=2,seed=7 --churn rate=0.2,seed=11";
        let plain = run_line(line).unwrap();
        let out = run_line(&format!("{line} --stats --trace 100000 --dot {}", dot.display()))
            .unwrap();
        // The observability flags only append sections.
        assert!(out.starts_with(&plain), "{out}");
        assert!(out.contains("traffic hot spots:"), "{out}");
        assert!(out.contains("] forge "), "{out}");
        assert!(out.contains(&format!("dot       : written to {}", dot.display())));
        let rendered = std::fs::read_to_string(&dot).unwrap();
        assert!(rendered.starts_with("digraph discovery"), "{rendered}");
    }

    #[test]
    fn explore_equiv_finds_and_shrinks_the_equivocation() {
        let path = std::env::temp_dir().join("ard-cli-test-equiv.schedule");
        let path = path.to_str().unwrap().to_string();
        let report = run_line(&format!(
            "explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate --budget 64 --out {path}"
        ))
        .unwrap();
        assert!(report.contains("byzantine : f=1,seed=3,classes=equivocate"));
        assert!(report.contains("violation : forged endorsements elected 2 leaders"), "{report}");
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : system = equiv:3"));
        assert!(replayed.contains("violation reproduced: forged endorsements elected 2 leaders"));
    }

    #[test]
    fn equiv_is_clean_without_a_byzantine_plan() {
        let out = run_line("explore --system equiv:3 --budget 32").unwrap();
        assert!(out.contains("no violation found"), "{out}");
    }

    #[test]
    fn byzantine_flags_reject_bad_combinations() {
        // Byzantine runs use the bare protocol; link faults need Reliable.
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --faults drop=0.1").is_err());
        assert!(run_line("explore --system equiv:2 --byzantine f=1 --faults drop=0.1").is_err());
        assert!(run_line("discover --topology ring:6 --churn rate=0.2 --faults drop=0.1").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --sweep 3").is_err());
        assert!(run_line("discover --topology ring:6 --churn rate=0.2 --sweep 3").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --jobs 2").is_err());
        // Bad specs fail loudly.
        assert!(run_line("discover --topology ring:6 --byzantine seed=3").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1,class=bribe").is_err());
        assert!(run_line("discover --topology ring:6 --churn rate=0.9").is_err());
        assert!(run_line("explore --system equiv:1").is_err());
    }

    /// `replay` refuses the plans `discover` refuses: a hand-written
    /// schedule with a faults plan beside a churn plan describes no run.
    #[test]
    fn replay_rejects_faults_beside_churn_as_discover_does() {
        let (faults, churn) = ("drop=0.1,dup=0,crash=0,seed=1", "rate=0.2,seed=1");
        let discover = format!("discover --topology ring:6 --faults {faults} --churn {churn}");
        let path = std::env::temp_dir().join("ard-cli-test-faults-churn.schedule");
        let meta = format!("meta churn {churn}\nmeta faults {faults}\n");
        let meta = meta + "meta topology ring:6\nmeta variant ad-hoc\n";
        std::fs::write(&path, format!("ard-schedule v1\n{meta}")).unwrap();
        let replay = run_line(&format!("replay {}", path.display())).map_err(|e| e.0);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(replay, Err(run_line(&discover).unwrap_err().0));
        assert_eq!(
            replay,
            Err(ParseSpecError::FaultsUnderAdversary.to_string())
        );
    }

    #[test]
    fn explore_jobs_do_not_change_output() {
        let path = std::env::temp_dir().join("ard-cli-test-parallel.schedule");
        let path = path.to_str().unwrap().to_string();
        let line = |jobs: usize| {
            format!("explore --system racy:3 --budget 32 --jobs {jobs} --out {path}")
        };
        let sequential = run_line(&line(1)).unwrap();
        for jobs in [2, 4] {
            assert_eq!(run_line(&line(jobs)).unwrap(), sequential, "jobs={jobs}");
        }
        assert!(!sequential.contains("jobs"), "job count must not leak into output");
        assert!(run_line("explore --system racy:2 --jobs 0").is_err());
    }

    #[test]
    fn explore_check_snapshots_output_is_unchanged() {
        let path = std::env::temp_dir().join("ard-cli-test-snap.schedule");
        let path = path.to_str().unwrap().to_string();
        let plain =
            run_line(&format!("explore --system racy:2 --budget 48 --depth 5 --out {path}"))
                .unwrap();
        let checked = run_line(&format!(
            "explore --system racy:2 --budget 48 --depth 5 --check-snapshots --jobs 2 --out {path}"
        ))
        .unwrap();
        assert_eq!(plain, checked);
    }

    #[test]
    fn replay_shrink_minimizes_and_writes() {
        use ard_netsim::explore::{explore, ExploreConfig};
        // An *unshrunk* failing schedule, as the explorer first found it.
        let report = explore(&ExploreConfig::default(), || {
            |s: &mut dyn Scheduler| fixtures::run_racy(3, s)
        });
        let mut schedule = report.failure.expect("explorer finds the race").schedule;
        schedule.set_meta("system", "racy:3");
        let path = std::env::temp_dir().join("ard-cli-test-replay-shrink.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let path = path.to_str().unwrap().to_string();

        let sequential = run_line(&format!("replay {path} --shrink")).unwrap();
        assert!(sequential.contains("violation reproduced"));
        assert!(sequential.contains("shrunk    :"));
        assert!(sequential.contains("written   :"));
        assert_eq!(run_line(&format!("replay {path} --shrink --jobs 4 --out {path}.min")).unwrap(), sequential);
        let replayed = run_line(&format!("replay {path}.min")).unwrap();
        assert!(replayed.contains("violation reproduced"));
        assert!(replayed.contains("meta      : shrunk-from ="));

        // Flag hygiene: --jobs/--out without --shrink, unknown flags, and
        // shrinking a passing schedule are all loud errors.
        assert!(run_line(&format!("replay {path} --jobs 2")).is_err());
        assert!(run_line(&format!("replay {path} --turbo 9")).is_err());
    }

    #[test]
    fn replay_shrink_rejects_a_passing_schedule() {
        let (result, schedule) = ard_core::record(&adhoc("ring:6"), RandomScheduler::seeded(2));
        result.unwrap();
        let path = std::env::temp_dir().join("ard-cli-test-clean-shrink.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let err = run_line(&format!("replay {} --shrink", path.display())).unwrap_err();
        assert!(err.0.contains("no violation"));
    }

    #[test]
    fn discover_sweep_jobs_do_not_change_output() {
        let line = |jobs: usize| {
            format!("discover --topology ring:10 --scheduler random:5 --sweep 3 --jobs {jobs}")
        };
        let sequential = run_line(&line(1)).unwrap();
        assert!(sequential.contains("sweep     : 3 trials, scheduler seeds 5..=7"));
        assert!(sequential.contains("requirements: satisfied in every trial"));
        for jobs in [2, 4] {
            assert_eq!(run_line(&line(jobs)).unwrap(), sequential, "jobs={jobs}");
        }
        assert!(run_line("discover --topology ring:6 --sweep 2 --stats").is_err());
        assert!(run_line("discover --topology ring:6 --jobs 2").is_err());
        assert!(run_line("discover --topology ring:6 --scheduler fifo --sweep 2").is_err());
        assert!(run_line("discover --topology ring:6 --sweep 0").is_err());
    }

    #[test]
    fn explore_and_replay_reject_bad_input() {
        assert!(run_line("explore --system racy:0").is_err());
        assert!(run_line("explore --system warp").is_err());
        assert!(run_line("explore --topology blob:5").is_err());
        // Discovery runs are not forkable: there is no snapshot to check.
        for system in ["", "--system discovery "] {
            let line = format!("explore {system}--budget 4 --check-snapshots");
            let err = run_line(&line).unwrap_err();
            assert!(err.0.contains("racy:K, fragile:K, equiv:K"), "{}", err.0);
        }
        assert!(run_line("replay").is_err());
        assert!(run_line("replay --flag").is_err());
        assert!(run_line("replay /nonexistent/ard.schedule").is_err());
    }
}
