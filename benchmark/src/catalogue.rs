//! The names this benchmark fixes: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is `benchmark_json()` printed; `schema` fails when the two drift.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One sentence: why the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "round-64k",
        why: "n=65,536 Oblivious on the fifo round engine: handlers are ~40 % of run time and no scheduler object exists, so it isolates core.node + netsim.shard.",
    },
    WorkloadDef {
        name: "random-64k",
        why: "Same graph and protocol work through Runner::execute plus a random scheduler pick per event; the round engine is bypassed, so the engine gap shows only here.",
    },
    WorkloadDef {
        name: "round-256k",
        why: "round-64k's code in the memory-bound regime (n=262,144): node-table layout, allocation, build, requirement check and teardown matter.",
    },
    WorkloadDef {
        name: "striped-64k",
        why: "64 Bounded components with interleaved ids: cluster sets never coalesce into runs, so a gain for contiguous ids that costs fragmented ones shows here.",
    },
    WorkloadDef {
        name: "sweep-1k",
        why: "300 short Ad-hoc runs at n=1,024 (dense-bitset regime): build/check/drop per run are a large share and per-event work is cache-resident.",
    },
    WorkloadDef {
        name: "faulty-16k",
        why: "n=16,384 under drops, duplicates and crashes: FaultScheduler, Reliable ticks/acks/retransmits and always-on recording work only here.",
    },
    WorkloadDef {
        name: "explore-adhoc16",
        why: "40,000 schedules of the real 16-node ArdNode under random walks + sleep-set DFS: netsim.explore does the work, engine throughput barely matters.",
    },
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A simulated statistic: identical whenever code and seed are.
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64, exact: bool) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

/// The end-to-end metrics. The issue's ninth, `failed_share`, is the
/// `failed`/`attempted` pair every result carries (a metric here must
/// never read 0, and that one always should).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        // The timed bounds are the widest the contract allows, not the
        // issue's 10 %: on the 2-core cloud host the baseline was recorded
        // on, two runs of a memory-bound workload differ by 8–12 % (first
        // to third quartile) with nothing else running, while repetitions
        // inside one run agree within 3 % (README, "Noise").
        e2e("setup_s", "s", Lower, 0.25, false),
        e2e("wall_s", "s", Lower, 0.25, false),
        e2e("events_per_sec", "events/s", Higher, 0.25, false),
        e2e("schedules_per_sec", "schedules/s", Higher, 0.25, false),
        e2e("peak_rss_mb", "MB", Lower, 0.15, false),
        // Simulated statistics repeat exactly at equal seed (`compare`
        // flags any change); the bound only has to cover how far they move
        // between the driver's different seeds.
        e2e("msgs_per_node", "count", Lower, 0.05, true),
        e2e("bits_per_node", "count", Lower, 0.05, true),
        e2e("causal_depth", "count", Lower, 0.10, true),
    ]
}

/// Operation names of the `core.node` layer, as metric-name segments.
pub const NODE_OPS: [&str; 12] = [
    "on_wake",
    "search",
    "release",
    "query",
    "query_reply",
    "merge_accept",
    "merge_fail",
    "info",
    "conquer",
    "more_done",
    "probe",
    "probe_reply",
];

/// A message kind (`"query reply"`, `"more/done"`) as a metric-name segment.
pub fn op_segment(kind: &str) -> String {
    kind.replace([' ', '/'], "_")
}

/// The per-layer metrics, `<crate>.<module>.<metric>`. A workload that does
/// not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(MetricDef {
            name: name.to_string(),
            unit,
            better,
            bound: None,
            exact: false,
        });
    };
    add("graph.gen.s", "s", Lower);
    add("graph.gen.edges_per_sec", "edges/s", Higher);
    add("graph.components.wcc_s", "s", Lower);
    add("core.driver.new_s", "s", Lower);
    add("core.driver.outcome_s", "s", Lower);
    add("core.driver.drop_s", "s", Lower);
    add("core.invariants.check_requirements_s", "s", Lower);
    add("core.budgets.check_all_s", "s", Lower);
    add("core.node.handler_ns_per_event", "ns", Lower);
    add("core.node.handler_share", "ratio", Lower);
    add("core.node.sends_per_event", "count", Lower);
    for op in NODE_OPS {
        add(&format!("core.node.{op}.calls"), "count", Lower);
        add(&format!("core.node.{op}.ns"), "ns", Lower);
    }
    add("core.reliable.self_ns_per_event", "ns", Lower);
    add("core.reliable.on_tick.calls", "count", Lower);
    add("core.reliable.on_tick.ns", "ns", Lower);
    add("core.reliable.retransmit_share", "ratio", Lower);
    add("core.reliable.acks_per_data_msg", "ratio", Lower);
    add("netsim.runner.self_ns_per_event", "ns", Lower);
    add(
        "netsim.runner.fifo_sched_events_per_sec",
        "events/s",
        Higher,
    );
    add("netsim.runner.with_topology_s", "s", Lower);
    add("netsim.runner.state_digest_s", "s", Lower);
    add("netsim.runner.trace_overhead_ns_per_event", "ns", Lower);
    add("netsim.runner.knowledge_bytes_per_node", "B", Lower);
    add("netsim.runner.payload_bytes_per_event", "B", Lower);
    add("netsim.runner.payload_peak_bytes", "B", Lower);
    add("netsim.runner.max_link_queue", "count", Lower);
    add("netsim.shard.round_self_ns_per_event", "ns", Lower);
    add("netsim.shard.mean_round_events", "count", Higher);
    add("netsim.shard.threads_events_per_sec", "events/s", Higher);
    add("netsim.shard.threads_slowdown", "ratio", Lower);
    add("netsim.scheduler.fifo.ns_per_event", "ns", Lower);
    add("netsim.scheduler.random.ns_per_event", "ns", Lower);
    add("netsim.scheduler.max_pending", "count", Lower);
    add("netsim.scheduler.choose_calls", "count", Lower);
    for sched in ["fifo", "lifo", "random", "bounded8"] {
        add(&format!("netsim.scheduler.{sched}.ns_per_op"), "ns", Lower);
    }
    add("netsim.fault.sched_ns_per_event", "ns", Lower);
    add("netsim.fault.drops_per_event", "ratio", Lower);
    add("netsim.fault.dups_per_event", "ratio", Lower);
    add("netsim.fault.ticks_per_event", "ratio", Lower);
    add("netsim.fault.crashes", "count", Lower);
    add("netsim.record.to_text_s", "s", Lower);
    add("netsim.record.parse_s", "s", Lower);
    add("netsim.record.bytes_per_choice", "B", Lower);
    add("netsim.record.replay_events_per_sec", "events/s", Higher);
    add("netsim.record.record_overhead_share", "ratio", Lower);
    add("netsim.metrics.record_ns", "ns", Lower);
    add("netsim.metrics.display_s", "s", Lower);
    add("netsim.idseq.push_dense_ns", "ns", Lower);
    add("netsim.idseq.push_contiguous_ns", "ns", Lower);
    add("netsim.idseq.push_scattered_ns", "ns", Lower);
    add("netsim.idseq.for_each_run_ns_per_id", "ns", Lower);
    add("netsim.idseq.heap_bytes_per_id_contiguous", "B", Lower);
    add("netsim.idseq.heap_bytes_per_id_scattered", "B", Lower);
    add("netsim.intset.insert_scattered_ns", "ns", Lower);
    add("netsim.intset.insert_run_ns", "ns", Lower);
    add("netsim.intset.union_ns_per_run", "ns", Lower);
    add("netsim.intset.contains_ns", "ns", Lower);
    add("netsim.bitset.insert_ns", "ns", Lower);
    add("netsim.bitset.contains_ns", "ns", Lower);
    add("netsim.bitset.union_ns_per_word", "ns", Lower);
    add(
        "netsim.explore.walk_schedules_per_sec",
        "schedules/s",
        Higher,
    );
    add(
        "netsim.explore.dfs_schedules_per_sec",
        "schedules/s",
        Higher,
    );
    add("netsim.explore.runs", "count", Lower);
    add("netsim.explore.sleep_pruned", "count", Higher);
    add("netsim.explore.state_deduped", "count", Higher);
    add("netsim.explore.checkpoint_speedup", "ratio", Higher);
    add("netsim.explore.jobs2_speedup", "ratio", Higher);
    add("netsim.shrink.ddmin_s", "s", Lower);
    add("netsim.shrink.ddmin_runs", "count", Lower);
    add("netsim.par.sweep_jobs2_speedup", "ratio", Higher);
    add("cli.parse_topology_s", "s", Lower);
    add("cli.overhead_s", "s", Lower);
    add("cli.render_bytes", "B", Lower);
    add("union_find.dsu.ops_per_sec", "1/s", Higher);
    add("trace.timer_ns", "ns", Lower);
    add("trace.overhead_share", "ratio", Lower);
    out
}

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The `BENCHMARK.json` document the catalogue implies.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name.as_str())),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// Checks a `BENCHMARK.json` document against the contract's limits and
/// against this catalogue.
///
/// # Errors
///
/// Returns every violation found, one per line.
pub fn check_schema(doc: &Json) -> Result<(), String> {
    let mut errors = Vec::new();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap_or(&[]);
    let (workloads, e2e, layers) = (list("workloads"), list("end_to_end"), list("per_layer"));
    if !(2..=8).contains(&workloads.len()) {
        errors.push(format!("{} workloads (2 to 8 allowed)", workloads.len()));
    }
    if !(1..=16).contains(&e2e.len()) {
        errors.push(format!(
            "{} end-to-end metrics (1 to 16 allowed)",
            e2e.len()
        ));
    }
    if !(1..=128).contains(&layers.len()) {
        errors.push(format!(
            "{} per-layer metrics (1 to 128 allowed)",
            layers.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut check_name = |entry: &Json, errors: &mut Vec<String>| -> String {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        if !name_ok(name) {
            errors.push(format!("bad name `{name}`"));
        }
        if !seen.insert(name.to_string()) {
            errors.push(format!("name `{name}` used twice"));
        }
        name.to_string()
    };
    for w in workloads {
        let name = check_name(w, &mut errors);
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errors.push(format!(
                "workload `{name}`: `why` must be one line of 1 to 200 characters"
            ));
        }
    }
    for (metrics, end_to_end) in [(e2e, true), (layers, false)] {
        for m in metrics {
            let name = check_name(m, &mut errors);
            if !m.get("unit").and_then(Json::as_str).is_some_and(unit_ok) {
                errors.push(format!("metric `{name}`: bad or missing unit"));
            }
            if !matches!(
                m.get("better").and_then(Json::as_str),
                Some("lower" | "higher")
            ) {
                errors.push(format!("metric `{name}`: `better` must be lower or higher"));
            }
            let bound = m.get("bound").and_then(Json::as_f64);
            match (end_to_end, bound) {
                (true, Some(b)) if (0.0..=0.25).contains(&b) => {}
                (true, _) => errors.push(format!("metric `{name}`: needs a bound of at most 0.25")),
                (false, Some(_)) => {
                    errors.push(format!("metric `{name}`: per-layer metrics have no bound"))
                }
                (false, None) => {}
            }
        }
    }
    if !e2e.iter().any(|m| {
        m.get("name").and_then(Json::as_str) == Some("setup_s")
            && m.get("unit").and_then(Json::as_str) == Some("s")
            && m.get("better").and_then(Json::as_str) == Some("lower")
    }) {
        errors.push("no `setup_s` metric with unit s, better lower".to_string());
    }
    if *doc != benchmark_json() {
        errors.push(
            "document differs from the catalogue in benchmark/src/catalogue.rs \
             (regenerate it with `benchmark/run.sh --catalogue > BENCHMARK.json`)"
                .to_string(),
        );
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalogue_meets_its_own_schema() {
        check_schema(&benchmark_json()).unwrap();
        assert_eq!(end_to_end().len(), 8);
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn schema_check_catches_bad_documents() {
        let Json::Obj(mut pairs) = benchmark_json() else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "workloads");
        let err = check_schema(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("0 workloads"), "{err}");
    }

    #[test]
    fn kinds_map_to_catalogued_segments() {
        assert_eq!(op_segment("query reply"), "query_reply");
        assert_eq!(op_segment("more/done"), "more_done");
        assert!(NODE_OPS.contains(&op_segment("merge accept").as_str()));
    }
}
