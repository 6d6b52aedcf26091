//! Seed-pinned regression suite: replays every checked-in schedule file
//! under `tests/corpus/` and asserts the recorded behavior still holds.
//!
//! Three kinds of corpus entries, dispatched on metadata:
//!
//! * **discovery schedules** (`topology` + `variant` meta) — complete
//!   recorded runs of the discovery protocol; replay must quiesce, satisfy
//!   the §1.2 requirements and the §5 budgets, and (when pinned) execute
//!   exactly the recorded number of steps;
//! * **fault schedules** (additionally `faults` meta) — recorded runs
//!   under fault injection (drops, duplicates, crash/restart churn) with
//!   every node wrapped in the reliable-delivery layer; replay is strict
//!   and byte-exact — the fault choices are in the schedule, no fault
//!   machinery or RNG is involved — and must satisfy the requirements and
//!   the budgets net of the metered retransmission overhead;
//! * **failure schedules** (`system racy:K` / `system fragile:K` /
//!   `system equiv:K` meta) — minimized schedules of the planted-bug
//!   fixtures, found by `ard explore` and shrunk; replay must still
//!   reproduce the violation, proving the explorer/shrinker pipeline's
//!   artifacts stay valid. The fragile entry is a *crash-triggered*
//!   witness (its minimized choice sequence still contains the crash that
//!   loses the planted ping); the equiv entry is a *forgery-triggered*
//!   witness — a `forge` choice is what elects the second leader;
//! * **Byzantine schedules** (`byzantine` and/or `churn` meta alongside
//!   `topology`) — recorded guarantee-violation witnesses of the bare
//!   protocol under traitors and membership churn; replay is strict (all
//!   injected events are in the choice stream) and must reproduce at
//!   least one survivor-guarantee violation, backing the "fails" cells of
//!   the survival matrix (`tests/survival_matrix.rs`).
//!
//! To regenerate the discovery, fault and Byzantine entries after an
//! intentional engine change:
//! `cargo test --test replay_corpus regenerate -- --ignored`,
//! then review the diff. The racy entry is regenerated with
//! `ard explore --system racy:3 --out tests/corpus/racy-minimized.schedule`.

use std::path::PathBuf;

use asynchronous_resource_discovery::core::spec::parse_plans;
use asynchronous_resource_discovery::core::{record, replay, Plans, RunSpec, Variant};
use asynchronous_resource_discovery::netsim::explore::fixtures;
use asynchronous_resource_discovery::netsim::{
    Choice, RandomScheduler, ReplayScheduler, Schedule, Scheduler,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "schedule"))
        .collect();
    files.sort();
    files
}

fn load(path: &PathBuf) -> Schedule {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn corpus_is_present_and_mixed() {
    let files = corpus_files();
    assert!(
        files.len() >= 9,
        "expected a seeded corpus, found {} files",
        files.len()
    );
    let schedules: Vec<Schedule> = files.iter().map(load).collect();
    assert!(
        schedules.iter().any(|s| s.meta("system").is_some()),
        "corpus needs at least one minimized failure schedule"
    );
    assert!(
        schedules.iter().any(|s| s.meta("topology").is_some()),
        "corpus needs at least one discovery schedule"
    );
    assert!(
        schedules.iter().any(|s| s.meta("faults").is_some()),
        "corpus needs at least one fault schedule"
    );
    assert!(
        schedules
            .iter()
            .any(|s| s.meta("system").is_some_and(|v| v.starts_with("fragile:"))),
        "corpus needs the crash-triggered fragile witness"
    );
    assert!(
        schedules
            .iter()
            .any(|s| s.meta("system").is_some_and(|v| v.starts_with("equiv:"))),
        "corpus needs the forgery-triggered equivocation witness"
    );
    assert!(
        schedules
            .iter()
            .any(|s| s.meta("byzantine").is_some() && s.meta("churn").is_some()),
        "corpus needs a Byzantine + churn guarantee-violation witness"
    );
}

/// Format back-compat: every corpus file round-trips byte-identically
/// through parse → serialize, and the pre-PR v1 entries stay v1 — the v2
/// Byzantine/churn alphabet must not disturb schedules that use none of
/// its choices.
#[test]
fn corpus_files_round_trip_byte_identically() {
    for path in corpus_files() {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap();
        let schedule = Schedule::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            schedule.to_text(),
            text,
            "{name}: parse → to_text must be the identity on checked-in files"
        );
        let uses_v2 = schedule.choices().any(|c| {
            matches!(
                c,
                Choice::Forge { .. }
                    | Choice::Silence { .. }
                    | Choice::StaleRestart(_)
                    | Choice::Join(_)
                    | Choice::Leave(_)
            )
        });
        let header = text.lines().next().unwrap_or_default();
        if uses_v2 {
            assert_eq!(header, "ard-schedule v2", "{name}: v2 choices need the v2 header");
        } else {
            assert_eq!(
                header, "ard-schedule v1",
                "{name}: schedules without v2 choices must stay in format v1"
            );
        }
    }
}

#[test]
fn every_corpus_schedule_replays_and_still_holds() {
    for path in corpus_files() {
        let name = path.display();
        let schedule = load(&path);
        if let Some(system) = schedule.meta("system") {
            let (kind, clients) = system
                .split_once(':')
                .unwrap_or_else(|| panic!("{name}: bad system meta `{system}`"));
            let clients: usize = clients
                .parse()
                .unwrap_or_else(|_| panic!("{name}: bad system meta `{system}`"));
            let mut sched = ReplayScheduler::strict(&schedule);
            let (violation, needle) = match kind {
                "racy" => (
                    fixtures::run_racy(clients, &mut sched)
                        .expect_err("a checked-in failure schedule must still fail"),
                    "highest-id client",
                ),
                "fragile" => {
                    assert!(
                        schedule
                            .choices()
                            .any(|c| matches!(c, Choice::Crash(_))),
                        "{name}: the fragile witness must stay crash-triggered"
                    );
                    (
                        fixtures::run_fragile(clients, &mut sched)
                            .expect_err("a checked-in failure schedule must still fail"),
                        "pong",
                    )
                }
                "equiv" => {
                    assert!(
                        schedule
                            .choices()
                            .any(|c| matches!(c, Choice::Forge { .. })),
                        "{name}: the equivocation witness must stay forgery-triggered"
                    );
                    (
                        fixtures::run_equiv(clients, &mut sched)
                            .expect_err("a checked-in failure schedule must still fail"),
                        "forged endorsements",
                    )
                }
                other => panic!("{name}: unknown fixture `{other}`"),
            };
            assert!(
                violation.contains(needle),
                "{name}: unexpected violation `{violation}`"
            );
            continue;
        }
        // `replay` rebuilds the network the metadata describes and holds
        // honest and fault schedules to the requirements and the budgets
        // (net of the reliable layer's overhead under `faults`).
        let outcome = replay(&schedule).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            outcome.steps,
            schedule.len() as u64,
            "{name}: replay executed every recorded choice"
        );
        if let Some(steps) = schedule.meta("steps") {
            assert_eq!(steps, outcome.steps.to_string(), "{name}: pinned step count");
        }
        if let Some(survivors) = &outcome.survivors {
            assert!(
                outcome.verdict().is_err(),
                "{name}: a Byzantine corpus witness must reproduce a guarantee violation"
            );
            let injected = outcome.metrics.byzantine();
            assert!(
                injected.forged > 0 || injected.silenced > 0 || !survivors.left.is_empty(),
                "{name}: the witness should actually contain adversarial events"
            );
        }
        assert_eq!(
            outcome.survivors.is_some(),
            schedule.meta("byzantine").is_some() || schedule.meta("churn").is_some(),
            "{name}: survivor verdicts exactly under a Byzantine or churn plan"
        );
        if schedule.meta("faults").is_some() {
            assert!(
                outcome.metrics.faults().any(),
                "{name}: a fault schedule should actually contain faults"
            );
        }
    }
}

/// A present-but-malformed plan entry must fail the replay by name rather
/// than silently mean "no plan" (no joiner wakes withheld, nobody excluded
/// from the survivor checks).
#[test]
fn corrupted_plan_meta_fails_the_replay_by_name() {
    let mut schedule = load(&corpus_dir().join("byzantine-churn-ring-12.schedule"));
    assert!(replay(&schedule).is_ok());
    schedule.set_meta("churn", "rate=lots,seed=11");
    let err = replay(&schedule).unwrap_err();
    assert!(err.contains("`churn`"), "{err}");
    schedule.set_meta("churn", "rate=0.2,seed=11");
    schedule.set_meta("byzantine", "classes=silence");
    let err = replay(&schedule).unwrap_err();
    assert!(err.contains("`byzantine`"), "{err}");
    // The `faults` value is read back too: a malformed one is no plan.
    let mut schedule = load(&corpus_dir().join("faulty-random-12-adhoc-random.schedule"));
    assert!(replay(&schedule).is_ok());
    schedule.set_meta("faults", "drop=lots");
    let err = replay(&schedule).unwrap_err();
    assert!(
        err.contains("`faults`") && err.contains("not a probability"),
        "{err}"
    );
}

/// A schedule recorded by the library carries the whole run, so `ard
/// replay` rebuilds it from the file alone.
#[test]
fn library_recordings_replay_under_ard_replay() {
    let faulty = RunSpec {
        topology: "random:n=10,extra=15,seed=4".into(),
        variant: Variant::Oblivious,
        plans: parse_plans(Some("drop=0.1,dup=0.05,crash=1,seed=2"), None, None, 10).unwrap(),
    };
    let traitors = RunSpec {
        topology: "ring:12".into(),
        variant: Variant::AdHoc,
        plans: parse_plans(None, Some("f=2,seed=7"), Some("rate=0.2,seed=11"), 12).unwrap(),
    };
    for (spec, seed) in [(faulty, 1), (traitors, 5)] {
        let (result, schedule) = record(&spec, RandomScheduler::seeded(seed));
        let outcome = result.unwrap_or_else(|e| panic!("{}: {e}", spec.topology));
        let name = format!("{}.library-{seed}.schedule", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, schedule.to_text()).expect("temp dir is writable");
        let args = ["replay".to_string(), path.display().to_string()];
        let replayed = ard_cli::commands::run(&args);
        let _ = std::fs::remove_file(&path);
        let replayed = replayed.unwrap_or_else(|e| panic!("{}: {e}", spec.topology));
        let result = match outcome.verdict() {
            Ok(()) => "result    : schedule replayed cleanly (no violation)".to_string(),
            Err(reason) => format!("result    : violation reproduced: {reason}"),
        };
        assert!(replayed.contains(&result), "{replayed}");
    }
}

/// The discovery entries of the corpus: name, topology spec, variant and a
/// scheduler constructor. Kept in one place so regeneration and review stay
/// trivial.
fn discovery_corpus() -> Vec<(&'static str, &'static str, Variant, Box<dyn Scheduler>)> {
    use asynchronous_resource_discovery::netsim::{BoundedDelayScheduler, LifoScheduler};
    vec![
        (
            "ring-12-adhoc-random.schedule",
            "ring:12",
            Variant::AdHoc,
            Box::new(RandomScheduler::seeded(7)),
        ),
        (
            "random-16-oblivious-bounded.schedule",
            "random:n=16,extra=24,seed=2",
            Variant::Oblivious,
            Box::new(BoundedDelayScheduler::new(3, 5)),
        ),
        (
            "components-2x5-bounded-lifo.schedule",
            "components:count=2,per=5,extra=5,seed=1",
            Variant::Bounded,
            Box::new(LifoScheduler::new()),
        ),
        (
            "tree-4-adhoc-random.schedule",
            "tree:4",
            Variant::AdHoc,
            Box::new(RandomScheduler::seeded(23)),
        ),
    ]
}

/// Regenerates the fault-schedule corpus entries in place: a complete
/// recorded lossy/duplicating/crashy discovery run, and the minimized
/// crash-triggered witness of the planted fragile bug (found by
/// exploration under a crash-only fault plan, then shrunk). Ignored by
/// default, like [`regenerate_discovery_corpus`].
#[test]
#[ignore = "writes tests/corpus; run explicitly to regenerate"]
fn regenerate_fault_corpus() {
    use asynchronous_resource_discovery::netsim::explore::{explore, ExploreConfig};
    use asynchronous_resource_discovery::netsim::shrink::shrink;
    use asynchronous_resource_discovery::netsim::{FaultPlan, NodeId};

    let faults = Some("drop=0.15,dup=0.05,crash=2,seed=9");
    let spec = RunSpec {
        topology: "random:n=12,extra=20,seed=3".into(),
        variant: Variant::AdHoc,
        plans: parse_plans(faults, None, None, 12).unwrap(),
    };
    let (result, mut schedule) = record(&spec, RandomScheduler::seeded(3));
    let outcome = result.expect("faulty corpus run must complete");
    schedule.set_meta("steps", outcome.steps.to_string());
    let path = corpus_dir().join("faulty-random-12-adhoc-random.schedule");
    std::fs::write(&path, schedule.to_text()).unwrap();
    println!("wrote {} ({} choices)", path.display(), schedule.len());

    let plan = FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2);
    let config = ExploreConfig {
        random_walks: 256,
        dfs_budget: 0,
        dfs_depth: 0,
        seed: 0,
        plans: Plans {
            faults: Some(plan),
            ..Plans::default()
        },
        ..ExploreConfig::default()
    };
    let report = explore(&config, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    });
    let failure = report
        .failure
        .expect("the planted fragile bug must be found");
    let shrunk = shrink(&failure.schedule, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    });
    let mut schedule = shrunk.schedule;
    assert!(
        schedule
            .choices()
            .any(|c| matches!(c, Choice::Crash(_))),
        "witness must stay crash-triggered"
    );
    schedule.set_meta("system", "fragile:1");
    let path = corpus_dir().join("fragile-crash-minimized.schedule");
    std::fs::write(&path, schedule.to_text()).unwrap();
    println!("wrote {} ({} choices)", path.display(), schedule.len());
}

/// Regenerates the Byzantine corpus entries in place:
///
/// * `equiv-forge-minimized.schedule` — the planted equivocation bug of
///   the `equiv:3` fixture, found by exploration under a one-traitor
///   equivocate-only plan (seed 3 — its forge targets hit both spare
///   candidates) and ddmin-shrunk; the minimized witness must stay at
///   most 6 choices and keep its `forge`;
/// * `byzantine-churn-ring-12.schedule` — a complete recorded ring run
///   under two traitors (all fault classes) plus 20% membership churn
///   that violates survivor leader safety, pinning a "fails" matrix cell
///   end to end.
///
/// Ignored by default, like the other regeneration tests.
#[test]
#[ignore = "writes tests/corpus; run explicitly to regenerate"]
fn regenerate_byzantine_corpus() {
    use asynchronous_resource_discovery::netsim::explore::{explore_fork, ExploreConfig};
    use asynchronous_resource_discovery::netsim::shrink::shrink;
    use asynchronous_resource_discovery::netsim::{ByzantinePlan, ChurnPlan};

    let candidates = 3;
    let plan = ByzantinePlan::new(3, 1).only("equivocate");
    let config = ExploreConfig {
        random_walks: 32,
        dfs_budget: 32,
        dfs_depth: 4,
        seed: 0,
        plans: Plans {
            byzantine: Some(plan),
            ..Plans::default()
        },
        nodes: candidates + 1,
        ..ExploreConfig::default()
    };
    let report = explore_fork(&config, &fixtures::EquivSystem::new(candidates));
    let failure = report
        .failure
        .expect("the planted equivocation bug must be found");
    let shrunk = shrink(&failure.schedule, || {
        move |sched: &mut dyn Scheduler| fixtures::run_equiv(candidates, sched)
    });
    let mut schedule = shrunk.schedule;
    assert!(
        schedule.len() <= 6,
        "equivocation witness must minimize to ≤ 6 choices, got {}",
        schedule.len()
    );
    assert!(
        schedule
            .choices()
            .any(|c| matches!(c, Choice::Forge { .. })),
        "witness must stay forgery-triggered"
    );
    schedule.set_meta("system", format!("equiv:{candidates}"));
    let path = corpus_dir().join("equiv-forge-minimized.schedule");
    std::fs::write(&path, schedule.to_text()).unwrap();
    println!("wrote {} ({} choices)", path.display(), schedule.len());

    let spec = RunSpec {
        topology: "ring:12".into(),
        variant: Variant::AdHoc,
        plans: Plans {
            byzantine: Some(ByzantinePlan::new(7, 2)),
            churn: Some(ChurnPlan::new(11, 0.2)),
            ..Plans::default()
        },
    };
    let (result, mut schedule) = record(&spec, RandomScheduler::seeded(5));
    let outcome = result.expect("Byzantine corpus run must quiesce");
    assert!(
        outcome.verdict().is_err(),
        "the churn witness must violate a survivor guarantee"
    );
    schedule.set_meta("steps", outcome.steps.to_string());
    let path = corpus_dir().join("byzantine-churn-ring-12.schedule");
    std::fs::write(&path, schedule.to_text()).unwrap();
    println!("wrote {} ({} choices)", path.display(), schedule.len());
}

/// Regenerates the discovery corpus files in place. Ignored by default:
/// run it deliberately after an intentional engine change and review the
/// resulting diff like any other pinned-output update.
#[test]
#[ignore = "writes tests/corpus; run explicitly to regenerate"]
fn regenerate_discovery_corpus() {
    for (file, topology, variant, sched) in discovery_corpus() {
        let spec = RunSpec {
            topology: topology.into(),
            variant,
            plans: Plans::default(),
        };
        // `record` holds the run to the requirements and the budgets.
        let (result, mut schedule) = record(&spec, sched);
        let outcome = result.unwrap_or_else(|e| panic!("{file}: {e}"));
        schedule.set_meta("steps", outcome.steps.to_string());
        let path = corpus_dir().join(file);
        std::fs::write(&path, schedule.to_text()).unwrap();
        println!("wrote {} ({} choices)", path.display(), schedule.len());
    }
}
