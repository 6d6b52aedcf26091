//! Chaos tier: seed-pinned fault-injection matrix.
//!
//! Every cell runs full discovery on a random weakly-connected graph under
//! a [`FaultPlan`] — lossy links, duplicating links, crash/restart churn —
//! with every node wrapped in the reliable-delivery layer, and asserts the
//! paper's §1.2 requirements at quiescence plus the §5 budgets net of the
//! metered retransmission overhead. The matrix crosses:
//!
//! * fault level: drop 0.01 / 0.1 / 0.3, dup 0.05, 1–3 crash/restarts;
//! * problem variant: Oblivious, Bounded, Ad-hoc;
//! * inner scheduler: fifo, random, bounded-delay 5;
//! * network size: n ∈ {8, 32}.
//!
//! Everything is seeded from the cell index, so a failure names its exact
//! cell and reproduces deterministically.
//!
//! A second matrix crosses the *Byzantine* fault alphabet — equivocating,
//! fabricating, silent and stale-restarting traitors at f ∈ {1, 2} — with
//! membership churn (join/leave) on the bare Byzantine-tolerant protocol,
//! again at n ∈ {8, 32}. Those cells assert quiescence, plan fidelity and
//! strict byte-exact replay; which *guarantees* survive each cell is
//! pinned separately in `tests/survival_matrix.rs`.

use asynchronous_resource_discovery::core::{record, replay, Outcome, Plans, RunSpec, Variant};
use asynchronous_resource_discovery::netsim::{
    BoundedDelayScheduler, ByzantinePlan, ChurnPlan, FaultPlan, FifoScheduler, RandomScheduler,
    Schedule, Scheduler,
};

/// Fault levels of the matrix: (drop probability, crash/restart events).
const LEVELS: [(f64, usize); 3] = [(0.01, 1), (0.1, 2), (0.3, 3)];
const VARIANTS: [Variant; 3] = [Variant::Oblivious, Variant::Bounded, Variant::AdHoc];
const SCHEDULERS: [&str; 3] = ["fifo", "random", "bounded"];

fn make_scheduler(kind: &str, seed: u64) -> Box<dyn Scheduler> {
    match kind {
        "fifo" => Box::new(FifoScheduler::new()),
        "random" => Box::new(RandomScheduler::seeded(seed)),
        "bounded" => Box::new(BoundedDelayScheduler::new(5, seed)),
        other => panic!("unknown scheduler kind {other}"),
    }
}

/// The run on `random:n=N,extra=2N,seed=CELL` under `plans`.
fn cell_spec(n: usize, cell: u64, variant: Variant, plans: Plans) -> RunSpec {
    RunSpec {
        topology: format!("random:n={n},extra={},seed={cell}", 2 * n),
        variant,
        plans,
    }
}

/// Runs one matrix cell and applies the shared assertions. Returns the
/// outcome and recorded schedule for cells that want extra checks.
fn run_cell(
    n: usize,
    drop: f64,
    crashes: usize,
    variant: Variant,
    sched_kind: &str,
    cell: u64,
) -> (Outcome, Schedule) {
    let name = format!("n={n} drop={drop} crashes={crashes} {variant} {sched_kind} cell={cell}");
    let plans = Plans {
        faults: Some(
            FaultPlan::new(1000 + cell)
                .with_drop(drop)
                .with_dup(0.05)
                .with_spread_crashes(crashes, n),
        ),
        ..Plans::default()
    };
    let sched = make_scheduler(sched_kind, 2000 + cell);
    // `record` holds the run to the requirements and to the budgets net of
    // the explicitly metered recovery overhead.
    let (result, schedule) = record(&cell_spec(n, cell, variant, plans), sched);
    let outcome = result.unwrap_or_else(|e| panic!("{name}: {e}"));

    // Re-assert the shape.
    let faults = outcome.metrics.faults();
    let retransmits = outcome.metrics.kind("retransmit").messages;
    assert_eq!(outcome.leaders.len(), 1, "{name}: single component");
    assert_eq!(faults.crashes as usize, crashes, "{name}: crashes");
    assert_eq!(faults.restarts as usize, crashes, "{name}: restarts");

    // Retransmit-count sanity: recovery traffic reacts to injected loss but
    // stays a bounded fraction of the total (drop < 1 keeps expected
    // attempts per message O(1), and the capped backoff keeps spurious
    // retransmissions rare).
    if drop >= 0.1 {
        assert!(faults.drops > 0, "{name}: plan injected no drops");
        assert!(
            retransmits > 0,
            "{name}: sustained loss must force retransmissions"
        );
    }
    assert!(
        retransmits <= outcome.metrics.total_messages() / 2,
        "{name}: {retransmits} retransmits of {} total messages",
        outcome.metrics.total_messages()
    );
    (outcome, schedule)
}

fn run_matrix(n: usize) {
    let mut cell = n as u64;
    for (drop, crashes) in LEVELS {
        for variant in VARIANTS {
            for sched_kind in SCHEDULERS {
                cell += 1;
                run_cell(n, drop, crashes, variant, sched_kind, cell);
            }
        }
    }
}

#[test]
fn chaos_matrix_small_networks() {
    run_matrix(8);
}

#[test]
fn chaos_matrix_medium_networks() {
    run_matrix(32);
}

/// The harshest cell replays byte-exactly: the recorded schedule, re-run
/// without any fault machinery or RNG, reproduces the identical step count
/// and metrics table.
#[test]
fn harshest_cell_replays_byte_exactly() {
    let n = 32;
    let (outcome, schedule) = run_cell(n, 0.3, 3, Variant::AdHoc, "random", 9_999);
    let replayed = replay(&schedule).expect("recorded faulty schedule replays");
    assert_eq!(replayed.steps, outcome.steps);
    assert_eq!(replayed.steps, schedule.len() as u64);
    assert_eq!(replayed.leaders, outcome.leaders);
    assert_eq!(
        format!("{}", replayed.metrics),
        format!("{}", outcome.metrics),
        "metrics tables must be identical under replay"
    );
}

/// Fault classes of the Byzantine chaos matrix.
const BYZ_CLASSES: [&str; 4] = ["equivocate", "fabricate", "silence", "stale-restart"];

/// Runs one Byzantine × churn chaos cell on the *bare* protocol (no
/// reliable-delivery layer — Byzantine tolerance is a property of the
/// conquest engine itself) and applies the shared sanity assertions.
/// Guarantee survival is *not* asserted here — that classification lives
/// in `tests/survival_matrix.rs`; chaos cells assert that every run
/// quiesces, injects what its plan promises, and records a strict,
/// byte-exact replayable schedule.
fn run_byzantine_cell(
    n: usize,
    f: usize,
    class: &str,
    churn_rate: f64,
    cell: u64,
) -> (Outcome, Schedule) {
    let name = format!("n={n} f={f} class={class} churn={churn_rate} cell={cell}");
    let plans = Plans {
        byzantine: Some(ByzantinePlan::new(3_000 + cell, f).only(class)),
        churn: (churn_rate > 0.0).then(|| ChurnPlan::new(4_000 + cell, churn_rate)),
        ..Plans::default()
    };
    let spec = cell_spec(n, cell, Variant::AdHoc, plans);
    let (result, schedule) = record(&spec, RandomScheduler::seeded(5_000 + cell));
    let outcome = result.unwrap_or_else(|e| panic!("{name}: {e}"));
    let survivors = outcome.survivors.as_ref().expect("judged over survivors");
    let injected = outcome.metrics.byzantine();

    assert_eq!(outcome.steps, schedule.len() as u64, "{name}: steps");
    assert_eq!(
        survivors.byzantine_nodes.len(),
        f.min(n),
        "{name}: traitor count"
    );
    match class {
        "equivocate" | "fabricate" => assert!(
            injected.forged + injected.forge_noops > 0,
            "{name}: forgery classes must actually forge"
        ),
        "stale-restart" => assert_eq!(
            injected.stale_restarts as usize,
            f.min(n),
            "{name}: one stale restart per traitor"
        ),
        _ => {}
    }
    if let Some(plan) = &spec.plans.churn {
        assert_eq!(survivors.joined.len(), plan.joiners(n).len(), "{name}: joins");
        assert_eq!(survivors.left.len(), plan.leavers(n).len(), "{name}: leaves");
    } else {
        assert!(survivors.joined.is_empty() && survivors.left.is_empty(), "{name}");
    }
    (outcome, schedule)
}

/// The Byzantine chaos matrix: {f = 1, 2} × four fault classes × churn
/// off/on, at a given network size. Every cell quiesces and honors its
/// plan; one aggregate check makes sure the silence class actually bites
/// somewhere in the matrix (per-cell silenced counts are legitimately
/// zero when the traitor happens to send little).
fn run_byzantine_matrix(n: usize) {
    let mut cell = 600 + n as u64;
    let mut silenced_total = 0u64;
    for f in [1usize, 2] {
        for class in BYZ_CLASSES {
            for churn_rate in [0.0, 0.05] {
                cell += 1;
                let (outcome, _) = run_byzantine_cell(n, f, class, churn_rate, cell);
                silenced_total += outcome.metrics.byzantine().silenced;
            }
        }
    }
    assert!(
        silenced_total > 0,
        "n={n}: the silence class never silenced a single send across the matrix"
    );
}

#[test]
fn byzantine_matrix_small_networks() {
    run_byzantine_matrix(8);
}

#[test]
fn byzantine_matrix_medium_networks() {
    run_byzantine_matrix(32);
}

/// The harshest Byzantine cell — two traitors, all four fault classes at
/// once, plus membership churn on the medium network — replays strictly
/// and byte-exactly: same steps, same leaders, same metrics table, same
/// injected-event counts, with no plan RNG involved on the replay side.
#[test]
fn harshest_byzantine_cell_replays_byte_exactly() {
    let n = 32;
    let plans = Plans {
        byzantine: Some(ByzantinePlan::new(8_888, 2)),
        churn: Some(ChurnPlan::new(8_889, 0.1)),
        ..Plans::default()
    };
    let spec = cell_spec(n, 8_888, Variant::AdHoc, plans);
    let (result, schedule) = record(&spec, RandomScheduler::seeded(8_890));
    let outcome = result.expect("harshest Byzantine cell quiesces");
    let replayed = replay(&schedule).expect("recorded Byzantine schedule replays");
    assert_eq!(replayed.steps, outcome.steps);
    assert_eq!(replayed.leaders, outcome.leaders);
    assert_eq!(replayed.metrics.byzantine(), outcome.metrics.byzantine());
    let (again, first) = (replayed.survivors.unwrap(), outcome.survivors.unwrap());
    assert_eq!(again.joined, first.joined);
    assert_eq!(again.left, first.left);
    assert_eq!(
        format!("{}", replayed.metrics),
        format!("{}", outcome.metrics),
        "metrics tables must be identical under replay"
    );
}

/// Crash churn alone (no link faults) is survivable: messages to a crashed
/// node are discarded by the runner, so delivery still leans on the
/// retransmission layer even with loss-free links.
#[test]
fn pure_crash_churn_is_survivable() {
    for (seed, variant) in [(1u64, Variant::Oblivious), (2, Variant::Bounded), (3, Variant::AdHoc)]
    {
        let plans = Plans {
            faults: Some(FaultPlan::new(seed).with_spread_crashes(3, 16)),
            ..Plans::default()
        };
        let spec = cell_spec(16, seed, variant, plans);
        let (result, _) = record(&spec, RandomScheduler::seeded(seed + 50));
        let outcome = result.unwrap_or_else(|e| panic!("variant {variant}: {e}"));
        assert_eq!(outcome.metrics.faults().crashes, 3);
        assert_eq!(outcome.metrics.faults().drops, 0, "no link faults in this plan");
    }
}
