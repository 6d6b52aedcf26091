//! Headline guarantee-survival matrix: which of the paper's guarantees
//! survive which Byzantine fault class, at which traitor count, with and
//! without membership churn.
//!
//! Each cell runs full discovery (Ad-hoc variant, bare Byzantine-tolerant
//! nodes — no reliable-delivery layer) on pinned random weakly-connected
//! graphs (n = 16) with a seeded [`ByzantinePlan`] restricted to one fault
//! class, across [`PROBES`] independent (plan seed, scheduler seed, graph
//! seed) triples, and classifies each *survivor* requirement — the checks
//! exclude the traitors themselves and departed nodes:
//!
//! * **survives** — the requirement held on every probed seed;
//! * **degrades** — violated on a minority of seeds (the guarantee is
//!   schedule- and placement-dependent under this fault class);
//! * **fails** — violated on at least half the seeds.
//!
//! The expected classification is pinned in [`EXPECTED`]; a diff means the
//! protocol's Byzantine envelope changed and the table (plus the copy in
//! `EXPERIMENTS.md`) must be re-derived deliberately. The two `none` rows
//! are controls: honest runs survive everything, and membership churn
//! *alone* already breaks leader safety for the bare protocol — the paper's
//! §6 dynamics cover joins, not departures. For fault classes that can
//! break leader safety, minimized explorer-found counterexamples are
//! checked into `tests/corpus/` and replayed by the `replay_corpus` suite.
//!
//! Reading the table: traitor *count* is not monotone in damage — what
//! matters is placement (which nodes the seeded plan corrupts), so
//! `fabricate f=2` can survive where `f=1` degrades. Silence is the
//! deadliest class for the bare protocol (a silenced conquest stalls its
//! whole component's merge), which is exactly why the fault-injection tier
//! wraps nodes in the reliable-delivery layer; budgets survive almost
//! everywhere because adversarial traffic is metered separately and netted
//! out.

use asynchronous_resource_discovery::core::{Config, Discovery, Plans, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{ByzantinePlan, ChurnPlan, RandomScheduler};

/// Independent probes per cell (plan, scheduler and graph seeds are all
/// derived from the probe index so cells stay independent).
const PROBES: u64 = 8;

/// Nodes per probed graph.
const N: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Survival {
    Survives,
    Degrades,
    Fails,
}

use Survival::{Degrades, Fails, Survives};

fn classify(violations: u64) -> Survival {
    match violations {
        0 => Survives,
        v if v < PROBES / 2 => Degrades,
        _ => Fails,
    }
}

/// The pinned matrix: (fault class, f, churn rate) → classification of
/// (single leader, leader knows all, budget lemmas).
const EXPECTED: [(Option<&str>, usize, f64, [Survival; 3]); 18] = [
    (None, 0, 0.0, [Survives, Survives, Survives]),
    (None, 0, 0.2, [Fails, Fails, Survives]),
    (Some("equivocate"), 1, 0.0, [Survives, Survives, Survives]),
    (Some("equivocate"), 1, 0.2, [Fails, Fails, Survives]),
    (Some("equivocate"), 2, 0.0, [Survives, Survives, Degrades]),
    (Some("equivocate"), 2, 0.2, [Fails, Fails, Degrades]),
    (Some("fabricate"), 1, 0.0, [Degrades, Degrades, Survives]),
    (Some("fabricate"), 1, 0.2, [Fails, Fails, Survives]),
    (Some("fabricate"), 2, 0.0, [Survives, Survives, Survives]),
    (Some("fabricate"), 2, 0.2, [Fails, Fails, Survives]),
    (Some("silence"), 1, 0.0, [Fails, Fails, Survives]),
    (Some("silence"), 1, 0.2, [Fails, Fails, Survives]),
    (Some("silence"), 2, 0.0, [Fails, Fails, Survives]),
    (Some("silence"), 2, 0.2, [Fails, Fails, Survives]),
    (Some("stale-restart"), 1, 0.0, [Degrades, Fails, Survives]),
    (Some("stale-restart"), 1, 0.2, [Fails, Fails, Survives]),
    (Some("stale-restart"), 2, 0.0, [Fails, Fails, Survives]),
    (Some("stale-restart"), 2, 0.2, [Fails, Fails, Survives]),
];

/// Runs one matrix cell: [`PROBES`] independent runs of the given fault
/// class at traitor count `f` (churn optional), returning the
/// classification of (single leader, leader knows all, budget lemmas).
fn run_cell(class: Option<&str>, f: usize, churn_rate: f64) -> [Survival; 3] {
    let mut violations = [0u64; 3];
    for probe in 0..PROBES {
        let graph = gen::random_weakly_connected(N, 2 * N, 7_000 + probe);
        let plans = Plans {
            byzantine: class.map(|c| ByzantinePlan::new(probe, f).only(c)),
            churn: (churn_rate > 0.0).then(|| ChurnPlan::new(100 + probe, churn_rate)),
            ..Plans::default()
        };
        // Every cell — the plan-free control included — runs the hardened
        // network, so "hardening alone breaks no guarantee" is measured over
        // the same survivor verdicts as the adversarial rows.
        let mut discovery = if plans.is_empty() {
            Discovery::with_config(&graph, Variant::AdHoc, Config::byzantine())
        } else {
            Discovery::under(&graph, Variant::AdHoc, &plans)
        };
        let mut sched = plans.scheduler(RandomScheduler::seeded(500 + probe), N);
        let outcome = discovery.run_all(&mut sched).unwrap_or_else(|e| {
            panic!("class={class:?} f={f} churn={churn_rate} probe={probe}: {e}")
        });
        let survivors = outcome
            .survivors
            .as_ref()
            .expect("a hardened network reports survivor verdicts");
        for (slot, check) in [
            &survivors.single_leader,
            &survivors.leader_knows_all,
            &survivors.budgets,
        ]
        .into_iter()
        .enumerate()
        {
            if check.is_err() {
                violations[slot] += 1;
            }
        }
    }
    [
        classify(violations[0]),
        classify(violations[1]),
        classify(violations[2]),
    ]
}

/// The matrix matches its pinned classification, cell by cell.
#[test]
fn guarantee_survival_matrix_is_pinned() {
    let mut diffs = Vec::new();
    for (class, f, churn, expected) in EXPECTED {
        let got = run_cell(class, f, churn);
        if got != expected {
            diffs.push(format!(
                "class={class:?} f={f} churn={churn}: expected {expected:?}, measured {got:?}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "guarantee-survival matrix drifted from its pin — if the protocol's \
         Byzantine envelope changed on purpose, re-derive the table here and \
         in EXPERIMENTS.md:\n{}",
        diffs.join("\n")
    );
}

/// Every fault class that can break leader safety has a minimized,
/// explorer-found counterexample checked into the corpus (replayed by the
/// `replay_corpus` suite), so "fails" cells stay concrete, not just
/// statistical.
#[test]
fn fails_cells_have_corpus_witnesses() {
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for witness in ["equiv-forge-minimized.schedule", "byzantine-churn-ring-12.schedule"] {
        assert!(
            corpus.join(witness).is_file(),
            "missing corpus witness {witness} for a failing matrix cell"
        );
    }
    let failing_classes: Vec<&str> = EXPECTED
        .iter()
        .filter(|(_, _, _, [single, _, _])| *single == Fails || *single == Degrades)
        .filter_map(|(class, _, _, _)| *class)
        .collect();
    assert!(
        failing_classes.contains(&"equivocate") || failing_classes.contains(&"fabricate"),
        "the forgery witness documents a forgery-driven leader-safety break"
    );
}

/// Honest control: with no plans at all the Byzantine harness changes
/// nothing — every guarantee survives on every probe.
#[test]
fn honest_baseline_survives_everything() {
    assert_eq!(run_cell(None, 0, 0.0), [Survives, Survives, Survives]);
}
