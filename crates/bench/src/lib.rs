//! Experiment implementations behind `ard tables`.
//!
//! The paper is a theory paper: its evaluation artifacts are Theorems 1–8,
//! Lemmas 5.5–5.10 and the Figure 1 state diagram. Each experiment here
//! regenerates one of them as an empirical table (see `DESIGN.md` §5 for
//! the full index, and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results). Run them all with:
//!
//! ```text
//! cargo run --release -p ard-cli -- tables
//! ```
//!
//! or a single experiment with `tables --exp e5`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod table;
pub mod throughput;

use ard_netsim::par::parallel_map;

pub use table::Table;

/// One entry of the experiment index: id, title, and the builder that fills
/// the titled table (`quick` shrinks its sweeps, for tests and debug
/// builds).
pub type Experiment = (&'static str, &'static str, fn(bool, &mut Table));

/// The experiment index, in `DESIGN.md` §5 order.
pub const EXPERIMENTS: [Experiment; 19] = [
    ("e1", "Theorem 5 — generic (Oblivious) algorithm message complexity, random weakly connected G(n, 3n)", experiments::e1_generic_messages),
    ("e2", "Theorems 4+6 — Bounded algorithm message complexity and termination, random G(n, 3n)", experiments::e2_bounded_messages),
    ("e3", "Theorem 6 — Ad-hoc algorithm message complexity, random G(n, 3n)", experiments::e3_adhoc_messages),
    ("e4", "Theorem 7 — bit complexity O(|E0|·log n + n·log²n) with Lemma 5.9/5.10 per-kind budgets", experiments::e4_bit_complexity),
    ("e5", "Theorem 1 — adversarial lower bound on rooted binary trees T(i), Oblivious algorithm", experiments::e5_tree_lower_bound),
    ("e6", "Theorem 2 — Union-Find reduction: staged Ad-hoc execution over op sequences", experiments::e6_uf_reduction),
    ("e7", "Lemmas 5.5–5.8 — per-kind message budgets (Oblivious unless noted)", experiments::e7_message_breakdown),
    ("e8", "Theorem 8 — dynamic node/link additions (Ad-hoc): marginal cost vs full re-run", experiments::e8_dynamic_additions),
    ("e9", "§1.1 comparison — messages/bits vs prior algorithms on shared random G(n, 3n)", experiments::e9_baseline_comparison),
    ("e10", "§4.5.2 — Ad-hoc probes: m leader requests cost O((m+n)·α(m,n)) total", experiments::e10_probe_amortization),
    ("e11", "§7 — asynchronous time: causal depth (longest message chain) is Θ(n)", experiments::e11_time_complexity),
    ("e12", "§1 pipeline — overlay bootstrapped from discovery: lookup hops vs log n", experiments::e12_overlay_pipeline),
    ("e13", "Lemma 5.10 internals — leaders reaching phase i vs the n/2^(i−1) bound (Oblivious)", experiments::e13_phase_distribution),
    ("e14", "Robustness — message counts across topologies × schedulers (Ad-hoc, n≈256)", experiments::e14_schedule_sensitivity),
    ("e15", "Scale — Theorem 5/6 budgets and engine memory at large n, random G(n, 3n), single seed", experiments::e15_scale),
    ("f1", "Figure 1 — state-transition coverage over the whole experiment sweep", experiments::f1_transition_coverage),
    ("a1", "Ablation — path compression (the union-find mechanism behind Theorem 6), adversarial staged workload", experiments::a1_path_compression),
    ("a2", "Ablation — balanced queries (the §4.1 mechanism that makes Lemma 5.10 true), complete graphs", experiments::a2_balanced_queries),
    ("a3", "Ablation — Tarjan union-find policies on the reduction's op sequences", experiments::a3_union_find_variants),
];

fn build((id, title, fill): Experiment, quick: bool) -> Table {
    let mut table = Table::new(id, title, &[]);
    fill(quick, &mut table);
    table
}

/// Returns every experiment's table, in index order, built on `jobs`
/// worker threads.
///
/// Every experiment is deterministic in its inputs (each trial owns its
/// topology seed and its seeded scheduler) and the tables come back in
/// input order, so the result is identical whatever the job count.
pub fn all_tables(quick: bool, jobs: usize) -> Vec<Table> {
    parallel_map(jobs, EXPERIMENTS.to_vec(), |entry| build(entry, quick))
}

/// Runs one experiment, looked up by id (e.g. `"e5"`, `"f1"`, `"a2"`).
pub fn table_by_id(id: &str, quick: bool) -> Option<Table> {
    let entry = EXPERIMENTS.iter().find(|(known, ..)| known.eq_ignore_ascii_case(id))?;
    Some(build(*entry, quick))
}
