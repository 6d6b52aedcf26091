//! One function per experiment; see `DESIGN.md` §5 for the index.

use std::collections::BTreeMap;

use ard_baselines::{flood, law_siu, name_dropper};
use ard_core::budgets::{self, Netting, Row};
use ard_core::{Config, Discovery, Transition, Variant, EXPECTED_TRANSITIONS};
use ard_graph::{gen, KnowledgeGraph};
use ard_lower_bounds::{tree_adversary, uf_reduction};
use ard_netsim::{Metrics, NodeId, RandomScheduler};
use ard_union_find::{alpha, Compression, OpSequence, UnionFind, UnionPolicy};

use crate::Table;

fn log2f(n: u64) -> f64 {
    (n.max(2) as f64).log2()
}

fn sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![64, 128, 256]
    } else {
        vec![64, 128, 256, 512, 1024, 2048, 4096]
    }
}

/// Runs one discovery to quiescence, checking requirements; returns the
/// finished driver and its reference graph.
fn run_once(
    n: usize,
    extra_edges: usize,
    variant: Variant,
    config: Config,
    seed: u64,
) -> (Discovery, KnowledgeGraph) {
    let graph = gen::random_weakly_connected(n, extra_edges, seed);
    let mut d = Discovery::with_config(&graph, variant, config);
    let mut sched = RandomScheduler::seeded(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    d.run_all(&mut sched).expect("run livelocked");
    d.check_requirements(&graph).expect("requirements violated");
    (d, graph)
}

/// Mean and sample standard deviation of a series.
fn mean_sd(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// The budget table (`ard_core::budgets::table`, the one statement of every
/// bound) of a finished honest run.
fn budget_rows(m: &Metrics, n: usize, e0: usize, variant: Variant) -> Vec<Row> {
    budgets::table(m, n as u64, e0 as u64, variant, &Netting::NONE)
}

/// Holds a run to its total-message theorem — 5 or 6, whichever the table
/// applies to the variant.
fn check_total_messages(m: &Metrics, n: usize, variant: Variant) {
    for row in budget_rows(m, n, 0, variant) {
        if matches!(row.claim, "Theorem 5" | "Theorem 6") {
            row.check().expect("theorem bound violated");
        }
    }
}

fn message_sweep(variant: Variant, quick: bool, table: &mut Table) {
    let seeds: u64 = if quick { 2 } else { 5 };
    // Trials are independent — each owns its topology seed and its seeded
    // scheduler — so they run on the configured worker pool; merging by
    // input order keeps the table byte-identical whatever the job count.
    let trials: Vec<(usize, u64)> = sweep(quick)
        .into_iter()
        .flat_map(|n| (0..seeds).map(move |seed| (n, seed)))
        .collect();
    let measured = crate::parallel::map_configured(trials, |(n, seed)| {
        // Vary both the topology and the schedule across repetitions.
        let (d, graph) = run_once(n, 2 * n, variant, Config::paper(), n as u64 + 7919 * seed);
        let m = d.runner().metrics();
        check_total_messages(m, n, variant);
        (n, graph.edge_count(), m.total_messages() as f64)
    });
    for per_n in measured.chunks(seeds as usize) {
        let n = per_n[0].0;
        let e0 = per_n[per_n.len() - 1].1;
        let msgs: Vec<f64> = per_n.iter().map(|&(_, _, m)| m).collect();
        let (mean, sd) = mean_sd(&msgs);
        let nf = n as f64;
        let a = alpha(n as u64, n as u64);
        table.push_row(vec![
            n.to_string(),
            e0.to_string(),
            format!("{mean:.0} ± {sd:.0}"),
            format!("{:.2}", mean / nf),
            format!("{:.2}", mean / (nf * log2f(n as u64))),
            format!("{:.2}", mean / (nf * a as f64)),
        ]);
    }
    table.push_note(format!(
        "each row: mean ± sd over {seeds} independent topology+schedule seeds"
    ));
}

/// E1 — Theorem 5: the generic (Oblivious) algorithm sends `O(n log n)`
/// messages.
pub(crate) fn e1_generic_messages(quick: bool, t: &mut Table) {
    t.set_header(&["n", "|E0|", "messages (mean ± sd)", "msgs/n", "msgs/(n·log n)", "msgs/(n·α)"]);
    message_sweep(Variant::Oblivious, quick, t);
    t.push_note("expect msgs/(n·log n) bounded by a constant (Theorem 5: O(n log n)); on benign random graphs it even shrinks — the log factor needs the adversarial tree of E5");
}

/// E2 — Theorems 4 & 6: the Bounded algorithm sends `O(n·α)` messages and
/// detects termination.
pub(crate) fn e2_bounded_messages(quick: bool, t: &mut Table) {
    t.set_header(&[
        "n",
        "|E0|",
        "messages (mean ± sd)",
        "msgs/n",
        "msgs/(n·log n)",
        "msgs/(n·α)",
    ]);
    message_sweep(Variant::Bounded, quick, t);
    // Termination check on one representative size.
    let (d, _) = run_once(128, 256, Variant::Bounded, Config::paper(), 9);
    let all_terminated = d.runner().nodes().all(|n| n.is_terminated());
    t.push_note(format!(
        "expect msgs/n flat (Theorem 6: O(n·α), α ≤ 4 at any feasible n); every node terminated: {all_terminated}"
    ));
}

/// E3 — Theorem 6: the Ad-hoc algorithm sends `O(n·α)` messages.
pub(crate) fn e3_adhoc_messages(quick: bool, t: &mut Table) {
    t.set_header(&[
        "n",
        "|E0|",
        "messages (mean ± sd)",
        "msgs/n",
        "msgs/(n·log n)",
        "msgs/(n·α)",
    ]);
    message_sweep(Variant::AdHoc, quick, t);
    t.push_note("expect msgs/n flat and below the Bounded variant (no final conquer wave)");
}

/// E4 — Theorem 7 and Lemmas 5.9/5.10: bit complexity
/// `O(|E₀| log n + n log² n)`.
pub(crate) fn e4_bit_complexity(quick: bool, t: &mut Table) {
    t.set_header(&[
        "n",
        "|E0|",
        "total bits",
        "bits/(E0·b + n·b²)",
        "qreply id-bits",
        "≤2·E0·b",
        "info id-bits",
        "≤4n·b²",
    ]);
    for n in sweep(quick) {
        // Denser graphs stress the |E0| term.
        let extra = 4 * n;
        let (d, graph) = run_once(n, extra, Variant::Oblivious, Config::paper(), 7 + n as u64);
        let m = d.runner().metrics();
        let b = m.id_bits();
        let e0 = graph.edge_count();
        let denom = (e0 as u64 * b + n as u64 * b * b) as f64;
        let rows = budget_rows(m, n, e0, Variant::Oblivious);
        let [qreply, info, total] = ["Lemma 5.9", "Lemma 5.10", "Theorem 7"].map(|claim| {
            let row = rows.iter().find(|r| r.claim == claim).expect("claim in the table");
            row.check().unwrap_or_else(|e| panic!("n={n}: {e}"));
            row
        });
        // The table carries a bit row's fixed per-message overhead (aux +
        // kind tag) as slack on both sides; net of it the budget columns
        // compare id-bits against the paper's id-only bounds.
        t.push_row(vec![
            n.to_string(),
            e0.to_string(),
            total.measured.to_string(),
            format!("{:.2}", total.measured as f64 / denom),
            (qreply.measured - qreply.slack).to_string(),
            (qreply.bound - qreply.slack).to_string(),
            (info.measured - info.slack).to_string(),
            (info.bound - info.slack).to_string(),
        ]);
    }
    t.push_note("b = ⌈log₂ n⌉; the budget columns are the paper's id-only bounds, compared against measured id-bits (total minus fixed per-message overhead)");
}

/// E5 — Theorem 1: the subtree-freezing adversary forces
/// `≥ i·2^(i−1) − 2` messages on `T(i)` for the Oblivious problem.
pub(crate) fn e5_tree_lower_bound(quick: bool, t: &mut Table) {
    t.set_header(&[
        "levels i",
        "n=2^i−1",
        "forced msgs",
        "bound i·2^(i−1)−2",
        "forced/bound",
        "msgs/(0.5·n·log n)",
    ]);
    let max_levels = if quick { 8 } else { 12 };
    for levels in 2..=max_levels {
        let r = tree_adversary::run(levels);
        assert!(r.messages >= r.bound, "T({levels}) below the lower bound");
        t.push_row(vec![
            levels.to_string(),
            r.n.to_string(),
            r.messages.to_string(),
            r.bound.to_string(),
            format!("{:.2}", r.messages as f64 / r.bound as f64),
            format!("{:.2}", r.messages as f64 / (0.5 * r.n as f64 * log2f(r.n))),
        ]);
    }
    t.push_note("expect forced/bound ≥ 1 throughout (the adversary achieves the Ω(n log n) proof bound) and msgs/(0.5·n·log n) ~ constant");
}

/// E6 — Theorem 2 / Lemma 3.1: the Union-Find reduction; Ad-hoc messages
/// track `N·α(N,N)` for `N = 2n − 1 + m`.
pub(crate) fn e6_uf_reduction(quick: bool, t: &mut Table) {
    t.set_header(&[
        "sets n",
        "finds m",
        "N=2n−1+m",
        "messages",
        "msgs/N",
        "N·α(N,N)",
        "msgs/(N·α)",
    ]);
    let sizes: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256, 512, 1024]
    };
    for &n in sizes {
        let finds = n / 2;
        let seq = OpSequence::random(n, finds, n as u64);
        let out = uf_reduction::run(&seq);
        t.push_row(vec![
            n.to_string(),
            finds.to_string(),
            out.network_size.to_string(),
            out.messages.to_string(),
            format!("{:.2}", out.messages as f64 / out.network_size as f64),
            out.n_alpha.to_string(),
            format!("{:.2}", out.messages as f64 / out.n_alpha as f64),
        ]);
    }
    t.push_note("expect msgs/N flat (matching the Ω(N·α) lower bound up to a constant): the algorithm is asymptotically message-optimal");
}

/// E7 — Lemmas 5.5–5.8: per-message-kind budgets on one representative run
/// per size.
pub(crate) fn e7_message_breakdown(quick: bool, t: &mut Table) {
    t.set_header(&["n", "kind group", "measured", "bound", "lemma"]);
    // How E7 names the table's count rows (the ones before Lemma 5.9), and
    // the Bounded run's Lemma 5.8 row after them.
    let groups = [
        ("query", "5.5"),
        ("query reply", "5.5"),
        ("search+release", "5.6 (O(n·α), C=16)"),
        ("merge acc+info", "5.7"),
        ("…+merge fail", "5.7 (corrected, see EXPERIMENTS.md)"),
        ("conquer+more/done", "5.8 generic"),
        ("conquer+more/done (Bounded)", "5.8 bounded"),
    ];
    for n in sweep(quick) {
        let (d, _) = run_once(n, 2 * n, Variant::Oblivious, Config::paper(), 3 * n as u64);
        let (db, _) = run_once(n, 2 * n, Variant::Bounded, Config::paper(), 3 * n as u64);
        let generic = budget_rows(d.runner().metrics(), n, 0, Variant::Oblivious);
        let bounded = budget_rows(db.runner().metrics(), n, 0, Variant::Bounded);
        let counts = generic.iter().take_while(|r| r.claim != "Lemma 5.9");
        let conquests = bounded.iter().filter(|r| r.claim == "Lemma 5.8");
        for (row, (group, lemma)) in counts.chain(conquests).zip(groups) {
            assert!(lemma.starts_with(&row.claim["Lemma ".len()..]), "E7 names the table's rows in order");
            row.check().unwrap_or_else(|e| panic!("n={n}: {e}"));
            t.push_row(vec![
                n.to_string(),
                group.to_string(),
                row.measured.to_string(),
                row.bound.to_string(),
                lemma.to_string(),
            ]);
        }
    }
    t.push_note("every group within its lemma budget; Lemma 5.7's literal 2n bound needs the 3n correction for repeated passive→conquered surrenders");
}

/// E8 — Theorem 8: dynamic additions cost `O(m·α)` marginal messages, far
/// below re-running from scratch.
pub(crate) fn e8_dynamic_additions(quick: bool, t: &mut Table) {
    t.set_header(&[
        "base n",
        "added nodes",
        "added links",
        "marginal msgs",
        "re-run msgs",
        "marginal/re-run",
        "marginal/addition",
    ]);
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    for &n in sizes {
        let graph = gen::random_weakly_connected(n, 2 * n, n as u64);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let mut sched = RandomScheduler::seeded(n as u64 + 1);
        d.run_all(&mut sched).expect("base run livelocked");
        let base_msgs = d.runner().metrics().total_messages();

        // Add n/8 nodes and n/8 links, running to quiescence after each.
        let added_nodes = n / 8;
        let added_links = n / 8;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + 2);
        for _ in 0..added_nodes {
            let total = d.graph().len();
            let peer = NodeId::new(rng.gen_range(0..total));
            d.add_node(vec![peer], &mut sched);
            d.run(&mut sched).expect("addition run livelocked");
        }
        for _ in 0..added_links {
            let total = d.graph().len();
            let u = NodeId::new(rng.gen_range(0..total));
            let v = NodeId::new(rng.gen_range(0..total));
            if u != v {
                d.add_link(u, v, &mut sched);
                d.run(&mut sched).expect("link run livelocked");
            }
        }
        let final_graph = d.graph().clone();
        d.check_requirements(&final_graph)
            .expect("dynamic run violated requirements");
        let marginal = d.runner().metrics().total_messages() - base_msgs;

        // Fresh run on the final graph, for comparison.
        let mut fresh = Discovery::new(&final_graph, Variant::AdHoc);
        fresh
            .run_all(&mut RandomScheduler::seeded(n as u64 + 3))
            .expect("fresh run livelocked");
        let rerun = fresh.runner().metrics().total_messages();

        let additions = (added_nodes + added_links) as f64;
        t.push_row(vec![
            n.to_string(),
            added_nodes.to_string(),
            added_links.to_string(),
            marginal.to_string(),
            rerun.to_string(),
            format!("{:.2}", marginal as f64 / rerun as f64),
            format!("{:.2}", marginal as f64 / additions),
        ]);
    }
    t.push_note("expect marginal/addition ~ constant (Theorem 8: O(m·α) total) and marginal ≪ re-run: no need to restart the algorithm on change");
}

/// E9 — §1.1 context: the paper's algorithms vs Name-Dropper and flooding.
pub(crate) fn e9_baseline_comparison(quick: bool, t: &mut Table) {
    t.set_header(&["n", "algorithm", "messages", "bits", "time (rounds/causal)"]);
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    for &n in sizes {
        let graph = gen::random_weakly_connected(n, 2 * n, 77 + n as u64);
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let mut d = Discovery::new(&graph, variant);
            d.run_all(&mut RandomScheduler::seeded(n as u64))
                .expect("run livelocked");
            let m = d.runner().metrics();
            t.push_row(vec![
                n.to_string(),
                format!("abraham-dolev {variant}"),
                m.total_messages().to_string(),
                m.total_bits().to_string(),
                m.max_causal_depth().to_string(),
            ]);
        }
        let nd = name_dropper::run(&graph, n as u64);
        t.push_row(vec![
            n.to_string(),
            "name-dropper [2]".to_string(),
            nd.metrics().total_messages().to_string(),
            nd.metrics().total_bits().to_string(),
            nd.round().to_string(),
        ]);
        let ls = law_siu::run(&graph, n as u64);
        t.push_row(vec![
            n.to_string(),
            "law-siu-style [5]".to_string(),
            ls.metrics().total_messages().to_string(),
            ls.metrics().total_bits().to_string(),
            ls.round().to_string(),
        ]);
        // Flooding's Θ(n²) messages × Θ(n log n)-bit payloads exhaust memory
        // beyond a couple hundred nodes — itself a data point.
        if n <= 192 {
            let mut sched = RandomScheduler::seeded(n as u64);
            let (fl, _) = flood::run(&graph, &mut sched, 100_000_000).expect("flooding livelocked");
            t.push_row(vec![
                n.to_string(),
                "flooding".to_string(),
                fl.metrics().total_messages().to_string(),
                fl.metrics().total_bits().to_string(),
                fl.metrics().max_causal_depth().to_string(),
            ]);
        } else {
            t.push_row(vec![
                n.to_string(),
                "flooding".to_string(),
                "(infeasible)".to_string(),
                "(infeasible)".to_string(),
                "-".to_string(),
            ]);
        }
    }
    t.push_note("expect abraham-dolev ≪ name-dropper ≪ flooding in messages and especially bits; name-dropper additionally needs synchrony and known n; flooding above ~192 nodes exhausts simulator memory");
}

/// E10 — §4.5.2: amortized probe cost in the Ad-hoc variant.
pub(crate) fn e10_probe_amortization(quick: bool, t: &mut Table) {
    t.set_header(&[
        "n",
        "probes m",
        "probe msgs",
        "msgs/probe",
        "(m+n)·α",
        "total/(m+n)·α",
    ]);
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    for &n in sizes {
        let graph = gen::random_weakly_connected(n, 2 * n, 5 + n as u64);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let mut sched = RandomScheduler::seeded(n as u64);
        d.run_all(&mut sched).expect("run livelocked");
        let before = d.runner().metrics().total_messages();
        let m_probes = 2 * n;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + 9);
        for _ in 0..m_probes {
            let v = NodeId::new(rng.gen_range(0..n));
            d.probe_blocking(v, &mut sched).expect("probe livelocked");
        }
        let probe_msgs = d.runner().metrics().total_messages() - before;
        let bound = (m_probes as u64 + n as u64) * alpha(m_probes as u64, n as u64);
        t.push_row(vec![
            n.to_string(),
            m_probes.to_string(),
            probe_msgs.to_string(),
            format!("{:.2}", probe_msgs as f64 / m_probes as f64),
            bound.to_string(),
            format!("{:.2}", probe_msgs as f64 / bound as f64),
        ]);
    }
    t.push_note("path compression on probe replies keeps msgs/probe ~ 2 (one hop each way) after the first few requests");
}

/// E11 — §7 discussion: asynchronous time. The paper notes the wake-up
/// time complexity is `Ω(n)` and its algorithm's synchronous-model time is
/// `O(T + n)`; the causal-depth measure (longest message chain ≈ rounds a
/// synchronous network would need) should therefore be `Θ(n)`.
pub(crate) fn e11_time_complexity(quick: bool, t: &mut Table) {
    t.set_header(&["n", "variant", "causal depth", "depth/n"]);
    for n in sweep(quick) {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let (d, _) = run_once(n, 2 * n, variant, Config::paper(), 31 + n as u64);
            let depth = d.runner().metrics().max_causal_depth();
            assert!(depth <= 20 * n as u64, "depth super-linear at n={n}");
            t.push_row(vec![
                n.to_string(),
                variant.to_string(),
                depth.to_string(),
                format!("{:.2}", depth as f64 / n as f64),
            ]);
        }
    }
    t.push_note("depth/n settles to a constant: time is linear, matching the Ω(n) wake-up argument of §1.2 and the O(T+n) discussion of §7");
}

/// E12 — §1 motivation: the end-to-end pipeline (discover → build a DHT →
/// serve lookups) with `O(log n)` routing hops.
pub(crate) fn e12_overlay_pipeline(quick: bool, t: &mut Table) {
    use ard_overlay::{bootstrap, Key};
    t.set_header(&[
        "n",
        "discovery msgs",
        "lookups",
        "avg hops",
        "worst hops",
        "log2 n",
    ]);
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    for &n in sizes {
        let graph = gen::random_weakly_connected(n, 2 * n, 41 + n as u64);
        let mut d = Discovery::new(&graph, Variant::AdHoc);
        let mut sched = RandomScheduler::seeded(n as u64);
        let outcome = d.run_all(&mut sched).expect("discovery livelocked");
        let leader = outcome.leaders[0];
        let members: Vec<NodeId> = d.runner().node(leader).done().iter().collect();
        let mut overlay = bootstrap(&members);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + 13);
        let trials = 200u32;
        let mut total = 0u64;
        let mut worst = 0u32;
        for _ in 0..trials {
            let key = Key::new(rng.gen());
            let from = members[rng.gen_range(0..members.len())];
            let r = overlay
                .lookup_blocking(from, key, &mut sched)
                .expect("lookup livelocked");
            assert_eq!(r.owner, overlay.ring().owner(key));
            total += u64::from(r.hops);
            worst = worst.max(r.hops);
        }
        let log_n = log2f(n as u64);
        assert!(
            f64::from(worst) <= 2.5 * log_n + 2.0,
            "hops not logarithmic at n={n}"
        );
        t.push_row(vec![
            n.to_string(),
            outcome.metrics.total_messages().to_string(),
            trials.to_string(),
            format!("{:.2}", total as f64 / f64::from(trials)),
            worst.to_string(),
            format!("{:.1}", log_n),
        ]);
    }
    t.push_note("every lookup verified against the offline ring oracle; avg hops ≈ 0.6·log₂ n (greedy finger routing)");
}

/// E13 — the counting argument inside Lemma 5.10's proof: "the number of
/// leader nodes that reach phase i is at most n/2^(i−1)" (a phase-i leader
/// commands ≥ 2^(i−1) members, and clusters are disjoint while their
/// leaders live).
pub(crate) fn e13_phase_distribution(quick: bool, t: &mut Table) {
    t.set_header(&["n", "phase i", "nodes reaching i", "bound n/2^(i−1)"]);
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    for &n in sizes {
        let (d, _) = run_once(n, 2 * n, Variant::Oblivious, Config::paper(), 51 + n as u64);
        // A node's phase only grows, so its final phase is the highest it
        // reached (as a leader; conquered nodes stop advancing).
        let max_phase = d
            .runner()
            .nodes()
            .map(|node| node.phase())
            .max()
            .unwrap_or(1);
        for i in 1..=max_phase {
            let reached = d.runner().nodes().filter(|node| node.phase() >= i).count() as u64;
            let bound = n as u64 / (1u64 << (i - 1).min(63));
            assert!(
                reached <= bound.max(1),
                "n={n} phase {i}: {reached} > {bound}"
            );
            t.push_row(vec![
                n.to_string(),
                i.to_string(),
                reached.to_string(),
                bound.to_string(),
            ]);
        }
    }
    t.push_note("the halving pattern is the engine of both the message bound (conquer waves shrink geometrically) and the info-bit bound");
}

/// E14 — robustness: the message bounds are schedule- and
/// topology-insensitive (the theorems quantify over *all* asynchronous
/// executions; this samples hostile corners of that space).
pub(crate) fn e14_schedule_sensitivity(quick: bool, t: &mut Table) {
    use ard_netsim::{BoundedDelayScheduler, FifoScheduler, LifoScheduler, Scheduler};
    t.set_header(&[
        "topology",
        "|E0|",
        "min msgs",
        "mean msgs",
        "max msgs",
        "spread",
        "bound ok",
    ]);
    let n = if quick { 96 } else { 256 };
    let topologies: Vec<(&str, KnowledgeGraph)> = vec![
        ("random G(n,3n)", gen::random_weakly_connected(n, 2 * n, 5)),
        ("scale-free", gen::scale_free(n, 2, 5)),
        ("path", gen::path(n)),
        ("ring", gen::ring(n)),
        ("star-in", gen::star_in(n)),
        (
            "tree",
            gen::binary_tree_down((usize::BITS - n.leading_zeros()) - 1),
        ),
    ];
    for (name, graph) in topologies {
        let nn = graph.len();
        let mut counts = Vec::new();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(LifoScheduler::new()),
            Box::new(BoundedDelayScheduler::new(8, 3)),
        ];
        for seed in 0..4u64 {
            schedulers.push(Box::new(RandomScheduler::seeded(seed * 131 + 1)));
        }
        let mut all_ok = true;
        for mut sched in schedulers {
            let mut d = Discovery::new(&graph, Variant::AdHoc);
            d.run_all(sched.as_mut()).expect("run livelocked");
            d.check_requirements(&graph).expect("requirements violated");
            let m = d.runner().metrics();
            all_ok &= budgets::check_theorem_6(m, nn as u64).is_ok();
            counts.push(m.total_messages() as f64);
        }
        let (mean, _) = mean_sd(&counts);
        let min = counts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = counts.iter().cloned().fold(0.0, f64::max);
        assert!(all_ok, "{name}: Theorem 6 bound violated");
        t.push_row(vec![
            name.to_string(),
            graph.edge_count().to_string(),
            format!("{min:.0}"),
            format!("{mean:.0}"),
            format!("{max:.0}"),
            format!("{:.2}x", max / min),
            "yes".to_string(),
        ]);
    }
    t.push_note("7 schedulers per topology (fifo, lifo, bounded-delay, 4 random seeds); worst/best spread stays small - the complexity is a property of the algorithm, not of lucky schedules");
}

/// E15 — scale: the Theorem 5/6 message budgets re-verified at large `n`
/// (single seed per point; a 10⁶-node run is minutes, so no repetition),
/// plus the engine-side scale metrics the million-node engine targets:
/// executed events and knowledge-set bytes per node (`IdSet`s at these sizes).
pub(crate) fn e15_scale(quick: bool, t: &mut Table) {
    t.set_header(&[
        "variant",
        "n",
        "|E0|",
        "messages",
        "msgs/n",
        "msgs/(n·log n)",
        "msgs/(n·α)",
        "events",
        "knowledge B/node",
    ]);
    // All sizes sit above the dense-knowledge cutoff, so every run
    // exercises the sparse representation.
    let sizes: &[usize] = if quick { &[16_384] } else { &[65_536, 1_048_576] };
    for &n in sizes {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let started = std::time::Instant::now();
            let (d, graph) = run_once(n, 2 * n, variant, Config::paper(), n as u64);
            // A 10⁶-node run is minutes of silence otherwise.
            eprintln!(
                "e15: {variant:?} n={n}: {} events in {:.1}s",
                d.runner().steps_executed(),
                started.elapsed().as_secs_f64()
            );
            let m = d.runner().metrics();
            check_total_messages(m, n, variant);
            let msgs = m.total_messages() as f64;
            let nf = n as f64;
            let a = alpha(n as u64, n as u64);
            t.push_row(vec![
                format!("{variant:?}"),
                n.to_string(),
                graph.edge_count().to_string(),
                format!("{msgs:.0}"),
                format!("{:.2}", msgs / nf),
                format!("{:.2}", msgs / (nf * log2f(n as u64))),
                format!("{:.2}", msgs / (nf * a as f64)),
                d.runner().steps_executed().to_string(),
                format!("{:.1}", d.runner().knowledge_bytes() as f64 / nf),
            ]);
        }
    }
    t.push_note("same budget checks as E1-E3 (check_theorem_5/6), applied at the scale the sparse knowledge sets unlock; knowledge B/node would be n/8 bytes (8 KiB at 65536, 128 KiB at 10^6) under dense bitsets");
}

/// F1 — Figure 1: the observed transition set equals the diagram exactly.
pub(crate) fn f1_transition_coverage(quick: bool, t: &mut Table) {
    t.set_header(&["transition", "observed count", "in diagram"]);
    let mut counts: BTreeMap<Transition, u64> = BTreeMap::new();
    let seeds = if quick { 10 } else { 60 };
    for seed in 0..seeds {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let graphs = [
                gen::random_weakly_connected(24, 60, seed),
                gen::path(12),
                gen::binary_tree_down(4),
                gen::star_in(12),
            ];
            for graph in graphs {
                let mut d = Discovery::new(&graph, variant);
                d.run_all(&mut RandomScheduler::seeded(seed * 131 + 17))
                    .expect("run livelocked");
                for node in d.runner().nodes() {
                    for tr in node.transitions() {
                        *counts.entry(tr).or_default() += 1;
                    }
                }
            }
        }
    }
    let mut all_expected_seen = true;
    for &tr in EXPECTED_TRANSITIONS {
        let c = counts.get(&tr).copied().unwrap_or(0);
        if c == 0 {
            all_expected_seen = false;
        }
        t.push_row(vec![tr.to_string(), c.to_string(), "yes".to_string()]);
    }
    let mut unexpected = 0;
    for (&tr, &c) in &counts {
        if !EXPECTED_TRANSITIONS.contains(&tr) {
            unexpected += 1;
            t.push_row(vec![tr.to_string(), c.to_string(), "NO (bug!)".to_string()]);
        }
    }
    t.push_note(format!(
        "diagram coverage: every expected transition observed = {all_expected_seen}; transitions outside the diagram = {unexpected}"
    ));
    assert_eq!(unexpected, 0, "observed a transition outside Figure 1");
}

/// A1 — ablation: path compression on releases/probe replies, on the
/// staged find-heavy reduction workload where pointer chains get deep.
pub(crate) fn a1_path_compression(quick: bool, t: &mut Table) {
    t.set_header(&["sets n", "N", "config", "search+release msgs", "total msgs", "msgs/N"]);
    let sizes: &[usize] = if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    for &n in sizes {
        let seq = OpSequence::adversarial_deep(n, n / 2);
        for (name, config) in [
            ("paper", Config::paper()),
            ("no compression", Config::without_path_compression()),
        ] {
            let out = uf_reduction::run_with_config(&seq, config);
            t.push_row(vec![
                n.to_string(),
                out.network_size.to_string(),
                name.to_string(),
                out.metrics.messages_of(&["search", "release"]).to_string(),
                out.messages.to_string(),
                format!("{:.2}", out.messages as f64 / out.network_size as f64),
            ]);
        }
    }
    t.push_note("with compression msgs/N stays flat (O(α) amortized); without it searches retrace ever-deeper pointer chains and msgs/N grows with n");
}

/// A2 — ablation: balanced queries (`|more|+|done|+1` vs fetch-everything),
/// on complete graphs where Lemma 5.10's invariant is load-bearing.
pub(crate) fn a2_balanced_queries(quick: bool, t: &mut Table) {
    t.set_header(&["n", "|E0|", "config", "info bits", "max single info", "Lemma 5.10", "total bits"]);
    let sizes: &[usize] = if quick { &[48, 96] } else { &[64, 128, 256] };
    for &n in sizes {
        let graph = gen::complete(n);
        for (name, config) in [
            ("paper", Config::paper()),
            ("fetch all", Config::without_balanced_queries()),
        ] {
            let mut d = Discovery::with_config(&graph, Variant::Oblivious, config);
            d.run_all(&mut RandomScheduler::seeded(21 + n as u64))
                .expect("run livelocked");
            d.check_requirements(&graph).expect("requirements violated");
            let m = d.runner().metrics();
            let info = m.kind("info");
            let verdict = match budgets::check_lemma_5_10(m, n as u64) {
                Ok(()) => "holds",
                Err(_) => "VIOLATED",
            };
            t.push_row(vec![
                n.to_string(),
                graph.edge_count().to_string(),
                name.to_string(),
                info.bits.to_string(),
                info.max_bits.to_string(),
                verdict.to_string(),
                m.total_bits().to_string(),
            ]);
        }
    }
    t.push_note("fetch-all drains whole local sets into unbounded unexplored sets, which conquered leaders then re-ship: info bits break the 4n·log²n budget (and grow ~quadratically), exactly what the balanced rule prevents");
}

/// A3 — ablation: union-find policy variants (context for the Theorem 2/6
/// connection).
pub(crate) fn a3_union_find_variants(quick: bool, t: &mut Table) {
    t.set_header(&["n", "policy", "pointer traversals", "traversals/op"]);
    let sizes: &[usize] = if quick {
        &[1 << 10]
    } else {
        &[1 << 10, 1 << 12, 1 << 14]
    };
    for &n in sizes {
        let seq = OpSequence::adversarial_deep(n, n / 4);
        let ops = seq.len() as f64;
        let policies = [
            ("rank+compress", UnionPolicy::ByRank, Compression::Full),
            ("size+compress", UnionPolicy::BySize, Compression::Full),
            ("rank+halving", UnionPolicy::ByRank, Compression::Halving),
            ("rank only", UnionPolicy::ByRank, Compression::Off),
            ("compress only", UnionPolicy::Naive, Compression::Full),
            ("naive", UnionPolicy::Naive, Compression::Off),
        ];
        for (name, up, cp) in policies {
            let mut uf = UnionFind::with_policies(seq.n(), up, cp);
            seq.run(&mut uf);
            t.push_row(vec![
                seq.n().to_string(),
                name.to_string(),
                uf.traversals().to_string(),
                format!("{:.2}", uf.traversals() as f64 / ops),
            ]);
        }
    }
    t.push_note("rank+compression achieves O(α) amortized — the data-structure twin of the Ad-hoc algorithm's message bound; naive policies degrade toward the log/linear regimes");
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_table_renders_in_quick_mode() {
        let mut quick = String::new();
        for table in crate::all_tables(true) {
            let s = table.render();
            assert!(s.contains(&table.id.to_uppercase()), "{}", table.id);
            assert!(!table.rows.is_empty(), "{} has no rows", table.id);
            quick.push_str(&format!("{table}\n"));
        }
        // What `tables --quick` prints, pinned byte for byte.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/snapshots/tables-quick.snapshot");
        if std::env::var_os("ARD_UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
            std::fs::write(&path, &quick).expect("snapshot is writable");
            return;
        }
        let pinned = std::fs::read_to_string(&path).expect("snapshot exists");
        assert!(
            pinned == quick,
            "`tables --quick` diverged from tests/snapshots/tables-quick.snapshot; if \
             intentional, regenerate with `ARD_UPDATE_SNAPSHOTS=1 cargo test -p ard-bench \
             every_table` and review the diff\n--- pinned\n{pinned}--- actual\n{quick}"
        );
    }

    #[test]
    fn table_lookup_by_id() {
        assert_eq!(crate::table_by_id("e5", true).unwrap().id, "e5");
        assert_eq!(crate::table_by_id("F1", true).unwrap().id, "f1");
        assert!(crate::table_by_id("zz", true).is_none());
    }

    /// `--jobs N` must be a pure wall-clock knob: the sweep tables render
    /// byte-identically at any worker count.
    #[test]
    fn sweep_tables_are_identical_across_job_counts() {
        let before = crate::parallel::jobs();
        crate::parallel::set_jobs(1);
        let sequential = crate::table_by_id("e1", true).unwrap().render();
        crate::parallel::set_jobs(4);
        let parallelized = crate::table_by_id("e1", true).unwrap().render();
        crate::parallel::set_jobs(before);
        assert_eq!(sequential, parallelized);
    }
}
