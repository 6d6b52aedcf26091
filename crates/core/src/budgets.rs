//! The paper's per-message-type budgets (Lemmas 5.5–5.10) and total
//! complexity theorems (5, 6 and 7), stated once as a table.
//!
//! [`table`] turns the [`Metrics`] of a finished run plus the instance
//! parameters into ordered [`Row`]s — claim, measured count, analytic bound
//! — and is the **single statement** of every constant: the checks below,
//! the driver's per-layer check and the E4/E7 tables of `ard-bench` all read
//! its rows. The lemma bounds carry the paper's own constants; the
//! asymptotic theorems use explicit constants, documented at [`table`], that
//! every topology and scheduler in the test suite satisfies with headroom —
//! breaking one in a refactor means the implementation regressed
//! asymptotically.
//!
//! A run that is not the paper's honest fault-free one passes a [`Netting`]:
//! the traffic its meters hold beyond the protocol's own (forged messages,
//! retransmissions and acks, per-message sequence numbers), which the table
//! nets out before a bound applies. [`check_all`], [`check_all_faulty`] and
//! `check_all_byzantine` differ in nothing but the netting they pass.
//!
//! Bit rows add the simulator's fixed per-message overhead (kind tag plus
//! non-id payload; see [`Message`]) on top of the paper's id-only
//! accounting, and report it as the row's [`slack`](Row::slack).

use ard_netsim::{ByzantineCounts, Metrics, KIND_TAG_BITS};
use ard_union_find::alpha;

use crate::reliable::SEQ_BITS;
use crate::{Message, Variant};

fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// Kinds emitted by the reliable-delivery envelope ([`crate::Reliable`])
/// that are pure fault-recovery overhead: retransmissions of already-metered
/// logical messages and acknowledgements. [`Netting::RELIABLE`] subtracts
/// them before the paper's fault-free complexity theorems apply.
pub(crate) const OVERHEAD_KINDS: [&str; 2] = ["retransmit", "rd-ack"];

/// What a run's meters hold beyond the honest protocol's own traffic, to be
/// netted out before the paper's bounds apply. The parts are independent
/// and compose: a forged-into run on the reliable layer would set them all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Netting {
    /// The adversary's counters; `Some` for every run judged over its
    /// survivors, even one nothing was forged into. Forged messages are
    /// delivered and metered under their payload's kind — a receiver cannot
    /// tell a lie from the real thing — so every count row gets `forged`
    /// messages of slack (each forged message lands in exactly one kind),
    /// every bit row `forged_bits`, and the theorems bound the totals minus
    /// both. The paper's literal `2n` of Lemma 5.7 is not asserted of such
    /// a run.
    pub adversary: Option<ByzantineCounts>,
    /// Kinds that are pure delivery-layer overhead, subtracted from the
    /// totals the theorems bound. Their volume is unbounded in the fault
    /// rate (a drop probability close to 1 forces arbitrarily many
    /// retransmissions), which is why it is subtracted rather than absorbed
    /// into a constant.
    pub overhead_kinds: &'static [&'static str],
    /// Bits the delivery layer adds to every protocol message: allowed per
    /// message on the bit rows, subtracted per message from the bit total.
    pub envelope_bits: u64,
}

impl Netting {
    /// The paper's own setting: every metered message is the protocol's.
    pub const NONE: Netting = Netting { adversary: None, overhead_kinds: &[], envelope_bits: 0 };

    /// Traffic metered on the [`crate::Reliable`] layer: a first
    /// transmission keeps its logical kind and gains a sequence number;
    /// retransmissions and acks are metered under [`OVERHEAD_KINDS`].
    pub(crate) const RELIABLE: Netting =
        Netting { overhead_kinds: &OVERHEAD_KINDS, envelope_bits: SEQ_BITS, ..Netting::NONE };

    /// A run of the bare protocol under the adversary whose counters
    /// ([`Metrics::byzantine`]) are `counts`.
    pub(crate) const fn forgery(counts: ByzantineCounts) -> Netting {
        Netting { adversary: Some(counts), ..Netting::NONE }
    }

    /// How the theorem rows name a run whose totals are net figures.
    fn run(&self) -> Option<&'static str> {
        match self.adversary {
            Some(_) => Some("Byzantine run, "),
            None if *self != Netting::NONE => Some("faulty run, "),
            None => None,
        }
    }
}

/// One budget of the [`table`]: a claim of the paper held against a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The lemma or theorem, e.g. `"Lemma 5.7"`.
    pub claim: &'static str,
    /// What is counted, e.g. `"query replies"`.
    pub what: &'static str,
    /// The run's count, net of whatever the netting subtracts.
    pub measured: u64,
    /// What `measured` may not exceed.
    pub bound: u64,
    /// The part of `bound` that is accounting rather than the paper's
    /// formula — the fixed per-message bits of a bit row, the forged traffic
    /// allowed — so `bound - slack` is the paper's own bound and, on a bit
    /// row of an honest run, `measured - slack` the id-bits sent.
    pub slack: u64,
    /// How a violation cites the claim, between its parentheses: the kind
    /// of run (netted theorem rows only), the claim, a qualifier.
    cite: [&'static str; 3],
}

impl Row {
    /// Holds the row.
    ///
    /// # Errors
    ///
    /// Names the count, the claim, the measured value and the bound.
    pub fn check(&self) -> Result<(), String> {
        if self.measured <= self.bound {
            return Ok(());
        }
        let [run, claim, qualifier] = self.cite;
        Err(format!(
            "{} ({run}{claim}{qualifier}): measured {} exceeds bound {}",
            self.what, self.measured, self.bound
        ))
    }
}

/// The budget table of one finished run: every per-kind lemma, then the
/// total-message theorem that governs `variant`, then Theorem 7.
///
/// The constants, once:
///
/// * **Lemma 5.5** — at most `4n` query / query-reply *pairs*, so `4n`
///   messages of each of the two kinds.
/// * **Lemma 5.6** — `O(n·α(n,n))` search and release messages; constant
///   `16` per find-operation equivalent (the paper's simulation performs at
///   most `3n` union-find operations; `16·n·(α+1)` holds every measured run
///   with ≥2× headroom).
/// * **Lemma 5.7** — the paper claims at most `2n` merge-accept +
///   merge-fail + info messages, assuming each node sends `release`-merge
///   at most once. Figure 1, however, allows `passive → conquered`
///   re-surrender after a merge fail, so a node can surrender repeatedly;
///   the tight form is `accepts + infos ≤ 2(n−1)` (one pair per successful
///   merge) plus `fails ≤ n` (one per dead search origin), i.e. `3n − 2` in
///   total. Two rows: the paper's `2n` for the accept/info pairs, and `3n`
///   overall. (Recorded as a reproduction finding in EXPERIMENTS.md.)
/// * **Lemma 5.8** — at most `2n log n` conquer + more/done messages for
///   the generic algorithm, `2n` for Bounded, none for Ad-hoc.
/// * **Lemma 5.9** — query replies carry at most `2·|E₀|` ids, i.e.
///   `2·|E₀|·log n` id-bits.
/// * **Lemma 5.10** — info messages carry at most `4n log n` ids, i.e.
///   `4n log² n` id-bits.
/// * **Theorem 5** — the generic algorithm sends `O(n log n)` messages;
///   constant `24·n·(⌈log n⌉ + 1)`, the sum of the per-kind lemma bounds
///   with headroom.
/// * **Theorem 6** — Bounded and Ad-hoc send `O(n·α(n,n))` messages;
///   constant `32·n·(α+1)`.
/// * **Theorem 7** — total bits are `O(|E₀| log n + n log² n)`; constant
///   `8·(|E₀|·⌈log n⌉ + (n+1)·⌈log n⌉²) + 64·n·⌈log n⌉`, plus an additive
///   `96·(n + 4)` covering the simulator's fixed per-message overheads,
///   which dominate only at very small `n`.
///
/// What `net` deliberately does **not** excuse is the honest traffic an
/// adversary's lies provoke: spurious searches toward fabricated ids, extra
/// merge rounds, re-conquests after a stale restart. If the adversary can
/// make *honest* nodes overspend the paper's budgets, the budget guarantee
/// has degraded — and the guarantee-survival matrix reports exactly that.
pub fn table(metrics: &Metrics, n: u64, e0: u64, variant: Variant, net: &Netting) -> Vec<Row> {
    let b = metrics.id_bits();
    let log_n = log2_ceil(n);
    let n_alpha = n * (alpha(n.max(1), n.max(1)) + 1);
    let forged = net.adversary.unwrap_or_default();
    let qualified = |note| if net.adversary.is_some() { ", net of forgery" } else { note };
    let count = |claim, what, note, kinds: &[&str], paper: u64| Row {
        claim,
        what,
        measured: metrics.messages_of(kinds),
        bound: paper + forged.forged,
        slack: forged.forged,
        cite: ["", claim, qualified(note)],
    };
    let bits = |claim, what, kind, aux_bits: u64, paper: u64| {
        let sent = metrics.kind(kind);
        let slack = sent.messages * (aux_bits + KIND_TAG_BITS + net.envelope_bits) + forged.forged_bits;
        Row { claim, what, measured: sent.bits, bound: paper + slack, slack, cite: ["", claim, qualified("")] }
    };
    // A net total says so, names the run and cites both message theorems.
    let total = |claim, [gross, netted]: [&'static str; 2], cited, measured, bound| match net.run() {
        Some(run) => Row { claim, what: netted, measured, bound, slack: 0, cite: [run, cited, ""] },
        None => Row { claim, what: gross, measured, bound, slack: 0, cite: ["", claim, ""] },
    };

    let pairs = 4 * n;
    let conquests = match variant {
        Variant::Oblivious => 2 * n * log_n,
        Variant::Bounded => 2 * n,
        Variant::AdHoc => 0,
    };
    let (message_theorem, message_bound) = match variant {
        Variant::Oblivious => ("Theorem 5", 24 * n * (log_n + 1)),
        Variant::Bounded | Variant::AdHoc => ("Theorem 6", 32 * n_alpha),
    };
    let net_messages = metrics
        .total_messages()
        .saturating_sub(metrics.messages_of(net.overhead_kinds) + forged.forged);
    let net_bits = metrics.total_bits().saturating_sub(
        metrics.bits_of(net.overhead_kinds) + forged.forged_bits + net.envelope_bits * net_messages,
    );
    let bit_bound = 8 * (e0 * b + (n + 1) * b * b) + 64 * n * b + 96 * (n + 4);

    let mut rows = Vec::with_capacity(10);
    rows.extend([
        count("Lemma 5.5", "query messages", "", &["query"], pairs),
        count("Lemma 5.5", "query replies", "", &["query reply"], pairs),
        count("Lemma 5.6", "search+release messages", "", &["search", "release"], 16 * n_alpha),
    ]);
    if net.adversary.is_none() {
        rows.push(count("Lemma 5.7", "merge accept + info", ", paper's core claim", &["merge accept", "info"], 2 * n));
    }
    rows.extend([
        count("Lemma 5.7", "merge accept/fail + info", ", corrected", &["merge accept", "merge fail", "info"], 3 * n),
        count("Lemma 5.8", "conquer + more/done", "", &["conquer", "more/done"], conquests),
        bits("Lemma 5.9", "query reply bits", "query reply", Message::QUERY_REPLY_AUX_BITS, 2 * e0 * b),
        bits("Lemma 5.10", "info bits", "info", Message::INFO_AUX_BITS, 4 * n * b * b),
        total(message_theorem, ["total messages", "net messages"], "Theorems 5/6", net_messages, message_bound),
        total("Theorem 7", ["total bits", "net bits"], "Theorem 7", net_bits, bit_bound),
    ]);
    rows
}

/// Holds a run to its whole [`table`] under `net`.
///
/// # Errors
///
/// Returns the first row, in table order, with `measured > bound`.
pub(crate) fn check(metrics: &Metrics, n: u64, e0: u64, variant: Variant, net: &Netting) -> Result<(), String> {
    table(metrics, n, e0, variant, net).iter().try_for_each(Row::check)
}

/// Every per-kind lemma plus the matching total-complexity theorem for one
/// finished honest fault-free run: `check` under [`Netting::NONE`].
///
/// # Errors
///
/// Propagates the first violated bound.
pub fn check_all(metrics: &Metrics, n: u64, e0: u64, variant: Variant) -> Result<(), String> {
    check(metrics, n, e0, variant, &Netting::NONE)
}

/// [`check_all`] for a run under fault injection with the reliable-delivery
/// envelope ([`crate::Reliable`]): `check` under `Netting::RELIABLE`.
/// The per-kind count lemmas apply unchanged, the bit lemmas allow the
/// sequence number on every message, and the theorems bound the **net**
/// totals.
///
/// # Errors
///
/// Propagates the first violated bound.
pub fn check_all_faulty(metrics: &Metrics, n: u64, e0: u64, variant: Variant) -> Result<(), String> {
    check(metrics, n, e0, variant, &Netting::RELIABLE)
}

/// [`check_all`] for a run under Byzantine fault injection (a network
/// hardened with [`crate::Config::byzantine`]): [`check`] under
/// [`Netting::forgery`] of the run's own [`Metrics::byzantine`] counters.
///
/// # Errors
///
/// Propagates the first violated bound.
pub(crate) fn check_all_byzantine(metrics: &Metrics, n: u64, e0: u64, variant: Variant) -> Result<(), String> {
    check(metrics, n, e0, variant, &Netting::forgery(metrics.byzantine()))
}

/// One claim's rows of the honest [`table`]. A claim reads only the
/// instance parameters its formula names, so the `check_*` below pass zero,
/// or any variant the claim governs, for the ones theirs does not.
fn check_claim(claim: &str, metrics: &Metrics, n: u64, e0: u64, variant: Variant) -> Result<(), String> {
    let rows = table(metrics, n, e0, variant, &Netting::NONE);
    rows.iter().filter(|row| row.claim == claim).try_for_each(Row::check)
}

/// Lemma 5.10 alone.
pub fn check_lemma_5_10(metrics: &Metrics, n: u64) -> Result<(), String> {
    check_claim("Lemma 5.10", metrics, n, 0, Variant::Oblivious)
}

/// Theorem 5 alone.
pub fn check_theorem_5(metrics: &Metrics, n: u64) -> Result<(), String> {
    check_claim("Theorem 5", metrics, n, 0, Variant::Oblivious)
}

/// Theorem 6 alone.
pub fn check_theorem_6(metrics: &Metrics, n: u64) -> Result<(), String> {
    check_claim("Theorem 6", metrics, n, 0, Variant::Bounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discovery, Variant};
    use ard_graph::gen;
    use ard_netsim::RandomScheduler;

    fn run(n: usize, extra: usize, variant: Variant, seed: u64) -> (Metrics, u64, u64) {
        let graph = gen::random_weakly_connected(n, extra, seed);
        let mut d = Discovery::new(&graph, variant);
        let outcome = d
            .run_all(&mut RandomScheduler::seeded(seed ^ 0xabc))
            .unwrap();
        d.check_requirements(&graph).unwrap();
        (outcome.metrics, n as u64, graph.edge_count() as u64)
    }

    #[test]
    fn budgets_hold_on_random_graphs() {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            for seed in 0..6 {
                let (m, n, e0) = run(48, 120, variant, seed);
                check_all(&m, n, e0, variant)
                    .unwrap_or_else(|e| panic!("{variant} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn budgets_hold_on_trees_and_stars() {
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            for graph in [
                gen::binary_tree_down(5),
                gen::star_in(31),
                gen::star_out(31),
            ] {
                let mut d = Discovery::new(&graph, variant);
                let outcome = d.run_all(&mut RandomScheduler::seeded(1)).unwrap();
                d.check_requirements(&graph).unwrap();
                check_all(
                    &outcome.metrics,
                    graph.len() as u64,
                    graph.edge_count() as u64,
                    variant,
                )
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            }
        }
    }

    #[test]
    fn adhoc_sends_no_conquers() {
        let (m, n, _) = run(32, 64, Variant::AdHoc, 3);
        check_claim("Lemma 5.8", &m, n, 0, Variant::AdHoc).unwrap();
        assert_eq!(m.kind("conquer").messages, 0);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    /// `(kind, count, ids, aux)`: `count` messages of `kind`, every one
    /// carrying `ids` ids and `aux` aux bits.
    type Sends = [(&'static str, u64, usize, u64)];

    /// `id_bits = 8` metrics holding the listed sends.
    fn crafted(sends: &Sends) -> Metrics {
        let mut m = Metrics::new(8);
        for &(kind, count, ids, aux) in sends {
            for _ in 0..count {
                m.record(kind, ids, aux);
            }
        }
        m
    }

    /// The instance every crafted case is held to: `α(4,4) = 1`, `⌈log 4⌉ =
    /// 2`, so Lemma 5.6 allows 128, Theorem 5 288, Theorem 6 256 messages
    /// and Theorem 7 5568 bits.
    const N: u64 = 4;
    const E0: u64 = 3;

    const QR: u64 = Message::QUERY_REPLY_AUX_BITS;
    const INFO: u64 = Message::INFO_AUX_BITS;
    const FORGED: Netting = Netting::forgery(ByzantineCounts {
        forged: 3,
        forged_bits: 100,
        forge_noops: 0,
        silenced: 0,
        stale_restarts: 0,
        joins: 0,
        leaves: 0,
        leave_discards: 0,
    });

    /// One case per row and netting: the sends sit exactly on the row's
    /// bound and pass; one more message of the first kind (same ids and aux
    /// bits) is reported, by that row, with this exact text.
    #[test]
    fn every_row_reports_one_over_its_bound_under_every_netting() {
        use Variant::{AdHoc, Bounded, Oblivious};
        let none = Netting::NONE;
        let reliable = Netting::RELIABLE;
        let cases: &[(Netting, Variant, &Sends, &str)] = &[
            (none, Oblivious, &[("query", 16, 0, 0)], "query messages (Lemma 5.5): measured 17 exceeds bound 16"),
            (none, Oblivious, &[("query reply", 16, 0, QR)], "query replies (Lemma 5.5): measured 17 exceeds bound 16"),
            (none, Oblivious, &[("search", 100, 0, 0), ("release", 28, 0, 0)], "search+release messages (Lemma 5.6): measured 129 exceeds bound 128"),
            (none, Oblivious, &[("info", 5, 0, INFO), ("merge accept", 3, 0, 0), ("merge fail", 4, 0, 0)], "merge accept + info (Lemma 5.7, paper's core claim): measured 9 exceeds bound 8"),
            (none, Oblivious, &[("merge fail", 4, 0, 0), ("merge accept", 8, 0, 0)], "merge accept/fail + info (Lemma 5.7, corrected): measured 13 exceeds bound 12"),
            (none, Oblivious, &[("conquer", 10, 0, 0), ("more/done", 6, 0, 0)], "conquer + more/done (Lemma 5.8): measured 17 exceeds bound 16"),
            (none, Bounded, &[("more/done", 8, 0, 0)], "conquer + more/done (Lemma 5.8): measured 9 exceeds bound 8"),
            (none, AdHoc, &[("conquer", 0, 0, 0)], "conquer + more/done (Lemma 5.8): measured 1 exceeds bound 0"),
            // 2·|E0| = 6 ids, 4n·b = 128 ids: the seventh and 129th tip it.
            (none, Oblivious, &[("query reply", 6, 1, QR)], "query reply bits (Lemma 5.9): measured 315 exceeds bound 307"),
            (none, Oblivious, &[("info", 4, 32, INFO)], "info bits (Lemma 5.10): measured 1980 exceeds bound 1724"),
            (none, Oblivious, &[("probe", 288, 0, 0)], "total messages (Theorem 5): measured 289 exceeds bound 288"),
            (none, Bounded, &[("probe", 256, 0, 0)], "total messages (Theorem 6): measured 257 exceeds bound 256"),
            (none, AdHoc, &[("probe", 256, 0, 0)], "total messages (Theorem 6): measured 257 exceeds bound 256"),
            (none, Oblivious, &[("probe", 1, 0, 0), ("probe reply", 1, 695, 0)], "total bits (Theorem 7): measured 5572 exceeds bound 5568"),
            // The reliable layer: count rows as before; 32 more bits allowed
            // per message on the bit rows; overhead kinds and sequence
            // numbers subtracted from the totals.
            (reliable, Oblivious, &[("query", 16, 0, 32), ("retransmit", 50, 0, 32)], "query messages (Lemma 5.5): measured 17 exceeds bound 16"),
            (reliable, Oblivious, &[("merge accept", 8, 0, 32)], "merge accept + info (Lemma 5.7, paper's core claim): measured 9 exceeds bound 8"),
            (reliable, Oblivious, &[("query reply", 6, 1, QR + 32)], "query reply bits (Lemma 5.9): measured 539 exceeds bound 531"),
            (reliable, Oblivious, &[("info", 4, 32, INFO + 32)], "info bits (Lemma 5.10): measured 2140 exceeds bound 1884"),
            (reliable, Oblivious, &[("probe", 288, 0, 32), ("retransmit", 500, 9, 32), ("rd-ack", 900, 0, 32)], "net messages (faulty run, Theorems 5/6): measured 289 exceeds bound 288"),
            (reliable, Bounded, &[("probe", 256, 0, 32), ("rd-ack", 256, 0, 32)], "net messages (faulty run, Theorems 5/6): measured 257 exceeds bound 256"),
            (reliable, Oblivious, &[("probe", 1, 0, 32), ("probe reply", 1, 695, 32), ("retransmit", 3, 695, 32), ("rd-ack", 7, 0, 32)], "net bits (faulty run, Theorem 7): measured 5572 exceeds bound 5568"),
            // Three forged messages of 100 bits: three more messages on
            // every count row, 100 more bits on every bit row, both off the
            // totals — and no literal 2n for Lemma 5.7.
            (FORGED, Oblivious, &[("query", 19, 0, 0)], "query messages (Lemma 5.5, net of forgery): measured 20 exceeds bound 19"),
            (FORGED, Oblivious, &[("query reply", 19, 0, QR)], "query replies (Lemma 5.5, net of forgery): measured 20 exceeds bound 19"),
            (FORGED, Oblivious, &[("release", 131, 0, 0)], "search+release messages (Lemma 5.6, net of forgery): measured 132 exceeds bound 131"),
            (FORGED, Oblivious, &[("merge accept", 15, 0, 0)], "merge accept/fail + info (Lemma 5.7, net of forgery): measured 16 exceeds bound 15"),
            (FORGED, AdHoc, &[("conquer", 3, 0, 0)], "conquer + more/done (Lemma 5.8, net of forgery): measured 4 exceeds bound 3"),
            (FORGED, Oblivious, &[("query reply", 1, 0, QR + 8), ("query reply", 1, 17, QR + 4), ("query reply", 1, 0, QR)], "query reply bits (Lemma 5.9, net of forgery): measured 304 exceeds bound 296"),
            (FORGED, Oblivious, &[("info", 1, 0, INFO + 8), ("info", 1, 139, INFO + 4), ("info", 1, 0, INFO)], "info bits (Lemma 5.10, net of forgery): measured 1692 exceeds bound 1684"),
            (FORGED, Oblivious, &[("probe", 291, 0, 0)], "net messages (Byzantine run, Theorems 5/6): measured 289 exceeds bound 288"),
            (FORGED, AdHoc, &[("probe", 259, 0, 0)], "net messages (Byzantine run, Theorems 5/6): measured 257 exceeds bound 256"),
            (FORGED, Oblivious, &[("probe", 1, 0, 0), ("probe reply", 1, 707, 4)], "net bits (Byzantine run, Theorem 7): measured 5572 exceeds bound 5568"),
        ];
        for &(net, variant, sends, complaint) in cases {
            let at_bound = crafted(sends);
            assert_eq!(check(&at_bound, N, E0, variant, &net), Ok(()), "at the bound of: {complaint}");
            let (kind, _, ids, aux) = sends[0];
            let mut over = at_bound;
            over.record(kind, ids, aux);
            assert_eq!(check(&over, N, E0, variant, &net), Err(complaint.to_string()));
        }
    }

    /// Both nettings at once — what a forged-into run on the reliable
    /// layer would pass — net out the sum of what each nets out alone.
    #[test]
    fn nettings_compose() {
        let both = Netting { adversary: FORGED.adversary, ..Netting::RELIABLE };
        let m = crafted(&[
            ("probe", 290, 0, 32),
            ("query reply", 1, 2, QR + 32),
            ("retransmit", 40, 2, 32),
            ("rd-ack", 300, 0, 32),
        ]);
        let rows = table(&m, N, E0, Variant::Oblivious, &both);
        assert_eq!(rows.len(), 9, "no literal 2n under forgery");
        let [.., qreply, _, messages, bits] = rows[..] else { unreachable!() };
        assert_eq!((qreply.claim, qreply.slack), ("Lemma 5.9", QR + KIND_TAG_BITS + 32 + 100));
        assert_eq!(qreply.measured - (qreply.slack - 100), 2 * 8, "two ids sent");
        assert_eq!((messages.measured, messages.bound), (288, 288));
        let own_bits = m.total_bits() - m.bits_of(&OVERHEAD_KINDS);
        assert_eq!(bits.measured, own_bits - 100 - 32 * 288);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const KINDS: [&str; 13] = [
            "query", "query reply", "search", "release", "merge accept", "merge fail", "info",
            "conquer", "more/done", "probe", "probe reply", "retransmit", "rd-ack",
        ];

        fn first_violation(rows: &[Row]) -> Result<(), String> {
            rows.iter().find(|r| r.measured > r.bound).map_or(Ok(()), Row::check)
        }

        proptest! {
            /// Each `check_all*` is "the first violating row of the table
            /// under its netting", and each single-claim check "the first
            /// violating row of that claim" whatever the parameters the
            /// claim does not read.
            #[test]
            fn checks_report_the_first_violating_row(
                counts in proptest::collection::vec((0u64..48, 0usize..6, 0u64..160), KINDS.len()),
                n in 1u64..12,
                e0 in 0u64..40,
                variant in prop_oneof![Just(Variant::Oblivious), Just(Variant::Bounded), Just(Variant::AdHoc)],
            ) {
                let sends: Vec<_> = KINDS.iter().zip(&counts).map(|(&k, &(c, ids, aux))| (k, c, ids, aux)).collect();
                let m = crafted(&sends);
                let honest = table(&m, n, e0, variant, &Netting::NONE);
                prop_assert_eq!(check_all(&m, n, e0, variant), first_violation(&honest));
                let faulty = table(&m, n, e0, variant, &Netting::RELIABLE);
                prop_assert_eq!(check_all_faulty(&m, n, e0, variant), first_violation(&faulty));
                let byzantine = table(&m, n, e0, variant, &Netting::forgery(m.byzantine()));
                prop_assert_eq!(check_all_byzantine(&m, n, e0, variant), first_violation(&byzantine));

                let of = |claim: &str| -> Vec<Row> {
                    honest.iter().filter(|r| r.claim == claim).copied().collect()
                };
                prop_assert_eq!(check_lemma_5_10(&m, n), first_violation(&of("Lemma 5.10")));
                let messages = |claim| table(&m, n, e0, claim, &Netting::NONE)[8];
                prop_assert_eq!(check_theorem_5(&m, n), messages(Variant::Oblivious).check());
                prop_assert_eq!(check_theorem_6(&m, n), messages(Variant::AdHoc).check());
            }
        }
    }
}
