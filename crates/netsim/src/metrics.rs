use std::fmt;

use crate::scheduler::Kind;

/// Message and bit counters for one message kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Number of messages of this kind sent.
    pub messages: u64,
    /// Total bits of all messages of this kind.
    pub bits: u64,
    /// Size of the largest single message of this kind, in bits.
    pub max_bits: u64,
}

/// Per-fault counters of a run under fault injection.
///
/// All zeros for a fault-free run; [`Metrics`]' `Display` only prints the
/// fault line when at least one counter is nonzero, so fault-free output is
/// byte-identical to builds without fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped by an injected link fault.
    pub drops: u64,
    /// Messages duplicated by an injected link fault.
    pub duplicates: u64,
    /// Node crash events executed.
    pub crashes: u64,
    /// Node restart events executed.
    pub restarts: u64,
    /// Timer ticks fired on live nodes.
    pub ticks: u64,
    /// Events (deliveries, wake-ups, ticks) discarded because the target
    /// node was crashed.
    pub crash_discards: u64,
}

impl FaultCounts {
    /// Whether any fault was observed.
    pub fn any(&self) -> bool {
        self.drops != 0
            || self.duplicates != 0
            || self.crashes != 0
            || self.restarts != 0
            || self.ticks != 0
            || self.crash_discards != 0
    }
}

/// Byzantine-behaviour and churn counters of a run under a
/// [`ByzantinePlan`](crate::fault::ByzantinePlan) /
/// [`ChurnPlan`](crate::fault::ChurnPlan).
///
/// All zeros without such a plan; like [`FaultCounts`], `Display` only
/// prints the line when at least one counter is nonzero, so benign output
/// stays byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByzantineCounts {
    /// Messages forged by Byzantine nodes (and accepted by the protocol's
    /// `forge` hook).
    pub forged: u64,
    /// Total bits of forged messages (also charged to the per-kind meters;
    /// budget checks net them out via this counter).
    pub forged_bits: u64,
    /// Forge choices the protocol declined (`forge` returned `None`).
    pub forge_noops: u64,
    /// Messages silently withheld by their Byzantine sender.
    pub silenced: u64,
    /// Stale (amnesiac) restarts executed.
    pub stale_restarts: u64,
    /// Churn joins executed.
    pub joins: u64,
    /// Churn leaves executed.
    pub leaves: u64,
    /// Events discarded because their target had left the network.
    pub leave_discards: u64,
}

impl ByzantineCounts {
    /// Whether any Byzantine/churn event was observed.
    pub fn any(&self) -> bool {
        self.forged != 0
            || self.forge_noops != 0
            || self.silenced != 0
            || self.stale_restarts != 0
            || self.joins != 0
            || self.leaves != 0
            || self.leave_discards != 0
    }
}

/// Accumulated communication cost of a simulation run.
///
/// Costs are charged at *send* time (the paper counts messages sent; in a
/// reliable network every sent message is eventually delivered, and the
/// simulator's quiescence condition guarantees that before reporting).
///
/// Bit accounting follows the paper: each id costs `id_bits = ⌈log₂ n⌉`
/// bits, and each message additionally pays its non-id payload plus a
/// constant kind tag (see [`Envelope`](crate::Envelope)).
///
/// # Example
///
/// ```
/// use ard_netsim::Metrics;
///
/// let mut m = Metrics::new(10); // ids are 10 bits wide
/// m.record("search", 2, 5);     // 2 ids + 5 aux bits
/// m.record("search", 1, 5);
/// assert_eq!(m.total_messages(), 2);
/// assert_eq!(m.kind("search").messages, 2);
/// // 2*10+5+4 plus 1*10+5+4
/// assert_eq!(m.total_bits(), 29 + 19);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    id_bits: u64,
    // Few kinds (one per message variant), recorded once per send: a short
    // vector scanned by pointer equality beats a string-keyed map. Kept
    // sorted by kind name so read-side iteration is in kind order.
    per_kind: Vec<(&'static str, KindCounts)>,
    /// Events executed, per [`Kind`]: wake-ups, deliveries and every fault,
    /// Byzantine and churn event, behind the accessors' named fields.
    executed: [u64; Kind::TABLE.len()],
    max_causal_depth: u64,
    max_link_queue: usize,
    /// Events discarded because their target node was crashed.
    crash_discards: u64,
    /// Events discarded because their target node had left.
    leave_discards: u64,
    forged_bits: u64,
    forge_noops: u64,
}

impl Metrics {
    /// Creates an empty meter where each id costs `id_bits` bits.
    pub fn new(id_bits: u64) -> Self {
        Metrics {
            id_bits,
            ..Metrics::default()
        }
    }

    /// The configured width of one id, in bits.
    pub fn id_bits(&self) -> u64 {
        self.id_bits
    }

    /// Records the send of one message of `kind` carrying `ids` node ids and
    /// `aux_bits` bits of non-id payload.
    pub fn record(&mut self, kind: &'static str, ids: usize, aux_bits: u64) {
        let bits = ids as u64 * self.id_bits + aux_bits + crate::envelope::KIND_TAG_BITS;
        // Kind names are interned literals, so pointer equality identifies a
        // seen kind without comparing string contents.
        if let Some((_, entry)) = self
            .per_kind
            .iter_mut()
            .find(|&&mut (k, _)| std::ptr::eq(k, kind))
        {
            entry.messages += 1;
            entry.bits += bits;
            entry.max_bits = entry.max_bits.max(bits);
            return;
        }
        self.record_new_kind(kind, bits);
    }

    /// Slow path of [`record`](Metrics::record): first send of a kind (or a
    /// differently-interned copy of a seen kind name).
    fn record_new_kind(&mut self, kind: &'static str, bits: u64) {
        let at = match self.per_kind.binary_search_by_key(&kind, |&(k, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.per_kind.insert(at, (kind, KindCounts::default()));
                at
            }
        };
        let entry = &mut self.per_kind[at].1;
        entry.messages += 1;
        entry.bits += bits;
        entry.max_bits = entry.max_bits.max(bits);
    }

    /// Mixes every counter into `d`. Metrics are part of the explorer's
    /// canonical state digest because violation checks read them (budget
    /// lemmas, fault-aware budgets): two branches only dedup as equivalent
    /// if they agree on state *and* on everything the checks can observe.
    pub(crate) fn digest_into(&self, d: &mut crate::scheduler::StateDigest) {
        d.mix(self.id_bits);
        d.mix(self.per_kind.len() as u64);
        for (kind, counts) in &self.per_kind {
            d.mix_bytes(kind.as_bytes());
            d.mix(counts.messages);
            d.mix(counts.bits);
            d.mix(counts.max_bits);
        }
        d.mix(self.deliveries());
        d.mix(self.wakeups());
        d.mix(self.max_causal_depth);
        d.mix(self.max_link_queue as u64);
        let (f, b) = (self.faults(), self.byzantine());
        for v in [
            f.drops,
            f.duplicates,
            f.crashes,
            f.restarts,
            f.ticks,
            f.crash_discards,
            b.forged,
            b.forged_bits,
            b.forge_noops,
            b.silenced,
            b.stale_restarts,
            b.joins,
            b.leaves,
            b.leave_discards,
        ] {
            d.mix(v);
        }
    }

    /// Counts one executed event of `kind`.
    pub(crate) fn count(&mut self, kind: Kind) {
        self.executed[kind as usize] += 1;
    }

    fn executed(&self, kind: Kind) -> u64 {
        self.executed[kind as usize]
    }

    pub(crate) fn observe_causal_depth(&mut self, depth: u64) {
        self.max_causal_depth = self.max_causal_depth.max(depth);
    }

    pub(crate) fn observe_link_queue(&mut self, len: usize) {
        self.max_link_queue = self.max_link_queue.max(len);
    }

    /// Counts an event discarded because its target had left the network
    /// (`left`) or was crashed.
    pub(crate) fn record_discard(&mut self, left: bool) {
        if left {
            self.leave_discards += 1;
        } else {
            self.crash_discards += 1;
        }
    }

    /// Adds the bits of an executed forgery (itself counted by kind).
    pub(crate) fn record_forged_bits(&mut self, bits: u64) {
        self.forged_bits += bits;
    }

    pub(crate) fn record_forge_noop(&mut self) {
        self.forge_noops += 1;
    }

    /// Per-fault counters (all zero on a fault-free run).
    pub fn faults(&self) -> FaultCounts {
        FaultCounts {
            drops: self.executed(Kind::Drop),
            duplicates: self.executed(Kind::Duplicate),
            crashes: self.executed(Kind::Crash),
            restarts: self.executed(Kind::Restart),
            ticks: self.executed(Kind::Tick),
            crash_discards: self.crash_discards,
        }
    }

    /// Byzantine/churn counters (all zero on a benign run).
    pub fn byzantine(&self) -> ByzantineCounts {
        ByzantineCounts {
            forged: self.executed(Kind::Forge),
            forged_bits: self.forged_bits,
            forge_noops: self.forge_noops,
            silenced: self.executed(Kind::Silence),
            stale_restarts: self.executed(Kind::StaleRestart),
            joins: self.executed(Kind::Join),
            leaves: self.executed(Kind::Leave),
            leave_discards: self.leave_discards,
        }
    }

    /// Total messages sent, over all kinds.
    pub fn total_messages(&self) -> u64 {
        self.per_kind.iter().map(|&(_, c)| c.messages).sum()
    }

    /// Total bits sent, over all kinds.
    pub fn total_bits(&self) -> u64 {
        self.per_kind.iter().map(|&(_, c)| c.bits).sum()
    }

    /// Counters for one message kind (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindCounts {
        match self.per_kind.binary_search_by_key(&kind, |&(k, _)| k) {
            Ok(at) => self.per_kind[at].1,
            Err(_) => KindCounts::default(),
        }
    }

    /// Iterates over `(kind, counters)` pairs in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindCounts)> + '_ {
        self.per_kind.iter().map(|&(k, v)| (k, v))
    }

    /// Sums the message counts of every kind whose name is in `kinds`.
    pub fn messages_of(&self, kinds: &[&str]) -> u64 {
        kinds.iter().map(|k| self.kind(k).messages).sum()
    }

    /// Sums the bit counts of every kind whose name is in `kinds`.
    pub fn bits_of(&self, kinds: &[&str]) -> u64 {
        kinds.iter().map(|k| self.kind(k).bits).sum()
    }

    /// Number of messages actually delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.executed(Kind::Deliver)
    }

    /// Number of node wake-ups processed.
    pub fn wakeups(&self) -> u64 {
        self.executed(Kind::Wake)
    }

    /// Length of the longest message-causality chain observed.
    ///
    /// This is the standard asynchronous-time measure: a message sent while
    /// handling an event at depth `d` has depth `d + 1`, and wake-ups have
    /// depth `0`. It corresponds to the round count the same execution would
    /// need in a synchronous network.
    pub fn max_causal_depth(&self) -> u64 {
        self.max_causal_depth
    }

    /// Deepest per-link FIFO queue observed during the run.
    pub fn max_link_queue(&self) -> usize {
        self.max_link_queue
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} messages / {} bits (id width {} bits, causal depth {})",
            self.total_messages(),
            self.total_bits(),
            self.id_bits,
            self.max_causal_depth
        )?;
        for (kind, counts) in &self.per_kind {
            writeln!(
                f,
                "  {:<14} {:>10} msgs {:>14} bits",
                kind, counts.messages, counts.bits
            )?;
        }
        let faults = self.faults();
        if faults.any() {
            writeln!(
                f,
                "faults: {} drops, {} dups, {} crashes, {} restarts, {} ticks, {} crash-discards",
                faults.drops,
                faults.duplicates,
                faults.crashes,
                faults.restarts,
                faults.ticks,
                faults.crash_discards
            )?;
        }
        let byzantine = self.byzantine();
        if byzantine.any() {
            writeln!(
                f,
                "byzantine: {} forged ({} bits), {} forge-noops, {} silenced, \
                 {} stale-restarts, {} joins, {} leaves, {} leave-discards",
                byzantine.forged,
                byzantine.forged_bits,
                byzantine.forge_noops,
                byzantine.silenced,
                byzantine.stale_restarts,
                byzantine.joins,
                byzantine.leaves,
                byzantine.leave_discards
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_kind() {
        let mut m = Metrics::new(8);
        m.record("a", 1, 0);
        m.record("a", 2, 3);
        m.record("b", 0, 1);
        assert_eq!(m.kind("a").messages, 2);
        assert_eq!(m.kind("a").bits, (8 + 4) + (16 + 3 + 4));
        assert_eq!(m.kind("a").max_bits, 16 + 3 + 4);
        assert_eq!(m.kind("b").messages, 1);
        assert_eq!(m.kind("missing"), KindCounts::default());
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn grouped_sums() {
        let mut m = Metrics::new(4);
        m.record("x", 1, 0);
        m.record("y", 1, 0);
        m.record("z", 1, 0);
        assert_eq!(m.messages_of(&["x", "z"]), 2);
        assert_eq!(m.bits_of(&["x", "y", "z"]), m.total_bits());
    }

    #[test]
    fn causal_depth_is_max() {
        let mut m = Metrics::new(4);
        for depth in [3, 1] {
            m.count(Kind::Deliver);
            m.observe_causal_depth(depth);
        }
        assert_eq!(m.max_causal_depth(), 3);
        assert_eq!(m.deliveries(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Metrics::new(4);
        assert!(!m.to_string().is_empty());
    }
}
