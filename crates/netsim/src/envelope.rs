use crate::NodeId;

/// Number of bits charged for a message's kind tag.
///
/// Every message carries a constant-size type discriminator; the paper's bit
/// accounting treats all non-id message content as `O(log n)` bits, so a
/// small constant tag is consistent with every bound we reproduce. Public so
/// the budget checks derive their per-message overhead from the same
/// constant the metering charges (they must not drift apart).
pub const KIND_TAG_BITS: u64 = 4;

/// Metering interface implemented by protocol message types.
///
/// The simulator uses this trait for two things:
///
/// 1. **Knowledge propagation.** When a message is delivered, the receiver
///    learns the sender's id *and* every id visited by
///    [`for_each_carried_id`]. This is exactly the paper's knowledge-graph
///    rule: "when a node `v` receives a message containing `id(w)` then
///    `E := E ∪ {(v → w)}`". A protocol must therefore report every id
///    embedded in a message, or later sends to those ids will (correctly)
///    panic.
/// 2. **Bit accounting.** A message of kind `k` carrying `c` ids costs
///    `c · id_bits + aux_bits + 4` bits, where `id_bits = ⌈log₂ n⌉` is
///    configured on the [`Metrics`](crate::Metrics) and `aux_bits` covers
///    non-id payload (flags, counters, phase numbers).
///
/// Both uses sit on the simulator's per-event hot path, so the required
/// method is a visitor: implementations walk their embedded ids without
/// allocating. The [`carried_ids`] convenience (which *does* allocate a
/// `Vec`) is provided for tests and debugging.
///
/// An envelope that wraps another message (a transport's data frame, say)
/// must forward every provided method whose default loses information —
/// the run walk, the payload's heap bytes, the digest — not only the
/// required ones.
///
/// [`for_each_carried_id`]: Envelope::for_each_carried_id
/// [`carried_ids`]: Envelope::carried_ids
///
/// # Example
///
/// ```
/// use ard_netsim::{Envelope, NodeId};
///
/// #[derive(Clone, Debug)]
/// enum Msg {
///     Hello,
///     Introduce { who: Vec<NodeId> },
/// }
///
/// impl Envelope for Msg {
///     fn kind(&self) -> &'static str {
///         match self {
///             Msg::Hello => "hello",
///             Msg::Introduce { .. } => "introduce",
///         }
///     }
///     fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
///         match self {
///             Msg::Hello => {}
///             Msg::Introduce { who } => who.iter().copied().for_each(f),
///         }
///     }
///     fn aux_bits(&self) -> u64 { 0 }
/// }
///
/// let m = Msg::Introduce { who: vec![NodeId::new(1), NodeId::new(2)] };
/// assert_eq!(m.kind(), "introduce");
/// assert_eq!(m.carried_id_count(), 2);
/// assert_eq!(m.carried_ids(), vec![NodeId::new(1), NodeId::new(2)]);
/// ```
pub trait Envelope: Clone + std::fmt::Debug {
    /// A short static name for this message's kind, used as the metrics key
    /// (e.g. `"search"`, `"query reply"`).
    fn kind(&self) -> &'static str;

    /// Calls `f` with every node id embedded in the message payload, in a
    /// fixed order.
    ///
    /// The receiver learns all of these ids on delivery. The sender's own id
    /// is implicit (the underlying transport reveals the peer address, as
    /// TCP/IP does) and must not be visited here.
    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId));

    /// Bits of non-id payload: booleans, counters, phase numbers, set-length
    /// prefixes, and similar. Ids are charged separately via
    /// [`for_each_carried_id`](Envelope::for_each_carried_id).
    fn aux_bits(&self) -> u64;

    /// Calls `f` with half-open `[start, end)` index runs that together
    /// cover exactly the ids [`for_each_carried_id`] yields (same
    /// multiset of ids; runs need not be maximal or sorted). Knowledge
    /// absorption at delivery uses this to learn a whole run per call —
    /// for run-coded payloads that is O(runs), not O(ids).
    ///
    /// The default decomposes the id visitor into singleton runs; override
    /// when the payload representation stores runs natively.
    ///
    /// [`for_each_carried_id`]: Envelope::for_each_carried_id
    fn for_each_carried_run(&self, f: &mut dyn FnMut(u32, u32)) {
        self.for_each_carried_id(&mut |id| {
            let i = id.index() as u32;
            f(i, i + 1);
        });
    }

    /// Heap bytes currently backing this message's payload (capacity, not
    /// occupancy). Purely observability — the bench reports payload bytes
    /// per event and the peak in-flight payload footprint; nothing in the
    /// simulation branches on it. The default (no heap payload) suits
    /// scalar-only messages.
    fn payload_heap_bytes(&self) -> usize {
        0
    }

    /// Number of ids the visitor yields; used for metering.
    ///
    /// The default counts via [`for_each_carried_id`](Envelope::for_each_carried_id) without allocating;
    /// override only if a cheaper count is available.
    fn carried_id_count(&self) -> usize {
        let mut count = 0usize;
        self.for_each_carried_id(&mut |_| count += 1);
        count
    }

    /// Every embedded id collected into a `Vec`, in visitor order.
    ///
    /// Convenience for tests and debugging; the simulator itself never
    /// calls this on the hot path.
    fn carried_ids(&self) -> Vec<NodeId> {
        let mut ids = Vec::new();
        self.for_each_carried_id(&mut |id| ids.push(id));
        ids
    }

    /// Total size of the message in bits, given the configured id width.
    fn bits(&self, id_bits: u64) -> u64 {
        self.carried_id_count() as u64 * id_bits + self.aux_bits() + KIND_TAG_BITS
    }

    /// Mixes the message's content into a canonical state digest (the
    /// explorer's terminal-state and branch-dedup hashing).
    ///
    /// The default mixes kind, carried ids and [`aux_bits`]: sufficient
    /// whenever the non-id payload is fully determined by those (most
    /// messages here). Override when two *different* payloads can agree on
    /// all three — e.g. a phase counter whose value doesn't change the bit
    /// *count* — otherwise distinct in-flight messages hash alike and the
    /// explorer may wrongly dedup two genuinely different branches.
    ///
    /// [`aux_bits`]: Envelope::aux_bits
    fn digest(&self, d: &mut crate::StateDigest) {
        d.mix_bytes(self.kind().as_bytes());
        d.mix(self.carried_id_count() as u64);
        self.for_each_carried_id(&mut |id| d.mix(id.index() as u64));
        d.mix(self.aux_bits());
    }

    /// Builds a *forged* message for a Byzantine `src` to inject toward
    /// `dst` ([`Choice::Forge`](crate::Choice::Forge)).
    ///
    /// `salt` is a protocol-interpreted forgery descriptor: by convention
    /// the low 8 bits select a forgery flavor (equivocation, fabricated
    /// ids, …) and the high bits parameterize it, so seeded plans and the
    /// explorer can enumerate distinct lies without knowing the message
    /// type. The default returns `None` — protocols without a Byzantine
    /// story turn every forge choice into a metered no-op.
    fn forge(src: NodeId, dst: NodeId, salt: u32) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = (src, dst, salt);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Fixed(Vec<NodeId>, u64);

    impl Envelope for Fixed {
        fn kind(&self) -> &'static str {
            "fixed"
        }
        fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
            self.0.iter().copied().for_each(f);
        }
        fn aux_bits(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn bits_charges_ids_aux_and_tag() {
        let m = Fixed(vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)], 5);
        assert_eq!(m.bits(10), 3 * 10 + 5 + KIND_TAG_BITS);
    }

    #[test]
    fn empty_message_still_costs_tag() {
        let m = Fixed(Vec::new(), 0);
        assert_eq!(m.bits(16), KIND_TAG_BITS);
    }

    #[test]
    fn default_run_visitor_covers_the_ids() {
        let m = Fixed(vec![NodeId::new(4), NodeId::new(2), NodeId::new(3)], 0);
        let mut covered = Vec::new();
        m.for_each_carried_run(&mut |s, e| covered.extend((s..e).map(|i| NodeId::new(i as usize))));
        assert_eq!(covered, m.carried_ids());
        assert_eq!(m.payload_heap_bytes(), 0, "default reports no heap payload");
    }

    #[test]
    fn count_and_vec_agree_with_visitor() {
        let m = Fixed(vec![NodeId::new(4), NodeId::new(2)], 0);
        assert_eq!(m.carried_id_count(), 2);
        assert_eq!(m.carried_ids(), vec![NodeId::new(4), NodeId::new(2)]);
        let empty = Fixed(Vec::new(), 0);
        assert_eq!(empty.carried_id_count(), 0);
        assert!(empty.carried_ids().is_empty());
    }
}
