//! A reliable-delivery envelope over an unreliable (lossy, duplicating,
//! crash-prone) network.
//!
//! The paper assumes reliable asynchronous links. The fault layer of
//! [`ard_netsim::fault`] breaks that assumption — messages can be dropped or
//! duplicated and nodes can crash and restart. [`Reliable`] restores the
//! paper's link model on top of the faulty one so the discovery algorithms
//! run unchanged:
//!
//! * every logical message gets a **per-destination sequence number** and is
//!   retransmitted on a timeout until acknowledged (loss recovery);
//! * receivers **acknowledge** every data message and deliver each sequence
//!   number **exactly once, in order** (duplicate suppression and FIFO
//!   restoration — a retransmission can overtake a younger message, so
//!   per-link FIFO must be re-established): an arrival at its source's
//!   cursor goes straight to the inner protocol, and only an *early* one
//!   waits, in one per-node buffer that is freed whenever it drains;
//! * timeouts use **capped exponential backoff** measured in scheduler
//!   virtual time: each [`Choice::Tick`](ard_netsim::Choice) the scheduler
//!   grants advances the node's clock by one.
//!
//! Crash/restart is the *fail-recover* model: a node's protocol state
//! survives the crash (stable storage), it just stops sending and receiving
//! while down. Messages delivered to a down node are lost; the sender's
//! retransmission loop covers them. [`Reliable::on_restart`] re-arms the
//! retransmission timer, so liveness survives a tick discarded mid-crash.
//!
//! Under any per-message drop probability `p < 1` and finitely many
//! crash/restart events, every logical message is eventually delivered
//! exactly once: each retransmission is an independent Bernoulli trial, so
//! non-delivery has probability 0, and the ack loop terminates because the
//! timer only re-arms while unacknowledged messages remain. At quiescence
//! the inner protocol has seen exactly the message sequence some
//! fault-free schedule would have produced.
//!
//! Metering: a first-attempt data message is metered under its **payload's
//! kind** with 32 extra aux bits (the sequence number), so the paper's
//! per-kind budgets still see every logical send exactly once.
//! Retransmissions and acks are metered under the dedicated kinds
//! `"retransmit"` and `"rd-ack"` ([`OVERHEAD_KINDS`](crate::budgets::OVERHEAD_KINDS)),
//! which the budget table subtracts as explicit overhead
//! ([`Netting::RELIABLE`](crate::budgets::Netting::RELIABLE)).

use std::collections::BTreeMap;

use ard_netsim::{Context, Envelope, NodeId, Protocol, StateDigest};

/// Width of the sequence number every [`ReliableMsg`] carries: what the
/// envelope adds to a message's metered aux bits.
pub(crate) const SEQ_BITS: u64 = 32;

/// Wire format of the reliable-delivery layer: the inner protocol's message
/// wrapped with a sequence number, or a bare acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// A (re)transmission of logical message `seq` on this sender→receiver
    /// pair.
    Data {
        /// Per-(sender, receiver) sequence number, starting at 0.
        seq: u32,
        /// 0 for the first transmission; `k` for the `k`-th retransmission.
        /// Bookkeeping only — not charged as bits (a real implementation
        /// would not send it).
        attempt: u32,
        /// The inner protocol's message.
        payload: M,
    },
    /// Acknowledges receipt of `Data { seq, .. }` from the addressee.
    Ack {
        /// The acknowledged sequence number.
        seq: u32,
    },
}

impl<M: Envelope> Envelope for ReliableMsg<M> {
    fn kind(&self) -> &'static str {
        match self {
            // First transmissions keep the payload's kind so the paper's
            // per-kind message budgets count each logical send exactly once.
            ReliableMsg::Data {
                attempt: 0,
                payload,
                ..
            } => payload.kind(),
            ReliableMsg::Data { .. } => "retransmit",
            ReliableMsg::Ack { .. } => "rd-ack",
        }
    }

    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
        match self {
            ReliableMsg::Data { payload, .. } => payload.for_each_carried_id(f),
            ReliableMsg::Ack { .. } => {}
        }
    }

    fn for_each_carried_run(&self, f: &mut dyn FnMut(u32, u32)) {
        match self {
            ReliableMsg::Data { payload, .. } => payload.for_each_carried_run(f),
            ReliableMsg::Ack { .. } => {}
        }
    }

    fn payload_heap_bytes(&self) -> usize {
        match self {
            ReliableMsg::Data { payload, .. } => payload.payload_heap_bytes(),
            ReliableMsg::Ack { .. } => 0,
        }
    }

    fn carried_id_count(&self) -> usize {
        match self {
            ReliableMsg::Data { payload, .. } => payload.carried_id_count(),
            ReliableMsg::Ack { .. } => 0,
        }
    }

    fn aux_bits(&self) -> u64 {
        match self {
            ReliableMsg::Data { payload, .. } => payload.aux_bits() + SEQ_BITS,
            ReliableMsg::Ack { .. } => SEQ_BITS,
        }
    }

    fn digest(&self, d: &mut StateDigest) {
        // The default digest cannot see `seq` (aux bits are a constant 32),
        // and two data envelopes with the same payload but different
        // sequence numbers are delivered very differently (in-order cursor
        // vs reorder buffer). `attempt` stays out: the receiver ignores it
        // and metering is charged at send time, so it cannot influence any
        // future step.
        match self {
            ReliableMsg::Data { seq, payload, .. } => {
                d.mix_bytes(b"rd-data");
                d.mix(u64::from(*seq));
                payload.digest(d);
            }
            ReliableMsg::Ack { seq } => {
                d.mix_bytes(b"rd-ack");
                d.mix(u64::from(*seq));
            }
        }
    }
}

/// An unacknowledged transmission awaiting its retransmission deadline.
#[derive(Clone, Debug)]
struct Outstanding<M> {
    dst: NodeId,
    seq: u32,
    attempt: u32,
    due: u64,
    payload: M,
}

/// The reliable-delivery envelope: wraps any [`Protocol`] so it runs
/// correctly over lossy, duplicating, crash-prone links.
///
/// The inner protocol's handlers execute against a staging [`Context`];
/// every message they send is wrapped in a [`ReliableMsg::Data`] envelope
/// and tracked until acknowledged. The two buffers hold only what is in
/// flight and are freed, not just cleared, when they empty.
#[derive(Debug)]
pub struct Reliable<P: Protocol> {
    inner: P,
    next_seq: BTreeMap<NodeId, u32>,
    unacked: Vec<Outstanding<P::Message>>,
    /// Data that arrived ahead of its source's cursor, sorted by
    /// `(source, seq)`.
    early: Vec<(NodeId, u32, P::Message)>,
    clock: u64,
    tick_outstanding: bool,
    inner_wants_tick: bool,
    /// Per source, the next sequence number to deliver.
    recv: BTreeMap<NodeId, u32>,
}

/// Retransmission backoff cap, in ticks.
const MAX_BACKOFF: u64 = 16;

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` in the reliable-delivery envelope.
    pub fn new(inner: P) -> Self {
        Reliable {
            inner,
            next_seq: BTreeMap::new(),
            unacked: Vec::new(),
            early: Vec::new(),
            clock: 0,
            tick_outstanding: false,
            inner_wants_tick: false,
            recv: BTreeMap::new(),
        }
    }

    /// Number of transmissions currently awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// The node's retransmission clock (ticks granted by the scheduler).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Capped exponential backoff: 2, 4, 8, 16, 16, … ticks. Starting at 2
    /// gives a round-trip's worth of slack before the first retransmission:
    /// under a benign scheduler the ack arrives before the second tick, so a
    /// fault-free run retransmits nothing.
    fn timeout(attempt: u32) -> u64 {
        (2u64 << attempt.min(62)).min(MAX_BACKOFF)
    }

    /// Runs an inner-protocol handler against a staging outbox, then wraps
    /// and sends everything it staged.
    fn run_inner(
        &mut self,
        ctx: &mut Context<'_, ReliableMsg<P::Message>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let mut staging = Vec::new();
        let mut inner_ctx = Context::new(ctx.me(), &mut staging);
        f(&mut self.inner, &mut inner_ctx);
        if inner_ctx.tick_armed() {
            self.inner_wants_tick = true;
        }
        for (dst, payload) in staging {
            let seq = self.next_seq.entry(dst).or_insert(0);
            let s = *seq;
            *seq += 1;
            self.unacked.push(Outstanding {
                dst,
                seq: s,
                attempt: 0,
                due: self.clock + Self::timeout(0),
                payload: payload.clone(),
            });
            ctx.send(
                dst,
                ReliableMsg::Data {
                    seq: s,
                    attempt: 0,
                    payload,
                },
            );
        }
    }

    /// Arms the retransmission timer if anything needs one and no tick is
    /// already pending.
    fn ensure_tick(&mut self, ctx: &mut Context<'_, ReliableMsg<P::Message>>) {
        if (!self.unacked.is_empty() || self.inner_wants_tick) && !self.tick_outstanding {
            ctx.arm_tick();
            self.tick_outstanding = true;
        }
    }

    /// Where `src`'s early arrival `seq` is in `early`, or would go.
    fn early_slot(&self, src: NodeId, seq: u32) -> Result<usize, usize> {
        self.early.binary_search_by_key(&(src, seq), |e| (e.0, e.1))
    }
}

impl<P: Protocol + crate::node::AsArdNode> crate::node::AsArdNode for Reliable<P> {
    fn ard(&self) -> &crate::node::ArdNode {
        self.inner.ard()
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Message = ReliableMsg<P::Message>;

    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.run_inner(ctx, |n, c| n.on_wake(c));
        self.ensure_tick(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<'_, Self::Message>) {
        match msg {
            ReliableMsg::Data { seq, payload, .. } => {
                // Always ack — the previous ack may have been lost.
                ctx.send(from, ReliableMsg::Ack { seq });
                let next = *self.recv.entry(from).or_insert(0);
                if seq == next {
                    // Deliver it, then the early arrivals it unblocks.
                    self.run_inner(ctx, |n, c| n.on_message(from, payload, c));
                    let mut next = seq + 1;
                    while let Ok(i) = self.early_slot(from, next) {
                        let (.., p) = self.early.remove(i);
                        self.run_inner(ctx, |n, c| n.on_message(from, p, c));
                        next += 1;
                    }
                    self.recv.insert(from, next);
                    if self.early.is_empty() {
                        self.early = Vec::new();
                    }
                } else if seq > next {
                    // A duplicate of an early arrival overwrites it with an
                    // identical payload; old sequence numbers are spent.
                    match self.early_slot(from, seq) {
                        Ok(i) => self.early[i].2 = payload,
                        Err(i) => self.early.insert(i, (from, seq, payload)),
                    }
                }
            }
            ReliableMsg::Ack { seq } => {
                self.unacked.retain(|o| !(o.dst == from && o.seq == seq));
                if self.unacked.is_empty() {
                    self.unacked = Vec::new();
                }
            }
        }
        self.ensure_tick(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.tick_outstanding = false;
        self.clock += 1;
        for o in &mut self.unacked {
            if o.due <= self.clock {
                o.attempt += 1;
                o.due = self.clock + Self::timeout(o.attempt);
                let msg = ReliableMsg::Data {
                    seq: o.seq,
                    attempt: o.attempt,
                    payload: o.payload.clone(),
                };
                ctx.send(o.dst, msg);
            }
        }
        if self.inner_wants_tick {
            self.inner_wants_tick = false;
            self.run_inner(ctx, |n, c| n.on_tick(c));
        }
        self.ensure_tick(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        // The armed tick may have fired (and been discarded) while we were
        // down; conservatively re-arm. A resulting spurious extra tick just
        // advances the clock, which the backoff schedule tolerates.
        self.tick_outstanding = false;
        self.run_inner(ctx, |n, c| n.on_restart(c));
        self.ensure_tick(ctx);
    }

    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        // The amnesia extends to the transport: sequence numbers, reorder
        // buffers and retransmission state all reset with the inner
        // protocol, as if the process image were reloaded from its boot
        // snapshot. Peers that kept *their* cursors will now see this node
        // restart at seq 0 — exactly the stale-transport hazard the
        // Byzantine matrix wants on the table.
        self.next_seq.clear();
        self.unacked = Vec::new();
        self.early = Vec::new();
        self.tick_outstanding = false;
        self.inner_wants_tick = false;
        self.recv.clear();
        self.run_inner(ctx, |n, c| n.on_stale_restart(c));
        self.ensure_tick(ctx);
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.inner.digest_state(d);
        d.mix(self.next_seq.len() as u64);
        for (dst, seq) in &self.next_seq {
            d.mix(dst.index() as u64);
            d.mix(u64::from(*seq));
        }
        d.mix(self.unacked.len() as u64);
        for o in &self.unacked {
            d.mix(o.dst.index() as u64);
            d.mix(u64::from(o.seq));
            d.mix(u64::from(o.attempt));
            d.mix(o.due);
            o.payload.digest(d);
        }
        d.mix(self.clock);
        d.mix(u64::from(self.tick_outstanding));
        d.mix(u64::from(self.inner_wants_tick));
        // Per source: its cursor, then its early arrivals, which are the
        // front of `early` (every early source has a cursor).
        d.mix(self.recv.len() as u64);
        let mut early = self.early.as_slice();
        for (src, next) in &self.recv {
            let (mine, rest) = early.split_at(early.partition_point(|e| e.0 == *src));
            d.mix(src.index() as u64);
            d.mix(u64::from(*next));
            d.mix(mine.len() as u64);
            for (_, seq, p) in mine {
                d.mix(u64::from(*seq));
                p.digest(d);
            }
            early = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_netsim::{FaultPlan, FaultScheduler, FifoScheduler, RandomScheduler, Runner};

    /// A chatty fixture: a node sends the payloads numbered `sends` to node 1,
    /// which records the order it sees them in, with their sources.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Num(u32);

    impl Envelope for Num {
        fn kind(&self) -> &'static str {
            "num"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            32
        }
        fn digest(&self, d: &mut StateDigest) {
            d.mix(u64::from(self.0));
        }
    }

    struct Chat {
        sends: std::ops::Range<u32>,
        seen: Vec<(NodeId, u32)>,
    }

    impl Chat {
        /// The payloads seen from `src`, in delivery order.
        fn seen_from(&self, src: NodeId) -> Vec<u32> {
            self.seen.iter().filter(|s| s.0 == src).map(|s| s.1).collect()
        }
    }

    impl Protocol for Chat {
        type Message = Num;
        fn on_wake(&mut self, ctx: &mut Context<'_, Num>) {
            for i in self.sends.clone() {
                ctx.send(NodeId::new(1), Num(i));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Num, _ctx: &mut Context<'_, Num>) {
            self.seen.push((from, msg.0));
        }
    }

    fn chat_pair(count: u32) -> Runner<Reliable<Chat>> {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        Runner::new(
            vec![
                Reliable::new(Chat { sends: 0..count, seen: vec![] }),
                Reliable::new(Chat { sends: 0..0, seen: vec![] }),
            ],
            vec![vec![b], vec![a]],
        )
    }

    #[test]
    fn lossless_run_delivers_in_order_with_acks() {
        let mut runner = chat_pair(5);
        let mut sched = FifoScheduler::new();
        runner.enqueue_wake(NodeId::new(0), &mut sched);
        runner.run(&mut sched, 1_000).unwrap();
        assert_eq!(
            runner.node(NodeId::new(1)).inner.seen_from(NodeId::new(0)),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(runner.node(NodeId::new(0)).unacked_len(), 0);
        assert_eq!(runner.metrics().kind("num").messages, 5);
        assert_eq!(runner.metrics().kind("rd-ack").messages, 5);
        assert_eq!(runner.metrics().kind("retransmit").messages, 0);
    }

    #[test]
    fn heavy_loss_still_delivers_everything_in_order() {
        for seed in 0..20u64 {
            let mut runner = chat_pair(8);
            let plan = FaultPlan::new(seed).with_drop(0.4).with_dup(0.1);
            let mut sched = FaultScheduler::new(RandomScheduler::seeded(seed), Some(plan));
            runner.enqueue_wake(NodeId::new(0), &mut sched);
            runner.run(&mut sched, 100_000).unwrap();
            assert_eq!(
                runner.node(NodeId::new(1)).inner.seen_from(NodeId::new(0)),
                (0..8).collect::<Vec<_>>(),
                "seed {seed}"
            );
            assert_eq!(runner.node(NodeId::new(0)).unacked_len(), 0, "seed {seed}");
            // Exactly-once: the logical kind is metered once per payload.
            assert_eq!(runner.metrics().kind("num").messages, 8, "seed {seed}");
        }
    }

    /// The early buffer is one per node, keyed by `(source, seq)`: three
    /// sources reordered at once must still each come out in order, and
    /// nothing may stay allocated once everything is acknowledged.
    #[test]
    fn three_sources_reorder_independently_and_leave_nothing_behind() {
        let rx = NodeId::new(1);
        let senders = [0, 2, 3].map(NodeId::new);
        for seed in 0..20u64 {
            let nodes = (0..4)
                .map(|i| {
                    let sends = if i == 1 { 0..0 } else { 100 * i..100 * i + 6 };
                    Reliable::new(Chat { sends, seen: vec![] })
                })
                .collect();
            let knows = (0..4)
                .map(|i| if i == 1 { senders.to_vec() } else { vec![rx] })
                .collect();
            let mut runner = Runner::new(nodes, knows);
            let plan = FaultPlan::new(seed).with_drop(0.4).with_dup(0.2);
            let mut sched = FaultScheduler::new(RandomScheduler::seeded(seed), Some(plan));
            for s in senders {
                runner.enqueue_wake(s, &mut sched);
            }
            runner.run(&mut sched, 100_000).unwrap();
            let receiver = runner.node(rx);
            for s in senders {
                let first = 100 * s.index() as u32;
                let seen = receiver.inner.seen_from(s);
                assert_eq!(seen, (first..first + 6).collect::<Vec<_>>(), "seed {seed}, source {s}");
            }
            assert_eq!(receiver.inner.seen.len(), 18, "seed {seed}");
            // Exactly-once: the logical kind is metered once per payload.
            assert_eq!(runner.metrics().kind("num").messages, 18, "seed {seed}");
            assert!(runner.metrics().kind("retransmit").messages > 0, "seed {seed}");
            assert_eq!(receiver.early.len(), 0, "seed {seed}");
            assert_eq!(receiver.early.capacity(), 0, "seed {seed}");
            for node in runner.nodes() {
                assert_eq!(node.unacked_len(), 0, "seed {seed}");
                assert_eq!(node.unacked.capacity(), 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn receiver_crash_window_is_covered_by_retransmission() {
        for seed in 0..10u64 {
            let mut runner = chat_pair(6);
            let plan = FaultPlan::new(seed)
                .with_drop(0.1)
                .with_crash(NodeId::new(1), 4, 10);
            let mut sched = FaultScheduler::new(RandomScheduler::seeded(seed ^ 0x9e37), Some(plan));
            runner.enqueue_wake(NodeId::new(0), &mut sched);
            runner.run(&mut sched, 100_000).unwrap();
            assert_eq!(
                runner.node(NodeId::new(1)).inner.seen_from(NodeId::new(0)),
                (0..6).collect::<Vec<_>>(),
                "seed {seed}"
            );
            assert!(runner.metrics().faults().crashes >= 1, "seed {seed}");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(Reliable::<Chat>::timeout(0), 2);
        assert_eq!(Reliable::<Chat>::timeout(1), 4);
        assert_eq!(Reliable::<Chat>::timeout(2), 8);
        assert_eq!(Reliable::<Chat>::timeout(3), 16);
        assert_eq!(Reliable::<Chat>::timeout(30), 16);
    }

    #[test]
    fn envelope_metering_charges_seq_overhead() {
        let data = ReliableMsg::Data {
            seq: 3,
            attempt: 0,
            payload: Num(7),
        };
        assert_eq!(data.kind(), "num");
        assert_eq!(data.aux_bits(), 32 + 32);
        let retx = ReliableMsg::Data {
            seq: 3,
            attempt: 2,
            payload: Num(7),
        };
        assert_eq!(retx.kind(), "retransmit");
        let ack: ReliableMsg<Num> = ReliableMsg::Ack { seq: 3 };
        assert_eq!(ack.kind(), "rd-ack");
        assert_eq!(ack.aux_bits(), 32);
        assert_eq!(ack.carried_id_count(), 0);
    }

    /// A data envelope is its payload to every observable the engine reads
    /// at delivery: the runs knowledge absorbs and the heap it meters.
    #[test]
    fn envelope_forwards_payload_runs_and_heap_bytes() {
        fn runs(msg: &impl Envelope) -> Vec<(u32, u32)> {
            let mut out = Vec::new();
            msg.for_each_carried_run(&mut |s, e| out.push((s, e)));
            out
        }
        let payload = crate::Message::QueryReply {
            ids: [4, 5, 6, 9].into_iter().map(NodeId::new).collect(),
            exhausted: true,
        };
        let data = ReliableMsg::Data {
            seq: 0,
            attempt: 1,
            payload: payload.clone(),
        };
        assert_eq!(runs(&data), [(4, 7), (9, 10)]);
        assert_eq!(data.payload_heap_bytes(), payload.payload_heap_bytes());
        assert_eq!(data.payload_heap_bytes(), 4 * 4);
        let ack: ReliableMsg<crate::Message> = ReliableMsg::Ack { seq: 0 };
        assert_eq!(runs(&ack), []);
        assert_eq!(ack.payload_heap_bytes(), 0);
    }

    /// A terminal digest never holds an early arrival (everything has
    /// drained at quiescence), so no run-level pin sees that part of
    /// `digest_state`. This node is caught mid-run: early arrivals from two
    /// sources, a spent duplicate, and two unacknowledged sends of its own,
    /// each retransmitted once. The value was printed by the build that kept
    /// one reorder map per source.
    #[test]
    fn mid_run_digest_is_pinned() {
        let (a, b) = (NodeId::new(0), NodeId::new(3));
        let data = |seq, n| ReliableMsg::Data {
            seq,
            attempt: 0,
            payload: Num(n),
        };
        let mut node = Reliable::new(Chat { sends: 0..3, seen: vec![] });
        let mut out = Vec::new();
        let mut ctx = Context::new(NodeId::new(2), &mut out);
        node.on_wake(&mut ctx);
        node.on_message(NodeId::new(1), ReliableMsg::Ack { seq: 1 }, &mut ctx);
        for _ in 0..2 {
            node.on_tick(&mut ctx);
        }
        for (src, msg) in [
            (a, data(0, 10)),
            (a, data(2, 12)),
            (b, data(1, 31)),
            (a, data(0, 10)),
            (a, data(3, 13)),
            (b, data(4, 34)),
            (a, data(2, 12)),
        ] {
            node.on_message(src, msg, &mut ctx);
        }
        assert_eq!(node.inner.seen_from(a), [10]);
        assert_eq!(node.unacked_len(), 2);
        let mut d = StateDigest::new();
        node.digest_state(&mut d);
        assert_eq!(d.finish(), 0x06d5_1fa3_7d3c_18ca);
    }
}
