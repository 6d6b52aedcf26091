//! The FIFO round loop: [`FifoScheduler`](crate::FifoScheduler)'s order
//! without a scheduler object.
//!
//! [`Runner::run`] under a `FifoScheduler` drains one global queue, so
//! every event of causal generation `g` runs before any event of
//! generation `g + 1`: the execution is a sequence of *rounds*.
//! [`Runner::run_rounds`] runs exactly that sequence from one event queue:
//! it pops the front, and handlers push what they emit to the back, each
//! message inline in the event that will deliver it instead of on a link
//! queue with a token on a scheduler. Rounds need no buffer of their own —
//! a round is the stretch of the queue its predecessor emitted — so the
//! queue holds what is pending and no more (sized for the wake-ups, and
//! shrunk as the rounds after them thin out, so that it stays cache-sized).
//! What an event *does* is not written here: every event goes through the
//! runner's own `wake` / `deliver` / `tick`, which send into this module's
//! implementation of the runner's private `Sink`. The loop is only an
//! ordering strategy.
//!
//! The one invariant that matters: **events execute in emission order.**
//! The queue is appended to in the order handlers send, which is the
//! order a `FifoScheduler` would receive the tokens, so per-link FIFO and
//! the global fifo order coincide and the output is
//! byte-identical to the scheduler-driven run — [`Metrics`](crate::Metrics)
//! (including `max_link_queue`, fed from per-link in-flight counters),
//! [`Trace`](crate::trace::Trace), recorded [`Schedule`], final node and
//! knowledge state, step count and the livelock cutoff.
//!
//! Scope: a quiescent network woken all at once. Fault injection and every
//! other scheduler stay with [`Runner::run`].

use std::collections::VecDeque;

use crate::envelope::Envelope;
use crate::linkq::LinkQueues;
use crate::record::Schedule;
use crate::runner::{link_key, LivelockError, Protocol, Runner, Sink};
use crate::scheduler::{Choice, SendToken};
use crate::NodeId;

/// One pending event, carrying its message (FIFO order *is* emission
/// order, so nothing needs to wait on a link queue).
enum Ev<M> {
    /// Explicit wake-up of a sleeping node.
    Wake(NodeId),
    /// Delivery of `msg` on `src → dst`, sent at causal depth `depth`.
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: M,
        depth: u64,
    },
    /// A timer tick armed by the node.
    Tick(NodeId),
}

impl<M> Ev<M> {
    /// The choice a recording `FifoScheduler` would log for this event.
    fn choice(&self) -> Choice {
        match *self {
            Ev::Wake(node) => Choice::Wake(node),
            Ev::Deliver { src, dst, .. } => Choice::Deliver { src, dst },
            Ev::Tick(node) => Choice::Tick(node),
        }
    }
}

/// Slots below which the event queue is never shrunk: 64 KiB of 64-byte
/// events, which stays cache-resident anyway.
const MIN_RING: usize = 1024;

/// The event queue: sends and ticks join the back, in emission order.
struct Pending<M> {
    events: VecDeque<Ev<M>>,
    /// One placeholder per queued delivery on its link: the lengths the
    /// link queues would have, for `max_link_queue`.
    in_flight: LinkQueues<()>,
}

impl<P: Protocol> Sink<P> for Pending<P::Message> {
    fn send(
        &mut self,
        _runner: &mut Runner<P>,
        token: SendToken,
        key: u64,
        msg: P::Message,
        depth: u64,
    ) -> usize {
        self.events.push_back(Ev::Deliver {
            src: token.src,
            dst: token.dst,
            msg,
            depth,
        });
        self.in_flight.push_back(key, ())
    }

    fn tick(&mut self, node: NodeId) {
        self.events.push_back(Ev::Tick(node));
    }
}

impl<P: Protocol> Runner<P> {
    /// Wakes every sleeping node (in id order) and runs the network to
    /// quiescence, with output byte-identical to
    /// [`enqueue_wake_all`](Runner::enqueue_wake_all) +
    /// [`run`](Runner::run) under a
    /// [`FifoScheduler`](crate::FifoScheduler) — metrics, trace,
    /// knowledge, node state and step count all match.
    ///
    /// Call on a freshly built network (no messages in flight).
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if `max_steps` events execute without
    /// reaching quiescence, exactly when the scheduler-driven run would.
    /// Unlike there, the still-pending messages are discarded rather than
    /// left queued.
    ///
    /// # Panics
    ///
    /// Panics if messages are already in flight, or (like
    /// [`run`](Runner::run)) if a handler violates the knowledge
    /// constraint.
    pub fn run_rounds(&mut self, max_steps: u64) -> Result<u64, LivelockError> {
        self.round_loop(max_steps, None)
    }

    /// Like [`run_rounds`](Runner::run_rounds), but also returns the
    /// [`Schedule`] of the run — byte-identical to what a
    /// `RecordingScheduler`-wrapped FIFO run records.
    pub fn run_rounds_recorded(
        &mut self,
        max_steps: u64,
    ) -> (Result<u64, LivelockError>, Schedule) {
        let mut schedule = Schedule::default();
        let result = self.round_loop(max_steps, Some(&mut schedule));
        (result, schedule)
    }

    /// Former name of [`run_rounds`](Runner::run_rounds), kept only because
    /// the frozen `benchmark/` crate calls it; `shards` is unused (the
    /// threaded engine it selected is gone).
    #[doc(hidden)]
    pub fn run_sharded(&mut self, _shards: usize, max_steps: u64) -> Result<u64, LivelockError> {
        self.run_rounds(max_steps)
    }

    /// Former name of [`run_rounds_recorded`](Runner::run_rounds_recorded),
    /// kept only because the frozen `benchmark/` crate calls it; `shards`
    /// is unused.
    #[doc(hidden)]
    pub fn run_sharded_recorded(
        &mut self,
        _shards: usize,
        max_steps: u64,
    ) -> (Result<u64, LivelockError>, Schedule) {
        self.run_rounds_recorded(max_steps)
    }

    fn round_loop(
        &mut self,
        max_steps: u64,
        mut record: Option<&mut Schedule>,
    ) -> Result<u64, LivelockError> {
        assert!(
            self.links_empty(),
            "run_rounds needs a quiescent network (no messages in flight)"
        );
        // Round 0: wake every sleeping node, in id order. The queue is
        // sized for it and grows only if more than that is pending.
        let sleeping = || self.ids().filter(|&id| !self.is_awake(id));
        let mut pending = Pending {
            events: VecDeque::with_capacity(sleeping().count()),
            in_flight: LinkQueues::new(),
        };
        pending.events.extend(sleeping().map(Ev::Wake));
        let mut executed: u64 = 0;
        while let Some(ev) = pending.events.pop_front() {
            // A ring left at round 0's n slots would walk every later push
            // through a slot untouched for n events — a cache miss each,
            // once rounds are a few hundred events. Halving it whenever
            // three quarters stand empty keeps it within 4× what is pending.
            let (len, capacity) = (pending.events.len(), pending.events.capacity());
            if capacity > MIN_RING && 4 * len < capacity {
                pending.events.shrink_to(MIN_RING.max(2 * len));
            }
            if executed == max_steps {
                // Everything still queued, this event included, is what a
                // scheduler would still hold.
                return Err(LivelockError {
                    steps: executed,
                    pending: pending.events.len() + 1,
                });
            }
            if let Some(schedule) = record.as_deref_mut() {
                schedule.push(ev.choice());
            }
            match ev {
                Ev::Wake(node) => self.wake(node, &mut pending),
                Ev::Deliver {
                    src,
                    dst,
                    msg,
                    depth,
                } => {
                    pending.in_flight.pop_front(link_key(src, dst));
                    self.note_payload_dequeued(msg.payload_heap_bytes());
                    self.deliver(src, dst, msg, depth, &mut pending);
                }
                Ev::Tick(node) => self.tick(node, &mut pending),
            }
            executed += 1;
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, FifoScheduler};

    /// Flood protocol (as in the runner tests): forward a token to all
    /// initially-known peers on wake.
    #[derive(Debug)]
    struct Flood {
        peers: Vec<NodeId>,
        seen: bool,
    }

    #[derive(Clone, Debug)]
    struct Tok;

    impl Envelope for Tok {
        fn kind(&self) -> &'static str {
            "tok"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            0
        }
    }

    impl Protocol for Flood {
        type Message = Tok;
        fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
            if !self.seen {
                self.seen = true;
                for &p in &self.peers {
                    ctx.send(p, Tok);
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Tok, _ctx: &mut Context<'_, Tok>) {}
    }

    fn ring(n: usize) -> Runner<Flood> {
        let nodes = (0..n)
            .map(|i| Flood {
                peers: vec![NodeId::new((i + 1) % n)],
                seen: false,
            })
            .collect();
        let knowledge = (0..n).map(|i| vec![NodeId::new((i + 1) % n)]).collect();
        Runner::new(nodes, knowledge)
    }

    /// The scheduler-driven reference run.
    fn scheduled(n: usize, max_steps: u64) -> (Result<u64, LivelockError>, Runner<Flood>) {
        let mut r = ring(n);
        r.enable_trace();
        let mut s = FifoScheduler::new();
        r.enqueue_wake_all(&mut s);
        let result = r.run(&mut s, max_steps);
        (result, r)
    }

    #[test]
    fn round_loop_matches_fifo_scheduler() {
        let (want_result, want) = scheduled(25, 10_000);
        want_result.unwrap();
        let mut r = ring(25);
        r.enable_trace();
        let steps = r.run_rounds(10_000).unwrap();
        assert_eq!(steps, want.steps_executed());
        assert_eq!(r.metrics(), want.metrics());
        assert_eq!(r.trace().unwrap().events(), want.trace().unwrap().events());
        for id in r.ids() {
            assert_eq!(r.is_awake(id), want.is_awake(id));
            for other in r.ids() {
                assert_eq!(r.knows(id, other), want.knows(id, other));
            }
        }
    }

    /// Large enough that the queue shrinks, three times, from its n slots
    /// as the deliveries drain it: the order must not notice.
    #[test]
    fn round_loop_order_survives_the_queue_shrinking() {
        let n = 5 * MIN_RING;
        let (want_result, want) = scheduled(n, 100_000);
        let mut r = ring(n);
        r.enable_trace();
        assert_eq!(r.run_rounds(100_000), want_result);
        assert_eq!(r.metrics(), want.metrics());
        assert_eq!(r.trace().unwrap().events(), want.trace().unwrap().events());
    }

    #[test]
    fn round_loop_livelock_matches_fifo_scheduler_cutoff() {
        // 13 cuts round 0 (25 wake-ups) short; 30 cuts round 1.
        for budget in [0, 13, 25, 30] {
            let (want_result, want) = scheduled(25, budget);
            let mut r = ring(25);
            r.enable_trace();
            assert_eq!(r.run_rounds(budget), want_result, "budget={budget}");
            assert_eq!(r.metrics(), want.metrics(), "budget={budget}");
            assert_eq!(r.trace().unwrap().events(), want.trace().unwrap().events());
        }
    }

    #[test]
    fn round_loop_recording_matches_fifo_scheduler_recording() {
        let mut want = ring(9);
        let mut sched = crate::RecordingScheduler::new(FifoScheduler::new());
        want.enqueue_wake_all(&mut sched);
        want.run(&mut sched, 10_000).unwrap();

        let mut r = ring(9);
        let (result, got) = r.run_rounds_recorded(10_000);
        result.unwrap();
        assert_eq!(got.to_text(), sched.into_schedule().to_text());
    }

    #[test]
    fn empty_network_is_trivially_quiescent() {
        let mut r: Runner<Flood> = Runner::new(Vec::new(), Vec::new());
        assert_eq!(r.run_rounds(100), Ok(0));
    }

    #[test]
    #[should_panic(expected = "knowledge violation")]
    fn knowledge_violation_panics_in_the_round_loop() {
        /// Node 0 addresses node 1 without knowing it; node 1 stays silent.
        struct Bad(bool);
        impl Protocol for Bad {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                if self.0 {
                    ctx.send(NodeId::new(1), Tok);
                }
            }
            fn on_message(&mut self, _: NodeId, _: Tok, _: &mut Context<'_, Tok>) {}
        }
        let mut r = Runner::new(vec![Bad(true), Bad(false)], vec![vec![], vec![]]);
        let _ = r.run_rounds(100);
    }
}
