//! The FIFO round loop: [`FifoScheduler`](crate::FifoScheduler)'s order
//! without a scheduler object.
//!
//! [`Runner::run`] under a `FifoScheduler` drains one global queue, so
//! every event of causal generation `g` runs before any event of
//! generation `g + 1`: the execution is a sequence of *rounds*.
//! [`Runner::run_rounds`] runs exactly that sequence, but keeps each
//! message inline in the event that will deliver it instead of pushing it
//! on a link queue and a token on a scheduler, and recycles the two round
//! buffers. What an event *does* is not written here: every event goes
//! through the runner's own `wake` / `deliver` / `tick`, which send into
//! this module's implementation of the runner's private `Sink`. The loop
//! is only an ordering strategy.
//!
//! The one invariant that matters: **same-round events execute in
//! emission order.** The next round is appended to in the order handlers
//! send, which is the order a `FifoScheduler` would receive the tokens, so
//! per-link FIFO and the global fifo order coincide and the output is
//! byte-identical to the scheduler-driven run — [`Metrics`](crate::Metrics)
//! (including `max_link_queue`, fed from per-link in-flight counters),
//! [`Trace`](crate::trace::Trace), recorded [`Schedule`], final node and
//! knowledge state, step count and the livelock cutoff.
//!
//! Scope: a quiescent network woken all at once. Fault injection and every
//! other scheduler stay with [`Runner::run`].

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

/// The round sink: sends and ticks become events of the next round.
struct NextRound<M> {
    events: Vec<Ev<M>>,
    /// One placeholder per event of `events` (and of the round being
    /// drained) on its link: the lengths the link queues would have, for
    /// `max_link_queue`.
    in_flight: LinkQueues<()>,
}

impl<P: Protocol> Sink<P> for NextRound<P::Message> {
    fn send(
        &mut self,
        _runner: &mut Runner<P>,
        token: SendToken,
        key: u64,
        msg: P::Message,
        depth: u64,
    ) -> usize {
        self.events.push(Ev::Deliver {
            src: token.src,
            dst: token.dst,
            msg,
            depth,
        });
        self.in_flight.push_back(key, ())
    }

    fn tick(&mut self, node: NodeId) {
        self.events.push(Ev::Tick(node));
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
        let mut choices = Vec::new();
        let result = self.round_loop(max_steps, Some(&mut choices));
        (result, Schedule::new(choices))
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
        mut record: Option<&mut Vec<Choice>>,
    ) -> Result<u64, LivelockError> {
        assert!(
            self.links_empty(),
            "run_rounds needs a quiescent network (no messages in flight)"
        );
        // Round 0: wake every sleeping node, in id order.
        let mut round: Vec<Ev<P::Message>> = self
            .ids()
            .filter(|&id| !self.is_awake(id))
            .map(Ev::Wake)
            .collect();
        let mut next = NextRound {
            events: Vec::new(),
            in_flight: LinkQueues::new(),
        };
        let mut executed: u64 = 0;
        while !round.is_empty() {
            // The budget may cap the round to a prefix.
            let budget = usize::try_from(max_steps - executed).unwrap_or(usize::MAX);
            let prefix = round.len().min(budget);
            for ev in round.drain(..prefix) {
                if let Some(choices) = record.as_deref_mut() {
                    choices.push(ev.choice());
                }
                match ev {
                    Ev::Wake(node) => self.wake(node, &mut next),
                    Ev::Deliver {
                        src,
                        dst,
                        msg,
                        depth,
                    } => {
                        next.in_flight.pop_front(link_key(src, dst));
                        self.note_payload_dequeued(msg.payload_heap_bytes());
                        self.deliver(src, dst, msg, depth, &mut next);
                    }
                    Ev::Tick(node) => self.tick(node, &mut next),
                }
            }
            executed += prefix as u64;
            if !round.is_empty() {
                // Cut off mid-round: the rest of it and everything it
                // emitted so far is what a scheduler would still hold.
                return Err(LivelockError {
                    steps: executed,
                    pending: round.len() + next.events.len(),
                });
            }
            // `round` is drained: swap so both buffers recycle.
            std::mem::swap(&mut round, &mut next.events);
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
