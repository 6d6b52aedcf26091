use std::error::Error;
use std::fmt;

use crate::envelope::Envelope;
use crate::linkq::LinkQueues;
use crate::scheduler::{Choice, Footprint, Scheduler, SendToken, StateDigest};
use crate::table::NodeTable;
use crate::trace::{Trace, TraceEvent, What};
use crate::{Context, Metrics, NodeId};

/// Packs a directed link into its [`LinkQueues`] key; keys order like
/// `(src, dst)`.
pub(crate) fn link_key(src: NodeId, dst: NodeId) -> u64 {
    ((src.index() as u64) << 32) | dst.index() as u64
}

/// Behaviour of one node in the simulated network.
///
/// Handlers are *reactive*: a node acts only when it wakes up or receives a
/// message, and all sends happen through the provided [`Context`]. This is
/// the paper's model — after the steady state, "all nodes are awake, in a
/// state that will never send any more messages, and all message queues are
/// empty".
pub trait Protocol {
    /// The protocol's message type.
    type Message: Envelope;

    /// Called exactly once, when the node wakes up (either via an explicit
    /// wake-up event or on the first message it receives).
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Called for every delivered message, in per-link FIFO order.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a timer tick armed via [`Context::arm_tick`] fires.
    ///
    /// Ticks model scheduler-driven virtual time for timeout logic (e.g.
    /// retransmission). They may fire spuriously; the default does nothing.
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when the node restarts after a crash, with its protocol state
    /// intact (durable state model). The default does nothing.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when the node restarts after a crash with *stale* state
    /// ([`Choice::StaleRestart`] — a Byzantine deviation from the paper's
    /// durable-state model). Implementations should forget recent protocol
    /// state, e.g. reset to their boot state and re-run their wake logic.
    /// The default treats it like an ordinary restart.
    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.on_restart(ctx);
    }

    /// Mixes the node's protocol state into the runner's canonical state
    /// digest ([`Runner::state_digest`]), which the explorer's reduced mode
    /// uses to dedup converged branches and validate independence.
    ///
    /// The default mixes nothing. That is fine for protocols never searched
    /// with `--reduce` (the engine-level state — knowledge, flags, queues —
    /// is always digested), but a protocol explored under reduction should
    /// mix every field that can influence its future behaviour or its
    /// violation checks, or branches differing only in that field would
    /// wrongly dedup as equivalent.
    fn digest_state(&self, d: &mut StateDigest) {
        let _ = d;
    }
}

/// Error returned by [`Runner::run`] when the step budget is exhausted
/// before quiescence — i.e. a livelock or an unexpectedly expensive run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivelockError {
    /// Number of steps executed before giving up.
    pub steps: u64,
    /// Tokens still pending in the scheduler.
    pub pending: usize,
}

impl fmt::Display for LivelockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network failed to quiesce within {} steps ({} events still pending)",
            self.steps, self.pending
        )
    }
}

impl Error for LivelockError {}

/// Where the effects of a handler wait until they execute — the one seam
/// between *what an event does* (this module: [`Runner::wake`],
/// [`Runner::deliver`], [`Runner::tick`]) and *in which order events run*:
/// a [`Scheduler`] picking among link queues, or the FIFO round loop of
/// [`crate::round`] appending to the next round.
pub(crate) trait Sink<P: Protocol> {
    /// Holds `msg` — already checked, metered, traced and numbered — until
    /// its delivery on the link `key` (the [`link_key`] of the token's
    /// ends); returns how many messages are now in flight on that link.
    fn send(
        &mut self,
        runner: &mut Runner<P>,
        token: SendToken,
        key: u64,
        msg: P::Message,
        depth: u64,
    ) -> usize;

    /// Holds the timer tick a handler on `node` armed.
    fn tick(&mut self, node: NodeId);
}

/// The scheduler-driven sink: messages wait on the runner's link queues
/// and the scheduler holds one token per pending event.
struct Scheduled<'a>(&'a mut dyn Scheduler);

impl<P: Protocol> Sink<P> for Scheduled<'_> {
    fn send(
        &mut self,
        runner: &mut Runner<P>,
        token: SendToken,
        key: u64,
        msg: P::Message,
        depth: u64,
    ) -> usize {
        if runner.fp_on {
            runner.fp.touch_link(key);
        }
        let queued = runner.links.push_back(key, (msg, depth));
        self.0.note_send(token);
        queued
    }

    fn tick(&mut self, node: NodeId) {
        self.0.note_tick(node);
    }
}

/// The discrete-event simulation engine.
///
/// Owns the nodes, the per-link FIFO queues, each node's knowledge set and
/// the communication [`Metrics`]. Event *ordering* is delegated to a
/// [`Scheduler`] (or, for the fault-free FIFO order, to
/// [`run_rounds`](Runner::run_rounds)); the runner guarantees per-link FIFO
/// delivery regardless of the scheduler's choices.
///
/// Internally the engine is allocation-free per event and its state is
/// sized by what is live: knowledge sets live in a struct-of-arrays
/// `NodeTable` (dense bitsets up to 8,192 nodes, [`IdSet`](crate::IdSet)s
/// above), metering uses the non-allocating [`Envelope`] visitor, and a
/// directed link exists only while it carries a message — [`LinkQueues`]
/// indexes the live links by their packed `(src, dst)` key and drops a
/// link's entry with its last message. The messages themselves live in one
/// slab shared by all links, whose cells are recycled newest-first, so
/// in-flight storage is sized by the peak number of messages in flight and
/// nothing grows with the number of links a run ever used.
///
/// See the [crate-level documentation](crate) for a complete example.
///
/// Cloning a runner (for `P: Clone`) deep-copies the whole network state —
/// nodes, knowledge, link queues, metrics — which is what the explorer's
/// checkpoint/fork machinery snapshots at DFS branch points.
#[derive(Clone)]
pub struct Runner<P: Protocol> {
    nodes: Vec<P>,
    /// Packed flags + knowledge sets, struct-of-arrays over node index.
    table: NodeTable,
    /// Every in-flight message with its causal depth, FIFO per
    /// [`link_key`].
    links: LinkQueues<(P::Message, u64)>,
    metrics: Metrics,
    seq: u64,
    steps: u64,
    trace: Option<Trace>,
    outbox: Vec<(NodeId, P::Message)>,
    /// Scratch footprint for the step being executed; populated by the
    /// mutation sites (link pops/pushes) only while `fp_on` is set.
    fp: Footprint,
    /// Whether the current step records its footprint (the scheduler asked
    /// via [`Scheduler::wants_footprints`]).
    fp_on: bool,
    /// Cumulative heap bytes of every enqueued message payload
    /// ([`Envelope::payload_heap_bytes`] at send time). Observability only.
    payload_bytes_sent: u64,
    /// Heap bytes of payloads currently in flight.
    payload_inflight: u64,
    /// High-water mark of [`payload_inflight`](Runner::payload_inflight).
    payload_peak: u64,
}

impl<P: Protocol> Runner<P> {
    /// Creates a network of `nodes`, where node `i` initially knows the ids
    /// in `initial_knowledge[i]` (the initial knowledge graph `E₀`).
    ///
    /// The id bit-width for metering defaults to `⌈log₂ n⌉` (minimum 1), as
    /// in the paper's model where ids have `O(log n)` bits.
    ///
    /// Prefer [`with_topology`](Runner::with_topology) when the edge lists
    /// already live somewhere borrowable — this convenience wrapper costs
    /// one temporary `Vec` per node.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors disagree in length or an initial edge
    /// points outside the node table.
    pub fn new(nodes: Vec<P>, initial_knowledge: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(
            nodes.len(),
            initial_knowledge.len(),
            "one knowledge set per node required"
        );
        Self::with_topology(nodes, |id| &initial_knowledge[id.index()][..])
    }

    /// Creates a network of `nodes` whose initial knowledge graph `E₀` is
    /// given by borrowed edge slices: node `id` initially knows
    /// `neighbors(id)`.
    ///
    /// This is the allocation-light constructor for large networks: no
    /// per-node temporary `Vec`s, and knowledge sets pre-sized (and
    /// representation-selected) for `n`. [`Runner::new`] delegates here.
    ///
    /// # Panics
    ///
    /// Panics if an initial edge points outside the node table.
    pub fn with_topology<'a>(
        nodes: Vec<P>,
        neighbors: impl Fn(NodeId) -> &'a [NodeId],
    ) -> Self {
        let n = nodes.len();
        let id_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as u64;
        let mut table = NodeTable::new(n);
        for i in 0..n {
            let me = NodeId::new(i);
            let mut set = table.empty_knowledge(n);
            for &v in neighbors(me) {
                assert!(
                    v.index() < n,
                    "initial edge {me} → {v} points outside the network"
                );
                set.insert(v.index());
            }
            set.insert(i);
            table.knowledge.push(set);
        }
        Runner {
            nodes,
            table,
            links: LinkQueues::new(),
            metrics: Metrics::new(id_bits),
            seq: 0,
            steps: 0,
            trace: None,
            outbox: Vec::new(),
            fp: Footprint::new(),
            fp_on: false,
            payload_bytes_sent: 0,
            payload_inflight: 0,
            payload_peak: 0,
        }
    }

    /// Turns on event tracing (see [`crate::trace`]); subsequent wake-ups,
    /// sends and deliveries are logged. Idempotent.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::default());
        }
    }

    /// The event log, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Number of events executed so far (wake-ups + deliveries).
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Number of nodes in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in index order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::new)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's protocol state.
    ///
    /// Prefer [`exec`](Runner::exec) when the mutation needs to send
    /// messages.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.index()]
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The accumulated communication metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether node `u` has learned `v`'s id (knowledge-graph edge `u → v`).
    pub fn knows(&self, u: NodeId, v: NodeId) -> bool {
        self.table.knowledge[u.index()].contains(v.index())
    }

    /// Sum of heap bytes currently backing the per-node knowledge sets —
    /// the scale benchmarks report this as bytes/node.
    pub fn knowledge_bytes(&self) -> usize {
        self.table.knowledge_bytes()
    }

    /// Cumulative heap bytes of every message payload enqueued so far
    /// ([`Envelope::payload_heap_bytes`] measured at send time). Dividing
    /// by the executed step count gives the bench's bytes-per-event figure.
    pub fn payload_bytes_sent(&self) -> u64 {
        self.payload_bytes_sent
    }

    /// High-water mark of payload heap bytes simultaneously in flight
    /// (enqueued on link queues). This is the arena pressure a run exerts:
    /// before run-length payloads it grew with O(component)-sized handovers.
    pub fn payload_peak_bytes(&self) -> u64 {
        self.payload_peak
    }

    /// Records `bytes` of payload entering flight.
    #[inline]
    fn note_payload_enqueued(&mut self, bytes: usize) {
        let bytes = bytes as u64;
        self.payload_bytes_sent += bytes;
        self.payload_inflight += bytes;
        self.payload_peak = self.payload_peak.max(self.payload_inflight);
    }

    /// Records `bytes` of payload leaving flight.
    #[inline]
    pub(crate) fn note_payload_dequeued(&mut self, bytes: usize) {
        self.payload_inflight -= bytes as u64;
    }

    /// Teaches node `u` the id of `v` out of band.
    ///
    /// This models a *dynamic link addition* (§6 of the paper): an external
    /// event hands `u` a new address. Protocol-internal knowledge growth
    /// happens automatically on message delivery.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) {
        assert!(v.index() < self.len(), "link target {v} does not exist");
        self.table.knowledge[u.index()].insert(v.index());
    }

    /// Adds a new node that initially knows `known`, returning its id.
    ///
    /// Models a *dynamic node addition* (§6): "there is no difference
    /// between a node joining the system at a certain time and a node that
    /// wakes up at that time" — wake the returned id to bring it online.
    pub fn add_node(&mut self, node: P, known: Vec<NodeId>) -> NodeId {
        let id = NodeId::new(self.len());
        let mut set = self.table.empty_knowledge(self.len() + 1);
        for v in known {
            assert!(
                v.index() < self.len(),
                "initial edge {id} → {v} points outside the network"
            );
            set.insert(v.index());
        }
        set.insert(id.index());
        self.nodes.push(node);
        self.table.push(set);
        id
    }

    /// Whether the node has woken up.
    pub fn is_awake(&self, id: NodeId) -> bool {
        self.table.awake(id.index())
    }

    /// Enqueues a wake-up event for `node`; the scheduler decides when it
    /// fires relative to message deliveries. Idempotent for nodes that are
    /// already awake or already enqueued.
    pub fn enqueue_wake(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        let i = node.index();
        if !self.table.awake(i) && !self.table.wake_enqueued(i) {
            self.table.set_wake_enqueued(i, true);
            sched.note_wake(node);
        }
    }

    /// Enqueues wake-ups for every node.
    pub fn enqueue_wake_all(&mut self, sched: &mut dyn Scheduler) {
        for id in 0..self.len() {
            self.enqueue_wake(NodeId::new(id), sched);
        }
    }

    /// Wakes `node` immediately (bypassing the scheduler's ordering), as the
    /// staged drivers of the lower-bound constructions require. Messages it
    /// sends are still scheduled normally. No-op if already awake.
    pub fn wake_now(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        self.wake_inner(node, 0, &mut Scheduled(sched));
    }

    /// Runs `f` against a node with a live sending [`Context`], for external
    /// commands that are not triggered by a message (e.g. the Ad-hoc
    /// variant's leader probes).
    pub fn exec<R>(
        &mut self,
        node: NodeId,
        sched: &mut dyn Scheduler,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> R {
        self.dispatch(node, 1, &mut Scheduled(sched), f)
    }

    /// Runs a handler against `node` with a live [`Context`], then flushes
    /// its outbox at `depth` into `sink` — enforcing the knowledge
    /// constraint and metering each message — followed by any armed tick.
    ///
    /// Metering happens here, at *send* time, with the non-allocating
    /// [`Envelope::carried_id_count`]; knowledge updates happen at
    /// *delivery* time in [`deliver`](Runner::deliver) via the visitor.
    /// Neither side materialises an id `Vec`.
    fn dispatch<S: Sink<P>, R>(
        &mut self,
        node: NodeId,
        depth: u64,
        sink: &mut S,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> R {
        debug_assert!(self.outbox.is_empty());
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::new(node, &mut outbox);
        let r = f(&mut self.nodes[node.index()], &mut ctx);
        let tick = ctx.tick_armed();
        for (dst, msg) in outbox.drain(..) {
            assert!(
                self.table.knowledge[node.index()].contains(dst.index()),
                "knowledge violation: {node} sent a {:?} to {dst} without knowing its id",
                msg.kind()
            );
            self.metrics
                .record(msg.kind(), msg.carried_id_count(), msg.aux_bits());
            let sent = What::Send {
                src: node,
                dst,
                seq: self.seq,
            };
            self.log(sent, Some(msg.kind()));
            self.enqueue(node, dst, msg, depth, sink);
        }
        self.outbox = outbox;
        if tick {
            sink.tick(node);
        }
        r
    }

    /// Puts `msg` in flight on `src → dst`: numbers it, accounts its
    /// payload and hands it to `sink`.
    fn enqueue<S: Sink<P>>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: P::Message,
        depth: u64,
        sink: &mut S,
    ) {
        let token = SendToken {
            src,
            dst,
            seq: self.seq,
            kind: msg.kind(),
        };
        self.seq += 1;
        self.note_payload_enqueued(msg.payload_heap_bytes());
        let queued = sink.send(self, token, link_key(src, dst), msg, depth);
        self.metrics.observe_link_queue(queued);
    }

    /// Appends to the trace, when one is kept.
    fn log(&mut self, what: What, kind: Option<&'static str>) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                step: self.steps,
                what,
                kind,
            });
        }
    }

    /// Counts the executed `choice` under its kind and logs it; `kind` is
    /// that of the message it concerns, if any.
    fn note(&mut self, choice: Choice, kind: Option<&'static str>) {
        self.metrics.count(choice.kind());
        self.log(What::Did(choice), kind);
    }

    /// Whether `node` has left or is crashed, so that the event aimed at it
    /// is discarded — counted here as the one or the other.
    fn discards(&mut self, node: NodeId) -> bool {
        let left = self.table.left(node.index());
        let gone = left || self.table.crashed(node.index());
        if gone {
            self.metrics.record_discard(left);
        }
        gone
    }

    /// Wakes `node` unless it already woke; its `on_wake` sends leave at
    /// `depth + 1`.
    fn wake_inner<S: Sink<P>>(&mut self, node: NodeId, depth: u64, sink: &mut S) {
        let i = node.index();
        self.table.set_wake_enqueued(i, false);
        if self.table.awake(i) {
            return;
        }
        self.table.set_awake(i, true);
        self.note(Choice::Wake(node), None);
        self.dispatch(node, depth + 1, sink, |n, ctx| n.on_wake(ctx));
    }

    /// Executes the wake-up event of `node`.
    pub(crate) fn wake<S: Sink<P>>(&mut self, node: NodeId, sink: &mut S) {
        self.steps += 1;
        if self.discards(node) {
            // A crashed node loses its pending wake-up; Restart
            // re-enqueues one so the node is not stranded asleep.
            self.table.set_wake_enqueued(node.index(), false);
            return;
        }
        self.wake_inner(node, 0, sink);
    }

    /// Executes the delivery to `dst` of `msg`, sent by `src` at causal
    /// depth `depth` and already removed from wherever it waited.
    pub(crate) fn deliver<S: Sink<P>>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: P::Message,
        depth: u64,
        sink: &mut S,
    ) {
        self.steps += 1;
        if self.discards(dst) {
            // Delivery to a departed or crashed node: the message is lost.
            self.log(What::Did(Choice::Drop { src, dst }), Some(msg.kind()));
            return;
        }
        self.note(Choice::Deliver { src, dst }, Some(msg.kind()));
        self.metrics.observe_causal_depth(depth);
        // Knowledge-graph growth: the receiver learns the sender and every
        // id in the payload (visited, not collected; a sparse set splices
        // each shipped run in with one move, and skips one it already
        // covers).
        let n = self.nodes.len();
        let know = &mut self.table.knowledge[dst.index()];
        know.insert(src.index());
        msg.for_each_carried_run(&mut |start, end| {
            debug_assert!((end as usize) <= n);
            know.insert_run(start, end);
        });
        // A message wakes a sleeping receiver.
        if !self.table.awake(dst.index()) {
            self.wake_inner(dst, depth, sink);
        }
        self.dispatch(dst, depth + 1, sink, |node, ctx| {
            node.on_message(src, msg, ctx);
        });
    }

    /// Executes a timer tick armed by `node`.
    pub(crate) fn tick<S: Sink<P>>(&mut self, node: NodeId, sink: &mut S) {
        self.steps += 1;
        if self.discards(node) {
            return;
        }
        if !self.table.awake(node.index()) {
            // Nor does a tick reach a node that is not up: it fires into
            // the void like one armed before a crash.
            self.metrics.record_discard(false);
            return;
        }
        self.note(Choice::Tick(node), None);
        self.dispatch(node, 1, sink, |n, ctx| n.on_tick(ctx));
    }

    /// Removes the oldest in-flight message on `src → dst`.
    fn pop_link(&mut self, src: NodeId, dst: NodeId) -> (P::Message, u64) {
        let key = link_key(src, dst);
        if self.fp_on {
            self.fp.touch_link(key);
        }
        let popped = self
            .links
            .pop_front(key)
            .unwrap_or_else(|| panic!("scheduler bug: no pending messages on {src} → {dst}"));
        self.note_payload_dequeued(popped.0.payload_heap_bytes());
        popped
    }

    /// Executes one scheduler-chosen event. Returns `false` when quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns a [`Choice`] with no matching pending
    /// event (a scheduler bug).
    pub fn step(&mut self, sched: &mut dyn Scheduler) -> bool {
        if sched.wants_state_digest() {
            let digest = self.state_digest();
            sched.note_state_digest(digest);
        }
        let Some(choice) = sched.choose() else {
            return false;
        };
        let track = sched.wants_footprints();
        if track {
            self.fp.clear();
            self.fp_on = true;
            // The only node whose state a step can touch is the stepped /
            // targeted one (dispatch never reaches into other nodes); link
            // mutations are recorded at the pop/push sites.
            if let Some(node) = choice.touched_node() {
                self.fp.touch_node(node);
            }
        }
        self.execute(choice, sched);
        if track {
            self.fp_on = false;
            let fp = std::mem::take(&mut self.fp);
            sched.note_footprint(choice, &fp);
            self.fp = fp;
        }
        true
    }

    /// Executes one already-chosen event.
    fn execute(&mut self, choice: Choice, sched: &mut dyn Scheduler) {
        let sink = &mut Scheduled(sched);
        match choice {
            Choice::Wake(node) => self.wake(node, sink),
            Choice::Deliver { src, dst } => {
                let (msg, depth) = self.pop_link(src, dst);
                self.deliver(src, dst, msg, depth, sink);
            }
            Choice::Tick(node) => self.tick(node, sink),
            // A link fault, or a Byzantine sender withholding its message.
            Choice::Drop { src, dst } | Choice::Silence { src, dst } => {
                self.steps += 1;
                let (msg, _depth) = self.pop_link(src, dst);
                self.note(choice, Some(msg.kind()));
            }
            Choice::Duplicate { src, dst } => {
                self.steps += 1;
                let (msg, depth) = self
                    .links
                    .front(link_key(src, dst))
                    .cloned()
                    .unwrap_or_else(|| {
                        panic!("scheduler bug: no pending messages on {src} → {dst}")
                    });
                self.note(choice, Some(msg.kind()));
                // The copy gets its own token (and thus its own delivery
                // choice); it is metered only as a fault, not per kind.
                self.enqueue(src, dst, msg, depth, sink);
            }
            Choice::Crash(node) | Choice::Leave(node) => {
                self.steps += 1;
                if matches!(choice, Choice::Leave(_)) {
                    self.table.set_left(node.index(), true);
                } else {
                    self.table.set_crashed(node.index(), true);
                }
                self.note(choice, None);
            }
            Choice::Restart(node) | Choice::StaleRestart(node) => {
                self.steps += 1;
                let i = node.index();
                if self.table.left(i) {
                    // A departed node never comes back.
                    self.metrics.record_discard(true);
                    return;
                }
                self.table.set_crashed(i, false);
                self.note(choice, None);
                if self.table.awake(i) {
                    let stale = matches!(choice, Choice::StaleRestart(_));
                    self.dispatch(node, 1, sink, |n, ctx| {
                        if stale {
                            n.on_stale_restart(ctx);
                        } else {
                            n.on_restart(ctx);
                        }
                    });
                } else if !self.table.wake_enqueued(i) {
                    // The node's wake-up was discarded while it was down:
                    // re-enqueue it so liveness survives the crash window.
                    self.table.set_wake_enqueued(i, true);
                    sink.0.note_wake(node);
                }
            }
            Choice::Forge { src, dst, salt } => {
                self.steps += 1;
                let Some(msg) = P::Message::forge(src, dst, salt) else {
                    // The protocol has no forgery for this salt: the choice
                    // is a counted no-op so schedules stay replayable.
                    self.metrics.record_forge_noop();
                    return;
                };
                // A forged send bypasses the outbox (and thus the honest
                // knowledge-violation assert in `dispatch`): a Byzantine node
                // addresses whoever it likes. It is metered per kind like
                // any send — and tracked in the Byzantine counters so
                // budget checks can net the adversarial traffic out.
                self.metrics
                    .record(msg.kind(), msg.carried_id_count(), msg.aux_bits());
                self.metrics
                    .record_forged_bits(msg.bits(self.metrics.id_bits()));
                self.note(choice, Some(msg.kind()));
                self.enqueue(src, dst, msg, 0, sink);
            }
            Choice::Join(node) => {
                self.steps += 1;
                if self.discards(node) {
                    return;
                }
                self.note(choice, None);
                // §6: "there is no difference between a node joining the
                // system at a certain time and a node that wakes up at that
                // time" — a join is a token-free wake of a node whose
                // initial wake-up the churn plan withheld. No-op if the
                // node already woke (e.g. via an incoming message).
                self.wake_inner(node, 0, sink);
            }
        }
    }

    /// Runs until quiescence or until `max_steps` events have been executed.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the budget runs out first.
    pub fn run(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> Result<u64, LivelockError> {
        let mut steps = 0;
        while steps < max_steps {
            if !self.step(sched) {
                self.report_terminal(sched);
                return Ok(steps);
            }
            steps += 1;
        }
        if sched.pending() == 0 {
            self.report_terminal(sched);
            return Ok(steps);
        }
        Err(LivelockError {
            steps,
            pending: sched.pending(),
        })
    }

    /// Hands the terminal-state digest to a scheduler that asked for one.
    fn report_terminal(&self, sched: &mut dyn Scheduler) {
        if sched.wants_terminal_digest() {
            let digest = self.state_digest();
            sched.note_terminal_digest(digest);
        }
    }

    /// Canonical digest of the complete observable simulation state: per
    /// node its liveness flags, knowledge membership and protocol state
    /// (via [`Protocol::digest_state`]); every live link with its in-flight
    /// messages, in `(src, dst)` key order so the digest is independent of
    /// where the link index happens to hold them; and the metrics
    /// (violation checks read them, so branch dedup must honour them).
    ///
    /// Excluded on purpose: the step counter and trace (observational),
    /// and link-index or slab *capacity* and layout (execution-history
    /// artifacts with no behavioural effect).
    pub fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.mix(self.nodes.len() as u64);
        for (i, node) in self.nodes.iter().enumerate() {
            let flags = u64::from(self.table.awake(i))
                | u64::from(self.table.wake_enqueued(i)) << 1
                | u64::from(self.table.crashed(i)) << 2
                | u64::from(self.table.left(i)) << 3;
            d.mix(flags);
            self.table.knowledge[i].digest_into(&mut d);
            node.digest_state(&mut d);
        }
        let mut live: Vec<u64> = self.links.links().collect();
        live.sort_unstable();
        d.mix(live.len() as u64);
        for key in live {
            d.mix(key);
            d.mix(self.links.len(key) as u64);
            for (msg, depth) in self.links.iter(key) {
                msg.digest(&mut d);
                d.mix(*depth);
            }
        }
        self.metrics.digest_into(&mut d);
        d.mix(self.seq);
        d.finish()
    }

    /// Number of in-flight messages over all links.
    pub fn in_flight(&self) -> usize {
        self.links.in_flight()
    }

    /// Whether all link queues are empty (no in-flight messages).
    pub fn links_empty(&self) -> bool {
        self.in_flight() == 0
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Runner<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("nodes", &self.nodes.len())
            .field("in_flight", &self.in_flight())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FifoScheduler, LifoScheduler};

    /// Flood protocol: on wake or first sighting of a token, forward it to
    /// all initially-known peers.
    #[derive(Clone, Debug)]
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

    fn line(n: usize) -> Runner<Flood> {
        let nodes = (0..n)
            .map(|i| Flood {
                peers: if i + 1 < n {
                    vec![NodeId::new(i + 1)]
                } else {
                    vec![]
                },
                seen: false,
            })
            .collect();
        let knowledge = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![NodeId::new(i + 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        Runner::new(nodes, knowledge)
    }

    #[test]
    fn message_wakes_sleeping_receiver() {
        let mut r = line(4);
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        // Wake cascades down the whole line even though only node 0 was woken.
        assert!(r.ids().all(|id| r.is_awake(id)));
        assert_eq!(r.metrics().total_messages(), 3);
        assert!(r.links_empty());
    }

    #[test]
    fn causal_depth_counts_the_chain() {
        let mut r = line(5);
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        assert_eq!(r.metrics().max_causal_depth(), 4);
    }

    #[test]
    fn knowledge_grows_from_sender() {
        let mut r = line(2);
        let mut s = FifoScheduler::new();
        assert!(!r.knows(NodeId::new(1), NodeId::new(0)));
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        assert!(r.knows(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    #[should_panic(expected = "knowledge violation")]
    fn sending_to_unknown_id_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                ctx.send(NodeId::new(1), Tok);
            }
            fn on_message(&mut self, _: NodeId, _: Tok, _: &mut Context<'_, Tok>) {}
        }
        let mut r = Runner::new(vec![Bad, Bad], vec![vec![], vec![]]);
        let mut s = FifoScheduler::new();
        r.wake_now(NodeId::new(0), &mut s);
    }

    #[test]
    fn livelock_is_reported() {
        /// Two nodes bouncing a token forever.
        struct Bounce {
            peer: NodeId,
        }
        impl Protocol for Bounce {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                ctx.send(self.peer, Tok);
            }
            fn on_message(&mut self, from: NodeId, _: Tok, ctx: &mut Context<'_, Tok>) {
                ctx.send(from, Tok);
            }
        }
        let mut r = Runner::new(
            vec![
                Bounce {
                    peer: NodeId::new(1),
                },
                Bounce {
                    peer: NodeId::new(0),
                },
            ],
            vec![vec![NodeId::new(1)], vec![NodeId::new(0)]],
        );
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        let err = r.run(&mut s, 50).unwrap_err();
        assert_eq!(err.steps, 50);
        assert!(err.pending > 0);
        assert!(err.to_string().contains("failed to quiesce"));
    }

    /// Node 0 sends numbered messages to node 1; node 1 records arrival order.
    #[derive(Clone, Debug)]
    struct Num(u32);
    impl Envelope for Num {
        fn kind(&self) -> &'static str {
            "num"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            32
        }
    }
    enum Either {
        Sender,
        Receiver(Vec<u32>),
    }
    impl Protocol for Either {
        type Message = Num;
        fn on_wake(&mut self, ctx: &mut Context<'_, Num>) {
            if let Either::Sender = self {
                for i in 0..10 {
                    ctx.send(NodeId::new(1), Num(i));
                }
            }
        }
        fn on_message(&mut self, _: NodeId, m: Num, _: &mut Context<'_, Num>) {
            if let Either::Receiver(r) = self {
                r.push(m.0);
            }
        }
    }

    fn sender_and_receiver() -> Runner<Either> {
        Runner::new(
            vec![Either::Sender, Either::Receiver(Vec::new())],
            vec![vec![NodeId::new(1)], vec![]],
        )
    }

    fn received(r: &Runner<Either>) -> &[u32] {
        match r.node(NodeId::new(1)) {
            Either::Receiver(got) => got,
            Either::Sender => unreachable!(),
        }
    }

    #[test]
    fn per_link_fifo_holds_under_lifo_scheduler() {
        let mut r = sender_and_receiver();
        // LIFO reorders *events*, but per-link FIFO must still hold.
        let mut s = LifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        assert_eq!(received(&r), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_copies_the_front_behind_the_tail_and_losses_free_their_cell() {
        /// Plays a fixed script, last choice first.
        struct Script(Vec<Choice>);
        impl Scheduler for Script {
            fn note_wake(&mut self, _: NodeId) {}
            fn note_send(&mut self, _: SendToken) {}
            fn note_tick(&mut self, _: NodeId) {}
            fn choose(&mut self) -> Option<Choice> {
                self.0.pop()
            }
            fn pending(&self) -> usize {
                self.0.len()
            }
        }
        let (src, dst) = (NodeId::new(0), NodeId::new(1));
        let mut r = sender_and_receiver();
        let run = |r: &mut Runner<Either>, choices: &[Choice]| {
            let mut s = Script(choices.iter().rev().copied().collect());
            r.run(&mut s, 100).unwrap();
        };
        run(&mut r, &[Choice::Wake(src), Choice::Duplicate { src, dst }]);
        assert_eq!(r.in_flight(), 11);
        assert_eq!(r.metrics().max_link_queue(), 11);
        run(
            &mut r,
            &[Choice::Drop { src, dst }, Choice::Silence { src, dst }],
        );
        assert_eq!(r.in_flight(), 9);
        // The two freed cells take the next two copies: the slab stays at
        // its peak of 11.
        run(&mut r, &[Choice::Duplicate { src, dst }; 2]);
        assert_eq!((r.in_flight(), r.links.slab_cells()), (11, 11));
        run(&mut r, &[Choice::Deliver { src, dst }; 11]);
        // 0 and 1 were lost; the copies of 0 and (twice) 2 queue behind 9.
        assert_eq!(received(&r), [2, 3, 4, 5, 6, 7, 8, 9, 0, 2, 2]);
        assert!(r.links_empty());
    }

    #[test]
    fn exec_flushes_external_commands() {
        let mut r = line(3);
        let mut s = FifoScheduler::new();
        r.exec(NodeId::new(0), &mut s, |node, ctx| {
            node.seen = true;
            for &p in &node.peers {
                ctx.send(p, Tok);
            }
        });
        assert_eq!(s.pending(), 1);
        r.run(&mut s, 100).unwrap();
        // exec's 0→1 plus node 1's wake-up flood 1→2 (node 2 has no peers).
        assert_eq!(r.metrics().total_messages(), 2);
    }

    #[test]
    fn dynamic_node_and_link_addition() {
        let mut r = line(2);
        let mut s = FifoScheduler::new();
        r.enqueue_wake_all(&mut s);
        r.run(&mut s, 100).unwrap();
        let newcomer = r.add_node(
            Flood {
                peers: vec![NodeId::new(0)],
                seen: false,
            },
            vec![NodeId::new(0)],
        );
        assert_eq!(newcomer, NodeId::new(2));
        r.add_link(NodeId::new(1), newcomer);
        assert!(r.knows(NodeId::new(1), newcomer));
        r.enqueue_wake(newcomer, &mut s);
        r.run(&mut s, 100).unwrap();
        assert!(r.is_awake(newcomer));
    }

    #[test]
    fn a_drained_link_leaves_no_entry() {
        let mut r = sender_and_receiver();
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        assert!(r.step(&mut s));
        assert_eq!((r.in_flight(), r.links.live_links()), (10, 1));
        r.run(&mut s, 100).unwrap();
        assert_eq!(r.links.live_links(), 0, "quiescent: no link is live");
        assert_eq!(received(&r).len(), 10);
        // The round loop never queues on the runner's links at all.
        let mut r = line(40);
        r.run_rounds(1_000).unwrap();
        assert_eq!((r.links.live_links(), r.links.slab_cells()), (0, 0));
    }

    /// Gossip carrying both scattered ids and an index run, so deliveries
    /// drive `insert` and `insert_run` alike.
    #[derive(Clone, Debug)]
    struct Ids {
        ids: Vec<NodeId>,
        run: (u32, u32),
    }

    impl Envelope for Ids {
        fn kind(&self) -> &'static str {
            "ids"
        }
        fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
            self.ids.iter().copied().for_each(&mut *f);
            (self.run.0..self.run.1).for_each(|i| f(NodeId::new(i as usize)));
        }
        fn for_each_carried_run(&self, f: &mut dyn FnMut(u32, u32)) {
            self.ids.iter().for_each(|id| {
                let i = id.index() as u32;
                f(i, i + 1);
            });
            f(self.run.0, self.run.1);
        }
        fn aux_bits(&self) -> u64 {
            0
        }
    }

    /// Tells its peers everyone it has heard of, once on waking and once
    /// on the first message.
    #[derive(Clone, Debug)]
    struct Gossip {
        peers: Vec<NodeId>,
        heard: Vec<NodeId>,
        relayed: bool,
    }

    impl Gossip {
        fn tell(&self, ctx: &mut Context<'_, Ids>) {
            let me = ctx.me().index() as u32;
            for &p in &self.peers {
                let ids = self.peers.iter().chain(&self.heard).copied().collect();
                let run = (me.saturating_sub(5), me + 1);
                ctx.send(p, Ids { ids, run });
            }
        }
    }

    impl Protocol for Gossip {
        type Message = Ids;
        fn on_wake(&mut self, ctx: &mut Context<'_, Ids>) {
            self.tell(ctx);
        }
        fn on_message(&mut self, from: NodeId, msg: Ids, ctx: &mut Context<'_, Ids>) {
            self.heard.push(from);
            self.heard.extend(msg.ids);
            if !std::mem::replace(&mut self.relayed, true) {
                self.tell(ctx);
            }
        }
    }

    #[test]
    fn dense_and_sparse_knowledge_agree_on_every_pair() {
        use crate::table::Knowledge;
        const N: usize = 300;
        let peers = |i: usize| vec![NodeId::new((i * 7 + 1) % N), NodeId::new((i * i + 3) % N)];
        let build = || {
            let nodes = (0..N)
                .map(|i| Gossip {
                    peers: peers(i),
                    heard: Vec::new(),
                    relayed: false,
                })
                .collect();
            Runner::new(nodes, (0..N).map(peers).collect())
        };
        let dense = build();
        let mut sparse = build();
        // Re-house the same initial knowledge the way a network of more
        // than 8,192 nodes would hold it.
        for set in &mut sparse.table.knowledge {
            assert!(matches!(set, Knowledge::Dense(_)));
            let mut moved = Knowledge::Sparse(crate::IdSet::new());
            (0..N).filter(|&v| set.contains(v)).for_each(|v| {
                moved.insert(v);
            });
            *set = moved;
        }
        // The same seeded schedule drives both: what a handler does never
        // depends on how the engine stores knowledge.
        let run = |mut r: Runner<Gossip>| {
            let mut s = crate::RandomScheduler::seeded(17);
            r.enqueue_wake_all(&mut s);
            r.run(&mut s, 100_000).unwrap();
            r
        };
        let (dense, sparse) = (run(dense), run(sparse));
        assert_eq!(dense.steps_executed(), sparse.steps_executed());
        assert_eq!(dense.metrics(), sparse.metrics());
        let mut known = 0;
        for u in dense.ids() {
            for v in dense.ids() {
                assert_eq!(dense.knows(u, v), sparse.knows(u, v), "{u} → {v}");
                known += usize::from(dense.knows(u, v));
            }
        }
        assert!(known > 10 * N, "the gossip spread: {known} edges");
    }

    /// A network keeps the knowledge representation it was built with as
    /// `add_node` grows it across [`DENSE_KNOWLEDGE_MAX`]: picking it per
    /// call from the current size left dense sets beside run-coded ones,
    /// and one `state_digest` mixing two membership formats.
    #[test]
    fn a_network_grown_across_the_dense_limit_keeps_one_knowledge_mode() {
        use crate::table::{Knowledge, DENSE_KNOWLEDGE_MAX};
        use std::collections::BTreeSet;
        const START: usize = DENSE_KNOWLEDGE_MAX - 2;
        let peers = |i: usize| vec![NodeId::new((i * 31 + 7) % START)];
        let nodes = (0..START)
            .map(|i| Flood {
                peers: peers(i),
                seen: false,
            })
            .collect();
        let mut r = Runner::new(nodes, (0..START).map(peers).collect());
        let mut model: BTreeSet<(usize, usize)> = (0..START)
            .flat_map(|i| [(i, i), (i, peers(i)[0].index())])
            .collect();
        let mut fork = r.clone();

        // Five joiners (8,191 … 8,195 nodes), each known to an old node and
        // to its predecessor, then everyone floods: a delivery teaches the
        // receiver its sender.
        let grow = |r: &mut Runner<Flood>, mut learn: Option<&mut BTreeSet<(usize, usize)>>| {
            let mut learn = |u: usize, v: usize| {
                if let Some(model) = learn.as_deref_mut() {
                    model.insert((u, v));
                }
            };
            for j in 0..5 {
                let known = vec![NodeId::new(j * 1000), NodeId::new(START + j - 1)];
                let id = r.add_node(
                    Flood {
                        peers: known.clone(),
                        seen: false,
                    },
                    known.clone(),
                );
                assert_eq!(id.index(), START + j);
                learn(id.index(), id.index());
                known.iter().for_each(|v| learn(id.index(), v.index()));
                r.add_link(NodeId::new(j * 1000), id);
                learn(j * 1000, id.index());
            }
            let mut s = FifoScheduler::new();
            r.enqueue_wake_all(&mut s);
            r.run(&mut s, 100_000).unwrap();
            for u in r.ids() {
                r.node(u)
                    .peers
                    .iter()
                    .for_each(|p| learn(p.index(), u.index()));
            }
        };
        grow(&mut r, Some(&mut model));
        grow(&mut fork, None);

        assert_eq!(r.len(), DENSE_KNOWLEDGE_MAX + 3);
        assert!(r
            .table
            .knowledge
            .iter()
            .all(|set| matches!(set, Knowledge::Dense(_))));
        // Whole rows of every node the growth touched, and the diagonal
        // band of everyone else.
        let touched = (START - 1..r.len()).chain((0..5).map(|j| j * 1000));
        for u in touched {
            for v in 0..r.len() {
                let (a, b) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(r.knows(a, b), model.contains(&(u, v)), "{a} → {b}");
            }
        }
        for u in 0..r.len() {
            for v in u.saturating_sub(2)..(u + 3).min(r.len()) {
                let (a, b) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(r.knows(a, b), model.contains(&(u, v)), "{a} → {b}");
            }
        }
        let edges = (0..r.len())
            .map(|u| r.ids().filter(|&v| r.knows(NodeId::new(u), v)).count())
            .sum::<usize>();
        assert_eq!(edges, model.len());
        assert_eq!(r.state_digest(), fork.state_digest());
    }

    #[test]
    fn id_bits_default_is_log2_n() {
        assert_eq!(line(2).metrics().id_bits(), 1);
        assert_eq!(line(8).metrics().id_bits(), 3);
        assert_eq!(line(9).metrics().id_bits(), 4);
        assert_eq!(line(1024).metrics().id_bits(), 10);
    }
}
