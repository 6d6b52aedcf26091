use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NodeId;

/// A pending-message token handed to schedulers when a message is sent.
///
/// Tokens are anonymous per link: the runner always delivers the *oldest*
/// message of the chosen link, so per-link FIFO order holds no matter which
/// token the scheduler consumes. Schedulers therefore only need to decide
/// *which link* progresses next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendToken {
    /// Sender of the message.
    pub src: NodeId,
    /// Destination of the message.
    pub dst: NodeId,
    /// Global send sequence number (strictly increasing).
    pub seq: u64,
    /// Message kind, as reported by [`Envelope::kind`](crate::Envelope::kind).
    pub kind: &'static str,
}

/// One step the scheduler wants the runner to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Wake the given node (it must have a pending wake-up token).
    Wake(NodeId),
    /// Deliver the oldest in-flight message on the link `src → dst`.
    Deliver {
        /// Sender side of the link.
        src: NodeId,
        /// Receiver side of the link.
        dst: NodeId,
    },
    /// Drop the oldest in-flight message on the link `src → dst` (fault).
    Drop {
        /// Sender side of the link.
        src: NodeId,
        /// Receiver side of the link.
        dst: NodeId,
    },
    /// Duplicate the oldest in-flight message on the link `src → dst`
    /// (fault): a copy is appended behind the current queue tail.
    Duplicate {
        /// Sender side of the link.
        src: NodeId,
        /// Receiver side of the link.
        dst: NodeId,
    },
    /// Crash the given node: its in-flight deliveries, wake-ups and timer
    /// ticks are discarded until a matching [`Choice::Restart`].
    Crash(NodeId),
    /// Restart a crashed node with its durable protocol state intact.
    Restart(NodeId),
    /// Fire the timer tick the given node armed via
    /// [`Context::arm_tick`](crate::Context::arm_tick).
    Tick(NodeId),
    /// Byzantine fabrication: `src` sends `dst` a forged message it never
    /// produced, decoded from `salt` by the protocol's
    /// [`Envelope::forge`](crate::Envelope::forge) hook. Covers both
    /// fabricated ids and equivocation (two `Forge`s with different salts
    /// to different destinations are conflicting payloads). A protocol
    /// whose `forge` returns `None` turns the choice into a no-op.
    Forge {
        /// The Byzantine sender.
        src: NodeId,
        /// The honest (or Byzantine) receiver.
        dst: NodeId,
        /// Protocol-interpreted forgery descriptor (flavor + parameters).
        salt: u32,
    },
    /// Byzantine selective silence: `src` withholds the oldest in-flight
    /// message it has queued toward `dst`. Unlike [`Choice::Drop`] (a
    /// network fault), silence is attributed to the sender — it only
    /// appears on links whose source is a Byzantine node.
    Silence {
        /// The Byzantine sender withholding the message.
        src: NodeId,
        /// The receiver that never sees it.
        dst: NodeId,
    },
    /// Restart a crashed node with *stale* (amnesiac) protocol state: the
    /// node rejoins as if freshly booted, forgetting everything since its
    /// first wake — the paper's model assumes durable state, so this is a
    /// Byzantine deviation.
    StaleRestart(NodeId),
    /// Churn: a node joins the running network (the paper's dynamic
    /// addition — a late wake-up of a node whose initial wake was
    /// withheld by the churn plan).
    Join(NodeId),
    /// Churn: a node leaves permanently. Unlike a crash there is no
    /// matching restart; in-flight traffic to it is discarded forever and
    /// requirement checks exclude it from the survivor graph.
    Leave(NodeId),
}

/// The operands a [`Kind`] takes, in a [`Choice`] and on a schedule line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One node.
    Node,
    /// A directed link `src → dst`.
    Link,
    /// A directed link plus a protocol-interpreted salt.
    LinkSalt,
}

/// Which scheduler token a recorded choice needs in order to be enabled
/// on replay (see [`ReplayScheduler`](crate::ReplayScheduler)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    /// The token announced for exactly this choice (`note_wake`,
    /// `note_send`, `note_tick`); executing consumes it.
    Own,
    /// The link's delivery token, which it consumes (the message is gone).
    Takes,
    /// The link's delivery token, which it leaves (the runner announces
    /// the copy with a token of its own).
    Needs,
    /// None: injected by a plan, never announced.
    Free,
}

/// One row of [`Kind::TABLE`].
#[derive(Clone, Copy, Debug)]
pub struct KindRow {
    /// The kind the row describes; `kind as usize` is the row's index and
    /// its canonical order tag.
    pub kind: Kind,
    /// Directive letter of the schedule file format
    /// ([`Schedule::to_text`](crate::Schedule::to_text)).
    pub letter: char,
    /// Lowest schedule format version that can express the kind.
    pub version: u8,
    /// Verb of a rendered trace line, padded as printed.
    pub verb: &'static str,
    /// The operands it takes.
    pub shape: Shape,
    /// Whether executing it runs a handler on its node (for a link, on the
    /// receiver), which may then send on any of that node's out-links.
    pub(crate) steps: bool,
    /// What must be pending for a replay to execute it.
    pub(crate) token: Token,
}

/// Declares [`Kind`] and [`Kind::TABLE`] from one listing, so a kind's
/// discriminant is its row's index by construction.
macro_rules! kinds {
    ($($kind:ident $letter:literal $version:literal $verb:literal $shape:ident $steps:literal $token:ident)*) => {
        /// The kind of a [`Choice`] without its operands: the simulator's
        /// event alphabet. The paper's model has the first two (a wake-up,
        /// a per-link FIFO delivery); the other ten let faults, traitors
        /// and churn replay byte-exactly.
        ///
        /// Declaration order is the canonical order of
        /// `Choice::sort_key` and the row order of [`Kind::TABLE`],
        /// which states everything else that depends on the kind alone.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind {
            $(#[doc = concat!("[`Choice::", stringify!($kind), "`].")] $kind,)*
        }

        impl Kind {
            /// The event alphabet, one row per kind in canonical order.
            pub const TABLE: [KindRow; 12] = [$(KindRow {
                kind: Kind::$kind,
                letter: $letter,
                version: $version,
                verb: $verb,
                shape: Shape::$shape,
                steps: $steps,
                token: Token::$token,
            }),*];

            /// This kind's row of [`Kind::TABLE`].
            pub fn row(self) -> &'static KindRow {
                &Self::TABLE[self as usize]
            }
        }
    };
}

kinds! {
    // kind      letter  v  trace verb       operands  steps  token
    Wake          'w'    1  "wake   "        Node      true   Own
    Deliver       'd'    1  "deliver"        Link      true   Own
    Drop          'x'    1  "drop   "        Link      false  Takes
    Duplicate     'u'    1  "dup    "        Link      false  Needs
    Crash         'c'    1  "crash  "        Node      false  Free
    Restart       'r'    1  "restart"        Node      true   Free
    Tick          't'    1  "tick   "        Node      true   Own
    Forge         'f'    2  "forge  "        LinkSalt  false  Free
    Silence       's'    2  "silence"        Link      false  Takes
    StaleRestart  'z'    2  "stale-restart"  Node      true   Free
    Join          'j'    2  "join   "        Node      true   Free
    Leave         'l'    2  "leave  "        Node      false  Free
}

impl Choice {
    /// Kind and operands in one match; a node-shaped choice repeats its
    /// node as the second operand, and only a forgery has a salt.
    pub(crate) fn parts(&self) -> (Kind, NodeId, NodeId, u32) {
        match *self {
            Choice::Wake(a) => (Kind::Wake, a, a, 0),
            Choice::Deliver { src, dst } => (Kind::Deliver, src, dst, 0),
            Choice::Drop { src, dst } => (Kind::Drop, src, dst, 0),
            Choice::Duplicate { src, dst } => (Kind::Duplicate, src, dst, 0),
            Choice::Crash(a) => (Kind::Crash, a, a, 0),
            Choice::Restart(a) => (Kind::Restart, a, a, 0),
            Choice::Tick(a) => (Kind::Tick, a, a, 0),
            Choice::Forge { src, dst, salt } => (Kind::Forge, src, dst, salt),
            Choice::Silence { src, dst } => (Kind::Silence, src, dst, 0),
            Choice::StaleRestart(a) => (Kind::StaleRestart, a, a, 0),
            Choice::Join(a) => (Kind::Join, a, a, 0),
            Choice::Leave(a) => (Kind::Leave, a, a, 0),
        }
    }

    /// The choice's kind.
    pub fn kind(&self) -> Kind {
        self.parts().0
    }

    /// The choice's operands as `(a, b, salt)`: the node twice for a
    /// [`Shape::Node`] kind, `(src, dst)` for a link; `salt` is zero unless
    /// the kind is [`Shape::LinkSalt`].
    pub fn operands(&self) -> (NodeId, NodeId, u32) {
        let (_, a, b, salt) = self.parts();
        (a, b, salt)
    }

    /// The choice of `kind` over the given operands — the inverse of
    /// [`kind`](Choice::kind) + [`operands`](Choice::operands). Operands
    /// the kind's shape does not take are ignored.
    pub fn from_parts(kind: Kind, a: NodeId, b: NodeId, salt: u32) -> Choice {
        let (src, dst) = (a, b);
        match kind {
            Kind::Wake => Choice::Wake(a),
            Kind::Deliver => Choice::Deliver { src, dst },
            Kind::Drop => Choice::Drop { src, dst },
            Kind::Duplicate => Choice::Duplicate { src, dst },
            Kind::Crash => Choice::Crash(a),
            Kind::Restart => Choice::Restart(a),
            Kind::Tick => Choice::Tick(a),
            Kind::Forge => Choice::Forge { src, dst, salt },
            Kind::Silence => Choice::Silence { src, dst },
            Kind::StaleRestart => Choice::StaleRestart(a),
            Kind::Join => Choice::Join(a),
            Kind::Leave => Choice::Leave(a),
        }
    }

    /// The node whose state executing the choice reads or writes, if any:
    /// a node-shaped choice's node, a delivery's receiver. The other link
    /// kinds touch queues only.
    pub(crate) fn touched_node(&self) -> Option<NodeId> {
        let (kind, a, b, _) = self.parts();
        let row = kind.row();
        match row.shape {
            Shape::Node => Some(a),
            _ => row.steps.then_some(b),
        }
    }

    /// A total order over choices that depends only on the choice itself
    /// (never on arrival order): kind, then node ids, then salt.
    ///
    /// The explorer's reduced mode drains the tail beyond the decision
    /// window in this canonical order so that two schedules reaching the
    /// same intermediate state (with the same pending multiset) finish
    /// identically — a prerequisite for sound sleep-set pruning on
    /// terminal-state checks.
    pub(crate) fn sort_key(&self) -> (u8, u32, u32, u32) {
        let n = |id: NodeId| u32::try_from(id.index()).expect("node id fits u32");
        let (kind, a, b, salt) = self.parts();
        match kind.row().shape {
            Shape::Node => (kind as u8, n(a), 0, 0),
            _ => (kind as u8, n(a), n(b), salt),
        }
    }
}

/// The state a single executed choice read or wrote, recorded by the
/// runner: node states (protocol state, knowledge set, liveness flags) and
/// link queues. Two choices whose footprints are disjoint commute — running
/// them in either order reaches the same state — which is the independence
/// relation driving the explorer's partial-order reduction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Node states touched (read or written).
    pub nodes: Vec<u32>,
    /// Link queues mutated, as runner link keys (`src << 32 | dst`).
    pub links: Vec<u64>,
    /// `Some(n)` marks a *may* wildcard: the step may push onto any
    /// out-link of node `n`. Exact capture resolves these into `links`;
    /// the wildcard form is used when predicting a not-yet-executed
    /// choice's footprint without topology access.
    pub sends_from: Option<u32>,
    /// Dependent with everything. Set for choices served or perturbed by a
    /// stateful fault/Byzantine/churn layer (RNG draws, position-pinned
    /// timeline events, step-indexed partitions): their effect depends on
    /// the global choice index, so they commute with nothing.
    pub global: bool,
}

impl Footprint {
    /// An empty footprint (conflicts with nothing).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A footprint dependent with everything.
    pub(crate) fn everything() -> Self {
        Footprint {
            global: true,
            ..Self::default()
        }
    }

    /// The *may* footprint of a not-yet-executed choice: everything the
    /// choice could possibly touch, derived from the choice alone (no
    /// topology). Sound over-approximation of the exact footprint the
    /// runner records on execution.
    pub fn may(choice: Choice) -> Self {
        let n = |id: NodeId| u32::try_from(id.index()).expect("node id fits u32");
        let row = choice.kind().row();
        let mut fp = Footprint::new();
        if let Some(node) = choice.touched_node() {
            // A crash or a departure touches liveness flags only: in-flight
            // traffic toward the node is discarded lazily by the delivery
            // attempt, which names its dst here, so the conflict is still
            // seen.
            fp.nodes.push(n(node));
            if row.steps {
                // Steps the node, which may send on any of its out-links.
                fp.sends_from = Some(n(node));
            }
        }
        if row.shape != Shape::Node {
            let (src, dst, _) = choice.operands();
            fp.links.push(crate::runner::link_key(src, dst));
        }
        fp
    }

    /// Clears the footprint for reuse without releasing its buffers.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.links.clear();
        self.sends_from = None;
        self.global = false;
    }

    /// Records a touched node state.
    pub(crate) fn touch_node(&mut self, node: NodeId) {
        let n = u32::try_from(node.index()).expect("node id fits u32");
        if !self.nodes.contains(&n) {
            self.nodes.push(n);
        }
    }

    /// Records a mutated link queue by runner link key.
    pub(crate) fn touch_link(&mut self, key: u64) {
        if !self.links.contains(&key) {
            self.links.push(key);
        }
    }

    /// Unions `other` into `self`, so the merged footprint conflicts with
    /// everything either part conflicts with. Merging two distinct
    /// `sends_from` wildcards has no exact representation and degrades to
    /// [`everything`](Footprint::everything) — conservative, and in
    /// practice unreachable: the explorer merges one scheduler-decided
    /// step (at most one wildcard) with fault-layer steps that are already
    /// global.
    pub(crate) fn merge(&mut self, other: &Footprint) {
        if other.global {
            self.global = true;
        }
        if self.global {
            return;
        }
        for &n in &other.nodes {
            if !self.nodes.contains(&n) {
                self.nodes.push(n);
            }
        }
        for &l in &other.links {
            self.touch_link(l);
        }
        match (self.sends_from, other.sends_from) {
            (_, None) => {}
            (None, from) => self.sends_from = from,
            (Some(a), Some(b)) if a == b => {}
            (Some(_), Some(_)) => self.global = true,
        }
    }

    /// Whether the two footprints are *dependent*: executing the two steps
    /// in the other order could read or write different state. Disjoint
    /// (non-conflicting) footprints commute.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        if self.global || other.global {
            return true;
        }
        if self.nodes.iter().any(|n| other.nodes.contains(n)) {
            return true;
        }
        if self.links.iter().any(|l| other.links.contains(l)) {
            return true;
        }
        let src_of = |l: u64| (l >> 32) as u32;
        if let Some(n) = self.sends_from {
            if other.sends_from == Some(n) || other.links.iter().any(|&l| src_of(l) == n) {
                return true;
            }
        }
        if let Some(n) = other.sends_from {
            if self.links.iter().any(|&l| src_of(l) == n) {
                return true;
            }
        }
        false
    }
}

/// Incremental 64-bit state digest: an FNV-1a seed with a splitmix64
/// finalizer per word, giving order-sensitive, well-mixed hashes that are
/// stable across platforms and job counts (no `RandomState`).
#[derive(Clone, Copy, Debug)]
pub struct StateDigest {
    h: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDigest {
    /// Creates a fresh digest.
    pub fn new() -> Self {
        StateDigest {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Mixes one word into the digest (order-sensitive).
    pub fn mix(&mut self, v: u64) {
        let mut z = self.h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.h = z ^ (z >> 31);
    }

    /// Mixes a byte string (length-prefixed, so concatenations can't
    /// collide).
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// The digest value accumulated so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Message-delay and wake-up-order policy: the "adversary" of the
/// asynchronous model.
///
/// The runner notifies the scheduler of every send and every enqueued
/// wake-up; [`choose`](Scheduler::choose) then picks the next event. The
/// contract is:
///
/// * every token passed to [`note_send`](Scheduler::note_send) /
///   [`note_wake`](Scheduler::note_wake) must eventually be returned by
///   `choose` (finite but *unbounded* delay — an adversary may starve an
///   event only for as long as other events remain);
/// * `choose` returns `None` exactly when no tokens remain, which is the
///   quiescence condition of the paper's liveness requirement.
///
/// Lower-bound adversaries (e.g. the subtree-freezing adversary of
/// Theorem 1) implement this trait; see the `ard-lower-bounds` crate.
pub trait Scheduler {
    /// Observes a node wake-up being enqueued.
    fn note_wake(&mut self, node: NodeId);
    /// Observes a message being sent.
    fn note_send(&mut self, token: SendToken);
    /// Observes a node arming a timer tick (a local event, like a wake-up).
    fn note_tick(&mut self, node: NodeId);
    /// Picks the next event, or `None` if the network is quiescent.
    fn choose(&mut self) -> Option<Choice>;
    /// Number of pending tokens (wake-ups plus messages).
    fn pending(&self) -> usize;

    /// Whether the runner should record an exact [`Footprint`] for each
    /// executed choice and report it via
    /// [`note_footprint`](Scheduler::note_footprint). Defaults to `false`;
    /// the runner skips all footprint bookkeeping when nobody listens.
    fn wants_footprints(&self) -> bool {
        false
    }

    /// Observes the exact footprint of the choice the runner just executed
    /// (only called when [`wants_footprints`](Scheduler::wants_footprints)
    /// returned `true` before the step).
    fn note_footprint(&mut self, _choice: Choice, _footprint: &Footprint) {}

    /// Whether the runner should compute a canonical state digest *before*
    /// the next [`choose`](Scheduler::choose) and report it via
    /// [`note_state_digest`](Scheduler::note_state_digest). Queried every
    /// step, so implementations can switch it off once past the region
    /// they care about (digests cost a full state walk).
    fn wants_state_digest(&self) -> bool {
        false
    }

    /// Observes the canonical digest of the current runner state, taken
    /// just before the upcoming [`choose`](Scheduler::choose).
    fn note_state_digest(&mut self, _digest: u64) {}

    /// Whether the runner should digest the terminal state when a run
    /// completes (one full state walk — too expensive to do unasked on
    /// million-node runs). Defaults to `false`.
    fn wants_terminal_digest(&self) -> bool {
        false
    }

    /// Observes the canonical digest of the terminal (quiescent) runner
    /// state, reported once when a run completes without livelock (only
    /// when [`wants_terminal_digest`](Scheduler::wants_terminal_digest)).
    fn note_terminal_digest(&mut self, _digest: u64) {}
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn note_wake(&mut self, node: NodeId) {
        (**self).note_wake(node);
    }
    fn note_send(&mut self, token: SendToken) {
        (**self).note_send(token);
    }
    fn note_tick(&mut self, node: NodeId) {
        (**self).note_tick(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        (**self).choose()
    }
    fn pending(&self) -> usize {
        (**self).pending()
    }
    fn wants_footprints(&self) -> bool {
        (**self).wants_footprints()
    }
    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        (**self).note_footprint(choice, footprint);
    }
    fn wants_state_digest(&self) -> bool {
        (**self).wants_state_digest()
    }
    fn note_state_digest(&mut self, digest: u64) {
        (**self).note_state_digest(digest);
    }
    fn wants_terminal_digest(&self) -> bool {
        (**self).wants_terminal_digest()
    }
    fn note_terminal_digest(&mut self, digest: u64) {
        (**self).note_terminal_digest(digest);
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn note_wake(&mut self, node: NodeId) {
        (**self).note_wake(node);
    }
    fn note_send(&mut self, token: SendToken) {
        (**self).note_send(token);
    }
    fn note_tick(&mut self, node: NodeId) {
        (**self).note_tick(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        (**self).choose()
    }
    fn pending(&self) -> usize {
        (**self).pending()
    }
    fn wants_footprints(&self) -> bool {
        (**self).wants_footprints()
    }
    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        (**self).note_footprint(choice, footprint);
    }
    fn wants_state_digest(&self) -> bool {
        (**self).wants_state_digest()
    }
    fn note_state_digest(&mut self, digest: u64) {
        (**self).note_state_digest(digest);
    }
    fn wants_terminal_digest(&self) -> bool {
        (**self).wants_terminal_digest()
    }
    fn note_terminal_digest(&mut self, digest: u64) {
        (**self).note_terminal_digest(digest);
    }
}

fn token_choice(token: SendToken) -> Choice {
    Choice::Deliver {
        src: token.src,
        dst: token.dst,
    }
}

/// Delivers every event in global arrival order (wake-ups and sends
/// interleaved exactly as they were enqueued).
///
/// This is the "benign" schedule: a network where every message takes the
/// same unit delay.
///
/// # Example
///
/// ```
/// use ard_netsim::{Choice, FifoScheduler, NodeId, Scheduler, SendToken};
///
/// let mut s = FifoScheduler::new();
/// s.note_wake(NodeId::new(0));
/// s.note_send(SendToken { src: NodeId::new(0), dst: NodeId::new(1), seq: 0, kind: "m" });
/// assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
/// assert!(matches!(s.choose(), Some(Choice::Deliver { .. })));
/// assert_eq!(s.choose(), None);
/// ```
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<Choice>,
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.queue.push_back(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.queue.push_back(token_choice(token));
    }
    fn note_tick(&mut self, node: NodeId) {
        self.queue.push_back(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        self.queue.pop_front()
    }
    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Delivers the *most recent* event first (a stack).
///
/// A simple deterministic "hostile" order that maximally reorders causally
/// independent events; useful for shaking out ordering assumptions in tests.
#[derive(Debug, Default)]
pub struct LifoScheduler {
    stack: Vec<Choice>,
    /// Timer ticks, oldest first; popped only while `stack` is empty.
    ticks: VecDeque<NodeId>,
}

impl LifoScheduler {
    /// Creates an empty LIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LifoScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.stack.push(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.stack.push(token_choice(token));
    }
    fn note_tick(&mut self, node: NodeId) {
        // Timer ticks wait *below* the stack, in a FIFO of their own. A
        // retransmission timer re-arms itself from its own tick handler,
        // so pure LIFO would pop an endless tick cascade and starve every
        // pending delivery forever — violating the Scheduler contract (an
        // event may be starved only while other events remain). Burying
        // ticks keeps LIFO maximally hostile to message order while
        // staying fair to timers.
        self.ticks.push_back(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        self.stack
            .pop()
            .or_else(|| self.ticks.pop_front().map(Choice::Tick))
    }
    fn pending(&self) -> usize {
        self.stack.len() + self.ticks.len()
    }
}

/// Picks a uniformly random pending event each step, from a seeded RNG.
///
/// This explores the space of asynchronous interleavings reproducibly: the
/// same seed yields the same execution. It is the workhorse scheduler of the
/// reproduction's property tests and complexity sweeps.
///
/// # Example
///
/// ```
/// use ard_netsim::{NodeId, RandomScheduler, Scheduler};
///
/// let mut s = RandomScheduler::seeded(42);
/// s.note_wake(NodeId::new(0));
/// s.note_wake(NodeId::new(1));
/// assert!(s.choose().is_some());
/// assert!(s.choose().is_some());
/// assert!(s.choose().is_none());
/// ```
#[derive(Debug)]
pub struct RandomScheduler {
    pool: Vec<Choice>,
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler with the given seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            pool: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.pool.push(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.pool.push(token_choice(token));
    }
    fn note_tick(&mut self, node: NodeId) {
        self.pool.push(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        if self.pool.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.pool.len());
        Some(self.pool.swap_remove(i))
    }
    fn pending(&self) -> usize {
        self.pool.len()
    }
}

/// A *partially synchronous* scheduler: picks randomly like
/// [`RandomScheduler`], but once the oldest pending event has waited
/// `max_delay` scheduling steps it is delivered first — so events drain
/// oldest-first under backlog and nothing is ever starved (an event's wait
/// is bounded by `max_delay` plus the backlog ahead of it).
///
/// Useful for modelling realistic networks (delays vary but are bounded)
/// and for showing that the paper's algorithms, proven for unbounded
/// delays, of course also run under bounded ones. With `max_delay = 1` the
/// schedule degenerates to global FIFO.
///
/// # Example
///
/// ```
/// use ard_netsim::{BoundedDelayScheduler, NodeId, Scheduler};
///
/// let mut s = BoundedDelayScheduler::new(4, 42);
/// s.note_wake(NodeId::new(0));
/// assert!(s.choose().is_some());
/// assert!(s.choose().is_none());
/// ```
#[derive(Debug)]
pub struct BoundedDelayScheduler {
    /// Slab of pending choices; `None` marks a free slot.
    slots: Vec<Option<Choice>>,
    /// Reuse generation per slot, bumped on every free: distinguishes a
    /// reused slot from the stale age-ring entries of its past occupants.
    gen: Vec<u32>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Slots of live events, in arbitrary order — O(1) uniform sampling.
    live: Vec<u32>,
    /// Each slot's current position in `live` — O(1) swap-removal.
    pos_in_live: Vec<u32>,
    /// `(slot, generation, enqueued_step)` in arrival order. Entries whose
    /// event was already delivered (random picks) are dropped lazily, so
    /// the first valid entry is always the oldest live event.
    ring: VecDeque<(u32, u32, u64)>,
    max_delay: u64,
    step: u64,
    rng: StdRng,
}

impl BoundedDelayScheduler {
    /// Creates a scheduler where no event waits more than `max_delay`
    /// scheduling steps (`max_delay ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    pub fn new(max_delay: u64, seed: u64) -> Self {
        assert!(max_delay >= 1, "a zero delay bound admits no schedule");
        BoundedDelayScheduler {
            slots: Vec::new(),
            gen: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            pos_in_live: Vec::new(),
            ring: VecDeque::new(),
            max_delay,
            step: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn insert(&mut self, choice: Choice) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(choice);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count overflows u32");
                self.slots.push(Some(choice));
                self.gen.push(0);
                self.pos_in_live.push(0);
                slot
            }
        };
        self.pos_in_live[slot as usize] =
            u32::try_from(self.live.len()).expect("live count overflows u32");
        self.live.push(slot);
        self.ring
            .push_back((slot, self.gen[slot as usize], self.step));
    }

    fn remove(&mut self, slot: u32) -> Choice {
        let choice = self.slots[slot as usize].take().expect("slot is live");
        self.gen[slot as usize] = self.gen[slot as usize].wrapping_add(1);
        let pos = self.pos_in_live[slot as usize] as usize;
        let last = self.live.pop().expect("live set is non-empty");
        if last != slot {
            self.live[pos] = last;
            self.pos_in_live[last as usize] = pos as u32;
        }
        self.free.push(slot);
        choice
    }
}

impl Scheduler for BoundedDelayScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.insert(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.insert(token_choice(token));
    }
    fn note_tick(&mut self, node: NodeId) {
        self.insert(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        if self.live.is_empty() {
            return None;
        }
        self.step += 1;
        // Drop consumed ring entries so the front is the true oldest event.
        while let Some(&(slot, generation, _)) = self.ring.front() {
            let valid =
                self.slots[slot as usize].is_some() && self.gen[slot as usize] == generation;
            if valid {
                break;
            }
            self.ring.pop_front();
        }
        let overdue = self
            .ring
            .front()
            .is_some_and(|&(_, _, enqueued)| self.step.saturating_sub(enqueued) >= self.max_delay);
        let slot = if overdue {
            self.ring.pop_front().expect("overdue front exists").0
        } else {
            self.live[self.rng.gen_range(0..self.live.len())]
        };
        Some(self.remove(slot))
    }
    fn pending(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(src: usize, dst: usize, seq: u64) -> SendToken {
        SendToken {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            seq,
            kind: "t",
        }
    }

    /// Everything the table decides, per kind: the canonical order tag,
    /// the schedule directive with the header its version implies, and the
    /// trace line, whose padding recorded traces and CLI snapshots depend
    /// on byte for byte.
    #[test]
    fn the_kind_table_states_order_directive_and_trace_line_of_every_kind() {
        use crate::record::{Schedule, SCHEDULE_HEADER, SCHEDULE_HEADER_V2};
        use crate::trace::{Trace, TraceEvent, What};
        let (a, b, other) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let lines = [
            ("w 1\n", "[     3] wake    n1"),
            ("d 1 2\n", "[     3] deliver n1 → n2  search"),
            ("x 1 2\n", "[     3] drop    n1 → n2  search"),
            ("u 1 2\n", "[     3] dup     n1 → n2  search"),
            ("c 1\n", "[     3] crash   n1"),
            ("r 1\n", "[     3] restart n1"),
            ("t 1\n", "[     3] tick    n1"),
            ("f 1 2 7\n", "[     3] forge   n1 → n2  search"),
            ("s 1 2\n", "[     3] silence n1 → n2  search"),
            ("z 1\n", "[     3] stale-restart n1"),
            ("j 1\n", "[     3] join    n1"),
            ("l 1\n", "[     3] leave   n1"),
        ];
        assert_eq!(Kind::TABLE.len(), lines.len());
        let mut trace = Trace::default();
        for (tag, (row, (directive, line))) in Kind::TABLE.iter().zip(lines).enumerate() {
            let choice = Choice::from_parts(row.kind, a, b, 7);
            assert_eq!((row.kind as usize, choice.kind()), (tag, row.kind));
            assert_eq!(choice.sort_key().0 as usize, tag);
            let (x, y, salt) = choice.operands();
            assert_eq!(Choice::from_parts(row.kind, x, y, salt), choice);

            let header = [SCHEDULE_HEADER, SCHEDULE_HEADER_V2][usize::from(row.version - 1)];
            let schedule = Schedule::new(vec![choice]);
            assert_eq!(schedule.to_text(), format!("{header}\n{directive}"));
            assert_eq!(Schedule::parse(&schedule.to_text()).unwrap(), schedule);

            let event = TraceEvent {
                step: 3,
                what: What::Did(choice),
                kind: (row.shape != Shape::Node).then_some("search"),
            };
            assert_eq!(event.to_string(), line);
            trace.push(event);
        }
        let send = TraceEvent {
            step: 3,
            what: What::Send {
                src: a,
                dst: b,
                seq: 9,
            },
            kind: Some("search"),
        };
        assert_eq!(send.to_string(), "[     3] send    n1 → n2  search (#9)");
        trace.push(send);
        // Either end selects an event: all thirteen name n1, the link-shaped
        // five and the send name n2, none names n3.
        assert_eq!(trace.involving(a).count(), 13);
        assert_eq!(trace.involving(b).count(), 6);
        assert_eq!(trace.involving(other).count(), 0);
        // The order is by kind first, whatever the operands.
        assert!(Choice::Wake(other).sort_key() < Choice::Deliver { src: a, dst: a }.sort_key());
        assert_eq!(Choice::Leave(a).sort_key(), (11, 1, 0, 0));
        assert_eq!(
            Choice::Forge {
                src: a,
                dst: b,
                salt: 7
            }
            .sort_key(),
            (7, 1, 2, 7)
        );
    }

    #[test]
    fn fifo_preserves_global_order() {
        let mut s = FifoScheduler::new();
        s.note_send(token(0, 1, 0));
        s.note_wake(NodeId::new(2));
        s.note_send(token(1, 0, 1));
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(2))));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn lifo_reverses_order() {
        let mut s = LifoScheduler::new();
        s.note_wake(NodeId::new(0));
        s.note_wake(NodeId::new(1));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
    }

    #[test]
    fn lifo_keeps_ticks_below_pending_events() {
        let mut s = LifoScheduler::new();
        s.note_send(token(0, 1, 0));
        s.note_tick(NodeId::new(2));
        s.note_send(token(1, 0, 1));
        // Both deliveries (newest first) drain before the buried tick.
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(1),
                dst: NodeId::new(0)
            })
        );
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
        assert_eq!(s.choose(), Some(Choice::Tick(NodeId::new(2))));
        assert_eq!(s.choose(), None);
    }

    /// The stack this scheduler used to be: ticks buried with
    /// `Vec::insert(0, …)` — O(pending) per tick, the reference for order.
    #[derive(Default)]
    struct BuryingStack(Vec<Choice>);

    impl BuryingStack {
        fn note(&mut self, choice: Choice) {
            match choice {
                Choice::Tick(_) => self.0.insert(0, choice),
                _ => self.0.push(choice),
            }
        }
    }

    #[test]
    fn lifo_tick_queue_pops_like_the_burying_stack() {
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = LifoScheduler::new();
            let mut model = BuryingStack::default();
            for seq in 0..400u64 {
                let node = NodeId::new(rng.gen_range(0..8));
                match rng.gen_range(0..7u32) {
                    0 => {
                        s.note_wake(node);
                        model.note(Choice::Wake(node));
                    }
                    1 | 2 => {
                        let t = token(node.index(), rng.gen_range(0..8), seq);
                        s.note_send(t);
                        model.note(token_choice(t));
                    }
                    3 | 4 => {
                        s.note_tick(node);
                        model.note(Choice::Tick(node));
                    }
                    _ => assert_eq!(s.choose(), model.0.pop(), "seed {seed} op {seq}"),
                }
                assert_eq!(s.pending(), model.0.len());
            }
            while let Some(want) = model.0.pop() {
                assert_eq!(s.choose(), Some(want), "seed {seed} drain");
            }
            assert_eq!(s.choose(), None);
            assert_eq!(s.pending(), 0);
        }
    }

    #[test]
    fn bounded_delay_never_starves() {
        // Feed one uniquely-identifiable event per step while draining one
        // per step: an event's wait is bounded by max_delay plus the backlog
        // ahead of it, so its delivery position stays close to its arrival
        // position (no starvation, unlike a pure random scheduler).
        let d = 3usize;
        let mut s = BoundedDelayScheduler::new(d as u64, 0);
        let total = 200usize;
        let mut delivered: Vec<usize> = Vec::new();
        for i in 0..total {
            s.note_send(token(i, i + 1, i as u64)); // src encodes the index
            if let Some(Choice::Deliver { src, .. }) = s.choose() {
                delivered.push(src.index());
            }
        }
        while let Some(Choice::Deliver { src, .. }) = s.choose() {
            delivered.push(src.index());
        }
        assert_eq!(s.pending(), 0);
        assert_eq!(delivered.len(), total);
        for (position, &index) in delivered.iter().enumerate() {
            let displacement = position.abs_diff(index);
            assert!(
                displacement <= 2 * d + 2,
                "event {index} delivered at position {position} (displacement {displacement})"
            );
        }
    }

    #[test]
    fn bounded_delay_forces_overdue_head() {
        let mut s = BoundedDelayScheduler::new(1, 7);
        for i in 0..20 {
            s.note_send(token(i, i + 1, i as u64));
        }
        // With max_delay = 1 every choose must take the oldest event: the
        // schedule degenerates to FIFO.
        for i in 0..20 {
            assert_eq!(
                s.choose(),
                Some(Choice::Deliver {
                    src: NodeId::new(i),
                    dst: NodeId::new(i + 1)
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero delay bound")]
    fn zero_delay_bound_rejected() {
        let _ = BoundedDelayScheduler::new(0, 0);
    }

    #[test]
    fn bounded_delay_drains_oldest_first_under_backlog() {
        // With the whole backlog enqueued at step 0, every choose after the
        // first `d - 1` sees an overdue front: the tail of the drain must be
        // exactly oldest-first, and every event delivered exactly once —
        // this exercises the age ring across heavy lazy deletion (each
        // early random pick leaves a stale ring entry behind).
        let d = 5usize;
        let total = 1000usize;
        let mut s = BoundedDelayScheduler::new(d as u64, 3);
        for i in 0..total {
            s.note_send(token(i, 0, i as u64));
        }
        let mut delivered = Vec::new();
        while let Some(Choice::Deliver { src, .. }) = s.choose() {
            delivered.push(src.index());
        }
        assert_eq!(s.pending(), 0);
        assert_eq!(delivered.len(), total);
        assert!(delivered[d..].windows(2).all(|w| w[0] < w[1]));
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_delay_slab_survives_slot_reuse() {
        // Churn: repeatedly refill and partially drain so freed slots are
        // reused while stale ring entries for their former occupants are
        // still queued. Generation tags must keep a recycled slot's new
        // event from being mistaken for the old (already-delivered) one.
        let mut s = BoundedDelayScheduler::new(3, 11);
        let mut next = 0usize;
        let mut delivered = Vec::new();
        for _ in 0..100 {
            for _ in 0..4 {
                s.note_send(token(next, 0, next as u64));
                next += 1;
            }
            for _ in 0..3 {
                if let Some(Choice::Deliver { src, .. }) = s.choose() {
                    delivered.push(src.index());
                }
            }
        }
        while let Some(Choice::Deliver { src, .. }) = s.choose() {
            delivered.push(src.index());
        }
        assert_eq!(s.pending(), 0);
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..next).collect::<Vec<_>>(), "every event delivered exactly once");
    }

    #[test]
    fn random_is_reproducible_and_exhaustive() {
        let run = |seed| {
            let mut s = RandomScheduler::seeded(seed);
            for i in 0..10 {
                s.note_wake(NodeId::new(i));
            }
            let mut order = Vec::new();
            while let Some(c) = s.choose() {
                order.push(c);
            }
            order
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let mut nodes: Vec<_> = a
            .iter()
            .map(|c| match c {
                Choice::Wake(n) => n.index(),
                _ => unreachable!(),
            })
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..10).collect::<Vec<_>>());
    }
}
