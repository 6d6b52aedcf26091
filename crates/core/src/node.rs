//! The per-node state machine of the generic resource-discovery algorithm
//! (paper §4) and its Bounded / Ad-hoc variants (§4.5).
//!
//! The implementation follows the paper's pseudocode (Figures 2–6) closely;
//! where the pseudocode is terse, the interpretation decisions are the five
//! documented in `DESIGN.md` §4 and are marked `// [D1]`..`// [D5]` below:
//!
//! * **\[D1] selective receive** — the pseudocode blocks on specific message
//!   types ("wait for a query reply"); we defer messages the current state
//!   cannot consume and re-examine them after every state change. As a
//!   consequence a leader is only conquered while in `Wait`/`Passive`,
//!   which Lemma 5.2's deadlock analysis assumes.
//! * **\[D2] wait-on-empty resumes exploring** — §4.1 text: an idle waiting
//!   leader returns to `Explore` when its `more`/`unexplored` sets are
//!   replenished.
//! * **\[D3] leader targets record unknown origins** — the inactive-node
//!   rule "if `id == u.id` and `v.id ∉ local` then `local ∪= {v}`" has a
//!   leader-side analogue needed for liveness (Lemma 5.4's bidirectional-
//!   edge argument): a leader that aborts a search from an unknown origin
//!   adds the origin to `unexplored`.
//! * **\[D4] cluster-disjoint `unexplored`** — when merging an `info` we
//!   subtract the *combined* cluster from `unexplored`, so a leader never
//!   searches its own member (which would abort the component's only
//!   leader).
//! * **\[D5] conquer monotonicity** — §4.4 text: inactive nodes track their
//!   leader's `(phase, id)`; conquer messages always arrive with a strictly
//!   higher phase (asserted) and are always acknowledged.

use std::collections::VecDeque;

use ard_netsim::{Context, Envelope, IdSeq, IdSet, NodeId, Protocol, StateDigest};

use crate::msg::{InfoPayload, Message, Request, Verdict};
use crate::status::{self, PackedLog, Status, Transition};
use crate::{Config, Variant};

/// Sentinel `want` value requesting a member's entire `local` set (used by
/// the unbalanced-queries ablation).
const WANT_ALL: u32 = u32::MAX;

/// View of a protocol node as the [`ArdNode`] it contains, possibly behind
/// envelope layers such as [`Reliable`](crate::Reliable).
///
/// The requirement and invariant checkers in [`crate::invariants`] are
/// generic over this trait, so the same checks run against plain discovery
/// networks and against networks wrapped in the reliable-delivery layer.
pub trait AsArdNode {
    /// The underlying discovery node.
    fn ard(&self) -> &ArdNode;
}

impl AsArdNode for ArdNode {
    fn ard(&self) -> &ArdNode {
        self
    }
}

/// What [`ArdNode::dispatch`] did with a message.
enum Disposition {
    /// The message was consumed by the current state.
    Consumed,
    /// The current state cannot consume it yet; it is handed back for the
    /// deferral queue (\[D1]).
    Deferred(Message),
}

/// A queued request and the neighbour it arrived from.
#[derive(Clone, Copy, Debug)]
struct Queued {
    request: Request,
    peer: NodeId,
}

impl Queued {
    /// # Panics
    ///
    /// Unless `msg` is a search or a probe: nothing else is ever relayed
    /// or deferred.
    fn new(msg: &Message, peer: NodeId) -> Self {
        let request = Request::of(msg).expect("only searches and probes are queued");
        Queued { request, peer }
    }
}

/// The state only a few nodes hold at any moment. A node allocates it on
/// first use and drops it the moment it holds nothing
/// ([`ArdNode::release_drained`]), so a relay between requests, like a node
/// that handed its cluster on, keeps nothing behind.
#[derive(Debug)]
struct Cold {
    /// Relay queue of in-transit searches/probes, each with its sender.
    previous: VecDeque<Queued>,
    /// \[D1] requests the current state cannot consume yet, each with its
    /// sender.
    deferred: VecDeque<Queued>,
    probe_results: Vec<Vec<NodeId>>,
    probes_outstanding: u32,
    /// The transition log beyond the inline [`PackedLog`].
    spill: Vec<Status>,
}

/// What a node without a cold part reads.
static NOTHING: Cold = Cold::new();

impl Cold {
    const fn new() -> Self {
        Cold {
            previous: VecDeque::new(),
            deferred: VecDeque::new(),
            probe_results: Vec::new(),
            probes_outstanding: 0,
            spill: Vec::new(),
        }
    }

    fn holds_nothing(&self) -> bool {
        self.previous.is_empty()
            && self.deferred.is_empty()
            && self.probe_results.is_empty()
            && self.probes_outstanding == 0
            && self.spill.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Cold>()
            + (self.previous.capacity() + self.deferred.capacity()) * size_of::<Queued>()
            + self.probe_results.capacity() * size_of::<Vec<NodeId>>()
            + self
                .probe_results
                .iter()
                .map(|ids| ids.capacity() * size_of::<NodeId>())
                .sum::<usize>()
            + self.spill.capacity() * size_of::<Status>()
    }
}

/// One node running the resource-discovery algorithm.
///
/// The fields mirror the paper's Figure 2: `local`, `more`, `done`,
/// `unaware`, `unexplored`, the `previous` FIFO, the `next` pointer and the
/// `phase` counter. Extra fields are simulation bookkeeping (deferral queue,
/// transition log, probe results). The record every delivery touches is
/// inline; the queues, the probe bookkeeping and the tail of a long
/// transition log sit in a lazily allocated cold part.
///
/// Nodes are driven through [`ard_netsim::Runner`] — see
/// [`Discovery`](crate::Discovery) for the high-level API.
#[derive(Debug)]
pub struct ArdNode {
    id: NodeId,
    variant: Variant,
    config: Config,
    /// Size of this node's weakly connected component; known (non-zero)
    /// only in the Bounded variant.
    component_size: u32,

    status: Status,
    phase: u32,
    next: NodeId,
    local: IdSet,
    more: IdSet,
    done: IdSet,
    unaware: IdSet,
    unexplored: IdSet,
    cold: Option<Box<Cold>>,

    /// `Some(w)` while exploring and awaiting `w`'s query reply.
    awaiting_query_from: Option<NodeId>,
    /// Whether a `Wait` state is for our own search's release (vs idle).
    awaiting_release: bool,
    /// \[D5] the `(phase, id)` of the leader that last conquered us.
    inactive_phase: u32,
    /// Bounded variant: set once the final conquer wave reaches this node
    /// (or, on the leader, once it sends that wave).
    terminated: bool,

    /// The first transitions taken; the rest are `cold.spill`.
    log: PackedLog,
}

impl ArdNode {
    /// Creates a sleeping node that initially knows the ids in `local`
    /// (its out-edges in `E₀`; must not include `id` itself).
    pub fn new(
        id: NodeId,
        local: impl IntoIterator<Item = NodeId>,
        variant: Variant,
        config: Config,
    ) -> Self {
        let local: IdSet = local.into_iter().collect();
        assert!(
            !local.contains(id),
            "a node's local set must not contain itself"
        );
        ArdNode {
            id,
            variant,
            config,
            component_size: 0,
            status: Status::Asleep,
            phase: 1,
            next: id,
            local,
            more: IdSet::from_iter([id]),
            done: IdSet::new(),
            unaware: IdSet::new(),
            unexplored: IdSet::new(),
            cold: None,
            awaiting_query_from: None,
            awaiting_release: false,
            inactive_phase: 0,
            terminated: false,
            log: PackedLog::new(),
        }
    }

    /// Bounded variant: informs the node of its component's size (must be
    /// called before it wakes).
    pub fn set_component_size(&mut self, n: usize) {
        assert_eq!(
            self.variant,
            Variant::Bounded,
            "only the Bounded variant knows sizes"
        );
        self.component_size = u32::try_from(n).expect("component size exceeds u32::MAX");
    }

    // ------------------------------------------------------------------
    // Read-only accessors (used by the driver, invariants and tests).
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current state.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Whether the node is currently a leader (explore/wait/conqueror).
    pub fn is_leader(&self) -> bool {
        self.status.is_leader()
    }

    /// Current phase (starts at 1 and only grows).
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Current `next` pointer (self while still a leader).
    pub fn next_pointer(&self) -> NodeId {
        self.next
    }

    /// The `more` set: cluster members that may still have unreported ids.
    pub fn more(&self) -> &IdSet {
        &self.more
    }

    /// The `done` set: cluster members that reported everything.
    pub fn done(&self) -> &IdSet {
        &self.done
    }

    /// The `unaware` set (generic variant only): new members not yet told
    /// of their leader.
    pub fn unaware(&self) -> &IdSet {
        &self.unaware
    }

    /// The `unexplored` set: known ids outside the cluster.
    pub fn unexplored(&self) -> &IdSet {
        &self.unexplored
    }

    /// The undrained part of the initial knowledge.
    pub fn local(&self) -> &IdSet {
        &self.local
    }

    /// Bounded variant: whether this node has terminated.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// The log of state transitions taken so far, oldest first.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        status::transitions(self.log.iter().chain(self.cold().spill.iter().copied()))
    }

    /// Snapshots received in answer to this node's probes (Ad-hoc variant),
    /// oldest first.
    pub(crate) fn probe_results(&self) -> &[Vec<NodeId>] {
        &self.cold().probe_results
    }

    /// Number of probes issued but not yet answered.
    pub(crate) fn probes_outstanding(&self) -> usize {
        self.cold().probes_outstanding as usize
    }

    /// Messages deferred by the current state (\[D1]); must be empty at
    /// quiescence.
    pub(crate) fn deferred_len(&self) -> usize {
        self.cold().deferred.len()
    }

    /// Relayed searches/probes awaiting their release; must be empty at
    /// quiescence.
    pub(crate) fn previous_len(&self) -> usize {
        self.cold().previous.len()
    }

    /// Heap bytes this node owns — the five sets and the cold part — by
    /// capacity, not occupancy.
    pub fn heap_bytes(&self) -> usize {
        [
            &self.local,
            &self.more,
            &self.done,
            &self.unaware,
            &self.unexplored,
        ]
        .into_iter()
        .map(IdSet::heap_bytes)
        .sum::<usize>()
            + self.cold.as_deref().map_or(0, Cold::heap_bytes)
    }

    /// The cold part to read: an absent one reads as empty.
    fn cold(&self) -> &Cold {
        self.cold.as_deref().unwrap_or(&NOTHING)
    }

    /// The cold part to write, allocated on first use.
    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(|| Box::new(Cold::new()))
    }

    /// Frees what the handler that just ran emptied: the whole cold part
    /// once it holds nothing, else a drained queue's buffer. Nothing is
    /// kept "for next time" — three quarters of all queue pushes find the
    /// queue empty, and a kept 4-slot buffer on every node that ever
    /// relayed was a quarter of a large run's per-node memory.
    fn release_drained(&mut self) {
        let Some(cold) = &mut self.cold else { return };
        if cold.holds_nothing() {
            self.cold = None;
            return;
        }
        for queue in [&mut cold.previous, &mut cold.deferred] {
            if queue.is_empty() {
                *queue = VecDeque::new();
            }
        }
    }

    fn in_cluster(&self, v: NodeId) -> bool {
        self.more.contains(v) || self.done.contains(v) || self.unaware.contains(v)
    }

    fn cluster_size(&self) -> usize {
        self.more.len() + self.done.len() + self.unaware.len()
    }

    fn set_status(&mut self, to: Status) {
        if self.status != to {
            if !self.log.push(to) {
                self.cold_mut().spill.push(to);
            }
            self.status = to;
        }
    }

    fn lex_pair(&self) -> (u32, NodeId) {
        (self.phase, self.id)
    }

    /// Terminal arm for a message the current state can never consume.
    ///
    /// In honest runs such a message proves a local bug, so we panic. Under
    /// Byzantine faults "impossible" messages are forged, not buggy:
    /// [`Config::byzantine_tolerant`] turns every one of these sites into a
    /// silent drop, which is the strongest defensible reaction for a node
    /// that cannot authenticate senders.
    fn unexpected(&self, msg: Message) -> Disposition {
        assert!(
            self.config.byzantine_tolerant,
            "{}: unexpected {:?} in {}",
            self.id,
            msg,
            self.status
        );
        Disposition::Consumed
    }

    // ------------------------------------------------------------------
    // External commands (issued by the driver, not triggered by messages).
    // ------------------------------------------------------------------

    /// Ad-hoc variant: request the current snapshot of the component's ids
    /// from the leader (§4.5.2). On a leader this answers immediately; on an
    /// inactive or passive node it routes a probe along `next` pointers.
    ///
    /// # Panics
    ///
    /// Panics if called on a node in a transient state (`Conquered`,
    /// `Conqueror`, `Asleep`) — probe issuers must be settled nodes.
    pub(crate) fn start_probe(&mut self, ctx: &mut Context<'_, Message>) {
        match self.status {
            Status::Explore | Status::Wait | Status::Passive => {
                // We are our own (possibly provisional) leader.
                let snap = self.snapshot();
                self.cold_mut().probe_results.push(snap.to_vec());
            }
            Status::Inactive => {
                self.cold_mut().probes_outstanding += 1;
                ctx.send(self.next, Message::Probe { origin: self.id });
            }
            other => panic!("cannot probe from transient state {other}"),
        }
    }

    /// Dynamic link addition (§6): this node has just learned `v`'s id.
    ///
    /// If the node has not yet reported all its edges, the new edge simply
    /// joins `local` (case 1). If it already reported everything (case 2),
    /// it notifies its leader with a `new`-flagged search so the leader
    /// moves it from `done` back to `more` and re-queries it later.
    pub(crate) fn add_dynamic_edge(&mut self, v: NodeId, ctx: &mut Context<'_, Message>) {
        self.record_new_id(v, ctx);
    }

    /// Records an id this node just learned, whatever its state — the §6
    /// dynamic-edge logic, which is also what liveness requires when a node
    /// answers `merge fail` (it learned the id of a leader that is about to
    /// go passive and would otherwise become undiscoverable; this is the
    /// "bidirectional edge" of Lemma 5.4's argument).
    ///
    /// Notification searches carry `origin_phase = 0`, which loses every
    /// `(phase, id)` comparison (real phases start at 1): they nudge the
    /// leader to re-query, and can never conquer it.
    fn record_new_id(&mut self, v: NodeId, ctx: &mut Context<'_, Message>) {
        if v == self.id {
            return;
        }
        match self.status {
            Status::Inactive => {
                if self.local.contains(v) {
                    return;
                }
                let already_reported_all = self.local.is_empty();
                self.local.insert(v);
                if already_reported_all {
                    // Case 2: the leader believes we are `done`; send a
                    // new-flagged search targeting ourself so it moves us
                    // back to `more` and re-queries us.
                    ctx.send(
                        self.next,
                        Message::Search {
                            origin: self.id,
                            origin_phase: 0,
                            target: self.id,
                            new_edge: true,
                        },
                    );
                }
                // Case 1 (local non-empty): counts as a not-yet-reported
                // edge; nothing else to do.
            }
            Status::Asleep => {
                self.local.insert(v);
            }
            Status::Explore | Status::Wait | Status::Conqueror => {
                // A leader learns a new id: straight into `unexplored`.
                if !self.in_cluster(v) {
                    self.unexplored.insert(v);
                    if self.status == Status::Wait && !self.awaiting_release {
                        self.explore_step(ctx); // [D2]
                    }
                }
            }
            Status::Passive | Status::Conquered => {
                // Will be handed over in our eventual `info`.
                if !self.in_cluster(v) && !self.local.contains(v) {
                    self.unexplored.insert(v);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The explore loop (paper Figure 3).
    // ------------------------------------------------------------------

    /// Runs the EXPLORE procedure until it blocks: either a search is sent
    /// (→ `Wait`, awaiting release), a query is sent (stay in `Explore`,
    /// awaiting reply), or both sets are empty (→ idle `Wait`).
    fn explore_step(&mut self, ctx: &mut Context<'_, Message>) {
        loop {
            self.set_status(Status::Explore);
            // 1. Search an unexplored node, if any.
            if let Some(u) = self.pop_unexplored() {
                ctx.send(
                    u,
                    Message::Search {
                        origin: self.id,
                        origin_phase: self.phase,
                        target: u,
                        new_edge: false,
                    },
                );
                self.awaiting_release = true;
                self.set_status(Status::Wait);
                return;
            }
            // 2. Otherwise query a member that may know more ids.
            if let Some(w) = self.more.first() {
                let want = if self.config.balanced_queries {
                    (self.more.len() + self.done.len() + 1) as u32
                } else {
                    WANT_ALL
                };
                if w == self.id {
                    // The leader itself may appear in `more`; the paper has
                    // it "simulate the message sending internally".
                    let (ids, exhausted) = self.take_local(want);
                    self.absorb_query_reply(w, ids, exhausted);
                    self.maybe_terminate_bounded(ctx);
                    continue;
                }
                ctx.send(w, Message::Query { want });
                self.awaiting_query_from = Some(w);
                return;
            }
            // 3. Both empty: wait for `more` to be replenished. [D2]
            self.awaiting_release = false;
            self.set_status(Status::Wait);
            return;
        }
    }

    /// Picks (and removes) the first genuinely unexplored node.
    fn pop_unexplored(&mut self) -> Option<NodeId> {
        while let Some(u) = self.unexplored.pop_first() {
            // [D4] maintained at merge time; this is a defensive recheck.
            if u != self.id && !self.in_cluster(u) {
                return Some(u);
            }
            debug_assert!(false, "cluster member {u} leaked into unexplored");
        }
        None
    }

    /// Removes up to `want` ids from `local` (the queried member's side).
    /// A `want` that covers `local` moves the whole set into the reply.
    fn take_local(&mut self, want: u32) -> (IdSet, bool) {
        // `WANT_ALL` exceeds every set size, so it needs no case of its own.
        let ids = self.local.take_prefix(want as usize);
        (ids, self.local.is_empty())
    }

    /// Leader-side bookkeeping for a query reply from `w`.
    fn absorb_query_reply(&mut self, w: NodeId, ids: IdSet, exhausted: bool) {
        if exhausted {
            self.more.remove(w);
            self.done.insert(w);
        }
        ids.for_each(|v| {
            if v != self.id && !self.in_cluster(v) {
                self.unexplored.insert(v);
            }
        });
    }

    /// Bounded variant: check `|done| = n` and, if reached, broadcast the
    /// final conquer wave and terminate (paper §4.5.1). The caller then
    /// falls through the explore loop into an idle `Wait`, where the
    /// `more/done` acknowledgements of the final wave are absorbed.
    fn maybe_terminate_bounded(&mut self, ctx: &mut Context<'_, Message>) {
        if self.variant != Variant::Bounded || self.terminated {
            return;
        }
        // A Bounded node knows its component's size from before it woke
        // (`on_wake` asserts it).
        if self.done.len() == self.component_size as usize {
            debug_assert!(self.more.is_empty());
            for u in self.done.iter() {
                if u != self.id {
                    ctx.send(u, Message::Conquer { phase: self.phase });
                }
            }
            self.terminated = true;
        }
    }

    // ------------------------------------------------------------------
    // Message dispatch.
    // ------------------------------------------------------------------

    /// Routes a message to the current state's handler; returns it for
    /// deferral when the state cannot consume it ([D1]).
    fn dispatch(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        match self.status {
            Status::Asleep => unreachable!("runner wakes nodes before delivering to them"),
            Status::Explore => self.on_explore(from, msg, ctx),
            Status::Wait | Status::Passive => self.on_wait_or_passive(from, msg, ctx),
            Status::Conquered => self.on_conquered(from, msg, ctx),
            Status::Conqueror => self.on_conqueror(from, msg, ctx),
            Status::Inactive => self.on_inactive(from, msg, ctx),
        }
    }

    /// Whether the current state can consume deferred messages at all. The
    /// busy states defer every `search`/`probe` [D1], so pumping them would
    /// re-defer the entire queue without progress — and the Bounded/Ad-hoc
    /// endgame leader sits in `Explore` with an O(n) queue while absorbing
    /// O(n) query replies, so those no-op scans are a hidden quadratic.
    /// Skipping them is exact: re-deferral has no side effects and the
    /// scan preserves queue order, so the schedule is unchanged.
    fn can_consume_deferred(&self) -> bool {
        matches!(
            self.status,
            Status::Wait | Status::Passive | Status::Inactive
        )
    }

    /// Re-attempts deferred messages after a state change, preserving their
    /// FIFO order, until a full pass makes no progress.
    fn pump_deferred(&mut self, ctx: &mut Context<'_, Message>) {
        loop {
            let mut progressed = false;
            for _ in 0..self.deferred_len() {
                if !self.can_consume_deferred() {
                    return;
                }
                let queued = self.cold_mut().deferred.pop_front().expect("len checked");
                match self.dispatch(queued.peer, queued.request.message(), ctx) {
                    Disposition::Consumed => progressed = true,
                    Disposition::Deferred(_) => self.cold_mut().deferred.push_back(queued),
                }
            }
            if !progressed || self.deferred_len() == 0 {
                return;
            }
        }
    }

    // --- Explore: only the awaited query reply is consumable. -----------

    fn on_explore(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        match msg {
            Message::QueryReply { ids, exhausted } => {
                if self.awaiting_query_from != Some(from) {
                    assert!(
                        self.config.byzantine_tolerant,
                        "query reply from unexpected sender"
                    );
                    return Disposition::Consumed;
                }
                self.awaiting_query_from = None;
                self.absorb_query_reply(from, ids, exhausted);
                self.maybe_terminate_bounded(ctx);
                // After termination the sets are exhausted, so this falls
                // straight through to an idle Wait.
                self.explore_step(ctx);
                Disposition::Consumed
            }
            Message::MoreDone { exhausted } if self.terminated => {
                // Bounded: a late `new`-flagged refill can send a terminated
                // leader back through Explore while its final conquer wave's
                // acknowledgements are still landing.
                self.absorb_final_ack(from, exhausted);
                Disposition::Consumed
            }
            m @ (Message::Search { .. } | Message::Probe { .. }) => Disposition::Deferred(m), // [D1]
            other => self.unexpected(other),
        }
    }

    /// Bounded variant: absorbs a `more/done` acknowledgement of the final
    /// conquer wave on the already-terminated leader.
    fn absorb_final_ack(&mut self, from: NodeId, exhausted: bool) {
        debug_assert_eq!(self.variant, Variant::Bounded);
        if exhausted {
            if !self.more.contains(from) {
                self.done.insert(from);
            }
        } else {
            self.done.remove(from);
            self.more.insert(from);
        }
    }

    // --- Wait / Passive (paper Figure 4). --------------------------------

    fn on_wait_or_passive(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        let passive = self.status == Status::Passive;
        match msg {
            Message::Search {
                origin,
                origin_phase,
                target,
                new_edge,
            } => {
                if new_edge && self.done.remove(target) {
                    self.more.insert(target);
                }
                if (origin_phase, origin) > self.lex_pair() {
                    // Surrender: ask to merge into the stronger leader.
                    ctx.send(
                        from,
                        Message::Release {
                            leader: self.id,
                            leader_phase: self.phase,
                            verdict: Verdict::Merge,
                            dest: origin,
                        },
                    );
                    self.set_status(Status::Conquered);
                } else {
                    // [D3] remember unknown origins so the component's
                    // knowledge graph stays discoverable.
                    if origin != self.id
                        && !self.in_cluster(origin)
                        && !self.local.contains(origin)
                    {
                        self.unexplored.insert(origin);
                    }
                    ctx.send(
                        from,
                        Message::Release {
                            leader: self.id,
                            leader_phase: self.phase,
                            verdict: Verdict::Abort,
                            dest: origin,
                        },
                    );
                    // [D2] an idle waiter may now have work again.
                    if !passive
                        && !self.awaiting_release
                        && (!self.more.is_empty() || !self.unexplored.is_empty())
                    {
                        self.explore_step(ctx);
                    }
                }
                Disposition::Consumed
            }
            Message::Release {
                leader,
                verdict,
                dest,
                ..
            } if dest == self.id => {
                if passive {
                    // A stale answer to the search we sent before going
                    // passive/conquered; refuse any merge, but remember the
                    // refused leader (Lemma 5.4 liveness — it goes passive
                    // and must stay discoverable).
                    if verdict == Verdict::Merge {
                        ctx.send(leader, Message::MergeFail);
                        self.record_new_id(leader, ctx);
                    }
                } else {
                    if !self.awaiting_release {
                        assert!(
                            self.config.byzantine_tolerant,
                            "release for a search we never sent"
                        );
                        return Disposition::Consumed;
                    }
                    self.awaiting_release = false;
                    match verdict {
                        Verdict::Abort => self.set_status(Status::Passive),
                        Verdict::Merge => {
                            self.set_status(Status::Conqueror);
                            ctx.send(leader, Message::MergeAccept);
                        }
                    }
                }
                Disposition::Consumed
            }
            Message::Probe { origin } => {
                // Leaders (and provisional passive ex-leaders) answer with
                // their current snapshot; path compression happens en route.
                let ids = self.snapshot();
                ctx.send(
                    from,
                    Message::ProbeReply {
                        leader: self.id,
                        leader_phase: self.phase,
                        dest: origin,
                        ids,
                    },
                );
                Disposition::Consumed
            }
            Message::MoreDone { exhausted } if self.terminated => {
                // Bounded variant: acknowledgements of the final conquer
                // wave reaching the already-terminated leader. A `more`
                // answer (late refill) sends the leader back to Explore to
                // drain it ([D2]).
                self.absorb_final_ack(from, exhausted);
                if !passive && !self.awaiting_release && !self.more.is_empty() {
                    self.explore_step(ctx);
                }
                Disposition::Consumed
            }
            other => self.unexpected(other),
        }
    }

    /// The ids this (possibly provisional) leader knows of its component.
    /// Three ascending segments, so the sequence run-codes well.
    fn snapshot(&self) -> IdSeq {
        let mut ids = IdSeq::new();
        for set in [&self.more, &self.done, &self.unaware] {
            set.for_each(|v| ids.push(v));
        }
        ids
    }

    // --- Conquered (paper Figure 6, top). --------------------------------

    fn on_conquered(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        match msg {
            Message::Release {
                leader,
                verdict,
                dest,
                ..
            } if dest == self.id => {
                // Answer to the search we had in flight when we surrendered;
                // remember a refused leader (Lemma 5.4 liveness).
                if verdict == Verdict::Merge {
                    ctx.send(leader, Message::MergeFail);
                    self.record_new_id(leader, ctx);
                }
                Disposition::Consumed
            }
            Message::MergeFail => {
                self.set_status(Status::Passive);
                Disposition::Consumed
            }
            Message::MergeAccept => {
                self.next = from;
                // The sets themselves travel with the info; what stays
                // behind is empty and unallocated, so an inactive node
                // keeps no heap for them.
                let info = InfoPayload {
                    phase: self.phase,
                    more: std::mem::take(&mut self.more),
                    done: std::mem::take(&mut self.done),
                    unaware: std::mem::take(&mut self.unaware),
                    unexplored: std::mem::take(&mut self.unexplored),
                };
                ctx.send(from, Message::Info(Box::new(info)));
                self.inactive_phase = self.phase;
                self.set_status(Status::Inactive);
                Disposition::Consumed
            }
            m @ (Message::Search { .. } | Message::Probe { .. }) => Disposition::Deferred(m), // [D1]
            other => self.unexpected(other),
        }
    }

    // --- Conqueror (paper Figure 6, bottom). ------------------------------

    fn on_conqueror(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        match msg {
            Message::Info(info) => {
                let InfoPayload {
                    phase,
                    more,
                    done,
                    unaware,
                    unexplored,
                } = *info;
                self.merge_info(phase, more, done, unaware, unexplored, ctx);
                Disposition::Consumed
            }
            Message::MoreDone { exhausted } => {
                if !self.unaware.remove(from) {
                    assert!(
                        self.config.byzantine_tolerant,
                        "more/done from a node not in unaware"
                    );
                    return Disposition::Consumed;
                }
                if exhausted {
                    self.done.insert(from);
                } else {
                    self.more.insert(from);
                }
                if self.unaware.is_empty() {
                    self.explore_step(ctx);
                }
                Disposition::Consumed
            }
            m @ (Message::Search { .. } | Message::Probe { .. }) => Disposition::Deferred(m), // [D1]
            other => self.unexpected(other),
        }
    }

    /// Absorbs a surrendered leader's state (paper §4.4, or the simplified
    /// §4.5 merge for the variants) and advances the phase.
    fn merge_info(
        &mut self,
        l_phase: u32,
        l_more: IdSet,
        l_done: IdSet,
        l_unaware: IdSet,
        l_unexplored: IdSet,
        ctx: &mut Context<'_, Message>,
    ) {
        debug_assert!(
            l_unaware.is_empty(),
            "a conqueror cannot be conquered mid-conquest, so shipped unaware is empty"
        );
        if self.variant.broadcasts_each_merge() {
            // Generic: every acquired member goes through `unaware` and gets
            // a conquer message.
            for shipped in [&l_more, &l_done, &l_unaware] {
                shipped.for_each(|v| {
                    self.unaware.insert(v);
                });
            }
        } else {
            // Variants (§4.5): set unions, no broadcast.
            //
            // `more` and `done` are disjoint before the merge (every other
            // mutation moves a member between them atomically), so only the
            // shipped ids can collide with the other set. A member may
            // arrive in `done` while we hold it in `more` (or vice versa)
            // across epochs; `more` ("may have more ids") wins. Resolving
            // against the payload instead of scanning `self.more` keeps a
            // merge O(shipped log n) — the conqueror's own sets are O(n) in
            // the endgame, and an O(n) scan per merge is quadratic overall.
            debug_assert!(self.more.iter().all(|v| !self.done.contains(v)));
            l_more.for_each(|v| {
                self.more.insert(v);
                self.done.remove(v);
            });
            l_done.for_each(|v| {
                if self.more.contains(v) {
                    self.done.remove(v);
                } else {
                    self.done.insert(v);
                }
            });
        }
        l_unexplored.for_each(|v| {
            if v != self.id && !self.in_cluster(v) {
                self.unexplored.insert(v);
            }
        });
        // [D4] newly acquired members must leave `unexplored`.
        for v in l_more.iter().chain(l_done.iter()).chain(l_unaware.iter()) {
            self.unexplored.remove(v);
        }
        // Phase advance (doubling rule, Lemma 5.10's invariant).
        if self.phase == l_phase || self.cluster_size() as u64 >= 1u64 << (self.phase + 1) {
            self.phase += 1;
        }
        debug_assert!((self.cluster_size() as u64) < 1u64 << (self.phase + 1));

        if self.variant.broadcasts_each_merge() {
            for u in self.unaware.iter() {
                debug_assert_ne!(u, self.id);
                ctx.send(u, Message::Conquer { phase: self.phase });
            }
            if self.unaware.is_empty() {
                self.explore_step(ctx);
            }
            // else: remain Conqueror until all more/done acks arrive.
        } else {
            self.maybe_terminate_bounded(ctx);
            self.explore_step(ctx);
        }
    }

    // --- Inactive (paper Figure 5). ---------------------------------------

    fn on_inactive(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Disposition {
        match msg {
            Message::Query { want } => {
                let (ids, exhausted) = self.take_local(want);
                ctx.send(from, Message::QueryReply { ids, exhausted });
                Disposition::Consumed
            }
            Message::Search {
                origin,
                origin_phase,
                target,
                mut new_edge,
            } => {
                if target == self.id && origin != self.id && !self.local.contains(origin) {
                    // Reverse-edge bookkeeping (§4.2): the target learns the
                    // origin and flags it so the leader re-queries us.
                    self.local.insert(origin);
                    new_edge = true;
                }
                self.enqueue_routable(
                    Message::Search {
                        origin,
                        origin_phase,
                        target,
                        new_edge,
                    },
                    from,
                    ctx,
                );
                Disposition::Consumed
            }
            Message::Probe { origin } => {
                self.enqueue_routable(Message::Probe { origin }, from, ctx);
                Disposition::Consumed
            }
            Message::Release {
                leader,
                leader_phase,
                verdict,
                dest,
            } => {
                if dest == self.id {
                    // Stale answer to a search we sent while still a leader;
                    // remember a refused leader (Lemma 5.4 liveness).
                    if verdict == Verdict::Merge {
                        ctx.send(leader, Message::MergeFail);
                        self.record_new_id(leader, ctx);
                    }
                } else {
                    self.route_reply_back(
                        leader,
                        leader_phase,
                        Message::Release {
                            leader,
                            leader_phase,
                            verdict,
                            dest,
                        },
                        ctx,
                    );
                }
                Disposition::Consumed
            }
            Message::ProbeReply {
                leader,
                leader_phase,
                dest,
                ids,
            } => {
                if dest == self.id {
                    if self.probes_outstanding() == 0 {
                        // Only forgery produces an unsolicited probe reply.
                        debug_assert!(self.config.byzantine_tolerant, "unsolicited probe reply");
                        return Disposition::Consumed;
                    }
                    self.cold_mut().probes_outstanding -= 1;
                    // The requester compresses its own pointer too ([D6]
                    // staleness guard applies as everywhere).
                    if self.config.path_compression && leader_phase >= self.inactive_phase {
                        self.next = leader;
                    }
                    self.cold_mut().probe_results.push(ids.to_vec());
                } else {
                    self.route_reply_back(
                        leader,
                        leader_phase,
                        Message::ProbeReply {
                            leader,
                            leader_phase,
                            dest,
                            ids,
                        },
                        ctx,
                    );
                }
                Disposition::Consumed
            }
            Message::Conquer { phase } => {
                // [D5] conquers arrive with strictly increasing phases; only
                // a forged conquer can violate the monotonicity, and obeying
                // it would roll the leader pointer back to the forger.
                if phase <= self.inactive_phase {
                    debug_assert!(
                        self.config.byzantine_tolerant,
                        "{}: conquer phase {phase} not above {}",
                        self.id,
                        self.inactive_phase
                    );
                    return Disposition::Consumed;
                }
                self.next = from;
                self.inactive_phase = phase;
                if self.variant == Variant::Bounded {
                    self.terminated = true;
                }
                ctx.send(
                    from,
                    Message::MoreDone {
                        exhausted: self.local.is_empty(),
                    },
                );
                Disposition::Consumed
            }
            other => self.unexpected(other),
        }
    }

    /// Relay discipline for leaf-to-leader requests (§4.2): enqueue the
    /// request and forward it only if it is alone in the queue — at most one
    /// request per relay is in flight toward the leader.
    fn enqueue_routable(&mut self, msg: Message, from: NodeId, ctx: &mut Context<'_, Message>) {
        let previous = &mut self.cold_mut().previous;
        previous.push_back(Queued::new(&msg, from));
        if previous.len() == 1 {
            ctx.send(self.next, msg);
        }
    }

    /// Relay discipline for leader-to-leaf replies: pop the matching
    /// request, compress the path (point `next` at the answering leader),
    /// forward the reply toward the requester, and launch the next queued
    /// request along the *compressed* pointer.
    ///
    /// [D6] staleness guard: compression applies only when the reply's
    /// epoch is at least our conquer epoch — an in-flight release from an
    /// older epoch must not overwrite a newer conquer wave's pointer.
    fn route_reply_back(
        &mut self,
        leader: NodeId,
        leader_phase: u32,
        reply: Message,
        ctx: &mut Context<'_, Message>,
    ) {
        let Some(answered) = self.cold.as_mut().and_then(|c| c.previous.pop_front()) else {
            // A reply with no request is either a bug or a forgery; under
            // Byzantine tolerance we drop it rather than misroute it.
            assert!(
                self.config.byzantine_tolerant,
                "reply arrived with no matching relayed request"
            );
            return;
        };
        if self.config.path_compression && leader_phase >= self.inactive_phase {
            self.next = leader;
        }
        ctx.send(answered.peer, reply);
        if let Some(waiting) = self.cold().previous.front() {
            ctx.send(self.next, waiting.request.message());
        }
    }
}

impl Protocol for ArdNode {
    type Message = Message;

    fn on_wake(&mut self, ctx: &mut Context<'_, Message>) {
        assert_eq!(self.status, Status::Asleep, "woken twice");
        if self.variant == Variant::Bounded {
            assert!(
                self.component_size != 0,
                "Bounded node woken without its component size"
            );
        }
        self.set_status(Status::Explore);
        self.explore_step(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
        match self.dispatch(from, msg, ctx) {
            Disposition::Consumed => {
                self.pump_deferred(ctx);
                self.release_drained();
            }
            Disposition::Deferred(m) => self.cold_mut().deferred.push_back(Queued::new(&m, from)),
        }
    }

    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Message>) {
        // Amnesiac rejoin: the node comes back with its boot image.
        // Everything learned since waking — cluster sets, phase, the leader
        // pointer — is lost; only the undrained remainder of `local` (initial
        // knowledge it never reported) survives. It then wakes again as a
        // fresh phase-1 leader of the singleton cluster `{self}`, which is
        // exactly the stale state the single-leader guarantee must survive.
        self.set_status(Status::Asleep);
        self.phase = 1;
        self.next = self.id;
        self.more = IdSet::from_iter([self.id]);
        self.done.clear();
        self.unaware.clear();
        self.unexplored.clear();
        if let Some(cold) = &mut self.cold {
            cold.previous.clear();
            cold.deferred.clear();
            cold.probes_outstanding = 0;
        }
        self.release_drained();
        self.awaiting_query_from = None;
        self.awaiting_release = false;
        self.inactive_phase = 0;
        self.terminated = false;
        self.on_wake(ctx);
    }

    fn digest_state(&self, d: &mut StateDigest) {
        d.mix(self.status as u64);
        d.mix(u64::from(self.phase));
        d.mix(self.next.index() as u64);
        for set in [
            &self.local,
            &self.more,
            &self.done,
            &self.unaware,
            &self.unexplored,
        ] {
            d.mix(set.len() as u64);
            set.for_each(|id| d.mix(id.index() as u64));
        }
        // A queued request digests as the message it stands for.
        let cold = self.cold();
        d.mix(cold.previous.len() as u64);
        for queued in &cold.previous {
            queued.request.message().digest(d);
            d.mix(queued.peer.index() as u64);
        }
        d.mix(cold.deferred.len() as u64);
        for queued in &cold.deferred {
            d.mix(queued.peer.index() as u64);
            queued.request.message().digest(d);
        }
        match self.awaiting_query_from {
            Some(w) => d.mix(1 + w.index() as u64),
            None => d.mix(0),
        }
        d.mix(u64::from(self.awaiting_release));
        d.mix(u64::from(self.inactive_phase));
        d.mix(u64::from(self.terminated));
        d.mix(u64::from(cold.probes_outstanding));
        d.mix(cold.probe_results.len() as u64);
        for ids in &cold.probe_results {
            d.mix(ids.len() as u64);
            for id in ids {
                d.mix(id.index() as u64);
            }
        }
        // The transition log is deliberately excluded: it is a pure history
        // (the Figure 1 conformance check reads it, the protocol and the
        // requirement checks never do), so two states differing only in how
        // they got here are genuinely equivalent futures.
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use super::*;

    fn node(id: usize, local: &[usize]) -> ArdNode {
        ArdNode::new(
            NodeId::new(id),
            local.iter().map(|&i| NodeId::new(i)),
            Variant::Oblivious,
            Config::paper(),
        )
    }

    #[test]
    fn new_node_matches_figure_2_initial_values() {
        let n = node(3, &[1, 2]);
        assert_eq!(n.status(), Status::Asleep);
        assert_eq!(n.phase(), 1);
        assert_eq!(n.next_pointer(), NodeId::new(3));
        assert_eq!(n.more().len(), 1);
        assert!(n.more().contains(NodeId::new(3)));
        assert!(n.done().is_empty());
        assert!(n.unaware().is_empty());
        assert!(n.unexplored().is_empty());
        assert_eq!(n.local().len(), 2);
    }

    #[test]
    #[should_panic(expected = "must not contain itself")]
    fn self_in_local_rejected() {
        node(0, &[0, 1]);
    }

    #[test]
    fn take_local_balances() {
        let mut n = node(0, &[1, 2, 3, 4, 5]);
        let (ids, exhausted) = n.take_local(2);
        assert_eq!(ids.len(), 2);
        assert!(!exhausted);
        let (ids, exhausted) = n.take_local(10);
        assert_eq!(ids.len(), 3);
        assert!(exhausted);
        let (ids, exhausted) = n.take_local(4);
        assert!(ids.is_empty());
        assert!(exhausted);
    }

    #[test]
    fn take_local_want_all() {
        let mut n = node(0, &[1, 2, 3]);
        let before = n.local().heap_bytes();
        let (ids, exhausted) = n.take_local(WANT_ALL);
        assert_eq!(ids.len(), 3);
        assert!(exhausted);
        // The whole of `local` moved into the reply: nothing was copied.
        assert_eq!(ids.heap_bytes(), before);
        assert_eq!(n.local().heap_bytes(), 0);
    }

    #[test]
    fn absorb_reply_moves_member_and_collects_unexplored() {
        let mut n = node(0, &[]);
        n.more.insert(NodeId::new(5));
        n.absorb_query_reply(
            NodeId::new(5),
            [NodeId::new(7), NodeId::new(0)].into_iter().collect(),
            true,
        );
        assert!(n.done().contains(NodeId::new(5)));
        assert!(!n.more().contains(NodeId::new(5)));
        // Own id filtered; 7 collected.
        assert_eq!(
            n.unexplored().iter().collect::<Vec<_>>(),
            vec![NodeId::new(7)]
        );
    }

    #[test]
    fn snapshot_covers_cluster() {
        let mut n = node(0, &[]);
        n.done.insert(NodeId::new(2));
        n.unaware.insert(NodeId::new(4));
        // `more`, then `done`, then `unaware`.
        assert_eq!(n.snapshot().to_vec(), [0, 2, 4].map(NodeId::new));
    }

    /// A cleared `Vec` keeps its capacity; `IdSet::clear` must not. The
    /// handover and the amnesiac restart leave no buffer behind, or every
    /// inactive node of a large run keeps dead capacity.
    #[test]
    fn handover_and_stale_restart_release_the_cluster_sets() {
        let cluster_heap =
            |n: &ArdNode| [&n.more, &n.done, &n.unaware, &n.unexplored].map(IdSet::heap_bytes);
        let mut n = node(0, &[1, 2, 3]);
        let mut out = Vec::new();
        let mut ctx = Context::new(n.id, &mut out);
        // Wakes, moves a balanced two ids of `local` to `unexplored`,
        // searches n1, surrenders to a stronger leader, ships its state.
        n.on_wake(&mut ctx);
        assert!(cluster_heap(&n).iter().sum::<usize>() > 0);
        let stronger = NodeId::new(9);
        let search = Message::Search {
            origin: stronger,
            origin_phase: 4,
            target: n.id,
            new_edge: false,
        };
        n.on_message(stronger, search, &mut ctx);
        n.on_message(stronger, Message::MergeAccept, &mut ctx);
        assert_eq!(n.status(), Status::Inactive);
        assert_eq!(cluster_heap(&n), [0; 4]);
        let Some((_, Message::Info(info))) = out.pop() else {
            panic!("the handover ends with an info");
        };
        assert_eq!(info.more.iter().collect::<Vec<_>>(), [n.id]);
        assert_eq!(info.unexplored.iter().collect::<Vec<_>>(), [NodeId::new(2)]);

        // A leader with a populated cluster forgets it all on restart.
        let mut n = node(0, &[]);
        let mut ctx = Context::new(n.id, &mut out);
        n.on_wake(&mut ctx);
        n.unaware.extend((10..20).map(NodeId::new));
        n.unexplored.extend((20..30).map(NodeId::new));
        n.on_stale_restart(&mut ctx);
        assert_eq!(n.done().iter().collect::<Vec<_>>(), [n.id]);
        assert!(n.more.is_empty() && n.unaware.is_empty() && n.unexplored.is_empty());
        assert_eq!(cluster_heap(&n)[2..], [0; 2]);
    }

    fn search(origin: usize, origin_phase: u32, target: usize) -> Message {
        Message::Search {
            origin: NodeId::new(origin),
            origin_phase,
            target: NodeId::new(target),
            new_edge: false,
        }
    }

    /// Node 0 with an empty `local`, conquered by `leader` and inactive.
    fn inactive_relay(leader: NodeId, out: &mut Vec<(NodeId, Message)>) -> ArdNode {
        let mut n = node(0, &[]);
        let mut ctx = Context::new(n.id, out);
        n.on_wake(&mut ctx);
        n.on_message(leader, search(leader.index(), 4, 0), &mut ctx);
        n.on_message(leader, Message::MergeAccept, &mut ctx);
        assert_eq!(n.status(), Status::Inactive);
        assert_eq!(n.heap_bytes(), 0);
        n
    }

    /// The queues follow the rule of the sets: a relay between requests, a
    /// node whose deferred requests were pumped and a relay whose probe was
    /// answered own no cold part, and a prober's holds its results only.
    #[test]
    fn a_drained_node_keeps_no_cold_part() {
        let id = NodeId::new;
        let leader = id(9);
        let mut out = Vec::new();
        let release = |dest| Message::Release {
            leader,
            leader_phase: 4,
            verdict: Verdict::Abort,
            dest,
        };

        // Relays two searches — the second waits its turn in `previous` —
        // and their releases.
        let mut n = inactive_relay(leader, &mut out);
        let mut ctx = Context::new(n.id, &mut out);
        n.on_message(id(5), search(5, 2, 1), &mut ctx);
        n.on_message(id(6), search(6, 2, 1), &mut ctx);
        assert_eq!(n.previous_len(), 2);
        assert_eq!(
            n.heap_bytes(),
            size_of::<Cold>() + n.cold().previous.capacity() * size_of::<Queued>()
        );
        n.on_message(leader, release(id(5)), &mut ctx);
        assert_eq!(n.previous_len(), 1);
        assert!(n.cold.is_some());
        n.on_message(leader, release(id(6)), &mut ctx);
        assert!(n.cold.is_none());
        assert_eq!(n.heap_bytes(), 0);

        // Relays a probe and its reply; then probes for itself.
        n.on_message(id(5), Message::Probe { origin: id(5) }, &mut ctx);
        assert_eq!(n.previous_len(), 1);
        let reply = |dest| Message::ProbeReply {
            leader,
            leader_phase: 4,
            dest,
            ids: [leader, id(0), id(5)].into_iter().collect(),
        };
        n.on_message(leader, reply(id(5)), &mut ctx);
        assert!(n.cold.is_none());
        n.start_probe(&mut ctx);
        assert_eq!(n.probes_outstanding(), 1);
        n.on_message(leader, reply(n.id), &mut ctx);
        assert_eq!(n.probes_outstanding(), 0);
        assert_eq!(n.probe_results(), [[leader, id(0), id(5)]]);
        assert_eq!(n.previous_len() + n.deferred_len(), 0);

        // Defers a search and a probe while exploring (awaiting n1's query
        // reply), then pumps both once the reply lands it in `Wait`.
        let mut n = node(0, &[]);
        n.more.insert(id(1));
        n.on_wake(&mut ctx);
        assert_eq!(n.status(), Status::Explore);
        n.on_message(id(5), search(5, 0, 0), &mut ctx);
        n.on_message(id(6), Message::Probe { origin: id(6) }, &mut ctx);
        assert_eq!(n.deferred_len(), 2);
        let more_heap = n.more.heap_bytes() + n.done.heap_bytes();
        assert!(n.heap_bytes() > more_heap);
        let exhausted = Message::QueryReply {
            ids: IdSet::new(),
            exhausted: true,
        };
        n.on_message(id(1), exhausted, &mut ctx);
        assert_eq!(n.status(), Status::Wait);
        assert!(n.cold.is_none());
        assert_eq!(
            n.heap_bytes(),
            n.more.heap_bytes() + n.done.heap_bytes() + n.unexplored.heap_bytes()
        );

        // An amnesiac restart forgets the queues with everything else.
        let mut n = inactive_relay(leader, &mut out);
        let mut ctx = Context::new(n.id, &mut out);
        n.on_message(id(5), search(5, 2, 1), &mut ctx);
        assert!(n.cold.is_some());
        n.on_stale_restart(&mut ctx);
        assert!(n.cold.is_none());
    }

    /// The packed log against the plain `Vec<Transition>` it replaced, at
    /// every length across the inline-to-spill boundary.
    #[test]
    fn packed_transition_log_matches_a_vec_model() {
        // Figure 1 walks: wake, lead, lose, go passive, be reconquered …
        let cycle = [
            Status::Explore,
            Status::Wait,
            Status::Conqueror,
            Status::Explore,
            Status::Wait,
            Status::Conquered,
            Status::Passive,
            Status::Conquered,
            Status::Inactive,
            // … and come back amnesiac (`on_stale_restart`).
            Status::Asleep,
        ];
        for len in 0..=64 {
            let mut n = node(0, &[]);
            let mut model = Vec::new();
            for &to in cycle.iter().cycle().take(len) {
                model.push(Transition::new(n.status(), to));
                n.set_status(to);
                n.set_status(to); // a self-loop is not a transition
                assert_eq!(n.status(), to);
            }
            assert_eq!(n.transitions().collect::<Vec<_>>(), model, "length {len}");
            assert_eq!(n.status(), model.last().map_or(Status::Asleep, |t| t.to));
            assert_eq!(n.cold.is_some(), len > PackedLog::CAPACITY);
            assert_eq!(
                n.cold().spill.len(),
                len.saturating_sub(PackedLog::CAPACITY)
            );
        }
    }

    /// `digest_state` feeds the explorer's dedup and the `round_fifo`
    /// pins: a queued request must digest as the `(Message, NodeId)` pair
    /// it replaced, and an absent cold part as two empty queues. The
    /// values are what the build before the cold part printed for these
    /// states.
    #[test]
    fn queued_requests_digest_as_the_messages_they_stand_for() {
        let digest = |n: &ArdNode| {
            let mut d = StateDigest::new();
            n.digest_state(&mut d);
            d.finish()
        };
        let mut n = node(3, &[1, 2]);
        assert_eq!(digest(&n), 0xda80_93ef_390e_8976);
        let id = NodeId::new;
        let queued = |msg: Message, peer| Queued::new(&msg, id(peer));
        let new_edge = Message::Search {
            origin: id(7),
            origin_phase: 2,
            target: id(3),
            new_edge: true,
        };
        let cold = n.cold_mut();
        cold.previous.push_back(queued(new_edge, 5));
        cold.previous
            .push_back(queued(Message::Probe { origin: id(8) }, 6));
        cold.deferred.push_back(queued(search(10, 4, 11), 9));
        cold.deferred
            .push_back(queued(Message::Probe { origin: id(13) }, 12));
        assert_eq!(digest(&n), 0xf8df_8199_f5a7_0032);
    }

    #[test]
    fn lex_pair_orders_phase_first() {
        let mut a = node(9, &[]);
        let b = node(1, &[]);
        assert!(a.lex_pair() > b.lex_pair()); // same phase, higher id
        a.phase = 1;
        let mut c = node(0, &[]);
        c.phase = 2;
        assert!(c.lex_pair() > a.lex_pair()); // higher phase beats higher id
    }

    /// Per-node state is what the large-n runs stream through the cache
    /// (docs/perf.md: "suspect anything that … fattens per-node state").
    /// An `IdSet` is three words and the `BitSet` a promoted one boxes is
    /// four (the engine's per-node `Knowledge` is pinned beside it, in
    /// `ard_netsim`'s `table.rs`); a later field, a fatter set
    /// representation or a fatter queue entry has to show up in these
    /// numbers.
    #[test]
    fn node_size_is_pinned() {
        assert_eq!(size_of::<IdSet>(), 24);
        assert_eq!(size_of::<ard_netsim::BitSet>(), 32);
        assert_eq!(size_of::<ArdNode>(), 176);
        assert_eq!(size_of::<Queued>(), 20);
        assert_eq!(size_of::<Cold>(), 120);
        // Under `--faults` every node is wrapped, and every message too.
        assert_eq!(size_of::<crate::Reliable<ArdNode>>(), 288);
        assert_eq!(size_of::<crate::ReliableMsg<crate::Message>>(), 56);
    }
}
