//! The asynchronous lookup protocol over the bootstrapped ring.

use std::collections::HashMap;

use ard_netsim::{Context, Envelope, LivelockError, NodeId, Protocol, Runner, Scheduler};

use crate::ring::{key_of, Key, RingTable};

/// Messages of the overlay protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlayMessage {
    /// A `find_successor(key)` request being routed greedily along fingers.
    Lookup {
        /// The key being resolved.
        key: Key,
        /// The node (dense overlay index) that issued the lookup.
        origin: NodeId,
        /// Hops taken so far.
        hops: u32,
    },
    /// The answer, sent directly to the origin (its id travelled with the
    /// lookup, so the knowledge graph allows the direct reply).
    Found {
        /// The key that was resolved.
        key: Key,
        /// The owner (dense overlay index): `successor(key)` on the ring.
        owner: NodeId,
        /// Total routing hops.
        hops: u32,
    },
    /// A store-write being routed to `key`'s owner.
    Put {
        /// The key to write.
        key: Key,
        /// The value blob.
        value: u64,
        /// The requesting node (dense overlay index).
        origin: NodeId,
        /// Hops taken so far.
        hops: u32,
        /// Set on the final hop: the receiver *is* the owner and must
        /// execute rather than route.
        deliver: bool,
    },
    /// Owner → origin: the write is durable.
    PutAck {
        /// The key written.
        key: Key,
        /// The value written (echoed for the caller's convenience).
        value: u64,
        /// Total routing hops.
        hops: u32,
    },
    /// A store-read being routed to `key`'s owner.
    Get {
        /// The key to read.
        key: Key,
        /// The requesting node (dense overlay index).
        origin: NodeId,
        /// Hops taken so far.
        hops: u32,
        /// Set on the final hop (see [`OverlayMessage::Put::deliver`]).
        deliver: bool,
    },
    /// Owner → its ring successor: a replica of a freshly written pair
    /// (the fault-tolerance machinery of [`crate::fault`]).
    Replicate {
        /// The key written.
        key: Key,
        /// The value written.
        value: u64,
    },
    /// Owner → origin: the read result.
    GetReply {
        /// The key read.
        key: Key,
        /// The stored value, if any.
        value: Option<u64>,
        /// Total routing hops.
        hops: u32,
    },
}

impl Envelope for OverlayMessage {
    fn kind(&self) -> &'static str {
        match self {
            OverlayMessage::Lookup { .. } => "lookup",
            OverlayMessage::Found { .. } => "found",
            OverlayMessage::Put { .. } => "put",
            OverlayMessage::PutAck { .. } => "put ack",
            OverlayMessage::Get { .. } => "get",
            OverlayMessage::Replicate { .. } => "replicate",
            OverlayMessage::GetReply { .. } => "get reply",
        }
    }
    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
        match self {
            OverlayMessage::Lookup { origin, .. }
            | OverlayMessage::Put { origin, .. }
            | OverlayMessage::Get { origin, .. } => f(*origin),
            OverlayMessage::Found { owner, .. } => f(*owner),
            OverlayMessage::PutAck { .. }
            | OverlayMessage::GetReply { .. }
            | OverlayMessage::Replicate { .. } => {}
        }
    }
    fn aux_bits(&self) -> u64 {
        match self {
            OverlayMessage::Lookup { .. } | OverlayMessage::Found { .. } => 64 + 8,
            OverlayMessage::Put { .. } | OverlayMessage::PutAck { .. } => 64 + 64 + 8 + 1,
            OverlayMessage::Replicate { .. } => 64 + 64,
            OverlayMessage::Get { .. } => 64 + 8 + 1,
            OverlayMessage::GetReply { .. } => 64 + 64 + 1 + 8,
        }
    }
}

/// One overlay node: its place on the circle, its successor, and its finger
/// table (all computed at bootstrap from the discovered membership).
#[derive(Debug)]
pub struct OverlayNode {
    id: NodeId,
    key: Key,
    successor: NodeId,
    successor_key: Key,
    /// `(key, node)` fingers sorted by key.
    fingers: Vec<(Key, NodeId)>,
    results: Vec<LookupResult>,
    /// The next ring successors (dense ids), for repair after failures.
    successor_list: Vec<(Key, NodeId)>,
    /// Whether this node has failed (blackholes all traffic).
    failed: bool,
    /// The key-value shard this node owns (raw key → value).
    store: std::collections::BTreeMap<u64, u64>,
    /// Replicas held on behalf of this node's ring predecessor.
    replicas: std::collections::BTreeMap<u64, u64>,
    /// Completed put/get operations issued by this node:
    /// `(key, value, hops)`.
    completed_store_ops: Vec<(Key, Option<u64>, u32)>,
}

/// A completed lookup, recorded at its origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// The key that was resolved.
    pub key: Key,
    /// The owning member (original discovery-world id).
    pub owner: NodeId,
    /// Routing hops the request took.
    pub hops: u32,
}

impl OverlayNode {
    /// Greedy Chord routing: the finger whose key most closely *precedes*
    /// `key`, falling back to the successor.
    fn closest_preceding(&self, key: Key) -> NodeId {
        self.fingers
            .iter()
            .rev()
            .find(|&&(k, n)| n != self.id && k.in_interval(self.key, key) && k != key)
            .map(|&(_, n)| n)
            .unwrap_or(self.successor)
    }

    fn route(
        &mut self,
        key: Key,
        origin: NodeId,
        hops: u32,
        ctx: &mut Context<'_, OverlayMessage>,
    ) {
        if key.in_interval(self.key, self.successor_key) || self.successor == self.id {
            // The successor owns the key.
            let owner = if self.successor == self.id {
                self.id
            } else {
                self.successor
            };
            let found = OverlayMessage::Found { key, owner, hops };
            if origin == self.id {
                self.record(key, owner, hops);
            } else {
                ctx.send(origin, found);
            }
        } else {
            let next = self.closest_preceding(key);
            debug_assert_ne!(next, self.id);
            ctx.send(
                next,
                OverlayMessage::Lookup {
                    key,
                    origin,
                    hops: hops + 1,
                },
            );
        }
    }

    fn record(&mut self, key: Key, owner_dense: NodeId, hops: u32) {
        // `owner` is translated to the original id by `Overlay::lookup*`.
        self.results.push(LookupResult {
            key,
            owner: owner_dense,
            hops,
        });
    }

    /// Number of key-value pairs this node currently stores (primary
    /// copies only; replicas are counted separately).
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Whether this node has been failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    pub(crate) fn mark_failed(&mut self) {
        self.failed = true;
    }

    /// Whether this node would still have a live successor after `failed`
    /// members die — the validation half of stabilization, run before any
    /// state is mutated so an over-tolerance failure pattern can be
    /// rejected wholesale (see [`StabilizeError`](crate::fault::StabilizeError)).
    pub(crate) fn successor_survives(&self, failed: &std::collections::BTreeSet<NodeId>) -> bool {
        !failed.contains(&self.successor)
            || self.successor_list.iter().any(|(_, s)| !failed.contains(s))
    }

    /// Repairs this node after `failed` members died: adopt the first live
    /// successor-list entry and drop dead fingers. Returns whether anything
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the entire successor list is dead; unreachable when
    /// callers validate with [`Self::successor_survives`] first.
    pub(crate) fn stabilize(&mut self, failed: &std::collections::BTreeSet<NodeId>) -> bool {
        let mut changed = false;
        if failed.contains(&self.successor) {
            let (k, s) = *self
                .successor_list
                .iter()
                .find(|(_, s)| !failed.contains(s))
                .expect("successor list exhausted: too many consecutive ring deaths");
            self.successor = s;
            self.successor_key = k;
            changed = true;
        }
        let before = self.fingers.len();
        self.fingers.retain(|(_, n)| !failed.contains(n));
        changed || self.fingers.len() != before
    }

    pub(crate) fn completed_store_ops(&self) -> &[(Key, Option<u64>, u32)] {
        &self.completed_store_ops
    }

    /// Routes a put/get toward its key's owner (or executes it if this node
    /// is the owner).
    pub(crate) fn route_store(
        &mut self,
        msg: OverlayMessage,
        ctx: &mut Context<'_, OverlayMessage>,
    ) {
        let (key, origin, hops, deliver) = match &msg {
            OverlayMessage::Put {
                key,
                origin,
                hops,
                deliver,
                ..
            }
            | OverlayMessage::Get {
                key,
                origin,
                hops,
                deliver,
                ..
            } => (*key, *origin, *hops, *deliver),
            other => unreachable!("route_store got {other:?}"),
        };
        if deliver || self.successor == self.id {
            self.execute_store(msg, ctx);
            return;
        }
        if key.in_interval(self.key, self.successor_key) {
            // The successor owns the key: final hop.
            let final_msg = match msg {
                OverlayMessage::Put {
                    key,
                    value,
                    origin,
                    hops,
                    ..
                } => OverlayMessage::Put {
                    key,
                    value,
                    origin,
                    hops: hops + 1,
                    deliver: true,
                },
                OverlayMessage::Get {
                    key, origin, hops, ..
                } => OverlayMessage::Get {
                    key,
                    origin,
                    hops: hops + 1,
                    deliver: true,
                },
                _ => unreachable!(),
            };
            ctx.send(self.successor, final_msg);
        } else {
            let next = self.closest_preceding(key);
            debug_assert_ne!(next, self.id);
            let fwd = match msg {
                OverlayMessage::Put {
                    key,
                    value,
                    origin,
                    hops,
                    deliver,
                } => OverlayMessage::Put {
                    key,
                    value,
                    origin,
                    hops: hops + 1,
                    deliver,
                },
                OverlayMessage::Get {
                    key,
                    origin,
                    hops,
                    deliver,
                } => OverlayMessage::Get {
                    key,
                    origin,
                    hops: hops + 1,
                    deliver,
                },
                _ => unreachable!(),
            };
            ctx.send(next, fwd);
        }
        let _ = (origin, hops);
    }

    /// Executes a put/get as the key's owner and answers the origin.
    fn execute_store(&mut self, msg: OverlayMessage, ctx: &mut Context<'_, OverlayMessage>) {
        match msg {
            OverlayMessage::Put {
                key,
                value,
                origin,
                hops,
                ..
            } => {
                self.store.insert(key.raw(), value);
                // Fault tolerance: mirror the pair to the ring successor.
                if self.successor != self.id {
                    ctx.send(self.successor, OverlayMessage::Replicate { key, value });
                }
                if origin == self.id {
                    self.completed_store_ops.push((key, Some(value), hops));
                } else {
                    ctx.send(origin, OverlayMessage::PutAck { key, value, hops });
                }
            }
            OverlayMessage::Get {
                key, origin, hops, ..
            } => {
                // Primary copy first; fall back to a replica inherited from
                // a dead predecessor.
                let value = self
                    .store
                    .get(&key.raw())
                    .or_else(|| self.replicas.get(&key.raw()))
                    .copied();
                if origin == self.id {
                    self.completed_store_ops.push((key, value, hops));
                } else {
                    ctx.send(origin, OverlayMessage::GetReply { key, value, hops });
                }
            }
            other => unreachable!("execute_store got {other:?}"),
        }
    }
}

impl Protocol for OverlayNode {
    type Message = OverlayMessage;

    fn on_wake(&mut self, _ctx: &mut Context<'_, OverlayMessage>) {
        // Overlay nodes are passive servers; lookups are injected by the
        // driver and routing work arrives as messages.
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: OverlayMessage,
        ctx: &mut Context<'_, OverlayMessage>,
    ) {
        if self.failed {
            // A dead node: traffic addressed to it is lost.
            return;
        }
        match msg {
            OverlayMessage::Lookup { key, origin, hops } => self.route(key, origin, hops, ctx),
            OverlayMessage::Replicate { key, value } => {
                self.replicas.insert(key.raw(), value);
            }
            OverlayMessage::Found { key, owner, hops } => self.record(key, owner, hops),
            m @ (OverlayMessage::Put { .. } | OverlayMessage::Get { .. }) => {
                self.route_store(m, ctx)
            }
            OverlayMessage::PutAck { key, value, hops } => {
                self.completed_store_ops.push((key, Some(value), hops));
            }
            OverlayMessage::GetReply { key, value, hops } => {
                self.completed_store_ops.push((key, value, hops));
            }
        }
    }
}

/// The assembled overlay network.
///
/// Created by [`bootstrap`] from a discovered membership list; lookups are
/// issued through [`lookup_blocking`](Overlay::lookup_blocking) (or
/// [`lookup`](Overlay::lookup) plus manual stepping) and metered by the
/// underlying [`Metrics`](ard_netsim::Metrics).
pub struct Overlay {
    runner: Runner<OverlayNode>,
    members: Vec<NodeId>,
    dense_of: HashMap<NodeId, usize>,
    ring: RingTable,
}

/// Builds a ring overlay from a membership list (typically a discovery
/// leader's `done` set or a probe snapshot). Node placement hashes the
/// *original* ids, so the ring is stable across rebuilds.
///
/// # Panics
///
/// Panics on an empty or duplicate-containing membership.
pub fn bootstrap(members: &[NodeId]) -> Overlay {
    let ring = RingTable::new(members);
    let dense_of: HashMap<NodeId, usize> =
        members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    assert_eq!(dense_of.len(), members.len(), "duplicate member");
    let dense = |m: NodeId| NodeId::new(dense_of[&m]);

    let mut nodes = Vec::with_capacity(members.len());
    let mut knowledge = Vec::with_capacity(members.len());
    for &m in members {
        let successor = ring.successor_of(m);
        let mut fingers: Vec<(Key, NodeId)> = ring
            .fingers_of(m)
            .into_iter()
            .map(|(k, f)| (k, dense(f)))
            .collect();
        fingers.sort();
        // The successor list: the next SUCCESSOR_LIST_LEN distinct ring
        // successors (fewer on tiny rings).
        let mut successor_list: Vec<(Key, NodeId)> = Vec::new();
        let mut cur = m;
        for _ in 0..crate::fault::SUCCESSOR_LIST_LEN {
            cur = ring.successor_of(cur);
            if cur == m {
                break;
            }
            successor_list.push((key_of(cur), dense(cur)));
        }
        let mut known: Vec<NodeId> = fingers.iter().map(|&(_, f)| f).collect();
        known.push(dense(successor));
        known.extend(successor_list.iter().map(|&(_, s)| s));
        known.sort_unstable();
        known.dedup();
        known.retain(|&k| k != dense(m));
        nodes.push(OverlayNode {
            id: dense(m),
            key: key_of(m),
            successor: dense(successor),
            successor_key: key_of(successor),
            fingers,
            successor_list,
            failed: false,
            results: Vec::new(),
            store: std::collections::BTreeMap::new(),
            replicas: std::collections::BTreeMap::new(),
            completed_store_ops: Vec::new(),
        });
        knowledge.push(known);
    }
    Overlay {
        runner: Runner::new(nodes, knowledge),
        members: members.to_vec(),
        dense_of,
        ring,
    }
}

impl Overlay {
    /// Number of overlay members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the overlay has no members (never true once bootstrapped).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The offline routing oracle (for verification).
    pub fn ring(&self) -> &RingTable {
        &self.ring
    }

    /// The underlying simulator (metrics, tracing).
    pub fn runner(&self) -> &Runner<OverlayNode> {
        &self.runner
    }

    fn dense(&self, member: NodeId) -> NodeId {
        NodeId::new(*self.dense_of.get(&member).expect("not an overlay member"))
    }

    pub(crate) fn dense_id(&self, member: NodeId) -> NodeId {
        self.dense(member)
    }

    /// All members (original ids), in id order.
    pub fn members_vec(&self) -> &[NodeId] {
        &self.members
    }

    /// Mutable access to the underlying simulator.
    pub fn runner_mut(&mut self) -> &mut Runner<OverlayNode> {
        &mut self.runner
    }

    /// Runs the network to quiescence within a generous budget.
    pub(crate) fn drain(&mut self, sched: &mut dyn Scheduler) -> Result<(), LivelockError> {
        self.runner
            .run(sched, 64 * (self.len() as u64 + 2))
            .map(|_| ())
    }

    pub(crate) fn last_store_result(&self, from: NodeId) -> crate::store::StoreResult {
        let origin = self.dense(from);
        let &(key, value, hops) = self
            .runner
            .node(origin)
            .completed_store_ops()
            .last()
            .expect("store op answered at quiescence");
        crate::store::StoreResult { key, value, hops }
    }

    /// Injects a lookup for `key` at member `from` (original id); the
    /// request routes asynchronously under `sched`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a member.
    pub fn lookup(&mut self, from: NodeId, key: Key, sched: &mut dyn Scheduler) {
        let origin = self.dense(from);
        self.runner.exec(origin, sched, |node, ctx| {
            node.route(key, node.id, 0, ctx);
        });
    }

    /// Issues a lookup and runs the network to quiescence, returning the
    /// result (with `owner` translated back to the original id space).
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if routing does not quiesce (a protocol
    /// bug).
    pub fn lookup_blocking(
        &mut self,
        from: NodeId,
        key: Key,
        sched: &mut dyn Scheduler,
    ) -> Result<LookupResult, LivelockError> {
        self.lookup(from, key, sched);
        self.runner.run(sched, 64 * (self.len() as u64 + 2))?;
        let origin = self.dense(from);
        let mut result = *self
            .runner
            .node(origin)
            .results
            .last()
            .expect("lookup answered at quiescence");
        result.owner = self.members[result.owner.index()];
        Ok(result)
    }

    /// All completed lookups recorded at `from`, owners translated to
    /// original ids.
    pub fn results_of(&self, from: NodeId) -> Vec<LookupResult> {
        let origin = self.dense(from);
        self.runner
            .node(origin)
            .results
            .iter()
            .map(|r| LookupResult {
                owner: self.members[r.owner.index()],
                ..*r
            })
            .collect()
    }
}

impl std::fmt::Debug for Overlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Overlay({} members)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_netsim::{FifoScheduler, RandomScheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn members(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn lookups_agree_with_the_oracle() {
        let m = members(64);
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let key = Key::new(rng.gen());
            let from = m[rng.gen_range(0..m.len())];
            let result = overlay.lookup_blocking(from, key, &mut sched).unwrap();
            assert_eq!(result.owner, overlay.ring().owner(key), "key {key}");
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let m = members(256);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut worst = 0;
        let mut total = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let key = Key::new(rng.gen());
            let from = m[rng.gen_range(0..m.len())];
            let r = overlay.lookup_blocking(from, key, &mut sched).unwrap();
            worst = worst.max(r.hops);
            total += u64::from(r.hops);
        }
        // log₂ 256 = 8; greedy finger routing halves distance per hop.
        assert!(worst <= 2 * 8, "worst hops {worst}");
        assert!(total / trials <= 8, "avg hops {}", total / trials);
    }

    #[test]
    fn singleton_overlay_answers_itself() {
        let m = members(1);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let r = overlay
            .lookup_blocking(m[0], Key::new(42), &mut sched)
            .unwrap();
        assert_eq!(r.owner, m[0]);
        assert_eq!(r.hops, 0);
        assert_eq!(overlay.runner().metrics().total_messages(), 0);
    }

    #[test]
    fn sparse_original_ids_are_supported() {
        // Membership with gaps (survivors of a crash).
        let m: Vec<NodeId> = (0..40).step_by(3).map(NodeId::new).collect();
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(5);
        for raw in [0u64, u64::MAX / 3, u64::MAX] {
            let r = overlay
                .lookup_blocking(m[0], Key::new(raw), &mut sched)
                .unwrap();
            assert!(m.contains(&r.owner));
            assert_eq!(r.owner, overlay.ring().owner(Key::new(raw)));
        }
    }

    #[test]
    fn own_range_lookup_is_free() {
        let m = members(32);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        // A key just past a node's own key is owned by its successor and
        // answered locally without any messages.
        let from = m[7];
        let key = Key::new(key_of(from).raw().wrapping_add(1));
        let before = overlay.runner().metrics().total_messages();
        let r = overlay.lookup_blocking(from, key, &mut sched).unwrap();
        assert_eq!(r.hops, 0);
        assert_eq!(overlay.runner().metrics().total_messages(), before);
        assert_eq!(r.owner, overlay.ring().successor_of(from));
    }

    #[test]
    fn results_accumulate_per_origin() {
        let m = members(16);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        for raw in [1u64, 2, 3] {
            overlay
                .lookup_blocking(m[0], Key::new(raw), &mut sched)
                .unwrap();
        }
        assert_eq!(overlay.results_of(m[0]).len(), 3);
        assert_eq!(overlay.results_of(m[1]).len(), 0);
    }
}
