use ard_netsim::{Envelope, IdSeq, IdSet, NodeId};

/// Bits charged for a phase number in a message (`phase ≤ 64` over the
/// simulator's whole feasible range, so 8 bits cover it).
///
/// These three constants are the single source of truth for every
/// variant's non-id payload size: [`Envelope::aux_bits`] sums them per
/// variant, and the budget checks in [`crate::budgets`] derive their
/// per-message overhead terms from the same sums (via
/// [`Message::QUERY_REPLY_AUX_BITS`] and [`Message::INFO_AUX_BITS`]), so
/// metering and bounds cannot drift apart.
pub const PHASE_BITS: u64 = 8;

/// Bits charged for a counter or set-length prefix (`n ≤ 2³²`).
pub const COUNT_BITS: u64 = 32;

/// Bits charged for a boolean flag.
pub const FLAG_BITS: u64 = 1;

/// Answer carried by a [`Message::Release`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The searched leader surrenders: it asks to merge into the search's
    /// originator (it had the lexicographically smaller `(phase, id)`).
    Merge,
    /// The searched leader refuses: the originator must stop initiating
    /// searches and becomes passive.
    Abort,
}

/// The protocol messages of the generic algorithm and its variants
/// (paper §4). Field names follow the pseudocode.
///
/// Non-id payload sizes are constants chosen to cover the simulator's whole
/// feasible range (`n ≤ 2³²`, `phase ≤ 64`): counters are charged 32 bits,
/// phases 8 bits, flags 1 bit. All are `O(log n)`, as the paper's bit
/// analysis assumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Leader → cluster member: "send me `want` of the ids you have not yet
    /// reported". The balanced choice `want = |more| + |done| + 1` is the
    /// source of the algorithm's low bit complexity (§4.1).
    Query {
        /// Number of ids requested (`u32::MAX` requests everything — used
        /// only by the reproduction's *unbalanced query* ablation).
        want: u32,
    },
    /// Member → leader: up to `want` previously unreported ids.
    QueryReply {
        /// The ids removed from the member's `local` set (all of it moves
        /// when `want` covers it).
        ids: IdSet,
        /// Whether the member's `local` set is now empty (the leader then
        /// moves it from `more` to `done`).
        exhausted: bool,
    },
    /// A leader's conquest attempt, routed along `next` pointers from
    /// `target` to `target`'s current leader.
    Search {
        /// The initiating leader.
        origin: NodeId,
        /// The initiating leader's phase at send time.
        origin_phase: u32,
        /// The unexplored node the search was addressed to.
        target: NodeId,
        /// Set to `true` en route if `target` did not previously know
        /// `origin` (the reverse-edge bookkeeping of §4.2): the receiving
        /// leader must then move `target` from `done` back to `more`.
        new_edge: bool,
    },
    /// The searched leader's reply, routed back along the search's path with
    /// path compression (every relay re-points `next` at `leader`).
    ///
    /// The answering node's phase travels with it: a relay compresses only
    /// when `leader_phase` is at least its own conquer epoch, otherwise an
    /// in-flight release could overwrite a *newer* conquer wave's pointer
    /// and break requirement 3 (interpretation decision \[D6]).
    Release {
        /// The leader that answered (the compression target).
        leader: NodeId,
        /// The answering node's phase when it answered.
        leader_phase: u32,
        /// Merge or abort.
        verdict: Verdict,
        /// The search's originator, to whom this release is addressed.
        dest: NodeId,
    },
    /// Originator → surrendered leader: merge accepted, send your state.
    MergeAccept,
    /// Sent to a surrendered leader whose conqueror has itself been
    /// conquered (or gone passive) in the meantime; the receiver goes
    /// passive instead of merging.
    MergeFail,
    /// Surrendered leader → conqueror: its entire bookkeeping state. In the
    /// Bounded/Ad-hoc variants `unaware` is always empty (§4.5).
    ///
    /// The payload is boxed so this rare, four-set variant does not set
    /// the size of every [`Message`] moved through the simulator's link
    /// queues.
    Info(Box<InfoPayload>),
    /// Leader → newly acquired member: "I am your leader now" (generic
    /// variant after every merge; Bounded variant only at termination).
    Conquer {
        /// The conquering leader's current phase.
        phase: u32,
    },
    /// Member's acknowledgement of a [`Message::Conquer`], indicating
    /// whether its `local` set is empty (`done`) or not (`more`).
    MoreDone {
        /// `true` if the member has nothing left to report.
        exhausted: bool,
    },
    /// Ad-hoc variant: a request for the current id snapshot, routed along
    /// `next` pointers to the leader like a [`Message::Search`] (§4.5.2).
    Probe {
        /// The requesting node.
        origin: NodeId,
    },
    /// Ad-hoc variant: the leader's snapshot, routed back with path
    /// compression like a [`Message::Release`] (including its
    /// `leader_phase` staleness guard, \[D6]).
    ProbeReply {
        /// The answering leader (the compression target).
        leader: NodeId,
        /// The answering node's phase when it answered.
        leader_phase: u32,
        /// The requesting node.
        dest: NodeId,
        /// All ids the leader currently knows in its component: `more`,
        /// `done` and `unaware`, in that order (the prober keeps the list).
        ids: IdSeq,
    },
}

/// The state a surrendered leader ships to its conqueror in a
/// [`Message::Info`].
///
/// The four sets are the leader's own [`IdSet`]s, moved out of it: the
/// sender goes inactive holding nothing (paper §4.4), and nothing is
/// copied on the way. An `IdSet` iterates ascending, so the id order, and
/// with it every digest and metering contract, is the order the sets had
/// at the sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InfoPayload {
    /// The surrendered leader's final phase.
    pub phase: u32,
    /// Its `more` set (members with unreported ids).
    pub more: IdSet,
    /// Its `done` set (fully reported members).
    pub done: IdSet,
    /// Its `unaware` set (always empty in practice; a conqueror cannot
    /// be conquered mid-conquest).
    pub unaware: IdSet,
    /// Its `unexplored` set (ids known but not yet searched).
    pub unexplored: IdSet,
}

/// One id-carrying field of a message.
enum Field<'a> {
    Id(NodeId),
    Set(&'a IdSet),
    Seq(&'a IdSeq),
}

impl Field<'_> {
    fn len(&self) -> usize {
        match self {
            Field::Id(_) => 1,
            Field::Set(set) => set.len(),
            Field::Seq(seq) => seq.len(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Field::Id(_) => 0,
            Field::Set(set) => set.heap_bytes(),
            Field::Seq(seq) => seq.heap_bytes(),
        }
    }
}

impl Message {
    /// Non-id payload bits of a [`Message::QueryReply`]: the set-length
    /// prefix plus the `exhausted` flag. Shared with the Lemma 5.9 budget
    /// checks.
    pub const QUERY_REPLY_AUX_BITS: u64 = COUNT_BITS + FLAG_BITS;

    /// Non-id payload bits of a [`Message::Info`]: the phase plus one
    /// length prefix per shipped set. Shared with the Lemma 5.10 budget
    /// checks (previously a hand-copied `8 + 4 * 32` on both sides).
    pub const INFO_AUX_BITS: u64 = PHASE_BITS + 4 * COUNT_BITS;

    /// Whether this message is routed leaf-to-leader along `next` pointers
    /// (and therefore serialized through relays' `previous` queues).
    pub fn is_routable_request(&self) -> bool {
        Request::of(self).is_some()
    }

    /// Calls `f` with each id-carrying field, in wire order: the one
    /// statement of which variant carries which ids, read by every
    /// [`Envelope`] method that walks, counts or sizes them.
    fn for_each_field(&self, mut f: impl FnMut(Field<'_>)) {
        match self {
            Message::Query { .. }
            | Message::MergeAccept
            | Message::MergeFail
            | Message::Conquer { .. }
            | Message::MoreDone { .. } => {}
            Message::QueryReply { ids, .. } => f(Field::Set(ids)),
            Message::Search { origin, target, .. } => {
                f(Field::Id(*origin));
                f(Field::Id(*target));
            }
            Message::Release { leader, dest, .. } => {
                f(Field::Id(*leader));
                f(Field::Id(*dest));
            }
            Message::Info(p) => {
                for set in [&p.more, &p.done, &p.unaware, &p.unexplored] {
                    f(Field::Set(set));
                }
            }
            Message::Probe { origin } => f(Field::Id(*origin)),
            Message::ProbeReply {
                leader, dest, ids, ..
            } => {
                f(Field::Id(*leader));
                f(Field::Id(*dest));
                f(Field::Seq(ids));
            }
        }
    }
}

/// A routable request ([`Message::is_routable_request`]) as a node's
/// `previous` and \[D1] `deferred` queues store it: the same fields as the
/// [`Message::Search`] / [`Message::Probe`] it stands for in 16 B, where
/// the full enum is sized by its set-carrying variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Request {
    /// A [`Message::Search`].
    Search {
        origin: NodeId,
        origin_phase: u32,
        target: NodeId,
        new_edge: bool,
    },
    /// A [`Message::Probe`].
    Probe { origin: NodeId },
}

impl Request {
    /// The request `msg` is, or `None` for any other message.
    pub(crate) fn of(msg: &Message) -> Option<Request> {
        match *msg {
            Message::Search {
                origin,
                origin_phase,
                target,
                new_edge,
            } => Some(Request::Search {
                origin,
                origin_phase,
                target,
                new_edge,
            }),
            Message::Probe { origin } => Some(Request::Probe { origin }),
            _ => None,
        }
    }

    /// The message this request stands for.
    pub(crate) fn message(self) -> Message {
        match self {
            Request::Search {
                origin,
                origin_phase,
                target,
                new_edge,
            } => Message::Search {
                origin,
                origin_phase,
                target,
                new_edge,
            },
            Request::Probe { origin } => Message::Probe { origin },
        }
    }
}

impl Envelope for Message {
    fn kind(&self) -> &'static str {
        match self {
            Message::Query { .. } => "query",
            Message::QueryReply { .. } => "query reply",
            Message::Search { .. } => "search",
            Message::Release { .. } => "release",
            Message::MergeAccept => "merge accept",
            Message::MergeFail => "merge fail",
            Message::Info { .. } => "info",
            Message::Conquer { .. } => "conquer",
            Message::MoreDone { .. } => "more/done",
            Message::Probe { .. } => "probe",
            Message::ProbeReply { .. } => "probe reply",
        }
    }

    fn for_each_carried_id(&self, f: &mut dyn FnMut(NodeId)) {
        self.for_each_field(|field| match field {
            Field::Id(id) => f(id),
            Field::Set(set) => set.for_each(&mut *f),
            Field::Seq(seq) => seq.for_each(f),
        });
    }

    fn for_each_carried_run(&self, f: &mut dyn FnMut(u32, u32)) {
        self.for_each_field(|field| match field {
            Field::Id(id) => {
                let i = id.index() as u32;
                f(i, i + 1);
            }
            Field::Set(set) => set.for_each_run(&mut *f),
            Field::Seq(seq) => seq.for_each_run(f),
        });
    }

    fn payload_heap_bytes(&self) -> usize {
        let mut bytes = match self {
            Message::Info(_) => std::mem::size_of::<InfoPayload>(),
            _ => 0,
        };
        self.for_each_field(|field| bytes += field.heap_bytes());
        bytes
    }

    fn carried_id_count(&self) -> usize {
        let mut count = 0;
        self.for_each_field(|field| count += field.len());
        count
    }

    fn aux_bits(&self) -> u64 {
        match self {
            Message::Query { .. } => COUNT_BITS,
            Message::QueryReply { .. } => Message::QUERY_REPLY_AUX_BITS,
            Message::Search { .. } => PHASE_BITS + FLAG_BITS,
            Message::Release { .. } => PHASE_BITS + FLAG_BITS,
            Message::MergeAccept | Message::MergeFail => 0,
            Message::Info { .. } => Message::INFO_AUX_BITS,
            Message::Conquer { .. } => PHASE_BITS,
            Message::MoreDone { .. } => FLAG_BITS,
            Message::Probe { .. } => 0,
            Message::ProbeReply { .. } => PHASE_BITS + COUNT_BITS,
        }
    }

    fn digest(&self, d: &mut ard_netsim::StateDigest) {
        // The default digest (kind + ids + aux bits) cannot see the scalar
        // payloads: `aux_bits` is a per-variant constant, so two conquer
        // waves at different phases — genuinely different futures — would
        // hash alike. Mix every field the receiver branches on.
        d.mix_bytes(self.kind().as_bytes());
        d.mix(self.carried_id_count() as u64);
        self.for_each_carried_id(&mut |id| d.mix(id.index() as u64));
        match self {
            Message::Query { want } => d.mix(u64::from(*want)),
            Message::QueryReply { exhausted, .. } => d.mix(u64::from(*exhausted)),
            Message::Search {
                origin_phase,
                new_edge,
                ..
            } => {
                d.mix(u64::from(*origin_phase));
                d.mix(u64::from(*new_edge));
            }
            Message::Release {
                leader_phase,
                verdict,
                ..
            } => {
                d.mix(u64::from(*leader_phase));
                d.mix(matches!(verdict, Verdict::Merge) as u64);
            }
            Message::MergeAccept | Message::MergeFail | Message::Probe { .. } => {}
            Message::Info(p) => {
                d.mix(u64::from(p.phase));
                // The flat id visit cannot show which set an id sits in;
                // the set lengths restore the boundaries.
                d.mix(p.more.len() as u64);
                d.mix(p.done.len() as u64);
                d.mix(p.unaware.len() as u64);
            }
            Message::Conquer { phase } => d.mix(u64::from(*phase)),
            Message::MoreDone { exhausted } => d.mix(u64::from(*exhausted)),
            Message::ProbeReply { leader_phase, .. } => d.mix(u64::from(*leader_phase)),
        }
    }

    fn forge(_src: NodeId, dst: NodeId, salt: u32) -> Option<Self> {
        // Salt convention (see [`Envelope::forge`]): the low 8 bits pick the
        // lie, the high bits parameterize it.
        match salt & 0xFF {
            // Equivocation: a conquer wave at an attacker-chosen phase.
            // Sent with *different* phases to different neighbors, it
            // splits their `next` pointers between inconsistent "leaders"
            // and rolls their conquer epochs forward, desynchronizing the
            // [D5]/[D6] staleness guards.
            0 => Some(Message::Conquer {
                phase: 1 + (salt >> 8),
            }),
            // Fabrication: a search claiming to originate from an arbitrary
            // id the receiver may never have heard of. `origin_phase: 0`
            // loses every `(phase, id)` comparison, so the lie cannot
            // conquer anyone directly — it plants the fabricated id in
            // `local`/`unexplored` sets ([D3]) and triggers spurious
            // searches toward it.
            1 => Some(Message::Search {
                origin: NodeId::new((salt >> 8) as usize),
                origin_phase: 0,
                target: dst,
                new_edge: false,
            }),
            // Unknown flavors forge nothing: the choice becomes a metered
            // no-op, keeping every salt valid for the explorer.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(indices: &[usize]) -> IdSet {
        indices.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn kinds_are_distinct() {
        let msgs = [
            Message::Query { want: 1 },
            Message::QueryReply {
                ids: IdSet::new(),
                exhausted: false,
            },
            Message::Search {
                origin: NodeId::new(0),
                origin_phase: 1,
                target: NodeId::new(1),
                new_edge: false,
            },
            Message::Release {
                leader: NodeId::new(0),
                leader_phase: 1,
                verdict: Verdict::Merge,
                dest: NodeId::new(1),
            },
            Message::MergeAccept,
            Message::MergeFail,
            Message::Info(Box::new(InfoPayload {
                phase: 1,
                more: IdSet::new(),
                done: IdSet::new(),
                unaware: IdSet::new(),
                unexplored: IdSet::new(),
            })),
            Message::Conquer { phase: 2 },
            Message::MoreDone { exhausted: true },
            Message::Probe {
                origin: NodeId::new(0),
            },
            Message::ProbeReply {
                leader: NodeId::new(0),
                leader_phase: 1,
                dest: NodeId::new(1),
                ids: IdSeq::new(),
            },
        ];
        let mut kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn carried_ids_cover_payload() {
        let info = Message::Info(Box::new(InfoPayload {
            phase: 3,
            more: set(&[1]),
            done: set(&[3, 2]),
            unaware: IdSet::new(),
            unexplored: set(&[4]),
        }));
        // Set order: more, done, unaware, unexplored.
        let expected: Vec<NodeId> = [1, 2, 3, 4].map(NodeId::new).to_vec();
        assert_eq!(info.carried_ids(), expected);
        assert_eq!(info.carried_id_count(), 4);

        let search = Message::Search {
            origin: NodeId::new(9),
            origin_phase: 1,
            target: NodeId::new(5),
            new_edge: true,
        };
        assert_eq!(search.carried_ids(), vec![NodeId::new(9), NodeId::new(5)]);
        assert_eq!(search.carried_id_count(), 2);
    }

    mod visitor_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn nid() -> impl Strategy<Value = NodeId> {
            (0usize..512).prop_map(NodeId::new)
        }

        /// Any sequence: unsorted, repeated, descending (a probe reply).
        fn id_vec(max: usize) -> impl Strategy<Value = Vec<NodeId>> {
            prop::collection::vec(nid(), 0..max)
        }

        /// Ascending and duplicate-free: what an `IdSet` payload iterates.
        fn id_set(max: usize) -> impl Strategy<Value = Vec<NodeId>> {
            prop::collection::btree_set(nid(), 0..max).prop_map(|s| s.into_iter().collect())
        }

        /// Generates one arbitrary message of any variant together with the
        /// id list its payload carries, in payload order — the oracle the
        /// visitor must reproduce exactly.
        fn arb_message() -> impl Strategy<Value = (Message, Vec<NodeId>)> {
            prop_oneof![
                any::<u32>().prop_map(|want| (Message::Query { want }, vec![])),
                (id_set(8), any::<bool>()).prop_map(|(ids, exhausted)| (
                    Message::QueryReply {
                        ids: ids.iter().copied().collect(),
                        exhausted
                    },
                    ids
                )),
                (nid(), any::<u32>(), nid(), any::<bool>()).prop_map(
                    |(origin, origin_phase, target, new_edge)| (
                        Message::Search {
                            origin,
                            origin_phase,
                            target,
                            new_edge
                        },
                        vec![origin, target]
                    )
                ),
                (nid(), any::<u32>(), any::<bool>(), nid()).prop_map(
                    |(leader, leader_phase, merge, dest)| (
                        Message::Release {
                            leader,
                            leader_phase,
                            verdict: if merge { Verdict::Merge } else { Verdict::Abort },
                            dest
                        },
                        vec![leader, dest]
                    )
                ),
                Just((Message::MergeAccept, vec![])),
                Just((Message::MergeFail, vec![])),
                (any::<u32>(), id_set(6), id_set(6), id_set(6), id_set(6)).prop_map(
                    |(phase, more, done, unaware, unexplored)| {
                        let expected: Vec<NodeId> = more
                            .iter()
                            .chain(&done)
                            .chain(&unaware)
                            .chain(&unexplored)
                            .copied()
                            .collect();
                        (
                            Message::Info(Box::new(InfoPayload {
                                phase,
                                more: more.into_iter().collect(),
                                done: done.into_iter().collect(),
                                unaware: unaware.into_iter().collect(),
                                unexplored: unexplored.into_iter().collect(),
                            })),
                            expected,
                        )
                    }
                ),
                any::<u32>().prop_map(|phase| (Message::Conquer { phase }, vec![])),
                any::<bool>().prop_map(|exhausted| (Message::MoreDone { exhausted }, vec![])),
                nid().prop_map(|origin| (Message::Probe { origin }, vec![origin])),
                (nid(), any::<u32>(), nid(), id_vec(8)).prop_map(
                    |(leader, leader_phase, dest, ids)| {
                        let mut expected = vec![leader, dest];
                        expected.extend(ids.iter().copied());
                        (
                            Message::ProbeReply {
                                leader,
                                leader_phase,
                                dest,
                                ids: ids.into_iter().collect(),
                            },
                            expected,
                        )
                    }
                ),
            ]
        }

        proptest! {
            /// For every variant, the non-allocating visitor yields exactly
            /// the payload's ids in payload order, and the counting and
            /// `Vec`-collecting conveniences agree with it — so metering at
            /// send time and knowledge growth at delivery time see the same
            /// ids the old `carried_ids()` path did.
            #[test]
            fn visitor_yields_payload_ids_in_order((msg, expected) in arb_message()) {
                let mut visited = Vec::new();
                msg.for_each_carried_id(&mut |id| visited.push(id));
                prop_assert_eq!(&visited, &expected);
                prop_assert_eq!(msg.carried_ids(), expected);
                prop_assert_eq!(msg.carried_id_count(), visited.len());
                // The run decomposition concatenates to the very same id
                // sequence, so run-based knowledge absorption learns
                // exactly what the id visitor teaches.
                let mut by_runs = Vec::new();
                msg.for_each_carried_run(&mut |s, e| {
                    by_runs.extend((s..e).map(|i| NodeId::new(i as usize)));
                });
                prop_assert_eq!(by_runs, visited);
            }
        }
    }

    #[test]
    fn message_moves_stay_small() {
        // Every send/deliver moves a `Message` through the simulator's link
        // queues; the rare `Info` variant is boxed so it does not set the
        // size of all the common variants.
        assert!(std::mem::size_of::<Message>() <= 48);
    }

    #[test]
    fn routable_requests_are_search_and_probe() {
        assert!(Message::Probe {
            origin: NodeId::new(0)
        }
        .is_routable_request());
        assert!(Message::Search {
            origin: NodeId::new(0),
            origin_phase: 1,
            target: NodeId::new(1),
            new_edge: false
        }
        .is_routable_request());
        assert!(!Message::MergeAccept.is_routable_request());
    }

    #[test]
    fn requests_round_trip_the_routable_messages_only() {
        assert_eq!(std::mem::size_of::<Request>(), 16);
        let search = Message::Search {
            origin: NodeId::new(7),
            origin_phase: 3,
            target: NodeId::new(9),
            new_edge: true,
        };
        let probe = Message::Probe {
            origin: NodeId::new(4),
        };
        for msg in [search, probe] {
            assert_eq!(Request::of(&msg).map(Request::message), Some(msg));
        }
        assert_eq!(Request::of(&Message::MergeAccept), None);
        assert_eq!(Request::of(&Message::Conquer { phase: 2 }), None);
    }

    #[test]
    fn query_reply_bits_scale_with_ids() {
        let small = Message::QueryReply {
            ids: set(&[0]),
            exhausted: false,
        };
        let large = Message::QueryReply {
            ids: (0..100).map(NodeId::new).collect(),
            exhausted: false,
        };
        assert!(large.bits(16) > small.bits(16));
        assert_eq!(large.bits(16) - small.bits(16), 99 * 16);
    }

    #[test]
    fn payload_heap_bytes_follow_the_buffers() {
        assert_eq!(Message::Query { want: 3 }.payload_heap_bytes(), 0);
        // A sparse set payload reports its sorted `u32`s.
        let reply = Message::QueryReply {
            ids: set(&[1, 2, 3_000]),
            exhausted: false,
        };
        assert_eq!(reply.payload_heap_bytes(), 3 * 4);
        // An info reports its box plus its four sets; a whole cluster of
        // 10,000 consecutive ids is a bitmap of 157 words behind its
        // 32-byte header.
        let info = Message::Info(Box::new(InfoPayload {
            phase: 3,
            more: (0..10_000).map(NodeId::new).collect(),
            done: set(&[20_000]),
            unaware: IdSet::new(),
            unexplored: IdSet::new(),
        }));
        let bitmap = 157 * 8 + 32;
        assert_eq!(
            info.payload_heap_bytes(),
            std::mem::size_of::<InfoPayload>() + bitmap + 4
        );
        // A probe snapshot of one long run stays a few words.
        let probe = Message::ProbeReply {
            leader: NodeId::new(0),
            leader_phase: 1,
            dest: NodeId::new(1),
            ids: (0..10_000).map(NodeId::new).collect(),
        };
        assert!(
            probe.payload_heap_bytes() <= 4 * 8,
            "one long run stays compact"
        );
    }
}
