use std::fmt;

/// The node states of the paper's Figure 1, plus the pre-wake-up `Asleep`
/// state the asynchronous model implies.
///
/// A node is a **leader** while in `Explore`, `Wait` or `Conqueror`; it
/// permanently stops leading once `Conquered`, `Passive` or `Inactive`
/// (paper §4: "We will call a node leader if its state is not conquered or
/// inactive or passive").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Status {
    /// Not yet woken up (no Figure 1 counterpart; nodes start here and
    /// leave on their wake-up event or first received message).
    Asleep,
    /// Leader looking for an unexplored node via `query` exchanges (§4.1).
    Explore,
    /// Leader waiting — either for the `release` answering its own `search`,
    /// or idly for its `more` set to be replenished (§4.1–4.3).
    Wait,
    /// Ex-leader whose conquest attempt was aborted or whose merge failed;
    /// it initiates nothing and waits to be conquered (§4.3).
    Passive,
    /// Leader that won a merge and is absorbing the loser's cluster (§4.4).
    Conqueror,
    /// Ex-leader that surrendered (sent `release`-merge) and awaits
    /// `merge accept` / `merge fail` (§4.3).
    Conquered,
    /// Fully subsumed node: answers queries and routes searches/releases
    /// along its `next` pointer (§4.2).
    Inactive,
}

impl Status {
    /// Every state, indexed by discriminant — a state's 3-bit code in a
    /// [`PackedLog`].
    const ALL: [Status; 7] = [
        Status::Asleep,
        Status::Explore,
        Status::Wait,
        Status::Passive,
        Status::Conqueror,
        Status::Conquered,
        Status::Inactive,
    ];

    /// Whether a node in this state is a leader in the paper's sense.
    pub(crate) fn is_leader(self) -> bool {
        matches!(self, Status::Explore | Status::Wait | Status::Conqueror)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Status::Asleep => "asleep",
            Status::Explore => "explore",
            Status::Wait => "wait",
            Status::Passive => "passive",
            Status::Conqueror => "conqueror",
            Status::Conquered => "conquered",
            Status::Inactive => "inactive",
        };
        f.write_str(name)
    }
}

/// One observed state transition, for checking the implementation against
/// the paper's Figure 1 diagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Transition {
    /// State before.
    pub from: Status,
    /// State after.
    pub to: Status,
}

impl Transition {
    /// Creates a transition.
    pub fn new(from: Status, to: Status) -> Self {
        Transition { from, to }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.from, self.to)
    }
}

/// The first [`PackedLog::CAPACITY`] states a node moved *to*, 3 bits each
/// in one word, oldest in the highest occupied bits below a marker bit
/// (an empty log is `1`). A transition's `from` is the previous entry —
/// `Asleep` before the first — so the successor states alone are the exact
/// history ([`transitions`]), and the typical node (98.5 % take ≤ 21
/// transitions) owns no log buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PackedLog(u64);

impl PackedLog {
    /// Entries one word holds: 21 × 3 bits + the marker.
    pub(crate) const CAPACITY: usize = 21;

    pub(crate) const fn new() -> Self {
        PackedLog(1)
    }

    pub(crate) fn len(self) -> usize {
        (63 - self.0.leading_zeros() as usize) / 3
    }

    /// Appends `to`; `false` (and no change) when the word is full.
    #[must_use]
    pub(crate) fn push(&mut self, to: Status) -> bool {
        let room = self.len() < Self::CAPACITY;
        if room {
            self.0 = self.0 << 3 | to as u64;
        }
        room
    }

    /// The logged states, oldest first.
    pub(crate) fn iter(self) -> impl Iterator<Item = Status> {
        (0..self.len())
            .rev()
            .map(move |i| Status::ALL[(self.0 >> (3 * i) & 7) as usize])
    }
}

/// The transition sequence a sequence of successor states stands for,
/// starting from `Asleep`.
pub(crate) fn transitions(tos: impl Iterator<Item = Status>) -> impl Iterator<Item = Transition> {
    tos.scan(Status::Asleep, |from, to| {
        Some(Transition::new(std::mem::replace(from, to), to))
    })
}

/// The exact transition set of the paper's Figure 1 (among the six paper
/// states), plus the `Asleep → Explore` wake-up edge.
///
/// One edge is an addition mandated by the §4.1 *text* rather than the
/// diagram: `Wait → Explore`, taken by an idle waiting leader whose `more`
/// set is replenished by an incoming search with the `new` flag ("the
/// leader v waits until v.more becomes non-empty").
pub const EXPECTED_TRANSITIONS: &[Transition] = &[
    // Wake-up.
    Transition {
        from: Status::Asleep,
        to: Status::Explore,
    },
    // Explore: search sent, or `more` and `unexplored` both empty.
    Transition {
        from: Status::Explore,
        to: Status::Wait,
    },
    // Idle waiter replenished (§4.1 text).
    Transition {
        from: Status::Wait,
        to: Status::Explore,
    },
    // Search with higher (phase, id) arrives: surrender.
    Transition {
        from: Status::Wait,
        to: Status::Conquered,
    },
    // Own search answered with release-abort.
    Transition {
        from: Status::Wait,
        to: Status::Passive,
    },
    // Own search answered with release-merge: start conquering.
    Transition {
        from: Status::Wait,
        to: Status::Conqueror,
    },
    // All newly acquired members acknowledged (or, in the Bounded/Ad-hoc
    // variants, immediately after merging the info).
    Transition {
        from: Status::Conqueror,
        to: Status::Explore,
    },
    // Merge accept arrived: ship info, become a message router.
    Transition {
        from: Status::Conquered,
        to: Status::Inactive,
    },
    // Merge fail arrived.
    Transition {
        from: Status::Conquered,
        to: Status::Passive,
    },
    // A later, stronger leader's search finally conquers a passive node.
    Transition {
        from: Status::Passive,
        to: Status::Conquered,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_states_match_paper() {
        assert!(Status::Explore.is_leader());
        assert!(Status::Wait.is_leader());
        assert!(Status::Conqueror.is_leader());
        assert!(!Status::Passive.is_leader());
        assert!(!Status::Conquered.is_leader());
        assert!(!Status::Inactive.is_leader());
        assert!(!Status::Asleep.is_leader());
    }

    #[test]
    fn expected_transitions_are_unique() {
        let mut set = EXPECTED_TRANSITIONS.to_vec();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), EXPECTED_TRANSITIONS.len());
    }

    #[test]
    fn no_transition_escapes_terminal_inactive() {
        assert!(EXPECTED_TRANSITIONS
            .iter()
            .all(|t| t.from != Status::Inactive));
    }

    #[test]
    fn status_codes_index_the_table() {
        for (code, &s) in Status::ALL.iter().enumerate() {
            assert_eq!(s as usize, code);
        }
    }

    #[test]
    fn packed_log_holds_its_capacity_in_order_and_then_refuses() {
        let mut log = PackedLog::new();
        assert_eq!(log.len(), 0);
        assert_eq!(log.iter().count(), 0);
        let tos: Vec<Status> = (0..PackedLog::CAPACITY)
            .map(|i| Status::ALL[i % 7])
            .collect();
        for (i, &to) in tos.iter().enumerate() {
            assert!(log.push(to));
            assert_eq!(log.len(), i + 1);
            assert_eq!(log.iter().collect::<Vec<_>>(), tos[..=i]);
        }
        let full = log;
        assert!(!log.push(Status::Inactive));
        assert_eq!(log, full);
        let seq: Vec<Transition> = transitions(tos.iter().copied()).collect();
        assert_eq!(seq[0], Transition::new(Status::Asleep, tos[0]));
        assert!(seq.windows(2).all(|w| w[0].to == w[1].from));
    }

    #[test]
    fn display_is_readable() {
        let t = Transition::new(Status::Wait, Status::Conquered);
        assert_eq!(t.to_string(), "wait → conquered");
    }
}
