//! The consistent-hashing ring: key space, node placement, and the offline
//! routing oracle used to verify the distributed protocol.

use std::fmt;

use ard_netsim::NodeId;

/// A point on the 64-bit identifier circle.
///
/// # Example
///
/// ```
/// use ard_overlay::Key;
///
/// let a = Key::new(10);
/// let b = Key::new(20);
/// assert!(Key::new(15).in_interval(a, b));   // (10, 20]
/// assert!(b.in_interval(a, b));              // right-inclusive
/// assert!(!a.in_interval(a, b));             // left-exclusive
/// assert!(Key::new(5).in_interval(b, a));    // wrapping interval (20, 10]
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(u64);

impl Key {
    /// Wraps a raw 64-bit key.
    pub fn new(raw: u64) -> Self {
        Key(raw)
    }

    /// The raw value.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Whether `self` lies in the half-open circular interval `(from, to]`.
    /// The full circle is represented by `from == to` (everything is
    /// inside).
    pub fn in_interval(self, from: Key, to: Key) -> bool {
        if from == to {
            return true;
        }
        if from < to {
            from < self && self <= to
        } else {
            self > from || self <= to
        }
    }

    /// The point `2^exponent` steps clockwise (wrapping).
    pub(crate) fn offset(self, exponent: u32) -> Key {
        Key(self.0.wrapping_add(1u64 << exponent))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

/// Deterministic placement of a node on the circle (splitmix64 of its id,
/// so placement is uniform and reproducible).
pub fn key_of(node: NodeId) -> Key {
    let mut z = (node.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Key(z ^ (z >> 31))
}

/// The assembled ring: the offline oracle for ownership and routing.
///
/// Built from a membership list (what resource discovery outputs); the
/// distributed protocol's answers are verified against it in tests.
#[derive(Clone, Debug)]
pub struct RingTable {
    /// `(key, node)` pairs sorted by key.
    placed: Vec<(Key, NodeId)>,
}

impl RingTable {
    /// Places `members` on the circle.
    ///
    /// # Panics
    ///
    /// Panics on an empty membership or on a (astronomically unlikely)
    /// 64-bit key collision.
    pub fn new(members: &[NodeId]) -> Self {
        assert!(!members.is_empty(), "a ring needs at least one member");
        let mut placed: Vec<(Key, NodeId)> = members.iter().map(|&m| (key_of(m), m)).collect();
        placed.sort();
        for pair in placed.windows(2) {
            assert_ne!(
                pair[0].0, pair[1].0,
                "key collision between {} and {}",
                pair[0].1, pair[1].1
            );
        }
        RingTable { placed }
    }

    /// The node that owns `key`: the first node clockwise from it (its
    /// *successor* in Chord terms).
    pub fn owner(&self, key: Key) -> NodeId {
        match self.placed.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(i) => self.placed[i].1,
            Err(i) => self.placed[i % self.placed.len()].1,
        }
    }

    /// The successor of member `node` on the ring.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member.
    pub fn successor_of(&self, node: NodeId) -> NodeId {
        let key = key_of(node);
        let i = self
            .placed
            .binary_search_by(|&(k, _)| k.cmp(&key))
            .expect("node is a ring member");
        self.placed[(i + 1) % self.placed.len()].1
    }

    /// The finger table for `node`: for each `i` in `0..64`, the owner of
    /// `key_of(node) + 2^i`, deduplicated and excluding `node` itself.
    pub(crate) fn fingers_of(&self, node: NodeId) -> Vec<(Key, NodeId)> {
        let base = key_of(node);
        let mut fingers: Vec<(Key, NodeId)> = Vec::new();
        for exponent in 0..64 {
            let target = self.owner(base.offset(exponent));
            if target != node && fingers.last().map(|&(_, m)| m) != Some(target) {
                fingers.push((key_of(target), target));
            }
        }
        fingers.sort();
        fingers.dedup();
        fingers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let a = key_of(NodeId::new(5));
        let b = key_of(NodeId::new(5));
        assert_eq!(a, b);
        let keys: std::collections::BTreeSet<Key> =
            (0..1000).map(|i| key_of(NodeId::new(i))).collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn interval_wraps() {
        let lo = Key::new(u64::MAX - 5);
        let hi = Key::new(5);
        assert!(Key::new(0).in_interval(lo, hi));
        assert!(Key::new(u64::MAX).in_interval(lo, hi));
        assert!(!Key::new(100).in_interval(lo, hi));
        // Full circle.
        assert!(Key::new(42).in_interval(hi, hi));
    }

    #[test]
    fn owner_is_first_clockwise() {
        let ring = RingTable::new(&members(8));
        // Exhaustive: for each member's key, owner is itself; just past it,
        // owner is the successor.
        for &(_, m) in &ring.placed {
            assert_eq!(ring.owner(key_of(m)), m);
            let just_past = Key::new(key_of(m).raw().wrapping_add(1));
            assert_eq!(ring.owner(just_past), ring.successor_of(m));
        }
    }

    #[test]
    fn successors_form_a_single_cycle() {
        let ring = RingTable::new(&members(16));
        let start = NodeId::new(0);
        let mut cur = start;
        let mut seen = 0;
        loop {
            cur = ring.successor_of(cur);
            seen += 1;
            if cur == start {
                break;
            }
            assert!(seen <= 16, "successor chain does not close");
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn fingers_are_members_and_logarithmic() {
        let ring = RingTable::new(&members(128));
        let all: std::collections::BTreeSet<NodeId> = ring.placed.iter().map(|&(_, m)| m).collect();
        for &(_, m) in &ring.placed {
            let fingers = ring.fingers_of(m);
            assert!(!fingers.is_empty());
            // Distinct fingers number O(log n) — generous cap.
            assert!(fingers.len() <= 64);
            for (k, f) in fingers {
                assert!(all.contains(&f));
                assert_eq!(k, key_of(f));
                assert_ne!(f, m);
            }
        }
    }

    #[test]
    fn singleton_ring_owns_everything() {
        let ring = RingTable::new(&members(1));
        assert_eq!(ring.owner(Key::new(123)), NodeId::new(0));
        assert_eq!(ring.successor_of(NodeId::new(0)), NodeId::new(0));
        assert!(ring.fingers_of(NodeId::new(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ring_rejected() {
        RingTable::new(&[]);
    }
}
