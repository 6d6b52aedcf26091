//! Struct-of-arrays per-node simulator state.
//!
//! [`Runner`](crate::Runner) used to keep three parallel `Vec<bool>`s
//! (awake / wake-enqueued / crashed) plus a `Vec<BitSet>` of knowledge
//! sets. At n = 10⁶ that layout wastes 7/8 of every flag byte and pays a
//! dense bitset word array per node. [`NodeTable`] packs each flag plane
//! into `u64` words (one cache line covers 512 nodes) and stores knowledge
//! behind [`Knowledge`], which is an [`IdSet`] in networks above
//! [`DENSE_KNOWLEDGE_MAX`] nodes.

use crate::bitset::BitSet;
use crate::idset::IdSet;
use crate::NodeId;

/// Largest network size for which knowledge sets stay dense bitsets.
///
/// Below this, a knowledge set costs at most 1 KiB of words and dense
/// operations are fastest (measured: folding this mode onto [`IdSet`] too
/// costs the n = 1,024 sweep 10–15 %); above it, per-node O(n) bits stops
/// scaling (n = 10⁶ would need ~125 GB) and a set sized by its members
/// wins.
pub(crate) const DENSE_KNOWLEDGE_MAX: usize = 8192;

/// One packed plane of per-node boolean flags.
#[derive(Clone, Debug, Default)]
pub(crate) struct Flags {
    words: Vec<u64>,
    len: usize,
}

impl Flags {
    /// An all-false plane for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Flags {
            words: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Reads flag `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Writes flag `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Appends one flag (dynamic node addition).
    pub(crate) fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        let i = self.len;
        self.len += 1;
        self.set(i, value);
    }
}

/// A node's knowledge set — the ids it may address.
///
/// The representation is chosen once per network
/// ([`NodeTable::empty_knowledge`]): dense [`BitSet`] for networks built
/// with up to [`DENSE_KNOWLEDGE_MAX`] nodes, [`IdSet`] beyond. Both answer
/// the same queries, so the engine treats them uniformly.
#[derive(Clone, Debug)]
pub(crate) enum Knowledge {
    /// Dense bit words — O(1) everything, O(n) bits per node.
    Dense(BitSet),
    /// Sorted ids, or a bitmap once that is no larger — memory ≈ members,
    /// a shipped run spliced in one move.
    Sparse(IdSet),
}

impl Knowledge {
    /// Inserts `index`; `true` if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        match self {
            Knowledge::Dense(s) => s.insert(index),
            Knowledge::Sparse(s) => s.insert(NodeId::new(index)),
        }
    }

    /// Whether `index` is present.
    #[inline]
    pub(crate) fn contains(&self, index: usize) -> bool {
        match self {
            Knowledge::Dense(s) => s.contains(index),
            Knowledge::Sparse(s) => s.contains(NodeId::new(index)),
        }
    }

    /// Heap bytes backing the set.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Knowledge::Dense(s) => s.heap_bytes(),
            Knowledge::Sparse(s) => s.heap_bytes(),
        }
    }

    /// Mixes the set's *membership* into `d`, independent of insertion
    /// order and internal layout: dense sets digest their sorted members,
    /// sparse sets the maximal runs `[lo, hi)` of theirs (count first) —
    /// the value the run-coded representation they replaced digested, so
    /// recorded digests above [`DENSE_KNOWLEDGE_MAX`] nodes still match.
    pub(crate) fn digest_into(&self, d: &mut crate::scheduler::StateDigest) {
        match self {
            Knowledge::Dense(s) => {
                d.mix(s.len() as u64);
                for i in s.iter() {
                    d.mix(i as u64);
                }
            }
            Knowledge::Sparse(s) => {
                let mut runs = 0u64;
                s.for_each_run(|_, _| runs += 1);
                d.mix(runs);
                s.for_each_run(|lo, hi| {
                    d.mix(u64::from(lo));
                    d.mix(u64::from(hi));
                });
            }
        }
    }

    /// Inserts the half-open run `[start, end)` — how a delivery absorbs
    /// a run-coded payload, with no staging set in between.
    #[inline]
    pub(crate) fn insert_run(&mut self, start: u32, end: u32) {
        match self {
            Knowledge::Dense(s) => {
                for i in start..end {
                    s.insert(i as usize);
                }
            }
            Knowledge::Sparse(s) => s.insert_run(start, end),
        }
    }
}

/// Struct-of-arrays state for every node: four packed flag planes plus the
/// knowledge sets, indexed by dense node index.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeTable {
    awake: Flags,
    wake_enqueued: Flags,
    crashed: Flags,
    left: Flags,
    /// Whether this network's knowledge sets are [`Knowledge::Sparse`]:
    /// decided by the size the network was built with and kept as it
    /// grows, so one network never mixes the two (and one state digest
    /// never mixes their two membership formats).
    sparse: bool,
    pub(crate) knowledge: Vec<Knowledge>,
}

impl NodeTable {
    /// A table for `n` sleeping, uncrashed, empty-knowledge nodes.
    pub(crate) fn new(n: usize) -> Self {
        NodeTable {
            awake: Flags::new(n),
            wake_enqueued: Flags::new(n),
            crashed: Flags::new(n),
            left: Flags::new(n),
            sparse: n > DENSE_KNOWLEDGE_MAX,
            knowledge: Vec::with_capacity(n),
        }
    }

    /// An empty knowledge set in this network's representation; a dense
    /// one is pre-sized for ids below `capacity`.
    pub(crate) fn empty_knowledge(&self, capacity: usize) -> Knowledge {
        if self.sparse {
            Knowledge::Sparse(IdSet::new())
        } else {
            Knowledge::Dense(BitSet::with_capacity(capacity))
        }
    }

    #[inline]
    pub(crate) fn awake(&self, i: usize) -> bool {
        self.awake.get(i)
    }

    #[inline]
    pub(crate) fn set_awake(&mut self, i: usize, value: bool) {
        self.awake.set(i, value);
    }

    #[inline]
    pub(crate) fn wake_enqueued(&self, i: usize) -> bool {
        self.wake_enqueued.get(i)
    }

    #[inline]
    pub(crate) fn set_wake_enqueued(&mut self, i: usize, value: bool) {
        self.wake_enqueued.set(i, value);
    }

    #[inline]
    pub(crate) fn crashed(&self, i: usize) -> bool {
        self.crashed.get(i)
    }

    #[inline]
    pub(crate) fn set_crashed(&mut self, i: usize, value: bool) {
        self.crashed.set(i, value);
    }

    #[inline]
    pub(crate) fn left(&self, i: usize) -> bool {
        self.left.get(i)
    }

    #[inline]
    pub(crate) fn set_left(&mut self, i: usize, value: bool) {
        self.left.set(i, value);
    }

    /// Appends one sleeping node with the given knowledge (dynamic node
    /// addition).
    pub(crate) fn push(&mut self, knowledge: Knowledge) {
        self.awake.push(false);
        self.wake_enqueued.push(false);
        self.crashed.push(false);
        self.left.push(false);
        self.knowledge.push(knowledge);
    }

    /// Sum of heap bytes across all knowledge sets.
    pub(crate) fn knowledge_bytes(&self) -> usize {
        self.knowledge.iter().map(Knowledge::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_pack_and_roundtrip() {
        let mut f = Flags::new(130);
        assert!(!(0..130).any(|i| f.get(i)));
        f.set(0, true);
        f.set(63, true);
        f.set(64, true);
        f.set(129, true);
        for i in [0, 63, 64, 129] {
            assert!(f.get(i), "missing {i}");
        }
        f.set(64, false);
        assert!(!f.get(64));
        f.push(true);
        assert!(f.get(130));
    }

    #[test]
    fn flags_push_from_empty_grows_words() {
        let mut f = Flags::new(0);
        for i in 0..100 {
            f.push(i % 3 == 0);
        }
        assert!((0..100).all(|i| f.get(i) == (i % 3 == 0)));
    }

    #[test]
    fn knowledge_representation_follows_network_size() {
        let of = |n: usize| NodeTable::new(n).empty_knowledge(n);
        assert!(matches!(of(DENSE_KNOWLEDGE_MAX), Knowledge::Dense(_)));
        assert!(matches!(of(DENSE_KNOWLEDGE_MAX + 1), Knowledge::Sparse(_)));
        let mut k = of(1 << 20);
        assert!(k.insert(7));
        assert!(!k.insert(7));
        assert!(k.contains(7));
        assert!(!k.contains(8));
        assert!(k.heap_bytes() < 1024, "sized by its members");
    }

    /// Every node carries one `Knowledge`: the enum is as wide as its
    /// dense mode, a `BitSet` of four words (`u32` count and cursor).
    #[test]
    fn knowledge_size_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<BitSet>(), 32);
        assert_eq!(size_of::<IdSet>(), 24);
        assert_eq!(size_of::<Knowledge>(), 32);
    }

    /// A sparse set digests as the run-coded sets it replaced did: the
    /// number of maximal runs, then each `[lo, hi)`.
    #[test]
    fn sparse_digest_is_the_run_digest() {
        use crate::scheduler::StateDigest;
        let mut k = NodeTable::new(1 << 20).empty_knowledge(0);
        for i in [9, 3, 4, 5, 700_000, 10] {
            k.insert(i);
        }
        k.insert_run(699_990, 700_000);
        let mut got = StateDigest::new();
        k.digest_into(&mut got);
        let mut want = StateDigest::new();
        for x in [3, 3, 6, 9, 11, 699_990, 700_001] {
            want.mix(x);
        }
        assert_eq!(got.finish(), want.finish());
    }
}
