//! The ordered id set behind a protocol node's state.
//!
//! A discovery node's state (paper Figure 2) is a handful of id sets, and
//! every handler is set algebra on them: membership tests, single inserts
//! and removes, "take the smallest", "take the `k` smallest", and ascending
//! walks. The sets also travel: an `info` handover and a `query reply`
//! carry them by move, and a delivery absorbs them run by run. Almost
//! all of those sets are tiny (a sleeping node's out-edges, a singleton
//! cluster); a few — the surviving leaders' — grow to the whole component.
//! An [`IdSet`] serves both ends from one contiguous buffer:
//!
//! * a **sorted, duplicate-free `Vec<u32>`** while the set is sparse —
//!   one allocation of exactly the ids, binary-search membership, an O(1)
//!   append for ascending inserts;
//! * the crate's [`BitSet`] from the moment the bitmap is *no larger than
//!   the vector* (`4·len ≥ 8·(max_id/64 + 1) + size_of::<BitSet>()` bytes:
//!   its words plus the boxed header) — O(1) everything, and a bound on
//!   the sorted mode's insert memmove: it never holds more than
//!   `max_id/32 + 9` ids.
//!
//! The rule is read off the data, not tuned. A bitmap falls back to the
//! vector only when it empties, and an empty set of either mode owns no
//! heap at all, so a node that hands its cluster on keeps nothing behind.
//! Iteration is ascending in both modes; which mode a set is in is not
//! observable except through [`heap_bytes`](IdSet::heap_bytes).

use crate::{BitSet, NodeId};

/// An ordered set of node ids: a sorted vector that promotes itself to a
/// bitmap once the bitmap is no larger.
///
/// Semantically a `BTreeSet<NodeId>` (the property test
/// `tests/idset_model.rs` drives both through the same operations):
/// `insert` / `remove` report whether the set changed, iteration is
/// ascending, equality compares members.
///
/// # Example
///
/// ```
/// use ard_netsim::{IdSet, NodeId};
///
/// let mut set: IdSet = [7, 3, 9].into_iter().map(NodeId::new).collect();
/// assert!(set.insert(NodeId::new(5)));
/// assert!(!set.insert(NodeId::new(5)), "second insert reports already-present");
/// assert_eq!(set.first(), Some(NodeId::new(3)));
/// let taken = set.take_prefix(2);
/// assert_eq!(taken.iter().map(NodeId::index).collect::<Vec<_>>(), [3, 5]);
/// assert_eq!(set.iter().map(NodeId::index).collect::<Vec<_>>(), [7, 9]);
/// let mut runs = Vec::new();
/// set.insert(NodeId::new(8));
/// set.for_each_run(|start, end| runs.push((start, end)));
/// assert_eq!(runs, [(7, 10)], "maximal runs of consecutive ids");
/// set.clear();
/// assert_eq!(set.heap_bytes(), 0, "an empty set owns no heap");
/// ```
#[derive(Clone, Default)]
pub struct IdSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Ascending and duplicate-free; unallocated when empty.
    Sorted(Vec<u32>),
    /// Never empty: the last removal falls back to `Sorted`. Boxed because
    /// few sets ever promote while every node carries five: the set stays
    /// the three words of its vector.
    Bits(Box<BitSet>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Sorted(Vec::new())
    }
}

/// Heap bytes of a promoted set: the bit words and the boxed [`BitSet`]
/// that owns them.
fn bitmap_bytes(words: usize) -> usize {
    words * std::mem::size_of::<u64>() + std::mem::size_of::<BitSet>()
}

fn raw(id: NodeId) -> u32 {
    id.index() as u32
}

fn id(raw: u32) -> NodeId {
    NodeId::new(raw as usize)
}

impl IdSet {
    /// Creates an empty set (no allocation).
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(ids) => ids.len(),
            Repr::Bits(bits) => bits.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        matches!(&self.repr, Repr::Sorted(ids) if ids.is_empty())
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: NodeId) -> bool {
        match &self.repr {
            Repr::Sorted(ids) => ids.binary_search(&raw(id)).is_ok(),
            Repr::Bits(bits) => bits.contains(id.index()),
        }
    }

    /// Inserts `id`. Returns `true` if it was not already present.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let i = raw(id);
        match &mut self.repr {
            Repr::Sorted(ids) => {
                match ids.last() {
                    // Ascending streams (payload absorption, `done` filling
                    // up in query order) append without a search.
                    Some(&max) if i <= max => match ids.binary_search(&i) {
                        Ok(_) => return false,
                        Err(at) => ids.insert(at, i),
                    },
                    _ => ids.push(i),
                }
                self.settle();
                true
            }
            Repr::Bits(bits) => bits.insert(id.index()),
        }
    }

    /// Inserts every id of the half-open index run `[start, end)` — how a
    /// delivery absorbs a payload, run by run. A sorted set splices the run
    /// in with one move of its tail, and a run it already covers (a
    /// redelivery) costs two binary searches and no write.
    pub fn insert_run(&mut self, start: u32, end: u32) {
        match &mut self.repr {
            Repr::Sorted(ids) => {
                // Ascending streams append without the first search.
                let lo = match ids.last() {
                    Some(&max) if start <= max => ids.partition_point(|&i| i < start),
                    _ => ids.len(),
                };
                let hi = lo + ids[lo..].partition_point(|&i| i < end);
                if hi - lo < end.saturating_sub(start) as usize {
                    ids.splice(lo..hi, start..end);
                    self.settle();
                }
            }
            Repr::Bits(bits) => (start..end).for_each(|i| {
                bits.insert(i as usize);
            }),
        }
    }

    /// Removes `id`. Returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        match &mut self.repr {
            Repr::Sorted(ids) => {
                let Ok(at) = ids.binary_search(&raw(id)) else {
                    return false;
                };
                ids.remove(at);
            }
            Repr::Bits(bits) => {
                if !bits.remove(id.index()) {
                    return false;
                }
            }
        }
        self.settle();
        true
    }

    /// The smallest id in the set.
    pub fn first(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Sorted(ids) => ids.first().map(|&i| id(i)),
            Repr::Bits(bits) => bits.first().map(NodeId::new),
        }
    }

    /// Removes and returns the smallest id in the set.
    pub fn pop_first(&mut self) -> Option<NodeId> {
        let first = self.first()?;
        self.remove(first);
        Some(first)
    }

    /// Removes the `k` smallest ids and returns them as a set of their own.
    /// Taking all of them (`k >= len`) moves the buffer out and copies
    /// nothing; a proper prefix is drained into a new sorted buffer, and
    /// the non-empty rest keeps its mode.
    pub fn take_prefix(&mut self, k: usize) -> IdSet {
        if k >= self.len() {
            return std::mem::take(self);
        }
        let taken = match &mut self.repr {
            Repr::Sorted(ids) => ids.drain(..k).collect(),
            Repr::Bits(bits) => (0..k)
                .map(|_| {
                    let first = bits.first().expect("fewer taken than held");
                    bits.remove(first);
                    first as u32
                })
                .collect(),
        };
        IdSet::from_sorted(taken)
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (sorted, bits) = match &self.repr {
            Repr::Sorted(ids) => (ids.as_slice(), None),
            Repr::Bits(bits) => (&[][..], Some(bits)),
        };
        let bits = bits.into_iter().flat_map(|b| b.iter()).map(NodeId::new);
        sorted.iter().map(|&i| id(i)).chain(bits)
    }

    /// Calls `f` with every id in ascending order (the allocation-free
    /// walk behind a handler's per-id filter or a digest).
    pub fn for_each(&self, mut f: impl FnMut(NodeId)) {
        match &self.repr {
            Repr::Sorted(ids) => ids.iter().for_each(|&i| f(id(i))),
            Repr::Bits(bits) => bits.iter().for_each(|i| f(NodeId::new(i))),
        }
    }

    /// Calls `f` with every maximal run `[start, end)` of consecutive ids,
    /// ascending — how a delivery absorbs a shipped set, and how a sparse
    /// knowledge set digests.
    pub fn for_each_run(&self, mut f: impl FnMut(u32, u32)) {
        let mut run: Option<(u32, u32)> = None;
        self.for_each(|v| {
            let i = raw(v);
            match &mut run {
                Some((_, end)) if *end == i => *end += 1,
                _ => {
                    if let Some((start, end)) = run.replace((i, i + 1)) {
                        f(start, end);
                    }
                }
            }
        });
        if let Some((start, end)) = run {
            f(start, end);
        }
    }

    /// Empties the set and releases its buffer.
    pub fn clear(&mut self) {
        self.repr = Repr::default();
    }

    /// Heap bytes backing the set (capacity, not just occupancy); zero
    /// whenever the set is empty.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sorted(ids) => ids.capacity() * std::mem::size_of::<u32>(),
            Repr::Bits(bits) => std::mem::size_of::<BitSet>() + bits.heap_bytes(),
        }
    }

    /// The set of `ids`, which must be ascending and duplicate-free, with
    /// the promotion rule applied once.
    fn from_sorted(ids: Vec<u32>) -> IdSet {
        let mut set = IdSet {
            repr: Repr::Sorted(ids),
        };
        set.settle();
        set
    }

    /// Restores the representation invariants after a mutation: an empty
    /// set owns no buffer, and a sorted vector whose bitmap would be no
    /// larger ([`bitmap_bytes`]) becomes that bitmap. Only growth, or
    /// losing the maximum, can make the rule fire; it is checked after
    /// every sorted-mode mutation because the check is two loads.
    fn settle(&mut self) {
        match &self.repr {
            Repr::Sorted(ids) => match ids.last() {
                None => self.repr = Repr::default(),
                Some(&max) => {
                    let words = max as usize / 64 + 1;
                    if std::mem::size_of_val(ids.as_slice()) >= bitmap_bytes(words) {
                        let mut bits = BitSet::with_capacity(words * 64);
                        for &i in ids {
                            bits.insert(i as usize);
                        }
                        self.repr = Repr::Bits(Box::new(bits));
                    }
                }
            },
            Repr::Bits(bits) => {
                if bits.is_empty() {
                    self.repr = Repr::default();
                }
            }
        }
    }
}

/// Member equality, whatever mode either side is in.
impl PartialEq for IdSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for IdSet {}

impl std::fmt::Debug for IdSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for IdSet {
    /// Builds the set in one sort: the buffer is exactly the input's size
    /// and the promotion rule is applied once, at the end.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut ids: Vec<u32> = iter.into_iter().map(raw).collect();
        ids.sort_unstable();
        ids.dedup();
        IdSet::from_sorted(ids)
    }
}

impl Extend<NodeId> for IdSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_bitmap(set: &IdSet) -> bool {
        matches!(set.repr, Repr::Bits(_))
    }

    fn members(set: &IdSet) -> Vec<usize> {
        set.iter().map(NodeId::index).collect()
    }

    #[test]
    fn promotes_exactly_when_the_bitmap_is_no_larger() {
        // max id 1000 → 16 words behind a 32-byte header, 160 bytes: 40
        // four-byte ids.
        let mut set = IdSet::new();
        set.insert(NodeId::new(1000));
        for i in 0..38 {
            set.insert(NodeId::new(i * 7));
            assert!(!is_bitmap(&set), "{} ids are still smaller", set.len());
        }
        set.insert(NodeId::new(999));
        assert!(is_bitmap(&set));
        assert_eq!(set.len(), 40);
        assert_eq!(set.heap_bytes(), 160);
        // The bitmap persists until the set empties …
        for i in 0..38 {
            set.remove(NodeId::new(i * 7));
        }
        assert!(is_bitmap(&set));
        assert_eq!(members(&set), [999, 1000]);
        // … and an emptied set owns nothing, in either mode.
        set.take_prefix(5);
        assert!(set.is_empty() && !is_bitmap(&set));
        assert_eq!(set.heap_bytes(), 0);
        set.insert(NodeId::new(4));
        set.pop_first();
        assert_eq!(set.heap_bytes(), 0);
    }

    #[test]
    fn losing_the_maximum_can_promote() {
        let mut set: IdSet = (0..12).chain([100_000]).map(NodeId::new).collect();
        assert!(!is_bitmap(&set));
        set.remove(NodeId::new(100_000));
        assert!(is_bitmap(&set), "12 ids outweigh one word and the header");
        assert_eq!(members(&set), (0..12).collect::<Vec<_>>());
    }

    /// The sorted mode's insert memmove is bounded by the promotion rule:
    /// whatever the id stream, a set in sorted mode holds at most
    /// `max_id/32 + 9` ids, so the worst single insert at n = 10⁶ moves
    /// 128 KiB — on fragmented ids no benchmark workload reaches.
    #[test]
    fn sorted_mode_is_bounded_by_the_rule() {
        const N: usize = 1 << 20;
        let check = |set: &IdSet, max: usize| {
            if !is_bitmap(set) {
                assert!(
                    set.len() <= max / 32 + 32,
                    "{} sorted ids under max id {max}",
                    set.len()
                );
            }
        };
        // Worst case for the vector: the maximum first, then every insert
        // lands at the front (descending) or strides the universe.
        let descending = (0..N).rev().step_by(17);
        let striped = (0..64).flat_map(|c| (c..N).step_by(64 * 31));
        let scattered = (0..N as u64).map(|i| (i.wrapping_mul(0x9E37_79B9) % N as u64) as usize);
        let streams: [Box<dyn Iterator<Item = usize>>; 3] = [
            Box::new(descending),
            Box::new(striped),
            Box::new(scattered.take(80_000)),
        ];
        for stream in streams {
            let mut set = IdSet::new();
            let mut max = 0;
            for i in stream {
                set.insert(NodeId::new(i));
                max = max.max(i);
                check(&set, max);
            }
            assert!(is_bitmap(&set), "every stream ends dense enough");
        }
        // Losing the maximum lowers the bound, so removal applies the rule
        // too: a dense low block under a few far-away ids.
        let mut set: IdSet = (0..500)
            .chain((1..=100).map(|j| j * 10_000))
            .map(NodeId::new)
            .collect();
        while !is_bitmap(&set) {
            let max = set.iter().last().expect("sorted sets here are non-empty");
            check(&set, max.index());
            set.remove(max);
        }
        assert_eq!(set.len(), 501, "promoted once only 10,000 is left above");
    }

    #[test]
    fn from_iter_sorts_dedups_and_applies_the_rule() {
        let sparse: IdSet = [9, 3, 9, 70_000, 3].into_iter().map(NodeId::new).collect();
        assert_eq!(members(&sparse), [3, 9, 70_000]);
        assert!(!is_bitmap(&sparse));
        assert_eq!(sparse.heap_bytes(), 5 * 4, "the collected buffer, no more");
        let dense: IdSet = (0..100).rev().map(NodeId::new).collect();
        assert!(is_bitmap(&dense));
        assert_eq!(members(&dense), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equality_and_debug_ignore_the_mode() {
        let mut bitmap: IdSet = (0..12).map(NodeId::new).collect();
        assert!(is_bitmap(&bitmap));
        for i in (1..12).filter(|&i| i != 3) {
            bitmap.remove(NodeId::new(i));
        }
        let sorted: IdSet = [0, 3, 500].into_iter().map(NodeId::new).collect();
        assert!(!is_bitmap(&sorted));
        assert_ne!(bitmap, sorted);
        bitmap.insert(NodeId::new(500));
        assert!(is_bitmap(&bitmap));
        assert_eq!(bitmap, sorted);
        assert_eq!(format!("{bitmap:?}"), "{n0, n3, n500}");
        assert_eq!(format!("{sorted:?}"), "{n0, n3, n500}");
    }

    #[test]
    fn take_prefix_drains_ascending_in_both_modes() {
        for ids in [vec![5usize, 900, 17, 4000], (0..200).collect()] {
            let mut set: IdSet = ids.iter().copied().map(NodeId::new).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            let mut taken = members(&set.take_prefix(3));
            assert_eq!(taken, sorted[..3]);
            assert_eq!(members(&set), sorted[3..]);
            assert_eq!(set.first().map(NodeId::index), Some(sorted[3]));
            taken.extend(members(&set.take_prefix(usize::MAX)));
            assert_eq!(taken, sorted);
            assert!(set.is_empty());
            assert!(set.take_prefix(1).is_empty(), "nothing left to take");
        }
    }

    #[test]
    fn for_each_run_reports_maximal_runs_in_both_modes() {
        let runs = |set: &IdSet| {
            let mut out = Vec::new();
            set.for_each_run(|start, end| out.push((start, end)));
            out
        };
        assert_eq!(runs(&IdSet::new()), []);
        let sparse: IdSet = [3, 4, 5, 9, 10, 70_000]
            .into_iter()
            .map(NodeId::new)
            .collect();
        assert!(!is_bitmap(&sparse));
        assert_eq!(runs(&sparse), [(3, 6), (9, 11), (70_000, 70_001)]);
        let dense: IdSet = (0..100)
            .chain(101..130)
            .chain([200])
            .map(NodeId::new)
            .collect();
        assert!(is_bitmap(&dense));
        assert_eq!(runs(&dense), [(0, 100), (101, 130), (200, 201)]);
    }
}
