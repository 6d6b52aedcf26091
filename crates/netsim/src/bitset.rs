//! A growable bitset for dense-index sets.
//!
//! Node ids are dense indices (see [`NodeId`](crate::NodeId)), so per-node
//! knowledge sets are kept as bitsets rather than hash sets: membership and
//! insertion are a word index and a mask — no hashing, no per-insert
//! allocation — which keeps the simulator's delivery hot path
//! allocation-free. The set also counts its members and remembers its first
//! non-zero word, so `len`, `is_empty` and `first` are O(1): it is the dense
//! mode of the protocol's [`IdSet`](crate::IdSet), which pops its smallest
//! member on every search.

/// A growable set of `usize` indices backed by a `Vec<u64>` of bit words.
///
/// The member count and the first-word cursor are `u32`s, as node ids are
/// (see [`NodeId::new`](crate::NodeId::new)), which keeps the header at
/// four words: a set holds fewer than 2³² members below index 2³⁸.
///
/// # Example
///
/// ```
/// use ard_netsim::BitSet;
///
/// let mut set = BitSet::new();
/// assert!(set.insert(3));
/// assert!(!set.insert(3), "second insert reports already-present");
/// assert!(set.contains(3));
/// assert!(!set.contains(200));
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of set bits, kept in step by every mutation.
    len: u32,
    /// Index of the first non-zero word; unspecified while the set is
    /// empty. Makes [`first`](BitSet::first) O(1).
    first_word: u32,
}

/// Membership equality over the bit words (`len` and `first_word` are
/// functions of them).
impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for BitSet {}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty set pre-sized to hold indices below `bits` without
    /// reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
            ..BitSet::default()
        }
    }

    /// Inserts `index`, growing the set as needed. Returns `true` if it was
    /// not already present.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        let mask = 1u64 << (index % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let old = self.words[word];
        self.words[word] = old | mask;
        let new = old & mask == 0;
        if new {
            if self.len == 0 || word < self.first_word as usize {
                self.first_word = u32::try_from(word).expect("bit index below 2^38");
            }
            self.len += 1;
        }
        new
    }

    /// Removes `index`. Returns `true` if it was present.
    pub(crate) fn remove(&mut self, index: usize) -> bool {
        let word = index / 64;
        let mask = 1u64 << (index % 64);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.len -= 1;
        if self.len > 0 {
            // Only emptying the first non-zero word moves the cursor; a
            // non-empty set has a set bit further on for it to stop at.
            while self.words[self.first_word as usize] == 0 {
                self.first_word += 1;
            }
        }
        true
    }

    /// The smallest index in the set, in O(1).
    pub(crate) fn first(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let first_word = self.first_word as usize;
        let bit = self.words[first_word].trailing_zeros() as usize;
        Some(first_word * 64 + bit)
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the set's indices in increasing order.
    ///
    /// Empty words are skipped in one comparison and set bits are located
    /// with `trailing_zeros`, so iteration costs O(words + members) rather
    /// than O(64 · words) — the difference is large for the sparse sets the
    /// simulator's visitor path walks at n = 10⁶.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let start = if self.len == 0 {
            self.words.len()
        } else {
            self.first_word as usize
        };
        self.words[start..]
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .flat_map(move |(wi, &w)| {
                let wi = start + wi;
                let mut rest = w;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + b)
                })
            })
    }

    /// Unions `other` into `self` word-by-word (`self ∪= other`).
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        if other.len > 0 && (self.len == 0 || other.first_word < self.first_word) {
            self.first_word = other.first_word;
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            self.len += (o & !*w).count_ones();
            *w |= o;
        }
    }

    /// Heap bytes backing the set (capacity, not just occupancy).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_growth() {
        let mut s = BitSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(1000));
        for i in [0, 63, 64, 1000] {
            assert!(s.contains(i), "missing {i}");
        }
        for i in [1, 62, 65, 999, 1001, 100_000] {
            assert!(!s.contains(i), "phantom {i}");
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn with_capacity_does_not_contain_anything() {
        let s = BitSet::with_capacity(500);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!((0..500).all(|i| !s.contains(i)));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: BitSet = [5usize, 1, 200, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 64, 200]);
    }

    #[test]
    fn equality_ignores_trailing_zero_words_only_if_same_shape() {
        let a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [1usize, 2].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_skips_long_zero_runs() {
        let s: BitSet = [0usize, 10_000].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 10_000]);
    }

    #[test]
    fn remove_keeps_len_and_first_in_step() {
        let mut s: BitSet = [3usize, 70, 5000].into_iter().collect();
        assert_eq!(s.first(), Some(3));
        assert!(!s.remove(4), "absent index");
        assert!(!s.remove(1_000_000), "index past the last word");
        assert!(s.remove(3));
        assert!(!s.remove(3), "second remove reports already-absent");
        assert_eq!((s.len(), s.first()), (2, Some(70)));
        assert!(s.remove(70));
        assert_eq!(s.first(), Some(5000), "cursor skips the emptied words");
        assert!(s.insert(1), "an insert below the cursor pulls it back");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5000]);
        assert!(s.remove(1) && s.remove(5000));
        assert!(s.is_empty());
        assert_eq!((s.first(), s.iter().next()), (None, None));
        assert!(s.insert(200), "refilling an emptied set resets the cursor");
        assert_eq!(s.first(), Some(200));
    }

    #[test]
    fn union_with_grows_and_merges() {
        let mut a: BitSet = [1usize, 100].into_iter().collect();
        let b: BitSet = [2usize, 700].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 100, 700]);
        // Union with a smaller set must not shrink.
        let small: BitSet = [3usize].into_iter().collect();
        a.union_with(&small);
        assert_eq!(a.len(), 5);
        assert_eq!(a.first(), Some(1));
        // Union into an empty set takes the other side's cursor.
        let mut empty = BitSet::with_capacity(64);
        empty.union_with(&b);
        assert_eq!((empty.len(), empty.first()), (2, Some(2)));
    }
}
