//! Interval-coded index sets for run-heavy knowledge at large `n`.
//!
//! A discovery run grows each node's knowledge toward "everyone in my
//! component", and component ids are dense ranges of the simulator's
//! index space — so the *steady state* of a knowledge set is a handful of
//! long runs, not scattered bits. An [`IntervalSet`] stores exactly those
//! runs (`[start, end)`, sorted, disjoint, non-adjacent), which makes its
//! memory proportional to the number of runs (≈ constant per component)
//! instead of the O(n) bits a dense [`BitSet`](crate::BitSet) pays per
//! node. At n = 10⁶ that is the difference between ~125 GB of bitset
//! words and a few MB of run pairs.
//!
//! **No in-tree user.** The engine's knowledge sets moved onto
//! [`IdSet`](crate::IdSet) (one heap, binary search, runs spliced by
//! `IdSet::insert_run`); this module and its oracle
//! `tests/intset_equiv.rs` are kept, cut to what those two call, only
//! because the frozen `benchmark/` crate times the type (`netsim.intset.*` in
//! `benchmark/src/layers.rs`). Delete both when `benchmark/` is thawed
//! (ROADMAP item 1(a)).

/// A sorted-run set of `usize` indices below `u32::MAX`.
///
/// Semantically identical to [`BitSet`](crate::BitSet) (the property tests
/// in `crates/netsim/tests` hold the two to the same answers); the trade-off
/// is O(log runs) insertion against O(runs) memory and O(runs) union.
///
/// # Example
///
/// ```
/// use ard_netsim::IntervalSet;
///
/// let mut set = IntervalSet::new();
/// assert!(set.insert(3));
/// assert!(set.insert(4));
/// assert!(!set.insert(3), "second insert reports already-present");
/// assert_eq!(set.runs(), &[(3, 5)], "adjacent inserts coalesce");
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent half-open runs `[start, end)`.
    runs: Vec<(u32, u32)>,
    /// Cached total membership, kept in sync by every mutation.
    len: u64,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Inserts `index`, coalescing with adjacent runs. Returns `true` if it
    /// was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `u32::MAX` (node indices are dense and
    /// far smaller in practice).
    pub fn insert(&mut self, index: usize) -> bool {
        let i = u32::try_from(index).expect("interval set index fits u32");
        assert!(i < u32::MAX, "interval set index below u32::MAX");
        // Position of the first run starting after `i`; the run that could
        // contain `i` (if any) sits just before it.
        let at = self.runs.partition_point(|&(start, _)| start <= i);
        if at > 0 {
            let (start, end) = self.runs[at - 1];
            debug_assert!(start <= i);
            if i < end {
                return false;
            }
            if i == end {
                // Extend the left run; it may now touch the right one.
                if self.runs.get(at).is_some_and(|&(next, _)| next == i + 1) {
                    self.runs[at - 1].1 = self.runs[at].1;
                    self.runs.remove(at);
                } else {
                    self.runs[at - 1].1 = i + 1;
                }
                self.len += 1;
                return true;
            }
        }
        if self.runs.get(at).is_some_and(|&(next, _)| next == i + 1) {
            self.runs[at].0 = i;
        } else {
            self.runs.insert(at, (i, i + 1));
        }
        self.len += 1;
        true
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        let Ok(i) = u32::try_from(index) else {
            return false;
        };
        let at = self.runs.partition_point(|&(start, _)| start <= i);
        at > 0 && i < self.runs[at - 1].1
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The coalesced runs, as sorted disjoint half-open `(start, end)` pairs.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Iterates over the set's indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|&(start, end)| (start..end).map(|i| i as usize))
    }

    /// Inserts every index in the half-open run `[start, end)`, merging
    /// with any overlapping or adjacent runs, in O(log runs + runs moved).
    /// Learning a delivered payload's whole run this way is O(1) amortized
    /// where per-id insertion would be O(run length).
    pub fn insert_run(&mut self, start: u32, end: u32) {
        if start >= end {
            return;
        }
        // Runs strictly left of `start` (no overlap, not adjacent) …
        let lo = self.runs.partition_point(|&(_, e)| e < start);
        // … and the first run strictly right of `end`.
        let hi = self.runs.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.runs.insert(lo, (start, end));
            self.len += u64::from(end - start);
            return;
        }
        // Every run in `lo..hi` overlaps or touches `[start, end)`, so the
        // union of all of them with it is one contiguous span `[s, e)`; the
        // net growth is that span minus what those runs already covered.
        let mut covered = 0u64;
        let mut s = start;
        let mut e = end;
        for &(rs, re) in &self.runs[lo..hi] {
            covered += u64::from(re - rs);
            s = s.min(rs);
            e = e.max(re);
        }
        self.runs[lo] = (s, e);
        self.runs.drain(lo + 1..hi);
        self.len += u64::from(e - s) - covered;
    }

    /// Unions `other` into `self` in O(runs of self + runs of other) — the
    /// set-size-independent merge that makes cluster handover cheap.
    pub fn union_with(&mut self, other: &IntervalSet) {
        if other.runs.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let mut len = 0u64;
        let mut a = self.runs.iter().copied().peekable();
        let mut b = other.runs.iter().copied().peekable();
        let mut cur: Option<(u32, u32)> = None;
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => {
                    if x.0 <= y.0 {
                        a.next()
                    } else {
                        b.next()
                    }
                }
                (Some(_), None) => a.next(),
                (None, Some(_)) => b.next(),
                (None, None) => break,
            }
            .expect("peeked run present");
            match &mut cur {
                Some((_, end)) if next.0 <= *end => *end = (*end).max(next.1),
                _ => {
                    if let Some(done) = cur.take() {
                        len += u64::from(done.1 - done.0);
                        merged.push(done);
                    }
                    cur = Some(next);
                }
            }
        }
        if let Some(done) = cur {
            len += u64::from(done.1 - done.0);
            merged.push(done);
        }
        self.runs = merged;
        self.len = len;
    }
}

impl FromIterator<usize> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = IntervalSet::new();
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
    fn insert_contains_and_coalescing() {
        let mut s = IntervalSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.runs(), &[(5, 6), (7, 8)]);
        // Filling the gap coalesces the two runs into one.
        assert!(s.insert(6));
        assert_eq!(s.runs(), &[(5, 8)]);
        assert!(!s.insert(6));
        assert!(s.contains(5) && s.contains(6) && s.contains(7));
        assert!(!s.contains(4) && !s.contains(8));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_extends_runs_on_both_sides() {
        let mut s = IntervalSet::new();
        s.insert(10);
        s.insert(9); // extend a run's start
        s.insert(11); // extend a run's end
        assert_eq!(s.runs(), &[(9, 12)]);
        s.insert(0); // fresh run before
        s.insert(100); // fresh run after
        assert_eq!(s.runs(), &[(0, 1), (9, 12), (100, 101)]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: IntervalSet = [5usize, 1, 200, 64, 2].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 64, 200]);
    }

    #[test]
    fn union_with_merges_overlapping_runs() {
        let mut a: IntervalSet = (0usize..10).collect();
        let b: IntervalSet = (5usize..20).chain(30..32).collect();
        a.union_with(&b);
        assert_eq!(a.runs(), &[(0, 20), (30, 32)]);
        assert_eq!(a.len(), 22);
        // Union with an empty set is a no-op.
        a.union_with(&IntervalSet::new());
        assert_eq!(a.len(), 22);
        // Union into an empty set copies.
        let mut c = IntervalSet::new();
        c.union_with(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn union_with_coalesces_adjacent_runs() {
        let mut a: IntervalSet = (0usize..5).collect();
        let b: IntervalSet = (5usize..9).collect();
        a.union_with(&b);
        assert_eq!(a.runs(), &[(0, 9)]);
    }

    #[test]
    fn insert_run_merges_overlaps_and_adjacency() {
        let mut s = IntervalSet::new();
        s.insert_run(10, 20);
        assert_eq!(s.runs(), &[(10, 20)]);
        assert_eq!(s.len(), 10);
        // Disjoint run before.
        s.insert_run(0, 3);
        assert_eq!(s.runs(), &[(0, 3), (10, 20)]);
        // Overlapping both plus the gap: one merged span.
        s.insert_run(2, 15);
        assert_eq!(s.runs(), &[(0, 20)]);
        assert_eq!(s.len(), 20);
        // Fully covered: no change.
        s.insert_run(5, 10);
        assert_eq!(s.len(), 20);
        // Adjacent on the right coalesces.
        s.insert_run(20, 25);
        assert_eq!(s.runs(), &[(0, 25)]);
        assert_eq!(s.len(), 25);
        // Empty run is a no-op.
        s.insert_run(30, 30);
        assert_eq!(s.runs(), &[(0, 25)]);
    }

    #[test]
    fn insert_run_matches_per_id_inserts() {
        // Oracle: the same memberships built id-by-id.
        let runs = [(5u32, 9u32), (0, 2), (8, 20), (30, 31), (19, 30), (2, 5)];
        let mut by_run = IntervalSet::new();
        let mut by_id = IntervalSet::new();
        for &(a, b) in &runs {
            by_run.insert_run(a, b);
            for i in a..b {
                by_id.insert(i as usize);
            }
            assert_eq!(by_run, by_id);
            assert_eq!(by_run.len(), by_id.len());
        }
        assert_eq!(by_run.runs(), &[(0, 31)]);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s: IntervalSet = [1usize].into_iter().collect();
        assert!(!s.contains(usize::MAX));
    }
}
