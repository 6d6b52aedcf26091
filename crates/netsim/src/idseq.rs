//! Run-length-coded id sequences for message payloads.
//!
//! A discovery run's large payloads (`info` handovers, query-family
//! replies) ship subsets of a component whose ids are dense ranges of the
//! simulator's index space — mostly *runs*, not scattered ids. An
//! [`IdSeq`] stores such a payload as an ordered sequence of half-open
//! runs once it grows past a small threshold, so the endgame's
//! O(component)-sized payloads collapse to a handful of words instead of
//! an O(component) `Vec<NodeId>` per message (the allocation/memcpy
//! traffic that dominated large-n throughput).
//!
//! Unlike [`IntervalSet`](crate::IntervalSet), an [`IdSeq`] is a
//! *sequence*, not a set: it preserves exactly the order ids were pushed
//! (including duplicates), because the [`Envelope`](crate::Envelope)
//! contract — visitor order, digests, bit metering — is defined over the
//! payload's id order and must stay byte-identical to the `Vec<NodeId>`
//! representation it replaces.

use crate::NodeId;

/// Ids stored one-per-word before switching to run coding. Below this the
/// payload is small enough that run bookkeeping cannot pay for itself;
/// above it, consecutive pushes start coalescing into `(start, end)` runs.
const DENSE_MAX: u32 = 32;

/// Packs a half-open run `[start, end)` into one word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

/// Unpacks a half-open run `[start, end)` from one word.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// An ordered sequence of node ids with run-length compression.
///
/// Semantically a `Vec<NodeId>`: pushing ids and iterating yields exactly
/// the pushed sequence, in order, duplicates included. Representationally
/// it is dense (one id per word) below `DENSE_MAX` ids and run-coded
/// above, where a push of `last_end` extends the final run in place — so
/// a payload built from ascending iteration (every production site: the
/// [`IdSet`](crate::IdSet) cluster sets) stores long runs in O(1) words each.
///
/// Equality compares the id *sequence*, not the representation: a dense
/// and a run-coded `IdSeq` holding the same ids are equal.
///
/// # Example
///
/// ```
/// use ard_netsim::{IdSeq, NodeId};
///
/// let seq: IdSeq = (0..100).map(NodeId::new).collect();
/// assert_eq!(seq.len(), 100);
/// assert!(seq.heap_bytes() <= 40 * 8, "one ascending run stays compact");
/// assert_eq!(seq.iter().collect::<Vec<_>>(), (0..100).map(NodeId::new).collect::<Vec<_>>());
/// ```
#[derive(Clone, Default)]
pub struct IdSeq {
    /// Dense mode: one id per word (low 32 bits). Run mode: one half-open
    /// `[start, end)` run per word, `start` in the high 32 bits.
    words: Vec<u64>,
    /// Total ids in the sequence (sum of run lengths in run mode).
    len: u32,
    /// Whether `words` holds runs instead of single ids.
    run_coded: bool,
}

impl IdSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        IdSeq::default()
    }

    /// Appends `id` to the sequence.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id`'s index is `u32::MAX`, the one
    /// index a half-open `u32` run cannot end past.
    pub fn push(&mut self, id: NodeId) {
        let i = id.index() as u32;
        debug_assert!(i < u32::MAX, "id sequence index below u32::MAX");
        if !self.run_coded {
            if self.len < DENSE_MAX {
                self.words.push(u64::from(i));
                self.len += 1;
                return;
            }
            self.convert_to_runs();
        }
        match self.words.last_mut() {
            // Extending the last run keeps ascending streams at one word
            // per run; anything else appends a fresh (possibly singleton)
            // run, preserving the exact push order.
            Some(w) if (*w as u32) == i && (*w >> 32) as u32 <= i => *w += 1,
            _ => self.words.push(pack(i, i + 1)),
        }
        self.len += 1;
    }

    /// Re-codes the dense words as runs, in place. Each maximal ascending
    /// stretch of consecutive ids becomes one run; since every run
    /// consumes at least one dense word, the write index never passes the
    /// read index and the buffer never grows.
    fn convert_to_runs(&mut self) {
        let mut write = 0usize;
        let mut read = 0usize;
        while read < self.words.len() {
            let start = self.words[read] as u32;
            let mut end = start + 1;
            read += 1;
            while read < self.words.len() && self.words[read] as u32 == end {
                end += 1;
                read += 1;
            }
            self.words[write] = pack(start, end);
            write += 1;
        }
        self.words.truncate(write);
        self.run_coded = true;
    }

    /// Number of ids in the sequence.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `f` with every id, in push order (the hot, allocation-free
    /// walk behind [`Envelope::for_each_carried_id`](crate::Envelope::for_each_carried_id)).
    pub fn for_each(&self, f: &mut dyn FnMut(NodeId)) {
        if self.run_coded {
            for &w in &self.words {
                let (start, end) = unpack(w);
                for i in start..end {
                    f(NodeId::new(i as usize));
                }
            }
        } else {
            for &w in &self.words {
                f(NodeId::new(w as usize));
            }
        }
    }

    /// Calls `f` with `[start, end)` runs whose concatenation is exactly
    /// the id sequence. Dense stretches of consecutive ids are reported as
    /// one run even in dense mode, so knowledge absorption at delivery
    /// can learn a whole run per call instead of id-by-id.
    pub fn for_each_run(&self, f: &mut dyn FnMut(u32, u32)) {
        if self.run_coded {
            for &w in &self.words {
                let (start, end) = unpack(w);
                f(start, end);
            }
        } else {
            let mut i = 0usize;
            while i < self.words.len() {
                let start = self.words[i] as u32;
                let mut end = start + 1;
                i += 1;
                while i < self.words.len() && self.words[i] as u32 == end {
                    end += 1;
                    i += 1;
                }
                f(start, end);
            }
        }
    }

    /// Iterates over the ids in push order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().flat_map(move |&w| {
            let (start, end) = if self.run_coded {
                unpack(w)
            } else {
                (w as u32, w as u32 + 1)
            };
            (start..end).map(|i| NodeId::new(i as usize))
        })
    }

    /// Whether `id` occurs anywhere in the sequence (linear scan; tests
    /// and assertions only).
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index() as u32;
        if self.run_coded {
            self.words.iter().any(|&w| {
                let (start, end) = unpack(w);
                start <= i && i < end
            })
        } else {
            self.words.iter().any(|&w| w as u32 == i)
        }
    }

    /// The ids collected into a `Vec`, in push order.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Heap bytes backing the sequence (capacity, not just occupancy) —
    /// the payload-bytes metering the bench reports per event.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl PartialEq for IdSeq {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for IdSeq {}

impl std::fmt::Debug for IdSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for IdSeq {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut seq = IdSeq::new();
        for id in iter {
            seq.push(id);
        }
        seq
    }
}

impl Extend<NodeId> for IdSeq {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().copied().map(NodeId::new).collect()
    }

    fn roundtrip(oracle: &[NodeId]) {
        let seq: IdSeq = oracle.iter().copied().collect();
        assert_eq!(seq.len(), oracle.len());
        assert_eq!(seq.is_empty(), oracle.is_empty());
        assert_eq!(seq.to_vec(), oracle, "iter reproduces push order");
        let mut visited = Vec::new();
        seq.for_each(&mut |id| visited.push(id));
        assert_eq!(visited, oracle, "for_each matches iter");
        let mut by_runs = Vec::new();
        seq.for_each_run(&mut |s, e| by_runs.extend((s..e).map(|i| NodeId::new(i as usize))));
        assert_eq!(by_runs, oracle, "run decomposition concatenates to the sequence");
    }

    #[test]
    fn dense_sequences_round_trip() {
        roundtrip(&[]);
        roundtrip(&ids(&[7]));
        roundtrip(&ids(&[5, 3, 9, 3, 0])); // unsorted, duplicate
        roundtrip(&(0..31).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn run_coded_sequences_round_trip() {
        // Ascending across the threshold: coalesces into one run.
        let asc: Vec<NodeId> = (10..200).map(NodeId::new).collect();
        roundtrip(&asc);
        let seq: IdSeq = asc.iter().copied().collect();
        assert!(seq.run_coded);
        assert_eq!(seq.words.len(), 1, "one ascending run is one word");

        // Segmented ascending (snapshot shape: more ++ done ++ unaware).
        let segs: Vec<NodeId> = (0..40).chain(100..140).chain(20..60).map(NodeId::new).collect();
        roundtrip(&segs);

        // Adversarially fragmented: every other id, no coalescing possible.
        let frag: Vec<NodeId> = (0..50).map(|i| NodeId::new(2 * i)).collect();
        roundtrip(&frag);

        // Descending (never produced, still must be exact).
        let desc: Vec<NodeId> = (0..50).rev().map(NodeId::new).collect();
        roundtrip(&desc);
    }

    #[test]
    fn threshold_conversion_is_in_place() {
        let mut seq = IdSeq::new();
        for i in 0..DENSE_MAX as usize {
            seq.push(NodeId::new(i));
        }
        assert!(!seq.run_coded);
        let cap = seq.words.capacity();
        seq.push(NodeId::new(DENSE_MAX as usize));
        assert!(seq.run_coded);
        assert_eq!(seq.words.capacity(), cap, "conversion reuses the buffer");
        assert_eq!(seq.to_vec(), (0..=DENSE_MAX as usize).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn equality_is_representation_independent() {
        // Same ids, one dense (pushed) and one forced run-coded (long
        // prefix trimmed by building differently is not possible — build
        // past the threshold then compare against the same sequence).
        let long: Vec<NodeId> = (0..100).map(NodeId::new).collect();
        let a: IdSeq = long.iter().copied().collect();
        let mut b = IdSeq::new();
        b.extend(long.iter().copied());
        assert_eq!(a, b);

        let short_dense: IdSeq = ids(&[1, 2, 3]).into_iter().collect();
        let mut short_runs = IdSeq::new();
        short_runs.extend(ids(&[1, 2, 3]));
        short_runs.convert_to_runs();
        assert!(!short_dense.run_coded && short_runs.run_coded);
        assert_eq!(short_dense, short_runs);
        assert_ne!(short_dense, ids(&[1, 3, 2]).into_iter().collect::<IdSeq>());
    }

    #[test]
    fn contains_scans_both_modes() {
        let dense: IdSeq = ids(&[3, 8]).into_iter().collect();
        assert!(dense.contains(NodeId::new(8)));
        assert!(!dense.contains(NodeId::new(4)));
        let runs: IdSeq = (0..100).map(NodeId::new).collect();
        assert!(runs.contains(NodeId::new(99)));
        assert!(!runs.contains(NodeId::new(100)));
    }

    #[test]
    fn duplicate_of_run_end_starts_a_new_run() {
        // Pushing an id equal to the last run's *end* extends it; pushing
        // one equal to its last member must append, not extend.
        let mut seq = IdSeq::new();
        seq.extend((0..40).map(NodeId::new));
        assert!(seq.run_coded);
        seq.push(NodeId::new(39));
        let mut expected: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        expected.push(NodeId::new(39));
        assert_eq!(seq.to_vec(), expected);
        assert_eq!(seq.len(), 41);
    }
}
