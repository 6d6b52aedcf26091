//! The run-coded id sequence a probe snapshot travels as.
//!
//! A leader answers a probe with the ids of its cluster, `more ++ done ++
//! unaware`, and the prober keeps that answer as an ordered list. The
//! payload is therefore a *sequence*, not a set: three ascending segments
//! whose concatenation must survive the trip exactly, because the
//! [`Envelope`](crate::Envelope) contract — visitor order, digests, bit
//! metering — is defined over the payload's id order. An [`IdSeq`] stores
//! it as half-open runs, one word each, so a cluster's segments collapse to
//! a handful of words. Every other set-valued payload ships the sender's
//! [`IdSet`](crate::IdSet) itself, by move.

use crate::NodeId;

/// Packs a half-open run `[start, end)` into one word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

/// Unpacks a half-open run `[start, end)` from one word.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// An ordered sequence of node ids, stored as runs.
///
/// Semantically a `Vec<NodeId>`: pushing ids and iterating yields exactly
/// the pushed sequence, in order, duplicates included. A push of the last
/// run's end extends that run in place; any other push (a gap, a step
/// back, a repeat) starts a new one. An ascending stream of consecutive ids
/// therefore costs one word per run, and a scattered one a word per id.
///
/// # Example
///
/// ```
/// use ard_netsim::{IdSeq, NodeId};
///
/// let seq: IdSeq = (0..100).chain([7]).map(NodeId::new).collect();
/// assert_eq!(seq.len(), 101);
/// let mut runs = Vec::new();
/// seq.for_each_run(&mut |start, end| runs.push((start, end)));
/// assert_eq!(runs, [(0, 100), (7, 8)], "push order and the repeat are kept");
/// assert_eq!(seq.iter().last(), Some(NodeId::new(7)));
/// ```
#[derive(Clone, Default)]
pub struct IdSeq {
    /// One half-open `[start, end)` run per word, `start` in the high 32
    /// bits.
    runs: Vec<u64>,
    /// Total ids in the sequence (the sum of the run lengths).
    len: u32,
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
        match self.runs.last_mut() {
            Some(w) if *w as u32 == i => *w += 1,
            _ => self.runs.push(pack(i, i + 1)),
        }
        self.len += 1;
    }

    /// Number of ids in the sequence.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `f` with every id, in push order (the allocation-free walk
    /// behind [`Envelope::for_each_carried_id`](crate::Envelope::for_each_carried_id)).
    pub fn for_each(&self, f: &mut dyn FnMut(NodeId)) {
        self.iter().for_each(f);
    }

    /// Calls `f` with the `[start, end)` runs whose concatenation is
    /// exactly the id sequence, so knowledge absorption at delivery can
    /// learn a whole run per call instead of id by id.
    pub fn for_each_run(&self, f: &mut dyn FnMut(u32, u32)) {
        for &w in &self.runs {
            let (start, end) = unpack(w);
            f(start, end);
        }
    }

    /// Iterates over the ids in push order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs.iter().flat_map(|&w| {
            let (start, end) = unpack(w);
            (start..end).map(|i| NodeId::new(i as usize))
        })
    }

    /// The ids collected into a `Vec`, in push order.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Heap bytes backing the sequence (capacity, not just occupancy) —
    /// the payload-bytes metering the bench reports per event.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<u64>()
    }
}

/// Sequence equality: the same ids in the same order.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: impl IntoIterator<Item = usize>) -> Vec<NodeId> {
        indices.into_iter().map(NodeId::new).collect()
    }

    fn runs(seq: &IdSeq) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        seq.for_each_run(&mut |s, e| out.push((s, e)));
        out
    }

    fn roundtrip(oracle: &[NodeId]) -> IdSeq {
        let seq: IdSeq = oracle.iter().copied().collect();
        assert_eq!(seq.len(), oracle.len());
        assert_eq!(seq.is_empty(), oracle.is_empty());
        assert_eq!(seq.to_vec(), oracle, "iter reproduces push order");
        let mut visited = Vec::new();
        seq.for_each(&mut |id| visited.push(id));
        assert_eq!(visited, oracle, "for_each matches iter");
        let by_runs: Vec<NodeId> = runs(&seq)
            .into_iter()
            .flat_map(|(s, e)| (s..e).map(|i| NodeId::new(i as usize)))
            .collect();
        assert_eq!(
            by_runs, oracle,
            "run decomposition concatenates to the sequence"
        );
        let mut pushed = IdSeq::new();
        oracle.iter().for_each(|&id| pushed.push(id));
        assert_eq!(pushed, seq, "push and collect build the same sequence");
        seq
    }

    #[test]
    fn sequences_round_trip() {
        roundtrip(&[]);
        roundtrip(&ids([7]));
        // Unsorted, with a duplicate.
        let mixed = roundtrip(&ids([5, 3, 9, 3, 0]));
        assert_ne!(
            mixed,
            ids([5, 9, 3, 3, 0]).into_iter().collect(),
            "order matters"
        );

        // Ascending and consecutive: one run is one word.
        let asc = roundtrip(&ids(10..200));
        assert_eq!(runs(&asc), [(10, 200)]);

        // Segmented ascending (snapshot shape: more ++ done ++ unaware).
        let segs = roundtrip(&ids((0..40).chain(100..140).chain(20..60)));
        assert_eq!(runs(&segs), [(0, 40), (100, 140), (20, 60)]);

        // Fragmented: every other id, no coalescing possible.
        let frag = roundtrip(&ids((0..50).map(|i| 2 * i)));
        assert_eq!(frag.runs.len(), 50);

        // Descending (never produced, still exact).
        roundtrip(&ids((0..50).rev()));
    }

    #[test]
    fn duplicate_of_run_end_starts_a_new_run() {
        // Pushing an id equal to the last run's *end* extends it; pushing
        // one equal to its last member must append, not extend.
        let mut seq: IdSeq = ids(0..40).into_iter().collect();
        seq.push(NodeId::new(39));
        let mut expected = ids(0..40);
        expected.push(NodeId::new(39));
        assert_eq!(seq.to_vec(), expected);
        assert_eq!(seq.len(), 41);
        assert_eq!(runs(&seq), [(0, 40), (39, 40)]);
    }
}
