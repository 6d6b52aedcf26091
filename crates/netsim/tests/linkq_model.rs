//! Model oracle for the runner's in-flight storage.
//!
//! [`LinkQueues`] threads every live link's FIFO list through one shared
//! slab and finds the link through a transient open-addressed index; the
//! model is the obvious structure, one `VecDeque` per key in a `HashMap`,
//! holding a key only while its queue is non-empty. These properties drive
//! both through the same operation sequences and require the same answer
//! from every observable — returned lengths (they feed
//! `Metrics::max_link_queue`), `front`, `pop_front`, in-order iteration,
//! the in-flight total, the set of live links — and that the slab holds
//! exactly as many cells as were ever queued at once (freed cells are
//! reused before it grows).
//!
//! The index's hard cases each get a stream that forces them: a burst of
//! 50,000 live links drained to 4 (the index doubles and halves through
//! every capacity in between), churn at the smallest capacity's full load
//! (probe clusters that merge, split and wrap around the table),
//! re-insertion of a key whose entry was just removed, and a clone that
//! diverges from its origin. The one case that needs the hash — deleting
//! inside a cluster of keys that share a home slot — is a unit test beside
//! the table (`linkq::tests`).

use std::collections::{BTreeSet, HashMap, VecDeque};

use proptest::prelude::*;

use ard_netsim::LinkQueues;

/// The slab queues beside their model.
#[derive(Clone, Default)]
struct Pair {
    real: LinkQueues<u32>,
    model: HashMap<u64, VecDeque<u32>>,
    /// Most items ever queued at once.
    peak: usize,
    queued: usize,
}

/// A link key the way the runner packs one: `(src, dst)` over 18 nodes,
/// 324 keys — more than the smallest index holds, few enough that random
/// ops revisit live links.
fn key(x: u32) -> u64 {
    (u64::from(x % 18) << 32) | u64::from(x / 18 % 18)
}

/// `(op, link, value)`: op 0–4 push `value`, 5–7 pop, 8 drains the link
/// and pushes `value` on the key just removed.
type Op = (u8, u32, u32);

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..9u8, any::<u32>(), 0..1000u32), 0..max)
}

impl Pair {
    fn push(&mut self, link: u64, value: u32) -> Result<(), TestCaseError> {
        let queue = self.model.entry(link).or_default();
        queue.push_back(value);
        prop_assert_eq!(self.real.push_back(link, value), queue.len());
        self.queued += 1;
        self.peak = self.peak.max(self.queued);
        Ok(())
    }

    fn pop(&mut self, link: u64) -> Result<(), TestCaseError> {
        let want = self.model.get_mut(&link).and_then(VecDeque::pop_front);
        if self.model.get(&link).is_some_and(VecDeque::is_empty) {
            self.model.remove(&link);
        }
        self.queued -= usize::from(want.is_some());
        prop_assert_eq!(self.real.front(link).copied(), want);
        prop_assert_eq!(self.real.pop_front(link), want);
        Ok(())
    }

    fn apply(&mut self, (op, link, value): Op) -> Result<(), TestCaseError> {
        let link = key(link);
        match op {
            0..=4 => self.push(link, value),
            5..=7 => self.pop(link),
            _ => {
                while self.model.contains_key(&link) {
                    self.pop(link)?;
                }
                self.pop(link)?;
                self.push(link, value)
            }
        }
    }

    /// Every observable of the pair matches.
    fn check(&self) -> Result<(), TestCaseError> {
        for (&link, want) in &self.model {
            prop_assert_eq!(self.real.len(link), want.len(), "len of link {}", link);
            prop_assert!(!self.real.is_empty(link));
            prop_assert_eq!(self.real.front(link), want.front());
            prop_assert!(self.real.iter(link).eq(want.iter()), "order on {}", link);
        }
        let live: BTreeSet<u64> = self.real.links().collect();
        prop_assert_eq!(&live, &self.model.keys().copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(self.real.live_links(), self.model.len());
        prop_assert_eq!(self.real.in_flight(), self.queued);
        prop_assert_eq!(
            self.real.slab_cells(),
            self.peak,
            "slab outgrew the peak in flight"
        );
        // Links that carry nothing read as empty, whether never used,
        // drained, or outside the key universe.
        for x in (0..324).map(key).chain([u64::MAX, 1 << 63]) {
            if !self.model.contains_key(&x) {
                prop_assert_eq!(self.real.len(x), 0);
                prop_assert!(self.real.is_empty(x));
                prop_assert_eq!(self.real.front(x), None);
                prop_assert_eq!(self.real.iter(x).count(), 0);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interleaved pushes, pops and drain-then-reuse.
    #[test]
    fn slab_queues_match_per_link_deques(ops in ops(400)) {
        let mut pair = Pair::default();
        for op in ops {
            pair.apply(op)?;
            pair.check()?;
        }
        // Drain: every link empties in its own order, no entry is left
        // and the slab is all free cells.
        for link in pair.model.keys().copied().collect::<Vec<_>>() {
            while pair.model.contains_key(&link) {
                pair.pop(link)?;
            }
        }
        pair.check()?;
        prop_assert_eq!(pair.real.live_links(), 0);
    }

    /// A clone (the explorer's fork snapshot) shares nothing with its
    /// origin: after diverging, each still matches its own model.
    #[test]
    fn clones_diverge_independently(prefix in ops(200), left in ops(200), right in ops(200)) {
        let mut origin = Pair::default();
        for op in prefix {
            origin.apply(op)?;
        }
        let mut fork = origin.clone();
        fork.check()?;
        for op in left {
            origin.apply(op)?;
        }
        for op in right {
            fork.apply(op)?;
        }
        origin.check()?;
        fork.check()?;
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The first round of a large run: tens of thousands of links go live at
/// once, then all but a handful drain. The index grows through every
/// capacity on the way up and shrinks through every one on the way down,
/// re-seating the survivors each time.
#[test]
fn a_burst_of_live_links_drains_to_a_handful() {
    let mut pair = Pair::default();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut links = Vec::new();
    while links.len() < 50_000 {
        let link = ((xorshift(&mut state) % (1 << 20)) << 32) | (xorshift(&mut state) % (1 << 20));
        if !pair.model.contains_key(&link) {
            links.push(link);
        }
        // Every third link queues two deep.
        for value in 0..1 + u32::from(links.len() % 3 == 0) {
            pair.push(link, value).unwrap();
        }
        if links.len().is_power_of_two() {
            pair.check().unwrap();
        }
    }
    assert_eq!(pair.real.live_links(), 50_000);
    pair.check().unwrap();
    // Drain in an order unrelated to insertion, checking at every halving.
    let mut at = 0;
    while pair.model.len() > 4 {
        at = (at + 30_011) % links.len();
        while pair.model.contains_key(&links[at]) {
            pair.pop(links[at]).unwrap();
        }
        if pair.model.len().is_power_of_two() {
            pair.check().unwrap();
        }
    }
    pair.check().unwrap();
    // The survivors still queue and drain in order, and the slab never
    // outgrew the burst.
    for link in pair.model.keys().copied().collect::<Vec<_>>() {
        pair.push(link, 7).unwrap();
        while pair.model.contains_key(&link) {
            pair.pop(link).unwrap();
        }
    }
    pair.check().unwrap();
    assert_eq!((pair.real.live_links(), pair.real.in_flight()), (0, 0));
}

/// Steady churn with 100–128 links live — the most the smallest index
/// holds before it grows, so probe clusters are as long as they get, merge
/// and split on every operation, and some wrap around the table's end.
#[test]
fn churn_at_the_smallest_index_full_load() {
    let mut pair = Pair::default();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for step in 0..30_000u32 {
        let link = key(xorshift(&mut state) as u32);
        if pair.model.len() < 100 || (pair.model.len() < 128 && step % 2 == 0) {
            pair.push(link, step).unwrap();
        } else {
            // Drain a live link, preferring the one just drawn.
            let victim = if pair.model.contains_key(&link) {
                link
            } else {
                *pair.model.keys().min().expect("over a hundred live")
            };
            while pair.model.contains_key(&victim) {
                pair.pop(victim).unwrap();
            }
        }
        if step % 64 == 0 {
            pair.check().unwrap();
        }
    }
    pair.check().unwrap();
}
