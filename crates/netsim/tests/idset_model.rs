//! Model oracle for the protocol's id set.
//!
//! [`IdSet`] is a sorted vector that becomes a bitmap once the bitmap is no
//! larger and falls back when it empties; the structure it replaced in
//! `ArdNode` was a `BTreeSet<NodeId>`. These properties drive both through
//! the same random operation sequences — every method the handlers call —
//! and require the same answer from every observable: the "did it change"
//! results, `contains`, `len`, `first`, `pop_first`, the set `take_prefix`
//! returns and the rest it leaves, the maximal runs `for_each_run` reports,
//! ascending iteration by `iter` and by `for_each`, equality.
//! `insert_run` — how the engine's per-node knowledge (an `IdSet` above
//! 8,192 nodes) absorbs a run-coded payload — is driven the same way on
//! all three streams, and its named cases (a run contained in, overlapping,
//! adjacent to and disjoint from the members, and one whose splice crosses
//! the promotion rule) are enumerated in both modes by
//! `insert_run_cases_match_the_model`.
//!
//! The universes are small on purpose: with at most 128–2,048 distinct ids
//! a few batched inserts reach the promotion rule (the ids outweigh the
//! bitmap's words plus its header: `4·len ≥ size_of::<BitSet>() +
//! 8·(max/64 + 1)`) and a few prefix takes empty the set again, so one
//! sequence crosses both boundaries many times
//! (`op_mix_crosses_both_boundaries` counts them).
//! Three id streams shape the sets the way the benchmark workloads do:
//! contiguous ids (`round-*`), stride-64 stripes (`striped-64k`: one id per
//! bitmap word and stripe) and scattered ids (a random graph's neighbours).

use std::collections::BTreeSet;

use proptest::prelude::*;

use ard_netsim::{BitSet, IdSet, NodeId};

/// How an op's raw value becomes an id.
#[derive(Clone, Copy, Debug)]
enum Stream {
    /// Ids `0..128`: promotes at 12–14 ids.
    Contiguous,
    /// Four stripes `c, c + 64, c + 128, …` of 32 ids each: promotes at
    /// more than half the universe (76 of 128 ids under max id 2,051).
    Striped,
    /// A multiplicative hash into `0..2048`: promotes at about 74 ids.
    Scattered,
}

impl Stream {
    fn id(self, x: u32) -> NodeId {
        let index = match self {
            Stream::Contiguous => x % 128,
            Stream::Striped => x % 4 + 64 * (x / 4 % 32),
            Stream::Scattered => x.wrapping_mul(2_654_435_761) % 2048,
        };
        NodeId::new(index as usize)
    }
}

/// `(op, x, k)`: which method, the raw id value, a count for the batched
/// ops.
type Op = (u8, u32, usize);

/// Number of distinct ops `Pair::apply` knows.
const OPS: u8 = 19;

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..OPS, any::<u32>(), 0..48usize), 0..max)
}

/// The model's maximal runs of consecutive ids, ascending.
fn model_runs(model: &BTreeSet<NodeId>) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for v in model {
        let i = v.index() as u32;
        match runs.last_mut() {
            Some((_, end)) if *end == i => *end += 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

/// The set beside its model.
#[derive(Clone)]
struct Pair {
    stream: Stream,
    real: IdSet,
    model: BTreeSet<NodeId>,
    /// Whether the promotion rule has fired on the model since it was last
    /// empty, and how often it flipped each way.
    bitmap_due: bool,
    promotions: usize,
    demotions: usize,
}

impl Pair {
    fn new(stream: Stream) -> Self {
        Pair {
            stream,
            real: IdSet::new(),
            model: BTreeSet::new(),
            bitmap_due: false,
            promotions: 0,
            demotions: 0,
        }
    }

    fn apply(&mut self, (op, x, k): Op) -> Result<(), TestCaseError> {
        let id = self.stream.id(x);
        match op {
            0..=4 => prop_assert_eq!(self.real.insert(id), self.model.insert(id)),
            5 | 6 => prop_assert_eq!(self.real.remove(id), self.model.remove(&id)),
            7 => prop_assert_eq!(self.real.contains(id), self.model.contains(&id)),
            8 | 9 => prop_assert_eq!(self.real.pop_first(), self.model.pop_first()),
            10 | 11 => {
                let taken = self.real.take_prefix(k);
                let want: Vec<NodeId> = self.model.iter().copied().take(k).collect();
                for v in &want {
                    self.model.remove(v);
                }
                prop_assert_eq!(taken.len(), want.len());
                prop_assert_eq!(taken.iter().collect::<Vec<_>>(), want);
                prop_assert!(self.real.iter().eq(self.model.iter().copied()), "remainder");
            }
            18 => {
                let mut got = Vec::new();
                self.real.for_each_run(|start, end| got.push((start, end)));
                prop_assert_eq!(got, model_runs(&self.model));
            }
            12..=14 => {
                // A batch of consecutive raw values: a run on the
                // contiguous stream, a sweep across stripes or hashes on
                // the others.
                let batch = (0..k as u32).map(|j| self.stream.id(x.wrapping_add(j)));
                self.real.extend(batch.clone());
                self.model.extend(batch);
            }
            15 => {
                self.real.clear();
                self.model.clear();
            }
            _ => {
                // An index run starting at one of the stream's ids: inside
                // a contiguous block, across stripes, or over whatever the
                // hash left nearby.
                let start = id.index() as u32;
                let end = start + k as u32;
                self.real.insert_run(start, end);
                self.model
                    .extend((start..end).map(|i| NodeId::new(i as usize)));
            }
        }
        self.track_rule();
        Ok(())
    }

    /// Follows the documented rule on the model, to count crossings.
    fn track_rule(&mut self) {
        match self.model.last() {
            None => {
                self.demotions += usize::from(self.bitmap_due);
                self.bitmap_due = false;
            }
            Some(max) if !self.bitmap_due => {
                let bitmap = 8 * (max.index() / 64 + 1) + std::mem::size_of::<BitSet>();
                if 4 * self.model.len() >= bitmap {
                    self.bitmap_due = true;
                    self.promotions += 1;
                }
            }
            Some(_) => {}
        }
    }

    /// Every observable of the pair matches.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.real.len(), self.model.len());
        prop_assert_eq!(self.real.is_empty(), self.model.is_empty());
        prop_assert_eq!(self.real.first(), self.model.first().copied());
        let want: Vec<NodeId> = self.model.iter().copied().collect();
        prop_assert_eq!(
            self.real.iter().collect::<Vec<_>>(),
            &want[..],
            "iter order"
        );
        let mut walked = Vec::new();
        self.real.for_each(|v| walked.push(v));
        prop_assert_eq!(walked, &want[..], "for_each order");
        prop_assert_eq!(&self.real, &want.iter().copied().collect::<IdSet>());
        if self.model.is_empty() {
            prop_assert_eq!(self.real.heap_bytes(), 0, "an empty set owns no heap");
        }
        // Probe around both ends and at word boundaries.
        for probe in [0, 1, 63, 64, 127, 128, 2047, 2048, 100_000] {
            let probe = NodeId::new(probe);
            prop_assert_eq!(self.real.contains(probe), self.model.contains(&probe));
        }
        Ok(())
    }
}

fn run(stream: Stream, ops: Vec<Op>) -> Result<Pair, TestCaseError> {
    let mut pair = Pair::new(stream);
    for op in ops {
        pair.apply(op)?;
        pair.check()?;
    }
    Ok(pair)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn contiguous_ids_match_the_btree_model(ops in ops(300)) {
        run(Stream::Contiguous, ops)?;
    }

    #[test]
    fn striped_ids_match_the_btree_model(ops in ops(300)) {
        run(Stream::Striped, ops)?;
    }

    #[test]
    fn scattered_ids_match_the_btree_model(ops in ops(300)) {
        run(Stream::Scattered, ops)?;
    }

    /// A clone shares nothing with its origin (the bitmap is boxed): after
    /// diverging, each still matches its own model.
    #[test]
    fn clones_diverge_independently(prefix in ops(150), left in ops(150), right in ops(150)) {
        let mut origin = run(Stream::Scattered, prefix)?;
        let mut fork = origin.clone();
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

/// The op mix and universes above do what the header claims: a fixed
/// pseudo-random sequence promotes and demotes repeatedly on every stream.
#[test]
fn op_mix_crosses_both_boundaries() {
    for stream in [Stream::Contiguous, Stream::Striped, Stream::Scattered] {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ops: Vec<Op> = (0..4000)
            .map(|_| {
                (
                    (next() % u64::from(OPS)) as u8,
                    next() as u32,
                    (next() % 48) as usize,
                )
            })
            .collect();
        let pair = run(stream, ops).expect("model and set agree");
        assert!(
            pair.promotions >= 5 && pair.demotions >= 5,
            "{stream:?}: {} promotions, {} demotions",
            pair.promotions,
            pair.demotions
        );
    }
}

/// Taking the whole set is a move, in both modes: the taken set owns the
/// source's buffer, byte for byte, and the source owns nothing.
#[test]
fn take_prefix_of_everything_moves_the_buffer() {
    let sparse: IdSet = [5, 900, 17, 4000].into_iter().map(NodeId::new).collect();
    let dense: IdSet = (0..200).map(NodeId::new).collect();
    for mut set in [sparse, dense] {
        let (before, len) = (set.heap_bytes(), set.len());
        assert!(before > 0);
        let taken = set.take_prefix(len);
        assert_eq!(set.heap_bytes(), 0);
        assert!(set.is_empty());
        assert_eq!(taken.heap_bytes(), before);
        assert_eq!(taken.len(), len);
    }
}

/// Every way a run can lie against the members, spliced into a set in
/// sorted mode (four scattered blocks under a far maximum) and into the
/// same members in bitmap mode, plus the splice that itself crosses the
/// promotion rule.
#[test]
fn insert_run_cases_match_the_model() {
    let blocks = [10..20u32, 40..44, 100..101, 300..310];
    let cases: [(&str, std::ops::Range<u32>); 10] = [
        ("empty", 50..50),
        ("contained", 12..18),
        ("exactly a block", 40..44),
        ("overlapping a block's end", 15..30),
        ("overlapping a block's start", 5..12),
        ("adjacent below and above", 20..40),
        ("disjoint, between blocks", 60..70),
        ("disjoint, past the maximum", 5000..5003),
        ("swallowing several blocks", 8..105),
        ("promoting mid-splice", 400..1100),
    ];
    // Whether the set is a bitmap: it then owns at least the words up to
    // its maximum (the sorted sets here own far less, slack included).
    let is_bitmap = |pair: &Pair| {
        let max = pair.model.last().expect("never empty here").index();
        pair.real.heap_bytes() >= 8 * (max / 64 + 1) + std::mem::size_of::<BitSet>()
    };
    for far in [Some(20_000u32), None] {
        for (what, run) in cases.clone() {
            let members = blocks.iter().cloned().flatten().chain(far);
            let mut pair = Pair::new(Stream::Contiguous);
            pair.real = members.clone().map(|i| NodeId::new(i as usize)).collect();
            pair.model = members.map(|i| NodeId::new(i as usize)).collect();
            // 25 ids under a maximum of 309 make a bitmap; under 20,000
            // they stay sorted until a 700-id run outweighs its 2.5 KB.
            assert_eq!(is_bitmap(&pair), far.is_none(), "{what}");
            pair.real.insert_run(run.start, run.end);
            pair.model
                .extend(run.clone().map(|i| NodeId::new(i as usize)));
            pair.check()
                .unwrap_or_else(|e| panic!("{what} (far = {far:?}): {e}"));
            let promoted = far.is_none() || what == "promoting mid-splice";
            assert_eq!(is_bitmap(&pair), promoted, "{what}");
        }
    }
}
