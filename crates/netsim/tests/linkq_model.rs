//! Model oracle for the runner's in-flight storage.
//!
//! [`LinkQueues`] threads every link's FIFO list through one shared slab;
//! the structure it replaced was one `VecDeque` per link. These properties
//! drive both through the same random operation sequences and require the
//! same answer from every observable — returned lengths (they feed
//! `Metrics::max_link_queue`), `front`, `pop_front`, in-order iteration,
//! the in-flight total — and that the slab holds exactly as many cells as
//! were ever queued at once (freed cells are reused before it grows).

use std::collections::VecDeque;

use proptest::prelude::*;

use ard_netsim::LinkQueues;

/// The slab queues beside their model.
#[derive(Clone)]
struct Pair {
    real: LinkQueues<u32>,
    model: Vec<VecDeque<u32>>,
    /// Most items ever queued at once.
    peak: usize,
}

/// `(op, link, value)`: op 0 adds a link, 1–4 push `value`, 5–7 pop; `link`
/// is reduced modulo the number of links.
type Op = (u8, usize, u32);

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..8u8, 0..64usize, 0..1000u32), 0..max)
}

impl Pair {
    fn new() -> Self {
        Pair {
            real: LinkQueues::new(),
            model: Vec::new(),
            peak: 0,
        }
    }

    fn apply(&mut self, (op, link, value): Op) -> Result<(), TestCaseError> {
        if op == 0 || self.model.is_empty() {
            prop_assert_eq!(self.real.new_link() as usize, self.model.len());
            self.model.push(VecDeque::new());
            return Ok(());
        }
        let link = link % self.model.len();
        let slot = link as u32;
        if op <= 4 {
            self.model[link].push_back(value);
            prop_assert_eq!(self.real.push_back(slot, value), self.model[link].len());
            let queued: usize = self.model.iter().map(VecDeque::len).sum();
            self.peak = self.peak.max(queued);
        } else {
            prop_assert_eq!(self.real.front(slot), self.model[link].front());
            prop_assert_eq!(self.real.pop_front(slot), self.model[link].pop_front());
        }
        Ok(())
    }

    /// Every observable of the pair matches.
    fn check(&self) -> Result<(), TestCaseError> {
        let mut queued = 0;
        for (link, want) in self.model.iter().enumerate() {
            let slot = link as u32;
            prop_assert_eq!(self.real.len(slot), want.len(), "len of link {}", link);
            prop_assert_eq!(self.real.is_empty(slot), want.is_empty());
            prop_assert_eq!(
                self.real.front(slot),
                want.front(),
                "front of link {}",
                link
            );
            let got: Vec<u32> = self.real.iter(slot).copied().collect();
            let want: Vec<u32> = want.iter().copied().collect();
            prop_assert_eq!(got, want, "order on link {}", link);
            queued += want.len();
        }
        prop_assert_eq!(self.real.in_flight(), queued);
        prop_assert_eq!(
            self.real.slab_cells(),
            self.peak,
            "slab outgrew the peak in flight"
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interleaved link creation, pushes and pops.
    #[test]
    fn slab_queues_match_per_link_deques(ops in ops(400)) {
        let mut pair = Pair::new();
        for op in ops {
            pair.apply(op)?;
            pair.check()?;
        }
        // Drain: every link empties in its own order and the slab is all
        // free cells.
        for link in 0..pair.model.len() {
            while let Some(want) = pair.model[link].pop_front() {
                prop_assert_eq!(pair.real.pop_front(link as u32), Some(want));
            }
            prop_assert_eq!(pair.real.pop_front(link as u32), None);
        }
        pair.check()?;
    }

    /// A clone (the explorer's fork snapshot) shares nothing with its
    /// origin: after diverging, each still matches its own model.
    #[test]
    fn clones_diverge_independently(prefix in ops(200), left in ops(200), right in ops(200)) {
        let mut origin = Pair::new();
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
