//! The scheduler the DFS phase steers: fires the pending event a
//! branch-decision prefix names at each of the first steps and records what
//! it had to choose from.

use std::collections::VecDeque;

use crate::scheduler::{Choice, Footprint, Scheduler, SendToken};
use crate::NodeId;

/// A deterministic scheduler steered by a branch-decision prefix.
///
/// Pending events are kept in arrival order. At step `i` the scheduler
/// fires the event at index `prefix[i]` (clamped to the pending count);
/// past the prefix it fires the oldest pending event, i.e. degenerates to
/// global FIFO. While running it records how many events were pending at
/// each of the first `depth` steps — the branching factors the DFS driver
/// uses to enumerate sibling schedules.
///
/// Cloning captures the full state (pending events, position on the
/// decision path, branch counts) — a clone is a checkpoint the DFS can
/// later resume with a deeper prefix via `DfsScheduler::set_prefix`.
///
/// In **reduce mode** (`DfsScheduler::reduced`) the scheduler
/// additionally records, at every branch point, the pending choices, the
/// runner's pre-decision state digest and the footprint of the steps the
/// decision executed — the observations the engine's sleep-set and dedup
/// logic runs on — and past the branch window it drains pending events in
/// a canonical order (a function of the pending *set*, not arrival order),
/// so interleaving-equivalent prefixes converge to identical terminal
/// states.
#[derive(Clone, Debug, Default)]
pub struct DfsScheduler {
    /// Pending events, oldest first. Only the ≤ `depth` branch decisions
    /// remove by rank; the rest pop the front or scan one drain round.
    pending: VecDeque<Choice>,
    prefix: Vec<usize>,
    depth: usize,
    step: usize,
    branch_counts: Vec<usize>,
    /// Reduce mode: record [`BranchObs`] and drain the tail canonically.
    reduce: bool,
    branch_obs: Vec<BranchObs>,
    /// The most recent runner state digest reported before a `choose`.
    last_digest: u64,
    /// Live entries left in the current canonical-drain round; `0` starts
    /// a new round on the next tail decision.
    round_live: usize,
}

/// Everything the reduction engine needs to know about one branch-point
/// decision, recorded by a reduce-mode [`DfsScheduler`] as the run
/// executes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BranchObs {
    /// The pending choices at the decision, in arrival (rank) order — the
    /// enabled set the DFS enumerates children over.
    pub pending: Vec<Choice>,
    /// Canonical runner state digest immediately before the decision.
    pub digest: u64,
    /// Merged exact footprints of every step executed from this decision
    /// up to (exclusive) the next one: the decided choice itself plus any
    /// steps a fault layer served in between (those arrive pre-widened to
    /// [`Footprint::everything`]).
    pub fp: Footprint,
}

impl DfsScheduler {
    /// A scheduler following `prefix`, recording branch counts for the
    /// first `depth` steps.
    pub(crate) fn new(prefix: Vec<usize>, depth: usize) -> Self {
        DfsScheduler {
            prefix,
            depth,
            ..Self::default()
        }
    }

    /// A scheduler like [`DfsScheduler::new`] that also records the
    /// per-branch observations partial-order reduction needs and drains
    /// canonically past the branch window.
    pub(crate) fn reduced(prefix: Vec<usize>, depth: usize) -> Self {
        DfsScheduler {
            reduce: true,
            ..Self::new(prefix, depth)
        }
    }

    /// Pending-event counts observed at each of the first `depth` steps.
    pub(crate) fn branch_counts(&self) -> &[usize] {
        &self.branch_counts
    }

    /// The reduce-mode branch observations (empty outside reduce mode).
    pub(crate) fn branch_obs(&self) -> &[BranchObs] {
        &self.branch_obs
    }

    /// Number of scheduling decisions made so far — the run's position on
    /// its branch-decision path.
    pub(crate) fn decisions(&self) -> usize {
        self.step
    }

    /// Retargets the branch-decision prefix without touching any other
    /// state. This is how a checkpoint cloned at decision `d` is pointed
    /// at a deeper sibling prefix before resuming: the first `d` decisions
    /// of the new prefix must match the path already taken.
    pub(crate) fn set_prefix(&mut self, prefix: Vec<usize>) {
        self.prefix = prefix;
    }
}

impl Scheduler for DfsScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.pending.push_back(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.pending.push_back(Choice::Deliver {
            src: token.src,
            dst: token.dst,
        });
    }
    fn note_tick(&mut self, node: NodeId) {
        self.pending.push_back(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        if self.pending.is_empty() {
            return None;
        }
        if self.step >= self.depth && self.reduce {
            // Canonical tail: past the branch window, drain in rounds. A
            // round snapshots the pending count at its start and serves
            // those entries smallest-sort-key first; events arriving
            // during a round wait for the next one (fair — a tick cascade
            // cannot starve older events). The order is a function of the
            // pending set and the arrivals it generates, not of the
            // arrival order the branch decisions happened to produce, so
            // equivalent prefixes converge to identical terminal states.
            if self.round_live == 0 {
                self.round_live = self.pending.len();
            }
            // `min_by_key` keeps the first minimum: ties go to the oldest.
            let (pos, _) = self
                .pending
                .iter()
                .take(self.round_live)
                .enumerate()
                .min_by_key(|(_, choice)| choice.sort_key())
                .expect("a round starts non-empty");
            self.round_live -= 1;
            self.step += 1;
            return self.pending.remove(pos);
        }
        if self.step < self.depth {
            self.branch_counts.push(self.pending.len());
            if self.reduce {
                self.branch_obs.push(BranchObs {
                    pending: self.pending.iter().copied().collect(),
                    digest: self.last_digest,
                    fp: Footprint::new(),
                });
            }
        }
        let want = self.prefix.get(self.step).copied().unwrap_or(0);
        let idx = want.min(self.pending.len() - 1);
        self.step += 1;
        self.pending.remove(idx)
    }
    fn pending(&self) -> usize {
        self.pending.len()
    }
    fn wants_footprints(&self) -> bool {
        self.reduce
    }
    fn note_footprint(&mut self, _choice: Choice, footprint: &Footprint) {
        // Attribute the executed step to the decision currently in flight:
        // after decision `j` executes, `step == j + 1`, and any
        // fault-layer-served steps before decision `j + 1` still land
        // here. Steps outside the branch window (or before the first
        // decision) have no observation to extend.
        if let Some(obs) = self.step.checked_sub(1).and_then(|j| self.branch_obs.get_mut(j)) {
            obs.fp.merge(footprint);
        }
    }
    fn wants_state_digest(&self) -> bool {
        self.reduce && self.step < self.depth
    }
    fn note_state_digest(&mut self, digest: u64) {
        self.last_digest = digest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_scheduler_degenerates_to_fifo_beyond_prefix() {
        let mut s = DfsScheduler::new(vec![], 2);
        for i in 0..4 {
            s.note_wake(NodeId::new(i));
        }
        for i in 0..4 {
            assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(i))));
        }
        assert_eq!(s.branch_counts(), &[4, 3]);
    }

    #[test]
    fn dfs_scheduler_follows_and_clamps_the_prefix() {
        let mut s = DfsScheduler::new(vec![2, 99], 4);
        for i in 0..3 {
            s.note_wake(NodeId::new(i));
        }
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(2))));
        // Index 99 clamps to the last pending event.
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
    }

    #[test]
    fn canonical_tail_drains_rounds_by_sort_key() {
        // Beyond the branch window a reduced scheduler serves the round's
        // events smallest-sort-key first (Wake(1) before Tick(0) — wakes
        // order before ticks), and arrivals wait for the next round.
        let mut s = DfsScheduler::reduced(vec![], 0);
        s.note_tick(NodeId::new(0));
        s.note_wake(NodeId::new(2));
        s.note_wake(NodeId::new(1));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        // Mid-round arrival: joins the *next* round even though its key
        // sorts before the tick.
        s.note_wake(NodeId::new(0));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(2))));
        assert_eq!(s.choose(), Some(Choice::Tick(NodeId::new(0))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(s.choose(), None);
    }
}
