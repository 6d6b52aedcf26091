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
/// additionally records, at every branch point of the run's *live window*
/// (decisions `prefix.len()..depth`, the only ones the engine generates
/// children at), the pending choices, the runner's pre-decision state
/// digest and the footprint of the steps the decision executed — the
/// observations the engine's sleep-set and dedup logic runs on; decisions
/// inside the prefix keep an empty placeholder and ask for nothing. Past
/// the branch window it drains pending events in a canonical order (a
/// function of the pending *set*, not arrival order), so
/// interleaving-equivalent prefixes converge to identical terminal states.
#[derive(Clone, Debug, Default)]
pub struct DfsScheduler {
    /// Pending events, oldest first. Only the ≤ `depth` branch decisions
    /// remove by rank; the canonical tail takes whole drain rounds.
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
    /// What is left of the current canonical-drain round, sorted by
    /// `Choice::sort_key`; empty starts a new round on the next tail
    /// decision.
    round: VecDeque<Choice>,
}

/// Everything the reduction engine needs to know about one branch-point
/// decision, recorded by a reduce-mode [`DfsScheduler`] as the run
/// executes. A decision inside the run's prefix, which the engine never
/// reads, keeps the empty default.
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// The pending-event counts observed at each of the first `depth`
    /// steps and the reduce-mode branch observations (empty outside reduce
    /// mode), moved out of the finished scheduler.
    pub(crate) fn into_observations(self) -> (Vec<usize>, Vec<BranchObs>) {
        (self.branch_counts, self.branch_obs)
    }

    /// Number of scheduling decisions made so far — the run's position on
    /// its branch-decision path.
    pub(crate) fn decisions(&self) -> usize {
        self.step
    }

    /// Retargets the branch-decision prefix. This is how a checkpoint
    /// cloned at decision `d` is pointed at a deeper sibling prefix before
    /// resuming: the first `d` decisions of the new prefix must match the
    /// path already taken. The observations the checkpoint made inside
    /// the new prefix are blanked, as a run started on it would have left
    /// them.
    pub(crate) fn set_prefix(&mut self, prefix: Vec<usize>) {
        let inside = prefix.len().min(self.branch_obs.len());
        self.branch_obs[..inside].fill(BranchObs::default());
        self.prefix = prefix;
    }

    /// Whether decision `j` is in the live window the engine reads.
    fn live(&self, j: usize) -> bool {
        self.reduce && self.prefix.len() <= j && j < self.depth
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
        if self.step >= self.depth && self.reduce {
            // Canonical tail: past the branch window, drain in rounds. A
            // round takes every pending event at its start and serves them
            // smallest-sort-key first (a stable sort: ties go to the
            // oldest, as repeatedly taking the first minimum would); events
            // arriving during a round wait in `pending` for the next one
            // (fair — a tick cascade cannot starve older events). The
            // order is a function of the pending set and the arrivals it
            // generates, not of the arrival order the branch decisions
            // happened to produce, so equivalent prefixes converge to
            // identical terminal states.
            if self.round.is_empty() {
                std::mem::swap(&mut self.round, &mut self.pending);
                self.round.make_contiguous().sort_by_key(Choice::sort_key);
            }
            let choice = self.round.pop_front()?;
            self.step += 1;
            return Some(choice);
        }
        if self.pending.is_empty() {
            return None;
        }
        if self.step < self.depth {
            self.branch_counts.push(self.pending.len());
            if self.reduce {
                let obs = if self.live(self.step) {
                    BranchObs {
                        pending: self.pending.iter().copied().collect(),
                        digest: self.last_digest,
                        fp: Footprint::new(),
                    }
                } else {
                    BranchObs::default()
                };
                self.branch_obs.push(obs);
            }
        }
        let want = self.prefix.get(self.step).copied().unwrap_or(0);
        let idx = want.min(self.pending.len() - 1);
        self.step += 1;
        self.pending.remove(idx)
    }
    fn pending(&self) -> usize {
        self.pending.len() + self.round.len()
    }
    fn wants_footprints(&self) -> bool {
        // Asked after `choose`: the step belongs to the decision in
        // flight, `step - 1` (fault-layer-served steps before the next
        // decision included).
        self.step.checked_sub(1).is_some_and(|j| self.live(j))
    }
    fn note_footprint(&mut self, _choice: Choice, footprint: &Footprint) {
        // Attribute the executed step to the decision currently in flight:
        // after decision `j` executes, `step == j + 1`, and any
        // fault-layer-served steps before decision `j + 1` still land
        // here. Steps outside the live window have no observation to
        // extend.
        if self.wants_footprints() {
            self.branch_obs[self.step - 1].fp.merge(footprint);
        }
    }
    fn wants_state_digest(&self) -> bool {
        self.live(self.step)
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
        assert_eq!(s.branch_counts, [4, 3]);
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

    /// The canonical drain the sorted rounds replaced, kept as their
    /// reference: each tail choice scans the round's live entries for the
    /// first minimum and removes it by position.
    #[derive(Default)]
    struct MinScan {
        pending: VecDeque<Choice>,
        prefix: Vec<usize>,
        depth: usize,
        step: usize,
        round_live: usize,
    }

    impl MinScan {
        fn choose(&mut self) -> Option<Choice> {
            if self.pending.is_empty() {
                return None;
            }
            let pos = if self.step >= self.depth {
                if self.round_live == 0 {
                    self.round_live = self.pending.len();
                }
                // `min_by_key` keeps the first minimum: ties go to the oldest.
                let live = self.pending.iter().take(self.round_live).enumerate();
                let (pos, _) = live
                    .min_by_key(|(_, choice)| choice.sort_key())
                    .expect("a round");
                self.round_live -= 1;
                pos
            } else {
                let want = self.prefix.get(self.step).copied().unwrap_or(0);
                want.min(self.pending.len() - 1)
            };
            self.step += 1;
            self.pending.remove(pos)
        }
    }

    #[test]
    fn sorted_rounds_drain_exactly_as_the_min_scan_did() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let node = |rng: &mut StdRng| NodeId::new(rng.gen_range(0..4));
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let depth = rng.gen_range(0..4);
            let prefix: Vec<usize> = (0..rng.gen_range(0..depth + 1))
                .map(|_| rng.gen_range(0..3))
                .collect();
            let mut sorted = DfsScheduler::reduced(prefix.clone(), depth);
            let mut reference = MinScan {
                prefix,
                depth,
                ..MinScan::default()
            };
            // Arrivals land between choices, so rounds see mid-round
            // arrivals, several messages on one link, and ticks.
            for _ in 0..200 {
                let arrival = match rng.gen_range(0..8u32) {
                    0 => Choice::Wake(node(&mut rng)),
                    1 => Choice::Tick(node(&mut rng)),
                    2..=4 => Choice::Deliver {
                        src: node(&mut rng),
                        dst: node(&mut rng),
                    },
                    _ => {
                        assert_eq!(sorted.choose(), reference.choose(), "seed {seed}");
                        assert_eq!(sorted.pending(), reference.pending.len(), "seed {seed}");
                        continue;
                    }
                };
                match arrival {
                    Choice::Wake(n) => sorted.note_wake(n),
                    Choice::Tick(n) => sorted.note_tick(n),
                    Choice::Deliver { src, dst } => sorted.note_send(SendToken {
                        src,
                        dst,
                        seq: 0,
                        kind: "msg",
                    }),
                    _ => unreachable!("only wakes, ticks and deliveries arrive"),
                }
                reference.pending.push_back(arrival);
            }
            loop {
                let choice = sorted.choose();
                assert_eq!(choice, reference.choose(), "seed {seed}");
                if choice.is_none() {
                    break;
                }
            }
        }
    }

    /// Drives `s` the way `Runner::step` queries a scheduler until it is
    /// quiescent: per executed step, the decisions made before it and
    /// whether a state digest and a footprint were asked for.
    fn drive(s: &mut DfsScheduler) -> Vec<(usize, bool, bool)> {
        let mut log = Vec::new();
        loop {
            let before = s.decisions();
            let digest = s.wants_state_digest();
            if digest {
                s.note_state_digest(100 + before as u64);
            }
            let Some(choice) = s.choose() else { break };
            let footprint = s.wants_footprints();
            if footprint {
                s.note_footprint(choice, &Footprint::may(choice));
            }
            log.push((before, digest, footprint));
        }
        log
    }

    fn woken(mut s: DfsScheduler, n: usize) -> DfsScheduler {
        for i in 0..n {
            s.note_wake(NodeId::new(i));
        }
        s
    }

    #[test]
    fn a_reduced_run_observes_only_its_live_window() {
        // Prefix length 2, depth 5: digests before decisions 2, 3 and 4
        // only, footprints of exactly the steps those decisions execute.
        let mut s = woken(DfsScheduler::reduced(vec![1, 1], 5), 7);
        for (before, digest, footprint) in drive(&mut s) {
            let live = (2..5).contains(&before);
            assert_eq!((digest, footprint), (live, live), "decision {before}");
        }
        assert_eq!(s.branch_counts, [7, 6, 5, 4, 3]);
        for (j, obs) in s.branch_obs.iter().enumerate() {
            if j < 2 {
                assert_eq!(
                    *obs,
                    BranchObs::default(),
                    "decision {j} is inside the prefix"
                );
            } else {
                assert_eq!(obs.pending.len(), 7 - j);
                assert_eq!(obs.digest, 100 + j as u64);
                assert_eq!(obs.fp, Footprint::may(obs.pending[0]));
            }
        }
        // Unreduced, nothing is observed at all.
        let mut plain = woken(DfsScheduler::new(vec![], 5), 7);
        assert!(drive(&mut plain).iter().all(|&(_, d, f)| !d && !f));
    }

    #[test]
    fn a_retargeted_checkpoint_observes_what_a_fresh_run_does() {
        // A checkpoint taken at decision 3 of the run on prefix [] and
        // resumed on [0, 0, 0, 2] must end with the observations of a run
        // started on [0, 0, 0, 2]: the three it made are now inside the
        // prefix.
        let mut checkpoint = woken(DfsScheduler::reduced(vec![], 6), 8);
        for _ in 0..3 {
            checkpoint.note_state_digest(7);
            let choice = checkpoint.choose().expect("pending");
            checkpoint.note_footprint(choice, &Footprint::may(choice));
        }
        assert_ne!(checkpoint.branch_obs[0], BranchObs::default());
        let prefix = vec![0, 0, 0, 2];
        checkpoint.set_prefix(prefix.clone());
        drive(&mut checkpoint);
        let mut fresh = woken(DfsScheduler::reduced(prefix, 6), 8);
        drive(&mut fresh);
        assert_eq!(checkpoint.into_observations(), fresh.into_observations());
    }
}
