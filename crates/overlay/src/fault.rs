//! Fault tolerance: successor lists, replication and stabilization.
//!
//! The classic Chord machinery, scoped to what the discovery pipeline
//! needs: each node keeps a list of its `r` ring successors (computed at
//! bootstrap), every `put` is replicated to the owner's immediate
//! successor, and after members fail the ring is *stabilized* — each live
//! node adopts its first live successor and drops dead fingers. A key's
//! range then falls to the dead owner's successor, which already holds the
//! replica, so reads keep working through any failure pattern with no two
//! *adjacent* ring deaths (and routing tolerates up to `r − 1` consecutive
//! deaths).

use std::collections::BTreeSet;

use ard_netsim::{NodeId, Scheduler};

use crate::protocol::Overlay;

/// Length of each node's successor list (tolerates `SUCCESSOR_LIST_LEN − 1`
/// consecutive ring deaths for routing).
pub(crate) const SUCCESSOR_LIST_LEN: usize = 4;

/// Why [`Overlay::fail_and_stabilize`] refused a failure pattern. The
/// overlay is left untouched when this is returned: validation runs before
/// any node is marked failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilizeError {
    /// Every member was named as failed; nothing is left to repair.
    AllMembersFailed,
    /// A survivor's entire successor list is dead — more than
    /// `SUCCESSOR_LIST_LEN − 1` consecutive ring deaths, beyond the
    /// design's tolerance envelope (as in Chord).
    SuccessorListExhausted {
        /// The surviving member (original id) that would be stranded.
        node: NodeId,
    },
}

impl std::fmt::Display for StabilizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StabilizeError::AllMembersFailed => {
                f.write_str("cannot fail every member of the overlay")
            }
            StabilizeError::SuccessorListExhausted { node } => write!(
                f,
                "successor list exhausted at {node}: too many consecutive ring deaths"
            ),
        }
    }
}

impl std::error::Error for StabilizeError {}

impl Overlay {
    /// Marks `members` as failed (they blackhole all traffic) and repairs
    /// the ring: every live node adopts its first live successor-list entry
    /// and drops failed fingers. Returns the number of nodes repaired.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizeError`] — and leaves the overlay untouched — if
    /// every member fails, or if a live node's entire successor list is
    /// dead (more than `SUCCESSOR_LIST_LEN − 1` consecutive ring deaths,
    /// beyond the design's tolerance, as in Chord).
    pub fn fail_and_stabilize(
        &mut self,
        members: &[NodeId],
        _sched: &mut dyn Scheduler,
    ) -> Result<usize, StabilizeError> {
        let failed_dense: BTreeSet<NodeId> = members.iter().map(|&m| self.dense_id(m)).collect();
        if failed_dense.len() >= self.len() {
            return Err(StabilizeError::AllMembersFailed);
        }
        let live: Vec<NodeId> = (0..self.len())
            .map(NodeId::new)
            .filter(|d| !failed_dense.contains(d))
            .collect();
        // Validate before mutating: if any survivor would be stranded, the
        // whole pattern is rejected and no node is marked failed.
        for &d in &live {
            if !self.runner().node(d).successor_survives(&failed_dense) {
                return Err(StabilizeError::SuccessorListExhausted {
                    node: self.members_vec()[d.index()],
                });
            }
        }
        // Mark them failed.
        for &f in &failed_dense {
            self.runner_mut().node_mut(f).mark_failed();
        }
        // Repair the survivors.
        let mut repaired = 0;
        for d in live {
            if self.runner_mut().node_mut(d).stabilize(&failed_dense) {
                repaired += 1;
            }
        }
        Ok(repaired)
    }

    /// Whether the given member has been failed.
    pub fn is_failed(&self, member: NodeId) -> bool {
        self.runner().node(self.dense_id(member)).is_failed()
    }

    /// The live members, in id order.
    pub fn live_members(&self) -> Vec<NodeId> {
        self.members_vec()
            .iter()
            .copied()
            .filter(|&m| !self.is_failed(m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bootstrap, key_of, Key};
    use ard_netsim::{FifoScheduler, RandomScheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn members(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// `overlay`'s members in ring (key) order.
    fn in_ring_order(overlay: &Overlay) -> Vec<NodeId> {
        let mut order = overlay.members_vec().to_vec();
        order.sort_by_key(|&m| key_of(m));
        order
    }

    #[test]
    fn reads_survive_a_single_owner_death() {
        let m = members(24);
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(1);
        // Write 40 keys, remember each owner.
        let mut owned: Vec<(Key, u64, NodeId)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..40u64 {
            let key = Key::new(rng.gen());
            overlay.put_blocking(m[0], key, i, &mut sched).unwrap();
            owned.push((key, i, overlay.ring().owner(key)));
        }
        // Kill one owner.
        let victim = owned[0].2;
        overlay.fail_and_stabilize(&[victim], &mut sched).unwrap();
        // Every key is still readable from a live node.
        let reader = overlay.live_members()[0];
        for (key, value, owner) in owned {
            if owner == victim {
                let got = overlay.get_blocking(reader, key, &mut sched).unwrap();
                assert_eq!(
                    got.value,
                    Some(value),
                    "lost key {key} owned by dead {owner}"
                );
            }
        }
    }

    #[test]
    fn reads_survive_scattered_deaths() {
        let m = members(32);
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut written: Vec<(Key, u64)> = Vec::new();
        for i in 0..60u64 {
            let key = Key::new(rng.gen());
            overlay.put_blocking(m[5], key, i, &mut sched).unwrap();
            written.push((key, i));
        }
        // Kill every 6th member by *ring* position so deaths are spread and
        // never adjacent (the design's tolerance envelope).
        let ring_order = in_ring_order(&overlay);
        let victims: Vec<NodeId> = ring_order.iter().copied().step_by(6).collect();
        overlay.fail_and_stabilize(&victims, &mut sched).unwrap();
        let reader = overlay.live_members()[0];
        for (key, value) in written {
            let got = overlay.get_blocking(reader, key, &mut sched).unwrap();
            assert_eq!(got.value, Some(value), "lost key {key}");
        }
    }

    #[test]
    fn lookups_after_stabilization_avoid_the_dead() {
        let m = members(20);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let ring_order = in_ring_order(&overlay);
        let victims = vec![ring_order[3], ring_order[9]];
        overlay.fail_and_stabilize(&victims, &mut sched).unwrap();
        let reader = overlay.live_members()[2];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let key = Key::new(rng.gen());
            let r = overlay.lookup_blocking(reader, key, &mut sched).unwrap();
            assert!(!victims.contains(&r.owner), "routed to dead node for {key}");
            assert!(overlay.live_members().contains(&r.owner));
        }
    }

    #[test]
    fn failed_nodes_blackhole_but_the_ring_quiesces() {
        let m = members(12);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        overlay
            .put_blocking(m[0], Key::new(7), 1, &mut sched)
            .unwrap();
        let victim = overlay.ring().owner(Key::new(7));
        overlay.fail_and_stabilize(&[victim], &mut sched).unwrap();
        // Writes continue to work, landing at the new owner.
        overlay
            .put_blocking(overlay.live_members()[0], Key::new(7), 2, &mut sched)
            .unwrap();
        let got = overlay
            .get_blocking(overlay.live_members()[1], Key::new(7), &mut sched)
            .unwrap();
        assert_eq!(got.value, Some(2));
    }

    #[test]
    fn failing_everyone_is_rejected() {
        let m = members(3);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        assert_eq!(
            overlay.fail_and_stabilize(&m, &mut sched),
            Err(StabilizeError::AllMembersFailed)
        );
        assert_eq!(overlay.live_members().len(), 3, "overlay left untouched");
    }

    #[test]
    fn too_many_consecutive_deaths_are_detected() {
        let m = members(8);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        // Kill SUCCESSOR_LIST_LEN consecutive ring members: their
        // predecessor's whole list is dead.
        let ring_order = in_ring_order(&overlay);
        let victims: Vec<NodeId> = ring_order[1..=SUCCESSOR_LIST_LEN].to_vec();
        let err = overlay
            .fail_and_stabilize(&victims, &mut sched)
            .expect_err("over-tolerance pattern must be rejected");
        // The stranded survivor is exactly the victims' ring predecessor.
        assert_eq!(
            err,
            StabilizeError::SuccessorListExhausted { node: ring_order[0] }
        );
        assert!(err.to_string().contains("successor list exhausted"));
    }

    #[test]
    fn rejected_patterns_leave_the_overlay_fully_operational() {
        let m = members(8);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        overlay
            .put_blocking(m[0], Key::new(11), 7, &mut sched)
            .unwrap();
        let ring_order = in_ring_order(&overlay);
        let victims: Vec<NodeId> = ring_order[1..=SUCCESSOR_LIST_LEN].to_vec();
        assert!(overlay.fail_and_stabilize(&victims, &mut sched).is_err());
        // Validate-then-mutate: nobody was marked failed by the rejected
        // call, and a *tolerable* pattern still succeeds afterwards.
        assert_eq!(overlay.live_members().len(), 8);
        assert!(victims.iter().all(|&v| !overlay.is_failed(v)));
        let repaired = overlay
            .fail_and_stabilize(&[ring_order[1]], &mut sched)
            .unwrap();
        assert!(repaired >= 1, "the predecessor must adopt a new successor");
        let got = overlay
            .get_blocking(overlay.live_members()[0], Key::new(11), &mut sched)
            .unwrap();
        assert_eq!(got.value, Some(7));
    }

    #[test]
    fn live_members_tracks_failures() {
        let m = members(10);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        assert_eq!(overlay.live_members().len(), 10);
        let ring_order = in_ring_order(&overlay);
        overlay
            .fail_and_stabilize(&[ring_order[0], ring_order[5]], &mut sched)
            .unwrap();
        assert_eq!(overlay.live_members().len(), 8);
        assert!(overlay.is_failed(ring_order[0]));
        assert!(!overlay.is_failed(ring_order[1]));
    }
}
