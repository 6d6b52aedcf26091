//! A key-value store on the overlay: `put`/`get` requests route to the
//! key's owner exactly like lookups, making the discovered membership a
//! usable distributed hash table.
//!
//! Values are opaque `u64` blobs (a deliberate simplification — the routing
//! and ownership logic is what the overlay demonstrates; widening the value
//! type is mechanical).

use ard_netsim::{LivelockError, NodeId, Scheduler};

use crate::protocol::{Overlay, OverlayMessage};
use crate::ring::Key;

/// Outcome of a blocking store operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreResult {
    /// The key operated on.
    pub key: Key,
    /// The value read (for gets; `None` if absent) or written (for puts).
    pub value: Option<u64>,
    /// Routing hops the request took.
    pub hops: u32,
}

impl Overlay {
    /// Stores `value` under `key` at the key's owner, routing from `from`.
    /// Returns the hop count once the acknowledgement arrives.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if routing does not quiesce.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a member.
    pub fn put_blocking(
        &mut self,
        from: NodeId,
        key: Key,
        value: u64,
        sched: &mut dyn Scheduler,
    ) -> Result<StoreResult, LivelockError> {
        let origin = self.dense_id(from);
        self.runner_mut().exec(origin, sched, |node, ctx| {
            node.route_store(
                OverlayMessage::Put {
                    key,
                    value,
                    origin,
                    hops: 0,
                    deliver: false,
                },
                ctx,
            );
        });
        self.drain(sched)?;
        let r = self.last_store_result(from);
        debug_assert_eq!(r.key, key);
        Ok(r)
    }

    /// Reads the value under `key` from its owner, routing from `from`.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if routing does not quiesce.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a member.
    pub fn get_blocking(
        &mut self,
        from: NodeId,
        key: Key,
        sched: &mut dyn Scheduler,
    ) -> Result<StoreResult, LivelockError> {
        let origin = self.dense_id(from);
        self.runner_mut().exec(origin, sched, |node, ctx| {
            node.route_store(
                OverlayMessage::Get {
                    key,
                    origin,
                    hops: 0,
                    deliver: false,
                },
                ctx,
            );
        });
        self.drain(sched)?;
        let r = self.last_store_result(from);
        debug_assert_eq!(r.key, key);
        Ok(r)
    }

    /// Total key-value pairs across the whole ring.
    pub fn stored_total(&self) -> usize {
        self.runner().nodes().map(|n| n.store_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bootstrap, key_of};
    use ard_netsim::{FifoScheduler, RandomScheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn members(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// Number of key-value pairs stored at `member`.
    fn stored_at(overlay: &Overlay, member: NodeId) -> usize {
        overlay.runner().node(overlay.dense_id(member)).store_len()
    }

    #[test]
    fn put_then_get_round_trips() {
        let m = members(32);
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(1);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..50u64 {
            let key = Key::new(rng.gen());
            let from = m[rng.gen_range(0..m.len())];
            let put = overlay.put_blocking(from, key, i, &mut sched).unwrap();
            assert_eq!(put.value, Some(i));
            let reader = m[rng.gen_range(0..m.len())];
            let got = overlay.get_blocking(reader, key, &mut sched).unwrap();
            assert_eq!(got.value, Some(i), "key {key}");
        }
        assert_eq!(overlay.stored_total(), 50);
    }

    #[test]
    fn values_land_on_the_oracle_owner() {
        let m = members(16);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        for raw in [7u64, 1 << 40, u64::MAX - 3] {
            let key = Key::new(raw);
            overlay.put_blocking(m[0], key, raw, &mut sched).unwrap();
            let owner = overlay.ring().owner(key);
            assert!(stored_at(&overlay, owner) >= 1, "key {key} not at {owner}");
        }
    }

    #[test]
    fn get_of_absent_key_returns_none() {
        let m = members(8);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let r = overlay
            .get_blocking(m[3], Key::new(99), &mut sched)
            .unwrap();
        assert_eq!(r.value, None);
    }

    #[test]
    fn overwrite_replaces() {
        let m = members(8);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let key = Key::new(5);
        overlay.put_blocking(m[0], key, 1, &mut sched).unwrap();
        overlay.put_blocking(m[1], key, 2, &mut sched).unwrap();
        let got = overlay.get_blocking(m[2], key, &mut sched).unwrap();
        assert_eq!(got.value, Some(2));
        assert_eq!(overlay.stored_total(), 1);
    }

    #[test]
    fn own_key_is_served_locally() {
        let m = members(1);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        overlay
            .put_blocking(m[0], Key::new(1), 10, &mut sched)
            .unwrap();
        let got = overlay.get_blocking(m[0], Key::new(1), &mut sched).unwrap();
        assert_eq!(got.value, Some(10));
        assert_eq!(overlay.runner().metrics().total_messages(), 0);
    }

    #[test]
    fn store_hops_are_logarithmic() {
        let m = members(128);
        let mut overlay = bootstrap(&m);
        let mut sched = FifoScheduler::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..64 {
            let key = Key::new(rng.gen());
            let from = m[rng.gen_range(0..m.len())];
            let r = overlay.put_blocking(from, key, i, &mut sched).unwrap();
            assert!(r.hops <= 16, "put took {} hops", r.hops);
        }
    }

    #[test]
    fn keys_spread_across_members() {
        let m = members(16);
        let mut overlay = bootstrap(&m);
        let mut sched = RandomScheduler::seeded(3);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..160u64 {
            overlay
                .put_blocking(m[0], Key::new(rng.gen()), i, &mut sched)
                .unwrap();
        }
        // Consistent hashing: no member owns more than half of 160 keys.
        for &member in &m {
            assert!(stored_at(&overlay, member) < 80, "{member} hoards keys");
        }
        // key_of spreads members, so at least a few distinct owners exist.
        let populated = m.iter().filter(|&&v| stored_at(&overlay, v) > 0).count();
        assert!(populated >= 8, "only {populated} members own keys");
        let _ = key_of(m[0]);
    }
}
