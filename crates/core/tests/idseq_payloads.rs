//! Payload equivalence: messages carrying `IdSet` and `IdSeq` payloads vs
//! the `Vec<NodeId>` oracle they replaced.
//!
//! The O(component)-sized payloads left `Vec<NodeId>` in two steps: first
//! for the run-coded [`IdSeq`], then — for the `Info` handover's four sets
//! and the `QueryReply` ids — for the sender's own [`IdSet`], moved out of
//! it. `ProbeReply` stays an `IdSeq`, an ordered list the prober keeps.
//! Each swap is only sound if every `Envelope` observable the simulator
//! pins — visitor order, carried-id counts, metered bits, state digests,
//! and the Lemma 5.9/5.10 budget totals built from them — is
//! *byte-identical* to what the `Vec` representation produced. A set
//! payload is ascending and duplicate-free, as the sets it is moved out of
//! always iterated; a sequence payload is any order, repeats included.
//! These properties drive every representation through the same payloads
//! across the three payload shapes that matter:
//!
//! - **scattered**: short lists of random ids (the common query-reply
//!   case);
//! - **run-heavy**: ascending interval fills (the endgame handover case);
//! - **adversarially fragmented**: stride-2 and descending ids, where no
//!   two neighbors coalesce (a set sorts the descending ones into a run).

use proptest::prelude::*;

use ard_core::{InfoPayload, Message};
use ard_netsim::{Envelope, IdSeq, Metrics, NodeId, StateDigest, KIND_TAG_BITS};

const UNIVERSE: usize = 4096;

/// Scattered shape: short lists of random ids.
fn scattered_ids() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec((0..UNIVERSE).prop_map(NodeId::new), 0..24)
}

/// Run-heavy shape: a few ascending interval fills, long coalescible runs.
fn run_heavy_ids() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec((0..UNIVERSE - 256, 1..128usize), 1..6).prop_map(|intervals| {
        intervals
            .into_iter()
            .flat_map(|(start, len)| (start..start + len).map(NodeId::new))
            .collect()
    })
}

/// Adversarial shape: strided or descending ids — nothing coalesces, so
/// the run coder stores one singleton run per id.
fn fragmented_ids() -> impl Strategy<Value = Vec<NodeId>> {
    prop_oneof![
        (0..64usize, 2..5usize, 1..80usize)
            .prop_map(|(base, stride, n)| (0..n).map(|i| NodeId::new(base + i * stride)).collect()),
        (0..200usize).prop_map(|n| (0..n).rev().map(NodeId::new).collect()),
    ]
}

/// Any of the three payload shapes, as a sequence: any order, repeats
/// included.
fn payload_ids() -> impl Strategy<Value = Vec<NodeId>> {
    prop_oneof![scattered_ids(), run_heavy_ids(), fragmented_ids()]
}

/// The same shapes as a set iterates them: ascending, no repeats.
fn set_ids() -> impl Strategy<Value = Vec<NodeId>> {
    payload_ids().prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

/// One message carrying `IdSet` or `IdSeq` payloads plus the
/// `Vec<NodeId>` oracle of the ids it carries, in payload order, plus the
/// oracle's scalar digest words (the non-id fields `Message::digest`
/// mixes, in mix order).
fn arb_payload_message() -> impl Strategy<Value = (Message, Vec<NodeId>, Vec<u64>)> {
    prop_oneof![
        (set_ids(), any::<bool>()).prop_map(|(ids, exhausted)| (
            Message::QueryReply {
                ids: ids.iter().copied().collect(),
                exhausted,
            },
            ids,
            vec![u64::from(exhausted)],
        )),
        (any::<u32>(), set_ids(), set_ids(), set_ids(), set_ids()).prop_map(
            |(phase, more, done, unaware, unexplored)| {
                let oracle: Vec<NodeId> = more
                    .iter()
                    .chain(&done)
                    .chain(&unaware)
                    .chain(&unexplored)
                    .copied()
                    .collect();
                let scalars = vec![
                    u64::from(phase),
                    more.len() as u64,
                    done.len() as u64,
                    unaware.len() as u64,
                ];
                (
                    Message::Info(Box::new(InfoPayload {
                        phase,
                        more: more.into_iter().collect(),
                        done: done.into_iter().collect(),
                        unaware: unaware.into_iter().collect(),
                        unexplored: unexplored.into_iter().collect(),
                    })),
                    oracle,
                    scalars,
                )
            }
        ),
        (
            (0..UNIVERSE).prop_map(NodeId::new),
            any::<u32>(),
            (0..UNIVERSE).prop_map(NodeId::new),
            payload_ids()
        )
            .prop_map(|(leader, leader_phase, dest, ids)| {
                let mut oracle = vec![leader, dest];
                oracle.extend(ids.iter().copied());
                (
                    Message::ProbeReply {
                        leader,
                        leader_phase,
                        dest,
                        ids: ids.into_iter().collect(),
                    },
                    oracle,
                    vec![u64::from(leader_phase)],
                )
            }),
    ]
}

/// Replays `Message::digest`'s specification over the oracle `Vec`: kind
/// bytes, id count, the ids in payload order, then the scalar fields.
/// This is exactly what the digest computed when the payloads were
/// `Vec<NodeId>`, so equality pins digest stability across the swap.
fn oracle_digest(kind: &str, oracle: &[NodeId], scalars: &[u64]) -> u64 {
    let mut d = StateDigest::new();
    d.mix_bytes(kind.as_bytes());
    d.mix(oracle.len() as u64);
    for id in oracle {
        d.mix(id.index() as u64);
    }
    for &w in scalars {
        d.mix(w);
    }
    d.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `IdSeq` reproduces the oracle sequence under every accessor the
    /// payload sites use, duplicates and order included, and the run
    /// decomposition concatenates back to the same sequence.
    #[test]
    fn idseq_matches_vec_oracle(oracle in payload_ids()) {
        let seq: IdSeq = oracle.iter().copied().collect();
        prop_assert_eq!(seq.len(), oracle.len());
        prop_assert_eq!(seq.is_empty(), oracle.is_empty());
        prop_assert_eq!(seq.to_vec(), oracle.clone());
        let mut visited = Vec::new();
        seq.for_each(&mut |id| visited.push(id));
        prop_assert_eq!(&visited, &oracle);
        let mut by_runs = Vec::new();
        seq.for_each_run(&mut |s, e| by_runs.extend((s..e).map(|i| NodeId::new(i as usize))));
        prop_assert_eq!(&by_runs, &oracle, "run concatenation diverged");
    }

    /// The `Envelope` visitors on a message yield the oracle ids in
    /// payload order, and both count accessors agree.
    #[test]
    fn visitors_and_counts_match_oracle((msg, oracle, _) in arb_payload_message()) {
        let mut visited = Vec::new();
        msg.for_each_carried_id(&mut |id| visited.push(id));
        prop_assert_eq!(&visited, &oracle);
        prop_assert_eq!(msg.carried_ids(), oracle.clone());
        prop_assert_eq!(msg.carried_id_count(), oracle.len());
        let mut runs = Vec::new();
        msg.for_each_carried_run(&mut |s, e| runs.push((s, e)));
        for &(s, e) in &runs {
            prop_assert!(s < e, "runs are non-empty half-open intervals");
        }
        let by_runs: Vec<NodeId> = runs
            .iter()
            .flat_map(|&(s, e)| (s..e).map(|i| NodeId::new(i as usize)))
            .collect();
        prop_assert_eq!(&by_runs, &oracle);
    }

    /// Metered bits are exactly what the `Vec` representation charged:
    /// one `id_bits` per carried id plus the variant's aux bits plus the
    /// kind tag — independent of how the payload stores the ids.
    #[test]
    fn metered_bits_match_oracle((msg, oracle, _) in arb_payload_message(), id_bits in 1u64..40) {
        let expected = oracle.len() as u64 * id_bits + msg.aux_bits() + KIND_TAG_BITS;
        prop_assert_eq!(msg.bits(id_bits), expected);
    }

    /// `Message::digest` over set and sequence payloads equals the digest the
    /// `Vec<NodeId>` representation produced (replayed from the oracle),
    /// so recordings, replay corpora and explorer dedup hashes are stable
    /// across the representation swap.
    #[test]
    fn digests_match_vec_oracle((msg, oracle, scalars) in arb_payload_message()) {
        let mut d = StateDigest::new();
        msg.digest(&mut d);
        prop_assert_eq!(d.finish(), oracle_digest(msg.kind(), &oracle, &scalars));
    }

    /// Budget totals: metering a batch of payload-carrying messages into
    /// `Metrics` accumulates exactly the per-kind message and bit totals
    /// the Lemma 5.9/5.10 checks consume, computed from the oracle counts.
    #[test]
    fn budget_totals_match_oracle(
        batch in prop::collection::vec(arb_payload_message(), 1..12),
        id_bits in 8u64..33,
    ) {
        let mut metrics = Metrics::new(id_bits);
        let mut expected_msgs = 0u64;
        let mut expected_bits = 0u64;
        for (msg, oracle, _) in &batch {
            metrics.record(msg.kind(), msg.carried_id_count(), msg.aux_bits());
            expected_msgs += 1;
            expected_bits += oracle.len() as u64 * id_bits + msg.aux_bits() + KIND_TAG_BITS;
        }
        prop_assert_eq!(metrics.total_messages(), expected_msgs);
        prop_assert_eq!(metrics.total_bits(), expected_bits);
        // The aux-bit constants the budget checks use are the very sums
        // the messages metered (single source of truth).
        for (msg, _, _) in &batch {
            match msg {
                Message::QueryReply { .. } => {
                    prop_assert_eq!(msg.aux_bits(), Message::QUERY_REPLY_AUX_BITS);
                }
                Message::Info(_) => prop_assert_eq!(msg.aux_bits(), Message::INFO_AUX_BITS),
                _ => {}
            }
        }
    }
}
