//! End-to-end pipeline from the paper's introduction: peers *discover* each
//! other, then use the membership to *form a distributed hash table* and
//! serve lookups in `O(log n)` hops.
//!
//! ```text
//! cargo run --release --example overlay_lookup
//! ```

use asynchronous_resource_discovery::core::{Discovery, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{LivelockError, NodeId, RandomScheduler};
use asynchronous_resource_discovery::overlay::{bootstrap, Key};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), LivelockError> {
    let n = 200;
    // Phase 1: asynchronous resource discovery on a sparse knowledge graph.
    let graph = gen::random_weakly_connected(n, 2 * n, 1234);
    let mut discovery = Discovery::new(&graph, Variant::AdHoc);
    let mut sched = RandomScheduler::seeded(5);
    let outcome = discovery.run_all(&mut sched)?;
    let leader = outcome.leaders[0];
    let members: Vec<NodeId> = discovery
        .runner()
        .node(leader)
        .done()
        .iter()
        .collect();
    println!(
        "discovery: {} peers regrouped under {leader} in {} messages",
        members.len(),
        outcome.metrics.total_messages()
    );

    // Phase 2: bootstrap a Chord-style ring from the discovered membership.
    let mut overlay = bootstrap(&members);
    println!(
        "overlay: ring of {} members, fingers precomputed from the membership list",
        overlay.len()
    );

    // Phase 3: serve random lookups.
    let mut rng = StdRng::seed_from_u64(6);
    let trials = 500;
    let mut total_hops = 0u64;
    let mut worst = 0u32;
    for _ in 0..trials {
        let key = Key::new(rng.gen());
        let from = members[rng.gen_range(0..members.len())];
        let result = overlay.lookup_blocking(from, key, &mut sched)?;
        assert_eq!(result.owner, overlay.ring().owner(key));
        total_hops += u64::from(result.hops);
        worst = worst.max(result.hops);
    }
    println!(
        "lookups: {trials} keys resolved, avg {:.2} hops, worst {worst} (log2 n = {:.1})",
        total_hops as f64 / trials as f64,
        (n as f64).log2()
    );

    // Phase 4: use the ring as a distributed hash table.
    for i in 0..100u64 {
        let from = members[rng.gen_range(0..members.len())];
        overlay.put_blocking(from, Key::new(i * 977), i, &mut sched)?;
    }
    let mut hits = 0;
    for i in 0..100u64 {
        let from = members[rng.gen_range(0..members.len())];
        let got = overlay.get_blocking(from, Key::new(i * 977), &mut sched)?;
        if got.value == Some(i) {
            hits += 1;
        }
    }
    let m = overlay.runner().metrics();
    println!(
        "store: 100 puts + 100 gets, {hits}/100 round-tripped, {} pairs spread over the ring",
        overlay.stored_total()
    );
    println!(
        "overlay traffic: {} messages / {} bits",
        m.total_messages(),
        m.total_bits()
    );
    assert_eq!(hits, 100);
    Ok(())
}
