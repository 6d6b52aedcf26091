//! The paper's motivating scenario (§1): repairing a damaged peer-to-peer
//! system.
//!
//! A structured overlay (here, a Chord-style ring) collapses when most of
//! its nodes are reset: the survivors hold stale, partial neighbour lists —
//! a weakly connected knowledge graph. The first step of recovery is
//! resource discovery: regroup every surviving peer under one coordinator
//! that knows all of them, then rebuild the overlay from the discovered
//! membership list.
//!
//! ```text
//! cargo run --release --example p2p_bootstrap
//! ```

use asynchronous_resource_discovery::core::{Discovery, Variant};
use asynchronous_resource_discovery::graph::{components, KnowledgeGraph};
use asynchronous_resource_discovery::netsim::{LivelockError, NodeId, RandomScheduler};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds the knowledge graph of a crashed ring overlay: of `total` original
/// peers, only `survivors` remain; each survivor still remembers its
/// successor list and finger-ish shortcuts, but only the entries that
/// survived.
fn crashed_overlay(total: usize, survivors: usize, seed: u64) -> (Vec<usize>, KnowledgeGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive: Vec<usize> = (0..total).collect();
    alive.shuffle(&mut rng);
    alive.truncate(survivors);
    alive.sort_unstable();

    // Survivor i's old neighbour set: successors and power-of-two fingers on
    // the *original* ring; keep only the surviving ones.
    let index_of: std::collections::HashMap<usize, usize> =
        alive.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut offsets = vec![1usize, 2, 3];
    let mut f = 4;
    while f < total {
        offsets.push(f);
        f *= 2;
    }
    let index_of = &index_of;
    let edges = alive.iter().enumerate().flat_map(|(i, &peer)| {
        offsets.iter().filter_map(move |off| {
            let j = *index_of.get(&((peer + off) % total))?;
            (j != i).then_some((i, j))
        })
    });
    let graph = KnowledgeGraph::from_edges(survivors, edges);
    (alive, graph)
}

fn main() -> Result<(), LivelockError> {
    let total = 512;
    let survivors = 160;
    let (alive, graph) = crashed_overlay(total, survivors, 99);
    let comps = components::weakly_connected_components(&graph);
    println!(
        "crash: {total} peers -> {survivors} survivors, stale knowledge graph has {} edges, {} weakly connected component(s)",
        graph.edge_count(),
        comps.len()
    );

    // Phase 1: resource discovery regroups each component under a leader.
    let mut discovery = Discovery::new(&graph, Variant::AdHoc);
    let mut sched = RandomScheduler::seeded(5);
    let outcome = discovery.run_all(&mut sched)?;
    discovery
        .check_requirements(&graph)
        .expect("discovery failed");
    println!(
        "discovery: {} leader(s) elected with {} messages / {} bits",
        outcome.leaders.len(),
        outcome.metrics.total_messages(),
        outcome.metrics.total_bits()
    );

    // Phase 2: any survivor can now pull the full membership from its
    // leader (Ad-hoc probe) and rebuild the ring locally.
    let prober = NodeId::new(sched_pick(survivors));
    let membership = discovery.probe_blocking(prober, &mut sched)?;
    let mut ring: Vec<usize> = membership.iter().map(|id| alive[id.index()]).collect();
    ring.sort_unstable();
    println!(
        "rebuild: survivor {} (peer {}) probed its leader and got {} members; new ring: {} .. {}",
        prober,
        alive[prober.index()],
        ring.len(),
        ring[0],
        ring[ring.len() - 1]
    );
    assert_eq!(
        ring.len(),
        comps
            .iter()
            .find(|c| c.contains(&prober))
            .map(Vec::len)
            .unwrap_or(0),
        "the probe returned its whole component"
    );
    // Every consecutive pair in `ring` becomes successor links of the
    // repaired overlay; from here a DHT can re-stabilize.
    println!("done: overlay repaired from one discovery pass + one probe per joining peer");
    Ok(())
}

fn sched_pick(n: usize) -> usize {
    // A fixed "random" survivor for reproducibility.
    let mut rng = StdRng::seed_from_u64(17);
    rng.gen_range(0..n)
}
