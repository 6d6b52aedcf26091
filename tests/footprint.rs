//! Memory footprint gate: heap bytes per node of an Oblivious run on the
//! fifo round loop, counted by this test crate's own global allocator.
//!
//! Allocation *sizes* are deterministic — the run is, and the counter adds
//! up what was requested, not what the system allocator rounds it to — so
//! the two figures below repeat exactly and a per-node memory regression
//! fails `cargo test` instead of waiting for a `round-256k` benchmark pair
//! on a noisy host. This file holds exactly one test: a second one would
//! run on another thread and allocate into the same counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use asynchronous_resource_discovery::core::{Discovery, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::IdSet;

/// `System`, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that no
// allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with this `layout`, and the caller
        // guarantees `new_size` is valid for its alignment.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Measured on the commit that stored the knowledge graph flat, ran the
/// round loop from one event queue and narrowed `BitSet`'s header: 292.0
/// B/node live at quiescence and 462.0 B/node high-water (its parent:
/// 320.0 and 554.0; before the node's cold part: 642.5 and 793.4). The
/// ceilings sit ~5 % above.
const LIVE_CEILING: f64 = 307.0;
const PEAK_CEILING: f64 = 485.0;

#[test]
fn heap_bytes_per_node_stay_under_their_ceilings() {
    const N: usize = 16_384;
    let graph = gen::random_weakly_connected(N, 2 * N, 1);

    // The driver keeps its own copy of the graph: two flat arrays, n + 1
    // offsets and m targets of 4 B each, and nothing per node.
    let before_copy = LIVE.load(Relaxed);
    let copy = graph.clone();
    assert_eq!(
        LIVE.load(Relaxed) - before_copy,
        4 * (N + 1) + 4 * graph.edge_count()
    );
    drop(copy);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);

    let mut d = Discovery::new(&graph, Variant::Oblivious);
    d.run_all_rounds().expect("run livelocked");

    let per_node = |bytes: usize| (bytes - before) as f64 / N as f64;
    let live = per_node(LIVE.load(Relaxed));
    let peak = per_node(PEAK.load(Relaxed));
    d.check_requirements(&graph).expect("requirements");

    // At quiescence a node owns its sets and nothing else, unless its
    // transition log outgrew the inline word.
    let mut spilled = 0;
    for node in d.runner().nodes() {
        let sets = [
            node.local(),
            node.more(),
            node.done(),
            node.unaware(),
            node.unexplored(),
        ]
        .into_iter()
        .map(IdSet::heap_bytes)
        .sum::<usize>();
        if node.transitions().count() <= 21 {
            assert_eq!(node.heap_bytes(), sets, "{} kept a cold part", node.id());
        } else {
            assert!(node.heap_bytes() > sets);
            spilled += 1;
        }
    }
    println!(
        "n = {N}: {live:.1} B/node live at quiescence, {peak:.1} B/node high-water, \
         {spilled} nodes with a spilled transition log"
    );
    assert!(spilled * 20 < N, "{spilled} of {N} logs spilled");
    assert!(live <= LIVE_CEILING, "live {live:.1} B/node");
    assert!(peak <= PEAK_CEILING, "high-water {peak:.1} B/node");
}
