//! Memory gate for the fault layer: heap bytes per node of an Oblivious run
//! with every node inside `Reliable`, under drops, duplicates and crashes,
//! counted by this test crate's own global allocator — first without the
//! recording, then with it, where the recording's bytes per choice are
//! gated too.
//!
//! The run is seeded, so it is deterministic, and the counter adds up the
//! requested sizes, not what the system allocator rounds them to: the two
//! figures below repeat exactly, and a transport-state regression fails
//! `cargo test` instead of waiting for a `faulty-16k` benchmark pair. This
//! file holds exactly one test: a second one would run on another thread
//! and allocate into the same counters. (`tests/footprint.rs` is the same
//! gate for the fault-free round loop.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use asynchronous_resource_discovery::core::{FaultyDiscovery, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{
    FaultPlan, FaultScheduler, RandomScheduler, RecordingScheduler,
};

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

/// Measured on the commit that delivered in-order arrivals directly and
/// kept one early-arrival buffer per node, freed with `unacked` whenever
/// either drains: 1,085.9 B/node live at quiescence and 1,306.6 B/node
/// high-water (its parent, with one reorder map per (receiver, sender)
/// pair kept after it emptied: 5,836.3 and 5,840.5). The ceilings sit ~5 %
/// above.
const LIVE_CEILING: f64 = 1_140.0;
const PEAK_CEILING: f64 = 1_372.0;

/// The same run recorded (164,039 choices), measured on the commit that
/// packed the recording into one byte-coded choice log: 1,442.4 B/node
/// high-water and 4.40 B per recorded choice, spare capacity included (its
/// parent, recording into a `Vec<Choice>`: 3,147.0 and 25.57). The
/// ceilings sit ~5 % above.
const RECORDED_PEAK_CEILING: f64 = 1_515.0;
const BYTES_PER_CHOICE_CEILING: f64 = 4.62;

/// Starts a measurement: the high-water restarts at what is live now,
/// which is returned.
fn start() -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    before
}

#[test]
fn reliable_heap_bytes_per_node_stay_under_their_ceilings() {
    const N: usize = 2_048;
    let graph = gen::random_weakly_connected(N, 2 * N, 1);
    // `ard discover --faults drop=0.1,dup=0.05,crash=3,seed=1`, the plan of
    // the `faulty-16k` benchmark workload.
    let plan = || {
        FaultPlan::new(1)
            .with_drop(0.1)
            .with_dup(0.05)
            .with_spread_crashes(3, N)
    };
    let per_node = |bytes: usize| bytes as f64 / N as f64;

    // Phase 1: the fault layer alone, without the recording.
    let mut sched = FaultScheduler::new(RandomScheduler::seeded(1), Some(plan()));
    let before = start();
    let mut d = FaultyDiscovery::new(&graph, Variant::Oblivious);
    d.run_all(&mut sched).expect("run livelocked");
    let live = per_node(LIVE.load(Relaxed) - before);
    let peak = per_node(PEAK.load(Relaxed) - before);
    d.check_requirements(&graph).expect("requirements");
    assert_eq!(d.runner().nodes().map(|n| n.unacked_len()).sum::<usize>(), 0);
    assert!(d.runner().metrics().faults().crashes >= 1);
    println!("n = {N}: {live:.1} B/node live at quiescence, {peak:.1} B/node high-water");
    assert!(live <= LIVE_CEILING, "live {live:.1} B/node");
    assert!(peak <= PEAK_CEILING, "high-water {peak:.1} B/node");
    drop(d);

    // Phase 2: the same run under a `RecordingScheduler`, as the benchmark
    // and `ard discover --record` run it.
    let mut sched = RecordingScheduler::new(FaultScheduler::new(
        RandomScheduler::seeded(1),
        Some(plan()),
    ));
    let before = start();
    let mut d = FaultyDiscovery::new(&graph, Variant::Oblivious);
    let steps = d.run_all(&mut sched).expect("run livelocked").steps;
    let peak = per_node(PEAK.load(Relaxed) - before);
    let schedule = sched.into_schedule();
    let choices = schedule.len();
    assert_eq!(choices as u64, steps, "one recorded choice per step");
    let held = LIVE.load(Relaxed);
    drop(schedule);
    let bytes_per_choice = (held - LIVE.load(Relaxed)) as f64 / choices as f64;
    println!(
        "n = {N}, recorded: {peak:.1} B/node high-water, {choices} choices at \
         {bytes_per_choice:.2} B/choice"
    );
    assert!(
        peak <= RECORDED_PEAK_CEILING,
        "high-water with recording {peak:.1} B/node"
    );
    assert!(
        bytes_per_choice <= BYTES_PER_CHOICE_CEILING,
        "recording {bytes_per_choice:.2} B/choice"
    );
}
