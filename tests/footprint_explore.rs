//! Cost gate of the sleep-set-reduced DFS: allocator calls and runner state
//! digests per DFS run of `ard explore --variant adhoc --reduce` on the
//! 16-node system of the benchmark's `explore-adhoc16` workload, counted by
//! this test crate's own global allocator and by a forwarding scheduler
//! wrapped around each run.
//!
//! The search is sequential (`jobs = 1`, so it runs on the test's own
//! thread) and seeded, so both counts repeat exactly and a regression in
//! the explorer's bookkeeping fails `cargo test` instead of waiting for a
//! benchmark pair on a noisy host. Only the test thread's allocations are
//! counted: the harness's main thread allocates now and then while a test
//! runs. This file holds exactly one test, as the digest counters are
//! global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ard_cli::spec;
use asynchronous_resource_discovery::core::{run_checked, Plans, Variant};
use asynchronous_resource_discovery::netsim::explore::{
    explore, ExploreConfig, ReduceMode, StopReason,
};
use asynchronous_resource_discovery::netsim::{Choice, Footprint, NodeId, Scheduler, SendToken};

/// `System`, counting the calls that hand out memory (`alloc`, `realloc`)
/// on threads that switched [`COUNTING`] on.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocator calls count. A `const` `Cell` with
    /// no destructor: reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that no
// allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `p` came from `System` with this `layout`, and the caller
        // guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static STATE_DIGESTS: AtomicU64 = AtomicU64::new(0);
static TERMINAL_DIGESTS: AtomicU64 = AtomicU64::new(0);

/// Forwards every [`Scheduler`] method to the explorer's scheduler and
/// counts the state digests the runner reports to it.
struct CountDigests<'a>(&'a mut dyn Scheduler);

impl Scheduler for CountDigests<'_> {
    fn note_wake(&mut self, node: NodeId) {
        self.0.note_wake(node);
    }
    fn note_send(&mut self, token: SendToken) {
        self.0.note_send(token);
    }
    fn note_tick(&mut self, node: NodeId) {
        self.0.note_tick(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        self.0.choose()
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
    fn wants_footprints(&self) -> bool {
        self.0.wants_footprints()
    }
    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        self.0.note_footprint(choice, footprint);
    }
    fn wants_state_digest(&self) -> bool {
        self.0.wants_state_digest()
    }
    fn note_state_digest(&mut self, digest: u64) {
        STATE_DIGESTS.fetch_add(1, Relaxed);
        self.0.note_state_digest(digest);
    }
    fn wants_terminal_digest(&self) -> bool {
        self.0.wants_terminal_digest()
    }
    fn note_terminal_digest(&mut self, digest: u64) {
        TERMINAL_DIGESTS.fetch_add(1, Relaxed);
        self.0.note_terminal_digest(digest);
    }
}

/// Measured on the commit that observed only the decisions at or past a
/// run's prefix, drained the canonical tail from one sorted round and
/// decided may-conflicts without building footprints, over the 2,000 runs
/// below: 2,368 state digests (2,000 of them terminal; 1.18 per run) and
/// 450,927 allocator calls (225.5 per run). Its parent read 14,000 (7.00)
/// and 576,717 (288.4). The ceilings are the measured values: both counts repeat
/// exactly, in debug and release builds.
const DIGESTS_CEILING: u64 = 2_368;
const ALLOCS_CEILING: u64 = 450_927;

#[test]
fn reduced_dfs_digests_and_allocations_stay_under_their_ceilings() {
    const RUNS: u64 = 2_000;
    let graph = spec::parse_topology("random:n=16,extra=24").expect("topology parses");
    let plans = Plans::default();
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: RUNS,
        dfs_depth: 6,
        seed: 1,
        jobs: 1,
        reduce: ReduceMode::Sleep,
        ..ExploreConfig::default()
    };
    COUNTING.with(|on| on.set(true));
    let report = explore(&config, || {
        |sched: &mut dyn Scheduler| {
            run_checked(&graph, Variant::AdHoc, &plans, &mut CountDigests(sched))?.verdict()
        }
    });
    COUNTING.with(|on| on.set(false));
    let allocs = CALLS.load(Relaxed);
    assert!(report.failure.is_none(), "no violation on a fault-free run");
    assert_eq!(report.stop, StopReason::BudgetExhausted);
    assert_eq!(report.dfs_runs, RUNS);
    let terminal = TERMINAL_DIGESTS.load(Relaxed);
    let digests = STATE_DIGESTS.load(Relaxed) + terminal;
    let per_run = |count: u64| count as f64 / RUNS as f64;
    println!(
        "{RUNS} reduced DFS runs: {digests} state digests ({terminal} terminal, {:.2} per run), \
         {allocs} allocator calls ({:.1} per run); sleep-pruned {}, state-deduped {}",
        per_run(digests),
        per_run(allocs),
        report.sleep_pruned,
        report.digest_deduped
    );
    assert!(digests <= DIGESTS_CEILING, "{digests} state digests");
    assert!(allocs <= ALLOCS_CEILING, "{allocs} allocator calls");
}
