//! The process-wide `--jobs` setting of the experiment sweeps.
//!
//! Experiment sweeps repeat independent trials (each trial owns its topology
//! seed and its seeded [`RandomScheduler`](ard_netsim::RandomScheduler)), so
//! they parallelize trivially over [`ard_netsim::par::parallel_map`], which
//! hands results back **in input order**. Because every trial is
//! deterministic in its inputs and the merge order is the input order, the
//! output is byte-for-byte identical whatever the job count — `--jobs N`
//! only changes wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};

use ard_netsim::par::parallel_map;

/// The process-wide worker count used by [`map_configured`] (set from the
/// `--jobs` CLI flag). Defaults to 1 (fully sequential).
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker count used by [`map_configured`]. Values are clamped to
/// at least 1. Changing this never changes any experiment's output, only how
/// many trials run concurrently.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The currently configured worker count.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// [`parallel_map`] with the process-wide [`jobs`] worker count.
///
/// # Example
///
/// ```
/// ard_bench::parallel::set_jobs(4);
/// let squares = ard_bench::parallel::map_configured((0u64..100).collect(), |x| x * x);
/// assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn map_configured<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map(jobs(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_trials_merge_in_seed_order() {
        use ard_netsim::RandomScheduler;
        use rand::{Rng, RngCore, SeedableRng};
        // Each trial owns a seeded RNG (as sweep trials own seeded
        // RandomSchedulers); the merged sequence must match sequential.
        let trial = |seed: u64| {
            let _owns_scheduler = RandomScheduler::seeded(seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (seed, rng.next_u64(), rng.gen_range(0u32..1000))
        };
        let seeds: Vec<u64> = (0..32).collect();
        let sequential: Vec<_> = seeds.iter().map(|&s| trial(s)).collect();
        assert_eq!(parallel_map(4, seeds, trial), sequential);
    }

    #[test]
    fn set_jobs_clamps_to_one() {
        let before = jobs();
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(before);
    }
}
