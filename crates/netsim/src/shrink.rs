//! Delta-debugging minimization of failing schedules.
//!
//! A schedule found by the [explorer](crate::explore) typically interleaves
//! the handful of events that race with dozens that are irrelevant. This
//! module applies ddmin-style chunk removal: repeatedly delete spans of
//! choices, keep any candidate that still fails, and halve the chunk size
//! until single-choice removals stop helping — yielding a **1-minimal**
//! failing schedule (removing any one remaining choice makes the failure
//! disappear).
//!
//! Candidates are executed under a *lenient* [`ReplayScheduler`] wrapped in
//! a [`RecordingScheduler`]: deleting a choice can disable later recorded
//! choices (a message can't be delivered if the send that produces it was
//! skipped), and lenient replay simply drops those. The re-recorded
//! sequence of choices that *actually executed* becomes the new baseline,
//! so the minimized schedule is always strict-replayable — what you check
//! into a corpus replays byte-for-byte.
//!
//! [`shrink_jobs`] evaluates each round's candidate removals speculatively
//! on worker threads but consumes the outcomes in the exact order the
//! sequential loop would, accepting the same candidate it would accept —
//! the result (schedule, reason, even the `attempts` counter) is
//! byte-identical at any job count.

use crate::par;
use crate::record::{RecordingScheduler, ReplayScheduler, Schedule};
use crate::scheduler::{Choice, Scheduler};

/// Outcome of a [`shrink`] call.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized schedule; still fails, strict-replayable.
    pub schedule: Schedule,
    /// The failure message the minimized schedule produces.
    pub reason: String,
    /// Choice count of the input schedule.
    pub original_len: usize,
    /// Number of candidate schedules executed during minimization (counting
    /// only candidates the sequential order consumed, so the number is
    /// identical at any job count).
    pub attempts: u64,
}

impl ShrinkResult {
    /// Fraction of the original choices removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        1.0 - self.schedule.len() as f64 / self.original_len as f64
    }
}

/// Minimizes a failing schedule to a 1-minimal subsequence that still fails.
///
/// `factory` is the same system factory the explorer takes: each call
/// builds a fresh `run_one` closure that constructs the system from
/// scratch, drives it with the given scheduler and returns `Err(reason)`
/// on violation. The input `schedule` must fail under it.
///
/// The returned schedule keeps the input's metadata, with `shrunk-from`
/// recording the original length. Runs in at most
/// `O(len²)` candidate executions (ddmin's worst case); each candidate run
/// is capped by the schedule length, so the whole pass is cheap at the
/// sizes the explorer emits.
///
/// # Panics
///
/// Panics if `schedule` does not fail under `run_one` — a shrinker fed a
/// passing schedule indicates a non-deterministic `run_one`.
pub fn shrink<F, R>(schedule: &Schedule, factory: F) -> ShrinkResult
where
    F: Fn() -> R + Sync,
    R: FnMut(&mut dyn Scheduler) -> Result<(), String>,
{
    shrink_jobs(schedule, 1, factory)
}

/// [`shrink`] with `jobs` worker threads evaluating each ddmin round's
/// candidate removals speculatively. The accepted candidates, the final
/// schedule and every counter are byte-identical to `jobs = 1`.
///
/// # Panics
///
/// Panics if `schedule` does not fail under `run_one` (see [`shrink`]).
pub fn shrink_jobs<F, R>(schedule: &Schedule, jobs: usize, factory: F) -> ShrinkResult
where
    F: Fn() -> R + Sync,
    R: FnMut(&mut dyn Scheduler) -> Result<(), String>,
{
    let jobs = jobs.max(1);
    // Runs a candidate leniently; on failure returns the re-recorded
    // (normalized) sequence, the failure reason and the terminal-state
    // digest of the candidate run (when the system reports one).
    let try_choices = |choices: &[Choice]| -> Option<(Vec<Choice>, String, Option<u64>)> {
        let mut run_one = factory();
        let mut sched = RecordingScheduler::new(ReplayScheduler::lenient(choices));
        let result = run_one(&mut sched);
        let reason = result.err()?;
        Some((sched.recorded().collect(), reason, sched.terminal_digest()))
    };

    let mut attempts: u64 = 1; // the initial validation below
    let input: Vec<Choice> = schedule.choices().collect();
    let (mut best, mut reason, mut digest) =
        try_choices(&input).expect("shrink: input schedule does not fail under run_one");
    let original_len = schedule.len();

    let mut chunk = best.len().div_ceil(2).max(1);
    loop {
        let mut shrunk_this_pass = false;
        let mut start = 0;
        while start < best.len() {
            // Speculative batch: the candidates the sequential loop would
            // try next, in order — removals at start, start + chunk, … of
            // the *current* best. Outcomes are consumed in that order; an
            // acceptance invalidates the rest of the batch (they were cut
            // from a stale baseline), so they are discarded unconsumed and
            // the next batch is cut from the new best at the same start.
            let batch_cap = if jobs <= 1 { 1 } else { jobs * 2 };
            let mut starts = Vec::with_capacity(batch_cap);
            let mut s = start;
            while s < best.len() && starts.len() < batch_cap {
                starts.push(s);
                s += chunk;
            }
            let candidates: Vec<Vec<Choice>> = starts
                .iter()
                .map(|&s| {
                    let end = (s + chunk).min(best.len());
                    let mut candidate = Vec::with_capacity(best.len() - (end - s));
                    candidate.extend_from_slice(&best[..s]);
                    candidate.extend_from_slice(&best[end..]);
                    candidate
                })
                .collect();
            let outcomes = par::parallel_map(jobs, candidates, |c| try_choices(&c));
            for (s, outcome) in starts.into_iter().zip(outcomes) {
                attempts += 1;
                match outcome {
                    Some((normalized, r, d)) if normalized.len() < best.len() => {
                        best = normalized;
                        reason = r;
                        digest = d;
                        shrunk_this_pass = true;
                        // Re-test the same position: the slice shifted left.
                        start = s;
                        break;
                    }
                    _ => start = (s + chunk).min(best.len()),
                }
            }
        }
        if chunk == 1 {
            if !shrunk_this_pass {
                break;
            }
            // Keep doing single-choice passes until a full pass removes
            // nothing — that is the 1-minimality fixpoint.
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    let mut out = Schedule::new(best);
    for (k, v) in schedule.meta_iter() {
        out.set_meta(k, v);
    }
    out.set_meta("shrunk-from", original_len.to_string());
    // A `terminal-digest` on the input (reduction-mode explorations stamp
    // one) describes the *unminimized* run; refresh it to the minimized
    // run's digest so the corpus entry stays truthful. Schedules without
    // the meta never gain one here — default-mode outputs stay
    // byte-identical.
    if schedule.meta("terminal-digest").is_some() {
        if let Some(digest) = digest {
            out.set_meta("terminal-digest", format!("{digest:016x}"));
        }
    }
    ShrinkResult {
        schedule: out,
        reason,
        original_len,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, fixtures, ExploreConfig};
    use crate::record::ReplayScheduler;

    fn find_failure(clients: usize) -> Schedule {
        let report = explore(&ExploreConfig::default(), move || {
            move |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
        });
        report.failure.expect("explorer should find the race").schedule
    }

    #[test]
    fn shrinks_the_planted_race_by_at_least_half() {
        let schedule = find_failure(4);
        let result = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(4, sched)
        });
        assert!(
            result.reduction() >= 0.5,
            "only shrank {} → {} choices",
            result.original_len,
            result.schedule.len()
        );
        assert!(result.reason.contains("highest-id client"));
        // The race needs at least the highest client's wake and delivery.
        assert!(result.schedule.len() >= 2);
    }

    #[test]
    fn minimized_schedule_strict_replays_to_the_same_failure() {
        let schedule = find_failure(3);
        let result = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(3, sched)
        });
        let mut replay = ReplayScheduler::strict(&result.schedule);
        let err = fixtures::run_racy(3, &mut replay).unwrap_err();
        assert_eq!(err, result.reason);
        // Minimization truncates the run: the cut events stay pending.
        assert!(replay.leftover() > 0);
    }

    #[test]
    fn minimized_schedule_is_one_minimal() {
        let schedule = find_failure(3);
        let result = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(3, sched)
        });
        let best: Vec<Choice> = result.schedule.choices().collect();
        for skip in 0..best.len() {
            let mut candidate = best.clone();
            candidate.remove(skip);
            let mut sched = ReplayScheduler::lenient(&candidate);
            assert!(
                fixtures::run_racy(3, &mut sched).is_ok(),
                "removing choice {skip} should break the failure"
            );
        }
    }

    #[test]
    fn shrink_records_provenance_meta() {
        let mut schedule = find_failure(2);
        schedule.set_meta("case", "demo");
        let result = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(2, sched)
        });
        assert_eq!(result.schedule.meta("case"), Some("demo"));
        assert_eq!(
            result.schedule.meta("shrunk-from"),
            Some(result.original_len.to_string().as_str())
        );
        assert!(result.attempts > 0);
    }

    #[test]
    fn parallel_shrink_is_byte_identical_to_sequential() {
        let schedule = find_failure(4);
        let sequential = shrink_jobs(&schedule, 1, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(4, sched)
        });
        for jobs in [2, 4, 8] {
            let parallel = shrink_jobs(&schedule, jobs, || {
                |sched: &mut dyn Scheduler| fixtures::run_racy(4, sched)
            });
            assert_eq!(parallel.schedule, sequential.schedule, "jobs={jobs}");
            assert_eq!(parallel.reason, sequential.reason, "jobs={jobs}");
            assert_eq!(parallel.attempts, sequential.attempts, "jobs={jobs}");
        }
    }

    #[test]
    fn shrink_refreshes_the_terminal_digest_of_reduced_finds() {
        use crate::explore::{explore_fork, ReduceMode};
        let config = ExploreConfig {
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let report = explore_fork(&config, &fixtures::RacySystem::new(3));
        let schedule = report.failure.expect("reduced explorer finds the race").schedule;
        assert!(schedule.meta("terminal-digest").is_some());
        let result = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(3, sched)
        });
        let stamped = result
            .schedule
            .meta("terminal-digest")
            .expect("shrink refreshes the digest")
            .to_string();
        // Strict replay of the minimized schedule lands in exactly the
        // state the stamp describes.
        let mut replay = RecordingScheduler::new(ReplayScheduler::strict(&result.schedule));
        let _ = fixtures::run_racy(3, &mut replay);
        let replayed = replay.terminal_digest().expect("replay reports a digest");
        assert_eq!(stamped, format!("{replayed:016x}"));
    }

    #[test]
    #[should_panic(expected = "input schedule does not fail")]
    fn passing_schedule_is_rejected() {
        // A FIFO-recorded run of the fixture passes; shrinking it is a bug.
        let mut sched = RecordingScheduler::new(crate::FifoScheduler::new());
        fixtures::run_racy(2, &mut sched).unwrap();
        let schedule = sched.into_schedule();
        shrink(&schedule, || {
            |s: &mut dyn Scheduler| fixtures::run_racy(2, s)
        });
    }
}
