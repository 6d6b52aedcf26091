//! The `--scheduler` grammar (case-insensitive), which no recording needs:
//! `fifo | lifo | random[:SEED] | bounded:DELAY[,SEED]`. A run's other
//! grammars are [`ard_core::spec`]'s; two keep their old paths here.

use ard_core::spec::{number, ParseSpecError};
use ard_netsim::{BoundedDelayScheduler, FifoScheduler, LifoScheduler, RandomScheduler, Scheduler};

pub use ard_core::spec::{parse_faults, parse_topology};

/// A parsed `--scheduler` value: which delivery order a run uses, with
/// its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Oldest pending event first.
    Fifo,
    /// Newest pending event first.
    Lifo,
    /// A uniformly random pending event, from this seed.
    Random(u64),
    /// Random order in which no event waits more than `delay` choices.
    Bounded {
        /// The longest an event waits, in choices (≥ 1).
        delay: u64,
        /// The scheduler's seed.
        seed: u64,
    },
}

impl SchedulerSpec {
    /// The scheduler object this spec names.
    pub(crate) fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Fifo => Box::new(FifoScheduler::new()),
            SchedulerSpec::Lifo => Box::new(LifoScheduler::new()),
            SchedulerSpec::Random(seed) => Box::new(RandomScheduler::seeded(seed)),
            SchedulerSpec::Bounded { delay, seed } => {
                Box::new(BoundedDelayScheduler::new(delay, seed))
            }
        }
    }
}

/// Parses a scheduler specification.
///
/// # Errors
///
/// Returns [`ParseSpecError`] with the offending fragment.
///
/// # Example
///
/// ```
/// use ard_cli::spec::{parse_scheduler, SchedulerSpec};
///
/// assert_eq!(parse_scheduler("RANDOM:42"), Ok(SchedulerSpec::Random(42)));
/// assert_eq!(parse_scheduler("bounded:8,1"), Ok(SchedulerSpec::Bounded { delay: 8, seed: 1 }));
/// assert!(parse_scheduler("psychic").is_err());
/// ```
pub fn parse_scheduler(spec: &str) -> Result<SchedulerSpec, ParseSpecError> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind.to_ascii_lowercase().as_str() {
        "fifo" => Ok(SchedulerSpec::Fifo),
        "lifo" => Ok(SchedulerSpec::Lifo),
        "random" if rest.is_empty() => Ok(SchedulerSpec::Random(0)),
        "random" => Ok(SchedulerSpec::Random(number(rest, "seed")?)),
        "bounded" => {
            let (delay, seed) = match rest.split_once(',') {
                Some((d, s)) => (number(d, "delay")?, number(s, "seed")?),
                None => (number(rest, "delay")?, 0),
            };
            if delay == 0 {
                return Err(ParseSpecError::Invalid("bounded delay must be ≥ 1".into()));
            }
            Ok(SchedulerSpec::Bounded { delay, seed })
        }
        other => Err(ParseSpecError::Invalid(format!(
            "unknown scheduler `{other}` (try fifo, lifo, random[:SEED], bounded:DELAY[,SEED])"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_parse() {
        for (spec, want) in [
            ("fifo", SchedulerSpec::Fifo),
            ("FIFO", SchedulerSpec::Fifo),
            ("lifo", SchedulerSpec::Lifo),
            ("random", SchedulerSpec::Random(0)),
            ("Random:9", SchedulerSpec::Random(9)),
            ("bounded:4", SchedulerSpec::Bounded { delay: 4, seed: 0 }),
            ("bounded:4,2", SchedulerSpec::Bounded { delay: 4, seed: 2 }),
        ] {
            assert_eq!(parse_scheduler(spec), Ok(want), "{spec}");
        }
        assert!(parse_scheduler("random:x").is_err());
        assert!(parse_scheduler("bounded:0").is_err());
        assert!(parse_scheduler("warp").is_err());
    }
}
