//! Textual specifications for topologies, schedulers and variants.
//!
//! Grammar (all case-insensitive):
//!
//! ```text
//! topology  := path:N | ring:N | star-in:N | star-out:N | complete:N
//!            | tree:LEVELS | random:n=N,extra=M[,seed=S]
//!            | components:count=C,per=P[,extra=M][,seed=S]
//! scheduler := fifo | lifo | random[:SEED] | bounded:DELAY[,SEED]
//! variant   := oblivious | bounded | adhoc
//! faults    := drop=P | dup=P | crash=N | seed=S   (comma-separated)
//! ```
//!
//! `--byzantine` and `--churn` values share their grammar with the schedule
//! metadata they are recorded as, so their one parser lives next to the
//! writers: [`ard_core::parse_byzantine_meta`], [`ard_core::parse_churn_meta`].

use ard_core::Variant;
use ard_graph::{gen, KnowledgeGraph};
use ard_netsim::{
    BoundedDelayScheduler, FaultPlan, FifoScheduler, LifoScheduler, RandomScheduler, Scheduler,
};

/// A parse failure, with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(pub String);

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid specification: {}", self.0)
    }
}

impl std::error::Error for ParseSpecError {}

fn err(msg: impl Into<String>) -> ParseSpecError {
    ParseSpecError(msg.into())
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ParseSpecError> {
    s.parse()
        .map_err(|_| err(format!("{what}: `{s}` is not a number")))
}

/// Parses `key=value,key=value` into pairs.
fn parse_kv(s: &str) -> Result<Vec<(&str, &str)>, ParseSpecError> {
    s.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got `{part}`")))
        })
        .collect()
}

/// Parses a topology specification into a knowledge graph.
///
/// # Errors
///
/// Returns [`ParseSpecError`] with the offending fragment.
///
/// # Example
///
/// ```
/// let g = ard_cli::spec::parse_topology("random:n=32,extra=64,seed=5").unwrap();
/// assert_eq!(g.len(), 32);
/// assert!(ard_cli::spec::parse_topology("blob:77").is_err());
/// ```
pub fn parse_topology(spec: &str) -> Result<KnowledgeGraph, ParseSpecError> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind.to_ascii_lowercase().as_str() {
        "path" => Ok(gen::path(parse_num(rest, "path size")?)),
        "ring" => {
            let n = parse_num(rest, "ring size")?;
            if n < 2 {
                return Err(err("ring size must be ≥ 2"));
            }
            Ok(gen::ring(n))
        }
        "star-in" => Ok(gen::star_in(parse_num(rest, "star size")?)),
        "star-out" => Ok(gen::star_out(parse_num(rest, "star size")?)),
        "complete" => Ok(gen::complete(parse_num(rest, "clique size")?)),
        "tree" => {
            let levels: usize = parse_num(rest, "tree levels")?;
            if levels == 0 || levels > 24 {
                return Err(err("tree levels must be in 1..=24"));
            }
            Ok(gen::binary_tree_down(levels as u32))
        }
        "random" => {
            let mut n = None;
            let mut extra = 0;
            let mut seed = 0;
            for (k, v) in parse_kv(rest)? {
                match k {
                    "n" => n = Some(parse_num(v, "n")?),
                    "extra" => extra = parse_num(v, "extra")?,
                    "seed" => seed = parse_num(v, "seed")?,
                    other => return Err(err(format!("unknown random-graph key `{other}`"))),
                }
            }
            let n = n.ok_or_else(|| err("random needs n=<size>"))?;
            Ok(gen::random_weakly_connected(n, extra, seed))
        }
        "components" => {
            let (mut count, mut per, mut extra, mut seed) = (None, None, 0, 0);
            for (k, v) in parse_kv(rest)? {
                match k {
                    "count" => count = Some(parse_num(v, "count")?),
                    "per" => per = Some(parse_num(v, "per")?),
                    "extra" => extra = parse_num(v, "extra")?,
                    "seed" => seed = parse_num(v, "seed")?,
                    other => return Err(err(format!("unknown components key `{other}`"))),
                }
            }
            let count = count.ok_or_else(|| err("components needs count=<k>"))?;
            let per = per.ok_or_else(|| err("components needs per=<size>"))?;
            Ok(gen::random_multi_component(count, per, extra, seed))
        }
        other => Err(err(format!(
            "unknown topology `{other}` (try path:N, ring:N, star-in:N, star-out:N, complete:N, tree:LEVELS, random:n=..,extra=.., components:count=..,per=..)"
        ))),
    }
}

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
        "random" => Ok(SchedulerSpec::Random(parse_num(rest, "seed")?)),
        "bounded" => {
            let (delay, seed) = match rest.split_once(',') {
                Some((d, s)) => (parse_num(d, "delay")?, parse_num(s, "seed")?),
                None => (parse_num(rest, "delay")?, 0),
            };
            if delay == 0 {
                return Err(err("bounded delay must be ≥ 1"));
            }
            Ok(SchedulerSpec::Bounded { delay, seed })
        }
        other => Err(err(format!(
            "unknown scheduler `{other}` (try fifo, lifo, random[:SEED], bounded:DELAY[,SEED])"
        ))),
    }
}

/// Parses a problem-variant name.
///
/// # Errors
///
/// Returns [`ParseSpecError`] for unknown names.
pub fn parse_variant(spec: &str) -> Result<Variant, ParseSpecError> {
    match spec.to_ascii_lowercase().as_str() {
        "oblivious" | "generic" => Ok(Variant::Oblivious),
        "bounded" => Ok(Variant::Bounded),
        "adhoc" | "ad-hoc" => Ok(Variant::AdHoc),
        other => Err(err(format!(
            "unknown variant `{other}` (oblivious, bounded, adhoc)"
        ))),
    }
}

fn parse_prob(s: &str, what: &str) -> Result<f64, ParseSpecError> {
    let p: f64 = s
        .parse()
        .map_err(|_| err(format!("{what}: `{s}` is not a probability")))?;
    if !(0.0..1.0).contains(&p) {
        return Err(err(format!(
            "{what} probability must be in [0, 1), got `{s}`"
        )));
    }
    Ok(p)
}

/// Parses a fault-plan specification such as `drop=0.05,dup=0.02,crash=2`.
///
/// `n` is the network size; `crash=N` spreads `N` crash/restart events
/// evenly over the nodes and the run. Probabilities must lie in `[0, 1)`
/// (the paper's link model: any loss rate strictly below one).
///
/// # Errors
///
/// Returns [`ParseSpecError`] with the offending fragment.
///
/// # Example
///
/// ```
/// let plan = ard_cli::spec::parse_faults("drop=0.1,crash=2,seed=7", 16).unwrap();
/// assert_eq!(plan.crashes.len(), 2);
/// assert!(ard_cli::spec::parse_faults("drop=1.5", 16).is_err());
/// ```
pub fn parse_faults(spec: &str, n: usize) -> Result<FaultPlan, ParseSpecError> {
    let (mut drop, mut dup, mut crash, mut seed) = (0.0, 0.0, 0usize, 0u64);
    for (k, v) in parse_kv(spec)? {
        match k {
            "drop" => drop = parse_prob(v, "drop")?,
            "dup" => dup = parse_prob(v, "dup")?,
            "crash" => crash = parse_num(v, "crash")?,
            "seed" => seed = parse_num(v, "seed")?,
            other => {
                return Err(err(format!(
                    "unknown fault key `{other}` (drop, dup, crash, seed)"
                )))
            }
        }
    }
    if crash > 0 && n == 0 {
        return Err(err("crash needs a non-empty network"));
    }
    Ok(FaultPlan::new(seed)
        .with_drop(drop)
        .with_dup(dup)
        .with_spread_crashes(crash, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_parse() {
        assert_eq!(parse_topology("path:5").unwrap().len(), 5);
        assert_eq!(parse_topology("ring:6").unwrap().edge_count(), 6);
        assert_eq!(parse_topology("tree:3").unwrap().len(), 7);
        assert_eq!(parse_topology("COMPLETE:4").unwrap().edge_count(), 12);
        assert_eq!(parse_topology("star-in:9").unwrap().len(), 9);
        let g = parse_topology("random:n=20,extra=10,seed=3").unwrap();
        assert_eq!(g.len(), 20);
        assert_eq!(g.edge_count(), 29);
        let g = parse_topology("components:count=2,per=5").unwrap();
        assert_eq!(g.len(), 10);
    }

    #[test]
    fn topology_errors_are_descriptive() {
        assert!(parse_topology("random:extra=5")
            .unwrap_err()
            .0
            .contains("needs n="));
        assert!(parse_topology("path:x")
            .unwrap_err()
            .0
            .contains("not a number"));
        assert!(parse_topology("nope:1")
            .unwrap_err()
            .0
            .contains("unknown topology"));
        assert!(parse_topology("random:n=5,bogus=1")
            .unwrap_err()
            .0
            .contains("unknown random-graph key"));
        assert!(parse_topology("tree:0").is_err());
    }

    #[test]
    fn tiny_topologies_parse_or_fail_without_panicking() {
        for size in 0..=3 {
            for spec in [
                format!("path:{size}"),
                format!("ring:{size}"),
                format!("star-in:{size}"),
                format!("star-out:{size}"),
                format!("complete:{size}"),
                format!("tree:{size}"),
                format!("random:n={size},extra={size}"),
                format!("components:count={size},per={size}"),
            ] {
                let parsed = std::panic::catch_unwind(|| parse_topology(&spec).map(|g| g.len()));
                assert!(parsed.is_ok(), "`{spec}` panicked");
            }
        }
        for spec in ["ring:0", "ring:1"] {
            assert_eq!(parse_topology(spec).unwrap_err().0, "ring size must be ≥ 2");
        }
    }

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

    #[test]
    fn faults_parse() {
        let plan = parse_faults("drop=0.1,dup=0.05,crash=3,seed=9", 12).unwrap();
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.dup, 0.05);
        assert_eq!(plan.crashes.len(), 3);
        assert_eq!(plan.seed, 9);
        assert!(parse_faults("drop=0.2", 8).unwrap().crashes.is_empty());
        assert!(parse_faults("", 8).unwrap().is_vacuous());
    }

    #[test]
    fn fault_errors_are_descriptive() {
        assert!(parse_faults("drop=1.0", 8)
            .unwrap_err()
            .0
            .contains("must be in [0, 1)"));
        assert!(parse_faults("dup=-0.1", 8).is_err());
        assert!(parse_faults("drop=x", 8)
            .unwrap_err()
            .0
            .contains("not a probability"));
        assert!(parse_faults("mangle=0.5", 8)
            .unwrap_err()
            .0
            .contains("unknown fault key"));
        assert!(parse_faults("crash=1", 0).is_err());
    }

    #[test]
    fn variants_parse() {
        assert_eq!(parse_variant("adhoc").unwrap(), Variant::AdHoc);
        assert_eq!(parse_variant("AD-HOC").unwrap(), Variant::AdHoc);
        assert_eq!(parse_variant("generic").unwrap(), Variant::Oblivious);
        assert_eq!(parse_variant("bounded").unwrap(), Variant::Bounded);
        assert!(parse_variant("x").is_err());
    }
}
