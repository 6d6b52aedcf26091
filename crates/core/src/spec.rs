//! A run's description, stated once: a knowledge graph, a problem variant
//! and the plans the run is subjected to ([`RunSpec`]). The delivery order
//! is not part of it: a recording's choices *are* the schedule. Grammar
//! (topology kinds and variant names are case-insensitive):
//!
//! ```text
//! topology  := path:N | ring:N | star-in:N | star-out:N | complete:N
//!            | tree:LEVELS | random:n=N,extra=M[,seed=S]
//!            | components:count=C,per=P[,extra=M][,seed=S]
//! variant   := oblivious | bounded | adhoc
//! faults    := drop=P | dup=P | crash=N | seed=S   (comma-separated)
//! byzantine := f=K[,seed=S][,class=C]   (C: equivocate, fabricate,
//!              silence, stale-restart or all; classes=C+C+… also)
//! churn     := rate=R[,seed=S]
//! ```
//!
//! [`parse_plans`] reads `ard`'s `--faults`, `--byzantine` and `--churn`
//! values into one [`Plans`] bundle. [`RunSpec::stamp`] writes a
//! recording's `topology`, `variant`, `faults`, `byzantine` and `churn`
//! metadata, each plan in the spelling its parser reads back (and every
//! `ard` report prints: [`faults_meta`], [`byzantine_meta`],
//! [`churn_meta`]), and [`RunSpec::from_schedule`] is their one reader.
//! Both readers share one check: link faults beside a Byzantine or churn
//! plan are [`ParseSpecError::FaultsUnderAdversary`], on the command line
//! and in a schedule alike. The recorded choices carry every injected
//! event, so the plans only say which network a replay builds: the layer
//! (a `faults` plan puts every node inside [`Reliable`](crate::Reliable)),
//! the withheld churn wake-ups and the traitors the survivor guarantees
//! exclude.

use std::fmt;
use std::str::FromStr;

use ard_graph::{gen, KnowledgeGraph};
use ard_netsim::{ByzantinePlan, ChurnPlan, FaultPlan, Plans, Schedule};

use crate::Variant;

/// Why a run's description does not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseSpecError {
    /// A value outside its grammar, with what is wrong with it.
    Invalid(String),
    /// Link faults together with a Byzantine or churn plan: those run the
    /// bare protocol, which cannot absorb link faults.
    FaultsUnderAdversary,
    /// A schedule without a metadata key every run has.
    MissingMeta(&'static str),
    /// A schedule whose plan metadata (this key) is outside its grammar.
    Meta(&'static str, String),
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::Invalid(reason) => write!(f, "invalid specification: {reason}"),
            ParseSpecError::FaultsUnderAdversary => f.write_str(
                "--byzantine/--churn run the bare protocol (no reliable-delivery layer), \
                 which cannot absorb link faults: drop --faults",
            ),
            ParseSpecError::MissingMeta(key) => write!(f, "schedule has no `{key}` meta"),
            ParseSpecError::Meta(key, reason) => write!(f, "schedule meta `{key}`: {reason}"),
        }
    }
}

impl std::error::Error for ParseSpecError {}

fn invalid(reason: impl Into<String>) -> ParseSpecError {
    ParseSpecError::Invalid(reason.into())
}

/// Parses a number, naming `what` it is when it is not one.
pub fn number<T: FromStr>(value: &str, what: &str) -> Result<T, ParseSpecError> {
    value
        .parse()
        .map_err(|_| invalid(format!("{what}: `{value}` is not a number")))
}

/// Splits `key=value,key=value` into pairs, skipping empty parts.
fn pairs(spec: &str) -> Result<Vec<(&str, &str)>, ParseSpecError> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.split_once('=')
                .ok_or_else(|| invalid(format!("expected key=value, got `{part}`")))
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
/// let g = ard_core::spec::parse_topology("random:n=32,extra=64,seed=5").unwrap();
/// assert_eq!(g.len(), 32);
/// assert!(ard_core::spec::parse_topology("blob:77").is_err());
/// ```
pub fn parse_topology(spec: &str) -> Result<KnowledgeGraph, ParseSpecError> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind.to_ascii_lowercase().as_str() {
        "path" => Ok(gen::path(number(rest, "path size")?)),
        "ring" => {
            let n = number(rest, "ring size")?;
            if n < 2 {
                return Err(invalid("ring size must be ≥ 2"));
            }
            Ok(gen::ring(n))
        }
        "star-in" => Ok(gen::star_in(number(rest, "star size")?)),
        "star-out" => Ok(gen::star_out(number(rest, "star size")?)),
        "complete" => Ok(gen::complete(number(rest, "clique size")?)),
        "tree" => {
            let levels: usize = number(rest, "tree levels")?;
            if levels == 0 || levels > 24 {
                return Err(invalid("tree levels must be in 1..=24"));
            }
            Ok(gen::binary_tree_down(levels as u32))
        }
        "random" => {
            let (mut n, mut extra, mut seed) = (None, 0, 0);
            for (key, value) in pairs(rest)? {
                match key {
                    "n" => n = Some(number(value, "n")?),
                    "extra" => extra = number(value, "extra")?,
                    "seed" => seed = number(value, "seed")?,
                    other => return Err(invalid(format!("unknown random-graph key `{other}`"))),
                }
            }
            let n = n.ok_or_else(|| invalid("random needs n=<size>"))?;
            Ok(gen::random_weakly_connected(n, extra, seed))
        }
        "components" => {
            let (mut count, mut per, mut extra, mut seed) = (None, None, 0, 0);
            for (key, value) in pairs(rest)? {
                match key {
                    "count" => count = Some(number(value, "count")?),
                    "per" => per = Some(number(value, "per")?),
                    "extra" => extra = number(value, "extra")?,
                    "seed" => seed = number(value, "seed")?,
                    other => return Err(invalid(format!("unknown components key `{other}`"))),
                }
            }
            let count = count.ok_or_else(|| invalid("components needs count=<k>"))?;
            let per = per.ok_or_else(|| invalid("components needs per=<size>"))?;
            Ok(gen::random_multi_component(count, per, extra, seed))
        }
        other => Err(invalid(format!(
            "unknown topology `{other}` (try path:N, ring:N, star-in:N, star-out:N, complete:N, tree:LEVELS, random:n=..,extra=.., components:count=..,per=..)"
        ))),
    }
}

/// Parses a problem-variant name; [`Variant`]'s `Display` spelling
/// (`ad-hoc`) is one of them.
///
/// # Errors
///
/// Returns [`ParseSpecError`] for unknown names.
pub fn parse_variant(spec: &str) -> Result<Variant, ParseSpecError> {
    match spec.to_ascii_lowercase().as_str() {
        "oblivious" | "generic" => Ok(Variant::Oblivious),
        "bounded" => Ok(Variant::Bounded),
        "adhoc" | "ad-hoc" => Ok(Variant::AdHoc),
        other => Err(invalid(format!(
            "unknown variant `{other}` (oblivious, bounded, adhoc)"
        ))),
    }
}

fn probability(value: &str, what: &str) -> Result<f64, ParseSpecError> {
    match value.parse() {
        Ok(p) if (0.0..1.0).contains(&p) => Ok(p),
        Ok(_) => Err(invalid(format!(
            "{what} probability must be in [0, 1), got `{value}`"
        ))),
        Err(_) => Err(invalid(format!("{what}: `{value}` is not a probability"))),
    }
}

/// Parses a fault-plan specification such as `drop=0.05,dup=0.02,crash=2`,
/// and so what [`faults_meta`] writes.
///
/// `n` is the network size; `crash=N` spreads `N` crash/restart events
/// over the nodes and the run ([`FaultPlan::with_spread_crashes`]).
/// Probabilities must lie in `[0, 1)` (the paper's link model: any loss
/// rate strictly below one).
///
/// # Errors
///
/// Returns [`ParseSpecError`] with the offending fragment.
///
/// # Example
///
/// ```
/// let plan = ard_core::spec::parse_faults("drop=0.1,crash=2,seed=7", 16).unwrap();
/// assert_eq!(plan.crashes.len(), 2);
/// assert!(ard_core::spec::parse_faults("drop=1.5", 16).is_err());
/// ```
pub fn parse_faults(spec: &str, n: usize) -> Result<FaultPlan, ParseSpecError> {
    let (mut drop, mut dup, mut crash, mut seed) = (0.0, 0.0, 0usize, 0u64);
    for (key, value) in pairs(spec)? {
        match key {
            "drop" => drop = probability(value, "drop")?,
            "dup" => dup = probability(value, "dup")?,
            "crash" => crash = number(value, "crash")?,
            "seed" => seed = number(value, "seed")?,
            other => {
                return Err(invalid(format!(
                    "unknown fault key `{other}` (drop, dup, crash, seed)"
                )))
            }
        }
    }
    if crash > 0 && n == 0 {
        return Err(invalid("crash needs a non-empty network"));
    }
    Ok(FaultPlan::new(seed)
        .with_drop(drop)
        .with_dup(dup)
        .with_spread_crashes(crash, n))
}

/// The Byzantine fault classes, in [`byzantine_meta`]'s order.
const CLASSES: [&str; 4] = ["equivocate", "fabricate", "silence", "stale-restart"];

/// Parses `f=K[,seed=S][,class=C]` (`C` may be `all`), and so what
/// [`byzantine_meta`] writes (`classes=a+b+…`). `f` is required, `seed`
/// defaults to 0, and without a class restriction every fault class is
/// armed.
///
/// # Errors
///
/// Describes the offending fragment.
pub fn parse_byzantine(spec: &str) -> Result<ByzantinePlan, ParseSpecError> {
    let (mut f, mut seed, mut classes) = (None, 0u64, None);
    for (key, value) in pairs(spec)? {
        match key {
            "f" => f = Some(number(value, "f")?),
            "seed" => seed = number(value, "seed")?,
            "class" | "classes" => classes = Some(value),
            other => {
                return Err(invalid(format!(
                    "unknown byzantine key `{other}` (f, seed, class)"
                )))
            }
        }
    }
    let all = ByzantinePlan::new(seed, f.ok_or_else(|| invalid("byzantine needs f=<count>"))?);
    let Some(classes) = classes.map(|c| c.split('+').collect::<Vec<_>>()) else {
        return Ok(all);
    };
    if let Some(other) = classes
        .iter()
        .find(|c| **c != "all" && !CLASSES.contains(c))
    {
        return Err(invalid(format!(
            "unknown byzantine class `{other}` (equivocate, fabricate, silence, stale-restart, all)"
        )));
    }
    let on = |class| classes.contains(&"all") || classes.contains(&class);
    Ok(ByzantinePlan {
        equivocate: on("equivocate"),
        fabricate: on("fabricate"),
        silence: on("silence"),
        stale_restart: on("stale-restart"),
        ..all
    })
}

/// Parses `rate=R[,seed=S]` with `0 ≤ R ≤ 0.5`, and so what [`churn_meta`]
/// writes.
///
/// # Errors
///
/// Describes the offending fragment.
pub fn parse_churn(spec: &str) -> Result<ChurnPlan, ParseSpecError> {
    let (mut rate, mut seed) = (None, 0u64);
    for (key, value) in pairs(spec)? {
        match key {
            "rate" => rate = Some(number::<f64>(value, "rate")?),
            "seed" => seed = number(value, "seed")?,
            other => return Err(invalid(format!("unknown churn key `{other}` (rate, seed)"))),
        }
    }
    let rate = rate.ok_or_else(|| invalid("churn needs rate=<fraction>"))?;
    if !(0.0..=0.5).contains(&rate) {
        return Err(invalid(format!(
            "churn rate must be in [0, 0.5] (joiners and leavers are disjoint), got `{rate}`"
        )));
    }
    Ok(ChurnPlan::new(seed, rate))
}

/// A fault plan in the spelling [`parse_faults`] reads back: a plan built
/// by it with the same `n` round-trips exactly (the crash count is
/// re-spread).
pub fn faults_meta(plan: &FaultPlan) -> String {
    let (drop, dup, crash, seed) = (plan.drop, plan.dup, plan.crashes.len(), plan.seed);
    format!("drop={drop},dup={dup},crash={crash},seed={seed}")
}

/// A Byzantine plan in the spelling [`parse_byzantine`] reads back.
pub fn byzantine_meta(plan: &ByzantinePlan) -> String {
    let p = plan;
    let on = [p.equivocate, p.fabricate, p.silence, p.stale_restart];
    let classes: Vec<&str> = (0..4).filter(|&i| on[i]).map(|i| CLASSES[i]).collect();
    let (f, seed, classes) = (p.f, p.seed, classes.join("+"));
    format!("f={f},seed={seed},classes={classes}")
}

/// A churn plan in the spelling [`parse_churn`] reads back.
pub fn churn_meta(plan: &ChurnPlan) -> String {
    format!("rate={},seed={}", plan.rate, plan.seed)
}

/// The plans of an `n`-node system from `ard`'s `--faults`, `--byzantine`
/// and `--churn` values (`None`: no such plan).
///
/// # Errors
///
/// Returns [`ParseSpecError`] for a value outside its grammar, or
/// [`ParseSpecError::FaultsUnderAdversary`] for link faults beside a
/// Byzantine or churn plan.
pub fn parse_plans(
    faults: Option<&str>,
    byzantine: Option<&str>,
    churn: Option<&str>,
    n: usize,
) -> Result<Plans, ParseSpecError> {
    exclusive(Plans {
        faults: faults.map(|spec| parse_faults(spec, n)).transpose()?,
        byzantine: byzantine.map(parse_byzantine).transpose()?,
        churn: churn.map(parse_churn).transpose()?,
    })
}

/// `plans`, unless they put link faults beside a Byzantine or churn plan:
/// those run the bare protocol, which cannot absorb link faults, so no
/// run has both.
fn exclusive(plans: Plans) -> Result<Plans, ParseSpecError> {
    if plans.faults.is_some() && (plans.byzantine.is_some() || plans.churn.is_some()) {
        return Err(ParseSpecError::FaultsUnderAdversary);
    }
    Ok(plans)
}

/// One discovery run as the paper poses it: an initial knowledge graph, a
/// problem variant and the plans the run is subjected to.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// The initial knowledge graph, in the topology grammar.
    pub topology: String,
    /// The problem variant.
    pub variant: Variant,
    /// The plans, built for the graph's node count.
    pub plans: Plans,
}

impl RunSpec {
    /// Writes the run into a schedule's metadata: `topology`, `variant`
    /// and one entry per attached plan, each in the spelling
    /// [`from_schedule`](RunSpec::from_schedule) reads back.
    pub fn stamp(&self, schedule: &mut Schedule) {
        schedule.set_meta("topology", self.topology.clone());
        schedule.set_meta("variant", self.variant.to_string());
        if let Some(plan) = &self.plans.faults {
            schedule.set_meta("faults", faults_meta(plan));
        }
        if let Some(plan) = &self.plans.byzantine {
            schedule.set_meta("byzantine", byzantine_meta(plan));
        }
        if let Some(plan) = &self.plans.churn {
            schedule.set_meta("churn", churn_meta(plan));
        }
    }

    /// Reads back what [`stamp`](RunSpec::stamp) wrote, with the graph the
    /// topology describes (parsed once, here). A malformed plan fails by
    /// its key ([`ParseSpecError::Meta`]), never reads as "no plan", and
    /// link faults beside a Byzantine or churn plan fail as they do on the
    /// command line ([`ParseSpecError::FaultsUnderAdversary`]).
    pub fn from_schedule(schedule: &Schedule) -> Result<(RunSpec, KnowledgeGraph), ParseSpecError> {
        let required = |key| schedule.meta(key).ok_or(ParseSpecError::MissingMeta(key));
        let topology = required("topology")?;
        let variant = parse_variant(required("variant")?)?;
        let graph = parse_topology(topology)?;
        let faults = |meta| parse_faults(meta, graph.len());
        let plans = exclusive(Plans {
            faults: (schedule.meta("faults").map(faults).transpose()).map_err(in_meta("faults"))?,
            byzantine: (schedule.meta("byzantine").map(parse_byzantine).transpose())
                .map_err(in_meta("byzantine"))?,
            churn: (schedule.meta("churn").map(parse_churn).transpose())
                .map_err(in_meta("churn"))?,
        })?;
        let spec = RunSpec {
            topology: topology.to_string(),
            variant,
            plans,
        };
        Ok((spec, graph))
    }
}

/// Names the metadata `key` in a grammar error.
fn in_meta(key: &'static str) -> impl Fn(ParseSpecError) -> ParseSpecError {
    move |e| match e {
        ParseSpecError::Invalid(reason) => ParseSpecError::Meta(key, reason),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn error<T: fmt::Debug>(parsed: Result<T, ParseSpecError>) -> String {
        parsed.unwrap_err().to_string()
    }

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
        assert!(error(parse_topology("random:extra=5")).contains("needs n="));
        assert!(error(parse_topology("path:x")).contains("not a number"));
        assert!(error(parse_topology("nope:1")).contains("unknown topology"));
        assert!(error(parse_topology("random:n=5,bogus=1")).contains("unknown random-graph key"));
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
            assert_eq!(
                parse_topology(spec).unwrap_err(),
                invalid("ring size must be ≥ 2")
            );
        }
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
        assert!(error(parse_faults("drop=1.0", 8)).contains("must be in [0, 1)"));
        assert!(parse_faults("dup=-0.1", 8).is_err());
        assert!(error(parse_faults("drop=x", 8)).contains("not a probability"));
        assert!(error(parse_faults("mangle=0.5", 8)).contains("unknown fault key"));
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

    #[test]
    fn byzantine_specs_parse_with_their_defaults() {
        let plan = ByzantinePlan::new(13, 3).only("silence");
        assert_eq!(parse_byzantine(&byzantine_meta(&plan)).unwrap(), plan);
        assert_eq!(
            parse_byzantine("f=2,seed=7").unwrap(),
            ByzantinePlan::new(7, 2)
        );
        let plan = parse_byzantine("f=1,seed=3,class=equivocate").unwrap();
        assert!(plan.equivocate && !plan.fabricate && !plan.silence && !plan.stale_restart);
        let plan = parse_byzantine("f=2,seed=7,classes=silence+stale-restart").unwrap();
        assert!(!plan.equivocate && !plan.fabricate && plan.silence && plan.stale_restart);
        assert_eq!(
            parse_byzantine("f=1,classes=all").unwrap(),
            ByzantinePlan::new(0, 1)
        );
    }

    #[test]
    fn byzantine_errors_are_descriptive() {
        assert!(error(parse_byzantine("seed=3")).contains("needs f="));
        assert!(error(parse_byzantine("f=1,class=sneaky")).contains("unknown byzantine class"));
        assert!(error(parse_byzantine("f=1,mode=loud")).contains("unknown byzantine key"));
        assert!(error(parse_byzantine("garbage")).contains("expected key=value"));
    }

    #[test]
    fn churn_specs_parse_with_their_defaults() {
        let plan = ChurnPlan::new(5, 0.25);
        assert_eq!(parse_churn(&churn_meta(&plan)).unwrap(), plan);
        assert_eq!(parse_churn("rate=0").unwrap().seed, 0);
        assert!(error(parse_churn("seed=5")).contains("needs rate="));
        assert!(error(parse_churn("rate=0.7")).contains("must be in [0, 0.5]"));
        assert!(error(parse_churn("rate=0.1,burst=2")).contains("unknown churn key"));
    }

    #[test]
    fn from_schedule_names_what_is_missing_or_malformed() {
        let mut schedule = Schedule::new(Vec::new());
        let missing = RunSpec::from_schedule(&schedule).unwrap_err();
        assert_eq!(missing, ParseSpecError::MissingMeta("topology"));
        schedule.set_meta("topology", "ring:4");
        let missing = RunSpec::from_schedule(&schedule).unwrap_err();
        assert_eq!(missing.to_string(), "schedule has no `variant` meta");
        schedule.set_meta("variant", "ad-hoc");
        schedule.set_meta("faults", "drop=0.1,dup=0,crash=1,seed=1");
        let (spec, graph) = RunSpec::from_schedule(&schedule).unwrap();
        assert!(spec.plans.reliable() && spec.plans.churn.is_none());
        assert_eq!(
            spec.plans.faults,
            Some(parse_faults("crash=1,drop=0.1,seed=1", 4).unwrap())
        );
        assert_eq!(graph.len(), 4);
        for (key, value, why) in [
            ("faults", "drop=lots", "not a probability"),
            ("churn", "rate=lots", "not a number"),
            ("byzantine", "seed=3", "needs f="),
        ] {
            let mut damaged = schedule.clone();
            damaged.set_meta(key, value);
            let err = RunSpec::from_schedule(&damaged).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("schedule meta `{key}`: ")),
                "{err}"
            );
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn from_schedule_rejects_link_faults_under_an_adversary() {
        let mut schedule = Schedule::new(Vec::new());
        schedule.set_meta("topology", "ring:6");
        schedule.set_meta("variant", "ad-hoc");
        schedule.set_meta("faults", "drop=0.1,dup=0,crash=0,seed=1");
        schedule.set_meta("churn", "rate=0.2,seed=1");
        let both = RunSpec::from_schedule(&schedule).unwrap_err();
        assert_eq!(both, ParseSpecError::FaultsUnderAdversary);
        schedule.set_meta("byzantine", "f=1,seed=2");
        let all = RunSpec::from_schedule(&schedule).unwrap_err();
        assert_eq!(all, ParseSpecError::FaultsUnderAdversary);
    }

    #[test]
    fn cli_plans_exclude_link_faults_under_an_adversary() {
        let plans = parse_plans(Some("drop=0.1"), None, None, 4).unwrap();
        assert!(plans.reliable() && plans.byzantine.is_none());
        let both = parse_plans(Some("drop=0.1"), None, Some("rate=0.1"), 4);
        assert_eq!(both.unwrap_err(), ParseSpecError::FaultsUnderAdversary);
        let bad = parse_plans(None, Some("f=1,class=x"), None, 4).unwrap_err();
        assert!(bad
            .to_string()
            .starts_with("invalid specification: unknown byzantine class"));
    }

    /// Every topology arm at a small size, in the spelling `stamp` writes.
    fn topology() -> impl Strategy<Value = String> {
        let sized = prop_oneof![
            Just("path"),
            Just("ring"),
            Just("star-in"),
            Just("star-out"),
            Just("complete")
        ];
        prop_oneof![
            (sized, 2usize..10).prop_map(|(kind, n)| format!("{kind}:{n}")),
            (1usize..5).prop_map(|levels| format!("tree:{levels}")),
            (1usize..12, 0usize..20, 0u64..1_000)
                .prop_map(|(n, extra, seed)| format!("random:n={n},extra={extra},seed={seed}")),
            (1usize..4, 1usize..5, 0usize..6, 0u64..1_000).prop_map(|(count, per, extra, seed)| {
                format!("components:count={count},per={per},extra={extra},seed={seed}")
            }),
        ]
    }

    fn variant() -> impl Strategy<Value = Variant> {
        prop_oneof![
            Just(Variant::Oblivious),
            Just(Variant::Bounded),
            Just(Variant::AdHoc)
        ]
    }

    /// Which plans a drawn spec carries: none, a spread fault plan,
    /// traitors with a non-empty class subset, churn, or traitors and
    /// churn; with every plan's parameters.
    #[derive(Clone, Debug)]
    struct PlanDraw {
        which: u8,
        faults: (u32, u32, usize, u64),
        byzantine: (u64, usize, u8),
        churn: (u64, u32),
    }

    fn plan_draw() -> impl Strategy<Value = PlanDraw> {
        let faults = (0u32..100, 0u32..1_000, 0usize..4, 0u64..1_000);
        let byzantine = (0u64..1_000, 0usize..4, 1u8..16);
        let churn = (0u64..1_000, 0u32..51);
        (0u8..5, faults, byzantine, churn).prop_map(|(which, faults, byzantine, churn)| PlanDraw {
            which,
            faults,
            byzantine,
            churn,
        })
    }

    impl PlanDraw {
        /// The plans for an `n`-node network.
        fn plans(&self, n: usize) -> Plans {
            let (drop, dup, crash, seed) = self.faults;
            let faults = FaultPlan::new(seed)
                .with_drop(f64::from(drop) / 100.0)
                .with_dup(f64::from(dup) / 1_000.0)
                .with_spread_crashes(crash, n);
            let (seed, f, classes) = self.byzantine;
            let byzantine = ByzantinePlan {
                equivocate: classes & 1 != 0,
                fabricate: classes & 2 != 0,
                silence: classes & 4 != 0,
                stale_restart: classes & 8 != 0,
                ..ByzantinePlan::new(seed, f)
            };
            let churn = ChurnPlan::new(self.churn.0, f64::from(self.churn.1) / 100.0);
            Plans {
                faults: (self.which == 1).then_some(faults),
                byzantine: matches!(self.which, 2 | 4).then_some(byzantine),
                churn: matches!(self.which, 3 | 4).then_some(churn),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_schedule` reads back exactly what `stamp` wrote.
        #[test]
        fn a_stamped_spec_reads_back_as_itself(
            topology in topology(),
            variant in variant(),
            draw in plan_draw(),
        ) {
            let n = parse_topology(&topology).expect("the strategy writes the grammar").len();
            let spec = RunSpec { plans: draw.plans(n), topology, variant };
            let mut schedule = Schedule::new(Vec::new());
            spec.stamp(&mut schedule);
            let (back, graph) = RunSpec::from_schedule(&schedule).expect("stamped metadata parses");
            prop_assert_eq!(&back, &spec);
            prop_assert!(graph == parse_topology(&spec.topology).unwrap());
        }
    }
}
