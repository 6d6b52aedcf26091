//! The adversary a discovery run is subjected to, as the driver sees it.
//!
//! [`Plans`] bundles the three plan kinds of [`ard_netsim::fault`]: link
//! and crash faults ([`FaultPlan`]), Byzantine traitors
//! ([`ByzantinePlan`]: equivocation, fabricated ids, selective silence,
//! stale restarts) and join/leave membership churn ([`ChurnPlan`],
//! extending the paper's §6 dynamic-additions model with departures). A
//! [`DiscoveryOn`](crate::DiscoveryOn) network built
//! [`under`](crate::DiscoveryOn::under) a `Plans` derives everything
//! plan-dependent from it in one place: the node configuration, whose
//! initial wake-ups to withhold, whom to exclude from the survivor
//! guarantees, the fault-injecting scheduler of a recorded run and the
//! schedule metadata a replay reconstructs all of that from.
//!
//! Link faults need the [`Reliable`](crate::Reliable) layer to be
//! survivable; Byzantine and churn plans run on the **bare** protocol.
//! Reliable delivery cannot defend against forged content (the envelope
//! would dutifully ack a lie), and the silence class is precisely a
//! targeted loss the paper's model does not cover; wrapping would only
//! measure the envelope, not the protocol.
//!
//! Every injected event is recorded as an explicit choice, so a replay
//! needs **no fault machinery and no randomness**: the schedule metadata
//! written by [`Plans::stamp`] only tells it which network to rebuild
//! (`faults` present → reliable layer) and which wakes and survivors the
//! `byzantine`/`churn` plans single out.

use std::collections::BTreeSet;

use ard_netsim::{
    ByzantinePlan, ChurnPlan, FaultPlan, FaultScheduler, NodeId, Schedule, Scheduler,
};

use crate::Config;

/// The plans a run is subjected to; all absent for an honest run.
#[derive(Clone, Debug, Default)]
pub struct Plans {
    /// Lossy/duplicating links and crash/restart events.
    pub faults: Option<FaultPlan>,
    /// Seeded Byzantine nodes.
    pub byzantine: Option<ByzantinePlan>,
    /// Join/leave membership churn.
    pub churn: Option<ChurnPlan>,
}

impl Plans {
    /// Whether no plan is attached.
    pub fn is_empty(&self) -> bool {
        self.faults.is_none() && self.byzantine.is_none() && self.churn.is_none()
    }

    /// Whether a run under these plans needs every node inside the
    /// [`Reliable`](crate::Reliable) envelope: link faults are survivable
    /// only over the reliable-delivery layer.
    pub fn reliable(&self) -> bool {
        self.faults.is_some()
    }

    /// The node configuration these plans call for: the paper's, hardened
    /// with [`Config::byzantine`] under a Byzantine or churn plan so forged
    /// "impossible" messages are dropped instead of tripping the honest-run
    /// asserts.
    pub(crate) fn config(&self) -> Config {
        if self.byzantine.is_some() || self.churn.is_some() {
            Config::byzantine()
        } else {
            Config::paper()
        }
    }

    /// Wraps `inner` in the scheduler that injects these plans into an
    /// `n`-node run (transparent when no plan is attached).
    pub fn scheduler<S: Scheduler>(&self, inner: S, n: usize) -> FaultScheduler<S> {
        FaultScheduler::new(inner, self.faults.clone())
            .with_byzantine(self.byzantine.clone(), n)
            .with_churn(self.churn.clone(), n)
    }

    /// The churn joiners: their initial wake-ups are withheld, they come
    /// online through the plan's `Join` events (§6's "joining = waking").
    pub(crate) fn withheld(&self, n: usize) -> BTreeSet<NodeId> {
        self.churn
            .iter()
            .flat_map(|c| c.joiners(n))
            .collect()
    }

    /// Writes one metadata entry per attached plan.
    pub fn stamp(&self, schedule: &mut Schedule) {
        if let Some(plan) = &self.faults {
            schedule.set_meta("faults", faults_meta(plan));
        }
        if let Some(plan) = &self.byzantine {
            schedule.set_meta("byzantine", byzantine_meta(plan));
        }
        if let Some(plan) = &self.churn {
            schedule.set_meta("churn", churn_meta(plan));
        }
    }

    /// Reconstructs from a schedule's metadata the network it was recorded
    /// on: whether on the reliable layer (the `faults` key is present) and
    /// the `byzantine` and `churn` plans, which say whose wakes to withhold
    /// and whom the survivor guarantees exclude. The `faults` value is not
    /// parsed back: the recorded choices already carry every injected
    /// fault.
    ///
    /// # Errors
    ///
    /// Names the metadata key whose value does not parse — a malformed
    /// plan must not silently replay as "no plan".
    pub fn from_schedule(schedule: &Schedule) -> Result<(bool, Plans), String> {
        fn entry<T>(
            schedule: &Schedule,
            key: &str,
            parse: fn(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            schedule
                .meta(key)
                .map(parse)
                .transpose()
                .map_err(|e| format!("schedule meta `{key}`: {e}"))
        }
        let plans = Plans {
            faults: None,
            byzantine: entry(schedule, "byzantine", parse_byzantine_meta)?,
            churn: entry(schedule, "churn", parse_churn_meta)?,
        };
        Ok((schedule.meta("faults").is_some(), plans))
    }
}

/// Canonical `faults` metadata value: presence of the key tells a replayer
/// to build the reliable-wrapped network; the value documents the plan for
/// humans and regeneration scripts.
pub fn faults_meta(plan: &FaultPlan) -> String {
    format!(
        "drop={},dup={},crash={},seed={}",
        plan.drop,
        plan.dup,
        plan.crashes.len(),
        plan.seed
    )
}

/// Canonical `byzantine` metadata value: `f` and `seed` let a replayer
/// reconstruct the Byzantine node set; the class list documents the plan
/// for humans and regeneration scripts.
pub fn byzantine_meta(plan: &ByzantinePlan) -> String {
    let classes: Vec<&str> = [
        (plan.equivocate, "equivocate"),
        (plan.fabricate, "fabricate"),
        (plan.silence, "silence"),
        (plan.stale_restart, "stale-restart"),
    ]
    .into_iter()
    .filter_map(|(on, class)| on.then_some(class))
    .collect();
    format!(
        "f={},seed={},classes={}",
        plan.f,
        plan.seed,
        classes.join("+")
    )
}

/// Canonical `churn` metadata value: `rate` and `seed` fully determine the
/// joiner/leaver sets, which replay needs to withhold the right wakes.
pub fn churn_meta(plan: &ChurnPlan) -> String {
    format!("rate={},seed={}", plan.rate, plan.seed)
}

/// Splits `key=value,key=value` into pairs.
fn fields(meta: &str) -> Result<Vec<(&str, &str)>, String> {
    meta.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))
        })
        .collect()
}

fn number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what}: `{value}` is not a number"))
}

/// Parses what [`byzantine_meta`] writes — `f=K,seed=S,classes=a+b+…` —
/// and, being the one parser of the grammar, also the `ard --byzantine`
/// spelling `f=K[,seed=S][,class=C]` (`C` may be `all`). `f` is required,
/// `seed` defaults to 0, and without a class restriction every fault
/// class is armed.
///
/// # Errors
///
/// Describes the offending fragment.
pub fn parse_byzantine_meta(meta: &str) -> Result<ByzantinePlan, String> {
    let (mut f, mut seed, mut classes) = (None, 0u64, None);
    for (key, value) in fields(meta)? {
        match key {
            "f" => f = Some(number(value, "f")?),
            "seed" => seed = number(value, "seed")?,
            "class" | "classes" => classes = Some(value),
            other => return Err(format!("unknown byzantine key `{other}` (f, seed, class)")),
        }
    }
    let all = ByzantinePlan::new(seed, f.ok_or("byzantine needs f=<count>")?);
    let Some(classes) = classes else {
        return Ok(all);
    };
    let mut plan = ByzantinePlan {
        equivocate: false,
        fabricate: false,
        silence: false,
        stale_restart: false,
        ..all.clone()
    };
    for class in classes.split('+') {
        match class {
            "equivocate" => plan.equivocate = true,
            "fabricate" => plan.fabricate = true,
            "silence" => plan.silence = true,
            "stale-restart" => plan.stale_restart = true,
            "all" => plan = all.clone(),
            other => {
                return Err(format!(
                    "unknown byzantine class `{other}` (equivocate, fabricate, silence, stale-restart, all)"
                ))
            }
        }
    }
    Ok(plan)
}

/// Parses what [`churn_meta`] writes (and `ard --churn` accepts):
/// `rate=R[,seed=S]` with `0 ≤ R ≤ 0.5`.
///
/// # Errors
///
/// Describes the offending fragment.
pub fn parse_churn_meta(meta: &str) -> Result<ChurnPlan, String> {
    let (mut rate, mut seed) = (None, 0u64);
    for (key, value) in fields(meta)? {
        match key {
            "rate" => rate = Some(number::<f64>(value, "rate")?),
            "seed" => seed = number(value, "seed")?,
            other => return Err(format!("unknown churn key `{other}` (rate, seed)")),
        }
    }
    let rate = rate.ok_or("churn needs rate=<fraction>")?;
    if !(0.0..=0.5).contains(&rate) {
        return Err(format!(
            "churn rate must be in [0, 0.5] (joiners and leavers are disjoint), got `{rate}`"
        ));
    }
    Ok(ChurnPlan::new(seed, rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_meta_round_trips_through_its_parser() {
        let plan = ByzantinePlan::new(13, 3).only("silence");
        assert_eq!(parse_byzantine_meta(&byzantine_meta(&plan)).unwrap(), plan);
        let plan = parse_byzantine_meta("f=2,seed=7").unwrap();
        assert_eq!(plan, ByzantinePlan::new(7, 2));
        let plan = parse_byzantine_meta("f=1,seed=3,class=equivocate").unwrap();
        assert!(plan.equivocate && !plan.fabricate && !plan.silence && !plan.stale_restart);
        let plan = parse_byzantine_meta("f=2,seed=7,classes=silence+stale-restart").unwrap();
        assert!(!plan.equivocate && !plan.fabricate && plan.silence && plan.stale_restart);
        assert_eq!(
            parse_byzantine_meta("f=1,classes=all").unwrap(),
            ByzantinePlan::new(0, 1)
        );
    }

    #[test]
    fn byzantine_meta_errors_are_descriptive() {
        assert!(parse_byzantine_meta("seed=3").unwrap_err().contains("needs f="));
        assert!(parse_byzantine_meta("f=1,class=sneaky")
            .unwrap_err()
            .contains("unknown byzantine class"));
        assert!(parse_byzantine_meta("f=1,mode=loud")
            .unwrap_err()
            .contains("unknown byzantine key"));
        assert!(parse_byzantine_meta("garbage")
            .unwrap_err()
            .contains("expected key=value"));
    }

    #[test]
    fn churn_meta_round_trips_through_its_parser() {
        let plan = ChurnPlan::new(5, 0.25);
        assert_eq!(parse_churn_meta(&churn_meta(&plan)).unwrap(), plan);
        assert_eq!(parse_churn_meta("rate=0").unwrap().seed, 0);
        assert!(parse_churn_meta("seed=5").unwrap_err().contains("needs rate="));
        assert!(parse_churn_meta("rate=0.7")
            .unwrap_err()
            .contains("must be in [0, 0.5]"));
        assert!(parse_churn_meta("rate=0.1,burst=2")
            .unwrap_err()
            .contains("unknown churn key"));
    }

    #[test]
    fn from_schedule_names_the_malformed_key() {
        let mut schedule = Schedule::new(Vec::new());
        let (reliable, plans) = Plans::from_schedule(&schedule).unwrap();
        assert!(!reliable && plans.is_empty());
        schedule.set_meta("faults", "drop=0.1,dup=0,crash=0,seed=1");
        schedule.set_meta("churn", "rate=0.2,seed=11");
        let (reliable, plans) = Plans::from_schedule(&schedule).unwrap();
        assert!(reliable && plans.faults.is_none() && plans.byzantine.is_none());
        assert_eq!(plans.churn, Some(ChurnPlan::new(11, 0.2)));
        schedule.set_meta("churn", "rate=lots");
        let err = Plans::from_schedule(&schedule).unwrap_err();
        assert!(err.contains("`churn`") && err.contains("not a number"), "{err}");
        schedule.set_meta("churn", "rate=0.2");
        schedule.set_meta("byzantine", "seed=3");
        let err = Plans::from_schedule(&schedule).unwrap_err();
        assert!(err.contains("`byzantine`") && err.contains("needs f="), "{err}");
    }

    #[test]
    fn only_adversarial_membership_hardens_the_nodes() {
        assert_eq!(Plans::default().config(), Config::paper());
        let lossy = Plans {
            faults: Some(FaultPlan::new(1).with_drop(0.1)),
            ..Plans::default()
        };
        assert_eq!(lossy.config(), Config::paper());
        let churned = Plans {
            churn: Some(ChurnPlan::new(1, 0.1)),
            ..Plans::default()
        };
        assert_eq!(churned.config(), Config::byzantine());
        assert_eq!(churned.withheld(20).len(), 2);
    }
}
