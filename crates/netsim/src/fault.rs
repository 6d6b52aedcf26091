//! Deterministic fault injection: seeded, policy-driven link loss,
//! duplication and node crash/restart, Byzantine traitors and join/leave
//! churn, composable with every [`Scheduler`].
//!
//! A [`FaultPlan`], a [`ByzantinePlan`] and a [`ChurnPlan`] each describe
//! *policy* (drop/duplicate probabilities and crash events; liars and
//! their forgeries; late joiners and leavers). [`Plans`] bundles the three
//! for one run, and [`Plans::scheduler`] builds the one
//! [`FaultScheduler`] that wraps any inner scheduler and turns that policy
//! into explicit fault [`Choice`]s. The discovery driver, `ard` and the
//! explorer all inject through it. Every injected fault flows through the
//! normal choice stream, so a
//! [`RecordingScheduler`](crate::record::RecordingScheduler) wrapped
//! *around* the fault scheduler captures a complete execution: replaying
//! the recorded schedule needs no fault machinery at all — the recorded
//! `Drop`/`Duplicate`/`Crash`/`Restart`/`Tick` choices (and the forgeries,
//! silences and churn events) drive the runner directly, byte-exactly,
//! and shrink like any other choices.
//!
//! # Determinism
//!
//! A message's fate (dropped? duplicated?) is drawn from a seeded RNG at
//! *send* time, in send order, so the same plan over the same run prefix
//! always faults the same sends. One documented subtlety: an injected
//! `Drop` removes the link's *oldest* in-flight message at the moment the
//! choice executes, which under backlog may differ from the send that drew
//! the unlucky number — the run is still fully deterministic, the fault is
//! simply attributed to the head of the queue.
//!
//! # Example
//!
//! ```
//! use ard_netsim::fault::{FaultPlan, FaultScheduler};
//! use ard_netsim::{FifoScheduler, NodeId, Scheduler};
//!
//! let plan = FaultPlan::new(7).with_drop(0.5);
//! let mut sched = FaultScheduler::new(FifoScheduler::new(), Some(plan));
//! sched.note_wake(NodeId::new(0));
//! assert!(sched.choose().is_some());
//! ```

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scheduler::{Choice, Footprint, Scheduler, SendToken};
use crate::NodeId;

/// A crash/restart pair: the node goes down at choice index `at` and comes
/// back `restart_after` choices later.
///
/// Crashes always pair with a restart: a permanently-dead node plus a
/// retransmitting sender is a livelock by construction, and the paper's
/// requirements are only claimed for nodes that participate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// Choice index at which the crash fires.
    pub at: u64,
    /// Choices between the crash and its restart (≥ 1).
    pub restart_after: u64,
}

/// Congruential step shared by every seeded plan generator.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Mixes a plan seed into an LCG starting state.
fn lcg_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// A seeded, declarative Byzantine-behaviour policy: which nodes lie, and
/// how.
///
/// The plan is pure policy (`f` nodes, four fault classes); concrete
/// choices are derived deterministically from the seed once the network
/// size is known — [`byzantine_nodes`](ByzantinePlan::byzantine_nodes)
/// picks the liars, `timeline` lays out their
/// forgeries and stale restarts on the choice-index axis, and the
/// [`silence`](ByzantinePlan::silence) class withholds a fraction of their
/// outgoing sends at send time. Injected through
/// [`Plans::scheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByzantinePlan {
    /// Seed deriving the Byzantine set and every forged payload.
    pub seed: u64,
    /// Number of Byzantine nodes.
    pub f: usize,
    /// Equivocation: conflicting forged payloads to different neighbors.
    pub equivocate: bool,
    /// Fabrication: forged messages carrying ids the sender never learned.
    pub fabricate: bool,
    /// Selective silence: Byzantine senders withhold some of their sends.
    pub silence: bool,
    /// Stale restart: crash followed by an amnesiac rejoin.
    pub stale_restart: bool,
}

/// Fraction of a Byzantine sender's messages withheld when the
/// [`silence`](ByzantinePlan::silence) class is active.
const SILENCE_PROB: f64 = 0.35;

impl ByzantinePlan {
    /// A plan with `f` Byzantine nodes and every fault class enabled.
    pub fn new(seed: u64, f: usize) -> Self {
        ByzantinePlan {
            seed,
            f,
            equivocate: true,
            fabricate: true,
            silence: true,
            stale_restart: true,
        }
    }

    /// Restricts the plan to a single named class.
    ///
    /// # Panics
    ///
    /// Panics on an unknown class name.
    pub fn only(mut self, class: &str) -> Self {
        self.equivocate = false;
        self.fabricate = false;
        self.silence = false;
        self.stale_restart = false;
        match class {
            "equivocate" => self.equivocate = true,
            "fabricate" => self.fabricate = true,
            "silence" => self.silence = true,
            "stale-restart" => self.stale_restart = true,
            other => panic!(
                "unknown Byzantine class `{other}` \
                 (expected equivocate, fabricate, silence or stale-restart)"
            ),
        }
        self
    }

    /// The Byzantine node set of an `n`-node network: `min(f, n)` distinct
    /// nodes derived from the seed.
    pub fn byzantine_nodes(&self, n: usize) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        if n == 0 {
            return out;
        }
        let mut x = lcg_seed(self.seed);
        while out.len() < self.f.min(n) {
            x = lcg(x);
            let node = NodeId::new(((x >> 33) as usize) % n);
            if !out.contains(&node) {
                out.push(node);
            }
        }
        out
    }

    /// The plan's forgery / stale-restart events as `(choice index,
    /// choice)` pairs, sorted by index. Every forged id is `< n`, so
    /// fabricated payloads always name addressable (if never-learned)
    /// nodes.
    pub(crate) fn timeline(&self, n: usize) -> Vec<(u64, Choice)> {
        let mut events: Vec<(u64, Choice)> = Vec::new();
        if n < 2 {
            return events;
        }
        let nodes = self.byzantine_nodes(n);
        let mut x = lcg_seed(self.seed ^ 0xB12A);
        let mut pick_other = |avoid: NodeId| -> NodeId {
            loop {
                x = lcg(x);
                let d = NodeId::new(((x >> 33) as usize) % n);
                if d != avoid || n == 1 {
                    return d;
                }
            }
        };
        let mut at = 15u64;
        for &b in &nodes {
            if self.equivocate {
                // Conflicting leadership claims (flavor 0) to two
                // different receivers.
                let d1 = pick_other(b);
                let mut d2 = pick_other(b);
                if n > 2 {
                    while d2 == d1 {
                        d2 = pick_other(b);
                    }
                }
                let phase = 2 + (at % 5) as u32;
                events.push((
                    at,
                    Choice::Forge {
                        src: b,
                        dst: d1,
                        salt: phase << 8,
                    },
                ));
                events.push((
                    at + 1,
                    Choice::Forge {
                        src: b,
                        dst: d2,
                        salt: (phase + 1) << 8,
                    },
                ));
                at += 20;
            }
            if self.fabricate {
                // A forged search naming an id the sender never learned
                // (flavor 1).
                let d = pick_other(b);
                let fake = pick_other(d);
                events.push((
                    at,
                    Choice::Forge {
                        src: b,
                        dst: d,
                        salt: ((fake.index() as u32) << 8) | 1,
                    },
                ));
                at += 20;
            }
            if self.stale_restart {
                events.push((at, Choice::Crash(b)));
                events.push((at + 10, Choice::StaleRestart(b)));
                at += 30;
            }
        }
        events.sort_by_key(|&(at, _)| at);
        events
    }
}

/// A seeded join/leave churn policy, extending the paper's dynamic
/// additions (§6, R6/Theorem 8) with permanent departures.
///
/// `rate` is the fraction of the network that joins late *and* the
/// fraction that leaves: `⌈rate·n⌉` joiners (their initial wake-ups are
/// withheld by the driver and replaced with scheduled [`Choice::Join`]s)
/// and the same number of disjoint leavers. Injected through
/// [`Plans::scheduler`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnPlan {
    /// Seed deriving joiner/leaver sets and event times.
    pub seed: u64,
    /// Fraction of nodes that join late / leave (`0.0 ≤ rate ≤ 0.5`).
    pub rate: f64,
}

impl ChurnPlan {
    /// A churn plan at the given rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ rate ≤ 0.5` (joiners and leavers are disjoint
    /// sets, so each can cover at most half the network).
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&rate),
            "churn rate {rate} must be in [0, 0.5]: joiners and leavers are disjoint"
        );
        ChurnPlan { seed, rate }
    }

    /// Number of joiners (= number of leavers) in an `n`-node network.
    fn count(&self, n: usize) -> usize {
        ((self.rate * n as f64).ceil() as usize).min(n / 2)
    }

    /// Distinct nodes derived from the seed: the first `count` are the
    /// joiners, the next `count` the leavers.
    fn picks(&self, n: usize) -> Vec<NodeId> {
        let want = 2 * self.count(n);
        let mut out: Vec<NodeId> = Vec::new();
        if n == 0 {
            return out;
        }
        let mut x = lcg_seed(self.seed);
        while out.len() < want {
            x = lcg(x);
            let node = NodeId::new(((x >> 33) as usize) % n);
            if !out.contains(&node) {
                out.push(node);
            }
        }
        out
    }

    /// The nodes whose initial wake-ups the driver must withhold; they
    /// come online via scheduled [`Choice::Join`]s instead.
    pub fn joiners(&self, n: usize) -> Vec<NodeId> {
        let mut picks = self.picks(n);
        picks.truncate(self.count(n));
        picks
    }

    /// The nodes that leave permanently (disjoint from the joiners).
    pub fn leavers(&self, n: usize) -> Vec<NodeId> {
        self.picks(n).split_off(self.count(n))
    }

    /// The churn events as `(choice index, choice)` pairs, sorted by
    /// index: joins early (the paper's late wake-ups), leaves staggered
    /// through the run.
    pub(crate) fn timeline(&self, n: usize) -> Vec<(u64, Choice)> {
        let mut events: Vec<(u64, Choice)> = Vec::new();
        for (k, j) in self.joiners(n).into_iter().enumerate() {
            events.push((10 + 25 * k as u64, Choice::Join(j)));
        }
        for (k, l) in self.leavers(n).into_iter().enumerate() {
            events.push((30 + 25 * k as u64, Choice::Leave(l)));
        }
        events.sort_by_key(|&(at, _)| at);
        events
    }
}

/// A seeded, declarative fault policy.
///
/// Built with the `with_*` combinators; executed by [`FaultScheduler`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG (independent of any scheduler seed).
    pub seed: u64,
    /// Global per-message drop probability (`0.0 ≤ p < 1.0`).
    pub drop: f64,
    /// Global per-message duplicate probability (`0.0 ≤ p < 1.0`).
    pub dup: f64,
    /// Crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    fn check_prob(p: f64, what: &str) {
        assert!(
            (0.0..1.0).contains(&p),
            "{what} probability {p} must be in [0, 1): at rate 1 no message ever \
             arrives and no retransmission strategy can terminate"
        );
    }

    /// Sets the global drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p < 1.0`.
    pub fn with_drop(mut self, p: f64) -> Self {
        Self::check_prob(p, "drop");
        self.drop = p;
        self
    }

    /// Sets the global duplicate probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p < 1.0`.
    pub fn with_dup(mut self, p: f64) -> Self {
        Self::check_prob(p, "duplicate");
        self.dup = p;
        self
    }

    /// Crashes `node` at choice index `at`, restarting it `restart_after`
    /// choices later.
    ///
    /// # Panics
    ///
    /// Panics if `restart_after == 0` (crash and restart must be distinct
    /// choices).
    pub fn with_crash(mut self, node: NodeId, at: u64, restart_after: u64) -> Self {
        assert!(restart_after >= 1, "a crash needs a later restart");
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_after,
        });
        self
    }

    /// Adds `count` crash/restart events spread over distinct-ish nodes of
    /// an `n`-node network, derived deterministically from the plan seed —
    /// the `--faults crash=N` convenience.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` and `count > 0`.
    pub fn with_spread_crashes(mut self, count: usize, n: usize) -> Self {
        if count > 0 {
            assert!(n > 0, "cannot crash nodes in an empty network");
        }
        let mut x = lcg_seed(self.seed);
        for k in 0..count {
            x = lcg(x);
            let node = NodeId::new(((x >> 33) as usize) % n);
            self = self.with_crash(node, 20 + 40 * k as u64, 25);
        }
        self
    }

    /// Whether the plan injects nothing (equivalent to no plan at all).
    pub fn is_vacuous(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.crashes.is_empty()
    }

    /// The crash/restart events as `(choice index, choice)` pairs, in
    /// declaration order.
    fn timeline(&self) -> Vec<(u64, Choice)> {
        let mut events: Vec<(u64, Choice)> = Vec::with_capacity(2 * self.crashes.len());
        for c in &self.crashes {
            events.push((c.at, Choice::Crash(c.node)));
            events.push((c.at + c.restart_after, Choice::Restart(c.node)));
        }
        events
    }
}

/// The plans a run is subjected to; all absent for an honest run.
///
/// Link faults need a reliable-delivery layer to be survivable; Byzantine
/// and churn plans run on the bare protocol, so a discovery run takes
/// either `faults` or the other two (the spec parsers reject the mix).
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// Whether a run under these plans needs every node inside a
    /// reliable-delivery envelope: link faults are survivable only over
    /// one.
    pub fn reliable(&self) -> bool {
        self.faults.is_some()
    }

    /// Wraps `inner` in the scheduler that injects these plans into an
    /// `n`-node run (transparent when no plan is attached). The fault RNG
    /// is seeded from the fault plan, the silence draws from the Byzantine
    /// plan, and simultaneous timeline events fire faults first, then
    /// Byzantine, then churn.
    pub fn scheduler<S: Scheduler>(&self, inner: S, n: usize) -> FaultScheduler<S> {
        let mut events = self
            .faults
            .as_ref()
            .map(FaultPlan::timeline)
            .unwrap_or_default();
        events.extend(self.byzantine.iter().flat_map(|plan| plan.timeline(n)));
        events.extend(self.churn.iter().flat_map(|plan| plan.timeline(n)));
        events.sort_by_key(|&(at, _)| at);
        let silent = match &self.byzantine {
            Some(plan) if plan.silence => plan.byzantine_nodes(n),
            _ => Vec::new(),
        };
        FaultScheduler {
            inner,
            plan: self.faults.clone(),
            rng: StdRng::seed_from_u64(self.faults.as_ref().map_or(0, |p| p.seed)),
            injected: VecDeque::new(),
            events: events.into(),
            choice_index: 0,
            silent,
            byz_rng: StdRng::seed_from_u64(
                self.byzantine.as_ref().map_or(0, |p| p.seed ^ 0x5117_EACE),
            ),
            served_fault: false,
        }
    }

    /// The churn joiners: their initial wake-ups are withheld, they come
    /// online through the plan's `Join` events (§6's "joining = waking").
    pub fn withheld(&self, n: usize) -> BTreeSet<NodeId> {
        self.churn.iter().flat_map(|c| c.joiners(n)).collect()
    }
}

/// Wraps any scheduler and injects the faults, forgeries and churn that
/// [`Plans`] prescribe, as explicit choices in the schedule; built by
/// [`Plans::scheduler`].
///
/// Under empty plans the wrapper is fully transparent — same choices,
/// same order, zero RNG draws — so callers can wrap unconditionally and
/// keep a single code path (the explorer does exactly this).
///
/// Mechanics: a message's fate is drawn when its send is announced. A
/// doomed send's token is withheld from the inner scheduler and a
/// [`Choice::Drop`] is queued instead; a duplicated send forwards its
/// token *and* queues a [`Choice::Duplicate`]. Queued fault choices and
/// due crash/restart events fire before inner choices; crash events that
/// are not yet due when the inner scheduler quiesces fire then, so every
/// crash always gets its restart and the run still terminates.
#[derive(Clone, Debug)]
pub struct FaultScheduler<S> {
    inner: S,
    plan: Option<FaultPlan>,
    rng: StdRng,
    /// Fault choices injected by send fates, FIFO.
    injected: VecDeque<Choice>,
    /// Crash/restart (plus forgery/churn) timeline, sorted by choice index.
    events: VecDeque<(u64, Choice)>,
    /// Number of choices returned so far (the plan's time axis).
    choice_index: u64,
    /// The Byzantine nodes whose sends the silence class withholds (empty
    /// without a Byzantine plan or with its silence class off).
    silent: Vec<NodeId>,
    /// Dedicated RNG for Byzantine silence draws, seeded from the plan —
    /// kept separate from the link-fault RNG so attaching a Byzantine plan
    /// never perturbs an existing fault plan's fates.
    byz_rng: StdRng,
    /// Whether the last `choose` was answered by the fault layer itself
    /// (timeline event or injected fault) rather than the inner scheduler —
    /// such steps are position-pinned, so their footprints are reported as
    /// dependent-with-everything.
    served_fault: bool,
}

impl<S: Scheduler> FaultScheduler<S> {
    /// Wraps `inner` under the link-fault plan `faults` alone, seeding the
    /// fault RNG from the plan.
    pub fn new(inner: S, faults: Option<FaultPlan>) -> Self {
        let plans = Plans {
            faults,
            ..Plans::default()
        };
        plans.scheduler(inner, 0)
    }

    /// Re-seeds the fault RNG with the plan's seed `^ reseed` (the
    /// explorer's random-walk phase varies the fates per walk while
    /// keeping one plan). No-op without a fault plan.
    pub(crate) fn reseed_faults(&mut self, reseed: u64) {
        if let Some(plan) = &self.plan {
            self.rng = StdRng::seed_from_u64(plan.seed ^ reseed);
        }
    }

    /// The wrapped scheduler.
    pub(crate) fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped scheduler.
    pub(crate) fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn bump(&mut self, choice: Choice) -> Option<Choice> {
        self.choice_index += 1;
        Some(choice)
    }

    /// Whether this layer perturbs *sends* in an order-sensitive way: RNG
    /// fates (drop/dup/silence draws advance a stream shared by all sends).
    /// While true, no two steps commute for the explorer's purposes, so every
    /// footprint is reported as dependent-with-everything — reduction
    /// degrades gracefully instead of pruning unsoundly. Pure-timeline
    /// plans (crash/forge/churn at pinned indices) don't trip this: only
    /// the event-served steps themselves are pinned.
    fn perturbs_sends(&self) -> bool {
        if let Some(plan) = &self.plan {
            if plan.drop > 0.0 || plan.dup > 0.0 {
                return true;
            }
        }
        !self.silent.is_empty()
    }
}

impl<S: Scheduler> Scheduler for FaultScheduler<S> {
    fn note_wake(&mut self, node: NodeId) {
        self.inner.note_wake(node);
    }

    fn note_send(&mut self, token: SendToken) {
        let (src, dst) = (token.src, token.dst);
        // Byzantine silence is drawn first: withholding is attributed to
        // the sender, before the network can fault the message. The
        // membership test gates the draw, so runs without a Byzantine
        // plan (and honest senders under one) consume no randomness.
        if self.silent.contains(&src) && self.byz_rng.gen::<f64>() < SILENCE_PROB {
            self.injected.push_back(Choice::Silence { src, dst });
            return;
        }
        let Some(plan) = &self.plan else {
            self.inner.note_send(token);
            return;
        };
        if plan.drop > 0.0 && self.rng.gen::<f64>() < plan.drop {
            self.injected.push_back(Choice::Drop { src, dst });
            return;
        }
        self.inner.note_send(token);
        // A duplicate's copy is announced via note_send again when the
        // Duplicate choice executes, so its fate is drawn afresh: k extra
        // copies arise with probability dup^k (geometric), never unbounded.
        if plan.dup > 0.0 && self.rng.gen::<f64>() < plan.dup {
            self.injected.push_back(Choice::Duplicate { src, dst });
        }
    }

    fn note_tick(&mut self, node: NodeId) {
        self.inner.note_tick(node);
    }

    fn choose(&mut self) -> Option<Choice> {
        // Due crash/restart events fire first, then queued link faults,
        // then the inner scheduler.
        self.served_fault = true;
        if let Some(&(at, choice)) = self.events.front() {
            if at <= self.choice_index {
                self.events.pop_front();
                return self.bump(choice);
            }
        }
        if let Some(choice) = self.injected.pop_front() {
            return self.bump(choice);
        }
        if let Some(choice) = self.inner.choose() {
            self.served_fault = false;
            return self.bump(choice);
        }
        // Inner quiescence: flush not-yet-due events so every crash gets
        // its restart (a restart may un-quiesce the network again).
        if let Some((_, choice)) = self.events.pop_front() {
            return self.bump(choice);
        }
        None
    }

    fn pending(&self) -> usize {
        self.inner.pending() + self.injected.len() + self.events.len()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }

    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        // A step served by the fault layer is pinned to its choice index; a
        // step under a send-perturbing plan couples with every other step
        // through the RNG stream. Either way the choice
        // cannot be commuted, so its footprint widens to everything.
        if self.served_fault || self.perturbs_sends() {
            self.inner.note_footprint(choice, &Footprint::everything());
        } else {
            self.inner.note_footprint(choice, footprint);
        }
    }

    fn wants_state_digest(&self) -> bool {
        self.inner.wants_state_digest()
    }

    fn note_state_digest(&mut self, digest: u64) {
        self.inner.note_state_digest(digest);
    }

    fn wants_terminal_digest(&self) -> bool {
        self.inner.wants_terminal_digest()
    }

    fn note_terminal_digest(&mut self, digest: u64) {
        self.inner.note_terminal_digest(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FifoScheduler, SendToken};

    fn byzantine(plan: ByzantinePlan) -> Plans {
        Plans {
            byzantine: Some(plan),
            ..Plans::default()
        }
    }

    fn token(src: usize, dst: usize, seq: u64) -> SendToken {
        SendToken {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            seq,
            kind: "t",
        }
    }

    #[test]
    fn no_plan_is_fully_transparent() {
        let run = |faulty: bool| {
            let mut plain = FifoScheduler::new();
            let mut wrapped = FaultScheduler::new(FifoScheduler::new(), None);
            let feed = |s: &mut dyn Scheduler| {
                s.note_wake(NodeId::new(0));
                s.note_send(token(0, 1, 0));
                s.note_tick(NodeId::new(1));
            };
            let drain = |s: &mut dyn Scheduler| {
                let mut out = Vec::new();
                while let Some(c) = s.choose() {
                    out.push(c);
                }
                out
            };
            if faulty {
                feed(&mut wrapped);
                drain(&mut wrapped)
            } else {
                feed(&mut plain);
                drain(&mut plain)
            }
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drop_rate_one_half_drops_about_half() {
        let plan = FaultPlan::new(3).with_drop(0.5);
        let mut s = FaultScheduler::new(FifoScheduler::new(), Some(plan));
        for i in 0..200 {
            s.note_send(token(0, 1, i));
        }
        let mut drops = 0;
        let mut delivers = 0;
        while let Some(c) = s.choose() {
            match c {
                Choice::Drop { .. } => drops += 1,
                Choice::Deliver { .. } => delivers += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(drops + delivers, 200);
        assert!((60..140).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn fates_are_seed_deterministic() {
        let run = || {
            let plan = FaultPlan::new(9).with_drop(0.3).with_dup(0.2);
            let mut s = FaultScheduler::new(FifoScheduler::new(), Some(plan));
            for i in 0..50 {
                s.note_send(token(i % 4, (i + 1) % 4, i as u64));
            }
            let mut out = Vec::new();
            while let Some(c) = s.choose() {
                out.push(c);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_events_fire_in_order_and_flush_at_quiescence() {
        // Crash at index 1, restart 3 later — but the network quiesces
        // after two choices, so the restart flushes at quiescence.
        let plan = FaultPlan::new(0).with_crash(NodeId::new(2), 1, 3);
        let mut s = FaultScheduler::new(FifoScheduler::new(), Some(plan));
        s.note_wake(NodeId::new(0));
        s.note_wake(NodeId::new(1));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(s.choose(), Some(Choice::Crash(NodeId::new(2))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(s.choose(), Some(Choice::Restart(NodeId::new(2))));
        assert_eq!(s.choose(), None);
    }

    #[test]
    fn duplicate_choice_follows_the_forwarded_token() {
        let plan = FaultPlan::new(1).with_dup(0.999_999);
        let mut s = FaultScheduler::new(FifoScheduler::new(), Some(plan));
        s.note_send(token(0, 1, 0));
        assert_eq!(
            s.choose(),
            Some(Choice::Duplicate {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
        assert_eq!(
            s.choose(),
            Some(Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
    }

    #[test]
    fn spread_crashes_always_pair_restarts() {
        let plan = FaultPlan::new(5).with_spread_crashes(3, 8);
        assert_eq!(plan.crashes.len(), 3);
        for c in &plan.crashes {
            assert!(c.restart_after >= 1);
            assert!(c.node.index() < 8);
        }
        assert!(!plan.is_vacuous());
        assert!(FaultPlan::new(5).is_vacuous());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn full_loss_is_rejected() {
        let _ = FaultPlan::new(0).with_drop(1.0);
    }

    #[test]
    fn byzantine_nodes_are_distinct_and_seed_deterministic() {
        let plan = ByzantinePlan::new(11, 3);
        let nodes = plan.byzantine_nodes(8);
        assert_eq!(nodes.len(), 3);
        let mut dedup = nodes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert_eq!(nodes, ByzantinePlan::new(11, 3).byzantine_nodes(8));
        // f larger than the network clamps.
        assert_eq!(plan.byzantine_nodes(2).len(), 2);
        assert!(plan.byzantine_nodes(0).is_empty());
    }

    #[test]
    fn byzantine_timeline_stays_inside_the_network() {
        let plan = ByzantinePlan::new(5, 2);
        let events = plan.timeline(8);
        assert!(!events.is_empty());
        let liars = plan.byzantine_nodes(8);
        for &(_, c) in &events {
            match c {
                Choice::Forge { src, dst, salt } => {
                    assert!(liars.contains(&src));
                    assert!(dst.index() < 8);
                    assert_ne!(src, dst);
                    // Any id baked into the salt names a real node.
                    assert!(((salt >> 8) as usize) < 8 || salt & 0xFF == 0);
                }
                Choice::Crash(n) | Choice::StaleRestart(n) => {
                    assert!(liars.contains(&n));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Sorted by index.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn byzantine_class_restriction_drops_other_events() {
        let plan = ByzantinePlan::new(5, 2).only("stale-restart");
        assert!(!plan.equivocate && !plan.fabricate && !plan.silence);
        let events = plan.timeline(8);
        assert!(events
            .iter()
            .all(|&(_, c)| matches!(c, Choice::Crash(_) | Choice::StaleRestart(_))));
    }

    #[test]
    #[should_panic(expected = "unknown Byzantine class")]
    fn unknown_class_is_rejected() {
        let _ = ByzantinePlan::new(0, 1).only("gaslight");
    }

    #[test]
    fn churn_joiners_and_leavers_are_disjoint() {
        let plan = ChurnPlan::new(3, 0.25);
        let joiners = plan.joiners(16);
        let leavers = plan.leavers(16);
        assert_eq!(joiners.len(), 4);
        assert_eq!(leavers.len(), 4);
        assert!(joiners.iter().all(|j| !leavers.contains(j)));
        let events = plan.timeline(16);
        assert_eq!(events.len(), 8);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        // Tiny rates still churn at least one node each way.
        assert_eq!(ChurnPlan::new(3, 0.05).joiners(8).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 0.5]")]
    fn over_half_churn_is_rejected() {
        let _ = ChurnPlan::new(0, 0.6);
    }

    #[test]
    fn silence_withholds_only_byzantine_sends() {
        let plan = ByzantinePlan::new(7, 1).only("silence");
        let liar = plan.byzantine_nodes(4)[0];
        let honest = NodeId::new((liar.index() + 1) % 4);
        let mut s = byzantine(plan).scheduler(FifoScheduler::new(), 4);
        for i in 0..200 {
            s.note_send(SendToken {
                src: if i % 2 == 0 { liar } else { honest },
                dst: NodeId::new((i % 2 + 2) as usize % 4),
                seq: i as u64,
                kind: "t",
            });
        }
        let mut silenced = 0;
        let mut delivered_from_liar = 0;
        let mut delivered_from_honest = 0;
        while let Some(c) = s.choose() {
            match c {
                Choice::Silence { src, .. } => {
                    assert_eq!(src, liar);
                    silenced += 1;
                }
                Choice::Deliver { src, .. } if src == liar => delivered_from_liar += 1,
                Choice::Deliver { .. } => delivered_from_honest += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(delivered_from_honest, 100, "honest sends are untouched");
        assert_eq!(silenced + delivered_from_liar, 100);
        assert!((10..70).contains(&silenced), "silenced = {silenced}");
    }

    #[test]
    fn byzantine_timeline_flushes_at_quiescence() {
        // A stale-restart pair scheduled far in the future still fires
        // when the network quiesces early, like crash events do.
        let plan = ByzantinePlan::new(2, 1).only("stale-restart");
        let mut s = byzantine(plan).scheduler(FifoScheduler::new(), 4);
        let mut seen = Vec::new();
        while let Some(c) = s.choose() {
            seen.push(c);
        }
        assert!(matches!(seen[0], Choice::Crash(_)));
        assert!(matches!(seen[1], Choice::StaleRestart(_)));
    }

    #[test]
    fn attaching_vacuous_plans_changes_nothing() {
        let run = |byz: bool| {
            let plans = Plans {
                byzantine: byz.then(|| ByzantinePlan::new(9, 0)),
                churn: byz.then(|| ChurnPlan::new(9, 0.0)),
                ..Plans::default()
            };
            let mut s = plans.scheduler(FifoScheduler::new(), 4);
            s.note_wake(NodeId::new(0));
            s.note_send(token(0, 1, 0));
            let mut out = Vec::new();
            while let Some(c) = s.choose() {
                out.push(c);
            }
            out
        };
        assert_eq!(run(false), run(true));
    }
}
