//! The measuring wrappers: [`Timed`] around a [`Protocol`] node and
//! [`TimedScheduler`] around a [`Scheduler`].
//!
//! Both are transparent — every call is forwarded unchanged, so a wrapped
//! run ends with the same metrics, state digest and recorded schedule as
//! the bare one (`tests/transparency.rs`) — and both only read the clock
//! around the forwarded call and add to a per-thread table. Totals live in
//! thread-local tables rather than in the wrappers so a node stays as
//! small as the node it wraps (a per-node table would add ~300 B × n and
//! change the cache behaviour being measured). The wrappers are therefore
//! for single-threaded engines: `Runner::run` and `run_sharded(1)`.
//!
//! `LAYER` tells nested wrappers apart: in
//! `Timed<Reliable<Timed<ArdNode, 0>>, 1>` the inner table holds the
//! discovery handlers and the outer one holds the reliable layer *plus*
//! everything below it.

use std::cell::RefCell;
use std::time::Instant;

use ard_core::node::{ArdNode, AsArdNode};
use ard_netsim::{
    Choice, Context, Envelope, Footprint, NodeId, Protocol, Scheduler, SendToken, StateDigest,
};

/// Calls, total time and longest single call of one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    pub calls: u64,
    pub ns: u64,
    pub max_ns: u64,
}

impl OpStat {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total time with the timer's own cost taken out: every timed call
    /// reads `timer_ns` too long (see the README, "Reading the trace").
    pub fn corrected_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * timer_ns).max(0.0)
    }
}

/// What one wrapper layer saw: one [`OpStat`] per operation name (message
/// kinds and `on_wake`/`on_tick`/… for nodes; `choose`/`note_send`/… for
/// schedulers), in first-seen order.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    ops: Vec<(&'static str, OpStat)>,
    /// Messages the timed handlers queued.
    pub sends: u64,
    /// Largest pending-token count a timed scheduler reported.
    pub max_pending: u64,
}

impl LayerStats {
    const fn new() -> Self {
        LayerStats {
            ops: Vec::new(),
            sends: 0,
            max_pending: 0,
        }
    }

    fn record(&mut self, op: &'static str, ns: u64) {
        // A dozen names at most: a scan beats hashing.
        match self.ops.iter_mut().find(|(name, _)| *name == op) {
            Some((_, stat)) => stat.add(ns),
            None => {
                let mut stat = OpStat::default();
                stat.add(ns);
                self.ops.push((op, stat));
            }
        }
    }

    /// The operations seen, in first-seen order.
    pub fn ops(&self) -> &[(&'static str, OpStat)] {
        &self.ops
    }

    /// One operation's totals (zero if it never ran).
    pub fn op(&self, name: &str) -> OpStat {
        self.ops
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Adds another table of the same layer (a sweep has one per trial).
    pub fn merge(&mut self, other: &LayerStats) {
        for (op, stat) in &other.ops {
            match self.ops.iter_mut().find(|(name, _)| name == op) {
                Some((_, mine)) => {
                    mine.calls += stat.calls;
                    mine.ns += stat.ns;
                    mine.max_ns = mine.max_ns.max(stat.max_ns);
                }
                None => self.ops.push((op, *stat)),
            }
        }
        self.sends += other.sends;
        self.max_pending = self.max_pending.max(other.max_pending);
    }

    /// All operations added up.
    pub fn total(&self) -> OpStat {
        self.ops
            .iter()
            .fold(OpStat::default(), |acc, (_, s)| OpStat {
                calls: acc.calls + s.calls,
                ns: acc.ns + s.ns,
                max_ns: acc.max_ns.max(s.max_ns),
            })
    }
}

/// Number of distinct wrapper layers per kind (node / scheduler).
pub const LAYERS: usize = 2;

thread_local! {
    static NODE_STATS: [RefCell<LayerStats>; LAYERS] =
        const { [RefCell::new(LayerStats::new()), RefCell::new(LayerStats::new())] };
    static SCHED_STATS: [RefCell<LayerStats>; LAYERS] =
        const { [RefCell::new(LayerStats::new()), RefCell::new(LayerStats::new())] };
}

/// Takes (and resets) this thread's node-handler table of `layer`.
pub fn take_node_stats(layer: usize) -> LayerStats {
    NODE_STATS.with(|s| s[layer].take())
}

/// Takes (and resets) this thread's scheduler table of `layer`.
pub fn take_sched_stats(layer: usize) -> LayerStats {
    SCHED_STATS.with(|s| s[layer].take())
}

/// A protocol node whose handler calls are timed per message kind.
#[derive(Debug)]
pub struct Timed<P, const LAYER: usize = 0>(pub P);

impl<P: Protocol, const LAYER: usize> Timed<P, LAYER> {
    fn timed(
        &mut self,
        op: &'static str,
        ctx: &mut Context<'_, P::Message>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let queued = ctx.queued();
        let start = Instant::now();
        f(&mut self.0, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        let sends = (ctx.queued() - queued) as u64;
        NODE_STATS.with(|s| {
            let mut stats = s[LAYER].borrow_mut();
            stats.record(op, ns);
            stats.sends += sends;
        });
    }
}

impl<P: Protocol, const LAYER: usize> Protocol for Timed<P, LAYER> {
    type Message = P::Message;

    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.timed("on_wake", ctx, |n, c| n.on_wake(c));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        self.timed(msg.kind(), ctx, |n, c| n.on_message(from, msg, c));
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.timed("on_tick", ctx, |n, c| n.on_tick(c));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.timed("on_restart", ctx, |n, c| n.on_restart(c));
    }

    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.timed("on_stale_restart", ctx, |n, c| n.on_stale_restart(c));
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.0.digest_state(d);
    }
}

impl<P: AsArdNode, const LAYER: usize> AsArdNode for Timed<P, LAYER> {
    fn ard(&self) -> &ArdNode {
        self.0.ard()
    }
}

/// One token operation a scheduler received, compact enough to log a
/// million-event run (`netsim.scheduler.*.ns_per_op` replays the log
/// against each scheduler with no runner attached).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedOp {
    Wake(u32),
    Send(u32, u32),
    Tick(u32),
    Choose,
}

/// A scheduler whose token operations are timed.
#[derive(Debug)]
pub struct TimedScheduler<S, const LAYER: usize = 0> {
    inner: S,
    log: Option<Vec<SchedOp>>,
}

impl<S: Scheduler, const LAYER: usize> TimedScheduler<S, LAYER> {
    /// Wraps `inner`; with `log` every token operation is also logged, for
    /// [`replay_ops`].
    pub fn new(inner: S, log: bool) -> Self {
        TimedScheduler {
            inner,
            log: log.then(Vec::new),
        }
    }

    /// The logged operations (empty unless logging was asked for).
    pub fn into_log(self) -> Vec<SchedOp> {
        self.log.unwrap_or_default()
    }

    fn timed<R>(&mut self, op: &'static str, entry: SchedOp, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let pending = self.inner.pending() as u64;
        SCHED_STATS.with(|s| {
            let mut stats = s[LAYER].borrow_mut();
            stats.record(op, ns);
            stats.max_pending = stats.max_pending.max(pending);
        });
        if let Some(log) = &mut self.log {
            log.push(entry);
        }
        r
    }
}

fn index(node: NodeId) -> u32 {
    node.index() as u32
}

impl<S: Scheduler, const LAYER: usize> Scheduler for TimedScheduler<S, LAYER> {
    fn note_wake(&mut self, node: NodeId) {
        self.timed("note_wake", SchedOp::Wake(index(node)), |s| {
            s.note_wake(node)
        });
    }
    fn note_send(&mut self, token: SendToken) {
        let entry = SchedOp::Send(index(token.src), index(token.dst));
        self.timed("note_send", entry, |s| s.note_send(token));
    }
    fn note_tick(&mut self, node: NodeId) {
        self.timed("note_tick", SchedOp::Tick(index(node)), |s| {
            s.note_tick(node)
        });
    }
    fn choose(&mut self) -> Option<Choice> {
        self.timed("choose", SchedOp::Choose, |s| s.choose())
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }
    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        self.inner.note_footprint(choice, footprint);
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

/// Feeds a logged token stream to `sched` and returns the nanoseconds it
/// took. The scheduler may answer `choose` differently from the one that
/// was logged; the stream stays valid because every `choose` removes
/// exactly one token whichever it picks.
pub fn replay_ops(ops: &[SchedOp], sched: &mut dyn Scheduler) -> u64 {
    let node = |i: u32| NodeId::new(i as usize);
    let mut seq = 0;
    let start = Instant::now();
    for op in ops {
        match *op {
            SchedOp::Wake(n) => sched.note_wake(node(n)),
            SchedOp::Tick(n) => sched.note_tick(node(n)),
            SchedOp::Send(src, dst) => {
                sched.note_send(SendToken {
                    src: node(src),
                    dst: node(dst),
                    seq,
                    kind: "replay",
                });
                seq += 1;
            }
            SchedOp::Choose => {
                std::hint::black_box(sched.choose());
            }
        }
    }
    start.elapsed().as_nanos() as u64
}

/// The time an empty timed region reads: what every [`OpStat`] sample
/// over-reports, and what each timed call adds once more to the span
/// around it. Median of many back-to-back clock reads.
pub fn timer_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    // Individual reads are quantised (often to 0 or a few tens of ns);
    // the mean of the middle half keeps sub-quantum resolution.
    let mid = &samples[samples.len() / 4..samples.len() * 3 / 4];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}
