//! Execution tracing: an optional, ordered log of every wake-up, send and
//! delivery, for debugging protocols and for rendering executions in
//! documentation.
//!
//! Tracing is off by default (zero cost); enable it with
//! [`Runner::enable_trace`](crate::Runner::enable_trace).
//!
//! # Example
//!
//! ```
//! use ard_netsim::trace::What;
//! # use ard_netsim::{Choice, Context, Envelope, FifoScheduler, NodeId, Protocol, Runner};
//! # #[derive(Clone, Debug)]
//! # struct Ping;
//! # impl Envelope for Ping {
//! #     fn kind(&self) -> &'static str { "ping" }
//! #     fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
//! #     fn aux_bits(&self) -> u64 { 0 }
//! # }
//! # struct Node { peer: Option<NodeId> }
//! # impl Protocol for Node {
//! #     type Message = Ping;
//! #     fn on_wake(&mut self, ctx: &mut Context<'_, Ping>) {
//! #         if let Some(p) = self.peer { ctx.send(p, Ping); }
//! #     }
//! #     fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<'_, Ping>) {}
//! # }
//! let mut runner = Runner::new(
//!     vec![Node { peer: Some(NodeId::new(1)) }, Node { peer: None }],
//!     vec![vec![NodeId::new(1)], vec![]],
//! );
//! runner.enable_trace();
//! let mut sched = FifoScheduler::new();
//! runner.enqueue_wake(NodeId::new(0), &mut sched);
//! runner.run(&mut sched, 10).unwrap();
//!
//! let trace = runner.trace().unwrap();
//! // wake(n0), send, deliver, message-triggered wake(n1)
//! assert_eq!(trace.len(), 4);
//! assert_eq!(trace.events()[0].what, What::Did(Choice::Wake(NodeId::new(0))));
//! println!("{}", trace.render(10));
//! ```

use std::fmt;

use crate::scheduler::{Choice, Shape};
use crate::NodeId;

/// What a [`TraceEvent`] logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum What {
    /// A message was sent (buffered onto its link).
    Send {
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Global send sequence number.
        seq: u64,
    },
    /// The choice that executed. A delivery to a crashed or departed node
    /// is logged as the [`Choice::Drop`] it amounts to.
    Did(Choice),
}

/// One logged simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation step at which it happened.
    pub step: u64,
    /// What happened.
    pub what: What,
    /// Kind of the message sent, delivered, lost, copied or forged; `None`
    /// for an event on a node.
    pub kind: Option<&'static str>,
}

impl TraceEvent {
    /// Both ends of the event: `(src, dst)`, or its node twice.
    fn ends(&self) -> (NodeId, NodeId) {
        match self.what {
            What::Send { src, dst, .. } => (src, dst),
            What::Did(choice) => {
                let (a, b, _) = choice.operands();
                (a, b)
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (step, kind) = (self.step, self.kind.unwrap_or_default());
        let (a, b) = self.ends();
        match self.what {
            What::Send { seq, .. } => {
                write!(f, "[{step:>6}] send    {a} → {b}  {kind} (#{seq})")
            }
            What::Did(choice) => {
                let row = choice.kind().row();
                match row.shape {
                    Shape::Node => write!(f, "[{step:>6}] {} {a}", row.verb),
                    _ => write!(f, "[{step:>6}] {} {a} → {b}  {kind}", row.verb),
                }
            }
        }
    }
}

/// The accumulated event log of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events involving `node` (as waker, sender or receiver).
    pub fn involving(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| {
            let (a, b) = e.ends();
            a == node || b == node
        })
    }

    /// Renders up to `limit` events as text, one per line (with a final
    /// elision marker if truncated).
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        for event in self.events.iter().take(limit) {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        if self.events.len() > limit {
            out.push_str(&format!("… {} more events\n", self.events.len() - limit));
        }
        out
    }
}

/// Aggregated per-node and per-link statistics of a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Messages sent per node.
    pub sends_by_node: std::collections::BTreeMap<NodeId, u64>,
    /// Messages received per node.
    pub receives_by_node: std::collections::BTreeMap<NodeId, u64>,
    /// Messages delivered per directed link.
    pub messages_by_link: std::collections::BTreeMap<(NodeId, NodeId), u64>,
}

impl TraceStats {
    /// The directed link that carried the most messages, with its count.
    pub fn busiest_link(&self) -> Option<((NodeId, NodeId), u64)> {
        self.messages_by_link
            .iter()
            .max_by_key(|&(_, c)| *c)
            .map(|(&l, &c)| (l, c))
    }

    /// The `k` heaviest senders, descending.
    pub fn top_senders(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut all: Vec<(NodeId, u64)> =
            self.sends_by_node.iter().map(|(&n, &c)| (n, c)).collect();
        all.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
        all.truncate(k);
        all
    }
}

impl Trace {
    /// Computes per-node and per-link aggregates over the whole log.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for event in &self.events {
            match event.what {
                What::Send { src, .. } => {
                    *stats.sends_by_node.entry(src).or_default() += 1;
                }
                What::Did(Choice::Deliver { src, dst }) => {
                    *stats.receives_by_node.entry(dst).or_default() += 1;
                    *stats.messages_by_link.entry((src, dst)).or_default() += 1;
                }
                What::Did(_) => {}
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(node: usize, step: u64) -> TraceEvent {
        TraceEvent {
            step,
            what: What::Did(Choice::Wake(NodeId::new(node))),
            kind: None,
        }
    }

    fn send(src: usize, dst: usize, seq: u64) -> TraceEvent {
        TraceEvent {
            step: seq,
            what: What::Send {
                src: NodeId::new(src),
                dst: NodeId::new(dst),
                seq,
            },
            kind: Some("x"),
        }
    }

    fn deliver(src: usize, dst: usize) -> TraceEvent {
        TraceEvent {
            step: 0,
            what: What::Did(Choice::Deliver {
                src: NodeId::new(src),
                dst: NodeId::new(dst),
            }),
            kind: Some("x"),
        }
    }

    #[test]
    fn stats_aggregate_sends_receives_and_links() {
        let mut t = Trace::default();
        t.push(wake(0, 0));
        for i in 0..3 {
            t.push(send(0, 1, i));
            t.push(deliver(0, 1));
        }
        t.push(send(1, 0, 3));
        t.push(deliver(1, 0));
        let s = t.stats();
        assert_eq!(
            s.busiest_link(),
            Some(((NodeId::new(0), NodeId::new(1)), 3))
        );
        assert_eq!(s.receives_by_node[&NodeId::new(0)], 1);
        assert_eq!(s.top_senders(5).len(), 2);
        assert_eq!(s.top_senders(1), vec![(NodeId::new(0), 3)]);
    }

    #[test]
    fn empty_trace_has_empty_stats() {
        let t = Trace::default();
        let s = t.stats();
        assert!(s.busiest_link().is_none());
        assert!(s.top_senders(3).is_empty());
    }

    #[test]
    fn involving_filters_by_participant() {
        let mut t = Trace::default();
        t.push(wake(0, 0));
        t.push(send(0, 1, 1));
        t.push(wake(2, 2));
        assert_eq!(t.involving(NodeId::new(1)).count(), 1);
        assert_eq!(t.involving(NodeId::new(0)).count(), 2);
        assert_eq!(t.involving(NodeId::new(3)).count(), 0);
    }

    #[test]
    fn render_truncates() {
        let mut t = Trace::default();
        for i in 0..5 {
            t.push(wake(i, i as u64));
        }
        let s = t.render(2);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("3 more events"));
        assert!(!t.is_empty());
    }

    #[test]
    fn render_at_exact_limit_has_no_elision_marker() {
        let mut t = Trace::default();
        for i in 0..3 {
            t.push(wake(i, i as u64));
        }
        let exact = t.render(3);
        assert_eq!(exact.lines().count(), 3);
        assert!(!exact.contains("more events"));
        // A zero limit renders nothing but the elision marker.
        assert_eq!(t.render(0), "… 3 more events\n");
        assert_eq!(t.render(usize::MAX), exact);
    }

    #[test]
    fn top_senders_breaks_count_ties_by_node_id() {
        let mut t = Trace::default();
        // Nodes 2 and 1 send twice each, node 0 once; insertion order is
        // deliberately scrambled.
        t.push(send(2, 0, 0));
        t.push(send(1, 0, 1));
        t.push(send(0, 1, 2));
        t.push(send(2, 1, 3));
        t.push(send(1, 2, 4));
        let s = t.stats();
        assert_eq!(
            s.top_senders(10),
            vec![
                (NodeId::new(1), 2),
                (NodeId::new(2), 2),
                (NodeId::new(0), 1),
            ]
        );
        assert_eq!(s.top_senders(2).len(), 2);
        assert!(s.top_senders(0).is_empty());
    }

    #[test]
    fn tied_busiest_links_resolve_to_the_largest_key() {
        // `max_by_key` keeps the last maximum; BTreeMap iterates in
        // ascending key order, so ties resolve to the largest link.
        // Pinned so hot-spot reports stay deterministic.
        let mut t = Trace::default();
        t.push(deliver(0, 1));
        t.push(deliver(1, 0));
        let s = t.stats();
        assert_eq!(
            s.busiest_link(),
            Some(((NodeId::new(1), NodeId::new(0)), 1))
        );
    }

    #[test]
    fn involving_counts_self_loops_once() {
        let mut t = Trace::default();
        t.push(deliver(0, 0));
        assert_eq!(t.involving(NodeId::new(0)).count(), 1);
        let s = t.stats();
        assert_eq!(s.messages_by_link[&(NodeId::new(0), NodeId::new(0))], 1);
    }
}
