//! Deterministic asynchronous network simulator for knowledge-graph protocols.
//!
//! This crate is the communication substrate used by the reproduction of
//! *Asynchronous Resource Discovery* (Abraham & Dolev, PODC 2003). It models
//! the paper's network exactly:
//!
//! * Nodes communicate by **point-to-point messages** over a *knowledge
//!   graph*: a node may only address a node whose id it has learned
//!   ([`Runner`] enforces this and panics on violations, which always
//!   indicate a protocol bug).
//! * Delivery is **asynchronous**: messages arrive after a finite but
//!   unbounded delay, chosen by a pluggable [`Scheduler`]. Adversarial
//!   schedulers (e.g. the subtree-freezing adversary of the paper's
//!   Theorem 1) are ordinary [`Scheduler`] implementations.
//! * Each ordered pair of nodes is connected by a **FIFO link**: messages
//!   from `u` to `v` arrive at `v` in the order `u` sent them, regardless of
//!   how the scheduler interleaves links.
//! * There is **no global start**: nodes wake up asynchronously, in an order
//!   the scheduler (or the driving test harness) controls, and a sleeping
//!   node is woken by the first message that reaches it.
//!
//! The simulator meters every message (count and bit size, per message kind)
//! through [`Metrics`], which is how the reproduction regenerates the paper's
//! message- and bit-complexity results.
//!
//! # Example
//!
//! A two-node "ping" protocol:
//!
//! ```
//! use ard_netsim::{Context, Envelope, FifoScheduler, NodeId, Protocol, Runner};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//!
//! impl Envelope for Ping {
//!     fn kind(&self) -> &'static str { "ping" }
//!     fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
//!     fn aux_bits(&self) -> u64 { 0 }
//! }
//!
//! struct Node { peer: Option<NodeId>, got: bool }
//!
//! impl Protocol for Node {
//!     type Message = Ping;
//!     fn on_wake(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, Ping);
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {
//!         self.got = true;
//!     }
//! }
//!
//! let a = NodeId::new(0);
//! let b = NodeId::new(1);
//! // `a` initially knows `b`; `b` knows nobody.
//! let mut runner = Runner::new(
//!     vec![Node { peer: Some(b), got: false }, Node { peer: None, got: false }],
//!     vec![vec![b], vec![]],
//! );
//! let mut sched = FifoScheduler::new();
//! runner.enqueue_wake(a, &mut sched);
//! runner.run(&mut sched, 100).unwrap();
//! assert!(runner.node(b).got);
//! assert_eq!(runner.metrics().total_messages(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod context;
mod envelope;
pub mod explore;
pub mod fault;
mod id;
mod idseq;
mod idset;
mod intset;
mod linkq;
mod metrics;
pub mod par;
pub mod record;
pub mod round;
mod runner;
mod scheduler;
pub mod shrink;
pub mod sync;
mod table;
pub mod trace;

pub use bitset::BitSet;
pub use context::Context;
pub use envelope::{Envelope, KIND_TAG_BITS};
pub use fault::{ByzantinePlan, ChurnPlan, FaultPlan, FaultScheduler, Plans};
pub use id::NodeId;
pub use idseq::IdSeq;
pub use idset::IdSet;
pub use intset::IntervalSet;
pub use linkq::LinkQueues;
pub use metrics::{ByzantineCounts, FaultCounts, KindCounts, Metrics};
pub use record::{Choices, RecordingScheduler, ReplayScheduler, Schedule, ScheduleParseError};
pub use runner::{LivelockError, Protocol, Runner};
pub use scheduler::{
    BoundedDelayScheduler, Choice, FifoScheduler, Footprint, Kind, KindRow, LifoScheduler,
    RandomScheduler, Scheduler, SendToken, Shape, StateDigest,
};
