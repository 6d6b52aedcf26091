//! The asynchronous resource discovery algorithms of Abraham & Dolev
//! (PODC 2003).
//!
//! *Resource discovery* runs on a knowledge graph (see [`ard_graph`]): nodes
//! know some ids initially, learn ids from messages, and must end with
//! exactly one **leader** per weakly connected component such that the
//! leader knows every id in its component and every other node knows (or can
//! reach, in the Ad-hoc variant) its leader. The network is asynchronous
//! with per-link FIFO delivery and no global start (see [`ard_netsim`]).
//!
//! Three problem variants are implemented, all sharing one generic conquest
//! engine ([`node::ArdNode`], the state machine of the paper's Figure 1):
//!
//! * [`Variant::Oblivious`] — component sizes unknown. `O(n log n)`
//!   messages, `O(|E₀| log n + n log² n)` bits (paper Theorems 5 and 7);
//!   message-optimal by the paper's Theorem 1 lower bound.
//! * [`Variant::Bounded`] — every node knows its component's size; the
//!   final leader *detects termination* and broadcasts it. `O(n·α(n,n))`
//!   messages (Theorems 4 and 6).
//! * [`Variant::AdHoc`] — non-leaders only keep a pointer path to the
//!   leader; any node can [`probe`](Discovery::probe) for the current
//!   snapshot with amortized path compression. `O(n·α(n,n))` messages,
//!   asymptotically optimal by the Union-Find reduction (Theorem 2), and
//!   supports dynamic node/link additions (§6, Theorem 8).
//!
//! # Example
//!
//! ```
//! use ard_core::{Discovery, Variant};
//! use ard_graph::gen;
//! use ard_netsim::RandomScheduler;
//!
//! let graph = gen::random_weakly_connected(32, 64, 1);
//! let mut sched = RandomScheduler::seeded(7);
//! let mut discovery = Discovery::new(&graph, Variant::Oblivious);
//! let outcome = discovery.run_all(&mut sched).unwrap();
//!
//! assert_eq!(outcome.leaders.len(), 1); // one leader for one component
//! discovery.check_requirements(&graph).unwrap();
//! println!("{} messages", outcome.metrics.total_messages());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budgets;
mod config;
mod driver;
pub mod invariants;
mod msg;
pub mod node;
mod reliable;
pub mod spec;
mod status;

pub use ard_netsim::Plans;
pub use config::{Config, Variant};
pub use driver::{
    record, replay, run_checked, Discovery, DiscoveryOn, FaultyDiscovery, Layer, Outcome,
    ProbeStatus, Survivors,
};
pub use msg::{InfoPayload, Message, Verdict};
pub use node::AsArdNode;
pub use reliable::{Reliable, ReliableMsg};
pub use spec::{ParseSpecError, RunSpec};
pub use status::{Status, Transition, EXPECTED_TRANSITIONS};
