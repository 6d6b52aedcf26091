//! A Chord-style structured overlay bootstrapped from resource discovery.
//!
//! The paper motivates resource discovery as the *first step* of building
//! peer-to-peer systems: "Once all peers that are interested get to know of
//! each other they may cooperate on joint tasks (for example … may build an
//! overlay network and form a distributed hash table)". This crate closes
//! that loop on the same simulator substrate:
//!
//! 1. run a [`Discovery`](ard_core::Discovery) (typically Ad-hoc) to obtain
//!    the component's membership;
//! 2. [`bootstrap`] a consistent-hashing ring from the membership list —
//!    each node gets its successor and `⌈log₂ n⌉` finger entries;
//! 3. route [`lookup`](OverlayNode) requests greedily over the fingers in
//!    `O(log n)` hops, metered by the same [`Metrics`](ard_netsim::Metrics);
//! 4. use the ring as a replicated key-value [`store`] (puts mirror to the
//!    owner's ring successor), and survive member failures via
//!    successor-list stabilization ([`fault`]).
//!
//! # Example
//!
//! ```
//! use ard_core::{Discovery, Variant};
//! use ard_graph::gen;
//! use ard_netsim::{NodeId, RandomScheduler};
//! use ard_overlay::{bootstrap, Key};
//!
//! // Discover the membership…
//! let graph = gen::random_weakly_connected(32, 64, 1);
//! let mut discovery = Discovery::new(&graph, Variant::AdHoc);
//! let mut sched = RandomScheduler::seeded(2);
//! discovery.run_all(&mut sched).unwrap();
//! let leader = discovery.leaders()[0];
//! let members: Vec<NodeId> = discovery.runner().node(leader).done().iter().collect();
//!
//! // …then build the overlay and look up a key.
//! let mut overlay = bootstrap(&members);
//! let owner = overlay.lookup_blocking(members[0], Key::new(0xdead_beef), &mut sched).unwrap();
//! assert!(members.contains(&owner.owner));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod protocol;
mod ring;
pub mod store;

pub use fault::StabilizeError;
pub use protocol::{bootstrap, LookupResult, Overlay, OverlayMessage, OverlayNode};
pub use ring::{key_of, Key, RingTable};
