//! The repo's benchmark: seven named workloads, eight end-to-end metrics
//! (plus the failed/attempted count) and an outside-in per-layer trace of
//! the discovery simulator. Nothing outside this directory is changed:
//! every number comes from timing calls into each layer's public
//! functions, and where the layer is a trait (`Protocol`, `Scheduler`)
//! from wrapping it. See `README.md` for the catalogue.

pub mod catalogue;
pub mod json;
pub mod layers;
pub mod measure;
pub mod provenance;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;
