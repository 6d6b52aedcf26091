//! Library backing the `ard` command-line tool.
//!
//! The binary is a thin wrapper over [`commands::run`], which parses a
//! subcommand plus `--key value` flags and returns the report text — making
//! the whole CLI unit-testable.
//!
//! ```text
//! ard discover --topology random:n=128,extra=256 --variant adhoc --scheduler random:7
//! ard adversary --levels 10
//! ard reduction --sets 128 --finds 64 --adversarial
//! ard overlay --n 128 --lookups 200
//! ard baselines --n 128
//! ard tables --exp e5 --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod spec;
