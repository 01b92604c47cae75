//! The rperf-rs benchmark: four of the paper's traffic regimes, host time
//! per delivered packet, and a per-layer cost split.
//!
//! See `README.md` in this directory for how to run it and read it.

#![forbid(unsafe_code)]

pub mod harness;
pub mod metrics;
pub mod runner;
pub mod workloads;
