//! Deterministic discrete-event simulation engine for the rperf-rs suite.
//!
//! This crate is the foundation every device model in the workspace is built
//! on. It deliberately contains *no* networking concepts — only:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond time. At 56 Gbps a
//!   single byte serializes in ~143 ps, so nanosecond resolution would alias
//!   serialization boundaries; picoseconds in a `u64` still cover ~213 days
//!   of simulated time.
//! * [`EventQueue`] — a stable priority queue of timestamped events.
//!   Same-timestamp events pop in insertion order, which makes whole-system
//!   runs bit-for-bit reproducible.
//! * [`SimRng`] — a small, fully deterministic PRNG (`xoshiro256**` seeded
//!   through SplitMix64) with the handful of distributions the device models
//!   need. Reproducibility is a core requirement for a measurement tool, so
//!   the suite does not depend on external RNG crates whose streams may
//!   change between versions.
//! * [`World`] / [`run_budgeted`] — the driver loop: an exclusive time
//!   horizon, an event budget and a cooperative cancellation hook.
//!
//! # Examples
//!
//! ```
//! use rperf_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_ns(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_ns(2), "a");
//! assert_eq!(q.pop(), Some((SimTime::from_ns(2), "a")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod reference;
mod rng;
mod run;
mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use run::{run_budgeted, RunOutcome, World};
pub use time::{SimDuration, SimTime};
