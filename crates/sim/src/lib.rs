//! # i432-sim — the deterministic multiprocessor system simulator
//!
//! Paper §3: "iMAX is fundamentally a multiprocessor operating system,
//! providing a tightly coupled environment in which all processors see a
//! single homogeneous memory. ... With the bussing schemes designed for
//! the 432, a factor of 10 in total processing power of a single 432
//! system is realizable."
//!
//! This crate assembles N emulated GDPs ([`i432_gdp::Gdp`]) over one
//! shared [`i432_arch::ShardedSpace`] and interleaves them in *simulated
//! time*: at every step, the processor with the smallest local cycle clock
//! advances. Shared-memory traffic contends on an address-interleaved
//! multi-bus model ([`InterleavedBus`]) — the mechanism behind the paper's
//! "factor of 10" scaling claim.
//!
//! Determinism: given the same initial system and programs, every run
//! produces the same event sequence and the same final clocks, which makes
//! all EXPERIMENTS.md measurements exactly reproducible.

#![warn(missing_docs)]

pub mod config;
pub mod interconnect;
pub mod system;
pub mod threaded;

pub use config::SystemConfig;
pub use interconnect::InterleavedBus;
pub use system::{RunOutcome, System};
pub use threaded::{
    run_threaded, run_threaded_global_lock, run_threaded_with, AuxWorker, FastPaths,
    ThreadedOutcome,
};
