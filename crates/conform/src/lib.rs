//! # i432-conform — differential conformance & concurrency fuzzing
//!
//! The sharded capability kernel makes a strong claim: the *logical*
//! outcome of a workload is independent of how the object space is
//! striped and how many host threads drive it. Paper §3's design rule —
//! "all synchronization within the system must be explicit" — is exactly
//! the property that makes the claim testable. This crate tests it, hard:
//!
//! * [`gen`] — a seeded, deterministic generator of GDP programs over the
//!   full user-visible ISA (data movement, AD movement, rights
//!   restriction, object creation, port rendezvous, deliberate faults).
//!   The same seed always yields the same programs.
//! * [`oracle`] — the differential oracle: each generated case runs on
//!   the deterministic single-processor runner *and* on the threaded
//!   lock-striped runner across a shards × threads matrix, and the
//!   workload-visible end state (a placement-independent graph digest,
//!   the shared counter, and per-process status/fault codes) must be
//!   bit-identical everywhere.
//! * [`mod@explore`] — a bounded schedule explorer for the shard-lock hot
//!   paths: seeded cross-shard lock-pair orders interleaved with
//!   all-shard atomic sections, with wall-clock deadlock detection.
//!
//! Every failure reports a one-line `cargo` replay command carrying the
//! exact seed, so any divergence found in CI reproduces locally.

#![warn(missing_docs)]

pub mod explore;
pub mod filing;
pub mod gen;
pub mod oracle;

pub use explore::{explore, explore_traced, ExploreConfig, ExploreReport};
pub use filing::{
    check_filing_seed, filing_replay_command, filing_workload, run_filing_deterministic,
    run_filing_threaded,
};
pub use gen::{generate, GenCase, GenProcess};
pub use oracle::{
    check_seed, check_seed_gc, replay_command, run_deterministic, run_threaded_sys,
    run_threaded_sys_gc, CaseOutcome, SeedReport, FULL_MATRIX, QUICK_MATRIX,
};
