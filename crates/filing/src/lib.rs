//! # imax-filing — the object-filing system
//!
//! Paper §9 names "a filing system that maintains files as objects" as
//! release-2 iMAX; this crate builds it from the parts the rest of the
//! workspace already provides, composing four subsystems end to end:
//!
//! * **IPC** — clients talk to the server over ports: requests go to
//!   one shared FIFO request port, replies come back on per-client
//!   reply ports, and the server's own device completions arrive on an
//!   internal port served through either the typed or the untyped
//!   package (Figure 2's zero-overhead claim is asserted over exactly
//!   this path).
//! * **Storage** — each file *is* an object: one generic segment owned
//!   by the swapping storage manager, evictable to backing store when
//!   closed or under memory pressure.
//! * **I/O** — durability runs through the async virtio-shaped block
//!   device of [`imax_io::virtio`]: OPEN reads blocks through the
//!   device queue, WRITE writes through, CLOSE flushes.
//! * **GC** — every client round trip retires one request object into
//!   garbage; file caches stay live only through the server's registry
//!   object. The workload runs under the collector daemon unchanged.
//!
//! [`harness`] builds the whole arrangement as one [`i432_sim::System`]
//! that runs identically on the deterministic and threaded runners —
//! the conform `filing` workload and the `c13_filing` bench both drive
//! it through that front door.

#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod protocol;
pub mod server;

pub use client::{expected_checksum, filing_client_program, requests_per_client};
pub use harness::{build_filing_system, client_checksums, FilingHandles, FilingWorkload};
pub use server::{install_filing_service, FilingConfig, FilingServer, FilingStats};
