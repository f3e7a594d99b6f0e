//! # imax-gc — the system-wide on-the-fly garbage collector
//!
//! Paper §8.1: "iMAX provides a system-wide parallel garbage collector
//! based upon the algorithm of Dijkstra et al. To support this, the 432
//! hardware implements the gray bit of that algorithm, setting it
//! whenever access descriptors are moved. ... The iMAX garbage collector
//! is implemented as a daemon process that globally scans the system. It
//! requires only minimal synchronization with the rest of the operating
//! system."
//!
//! * The **write barrier** lives in the hardware layer
//!   ([`i432_arch::ShardedSpace::store_ad`] and the linkage stores, on
//!   every shard): every access-descriptor move shades its target gray.
//! * [`collector`] — the one tricolor engine: an incremental mark/sweep
//!   worker over the shards it owns. Mark propagates gray until a
//!   verification scan finds no gray left (the on-the-fly termination
//!   rule); sweep reclaims whites and whitens blacks for the next cycle.
//!   [`Collector::new`] owns every shard and is what the daemon runs.
//! * [`filter`] — destruction filters (paper §8.2): white instances of a
//!   filtered type are not reclaimed but *delivered to their type
//!   manager's port*, so physical resources (the paper's tape-drive
//!   example) are never lost. The paper notes release 1 used this "only
//!   to recover lost process objects" — supported here via
//!   [`collector::GcConfig::process_filter_port`].
//! * [`daemon`] — the collector as a *simulated process*: a loop of CALLs
//!   into a GC service domain, consuming simulated cycles, preemptible
//!   and schedulable like any other process.
//! * [`roots`] — root discovery: processor objects, root SROs and
//!   port-ring messages. Everything the system must retain hangs off the
//!   processors' root directory; there is deliberately no "table of all
//!   objects".
//! * [`parallel`] + [`gray`] — [`ParallelGc`]: one [`Collector`] worker
//!   per shard on host threads, running concurrently with mutators (the
//!   paper's "parallel" in "system-wide parallel garbage collector"). It
//!   adds only work-stealing gray deques, the drain-quiescence test and
//!   the phase barrier to the workers' increments.

#![warn(missing_docs)]

pub mod collector;
pub mod daemon;
pub mod filter;
pub mod gray;
pub mod invariant;
pub mod parallel;
pub mod roots;

pub use collector::{Collector, GcConfig, GcPhase, GcStats};
pub use daemon::install_gc_daemon;
pub use filter::drain_filter_port;
pub use gray::GrayDeque;
pub use invariant::check_tricolor;
pub use parallel::{ParGcStats, ParallelGc, GC_TRACE_CPU_BASE};
pub use roots::find_roots;
