//! # i432-arch — the iAPX 432 architectural object model
//!
//! This crate emulates the *addressing structure* of the Intel iAPX 432 as
//! described in the SOSP'81 iMAX paper (Kahn et al.) and the 432 Architecture
//! Reference Manual it cites:
//!
//! * every segment is named by an **object descriptor** in a single global
//!   **object table** ([`ObjectTable`]);
//! * programs hold **access descriptors** ([`AccessDescriptor`], the 432's
//!   term for capabilities) that pair an object-table index with a set of
//!   **rights** ([`Rights`]);
//! * an object has two parts — a *data part* (bytes, up to 64 KiB) and an
//!   *access part* (access-descriptor slots, up to 64 KiB worth); the parts
//!   are carved out of two flat arenas ([`DataArena`], [`AccessArena`]);
//! * every object carries a **level number** ([`Level`]) encoding relative
//!   lifetime; the hardware refuses to store an access descriptor into an
//!   object whose level is lower (more global) than the target's;
//! * object descriptors carry the tricolor **GC state** ([`Color`]) used by
//!   the on-the-fly collector, including the *gray bit* the hardware sets
//!   whenever access descriptors are moved.
//!
//! The checked view of table + arenas is [`ShardedSpace`], one or more
//! address-interleaved [`ObjectSpace`] shards, shared across host threads
//! through [`SpaceAgent`]s; all higher layers (the GDP interpreter, iMAX
//! itself) perform every memory and capability operation through one of
//! the two, so the protection checks in [`ObjectSpace`] are the single
//! enforcement point — exactly the property the paper attributes to the
//! 432 hardware.
//!
//! This crate is deliberately free of any notion of *processors*, *cycles*
//! or *instructions*; those live in `i432-gdp`.

#![warn(missing_docs)]

pub mod descriptor;
pub mod digest;
pub mod doorbell;
pub mod error;
pub mod level;
pub mod memory;
pub mod object_table;
pub mod portring;
pub mod qualcache;
pub mod refs;
pub mod rights;
pub mod shard;
pub mod space;
pub mod sysobj;
pub mod traits;

pub use descriptor::{Color, ObjectDescriptor, ObjectType, SystemType};
pub use digest::{check_invariants, digest_from_roots, logical_digest};
pub use doorbell::Doorbell;
pub use error::{ArchError, ArchResult};
pub use level::Level;
pub use memory::{AccessArena, DataArena, FreeList, Run};
pub use object_table::{Entry, ObjectTable};
pub use portring::{PortRing, PortRingRegistry, ReceiveInFlight, RingEntry, RingRefusal};
pub use qualcache::{QualCache, QualLine, QUAL_CACHE_LINES};
pub use refs::{AccessDescriptor, CodeRef, NativeId, ObjectIndex, ObjectRef};
pub use rights::Rights;
pub use shard::{ShardedSpace, SharedSpace, SpaceAgent};
pub use space::{ObjectSpace, ObjectSpec, SpaceStats};
pub use traits::{SpaceAccess, SpaceAccessExt, SpaceMut};

pub use sysobj::{
    CodeBody, ContextState, DomainState, PortDiscipline, PortState, PortStats, ProcessState,
    ProcessStatus, ProcessorState, ProcessorStatus, SroState, Subprogram, SysState, TdoState,
    WaiterKind,
};

/// A value padded and aligned to 128 bytes, so that it shares no cache
/// line, nor the adjacent line a host prefetches in pairs, with its
/// neighbours. State that one host thread writes while another reads
/// unrelated state nearby (a shard lock, a shard epoch, a ring end, a
/// runner's `done` flag) lives in one of these.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CacheLine<T>(pub T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Maximum length of either part of a segment, in bytes (paper §2: "each
/// part may be up to 64K bytes in length").
pub const MAX_PART_BYTES: u32 = 64 * 1024;

/// An access-descriptor slot models the 432's 4-byte access descriptor, so
/// the 64 KiB access-part limit translates to this many slots.
pub const MAX_ACCESS_SLOTS: u32 = MAX_PART_BYTES / 4;
