//! Object descriptors: the per-segment record in the global object table.

use crate::{level::Level, refs::ObjectRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The system types the 432 processor recognizes and interprets.
///
/// Paper §2: "The simplest type of object is *generic* for which no
/// additional semantics exist. Other types of objects are recognized by
/// the processor and are used to control its operation. Examples of these
/// are processor, process, storage resource, and port objects."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemType {
    /// No hardware-interpreted semantics.
    Generic,
    /// A physical processor's control object.
    Processor,
    /// A schedulable process.
    Process,
    /// An activation record created by CALL.
    Context,
    /// A protection domain (maps to an Ada package).
    Domain,
    /// A segment of executable instructions.
    Instructions,
    /// A communication or dispatching port.
    Port,
    /// A storage resource object describing free memory.
    StorageResource,
    /// A type definition object backing a user-defined type.
    TypeDefinition,
}

impl SystemType {
    /// Short display name used in faults and traces.
    pub const fn name(self) -> &'static str {
        match self {
            SystemType::Generic => "generic",
            SystemType::Processor => "processor",
            SystemType::Process => "process",
            SystemType::Context => "context",
            SystemType::Domain => "domain",
            SystemType::Instructions => "instructions",
            SystemType::Port => "port",
            SystemType::StorageResource => "storage-resource",
            SystemType::TypeDefinition => "type-definition",
        }
    }
}

/// The full type identity of an object.
///
/// Hardware-recognized system types are distinguished from user-defined
/// types, which are identified by an object reference to their type
/// definition object (TDO). The type travels with the object descriptor,
/// so "no matter what path a system object follows within the 432, its
/// hardware-recognized type identity is guaranteed to be preserved and
/// checked" (paper §7.2) — and the same guarantee extends to user types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectType {
    /// A type the processor interprets directly.
    System(SystemType),
    /// A user-defined type, identified by its type definition object.
    User(ObjectRef),
}

impl ObjectType {
    /// The generic (uninterpreted) type.
    pub const GENERIC: ObjectType = ObjectType::System(SystemType::Generic);

    /// Returns the system type if this is one.
    pub const fn system(self) -> Option<SystemType> {
        match self {
            ObjectType::System(t) => Some(t),
            ObjectType::User(_) => None,
        }
    }

    /// Returns the TDO reference if this is a user-defined type.
    pub const fn user_tdo(self) -> Option<ObjectRef> {
        match self {
            ObjectType::System(_) => None,
            ObjectType::User(tdo) => Some(tdo),
        }
    }
}

impl fmt::Display for ObjectType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectType::System(t) => write!(f, "{}", t.name()),
            ObjectType::User(tdo) => write!(f, "user({tdo})"),
        }
    }
}

/// Tricolor garbage-collection state stored in the object descriptor.
///
/// The 432 hardware implements "the gray bit of that algorithm
/// \[Dijkstra et al.\], setting it whenever access descriptors are moved"
/// (paper §8.1). The emulator keeps the full tricolor state in the
/// descriptor; the *write barrier* in [`crate::ShardedSpace::store_ad`]
/// performs the hardware's shade-to-gray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Color {
    /// Not yet reached in the current collection cycle; a white object at
    /// sweep time is garbage.
    #[default]
    White,
    /// Reached but not yet scanned (the hardware gray bit).
    Gray,
    /// Reached and fully scanned.
    Black,
}

/// A segment's record in the global object table.
///
/// Paper §2: "The one object descriptor for a given segment provides the
/// physical base address and length of the segment, indicates whether the
/// segment contains data or accesses, indicates what type of object it
/// represents, and includes information needed for virtual memory
/// management and parallel garbage collection."
///
/// The emulator's segments always carry *both* parts (either may be
/// zero-length), each carved from its own arena.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectDescriptor {
    /// Base offset of the data part in the data arena.
    pub data_base: u32,
    /// Length of the data part in bytes (≤ [`crate::MAX_PART_BYTES`]).
    pub data_len: u32,
    /// Base slot of the access part in the access arena.
    pub access_base: u32,
    /// Length of the access part in slots (≤ [`crate::MAX_ACCESS_SLOTS`]).
    pub access_len: u32,
    /// Type identity of the object.
    pub otype: ObjectType,
    /// Lifetime level (see [`Level`]).
    pub level: Level,
    /// The storage resource object the segment was allocated from, if any
    /// (the root SRO and bootstrap objects have none). Used for accounting
    /// and for level-scoped bulk destruction of local heaps.
    pub sro: Option<ObjectRef>,
    /// Garbage-collection color.
    pub color: Color,
    /// Set once a destruction filter has been notified about this object,
    /// so a resurrected-then-dropped object is reclaimed without a second
    /// notification.
    pub filter_notified: bool,
    /// Virtual-memory: segment contents are currently on backing store.
    pub absent: bool,
    /// Virtual-memory: referenced since the bit was last cleared.
    pub accessed: bool,
    /// Virtual-memory: written since the bit was last cleared.
    pub dirty: bool,
}

impl ObjectDescriptor {
    /// Creates a descriptor for a segment with the given parts.
    pub fn new(
        data_base: u32,
        data_len: u32,
        access_base: u32,
        access_len: u32,
        otype: ObjectType,
        level: Level,
    ) -> ObjectDescriptor {
        ObjectDescriptor {
            data_base,
            data_len,
            access_base,
            access_len,
            otype,
            level,
            sro: None,
            color: Color::White,
            filter_notified: false,
            absent: false,
            accessed: false,
            dirty: false,
        }
    }

    /// Total footprint in data-arena bytes.
    #[inline]
    pub const fn data_bytes(&self) -> u32 {
        self.data_len
    }

    /// Total footprint in access-arena slots.
    #[inline]
    pub const fn access_slots(&self) -> u32 {
        self.access_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::ObjectIndex;

    #[test]
    fn object_type_projections() {
        let t = ObjectType::System(SystemType::Port);
        assert_eq!(t.system(), Some(SystemType::Port));
        assert_eq!(t.user_tdo(), None);

        let tdo = ObjectRef {
            index: ObjectIndex(9),
            generation: 0,
        };
        let u = ObjectType::User(tdo);
        assert_eq!(u.system(), None);
        assert_eq!(u.user_tdo(), Some(tdo));
    }

    #[test]
    fn descriptor_defaults_are_clean() {
        let d = ObjectDescriptor::new(0, 16, 0, 4, ObjectType::GENERIC, Level::GLOBAL);
        assert_eq!(d.color, Color::White);
        assert!(!d.absent && !d.dirty && !d.accessed && !d.filter_notified);
        assert_eq!(d.sro, None);
    }

    #[test]
    fn system_type_names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<_> = [
            SystemType::Generic,
            SystemType::Processor,
            SystemType::Process,
            SystemType::Context,
            SystemType::Domain,
            SystemType::Instructions,
            SystemType::Port,
            SystemType::StorageResource,
            SystemType::TypeDefinition,
        ]
        .iter()
        .map(|t| t.name())
        .collect();
        assert_eq!(names.len(), 9);
    }
}
