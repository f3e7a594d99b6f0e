//! Reference types: object indices, generation-checked references, and
//! access descriptors (the 432's capabilities).

use crate::rights::Rights;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An index into the global object table.
///
/// On the 432 this is the "directory index / segment index" pair packed in
/// an access descriptor; the emulator flattens it to one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectIndex(pub u32);

impl fmt::Display for ObjectIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A generation-checked reference to an object-table entry.
///
/// Real 432 access descriptors carry only the index; reclamation safety is
/// guaranteed because segments are reclaimed only when provably
/// unreachable (garbage collection, or level-scoped bulk destruction).
/// The emulator additionally carries a *generation* so that any software
/// bug that violates that guarantee is detected as [`crate::ArchError::StaleRef`]
/// rather than silently addressing a recycled descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Index of the entry in the object table.
    pub index: ObjectIndex,
    /// Generation of the entry at the time the reference was minted.
    pub generation: u32,
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}g{}", self.index, self.generation)
    }
}

/// An access descriptor: the 432's capability.
///
/// Paper §2: "Access descriptors or capabilities name entries in a global
/// object descriptor table ... Each access descriptor (there may be many)
/// for a given object contains rights flags that control the access
/// available via that access descriptor."
///
/// Access descriptors are *data* to the emulator — they can be copied
/// freely — but they can only ever be fabricated by the object-creation
/// path or derived (with equal or fewer rights) from an existing one, and
/// they can only be *stored into objects* through the checked
/// [`crate::ShardedSpace::store_ad`] path which enforces the level rule and
/// runs the garbage collector's write barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessDescriptor {
    /// The object this descriptor designates.
    pub obj: ObjectRef,
    /// The rights this descriptor conveys.
    pub rights: Rights,
}

impl AccessDescriptor {
    /// Creates a descriptor for `obj` conveying `rights`.
    #[inline]
    pub const fn new(obj: ObjectRef, rights: Rights) -> AccessDescriptor {
        AccessDescriptor { obj, rights }
    }

    /// Returns a copy of this descriptor with rights restricted to `keep`.
    /// Restriction can only remove rights (see [`Rights::restrict`]).
    #[inline]
    pub const fn restricted(self, keep: Rights) -> AccessDescriptor {
        AccessDescriptor {
            obj: self.obj,
            rights: self.rights.restrict(keep),
        }
    }

    /// True when this descriptor conveys all rights in `needed`.
    #[inline]
    pub const fn allows(self, needed: Rights) -> bool {
        self.rights.contains(needed)
    }
}

impl fmt::Display for AccessDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AD({} {})", self.obj, self.rights)
    }
}

/// A handle naming an instruction segment's code body in the processor's
/// code store (`i432-gdp`). The architectural layer treats it as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeRef(pub u32);

/// A handle naming a registered native (Rust-implemented) subprogram body.
///
/// iMAX services are native bodies invoked through the same CALL machinery
/// as interpreted code, preserving the paper's "no difference whatsoever
/// between calling an operating system subprogram and calling some
/// user-defined subprogram".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NativeId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    fn some_ref() -> ObjectRef {
        ObjectRef {
            index: ObjectIndex(7),
            generation: 2,
        }
    }

    #[test]
    fn restriction_preserves_target() {
        let ad = AccessDescriptor::new(some_ref(), Rights::ALL);
        let r = ad.restricted(Rights::READ | Rights::SEND);
        assert_eq!(r.obj, ad.obj);
        assert!(r.allows(Rights::READ));
        assert!(r.allows(Rights::SEND));
        assert!(!r.allows(Rights::WRITE));
    }

    #[test]
    fn allows_checks_conjunction() {
        let ad = AccessDescriptor::new(some_ref(), Rights::READ | Rights::WRITE);
        assert!(ad.allows(Rights::READ | Rights::WRITE));
        assert!(!ad.allows(Rights::READ | Rights::SEND));
    }

    #[test]
    fn display_formats() {
        let ad = AccessDescriptor::new(some_ref(), Rights::READ);
        assert_eq!(ad.to_string(), "AD(#7g2 {R})");
    }
}
