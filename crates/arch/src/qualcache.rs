//! Per-processor descriptor qualification cache.
//!
//! The 432 kept qualified object descriptors in an on-chip cache so the
//! common case — an instruction touching an object it just touched —
//! paid no object-table walk. This module is the emulator's analogue:
//! each [`crate::SpaceAgent`] (one per host thread, i.e. per emulated
//! processor) keeps a small **direct-mapped** cache from object index to
//! the qualified descriptor fields the data path needs (arena base,
//! part length, residency and usage bits), consulted *before* taking
//! any shard lock.
//!
//! ## Invalidation protocol (epoch seqlock)
//!
//! Each shard of a [`crate::SharedSpace`] carries a generation counter
//! (its *epoch*) on its own cache line. Every operation that can change
//! a cached fact — an object's identity, data base or length, residency
//! or `accessed`/`dirty` bits — bumps its own shard's epoch **before
//! mutating**, while holding the shard lock, and publishes the bump with
//! a release fence. Those operations are object destruction (and so
//! bulk reclamation), raw table-entry mutation, mutable data-arena
//! access (compaction, swap-in) and the mutable live-entry walk; the
//! shard's own methods do the bump ([`crate::ObjectSpace::entry_mut`]
//! and its siblings), so it happens alike under one shard lock and
//! inside an all-shard atomic section, and a section bumps nothing by
//! itself. A cache line records the epoch observed (under the lock)
//! when it was primed; a hit is only *used* when the shard's current
//! epoch still equals the line's. Readers re-check the epoch *after*
//! copying bytes out of the arena (the classic seqlock read protocol),
//! so a validate–mutate race is detected and the access retries through
//! the locked path. Mutations that cannot change any cached fact do
//! **not** bump: AD stores, GC coloring, object creation (which only
//! reuses storage whose destroy already bumped), interpreted-`sys`-state
//! updates via [`crate::SpaceAccess::with_sys_mut`], and data reads and
//! writes, which turn `accessed`/`dirty` from false to true only (a line
//! with either bit false already refuses the fast path). That is what
//! keeps the interpreter's per-step bookkeeping and every port
//! rendezvous from evicting the processors' hot lines.
//!
//! Epochs compare by equality, so `u64` wraparound is harmless: a stale
//! line is revalidated only if the epoch returns to the *exact* value it
//! was primed at, which after a bump requires 2^64 further bumps.

use crate::refs::{ObjectIndex, ObjectRef};

/// Number of lines in the direct-mapped cache. Power of two; the line
/// for object index `i` is `i & (LINES - 1)`. 64 lines cover the
/// working set of one emulated processor (context + a handful of
/// operand objects) while keeping the probe a single indexed load.
pub const QUAL_CACHE_LINES: usize = 64;

/// One cached qualification: the descriptor facts the lock-free data
/// path needs, plus the identity and epoch that validate them.
#[derive(Debug, Clone, Copy)]
pub struct QualLine {
    /// Full identity (index *and* generation) of the cached object.
    pub obj: ObjectRef,
    /// Shard epoch observed, under the shard lock, when this line was
    /// primed.
    pub epoch: u64,
    /// Data-part base offset in the shard's arena.
    pub data_base: u32,
    /// Data-part length in bytes (the bounds check).
    pub data_len: u32,
    /// The descriptor's `accessed` bit was already set when primed; a
    /// lock-free read would otherwise lose the residency-bit update.
    pub accessed: bool,
    /// The descriptor's `dirty` bit was already set when primed; a
    /// lock-free write would otherwise lose the dirty-bit update.
    pub dirty: bool,
    /// Whether this line holds anything at all.
    pub valid: bool,
}

impl QualLine {
    const EMPTY: QualLine = QualLine {
        obj: ObjectRef {
            index: ObjectIndex(0),
            generation: 0,
        },
        epoch: 0,
        data_base: 0,
        data_len: 0,
        accessed: false,
        dirty: false,
        valid: false,
    };
}

/// A direct-mapped qualification cache (one per agent/thread; never
/// shared, so probes and fills are plain loads and stores).
#[derive(Debug, Clone)]
pub struct QualCache {
    lines: [QualLine; QUAL_CACHE_LINES],
}

impl Default for QualCache {
    fn default() -> QualCache {
        QualCache::new()
    }
}

impl QualCache {
    /// An empty cache.
    pub fn new() -> QualCache {
        QualCache {
            lines: [QualLine::EMPTY; QUAL_CACHE_LINES],
        }
    }

    /// The line index object `r` maps to.
    #[inline]
    pub fn slot_of(r: ObjectRef) -> usize {
        (r.index.0 as usize) & (QUAL_CACHE_LINES - 1)
    }

    /// Probes for `r`. Returns the line only on an identity match
    /// (index and generation) of a valid line; epoch validation is the
    /// caller's job (it owns the shard epoch).
    #[inline]
    pub fn probe(&self, r: ObjectRef) -> Option<&QualLine> {
        let line = &self.lines[QualCache::slot_of(r)];
        (line.valid && line.obj == r).then_some(line)
    }

    /// Installs (or replaces) the line for `line.obj`.
    #[inline]
    pub fn fill(&mut self, line: QualLine) {
        self.lines[QualCache::slot_of(line.obj)] = QualLine {
            valid: true,
            ..line
        };
    }

    /// Drops the line currently mapping `r`'s slot (on epoch mismatch
    /// or failed revalidation). Harmless if the slot holds another
    /// object or nothing.
    #[inline]
    pub fn evict(&mut self, r: ObjectRef) {
        self.lines[QualCache::slot_of(r)].valid = false;
    }

    /// Drops every line.
    pub fn clear(&mut self) {
        self.lines = [QualLine::EMPTY; QUAL_CACHE_LINES];
    }

    /// Number of valid lines (diagnostics/tests).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(index: u32, generation: u32) -> ObjectRef {
        ObjectRef {
            index: ObjectIndex(index),
            generation,
        }
    }

    fn line(o: ObjectRef) -> QualLine {
        QualLine {
            obj: o,
            epoch: 7,
            data_base: 32,
            data_len: 16,
            accessed: true,
            dirty: false,
            valid: true,
        }
    }

    #[test]
    fn probe_hits_only_exact_identity() {
        let mut c = QualCache::new();
        let a = obj(3, 1);
        c.fill(line(a));
        assert!(c.probe(a).is_some());
        // Same index, different generation: a reused table slot must
        // never hit.
        assert!(c.probe(obj(3, 2)).is_none());
        assert!(c.probe(obj(4, 1)).is_none());
    }

    #[test]
    fn direct_mapping_aliases_evict_each_other() {
        let mut c = QualCache::new();
        let a = obj(5, 1);
        let b = obj(5 + QUAL_CACHE_LINES as u32, 1);
        assert_eq!(QualCache::slot_of(a), QualCache::slot_of(b));
        c.fill(line(a));
        c.fill(line(b));
        assert!(c.probe(a).is_none(), "aliased fill replaces the line");
        assert!(c.probe(b).is_some());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn evict_clears_only_the_mapped_slot() {
        let mut c = QualCache::new();
        let a = obj(1, 1);
        let b = obj(2, 1);
        c.fill(line(a));
        c.fill(line(b));
        c.evict(a);
        assert!(c.probe(a).is_none());
        assert!(c.probe(b).is_some());
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }
}
