//! The global object descriptor table.
//!
//! Paper §2: "Access descriptors or capabilities name entries in a global
//! object descriptor table. Each object descriptor in this table describes
//! a segment..."
//!
//! Entries are recycled; each carries a *generation* that is bumped on
//! reclamation so stale references are detected (see
//! [`crate::refs::ObjectRef`]).
//!
//! # Two-level demand-grown directory
//!
//! Entry storage is a two-level directory rather than a flat vector: a
//! *root page* of [`AtomicPtr`] leaf pointers, one per
//! [`LEAF_ENTRIES`]-entry *leaf page*, with leaves allocated on first
//! touch. Lookup is O(1) (`slot >> LEAF_SHIFT` into the root, `slot &
//! LEAF_MASK` into the leaf), `ObjectIndex` values are stable (a leaf is
//! never moved or freed while the table lives), and the capacity ceiling
//! is still `limit` — but a table with a million-entry ceiling and a
//! thousand live objects holds exactly one leaf page, not a
//! million-entry vector.
//!
//! Leaf pointers are published with `Release` stores and read with
//! `Acquire` loads so a reader that reaches a leaf through the root page
//! always observes its initialized contents; all *mutation* of entries
//! still happens under whatever exclusion the embedding space provides
//! (the per-shard locks of `SharedSpace`), exactly as with the flat
//! vector — the directory changes the storage shape, not the locking
//! protocol. The per-processor qualification cache is likewise
//! untouched: its probes are exact on `(index, generation)` and its fast
//! path never reads the table, so generation-tagged slot reuse keeps
//! stale hits impossible across directory growth.
//!
//! Every leaf tracks its own live-entry count, so iteration and the
//! collector's sweep skip all-free and unallocated pages in O(1) each:
//! [`ObjectTable::iter_live`] is O(live + touched pages), never
//! O(limit).

use crate::{
    descriptor::{ObjectDescriptor, ObjectType},
    error::{ArchError, ArchResult},
    level::Level,
    refs::{ObjectIndex, ObjectRef},
    sysobj::SysState,
};
use std::sync::atomic::{AtomicPtr, Ordering};

/// Log2 of the entries per leaf page.
pub const LEAF_SHIFT: u32 = 10;
/// Entries per leaf page of the two-level directory.
pub const LEAF_ENTRIES: u32 = 1 << LEAF_SHIFT;
/// Mask extracting the within-leaf slot.
pub const LEAF_MASK: u32 = LEAF_ENTRIES - 1;

/// Division and remainder by a divisor fixed at construction, through a
/// precomputed multiplier instead of a hardware divide (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019). Exact for every
/// `u32` numerator and nonzero `u32` divisor. Shard routing and strided
/// table lookups run it on every object access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u32,
    /// `ceil(2^64 / d)`, which wraps to 0 for `d == 1`.
    m: u64,
}

impl Divisor {
    pub(crate) fn new(d: u32) -> Divisor {
        assert!(d >= 1, "divisor must be nonzero");
        Divisor {
            d,
            m: (u64::MAX / d as u64).wrapping_add(1),
        }
    }

    /// `a % d`.
    #[inline]
    pub(crate) fn rem(self, a: u32) -> u32 {
        let frac = self.m.wrapping_mul(a as u64);
        ((frac as u128 * self.d as u128) >> 64) as u32
    }

    /// `a / d`.
    #[inline]
    pub(crate) fn div(self, a: u32) -> u32 {
        if self.d == 1 {
            return a;
        }
        ((self.m as u128 * a as u128) >> 64) as u32
    }
}

/// One object-table entry: descriptor plus interpreted system state.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The architectural descriptor.
    pub desc: ObjectDescriptor,
    /// Hardware-interpreted state (queues, scheduling fields, free lists).
    pub sys: SysState,
    /// Generation counter for stale-reference detection.
    pub generation: u32,
    /// Whether the entry currently describes a live segment.
    pub allocated: bool,
}

impl Entry {
    /// A never-allocated placeholder entry, used to pre-fill the tail of
    /// a freshly touched leaf page. Placeholders are unobservable: every
    /// resolution path checks the slot against the dense materialized
    /// bound first, and iteration filters on `allocated`.
    fn vacant() -> Entry {
        Entry {
            desc: ObjectDescriptor::new(0, 0, 0, 0, ObjectType::GENERIC, Level::GLOBAL),
            sys: SysState::Generic,
            generation: 0,
            allocated: false,
        }
    }
}

/// One leaf page: a fixed block of entries plus its live count, so
/// sweeps and iteration can skip an all-free page in O(1).
#[derive(Debug)]
struct Leaf {
    entries: Vec<Entry>,
    /// Allocated entries on this page.
    live: u32,
}

impl Leaf {
    fn new() -> Leaf {
        Leaf {
            entries: (0..LEAF_ENTRIES).map(|_| Entry::vacant()).collect(),
            live: 0,
        }
    }
}

/// The global object table.
///
/// A table may cover the whole object-index space (`stride == 1`) or an
/// address-interleaved *shard* of it: with stride `n` and offset `k`,
/// the table owns exactly the global indices `i` with `i % n == k`.
/// Entry storage is dense (local slot `s` holds global index
/// `s * n + k`) behind the two-level directory described in the module
/// docs, so sharding costs no memory and the unsharded case degenerates
/// to the identity mapping.
#[derive(Debug)]
pub struct ObjectTable {
    /// Root page: one pointer per leaf page, null until first touch.
    root: Vec<AtomicPtr<Leaf>>,
    /// Free *local* slots available for recycling.
    free: Vec<u32>,
    /// Dense local slots ever materialized (the flat table's
    /// `entries.len()`): fresh installs always take slot `used`.
    used: u32,
    /// Maintained live-entry count (`used - free.len()`, kept
    /// incrementally so it is O(1), reconciled by
    /// [`ObjectTable::debug_validate`]).
    live: u32,
    /// Leaf pages currently allocated.
    leaf_pages: u32,
    limit: u32,
    stride: u32,
    offset: u32,
    /// `stride` as a [`Divisor`], for [`ObjectTable::local`].
    stride_div: Divisor,
}

// SAFETY: the raw leaf pointers are owned exclusively by this table (set
// only while `&mut self`, freed only on drop), and `Entry` is itself
// Send + Sync-safe data. `AtomicPtr` already implements both; these
// impls assert the same for the pointed-to leaves.
unsafe impl Send for ObjectTable {}
unsafe impl Sync for ObjectTable {}

impl Drop for ObjectTable {
    fn drop(&mut self) {
        for p in &self.root {
            let leaf = p.load(Ordering::Acquire);
            if !leaf.is_null() {
                // SAFETY: non-null root pointers were created by
                // Box::into_raw in ensure_leaf and never freed elsewhere.
                drop(unsafe { Box::from_raw(leaf) });
            }
        }
    }
}

impl Clone for ObjectTable {
    fn clone(&self) -> ObjectTable {
        let root = self
            .root
            .iter()
            .map(|p| {
                let leaf = p.load(Ordering::Acquire);
                if leaf.is_null() {
                    AtomicPtr::new(std::ptr::null_mut())
                } else {
                    // SAFETY: non-null pointers reference live leaves
                    // owned by `self`.
                    let copy = unsafe { (*leaf).entries.clone() };
                    let live = unsafe { (*leaf).live };
                    AtomicPtr::new(Box::into_raw(Box::new(Leaf {
                        entries: copy,
                        live,
                    })))
                }
            })
            .collect();
        ObjectTable {
            root,
            free: self.free.clone(),
            used: self.used,
            live: self.live,
            leaf_pages: self.leaf_pages,
            limit: self.limit,
            stride: self.stride,
            offset: self.offset,
            stride_div: self.stride_div,
        }
    }
}

impl ObjectTable {
    /// A table that may grow up to `limit` entries, covering the whole
    /// index space.
    pub fn new(limit: u32) -> ObjectTable {
        ObjectTable::new_strided(limit, 1, 0)
    }

    /// A table owning the interleaved index class `offset (mod stride)`.
    pub fn new_strided(limit: u32, stride: u32, offset: u32) -> ObjectTable {
        assert!(stride >= 1 && offset < stride, "bad shard interleave");
        let root_len = (limit as usize).div_ceil(LEAF_ENTRIES as usize);
        ObjectTable {
            root: (0..root_len)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            free: Vec::new(),
            used: 0,
            live: 0,
            leaf_pages: 0,
            limit,
            stride,
            offset,
            stride_div: Divisor::new(stride),
        }
    }

    /// Maps a global object index to this table's dense local slot.
    /// `None` if the index belongs to a different shard.
    fn local(&self, i: ObjectIndex) -> Option<u32> {
        if self.stride == 1 {
            return Some(i.0);
        }
        if self.stride_div.rem(i.0) == self.offset {
            Some(self.stride_div.div(i.0))
        } else {
            None
        }
    }

    /// Maps a dense local slot back to its global object index.
    fn global(&self, slot: u32) -> ObjectIndex {
        ObjectIndex(slot * self.stride + self.offset)
    }

    /// The leaf holding `slot`, if that page has been touched.
    fn leaf(&self, page: u32) -> Option<&Leaf> {
        let p = self.root.get(page as usize)?.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: non-null root pointers reference leaves owned by
            // this table; shared access is covered by `&self`.
            Some(unsafe { &*p })
        }
    }

    /// Mutable variant of [`ObjectTable::leaf`].
    fn leaf_mut(&mut self, page: u32) -> Option<&mut Leaf> {
        let p = self.root.get(page as usize)?.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: exclusive access through `&mut self`.
            Some(unsafe { &mut *p })
        }
    }

    /// Allocates (on first touch) and returns the leaf page for `slot`.
    fn ensure_leaf(&mut self, page: u32) -> &mut Leaf {
        let cell = &self.root[page as usize];
        if cell.load(Ordering::Acquire).is_null() {
            let fresh = Box::into_raw(Box::new(Leaf::new()));
            cell.store(fresh, Ordering::Release);
            self.leaf_pages += 1;
            i432_trace::bump(i432_trace::Counter::TableLeafPages);
        }
        self.leaf_mut(page).expect("just ensured")
    }

    /// Resolves a materialized dense slot to its entry. `None` when the
    /// slot has never been handed out (`slot >= used`).
    fn slot_entry(&self, slot: u32) -> Option<&Entry> {
        if slot >= self.used {
            return None;
        }
        self.leaf(slot >> LEAF_SHIFT)
            .map(|l| &l.entries[(slot & LEAF_MASK) as usize])
    }

    /// Mutable variant of [`ObjectTable::slot_entry`].
    fn slot_entry_mut(&mut self, slot: u32) -> Option<&mut Entry> {
        if slot >= self.used {
            return None;
        }
        self.leaf_mut(slot >> LEAF_SHIFT)
            .map(|l| &mut l.entries[(slot & LEAF_MASK) as usize])
    }

    /// Number of live (allocated) entries. O(1): maintained on
    /// install/reclaim rather than scanned.
    pub fn live_count(&self) -> u32 {
        self.live
    }

    /// Total entries ever materialized (live + recyclable). O(1).
    pub fn capacity_used(&self) -> u32 {
        self.used
    }

    /// Maximum entries the table may hold.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Leaf pages currently allocated in the directory.
    pub fn leaf_pages(&self) -> u32 {
        self.leaf_pages
    }

    /// One past the largest global index this table can currently
    /// resolve. Sweeps that scan by bare index must use this bound
    /// rather than [`ObjectTable::capacity_used`], which counts dense
    /// local slots and is not a valid index bound once `stride > 1`.
    pub fn index_space_end(&self) -> u32 {
        match self.used {
            0 => 0,
            n => (n - 1) * self.stride + self.offset + 1,
        }
    }

    /// Reconciles the maintained counters against a full directory scan.
    /// Debug/test-only sanity check — O(used), which is exactly what the
    /// maintained counters exist to avoid on hot paths.
    pub fn debug_validate(&self) {
        let mut live = 0u32;
        let mut pages = 0u32;
        for page in 0..self.root.len() as u32 {
            let Some(l) = self.leaf(page) else { continue };
            pages += 1;
            let scanned = l.entries.iter().filter(|e| e.allocated).count() as u32;
            assert_eq!(
                scanned, l.live,
                "leaf {page}: live counter {} != scanned {scanned}",
                l.live
            );
            live += scanned;
        }
        assert_eq!(live, self.live, "table live counter diverged from scan");
        assert_eq!(pages, self.leaf_pages, "leaf-page counter diverged");
        assert_eq!(
            self.used as usize - self.free.len(),
            self.live as usize,
            "used/free/live accounting diverged"
        );
    }

    /// Installs a new entry, returning a fresh reference to it.
    pub fn install(&mut self, desc: ObjectDescriptor, sys: SysState) -> ArchResult<ObjectRef> {
        if let Some(slot) = self.free.pop() {
            let index = self.global(slot);
            let leaf = self
                .leaf_mut(slot >> LEAF_SHIFT)
                .expect("freed slot lies on a touched page");
            leaf.live += 1;
            let e = &mut leaf.entries[(slot & LEAF_MASK) as usize];
            debug_assert!(!e.allocated);
            e.desc = desc;
            e.sys = sys;
            e.allocated = true;
            let generation = e.generation;
            self.live += 1;
            i432_trace::bump_max(
                i432_trace::Counter::TableOccupancyPeak,
                u64::from(self.live),
            );
            return Ok(ObjectRef { index, generation });
        }
        if self.used >= self.limit {
            return Err(ArchError::TableExhausted);
        }
        let slot = self.used;
        let leaf = self.ensure_leaf(slot >> LEAF_SHIFT);
        leaf.live += 1;
        let e = &mut leaf.entries[(slot & LEAF_MASK) as usize];
        e.desc = desc;
        e.sys = sys;
        e.generation = 0;
        e.allocated = true;
        self.used += 1;
        self.live += 1;
        i432_trace::bump_max(
            i432_trace::Counter::TableOccupancyPeak,
            u64::from(self.live),
        );
        Ok(ObjectRef {
            index: self.global(slot),
            generation: 0,
        })
    }

    /// Reclaims an entry, bumping its generation. The caller is
    /// responsible for having returned the segment's storage first.
    pub fn reclaim(&mut self, r: ObjectRef) -> ArchResult<Entry> {
        // Validate before mutating.
        self.get(r)?;
        let slot = self.local(r.index).expect("validated above");
        let leaf = self
            .leaf_mut(slot >> LEAF_SHIFT)
            .expect("validated slot lies on a touched page");
        leaf.live -= 1;
        let e = &mut leaf.entries[(slot & LEAF_MASK) as usize];
        let old = e.clone();
        e.allocated = false;
        e.generation = e.generation.wrapping_add(1);
        e.sys = SysState::Generic;
        self.free.push(slot);
        self.live -= 1;
        Ok(old)
    }

    /// Resolves a reference to its entry, checking liveness and generation.
    pub fn get(&self, r: ObjectRef) -> ArchResult<&Entry> {
        let slot = self.local(r.index).ok_or(ArchError::BadIndex(r.index))?;
        let e = self.slot_entry(slot).ok_or(ArchError::BadIndex(r.index))?;
        if !e.allocated {
            return Err(ArchError::FreeEntry(r.index));
        }
        if e.generation != r.generation {
            return Err(ArchError::StaleRef(r.index));
        }
        Ok(e)
    }

    /// Mutable variant of [`ObjectTable::get`].
    pub fn get_mut(&mut self, r: ObjectRef) -> ArchResult<&mut Entry> {
        let slot = self.local(r.index).ok_or(ArchError::BadIndex(r.index))?;
        let e = self
            .slot_entry_mut(slot)
            .ok_or(ArchError::BadIndex(r.index))?;
        if !e.allocated {
            return Err(ArchError::FreeEntry(r.index));
        }
        if e.generation != r.generation {
            return Err(ArchError::StaleRef(r.index));
        }
        Ok(e)
    }

    /// Resolves by bare index (used by the garbage collector's sweep,
    /// which scans the whole table rather than holding references).
    /// Indices belonging to another shard resolve to `None`.
    pub fn get_by_index(&self, i: ObjectIndex) -> Option<&Entry> {
        let slot = self.local(i)?;
        self.slot_entry(slot).filter(|e| e.allocated)
    }

    /// Returns the current full reference for a live index.
    pub fn ref_for(&self, i: ObjectIndex) -> ArchResult<ObjectRef> {
        let slot = self.local(i).ok_or(ArchError::BadIndex(i))?;
        let e = self.slot_entry(slot).ok_or(ArchError::BadIndex(i))?;
        if !e.allocated {
            return Err(ArchError::FreeEntry(i));
        }
        Ok(ObjectRef {
            index: i,
            generation: e.generation,
        })
    }

    /// The lowest materialized local slot `>= slot` that could hold a
    /// live entry, skipping all-free and unallocated leaf pages in O(1)
    /// each; `used` when no later page holds one. Sweeps use this to
    /// jump dead directory ranges instead of probing every index.
    pub fn next_live_slot_hint(&self, slot: u32) -> u32 {
        let mut s = slot;
        while s < self.used {
            match self.leaf(s >> LEAF_SHIFT) {
                Some(l) if l.live > 0 => return s,
                _ => s = (s >> LEAF_SHIFT).wrapping_add(1) << LEAF_SHIFT,
            }
        }
        self.used
    }

    /// The lowest *global* index `>= from` owned by this table that
    /// could hold a live entry, or [`ObjectTable::index_space_end`] when
    /// none remains. Page-granular: the hint never skips a live entry
    /// but may land on a dead one within a live page.
    pub fn next_live_index_hint(&self, from: u32) -> u32 {
        // Smallest owned slot whose global index is >= from.
        let slot = if from <= self.offset {
            0
        } else {
            (from - self.offset).div_ceil(self.stride)
        };
        let hint = self.next_live_slot_hint(slot);
        if hint >= self.used {
            self.index_space_end()
        } else {
            self.global(hint).0
        }
    }

    /// Visits every live entry whose global index lies in
    /// `[start, end)`, in ascending index order. Returns the number of
    /// leaf pages probed — O(live-in-range + pages), never O(range).
    pub fn for_live_in_range(
        &self,
        start: u32,
        end: u32,
        f: &mut dyn FnMut(ObjectIndex, &Entry),
    ) -> u32 {
        if end <= start || self.used == 0 {
            return 0;
        }
        // Owned dense slots covering [start, end).
        let lo = if start <= self.offset {
            0
        } else {
            (start - self.offset).div_ceil(self.stride)
        };
        let hi = if end <= self.offset {
            0
        } else {
            ((end - 1 - self.offset) / self.stride + 1).min(self.used)
        };
        let mut pages_probed = 0;
        let mut s = lo;
        while s < hi {
            let page = s >> LEAF_SHIFT;
            let page_end = ((page + 1) << LEAF_SHIFT).min(hi);
            pages_probed += 1;
            match self.leaf(page) {
                Some(l) if l.live > 0 => {
                    for slot in s..page_end {
                        let e = &l.entries[(slot & LEAF_MASK) as usize];
                        if e.allocated {
                            f(self.global(slot), e);
                        }
                    }
                }
                _ => {}
            }
            s = page_end;
        }
        pages_probed
    }

    /// Iterates all live entries with their (global) indices. Cost is
    /// O(live + touched pages): all-free leaf pages are skipped via
    /// their live counts and unallocated pages via their null pointers.
    pub fn iter_live(&self) -> impl Iterator<Item = (ObjectIndex, &Entry)> + '_ {
        let pages = (self.used as usize).div_ceil(LEAF_ENTRIES as usize) as u32;
        (0..pages)
            .filter_map(move |page| self.leaf(page).filter(|l| l.live > 0).map(|l| (page, l)))
            .flat_map(move |(page, l)| {
                let base = page << LEAF_SHIFT;
                let len = (self.used - base).min(LEAF_ENTRIES);
                l.entries[..len as usize]
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.allocated)
                    .map(move |(i, e)| (self.global(base + i as u32), e))
            })
    }

    /// Mutable iteration over all live entries (collector sweep). Same
    /// page-skipping cost shape as [`ObjectTable::iter_live`].
    pub fn iter_live_mut(&mut self) -> impl Iterator<Item = (ObjectIndex, &mut Entry)> + '_ {
        let stride = self.stride;
        let offset = self.offset;
        let used = self.used;
        let pages = (used as usize).div_ceil(LEAF_ENTRIES as usize) as u32;
        let root = &self.root;
        (0..pages)
            .filter_map(move |page| {
                let p = root[page as usize].load(Ordering::Acquire);
                // SAFETY: exclusive access through `&mut self` (the
                // borrow is threaded through the returned iterator);
                // each page is visited exactly once, so the &mut
                // entries handed out never alias.
                let l = unsafe { p.as_mut()? };
                if l.live > 0 {
                    Some((page, l))
                } else {
                    None
                }
            })
            .flat_map(move |(page, l)| {
                let base = page << LEAF_SHIFT;
                let len = (used - base).min(LEAF_ENTRIES);
                l.entries[..len as usize]
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, e)| e.allocated)
                    .map(move |(i, e)| (ObjectIndex((base + i as u32) * stride + offset), e))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{descriptor::ObjectType, level::Level};

    fn desc() -> ObjectDescriptor {
        ObjectDescriptor::new(0, 8, 0, 2, ObjectType::GENERIC, Level::GLOBAL)
    }

    #[test]
    fn install_get_reclaim_cycle() {
        let mut t = ObjectTable::new(16);
        let r = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(t.live_count(), 1);
        assert!(t.get(r).is_ok());
        t.reclaim(r).unwrap();
        assert_eq!(t.live_count(), 0);
        assert!(matches!(t.get(r), Err(ArchError::FreeEntry(_))));
        t.debug_validate();
    }

    #[test]
    fn stale_reference_detected_after_reuse() {
        let mut t = ObjectTable::new(16);
        let r1 = t.install(desc(), SysState::Generic).unwrap();
        t.reclaim(r1).unwrap();
        let r2 = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(r1.index, r2.index, "entry should be recycled");
        assert!(matches!(t.get(r1), Err(ArchError::StaleRef(_))));
        assert!(t.get(r2).is_ok());
    }

    #[test]
    fn table_limit_enforced() {
        let mut t = ObjectTable::new(2);
        t.install(desc(), SysState::Generic).unwrap();
        t.install(desc(), SysState::Generic).unwrap();
        assert!(matches!(
            t.install(desc(), SysState::Generic),
            Err(ArchError::TableExhausted)
        ));
    }

    #[test]
    fn reclaim_frees_capacity_under_limit() {
        let mut t = ObjectTable::new(1);
        let r = t.install(desc(), SysState::Generic).unwrap();
        t.reclaim(r).unwrap();
        assert!(t.install(desc(), SysState::Generic).is_ok());
    }

    #[test]
    fn iter_live_skips_reclaimed() {
        let mut t = ObjectTable::new(8);
        let a = t.install(desc(), SysState::Generic).unwrap();
        let _b = t.install(desc(), SysState::Generic).unwrap();
        t.reclaim(a).unwrap();
        assert_eq!(t.iter_live().count(), 1);
    }

    #[test]
    fn ref_for_tracks_generation() {
        let mut t = ObjectTable::new(8);
        let a = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(t.ref_for(a.index).unwrap(), a);
        t.reclaim(a).unwrap();
        assert!(t.ref_for(a.index).is_err());
        let b = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(t.ref_for(b.index).unwrap().generation, b.generation);
    }

    #[test]
    fn bad_index_reported() {
        let t = ObjectTable::new(8);
        let bogus = ObjectRef {
            index: ObjectIndex(99),
            generation: 0,
        };
        assert!(matches!(t.get(bogus), Err(ArchError::BadIndex(_))));
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let edges = [
            0,
            1,
            1023,
            1024,
            65_535,
            65_536,
            u32::MAX / 2,
            u32::MAX - 1,
            u32::MAX,
        ];
        let divisors = (1..=64).chain([1000, 65_537, 1 << 31, u32::MAX - 1, u32::MAX]);
        for d in divisors {
            let div = Divisor::new(d);
            let mut x = 0x9e37_79b9u32;
            let samples = edges.into_iter().chain((0..4096).map(move |_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            }));
            for a in samples.chain(0..3 * d.min(1 << 12)) {
                assert_eq!(div.rem(a), a % d, "{a} % {d}");
                assert_eq!(div.div(a), a / d, "{a} / {d}");
            }
        }
    }

    #[test]
    fn strided_table_owns_interleaved_indices() {
        let mut t = ObjectTable::new_strided(8, 4, 3);
        let a = t.install(desc(), SysState::Generic).unwrap();
        let b = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(a.index.0, 3);
        assert_eq!(b.index.0, 7);
        assert!(t.get(a).is_ok() && t.get(b).is_ok());
        assert_eq!(t.index_space_end(), 8);
        // Foreign-shard indices are rejected, not misresolved.
        let foreign = ObjectRef {
            index: ObjectIndex(4),
            generation: 0,
        };
        assert!(matches!(t.get(foreign), Err(ArchError::BadIndex(_))));
        assert!(t.get_by_index(ObjectIndex(4)).is_none());
        assert!(t.get_by_index(ObjectIndex(7)).is_some());
        let live: Vec<u32> = t.iter_live().map(|(i, _)| i.0).collect();
        assert_eq!(live, vec![3, 7]);
    }

    #[test]
    fn strided_recycling_preserves_global_index() {
        let mut t = ObjectTable::new_strided(8, 2, 1);
        let a = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(a.index.0, 1);
        t.reclaim(a).unwrap();
        let b = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(b.index, a.index, "slot recycled at same global index");
        assert_ne!(b.generation, a.generation);
        assert_eq!(t.ref_for(b.index).unwrap(), b);
    }

    #[test]
    fn directory_grows_by_leaf_pages_on_demand() {
        let mut t = ObjectTable::new(4 * LEAF_ENTRIES);
        assert_eq!(t.leaf_pages(), 0, "no pages before first install");
        let mut refs = Vec::new();
        for _ in 0..LEAF_ENTRIES {
            refs.push(t.install(desc(), SysState::Generic).unwrap());
        }
        assert_eq!(t.leaf_pages(), 1, "one full page");
        let over = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(t.leaf_pages(), 2, "crossing the boundary grows a page");
        assert_eq!(over.index.0, LEAF_ENTRIES);
        // Indices stay stable and resolvable across growth.
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(t.get(*r).unwrap().desc.data_len, 8, "slot {i}");
        }
        t.debug_validate();
    }

    #[test]
    fn maintained_counters_survive_churn() {
        let mut t = ObjectTable::new_strided(8 * LEAF_ENTRIES, 4, 1);
        let mut refs = Vec::new();
        for _ in 0..(2 * LEAF_ENTRIES + 17) {
            refs.push(t.install(desc(), SysState::Generic).unwrap());
        }
        assert_eq!(t.capacity_used(), 2 * LEAF_ENTRIES + 17);
        assert_eq!(t.live_count(), 2 * LEAF_ENTRIES + 17);
        assert_eq!(t.leaf_pages(), 3);
        // Reclaim every third entry, then reconcile against a full scan.
        for r in refs.iter().step_by(3) {
            t.reclaim(*r).unwrap();
        }
        let reclaimed = refs.len().div_ceil(3) as u32;
        assert_eq!(t.live_count(), refs.len() as u32 - reclaimed);
        assert_eq!(t.capacity_used(), refs.len() as u32, "used never shrinks");
        t.debug_validate();
        // LIFO reuse: the most recently freed slot comes back first.
        let last_freed = refs[refs.len() - 1 - (refs.len() - 1) % 3];
        let back = t.install(desc(), SysState::Generic).unwrap();
        assert_eq!(back.index, last_freed.index);
        assert_eq!(back.generation, last_freed.generation.wrapping_add(1));
        t.debug_validate();
    }

    #[test]
    fn dead_page_ranges_are_skipped() {
        let mut t = ObjectTable::new(8 * LEAF_ENTRIES);
        let mut refs = Vec::new();
        for _ in 0..(5 * LEAF_ENTRIES) {
            refs.push(t.install(desc(), SysState::Generic).unwrap());
        }
        // Kill pages 1..4 entirely; keep a handful on pages 0 and 4.
        for (i, r) in refs.iter().enumerate() {
            let page = i as u32 >> LEAF_SHIFT;
            let keep = (page == 0 && i < 10) || (page == 4 && (i as u32 & LEAF_MASK) < 3);
            if !keep {
                t.reclaim(*r).unwrap();
            }
        }
        assert_eq!(t.live_count(), 13);
        assert_eq!(t.leaf_pages(), 5, "pages persist after mass reclaim");
        // Within a live page the hint is page-granular (returns the
        // probe itself)...
        assert_eq!(t.next_live_slot_hint(10), 10);
        // ...but from the start of the dead run it jumps all three dead
        // pages in O(1) each.
        assert_eq!(t.next_live_slot_hint(LEAF_ENTRIES), LEAF_ENTRIES * 4);
        assert_eq!(t.next_live_index_hint(LEAF_ENTRIES), LEAF_ENTRIES * 4);
        // Iteration visits exactly the live set, in ascending order.
        let live: Vec<u32> = t.iter_live().map(|(i, _)| i.0).collect();
        let expected: Vec<u32> = (0..10)
            .chain(4 * LEAF_ENTRIES..4 * LEAF_ENTRIES + 3)
            .collect();
        assert_eq!(live, expected);
        // Range visitation probes only the pages the range touches.
        let mut seen = Vec::new();
        let pages = t.for_live_in_range(0, 5 * LEAF_ENTRIES, &mut |i, _| seen.push(i.0));
        assert_eq!(seen, expected);
        assert_eq!(pages, 5, "one probe per materialized page");
        t.debug_validate();
    }

    #[test]
    fn clone_deep_copies_the_directory() {
        let mut t = ObjectTable::new(4 * LEAF_ENTRIES);
        let a = t.install(desc(), SysState::Generic).unwrap();
        let t2 = t.clone();
        t.reclaim(a).unwrap();
        assert!(t.get(a).is_err());
        assert!(t2.get(a).is_ok(), "clone owns independent leaf pages");
        t2.debug_validate();
    }
}
