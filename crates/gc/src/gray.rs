//! Per-shard work-stealing gray queues for the parallel marker.
//!
//! Each marking worker owns one [`GrayDeque`] — a Chase-Lev-style
//! work-stealing deque in safe Rust. The owner pushes and pops at the
//! bottom without contention; idle workers steal from the top with a
//! single CAS. The ring is fixed-capacity: instead of the classic
//! unsafe buffer growth, overflow spills into an owner-side
//! `Mutex<Vec<_>>` that the owner drains when the ring has room (the
//! spill is invisible to thieves, which is sound — see below).
//!
//! **Why imperfect termination is safe here.** A deque item is only
//! ever a *gray* object (it is shaded before it is pushed), and the
//! on-the-fly termination rule (DESIGN.md §6) ends marking only when a
//! full verification scan of the live table finds no gray object. So
//! any item a racy emptiness check misses — in a ring slot, in the
//! spill, or in flight between a steal and its process step — is still
//! gray in the table and is re-discovered by the next verification
//! scan. Work-stealing termination detection therefore only affects
//! *progress* (an extra verification pass), never *soundness*.

use i432_arch::{ObjectIndex, ObjectRef};
use parking_lot::Mutex;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

/// Packs an [`ObjectRef`] into one ring word.
#[inline]
fn pack(r: ObjectRef) -> u64 {
    u64::from(r.index.0) | (u64::from(r.generation) << 32)
}

/// Unpacks a ring word back into an [`ObjectRef`].
#[inline]
fn unpack(v: u64) -> ObjectRef {
    ObjectRef {
        index: ObjectIndex(v as u32),
        generation: (v >> 32) as u32,
    }
}

/// A fixed-capacity Chase-Lev work-stealing deque of gray
/// [`ObjectRef`]s, with an owner-side spill list instead of buffer
/// growth.
///
/// Single-owner protocol: exactly one thread (the shard's marking
/// worker) may call [`push`](GrayDeque::push) and
/// [`pop`](GrayDeque::pop); any thread may call
/// [`steal`](GrayDeque::steal).
pub struct GrayDeque {
    /// Steal side. Monotonically increasing, so the CAS is ABA-free.
    top: AtomicI64,
    /// Owner side.
    bottom: AtomicI64,
    slots: Box<[AtomicU64]>,
    mask: i64,
    /// Owner-side overflow. Thieves never see it; items here are gray
    /// in the table, so the verification scan covers them (module
    /// docs).
    spill: Mutex<Vec<u64>>,
}

impl GrayDeque {
    /// A deque with at least `capacity` ring slots (rounded up to a
    /// power of two, minimum 64).
    pub fn new(capacity: usize) -> GrayDeque {
        let cap = capacity.next_power_of_two().max(64);
        GrayDeque {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as i64 - 1,
            spill: Mutex::new(Vec::new()),
        }
    }

    /// Owner: pushes a gray object at the bottom. Spills when the ring
    /// is full.
    pub fn push(&self, r: ObjectRef) {
        let v = pack(r);
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            // Ring full. A stale (smaller) `t` only makes this check
            // conservative — we spill when we might still have room,
            // never overwrite a slot a thief could be reading.
            self.spill.lock().push(v);
            return;
        }
        self.slots[(b & self.mask) as usize].store(v, Ordering::Relaxed);
        // Publish the slot before the new bottom becomes visible.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: pops from the bottom (LIFO for locality), falling back to
    /// the spill list when the ring is empty.
    pub fn pop(&self) -> Option<ObjectRef> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Order the bottom decrement before reading top, against the
        // symmetric fence in `steal`.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Ring empty: restore bottom, try the spill.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return self.pop_spill();
        }
        let v = self.slots[(b & self.mask) as usize].load(Ordering::Relaxed);
        if t == b {
            // Last item: race the thieves for it via top.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if won {
                return Some(unpack(v));
            }
            // A thief took it.
            return self.pop_spill();
        }
        Some(unpack(v))
    }

    fn pop_spill(&self) -> Option<ObjectRef> {
        self.spill.lock().pop().map(unpack)
    }

    /// Thief: steals one item from the top. `None` means the *ring*
    /// looked empty or the race was lost — never a guarantee that no
    /// work remains (the owner's spill is not stealable; the
    /// verification scan covers it).
    pub fn steal(&self) -> Option<ObjectRef> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let v = self.slots[(t & self.mask) as usize].load(Ordering::Relaxed);
            // The slot value is only trusted if top is still `t` at the
            // CAS: the owner can overwrite slot `t & mask` only after
            // top has advanced past `t` (push refuses to wrap into an
            // unstolen range), and top is monotonic, so success implies
            // the read was of the live item.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(unpack(v));
            }
            // Lost the race; re-examine.
        }
    }

    /// Whether the ring *and* spill look empty right now (racy; for
    /// termination heuristics and tests only — see module docs).
    pub fn looks_empty(&self) -> bool {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        b <= t && self.spill.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    fn obj(i: u32) -> ObjectRef {
        ObjectRef {
            index: ObjectIndex(i),
            generation: i.wrapping_mul(7),
        }
    }

    #[test]
    fn pack_round_trips() {
        for i in [0, 1, 77, u32::MAX] {
            assert_eq!(unpack(pack(obj(i))), obj(i));
        }
    }

    #[test]
    fn lifo_pop_fifo_steal() {
        let d = GrayDeque::new(8);
        for i in 0..4 {
            d.push(obj(i));
        }
        assert_eq!(d.steal(), Some(obj(0)), "thief takes the oldest");
        assert_eq!(d.pop(), Some(obj(3)), "owner takes the newest");
        assert_eq!(d.pop(), Some(obj(2)));
        assert_eq!(d.pop(), Some(obj(1)));
        assert_eq!(d.pop(), None);
        assert!(d.looks_empty());
    }

    #[test]
    fn overflow_spills_and_drains() {
        let d = GrayDeque::new(1); // rounds up to the 64 minimum
        for i in 0..100 {
            d.push(obj(i));
        }
        assert_eq!(d.spill.lock().len(), 100 - 64);
        let mut got = HashSet::new();
        while let Some(r) = d.pop() {
            got.insert(r.index.0);
        }
        assert_eq!(got.len(), 100, "no item lost across ring + spill");
        assert!(d.looks_empty());
    }

    /// Satellite: steal-vs-push race. Owner pushes/pops while thieves
    /// hammer steal; every pushed item must be consumed exactly once.
    #[test]
    fn steal_vs_push_race_loses_nothing() {
        const ITEMS: u32 = 20_000;
        const THIEVES: usize = 3;
        let d = GrayDeque::new(256);
        let done = AtomicBool::new(false);
        let stolen: Vec<Mutex<Vec<u32>>> = (0..THIEVES).map(|_| Mutex::new(Vec::new())).collect();
        let mut popped: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            for out in &stolen {
                s.spawn(|| loop {
                    if let Some(r) = d.steal() {
                        out.lock().push(r.index.0);
                    } else if done.load(Ordering::Acquire) {
                        // One final sweep after the owner finished.
                        while let Some(r) = d.steal() {
                            out.lock().push(r.index.0);
                        }
                        return;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
            // Owner: bursts of pushes interleaved with pops.
            let mut i = 0;
            while i < ITEMS {
                for _ in 0..7 {
                    if i < ITEMS {
                        d.push(obj(i));
                        i += 1;
                    }
                }
                for _ in 0..3 {
                    if let Some(r) = d.pop() {
                        popped.push(r.index.0);
                    }
                }
            }
            while let Some(r) = d.pop() {
                popped.push(r.index.0);
            }
            done.store(true, Ordering::Release);
        });
        let mut all: Vec<u32> = popped;
        for out in &stolen {
            all.extend(out.lock().iter().copied());
        }
        assert_eq!(all.len() as u32, ITEMS, "an item was lost or duplicated");
        let uniq: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(uniq.len() as u32, ITEMS, "an item was consumed twice");
    }

    /// Satellite: empty-steal termination detection. Thieves observing
    /// an empty deque + owner done must terminate without spinning
    /// forever, and `looks_empty` must agree once drained.
    #[test]
    fn empty_steal_terminates() {
        let d = GrayDeque::new(64);
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
        d.push(obj(1));
        assert!(!d.looks_empty());
        assert_eq!(d.steal(), Some(obj(1)));
        assert!(d.looks_empty());
        assert_eq!(d.steal(), None, "steal after drain must not spin");
    }
}
