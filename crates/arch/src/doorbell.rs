//! The dispatching port's doorbell: its queue length, read without a
//! lock.
//!
//! The threaded runner's idle GDP threads wait here instead of polling
//! the dispatching port under every shard lock. The space owns the
//! doorbell ([`crate::ShardedSpace::doorbell`]), and the locked sections
//! that change the port's queue reach it through the space
//! ([`crate::SpaceMut::doorbell`]); it does not depend on the port rings.

use crate::refs::ObjectRef;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// The dispatching port's doorbell: two lock-free words that let an
/// idle GDP thread of the threaded runner wait for work instead of
/// polling the port under every shard lock.
///
/// * `queued` is the number of processes queued at the port: its
///   `msg_count`, stored by every section that changes it.
/// * `seq` is a wake sequence, bumped after every such store.
///
/// A writer stores `queued` first, then bumps `seq`; a waiter reads
/// `seq`, then `queued`. So when a waiter reads `queued == 0`, any later
/// enqueue moves `seq` past the value it holds, and waiting for `seq` to
/// move loses no wakeup. The dispatching port never gets a ring (the
/// locked path's ring set-up refuses the watched port), so every process
/// queued there passes through a locked section and `queued` is exact.
///
/// Every runner writes the words, the deterministic one included; they
/// are host-side bookkeeping outside every statistic, trace counter and
/// digest.
#[derive(Debug, Default)]
pub struct Doorbell {
    /// The watched port, named once when the system creates it.
    port: OnceLock<ObjectRef>,
    queued: AtomicU32,
    seq: AtomicU64,
    /// Threads inside [`Doorbell::sleep`]. A writer takes the lock and
    /// notifies only when this is nonzero, so the common case costs it
    /// one load.
    sleepers: AtomicU32,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Doorbell {
    /// Names the port this doorbell watches. The first call wins.
    pub fn watch(&self, port: ObjectRef) {
        let _ = self.port.set(port);
    }

    /// The watched port, if one was named.
    #[inline]
    pub fn port(&self) -> Option<ObjectRef> {
        self.port.get().copied()
    }

    /// A doorbell for a copy of this doorbell's space: watching the same
    /// port, with the same queue length, and no sleepers.
    pub fn copy(&self) -> Doorbell {
        let copy = Doorbell::default();
        if let Some(port) = self.port() {
            copy.watch(port);
        }
        copy.queued.store(self.queued(), Ordering::Relaxed);
        copy
    }

    /// Records that `port` now holds `queued` processes, if it is the
    /// watched port: stores `queued`, bumps `seq` (`SeqCst`, which
    /// includes the Release a waiter's Acquire read of `seq` pairs with),
    /// and wakes the sleepers when the queue grew. Called inside the
    /// locked section that changed the port's `msg_count`.
    #[inline]
    pub fn record(&self, port: ObjectRef, queued: u32) {
        if self.port.get() != Some(&port) {
            return;
        }
        let before = self.queued.swap(queued, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::SeqCst);
        if queued > before {
            self.wake_sleepers();
        }
    }

    /// The wake sequence. Read it before [`Doorbell::queued`].
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Processes queued at the watched port.
    #[inline]
    pub fn queued(&self) -> u32 {
        self.queued.load(Ordering::Acquire)
    }

    /// Bumps `seq` and wakes every sleeper, whatever the queue holds:
    /// what a runner does after setting its done flag.
    pub fn wake_all(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        self.wake_sleepers();
    }

    fn wake_sleepers(&self) {
        // Pairs with `sleep`: the `seq` bump and this load, and the
        // sleeper's count and its `seq` load, are all `SeqCst`, so either
        // this load sees the sleeper or the sleeper sees the new `seq`.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_all();
        }
    }

    /// Blocks the calling thread while `seq` still equals `seen`, for at
    /// most `timeout`. May return early; the caller re-reads `seq`.
    pub fn sleep(&self, seen: u64, timeout: Duration) {
        let held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) == seen {
            let _ = self.wake.wait_timeout(held, timeout);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}
