//! The parallel collector: one [`Collector`] worker per shard of the
//! lock-striped space, marking and sweeping on real threads
//! concurrently with mutator GDPs (paper §8.1: "a system-wide
//! **parallel** garbage collector"), either one-shot
//! ([`ParallelGc::collect_on`]) or through the threaded runner's
//! aux-worker hook ([`i432_sim::run_threaded_with`]).
//!
//! Worker `k` owns shard `k` and runs the same increments as the GC
//! daemon's collector — root scan, one gray per mark step, verification
//! scan, one sweep window per step — over that shard alone. It reaches
//! the shard through `SharedSpace::with_shard_gc`, which bumps no epoch,
//! for walking and whitening (colors do not take part in descriptor
//! qualification); it marks through its [`SpaceAgent`] and reclaims
//! inside an atomic section, so destruction filters (paper §8.2) and
//! cross-shard bookkeeping (SRO charge, TDO counts, filter-port
//! delivery) are exact. Only three things are added for parallelism:
//!
//! - **Stealable gray sets.** Each worker's grays go on its own
//!   [`GrayDeque`]; a worker whose deque is empty steals from the others
//!   ([`EventKind::GcMarkSteal`]). Scanning pushes onto the *scanning*
//!   worker's deque, preserving the deques' single-owner discipline.
//! - **The drain-quiescence test.** A worker has no gray left when its
//!   steal pass finds nothing and no worker holds or pushed one. The
//!   test is racy, which is safe: a gray it misses is still gray in the
//!   table, and the verification scan re-finds it (see [`crate::gray`]).
//! - **The phase barrier.** Workers rendezvous around each verification
//!   scan, so marking ends only when no worker found a gray, and at the
//!   end of each cycle, so no root scan starts while a shard is still
//!   sweeping. Mutators are *never* stopped — only the workers wait.
//!
//! The unconditional gray-bit write barrier keeps feeding grays while
//! all of this runs; the two-cycle laundering it causes (a finished
//! wave's objects are gray, so cycle 1 launders them black→white and
//! cycle 2 reclaims) is the same for every worker and asserted by the
//! per-shard tricolor battery.

use crate::collector::{reclaim_or_finalize, Collector, GcConfig, GcStats, Shards};
use crate::gray::GrayDeque;
use i432_arch::{Color, Entry, ObjectIndex, ObjectRef, SharedSpace, SpaceAccessExt, SpaceAgent};
use i432_gdp::Fault;
use i432_sim::AuxWorker;
use i432_trace::EventKind;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Trace-context processor id of parallel collector worker 0; worker
/// `k` emits as `GC_TRACE_CPU_BASE + k`. Far above any simulated
/// processor id, so collector streams are separable in timelines.
pub const GC_TRACE_CPU_BASE: u16 = 100;

/// A snapshot of the parallel collector's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParGcStats {
    /// The workers' [`GcStats`], summed; `cycles` counts each cycle
    /// once, since every worker completes every cycle.
    pub gc: GcStats,
    /// Successful steals from another shard's deque.
    pub steals: u64,
    /// Mark increments of each worker (worker `k` owns shard `k`);
    /// they sum to `gc.mark_steps`. Schedule-dependent.
    pub marked_per_worker: Vec<u64>,
    /// Faults recorded during sweeping (must be empty in a healthy
    /// run).
    pub errors: Vec<String>,
}

/// Escalating idle pacing for the drain loop: a collector worker that
/// finds its deque empty and every steal pass dry first spins (cheap,
/// keeps the line hot while a peer is mid-push), then starts yielding
/// its timeslice so idle collector threads stop burning the cores the
/// mutator GDP threads want. Finding any work resets the ladder.
///
/// This only paces *host* scheduling of the marking threads — it never
/// touches simulated state, so the collector's observable results (and
/// every deterministic `c5_gc` key) are unchanged by construction.
struct Backoff {
    dry: u32,
}

impl Backoff {
    /// Empty passes spent spin-looping before escalating to yields.
    const SPIN_LIMIT: u32 = 6;

    fn new() -> Backoff {
        Backoff { dry: 0 }
    }

    /// Work was found: restart from the cheap end of the ladder.
    fn reset(&mut self) {
        self.dry = 0;
    }

    /// One empty pop+steal pass: spin 2^dry times up to the limit, then
    /// yield the timeslice instead.
    fn idle(&mut self) {
        if self.dry < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.dry) {
                std::hint::spin_loop();
            }
            self.dry += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Whether the ladder has escalated past spinning (test hook).
    #[cfg(test)]
    fn is_yielding(&self) -> bool {
        self.dry >= Self::SPIN_LIMIT
    }
}

/// The parallel per-shard collector. One instance coordinates one
/// worker per shard; create with [`ParallelGc::new`], then either
/// [`ParallelGc::collect_on`] (one-shot, own threads) or pass
/// [`ParallelGc::aux_workers`] to [`i432_sim::run_threaded_with`]
/// (concurrent with mutators).
pub struct ParallelGc {
    /// Worker `k`'s collector, which owns shard `k`. Each is locked by
    /// its worker thread for as long as that thread runs.
    workers: Vec<Mutex<Collector>>,
    deques: Vec<GrayDeque>,
    barrier: Barrier,
    /// Grays popped but not yet scanned (their pushes may still be
    /// coming). Approximate by design; see `ShardWorker::pop`.
    in_flight: AtomicI64,
    /// Total deque pushes ever (progress detection in `pop`).
    pushes: AtomicU64,
    /// Whether the current verification round found any gray.
    gray_found: AtomicBool,
    /// Leader's cycle-boundary go/stop decision for `worker_loop`.
    go: AtomicBool,
    steals: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl ParallelGc {
    /// A collector for a `shards`-way space; every worker gets a copy
    /// of `config`.
    pub fn new(shards: u32, config: GcConfig) -> Arc<ParallelGc> {
        assert!(shards >= 1);
        let n = shards as usize;
        Arc::new(ParallelGc {
            workers: (0..n)
                .map(|_| {
                    let mut gc = Collector::new();
                    gc.config = config.clone();
                    Mutex::new(gc)
                })
                .collect(),
            deques: (0..n).map(|_| GrayDeque::new(1 << 12)).collect(),
            barrier: Barrier::new(n),
            in_flight: AtomicI64::new(0),
            pushes: AtomicU64::new(0),
            gray_found: AtomicBool::new(false),
            go: AtomicBool::new(true),
            steals: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
        })
    }

    /// Copies the counters out. Call it while no worker runs.
    pub fn snapshot(&self) -> ParGcStats {
        let per: Vec<GcStats> = self.workers.iter().map(|c| c.lock().stats).collect();
        let mut gc = GcStats {
            cycles: per[0].cycles,
            ..GcStats::default()
        };
        for s in &per {
            gc.reclaimed += s.reclaimed;
            gc.finalized += s.finalized;
            gc.mark_steps += s.mark_steps;
            gc.sweep_steps += s.sweep_steps;
            gc.verification_scans += s.verification_scans;
            gc.sim_cycles += s.sim_cycles;
        }
        ParGcStats {
            gc,
            steals: self.steals.load(Ordering::Acquire),
            marked_per_worker: per.iter().map(|s| s.mark_steps).collect(),
            errors: self.errors.lock().clone(),
        }
    }

    /// Runs `cycles` full collection cycles with one thread per shard.
    /// Blocks until done. The space's shard count must equal this
    /// collector's.
    pub fn collect_on(&self, shared: &SharedSpace, cycles: u32) {
        std::thread::scope(|scope| {
            for k in 0..self.workers.len() as u32 {
                scope.spawn(move || {
                    let (mut gc, mut w) = self.worker(shared, k);
                    for _ in 0..cycles {
                        self.run_cycle(&mut gc, &mut w);
                    }
                });
            }
        });
    }

    /// The aux-worker closures for [`i432_sim::run_threaded_with`]: each
    /// runs full cycles back-to-back until the runner's `done` flag is
    /// set, always finishing the cycle in progress (the go/stop
    /// decision is taken by the barrier leader so every worker agrees),
    /// so the space is handed back at a cycle boundary (all colors
    /// white).
    pub fn aux_workers(self: &Arc<Self>) -> Vec<AuxWorker> {
        (0..self.workers.len() as u32)
            .map(|k| {
                let gc = Arc::clone(self);
                let b: AuxWorker = Box::new(move |shared, done| {
                    gc.worker_loop(shared, k, done);
                });
                b
            })
            .collect()
    }

    fn worker_loop(&self, shared: &SharedSpace, k: u32, done: &AtomicBool) {
        let (mut gc, mut w) = self.worker(shared, k);
        loop {
            if self.barrier.wait().is_leader() {
                self.go
                    .store(!done.load(Ordering::Acquire), Ordering::Release);
            }
            self.barrier.wait();
            if !self.go.load(Ordering::Acquire) {
                return;
            }
            self.run_cycle(&mut gc, &mut w);
        }
    }

    /// Worker `k`'s collector and its view of shard `k`, on the calling
    /// thread.
    fn worker<'a>(
        &'a self,
        shared: &'a SharedSpace,
        k: u32,
    ) -> (MutexGuard<'a, Collector>, ShardWorker<'a>) {
        assert_eq!(
            shared.shard_count() as usize,
            self.workers.len(),
            "shard mismatch"
        );
        i432_trace::set_context(GC_TRACE_CPU_BASE + k as u16, 0);
        let gc = self.workers[k as usize].lock();
        let w = ShardWorker {
            gc: self,
            shared,
            agent: shared.agent(),
            k,
            chunk: gc.config.sweep_chunk.max(1),
            scanning: false,
            backoff: Backoff::new(),
        };
        (gc, w)
    }

    /// One full cycle of one worker, closed by a barrier: a new cycle's
    /// marker blackening an object that an old cycle's sweeper then
    /// whitens would break the invariant. All workers must call this the
    /// same number of times.
    fn run_cycle(&self, gc: &mut Collector, w: &mut ShardWorker<'_>) {
        while !gc
            .step_on(w)
            .expect("a shard worker records sweep faults instead of returning them")
        {}
        self.barrier.wait();
    }

    /// One global steal pass over the other shards' deques.
    fn steal(&self, k: u32) -> Option<ObjectRef> {
        let n = self.deques.len();
        for j in 1..n {
            let v = (k as usize + j) % n;
            if let Some(r) = self.deques[v].steal() {
                i432_trace::emit(EventKind::GcMarkSteal, v as u32);
                i432_trace::bump(i432_trace::Counter::GcMarkSteals);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(r);
            }
        }
        i432_trace::bump(i432_trace::Counter::GcMarkEmptySteals);
        None
    }
}

/// Worker `k`'s view: shard `k` of a shared space, and its own gray
/// deque.
struct ShardWorker<'a> {
    gc: &'a ParallelGc,
    shared: &'a SharedSpace,
    agent: SpaceAgent<'a>,
    k: u32,
    /// Indices walked per shard-lock hold.
    chunk: u32,
    /// Whether the last popped gray is still being scanned: it counts
    /// in `in_flight` until the next pop.
    scanning: bool,
    backoff: Backoff,
}

impl<'a> Shards for ShardWorker<'a> {
    type Space = SpaceAgent<'a>;

    fn space(&mut self) -> &mut SpaceAgent<'a> {
        &mut self.agent
    }

    fn owns(&self, r: ObjectRef) -> bool {
        r.index.0 % self.shared.shard_count() == self.k
    }

    fn index_space_end(&self) -> u32 {
        self.shared
            .with_shard_gc(self.k, |s| s.table.index_space_end())
    }

    /// Walks the shard window by window, releasing the lock between
    /// windows so mutators are never held off for a whole shard.
    fn for_each_live(&self, f: &mut dyn FnMut(ObjectIndex, &Entry)) {
        let mut cur = 0u32;
        while let Some(hi) = self.shared.with_shard_gc(self.k, |s| {
            let end = s.table.index_space_end();
            let start = s.table.next_live_index_hint(cur);
            (start < end).then(|| {
                let hi = start.saturating_add(self.chunk).min(end);
                s.table.for_live_in_range(start, hi, f);
                hi
            })
        }) {
            cur = hi;
        }
    }

    fn next_possibly_live(&self, from: u32) -> u32 {
        self.shared
            .with_shard_gc(self.k, |s| s.table.next_live_index_hint(from))
    }

    fn for_live_in_range(
        &self,
        start: u32,
        end: u32,
        f: &mut dyn FnMut(ObjectIndex, &Entry),
    ) -> u32 {
        self.shared
            .with_shard_gc(self.k, |s| s.table.for_live_in_range(start, end, f))
    }

    /// Whitens survivors under the shard lock alone (color-only, so no
    /// epoch bump), then reclaims the whites in one atomic section.
    /// Reclaim faults are recorded, not returned.
    fn sweep(
        &mut self,
        window: &[(ObjectRef, Color)],
        config: &GcConfig,
        stats: &mut GcStats,
    ) -> Result<u64, Fault> {
        let mut live = 0;
        let mut whites = Vec::new();
        self.shared.with_shard_gc(self.k, |s| {
            for &(r, color) in window {
                if s.table.get(r).is_err() {
                    continue;
                }
                live += 1;
                match color {
                    Color::Black | Color::Gray => {
                        let _ = s.set_color(r, Color::White);
                    }
                    Color::White => whites.push(r),
                }
            }
        });
        if !whites.is_empty() {
            let (k, errors) = (self.k, &self.gc.errors);
            self.agent.atomically(|sm| {
                for &r in &whites {
                    if let Err(f) = reclaim_or_finalize(sm, r, config, stats) {
                        errors.lock().push(format!("sweep shard {k}: {f:?}"));
                    }
                }
            });
        }
        Ok(live)
    }

    fn push(&mut self, r: ObjectRef) {
        self.gc.deques[self.k as usize].push(r);
        self.gc.pushes.fetch_add(1, Ordering::SeqCst);
    }

    /// Pops the worker's own deque, stealing when it is empty, and
    /// returns `None` once every worker has passed the (racy) drain
    /// quiescence test. A premature exit is harmless: no worker passes
    /// the barrier before its own drain ends, and anything missed is
    /// still gray in the table for the verification scan to re-find.
    fn pop(&mut self) -> Option<ObjectRef> {
        let gc = self.gc;
        if std::mem::take(&mut self.scanning) {
            gc.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        i432_trace::bump(i432_trace::Counter::GcParMarkSteps);
        loop {
            gc.in_flight.fetch_add(1, Ordering::SeqCst);
            if let Some(r) = gc.deques[self.k as usize]
                .pop()
                .or_else(|| gc.steal(self.k))
            {
                self.scanning = true;
                self.backoff.reset();
                return Some(r);
            }
            gc.in_flight.fetch_sub(1, Ordering::SeqCst);
            let p = gc.pushes.load(Ordering::SeqCst);
            if gc.in_flight.load(Ordering::SeqCst) == 0
                && gc.deques.iter().all(|d| d.looks_empty())
                && gc.pushes.load(Ordering::SeqCst) == p
            {
                if gc.barrier.wait().is_leader() {
                    gc.gray_found.store(false, Ordering::Release);
                }
                gc.barrier.wait();
                return None;
            }
            self.backoff.idle();
        }
    }

    fn verified(&mut self, found: bool) -> bool {
        if found {
            self.gc.gray_found.store(true, Ordering::Release);
        }
        self.gc.barrier.wait();
        self.gc.gray_found.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, ObjectType, Rights, ShardedSpace, SpaceMut, SysState, SystemType};

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding(), "fresh ladder starts at the spin end");
        for _ in 0..Backoff::SPIN_LIMIT {
            b.idle();
        }
        assert!(b.is_yielding(), "dry passes escalate to yielding");
        // Escalated idling stays at the yield rung (no counter wrap).
        b.idle();
        b.idle();
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding(), "finding work restarts the cheap spins");
    }

    /// A 4-shard space: per shard, a processor anchoring a chain of
    /// `live` reachable objects, plus `garbage` unreachable ones.
    fn sharded_population(shards: u32, live: u32, garbage: u32) -> (ShardedSpace, Vec<ObjectRef>) {
        let mut s = ShardedSpace::new(1 << 20, 1 << 14, 1 << 12, shards);
        let mut garbage_refs = Vec::new();
        for k in 0..shards {
            let root = s.root_sro_of(k);
            let cpu = s
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                        otype: ObjectType::System(SystemType::Processor),
                        level: None,
                        sys: SysState::Processor(i432_arch::ProcessorState::new(k)),
                    },
                )
                .unwrap();
            let mut prev: Option<ObjectRef> = None;
            for _ in 0..live {
                let o = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
                if let Some(p) = prev {
                    let ad = s.mint(p, Rights::ALL);
                    s.store_ad_hw(o, 0, Some(ad)).unwrap();
                }
                prev = Some(o);
            }
            if let Some(head) = prev {
                let ad = s.mint(head, Rights::ALL);
                s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(ad))
                    .unwrap();
            }
            for _ in 0..garbage {
                garbage_refs.push(s.create_object(root, ObjectSpec::generic(16, 1)).unwrap());
            }
        }
        (s, garbage_refs)
    }

    #[test]
    fn parallel_collect_reclaims_garbage_keeps_live() {
        let (space, garbage) = sharded_population(4, 50, 20);
        let live_before = space.live_count();
        let shared = SharedSpace::new(space);
        let gc = ParallelGc::new(4, GcConfig::default());
        gc.collect_on(&shared, 1);
        let stats = gc.snapshot();
        assert_eq!(stats.gc.cycles, 1);
        assert_eq!(stats.errors, Vec::<String>::new());
        assert_eq!(stats.gc.reclaimed, 4 * 20, "exactly the garbage reclaimed");
        let space = shared.into_inner();
        assert_eq!(space.live_count(), live_before - 4 * 20);
        for g in garbage {
            assert!(space.entry(g).is_err(), "garbage {g:?} not reclaimed");
        }
        // Survivors whitened for the next cycle.
        space.for_each_live(&mut |_, e| assert_eq!(e.desc.color, Color::White));
    }

    #[test]
    fn chain_shades_survive_via_two_cycle_laundering() {
        // Building the chains shades every stored-to target gray (the
        // unconditional write barrier). Dropping the anchor *after*
        // that leaves a garbage chain that is gray, not white: cycle 1
        // must launder (blacken via verification, whiten at sweep),
        // cycle 2 reclaims. This is the C11-discovered behavior the
        // parallel engine must preserve.
        let (mut space, _) = sharded_population(2, 10, 0);
        // Unanchor shard 0's chain.
        let cpus: Vec<ObjectRef> = {
            let mut v = Vec::new();
            space.for_each_live(&mut |i, e| {
                if matches!(e.desc.otype, ObjectType::System(SystemType::Processor)) {
                    v.push(ObjectRef {
                        index: i,
                        generation: e.generation,
                    });
                }
            });
            v
        };
        let cpu0 = cpus
            .iter()
            .copied()
            .find(|r| r.index.0 % 2 == 0)
            .expect("shard-0 processor");
        space
            .store_ad_hw(cpu0, i432_arch::sysobj::CPU_SLOT_ROOT, None)
            .unwrap();
        let shared = SharedSpace::new(space);
        let gc = ParallelGc::new(2, GcConfig::default());
        gc.collect_on(&shared, 1);
        let after_one = gc.snapshot().gc.reclaimed;
        gc.collect_on(&shared, 1);
        let after_two = gc.snapshot().gc.reclaimed;
        // The dropped chain is 10 objects; the store into the chain
        // head's slot had shaded 9 of them (all but the head object
        // itself, which was never a store target... the head *was*
        // stored into the CPU slot, so all 10 are gray).
        assert_eq!(
            after_one, 0,
            "gray garbage must be laundered, not reclaimed"
        );
        assert_eq!(after_two, 10, "laundered garbage reclaimed on cycle 2");
        let space = shared.into_inner();
        space.for_each_live(&mut |_, e| assert_eq!(e.desc.color, Color::White));
    }

    #[test]
    fn marking_is_sound_under_cross_shard_graphs() {
        // A single chain hopping shards every link: marking it forces
        // cross-shard shading and gives thieves something to steal.
        let shards = 4u32;
        let mut s = ShardedSpace::new(1 << 20, 1 << 14, 1 << 12, shards);
        let root0 = s.root_sro();
        let cpu = s
            .create_object(
                root0,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Processor),
                    level: None,
                    sys: SysState::Processor(i432_arch::ProcessorState::new(0)),
                },
            )
            .unwrap();
        let mut prev: Option<ObjectRef> = None;
        let mut chain = Vec::new();
        for i in 0..200u32 {
            let parent = s.root_sro_of(i % shards);
            let o = s.create_object(parent, ObjectSpec::generic(8, 2)).unwrap();
            chain.push(o);
            if let Some(p) = prev {
                let ad = s.mint(p, Rights::ALL);
                s.store_ad_hw(o, 0, Some(ad)).unwrap();
            }
            prev = Some(o);
        }
        let head_ad = s.mint(prev.unwrap(), Rights::ALL);
        s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(head_ad))
            .unwrap();
        let shared = SharedSpace::new(s);
        let gc = ParallelGc::new(shards, GcConfig::default());
        gc.collect_on(&shared, 2);
        assert_eq!(gc.snapshot().gc.reclaimed, 0, "the whole chain is live");
        let space = shared.into_inner();
        for o in chain {
            assert!(space.entry(o).is_ok(), "live chain link lost");
        }
    }
}
