//! The parallel per-shard collector: on-the-fly marking and sweeping
//! decomposed across the lock-striped space's shards.
//!
//! The serial [`crate::Collector`] remains the *deterministic* engine —
//! the discrete-event runner schedules it as a daemon process and every
//! EXPERIMENTS.md number comes from that path, bit-identical as before.
//! This module is the *threaded-runner* engine (paper §8.1: "a
//! system-wide **parallel** garbage collector"): one marking/sweeping
//! worker per shard, running on real threads concurrently with mutator
//! GDPs via the runner's aux-worker hook
//! ([`i432_sim::run_threaded_with`]).
//!
//! ## Structure of a cycle
//!
//! Workers are synchronized by a [`Barrier`]; mutators are *never*
//! stopped — only the workers rendezvous.
//!
//! 1. **Root scan** (per shard, incremental): worker `k` walks shard
//!    `k`'s live directory leaf pages in bounded chunks
//!    ([`i432_arch::SpaceMut::for_live_in_range`] under the shard lock,
//!    released between chunks), shading the shard's root SRO and every
//!    processor object it finds, and pushing them onto its own gray
//!    deque. Worker 0 additionally shades
//!    [`GcConfig::extra_roots`].
//! 2. **Mark** (work-stealing): each worker drains its own
//!    [`GrayDeque`], stealing from the other shards' deques when empty
//!    (a global steal pass, [`EventKind::GcMarkSteal`]). Scanning an
//!    object shades its white targets and pushes them — always onto the
//!    *scanning* worker's deque, preserving the deques' single-owner
//!    discipline.
//! 3. **Verification** (per shard, incremental): when every worker's
//!    drain quiesces, each rescans its shard for grays the mutators'
//!    write barrier shaded concurrently. Marking terminates only when a
//!    full pass over every shard finds none — the same on-the-fly
//!    termination rule as the serial collector, which is also what
//!    makes the racy drain-quiescence check *safe*: a gray object
//!    missed by work-stealing termination is still gray in the table
//!    and is re-found here (see [`crate::gray`]).
//! 4. **Sweep** (per shard, incremental): worker `k` sweeps shard `k`
//!    in chunks — black/gray survivors are whitened under the shard
//!    lock alone (a color-only mutation, invisible to the
//!    qualification cache, so no epoch bump — see
//!    [`i432_arch::SharedSpace::with_shard_gc`]); white garbage is
//!    reclaimed through the collector's shared reclaim-or-finalize
//!    step under an atomic section, so destruction filters (paper
//!    §8.2) run concurrently with mutators and cross-shard bookkeeping
//!    (SRO charge, TDO counts, filter-port delivery) is exact.
//!
//! The unconditional gray-bit write barrier keeps feeding grays while
//! all of this runs; the two-cycle laundering it causes (a finished
//! wave's objects are gray, so cycle 1 launders them black→white and
//! cycle 2 reclaims) is identical to the serial engine and asserted by
//! the per-shard tricolor battery.

use crate::collector::{reclaim_or_finalize, GcConfig, GcStats};
use crate::gray::GrayDeque;
use i432_arch::{
    Color, ObjectRef, ObjectType, SharedSpace, SpaceAccess, SpaceAccessExt, SystemType,
};
use i432_sim::AuxWorker;
use i432_trace::EventKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Trace-context processor id of parallel collector worker 0; worker
/// `k` emits as `GC_TRACE_CPU_BASE + k`. Far above any simulated
/// processor id, so collector streams are separable in timelines.
pub const GC_TRACE_CPU_BASE: u16 = 100;

/// A snapshot of the parallel collector's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParGcStats {
    /// Completed collection cycles (all shards, barrier-aligned).
    pub cycles: u64,
    /// Objects reclaimed across all shards.
    pub reclaimed: u64,
    /// Garbage objects delivered to destruction filters.
    pub finalized: u64,
    /// Objects scanned by the markers (duplicates under steal races
    /// included, so this is schedule-dependent).
    pub mark_steps: u64,
    /// Successful steals from another shard's deque.
    pub steals: u64,
    /// Drain quiescence exits (one per worker per mark round).
    pub empty_steal_exits: u64,
    /// Global verification passes (one counts all shards).
    pub verification_passes: u64,
    /// Directory leaf pages probed by the sweeps.
    pub pages_swept: u64,
    /// Objects marked by each worker (worker `k` owns shard `k`;
    /// stolen work counts for the thief).
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

/// The parallel per-shard collector. One instance coordinates
/// `shard_count` workers; create with [`ParallelGc::new`], then either
/// [`ParallelGc::collect_on`] (one-shot, own threads) or pass
/// [`ParallelGc::aux_workers`] to [`i432_sim::run_threaded_with`]
/// (concurrent with mutators).
pub struct ParallelGc {
    /// Shared collector configuration (filters, extra roots, chunk).
    pub config: GcConfig,
    shards: u32,
    /// Indices covered per incremental scan/sweep slice (the shard lock
    /// is released between slices).
    chunk: u32,
    deques: Vec<GrayDeque>,
    barrier: Barrier,
    /// Items popped but not yet fully processed (their pushes may still
    /// be coming). Approximate by design; see `drain`.
    in_flight: AtomicI64,
    /// Total deque pushes ever (progress detection in `drain`).
    pushes: AtomicU64,
    /// Whether the current verification pass found any gray.
    gray_found: AtomicBool,
    /// Leader's cycle-boundary go/stop decision for `worker_loop`.
    go: AtomicBool,
    cycles: AtomicU64,
    reclaimed: AtomicU64,
    finalized: AtomicU64,
    mark_steps: AtomicU64,
    steals: AtomicU64,
    empty_steal_exits: AtomicU64,
    verification_passes: AtomicU64,
    pages_swept: AtomicU64,
    marked_per_worker: Vec<AtomicU64>,
    errors: Mutex<Vec<String>>,
}

impl ParallelGc {
    /// A collector for a `shards`-way space.
    pub fn new(shards: u32, config: GcConfig) -> Arc<ParallelGc> {
        assert!(shards >= 1);
        let n = shards as usize;
        Arc::new(ParallelGc {
            config,
            shards,
            chunk: 256,
            deques: (0..n).map(|_| GrayDeque::new(1 << 12)).collect(),
            barrier: Barrier::new(n),
            in_flight: AtomicI64::new(0),
            pushes: AtomicU64::new(0),
            gray_found: AtomicBool::new(false),
            go: AtomicBool::new(true),
            cycles: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            finalized: AtomicU64::new(0),
            mark_steps: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            empty_steal_exits: AtomicU64::new(0),
            verification_passes: AtomicU64::new(0),
            pages_swept: AtomicU64::new(0),
            marked_per_worker: (0..n).map(|_| AtomicU64::new(0)).collect(),
            errors: Mutex::new(Vec::new()),
        })
    }

    /// Number of workers (== shards).
    pub fn workers(&self) -> u32 {
        self.shards
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> ParGcStats {
        ParGcStats {
            cycles: self.cycles.load(Ordering::Acquire),
            reclaimed: self.reclaimed.load(Ordering::Acquire),
            finalized: self.finalized.load(Ordering::Acquire),
            mark_steps: self.mark_steps.load(Ordering::Acquire),
            steals: self.steals.load(Ordering::Acquire),
            empty_steal_exits: self.empty_steal_exits.load(Ordering::Acquire),
            verification_passes: self.verification_passes.load(Ordering::Acquire),
            pages_swept: self.pages_swept.load(Ordering::Acquire),
            marked_per_worker: self
                .marked_per_worker
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect(),
            errors: self.errors.lock().clone(),
        }
    }

    /// Runs `cycles` full collection cycles with one thread per shard.
    /// Blocks until done. The space's shard count must equal this
    /// collector's.
    pub fn collect_on(self: &Arc<Self>, shared: &SharedSpace, cycles: u32) {
        assert_eq!(
            shared.shard_count(),
            self.shards,
            "collector/space shard mismatch"
        );
        std::thread::scope(|scope| {
            for k in 0..self.shards {
                let gc = Arc::clone(self);
                scope.spawn(move || {
                    i432_trace::set_context(GC_TRACE_CPU_BASE + k as u16, 0);
                    let mut agent = shared.agent();
                    let mut local_cycles = gc.cycles.load(Ordering::Acquire);
                    for _ in 0..cycles {
                        gc.run_cycle(shared, k, &mut agent, &mut local_cycles);
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
        (0..self.shards)
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
        assert_eq!(shared.shard_count(), self.shards);
        i432_trace::set_context(GC_TRACE_CPU_BASE + k as u16, 0);
        let mut agent = shared.agent();
        let mut local_cycles = self.cycles.load(Ordering::Acquire);
        loop {
            if self.barrier.wait().is_leader() {
                self.go
                    .store(!done.load(Ordering::Acquire), Ordering::Release);
            }
            self.barrier.wait();
            if !self.go.load(Ordering::Acquire) {
                return;
            }
            self.run_cycle(shared, k, &mut agent, &mut local_cycles);
        }
    }

    /// One full cycle for worker `k`. All workers must call this the
    /// same number of times (barrier discipline); `local_cycles` is the
    /// worker's own completed-cycle count, identical across workers.
    fn run_cycle(
        &self,
        shared: &SharedSpace,
        k: u32,
        agent: &mut i432_arch::SpaceAgent<'_>,
        local_cycles: &mut u64,
    ) {
        // ---- Root scan (every worker emits its own phase marker).
        i432_trace::emit(EventKind::GcPhaseMark, *local_cycles as u32);
        let root = agent.root_sro_of(k);
        let _ = agent.shade(root);
        self.push_own(k, root);
        if k == 0 {
            for r in self.config.extra_roots.clone() {
                if agent.shade(r).is_ok() {
                    self.push_own(k, r);
                }
            }
        }
        // Incremental walk of shard k's live leaf pages for processor
        // objects (roots): capture + shade under one bounded lock hold,
        // push outside it.
        self.scan_shard(shared, k, |e| {
            matches!(e.desc.otype, ObjectType::System(SystemType::Processor))
        });
        // Port-ring contents are roots too: a ring-resident message
        // lives outside any access part, so one that stays in a ring
        // across a sweep (which whitens everything) would be invisible
        // to this cycle's mark. The shade-at-push barrier covers
        // publication *during* a cycle; this scan covers residency
        // *across* cycles. Worker k covers its own shard's ports.
        self.scan_rings(k, agent);

        // ---- Mark + verification rounds.
        self.drain(k, agent);
        loop {
            if self.barrier.wait().is_leader() {
                self.gray_found.store(false, Ordering::Release);
                self.verification_passes.fetch_add(1, Ordering::Relaxed);
            }
            self.barrier.wait();
            if self.scan_shard(shared, k, |e| e.desc.color == Color::Gray) {
                self.gray_found.store(true, Ordering::Release);
            }
            self.barrier.wait();
            if !self.gray_found.load(Ordering::Acquire) {
                break;
            }
            self.drain(k, agent);
        }

        // ---- Sweep (mark globally terminated; all workers arrive here
        // together off the same barrier observation).
        i432_trace::emit(EventKind::GcPhaseSweep, *local_cycles as u32);
        self.sweep_shard(shared, k, agent);

        // ---- Cycle close: nobody starts the next root scan while a
        // shard is still sweeping (a new cycle's marker blackening an
        // object that an old cycle's sweeper then whitens would break
        // the invariant).
        self.barrier.wait();
        *local_cycles += 1;
        i432_trace::emit(EventKind::GcPhaseIdle, *local_cycles as u32);
        if self.barrier.wait().is_leader() {
            self.cycles.fetch_add(1, Ordering::Release);
        }
    }

    fn push_own(&self, k: u32, r: ObjectRef) {
        self.deques[k as usize].push(r);
        self.pushes.fetch_add(1, Ordering::SeqCst);
    }

    /// Shades and pushes every message currently published in the
    /// rings of shard `k`'s ports (seqlock-consistent racy snapshot —
    /// an entry mid-publish is skipped; its message is still reachable
    /// through the sender's context at that instant, and the push
    /// barrier shades it on publication). Rings of dead ports are
    /// skipped: their messages died with the port, exactly as
    /// area-resident messages would have.
    fn scan_rings(&self, k: u32, agent: &mut i432_arch::SpaceAgent<'_>) {
        let Some(reg) = agent.port_rings() else {
            return;
        };
        let reg = Arc::clone(reg);
        let shards = self.deques.len() as u32;
        reg.for_each(|ring| {
            if ring.is_dead() || ring.port().index.0 % shards != k {
                return;
            }
            for msg in ring.snapshot_refs() {
                // A stale ref (message destroyed after the snapshot
                // read) fails the generation check inside shade.
                if agent.shade(msg).is_ok() {
                    self.push_own(k, msg);
                }
            }
        });
    }

    /// Incrementally walks shard `k`'s live directory pages; entries
    /// matching `pred` are shaded under the shard lock and pushed onto
    /// worker `k`'s deque. Returns whether anything matched.
    fn scan_shard(
        &self,
        shared: &SharedSpace,
        k: u32,
        pred: impl Fn(&i432_arch::Entry) -> bool,
    ) -> bool {
        let mut cur = 0u32;
        let mut any = false;
        loop {
            let (batch, next) = shared.with_shard_gc(k, |s| {
                let end = s.table.index_space_end();
                let start = s.table.next_live_index_hint(cur);
                if start >= end {
                    return (Vec::new(), None);
                }
                let hi = start.saturating_add(self.chunk).min(end);
                let mut batch = Vec::new();
                s.table.for_live_in_range(start, hi, &mut |i, e| {
                    if pred(e) {
                        batch.push(ObjectRef {
                            index: i,
                            generation: e.generation,
                        });
                    }
                });
                for r in &batch {
                    let _ = s.shade(*r);
                }
                (batch, Some(hi))
            });
            for r in batch {
                any = true;
                self.push_own(k, r);
            }
            match next {
                Some(hi) => cur = hi,
                None => return any,
            }
        }
    }

    /// Work loop: pop own deque, steal when empty, exit on (racy)
    /// quiescence. Premature exit is harmless: the worker parks at the
    /// verification barrier, which no worker passes before finishing
    /// its own drain, and anything missed is still gray in the table
    /// for the verification scan to re-find.
    fn drain(&self, k: u32, agent: &mut i432_arch::SpaceAgent<'_>) {
        let mut backoff = Backoff::new();
        loop {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            let item = self.deques[k as usize].pop().or_else(|| self.steal(k));
            match item {
                Some(r) => {
                    self.process(k, r, agent);
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    backoff.reset();
                }
                None => {
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    let p = self.pushes.load(Ordering::SeqCst);
                    if self.in_flight.load(Ordering::SeqCst) == 0
                        && self.deques.iter().all(|d| d.looks_empty())
                        && self.pushes.load(Ordering::SeqCst) == p
                    {
                        self.empty_steal_exits.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    backoff.idle();
                }
            }
        }
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

    /// Scans one gray object: shade + push white targets (onto the
    /// scanning worker's own deque), then blacken. Duplicate pushes
    /// from shade races are benign — the second scan sees black and
    /// returns.
    fn process(&self, k: u32, r: ObjectRef, agent: &mut i432_arch::SpaceAgent<'_>) {
        let Ok(color) = agent.color_of(r) else {
            return; // reclaimed/retired since it was pushed
        };
        if color == Color::Black {
            return;
        }
        let Ok(ads) = agent.scan_access_part(r) else {
            return;
        };
        for ad in ads {
            if matches!(agent.color_of(ad.obj), Ok(Color::White)) && agent.shade(ad.obj).is_ok() {
                self.push_own(k, ad.obj);
            }
        }
        let _ = agent.set_color(r, Color::Black);
        self.mark_steps.fetch_add(1, Ordering::Relaxed);
        self.marked_per_worker[k as usize].fetch_add(1, Ordering::Relaxed);
        i432_trace::bump(i432_trace::Counter::GcParMarkSteps);
    }

    /// Sweeps shard `k` incrementally: capture a chunk under the shard
    /// lock, whiten survivors under the shard lock (color-only — no
    /// epoch bump needed), reclaim whites under an atomic section
    /// (destruction filters + cross-shard bookkeeping).
    fn sweep_shard(&self, shared: &SharedSpace, k: u32, agent: &mut i432_arch::SpaceAgent<'_>) {
        // Anything still queued was blackened already or will be
        // re-found next cycle (it is gray in the table).
        self.deques[k as usize].clear();
        let mut local = GcStats::default();
        let mut cur = 0u32;
        loop {
            let (batch, pages, next) = shared.with_shard_gc(k, |s| {
                let end = s.table.index_space_end();
                let start = s.table.next_live_index_hint(cur);
                if start >= end {
                    return (Vec::new(), 0u32, None);
                }
                let hi = start.saturating_add(self.chunk).min(end);
                let mut batch: Vec<(ObjectRef, Color)> = Vec::new();
                let pages = s.table.for_live_in_range(start, hi, &mut |i, e| {
                    batch.push((
                        ObjectRef {
                            index: i,
                            generation: e.generation,
                        },
                        e.desc.color,
                    ));
                });
                (batch, pages, Some(hi))
            });
            i432_trace::bump_by(i432_trace::Counter::GcSweepPages, u64::from(pages));
            self.pages_swept
                .fetch_add(u64::from(pages), Ordering::Relaxed);
            let mut whites: Vec<ObjectRef> = Vec::new();
            if !batch.is_empty() {
                shared.with_shard_gc(k, |s| {
                    for (r, color) in &batch {
                        if s.table.get(*r).is_err() {
                            continue;
                        }
                        match color {
                            // Survivor (gray can appear mid-sweep when
                            // a mutator moves an AD for a live object):
                            // whiten for the next cycle.
                            Color::Black | Color::Gray => {
                                let _ = s.set_color(*r, Color::White);
                            }
                            Color::White => whites.push(*r),
                        }
                    }
                });
            }
            if !whites.is_empty() {
                let config = &self.config;
                let errors = &self.errors;
                agent.atomically(|sm| {
                    for r in &whites {
                        if let Err(f) = reclaim_or_finalize(sm, *r, config, &mut local) {
                            errors.lock().push(format!("sweep shard {k}: {f:?}"));
                        }
                    }
                });
            }
            match next {
                Some(hi) => cur = hi,
                None => break,
            }
        }
        self.reclaimed.fetch_add(local.reclaimed, Ordering::AcqRel);
        self.finalized.fetch_add(local.finalized, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, Rights, ShardedSpace, SpaceMut, SysState};

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
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.errors, Vec::<String>::new());
        assert_eq!(stats.reclaimed, 4 * 20, "exactly the garbage reclaimed");
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
        let after_one = gc.snapshot().reclaimed;
        gc.collect_on(&shared, 1);
        let after_two = gc.snapshot().reclaimed;
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
        assert_eq!(gc.snapshot().reclaimed, 0, "the whole chain is live");
        let space = shared.into_inner();
        for o in chain {
            assert!(space.entry(o).is_ok(), "live chain link lost");
        }
    }
}
