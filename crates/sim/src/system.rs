//! [`System`]: N processors, one object space, simulated time.

use crate::{
    config::SystemConfig,
    interconnect::InterleavedBus,
    trace::{TraceBuffer, TraceEntry},
};
use i432_arch::{
    AccessDescriptor, CodeBody, DomainState, ObjectRef, ObjectSpec, ObjectType, PortState,
    ProcessStatus, Rights, ShardedSpace, Subprogram, SysState, SystemType,
};
use i432_gdp::{
    code::CodeStore,
    cost::CostModel,
    isa::Instruction,
    native::NativeRegistry,
    port,
    process::{deliver_fault, make_process, make_processor, ProcessSpec},
    Env, Fault, Gdp, GdpMode, StepEvent,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a run loop stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All registered processes reached a terminal or waiting state and
    /// every processor is idle: nothing further can happen without
    /// external input.
    Quiescent,
    /// The step budget was exhausted first.
    BudgetExhausted,
    /// The caller's predicate asked to stop.
    Stopped,
    /// A system error halted a processor.
    SystemError(Fault),
}

/// A complete simulated 432 system.
///
/// Fields are public for the iMAX layers; applications interact through
/// iMAX's interface packages.
pub struct System {
    /// The shared object space, partitioned into address-interleaved
    /// shards (one shard with the default configuration).
    pub space: ShardedSpace,
    /// The shared code store.
    pub code: CodeStore,
    /// Registered native service bodies.
    pub natives: NativeRegistry,
    /// The cycle cost model.
    pub cost: CostModel,
    /// The memory interconnect.
    pub bus: InterleavedBus,
    /// Recent-event trace.
    pub trace: TraceBuffer,
    /// The processors, indexed by processor id. Each keeps its binding
    /// registers cached ([`GdpMode::Cached`]), so during a run the bound
    /// process's `ip`, `slice_remaining` and `total_cycles`, and its
    /// processor's `busy_cycles`, may be newer in the GDP than in the
    /// space. That is sound because during a run only the bound
    /// processor touches those fields, and [`System::run_until`] writes
    /// them back on every return, before anything else can read them.
    gdps: Vec<Gdp>,
    /// Per processor: halted. Set when its own step reports a system
    /// error, the only place a processor halts, or finds it halted by an
    /// earlier threaded run. A halted processor is never stepped again.
    halted: Vec<bool>,
    dispatch_port: ObjectRef,
    root_dir: ObjectRef,
    next_anchor: u32,
    next_home: u32,
    processes: Vec<ObjectRef>,
    services: Vec<ObjectRef>,
    timers: BinaryHeap<Reverse<(u64, ObjectRef)>>,
    steps: u64,
}

/// Access-part slots in the system root directory.
const ROOT_DIR_SLOTS: u32 = 2048;

impl System {
    /// Builds a system per the hardware configuration: arenas, object
    /// table, the system dispatching port, and the processors.
    pub fn new(config: &SystemConfig) -> System {
        let mut space = ShardedSpace::new(
            config.data_bytes,
            config.access_slots,
            config.table_limit,
            config.shards,
        );
        // System-wide objects (dispatching port, root directory) live in
        // shard 0; processors round-robin over the shard roots so their
        // per-processor state spreads across the stripes.
        let root = space.root_sro();
        let dispatch_port = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(config.dispatch_capacity, 16),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(
                        config.dispatch_capacity,
                        16,
                        config.dispatch_discipline,
                    )),
                },
            )
            .expect("dispatch port fits a fresh arena");
        let dispatch_ad = space.mint(dispatch_port, Rights::NONE);
        // The system root directory: everything the "outside world"
        // (host-side code standing in for iMAX's global service registry)
        // holds is anchored here, and the directory hangs off every
        // processor's root slot — so the garbage collector's roots cover
        // it without any central table of objects.
        let root_dir = space
            .create_object(root, ObjectSpec::generic(0, ROOT_DIR_SLOTS))
            .expect("root directory fits a fresh arena");
        let mut gdps = Vec::new();
        for id in 0..config.processors {
            let home = space.root_sro_of(id % space.shard_count());
            let cpu = make_processor(&mut space, home, id, dispatch_ad)
                .expect("processor objects fit a fresh arena");
            let dir_ad = space.mint(root_dir, Rights::READ | Rights::WRITE);
            space
                .store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(dir_ad))
                .expect("fresh processor has a root slot");
            gdps.push(Gdp::new(cpu, GdpMode::Cached));
        }
        System {
            space,
            code: CodeStore::new(),
            natives: NativeRegistry::new(),
            cost: config.cost,
            bus: InterleavedBus::new(config.buses, config.bus_cycles_per_word),
            trace: TraceBuffer::new(config.trace_capacity),
            halted: vec![false; gdps.len()],
            gdps,
            dispatch_port,
            root_dir,
            next_anchor: 0,
            next_home: 0,
            processes: Vec::new(),
            services: Vec::new(),
            timers: BinaryHeap::new(),
            steps: 0,
        }
    }

    /// Reclassifies a spawned process as a *system service* (e.g. the GC
    /// daemon): it stays anchored and dispatchable but is excluded from
    /// completion tracking — services run forever by design.
    pub fn mark_service(&mut self, p: ObjectRef) {
        self.processes.retain(|q| *q != p);
        if !self.services.contains(&p) {
            self.services.push(p);
        }
    }

    /// Registered service processes.
    pub fn services(&self) -> &[ObjectRef] {
        &self.services
    }

    /// The system root directory object.
    pub fn root_dir(&self) -> ObjectRef {
        self.root_dir
    }

    /// Anchors an access descriptor in the root directory so the object
    /// stays reachable from the garbage collector's roots until
    /// [`System::unanchor`] removes it.
    pub fn anchor(&mut self, ad: AccessDescriptor) -> u32 {
        // Reuse freed slots lazily: scan from the cursor.
        for _ in 0..ROOT_DIR_SLOTS {
            let slot = self.next_anchor % ROOT_DIR_SLOTS;
            self.next_anchor = self.next_anchor.wrapping_add(1);
            if self
                .space
                .load_ad_hw(self.root_dir, slot)
                .expect("root dir slot")
                .is_none()
            {
                self.space
                    .store_ad_hw(self.root_dir, slot, Some(ad))
                    .expect("root dir slot");
                return slot;
            }
        }
        panic!("system root directory is full");
    }

    /// Retires every terminated process in one directory pass: clears
    /// its root-directory anchor and drops it from completion tracking,
    /// so its process object (and context chain) becomes collectable.
    /// Boot-storm harnesses spawn clients in waves; the per-object
    /// [`System::unanchor`] would rescan the whole directory once per
    /// process. Returns how many processes were retired.
    pub fn retire_terminated(&mut self) -> u32 {
        for slot in 0..ROOT_DIR_SLOTS {
            let anchored = match self.space.load_ad_hw(self.root_dir, slot) {
                Ok(Some(ad)) => ad.obj,
                _ => continue,
            };
            if matches!(
                self.space.process(anchored).map(|s| s.status),
                Ok(ProcessStatus::Terminated)
            ) {
                let _ = self.space.store_ad_hw(self.root_dir, slot, None);
            }
        }
        let mut procs = std::mem::take(&mut self.processes);
        let before = procs.len();
        // Drop terminated processes *and* processes whose table entry is
        // already gone: a process retired concurrently (see
        // [`System::retire_terminated_shared`]) may have been reclaimed
        // by the collector before this pass runs, and retaining its
        // dangling ref would leak it from tracking forever.
        procs.retain(|p| match self.space.process(*p).map(|s| s.status) {
            Ok(ProcessStatus::Terminated) | Err(_) => false,
            Ok(_) => true,
        });
        let retired = (before - procs.len()) as u32;
        self.processes = procs;
        retired
    }

    /// Shared-space variant of [`System::retire_terminated`], for use
    /// *during* a threaded run: scans the root directory through a
    /// [`i432_arch::SpaceAgent`], clearing the anchor of every process
    /// that has reached `Terminated`. The exclusive variant needs `&mut
    /// System`, which only exists outside a run; this one can race
    /// freely with mutator threads and the parallel collector's markers
    /// — a process retired mid-mark was shaded by the cycle's scan (or
    /// will be re-found gray by verification) and is therefore
    /// reclaimed by a *later* cycle, never the one in flight.
    ///
    /// Retires at most `limit` processes per call (pass `u32::MAX` for
    /// all), so harnesses can stagger retirement in waves against the
    /// collector's cycle phases. Returns the retired process refs.
    /// Completion tracking is not touched (the `System` is disassembled
    /// during a run); callers reconcile afterwards with
    /// [`System::retire_terminated`], which also drops refs whose
    /// objects the collector already reclaimed.
    pub fn retire_terminated_shared(
        shared: &i432_arch::SharedSpace,
        root_dir: ObjectRef,
        limit: u32,
    ) -> Vec<ObjectRef> {
        use i432_arch::{SpaceAccess, SpaceAccessExt};
        let mut agent = shared.agent();
        let mut retired = Vec::new();
        for slot in 0..ROOT_DIR_SLOTS {
            if retired.len() as u32 >= limit {
                break;
            }
            let Ok(Some(ad)) = agent.load_ad_hw(root_dir, slot) else {
                continue;
            };
            if matches!(
                agent.with_process(ad.obj, |s| s.status),
                Ok(ProcessStatus::Terminated)
            ) {
                // Between the status read and this clear the process
                // cannot be revived (Terminated is final) and cannot be
                // reclaimed (the anchor still holds it); double
                // retirement from a racing thread just clears an
                // already-empty slot.
                let _ = agent.store_ad_hw(root_dir, slot, None);
                retired.push(ad.obj);
            }
        }
        retired
    }

    /// Removes every anchor for `obj` from the root directory (the object
    /// becomes collectable once no live process references it).
    pub fn unanchor(&mut self, obj: ObjectRef) {
        for slot in 0..ROOT_DIR_SLOTS {
            if let Ok(Some(ad)) = self.space.load_ad_hw(self.root_dir, slot) {
                if ad.obj == obj {
                    let _ = self.space.store_ad_hw(self.root_dir, slot, None);
                }
            }
        }
        self.processes.retain(|p| *p != obj);
        self.services.retain(|p| *p != obj);
    }

    /// The system dispatching port.
    pub fn dispatch_port(&self) -> ObjectRef {
        self.dispatch_port
    }

    /// An access descriptor for the system dispatching port.
    pub fn dispatch_ad(&self) -> AccessDescriptor {
        self.space.mint(self.dispatch_port, Rights::NONE)
    }

    /// The processor objects, in id order.
    pub fn processors(&self) -> Vec<ObjectRef> {
        self.gdps.iter().map(|g| g.cpu).collect()
    }

    /// Registered (spawned) processes.
    pub fn processes(&self) -> &[ObjectRef] {
        &self.processes
    }

    /// Total steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulated time: the furthest local clock.
    pub fn now(&self) -> u64 {
        self.gdps.iter().map(|g| g.clock).max().unwrap_or(0)
    }

    /// Installs an instruction body and returns a subprogram descriptor
    /// for it.
    pub fn subprogram(
        &mut self,
        name: &str,
        code: Vec<Instruction>,
        ctx_data_len: u32,
        ctx_access_len: u32,
    ) -> Subprogram {
        let cr = self.code.install(code);
        Subprogram {
            name: name.into(),
            body: CodeBody::Interpreted(cr),
            ctx_data_len,
            ctx_access_len,
        }
    }

    /// Creates a domain object with the given subprograms, returning a
    /// call-rights access descriptor for it.
    pub fn install_domain(
        &mut self,
        name: &str,
        subprograms: Vec<Subprogram>,
        owned_slots: u32,
    ) -> AccessDescriptor {
        let root = self.space.root_sro();
        let dom = self
            .space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: owned_slots,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: name.into(),
                        subprograms,
                    }),
                },
            )
            .expect("domain allocation");
        let ad = self.space.mint(dom, Rights::CALL);
        self.anchor(ad);
        ad
    }

    /// Spawns a process running `subprogram` of `domain`, enters it into
    /// the dispatching mix, and registers it for quiescence tracking.
    pub fn spawn(
        &mut self,
        domain: AccessDescriptor,
        subprogram: u32,
        arg: Option<AccessDescriptor>,
    ) -> ObjectRef {
        let dispatch = self.dispatch_ad();
        self.spawn_with(domain, subprogram, arg, ProcessSpec::new(dispatch))
    }

    /// [`System::spawn`] with an explicit process specification.
    pub fn spawn_with(
        &mut self,
        domain: AccessDescriptor,
        subprogram: u32,
        arg: Option<AccessDescriptor>,
        spec: ProcessSpec,
    ) -> ObjectRef {
        // Round-robin the process's home shard: its process object,
        // contexts and local heap all allocate from that shard's root
        // SRO, so independent processes touch independent stripes.
        let home = self.next_home % self.space.shard_count();
        self.next_home = self.next_home.wrapping_add(1);
        let root = self.space.root_sro_of(home);
        let p = make_process(&mut self.space, root, domain, subprogram, arg, spec)
            .expect("process creation");
        port::make_ready(&mut self.space, p).expect("dispatch enqueue");
        self.anchor(self.space.mint(p, Rights::CONTROL));
        self.processes.push(p);
        p
    }

    /// Advances the least-advanced active processor by one step. Returns
    /// `None` when every processor is halted. Leaves binding registers
    /// cached in the GDPs; only [`System::run_until`] calls it.
    fn step(&mut self) -> Option<(u32, StepEvent)> {
        // Pick the active GDP with the minimum local clock (ties broken by
        // index — deterministic).
        let mut pick: Option<usize> = None;
        for (i, g) in self.gdps.iter().enumerate() {
            if self.halted[i] {
                continue;
            }
            if pick.is_none_or(|p| g.clock < self.gdps[p].clock) {
                pick = Some(i);
            }
        }
        let i = pick?;
        // Fire expired receive timeouts before advancing: a blocked
        // process whose deadline predates the least-advanced clock can
        // never be rescued by a message in its past.
        let now = self.gdps[i].clock;
        self.fire_timers(now);
        let gdp = &mut self.gdps[i];
        let cpu_id = i as u32;
        let event = {
            let mut env = Env {
                space: &mut self.space,
                code: &self.code,
                natives: &self.natives,
                bus: &mut self.bus,
                cost: self.cost,
            };
            gdp.step(&mut env)
        };
        self.steps += 1;
        if matches!(event, StepEvent::SystemError { .. } | StepEvent::Halted) {
            self.halted[i] = true;
        }
        // Arm the timer for a process that just blocked on a timed
        // receive.
        if let StepEvent::Blocked(p) = &event {
            if let Ok(ps) = self.space.process(*p) {
                if ps.timeout_at > 0 {
                    self.timers.push(Reverse((ps.timeout_at, *p)));
                }
            }
        }
        if self.trace.capacity() > 0 {
            self.trace.record(TraceEntry {
                cpu: cpu_id,
                clock: self.gdps[i].clock,
                event: event.clone(),
            });
        }
        Some((cpu_id, event))
    }

    /// Expires timed receives whose deadline is at or before `now`: the
    /// process is pulled out of the port's waiting area, faulted with a
    /// timeout, and delivered to its fault port (terminated if none).
    fn fire_timers(&mut self, now: u64) {
        while let Some(Reverse((deadline, p))) = self.timers.peek().copied() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            // Stale entries (the rendezvous won, or the process died)
            // are skipped: timeout_at was cleared or changed.
            let armed = self
                .space
                .process(p)
                .map(|ps| ps.timeout_at == deadline)
                .unwrap_or(false);
            if !armed {
                continue;
            }
            match port::expire_timeout(&mut self.space, p) {
                Ok(true) => {
                    let _ = deliver_fault(&mut self.space, p);
                }
                Ok(false) => {}
                Err(_) => {}
            }
        }
    }

    /// Runs until the predicate returns true, quiescence, or the step
    /// budget is exhausted. Every return writes the GDPs' cached binding
    /// registers back to the space.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        stop: impl FnMut(u32, &StepEvent) -> bool,
    ) -> RunOutcome {
        let outcome = self.run_steps(max_steps, stop);
        for g in &mut self.gdps {
            g.flush_bound(&mut self.space);
        }
        outcome
    }

    /// The loop of [`System::run_until`], without the final write-back.
    fn run_steps(
        &mut self,
        max_steps: u64,
        mut stop: impl FnMut(u32, &StepEvent) -> bool,
    ) -> RunOutcome {
        // Quiescence: every processor's most recent step was an idle
        // poll (or it is halted). A single busy processor keeps the
        // system live no matter how often its peers poll empty ports.
        let mut idle = self.halted.clone();
        for _ in 0..max_steps {
            let Some((cpu, event)) = self.step() else {
                return RunOutcome::Quiescent;
            };
            match &event {
                StepEvent::Idle | StepEvent::Halted => {
                    if let Some(f) = idle.get_mut(cpu as usize) {
                        *f = true;
                    }
                }
                StepEvent::SystemError { fault, .. } => {
                    return RunOutcome::SystemError(fault.clone());
                }
                _ => {
                    if let Some(f) = idle.get_mut(cpu as usize) {
                        *f = false;
                    }
                }
            }
            if stop(cpu, &event) {
                return RunOutcome::Stopped;
            }
            if idle.iter().all(|f| *f) {
                return RunOutcome::Quiescent;
            }
        }
        RunOutcome::BudgetExhausted
    }

    /// Runs until every registered process has terminated (or a budget /
    /// error stop).
    pub fn run_to_completion(&mut self, max_steps: u64) -> RunOutcome {
        let procs = self.processes.clone();
        let mut remaining: usize = procs
            .iter()
            .filter(|p| {
                !matches!(
                    self.space.process(**p).map(|s| s.status),
                    Ok(ProcessStatus::Terminated)
                )
            })
            .count();
        if remaining == 0 {
            return RunOutcome::Stopped;
        }
        self.run_until(max_steps, |_, e| {
            if matches!(e, StepEvent::ProcessExited(_)) {
                remaining = remaining.saturating_sub(1);
            }
            remaining == 0
        })
    }

    /// Runs until quiescent.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> RunOutcome {
        self.run_until(max_steps, |_, _| false)
    }

    /// Status of one registered process.
    pub fn status_of(&self, p: ObjectRef) -> Option<ProcessStatus> {
        self.space.process(p).ok().map(|s| s.status)
    }

    /// Aggregate busy/idle cycles over all processors.
    pub fn utilization(&self) -> (u64, u64) {
        let mut busy = 0;
        let mut idle = 0;
        for g in &self.gdps {
            if let Ok(p) = self.space.processor(g.cpu) {
                busy += p.busy_cycles;
                idle += p.idle_cycles;
            }
        }
        (busy, idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_gdp::ProgramBuilder;

    /// A domain with one subprogram that burns `per_iter` cycles for
    /// `iters` iterations, then halts.
    fn worker_domain(sys: &mut System, iters: u64, per_iter: u32) -> AccessDescriptor {
        use i432_gdp::isa::{AluOp, DataDst, DataRef};
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(iters), DataDst::Local(0));
        p.bind(top);
        p.work(per_iter);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("work", p.finish(), 64, 8);
        sys.install_domain("worker", vec![sub], 0)
    }

    #[test]
    fn single_process_runs_to_completion() {
        let mut sys = System::new(&SystemConfig::small());
        let dom = worker_domain(&mut sys, 10, 100);
        let p = sys.spawn(dom, 0, None);
        let outcome = sys.run_to_completion(100_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(sys.status_of(p), Some(ProcessStatus::Terminated));
        assert!(sys.now() > 0);
    }

    #[test]
    fn two_processors_halve_parallel_makespan() {
        let elapsed = |cpus: u32| {
            let mut sys = System::new(&SystemConfig::small().with_processors(cpus));
            let dom = worker_domain(&mut sys, 200, 500);
            for _ in 0..4 {
                sys.spawn(dom, 0, None);
            }
            let outcome = sys.run_to_completion(10_000_000);
            assert_eq!(outcome, RunOutcome::Stopped, "{cpus} cpus");
            sys.now()
        };
        let t1 = elapsed(1);
        let t2 = elapsed(2);
        let speedup = t1 as f64 / t2 as f64;
        assert!(
            speedup > 1.6,
            "2 processors should nearly halve the makespan (got {speedup:.2}x)"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sys = System::new(&SystemConfig::small().with_processors(3));
            let dom = worker_domain(&mut sys, 50, 200);
            for _ in 0..5 {
                sys.spawn(dom, 0, None);
            }
            sys.run_to_completion(10_000_000);
            (sys.now(), sys.steps(), sys.utilization())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retire_terminated_frees_anchor_slots_and_tracking() {
        let mut sys = System::new(&SystemConfig::small());
        let dom = worker_domain(&mut sys, 5, 50);
        for _ in 0..10 {
            sys.spawn(dom, 0, None);
        }
        assert_eq!(sys.run_to_completion(1_000_000), RunOutcome::Stopped);
        assert_eq!(sys.retire_terminated(), 10);
        assert!(sys.processes().is_empty());
        // A second pass finds nothing, and spawning keeps working (the
        // anchor slots really were released).
        assert_eq!(sys.retire_terminated(), 0);
        let p = sys.spawn(dom, 0, None);
        assert_eq!(sys.run_to_completion(1_000_000), RunOutcome::Stopped);
        assert_eq!(sys.status_of(p), Some(ProcessStatus::Terminated));
    }

    #[test]
    fn quiescence_detected_when_nothing_to_run() {
        let mut sys = System::new(&SystemConfig::small().with_processors(2));
        let outcome = sys.run_to_quiescence(10_000);
        assert_eq!(outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn utilization_accounts_busy_and_idle() {
        let mut sys = System::new(&SystemConfig::small().with_processors(2));
        let dom = worker_domain(&mut sys, 10, 100);
        sys.spawn(dom, 0, None); // only one process: second cpu idles
        sys.run_to_completion(1_000_000);
        let (busy, idle) = sys.utilization();
        assert!(busy > 0);
        assert!(idle > 0);
    }

    #[test]
    fn bus_contention_slows_execution() {
        let elapsed = |buses: usize| {
            let mut sys = System::new(
                &SystemConfig::small()
                    .with_processors(8)
                    .with_buses(buses, 2),
            );
            // Memory-heavy workload: lots of Mov locals.
            use i432_gdp::isa::{AluOp, DataDst, DataRef};
            let mut p = ProgramBuilder::new();
            let top = p.new_label();
            p.mov(DataRef::Imm(300), DataDst::Local(0));
            p.bind(top);
            p.mov(DataRef::Local(0), DataDst::Local(8));
            p.mov(DataRef::Local(8), DataDst::Local(16));
            p.alu(
                AluOp::Sub,
                DataRef::Local(0),
                DataRef::Imm(1),
                DataDst::Local(0),
            );
            p.jump_if_nonzero(DataRef::Local(0), top);
            p.halt();
            let sub = sys.subprogram("memhog", p.finish(), 64, 8);
            let dom = sys.install_domain("memhog", vec![sub], 0);
            for _ in 0..8 {
                sys.spawn(dom, 0, None);
            }
            assert_eq!(sys.run_to_completion(50_000_000), RunOutcome::Stopped);
            sys.now()
        };
        let narrow = elapsed(1);
        let wide = elapsed(16);
        assert!(
            narrow > wide,
            "1 bus ({narrow}) should be slower than 16 buses ({wide})"
        );
    }
}
