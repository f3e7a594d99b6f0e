//! [`System`]: N processors, one object space, simulated time.

use crate::{config::SystemConfig, interconnect::InterleavedBus};
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
    /// The processors, indexed by processor id. Each keeps its binding
    /// registers cached ([`GdpMode::Cached`]), so during a run the bound
    /// process's `ip`, `slice_remaining` and `total_cycles`, and its
    /// processor's `busy_cycles`, may be newer in the GDP than in the
    /// space. That is sound because during a run only the bound
    /// processor touches those fields, and [`System::run_until`] writes
    /// them back on every return, before anything else can read them.
    gdps: Vec<Gdp>,
    /// Per processor: the key the pick scans, its clock while it is
    /// active and `u64::MAX` while it waits or is halted.
    keys: Vec<u64>,
    /// Per processor: where it stands in the schedule.
    states: Vec<CpuState>,
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

/// Where a processor stands in [`System`]'s schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuState {
    /// Stepped in (clock, index) order.
    Active,
    /// Its last step polled an empty dispatching port. It is not stepped
    /// until the port fills or a receive timeout falls due, and is then
    /// charged the polls it would have made (see [`System::run_until`]).
    /// Only inside a run.
    Waiting,
    /// Halted: its own step reported a system error, the only place a
    /// processor halts, or found it halted by an earlier threaded run.
    /// Never stepped again.
    Halted,
}

/// Idle polls a processor waiting at clock `c` with index `p` makes
/// before the step `(t, i)`, polling every `q` cycles: its polls at
/// `c`, `c + q`, ... ordered before `(t, i)` by (clock, index).
fn polls_before(c: u64, p: usize, t: u64, i: usize, q: u64) -> u64 {
    if t < c {
        return 0;
    }
    let d = t - c;
    d.div_ceil(q) + u64::from(d.is_multiple_of(q) && p < i)
}

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
        space.doorbell().watch(dispatch_port);
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
            keys: vec![0; gdps.len()],
            states: vec![CpuState::Active; gdps.len()],
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
    /// freely with mutator threads and a collector stepping in all-shard
    /// sections — a process retired mid-mark was shaded by the cycle's scan (or
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

    /// Total steps executed, counting the idle polls charged to
    /// processors that waited at the dispatching port as steps. Those
    /// polls are not passed to a [`System::run_until`] predicate.
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

    /// Steps processor `i` at its clock, the least (clock, index) among
    /// the active processors: fires the receive timeouts due by then,
    /// steps the GDP, counts the step, and arms the timer of a process
    /// that just blocked on a timed receive. Leaves binding registers
    /// cached in the GDP; only [`System::run_until`] calls it.
    fn step(&mut self, i: usize) -> StepEvent {
        // Fire expired receive timeouts before advancing: a blocked
        // process whose deadline predates the least-advanced clock can
        // never be rescued by a message in its past.
        self.fire_timers(self.keys[i]);
        let event = {
            let mut env = Env {
                space: &mut self.space,
                code: &self.code,
                natives: &self.natives,
                bus: &mut self.bus,
                cost: self.cost,
            };
            self.gdps[i].step(&mut env)
        };
        self.steps += 1;
        if let StepEvent::Blocked(p) = &event {
            if let Ok(ps) = self.space.process(*p) {
                if ps.timeout_at > 0 {
                    self.timers.push(Reverse((ps.timeout_at, *p)));
                }
            }
        }
        event
    }

    /// The active processor with the least clock, ties to the lower
    /// index; `None` when none is active.
    fn pick(&self) -> Option<usize> {
        let mut pick = 0;
        let mut least = u64::MAX;
        for (i, &k) in self.keys.iter().enumerate() {
            if k < least {
                least = k;
                pick = i;
            }
        }
        (least != u64::MAX).then_some(pick)
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

    /// Charges each waiting processor the idle polls it makes before the
    /// step `(t, i)`, but at most `limit` polls in all: the first ones in
    /// (clock, index) order. Returns how many it charged. The processors
    /// keep waiting, each with its clock at its next poll.
    fn charge_waits(&mut self, t: u64, i: usize, limit: u64) -> u64 {
        let q = self.cost.idle_poll;
        let pending = self.polls_to(t, i);
        // The cut: every poll before `(at, i)`, plus one poll at clock
        // `at` for each of the first `extra` processors polling then.
        let (at, i, mut extra) = if pending <= limit {
            (t, i, 0)
        } else {
            // The last clock whose earlier polls fit in the limit.
            let mut lo = self.wait_floor().min(t);
            let mut hi = t;
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if self.polls_to(mid, 0) <= limit {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            (lo, 0, limit - self.polls_to(lo, 0))
        };
        let mut env = Env {
            space: &mut self.space,
            code: &self.code,
            natives: &self.natives,
            bus: &mut self.bus,
            cost: self.cost,
        };
        for (p, gdp) in self.gdps.iter_mut().enumerate() {
            if self.states[p] != CpuState::Waiting {
                continue;
            }
            let c = gdp.clock;
            let mut polls = polls_before(c, p, at, i, q);
            if extra > 0 && c <= at && (at - c).is_multiple_of(q) {
                polls += 1;
                extra -= 1;
            }
            gdp.charge_idle_polls(&mut env, self.dispatch_port, polls);
            self.steps += polls;
        }
        pending.min(limit)
    }

    /// The waiting processors.
    fn waiting(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.states.len()).filter(|&p| self.states[p] == CpuState::Waiting)
    }

    /// Idle polls the waiting processors make before the step `(t, i)`.
    fn polls_to(&self, t: u64, i: usize) -> u64 {
        let q = self.cost.idle_poll;
        self.waiting()
            .map(|p| polls_before(self.gdps[p].clock, p, t, i, q))
            .sum()
    }

    /// The least clock among the waiting processors (`u64::MAX` when
    /// none waits).
    fn wait_floor(&self) -> u64 {
        self.waiting()
            .map(|p| self.gdps[p].clock)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Makes every waiting processor active again at its clock.
    fn wake_all(&mut self) {
        for (p, s) in self.states.iter_mut().enumerate() {
            if *s == CpuState::Waiting {
                *s = CpuState::Active;
                self.keys[p] = self.gdps[p].clock;
            }
        }
    }

    /// Runs until the predicate returns true, quiescence, or the step
    /// budget is exhausted. Every return writes the GDPs' cached binding
    /// registers back to the space.
    ///
    /// Steps run in (start clock, processor index) order. A processor
    /// whose step polls an empty dispatching port waits there instead of
    /// polling again every `cost.idle_poll` cycles: it is not stepped
    /// until a step leaves the port non-empty (even with a process that
    /// is not runnable, which a poll would take off the port) or the next
    /// step reaches the earliest receive deadline. It is then charged in
    /// one write ([`i432_gdp::Gdp::charge_idle_polls`]) exactly the polls
    /// it would have made before that point, and steps again from its
    /// next poll. Clocks, busy and idle cycles, [`System::steps`] and the
    /// outcome are those of polling: charged polls count against
    /// `max_steps`, a budget that runs out among them charges exactly the
    /// polls that fit, and each return charges the polls made before the
    /// last step, so no processor waits between runs. Charged polls are
    /// not passed to `stop`: a predicate that stops on
    /// [`StepEvent::Idle`] sees only the polls that ran. With a zero `idle_poll` processors poll without waiting.
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
        let q = self.cost.idle_poll;
        let start = self.steps;
        // Quiescence: every processor's most recent step was an idle
        // poll (or it is halted). A single busy processor keeps the
        // system live no matter how often its peers poll empty ports.
        let mut idle: Vec<bool> = self.states.iter().map(|s| *s == CpuState::Halted).collect();
        let mut idle_count = idle.iter().filter(|f| **f).count();
        // Waiting processors and the least clock among them.
        let mut waiting = 0u64;
        let mut wait_floor = u64::MAX;
        // The last step taken, as (start clock, index).
        let mut last = None;
        let outcome = loop {
            let done = self.steps - start;
            if done >= max_steps {
                break RunOutcome::BudgetExhausted;
            }
            let Some(mut i) = self.pick() else {
                break RunOutcome::Quiescent;
            };
            if waiting > 0 {
                let rem = max_steps - done;
                let deadline = self.timers.peek().map(|Reverse((d, _))| *d);
                if let Some(d) = deadline.filter(|d| self.keys[i] >= *d) {
                    // Wake on timeout: the timer fires on the first step
                    // at or after `d`, which may be a waiting processor's
                    // poll.
                    if self.charge_waits(d, 0, rem) == rem {
                        break RunOutcome::BudgetExhausted;
                    }
                    self.wake_all();
                    (waiting, wait_floor) = (0, u64::MAX);
                    i = self.pick().expect("woken processors are active");
                } else if waiting.saturating_mul((self.keys[i].saturating_sub(wait_floor)) / q + 2)
                    >= rem
                {
                    // The polls before this step may use up the budget:
                    // charge them now, exactly the ones that fit.
                    if self.charge_waits(self.keys[i], i, rem) == rem {
                        break RunOutcome::BudgetExhausted;
                    }
                    wait_floor = self.wait_floor();
                }
            }
            let t = self.keys[i];
            let event = self.step(i);
            last = Some((t, i));
            match &event {
                StepEvent::Idle if q > 0 => {
                    self.states[i] = CpuState::Waiting;
                    self.keys[i] = u64::MAX;
                    waiting += 1;
                    wait_floor = wait_floor.min(self.gdps[i].clock);
                }
                StepEvent::Halted | StepEvent::SystemError { .. } => {
                    self.states[i] = CpuState::Halted;
                    self.keys[i] = u64::MAX;
                }
                _ => self.keys[i] = self.gdps[i].clock,
            }
            let now_idle = matches!(
                event,
                StepEvent::Idle | StepEvent::Halted | StepEvent::SystemError { .. }
            );
            idle_count = idle_count + usize::from(now_idle) - usize::from(idle[i]);
            idle[i] = now_idle;
            // Wake on fill: the waiting processors' next polls would find
            // the port non-empty.
            if waiting > 0
                && self
                    .space
                    .port(self.dispatch_port)
                    .is_ok_and(|p| p.msg_count > 0)
            {
                self.charge_waits(t, i, u64::MAX);
                self.wake_all();
                (waiting, wait_floor) = (0, u64::MAX);
            }
            if let StepEvent::SystemError { fault, .. } = &event {
                break RunOutcome::SystemError(fault.clone());
            }
            if stop(i as u32, &event) {
                break RunOutcome::Stopped;
            }
            if idle_count == idle.len() {
                break RunOutcome::Quiescent;
            }
        };
        // A budget that ran out among the polls has charged them up to
        // a point after the last step already; this then charges none.
        if waiting > 0 {
            if let Some((t, i)) = last {
                self.charge_waits(t, i, u64::MAX);
            }
            self.wake_all();
        }
        outcome
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
