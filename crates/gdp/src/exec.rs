//! The instruction interpreter and implicit processor behaviour.
//!
//! [`Gdp::step`] advances one processor by one unit of work: an idle poll,
//! a dispatch, or one instruction of the bound process. Everything the
//! paper describes as *implicit* hardware behaviour happens here — binding
//! ready processes from dispatching ports, time-slice end, delivering
//! faulted processes to their fault ports, and returning blocked
//! processes' processors to the dispatching loop.

use crate::{
    code::CodeStore,
    context::{context_state, create_context, destroy_context, subprogram_of, with_context_state},
    cost::CostModel,
    dispatch::BlockCache,
    fault::{Fault, FaultKind},
    interconnect::Interconnect,
    isa::{DataDst, DataRef, Instruction},
    native::{NativeCtx, NativeRegistry},
    port::{self, RecvOutcome, SendOutcome},
    process::{current_process, deliver_fault, notify_scheduler, try_dispatch, unbind},
};
use i432_arch::{
    sysobj::{CTX_SLOT_CALLER, CTX_SLOT_SRO, PROC_SLOT_CONTEXT, PROC_SLOT_LOCAL_HEAP},
    AccessDescriptor, CodeBody, ObjectRef, ObjectSpec, ObjectType, ProcessStatus, ProcessorStatus,
    Rights, SpaceAccess, SpaceAccessExt, SpaceMut, SysState, SystemType,
};
use std::ops::ControlFlow;

/// Everything a processor needs besides its own state.
///
/// `S` is either object-space implementation: the deterministic
/// runner's exclusively owned [`i432_arch::ShardedSpace`], or a
/// per-thread [`i432_arch::SpaceAgent`] over a lock-striped shared
/// space. All capability checks stay behind the [`SpaceAccess`]
/// boundary.
pub struct Env<'a, S: SpaceAccess + ?Sized> {
    /// The shared object space.
    pub space: &'a mut S,
    /// The shared code store.
    pub code: &'a CodeStore,
    /// Registered native service bodies.
    pub natives: &'a NativeRegistry,
    /// The memory interconnect (bus contention model).
    pub bus: &'a mut dyn Interconnect,
    /// The cycle cost model.
    pub cost: CostModel,
}

/// What one step of a processor did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// Polled an empty dispatching port.
    Idle,
    /// Bound a ready process.
    Dispatched(ObjectRef),
    /// Executed one instruction of the bound process.
    Executed {
        /// The process that ran.
        process: ObjectRef,
        /// Cycles charged (including bus waits).
        cycles: u64,
    },
    /// The bound process blocked at a port; the processor is idle again.
    Blocked(ObjectRef),
    /// The bound process exhausted its time slice and was re-queued.
    TimesliceEnd(ObjectRef),
    /// The bound process faulted and was delivered to its fault port (or
    /// terminated if it has none).
    ProcessFaulted {
        /// The faulted process.
        process: ObjectRef,
        /// Fault classification.
        kind: FaultKind,
    },
    /// The bound process finished (root RETURN or HALT).
    ProcessExited(ObjectRef),
    /// A fault occurred that the system may not tolerate (fault at a
    /// forbidden system level, or executive inconsistency): the processor
    /// halted.
    SystemError {
        /// The process involved, if any.
        process: Option<ObjectRef>,
        /// The fault.
        fault: Fault,
    },
    /// The processor is halted; nothing happens.
    Halted,
}

/// Cycle/traffic accumulator for one instruction.
#[derive(Debug, Default, Clone, Copy)]
struct Charge {
    cycles: u64,
    words: u32,
}

impl Charge {
    fn add(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
    fn mem(&mut self, words: u32, cost: &CostModel) {
        self.cycles += words as u64 * cost.mem_word;
        self.words += words;
    }
    fn ot(&mut self, cost: &CostModel) {
        self.cycles += cost.ot_lookup;
        self.words += 2;
    }
    fn ad(&mut self, cost: &CostModel) {
        self.cycles += cost.ad_move;
        self.words += 1;
    }
}

/// Control outcome of one instruction.
enum Ctl {
    /// Advance to the next instruction.
    Next,
    /// Jump to this instruction index.
    Jump(u32),
    /// Control transferred (CALL/RETURN manage the instruction pointers
    /// themselves).
    Switched,
    /// The process blocked at a port, and the blocking instruction cost
    /// the cycles carried. The producer must have fully committed the
    /// block *inside the same atomic section* that parked the process
    /// ([`Gdp::commit_block`]): the instruction charged, binding registers
    /// written back, ip advanced past the blocking instruction and the
    /// processor unbound. The moment that section's locks drop, a
    /// rendezvous on another processor may legally redispatch the
    /// process — any later touch of its process or context objects from
    /// this processor races with its resumed execution (a stale ip here
    /// once made a woken receiver re-execute its RECEIVE and swallow the
    /// message), so the step only advances its own clock.
    Blocked(u64),
    /// The process finished.
    Exited,
}

/// Extra cycles a RECEIVE pays to select among queued messages: FIFO
/// takes the head for free; priority/deadline disciplines scan the keys
/// (2 cycles per queued entry, the hardware's linear selection).
fn queue_scan_cost<S: SpaceAccess + ?Sized>(space: &mut S, port_ad: AccessDescriptor) -> u64 {
    space
        .with_port(port_ad.obj, |p| {
            if p.discipline != i432_arch::PortDiscipline::Fifo {
                2 * p.msg_count as u64
            } else {
                0
            }
        })
        .unwrap_or(0)
}

/// Access descriptors one idle poll loads: the processor's process slot
/// (no process bound) and its dispatching-port slot.
const IDLE_POLL_AD_LOADS: u64 = 2;

/// The binding registers of one processor, cached between instructions.
///
/// The real 432 keeps the bound process, current context and instruction
/// pointer in on-chip registers while a process is bound; it only writes
/// them back to the process/context objects at a *binding change*
/// (block, preempt, fault, exit, call, return). This mirror lets the
/// interpreter execute every instruction but CALL, RETURN and HALT
/// without consulting the object space for per-step bookkeeping — which,
/// over a lock-striped shared space, means without taking a shard lock
/// for it.
///
/// Everything here is a pure copy of space state that only this
/// processor mutates while the process stays bound: the instruction
/// pointer and remaining time slice, plus cycle counts accumulated since
/// the last write-back.
#[derive(Debug, Clone, Copy)]
struct BoundState {
    /// The bound process.
    proc_ref: ObjectRef,
    /// Its current (top-of-chain) context.
    ctx: ObjectRef,
    /// The context's interpreted code segment.
    code: i432_arch::CodeRef,
    /// Cached instruction pointer (authoritative while bound).
    ip: u32,
    /// Cached remaining time slice (authoritative while bound).
    slice_remaining: u64,
    /// The processor's bus id.
    cpu_id: u32,
    /// Process cycles accrued since the last write-back.
    pending_proc_cycles: u64,
    /// Processor busy cycles accrued since the last write-back.
    pending_busy: u64,
}

/// The instructions that switch or end the binding: CALL and RETURN
/// replace the current context, HALT exits. Only these leave the cached
/// fast path; every other instruction keeps the binding registers, and a
/// port instruction that blocks writes them back itself
/// ([`Gdp::commit_block`]).
fn switches_binding(instr: &Instruction) -> bool {
    matches!(
        instr,
        Instruction::Call { .. } | Instruction::Return { .. } | Instruction::Halt
    )
}

/// Writes binding registers back to the space: the context's ip, the
/// process's cycle count and remaining slice, and the processor's busy
/// cycles. Best-effort, as [`Gdp::flush_bound`] explains.
fn write_back<S: SpaceAccess + ?Sized>(space: &mut S, cpu: ObjectRef, b: BoundState) {
    let _ = with_context_state(space, b.ctx, |c| c.ip = b.ip);
    let _ = space.with_process_mut(b.proc_ref, |ps| {
        ps.total_cycles += b.pending_proc_cycles;
        ps.slice_remaining = b.slice_remaining;
    });
    let _ = space.with_processor_mut(cpu, |p| p.busy_cycles += b.pending_busy);
}

/// Reads the binding registers of the process `cpu` runs: processor,
/// process, context and process state, in one burst of reads after which
/// local instructions run lock-free. `None` whenever the processor is
/// not running an interpreted process — the locked path handles those.
/// The dispatch section runs it for the process it bound, and
/// [`Gdp::try_fast_step`] after CALL and RETURN.
fn read_binding<S: SpaceAccess + ?Sized>(space: &mut S, cpu: ObjectRef) -> Option<BoundState> {
    let (status, cpu_id) = space.with_processor(cpu, |p| (p.status, p.id)).ok()?;
    if status != ProcessorStatus::Running {
        return None;
    }
    let proc_ref = current_process(space, cpu).ok()??;
    let ctx = space.load_ad_hw(proc_ref, PROC_SLOT_CONTEXT).ok()??.obj;
    let cstate = context_state(space, ctx).ok()?;
    let CodeBody::Interpreted(code) = cstate.body else {
        return None;
    };
    let (pstatus, slice_remaining) = space
        .with_process(proc_ref, |ps| (ps.status, ps.slice_remaining))
        .ok()?;
    if pstatus != ProcessStatus::Running {
        return None;
    }
    Some(BoundState {
        proc_ref,
        ctx,
        code,
        ip: cstate.ip,
        slice_remaining,
        cpu_id,
        pending_proc_cycles: 0,
        pending_busy: 0,
    })
}

/// Reports a blocked process; its block was committed by
/// [`Gdp::commit_block`].
fn blocked(proc_ref: ObjectRef) -> StepEvent {
    i432_trace::emit(i432_trace::EventKind::ProcBlock, proc_ref.index.0);
    i432_trace::bump(i432_trace::Counter::ProcBlocks);
    StepEvent::Blocked(proc_ref)
}

/// Which of a GDP's fast paths are on; the runner that builds the GDP
/// chooses. Each mode adds to the one before it, and every mode is
/// semantically transparent: the per-instruction cycle model is
/// charged identically. The conformance oracle diffs the threaded
/// runner's fused GDPs against the deterministic runner's cached one,
/// digest for digest, and `tests/fusion_diff.rs` steps all three modes
/// side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GdpMode {
    /// Every step takes the locked path and keeps no register between
    /// steps: the global-lock runner's mode, and the plain GDP that the
    /// flush-contract and fusion tests step beside the other two.
    Locked,
    /// The binding-register cache: the bound process's ip, slice and
    /// pending cycles stay in the GDP, so everything but CALL, RETURN
    /// and HALT executes without per-step bookkeeping in the process,
    /// context and processor objects. The deterministic runner's mode:
    /// it steps the processor with the lowest clock, so a fused step,
    /// retiring two instructions before a processor whose clock falls
    /// between them, would move bus waits and cycles.
    Cached,
    /// The binding-register cache plus dispatch specialization:
    /// instruction fetch goes through a pre-decoded block cache, and
    /// dominant fast-path opcode pairs execute as fused
    /// superinstructions. The striped threaded runner's mode.
    Fused,
}

/// One emulated General Data Processor.
#[derive(Debug, Clone)]
pub struct Gdp {
    /// The processor object this GDP embodies.
    pub cpu: ObjectRef,
    /// Local cycle clock.
    pub clock: u64,
    /// The processor object's id (its interconnect port), read on first
    /// use: an id never changes once the processor object exists.
    id: Option<u32>,
    /// Which fast paths this processor takes.
    mode: GdpMode,
    /// Cached binding registers, when a process is bound and cacheable.
    bound: Option<BoundState>,
    /// Pre-decoded code segments with fusion classification.
    blocks: BlockCache,
    /// The last step left the processor without a process (`Idle`,
    /// `Blocked`, an exit, a fault or `TimesliceEnd`), so the next step
    /// goes straight to the dispatch section.
    unbound: bool,
    /// Previous retired opcode for the pair histogram (`u16::MAX` =
    /// none yet).
    last_op: u16,
}

impl Gdp {
    /// A processor starting at cycle zero, taking the fast paths `mode`
    /// names.
    pub fn new(cpu: ObjectRef, mode: GdpMode) -> Gdp {
        Gdp {
            cpu,
            clock: 0,
            id: None,
            mode,
            bound: None,
            blocks: BlockCache::new(),
            unbound: false,
            last_op: u16::MAX,
        }
    }

    /// Decoded code segments held by the block cache (test/introspection
    /// hook).
    pub fn block_cache_occupancy(&self) -> usize {
        self.blocks.occupancy()
    }

    /// Writes the cached binding registers back to the space and drops
    /// them. Must be called before anything else inspects the bound
    /// process's context or accounting (both runners call it whenever a
    /// run returns; `step` calls it before every locked-path detour).
    ///
    /// Best-effort by design: a write-back can only fail if the guest
    /// destroyed the bound context or process out from under its own
    /// processor, and in that case the locked path independently raises
    /// the same fault the uncached interpreter would.
    pub fn flush_bound<S: SpaceAccess + ?Sized>(&mut self, space: &mut S) {
        if let Some(b) = self.bound.take() {
            write_back(space, self.cpu, b);
        }
    }

    /// Executes one instruction through the binding-register cache, or
    /// returns `None` (with the registers flushed) when this step needs
    /// the locked path: a CALL, RETURN or HALT ([`switches_binding`]), or
    /// a processor not running an interpreted process. Exactly mirrors
    /// the locked path's charging and control flow for everything else,
    /// port instructions that block included.
    fn try_fast_step<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
    ) -> Option<StepEvent> {
        if self.bound.is_none() {
            self.bound = read_binding(env.space, self.cpu);
        }
        let mut b = self.bound?;
        let (instr, partner) = if self.mode == GdpMode::Fused {
            // Pre-decoded path: the block cache revalidates against the
            // store's version, so a patched body is observed at the
            // next step, exactly like a raw fetch.
            match self.blocks.resolve(env.code, b.code, b.ip) {
                Some(pair) => pair,
                None => {
                    // Out-of-segment ip: let the locked path raise BadIp.
                    self.flush_bound(env.space);
                    return None;
                }
            }
        } else {
            match env.code.fetch(b.code, b.ip) {
                Some(i) => (i, None),
                None => {
                    self.flush_bound(env.space);
                    return None;
                }
            }
        };
        if switches_binding(&instr) {
            self.flush_bound(env.space);
            return None;
        }
        debug_assert!(
            partner.as_ref().is_none_or(|p| !switches_binding(p)),
            "fusion admits no binding change"
        );

        // Execute the instruction — and, for a fused superinstruction,
        // its partner — with bit-identical per-instruction accounting:
        // each half gets its own decode charge, bus access, clock tick
        // and slice debit, in the same order the unfused stepper would
        // apply them. The win is dispatch overhead (one prime/fetch/
        // bound-commit round for two instructions), not cycle-model
        // shortcuts.
        let mut step_cycles = 0u64;
        let mut on_partner = false;
        let mut pending = Some(instr);
        while let Some(cur) = pending.take() {
            i432_trace::set_context(b.cpu_id as u16, self.clock);
            let mut charge = Charge::default();
            charge.add(env.cost.decode);
            charge.words += 1;
            let ctl = match self.exec_instr(env, b.proc_ref, b.ctx, cur, &mut charge) {
                Ok(ctl) => ctl,
                Err(fault) => {
                    // Like the locked path, a faulting instruction
                    // charges nothing; ip still names the faulting
                    // instruction. When the *second* half of a fused
                    // pair faults, the first half was already committed
                    // to `self.bound` below, so the fault reports the
                    // original instruction boundary, not the pair head.
                    self.flush_bound(env.space);
                    return Some(self.process_fault(env, b.proc_ref, fault));
                }
            };
            i432_trace::emit(i432_trace::EventKind::InstrExec, b.proc_ref.index.0);
            i432_trace::bump(i432_trace::Counter::InstrExecuted);
            if i432_trace::ENABLED {
                let op = cur.opcode();
                if self.last_op != u16::MAX {
                    i432_trace::record_pair(self.last_op as u8, op);
                }
                self.last_op = op as u16;
            }
            if on_partner {
                i432_trace::bump(i432_trace::Counter::FusionHits);
            }
            if let Ctl::Blocked(total) = ctl {
                // The parking section charged the instruction and took
                // the registers.
                self.clock += total;
                return Some(blocked(b.proc_ref));
            }
            let wait = env.bus.access(b.cpu_id, self.clock, charge.words);
            let total = charge.cycles + wait;
            match ctl {
                Ctl::Next => b.ip += 1,
                Ctl::Jump(t) => b.ip = t,
                // Switching and exiting instructions take the locked path.
                Ctl::Blocked(_) | Ctl::Switched | Ctl::Exited => {
                    unreachable!("cached instruction blocked, switched or ended the binding")
                }
            }
            self.clock += total;
            b.pending_busy += total;
            b.pending_proc_cycles += total;
            b.slice_remaining = b.slice_remaining.saturating_sub(total);
            step_cycles += total;
            self.bound = Some(b);
            if b.slice_remaining == 0 {
                // Slice expired: the partner (if any) does not execute
                // this step — exactly where the unfused schedule would
                // preempt between the two instructions.
                self.flush_bound(env.space);
                return Some(match self.maybe_preempt(env, b.proc_ref, total) {
                    Ok(ev) => ev,
                    Err(fault) => self.process_fault(env, b.proc_ref, fault),
                });
            }
            if !on_partner {
                if let Some(p) = partner {
                    // The pair head is linear (analyze() admits only
                    // fall-through leaders), so `b.ip` now names the
                    // partner.
                    pending = Some(p);
                    on_partner = true;
                }
            }
        }
        Some(StepEvent::Executed {
            process: b.proc_ref,
            cycles: step_cycles,
        })
    }

    /// Advances this processor by one unit of work.
    pub fn step<S: SpaceAccess + ?Sized>(&mut self, env: &mut Env<'_, S>) -> StepEvent {
        let ev = self.advance(env);
        self.unbound = matches!(
            ev,
            StepEvent::Idle
                | StepEvent::Blocked(_)
                | StepEvent::TimesliceEnd(_)
                | StepEvent::ProcessFaulted { .. }
                | StepEvent::ProcessExited(_)
        );
        ev
    }

    fn advance<S: SpaceAccess + ?Sized>(&mut self, env: &mut Env<'_, S>) -> StepEvent {
        let found = if self.unbound {
            self.dispatch(env, true)
        } else {
            if self.mode != GdpMode::Locked {
                if let Some(ev) = self.try_fast_step(env) {
                    return ev;
                }
                // Binding registers are flushed; take the locked path.
                debug_assert!(self.bound.is_none());
            }
            let status = match env.space.with_processor(self.cpu, |p| p.status) {
                Ok(status) => status,
                Err(e) => {
                    return StepEvent::SystemError {
                        process: None,
                        fault: e.into(),
                    }
                }
            };
            if status == ProcessorStatus::Halted {
                return StepEvent::Halted;
            }
            match current_process(env.space, self.cpu) {
                Ok(Some(p)) => ControlFlow::Continue(p),
                Ok(None) => self.dispatch(env, false),
                Err(fault) => return self.system_error(env, None, fault),
            }
        };
        let proc_ref = match found {
            ControlFlow::Continue(p) => p,
            ControlFlow::Break(ev) => return ev,
        };
        match self.run_one(env, proc_ref) {
            Ok(ev) => ev,
            Err(fault) => self.process_fault(env, proc_ref, fault),
        }
    }

    /// The dispatching operation: one all-shard section that binds a
    /// ready process from the dispatching port, or polls it empty, and
    /// charges the processor `dispatch_fixed` or `idle_poll`. For a
    /// cached GDP the same section fills the binding registers of the
    /// process it bound. With `check` it first reads the processor's
    /// status and process itself, which `step` otherwise reads before.
    /// `Continue` names a process found bound already, for the locked
    /// path to run.
    fn dispatch<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        check: bool,
    ) -> ControlFlow<StepEvent, ObjectRef> {
        let (cpu, cost, cached) = (self.cpu, env.cost, self.mode != GdpMode::Locked);
        let (clock, bound) = (&mut self.clock, &mut self.bound);
        let found = env.space.atomically(|sm| -> Result<_, Fault> {
            if check {
                if sm.with_processor(cpu, |p| p.status)? == ProcessorStatus::Halted {
                    return Ok(ControlFlow::Break(StepEvent::Halted));
                }
                if let Some(p) = current_process(sm, cpu)? {
                    return Ok(ControlFlow::Continue(p));
                }
            }
            let Some(p) = try_dispatch(sm, cpu)? else {
                *clock += cost.idle_poll;
                let _ = sm.with_processor_mut(cpu, |c| c.idle_cycles += cost.idle_poll);
                return Ok(ControlFlow::Break(StepEvent::Idle));
            };
            *clock += cost.dispatch_fixed;
            let _ = sm.with_processor_mut(cpu, |c| c.busy_cycles += cost.dispatch_fixed);
            if cached {
                *bound = read_binding(sm, cpu);
            }
            Ok(ControlFlow::Break(StepEvent::Dispatched(p)))
        });
        match found {
            Ok(ControlFlow::Break(StepEvent::Dispatched(p))) if i432_trace::ENABLED => {
                let id = self.cpu_id(env.space).unwrap_or(0);
                i432_trace::set_context(id as u16, self.clock);
                i432_trace::emit(i432_trace::EventKind::Dispatch, p.index.0);
                i432_trace::bump(i432_trace::Counter::Dispatches);
                ControlFlow::Break(StepEvent::Dispatched(p))
            }
            Ok(flow) => flow,
            Err(fault) => ControlFlow::Break(self.system_error(env, None, fault)),
        }
    }

    /// The processor object's id, read through the space once.
    fn cpu_id<S: SpaceAccess + ?Sized>(&mut self, space: &mut S) -> Result<u32, Fault> {
        if let Some(id) = self.id {
            return Ok(id);
        }
        let id = space
            .with_processor(self.cpu, |p| p.id)
            .map_err(Fault::from)?;
        self.id = Some(id);
        Ok(id)
    }

    /// Advances the local clock and processor accounting.
    fn tick<S: SpaceAccess + ?Sized>(&mut self, env: &mut Env<'_, S>, cycles: u64, busy: bool) {
        self.clock += cycles;
        let _ = env.space.with_processor_mut(self.cpu, |p| {
            if busy {
                p.busy_cycles += cycles;
            } else {
                p.idle_cycles += cycles;
            }
        });
    }

    /// Charges `polls` idle polls of `dispatch_port`, this processor's
    /// dispatching port, in one write: exactly what `polls` calls of
    /// [`Gdp::step`] charge while the processor is idle and the port
    /// stays empty. Each poll advances the local clock and the
    /// processor's idle cycles by `cost.idle_poll` and counts the two
    /// access descriptors it loads (the processor's process and
    /// dispatching-port slots). In `--features trace` builds each poll
    /// also records its `PortSurrogate` event, stamped with the cycle the
    /// poll starts at, and bumps `port_surrogates`.
    ///
    /// The deterministic runner stops stepping a processor whose step
    /// reported [`StepEvent::Idle`] until its dispatching port fills or
    /// a receive timeout falls due, and charges it the skipped polls
    /// through this method.
    pub fn charge_idle_polls<S: SpaceMut + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        dispatch_port: ObjectRef,
        polls: u64,
    ) {
        if polls == 0 {
            return;
        }
        let q = env.cost.idle_poll;
        if i432_trace::ENABLED {
            let id = self.cpu_id(env.space).unwrap_or(0) as u16;
            for k in 0..polls {
                i432_trace::set_context(id, self.clock + k * q);
                i432_trace::emit(i432_trace::EventKind::PortSurrogate, dispatch_port.index.0);
            }
            i432_trace::bump_by(i432_trace::Counter::PortSurrogates, polls);
        }
        self.tick(env, polls * q, false);
        env.space.stats_mut_of(self.cpu).ad_loads += IDLE_POLL_AD_LOADS * polls;
    }

    /// Charges one executed instruction through the space: the local
    /// clock and processor busy cycles, then the process's cycle count
    /// and remaining slice.
    fn account<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        total: u64,
    ) -> Result<(), Fault> {
        self.tick(env, total, true);
        env.space
            .with_process_mut(proc_ref, |ps| {
                ps.total_cycles += total;
                ps.slice_remaining = ps.slice_remaining.saturating_sub(total);
            })
            .map_err(Fault::from)
    }

    fn system_error<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        process: Option<ObjectRef>,
        fault: Fault,
    ) -> StepEvent {
        let _ = env
            .space
            .with_processor_mut(self.cpu, |p| p.status = ProcessorStatus::Halted);
        StepEvent::SystemError { process, fault }
    }

    /// Executes one instruction of the bound process.
    fn run_one<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
    ) -> Result<StepEvent, Fault> {
        let ctx = env
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .map_err(Fault::from)?
            .ok_or_else(|| Fault::with_detail(FaultKind::NullAccess, "process has no context"))?
            .obj;
        let cstate = context_state(env.space, ctx)?;
        if i432_trace::ENABLED {
            let id = self.cpu_id(env.space).unwrap_or(0);
            i432_trace::set_context(id as u16, self.clock);
        }
        let mut charge = Charge::default();
        charge.add(env.cost.decode);
        charge.words += 1;

        let ctl = match cstate.body {
            CodeBody::Interpreted(code_ref) => {
                let Some(instr) = env.code.fetch(code_ref, cstate.ip) else {
                    return Err(Fault::with_detail(
                        FaultKind::BadIp,
                        format!("ip {} outside instruction segment", cstate.ip),
                    ));
                };
                let ctl = self.exec_instr(env, proc_ref, ctx, instr, &mut charge)?;
                if i432_trace::ENABLED {
                    let op = instr.opcode();
                    if self.last_op != u16::MAX {
                        i432_trace::record_pair(self.last_op as u8, op);
                    }
                    self.last_op = op as u16;
                }
                ctl
            }
            CodeBody::Native(id) => {
                // A process whose root body is native: run it to
                // completion in one step, then exit. Native bodies see
                // the whole space at once (indivisible section).
                let natives = env.natives;
                let (result, ncycles) = env.space.atomically(|sm| {
                    let mut ncx = NativeCtx {
                        space: sm,
                        process: proc_ref,
                        context: ctx,
                        cycles: 0,
                    };
                    let r = natives.invoke(id, &mut ncx);
                    (r, ncx.cycles)
                });
                charge.add(ncycles);
                result?;
                Ctl::Exited
            }
        };

        i432_trace::emit(i432_trace::EventKind::InstrExec, proc_ref.index.0);
        i432_trace::bump(i432_trace::Counter::InstrExecuted);
        if let Ctl::Blocked(total) = ctl {
            // ip, accounting and the processor binding were committed
            // inside the blocking instruction's atomic section (see the
            // Ctl::Blocked contract) — the process may be running on
            // another processor by now, so only report.
            self.clock += total;
            return Ok(blocked(proc_ref));
        }

        // Bus contention and accounting.
        let cpu_id = self.cpu_id(env.space)?;
        let wait = env.bus.access(cpu_id, self.clock, charge.words);
        let total = charge.cycles + wait;
        self.account(env, proc_ref, total)?;

        match ctl {
            Ctl::Next => {
                with_context_state(env.space, ctx, |c| c.ip += 1)?;
                self.maybe_preempt(env, proc_ref, total)
            }
            Ctl::Jump(t) => {
                with_context_state(env.space, ctx, |c| c.ip = t)?;
                self.maybe_preempt(env, proc_ref, total)
            }
            Ctl::Switched => self.maybe_preempt(env, proc_ref, total),
            Ctl::Blocked(_) => unreachable!("reported above"),
            Ctl::Exited => {
                self.exit_process(env, proc_ref)?;
                i432_trace::emit(i432_trace::EventKind::ProcExit, proc_ref.index.0);
                i432_trace::bump(i432_trace::Counter::ProcExits);
                Ok(StepEvent::ProcessExited(proc_ref))
            }
        }
    }

    /// Requeues the process at its dispatching port if its slice expired.
    fn maybe_preempt<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        cycles: u64,
    ) -> Result<StepEvent, Fault> {
        let expired = env
            .space
            .with_process(proc_ref, |ps| {
                ps.slice_remaining == 0 && ps.status == ProcessStatus::Running
            })
            .map_err(Fault::from)?;
        if expired {
            env.space.atomically(|sm| port::make_ready(sm, proc_ref))?;
            unbind(env.space, self.cpu)?;
            return Ok(StepEvent::TimesliceEnd(proc_ref));
        }
        Ok(StepEvent::Executed {
            process: proc_ref,
            cycles,
        })
    }

    /// Terminates the process: tears down its context chain, notifies its
    /// scheduler, and idles the processor.
    fn exit_process<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
    ) -> Result<(), Fault> {
        // Destroy the context chain (implicit hardware cleanup; any local
        // heaps die with their SROs via the same path at RETURNs — a HALT
        // deep in a call chain reclaims the whole chain here).
        let mut ctx = env
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .map_err(Fault::from)?
            .map(|ad| ad.obj);
        env.space
            .store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, None)
            .map_err(Fault::from)?;
        while let Some(c) = ctx {
            let caller = env
                .space
                .load_ad_hw(c, CTX_SLOT_CALLER)
                .ok()
                .flatten()
                .map(|ad| ad.obj);
            let _ = destroy_context(env.space, c);
            ctx = caller;
        }
        if let Some(lh) = env
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP)
            .map_err(Fault::from)?
        {
            let _ = env.space.bulk_destroy_sro(lh.obj);
            env.space
                .store_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP, None)
                .map_err(Fault::from)?;
        }
        env.space
            .with_process_mut(proc_ref, |ps| ps.status = ProcessStatus::Terminated)
            .map_err(Fault::from)?;
        let _ = env.space.atomically(|sm| notify_scheduler(sm, proc_ref));
        unbind(env.space, self.cpu)?;
        Ok(())
    }

    /// Handles a process-level fault: checks the system-level permission
    /// tiers of paper §7.3, records the fault, and delivers the process to
    /// its fault port.
    fn process_fault<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        fault: Fault,
    ) -> StepEvent {
        let sys_level = env
            .space
            .with_process(proc_ref, |p| p.sys_level)
            .unwrap_or(3);
        if !fault.kind.permitted_at(sys_level) {
            return self.system_error(env, Some(proc_ref), fault);
        }
        self.tick(env, env.cost.fault_delivery, true);
        i432_trace::emit(i432_trace::EventKind::ProcFault, proc_ref.index.0);
        i432_trace::bump(i432_trace::Counter::ProcFaults);
        let code = fault.kind.code();
        let detail = fault.to_string();
        let aux = fault.aux;
        let _ = env.space.with_process_mut(proc_ref, |ps| {
            ps.status = ProcessStatus::Faulted;
            ps.fault_code = code;
            ps.fault_detail = detail;
            ps.fault_aux = aux;
        });
        match env.space.atomically(|sm| deliver_fault(sm, proc_ref)) {
            Ok(_) => {}
            Err(f) => return self.system_error(env, Some(proc_ref), f),
        }
        if let Err(f) = unbind(env.space, self.cpu) {
            return self.system_error(env, Some(proc_ref), f);
        }
        StepEvent::ProcessFaulted {
            process: proc_ref,
            kind: fault.kind,
        }
    }

    // -- Operand helpers --------------------------------------------------------

    fn read_ref<S: SpaceAccess + ?Sized>(
        &self,
        env: &mut Env<'_, S>,
        ctx_ad: AccessDescriptor,
        r: DataRef,
        charge: &mut Charge,
    ) -> Result<u64, Fault> {
        match r {
            DataRef::Imm(v) => Ok(v),
            DataRef::Local(off) => {
                charge.mem(2, &env.cost);
                env.space.read_u64(ctx_ad, off).map_err(Fault::from)
            }
            DataRef::Field(slot, off) => {
                charge.ot(&env.cost);
                charge.mem(2, &env.cost);
                let obj = env
                    .space
                    .load_ad_required(ctx_ad, slot as u32)
                    .map_err(Fault::from)?;
                env.space.read_u64(obj, off).map_err(Fault::from)
            }
        }
    }

    fn write_dst<S: SpaceAccess + ?Sized>(
        &self,
        env: &mut Env<'_, S>,
        ctx_ad: AccessDescriptor,
        d: DataDst,
        v: u64,
        charge: &mut Charge,
    ) -> Result<(), Fault> {
        match d {
            DataDst::Local(off) => {
                charge.mem(2, &env.cost);
                env.space.write_u64(ctx_ad, off, v).map_err(Fault::from)
            }
            DataDst::Field(slot, off) => {
                charge.ot(&env.cost);
                charge.mem(2, &env.cost);
                let obj = env
                    .space
                    .load_ad_required(ctx_ad, slot as u32)
                    .map_err(Fault::from)?;
                env.space.write_u64(obj, off, v).map_err(Fault::from)
            }
        }
    }

    // -- The instruction dispatch ---------------------------------------------------

    /// Commits a block inside the atomic section that parked the process
    /// (the [`Ctl::Blocked`] contract) and returns what the blocking
    /// instruction cost: `charge` plus its bus wait. The cost goes into
    /// the binding registers before they are written back, or, with none
    /// cached, straight to the processor and the process; then ip
    /// advances past the blocking instruction and the processor is
    /// unbound. The registers are taken, not copied, so if the ip update
    /// or the unbind fails, the fault path's flush cannot add the
    /// pending cycles a second time.
    fn commit_block<S: SpaceAccess + ?Sized>(
        &mut self,
        space: &mut S,
        bus: &mut dyn Interconnect,
        proc_ref: ObjectRef,
        ctx: ObjectRef,
        charge: &Charge,
    ) -> Result<u64, Fault> {
        let total = charge.cycles + bus.access(self.cpu_id(space)?, self.clock, charge.words);
        match self.bound.take() {
            Some(mut b) => {
                b.pending_busy += total;
                b.pending_proc_cycles += total;
                b.slice_remaining = b.slice_remaining.saturating_sub(total);
                write_back(space, self.cpu, b);
            }
            None => {
                let _ = space.with_processor_mut(self.cpu, |p| p.busy_cycles += total);
                space
                    .with_process_mut(proc_ref, |ps| {
                        ps.total_cycles += total;
                        ps.slice_remaining = ps.slice_remaining.saturating_sub(total);
                    })
                    .map_err(Fault::from)?;
            }
        }
        with_context_state(space, ctx, |c| c.ip += 1)?;
        unbind(space, self.cpu)?;
        Ok(total)
    }

    fn exec_instr<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        ctx: ObjectRef,
        instr: Instruction,
        charge: &mut Charge,
    ) -> Result<Ctl, Fault> {
        let ctx_ad = env.space.mint(ctx, Rights::READ | Rights::WRITE);
        match instr {
            Instruction::Mov { src, dst } => {
                let v = self.read_ref(env, ctx_ad, src, charge)?;
                self.write_dst(env, ctx_ad, dst, v, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::Alu { op, a, b, dst } => {
                charge.add(env.cost.alu);
                let av = self.read_ref(env, ctx_ad, a, charge)?;
                let bv = self.read_ref(env, ctx_ad, b, charge)?;
                let v = op
                    .apply(av, bv)
                    .ok_or_else(|| Fault::new(FaultKind::DivideByZero))?;
                self.write_dst(env, ctx_ad, dst, v, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::Jump(t) => {
                charge.add(env.cost.branch);
                Ok(Ctl::Jump(t))
            }
            Instruction::JumpIf { cond, when, target } => {
                charge.add(env.cost.branch);
                let c = self.read_ref(env, ctx_ad, cond, charge)?;
                if (c != 0) == when {
                    Ok(Ctl::Jump(target))
                } else {
                    Ok(Ctl::Next)
                }
            }
            Instruction::MoveAd { src, dst } => {
                charge.ad(&env.cost);
                let ad = env.space.load_ad(ctx_ad, src as u32).map_err(Fault::from)?;
                env.space
                    .store_ad(ctx_ad, dst as u32, ad)
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::LoadAd { obj, index, dst } => {
                charge.ot(&env.cost);
                charge.ad(&env.cost);
                let container = env
                    .space
                    .load_ad_required(ctx_ad, obj as u32)
                    .map_err(Fault::from)?;
                let idx = self.read_ref(env, ctx_ad, index, charge)? as u32;
                let ad = env.space.load_ad(container, idx).map_err(Fault::from)?;
                env.space
                    .store_ad(ctx_ad, dst as u32, ad)
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::StoreAd { src, obj, index } => {
                charge.ot(&env.cost);
                charge.ad(&env.cost);
                let container = env
                    .space
                    .load_ad_required(ctx_ad, obj as u32)
                    .map_err(Fault::from)?;
                let idx = self.read_ref(env, ctx_ad, index, charge)? as u32;
                let ad = env.space.load_ad(ctx_ad, src as u32).map_err(Fault::from)?;
                env.space
                    .store_ad(container, idx, ad)
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::NullAd { dst } => {
                charge.ad(&env.cost);
                env.space
                    .store_ad(ctx_ad, dst as u32, None)
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::Restrict { slot, keep } => {
                charge.ad(&env.cost);
                let ad = env
                    .space
                    .load_ad_required(ctx_ad, slot as u32)
                    .map_err(Fault::from)?;
                env.space
                    .store_ad(ctx_ad, slot as u32, Some(ad.restricted(keep)))
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::CreateObject {
                sro,
                data_len,
                access_len,
                dst,
            } => {
                let sro_ad = env
                    .space
                    .load_ad_required(ctx_ad, sro as u32)
                    .map_err(Fault::from)?;
                env.space
                    .qualify(sro_ad, Rights::ALLOCATE)
                    .map_err(Fault::from)?;
                let dl = self.read_ref(env, ctx_ad, data_len, charge)? as u32;
                let al = self.read_ref(env, ctx_ad, access_len, charge)? as u32;
                charge.add(env.cost.create_total(dl, al));
                charge.words += (dl / 4 + al) / 2;
                env.space
                    .create_object_into(
                        sro_ad.obj,
                        ObjectSpec::generic(dl, al),
                        Rights::ALL,
                        ctx_ad,
                        dst as u32,
                    )
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::CreateTypedObject {
                sro,
                tdo,
                data_len,
                access_len,
                dst,
            } => {
                charge.ot(&env.cost);
                let sro_ad = env
                    .space
                    .load_ad_required(ctx_ad, sro as u32)
                    .map_err(Fault::from)?;
                env.space
                    .qualify(sro_ad, Rights::ALLOCATE)
                    .map_err(Fault::from)?;
                let tdo_ad = env
                    .space
                    .load_ad_required(ctx_ad, tdo as u32)
                    .map_err(Fault::from)?;
                env.space
                    .expect_type(tdo_ad, SystemType::TypeDefinition)
                    .map_err(Fault::from)?;
                env.space
                    .qualify(tdo_ad, Rights::CREATE_INSTANCE)
                    .map_err(Fault::from)?;
                let dl = self.read_ref(env, ctx_ad, data_len, charge)? as u32;
                let al = self.read_ref(env, ctx_ad, access_len, charge)? as u32;
                charge.add(env.cost.create_total(dl, al));
                env.space
                    .create_object_into(
                        sro_ad.obj,
                        ObjectSpec {
                            data_len: dl,
                            access_len: al,
                            otype: ObjectType::User(tdo_ad.obj),
                            level: None,
                            sys: SysState::Generic,
                        },
                        Rights::ALL,
                        ctx_ad,
                        dst as u32,
                    )
                    .map_err(Fault::from)?;
                env.space
                    .with_tdo_mut(tdo_ad.obj, |t| t.instances_created += 1)
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::Amplify { slot, tdo, add } => {
                charge.ot(&env.cost);
                charge.ot(&env.cost);
                charge.ad(&env.cost);
                let tdo_ad = env
                    .space
                    .load_ad_required(ctx_ad, tdo as u32)
                    .map_err(Fault::from)?;
                env.space
                    .expect_type(tdo_ad, SystemType::TypeDefinition)
                    .map_err(Fault::from)?;
                env.space
                    .qualify(tdo_ad, Rights::AMPLIFY)
                    .map_err(Fault::from)?;
                let target = env
                    .space
                    .load_ad_required(ctx_ad, slot as u32)
                    .map_err(Fault::from)?;
                let otype = env.space.otype_of(target.obj).map_err(Fault::from)?;
                if otype.user_tdo() != Some(tdo_ad.obj) {
                    return Err(Fault::with_detail(
                        FaultKind::TypeMismatch,
                        "amplify: object is not an instance of the presented type",
                    ));
                }
                let amplified = AccessDescriptor::new(target.obj, target.rights.union(add));
                env.space
                    .store_ad(ctx_ad, slot as u32, Some(amplified))
                    .map_err(Fault::from)?;
                Ok(Ctl::Next)
            }
            Instruction::Call {
                domain,
                subprogram,
                arg,
                ret_ad,
                ret_val,
            } => self.exec_call(
                env, proc_ref, ctx, domain, subprogram, arg, ret_ad, ret_val, charge,
            ),
            Instruction::Return { ad, value } => {
                self.exec_return(env, proc_ref, ctx, ad, value, charge)
            }
            Instruction::Send { port: p, msg, key } => {
                charge.ot(&env.cost);
                charge.add(env.cost.send_fixed);
                let port_ad = env
                    .space
                    .load_ad_required(ctx_ad, p as u32)
                    .map_err(Fault::from)?;
                let msg_ad = env
                    .space
                    .load_ad_required(ctx_ad, msg as u32)
                    .map_err(Fault::from)?;
                let k = self.read_ref(env, ctx_ad, key, charge)?;
                // Ring fast path: a successful fast send is exactly the
                // locked path's Queued outcome, with no shard lock
                // taken. Any refusal falls through to the rendezvous.
                if port::fast_send(env.space, port_ad, msg_ad, k).is_some() {
                    return Ok(Ctl::Next);
                }
                let bus = &mut *env.bus;
                let parked = env.space.atomically(|sm| -> Result<Option<u64>, Fault> {
                    match port::send(sm, Some(proc_ref), port_ad, msg_ad, k, true, false)? {
                        // Commit the block before the shard locks drop:
                        // a rendezvous on another processor may
                        // redispatch this process immediately, so it
                        // must be charged, its registers written back,
                        // ip must already point past the SEND and the
                        // processor must be unbound.
                        SendOutcome::Blocked => {
                            self.commit_block(sm, bus, proc_ref, ctx, charge).map(Some)
                        }
                        _ => Ok(None),
                    }
                })?;
                Ok(parked.map_or(Ctl::Next, Ctl::Blocked))
            }
            Instruction::CondSend {
                port: p,
                msg,
                key,
                done,
            } => {
                charge.ot(&env.cost);
                charge.add(env.cost.send_fixed);
                let port_ad = env
                    .space
                    .load_ad_required(ctx_ad, p as u32)
                    .map_err(Fault::from)?;
                let msg_ad = env
                    .space
                    .load_ad_required(ctx_ad, msg as u32)
                    .map_err(Fault::from)?;
                let k = self.read_ref(env, ctx_ad, key, charge)?;
                // Ring fast path (success == Queued, i.e. "sent").
                let ok = if port::fast_send(env.space, port_ad, msg_ad, k).is_some() {
                    1
                } else {
                    match env.space.atomically(|sm| {
                        port::send(sm, Some(proc_ref), port_ad, msg_ad, k, false, false)
                    })? {
                        SendOutcome::WouldBlock => 0,
                        _ => 1,
                    }
                };
                self.write_dst(env, ctx_ad, done, ok, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::Receive { port: p, dst } => {
                charge.ot(&env.cost);
                charge.add(env.cost.recv_fixed);
                let port_ad = env
                    .space
                    .load_ad_required(ctx_ad, p as u32)
                    .map_err(Fault::from)?;
                // Ring fast path: a fast pop is the locked path's FIFO
                // dequeue, delivered to the same context slot. Where a
                // ring exists the port is FIFO by construction, so the
                // queue-scan cost the locked read would report is
                // exactly zero and the locked read itself is skipped.
                match port::fast_receive(env.space, port_ad, ctx_ad, dst as u32)? {
                    Some(true) => return Ok(Ctl::Next),
                    Some(false) => {}
                    None => charge.add(queue_scan_cost(env.space, port_ad)),
                }
                let bus = &mut *env.bus;
                let parked = env.space.atomically(|sm| -> Result<Option<u64>, Fault> {
                    match port::receive(sm, Some((proc_ref, dst as u32)), port_ad, true, false)? {
                        RecvOutcome::Received(msg) => {
                            // Store the message before the shard locks
                            // drop: the port may have been its only
                            // holder, and a sweep must never find it
                            // held by GDP registers alone.
                            sm.store_ad(ctx_ad, dst as u32, Some(msg))
                                .map_err(Fault::from)?;
                            Ok(None)
                        }
                        // Commit the block before the shard locks drop
                        // (see the SEND arm): a sender's rendezvous may
                        // redispatch this process immediately, and a
                        // stale ip would make it re-execute the RECEIVE
                        // and swallow the delivered message.
                        RecvOutcome::Blocked => {
                            self.commit_block(sm, bus, proc_ref, ctx, charge).map(Some)
                        }
                        RecvOutcome::WouldBlock => {
                            unreachable!("blocking receive cannot would-block")
                        }
                    }
                })?;
                Ok(parked.map_or(Ctl::Next, Ctl::Blocked))
            }
            Instruction::ReceiveTimeout {
                port: p,
                dst,
                timeout,
            } => {
                charge.ot(&env.cost);
                charge.add(env.cost.recv_fixed);
                let port_ad = env
                    .space
                    .load_ad_required(ctx_ad, p as u32)
                    .map_err(Fault::from)?;
                let t = self.read_ref(env, ctx_ad, timeout, charge)?;
                // Ring fast path: a fast pop neither blocks nor arms
                // the timer, exactly like a locked non-empty dequeue.
                if port::fast_receive(env.space, port_ad, ctx_ad, dst as u32)? == Some(true) {
                    return Ok(Ctl::Next);
                }
                let deadline = self.clock + t;
                let bus = &mut *env.bus;
                let parked = env.space.atomically(|sm| -> Result<Option<u64>, Fault> {
                    match port::receive(sm, Some((proc_ref, dst as u32)), port_ad, true, false)? {
                        RecvOutcome::Received(msg) => {
                            // Store before the locks drop (see RECEIVE).
                            sm.store_ad(ctx_ad, dst as u32, Some(msg))
                                .map_err(Fault::from)?;
                            Ok(None)
                        }
                        RecvOutcome::Blocked => {
                            // Commit the block — including the armed
                            // timer — before the shard locks drop (see
                            // the SEND arm).
                            sm.with_process_mut(proc_ref, |ps| ps.timeout_at = deadline)
                                .map_err(Fault::from)?;
                            self.commit_block(sm, bus, proc_ref, ctx, charge).map(Some)
                        }
                        RecvOutcome::WouldBlock => {
                            unreachable!("blocking receive cannot would-block")
                        }
                    }
                })?;
                Ok(parked.map_or(Ctl::Next, Ctl::Blocked))
            }
            Instruction::CondReceive { port: p, dst, done } => {
                charge.ot(&env.cost);
                charge.add(env.cost.recv_fixed);
                let port_ad = env
                    .space
                    .load_ad_required(ctx_ad, p as u32)
                    .map_err(Fault::from)?;
                // Ring fast path.
                if port::fast_receive(env.space, port_ad, ctx_ad, dst as u32)? == Some(true) {
                    self.write_dst(env, ctx_ad, done, 1, charge)?;
                    return Ok(Ctl::Next);
                }
                // The message, or the null an empty port yields, is
                // stored before the locks drop (see RECEIVE).
                let got = env.space.atomically(|sm| -> Result<u64, Fault> {
                    let msg = match port::receive(sm, None, port_ad, false, false)? {
                        RecvOutcome::Received(msg) => Some(msg),
                        RecvOutcome::WouldBlock => None,
                        RecvOutcome::Blocked => unreachable!("non-blocking receive cannot block"),
                    };
                    sm.store_ad(ctx_ad, dst as u32, msg).map_err(Fault::from)?;
                    Ok(u64::from(msg.is_some()))
                })?;
                self.write_dst(env, ctx_ad, done, got, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::CopyData {
                src,
                src_off,
                dst,
                dst_off,
                len,
            } => {
                charge.ot(&env.cost);
                charge.ot(&env.cost);
                let src_ad = env
                    .space
                    .load_ad_required(ctx_ad, src as u32)
                    .map_err(Fault::from)?;
                let dst_ad = env
                    .space
                    .load_ad_required(ctx_ad, dst as u32)
                    .map_err(Fault::from)?;
                let s_off = self.read_ref(env, ctx_ad, src_off, charge)? as u32;
                let d_off = self.read_ref(env, ctx_ad, dst_off, charge)? as u32;
                let n = self.read_ref(env, ctx_ad, len, charge)? as u32;
                let mut buf = vec![0u8; n as usize];
                env.space
                    .read_data(src_ad, s_off, &mut buf)
                    .map_err(Fault::from)?;
                env.space
                    .write_data(dst_ad, d_off, &buf)
                    .map_err(Fault::from)?;
                // Word-granular transfer traffic in both directions.
                charge.mem(n.div_ceil(4) * 2, &env.cost);
                Ok(Ctl::Next)
            }
            Instruction::InspectAd { slot, dst } => {
                charge.ot(&env.cost);
                let word = match env
                    .space
                    .load_ad(ctx_ad, slot as u32)
                    .map_err(Fault::from)?
                {
                    None => 1u64 << 63,
                    Some(ad) => {
                        let (ad_otype, ad_level) = env
                            .space
                            .entry_view(ad.obj, |e| (e.desc.otype, e.desc.level))
                            .map_err(Fault::from)?;
                        let (tag, tdo_index) = match ad_otype {
                            ObjectType::System(t) => {
                                use i432_arch::SystemType as S;
                                let tag = match t {
                                    S::Generic => 0u64,
                                    S::Processor => 1,
                                    S::Process => 2,
                                    S::Context => 3,
                                    S::Domain => 4,
                                    S::Instructions => 5,
                                    S::Port => 6,
                                    S::StorageResource => 7,
                                    S::TypeDefinition => 8,
                                };
                                (tag, 0u64)
                            }
                            ObjectType::User(tdo) => (255, tdo.index.0 as u64),
                        };
                        ad.rights.bits() as u64
                            | (ad_level.0 as u64) << 8
                            | tag << 24
                            | tdo_index << 32
                    }
                };
                self.write_dst(env, ctx_ad, dst, word, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::ReadClock { dst } => {
                let now = self.clock;
                self.write_dst(env, ctx_ad, dst, now, charge)?;
                Ok(Ctl::Next)
            }
            Instruction::Work { cycles } => {
                charge.add(cycles as u64);
                Ok(Ctl::Next)
            }
            Instruction::RaiseFault { code } => Err(Fault::new(FaultKind::Explicit(code))),
            Instruction::Halt => Ok(Ctl::Exited),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_call<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        ctx: ObjectRef,
        domain: u16,
        subprogram: u32,
        arg: Option<u16>,
        ret_ad: Option<u16>,
        ret_val: Option<u32>,
        charge: &mut Charge,
    ) -> Result<Ctl, Fault> {
        charge.add(env.cost.call_total() - env.cost.decode);
        charge.words += 24; // context allocation + linkage traffic
        if i432_trace::ENABLED {
            i432_trace::emit(i432_trace::EventKind::DomainCall, ctx.index.0);
            i432_trace::bump(i432_trace::Counter::DomainCalls);
            i432_trace::observe(i432_trace::Hist::DomainCallCycles, env.cost.call_total());
        }
        let ctx_ad = env.space.mint(ctx, Rights::READ | Rights::WRITE);
        let dom_ad = env
            .space
            .load_ad_required(ctx_ad, domain as u32)
            .map_err(Fault::from)?;
        env.space
            .expect_type(dom_ad, SystemType::Domain)
            .map_err(Fault::from)?;
        env.space
            .qualify(dom_ad, Rights::CALL)
            .map_err(Fault::from)?;
        let sub = subprogram_of(env.space, dom_ad.obj, subprogram)?;
        let arg_ad = match arg {
            Some(slot) => env
                .space
                .load_ad(ctx_ad, slot as u32)
                .map_err(Fault::from)?,
            None => None,
        };
        let sro_ad = env
            .space
            .load_ad_required(ctx_ad, CTX_SLOT_SRO)
            .map_err(Fault::from)?;
        let cur_level = env.space.level_of(ctx).map_err(Fault::from)?;

        // One section from the callee's creation to its link into the
        // process (for a native body, on to its destruction): between
        // two sections the new callee would be held by this GDP's
        // registers alone, where a concurrent sweep cannot see it.
        let (natives, cost) = (env.natives, env.cost);
        env.space.atomically(|sm| -> Result<Ctl, Fault> {
            let callee = create_context(
                sm,
                sro_ad.obj,
                dom_ad,
                subprogram,
                &sub,
                arg_ad,
                Some(ctx_ad),
                cur_level,
                ret_ad.map(|s| s as u32),
                ret_val,
            )?;
            let callee_ad = sm.mint(callee, Rights::READ | Rights::WRITE);
            let CodeBody::Native(id) = sub.body else {
                // Commit: the caller resumes after the CALL.
                with_context_state(sm, ctx, |c| c.ip += 1)?;
                sm.store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(callee_ad))
                    .map_err(Fault::from)?;
                return Ok(Ctl::Switched);
            };
            // Native services execute within the CALL and return
            // immediately; the caller pays the same domain-switch price
            // (uniformity of OS and user calls). The callee context
            // becomes the *current* context for the duration, keeping the
            // whole chain reachable — the garbage collector itself may
            // run inside this body.
            sm.store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(callee_ad))
                .map_err(Fault::from)?;
            let mut ncx = NativeCtx {
                space: &mut *sm,
                process: proc_ref,
                context: callee,
                cycles: 0,
            };
            let result = natives.invoke(id, &mut ncx);
            charge.add(ncx.cycles);
            sm.store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(ctx_ad))
                .map_err(Fault::from)?;
            let ret = match result {
                Ok(ret) => ret,
                Err(fault) => {
                    let _ = destroy_context(sm, callee);
                    return Err(fault);
                }
            };
            if let Some(slot) = ret_ad {
                sm.store_ad(ctx_ad, slot as u32, ret.ad)
                    .map_err(Fault::from)?;
            }
            if let (Some(off), Some(v)) = (ret_val, ret.value) {
                sm.write_u64(ctx_ad, off, v).map_err(Fault::from)?;
            }
            destroy_context(sm, callee)?;
            charge.add(cost.return_total());
            with_context_state(sm, ctx, |c| c.ip += 1)?;
            Ok(Ctl::Switched)
        })
    }

    fn exec_return<S: SpaceAccess + ?Sized>(
        &mut self,
        env: &mut Env<'_, S>,
        proc_ref: ObjectRef,
        ctx: ObjectRef,
        ad: Option<u16>,
        value: Option<DataRef>,
        charge: &mut Charge,
    ) -> Result<Ctl, Fault> {
        charge.add(env.cost.return_total() - env.cost.decode);
        charge.words += 8;
        if i432_trace::ENABLED {
            i432_trace::emit(i432_trace::EventKind::DomainReturn, ctx.index.0);
            i432_trace::bump(i432_trace::Counter::DomainReturns);
            i432_trace::observe(
                i432_trace::Hist::DomainReturnCycles,
                env.cost.return_total(),
            );
        }
        let ctx_ad = env.space.mint(ctx, Rights::READ | Rights::WRITE);
        let cstate = context_state(env.space, ctx)?;
        let caller = env
            .space
            .load_ad(ctx_ad, CTX_SLOT_CALLER)
            .map_err(Fault::from)?;
        let ret_ad_value = match ad {
            Some(slot) => env
                .space
                .load_ad(ctx_ad, slot as u32)
                .map_err(Fault::from)?,
            None => None,
        };
        let ret_scalar = match value {
            Some(r) => Some(self.read_ref(env, ctx_ad, r, charge)?),
            None => None,
        };

        let Some(caller_ad) = caller else {
            // Root return: the process is done.
            return Ok(Ctl::Exited);
        };

        // One section from the result stores to the caller's relink: once
        // the callee is destroyed, the caller it held is held by this
        // GDP's registers alone until the relink.
        env.space.atomically(|sm| -> Result<Ctl, Fault> {
            // Deliver results into the caller. The checked store enforces
            // the level rule: returning an access for a callee-local
            // object to the caller faults, exactly as Ada forbids
            // returning a pointer to a local.
            if let Some(slot) = cstate.ret_ad_slot {
                sm.store_ad(caller_ad, slot, ret_ad_value)
                    .map_err(Fault::from)?;
            }
            if let (Some(off), Some(v)) = (cstate.ret_val_off, ret_scalar) {
                sm.write_u64(caller_ad, off, v).map_err(Fault::from)?;
            }

            // Scope-exit reclamation of the local heap, if one was opened
            // at this depth or deeper (paper §5).
            let caller_level = sm.level_of(caller_ad.obj).map_err(Fault::from)?;
            if let Some(lh) = sm
                .load_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP)
                .map_err(Fault::from)?
            {
                let lh_level = sm.level_of(lh.obj).map_err(Fault::from)?;
                if lh_level > caller_level {
                    let reclaimed = sm.bulk_destroy_sro(lh.obj).map_err(Fault::from)?;
                    charge.add(reclaimed as u64 * 20);
                    sm.store_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP, None)
                        .map_err(Fault::from)?;
                }
            }

            destroy_context(sm, ctx)?;
            sm.store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(caller_ad))
                .map_err(Fault::from)?;
            Ok(Ctl::Switched)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        interconnect::NullInterconnect,
        isa::AluOp,
        process::{make_process, make_processor, ProcessSpec},
        program::ProgramBuilder,
    };
    use i432_arch::{
        sysobj::CTX_SLOT_FIRST_FREE, DomainState, Level, PortDiscipline, PortState, ShardedSpace,
        Subprogram,
    };

    /// A self-contained single-processor test rig.
    pub(crate) struct Rig {
        pub(crate) space: ShardedSpace,
        code: CodeStore,
        natives: NativeRegistry,
        bus: NullInterconnect,
        cost: CostModel,
        dispatch: AccessDescriptor,
        gdp: Option<Gdp>,
    }

    impl Rig {
        pub(crate) fn new() -> Rig {
            let mut space = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1);
            let root = space.root_sro();
            let port = space
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: PortState::access_slots(64, 64),
                        otype: ObjectType::System(SystemType::Port),
                        level: None,
                        sys: SysState::Port(PortState::new(64, 64, PortDiscipline::Fifo)),
                    },
                )
                .unwrap();
            let dispatch = space.mint(port, Rights::NONE);
            Rig {
                space,
                code: CodeStore::new(),
                natives: NativeRegistry::new(),
                bus: NullInterconnect,
                cost: CostModel::default(),
                dispatch,
                gdp: None,
            }
        }

        pub(crate) fn domain(&mut self, name: &str, subs: Vec<Subprogram>) -> AccessDescriptor {
            let root = self.space.root_sro();
            let dom = self
                .space
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: 4,
                        otype: ObjectType::System(SystemType::Domain),
                        level: None,
                        sys: SysState::Domain(DomainState {
                            name: name.into(),
                            subprograms: subs,
                        }),
                    },
                )
                .unwrap();
            self.space.mint(dom, Rights::CALL)
        }

        pub(crate) fn sub(&mut self, name: &str, code: Vec<Instruction>) -> Subprogram {
            let cr = self.code.install(code);
            Subprogram {
                name: name.into(),
                body: CodeBody::Interpreted(cr),
                ctx_data_len: 128,
                ctx_access_len: 16,
            }
        }

        pub(crate) fn spawn(&mut self, dom: AccessDescriptor, sub: u32) -> ObjectRef {
            let root = self.space.root_sro();
            let p = make_process(
                &mut self.space,
                root,
                dom,
                sub,
                None,
                ProcessSpec::new(self.dispatch),
            )
            .unwrap();
            port::make_ready(&mut self.space, p).unwrap();
            p
        }

        pub(crate) fn cpu(&mut self) -> &mut Gdp {
            if self.gdp.is_none() {
                let root = self.space.root_sro();
                let cpu = make_processor(&mut self.space, root, 0, self.dispatch).unwrap();
                self.gdp = Some(Gdp::new(cpu, GdpMode::Locked));
            }
            self.gdp.as_mut().unwrap()
        }

        /// Steps until the predicate holds or the step budget runs out.
        pub(crate) fn run_until(
            &mut self,
            max_steps: u32,
            mut stop: impl FnMut(&StepEvent) -> bool,
        ) -> Vec<StepEvent> {
            self.cpu();
            let mut events = Vec::new();
            let mut gdp = self.gdp.take().unwrap();
            for _ in 0..max_steps {
                let ev = {
                    let mut env = Env {
                        space: &mut self.space,
                        code: &self.code,
                        natives: &self.natives,
                        bus: &mut self.bus,
                        cost: self.cost,
                    };
                    gdp.step(&mut env)
                };
                let done = stop(&ev);
                events.push(ev);
                if done {
                    break;
                }
            }
            self.gdp = Some(gdp);
            events
        }
    }

    #[test]
    fn compute_loop_runs_to_exit() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(5), DataDst::Local(0));
        p.bind(top);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = rig.sub("main", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        let events = rig.run_until(100, |e| matches!(e, StepEvent::ProcessExited(_)));
        assert!(matches!(events.last(), Some(StepEvent::ProcessExited(p)) if *p == proc_ref));
        assert_eq!(
            rig.space.process(proc_ref).unwrap().status,
            ProcessStatus::Terminated
        );
    }

    #[test]
    fn call_and_return_pass_values() {
        let mut rig = Rig::new();
        // Callee: return 41 + 1.
        let mut callee = ProgramBuilder::new();
        callee.alu(
            AluOp::Add,
            DataRef::Imm(41),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        callee.ret(None, Some(DataRef::Local(0)));
        let callee_sub = rig.sub("callee", callee.finish());
        let callee_dom = rig.domain("svc", vec![callee_sub]);

        // Caller: call svc.0, stash result at local 8, then spin until it
        // is 42 and halt.
        let mut caller = ProgramBuilder::new();
        caller.call(CTX_SLOT_FIRST_FREE as u16, 0, None, None, Some(8));
        caller.halt();
        let caller_sub = rig.sub("caller", caller.finish());
        let caller_dom = rig.domain("app", vec![caller_sub]);

        let proc_ref = rig.spawn(caller_dom, 0);
        // Hand the callee domain AD to the caller's root context.
        let ctx = rig
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(callee_dom))
            .unwrap();

        rig.run_until(100, |e| matches!(e, StepEvent::ProcessExited(_)));
        // The result was written into the caller context before exit; the
        // context is gone now, so assert via accounting instead: the
        // process executed a call (two domains) and exited cleanly.
        assert_eq!(
            rig.space.process(proc_ref).unwrap().status,
            ProcessStatus::Terminated
        );
        assert_eq!(rig.space.process(proc_ref).unwrap().fault_code, 0);
    }

    #[test]
    fn call_costs_match_calibration() {
        let mut rig = Rig::new();
        let mut callee = ProgramBuilder::new();
        callee.ret(None, None);
        let callee_sub = rig.sub("callee", callee.finish());
        let dom2 = rig.domain("svc", vec![callee_sub]);

        let mut caller = ProgramBuilder::new();
        caller.call(CTX_SLOT_FIRST_FREE as u16, 0, None, None, None);
        caller.halt();
        let caller_sub = rig.sub("caller", caller.finish());
        let dom1 = rig.domain("app", vec![caller_sub]);

        let proc_ref = rig.spawn(dom1, 0);
        let ctx = rig
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(dom2))
            .unwrap();

        let mut call_cycles = None;
        rig.run_until(100, |e| {
            if let StepEvent::Executed { cycles, .. } = e {
                if call_cycles.is_none() {
                    call_cycles = Some(*cycles);
                }
            }
            matches!(e, StepEvent::ProcessExited(_))
        });
        // First executed instruction is the CALL; 520 cycles = 65us.
        let cycles = call_cycles.expect("call executed");
        assert!(
            (500..=560).contains(&cycles),
            "domain switch took {cycles} cycles, expected ~520"
        );
    }

    #[test]
    fn create_object_instruction_allocates() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        // The context's SRO slot designates the allocator.
        p.create_object(
            CTX_SLOT_SRO as u16,
            DataRef::Imm(64),
            DataRef::Imm(4),
            CTX_SLOT_FIRST_FREE as u16,
        );
        // Prove the object works: write/read through it.
        p.mov(
            DataRef::Imm(7),
            DataDst::Field(CTX_SLOT_FIRST_FREE as u16, 0),
        );
        p.halt();
        let sub = rig.sub("main", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        let created_before = rig.space.stats().objects_created;
        rig.run_until(100, |e| matches!(e, StepEvent::ProcessExited(_)));
        assert!(rig.space.stats().objects_created > created_before);
        assert_eq!(rig.space.process(proc_ref).unwrap().fault_code, 0);
    }

    #[test]
    fn explicit_fault_is_delivered() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.push(Instruction::RaiseFault { code: 3 });
        let sub = rig.sub("main", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        let events = rig.run_until(100, |e| matches!(e, StepEvent::ProcessFaulted { .. }));
        assert!(matches!(
            events.last(),
            Some(StepEvent::ProcessFaulted {
                kind: FaultKind::Explicit(3),
                ..
            })
        ));
        // No fault port: terminated.
        assert_eq!(
            rig.space.process(proc_ref).unwrap().status,
            ProcessStatus::Terminated
        );
        assert_eq!(rig.space.process(proc_ref).unwrap().fault_code, 1003);
    }

    #[test]
    fn low_system_level_fault_halts_processor() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.push(Instruction::RaiseFault { code: 1 });
        let sub = rig.sub("main", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        rig.space.process_mut(proc_ref).unwrap().sys_level = 1;
        let events = rig.run_until(100, |e| matches!(e, StepEvent::SystemError { .. }));
        assert!(matches!(events.last(), Some(StepEvent::SystemError { .. })));
        let cpu = rig.gdp.unwrap().cpu;
        assert_eq!(
            rig.space.processor(cpu).unwrap().status,
            ProcessorStatus::Halted
        );
    }

    #[test]
    fn timeslice_end_requeues_process() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.bind(top);
        p.work(10_000);
        p.jump(top);
        let sub = rig.sub("spin", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        rig.space.process_mut(proc_ref).unwrap().timeslice = 25_000;
        rig.space.process_mut(proc_ref).unwrap().slice_remaining = 25_000;
        let events = rig.run_until(100, |e| matches!(e, StepEvent::TimesliceEnd(_)));
        assert!(matches!(events.last(), Some(StepEvent::TimesliceEnd(p)) if *p == proc_ref));
        // The process is back in the dispatching mix: next steps
        // re-dispatch it.
        let events = rig.run_until(3, |e| matches!(e, StepEvent::Dispatched(_)));
        assert!(events
            .iter()
            .any(|e| matches!(e, StepEvent::Dispatched(p) if *p == proc_ref)));
    }

    #[test]
    fn two_processes_rendezvous_through_port() {
        let mut rig = Rig::new();
        // A user port both processes can reach.
        let root = rig.space.root_sro();
        let port = rig
            .space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(2, 8),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(2, 8, PortDiscipline::Fifo)),
                },
            )
            .unwrap();
        let port_ad = rig.space.mint(port, Rights::SEND | Rights::RECEIVE);

        // Receiver: receive into slot 5, then read the message's first
        // word into local 0 and halt.
        let mut rx = ProgramBuilder::new();
        rx.receive(CTX_SLOT_FIRST_FREE as u16, 5);
        rx.mov(DataRef::Field(5, 0), DataDst::Local(0));
        rx.halt();
        let rx_sub = rig.sub("rx", rx.finish());

        // Sender: create a message object, tag it with 99, send it.
        let mut tx = ProgramBuilder::new();
        tx.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 6);
        tx.mov(DataRef::Imm(99), DataDst::Field(6, 0));
        tx.send(CTX_SLOT_FIRST_FREE as u16, 6);
        tx.halt();
        let tx_sub = rig.sub("tx", tx.finish());

        let dom = rig.domain("d", vec![rx_sub, tx_sub]);
        let rx_proc = rig.spawn(dom, 0);
        let tx_proc = rig.spawn(dom, 1);
        for p in [rx_proc, tx_proc] {
            let ctx = rig
                .space
                .load_ad_hw(p, PROC_SLOT_CONTEXT)
                .unwrap()
                .unwrap()
                .obj;
            rig.space
                .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(port_ad))
                .unwrap();
        }

        let mut exits = 0;
        rig.run_until(300, |e| {
            if matches!(e, StepEvent::ProcessExited(_)) {
                exits += 1;
            }
            exits == 2
        });
        assert_eq!(exits, 2, "both processes must finish");
        assert_eq!(rig.space.process(rx_proc).unwrap().fault_code, 0);
        assert_eq!(rig.space.process(tx_proc).unwrap().fault_code, 0);
        let st = rig.space.port(port).unwrap();
        assert_eq!(st.stats.sends, 1);
        assert_eq!(st.stats.receives, 1);
        assert_eq!(
            st.stats.blocked_receives, 1,
            "receiver ran first and blocked"
        );
    }

    #[test]
    fn native_service_called_like_user_code() {
        let mut rig = Rig::new();
        let nid = rig.natives.register("answer", |cx| {
            cx.charge(25);
            Ok(crate::native::NativeReturn::value(42))
        });
        let svc_sub = Subprogram {
            name: "answer".into(),
            body: CodeBody::Native(nid),
            ctx_data_len: 32,
            ctx_access_len: 8,
        };
        let svc_dom = rig.domain("os", vec![svc_sub]);

        let mut caller = ProgramBuilder::new();
        caller.call(CTX_SLOT_FIRST_FREE as u16, 0, None, None, Some(16));
        // Copy result somewhere observable before halt: store to the
        // message area of the process via a created object is overkill;
        // simply fault if the value is wrong.
        let ok = caller.new_label();
        caller.alu(
            AluOp::Eq,
            DataRef::Local(16),
            DataRef::Imm(42),
            DataDst::Local(24),
        );
        caller.jump_if_nonzero(DataRef::Local(24), ok);
        caller.push(Instruction::RaiseFault { code: 99 });
        caller.bind(ok);
        caller.halt();
        let caller_sub = rig.sub("main", caller.finish());
        let app_dom = rig.domain("app", vec![caller_sub]);

        let proc_ref = rig.spawn(app_dom, 0);
        let ctx = rig
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(svc_dom))
            .unwrap();

        let events = rig.run_until(100, |e| {
            matches!(
                e,
                StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. }
            )
        });
        assert!(
            matches!(events.last(), Some(StepEvent::ProcessExited(_))),
            "native call must return 42; events: {events:?}"
        );
    }

    #[test]
    fn returning_local_object_faults_on_level() {
        let mut rig = Rig::new();
        // Callee allocates from a *deep* local SRO and tries to return the
        // object. Build a local SRO at the callee's level by creating the
        // object with the context SRO but the callee's deeper level is
        // enforced via the context store on return.
        //
        // Simplest faithful setup: callee creates an object from an SRO
        // whose fixed level is deeper than the caller's context, then
        // RETURNs it. The delivery store into the caller must fault.
        let root = rig.space.root_sro();
        // A local SRO at level 10 carved from the root.
        let mut local_sro = i432_arch::SroState::new(Level(10));
        local_sro.parent = Some(root);
        // Donate some space.
        let (dbase, abase) = {
            let st = rig.space.sro_mut(root).unwrap();
            let dbase = st.data_free.allocate(4096).unwrap();
            let abase = st.access_free.allocate(128).unwrap();
            (dbase, abase)
        };
        local_sro.data_free.donate(dbase, 4096).unwrap();
        local_sro.access_free.donate(abase, 128).unwrap();
        let sro_obj = rig
            .space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 0,
                    otype: ObjectType::System(SystemType::StorageResource),
                    level: None,
                    sys: SysState::Sro(local_sro),
                },
            )
            .unwrap();
        let local_sro_ad = rig.space.mint(sro_obj, Rights::ALLOCATE);

        let mut callee = ProgramBuilder::new();
        callee.create_object(6, DataRef::Imm(16), DataRef::Imm(0), 7);
        callee.ret(Some(7), None);
        let callee_sub = rig.sub("callee", callee.finish());
        let svc = rig.domain("svc", vec![callee_sub]);

        let mut caller = ProgramBuilder::new();
        caller.call(CTX_SLOT_FIRST_FREE as u16, 0, None, Some(5), None);
        caller.halt();
        let caller_sub = rig.sub("caller", caller.finish());
        let app = rig.domain("app", vec![caller_sub]);

        let proc_ref = rig.spawn(app, 0);
        let ctx = rig
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(svc))
            .unwrap();
        // Plant the deep SRO where the callee will find it: callee slot 6
        // is populated at call time via the argument? Simpler: poke it
        // after the dispatch+call steps by stepping until the callee's
        // context exists. Instead, pass it as the CALL argument (slot 3 of
        // the callee) and have the callee use slot 3.
        // Rebuild callee to use the argument slot.
        let mut callee2 = ProgramBuilder::new();
        callee2.create_object(
            i432_arch::sysobj::CTX_SLOT_ARG as u16,
            DataRef::Imm(16),
            DataRef::Imm(0),
            7,
        );
        callee2.ret(Some(7), None);
        let callee2_sub = rig.sub("callee2", callee2.finish());
        let svc2 = rig.domain("svc2", vec![callee2_sub]);
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(svc2))
            .unwrap();
        rig.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(local_sro_ad))
            .unwrap();
        // Caller passes slot 5 (the SRO) as the argument.
        // Rewrite the caller program in place: call with arg.
        let mut caller2 = ProgramBuilder::new();
        caller2.call(
            CTX_SLOT_FIRST_FREE as u16,
            0,
            Some((CTX_SLOT_FIRST_FREE + 1) as u16),
            Some(6),
            None,
        );
        caller2.halt();
        let caller2_code = rig.code.install(caller2.finish());
        with_context_state(&mut rig.space, ctx, |c| {
            c.body = CodeBody::Interpreted(caller2_code);
        })
        .unwrap();

        let events = rig.run_until(100, |e| {
            matches!(
                e,
                StepEvent::ProcessFaulted { .. } | StepEvent::ProcessExited(_)
            )
        });
        assert!(
            matches!(
                events.last(),
                Some(StepEvent::ProcessFaulted {
                    kind: FaultKind::Level,
                    ..
                })
            ),
            "returning a local object must level-fault; events: {events:?}"
        );
    }
}

#[cfg(test)]
mod isa_extension_tests {
    use super::tests::Rig;
    use super::*;
    use crate::isa::AluOp;
    use crate::program::ProgramBuilder;
    use i432_arch::sysobj::{CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO};

    #[test]
    fn copy_data_moves_blocks() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        // Two objects; fill the first, block-copy into the second, then
        // verify one word and halt (fault on mismatch).
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(64), DataRef::Imm(0), 5);
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(64), DataRef::Imm(0), 6);
        p.mov(DataRef::Imm(0xABCD), DataDst::Field(5, 8));
        p.mov(DataRef::Imm(0x1234), DataDst::Field(5, 16));
        p.push(Instruction::CopyData {
            src: 5,
            src_off: DataRef::Imm(8),
            dst: 6,
            dst_off: DataRef::Imm(0),
            len: DataRef::Imm(16),
        });
        let ok = p.new_label();
        p.alu(
            AluOp::Eq,
            DataRef::Field(6, 8),
            DataRef::Imm(0x1234),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), ok);
        p.push(Instruction::RaiseFault { code: 9 });
        p.bind(ok);
        p.halt();
        let sub = rig.sub("copier", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        rig.run_until(100, |e| {
            matches!(
                e,
                StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. }
            )
        });
        assert_eq!(rig.space.process(proc_ref).unwrap().fault_code, 0);
    }

    #[test]
    fn copy_data_respects_rights_and_bounds() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(32), DataRef::Imm(0), 5);
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(32), DataRef::Imm(0), 6);
        // Drop write rights on the destination, then attempt the copy.
        p.restrict(6, i432_arch::Rights::READ);
        p.push(Instruction::CopyData {
            src: 5,
            src_off: DataRef::Imm(0),
            dst: 6,
            dst_off: DataRef::Imm(0),
            len: DataRef::Imm(8),
        });
        p.halt();
        let sub = rig.sub("thief", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let _ = rig.spawn(dom, 0);
        let events = rig.run_until(100, |e| {
            matches!(
                e,
                StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. }
            )
        });
        assert!(matches!(
            events.last(),
            Some(StepEvent::ProcessFaulted {
                kind: FaultKind::Rights,
                ..
            })
        ));
    }

    #[test]
    fn inspect_ad_reports_type_level_rights_null() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        // Inspect a null slot: bit 63.
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_FIRST_FREE as u16,
            dst: DataDst::Local(0),
        });
        // Create an object and inspect it: generic tag, full rights.
        p.create_object(
            CTX_SLOT_SRO as u16,
            DataRef::Imm(8),
            DataRef::Imm(0),
            CTX_SLOT_FIRST_FREE as u16,
        );
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_FIRST_FREE as u16,
            dst: DataDst::Local(8),
        });
        // Inspect the SRO slot: storage-resource tag (7).
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_SRO as u16,
            dst: DataDst::Local(16),
        });
        p.halt();
        let sub = rig.sub("inspector", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        rig.run_until(100, |e| {
            matches!(
                e,
                StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. }
            )
        });
        assert_eq!(rig.space.process(proc_ref).unwrap().fault_code, 0);
        // Re-run, stopping right before Halt, to read the locals.
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_FIRST_FREE as u16,
            dst: DataDst::Local(0),
        });
        p.create_object(
            CTX_SLOT_SRO as u16,
            DataRef::Imm(8),
            DataRef::Imm(0),
            CTX_SLOT_FIRST_FREE as u16,
        );
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_FIRST_FREE as u16,
            dst: DataDst::Local(8),
        });
        p.push(Instruction::InspectAd {
            slot: CTX_SLOT_SRO as u16,
            dst: DataDst::Local(16),
        });
        p.work(1);
        p.halt();
        let sub = rig.sub("inspector", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        let mut executed = 0;
        rig.run_until(100, |e| {
            if matches!(e, StepEvent::Executed { .. }) {
                executed += 1;
            }
            executed == 5 // after the Work, before Halt
        });
        let ctx = rig
            .space
            .load_ad_hw(proc_ref, i432_arch::sysobj::PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap();
        let w_null = rig.space.read_u64(ctx, 0).unwrap();
        let w_obj = rig.space.read_u64(ctx, 8).unwrap();
        let w_sro = rig.space.read_u64(ctx, 16).unwrap();
        assert_eq!(w_null >> 63, 1, "null bit");
        assert_eq!(w_obj >> 63, 0);
        assert_eq!((w_obj >> 24) & 0xff, 0, "generic tag");
        assert_eq!(w_obj & 0x3f, i432_arch::Rights::ALL.bits() as u64);
        assert_eq!((w_sro >> 24) & 0xff, 7, "storage-resource tag");
    }
}

#[cfg(test)]
mod control_flow_edge_tests {
    use super::tests::Rig;
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn running_off_the_end_is_a_bad_ip_fault() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.work(10); // no Halt, no Return
        let sub = rig.sub("runaway", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let proc_ref = rig.spawn(dom, 0);
        let events = rig.run_until(50, |e| {
            matches!(
                e,
                StepEvent::ProcessFaulted { .. } | StepEvent::ProcessExited(_)
            )
        });
        assert!(matches!(
            events.last(),
            Some(StepEvent::ProcessFaulted {
                kind: FaultKind::BadIp,
                ..
            })
        ));
        assert_eq!(
            rig.space.process(proc_ref).unwrap().fault_code,
            FaultKind::BadIp.code()
        );
    }

    #[test]
    fn jump_outside_the_segment_faults_at_fetch() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        p.push(Instruction::Jump(999));
        p.halt();
        let sub = rig.sub("wild_jump", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let _ = rig.spawn(dom, 0);
        let events = rig.run_until(50, |e| {
            matches!(
                e,
                StepEvent::ProcessFaulted { .. } | StepEvent::ProcessExited(_)
            )
        });
        assert!(matches!(
            events.last(),
            Some(StepEvent::ProcessFaulted {
                kind: FaultKind::BadIp,
                ..
            })
        ));
    }

    #[test]
    fn call_through_a_non_domain_faults() {
        let mut rig = Rig::new();
        let mut p = ProgramBuilder::new();
        // Call "through" the context's SRO slot: not a domain.
        p.call(i432_arch::sysobj::CTX_SLOT_SRO as u16, 0, None, None, None);
        p.halt();
        let sub = rig.sub("confused", p.finish());
        let dom = rig.domain("d", vec![sub]);
        let _ = rig.spawn(dom, 0);
        let events = rig.run_until(50, |e| {
            matches!(
                e,
                StepEvent::ProcessFaulted { .. } | StepEvent::ProcessExited(_)
            )
        });
        assert!(matches!(
            events.last(),
            Some(StepEvent::ProcessFaulted {
                kind: FaultKind::TypeMismatch,
                ..
            })
        ));
    }
}
