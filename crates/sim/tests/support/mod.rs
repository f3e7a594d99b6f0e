//! The idle-wait workload and a polling reference for it, shared by
//! `idle_wait.rs` and `idle_wait_trace.rs`.
//!
//! `System` lets a processor whose step polled an empty dispatching port
//! wait there, and charges it the skipped polls when the port fills, a
//! receive timeout falls due or the run returns. [`Reference`] polls
//! instead: bare cached `Gdp`s stepped in (clock, index) order,
//! every idle processor polling every `idle_poll` cycles, over clones of
//! the system's space and bus and with its own timer heap. Every
//! simulated quantity must come out the same on both sides.

#![allow(dead_code)]

use i432_arch::{
    digest::logical_digest,
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO},
    ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState, ProcessStatus, Rights,
    ShardedSpace, SpaceStats, SysState, SystemType,
};
use i432_gdp::{
    port::expire_timeout, process::deliver_fault, process::ProcessSpec, AluOp, DataDst, DataRef,
    Env, Gdp, GdpMode, Instruction, ProgramBuilder, StepEvent,
};
use i432_sim::{InterleavedBus, RunOutcome, System, SystemConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles a RECEIVE-TIMEOUT waits before its timer expires. The two
/// processors that ran the receiver and its sender wait at the
/// dispatching port by then, while the two workers still compute.
const TIMEOUT: u64 = 2_500;

/// Creates a FIFO port with room for four messages, anchored so the
/// collector's roots reach it.
fn port(sys: &mut System) -> ObjectRef {
    let root = sys.space.root_sro();
    let port = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(4, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    sys.anchor(sys.space.mint(port, Rights::SEND | Rights::RECEIVE));
    port
}

/// Spawns a process running `code` with `arg` and the given system level
/// and time slice.
fn spawn(
    sys: &mut System,
    name: &str,
    code: Vec<Instruction>,
    arg: Option<ObjectRef>,
    sys_level: u8,
    timeslice: u64,
) -> ObjectRef {
    let sub = sys.subprogram(name, code, 64, 8);
    let dom = sys.install_domain(name, vec![sub], 0);
    let arg = arg.map(|p| sys.space.mint(p, Rights::SEND | Rights::RECEIVE));
    let spec = ProcessSpec {
        sys_level,
        timeslice,
        ..ProcessSpec::new(sys.dispatch_ad())
    };
    sys.spawn_with(dom, 0, arg, spec)
}

/// Four processors and five processes: a RECEIVE-TIMEOUT on a port no
/// one sends to, a receiver, the sender that wakes it, and two compute
/// workers whose short time slices requeue them at the dispatching port.
/// With `halt`, a sixth process raises a fault its system level may not
/// tolerate after the receiver has exited, which halts the processor
/// that runs it while another waits.
///
/// The timed receiver is a service, so [`System::run_to_completion`]
/// ends when the other processes exit.
pub fn build(halt: bool) -> System {
    let mut sys = System::new(&SystemConfig::small().with_processors(4));
    let (silent, mailbox) = (port(&mut sys), port(&mut sys));
    let arg = CTX_SLOT_ARG as u16;

    let mut timed = ProgramBuilder::new();
    timed.receive_timeout(arg, 4, DataRef::Imm(TIMEOUT));
    timed.halt();
    let timed = spawn(&mut sys, "timed", timed.finish(), Some(silent), 2, 50_000);
    sys.mark_service(timed);

    let mut receiver = ProgramBuilder::new();
    receiver.receive(arg, 4).work(300).halt();
    spawn(
        &mut sys,
        "receiver",
        receiver.finish(),
        Some(mailbox),
        3,
        50_000,
    );

    let mut sender = ProgramBuilder::new();
    sender.work(1_200);
    sender.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), 5);
    sender.send(arg, 5).halt();
    spawn(
        &mut sys,
        "sender",
        sender.finish(),
        Some(mailbox),
        3,
        50_000,
    );

    for _ in 0..2 {
        let mut worker = ProgramBuilder::new();
        let top = worker.new_label();
        worker.mov(DataRef::Imm(8), DataDst::Local(0));
        worker.bind(top);
        worker.work(600);
        worker.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        worker.jump_if_nonzero(DataRef::Local(0), top);
        worker.halt();
        spawn(&mut sys, "worker", worker.finish(), None, 3, 1_500);
    }

    if halt {
        let mut faulter = ProgramBuilder::new();
        faulter.work(3_000).raise_fault(1);
        spawn(&mut sys, "faulter", faulter.finish(), None, 1, 50_000);
    }
    sys
}

/// The polling loop over copies of a freshly built system's space and
/// bus: every processor, idle or not, is stepped at its clock.
pub struct Reference {
    space: ShardedSpace,
    bus: InterleavedBus,
    gdps: Vec<Gdp>,
    halted: Vec<bool>,
    timers: BinaryHeap<Reverse<(u64, ObjectRef)>>,
    steps: u64,
    processes: Vec<ObjectRef>,
}

impl Reference {
    /// The reference for `sys`, which must not have run yet.
    pub fn new(sys: &System) -> Reference {
        assert_eq!(sys.steps(), 0, "the reference starts where the system does");
        let gdps: Vec<Gdp> = sys
            .processors()
            .into_iter()
            .map(|cpu| Gdp::new(cpu, GdpMode::Cached))
            .collect();
        Reference {
            space: sys.space.clone(),
            bus: sys.bus.clone(),
            halted: vec![false; gdps.len()],
            gdps,
            timers: BinaryHeap::new(),
            steps: 0,
            processes: sys.processes().to_vec(),
        }
    }

    /// Steps the active processor with the least (clock, index).
    fn step(&mut self, sys: &System) -> Option<(u32, StepEvent)> {
        let mut pick: Option<usize> = None;
        for (i, g) in self.gdps.iter().enumerate() {
            if !self.halted[i] && pick.is_none_or(|p| g.clock < self.gdps[p].clock) {
                pick = Some(i);
            }
        }
        let i = pick?;
        self.fire_timers(self.gdps[i].clock);
        let event = {
            let mut env = Env {
                space: &mut self.space,
                code: &sys.code,
                natives: &sys.natives,
                bus: &mut self.bus,
                cost: sys.cost,
            };
            self.gdps[i].step(&mut env)
        };
        self.steps += 1;
        if matches!(event, StepEvent::SystemError { .. } | StepEvent::Halted) {
            self.halted[i] = true;
        }
        if let StepEvent::Blocked(p) = &event {
            let at = self.space.process(*p).map_or(0, |ps| ps.timeout_at);
            if at > 0 {
                self.timers.push(Reverse((at, *p)));
            }
        }
        Some((i as u32, event))
    }

    /// Expires the timed receives due by `now`.
    fn fire_timers(&mut self, now: u64) {
        while let Some(Reverse((deadline, p))) = self.timers.peek().copied() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            let armed = self
                .space
                .process(p)
                .is_ok_and(|ps| ps.timeout_at == deadline);
            if armed && expire_timeout(&mut self.space, p) == Ok(true) {
                let _ = deliver_fault(&mut self.space, p);
            }
        }
    }

    /// [`System::run_until`] with every idle processor polling.
    pub fn run_until(
        &mut self,
        sys: &System,
        max_steps: u64,
        mut stop: impl FnMut(u32, &StepEvent) -> bool,
    ) -> RunOutcome {
        let mut idle = self.halted.clone();
        let mut outcome = RunOutcome::BudgetExhausted;
        for _ in 0..max_steps {
            let Some((cpu, event)) = self.step(sys) else {
                outcome = RunOutcome::Quiescent;
                break;
            };
            match &event {
                StepEvent::Idle | StepEvent::Halted => idle[cpu as usize] = true,
                StepEvent::SystemError { fault, .. } => {
                    outcome = RunOutcome::SystemError(fault.clone());
                    break;
                }
                _ => idle[cpu as usize] = false,
            }
            if stop(cpu, &event) {
                outcome = RunOutcome::Stopped;
                break;
            }
            if idle.iter().all(|f| *f) {
                outcome = RunOutcome::Quiescent;
                break;
            }
        }
        for g in &mut self.gdps {
            g.flush_bound(&mut self.space);
        }
        outcome
    }

    /// [`System::run_to_completion`] over [`Reference::run_until`].
    pub fn run_to_completion(&mut self, sys: &System, max_steps: u64) -> RunOutcome {
        let mut remaining = self
            .processes
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
        self.run_until(sys, max_steps, |_, e| {
            if matches!(e, StepEvent::ProcessExited(_)) {
                remaining -= 1;
            }
            remaining == 0
        })
    }

    /// The reference's state, to compare with [`state_of`]'s.
    pub fn state(&self) -> State {
        let now = self.gdps.iter().map(|g| g.clock).max().unwrap_or(0);
        state(
            &self.space,
            &self.gdps.iter().map(|g| g.cpu).collect::<Vec<_>>(),
            now,
            self.steps,
        )
    }
}

/// Everything a run may change that the two loops must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// [`System::now`].
    pub now: u64,
    /// [`System::steps`].
    pub steps: u64,
    /// Each processor object's busy and idle cycles.
    pub cycles: Vec<(u64, u64)>,
    /// The space's logical digest.
    pub digest: u64,
    /// The space's operation counters.
    pub stats: SpaceStats,
}

fn state(space: &ShardedSpace, cpus: &[ObjectRef], now: u64, steps: u64) -> State {
    State {
        now,
        steps,
        cycles: cpus
            .iter()
            .map(|&c| {
                let p = space.processor(c).unwrap();
                (p.busy_cycles, p.idle_cycles)
            })
            .collect(),
        digest: logical_digest(space),
        stats: space.stats(),
    }
}

/// The system's state, to compare with [`Reference::state`]'s.
pub fn state_of(sys: &System) -> State {
    state(&sys.space, &sys.processors(), sys.now(), sys.steps())
}
