//! Measurement from outside the program: spans around the public calls
//! each episode makes, an observer that splits a deterministic run's host
//! time and simulated cycles by role, and the additive tally the metrics
//! are computed from.

use i432_arch::{ObjectRef, SpaceMut, SpaceStats};
use i432_gdp::StepEvent;
use i432_sim::{RunOutcome, System};
use i432_trace::{counters::COUNTER_COUNT, Counter};
use std::collections::HashMap;
use std::time::Instant;

/// Which phase of an episode a span belongs to. Only `Run` spans count
/// toward the run time; `Setup` spans are the set-up time; `Verify`
/// spans are excluded from both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the system.
    Setup,
    /// Running it.
    Run,
    /// Checking its outputs.
    Verify,
}

impl Phase {
    /// Lowercase name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::Verify => "verify",
        }
    }
}

/// One timed call into the program. Spans of one episode share its
/// index, which stands in for the parent span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or loop of calls) timed.
    pub name: &'static str,
    /// The episode phase it belongs to.
    pub phase: Phase,
    /// Episode index within the measured part of the run.
    pub episode: u32,
    /// How many calls the span covers (a wave's spawn loop is one span).
    pub calls: u64,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
}

/// Times calls and, when tracing, keeps them as [`Span`]s in memory.
pub(crate) struct Recorder {
    origin: Instant,
    keep: bool,
    pub(crate) episode: u32,
    pub(crate) spans: Vec<Span>,
}

impl Recorder {
    pub(crate) fn new(keep: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            keep,
            episode: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` and returns its result with its duration in nanoseconds.
    pub(crate) fn span<R>(
        &mut self,
        name: &'static str,
        phase: Phase,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.keep {
            self.spans.push(Span {
                name,
                phase,
                episode: self.episode,
                calls,
                start_ns: nanos(start - self.origin),
                end_ns: nanos(end - self.origin),
            });
        }
        (r, nanos(end - start))
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The role a deterministic-runner step is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Idle polls and halted processors.
    Sim,
    /// Instructions of clients and mutators.
    Gdp,
    /// Dispatch, block, time-slice end, exit and fault handling.
    Process,
    /// Instructions of the tenants' service processes.
    Ipc,
    /// Filing worker processes (their natives run `io` and `storage`).
    Filing,
    /// The garbage-collector daemon.
    Gc,
}

impl Role {
    /// Every role, in index order.
    pub const ALL: [Role; 6] = [
        Role::Sim,
        Role::Gdp,
        Role::Process,
        Role::Ipc,
        Role::Filing,
        Role::Gc,
    ];

    /// The per-layer metric holding this role's share of host time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Role::Sim => "sim.idle_ns_share",
            Role::Gdp => "gdp.client_ns_share",
            Role::Process => "process.sched_ns_share",
            Role::Ipc => "ipc.service_ns_share",
            Role::Filing => "filing.worker_ns_share",
            Role::Gc => "gc.daemon_ns_share",
        }
    }

    /// Lowercase name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Role::Sim => "sim",
            Role::Gdp => "gdp",
            Role::Process => "process",
            Role::Ipc => "ipc",
            Role::Filing => "filing",
            Role::Gc => "gc",
        }
    }
}

/// What an observed deterministic run saw, split by role.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    /// Steps that polled an empty dispatching port (or found the
    /// processor halted).
    pub idle_steps: u64,
    /// `Executed` events: instructions and native calls.
    pub instrs: u64,
    /// Host nanoseconds between callbacks, by role.
    pub role_ns: [u64; 6],
    /// Simulated cycles of `Executed` events, by the running process's
    /// role.
    pub role_cycles: [u64; 6],
}

impl Observed {
    /// Simulated cycles of every `Executed` event.
    pub fn exec_cycles(&self) -> u64 {
        self.role_cycles.iter().sum()
    }
}

/// Timestamps every step of a deterministic run and adds the time since
/// the previous step, and the step's cycles, to that step's role.
struct Observer<'a> {
    /// The processes that are not clients; every other process's
    /// instructions count as [`Role::Gdp`].
    roles: &'a HashMap<ObjectRef, Role>,
    seen: &'a mut Observed,
    last: Instant,
}

impl Observer<'_> {
    #[inline]
    fn on(&mut self, e: &StepEvent) {
        let now = Instant::now();
        let role = match e {
            StepEvent::Idle | StepEvent::Halted => {
                self.seen.idle_steps += 1;
                Role::Sim
            }
            StepEvent::Executed { process, cycles } => {
                let role = self.roles.get(process).copied().unwrap_or(Role::Gdp);
                self.seen.instrs += 1;
                self.seen.role_cycles[role as usize] += cycles;
                role
            }
            _ => Role::Process,
        };
        self.seen.role_ns[role as usize] += nanos(now - self.last);
        self.last = now;
    }
}

/// [`System::run_to_completion`], observed into `seen` when `roles` is
/// given: the same stop rule, driven through [`System::run_until`].
pub(crate) fn run_to_completion(
    sys: &mut System,
    max_steps: u64,
    roles: Option<&HashMap<ObjectRef, Role>>,
    seen: &mut Observed,
) -> RunOutcome {
    let Some(roles) = roles else {
        return sys.run_to_completion(max_steps);
    };
    let mut remaining = sys
        .processes()
        .iter()
        .filter(|p| sys.status_of(**p) != Some(i432_arch::ProcessStatus::Terminated))
        .count();
    if remaining == 0 {
        return RunOutcome::Stopped;
    }
    let mut obs = Observer {
        roles,
        seen,
        last: Instant::now(),
    };
    sys.run_until(max_steps, |_, e| {
        obs.on(e);
        if matches!(e, StepEvent::ProcessExited(_)) {
            remaining = remaining.saturating_sub(1);
        }
        remaining == 0
    })
}

/// [`System::run_to_quiescence`], observed into `seen` when `roles` is
/// given.
pub(crate) fn run_to_quiescence(
    sys: &mut System,
    max_steps: u64,
    roles: Option<&HashMap<ObjectRef, Role>>,
    seen: &mut Observed,
) -> RunOutcome {
    let Some(roles) = roles else {
        return sys.run_to_quiescence(max_steps);
    };
    let mut obs = Observer {
        roles,
        seen,
        last: Instant::now(),
    };
    sys.run_until(max_steps, |_, e| {
        obs.on(e);
        false
    })
}

/// Port counters summed over a set of ports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PortTotals {
    pub sends: u64,
    pub receives: u64,
    pub blocked: u64,
}

impl PortTotals {
    pub(crate) fn of(sys: &System, ports: &[ObjectRef]) -> PortTotals {
        let mut t = PortTotals::default();
        for &port in ports {
            if let Ok(st) = sys.space.port(port) {
                t.sends += st.stats.sends;
                t.receives += st.stats.receives;
                t.blocked += st.stats.blocked_sends + st.stats.blocked_receives;
            }
        }
        t
    }

    fn since(self, before: PortTotals) -> PortTotals {
        PortTotals {
            sends: self.sends - before.sends,
            receives: self.receives - before.receives,
            blocked: self.blocked - before.blocked,
        }
    }
}

/// Every port object anchored in the system root directory: the live
/// ports of every workload here (the dispatching port is not anchored).
pub(crate) fn anchored_ports(sys: &mut System) -> Vec<ObjectRef> {
    let dir = sys.root_dir();
    let mut ports = Vec::new();
    for slot in 0.. {
        match sys.space.load_ad_hw(dir, slot) {
            Ok(Some(ad)) if sys.space.port(ad.obj).is_ok() => ports.push(ad.obj),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    ports
}

/// Counters read before a run phase, so the tally takes deltas.
pub(crate) struct Before {
    space: SpaceStats,
    ports: PortTotals,
    counters: [u64; COUNTER_COUNT],
}

impl Before {
    pub(crate) fn take(sys: &System, ports: &[ObjectRef]) -> Before {
        Before {
            space: sys.space.stats(),
            ports: PortTotals::of(sys, ports),
            counters: i432_trace::snapshot().counters,
        }
    }
}

/// Additive totals over the measured episodes of one run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub setup_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub ops: u64,
    pub failed: u64,
    pub steps: u64,
    pub busy_cycles: u64,
    pub idle_cycles: u64,
    pub seen: Observed,
    pub space: SpaceStats,
    pub ports: PortTotals,
    /// Flight-recorder counter deltas (all zero without `--features
    /// trace`), indexed by `Counter`.
    pub counters: Vec<u64>,
    pub live_peak: u32,
    pub leaf_pages_peak: u32,
    pub capacity_used: u32,
    pub spawns: (u64, u64),
    pub retires: (u64, u64),
    pub collects: (u64, u64),
    pub storage_allocated: u64,
    pub swap_outs: u64,
    pub gc_reclaimed: u64,
    pub io_completed: u64,
    pub io_device_cycles: u64,
    pub io_submitted: u64,
    pub io_backlogged: u64,
    pub filing_bytes: u64,
}

impl Tally {
    /// Adds the deltas of one run phase: space, port and recorder
    /// counters, and the directory's high-water marks.
    pub(crate) fn after_run(&mut self, sys: &System, before: &Before, ports: &[ObjectRef]) {
        self.space.merge(&(sys.space.stats() - before.space));
        let ports = PortTotals::of(sys, ports).since(before.ports);
        self.ports.sends += ports.sends;
        self.ports.receives += ports.receives;
        self.ports.blocked += ports.blocked;
        let now = i432_trace::snapshot().counters;
        self.counters.resize(COUNTER_COUNT, 0);
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c += now[i].saturating_sub(before.counters[i]);
        }
        self.sample_directory(sys);
    }

    /// Raises the live-object and directory high-water marks.
    pub(crate) fn sample_directory(&mut self, sys: &System) {
        self.live_peak = self.live_peak.max(SpaceMut::live_count(&sys.space));
        self.leaf_pages_peak = self.leaf_pages_peak.max(SpaceMut::leaf_pages(&sys.space));
        let capacity = (0..sys.space.shard_count())
            .map(|k| sys.space.shard(k).table.capacity_used())
            .sum();
        self.capacity_used = self.capacity_used.max(capacity);
    }

    /// Adds the processors' busy and idle cycles.
    pub(crate) fn add_utilization(&mut self, sys: &System) {
        let (busy, idle) = sys.utilization();
        self.busy_cycles += busy;
        self.idle_cycles += idle;
    }

    pub(crate) fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }
}
