//! # imax-benchmark — the repository benchmark
//!
//! Four workloads, each a loop of identical episodes: build a `System`
//! (timed as set-up), run it (timed), then verify its outputs (timed into
//! neither). Two run on the deterministic discrete-event runner and two on
//! the threaded runner, so that every optimization has a workload that
//! exercises it and one that bypasses it. See `README.md` for the reason
//! behind each workload and the prediction each metric tests.
//!
//! [`run`] always returns the throughput, the episode-time percentiles,
//! the set-up time and the simulated cycles per operation, and every
//! per-layer metric when the plan traces, named as in `BENCHMARK.json`.
//! Peak memory is measured by `run.py` from outside the process.

#![warn(missing_docs)]

mod layers;
mod workloads;

pub use layers::{Observed, Phase, Role, Span};

use i432_trace::Counter;
use layers::{Recorder, Tally};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The object-filing service under the GC daemon (deterministic).
    Filing,
    /// Waves of one-shot clients against shared services (deterministic).
    Tenants,
    /// One producer and one consumer streaming through a port (threaded).
    Pipeline,
    /// Eight contenders for a one-token port mutex (threaded).
    Mutex,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Filing,
        Workload::Tenants,
        Workload::Pipeline,
        Workload::Mutex,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Filing => "filing",
            Workload::Tenants => "tenants",
            Workload::Pipeline => "pipeline",
            Workload::Mutex => "mutex",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Episodes run and discarded before measuring, so allocator pools
    /// and the host caches are warm.
    pub fn warmup(self) -> u32 {
        match self {
            Workload::Tenants => 3,
            _ => 5,
        }
    }
}

/// The seed a workload's inputs are drawn from, derived from the run
/// seed so that each workload gets its own stream (splitmix64).
fn workload_seed(workload: Workload, seed: u64) -> u64 {
    let mut z = seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How much of a workload one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole episodes until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many episodes.
    Episodes(u32),
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The run seed; each workload derives its own input seed from it.
    pub seed: u64,
    /// Discarded warm-up episodes.
    pub warmup: u32,
    /// Measured episodes.
    pub budget: Budget,
    /// Observe every step and keep spans, for the per-layer metrics.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Measured episodes.
    pub episodes: u32,
    /// Operations attempted in the measured episodes.
    pub attempted: u64,
    /// Operations that failed verification.
    pub failed: u64,
    /// Everything verification found wrong besides counted failures.
    pub problems: Vec<String>,
    /// The timings and simulated cycles, then per-layer metrics when
    /// traced.
    pub metrics: Vec<Metric>,
    /// The kept spans (traced runs only).
    pub spans: Vec<Span>,
    /// Role attribution of the deterministic runs (zero for threaded
    /// workloads, whose host time is only seen as whole-run spans).
    pub seen: Observed,
}

impl Report {
    /// True when every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one plan.
pub fn run(plan: &Plan) -> Report {
    let w = plan.workload;
    let seed = workload_seed(w, plan.seed);
    let reference = workloads::reference(w);
    let episode = |rec: &mut Recorder, t: &mut Tally| match w {
        Workload::Filing => workloads::filing(seed, plan.trace, rec, t),
        Workload::Tenants => workloads::tenants(seed, plan.trace, rec, t),
        Workload::Pipeline => workloads::pipeline(rec, t),
        Workload::Mutex => workloads::mutex(rec, t),
    };

    let mut problems = Vec::new();
    let mut sim_cycles = None;
    for _ in 0..plan.warmup {
        let e = episode(&mut Recorder::new(false), &mut Tally::default());
        problems.extend(e.problems);
    }

    let mut rec = Recorder::new(plan.trace);
    let mut t = Tally::default();
    let start = Instant::now();
    loop {
        let done = match plan.budget {
            Budget::Seconds(s) => rec.episode > 0 && start.elapsed().as_secs_f64() >= s,
            Budget::Episodes(n) => rec.episode >= n,
        };
        if done {
            break;
        }
        let e = episode(&mut rec, &mut t);
        rec.episode += 1;
        t.setup_ns.push(e.setup_ns);
        t.run_ns.push(e.run_ns);
        t.ops += e.ops;
        t.failed += e.failed;
        problems.extend(e.problems);
        if reference.is_none() {
            // Every episode of a run does identical simulated work.
            let first = *sim_cycles.get_or_insert((e.sim_cycles, e.ops));
            if first != (e.sim_cycles, e.ops) {
                problems.push(format!(
                    "episode {} simulated {} cycles, the first {}",
                    rec.episode, e.sim_cycles, first.0
                ));
            }
        }
    }

    let mut metrics = timings(&t);
    let (cycles, ops) = match &reference {
        Some(r) => {
            problems.extend(r.problems.iter().cloned());
            (r.cycles, r.ops)
        }
        None => sim_cycles.unwrap_or((0, 0)),
    };
    metrics.push(Metric {
        name: "sim_cycles_per_op",
        value: ratio(cycles as f64, ops as f64),
        unit: "cycles",
    });
    if plan.trace {
        metrics.extend(per_layer(&t, reference.as_ref()));
    }
    Report {
        workload: w,
        episodes: rec.episode,
        attempted: t.ops,
        failed: t.failed,
        problems,
        metrics,
        spans: rec.spans,
        seen: t.seen,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics.
fn quantile(v: &[u64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] as f64 + (s[hi] as f64 - s[lo] as f64) * (pos - lo as f64)
}

fn timings(t: &Tally) -> Vec<Metric> {
    let run_s = t.run_ns.iter().sum::<u64>() as f64 / 1e9;
    vec![
        Metric {
            name: "ops_per_s",
            value: ratio(t.ops as f64, run_s),
            unit: "ops/s",
        },
        Metric {
            name: "episode_ms_p50",
            value: quantile(&t.run_ns, 0.5) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "episode_ms_p90",
            value: quantile(&t.run_ns, 0.9) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: quantile(&t.setup_ns, 0.5) / 1e9,
            unit: "s",
        },
    ]
}

fn per_layer(t: &Tally, reference: Option<&workloads::Reference>) -> Vec<Metric> {
    let ops = t.ops as f64;
    let episodes = t.run_ns.len() as f64;
    let run_ns = t.run_ns.iter().sum::<u64>() as f64;
    // Simulated costs come from the measured runs on the deterministic
    // runner and from the reference run for the threaded workloads.
    let (seen, busy, idle, sim_ops) = match reference {
        Some(r) => (&r.seen, r.busy, r.idle, r.ops as f64),
        None => (&t.seen, t.busy_cycles, t.idle_cycles, ops),
    };
    let exec = seen.exec_cycles() as f64;
    let role_ns: u64 = t.seen.role_ns.iter().sum();
    let share = |r: Role| ratio(t.seen.role_ns[r as usize] as f64, role_ns as f64);
    // Observed runs time the steps alone; a threaded run is one span.
    let step_ns = if role_ns > 0 { role_ns as f64 } else { run_ns };
    let c = |k: Counter| t.counter(k) as f64;
    let m = |name, value, unit| Metric { name, value, unit };

    let mut v = vec![
        m("sim.step_ns", ratio(step_ns, t.steps as f64), "ns"),
        m("sim.steps_per_op", ratio(t.steps as f64, ops), "steps/op"),
        m(
            "sim.idle_step_frac",
            ratio(t.seen.idle_steps as f64, t.steps as f64),
            "fraction",
        ),
        m(
            "sim.busy_frac",
            ratio(busy as f64, (busy + idle) as f64),
            "fraction",
        ),
        m(
            "sim.unattributed_cycles",
            ratio(busy as f64 - exec, sim_ops),
            "cycles/op",
        ),
        m(
            "gdp.instr_per_op",
            ratio(seen.instrs as f64, sim_ops),
            "instr/op",
        ),
        m(
            "gdp.cycles_per_instr",
            ratio(exec, seen.instrs as f64),
            "cycles/instr",
        ),
        m(
            "gdp.fusion_hits_per_instr",
            ratio(c(Counter::FusionHits), c(Counter::InstrExecuted)),
            "fraction",
        ),
        m(
            "gdp.ic_hit_frac",
            ratio(
                c(Counter::IcHits),
                c(Counter::IcHits) + c(Counter::IcMisses),
            ),
            "fraction",
        ),
        m(
            "arch.ad_moves_per_op",
            ratio(t.space.ad_stores as f64, ops),
            "count/op",
        ),
        m(
            "arch.barrier_shades_per_op",
            ratio(t.space.barrier_shades as f64, ops),
            "count/op",
        ),
        m(
            "arch.objects_created_per_op",
            ratio(t.space.objects_created as f64, ops),
            "count/op",
        ),
        m(
            "arch.data_ops_per_op",
            ratio((t.space.data_reads + t.space.data_writes) as f64, ops),
            "count/op",
        ),
        m("arch.live_peak", f64::from(t.live_peak), "objects"),
        m(
            "arch.leaf_pages_peak",
            f64::from(t.leaf_pages_peak),
            "pages",
        ),
        m("arch.capacity_used", f64::from(t.capacity_used), "slots"),
        m(
            "arch.qual_hit_frac",
            ratio(
                c(Counter::QualHits),
                c(Counter::QualHits) + c(Counter::QualMisses),
            ),
            "fraction",
        ),
        m(
            "arch.shard_locks_per_op",
            ratio(c(Counter::ShardLocks), ops),
            "count/op",
        ),
        m(
            "ipc.msgs_per_op",
            ratio(t.ports.sends as f64, ops),
            "msgs/op",
        ),
        m(
            "ipc.blocked_frac",
            ratio(
                t.ports.blocked as f64,
                (t.ports.sends + t.ports.receives) as f64,
            ),
            "fraction",
        ),
        m(
            "ipc.ring_hit_frac",
            ratio(
                c(Counter::PortFastSends) + c(Counter::PortFastReceives),
                c(Counter::PortSends) + c(Counter::PortReceives),
            ),
            "fraction",
        ),
        m(
            "ipc.ring_fallbacks_per_op",
            ratio(c(Counter::PortRingFallbacks), ops),
            "count/op",
        ),
        m(
            "process.spawn_us",
            ratio(t.spawns.1 as f64 / 1e3, t.spawns.0 as f64),
            "us",
        ),
        m(
            "process.retire_ms",
            ratio(t.retires.1 as f64 / 1e6, t.retires.0 as f64),
            "ms",
        ),
        m(
            "storage.allocated_per_op",
            ratio(t.storage_allocated as f64, ops),
            "count/op",
        ),
        m(
            "storage.swap_outs_per_episode",
            ratio(t.swap_outs as f64, episodes),
            "count",
        ),
        m(
            "gc.daemon_cycles_share",
            ratio(seen.role_cycles[Role::Gc as usize] as f64, exec),
            "fraction",
        ),
        m(
            "gc.collect_full_ms",
            ratio(t.collects.1 as f64 / 1e6, t.collects.0 as f64),
            "ms",
        ),
        m(
            "gc.reclaimed_per_op",
            ratio(t.gc_reclaimed as f64, ops),
            "objects/op",
        ),
        m(
            "io.completions_per_req",
            ratio(t.io_completed as f64, ops),
            "count/op",
        ),
        m(
            "io.device_cycles_per_req",
            ratio(t.io_device_cycles as f64, ops),
            "cycles/op",
        ),
        m(
            "io.backlog_frac",
            ratio(t.io_backlogged as f64, t.io_submitted as f64),
            "fraction",
        ),
        m(
            "filing.worker_cycles_per_req",
            ratio(seen.role_cycles[Role::Filing as usize] as f64, sim_ops),
            "cycles/op",
        ),
        m(
            "filing.bytes_per_req",
            ratio(t.filing_bytes as f64, ops),
            "bytes/op",
        ),
    ];
    v.extend(
        Role::ALL
            .iter()
            .map(|&r| m(r.share_metric(), share(r), "fraction")),
    );
    v
}
