//! The counters/histograms registry.
//!
//! Counters are enum-indexed atomic cells — no string lookup on a hot
//! path, ever. Histograms bucket by `log2(value)`, which is plenty to
//! see whether domain switches cluster at the paper's ~520 cycles.
//! Like the recorder, [`bump`] and [`observe`] are inlined no-ops
//! without the `trace` feature; [`snapshot`] always works (it reports
//! zeroes when tracing is compiled out).

#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
#[allow(missing_docs)] // Names mirror the EventKind taxonomy one-to-one.
pub enum Counter {
    InstrExecuted,
    Dispatches,
    DomainCalls,
    DomainReturns,
    PortSends,
    PortReceives,
    PortSurrogates,
    SroAllocs,
    ShardLocks,
    ShardLockPairs,
    ShardLockAll,
    QualHits,
    QualMisses,
    QualInvalidations,
    GcIncrements,
    GcShadeGrays,
    GcSweepReclaims,
    TypeChecks,
    ProcBlocks,
    ProcFaults,
    ProcExits,
    TableLeafPages,
    TableEvictions,
    TableOccupancyPeak,
    GcSweepPages,
    PortFastSends,
    PortFastReceives,
    PortRingFallbacks,
    PortRingDrains,
    FusionHits,
    BlockDecodes,
    IcHits,
    IcMisses,
    DevSubmits,
    DevCompletions,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = Counter::DevCompletions as usize + 1;

/// Log2-bucketed cycle/size histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Hist {
    /// Cycles charged per inter-domain CALL (paper: ~520 at 8 MHz).
    DomainCallCycles,
    /// Cycles charged per inter-domain RETURN.
    DomainReturnCycles,
    /// Data bytes per SRO allocation.
    AllocDataBytes,
    /// Ring occupancy observed at each locked-path drain of a port
    /// ring (queue depth the fast path built up between locked ops).
    PortQueueDepth,
    /// Simulated cycles from filing-request submission to completion
    /// delivery (the filing server's request-latency distribution).
    FilingRequestCycles,
}

/// Number of [`Hist`] variants.
pub const HIST_COUNT: usize = Hist::FilingRequestCycles as usize + 1;

/// Buckets per histogram: bucket `i` holds values with `log2(v) == i`
/// (value 0 lands in bucket 0).
pub const HIST_BUCKETS: usize = 32;

#[cfg(feature = "trace")]
#[allow(clippy::declare_interior_mutable_const)] // Array-init pattern for statics.
const ZERO: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "trace")]
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];
#[cfg(feature = "trace")]
static COUNTERS: [AtomicU64; COUNTER_COUNT] = [ZERO; COUNTER_COUNT];
#[cfg(feature = "trace")]
static HISTS: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT] = [ZERO_ROW; HIST_COUNT];

/// Side length of the opcode-pair matrix: pair indices are opcode ids
/// modulo this (the GDP ISA has fewer than `PAIR_DIM` opcodes, so in
/// practice no aliasing occurs).
pub const PAIR_DIM: usize = 32;

#[cfg(feature = "trace")]
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_PAIR_ROW: [AtomicU64; PAIR_DIM] = [ZERO; PAIR_DIM];
#[cfg(feature = "trace")]
static PAIRS: [[AtomicU64; PAIR_DIM]; PAIR_DIM] = [ZERO_PAIR_ROW; PAIR_DIM];

impl Counter {
    /// All counters, in index order.
    pub const ALL: &'static [Counter] = &[
        Counter::InstrExecuted,
        Counter::Dispatches,
        Counter::DomainCalls,
        Counter::DomainReturns,
        Counter::PortSends,
        Counter::PortReceives,
        Counter::PortSurrogates,
        Counter::SroAllocs,
        Counter::ShardLocks,
        Counter::ShardLockPairs,
        Counter::ShardLockAll,
        Counter::QualHits,
        Counter::QualMisses,
        Counter::QualInvalidations,
        Counter::GcIncrements,
        Counter::GcShadeGrays,
        Counter::GcSweepReclaims,
        Counter::TypeChecks,
        Counter::ProcBlocks,
        Counter::ProcFaults,
        Counter::ProcExits,
        Counter::TableLeafPages,
        Counter::TableEvictions,
        Counter::TableOccupancyPeak,
        Counter::GcSweepPages,
        Counter::PortFastSends,
        Counter::PortFastReceives,
        Counter::PortRingFallbacks,
        Counter::PortRingDrains,
        Counter::FusionHits,
        Counter::BlockDecodes,
        Counter::IcHits,
        Counter::IcMisses,
        Counter::DevSubmits,
        Counter::DevCompletions,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::InstrExecuted => "instr_executed",
            Counter::Dispatches => "dispatches",
            Counter::DomainCalls => "domain_calls",
            Counter::DomainReturns => "domain_returns",
            Counter::PortSends => "port_sends",
            Counter::PortReceives => "port_receives",
            Counter::PortSurrogates => "port_surrogates",
            Counter::SroAllocs => "sro_allocs",
            Counter::ShardLocks => "shard_locks",
            Counter::ShardLockPairs => "shard_lock_pairs",
            Counter::ShardLockAll => "shard_lock_all",
            Counter::QualHits => "qual_hits",
            Counter::QualMisses => "qual_misses",
            Counter::QualInvalidations => "qual_invalidations",
            Counter::GcIncrements => "gc_increments",
            Counter::GcShadeGrays => "gc_shade_grays",
            Counter::GcSweepReclaims => "gc_sweep_reclaims",
            Counter::TypeChecks => "type_checks",
            Counter::ProcBlocks => "proc_blocks",
            Counter::ProcFaults => "proc_faults",
            Counter::ProcExits => "proc_exits",
            Counter::TableLeafPages => "table_leaf_pages",
            Counter::TableEvictions => "table_evictions",
            Counter::TableOccupancyPeak => "table_occupancy_peak",
            Counter::GcSweepPages => "gc_sweep_pages",
            Counter::PortFastSends => "port_fast_sends",
            Counter::PortFastReceives => "port_fast_receives",
            Counter::PortRingFallbacks => "port_ring_fallbacks",
            Counter::PortRingDrains => "port_ring_drains",
            Counter::FusionHits => "fusion_hits",
            Counter::BlockDecodes => "block_decodes",
            Counter::IcHits => "ic_hits",
            Counter::IcMisses => "ic_misses",
            Counter::DevSubmits => "dev_submits",
            Counter::DevCompletions => "dev_completions",
        }
    }
}

impl Hist {
    /// All histograms, in index order.
    pub const ALL: &'static [Hist] = &[
        Hist::DomainCallCycles,
        Hist::DomainReturnCycles,
        Hist::AllocDataBytes,
        Hist::PortQueueDepth,
        Hist::FilingRequestCycles,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::DomainCallCycles => "domain_call_cycles",
            Hist::DomainReturnCycles => "domain_return_cycles",
            Hist::AllocDataBytes => "alloc_data_bytes",
            Hist::PortQueueDepth => "port_queue_depth",
            Hist::FilingRequestCycles => "filing_request_cycles",
        }
    }
}

/// Increments a counter. Inlined no-op without the `trace` feature.
#[inline(always)]
pub fn bump(c: Counter) {
    #[cfg(feature = "trace")]
    COUNTERS[c as usize].fetch_add(1, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = c;
}

/// Raises a high-water-mark counter to at least `v` (gauge semantics:
/// `fetch_max`, not add). Inlined no-op without the `trace` feature.
#[inline(always)]
pub fn bump_max(c: Counter, v: u64) {
    #[cfg(feature = "trace")]
    COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = (c, v);
}

/// Adds `n` to a counter. Inlined no-op without the `trace` feature.
#[inline(always)]
pub fn bump_by(c: Counter, n: u64) {
    #[cfg(feature = "trace")]
    COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = (c, n);
}

/// Records one dynamic opcode pair `(prev, cur)` — two instructions
/// retired back-to-back on the same processor. The resulting matrix is
/// the profile that picks fusion candidates: the hottest cells name the
/// pairs worth turning into superinstructions. Inlined no-op without
/// the `trace` feature.
#[inline(always)]
pub fn record_pair(prev: u8, cur: u8) {
    #[cfg(feature = "trace")]
    PAIRS[prev as usize % PAIR_DIM][cur as usize % PAIR_DIM].fetch_add(1, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = (prev, cur);
}

/// Records a value in a histogram. Inlined no-op without the `trace`
/// feature.
#[inline(always)]
pub fn observe(h: Hist, value: u64) {
    #[cfg(feature = "trace")]
    {
        let bucket = (63 - value.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        HISTS[h as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(not(feature = "trace"))]
    let _ = (h, value);
}

/// A point-in-time copy of every counter and histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; COUNTER_COUNT],
    /// Histogram buckets, indexed by `Hist as usize`.
    pub hists: [[u64; HIST_BUCKETS]; HIST_COUNT],
    /// Opcode-pair counts, indexed `[prev][cur]` by opcode id.
    pub pairs: [[u64; PAIR_DIM]; PAIR_DIM],
}

impl CountersSnapshot {
    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One histogram's total observation count.
    pub fn hist_total(&self, h: Hist) -> u64 {
        self.hists[h as usize].iter().sum()
    }

    /// All nonzero opcode pairs as `(prev, cur, count)`, hottest first —
    /// the fusion-candidate profile in ready-to-rank form.
    pub fn hot_pairs(&self) -> Vec<(u8, u8, u64)> {
        let mut v = Vec::new();
        for (p, row) in self.pairs.iter().enumerate() {
            for (c, n) in row.iter().enumerate() {
                if *n > 0 {
                    v.push((p as u8, c as u8, *n));
                }
            }
        }
        v.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        v
    }
}

/// Copies the registry. Always available; all-zero when the `trace`
/// feature is compiled out.
pub fn snapshot() -> CountersSnapshot {
    #[cfg_attr(not(feature = "trace"), allow(unused_mut))]
    let mut s = CountersSnapshot {
        counters: [0; COUNTER_COUNT],
        hists: [[0; HIST_BUCKETS]; HIST_COUNT],
        pairs: [[0; PAIR_DIM]; PAIR_DIM],
    };
    #[cfg(feature = "trace")]
    {
        for (i, c) in COUNTERS.iter().enumerate() {
            s.counters[i] = c.load(Ordering::Relaxed);
        }
        for (i, h) in HISTS.iter().enumerate() {
            for (j, b) in h.iter().enumerate() {
                s.hists[i][j] = b.load(Ordering::Relaxed);
            }
        }
        for (i, row) in PAIRS.iter().enumerate() {
            for (j, b) in row.iter().enumerate() {
                s.pairs[i][j] = b.load(Ordering::Relaxed);
            }
        }
    }
    s
}

/// Zeroes the registry (between measured runs).
pub fn reset_counters() {
    #[cfg(feature = "trace")]
    {
        for c in COUNTERS.iter() {
            c.store(0, Ordering::Relaxed);
        }
        for h in HISTS.iter() {
            for b in h.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
        for row in PAIRS.iter() {
            for b in row.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_counters_and_filing_hist_count() {
        let _guard = crate::recorder::test_guard();
        reset_counters();
        bump(Counter::DevSubmits);
        bump(Counter::DevSubmits);
        bump(Counter::DevCompletions);
        // Latencies 1, 2, and 1000 cycles land in log2 buckets 0, 1, 9.
        observe(Hist::FilingRequestCycles, 1);
        observe(Hist::FilingRequestCycles, 2);
        observe(Hist::FilingRequestCycles, 1000);
        let snap = snapshot();
        if cfg!(feature = "trace") {
            assert_eq!(snap.get(Counter::DevSubmits), 2);
            assert_eq!(snap.get(Counter::DevCompletions), 1);
            assert_eq!(snap.hist_total(Hist::FilingRequestCycles), 3);
            let row = snap.hists[Hist::FilingRequestCycles as usize];
            assert_eq!(row[0], 1);
            assert_eq!(row[1], 1);
            assert_eq!(row[9], 1, "1000 cycles buckets at log2 = 9");
            reset_counters();
        } else {
            assert_eq!(snap.get(Counter::DevSubmits), 0, "compiled out");
            assert_eq!(snap.hist_total(Hist::FilingRequestCycles), 0);
        }
        // Names are stable export keys — exercised so the match arms
        // can't silently drift from the enum.
        assert_eq!(Counter::DevSubmits.name(), "dev_submits");
        assert_eq!(Counter::DevCompletions.name(), "dev_completions");
        assert_eq!(Hist::FilingRequestCycles.name(), "filing_request_cycles");
    }

    #[test]
    fn pair_counting_ranks_hot_pairs_first() {
        let _guard = crate::recorder::test_guard();
        reset_counters();
        // (1, 3) twice, (22, 1) once; ids > PAIR_DIM wrap by modulo.
        record_pair(1, 3);
        record_pair(1, 3);
        record_pair(22, 1);
        record_pair(PAIR_DIM as u8 + 1, 3);
        let snap = snapshot();
        if cfg!(feature = "trace") {
            assert_eq!(snap.pairs[1][3], 3, "two direct + one wrapped");
            assert_eq!(snap.pairs[22][1], 1);
            let hot = snap.hot_pairs();
            assert_eq!(hot[0], (1, 3, 3), "hottest pair ranks first: {hot:?}");
            assert!(hot.contains(&(22, 1, 1)));
            reset_counters();
            assert_eq!(snapshot().pairs[1][3], 0, "reset clears the matrix");
        } else {
            assert_eq!(snap.pairs[1][3], 0, "compiled out: matrix stays zero");
            assert!(snap.hot_pairs().is_empty());
        }
    }
}
