//! System inspection: the "development debugging base" of release 1
//! (paper §9).
//!
//! Read-only reports over the object space: table census, per-process
//! and per-port detail, storage accounting, and reachability dumps.
//! Everything here is a *privileged* view (it reads through hardware
//! linkage paths); it corresponds to the debugger running inside iMAX's
//! own protection domain, not to anything an application could do with
//! its capabilities.

use i432_arch::{
    Color, ObjectIndex, ObjectRef, ObjectType, SpaceAccess, SpaceMut, SpaceStats, SysState,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A census of the object table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Census {
    /// Live objects per system type name (user types count under
    /// `user:<name>`).
    pub by_type: BTreeMap<String, u32>,
    /// Live objects per GC color.
    pub white: u32,
    /// Live objects per GC color.
    pub gray: u32,
    /// Live objects per GC color.
    pub black: u32,
    /// Swapped-out segments.
    pub absent: u32,
    /// Total live objects.
    pub live: u32,
    /// Data-arena bytes charged to live segments.
    pub data_bytes: u64,
    /// Access-arena slots charged to live segments.
    pub access_slots: u64,
}

/// Counts everything live in the space.
pub fn census<S: SpaceMut + ?Sized>(space: &S) -> Census {
    let mut c = Census::default();
    // User-typed objects need a second lookup (their TDO's name); collect
    // the raw facts during the scan, resolve names after it.
    let mut user_typed = Vec::new();
    space.for_each_live(&mut |_, e| {
        c.live += 1;
        c.data_bytes += e.desc.data_len as u64;
        c.access_slots += e.desc.access_len as u64;
        match e.desc.color {
            Color::White => c.white += 1,
            Color::Gray => c.gray += 1,
            Color::Black => c.black += 1,
        }
        if e.desc.absent {
            c.absent += 1;
        }
        match e.desc.otype {
            ObjectType::System(t) => {
                *c.by_type.entry(t.name().to_string()).or_insert(0) += 1;
            }
            ObjectType::User(tdo) => user_typed.push(tdo),
        }
    });
    for tdo in user_typed {
        let name = space
            .tdo(tdo)
            .map(|t| t.name.clone())
            .unwrap_or_else(|_| "?".into());
        *c.by_type.entry(format!("user:{name}")).or_insert(0) += 1;
    }
    c
}

/// One line per live process: status, priority, cycles, fault state.
pub fn process_report<S: SpaceMut + ?Sized>(space: &S) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:>4} {:>6} {:>12} {:>6}  detail",
        "object", "status", "prio", "stops", "cycles", "fault"
    );
    space.for_each_live(&mut |i, e| {
        if let SysState::Process(p) = &e.sys {
            let _ = writeln!(
                out,
                "{:<8} {:<14} {:>4} {:>6} {:>12} {:>6}  {}",
                format!("#{}", i.0),
                format!("{:?}", p.status),
                p.priority,
                p.stop_count,
                p.total_cycles,
                p.fault_code,
                p.fault_detail
            );
        }
    });
    out
}

/// One line per live port: geometry, occupancy, waiters, counters.
pub fn port_report<S: SpaceMut + ?Sized>(space: &S) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<10} {:>5} {:>5} {:>8} {:>8} {:>8} {:>8}",
        "object", "disc", "cap", "msgs", "waiters", "sends", "recvs", "blocked"
    );
    space.for_each_live(&mut |i, e| {
        if let SysState::Port(p) = &e.sys {
            let _ = writeln!(
                out,
                "{:<8} {:<10} {:>5} {:>5} {:>8} {:>8} {:>8} {:>8}",
                format!("#{}", i.0),
                format!("{:?}", p.discipline),
                p.capacity,
                p.msg_count,
                format!("{}/{:?}", p.wait_count, p.waiters),
                p.stats.sends,
                p.stats.receives,
                p.stats.blocked_sends + p.stats.blocked_receives
            );
        }
    });
    out
}

/// Storage accounting per SRO: free/used, object counts.
pub fn storage_report<S: SpaceMut + ?Sized>(space: &S) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>12} {:>12} {:>8} {:>10}",
        "sro", "level", "data free", "slots free", "objects", "created"
    );
    space.for_each_live(&mut |i, e| {
        if let SysState::Sro(s) = &e.sys {
            let _ = writeln!(
                out,
                "{:<8} {:>6} {:>12} {:>12} {:>8} {:>10}",
                format!("#{}", i.0),
                s.level.0,
                s.data_free.total_free(),
                s.access_free.total_free(),
                s.object_count,
                s.created_total
            );
        }
    });
    out
}

/// Dumps the object graph reachable from `root` as indented text,
/// following access parts depth-first (cycles elided with `^#n`).
pub fn graph_dump<S: SpaceMut + ?Sized>(space: &mut S, root: ObjectRef, max_depth: u32) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    fn describe<S: SpaceMut + ?Sized>(space: &S, r: ObjectRef) -> String {
        match space.entry(r) {
            Ok(e) => format!(
                "#{} {} lvl{} d{} a{}",
                r.index.0, e.desc.otype, e.desc.level.0, e.desc.data_len, e.desc.access_len
            ),
            Err(_) => format!("#{} <dead>", r.index.0),
        }
    }
    fn walk<S: SpaceMut + ?Sized>(
        space: &mut S,
        r: ObjectRef,
        depth: u32,
        max_depth: u32,
        seen: &mut std::collections::HashSet<ObjectIndex>,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth as usize);
        if !seen.insert(r.index) {
            let _ = writeln!(out, "{pad}^#{}", r.index.0);
            return;
        }
        let _ = writeln!(out, "{pad}{}", describe(space, r));
        if depth >= max_depth {
            return;
        }
        if let Ok(ads) = SpaceAccess::scan_access_part(space, r) {
            for ad in ads {
                walk(space, ad.obj, depth + 1, max_depth, seen, out);
            }
        }
    }
    walk(space, root, 0, max_depth, &mut seen, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Flight-recorder registry
// ---------------------------------------------------------------------------

/// The flight-recorder counters and histograms as a debugger report.
///
/// In a build without `--features trace` every counter reads zero and
/// the report says so up front — the debugging base tells you the
/// instrumentation is compiled out rather than showing a silent page of
/// zeros.
pub fn trace_report() -> String {
    let mut out = String::new();
    if !i432_trace::ENABLED {
        let _ = writeln!(
            out,
            "flight recorder compiled out (rebuild with --features trace)"
        );
        return out;
    }
    let snap = i432_trace::snapshot();
    let _ = writeln!(out, "{:<24} {:>14}", "counter", "value");
    for c in i432_trace::Counter::ALL {
        let _ = writeln!(out, "{:<24} {:>14}", c.name(), snap.get(*c));
    }
    for h in i432_trace::Hist::ALL {
        let total = snap.hist_total(*h);
        let _ = writeln!(out, "{:<24} {:>14}  (log2 buckets)", h.name(), total);
        if total > 0 {
            let buckets = &snap.hists[*h as usize];
            for (i, b) in buckets.iter().enumerate() {
                if *b > 0 {
                    let _ = writeln!(out, "  2^{i:<3} .. 2^{:<3} {:>12}", i + 1, b);
                }
            }
        }
    }
    // Retired-opcode pair histogram: the profile that selects which
    // pairs superinstruction fusion targets. Top pairs only — the full
    // matrix is PAIR_DIM².
    let pairs = snap.hot_pairs();
    let _ = writeln!(out, "{:<24} {:>14}  (top 12)", "opcode_pairs", pairs.len());
    for (prev, cur, n) in pairs.iter().take(12) {
        let _ = writeln!(
            out,
            "  {:<22} {:>14}",
            format!(
                "{} ; {}",
                i432_gdp::isa::opcode_name(*prev),
                i432_gdp::isa::opcode_name(*cur)
            ),
            n
        );
    }
    out
}

// ---------------------------------------------------------------------------
// SpaceStats snapshots
// ---------------------------------------------------------------------------

/// The field-wise difference of two [`SpaceStats`] snapshots: what a
/// measured region of a run cost in hardware-level operations.
pub type StatsDelta = SpaceStats;

/// A point-in-time [`SpaceStats`] snapshot; the counters are monotonic,
/// so `after - before` is a well-defined per-region cost.
///
/// ```ignore
/// let before = StatsSnapshot::take(&mut space);
/// /* ... the region of interest ... */
/// let delta: StatsDelta = before.delta(&mut space);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StatsSnapshot(SpaceStats);

impl StatsSnapshot {
    /// Snapshots the space counters (merged across shards).
    pub fn take<S: SpaceAccess + ?Sized>(space: &mut S) -> StatsSnapshot {
        StatsSnapshot(space.stats())
    }

    /// The cost accrued since this snapshot was taken.
    pub fn delta<S: SpaceAccess + ?Sized>(&self, space: &mut S) -> StatsDelta {
        space.stats() - self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, PortDiscipline, Rights, ShardedSpace};
    use imax_ipc::create_port;

    fn populated_space() -> (ShardedSpace, ObjectRef) {
        let mut s = ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1);
        let root_sro = s.root_sro();
        let port = create_port(&mut s, root_sro, 4, PortDiscipline::Fifo).unwrap();
        let a = s
            .create_object(root_sro, ObjectSpec::generic(32, 2))
            .unwrap();
        let b = s
            .create_object(root_sro, ObjectSpec::generic(16, 0))
            .unwrap();
        let a_ad = s.mint(a, Rights::READ | Rights::WRITE);
        let b_ad = s.mint(b, Rights::READ);
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();
        s.store_ad(a_ad, 1, Some(a_ad)).unwrap(); // a cycle
        let _ = port;
        (s, a)
    }

    #[test]
    fn census_counts_types_and_colors() {
        let (s, _) = populated_space();
        let c = census(&s);
        assert_eq!(c.by_type.get("port"), Some(&1));
        assert_eq!(c.by_type.get("generic"), Some(&2));
        assert_eq!(c.by_type.get("storage-resource"), Some(&1));
        assert_eq!(c.live, c.white + c.gray + c.black);
        assert!(c.data_bytes >= 48);
    }

    #[test]
    fn graph_dump_handles_cycles() {
        let (mut s, a) = populated_space();
        let root = s.ref_for(a.index).unwrap();
        let dump = graph_dump(&mut s, root, 5);
        assert!(dump.contains("generic"));
        assert!(dump.contains('^'), "cycle marker present:\n{dump}");
    }

    #[test]
    fn trace_report_renders_or_says_why_not() {
        let r = trace_report();
        if i432_trace::ENABLED {
            assert!(r.contains("domain_calls"), "{r}");
            assert!(r.contains("alloc_data_bytes"), "{r}");
            // The queued-port diagnostics are part of the debugging
            // base: fast-path hit/fallback counters and the ring
            // occupancy histogram observed at every drain.
            assert!(r.contains("port_fast_sends"), "{r}");
            assert!(r.contains("port_ring_fallbacks"), "{r}");
            assert!(r.contains("port_queue_depth"), "{r}");
            // Fusion diagnostics: fusion hits and the opcode-pair
            // profile fusion is chosen from. `ic_hits` is still listed,
            // at zero: the benchmark names it.
            assert!(r.contains("fusion_hits"), "{r}");
            assert!(r.contains("ic_hits"), "{r}");
            assert!(r.contains("opcode_pairs"), "{r}");
            // Device-subsystem diagnostics: async device submission
            // and completion counters plus the filing request-latency
            // histogram.
            assert!(r.contains("dev_submits"), "{r}");
            assert!(r.contains("dev_completions"), "{r}");
            assert!(r.contains("filing_request_cycles"), "{r}");
        } else {
            assert!(r.contains("compiled out"), "{r}");
        }
    }

    #[test]
    fn reports_render() {
        let (s, _) = populated_space();
        let ports = port_report(&s);
        assert!(ports.contains("Fifo"));
        let storage = storage_report(&s);
        assert!(storage.contains("#0"));
        // No processes yet.
        let procs = process_report(&s);
        assert_eq!(procs.lines().count(), 1, "header only");
    }
}
