//! The deterministic merged timeline and its export formats.

use crate::counters::{snapshot, Hist};
use crate::event::EventKind;
use std::fmt::Write as _;

/// One record in the merged timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimelineEvent {
    /// Simulated cycle of the emitting processor.
    pub cycle: u64,
    /// Emitting processor id.
    pub cpu: u16,
    /// Per-ring emission sequence (third merge key).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Object index the event concerns.
    pub obj: u32,
}

/// The merged flight-recorder timeline.
///
/// **Merge rule:** events are ordered by `(simulated cycle, processor
/// id, per-ring sequence)`, with `(kind, obj)` as final tie-breakers so
/// the comparator is total over record *values*. The order is therefore
/// a pure function of the recorded values — two runs that emit the same
/// per-processor event streams produce bit-identical timelines no
/// matter how the host scheduler interleaved them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Events in merged order.
    pub events: Vec<TimelineEvent>,
    /// Records lost to ring wraparound or pool exhaustion.
    pub dropped: u64,
}

impl Timeline {
    /// Merges drained records into deterministic order.
    pub fn merge(mut events: Vec<TimelineEvent>, dropped: u64) -> Timeline {
        events.sort_unstable_by_key(|e| (e.cycle, e.cpu, e.seq, e.kind, e.obj));
        Timeline { events, dropped }
    }

    /// The schedule-replay view: only kinds that are a pure function of
    /// each processor's operation stream (see
    /// [`EventKind::is_schedule_deterministic`]), with `seq` renumbered
    /// per processor. Two replays of the same explorer schedule must
    /// agree on this view exactly.
    ///
    /// The renumbering is what makes the view replay-stable: raw `seq`
    /// is a *ring* position, and the recorder pools rings across thread
    /// lifetimes — a thread that leases a ring a finished thread
    /// returned continues from the previous occupant's head, so the raw
    /// offset depends on host scheduling. Within one processor the
    /// offset is constant (a thread keeps its lease for life) and both
    /// `cycle` and raw `seq` increase in emission order, so the merged
    /// per-processor order *is* the emission order; renumbering each
    /// processor's filtered stream `0..n` in that order yields a pure
    /// function of the stream's values.
    pub fn replay_view(&self) -> Vec<TimelineEvent> {
        let mut next: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
        self.events
            .iter()
            .filter(|e| e.kind.is_schedule_deterministic())
            .map(|e| {
                let n = next.entry(e.cpu).or_insert(0);
                let seq = *n;
                *n += 1;
                TimelineEvent { seq, ..*e }
            })
            .collect()
    }

    /// Events of one kind, in timeline order.
    pub fn of_kind(&self, kind: EventKind) -> Vec<TimelineEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Serializes the timeline (plus the counters registry) as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"trace\": \"i432\",\n");
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        let snap = snapshot();
        out.push_str("  \"counters\": {");
        for (i, c) in crate::Counter::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                c.name(),
                snap.get(*c)
            );
        }
        out.push_str("},\n");
        out.push_str("  \"histograms\": {");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let _ = write!(out, "{}\"{}\": [", if i == 0 { "" } else { ", " }, h.name());
            // Buckets above the last non-empty one are elided.
            let buckets = &snap.hists[*h as usize];
            let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |p| p + 1);
            for (j, b) in buckets[..last.max(1)].iter().enumerate() {
                let _ = write!(out, "{}{b}", if j == 0 { "" } else { ", " });
            }
            out.push(']');
        }
        out.push_str("},\n");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"cycle\": {}, \"cpu\": {}, \"seq\": {}, \"kind\": \"{}\", \"obj\": {}}}{}",
                e.cycle,
                e.cpu,
                e.seq,
                e.kind.name(),
                e.obj,
                if i + 1 < self.events.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the timeline in chrome://tracing "trace event" format
    /// (a JSON array of instant events; load via the `Load` button in
    /// chrome://tracing or <https://ui.perfetto.dev>). Timestamps are
    /// microseconds at the 432's 8 MHz clock; each processor renders as
    /// a thread.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {:.3}, \"pid\": 0, \
                 \"tid\": {}, \"s\": \"t\", \"args\": {{\"obj\": {}, \"seq\": {}}}}}{}",
                e.kind.name(),
                e.cycle as f64 / 8.0,
                e.cpu,
                e.obj,
                e.seq,
                if i + 1 < self.events.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        out
    }
}
