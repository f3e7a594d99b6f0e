//! A bounded event trace for diagnostics and tests.

use i432_gdp::StepEvent;
use std::collections::VecDeque;

/// One traced step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Which processor stepped (by processor-object id).
    pub cpu: u32,
    /// Its local clock after the step.
    pub clock: u64,
    /// What happened.
    pub event: StepEvent,
}

/// A ring buffer of the most recent [`TraceEntry`] records.
#[derive(Debug, Default, Clone)]
pub struct TraceBuffer {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
}

impl TraceBuffer {
    /// A trace retaining at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            entries: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
        }
    }

    /// Records an entry, evicting the oldest when full.
    pub fn record(&mut self, e: TraceEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(e);
    }

    /// The most entries retained (0 when tracing is off).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(clock: u64) -> TraceEntry {
        TraceEntry {
            cpu: 0,
            clock,
            event: StepEvent::Idle,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceBuffer::new(2);
        t.record(entry(1));
        t.record(entry(2));
        t.record(entry(3));
        let clocks: Vec<u64> = t.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![2, 3]);
    }

    #[test]
    fn zero_capacity_discards() {
        let mut t = TraceBuffer::new(0);
        t.record(entry(1));
        assert!(t.is_empty());
    }
}
