//! The address-interleaved multi-bus memory interconnect.
//!
//! Each 4-byte word an instruction moves is serviced by one of `B` buses
//! for `cycles_per_word` bus cycles. Words from one access are spread
//! round-robin across buses (address interleaving), so a single processor
//! sees little queueing while aggregate traffic beyond the buses' joint
//! bandwidth queues up — reproducing the near-linear-then-saturating
//! multiprocessor scaling the paper claims (knee around a factor of ~10
//! for the 432's intended configurations).

use i432_gdp::Interconnect;

/// Aggregate interconnect statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Total access requests.
    pub accesses: u64,
    /// Total words transferred.
    pub words: u64,
    /// Total stall cycles imposed on processors.
    pub wait_cycles: u64,
}

/// An address-interleaved multi-bus model.
#[derive(Debug, Clone)]
pub struct InterleavedBus {
    busy_until: Vec<u64>,
    cycles_per_word: u64,
    next: usize,
    /// Running statistics.
    pub stats: BusStats,
}

impl InterleavedBus {
    /// A model with `buses` parallel buses, each moving one word per
    /// `cycles_per_word` cycles.
    pub fn new(buses: usize, cycles_per_word: u64) -> InterleavedBus {
        assert!(buses > 0, "at least one bus");
        InterleavedBus {
            busy_until: vec![0; buses],
            cycles_per_word,
            next: 0,
            stats: BusStats::default(),
        }
    }

    /// Number of buses.
    pub fn buses(&self) -> usize {
        self.busy_until.len()
    }
}

impl Interconnect for InterleavedBus {
    fn access(&mut self, _proc_id: u32, now: u64, words: u32) -> u64 {
        if words == 0 {
            return 0;
        }
        self.stats.accesses += 1;
        self.stats.words += words as u64;
        let mut done_at = now;
        for _ in 0..words {
            let b = self.next;
            self.next += 1;
            if self.next == self.busy_until.len() {
                self.next = 0;
            }
            let start = self.busy_until[b].max(now);
            let end = start + self.cycles_per_word;
            self.busy_until[b] = end;
            done_at = done_at.max(end);
        }
        // The base word-transfer time is already charged by the cost
        // model's `mem_word`; only queueing beyond one transfer time is a
        // stall.
        let base = words as u64 * self.cycles_per_word;
        let wait = (done_at - now).saturating_sub(base);
        self.stats.wait_cycles += wait;
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_processor_sees_no_queueing() {
        let mut bus = InterleavedBus::new(2, 2);
        // Sequential accesses far apart in time never queue.
        assert_eq!(bus.access(0, 0, 4), 0);
        assert_eq!(bus.access(0, 1000, 4), 0);
        assert_eq!(bus.stats.wait_cycles, 0);
    }

    #[test]
    fn concurrent_traffic_queues() {
        let mut bus = InterleavedBus::new(1, 2);
        // Two processors hit the single bus at the same instant: the
        // second one stalls.
        let w0 = bus.access(0, 0, 4);
        let w1 = bus.access(1, 0, 4);
        assert_eq!(w0, 0);
        assert!(w1 > 0, "second access must queue behind the first");
    }

    #[test]
    fn more_buses_reduce_queueing() {
        let run = |buses: usize| {
            let mut bus = InterleavedBus::new(buses, 2);
            let mut total = 0;
            for p in 0..8u32 {
                total += bus.access(p, 0, 8);
            }
            total
        };
        assert!(run(8) < run(1));
    }

    #[test]
    fn zero_words_is_free() {
        let mut bus = InterleavedBus::new(1, 2);
        assert_eq!(bus.access(0, 0, 0), 0);
        assert_eq!(bus.stats.accesses, 0);
    }
}
