//! System configuration.
//!
//! Configurability is a first-class iMAX goal (paper §6). The simulator
//! level exposes the *hardware* configuration; iMAX's own builder
//! (`imax::builder`) layers package selection and alternate
//! implementations on top.

use i432_arch::PortDiscipline;
use i432_gdp::CostModel;

/// Hardware configuration of a simulated 432 system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Data arena size in bytes.
    pub data_bytes: u32,
    /// Access arena size in slots.
    pub access_slots: u32,
    /// Object table limit.
    pub table_limit: u32,
    /// Number of object-space shards (lock stripes). The data arena,
    /// access arena and object table are divided evenly between them and
    /// the index space is address-interleaved (index mod `shards`). One
    /// shard is the plain, unpartitioned space.
    pub shards: u32,
    /// Number of general data processors.
    pub processors: u32,
    /// Number of interleaved memory buses.
    pub buses: usize,
    /// Bus cycles per 4-byte word.
    pub bus_cycles_per_word: u64,
    /// Queueing discipline of the system dispatching port.
    pub dispatch_discipline: PortDiscipline,
    /// Capacity of the system dispatching port (ready processes).
    pub dispatch_capacity: u32,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            data_bytes: 4 * 1024 * 1024,
            access_slots: 256 * 1024,
            table_limit: 64 * 1024,
            shards: 1,
            processors: 1,
            buses: 4,
            bus_cycles_per_word: 2,
            dispatch_discipline: PortDiscipline::Priority,
            dispatch_capacity: 256,
            cost: CostModel::default(),
        }
    }
}

impl SystemConfig {
    /// Convenience: a small configuration for unit tests.
    pub fn small() -> SystemConfig {
        SystemConfig {
            data_bytes: 256 * 1024,
            access_slots: 16 * 1024,
            table_limit: 4096,
            ..SystemConfig::default()
        }
    }

    /// Sets the processor count.
    pub fn with_processors(mut self, n: u32) -> SystemConfig {
        self.processors = n;
        self
    }

    /// Sets the bus configuration.
    pub fn with_buses(mut self, buses: usize, cycles_per_word: u64) -> SystemConfig {
        self.buses = buses;
        self.bus_cycles_per_word = cycles_per_word;
        self
    }

    /// Sets the object-space shard (lock stripe) count.
    pub fn with_shards(mut self, n: u32) -> SystemConfig {
        self.shards = n.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.processors, 1);
        assert!(c.buses >= 1);
        assert!(c.data_bytes > 0);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::small().with_processors(8).with_buses(2, 3);
        assert_eq!(c.processors, 8);
        assert_eq!(c.buses, 2);
        assert_eq!(c.bus_cycles_per_word, 3);
    }
}
