//! The 16-byte event record and the event taxonomy.

/// What happened. The numeric values are stable — they appear in
/// exported JSON and in ring memory — so new kinds must only be
/// appended, and a retired kind's value is never reused (25 was a
/// parallel marker's gray-deque steal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// One GDP instruction executed (obj = process).
    InstrExec = 1,
    /// A process was dispatched onto a processor (obj = process).
    Dispatch = 2,
    /// Inter-domain CALL — the paper's ~65 µs event (obj = new context).
    DomainCall = 3,
    /// Matching inter-domain RETURN (obj = resumed context).
    DomainReturn = 4,
    /// Port send (obj = port).
    PortSend = 5,
    /// Port receive (obj = port).
    PortReceive = 6,
    /// Surrogate/carrier operation — process delivery to the dispatch
    /// port, timeout carriers (obj = port).
    PortSurrogate = 7,
    /// Segment allocated from an SRO — the paper's ~80 µs event
    /// (obj = the new object).
    SroAlloc = 8,
    /// A single shard lock acquired (obj = shard index).
    ShardLock = 9,
    /// A canonical-order two-shard lock pair acquired (obj = the lower
    /// shard index of the pair).
    ShardLockPair = 10,
    /// An all-shard atomic section entered (obj = shard count).
    ShardLockAll = 11,
    /// Qualification-cache hit on the lock-free fast path (obj = the
    /// qualified object).
    QualHit = 12,
    /// Qualification-cache miss — fell through to the locked path
    /// (obj = the object probed).
    QualMiss = 13,
    /// Qualification-cache invalidation — a shard epoch bump
    /// (obj = shard index).
    QualInval = 14,
    /// Collector entered Mark (obj = completed-cycle count so far).
    GcPhaseMark = 15,
    /// Collector entered Sweep — **mark termination** (obj = completed
    /// cycles so far).
    GcPhaseSweep = 16,
    /// Collector returned to Idle — cycle complete (obj = completed
    /// cycles including this one).
    GcPhaseIdle = 17,
    /// One collector increment ran (obj = gray-stack depth).
    GcIncrement = 18,
    /// An object was shaded White→Gray — the hardware write barrier or
    /// the marker (obj = the shaded object).
    GcShadeGray = 19,
    /// Sweep reclaimed a white object (obj = the reclaimed object).
    GcSweepReclaim = 20,
    /// Runtime-checked port verified a message's type identity
    /// (obj = the message).
    TypeCheck = 21,
    /// A process blocked on a port (obj = process).
    ProcBlock = 22,
    /// A process faulted (obj = process).
    ProcFault = 23,
    /// A process exited (obj = process).
    ProcExit = 24,
    /// Port send completed on the lock-free ring fast path, no shard
    /// lock taken (obj = port).
    PortFastSend = 26,
    /// Port receive completed on the lock-free ring fast path
    /// (obj = port).
    PortFastReceive = 27,
    /// The locked path froze and drained a port's ring before a
    /// rendezvous operation (obj = port).
    PortRingDrain = 28,
}

impl EventKind {
    /// All kinds, in numeric order (for reports and tests).
    pub const ALL: &'static [EventKind] = &[
        EventKind::InstrExec,
        EventKind::Dispatch,
        EventKind::DomainCall,
        EventKind::DomainReturn,
        EventKind::PortSend,
        EventKind::PortReceive,
        EventKind::PortSurrogate,
        EventKind::SroAlloc,
        EventKind::ShardLock,
        EventKind::ShardLockPair,
        EventKind::ShardLockAll,
        EventKind::QualHit,
        EventKind::QualMiss,
        EventKind::QualInval,
        EventKind::GcPhaseMark,
        EventKind::GcPhaseSweep,
        EventKind::GcPhaseIdle,
        EventKind::GcIncrement,
        EventKind::GcShadeGray,
        EventKind::GcSweepReclaim,
        EventKind::TypeCheck,
        EventKind::ProcBlock,
        EventKind::ProcFault,
        EventKind::ProcExit,
        EventKind::PortFastSend,
        EventKind::PortFastReceive,
        EventKind::PortRingDrain,
    ];

    /// Decodes a raw ring value. Unknown values (a torn or stale slot
    /// that slipped past the seqlock would produce one) return `None`.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|&k| k as u16 == v)
    }

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::InstrExec => "instr_exec",
            EventKind::Dispatch => "dispatch",
            EventKind::DomainCall => "domain_call",
            EventKind::DomainReturn => "domain_return",
            EventKind::PortSend => "port_send",
            EventKind::PortReceive => "port_receive",
            EventKind::PortSurrogate => "port_surrogate",
            EventKind::SroAlloc => "sro_alloc",
            EventKind::ShardLock => "shard_lock",
            EventKind::ShardLockPair => "shard_lock_pair",
            EventKind::ShardLockAll => "shard_lock_all",
            EventKind::QualHit => "qual_hit",
            EventKind::QualMiss => "qual_miss",
            EventKind::QualInval => "qual_inval",
            EventKind::GcPhaseMark => "gc_phase_mark",
            EventKind::GcPhaseSweep => "gc_phase_sweep",
            EventKind::GcPhaseIdle => "gc_phase_idle",
            EventKind::GcIncrement => "gc_increment",
            EventKind::GcShadeGray => "gc_shade_gray",
            EventKind::GcSweepReclaim => "gc_sweep_reclaim",
            EventKind::TypeCheck => "type_check",
            EventKind::ProcBlock => "proc_block",
            EventKind::ProcFault => "proc_fault",
            EventKind::ProcExit => "proc_exit",
            EventKind::PortFastSend => "port_fast_send",
            EventKind::PortFastReceive => "port_fast_receive",
            EventKind::PortRingDrain => "port_ring_drain",
        }
    }

    /// Whether this kind is a pure function of a processor's *operation
    /// stream* (true), as opposed to depending on shared mutable state
    /// whose observer is interleaving-dependent (false).
    ///
    /// Cache hits/misses depend on what other threads invalidated in
    /// between, and a White→Gray shade is emitted by whichever thread
    /// touches the object *first* — so those three are excluded from
    /// the schedule-replay equality rule (DESIGN.md §8).
    /// Whether a port operation completes on the ring fast path or
    /// falls back to the locked rendezvous is likewise a race outcome,
    /// so the ring kinds are excluded too (the semantic `PortSend`/
    /// `PortReceive` events remain deterministic).
    pub fn is_schedule_deterministic(self) -> bool {
        !matches!(
            self,
            EventKind::QualHit
                | EventKind::QualMiss
                | EventKind::GcShadeGray
                | EventKind::PortFastSend
                | EventKind::PortFastReceive
                | EventKind::PortRingDrain
        )
    }
}

/// One fixed 16-byte flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Simulated cycle of the emitting processor when the event fired.
    pub cycle: u64,
    /// Object index the event concerns (kind-specific meaning).
    pub obj: u32,
    /// What happened.
    pub kind: EventKind,
    /// Emitting processor id (ring label).
    pub cpu: u16,
}

impl Event {
    /// Packs the record into the two data words a ring slot stores.
    pub fn pack(self) -> (u64, u64) {
        (
            self.cycle,
            u64::from(self.obj) | (u64::from(self.kind as u16) << 32) | (u64::from(self.cpu) << 48),
        )
    }

    /// Unpacks two ring words; `None` for an unknown kind value.
    pub fn unpack(w0: u64, w1: u64) -> Option<Event> {
        Some(Event {
            cycle: w0,
            obj: w1 as u32,
            kind: EventKind::from_u16((w1 >> 32) as u16)?,
            cpu: (w1 >> 48) as u16,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_16_bytes_and_round_trips() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        for &kind in EventKind::ALL {
            let e = Event {
                cycle: 0xdead_beef_cafe,
                obj: 0x1234_5678,
                kind,
                cpu: 0xabcd,
            };
            let (w0, w1) = e.pack();
            assert_eq!(Event::unpack(w0, w1), Some(e));
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
        }
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(
            EventKind::from_u16(25),
            None,
            "a retired kind decodes to nothing"
        );
        let last = *EventKind::ALL.last().unwrap() as u16;
        assert_eq!(EventKind::from_u16(last + 1), None);
    }
}
