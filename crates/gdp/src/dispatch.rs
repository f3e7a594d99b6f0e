//! Dispatch specialization: the pre-decoded basic-block cache,
//! superinstruction fusion table, and monomorphic inline caches that
//! accelerate the unlocked [`BoundState`](crate::Gdp) fast path.
//!
//! Three layers, all strictly *transparent* — the conformance oracle
//! diffs fusion-on against fusion-off runs and the deterministic
//! reference, and the deterministic runner never consults any of them:
//!
//! 1. **Block cache** ([`BlockCache`]): one immutable
//!    `Arc<[Instruction]>` snapshot per executed code segment, taken
//!    from the versioned [`CodeStore`] and revalidated against
//!    [`CodeStore::version_of`] before every use. A
//!    [`patch`](CodeStore::patch) (self-modifying program) or a context
//!    rebinding to a different segment is observed at the next
//!    instruction boundary — the same granularity as fetching from the
//!    store itself.
//! 2. **Fusion table**: at decode time every instruction pair
//!    `(ip, ip+1)` is classified ([`analyze`]). A pair fuses when the
//!    first instruction is *linear* (always falls through: no jump,
//!    block, switch or exit) and the second is linear or a jump — then
//!    one fast step retires both, with per-instruction
//!    charging, bus traffic, slice accounting and fault boundaries kept
//!    exactly as the unfused interpreter produces them.
//! 3. **Inline caches** ([`InlineCache`]): a direct-mapped,
//!    site-indexed cache of descriptor-qualification outcomes at CALL
//!    and port sites, structurally mirroring the per-agent qualcache:
//!    a line is valid only for the *exact* access descriptor (object
//!    identity including generation, plus rights) it was filled with,
//!    and only while its shard's qualification epoch is unchanged
//!    ([`i432_arch::SpaceAccess::qual_epoch`]). None of that depends
//!    on the process presenting the descriptor, so lines survive
//!    rebinding.

use crate::code::CodeStore;
use crate::isa::Instruction;
use i432_arch::{AccessDescriptor, CodeRef, PortRing, Subprogram};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fusion analysis
// ---------------------------------------------------------------------------

/// Instructions that always fall through to `ip + 1` when they do not
/// fault: the legal *first* half of a superinstruction. A strict subset
/// of the legal second halves — jumps are excluded because their
/// successor is not `ip + 1`.
pub fn is_linear(instr: &Instruction) -> bool {
    matches!(
        instr,
        Instruction::Mov { .. }
            | Instruction::Alu { .. }
            | Instruction::Work { .. }
            | Instruction::MoveAd { .. }
            | Instruction::NullAd { .. }
            | Instruction::Restrict { .. }
            | Instruction::LoadAd { .. }
            | Instruction::StoreAd { .. }
    )
}

/// The legal *second* half of a superinstruction: a linear instruction
/// or a jump, which neither blocks nor switches the binding, so the
/// executor can retire it in the same fast-path step as its head.
fn is_fast_second(instr: &Instruction) -> bool {
    is_linear(instr) | matches!(instr, Instruction::Jump(_) | Instruction::JumpIf { .. })
}

/// Computes the per-ip fusion table for a decoded body: `fused[ip]` is
/// true when the pair `(ip, ip+1)` executes as one superinstruction.
///
/// The profile behind the candidate set is the flight recorder's
/// opcode-pair matrix: on the threaded benchmarks the dominant dynamic
/// pairs are `work→alu`, `alu→jump_if`, `mov→mov` and `load_ad→store_ad`
/// — all covered by the linear × (linear or jump) product below, so the
/// table fuses every such pair rather than a fixed pick list.
pub fn analyze(body: &[Instruction]) -> Box<[bool]> {
    let mut fused = vec![false; body.len()];
    for ip in 0..body.len().saturating_sub(1) {
        fused[ip] = is_linear(&body[ip]) && is_fast_second(&body[ip + 1]);
    }
    fused.into()
}

// ---------------------------------------------------------------------------
// Basic-block cache
// ---------------------------------------------------------------------------

/// One cached, pre-decoded code segment.
#[derive(Debug, Clone)]
struct CachedBody {
    /// The [`CodeStore`] version this snapshot decodes.
    version: u64,
    /// The immutable body snapshot.
    instrs: Arc<[Instruction]>,
    /// Per-ip fusion classification (see [`analyze`]).
    fused: Box<[bool]>,
}

/// The per-processor basic-block cache: decode (and fusion-classify)
/// once per segment, revalidate by version on every resolve. Indexed
/// by the dense [`CodeRef`] itself, so a resolve costs one index and
/// one version check.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    bodies: Vec<Option<CachedBody>>,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Resolves the instruction at `(code, ip)` through the cache,
    /// re-snapshotting from the store when the segment is uncached or
    /// its version moved (invalidation). Returns the instruction plus
    /// its fusion partner at `ip + 1` when the pair is fused; `None`
    /// when `ip` is outside the segment (the caller falls back to the
    /// locked path, which raises the canonical `BadIp`).
    pub fn resolve(
        &mut self,
        store: &CodeStore,
        code: CodeRef,
        ip: u32,
    ) -> Option<(Instruction, Option<Instruction>)> {
        let at = code.0 as usize;
        if at >= self.bodies.len() {
            // Grow to the store's size, never past it: an unknown
            // reference resolves to `None` without touching the cache.
            if at >= store.count() {
                return None;
            }
            self.bodies.resize(store.count(), None);
        }
        let slot = &mut self.bodies[at];
        let current = store.version_of(code);
        if slot.as_ref().is_none_or(|c| c.version != current) {
            let (version, instrs) = store.snapshot(code)?;
            let fused = analyze(&instrs);
            i432_trace::bump(i432_trace::Counter::BlockDecodes);
            *slot = Some(CachedBody {
                version,
                instrs,
                fused,
            });
        }
        let c = slot.as_ref()?;
        let instr = *c.instrs.get(ip as usize)?;
        let partner = if *c.fused.get(ip as usize)? {
            c.instrs.get(ip as usize + 1).copied()
        } else {
            None
        };
        Some((instr, partner))
    }

    /// Number of cached segments.
    pub fn occupancy(&self) -> usize {
        self.bodies.iter().filter(|b| b.is_some()).count()
    }

    /// Drops every cached segment.
    pub fn clear(&mut self) {
        self.bodies.clear();
    }
}

// ---------------------------------------------------------------------------
// Monomorphic inline caches
// ---------------------------------------------------------------------------

/// Number of IC lines (direct-mapped, like the qualcache).
pub const IC_LINES: usize = 64;

/// A call or port site: the static program location whose
/// qualification outcome the line caches.
pub type Site = (CodeRef, u32);

/// What a hit at the site short-circuits.
#[derive(Debug, Clone)]
pub enum IcPayload {
    /// A CALL site: the resolved subprogram of the (type-checked,
    /// CALL-qualified) target domain. `sub_index` re-keys the line
    /// against the instruction's immediate so a patched CALL at the
    /// same site can never serve a stale subprogram.
    Call {
        /// The subprogram-table index the line resolves.
        sub_index: u32,
        /// The resolved subprogram (owned clone; hits borrow it).
        sub: Subprogram,
    },
    /// A SEND/RECEIVE site: the port's live lock-free ring, found via
    /// the registry and rights-checked at fill time.
    Port {
        /// The cached ring handle.
        ring: Arc<PortRing>,
    },
}

/// One direct-mapped IC line.
#[derive(Debug, Clone)]
struct IcLine {
    site: Site,
    /// The exact descriptor the site presented at fill: object identity
    /// *including generation* (the slot-reuse guard) and rights (so a
    /// restricted descriptor re-qualifies on the locked path).
    target: AccessDescriptor,
    /// The target shard's qualification epoch at fill time (read
    /// *before* resolution: a racing mutation during fill leaves the
    /// line permanently stale-and-invalid rather than stale-and-live).
    epoch: u64,
    payload: IcPayload,
}

/// The per-processor monomorphic inline cache for descriptor
/// qualification at call and port sites.
#[derive(Debug, Clone, Default)]
pub struct InlineCache {
    lines: Vec<Option<IcLine>>,
}

fn slot_of(site: Site) -> usize {
    // Same spirit as the qualcache's index mapping: cheap, determinate,
    // spreading consecutive ips of one segment over distinct lines.
    (site.0 .0 as usize)
        .wrapping_mul(31)
        .wrapping_add(site.1 as usize)
        % IC_LINES
}

impl InlineCache {
    /// An empty cache.
    pub fn new() -> InlineCache {
        InlineCache {
            lines: vec![None; IC_LINES],
        }
    }

    fn line(&self, site: Site) -> Option<&IcLine> {
        self.lines.get(slot_of(site))?.as_ref()
    }

    /// Probes a CALL site. A hit requires the exact site, the exact
    /// subprogram index, the *exact* descriptor (identity, generation
    /// and rights) and an unchanged shard epoch; it returns the
    /// resolved subprogram without any locked qualification.
    pub fn probe_call(
        &self,
        site: Site,
        sub_index: u32,
        target: AccessDescriptor,
        epoch: Option<u64>,
    ) -> Option<&Subprogram> {
        let l = self.line(site)?;
        if l.site != site || l.target != target || Some(l.epoch) != epoch {
            return None;
        }
        match &l.payload {
            IcPayload::Call { sub_index: i, sub } if *i == sub_index => Some(sub),
            _ => None,
        }
    }

    /// Fills a CALL site after a successful locked resolution. `epoch`
    /// must have been read *before* the resolution began.
    pub fn fill_call(
        &mut self,
        site: Site,
        sub_index: u32,
        target: AccessDescriptor,
        epoch: u64,
        sub: Subprogram,
    ) {
        self.lines[slot_of(site)] = Some(IcLine {
            site,
            target,
            epoch,
            payload: IcPayload::Call { sub_index, sub },
        });
    }

    /// Probes a port site: same validity rule as
    /// [`probe_call`](InlineCache::probe_call), lending the cached
    /// ring. A hit touches no reference count, which the ring's
    /// producers and consumers would otherwise all write. The rights
    /// check is subsumed by descriptor equality — the line was filled
    /// from a descriptor that passed it.
    pub fn probe_port(
        &self,
        site: Site,
        target: AccessDescriptor,
        epoch: Option<u64>,
    ) -> Option<&PortRing> {
        let l = self.line(site)?;
        if l.site != site || l.target != target || Some(l.epoch) != epoch {
            return None;
        }
        match &l.payload {
            IcPayload::Port { ring } => Some(ring),
            _ => None,
        }
    }

    /// Fills a port site after a successful registry lookup + rights
    /// check, and lends the ring it now holds. `epoch` must have been
    /// read *before* the lookup.
    pub fn fill_port(
        &mut self,
        site: Site,
        target: AccessDescriptor,
        epoch: u64,
        ring: Arc<PortRing>,
    ) -> &PortRing {
        let line = self.lines[slot_of(site)].insert(IcLine {
            site,
            target,
            epoch,
            payload: IcPayload::Port { ring },
        });
        match &line.payload {
            IcPayload::Port { ring } => ring,
            IcPayload::Call { .. } => unreachable!("the line was just filled for a port"),
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, DataDst, DataRef};
    use i432_arch::CodeBody;

    fn mov() -> Instruction {
        Instruction::Mov {
            src: DataRef::Imm(1),
            dst: DataDst::Local(0),
        }
    }

    fn alu() -> Instruction {
        Instruction::Alu {
            op: AluOp::Sub,
            a: DataRef::Local(0),
            b: DataRef::Imm(1),
            dst: DataDst::Local(0),
        }
    }

    #[test]
    fn analyze_fuses_linear_fast_pairs_only() {
        // mov; work; alu; jump_if; halt — the c3 hot-loop shape.
        let body = [
            mov(),
            Instruction::Work { cycles: 10 },
            alu(),
            Instruction::JumpIf {
                cond: DataRef::Local(0),
                when: true,
                target: 1,
            },
            Instruction::Halt,
        ];
        let f = analyze(&body);
        assert!(f[0], "mov→work fuses");
        assert!(f[1], "work→alu fuses");
        assert!(f[2], "alu→jump_if fuses");
        assert!(!f[3], "jump_if cannot lead a pair");
        assert!(!f[4], "last instruction has no partner");
    }

    #[test]
    fn analyze_never_fuses_across_slow_instructions() {
        let body = [
            mov(),
            Instruction::Halt,
            Instruction::Work { cycles: 1 },
            Instruction::RaiseFault { code: 7 },
        ];
        let f = analyze(&body);
        assert!(!f[0], "mov→halt stays unfused (halt exits)");
        assert!(!f[1], "halt is not linear");
        assert!(!f[2], "work→raise_fault stays unfused");
    }

    #[test]
    fn block_cache_revalidates_on_patch() {
        let mut cs = CodeStore::new();
        let r = cs.install(vec![mov(), alu(), Instruction::Halt]);
        let mut bc = BlockCache::new();
        let (i0, partner) = bc.resolve(&cs, r, 0).unwrap();
        assert_eq!(i0, mov());
        assert_eq!(partner, Some(alu()), "mov→alu fuses");
        assert_eq!(bc.occupancy(), 1);

        // Patch through the shared store: the next resolve re-decodes.
        assert!(cs.patch(r, 1, Instruction::Work { cycles: 5 }));
        let (_, partner) = bc.resolve(&cs, r, 0).unwrap();
        assert_eq!(
            partner,
            Some(Instruction::Work { cycles: 5 }),
            "patched partner visible after version bump"
        );
        assert!(bc.resolve(&cs, r, 9).is_none(), "out of range is None");
    }

    #[test]
    fn ic_call_lines_guard_site_descriptor_and_epoch() {
        let mut ic = InlineCache::new();
        let site: Site = (CodeRef(3), 7);
        let dom = AccessDescriptor::new(
            i432_arch::ObjectRef {
                index: i432_arch::ObjectIndex(12),
                generation: 4,
            },
            i432_arch::Rights::CALL,
        );
        let sub = Subprogram {
            name: "callee".into(),
            body: CodeBody::Interpreted(CodeRef(9)),
            ctx_data_len: 64,
            ctx_access_len: 8,
        };
        ic.fill_call(site, 2, dom, 17, sub);
        assert!(ic.probe_call(site, 2, dom, Some(17)).is_some());
        assert!(
            ic.probe_call(site, 3, dom, Some(17)).is_none(),
            "patched subprogram immediate misses"
        );
        assert!(
            ic.probe_call(site, 2, dom, Some(18)).is_none(),
            "epoch bump misses"
        );
        assert!(
            ic.probe_call(site, 2, dom, None).is_none(),
            "spaces without epochs never hit"
        );
        let stale = AccessDescriptor::new(
            i432_arch::ObjectRef {
                index: i432_arch::ObjectIndex(12),
                generation: 5,
            },
            i432_arch::Rights::CALL,
        );
        assert!(
            ic.probe_call(site, 2, stale, Some(17)).is_none(),
            "generation mismatch (slot reuse) misses"
        );
    }
}
