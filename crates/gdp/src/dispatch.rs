//! Dispatch specialization: the pre-decoded basic-block cache and the
//! superinstruction fusion table that accelerate the unlocked
//! [`BoundState`](crate::Gdp) fast path.
//!
//! Two layers, both strictly *transparent* — the conformance oracle
//! diffs the threaded runner's fused GDPs against the deterministic
//! reference, which never consults either, and `tests/fusion_diff.rs`
//! steps fused and unfused GDPs side by side:
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
//!
//! Descriptor qualification is not memoized here: CALL and the port
//! instructions qualify through the space every time, whose per-agent
//! qualification cache is the one descriptor cache (paper §2).

use crate::code::CodeStore;
use crate::isa::Instruction;
use i432_arch::CodeRef;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, DataDst, DataRef};

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
}
