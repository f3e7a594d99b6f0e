//! The code store: instruction-segment bodies, and the pair rule that
//! fuses two of their instructions into one step.
//!
//! Instruction segments are objects in the object table (system type
//! `Instructions`); their executable bodies live here, keyed by
//! [`CodeRef`]. This keeps typed Rust instruction vectors out of the byte
//! arena while preserving the object model: programs still reach code only
//! through access descriptors for instruction-segment objects.
//!
//! A body is immutable once [`CodeStore::install`] returns, so every
//! processor fetches straight from the store, and no processor keeps a
//! copy that could go stale.
//!
//! ## Superinstruction fusion
//!
//! [`CodeStore::fetch_pair`] returns an instruction together with the
//! one at `ip + 1` when the pair fuses: the first is *linear* (always
//! falls through: no jump, block, switch or exit) and the second is
//! linear or a jump. A fused GDP ([`GdpMode::Fused`](crate::GdpMode))
//! then retires both in one fast step, with per-instruction charging,
//! bus traffic, slice accounting and fault boundaries kept exactly as
//! the unfused interpreter produces them. The conformance oracle diffs
//! the threaded runner's fused GDPs against the deterministic reference,
//! which never fuses, and `tests/fusion_diff.rs` steps all three modes
//! side by side.
//!
//! The profile behind the rule is the flight recorder's opcode-pair
//! matrix: on the threaded benchmarks the dominant dynamic pairs are
//! `work→alu`, `alu→jump_if`, `mov→mov` and `load_ad→store_ad`, all
//! inside the linear × (linear or jump) product, so the rule fuses every
//! such pair rather than a fixed pick list.

use crate::isa::Instruction;
use i432_arch::CodeRef;

/// The store of all instruction-segment bodies in a system.
#[derive(Debug, Clone, Default)]
pub struct CodeStore {
    bodies: Vec<Box<[Instruction]>>,
}

impl CodeStore {
    /// An empty store.
    pub fn new() -> CodeStore {
        CodeStore::default()
    }

    /// Installs a code body, returning its reference.
    pub fn install(&mut self, body: Vec<Instruction>) -> CodeRef {
        let r = CodeRef(self.bodies.len() as u32);
        self.bodies.push(body.into());
        r
    }

    /// Fetches one instruction; `None` when `ip` is past the end or the
    /// reference is unknown (both are `BadIp` faults to the executor).
    pub fn fetch(&self, code: CodeRef, ip: u32) -> Option<Instruction> {
        self.bodies.get(code.0 as usize)?.get(ip as usize).copied()
    }

    /// Fetches the instruction at `ip` plus, when the pair fuses, its
    /// partner at `ip + 1`; `None` exactly when [`fetch`](Self::fetch)
    /// is.
    pub fn fetch_pair(&self, code: CodeRef, ip: u32) -> Option<(Instruction, Option<Instruction>)> {
        let body = self.bodies.get(code.0 as usize)?;
        let instr = *body.get(ip as usize)?;
        let partner = body
            .get(ip as usize + 1)
            .filter(|next| fuses(&instr, next))
            .copied();
        Some((instr, partner))
    }
}

/// Whether `first` and `second`, at consecutive ips, execute as one
/// superinstruction: `first` is linear, so its partner is the next
/// instruction, and `second` is linear or a jump, so it neither blocks
/// nor switches the binding and the fast path can retire it in the same
/// step.
fn fuses(first: &Instruction, second: &Instruction) -> bool {
    is_linear(first)
        && (is_linear(second)
            || matches!(second, Instruction::Jump(_) | Instruction::JumpIf { .. }))
}

/// Instructions that always fall through to `ip + 1` when they do not
/// fault.
fn is_linear(instr: &Instruction) -> bool {
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

    /// Which ips of `body` lead a fused pair.
    fn fused(body: Vec<Instruction>) -> Vec<bool> {
        let mut cs = CodeStore::new();
        let len = body.len() as u32;
        let r = cs.install(body);
        (0..len)
            .map(|ip| cs.fetch_pair(r, ip).unwrap().1.is_some())
            .collect()
    }

    #[test]
    fn install_and_fetch() {
        let mut cs = CodeStore::new();
        let r = cs.install(vec![Instruction::Work { cycles: 1 }, Instruction::Halt]);
        assert_eq!(cs.fetch(r, 0), Some(Instruction::Work { cycles: 1 }));
        assert_eq!(cs.fetch(r, 1), Some(Instruction::Halt));
        assert_eq!(cs.fetch(r, 2), None);
        assert_eq!(
            cs.fetch_pair(r, 1),
            Some((Instruction::Halt, None)),
            "the last instruction has no partner"
        );
        assert_eq!(cs.fetch_pair(r, 2), None);
    }

    #[test]
    fn unknown_ref_is_empty() {
        let cs = CodeStore::new();
        assert_eq!(cs.fetch(CodeRef(9), 0), None);
        assert_eq!(cs.fetch_pair(CodeRef(9), 0), None);
    }

    #[test]
    fn pair_rule_fuses_linear_fast_pairs_only() {
        // mov; work; alu; jump_if; halt — the c3 hot-loop shape.
        let f = fused(vec![
            mov(),
            Instruction::Work { cycles: 10 },
            alu(),
            Instruction::JumpIf {
                cond: DataRef::Local(0),
                when: true,
                target: 1,
            },
            Instruction::Halt,
        ]);
        assert!(f[0], "mov→work fuses");
        assert!(f[1], "work→alu fuses");
        assert!(f[2], "alu→jump_if fuses");
        assert!(!f[3], "jump_if cannot lead a pair");
        assert!(!f[4], "last instruction has no partner");
    }

    #[test]
    fn pair_rule_never_fuses_across_slow_instructions() {
        let f = fused(vec![
            mov(),
            Instruction::Halt,
            Instruction::Work { cycles: 1 },
            Instruction::RaiseFault { code: 7 },
        ]);
        assert!(!f[0], "mov→halt stays unfused (halt exits)");
        assert!(!f[1], "halt is not linear");
        assert!(!f[2], "work→raise_fault stays unfused");
    }
}
