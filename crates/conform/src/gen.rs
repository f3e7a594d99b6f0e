//! Seeded, deterministic generation of GDP conformance programs.
//!
//! A generated *case* is a small multiprocess workload: each process runs
//! a distinct program that (1) builds and mutates a private object graph
//! through the checked ISA paths — creation, data movement, AD movement,
//! rights restriction, inspection — then (2) optionally raises exactly one
//! deliberate fault, then (3) joins a token-mutex protocol bumping a
//! shared counter by a per-process delta, and finally (4) publishes its
//! private checksum and a rights-restricted view of its graph into an
//! output object the oracle digests.
//!
//! The generator tracks a model of every context slot it touches (object
//! size, access-part occupancy, remaining rights), so the *non*-fault
//! phases are fault-free by construction and the fault phase faults at a
//! fixed instruction. That makes every program's end state a pure
//! function of the seed — independent of scheduling — which is exactly
//! what the differential oracle needs: private state commutes trivially,
//! the shared counter is a sum of commuting increments under a port
//! mutex, and the token parks back in the port either way.

use i432_arch::{sysobj::CTX_SLOT_ARG, sysobj::CTX_SLOT_SRO, Rights};
use i432_gdp::isa::{AluOp, DataDst, DataRef, Instruction};
use i432_gdp::ProgramBuilder;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::HashMap;

/// Context slot the harness pokes with the per-process output object.
pub const S_OUT: u16 = 4;
/// Context slot the harness pokes with the shared counter cell.
pub const S_SHARED: u16 = 5;
/// Context slot the mutex token is received into.
pub const S_TOKEN: u16 = 6;
/// Context slot the harness pokes with a deep (short-lived-level) object.
pub const S_DEEP: u16 = 7;
/// First of the work slots the generator allocates into.
const S_WORK0: u16 = 8;
/// Number of work slots.
const N_WORK: u16 = 6;
/// Scratch slot for restrict-a-copy sequences.
const S_SCRATCH: u16 = 14;
/// Reserved slot that is *never* written: reads through it null-fault.
pub const S_NULL: u16 = 15;
/// Context slot the harness pokes with a per-process *tight* SRO whose
/// object-table quota is [`TIGHT_QUOTA`] (the table-ceiling fault
/// family allocates through it until it trips).
pub const S_TIGHT: u16 = 16;
/// Object-table quota of the tight SRO in [`S_TIGHT`].
pub const TIGHT_QUOTA: u32 = 6;
/// Access-part slots every generated context needs.
pub const CTX_ACCESS: u32 = 17;
/// Data-part bytes every generated context needs.
pub const CTX_DATA: u32 = 64;
/// Access-part slots of each per-process output object.
pub const OUT_ACCESS: u32 = 4;

const L_CHK: u32 = 0; // running checksum local
const L_TMP: u32 = 8; // scratch local
const L_ROUND: u32 = 16; // mutex round counter
const L_CMP: u32 = 24; // loop comparison result

/// One generated process program plus what the oracle needs to know
/// about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProcess {
    /// The instruction body.
    pub program: Vec<Instruction>,
    /// Whether the program deliberately faults (before the mutex phase).
    pub faulty: bool,
    /// Human-readable name of the injected fault, if any.
    pub fault_name: Option<&'static str>,
    /// Per-round increment this process applies to the shared counter
    /// (zero when faulty — it never reaches the mutex phase).
    pub delta: u64,
}

/// A complete generated conformance case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCase {
    /// The seed that produced this case.
    pub seed: u64,
    /// One program per process, in spawn order.
    pub processes: Vec<GenProcess>,
    /// Mutex rounds each non-faulty process performs.
    pub rounds: u64,
}

impl GenCase {
    /// The shared-counter value every conforming run must end with.
    pub fn expected_counter(&self) -> u64 {
        self.processes
            .iter()
            .filter(|p| !p.faulty)
            .map(|p| p.delta * self.rounds)
            .sum()
    }
}

/// Generator model of an access descriptor held in a context work slot:
/// the object's generator-assigned identity and shape, plus the rights
/// *this particular AD* carries (copies of one object can differ).
#[derive(Debug, Clone, Copy)]
struct ObjModel {
    /// Generator-unique object identity. Two slots may alias one object
    /// (a slot's AD stored into a reachable container and loaded back
    /// elsewhere), so occupancy must be keyed by identity, never by the
    /// slot name — a store through one alias is visible through all.
    id: u32,
    data_len: u32,
    access_len: u32,
    rights: Rights,
}

/// Per-program generation state: the slot models plus which access-part
/// indices of which *objects* are known to be filled, and with what.
struct Model {
    slots: [Option<ObjModel>; N_WORK as usize],
    filled: HashMap<(u32, u32), ObjModel>,
    next_id: u32,
}

impl Model {
    fn new() -> Model {
        Model {
            slots: [None; N_WORK as usize],
            filled: HashMap::new(),
            next_id: 0,
        }
    }

    fn get(&self, slot: u16) -> Option<ObjModel> {
        self.slots[(slot - S_WORK0) as usize]
    }

    fn set(&mut self, slot: u16, m: Option<ObjModel>) {
        self.slots[(slot - S_WORK0) as usize] = m;
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn pick_slot(&self, rng: &mut StdRng, pred: impl Fn(&ObjModel) -> bool) -> Option<u16> {
        let eligible: Vec<u16> = (0..N_WORK)
            .filter_map(|i| {
                let slot = S_WORK0 + i;
                self.slots[i as usize].filter(&pred).map(|_| slot)
            })
            .collect();
        if eligible.is_empty() {
            None
        } else {
            Some(eligible[rng.random_range(0usize..eligible.len())])
        }
    }

    /// A loadable entry: a readable container slot together with a
    /// known-filled index of the object it currently names.
    fn pick_load(&self, rng: &mut StdRng) -> Option<(u16, u32, ObjModel)> {
        let mut eligible: Vec<(u16, u32)> = Vec::new();
        for i in 0..N_WORK {
            let slot = S_WORK0 + i;
            let Some(m) = self.slots[i as usize] else {
                continue;
            };
            if !m.rights.contains(Rights::READ) {
                continue;
            }
            for &(id, idx) in self.filled.keys() {
                if id == m.id {
                    eligible.push((slot, idx));
                }
            }
        }
        if eligible.is_empty() {
            return None;
        }
        // HashMap iteration order is not deterministic across runs; sort
        // so the same seed always picks the same entry.
        eligible.sort_unstable();
        let (slot, idx) = eligible[rng.random_range(0usize..eligible.len())];
        let id = self.get(slot).expect("eligible slot is live").id;
        Some((slot, idx, self.filled[&(id, idx)]))
    }
}

/// Emits one CreateObject into a random work slot and updates the model.
fn emit_create(p: &mut ProgramBuilder, rng: &mut StdRng, model: &mut Model) {
    let slot = S_WORK0 + rng.random_range(0u16..N_WORK);
    let data_len = 8 * rng.random_range(1u32..8);
    let access_len = rng.random_range(0u32..4);
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(u64::from(data_len)),
        DataRef::Imm(u64::from(access_len)),
        slot,
    );
    let id = model.fresh_id();
    model.set(
        slot,
        Some(ObjModel {
            id,
            data_len,
            access_len,
            rights: Rights::ALL,
        }),
    );
}

/// Emits the private-graph phase: `n_ops` model-guarded operations.
fn emit_private_ops(p: &mut ProgramBuilder, rng: &mut StdRng, model: &mut Model, n_ops: u32) {
    const FOLD_OPS: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
    ];
    for _ in 0..n_ops {
        match rng.random_range(0u32..100) {
            // Create a fresh object.
            0..18 => emit_create(p, rng, model),
            // Write an immediate into a writable object.
            18..36 => match model.pick_slot(rng, |m| m.rights.contains(Rights::WRITE)) {
                Some(slot) => {
                    let m = model.get(slot).expect("picked slot is live");
                    let off = 8 * rng.random_range(0u32..m.data_len / 8);
                    let v = rng.random_range(0u64..1 << 32);
                    p.mov(DataRef::Imm(v), DataDst::Field(slot, off));
                }
                None => emit_create(p, rng, model),
            },
            // Read a readable object and fold into the checksum.
            36..52 => match model.pick_slot(rng, |m| m.rights.contains(Rights::READ)) {
                Some(slot) => {
                    let m = model.get(slot).expect("picked slot is live");
                    let off = 8 * rng.random_range(0u32..m.data_len / 8);
                    p.mov(DataRef::Field(slot, off), DataDst::Local(L_TMP));
                    p.alu(
                        AluOp::Xor,
                        DataRef::Local(L_CHK),
                        DataRef::Local(L_TMP),
                        DataDst::Local(L_CHK),
                    );
                }
                None => emit_create(p, rng, model),
            },
            // Store one held AD into a writable container.
            52..62 => {
                let container = model.pick_slot(rng, |m| {
                    m.rights.contains(Rights::WRITE) && m.access_len > 0
                });
                let src = model.pick_slot(rng, |_| true);
                match (container, src) {
                    (Some(c), Some(s)) => {
                        let cm = model.get(c).expect("picked slot is live");
                        let sm = model.get(s).expect("picked slot is live");
                        let idx = rng.random_range(0u32..cm.access_len);
                        p.store_ad(s, c, DataRef::Imm(u64::from(idx)));
                        model.filled.insert((cm.id, idx), sm);
                    }
                    _ => emit_create(p, rng, model),
                }
            }
            // Load a known-filled AD back into a work slot.
            62..70 => match model.pick_load(rng) {
                Some((c, idx, stored)) => {
                    let dst = S_WORK0 + rng.random_range(0u16..N_WORK);
                    p.load_ad(c, DataRef::Imm(u64::from(idx)), dst);
                    model.set(dst, Some(stored));
                }
                None => emit_create(p, rng, model),
            },
            // Restrict a copy and store the weakened AD somewhere: the
            // digest is sensitive to edge rights, so this is the case
            // that catches a runner dropping or widening a restriction.
            70..78 => {
                let src = model.pick_slot(rng, |_| true);
                let container = model.pick_slot(rng, |m| {
                    m.rights.contains(Rights::WRITE) && m.access_len > 0
                });
                match (src, container) {
                    (Some(s), Some(c)) => {
                        let sm = model.get(s).expect("picked slot is live");
                        let cm = model.get(c).expect("picked slot is live");
                        let keep = if rng.random_bool(0.5) {
                            Rights::READ
                        } else {
                            Rights::READ | Rights::WRITE
                        };
                        let idx = rng.random_range(0u32..cm.access_len);
                        p.move_ad(s, S_SCRATCH);
                        p.restrict(S_SCRATCH, keep);
                        p.store_ad(S_SCRATCH, c, DataRef::Imm(u64::from(idx)));
                        model.filled.insert(
                            (cm.id, idx),
                            ObjModel {
                                rights: sm.rights.restrict(keep),
                                ..sm
                            },
                        );
                    }
                    _ => emit_create(p, rng, model),
                }
            }
            // Null the scratch slot.
            78..84 => {
                p.null_ad(S_SCRATCH);
            }
            // Inspect an AD whose word is deterministic and fold it in.
            84..90 => {
                let mut candidates = vec![S_OUT, S_SHARED, S_DEEP];
                if let Some(s) = model.pick_slot(rng, |_| true) {
                    candidates.push(s);
                }
                let slot = candidates[rng.random_range(0usize..candidates.len())];
                p.inspect_ad(slot, DataDst::Local(L_TMP));
                p.alu(
                    AluOp::Add,
                    DataRef::Local(L_CHK),
                    DataRef::Local(L_TMP),
                    DataDst::Local(L_CHK),
                );
            }
            // Pure ALU fold.
            90..96 => {
                let op = FOLD_OPS[rng.random_range(0usize..FOLD_OPS.len())];
                let v = rng.random_range(1u64..1 << 16);
                p.alu(
                    op,
                    DataRef::Local(L_CHK),
                    DataRef::Imm(v),
                    DataDst::Local(L_CHK),
                );
            }
            // Burn cycles (perturbs interleaving, not state).
            _ => {
                p.work(rng.random_range(10u32..200));
            }
        }
    }
}

/// Emits exactly one deliberately-faulting instruction. Returns the
/// fault's name. Falls back to an explicit fault when the model has no
/// object shaped for the drawn variant.
fn emit_fault(p: &mut ProgramBuilder, rng: &mut StdRng, model: &mut Model) -> &'static str {
    match rng.random_range(0u32..7) {
        // Data write one word past the end.
        0 => {
            if let Some(slot) = model.pick_slot(rng, |m| m.rights.contains(Rights::WRITE)) {
                let m = model.get(slot).expect("picked slot is live");
                p.mov(DataRef::Imm(1), DataDst::Field(slot, m.data_len));
                return "bounds";
            }
            p.raise_fault(901);
            "explicit-fallback"
        }
        // Write through a read-only restriction.
        1 => {
            if let Some(slot) = model.pick_slot(rng, |_| true) {
                p.move_ad(slot, S_SCRATCH);
                p.restrict(S_SCRATCH, Rights::READ);
                p.mov(DataRef::Imm(1), DataDst::Field(S_SCRATCH, 0));
                return "rights";
            }
            p.raise_fault(902);
            "explicit-fallback"
        }
        // Store a short-lived AD into a long-lived container.
        2 => {
            if let Some(c) = model.pick_slot(rng, |m| {
                m.rights.contains(Rights::WRITE) && m.access_len > 0
            }) {
                p.store_ad(S_DEEP, c, DataRef::Imm(0));
                return "level";
            }
            p.raise_fault(903);
            "explicit-fallback"
        }
        // Read through the never-written slot.
        3 => {
            p.mov(DataRef::Field(S_NULL, 0), DataDst::Local(L_TMP));
            "null-access"
        }
        // Divide by zero.
        4 => {
            p.alu(
                AluOp::Div,
                DataRef::Local(L_CHK),
                DataRef::Imm(0),
                DataDst::Local(L_TMP),
            );
            "divide-by-zero"
        }
        // Software-raised fault with a seeded code.
        5 => {
            p.raise_fault(1 + rng.random_range(0u16..100));
            "explicit"
        }
        // Exhaust the tight SRO's object-table quota: exactly
        // TIGHT_QUOTA zero-size creates succeed (parked in the work
        // slots so the objects stay context-reachable and no collector
        // can perturb the SRO's live count mid-run), then one more
        // trips the ceiling. Schedule- and shard-independent: the quota
        // is per-SRO, not a property of the global table.
        _ => {
            for i in 0..TIGHT_QUOTA {
                let slot = S_WORK0 + (i as u16 % N_WORK);
                p.create_object(S_TIGHT, DataRef::Imm(0), DataRef::Imm(0), slot);
                let id = model.fresh_id();
                model.set(
                    slot,
                    Some(ObjModel {
                        id,
                        data_len: 0,
                        access_len: 0,
                        rights: Rights::ALL,
                    }),
                );
            }
            p.create_object(S_TIGHT, DataRef::Imm(0), DataRef::Imm(0), S_SCRATCH);
            "table-ceiling"
        }
    }
}

/// Emits the token-mutex phase: `rounds` × (receive token, add `delta`
/// to the shared cell, send token back).
fn emit_mutex_rounds(p: &mut ProgramBuilder, rounds: u64, delta: u64) {
    let top = p.new_label();
    p.mov(DataRef::Imm(0), DataDst::Local(L_ROUND));
    p.bind(top);
    p.receive(CTX_SLOT_ARG as u16, S_TOKEN);
    p.mov(DataRef::Field(S_SHARED, 0), DataDst::Local(L_TMP));
    p.alu(
        AluOp::Add,
        DataRef::Local(L_TMP),
        DataRef::Imm(delta),
        DataDst::Local(L_TMP),
    );
    p.mov(DataRef::Local(L_TMP), DataDst::Field(S_SHARED, 0));
    p.send(CTX_SLOT_ARG as u16, S_TOKEN);
    p.alu(
        AluOp::Add,
        DataRef::Local(L_ROUND),
        DataRef::Imm(1),
        DataDst::Local(L_ROUND),
    );
    p.alu(
        AluOp::Lt,
        DataRef::Local(L_ROUND),
        DataRef::Imm(rounds),
        DataDst::Local(L_CMP),
    );
    p.jump_if_nonzero(DataRef::Local(L_CMP), top);
}

/// Emits the publication phase: checksum into the output object's data
/// part, and (when the model holds anything) a read-restricted AD for
/// part of the private graph into the output object's access part — so
/// the oracle's root digest reaches into the graph each process built.
fn emit_publish(p: &mut ProgramBuilder, rng: &mut StdRng, model: &mut Model) {
    p.mov(DataRef::Local(L_CHK), DataDst::Field(S_OUT, 0));
    if let Some(slot) = model.pick_slot(rng, |_| true) {
        let idx = rng.random_range(0u32..OUT_ACCESS);
        p.move_ad(slot, S_SCRATCH);
        p.restrict(S_SCRATCH, Rights::READ);
        p.store_ad(S_SCRATCH, S_OUT, DataRef::Imm(u64::from(idx)));
    }
}

/// Generates the case for `seed`. Pure: the same seed always produces
/// the same [`GenCase`].
pub fn generate(seed: u64) -> GenCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_procs = rng.random_range(2usize..5);
    let rounds = rng.random_range(2u64..7);
    let mut processes = Vec::with_capacity(n_procs);
    for _ in 0..n_procs {
        let mut p = ProgramBuilder::new();
        let mut model = Model::new();
        let n_ops = rng.random_range(16u32..32);
        emit_private_ops(&mut p, &mut rng, &mut model, n_ops);
        let faulty = rng.random_bool(0.25);
        let mut fault_name = None;
        let mut delta = 0;
        if faulty {
            fault_name = Some(emit_fault(&mut p, &mut rng, &mut model));
        } else {
            delta = rng.random_range(1u64..10);
            emit_mutex_rounds(&mut p, rounds, delta);
            emit_publish(&mut p, &mut rng, &mut model);
        }
        p.halt();
        processes.push(GenProcess {
            program: p.finish(),
            faulty,
            fault_name,
            delta,
        });
    }
    GenCase {
        seed,
        processes,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case() {
        for seed in 0..64 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn faulty_processes_carry_no_delta() {
        for seed in 0..64 {
            for p in generate(seed).processes {
                if p.faulty {
                    assert_eq!(p.delta, 0);
                    assert!(p.fault_name.is_some());
                } else {
                    assert!(p.delta > 0);
                }
            }
        }
    }
}
