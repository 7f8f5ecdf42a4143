//! The machine against a model: ALU results against Rust's reference
//! arithmetic, stack discipline, flag/branch coherence, memory
//! roundtrips and call/return nesting — each case run under the
//! baseline, fast-path and tier-2 engines.
//!
//! Operands come from a seeded `swsec-rng` stream, biased toward the
//! edge values in [`EDGES`]; the ALU and branch properties walk every
//! pair of edge values first. A seeded case `n` draws from
//! `stream(SEED, &[n])`, so a failure's seed and case index replay it
//! alone. These straight-line programs never get hot enough for tier 2
//! to compile a block: under `Engine::Tier2` they check the tier's
//! interpreter fallback, not its blocks.

use swsec_rng::{stream, Rng};
use swsec_vm::context::scope;
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::Perm;
use swsec_vm::prelude::*;
use swsec_vm::{Engine, VmConfig};

const TEXT: u32 = 0x1000;
const STACK_TOP: u32 = 0x9_0000;
const SEED: u64 = 0x5E4A_0001;
/// Seeded cases per property, on top of any exhaustive edge grid.
const CASES: u64 = 256;

const ENGINES: [Engine; 3] = [Engine::Baseline, Engine::Fast, Engine::Tier2];

/// Operand values where shifts wrap, signs flip and division traps.
const EDGES: [u32; 12] = [
    0,
    1,
    2,
    31,
    32,
    33,
    0xff,
    i32::MAX as u32,
    i32::MIN as u32,
    i32::MIN as u32 + 1,
    u32::MAX - 1,
    u32::MAX,
];

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::DivU,
    AluOp::DivS,
    AluOp::ModU,
    AluOp::ModS,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
];

/// An operand: half the time an edge value, otherwise any `u32`.
fn operand(rng: &mut impl Rng) -> u32 {
    if rng.gen_bool() {
        EDGES[rng.gen_range(EDGES.len() as u64) as usize]
    } else {
        rng.next_u32()
    }
}

/// Every pair of edge values, then [`CASES`] seeded operand pairs,
/// each with its case index.
fn operand_pairs() -> impl Iterator<Item = (u64, u32, u32)> {
    let grid = EDGES
        .iter()
        .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)));
    let grid_len = (EDGES.len() * EDGES.len()) as u64;
    let seeded = (grid_len..grid_len + CASES).map(|case| {
        let mut rng = stream(SEED, &[case]);
        (operand(&mut rng), operand(&mut rng))
    });
    (0..)
        .zip(grid.chain(seeded))
        .map(|(case, (a, b))| (case, a, b))
}

fn movi(dst: Reg, imm: u32) -> Instr {
    Instr::MovI { dst, imm }
}

fn run_program(instrs: &[Instr]) -> (RunOutcome, Machine) {
    let mut bytes = Vec::new();
    for i in instrs {
        i.encode(&mut bytes);
    }
    let mut m = Machine::new();
    m.mem_mut().map(TEXT, 0x2000, Perm::RX).unwrap();
    m.mem_mut().poke_bytes(TEXT, &bytes).unwrap();
    m.mem_mut()
        .map(STACK_TOP - 0x1000, 0x1000, Perm::RW)
        .unwrap();
    m.set_reg(Reg::Sp, STACK_TOP - 16);
    m.set_ip(TEXT);
    let outcome = m.run(10_000);
    (outcome, m)
}

/// Runs `instrs` on a fresh machine under each engine.
fn run_on_every_engine(
    instrs: &[Instr],
) -> impl Iterator<Item = (Engine, RunOutcome, Machine)> + '_ {
    ENGINES.into_iter().map(move |engine| {
        let cfg = VmConfig { engine, sink: None };
        let ((outcome, m), _) = scope(&cfg, None, || run_program(instrs));
        (engine, outcome, m)
    })
}

fn reference_alu(op: AluOp, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::DivU => {
            if b == 0 {
                return None;
            }
            a / b
        }
        AluOp::DivS => {
            if b == 0 {
                return None;
            }
            (a as i32).wrapping_div(b as i32) as u32
        }
        AluOp::ModU => {
            if b == 0 {
                return None;
            }
            a % b
        }
        AluOp::ModS => {
            if b == 0 {
                return None;
            }
            (a as i32).wrapping_rem(b as i32) as u32
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b),
        AluOp::Shr => a.wrapping_shr(b),
        AluOp::Sar => ((a as i32).wrapping_shr(b)) as u32,
    })
}

#[test]
fn alu_matches_reference_semantics() {
    for (case, a, b) in operand_pairs() {
        for op in ALU_OPS {
            let prog = [
                movi(Reg::R0, a),
                movi(Reg::R1, b),
                Instr::Alu {
                    op,
                    dst: Reg::R0,
                    src: Reg::R1,
                },
                Instr::Sys(sys::EXIT),
            ];
            let expected = reference_alu(op, a, b);
            for (engine, outcome, _) in run_on_every_engine(&prog) {
                let agrees = match expected {
                    Some(v) => outcome == RunOutcome::Halted(v),
                    None => matches!(outcome, RunOutcome::Fault(Fault::DivideByZero { .. })),
                };
                assert!(
                    agrees,
                    "seed {SEED:#x} case {case}: {op:?} {a:#x} {b:#x} on {engine:?} \
                     gave {outcome:?}, reference {expected:?}"
                );
            }
        }
    }
}

#[test]
fn push_pop_is_identity() {
    // Push all values, pop them back in reverse, xor-accumulate both
    // ways; the machine must agree with the model.
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        let values: Vec<u32> = (0..1 + rng.gen_range(15))
            .map(|_| operand(&mut rng))
            .collect();
        let mut prog: Vec<Instr> = values.iter().map(|&v| Instr::PushI(v)).collect();
        prog.push(movi(Reg::R0, 0));
        for _ in &values {
            prog.push(Instr::Pop(Reg::R1));
            prog.push(Instr::Alu {
                op: AluOp::Xor,
                dst: Reg::R0,
                src: Reg::R1,
            });
        }
        prog.push(Instr::Sys(sys::EXIT));
        let expected = values.iter().fold(0u32, |acc, v| acc ^ v);
        for (engine, outcome, _) in run_on_every_engine(&prog) {
            assert_eq!(
                outcome,
                RunOutcome::Halted(expected),
                "seed {SEED:#x} case {case}: values {values:#x?} on {engine:?}"
            );
        }
    }
}

#[test]
fn branches_agree_with_comparison_semantics() {
    for (case, a, b) in operand_pairs() {
        let conds = [
            (Cond::Z, a == b),
            (Cond::Nz, a != b),
            (Cond::Lt, (a as i32) < (b as i32)),
            (Cond::Ge, (a as i32) >= (b as i32)),
            (Cond::Le, (a as i32) <= (b as i32)),
            (Cond::Gt, (a as i32) > (b as i32)),
            (Cond::B, a < b),
            (Cond::Ae, a >= b),
        ];
        for (cond, taken) in conds {
            // taken -> exit 1, not taken -> exit 0.
            // Layout: movi(6) movi(6) cmp(2) jcc(5) movi(6) sys(2) [taken: movi(6) sys(2)]
            let prog = [
                movi(Reg::R0, a),
                movi(Reg::R1, b),
                Instr::Cmp {
                    a: Reg::R0,
                    b: Reg::R1,
                },
                Instr::JCond {
                    cond,
                    target: TEXT + 6 + 6 + 2 + 5 + 6 + 2,
                },
                movi(Reg::R0, 0),
                Instr::Sys(sys::EXIT),
                movi(Reg::R0, 1),
                Instr::Sys(sys::EXIT),
            ];
            for (engine, outcome, _) in run_on_every_engine(&prog) {
                assert_eq!(
                    outcome,
                    RunOutcome::Halted(u32::from(taken)),
                    "seed {SEED:#x} case {case}: {cond:?} {a:#x} {b:#x} on {engine:?}"
                );
            }
        }
    }
}

#[test]
fn memory_word_roundtrip_at_any_offset() {
    let base = STACK_TOP - 0x1000;
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        let (value, offset) = (operand(&mut rng), rng.gen_range(4000) as u32);
        let prog = [
            movi(Reg::R1, base + offset),
            movi(Reg::R0, value),
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R0,
            },
            movi(Reg::R0, 0),
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
            Instr::Sys(sys::EXIT),
        ];
        for (engine, outcome, _) in run_on_every_engine(&prog) {
            assert_eq!(
                outcome,
                RunOutcome::Halted(value),
                "seed {SEED:#x} case {case}: value {value:#x} offset {offset} on {engine:?}"
            );
        }
    }
}

#[test]
fn byte_stores_only_touch_one_byte() {
    let base = STACK_TOP - 0x1000;
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        let (value, junk) = (operand(&mut rng), operand(&mut rng));
        let prog = [
            movi(Reg::R1, base),
            movi(Reg::R0, junk),
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R0,
            },
            movi(Reg::R0, value),
            Instr::StoreB {
                base: Reg::R1,
                disp: 0,
                src: Reg::R0,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
            Instr::Sys(sys::EXIT),
        ];
        let expected = (junk & 0xffff_ff00) | (value & 0xff);
        for (engine, outcome, _) in run_on_every_engine(&prog) {
            assert_eq!(
                outcome,
                RunOutcome::Halted(expected),
                "seed {SEED:#x} case {case}: value {value:#x} over {junk:#x} on {engine:?}"
            );
        }
    }
}

#[test]
fn call_ret_preserves_control_flow() {
    // A chain of `depth` nested calls, each adding 1, then returns all
    // the way back; every depth the old property drew from is walked.
    //   main: call f0; sys exit            (5 + 2 bytes)
    //   f_i:  call f_{i+1}; addi r0, 1; ret
    //   f_last: movi r0, 0; ret
    let call_len = 5 + 6 + 1;
    for depth in 1..12usize {
        let mut prog = vec![Instr::Call(TEXT + 7), Instr::Sys(sys::EXIT)];
        for i in 0..depth {
            prog.push(Instr::Call(TEXT + 7 + ((i + 1) * call_len) as u32));
            prog.push(Instr::AddI {
                dst: Reg::R0,
                imm: 1,
            });
            prog.push(Instr::Ret);
        }
        prog.push(movi(Reg::R0, 0));
        prog.push(Instr::Ret);
        for (engine, outcome, m) in run_on_every_engine(&prog) {
            let what = format!("depth {depth} on {engine:?}");
            assert_eq!(outcome, RunOutcome::Halted(depth as u32), "{what}");
            assert_eq!(m.stats().calls, depth as u64 + 1, "{what}");
            assert_eq!(m.stats().rets, depth as u64 + 1, "{what}");
        }
    }
}
