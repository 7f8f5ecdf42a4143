//! The machine against a model: ALU results against Rust's reference
//! arithmetic, stack discipline, flag/branch coherence, memory
//! roundtrips and call/return nesting — each case run under the
//! baseline, fast-path and tier-2 engines.
//!
//! Operands come from a seeded `swsec-rng` stream, biased toward the
//! edge values in [`EDGES`]; the ALU and branch properties walk every
//! pair of edge values first. A seeded case `n` draws from
//! `stream(SEED, &[n])`, so a failure's seed and case index replay it
//! alone. The straight-line properties never get hot enough for tier 2
//! to compile a block: under `Engine::Tier2` they check the tier's
//! interpreter fallback. The `hot_` properties run the same cases
//! inside a counted loop that crosses `HOT_THRESHOLD`, so tier 2
//! executes them in a compiled block, and compare every engine's final
//! architectural state against the baseline's.

use swsec_rng::{stream, Rng};
use swsec_vm::context::scope;
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::Perm;
use swsec_vm::prelude::*;
use swsec_vm::tier::HOT_THRESHOLD;
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

/// Trips of the counted loop in [`hot_loop`]: twice the promotion
/// threshold, so the loop head compiles into a block half-way through
/// and the remaining trips, and the code after the loop, run in it.
const TRIPS: u32 = 2 * HOT_THRESHOLD;

/// Where a hot case's body runs relative to the counted loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Placement {
    /// Once, on the loop's exit path. The loop's block runs straight
    /// into it, so even a body that faults first faults inside a block.
    AfterLoop,
    /// On every trip, and once more after the loop.
    InLoop,
}

fn encoded_len(instrs: &[Instr]) -> u32 {
    let mut bytes = Vec::new();
    for i in instrs {
        i.encode(&mut bytes);
    }
    bytes.len() as u32
}

/// `setup`, then a counted loop over `r7` ([`TRIPS`] trips) with
/// `body` at the placement's position(s), then `sys exit`. `body` may
/// not touch `r7`.
fn hot_loop(setup: &[Instr], body: &[Instr], placement: Placement) -> Vec<Instr> {
    let mut prog = setup.to_vec();
    prog.push(movi(Reg::R7, TRIPS));
    let head = TEXT + encoded_len(&prog);
    if placement == Placement::InLoop {
        prog.extend_from_slice(body);
    }
    prog.extend([
        Instr::AddI {
            dst: Reg::R7,
            imm: u32::MAX,
        },
        Instr::CmpI { a: Reg::R7, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: head,
        },
    ]);
    prog.extend_from_slice(body);
    prog.push(Instr::Sys(sys::EXIT));
    prog
}

/// Runs `body` in a hot loop at both placements under every engine and
/// checks that the fast and tier-2 engines leave exactly the baseline's
/// outcome and architectural state, and that tier 2 really served the
/// case from a block.
fn check_hot(what: &str, setup: &[Instr], body: &[Instr]) {
    for placement in [Placement::AfterLoop, Placement::InLoop] {
        let prog = hot_loop(setup, body, placement);
        let mut runs = run_on_every_engine(&prog);
        let (_, want, base) = runs.next().expect("baseline run");
        for (engine, outcome, m) in runs {
            let at = format!("{what} ({placement:?}) on {engine:?}");
            assert_eq!(outcome, want, "{at}: outcome");
            let diff = ArchState::of(&m).diff(ArchState::of(&base));
            assert_eq!(diff, None, "{at}");
            // An in-loop body that faults on its first trip never gets hot.
            let first_trip_fault = placement == Placement::InLoop && want.fault().is_some();
            if engine == Engine::Tier2 && !first_trip_fault {
                assert!(m.stats().tier2_instructions > 0, "{at}: no block ran");
            }
        }
    }
}

#[test]
fn hot_alu_matches_the_baseline_in_blocks() {
    for (case, a, b) in operand_pairs() {
        for op in ALU_OPS {
            let setup = [movi(Reg::R2, a), movi(Reg::R3, b)];
            let body = [
                Instr::Mov {
                    dst: Reg::R0,
                    src: Reg::R2,
                },
                Instr::Mov {
                    dst: Reg::R1,
                    src: Reg::R3,
                },
                Instr::Alu {
                    op,
                    dst: Reg::R0,
                    src: Reg::R1,
                },
                Instr::Cmp {
                    a: Reg::R0,
                    b: Reg::R3,
                },
            ];
            let what = format!("seed {SEED:#x} case {case}: {op:?} {a:#x} {b:#x}");
            check_hot(&what, &setup, &body);
        }
    }
}

#[test]
fn hot_push_pop_matches_the_baseline_in_blocks() {
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        let values: Vec<u32> = (0..1 + rng.gen_range(8))
            .map(|_| operand(&mut rng))
            .collect();
        let mut body: Vec<Instr> = values.iter().map(|&v| Instr::PushI(v)).collect();
        body.push(movi(Reg::R0, 0));
        for _ in &values {
            body.push(Instr::Pop(Reg::R1));
            body.push(Instr::Alu {
                op: AluOp::Xor,
                dst: Reg::R0,
                src: Reg::R1,
            });
        }
        body.push(Instr::Push(Reg::R0));
        body.push(Instr::Pop(Reg::R2));
        let what = format!("seed {SEED:#x} case {case}: values {values:#x?}");
        check_hot(&what, &[], &body);
    }
}

/// A load or store address `disp` bytes off a base register: anywhere
/// in the stack page, or a few bytes past either end of it, where
/// words straddle into unmapped memory and fault.
fn data_address(rng: &mut impl Rng) -> (u32, i16) {
    let page = STACK_TOP - 0x1000;
    let addr = page - 8 + rng.gen_range(0x1000 + 16) as u32;
    let disp = rng.gen_range(256) as i16 - 128;
    (addr.wrapping_sub(disp as i32 as u32), disp)
}

#[test]
fn hot_loads_and_stores_match_the_baseline_in_blocks() {
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        let (base, disp) = data_address(&mut rng);
        let (value, junk) = (operand(&mut rng), operand(&mut rng));
        let setup = [
            movi(Reg::R1, base),
            movi(Reg::R2, value),
            movi(Reg::R3, junk),
        ];
        let body = [
            Instr::Store {
                base: Reg::R1,
                disp,
                src: Reg::R3,
            },
            Instr::StoreB {
                base: Reg::R1,
                disp,
                src: Reg::R2,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp,
            },
            Instr::LoadB {
                dst: Reg::R4,
                base: Reg::R1,
                disp,
            },
            Instr::Lea {
                dst: Reg::R5,
                base: Reg::R1,
                disp,
            },
        ];
        let what =
            format!("seed {SEED:#x} case {case}: {value:#x} over {junk:#x} at {base:#x}{disp:+}");
        check_hot(&what, &setup, &body);
    }
}

#[test]
fn hot_enter_leave_matches_the_baseline_in_blocks() {
    for case in 0..CASES {
        let mut rng = stream(SEED, &[case]);
        // Mostly frames that fit the stack page; some run off its end,
        // so the local store below the frame faults.
        let frame = if rng.gen_range(8) == 0 {
            0x1000 + rng.gen_range(64) as u32
        } else {
            rng.gen_range(0x400) as u32 & !3
        };
        let (value, bp) = (operand(&mut rng), STACK_TOP - 0x800);
        let setup = [movi(Reg::Bp, bp), movi(Reg::R2, value)];
        let body = [
            Instr::Enter(frame),
            Instr::Store {
                base: Reg::Sp,
                disp: 0,
                src: Reg::R2,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::Bp,
                disp: 0,
            },
            Instr::Leave,
        ];
        let what = format!("seed {SEED:#x} case {case}: frame {frame:#x} value {value:#x}");
        check_hot(&what, &setup, &body);
    }
}
