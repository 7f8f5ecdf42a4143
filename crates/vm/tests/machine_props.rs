//! Property tests of the machine itself: ALU semantics against Rust's
//! reference arithmetic, stack discipline, flag/branch coherence and
//! memory roundtrips.
//
// Gated behind the non-default `proptest-tests` feature: the default
// workspace must build with zero network access, and `proptest` is a
// registry dependency. Enable with `--features proptest-tests` after
// restoring `proptest` to [dev-dependencies].
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;

use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::Perm;
use swsec_vm::prelude::*;

const TEXT: u32 = 0x1000;
const STACK_TOP: u32 = 0x9_0000;

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

fn alu_strategy() -> impl Strategy<Value = AluOp> {
    prop::sample::select(vec![
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
    ])
}

proptest! {
    #[test]
    fn alu_matches_reference_semantics(op in alu_strategy(), a in any::<u32>(), b in any::<u32>()) {
        let (outcome, _) = run_program(&[
            Instr::MovI { dst: Reg::R0, imm: a },
            Instr::MovI { dst: Reg::R1, imm: b },
            Instr::Alu { op, dst: Reg::R0, src: Reg::R1 },
            Instr::Sys(sys::EXIT),
        ]);
        match reference_alu(op, a, b) {
            Some(expected) => prop_assert_eq!(outcome, RunOutcome::Halted(expected)),
            None => {
                let div_fault =
                    matches!(outcome, RunOutcome::Fault(Fault::DivideByZero { .. }));
                prop_assert!(div_fault, "expected divide fault, got {:?}", outcome);
            }
        }
    }

    #[test]
    fn push_pop_is_identity(values in prop::collection::vec(any::<u32>(), 1..16)) {
        // Push all values, pop them back in reverse, xor-accumulate both
        // ways; the machine must agree with the model.
        let mut instrs = Vec::new();
        for &v in &values {
            instrs.push(Instr::PushI(v));
        }
        instrs.push(Instr::MovI { dst: Reg::R0, imm: 0 });
        for _ in &values {
            instrs.push(Instr::Pop(Reg::R1));
            instrs.push(Instr::Alu { op: AluOp::Xor, dst: Reg::R0, src: Reg::R1 });
        }
        instrs.push(Instr::Sys(sys::EXIT));
        let expected = values.iter().fold(0u32, |acc, v| acc ^ v);
        let (outcome, _) = run_program(&instrs);
        prop_assert_eq!(outcome, RunOutcome::Halted(expected));
    }

    #[test]
    fn branches_agree_with_comparison_semantics(a in any::<u32>(), b in any::<u32>()) {
        let cases: Vec<(Cond, bool)> = vec![
            (Cond::Z, a == b),
            (Cond::Nz, a != b),
            (Cond::Lt, (a as i32) < (b as i32)),
            (Cond::Ge, (a as i32) >= (b as i32)),
            (Cond::Le, (a as i32) <= (b as i32)),
            (Cond::Gt, (a as i32) > (b as i32)),
            (Cond::B, a < b),
            (Cond::Ae, a >= b),
        ];
        for (cond, expected) in cases {
            // taken -> exit 1, not taken -> exit 0.
            // Layout: movi(6) movi(6) cmp(2) jcc(5) movi(6) sys(2) [taken: movi(6) sys(2)]
            let taken_target = TEXT + 6 + 6 + 2 + 5 + 6 + 2;
            let (outcome, _) = run_program(&[
                Instr::MovI { dst: Reg::R0, imm: a },
                Instr::MovI { dst: Reg::R1, imm: b },
                Instr::Cmp { a: Reg::R0, b: Reg::R1 },
                Instr::JCond { cond, target: taken_target },
                Instr::MovI { dst: Reg::R0, imm: 0 },
                Instr::Sys(sys::EXIT),
                Instr::MovI { dst: Reg::R0, imm: 1 },
                Instr::Sys(sys::EXIT),
            ]);
            prop_assert_eq!(
                outcome,
                RunOutcome::Halted(u32::from(expected)),
                "cond {:?} a {} b {}", cond, a, b
            );
        }
    }

    #[test]
    fn memory_word_roundtrip_at_any_offset(
        value in any::<u32>(),
        offset in 0u32..4000,
    ) {
        let base = STACK_TOP - 0x1000;
        let (outcome, _) = run_program(&[
            Instr::MovI { dst: Reg::R1, imm: base + offset },
            Instr::MovI { dst: Reg::R0, imm: value },
            Instr::Store { base: Reg::R1, disp: 0, src: Reg::R0 },
            Instr::MovI { dst: Reg::R0, imm: 0 },
            Instr::Load { dst: Reg::R0, base: Reg::R1, disp: 0 },
            Instr::Sys(sys::EXIT),
        ]);
        prop_assert_eq!(outcome, RunOutcome::Halted(value));
    }

    #[test]
    fn byte_stores_only_touch_one_byte(value in any::<u32>(), junk in any::<u32>()) {
        let base = STACK_TOP - 0x1000;
        let (outcome, _) = run_program(&[
            Instr::MovI { dst: Reg::R1, imm: base },
            Instr::MovI { dst: Reg::R0, imm: junk },
            Instr::Store { base: Reg::R1, disp: 0, src: Reg::R0 },
            Instr::MovI { dst: Reg::R0, imm: value },
            Instr::StoreB { base: Reg::R1, disp: 0, src: Reg::R0 },
            Instr::Load { dst: Reg::R0, base: Reg::R1, disp: 0 },
            Instr::Sys(sys::EXIT),
        ]);
        let expected = (junk & 0xffff_ff00) | (value & 0xff);
        prop_assert_eq!(outcome, RunOutcome::Halted(expected));
    }

    #[test]
    fn call_ret_preserves_control_flow(depth in 1usize..12) {
        // A chain of `depth` nested calls, each adding 1, then returns
        // all the way back.
        // f_i: call f_{i+1}; addi r0, 1; ret     f_last: movi r0, 0; ret
        let call_len = 5 + 6 + 1; // call + addi + ret
        let mut instrs = Vec::new();
        // main: call f0; sys exit  (5 + 2 bytes)
        instrs.push(Instr::Call(TEXT + 7));
        instrs.push(Instr::Sys(sys::EXIT));
        for i in 0..depth {
            let next = TEXT + 7 + ((i + 1) * call_len) as u32;
            instrs.push(Instr::Call(next));
            instrs.push(Instr::AddI { dst: Reg::R0, imm: 1 });
            instrs.push(Instr::Ret);
        }
        instrs.push(Instr::MovI { dst: Reg::R0, imm: 0 });
        instrs.push(Instr::Ret);
        let (outcome, m) = run_program(&instrs);
        prop_assert_eq!(outcome, RunOutcome::Halted(depth as u32));
        prop_assert_eq!(m.stats().calls, depth as u64 + 1);
        prop_assert_eq!(m.stats().rets, depth as u64 + 1);
    }
}
