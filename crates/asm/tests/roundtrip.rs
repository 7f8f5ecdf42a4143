//! Properties: the `Display` form of every instruction is valid
//! assembler syntax that re-assembles to the identical encoding — so
//! disassembly listings are always round-trippable, and the two syntax
//! definitions (printer and parser) can never drift apart — and that
//! encoding decodes back to the same instructions. Alongside, the
//! disassembler's linear sweep over arbitrary bytes accounts for every
//! byte.
//!
//! Cases are drawn from a seeded `swsec-rng` stream: every `Instr`
//! variant, displacements biased toward the `i16` boundaries, full-range
//! `u32` immediates, 1–24 instructions per case, plus 0–200 random bytes
//! per case from a second stream.

use swsec_rng::{stream, Rng};
use swsec_vm::isa::{AluOp, Cond, Instr, Reg, ALL_REGS, MAX_INSTR_LEN};

const CASES: u64 = 2_000;
const SEED: u64 = 0xA55E_4B1E;

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

const CONDS: [Cond; 8] = [
    Cond::Z,
    Cond::Nz,
    Cond::Lt,
    Cond::Ge,
    Cond::Le,
    Cond::Gt,
    Cond::B,
    Cond::Ae,
];

/// Number of `Instr` variants [`instr`] draws from.
const VARIANTS: u64 = 26;

fn pick<T: Copy>(rng: &mut impl Rng, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

fn reg(rng: &mut impl Rng) -> Reg {
    pick(rng, &ALL_REGS)
}

/// A displacement: half the time one of the `i16` edges, otherwise any.
fn disp(rng: &mut impl Rng) -> i16 {
    if rng.gen_bool() {
        pick(
            rng,
            &[i16::MIN, i16::MIN + 1, -1, 0, 1, i16::MAX - 1, i16::MAX],
        )
    } else {
        rng.next_u32() as i16
    }
}

/// An immediate: the `u32` edges or any value.
fn imm(rng: &mut impl Rng) -> u32 {
    if rng.gen_range(4) == 0 {
        pick(rng, &[0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX])
    } else {
        rng.next_u32()
    }
}

fn instr(rng: &mut impl Rng, variant: u64) -> Instr {
    match variant {
        0 => Instr::Nop,
        1 => Instr::Halt,
        2 => Instr::Ret,
        3 => Instr::Leave,
        4 => Instr::MovI {
            dst: reg(rng),
            imm: imm(rng),
        },
        5 => Instr::Mov {
            dst: reg(rng),
            src: reg(rng),
        },
        6 => Instr::Load {
            dst: reg(rng),
            base: reg(rng),
            disp: disp(rng),
        },
        7 => Instr::Store {
            base: reg(rng),
            disp: disp(rng),
            src: reg(rng),
        },
        8 => Instr::LoadB {
            dst: reg(rng),
            base: reg(rng),
            disp: disp(rng),
        },
        9 => Instr::StoreB {
            base: reg(rng),
            disp: disp(rng),
            src: reg(rng),
        },
        10 => Instr::Push(reg(rng)),
        11 => Instr::Pop(reg(rng)),
        12 => Instr::PushI(imm(rng)),
        13 => Instr::Alu {
            op: pick(rng, &ALU_OPS),
            dst: reg(rng),
            src: reg(rng),
        },
        14 => Instr::AddI {
            dst: reg(rng),
            imm: imm(rng),
        },
        15 => Instr::Cmp {
            a: reg(rng),
            b: reg(rng),
        },
        16 => Instr::CmpI {
            a: reg(rng),
            imm: imm(rng),
        },
        17 => Instr::Jmp(imm(rng)),
        18 => Instr::JCond {
            cond: pick(rng, &CONDS),
            target: imm(rng),
        },
        19 => Instr::Call(imm(rng)),
        20 => Instr::CallR(reg(rng)),
        21 => Instr::JmpR(reg(rng)),
        22 => Instr::Enter(imm(rng)),
        23 => Instr::Sys(rng.next_u32() as u8),
        24 => Instr::Trap(rng.next_u32() as u8),
        25 => Instr::Lea {
            dst: reg(rng),
            base: reg(rng),
            disp: disp(rng),
        },
        _ => unreachable!("variant out of range"),
    }
}

#[test]
fn display_form_reassembles_to_identical_bytes() {
    let mut rng = stream(SEED, &[1]);
    let mut junk_rng = stream(SEED, &[2]);
    let mut drawn = 0u64;
    for case in 0..CASES {
        let mut instrs = Vec::new();
        let mut expected = Vec::new();
        let mut source = String::new();
        for _ in 0..1 + rng.gen_range(24) {
            // The first draws walk every variant once; the rest are free.
            let variant = if drawn < VARIANTS {
                drawn
            } else {
                rng.gen_range(VARIANTS)
            };
            drawn += 1;
            let i = instr(&mut rng, variant);
            let mut buf = [0; MAX_INSTR_LEN];
            let len = i.encode_into(&mut buf);
            assert_eq!(len, i.len(), "seed {SEED:#x} case {case}: {i}");
            expected.extend_from_slice(&buf[..len]);
            source.push_str(&i.to_string());
            source.push('\n');
            instrs.push(i);
        }
        let assembled = swsec_asm::assemble(&source).unwrap_or_else(|e| {
            panic!("seed {SEED:#x} case {case}: display form failed to assemble:\n{source}\n{e}")
        });
        assert_eq!(
            assembled.bytes, expected,
            "seed {SEED:#x} case {case}, source:\n{source}"
        );

        let mut decoded = Vec::new();
        let mut offset = 0;
        while offset < expected.len() {
            let (i, len) = Instr::decode(&expected[offset..]).unwrap_or_else(|e| {
                panic!("seed {SEED:#x} case {case}: decode failed at {offset}: {e}")
            });
            decoded.push(i);
            offset += len;
        }
        assert_eq!(
            decoded, instrs,
            "seed {SEED:#x} case {case}, source:\n{source}"
        );

        // Linear sweep over arbitrary bytes terminates and accounts for
        // every byte.
        let mut junk = vec![0u8; junk_rng.gen_range(201) as usize];
        junk_rng.fill_bytes(&mut junk);
        let swept: usize = swsec_asm::disassemble(&junk, 0x1000)
            .iter()
            .map(|l| l.len)
            .sum();
        assert_eq!(
            swept,
            junk.len(),
            "seed {SEED:#x} case {case}, bytes {junk:?}"
        );
    }
}
