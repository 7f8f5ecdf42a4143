//! Instruction set architecture of the swsec virtual machine.
//!
//! The ISA is deliberately shaped like a classic 32-bit CISC target
//! (x86-32 in spirit): little-endian, variable-length instructions
//! between 1 and 6 bytes, a downward-growing call stack, and `call`/
//! `ret` instructions that push and pop return addresses on that same
//! data stack. Those four properties are exactly what the low-level
//! attacks of Piessens & Verbauwhede (DATE 2016) rely on, so they are
//! modelled faithfully:
//!
//! * a unified address space lets buffer overflows reach saved return
//!   addresses and even code;
//! * variable-length encoding means jumping into the *middle* of an
//!   instruction stream yields a different, possibly useful, instruction
//!   sequence — the raw material of ROP gadget discovery;
//! * `ret` transfers control to whatever word the stack pointer names.
//!
//! # Examples
//!
//! ```
//! use swsec_vm::isa::{Instr, Reg};
//!
//! let instr = Instr::MovI { dst: Reg::R0, imm: 0xdead_beef };
//! let mut bytes = Vec::new();
//! instr.encode(&mut bytes);
//! let (decoded, len) = Instr::decode(&bytes)?;
//! assert_eq!(decoded, instr);
//! assert_eq!(len, bytes.len());
//! # Ok::<(), swsec_vm::isa::DecodeError>(())
//! ```

use std::fmt;

/// Maximum encoded length of any instruction, in bytes.
pub const MAX_INSTR_LEN: usize = 6;

/// A general-purpose or stack-management register.
///
/// `Sp` is the stack pointer and `Bp` the base (frame) pointer, mirroring
/// the `%esp`/`%ebp` pair in the paper's Figure 1. The instruction
/// pointer is not directly addressable; it changes only through control
/// transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Reg {
    /// General-purpose register 0 (also the syscall/return-value register).
    R0 = 0,
    /// General-purpose register 1.
    R1 = 1,
    /// General-purpose register 2.
    R2 = 2,
    /// General-purpose register 3.
    R3 = 3,
    /// General-purpose register 4.
    R4 = 4,
    /// General-purpose register 5.
    R5 = 5,
    /// General-purpose register 6.
    R6 = 6,
    /// General-purpose register 7.
    R7 = 7,
    /// Stack pointer; grows towards lower addresses.
    Sp = 8,
    /// Base (frame) pointer for the current activation record.
    Bp = 9,
}

/// Number of addressable registers.
pub const NUM_REGS: usize = 10;

/// All addressable registers, in encoding order.
pub const ALL_REGS: [Reg; NUM_REGS] = [
    Reg::R0,
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::Sp,
    Reg::Bp,
];

impl Reg {
    /// Decodes a 4-bit register id.
    ///
    /// Returns `None` for ids outside the register file.
    pub fn from_u4(id: u8) -> Option<Reg> {
        ALL_REGS.get(usize::from(id)).copied()
    }

    /// The register-file index of this register.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The assembler name of this register (`"r0"`, …, `"sp"`, `"bp"`).
    pub fn name(self) -> &'static str {
        match self {
            Reg::R0 => "r0",
            Reg::R1 => "r1",
            Reg::R2 => "r2",
            Reg::R3 => "r3",
            Reg::R4 => "r4",
            Reg::R5 => "r5",
            Reg::R6 => "r6",
            Reg::R7 => "r7",
            Reg::Sp => "sp",
            Reg::Bp => "bp",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary arithmetic/logic operation performed between two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Faults on a zero divisor.
    DivU,
    /// Signed division, truncating toward zero. Faults on a zero divisor;
    /// `i32::MIN / -1` wraps to `i32::MIN`.
    DivS,
    /// Unsigned remainder. Faults on a zero divisor.
    ModU,
    /// Signed remainder. Faults on a zero divisor; `i32::MIN % -1` is `0`.
    ModS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical left shift (shift amount taken modulo 32).
    Shl,
    /// Logical right shift (shift amount taken modulo 32).
    Shr,
    /// Arithmetic right shift (shift amount taken modulo 32).
    Sar,
}

impl AluOp {
    fn opcode(self) -> u8 {
        match self {
            AluOp::Add => opcode::ADD,
            AluOp::Sub => opcode::SUB,
            AluOp::Mul => opcode::MUL,
            AluOp::DivU => opcode::DIVU,
            AluOp::DivS => opcode::DIVS,
            AluOp::ModU => opcode::MODU,
            AluOp::ModS => opcode::MODS,
            AluOp::And => opcode::AND,
            AluOp::Or => opcode::OR,
            AluOp::Xor => opcode::XOR,
            AluOp::Shl => opcode::SHL,
            AluOp::Shr => opcode::SHR,
            AluOp::Sar => opcode::SAR,
        }
    }

    /// The assembler mnemonic of this operation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::DivU => "divu",
            AluOp::DivS => "divs",
            AluOp::ModU => "modu",
            AluOp::ModS => "mods",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
        }
    }
}

/// Condition tested by a conditional jump, relative to the most recent
/// `cmp a, b` (or `cmpi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`.
    Z,
    /// `a != b`.
    Nz,
    /// `a < b`, signed.
    Lt,
    /// `a >= b`, signed.
    Ge,
    /// `a <= b`, signed.
    Le,
    /// `a > b`, signed.
    Gt,
    /// `a < b`, unsigned ("below").
    B,
    /// `a >= b`, unsigned ("above or equal").
    Ae,
}

impl Cond {
    fn opcode(self) -> u8 {
        match self {
            Cond::Z => opcode::JZ,
            Cond::Nz => opcode::JNZ,
            Cond::Lt => opcode::JLT,
            Cond::Ge => opcode::JGE,
            Cond::Le => opcode::JLE,
            Cond::Gt => opcode::JGT,
            Cond::B => opcode::JB,
            Cond::Ae => opcode::JAE,
        }
    }

    /// The assembler mnemonic (`"jz"`, `"jnz"`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Z => "jz",
            Cond::Nz => "jnz",
            Cond::Lt => "jlt",
            Cond::Ge => "jge",
            Cond::Le => "jle",
            Cond::Gt => "jgt",
            Cond::B => "jb",
            Cond::Ae => "jae",
        }
    }
}

/// Software trap codes raised by compiler-inserted defensive checks.
///
/// These are conventions shared between the hardening passes in
/// `swsec-minc` and the fault reporting of the VM; the hardware itself
/// treats every code identically (execution stops with
/// [`Fault::SoftwareTrap`](crate::cpu::Fault::SoftwareTrap)).
pub mod trap {
    /// A stack canary was corrupted before function return.
    pub const CANARY: u8 = 1;
    /// A software bounds check failed.
    pub const BOUNDS: u8 = 2;
    /// A defensive function-pointer check in a protected module failed.
    pub const FNPTR: u8 = 3;
    /// Generic assertion failure.
    pub const ASSERT: u8 = 4;
    /// A temporal-safety (use-after-free / dangling frame) check failed.
    pub const TEMPORAL: u8 = 5;
}

/// System-call numbers understood by [`Instr::Sys`].
pub mod sys {
    /// `exit(r0)`: halt the machine with exit code `r0`.
    pub const EXIT: u8 = 0;
    /// `read(fd=r0, buf=r1, len=r2) -> r0`: consume up to `len` bytes of
    /// input from channel `fd` into memory at `buf`.
    pub const READ: u8 = 1;
    /// `write(fd=r0, buf=r1, len=r2) -> r0`: append `len` bytes at `buf`
    /// to the output of channel `fd`.
    pub const WRITE: u8 = 2;
    /// `rand() -> r0`: next word of the machine's deterministic RNG.
    pub const RAND: u8 = 3;
}

/// Raw opcode bytes. Exposed so the disassembler, the gadget scanner and
/// tests can reason about encodings directly.
#[allow(missing_docs)] // names mirror the mnemonics one-to-one
pub mod opcode {
    /// No operation.
    pub const NOP: u8 = 0x00;
    /// Halt with exit code 0.
    pub const HALT: u8 = 0x01;
    /// Move 32-bit immediate into register.
    pub const MOVI: u8 = 0x02;
    /// Register-to-register move.
    pub const MOV: u8 = 0x03;
    /// 32-bit load `dst <- [base+disp]`.
    pub const LOAD: u8 = 0x04;
    /// 32-bit store `[base+disp] <- src`.
    pub const STORE: u8 = 0x05;
    /// Zero-extending byte load.
    pub const LOADB: u8 = 0x06;
    /// Byte store (low byte of source).
    pub const STOREB: u8 = 0x07;
    /// Push register.
    pub const PUSH: u8 = 0x08;
    /// Pop register.
    pub const POP: u8 = 0x09;
    /// Push 32-bit immediate.
    pub const PUSHI: u8 = 0x0A;
    /// ALU operations.
    pub const ADD: u8 = 0x0B;
    pub const SUB: u8 = 0x0C;
    pub const MUL: u8 = 0x0D;
    pub const DIVU: u8 = 0x0E;
    pub const AND: u8 = 0x0F;
    pub const OR: u8 = 0x10;
    pub const XOR: u8 = 0x11;
    pub const SHL: u8 = 0x12;
    pub const SHR: u8 = 0x13;
    /// Add 32-bit immediate.
    pub const ADDI: u8 = 0x14;
    /// Compare two registers, setting flags.
    pub const CMP: u8 = 0x15;
    /// Compare register with immediate.
    pub const CMPI: u8 = 0x16;
    /// Unconditional absolute jump.
    pub const JMP: u8 = 0x17;
    pub const JZ: u8 = 0x18;
    pub const JNZ: u8 = 0x19;
    pub const JLT: u8 = 0x1A;
    pub const JGE: u8 = 0x1B;
    pub const JLE: u8 = 0x1C;
    pub const JGT: u8 = 0x1D;
    pub const JB: u8 = 0x1E;
    pub const JAE: u8 = 0x1F;
    /// Call absolute address (pushes return address).
    pub const CALL: u8 = 0x20;
    /// Call through register (function pointer).
    pub const CALLR: u8 = 0x21;
    /// Return (pops return address into IP).
    pub const RET: u8 = 0x22;
    /// Indirect jump through register.
    pub const JMPR: u8 = 0x23;
    /// Function prologue: push bp; bp = sp; sp -= imm.
    pub const ENTER: u8 = 0x24;
    /// Function epilogue: sp = bp; pop bp.
    pub const LEAVE: u8 = 0x25;
    /// System call.
    pub const SYS: u8 = 0x26;
    /// Software trap (defensive-check failure).
    pub const TRAP: u8 = 0x27;
    /// Unsigned remainder.
    pub const MODU: u8 = 0x28;
    /// Load effective address `dst <- base+disp`.
    pub const LEA: u8 = 0x29;
    /// Arithmetic right shift.
    pub const SAR: u8 = 0x2A;
    /// Signed division.
    pub const DIVS: u8 = 0x2B;
    /// Signed remainder.
    pub const MODS: u8 = 0x2C;
}

/// Returns the total encoded length of the instruction starting with
/// `op`, or `None` if `op` is not a valid opcode.
///
/// Lengths are fixed per opcode, which lets the fetch unit read exactly
/// the bytes it needs (important when an instruction sits at the end of
/// the last mapped page).
#[inline]
pub fn instr_len(op: u8) -> Option<usize> {
    use opcode::*;
    Some(match op {
        NOP | HALT | RET | LEAVE => 1,
        MOV | PUSH | POP | ADD | SUB | MUL | DIVU | AND | OR | XOR | SHL | SHR | CALLR | JMPR
        | SYS | TRAP | MODU | SAR | DIVS | MODS | CMP => 2,
        LOAD | STORE | LOADB | STOREB | LEA => 4,
        PUSHI | JMP | JZ | JNZ | JLT | JGE | JLE | JGT | JB | JAE | CALL | ENTER => 5,
        MOVI | ADDI | CMPI => 6,
        _ => return None,
    })
}

/// A decoded machine instruction.
///
/// The variants map one-to-one onto opcodes; see [`opcode`] for the
/// encodings and [`Instr::encode`]/[`Instr::decode`] for serialization.
///
/// `#[repr(u8)]` pins the tag to the first byte, and `Nop` comes first,
/// so an all-zero `Instr` is `Nop`: the decoded-instruction cache is
/// allocated zeroed on that basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // field meanings are given in each variant's doc
pub enum Instr {
    /// Does nothing.
    Nop,
    /// Halts the machine with exit code 0.
    Halt,
    /// `dst <- imm`.
    MovI { dst: Reg, imm: u32 },
    /// `dst <- src`.
    Mov { dst: Reg, src: Reg },
    /// `dst <- mem32[base + disp]`.
    Load { dst: Reg, base: Reg, disp: i16 },
    /// `mem32[base + disp] <- src`.
    Store { base: Reg, disp: i16, src: Reg },
    /// `dst <- zero_extend(mem8[base + disp])`.
    LoadB { dst: Reg, base: Reg, disp: i16 },
    /// `mem8[base + disp] <- low_byte(src)`.
    StoreB { base: Reg, disp: i16, src: Reg },
    /// `sp -= 4; mem32[sp] <- src`.
    Push(Reg),
    /// `dst <- mem32[sp]; sp += 4`.
    Pop(Reg),
    /// `sp -= 4; mem32[sp] <- imm`.
    PushI(u32),
    /// `dst <- dst op src`.
    Alu { op: AluOp, dst: Reg, src: Reg },
    /// `dst <- dst + imm` (wrapping).
    AddI { dst: Reg, imm: u32 },
    /// Compare registers `a` and `b`, setting the flags.
    Cmp { a: Reg, b: Reg },
    /// Compare register `a` with immediate, setting the flags.
    CmpI { a: Reg, imm: u32 },
    /// `ip <- target`.
    Jmp(u32),
    /// `if cond { ip <- target }`.
    JCond { cond: Cond, target: u32 },
    /// `push(next_ip); ip <- target`.
    Call(u32),
    /// `push(next_ip); ip <- target` — an indirect call through a
    /// register, i.e. a function-pointer call.
    CallR(Reg),
    /// `ip <- pop()` — control goes to whatever the stack holds.
    Ret,
    /// `ip <- target` — an indirect jump through a register.
    JmpR(Reg),
    /// Prologue: `push bp; bp <- sp; sp <- sp - frame`.
    Enter(u32),
    /// Epilogue: `sp <- bp; bp <- pop()`.
    Leave,
    /// System call; see [`sys`] for the call numbers.
    Sys(u8),
    /// Software trap; see [`trap`] for the conventional codes.
    Trap(u8),
    /// `dst <- base + disp` (address computation, no memory access).
    Lea { dst: Reg, base: Reg, disp: i16 },
}

/// Error produced when decoding bytes that do not form an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given in each variant's doc
pub enum DecodeError {
    /// The first byte is not a defined opcode.
    UnknownOpcode(u8),
    /// Fewer bytes were available than the opcode's fixed length.
    Truncated {
        opcode: u8,
        have: usize,
        need: usize,
    },
    /// A register field holds an id outside the register file.
    BadRegister(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Truncated { opcode, have, need } => write!(
                f,
                "truncated instruction: opcode {opcode:#04x} needs {need} bytes, have {have}"
            ),
            DecodeError::BadRegister(id) => write!(f, "invalid register id {id:#x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn reg_pair(a: Reg, b: Reg) -> u8 {
    ((a as u8) << 4) | (b as u8)
}

fn split_pair(byte: u8) -> Result<(Reg, Reg), DecodeError> {
    let hi = Reg::from_u4(byte >> 4).ok_or(DecodeError::BadRegister(byte >> 4))?;
    let lo = Reg::from_u4(byte & 0xF).ok_or(DecodeError::BadRegister(byte & 0xF))?;
    Ok((hi, lo))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn read_i16(bytes: &[u8]) -> i16 {
    i16::from_le_bytes([bytes[0], bytes[1]])
}

impl Instr {
    /// Writes the little-endian encoding of this instruction to the
    /// front of `buf` and returns its length ([`len`](Instr::len));
    /// the bytes past it are zero.
    pub fn encode_into(&self, buf: &mut [u8; MAX_INSTR_LEN]) -> usize {
        use opcode::*;
        // The encoding as one little-endian word: the opcode, then a
        // register byte and/or an immediate or displacement.
        let op = |op: u8| (u64::from(op), 1);
        let reg = |op: u8, b: u8| (u64::from(op) | u64::from(b) << 8, 2);
        let imm = |op: u8, v: u32| (u64::from(op) | u64::from(v) << 8, 5);
        let reg_imm =
            |op: u8, b: u8, v: u32| (u64::from(op) | u64::from(b) << 8 | u64::from(v) << 16, 6);
        let reg_disp = |op: u8, b: u8, d: i16| {
            (
                u64::from(op) | u64::from(b) << 8 | u64::from(d as u16) << 16,
                4,
            )
        };
        let (word, len) = match *self {
            Instr::Nop => op(NOP),
            Instr::Halt => op(HALT),
            Instr::MovI { dst, imm: v } => reg_imm(MOVI, dst as u8, v),
            Instr::Mov { dst, src } => reg(MOV, reg_pair(dst, src)),
            Instr::Load { dst, base, disp } => reg_disp(LOAD, reg_pair(dst, base), disp),
            Instr::Store { base, disp, src } => reg_disp(STORE, reg_pair(base, src), disp),
            Instr::LoadB { dst, base, disp } => reg_disp(LOADB, reg_pair(dst, base), disp),
            Instr::StoreB { base, disp, src } => reg_disp(STOREB, reg_pair(base, src), disp),
            Instr::Push(r) => reg(PUSH, r as u8),
            Instr::Pop(r) => reg(POP, r as u8),
            Instr::PushI(v) => imm(PUSHI, v),
            Instr::Alu { op: alu, dst, src } => reg(alu.opcode(), reg_pair(dst, src)),
            Instr::AddI { dst, imm: v } => reg_imm(ADDI, dst as u8, v),
            Instr::Cmp { a, b } => reg(CMP, reg_pair(a, b)),
            Instr::CmpI { a, imm: v } => reg_imm(CMPI, a as u8, v),
            Instr::Jmp(t) => imm(JMP, t),
            Instr::JCond { cond, target } => imm(cond.opcode(), target),
            Instr::Call(t) => imm(CALL, t),
            Instr::CallR(r) => reg(CALLR, r as u8),
            Instr::Ret => op(RET),
            Instr::JmpR(r) => reg(JMPR, r as u8),
            Instr::Enter(frame) => imm(ENTER, frame),
            Instr::Leave => op(LEAVE),
            Instr::Sys(n) => reg(SYS, n),
            Instr::Trap(n) => reg(TRAP, n),
            Instr::Lea { dst, base, disp } => reg_disp(LEA, reg_pair(dst, base), disp),
        };
        buf.copy_from_slice(&word.to_le_bytes()[..MAX_INSTR_LEN]);
        len
    }

    /// Appends the little-endian encoding of this instruction to `out`
    /// (through [`encode_into`](Instr::encode_into)).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut buf = [0; MAX_INSTR_LEN];
        let end = out.len() + self.encode_into(&mut buf);
        // A fixed-length copy and a truncate beat a variable-length copy.
        out.extend_from_slice(&buf);
        out.truncate(end);
    }

    /// The encoded length of this instruction in bytes.
    pub fn len(&self) -> usize {
        match self {
            Instr::Nop | Instr::Halt | Instr::Ret | Instr::Leave => 1,
            Instr::Mov { .. }
            | Instr::Push(_)
            | Instr::Pop(_)
            | Instr::Alu { .. }
            | Instr::Cmp { .. }
            | Instr::CallR(_)
            | Instr::JmpR(_)
            | Instr::Sys(_)
            | Instr::Trap(_) => 2,
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::LoadB { .. }
            | Instr::StoreB { .. }
            | Instr::Lea { .. } => 4,
            Instr::PushI(_)
            | Instr::Jmp(_)
            | Instr::JCond { .. }
            | Instr::Call(_)
            | Instr::Enter(_) => 5,
            Instr::MovI { .. } | Instr::AddI { .. } | Instr::CmpI { .. } => 6,
        }
    }

    /// Returns `true` iff the encoding is zero bytes long (never; present
    /// for `len`/`is_empty` pairing convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes one instruction from the front of `bytes`.
    ///
    /// Returns the instruction and the number of bytes it occupied.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownOpcode`] for an undefined first byte,
    /// [`DecodeError::Truncated`] when `bytes` is shorter than the
    /// opcode's fixed length, and [`DecodeError::BadRegister`] for
    /// out-of-range register fields.
    pub fn decode(bytes: &[u8]) -> Result<(Instr, usize), DecodeError> {
        use opcode::*;
        let op = *bytes.first().ok_or(DecodeError::Truncated {
            opcode: 0,
            have: 0,
            need: 1,
        })?;
        let need = instr_len(op).ok_or(DecodeError::UnknownOpcode(op))?;
        if bytes.len() < need {
            return Err(DecodeError::Truncated {
                opcode: op,
                have: bytes.len(),
                need,
            });
        }
        let one_reg = |b: u8| Reg::from_u4(b).ok_or(DecodeError::BadRegister(b));
        let instr = match op {
            NOP => Instr::Nop,
            HALT => Instr::Halt,
            MOVI => Instr::MovI {
                dst: one_reg(bytes[1])?,
                imm: read_u32(&bytes[2..6]),
            },
            MOV => {
                let (dst, src) = split_pair(bytes[1])?;
                Instr::Mov { dst, src }
            }
            LOAD => {
                let (dst, base) = split_pair(bytes[1])?;
                Instr::Load {
                    dst,
                    base,
                    disp: read_i16(&bytes[2..4]),
                }
            }
            STORE => {
                let (base, src) = split_pair(bytes[1])?;
                Instr::Store {
                    base,
                    disp: read_i16(&bytes[2..4]),
                    src,
                }
            }
            LOADB => {
                let (dst, base) = split_pair(bytes[1])?;
                Instr::LoadB {
                    dst,
                    base,
                    disp: read_i16(&bytes[2..4]),
                }
            }
            STOREB => {
                let (base, src) = split_pair(bytes[1])?;
                Instr::StoreB {
                    base,
                    disp: read_i16(&bytes[2..4]),
                    src,
                }
            }
            PUSH => Instr::Push(one_reg(bytes[1])?),
            POP => Instr::Pop(one_reg(bytes[1])?),
            PUSHI => Instr::PushI(read_u32(&bytes[1..5])),
            ADD | SUB | MUL | DIVU | AND | OR | XOR | SHL | SHR | MODU | SAR | DIVS | MODS => {
                let (dst, src) = split_pair(bytes[1])?;
                let alu = match op {
                    ADD => AluOp::Add,
                    SUB => AluOp::Sub,
                    MUL => AluOp::Mul,
                    DIVU => AluOp::DivU,
                    AND => AluOp::And,
                    OR => AluOp::Or,
                    XOR => AluOp::Xor,
                    SHL => AluOp::Shl,
                    SHR => AluOp::Shr,
                    MODU => AluOp::ModU,
                    SAR => AluOp::Sar,
                    DIVS => AluOp::DivS,
                    _ => AluOp::ModS,
                };
                Instr::Alu { op: alu, dst, src }
            }
            ADDI => Instr::AddI {
                dst: one_reg(bytes[1])?,
                imm: read_u32(&bytes[2..6]),
            },
            CMP => {
                let (a, b) = split_pair(bytes[1])?;
                Instr::Cmp { a, b }
            }
            CMPI => Instr::CmpI {
                a: one_reg(bytes[1])?,
                imm: read_u32(&bytes[2..6]),
            },
            JMP => Instr::Jmp(read_u32(&bytes[1..5])),
            JZ | JNZ | JLT | JGE | JLE | JGT | JB | JAE => {
                let cond = match op {
                    JZ => Cond::Z,
                    JNZ => Cond::Nz,
                    JLT => Cond::Lt,
                    JGE => Cond::Ge,
                    JLE => Cond::Le,
                    JGT => Cond::Gt,
                    JB => Cond::B,
                    _ => Cond::Ae,
                };
                Instr::JCond {
                    cond,
                    target: read_u32(&bytes[1..5]),
                }
            }
            CALL => Instr::Call(read_u32(&bytes[1..5])),
            CALLR => Instr::CallR(one_reg(bytes[1])?),
            RET => Instr::Ret,
            JMPR => Instr::JmpR(one_reg(bytes[1])?),
            ENTER => Instr::Enter(read_u32(&bytes[1..5])),
            LEAVE => Instr::Leave,
            SYS => Instr::Sys(bytes[1]),
            TRAP => Instr::Trap(bytes[1]),
            LEA => {
                let (dst, base) = split_pair(bytes[1])?;
                Instr::Lea {
                    dst,
                    base,
                    disp: read_i16(&bytes[2..4]),
                }
            }
            _ => return Err(DecodeError::UnknownOpcode(op)),
        };
        Ok((instr, need))
    }

    /// Returns `true` for instructions that transfer control (jumps,
    /// calls, returns) — the instructions of interest to gadget scanners
    /// and control-flow-integrity checks.
    pub fn is_control_transfer(&self) -> bool {
        matches!(
            self,
            Instr::Jmp(_)
                | Instr::JCond { .. }
                | Instr::Call(_)
                | Instr::CallR(_)
                | Instr::Ret
                | Instr::JmpR(_)
        )
    }
}

impl Instr {
    /// The assembler mnemonic (`"movi"`, `"jae"`, `"storeb"`, …).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Nop => "nop",
            Instr::Halt => "halt",
            Instr::MovI { .. } => "movi",
            Instr::Mov { .. } => "mov",
            Instr::Load { .. } => "load",
            Instr::Store { .. } => "store",
            Instr::LoadB { .. } => "loadb",
            Instr::StoreB { .. } => "storeb",
            Instr::Push(_) => "push",
            Instr::Pop(_) => "pop",
            Instr::PushI(_) => "pushi",
            Instr::Alu { op, .. } => op.mnemonic(),
            Instr::AddI { .. } => "addi",
            Instr::Cmp { .. } => "cmp",
            Instr::CmpI { .. } => "cmpi",
            Instr::Jmp(_) => "jmp",
            Instr::JCond { cond, .. } => cond.mnemonic(),
            Instr::Call(_) => "call",
            Instr::CallR(_) => "callr",
            Instr::Ret => "ret",
            Instr::JmpR(_) => "jmpr",
            Instr::Enter(_) => "enter",
            Instr::Leave => "leave",
            Instr::Sys(_) => "sys",
            Instr::Trap(_) => "trap",
            Instr::Lea { .. } => "lea",
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())?;
        match *self {
            Instr::Nop | Instr::Halt | Instr::Ret | Instr::Leave => Ok(()),
            Instr::MovI { dst: r, imm }
            | Instr::AddI { dst: r, imm }
            | Instr::CmpI { a: r, imm } => {
                write!(f, " {r}, {imm:#x}")
            }
            Instr::Mov { dst: a, src: b }
            | Instr::Cmp { a, b }
            | Instr::Alu { dst: a, src: b, .. } => {
                write!(f, " {a}, {b}")
            }
            Instr::Load { dst, base, disp }
            | Instr::LoadB { dst, base, disp }
            | Instr::Lea { dst, base, disp } => write!(f, " {dst}, [{base}{disp:+}]"),
            Instr::Store { base, disp, src } | Instr::StoreB { base, disp, src } => {
                write!(f, " [{base}{disp:+}], {src}")
            }
            Instr::Push(r) | Instr::Pop(r) | Instr::CallR(r) | Instr::JmpR(r) => write!(f, " {r}"),
            Instr::PushI(imm) | Instr::Enter(imm) => write!(f, " {imm:#x}"),
            Instr::Jmp(t) | Instr::JCond { target: t, .. } | Instr::Call(t) => {
                write!(f, " {t:#010x}")
            }
            Instr::Sys(n) | Instr::Trap(n) => write!(f, " {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_instr_samples() -> Vec<Instr> {
        let mut v = vec![
            Instr::Nop,
            Instr::Halt,
            Instr::MovI {
                dst: Reg::R3,
                imm: 0xdead_beef,
            },
            Instr::Mov {
                dst: Reg::Sp,
                src: Reg::Bp,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::Bp,
                disp: -16,
            },
            Instr::Store {
                base: Reg::Sp,
                disp: 4,
                src: Reg::R1,
            },
            Instr::LoadB {
                dst: Reg::R2,
                base: Reg::R3,
                disp: 0,
            },
            Instr::StoreB {
                base: Reg::R4,
                disp: -1,
                src: Reg::R5,
            },
            Instr::Push(Reg::Bp),
            Instr::Pop(Reg::R7),
            Instr::PushI(0x1234_5678),
            Instr::AddI {
                dst: Reg::Sp,
                imm: 0xffff_fff0,
            },
            Instr::Cmp {
                a: Reg::R0,
                b: Reg::R1,
            },
            Instr::CmpI { a: Reg::R6, imm: 3 },
            Instr::Jmp(0x0804_83f2),
            Instr::Call(0x0804_83ed),
            Instr::CallR(Reg::R2),
            Instr::Ret,
            Instr::JmpR(Reg::R0),
            Instr::Enter(0x18),
            Instr::Leave,
            Instr::Sys(sys::READ),
            Instr::Trap(trap::CANARY),
            Instr::Lea {
                dst: Reg::R0,
                base: Reg::Bp,
                disp: -16,
            },
        ];
        for op in [
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
        ] {
            v.push(Instr::Alu {
                op,
                dst: Reg::R1,
                src: Reg::R2,
            });
        }
        for cond in [
            Cond::Z,
            Cond::Nz,
            Cond::Lt,
            Cond::Ge,
            Cond::Le,
            Cond::Gt,
            Cond::B,
            Cond::Ae,
        ] {
            v.push(Instr::JCond {
                cond,
                target: 0x1000,
            });
        }
        v
    }

    #[test]
    fn roundtrip_every_instruction() {
        for instr in all_instr_samples() {
            let mut bytes = Vec::new();
            instr.encode(&mut bytes);
            assert!(bytes.len() <= MAX_INSTR_LEN, "{instr} too long");
            let (decoded, len) = Instr::decode(&bytes).expect("decode");
            assert_eq!(decoded, instr);
            assert_eq!(len, bytes.len());
            assert_eq!(instr.len(), bytes.len());
            assert_eq!(instr_len(bytes[0]), Some(bytes.len()));
        }
    }

    #[test]
    fn immediates_are_little_endian() {
        let mut bytes = Vec::new();
        Instr::MovI {
            dst: Reg::R0,
            imm: 0x0804_840a,
        }
        .encode(&mut bytes);
        // The paper's Figure 1 stores 0x0804840a as 0a 84 04 08.
        assert_eq!(&bytes[2..6], &[0x0a, 0x84, 0x04, 0x08]);
    }

    #[test]
    fn decode_unknown_opcode() {
        assert_eq!(
            Instr::decode(&[0xFF]),
            Err(DecodeError::UnknownOpcode(0xFF))
        );
    }

    #[test]
    fn decode_truncated() {
        let err = Instr::decode(&[opcode::MOVI, 0x00, 0x01]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                opcode: opcode::MOVI,
                have: 3,
                need: 6
            }
        );
    }

    #[test]
    fn decode_bad_register() {
        // Register id 0xB is out of range (only 0..=9 are defined).
        let err = Instr::decode(&[opcode::PUSH, 0x0B]).unwrap_err();
        assert_eq!(err, DecodeError::BadRegister(0x0B));
    }

    #[test]
    fn decode_empty_input() {
        assert!(matches!(
            Instr::decode(&[]),
            Err(DecodeError::Truncated {
                have: 0,
                need: 1,
                ..
            })
        ));
    }

    #[test]
    fn register_ids_roundtrip() {
        for reg in ALL_REGS {
            assert_eq!(Reg::from_u4(reg as u8), Some(reg));
        }
        assert_eq!(Reg::from_u4(10), None);
        assert_eq!(Reg::from_u4(15), None);
    }

    #[test]
    fn control_transfer_classification() {
        assert!(Instr::Ret.is_control_transfer());
        assert!(Instr::CallR(Reg::R0).is_control_transfer());
        assert!(!Instr::Nop.is_control_transfer());
        assert!(!Instr::Push(Reg::R0).is_control_transfer());
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(
            Instr::Load {
                dst: Reg::R0,
                base: Reg::Bp,
                disp: -16
            }
            .to_string(),
            "load r0, [bp-16]"
        );
        assert_eq!(Instr::Enter(0x18).to_string(), "enter 0x18");
        assert_eq!(
            Instr::JCond {
                cond: Cond::Nz,
                target: 0x1000
            }
            .to_string(),
            "jnz 0x00001000"
        );
    }

    #[test]
    fn misaligned_decode_gives_different_instruction_stream() {
        // Decoding from the middle of an instruction can legally produce a
        // *different* instruction — the property ROP gadget discovery
        // depends on.
        let mut bytes = Vec::new();
        // movi r0, imm where imm's bytes spell "ret" followed by garbage.
        Instr::MovI {
            dst: Reg::R0,
            imm: u32::from_le_bytes([opcode::RET, 0, 0, 0]),
        }
        .encode(&mut bytes);
        let (inner, _) = Instr::decode(&bytes[2..]).expect("decode of embedded bytes");
        assert_eq!(inner, Instr::Ret);
    }
}
