//! The text front end: parses assembly source into the statement IR of
//! [`crate::items`] and links it with the shared back end.
//!
//! Syntax, one statement per line (`;` starts a comment):
//!
//! ```text
//! .org 0x1000          ; base address (must precede any emission)
//! start:               ; a label
//!     movi r0, 42
//!     movi r1, msg     ; labels are plain 32-bit immediates
//!     cmpi r0, 0
//!     jz   done
//!     call start
//! done:
//!     halt
//! msg:
//!     .ascii "hello"   ; raw bytes
//!     .byte 0, 0xff
//!     .word 0xdeadbeef
//!     .space 16        ; 16 zero bytes
//! ```
//!
//! Memory operands are written `[reg+disp]`, `[reg-disp]` or `[reg]`,
//! matching the disassembler's output so that listings re-assemble.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use swsec_vm::isa::{AluOp, Cond, Instr, Reg, ALL_REGS};

use crate::items::{Assembly, Insn, Item, Label, Value};

/// The result of assembling a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmOutput {
    /// Load address of the first emitted byte.
    pub base: u32,
    /// The raw image.
    pub bytes: Vec<u8>,
    /// Every label with its absolute address.
    pub labels: BTreeMap<String, u32>,
}

impl AsmOutput {
    /// Address of a label.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] with [`AsmErrorKind::UnknownLabel`] if no
    /// such label was defined.
    pub fn label(&self, name: &str) -> Result<u32, AsmError> {
        self.labels.get(name).copied().ok_or_else(|| AsmError {
            line: 0,
            kind: AsmErrorKind::UnknownLabel(name.to_string()),
        })
    }

    /// Address one past the last emitted byte.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.base.wrapping_add(self.bytes.len() as u32)
    }

    /// The label set as a profiler symbol table: each label names the
    /// address range up to the next label (or the image end), so
    /// sampled guest PCs resolve to the enclosing label. Labels are
    /// the assembler's only notion of "function"; data labels resolve
    /// too, which is exactly what you want when a sample lands in a
    /// gadget or injected payload.
    #[must_use]
    pub fn symbol_table(&self) -> swsec_obs::SymbolTable {
        swsec_obs::SymbolTable::from_labels(
            self.labels.iter().map(|(name, addr)| (name.clone(), *addr)),
            self.end(),
        )
    }
}

/// What went wrong while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given in each variant's doc
pub enum AsmErrorKind {
    /// A mnemonic that is not part of the ISA or directive set.
    UnknownMnemonic(String),
    /// An operand that could not be parsed.
    BadOperand(String),
    /// Wrong number of operands for the mnemonic.
    WrongArity {
        mnemonic: String,
        expected: usize,
        got: usize,
    },
    /// Reference to a label that is never defined.
    UnknownLabel(String),
    /// The same label defined twice.
    DuplicateLabel(String),
    /// `.org` after bytes were already emitted.
    LateOrg,
    /// A displacement outside the i16 range of load/store encodings.
    DispOutOfRange(i64),
    /// A malformed string literal in `.ascii`.
    BadString(String),
}

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for errors without a location).
    pub line: usize,
    /// The specific problem.
    pub kind: AsmErrorKind,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let loc = if self.line > 0 {
            format!("line {}: ", self.line)
        } else {
            String::new()
        };
        match &self.kind {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "{loc}unknown mnemonic `{m}`"),
            AsmErrorKind::BadOperand(o) => write!(f, "{loc}cannot parse operand `{o}`"),
            AsmErrorKind::WrongArity {
                mnemonic,
                expected,
                got,
            } => {
                write!(f, "{loc}`{mnemonic}` takes {expected} operands, got {got}")
            }
            AsmErrorKind::UnknownLabel(l) => write!(f, "{loc}undefined label `{l}`"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "{loc}label `{l}` defined twice"),
            AsmErrorKind::LateOrg => write!(f, "{loc}`.org` must precede any emitted bytes"),
            AsmErrorKind::DispOutOfRange(d) => {
                write!(f, "{loc}displacement {d} outside the ±32767 encoding range")
            }
            AsmErrorKind::BadString(s) => write!(f, "{loc}malformed string literal {s}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An operand as written in the source, before label resolution. It
/// borrows from the source; a string literal is owned only when it holds
/// an escape. The derived `Debug` form is the payload of
/// [`AsmErrorKind::BadOperand`] for an operand of the wrong kind.
#[derive(Debug)]
enum Operand<'a> {
    Reg(Reg),
    Imm(i64),
    Label(&'a str),
    Mem { base: Reg, disp: i64 },
    Str(Cow<'a, str>),
}

fn parse_reg(s: &str) -> Option<Reg> {
    Some(match s.as_bytes() {
        [b'r', d @ b'0'..=b'7'] => ALL_REGS[usize::from(d - b'0')],
        b"sp" => Reg::Sp,
        b"bp" => Reg::Bp,
        _ => return None,
    })
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    // Fast path: plain decimal (a `+` sign included, as in `[bp+8]`)
    // or `0x` hex digits, which is all the compiler and the
    // disassembler ever print.
    let (digits, radix) = match body.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (body.strip_prefix('+').unwrap_or(body), 10),
    };
    let plain = !digits.is_empty() && digits.bytes().all(|b| (b as char).is_digit(radix));
    let value = if plain {
        i64::from_str_radix(digits, radix).ok()?
    } else if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(ch) = body.strip_prefix('\'') {
        let ch = ch.strip_suffix('\'')?;
        let mut chars = ch.chars();
        let c = chars.next()?;
        if chars.next().is_some() {
            return None;
        }
        c as i64
    } else if body
        .bytes()
        .all(|b| b.is_ascii_digit() || matches!(b, b'_' | b'+' | b'-'))
    {
        body.replace('_', "").parse::<i64>().ok()?
    } else {
        // Any other byte survives the `_` removal and fails the parse;
        // this is every label operand, so skip the allocation.
        return None;
    };
    Some(if neg { -value } else { value })
}

/// `str::trim`, skipping the Unicode scan when both ends are visible
/// ASCII, as they are on nearly every line.
fn trim(s: &str) -> &str {
    match s.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => s,
        [only] if only.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// `s.find(char::is_whitespace)`, scanning bytes while they are ASCII.
fn find_space(s: &str) -> Option<usize> {
    for (i, b) in s.bytes().enumerate() {
        if !b.is_ascii() {
            return s[i..].find(char::is_whitespace).map(|j| i + j);
        }
        if matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r') {
            return Some(i);
        }
    }
    None
}

fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

fn is_label(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(is_label_byte)
}

/// Parses one operand, already trimmed.
fn parse_operand(s: &str) -> Result<Operand<'_>, AsmErrorKind> {
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| AsmErrorKind::BadOperand(s.to_string()))?
            .trim();
        // Forms: reg, reg+disp, reg-disp.
        let (reg_part, disp) = if let Some(idx) = inner.find(['+', '-']) {
            let (r, d) = inner.split_at(idx);
            let disp =
                parse_int(d.trim()).ok_or_else(|| AsmErrorKind::BadOperand(s.to_string()))?;
            (r.trim(), disp)
        } else {
            (inner, 0)
        };
        let base = parse_reg(reg_part).ok_or_else(|| AsmErrorKind::BadOperand(s.to_string()))?;
        return Ok(Operand::Mem { base, disp });
    }
    if s.starts_with('"') {
        let body = s
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .ok_or_else(|| AsmErrorKind::BadString(s.to_string()))?;
        return Ok(Operand::Str(
            unescape(body).ok_or_else(|| AsmErrorKind::BadString(s.to_string()))?,
        ));
    }
    if let Some(reg) = parse_reg(s) {
        return Ok(Operand::Reg(reg));
    }
    if let Some(imm) = parse_int(s) {
        return Ok(Operand::Imm(imm));
    }
    if is_label(s) {
        return Ok(Operand::Label(s));
    }
    Err(AsmErrorKind::BadOperand(s.to_string()))
}

fn unescape(s: &str) -> Option<Cow<'_, str>> {
    if !s.contains('\\') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '0' => out.push('\0'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(Cow::Owned(out))
}

/// Splits the operand field on commas that are not inside quotes or
/// brackets, yielding each operand trimmed. Every operand before a comma
/// is yielded, even an empty one; an empty last operand is dropped.
struct SplitOperands<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for SplitOperands<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escaped = false;
        // Every delimiter is ASCII, so a byte scan never splits a char.
        for (i, b) in s.bytes().enumerate() {
            match b {
                b'"' if !escaped => in_str = !in_str,
                b'[' if !in_str => depth += 1,
                b']' if !in_str => depth = depth.saturating_sub(1),
                b',' if !in_str && depth == 0 => {
                    self.rest = Some(&s[i + 1..]);
                    return Some(trim(&s[..i]));
                }
                _ => {}
            }
            escaped = b == b'\\' && !escaped;
        }
        self.rest = None;
        Some(trim(s)).filter(|last| !last.is_empty())
    }
}

/// An instruction mnemonic, decoded once at parse time so that lowering
/// never matches the mnemonic text again.
#[derive(Clone, Copy)]
enum Mnemonic {
    Nop,
    Halt,
    Ret,
    Leave,
    MovI,
    AddI,
    CmpI,
    Mov,
    Cmp,
    Alu(AluOp),
    Load,
    LoadB,
    Lea,
    Store,
    StoreB,
    Push,
    Pop,
    CallR,
    JmpR,
    PushI,
    Jmp,
    JCond(Cond),
    Call,
    Enter,
    Sys,
    Trap,
}

impl Mnemonic {
    /// Decodes a lowercase mnemonic.
    fn decode(m: &str) -> Option<Mnemonic> {
        Some(match m.as_bytes() {
            b"nop" => Mnemonic::Nop,
            b"halt" => Mnemonic::Halt,
            b"ret" => Mnemonic::Ret,
            b"leave" => Mnemonic::Leave,
            b"movi" => Mnemonic::MovI,
            b"addi" => Mnemonic::AddI,
            b"cmpi" => Mnemonic::CmpI,
            b"mov" => Mnemonic::Mov,
            b"cmp" => Mnemonic::Cmp,
            b"add" => Mnemonic::Alu(AluOp::Add),
            b"sub" => Mnemonic::Alu(AluOp::Sub),
            b"mul" => Mnemonic::Alu(AluOp::Mul),
            b"divu" => Mnemonic::Alu(AluOp::DivU),
            b"divs" => Mnemonic::Alu(AluOp::DivS),
            b"modu" => Mnemonic::Alu(AluOp::ModU),
            b"mods" => Mnemonic::Alu(AluOp::ModS),
            b"and" => Mnemonic::Alu(AluOp::And),
            b"or" => Mnemonic::Alu(AluOp::Or),
            b"xor" => Mnemonic::Alu(AluOp::Xor),
            b"shl" => Mnemonic::Alu(AluOp::Shl),
            b"shr" => Mnemonic::Alu(AluOp::Shr),
            b"sar" => Mnemonic::Alu(AluOp::Sar),
            b"load" => Mnemonic::Load,
            b"loadb" => Mnemonic::LoadB,
            b"lea" => Mnemonic::Lea,
            b"store" => Mnemonic::Store,
            b"storeb" => Mnemonic::StoreB,
            b"push" => Mnemonic::Push,
            b"pop" => Mnemonic::Pop,
            b"callr" => Mnemonic::CallR,
            b"jmpr" => Mnemonic::JmpR,
            b"pushi" => Mnemonic::PushI,
            b"jmp" => Mnemonic::Jmp,
            b"jz" => Mnemonic::JCond(Cond::Z),
            b"jnz" => Mnemonic::JCond(Cond::Nz),
            b"jlt" => Mnemonic::JCond(Cond::Lt),
            b"jge" => Mnemonic::JCond(Cond::Ge),
            b"jle" => Mnemonic::JCond(Cond::Le),
            b"jgt" => Mnemonic::JCond(Cond::Gt),
            b"jb" => Mnemonic::JCond(Cond::B),
            b"jae" => Mnemonic::JCond(Cond::Ae),
            b"call" => Mnemonic::Call,
            b"enter" => Mnemonic::Enter,
            b"sys" => Mnemonic::Sys,
            b"trap" => Mnemonic::Trap,
            _ => return None,
        })
    }

    /// Number of operands.
    fn arity(self) -> usize {
        match self {
            Mnemonic::Nop | Mnemonic::Halt | Mnemonic::Ret | Mnemonic::Leave => 0,
            Mnemonic::Push
            | Mnemonic::Pop
            | Mnemonic::CallR
            | Mnemonic::JmpR
            | Mnemonic::PushI
            | Mnemonic::Jmp
            | Mnemonic::JCond(_)
            | Mnemonic::Call
            | Mnemonic::Enter
            | Mnemonic::Sys
            | Mnemonic::Trap => 1,
            _ => 2,
        }
    }
}

/// One statement. Operand lists are index ranges into the assembler's
/// flat operand arena.
enum Stmt<'a> {
    Label(&'a str),
    /// An instruction; `mnemonic` is the source text, kept for errors.
    Instr {
        op: Mnemonic,
        mnemonic: &'a str,
        operands: Range<usize>,
    },
    /// A mnemonic outside the ISA and directive set, reported with the
    /// back end's pass-1 errors.
    Unknown(&'a str),
    Org(u32),
    Byte(Range<usize>),
    Word(Range<usize>),
    Ascii(Cow<'a, str>),
    Space(u32),
}

/// Parses one source line, appending its statements to `stmts` and its
/// operands to `arena`.
fn parse_line<'a>(
    line: &'a str,
    lineno: usize,
    stmts: &mut Vec<(usize, Stmt<'a>)>,
    arena: &mut Vec<Operand<'a>>,
) -> Result<(), AsmError> {
    let code = match line.find(';') {
        Some(idx) => &line[..idx],
        None => line,
    };
    let mut rest = trim(code);
    // Leading labels (possibly several on one line): a run of label
    // characters directly followed by `:`.
    loop {
        let len = rest
            .bytes()
            .position(|b| !is_label_byte(b))
            .unwrap_or(rest.len());
        if len == 0 || rest.as_bytes().get(len) != Some(&b':') {
            break;
        }
        stmts.push((lineno, Stmt::Label(&rest[..len])));
        rest = rest[len + 1..].trim_start();
    }
    if rest.is_empty() {
        return Ok(());
    }
    let (mnemonic, args) = match find_space(rest) {
        Some(idx) => (&rest[..idx], trim(&rest[idx..])),
        None => (rest, ""),
    };
    let lower = if mnemonic.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(mnemonic.to_ascii_lowercase())
    } else {
        Cow::Borrowed(mnemonic)
    };
    let start = arena.len();
    for raw in (SplitOperands { rest: Some(args) }) {
        arena.push(parse_operand(raw).map_err(|kind| AsmError { line: lineno, kind })?);
    }
    let operands = start..arena.len();
    let bad = |kind: fn(String) -> AsmErrorKind| AsmError {
        line: lineno,
        kind: kind(args.to_string()),
    };
    // `.org`, `.ascii` and `.space` take their one operand out of the arena.
    let single = |arena: &mut Vec<Operand<'a>>| {
        if operands.len() == 1 {
            arena.pop()
        } else {
            None
        }
    };
    let stmt = match &*lower {
        ".org" => match single(arena) {
            Some(Operand::Imm(v)) => Stmt::Org(v as u32),
            _ => return Err(bad(AsmErrorKind::BadOperand)),
        },
        ".byte" => Stmt::Byte(operands),
        ".word" => Stmt::Word(operands),
        ".ascii" => match single(arena) {
            Some(Operand::Str(s)) => Stmt::Ascii(s),
            _ => return Err(bad(AsmErrorKind::BadString)),
        },
        ".space" => match single(arena) {
            Some(Operand::Imm(v)) if v >= 0 => Stmt::Space(v as u32),
            _ => return Err(bad(AsmErrorKind::BadOperand)),
        },
        m => match Mnemonic::decode(m) {
            Some(op) => Stmt::Instr {
                op,
                mnemonic,
                operands,
            },
            None => Stmt::Unknown(mnemonic),
        },
    };
    stmts.push((lineno, stmt));
    Ok(())
}

/// Label ids keyed by source slices.
type LabelMap<'a> = HashMap<&'a str, Label, BuildHasherDefault<LabelHasher>>;

/// A multiply-rotate byte hash: labels are short and come from the
/// assembler's own callers, so SipHash's flooding resistance buys
/// nothing here, and it measured at about a tenth of assembly time.
#[derive(Default)]
struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

struct Resolver<'a, 'src> {
    labels: &'a LabelMap<'src>,
    line: usize,
}

impl Resolver<'_, '_> {
    fn imm(&self, op: &Operand<'_>) -> Result<Value, AsmError> {
        match op {
            Operand::Imm(v) => Ok(Value::Const(*v as u32)),
            Operand::Label(name) => {
                self.labels
                    .get(*name)
                    .map(|&l| Value::Label(l))
                    .ok_or_else(|| AsmError {
                        line: self.line,
                        kind: AsmErrorKind::UnknownLabel(name.to_string()),
                    })
            }
            other => Err(self.bad(other)),
        }
    }

    fn reg(&self, op: &Operand<'_>) -> Result<Reg, AsmError> {
        match op {
            Operand::Reg(r) => Ok(*r),
            other => Err(self.bad(other)),
        }
    }

    fn mem(&self, op: &Operand<'_>) -> Result<(Reg, i16), AsmError> {
        match op {
            Operand::Mem { base, disp } => {
                let disp16 = i16::try_from(*disp).map_err(|_| AsmError {
                    line: self.line,
                    kind: AsmErrorKind::DispOutOfRange(*disp),
                })?;
                Ok((*base, disp16))
            }
            other => Err(self.bad(other)),
        }
    }

    fn bad(&self, op: &Operand<'_>) -> AsmError {
        AsmError {
            line: self.line,
            kind: AsmErrorKind::BadOperand(format!("{op:?}")),
        }
    }
}

/// Types one instruction's operands into an [`Insn`]. Checks the
/// operand count first, then each operand left to right.
fn lower_instr(
    op: Mnemonic,
    mnemonic: &str,
    ops: &[Operand<'_>],
    r: &Resolver<'_, '_>,
) -> Result<Insn, AsmError> {
    if ops.len() != op.arity() {
        return Err(AsmError {
            line: r.line,
            kind: AsmErrorKind::WrongArity {
                mnemonic: mnemonic.to_ascii_lowercase(),
                expected: op.arity(),
                got: ops.len(),
            },
        });
    }
    // A label immediate is encoded as 0 here and patched by the back end.
    let mut target = None;
    let mut imm = |op: &Operand<'_>| -> Result<u32, AsmError> {
        Ok(match r.imm(op)? {
            Value::Const(v) => v,
            Value::Label(l) => {
                target = Some(l);
                0
            }
        })
    };
    let instr = match op {
        Mnemonic::Nop => Instr::Nop,
        Mnemonic::Halt => Instr::Halt,
        Mnemonic::Ret => Instr::Ret,
        Mnemonic::Leave => Instr::Leave,
        Mnemonic::MovI => Instr::MovI {
            dst: r.reg(&ops[0])?,
            imm: imm(&ops[1])?,
        },
        Mnemonic::AddI => Instr::AddI {
            dst: r.reg(&ops[0])?,
            imm: imm(&ops[1])?,
        },
        Mnemonic::CmpI => Instr::CmpI {
            a: r.reg(&ops[0])?,
            imm: imm(&ops[1])?,
        },
        Mnemonic::Mov => Instr::Mov {
            dst: r.reg(&ops[0])?,
            src: r.reg(&ops[1])?,
        },
        Mnemonic::Cmp => Instr::Cmp {
            a: r.reg(&ops[0])?,
            b: r.reg(&ops[1])?,
        },
        Mnemonic::Alu(alu) => Instr::Alu {
            op: alu,
            dst: r.reg(&ops[0])?,
            src: r.reg(&ops[1])?,
        },
        Mnemonic::Load | Mnemonic::LoadB | Mnemonic::Lea => {
            let dst = r.reg(&ops[0])?;
            let (base, disp) = r.mem(&ops[1])?;
            match op {
                Mnemonic::Load => Instr::Load { dst, base, disp },
                Mnemonic::LoadB => Instr::LoadB { dst, base, disp },
                _ => Instr::Lea { dst, base, disp },
            }
        }
        Mnemonic::Store | Mnemonic::StoreB => {
            let (base, disp) = r.mem(&ops[0])?;
            let src = r.reg(&ops[1])?;
            match op {
                Mnemonic::Store => Instr::Store { base, disp, src },
                _ => Instr::StoreB { base, disp, src },
            }
        }
        Mnemonic::Push => Instr::Push(r.reg(&ops[0])?),
        Mnemonic::Pop => Instr::Pop(r.reg(&ops[0])?),
        Mnemonic::CallR => Instr::CallR(r.reg(&ops[0])?),
        Mnemonic::JmpR => Instr::JmpR(r.reg(&ops[0])?),
        Mnemonic::PushI => Instr::PushI(imm(&ops[0])?),
        Mnemonic::Jmp => Instr::Jmp(imm(&ops[0])?),
        Mnemonic::JCond(cond) => Instr::JCond {
            cond,
            target: imm(&ops[0])?,
        },
        Mnemonic::Call => Instr::Call(imm(&ops[0])?),
        Mnemonic::Enter => Instr::Enter(imm(&ops[0])?),
        Mnemonic::Sys => Instr::Sys(imm(&ops[0])? as u8),
        Mnemonic::Trap => Instr::Trap(imm(&ops[0])? as u8),
    };
    Ok(match target {
        Some(l) => Insn::with_target(instr, l),
        None => Insn::new(instr),
    })
}

/// The source line of the `item`th item that lowering `stmts` yields.
fn item_line(stmts: &[(usize, Stmt<'_>)], item: usize) -> usize {
    let mut items = 0;
    for (line, stmt) in stmts {
        items += match stmt {
            Stmt::Unknown(_) => 0,
            Stmt::Byte(ops) | Stmt::Word(ops) => ops.len(),
            _ => 1,
        };
        if items > item {
            return *line;
        }
    }
    unreachable!("item {item} was lowered from a statement")
}

/// Assembles a complete source file into a loadable image.
///
/// This is the text front end: it parses the source into the
/// [`Assembly`] IR and encodes it with the shared back end,
/// [`Assembly::link`]. Parsing borrows every token from `source`, so
/// the only allocations are the statement, operand and item vectors,
/// the label tables and the image itself.
///
/// # Errors
///
/// Returns the first [`AsmError`] in this order: a parse error on any
/// line (bad operand or string literal, malformed directive); then, in
/// statement order, an unknown mnemonic, a duplicate label or a late
/// `.org`; then, in statement order, a wrong operand count, an operand
/// of the wrong kind, an undefined label or an out-of-range
/// displacement.
///
/// # Examples
///
/// ```
/// let out = swsec_asm::assemble(
///     ".org 0x1000\n\
///      start: movi r0, 1\n\
///      sys 0            ; exit(1)\n",
/// )?;
/// assert_eq!(out.base, 0x1000);
/// assert_eq!(out.label("start")?, 0x1000);
/// # Ok::<(), swsec_asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<AsmOutput, AsmError> {
    let mut stmts = Vec::new();
    let mut arena = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        parse_line(line, idx + 1, &mut stmts, &mut arena)?;
    }

    // One label id per defined name; a redefinition reuses the id,
    // which the back end reports as a duplicate.
    let mut asm = Assembly::with_capacity(stmts.len());
    let mut labels = LabelMap::default();
    let mut names = Vec::new();
    let mut defs = Vec::new();
    for (_, stmt) in &stmts {
        if let Stmt::Label(name) = stmt {
            defs.push(*labels.entry(*name).or_insert_with(|| {
                names.push(*name);
                asm.label()
            }));
        }
    }
    let mut defs = defs.into_iter();

    // Lower every statement. The first operand error is held back, as
    // are unknown mnemonics, so that errors keep the precedence above.
    // An item that fails to lower becomes one zero byte: pass 1 only
    // needs to know that something was emitted before a late `.org`.
    let mut unknown = None;
    let mut invalid = None;
    for (lineno, stmt) in &stmts {
        let r = Resolver {
            labels: &labels,
            line: *lineno,
        };
        let mut value = |op, item: fn(Value) -> Item| match r.imm(op) {
            Ok(v) => asm.push(item(v)),
            Err(e) => {
                invalid.get_or_insert(e);
                asm.push(Item::Space(1));
            }
        };
        match stmt {
            Stmt::Label(_) => asm.push(Item::Label(defs.next().expect("one id per definition"))),
            Stmt::Org(addr) => asm.push(Item::Org(*addr)),
            Stmt::Unknown(mnemonic) => {
                let kind = AsmErrorKind::UnknownMnemonic(mnemonic.to_ascii_lowercase());
                unknown.get_or_insert((
                    asm.len(),
                    AsmError {
                        line: *lineno,
                        kind,
                    },
                ));
            }
            Stmt::Byte(ops) => arena[ops.clone()]
                .iter()
                .for_each(|op| value(op, Item::Byte)),
            Stmt::Word(ops) => arena[ops.clone()]
                .iter()
                .for_each(|op| value(op, Item::Word)),
            Stmt::Ascii(s) => asm.ascii(s.as_bytes()),
            Stmt::Space(n) => asm.push(Item::Space(*n)),
            Stmt::Instr {
                op,
                mnemonic,
                operands,
            } => match lower_instr(*op, mnemonic, &arena[operands.clone()], &r) {
                Ok(insn) => asm.insn(insn),
                Err(e) => {
                    invalid.get_or_insert(e);
                    asm.push(Item::Space(1));
                }
            },
        }
    }

    let linked = asm.link();
    let pass1_error_at = linked.as_ref().err().map_or(usize::MAX, |e| e.item);
    if let Some((at, err)) = unknown {
        if at <= pass1_error_at {
            return Err(err);
        }
    }
    let name = |l: Label| names[l.0 as usize].to_string();
    let linked = linked.map_err(|e| e.to_asm_error(item_line(&stmts, e.item), name))?;
    if let Some(err) = invalid {
        return Err(err);
    }
    let labels = labels
        .into_iter()
        .map(|(name, l)| (name.to_string(), linked.addr(l)))
        .collect();
    Ok(AsmOutput {
        base: linked.base,
        bytes: linked.bytes,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::isa::Instr;

    #[test]
    fn assembles_minimal_program() {
        let out = assemble("movi r0, 42\nsys 0\n").unwrap();
        let (i, _) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(
            i,
            Instr::MovI {
                dst: Reg::R0,
                imm: 42
            }
        );
    }

    #[test]
    fn org_sets_base_and_labels_are_absolute() {
        let out = assemble(
            ".org 0x1000\n\
             loop: nop\n\
             jmp loop\n",
        )
        .unwrap();
        assert_eq!(out.base, 0x1000);
        assert_eq!(out.label("loop").unwrap(), 0x1000);
        // jmp encodes the absolute label address.
        let (i, _) = Instr::decode(&out.bytes[1..]).unwrap();
        assert_eq!(i, Instr::Jmp(0x1000));
    }

    #[test]
    fn symbol_table_covers_labels_to_image_end() {
        let out = assemble(
            ".org 0x1000\n\
             main: nop\n\
             nop\n\
             gadget: nop\n\
             nop\n",
        )
        .unwrap();
        assert_eq!(out.end(), 0x1004);
        let table = out.symbol_table();
        assert_eq!(table.resolve(0x1000), Some("main"));
        assert_eq!(table.resolve(0x1001), Some("main"));
        assert_eq!(table.resolve(0x1002), Some("gadget"));
        assert_eq!(table.resolve(0x1003), Some("gadget"));
        assert_eq!(table.resolve(0x1004), None);
    }

    #[test]
    fn forward_references_resolve() {
        let out = assemble(
            "jmp end\n\
             nop\n\
             end: halt\n",
        )
        .unwrap();
        let (i, _) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(i, Instr::Jmp(6)); // 5-byte jmp + 1-byte nop
    }

    #[test]
    fn memory_operands_parse_all_forms() {
        let out = assemble(
            "load r0, [bp-16]\n\
             store [sp+4], r1\n\
             loadb r2, [r3]\n",
        )
        .unwrap();
        let (a, n) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(
            a,
            Instr::Load {
                dst: Reg::R0,
                base: Reg::Bp,
                disp: -16
            }
        );
        let (b, n2) = Instr::decode(&out.bytes[n..]).unwrap();
        assert_eq!(
            b,
            Instr::Store {
                base: Reg::Sp,
                disp: 4,
                src: Reg::R1
            }
        );
        let (c, _) = Instr::decode(&out.bytes[n + n2..]).unwrap();
        assert_eq!(
            c,
            Instr::LoadB {
                dst: Reg::R2,
                base: Reg::R3,
                disp: 0
            }
        );
    }

    #[test]
    fn data_directives_emit_bytes() {
        let out = assemble(
            ".byte 1, 2, 0xff\n\
             .word 0x08048424\n\
             .ascii \"AB\\n\"\n\
             .space 2\n",
        )
        .unwrap();
        assert_eq!(
            out.bytes,
            vec![1, 2, 0xff, 0x24, 0x84, 0x04, 0x08, b'A', b'B', b'\n', 0, 0]
        );
    }

    #[test]
    fn labels_usable_as_movi_immediates() {
        let out = assemble(
            ".org 0x2000\n\
             movi r1, msg\n\
             halt\n\
             msg: .ascii \"hi\"\n",
        )
        .unwrap();
        let (i, _) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(
            i,
            Instr::MovI {
                dst: Reg::R1,
                imm: 0x2007
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let out = assemble("; full comment line\n\n  nop ; trailing\n").unwrap();
        assert_eq!(out.bytes, vec![0x00]);
    }

    #[test]
    fn error_unknown_mnemonic_includes_line() {
        let err = assemble("nop\nfrobnicate r0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)));
    }

    #[test]
    fn error_undefined_label() {
        let err = assemble("jmp nowhere\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UnknownLabel(_)));
    }

    #[test]
    fn error_duplicate_label() {
        let err = assemble("a: nop\na: nop\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DuplicateLabel(_)));
    }

    #[test]
    fn error_late_org() {
        let err = assemble("nop\n.org 0x1000\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::LateOrg));
    }

    #[test]
    fn error_wrong_arity() {
        let err = assemble("mov r0\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::WrongArity { .. }));
    }

    #[test]
    fn error_disp_out_of_range() {
        let err = assemble("load r0, [bp+40000]\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DispOutOfRange(40000)));
    }

    #[test]
    fn negative_and_char_immediates() {
        let out = assemble("movi r0, -1\nmovi r1, 'A'\n").unwrap();
        let (a, n) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(
            a,
            Instr::MovI {
                dst: Reg::R0,
                imm: u32::MAX
            }
        );
        let (b, _) = Instr::decode(&out.bytes[n..]).unwrap();
        assert_eq!(
            b,
            Instr::MovI {
                dst: Reg::R1,
                imm: 65
            }
        );
    }

    #[test]
    fn alu_and_cond_families() {
        let out = assemble("add r0, r1\nsar r2, r3\njae 0x10\n").unwrap();
        let (a, n) = Instr::decode(&out.bytes).unwrap();
        assert_eq!(
            a,
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg::R0,
                src: Reg::R1
            }
        );
        let (b, n2) = Instr::decode(&out.bytes[n..]).unwrap();
        assert_eq!(
            b,
            Instr::Alu {
                op: AluOp::Sar,
                dst: Reg::R2,
                src: Reg::R3
            }
        );
        let (c, _) = Instr::decode(&out.bytes[n + n2..]).unwrap();
        assert_eq!(
            c,
            Instr::JCond {
                cond: Cond::Ae,
                target: 0x10
            }
        );
    }

    fn err(src: &str) -> (usize, AsmErrorKind) {
        let e = assemble(src).unwrap_err();
        (e.line, e.kind)
    }

    fn bad(payload: &str) -> AsmErrorKind {
        AsmErrorKind::BadOperand(payload.to_string())
    }

    #[test]
    fn parse_errors_on_any_line_come_before_pass_one_errors() {
        // Line 1 has an unknown mnemonic and line 3 a duplicate label, but
        // the malformed operand on line 4 is reported first.
        let src = "frob r0\na: nop\na: nop\nmovi r0, [bp\n";
        assert_eq!(err(src), (4, bad("[bp")));
        assert_eq!(
            err("jmp nowhere\n.ascii 5\n"),
            (2, AsmErrorKind::BadString("5".into()))
        );
    }

    #[test]
    fn pass_one_errors_come_in_statement_order() {
        assert_eq!(
            err("a: nop\nfrob\na: nop\n"),
            (2, AsmErrorKind::UnknownMnemonic("frob".into()))
        );
        assert_eq!(
            err("a: nop\na: frob\n"),
            (2, AsmErrorKind::DuplicateLabel("a".into()))
        );
        assert_eq!(err("nop\n.org 0x10\nfrob\n"), (2, AsmErrorKind::LateOrg));
        // Lines stay right after statements that yield several items.
        assert_eq!(
            err(".byte 1, 2, 3\na: nop\na: nop\n"),
            (3, AsmErrorKind::DuplicateLabel("a".into()))
        );
    }

    #[test]
    fn pass_two_errors_come_after_every_pass_one_error() {
        assert_eq!(
            err("jmp nowhere\nmov r0\nfrob\n"),
            (3, AsmErrorKind::UnknownMnemonic("frob".into()))
        );
        assert_eq!(
            err("jmp nowhere\nmov r0\n"),
            (1, AsmErrorKind::UnknownLabel("nowhere".into()))
        );
        // Within one instruction: operand count, then operands left to right.
        assert_eq!(
            err("mov 5\n"),
            (
                1,
                AsmErrorKind::WrongArity {
                    mnemonic: "mov".into(),
                    expected: 2,
                    got: 1
                }
            )
        );
        assert_eq!(err("store r0, 5\n"), (1, bad("Reg(R0)")));
        assert_eq!(
            err("load r0, [bp+40000]\nmov r0, 5\n"),
            (1, AsmErrorKind::DispOutOfRange(40000))
        );
    }

    #[test]
    fn bad_operand_payloads_use_the_operand_debug_form() {
        assert_eq!(err("mov r0, 5\n"), (1, bad("Imm(5)")));
        assert_eq!(err("movi r0, r1\n"), (1, bad("Reg(R1)")));
        assert_eq!(err("push loop\n"), (1, bad("Label(\"loop\")")));
        assert_eq!(
            err("mov r0, [bp-4]\n"),
            (1, bad("Mem { base: Bp, disp: -4 }"))
        );
        assert_eq!(err("load r0, r1\n"), (1, bad("Reg(R1)")));
        assert_eq!(err(".word r2\n"), (1, bad("Reg(R2)")));
        assert_eq!(err(".byte \"x\"\n"), (1, bad("Str(\"x\")")));
        // An escaped literal is reported in its unescaped form.
        assert_eq!(err("movi r0, \"a\\nb\"\n"), (1, bad("Str(\"a\\nb\")")));
    }

    #[test]
    fn parse_error_payloads_quote_the_source() {
        assert_eq!(err(".org r0\n"), (1, bad("r0")));
        assert_eq!(err(".space -1\n"), (1, bad("-1")));
        assert_eq!(err("movi r0, @\n"), (1, bad("@")));
        assert_eq!(err("movi r0, ,\n"), (1, bad("")));
        assert_eq!(
            err(".ascii \"a\\q\"\n"),
            (1, AsmErrorKind::BadString("\"a\\q\"".into()))
        );
    }

    #[test]
    fn mnemonics_are_case_insensitive_and_errors_report_them_lowercase() {
        let upper = assemble("MOVI r0, 1\n.BYTE 2\n").unwrap();
        assert_eq!(
            upper.bytes,
            assemble("movi r0, 1\n.byte 2\n").unwrap().bytes
        );
        assert_eq!(
            err("FROB\n"),
            (1, AsmErrorKind::UnknownMnemonic("frob".into()))
        );
        assert_eq!(
            err("Mov r0\n"),
            (
                1,
                AsmErrorKind::WrongArity {
                    mnemonic: "mov".into(),
                    expected: 2,
                    got: 1
                }
            )
        );
    }

    #[test]
    fn integer_forms_beyond_the_fast_path() {
        let imm = |src: &str| match Instr::decode(&assemble(src).unwrap().bytes).unwrap().0 {
            Instr::MovI { imm, .. } => imm,
            other => panic!("{other:?}"),
        };
        assert_eq!(imm("movi r0, 0x1_0\n"), 0x10);
        assert_eq!(imm("movi r0, 0XfF\n"), 0xff);
        assert_eq!(imm("movi r0, 1_000\n"), 1000);
        assert_eq!(imm("movi r0, -0x10\n"), (-16i32) as u32);
        assert_eq!(imm("movi r0, +7\n"), 7);
        assert_eq!(imm("movi r0, --5\n"), 5);
        assert_eq!(imm("movi r0, '''\n"), 39);
        // Out of i64 range is not a number, so it parses as a label.
        let huge = "99999999999999999999";
        assert_eq!(
            err(&format!("movi r0, {huge}\n")),
            (1, AsmErrorKind::UnknownLabel(huge.into()))
        );
    }
}
