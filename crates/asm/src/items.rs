//! The assembler's statement IR and its shared back end.
//!
//! An [`Assembly`] is a list of [`Item`]s — labels, instructions and
//! data directives — with labels referenced by numeric [`Label`] id
//! rather than by name. [`Assembly::link`] is the one back end: pass 1
//! assigns every label its address, pass 2 patches label immediates and
//! calls [`Instr::encode`]. The text front end ([`assemble`]) parses
//! hand-written source into items; the MinC compiler builds items
//! directly and never goes through text.
//!
//! Each instruction also records how its operands are spelled, so
//! [`Assembly::render`] can list the items as source text that
//! re-assembles to the same image.
//!
//! [`assemble`]: crate::assemble

use swsec_vm::isa::{Instr, Reg, MAX_INSTR_LEN};

use crate::asm::{AsmError, AsmErrorKind};

/// A label, numbered by [`Assembly::label`] in allocation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// A constant or the address of a label (the operand of `.byte` and
/// `.word`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A constant.
    Const(u32),
    /// The label's address.
    Label(Label),
}

/// An instruction with its listing spelling.
///
/// By default an immediate is listed in decimal, a memory operand as
/// `[reg+disp]` (signed, even when zero) and the line is indented by
/// four spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    instr: Instr,
    /// The spelling flags and, under [`TARGET`], the id of the label
    /// whose address replaces the immediate operand, in one word so
    /// that an [`Item`] takes 12 bytes.
    bits: u32,
}

/// [`Insn::bits`]: the low bits hold a target label's id.
const TARGET: u32 = 1 << 28;
/// [`Insn::bits`]: list the immediate in hex.
const HEX: u32 = 1 << 29;
/// [`Insn::bits`]: list the memory operand as `[reg]`.
const BARE: u32 = 1 << 30;
/// [`Insn::bits`]: list the line without indentation.
const FLUSH: u32 = 1 << 31;

impl Insn {
    /// An instruction whose operands are all given.
    #[must_use]
    pub fn new(instr: Instr) -> Insn {
        Insn { instr, bits: 0 }
    }

    /// An instruction whose immediate operand is the address of
    /// `label`; the immediate in `instr` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `instr` has no immediate operand, or if the label's id
    /// is 2^28 or more.
    #[must_use]
    pub fn with_target(instr: Instr, label: Label) -> Insn {
        assert!(
            with_imm(instr, 0).is_some(),
            "{instr} has no immediate operand"
        );
        assert!(label.0 < TARGET, "label id {} too large", label.0);
        Insn {
            instr,
            bits: TARGET | label.0,
        }
    }

    /// Lists the immediate in hex (`0x2a`).
    #[must_use]
    pub fn hex(self) -> Insn {
        self.with(HEX)
    }

    /// Lists a memory operand as `[reg]` (its displacement must be 0).
    #[must_use]
    pub fn bare(self) -> Insn {
        debug_assert_eq!(mem_of(&self.instr).map(|(_, disp)| disp), Some(0));
        self.with(BARE)
    }

    /// Lists the line without indentation.
    #[must_use]
    pub fn flush(self) -> Insn {
        self.with(FLUSH)
    }

    fn with(self, flag: u32) -> Insn {
        Insn {
            bits: self.bits | flag,
            ..self
        }
    }

    fn has(self, flag: u32) -> bool {
        self.bits & flag != 0
    }

    /// The label whose address replaces the immediate, if any.
    fn target(self) -> Option<Label> {
        self.has(TARGET).then_some(Label(self.bits & (TARGET - 1)))
    }
}

impl From<Instr> for Insn {
    fn from(instr: Instr) -> Insn {
        Insn::new(instr)
    }
}

/// One statement of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// Defines a label at the current address.
    Label(Label),
    /// An instruction.
    Insn(Insn),
    /// `.org`: sets the base address; must precede any emitted byte.
    Org(u32),
    /// `.byte`: the low byte of a value.
    Byte(Value),
    /// `.word`: a little-endian 32-bit value.
    Word(Value),
    /// `.ascii`: a range of the assembly's string pool, pushed by
    /// [`Assembly::ascii`].
    Ascii {
        /// Offset into the pool.
        start: u32,
        /// Length in bytes.
        len: u32,
    },
    /// `.space`: this many zero bytes.
    Space(u32),
}

/// A program in the statement IR: the items, the bytes of their
/// `.ascii` strings, and the number of labels allocated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assembly {
    items: Vec<Item>,
    pool: Vec<u8>,
    labels: u32,
}

/// The encoded image and every label's address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linked {
    /// Load address of the first emitted byte.
    pub base: u32,
    /// The raw image.
    pub bytes: Vec<u8>,
    /// Address of each label by id; `None` if it was never defined.
    pub labels: Vec<Option<u32>>,
}

impl Linked {
    /// Address of a label.
    ///
    /// # Panics
    ///
    /// Panics if the label was never defined.
    #[must_use]
    pub fn addr(&self, label: Label) -> u32 {
        self.labels[label.0 as usize].expect("label defined")
    }
}

/// What [`Assembly::link`] rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkErrorKind {
    /// The same label defined twice.
    DuplicateLabel(Label),
    /// A reference to a label that is never defined.
    UndefinedLabel(Label),
    /// `.org` after bytes were already emitted.
    LateOrg,
}

/// A link error at an item index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkError {
    /// Index of the offending item.
    pub item: usize,
    /// The specific problem.
    pub kind: LinkErrorKind,
}

impl LinkError {
    /// The assembler error for this failure at source line `line`, with
    /// labels spelled by `name`.
    pub fn to_asm_error(&self, line: usize, name: impl Fn(Label) -> String) -> AsmError {
        let kind = match self.kind {
            LinkErrorKind::DuplicateLabel(l) => AsmErrorKind::DuplicateLabel(name(l)),
            LinkErrorKind::UndefinedLabel(l) => AsmErrorKind::UnknownLabel(name(l)),
            LinkErrorKind::LateOrg => AsmErrorKind::LateOrg,
        };
        AsmError { line, kind }
    }
}

/// `instr` with its immediate operand replaced by `value` (truncated
/// to a byte for `sys` and `trap`); `None` if it has no immediate.
fn with_imm(instr: Instr, value: u32) -> Option<Instr> {
    Some(match instr {
        Instr::MovI { dst, .. } => Instr::MovI { dst, imm: value },
        Instr::AddI { dst, .. } => Instr::AddI { dst, imm: value },
        Instr::CmpI { a, .. } => Instr::CmpI { a, imm: value },
        Instr::PushI(_) => Instr::PushI(value),
        Instr::Jmp(_) => Instr::Jmp(value),
        Instr::Call(_) => Instr::Call(value),
        Instr::Enter(_) => Instr::Enter(value),
        Instr::JCond { cond, .. } => Instr::JCond {
            cond,
            target: value,
        },
        Instr::Sys(_) => Instr::Sys(value as u8),
        Instr::Trap(_) => Instr::Trap(value as u8),
        _ => return None,
    })
}

/// The memory operand of `instr`, if it has one.
fn mem_of(instr: &Instr) -> Option<(Reg, i16)> {
    match *instr {
        Instr::Load { base, disp, .. }
        | Instr::LoadB { base, disp, .. }
        | Instr::Lea { base, disp, .. }
        | Instr::Store { base, disp, .. }
        | Instr::StoreB { base, disp, .. } => Some((base, disp)),
        _ => None,
    }
}

impl Assembly {
    /// An empty assembly.
    #[must_use]
    pub fn new() -> Assembly {
        Assembly::default()
    }

    /// An empty assembly with room for `items` items.
    #[must_use]
    pub fn with_capacity(items: usize) -> Assembly {
        Assembly {
            items: Vec::with_capacity(items),
            ..Assembly::default()
        }
    }

    /// Allocates a new label id; define it by pushing [`Item::Label`].
    pub fn label(&mut self) -> Label {
        self.labels += 1;
        Label(self.labels - 1)
    }

    /// Appends an item.
    pub fn push(&mut self, item: Item) {
        self.items.push(item);
    }

    /// Appends an instruction.
    pub fn insn(&mut self, insn: impl Into<Insn>) {
        self.items.push(Item::Insn(insn.into()));
    }

    /// Appends an `.ascii` item holding `bytes`.
    pub fn ascii(&mut self, bytes: &[u8]) {
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(bytes);
        self.items.push(Item::Ascii {
            start,
            len: bytes.len() as u32,
        });
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops spare capacity, for an assembly kept after it is built.
    pub fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
        self.pool.shrink_to_fit();
    }

    fn pool(&self, start: u32, len: u32) -> &[u8] {
        &self.pool[start as usize..(start + len) as usize]
    }

    /// Encodes the items into an image: pass 1 assigns label
    /// addresses, pass 2 patches label operands and encodes.
    ///
    /// # Errors
    ///
    /// Pass 1 stops at the first duplicate label or late `.org`; pass 2
    /// at the first reference to a label that is never defined.
    pub fn link(&self) -> Result<Linked, LinkError> {
        let mut labels = vec![None; self.labels as usize];
        let mut base = 0u32;
        let mut pc = 0u32;
        let mut emitted = false;
        for (item, it) in self.items.iter().enumerate() {
            let err = |kind| LinkError { item, kind };
            let len = match *it {
                Item::Org(addr) => {
                    if emitted {
                        return Err(err(LinkErrorKind::LateOrg));
                    }
                    base = addr;
                    pc = addr;
                    0
                }
                Item::Label(l) => {
                    if labels[l.0 as usize].replace(pc).is_some() {
                        return Err(err(LinkErrorKind::DuplicateLabel(l)));
                    }
                    0
                }
                Item::Insn(insn) => insn.instr.len() as u32,
                Item::Byte(_) => 1,
                Item::Word(_) => 4,
                Item::Ascii { len, .. } | Item::Space(len) => len,
            };
            emitted |= len > 0;
            pc = pc.wrapping_add(len);
        }

        // `Instr::encode` copies a whole `MAX_INSTR_LEN` buffer before
        // it truncates to the instruction: room for that past the end.
        let mut bytes = Vec::with_capacity(pc.wrapping_sub(base) as usize + MAX_INSTR_LEN);
        for (item, it) in self.items.iter().enumerate() {
            let resolve = |l: Label| {
                let kind = LinkErrorKind::UndefinedLabel(l);
                labels[l.0 as usize].ok_or(LinkError { item, kind })
            };
            let value = |v: Value| match v {
                Value::Const(c) => Ok(c),
                Value::Label(l) => resolve(l),
            };
            match *it {
                Item::Org(_) | Item::Label(_) => {}
                Item::Insn(insn) => match insn.target() {
                    Some(l) => with_imm(insn.instr, resolve(l)?)
                        .expect("Insn::with_target checked the immediate")
                        .encode(&mut bytes),
                    None => insn.instr.encode(&mut bytes),
                },
                Item::Byte(v) => bytes.push(value(v)? as u8),
                Item::Word(v) => bytes.extend_from_slice(&value(v)?.to_le_bytes()),
                Item::Ascii { start, len } => bytes.extend_from_slice(self.pool(start, len)),
                Item::Space(n) => bytes.resize(bytes.len() + n as usize, 0),
            }
        }
        Ok(Linked {
            base,
            bytes,
            labels,
        })
    }

    /// Lists the items as assembly source, one line per item, with
    /// labels spelled by `name`. The text re-assembles to the image
    /// [`link`](Assembly::link) encodes.
    pub fn render(&self, out: &mut String, mut name: impl FnMut(&mut String, Label)) {
        for it in &self.items {
            match *it {
                Item::Label(l) => {
                    name(out, l);
                    out.push(':');
                }
                Item::Org(addr) => {
                    out.push_str(".org ");
                    push_hex(out, addr);
                }
                Item::Insn(insn) => render_insn(out, &insn, &mut name),
                Item::Byte(v) | Item::Word(v) => {
                    let byte = matches!(it, Item::Byte(_));
                    out.push_str(if byte { "    .byte " } else { "    .word " });
                    match v {
                        Value::Const(c) => push_hex(out, c),
                        Value::Label(l) => name(out, l),
                    }
                }
                Item::Ascii { start, len } => {
                    out.push_str("    .ascii \"");
                    for &b in self.pool(start, len) {
                        match b {
                            b'\n' => out.push_str("\\n"),
                            b'\t' => out.push_str("\\t"),
                            0 => out.push_str("\\0"),
                            b'\\' => out.push_str("\\\\"),
                            b'"' => out.push_str("\\\""),
                            _ => out.push(char::from(b)),
                        }
                    }
                    out.push('"');
                }
                Item::Space(n) => {
                    out.push_str("    .space ");
                    push_dec(out, n);
                }
            }
            out.push('\n');
        }
    }
}

fn render_insn(out: &mut String, insn: &Insn, name: &mut impl FnMut(&mut String, Label)) {
    if !insn.has(FLUSH) {
        out.push_str("    ");
    }
    out.push_str(insn.instr.mnemonic());
    let mut imm = |out: &mut String, value: u32| match insn.target() {
        Some(l) => name(out, l),
        None if insn.has(HEX) => push_hex(out, value),
        None => push_dec(out, value),
    };
    let mem = |out: &mut String, base: Reg, disp: i16| {
        out.push('[');
        out.push_str(base.name());
        if !insn.has(BARE) {
            out.push(if disp < 0 { '-' } else { '+' });
            push_dec(out, u32::from(disp.unsigned_abs()));
        }
        out.push(']');
    };
    match insn.instr {
        Instr::Nop | Instr::Halt | Instr::Ret | Instr::Leave => {}
        Instr::MovI { dst: r, imm: v }
        | Instr::AddI { dst: r, imm: v }
        | Instr::CmpI { a: r, imm: v } => {
            out.push(' ');
            out.push_str(r.name());
            out.push_str(", ");
            imm(out, v);
        }
        Instr::Mov { dst: a, src: b } | Instr::Cmp { a, b } | Instr::Alu { dst: a, src: b, .. } => {
            out.push(' ');
            out.push_str(a.name());
            out.push_str(", ");
            out.push_str(b.name());
        }
        Instr::Load { dst, base, disp }
        | Instr::LoadB { dst, base, disp }
        | Instr::Lea { dst, base, disp } => {
            out.push(' ');
            out.push_str(dst.name());
            out.push_str(", ");
            mem(out, base, disp);
        }
        Instr::Store { base, disp, src } | Instr::StoreB { base, disp, src } => {
            out.push(' ');
            mem(out, base, disp);
            out.push_str(", ");
            out.push_str(src.name());
        }
        Instr::Push(r) | Instr::Pop(r) | Instr::CallR(r) | Instr::JmpR(r) => {
            out.push(' ');
            out.push_str(r.name());
        }
        Instr::PushI(v)
        | Instr::Jmp(v)
        | Instr::Call(v)
        | Instr::Enter(v)
        | Instr::JCond { target: v, .. } => {
            out.push(' ');
            imm(out, v);
        }
        Instr::Sys(n) | Instr::Trap(n) => {
            out.push(' ');
            imm(out, u32::from(n));
        }
    }
}

/// Appends `v` in decimal.
pub(crate) fn push_dec(out: &mut String, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Appends `v` as `{:#x}` does: `0x` and lowercase digits, no padding.
pub(crate) fn push_hex(out: &mut String, v: u32) {
    let mut buf = *b"0x00000000";
    let digits = ((32 - v.leading_zeros()).max(1) as usize).div_ceil(4);
    for k in 0..digits {
        let nibble = (v >> (4 * k)) & 0xf;
        buf[1 + digits - k] = b"0123456789abcdef"[nibble as usize];
    }
    out.push_str(std::str::from_utf8(&buf[..2 + digits]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::isa::Cond;

    fn render(asm: &Assembly) -> String {
        let mut out = String::new();
        asm.render(&mut out, |out, l| {
            out.push('l');
            push_dec(out, l.0);
        });
        out
    }

    #[test]
    fn number_spellings_match_std_formatting() {
        for v in [
            0,
            1,
            9,
            10,
            15,
            16,
            255,
            4096,
            0x0804_8000,
            0xffff_fff8,
            u32::MAX,
        ] {
            let (mut hex, mut dec) = (String::new(), String::new());
            push_hex(&mut hex, v);
            push_dec(&mut dec, v);
            assert_eq!(hex, format!("{v:#x}"));
            assert_eq!(dec, v.to_string());
        }
    }

    #[test]
    fn rendered_items_reassemble_to_the_linked_image() {
        let mut asm = Assembly::new();
        let (top, data) = (asm.label(), asm.label());
        asm.push(Item::Org(0x1000));
        asm.push(Item::Label(top));
        asm.insn(Insn::new(Instr::Enter(0x10)).hex());
        asm.insn(Instr::Load {
            dst: Reg::R0,
            base: Reg::Bp,
            disp: 0,
        });
        asm.insn(
            Insn::new(Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R2,
            })
            .bare(),
        );
        asm.insn(
            Insn::new(Instr::Lea {
                dst: Reg::R3,
                base: Reg::R4,
                disp: -4,
            })
            .flush(),
        );
        asm.insn(Insn::with_target(
            Instr::MovI {
                dst: Reg::R1,
                imm: 0,
            },
            data,
        ));
        asm.insn(Insn::with_target(
            Instr::JCond {
                cond: Cond::Ae,
                target: 0,
            },
            top,
        ));
        asm.insn(Instr::Trap(3));
        asm.push(Item::Label(data));
        asm.push(Item::Word(Value::Label(top)));
        asm.push(Item::Byte(Value::Const(0xff)));
        asm.ascii(b"a\"\\\n\t\0z");
        asm.push(Item::Space(3));
        let linked = asm.link().unwrap();
        let text = render(&asm);
        assert!(
            text.starts_with(".org 0x1000\nl0:\n    enter 0x10\n    load r0, [bp+0]\n"),
            "{text}"
        );
        assert!(
            text.contains("    store [r1], r2\nlea r3, [r4-4]\n    movi r1, l1\n    jae l0\n"),
            "{text}"
        );
        let out = crate::assemble(&text).unwrap();
        assert_eq!((out.base, &out.bytes), (linked.base, &linked.bytes));
        assert_eq!(out.labels["l1"], linked.addr(data));
    }

    #[test]
    fn items_stay_compact() {
        // A compiled program keeps one item per listing line, in less
        // than the ≈15 bytes of the line; no item owns heap.
        assert!(
            std::mem::size_of::<Item>() <= 12,
            "{}",
            std::mem::size_of::<Item>()
        );
    }

    #[test]
    fn link_errors_name_the_item() {
        let mut asm = Assembly::new();
        let l = asm.label();
        asm.insn(Insn::with_target(Instr::Jmp(0), l));
        assert_eq!(
            asm.link(),
            Err(LinkError {
                item: 0,
                kind: LinkErrorKind::UndefinedLabel(l)
            })
        );
        asm.push(Item::Label(l));
        asm.push(Item::Label(l));
        assert_eq!(
            asm.link(),
            Err(LinkError {
                item: 2,
                kind: LinkErrorKind::DuplicateLabel(l)
            })
        );
    }
}
