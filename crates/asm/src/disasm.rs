//! Linear-sweep disassembler.
//!
//! Decodes a byte image back into instructions, tolerating data mixed
//! into the instruction stream (undecodable bytes become `.byte` lines).
//! Because the ISA has variable-length instructions, sweeping from a
//! different start offset yields a different instruction stream — the
//! property the gadget scanner in `swsec-attacks` exploits by sweeping
//! from *every* offset.

use std::fmt;

use swsec_vm::isa::Instr;

/// One disassembled item: either an instruction or a raw data byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisasmItem {
    /// A decoded instruction.
    Instr(Instr),
    /// A byte that does not start a valid instruction.
    Data(u8),
}

/// A disassembled line: address, encoded length and the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisasmLine {
    /// Address of the first byte.
    pub addr: u32,
    /// Number of bytes consumed.
    pub len: usize,
    /// The decoded content.
    pub item: DisasmItem,
}

impl fmt::Display for DisasmLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.item {
            DisasmItem::Instr(i) => write!(f, "{:#010x}: {}", self.addr, i),
            DisasmItem::Data(b) => write!(f, "{:#010x}: .byte {b:#04x}", self.addr),
        }
    }
}

/// Disassembles `bytes` as loaded at `base`, sweeping linearly from the
/// first byte. Undecodable bytes are emitted one at a time as
/// [`DisasmItem::Data`] so the sweep always makes progress.
///
/// # Examples
///
/// ```
/// use swsec_vm::isa::{Instr, Reg};
///
/// let mut bytes = Vec::new();
/// Instr::Push(Reg::Bp).encode(&mut bytes);
/// Instr::Ret.encode(&mut bytes);
/// let lines = swsec_asm::disassemble(&bytes, 0x1000);
/// assert_eq!(lines.len(), 2);
/// assert_eq!(lines[1].to_string(), "0x00001002: ret");
/// ```
pub fn disassemble(bytes: &[u8], base: u32) -> Vec<DisasmLine> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        match Instr::decode(&bytes[offset..]) {
            Ok((instr, len)) => {
                out.push(DisasmLine {
                    addr: base.wrapping_add(offset as u32),
                    len,
                    item: DisasmItem::Instr(instr),
                });
                offset += len;
            }
            Err(_) => {
                out.push(DisasmLine {
                    addr: base.wrapping_add(offset as u32),
                    len: 1,
                    item: DisasmItem::Data(bytes[offset]),
                });
                offset += 1;
            }
        }
    }
    out
}

/// Renders a full listing with hex bytes alongside each line, in the
/// style of the paper's Figure 1(b).
pub fn format_listing(bytes: &[u8], base: u32) -> String {
    let mut out = String::new();
    for line in disassemble(bytes, base) {
        let offset = line.addr.wrapping_sub(base) as usize;
        let hex: Vec<String> = bytes[offset..offset + line.len]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let text = match line.item {
            DisasmItem::Instr(i) => i.to_string(),
            DisasmItem::Data(b) => format!(".byte {b:#04x}"),
        };
        out.push_str(&format!(
            "{:#010x}:  {:<18} {}\n",
            line.addr,
            hex.join(" "),
            text
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::isa::Reg;

    #[test]
    fn sweep_decodes_instruction_sequence() {
        let mut bytes = Vec::new();
        Instr::Enter(0x18).encode(&mut bytes);
        Instr::Lea {
            dst: Reg::R0,
            base: Reg::Bp,
            disp: -16,
        }
        .encode(&mut bytes);
        Instr::Leave.encode(&mut bytes);
        Instr::Ret.encode(&mut bytes);
        let lines = disassemble(&bytes, 0x0804_83f2);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].addr, 0x0804_83f2);
        assert_eq!(lines[0].item, DisasmItem::Instr(Instr::Enter(0x18)));
        assert_eq!(lines[3].item, DisasmItem::Instr(Instr::Ret));
    }

    #[test]
    fn invalid_bytes_become_data_lines() {
        let bytes = vec![0xFF, 0x00]; // invalid, then nop
        let lines = disassemble(&bytes, 0);
        assert_eq!(lines[0].item, DisasmItem::Data(0xFF));
        assert_eq!(lines[1].item, DisasmItem::Instr(Instr::Nop));
    }

    #[test]
    fn truncated_tail_becomes_data() {
        // A lone MOVI opcode byte with no immediate following.
        let bytes = vec![swsec_vm::isa::opcode::MOVI];
        let lines = disassemble(&bytes, 0);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].item, DisasmItem::Data(swsec_vm::isa::opcode::MOVI));
    }

    #[test]
    fn listing_contains_hex_and_mnemonics() {
        let mut bytes = Vec::new();
        Instr::Push(Reg::Bp).encode(&mut bytes);
        let listing = format_listing(&bytes, 0x1000);
        assert!(listing.contains("push bp"));
        assert!(listing.contains("08 09"));
    }

    #[test]
    fn different_offsets_yield_different_streams() {
        let mut bytes = Vec::new();
        // The immediate contains a RET opcode byte.
        Instr::MovI {
            dst: Reg::R0,
            imm: u32::from_le_bytes([swsec_vm::isa::opcode::RET, 0, 0, 0]),
        }
        .encode(&mut bytes);
        let from_zero = disassemble(&bytes, 0);
        assert_eq!(from_zero.len(), 1);
        let from_two = disassemble(&bytes[2..], 2);
        assert_eq!(from_two[0].item, DisasmItem::Instr(Instr::Ret));
    }
}
