//! ROP gadget discovery.
//!
//! A gadget is a short instruction sequence ending in `ret`, found by
//! decoding the text segment **from every byte offset** — variable-
//! length encoding means unintended instruction streams hide inside
//! intended ones (Shacham's "geometry of innocent flesh on the bone",
//! the paper's reference \[2\]).

use std::fmt;

use swsec_vm::isa::{Instr, Reg};

/// A discovered gadget: its address and decoded instructions (the last
/// is always `ret`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gadget {
    /// Address of the first instruction.
    pub addr: u32,
    /// The instructions, ending with `ret`.
    pub instrs: Vec<Instr>,
}

impl Gadget {
    /// Whether the gadget is exactly `pop <reg>; ret` — the workhorse
    /// for loading attacker-controlled words into registers.
    pub fn is_pop_ret(&self, reg: Reg) -> bool {
        self.instrs.len() == 2 && self.instrs[0] == Instr::Pop(reg)
    }
}

impl fmt::Display for Gadget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}:", self.addr)?;
        for i in &self.instrs {
            write!(f, " {i};")?;
        }
        Ok(())
    }
}

/// Scans an image for gadgets.
#[derive(Debug)]
pub struct GadgetFinder {
    gadgets: Vec<Gadget>,
}

impl GadgetFinder {
    /// Sweeps `code` (loaded at `base`) from every byte offset, keeping
    /// sequences of at most `max_len` instructions that end in `ret`.
    pub fn scan(code: &[u8], base: u32, max_len: usize) -> GadgetFinder {
        let mut gadgets = Vec::new();
        for start in 0..code.len() {
            let mut offset = start;
            let mut instrs = Vec::new();
            while instrs.len() < max_len && offset < code.len() {
                match Instr::decode(&code[offset..]) {
                    Ok((instr, len)) => {
                        let is_ret = instr == Instr::Ret;
                        // Other control transfers end the sequence without
                        // making it a gadget (control escapes).
                        let is_transfer = instr.is_control_transfer();
                        instrs.push(instr);
                        offset += len;
                        if is_ret {
                            gadgets.push(Gadget {
                                addr: base + start as u32,
                                instrs: instrs.clone(),
                            });
                            break;
                        }
                        if is_transfer {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        gadgets.sort_by_key(|g| (g.instrs.len(), g.addr));
        gadgets.dedup();
        GadgetFinder { gadgets }
    }

    /// All discovered gadgets, shortest first.
    pub fn gadgets(&self) -> &[Gadget] {
        &self.gadgets
    }

    /// The address of a `pop <reg>; ret` gadget, if one exists.
    pub fn pop_ret(&self, reg: Reg) -> Option<u32> {
        self.gadgets
            .iter()
            .find(|g| g.is_pop_ret(reg))
            .map(|g| g.addr)
    }

    /// The address of a bare `ret` gadget (a ROP no-op / stack pivot
    /// landing pad), if one exists.
    pub fn ret(&self) -> Option<u32> {
        self.gadgets
            .iter()
            .find(|g| g.instrs.len() == 1)
            .map(|g| g.addr)
    }

    /// Gadgets whose first instruction satisfies `pred`.
    pub fn matching<F>(&self, pred: F) -> Vec<&Gadget>
    where
        F: Fn(&Instr) -> bool,
    {
        self.gadgets
            .iter()
            .filter(|g| g.instrs.first().is_some_and(&pred))
            .collect()
    }
}

/// Finds the address of the first instruction inside `code` (loaded at
/// `base`) satisfying `pred`, by linear sweep from offset 0 — how an
/// attacker locates a useful interior instruction such as the
/// `tries_left = 3` store of the paper's Figure 4 attack.
pub fn find_instr_addr<F>(code: &[u8], base: u32, pred: F) -> Option<u32>
where
    F: Fn(&Instr) -> bool,
{
    let mut offset = 0usize;
    while offset < code.len() {
        match Instr::decode(&code[offset..]) {
            Ok((instr, len)) => {
                if pred(&instr) {
                    return Some(base + offset as u32);
                }
                offset += len;
            }
            Err(_) => offset += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::isa::Reg;

    fn encode_all(instrs: &[Instr]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in instrs {
            i.encode(&mut out);
        }
        out
    }

    #[test]
    fn finds_intended_pop_ret() {
        let code = encode_all(&[Instr::Nop, Instr::Pop(Reg::R3), Instr::Ret, Instr::Halt]);
        let finder = GadgetFinder::scan(&code, 0x1000, 4);
        assert_eq!(finder.pop_ret(Reg::R3), Some(0x1001));
        assert!(finder.ret().is_some());
    }

    #[test]
    fn finds_unintended_gadget_inside_immediate() {
        // movi r0, imm where the immediate bytes encode `pop r1; ret`.
        let hidden = encode_all(&[Instr::Pop(Reg::R1), Instr::Ret]);
        assert_eq!(hidden.len(), 3);
        let imm = u32::from_le_bytes([hidden[0], hidden[1], hidden[2], 0x00]);
        let code = encode_all(&[Instr::MovI { dst: Reg::R0, imm }, Instr::Halt]);
        let finder = GadgetFinder::scan(&code, 0x2000, 4);
        // The intended stream has no pop/ret at all, yet the gadget exists
        // at the misaligned offset.
        assert_eq!(finder.pop_ret(Reg::R1), Some(0x2002));
    }

    #[test]
    fn sequences_crossing_other_transfers_are_not_gadgets() {
        let code = encode_all(&[Instr::Pop(Reg::R0), Instr::Jmp(0x9999), Instr::Ret]);
        let finder = GadgetFinder::scan(&code, 0, 4);
        // `pop r0; jmp; …` is cut at the jmp; the bare ret still counts.
        assert!(finder.pop_ret(Reg::R0).is_none());
        assert!(finder.ret().is_some());
    }

    #[test]
    fn max_len_bounds_gadget_size() {
        let code = encode_all(&[Instr::Nop, Instr::Nop, Instr::Nop, Instr::Nop, Instr::Ret]);
        let finder = GadgetFinder::scan(&code, 0, 2);
        // Only windows of ≤2 instructions survive: `nop; ret` and `ret`.
        assert!(finder.gadgets().iter().all(|g| g.instrs.len() <= 2));
        assert!(!finder.gadgets().is_empty());
    }

    #[test]
    fn find_instr_addr_locates_interior_store() {
        let code = encode_all(&[
            Instr::Enter(8),
            Instr::MovI {
                dst: Reg::R0,
                imm: 3,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R0,
            },
            Instr::Leave,
            Instr::Ret,
        ]);
        let addr = find_instr_addr(&code, 0x5000, |i| matches!(i, Instr::MovI { imm: 3, .. }));
        assert_eq!(addr, Some(0x5005));
    }

    #[test]
    fn gadget_display_shows_instructions() {
        let g = Gadget {
            addr: 0x1234,
            instrs: vec![Instr::Pop(Reg::R0), Instr::Ret],
        };
        assert_eq!(g.to_string(), "0x00001234: pop r0; ret;");
    }
}
