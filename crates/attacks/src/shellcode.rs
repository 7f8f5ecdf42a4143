//! Shellcode: small machine-code programs the attacker injects as data.
//!
//! Each builder assembles a self-contained routine for a given load
//! address (shellcode is position-dependent in this ISA, as addresses
//! are absolute). The classic payloads are provided: exit with a
//! marker, write a message to a channel, and exfiltrate a memory range
//! — the post-exploitation halves of the §III-B attacks.

use swsec_asm::assemble;
use swsec_vm::isa::sys;

/// Shellcode that exits the process with `code` — the minimal proof of
/// arbitrary code execution (an attacker-chosen exit code is observable
/// behaviour the source program cannot produce).
pub fn exit_shellcode(code: u32) -> Vec<u8> {
    let src = format!(
        "movi r0, {code:#x}\n\
         sys {exit}\n",
        exit = sys::EXIT
    );
    assemble(&src).expect("static shellcode assembles").bytes
}

/// Shellcode that writes `message` to channel `fd` and exits with
/// `code`. `base` is the address the shellcode will run at (needed to
/// reference its embedded message).
pub fn write_shellcode(base: u32, fd: u32, message: &[u8], code: u32) -> Vec<u8> {
    let escaped: String = message
        .iter()
        .map(|&b| match b {
            b'"' => "\\\"".to_string(),
            b'\\' => "\\\\".to_string(),
            b'\n' => "\\n".to_string(),
            0x20..=0x7e => (b as char).to_string(),
            _ => "\\0".to_string(), // non-printables collapse; fine for markers
        })
        .collect();
    let src = format!(
        ".org {base:#x}\n\
         movi r0, {fd:#x}\n\
         movi r1, msg\n\
         movi r2, {len:#x}\n\
         sys {write}\n\
         movi r0, {code:#x}\n\
         sys {exit}\n\
         msg: .ascii \"{escaped}\"\n",
        len = message.len(),
        write = sys::WRITE,
        exit = sys::EXIT,
    );
    assemble(&src).expect("static shellcode assembles").bytes
}

/// Shellcode that dumps `len` bytes starting at `addr` to channel `fd`
/// and exits — memory exfiltration (the machine-code half of an
/// information-leak attack).
pub fn dump_memory_shellcode(fd: u32, addr: u32, len: u32) -> Vec<u8> {
    let src = format!(
        "movi r0, {fd:#x}\n\
         movi r1, {addr:#x}\n\
         movi r2, {len:#x}\n\
         sys {write}\n\
         movi r0, 0\n\
         sys {exit}\n",
        write = sys::WRITE,
        exit = sys::EXIT,
    );
    assemble(&src).expect("static shellcode assembles").bytes
}

/// Shellcode that stores `value` to `addr` then exits with `code` —
/// the minimal data-corruption primitive.
pub fn poke_shellcode(addr: u32, value: u32, code: u32) -> Vec<u8> {
    let src = format!(
        "movi r1, {addr:#x}\n\
         movi r0, {value:#x}\n\
         store [r1], r0\n\
         movi r0, {code:#x}\n\
         sys {exit}\n",
        exit = sys::EXIT,
    );
    assemble(&src).expect("static shellcode assembles").bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::mem::Perm;
    use swsec_vm::prelude::*;

    fn run_shellcode(bytes: &[u8], base: u32) -> (RunOutcome, Machine) {
        let mut m = Machine::new();
        m.mem_mut().map(base, 0x1000, Perm::RX).unwrap();
        m.mem_mut().poke_bytes(base, bytes).unwrap();
        m.set_ip(base);
        let outcome = m.run(10_000);
        (outcome, m)
    }

    #[test]
    fn exit_shellcode_exits_with_marker() {
        let (outcome, _) = run_shellcode(&exit_shellcode(0x1337), 0x4000);
        assert_eq!(outcome, RunOutcome::Halted(0x1337));
    }

    #[test]
    fn write_shellcode_emits_message() {
        let code = write_shellcode(0x4000, 1, b"PWNED", 7);
        let (outcome, m) = run_shellcode(&code, 0x4000);
        assert_eq!(outcome, RunOutcome::Halted(7));
        assert_eq!(m.io().output(1), b"PWNED");
    }

    #[test]
    fn dump_memory_shellcode_exfiltrates() {
        let mut m = Machine::new();
        m.mem_mut().map(0x4000, 0x1000, Perm::RX).unwrap();
        m.mem_mut().map(0x8000, 0x1000, Perm::RW).unwrap();
        m.mem_mut()
            .poke_bytes(0x8000, b"secret-key-material")
            .unwrap();
        let code = dump_memory_shellcode(2, 0x8000, 10);
        m.mem_mut().poke_bytes(0x4000, &code).unwrap();
        m.set_ip(0x4000);
        assert_eq!(m.run(10_000), RunOutcome::Halted(0));
        assert_eq!(m.io().output(2), b"secret-key");
    }

    #[test]
    fn poke_shellcode_corrupts_data() {
        let mut m = Machine::new();
        m.mem_mut().map(0x4000, 0x1000, Perm::RX).unwrap();
        m.mem_mut().map(0x8000, 0x1000, Perm::RW).unwrap();
        let code = poke_shellcode(0x8000, 0x0000_0001, 3);
        m.mem_mut().poke_bytes(0x4000, &code).unwrap();
        m.set_ip(0x4000);
        assert_eq!(m.run(10_000), RunOutcome::Halted(3));
        assert_eq!(m.mem().peek_u32(0x8000).unwrap(), 1);
    }

    #[test]
    fn shellcode_is_compact_enough_for_small_buffers() {
        // Exit shellcode must fit into the paper's 16-byte buffer.
        assert!(exit_shellcode(42).len() <= 16);
    }
}
