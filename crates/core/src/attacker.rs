//! The I/O attacker: every §III-B attack technique as a runnable
//! procedure against canonical vulnerable victims.
//!
//! Each technique follows the real attack workflow: the attacker holds
//! a *local copy* of the victim binary (compiled with the same
//! hardening, at the **default** layout), derives addresses and gadget
//! locations from it, crafts an input payload, and fires it at the live
//! victim. Whatever the live victim does is then classified:
//!
//! * the attack *succeeded* if the victim exhibited the attacker's
//!   marker behaviour (printing `SECRET`/`PWNED`, or exiting `0x1337`)
//!   — observable behaviour the source program cannot produce;
//! * it was *blocked* if a countermeasure stopped it (the fault tells
//!   us which one);
//! * it *failed* otherwise (e.g. an ASLR guess landed in the weeds).

use std::fmt;

use std::sync::Arc;

use swsec_attacks::{find_instr_addr, GadgetFinder, Payload, RopChain};
use swsec_defenses::DefenseConfig;
use swsec_minc::{CompileError, CompileOptions, CompiledProgram};
use swsec_vm::cpu::{Fault, RunOutcome};
use swsec_vm::isa::{trap, Instr, Reg};
use swsec_vm::mem::{Access, MemErrorKind};

use crate::cache::ProgramCache;
use crate::loader::{frame_base_for, Session};

/// The §III-B attack techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Stack smashing with direct code injection.
    CodeInjection,
    /// Overwriting a function pointer in the frame.
    CodePointerOverwrite,
    /// Overwriting program code through an unchecked indexed write.
    CodeCorruption,
    /// Return-to-libc: divert the return into an existing function.
    Ret2Libc,
    /// Return-oriented programming over discovered gadgets.
    Rop,
    /// Data-only: corrupt a decision variable, never touching control
    /// flow.
    DataOnly,
    /// Information leak + adaptive second stage (leak the canary and a
    /// return address, then smash precisely).
    InfoLeak,
}

impl Technique {
    /// All techniques, in presentation order.
    pub const ALL: [Technique; 7] = [
        Technique::CodeInjection,
        Technique::CodePointerOverwrite,
        Technique::CodeCorruption,
        Technique::Ret2Libc,
        Technique::Rop,
        Technique::DataOnly,
        Technique::InfoLeak,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Technique::CodeInjection => "code injection",
            Technique::CodePointerOverwrite => "code-ptr overwrite",
            Technique::CodeCorruption => "code corruption",
            Technique::Ret2Libc => "return-to-libc",
            Technique::Rop => "ROP",
            Technique::DataOnly => "data-only",
            Technique::InfoLeak => "info leak + smash",
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How an attack attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The marker behaviour was observed.
    Success {
        /// What was observed.
        evidence: String,
    },
    /// A countermeasure demonstrably stopped the attempt.
    Blocked {
        /// The countermeasure (derived from the fault).
        by: String,
    },
    /// The attempt neither succeeded nor hit a countermeasure (wild
    /// crash from a bad guess, or no effect).
    Failed {
        /// What happened instead.
        reason: String,
    },
}

impl AttackOutcome {
    /// Whether the attack achieved its goal.
    pub fn succeeded(&self) -> bool {
        matches!(self, AttackOutcome::Success { .. })
    }

    /// Table cell for reports.
    pub fn cell(&self) -> String {
        match self {
            AttackOutcome::Success { .. } => "COMPROMISED".to_string(),
            AttackOutcome::Blocked { by } => format!("blocked: {by}"),
            AttackOutcome::Failed { reason } => format!("failed: {reason}"),
        }
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cell())
    }
}

/// One attack attempt: technique, defense configuration, outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackResult {
    /// The technique attempted.
    pub technique: Technique,
    /// The defenses in force.
    pub config: DefenseConfig,
    /// What happened.
    pub outcome: AttackOutcome,
}

/// Victim for stack smashing, return-to-libc and ROP: the Figure 1
/// server shape with a dormant privileged function (`grant`, the
/// "libc" function) and a constant that plants a `pop r0; ret` gadget
/// in the text — standing in for the unintended gadgets real binaries
/// are full of.
pub const VICTIM_SMASH: &str = "\
void grant() { write(1, \"SECRET\", 6); }\n\
void handle(int fd) {\n\
    int x = 0;\n\
    x = x ^ 0x220009;\n\
    char buf[48];\n\
    read(fd, buf, 96);\n\
    write(1, \"OK\", 2);\n\
}\n\
void main() { handle(0); }\n";

/// Victim for code-pointer overwrite: a function pointer sits in the
/// frame above the overflowable buffer (the paper's sort-comparator
/// example, reduced).
pub const VICTIM_FNPTR: &str = "\
void deny() { write(1, \"DENIED\", 6); }\n\
void grant() { write(1, \"SECRET\", 6); }\n\
void handle(int fd) {\n\
    int (*action)();\n\
    action = deny;\n\
    char buf[16];\n\
    read(fd, buf, 64);\n\
    action();\n\
}\n\
void main() { handle(0); }\n";

/// Victim for code corruption: a `table[i] = v` write where both `i`
/// and `v` come from input — the paper's "entire virtual address
/// space" primitive — plus a guarded branch whose comparison constant
/// the attacker patches.
pub const VICTIM_POKE: &str = "\
char table[64];\n\
int check = 0;\n\
void main() {\n\
    char cmd[8];\n\
    int n = read(0, cmd, 8);\n\
    while (n == 8) {\n\
        int idx = cmd[0] + (cmd[1] << 8) + (cmd[2] << 16) + (cmd[3] << 24);\n\
        table[idx] = cmd[4];\n\
        n = read(0, cmd, 8);\n\
    }\n\
    if (check == 12345) { write(1, \"SECRET\", 6); }\n\
    else { write(1, \"DENIED\", 6); }\n\
}\n";

/// Victim for data-only attacks: the authorization flag lives in the
/// same frame as the buffer; no code pointer is ever touched.
pub const VICTIM_ADMIN: &str = "\
void handle(int fd) {\n\
    int is_admin = 0;\n\
    char buf[16];\n\
    read(fd, buf, 64);\n\
    if (is_admin != 0) { write(1, \"SECRET\", 6); }\n\
    else { write(1, \"DENIED\", 6); }\n\
}\n\
void main() { handle(0); }\n";

/// Victim for the two-stage info-leak attack: request 1 over-reads the
/// frame (Heartbleed-style), request 2 overflows it.
pub const VICTIM_LEAK: &str = "\
void grant() { write(1, \"SECRET\", 6); }\n\
void handle(int fd) {\n\
    char buf[16];\n\
    read(fd, buf, 16);\n\
    write(1, buf, 32);\n\
    read(fd, buf, 64);\n\
    write(1, \"BYE\", 3);\n\
}\n\
void main() { handle(0); }\n";

const MARKER_EXIT: u32 = 0x1337;
const FUEL: u64 = 2_000_000;

/// The attacker's local copy: same sources, same compiler flags,
/// default (unrandomized) layout.
pub(crate) fn attacker_view(
    cache: &ProgramCache,
    source: &str,
    config: DefenseConfig,
) -> Result<Arc<CompiledProgram>, CompileError> {
    let opts = CompileOptions {
        harden: config.harden_options(),
        ..CompileOptions::default()
    };
    cache.compile(source, &opts)
}

fn classify(
    session: &Session,
    outcome: RunOutcome,
    config: DefenseConfig,
    evidence_output: &[u8],
) -> AttackOutcome {
    let out = session.machine.io().output(1);
    if !evidence_output.is_empty()
        && out
            .windows(evidence_output.len())
            .any(|w| w == evidence_output)
    {
        return AttackOutcome::Success {
            evidence: format!(
                "victim emitted {:?}",
                String::from_utf8_lossy(evidence_output)
            ),
        };
    }
    if outcome == RunOutcome::Halted(MARKER_EXIT) {
        return AttackOutcome::Success {
            evidence: format!("victim exited with attacker marker {MARKER_EXIT:#x}"),
        };
    }
    match outcome {
        RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::CANARY => {
            AttackOutcome::Blocked {
                by: "stack canary".into(),
            }
        }
        RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::BOUNDS => {
            AttackOutcome::Blocked {
                by: "bounds checks".into(),
            }
        }
        RunOutcome::Fault(Fault::ShadowStackMismatch { .. })
        | RunOutcome::Fault(Fault::ShadowStackUnderflow { .. }) => AttackOutcome::Blocked {
            by: "shadow stack".into(),
        },
        RunOutcome::Fault(Fault::Mem(e))
            if e.access == Access::Fetch && matches!(e.kind, MemErrorKind::Denied { .. }) =>
        {
            AttackOutcome::Blocked { by: "DEP".into() }
        }
        RunOutcome::Fault(Fault::Mem(e))
            if e.access == Access::Write && matches!(e.kind, MemErrorKind::Denied { .. }) =>
        {
            AttackOutcome::Blocked {
                by: "DEP (W^X)".into(),
            }
        }
        other => {
            if config.aslr_bits.is_some() {
                AttackOutcome::Blocked {
                    by: "ASLR (guess missed)".into(),
                }
            } else {
                AttackOutcome::Failed {
                    reason: other.to_string(),
                }
            }
        }
    }
}

fn run_single_shot(
    cache: &ProgramCache,
    source: &str,
    config: DefenseConfig,
    seed: u64,
    payload: &[u8],
    evidence: &[u8],
) -> Result<AttackResult, CompileError> {
    let mut session = cache.launch(source, config, seed)?;
    session.machine.io_mut().feed_input(0, payload);
    let outcome = session.run(FUEL);
    Ok(AttackResult {
        technique: Technique::CodeInjection, // overwritten by callers
        config,
        outcome: classify(&session, outcome, config, evidence),
    })
}

/// Runs one technique against its canonical victim under `config`.
///
/// `seed` drives the victim's launch randomness (ASLR slide, canary
/// value); the attacker never sees it. Compiles through a call-local
/// [`ProgramCache`]; use [`run_technique_cached`] to share compiles
/// across calls.
///
/// # Errors
///
/// Returns a [`CompileError`] if victim compilation fails — never
/// expected for the built-in victims.
pub fn run_technique(
    technique: Technique,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    run_technique_cached(technique, config, seed, &ProgramCache::new())
}

/// Like [`run_technique`], compiling victim and local copy through
/// `cache` so repeated trials (matrix cells, ASLR brute force, oracle
/// queries) reuse images instead of recompiling.
pub fn run_technique_cached(
    technique: Technique,
    config: DefenseConfig,
    seed: u64,
    cache: &ProgramCache,
) -> Result<AttackResult, CompileError> {
    let mut result = match technique {
        Technique::CodeInjection => attack_code_injection(cache, config, seed)?,
        Technique::CodePointerOverwrite => attack_code_pointer(cache, config, seed)?,
        Technique::CodeCorruption => attack_code_corruption(cache, config, seed)?,
        Technique::Ret2Libc => attack_ret2libc(cache, config, seed)?,
        Technique::Rop => attack_rop(cache, config, seed)?,
        Technique::DataOnly => attack_data_only(cache, config, seed)?,
        Technique::InfoLeak => attack_info_leak(cache, config, seed)?,
    };
    result.technique = technique;
    Ok(result)
}

fn attack_code_injection(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_SMASH, config)?;
    // The attacker computes the buffer address from the local copy.
    let bp = frame_base_for(&local, &[("main", 0), ("handle", 1)])?;
    let buf_off = local.frames["handle"]
        .locals
        .iter()
        .find(|(n, _)| n == "buf")
        .map(|(_, s)| s.offset)
        .expect("buf exists");
    let buf_addr = bp.wrapping_add(buf_off as u32);
    let shellcode = swsec_attacks::shellcode::write_shellcode(buf_addr, 1, b"PWNED", MARKER_EXIT);
    let payload =
        Payload::smash_with_shellcode(&local.frames["handle"], "buf", buf_addr, &shellcode)
            .expect("shellcode fits")
            .build();
    run_single_shot(cache, VICTIM_SMASH, config, seed, &payload, b"PWNED")
}

fn attack_code_pointer(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_FNPTR, config)?;
    let grant = local.function_addr("grant")?;
    // Fill the buffer exactly, then overwrite only the function pointer
    // sitting above it — the canary (above the pointer) stays intact.
    let frame = &local.frames["handle"];
    let buf_off = frame
        .locals
        .iter()
        .find(|(n, _)| n == "buf")
        .map(|(_, s)| s.offset)
        .expect("buf exists");
    let action_off = frame
        .locals
        .iter()
        .find(|(n, _)| n == "action")
        .map(|(_, s)| s.offset)
        .expect("action exists");
    let distance = (action_off - buf_off) as usize;
    let payload = Payload::new().pad(distance, b'A').word(grant).build();
    run_single_shot(cache, VICTIM_FNPTR, config, seed, &payload, b"SECRET")
}

fn attack_code_corruption(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_POKE, config)?;
    // Find the `movi r0, 12345` that materializes the comparison
    // constant, and compute its distance from `table`.
    let cmp_addr = find_instr_addr(&local.text, local.text_base, |i| {
        matches!(i, Instr::MovI { imm: 12345, .. })
    })
    .expect("comparison constant present");
    let imm_addr = cmp_addr + 2; // [opcode][reg][imm32]
    let table = local.globals["table"].addr;
    let mut payload = Payload::new();
    // Patch the four immediate bytes to zero: `check == 0` is true.
    for i in 0..4u32 {
        let target = imm_addr + i;
        let idx = target.wrapping_sub(table);
        payload = payload
            .word(idx) // idx, little-endian, from cmd[0..4]
            .bytes(&[0x00]) // value
            .pad(3, 0); // pad the 8-byte command
    }
    run_single_shot(
        cache,
        VICTIM_POKE,
        config,
        seed,
        &payload.build(),
        b"SECRET",
    )
}

fn attack_ret2libc(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_SMASH, config)?;
    let grant = local.function_addr("grant")?;
    let payload = Payload::smash(&local.frames["handle"], "buf", grant)
        .expect("buf exists")
        .build();
    run_single_shot(cache, VICTIM_SMASH, config, seed, &payload, b"SECRET")
}

fn attack_rop(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_SMASH, config)?;
    let finder = GadgetFinder::scan(&local.text, local.text_base, 3);
    let Some(pop_r0) = finder.pop_ret(Reg::R0) else {
        return Ok(AttackResult {
            technique: Technique::Rop,
            config,
            outcome: AttackOutcome::Failed {
                reason: "no pop r0; ret gadget".into(),
            },
        });
    };
    let exit_gadget = find_instr_addr(
        &local.text,
        local.text_base,
        |i| matches!(i, Instr::Sys(n) if *n == swsec_vm::isa::sys::EXIT),
    )
    .expect("an exit syscall exists in _start");
    // Chain: pop r0 <- 0x1337; "return" into `sys exit`.
    let chain = RopChain::new()
        .word(pop_r0)
        .word(MARKER_EXIT)
        .word(exit_gadget);
    let smash =
        Payload::smash(&local.frames["handle"], "buf", chain.words()[0]).expect("buf exists");
    let mut payload = smash.build();
    payload.extend_from_slice(&chain.build()[4..]);
    run_single_shot(cache, VICTIM_SMASH, config, seed, &payload, b"")
}

fn attack_data_only(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_ADMIN, config)?;
    let frame = &local.frames["handle"];
    let buf_off = frame
        .locals
        .iter()
        .find(|(n, _)| n == "buf")
        .map(|(_, s)| s.offset)
        .expect("buf exists");
    let admin_off = frame
        .locals
        .iter()
        .find(|(n, _)| n == "is_admin")
        .map(|(_, s)| s.offset)
        .expect("is_admin exists");
    let distance = (admin_off - buf_off) as usize;
    let payload = Payload::new().pad(distance, b'A').word(1).build();
    run_single_shot(cache, VICTIM_ADMIN, config, seed, &payload, b"SECRET")
}

fn attack_info_leak(
    cache: &ProgramCache,
    config: DefenseConfig,
    seed: u64,
) -> Result<AttackResult, CompileError> {
    let local = attacker_view(cache, VICTIM_LEAK, config)?;
    let mut session = cache.launch(VICTIM_LEAK, config, seed)?;
    session.machine.set_blocking_reads(true);

    // Stage 1: benign-length request; harvest the over-read reply.
    session.machine.io_mut().feed_input(0, &[b'A'; 16]);
    let outcome = session.run(FUEL);
    if !matches!(outcome, RunOutcome::Blocked { .. }) {
        // A bounds-checked victim traps on the over-read/overflow before
        // ever blocking for the second request.
        return Ok(AttackResult {
            technique: Technique::InfoLeak,
            config,
            outcome: classify(&session, outcome, config, b""),
        });
    }
    let leak = session.machine.io().output(1).to_vec();
    if leak.len() < 28 {
        return Ok(AttackResult {
            technique: Technique::InfoLeak,
            config,
            outcome: AttackOutcome::Failed {
                reason: format!("leak too short ({} bytes)", leak.len()),
            },
        });
    }
    let word =
        |off: usize| u32::from_le_bytes([leak[off], leak[off + 1], leak[off + 2], leak[off + 3]]);
    // Frame layout past the 16-byte buffer: [canary?] saved bp, ret.
    let (canary, saved_bp, leaked_ret) = if config.canary {
        (Some(word(16)), word(20), word(24))
    } else {
        (None, word(16), word(20))
    };
    // De-randomize: the leaked return address is the point in `main`
    // right after `call handle`; its offset from the text base is known
    // from the local copy.
    let static_ret = {
        let main_addr = local.function_addr("main")?;
        // Find the call to handle inside main and take the next address.
        let handle_addr = local.function_addr("handle")?;
        find_instr_addr(
            &local.text[(main_addr - local.text_base) as usize..],
            main_addr,
            |i| matches!(i, Instr::Call(t) if *t == handle_addr),
        )
        .expect("main calls handle")
            + 5 // call is 5 bytes
    };
    let slide = leaked_ret.wrapping_sub(static_ret);
    let grant = local.function_addr("grant")?.wrapping_add(slide);

    // Stage 2: precise smash with the leaked canary and bp.
    let mut payload = Payload::new().pad(16, b'A');
    if let Some(c) = canary {
        payload = payload.word(c);
    }
    let payload = payload.word(saved_bp).word(grant).build();
    session.machine.io_mut().feed_input(0, &payload);
    let outcome = session.run(FUEL);
    Ok(AttackResult {
        technique: Technique::InfoLeak,
        config,
        outcome: classify(&session, outcome, config, b"SECRET"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(t: Technique, config: DefenseConfig) -> AttackOutcome {
        run_technique(t, config, 42).unwrap().outcome
    }

    #[test]
    fn all_techniques_compromise_the_unprotected_platform() {
        for t in Technique::ALL {
            let o = outcome(t, DefenseConfig::none());
            assert!(o.succeeded(), "{t} should succeed unprotected, got {o}");
        }
    }

    #[test]
    fn canary_blocks_return_address_smashing() {
        let mut cfg = DefenseConfig::none();
        cfg.canary = true;
        for t in [
            Technique::CodeInjection,
            Technique::Ret2Libc,
            Technique::Rop,
        ] {
            let o = outcome(t, cfg);
            assert_eq!(
                o,
                AttackOutcome::Blocked {
                    by: "stack canary".into()
                },
                "{t}"
            );
        }
    }

    #[test]
    fn canary_misses_pointer_and_data_attacks() {
        let mut cfg = DefenseConfig::none();
        cfg.canary = true;
        for t in [
            Technique::CodePointerOverwrite,
            Technique::DataOnly,
            Technique::CodeCorruption,
        ] {
            assert!(outcome(t, cfg).succeeded(), "{t} should bypass canaries");
        }
    }

    #[test]
    fn dep_blocks_injection_and_corruption_but_not_reuse() {
        let mut cfg = DefenseConfig::none();
        cfg.dep = true;
        assert!(matches!(
            outcome(Technique::CodeInjection, cfg),
            AttackOutcome::Blocked { by } if by == "DEP"
        ));
        assert!(matches!(
            outcome(Technique::CodeCorruption, cfg),
            AttackOutcome::Blocked { by } if by.starts_with("DEP")
        ));
        // Code *reuse* sails past DEP — the paper's motivation for it.
        assert!(outcome(Technique::Ret2Libc, cfg).succeeded());
        assert!(outcome(Technique::Rop, cfg).succeeded());
        assert!(outcome(Technique::DataOnly, cfg).succeeded());
    }

    #[test]
    fn aslr_blocks_address_dependent_attacks() {
        let mut cfg = DefenseConfig::none();
        cfg.aslr_bits = Some(8);
        for t in [
            Technique::CodeInjection,
            Technique::Ret2Libc,
            Technique::Rop,
            Technique::CodePointerOverwrite,
            Technique::CodeCorruption,
        ] {
            let o = outcome(t, cfg);
            assert!(!o.succeeded(), "{t} should miss under ASLR, got {o}");
        }
        // Data-only needs no addresses: ASLR is irrelevant.
        assert!(outcome(Technique::DataOnly, cfg).succeeded());
    }

    #[test]
    fn info_leak_defeats_canary_dep_aslr() {
        // The paper's [5]: leaking memory breaks the secrecy assumptions
        // of canaries and ASLR; DEP doesn't matter for code reuse.
        let o = outcome(Technique::InfoLeak, DefenseConfig::modern(8));
        assert!(o.succeeded(), "info leak should win, got {o}");
    }

    #[test]
    fn data_only_defeats_the_full_modern_stack() {
        let o = outcome(Technique::DataOnly, DefenseConfig::modern(8));
        assert!(o.succeeded(), "data-only should win, got {o}");
    }

    #[test]
    fn shadow_stack_blocks_return_hijacks_even_with_leak() {
        let mut cfg = DefenseConfig::modern(8);
        cfg.shadow_stack = true;
        for t in [Technique::Ret2Libc, Technique::Rop, Technique::InfoLeak] {
            let o = outcome(t, cfg);
            assert!(
                matches!(&o, AttackOutcome::Blocked { by } if by == "shadow stack" || by == "stack canary"),
                "{t}: got {o}"
            );
        }
        // …but not the forward edge or data.
        assert!(outcome(
            Technique::CodePointerOverwrite,
            DefenseConfig {
                shadow_stack: true,
                ..DefenseConfig::none()
            }
        )
        .succeeded());
    }

    #[test]
    fn bounds_checks_block_everything() {
        let mut cfg = DefenseConfig::none();
        cfg.bounds_checks = true;
        for t in Technique::ALL {
            let o = outcome(t, cfg);
            assert!(
                matches!(&o, AttackOutcome::Blocked { by } if by == "bounds checks"),
                "{t}: got {o}"
            );
        }
    }
}
