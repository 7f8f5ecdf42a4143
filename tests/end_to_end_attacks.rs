//! Cross-crate integration: complete attack workflows from MinC source
//! through compilation, loading, payload delivery and verdict — the
//! full §III pipeline exercised end to end — and, on seeded generated
//! inputs, the security objective itself: compiled programs behave as
//! their source says, hardened or not, and canaries + DEP never hand
//! control to an overflow.

use std::fmt::Write;

use swsec::prelude::*;
use swsec_attacks::Payload;
use swsec_fuzz::gen::program_from_bytes;
use swsec_minc::parse;
use swsec_rng::{stream, Rng};
use swsec_vm::cpu::{Fault, RunOutcome};
use swsec_vm::isa::trap;

const VULN_SERVER: &str = "\
void handle(int fd) {\n\
    char buf[16];\n\
    read(fd, buf, 64);\n\
    write(1, \"OK\", 2);\n\
}\n\
void main() { handle(0); }\n";

#[test]
fn the_security_objective_holds_for_benign_runs() {
    let unit = parse(VULN_SERVER).unwrap();
    for input in [&b""[..], b"hi", &[0u8; 16]] {
        let c = compare(&unit, input, DefenseConfig::none(), 3, 1_000_000).unwrap();
        assert_eq!(c.verdict, Verdict::Equivalent, "input {input:?}");
    }
}

#[test]
fn overflow_based_hijack_is_judged_compromised() {
    // Redirect the return into the middle of _start so the machine
    // exits with a code the source cannot produce.
    let unit = parse(VULN_SERVER).unwrap();
    let session = launch(&unit, DefenseConfig::none(), 3).unwrap();
    let exit_path =
        swsec_attacks::find_instr_addr(&session.program.text, session.program.text_base, |i| {
            matches!(i, swsec_vm::isa::Instr::Sys(0))
        })
        .unwrap();
    // r0 at that point is the return value of handle()'s frame chaos —
    // any exit is fine as long as output/exit deviate. Use the ROP-style
    // single-word redirect.
    let payload = Payload::smash(&session.program.frames["handle"], "buf", exit_path)
        .unwrap()
        .build();
    let c = compare(&unit, &payload, DefenseConfig::none(), 3, 1_000_000).unwrap();
    match c.verdict {
        Verdict::Compromised { .. } => {}
        // Depending on residual register contents the hijacked exit may
        // coincide with code 0 — then output "OK" is still missing,
        // which is also a compromise; anything judged Equivalent would
        // be a bug.
        other => panic!("expected compromise, got {other}"),
    }
}

#[test]
fn all_attacks_fail_against_full_memory_safety() {
    let mut cfg = DefenseConfig::none();
    cfg.bounds_checks = true;
    for t in Technique::ALL {
        let r = run_technique(t, cfg, 11).unwrap();
        assert!(!r.outcome.succeeded(), "{t}");
    }
}

#[test]
fn attack_results_are_deterministic_per_seed() {
    for t in Technique::ALL {
        let a = run_technique(t, DefenseConfig::modern(8), 77).unwrap();
        let b = run_technique(t, DefenseConfig::modern(8), 77).unwrap();
        assert_eq!(a.outcome, b.outcome, "{t}");
    }
}

#[test]
fn canary_trap_reports_the_canary_code() {
    let unit = parse(VULN_SERVER).unwrap();
    let mut cfg = DefenseConfig::none();
    cfg.canary = true;
    let mut session = launch(&unit, cfg, 5).unwrap();
    session.machine.io_mut().feed_input(0, &[0xEE; 64]);
    let outcome = session.run(1_000_000);
    assert!(
        matches!(
            outcome,
            RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::CANARY
        ),
        "{outcome:?}"
    );
}

#[test]
fn canary_values_differ_across_launches_and_payloads_with_stale_canaries_die() {
    let unit = parse(VULN_SERVER).unwrap();
    let mut cfg = DefenseConfig::none();
    cfg.canary = true;
    let a = launch(&unit, cfg, 1).unwrap();
    let b = launch(&unit, cfg, 2).unwrap();
    let (ca, cb) = (a.canary_value.unwrap(), b.canary_value.unwrap());
    assert_ne!(ca, cb);

    // An attacker who learned launch 1's canary and replays it against
    // launch 2 is caught.
    let frame = b.program.frames["handle"].clone();
    let payload = Payload::new()
        .pad(16, b'A')
        .word(ca) // stale canary
        .word(0xbfff_0000)
        .word(0x0804_8000)
        .build();
    let mut session = b;
    session.machine.io_mut().feed_input(0, &payload);
    let outcome = session.run(1_000_000);
    assert!(matches!(
        outcome,
        RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::CANARY
    ));
    let _ = frame;
}

#[test]
fn aslr_moves_the_stack_and_text_between_launches() {
    let unit = parse(VULN_SERVER).unwrap();
    let mut cfg = DefenseConfig::none();
    cfg.aslr_bits = Some(8);
    let addrs: Vec<u32> = (0..4)
        .map(|seed| {
            let s = launch(&unit, cfg, seed).unwrap();
            s.local_addr(&[("main", 0), ("handle", 1)], "buf").unwrap()
        })
        .collect();
    let distinct: std::collections::HashSet<_> = addrs.iter().collect();
    assert!(distinct.len() >= 3, "stack barely randomized: {addrs:08x?}");
}

#[test]
fn data_only_attack_changes_decision_without_touching_control_flow() {
    // Direct demonstration at the machine level, under the full modern
    // stack: is_admin flips, the canary survives, the run exits cleanly.
    let unit = parse(swsec::attacker::VICTIM_ADMIN).unwrap();
    let cfg = DefenseConfig::modern(8);
    let mut session = launch(&unit, cfg, 21).unwrap();
    let payload = Payload::new().pad(16, b'A').word(1).build();
    session.machine.io_mut().feed_input(0, &payload);
    let outcome = session.run(1_000_000);
    assert!(outcome.is_halted(), "{outcome:?}");
    let out = session.machine.io().output(1).to_vec();
    assert_eq!(out, b"SECRET");
}

// Seeded properties. Case `n` of a property draws from
// `stream(SEED, &[n])`, so a failure message's seed and case index
// replay it alone; case 0 of a property with a pinned counterexample
// is that counterexample.

/// `len` random bytes, `len` drawn from `0..max_len`.
fn bytes(rng: &mut impl Rng, max_len: u64) -> Vec<u8> {
    let mut out = vec![0u8; rng.gen_range(max_len) as usize];
    rng.fill_bytes(&mut out);
    out
}

/// Appends an expression of at most `depth` nested operators over
/// `i8` literals: `+ - * ^ <` and `<< k` for a literal `k < 8`.
fn arith(rng: &mut impl Rng, out: &mut String, depth: u32) {
    if depth == 0 || rng.gen_range(4) == 0 {
        write!(out, "({})", rng.next_u32() as i8).unwrap();
        return;
    }
    out.push('(');
    arith(rng, out, depth - 1);
    match rng.gen_range(6) {
        5 => write!(out, " << {}", rng.gen_range(8)).unwrap(),
        op => {
            out.push_str([" + ", " - ", " * ", " ^ ", " < "][op as usize]);
            arith(rng, out, depth - 1);
        }
    }
    out.push(')');
}

#[test]
fn compiled_arithmetic_matches_source_semantics() {
    const SEED: u64 = 0xA217_0001;
    for case in 0..64 {
        let mut expr = String::new();
        arith(&mut stream(SEED, &[case]), &mut expr, 4);
        let src = format!("int main() {{ return ({expr}) & 0xff; }}");
        let unit = parse(&src).expect("generated program parses");
        let c = compare(&unit, &[], DefenseConfig::none(), 1, 5_000_000).expect("compiles");
        assert_eq!(
            c.verdict,
            Verdict::Equivalent,
            "seed {SEED:#x} case {case}: {src}"
        );
    }
}

#[test]
fn echo_programs_agree_for_arbitrary_inputs() {
    // A *correct* echo server (read length == buffer length) must be
    // equivalent for every input.
    const SEED: u64 = 0xEC40_0001;
    for case in 0..=256 {
        let (input, buf_len) = if case == 0 {
            (Vec::new(), 1)
        } else {
            let mut rng = stream(SEED, &[case]);
            (bytes(&mut rng, 64), 1 + rng.gen_range(63))
        };
        let src = format!(
            "void main() {{ char b[{buf_len}]; int n = read(0, b, {buf_len}); write(1, b, n); }}"
        );
        let unit = parse(&src).expect("parses");
        let c = compare(&unit, &input, DefenseConfig::none(), 1, 5_000_000).expect("compiles");
        assert_eq!(
            c.verdict,
            Verdict::Equivalent,
            "seed {SEED:#x} case {case}: buf_len {buf_len}, input {input:?}"
        );
    }
}

#[test]
fn canary_plus_dep_denies_attacker_controlled_behaviour() {
    // Canaries detect the smash only at function return — *after* the
    // function's own output — so the strict verdict can read
    // "compromised" for the intermediate "OK". What canaries+DEP do
    // guarantee, for every input, is that the attacker never gets
    // control: the run ends in a clean exit 0 or a fault, and the only
    // output ever produced is the program's own.
    const SEED: u64 = 0xCA4A_0001;
    let unit =
        parse("void main() { char b[16]; read(0, b, 64); write(1, \"OK\", 2); }").expect("parses");
    let mut cfg = DefenseConfig::none();
    cfg.canary = true;
    cfg.dep = true;
    for case in 0..=256 {
        let payload = if case == 0 {
            vec![0u8; 17]
        } else {
            bytes(&mut stream(SEED, &[case]), 64)
        };
        let mut session = launch(&unit, cfg, 1).expect("compiles");
        session.machine.io_mut().feed_input(0, &payload);
        let outcome = session.run(5_000_000);
        let out = session.machine.io().output(1);
        assert!(
            matches!(outcome, RunOutcome::Halted(0) | RunOutcome::Fault(_))
                && (out == b"" || out == b"OK"),
            "seed {SEED:#x} case {case}: payload {payload:?} ended {outcome:?} with output {out:?}"
        );
    }
}

#[test]
fn generated_programs_stay_equivalent_under_hardening() {
    // Hardening must be semantics-preserving for safe programs: the
    // fuzzer's program family, compiled with canaries, bounds checks
    // and DEP, against the reference interpreter.
    const SEED: u64 = 0x4A2D_0001;
    let mut cfg = DefenseConfig::none();
    cfg.canary = true;
    cfg.bounds_checks = true;
    cfg.dep = true;
    for case in 0..200 {
        let shape = bytes(&mut stream(SEED, &[case]), 64);
        let src = program_from_bytes(&shape);
        let unit = parse(&src).expect("generated program parses");
        let c = compare(&unit, &[], cfg, 1, 20_000_000).expect("compiles");
        assert_eq!(
            c.verdict,
            Verdict::Equivalent,
            "seed {SEED:#x} case {case}: bytes {shape:?}\nprogram:\n{src}\nreference: {:?}\nmachine: {:?}",
            c.reference_outcome,
            c.machine_outcome
        );
    }
}
