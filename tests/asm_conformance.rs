//! Assembler conformance: a golden digest of everything `assemble`
//! produces for the listings the rest of the workspace feeds it.
//!
//! The digest covers `(base, bytes, labels)` of the re-assembled
//! listing of 500 generated MinC programs, each compiled under the
//! `none`, `canary` and `modern` defense options, plus the E2 stack-
//! smash victim and every shellcode builder in `swsec-attacks`. The
//! expected value was recorded with the original string-based
//! assembler, so any rewrite of the assembler must reproduce it bit for
//! bit.

use swsec::attacker::VICTIM_SMASH;
use swsec::loader::plan_options;
use swsec_asm::{assemble, AsmOutput};
use swsec_attacks::scraper_program;
use swsec_attacks::shellcode::{
    dump_memory_shellcode, exit_shellcode, poke_shellcode, write_shellcode,
};
use swsec_defenses::DefenseConfig;
use swsec_fuzz::gen::program_from_bytes;
use swsec_minc::{compile, parse};
use swsec_rng::{stream, Rng};

/// Digest recorded with the original assembler.
const GOLDEN: u64 = 0xc8d2_52c3_b77c_82ce;

/// Number of generated programs (each compiled under three configs).
const PROGRAMS: u64 = 500;

/// 64-bit FNV-1a, fed field by field with length prefixes so that no
/// two distinct outputs share a byte stream.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }

    fn output(&mut self, out: &AsmOutput) {
        self.u64(u64::from(out.base));
        self.blob(&out.bytes);
        self.u64(out.labels.len() as u64);
        for (name, addr) in &out.labels {
            self.blob(name.as_bytes());
            self.u64(u64::from(*addr));
        }
    }
}

fn configs() -> [DefenseConfig; 3] {
    let canary = DefenseConfig {
        canary: true,
        ..DefenseConfig::none()
    };
    [DefenseConfig::none(), canary, DefenseConfig::modern(8)]
}

/// Compiles `src` under `config`, re-assembles its listing, checks the
/// listing reproduces the compiled text, and feeds the result to `h`.
fn digest_program(h: &mut Fnv, src: &str, config: &DefenseConfig, seed: u64) {
    let unit = parse(src).expect("generated program parses");
    let program = compile(&unit, &plan_options(config, seed)).expect("generated program compiles");
    let out = assemble(&program.listing).expect("compiler listing assembles");
    assert_eq!(out.base, program.text_base);
    assert_eq!(out.bytes, program.text);
    h.blob(program.listing.as_bytes());
    h.output(&out);
}

fn conformance_digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rng = stream(0x5EC_A55E, &[1]);
    for i in 0..PROGRAMS {
        let mut input = vec![0u8; 1 + rng.gen_range(48) as usize];
        rng.fill_bytes(&mut input);
        let src = program_from_bytes(&input);
        for config in &configs() {
            digest_program(&mut h, &src, config, i);
        }
    }
    for config in &configs() {
        digest_program(&mut h, VICTIM_SMASH, config, 7);
    }
    for shellcode in [
        exit_shellcode(0x42),
        write_shellcode(0x0804_9000, 1, b"SECRET \"quoted\"\\\n\x01", 3),
        dump_memory_shellcode(1, 0x0805_0000, 64),
        poke_shellcode(0x0805_0010, 0xdead_beef, 9),
        scraper_program(0x4000_0000, 0x0805_0000, 0x0805_1000, 0x4141_4141, 1),
    ] {
        h.blob(&shellcode);
    }
    h.0
}

#[test]
fn assembler_output_matches_the_recorded_digest() {
    let digest = conformance_digest();
    assert_eq!(
        digest, GOLDEN,
        "assembler conformance digest changed: {digest:#018x}"
    );
}
