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
//!
//! A second digest pins every hardening flag of the compiler: generated
//! programs plus a hand-written corpus (function pointers, externs,
//! heap, strings, byte arrays) under each `HardenOptions` flag alone and
//! all flags on, over the whole `CompiledProgram` (listing, text, data,
//! function and stub addresses). Every program's listing must also
//! re-assemble to its text with the addresses the compiler reported.

use std::collections::BTreeMap;

use swsec::attacker::{VICTIM_ADMIN, VICTIM_FNPTR, VICTIM_LEAK, VICTIM_POKE, VICTIM_SMASH};
use swsec::experiments::fig4::fig4_module_source;
use swsec::experiments::heap_uaf::VICTIM_UAF;
use swsec::experiments::overhead::workloads;
use swsec::experiments::scraping::SECRET_MODULE;
use swsec::loader::plan_options;
use swsec_asm::{assemble, AsmOutput};
use swsec_attacks::scraper_program;
use swsec_attacks::shellcode::{
    dump_memory_shellcode, exit_shellcode, poke_shellcode, write_shellcode,
};
use swsec_defenses::DefenseConfig;
use swsec_fuzz::gen::program_from_bytes;
use swsec_minc::{compile, parse, CompileOptions, CompiledProgram, HardenOptions};
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

/// Digest of the all-flags corpus, recorded before the compiler stopped
/// going through assembly text.
const HARDEN_GOLDEN: u64 = 0x4d50_52db_9c04_b56f;

/// Generated programs in the all-flags digest (each under eight mixes).
const HARDEN_PROGRAMS: u64 = 120;

/// Where the hand-written corpus's `ext` extern lives.
const EXTERN_ADDR: u32 = 0x0a00_0040;

/// Exercises every construct a hardening flag rewrites: indexed and
/// `read`-into arrays (bounds checks), direct, indirect and extern calls
/// (function-pointer checks, strict re-entry), the heap runtime
/// (quarantine) and every return path (canaries, register scrubbing).
const KITCHEN_SINK: &str = "\
extern int ext(int v);\n\
char tag = 7;\n\
char name[12] = \"kitchen\";\n\
int table[5];\n\
int twice(int v) { return v + v; }\n\
static int pick(int (*f)(int), int v) { return f(v); }\n\
int walk(char *p, int n) {\n\
    int s = 0;\n\
    while (n > 0) { s = s + *p; p++; n--; if (s > 900) break; }\n\
    return s;\n\
}\n\
int main() {\n\
    char buf[16];\n\
    int *cell = alloc(8);\n\
    int n = read(0, buf, 16);\n\
    cell[1] = n;\n\
    int i = 0;\n\
    for (i = 0; i < 5; i++) { if (i == 3) continue; table[i] = twice(i) * -i; }\n\
    int *q = &table[1];\n\
    q = q + 2;\n\
    int d = q - &table[0];\n\
    int r = rand() % 7;\n\
    int acc = pick(twice, d) + ext(r) + walk(name, 12) + tag;\n\
    acc = acc / 3 + (acc << 2) - (acc >> 1) + (acc & 5) + (acc | 8) + (acc ^ 9);\n\
    if (!acc || (acc >= 4 && acc <= 9000) || acc != 2 || acc > 1) { write(1, \"ok\", 2); }\n\
    free(cell);\n\
    if (acc < 0) exit(3);\n\
    return cell[1] + buf[0];\n\
}\n";

/// No flags, each `HardenOptions` flag alone, then all of them.
fn harden_mixes() -> Vec<HardenOptions> {
    let none = HardenOptions::none();
    let all = HardenOptions {
        stack_canary: true,
        bounds_checks: true,
        pma_fnptr_check: true,
        scrub_registers: true,
        strict_reentry: true,
        heap_quarantine: true,
    };
    vec![
        none,
        HardenOptions {
            stack_canary: true,
            ..none
        },
        HardenOptions {
            bounds_checks: true,
            ..none
        },
        HardenOptions {
            pma_fnptr_check: true,
            ..none
        },
        HardenOptions {
            scrub_registers: true,
            ..none
        },
        HardenOptions {
            strict_reentry: true,
            ..none
        },
        HardenOptions {
            heap_quarantine: true,
            ..none
        },
        all,
    ]
}

/// Checks that the listing re-assembles to the compiled text and that
/// every address the compiler reported matches the listing's labels.
fn check_listing(program: &CompiledProgram) {
    let out = assemble(&program.listing).expect("compiler listing assembles");
    assert_eq!(out.base, program.text_base);
    assert_eq!(out.bytes, program.text);
    for (name, addr) in &program.functions {
        assert_eq!(out.labels.get(name), Some(addr), "function `{name}`");
    }
    assert_eq!(program.entry, out.labels.get("_start").copied());
    assert_eq!(program.reentry_addr, out.labels.get("__reentry").copied());
}

/// Feeds every field of a compiled program that codegen determines.
fn digest_compiled(h: &mut Fnv, program: &CompiledProgram) {
    let addr = |h: &mut Fnv, a: Option<u32>| h.u64(a.map_or(u64::MAX, u64::from));
    h.blob(program.listing.as_bytes());
    h.u64(u64::from(program.text_base));
    h.blob(&program.text);
    h.u64(u64::from(program.data_base));
    h.blob(&program.data);
    addr(h, program.entry);
    addr(h, program.canary_addr);
    addr(h, program.reentry_addr);
    h.u64(program.functions.len() as u64);
    for (name, a) in &program.functions {
        h.blob(name.as_bytes());
        h.u64(u64::from(*a));
    }
    h.u64(program.exports.len() as u64);
    for name in &program.exports {
        h.blob(name.as_bytes());
    }
}

fn harden_digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut corpus: Vec<(String, bool)> = vec![
        (KITCHEN_SINK.to_string(), false),
        (VICTIM_SMASH.to_string(), false),
        (VICTIM_FNPTR.to_string(), false),
        (VICTIM_POKE.to_string(), false),
        (VICTIM_ADMIN.to_string(), false),
        (VICTIM_LEAK.to_string(), false),
        (VICTIM_UAF.to_string(), false),
        (SECRET_MODULE.to_string(), true),
        (fig4_module_source(4321), true),
    ];
    corpus.extend(workloads().into_iter().map(|(_, src)| (src, false)));
    let mut rng = stream(0x5EC_A55E, &[2]);
    for _ in 0..HARDEN_PROGRAMS {
        let mut input = vec![0u8; 1 + rng.gen_range(48) as usize];
        rng.fill_bytes(&mut input);
        corpus.push((program_from_bytes(&input), false));
    }
    for (src, module) in &corpus {
        let unit = parse(src).expect("corpus program parses");
        for harden in harden_mixes() {
            let opts = CompileOptions {
                harden,
                externs: BTreeMap::from([("ext".to_string(), EXTERN_ADDR)]),
                no_start: *module,
                ..CompileOptions::default()
            };
            let program = compile(&unit, &opts).expect("corpus program compiles");
            check_listing(&program);
            digest_compiled(&mut h, &program);
        }
    }
    h.0
}

#[test]
fn every_hardening_flag_matches_the_recorded_digest() {
    let digest = harden_digest();
    assert_eq!(
        digest, HARDEN_GOLDEN,
        "hardening conformance digest changed: {digest:#018x}"
    );
}
