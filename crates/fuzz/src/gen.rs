//! Byte-driven MinC program generation for the compiler target.
//!
//! [`program_from_bytes`] maps an arbitrary byte string onto a
//! *well-formed, safe* MinC program (masked array indices, literal
//! loop bounds, no division), so every fuzz input decodes to a program
//! the reference interpreter fully specifies. The same family feeds
//! the root suite's hardened equivalence check
//! (`tests/end_to_end_attacks.rs`). The mapping is total and
//! deterministic: fuzzing explores program space by mutating the byte
//! string, and any compiler crash or observational divergence it
//! provokes is replayable from the input alone.

/// Number of scalar variables in the generated skeleton.
const NUM_VARS: u8 = 4;
/// Maximum nesting depth for compound statements/expressions.
const MAX_DEPTH: u8 = 2;

/// A cursor over the shape bytes. Wraps around so short inputs still
/// decode (a wrapped read re-reads earlier bytes; generation is
/// bounded by statement counts, not by input length).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn next(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn next_i16(&mut self) -> i16 {
        i16::from_le_bytes([self.next(), self.next()])
    }
}

/// Everything before the generated statements.
const PROLOGUE: &str = "\
    int twist(int v) { return (v * 31) ^ (v >> 3); }\n\
    int main() {\n\
    int a[8];\n\
    for (int i = 0; i < 8; i++) a[i] = i * 3;\n\
    int x0 = 1; int x1 = 2; int x2 = 3; int x3 = 4;\n";
/// Everything after the generated statements.
const EPILOGUE: &str = "\
    int acc = x0 ^ x1 ^ x2 ^ x3;\n\
    for (int i = 0; i < 8; i++) acc = acc ^ a[i];\n\
    return acc & 0xff;\n\
    }\n";
/// Initial buffer size: above the 99th percentile of program lengths
/// over random inputs of up to 80 bytes.
const CAPACITY: usize = 2048;

/// Decodes `bytes` into a complete MinC program.
pub fn program_from_bytes(bytes: &[u8]) -> String {
    let mut cur = Cursor { bytes, pos: 0 };
    let mut out = String::with_capacity(CAPACITY);
    out.push_str(PROLOGUE);
    let stmts = 1 + cur.next() % 8;
    for _ in 0..stmts {
        stmt(&mut cur, &mut out, 1, MAX_DEPTH);
    }
    out.push_str(EPILOGUE);
    out
}

/// Appends a statement, indented `indent` levels, at nesting budget
/// `depth`.
fn stmt(cur: &mut Cursor<'_>, out: &mut String, indent: usize, depth: u8) {
    for _ in 0..indent {
        out.push_str("    ");
    }
    let op = cur.next() % 6;
    match op {
        0 => {
            var(cur, out);
            out.push_str(" = ");
            expr(cur, out, depth);
            out.push_str(";\n");
        }
        1 => {
            out.push_str("a[");
            expr(cur, out, depth);
            out.push_str(" & 7] = ");
            expr(cur, out, depth);
            out.push_str(";\n");
        }
        2 => {
            var(cur, out);
            out.push_str(" = a[");
            expr(cur, out, depth);
            out.push_str(" & 7];\n");
        }
        3 if depth > 0 => {
            out.push_str("if (");
            expr(cur, out, depth);
            out.push_str(") {\n");
            for _ in 0..1 + cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            close(out, indent, " else {\n");
            for _ in 0..cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            close(out, indent, "\n");
        }
        4 if depth > 0 => {
            out.push_str("for (int k = 0; k < ");
            out.push(digit(cur.next() % 6));
            out.push_str("; k++) {\n");
            for _ in 0..1 + cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            close(out, indent, "\n");
        }
        _ => {
            var(cur, out);
            out.push_str(" = twist(");
            expr(cur, out, depth);
            out.push_str(");\n");
        }
    }
}

/// Appends a closing brace at `indent` levels, then `rest`.
fn close(out: &mut String, indent: usize, rest: &str) {
    for _ in 0..indent {
        out.push_str("    ");
    }
    out.push('}');
    out.push_str(rest);
}

/// Appends an expression at nesting budget `depth`.
fn expr(cur: &mut Cursor<'_>, out: &mut String, depth: u8) {
    let op = cur.next() % 7;
    if depth == 0 || op < 2 {
        match op % 2 {
            0 => {
                out.push('(');
                push_i16(out, cur.next_i16());
                out.push(')');
            }
            _ => var(cur, out),
        }
        return;
    }
    out.push('(');
    expr(cur, out, depth - 1);
    out.push_str(match op {
        2 => " + ",
        3 => " - ",
        4 => " * ",
        5 => " ^ ",
        _ => " < ",
    });
    expr(cur, out, depth - 1);
    out.push(')');
}

/// Appends a scalar variable name, `x0` to `x3`.
fn var(cur: &mut Cursor<'_>, out: &mut String) {
    out.push('x');
    out.push(digit(cur.next() % NUM_VARS));
}

fn digit(d: u8) -> char {
    char::from(b'0' + d)
}

/// Appends `v` in decimal.
fn push_i16(out: &mut String, v: i16) {
    if v < 0 {
        out.push('-');
    }
    let mut n = v.unsigned_abs();
    let mut digits = [0u8; 5];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::parse;
    use swsec_rng::Rng;

    #[test]
    fn generation_is_total_and_deterministic() {
        for n in 0..128u64 {
            let bytes: Vec<u8> = (0..32)
                .map(|i| (n.wrapping_mul(37) as u8).wrapping_add(i))
                .collect();
            let a = program_from_bytes(&bytes);
            let b = program_from_bytes(&bytes);
            assert_eq!(a, b);
            parse(&a).expect("every decoded program parses");
        }
        // Seeded inputs of 0–63 bytes; case `n` draws from
        // `stream(SEED, &[n])`.
        const SEED: u64 = 0x6E40_0001;
        for case in 0..256 {
            let mut rng = swsec_rng::stream(SEED, &[case]);
            let mut bytes = vec![0u8; rng.gen_range(64) as usize];
            rng.fill_bytes(&mut bytes);
            let a = program_from_bytes(&bytes);
            assert_eq!(a, program_from_bytes(&bytes), "seed {SEED:#x} case {case}");
            if let Err(e) = parse(&a) {
                panic!("seed {SEED:#x} case {case}: bytes {bytes:?} decode to\n{a}\n{e}");
            }
        }
    }

    /// Digest of the generated sources for 20 seeded inputs of every
    /// length 0..=80 (the empty and 1-byte inputs included), recorded
    /// with the original generator, so a rewrite must reproduce its
    /// output byte for byte.
    #[test]
    fn generated_sources_match_the_recorded_digest() {
        const GOLDEN: u64 = 0xe4c7_0a40_5870_da19;
        let mut rng = swsec_rng::stream(0x9E4_50C5, &[]);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for len in 0..=80 {
            for _ in 0..20 {
                let mut input = vec![0u8; len];
                rng.fill_bytes(&mut input);
                let src = program_from_bytes(&input);
                feed(&(src.len() as u64).to_le_bytes());
                feed(src.as_bytes());
            }
        }
        assert_eq!(digest, GOLDEN, "generated sources changed: {digest:#018x}");
    }

    #[test]
    fn empty_and_tiny_inputs_decode() {
        parse(&program_from_bytes(&[])).expect("empty");
        parse(&program_from_bytes(&[0xff])).expect("one byte");
    }

    #[test]
    fn distinct_bytes_yield_distinct_programs() {
        let programs: std::collections::BTreeSet<String> = (0..64u8)
            .map(|b| program_from_bytes(&[b, b.wrapping_add(1), b.wrapping_mul(3), 7, 9]))
            .collect();
        assert!(
            programs.len() > 16,
            "only {} distinct programs",
            programs.len()
        );
    }
}
