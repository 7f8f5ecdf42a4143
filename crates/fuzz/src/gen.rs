//! Byte-driven MinC program generation for the compiler target.
//!
//! [`program_from_bytes`] maps an arbitrary byte string onto a
//! *well-formed, safe* MinC program — the same bounded family
//! `tests/compiler_fuzz.rs` draws from proptest strategies (masked
//! array indices, literal loop bounds, no division) — so every fuzz
//! input decodes to a program the reference interpreter fully
//! specifies. The mapping is total and deterministic: fuzzing explores
//! program space by mutating the byte string, and any compiler crash
//! or observational divergence it provokes is replayable from the
//! input alone.

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

/// Decodes `bytes` into a complete MinC program.
pub fn program_from_bytes(bytes: &[u8]) -> String {
    let mut cur = Cursor { bytes, pos: 0 };
    let mut body = String::new();
    let stmts = 1 + cur.next() % 8;
    for _ in 0..stmts {
        stmt(&mut cur, &mut body, 1, MAX_DEPTH);
    }
    format!(
        "int twist(int v) {{ return (v * 31) ^ (v >> 3); }}\n\
         int main() {{\n\
             int a[8];\n\
             for (int i = 0; i < 8; i++) a[i] = i * 3;\n\
             int x0 = 1; int x1 = 2; int x2 = 3; int x3 = 4;\n\
         {body}\
             int acc = x0 ^ x1 ^ x2 ^ x3;\n\
             for (int i = 0; i < 8; i++) acc = acc ^ a[i];\n\
             return acc & 0xff;\n\
         }}\n"
    )
}

fn stmt(cur: &mut Cursor<'_>, out: &mut String, indent: usize, depth: u8) {
    let pad = "    ".repeat(indent);
    let op = cur.next() % 6;
    match op {
        0 => {
            let v = cur.next() % NUM_VARS;
            let e = expr(cur, depth);
            out.push_str(&format!("{pad}x{v} = {e};\n"));
        }
        1 => {
            let idx = expr(cur, depth);
            let val = expr(cur, depth);
            out.push_str(&format!("{pad}a[{idx} & 7] = {val};\n"));
        }
        2 => {
            let v = cur.next() % NUM_VARS;
            let idx = expr(cur, depth);
            out.push_str(&format!("{pad}x{v} = a[{idx} & 7];\n"));
        }
        3 if depth > 0 => {
            let cond = expr(cur, depth);
            out.push_str(&format!("{pad}if ({cond}) {{\n"));
            for _ in 0..1 + cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            out.push_str(&format!("{pad}}} else {{\n"));
            for _ in 0..cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        4 if depth > 0 => {
            let n = cur.next() % 6;
            out.push_str(&format!("{pad}for (int k = 0; k < {n}; k++) {{\n"));
            for _ in 0..1 + cur.next() % 2 {
                stmt(cur, out, indent + 1, depth - 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        _ => {
            let v = cur.next() % NUM_VARS;
            let e = expr(cur, depth);
            out.push_str(&format!("{pad}x{v} = twist({e});\n"));
        }
    }
}

fn expr(cur: &mut Cursor<'_>, depth: u8) -> String {
    let op = cur.next() % 7;
    if depth == 0 || op < 2 {
        return match op % 2 {
            0 => format!("({})", cur.next_i16()),
            _ => format!("x{}", cur.next() % NUM_VARS),
        };
    }
    let a = expr(cur, depth - 1);
    let b = expr(cur, depth - 1);
    let sym = match op {
        2 => "+",
        3 => "-",
        4 => "*",
        5 => "^",
        _ => "<",
    };
    format!("({a} {sym} {b})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::parse;

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
