//! Statement-level compiler fuzzing: generate whole safe MinC programs
//! (declarations, assignments, bounded loops, branches, in-bounds
//! array traffic, function calls) and assert that the compiled machine
//! and the reference interpreter agree observationally on every one.
//!
//! This is the strongest evidence behind the equivalence harness: if
//! compiler and interpreter disagreed anywhere in this program family,
//! every attack verdict built on their comparison would be suspect.
//
// Gated behind the non-default `proptest-tests` feature: the default
// workspace must build with zero network access, and `proptest` is a
// registry dependency. Enable with `--features proptest-tests` after
// restoring `proptest` to [dev-dependencies].
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;

use swsec::prelude::*;
use swsec_minc::parse;

/// A generated safe statement. All array indices are masked in-bounds,
/// all loops have literal bounds, all arithmetic avoids division.
#[derive(Debug, Clone)]
enum GenStmt {
    /// `x<i> = <expr>;`
    Assign(usize, GenExpr),
    /// `a[<expr> & 7] = <expr>;`
    ArrayStore(GenExpr, GenExpr),
    /// `x<i> = a[<expr> & 7];`
    ArrayLoad(usize, GenExpr),
    /// `if (<expr>) { … } else { … }`
    If(GenExpr, Vec<GenStmt>, Vec<GenStmt>),
    /// `for (int k = 0; k < n; k++) { … }` with literal `n`.
    For(u8, Vec<GenStmt>),
    /// `x<i> = twist(<expr>);` — a call to a helper function.
    Call(usize, GenExpr),
}

#[derive(Debug, Clone)]
enum GenExpr {
    Lit(i16),
    Var(usize),
    Add(Box<GenExpr>, Box<GenExpr>),
    Sub(Box<GenExpr>, Box<GenExpr>),
    Mul(Box<GenExpr>, Box<GenExpr>),
    Xor(Box<GenExpr>, Box<GenExpr>),
    Lt(Box<GenExpr>, Box<GenExpr>),
}

const NUM_VARS: usize = 4;

impl GenExpr {
    fn to_minc(&self) -> String {
        match self {
            GenExpr::Lit(v) => format!("({v})"),
            GenExpr::Var(i) => format!("x{}", i % NUM_VARS),
            GenExpr::Add(a, b) => format!("({} + {})", a.to_minc(), b.to_minc()),
            GenExpr::Sub(a, b) => format!("({} - {})", a.to_minc(), b.to_minc()),
            GenExpr::Mul(a, b) => format!("({} * {})", a.to_minc(), b.to_minc()),
            GenExpr::Xor(a, b) => format!("({} ^ {})", a.to_minc(), b.to_minc()),
            GenExpr::Lt(a, b) => format!("({} < {})", a.to_minc(), b.to_minc()),
        }
    }
}

impl GenStmt {
    fn to_minc(&self, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match self {
            GenStmt::Assign(i, e) => {
                out.push_str(&format!("{pad}x{} = {};\n", i % NUM_VARS, e.to_minc()));
            }
            GenStmt::ArrayStore(idx, val) => {
                out.push_str(&format!(
                    "{pad}a[{} & 7] = {};\n",
                    idx.to_minc(),
                    val.to_minc()
                ));
            }
            GenStmt::ArrayLoad(i, idx) => {
                out.push_str(&format!(
                    "{pad}x{} = a[{} & 7];\n",
                    i % NUM_VARS,
                    idx.to_minc()
                ));
            }
            GenStmt::If(cond, then_body, else_body) => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond.to_minc()));
                for s in then_body {
                    s.to_minc(out, indent + 1);
                }
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in else_body {
                    s.to_minc(out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            GenStmt::For(n, body) => {
                let n = n % 6;
                out.push_str(&format!("{pad}for (int k = 0; k < {n}; k++) {{\n"));
                for s in body {
                    s.to_minc(out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            GenStmt::Call(i, e) => {
                out.push_str(&format!(
                    "{pad}x{} = twist({});\n",
                    i % NUM_VARS,
                    e.to_minc()
                ));
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = GenExpr> {
    let leaf = prop_oneof![
        any::<i16>().prop_map(GenExpr::Lit),
        (0..NUM_VARS).prop_map(GenExpr::Var),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| GenExpr::Lt(Box::new(a), Box::new(b))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = GenStmt> {
    let leaf = prop_oneof![
        ((0..NUM_VARS), expr_strategy()).prop_map(|(i, e)| GenStmt::Assign(i, e)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| GenStmt::ArrayStore(i, v)),
        ((0..NUM_VARS), expr_strategy()).prop_map(|(i, e)| GenStmt::ArrayLoad(i, e)),
        ((0..NUM_VARS), expr_strategy()).prop_map(|(i, e)| GenStmt::Call(i, e)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, e)| GenStmt::If(c, t, e)),
            (any::<u8>(), prop::collection::vec(inner, 0..3)).prop_map(|(n, b)| GenStmt::For(n, b)),
        ]
    })
}

fn render_program(stmts: &[GenStmt]) -> String {
    let mut body = String::new();
    for s in stmts {
        s.to_minc(&mut body, 1);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_safe_programs_are_observationally_equivalent(
        stmts in prop::collection::vec(stmt_strategy(), 0..10),
    ) {
        let src = render_program(&stmts);
        let unit = parse(&src).expect("generated program parses");
        let c = compare(&unit, &[], DefenseConfig::none(), 1, 20_000_000)
            .expect("generated program compiles");
        prop_assert_eq!(
            c.verdict, Verdict::Equivalent,
            "\nprogram:\n{}\nreference: {:?}\nmachine: {:?}",
            src, c.reference_outcome, c.machine_outcome
        );
    }

    #[test]
    fn generated_programs_stay_equivalent_under_hardening(
        stmts in prop::collection::vec(stmt_strategy(), 0..6),
    ) {
        // Hardening must be semantics-preserving for safe programs.
        let src = render_program(&stmts);
        let unit = parse(&src).expect("generated program parses");
        let mut cfg = DefenseConfig::none();
        cfg.canary = true;
        cfg.bounds_checks = true;
        cfg.dep = true;
        let c = compare(&unit, &[], cfg, 1, 20_000_000).expect("compiles");
        prop_assert_eq!(
            c.verdict, Verdict::Equivalent,
            "\nprogram:\n{}\nreference: {:?}\nmachine: {:?}",
            src, c.reference_outcome, c.machine_outcome
        );
    }
}
