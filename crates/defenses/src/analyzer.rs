//! Static source-code analysis for memory-safety vulnerabilities
//! (§III-C2: "source code analysis tools can help during code review").
//!
//! The analyzer walks the MinC AST looking for the two vulnerability
//! classes of §III-A:
//!
//! * **spatial** — `read(fd, buf, n)` with a constant `n` larger than
//!   the buffer; constant out-of-bounds indices; and (in paranoid mode)
//!   any buffer fill whose length the analyzer cannot bound;
//! * **temporal** — returning the address of a local variable.
//!
//! Like the industrial tools the paper cites, it has two operating
//! points: [`Precision::Precise`] reports only findings it can prove
//! (few false positives, misses data-dependent bugs) and
//! [`Precision::Paranoid`] additionally flags everything it cannot
//! rule out (catches more, at a false-positive cost). The E6 experiment
//! measures exactly this trade-off on a seeded-bug corpus.

use std::fmt;

use swsec_minc::ast::{Expr, Function, Stmt, Type, UnaryOp, Unit};

/// How aggressive the analysis is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Report only provable violations.
    Precise,
    /// Also report potential violations that cannot be ruled out.
    Paranoid,
}

/// The vulnerability class of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Out-of-bounds access (buffer overflow).
    Spatial,
    /// Use of deallocated storage (dangling pointer).
    Temporal,
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The vulnerability class.
    pub kind: FindingKind,
    /// Function the finding is in.
    pub function: String,
    /// Human-readable description.
    pub message: String,
    /// `true` when the analyzer proved the violation; `false` for
    /// paranoid-mode "cannot rule out" reports.
    pub definite: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}] {}: {}",
            match self.kind {
                FindingKind::Spatial => "spatial",
                FindingKind::Temporal => "temporal",
            },
            if self.definite { "" } else { "?" },
            self.function,
            self.message
        )
    }
}

struct Analyzer<'a> {
    unit: &'a Unit,
    precision: Precision,
    findings: Vec<Finding>,
    current_fn: String,
    // (name, element count) of in-scope fixed-size arrays; a stack of
    // scopes so shadowing behaves.
    arrays: Vec<Vec<(String, usize)>>,
    locals: Vec<Vec<String>>,
}

impl Analyzer<'_> {
    fn report(&mut self, kind: FindingKind, definite: bool, message: String) {
        self.findings.push(Finding {
            kind,
            function: self.current_fn.clone(),
            message,
            definite,
        });
    }

    fn array_len(&self, name: &str) -> Option<usize> {
        for scope in self.arrays.iter().rev() {
            for (n, len) in scope.iter().rev() {
                if n == name {
                    return Some(*len);
                }
            }
        }
        self.unit.global(name).and_then(|g| match &g.ty {
            Type::Array(_, n) => Some(*n),
            _ => None,
        })
    }

    fn is_local(&self, name: &str) -> bool {
        self.locals
            .iter()
            .any(|scope| scope.iter().any(|n| n == name))
    }

    fn const_value(e: &Expr) -> Option<i64> {
        match e {
            Expr::IntLit(v) => Some(*v),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => Self::const_value(expr).map(|v| -v),
            _ => None,
        }
    }

    fn check_expr(&mut self, e: &Expr) {
        match e {
            Expr::Call { callee, args } => {
                if let Expr::Var(name) = callee.as_ref() {
                    if name == "read" && args.len() == 3 {
                        self.check_fill(&args[1], &args[2]);
                    }
                }
                for a in args {
                    self.check_expr(a);
                }
            }
            Expr::Index { base, index } => {
                if let (Expr::Var(name), Some(len)) = (
                    base.as_ref(),
                    base_array(base).and_then(|n| self.array_len(n)),
                ) {
                    let _ = name;
                    if let Some(idx) = Self::const_value(index) {
                        if idx < 0 || idx as usize >= len {
                            self.report(
                                FindingKind::Spatial,
                                true,
                                format!("index {idx} out of bounds for array of {len}"),
                            );
                        }
                    }
                }
                self.check_expr(base);
                self.check_expr(index);
            }
            Expr::Assign { target, value } => {
                self.check_expr(target);
                self.check_expr(value);
            }
            Expr::Unary { expr, .. } => self.check_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs);
                self.check_expr(rhs);
            }
            Expr::PostIncDec { target, .. } => self.check_expr(target),
            Expr::IntLit(_) | Expr::StrLit(_) | Expr::Var(_) => {}
        }
    }

    /// Checks `read(fd, buf, n)`-style fills of a known array.
    fn check_fill(&mut self, buf: &Expr, len: &Expr) {
        let Some(name) = base_array(buf) else { return };
        let Some(size) = self.array_len(name) else {
            return;
        };
        match Self::const_value(len) {
            Some(n) if n > size as i64 => {
                self.report(
                    FindingKind::Spatial,
                    true,
                    format!("read of {n} bytes into `{name}[{size}]`"),
                );
            }
            Some(_) => {}
            None => {
                if self.precision == Precision::Paranoid {
                    self.report(
                        FindingKind::Spatial,
                        false,
                        format!("read of unbounded length into `{name}[{size}]`"),
                    );
                }
            }
        }
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { name, ty, init } => {
                if let Type::Array(_, n) = ty {
                    self.arrays
                        .last_mut()
                        .expect("scope stack non-empty")
                        .push((name.clone(), *n));
                }
                self.locals
                    .last_mut()
                    .expect("scope stack non-empty")
                    .push(name.clone());
                if let Some(init) = init {
                    self.check_expr(init);
                }
            }
            Stmt::Expr(e) => self.check_expr(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(cond);
                self.check_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.check_stmt(e);
                }
            }
            Stmt::While { cond, body } => {
                self.check_expr(cond);
                self.check_stmt(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(init) = init {
                    self.check_stmt(init);
                }
                if let Some(cond) = cond {
                    self.check_expr(cond);
                }
                if let Some(step) = step {
                    self.check_expr(step);
                }
                self.check_stmt(body);
                self.pop_scope();
            }
            Stmt::Return(Some(e)) => {
                // Returning &local (or a local array) escapes the frame.
                let escapee = match e {
                    Expr::Unary {
                        op: UnaryOp::Addr,
                        expr,
                    } => base_array(expr).or(match expr.as_ref() {
                        Expr::Var(n) => Some(n.as_str()),
                        _ => None,
                    }),
                    Expr::Var(name) if self.array_len(name).is_some() => Some(name.as_str()),
                    _ => None,
                };
                if let Some(name) = escapee {
                    if self.is_local(name) {
                        self.report(
                            FindingKind::Temporal,
                            true,
                            format!("returns the address of local `{name}`"),
                        );
                    }
                }
                self.check_expr(e);
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
            Stmt::Block(stmts) => {
                self.push_scope();
                for s in stmts {
                    self.check_stmt(s);
                }
                self.pop_scope();
            }
        }
    }

    fn push_scope(&mut self) {
        self.arrays.push(Vec::new());
        self.locals.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.arrays.pop();
        self.locals.pop();
    }

    fn check_function(&mut self, f: &Function) {
        let Some(body) = &f.body else { return };
        self.current_fn = f.name.clone();
        self.push_scope();
        for s in body {
            self.check_stmt(s);
        }
        self.pop_scope();
    }
}

fn base_array(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(name) => Some(name),
        _ => None,
    }
}

/// Analyzes a translation unit, returning all findings.
///
/// # Examples
///
/// ```
/// use swsec_defenses::analyzer::{analyze, Precision};
/// use swsec_minc::parse;
///
/// let unit = parse("void f(int fd) { char buf[16]; read(fd, buf, 32); }")?;
/// let findings = analyze(&unit, Precision::Precise);
/// assert_eq!(findings.len(), 1);
/// # Ok::<(), swsec_minc::ParseError>(())
/// ```
pub fn analyze(unit: &Unit, precision: Precision) -> Vec<Finding> {
    let mut analyzer = Analyzer {
        unit,
        precision,
        findings: Vec::new(),
        current_fn: String::new(),
        arrays: Vec::new(),
        locals: Vec::new(),
    };
    for f in &unit.functions {
        analyzer.check_function(f);
    }
    analyzer.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::parse;

    fn findings(src: &str, p: Precision) -> Vec<Finding> {
        analyze(&parse(src).unwrap(), p)
    }

    #[test]
    fn detects_constant_oversized_read() {
        let f = findings(
            "void f(int fd) { char buf[16]; read(fd, buf, 32); }",
            Precision::Precise,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Spatial);
        assert!(f[0].definite);
    }

    #[test]
    fn exact_size_read_is_clean() {
        let f = findings(
            "void f(int fd) { char buf[16]; read(fd, buf, 16); }",
            Precision::Precise,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn detects_constant_oob_index() {
        let f = findings("int f() { int a[4]; return a[4]; }", Precision::Precise);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("out of bounds"));
    }

    #[test]
    fn detects_negative_index() {
        let f = findings("int f() { int a[4]; return a[-1]; }", Precision::Precise);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn in_bounds_index_is_clean() {
        assert!(findings("int f() { int a[4]; return a[3]; }", Precision::Precise).is_empty());
    }

    #[test]
    fn detects_returned_local_address() {
        let f = findings(
            "int *f() { int local = 1; return &local; }",
            Precision::Precise,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Temporal);
    }

    #[test]
    fn detects_returned_local_array() {
        let f = findings("char *f() { char buf[8]; return buf; }", Precision::Precise);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Temporal);
    }

    #[test]
    fn returning_global_address_is_clean() {
        let f = findings("int g;\nint *f() { return &g; }", Precision::Precise);
        assert!(f.is_empty());
    }

    #[test]
    fn precise_mode_misses_data_dependent_overflow() {
        // The length comes from input: a real bug the precise analyzer
        // cannot prove — the false-negative case of §III-C2.
        let src = "void f(int fd) { char buf[8]; char lenb[4]; read(fd, lenb, 4); \
                   read(fd, buf, lenb[0]); }";
        assert!(findings(src, Precision::Precise).is_empty());
        // Paranoid mode flags it (as indefinite).
        let paranoid = findings(src, Precision::Paranoid);
        assert_eq!(paranoid.len(), 1);
        assert!(!paranoid[0].definite);
    }

    #[test]
    fn paranoid_mode_has_false_positives() {
        // The length is dynamic but provably bounded by the programmer's
        // check — the analyzer cannot see that: a false positive.
        let src = "void f(int fd, int n) { char buf[64]; \
                   if (n > 64) { n = 64; } read(fd, buf, n); }";
        assert!(findings(src, Precision::Precise).is_empty());
        assert_eq!(findings(src, Precision::Paranoid).len(), 1);
    }

    #[test]
    fn figure1_vulnerable_server_is_flagged() {
        let src = "void get_request(int fd, char buf[]) { read(fd, buf, 32); }\n\
                   void process(int fd) { char buf[16]; get_request(fd, buf); }\n\
                   void main() { process(1); }";
        // The overflow is *inter-procedural* (buf[16] flows into a read
        // of 32 in the callee); the intra-procedural precise analyzer
        // misses it — exactly the false-negative class the paper warns
        // about — while paranoid mode flags the unbounded-looking fill.
        assert!(findings(src, Precision::Precise).is_empty());
        let same_function = "void process(int fd) { char buf[16]; read(fd, buf, 32); }";
        assert_eq!(findings(same_function, Precision::Precise).len(), 1);
    }

    #[test]
    fn scopes_do_not_leak_array_sizes() {
        let src = "void f(int fd) { { char buf[4]; read(fd, buf, 4); } \
                   { char buf[16]; read(fd, buf, 16); } }";
        assert!(findings(src, Precision::Precise).is_empty());
    }
}
