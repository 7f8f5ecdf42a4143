//! Semantic analysis: name resolution, arity/lvalue checking and
//! expression typing.
//!
//! MinC deliberately keeps C's *permissive* typing — integers, chars
//! and pointers mix freely in arithmetic, and **no bounds information
//! is attached to pointers** — because the vulnerability classes under
//! study (§III-A of the paper) exist precisely because the source
//! language accepts such programs. What sema rejects is only what a
//! 1990s C compiler would reject: unknown names, wrong arity, assigning
//! to non-lvalues, `break` outside a loop.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::{BinOp, Expr, Function, Stmt, Type, UnaryOp, Unit};

/// A semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SemaError {}

fn err(message: impl Into<String>) -> SemaError {
    SemaError {
        message: message.into(),
    }
}

/// The built-in functions every MinC program may call.
///
/// `read`/`write` mirror POSIX and are the I/O attacker's interface;
/// `exit` terminates with a code; `rand` returns a platform random word.
pub fn builtins() -> HashMap<&'static str, (Type, Vec<Type>)> {
    let charp = Type::Ptr(Box::new(Type::Char));
    HashMap::from([
        (
            "read",
            (Type::Int, vec![Type::Int, charp.clone(), Type::Int]),
        ),
        (
            "write",
            (Type::Int, vec![Type::Int, charp.clone(), Type::Int]),
        ),
        ("exit", (Type::Void, vec![Type::Int])),
        ("rand", (Type::Int, vec![])),
        ("alloc", (charp.clone(), vec![Type::Int])),
        ("free", (Type::Void, vec![charp])),
    ])
}

/// Signature of a declared function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
}

/// Scope-stack resolver shared by sema, the code generator and the
/// reference interpreter, so all three agree on what a name means.
#[derive(Debug)]
pub struct Scopes {
    stack: Vec<HashMap<String, Type>>,
}

impl Default for Scopes {
    fn default() -> Self {
        Scopes::new()
    }
}

impl Scopes {
    /// Creates an empty scope stack.
    pub fn new() -> Scopes {
        Scopes { stack: vec![] }
    }

    /// Enters a nested scope.
    pub fn push(&mut self) {
        self.stack.push(HashMap::new());
    }

    /// Leaves the innermost scope.
    pub fn pop(&mut self) {
        self.stack.pop();
    }

    /// Declares `name` in the innermost scope; returns `false` if it was
    /// already declared there.
    pub fn declare(&mut self, name: &str, ty: Type) -> bool {
        self.stack
            .last_mut()
            .expect("scope stack never empty while declaring")
            .insert(name.to_string(), ty)
            .is_none()
    }

    /// Resolves `name`, innermost scope first.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.stack.iter().rev().find_map(|s| s.get(name))
    }
}

struct Checker<'a> {
    unit: &'a Unit,
    globals: HashMap<String, Type>,
    functions: HashMap<String, FnSig>,
    builtins: HashMap<&'static str, (Type, Vec<Type>)>,
    scopes: Scopes,
    loop_depth: usize,
    current_ret: Type,
}

impl Checker<'_> {
    fn is_lvalue(&self, e: &Expr) -> bool {
        matches!(
            e,
            Expr::Var(_)
                | Expr::Index { .. }
                | Expr::Unary {
                    op: UnaryOp::Deref,
                    ..
                }
        )
    }

    fn type_of_var(&self, name: &str) -> Result<Type, SemaError> {
        if let Some(ty) = self.scopes.lookup(name) {
            return Ok(ty.clone());
        }
        if let Some(ty) = self.globals.get(name) {
            return Ok(ty.clone());
        }
        if let Some(sig) = self.functions.get(name) {
            // A bare function name is a function pointer.
            return Ok(Type::FnPtr(Box::new(sig.ret.clone()), sig.params.clone()));
        }
        Err(err(format!("use of undeclared identifier `{name}`")))
    }

    fn check_expr(&mut self, e: &Expr) -> Result<Type, SemaError> {
        match e {
            Expr::IntLit(_) => Ok(Type::Int),
            Expr::StrLit(_) => Ok(Type::Ptr(Box::new(Type::Char))),
            Expr::Var(name) => self.type_of_var(name),
            Expr::Assign { target, value } => {
                if !self.is_lvalue(target) {
                    return Err(err("left side of assignment is not an lvalue"));
                }
                let t = self.check_expr(target)?;
                if matches!(t, Type::Array(..)) {
                    return Err(err("cannot assign to an array"));
                }
                self.check_expr(value)?;
                Ok(t)
            }
            Expr::Unary { op, expr } => {
                let t = self.check_expr(expr)?;
                match op {
                    UnaryOp::Neg | UnaryOp::Not => Ok(Type::Int),
                    UnaryOp::Deref => match t.decayed() {
                        Type::Ptr(inner) => Ok(*inner),
                        other => Err(err(format!("cannot dereference value of type {other}"))),
                    },
                    UnaryOp::Addr => {
                        if !self.is_lvalue(expr) {
                            return Err(err("cannot take the address of a non-lvalue"));
                        }
                        Ok(Type::Ptr(Box::new(t.decayed())))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?.decayed();
                let rt = self.check_expr(rhs)?.decayed();
                match op {
                    BinOp::Add | BinOp::Sub => {
                        // Pointer ± integer keeps the pointer type
                        // (byte-granular arithmetic; indexing scales).
                        if matches!(lt, Type::Ptr(_)) {
                            Ok(lt)
                        } else if matches!(rt, Type::Ptr(_)) {
                            Ok(rt)
                        } else {
                            Ok(Type::Int)
                        }
                    }
                    _ => Ok(Type::Int),
                }
            }
            Expr::Call { callee, args } => {
                // Built-ins and named functions get arity checking;
                // function-pointer calls are checked structurally.
                let (ret, params): (Type, Vec<Type>) = match callee.as_ref() {
                    Expr::Var(name) => {
                        if let Some((ret, params)) = self.builtins.get(name.as_str()) {
                            (ret.clone(), params.clone())
                        } else if let Some(sig) = self.functions.get(name) {
                            (sig.ret.clone(), sig.params.clone())
                        } else {
                            match self.type_of_var(name)? {
                                Type::FnPtr(ret, params) => (*ret, params),
                                other => {
                                    return Err(err(format!(
                                        "`{name}` of type {other} is not callable"
                                    )))
                                }
                            }
                        }
                    }
                    other => match self.check_expr(other)?.decayed() {
                        Type::FnPtr(ret, params) => (*ret, params),
                        t => return Err(err(format!("value of type {t} is not callable"))),
                    },
                };
                if args.len() != params.len() {
                    return Err(err(format!(
                        "call passes {} arguments, expected {}",
                        args.len(),
                        params.len()
                    )));
                }
                for a in args {
                    self.check_expr(a)?;
                }
                Ok(ret)
            }
            Expr::Index { base, index } => {
                let bt = self.check_expr(base)?.decayed();
                self.check_expr(index)?;
                match bt {
                    Type::Ptr(inner) => Ok(*inner),
                    other => Err(err(format!("cannot index value of type {other}"))),
                }
            }
            Expr::PostIncDec { target, .. } => {
                if !self.is_lvalue(target) {
                    return Err(err("operand of ++/-- is not an lvalue"));
                }
                self.check_expr(target)
            }
        }
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), SemaError> {
        match s {
            Stmt::Decl { name, ty, init } => {
                if ty == &Type::Void {
                    return Err(err(format!("variable `{name}` cannot have type void")));
                }
                if let Some(init) = init {
                    self.check_expr(init)?;
                    if matches!(ty, Type::Array(..)) {
                        return Err(err(format!(
                            "array `{name}` cannot have a scalar initializer"
                        )));
                    }
                }
                if !self.scopes.declare(name, ty.clone()) {
                    return Err(err(format!("`{name}` declared twice in the same scope")));
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(cond)?;
                self.check_stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.check_stmt(e)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.check_expr(cond)?;
                self.loop_depth += 1;
                let r = self.check_stmt(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push();
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.check_expr(cond)?;
                }
                if let Some(step) = step {
                    self.check_expr(step)?;
                }
                self.loop_depth += 1;
                let r = self.check_stmt(body);
                self.loop_depth -= 1;
                self.scopes.pop();
                r
            }
            Stmt::Return(value) => {
                match (value, &self.current_ret) {
                    (Some(_), Type::Void) => return Err(err("void function returns a value")),
                    (Some(v), _) => {
                        self.check_expr(v)?;
                    }
                    (None, _) => {}
                }
                Ok(())
            }
            Stmt::Break => {
                if self.loop_depth == 0 {
                    return Err(err("`break` outside of a loop"));
                }
                Ok(())
            }
            Stmt::Continue => {
                if self.loop_depth == 0 {
                    return Err(err("`continue` outside of a loop"));
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.scopes.push();
                for s in stmts {
                    self.check_stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn check_function(&mut self, f: &Function) -> Result<(), SemaError> {
        let body = match &f.body {
            Some(b) => b,
            None => return Ok(()),
        };
        self.current_ret = f.ret.clone();
        self.scopes.push();
        let mut seen = HashSet::new();
        for p in &f.params {
            if !seen.insert(p.name.clone()) {
                return Err(err(format!(
                    "parameter `{}` of `{}` declared twice",
                    p.name, f.name
                )));
            }
            self.scopes.declare(&p.name, p.ty.clone());
        }
        for s in body {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }
}

/// Validates a translation unit.
///
/// # Errors
///
/// Returns the first [`SemaError`]: undeclared names, duplicate
/// definitions, wrong call arity, non-lvalue assignment targets,
/// `break`/`continue` outside loops, void-typed variables.
pub fn check(unit: &Unit) -> Result<(), SemaError> {
    let builtin_map = builtins();
    let mut globals = HashMap::new();
    for g in &unit.globals {
        if builtin_map.contains_key(g.name.as_str()) {
            return Err(err(format!("`{}` shadows a builtin", g.name)));
        }
        if globals.insert(g.name.clone(), g.ty.clone()).is_some() {
            return Err(err(format!("global `{}` defined twice", g.name)));
        }
        if let Some(init) = &g.init {
            match (init, &g.ty) {
                (crate::ast::GlobalInit::Str(s), Type::Array(elem, n)) => {
                    if **elem != Type::Char {
                        return Err(err(format!(
                            "string initializer on non-char array `{}`",
                            g.name
                        )));
                    }
                    if s.len() + 1 > *n {
                        return Err(err(format!(
                            "string initializer too long for `{}[{}]`",
                            g.name, n
                        )));
                    }
                }
                (crate::ast::GlobalInit::Str(_), _) => {
                    return Err(err(format!(
                        "string initializer on non-array global `{}`",
                        g.name
                    )))
                }
                (crate::ast::GlobalInit::Int(_), Type::Array(..)) => {
                    return Err(err(format!(
                        "integer initializer on array global `{}`",
                        g.name
                    )))
                }
                _ => {}
            }
        }
    }
    let mut functions = HashMap::new();
    for f in &unit.functions {
        if builtin_map.contains_key(f.name.as_str()) {
            return Err(err(format!("function `{}` shadows a builtin", f.name)));
        }
        let sig = FnSig {
            ret: f.ret.clone(),
            params: f.params.iter().map(|p| p.ty.clone()).collect(),
        };
        if let Some(previous) = functions.insert(f.name.clone(), sig.clone()) {
            // A body may follow an extern declaration with the same
            // signature; true duplicates are rejected.
            if previous != sig {
                return Err(err(format!(
                    "function `{}` redeclared with a different signature",
                    f.name
                )));
            }
            let bodies = unit
                .functions
                .iter()
                .filter(|other| other.name == f.name && other.body.is_some())
                .count();
            if bodies > 1 {
                return Err(err(format!("function `{}` defined twice", f.name)));
            }
        }
    }
    let mut checker = Checker {
        unit,
        globals,
        functions,
        builtins: builtin_map,
        scopes: Scopes::new(),
        loop_depth: 0,
        current_ret: Type::Void,
    };
    for f in &checker.unit.functions {
        checker.check_function(f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(), SemaError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn accepts_figure1_server() {
        check_src(
            "void get_request(int fd, char buf[]) { read(fd, buf, 16); }\n\
             void process(int fd) { char buf[16]; get_request(fd, buf); }\n\
             void main() { int fd = 1; process(fd); }",
        )
        .unwrap();
    }

    #[test]
    fn accepts_overflowing_read_without_complaint() {
        // The spatial vulnerability of §III-A: reading 32 bytes into a
        // 16-byte buffer is *well-typed* C. Sema must accept it.
        check_src("void f(int fd) { char buf[16]; read(fd, buf, 32); }").unwrap();
    }

    #[test]
    fn rejects_undeclared_variable() {
        let e = check_src("void f() { x = 1; }").unwrap_err();
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let e = check_src("int g(int a) { return a; } void f() { g(1, 2); }").unwrap_err();
        assert!(e.message.contains("arguments"));
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        let e = check_src("void f() { 1 = 2; }").unwrap_err();
        assert!(e.message.contains("lvalue"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = check_src("void f() { break; }").unwrap_err();
        assert!(e.message.contains("break"));
    }

    #[test]
    fn rejects_duplicate_local_in_same_scope() {
        let e = check_src("void f() { int x; int x; }").unwrap_err();
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn allows_shadowing_in_nested_scope() {
        check_src("void f() { int x; { int x; x = 1; } }").unwrap();
    }

    #[test]
    fn rejects_duplicate_global() {
        let e = check_src("int x; int x;").unwrap_err();
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn rejects_void_variable() {
        let e = check_src("void f() { void x; }").unwrap_err();
        assert!(e.message.contains("void"));
    }

    #[test]
    fn rejects_value_return_from_void() {
        let e = check_src("void f() { return 3; }").unwrap_err();
        assert!(e.message.contains("void function"));
    }

    #[test]
    fn rejects_indexing_an_int() {
        let e = check_src("void f() { int x; x[0] = 1; }").unwrap_err();
        assert!(e.message.contains("index"));
    }

    #[test]
    fn rejects_deref_of_int() {
        let e = check_src("void f() { int x; *x = 1; }").unwrap_err();
        assert!(e.message.contains("dereference"));
    }

    #[test]
    fn accepts_function_pointer_call() {
        check_src("int get_secret(int (*get_pin)()) { return get_pin(); }").unwrap();
    }

    #[test]
    fn function_name_usable_as_pointer_value() {
        check_src(
            "int from_stdin() { return 4; }\n\
             extern int get_secret(int (*get_pin)());\n\
             void main() { get_secret(from_stdin); }",
        )
        .unwrap();
    }

    #[test]
    fn extern_then_definition_accepted() {
        check_src("int f(int a); int f(int a) { return a; }").unwrap();
    }

    #[test]
    fn two_bodies_rejected() {
        let e = check_src("int f() { return 1; } int f() { return 2; }").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn string_initializer_must_fit() {
        let e = check_src("char m[3] = \"abc\";").unwrap_err();
        assert!(e.message.contains("too long"));
    }

    #[test]
    fn builtin_shadowing_rejected() {
        assert!(check_src("int read;").is_err());
        assert!(check_src("int read(int x) { return x; }").is_err());
    }

    #[test]
    fn pointer_arithmetic_types() {
        check_src("void f(char *p) { char c; c = *(p + 1); p = p - 1; }").unwrap();
    }
}
