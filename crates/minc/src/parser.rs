//! Recursive-descent parser for MinC.

use std::fmt;

use crate::ast::{BinOp, Expr, Function, Global, GlobalInit, Param, Stmt, Type, UnaryOp, Unit};
use crate::lexer::{lex, LexError};
use crate::token::{Spanned, Token};

/// A parse error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 at end of input).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|s| s.line)
            .unwrap_or(0)
    }

    /// Steps past the next token (if any) without looking at it.
    fn advance(&mut self) {
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Consumes the next token and returns it. The parser never steps
    /// back, so an identifier's or literal's string is moved out of the
    /// buffer rather than cloned.
    fn bump(&mut self) -> Option<Token> {
        let spanned = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(match &mut spanned.token {
            Token::Ident(s) => Token::Ident(std::mem::take(s)),
            Token::Str(s) => Token::Str(std::mem::take(s)),
            t => t.clone(),
        })
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.advance();
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected `{expected}`, found `{t}`"))),
            None => Err(self.error(format!("expected `{expected}`, found end of input"))),
        }
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(name),
            Some(t) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected identifier, found `{t}`"),
            }),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::KwInt) | Some(Token::KwChar) | Some(Token::KwVoid)
        )
    }

    fn parse_base_type(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Some(Token::KwInt) => Ok(Type::Int),
            Some(Token::KwChar) => Ok(Type::Char),
            Some(Token::KwVoid) => Ok(Type::Void),
            Some(t) => Err(self.error(format!("expected type, found `{t}`"))),
            None => Err(self.error("expected type, found end of input")),
        }
    }

    fn parse_pointer_suffix(&mut self, mut ty: Type) -> Type {
        while self.eat(&Token::Star) {
            ty = Type::Ptr(Box::new(ty));
        }
        ty
    }

    /// Parses a declarator after the base type:
    /// `*`* (ident | `(` `*` ident `)` `(` type-list `)`) (`[` n `]`)?.
    /// Returns the name and complete type.
    fn parse_declarator(&mut self, base: Type) -> Result<(String, Type), ParseError> {
        let ty = self.parse_pointer_suffix(base);
        if self.peek() == Some(&Token::LParen) && self.peek2() == Some(&Token::Star) {
            // Function-pointer declarator: ( * name ) ( params )
            self.advance(); // (
            self.advance(); // *
            let name = self.expect_ident()?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::LParen)?;
            let mut params = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    let base = self.parse_base_type()?;
                    let pty = self.parse_pointer_suffix(base);
                    params.push(pty);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok((name, Type::FnPtr(Box::new(ty), params)));
        }
        let name = self.expect_ident()?;
        if self.eat(&Token::LBracket) {
            if self.eat(&Token::RBracket) {
                // Unsized `T name[]` — legal only where arrays decay to
                // pointers (parameters); represented directly as T*.
                return Ok((name, Type::Ptr(Box::new(ty))));
            }
            let size = match self.bump() {
                Some(Token::Int(n)) if n >= 0 => n as usize,
                _ => return Err(self.error("expected array size")),
            };
            self.expect(&Token::RBracket)?;
            return Ok((name, Type::Array(Box::new(ty), size)));
        }
        Ok((name, ty))
    }

    fn parse_param(&mut self) -> Result<Param, ParseError> {
        let base = self.parse_base_type()?;
        let (name, ty) = self.parse_declarator(base)?;
        // Array parameters decay to pointers, as in C.
        Ok(Param {
            name,
            ty: ty.decayed(),
        })
    }

    fn parse_unit(&mut self) -> Result<Unit, ParseError> {
        let mut unit = Unit::default();
        while self.peek().is_some() {
            let is_extern = self.eat(&Token::KwExtern);
            let is_static = self.eat(&Token::KwStatic);
            let base = self.parse_base_type()?;
            let (name, ty) = self.parse_declarator(base)?;
            if self.peek() == Some(&Token::LParen) {
                // Function definition or declaration.
                self.advance();
                let mut params = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    if self.peek() == Some(&Token::KwVoid) && self.peek2() == Some(&Token::RParen) {
                        self.advance(); // f(void)
                    } else {
                        loop {
                            params.push(self.parse_param()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                let body = if self.eat(&Token::Semi) {
                    None
                } else {
                    self.expect(&Token::LBrace)?;
                    Some(self.parse_block_body()?)
                };
                if is_extern && body.is_some() {
                    return Err(self.error(format!("extern function `{name}` has a body")));
                }
                unit.functions.push(Function {
                    name,
                    ret: ty,
                    params,
                    body,
                    is_static,
                });
            } else {
                // Global variable.
                if ty == Type::Void {
                    return Err(self.error(format!("global `{name}` cannot have type void")));
                }
                let init = if self.eat(&Token::Assign) {
                    Some(self.parse_global_init()?)
                } else {
                    None
                };
                self.expect(&Token::Semi)?;
                unit.globals.push(Global {
                    name,
                    ty,
                    init,
                    is_static,
                });
            }
        }
        Ok(unit)
    }

    fn parse_global_init(&mut self) -> Result<GlobalInit, ParseError> {
        match self.peek() {
            Some(Token::Str(_)) => {
                if let Some(Token::Str(s)) = self.bump() {
                    Ok(GlobalInit::Str(s))
                } else {
                    unreachable!("peeked a string")
                }
            }
            Some(Token::Minus) => {
                self.advance();
                match self.bump() {
                    Some(Token::Int(n)) => Ok(GlobalInit::Int(-n)),
                    _ => Err(self.error("expected integer after `-`")),
                }
            }
            Some(Token::Int(_)) => {
                if let Some(Token::Int(n)) = self.bump() {
                    Ok(GlobalInit::Int(n))
                } else {
                    unreachable!("peeked an int")
                }
            }
            _ => Err(self.error("global initializers must be integer or string constants")),
        }
    }

    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.advance(); // consume }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::LBrace) => {
                self.advance();
                Ok(Stmt::Block(self.parse_block_body()?))
            }
            Some(Token::KwIf) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let then_branch = Box::new(self.parse_stmt()?);
                let else_branch = if self.eat(&Token::KwElse) {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Some(Token::KwWhile) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Some(Token::KwFor) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let init = if self.eat(&Token::Semi) {
                    None
                } else if self.is_type_start() {
                    let stmt = self.parse_decl_stmt()?;
                    Some(Box::new(stmt))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&Token::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == Some(&Token::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Token::Semi)?;
                let step = if self.peek() == Some(&Token::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Token::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Token::KwReturn) => {
                self.advance();
                let value = if self.peek() == Some(&Token::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Token::Semi)?;
                Ok(Stmt::Return(value))
            }
            Some(Token::KwBreak) => {
                self.advance();
                self.expect(&Token::Semi)?;
                Ok(Stmt::Break)
            }
            Some(Token::KwContinue) => {
                self.advance();
                self.expect(&Token::Semi)?;
                Ok(Stmt::Continue)
            }
            Some(Token::KwInt | Token::KwChar | Token::KwVoid) => self.parse_decl_stmt(),
            Some(Token::Semi) => {
                self.advance();
                Ok(Stmt::Block(Vec::new()))
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let base = self.parse_base_type()?;
        let (name, ty) = self.parse_declarator(base)?;
        let init = if self.eat(&Token::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&Token::Semi)?;
        Ok(Stmt::Decl { name, ty, init })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_or()?;
        if self.eat(&Token::Assign) {
            let value = self.parse_assign()?;
            return Ok(Expr::Assign {
                target: Box::new(lhs),
                value: Box::new(value),
            });
        }
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_bitor()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.parse_bitor()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bitor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_bitxor()?;
        while self.eat(&Token::Pipe) {
            let rhs = self.parse_bitxor()?;
            lhs = Expr::Binary {
                op: BinOp::BitOr,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bitxor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_bitand()?;
        while self.eat(&Token::Caret) {
            let rhs = self.parse_bitand()?;
            lhs = Expr::Binary {
                op: BinOp::BitXor,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bitand(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_equality()?;
        while self.peek() == Some(&Token::Amp) && self.peek2() != Some(&Token::Amp) {
            self.advance();
            let rhs = self.parse_equality()?;
            lhs = Expr::Binary {
                op: BinOp::BitAnd,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = match self.peek() {
                Some(Token::EqEq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_relational()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_shift()?;
        loop {
            let op = match self.peek() {
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Ge) => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_shift()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_shift(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Shl) => BinOp::Shl,
                Some(Token::Shr) => BinOp::Shr,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_additive()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Token::Minus) => Some(UnaryOp::Neg),
            Some(Token::Bang) => Some(UnaryOp::Not),
            Some(Token::Star) => Some(UnaryOp::Deref),
            Some(Token::Amp) => Some(UnaryOp::Addr),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek() {
                Some(Token::LParen) => {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                    };
                }
                Some(Token::LBracket) => {
                    self.advance();
                    let index = self.parse_expr()?;
                    self.expect(&Token::RBracket)?;
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                Some(Token::PlusPlus) => {
                    self.advance();
                    expr = Expr::PostIncDec {
                        target: Box::new(expr),
                        inc: true,
                    };
                }
                Some(Token::MinusMinus) => {
                    self.advance();
                    expr = Expr::PostIncDec {
                        target: Box::new(expr),
                        inc: false,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(Expr::IntLit(v)),
            Some(Token::Str(s)) => Ok(Expr::StrLit(s)),
            Some(Token::Ident(name)) => Ok(Expr::Var(name)),
            Some(Token::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(t) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected expression, found `{t}`"),
            }),
            None => Err(self.error("expected expression, found end of input")),
        }
    }
}

/// Parses a MinC translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem.
///
/// # Examples
///
/// ```
/// let unit = swsec_minc::parse(
///     "int add(int a, int b) { return a + b; }\n\
///      void main() { exit(add(40, 2)); }",
/// )?;
/// assert_eq!(unit.functions.len(), 2);
/// # Ok::<(), swsec_minc::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Unit, ParseError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.parse_unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let unit = parse("int add(int a, int b) { return a + b; }").unwrap();
        let f = unit.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert!(f.body.is_some());
    }

    #[test]
    fn parses_figure1_server() {
        let src = r#"
            void get_request(int fd, char buf[]) {
                read(fd, buf, 16);
            }
            void process(int fd) {
                char buf[16];
                get_request(fd, buf);
            }
            void main() {
                int fd = 1;
                process(fd);
            }
        "#;
        let unit = parse(src).unwrap();
        assert_eq!(unit.functions.len(), 3);
        // Array parameter decays to char*.
        let get_request = unit.function("get_request").unwrap();
        assert_eq!(get_request.params[1].ty, Type::Ptr(Box::new(Type::Char)));
    }

    #[test]
    fn parses_figure2_secret_module() {
        let src = r#"
            static int tries_left = 3;
            static int PIN = 1234;
            static int secret = 666;
            int get_secret(int provided_pin) {
                if (tries_left > 0) {
                    if (PIN == provided_pin) {
                        tries_left = 3;
                        return secret;
                    } else { tries_left--; return 0; }
                } else return 0;
            }
        "#;
        let unit = parse(src).unwrap();
        assert_eq!(unit.globals.len(), 3);
        assert!(unit.globals.iter().all(|g| g.is_static));
        assert!(unit.function("get_secret").is_some());
    }

    #[test]
    fn parses_figure4_fn_pointer_param() {
        let src = r#"
            static int secret = 666;
            int get_secret(int (*get_pin)()) {
                if (secret == get_pin()) { return secret; }
                return 0;
            }
        "#;
        let unit = parse(src).unwrap();
        let f = unit.function("get_secret").unwrap();
        assert_eq!(f.params[0].ty, Type::FnPtr(Box::new(Type::Int), vec![]));
    }

    #[test]
    fn parses_extern_declaration() {
        let unit = parse("extern int get_secret(int pin);").unwrap();
        let f = unit.function("get_secret").unwrap();
        assert!(f.body.is_none());
    }

    #[test]
    fn extern_with_body_rejected() {
        assert!(parse("extern int f() { return 1; }").is_err());
    }

    #[test]
    fn parses_globals_with_initializers() {
        let unit = parse("int x = 5;\nint neg = -3;\nchar msg[8] = \"hi\";\nint zeroed;").unwrap();
        assert_eq!(unit.globals[0].init, Some(GlobalInit::Int(5)));
        assert_eq!(unit.globals[1].init, Some(GlobalInit::Int(-3)));
        assert_eq!(unit.globals[2].init, Some(GlobalInit::Str("hi".into())));
        assert_eq!(unit.globals[3].init, None);
    }

    #[test]
    fn precedence_mul_over_add() {
        let unit = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let body = unit.function("f").unwrap().body.as_ref().unwrap();
        match &body[0] {
            Stmt::Return(Some(Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            })) => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected AST: {other:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let unit = parse("void f() { int a; int b; a = b = 1; }").unwrap();
        let body = unit.function("f").unwrap().body.as_ref().unwrap();
        match &body[2] {
            Stmt::Expr(Expr::Assign { value, .. }) => {
                assert!(matches!(**value, Expr::Assign { .. }));
            }
            other => panic!("unexpected AST: {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            int f(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { total = total + i; }
                    else { continue; }
                    while (total > 100) { break; }
                }
                return total;
            }
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn bitand_vs_logical_and() {
        let unit = parse("int f(int a, int b) { return a & b && a; }").unwrap();
        let body = unit.function("f").unwrap().body.as_ref().unwrap();
        match &body[0] {
            Stmt::Return(Some(Expr::Binary {
                op: BinOp::And,
                lhs,
                ..
            })) => {
                assert!(matches!(
                    **lhs,
                    Expr::Binary {
                        op: BinOp::BitAnd,
                        ..
                    }
                ));
            }
            other => panic!("unexpected AST: {other:?}"),
        }
    }

    #[test]
    fn address_of_and_deref() {
        let unit = parse("void f() { int x; int *p; p = &x; *p = 3; }").unwrap();
        let body = unit.function("f").unwrap().body.as_ref().unwrap();
        assert!(matches!(
            &body[2],
            Stmt::Expr(Expr::Assign { value, .. })
                if matches!(**value, Expr::Unary { op: UnaryOp::Addr, .. })
        ));
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse("int f() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse("void f() { int x = 1 }").is_err());
    }

    #[test]
    fn void_param_list_is_empty() {
        let unit = parse("int f(void) { return 0; }").unwrap();
        assert!(unit.function("f").unwrap().params.is_empty());
    }
}
