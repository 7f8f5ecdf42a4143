//! The reference interpreter: MinC's *source-level* semantics.
//!
//! The paper's security objective is that "the compiled system should
//! behave as specified in the source code it is compiled from". This
//! interpreter *is* that specification, made executable. It evaluates
//! the AST over an abstract memory of per-object allocations in which
//! pointers carry their provenance, so every spatial violation
//! (out-of-bounds access) and temporal violation (access to a
//! deallocated object) is a **defined trap** rather than undefined
//! behaviour.
//!
//! The observational-equivalence harness in the `swsec` crate runs a
//! program here and on the VM with the same input; an attack has
//! succeeded exactly when the VM exhibits observable behaviour this
//! interpreter cannot.
//!
//! # Examples
//!
//! ```
//! use swsec_minc::interp::{run, InterpOutcome};
//! use swsec_minc::parse;
//!
//! let unit = parse("void main() { char b[4]; read(0, b, 16); }")?;
//! let result = run(&unit, &[(0, b"AAAAAAAAAAAAAAAA".to_vec())], 10_000);
//! // Reading 16 bytes into a 4-byte buffer is a *defined trap* at the
//! // source level — not a stack smash.
//! assert!(matches!(result.outcome, InterpOutcome::Trap(_)));
//! # Ok::<(), swsec_minc::ParseError>(())
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::ast::{BinOp, Expr, Function, GlobalInit, Stmt, Type, UnaryOp, Unit};

/// A source-level safety violation: the defined trap MinC semantics
/// raise where C would have undefined behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// What went wrong (out-of-bounds, use-after-return, bad pointer…).
    pub message: String,
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SafetyViolation {}

fn violation(message: impl Into<String>) -> Interrupt {
    Interrupt::Violation(SafetyViolation {
        message: message.into(),
    })
}

/// How an interpreted run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpOutcome {
    /// `exit(code)` or `main` returned.
    Exit(i32),
    /// A safety violation trapped.
    Trap(SafetyViolation),
    /// The step budget ran out.
    OutOfFuel,
}

/// The result of an interpreted run: outcome plus observable I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpResult {
    /// How the run ended.
    pub outcome: InterpOutcome,
    /// Output per channel, in fd order — the observable behaviour.
    pub io: Vec<(u32, Vec<u8>)>,
    /// Evaluation steps consumed.
    pub steps: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(i32),
    Ptr { alloc: usize, index: i64 },
    Fn(String),
}

impl Value {
    fn as_int(&self) -> Result<i32, Interrupt> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Ptr { .. } => Err(violation("pointer used where an integer is required")),
            Value::Fn(_) => Err(violation("function used where an integer is required")),
        }
    }

    fn truthy(&self) -> Result<bool, Interrupt> {
        match self {
            Value::Int(v) => Ok(*v != 0),
            Value::Ptr { .. } => Ok(true),
            Value::Fn(_) => Ok(true),
        }
    }
}

#[derive(Debug)]
struct Alloc {
    elem: Type,
    cells: Vec<Value>,
    live: bool,
    name: String,
    /// Declared as an array (decays to a pointer when read), even when
    /// it has a single element.
    aggregate: bool,
    /// Allocated by the `alloc` builtin (only such objects may be
    /// passed to `free`).
    heap: bool,
}

enum Interrupt {
    Violation(SafetyViolation),
    Exit(i32),
    Fuel,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

struct Interp<'a> {
    unit: &'a Unit,
    allocs: Vec<Alloc>,
    globals: HashMap<String, usize>,
    strings: HashMap<String, usize>,
    scopes: Vec<Vec<HashMap<String, usize>>>,
    inputs: HashMap<u32, VecDeque<u8>>,
    outputs: BTreeMap<u32, Vec<u8>>,
    fuel: u64,
    steps: u64,
    rng_state: u64,
}

impl<'a> Interp<'a> {
    fn tick(&mut self) -> Result<(), Interrupt> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(Interrupt::Fuel);
        }
        Ok(())
    }

    fn next_rand(&mut self) -> i32 {
        // The same xorshift64* generator as the VM's `sys rand`, so a
        // program calling rand() behaves identically on both sides when
        // the seeds match.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32 as i32
    }

    fn alloc_object(&mut self, name: &str, ty: &Type) -> usize {
        let (elem, count, aggregate) = match ty {
            Type::Array(e, n) => ((**e).clone(), *n, true),
            other => (other.clone(), 1, false),
        };
        self.allocs.push(Alloc {
            cells: vec![Value::Int(0); count.max(1)],
            elem,
            live: true,
            name: name.to_string(),
            aggregate,
            heap: false,
        });
        self.allocs.len() - 1
    }

    fn string_alloc(&mut self, s: &str) -> usize {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let mut cells: Vec<Value> = s.bytes().map(|b| Value::Int(i32::from(b))).collect();
        cells.push(Value::Int(0));
        self.allocs.push(Alloc {
            cells,
            elem: Type::Char,
            live: true,
            name: format!("\"{s}\""),
            aggregate: true,
            heap: false,
        });
        let id = self.allocs.len() - 1;
        self.strings.insert(s.to_string(), id);
        id
    }

    fn load_cell(&self, alloc: usize, index: i64) -> Result<Value, Interrupt> {
        let a = &self.allocs[alloc];
        if !a.live {
            return Err(violation(format!(
                "temporal violation: read of deallocated object `{}`",
                a.name
            )));
        }
        if index < 0 || index as usize >= a.cells.len() {
            return Err(violation(format!(
                "spatial violation: read of `{}` at index {index} (size {})",
                a.name,
                a.cells.len()
            )));
        }
        Ok(a.cells[index as usize].clone())
    }

    fn store_cell(&mut self, alloc: usize, index: i64, value: Value) -> Result<(), Interrupt> {
        let is_byte = self.allocs[alloc].elem.is_byte();
        let a = &self.allocs[alloc];
        if !a.live {
            return Err(violation(format!(
                "temporal violation: write to deallocated object `{}`",
                a.name
            )));
        }
        if index < 0 || index as usize >= a.cells.len() {
            return Err(violation(format!(
                "spatial violation: write to `{}` at index {index} (size {})",
                a.name,
                a.cells.len()
            )));
        }
        let value = if is_byte {
            Value::Int(value.as_int()? & 0xff)
        } else {
            value
        };
        self.allocs[alloc].cells[index as usize] = value;
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        if let Some(frames) = self.scopes.last() {
            for scope in frames.iter().rev() {
                if let Some(&id) = scope.get(name) {
                    return Some(id);
                }
            }
        }
        self.globals.get(name).copied()
    }

    fn lvalue(&mut self, e: &Expr) -> Result<(usize, i64), Interrupt> {
        match e {
            Expr::Var(name) => {
                let id = self
                    .lookup(name)
                    .ok_or_else(|| violation(format!("unknown variable `{name}`")))?;
                Ok((id, 0))
            }
            Expr::Index { base, index } => {
                let base_val = self.eval(base)?;
                let idx = self.eval(index)?.as_int()? as i64;
                match base_val {
                    Value::Ptr { alloc, index } => Ok((alloc, index + idx)),
                    _ => Err(violation("indexing a non-pointer value")),
                }
            }
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => match self.eval(expr)? {
                Value::Ptr { alloc, index } => Ok((alloc, index)),
                Value::Int(_) => Err(violation(
                    "dereference of an integer (no pointer provenance)",
                )),
                Value::Fn(_) => Err(violation("dereference of a function pointer")),
            },
            other => Err(violation(format!("not an lvalue: {other:?}"))),
        }
    }

    /// Reads a variable, applying array-to-pointer decay.
    fn read_var(&mut self, name: &str) -> Result<Value, Interrupt> {
        if let Some(id) = self.lookup(name) {
            let a = &self.allocs[id];
            // Arrays decay to a pointer to their first element; scalars
            // load their single cell.
            if a.aggregate {
                return Ok(Value::Ptr {
                    alloc: id,
                    index: 0,
                });
            }
            return self.load_cell(id, 0);
        }
        if self.unit.function(name).is_some() {
            return Ok(Value::Fn(name.to_string()));
        }
        Err(violation(format!("unknown identifier `{name}`")))
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, Interrupt> {
        self.tick()?;
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v as i32)),
            Expr::StrLit(s) => {
                let id = self.string_alloc(s);
                Ok(Value::Ptr {
                    alloc: id,
                    index: 0,
                })
            }
            Expr::Var(name) => {
                // Arrays must decay: detect by declared type.
                if let Some(id) = self.lookup(name) {
                    if self.alloc_is_aggregate(id, name) {
                        return Ok(Value::Ptr {
                            alloc: id,
                            index: 0,
                        });
                    }
                    return self.load_cell(id, 0);
                }
                self.read_var(name)
            }
            Expr::Assign { target, value } => {
                let v = self.eval(value)?;
                let (alloc, index) = self.lvalue(target)?;
                self.store_cell(alloc, index, v.clone())?;
                Ok(v)
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => Ok(Value::Int(self.eval(expr)?.as_int()?.wrapping_neg())),
                UnaryOp::Not => Ok(Value::Int(i32::from(!self.eval(expr)?.truthy()?))),
                UnaryOp::Deref => {
                    let (alloc, index) = self.lvalue(e)?;
                    self.load_cell(alloc, index)
                }
                UnaryOp::Addr => {
                    let (alloc, index) = self.lvalue(expr)?;
                    Ok(Value::Ptr { alloc, index })
                }
            },
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::Call { callee, args } => self.eval_call(callee, args),
            Expr::Index { .. } => {
                let (alloc, index) = self.lvalue(e)?;
                self.load_cell(alloc, index)
            }
            Expr::PostIncDec { target, inc } => {
                let (alloc, index) = self.lvalue(target)?;
                let old = self.load_cell(alloc, index)?;
                let new = match &old {
                    Value::Int(v) => Value::Int(if *inc {
                        v.wrapping_add(1)
                    } else {
                        v.wrapping_sub(1)
                    }),
                    Value::Ptr { alloc, index } => Value::Ptr {
                        alloc: *alloc,
                        index: if *inc { index + 1 } else { index - 1 },
                    },
                    Value::Fn(_) => return Err(violation("++/-- on a function pointer")),
                };
                self.store_cell(alloc, index, new)?;
                Ok(old)
            }
        }
    }

    fn alloc_is_aggregate(&self, id: usize, _name: &str) -> bool {
        self.allocs[id].aggregate
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, Interrupt> {
        match op {
            BinOp::And => {
                if !self.eval(lhs)?.truthy()? {
                    return Ok(Value::Int(0));
                }
                return Ok(Value::Int(i32::from(self.eval(rhs)?.truthy()?)));
            }
            BinOp::Or => {
                if self.eval(lhs)?.truthy()? {
                    return Ok(Value::Int(1));
                }
                return Ok(Value::Int(i32::from(self.eval(rhs)?.truthy()?)));
            }
            _ => {}
        }
        let a = self.eval(lhs)?;
        let b = self.eval(rhs)?;
        // Pointer arithmetic and comparison.
        match (&a, &b) {
            (Value::Ptr { alloc, index }, Value::Int(n)) => {
                return match op {
                    BinOp::Add => Ok(Value::Ptr {
                        alloc: *alloc,
                        index: index + i64::from(*n),
                    }),
                    BinOp::Sub => Ok(Value::Ptr {
                        alloc: *alloc,
                        index: index - i64::from(*n),
                    }),
                    BinOp::Eq => Ok(Value::Int(0)),
                    BinOp::Ne => Ok(Value::Int(1)),
                    _ => Err(violation("unsupported pointer/integer operation")),
                };
            }
            (Value::Int(n), Value::Ptr { alloc, index }) if op == BinOp::Add => {
                return Ok(Value::Ptr {
                    alloc: *alloc,
                    index: index + i64::from(*n),
                });
            }
            (
                Value::Ptr {
                    alloc: a1,
                    index: i1,
                },
                Value::Ptr {
                    alloc: a2,
                    index: i2,
                },
            ) => {
                return match op {
                    BinOp::Sub if a1 == a2 => Ok(Value::Int((i1 - i2) as i32)),
                    BinOp::Sub => Err(violation("subtraction of pointers into different objects")),
                    BinOp::Eq => Ok(Value::Int(i32::from(a1 == a2 && i1 == i2))),
                    BinOp::Ne => Ok(Value::Int(i32::from(!(a1 == a2 && i1 == i2)))),
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge if a1 == a2 => {
                        let r = match op {
                            BinOp::Lt => i1 < i2,
                            BinOp::Gt => i1 > i2,
                            BinOp::Le => i1 <= i2,
                            _ => i1 >= i2,
                        };
                        Ok(Value::Int(i32::from(r)))
                    }
                    _ => Err(violation(
                        "relational comparison of pointers into different objects",
                    )),
                };
            }
            _ => {}
        }
        let a = a.as_int()?;
        let b = b.as_int()?;
        let v = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(violation("division by zero"));
                }
                a.wrapping_div(b)
            }
            BinOp::Mod => {
                if b == 0 {
                    return Err(violation("remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            BinOp::Shl => (a as u32).wrapping_shl(b as u32) as i32,
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Lt => i32::from(a < b),
            BinOp::Gt => i32::from(a > b),
            BinOp::Le => i32::from(a <= b),
            BinOp::Ge => i32::from(a >= b),
            BinOp::Eq => i32::from(a == b),
            BinOp::Ne => i32::from(a != b),
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            BinOp::And | BinOp::Or => unreachable!("short-circuit handled above"),
        };
        Ok(Value::Int(v))
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr]) -> Result<Value, Interrupt> {
        if let Expr::Var(name) = callee {
            match name.as_str() {
                "read" => {
                    let fd = self.eval(&args[0])?.as_int()? as u32;
                    let buf = self.eval(&args[1])?;
                    let len = self.eval(&args[2])?.as_int()?;
                    let (alloc, base) = match buf {
                        Value::Ptr { alloc, index } => (alloc, index),
                        _ => return Err(violation("read() needs a pointer buffer")),
                    };
                    let mut count = 0i32;
                    for i in 0..len.max(0) {
                        let byte = match self.inputs.get_mut(&fd).and_then(|q| q.pop_front()) {
                            Some(b) => b,
                            None => break,
                        };
                        self.store_cell(alloc, base + i64::from(i), Value::Int(i32::from(byte)))?;
                        count += 1;
                    }
                    return Ok(Value::Int(count));
                }
                "write" => {
                    let fd = self.eval(&args[0])?.as_int()? as u32;
                    let buf = self.eval(&args[1])?;
                    let len = self.eval(&args[2])?.as_int()?;
                    let (alloc, base) = match buf {
                        Value::Ptr { alloc, index } => (alloc, index),
                        _ => return Err(violation("write() needs a pointer buffer")),
                    };
                    let mut bytes = Vec::new();
                    for i in 0..len.max(0) {
                        let v = self.load_cell(alloc, base + i64::from(i))?.as_int()?;
                        bytes.push(v as u8);
                    }
                    self.outputs
                        .entry(fd)
                        .or_default()
                        .extend_from_slice(&bytes);
                    return Ok(Value::Int(len.max(0)));
                }
                "exit" => {
                    let code = self.eval(&args[0])?.as_int()?;
                    return Err(Interrupt::Exit(code));
                }
                "rand" => {
                    return Ok(Value::Int(self.next_rand()));
                }
                "alloc" => {
                    let n = self.eval(&args[0])?.as_int()?;
                    if n < 0 {
                        return Err(violation("alloc() with a negative size"));
                    }
                    let id = self.allocs.len();
                    self.allocs.push(Alloc {
                        cells: vec![Value::Int(0); (n.max(1)) as usize],
                        elem: Type::Char,
                        live: true,
                        name: format!("heap#{id}"),
                        aggregate: true,
                        heap: true,
                    });
                    return Ok(Value::Ptr {
                        alloc: id,
                        index: 0,
                    });
                }
                "free" => {
                    let v = self.eval(&args[0])?;
                    match v {
                        Value::Int(0) => return Ok(Value::Int(0)), // free(NULL)
                        Value::Ptr { alloc, index } => {
                            if index != 0 {
                                return Err(violation(
                                    "free() of a pointer into the middle of an object",
                                ));
                            }
                            let a = &mut self.allocs[alloc];
                            if !a.heap {
                                return Err(violation(format!(
                                    "free() of non-heap object `{}`",
                                    a.name
                                )));
                            }
                            if !a.live {
                                return Err(violation(format!("double free of `{}`", a.name)));
                            }
                            a.live = false;
                            return Ok(Value::Int(0));
                        }
                        _ => return Err(violation("free() needs a heap pointer")),
                    }
                }
                _ => {}
            }
        }
        // Resolve the target function.
        let fname = match callee {
            Expr::Var(name)
                if self.unit.function(name).is_some() && self.lookup(name).is_none() =>
            {
                name.clone()
            }
            other => match self.eval(other)? {
                Value::Fn(name) => name,
                Value::Int(_) => {
                    return Err(violation(
                        "call through an integer (no function provenance)",
                    ))
                }
                Value::Ptr { .. } => return Err(violation("call through a data pointer")),
            },
        };
        let func = self
            .unit
            .function(&fname)
            .ok_or_else(|| violation(format!("call of unknown function `{fname}`")))?
            .clone();
        if func.body.is_none() {
            return Err(violation(format!(
                "call of extern function `{fname}` with no body in this unit"
            )));
        }
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(a)?);
        }
        self.call_function(&func, arg_values)
    }

    fn call_function(&mut self, func: &Function, args: Vec<Value>) -> Result<Value, Interrupt> {
        let body = func.body.as_ref().expect("checked by caller");
        let mut frame_allocs = Vec::new();
        let mut scope = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            let id = self.alloc_object(&p.name, &p.ty.decayed());
            self.allocs[id].cells[0] = if p.ty.is_byte() {
                Value::Int(v.as_int()? & 0xff)
            } else {
                v
            };
            scope.insert(p.name.clone(), id);
            frame_allocs.push(id);
        }
        self.scopes.push(vec![scope]);
        let mut result = Value::Int(0);
        let mut flow_err = None;
        match self.exec_block(body, &mut frame_allocs) {
            Ok(Flow::Return(v)) => result = v,
            Ok(_) => {}
            Err(e) => flow_err = Some(e),
        }
        // Deallocate the frame: locals die on return (temporal
        // semantics — dangling pointers become detectable).
        for scope in self.scopes.pop().expect("frame pushed above") {
            for (_, id) in scope {
                self.allocs[id].live = false;
            }
        }
        for id in frame_allocs {
            self.allocs[id].live = false;
        }
        match flow_err {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        frame_allocs: &mut Vec<usize>,
    ) -> Result<Flow, Interrupt> {
        for s in stmts {
            match self.exec_stmt(s, frame_allocs)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt, frame_allocs: &mut Vec<usize>) -> Result<Flow, Interrupt> {
        self.tick()?;
        match s {
            Stmt::Decl { name, ty, init } => {
                let id = self.alloc_object(name, ty);
                frame_allocs.push(id);
                if let Some(init) = init {
                    let v = self.eval(init)?;
                    self.store_cell(id, 0, v)?;
                }
                self.scopes
                    .last_mut()
                    .expect("inside a frame")
                    .last_mut()
                    .expect("inside a scope")
                    .insert(name.clone(), id);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy()? {
                    self.exec_stmt(then_branch, frame_allocs)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, frame_allocs)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy()? {
                    match self.exec_stmt(body, frame_allocs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes
                    .last_mut()
                    .expect("inside a frame")
                    .push(HashMap::new());
                if let Some(init) = init {
                    self.exec_stmt(init, frame_allocs)?;
                }
                let flow = loop {
                    let go = match cond {
                        Some(c) => self.eval(c)?.truthy()?,
                        None => true,
                    };
                    if !go {
                        break Flow::Normal;
                    }
                    match self.exec_stmt(body, frame_allocs)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        _ => {}
                    }
                    if let Some(step) = step {
                        self.eval(step)?;
                    }
                };
                self.scopes.last_mut().expect("inside a frame").pop();
                Ok(flow)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(stmts) => {
                self.scopes
                    .last_mut()
                    .expect("inside a frame")
                    .push(HashMap::new());
                let flow = self.exec_block(stmts, frame_allocs);
                self.scopes.last_mut().expect("inside a frame").pop();
                flow
            }
        }
    }
}

/// Runs `main` of `unit` with the given per-channel inputs and a step
/// budget, under safe source-level semantics.
pub fn run(unit: &Unit, inputs: &[(u32, Vec<u8>)], fuel: u64) -> InterpResult {
    run_seeded(unit, inputs, fuel, 0x9E37_79B9_7F4A_7C15)
}

/// Like [`run`], with an explicit seed for the `rand()` builtin (pass
/// the same seed given to
/// [`Machine::seed_rng`](swsec_vm::cpu::Machine::seed_rng) to compare
/// runs that use randomness).
pub fn run_seeded(unit: &Unit, inputs: &[(u32, Vec<u8>)], fuel: u64, seed: u64) -> InterpResult {
    let mut interp = Interp {
        unit,
        allocs: Vec::new(),
        globals: HashMap::new(),
        strings: HashMap::new(),
        scopes: Vec::new(),
        inputs: inputs
            .iter()
            .map(|(fd, bytes)| (*fd, bytes.iter().copied().collect()))
            .collect(),
        outputs: BTreeMap::new(),
        fuel,
        steps: 0,
        rng_state: seed | 1,
    };
    // Globals.
    for g in &unit.globals {
        let id = interp.alloc_object(&g.name, &g.ty);
        match &g.init {
            Some(GlobalInit::Int(v)) => {
                let v = if g.ty.is_byte() {
                    *v as i32 & 0xff
                } else {
                    *v as i32
                };
                interp.allocs[id].cells[0] = Value::Int(v);
            }
            Some(GlobalInit::Str(s)) => {
                for (i, b) in s.bytes().enumerate() {
                    interp.allocs[id].cells[i] = Value::Int(i32::from(b));
                }
            }
            None => {}
        }
        interp.globals.insert(g.name.clone(), id);
    }
    let outcome = match unit.function("main") {
        None => InterpOutcome::Trap(SafetyViolation {
            message: "program has no main function".into(),
        }),
        Some(main) if main.body.is_none() => InterpOutcome::Trap(SafetyViolation {
            message: "main has no body".into(),
        }),
        Some(main) => {
            let main = main.clone();
            match interp.call_function(&main, Vec::new()) {
                Ok(v) => InterpOutcome::Exit(v.as_int().unwrap_or(0)),
                Err(Interrupt::Exit(code)) => InterpOutcome::Exit(code),
                Err(Interrupt::Violation(v)) => InterpOutcome::Trap(v),
                Err(Interrupt::Fuel) => InterpOutcome::OutOfFuel,
            }
        }
    };
    InterpResult {
        outcome,
        io: interp
            .outputs
            .into_iter()
            .filter(|(_, bytes)| !bytes.is_empty())
            .collect(),
        steps: interp.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn exec(src: &str, input: &[u8]) -> InterpResult {
        let unit = parse(src).unwrap();
        run(&unit, &[(0, input.to_vec())], 1_000_000)
    }

    #[test]
    fn exit_code_from_main() {
        assert_eq!(
            exec("int main() { return 42; }", &[]).outcome,
            InterpOutcome::Exit(42)
        );
    }

    #[test]
    fn echo_server_behaviour() {
        let r = exec(
            "void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }",
            b"ping",
        );
        assert_eq!(r.outcome, InterpOutcome::Exit(0));
        assert_eq!(r.io, vec![(1, b"ping".to_vec())]);
    }

    #[test]
    fn spatial_violation_on_oversized_read() {
        let r = exec("void main() { char buf[4]; read(0, buf, 8); }", b"AAAAAAAA");
        match r.outcome {
            InterpOutcome::Trap(v) => assert!(v.message.contains("spatial")),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn short_input_does_not_trap() {
        // read() only stores as many bytes as are available.
        let r = exec("void main() { char buf[4]; read(0, buf, 4); }", b"ab");
        assert_eq!(r.outcome, InterpOutcome::Exit(0));
    }

    #[test]
    fn spatial_violation_on_oob_index() {
        let r = exec("int main() { int a[4]; return a[4]; }", &[]);
        assert!(matches!(r.outcome, InterpOutcome::Trap(_)));
    }

    #[test]
    fn negative_index_traps() {
        let r = exec("int main() { int a[4]; int i = -1; return a[i]; }", &[]);
        assert!(matches!(r.outcome, InterpOutcome::Trap(_)));
    }

    #[test]
    fn temporal_violation_on_dangling_pointer() {
        // The §III-A temporal example: a pointer to a dead frame.
        let r = exec(
            "int *escape() { int local = 5; return &local; }\n\
             int main() { int *p = escape(); return *p; }",
            &[],
        );
        match r.outcome {
            InterpOutcome::Trap(v) => assert!(v.message.contains("temporal"), "{}", v.message),
            other => panic!("expected temporal trap, got {other:?}"),
        }
    }

    #[test]
    fn integer_to_pointer_has_no_provenance() {
        let r = exec(
            "int main() { int x = 1234; int *p; p = &x; p = p + 10; return *p; }",
            &[],
        );
        assert!(matches!(r.outcome, InterpOutcome::Trap(_)));
    }

    #[test]
    fn pointer_arithmetic_within_object_is_fine() {
        let r = exec(
            "int main() { int a[4]; a[0] = 1; a[3] = 9; int *p = a; return *(p + 3); }",
            &[],
        );
        assert_eq!(r.outcome, InterpOutcome::Exit(9));
    }

    #[test]
    fn function_pointers_work() {
        let r = exec(
            "int f() { return 7; }\n\
             int call(int (*g)()) { return g(); }\n\
             int main() { return call(f); }",
            &[],
        );
        assert_eq!(r.outcome, InterpOutcome::Exit(7));
    }

    #[test]
    fn figure2_module_reference_semantics() {
        let src = r#"
            static int tries_left = 3;
            static int PIN = 1234;
            static int secret = 666;
            int get_secret(int provided_pin) {
                if (tries_left > 0) {
                    if (PIN == provided_pin) { tries_left = 3; return secret; }
                    else { tries_left--; return 0; }
                } else return 0;
            }
            int main() {
                int a = get_secret(1111);
                int b = get_secret(2222);
                int c = get_secret(3333);
                int d = get_secret(1234);
                return a + b + c + d;
            }
        "#;
        // Three wrong tries exhaust the counter: even the correct PIN
        // afterwards returns 0.
        assert_eq!(exec(src, &[]).outcome, InterpOutcome::Exit(0));
    }

    #[test]
    fn figure2_module_correct_pin_first() {
        let src = r#"
            static int tries_left = 3;
            static int PIN = 1234;
            static int secret = 666;
            int get_secret(int provided_pin) {
                if (tries_left > 0) {
                    if (PIN == provided_pin) { tries_left = 3; return secret; }
                    else { tries_left--; return 0; }
                } else return 0;
            }
            int main() { return get_secret(1234); }
        "#;
        assert_eq!(exec(src, &[]).outcome, InterpOutcome::Exit(666));
    }

    #[test]
    fn char_values_wrap_at_byte_width() {
        let r = exec("int main() { char c = 300; return c; }", &[]);
        assert_eq!(r.outcome, InterpOutcome::Exit(300 & 0xff));
    }

    #[test]
    fn division_by_zero_traps() {
        let r = exec("int main() { int z = 0; return 1 / z; }", &[]);
        assert!(matches!(r.outcome, InterpOutcome::Trap(_)));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let unit = parse("void main() { while (1) { } }").unwrap();
        let r = run(&unit, &[], 1_000);
        assert_eq!(r.outcome, InterpOutcome::OutOfFuel);
    }

    #[test]
    fn exit_builtin_short_circuits() {
        let r = exec("void main() { exit(9); write(1, \"never\", 5); }", &[]);
        assert_eq!(r.outcome, InterpOutcome::Exit(9));
        assert!(r.io.is_empty());
    }

    #[test]
    fn globals_visible_across_calls() {
        let r = exec(
            "int total = 0;\n\
             void bump(int n) { total = total + n; }\n\
             int main() { bump(20); bump(22); return total; }",
            &[],
        );
        assert_eq!(r.outcome, InterpOutcome::Exit(42));
    }

    #[test]
    fn string_literals_are_readable() {
        let r = exec("void main() { write(1, \"hi\", 2); }", &[]);
        assert_eq!(r.io, vec![(1, b"hi".to_vec())]);
    }

    #[test]
    fn string_literal_overread_traps() {
        let r = exec("void main() { write(1, \"hi\", 10); }", &[]);
        assert!(matches!(r.outcome, InterpOutcome::Trap(_)));
    }

    #[test]
    fn rand_matches_vm_sequence_for_same_seed() {
        let unit = parse("int main() { return rand() & 0xff; }").unwrap();
        let a = run_seeded(&unit, &[], 10_000, 7);
        let b = run_seeded(&unit, &[], 10_000, 7);
        assert_eq!(a.outcome, b.outcome);
    }
}
