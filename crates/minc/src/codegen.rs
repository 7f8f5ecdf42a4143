//! Code generation: MinC → assembler items → machine code.
//!
//! Code is built as [`swsec_asm::Assembly`] items and encoded by the
//! assembler's shared back end, so no assembly text is parsed on the
//! way; the listing is rendered from the same items on first read
//! ([`Listing`]).
//!
//! The generated code follows the frame layout of the paper's Figure 1
//! exactly:
//!
//! ```text
//!   higher addresses
//!   [bp + 8 + 4i]  parameter i            (pushed by the caller)
//!   [bp + 4]       saved return address   (pushed by `call`)
//!   [bp + 0]       saved base pointer     (pushed by `enter`)
//!   [bp - 4]       stack canary           (only when hardened)
//!   [bp - 4 - …]   locals, later declarations at lower addresses
//!   lower addresses        ← the stack grows this way
//! ```
//!
//! A buffer overflow in a local array therefore overwrites, in order:
//! later-declared locals, the canary, the saved base pointer, and the
//! saved return address — precisely the stack-smashing anatomy of
//! §III-B.
//!
//! Hardening passes (all off by default, as in unprotected C):
//!
//! * **stack canaries** — a per-load random value between the locals
//!   and the saved registers, checked before every return;
//! * **software bounds checks** — unsigned index checks on direct array
//!   accesses and a length check on `read` into a known array;
//! * **PMA defensive function-pointer checks** — an indirect call
//!   through a pointer must target memory *outside* the module's own
//!   code (the §IV-B countermeasure to the Figure 4 attack);
//! * **register scrubbing** — non-result registers are zeroed before
//!   return so module secrets cannot leak through registers.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use swsec_asm::{AsmError, AsmErrorKind, Assembly, Insn, Item, Label};
use swsec_vm::cpu::Machine;
use swsec_vm::isa::Instr::{self, *};
use swsec_vm::isa::Reg::*;
use swsec_vm::isa::{sys, trap, AluOp, Cond, Reg};
use swsec_vm::mem::Perm;

mod listing;

pub use listing::Listing;
use listing::{LabelName, Names, Span};

use crate::ast::{BinOp, Expr, Function, GlobalInit, Stmt, Type, UnaryOp, Unit};
use crate::sema;

/// Where the program's segments are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutConfig {
    /// Base of the text (code) segment.
    pub text_base: u32,
    /// Base of the data segment.
    pub data_base: u32,
    /// Initial top of the stack (the stack grows down from here).
    pub stack_top: u32,
    /// Bytes of stack mapped below `stack_top`.
    pub stack_size: u32,
    /// Base of the heap segment served by `alloc`/`free`.
    pub heap_base: u32,
    /// Bytes of heap mapped at `heap_base`.
    pub heap_size: u32,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        // The classic 32-bit Linux layout of the paper's Figure 1.
        LayoutConfig {
            text_base: 0x0804_8000,
            data_base: 0x0805_0000,
            stack_top: 0xbfff_f000,
            stack_size: 0x1_0000,
            heap_base: 0x0806_0000,
            heap_size: 0x1_0000,
        }
    }
}

/// Compiler hardening switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HardenOptions {
    /// Emit stack canaries (StackGuard, §III-C1).
    pub stack_canary: bool,
    /// Emit software bounds checks on array accesses and `read`.
    pub bounds_checks: bool,
    /// Emit defensive checks on indirect calls: the target must lie
    /// outside this compilation unit's code (§IV-B secure compilation).
    pub pma_fnptr_check: bool,
    /// Zero non-result registers before returning (secure compilation:
    /// no secrets leak through registers to the caller).
    pub scrub_registers: bool,
    /// Route every out-call through an internal continuation stack and
    /// a designated return-entry stub, so the module runs under the
    /// strict `EntryPointsOnly` re-entry policy (the full §IV-B secure
    /// compilation scheme of the paper's reference \[30\]).
    pub strict_reentry: bool,
    /// Quarantine the heap: `free` never recycles chunks, so dangling
    /// pointers cannot alias attacker-controlled reallocations (the
    /// mitigation half of the use-after-free story; costs memory).
    pub heap_quarantine: bool,
}

impl HardenOptions {
    /// All hardening off: faithful unprotected C.
    pub fn none() -> HardenOptions {
        HardenOptions::default()
    }

    /// The §IV-B secure-compilation bundle for protected modules
    /// (defensive checks and scrubbing; re-entry stays relaxed).
    pub fn secure_module() -> HardenOptions {
        HardenOptions {
            stack_canary: false,
            bounds_checks: false,
            pma_fnptr_check: true,
            scrub_registers: true,
            strict_reentry: false,
            heap_quarantine: false,
        }
    }

    /// The full scheme: `secure_module` plus continuation-stack
    /// out-calls, compatible with the strict `EntryPointsOnly` policy.
    pub fn secure_module_strict() -> HardenOptions {
        HardenOptions {
            strict_reentry: true,
            ..HardenOptions::secure_module()
        }
    }
}

/// Options controlling one compilation.
///
/// Cheap to clone and hashable end to end, so compilation results can
/// be memoized keyed on `(source, options)` — see `swsec::cache`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CompileOptions {
    /// Segment placement.
    pub layout: LayoutOpt,
    /// Hardening switches.
    pub harden: HardenOptions,
    /// Pre-resolved addresses of `extern` functions (static linking
    /// against an already-loaded module).
    pub externs: BTreeMap<String, u32>,
    /// Emit a `_start` stub that calls `main` then exits (off for
    /// modules, which are entered through their exported functions).
    pub no_start: bool,
}

/// Wrapper so `CompileOptions::default()` gets the default layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LayoutOpt(pub LayoutConfig);

/// A compile-time error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<sema::SemaError> for CompileError {
    fn from(e: sema::SemaError) -> CompileError {
        CompileError { message: e.message }
    }
}

fn cerr(message: impl Into<String>) -> CompileError {
    CompileError {
        message: message.into(),
    }
}

/// Placement of one global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSlot {
    /// Absolute address in the data segment.
    pub addr: u32,
    /// Declared type.
    pub ty: Type,
}

/// Placement of one local variable within a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSlot {
    /// Offset from the base pointer (negative: below the saved bp).
    pub offset: i32,
    /// Declared type.
    pub ty: Type,
}

/// Frame layout of one compiled function, for experiments that need to
/// know exactly where a buffer sits relative to the saved return
/// address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameLayout {
    /// Total bytes subtracted from `sp` by the prologue.
    pub frame_size: u32,
    /// Offset of the canary slot, when canaries are enabled.
    pub canary_offset: Option<i32>,
    /// Every local with its slot, in declaration order (shadowed names
    /// appear multiple times).
    pub locals: Vec<(String, FrameSlot)>,
    /// Every parameter with its positive bp-offset.
    pub params: Vec<(String, i32)>,
}

/// A fully compiled translation unit: loadable segments plus the
/// symbol and layout information the experiments interrogate.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Base address of the text segment.
    pub text_base: u32,
    /// Text segment bytes.
    pub text: Vec<u8>,
    /// Base address of the data segment.
    pub data_base: u32,
    /// Data segment bytes (globals, canary cell, string literals).
    pub data: Vec<u8>,
    /// Address of `_start`, when one was emitted.
    pub entry: Option<u32>,
    /// Address of every function.
    pub functions: BTreeMap<String, u32>,
    /// Names of exported (non-`static`) functions.
    pub exports: Vec<String>,
    /// Placement of every global.
    pub globals: BTreeMap<String, GlobalSlot>,
    /// Frame layout of every function with a body.
    pub frames: BTreeMap<String, FrameLayout>,
    /// Address of the canary cell, when canaries were compiled in.
    pub canary_addr: Option<u32>,
    /// Address of the strict-re-entry return stub, when compiled with
    /// [`HardenOptions::strict_reentry`]. Must be registered as a
    /// protected-module entry point.
    pub reentry_addr: Option<u32>,
    /// The generated assembly listing, rendered on first read.
    pub listing: Listing,
    /// The layout this program was compiled for.
    pub layout: LayoutConfig,
}

impl CompiledProgram {
    /// End address (exclusive) of the text segment.
    pub fn text_end(&self) -> u32 {
        self.text_base + self.text.len() as u32
    }

    /// End address (exclusive) of the data segment.
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data.len() as u32
    }

    /// The function map as a profiler symbol table: each function
    /// names the text range up to the next function (the last runs to
    /// [`text_end`](Self::text_end)), so sampled guest PCs and return
    /// addresses resolve to MinC function names in `.folded` output.
    #[must_use]
    pub fn symbol_table(&self) -> swsec_obs::SymbolTable {
        swsec_obs::SymbolTable::from_labels(
            self.functions
                .iter()
                .map(|(name, addr)| (name.clone(), *addr)),
            self.text_end(),
        )
    }

    /// Address of a function.
    ///
    /// # Errors
    ///
    /// Returns an error naming the function if it does not exist.
    pub fn function_addr(&self, name: &str) -> Result<u32, CompileError> {
        self.functions
            .get(name)
            .copied()
            .ok_or_else(|| cerr(format!("no function `{name}` in compiled program")))
    }

    /// Maps and copies the program into a machine: text `r-x`, data
    /// `rw-`, stack `rw-`, `sp`/`bp` at the stack top, `ip` at the
    /// entry point (when one exists).
    ///
    /// DEP is a property of the machine's memory enforcement; callers
    /// model the pre-DEP platform with
    /// [`Memory::set_enforce(false)`](swsec_vm::mem::Memory::set_enforce).
    ///
    /// # Errors
    ///
    /// Returns an error if segments overlap already-mapped memory.
    pub fn load(&self, m: &mut Machine) -> Result<(), CompileError> {
        let map = |m: &mut Machine, base: u32, len: usize, perm: Perm| {
            m.mem_mut()
                .map(base, len.max(1) as u32, perm)
                .map_err(|e| cerr(format!("load failed: {e}")))
        };
        map(m, self.text_base, self.text.len(), Perm::RX)?;
        m.mem_mut()
            .poke_bytes(self.text_base, &self.text)
            .map_err(|e| cerr(format!("load failed: {e}")))?;
        map(m, self.data_base, self.data.len(), Perm::RW)?;
        m.mem_mut()
            .poke_bytes(self.data_base, &self.data)
            .map_err(|e| cerr(format!("load failed: {e}")))?;
        map(
            m,
            self.layout.heap_base,
            self.layout.heap_size as usize,
            Perm::RW,
        )?;
        let stack_base = self.layout.stack_top - self.layout.stack_size;
        map(m, stack_base, self.layout.stack_size as usize, Perm::RW)?;
        // Leave headroom above the initial stack pointer so overflows
        // that run past the frame overwrite mapped memory (and are then
        // caught by canaries or verdicts) instead of faulting at the
        // stack ceiling.
        m.set_reg(
            swsec_vm::isa::Reg::Sp,
            self.layout.stack_top - STACK_HEADROOM,
        );
        m.set_reg(
            swsec_vm::isa::Reg::Bp,
            self.layout.stack_top - STACK_HEADROOM,
        );
        if let Some(entry) = self.entry {
            m.set_ip(entry);
        }
        Ok(())
    }

    /// Writes the canary value into the canary cell (done by the loader
    /// at program start, so each run can have a fresh unpredictable
    /// canary).
    ///
    /// # Errors
    ///
    /// Returns an error if the program was compiled without canaries.
    pub fn install_canary(&self, m: &mut Machine, value: u32) -> Result<(), CompileError> {
        let addr = self
            .canary_addr
            .ok_or_else(|| cerr("program compiled without stack canaries"))?;
        m.mem_mut()
            .poke_bytes(addr, &value.to_le_bytes())
            .map_err(|e| cerr(format!("canary install failed: {e}")))
    }
}

const WORD: u32 = 4;

/// Bytes of mapped stack left above the initial stack pointer.
pub const STACK_HEADROOM: u32 = 256;

fn align4(n: u32) -> u32 {
    (n + 3) & !3
}

#[derive(Debug, Clone)]
enum Place<'a> {
    Local(FrameSlot),
    Param { offset: i32, ty: Type },
    Global(GlobalSlot),
    Function(Callee<'a>),
}

/// Function addresses are not known until link time, so code references
/// them by label; externs are absolute.
#[derive(Debug, Clone, Copy)]
enum Callee<'a> {
    Label(&'a str),
    Absolute(u32),
}

/// `instr` with its immediate listed in hex.
fn hex(instr: Instr) -> Insn {
    Insn::new(instr).hex()
}

/// `instr` with its memory operand listed as `[reg]`.
fn at(instr: Instr) -> Insn {
    Insn::new(instr).bare()
}

/// `loadb` for a byte-sized value, else `load`.
fn load(byte: bool, dst: Reg, base: Reg, disp: i16) -> Instr {
    if byte {
        LoadB { dst, base, disp }
    } else {
        Load { dst, base, disp }
    }
}

/// `storeb` for a byte-sized value, else `store`.
fn store(byte: bool, base: Reg, disp: i16, src: Reg) -> Instr {
    if byte {
        StoreB { base, disp, src }
    } else {
        Store { base, disp, src }
    }
}

struct DataBuilder {
    base: u32,
    bytes: Vec<u8>,
}

impl DataBuilder {
    fn alloc(&mut self, size: u32, align: u32) -> u32 {
        let mut len = self.bytes.len() as u32;
        let rem = len % align;
        if rem != 0 {
            len += align - rem;
            self.bytes.resize(len as usize, 0);
        }
        let addr = self.base + len;
        self.bytes.resize((len + size) as usize, 0);
        addr
    }

    fn write(&mut self, addr: u32, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }
}

struct Codegen<'a> {
    unit: &'a Unit,
    opts: &'a CompileOptions,
    asm: Assembly,
    /// Listing spelling of each label, by id.
    names: Names,
    /// Labels of functions and runtime symbols, by name.
    symbols: HashMap<&'a str, Label>,
    /// List emitted instructions without indentation (the heap runtime).
    flush: bool,
    /// The first load/store displacement outside the i16 encoding.
    disp_error: Option<AsmError>,
    data: DataBuilder,
    globals: BTreeMap<String, GlobalSlot>,
    functions_sigs: HashMap<String, sema::FnSig>,
    frames: BTreeMap<String, FrameLayout>,
    canary_addr: Option<u32>,
    cont_sp_addr: Option<u32>,
    cont_stack_range: Option<(u32, u32)>,
    heap_next_cell: u32,
    free_list_cell: u32,
    strings: HashMap<String, u32>,
    label_counter: u32,
    // Per-function state.
    scopes: Vec<HashMap<String, FrameSlot>>,
    params: HashMap<String, (i32, Type)>,
    /// The current function's name in `names`.
    current_fn: Span,
    epilogue: Option<Label>,
    break_stack: Vec<Label>,
    continue_stack: Vec<Label>,
}

impl<'a> Codegen<'a> {
    fn emit(&mut self, insn: impl Into<Insn>) {
        let insn = insn.into();
        self.asm.insn(if self.flush { insn.flush() } else { insn });
    }

    /// Emits `instr` with the address of `label` as its immediate.
    fn emit_to(&mut self, instr: Instr, label: Label) {
        self.emit(Insn::with_target(instr, label));
    }

    fn jmp(&mut self, label: Label) {
        self.emit_to(Jmp(0), label);
    }

    fn jcc(&mut self, cond: Cond, label: Label) {
        self.emit_to(JCond { cond, target: 0 }, label);
    }

    fn emit_label(&mut self, label: Label) {
        self.asm.push(Item::Label(label));
    }

    fn new_label(&mut self, name: LabelName) -> Label {
        self.names.push(name);
        self.asm.label()
    }

    /// The label of a function or runtime symbol, shared by every
    /// reference to and the definition of that name.
    fn symbol(&mut self, name: &'a str) -> Label {
        if let Some(&label) = self.symbols.get(name) {
            return label;
        }
        let span = self.names.intern(name);
        let label = self.new_label(LabelName::Symbol(span));
        self.symbols.insert(name, label);
        label
    }

    fn fresh_label(&mut self, hint: &'static str) -> Label {
        self.label_counter += 1;
        let func = self.current_fn;
        self.new_label(LabelName::Local {
            func,
            hint,
            n: self.label_counter,
        })
    }

    /// `offset` as the displacement of the instruction emitted next.
    /// One outside the i16 encoding fails the compile once code
    /// generation is done (as an assembler error would), and encodes
    /// as 0 meanwhile.
    fn disp(&mut self, offset: i32) -> i16 {
        i16::try_from(offset).unwrap_or_else(|_| {
            let line = self.asm.len() + 1;
            let kind = AsmErrorKind::DispOutOfRange(offset.into());
            self.disp_error.get_or_insert(AsmError { line, kind });
            0
        })
    }

    fn string_addr(&mut self, s: &str) -> u32 {
        if let Some(&addr) = self.strings.get(s) {
            return addr;
        }
        let addr = self.data.alloc(s.len() as u32 + 1, 1);
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.data.write(addr, &bytes);
        self.strings.insert(s.to_string(), addr);
        addr
    }

    fn resolve(&self, name: &str) -> Result<Place<'a>, CompileError> {
        for scope in self.scopes.iter().rev() {
            if let Some(slot) = scope.get(name) {
                return Ok(Place::Local(slot.clone()));
            }
        }
        if let Some((offset, ty)) = self.params.get(name) {
            return Ok(Place::Param {
                offset: *offset,
                ty: ty.clone(),
            });
        }
        if let Some(slot) = self.globals.get(name) {
            return Ok(Place::Global(slot.clone()));
        }
        if let Some(f) = self.unit.function(name) {
            if f.body.is_some() || !self.opts.externs.contains_key(name) {
                return Ok(Place::Function(Callee::Label(&f.name)));
            }
        }
        if let Some(&addr) = self.opts.externs.get(name) {
            return Ok(Place::Function(Callee::Absolute(addr)));
        }
        Err(cerr(format!("unresolved symbol `{name}`")))
    }

    fn type_of(&self, e: &Expr) -> Result<Type, CompileError> {
        Ok(match e {
            Expr::IntLit(_) => Type::Int,
            Expr::StrLit(_) => Type::Ptr(Box::new(Type::Char)),
            Expr::Var(name) => match self.resolve(name)? {
                Place::Local(slot) => slot.ty,
                Place::Param { ty, .. } => ty,
                Place::Global(slot) => slot.ty,
                Place::Function(_) => {
                    let sig = self
                        .functions_sigs
                        .get(name)
                        .ok_or_else(|| cerr(format!("unknown function `{name}`")))?;
                    Type::FnPtr(Box::new(sig.ret.clone()), sig.params.clone())
                }
            },
            Expr::Assign { target, .. } => self.type_of(target)?,
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg | UnaryOp::Not => Type::Int,
                UnaryOp::Deref => match self.type_of(expr)?.decayed() {
                    Type::Ptr(inner) => *inner,
                    other => return Err(cerr(format!("cannot dereference {other}"))),
                },
                UnaryOp::Addr => Type::Ptr(Box::new(self.type_of(expr)?.decayed())),
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add | BinOp::Sub => {
                    let lt = self.type_of(lhs)?.decayed();
                    let rt = self.type_of(rhs)?.decayed();
                    if matches!(lt, Type::Ptr(_)) {
                        lt
                    } else if matches!(rt, Type::Ptr(_)) {
                        rt
                    } else {
                        Type::Int
                    }
                }
                _ => Type::Int,
            },
            Expr::Call { callee, .. } => match callee.as_ref() {
                Expr::Var(name) if sema::builtins().contains_key(name.as_str()) => {
                    sema::builtins()[name.as_str()].0.clone()
                }
                Expr::Var(name) if self.functions_sigs.contains_key(name) => {
                    self.functions_sigs[name].ret.clone()
                }
                other => match self.type_of(other)?.decayed() {
                    Type::FnPtr(ret, _) => *ret,
                    t => return Err(cerr(format!("{t} is not callable"))),
                },
            },
            Expr::Index { base, .. } => match self.type_of(base)?.decayed() {
                Type::Ptr(inner) => *inner,
                other => return Err(cerr(format!("cannot index {other}"))),
            },
            Expr::PostIncDec { target, .. } => self.type_of(target)?,
        })
    }

    /// Emits code leaving the *address* of an lvalue in `r0`.
    fn gen_addr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Var(name) => match self.resolve(name)? {
                Place::Local(FrameSlot { offset, .. }) | Place::Param { offset, .. } => {
                    let disp = self.disp(offset);
                    self.emit(Lea {
                        dst: R0,
                        base: Bp,
                        disp,
                    });
                }
                Place::Global(slot) => self.emit(hex(MovI {
                    dst: R0,
                    imm: slot.addr,
                })),
                Place::Function(_) => {
                    return Err(cerr(format!(
                        "cannot take the address of function `{name}`"
                    )))
                }
            },
            Expr::Index { base, index } => {
                let elem = match self.type_of(base)?.decayed() {
                    Type::Ptr(inner) => *inner,
                    other => return Err(cerr(format!("cannot index {other}"))),
                };
                // Base address (the decayed pointer value).
                self.gen_expr(base)?;
                self.emit(Push(R0));
                self.gen_expr(index)?;
                if self.opts.harden.bounds_checks {
                    if let Some(n) = self.static_array_len(base) {
                        let ok = self.fresh_label("bounds_ok");
                        self.emit(CmpI { a: R0, imm: n });
                        self.jcc(Cond::B, ok);
                        self.emit(Trap(trap::BOUNDS));
                        self.emit_label(ok);
                    }
                }
                let size = elem.size();
                if size > 1 {
                    self.emit(MovI { dst: R1, imm: size });
                    self.emit(Alu {
                        op: AluOp::Mul,
                        dst: R0,
                        src: R1,
                    });
                }
                self.pop_operands();
                self.emit(Alu {
                    op: AluOp::Add,
                    dst: R0,
                    src: R1,
                });
            }
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                self.gen_expr(expr)?;
            }
            other => return Err(cerr(format!("not an lvalue: {other:?}"))),
        }
        Ok(())
    }

    /// The static element count of `e` when it names an array whose size
    /// is known at compile time (used by the bounds-check pass).
    fn static_array_len(&self, e: &Expr) -> Option<u32> {
        if let Expr::Var(name) = e {
            let ty = match self.resolve(name).ok()? {
                Place::Local(slot) => slot.ty,
                Place::Global(slot) => slot.ty,
                _ => return None,
            };
            if let Type::Array(_, n) = ty {
                return Some(n as u32);
            }
        }
        None
    }

    /// The static *byte* size of the array `e` names, if known.
    fn static_array_bytes(&self, e: &Expr) -> Option<u32> {
        if let Expr::Var(name) = e {
            let ty = match self.resolve(name).ok()? {
                Place::Local(slot) => slot.ty,
                Place::Global(slot) => slot.ty,
                _ => return None,
            };
            if let Type::Array(..) = ty {
                return Some(ty.size());
            }
        }
        None
    }

    fn load_from_addr_in_r0(&mut self, ty: &Type) {
        self.emit(Mov { dst: R1, src: R0 });
        self.emit(at(load(ty.is_byte(), R0, R1, 0)));
    }

    /// `mov r1, r0; pop r0`: the right operand to `r1`, the left one
    /// (pushed before evaluating the right) back to `r0`.
    fn pop_operands(&mut self) {
        self.emit(Mov { dst: R1, src: R0 });
        self.emit(Pop(R0));
    }

    /// `movi r0, 1; j<cond> yes; movi r0, 0; yes:` — `r0` becomes
    /// whether `cond` held.
    fn set_r0_if(&mut self, cond: Cond, hint: &'static str) {
        let yes = self.fresh_label(hint);
        self.emit(MovI { dst: R0, imm: 1 });
        self.jcc(cond, yes);
        self.emit(MovI { dst: R0, imm: 0 });
        self.emit_label(yes);
    }

    /// Emits code leaving the expression's value in `r0`.
    fn gen_expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::IntLit(v) => {
                self.emit(hex(MovI {
                    dst: R0,
                    imm: *v as u32,
                }));
            }
            Expr::StrLit(s) => {
                let addr = self.string_addr(s);
                self.emit(hex(MovI { dst: R0, imm: addr }));
            }
            Expr::Var(name) => match self.resolve(name)? {
                Place::Local(slot) => {
                    let (dst, base, disp) = (R0, Bp, self.disp(slot.offset));
                    self.emit(match &slot.ty {
                        Type::Array(..) => Lea { dst, base, disp },
                        Type::Char => LoadB { dst, base, disp },
                        _ => Load { dst, base, disp },
                    });
                }
                Place::Param { offset, ty } => {
                    let disp = self.disp(offset);
                    self.emit(load(ty.is_byte(), R0, Bp, disp));
                }
                Place::Global(slot) => match &slot.ty {
                    Type::Array(..) => self.emit(hex(MovI {
                        dst: R0,
                        imm: slot.addr,
                    })),
                    ty => {
                        self.emit(hex(MovI {
                            dst: R1,
                            imm: slot.addr,
                        }));
                        self.emit(at(load(*ty == Type::Char, R0, R1, 0)));
                    }
                },
                Place::Function(Callee::Label(name)) => {
                    let label = self.symbol(name);
                    self.emit_to(MovI { dst: R0, imm: 0 }, label);
                }
                Place::Function(Callee::Absolute(addr)) => {
                    self.emit(hex(MovI { dst: R0, imm: addr }));
                }
            },
            Expr::Assign { target, value } => {
                let ty = self.type_of(target)?;
                self.gen_expr(value)?;
                self.emit(Push(R0));
                self.gen_addr(target)?;
                self.pop_operands();
                self.emit(at(store(ty.is_byte(), R1, 0, R0)));
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    self.gen_expr(expr)?;
                    self.emit(Mov { dst: R1, src: R0 });
                    self.emit(MovI { dst: R0, imm: 0 });
                    self.emit(Alu {
                        op: AluOp::Sub,
                        dst: R0,
                        src: R1,
                    });
                }
                UnaryOp::Not => {
                    self.gen_expr(expr)?;
                    self.emit(CmpI { a: R0, imm: 0 });
                    self.set_r0_if(Cond::Z, "not");
                }
                UnaryOp::Deref => {
                    let ty = self.type_of(e)?;
                    self.gen_expr(expr)?;
                    self.load_from_addr_in_r0(&ty);
                }
                UnaryOp::Addr => {
                    self.gen_addr(expr)?;
                }
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    // `&&` jumps out on the first zero, `||` on the first
                    // non-zero; falling through both tests yields the other
                    // answer.
                    let and = *op == BinOp::And;
                    let (exit, end) = if and {
                        (self.fresh_label("and_false"), self.fresh_label("and_end"))
                    } else {
                        (self.fresh_label("or_true"), self.fresh_label("or_end"))
                    };
                    let exit_cond = if and { Cond::Z } else { Cond::Nz };
                    for side in [lhs, rhs] {
                        self.gen_expr(side)?;
                        self.emit(CmpI { a: R0, imm: 0 });
                        self.jcc(exit_cond, exit);
                    }
                    self.emit(MovI {
                        dst: R0,
                        imm: u32::from(and),
                    });
                    self.jmp(end);
                    self.emit_label(exit);
                    self.emit(MovI {
                        dst: R0,
                        imm: u32::from(!and),
                    });
                    self.emit_label(end);
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                    self.gen_expr(lhs)?;
                    self.emit(Push(R0));
                    self.gen_expr(rhs)?;
                    self.pop_operands();
                    self.emit(Cmp { a: R0, b: R1 });
                    let cond = match op {
                        BinOp::Eq => Cond::Z,
                        BinOp::Ne => Cond::Nz,
                        BinOp::Lt => Cond::Lt,
                        BinOp::Gt => Cond::Gt,
                        BinOp::Le => Cond::Le,
                        BinOp::Ge => Cond::Ge,
                        _ => unreachable!("comparison ops only"),
                    };
                    self.set_r0_if(cond, "cmp");
                }
                BinOp::Add | BinOp::Sub => {
                    // C pointer arithmetic: the integer operand is scaled
                    // by the element size; pointer difference yields an
                    // element count.
                    let lt = self.type_of(lhs)?.decayed();
                    let rt = self.type_of(rhs)?.decayed();
                    let elem_size = |t: &Type| -> u32 {
                        match t {
                            Type::Ptr(e) => e.size().max(1),
                            _ => 1,
                        }
                    };
                    self.gen_expr(lhs)?;
                    self.emit(Push(R0));
                    self.gen_expr(rhs)?;
                    let l_ptr = matches!(lt, Type::Ptr(_));
                    let r_ptr = matches!(rt, Type::Ptr(_));
                    if l_ptr && !r_ptr && elem_size(&lt) > 1 {
                        self.emit(MovI {
                            dst: R1,
                            imm: elem_size(&lt),
                        });
                        self.emit(Alu {
                            op: AluOp::Mul,
                            dst: R0,
                            src: R1,
                        });
                    }
                    self.pop_operands();
                    if r_ptr && !l_ptr {
                        if *op == BinOp::Sub {
                            return Err(cerr("cannot subtract a pointer from an integer"));
                        }
                        if elem_size(&rt) > 1 {
                            self.emit(MovI {
                                dst: R2,
                                imm: elem_size(&rt),
                            });
                            self.emit(Alu {
                                op: AluOp::Mul,
                                dst: R0,
                                src: R2,
                            });
                        }
                    }
                    let alu = if *op == BinOp::Add {
                        AluOp::Add
                    } else {
                        AluOp::Sub
                    };
                    self.emit(Alu {
                        op: alu,
                        dst: R0,
                        src: R1,
                    });
                    if l_ptr && r_ptr && *op == BinOp::Sub && elem_size(&lt) > 1 {
                        self.emit(MovI {
                            dst: R1,
                            imm: elem_size(&lt),
                        });
                        self.emit(Alu {
                            op: AluOp::DivS,
                            dst: R0,
                            src: R1,
                        });
                    }
                }
                _ => {
                    self.gen_expr(lhs)?;
                    self.emit(Push(R0));
                    self.gen_expr(rhs)?;
                    self.pop_operands();
                    let op = match op {
                        BinOp::Mul => AluOp::Mul,
                        BinOp::Div => AluOp::DivS,
                        BinOp::Mod => AluOp::ModS,
                        BinOp::Shl => AluOp::Shl,
                        BinOp::Shr => AluOp::Sar,
                        BinOp::BitAnd => AluOp::And,
                        BinOp::BitOr => AluOp::Or,
                        BinOp::BitXor => AluOp::Xor,
                        _ => unreachable!("handled above"),
                    };
                    self.emit(Alu {
                        op,
                        dst: R0,
                        src: R1,
                    });
                }
            },
            Expr::Call { callee, args } => {
                self.gen_call(callee, args)?;
            }
            Expr::Index { .. } => {
                let ty = self.type_of(e)?;
                self.gen_addr(e)?;
                match ty {
                    Type::Array(..) => {} // nested arrays decay to the address
                    ty => self.load_from_addr_in_r0(&ty),
                }
            }
            Expr::PostIncDec { target, inc } => {
                let ty = self.type_of(target)?;
                // Pointers step by their element size, as in C.
                let step: u32 = match ty.decayed() {
                    Type::Ptr(e) => e.size().max(1),
                    _ => 1,
                };
                self.gen_addr(target)?;
                self.load_from_addr_in_r0(&ty);
                self.emit(Mov { dst: R2, src: R0 });
                let imm = if *inc { step } else { step.wrapping_neg() };
                self.emit(hex(AddI { dst: R2, imm }));
                self.emit(at(store(ty.is_byte(), R1, 0, R2)));
            }
        }
        Ok(())
    }

    fn gen_call(&mut self, callee: &Expr, args: &[Expr]) -> Result<(), CompileError> {
        if let Expr::Var(name) = callee {
            match name.as_str() {
                "read" | "write" => {
                    // Evaluate fd, buf, len left to right onto the stack.
                    for a in args {
                        self.gen_expr(a)?;
                        self.emit(Push(R0));
                    }
                    self.emit(Pop(R2));
                    self.emit(Pop(R1));
                    self.emit(Pop(R0));
                    if name == "read" && self.opts.harden.bounds_checks {
                        if let Some(bytes) = self.static_array_bytes(&args[1]) {
                            let ok = self.fresh_label("readlen_ok");
                            self.emit(CmpI {
                                a: R2,
                                imm: bytes + 1,
                            });
                            self.jcc(Cond::B, ok);
                            self.emit(Trap(trap::BOUNDS));
                            self.emit_label(ok);
                        }
                    }
                    self.emit(Sys(if name == "read" {
                        sys::READ
                    } else {
                        sys::WRITE
                    }));
                    return Ok(());
                }
                "exit" => {
                    self.gen_expr(&args[0])?;
                    self.emit(Sys(sys::EXIT));
                    return Ok(());
                }
                "rand" => {
                    self.emit(Sys(sys::RAND));
                    return Ok(());
                }
                "alloc" | "free" => {
                    self.gen_expr(&args[0])?;
                    self.emit(Push(R0));
                    let runtime = self.symbol(if name == "alloc" { "__alloc" } else { "__free" });
                    self.emit_to(Call(0), runtime);
                    self.emit(AddI { dst: Sp, imm: 4 });
                    return Ok(());
                }
                _ => {}
            }
        }
        // Ordinary call: push arguments right-to-left so that the first
        // argument ends up at [bp+8] in the callee.
        for a in args.iter().rev() {
            self.gen_expr(a)?;
            self.emit(Push(R0));
        }
        let direct = match callee {
            Expr::Var(name) => match self.resolve(name)? {
                Place::Function(callee) => Some(callee),
                _ => None,
            },
            _ => None,
        };
        match direct {
            Some(Callee::Label(name)) => {
                let label = self.symbol(name);
                self.emit_to(Call(0), label);
            }
            Some(Callee::Absolute(addr)) => {
                if self.opts.harden.strict_reentry {
                    self.emit(hex(MovI { dst: R0, imm: addr }));
                    self.emit_strict_outcall();
                } else {
                    self.emit(hex(Call(addr)));
                }
            }
            None => {
                // Indirect call through a function pointer.
                self.gen_expr(callee)?;
                if self.opts.harden.pma_fnptr_check {
                    // §IV-B: the pointer must point OUTSIDE this module's
                    // code, otherwise an attacker can aim it at an interior
                    // instruction (the Figure 4 exploit).
                    let bad = self.fresh_label("fnptr_bad");
                    let ok = self.fresh_label("fnptr_ok");
                    let text_start = self.symbol("__text_start");
                    let text_end = self.symbol("__text_end");
                    self.emit_to(MovI { dst: R1, imm: 0 }, text_start);
                    self.emit(Cmp { a: R0, b: R1 });
                    self.jcc(Cond::B, ok);
                    self.emit_to(MovI { dst: R1, imm: 0 }, text_end);
                    self.emit(Cmp { a: R0, b: R1 });
                    self.jcc(Cond::Ae, ok);
                    self.emit_label(bad);
                    self.emit(Trap(trap::FNPTR));
                    self.emit_label(ok);
                }
                if self.opts.harden.strict_reentry {
                    self.emit_strict_outcall();
                } else {
                    self.emit(CallR(R0));
                }
            }
        }
        if !args.is_empty() {
            self.emit(hex(AddI {
                dst: Sp,
                imm: WORD * args.len() as u32,
            }));
        }
        Ok(())
    }

    /// Emits the strict-re-entry out-call sequence. On entry the call
    /// target is in `r0` and the arguments are already on the shared
    /// stack. The continuation (the address following the call site)
    /// is saved on the module's protected continuation stack; the
    /// external code receives the module's *return entry point* as its
    /// return address, so control can only re-enter through that
    /// designated entry.
    fn emit_strict_outcall(&mut self) {
        let cont_sp = self.cont_sp_addr.expect("strict mode allocates cells");
        let (_, stack_end) = self.cont_stack_range.expect("strict mode allocates cells");
        let cont = self.fresh_label("cont");
        let ok = self.fresh_label("cont_ok");
        // Push the continuation onto the internal stack (with overflow
        // check: a module driven into unbounded out-call recursion must
        // fail closed, not overwrite its own data).
        self.emit(hex(MovI {
            dst: R1,
            imm: cont_sp,
        }));
        self.emit(at(Load {
            dst: R2,
            base: R1,
            disp: 0,
        }));
        self.emit(hex(CmpI {
            a: R2,
            imm: stack_end,
        }));
        self.jcc(Cond::B, ok);
        self.emit(Trap(trap::ASSERT));
        self.emit_label(ok);
        self.emit_to(MovI { dst: R3, imm: 0 }, cont);
        self.emit(at(Store {
            base: R2,
            disp: 0,
            src: R3,
        }));
        self.emit(AddI { dst: R2, imm: 4 });
        self.emit(at(Store {
            base: R1,
            disp: 0,
            src: R2,
        }));
        // Hand the external code our return entry point as its return
        // address, then leave the module.
        let reentry = self.symbol("__reentry");
        self.emit_to(MovI { dst: R1, imm: 0 }, reentry);
        self.emit(Push(R1));
        self.emit(JmpR(R0));
        self.emit_label(cont);
    }

    /// Emits the module's single return-entry stub: pops the topmost
    /// continuation off the protected continuation stack and jumps to
    /// it. An attacker entering here without a pending out-call hits
    /// the underflow check.
    fn emit_reentry_stub(&mut self) {
        let cont_sp = self.cont_sp_addr.expect("strict mode allocates cells");
        let (stack_start, _) = self.cont_stack_range.expect("strict mode allocates cells");
        let ok = self.fresh_label("reentry_ok");
        let reentry = self.symbol("__reentry");
        self.emit_label(reentry);
        // r0 carries the external call's return value; r1-r3 are scratch.
        self.emit(hex(MovI {
            dst: R1,
            imm: cont_sp,
        }));
        self.emit(at(Load {
            dst: R2,
            base: R1,
            disp: 0,
        }));
        self.emit(hex(CmpI {
            a: R2,
            imm: stack_start + 1,
        }));
        self.jcc(Cond::Ae, ok);
        self.emit(Trap(trap::ASSERT));
        self.emit_label(ok);
        self.emit(hex(AddI {
            dst: R2,
            imm: (-4i32) as u32,
        }));
        self.emit(at(Store {
            base: R1,
            disp: 0,
            src: R2,
        }));
        self.emit(at(Load {
            dst: R3,
            base: R2,
            disp: 0,
        }));
        self.emit(JmpR(R3));
    }

    /// Emits the heap runtime: `__alloc` (first-fit over a LIFO free
    /// list, falling back to a bump pointer; returns null on
    /// exhaustion) and `__free` (pushes the chunk onto the free list,
    /// **without** any validity checking — dangling and double frees
    /// are the caller's undefined behaviour, exactly as in classic C
    /// allocators). Its lines are listed without indentation.
    ///
    /// Chunk layout: `[total_size:u32][payload …]`; when free, the
    /// first payload word holds the next-free link.
    fn emit_heap_runtime(&mut self, layout: LayoutConfig) {
        let heap_next = self.heap_next_cell;
        let free_list = self.free_list_cell;
        let heap_end = layout.heap_base + layout.heap_size;
        let alloc = self.symbol("__alloc");
        let find = self.symbol(".L__alloc_find");
        let take = self.symbol(".L__alloc_take");
        let new = self.symbol(".L__alloc_new");
        let ok = self.symbol(".L__alloc_ok");
        let free = self.symbol("__free");
        let ret = |cg: &mut Self| {
            cg.emit(Leave);
            cg.emit(Ret);
        };
        self.flush = true;
        self.emit_label(alloc);
        self.emit(Enter(0));
        self.emit(Load {
            dst: R1,
            base: Bp,
            disp: 8,
        });
        self.emit(AddI { dst: R1, imm: 11 });
        self.emit(hex(MovI {
            dst: R2,
            imm: 0xffff_fff8,
        }));
        self.emit(Alu {
            op: AluOp::And,
            dst: R1,
            src: R2,
        });
        self.emit(hex(MovI {
            dst: R2,
            imm: free_list,
        }));
        self.emit_label(find);
        self.emit(at(Load {
            dst: R3,
            base: R2,
            disp: 0,
        }));
        self.emit(CmpI { a: R3, imm: 0 });
        self.jcc(Cond::Z, new);
        self.emit(at(Load {
            dst: R4,
            base: R3,
            disp: 0,
        }));
        self.emit(Cmp { a: R4, b: R1 });
        self.jcc(Cond::Ae, take);
        self.emit(Lea {
            dst: R2,
            base: R3,
            disp: 4,
        });
        self.jmp(find);
        self.emit_label(take);
        self.emit(Load {
            dst: R4,
            base: R3,
            disp: 4,
        });
        self.emit(at(Store {
            base: R2,
            disp: 0,
            src: R4,
        }));
        self.emit(Lea {
            dst: R0,
            base: R3,
            disp: 4,
        });
        ret(self);
        self.emit_label(new);
        self.emit(hex(MovI {
            dst: R2,
            imm: heap_next,
        }));
        self.emit(at(Load {
            dst: R3,
            base: R2,
            disp: 0,
        }));
        self.emit(Mov { dst: R4, src: R3 });
        self.emit(Alu {
            op: AluOp::Add,
            dst: R4,
            src: R1,
        });
        self.emit(hex(CmpI {
            a: R4,
            imm: heap_end,
        }));
        self.jcc(Cond::B, ok);
        self.emit(MovI { dst: R0, imm: 0 });
        ret(self);
        self.emit_label(ok);
        self.emit(at(Store {
            base: R2,
            disp: 0,
            src: R4,
        }));
        self.emit(at(Store {
            base: R3,
            disp: 0,
            src: R1,
        }));
        self.emit(Lea {
            dst: R0,
            base: R3,
            disp: 4,
        });
        ret(self);
        self.emit_label(free);
        self.emit(Enter(0));
        // The quarantine variant never recycles a chunk (and never
        // writes the free-list link, so freed payloads keep their stale
        // contents without ever being handed out again).
        if !self.opts.harden.heap_quarantine {
            let done = self.symbol(".L__free_done");
            self.emit(Load {
                dst: R1,
                base: Bp,
                disp: 8,
            });
            self.emit(CmpI { a: R1, imm: 0 });
            self.jcc(Cond::Z, done);
            self.emit(Lea {
                dst: R1,
                base: R1,
                disp: -4,
            });
            self.emit(hex(MovI {
                dst: R2,
                imm: free_list,
            }));
            self.emit(at(Load {
                dst: R3,
                base: R2,
                disp: 0,
            }));
            self.emit(Store {
                base: R1,
                disp: 4,
                src: R3,
            });
            self.emit(at(Store {
                base: R2,
                disp: 0,
                src: R1,
            }));
            self.emit_label(done);
        }
        ret(self);
        self.flush = false;
    }

    fn gen_stmt(&mut self, s: &Stmt, alloc: &mut FrameAlloc) -> Result<(), CompileError> {
        match s {
            Stmt::Decl { name, ty, init } => {
                let slot = alloc.allocate(name, ty);
                self.scopes
                    .last_mut()
                    .expect("inside a function")
                    .insert(name.clone(), slot.clone());
                if let Some(init) = init {
                    self.gen_expr(init)?;
                    let disp = self.disp(slot.offset);
                    self.emit(store(ty.is_byte(), Bp, disp, R0));
                }
            }
            Stmt::Expr(e) => {
                self.gen_expr(e)?;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let else_label = self.fresh_label("else");
                let end = self.fresh_label("endif");
                self.gen_expr(cond)?;
                self.emit(CmpI { a: R0, imm: 0 });
                self.jcc(Cond::Z, else_label);
                self.gen_stmt(then_branch, alloc)?;
                self.jmp(end);
                self.emit_label(else_label);
                if let Some(e) = else_branch {
                    self.gen_stmt(e, alloc)?;
                }
                self.emit_label(end);
            }
            Stmt::While { cond, body } => {
                let head = self.fresh_label("while");
                let end = self.fresh_label("endwhile");
                self.emit_label(head);
                self.gen_expr(cond)?;
                self.emit(CmpI { a: R0, imm: 0 });
                self.jcc(Cond::Z, end);
                self.break_stack.push(end);
                self.continue_stack.push(head);
                self.gen_stmt(body, alloc)?;
                self.break_stack.pop();
                self.continue_stack.pop();
                self.jmp(head);
                self.emit_label(end);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.gen_stmt(init, alloc)?;
                }
                let head = self.fresh_label("for");
                let step_label = self.fresh_label("forstep");
                let end = self.fresh_label("endfor");
                self.emit_label(head);
                if let Some(cond) = cond {
                    self.gen_expr(cond)?;
                    self.emit(CmpI { a: R0, imm: 0 });
                    self.jcc(Cond::Z, end);
                }
                self.break_stack.push(end);
                self.continue_stack.push(step_label);
                self.gen_stmt(body, alloc)?;
                self.break_stack.pop();
                self.continue_stack.pop();
                self.emit_label(step_label);
                if let Some(step) = step {
                    self.gen_expr(step)?;
                }
                self.jmp(head);
                self.emit_label(end);
                self.scopes.pop();
            }
            Stmt::Return(value) => {
                if let Some(v) = value {
                    self.gen_expr(v)?;
                }
                self.jmp(self.epilogue.expect("inside a function"));
            }
            Stmt::Break => {
                let label = *self
                    .break_stack
                    .last()
                    .ok_or_else(|| cerr("break outside loop"))?;
                self.jmp(label);
            }
            Stmt::Continue => {
                let label = *self
                    .continue_stack
                    .last()
                    .ok_or_else(|| cerr("continue outside loop"))?;
                self.jmp(label);
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.gen_stmt(s, alloc)?;
                }
                self.scopes.pop();
            }
        }
        Ok(())
    }

    fn gen_function(&mut self, f: &'a Function) -> Result<(), CompileError> {
        let body = match &f.body {
            Some(b) => b,
            None => return Ok(()),
        };
        self.current_fn = self.names.intern(&f.name);
        let epilogue = self.new_label(LabelName::Epilogue(self.current_fn));
        self.epilogue = Some(epilogue);
        self.scopes = vec![HashMap::new()];
        self.params = HashMap::new();
        let mut layout = FrameLayout::default();
        for (i, p) in f.params.iter().enumerate() {
            let offset = 8 + 4 * i as i32;
            self.params.insert(p.name.clone(), (offset, p.ty.clone()));
            layout.params.push((p.name.clone(), offset));
        }
        let canary = self.opts.harden.stack_canary;
        let mut alloc = FrameAlloc::new(canary, frame_locals_size(body));
        layout.frame_size = alloc.frame_size;
        layout.canary_offset = canary.then_some(-4);

        let entry = self.symbol(&f.name);
        self.emit_label(entry);
        self.emit(hex(Enter(alloc.frame_size)));
        if canary {
            let addr = self.canary_addr.expect("canary cell allocated");
            self.emit(hex(MovI { dst: R1, imm: addr }));
            self.emit(at(Load {
                dst: R1,
                base: R1,
                disp: 0,
            }));
            self.emit(Store {
                base: Bp,
                disp: -4,
                src: R1,
            });
        }
        for s in body {
            self.gen_stmt(s, &mut alloc)?;
        }
        // Fall-through return (no value): land on the epilogue.
        self.emit_label(epilogue);
        if canary {
            let addr = self.canary_addr.expect("canary cell allocated");
            let ok = self.fresh_label("canary_ok");
            self.emit(hex(MovI { dst: R1, imm: addr }));
            self.emit(at(Load {
                dst: R1,
                base: R1,
                disp: 0,
            }));
            self.emit(Load {
                dst: R2,
                base: Bp,
                disp: -4,
            });
            self.emit(Cmp { a: R1, b: R2 });
            self.jcc(Cond::Z, ok);
            self.emit(Trap(trap::CANARY));
            self.emit_label(ok);
        }
        if self.opts.harden.scrub_registers {
            for dst in [R1, R2, R3, R4, R5, R6, R7] {
                self.emit(MovI { dst, imm: 0 });
            }
        }
        self.emit(Leave);
        self.emit(Ret);
        layout.locals = alloc.recorded;
        self.frames.insert(f.name.clone(), layout);
        Ok(())
    }
}

/// Allocates frame slots top-down below the (optional) canary.
struct FrameAlloc {
    next: i32,
    frame_size: u32,
    recorded: Vec<(String, FrameSlot)>,
}

impl FrameAlloc {
    fn new(canary: bool, locals_size: u32) -> FrameAlloc {
        let reserve = if canary { 4 } else { 0 };
        FrameAlloc {
            next: -(reserve as i32),
            frame_size: locals_size + reserve,
            recorded: Vec::new(),
        }
    }

    fn allocate(&mut self, name: &str, ty: &Type) -> FrameSlot {
        let size = align4(ty.size().max(1)) as i32;
        self.next -= size;
        let slot = FrameSlot {
            offset: self.next,
            ty: ty.clone(),
        };
        self.recorded.push((name.to_string(), slot.clone()));
        slot
    }
}

fn frame_locals_size(stmts: &[Stmt]) -> u32 {
    let mut total = 0u32;
    for s in stmts {
        total += stmt_locals_size(s);
    }
    total
}

fn stmt_locals_size(s: &Stmt) -> u32 {
    match s {
        Stmt::Decl { ty, .. } => align4(ty.size().max(1)),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            stmt_locals_size(then_branch)
                + else_branch
                    .as_ref()
                    .map(|e| stmt_locals_size(e))
                    .unwrap_or(0)
        }
        Stmt::While { body, .. } => stmt_locals_size(body),
        Stmt::For { init, body, .. } => {
            init.as_ref().map(|i| stmt_locals_size(i)).unwrap_or(0) + stmt_locals_size(body)
        }
        Stmt::Block(stmts) => frame_locals_size(stmts),
        _ => 0,
    }
}

/// Compiles a checked translation unit to a loadable program.
///
/// # Errors
///
/// Returns a [`CompileError`] wrapping semantic errors, unresolved
/// externs, or (never expected) assembler failures on generated code.
///
/// # Examples
///
/// ```
/// use swsec_minc::{compile, parse, CompileOptions};
/// use swsec_vm::prelude::*;
///
/// let unit = parse("void main() { exit(7); }")?;
/// let program = compile(&unit, &CompileOptions::default())?;
/// let mut m = Machine::new();
/// program.load(&mut m)?;
/// assert_eq!(m.run(1_000), RunOutcome::Halted(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(unit: &Unit, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    sema::check(unit)?;
    let layout = opts.layout.0;
    let mut data = DataBuilder {
        base: layout.data_base,
        bytes: Vec::new(),
    };
    // Canary cell first so its address is stable.
    let canary_addr = opts.harden.stack_canary.then(|| data.alloc(4, 4));
    // Heap allocator state: bump pointer and free-list head. The
    // allocator deliberately reuses freed chunks LIFO, like a classic
    // malloc — the substrate of use-after-free exploitation.
    let heap_next_cell = data.alloc(4, 4);
    data.write(heap_next_cell, &layout.heap_base.to_le_bytes());
    let free_list_cell = data.alloc(4, 4);
    // Strict-re-entry continuation stack (depth 64) and its pointer.
    let (cont_sp_addr, cont_stack_range) = if opts.harden.strict_reentry {
        let sp_cell = data.alloc(4, 4);
        let stack_start = data.alloc(4 * 64, 4);
        data.write(sp_cell, &stack_start.to_le_bytes());
        (Some(sp_cell), Some((stack_start, stack_start + 4 * 64)))
    } else {
        (None, None)
    };

    // Globals.
    let mut globals = BTreeMap::new();
    for g in &unit.globals {
        let size = g.ty.size().max(1);
        let addr = data.alloc(size, if g.ty.is_byte() { 1 } else { 4 });
        match &g.init {
            Some(GlobalInit::Int(v)) => {
                if g.ty.is_byte() {
                    data.write(addr, &[*v as u8]);
                } else {
                    data.write(addr, &(*v as u32).to_le_bytes());
                }
            }
            Some(GlobalInit::Str(s)) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                data.write(addr, &bytes);
            }
            None => {}
        }
        globals.insert(
            g.name.clone(),
            GlobalSlot {
                addr,
                ty: g.ty.clone(),
            },
        );
    }

    let functions_sigs: HashMap<String, sema::FnSig> = unit
        .functions
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                sema::FnSig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                },
            )
        })
        .collect();

    let mut cg = Codegen {
        unit,
        opts,
        asm: Assembly::new(),
        names: Names::default(),
        symbols: HashMap::new(),
        flush: false,
        disp_error: None,
        data,
        globals,
        functions_sigs,
        frames: BTreeMap::new(),
        canary_addr,
        cont_sp_addr,
        cont_stack_range,
        heap_next_cell,
        free_list_cell,
        strings: HashMap::new(),
        label_counter: 0,
        scopes: Vec::new(),
        params: HashMap::new(),
        current_fn: Span::default(),
        epilogue: None,
        break_stack: Vec::new(),
        continue_stack: Vec::new(),
    };

    cg.asm.push(Item::Org(layout.text_base));
    let text_start = cg.symbol("__text_start");
    cg.emit_label(text_start);
    if !opts.no_start {
        let main = unit
            .function("main")
            .ok_or_else(|| cerr("program has no `main` function"))?;
        let start = cg.symbol("_start");
        cg.emit_label(start);
        let main_label = cg.symbol("main");
        cg.emit_to(Call(0), main_label);
        if main.ret == Type::Void {
            cg.emit(MovI { dst: R0, imm: 0 });
        }
        cg.emit(Sys(sys::EXIT));
    }

    if opts.harden.strict_reentry {
        cg.current_fn = cg.names.intern("__module");
        cg.emit_reentry_stub();
    }
    cg.emit_heap_runtime(layout);
    for f in &unit.functions {
        // Skip extern declarations that are satisfied by a later body.
        if f.body.is_none() {
            if !opts.externs.contains_key(&f.name)
                && !unit
                    .functions
                    .iter()
                    .any(|other| other.name == f.name && other.body.is_some())
            {
                return Err(cerr(format!(
                    "extern function `{}` has no resolved address",
                    f.name
                )));
            }
            continue;
        }
        cg.gen_function(f)?;
    }
    let text_end = cg.symbol("__text_end");
    cg.emit_label(text_end);

    let name = |label: Label| {
        let mut name = String::new();
        cg.names.write(label, &mut name);
        name
    };
    let linked = cg.asm.link().map_err(|e| e.to_asm_error(e.item + 1, name));
    let linked = match (linked, cg.disp_error) {
        (Ok(linked), None) => linked,
        (Err(e), _) | (Ok(_), Some(e)) => {
            return Err(cerr(format!("internal: generated assembly failed: {e}")))
        }
    };
    let functions = unit
        .functions
        .iter()
        .filter(|f| f.body.is_some())
        .map(|f| (f.name.clone(), linked.addr(cg.symbols[f.name.as_str()])))
        .collect();
    let exports = unit
        .functions
        .iter()
        .filter(|f| f.body.is_some() && !f.is_static)
        .map(|f| f.name.clone())
        .collect();
    let entry = (!opts.no_start).then(|| linked.addr(cg.symbols["_start"]));
    let reentry_addr = opts
        .harden
        .strict_reentry
        .then(|| linked.addr(cg.symbols["__reentry"]));
    Ok(CompiledProgram {
        text_base: layout.text_base,
        text: linked.bytes,
        data_base: layout.data_base,
        data: cg.data.bytes,
        entry,
        functions,
        exports,
        globals: cg.globals,
        frames: cg.frames,
        canary_addr,
        reentry_addr,
        listing: Listing::new(cg.asm, cg.names),
        layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use swsec_vm::cpu::{Fault, RunOutcome};
    use swsec_vm::isa::trap;

    fn run_src(src: &str) -> RunOutcome {
        run_with(src, &CompileOptions::default(), &[])
    }

    fn run_with(src: &str, opts: &CompileOptions, input: &[u8]) -> RunOutcome {
        let unit = parse(src).unwrap();
        let prog = compile(&unit, opts).unwrap();
        let mut m = Machine::new();
        prog.load(&mut m).unwrap();
        if let Some(addr) = prog.canary_addr {
            let _ = addr;
            prog.install_canary(&mut m, 0xdead_4321).unwrap();
        }
        m.io_mut().feed_input(0, input);
        m.run(1_000_000)
    }

    fn output_of(src: &str, input: &[u8]) -> Vec<u8> {
        let unit = parse(src).unwrap();
        let prog = compile(&unit, &CompileOptions::default()).unwrap();
        let mut m = Machine::new();
        prog.load(&mut m).unwrap();
        m.io_mut().feed_input(0, input);
        assert!(m.run(1_000_000).is_halted());
        m.io().output(1).to_vec()
    }

    #[test]
    fn exit_code_flows_from_main() {
        assert_eq!(run_src("int main() { return 42; }"), RunOutcome::Halted(42));
    }

    #[test]
    fn symbol_table_resolves_function_bodies() {
        let unit = parse(
            "int helper(int x) { return x + 1; }\n\
             int main() { return helper(41); }",
        )
        .unwrap();
        let prog = compile(&unit, &CompileOptions::default()).unwrap();
        let table = prog.symbol_table();
        assert_eq!(table.len(), 2);
        for (name, addr) in &prog.functions {
            assert_eq!(table.resolve(*addr), Some(name.as_str()), "{name}");
        }
        assert_eq!(table.resolve(prog.text_end()), None);
    }

    #[test]
    fn void_main_exits_zero() {
        assert_eq!(run_src("void main() { }"), RunOutcome::Halted(0));
    }

    #[test]
    fn arithmetic_expressions() {
        assert_eq!(
            run_src("int main() { return (1 + 2 * 3 - 4) / 3 + 10 % 3; }"),
            RunOutcome::Halted(2) // (7-4)/3=1, 10%3=1 → 2
        );
    }

    #[test]
    fn signed_division_and_modulo() {
        assert_eq!(
            run_src("int main() { return -7 / 2 + 10; }"),
            RunOutcome::Halted(7) // -3 + 10
        );
        assert_eq!(
            run_src("int main() { return -7 % 3 + 10; }"),
            RunOutcome::Halted(9) // -1 + 10
        );
    }

    #[test]
    fn comparisons_yield_zero_one() {
        assert_eq!(
            run_src("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }"),
            RunOutcome::Halted(4)
        );
    }

    #[test]
    fn signed_comparison_with_negatives() {
        assert_eq!(
            run_src("int main() { return -1 < 1; }"),
            RunOutcome::Halted(1)
        );
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the right of && must not be evaluated.
        assert_eq!(
            run_src("int main() { int z = 0; return (0 && (1 / z)) + ((1 || (1 / z)) * 2); }"),
            RunOutcome::Halted(2)
        );
    }

    #[test]
    fn locals_params_and_calls() {
        assert_eq!(
            run_src(
                "int add3(int a, int b, int c) { return a + b + c; }\n\
                 int main() { int x = 10; return add3(x, 20, 12); }"
            ),
            RunOutcome::Halted(42)
        );
    }

    #[test]
    fn recursion_factorial() {
        assert_eq!(
            run_src(
                "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n\
                 int main() { return fact(5); }"
            ),
            RunOutcome::Halted(120)
        );
    }

    #[test]
    fn globals_with_initializers() {
        assert_eq!(
            run_src(
                "int counter = 40;\n\
                 int main() { counter = counter + 2; return counter; }"
            ),
            RunOutcome::Halted(42)
        );
    }

    #[test]
    fn global_char_array_with_string_init() {
        assert_eq!(
            output_of(
                "char msg[16] = \"hello\";\n\
                 void main() { write(1, msg, 5); }",
                &[]
            ),
            b"hello"
        );
    }

    #[test]
    fn while_loop_sums() {
        assert_eq!(
            run_src(
                "int main() { int i = 0; int s = 0; while (i < 10) { s = s + i; i++; } return s; }"
            ),
            RunOutcome::Halted(45)
        );
    }

    #[test]
    fn for_loop_with_break_continue() {
        assert_eq!(
            run_src(
                "int main() { int s = 0; for (int i = 0; i < 100; i++) { \
                   if (i % 2 == 1) continue; if (i >= 10) break; s = s + i; } return s; }"
            ),
            RunOutcome::Halted(20) // 0+2+4+6+8
        );
    }

    #[test]
    fn post_increment_returns_old_value() {
        assert_eq!(
            run_src("int main() { int i = 5; int j = i++; return j * 10 + i; }"),
            RunOutcome::Halted(56)
        );
    }

    #[test]
    fn post_decrement_like_tries_left() {
        assert_eq!(
            run_src("int t = 3; int main() { t--; t--; return t; }"),
            RunOutcome::Halted(1)
        );
    }

    #[test]
    fn arrays_index_read_write() {
        assert_eq!(
            run_src(
                "int main() { int a[4]; a[0] = 10; a[1] = 20; a[2] = a[0] + a[1]; return a[2]; }"
            ),
            RunOutcome::Halted(30)
        );
    }

    #[test]
    fn char_arrays_are_byte_packed() {
        assert_eq!(
            run_src(
                "int main() { char b[4]; b[0] = 1; b[1] = 2; b[2] = 3; b[3] = 4; \
                 return b[0] + b[1] * 10 + b[2] * 100 + b[3] * 1000; }"
            ),
            RunOutcome::Halted(4321)
        );
    }

    #[test]
    fn pointers_and_address_of() {
        assert_eq!(
            run_src("int main() { int x = 5; int *p = &x; *p = 7; return x; }"),
            RunOutcome::Halted(7)
        );
    }

    #[test]
    fn pointer_into_array_via_index() {
        assert_eq!(
            run_src(
                "int main() { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; \
                 int *p = a; return p[2]; }"
            ),
            RunOutcome::Halted(3)
        );
    }

    #[test]
    fn string_literals_are_addressable() {
        assert_eq!(
            output_of("void main() { write(1, \"hi\", 2); }", &[]),
            b"hi"
        );
    }

    #[test]
    fn read_write_echo() {
        assert_eq!(
            output_of(
                "void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }",
                b"ping"
            ),
            b"ping"
        );
    }

    #[test]
    fn function_pointer_call() {
        assert_eq!(
            run_src(
                "int forty_two() { return 42; }\n\
                 int call_it(int (*f)()) { return f(); }\n\
                 int main() { return call_it(forty_two); }"
            ),
            RunOutcome::Halted(42)
        );
    }

    #[test]
    fn figure1_frame_layout_matches_paper() {
        let unit = parse(
            "void get_request(int fd, char buf[]) { read(fd, buf, 16); }\n\
             void process(int fd) { char buf[16]; get_request(fd, buf); }\n\
             void main() { int fd = 1; process(fd); }",
        )
        .unwrap();
        let prog = compile(&unit, &CompileOptions::default()).unwrap();
        let frame = &prog.frames["process"];
        // buf occupies [bp-16, bp) — immediately below the saved bp, as
        // in Figure 1(c).
        let (name, slot) = &frame.locals[0];
        assert_eq!(name, "buf");
        assert_eq!(slot.offset, -16);
        assert_eq!(frame.frame_size, 16);
        // Parameters start at bp+8.
        assert_eq!(frame.params[0], ("fd".to_string(), 8));
    }

    #[test]
    fn overflow_without_protection_corrupts_return_address() {
        // The §III-B stack smash: read 24 bytes into a 16-byte buffer;
        // bytes 16..20 hit the saved bp, 20..24 the return address.
        let src = "void f(int fd) { char buf[16]; read(fd, buf, 24); }\n\
                   void main() { f(0); }";
        let mut input = vec![b'A'; 20];
        input.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        let outcome = run_with(src, &CompileOptions::default(), &input);
        // Execution jumps to 0xdeadbeef — unmapped — and faults there.
        match outcome {
            RunOutcome::Fault(Fault::Mem(e)) => assert_eq!(e.addr, 0xdead_beef),
            other => panic!("expected wild jump fault, got {other:?}"),
        }
    }

    #[test]
    fn canary_detects_the_same_overflow() {
        let src = "void f(int fd) { char buf[16]; read(fd, buf, 28); }\n\
                   void main() { f(0); }";
        let mut opts = CompileOptions::default();
        opts.harden.stack_canary = true;
        let mut input = vec![b'A'; 24];
        input.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        let outcome = run_with(src, &opts, &input);
        assert!(
            matches!(
                outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::CANARY
            ),
            "expected canary trap, got {outcome:?}"
        );
    }

    #[test]
    fn canary_is_transparent_to_honest_runs() {
        let src = "int add(int a, int b) { char buf[8]; buf[0] = 1; return a + b + buf[0]; }\n\
                   int main() { return add(20, 21); }";
        let mut opts = CompileOptions::default();
        opts.harden.stack_canary = true;
        assert_eq!(run_with(src, &opts, &[]), RunOutcome::Halted(42));
    }

    #[test]
    fn bounds_check_traps_oob_index() {
        let src = "int main() { int a[4]; int i = 5; a[i] = 1; return 0; }";
        let mut opts = CompileOptions::default();
        opts.harden.bounds_checks = true;
        let outcome = run_with(src, &opts, &[]);
        assert!(
            matches!(
                outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::BOUNDS
            ),
            "got {outcome:?}"
        );
    }

    #[test]
    fn bounds_check_traps_negative_index() {
        let src = "int main() { int a[4]; int i = -1; a[i] = 1; return 0; }";
        let mut opts = CompileOptions::default();
        opts.harden.bounds_checks = true;
        let outcome = run_with(src, &opts, &[]);
        assert!(matches!(
            outcome,
            RunOutcome::Fault(Fault::SoftwareTrap { .. })
        ));
    }

    #[test]
    fn bounds_check_traps_oversized_read() {
        let src = "void main() { char buf[16]; read(0, buf, 32); }";
        let mut opts = CompileOptions::default();
        opts.harden.bounds_checks = true;
        let outcome = run_with(src, &opts, b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
        assert!(matches!(
            outcome,
            RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::BOUNDS
        ));
    }

    #[test]
    fn bounds_check_allows_in_bounds_accesses() {
        let src = "int main() { int a[4]; for (int i = 0; i < 4; i++) a[i] = i; \
                   char b[8]; read(0, b, 8); return a[3]; }";
        let mut opts = CompileOptions::default();
        opts.harden.bounds_checks = true;
        assert_eq!(run_with(src, &opts, b"12345678"), RunOutcome::Halted(3));
    }

    #[test]
    fn extern_functions_resolve_to_given_addresses() {
        // Compile a callee at one base, then a caller linking to it.
        let callee_unit = parse("int answer() { return 42; }").unwrap();
        let mut callee_opts = CompileOptions {
            no_start: true,
            ..CompileOptions::default()
        };
        callee_opts.layout.0.text_base = 0x0900_0000;
        callee_opts.layout.0.data_base = 0x0910_0000;
        let callee = compile(&callee_unit, &callee_opts).unwrap();

        let caller_unit = parse("extern int answer();\nint main() { return answer(); }").unwrap();
        let mut caller_opts = CompileOptions::default();
        caller_opts
            .externs
            .insert("answer".into(), callee.function_addr("answer").unwrap());
        let caller = compile(&caller_unit, &caller_opts).unwrap();

        let mut m = Machine::new();
        caller.load(&mut m).unwrap();
        m.mem_mut()
            .map(callee.text_base, callee.text.len() as u32, Perm::RX)
            .unwrap();
        m.mem_mut()
            .poke_bytes(callee.text_base, &callee.text)
            .unwrap();
        assert_eq!(m.run(100_000), RunOutcome::Halted(42));
    }

    #[test]
    fn unresolved_extern_is_an_error() {
        let unit = parse("extern int missing();\nint main() { return missing(); }").unwrap();
        let err = compile(&unit, &CompileOptions::default()).unwrap_err();
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn modules_compile_without_start() {
        let unit = parse(
            "static int secret = 666;\n\
             int get_secret(int pin) { if (pin == 1234) return secret; return 0; }",
        )
        .unwrap();
        let opts = CompileOptions {
            no_start: true,
            ..CompileOptions::default()
        };
        let prog = compile(&unit, &opts).unwrap();
        assert!(prog.entry.is_none());
        assert_eq!(prog.exports, vec!["get_secret".to_string()]);
        assert!(prog.functions.contains_key("get_secret"));
    }

    #[test]
    fn static_functions_not_exported() {
        let unit = parse(
            "static int helper() { return 1; }\n\
             int api() { return helper(); }",
        )
        .unwrap();
        let opts = CompileOptions {
            no_start: true,
            ..CompileOptions::default()
        };
        let prog = compile(&unit, &opts).unwrap();
        assert_eq!(prog.exports, vec!["api".to_string()]);
    }

    #[test]
    fn scrub_registers_zeroes_temporaries() {
        let src = "int f() { int x = 1234; return x + 1; }\n\
                   int main() { return f() - 1235; }";
        let mut opts = CompileOptions::default();
        opts.harden.scrub_registers = true;
        let unit = parse(src).unwrap();
        let prog = compile(&unit, &opts).unwrap();
        let mut m = Machine::new();
        prog.load(&mut m).unwrap();
        assert_eq!(m.run(1_000_000), RunOutcome::Halted(0));
        // After the run every scrubbed register reads zero.
        for r in [
            swsec_vm::isa::Reg::R1,
            swsec_vm::isa::Reg::R2,
            swsec_vm::isa::Reg::R3,
        ] {
            assert_eq!(m.reg(r), 0, "register {r} not scrubbed");
        }
    }

    #[test]
    fn global_scalar_char() {
        assert_eq!(
            run_src("char c = 7; int main() { c = c + 1; return c; }"),
            RunOutcome::Halted(8)
        );
    }

    #[test]
    fn nested_scopes_shadow() {
        assert_eq!(
            run_src("int main() { int x = 1; { int x = 2; x = 3; } return x; }"),
            RunOutcome::Halted(1)
        );
    }

    #[test]
    fn generated_code_errors_name_the_listing_line() {
        let message = |src: &str| {
            compile(&parse(src).unwrap(), &CompileOptions::default())
                .unwrap_err()
                .message
        };
        assert_eq!(
            message("int main() { char big[40000]; int x; x = 2; return big[3]; }"),
            "internal: generated assembly failed: line 61: displacement -40004 outside the \
             ±32767 encoding range"
        );
        assert_eq!(
            message("int __alloc() { return 1; }\nint main() { return __alloc(); }"),
            "internal: generated assembly failed: line 57: label `__alloc` defined twice"
        );
        assert_eq!(
            message("int __text_end() { return 1; }\nint main() { return 0; }"),
            "internal: generated assembly failed: line 71: label `__text_end` defined twice"
        );
    }

    #[test]
    fn listing_contains_paper_style_prologue() {
        let unit =
            parse("void process(int fd) { char buf[16]; }\nvoid main() { process(1); }").unwrap();
        let prog = compile(&unit, &CompileOptions::default()).unwrap();
        assert!(prog.listing.contains("enter 0x10"));
        assert!(prog.listing.contains("process:"));
    }

    #[test]
    fn bitwise_and_shift_operators() {
        assert_eq!(
            run_src("int main() { return ((6 & 3) | (1 << 3) | (1 ^ 3)) + (16 >> 2); }"),
            RunOutcome::Halted((2 | 8 | 2) + 4)
        );
    }

    #[test]
    fn arithmetic_shift_right_is_signed() {
        assert_eq!(
            run_src("int main() { return (-8 >> 1) + 10; }"),
            RunOutcome::Halted(6)
        );
    }
}
