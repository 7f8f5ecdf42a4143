//! The execution engine: register file, fetch/decode/execute loop,
//! faults, system calls and the optional hardware protections.
//!
//! Two protections live here because they are properties of the
//! *platform*, not of compiled code:
//!
//! * **shadow stack** — when enabled, `call` records the return address
//!   in protected hardware state and `ret` verifies it, a hardware
//!   control-flow-integrity mechanism that defeats return-address
//!   smashing and ROP;
//! * **protected-module access control** — when a
//!   [`policy::ProtectionMap`](crate::policy::ProtectionMap) is installed, every
//!   data access and control transfer is checked against the paper's
//!   three PMA rules.
//!
//! Data Execution Prevention is a property of [`Memory`] (page
//! permissions plus the enforcement switch).
//!
//! The fetch/decode/execute loop is accelerated by a two-way
//! set-associative **decoded-instruction cache** keyed on `ip` and
//! validated against the memory's code generation (see
//! [`mem`](crate::mem) and `DESIGN.md` §"VM performance model"); it is
//! semantically invisible and can be switched off per machine
//! ([`Machine::set_fast_path`]) or per run ([`Engine`](crate::Engine))
//! for baseline measurements.
//!
//! Above it sits an optional second tier ([`tier`](crate::tier)):
//! hot straight-line regions are fused into superinstruction blocks
//! that execute as a tight micro-op loop with the per-instruction
//! dispatch ceremony hoisted out. Tier 2 is also semantically
//! invisible and has its own switches ([`Machine::set_tier2`],
//! [`Engine::Tier2`](crate::Engine::Tier2)).
//!
//! # Examples
//!
//! ```
//! use swsec_vm::cpu::{Machine, RunOutcome};
//! use swsec_vm::isa::{Instr, Reg};
//! use swsec_vm::mem::Perm;
//!
//! let mut code = Vec::new();
//! Instr::MovI { dst: Reg::R0, imm: 42 }.encode(&mut code);
//! Instr::Sys(swsec_vm::isa::sys::EXIT).encode(&mut code);
//!
//! let mut m = Machine::new();
//! m.mem_mut().map(0x1000, 0x1000, Perm::RX)?;
//! m.mem_mut().poke_bytes(0x1000, &code)?;
//! m.set_ip(0x1000);
//! assert_eq!(m.run(100), RunOutcome::Halted(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::sync::Arc;

use swsec_obs::{
    ControlKind, CoverageSink, EventMask, EventSink, FaultKind, PmaRule, SecurityEvent,
};

use crate::io::IoBus;
use crate::isa::{self, AluOp, Cond, DecodeError, Instr, Reg, NUM_REGS};
use crate::mem::{Access, DataLine, MemError, MemErrorKind, Memory, PAGE_SIZE};
use crate::policy::{PmaViolation, PmaViolationKind, ProtectionMap, TransferKind};
use crate::profile::Profiler;
use crate::tier::{IcProbe, IcPromotion, MicroOp, TierEngine, IC_NONE};
use crate::trace::{ExecStats, TraceEntry, TraceRing};

/// Total entries in the decoded-instruction cache. Organized as
/// [`ICACHE_SETS`] two-way sets: way 0 of set `s` is entry `2 * s`,
/// way 1 is entry `2 * s + 1`, most-recently-used kept in way 0.
const ICACHE_SLOTS: usize = 1024;

/// Number of two-way sets in the decoded-instruction cache. A power
/// of two so indexing is a mask of the low `ip` bits. Two ways per
/// set keep regions whose addresses alias in the low bits (program
/// text and a protected module, say) from thrashing a shared slot.
const ICACHE_SETS: usize = ICACHE_SLOTS / 2;

/// One decoded-instruction-cache line: the instruction decoded at `ip`
/// while the memory's global code generation was `gen` and the source
/// page (slot `slot`) had write generation `pgen`.
///
/// A hit requires both generations unchanged. The global generation
/// bumps on every wholesale invalidation — mapping, unmapping,
/// permission and enforcement changes — so a matching `gen` proves the
/// layout, the fill-time fetch permission, *and* the slot index are
/// all still valid; no per-hit page walk or permission check is
/// needed, only a direct `slot → write generation` load. A write —
/// including a snapshot restore's copy-back — bumps the written page's
/// generation, so self-modifying code (the classic code-corruption
/// attack) always sees its new bytes on the very next fetch while a
/// stack push leaves decodes from other pages valid.
///
/// The all-zero line is the empty line: `gen == 0` never hits (code
/// generations start at 1). `#[repr(C)]` pins the 48-byte layout that
/// [`empty_icache`] relies on.
#[derive(Clone, Copy)]
#[repr(C)]
struct ICacheEntry {
    gen: u64,
    /// Write generation of the page `ip` lies in, at decode time.
    pgen: u64,
    /// Write generation of the second page, for straddling encodings.
    pgen2: u64,
    ip: u32,
    /// Slot index of the page `ip` lies in, at decode time.
    slot: u32,
    /// Slot index of the second page, for straddling encodings.
    slot2: u32,
    instr: Instr,
    len: u8,
    /// Whether the encoding crosses a page boundary (the second page's
    /// write generation is then validated on every hit too).
    straddles: bool,
}

/// A decoded-instruction cache of [`ICACHE_SLOTS`] empty lines, from one
/// zeroed allocation rather than a loop writing each line.
fn empty_icache() -> Box<[ICacheEntry]> {
    // SAFETY: all-zero bytes are a valid `ICacheEntry`: its integer
    // fields may hold any bits, a zero `bool` is `false`, and a zero
    // `Instr` is `Instr::Nop`, whose `#[repr(u8)]` tag is 0 and which
    // has no fields (`zeroed_icache_lines_are_empty` checks the tag).
    unsafe { Box::new_zeroed_slice(ICACHE_SLOTS).assume_init() }
}

/// Comparison flags set by `cmp`/`cmpi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Operands were equal.
    pub zero: bool,
    /// First operand was less than the second, signed.
    pub lt: bool,
    /// First operand was less than the second, unsigned.
    pub ltu: bool,
}

impl Flags {
    /// Evaluates a jump condition against these flags.
    pub fn test(self, cond: Cond) -> bool {
        match cond {
            Cond::Z => self.zero,
            Cond::Nz => !self.zero,
            Cond::Lt => self.lt,
            Cond::Ge => !self.lt,
            Cond::Le => self.lt || self.zero,
            Cond::Gt => !(self.lt || self.zero),
            Cond::B => self.ltu,
            Cond::Ae => !self.ltu,
        }
    }
}

/// A condition that stopped execution abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A memory access faulted (unmapped page or permission denial —
    /// the latter is how DEP manifests).
    Mem(MemError),
    /// A protected-module access-control rule was violated.
    Pma(PmaViolation),
    /// The bytes at `addr` do not decode to an instruction.
    Decode {
        /// Address of the undecodable bytes.
        addr: u32,
        /// The decoder's complaint.
        err: DecodeError,
    },
    /// Division or remainder by zero.
    DivideByZero {
        /// Address of the faulting instruction.
        ip: u32,
    },
    /// A compiler-inserted defensive check fired (`trap` instruction);
    /// see [`isa::trap`] for the conventional codes.
    SoftwareTrap {
        /// The trap code.
        code: u8,
        /// Address of the trap instruction.
        ip: u32,
    },
    /// The hardware shadow stack observed a return address different
    /// from the one recorded at call time.
    ShadowStackMismatch {
        /// What the shadow stack recorded.
        expected: u32,
        /// What the data stack produced.
        got: u32,
    },
    /// `ret` executed with an empty shadow stack (return without call).
    ShadowStackUnderflow {
        /// Address of the `ret`.
        ip: u32,
    },
    /// `sys` with an unknown call number.
    UnknownSyscall {
        /// The unrecognized number.
        number: u8,
        /// Address of the `sys` instruction.
        ip: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(e) => write!(f, "memory fault: {e}"),
            Fault::Pma(e) => write!(f, "protected-module violation: {e}"),
            Fault::Decode { addr, err } => {
                write!(f, "illegal instruction at {addr:#010x}: {err}")
            }
            Fault::DivideByZero { ip } => write!(f, "division by zero at {ip:#010x}"),
            Fault::SoftwareTrap { code, ip } => {
                write!(f, "software trap {code} at {ip:#010x}")
            }
            Fault::ShadowStackMismatch { expected, got } => write!(
                f,
                "shadow stack mismatch: return to {got:#010x}, expected {expected:#010x}"
            ),
            Fault::ShadowStackUnderflow { ip } => {
                write!(f, "return without matching call at {ip:#010x}")
            }
            Fault::UnknownSyscall { number, ip } => {
                write!(f, "unknown syscall {number} at {ip:#010x}")
            }
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemError> for Fault {
    fn from(e: MemError) -> Fault {
        Fault::Mem(e)
    }
}

impl From<PmaViolation> for Fault {
    fn from(e: PmaViolation) -> Fault {
        Fault::Pma(e)
    }
}

/// Result of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The instruction completed; execution may continue.
    Continue,
    /// The machine halted with the given exit code.
    Halted(u32),
    /// Execution stopped on a fault.
    Fault(Fault),
    /// A blocking `read` found no input; the instruction will retry
    /// once input arrives (see [`Machine::set_blocking_reads`]).
    Blocked {
        /// The channel being waited on.
        fd: u32,
    },
}

/// Result of a bounded [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program exited with this code.
    Halted(u32),
    /// Execution stopped on a fault.
    Fault(Fault),
    /// The fuel budget was exhausted before the program finished.
    OutOfFuel,
    /// A blocking `read` is waiting for input; feed the channel and run
    /// again (interactive server sessions).
    Blocked {
        /// The channel being waited on.
        fd: u32,
    },
}

impl RunOutcome {
    /// Whether the program ran to a normal exit.
    pub fn is_halted(self) -> bool {
        matches!(self, RunOutcome::Halted(_))
    }

    /// The fault, if execution faulted.
    pub fn fault(self) -> Option<Fault> {
        match self {
            RunOutcome::Fault(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Halted(code) => write!(f, "halted with exit code {code}"),
            RunOutcome::Fault(fault) => write!(f, "faulted: {fault}"),
            RunOutcome::OutOfFuel => write!(f, "out of fuel"),
            RunOutcome::Blocked { fd } => write!(f, "blocked reading channel {fd}"),
        }
    }
}

/// The virtual machine: registers, memory, I/O and optional platform
/// protections.
pub struct Machine {
    // The architectural state, which `ArchState` compares and
    // `MachineSnapshot` captures, comes first.
    pub(crate) regs: [u32; NUM_REGS],
    pub(crate) ip: u32,
    pub(crate) flags: Flags,
    pub(crate) mem: Memory,
    pub(crate) io: IoBus,
    pub(crate) pma: Option<ProtectionMap>,
    pub(crate) shadow_stack: Option<Vec<u32>>,
    pub(crate) halted: Option<u32>,
    pub(crate) stats: ExecStats,
    pub(crate) rng_state: u64,
    pub(crate) prev_ip: u32,
    pub(crate) pending_transfer: TransferKind,
    pub(crate) blocking_reads: bool,
    /// The part of `stats` already added to a scope's tally.
    counted: ExecStats,
    trace: Option<TraceRing>,
    /// The decoded-instruction cache: empty (no allocation) until the
    /// first fast-path fetch, so a baseline machine never pays for it.
    icache: Box<[ICacheEntry]>,
    fast_path: bool,
    tier2: bool,
    /// Tier-2 block cache and hotness table; allocated lazily on the
    /// first eligible control transfer (`None` until then and while
    /// tier 2 is off).
    tier: Option<Box<TierEngine>>,
    /// Attached security-event sink, if any; `sink_mask` caches its
    /// interest mask so the hot path tests a single byte.
    sink: Option<Arc<dyn EventSink>>,
    sink_mask: EventMask,
    /// The sink, re-typed, when it is a [`CoverageSink`] attached via
    /// [`Machine::set_coverage`]: calls, returns and indirect jumps
    /// bump its edge map directly (no event construction, no dynamic
    /// dispatch), byte-identical to the event path.
    cov: Option<Arc<CoverageSink>>,
    /// Attached sampling profiler (see [`profile`](crate::profile)).
    prof: Option<Arc<Profiler>>,
    /// Retired instructions until the next profiler sample; `u64::MAX`
    /// when no profiler is attached or sampling is disabled, so the
    /// hot path is one decrement + never-taken branch with no `Option`
    /// check.
    prof_countdown: u64,
    /// Set by the word-access wrappers when a memory fault's address
    /// sits on a different page than the access base (a straddling
    /// access); consumed by fault-event classification.
    straddle_hint: bool,
    /// Tier 2's two data translations, reset at each dispatch: block
    /// loads and stores cluster on at most a couple of pages (the stack
    /// plus a data buffer or dispatch table), and nothing a block can
    /// do invalidates a resolved page. Kept most-recently-used-first;
    /// see [`Machine::load_u32`].
    lines: [DataLine; 2],
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("ip", &format_args!("{:#010x}", self.ip))
            .field("sp", &format_args!("{:#010x}", self.reg(Reg::Sp)))
            .field("bp", &format_args!("{:#010x}", self.reg(Reg::Bp)))
            .field("halted", &self.halted)
            .field("instructions", &self.stats.instructions)
            .finish()
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with empty memory, zeroed registers, permission
    /// enforcement on and no platform protections.
    ///
    /// Inside a [`scope`](crate::context::scope) the machine starts on
    /// the scope's engine and attaches its event sink and profiler, so
    /// telemetry captures machines created deep inside experiment
    /// code; it also counts into the scope's tally. Outside any scope
    /// it runs on [`Engine::Tier2`](crate::Engine::Tier2) with neither.
    pub fn new() -> Machine {
        let (engine, sink, prof) = crate::context::machine_defaults();
        let fast_path = engine.fast_path();
        let mut mem = Memory::new();
        mem.set_fast_path(fast_path);
        let sink_mask = sink
            .as_ref()
            .map(|s| s.interests())
            .unwrap_or(EventMask::NONE);
        let prof_countdown = prof.as_ref().map_or(u64::MAX, |p| p.countdown_init());
        Machine {
            regs: [0; NUM_REGS],
            ip: 0,
            flags: Flags::default(),
            mem,
            io: IoBus::new(),
            pma: None,
            shadow_stack: None,
            halted: None,
            stats: ExecStats::default(),
            counted: ExecStats::default(),
            rng_state: 0x9E37_79B9_7F4A_7C15,
            prev_ip: 0,
            pending_transfer: TransferKind::Jump,
            trace: None,
            blocking_reads: false,
            icache: Box::default(),
            fast_path,
            tier2: engine.tier2(),
            tier: None,
            sink,
            sink_mask,
            cov: None,
            prof,
            prof_countdown,
            straddle_hint: false,
            lines: [DataLine::INVALID; 2],
        }
    }

    /// Attaches (or with `None`, detaches) a security-event sink. The
    /// sink's [`interests`](EventSink::interests) mask is captured here,
    /// once; events outside it are never even constructed. Replaces any
    /// sink inherited from the [`scope`](crate::context::scope).
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.sink_mask = sink
            .as_ref()
            .map(|s| s.interests())
            .unwrap_or(EventMask::NONE);
        self.sink = sink;
        self.cov = None;
    }

    /// Attaches (or with `None`, detaches) a coverage sink with the
    /// devirtualized transfer path: the sink becomes the machine's
    /// event sink exactly as [`set_event_sink`](Machine::set_event_sink)
    /// would make it (faults and syscalls reach it through the ordinary
    /// event stream), and calls, returns and indirect jumps, at either
    /// tier, bump its edge map in place instead of constructing
    /// `ControlTransfer` events. The accumulated
    /// [`CoverageMap`](swsec_obs::CoverageMap) is byte-identical
    /// either way — same slots, same counts, same fingerprint — so
    /// coverage-guided callers keep their novelty signal while
    /// running tier-2 engaged.
    pub fn set_coverage(&mut self, cov: Option<Arc<CoverageSink>>) {
        self.set_event_sink(cov.clone().map(|c| c as Arc<dyn EventSink>));
        self.cov = cov;
    }

    /// The directly-attached coverage sink, if any (see
    /// [`set_coverage`](Machine::set_coverage)).
    pub fn coverage(&self) -> Option<&Arc<CoverageSink>> {
        self.cov.as_ref()
    }

    /// Whether a security-event sink is attached.
    pub fn has_event_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches (or with `None`, detaches) a sampling profiler (see
    /// [`profile`](crate::profile)), replacing any profiler inherited
    /// from the [`scope`](crate::context::scope), and re-arms the
    /// sample countdown — the next sample fires exactly `interval`
    /// retired instructions from here.
    pub fn set_profiler(&mut self, prof: Option<Arc<Profiler>>) {
        self.prof_countdown = prof.as_ref().map_or(u64::MAX, |p| p.countdown_init());
        self.prof = prof;
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.prof.as_ref()
    }

    /// Enables or disables the interpreter fast path for this machine:
    /// the decoded-instruction cache and the memory TLBs. On by
    /// default (subject to the scope's [`Engine`](crate::Engine));
    /// switching it off forces every fetch to decode from memory and
    /// every access through the page-table lookup. Program-visible behaviour is
    /// bit-for-bit identical either way — the switch exists for
    /// benchmark baselines and determinism audits. The switch drops
    /// the decoded-instruction cache; the next fast-path fetch
    /// allocates it empty again.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        self.mem.set_fast_path(on);
        self.icache = Box::default();
    }

    /// Whether the interpreter fast path is on.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables the tier-2 block engine for this machine
    /// (see [`tier`](crate::tier)). On by default (subject to the
    /// scope's [`Engine`](crate::Engine)); it only ever engages on top
    /// of the fast path, and machines with a PMA policy, tracing, or a
    /// per-step event sink never enter it. Program-visible behaviour is
    /// bit-for-bit identical either way — the switch exists for
    /// benchmark baselines and determinism audits. Switching it off
    /// discards all compiled blocks.
    pub fn set_tier2(&mut self, on: bool) {
        self.tier2 = on;
        if !on {
            self.tier = None;
        }
    }

    /// Whether the tier-2 block engine is enabled.
    pub fn tier2(&self) -> bool {
        self.tier2
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// The instruction pointer.
    pub fn ip(&self) -> u32 {
        self.ip
    }

    /// Sets the instruction pointer (counts as a jump for the PMA entry
    /// rule).
    pub fn set_ip(&mut self, ip: u32) {
        self.prev_ip = self.ip;
        self.ip = ip;
        self.pending_transfer = TransferKind::Jump;
    }

    /// The comparison flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Shared access to memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (loader-level; no checks apply).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Shared access to the I/O bus.
    pub fn io(&self) -> &IoBus {
        &self.io
    }

    /// Mutable access to the I/O bus (to feed attacker input or inspect
    /// output).
    pub fn io_mut(&mut self) -> &mut IoBus {
        &mut self.io
    }

    /// Installs (or removes) the protected-module access-control map.
    pub fn set_protection(&mut self, pma: Option<ProtectionMap>) {
        self.pma = pma;
    }

    /// The installed protection map, if any.
    pub fn protection(&self) -> Option<&ProtectionMap> {
        self.pma.as_ref()
    }

    /// Enables or disables the hardware shadow stack.
    pub fn set_shadow_stack(&mut self, enabled: bool) {
        self.shadow_stack = if enabled { Some(Vec::new()) } else { None };
    }

    /// Whether the hardware shadow stack is enabled.
    pub fn shadow_stack_enabled(&self) -> bool {
        self.shadow_stack.is_some()
    }

    /// Makes `read` block (retry) when no input is queued, instead of
    /// returning 0 bytes — the behaviour of a server waiting on a
    /// connection, needed for interactive multi-request sessions.
    pub fn set_blocking_reads(&mut self, blocking: bool) {
        self.blocking_reads = blocking;
    }

    /// Seeds the machine's deterministic RNG (the `sys rand` source).
    pub fn seed_rng(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Execution statistics accumulated so far, including the cache
    /// observability counters (icache from the CPU, TLB from memory).
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats;
        let tlb = self.mem.tlb_stats();
        s.tlb_hits = tlb.hits;
        s.tlb_misses = tlb.misses;
        s
    }

    /// Enables instruction tracing; entries accumulate in a bounded
    /// ring (default capacity
    /// [`DEFAULT_TRACE_CAPACITY`](crate::trace::DEFAULT_TRACE_CAPACITY)
    /// entries, oldest overwritten first) until [`Machine::take_trace`].
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace = if enabled {
            Some(TraceRing::new())
        } else {
            None
        };
    }

    /// Enables instruction tracing into a ring bounded at `capacity`
    /// entries (min 1).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::with_capacity(capacity));
    }

    /// How many trace entries have been overwritten by the bounded ring
    /// since the last [`Machine::take_trace`] (0 when tracing is off).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map(TraceRing::dropped).unwrap_or(0)
    }

    /// Removes and returns the accumulated instruction trace,
    /// oldest-first. When the bounded ring overflowed, these are the
    /// **most recent** entries (see [`Machine::trace_dropped`]).
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.as_mut().map(TraceRing::take).unwrap_or_default()
    }

    /// The exit code, if the machine has halted.
    pub fn exit_code(&self) -> Option<u32> {
        self.halted
    }

    fn next_rand(&mut self) -> u32 {
        // xorshift64* — deterministic and seedable so experiments can be
        // reproduced bit-for-bit.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }

    fn check_pma_data(&self, addr: u32) -> Result<(), Fault> {
        if let Some(pma) = &self.pma {
            pma.check_data(self.ip, addr)?;
        }
        Ok(())
    }

    /// Notes whether a data fault's address landed on a different page
    /// than the access base — a straddling multi-byte access, which
    /// fault-event classification reports as its own kind.
    #[cold]
    fn note_data_fault(&mut self, base: u32, e: MemError) -> Fault {
        self.straddle_hint = (e.addr ^ base) >= PAGE_SIZE;
        Fault::Mem(e)
    }

    /// Loads the word at `addr`: through the PMA check and the
    /// TLB-backed page lookup, or, with `LINES` (tier-2 blocks only),
    /// from one of the dispatch's two data lines, refilling a line after
    /// a miss. Two lines, not one, for the same reason the tier-1 data
    /// TLB has two entries: dispatcher-shaped code alternates every
    /// iteration between a data page (a jump table, a buffer) and the
    /// stack page (call/ret traffic), and a single line would refill
    /// through the page-table map twice per trip. A hit on the second
    /// line swaps it forward, a refill displaces the older line. Tier-2
    /// eligibility guarantees no PMA policy is attached, so a line hit
    /// skips only a no-op check. The four accessors take `LINES` as a
    /// const generic, so each tier gets its own copy, chosen at compile
    /// time.
    #[inline]
    fn load_u32<const LINES: bool>(&mut self, addr: u32) -> Result<u32, Fault> {
        if LINES {
            if let Some(line) = line_hit(&mut self.lines, |l| l.serves_word(addr, false)) {
                self.stats.mem_reads += 1;
                return Ok(self.mem.line_read_u32(line, addr));
            }
        }
        self.check_pma_data(addr)?;
        self.stats.mem_reads += 1;
        match self.mem.read_u32(addr, Access::Read) {
            Ok(v) => {
                self.fill_line::<LINES>(addr);
                Ok(v)
            }
            Err(e) => Err(self.note_data_fault(addr, e)),
        }
    }

    /// Loads the byte at `addr` (see [`load_u32`](Machine::load_u32)).
    #[inline]
    fn load_u8<const LINES: bool>(&mut self, addr: u32) -> Result<u8, Fault> {
        if LINES {
            if let Some(line) = line_hit(&mut self.lines, |l| l.serves_byte(addr, false)) {
                self.stats.mem_reads += 1;
                return Ok(self.mem.line_read_u8(line, addr));
            }
        }
        self.check_pma_data(addr)?;
        self.stats.mem_reads += 1;
        match self.mem.read_u8(addr, Access::Read) {
            Ok(v) => {
                self.fill_line::<LINES>(addr);
                Ok(v)
            }
            Err(e) => Err(self.note_data_fault(addr, e)),
        }
    }

    /// Stores the word `value` at `addr` (see
    /// [`load_u32`](Machine::load_u32)). A write through a line bumps
    /// the page's write generation and dirty flag exactly like a
    /// checked write, keeping SMC detection and snapshot dirty tracking
    /// intact.
    #[inline]
    fn store_u32<const LINES: bool>(&mut self, addr: u32, value: u32) -> Result<(), Fault> {
        if LINES {
            if let Some(line) = line_hit(&mut self.lines, |l| l.serves_word(addr, true)) {
                self.stats.mem_writes += 1;
                self.mem.line_write_u32(line, addr, value);
                return Ok(());
            }
        }
        self.check_pma_data(addr)?;
        self.stats.mem_writes += 1;
        match self.mem.write_u32(addr, value, Access::Write) {
            Ok(()) => {
                self.fill_line::<LINES>(addr);
                Ok(())
            }
            Err(e) => Err(self.note_data_fault(addr, e)),
        }
    }

    /// Stores the byte `value` at `addr` (see
    /// [`store_u32`](Machine::store_u32)).
    #[inline]
    fn store_u8<const LINES: bool>(&mut self, addr: u32, value: u8) -> Result<(), Fault> {
        if LINES {
            if let Some(line) = line_hit(&mut self.lines, |l| l.serves_byte(addr, true)) {
                self.stats.mem_writes += 1;
                self.mem.line_write_u8(line, addr, value);
                return Ok(());
            }
        }
        self.check_pma_data(addr)?;
        self.stats.mem_writes += 1;
        match self.mem.write_u8(addr, value, Access::Write) {
            Ok(()) => {
                self.fill_line::<LINES>(addr);
                Ok(())
            }
            Err(e) => Err(self.note_data_fault(addr, e)),
        }
    }

    /// After a checked access at `addr`, installs its page's line at
    /// the front of the pair, displacing the older line (`LINES` only).
    #[inline(always)]
    fn fill_line<const LINES: bool>(&mut self, addr: u32) {
        if LINES {
            if let Some(line) = self.mem.data_line(addr) {
                self.lines = [line, self.lines[0]];
            }
        }
    }

    /// Bulk equivalent of a `store_u8` loop, for syscall buffers when
    /// no PMA policy needs per-byte checks. Observably identical to the
    /// loop: each byte counts as one store, a fault lands on the first
    /// inaccessible byte (counting it, like the loop's pre-increment)
    /// with earlier bytes left written, and single-byte accesses never
    /// set the straddle hint.
    fn copy_in(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        match self.mem.write_bytes(addr, bytes, Access::Write) {
            Ok(()) => {
                self.stats.mem_writes += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.stats.mem_writes += u64::from(e.addr.wrapping_sub(addr)) + 1;
                self.straddle_hint = false;
                Err(Fault::Mem(e))
            }
        }
    }

    /// Bulk equivalent of a `load_u8` loop (see [`Self::copy_in`]).
    fn copy_out(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), Fault> {
        match self.mem.read_bytes(addr, buf, Access::Read) {
            Ok(()) => {
                self.stats.mem_reads += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.stats.mem_reads += u64::from(e.addr.wrapping_sub(addr)) + 1;
                self.straddle_hint = false;
                Err(Fault::Mem(e))
            }
        }
    }

    /// Reads `buf.len()` bytes at `addr` as the program would: one bulk
    /// copy, or byte by byte when a PMA policy must check each access.
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), Fault> {
        if self.pma.is_none() {
            return self.copy_out(addr, buf);
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.load_u8::<false>(addr.wrapping_add(i as u32))?;
        }
        Ok(())
    }

    /// Stages a long WRITE page by page, so a smashed length register
    /// costs at most one page beyond the mapped extent from `buf`.
    /// Page-aligned pieces fault at the same byte, with the same stats,
    /// as one whole copy. Out of line: only writes longer than the
    /// stack buffer, rare in every workload, come here.
    #[cold]
    #[inline(never)]
    fn stage_paged(&mut self, buf: u32, len: usize, heap: &mut Vec<u8>) -> Result<(), Fault> {
        while heap.len() < len {
            let done = heap.len();
            let at = buf.wrapping_add(done as u32);
            let piece = ((PAGE_SIZE - at % PAGE_SIZE) as usize).min(len - done);
            heap.resize(done + piece, 0);
            self.load_bytes(at, &mut heap[done..])?;
        }
        Ok(())
    }

    /// Delivers one event to the attached sink. Callers check
    /// `sink_mask` first, so unwanted events are never constructed.
    #[inline]
    fn emit(&self, event: SecurityEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Classifies a fault into its security event and delivers it.
    /// Faults are terminal, so this path is cold by construction.
    #[cold]
    fn emit_fault(&mut self, fault: &Fault) {
        if self.sink_mask == EventMask::NONE {
            return;
        }
        let event = match *fault {
            Fault::Mem(e) => {
                let straddle = match e.access {
                    Access::Fetch => (e.addr ^ self.ip) >= PAGE_SIZE,
                    Access::Read | Access::Write => self.straddle_hint,
                };
                let kind = if straddle {
                    FaultKind::Straddle
                } else {
                    match (e.kind, e.access) {
                        (MemErrorKind::Unmapped, _) => FaultKind::Unmapped,
                        (MemErrorKind::Denied { .. }, Access::Fetch) => FaultKind::Dep,
                        (MemErrorKind::Denied { .. }, _) => FaultKind::Perm,
                    }
                };
                SecurityEvent::Fault {
                    kind,
                    ip: self.ip,
                    addr: e.addr,
                }
            }
            Fault::Pma(v) => SecurityEvent::PmaViolation {
                rule: match v.kind {
                    PmaViolationKind::OutsideDataAccess => PmaRule::OutsideDataAccess,
                    PmaViolationKind::BadEntry => PmaRule::BadEntry,
                },
                from: v.ip,
                to: v.addr,
            },
            Fault::Decode { addr, .. } => SecurityEvent::Fault {
                kind: FaultKind::Decode,
                ip: addr,
                addr,
            },
            Fault::DivideByZero { ip } => SecurityEvent::Fault {
                kind: FaultKind::DivZero,
                ip,
                addr: ip,
            },
            Fault::SoftwareTrap { code, ip } => {
                if code == isa::trap::CANARY {
                    SecurityEvent::CanaryTrip { ip }
                } else {
                    SecurityEvent::GuardCheck { code, ip }
                }
            }
            Fault::ShadowStackMismatch { got, .. } => SecurityEvent::Fault {
                kind: FaultKind::ShadowStack,
                ip: self.ip,
                addr: got,
            },
            Fault::ShadowStackUnderflow { ip } => SecurityEvent::Fault {
                kind: FaultKind::ShadowStack,
                ip,
                addr: ip,
            },
            Fault::UnknownSyscall { ip, .. } => SecurityEvent::Fault {
                kind: FaultKind::UnknownSyscall,
                ip,
                addr: ip,
            },
        };
        self.straddle_hint = false;
        if self.sink_mask.contains(event.mask_bit()) {
            self.emit(event);
        }
    }

    /// `sp -= 4; mem32[sp] <- value`.
    #[inline(always)]
    fn push<const LINES: bool>(&mut self, value: u32) -> Result<(), Fault> {
        let sp = self.reg(Reg::Sp).wrapping_sub(4);
        self.set_reg(Reg::Sp, sp);
        self.store_u32::<LINES>(sp, value)
    }

    /// `value <- mem32[sp]; sp += 4`.
    #[inline(always)]
    fn pop<const LINES: bool>(&mut self) -> Result<u32, Fault> {
        let sp = self.reg(Reg::Sp);
        let value = self.load_u32::<LINES>(sp)?;
        self.set_reg(Reg::Sp, sp.wrapping_add(4));
        Ok(value)
    }

    /// Fetches the instruction at `ip`, consulting the decoded-
    /// instruction cache first. A line hits only while the memory's
    /// global code generation *and* the write generation of the page(s)
    /// it was decoded from are unchanged, so any write that could alter
    /// these bytes — self-modifying code, loader pokes, a snapshot
    /// restore, permission or mapping changes — forces a fresh decode,
    /// while writes to other pages leave the line valid. Fetch
    /// permission (DEP) needs no per-hit re-check: permission and
    /// enforcement changes bump the global generation, so a hit proves
    /// the fill-time check still stands (see [`ICacheEntry`]).
    ///
    /// The cache is allocated on the first fast-path fetch: the set
    /// lookup's bounds check, which every hit pays anyway, finds the
    /// still-empty cache and diverts to the fill.
    fn fetch(&mut self) -> Result<(Instr, usize), Fault> {
        if !self.fast_path {
            return decode_at(&self.mem, self.ip);
        }
        let gen = self.mem.code_generation();
        let way0 = ((self.ip as usize) & (ICACHE_SETS - 1)) * 2;
        let Some(set) = self.icache.get_mut(way0..way0 + 2) else {
            self.icache = empty_icache();
            return self.fetch_fill(gen, way0);
        };
        // `gen` must match before the slot indices may be trusted: a
        // matching global generation means no map/unmap has happened
        // since the fill, so the slots still hold the same pages.
        let mem = &self.mem;
        let ip = self.ip;
        let valid = |e: &ICacheEntry| {
            e.gen == gen
                && e.ip == ip
                && mem.slot_gen(e.slot) == e.pgen
                && (!e.straddles || mem.slot_gen(e.slot2) == e.pgen2)
        };
        if valid(&set[0]) {
            self.stats.icache_hits += 1;
            return Ok((set[0].instr, usize::from(set[0].len)));
        }
        if valid(&set[1]) {
            // Promote to way 0 so the set evicts least-recently-used.
            set.swap(0, 1);
            self.stats.icache_hits += 1;
            return Ok((set[0].instr, usize::from(set[0].len)));
        }
        self.fetch_fill(gen, way0)
    }

    /// The decoded-instruction-cache miss path: decode at `ip` and
    /// install the line as way 0 of its set (`way0`), demoting the old
    /// way 0 to way 1.
    fn fetch_fill(&mut self, gen: u64, way0: usize) -> Result<(Instr, usize), Fault> {
        self.stats.icache_misses += 1;
        let (instr, len) = decode_at(&self.mem, self.ip)?;
        let last = self.ip.wrapping_add(len as u32 - 1);
        let straddles = (self.ip ^ last) >= PAGE_SIZE;
        let (slot, pgen) = self.mem.fetch_page(self.ip)?;
        let (slot2, pgen2) = if straddles {
            self.mem.fetch_page(last)?
        } else {
            (0, 0)
        };
        self.icache[way0 + 1] = self.icache[way0];
        self.icache[way0] = ICacheEntry {
            ip: self.ip,
            gen,
            slot,
            slot2,
            pgen,
            pgen2,
            instr,
            len: len as u8,
            straddles,
        };
        Ok((instr, len))
    }

    fn transfer(&mut self, target: u32, kind: TransferKind) {
        self.prev_ip = self.ip;
        self.ip = target;
        self.pending_transfer = kind;
    }

    /// Largest syscall I/O transfer staged through a stack buffer;
    /// longer transfers fall back to a heap allocation.
    const SYS_STACK_BUF_LEN: usize = 256;

    /// Runs system call `number`; the `sys` instruction's successor is
    /// at `next_ip`. Syscalls never compile into blocks, so this runs
    /// only at tier 1, where `self.ip` is the `sys` instruction itself.
    fn syscall(&mut self, number: u8, next_ip: u32) -> Result<Flow, Fault> {
        self.stats.syscalls += 1;
        match number {
            isa::sys::EXIT => Ok(Flow::Halt(self.reg(Reg::R0))),
            isa::sys::READ => {
                let fd = self.reg(Reg::R0);
                let buf = self.reg(Reg::R1);
                let len = self.reg(Reg::R2);
                if self.blocking_reads && len > 0 && self.io.pending_input(fd) == 0 {
                    return Ok(Flow::Blocked(fd));
                }
                // Only the pending input can arrive, so a smashed length
                // register never sizes the staging buffer. Small
                // transfers (every harness payload) stage through the
                // stack: per-attempt heap allocations are measurable
                // against the fork server's sub-microsecond budget.
                let want = (len as usize).min(self.io.pending_input(fd));
                let mut stack = [0u8; Self::SYS_STACK_BUF_LEN];
                let mut heap = Vec::new();
                let tmp: &mut [u8] = if want <= Self::SYS_STACK_BUF_LEN {
                    &mut stack[..want]
                } else {
                    heap.resize(want, 0);
                    &mut heap
                };
                let n = self.io.read(fd, tmp);
                if self.pma.is_none() {
                    self.copy_in(buf, &tmp[..n])?;
                } else {
                    // PMA policy is per-access: each byte must be
                    // checked against the instruction's module.
                    for (i, &b) in tmp[..n].iter().enumerate() {
                        self.store_u8::<false>(buf.wrapping_add(i as u32), b)?;
                    }
                }
                self.set_reg(Reg::R0, n as u32);
                Ok(Flow::Next(next_ip, TransferKind::Sequential))
            }
            isa::sys::WRITE => {
                let fd = self.reg(Reg::R0);
                let buf = self.reg(Reg::R1);
                let len = self.reg(Reg::R2);
                let mut stack = [0u8; Self::SYS_STACK_BUF_LEN];
                let mut heap = Vec::new();
                let out: &[u8] = if len as usize <= Self::SYS_STACK_BUF_LEN {
                    let out = &mut stack[..len as usize];
                    self.load_bytes(buf, out)?;
                    out
                } else {
                    self.stage_paged(buf, len as usize, &mut heap)?;
                    &heap
                };
                self.io.write(fd, out);
                self.set_reg(Reg::R0, len);
                Ok(Flow::Next(next_ip, TransferKind::Sequential))
            }
            isa::sys::RAND => {
                let r = self.next_rand();
                self.set_reg(Reg::R0, r);
                Ok(Flow::Next(next_ip, TransferKind::Sequential))
            }
            _ => Err(Fault::UnknownSyscall {
                number,
                ip: self.ip,
            }),
        }
    }

    /// `dst <- dst op src` for the instruction at `ip`.
    fn alu(&mut self, op: AluOp, dst: Reg, src: Reg, ip: u32) -> Result<(), Fault> {
        let a = self.reg(dst);
        let b = self.reg(src);
        let result = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::DivU => {
                if b == 0 {
                    return Err(Fault::DivideByZero { ip });
                }
                a / b
            }
            AluOp::DivS => {
                if b == 0 {
                    return Err(Fault::DivideByZero { ip });
                }
                (a as i32).wrapping_div(b as i32) as u32
            }
            AluOp::ModU => {
                if b == 0 {
                    return Err(Fault::DivideByZero { ip });
                }
                a % b
            }
            AluOp::ModS => {
                if b == 0 {
                    return Err(Fault::DivideByZero { ip });
                }
                (a as i32).wrapping_rem(b as i32) as u32
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b),
            AluOp::Shr => a.wrapping_shr(b),
            AluOp::Sar => ((a as i32).wrapping_shr(b)) as u32,
        };
        self.set_reg(dst, result);
        Ok(())
    }

    fn set_cmp_flags(&mut self, a: u32, b: u32) {
        self.flags = Flags {
            zero: a == b,
            lt: (a as i32) < (b as i32),
            ltu: a < b,
        };
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> StepResult {
        if let Some(code) = self.halted {
            return StepResult::Halted(code);
        }
        // PMA rule 2: entering a module's code requires an entry point.
        if let Some(pma) = &self.pma {
            if let Err(v) = pma.check_fetch(self.prev_ip, self.ip, self.pending_transfer) {
                let f = Fault::Pma(v);
                self.emit_fault(&f);
                return StepResult::Fault(f);
            }
        }
        let (instr, len) = match self.fetch() {
            Ok(pair) => pair,
            Err(f) => {
                self.emit_fault(&f);
                return StepResult::Fault(f);
            }
        };
        if self.sink_mask.contains(EventMask::STEP) {
            self.emit(SecurityEvent::Step { ip: self.ip });
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { ip: self.ip, instr });
        }
        self.stats.instructions += 1;
        self.prof_countdown -= 1;
        if self.prof_countdown == 0 {
            self.prof_sample();
        }
        match self.exec(instr, len) {
            Ok(Flow::Halt(code)) => {
                self.halted = Some(code);
                StepResult::Halted(code)
            }
            Ok(Flow::Blocked(fd)) => StepResult::Blocked { fd },
            Ok(_) => StepResult::Continue,
            Err(f) => {
                self.emit_fault(&f);
                StepResult::Fault(f)
            }
        }
    }

    /// Takes one profiler sample at the current instruction (the one
    /// whose retirement drove the countdown to zero; `self.ip` still
    /// addresses it — `exec` has not advanced yet). Samples the PC plus
    /// a root-first call-stack walk: the shadow stack verbatim when the
    /// machine has one, otherwise a bounded scan of the saved-bp chain
    /// (`[bp+4]` return address, `[bp]` caller bp — the platform's
    /// activation-record shape). Deterministic: a pure function of the
    /// architectural state at a retired-instruction index.
    #[cold]
    #[inline(never)]
    fn prof_sample(&mut self) {
        let Some(prof) = self.prof.clone() else {
            // Unreachable in practice (the countdown is u64::MAX when
            // unattached), but re-arm defensively rather than sample.
            self.prof_countdown = u64::MAX;
            return;
        };
        self.prof_countdown = prof.countdown_init();
        let mut stack = match &self.shadow_stack {
            Some(shadow) => shadow.clone(),
            None => self.walk_bp_chain(),
        };
        stack.push(self.ip);
        crate::context::count(|t| {
            t.prof_samples += 1;
            t.prof_frames += stack.len() as u64;
        });
        prof.record(&stack);
    }

    /// Return-address scan for machines without a shadow stack: follows
    /// the saved-bp chain root-ward, bounded in depth and by strictly
    /// increasing bp (the stack grows down, so every caller frame sits
    /// higher), and stops at the first unmapped or null link — `main`'s
    /// frame keeps the loader's bp of 0. Returns return addresses
    /// root-first, like the shadow stack.
    fn walk_bp_chain(&self) -> Vec<u32> {
        const MAX_FRAMES: usize = 64;
        let mut frames = Vec::new();
        let mut bp = self.reg(Reg::Bp);
        while frames.len() < MAX_FRAMES && bp != 0 {
            let Ok(ret) = self.mem.peek_u32(bp.wrapping_add(4)) else {
                break;
            };
            let Ok(saved_bp) = self.mem.peek_u32(bp) else {
                break;
            };
            if ret == 0 {
                break;
            }
            frames.push(ret);
            if saved_bp <= bp {
                break;
            }
            bp = saved_bp;
        }
        frames.reverse();
        frames
    }

    /// Executes `instr`, `len` bytes long at `self.ip`, through the
    /// executor core and moves `ip` to where control goes next.
    #[inline]
    fn exec(&mut self, instr: Instr, len: usize) -> Result<Flow, Fault> {
        let next_ip = self.ip.wrapping_add(len as u32);
        let flow = self.exec_instr::<false>(instr, self.ip, next_ip, None)?;
        // A halted machine stays put; a blocked read retries the same
        // instruction on the next step.
        if let Flow::Next(to, kind) = flow {
            self.transfer(to, kind);
        }
        Ok(flow)
    }

    /// The executor core: the one implementation of every instruction's
    /// semantics, shared by tier 1 ([`exec`](Machine::exec)) and tier-2
    /// blocks ([`exec_block`](Machine::exec_block)). Runs `instr`,
    /// located at `ip` with its sequential successor at `next_ip`,
    /// against the registers, flags and memory, and returns where
    /// control goes next; moving `ip` is the caller's job. Fault
    /// payloads and events name `ip`, never `self.ip`, which a block
    /// leaves at its entry while it runs.
    ///
    /// `LINES` selects the data accessors' tier-2 copy, which serves
    /// repeat accesses from the dispatch's data lines (see
    /// [`load_u32`](Machine::load_u32)). `call_slot` is a static call's
    /// coverage-map slot when a block pre-resolved it at compile time,
    /// `None` otherwise.
    #[inline(always)]
    fn exec_instr<const LINES: bool>(
        &mut self,
        instr: Instr,
        ip: u32,
        next_ip: u32,
        call_slot: Option<u16>,
    ) -> Result<Flow, Fault> {
        let seq = Flow::Next(next_ip, TransferKind::Sequential);
        Ok(match instr {
            Instr::Nop => seq,
            Instr::Halt => Flow::Halt(0),
            Instr::MovI { dst, imm } => {
                self.set_reg(dst, imm);
                seq
            }
            Instr::Mov { dst, src } => {
                self.set_reg(dst, self.reg(src));
                seq
            }
            Instr::Load { dst, base, disp } => {
                let addr = self.addr(base, disp);
                let v = self.load_u32::<LINES>(addr)?;
                self.set_reg(dst, v);
                seq
            }
            Instr::Store { base, disp, src } => {
                let (addr, v) = (self.addr(base, disp), self.reg(src));
                self.store_u32::<LINES>(addr, v)?;
                seq
            }
            Instr::LoadB { dst, base, disp } => {
                let addr = self.addr(base, disp);
                let v = self.load_u8::<LINES>(addr)?;
                self.set_reg(dst, u32::from(v));
                seq
            }
            Instr::StoreB { base, disp, src } => {
                let (addr, v) = (self.addr(base, disp), self.reg(src) as u8);
                self.store_u8::<LINES>(addr, v)?;
                seq
            }
            Instr::Push(r) => {
                self.push::<LINES>(self.reg(r))?;
                seq
            }
            Instr::Pop(r) => {
                let v = self.pop::<LINES>()?;
                self.set_reg(r, v);
                seq
            }
            Instr::PushI(imm) => {
                self.push::<LINES>(imm)?;
                seq
            }
            Instr::Alu { op, dst, src } => {
                self.alu(op, dst, src, ip)?;
                seq
            }
            Instr::AddI { dst, imm } => {
                self.set_reg(dst, self.reg(dst).wrapping_add(imm));
                seq
            }
            Instr::Cmp { a, b } => {
                self.set_cmp_flags(self.reg(a), self.reg(b));
                seq
            }
            Instr::CmpI { a, imm } => {
                self.set_cmp_flags(self.reg(a), imm);
                seq
            }
            Instr::Lea { dst, base, disp } => {
                self.set_reg(dst, self.addr(base, disp));
                seq
            }
            Instr::Jmp(target) => Flow::Next(target, TransferKind::Jump),
            Instr::JCond { cond, target } => {
                if self.flags.test(cond) {
                    Flow::Next(target, TransferKind::Jump)
                } else {
                    seq
                }
            }
            Instr::Call(target) => {
                self.call::<LINES>(ControlKind::Call, ip, next_ip, target, call_slot)?;
                Flow::Next(target, TransferKind::Call)
            }
            Instr::CallR(r) => {
                let target = self.reg(r);
                self.call::<LINES>(ControlKind::CallIndirect, ip, next_ip, target, None)?;
                Flow::Next(target, TransferKind::Call)
            }
            Instr::Ret => {
                let target = self.pop::<LINES>()?;
                if let Some(shadow) = &mut self.shadow_stack {
                    match shadow.pop() {
                        None => return Err(Fault::ShadowStackUnderflow { ip }),
                        Some(expected) if expected != target => {
                            return Err(Fault::ShadowStackMismatch {
                                expected,
                                got: target,
                            });
                        }
                        Some(_) => {}
                    }
                }
                self.stats.rets += 1;
                self.note_transfer(ControlKind::Ret, ip, target, None);
                Flow::Next(target, TransferKind::Ret)
            }
            Instr::JmpR(r) => {
                let target = self.reg(r);
                self.note_transfer(ControlKind::JmpIndirect, ip, target, None);
                Flow::Next(target, TransferKind::Jump)
            }
            Instr::Enter(frame) => {
                self.push::<LINES>(self.reg(Reg::Bp))?;
                let sp = self.reg(Reg::Sp);
                self.set_reg(Reg::Bp, sp);
                self.set_reg(Reg::Sp, sp.wrapping_sub(frame));
                seq
            }
            Instr::Leave => {
                self.set_reg(Reg::Sp, self.reg(Reg::Bp));
                let saved = self.pop::<LINES>()?;
                self.set_reg(Reg::Bp, saved);
                seq
            }
            Instr::Sys(number) => {
                let flow = self.syscall(number, next_ip)?;
                // A blocked read retries the same instruction; emit its
                // event only when the call actually completes.
                if !matches!(flow, Flow::Blocked(_)) && self.sink_mask.contains(EventMask::SYSCALL)
                {
                    self.emit(SecurityEvent::Syscall { number, ip });
                }
                flow
            }
            Instr::Trap(code) => return Err(Fault::SoftwareTrap { code, ip }),
        })
    }

    /// `base + disp`, the effective address of a memory operand.
    #[inline(always)]
    fn addr(&self, base: Reg, disp: i16) -> u32 {
        self.reg(base).wrapping_add(disp as i32 as u32)
    }

    /// The push, shadow-stack record, count and report of a call from
    /// `ip` to `target` returning to `ret` (see
    /// [`note_transfer`](Machine::note_transfer) for `slot`).
    #[inline(always)]
    fn call<const LINES: bool>(
        &mut self,
        kind: ControlKind,
        ip: u32,
        ret: u32,
        target: u32,
        slot: Option<u16>,
    ) -> Result<(), Fault> {
        self.push::<LINES>(ret)?;
        if let Some(shadow) = &mut self.shadow_stack {
            shadow.push(ret);
        }
        self.stats.calls += 1;
        self.note_transfer(kind, ip, target, slot);
        Ok(())
    }

    /// Reports the control transfer `from -> to` to an interested sink.
    /// A directly attached coverage sink has its edge slot bumped in
    /// place (`slot`, when the caller pre-resolved it) instead of
    /// receiving a `ControlTransfer` event: same slot, same count, no
    /// event construction or dynamic dispatch.
    #[inline(always)]
    fn note_transfer(&self, kind: ControlKind, from: u32, to: u32, slot: Option<u16>) {
        if !self.sink_mask.contains(EventMask::CONTROL) {
            return;
        }
        match (&self.cov, slot) {
            (Some(cov), Some(slot)) => cov.bump_slot(usize::from(slot)),
            (Some(cov), None) => cov.bump_edge(kind as u8, from, to),
            (None, _) => self.emit(SecurityEvent::ControlTransfer { kind, from, to }),
        }
    }

    /// Runs up to `fuel` instructions. With blocking reads enabled, the
    /// run pauses (returning [`RunOutcome::Blocked`]) when input runs
    /// dry; feed the channel and call `run` again to resume.
    ///
    /// When the tier-2 block engine is eligible (see
    /// [`Machine::set_tier2`]), control-transfer targets are candidates
    /// for superinstruction blocks: hot ones are compiled and then
    /// served from the block cache, retiring many instructions per
    /// dispatch. Everything observable — outcomes, registers, memory,
    /// I/O, events, architectural stats, fuel accounting — is
    /// bit-for-bit identical to stepping.
    ///
    /// When the run ends, what it executed is added to the current
    /// [`scope`](crate::context::scope)'s tally — the tally of the
    /// attempt the machine runs in, even for a pooled machine built by
    /// an earlier attempt.
    pub fn run(&mut self, fuel: u64) -> RunOutcome {
        let outcome = self.run_fuel(fuel);
        self.count_stats();
        outcome
    }

    fn run_fuel(&mut self, fuel: u64) -> RunOutcome {
        let mut remaining = fuel;
        while remaining > 0 {
            // Blocks begin at control-transfer targets, so tier 2 is
            // only consulted when the last instruction transferred.
            if self.tier2
                && self.pending_transfer != TransferKind::Sequential
                && self.halted.is_none()
                && self.prof_countdown > 1
                && self.tier2_eligible()
            {
                // Clip the chain budget to the distance to the next
                // profiler sample: blocks attribute their retired
                // instructions in bulk at chain exit, and the sampled
                // instruction itself always retires in a tier-1 step —
                // exact PC and stack, with tier 2 still engaged between
                // samples. With no profiler the countdown is u64::MAX
                // and this clips nothing.
                let budget = remaining.min(self.prof_countdown - 1);
                if let Some((retired, fault)) = self.tier2_enter(budget) {
                    remaining -= retired;
                    self.prof_countdown -= retired;
                    if let Some(f) = fault {
                        self.emit_fault(&f);
                        return RunOutcome::Fault(f);
                    }
                    continue;
                }
            }
            match self.step() {
                StepResult::Continue => {}
                StepResult::Halted(code) => return RunOutcome::Halted(code),
                StepResult::Fault(f) => return RunOutcome::Fault(f),
                StepResult::Blocked { fd } => return RunOutcome::Blocked { fd },
            }
            remaining -= 1;
        }
        RunOutcome::OutOfFuel
    }

    /// Whether this machine may execute tier-2 blocks at all. PMA
    /// machines need the per-fetch entry-rule check, tracing needs a
    /// per-instruction ring push, and a sink interested in `Step`
    /// events needs one event per instruction — all of which the block
    /// loop hoists away — so those machines stay on tier 1, which is
    /// observably equivalent. (`ControlTransfer` interest needs no
    /// exclusion: blocks run calls, returns and indirect jumps through
    /// the same executor core as tier 1, events included.)
    #[inline]
    fn tier2_eligible(&self) -> bool {
        self.fast_path
            && self.pma.is_none()
            && self.trace.is_none()
            && !self.sink_mask.contains(EventMask::STEP)
    }

    /// Tries to serve the current instruction pointer (a transfer
    /// target) from the tier-2 block cache, compiling a block if the
    /// target just crossed the hotness threshold. Returns `None` when
    /// no valid block exists (the caller steps normally), otherwise
    /// `(instructions retired, fault)` with at least one instruction
    /// retired and the machine left in the exact architectural state
    /// the equivalent `step` sequence would have produced.
    fn tier2_enter(&mut self, budget: u64) -> Option<(u64, Option<Fault>)> {
        // Move the engine out so the block borrow cannot alias the
        // machine state the micro-op loop mutates (a pointer move, not
        // a reallocation).
        let mut engine = match self.tier.take() {
            Some(engine) => engine,
            None => Box::new(TierEngine::new()),
        };
        let result = self.tier2_dispatch(&mut engine, budget);
        self.tier = Some(engine);
        result
    }

    /// The tier-2 dispatch loop, the one place blocks chain: as long as
    /// each block ends in a transfer whose target is itself compiled
    /// and still valid, run blocks back-to-back without surfacing to the
    /// run loop. Every hop re-validates its block against the current
    /// write generations (a store in block A must stop a stale block B
    /// from running) and re-checks fuel, so a chain is observably
    /// identical to dispatching each block alone.
    fn tier2_dispatch(
        &mut self,
        engine: &mut TierEngine,
        budget: u64,
    ) -> Option<(u64, Option<Fault>)> {
        let mut total: u64 = 0;
        let mut fault: Option<Fault> = None;
        // Nothing a block can do invalidates a resolved page, but the
        // run loop can between dispatches.
        self.lines = [DataLine::INVALID; 2];
        // When the previous block exited through a dynamic-transfer
        // terminator, its inline cache predicts the next block: a hit
        // skips the lookup and hotness bookkeeping entirely (the
        // generation validation below still runs), a miss promotes the
        // observed target once the successor's slot is known. `self.ip`
        // here *is* the runtime-resolved target — for `ret`, the popped
        // (and shadow-stack-verified) return address — so predictions
        // are keyed on verified control flow, never on stale pointers.
        let mut pending_ic: Option<(usize, u32, u16)> = None;
        loop {
            let ip = self.ip;
            let gen = self.mem.code_generation();
            let mut promote: Option<(usize, u32, u16)> = None;
            let predicted = match pending_ic.take() {
                Some((from_slot, from_ip, ic)) => match engine.ic_probe(from_slot, from_ip, ic, ip)
                {
                    IcProbe::Hit(slot) => {
                        self.stats.tier2_ic_hits += 1;
                        Some(slot)
                    }
                    IcProbe::Miss => {
                        self.stats.tier2_ic_misses += 1;
                        promote = Some((from_slot, from_ip, ic));
                        None
                    }
                    IcProbe::Mega => None,
                },
                None => None,
            };
            let slot = match predicted {
                Some(slot) => slot,
                None => match engine.lookup_slot(ip) {
                    Some(slot) => slot,
                    None => {
                        if !engine.note_hot(ip) || !engine.compile_into(&self.mem, ip) {
                            break;
                        }
                        self.stats.tier2_compiled += 1;
                        engine.lookup_slot(ip).expect("block just compiled")
                    }
                },
            };
            let valid = {
                let b = engine.block(slot);
                b.gen == gen && b.pages_valid(&self.mem)
            };
            if !valid {
                // Stale block: drop it and make the region prove
                // itself hot again before recompiling, so an
                // SMC-heavy region cannot thrash the compiler. Any
                // inline-cache entries predicting it fail their
                // live-successor check from here on and miss.
                self.stats.tier2_invalidations += 1;
                engine.invalidate(ip);
                break;
            }
            if let Some((from_slot, from_ip, ic)) = promote {
                match engine.ic_promote(from_slot, from_ip, ic, ip, slot) {
                    IcPromotion::Installed => self.stats.tier2_ic_installs += 1,
                    IcPromotion::Megamorphic => self.stats.tier2_ic_megamorphic += 1,
                    IcPromotion::Skipped => {}
                }
            }
            if u64::from(engine.block(slot).ops[0].n) > budget - total {
                // Not enough fuel for the leading superinstruction: the
                // remaining budget is served one stepped instruction at
                // a time, exactly as tier 1 would.
                break;
            }
            self.stats.tier2_hits += 1;
            let exit = self.exec_block(engine, slot, budget - total);
            total += exit.retired;
            if exit.fault.is_some() {
                fault = exit.fault;
                break;
            }
            // A sequential pending transfer means the block side-exited
            // into stepped code (SMC patch or mid-block stall); the
            // step loop must serve the next instruction.
            if total == budget || self.pending_transfer == TransferKind::Sequential {
                break;
            }
            if exit.ic != IC_NONE {
                pending_ic = Some((slot, ip, exit.ic));
            }
        }
        if total == 0 {
            return None;
        }
        // Fold the chain's retired instructions into the counters the
        // tier-1 loop would have produced; block-served instructions
        // count as icache hits (their decodes came from cached state).
        self.stats.instructions += total;
        self.stats.icache_hits += total;
        self.stats.tier2_instructions += total;
        Some((total, fault))
    }

    /// Executes the validated block in `slot`, retiring at most
    /// `budget` (≥ its first op's count) instructions. Returns what it
    /// retired, the fault that stopped it, and the inline cache of the
    /// dynamic transfer terminator it exited through, which the
    /// dispatcher probes and promotes against the runtime-resolved
    /// target now in `self.ip`.
    ///
    /// Each decoded instruction runs through the executor core
    /// ([`exec_instr`](Machine::exec_instr)), the code `step` runs, with
    /// the dispatch's data lines as its data path; this loop adds only
    /// what is specific to blocks: fuel, backedges, the linked
    /// call/return prediction, the SMC side exit, inline-cache exits and
    /// the three fused compare-and-branch ops. The contract is exact
    /// equivalence with the `step` loop: on any exit — natural end,
    /// taken jump, exhausted budget, self-modifying store, fault — `ip`,
    /// `prev_ip` and `pending_transfer` hold precisely what stepping
    /// would have left, so the next `step` or block entry continues
    /// indistinguishably.
    #[inline(always)]
    fn exec_block(&mut self, engine: &TierEngine, slot: usize, budget: u64) -> BlockExit {
        debug_assert_eq!(self.ip, engine.block(slot).start_ip);
        debug_assert!(u64::from(engine.block(slot).ops[0].n) <= budget);
        debug_assert!(self.pma.is_none());
        let mut executed: u64 = 0;
        let mut fault: Option<Fault> = None;
        let block = engine.block(slot);
        let ops = &block.ops[..];
        let start_ip = block.start_ip;
        let pages = &block.pages[..usize::from(block.npages)];
        let mut i = 0usize;
        // How op 0 was most recently entered: `None` means the
        // machine's own (prev_ip, pending_transfer) still describe it;
        // `Some(ip)` means an in-block backedge jumped from `ip`.
        let mut backedge_from: Option<u32> = None;
        // Exit state for the terminal/natural exits, installed after
        // the loop (the initial values are never read: every such
        // break assigns all three).
        let mut exit_prev: u32 = 0;
        let mut exit_ip: u32 = 0;
        let mut exit_kind = TransferKind::Sequential;
        // Inline-cache index of the dynamic terminator the block exits
        // through; IC_NONE on stall/fault/side-exit and static exits.
        let mut exit_ic = IC_NONE;
        let mut side_exit = false;
        // Fuel ran out at op `i` *before* executing it (a fused op may
        // retire more instructions than the budget has left).
        let mut stall = false;

        'blk: loop {
            let op = &ops[i];
            if executed + u64::from(op.n) > budget {
                // Stop exactly where stepping would have: at this op,
                // unexecuted. The dispatcher guarantees op 0 fits, so
                // a stall always has history to reconstruct from.
                stall = true;
                break 'blk;
            }
            executed += u64::from(op.n);
            // A one-instruction op is a decoded instruction. Testing
            // the count before the variant leaves the core's match
            // as the only jump table on the common path.
            let (to, kind) = if op.n == 1 {
                let MicroOp::Instr(instr) = op.kind else {
                    unreachable!("fused ops retire two or three instructions")
                };
                let slot = Some(op.cov_slot);
                match self.exec_instr::<true>(instr, op.ip, op.next_ip, slot) {
                    Ok(Flow::Next(to, kind)) => (to, kind),
                    Ok(Flow::Halt(_) | Flow::Blocked(_)) => {
                        unreachable!("halt and syscalls never compile into blocks")
                    }
                    Err(f) => {
                        self.ip = op.ip;
                        fault = Some(f);
                        break 'blk;
                    }
                }
            } else {
                match op.kind {
                    MicroOp::Instr(_) => unreachable!("a decoded instruction retires one"),
                    MicroOp::FusedLoopI {
                        dst,
                        add_imm,
                        a,
                        cmp_imm,
                        cond,
                        target,
                    } => {
                        self.set_reg(dst, self.reg(dst).wrapping_add(add_imm));
                        self.set_cmp_flags(self.reg(a), cmp_imm);
                        if !self.flags.test(cond) {
                            (op.next_ip, TransferKind::Sequential)
                        } else if target != start_ip || ops.len() > 1 || a != dst {
                            (target, TransferKind::Jump)
                        } else {
                            // The whole block is this one superinstruction
                            // branching to itself: iterate in place.
                            // Intermediate register/flag states are
                            // unobservable (no faults, no events, no
                            // memory), so only the per-pass fuel
                            // accounting and the final state need to be
                            // architectural.
                            let n = u64::from(op.n);
                            let v1 = self.reg(dst);
                            if cond == Cond::Nz && (add_imm == 1 || add_imm == u32::MAX) {
                                // Counted ±1 loop: the remaining trip
                                // count is closed-form. v1 != cmp_imm here
                                // (the branch was taken), so `left` is in
                                // [1, 2^32-1].
                                let left = u64::from(if add_imm == 1 {
                                    cmp_imm.wrapping_sub(v1)
                                } else {
                                    v1.wrapping_sub(cmp_imm)
                                });
                                let by_fuel = (budget - executed) / n;
                                if left > by_fuel {
                                    let k = by_fuel as u32;
                                    let v = if add_imm == 1 {
                                        v1.wrapping_add(k)
                                    } else {
                                        v1.wrapping_sub(k)
                                    };
                                    executed += by_fuel * n;
                                    self.set_reg(dst, v);
                                    self.set_cmp_flags(v, cmp_imm);
                                    backedge_from = Some(op.last_ip);
                                    i = 0;
                                    stall = true;
                                    break 'blk;
                                }
                                executed += left * n;
                                self.set_reg(dst, cmp_imm);
                                self.set_cmp_flags(cmp_imm, cmp_imm);
                            } else {
                                loop {
                                    if executed + n > budget {
                                        backedge_from = Some(op.last_ip);
                                        i = 0;
                                        stall = true;
                                        break 'blk;
                                    }
                                    executed += n;
                                    let v = self.reg(dst).wrapping_add(add_imm);
                                    self.set_reg(dst, v);
                                    self.set_cmp_flags(v, cmp_imm);
                                    if !self.flags.test(cond) {
                                        break;
                                    }
                                }
                            }
                            (op.next_ip, TransferKind::Sequential)
                        }
                    }
                    MicroOp::FusedCmpIJ {
                        a,
                        imm,
                        cond,
                        target,
                    } => {
                        self.set_cmp_flags(self.reg(a), imm);
                        if self.flags.test(cond) {
                            (target, TransferKind::Jump)
                        } else {
                            (op.next_ip, TransferKind::Sequential)
                        }
                    }
                    MicroOp::FusedCmpJ { a, b, cond, target } => {
                        self.set_cmp_flags(self.reg(a), self.reg(b));
                        if self.flags.test(cond) {
                            (target, TransferKind::Jump)
                        } else {
                            (op.next_ip, TransferKind::Sequential)
                        }
                    }
                }
            };
            match kind {
                TransferKind::Sequential => {}
                // A direct jump back to the block's own head loops
                // without leaving the block (the loop-top fuel check
                // bounds it); a dynamic terminator (one with an
                // inline cache) always exits.
                TransferKind::Jump if to == start_ip && op.ic == IC_NONE => {
                    backedge_from = Some(op.last_ip);
                    i = 0;
                    continue 'blk;
                }
                // Linked call: the next op is the callee's first
                // instruction, so fall through (the SMC check below
                // still guards the pushed return address).
                TransferKind::Call if op.linked() => {}
                // Linked return: the popped target is the matching
                // in-block call's return site, the next op, so keep
                // running in-block. A return address the program (or
                // an attacker) rewrote exits below with the actual
                // target pending, exactly like stepping.
                TransferKind::Ret if op.linked() && to == op.cont_ip => {}
                // Every other transfer exits. A dynamic terminator
                // reports its inline cache, keyed downstream on the
                // runtime target (for `ret`, the popped,
                // shadow-stack-verified return address); static
                // transfers and the linked-ret mismatch carry
                // IC_NONE and exit unpredicted.
                TransferKind::Jump | TransferKind::Call | TransferKind::Ret => {
                    exit_prev = op.last_ip;
                    exit_ip = to;
                    exit_kind = kind;
                    exit_ic = op.ic;
                    break 'blk;
                }
            }
            // Completion of op `i` without an exit. A memory-writing op
            // may have patched the block's own encodings (self-
            // modifying code); nothing decoded from these pages may run
            // past it. The continuation fields make this exact even
            // after a linked call (exit lands at the callee with the
            // call pending).
            if op.writes && !self.mem.page_gens_valid(pages) {
                exit_prev = op.last_ip;
                exit_ip = op.cont_ip;
                exit_kind = op.cont_kind;
                side_exit = true;
                break 'blk;
            }
            i += 1;
            if i == ops.len() {
                exit_prev = op.last_ip;
                exit_ip = op.cont_ip;
                exit_kind = op.cont_kind;
                break 'blk;
            }
        }

        if fault.is_some() || stall {
            // A fault arm already pointed `self.ip` at the faulting
            // instruction; a stall stops *at* op `i`, unexecuted.
            // Either way, restore the (prev_ip, pending_transfer) the
            // op's tier-1 step would have seen on entry.
            if stall {
                self.ip = ops[i].ip;
            }
            if i > 0 {
                self.prev_ip = ops[i - 1].last_ip;
                self.pending_transfer = ops[i - 1].cont_kind;
            } else if let Some(from) = backedge_from {
                self.prev_ip = from;
                self.pending_transfer = TransferKind::Jump;
            }
            // First entry to op 0: the machine's own state already
            // describes it — leave it untouched.
            side_exit = true;
        } else {
            self.prev_ip = exit_prev;
            self.ip = exit_ip;
            self.pending_transfer = exit_kind;
        }
        // Instruction counters are folded once per dispatch (see
        // `tier2_dispatch`); only the rare side-exit counter is
        // per-block.
        if side_exit {
            self.stats.tier2_side_exits += 1;
        }
        BlockExit {
            retired: executed,
            fault,
            ic: exit_ic,
        }
    }

    /// Captures the machine's [`ArchState`](crate::arch::ArchState),
    /// less its statistics — registers, flags, memory (refcounted page
    /// images), I/O queues and logs, platform protections (PMA map,
    /// shadow stack), RNG state and run status — into a
    /// [`MachineSnapshot`] that
    /// [`restore_from`](Machine::restore_from) can rewind to in
    /// O(dirty pages).
    ///
    /// Deliberately **not** captured, because they are observers or
    /// tuning knobs rather than machine state: the attached event sink,
    /// the trace ring, accumulated [`ExecStats`], the fast-path switch,
    /// and the tier-2 engine (compiled blocks are re-validated against
    /// page write generations on every entry, so a restore that
    /// changed code pages makes the stale blocks unusable
    /// automatically). A restore leaves the current sink and fast-path
    /// setting
    /// in place and resets the per-run stats, so a restored run is
    /// *architecturally* indistinguishable from a freshly built machine
    /// in the same configuration — same outcome, same `ArchState`.
    /// The cache counters are the
    /// deliberate exception: decodes and translations for pages the
    /// restore did not have to copy stay warm, so a restored run is
    /// faster than a fresh build. (Cache counters are excluded from
    /// rendered reports precisely so accelerator state can never leak
    /// into experiment output.)
    pub fn snapshot(&mut self) -> MachineSnapshot {
        crate::context::count(|t| t.snapshots += 1);
        MachineSnapshot {
            regs: self.regs,
            ip: self.ip,
            flags: self.flags,
            mem: self.mem.snapshot(),
            io: self.io.clone(),
            pma: self.pma.clone(),
            shadow_stack: self.shadow_stack.clone(),
            halted: self.halted,
            rng_state: self.rng_state,
            prev_ip: self.prev_ip,
            pending_transfer: self.pending_transfer,
            blocking_reads: self.blocking_reads,
        }
    }

    /// Rewinds the machine to the state captured by `snap`, copying
    /// back only the memory pages dirtied since that snapshot (see
    /// [`Memory::restore_from`]). Returns what the restore copied.
    ///
    /// Stats discipline: any stats not yet counted are added to the
    /// scope's tally first (see [`run`](Machine::run)), and then the
    /// stats are zeroed, so a restored attempt's architectural stats
    /// match a fresh build's bit-for-bit and nothing is counted twice
    /// or lost. Cache counters start from zero too but may count fewer
    /// misses than a fresh build, because decodes and translations
    /// survive the restore (see [`snapshot`](Machine::snapshot)).
    pub fn restore_from(&mut self, snap: &MachineSnapshot) -> crate::mem::RestoreStats {
        // Count the finished attempt, then start from zero like a
        // fresh machine.
        self.count_stats();
        self.stats = ExecStats::default();
        self.counted = ExecStats::default();
        self.mem.reset_tlb_counts();

        let restore = self.mem.restore_from(&snap.mem);
        crate::context::count(|t| {
            t.restores += 1;
            t.restore_dirty_pages += restore.dirty_pages;
            t.restore_bytes += restore.bytes_copied;
        });

        self.regs = snap.regs;
        self.ip = snap.ip;
        self.flags = snap.flags;
        self.io = snap.io.clone();
        self.pma = snap.pma.clone();
        self.shadow_stack = snap.shadow_stack.clone();
        self.halted = snap.halted;
        self.rng_state = snap.rng_state;
        self.prev_ip = snap.prev_ip;
        self.pending_transfer = snap.pending_transfer;
        self.blocking_reads = snap.blocking_reads;
        self.straddle_hint = false;
        // Re-arm the profiler countdown so a restored attempt samples
        // at the same retired-instruction indices a fresh build would —
        // the deterministic-attribution contract across serve modes.
        self.prof_countdown = self.prof.as_ref().map_or(u64::MAX, |p| p.countdown_init());
        // Decoded instructions and tier-2 blocks need no explicit
        // flush: the restore bumped the write generation of every page
        // it copied back, so exactly the stale lines and blocks fail
        // validation; decodes and blocks from untouched pages stay
        // warm across attempts.
        if let Some(trace) = self.trace.as_mut() {
            let _ = trace.take();
        }
        restore
    }

    /// Adds the stats accumulated since they were last counted to the
    /// current scope's tally.
    fn count_stats(&mut self) {
        let now = self.stats();
        let last = std::mem::replace(&mut self.counted, now);
        crate::context::count(|tally| *tally += now.since(&last));
    }
}

/// The architectural state of a [`Machine`] (its
/// [`ArchState`](crate::arch::ArchState) less the statistics, which a
/// restore resets), captured by [`Machine::snapshot`] and rewound to
/// by [`Machine::restore_from`].
///
/// Memory pages are refcounted images shared with every clone of the
/// snapshot; restoring re-materializes only pages dirtied since the
/// capture. See the snapshot method docs for what is intentionally not
/// captured (sink, trace, stats, fast-path switch).
#[derive(Clone)]
pub struct MachineSnapshot {
    regs: [u32; NUM_REGS],
    ip: u32,
    flags: Flags,
    mem: crate::mem::MemorySnapshot,
    io: IoBus,
    pma: Option<ProtectionMap>,
    shadow_stack: Option<Vec<u32>>,
    halted: Option<u32>,
    rng_state: u64,
    prev_ip: u32,
    pending_transfer: TransferKind,
    blocking_reads: bool,
}

impl fmt::Debug for MachineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineSnapshot")
            .field("ip", &format_args!("{:#010x}", self.ip))
            .field("pages", &self.mem.page_count())
            .field("halted", &self.halted)
            .finish()
    }
}

impl MachineSnapshot {
    /// Number of memory pages captured.
    pub fn page_count(&self) -> usize {
        self.mem.page_count()
    }
}

impl Drop for Machine {
    /// Counts whatever the machine executed since its last run (for
    /// callers that [`step`](Machine::step) by hand).
    fn drop(&mut self) {
        self.count_stats();
    }
}

/// Decodes the instruction at `addr`: reads its encoding with fetch
/// permission (one page resolution per page touched) and decodes it.
/// Tier 1's uncached fetch and the block compiler both decode here.
pub(crate) fn decode_at(mem: &Memory, addr: u32) -> Result<(Instr, usize), Fault> {
    let first = mem.read_u8(addr, Access::Fetch)?;
    let len = isa::instr_len(first).ok_or(Fault::Decode {
        addr,
        err: DecodeError::UnknownOpcode(first),
    })?;
    let mut buf = [0u8; isa::MAX_INSTR_LEN];
    buf[0] = first;
    if len > 1 {
        mem.read_bytes(addr.wrapping_add(1), &mut buf[1..len], Access::Fetch)?;
    }
    Instr::decode(&buf[..len]).map_err(|err| Fault::Decode { addr, err })
}

/// What one tier-2 block did: the instructions it retired, the fault
/// that stopped it, if any, and the inline-cache index of the dynamic
/// terminator it exited through ([`IC_NONE`] on every other exit).
struct BlockExit {
    retired: u64,
    fault: Option<Fault>,
    ic: u16,
}

/// Where control goes after the executor core ran an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// On to `ip` with `kind` pending for the next fetch: the
    /// sequential successor (`Sequential`), or the target of a jump, a
    /// call or a return (the popped, shadow-stack-checked address).
    Next(u32, TransferKind),
    /// The machine halts with this exit code.
    Halt(u32),
    /// A read blocks on this empty descriptor; the instruction retries.
    Blocked(u32),
}

/// The line of the pair that `serves` the access, swapped to the front.
#[inline]
fn line_hit(pair: &mut [DataLine; 2], serves: impl Fn(DataLine) -> bool) -> Option<DataLine> {
    if serves(pair[0]) {
        return Some(pair[0]);
    }
    if serves(pair[1]) {
        pair.swap(0, 1);
        return Some(pair[0]);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchState;
    use crate::isa::{sys, trap};
    use crate::mem::{MemErrorKind, Perm};
    use crate::policy::{ProtectedRegion, ReentryPolicy};

    const TEXT: u32 = 0x1000;
    const STACK_TOP: u32 = 0xbfff_f000;

    fn assemble(instrs: &[Instr]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in instrs {
            i.encode(&mut out);
        }
        out
    }

    fn machine_with(instrs: &[Instr]) -> Machine {
        let mut m = Machine::new();
        m.mem_mut().map(TEXT, 0x1000, Perm::RX).unwrap();
        m.mem_mut()
            .map(STACK_TOP - 0x4000, 0x4000, Perm::RW)
            .unwrap();
        m.mem_mut().poke_bytes(TEXT, &assemble(instrs)).unwrap();
        m.set_reg(Reg::Sp, STACK_TOP);
        m.set_ip(TEXT);
        m
    }

    /// `instrs` on a tier-2, a fast-path and a baseline machine.
    fn on_three_engines(instrs: &[Instr]) -> [Machine; 3] {
        [(true, true), (false, true), (false, false)].map(|(tier2, fast)| {
            let mut m = machine_with(instrs);
            m.set_tier2(tier2);
            m.set_fast_path(fast);
            m
        })
    }

    /// Runs every machine for `fuel` and asserts that all stop with
    /// the first one's outcome in the first one's architectural state.
    fn run_alike(machines: &mut [Machine], fuel: u64) -> RunOutcome {
        let outcome = machines[0].run(fuel);
        let (first, rest) = machines.split_first_mut().unwrap();
        for m in rest {
            assert_eq!(m.run(fuel), outcome, "fuel {fuel}");
            let diff = ArchState::of(m).diff(ArchState::of(first));
            assert_eq!(diff, None, "fuel {fuel}");
        }
        outcome
    }

    fn exit_with(r: Reg) -> Vec<Instr> {
        vec![
            Instr::Mov {
                dst: Reg::R0,
                src: r,
            },
            Instr::Sys(sys::EXIT),
        ]
    }

    #[test]
    fn arithmetic_and_exit() {
        let mut prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 40,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 2,
            },
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg::R1,
                src: Reg::R2,
            },
        ];
        prog.extend(exit_with(Reg::R1));
        assert_eq!(machine_with(&prog).run(100), RunOutcome::Halted(42));
    }

    #[test]
    fn signed_division_truncates_toward_zero() {
        let mut prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: (-7i32) as u32,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 2,
            },
            Instr::Alu {
                op: AluOp::DivS,
                dst: Reg::R1,
                src: Reg::R2,
            },
        ];
        prog.extend(exit_with(Reg::R1));
        assert_eq!(
            machine_with(&prog).run(100),
            RunOutcome::Halted((-3i32) as u32)
        );
    }

    #[test]
    fn division_by_zero_faults() {
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 1,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 0,
            },
            Instr::Alu {
                op: AluOp::DivU,
                dst: Reg::R1,
                src: Reg::R2,
            },
        ];
        let outcome = machine_with(&prog).run(100);
        assert!(matches!(
            outcome,
            RunOutcome::Fault(Fault::DivideByZero { .. })
        ));
    }

    #[test]
    fn call_and_ret_roundtrip_through_stack() {
        // call f; exit(r0)   f: movi r0, 7; ret
        // Layout: call(5) mov(2) sys(2) -> f at TEXT+9
        let prog = vec![
            Instr::Call(TEXT + 9),
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R0,
            },
            Instr::Sys(sys::EXIT),
            Instr::MovI {
                dst: Reg::R0,
                imm: 7,
            },
            Instr::Ret,
        ];
        assert_eq!(machine_with(&prog).run(100), RunOutcome::Halted(7));
    }

    #[test]
    fn enter_leave_maintain_frame_chain() {
        let prog = vec![
            Instr::Call(TEXT + 9),
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R3,
            },
            Instr::Sys(sys::EXIT),
            // f:
            Instr::Enter(0x18),
            Instr::MovI {
                dst: Reg::R3,
                imm: 11,
            },
            Instr::Store {
                base: Reg::Bp,
                disp: -4,
                src: Reg::R3,
            },
            Instr::Load {
                dst: Reg::R3,
                base: Reg::Bp,
                disp: -4,
            },
            Instr::Leave,
            Instr::Ret,
        ];
        assert_eq!(machine_with(&prog).run(100), RunOutcome::Halted(11));
    }

    #[test]
    fn conditional_jumps_follow_flags() {
        // if (3 < 5) exit(1) else exit(0), signed
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 3,
            },
            Instr::CmpI { a: Reg::R1, imm: 5 },
            Instr::JCond {
                cond: Cond::Lt,
                target: TEXT + 24,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            }, // offset 17
            Instr::Sys(sys::EXIT),
            Instr::MovI {
                dst: Reg::R0,
                imm: 1,
            }, // offset 24
            Instr::Sys(sys::EXIT),
        ];
        assert_eq!(machine_with(&prog).run(100), RunOutcome::Halted(1));
    }

    #[test]
    fn unsigned_vs_signed_comparison_differ() {
        // -1 (0xffffffff) is above 5 unsigned, below 5 signed.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: u32::MAX,
            },
            Instr::CmpI { a: Reg::R1, imm: 5 },
            Instr::JCond {
                cond: Cond::B,
                target: TEXT + 24,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: 2,
            }, // not below (unsigned)
            Instr::Sys(sys::EXIT),
            Instr::MovI {
                dst: Reg::R0,
                imm: 3,
            },
            Instr::Sys(sys::EXIT),
        ];
        assert_eq!(machine_with(&prog).run(100), RunOutcome::Halted(2));
    }

    #[test]
    fn read_and_write_syscalls_move_bytes() {
        let buf = STACK_TOP - 0x100;
        let prog = vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            }, // fd 0
            Instr::MovI {
                dst: Reg::R1,
                imm: buf,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 16,
            },
            Instr::Sys(sys::READ),
            Instr::Mov {
                dst: Reg::R2,
                src: Reg::R0,
            }, // echo as many as read
            Instr::MovI {
                dst: Reg::R0,
                imm: 1,
            }, // fd 1
            Instr::Sys(sys::WRITE),
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            },
            Instr::Sys(sys::EXIT),
        ];
        let mut m = machine_with(&prog);
        m.io_mut().feed_input(0, b"hello");
        assert_eq!(m.run(100), RunOutcome::Halted(0));
        assert_eq!(m.io().output(1), b"hello");
    }

    #[test]
    fn rand_syscall_is_deterministic_per_seed() {
        let prog = vec![Instr::Sys(sys::RAND), Instr::Sys(sys::EXIT)];
        let mut a = machine_with(&prog);
        a.seed_rng(7);
        let mut b = machine_with(&prog);
        b.seed_rng(7);
        assert_eq!(a.run(10), b.run(10));
    }

    #[test]
    fn software_trap_reports_code() {
        let prog = vec![Instr::Trap(trap::CANARY)];
        let outcome = machine_with(&prog).run(10);
        assert_eq!(
            outcome,
            RunOutcome::Fault(Fault::SoftwareTrap {
                code: trap::CANARY,
                ip: TEXT
            })
        );
    }

    #[test]
    fn executing_data_faults_under_dep() {
        // Jump to the (RW) stack page: fetch denied when enforcement is on.
        let prog = vec![Instr::Jmp(STACK_TOP - 0x100)];
        let mut m = machine_with(&prog);
        let outcome = m.run(10);
        match outcome {
            RunOutcome::Fault(Fault::Mem(e)) => {
                assert_eq!(e.access, Access::Fetch);
                assert!(matches!(e.kind, MemErrorKind::Denied { .. }));
            }
            other => panic!("expected DEP fault, got {other:?}"),
        }
    }

    #[test]
    fn executing_data_succeeds_without_dep() {
        let data = STACK_TOP - 0x100;
        let shellcode = assemble(&[
            Instr::MovI {
                dst: Reg::R0,
                imm: 99,
            },
            Instr::Sys(sys::EXIT),
        ]);
        let prog = vec![Instr::Jmp(data)];
        let mut m = machine_with(&prog);
        m.mem_mut().poke_bytes(data, &shellcode).unwrap();
        m.mem_mut().set_enforce(false);
        assert_eq!(m.run(10), RunOutcome::Halted(99));
    }

    #[test]
    fn shadow_stack_catches_overwritten_return_address() {
        // main: call f; exit(0)
        // f: overwrite own return address, then ret.
        let prog = vec![
            Instr::Call(TEXT + 12), // +0, 5 bytes
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            }, // +5
            Instr::Sys(sys::EXIT),  // +11? no: movi 6 bytes
        ];
        // Recompute: call is 5 bytes (ends at +5), movi 6 (ends at +11),
        // sys 2 (ends at +13). Place f at +13.
        let prog = {
            let mut p = prog;
            p[0] = Instr::Call(TEXT + 13);
            p.push(Instr::MovI {
                dst: Reg::R1,
                imm: TEXT,
            }); // f: forge target
            p.push(Instr::Store {
                base: Reg::Sp,
                disp: 0,
                src: Reg::R1,
            });
            p.push(Instr::Ret);
            p
        };
        let mut m = machine_with(&prog);
        m.set_shadow_stack(true);
        let outcome = m.run(100);
        assert!(
            matches!(
                outcome,
                RunOutcome::Fault(Fault::ShadowStackMismatch { .. })
            ),
            "got {outcome:?}"
        );
    }

    #[test]
    fn shadow_stack_underflow_on_bare_ret() {
        let prog = vec![Instr::PushI(TEXT), Instr::Ret];
        let mut m = machine_with(&prog);
        m.set_shadow_stack(true);
        assert!(matches!(
            m.run(10),
            RunOutcome::Fault(Fault::ShadowStackUnderflow { .. })
        ));
    }

    #[test]
    fn shadow_stack_allows_honest_calls() {
        let prog = vec![
            Instr::Call(TEXT + 13),
            Instr::MovI {
                dst: Reg::R0,
                imm: 5,
            },
            Instr::Sys(sys::EXIT),
            Instr::Ret,
        ];
        let mut m = machine_with(&prog);
        m.set_shadow_stack(true);
        assert_eq!(m.run(100), RunOutcome::Halted(5));
    }

    /// Runs one `sys` READ (fd 0) or WRITE (fd 1) of `len` bytes at
    /// `buf` over a data area of `pages` pages at `DATA` filled with a
    /// pattern, then exits with the call's result. Returns everything a
    /// syscall may affect: the outcome, the data area, the I/O and the
    /// stats.
    fn sys_transfer(number: u8, buf: u32, len: u32, input: &[u8], pma: bool, fast: bool) -> SysRun {
        const DATA: u32 = 0x0070_0000;
        const PAGES: u32 = 3;
        let fd = if number == sys::READ { 0 } else { 1 };
        let mut m = machine_with(&[
            Instr::MovI {
                dst: Reg::R0,
                imm: fd,
            },
            Instr::MovI {
                dst: Reg::R1,
                imm: buf,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: len,
            },
            Instr::Sys(number),
            Instr::Sys(sys::EXIT),
        ]);
        m.set_fast_path(fast);
        m.mem_mut().map(DATA, PAGES * 0x1000, Perm::RW).unwrap();
        let pattern: Vec<u8> = (0..PAGES * 0x1000).map(|i| (i * 7 + 3) as u8).collect();
        m.mem_mut().poke_bytes(DATA, &pattern).unwrap();
        if pma {
            // An unrelated module: its only effect is that every data
            // access now runs through the per-access policy check.
            m.mem_mut().map(0x0050_0000, 0x2000, Perm::RW).unwrap();
            m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
                0x0050_0000..0x0050_1000,
                0x0050_1000..0x0050_2000,
                vec![0x0050_0000],
            )])));
        }
        m.io_mut().feed_input(0, input);
        let outcome = m.run(100);
        SysRun {
            outcome,
            data: m.mem().peek_bytes(DATA, PAGES * 0x1000).unwrap(),
            output: m.io().observable(),
            pending: m.io().pending_input(0),
            stats: m.stats(),
        }
    }

    #[derive(Debug, PartialEq)]
    struct SysRun {
        outcome: RunOutcome,
        data: Vec<u8>,
        output: Vec<(u32, Vec<u8>)>,
        pending: usize,
        stats: ExecStats,
    }

    #[test]
    fn smashed_syscall_lengths_act_like_the_smallest_equivalent_length() {
        const DATA: u32 = 0x0070_0000;
        const END: u32 = DATA + 3 * 0x1000;
        const SMASHED: u32 = 0x4141_4141;
        let input: Vec<u8> = (0..300u32).map(|i| i as u8 ^ 0x5a).collect();
        let unmapped = |access| {
            RunOutcome::Fault(Fault::Mem(MemError {
                addr: END,
                access,
                kind: MemErrorKind::Unmapped,
            }))
        };
        for pma in [false, true] {
            for fast in [true, false] {
                let ctx = format!("pma {pma}, fast path {fast}");
                // READ past the mapped end: the 300 pending bytes are all
                // consumed, the first 100 land, the 101st store faults.
                let read = sys_transfer(sys::READ, END - 100, SMASHED, &input, pma, fast);
                assert_eq!(
                    read,
                    sys_transfer(sys::READ, END - 100, 300, &input, pma, fast),
                    "{ctx}"
                );
                assert_eq!(read.outcome, unmapped(Access::Write), "{ctx}");
                assert_eq!(read.data[0x3000 - 100..], input[..100], "{ctx}");
                assert_eq!((read.pending, read.stats.mem_writes), (0, 101), "{ctx}");
                // READ that fits: only the pending input moves.
                let short = sys_transfer(sys::READ, DATA, SMASHED, &input[..50], pma, fast);
                assert_eq!(
                    short,
                    sys_transfer(sys::READ, DATA, 50, &input[..50], pma, fast),
                    "{ctx}"
                );
                assert_eq!(short.outcome, RunOutcome::Halted(50), "{ctx}");
                assert_eq!(short.data[..50], input[..50], "{ctx}");
                // WRITE past the mapped end: the 101st load faults and
                // nothing reaches the channel.
                let write = sys_transfer(sys::WRITE, END - 100, SMASHED, &[], pma, fast);
                assert_eq!(
                    write,
                    sys_transfer(sys::WRITE, END - 100, 101, &[], pma, fast),
                    "{ctx}"
                );
                assert_eq!(write.outcome, unmapped(Access::Read), "{ctx}");
                assert_eq!(
                    (write.output.len(), write.stats.mem_reads),
                    (0, 101),
                    "{ctx}"
                );
                // A long unaligned WRITE across pages is staged in pieces
                // and still emits exactly the bytes in memory.
                let long = sys_transfer(sys::WRITE, DATA + 100, 0x2000 + 50, &[], pma, fast);
                assert_eq!(long.outcome, RunOutcome::Halted(0x2000 + 50), "{ctx}");
                assert_eq!(
                    long.output,
                    vec![(1, long.data[100..100 + 0x2000 + 50].to_vec())],
                    "{ctx}"
                );
                assert_eq!(long.stats.mem_reads, 0x2000 + 50, "{ctx}");
            }
        }
    }

    #[test]
    fn pma_blocks_outside_data_access() {
        // Program (outside) loads from protected data.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 0x0060_0000,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
        ];
        let mut m = machine_with(&prog);
        m.mem_mut().map(0x0050_0000, 0x2000, Perm::RWX).unwrap();
        m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
            0x0050_0000..0x0050_1000,
            0x0060_0000..0x0060_1000,
            vec![0x0050_0000],
        )])));
        m.mem_mut().map(0x0060_0000, 0x1000, Perm::RW).unwrap();
        let outcome = m.run(10);
        assert!(
            matches!(outcome, RunOutcome::Fault(Fault::Pma(_))),
            "{outcome:?}"
        );
    }

    #[test]
    fn pma_entry_point_gates_calls() {
        // call into module at non-entry offset faults; at entry succeeds.
        let module_code = 0x0050_0000;
        let make = |target: u32| {
            let prog = vec![Instr::Call(target)];
            let mut m = machine_with(&prog);
            m.mem_mut().map(module_code, 0x1000, Perm::RX).unwrap();
            let body = assemble(&[
                Instr::Nop,
                Instr::MovI {
                    dst: Reg::R0,
                    imm: 1,
                },
                Instr::Sys(sys::EXIT),
            ]);
            m.mem_mut().poke_bytes(module_code, &body).unwrap();
            m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
                module_code..module_code + 0x1000,
                0x0060_0000..0x0060_1000,
                vec![module_code],
            )])));
            m
        };
        assert_eq!(make(module_code).run(10), RunOutcome::Halted(1));
        let outcome = make(module_code + 1).run(10);
        assert!(matches!(outcome, RunOutcome::Fault(Fault::Pma(_))));
    }

    #[test]
    fn pma_relaxed_reentry_permits_returns_into_module() {
        // Module calls out; external code returns back into module body.
        let module_code = 0x0050_0000;
        let external = TEXT;
        // external main: call module entry; (module then calls back out to
        // `helper` which returns into the module's middle).
        let helper = TEXT + 0x100;
        let prog = vec![Instr::Call(module_code)];
        let mut m = machine_with(&prog);
        m.mem_mut()
            .poke_bytes(helper, &assemble(&[Instr::Ret]))
            .unwrap();
        m.mem_mut().map(module_code, 0x1000, Perm::RX).unwrap();
        let module_body = assemble(&[
            Instr::MovI {
                dst: Reg::R1,
                imm: helper,
            },
            Instr::CallR(Reg::R1),
            Instr::MovI {
                dst: Reg::R0,
                imm: 77,
            },
            Instr::Sys(sys::EXIT),
        ]);
        m.mem_mut().poke_bytes(module_code, &module_body).unwrap();
        let region = ProtectedRegion::new(
            module_code..module_code + 0x1000,
            0x0060_0000..0x0060_1000,
            vec![module_code],
        );
        // Strict policy: the helper's return into the module faults.
        m.set_protection(Some(ProtectionMap::new(vec![region.clone()])));
        let strict_outcome = m.run(100);
        assert!(matches!(strict_outcome, RunOutcome::Fault(Fault::Pma(_))));

        // Relaxed policy: the return is tolerated.
        let prog2 = vec![Instr::Call(module_code)];
        let mut m2 = machine_with(&prog2);
        m2.mem_mut()
            .poke_bytes(helper, &assemble(&[Instr::Ret]))
            .unwrap();
        m2.mem_mut().map(module_code, 0x1000, Perm::RX).unwrap();
        m2.mem_mut().poke_bytes(module_code, &module_body).unwrap();
        m2.set_protection(Some(
            ProtectionMap::new(vec![region]).with_reentry(ReentryPolicy::AllowReturns),
        ));
        assert_eq!(m2.run(100), RunOutcome::Halted(77));
        let _ = external;
    }

    #[test]
    fn stats_count_instructions_and_calls() {
        let prog = vec![
            Instr::Call(TEXT + 13),
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            },
            Instr::Sys(sys::EXIT),
            Instr::Ret,
        ];
        let mut m = machine_with(&prog);
        m.run(100);
        assert_eq!(m.stats().calls, 1);
        assert_eq!(m.stats().rets, 1);
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn trace_records_executed_instructions() {
        let prog = vec![Instr::Nop, Instr::Halt];
        let mut m = machine_with(&prog);
        m.set_trace(true);
        m.run(10);
        let trace = m.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].instr, Instr::Nop);
        assert_eq!(trace[1].instr, Instr::Halt);
    }

    #[test]
    fn icache_serves_loops_and_is_observable() {
        // r1 = 3; loop: addi r1, -1; cmpi r1, 0; jnz loop; exit(r1)
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 3,
            },
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            }, // TEXT+6
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Instr::Sys(sys::EXIT),
        ];
        let mut m = machine_with(&prog);
        assert!(m.fast_path());
        assert_eq!(m.run(1000), RunOutcome::Halted(0));
        let stats = m.stats();
        // Three trips round the loop: the second and third fetch every
        // loop instruction from the icache.
        assert!(stats.icache_hits >= 6, "{stats:?}");
        assert!(stats.icache_misses >= 6, "{stats:?}");
        assert!(stats.tlb_hits > 0, "{stats:?}");
    }

    #[test]
    fn fast_path_off_is_bit_identical_and_uncounted() {
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 3,
            },
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Instr::Sys(sys::EXIT),
        ];
        let mut machines = [machine_with(&prog), machine_with(&prog)];
        machines[1].set_fast_path(false);
        run_alike(&mut machines, 1000);
        let s = machines[1].stats();
        assert_eq!(s.icache_hits + s.icache_misses, 0);
        assert_eq!(s.tlb_hits + s.tlb_misses, 0);
    }

    #[test]
    fn self_modifying_code_defeats_stale_decodes() {
        // A two-trip loop whose body instruction `movi r0, 1` is
        // executed (and icached) on the first trip, then overwritten
        // by the program itself: the store to the RWX text page must
        // invalidate the cached decode, so the second trip loads the
        // patched immediate. The exit code says which decode ran.
        //
        // Layout (bytes): movi r3(6) | loop@+6: movi r0(6) |
        // movi r1(6) | movi r2(6) | storeb(4) | addi(6) | cmpi(6) |
        // jnz(5) | sys(2).  MovI's immediate starts at offset 2, so
        // the patched byte is loop+2 = TEXT+8.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R3,
                imm: 2,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: 1,
            }, // TEXT+6, the target
            Instr::MovI {
                dst: Reg::R1,
                imm: TEXT + 8,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 42,
            },
            Instr::StoreB {
                base: Reg::R1,
                disp: 0,
                src: Reg::R2,
            },
            Instr::AddI {
                dst: Reg::R3,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R3, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Sys(sys::EXIT),
        ];
        let mut m = Machine::new();
        m.mem_mut().map(TEXT, 0x1000, Perm::RWX).unwrap();
        m.mem_mut()
            .map(STACK_TOP - 0x4000, 0x4000, Perm::RW)
            .unwrap();
        m.mem_mut().poke_bytes(TEXT, &assemble(&prog)).unwrap();
        m.set_reg(Reg::Sp, STACK_TOP);
        m.set_ip(TEXT);
        assert_eq!(m.run(100), RunOutcome::Halted(42));
        // Every store to the executable page bumps the code
        // generation, so this loop runs almost entirely on fresh
        // decodes — correctness beats caching for SMC.
        assert!(m.stats().icache_misses > m.stats().icache_hits);
    }

    #[test]
    fn out_of_fuel_reported() {
        let prog = vec![Instr::Jmp(TEXT)];
        assert_eq!(machine_with(&prog).run(10), RunOutcome::OutOfFuel);
    }

    #[test]
    fn events_flow_for_control_transfers_and_syscalls() {
        use swsec_obs::{CountingSink, RingBufferSink};

        let prog = vec![
            Instr::Call(TEXT + 13), // direct call
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            },
            Instr::Sys(sys::EXIT),
            // f: (movi 6 + callr 2 + ret 1 ⇒ g at TEXT+22)
            Instr::MovI {
                dst: Reg::R1,
                imm: TEXT + 22,
            },
            Instr::CallR(Reg::R1), // indirect call
            Instr::Ret,            // back to main
            Instr::Ret,            // g: return to f
        ];
        let counter = std::sync::Arc::new(CountingSink::new());
        let ring = std::sync::Arc::new(RingBufferSink::new(64));
        let mut m = machine_with(&prog);
        m.set_event_sink(Some(counter.clone()));
        assert!(m.has_event_sink());
        assert_eq!(m.run(100), RunOutcome::Halted(0));
        let c = counter.counts();
        assert_eq!(c.control, 4, "{c:?}"); // call, callr, 2 rets
        assert_eq!(c.syscall, 1);
        assert_eq!(c.step, 0); // default mask excludes steps

        // The ring sink captures typed payloads in order.
        let mut m2 = machine_with(&prog);
        m2.set_event_sink(Some(ring.clone()));
        m2.run(100);
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        match events[0] {
            swsec_obs::SecurityEvent::ControlTransfer { kind, from, to } => {
                assert_eq!(kind, swsec_obs::ControlKind::Call);
                assert_eq!(from, TEXT);
                assert_eq!(to, TEXT + 13);
            }
            ref other => panic!("expected a call event, got {other}"),
        }
    }

    #[test]
    fn canary_trap_becomes_canary_trip_other_traps_guard_checks() {
        use swsec_obs::CountingSink;

        let run_trap = |code: u8| {
            let counter = std::sync::Arc::new(CountingSink::new());
            let mut m = machine_with(&[Instr::Trap(code)]);
            m.set_event_sink(Some(counter.clone()));
            m.run(10);
            counter.counts()
        };
        let canary = run_trap(trap::CANARY);
        assert_eq!((canary.canary, canary.guard), (1, 0));
        let bounds = run_trap(trap::BOUNDS);
        assert_eq!((bounds.canary, bounds.guard), (0, 1));
    }

    #[test]
    fn fault_events_classify_dep_unmapped_and_pma() {
        use swsec_obs::{RingBufferSink, SecurityEvent};

        let capture = |mut m: Machine| {
            let ring = std::sync::Arc::new(RingBufferSink::new(16));
            m.set_event_sink(Some(ring.clone()));
            m.run(20);
            ring.drain().0
        };

        // DEP: jump to a non-executable page.
        let events = capture(machine_with(&[Instr::Jmp(STACK_TOP - 0x100)]));
        assert!(
            events.iter().any(|e| matches!(
                e,
                SecurityEvent::Fault {
                    kind: swsec_obs::FaultKind::Dep,
                    ..
                }
            )),
            "{events:?}"
        );

        // Unmapped data read.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 0x7000_0000,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
        ];
        let events = capture(machine_with(&prog));
        assert!(
            events.iter().any(|e| matches!(
                e,
                SecurityEvent::Fault {
                    kind: swsec_obs::FaultKind::Unmapped,
                    addr: 0x7000_0000,
                    ..
                }
            )),
            "{events:?}"
        );

        // PMA rule 1: outside access to protected data.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 0x0060_0000,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
        ];
        let mut m = machine_with(&prog);
        m.mem_mut().map(0x0050_0000, 0x2000, Perm::RWX).unwrap();
        m.mem_mut().map(0x0060_0000, 0x1000, Perm::RW).unwrap();
        m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
            0x0050_0000..0x0050_1000,
            0x0060_0000..0x0060_1000,
            vec![0x0050_0000],
        )])));
        let events = capture(m);
        assert!(
            events.iter().any(|e| matches!(
                e,
                SecurityEvent::PmaViolation {
                    rule: swsec_obs::PmaRule::OutsideDataAccess,
                    to: 0x0060_0000,
                    ..
                }
            )),
            "{events:?}"
        );
    }

    #[test]
    fn straddling_store_fault_is_classified_as_straddle() {
        use swsec_obs::{FaultKind, RingBufferSink, SecurityEvent};

        // Writable page followed by a read-only page: a word store at
        // the boundary faults mid-word on the second page.
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 0x9000 - 2,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 0xaabb_ccdd,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R2,
            },
        ];
        let mut m = machine_with(&prog);
        m.mem_mut().map(0x8000, 0x1000, Perm::RW).unwrap();
        m.mem_mut().map(0x9000, 0x1000, Perm::R).unwrap();
        let ring = std::sync::Arc::new(RingBufferSink::new(8));
        m.set_event_sink(Some(ring.clone()));
        assert!(matches!(m.run(10), RunOutcome::Fault(Fault::Mem(_))));
        let (events, _) = ring.drain();
        assert!(
            events.iter().any(|e| matches!(
                e,
                SecurityEvent::Fault {
                    kind: FaultKind::Straddle,
                    addr: 0x9000,
                    ..
                }
            )),
            "{events:?}"
        );
    }

    #[test]
    fn step_events_feed_hot_address_profile() {
        use swsec_obs::HotAddressSink;

        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 3,
            },
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            }, // TEXT+6
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Instr::Sys(sys::EXIT),
        ];
        let hot = std::sync::Arc::new(HotAddressSink::new());
        let mut m = machine_with(&prog);
        m.set_event_sink(Some(hot.clone()));
        assert_eq!(m.run(1000), RunOutcome::Halted(0));
        // Every retired instruction was profiled.
        assert_eq!(hot.total(), m.stats().instructions);
        // The loop body (TEXT+6) ran three times — the hottest address.
        let top = hot.top(1);
        assert_eq!(top[0].0, TEXT + 6);
        assert_eq!(top[0].1, 3);
    }

    #[test]
    fn detached_sink_means_no_events_and_identical_results() {
        use swsec_obs::CountingSink;

        let prog = vec![
            Instr::Call(TEXT + 13),
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            },
            Instr::Sys(sys::EXIT),
            Instr::Ret,
        ];
        let counter = std::sync::Arc::new(CountingSink::new());
        let mut machines = [machine_with(&prog), machine_with(&prog)];
        machines[0].set_event_sink(Some(counter.clone()));
        run_alike(&mut machines, 100);
        // Detaching stops the flow entirely.
        let mut detached = machine_with(&prog);
        detached.set_event_sink(Some(counter.clone()));
        detached.set_event_sink(None);
        let before = counter.counts();
        detached.run(100);
        assert_eq!(counter.counts(), before);
    }

    #[test]
    fn bounded_trace_ring_keeps_newest_entries() {
        let prog = vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 3,
            },
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Instr::Sys(sys::EXIT),
        ];
        let mut m = machine_with(&prog);
        m.set_trace_capacity(4);
        assert_eq!(m.run(1000), RunOutcome::Halted(0));
        let executed = m.stats().instructions;
        assert_eq!(m.trace_dropped(), executed - 4);
        let trace = m.take_trace();
        assert_eq!(trace.len(), 4);
        // The final entry is the exit syscall.
        assert_eq!(trace[3].instr, Instr::Sys(sys::EXIT));
        // And the entries are the last four in execution order.
        assert_eq!(
            trace[2].instr,
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1
            }
        );
    }

    #[test]
    fn halted_machine_stays_halted() {
        let prog = vec![Instr::Halt];
        let mut m = machine_with(&prog);
        assert_eq!(m.run(10), RunOutcome::Halted(0));
        assert_eq!(m.step(), StepResult::Halted(0));
        assert_eq!(m.exit_code(), Some(0));
    }

    /// A countdown loop hot enough (100 trips ≫ threshold) to be
    /// promoted into a tier-2 block.
    fn hot_countdown(trips: u32) -> Vec<Instr> {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: trips,
            },
            // TEXT + 6: the loop head, and the tier-2 block head.
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Instr::Sys(sys::EXIT),
        ]
    }

    #[test]
    fn tier2_fuel_accounting_is_exact_mid_block() {
        // Stop the run inside the hot loop, or let it finish: the
        // tiered machine must retire exactly `fuel` instructions and
        // park in the stepping machines' state, and resuming after the
        // pause converges to the same exit.
        for fuel in [1, 17, 50, 63, 64, 65, 200] {
            let mut machines = on_three_engines(&hot_countdown(100));
            run_alike(&mut machines, fuel);
            assert_eq!(run_alike(&mut machines, 100_000), RunOutcome::Halted(0));
        }
        let mut machines = on_three_engines(&hot_countdown(100));
        assert_eq!(run_alike(&mut machines, 100_000), RunOutcome::Halted(0));
        // And the tier actually engaged.
        let [tiered, fast, _] = &machines;
        let stats = tiered.stats();
        assert!(stats.tier2_compiled >= 1, "no block compiled");
        assert!(stats.tier2_hits >= 1, "no block entered");
        assert!(
            stats.tier2_instructions > stats.instructions / 2,
            "block retired too few: {} of {}",
            stats.tier2_instructions,
            stats.instructions
        );
        assert_eq!(fast.stats().tier2_hits, 0);
    }

    #[test]
    fn profiler_folded_identical_across_tiers() {
        // The profile is a pure function of retired instructions:
        // tier-2 block execution must produce byte-identical folded
        // output to plain stepping, while the tier stays engaged.
        let prog = hot_countdown(200);
        let run = |tier2: bool| {
            let prof = std::sync::Arc::new(crate::profile::Profiler::new(16));
            let mut m = machine_with(&prog);
            m.set_tier2(tier2);
            m.set_profiler(Some(prof.clone()));
            assert_eq!(m.run(100_000), RunOutcome::Halted(0));
            (prof.folded(&swsec_obs::SymbolTable::empty()), m.stats())
        };
        let (tiered, tiered_stats) = run(true);
        let (stepped, stepped_stats) = run(false);
        assert_eq!(tiered, stepped);
        assert!(!tiered.is_empty());
        assert!(
            tiered_stats.instructions / 16 > 10,
            "loop too short to sample"
        );
        // Profiling must not force tier 1: blocks still compile and
        // retire the bulk of the loop between sample points.
        assert!(
            tiered_stats.tier2_hits > 0,
            "tier 2 disengaged under profiling"
        );
        assert!(tiered_stats.tier2_instructions > 0);
        assert_eq!(stepped_stats.tier2_hits, 0);
    }

    #[test]
    fn profiler_fork_matches_rebuild() {
        // Snapshot-restore re-arms the sample countdown, so a forked
        // attempt's profile is byte-identical to a fresh rebuild's.
        let prog = hot_countdown(120);
        let folded_of = |m: &mut Machine| {
            let prof = std::sync::Arc::new(crate::profile::Profiler::new(32));
            m.set_profiler(Some(prof.clone()));
            assert_eq!(m.run(100_000), RunOutcome::Halted(0));
            m.set_profiler(None);
            prof.folded(&swsec_obs::SymbolTable::empty())
        };
        let rebuilt = folded_of(&mut machine_with(&prog));
        let mut forked = machine_with(&prog);
        forked.set_tier2(true);
        let snap = forked.snapshot();
        let first = folded_of(&mut forked);
        forked.restore_from(&snap);
        let second = folded_of(&mut forked);
        assert!(!rebuilt.is_empty());
        assert_eq!(rebuilt, first);
        assert_eq!(first, second);
    }

    #[test]
    fn profiler_interval_zero_never_samples() {
        let prog = hot_countdown(50);
        let prof = std::sync::Arc::new(crate::profile::Profiler::new(0));
        let mut m = machine_with(&prog);
        m.set_profiler(Some(prof.clone()));
        assert_eq!(m.run(100_000), RunOutcome::Halted(0));
        assert_eq!(prof.total_samples(), 0);
    }

    #[test]
    fn profiler_uses_shadow_stack_for_exact_frames() {
        // Layout: call(5) sys(2) -> f at TEXT+7; samples taken inside
        // f carry the return address into main as their root frame.
        let prog = vec![
            Instr::Call(TEXT + 7),
            Instr::Sys(sys::EXIT),
            Instr::MovI {
                dst: Reg::R0,
                imm: 7,
            },
            Instr::Ret,
        ];
        let prof = std::sync::Arc::new(crate::profile::Profiler::new(1));
        let mut m = machine_with(&prog);
        m.set_shadow_stack(true);
        m.set_profiler(Some(prof.clone()));
        assert_eq!(m.run(100), RunOutcome::Halted(7));
        let samples = prof.samples();
        assert!(
            samples
                .iter()
                .any(|(stack, _)| stack.as_slice() == [TEXT + 5, TEXT + 7]),
            "no sample rooted at the call site: {samples:?}"
        );
    }

    #[test]
    fn profiler_walks_bp_chain_without_shadow_stack() {
        // A conventional prologue links the frame chain; the sampler's
        // fallback walk recovers the caller's return address from
        // `[bp+4]` with the saved bp at `[bp]` terminating the scan.
        let f = TEXT + 7; // call(5) sys(2)
        let prog = vec![
            Instr::Call(f),
            Instr::Sys(sys::EXIT),
            // f: push bp; mov bp, sp; body; pop bp; ret
            Instr::Push(Reg::Bp),
            Instr::Mov {
                dst: Reg::Bp,
                src: Reg::Sp,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: 7,
            },
            Instr::Pop(Reg::Bp),
            Instr::Ret,
        ];
        let prof = std::sync::Arc::new(crate::profile::Profiler::new(1));
        let mut m = machine_with(&prog);
        m.set_reg(Reg::Bp, 0); // end-of-chain sentinel
        m.set_profiler(Some(prof.clone()));
        assert_eq!(m.run(100), RunOutcome::Halted(7));
        let samples = prof.samples();
        assert!(
            samples
                .iter()
                .any(|(stack, _)| stack.len() == 2 && stack[0] == TEXT + 5),
            "bp walk found no caller frame: {samples:?}"
        );
    }

    #[test]
    fn two_way_icache_keeps_low_bit_aliases_resident() {
        // 0x1000 and 0x1200 share their set index; with one way each
        // would evict the other on every trip. Two ways keep both
        // resident: two cold fills, hits forever after.
        let mut m = Machine::new();
        m.mem_mut().map(TEXT, 0x1000, Perm::RX).unwrap();
        let mut a = Vec::new();
        Instr::Jmp(TEXT + 0x200).encode(&mut a);
        let mut b = Vec::new();
        Instr::Jmp(TEXT).encode(&mut b);
        m.mem_mut().poke_bytes(TEXT, &a).unwrap();
        m.mem_mut().poke_bytes(TEXT + 0x200, &b).unwrap();
        m.set_tier2(false); // measure the icache, not the block cache
        m.set_ip(TEXT);
        assert_eq!(m.run(100), RunOutcome::OutOfFuel);
        let stats = m.stats();
        assert_eq!(stats.icache_misses, 2, "aliasing ips must coexist");
        assert_eq!(stats.icache_hits, 98);
    }

    /// A 40-trip loop writing one byte per trip: hot enough for tier 2
    /// to compile blocks, with observable output.
    fn hot_writer() -> Vec<Instr> {
        vec![
            Instr::MovI {
                dst: Reg::R3,
                imm: 40,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: 1,
            }, // TEXT+6, the loop head
            Instr::MovI {
                dst: Reg::R1,
                imm: STACK_TOP - 0x100,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 1,
            },
            Instr::Sys(sys::WRITE),
            Instr::AddI {
                dst: Reg::R3,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R3, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: TEXT + 6,
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R3,
            },
            Instr::Sys(sys::EXIT),
        ]
    }

    #[test]
    fn zeroed_icache_lines_are_empty() {
        // `empty_icache` reads a zero `Instr` as `Nop`: its tag byte is 0.
        let nop = Instr::Nop;
        // SAFETY: `Instr` is `#[repr(u8)]`, so its first byte is the tag.
        let tag = unsafe { *(&nop as *const Instr).cast::<u8>() };
        assert_eq!(tag, 0);
        assert_eq!(std::mem::size_of::<ICacheEntry>(), 48);
        let cache = empty_icache();
        assert_eq!(cache.len(), ICACHE_SLOTS);
        for e in cache.iter() {
            assert_eq!(
                (e.gen, e.ip, e.instr, e.straddles),
                (0, 0, Instr::Nop, false)
            );
        }
    }

    #[test]
    fn baseline_runs_allocate_no_decode_cache() {
        let cfg = crate::VmConfig {
            engine: crate::Engine::Baseline,
            sink: None,
        };
        let (m, _) = crate::context::scope(&cfg, None, || {
            let mut m = machine_with(&hot_writer());
            assert_eq!(m.run(10_000), RunOutcome::Halted(0));
            m
        });
        assert!(
            m.icache.is_empty(),
            "a baseline run allocated the decode cache"
        );
        assert!(m.tier.is_none(), "a baseline run built the tier-2 tables");
        // Switching a never-used cache's engine does not allocate it.
        let mut m = machine_with(&hot_writer());
        m.set_fast_path(false);
        m.set_fast_path(true);
        assert!(m.icache.is_empty());
    }

    #[test]
    fn fast_path_after_a_baseline_run_matches_a_fresh_fast_machine() {
        // The decode cache is allocated on the first fast-path fetch,
        // wherever that happens: a machine that ran on the baseline and
        // then switched must count exactly like one that started fast.
        let mut switched = machine_with(&hot_writer());
        switched.set_fast_path(false);
        switched.set_tier2(false);
        let snap = switched.snapshot();
        assert_eq!(switched.run(10_000), RunOutcome::Halted(0));
        assert!(switched.icache.is_empty());
        switched.restore_from(&snap);
        switched.set_fast_path(true);
        switched.set_tier2(true);
        let fresh = machine_with(&hot_writer());
        assert!(fresh.fast_path() && fresh.tier2());
        let mut machines = [switched, fresh];
        run_alike(&mut machines, 10_000);
        let [switched, fresh] = &machines;
        assert_eq!(fresh.io().output(1), [0u8; 40]);
        let (s, f) = (switched.stats(), fresh.stats());
        assert_eq!(
            (s.icache_hits, s.icache_misses),
            (f.icache_hits, f.icache_misses)
        );
        assert!(f.tier2_compiled > 0 && f.tier2_instructions > 0, "{f:?}");
    }
}
