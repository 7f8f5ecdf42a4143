//! Tier-2 execution: superinstruction blocks compiled from hot
//! straight-line regions.
//!
//! The tier-1 fast path (decoded-instruction cache + TLBs, see
//! [`cpu`](crate::cpu)) removes decode cost but still pays the full
//! fetch/dispatch ceremony on every instruction. This module adds a
//! second tier above it: when a control-transfer target proves hot
//! (executed [`HOT_THRESHOLD`] times), the straight-line region
//! starting there is fused into a **block** — a flat array of
//! [`MicroOp`]s, each a decoded instruction or a fused
//! compare-and-branch, that the CPU executes in a tight loop with the
//! per-instruction fetch, PMA test, sink test and trace test all
//! hoisted out. A block has no semantics of its own: each decoded
//! instruction runs through the CPU's executor core, the same code a
//! tier-1 step runs.
//!
//! Safety of the hoisting is generational, exactly like the icache:
//! a block records the memory's global code generation plus the write
//! generation of every page its encodings were decoded from, and is
//! executed only while all of them are unchanged. Any map/unmap,
//! permission or enforcement change bumps the global generation; any
//! byte write — self-modifying code, a loader poke, a snapshot
//! restore's copy-back — bumps the written page's generation. A store
//! executed *inside* a block re-checks the block's own pages and
//! side-exits before the next micro-op if the block patched itself,
//! so SMC is byte-for-byte identical to the interpreter.
//!
//! Syscalls, traps and `halt` terminate compilation and run through
//! the ordinary [`step`](crate::cpu::Machine::step) path, which keeps
//! syscall, blocking-read and halt handling out of the block loop.
//! Control transfers *are* included: `jmp` and conditional jumps
//! mid-block (a backward jump to the block's own head loops without
//! leaving the block at all — the tight-loop superinstruction), and
//! the indirect transfers `callr` and `jmpr` as block **terminators**,
//! which exit with the transfer pending after the core has done the
//! push, shadow-stack bookkeeping, call/ret counting and
//! [`ControlTransfer`](swsec_obs::SecurityEvent::ControlTransfer)
//! report.
//!
//! Static `call`s go further: compilation **links** the call — pushes
//! its return address on a compile-time call stack and continues
//! straight into the callee — and links the callee's matching `ret`
//! back to the call site, so a call-shaped loop body compiles into
//! one block. The linked return is a prediction, not an assumption:
//! the runtime op pops the actual return address and compares it to
//! the compile-time continuation, and a mismatch — a smashed return
//! address — exits the block with the attacker's target pending,
//! bit-for-bit what stepping does. A `call`/`ret` with no in-block
//! partner stays a terminator as above.
//!
//! Beyond decoding, compilation runs a peephole pass that fuses
//! the classic loop-closing sequences — `addi; cmpi; jcc`, `cmpi;
//! jcc`, `cmp; jcc` — into single **superinstruction** micro-ops, so
//! a counted loop retires three instructions per dispatch; a block
//! that is *nothing but* a ±1 counted self-loop is executed in closed
//! form (the remaining trip count is arithmetic — intermediate states
//! of a pure ALU self-loop are unobservable — with fuel accounting
//! kept exact). Each [`Op`] records how many architectural
//! instructions it retires (`n`), the address of its last constituent
//! (`last_ip`), and where execution continues when it completes
//! without exiting (`cont_ip`/`cont_kind`), which keeps fuel
//! accounting and `prev_ip`/`pending_transfer` reconstruction exact
//! on every exit path.
//!
//! Dynamic transfers no longer pay a full dispatch round trip either:
//! each `callr`/`jmpr`/unlinked-`ret` terminator carries a
//! **polymorphic inline cache** — up to [`IC_WAYS`] observed
//! `(target, block slot)` predictions ([`InlineCache`]). When the
//! block exits through such a terminator, the dispatcher probes the
//! cache with the actual runtime target (for `ret`, the popped —
//! and shadow-stack-verified — return address), and a hit chains
//! straight into the predicted successor block, skipping the block
//! lookup and hotness bookkeeping. The predicted block is still
//! validated against the global code generation and its per-page
//! write generations before running, so SMC, snapshot restores and
//! smashed pointers invalidate predictions exactly as they invalidate
//! blocks. A miss falls back to the ordinary lookup and promotes the
//! observed target (monomorphic → polymorphic); past [`IC_WAYS`]
//! distinct targets the cache goes megamorphic and the terminator
//! stops predicting.
//!
//! When a [`CoverageSink`](swsec_obs::CoverageSink) is attached
//! directly (see `Machine::set_coverage`), the executor core updates
//! the coverage map **in place** at calls, returns and indirect jumps
//! instead of constructing `ControlTransfer` events and dispatching
//! through the sink trait; in a block, a static call bumps the slot
//! compilation pre-resolved for its edge ([`Op::cov_slot`]). The
//! resulting map is byte-identical to the event path — same slots,
//! same counts — so coverage-guided fuzzing keeps its fingerprints
//! while running tier-2 engaged.
//!
//! Machines with a PMA policy installed, tracing on, or a sink
//! interested in per-step events never enter tier 2 (the per-step
//! checks those require are exactly what the tier hoists away); they
//! run tier 1, which is bit-for-bit equivalent.

use crate::cpu::decode_at;
use crate::isa::{Cond, Instr, Reg};
use crate::mem::Memory;
use crate::policy::TransferKind;
use swsec_obs::coverage::edge_slot;
use swsec_obs::ControlKind;

/// Number of direct-mapped block-cache slots per machine.
pub const BLOCK_SLOTS: usize = 512;

/// Number of hotness-counter sets for transfer targets.
pub const HOT_SLOTS: usize = 512;

/// Ways per hotness set. Two targets whose addresses alias the same
/// set each keep their own counter instead of resetting each other —
/// a direct-mapped table starves both sides of a ping-pong pair (A
/// claims, B claims, neither ever reaches the threshold).
pub const HOT_WAYS: usize = 2;

/// Ways per inline cache: distinct dynamic-transfer targets a
/// `callr`/`jmpr`/`ret` terminator predicts before going megamorphic.
pub const IC_WAYS: usize = 4;

/// `Op::ic` value for ops that carry no inline cache.
pub(crate) const IC_NONE: u16 = u16::MAX;

/// Control transfers to an address before the region starting there
/// is compiled into a block. Low enough that short campaign victims
/// (a few dozen loop trips) get promoted, high enough that one-shot
/// straight-line code never pays a compile.
pub const HOT_THRESHOLD: u32 = 16;

/// Maximum micro-ops fused into one block.
pub const MAX_BLOCK_OPS: usize = 64;

/// Maximum distinct pages a block's encodings may span. A block is at
/// most `MAX_BLOCK_OPS * MAX_INSTR_LEN` = 384 bytes, so two pages
/// always suffice; compilation stops early rather than track more.
pub const MAX_BLOCK_PAGES: usize = 2;

/// One block micro-op: a decoded instruction, which the CPU's executor
/// core runs exactly as tier 1 does, or one of three superinstructions
/// fused from a compare-and-branch idiom.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    Instr(Instr),
    /// Superinstruction: `addi dst, add_imm; cmpi a, cmp_imm;
    /// jcc cond, target` — the counted-loop step, three instructions
    /// in one dispatch.
    FusedLoopI {
        dst: Reg,
        add_imm: u32,
        a: Reg,
        cmp_imm: u32,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: `cmpi a, imm; jcc cond, target`.
    FusedCmpIJ {
        a: Reg,
        imm: u32,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: `cmp a, b; jcc cond, target`.
    FusedCmpJ {
        a: Reg,
        b: Reg,
        cond: Cond,
        target: u32,
    },
}

/// Whether executing `instr` can write memory — after such an op the
/// block re-validates its own code pages (SMC side exit). An unlinked
/// `call`/`callr` pushes but ends the block, so nothing decoded from
/// the block runs after it anyway.
fn writes_memory(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Store { .. }
            | Instr::StoreB { .. }
            | Instr::Push(_)
            | Instr::PushI(_)
            | Instr::Enter(_)
            | Instr::Call(_)
            | Instr::CallR(_)
    )
}

/// Whether `instr` ends its block unconditionally (the transfer kinds
/// whose successor is not the next sequential instruction).
fn terminal(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Jmp(_) | Instr::Call(_) | Instr::CallR(_) | Instr::Ret | Instr::JmpR(_)
    )
}

/// One micro-op plus the addresses the equivalent tier-1 steps would
/// have seen: `ip` is where the (first fused) instruction lives
/// (fault payloads and stall exits), `last_ip` the last constituent
/// instruction (`prev_ip` reconstruction for the *following* op),
/// `next_ip` the sequential successor of the whole op, and `n` how
/// many architectural instructions the op retires (fuel accounting).
///
/// `cont_ip`/`cont_kind` describe where execution continues when the
/// op completes without exiting the block: for ordinary ops that is
/// `(next_ip, Sequential)`; for a **linked call** — a static `call`
/// that compilation followed into the callee — it is `(target, Call)`,
/// and the following op in the block lives at the callee's entry. Any
/// exit *between* ops (SMC side exit, stall, fault in the next op)
/// restores `(prev_ip, pending_transfer)` from these fields, so the
/// machine is indistinguishable from one that stepped the transfer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub ip: u32,
    pub last_ip: u32,
    pub next_ip: u32,
    pub cont_ip: u32,
    pub cont_kind: TransferKind,
    pub n: u8,
    /// Whether the op can write memory (see [`writes_memory`]); fused
    /// ops never do.
    pub writes: bool,
    /// Index into the block's [`InlineCache`] table for dynamic
    /// transfer terminators (`callr`, `jmpr`, unlinked `ret`);
    /// [`IC_NONE`] for every other op.
    pub ic: u16,
    /// Pre-resolved coverage-map slot of this op's control-transfer
    /// edge, for ops whose edge is known at compile time (static
    /// `call`): with a coverage sink attached the block bumps this
    /// slot directly instead of constructing the event. Zero (unused)
    /// for every other op.
    pub cov_slot: u16,
    pub kind: MicroOp,
}

impl Op {
    /// Whether this is a linked call: control falls through into the
    /// next op (the callee's first instruction) instead of exiting.
    #[inline]
    pub(crate) fn linked(&self) -> bool {
        self.cont_kind != TransferKind::Sequential
    }
}

/// One inline-cache entry: a predicted dynamic-transfer target and
/// the block-cache slot serving it when the prediction was installed.
#[derive(Debug, Clone, Copy, Default)]
struct IcEntry {
    target: u32,
    slot: u32,
}

/// A polymorphic inline cache attached to a dynamic-transfer
/// terminator (`callr`/`jmpr`/unlinked `ret`): up to [`IC_WAYS`]
/// observed `(target, block slot)` predictions. A hit lets the
/// dispatcher chain straight into the successor block without the
/// index-mix/tag lookup and hotness bookkeeping; the predicted block
/// is still re-validated against the code generation and per-page
/// write generations before it runs, and — for `ret` — the probe key
/// is the runtime-verified popped return address, so a stale or
/// attacker-redirected prediction can never execute stale code.
/// More than [`IC_WAYS`] distinct targets flips the cache megamorphic:
/// the terminator gives up on prediction and stays terminal.
#[derive(Debug, Clone, Default)]
pub(crate) struct InlineCache {
    entries: [IcEntry; IC_WAYS],
    len: u8,
    mega: bool,
}

/// Outcome of probing an inline cache with an observed target.
pub(crate) enum IcProbe {
    /// Predicted block-cache slot, proven to hold a block starting at
    /// the probed target (validation against generations still
    /// pending).
    Hit(usize),
    /// No usable prediction: fall back to the full lookup, then
    /// promote the observed target.
    Miss,
    /// The terminator saw more than [`IC_WAYS`] distinct targets;
    /// neither probe nor promote — it stays terminal.
    Mega,
}

/// Outcome of promoting an observed target into an inline cache.
pub(crate) enum IcPromotion {
    /// The target was installed (or its stale slot refreshed).
    Installed,
    /// The cache was full of other targets and flipped megamorphic.
    Megamorphic,
    /// The owning block is gone (evicted between exit and promote).
    Skipped,
}

/// A compiled superinstruction block: straight-line micro-ops starting
/// at `start_ip`, valid while the recorded generations stand.
#[derive(Debug)]
pub(crate) struct Block {
    pub start_ip: u32,
    /// Global code generation at compile time; a match proves the
    /// layout, fetch permissions and slot indices below are current.
    pub gen: u64,
    /// `(slot, write_generation)` of each page the encodings occupy.
    pub pages: [(u32, u64); MAX_BLOCK_PAGES],
    pub npages: u8,
    pub ops: Vec<Op>,
    /// Inline caches of this block's dynamic-transfer terminators,
    /// indexed by [`Op::ic`].
    pub ics: Vec<InlineCache>,
}

impl Block {
    /// Whether every page this block was compiled from is unchanged.
    /// The caller must have checked the global generation first — a
    /// stale global generation means the slot indices cannot be
    /// trusted.
    #[inline]
    pub(crate) fn pages_valid(&self, mem: &Memory) -> bool {
        mem.page_gens_valid(&self.pages[..usize::from(self.npages)])
    }
}

/// One hotness counter: transfers seen to `ip` since the way was
/// last claimed. `count == 0` marks an empty way.
#[derive(Debug, Clone, Copy)]
struct HotSlot {
    ip: u32,
    count: u32,
}

/// The per-machine tier-2 state: the block cache and the hotness
/// table. Allocated on the first eligible control transfer, so a
/// machine with tier 2 off pays nothing, and one that makes any
/// eligible transfer pays for the two tables (4 KB of block pointers,
/// 8 KB of hotness counters) even if nothing ever turns hot. A block's
/// own storage exists only once it is compiled.
#[derive(Debug)]
pub(crate) struct TierEngine {
    blocks: Box<[Option<Box<Block>>]>,
    hot: Box<[[HotSlot; HOT_WAYS]]>,
}

/// Mixes high address bits into a table index so regions that share
/// low bits (e.g. code at 0x1000 and a module at 0x0040_0000) do not
/// collide systematically.
#[inline]
fn mix(ip: u32) -> usize {
    (ip ^ (ip >> 9) ^ (ip >> 18)) as usize
}

impl TierEngine {
    /// Empty tables, each from one zeroed allocation rather than a loop
    /// writing each entry.
    pub(crate) fn new() -> TierEngine {
        // SAFETY: all-zero bytes are `None` for an `Option<Box<_>>` (the
        // null-pointer optimisation guarantees it) and an empty way for
        // a `HotSlot`, which holds two integers (`count == 0` is empty).
        unsafe {
            TierEngine {
                blocks: Box::new_zeroed_slice(BLOCK_SLOTS).assume_init(),
                hot: Box::new_zeroed_slice(HOT_SLOTS).assume_init(),
            }
        }
    }

    #[inline]
    fn block_slot(ip: u32) -> usize {
        mix(ip) & (BLOCK_SLOTS - 1)
    }

    /// The table slot of the block starting at `ip`, if one exists, so
    /// the dispatcher can re-borrow the block with a plain index (see
    /// [`block`](TierEngine::block)) instead of paying the index-mix
    /// and tag compare twice per chain entry.
    #[inline]
    pub(crate) fn lookup_slot(&self, ip: u32) -> Option<usize> {
        let slot = Self::block_slot(ip);
        match &self.blocks[slot] {
            Some(b) if b.start_ip == ip => Some(slot),
            _ => None,
        }
    }

    /// The block in `slot`, which [`lookup_slot`](TierEngine::lookup_slot)
    /// proved occupied.
    #[inline]
    pub(crate) fn block(&self, slot: usize) -> &Block {
        self.blocks[slot].as_ref().expect("slot holds a block")
    }

    /// Drops the block starting at `ip` (it failed validation) and
    /// resets its hotness so recompilation waits for the region to
    /// prove hot again — hysteresis against SMC recompile storms.
    pub(crate) fn invalidate(&mut self, ip: u32) {
        let slot = Self::block_slot(ip);
        if self.blocks[slot].as_ref().is_some_and(|b| b.start_ip == ip) {
            self.blocks[slot] = None;
        }
        self.reset_hot(ip);
    }

    /// Counts one transfer to `ip`; returns `true` when the target has
    /// crossed the promotion threshold. The table is set-associative
    /// ([`HOT_WAYS`] ways per set, full `ip` stored and verified), so
    /// two targets aliasing one set accumulate heat independently; a
    /// genuine third claimant displaces the coldest way.
    #[inline]
    pub(crate) fn note_hot(&mut self, ip: u32) -> bool {
        let set = &mut self.hot[mix(ip) & (HOT_SLOTS - 1)];
        for way in set.iter_mut() {
            if way.count > 0 && way.ip == ip {
                way.count += 1;
                return way.count >= HOT_THRESHOLD;
            }
        }
        let victim = set
            .iter_mut()
            .min_by_key(|way| way.count)
            .expect("set has ways");
        *victim = HotSlot { ip, count: 1 };
        false
    }

    /// Resets the hotness counter for `ip` (after an invalidation or a
    /// failed compile).
    pub(crate) fn reset_hot(&mut self, ip: u32) {
        let set = &mut self.hot[mix(ip) & (HOT_SLOTS - 1)];
        for way in set.iter_mut() {
            if way.count > 0 && way.ip == ip {
                way.count = 0;
            }
        }
    }

    /// Probes the inline cache `ic` of the block in `from_slot`
    /// (starting at `from_ip`) with the observed transfer target.
    /// A hit guarantees the returned slot currently holds a block
    /// starting at `target`; the dispatcher still validates that block
    /// against the code generation and its per-page write generations
    /// before running it.
    #[inline]
    pub(crate) fn ic_probe(&self, from_slot: usize, from_ip: u32, ic: u16, target: u32) -> IcProbe {
        let Some(from) = self.blocks[from_slot].as_ref() else {
            return IcProbe::Miss;
        };
        if from.start_ip != from_ip {
            return IcProbe::Miss;
        }
        let Some(cache) = from.ics.get(usize::from(ic)) else {
            return IcProbe::Miss;
        };
        if cache.mega {
            return IcProbe::Mega;
        }
        for entry in &cache.entries[..usize::from(cache.len)] {
            if entry.target == target {
                let pred = entry.slot as usize;
                // The predicted slot may have been evicted or reused
                // for a different region since the entry was
                // installed; only a live block with the right start
                // address counts as a hit.
                if self.blocks[pred]
                    .as_ref()
                    .is_some_and(|b| b.start_ip == target)
                {
                    return IcProbe::Hit(pred);
                }
                return IcProbe::Miss;
            }
        }
        IcProbe::Miss
    }

    /// Installs the observed `(target, succ_slot)` prediction into the
    /// inline cache a probe just missed: an existing entry for the
    /// target has its slot refreshed, a free way is claimed, and a
    /// full cache flips megamorphic (monomorphic → polymorphic →
    /// megamorphic, never back).
    pub(crate) fn ic_promote(
        &mut self,
        from_slot: usize,
        from_ip: u32,
        ic: u16,
        target: u32,
        succ_slot: usize,
    ) -> IcPromotion {
        let Some(from) = self.blocks[from_slot].as_mut() else {
            return IcPromotion::Skipped;
        };
        if from.start_ip != from_ip {
            // Compiling the successor evicted the exiting block from
            // its slot (a direct-mapped collision): nothing to update.
            return IcPromotion::Skipped;
        }
        let Some(cache) = from.ics.get_mut(usize::from(ic)) else {
            return IcPromotion::Skipped;
        };
        if cache.mega {
            return IcPromotion::Skipped;
        }
        let len = usize::from(cache.len);
        for entry in cache.entries[..len].iter_mut() {
            if entry.target == target {
                entry.slot = succ_slot as u32;
                return IcPromotion::Installed;
            }
        }
        if len < IC_WAYS {
            cache.entries[len] = IcEntry {
                target,
                slot: succ_slot as u32,
            };
            cache.len += 1;
            IcPromotion::Installed
        } else {
            cache.mega = true;
            IcPromotion::Megamorphic
        }
    }

    /// Compiles the region at `ip` and installs it, evicting any
    /// colliding block. Returns whether a block was produced.
    pub(crate) fn compile_into(&mut self, mem: &Memory, ip: u32) -> bool {
        match compile(mem, ip) {
            Some(block) => {
                self.blocks[Self::block_slot(ip)] = Some(Box::new(block));
                true
            }
            None => {
                self.reset_hot(ip);
                false
            }
        }
    }
}

/// The peephole pass: collapses the loop-closing compare-and-branch
/// idioms into single superinstruction micro-ops. Only fault-free
/// constituents (register ALU, flag set, direct branch) are fused, so
/// a fused op never needs a mid-superinstruction fault state.
fn fuse(ops: Vec<Op>) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len());
    let mut j = 0;
    while j < ops.len() {
        if j + 2 < ops.len() {
            if let (
                MicroOp::Instr(Instr::AddI { dst, imm: add_imm }),
                MicroOp::Instr(Instr::CmpI { a, imm: cmp_imm }),
                MicroOp::Instr(Instr::JCond { cond, target }),
            ) = (ops[j].kind, ops[j + 1].kind, ops[j + 2].kind)
            {
                out.push(Op {
                    ip: ops[j].ip,
                    last_ip: ops[j + 2].ip,
                    next_ip: ops[j + 2].next_ip,
                    cont_ip: ops[j + 2].cont_ip,
                    cont_kind: ops[j + 2].cont_kind,
                    n: 3,
                    writes: false,
                    ic: IC_NONE,
                    cov_slot: 0,
                    kind: MicroOp::FusedLoopI {
                        dst,
                        add_imm,
                        a,
                        cmp_imm,
                        cond,
                        target,
                    },
                });
                j += 3;
                continue;
            }
        }
        if j + 1 < ops.len() {
            let pair = match (ops[j].kind, ops[j + 1].kind) {
                (
                    MicroOp::Instr(Instr::CmpI { a, imm }),
                    MicroOp::Instr(Instr::JCond { cond, target }),
                ) => Some(MicroOp::FusedCmpIJ {
                    a,
                    imm,
                    cond,
                    target,
                }),
                (
                    MicroOp::Instr(Instr::Cmp { a, b }),
                    MicroOp::Instr(Instr::JCond { cond, target }),
                ) => Some(MicroOp::FusedCmpJ { a, b, cond, target }),
                _ => None,
            };
            if let Some(kind) = pair {
                out.push(Op {
                    ip: ops[j].ip,
                    last_ip: ops[j + 1].ip,
                    next_ip: ops[j + 1].next_ip,
                    cont_ip: ops[j + 1].cont_ip,
                    cont_kind: ops[j + 1].cont_kind,
                    n: 2,
                    writes: false,
                    ic: IC_NONE,
                    cov_slot: 0,
                    kind,
                });
                j += 2;
                continue;
            }
        }
        out.push(ops[j]);
        j += 1;
    }
    out
}

/// Compiles the straight-line region starting at `start_ip` into a
/// block, or `None` when the very first instruction already cannot
/// join one (the hot target is a syscall/trap/halt or undecodable).
///
/// A static `call` does not end the block: its successor is known at
/// compile time, so compilation **links** it — marks the op as
/// falling through (`cont_ip` = target, `cont_kind` = `Call`) and
/// continues decoding at the callee's entry, inlining the callee body
/// into the block. The op still runs the full call (push, shadow
/// stack, counters, event); only the round trip through the dispatcher
/// is saved. `ret`, `callr` and `jmpr` have dynamic
/// successors and stay terminal; `jmp` stays terminal too (a backward
/// jump to the block head becomes the in-block loop instead).
///
/// Compilation otherwise stops after a terminal transfer, at a
/// syscall, trap or halt, at [`MAX_BLOCK_OPS`], at the third
/// page, or at bytes that do not currently decode — the block simply
/// ends early and execution side-exits to tier 1 there. A final
/// peephole pass ([`fuse`]) then collapses compare-and-branch idioms
/// into superinstructions.
pub(crate) fn compile(mem: &Memory, start_ip: u32) -> Option<Block> {
    let gen = mem.code_generation();
    let mut pages: [(u32, u64); MAX_BLOCK_PAGES] = [(0, 0); MAX_BLOCK_PAGES];
    let mut npages = 0usize;
    let mut ops: Vec<Op> = Vec::new();
    let mut nics = 0usize;
    // Return addresses of linked calls whose matching `Ret` has not
    // been reached yet (compile-time call stack, innermost last).
    let mut call_rets: Vec<u32> = Vec::new();
    let mut ip = start_ip;
    while ops.len() < MAX_BLOCK_OPS {
        // Syscalls, traps and halt run through `step`; bytes that do
        // not decode end the region too.
        let Ok((instr, len)) = decode_at(mem, ip) else {
            break;
        };
        if matches!(instr, Instr::Halt | Instr::Sys(_) | Instr::Trap(_)) {
            break;
        }
        // Record the page(s) this encoding occupies; give up on the
        // region (ending the block) rather than track a third page.
        let last = ip.wrapping_add(len as u32 - 1);
        let mut fits = true;
        for addr in [ip, last] {
            let Ok(page) = mem.fetch_page(addr) else {
                fits = false;
                break;
            };
            if pages[..npages].contains(&page) {
                continue;
            }
            if npages == MAX_BLOCK_PAGES {
                fits = false;
                break;
            }
            pages[npages] = page;
            npages += 1;
        }
        if !fits {
            break;
        }
        let next_ip = ip.wrapping_add(len as u32);
        let (cont_ip, cont_kind) = match instr {
            // Link the static call: execution continues at the callee.
            Instr::Call(target) if ops.len() + 1 < MAX_BLOCK_OPS => {
                call_rets.push(next_ip);
                (target, TransferKind::Call)
            }
            // Link the return matching an in-block call: it continues
            // at that call's return site. This is a *prediction*, not
            // an assumption — the runtime op compares the popped
            // target against it and side-exits on mismatch, so a
            // smashed return address behaves exactly as stepped code.
            Instr::Ret if ops.len() + 1 < MAX_BLOCK_OPS && !call_rets.is_empty() => {
                (call_rets.pop().expect("non-empty"), TransferKind::Ret)
            }
            _ => (next_ip, TransferKind::Sequential),
        };
        // Dynamic-transfer terminators get an inline cache; a linked
        // `ret` does not (its mismatch path — a smashed return
        // address — must stay an unpredicted terminal exit).
        let dynamic = matches!(instr, Instr::CallR(_) | Instr::JmpR(_))
            || (instr == Instr::Ret && cont_kind == TransferKind::Sequential);
        let ic = if dynamic {
            nics += 1;
            (nics - 1) as u16
        } else {
            IC_NONE
        };
        // A static call's edge is fully known here: pre-resolve its
        // coverage-map slot so an attached sink can be bumped without
        // constructing the event.
        let cov_slot = match instr {
            Instr::Call(target) => edge_slot(ControlKind::Call as u8, ip, target) as u16,
            _ => 0,
        };
        ops.push(Op {
            ip,
            last_ip: ip,
            next_ip,
            cont_ip,
            cont_kind,
            n: 1,
            writes: writes_memory(instr),
            ic,
            cov_slot,
            kind: MicroOp::Instr(instr),
        });
        if terminal(instr) && cont_kind == TransferKind::Sequential {
            break;
        }
        ip = cont_ip;
    }
    // A linked call must have a follower inside the block (the exits
    // between ops continue at `cont_ip`, but a *natural end* exits at
    // the last op's own continuation, which the dispatcher would then
    // re-enter — unlink instead and let the call exit like a terminal).
    if let Some(last) = ops.last_mut() {
        if last.linked() {
            last.cont_ip = last.next_ip;
            last.cont_kind = TransferKind::Sequential;
        }
    }
    if ops.is_empty() {
        return None;
    }
    Some(Block {
        start_ip,
        gen,
        pages,
        npages: npages as u8,
        ops: fuse(ops),
        ics: vec![InlineCache::default(); nics],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;
    use crate::mem::{Access, Perm};

    fn assemble(instrs: &[Instr]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in instrs {
            i.encode(&mut out);
        }
        out
    }

    fn mem_with(base: u32, instrs: &[Instr]) -> Memory {
        let mut mem = Memory::new();
        mem.map(base, 0x2000, Perm::RX).unwrap();
        mem.poke_bytes(base, &assemble(instrs)).unwrap();
        mem
    }

    #[test]
    fn fresh_tables_are_empty() {
        let mut t = TierEngine::new();
        assert_eq!((t.blocks.len(), t.hot.len()), (BLOCK_SLOTS, HOT_SLOTS));
        assert!(t.blocks.iter().all(Option::is_none));
        assert!(t.hot.iter().flatten().all(|way| way.count == 0));
        assert_eq!(t.lookup_slot(0), None);
        // An empty way holding ip 0 must not count toward ip 0's heat.
        assert!((1..HOT_THRESHOLD).all(|_| !t.note_hot(0)));
        assert!(t.note_hot(0));
    }

    #[test]
    fn compile_links_a_static_call_into_the_callee() {
        let mut mem = mem_with(
            0x1000,
            &[
                Instr::AddI {
                    dst: Reg::R0,
                    imm: 1,
                },
                Instr::CmpI {
                    a: Reg::R0,
                    imm: 10,
                },
                Instr::Call(0x2000),
                Instr::Nop, // reached only after the callee returns
                Instr::Ret, // top-level: no in-block call to link to
            ],
        );
        mem.poke_bytes(
            0x2000,
            &assemble(&[
                Instr::MovI {
                    dst: Reg::R1,
                    imm: 7,
                },
                Instr::Ret,
            ]),
        )
        .unwrap();
        let block = compile(&mem, 0x1000).expect("block");
        // addi, cmpi, linked call, the callee inline, then the linked
        // return continues at the call's return site.
        assert_eq!(block.ops.len(), 7);
        assert_eq!(block.ops[0].ip, 0x1000);
        let call = block.ops[2];
        assert!(matches!(call.kind, MicroOp::Instr(Instr::Call(0x2000))));
        assert!(call.linked());
        assert_eq!(call.cont_ip, 0x2000);
        assert_eq!(call.cont_kind, TransferKind::Call);
        // The call's next_ip is still the pre-resolved return address.
        assert_eq!(call.next_ip, 0x1000 + 12 + 5);
        assert_eq!(block.ops[3].ip, 0x2000);
        // The callee's return links back to the call's return site...
        let ret = block.ops[4];
        assert!(matches!(ret.kind, MicroOp::Instr(Instr::Ret)));
        assert!(ret.linked());
        assert_eq!(ret.cont_ip, call.next_ip);
        assert_eq!(ret.cont_kind, TransferKind::Ret);
        // ...where compilation resumed.
        assert_eq!(block.ops[5].ip, call.next_ip);
        assert!(matches!(block.ops[5].kind, MicroOp::Instr(Instr::Nop)));
        // A return with no matching in-block call stays terminal.
        let top = block.ops[6];
        assert!(matches!(top.kind, MicroOp::Instr(Instr::Ret)));
        assert!(!top.linked());
        assert_eq!(usize::from(block.npages), 2);
    }

    #[test]
    fn compile_unlinks_a_call_whose_target_cannot_follow() {
        // The call target is unmapped, so the callee cannot be inlined:
        // the call must fall back to a terminal block exit.
        let mem = mem_with(
            0x1000,
            &[
                Instr::AddI {
                    dst: Reg::R0,
                    imm: 1,
                },
                Instr::CmpI {
                    a: Reg::R0,
                    imm: 10,
                },
                Instr::Call(0x9000),
                Instr::Nop, // never reached by the block
            ],
        );
        let block = compile(&mem, 0x1000).expect("block");
        assert_eq!(block.ops.len(), 3);
        let call = block.ops[2];
        assert!(matches!(call.kind, MicroOp::Instr(Instr::Call(0x9000))));
        assert!(!call.linked());
        assert_eq!(call.cont_ip, call.next_ip);
        assert_eq!(usize::from(block.npages), 1);
    }

    #[test]
    fn fusion_collapses_the_loop_closing_triple() {
        let mem = mem_with(
            0x1000,
            &[
                Instr::AddI {
                    dst: Reg::R0,
                    imm: (-1i32) as u32,
                },
                Instr::CmpI { a: Reg::R0, imm: 0 },
                Instr::JCond {
                    cond: Cond::Nz,
                    target: 0x1000,
                },
                Instr::Sys(isa::sys::EXIT), // ends the block
            ],
        );
        let block = compile(&mem, 0x1000).expect("block");
        assert_eq!(block.ops.len(), 1);
        let op = block.ops[0];
        assert!(matches!(
            op.kind,
            MicroOp::FusedLoopI {
                dst: Reg::R0,
                a: Reg::R0,
                cond: Cond::Nz,
                target: 0x1000,
                ..
            }
        ));
        assert_eq!(op.n, 3);
        assert_eq!(op.ip, 0x1000);
        assert_eq!(op.last_ip, 0x1000 + 12); // the jcc
        assert_eq!(op.next_ip, 0x1000 + 12 + 5); // past the jcc
    }

    #[test]
    fn fusion_collapses_compare_and_branch_pairs() {
        let mem = mem_with(
            0x1000,
            &[
                Instr::CmpI { a: Reg::R1, imm: 7 },
                Instr::JCond {
                    cond: Cond::Z,
                    target: 0x1800,
                },
                Instr::Cmp {
                    a: Reg::R1,
                    b: Reg::R2,
                },
                Instr::JCond {
                    cond: Cond::Lt,
                    target: 0x1900,
                },
                Instr::Sys(isa::sys::EXIT),
            ],
        );
        let block = compile(&mem, 0x1000).expect("block");
        assert_eq!(block.ops.len(), 2);
        assert!(matches!(
            block.ops[0].kind,
            MicroOp::FusedCmpIJ {
                a: Reg::R1,
                imm: 7,
                ..
            }
        ));
        assert_eq!(block.ops[0].n, 2);
        assert!(matches!(
            block.ops[1].kind,
            MicroOp::FusedCmpJ {
                a: Reg::R1,
                b: Reg::R2,
                ..
            }
        ));
        assert_eq!(block.ops[1].n, 2);
    }

    #[test]
    fn compile_includes_terminal_jmp_and_conditional() {
        let mem = mem_with(
            0x1000,
            &[
                Instr::AddI {
                    dst: Reg::R0,
                    imm: 1,
                },
                Instr::JCond {
                    cond: Cond::Nz,
                    target: 0x1000,
                },
                Instr::Jmp(0x1000),
            ],
        );
        let block = compile(&mem, 0x1000).expect("block");
        // The conditional does not end the block; the jmp does.
        assert_eq!(block.ops.len(), 3);
        assert!(matches!(
            block.ops[2].kind,
            MicroOp::Instr(Instr::Jmp(0x1000))
        ));
    }

    #[test]
    fn compile_refuses_unfusible_leaders() {
        let mem = mem_with(0x1000, &[Instr::Halt]);
        assert!(compile(&mem, 0x1000).is_none());
        let mem = mem_with(0x1000, &[Instr::Sys(isa::sys::EXIT)]);
        assert!(compile(&mem, 0x1000).is_none());
        // Unmapped address: nothing to compile.
        assert!(compile(&Memory::new(), 0x1000).is_none());
        // A `ret` leader, by contrast, is a valid one-op block.
        let mem = mem_with(0x1000, &[Instr::Ret]);
        let block = compile(&mem, 0x1000).expect("ret block");
        assert_eq!(block.ops.len(), 1);
        assert!(matches!(block.ops[0].kind, MicroOp::Instr(Instr::Ret)));
    }

    #[test]
    fn blocks_validate_against_page_generations() {
        let mut mem = Memory::new();
        mem.map(0x1000, 0x1000, Perm::RWX).unwrap();
        mem.poke_bytes(0x1000, &assemble(&[Instr::Nop, Instr::Nop]))
            .unwrap();
        let block = compile(&mem, 0x1000).expect("block");
        assert!(block.gen == mem.code_generation() && block.pages_valid(&mem));
        // A write to the page bumps its generation: stale.
        mem.write_u8(0x1800, 0x5a, Access::Write).unwrap();
        assert!(!block.pages_valid(&mem));
    }

    #[test]
    fn hotness_promotes_at_threshold_and_resets() {
        let mut engine = TierEngine::new();
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(!engine.note_hot(0x1000));
        }
        assert!(engine.note_hot(0x1000));
        engine.reset_hot(0x1000);
        assert!(!engine.note_hot(0x1000));
    }

    /// Two targets that deliberately index the same hotness set.
    fn aliasing_pair() -> (u32, u32) {
        let a = 0x1000u32;
        let set = mix(a) & (HOT_SLOTS - 1);
        let b = (a + 1..)
            .find(|&b| mix(b) & (HOT_SLOTS - 1) == set)
            .expect("an alias exists");
        (a, b)
    }

    #[test]
    fn aliasing_hot_targets_promote_independently() {
        // Regression: a direct-mapped table let two targets that alias
        // one entry alternately claim it from each other, so a
        // ping-pong pair (dispatcher + handler, caller + callee) never
        // accumulated HOT_THRESHOLD and neither ever compiled. Each
        // way now stores and verifies the full ip.
        let (a, b) = aliasing_pair();
        let mut engine = TierEngine::new();
        let (mut hot_a, mut hot_b) = (false, false);
        for _ in 0..HOT_THRESHOLD {
            hot_a |= engine.note_hot(a);
            hot_b |= engine.note_hot(b);
        }
        assert!(hot_a, "aliased target a starved of its counter");
        assert!(hot_b, "aliased target b starved of its counter");
    }

    #[test]
    fn third_claimant_displaces_the_coldest_way_only() {
        let (a, b) = aliasing_pair();
        let set = mix(a) & (HOT_SLOTS - 1);
        let c = (b + 1..)
            .find(|&c| mix(c) & (HOT_SLOTS - 1) == set)
            .expect("a third alias exists");
        let mut engine = TierEngine::new();
        for _ in 0..5 {
            engine.note_hot(a);
        }
        for _ in 0..3 {
            engine.note_hot(b);
        }
        // c displaces b (the colder way); a's heat survives and still
        // reaches the threshold on schedule.
        assert!(!engine.note_hot(c));
        for _ in 0..HOT_THRESHOLD - 5 - 1 {
            assert!(!engine.note_hot(a));
        }
        assert!(engine.note_hot(a));
    }

    #[test]
    fn compile_assigns_inline_caches_to_dynamic_terminators() {
        for (instrs, want_ops) in [
            (vec![Instr::Nop, Instr::CallR(Reg::R1)], 2),
            (vec![Instr::Nop, Instr::JmpR(Reg::R2)], 2),
            (vec![Instr::Nop, Instr::Ret], 2),
        ] {
            let mem = mem_with(0x1000, &instrs);
            let block = compile(&mem, 0x1000).expect("block");
            assert_eq!(block.ops.len(), want_ops);
            assert_eq!(block.ics.len(), 1, "one dynamic terminator, one cache");
            assert_eq!(block.ops[0].ic, IC_NONE);
            assert_eq!(block.ops[1].ic, 0);
        }
    }

    #[test]
    fn linked_calls_and_returns_carry_no_inline_cache() {
        let mut mem = mem_with(
            0x1000,
            &[Instr::Call(0x2000), Instr::Ret], // top-level ret: unlinked
        );
        mem.poke_bytes(0x2000, &assemble(&[Instr::Ret])).unwrap();
        let block = compile(&mem, 0x1000).expect("block");
        // linked call, linked ret, top-level (unlinked) ret.
        assert_eq!(block.ops.len(), 3);
        assert!(block.ops[0].linked());
        assert_eq!(block.ops[0].ic, IC_NONE, "linked call predicts statically");
        assert!(block.ops[1].linked());
        assert_eq!(
            block.ops[1].ic, IC_NONE,
            "linked ret's mismatch path stays unpredicted"
        );
        assert!(!block.ops[2].linked());
        assert_eq!(block.ops[2].ic, 0);
        assert_eq!(block.ics.len(), 1);
        // The static call's coverage slot is pre-resolved to exactly
        // the slot the event path would hash to.
        assert_eq!(
            usize::from(block.ops[0].cov_slot),
            edge_slot(ControlKind::Call as u8, 0x1000, 0x2000)
        );
    }

    #[test]
    fn ic_promotes_hits_and_goes_megamorphic() {
        let mut mem = Memory::new();
        mem.map(0x1000, 0x8000, Perm::RX).unwrap();
        // Dispatcher block: a bare jmpr (ic 0).
        mem.poke_bytes(0x1000, &assemble(&[Instr::JmpR(Reg::R0)]))
            .unwrap();
        // Six distinct targets, each its own one-op block.
        let targets: Vec<u32> = (0..6).map(|k| 0x2000 + k * 0x100).collect();
        for &t in &targets {
            mem.poke_bytes(t, &assemble(&[Instr::Ret])).unwrap();
        }
        let mut engine = TierEngine::new();
        assert!(engine.compile_into(&mem, 0x1000));
        let from = engine.lookup_slot(0x1000).expect("dispatcher block");
        assert!(engine.compile_into(&mem, targets[0]));
        let succ = engine.lookup_slot(targets[0]).expect("target block");

        // Cold cache: miss, then promote, then hit.
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, targets[0]),
            IcProbe::Miss
        ));
        assert!(matches!(
            engine.ic_promote(from, 0x1000, 0, targets[0], succ),
            IcPromotion::Installed
        ));
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, targets[0]),
            IcProbe::Hit(s) if s == succ
        ));

        // Fill the remaining ways; the (IC_WAYS+1)-th distinct target
        // flips the cache megamorphic, and it stays that way.
        for &t in &targets[1..IC_WAYS] {
            assert!(matches!(
                engine.ic_promote(from, 0x1000, 0, t, succ),
                IcPromotion::Installed
            ));
        }
        assert!(matches!(
            engine.ic_promote(from, 0x1000, 0, targets[IC_WAYS], succ),
            IcPromotion::Megamorphic
        ));
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, targets[0]),
            IcProbe::Mega
        ));
    }

    #[test]
    fn ic_hit_requires_a_live_matching_successor() {
        let mut mem = Memory::new();
        mem.map(0x1000, 0x4000, Perm::RX).unwrap();
        mem.poke_bytes(0x1000, &assemble(&[Instr::JmpR(Reg::R0)]))
            .unwrap();
        mem.poke_bytes(0x2000, &assemble(&[Instr::Ret])).unwrap();
        let mut engine = TierEngine::new();
        assert!(engine.compile_into(&mem, 0x1000));
        assert!(engine.compile_into(&mem, 0x2000));
        let from = engine.lookup_slot(0x1000).unwrap();
        let succ = engine.lookup_slot(0x2000).unwrap();
        assert!(matches!(
            engine.ic_promote(from, 0x1000, 0, 0x2000, succ),
            IcPromotion::Installed
        ));
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, 0x2000),
            IcProbe::Hit(_)
        ));
        // A different runtime target (a smashed pointer) never hits a
        // cache entry installed for another address.
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, 0x2400),
            IcProbe::Miss
        ));
        // Dropping the predicted block (invalidation, eviction) turns
        // the stale entry into a miss, not a hit on dead state.
        engine.invalidate(0x2000);
        assert!(matches!(
            engine.ic_probe(from, 0x1000, 0, 0x2000),
            IcProbe::Miss
        ));
    }

    #[test]
    fn ops_stay_forty_bytes() {
        // A compiled block's heap is mostly its `ops`; a wider `Op`
        // grows every block (40 bytes when this was pinned).
        assert!(std::mem::size_of::<Op>() <= 40);
    }

    #[test]
    fn index_mix_separates_low_bit_aliases() {
        // 0x1000 and 0x0040_0000 share low bits — the classic
        // text/module alias; the mixed index must differ.
        assert_ne!(
            TierEngine::block_slot(0x1000),
            TierEngine::block_slot(0x0040_0000)
        );
    }
}
