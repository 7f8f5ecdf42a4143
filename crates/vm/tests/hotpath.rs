//! Cache-correctness audit for the interpreter hot path.
//!
//! The decoded-instruction cache and the one-entry TLBs must be
//! *semantically invisible*: every DEP, self-modifying-code and
//! partial-write behaviour of the uncached machine has to survive
//! bit-for-bit. These tests drive the edge cases through the public
//! `Machine` API, several of them mid-run so translations and decodes
//! are already cached when the invalidating event happens.

use std::sync::Arc;

use swsec_obs::CoverageSink;
use swsec_vm::arch::ArchState;
use swsec_vm::cpu::{Fault, Machine, RunOutcome, StepResult};
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::{Access, MemErrorKind, Perm, PAGE_SIZE};
use swsec_vm::trace::ExecStats;

const TEXT: u32 = 0x1000;
const STACK_TOP: u32 = 0xbfff_f000;

fn assemble(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::new();
    for i in instrs {
        i.encode(&mut out);
    }
    out
}

fn machine_with(text_perm: Perm, instrs: &[Instr]) -> Machine {
    let mut m = Machine::new();
    m.mem_mut().map(TEXT, 0x1000, text_perm).unwrap();
    m.mem_mut()
        .map(STACK_TOP - 0x4000, 0x4000, Perm::RW)
        .unwrap();
    m.mem_mut().poke_bytes(TEXT, &assemble(instrs)).unwrap();
    m.set_reg(Reg::Sp, STACK_TOP);
    m.set_ip(TEXT);
    m
}

/// An infinite loop of nops, used to get decodes into the icache.
fn nop_loop() -> Vec<Instr> {
    vec![Instr::Nop, Instr::Nop, Instr::Jmp(TEXT)]
}

#[test]
fn loader_poke_is_seen_on_the_very_next_fetch() {
    // Run a few trips so every loop instruction is cached, then have
    // the *loader* (poke_bytes, the code-corruption attack's write
    // primitive) overwrite the first nop with `sys exit` — the very
    // next fetch at TEXT must execute the new bytes.
    let mut m = machine_with(Perm::RX, &nop_loop());
    for _ in 0..9 {
        assert_eq!(m.step(), StepResult::Continue);
    }
    // ip is back at TEXT (3 instructions per trip, 9 steps = 3 trips).
    assert_eq!(m.ip(), TEXT);
    assert!(m.stats().icache_hits >= 6, "{:?}", m.stats());
    let patch = assemble(&[Instr::Sys(sys::EXIT)]);
    m.mem_mut().poke_bytes(TEXT, &patch).unwrap();
    m.set_reg(Reg::R0, 7);
    assert_eq!(m.step(), StepResult::Halted(7));
}

#[test]
fn program_store_to_code_is_seen_on_the_very_next_fetch() {
    // Same property, but the overwrite comes from the running program
    // (a store to its own RWX text) and targets the *next* instruction:
    //   TEXT+0  movi r1, TEXT+16   (6 bytes)
    //   TEXT+6  movi r2, 0x27     (6 bytes) 0x27 = trap opcode... use sys
    //   TEXT+12 storeb [r1], r2    (4 bytes)
    //   TEXT+16 nop                (1 byte)  <- overwritten before it runs
    //   ...
    // We first prime the cache by running one full loop that *skips*
    // the store, so the nop at TEXT+16 is already cached, then let the
    // store run and fall through into the patched byte.
    let halt_byte = assemble(&[Instr::Halt])[0];
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: TEXT + 16,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: u32::from(halt_byte),
        },
        Instr::StoreB {
            base: Reg::R1,
            disp: 0,
            src: Reg::R2,
        },
        Instr::Nop, // TEXT+16: becomes `halt`
        Instr::Jmp(TEXT),
    ];
    let mut m = machine_with(Perm::RWX, &prog);
    // First pass up to (not including) the store.
    assert_eq!(m.step(), StepResult::Continue); // movi r1
    assert_eq!(m.step(), StepResult::Continue); // movi r2
    assert_eq!(m.step(), StepResult::Continue); // storeb patches TEXT+16
                                                // Next fetch is the patched instruction itself.
    assert_eq!(m.step(), StepResult::Halted(0));
}

#[test]
fn removing_exec_permission_stops_cached_code() {
    // protect() (set_perm) mid-run: the text page loses X while its
    // decodes sit in the icache; the next fetch must fault as DEP
    // demands, not serve the stale decode.
    let mut m = machine_with(Perm::RX, &nop_loop());
    for _ in 0..6 {
        assert_eq!(m.step(), StepResult::Continue);
    }
    m.mem_mut().set_perm(TEXT, 0x1000, Perm::RW);
    match m.step() {
        StepResult::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Fetch);
            assert_eq!(e.kind, MemErrorKind::Denied { have: Perm::RW });
            assert_eq!(e.addr, TEXT);
        }
        other => panic!("expected DEP fetch fault, got {other:?}"),
    }
}

#[test]
fn unmapping_code_stops_cached_code() {
    let mut m = machine_with(Perm::RX, &nop_loop());
    for _ in 0..6 {
        assert_eq!(m.step(), StepResult::Continue);
    }
    m.mem_mut().unmap(TEXT, 0x1000);
    match m.step() {
        StepResult::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Fetch);
            assert_eq!(e.kind, MemErrorKind::Unmapped);
        }
        other => panic!("expected unmapped fetch fault, got {other:?}"),
    }
}

#[test]
fn data_tlb_invalidated_by_protect_and_unmap() {
    // A load loop against a data page; revoking read permission (and
    // later the mapping itself) must fault the next load even though
    // the translation was TLB-cached.
    let data = STACK_TOP - 0x100;
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: data,
        },
        Instr::Load {
            dst: Reg::R0,
            base: Reg::R1,
            disp: 0,
        },
        Instr::Load {
            dst: Reg::R0,
            base: Reg::R1,
            disp: 4,
        },
        Instr::Load {
            dst: Reg::R0,
            base: Reg::R1,
            disp: 8,
        },
    ];
    let mut m = machine_with(Perm::RX, &prog);
    assert_eq!(m.step(), StepResult::Continue); // movi
    assert_eq!(m.step(), StepResult::Continue); // load (fills data TLB)
    let page = data & !(PAGE_SIZE - 1);
    m.mem_mut().set_perm(page, PAGE_SIZE, Perm::NONE);
    match m.step() {
        StepResult::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Read);
            assert_eq!(e.kind, MemErrorKind::Denied { have: Perm::NONE });
        }
        other => panic!("expected read denial, got {other:?}"),
    }
}

#[test]
fn straddling_store_that_faults_mid_word_leaves_earlier_bytes_written() {
    // A `store` instruction whose 4 bytes straddle a RW→R page
    // boundary: the paper's partial-write semantics (bytes land up to
    // the fault) must survive the single-lookup fast path.
    let lo_page = 0x0800_0000;
    let hi_page = lo_page + PAGE_SIZE;
    let addr = hi_page - 2; // two bytes in each page
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: addr,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: 0xddcc_bbaa,
        },
        Instr::Store {
            base: Reg::R1,
            disp: 0,
            src: Reg::R2,
        },
    ];
    let mut m = machine_with(Perm::RX, &prog);
    m.mem_mut().map(lo_page, PAGE_SIZE, Perm::RW).unwrap();
    m.mem_mut().map(hi_page, PAGE_SIZE, Perm::R).unwrap();
    let outcome = m.run(10);
    match outcome {
        RunOutcome::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Write);
            assert_eq!(e.addr, hi_page, "fault names the first refused byte");
            assert_eq!(e.kind, MemErrorKind::Denied { have: Perm::R });
        }
        other => panic!("expected straddle write fault, got {other:?}"),
    }
    // The two low bytes were written before the fault.
    let mem = m.mem();
    assert_eq!(mem.read_u8(addr, Access::Read).unwrap(), 0xaa);
    assert_eq!(mem.read_u8(addr + 1, Access::Read).unwrap(), 0xbb);
    assert_eq!(mem.read_u8(hi_page, Access::Read).unwrap(), 0);
}

#[test]
fn instruction_straddling_pages_respects_second_page_permissions() {
    // Place a 6-byte movi so its tail crosses into the next page, then
    // run it once (cached), then revoke X on the *second* page only:
    // the next fetch of the same ip must fault at the second page.
    let text2 = TEXT + 0x1000; // second text page
    let start = text2 - 4; // movi occupies [start, start+6): 4+2 split
    let prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: 5,
        }, // at `start`, straddles
        Instr::Jmp(start),
    ];
    let mut m = Machine::new();
    m.mem_mut().map(TEXT, 0x2000, Perm::RX).unwrap();
    m.mem_mut().poke_bytes(start, &assemble(&prog)).unwrap();
    m.set_ip(start);
    // Two full trips: decode cached with its straddle flag.
    for _ in 0..4 {
        assert_eq!(m.step(), StepResult::Continue);
    }
    m.mem_mut().set_perm(text2, PAGE_SIZE, Perm::R);
    match m.step() {
        StepResult::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Fetch);
            assert_eq!(e.addr, text2, "fault names the first unfetchable byte");
        }
        other => panic!("expected straddling fetch fault, got {other:?}"),
    }
}

/// Runs `instrs` on three machines — tier 2 on, tier 2 off (fast
/// path only), and everything off — and asserts that outcome and
/// architectural state agree. Returns the tiered machine for
/// tier-specific assertions.
fn assert_three_way_identical(instrs: &[Instr], fuel: u64) -> Machine {
    assert_three_way_identical_cfg(instrs, fuel, &|_| {}).1
}

/// [`assert_three_way_identical`] with a configuration hook run on
/// each machine before execution (poke a dispatch table, enable the
/// shadow stack), returning the shared outcome as well.
fn assert_three_way_identical_cfg(
    instrs: &[Instr],
    fuel: u64,
    cfg: &dyn Fn(&mut Machine),
) -> (RunOutcome, Machine) {
    let build = |tier2: bool, fast: bool| {
        let mut m = machine_with(Perm::RWX, instrs);
        m.set_tier2(tier2);
        m.set_fast_path(fast);
        m.set_ip(TEXT); // set_fast_path cleared nothing architectural
        cfg(&mut m);
        m
    };
    let mut tiered = build(true, true);
    let mut fast = build(false, true);
    let mut base = build(false, false);
    let outcome = tiered.run(fuel);
    assert_eq!(outcome, fast.run(fuel), "fuel {fuel}");
    assert_eq!(outcome, base.run(fuel), "fuel {fuel}");
    for (other, name) in [(&fast, "fast path"), (&base, "baseline")] {
        let diff = ArchState::of(&tiered).diff(ArchState::of(other));
        assert_eq!(diff, None, "tier 2 vs {name} at fuel {fuel}");
    }
    (outcome, tiered)
}

#[test]
fn tier2_block_storing_into_its_own_page_side_exits_every_entry() {
    // The hot loop's own body stores into its code page (a padding
    // byte, so no instruction actually changes): every store bumps the
    // page's write generation, so the block must side-exit after the
    // store and fail validation at the next entry — and the result
    // must still be bit-for-bit identical to stepping.
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: 40,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: TEXT + 0x800,
        },
        Instr::MovI {
            dst: Reg::R3,
            imm: 0x5a,
        },
        // TEXT+18: loop head.
        Instr::StoreB {
            base: Reg::R2,
            disp: 0,
            src: Reg::R3,
        },
        Instr::AddI {
            dst: Reg::R1,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R1, imm: 0 },
        Instr::JCond {
            cond: swsec_vm::isa::Cond::Nz,
            target: TEXT + 18,
        },
        Instr::Mov {
            dst: Reg::R0,
            src: Reg::R1,
        },
        Instr::Sys(sys::EXIT),
    ];
    let tiered = assert_three_way_identical(&prog, 100_000);
    let stats = tiered.stats();
    assert!(stats.tier2_compiled >= 1, "loop never compiled: {stats:?}");
    assert!(
        stats.tier2_side_exits >= 1,
        "self-modifying store must side-exit: {stats:?}"
    );
    assert!(
        stats.tier2_invalidations >= 1,
        "stale block must be dropped at re-entry: {stats:?}"
    );
}

#[test]
fn tier2_recompiles_patched_code_byte_identically() {
    // Phase 1 runs a countdown hot enough to be compiled (30 trips of
    // step -1), then the program patches the AddI immediate in its own
    // loop body to step -3 and re-enters the loop for phase 2. The
    // stale block must never run: the patched loop takes 10 trips, and
    // every register and architectural counter must match stepping.
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: 30,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: TEXT + 20,
        }, // AddI imm low byte
        Instr::MovI {
            dst: Reg::R3,
            imm: 0xfd,
        }, // -3 in the low byte
        // TEXT+18: loop head; imm low byte sits at TEXT+20.
        Instr::AddI {
            dst: Reg::R1,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R1, imm: 0 },
        Instr::JCond {
            cond: swsec_vm::isa::Cond::Nz,
            target: TEXT + 18,
        },
        // TEXT+35: fall-through; second time around, finish.
        Instr::CmpI { a: Reg::R7, imm: 0 },
        Instr::JCond {
            cond: swsec_vm::isa::Cond::Nz,
            target: TEXT + 67,
        },
        Instr::MovI {
            dst: Reg::R7,
            imm: 1,
        },
        Instr::MovI {
            dst: Reg::R1,
            imm: 30,
        },
        Instr::StoreB {
            base: Reg::R2,
            disp: 0,
            src: Reg::R3,
        },
        Instr::Jmp(TEXT + 18),
        // TEXT+67: done.
        Instr::Mov {
            dst: Reg::R0,
            src: Reg::R1,
        },
        Instr::Sys(sys::EXIT),
    ];
    // Guard the hand-computed offsets against encoding drift.
    let head: usize = prog[..3].iter().map(|i| assemble(&[*i]).len()).sum();
    assert_eq!(head, 18, "layout drifted: loop at {head}");
    let done: usize = prog[..12].iter().map(|i| assemble(&[*i]).len()).sum();
    assert_eq!(done, 67, "layout drifted: done at {done}");

    let tiered = assert_three_way_identical(&prog, 100_000);
    let stats = tiered.stats();
    assert!(
        stats.tier2_compiled >= 1,
        "phase 1 never compiled: {stats:?}"
    );
    assert!(
        stats.tier2_invalidations >= 1,
        "patched block must be invalidated: {stats:?}"
    );
}

#[test]
fn fast_and_slow_machines_agree_on_a_busy_program() {
    // A program exercising calls, unaligned word and byte accesses:
    // every engine must end in the same outcome and architectural
    // state.
    let scratch = STACK_TOP - 0x2000;
    let prog = vec![
        Instr::MovI {
            dst: Reg::R1,
            imm: scratch,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: 0x1122_3344,
        },
        // f(x): store/load roundtrip, called a few times.
        Instr::MovI {
            dst: Reg::R3,
            imm: 3,
        },
        // loop:
        Instr::Call(TEXT + 44), // target computed below
        Instr::AddI {
            dst: Reg::R3,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R3, imm: 0 },
        Instr::JCond {
            cond: swsec_vm::isa::Cond::Nz,
            target: TEXT + 18,
        },
        Instr::Mov {
            dst: Reg::R0,
            src: Reg::R4,
        },
        Instr::Sys(sys::EXIT),
        // f: TEXT+44
        Instr::Store {
            base: Reg::R1,
            disp: 2,
            src: Reg::R2,
        },
        Instr::Load {
            dst: Reg::R4,
            base: Reg::R1,
            disp: 2,
        },
        Instr::LoadB {
            dst: Reg::R5,
            base: Reg::R1,
            disp: 3,
        },
        Instr::Ret,
    ];
    // Verify the hand-computed offsets: call site loop head and f.
    let f_off: usize = prog[..9].iter().map(|i| assemble(&[*i]).len()).sum();
    assert_eq!(f_off, 44, "layout drifted: f at {f_off}");
    let loop_off: usize = prog[..3].iter().map(|i| assemble(&[*i]).len()).sum();
    assert_eq!(loop_off, 18, "layout drifted: loop at {loop_off}");
    assert_three_way_identical(&prog, 1000);
}

/// Byte offset of instruction `i` in `instrs`, relative to TEXT.
fn addr_at(instrs: &[Instr], i: usize) -> u32 {
    TEXT + assemble(&instrs[..i]).len() as u32
}

/// The call-heavy shape: `trips` passes of a counted loop whose body
/// is a static call into a callee that builds a frame, pushes and pops.
fn linked_call_prog(trips: u32) -> Vec<Instr> {
    let mut prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: trips,
        },
        Instr::Call(0), // 1: loop head, patched below
        Instr::AddI {
            dst: Reg::R0,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R0, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::Sys(sys::EXIT),
        Instr::Enter(16), // 6: callee
        Instr::Push(Reg::R0),
        Instr::Pop(Reg::R1),
        Instr::Leave,
        Instr::Ret,
    ];
    prog[1] = Instr::Call(addr_at(&prog, 6));
    prog[4] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, 1),
    };
    prog
}

#[test]
fn linked_call_and_return_collapse_the_loop_into_one_block() {
    // The call-heavy shape: a counted loop whose body is a static call.
    // The block engine links the call into the callee and the callee's
    // return back to the call site, so the whole loop body becomes one
    // block with an in-block backedge — after warmup the loop must run
    // without re-entering the dispatcher every iteration.
    let prog = linked_call_prog(2_000);
    let tiered = assert_three_way_identical(&prog, 100_000);
    let stats = tiered.stats();
    assert!(stats.tier2_compiled >= 1, "loop never compiled: {stats:?}");
    assert!(
        stats.tier2_hits <= 8,
        "linked call/return should keep the loop in-block, got {} entries: {stats:?}",
        stats.tier2_hits
    );
    assert!(
        stats.tier2_instructions >= stats.instructions * 9 / 10,
        "the mega-block should retire nearly everything: {stats:?}"
    );
}

#[test]
fn smashed_return_address_exits_the_linked_block() {
    use swsec_vm::isa::Cond;
    // The callee overwrites its own saved return address (the paper's
    // stack-smashing primitive) with the address of instruction 3,
    // skipping the nop the call would return to. The linked return's
    // runtime compare must catch the mismatch and exit the block with
    // the *attacker's* target pending — bit-for-bit what stepping does.
    let mut prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: 64,
        },
        Instr::Call(0), // 1: loop head, patched below
        Instr::Nop,     // 2: the honest return site (always skipped)
        Instr::AddI {
            dst: Reg::R0,
            imm: (-1i32) as u32,
        }, // 3: smash target
        Instr::CmpI { a: Reg::R0, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::Sys(sys::EXIT),
        Instr::Enter(0), // 7: callee
        Instr::MovI {
            dst: Reg::R2,
            imm: 0,
        }, // patched below
        Instr::Store {
            base: Reg::Bp,
            disp: 4,
            src: Reg::R2,
        },
        Instr::Leave,
        Instr::Ret,
    ];
    prog[1] = Instr::Call(addr_at(&prog, 7));
    prog[5] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, 1),
    };
    prog[8] = Instr::MovI {
        dst: Reg::R2,
        imm: addr_at(&prog, 3),
    };
    let tiered = assert_three_way_identical(&prog, 100_000);
    let stats = tiered.stats();
    assert!(stats.tier2_compiled >= 1, "loop never compiled: {stats:?}");
    // Every post-warmup iteration exits at the mismatched return, so
    // the nop at the honest return site never runs in any tier.
    assert_eq!(stats.rets, 64, "{stats:?}");
}

/// Scratch RW home for function-pointer tables, below the stack.
const TABLE: u32 = STACK_TOP - 0x2000;

/// The indirect-dispatch shape, sized for tests: `iters` trips
/// masking the counter into a four-entry function-pointer table at
/// [`TABLE`], `callr` through the loaded entry into one of four
/// rotating two-instruction callees, unlinked `ret` back. Returns the
/// program and the table bytes the caller must poke at [`TABLE`].
/// Every dynamic transfer in the loop goes through a tier-2 inline
/// cache once the loop is hot.
fn dispatch_prog(iters: u32) -> (Vec<Instr>, Vec<u8>) {
    dispatch_prog_with(iters, 4)
}

/// [`dispatch_prog`] with `callees` (a power of two) table entries and
/// callees; the epilogue sits at instruction `14 + 2 * callees`. With
/// more than [`swsec_vm::tier::IC_WAYS`] callees the `callr` site's
/// inline cache goes megamorphic.
fn dispatch_prog_with(iters: u32, callees: u32) -> (Vec<Instr>, Vec<u8>) {
    assert!(callees.is_power_of_two());
    let mut prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: iters,
        },
        Instr::MovI {
            dst: Reg::R5,
            imm: TABLE,
        },
        Instr::MovI {
            dst: Reg::R6,
            imm: callees - 1,
        },
        Instr::MovI {
            dst: Reg::R7,
            imm: 2,
        },
        Instr::Mov {
            dst: Reg::R1,
            src: Reg::R0,
        }, // 4: loop head
        Instr::Alu {
            op: AluOp::And,
            dst: Reg::R1,
            src: Reg::R6,
        },
        Instr::Alu {
            op: AluOp::Shl,
            dst: Reg::R1,
            src: Reg::R7,
        },
        Instr::Alu {
            op: AluOp::Add,
            dst: Reg::R1,
            src: Reg::R5,
        },
        Instr::Load {
            dst: Reg::R2,
            base: Reg::R1,
            disp: 0,
        },
        Instr::CallR(Reg::R2),
        Instr::AddI {
            dst: Reg::R0,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R0, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::Jmp(0), // 13: to the epilogue, patched below
                       // 14..: the callees, `addi r3, k+1; ret` each.
    ];
    for k in 0..callees {
        prog.push(Instr::AddI {
            dst: Reg::R3,
            imm: k + 1,
        });
        prog.push(Instr::Ret);
    }
    prog[12] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, 4),
    };
    // The epilogue lives past the callees so tests can swap it for a
    // multi-instruction driver without moving any code the table (or a
    // compiled block) already points at.
    let epilogue = 14 + 2 * callees as usize;
    prog[13] = Instr::Jmp(addr_at(&prog, epilogue));
    let mut table = Vec::new();
    for k in 0..callees as usize {
        table.extend_from_slice(&addr_at(&prog, 14 + 2 * k).to_le_bytes());
    }
    prog.push(Instr::Sys(sys::EXIT)); // default epilogue
    (prog, table)
}

#[test]
fn patching_a_callee_behind_a_hot_inline_cache_recompiles_it() {
    // Phase 1 runs the dispatch loop hot — the `callr` and the four
    // `ret`s all hold inline-cache predictions. The driver then writes
    // through a function pointer into callee 0's body (AddI immediate
    // low byte: +1 becomes +9) and reruns the loop. The stale
    // prediction's target block fails generation validation, so the
    // patched callee must be recompiled and every tier must agree
    // bit-for-bit on the accumulator.
    let (mut prog, table) = dispatch_prog(96);
    // Swap the epilogue for the two-phase driver (the epilogue sits
    // past the callees, so nothing the table points at moves).
    // AddI encodes [op, dst, imm:le32]: the immediate low byte is +2.
    prog.pop();
    let d = prog.len();
    prog.extend([
        Instr::CmpI { a: Reg::R4, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::MovI {
            dst: Reg::R4,
            imm: 1,
        },
        Instr::MovI {
            dst: Reg::R1,
            imm: addr_at(&prog, 14) + 2,
        },
        Instr::MovI {
            dst: Reg::R2,
            imm: 9,
        },
        Instr::StoreB {
            base: Reg::R1,
            disp: 0,
            src: Reg::R2,
        },
        Instr::MovI {
            dst: Reg::R0,
            imm: 96,
        },
        Instr::Jmp(addr_at(&prog, 4)),
        Instr::Mov {
            dst: Reg::R0,
            src: Reg::R3,
        },
        Instr::Sys(sys::EXIT),
    ]);
    prog[d + 1] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, d + 8),
    };
    let (outcome, tiered) = assert_three_way_identical_cfg(&prog, 100_000, &|m| {
        m.mem_mut().poke_bytes(TABLE, &table).unwrap();
    });
    // 96 trips per phase, 24 per callee: phase 1 sums to 240, phase 2
    // with callee 0 adding 9 sums to 432.
    assert_eq!(outcome, RunOutcome::Halted(672));
    let stats = tiered.stats();
    assert!(stats.tier2_ic_installs >= 1, "no IC installed: {stats:?}");
    assert!(stats.tier2_ic_hits > 0, "ICs never predicted: {stats:?}");
    assert!(
        stats.tier2_invalidations >= 1,
        "patched callee must invalidate its block: {stats:?}"
    );
}

#[test]
fn smashed_function_pointer_faults_identically_under_dep() {
    // After the loop runs hot through its inline caches, the driver
    // overwrites table entry 0 with the table's own (RW, never X)
    // address — the paper's function-pointer-corruption primitive —
    // and re-enters the loop. The `callr` must land on a DEP fetch
    // denial at the smashed target, bit-for-bit in every tier: a
    // prediction keyed on the old callee must not swallow the fault.
    let (mut prog, table) = dispatch_prog(48);
    // Swap the epilogue for the smash driver (the epilogue sits past
    // the callees, so nothing the table points at moves).
    prog.pop();
    prog.extend([
        Instr::MovI {
            dst: Reg::R2,
            imm: TABLE,
        },
        Instr::Store {
            base: Reg::R5,
            disp: 0,
            src: Reg::R2,
        },
        Instr::MovI {
            dst: Reg::R0,
            imm: 4,
        }, // index 0 first: faults
        Instr::Jmp(addr_at(&prog, 4)),
    ]);
    let (outcome, tiered) = assert_three_way_identical_cfg(&prog, 100_000, &|m| {
        m.mem_mut().poke_bytes(TABLE, &table).unwrap();
    });
    match outcome {
        RunOutcome::Fault(Fault::Mem(e)) => {
            assert_eq!(e.access, Access::Fetch);
            assert_eq!(e.addr, TABLE, "fault names the smashed target");
            assert_eq!(e.kind, MemErrorKind::Denied { have: Perm::RW });
        }
        other => panic!("expected DEP fetch fault, got {other:?}"),
    }
    let stats = tiered.stats();
    assert!(stats.tier2_ic_hits > 0, "ICs never predicted: {stats:?}");
}

#[test]
fn smashed_return_address_through_an_inline_cache_trips_the_shadow_stack() {
    // A register call into one fixed callee: its unlinked `ret` gets
    // an inline cache keyed on the popped return address. After 40
    // honest round trips the driver arms R2 and calls once more; the
    // callee overwrites its saved return address with the attacker
    // target. The popped address no longer matches the prediction key,
    // the cache side-steps, and the enabled shadow stack must report
    // the mismatch — identically in every tier.
    let mut prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: 40,
        },
        Instr::MovI {
            dst: Reg::R5,
            imm: 0,
        }, // patched: callee address
        Instr::CallR(Reg::R5), // 2: loop head
        Instr::AddI {
            dst: Reg::R0,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R0, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::MovI {
            dst: Reg::R2,
            imm: 0,
        }, // patched: smash target
        Instr::CallR(Reg::R5),
        Instr::Nop, // 8: honest return site (skipped by the smash)
        Instr::Sys(sys::EXIT),
        Instr::Sys(sys::EXIT), // 10: attacker target (never reached)
        Instr::Enter(0),       // 11: callee
        Instr::CmpI { a: Reg::R2, imm: 0 },
        Instr::JCond {
            cond: Cond::Z,
            target: 0,
        }, // patched below
        Instr::Store {
            base: Reg::Bp,
            disp: 4,
            src: Reg::R2,
        },
        Instr::Leave, // 15
        Instr::Ret,
    ];
    prog[1] = Instr::MovI {
        dst: Reg::R5,
        imm: addr_at(&prog, 11),
    };
    prog[5] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, 2),
    };
    prog[6] = Instr::MovI {
        dst: Reg::R2,
        imm: addr_at(&prog, 10),
    };
    prog[13] = Instr::JCond {
        cond: Cond::Z,
        target: addr_at(&prog, 15),
    };
    let honest = addr_at(&prog, 8);
    let smashed = addr_at(&prog, 10);
    let (outcome, tiered) =
        assert_three_way_identical_cfg(&prog, 100_000, &|m| m.set_shadow_stack(true));
    assert_eq!(
        outcome,
        RunOutcome::Fault(Fault::ShadowStackMismatch {
            expected: honest,
            got: smashed
        })
    );
    let stats = tiered.stats();
    assert!(
        stats.tier2_ic_hits > 0,
        "the ret IC never predicted: {stats:?}"
    );
}

#[test]
fn restore_from_drops_stale_inline_cache_predictions() {
    // Fork-server shape: snapshot at boot, run the dispatch loop hot
    // (blocks compiled, ICs predicting), restore, patch callee 0
    // through the loader, run again. The post-restore run must match a
    // fresh machine with the patched code bit-for-bit — no prediction
    // or block from the first attempt may survive into the second.
    let (prog, table) = dispatch_prog(96);
    let imm_byte = addr_at(&prog, 14) + 2; // callee-0 AddI imm low byte
    let build = || {
        let mut m = machine_with(Perm::RWX, &prog);
        m.set_tier2(true);
        m.mem_mut().poke_bytes(TABLE, &table).unwrap();
        m
    };
    let mut m = build();
    let snap = m.snapshot();
    let first = m.run(100_000);
    assert_eq!(first, RunOutcome::Halted(0));
    let r3_first = m.reg(Reg::R3);
    assert_eq!(r3_first, 240, "96 trips over +1..+4 callees sum to 240");
    assert!(m.stats().tier2_ic_hits > 0, "{:?}", m.stats());
    m.restore_from(&snap);
    m.mem_mut().poke_bytes(imm_byte, &[9]).unwrap();
    let second = m.run(100_000);
    let mut fresh = build();
    fresh.mem_mut().poke_bytes(imm_byte, &[9]).unwrap();
    let reference = fresh.run(100_000);
    assert_eq!(second, reference);
    assert_eq!(ArchState::of(&m).diff(ArchState::of(&fresh)), None);
    assert_eq!(m.reg(Reg::R3), 432, "patched callee 0 adds 9, not 1");
}

#[test]
fn coverage_fingerprints_are_tier_invariant_through_inline_caches() {
    // With a coverage sink attached, tier-2 blocks bump the edge map
    // directly from precomputed slots. The resulting map must be
    // byte-identical to the tier-1 hash-at-transfer path on the same
    // program — the fuzzer's novelty signal may not depend on which
    // tier served an attempt.
    let (prog, table) = dispatch_prog(200);
    let run = |tier2: bool| {
        let mut m = machine_with(Perm::RWX, &prog);
        m.set_tier2(tier2);
        m.mem_mut().poke_bytes(TABLE, &table).unwrap();
        let sink = Arc::new(CoverageSink::new());
        m.set_coverage(Some(Arc::clone(&sink)));
        let outcome = m.run(100_000);
        (
            outcome,
            sink.take_map().fingerprint(),
            m.stats().tier2_ic_hits,
        )
    };
    let (tiered_outcome, tiered_fp, tiered_ic) = run(true);
    let (fast_outcome, fast_fp, fast_ic) = run(false);
    assert_eq!(tiered_outcome, fast_outcome);
    assert_eq!(tiered_fp, fast_fp, "coverage diverges between tiers");
    assert!(tiered_ic > 0, "the tiered run never hit an inline cache");
    assert_eq!(fast_ic, 0, "the tier-1 run counted inline-cache hits");
}

/// Runs `instrs` to completion through the three-way check, then once
/// more at every fuel value from 1 to the instruction count the full
/// run retired, so every block, chain and stall boundary is cut once.
/// Returns the tiered machine's whole stats at full fuel.
fn sweep_fuel(instrs: &[Instr], cfg: &dyn Fn(&mut Machine)) -> ExecStats {
    let (outcome, tiered) = assert_three_way_identical_cfg(instrs, 100_000, cfg);
    assert!(
        matches!(outcome, RunOutcome::Halted(_) | RunOutcome::Fault(_)),
        "{outcome:?}"
    );
    let stats = tiered.stats();
    for fuel in 1..=stats.instructions {
        assert_three_way_identical_cfg(instrs, fuel, cfg);
    }
    stats
}

#[test]
fn tier2_counters_are_pinned_across_dispatch_paths() {
    // Each program drives one way a block hands control back to the
    // dispatcher: inline-cache hits, misses and promotions on a
    // polymorphic and a megamorphic `callr` site, in-block linked
    // calls and returns, a self-modifying side exit with a call still
    // pending, a fused op stalling after an in-block backedge, and
    // predictions made stale by a snapshot restore. Architectural
    // state must agree with stepping at every fuel cut; the tier-2
    // counters are pinned so a change to how blocks are dispatched
    // cannot silently change what the `vm.tier2.*` metrics report.
    let poke_table = |table: Vec<u8>| {
        move |m: &mut Machine| {
            m.mem_mut().poke_bytes(TABLE, &table).unwrap();
        }
    };

    let (prog, table) = dispatch_prog(96);
    let poly = sweep_fuel(&prog, &poke_table(table));

    // Every callee turns hot after 16 calls, 128 trips in.
    let (prog, table) = dispatch_prog_with(160, 8);
    let mega = sweep_fuel(&prog, &poke_table(table));

    let linked = sweep_fuel(&linked_call_prog(48), &|_| {});

    // The stack lives in the (RWX) code page, so the linked call's own
    // push is a store into the block's page: the block side-exits at
    // the callee with the call pending, and every re-entry finds the
    // block stale.
    let smc = sweep_fuel(&linked_call_prog(48), &|m| {
        m.set_reg(Reg::Sp, TEXT + 0x1000);
    });

    // `cmpi r2, 1; jz` fuses into op 0 and the countdown into the last
    // op, whose taken branch is an in-block backedge to op 0: fuel cuts
    // land on op 0 right after the backedge.
    let mut prog = vec![
        Instr::MovI {
            dst: Reg::R0,
            imm: 48,
        },
        Instr::CmpI { a: Reg::R2, imm: 1 }, // 1: loop head
        Instr::JCond {
            cond: Cond::Z,
            target: 0,
        }, // patched below
        Instr::Push(Reg::R0),
        Instr::Pop(Reg::R4),
        Instr::AddI {
            dst: Reg::R0,
            imm: (-1i32) as u32,
        },
        Instr::CmpI { a: Reg::R0, imm: 0 },
        Instr::JCond {
            cond: Cond::Nz,
            target: 0,
        }, // patched below
        Instr::Mov {
            dst: Reg::R0,
            src: Reg::R4,
        }, // 8
        Instr::Sys(sys::EXIT),
    ];
    prog[2] = Instr::JCond {
        cond: Cond::Z,
        target: addr_at(&prog, 8),
    };
    prog[7] = Instr::JCond {
        cond: Cond::Nz,
        target: addr_at(&prog, 1),
    };
    let fused = sweep_fuel(&prog, &|_| {});

    // A counted loop that fuses whole into one `FusedLoopI` branching
    // to itself: tier 2 runs its remaining trips in closed form, and
    // must leave the flags and `r0` of the final compare exactly where
    // stepping does, at exit and at every fuel cut inside the loop.
    let prog = [
        Instr::MovI {
            dst: Reg::R0,
            imm: 0,
        },
        Instr::AddI {
            dst: Reg::R0,
            imm: 1,
        }, // TEXT+6: loop head
        Instr::CmpI {
            a: Reg::R0,
            imm: 1000,
        },
        Instr::JCond {
            cond: Cond::Nz,
            target: TEXT + 6,
        },
        Instr::Sys(sys::EXIT),
    ];
    let closed_form = sweep_fuel(&prog, &|_| {});
    // Tier 2 enters the block once, when the loop turns hot, and
    // retires every remaining trip in that one entry.
    assert_eq!(
        (closed_form.instructions, closed_form.tier2_instructions),
        (3002, 2952),
        "closed form"
    );

    // Fork-server shape: run the dispatch loop hot, restore the boot
    // snapshot, patch callee 0 through the loader; the measured run
    // starts with every inline cache predicting the first attempt. The
    // table points at copies of the callees on a page of their own, so
    // the patch leaves the loop's blocks valid while the `callr` cache
    // still predicts callee 0's stale block.
    let (prog, _) = dispatch_prog(96);
    let page = TEXT + 0x1000;
    // Clear of the loop's block-cache slots.
    let at = page + 0x100;
    let callees: Vec<Instr> = (0..4)
        .flat_map(|k| {
            [
                Instr::AddI {
                    dst: Reg::R3,
                    imm: k + 1,
                },
                Instr::Ret,
            ]
        })
        .collect();
    let table: Vec<u8> = (0..4)
        .flat_map(|k| (at + assemble(&callees[..2 * k]).len() as u32).to_le_bytes())
        .collect();
    let restored = sweep_fuel(&prog, &move |m| {
        m.mem_mut().map(page, 0x1000, Perm::RWX).unwrap();
        m.mem_mut().poke_bytes(at, &assemble(&callees)).unwrap();
        m.mem_mut().poke_bytes(TABLE, &table).unwrap();
        let snap = m.snapshot();
        assert!(matches!(m.run(100_000), RunOutcome::Halted(_)));
        m.restore_from(&snap);
        m.mem_mut().poke_bytes(at + 2, &[9]).unwrap(); // callee-0 AddI imm low byte
    });

    assert_eq!(
        poly,
        ExecStats {
            instructions: 1062,
            calls: 96,
            rets: 96,
            mem_reads: 192,
            mem_writes: 96,
            syscalls: 1,
            icache_hits: 1040,
            icache_misses: 22,
            tlb_hits: 245,
            tlb_misses: 3,
            tier2_compiled: 6,
            tier2_hits: 221,
            tier2_instructions: 844,
            tier2_side_exits: 0,
            tier2_invalidations: 0,
            tier2_ic_hits: 108,
            tier2_ic_misses: 32,
            tier2_ic_installs: 8,
            tier2_ic_megamorphic: 0,
            ..ExecStats::default()
        },
        "poly"
    );
    assert_eq!(
        mega,
        ExecStats {
            instructions: 1766,
            calls: 160,
            rets: 160,
            mem_reads: 320,
            mem_writes: 160,
            syscalls: 1,
            icache_hits: 1736,
            icache_misses: 30,
            tlb_hits: 385,
            tlb_misses: 3,
            tier2_compiled: 10,
            tier2_hits: 385,
            tier2_instructions: 1492,
            tier2_side_exits: 0,
            tier2_invalidations: 0,
            tier2_ic_hits: 88,
            tier2_ic_misses: 69,
            tier2_ic_installs: 12,
            tier2_ic_megamorphic: 1,
            ..ExecStats::default()
        },
        "mega"
    );
    assert_eq!(
        linked,
        ExecStats {
            instructions: 434,
            calls: 48,
            rets: 48,
            mem_reads: 144,
            mem_writes: 144,
            syscalls: 1,
            icache_hits: 423,
            icache_misses: 11,
            tlb_hits: 189,
            tlb_misses: 2,
            tier2_compiled: 3,
            tier2_hits: 3,
            tier2_instructions: 296,
            tier2_side_exits: 0,
            tier2_invalidations: 0,
            tier2_ic_hits: 0,
            tier2_ic_misses: 1,
            tier2_ic_installs: 1,
            tier2_ic_megamorphic: 0,
            ..ExecStats::default()
        },
        "linked"
    );
    assert_eq!(
        smc,
        ExecStats {
            instructions: 434,
            calls: 48,
            rets: 48,
            mem_reads: 144,
            mem_writes: 144,
            syscalls: 1,
            icache_hits: 11,
            icache_misses: 423,
            tlb_hits: 1613,
            tlb_misses: 2,
            tier2_compiled: 7,
            tier2_hits: 7,
            tier2_instructions: 11,
            tier2_side_exits: 5,
            tier2_invalidations: 6,
            tier2_ic_hits: 0,
            tier2_ic_misses: 0,
            tier2_ic_installs: 0,
            tier2_ic_megamorphic: 0,
            ..ExecStats::default()
        },
        "smc"
    );
    assert_eq!(
        fused,
        ExecStats {
            instructions: 339,
            calls: 0,
            rets: 0,
            mem_reads: 48,
            mem_writes: 48,
            syscalls: 1,
            icache_hits: 330,
            icache_misses: 9,
            tlb_hits: 92,
            tlb_misses: 2,
            tier2_compiled: 1,
            tier2_hits: 1,
            tier2_instructions: 225,
            tier2_side_exits: 0,
            tier2_invalidations: 0,
            tier2_ic_hits: 0,
            tier2_ic_misses: 0,
            tier2_ic_installs: 0,
            tier2_ic_megamorphic: 0,
            ..ExecStats::default()
        },
        "fused"
    );
    assert_eq!(
        restored,
        ExecStats {
            instructions: 1062,
            calls: 96,
            rets: 96,
            mem_reads: 192,
            mem_writes: 96,
            syscalls: 1,
            icache_hits: 1054,
            icache_misses: 8,
            tlb_hits: 148,
            tlb_misses: 0,
            tier2_compiled: 4,
            tier2_hits: 255,
            tier2_instructions: 987,
            tier2_side_exits: 0,
            tier2_invalidations: 4,
            tier2_ic_hits: 123,
            tier2_ic_misses: 36,
            tier2_ic_installs: 7,
            tier2_ic_megamorphic: 0,
            ..ExecStats::default()
        },
        "restored"
    );
}
