//! Differential audit of `Machine::snapshot` / `restore_from`.
//!
//! The fork-server contract is that a restored machine is
//! *architecturally* indistinguishable from a freshly built one: the
//! same outcome and the same [`ArchState`], with the fast path on or
//! off. The cache counters are the deliberate exception — a restore
//! keeps the icache and TLBs warm (that is where its speed comes
//! from), and rendered reports already exclude them.
//! These tests drive that contract through the public `Machine` API,
//! plus the cost side of the bargain: a restore copies exactly the
//! pages dirtied since the snapshot, observable both in the returned
//! `RestoreStats` and in the scope tally behind the `vm.snapshot.*`
//! counters.

use swsec_vm::arch::ArchState;
use swsec_vm::context::scope;
use swsec_vm::cpu::{Machine, RunOutcome};
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::{Perm, RestoreStats, PAGE_SIZE};
use swsec_vm::policy::{ProtectedRegion, ProtectionMap};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x0020_0000;
const MODULE: u32 = 0x0040_0000;
const MDATA: u32 = 0x0041_0000;
const STACK_TOP: u32 = 0xbfff_f000;

/// Resolves an instruction index to its address during assembly.
type AddrOf<'a> = &'a dyn Fn(usize) -> u32;

/// Two-pass assembly at `base`: instruction lengths are fixed per
/// opcode, so the first-pass layout is exact.
fn assemble_at(base: u32, build: &dyn Fn(AddrOf) -> Vec<Instr>) -> Vec<u8> {
    let draft = build(&|_| base);
    let mut addrs = Vec::with_capacity(draft.len());
    let mut off = 0u32;
    for i in &draft {
        addrs.push(base + off);
        let mut b = Vec::new();
        i.encode(&mut b);
        off += b.len() as u32;
    }
    let mut out = Vec::new();
    for i in &build(&|idx| addrs[idx]) {
        i.encode(&mut out);
    }
    out
}

/// A machine mapped with text (at `text_perm`), data and stack, code
/// poked at `TEXT`.
fn machine_with(text_perm: Perm, code: &[u8]) -> Machine {
    let mut m = Machine::new();
    m.mem_mut().map(TEXT, 0x1000, text_perm).expect("map text");
    m.mem_mut().map(DATA, 0x2000, Perm::RW).expect("map data");
    m.mem_mut()
        .map(STACK_TOP - 0x4000, 0x4000, Perm::RW)
        .expect("map stack");
    m.mem_mut().poke_bytes(TEXT, code).expect("load text");
    m.set_reg(Reg::Sp, STACK_TOP);
    m.set_ip(TEXT);
    m
}

/// Asserts that `got` finished like `want`: same outcome, same
/// architectural state.
fn assert_same_run(got: (&Machine, RunOutcome), want: (&Machine, RunOutcome), what: &str) {
    assert_eq!(got.1, want.1, "{what}: outcome");
    let diff = ArchState::of(got.0).diff(ArchState::of(want.0));
    assert_eq!(diff, None, "{what}");
}

/// Runs a fresh machine from `build`, and a second one that snapshots
/// at boot, runs, restores and runs again; asserts that the replay
/// finishes like the fresh run. Returns the fresh run.
fn assert_restore_replays(build: &dyn Fn() -> Machine, fuel: u64) -> (Machine, RunOutcome) {
    let mut fresh = build();
    let first = fresh.run(fuel);
    let mut m = build();
    let snap = m.snapshot();
    m.run(fuel);
    m.restore_from(&snap);
    let second = m.run(fuel);
    assert_same_run((&m, second), (&fresh, first), "replay");
    (fresh, first)
}

/// Reads 8 bytes from fd 0, byte-sums them through a loop, round-trips
/// the sum through a leaf call, stores it, writes 4 bytes back on fd 1
/// and exits with the sum: loads, stores, calls, stack traffic,
/// syscalls and I/O all in one program.
fn busy_program() -> Vec<u8> {
    assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: 0,
            }, // 0: fd 0
            Instr::MovI {
                dst: Reg::R1,
                imm: DATA,
            }, // 1: buf
            Instr::MovI {
                dst: Reg::R2,
                imm: 8,
            }, // 2: len
            Instr::Sys(sys::READ), // 3
            Instr::MovI {
                dst: Reg::R3,
                imm: 0,
            }, // 4: acc
            Instr::MovI {
                dst: Reg::R4,
                imm: 8,
            }, // 5: counter
            Instr::MovI {
                dst: Reg::R1,
                imm: DATA,
            }, // 6
            Instr::LoadB {
                dst: Reg::R5,
                base: Reg::R1,
                disp: 0,
            }, // 7: loop head
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg::R3,
                src: Reg::R5,
            }, // 8
            Instr::AddI {
                dst: Reg::R1,
                imm: 1,
            }, // 9
            Instr::AddI {
                dst: Reg::R4,
                imm: (-1i32) as u32,
            }, // 10
            Instr::CmpI { a: Reg::R4, imm: 0 }, // 11
            Instr::JCond {
                cond: Cond::Nz,
                target: at(7),
            }, // 12
            Instr::Call(at(21)),   // 13: leaf
            Instr::MovI {
                dst: Reg::R1,
                imm: DATA,
            }, // 14
            Instr::Store {
                base: Reg::R1,
                disp: 0x100,
                src: Reg::R3,
            }, // 15
            Instr::MovI {
                dst: Reg::R0,
                imm: 1,
            }, // 16: fd 1
            Instr::MovI {
                dst: Reg::R2,
                imm: 4,
            }, // 17
            Instr::Sys(sys::WRITE), // 18
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R3,
            }, // 19
            Instr::Sys(sys::EXIT), // 20
            Instr::Enter(16),      // 21: leaf
            Instr::Push(Reg::R3),
            Instr::Pop(Reg::R6),
            Instr::Leave,
            Instr::Ret,
        ]
    })
}

#[test]
fn restored_run_matches_fresh_run_bit_for_bit() {
    const INPUT: &[u8] = b"\x01\x02\x03\x04\x05\x06\x07\x08";
    for fast in [true, false] {
        // Reference: a freshly built machine, run once.
        let mut fresh = machine_with(Perm::RX, &busy_program());
        fresh.set_fast_path(fast);
        fresh.io_mut().feed_input(0, INPUT);
        let outcome = fresh.run(10_000);
        assert_eq!(outcome, RunOutcome::Halted(36), "fast={fast}");

        // Candidate: snapshot at boot, then serve two attempts from it.
        let mut m = machine_with(Perm::RX, &busy_program());
        m.set_fast_path(fast);
        let snap = m.snapshot();
        for attempt in 0..2 {
            if attempt > 0 {
                m.restore_from(&snap);
            }
            m.io_mut().feed_input(0, INPUT);
            let got = m.run(10_000);
            let what = format!("fast={fast} attempt={attempt}");
            assert_same_run((&m, got), (&fresh, outcome), &what);
        }
    }
}

#[test]
fn self_modifying_code_replays_identically_after_restore() {
    // The program overwrites its own upcoming instruction (a nop at
    // index 3) with `halt`, so it never reaches the `exit 42` behind
    // it. The snapshot is taken *mid-run*, after the fetch pipeline
    // has seen the original bytes, and the restore must both put the
    // nop back and drop the patched decode.
    let halt_byte = {
        let mut b = Vec::new();
        Instr::Halt.encode(&mut b);
        b[0]
    };
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: at(3),
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
            Instr::Nop, // 3: becomes `halt`
            Instr::MovI {
                dst: Reg::R0,
                imm: 42,
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    // Two steps in: both movi executed, the store not yet. R1 holds
    // the patch target the assembler resolved.
    let two_steps_in = || {
        let mut m = machine_with(Perm::RWX, &code);
        for _ in 0..2 {
            m.step();
        }
        m
    };
    let mut m = two_steps_in();
    let patch_addr = m.reg(Reg::R1);
    assert!(
        patch_addr > TEXT && patch_addr < TEXT + 0x100,
        "{patch_addr:#x}"
    );
    let snap = m.snapshot();

    let first = m.run(100);
    assert_eq!(first, RunOutcome::Halted(0), "patched halt, not exit 42");
    assert_eq!(
        m.mem().peek_bytes(patch_addr, 1).unwrap()[0],
        halt_byte,
        "the run really did patch its code"
    );

    let restore = m.restore_from(&snap);
    assert!(restore.dirty_pages >= 1, "the patched text page was dirty");
    assert_ne!(
        m.mem().peek_bytes(patch_addr, 1).unwrap()[0],
        halt_byte,
        "restore put the original nop back"
    );
    let second = m.run(100);
    assert_eq!(second, first);

    // The first continuation ran with state warmed by the two
    // pre-snapshot steps; restored attempts all start from the same
    // steady state, so it is the restored attempts that are
    // counter-exact with *each other*: a twin machine's third attempt
    // ends in this machine's second attempt's state.
    let mut twin = two_steps_in();
    let snap = twin.snapshot();
    twin.run(100);
    twin.restore_from(&snap);
    twin.run(100);
    twin.restore_from(&snap);
    let third = twin.run(100);
    assert_same_run((&twin, third), (&m, second), "restored replays");
}

#[test]
fn dep_fault_reproduces_identically_after_restore() {
    // A store into the RX text segment: the DEP check faults the
    // machine. Restored attempts must produce the identical fault at
    // the identical point with identical stats.
    let code = assemble_at(TEXT, &|_| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: TEXT,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 0xdead,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R2,
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    for fast in [true, false] {
        let build = || {
            let mut m = machine_with(Perm::RX, &code);
            m.set_fast_path(fast);
            m
        };
        let (_, first) = assert_restore_replays(&build, 100);
        assert!(
            matches!(first, RunOutcome::Fault(_)),
            "store to RX text faults, got {first:?}"
        );
    }
}

#[test]
fn pma_crossing_program_restores_cleanly() {
    // Round trips into a protected module: PMA fetch checks on every
    // step, boundary crossings through the entry point, module-private
    // data traffic. The protection map is part of the snapshot, so a
    // restored run re-runs the same checks to the same effect.
    let main_code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: 40,
            },
            Instr::Call(MODULE), // 1: loop head
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(1),
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    let module_code = assemble_at(MODULE, &|_| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: MDATA,
            },
            Instr::Load {
                dst: Reg::R2,
                base: Reg::R1,
                disp: 0,
            },
            Instr::AddI {
                dst: Reg::R2,
                imm: 1,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R2,
            },
            Instr::Ret,
        ]
    });
    for fast in [true, false] {
        let build = || {
            let mut m = machine_with(Perm::RX, &main_code);
            m.set_fast_path(fast);
            m.mem_mut()
                .map(MODULE, 0x1000, Perm::RX)
                .expect("map module");
            m.mem_mut().map(MDATA, 0x1000, Perm::RW).expect("map mdata");
            m.mem_mut()
                .poke_bytes(MODULE, &module_code)
                .expect("load module");
            m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
                MODULE..MODULE + 0x1000,
                MDATA..MDATA + 0x1000,
                vec![MODULE],
            )])));
            m
        };
        // The replay ends with the counter at 40, not 80: the restore
        // rewound the module's data.
        let (fresh, first) = assert_restore_replays(&build, 10_000);
        assert_eq!(first, RunOutcome::Halted(0), "fast={fast}");
        let counter = fresh.mem().peek_u32(MDATA).unwrap();
        assert_eq!(counter, 40, "module counter ran");
    }
}

#[test]
fn restore_copies_exactly_the_touched_pages() {
    let mut m = Machine::new();
    m.mem_mut()
        .map(DATA, 8 * PAGE_SIZE, Perm::RW)
        .expect("map data");
    let snap = m.snapshot();

    // Touch exactly 3 of the 8 pages.
    for page in [0u32, 3, 7] {
        m.mem_mut()
            .poke_bytes(DATA + page * PAGE_SIZE, &[0xAB])
            .expect("poke");
    }
    let (restore, delta) = scope(&Default::default(), None, || m.restore_from(&snap));

    assert_eq!(
        restore,
        RestoreStats {
            dirty_pages: 3,
            bytes_copied: 3 * u64::from(PAGE_SIZE),
        },
        "restore is O(dirty pages), not O(mapped pages)"
    );
    assert_eq!(delta.restores, 1);
    assert_eq!(delta.restore_dirty_pages, 3, "vm.snapshot.dirty_pages");
    assert_eq!(delta.restore_bytes, 3 * u64::from(PAGE_SIZE));
    for page in [0u32, 3, 7] {
        assert_eq!(
            m.mem().peek_bytes(DATA + page * PAGE_SIZE, 1).unwrap()[0],
            0
        );
    }

    // Nothing touched since the last restore: nothing to copy.
    let restore = m.restore_from(&snap);
    assert_eq!(
        restore,
        RestoreStats::default(),
        "clean restore copies 0 pages"
    );
}

#[test]
fn restore_never_executes_stale_tier2_blocks() {
    // A countdown hot enough for tier 2 to compile its loop into a
    // block (32 trips ≫ threshold), exiting with the trip count. The
    // sequence snapshot → run → patch the loop's step → run → restore
    // → run flips the code under the block cache twice; each run must
    // behave exactly like a fresh uncached machine on the same bytes,
    // never like the block compiled from the previous code version.
    let step_imm_idx = 2; // AddI R1: imm low byte 2 bytes into it
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: 32,
            },
            Instr::MovI {
                dst: Reg::R2,
                imm: 0,
            },
            Instr::AddI {
                dst: Reg::R1,
                imm: (-1i32) as u32,
            }, // 2: loop head
            Instr::AddI {
                dst: Reg::R2,
                imm: 1,
            },
            Instr::CmpI { a: Reg::R1, imm: 0 },
            Instr::JCond {
                cond: Cond::Gt,
                target: at(2),
            },
            Instr::Mov {
                dst: Reg::R0,
                src: Reg::R2,
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    let loop_head = TEXT + 12;
    let step_byte = loop_head + step_imm_idx;

    // Uncached references for both code versions.
    let reference = |patch: bool| {
        let mut r = machine_with(Perm::RWX, &code);
        r.set_tier2(false);
        r.set_fast_path(false);
        if patch {
            r.mem_mut().poke_bytes(step_byte, &[0xfe]).expect("patch");
        }
        let outcome = r.run(10_000);
        (r, outcome)
    };
    let (orig, orig_outcome) = reference(false);
    let (patched, patched_outcome) = reference(true);
    assert_eq!(orig_outcome, RunOutcome::Halted(32));
    assert_eq!(patched_outcome, RunOutcome::Halted(16));

    let mut m = machine_with(Perm::RWX, &code);
    m.set_tier2(true);
    let snap = m.snapshot();

    // Run 1: original code, block compiled and hot.
    let outcome = m.run(10_000);
    assert_same_run((&m, outcome), (&orig, orig_outcome), "run 1");
    assert!(m.stats().tier2_compiled >= 1, "{:?}", m.stats());

    // Loader patches the step to -2 mid-campaign: the warm block is
    // now stale and must be dropped, not executed.
    m.restore_from(&snap);
    m.mem_mut().poke_bytes(step_byte, &[0xfe]).expect("patch");
    let outcome = m.run(10_000);
    assert_same_run((&m, outcome), (&patched, patched_outcome), "patched");
    assert!(
        m.stats().tier2_invalidations >= 1,
        "patched code must invalidate the warm block: {:?}",
        m.stats()
    );

    // Restore rewinds the patch; any block compiled from the patched
    // bytes is stale in turn.
    m.restore_from(&snap);
    let outcome = m.run(10_000);
    assert_same_run((&m, outcome), (&orig, orig_outcome), "rewound");
}

#[test]
fn layout_change_falls_back_to_a_wholesale_rebuild() {
    // Unmapping a region after the snapshot invalidates the dirty-page
    // fast path; the restore must still reproduce the captured memory
    // exactly, paying full price (every snapshot page copied).
    let code = assemble_at(TEXT, &|_| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: DATA,
            },
            Instr::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0,
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    let mut m = machine_with(Perm::RX, &code);
    m.mem_mut().poke_bytes(DATA, &[99, 0, 0, 0]).expect("poke");
    let snap = m.snapshot();
    let pages = snap.page_count() as u64;

    m.mem_mut().unmap(DATA, 0x2000);
    assert!(!m.mem().is_mapped(DATA));
    let restore = m.restore_from(&snap);
    assert_eq!(restore.dirty_pages, pages, "fallback copies every page");
    assert!(m.mem().is_mapped(DATA), "unmapped region came back");
    assert_eq!(m.run(100), RunOutcome::Halted(99), "restored bytes intact");
}
