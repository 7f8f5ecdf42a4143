//! Allocation-count guard for fresh machines: a fresh `VICTIM_SMASH`
//! leg — boot, run of input "hello", drop — on each engine makes at
//! most a pinned number of heap allocations. A per-page page-table
//! node, or a cache filled entry by entry through a growing buffer,
//! shows up here as a higher count.
//!
//! A counting global allocator tallies the allocations of the current
//! thread only (a thread-local counter), so the test harness's own
//! threads cannot disturb it; the count is deterministic. This file
//! holds one test so that the allocator serves nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::loader;
use swsec_defenses::DefenseConfig;
use swsec_vm::cpu::RunOutcome;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of this thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Per engine (name, fast path, tier 2): the most allocations one leg
/// may make, which is what it makes. Every engine makes 10: the page
/// table, the slot vector and its two growths, storage for the text,
/// data and stack pages, and three for I/O. The two fast engines add
/// the zeroed decode cache; tier 2 adds its engine and its two zeroed
/// tables.
const MAX_ALLOCS: [(&str, bool, bool, u64); 3] = [
    ("tier 2", true, true, 14),
    ("fast path", true, false, 11),
    ("baseline", false, false, 10),
];

#[test]
fn a_fresh_victim_leg_allocates_at_most_its_pinned_count() {
    let config = DefenseConfig::none();
    let seed = 7;
    let opts = loader::plan_options(&config, seed);
    let program = ProgramCache::new()
        .compile(VICTIM_SMASH, &opts)
        .expect("victim compiles");
    let mut counts = Vec::new();
    for (engine, fast_path, tier2, _) in MAX_ALLOCS {
        let before = ALLOCS.with(Cell::get);
        let (mut machine, _) = loader::boot_machine(&program, &config, seed).expect("boots");
        machine.set_fast_path(fast_path);
        machine.set_tier2(tier2);
        machine.io_mut().feed_input(0, b"hello");
        let outcome = machine.run(200_000);
        drop(machine);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(
            matches!(outcome, RunOutcome::Halted(_)),
            "{engine}: {outcome:?}"
        );
        counts.push((engine, allocs));
    }
    for ((engine, allocs), (_, _, _, max)) in counts.iter().zip(MAX_ALLOCS) {
        assert!(
            *allocs <= max,
            "{engine} leg made {allocs} allocations, more than {max}: {counts:?}"
        );
    }
}
