//! Execution statistics and instruction tracing.
//!
//! Statistics are cheap and always collected; full instruction traces
//! are opt-in via [`Machine::set_trace`](crate::cpu::Machine::set_trace)
//! and are used by experiments that want to show *how* an attack
//! redirected control flow.

use std::fmt;
use std::ops::AddAssign;

use crate::isa::Instr;

/// Counters accumulated over a machine's lifetime, or summed over the
/// machines of one [`scope`](crate::context::scope) or run.
///
/// The cache counters (`icache_*`, `tlb_*`, `tier2_*`) observe the
/// hot-path accelerators of the interpreter; they vary with the
/// fast-path and tier-2 switches and are deliberately **excluded**
/// from [`Display`], so any rendered report built on these stats
/// stays byte-identical whether the accelerators are on or off.
///
/// The run-level counters (`snapshots`, `restores`, `restore_*`,
/// `prof_*`) are counted straight into a scope's tally; a machine's
/// own [`stats`](crate::cpu::Machine::stats) leave them at zero. Runners
/// sum the tallies of the attempts they joined — the campaign into
/// `CampaignReport::vm`, the service into `ServiceRound::vm` — so the
/// totals count exactly the run's own machines, and export them with
/// [`absorb_into`](ExecStats::absorb_into). Such totals are run
/// *metadata*, never part of a deterministic report body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instructions: u64,
    /// `call`/`callr` instructions executed.
    pub calls: u64,
    /// `ret` instructions executed.
    pub rets: u64,
    /// Data loads performed.
    pub mem_reads: u64,
    /// Data stores performed.
    pub mem_writes: u64,
    /// System calls performed.
    pub syscalls: u64,
    /// Fetches served from the decoded-instruction cache.
    pub icache_hits: u64,
    /// Fetches that had to decode from memory.
    pub icache_misses: u64,
    /// Memory accesses translated by a TLB entry.
    pub tlb_hits: u64,
    /// Memory accesses that took the page-table lookup.
    pub tlb_misses: u64,
    /// Superinstruction blocks compiled by the tier-2 engine.
    pub tier2_compiled: u64,
    /// Tier-2 block-cache hits (block entries).
    pub tier2_hits: u64,
    /// Instructions retired inside tier-2 blocks (a subset of
    /// `instructions`).
    pub tier2_instructions: u64,
    /// Early exits from tier-2 blocks: a fault, an exhausted fuel
    /// budget, or a self-modifying store to the block's own pages.
    pub tier2_side_exits: u64,
    /// Tier-2 blocks dropped because a generation check failed at
    /// entry (SMC, loader pokes, snapshot restores, layout changes).
    pub tier2_invalidations: u64,
    /// Dynamic-transfer inline-cache hits: chain entries served by a
    /// terminator's predicted `(target, block)` pair, skipping the
    /// block-cache lookup and hotness bookkeeping.
    pub tier2_ic_hits: u64,
    /// Inline-cache probes that found no usable prediction and fell
    /// back to the full lookup.
    pub tier2_ic_misses: u64,
    /// Predictions installed (or refreshed) into an inline cache after
    /// a miss.
    pub tier2_ic_installs: u64,
    /// Inline caches that overflowed their ways and went megamorphic
    /// (the terminator stops predicting).
    pub tier2_ic_megamorphic: u64,
    /// Machine snapshots taken ([`Machine::snapshot`](crate::cpu::Machine::snapshot)).
    pub snapshots: u64,
    /// Machine restores performed
    /// ([`Machine::restore_from`](crate::cpu::Machine::restore_from)).
    pub restores: u64,
    /// Dirty pages copied back across all restores.
    pub restore_dirty_pages: u64,
    /// Bytes copied back across all restores.
    pub restore_bytes: u64,
    /// Profiler samples taken (see [`crate::profile`]).
    pub prof_samples: u64,
    /// Stack frames recorded across all profiler samples.
    pub prof_frames: u64,
}

impl ExecStats {
    /// The architectural projection: the counters, by name, that a
    /// program's execution determines whatever engine ran it. The cache
    /// counters legitimately differ between a fresh build and a
    /// snapshot-restored attempt, or between engines, and the run-level
    /// counters belong to a scope, so both are left out. Part of a
    /// machine's [`ArchState`](crate::arch::ArchState).
    pub fn architectural(&self) -> [(&'static str, u64); 6] {
        [
            ("instructions", self.instructions),
            ("calls", self.calls),
            ("rets", self.rets),
            ("mem_reads", self.mem_reads),
            ("mem_writes", self.mem_writes),
            ("syscalls", self.syscalls),
        ]
    }

    /// What these stats gained since `earlier`, field by field,
    /// saturating at zero.
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Applies `f` to each pair of fields.
    fn zip(&self, other: &ExecStats, f: impl Fn(u64, u64) -> u64) -> ExecStats {
        ExecStats {
            instructions: f(self.instructions, other.instructions),
            calls: f(self.calls, other.calls),
            rets: f(self.rets, other.rets),
            mem_reads: f(self.mem_reads, other.mem_reads),
            mem_writes: f(self.mem_writes, other.mem_writes),
            syscalls: f(self.syscalls, other.syscalls),
            icache_hits: f(self.icache_hits, other.icache_hits),
            icache_misses: f(self.icache_misses, other.icache_misses),
            tlb_hits: f(self.tlb_hits, other.tlb_hits),
            tlb_misses: f(self.tlb_misses, other.tlb_misses),
            tier2_compiled: f(self.tier2_compiled, other.tier2_compiled),
            tier2_hits: f(self.tier2_hits, other.tier2_hits),
            tier2_instructions: f(self.tier2_instructions, other.tier2_instructions),
            tier2_side_exits: f(self.tier2_side_exits, other.tier2_side_exits),
            tier2_invalidations: f(self.tier2_invalidations, other.tier2_invalidations),
            tier2_ic_hits: f(self.tier2_ic_hits, other.tier2_ic_hits),
            tier2_ic_misses: f(self.tier2_ic_misses, other.tier2_ic_misses),
            tier2_ic_installs: f(self.tier2_ic_installs, other.tier2_ic_installs),
            tier2_ic_megamorphic: f(self.tier2_ic_megamorphic, other.tier2_ic_megamorphic),
            snapshots: f(self.snapshots, other.snapshots),
            restores: f(self.restores, other.restores),
            restore_dirty_pages: f(self.restore_dirty_pages, other.restore_dirty_pages),
            restore_bytes: f(self.restore_bytes, other.restore_bytes),
            prof_samples: f(self.prof_samples, other.prof_samples),
            prof_frames: f(self.prof_frames, other.prof_frames),
        }
    }

    /// Mean dirty pages copied per restore; `None` when no restore was
    /// counted.
    pub fn mean_dirty_pages(&self) -> Option<f64> {
        (self.restores > 0).then(|| self.restore_dirty_pages as f64 / self.restores as f64)
    }

    /// Hit fraction of the decoded-instruction cache, in `[0, 1]`;
    /// `None` when no fetch was counted.
    pub fn icache_hit_rate(&self) -> Option<f64> {
        rate(self.icache_hits, self.icache_misses)
    }

    /// Hit fraction of the TLBs, in `[0, 1]`; `None` when no access
    /// was counted.
    pub fn tlb_hit_rate(&self) -> Option<f64> {
        rate(self.tlb_hits, self.tlb_misses)
    }

    /// Adds these counters to `registry` as `vm.instructions`,
    /// `vm.icache.*`, `vm.tlb.*`, `vm.tier2.*`, `vm.snapshot.*` and
    /// `vm.prof.*`: the one place the `vm.*` counter names are written,
    /// for campaign and service telemetry alike.
    pub fn absorb_into(&self, registry: &swsec_obs::MetricsRegistry) {
        for (name, value) in [
            ("vm.instructions", self.instructions),
            ("vm.icache.hits", self.icache_hits),
            ("vm.icache.misses", self.icache_misses),
            ("vm.tlb.hits", self.tlb_hits),
            ("vm.tlb.misses", self.tlb_misses),
            ("vm.tier2.blocks_compiled", self.tier2_compiled),
            ("vm.tier2.block_hits", self.tier2_hits),
            ("vm.tier2.instructions", self.tier2_instructions),
            ("vm.tier2.side_exits", self.tier2_side_exits),
            ("vm.tier2.invalidations", self.tier2_invalidations),
            ("vm.tier2.ic_hits", self.tier2_ic_hits),
            ("vm.tier2.ic_misses", self.tier2_ic_misses),
            ("vm.tier2.ic_installs", self.tier2_ic_installs),
            ("vm.tier2.ic_megamorphic", self.tier2_ic_megamorphic),
            ("vm.snapshot.snapshots", self.snapshots),
            ("vm.snapshot.restores", self.restores),
            ("vm.snapshot.dirty_pages", self.restore_dirty_pages),
            ("vm.snapshot.bytes_copied", self.restore_bytes),
            ("vm.prof.samples", self.prof_samples),
            ("vm.prof.frames", self.prof_frames),
        ] {
            registry.counter(name, value);
        }
    }

    /// A multi-line rendering that *does* include the cache counters —
    /// the diagnostic companion to [`Display`](fmt::Display), for
    /// benchmark output and interactive inspection. Never use this in
    /// a deterministic report body: the cache numbers vary with the
    /// fast-path switch.
    pub fn verbose(&self) -> String {
        let pct =
            |rate: Option<f64>| rate.map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
        format!(
            "{self}\n  icache: {} hits, {} misses ({} hit rate)\n  tlb: {} hits, {} misses ({} hit rate)\n  tier2: {} blocks compiled, {} entries, {} instructions, {} side exits, {} invalidations\n  tier2 ic: {} hits, {} misses, {} installs, {} megamorphic",
            self.icache_hits,
            self.icache_misses,
            pct(self.icache_hit_rate()),
            self.tlb_hits,
            self.tlb_misses,
            pct(self.tlb_hit_rate()),
            self.tier2_compiled,
            self.tier2_hits,
            self.tier2_instructions,
            self.tier2_side_exits,
            self.tier2_invalidations,
            self.tier2_ic_hits,
            self.tier2_ic_misses,
            self.tier2_ic_installs,
            self.tier2_ic_megamorphic,
        )
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, other: ExecStats) {
        *self = self.zip(&other, |a, b| a + b);
    }
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

impl fmt::Display for ExecStats {
    // The cache counters are intentionally absent: this rendering
    // feeds deterministic experiment reports (see struct docs).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions ({} calls, {} rets, {} loads, {} stores, {} syscalls)",
            self.instructions,
            self.calls,
            self.rets,
            self.mem_reads,
            self.mem_writes,
            self.syscalls
        )
    }
}

/// One executed instruction, as recorded by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Address the instruction was fetched from.
    pub ip: u32,
    /// The decoded instruction.
    pub instr: Instr,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.ip, self.instr)
    }
}

/// Default capacity of a machine's trace ring, in entries.
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

/// A bounded ring buffer of [`TraceEntry`] values.
///
/// Tracing used to accumulate into an unbounded `Vec`, which meant a
/// long campaign run with tracing enabled could exhaust memory. The
/// ring keeps the **most recent** `capacity` entries — the ones that
/// show where an attack actually ended up — and counts how many older
/// entries were overwritten.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceEntry>,
    capacity: usize,
    /// Oldest entry's index once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new()
    }
}

impl TraceRing {
    /// A ring with the default capacity.
    pub fn new() -> TraceRing {
        TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A ring holding at most `capacity` entries (min 1). Storage is
    /// allocated lazily as entries arrive.
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an entry, overwriting the oldest if the ring is full.
    #[inline]
    pub fn push(&mut self, entry: TraceEntry) {
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of entries the ring will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been overwritten since the last take.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns the surviving entries oldest-first,
    /// resetting the ring.
    pub fn take(&mut self) -> Vec<TraceEntry> {
        let mut out = std::mem::take(&mut self.buf);
        if self.dropped > 0 {
            out.rotate_left(self.head);
        }
        self.head = 0;
        self.dropped = 0;
        out
    }
}

/// Bridges taken trace entries into Chrome trace *instant* events, one
/// per retired instruction, named `0x{ip:08x}: {instr}` — the glue
/// between [`TraceRing::take`] and
/// [`swsec_obs::span::chrome_trace`]'s `instants` argument, so an
/// instruction trace lands on the same timeline as the span tree.
///
/// Timestamps are deterministic: `base_us + index`, i.e. viewer order
/// is execution order regardless of host timing. Pass the owning
/// span's start as `base_us` to nest the trail inside it.
#[must_use]
pub fn chrome_instants(
    entries: &[TraceEntry],
    track: u32,
    base_us: u64,
) -> Vec<swsec_obs::ChromeInstant> {
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| swsec_obs::ChromeInstant {
            name: entry.to_string(),
            track,
            ts_us: base_us + i as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Reg};

    #[test]
    fn stats_display_is_nonempty() {
        let stats = ExecStats::default();
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn trace_entry_display_includes_address() {
        let entry = TraceEntry {
            ip: 0x0804_83f2,
            instr: Instr::Push(Reg::Bp),
        };
        assert_eq!(entry.to_string(), "0x080483f2: push bp");
    }

    #[test]
    fn sums_and_rates() {
        let a = ExecStats {
            instructions: 100,
            icache_hits: 90,
            icache_misses: 10,
            restores: 4,
            restore_dirty_pages: 6,
            ..ExecStats::default()
        };
        let mut d = ExecStats::default();
        d += a;
        assert_eq!(d, a);
        assert_eq!(d.icache_hit_rate(), Some(0.9));
        assert_eq!(d.tlb_hit_rate(), None);
        assert_eq!(d.mean_dirty_pages(), Some(1.5));
        assert_eq!(ExecStats::default().mean_dirty_pages(), None);
        d += a;
        assert_eq!(d.instructions, 200);
        assert_eq!(d.restore_dirty_pages, 12);
        assert_eq!(d.since(&a), a);
        assert_eq!(a.since(&d), ExecStats::default());
    }

    #[test]
    fn verbose_includes_cache_counters_display_does_not() {
        let stats = ExecStats {
            instructions: 10,
            icache_hits: 7,
            icache_misses: 3,
            tlb_hits: 1,
            tlb_misses: 1,
            ..ExecStats::default()
        };
        let plain = stats.to_string();
        assert!(!plain.contains("icache"));
        // The run-level counters stay out of the rendering too.
        let run_level = ExecStats {
            snapshots: 11,
            restores: 12,
            restore_dirty_pages: 13,
            restore_bytes: 14,
            prof_samples: 15,
            prof_frames: 16,
            ..stats
        };
        assert_eq!(run_level.to_string(), plain);
        assert_eq!(run_level.architectural(), stats.architectural());
        let verbose = stats.verbose();
        assert!(verbose.starts_with(&plain));
        assert!(verbose.contains("icache: 7 hits, 3 misses (70.0% hit rate)"));
        assert!(verbose.contains("tlb: 1 hits, 1 misses (50.0% hit rate)"));
        // Empty stats render rates as n/a, not a division by zero.
        assert!(ExecStats::default().verbose().contains("n/a"));
    }

    fn entry(ip: u32) -> TraceEntry {
        TraceEntry {
            ip,
            instr: Instr::Nop,
        }
    }

    #[test]
    fn trace_ring_bounds_memory_and_keeps_newest() {
        let mut ring = TraceRing::with_capacity(3);
        assert_eq!(ring.capacity(), 3);
        for ip in 0..5 {
            ring.push(entry(ip));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let entries = ring.take();
        assert_eq!(
            entries.iter().map(|e| e.ip).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // Taking resets the ring.
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.push(entry(9));
        assert_eq!(ring.take().len(), 1);
    }

    #[test]
    fn chrome_instants_are_ordered_and_named() {
        let entries = vec![entry(0x1000), entry(0x1002)];
        let instants = chrome_instants(&entries, 3, 100);
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].name, "0x00001000: nop");
        assert_eq!(instants[0].track, 3);
        assert_eq!(instants[0].ts_us, 100);
        assert_eq!(instants[1].ts_us, 101);
    }

    #[test]
    fn trace_ring_below_capacity_is_in_order() {
        let mut ring = TraceRing::new();
        assert_eq!(ring.capacity(), DEFAULT_TRACE_CAPACITY);
        ring.push(entry(1));
        ring.push(entry(2));
        let entries = ring.take();
        assert_eq!(entries.iter().map(|e| e.ip).collect::<Vec<_>>(), vec![1, 2]);
    }
}
