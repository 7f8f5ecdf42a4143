//! Per-run VM counters.
//!
//! Every [`Machine`](crate::cpu::Machine) adds its executed
//! instructions, cache counters, snapshots, restores and profiler
//! samples to the tally of the [`scope`](crate::context::scope) it runs
//! in. Runners sum the tallies of the attempts they joined — the
//! campaign into `CampaignReport::vm`, the service into
//! `ServiceRound::vm` — so the totals count exactly the run's own
//! machines, whatever else the process runs concurrently. They belong
//! in run *metadata* (the campaign summary), never in deterministic
//! report bodies: the cache counters vary with the engine.

use std::ops::AddAssign;

use crate::trace::ExecStats;

/// VM counters summed over the machines of one scope or run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Instructions executed.
    pub instructions: u64,
    /// Decoded-instruction-cache hits.
    pub icache_hits: u64,
    /// Decoded-instruction-cache misses.
    pub icache_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Tier-2 superinstruction blocks compiled.
    pub tier2_compiled: u64,
    /// Tier-2 block-cache hits (block entries).
    pub tier2_hits: u64,
    /// Instructions retired inside tier-2 blocks.
    pub tier2_instructions: u64,
    /// Early exits from tier-2 blocks (fault, fuel, self-modifying
    /// store).
    pub tier2_side_exits: u64,
    /// Tier-2 blocks dropped on a failed generation check.
    pub tier2_invalidations: u64,
    /// Dynamic-transfer inline-cache hits (predicted chain entries).
    pub tier2_ic_hits: u64,
    /// Inline-cache probes that fell back to the full block lookup.
    pub tier2_ic_misses: u64,
    /// Predictions installed into inline caches after misses.
    pub tier2_ic_installs: u64,
    /// Inline caches gone megamorphic (prediction given up).
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

impl VmCounters {
    /// Adds what a machine's stats gained from `since` to `now` (the
    /// cache and tier-2 counters with them).
    pub(crate) fn add_stats(&mut self, now: &ExecStats, since: &ExecStats) {
        self.instructions += now.instructions.saturating_sub(since.instructions);
        self.icache_hits += now.icache_hits.saturating_sub(since.icache_hits);
        self.icache_misses += now.icache_misses.saturating_sub(since.icache_misses);
        self.tlb_hits += now.tlb_hits.saturating_sub(since.tlb_hits);
        self.tlb_misses += now.tlb_misses.saturating_sub(since.tlb_misses);
        self.tier2_compiled += now.tier2_compiled.saturating_sub(since.tier2_compiled);
        self.tier2_hits += now.tier2_hits.saturating_sub(since.tier2_hits);
        self.tier2_instructions += now
            .tier2_instructions
            .saturating_sub(since.tier2_instructions);
        self.tier2_side_exits += now.tier2_side_exits.saturating_sub(since.tier2_side_exits);
        self.tier2_invalidations += now
            .tier2_invalidations
            .saturating_sub(since.tier2_invalidations);
        self.tier2_ic_hits += now.tier2_ic_hits.saturating_sub(since.tier2_ic_hits);
        self.tier2_ic_misses += now.tier2_ic_misses.saturating_sub(since.tier2_ic_misses);
        self.tier2_ic_installs += now
            .tier2_ic_installs
            .saturating_sub(since.tier2_ic_installs);
        self.tier2_ic_megamorphic += now
            .tier2_ic_megamorphic
            .saturating_sub(since.tier2_ic_megamorphic);
    }

    /// Mean dirty pages copied per restore; `None` when no restore was
    /// counted.
    pub fn mean_dirty_pages(self) -> Option<f64> {
        (self.restores > 0).then(|| self.restore_dirty_pages as f64 / self.restores as f64)
    }

    /// Hit fraction of the decoded-instruction cache, in `[0, 1]`;
    /// `None` when no fetch was counted.
    pub fn icache_hit_rate(self) -> Option<f64> {
        rate(self.icache_hits, self.icache_misses)
    }

    /// Hit fraction of the TLBs, in `[0, 1]`; `None` when no access
    /// was counted.
    pub fn tlb_hit_rate(self) -> Option<f64> {
        rate(self.tlb_hits, self.tlb_misses)
    }
}

impl AddAssign for VmCounters {
    fn add_assign(&mut self, other: VmCounters) {
        self.instructions += other.instructions;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.tier2_compiled += other.tier2_compiled;
        self.tier2_hits += other.tier2_hits;
        self.tier2_instructions += other.tier2_instructions;
        self.tier2_side_exits += other.tier2_side_exits;
        self.tier2_invalidations += other.tier2_invalidations;
        self.tier2_ic_hits += other.tier2_ic_hits;
        self.tier2_ic_misses += other.tier2_ic_misses;
        self.tier2_ic_installs += other.tier2_ic_installs;
        self.tier2_ic_megamorphic += other.tier2_ic_megamorphic;
        self.snapshots += other.snapshots;
        self.restores += other.restores;
        self.restore_dirty_pages += other.restore_dirty_pages;
        self.restore_bytes += other.restore_bytes;
        self.prof_samples += other.prof_samples;
        self.prof_frames += other.prof_frames;
    }
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{scope, VmConfig};

    #[test]
    fn sums_and_rates() {
        let a = VmCounters {
            instructions: 100,
            icache_hits: 90,
            icache_misses: 10,
            restores: 4,
            restore_dirty_pages: 6,
            ..VmCounters::default()
        };
        let mut d = VmCounters::default();
        d += a;
        assert_eq!(d, a);
        assert_eq!(d.icache_hit_rate(), Some(0.9));
        assert_eq!(d.tlb_hit_rate(), None);
        assert_eq!(d.mean_dirty_pages(), Some(1.5));
        assert_eq!(VmCounters::default().mean_dirty_pages(), None);
        d += a;
        assert_eq!(d.instructions, 200);
        assert_eq!(d.restore_dirty_pages, 12);
    }

    #[test]
    fn concurrent_scopes_count_exactly_their_own_machines() {
        use crate::cpu::{Machine, RunOutcome};
        use crate::isa::{sys, Instr, Reg};
        use crate::mem::Perm;

        // Two machines run and drop on separate threads, each inside
        // its own scope: each tally holds exactly its own machine's
        // instructions, never the other's.
        let run_one = |loops: u32| {
            scope(&VmConfig::default(), None, || {
                let mut code = Vec::new();
                for _ in 0..loops {
                    Instr::Nop.encode(&mut code);
                }
                Instr::MovI {
                    dst: Reg::R0,
                    imm: 0,
                }
                .encode(&mut code);
                Instr::Sys(sys::EXIT).encode(&mut code);
                let mut m = Machine::new();
                m.mem_mut().map(0x1000, 0x1000, Perm::RX).unwrap();
                m.mem_mut().poke_bytes(0x1000, &code).unwrap();
                m.set_ip(0x1000);
                assert_eq!(m.run(10_000), RunOutcome::Halted(0));
                m.stats().instructions
            })
        };
        let t1 = std::thread::spawn(move || run_one(300));
        let t2 = std::thread::spawn(move || run_one(500));
        let (a, tally_a) = t1.join().expect("thread 1");
        let (b, tally_b) = t2.join().expect("thread 2");
        assert_eq!((a, b), (302, 502));
        assert_eq!(tally_a.instructions, a);
        assert_eq!(tally_b.instructions, b);
    }
}
