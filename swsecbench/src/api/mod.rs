//! Every call the benchmark makes into swsec.
//!
//! The workloads use only entry points the explicit-configuration
//! redesign keeps: no `set_default_*`, no process-wide VM counter banks
//! (`swsec_vm::counters`, `CampaignReport::vm`, `ServiceRound::vm`) and
//! no global compile cache. VM counts come from the `ExecStats` each
//! run returns. When that API changes, this module is the one to edit.

mod campaign;
mod fuzz;
mod replay;
mod serve;

use std::collections::BTreeMap;

use swsec_obs::span::SpanRecord;
use swsec_obs::SpanKind;

use crate::Workload;

/// The workload named `name`, sized by `seconds`, or `None` when there
/// is no such workload.
pub fn workload(name: &str, seed: u64, seconds: u32) -> Option<Box<dyn Workload>> {
    Some(match name {
        "campaign" => Box::new(campaign::Campaign::new(seed, seconds)),
        "fuzz" => Box::new(fuzz::Fuzz::new(seed, seconds)),
        "serve" => Box::new(serve::Serve::new(seed, seconds)),
        _ => return None,
    })
}

/// Worker threads for `campaign` and `serve`: one.
///
/// Both runners deal work onto per-worker queues and steal when their
/// own runs dry, with `lock(own).pop_front().or_else(|| lock(other)
/// .pop_back())`. The guard on the worker's own queue lives to the end
/// of that statement, so it is still held while the worker locks the
/// other queue: two workers running dry together each wait for the
/// other's lock forever. At 2 workers a campaign run of a few hundred
/// ops hung this way (both workers parked in `futex_wait`, no CPU).
/// One worker never steals. Raise this to 2 once the runners release
/// their own queue before stealing.
fn workers() -> usize {
    1
}

/// Wall time per span kind, summed over `tracks`, in µs: total
/// (`wall_dur_us`) and self (minus the direct children on its track).
#[derive(Debug, Default)]
struct SpanTimes {
    total_us: BTreeMap<&'static str, u64>,
    self_us: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
}

impl SpanTimes {
    fn add(&mut self, tracks: &[(u32, Vec<SpanRecord>)]) {
        for (_, records) in tracks {
            // Records are in `seq_open` order; a stack of open spans
            // finds each record's parent on its own track.
            let mut open: Vec<(usize, u64)> = Vec::new();
            let mut child_us = vec![0u64; records.len()];
            for (i, r) in records.iter().enumerate() {
                while open.last().is_some_and(|&(_, close)| close <= r.seq_open) {
                    open.pop();
                }
                if let Some(&(parent, _)) = open.last() {
                    child_us[parent] += r.wall_dur_us;
                }
                open.push((i, r.seq_close));
            }
            for (r, child) in records.iter().zip(child_us) {
                let name = r.kind.name();
                *self.total_us.entry(name).or_default() += r.wall_dur_us;
                *self.self_us.entry(name).or_default() += r.wall_dur_us.saturating_sub(child);
                *self.count.entry(name).or_default() += 1;
            }
        }
    }

    fn total_ms(&self, kind: SpanKind) -> f64 {
        self.total_us.get(kind.name()).copied().unwrap_or(0) as f64 / 1e3
    }

    fn self_ms(&self, kind: SpanKind) -> f64 {
        self.self_us.get(kind.name()).copied().unwrap_or(0) as f64 / 1e3
    }

    fn count(&self, kind: SpanKind) -> u64 {
        self.count.get(kind.name()).copied().unwrap_or(0)
    }
}

/// Wall time, in µs, during which at least one span of `kinds` was
/// open on any track.
fn covered_us(tracks: &[(u32, Vec<SpanRecord>)], kinds: &[SpanKind]) -> u64 {
    crate::measure::covered(
        tracks
            .iter()
            .flat_map(|(_, records)| records)
            .filter(|r| kinds.contains(&r.kind))
            .map(|r| (r.wall_start_us, r.wall_dur_us))
            .collect(),
    )
}

/// Durations of every span of `kind`, in µs.
fn durations_us(tracks: &[(u32, Vec<SpanRecord>)], kind: SpanKind) -> Vec<u64> {
    tracks
        .iter()
        .flat_map(|(_, records)| records)
        .filter(|r| r.kind == kind)
        .map(|r| r.wall_dur_us)
        .collect()
}

/// Median of `values` by nearest rank (0 when empty).
fn median(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[values.len().div_ceil(2) - 1] as f64
}

/// Sums of the `ExecStats` fields the VM layer metrics use.
#[derive(Debug, Default, Clone, Copy)]
struct VmTally {
    runs: u64,
    instructions: u64,
    tier2_instructions: u64,
    icache_hits: u64,
    icache_misses: u64,
}

impl VmTally {
    fn add(&mut self, stats: &swsec_vm::trace::ExecStats) {
        self.runs += 1;
        self.instructions += stats.instructions;
        self.tier2_instructions += stats.tier2_instructions;
        self.icache_hits += stats.icache_hits;
        self.icache_misses += stats.icache_misses;
    }

    fn merge(&mut self, other: &VmTally) {
        self.runs += other.runs;
        self.instructions += other.instructions;
        self.tier2_instructions += other.tier2_instructions;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
    }

    /// Records `vm.instructions` (mean per run), `vm.tier2.instr_share`
    /// and `vm.icache.hit_ratio`.
    fn report(&self, layers: &mut crate::Layers) {
        layers.set(
            "vm.instructions",
            self.instructions as f64 / self.runs.max(1) as f64,
        );
        layers.set(
            "vm.tier2.instr_share",
            self.tier2_instructions as f64 / self.instructions.max(1) as f64,
        );
        layers.set(
            "vm.icache.hit_ratio",
            self.icache_hits as f64 / (self.icache_hits + self.icache_misses).max(1) as f64,
        );
    }
}
