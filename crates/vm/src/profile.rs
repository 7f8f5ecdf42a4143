//! Deterministic sampling profiler: guest flamegraphs from retired
//! instructions, not wall time.
//!
//! A [`Profiler`] samples every `interval` **retired instructions** —
//! a pure function of the executed program, never of the host clock —
//! so the same seed produces the same profile at any worker count, on
//! any machine, and in fork vs rebuild serve modes. Each sample
//! records the guest PC plus a call-stack walk: the shadow stack when
//! the machine has one (exact), otherwise a bounded scan of the
//! `[bp] → saved bp / [bp+4] → return address` frame chain.
//!
//! # Tier-2 interaction
//!
//! Profiling never forces tier 1. The tier-2 block engine keeps
//! running between samples; the machine clips each block chain's fuel
//! budget to the distance to the next sample point, so the sampled
//! instruction itself always retires in a tier-1 step with an exact PC
//! and architectural stack. Retired-instruction attribution from
//! blocks is folded in bulk at chain exit — one subtraction per chain,
//! nothing per instruction.
//!
//! # Cost model
//!
//! The machine's hot path carries a single countdown decrement per
//! tier-1 step (initialized to `u64::MAX` when no profiler is attached
//! or sampling is disabled, so there is no `Option` check); everything
//! else lives behind a `#[cold]` function. The vmbench profiling leg
//! gates the disabled-profiler overhead at the bench stand's 3% noise
//! floor (design target ≤1%; the measured cost is ~0%) and 1/4096
//! sampling at ≤10%.

use std::collections::BTreeMap;
use std::sync::Mutex;

use swsec_obs::SymbolTable;

/// Sampling interval used by the stock integrations (one sample per
/// 4096 retired instructions — fine enough to profile a 10⁵-instruction
/// attempt, coarse enough to stay within the ≤10% overhead gate).
pub const DEFAULT_INTERVAL: u64 = 4096;

/// A shared, deterministic sampling profile. Clone the
/// [`Arc`](std::sync::Arc) onto as many machines as you like; sample
/// counts merge associatively, so aggregation order (worker
/// scheduling) cannot change the totals.
#[derive(Debug)]
pub struct Profiler {
    interval: u64,
    samples: Mutex<BTreeMap<Vec<u32>, u64>>,
}

impl Profiler {
    /// A profiler sampling every `interval` retired instructions.
    /// `interval` 0 means *attached but disabled*: machines carry the
    /// profiler (and may be enabled later via a fresh attach) but never
    /// sample — the configuration the ≤1% overhead gate measures.
    #[must_use]
    pub fn new(interval: u64) -> Profiler {
        Profiler {
            interval,
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    /// The sampling interval (0 = disabled).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The countdown a machine arms itself with: `u64::MAX` when
    /// sampling is disabled (the countdown then never reaches zero).
    pub(crate) fn countdown_init(&self) -> u64 {
        if self.interval == 0 {
            u64::MAX
        } else {
            self.interval
        }
    }

    /// Records one sample of a root-first stack (return addresses from
    /// the outermost caller inward, then the sampled PC as the leaf).
    pub fn record(&self, stack: &[u32]) {
        let mut samples = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        *samples.entry(stack.to_vec()).or_insert(0) += 1;
    }

    /// Total samples recorded so far.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .sum()
    }

    /// Every distinct stack with its sample count, in deterministic
    /// (lexicographic) stack order.
    #[must_use]
    pub fn samples(&self) -> Vec<(Vec<u32>, u64)> {
        self.samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(stack, n)| (stack.clone(), *n))
            .collect()
    }

    /// Discards every recorded sample (the interval is kept).
    pub fn clear(&self) {
        self.samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// Renders the profile in Brendan Gregg's `.folded` flamegraph
    /// format — one `frame;frame;leaf count` line per distinct stack,
    /// sorted lexicographically. Frames resolve through `symbols`;
    /// unresolved addresses render as `0x{addr:x}`. Deterministic: a
    /// pure function of the recorded samples and the table.
    #[must_use]
    pub fn folded(&self, symbols: &SymbolTable) -> String {
        let mut lines: Vec<String> = self
            .samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(stack, count)| {
                let frames: Vec<String> = stack.iter().map(|addr| symbols.frame(*addr)).collect();
                format!("{} {count}", frames.join(";"))
            })
            .collect();
        lines.sort();
        let mut out = String::with_capacity(lines.len() * 32);
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merges_identical_stacks() {
        let prof = Profiler::new(100);
        prof.record(&[0x10, 0x20]);
        prof.record(&[0x10, 0x20]);
        prof.record(&[0x10, 0x30]);
        assert_eq!(prof.total_samples(), 3);
        assert_eq!(
            prof.samples(),
            vec![(vec![0x10, 0x20], 2), (vec![0x10, 0x30], 1)]
        );
    }

    #[test]
    fn folded_symbolizes_and_falls_back() {
        let prof = Profiler::new(100);
        prof.record(&[0x1000, 0x1044]);
        prof.record(&[0x1000, 0x1044]);
        prof.record(&[0x9999]);
        let table = SymbolTable::from_labels(vec![("main", 0x1000u32), ("handle", 0x1040)], 0x1080);
        assert_eq!(prof.folded(&table), "0x9999 1\nmain;handle 2\n");
    }

    #[test]
    fn interval_zero_is_disabled() {
        let prof = Profiler::new(0);
        assert_eq!(prof.countdown_init(), u64::MAX);
        assert_eq!(Profiler::new(4096).countdown_init(), 4096);
    }

    #[test]
    fn clear_drops_samples() {
        let prof = Profiler::new(1);
        prof.record(&[1]);
        prof.clear();
        assert_eq!(prof.total_samples(), 0);
        assert_eq!(prof.folded(&SymbolTable::empty()), "");
    }
}
