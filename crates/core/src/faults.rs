//! Deterministic fault injection for the campaign failure model.
//!
//! Two things live here:
//!
//! * [`FaultPlan`] — a seed-derived recipe for *where* to inject
//!   faults: which crash point to hit during a continuity save, which
//!   bit of a sealed blob or VM data page to flip. Every choice is a
//!   pure function of the plan seed and a derivation path, so the E16
//!   crash-matrix experiment is byte-identical at any worker count and
//!   reproducible from the campaign master seed alone.
//! * [`FaultyExperiment`] — a test-only experiment (reserved id
//!   [`ExperimentId::FAULT_DEMO`], never registered) whose cells
//!   panic, stall and flake **on purpose**, to exercise the runner's
//!   fault tolerance end to end: `catch_unwind` containment, the
//!   per-cell deadline watchdog, and bounded retry.
//!
//! The line between the two: `FaultPlan` injects faults into the
//! *system under test* (the continuity protocol, sealed storage, VM
//! memory); `FaultyExperiment` injects faults into the *harness
//! itself*.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use swsec_pma::CrashPoint;
use swsec_rng::{derive, Rng, SplitMix64};

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::report::{ExperimentId, Table};

/// Every [`CrashPoint`], in the fixed order the E16 crash matrix
/// enumerates them.
pub const CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::None,
    CrashPoint::BeforeStore,
    CrashPoint::AfterStore,
    CrashPoint::AfterBump,
];

/// Human-readable label for a crash point, used in report rows.
pub fn crash_point_label(p: CrashPoint) -> &'static str {
    match p {
        CrashPoint::None => "none",
        CrashPoint::BeforeStore => "before-store",
        CrashPoint::AfterStore => "after-store",
        CrashPoint::AfterBump => "after-bump",
    }
}

/// A seed-derived fault-injection recipe.
///
/// Every method is a pure function of `(plan seed, path)` — same
/// inputs, same fault — so experiments that consume a plan stay
/// deterministic under the campaign's any-worker-count contract.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan rooted at `seed` (typically a
    /// [`CampaignConfig::cell_seed`] so each cell injects independent
    /// faults).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed }
    }

    fn rng(&self, path: &[u64]) -> SplitMix64 {
        SplitMix64::new(derive(self.seed, path))
    }

    /// The `(byte, bit)` to flip for `path`. The byte is an unreduced
    /// draw — callers (or [`FaultPlan::flip_blob_bit`]) reduce it
    /// modulo the target length.
    pub fn bit_fault(&self, path: &[u64]) -> (usize, u8) {
        let mut rng = self.rng(path);
        let byte = rng.next_u64() as usize;
        let bit = (rng.next_u64() % 8) as u8;
        (byte, bit)
    }

    /// Flips one plan-chosen bit of `buf`; returns the `(byte, bit)`
    /// actually flipped, or `None` for an empty buffer.
    pub fn flip_blob_bit(&self, buf: &mut [u8], path: &[u64]) -> Option<(usize, u8)> {
        if buf.is_empty() {
            return None;
        }
        let (byte, bit) = self.bit_fault(path);
        let byte = byte % buf.len();
        buf[byte] ^= 1 << bit;
        Some((byte, bit))
    }

    /// Deterministic 32-byte key material for `path` (platform roots,
    /// module keys, sealing keys).
    pub fn key_bytes(&self, path: &[u64]) -> [u8; 32] {
        let mut rng = self.rng(path);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        key
    }

    /// Fills `buf` with deterministic bytes for `path` (data-page
    /// contents, state payloads).
    pub fn fill(&self, buf: &mut [u8], path: &[u64]) {
        self.rng(path).fill_bytes(buf);
    }
}

/// The test-only fault-demo experiment: four cells that exercise every
/// [`CellOutcome`](crate::campaign::CellOutcome) variant.
///
/// | cell | behaviour | expected outcome |
/// |---|---|---|
/// | [`PANIC_CELL`](FaultyExperiment::PANIC_CELL) | panics on every attempt | `Panicked` |
/// | [`STALL_CELL`](FaultyExperiment::STALL_CELL) | sleeps ~2 s in short slices | `TimedOut` under a short deadline, `Ok` otherwise |
/// | [`OK_CELL`](FaultyExperiment::OK_CELL) | returns immediately | `Ok` |
/// | [`FLAKY_CELL`](FaultyExperiment::FLAKY_CELL) | panics on its first attempt only | `Retried { n: 1 }` when retries are enabled |
///
/// The flaky cell deliberately violates the `run_cell` purity contract
/// (it keeps per-instance attempt state) — that is the point: a pure
/// cell can never succeed on retry. Use [`FaultyExperiment::fresh`]
/// to get an independent instance per campaign run so two runs see the
/// same first-attempt/second-attempt sequence.
///
/// It is **not** in [`crate::experiments::registry`]: its id is the
/// reserved [`ExperimentId::FAULT_DEMO`], and it only enters a
/// campaign through
/// [`run_campaign_on`](crate::campaign::run_campaign_on).
pub struct FaultyExperiment {
    attempts: AtomicU32,
}

impl FaultyExperiment {
    /// The cell that panics on every attempt.
    pub const PANIC_CELL: usize = 0;
    /// The cell that stalls for ~2 s (bounded, so a leaked watchdogged
    /// thread exits on its own rather than spinning forever).
    pub const STALL_CELL: usize = 1;
    /// The cell that succeeds immediately.
    pub const OK_CELL: usize = 2;
    /// The cell that panics once, then succeeds.
    pub const FLAKY_CELL: usize = 3;

    /// How long [`STALL_CELL`](FaultyExperiment::STALL_CELL) runs.
    /// Deadlines meant to trip it should sit well under this;
    /// deadlines meant to pass it, well over.
    pub const STALL: Duration = Duration::from_secs(2);

    /// A fresh instance with untouched attempt state, leaked to the
    /// `'static` lifetime the campaign runner requires. One instance
    /// per campaign run keeps runs comparable (the flaky cell fails on
    /// exactly the first attempt of each run). The leak is a few bytes
    /// per call and test-only by design.
    pub fn fresh() -> &'static FaultyExperiment {
        Box::leak(Box::new(FaultyExperiment {
            attempts: AtomicU32::new(0),
        }))
    }
}

impl Experiment for FaultyExperiment {
    /// The cell's note.
    type Cell = &'static str;
    /// The notes, in cell order.
    type Output = Vec<&'static str>;

    fn id(&self) -> ExperimentId {
        ExperimentId::FAULT_DEMO
    }

    fn title(&self) -> &'static str {
        "Fault demo — cells that panic, stall and flake"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        4
    }

    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, cell: usize) -> &'static str {
        match cell {
            FaultyExperiment::PANIC_CELL => panic!("injected cell panic (fault demo)"),
            FaultyExperiment::STALL_CELL => {
                // Sleep in slices: if the watchdog gave up on us and
                // leaked the thread, it still terminates shortly.
                let start = Instant::now();
                while start.elapsed() < FaultyExperiment::STALL {
                    std::thread::sleep(Duration::from_millis(10));
                }
                "stall finished"
            }
            FaultyExperiment::OK_CELL => "ok",
            FaultyExperiment::FLAKY_CELL => {
                if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected flaky failure (first attempt)");
                }
                "ok after retry"
            }
            other => unreachable!("fault demo has 4 cells, got {other}"),
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<&'static str>) -> Vec<&'static str> {
        cells
    }

    fn tables(&self, notes: &Vec<&'static str>) -> Vec<Table> {
        notes
            .iter()
            .enumerate()
            .map(|(cell, note)| {
                let mut t = Table::new("fault-demo cell", &["cell", "note"]);
                t.row(vec![cell.to_string(), note.to_string()]);
                t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_path_sensitive() {
        let plan = FaultPlan::new(0xFEED);
        assert_eq!(plan.bit_fault(&[1, 2]), plan.bit_fault(&[1, 2]));
        assert_ne!(plan.bit_fault(&[1, 2]), plan.bit_fault(&[2, 1]));
        assert_ne!(
            FaultPlan::new(1).key_bytes(&[0]),
            FaultPlan::new(2).key_bytes(&[0])
        );
    }

    #[test]
    fn blob_flip_changes_exactly_one_bit() {
        let plan = FaultPlan::new(7);
        let mut buf = vec![0u8; 64];
        let (byte, bit) = plan.flip_blob_bit(&mut buf, &[3]).expect("non-empty");
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(buf[byte], 1 << bit);
        assert_eq!(plan.flip_blob_bit(&mut [], &[3]), None);
    }

    #[test]
    fn fill_is_reproducible() {
        let plan = FaultPlan::new(42);
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        plan.fill(&mut a, &[9]);
        plan.fill(&mut b, &[9]);
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 16]);
    }

    #[test]
    fn faulty_experiment_cells_behave_as_labelled() {
        let exp = FaultyExperiment::fresh();
        let cfg = CampaignConfig::default();
        let ctx = CampaignCtx::new();
        // OK cell succeeds.
        assert_eq!(exp.run_cell(&cfg, &ctx, FaultyExperiment::OK_CELL), "ok");
        // Flaky cell: first attempt panics, second succeeds.
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exp.run_cell(&cfg, &ctx, FaultyExperiment::FLAKY_CELL)
        }));
        assert!(first.is_err());
        let second = exp.run_cell(&cfg, &ctx, FaultyExperiment::FLAKY_CELL);
        assert_eq!(second, "ok after retry");
        // Panic cell always panics.
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exp.run_cell(&cfg, &ctx, FaultyExperiment::PANIC_CELL)
        }));
        assert!(p.is_err());
    }
}
