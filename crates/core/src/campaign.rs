//! The campaign runner: every experiment, one pass, any number of
//! workers, byte-identical output — and fault-tolerant: a panicking,
//! stalling or flaky cell is contained, retried and reported, never
//! allowed to hang the pool or poison its locks.
//!
//! A *campaign* executes a selected set of [`Experiment`]s — by default
//! the full E1–E16 suite — by decomposing each into its independent
//! cells (the E3 matrix runs one cell per technique × configuration
//! pair, the E4 sweep one per brute-force campaign, …) and draining
//! the cell pool on a work-stealing thread pool.
//!
//! Three properties make the result reproducible:
//!
//! * every random choice in a cell derives from
//!   [`CampaignConfig::master_seed`] through the SplitMix64 path
//!   `derive(master, [experiment, cell])` — a pure function of the
//!   *indices*, never of scheduling order;
//! * cell outputs land in pre-assigned slots and are assembled in
//!   experiment/cell order;
//! * [`CampaignReport::render`] is a pure function of the assembled
//!   [`Report`]s and the typed cell outcomes — wall-clock timings,
//!   worker count and cache counters are reported separately via
//!   [`CampaignReport::summary`].
//!
//! Hence `render()` is byte-identical for any worker count, which
//! `tests/campaign.rs` asserts for 1, 4 and 8 workers.
//!
//! ## The failure model
//!
//! Each cell attempt runs on its own watchdogged thread:
//!
//! * a **panic** is caught (`catch_unwind`) and recorded;
//! * a cell that exceeds [`CampaignConfig::cell_deadline`] is
//!   abandoned (the attempt thread is detached and leaked — the
//!   campaign cannot cancel arbitrary code, only stop waiting for it)
//!   and recorded as timed out;
//! * each failed cell is retried up to
//!   [`CampaignConfig::cell_retries`] times with the *same* derived
//!   seed, so a retry can only change the result for cells that are
//!   impure by design (the fault-demo flaky cell) or flaky by
//!   accident — which is exactly what the `Retried` outcome flags.
//!
//! Outcomes surface three ways: typed [`CellRecord`]s on the report
//! (with a rendered "failed cells" table — present only when something
//! failed, so healthy renders are unchanged), a
//! [`SecurityEvent::CellFailed`] event per failed cell on the run's
//! sink ([`CampaignConfig::vm`]), and `campaign.cells_failed` / `campaign.cells_retried`
//! counters via [`CampaignReport::absorb_into`]. Experiments with
//! failed cells get a deterministic placeholder report instead of
//! feeding partial data to `assemble`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use swsec_obs::span::{self, SpanCollector, SpanRecord, SpanRecorder};
use swsec_obs::{Histogram, MetricsRegistry, SecurityEvent, SpanKind, SpanMask};
use swsec_rng::derive;
use swsec_vm::counters::VmCounters;
use swsec_vm::profile::Profiler;
use swsec_vm::VmConfig;

use crate::cache::{CacheStats, ProgramCache};
use crate::experiments::{registry, Experiment};
use crate::report::{ExperimentId, Report, Table};

/// Locks a mutex, recovering the guard even if a previous holder
/// panicked. Every lock in the runner protects plain data whose
/// invariants hold between operations (a deque of tasks, an `Option`
/// slot), so a poisoned lock carries no torn state — propagating the
/// poison would only turn one contained cell panic into a cascade that
/// takes down every worker behind it.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The next task for worker `me` of a work-stealing pool: the front of
/// its own deque, else the back of the first other deque that has one
/// (stealing from the back keeps stolen work coarse).
///
/// At most one deque is locked at a time. Holding the own-deque guard
/// while locking a victim's would let two workers that run dry together
/// each wait on the other's deque forever.
pub(crate) fn next_task<T>(queues: &[Mutex<VecDeque<T>>], me: usize) -> Option<T> {
    let own = lock_unpoisoned(&queues[me]).pop_front();
    own.or_else(|| {
        (1..queues.len()).find_map(|d| lock_unpoisoned(&queues[(me + d) % queues.len()]).pop_back())
    })
}

/// Everything a campaign run depends on. One master seed drives every
/// stochastic driver in the suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// The root of every random choice made anywhere in the campaign.
    pub master_seed: u64,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Entropy levels the E4 ASLR sweep visits.
    pub aslr_bits_levels: Vec<u8>,
    /// Brute-force campaigns averaged per E4 entropy level.
    pub aslr_trials: u32,
    /// Oracle-query budget per E14 canary recovery.
    pub oracle_budget: u32,
    /// Experiments to run; empty means the full registry.
    pub experiments: Vec<ExperimentId>,
    /// Wall-clock budget for one cell attempt; an attempt that exceeds
    /// it is abandoned and the cell recorded
    /// [`CellOutcome::TimedOut`]. Generous by default — the deadline
    /// exists to keep a diverging cell from hanging the campaign, not
    /// to race healthy ones.
    pub cell_deadline: Duration,
    /// How many times a failed cell is re-attempted (same seed) before
    /// its failure is recorded. `0` disables retry.
    pub cell_retries: u32,
    /// Serve guessing-attack attempts from a boot-time snapshot
    /// ([`crate::harness::ServeMode::Fork`], the default) instead of
    /// rebuilding the machine per attempt. A pure speedup: renders are
    /// byte-identical either way.
    pub fork_server: bool,
    /// How the campaign's machines execute and where their security
    /// events go: installed on every cell attempt thread (see
    /// [`swsec_vm::context`]). The engine never changes a rendered
    /// byte; the sink also receives a [`SecurityEvent::CellFailed`]
    /// per failed cell.
    pub vm: VmConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            master_seed: 0x2016_DA7E, // DATE 2016
            workers: 0,
            aslr_bits_levels: vec![2, 4, 6, 8],
            aslr_trials: 6,
            oracle_budget: 2048,
            experiments: Vec::new(),
            cell_deadline: Duration::from_secs(120),
            cell_retries: 1,
            fork_server: true,
            vm: VmConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// A configuration sized for tests and smoke runs: fewer and
    /// smaller E4 brute-force campaigns, everything else intact.
    pub fn quick() -> CampaignConfig {
        CampaignConfig {
            aslr_bits_levels: vec![2, 4],
            aslr_trials: 3,
            ..CampaignConfig::default()
        }
    }

    /// The experiments this campaign will run, in presentation order.
    pub fn selected(&self) -> Vec<&'static dyn Experiment> {
        registry()
            .iter()
            .copied()
            .filter(|e| self.experiments.is_empty() || self.experiments.contains(&e.id()))
            .collect()
    }

    /// The seed for cell `cell` of experiment `id`: a pure function of
    /// the indices, so results never depend on which worker ran what.
    pub fn cell_seed(&self, id: ExperimentId, cell: usize) -> u64 {
        derive(self.master_seed, &[id.seed_path(), cell as u64])
    }

    /// How guessing-attack cells execute their attempts (snapshot
    /// restore vs per-attempt rebuild), from [`Self::fork_server`].
    pub fn serve_mode(&self) -> crate::harness::ServeMode {
        crate::harness::ServeMode::from_fork_flag(self.fork_server)
    }
}

/// Shared per-campaign state handed to every cell: today the compile
/// cache, so each distinct victim/options pair compiles exactly once
/// per campaign no matter how many cells launch it.
#[derive(Debug, Default)]
pub struct CampaignCtx {
    /// The campaign-wide program cache.
    pub cache: ProgramCache,
}

impl CampaignCtx {
    /// A fresh context with an empty cache.
    pub fn new() -> CampaignCtx {
        CampaignCtx::default()
    }
}

/// How one cell ended, after containment and retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The first attempt produced the cell's tables.
    Ok,
    /// A later attempt succeeded after `n` failed ones. The result is
    /// used normally; the outcome flags the cell as flaky.
    Retried {
        /// How many attempts failed before the one that succeeded.
        n: u32,
    },
    /// Every attempt panicked; `msg` is the last panic payload.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        msg: String,
    },
    /// Every attempt outlived [`CampaignConfig::cell_deadline`] and
    /// was abandoned.
    TimedOut,
}

impl CellOutcome {
    /// Whether the cell ultimately produced a result.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok | CellOutcome::Retried { .. })
    }

    /// A deterministic one-line description, used in rendered tables.
    pub fn label(&self) -> String {
        match self {
            CellOutcome::Ok => "ok".to_string(),
            CellOutcome::Retried { n } => format!("ok after {n} failed attempt(s)"),
            CellOutcome::Panicked { msg } => format!("panicked: {msg}"),
            CellOutcome::TimedOut => "timed out".to_string(),
        }
    }
}

/// The typed outcome of one cell, in slot (experiment-major) order on
/// [`CampaignReport::cells`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The experiment the cell belongs to.
    pub experiment: ExperimentId,
    /// The cell index within that experiment.
    pub cell: usize,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

/// The boxed per-cell progress callback type held by
/// [`CampaignTelemetry::progress`].
pub type ProgressFn = Box<dyn Fn(&CellProgress) + Send + Sync>;

/// A progress notification for one finished cell, delivered to
/// [`CampaignTelemetry::progress`] from whichever worker ran it.
#[derive(Debug, Clone, Copy)]
pub struct CellProgress {
    /// The experiment the cell belongs to.
    pub experiment: ExperimentId,
    /// The cell index within that experiment.
    pub cell: usize,
    /// Cells finished so far, across the whole campaign (including
    /// this one). Monotone per run, but the order cells finish in is
    /// scheduling-dependent.
    pub completed: usize,
    /// Total cells in the campaign.
    pub total: usize,
    /// How long this cell took (including failed attempts).
    pub elapsed: Duration,
    /// Whether the cell produced a result (see [`CellOutcome::is_ok`]).
    pub ok: bool,
}

/// Optional observability hooks for a campaign run, kept apart from
/// [`CampaignConfig`] so the config stays a plain comparable value.
///
/// Attaching telemetry never changes what the campaign computes:
/// [`CampaignReport::render`] is byte-identical with or without it.
#[derive(Default)]
pub struct CampaignTelemetry {
    /// Called once per finished cell, from the worker that ran it.
    /// Callbacks run concurrently, so the callee synchronises its own
    /// state (printing a progress line needs nothing extra). A panic
    /// in the callback is contained like a cell panic.
    pub progress: Option<ProgressFn>,
    /// Registry absorbing the run's counters and per-cell time
    /// histogram when the campaign finishes (see
    /// [`absorb_into`](CampaignReport::absorb_into) for the names).
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// When set, the run records hierarchical spans of the selected
    /// kinds: a campaign root on track 0, each cell's spans on track
    /// `slot + 1` — tracks follow the deterministic slot layout, never
    /// the worker that happened to run the cell, so
    /// [`CampaignReport::span_tree`] is byte-identical at any worker
    /// count.
    pub spans: Option<SpanMask>,
    /// When set, part of every cell attempt's VM context (see
    /// [`swsec_vm::context`]): every machine a cell builds samples into
    /// it, concurrent VM activity on other threads never does, and the
    /// aggregated profile is deterministic (sampling is keyed to
    /// retired instructions, and counts merge associatively).
    pub profiler: Option<Arc<Profiler>>,
}

impl std::fmt::Debug for CampaignTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignTelemetry")
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("metrics", &self.metrics.is_some())
            .field("spans", &self.spans)
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

impl CampaignTelemetry {
    /// Telemetry that observes nothing (what [`run_campaign`] uses).
    pub fn none() -> CampaignTelemetry {
        CampaignTelemetry::default()
    }

    /// Sets the per-cell progress callback.
    pub fn on_progress(
        mut self,
        f: impl Fn(&CellProgress) + Send + Sync + 'static,
    ) -> CampaignTelemetry {
        self.progress = Some(Box::new(f));
        self
    }

    /// Sets the registry that absorbs the run's metrics.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> CampaignTelemetry {
        self.metrics = Some(registry);
        self
    }

    /// Enables span recording for the masked kinds
    /// (see [`SpanMask::DEFAULT`] for the stock selection).
    pub fn with_spans(mut self, mask: SpanMask) -> CampaignTelemetry {
        self.spans = Some(mask);
        self
    }

    /// Attaches a deterministic sampling profiler to every machine the
    /// run builds.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> CampaignTelemetry {
        self.profiler = Some(profiler);
        self
    }
}

/// Where one cell's time went, captured per cell (finer-grained than
/// [`ExperimentTiming`], which sums these per experiment).
#[derive(Debug, Clone, Copy)]
pub struct CellTiming {
    /// The experiment the cell belongs to.
    pub experiment: ExperimentId,
    /// The cell index within that experiment.
    pub cell: usize,
    /// Busy time for that one cell.
    pub elapsed: Duration,
}

/// Where one experiment's time went (worker-busy time, summed across
/// its cells — not wall-clock, which overlaps under parallelism).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentTiming {
    /// The experiment.
    pub id: ExperimentId,
    /// Number of cells executed.
    pub cells: usize,
    /// Total busy time across all its cells.
    pub busy: Duration,
}

/// The output of [`run_campaign`]: the assembled reports plus the
/// non-deterministic run metadata, kept strictly apart.
#[derive(Debug)]
pub struct CampaignReport {
    /// One report per selected experiment, in presentation order. An
    /// experiment with failed cells gets a deterministic placeholder
    /// report (its `assemble` is never fed partial data).
    pub reports: Vec<Report>,
    /// The typed outcome of every cell, in slot (experiment-major)
    /// order.
    pub cells: Vec<CellRecord>,
    /// Experiments whose `assemble` itself panicked (contained like a
    /// cell panic), with the panic message.
    pub assemble_panics: Vec<(ExperimentId, String)>,
    /// Per-experiment busy time (excluded from [`render`](Self::render)).
    pub timings: Vec<ExperimentTiming>,
    /// Per-cell busy time, in slot (experiment-major) order. Like every
    /// timing, excluded from [`render`](Self::render).
    pub cell_timings: Vec<CellTiming>,
    /// Compile-cache counters at the end of the run.
    pub cache: CacheStats,
    /// VM counters (instructions, icache, TLB, tier 2, snapshots,
    /// profiler samples): the sum of the tallies of every cell attempt
    /// the runner joined. Exactly the campaign's own machines — no
    /// other VM activity in the process, and no attempt abandoned at
    /// its deadline. Run metadata, never part of
    /// [`render`](Self::render): the cache counters vary with the
    /// engine.
    pub vm: VmCounters,
    /// Recorded spans per track, sorted by track then open sequence —
    /// empty unless [`CampaignTelemetry::spans`] was set. Sequence
    /// numbers are per-track logical clocks, so the recorded shape (and
    /// [`span_tree`](Self::span_tree)) is deterministic at any worker
    /// count; only the wall-clock fields vary run to run.
    pub spans: Vec<(u32, Vec<SpanRecord>)>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock for the whole campaign.
    pub elapsed: Duration,
}

impl CampaignReport {
    /// The cells that failed (after retries), in slot order.
    pub fn failed_cells(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| !c.outcome.is_ok()).collect()
    }

    /// Whether every cell produced a result and every `assemble` ran.
    pub fn all_ok(&self) -> bool {
        self.assemble_panics.is_empty() && self.cells.iter().all(|c| c.outcome.is_ok())
    }

    /// The failed-cells table (empty when [`all_ok`](Self::all_ok)).
    pub fn failed_table(&self) -> Table {
        let mut t = Table::new("failed cells", &["experiment", "cell", "outcome"]);
        for rec in self.failed_cells() {
            t.row(vec![
                rec.experiment.to_string(),
                rec.cell.to_string(),
                rec.outcome.label(),
            ]);
        }
        for (id, msg) in &self.assemble_panics {
            t.row(vec![
                id.to_string(),
                "assemble".to_string(),
                format!("panicked: {msg}"),
            ]);
        }
        t
    }

    /// Renders every report, deterministically: a pure function of the
    /// structured results, independent of worker count and timing.
    /// When any cell failed, a "failed cells" table follows the
    /// reports; healthy campaigns render exactly as before.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render());
            out.push('\n');
        }
        if !self.all_ok() {
            out.push_str(&self.failed_table().to_string());
            out.push('\n');
        }
        out
    }

    /// The deterministic rendering of the recorded span forest (see
    /// [`spans`](Self::spans)): indentation from nesting depth,
    /// `[seq a..b]` logical-clock intervals, no wall-clock. Empty when
    /// span recording was off.
    pub fn span_tree(&self) -> String {
        span::render_tree(&self.spans)
    }

    /// The run-metadata table: busy time per experiment, cache
    /// counters, worker count. Deliberately *not* part of
    /// [`render`](Self::render) — it varies run to run.
    pub fn summary(&self) -> Table {
        let pct = |r: Option<f64>| match r {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        };
        let mean_dirty = match self.vm.mean_dirty_pages() {
            Some(mean) => format!("{mean:.1}"),
            None => "n/a".to_string(),
        };
        let mut cell_hist = Histogram::new();
        for cell in &self.cell_timings {
            cell_hist.observe(cell.elapsed.as_micros() as u64);
        }
        let mut t = Table::new(
            format!(
                "campaign: {} workers, {:.2}s wall, {} failed cells, \
                 cache {} hits / {} misses / {} parses, \
                 vm {} instr, icache {} hit, tlb {} hit, \
                 tier2 {} blocks / {} entries / {} instr, \
                 snapshot {} restores ({} dirty pages/restore), \
                 cell p50/p90/p99 {}/{}/{}us, prof {} samples",
                self.workers,
                self.elapsed.as_secs_f64(),
                self.failed_cells().len(),
                self.cache.hits,
                self.cache.misses,
                self.cache.parses,
                self.vm.instructions,
                pct(self.vm.icache_hit_rate()),
                pct(self.vm.tlb_hit_rate()),
                self.vm.tier2_compiled,
                self.vm.tier2_hits,
                self.vm.tier2_instructions,
                self.vm.restores,
                mean_dirty,
                cell_hist.quantile_upper_bound(0.50),
                cell_hist.quantile_upper_bound(0.90),
                cell_hist.quantile_upper_bound(0.99),
                self.vm.prof_samples,
            ),
            &["experiment", "cells", "busy"],
        );
        for timing in &self.timings {
            t.row(vec![
                timing.id.to_string(),
                timing.cells.to_string(),
                format!("{:.1}ms", timing.busy.as_secs_f64() * 1e3),
            ]);
        }
        t
    }

    /// Folds the run's metadata into a metrics registry:
    ///
    /// * counters `campaign.runs`, `campaign.cells`, `campaign.workers`,
    ///   `campaign.cells_failed`, `campaign.cells_retried`,
    ///   `cache.hits` / `cache.misses` / `cache.parses` /
    ///   `cache.evictions`, and
    ///   `vm.instructions` / `vm.icache.hits` / `vm.icache.misses` /
    ///   `vm.tlb.hits` / `vm.tlb.misses`,
    ///   `vm.tier2.blocks_compiled` / `vm.tier2.block_hits` /
    ///   `vm.tier2.instructions` / `vm.tier2.side_exits` /
    ///   `vm.tier2.invalidations`, `vm.tier2.ic_hits` /
    ///   `vm.tier2.ic_misses` / `vm.tier2.ic_installs` /
    ///   `vm.tier2.ic_megamorphic`, `vm.snapshot.snapshots` /
    ///   `vm.snapshot.restores` / `vm.snapshot.dirty_pages` /
    ///   `vm.snapshot.bytes_copied`, and `vm.prof.samples` /
    ///   `vm.prof.frames`;
    /// * histogram `campaign.cell_micros` with one observation per cell.
    ///
    /// Called automatically by [`run_campaign_with`] when
    /// [`CampaignTelemetry::metrics`] is set.
    pub fn absorb_into(&self, registry: &MetricsRegistry) {
        registry.counter("campaign.runs", 1);
        registry.counter("campaign.cells", self.cell_timings.len() as u64);
        registry.counter("campaign.workers", self.workers as u64);
        registry.counter("campaign.cells_failed", self.failed_cells().len() as u64);
        registry.counter(
            "campaign.cells_retried",
            self.cells
                .iter()
                .filter(|c| matches!(c.outcome, CellOutcome::Retried { .. }))
                .count() as u64,
        );
        registry.counter("cache.hits", self.cache.hits);
        registry.counter("cache.misses", self.cache.misses);
        registry.counter("cache.parses", self.cache.parses);
        registry.counter("cache.evictions", self.cache.evictions);
        registry.counter("vm.instructions", self.vm.instructions);
        registry.counter("vm.icache.hits", self.vm.icache_hits);
        registry.counter("vm.icache.misses", self.vm.icache_misses);
        registry.counter("vm.tlb.hits", self.vm.tlb_hits);
        registry.counter("vm.tlb.misses", self.vm.tlb_misses);
        registry.counter("vm.tier2.blocks_compiled", self.vm.tier2_compiled);
        registry.counter("vm.tier2.block_hits", self.vm.tier2_hits);
        registry.counter("vm.tier2.instructions", self.vm.tier2_instructions);
        registry.counter("vm.tier2.side_exits", self.vm.tier2_side_exits);
        registry.counter("vm.tier2.invalidations", self.vm.tier2_invalidations);
        registry.counter("vm.tier2.ic_hits", self.vm.tier2_ic_hits);
        registry.counter("vm.tier2.ic_misses", self.vm.tier2_ic_misses);
        registry.counter("vm.tier2.ic_installs", self.vm.tier2_ic_installs);
        registry.counter("vm.tier2.ic_megamorphic", self.vm.tier2_ic_megamorphic);
        registry.counter("vm.snapshot.snapshots", self.vm.snapshots);
        registry.counter("vm.snapshot.restores", self.vm.restores);
        registry.counter("vm.snapshot.dirty_pages", self.vm.restore_dirty_pages);
        registry.counter("vm.snapshot.bytes_copied", self.vm.restore_bytes);
        registry.counter("vm.prof.samples", self.vm.prof_samples);
        registry.counter("vm.prof.frames", self.vm.prof_frames);
        for cell in &self.cell_timings {
            registry.observe("campaign.cell_micros", cell.elapsed.as_micros() as u64);
        }
    }
}

/// One schedulable unit: cell `cell` of `exps[exp]`, writing `slot`.
#[derive(Debug, Clone, Copy)]
struct Task {
    exp: usize,
    cell: usize,
    slot: usize,
}

/// What lands in a result slot once its cell resolves.
#[derive(Debug)]
struct SlotResult {
    /// The cell's tables when it (eventually) succeeded.
    tables: Option<Vec<Table>>,
    outcome: CellOutcome,
    /// The summed tallies of the cell's joined attempts.
    vm: VmCounters,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How a [`contain`]ed task resolved.
#[derive(Debug)]
pub(crate) enum Resolved<T> {
    /// The first attempt succeeded.
    Ok(T),
    /// An attempt succeeded after this many failed ones.
    Retried(u32, T),
    /// The last attempt failed (a panic or an error); its message.
    Failed(String),
    /// The last attempt outlived the deadline and was abandoned.
    TimedOut,
}

/// Runs `body` on a dedicated attempt thread named `name` under
/// `deadline`, retrying a failed attempt (same inputs) up to `retries`
/// times; the last attempt decides the outcome. The one containment
/// primitive of the campaign runner and the service.
///
/// Each attempt thread installs `vm` and `profiler` as its VM context
/// ([`swsec_vm::context`]) and `recorder` as its span recorder, and
/// catches the body's panics. A finished attempt — succeeded, failed
/// or panicked — is joined and its VM tally summed into the returned
/// counters. An attempt past the deadline is abandoned: the runner
/// cannot cancel arbitrary code, only stop waiting for it, so its
/// thread is left to finish alone (a scoped thread would force the
/// opposite choice — the scope's implicit join would block on a
/// diverging body forever). Its tally is never summed, and the flag
/// passed to `body` turns `true` so a body that polls it can stop
/// early.
pub(crate) fn contain<T, F>(
    name: &str,
    deadline: Duration,
    retries: u32,
    vm: &VmConfig,
    profiler: Option<&Arc<Profiler>>,
    recorder: Option<&Arc<SpanRecorder>>,
    body: F,
) -> (Resolved<T>, VmCounters)
where
    T: Send + 'static,
    F: Fn(&AtomicBool) -> Result<T, String> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let mut total = VmCounters::default();
    let mut failed_attempts = 0u32;
    loop {
        let (tx, rx) = channel();
        let abandoned = Arc::new(AtomicBool::new(false));
        let (flag, body) = (Arc::clone(&abandoned), Arc::clone(&body));
        let (cfg, profiler, recorder) = (vm.clone(), profiler.cloned(), recorder.cloned());
        let spawned = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let attempt = || {
                    catch_unwind(AssertUnwindSafe(|| body(&flag)))
                        .unwrap_or_else(|payload| Err(panic_message(payload)))
                };
                let result = swsec_vm::context::scope(&cfg, profiler, || match recorder {
                    Some(rec) => span::with_recorder(rec, attempt),
                    None => attempt(),
                });
                // The receiver may have given up on us (deadline): a
                // failed send is then the expected way for this thread
                // to retire.
                let _ = tx.send(result);
            });
        let result = match spawned {
            Ok(handle) => match rx.recv_timeout(deadline) {
                Ok((result, tally)) => {
                    let _ = handle.join();
                    total += tally;
                    Some(result)
                }
                Err(_) => {
                    abandoned.store(true, Ordering::Release);
                    None
                }
            },
            Err(e) => Some(Err(format!("could not spawn thread {name}: {e}"))),
        };
        let give_up = failed_attempts >= retries;
        let resolved = match result {
            Some(Ok(value)) if failed_attempts == 0 => Resolved::Ok(value),
            Some(Ok(value)) => Resolved::Retried(failed_attempts, value),
            Some(Err(msg)) if give_up => Resolved::Failed(msg),
            None if give_up => Resolved::TimedOut,
            Some(Err(_)) | None => {
                failed_attempts += 1;
                continue;
            }
        };
        return (resolved, total);
    }
}

/// Resolves one cell under [`contain`].
fn run_cell(
    cfg: &Arc<CampaignConfig>,
    ctx: &Arc<CampaignCtx>,
    exp: &'static dyn Experiment,
    cell: usize,
    recorder: Option<&Arc<SpanRecorder>>,
    profiler: Option<&Arc<Profiler>>,
) -> SlotResult {
    let id = exp.id();
    let body = {
        let (cfg, ctx) = (Arc::clone(cfg), Arc::clone(ctx));
        move |_: &AtomicBool| {
            let _cell = span::enter_with(SpanKind::Cell, || format!("{id} cell {cell}"));
            Ok(exp.run_cell(&cfg, &ctx, cell))
        }
    };
    let (resolved, vm) = contain(
        &format!("cell-{id}-{cell}"),
        cfg.cell_deadline,
        cfg.cell_retries,
        &cfg.vm,
        profiler,
        recorder,
        body,
    );
    let (tables, outcome) = match resolved {
        Resolved::Ok(tables) => (Some(tables), CellOutcome::Ok),
        Resolved::Retried(n, tables) => (Some(tables), CellOutcome::Retried { n }),
        Resolved::Failed(msg) => (None, CellOutcome::Panicked { msg }),
        Resolved::TimedOut => (None, CellOutcome::TimedOut),
    };
    SlotResult {
        tables,
        outcome,
        vm,
    }
}

/// Runs the selected experiments across a work-stealing pool and
/// assembles their reports.
///
/// The cell pool is distributed round-robin over per-worker deques;
/// each worker pops its own deque from the front and steals from the
/// back of the others when it runs dry. Stealing only changes *who*
/// runs a cell, never its seed or its output slot, so the assembled
/// reports — and hence [`CampaignReport::render`] — are identical for
/// every worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_with(cfg, &CampaignTelemetry::none())
}

/// [`run_campaign`] with observability hooks: a live per-cell progress
/// callback and a metrics registry that absorbs the run's counters and
/// per-cell timing histogram. The hooks observe the run without
/// influencing it — the rendered reports stay byte-identical.
pub fn run_campaign_with(cfg: &CampaignConfig, telemetry: &CampaignTelemetry) -> CampaignReport {
    run_campaign_on(cfg, &cfg.selected(), telemetry)
}

/// [`run_campaign_with`] over an explicit experiment list instead of
/// the registry selection — how test-only experiments (e.g. the
/// fault demo, [`crate::faults::FaultyExperiment`]) enter a campaign.
/// `cfg.experiments` is ignored; everything else applies as usual.
pub fn run_campaign_on(
    cfg: &CampaignConfig,
    exps: &[&'static dyn Experiment],
    telemetry: &CampaignTelemetry,
) -> CampaignReport {
    let started = Instant::now();
    let collector = telemetry.spans.map(|mask| Arc::new(SpanCollector::new(mask)));
    let shared_cfg = Arc::new(cfg.clone());
    let ctx = Arc::new(CampaignCtx::new());

    // Lay out one result slot per cell, experiment-major.
    let cell_counts: Vec<usize> = exps.iter().map(|e| e.cells(cfg).max(1)).collect();
    let mut tasks = Vec::new();
    let mut slot = 0usize;
    for (exp, &cells) in cell_counts.iter().enumerate() {
        for cell in 0..cells {
            tasks.push(Task { exp, cell, slot });
            slot += 1;
        }
    }
    let total_slots = slot;

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        cfg.workers
    };
    let workers = workers.clamp(1, total_slots.max(1));

    // The campaign root span lives on track 0; cells get track
    // `slot + 1` below. Both are functions of the slot layout alone.
    let campaign_span = collector.as_ref().map(|c| {
        c.recorder(0)
            .enter_with(SpanKind::Campaign, || format!("{total_slots} cells"))
    });

    let queues: Vec<Mutex<VecDeque<Task>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        lock_unpoisoned(&queues[i % workers]).push_back(task);
    }

    let slots: Vec<Mutex<Option<SlotResult>>> =
        (0..total_slots).map(|_| Mutex::new(None)).collect();
    let busy_nanos: Vec<AtomicU64> = (0..exps.len()).map(|_| AtomicU64::new(0)).collect();
    let cell_nanos: Vec<AtomicU64> = (0..total_slots).map(|_| AtomicU64::new(0)).collect();
    let completed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let busy_nanos = &busy_nanos;
            let cell_nanos = &cell_nanos;
            let completed = &completed;
            let shared_cfg = &shared_cfg;
            let ctx = &ctx;
            let collector = &collector;
            scope.spawn(move || while let Some(task) = next_task(queues, me) {
                let exp = exps[task.exp];
                // The track index comes from the slot, not the worker:
                // stealing moves *who* runs a cell, never where its
                // spans land.
                let recorder = collector
                    .as_ref()
                    .map(|c| c.recorder(task.slot as u32 + 1));
                let cell_started = Instant::now();
                let result = run_cell(
                    shared_cfg,
                    ctx,
                    exp,
                    task.cell,
                    recorder.as_ref(),
                    telemetry.profiler.as_ref(),
                );
                let elapsed = cell_started.elapsed();
                let nanos = elapsed.as_nanos() as u64;
                busy_nanos[task.exp].fetch_add(nanos, Ordering::Relaxed);
                cell_nanos[task.slot].store(nanos, Ordering::Relaxed);
                let ok = result.outcome.is_ok();
                if !ok {
                    // Surface the failure on the run's sink, like any
                    // other security-relevant event: the harness
                    // observing its own failure model.
                    if let Some(sink) = &shared_cfg.vm.sink {
                        let ev = SecurityEvent::CellFailed {
                            experiment: exp.id().number(),
                            cell: task.cell as u32,
                        };
                        if sink.interests().contains(ev.mask_bit()) {
                            sink.record(&ev);
                        }
                    }
                }
                *lock_unpoisoned(&slots[task.slot]) = Some(result);
                if let Some(progress) = telemetry.progress.as_ref() {
                    let p = CellProgress {
                        experiment: exp.id(),
                        cell: task.cell,
                        completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                        total: total_slots,
                        elapsed,
                        ok,
                    };
                    // A panicking observer must not take a worker down.
                    let _ = catch_unwind(AssertUnwindSafe(|| progress(&p)));
                }
            });
        }
    });

    drop(campaign_span);
    let spans = collector.as_ref().map(|c| c.take()).unwrap_or_default();

    // Assemble in experiment order from the slot layout.
    let mut reports = Vec::with_capacity(exps.len());
    let mut cells_records = Vec::with_capacity(total_slots);
    let mut assemble_panics = Vec::new();
    let mut timings = Vec::with_capacity(exps.len());
    let mut cell_timings = Vec::with_capacity(total_slots);
    let mut vm = VmCounters::default();
    let mut base = 0usize;
    for (exp, &cells) in cell_counts.iter().enumerate() {
        let id = exps[exp].id();
        let mut outputs: Vec<Vec<Table>> = Vec::with_capacity(cells);
        let mut failed: Vec<CellRecord> = Vec::new();
        for cell in 0..cells {
            let result = lock_unpoisoned(&slots[base + cell])
                .take()
                .unwrap_or(SlotResult {
                    tables: None,
                    // Unreachable in practice (workers drain every
                    // queue), but a lost slot must degrade to a failed
                    // cell, not a harness panic.
                    outcome: CellOutcome::Panicked {
                        msg: "cell result missing (worker lost)".to_string(),
                    },
                    vm: VmCounters::default(),
                });
            vm += result.vm;
            let record = CellRecord {
                experiment: id,
                cell,
                outcome: result.outcome,
            };
            if let Some(tables) = result.tables {
                outputs.push(tables);
            } else {
                failed.push(record.clone());
            }
            cells_records.push(record);
            cell_timings.push(CellTiming {
                experiment: id,
                cell,
                elapsed: Duration::from_nanos(cell_nanos[base + cell].load(Ordering::Relaxed)),
            });
        }
        base += cells;
        // An experiment missing any cell gets a deterministic
        // placeholder: `assemble` is written against the full cell
        // layout and must never see partial data.
        let report = if failed.is_empty() {
            match catch_unwind(AssertUnwindSafe(|| exps[exp].assemble(cfg, outputs))) {
                Ok(report) => report,
                Err(payload) => {
                    let msg = panic_message(payload);
                    assemble_panics.push((id, msg.clone()));
                    placeholder_report(id, exps[exp].title(), &[], Some(&msg))
                }
            }
        } else {
            placeholder_report(id, exps[exp].title(), &failed, None)
        };
        reports.push(report);
        timings.push(ExperimentTiming {
            id,
            cells,
            busy: Duration::from_nanos(busy_nanos[exp].load(Ordering::Relaxed)),
        });
    }

    let report = CampaignReport {
        reports,
        cells: cells_records,
        assemble_panics,
        timings,
        cell_timings,
        cache: ctx.cache.stats(),
        vm,
        spans,
        workers,
        elapsed: started.elapsed(),
    };
    if let Some(registry) = telemetry.metrics.as_deref() {
        report.absorb_into(registry);
    }
    report
}

/// The deterministic stand-in report for an experiment whose cells (or
/// `assemble`) failed.
fn placeholder_report(
    id: ExperimentId,
    title: &str,
    failed: &[CellRecord],
    assemble_msg: Option<&str>,
) -> Report {
    let mut report = Report::new(id, title);
    let mut t = Table::new("results unavailable", &["cell", "outcome"]);
    for rec in failed {
        t.row(vec![rec.cell.to_string(), rec.outcome.label()]);
    }
    if let Some(msg) = assemble_msg {
        t.row(vec!["assemble".to_string(), format!("panicked: {msg}")]);
    }
    report.tables.push(t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultyExperiment;

    fn tiny() -> CampaignConfig {
        // E10 + E12 are fast, deterministic, and exercise two cells'
        // worth of scheduling.
        CampaignConfig {
            experiments: vec![ExperimentId::new(10), ExperimentId::new(12)],
            ..CampaignConfig::quick()
        }
    }

    /// A config whose deadline trips the fault demo's stall cell
    /// quickly while leaving healthy cells untouched.
    fn faulty_cfg(workers: usize) -> CampaignConfig {
        CampaignConfig {
            workers,
            cell_deadline: Duration::from_millis(250),
            cell_retries: 1,
            ..CampaignConfig::quick()
        }
    }

    #[test]
    fn reports_come_back_in_presentation_order() {
        let mut cfg = tiny();
        // Selection order in the config must not matter.
        cfg.experiments.reverse();
        let r = run_campaign(&cfg);
        assert_eq!(r.reports.len(), 2);
        assert_eq!(r.reports[0].id, ExperimentId::new(10));
        assert_eq!(r.reports[1].id, ExperimentId::new(12));
    }

    #[test]
    fn worker_count_does_not_change_the_render() {
        let mut cfg = tiny();
        cfg.workers = 1;
        let one = run_campaign(&cfg).render();
        cfg.workers = 3;
        let three = run_campaign(&cfg).render();
        assert_eq!(one, three);
    }

    #[test]
    fn cell_seeds_are_per_experiment_and_per_cell() {
        let cfg = CampaignConfig::default();
        let a = cfg.cell_seed(ExperimentId::new(3), 0);
        let b = cfg.cell_seed(ExperimentId::new(3), 1);
        let c = cfg.cell_seed(ExperimentId::new(4), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cfg.cell_seed(ExperimentId::new(3), 0));
    }

    #[test]
    fn empty_selection_means_everything() {
        let cfg = CampaignConfig::default();
        assert_eq!(cfg.selected().len(), registry().len());
    }

    #[test]
    fn telemetry_observes_without_changing_the_render() {
        let cfg = tiny();
        let baseline = run_campaign(&cfg).render();

        let seen = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = CampaignTelemetry::none()
            .on_progress({
                let seen = seen.clone();
                move |p| {
                    assert!(p.completed >= 1 && p.completed <= p.total);
                    assert!(p.ok);
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            })
            .with_metrics(registry.clone());
        let report = run_campaign_with(&cfg, &telemetry);

        // Same bytes with hooks attached.
        assert_eq!(report.render(), baseline);

        // The callback fired once per cell, and every cell has a timing.
        let total: usize = report.timings.iter().map(|t| t.cells).sum();
        assert_eq!(seen.load(Ordering::Relaxed), total);
        assert_eq!(report.cell_timings.len(), total);

        // Every cell resolved Ok and nothing reads as failed.
        assert!(report.all_ok());
        assert!(report.failed_cells().is_empty());

        // The registry absorbed the run.
        assert_eq!(registry.counter_value("campaign.runs"), 1);
        assert_eq!(registry.counter_value("campaign.cells"), total as u64);
        assert_eq!(registry.counter_value("campaign.cells_failed"), 0);
        assert!(registry.counter_value("vm.instructions") > 0);
        let h = registry.histogram("campaign.cell_micros").expect("histogram");
        assert_eq!(h.count(), total as u64);
    }

    #[test]
    fn per_cell_timings_follow_the_slot_layout() {
        let cfg = tiny();
        let report = run_campaign(&cfg);
        // Experiment-major order, cells numbered from zero within each.
        let mut expect = Vec::new();
        for t in &report.timings {
            for cell in 0..t.cells {
                expect.push((t.id, cell));
            }
        }
        let got: Vec<_> = report
            .cell_timings
            .iter()
            .map(|c| (c.experiment, c.cell))
            .collect();
        assert_eq!(got, expect);
        // The outcome records follow the same layout.
        let recs: Vec<_> = report.cells.iter().map(|c| (c.experiment, c.cell)).collect();
        assert_eq!(recs, expect);
        // Per-experiment busy time is the sum of its cells (both sides
        // were computed from the same per-cell nanos).
        for t in &report.timings {
            let sum: Duration = report
                .cell_timings
                .iter()
                .filter(|c| c.experiment == t.id)
                .map(|c| c.elapsed)
                .sum();
            assert_eq!(sum, t.busy);
        }
    }

    #[test]
    fn panicking_and_stalling_cells_are_contained_and_reported() {
        let cfg = faulty_cfg(2);
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = CampaignTelemetry::none().with_metrics(registry.clone());
        let report = run_campaign_on(&cfg, &[FaultyExperiment::fresh()], &telemetry);

        // The campaign ran to completion and typed every outcome.
        assert_eq!(report.cells.len(), 4);
        let outcome = |cell: usize| &report.cells[cell].outcome;
        assert!(
            matches!(outcome(FaultyExperiment::PANIC_CELL),
                     CellOutcome::Panicked { msg } if msg.contains("injected cell panic")),
            "got {:?}",
            outcome(FaultyExperiment::PANIC_CELL)
        );
        assert_eq!(*outcome(FaultyExperiment::STALL_CELL), CellOutcome::TimedOut);
        assert_eq!(*outcome(FaultyExperiment::OK_CELL), CellOutcome::Ok);
        assert_eq!(
            *outcome(FaultyExperiment::FLAKY_CELL),
            CellOutcome::Retried { n: 1 }
        );

        assert!(!report.all_ok());
        assert_eq!(report.failed_cells().len(), 2);

        // The render names the failures and the placeholder report.
        let render = report.render();
        assert!(render.contains("## failed cells"));
        assert!(render.contains("injected cell panic"));
        assert!(render.contains("timed out"));
        assert!(render.contains("results unavailable"));

        // The metrics registry saw the failure and retry counts.
        assert_eq!(registry.counter_value("campaign.cells_failed"), 2);
        assert_eq!(registry.counter_value("campaign.cells_retried"), 1);
    }

    #[test]
    fn failure_renders_are_deterministic_across_worker_counts() {
        // Fresh experiment instances per run: the flaky cell's attempt
        // state restarts, so both runs see the same failure pattern.
        let one = run_campaign_on(
            &faulty_cfg(1),
            &[FaultyExperiment::fresh()],
            &CampaignTelemetry::none(),
        );
        let four = run_campaign_on(
            &faulty_cfg(4),
            &[FaultyExperiment::fresh()],
            &CampaignTelemetry::none(),
        );
        assert_eq!(one.render(), four.render());
        assert_eq!(one.cells, four.cells);
    }

    #[test]
    fn cell_failures_reach_the_run_event_sink() {
        use swsec_obs::CountingSink;

        let sink = Arc::new(CountingSink::new());
        let before = sink.counts().cell_failed;
        let mut cfg = faulty_cfg(2);
        cfg.vm.sink = Some(sink.clone());
        let report = run_campaign_on(
            &cfg,
            &[FaultyExperiment::fresh()],
            &CampaignTelemetry::none(),
        );
        // Panic + timeout cells each emitted one CellFailed event, and
        // no other run reaches this run's sink.
        assert_eq!(sink.counts().cell_failed, before + 2);
        assert_eq!(report.failed_cells().len(), 2);
    }

    #[test]
    fn progress_callback_panics_are_contained() {
        let cfg = tiny();
        let telemetry = CampaignTelemetry::none().on_progress(|_| panic!("observer bug"));
        // Must complete — and with every cell Ok, since only the
        // observer (not any cell) panicked.
        let report = run_campaign_with(&cfg, &telemetry);
        assert!(report.all_ok());
    }

    #[test]
    fn lock_unpoisoned_recovers_from_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7);
    }

    #[test]
    fn concurrent_campaigns_each_report_exactly_their_own_vm_counts() {
        // Each campaign sums its own cell attempts' tallies, so two
        // campaigns running side by side each report exactly what one
        // campaign reports alone.
        let solo = run_campaign(&tiny()).vm.instructions;
        assert!(solo > 0, "tiny campaigns execute VM instructions");
        let a = std::thread::spawn(|| run_campaign(&tiny()).vm.instructions);
        let b = std::thread::spawn(|| run_campaign(&tiny()).vm.instructions);
        assert_eq!(a.join().expect("campaign a"), solo);
        assert_eq!(b.join().expect("campaign b"), solo);
    }
}
