//! The campaign runner: every experiment, one pass, any number of
//! workers, byte-identical output — and fault-tolerant: a panicking,
//! stalling or flaky cell is contained, retried and reported, never
//! allowed to hang the pool or poison its locks.
//!
//! A *campaign* executes a selected set of [`Experiment`]s — by default
//! the full E1–E16 suite — by decomposing each into its independent
//! cells (the E3 matrix runs one cell per technique × configuration
//! pair, the E4 sweep one per brute-force campaign, …) and draining
//! the cell pool on a pool of worker threads.
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
//! Each cell attempt runs inline on a worker thread, watched by the
//! calling thread:
//!
//! * a **panic** is caught (`catch_unwind`) and recorded;
//! * an attempt that exceeds [`CampaignConfig::cell_deadline`] is
//!   abandoned (its worker is detached, retires once the attempt
//!   returns, and a fresh worker takes its place — the campaign cannot
//!   cancel arbitrary code, only stop waiting for it) and the cell
//!   recorded as timed out;
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swsec_obs::span::{self, SpanCollector, SpanRecord, SpanRecorder};
use swsec_obs::{Histogram, MetricsRegistry, SecurityEvent, SpanKind, SpanMask};
use swsec_rng::derive;
use swsec_vm::profile::Profiler;
use swsec_vm::trace::ExecStats;
use swsec_vm::VmConfig;

use crate::cache::{CacheStats, ProgramCache};
use crate::experiments::{registry, AnyCell, AnyExperiment};
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
    /// Wall-clock budget for one cell attempt, counted from the moment
    /// a worker starts it. An attempt that exceeds it is abandoned (its
    /// worker retires once the attempt returns, and a replacement
    /// worker takes over the queue) and the cell retried or recorded
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
    /// events go: installed as the VM context of every cell attempt
    /// (see [`swsec_vm::context`]). The engine never changes a rendered
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
    pub fn selected(&self) -> Vec<&'static dyn AnyExperiment> {
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
    /// The first attempt produced the cell's output.
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
    /// Called once per finished cell, on the thread that runs the
    /// campaign, in the order cells finish. A panic in the callback is
    /// contained like a cell panic.
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
    /// that reported back. Exactly the campaign's own machines — no
    /// other VM activity in the process, and no attempt abandoned at
    /// its deadline. Run metadata, never part of
    /// [`render`](Self::render): the cache counters vary with the
    /// engine.
    pub vm: ExecStats,
    /// Recorded spans per track, sorted by track then open sequence —
    /// empty unless [`CampaignTelemetry::spans`] was set. Sequence
    /// numbers are per-track logical clocks, so the recorded shape (and
    /// [`span_tree`](Self::span_tree)) is deterministic at any worker
    /// count; only the wall-clock fields vary run to run.
    pub spans: Vec<(u32, Vec<SpanRecord>)>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Worker threads spawned: [`workers`](Self::workers), plus one
    /// replacement per attempt abandoned at its deadline.
    pub threads_spawned: usize,
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
    ///   `cache.evictions`, and the `vm.*` counters of
    ///   [`vm`](Self::vm) (named by [`ExecStats::absorb_into`]);
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
        self.vm.absorb_into(registry);
        for cell in &self.cell_timings {
            registry.observe("campaign.cell_micros", cell.elapsed.as_micros() as u64);
        }
    }
}

/// What lands in a result slot once its cell resolves.
#[derive(Debug)]
struct SlotResult {
    /// The cell's output when it (eventually) succeeded.
    output: Option<AnyCell>,
    outcome: CellOutcome,
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

/// How a task run by a [`Runner`] resolved.
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

/// The one containment primitive of the campaign runner and the
/// service: runs tasks `0..n` on a pool of worker threads under a
/// per-attempt deadline, retrying a failed attempt (same inputs) up to
/// `retries` times; the last attempt decides the outcome.
///
/// A worker takes attempts from one shared queue and runs each inline,
/// under `vm` and `profiler` as its VM context ([`swsec_vm::context`]),
/// task `i`'s span recorder (track `i + 1` of `spans`) and
/// `catch_unwind`. It then reports the result and the attempt's VM
/// tally over a channel and moves on without waiting.
///
/// The calling thread is the only watchdog. It sleeps until the
/// earliest deadline of the attempts in flight, each counted from the
/// moment its attempt started, or for one full `deadline` when none is
/// in flight: no attempt that starts later can expire sooner. An
/// attempt past its deadline is abandoned — the runner cannot cancel
/// arbitrary code, only stop waiting for it. The flag passed to the
/// body turns `true` (a body that polls it can stop early), the worker
/// retires once the body returns, its result and tally are dropped, and
/// one replacement worker is spawned. Workers are detached, not scoped:
/// a scope's implicit join would block on a diverging body forever.
pub(crate) struct Runner<'a> {
    /// Thread-name prefix: workers are `{name}-0`, `{name}-1`, ….
    pub name: &'static str,
    /// Workers requested; `0` means one per available core. Clamped to
    /// `1..=n` for `n` tasks.
    pub workers: usize,
    /// Wall-clock budget of one attempt.
    pub deadline: Duration,
    /// Re-attempts of a failed task before its failure is recorded.
    pub retries: u32,
    /// The VM context of every attempt.
    pub vm: &'a VmConfig,
    /// Part of every attempt's VM context when set.
    pub profiler: Option<&'a Arc<Profiler>>,
    /// Where task `i` records its spans (track `i + 1`) when set.
    pub spans: Option<&'a Arc<SpanCollector>>,
}

/// What one [`Runner::run`] used and counted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunStats {
    /// Workers the run started with.
    pub workers: usize,
    /// Worker threads spawned: `workers`, plus one replacement per
    /// abandoned attempt.
    pub spawned: usize,
    /// The summed VM tallies of every attempt that reported back.
    pub vm: ExecStats,
}

/// Starts a named thread; the runner gets every thread through one.
type Spawn = fn(String, Box<dyn FnOnce() + Send>) -> std::io::Result<JoinHandle<()>>;

fn spawn_thread(name: String, work: Box<dyn FnOnce() + Send>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(work)
}

/// One attempt of a task, from the moment a worker took it.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    /// Attempts of `task` that failed before this one.
    failed: u32,
    started: Instant,
}

/// A reported attempt: its wall time, result and VM tally.
type Reported<T> = (Attempt, Duration, Result<T, String>, ExecStats);

/// The queue a run's workers share. Its lock also settles whether an
/// attempt in flight is reported by its worker or abandoned by the
/// watchdog: whichever takes it out of `running` first.
#[derive(Debug, Default)]
struct Queue {
    /// Attempts waiting for a worker: `(task, failed attempts so far)`.
    waiting: VecDeque<(usize, u32)>,
    /// Per spawned worker, the attempt it is running.
    running: Vec<Option<Attempt>>,
    /// Set once the run is over: idle workers exit.
    closed: bool,
}

/// Everything a run's workers share.
struct Work<F> {
    queue: Mutex<Queue>,
    /// Signalled when an attempt is queued or the queue closes.
    ready: Condvar,
    body: F,
    vm: VmConfig,
    profiler: Option<Arc<Profiler>>,
    recorders: Vec<Option<Arc<SpanRecorder>>>,
}

impl<F> Work<F> {
    /// Worker `me`'s loop: take an attempt, run it, report it, until
    /// the queue closes or the watchdog abandons an attempt of ours.
    fn serve<T>(&self, me: usize, abandoned: &AtomicBool, report: &Sender<Reported<T>>)
    where
        F: Fn(usize, &AtomicBool) -> Result<T, String>,
    {
        loop {
            let attempt = {
                let mut queue = lock_unpoisoned(&self.queue);
                loop {
                    if queue.closed {
                        return;
                    }
                    if let Some((task, failed)) = queue.waiting.pop_front() {
                        let started = Instant::now();
                        let attempt = Attempt {
                            task,
                            failed,
                            started,
                        };
                        queue.running[me] = Some(attempt);
                        break attempt;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let task = attempt.task;
            let run = || {
                catch_unwind(AssertUnwindSafe(|| (self.body)(task, abandoned)))
                    .unwrap_or_else(|payload| Err(panic_message(payload)))
            };
            let (result, tally) = swsec_vm::context::scope(&self.vm, self.profiler.clone(), || {
                match &self.recorders[task] {
                    Some(rec) => span::with_recorder(Arc::clone(rec), run),
                    None => run(),
                }
            });
            let elapsed = attempt.started.elapsed();
            {
                let mut queue = lock_unpoisoned(&self.queue);
                if abandoned.load(Ordering::Acquire) {
                    // A replacement has taken over: retire quietly.
                    return;
                }
                queue.running[me] = None;
            }
            if report.send((attempt, elapsed, result, tally)).is_err() {
                return;
            }
        }
    }
}

/// Closes the queue when dropped, so idle workers exit even if the
/// watchdog unwinds.
struct CloseOnDrop<'a, F>(&'a Work<F>);

impl<F> Drop for CloseOnDrop<'_, F> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.0.queue).closed = true;
        self.0.ready.notify_all();
    }
}

/// The watchdog's view of the workers it spawned.
struct Pool<T, F> {
    name: &'static str,
    spawn: Spawn,
    work: Arc<Work<F>>,
    report: Sender<Reported<T>>,
    /// Per spawned worker: its abandon flag, and its handle until the
    /// watchdog abandons it (an abandoned worker is never joined).
    workers: Vec<(Arc<AtomicBool>, Option<JoinHandle<()>>)>,
    /// Why the last spawn failed.
    spawn_error: Option<String>,
}

impl<T, F> Pool<T, F>
where
    T: Send + 'static,
    F: Fn(usize, &AtomicBool) -> Result<T, String> + Send + Sync + 'static,
{
    fn start_worker(&mut self) {
        let me = self.workers.len();
        let abandoned = Arc::new(AtomicBool::new(false));
        lock_unpoisoned(&self.work.queue).running.push(None);
        let (work, flag, report) = (
            Arc::clone(&self.work),
            Arc::clone(&abandoned),
            self.report.clone(),
        );
        let name = format!("{}-{me}", self.name);
        match (self.spawn)(
            name.clone(),
            Box::new(move || work.serve(me, &flag, &report)),
        ) {
            Ok(handle) => self.workers.push((abandoned, Some(handle))),
            Err(e) => {
                lock_unpoisoned(&self.work.queue).running.pop();
                self.spawn_error = Some(format!("could not spawn worker thread {name}: {e}"));
            }
        }
    }

    /// Abandons every attempt past its deadline at `now`; returns them.
    fn abandon_expired(&mut self, deadline: Duration, now: Instant) -> Vec<Attempt> {
        let mut queue = lock_unpoisoned(&self.work.queue);
        let mut expired = Vec::new();
        for (w, slot) in queue.running.iter_mut().enumerate() {
            let due = slot.and_then(|a| a.started.checked_add(deadline));
            if due.is_some_and(|due| due <= now) {
                expired.extend(slot.take());
                let (abandoned, handle) = &mut self.workers[w];
                abandoned.store(true, Ordering::Release);
                *handle = None;
            }
        }
        expired
    }
}

impl Runner<'_> {
    /// Runs tasks `0..tasks`: `body(task, abandoned)` once per attempt
    /// on a worker thread, and `resolved(task, outcome, busy)` on the
    /// calling thread once per task as it resolves. `busy` is the wall
    /// time of all the task's attempts, an abandoned one up to its
    /// abandonment.
    ///
    /// When a spawn fails, the workers already running carry on; with
    /// none left, every task still waiting resolves
    /// [`Resolved::Failed`] with the spawn error, so the run never
    /// hangs.
    pub(crate) fn run<T, F>(
        &self,
        tasks: usize,
        body: F,
        resolved: impl FnMut(usize, Resolved<T>, Duration),
    ) -> RunStats
    where
        T: Send + 'static,
        F: Fn(usize, &AtomicBool) -> Result<T, String> + Send + Sync + 'static,
    {
        self.run_spawning(spawn_thread, tasks, body, resolved)
    }

    fn run_spawning<T, F>(
        &self,
        spawn: Spawn,
        tasks: usize,
        body: F,
        mut resolved: impl FnMut(usize, Resolved<T>, Duration),
    ) -> RunStats
    where
        T: Send + 'static,
        F: Fn(usize, &AtomicBool) -> Result<T, String> + Send + Sync + 'static,
    {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        let workers = workers.clamp(1, tasks.max(1));
        let work = Arc::new(Work {
            queue: Mutex::new(Queue {
                waiting: (0..tasks).map(|task| (task, 0)).collect(),
                ..Queue::default()
            }),
            ready: Condvar::new(),
            body,
            vm: self.vm.clone(),
            profiler: self.profiler.cloned(),
            recorders: (0..tasks)
                .map(|task| self.spans.map(|c| c.recorder(task as u32 + 1)))
                .collect(),
        });
        let close = CloseOnDrop(&*work);
        let (report, reports) = channel();
        let mut pool = Pool {
            name: self.name,
            spawn,
            work: Arc::clone(&work),
            report,
            workers: Vec::new(),
            spawn_error: None,
        };
        for _ in 0..workers {
            pool.start_worker();
        }

        let mut vm = ExecStats::default();
        let mut busy = vec![Duration::ZERO; tasks];
        let mut unresolved = tasks;
        while unresolved > 0 {
            if pool.workers.iter().all(|(_, handle)| handle.is_none()) {
                // No worker is left to run what waits, and none has an
                // attempt in flight: fail the rest instead of waiting.
                let msg = pool.spawn_error.clone().unwrap_or_default();
                let stranded: Vec<_> = lock_unpoisoned(&work.queue).waiting.drain(..).collect();
                for (task, _) in stranded {
                    resolved(task, Resolved::Failed(msg.clone()), busy[task]);
                }
                break;
            }
            let wait = lock_unpoisoned(&work.queue)
                .running
                .iter()
                .flatten()
                .filter_map(|a| a.started.checked_add(self.deadline))
                .min()
                .map_or(self.deadline, |due| {
                    due.saturating_duration_since(Instant::now())
                });
            // Attempts that ended without a result: the error, or
            // `None` for an abandoned one.
            let mut ended = Vec::new();
            match reports.recv_timeout(wait) {
                Ok((attempt, elapsed, result, tally)) => {
                    vm += tally;
                    busy[attempt.task] += elapsed;
                    match result {
                        Ok(value) => {
                            let outcome = match attempt.failed {
                                0 => Resolved::Ok(value),
                                n => Resolved::Retried(n, value),
                            };
                            resolved(attempt.task, outcome, busy[attempt.task]);
                            unresolved -= 1;
                        }
                        Err(msg) => ended.push((attempt, Some(msg))),
                    }
                }
                Err(_) => {
                    let now = Instant::now();
                    for attempt in pool.abandon_expired(self.deadline, now) {
                        busy[attempt.task] += now - attempt.started;
                        pool.start_worker();
                        ended.push((attempt, None));
                    }
                }
            }
            for (attempt, error) in ended {
                if attempt.failed < self.retries {
                    lock_unpoisoned(&work.queue)
                        .waiting
                        .push_front((attempt.task, attempt.failed + 1));
                    work.ready.notify_one();
                    continue;
                }
                let outcome = match error {
                    Some(msg) => Resolved::Failed(msg),
                    None => Resolved::TimedOut,
                };
                resolved(attempt.task, outcome, busy[attempt.task]);
                unresolved -= 1;
            }
        }

        drop(close);
        let spawned = pool.workers.len();
        for handle in pool.workers.drain(..).filter_map(|(_, handle)| handle) {
            // Bodies run under `catch_unwind`; nothing else a worker
            // does can panic.
            let _ = handle.join();
        }
        RunStats {
            workers,
            spawned,
            vm,
        }
    }
}

/// Runs the selected experiments on a pool of workers and assembles
/// their reports.
///
/// Workers take cells from one shared queue in slot order. Which
/// worker runs a cell never changes its seed or its output slot, so
/// the assembled reports — and hence [`CampaignReport::render`] — are
/// identical for every worker count.
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
    exps: &[&'static dyn AnyExperiment],
    telemetry: &CampaignTelemetry,
) -> CampaignReport {
    let started = Instant::now();
    let collector = telemetry
        .spans
        .map(|mask| Arc::new(SpanCollector::new(mask)));
    let ctx = Arc::new(CampaignCtx::new());

    // Lay out one result slot per cell, experiment-major: slot `s` is
    // cell `layout[s].1` of `exps[layout[s].0]`.
    let cell_counts: Vec<usize> = exps.iter().map(|e| e.cells(cfg)).collect();
    let layout: Arc<[(usize, usize)]> = cell_counts
        .iter()
        .enumerate()
        .flat_map(|(exp, &cells)| (0..cells).map(move |cell| (exp, cell)))
        .collect();
    let total_slots = layout.len();

    // The campaign root span lives on track 0; the runner puts slot
    // `s` on track `s + 1`. Both are functions of the slot layout alone.
    let campaign_span = collector.as_ref().map(|c| {
        c.recorder(0)
            .enter_with(SpanKind::Campaign, || format!("{total_slots} cells"))
    });

    let body = {
        let (cfg, ctx, layout, exps) = (
            Arc::new(cfg.clone()),
            Arc::clone(&ctx),
            Arc::clone(&layout),
            exps.to_vec(),
        );
        move |slot: usize, _: &AtomicBool| {
            let (exp, cell) = layout[slot];
            let exp = exps[exp];
            let id = exp.id();
            let _cell = span::enter_with(SpanKind::Cell, || format!("{id} cell {cell}"));
            Ok(exp.run_cell_boxed(&cfg, &ctx, cell))
        }
    };
    let mut slots: Vec<Option<SlotResult>> = (0..total_slots).map(|_| None).collect();
    let mut busy = vec![Duration::ZERO; exps.len()];
    let mut cell_busy = vec![Duration::ZERO; total_slots];
    let mut completed = 0usize;
    let runner = Runner {
        name: "campaign",
        workers: cfg.workers,
        deadline: cfg.cell_deadline,
        retries: cfg.cell_retries,
        vm: &cfg.vm,
        profiler: telemetry.profiler.as_ref(),
        spans: collector.as_ref(),
    };
    let ran = runner.run(total_slots, body, |slot, resolved, elapsed| {
        let (exp, cell) = layout[slot];
        busy[exp] += elapsed;
        cell_busy[slot] = elapsed;
        let (output, outcome) = match resolved {
            Resolved::Ok(output) => (Some(output), CellOutcome::Ok),
            Resolved::Retried(n, output) => (Some(output), CellOutcome::Retried { n }),
            Resolved::Failed(msg) => (None, CellOutcome::Panicked { msg }),
            Resolved::TimedOut => (None, CellOutcome::TimedOut),
        };
        let ok = outcome.is_ok();
        if !ok {
            // Surface the failure on the run's sink, like any other
            // security-relevant event: the harness observing its own
            // failure model.
            if let Some(sink) = &cfg.vm.sink {
                let ev = SecurityEvent::CellFailed {
                    experiment: exps[exp].id().number(),
                    cell: cell as u32,
                };
                if sink.interests().contains(ev.mask_bit()) {
                    sink.record(&ev);
                }
            }
        }
        slots[slot] = Some(SlotResult { output, outcome });
        completed += 1;
        if let Some(progress) = telemetry.progress.as_ref() {
            let p = CellProgress {
                experiment: exps[exp].id(),
                cell,
                completed,
                total: total_slots,
                elapsed,
                ok,
            };
            // A panicking observer must not take the run down.
            let _ = catch_unwind(AssertUnwindSafe(|| progress(&p)));
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
    let mut results = slots.into_iter().zip(cell_busy);
    for (exp, &cells) in cell_counts.iter().enumerate() {
        let id = exps[exp].id();
        let mut outputs = Vec::with_capacity(cells);
        let mut failed: Vec<CellRecord> = Vec::new();
        for cell in 0..cells {
            let (result, elapsed) = results.next().expect("one slot per cell");
            let result = result.expect("the runner resolves every cell");
            let record = CellRecord {
                experiment: id,
                cell,
                outcome: result.outcome,
            };
            if let Some(output) = result.output {
                outputs.push(output);
            } else {
                failed.push(record.clone());
            }
            cells_records.push(record);
            cell_timings.push(CellTiming {
                experiment: id,
                cell,
                elapsed,
            });
        }
        // An experiment missing any cell gets a deterministic
        // placeholder: `assemble` is written against the full cell
        // layout and must never see partial data.
        let report = if failed.is_empty() {
            match catch_unwind(AssertUnwindSafe(|| exps[exp].assemble_report(cfg, outputs))) {
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
            busy: busy[exp],
        });
    }

    let report = CampaignReport {
        reports,
        cells: cells_records,
        assemble_panics,
        timings,
        cell_timings,
        cache: ctx.cache.stats(),
        vm: ran.vm,
        spans,
        workers: ran.workers,
        threads_spawned: ran.spawned,
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
    use std::sync::atomic::AtomicUsize;

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
        let runs: Vec<CampaignReport> = [1, 3]
            .into_iter()
            .map(|workers| run_campaign(&CampaignConfig { workers, ..tiny() }))
            .collect();
        assert_eq!(runs[0].render(), runs[1].render());
        // A clean run spawns exactly its workers.
        for run in &runs {
            assert_eq!(run.threads_spawned, run.workers);
        }
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
        let h = registry
            .histogram("campaign.cell_micros")
            .expect("histogram");
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
        let recs: Vec<_> = report
            .cells
            .iter()
            .map(|c| (c.experiment, c.cell))
            .collect();
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
        assert_eq!(
            *outcome(FaultyExperiment::STALL_CELL),
            CellOutcome::TimedOut
        );
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
        // state restarts, so every run sees the same failure pattern.
        // At one worker the stalling cell holds the only worker until
        // the watchdog abandons it and a replacement takes over.
        let runs: Vec<CampaignReport> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                run_campaign_on(
                    &faulty_cfg(workers),
                    &[FaultyExperiment::fresh()],
                    &CampaignTelemetry::none(),
                )
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.render(), runs[0].render());
            assert_eq!(run.cells, runs[0].cells);
        }
        // One replacement per abandoned attempt: the stalling cell
        // times out twice (`cell_retries: 1`).
        for run in &runs {
            assert_eq!(
                run.threads_spawned,
                run.workers + 2,
                "at {} workers",
                run.workers
            );
        }
    }

    /// Spawns the first worker only; every replacement is refused.
    fn first_only(name: String, work: Box<dyn FnOnce() + Send>) -> std::io::Result<JoinHandle<()>> {
        if name.ends_with("-0") {
            spawn_thread(name, work)
        } else {
            Err(std::io::Error::other("refused"))
        }
    }

    #[test]
    fn a_failed_replacement_spawn_fails_the_rest_instead_of_hanging() {
        // Task 0 holds the only worker until the watchdog abandons it;
        // its replacement cannot be spawned.
        let vm = VmConfig::default();
        let runner = Runner {
            name: "test",
            workers: 1,
            deadline: Duration::from_millis(100),
            retries: 0,
            vm: &vm,
            profiler: None,
            spans: None,
        };
        let mut outcomes = Vec::new();
        let ran = runner.run_spawning(
            first_only,
            3,
            |task, abandoned| {
                while task == 0 && !abandoned.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(task)
            },
            |task, resolved, _| outcomes.push((task, format!("{resolved:?}"))),
        );
        assert_eq!(ran.spawned, 1);
        outcomes.sort();
        let msg = "Failed(\"could not spawn worker thread test-1: refused\")".to_string();
        assert_eq!(
            outcomes,
            vec![(0, "TimedOut".to_string()), (1, msg.clone()), (2, msg)]
        );
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
