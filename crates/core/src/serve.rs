//! `swsec-serve`: campaign-as-a-service.
//!
//! The batch campaign runner ([`crate::campaign`]) answers "run these
//! experiments once and exit". A *remote* attacker in the paper's
//! model is the opposite shape: many concurrent clients throwing
//! attack attempts at long-lived victims, whose resistance is measured
//! in sustained attempts/sec and tail latency, not single-shot
//! experiment tables. [`CampaignService`] is that production shape,
//! fully in-process (no network dependency):
//!
//! * **a persistent job queue** — tenants [`submit`](CampaignService::submit)
//!   attack-attempt jobs; [`run`](CampaignService::run) drains the
//!   backlog on the campaign runner's worker pool and the service lives on,
//!   queue, tenants and warm state intact, for the next round;
//! * **multi-tenant sessions** — each tenant owns a seed namespace
//!   (job seeds derive from the tenant seed and the tenant-local job
//!   index, so one tenant's results are independent of every other
//!   tenant's traffic), a backlog quota, a priority, and its own slice
//!   of the rendered report;
//! * **a bounded warm pool of [`ForkServer`]s** — keyed on
//!   `(program, CompileOptions, DefenseConfig)`, so a hot victim is
//!   compiled once and booted once, then leased across jobs and
//!   tenants. One least-recently-used order across all keys caps the
//!   parked servers at [`POOL_CAPACITY`], so keys that
//!   never recur (each ASLR job's fresh layout) age out instead of
//!   accumulating. Every lease is re-armed in full (serve mode, fuel,
//!   event sink, profiler) before it runs a single attempt: one
//!   tenant's attempt configuration can never bleed into another's;
//! * **backpressure + graceful degradation** — the queue is bounded.
//!   When it is full, an arriving job sheds the lowest-priority queued
//!   job (strictly lower than its own priority) or is itself rejected;
//!   over-quota tenants are rejected at submission. Every dropped job
//!   gets a *typed* outcome ([`JobOutcome::Shed`],
//!   [`JobOutcome::Rejected`]) in the tenant's report and a
//!   [`SecurityEvent::JobShed`] on the service's sink
//!   ([`ServeConfig::vm`]) — degradation is observable, never silent;
//! * **containment** — each job runs inline on a worker thread of the
//!   campaign runner's containment primitive: a watchdog deadline,
//!   bounded same-seed retry, poison-tolerant locks, and a per-attempt
//!   VM tally that the round sums only for the attempts that reported,
//!   so an abandoned job never counts in any round.
//!
//! Determinism contract: a job's result is a pure function of its
//! `(tenant seed, job index, spec)`. [`CampaignService::render`] is
//! therefore byte-identical at any worker count and in either
//! [`ServeMode`] — the property the verify.sh service smoke and the
//! `tests/serve.rs` differential suite pin down.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swsec_defenses::DefenseConfig;
use swsec_minc::{CompileError, CompileOptions};
use swsec_obs::span::{self, SpanCollector, SpanRecord};
use swsec_obs::{Histogram, MetricsRegistry, SecurityEvent, SpanKind, SpanMask};
use swsec_rng::derive;
use swsec_vm::cpu::RunOutcome;
use swsec_vm::profile::Profiler;
use swsec_vm::trace::ExecStats;
use swsec_vm::VmConfig;

use crate::cache::{CacheStats, ProgramCache};
use crate::campaign::{lock_unpoisoned, Resolved, Runner};
use crate::harness::{AttackTarget, ForkServer, ServeMode, DEFAULT_FUEL};
use crate::loader::plan_options;
use crate::report::Table;

/// Most warm servers parked at once, across all pool keys. A check-in
/// past it evicts the least recently used server (counted in
/// [`ServeTotals::pool_evictions`]). Runs that must not reuse servers
/// set [`ServeConfig::fork_server`] to `false` instead.
pub const POOL_CAPACITY: usize = 16;

/// Most compiled programs the service's compile cache keeps
/// ([`ProgramCache::bounded`]).
pub const CACHE_CAPACITY: usize = 256;

/// Service-wide policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads per round; `0` means one per available core.
    pub workers: usize,
    /// Maximum jobs queued across all tenants. Arrivals beyond it shed
    /// lower-priority queued work or are rejected (typed, observable).
    pub queue_capacity: usize,
    /// Wall-clock budget for one job attempt, counted from the moment
    /// a worker starts it. Past it the attempt is abandoned (its worker
    /// retires once the attempt returns, and a replacement worker takes
    /// over the queue) and the job retried or recorded
    /// [`JobOutcome::TimedOut`].
    pub job_deadline: Duration,
    /// How many times a failed job is re-attempted (same seed) before
    /// its failure is recorded. `0` disables retry.
    pub job_retries: u32,
    /// Serve attempts from boot-time snapshots ([`ServeMode::Fork`])
    /// instead of rebuilding per attempt. Results are byte-identical
    /// either way; only throughput differs.
    pub fork_server: bool,
    /// Fuel budget per attempt.
    pub fuel: u64,
    /// How the service's machines execute and where their security
    /// events go: installed as the VM context of every job attempt and re-armed
    /// on every leased server. The sink also receives a
    /// [`SecurityEvent::JobShed`] per shed or rejected job.
    pub vm: VmConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_capacity: 256,
            job_deadline: Duration::from_secs(120),
            job_retries: 1,
            fork_server: true,
            fuel: DEFAULT_FUEL,
            vm: VmConfig::default(),
        }
    }
}

/// One tenant's registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Display name (report tables, telemetry metadata).
    pub name: String,
    /// Root of the tenant's seed namespace: job `j` runs under
    /// `derive(seed, &[j])`, independent of every other tenant.
    pub seed: u64,
    /// Scheduling weight under overload: when the queue is full, an
    /// arriving job sheds the oldest queued job of *strictly lower*
    /// priority (larger = more important).
    pub priority: u8,
    /// Maximum jobs this tenant may have queued at once; submissions
    /// past it are rejected with [`RejectReason::QuotaExceeded`].
    pub quota: usize,
}

/// Handle for a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's index in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle for a submitted (or recorded-as-rejected) job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The tenant-local job index.
    pub job: u32,
}

/// What one job asks the service to do: `attempts` attack attempts
/// against `source` compiled and defended per `config`, with inputs
/// derived deterministically from the job seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// MinC source of the victim.
    pub source: String,
    /// Countermeasures deployed on the victim.
    pub config: DefenseConfig,
    /// Attack attempts to serve.
    pub attempts: u32,
    /// Ceiling on derived attack-input length, bytes (≥ 1).
    pub max_input: u32,
}

impl JobSpec {
    /// A spec with the default attempt budget (64 attempts, inputs up
    /// to 96 bytes — enough to smash the stock victims).
    pub fn new(source: impl Into<String>, config: DefenseConfig) -> JobSpec {
        JobSpec {
            source: source.into(),
            config,
            attempts: 64,
            max_input: 96,
        }
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already has `quota` jobs queued.
    QuotaExceeded {
        /// The quota in force.
        quota: usize,
    },
    /// The queue is full and no queued job has strictly lower priority
    /// than the arrival.
    QueueFull {
        /// The queue capacity in force.
        capacity: usize,
    },
}

impl RejectReason {
    /// Short stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QuotaExceeded { .. } => "rejected(quota)",
            RejectReason::QueueFull { .. } => "rejected(queue-full)",
        }
    }
}

/// Architectural result of one completed job: identical across worker
/// counts and [`ServeMode`]s (cache-warmth effects are excluded by
/// construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Attempts served.
    pub attempts: u64,
    /// Attempts that halted normally.
    pub halted: u64,
    /// Attempts stopped by a platform fault (incl. canary trips).
    pub faulted: u64,
    /// Attempts that exhausted their fuel budget.
    pub out_of_fuel: u64,
    /// Attempts that ended blocked on input.
    pub blocked: u64,
    /// Attempts whose output leaked the `SECRET` marker — successful
    /// exploitation.
    pub secret_leaks: u64,
}

/// The typed outcome of one job, [`JobOutcome::Pending`] until its
/// round runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Queued, not yet run.
    Pending,
    /// Ran to completion first try.
    Done(JobStats),
    /// Ran to completion after `n` failed attempts.
    Retried {
        /// Failed attempts before the success.
        n: u32,
        /// The successful run's stats.
        stats: JobStats,
    },
    /// Failed past the retry budget (panic or staging error).
    Failed {
        /// The final failure message.
        msg: String,
    },
    /// Exceeded the job deadline past the retry budget; its last
    /// attempt was abandoned.
    TimedOut,
    /// Admitted, then dropped from a full queue to make room for
    /// higher-priority work.
    Shed,
    /// Refused admission.
    Rejected(RejectReason),
}

impl JobOutcome {
    /// Short stable label for report tables. Failure *messages* are
    /// deliberately excluded (they may carry nondeterministic detail);
    /// the full message stays available via
    /// [`CampaignService::outcome`].
    pub fn label(&self) -> String {
        match self {
            JobOutcome::Pending => "pending".to_string(),
            JobOutcome::Done(_) => "done".to_string(),
            JobOutcome::Retried { n, .. } => format!("retried({n})"),
            JobOutcome::Failed { .. } => "failed".to_string(),
            JobOutcome::TimedOut => "timed-out".to_string(),
            JobOutcome::Shed => "shed".to_string(),
            JobOutcome::Rejected(reason) => reason.label().to_string(),
        }
    }

    /// The stats of a completed run, if there was one.
    pub fn stats(&self) -> Option<JobStats> {
        match self {
            JobOutcome::Done(stats) | JobOutcome::Retried { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// Whether the job produced a result (done or retried-then-done).
    pub fn is_ok(&self) -> bool {
        self.stats().is_some()
    }
}

/// Monotone service-lifetime totals; subtract snapshots for windows.
///
/// The job counts are a function of the submission history. The pool
/// counts (`pool_hits`, `pool_boots`, `pool_evictions`) are exact only
/// at one worker: with more, two jobs of one pool key can be in flight
/// together, both miss and both boot, depending on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTotals {
    /// Jobs submitted (admitted or not).
    pub jobs_submitted: u64,
    /// Jobs completed (incl. after retry).
    pub jobs_done: u64,
    /// Jobs that needed at least one retry to complete.
    pub jobs_retried: u64,
    /// Jobs failed terminally (panic/staging error/timeout).
    pub jobs_failed: u64,
    /// Admitted jobs shed under backpressure.
    pub jobs_shed: u64,
    /// Submissions rejected at admission.
    pub jobs_rejected: u64,
    /// Attack attempts served.
    pub attempts: u64,
    /// Attempts that leaked the secret.
    pub secret_leaks: u64,
    /// Jobs served by a warm pooled server.
    pub pool_hits: u64,
    /// Jobs that had to boot a server.
    pub pool_boots: u64,
    /// Warm servers evicted, least recently used first, to keep the
    /// pool within [`POOL_CAPACITY`].
    pub pool_evictions: u64,
}

impl ServeTotals {
    /// The increments between `earlier` and `self` (saturating).
    pub fn since(self, earlier: ServeTotals) -> ServeTotals {
        ServeTotals {
            jobs_submitted: self.jobs_submitted.saturating_sub(earlier.jobs_submitted),
            jobs_done: self.jobs_done.saturating_sub(earlier.jobs_done),
            jobs_retried: self.jobs_retried.saturating_sub(earlier.jobs_retried),
            jobs_failed: self.jobs_failed.saturating_sub(earlier.jobs_failed),
            jobs_shed: self.jobs_shed.saturating_sub(earlier.jobs_shed),
            jobs_rejected: self.jobs_rejected.saturating_sub(earlier.jobs_rejected),
            attempts: self.attempts.saturating_sub(earlier.attempts),
            secret_leaks: self.secret_leaks.saturating_sub(earlier.secret_leaks),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_boots: self.pool_boots.saturating_sub(earlier.pool_boots),
            pool_evictions: self.pool_evictions.saturating_sub(earlier.pool_evictions),
        }
    }

    /// Jobs dropped one way or another (shed + rejected).
    pub fn degraded(self) -> u64 {
        self.jobs_shed + self.jobs_rejected
    }
}

#[derive(Debug, Default)]
struct ServeCounters {
    jobs_submitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_retried: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_shed: AtomicU64,
    jobs_rejected: AtomicU64,
    attempts: AtomicU64,
    secret_leaks: AtomicU64,
    pool_hits: AtomicU64,
    pool_boots: AtomicU64,
    pool_evictions: AtomicU64,
}

impl ServeCounters {
    fn snapshot(&self) -> ServeTotals {
        ServeTotals {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            secret_leaks: self.secret_leaks.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_boots: self.pool_boots.load(Ordering::Relaxed),
            pool_evictions: self.pool_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Pool key: everything that makes two victims interchangeable.
type PoolKey = (String, CompileOptions, DefenseConfig);

/// The warm pool: parked [`ForkServer`]s of every key in one
/// least-recently-used order, at most [`POOL_CAPACITY`] of them.
///
/// A parked server is compiled, booted and snapshotted; leasing it
/// costs a scan of the pool instead of a compile+boot. The scan is
/// linear, which suits a pool of a few dozen servers at most (each
/// holds a machine and its snapshot). The lock is poison-tolerant: a
/// worker that panicked mid-checkin must not wedge the pool for every
/// later job.
#[derive(Default)]
struct ForkPool {
    /// Parked servers, least recently checked in first.
    parked: Mutex<VecDeque<(PoolKey, ForkServer)>>,
}

impl ForkPool {
    /// The most recently parked server for `key`, if any.
    fn checkout(&self, key: &PoolKey) -> Option<ForkServer> {
        let mut parked = lock_unpoisoned(&self.parked);
        let i = parked.iter().rposition(|(k, _)| k == key)?;
        parked.remove(i).map(|(_, server)| server)
    }

    /// Parks `server` as the most recently used. Returns the least
    /// recently used server when the pool is then over capacity; the
    /// caller drops it after the lock is released.
    fn checkin(&self, key: PoolKey, server: ForkServer) -> Option<ForkServer> {
        let mut parked = lock_unpoisoned(&self.parked);
        parked.push_back((key, server));
        if parked.len() > POOL_CAPACITY {
            parked.pop_front().map(|(_, server)| server)
        } else {
            None
        }
    }

    /// Warm servers currently parked.
    fn warm(&self) -> usize {
        lock_unpoisoned(&self.parked).len()
    }
}

/// One admitted job waiting for a round.
#[derive(Debug)]
struct QueuedJob {
    record: usize,
    tenant: usize,
    job: u32,
    seed: u64,
    priority: u8,
    spec: Arc<JobSpec>,
}

struct TenantState {
    cfg: TenantConfig,
    next_job: u32,
    queued: usize,
}

/// One job's bookkeeping slot; the outcome is the only mutable part.
struct JobSlot {
    tenant: usize,
    job: u32,
    seed: u64,
    outcome: JobOutcome,
}

/// Shared context a job body needs (an abandoned attempt may outlive
/// the round on its worker thread, hence `Arc` everything).
struct JobCtx {
    cache: Arc<ProgramCache>,
    pool: Arc<ForkPool>,
    counters: Arc<ServeCounters>,
    cfg: ServeConfig,
    profiler: Option<Arc<Profiler>>,
}

/// Observability hooks for one service round; all observational — the
/// rendered report is byte-identical with or without them.
#[derive(Clone, Default)]
pub struct ServeTelemetry {
    /// Registry absorbing the round's `serve.*`, `cache.*` and `vm.*`
    /// counter windows plus the `serve.job_micros` histogram.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// When set, record spans of the selected kinds: a root span on
    /// track 0, each job's spans (wrapped in a [`SpanKind::Job`]) on
    /// track `order + 1` — tracks follow the deterministic round
    /// order, never the worker that ran the job.
    pub spans: Option<SpanMask>,
    /// When set, part of every job attempt's VM context; leased
    /// servers are re-armed with it per job.
    pub profiler: Option<Arc<Profiler>>,
}

impl std::fmt::Debug for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTelemetry")
            .field("metrics", &self.metrics.is_some())
            .field("spans", &self.spans)
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

/// What one [`CampaignService::run`] round observed. Everything here
/// is run *metadata* (wall-clock, counters); the deterministic
/// per-tenant results live in [`CampaignService::render`].
#[derive(Debug)]
pub struct ServiceRound {
    /// Jobs drained and executed this round.
    pub jobs: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Worker threads spawned: [`workers`](Self::workers), plus one
    /// replacement per job attempt abandoned at its deadline.
    pub threads_spawned: usize,
    /// Wall-clock for the round.
    pub elapsed: Duration,
    /// Service-counter increments since the previous round (includes
    /// submissions/sheds that happened between rounds).
    pub totals: ServeTotals,
    /// VM counters summed over the round's job attempts that reported
    /// back: exactly the round's own machines, never an abandoned job's.
    /// Like the pool counts in [`totals`](Self::totals), they repeat
    /// exactly only at one worker: with more, which jobs boot a server
    /// (and so snapshot, and start with cold caches) depends on
    /// scheduling.
    pub vm: ExecStats,
    /// Recorded spans per track — empty unless
    /// [`ServeTelemetry::spans`] was set.
    pub spans: Vec<(u32, Vec<SpanRecord>)>,
}

impl ServiceRound {
    /// Renders the recorded spans as an indented tree (see
    /// [`swsec_obs::span::render_tree`]).
    pub fn span_tree(&self) -> String {
        span::render_tree(&self.spans)
    }

    /// One-line human summary (non-deterministic: timings).
    pub fn summary_line(&self) -> String {
        format!(
            "serve round: {} jobs, {} workers, {:.3}s wall, {} attempts \
             ({:.0}/s), pool {} hits / {} boots / {} evictions, {} shed, {} rejected, {} failed",
            self.jobs,
            self.workers,
            self.elapsed.as_secs_f64(),
            self.totals.attempts,
            self.totals.attempts as f64 / self.elapsed.as_secs_f64().max(1e-9),
            self.totals.pool_hits,
            self.totals.pool_boots,
            self.totals.pool_evictions,
            self.totals.jobs_shed,
            self.totals.jobs_rejected,
            self.totals.jobs_failed,
        )
    }
}

/// The long-lived campaign service (see the [module docs](self)).
pub struct CampaignService {
    cfg: ServeConfig,
    cache: Arc<ProgramCache>,
    pool: Arc<ForkPool>,
    counters: Arc<ServeCounters>,
    tenants: Vec<TenantState>,
    queue: VecDeque<QueuedJob>,
    records: Vec<JobSlot>,
    job_micros: Mutex<Histogram>,
    queue_peak: usize,
    rounds: u64,
    exported: ServeTotals,
    exported_cache: CacheStats,
}

impl std::fmt::Debug for CampaignService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignService")
            .field("cfg", &self.cfg)
            .field("tenants", &self.tenants.len())
            .field("queued", &self.queue.len())
            .field("records", &self.records.len())
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

impl CampaignService {
    /// An empty service under `cfg`.
    pub fn new(cfg: ServeConfig) -> CampaignService {
        let cache = Arc::new(ProgramCache::bounded(CACHE_CAPACITY));
        let pool = Arc::new(ForkPool::default());
        CampaignService {
            cfg,
            cache,
            pool,
            counters: Arc::new(ServeCounters::default()),
            tenants: Vec::new(),
            queue: VecDeque::new(),
            records: Vec::new(),
            job_micros: Mutex::new(Histogram::new()),
            queue_peak: 0,
            rounds: 0,
            exported: ServeTotals::default(),
            exported_cache: CacheStats::default(),
        }
    }

    /// Registers a tenant session.
    pub fn register_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        self.tenants.push(TenantState {
            cfg,
            next_job: 0,
            queued: 0,
        });
        TenantId(self.tenants.len() - 1)
    }

    /// Submits one job for `tenant`.
    ///
    /// Admission control runs here, deterministically in program
    /// order: over-quota and unsheddable-overflow submissions are
    /// refused with a typed [`RejectReason`] (and recorded in the
    /// tenant's report — a refused job still consumed its job index,
    /// so job identities are stable). A full queue sheds the oldest
    /// queued job of strictly lower priority to admit a more important
    /// arrival; the shed job's outcome becomes [`JobOutcome::Shed`]
    /// and a [`SecurityEvent::JobShed`] goes to the service's sink.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when the job was not admitted.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` was not returned by
    /// [`register_tenant`](Self::register_tenant) on this service.
    pub fn submit(&mut self, tenant: TenantId, spec: JobSpec) -> Result<JobId, RejectReason> {
        let t = tenant.0;
        assert!(t < self.tenants.len(), "unknown tenant {t}");
        let job = self.tenants[t].next_job;
        self.tenants[t].next_job += 1;
        let seed = derive(self.tenants[t].cfg.seed, &[u64::from(job)]);
        let id = JobId { tenant, job };
        self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);

        let quota = self.tenants[t].cfg.quota;
        if self.tenants[t].queued >= quota {
            self.record_drop(
                t,
                job,
                seed,
                JobOutcome::Rejected(RejectReason::QuotaExceeded { quota }),
            );
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(RejectReason::QuotaExceeded { quota });
        }

        if self.queue.len() >= self.cfg.queue_capacity {
            let priority = self.tenants[t].cfg.priority;
            // Degradation ladder: shed the oldest queued job whose
            // priority is strictly lower than the arrival's; with no
            // such victim the arrival itself is rejected (ties never
            // shed, so equal-priority tenants cannot starve each
            // other).
            let victim = self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(i, q)| (q.priority, *i))
                .filter(|(_, q)| q.priority < priority)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let shed = self.queue.remove(i).expect("victim index in bounds");
                    self.tenants[shed.tenant].queued -= 1;
                    self.records[shed.record].outcome = JobOutcome::Shed;
                    self.counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
                    emit_shed(&self.cfg.vm, shed.tenant, shed.job);
                }
                None => {
                    let capacity = self.cfg.queue_capacity;
                    self.record_drop(
                        t,
                        job,
                        seed,
                        JobOutcome::Rejected(RejectReason::QueueFull { capacity }),
                    );
                    self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(RejectReason::QueueFull { capacity });
                }
            }
        }

        let record = self.records.len();
        self.records.push(JobSlot {
            tenant: t,
            job,
            seed,
            outcome: JobOutcome::Pending,
        });
        self.queue.push_back(QueuedJob {
            record,
            tenant: t,
            job,
            seed,
            priority: self.tenants[t].cfg.priority,
            spec: Arc::new(spec),
        });
        self.tenants[t].queued += 1;
        self.queue_peak = self.queue_peak.max(self.queue.len());
        Ok(id)
    }

    fn record_drop(&mut self, tenant: usize, job: u32, seed: u64, outcome: JobOutcome) {
        emit_shed(&self.cfg.vm, tenant, job);
        self.records.push(JobSlot {
            tenant,
            job,
            seed,
            outcome,
        });
    }

    /// Drains and executes the queued backlog; the plain-telemetry
    /// form of [`run_with`](Self::run_with).
    pub fn run(&mut self) -> ServiceRound {
        self.run_with(&ServeTelemetry::default())
    }

    /// Drains the backlog on the campaign runner's worker pool and
    /// returns the round's metadata. Jobs are interleaved fairly across
    /// tenants (round-robin over per-tenant FIFO order) and each runs
    /// contained: watchdog deadline, bounded same-seed retry, and an
    /// abandoned job's VM tally left out of the round. The service
    /// survives the round with its tenants, records and warm pool
    /// intact.
    pub fn run_with(&mut self, telemetry: &ServeTelemetry) -> ServiceRound {
        let started = Instant::now();
        self.rounds += 1;

        // Fair order: round-robin across tenants, preserving each
        // tenant's FIFO. Deterministic — a pure function of the
        // submission history.
        let mut per_tenant: Vec<VecDeque<QueuedJob>> =
            (0..self.tenants.len()).map(|_| VecDeque::new()).collect();
        for job in self.queue.drain(..) {
            self.tenants[job.tenant].queued -= 1;
            per_tenant[job.tenant].push_back(job);
        }
        let mut ordered = Vec::new();
        loop {
            let mut any = false;
            for q in &mut per_tenant {
                if let Some(job) = q.pop_front() {
                    ordered.push(job);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let total = ordered.len();

        let collector = telemetry
            .spans
            .map(|mask| Arc::new(SpanCollector::new(mask)));
        let round_span = collector.as_ref().map(|c| {
            let round = self.rounds;
            c.recorder(0).enter_with(SpanKind::Campaign, || {
                format!("serve round {round}: {total} jobs")
            })
        });

        let ctx = Arc::new(JobCtx {
            cache: Arc::clone(&self.cache),
            pool: Arc::clone(&self.pool),
            counters: Arc::clone(&self.counters),
            cfg: self.cfg.clone(),
            profiler: telemetry.profiler.clone(),
        });
        let ordered: Arc<[QueuedJob]> = ordered.into();
        let body = {
            let (ctx, ordered) = (Arc::clone(&ctx), Arc::clone(&ordered));
            move |order: usize, abandoned: &AtomicBool| {
                let job = &ordered[order];
                let _job = span::enter_with(SpanKind::Job, || {
                    format!("tenant {} job {} seed {:#x}", job.tenant, job.job, job.seed)
                });
                serve_job(&ctx, job.seed, &job.spec, abandoned).map_err(|e| e.message)
            }
        };
        let mut micros = vec![0u64; total];
        let runner = Runner {
            name: "serve",
            workers: self.cfg.workers,
            deadline: self.cfg.job_deadline,
            retries: self.cfg.job_retries,
            vm: &ctx.cfg.vm,
            profiler: ctx.profiler.as_ref(),
            spans: collector.as_ref(),
        };
        let records = &mut self.records;
        // The job's round order is its span track (`order + 1`), so
        // tracks never depend on which worker ran the job.
        let ran = runner.run(total, body, |order, resolved, elapsed| {
            micros[order] = elapsed.as_micros() as u64;
            let outcome = match resolved {
                Resolved::Ok(stats) => JobOutcome::Done(stats),
                Resolved::Retried(n, stats) => JobOutcome::Retried { n, stats },
                Resolved::Failed(msg) => JobOutcome::Failed { msg },
                Resolved::TimedOut => JobOutcome::TimedOut,
            };
            match &outcome {
                JobOutcome::Done(stats) => {
                    ctx.counters.jobs_done.fetch_add(1, Ordering::Relaxed);
                    note_stats(&ctx.counters, stats);
                }
                JobOutcome::Retried { stats, .. } => {
                    ctx.counters.jobs_done.fetch_add(1, Ordering::Relaxed);
                    ctx.counters.jobs_retried.fetch_add(1, Ordering::Relaxed);
                    note_stats(&ctx.counters, stats);
                }
                _ => {
                    ctx.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            records[ordered[order].record].outcome = outcome;
        });

        drop(round_span);
        let spans = collector.as_ref().map(|c| c.take()).unwrap_or_default();

        let now = self.counters.snapshot();
        let totals = now.since(self.exported);
        self.exported = now;
        {
            let mut hist = lock_unpoisoned(&self.job_micros);
            for &m in &micros {
                hist.observe(m);
            }
        }
        if let Some(registry) = telemetry.metrics.as_ref() {
            self.absorb_round(registry, &totals, &ran.vm, &micros);
        }

        ServiceRound {
            jobs: total,
            workers: ran.workers,
            threads_spawned: ran.spawned,
            elapsed: started.elapsed(),
            totals,
            vm: ran.vm,
            spans,
        }
    }

    /// Folds one round's windows into `registry`: counters
    /// `serve.rounds`, `serve.jobs_submitted` / `serve.jobs_done` /
    /// `serve.jobs_retried` / `serve.jobs_failed` / `serve.jobs_shed` /
    /// `serve.jobs_rejected`, `serve.attempts` / `serve.secret_leaks`,
    /// `serve.pool.hits` / `serve.pool.boots` / `serve.pool.evictions`,
    /// the `cache.*` window (incl. `cache.evictions`), the `vm.*`
    /// window (named by [`ExecStats::absorb_into`]), and one
    /// `serve.job_micros` observation per job. `serve.pool.warm` is a
    /// level, not a window: each round overwrites it with the number
    /// of servers parked now (see [`MetricsRegistry::level`]).
    fn absorb_round(
        &mut self,
        registry: &MetricsRegistry,
        totals: &ServeTotals,
        vm: &ExecStats,
        micros: &[u64],
    ) {
        registry.counter("serve.rounds", 1);
        registry.counter("serve.jobs_submitted", totals.jobs_submitted);
        registry.counter("serve.jobs_done", totals.jobs_done);
        registry.counter("serve.jobs_retried", totals.jobs_retried);
        registry.counter("serve.jobs_failed", totals.jobs_failed);
        registry.counter("serve.jobs_shed", totals.jobs_shed);
        registry.counter("serve.jobs_rejected", totals.jobs_rejected);
        registry.counter("serve.attempts", totals.attempts);
        registry.counter("serve.secret_leaks", totals.secret_leaks);
        registry.counter("serve.pool.hits", totals.pool_hits);
        registry.counter("serve.pool.boots", totals.pool_boots);
        registry.counter("serve.pool.evictions", totals.pool_evictions);
        registry.level("serve.pool.warm", self.pool.warm() as u64);
        let cache_now = self.cache.stats();
        let cache = CacheStats {
            hits: cache_now.hits.saturating_sub(self.exported_cache.hits),
            misses: cache_now.misses.saturating_sub(self.exported_cache.misses),
            parses: cache_now.parses.saturating_sub(self.exported_cache.parses),
            evictions: cache_now
                .evictions
                .saturating_sub(self.exported_cache.evictions),
        };
        self.exported_cache = cache_now;
        registry.counter("cache.hits", cache.hits);
        registry.counter("cache.misses", cache.misses);
        registry.counter("cache.parses", cache.parses);
        registry.counter("cache.evictions", cache.evictions);
        vm.absorb_into(registry);
        for &m in micros {
            registry.observe("serve.job_micros", m);
        }
    }

    /// The deterministic per-tenant report: a header plus one table
    /// per tenant ([`render_tenant`](Self::render_tenant)).
    /// Byte-identical at any worker count and in either [`ServeMode`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== campaign service: {} tenants, {} jobs recorded ==",
            self.tenants.len(),
            self.records.len()
        );
        for t in 0..self.tenants.len() {
            let _ = writeln!(out);
            out.push_str(&self.render_tenant(TenantId(t)));
        }
        out
    }

    /// One tenant's job table, in job order. The per-tenant slice of
    /// [`render`](Self::render); the differential tests compare a
    /// tenant's table across service compositions.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` was not registered on this service.
    pub fn render_tenant(&self, tenant: TenantId) -> String {
        let t = tenant.0;
        assert!(t < self.tenants.len(), "unknown tenant {t}");
        let cfg = &self.tenants[t].cfg;
        let mut table = Table::new(
            format!(
                "tenant {}: seed {:#018x}, priority {}, quota {}",
                cfg.name, cfg.seed, cfg.priority, cfg.quota
            ),
            &[
                "job", "seed", "outcome", "attempts", "halted", "faulted", "no_fuel", "blocked",
                "secrets",
            ],
        );
        for slot in self.records.iter().filter(|s| s.tenant == t) {
            let outcome = &slot.outcome;
            let mut row = vec![
                slot.job.to_string(),
                format!("{:#018x}", slot.seed),
                outcome.label(),
            ];
            match outcome.stats() {
                Some(s) => row.extend([
                    s.attempts.to_string(),
                    s.halted.to_string(),
                    s.faulted.to_string(),
                    s.out_of_fuel.to_string(),
                    s.blocked.to_string(),
                    s.secret_leaks.to_string(),
                ]),
                None => row.extend(std::iter::repeat_n("-".to_string(), 6)),
            }
            table.row(row);
        }
        table.to_string()
    }

    /// The recorded outcome of `id` ([`JobOutcome::Pending`] until its
    /// round runs); `None` for an unknown id.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        self.records
            .iter()
            .find(|s| s.tenant == id.tenant.0 && s.job == id.job)
            .map(|s| s.outcome.clone())
    }

    /// Service-lifetime totals.
    pub fn totals(&self) -> ServeTotals {
        self.counters.snapshot()
    }

    /// Compile-cache counters (service-lifetime).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Warm servers currently parked (at most [`POOL_CAPACITY`]).
    pub fn pooled(&self) -> usize {
        self.pool.warm()
    }

    /// Jobs currently queued (admitted, not yet run).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Deepest queue backlog observed so far.
    pub fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// Service-lifetime job-latency histogram (µs per job).
    pub fn job_latency(&self) -> Histogram {
        lock_unpoisoned(&self.job_micros).clone()
    }
}

fn note_stats(counters: &ServeCounters, stats: &JobStats) {
    counters
        .attempts
        .fetch_add(stats.attempts, Ordering::Relaxed);
    counters
        .secret_leaks
        .fetch_add(stats.secret_leaks, Ordering::Relaxed);
}

fn emit_shed(vm: &VmConfig, tenant: usize, job: u32) {
    if let Some(sink) = &vm.sink {
        let ev = SecurityEvent::JobShed {
            tenant: tenant as u32,
            job,
        };
        if sink.interests().contains(ev.mask_bit()) {
            sink.record(&ev);
        }
    }
}

/// The job body: lease (or boot) a warm server, re-arm it in full,
/// serve the spec's attempts, park the server again. Stops at the next
/// attempt boundary once the watchdog has `abandoned` the job.
fn serve_job(
    ctx: &JobCtx,
    seed: u64,
    spec: &JobSpec,
    abandoned: &AtomicBool,
) -> Result<JobStats, CompileError> {
    let opts = plan_options(&spec.config, seed);
    let key: PoolKey = (spec.source.clone(), opts, spec.config);
    let mut server = match ctx.pool.checkout(&key) {
        Some(server) => {
            ctx.counters.pool_hits.fetch_add(1, Ordering::Relaxed);
            server
        }
        None => {
            ctx.counters.pool_boots.fetch_add(1, Ordering::Relaxed);
            ForkServer::boot(&ctx.cache, &spec.source, spec.config, seed)?
        }
    };
    // Re-arm the lease in full: serve mode, fuel, event sink, and the
    // round's profiler (not whatever the round that booted this server
    // had). Nothing of the previous lease survives — the guarantee the
    // interleaved-tenant differential test pins down.
    server.set_mode(ServeMode::from_fork_flag(ctx.cfg.fork_server));
    server.set_fuel(ctx.cfg.fuel);
    server.set_event_sink(ctx.cfg.vm.sink.clone());
    server.set_profiler(ctx.profiler.clone());

    let mut stats = JobStats::default();
    for i in 0..spec.attempts {
        if abandoned.load(Ordering::Acquire) {
            // The watchdog abandoned this job mid-flight: bail at the
            // attempt boundary — the leased server dies with this
            // attempt rather than rejoining the pool in unknown shape.
            return Err(CompileError {
                message: format!("job abandoned by deadline watchdog after {i} attempts"),
            });
        }
        let len =
            1 + (derive(seed, &[u64::from(i), 1]) % u64::from(spec.max_input.max(1))) as usize;
        let fill = b'A' + (derive(seed, &[u64::from(i), 2]) % 26) as u8;
        let input = vec![fill; len];
        let outcome = server.execute(seed, &input)?;
        stats.attempts += 1;
        match outcome.outcome {
            RunOutcome::Halted(_) => stats.halted += 1,
            RunOutcome::Fault(_) => stats.faulted += 1,
            RunOutcome::OutOfFuel => stats.out_of_fuel += 1,
            RunOutcome::Blocked { .. } => stats.blocked += 1,
        }
        if outcome.emitted(1, b"SECRET") {
            stats.secret_leaks += 1;
        }
    }
    if let Some(evicted) = ctx.pool.checkin(key, server) {
        ctx.counters.pool_evictions.fetch_add(1, Ordering::Relaxed);
        drop(evicted);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::VICTIM_SMASH;

    fn tenant(name: &str, seed: u64, priority: u8, quota: usize) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            seed,
            priority,
            quota,
        }
    }

    fn quick_spec() -> JobSpec {
        JobSpec {
            source: VICTIM_SMASH.to_string(),
            config: DefenseConfig::none(),
            attempts: 8,
            max_input: 40,
        }
    }

    #[test]
    fn quota_rejects_at_admission() {
        let mut svc = CampaignService::new(ServeConfig::default());
        let t = svc.register_tenant(tenant("t0", 1, 1, 2));
        assert!(svc.submit(t, quick_spec()).is_ok());
        assert!(svc.submit(t, quick_spec()).is_ok());
        let err = svc.submit(t, quick_spec()).unwrap_err();
        assert_eq!(err, RejectReason::QuotaExceeded { quota: 2 });
        // The rejected job is recorded under its consumed index.
        let id = JobId { tenant: t, job: 2 };
        assert_eq!(svc.outcome(id), Some(JobOutcome::Rejected(err)));
        assert_eq!(svc.totals().jobs_rejected, 1);
        assert_eq!(svc.pending(), 2);
    }

    #[test]
    fn full_queue_sheds_strictly_lower_priority_first() {
        let mut svc = CampaignService::new(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let low = svc.register_tenant(tenant("low", 1, 0, 10));
        let high = svc.register_tenant(tenant("high", 2, 5, 10));
        let low0 = svc.submit(low, quick_spec()).unwrap();
        let _low1 = svc.submit(low, quick_spec()).unwrap();
        // Queue full; a high-priority arrival sheds the *oldest* low
        // job.
        let high0 = svc.submit(high, quick_spec()).unwrap();
        assert_eq!(svc.outcome(low0), Some(JobOutcome::Shed));
        assert_eq!(svc.outcome(high0), Some(JobOutcome::Pending));
        assert_eq!(svc.totals().jobs_shed, 1);
        // Another high arrival sheds the remaining low job...
        let _high1 = svc.submit(high, quick_spec()).unwrap();
        // ...but with only high-priority work queued, the next is
        // rejected (ties never shed).
        let err = svc.submit(high, quick_spec()).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { capacity: 2 });
        assert_eq!(svc.totals().jobs_shed, 2);
        assert_eq!(svc.totals().jobs_rejected, 1);
        assert_eq!(svc.pending(), 2);
    }

    #[test]
    fn single_tenant_round_trips() {
        let mut svc = CampaignService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let t = svc.register_tenant(tenant("t0", 0xBEEF, 1, 16));
        let a = svc.submit(t, quick_spec()).unwrap();
        let b = svc.submit(t, quick_spec()).unwrap();
        let round = svc.run();
        assert_eq!(round.jobs, 2);
        assert_eq!(round.totals.jobs_done, 2);
        assert_eq!((round.workers, round.threads_spawned), (2, 2));
        assert_eq!(round.totals.attempts, 16);
        let sa = svc.outcome(a).unwrap().stats().expect("job a completed");
        assert_eq!(sa.attempts, 8);
        assert!(svc.outcome(b).unwrap().is_ok());
        assert_eq!(svc.pending(), 0);
        // The service survives the round: submit and run again, with
        // the pool now warm for this (program, opts, config).
        let warm = svc.pooled();
        assert!(warm >= 1, "no server parked after the round");
        let c = svc.submit(t, quick_spec()).unwrap();
        let round2 = svc.run();
        assert_eq!(round2.jobs, 1);
        assert!(round2.totals.pool_hits >= 1, "warm server not leased");
        assert!(svc.outcome(c).unwrap().is_ok());
    }

    #[test]
    fn job_seeds_are_a_pure_function_of_the_tenant_namespace() {
        // Tenant B's presence must not perturb tenant A's seeds or
        // results: run A alone, then A interleaved with B, and compare
        // A's table bytes.
        let spec = quick_spec;
        let solo = {
            let mut svc = CampaignService::new(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            });
            let a = svc.register_tenant(tenant("a", 7, 1, 16));
            for _ in 0..3 {
                svc.submit(a, spec()).unwrap();
            }
            svc.run();
            svc.render_tenant(a)
        };
        let mixed = {
            let mut svc = CampaignService::new(ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            });
            let a = svc.register_tenant(tenant("a", 7, 1, 16));
            let b = svc.register_tenant(tenant("b", 8, 1, 16));
            for _ in 0..3 {
                svc.submit(a, spec()).unwrap();
                svc.submit(b, spec()).unwrap();
            }
            svc.run();
            svc.render_tenant(a)
        };
        assert_eq!(solo, mixed);
    }

    #[test]
    fn unknown_job_is_none() {
        let mut svc = CampaignService::new(ServeConfig::default());
        let t = svc.register_tenant(tenant("t0", 1, 1, 4));
        assert_eq!(svc.outcome(JobId { tenant: t, job: 9 }), None);
    }
}
