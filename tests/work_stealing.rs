//! Liveness of the worker pool behind the campaign runner and the
//! campaign service.
//!
//! Both run their tasks through one runner. There is no work stealing
//! despite the file's name: workers take attempts from a single shared
//! queue (a `Mutex<VecDeque>`) and sleep on a `Condvar` while it is
//! empty, and the calling thread closes the queue and wakes
//! them once every task has resolved. Runs of many instant tasks end
//! with every worker finding the queue empty at the same moment, which
//! is where a lost wake-up or a missed close would leave a worker (or
//! the caller waiting on it) blocked forever. Each test repeats many
//! short runs at 2 and 4 workers under a watchdog, so a hang fails the
//! test instead of stalling the suite.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use swsec::attacker::VICTIM_SMASH;
use swsec::campaign::{run_campaign_on, CampaignConfig, CampaignCtx, CampaignTelemetry};
use swsec::experiments::Experiment;
use swsec::report::{ExperimentId, Table};
use swsec::serve::{CampaignService, JobSpec, ServeConfig, TenantConfig};
use swsec_defenses::DefenseConfig;

/// Far beyond what the runs need even in a debug build on a loaded
/// host; only a hung pool reaches it.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `work` on its own thread and fails if it does not finish
/// within [`DEADLINE`]. A hung thread is left behind; the test process
/// exits without it.
fn within_deadline(what: &str, work: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    let handle = std::thread::spawn(move || {
        work();
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(DEADLINE) {
        panic!("{what} did not finish within {DEADLINE:?}: the runner's worker pool deadlocked");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// An experiment of many instant cells: runs are dominated by workers
/// draining the shared queue and running dry.
struct Instant64;

impl Experiment for Instant64 {
    type Cell = ();
    type Output = ();

    fn id(&self) -> ExperimentId {
        ExperimentId::FAULT_DEMO
    }

    fn title(&self) -> &'static str {
        "64 instant cells"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        64
    }

    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) {}

    fn assemble(&self, _cfg: &CampaignConfig, _cells: Vec<()>) {}

    fn tables(&self, _out: &()) -> Vec<Table> {
        Vec::new()
    }
}

static INSTANT64: Instant64 = Instant64;

#[test]
fn campaign_runner_never_hangs_when_workers_run_dry_together() {
    within_deadline("the campaign runner", || {
        for workers in [2, 4] {
            let cfg = CampaignConfig {
                workers,
                ..CampaignConfig::quick()
            };
            for _ in 0..100 {
                let report = run_campaign_on(&cfg, &[&INSTANT64], &CampaignTelemetry::none());
                assert!(report.all_ok());
            }
        }
    });
}

#[test]
fn campaign_service_never_hangs_when_workers_run_dry_together() {
    within_deadline("the campaign service", || {
        for workers in [2, 4] {
            let mut svc = CampaignService::new(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            let tenant = svc.register_tenant(TenantConfig {
                name: "t".to_string(),
                seed: 7,
                priority: 1,
                quota: 16,
            });
            for _ in 0..15 {
                for _ in 0..8 {
                    let job = JobSpec {
                        source: VICTIM_SMASH.to_string(),
                        config: DefenseConfig::none(),
                        attempts: 1,
                        max_input: 8,
                    };
                    svc.submit(tenant, job).expect("within quota");
                }
                assert_eq!(svc.run().totals.jobs_done, 8);
            }
        }
    });
}
