//! Liveness of the work-stealing pools behind the campaign runner and
//! the campaign service.
//!
//! Every worker of either pool finishes by finding its own deque empty
//! and then trying to steal from the others, so every run ends with
//! workers running dry at the same moment. If a worker still held its
//! own deque's lock while locking a victim's, two such workers could
//! each wait on the other forever. Each test repeats many short runs at
//! 2 and 4 workers under a watchdog, so a hang fails the test instead
//! of stalling the suite.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use swsec::attacker::VICTIM_SMASH;
use swsec::campaign::{run_campaign_on, CampaignConfig, CampaignCtx, CampaignTelemetry};
use swsec::experiments::Experiment;
use swsec::report::{ExperimentId, Report, Table};
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
        panic!("{what} did not finish within {DEADLINE:?}: the work-stealing pool deadlocked");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// An experiment of many instant cells: runs are dominated by workers
/// draining, stealing and running dry.
struct Instant64;

impl Experiment for Instant64 {
    fn id(&self) -> ExperimentId {
        ExperimentId::FAULT_DEMO
    }

    fn title(&self) -> &'static str {
        "64 instant cells"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        64
    }

    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> Vec<Table> {
        Vec::new()
    }

    fn assemble(&self, _cfg: &CampaignConfig, _cells: Vec<Vec<Table>>) -> Report {
        Report::new(self.id(), self.title())
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
