//! Campaign-service contract: per-tenant renders are byte-identical
//! at any worker count and in either serve mode, admission control is
//! typed and observable, quota slots free as the queue drains, the
//! round's telemetry window carries `serve.*` metrics and Job spans
//! (with `serve.pool.warm` a level, not a sum over rounds),
//! a watchdog-abandoned job's VM counts never reach any round, and the
//! warm pool stays within its capacity over a long session whose ASLR
//! jobs park a server under a fresh key every time.

use std::sync::Arc;
use std::time::Duration;

use swsec::attacker::VICTIM_SMASH;
use swsec::serve::{
    CampaignService, JobOutcome, JobSpec, RejectReason, ServeConfig, ServeTelemetry, ServiceRound,
    TenantConfig, TenantId, POOL_CAPACITY,
};
use swsec_defenses::DefenseConfig;
use swsec_obs::{CountingSink, MetricsRegistry, SpanKind, SpanMask};
use swsec_vm::VmConfig;

fn tenant(name: &str, seed: u64, priority: u8, quota: usize) -> TenantConfig {
    TenantConfig {
        name: name.to_string(),
        seed,
        priority,
        quota,
    }
}

fn spec(config: DefenseConfig) -> JobSpec {
    JobSpec {
        source: VICTIM_SMASH.to_string(),
        config,
        attempts: 12,
        max_input: 48,
    }
}

/// Two tenants with different defense stacks (so the pool holds more
/// than one key), three jobs each, one round.
fn two_tenant_render(workers: usize, fork_server: bool) -> String {
    let mut svc = CampaignService::new(ServeConfig {
        workers,
        fork_server,
        ..ServeConfig::default()
    });
    let alice = svc.register_tenant(tenant("alice", 0xA11CE, 2, 16));
    let bob = svc.register_tenant(tenant("bob", 0xB0B, 1, 16));
    for _ in 0..3 {
        svc.submit(alice, spec(DefenseConfig::none())).unwrap();
        svc.submit(bob, spec(DefenseConfig::modern(8))).unwrap();
    }
    let round = svc.run();
    assert_eq!(round.jobs, 6);
    assert_eq!(round.totals.jobs_done, 6);
    svc.render()
}

#[test]
fn renders_are_byte_identical_across_workers_and_serve_modes() {
    let baseline = two_tenant_render(1, true);
    assert_eq!(baseline, two_tenant_render(4, true), "1 vs 4 workers");
    assert_eq!(baseline, two_tenant_render(1, false), "fork vs rebuild");
    assert_eq!(baseline, two_tenant_render(4, false), "4 workers, rebuild");
    assert!(baseline.contains("tenant alice"));
    assert!(baseline.contains("tenant bob"));
    assert!(baseline.contains("done"));
}

#[test]
fn quota_slots_free_as_the_queue_drains() {
    let mut svc = CampaignService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let t = svc.register_tenant(tenant("t", 9, 1, 2));
    svc.submit(t, spec(DefenseConfig::none())).unwrap();
    svc.submit(t, spec(DefenseConfig::none())).unwrap();
    assert_eq!(
        svc.submit(t, spec(DefenseConfig::none())).unwrap_err(),
        RejectReason::QuotaExceeded { quota: 2 }
    );
    svc.run();
    // The round drained the tenant's backlog: quota capacity is free
    // again, and the previously rejected job stays recorded.
    let d = svc.submit(t, spec(DefenseConfig::none())).unwrap();
    svc.run();
    assert!(svc.outcome(d).unwrap().is_ok());
    let render = svc.render_tenant(t);
    assert!(render.contains("rejected(quota)"));
    assert_eq!(svc.totals().jobs_rejected, 1);
    assert_eq!(svc.totals().jobs_done, 3);
}

#[test]
fn shed_and_rejected_jobs_reach_the_service_sink() {
    let sink = Arc::new(CountingSink::new());
    let mut svc = CampaignService::new(ServeConfig {
        queue_capacity: 1,
        vm: VmConfig {
            sink: Some(sink.clone()),
            ..VmConfig::default()
        },
        ..ServeConfig::default()
    });
    let low = svc.register_tenant(tenant("low", 1, 0, 8));
    let high = svc.register_tenant(tenant("high", 2, 7, 8));
    let victim = svc.submit(low, spec(DefenseConfig::none())).unwrap();
    let kept = svc.submit(high, spec(DefenseConfig::none())).unwrap();
    let refused = svc.submit(high, spec(DefenseConfig::none()));
    assert_eq!(svc.outcome(victim), Some(JobOutcome::Shed));
    assert_eq!(svc.outcome(kept), Some(JobOutcome::Pending));
    assert_eq!(
        refused.unwrap_err(),
        RejectReason::QueueFull { capacity: 1 }
    );
    // One JobShed for the shed victim, one for the rejected arrival.
    assert_eq!(sink.counts().job_shed, 2);
}

#[test]
fn round_telemetry_exports_serve_metrics_and_job_spans() {
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = ServeTelemetry {
        metrics: Some(registry.clone()),
        spans: Some(SpanMask::ALL),
        profiler: None,
    };
    let mut svc = CampaignService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let t = svc.register_tenant(tenant("t", 3, 1, 8));
    for _ in 0..2 {
        svc.submit(t, spec(DefenseConfig::none())).unwrap();
    }
    let round = svc.run_with(&telemetry);

    assert_eq!(registry.counter_value("serve.rounds"), 1);
    assert_eq!(registry.counter_value("serve.jobs_submitted"), 2);
    assert_eq!(registry.counter_value("serve.jobs_done"), 2);
    assert_eq!(registry.counter_value("serve.attempts"), 24);
    assert!(registry.counter_value("vm.instructions") > 0);
    assert!(
        registry.counter_value("cache.hits") + registry.counter_value("cache.misses") > 0,
        "the round must have touched the compile cache"
    );
    // Metric export must carry the job-latency histogram too.
    let exported = registry.export_jsonl().join("\n");
    assert!(exported.contains("serve.job_micros.count"));

    // One root span on track 0, one Job span per job on tracks 1..
    assert!(round.spans.iter().any(|(track, _)| *track == 0));
    let jobs: usize = round
        .spans
        .iter()
        .flat_map(|(_, records)| records)
        .filter(|r| r.kind == SpanKind::Job)
        .count();
    assert_eq!(jobs, 2);
    assert!(round.span_tree().contains("serve round"));
}

#[test]
fn pool_warm_metric_reads_the_parked_count_not_a_sum_over_rounds() {
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = ServeTelemetry {
        metrics: Some(registry.clone()),
        spans: None,
        profiler: None,
    };
    let mut svc = CampaignService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let t = svc.register_tenant(tenant("t", 5, 1, 8));
    for round in 1..=2 {
        svc.submit(t, spec(DefenseConfig::none())).unwrap();
        svc.run_with(&telemetry);
        assert_eq!(registry.counter_value("serve.rounds"), round);
        assert!(svc.pooled() > 0, "round {round} parked nothing");
        assert_eq!(
            registry.counter_value("serve.pool.warm"),
            svc.pooled() as u64,
            "round {round}"
        );
    }
}

/// A fixed small workload whose VM-counter window is deterministic:
/// fresh service, one tenant, two jobs.
fn measured_round_instructions() -> u64 {
    let mut svc = CampaignService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let t = svc.register_tenant(tenant("probe", 0x5EED, 1, 8));
    for _ in 0..2 {
        svc.submit(t, spec(DefenseConfig::none())).unwrap();
    }
    let round = svc.run();
    assert_eq!(round.totals.jobs_done, 2);
    round.vm.instructions
}

#[test]
fn watchdog_abandoned_jobs_divert_counters_away_from_later_windows() {
    let clean = measured_round_instructions();

    // A job whose attempt budget dwarfs its deadline: the watchdog
    // abandons its thread mid-churn. The thread notices at its next
    // attempt boundary and retires, dropping its leased server; what
    // it ran counts only in its own attempt tally, which no round
    // ever sums.
    let mut svc = CampaignService::new(ServeConfig {
        workers: 1,
        job_deadline: Duration::from_millis(40),
        job_retries: 0,
        ..ServeConfig::default()
    });
    let t = svc.register_tenant(tenant("hog", 0xDEAD, 1, 4));
    let hog = svc
        .submit(
            t,
            JobSpec {
                source: VICTIM_SMASH.to_string(),
                config: DefenseConfig::none(),
                attempts: u32::MAX,
                max_input: 48,
            },
        )
        .unwrap();
    let round = svc.run();
    assert_eq!(svc.outcome(hog), Some(JobOutcome::TimedOut));
    assert_eq!(round.totals.jobs_failed, 1);

    // Later rounds see exactly the clean instruction count.
    let during = measured_round_instructions();
    assert_eq!(during, clean, "leaked job skewed a later VM window");
}

#[test]
fn a_hung_job_on_the_only_worker_is_taken_over() {
    fn healthy(svc: &mut CampaignService) -> (swsec::serve::TenantId, Vec<swsec::serve::JobId>) {
        let t = svc.register_tenant(tenant("healthy", 0x600D, 1, 8));
        let jobs = (0..3)
            .map(|_| svc.submit(t, spec(DefenseConfig::none())).unwrap())
            .collect();
        (t, jobs)
    }
    let solo = {
        let mut svc = CampaignService::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (t, _) = healthy(&mut svc);
        svc.run();
        svc.render_tenant(t)
    };

    // The hog is first in round order, so it holds the only worker
    // until the watchdog abandons it; a replacement worker then serves
    // the healthy tenant's jobs.
    let mut svc = CampaignService::new(ServeConfig {
        workers: 1,
        job_deadline: Duration::from_secs(1),
        job_retries: 0,
        ..ServeConfig::default()
    });
    let hog_tenant = svc.register_tenant(tenant("hog", 0xDEAD, 1, 4));
    let hog = svc
        .submit(
            hog_tenant,
            JobSpec {
                source: VICTIM_SMASH.to_string(),
                config: DefenseConfig::none(),
                attempts: u32::MAX,
                max_input: 48,
            },
        )
        .unwrap();
    let (t, jobs) = healthy(&mut svc);
    let round = svc.run();
    assert_eq!(svc.outcome(hog), Some(JobOutcome::TimedOut));
    for job in jobs {
        assert!(
            matches!(svc.outcome(job), Some(JobOutcome::Done(_))),
            "{job:?}: {:?}",
            svc.outcome(job)
        );
    }
    assert_eq!((round.workers, round.threads_spawned), (1, 2));
    assert_eq!(svc.render_tenant(t), solo);
}

/// Runs `rounds` rounds of three tenants that each submit one 2-attempt
/// job per round on a rotating stack: no defenses, canaries, or
/// canaries+DEP+ASLR(8). Every round thus has two jobs whose pool key
/// recurs and one whose fresh layout is a key that almost never does.
/// `check` sees the service and the round after each round.
fn mixed_session(
    cfg: ServeConfig,
    rounds: usize,
    mut check: impl FnMut(&CampaignService, &ServiceRound, usize),
) -> (CampaignService, Vec<TenantId>) {
    let stacks = [
        DefenseConfig::none(),
        DefenseConfig {
            canary: true,
            ..DefenseConfig::none()
        },
        DefenseConfig::modern(8),
    ];
    let mut svc = CampaignService::new(cfg);
    let ids: Vec<_> = (0..3u64)
        .map(|t| svc.register_tenant(tenant(&format!("t{t}"), 0x5E55 + t, 1, 4)))
        .collect();
    for round in 0..rounds {
        for (t, id) in ids.iter().enumerate() {
            let job = JobSpec {
                attempts: 2,
                ..spec(stacks[(t + round) % stacks.len()])
            };
            svc.submit(*id, job).unwrap();
        }
        let served = svc.run();
        assert_eq!(served.totals.jobs_done, 3, "round {round}");
        check(&svc, &served, round);
    }
    (svc, ids)
}

#[test]
fn a_long_mixed_session_keeps_the_warm_pool_bounded() {
    const ROUNDS: usize = 200;
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let mut evictions = 0;
    let (served, ids) = mixed_session(cfg.clone(), ROUNDS, |svc, round, no| {
        assert!(
            svc.pooled() <= POOL_CAPACITY,
            "round {no}: {} parked",
            svc.pooled()
        );
        evictions += round.totals.pool_evictions;
        if no > 0 {
            // Both non-ASLR jobs lease a warm server. An ASLR job can
            // hit too, when its slide recurs among the parked servers.
            assert!(
                round.totals.pool_hits >= 2,
                "round {no}: {:?}",
                round.totals
            );
        }
    });
    assert!(
        evictions > 0,
        "the ASLR keys never pushed the pool past its capacity"
    );
    assert_eq!(served.pooled(), POOL_CAPACITY);

    let (replay, _) = mixed_session(
        ServeConfig {
            fork_server: false,
            ..cfg
        },
        ROUNDS,
        |_, _, _| {},
    );
    for id in ids {
        assert_eq!(served.render_tenant(id), replay.render_tenant(id), "{id:?}");
    }
}

#[test]
fn pool_and_vm_counts_repeat_exactly_at_one_worker() {
    // At one worker no two jobs are in flight together, so which jobs
    // hit, boot and evict is a function of the submission history.
    // Each round parks one fresh ASLR key beside the two non-ASLR ones,
    // so the pool fills and starts evicting well before the last round.
    const ROUNDS: usize = 24;
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let windows = || {
        let mut windows = Vec::new();
        mixed_session(cfg.clone(), ROUNDS, |svc, round, no| {
            assert!(
                svc.pooled() <= POOL_CAPACITY,
                "round {no}: {} parked",
                svc.pooled()
            );
            windows.push((round.totals, round.vm))
        });
        windows
    };
    let first = windows();
    let evictions: u64 = first.iter().map(|(totals, _)| totals.pool_evictions).sum();
    assert!(
        evictions > 0,
        "no evictions: the check proves nothing about them"
    );
    assert_eq!(first, windows());
}
