//! `serve`: a closed loop with one round in flight. Each round, 32
//! tenants each submit 2 jobs of 64 attempts against the stock victim
//! and one `run()` serves them; one op is one round.

use std::time::{Duration, Instant};

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::harness::{AttackTarget, ForkServer};
use swsec::serve::{
    CampaignService, JobSpec, ServeConfig, ServeTelemetry, ServeTotals, ServiceRound, TenantConfig,
    TenantId,
};
use swsec_defenses::DefenseConfig;
use swsec_obs::{SpanKind, SpanMask};
use swsec_rng::derive;

use super::{covered_us, durations_us, median, workers, SpanTimes, VmTally};
use crate::measure::OpRecorder;
use crate::{ms, Layers, Workload};

const TENANTS: usize = 32;
const JOBS_PER_TENANT: usize = 2;
const ATTEMPTS: u32 = 64;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: usize = 60;
/// Timed rounds one service instance serves before the next replaces
/// it. The warm pool parks every booted server under its
/// `(program, options, defenses)` key and never evicts a key; each
/// ASLR job's fresh layout is a new key, so the pool grows by about
/// 8.5 MB per round for as long as the service lives. A bounded
/// session keeps that growth visible in `peak_heap_mb` without letting
/// a run claim gigabytes.
const SESSION_ROUNDS: usize = 25;
/// Boots per defense stack in the harness probe of the traced run.
const PROBE_BOOTS: u64 = 8;

/// The rotating defense stacks: none, canaries, canaries+DEP+ASLR(8).
fn stacks() -> [DefenseConfig; 3] {
    [
        DefenseConfig::none(),
        DefenseConfig {
            canary: true,
            ..DefenseConfig::none()
        },
        DefenseConfig::modern(8),
    ]
}

pub struct Serve {
    seed: u64,
    rounds: usize,
    workers: usize,
    /// The timed round whose per-tenant render is replayed without the
    /// fork server.
    sample_round: usize,
    /// The live session: its service and tenants.
    svc: Option<(CampaignService, Vec<TenantId>)>,
    /// Per-tenant renders after `sample_round`, from the untraced phase.
    renders: Option<Vec<String>>,
    problems: Vec<String>,
}

impl Serve {
    pub fn new(seed: u64, seconds: u32) -> Serve {
        Serve {
            seed,
            rounds: seconds as usize * ROUNDS_PER_SECOND,
            workers: workers(),
            sample_round: 1 + (seed % 2) as usize,
            svc: None,
            renders: None,
            problems: Vec::new(),
        }
    }

    /// A service for session `session` with its tenants registered.
    fn service(&self, session: usize, fork_server: bool) -> (CampaignService, Vec<TenantId>) {
        let mut svc = CampaignService::new(ServeConfig {
            workers: self.workers,
            fork_server,
            ..ServeConfig::default()
        });
        let ids = (0..TENANTS)
            .map(|t| {
                svc.register_tenant(TenantConfig {
                    name: format!("tenant-{t}"),
                    seed: derive(self.seed, &[session as u64, t as u64]),
                    priority: 1,
                    quota: JOBS_PER_TENANT,
                })
            })
            .collect();
        (svc, ids)
    }

    /// Submits round `round`'s jobs; returns how many were refused.
    fn submit_round(svc: &mut CampaignService, ids: &[TenantId], round: usize) -> usize {
        let stacks = stacks();
        let mut refused = 0;
        for j in 0..JOBS_PER_TENANT {
            for (t, id) in ids.iter().enumerate() {
                let job = round * JOBS_PER_TENANT + j;
                let spec = JobSpec {
                    attempts: ATTEMPTS,
                    ..JobSpec::new(VICTIM_SMASH, stacks[(t + job) % stacks.len()])
                };
                refused += usize::from(svc.submit(*id, spec).is_err());
            }
        }
        refused
    }

    /// Whether every job of the round completed first time.
    fn round_ok(round: &ServiceRound, refused: usize) -> bool {
        let t = round.totals;
        refused == 0
            && round.jobs == TENANTS * JOBS_PER_TENANT
            && t.jobs_done == round.jobs as u64
            && t.jobs_retried == 0
            && t.jobs_failed == 0
            && t.degraded() == 0
            && t.attempts == round.jobs as u64 * u64::from(ATTEMPTS)
    }

    /// A fork-server service for session `session`, after its warm-up
    /// round (round 0) has booted the pool.
    fn session(&mut self, session: usize) -> (CampaignService, Vec<TenantId>) {
        let (mut svc, ids) = self.service(session, true);
        let refused = Self::submit_round(&mut svc, &ids, 0);
        let round = svc.run();
        if !Self::round_ok(&round, refused) {
            self.problems.push(format!(
                "session {session} warm-up round: {}",
                round.summary_line()
            ));
        }
        (svc, ids)
    }
}

impl Workload for Serve {
    fn setup(&mut self) {
        // Free the previous session's pool before booting the next.
        self.svc = None;
        self.svc = Some(self.session(0));
    }

    fn run(&mut self, rec: &mut OpRecorder, layers: Option<&mut Layers>) {
        let (mut svc, mut ids) = self.svc.take().expect("set up before run");
        let telemetry = ServeTelemetry {
            spans: layers.as_ref().map(|_| {
                SpanMask::JOB
                    .union(SpanMask::ATTEMPT)
                    .union(SpanMask::COMPILE)
                    .union(SpanMask::BOOT)
                    .union(SpanMask::RESTORE)
                    .union(SpanMask::EXECUTE)
            }),
            ..ServeTelemetry::default()
        };
        let (mut hits, mut misses) = (0, 0);
        let mut cache_before = svc.cache_stats();
        let mut totals = ServeTotals::default();
        let mut spans = SpanTimes::default();
        let mut submit = Duration::ZERO;
        let mut overhead_us = 0u64;
        let mut unattributed_us = 0u64;
        let mut attempts_us = Vec::new();

        for op in 0..self.rounds {
            let (session, round_no) = (op / SESSION_ROUNDS, op % SESSION_ROUNDS + 1);
            if round_no == 1 && session > 0 {
                let cache = svc.cache_stats();
                hits += cache.hits - cache_before.hits;
                misses += cache.misses - cache_before.misses;
                (svc, ids) = rec.exclude(|| {
                    drop(svc);
                    self.session(session)
                });
                cache_before = svc.cache_stats();
            }
            rec.begin();
            let t = Instant::now();
            let refused = Self::submit_round(&mut svc, &ids, round_no);
            let submitted_in = t.elapsed();
            let round = svc.run_with(&telemetry);
            let ok = Self::round_ok(&round, refused);
            rec.end(ok);
            if !ok {
                self.problems
                    .push(format!("round {round_no}: {}", round.summary_line()));
            }
            if op + 1 == self.sample_round {
                let renders: Vec<String> =
                    rec.exclude(|| ids.iter().map(|id| svc.render_tenant(*id)).collect());
                match &self.renders {
                    Some(first) if *first != renders => self.problems.push(format!(
                        "round {round_no}: traced per-tenant render differs from untraced"
                    )),
                    Some(_) => {}
                    None => self.renders = Some(renders),
                }
            }
            if layers.is_some() {
                let t = round.totals;
                totals.pool_hits += t.pool_hits;
                totals.pool_boots += t.pool_boots;
                submit += submitted_in;
                spans.add(&round.spans);
                attempts_us.extend(durations_us(&round.spans, SpanKind::Attempt));
                let wall = round.elapsed.as_micros() as u64;
                overhead_us += wall.saturating_sub(covered_us(&round.spans, &[SpanKind::Job]));
                unattributed_us += wall.saturating_sub(covered_us(
                    &round.spans,
                    &[SpanKind::Attempt, SpanKind::Compile, SpanKind::Boot],
                ));
            }
        }

        if let Some(layers) = layers {
            let ops = self.rounds as f64;
            let cache = svc.cache_stats();
            hits += cache.hits - cache_before.hits;
            misses += cache.misses - cache_before.misses;
            layers.set(
                "core.serve.pool_hit_ratio",
                totals.pool_hits as f64 / (totals.pool_hits + totals.pool_boots).max(1) as f64,
            );
            layers.set("core.serve.submit.busy_ms", ms(submit) / ops);
            layers.set(
                "core.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            layers.set(
                "core.serve.round_overhead_ms",
                overhead_us as f64 / 1e3 / ops,
            );
            layers.set("core.harness.boots", totals.pool_boots as f64 / ops);
            layers.set("core.harness.attempt_us_p50", median(&mut attempts_us));
            layers.set(
                "vm.execute.busy_ms",
                spans.total_ms(SpanKind::Execute) / ops,
            );
            layers.set("core.loader.busy_ms", spans.total_ms(SpanKind::Boot) / ops);
            layers.set(
                "core.loader.calls",
                spans.count(SpanKind::Boot) as f64 / ops,
            );
            layers.set("trace.unattributed_ms", unattributed_us as f64 / 1e3 / ops);
            self.harness_probe(layers);
        }
        self.svc = Some((svc, ids));
    }

    fn check(&mut self) -> Vec<String> {
        // Replay the service up to the sampled round with every attempt
        // rebuilt from scratch: the per-tenant renders must match.
        let (mut svc, ids) = self.service(0, false);
        for round in 0..=self.sample_round {
            Self::submit_round(&mut svc, &ids, round);
            svc.run();
        }
        let replay: Vec<String> = ids.iter().map(|id| svc.render_tenant(*id)).collect();
        match &self.renders {
            Some(renders) if *renders == replay => {}
            Some(_) => self.problems.push(format!(
                "round {}: per-tenant render differs from the fork_server: false replay",
                self.sample_round
            )),
            None => self.problems.push("sampled round never ran".to_string()),
        }
        std::mem::take(&mut self.problems)
    }
}

impl Serve {
    /// Boots the victim under each stack through `ForkServer` and
    /// serves attack-shaped inputs from it, timing boots (warm cache)
    /// and summing the `ExecStats` each attempt returns: the service
    /// itself returns no per-attempt stats.
    fn harness_probe(&self, layers: &mut Layers) {
        let cache = ProgramCache::new();
        let mut boots = Duration::ZERO;
        let mut booted = 0u32;
        let mut execute = Duration::ZERO;
        let mut vm = VmTally::default();
        for (k, stack) in stacks().into_iter().enumerate() {
            for b in 0..PROBE_BOOTS {
                let seed = derive(self.seed, &[u64::MAX, k as u64, b]);
                // The first boot of a plan compiles it; time the second.
                let boot = || ForkServer::boot(&cache, VICTIM_SMASH, stack, seed);
                drop(boot().expect("the stock victim boots"));
                let t = Instant::now();
                let mut server = boot().expect("the stock victim boots");
                boots += t.elapsed();
                booted += 1;
                for i in 0..ATTEMPTS {
                    let input = vec![b'A' + (i % 26) as u8; 1 + (i as usize * 7) % 96];
                    let t = Instant::now();
                    let out = server.execute(seed, &input).expect("probe attempt runs");
                    execute += t.elapsed();
                    vm.add(&out.stats);
                }
            }
        }
        layers.set("core.harness.boot_ms", ms(boots) / f64::from(booted));
        layers.set(
            "vm.mips",
            vm.instructions as f64 / 1e6 / execute.as_secs_f64(),
        );
        vm.report(layers);
        layers.unavailable(
            &[
                "minc.parse.busy_ms",
                "minc.sema.busy_ms",
                "minc.codegen.busy_ms",
                "asm.assemble.busy_ms",
                "asm.assemble.kb_per_s",
                "minc.interp.busy_ms",
                "core.equiv.busy_ms",
            ],
            "the service compiles inside ForkServer::boot, timed as a whole",
        );
    }
}
