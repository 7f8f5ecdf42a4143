//! `campaign`: one op is a full E1–E16 campaign plus its render.

use std::time::{Duration, Instant};

use swsec::campaign::{run_campaign, run_campaign_with, CampaignConfig, CampaignTelemetry};
use swsec_obs::{SpanKind, SpanMask};
use swsec_rng::derive;

use super::{covered_us, durations_us, median, workers, SpanTimes};
use crate::measure::OpRecorder;
use crate::{ms, Layers, Workload};

/// Campaign ops per second of `--seconds` (about 50–60 ms each on a
/// 2-vCPU x86-64 VM).
const OPS_PER_SECOND: u32 = 16;
/// Seed-path tags under the workload seed.
const WARMUP: u64 = u64::MAX;
const SAMPLE: u64 = u64::MAX - 1;
/// Ops whose render is re-checked against a rebuild-mode run.
const SAMPLES: u64 = 2;

pub struct Campaign {
    seed: u64,
    ops: u64,
    sampled: Vec<u64>,
    /// Renders of the sampled ops, from the untraced phase.
    renders: Vec<(u64, String)>,
    problems: Vec<String>,
}

impl Campaign {
    pub fn new(seed: u64, seconds: u32) -> Campaign {
        let ops = u64::from(seconds * OPS_PER_SECOND);
        Campaign {
            seed,
            ops,
            sampled: (0..SAMPLES)
                .map(|k| derive(seed, &[SAMPLE, k]) % ops)
                .collect(),
            renders: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// The campaign of op `op`: the default configuration with a master
    /// seed derived from the workload seed and the op index.
    fn config(&self, op: u64) -> CampaignConfig {
        CampaignConfig {
            master_seed: derive(self.seed, &[op]),
            workers: workers(),
            ..CampaignConfig::default()
        }
    }
}

impl Workload for Campaign {
    fn setup(&mut self) {
        let report = run_campaign(&self.config(WARMUP));
        if !report.all_ok() {
            self.problems.push(format!(
                "warm-up campaign: {} failed cells",
                report.failed_cells().len()
            ));
        }
        std::hint::black_box(report.render());
    }

    fn run(&mut self, rec: &mut OpRecorder, layers: Option<&mut Layers>) {
        let telemetry = match layers {
            Some(_) => CampaignTelemetry::none().with_spans(SpanMask::ALL),
            None => CampaignTelemetry::none(),
        };
        let mut spans = SpanTimes::default();
        let mut busy = [Duration::ZERO; 17];
        let mut cell_busy = Duration::ZERO;
        let mut wall_workers = Duration::ZERO;
        let mut render_time = Duration::ZERO;
        let mut unattributed_us = 0u64;
        let mut attempts_us = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);

        for op in 0..self.ops {
            let cfg = self.config(op);
            rec.begin();
            let report = run_campaign_with(&cfg, &telemetry);
            let t = Instant::now();
            let render = report.render();
            let rendered_in = t.elapsed();
            let ok = report.all_ok();
            rec.end(ok);
            if !ok {
                self.problems.push(format!(
                    "campaign op {op}: failed cells {:?}",
                    report.failed_cells()
                ));
            }
            if self.sampled.contains(&op) {
                match self.renders.iter().find(|(o, _)| *o == op) {
                    Some((_, first)) if *first != render => self.problems.push(format!(
                        "campaign op {op}: traced render differs from untraced"
                    )),
                    Some(_) => {}
                    None => self.renders.push((op, render)),
                }
            }
            if layers.is_some() {
                for timing in &report.timings {
                    busy[usize::from(timing.id.number())] += timing.busy;
                    cell_busy += timing.busy;
                }
                wall_workers += report.elapsed * report.workers as u32;
                render_time += rendered_in;
                hits += report.cache.hits;
                misses += report.cache.misses;
                spans.add(&report.spans);
                attempts_us.extend(durations_us(&report.spans, SpanKind::Attempt));
                let layered = covered_us(
                    &report.spans,
                    &[SpanKind::Compile, SpanKind::Boot, SpanKind::Attempt],
                );
                unattributed_us += (report.elapsed.as_micros() as u64).saturating_sub(layered);
            }
        }

        let Some(layers) = layers else {
            return;
        };
        let per_op = |total_ms: f64| total_ms / self.ops as f64;
        for (n, busy) in busy.iter().enumerate().skip(1) {
            layers.set(&format!("campaign.E{n}.busy_ms"), per_op(ms(*busy)));
        }
        layers.set(
            "core.campaign.parallel_efficiency",
            cell_busy.as_secs_f64() / wall_workers.as_secs_f64(),
        );
        layers.set("core.report.render.busy_ms", per_op(ms(render_time)));
        layers.set(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set(
            "campaign.span.compile.self_ms",
            per_op(spans.self_ms(SpanKind::Compile)),
        );
        layers.set(
            "campaign.span.boot.self_ms",
            per_op(spans.self_ms(SpanKind::Boot)),
        );
        layers.set(
            "campaign.span.restore.self_ms",
            per_op(spans.self_ms(SpanKind::Restore)),
        );
        layers.set(
            "campaign.span.execute.self_ms",
            per_op(spans.self_ms(SpanKind::Execute)),
        );
        layers.set(
            "vm.execute.busy_ms",
            per_op(spans.total_ms(SpanKind::Execute)),
        );
        layers.set(
            "core.loader.busy_ms",
            per_op(spans.total_ms(SpanKind::Boot)),
        );
        layers.set(
            "core.loader.calls",
            spans.count(SpanKind::Boot) as f64 / self.ops as f64,
        );
        layers.set("core.harness.attempt_us_p50", median(&mut attempts_us));
        layers.set(
            "trace.unattributed_ms",
            per_op(unattributed_us as f64 / 1e3),
        );
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
            "campaign cells call these inside experiments, where the \
             benchmark cannot time them; see the fuzz workload",
        );
        layers.unavailable(
            &[
                "vm.instructions",
                "vm.mips",
                "vm.tier2.instr_share",
                "vm.icache.hit_ratio",
            ],
            "run_campaign returns no per-run ExecStats, only the \
             process-wide counter bank this benchmark does not read",
        );
        layers.unavailable(
            &["core.harness.boot_ms", "core.harness.boots"],
            "ForkServer::boot records no span of its own inside a campaign",
        );
    }

    fn check(&mut self) -> Vec<String> {
        // Guessing attacks served from snapshots must render exactly as
        // when every attempt rebuilds its machine.
        for (op, render) in &self.renders {
            let rebuilt = run_campaign(&CampaignConfig {
                fork_server: false,
                ..self.config(*op)
            });
            if rebuilt.render() != *render {
                self.problems.push(format!(
                    "campaign op {op}: render differs from the fork_server: false run"
                ));
            }
        }
        std::mem::take(&mut self.problems)
    }
}
