//! `fuzz`: a series of E18 campaigns on one thread, each fuzzing the
//! three targets in sequence with equal budgets; one op is one target
//! execution.

use std::sync::Arc;
use std::time::{Duration, Instant};

use swsec::cache::ProgramCache;
use swsec::harness::{AttackTarget, AttemptOutcome, ServeMode};
use swsec_fuzz::targets::{CompilerTarget, DiffTarget, FuzzTarget, VictimTarget};
use swsec_fuzz::{fuzz_target, FuzzConfig, FuzzOutcome};
use swsec_minc::CompileError;
use swsec_obs::CoverageSink;
use swsec_rng::derive;

use super::replay::{self, Stages};
use super::{median, VmTally};

/// Median of `times`, in whole µs.
fn median_us(times: &[Duration]) -> f64 {
    median(
        &mut times
            .iter()
            .map(|t| t.as_micros() as u64)
            .collect::<Vec<_>>(),
    )
}
use crate::measure::OpRecorder;
use crate::{ms, Layers, Workload};

/// Mutated-input budget per target in one campaign: E18's smoke
/// setting (`FuzzExperiment::smoke`).
const BUDGET: u64 = 2_000;
/// E18 campaigns (three targets each) per hundred seconds of
/// `--seconds`; one takes about 3 s on a 2-vCPU x86-64 VM.
const CAMPAIGNS_PER_100S: u64 = 36;
/// Minimizer cap per finding (E18's smoke setting).
const MINIMIZE_BUDGET: u64 = 192;
/// The traced run replays every `REPLAY_STRIDE`-th compiler and
/// differential input stage by stage; all of them would double its
/// length.
const REPLAY_STRIDE: usize = 4;
/// Target names, in run order.
const TARGETS: [&str; 3] = ["victim-smash", "minc-compiler", "vm-differential"];

/// Every class the victim target can report: the exploit, or a crash
/// class named after the fault.
fn known_victim_class(class: &str) -> bool {
    class == "exploit: return hijacked into grant(), SECRET emitted"
        || matches!(
            class,
            "crash: memory fault"
                | "crash: PMA violation"
                | "crash: undecodable instruction"
                | "crash: divide by zero"
                | "crash: shadow-stack mismatch"
                | "crash: shadow-stack underflow"
                | "crash: unknown syscall"
        )
        || class.starts_with("crash: defensive trap (code ")
}

/// What the traced run records per target.
#[derive(Debug, Default)]
struct TargetTrace {
    loop_wall: Duration,
    exec_wall: Duration,
    exec: Vec<Duration>,
    /// `(run seed, input)` of every execution, for the replay.
    inputs: Vec<(u64, Vec<u8>)>,
    vm: VmTally,
}

/// Delegates to a real target, timing each execution as one op.
struct Timed<'a> {
    inner: &'a mut dyn FuzzTarget,
    rec: &'a mut OpRecorder,
    trace: Option<&'a mut TargetTrace>,
}

impl AttackTarget for Timed<'_> {
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        self.rec.begin();
        let out = self.inner.execute(seed, input);
        let wall = self.rec.end(out.is_ok());
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.exec_wall += wall;
            trace.exec.push(wall);
            trace.inputs.push((seed, input.to_vec()));
            if let Ok(out) = &out {
                trace.vm.add(&out.stats);
            }
        }
        out
    }
}

impl FuzzTarget for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run_seed(&self) -> u64 {
        self.inner.run_seed()
    }
    fn seeds(&self) -> Vec<Vec<u8>> {
        self.inner.seeds()
    }
    fn dictionary(&self) -> Vec<Vec<u8>> {
        self.inner.dictionary()
    }
    fn max_len(&self) -> usize {
        self.inner.max_len()
    }
    fn attach_coverage(&mut self, sink: Arc<CoverageSink>) {
        self.inner.attach_coverage(sink);
    }
    fn classify(&mut self, outcome: &AttemptOutcome) -> Option<String> {
        self.inner.classify(outcome)
    }
    fn divergences(&self) -> u64 {
        self.inner.divergences()
    }
}

pub struct Fuzz {
    seed: u64,
    campaigns: u64,
    cache: ProgramCache,
    /// Each campaign's three targets, in [`TARGETS`] order.
    targets: Vec<[Box<dyn FuzzTarget>; 3]>,
    problems: Vec<String>,
}

impl Fuzz {
    pub fn new(seed: u64, seconds: u32) -> Fuzz {
        Fuzz {
            seed,
            campaigns: (u64::from(seconds) * CAMPAIGNS_PER_100S / 100).max(1),
            cache: ProgramCache::new(),
            targets: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Seed of target `target` in campaign `campaign`; `stream` 0 is
    /// the target's run seed, 1 its fuzzing master seed.
    fn seed_of(&self, campaign: u64, target: usize, stream: u64) -> u64 {
        derive(self.seed, &[campaign, target as u64, stream])
    }

    fn check_outcome(&mut self, outcome: &FuzzOutcome) {
        let classes: Vec<&str> = outcome.findings.iter().map(|f| f.class.as_str()).collect();
        match outcome.target {
            "victim-smash" => {
                for class in classes.iter().filter(|c| !known_victim_class(c)) {
                    self.problems
                        .push(format!("victim-smash: unknown class {class:?}"));
                }
            }
            "minc-compiler" if !classes.is_empty() => {
                self.problems
                    .push(format!("minc-compiler findings: {classes:?}"));
            }
            "vm-differential" if outcome.divergences > 0 || !classes.is_empty() => {
                self.problems.push(format!(
                    "vm-differential: {} divergences, findings {classes:?}",
                    outcome.divergences
                ));
            }
            _ => {}
        }
    }
}

impl Workload for Fuzz {
    fn setup(&mut self) {
        self.cache = ProgramCache::new();
        self.targets = (0..self.campaigns)
            .map(|c| -> [Box<dyn FuzzTarget>; 3] {
                [
                    Box::new(VictimTarget::new(
                        &self.cache,
                        self.seed_of(c, 0, 0),
                        ServeMode::Fork,
                    )),
                    Box::new(CompilerTarget::new(self.seed_of(c, 1, 0))),
                    Box::new(DiffTarget::new(&self.cache, self.seed_of(c, 2, 0))),
                ]
            })
            .collect();
        // Warm-up op: every target runs its starter inputs once.
        for target in self.targets.iter_mut().flatten() {
            let run_seed = target.run_seed();
            for input in target.seeds() {
                if let Err(e) = target.execute(run_seed, &input) {
                    self.problems
                        .push(format!("{} warm-up: {e:?}", target.name()));
                }
            }
        }
    }

    fn run(&mut self, rec: &mut OpRecorder, layers: Option<&mut Layers>) {
        let mut traces: [TargetTrace; 3] = Default::default();
        let tracing = layers.is_some();
        for (c, campaign) in std::mem::take(&mut self.targets).into_iter().enumerate() {
            for (k, mut target) in campaign.into_iter().enumerate() {
                let started = Instant::now();
                let outcome = fuzz_target(
                    &mut Timed {
                        inner: target.as_mut(),
                        rec: &mut *rec,
                        trace: tracing.then_some(&mut traces[k]),
                    },
                    &FuzzConfig {
                        master_seed: self.seed_of(c as u64, k, 1),
                        budget: BUDGET,
                        minimize_budget: MINIMIZE_BUDGET,
                    },
                );
                traces[k].loop_wall += started.elapsed();
                if outcome.target != TARGETS[k] {
                    self.problems
                        .push(format!("target {k} is {}", outcome.target));
                }
                self.check_outcome(&outcome);
            }
        }
        if let Some(layers) = layers {
            self.attribute(&traces, layers);
        }
    }

    fn check(&mut self) -> Vec<String> {
        std::mem::take(&mut self.problems)
    }
}

impl Fuzz {
    /// Fills the per-layer metrics from the traced run, replaying the
    /// compiler and differential targets' inputs stage by stage.
    fn attribute(&self, traces: &[TargetTrace; 3], layers: &mut Layers) {
        let ops: usize = traces.iter().map(|t| t.exec.len()).sum();
        let per_op = |total_ms: f64| total_ms / ops.max(1) as f64;
        let [victim, compiler, diff] = traces;

        let engine: Duration = traces
            .iter()
            .map(|t| t.loop_wall.saturating_sub(t.exec_wall))
            .sum();
        layers.set("fuzz.engine.busy_ms", per_op(ms(engine)));
        for (name, trace) in [
            ("fuzz.exec_us_p50.victim-smash", victim),
            ("fuzz.exec_us_p50.minc-compiler", compiler),
            ("fuzz.exec_us_p50.vm-differential", diff),
        ] {
            layers.set(name, median_us(&trace.exec));
        }
        let mut vm = VmTally::default();
        for t in traces {
            vm.merge(&t.vm);
        }
        vm.report(layers);

        // Replay a fixed sample of the inputs; its totals stand for
        // `ops / REPLAY_STRIDE` ops.
        let sample = |t: &TargetTrace| -> Vec<(u64, Vec<u8>)> {
            t.inputs.iter().step_by(REPLAY_STRIDE).cloned().collect()
        };
        let sampled_exec =
            |t: &TargetTrace| -> Duration { t.exec.iter().step_by(REPLAY_STRIDE).sum() };
        let mut stages = Stages::default();
        replay::compiler(&sample(compiler), &mut stages);
        replay::differential(&self.cache, &sample(diff), &mut stages);
        let unattributed =
            (sampled_exec(compiler) + sampled_exec(diff)).saturating_sub(stages.total());
        let replayed_ops = ops as f64 / REPLAY_STRIDE as f64;
        stages.report(layers, replayed_ops);
        layers.set("core.harness.attempt_us_p50", median_us(&victim.exec));
        layers.set("core.harness.boots", 0.0);
        layers.set("trace.unattributed_ms", ms(unattributed) / replayed_ops);
        layers.unavailable(
            &["core.harness.boot_ms"],
            "the victim's ForkServer boots during set-up, outside the timed phase",
        );
    }
}
