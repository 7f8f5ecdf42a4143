//! `swsecbench` — the end-to-end benchmark of the swsec workspace.
//!
//! ```text
//! swsecbench --workload <campaign|fuzz|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload whose ops are a pure function of `--seed` and
//! `--seconds`, checks its outputs, and prints every metric by name and
//! unit. The last stdout line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Every call into swsec lives in [`api`]; see `README.md` for the
//! workloads, metrics and the layer map.

mod alloc;
mod api;
mod measure;
mod pace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{OpRecorder, Phase};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics of an untraced run, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("op_cpu_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics of a traced run, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("minc.parse.busy_ms", "ms"),
    ("minc.sema.busy_ms", "ms"),
    ("minc.codegen.busy_ms", "ms"),
    ("asm.assemble.busy_ms", "ms"),
    ("asm.assemble.kb_per_s", "KB/s"),
    ("minc.interp.busy_ms", "ms"),
    ("core.equiv.busy_ms", "ms"),
    ("core.loader.busy_ms", "ms"),
    ("core.loader.calls", "count"),
    ("core.harness.boot_ms", "ms"),
    ("core.harness.boots", "count"),
    ("core.harness.attempt_us_p50", "us"),
    ("vm.execute.busy_ms", "ms"),
    ("vm.instructions", "count"),
    ("vm.mips", "M/s"),
    ("vm.tier2.instr_share", "ratio"),
    ("vm.icache.hit_ratio", "ratio"),
    ("fuzz.engine.busy_ms", "ms"),
    ("fuzz.exec_us_p50.victim-smash", "us"),
    ("fuzz.exec_us_p50.minc-compiler", "us"),
    ("fuzz.exec_us_p50.vm-differential", "us"),
    ("core.serve.pool_hit_ratio", "ratio"),
    ("core.serve.submit.busy_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.serve.round_overhead_ms", "ms"),
    ("campaign.E1.busy_ms", "ms"),
    ("campaign.E2.busy_ms", "ms"),
    ("campaign.E3.busy_ms", "ms"),
    ("campaign.E4.busy_ms", "ms"),
    ("campaign.E5.busy_ms", "ms"),
    ("campaign.E6.busy_ms", "ms"),
    ("campaign.E7.busy_ms", "ms"),
    ("campaign.E8.busy_ms", "ms"),
    ("campaign.E9.busy_ms", "ms"),
    ("campaign.E10.busy_ms", "ms"),
    ("campaign.E11.busy_ms", "ms"),
    ("campaign.E12.busy_ms", "ms"),
    ("campaign.E13.busy_ms", "ms"),
    ("campaign.E14.busy_ms", "ms"),
    ("campaign.E15.busy_ms", "ms"),
    ("campaign.E16.busy_ms", "ms"),
    ("core.campaign.parallel_efficiency", "ratio"),
    ("core.report.render.busy_ms", "ms"),
    ("campaign.span.compile.self_ms", "ms"),
    ("campaign.span.boot.self_ms", "ms"),
    ("campaign.span.restore.self_ms", "ms"),
    ("campaign.span.execute.self_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-ups before the timed phase and after it; `setup_s` is the
/// median of all of them, each scaled by the host pace read right
/// after it. Spreading them over the run keeps one burst of host noise
/// from deciding it.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 6;

/// One benchmark workload. Its ops must be a pure function of the seed
/// and length it was built with, so that `setup` followed by `run`
/// repeats exactly the same work.
pub trait Workload {
    /// (Re)builds all state the timed phase needs, including any
    /// warm-up op, from scratch.
    fn setup(&mut self);

    /// Runs every op of the timed phase through `rec`. With `layers`,
    /// the same ops run traced and fill in the per-layer metrics.
    fn run(&mut self, rec: &mut OpRecorder, layers: Option<&mut Layers>);

    /// Output checks not done per op, run after the timed phases;
    /// returns every problem found (empty when correct).
    fn check(&mut self) -> Vec<String>;
}

/// Per-layer results of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    unavailable: BTreeMap<String, String>,
}

impl Layers {
    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), value);
    }

    /// Marks metrics this workload cannot measure, with the reason.
    pub fn unavailable(&mut self, names: &[&str], why: &str) {
        for name in names {
            self.unavailable.insert(name.to_string(), why.to_string());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u32 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    alloc::pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("swsecbench: {e}");
            eprintln!(
                "usage: swsecbench --workload <campaign|fuzz|serve> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = api::workload(&args.workload, args.seed, args.seconds) else {
        eprintln!("swsecbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    // Set-up, several times: the first is timed from process start.
    let mut setups = Setups::default();
    for i in 0..SETUPS_BEFORE {
        let t = if i == 0 { started } else { Instant::now() };
        workload.setup();
        setups.push(t.elapsed());
    }

    let mut rec = OpRecorder::new();
    workload.run(&mut rec, None);
    let phase = rec.finish();

    let mut problems = Vec::new();
    let mut layers = None;
    if args.trace {
        workload.setup();
        let mut traced = Layers::default();
        let mut rec = OpRecorder::new();
        workload.run(&mut rec, Some(&mut traced));
        let traced_phase = rec.finish();
        if traced_phase.ops != phase.ops || traced_phase.failed != phase.failed {
            problems.push(format!(
                "traced run diverged: {} ops / {} failed vs {} / {}",
                traced_phase.ops, traced_phase.failed, phase.ops, phase.failed
            ));
        }
        traced.set(
            "trace.overhead_ratio",
            traced_phase.scaled.op_cpu_ms_p50 / phase.scaled.op_cpu_ms_p50,
        );
        layers = Some(traced);
    }

    for _ in 0..SETUPS_AFTER {
        let t = Instant::now();
        workload.setup();
        setups.push(t.elapsed());
    }
    problems.extend(workload.check());
    for p in &problems {
        println!("check failed: {p}");
    }
    report(&args, &setups, &phase, layers.as_ref(), problems.is_empty());
    ExitCode::SUCCESS
}

/// Set-up times, as measured and scaled by the host pace.
#[derive(Default)]
struct Setups {
    raw: Vec<Duration>,
    scaled: Vec<Duration>,
}

impl Setups {
    /// Records a set-up that just took `took`.
    fn push(&mut self, took: Duration) {
        self.raw.push(took);
        self.scaled
            .push(took.mul_f64(pace::factor(pace::probe_us())));
    }

    /// Median scaled set-up time and median raw one, in seconds.
    fn medians(&self) -> (f64, f64) {
        (
            measure::quantile(&self.scaled, 0.5).as_secs_f64(),
            measure::quantile(&self.raw, 0.5).as_secs_f64(),
        )
    }
}

fn report(args: &Args, setups: &Setups, phase: &Phase, layers: Option<&Layers>, correct: bool) {
    let failed_ratio = phase.failed as f64 / phase.ops.max(1) as f64;
    let (setup_s, raw_setup_s) = setups.medians();
    let (t, raw) = (phase.scaled, phase.raw);
    let end_to_end = [
        setup_s,
        t.op_ms_p50,
        t.op_ms_p90,
        t.op_cpu_ms_p50,
        t.ops_per_s,
        phase.peak_heap_mb,
    ];
    let as_measured = [
        raw_setup_s,
        raw.op_ms_p50,
        raw.op_ms_p90,
        raw.op_cpu_ms_p50,
        raw.ops_per_s,
        phase.peak_heap_mb,
    ];
    println!(
        "# {} seed {} seconds {}: {} ops ({} beyond p90), {} failed",
        args.workload,
        args.seed,
        args.seconds,
        phase.ops,
        phase.ops - (phase.ops as f64 * 0.9).ceil() as usize,
        phase.failed
    );
    println!(
        "# host pace: median probe {:.1} us against {} us at full speed; times below are scaled to full speed (as measured in brackets)",
        phase.pace_us,
        pace::REFERENCE_US
    );
    for (((name, unit), value), measured) in END_TO_END.iter().zip(end_to_end).zip(as_measured) {
        println!("{name} = {value:.4} {unit} ({measured:.4})");
    }
    println!("failed_ratio = {failed_ratio:.4} ratio");
    println!("peak_heap_max_mb = {:.4} MB", phase.peak_heap_max_mb);

    let metrics: Vec<(&str, &str, f64)> = match layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.values.get(name).copied();
                match (value, layers.unavailable.get(name)) {
                    (Some(v), _) => println!("{name} = {v:.4} {unit}"),
                    (None, Some(why)) => println!("{name} = n/a ({why})"),
                    (None, None) => println!("{name} = n/a (not exercised by this workload)"),
                }
                (name, unit, value.unwrap_or(0.0))
            })
            .collect(),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.ops,
        phase.failed,
        body.join(", ")
    );
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
