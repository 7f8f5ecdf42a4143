//! Stage-by-stage replay of fuzz inputs through the public pipeline
//! functions, so the traced run can split a target execution into
//! layers without instrumenting the program.

use std::time::{Duration, Instant};

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::equiv::classify_observations;
use swsec::loader;
use swsec_defenses::DefenseConfig;
use swsec_fuzz::gen;
use swsec_minc::{compile, interp, parse, sema};

use crate::{ms, Layers};

/// Fuel the compiler target gives both the interpreter and the machine.
const COMPILER_FUEL: u64 = 5_000_000;
/// Per-run fuel of the differential target.
const DIFF_FUEL: u64 = 200_000;

/// Busy time per layer over a replay.
#[derive(Debug, Default)]
pub struct Stages {
    parse: Duration,
    sema: Duration,
    compile: Duration,
    assemble: Duration,
    listing_bytes: u64,
    interp: Duration,
    equiv: Duration,
    loader: Duration,
    loader_calls: u64,
    execute: Duration,
    instructions: u64,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

impl Stages {
    /// Everything the replay attributed to a named layer.
    pub fn total(&self) -> Duration {
        self.parse + self.compile + self.interp + self.equiv + self.loader + self.execute
    }

    /// Records the replay's layer metrics, per op of a run whose `ops`
    /// ops the replay stands for.
    pub fn report(&self, layers: &mut Layers, ops: f64) {
        let per_op = |d: Duration| ms(d) / ops.max(1.0);
        let codegen = self.compile.saturating_sub(self.sema + self.assemble);
        layers.set("minc.parse.busy_ms", per_op(self.parse));
        layers.set("minc.sema.busy_ms", per_op(self.sema));
        layers.set("minc.codegen.busy_ms", per_op(codegen));
        layers.set("asm.assemble.busy_ms", per_op(self.assemble));
        layers.set(
            "asm.assemble.kb_per_s",
            self.listing_bytes as f64 / 1024.0 / self.assemble.as_secs_f64(),
        );
        layers.set("minc.interp.busy_ms", per_op(self.interp));
        layers.set("core.equiv.busy_ms", per_op(self.equiv));
        layers.set("core.loader.busy_ms", per_op(self.loader));
        layers.set("core.loader.calls", self.loader_calls as f64 / ops.max(1.0));
        layers.set("vm.execute.busy_ms", per_op(self.execute));
        layers.set(
            "vm.mips",
            self.instructions as f64 / 1e6 / self.execute.as_secs_f64(),
        );
    }
}

/// Replays the compiler target's inputs: generate, parse, check,
/// compile (and, separately, assemble its listing), interpret, load,
/// run, and judge — the calls the target makes, each timed.
pub fn compiler(inputs: &[(u64, Vec<u8>)], s: &mut Stages) {
    let config = DefenseConfig::none();
    for (run_seed, input) in inputs {
        let run_seed = *run_seed;
        let opts = loader::plan_options(&config, run_seed);
        let src = gen::program_from_bytes(input);
        let Ok(unit) = timed(&mut s.parse, || parse(&src)) else {
            continue;
        };
        // `compile` runs `sema::check` and assembles its own listing;
        // timing both on the same input leaves codegen's self time.
        let _ = timed(&mut s.sema, || sema::check(&unit));
        let Ok(program) = timed(&mut s.compile, || compile(&unit, &opts)) else {
            continue;
        };
        let _ = timed(&mut s.assemble, || swsec_asm::assemble(&program.listing));
        s.listing_bytes += program.listing.len() as u64;
        let reference = timed(&mut s.interp, || interp::run(&unit, &[], COMPILER_FUEL));
        s.loader_calls += 1;
        let Ok(mut session) = timed(&mut s.loader, || {
            loader::launch_compiled(&program, config, run_seed)
        }) else {
            continue;
        };
        let outcome = timed(&mut s.execute, || session.run(COMPILER_FUEL));
        s.instructions += session.machine.stats().instructions;
        let io = session.machine.io().observable();
        std::hint::black_box(timed(&mut s.equiv, || {
            classify_observations(&reference.outcome, &reference.io, &outcome, &io)
        }));
    }
}

/// Replays the differential target's inputs: three launches (tier 2,
/// tier 1 fast path, baseline) and three runs per input.
pub fn differential(cache: &ProgramCache, inputs: &[(u64, Vec<u8>)], s: &mut Stages) {
    let config = DefenseConfig::none();
    for (run_seed, input) in inputs {
        let run_seed = *run_seed;
        let program = cache
            .compile(VICTIM_SMASH, &loader::plan_options(&config, run_seed))
            .expect("the stock victim compiles");
        for (fast, tier2) in [(true, true), (true, false), (false, false)] {
            s.loader_calls += 1;
            let Ok(mut session) = timed(&mut s.loader, || {
                loader::launch_compiled(&program, config, run_seed)
            }) else {
                continue;
            };
            session.machine.set_fast_path(fast);
            session.machine.set_tier2(tier2);
            session.machine.io_mut().feed_input(0, input);
            std::hint::black_box(timed(&mut s.execute, || session.run(DIFF_FUEL)));
            s.instructions += session.machine.stats().instructions;
        }
    }
}
