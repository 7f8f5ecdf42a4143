//! vmbench — the offline VM hot-path benchmark.
//!
//! A plain `std::time::Instant` harness with no registry
//! dependencies: five hand-assembled machine-code workloads
//! run in three tiers — tier 2 (superinstruction block engine over
//! the hot path), tier 1 (decoded-instruction cache + two-entry TLBs,
//! blocks off) and the per-byte baseline — reporting instructions per
//! second and both speedups; two attack-harness workloads
//! (`aslr-bruteforce`, `canary-oracle`) timing attempts served per
//! second by the fork server against the per-attempt rebuild
//! baseline; a fuzz-replay ratio leg plus a coverage-parity leg that
//! replays the same corpus with a `CoverageSink` attached, tier 2 on
//! vs off, asserting byte-identical per-attempt fingerprints with
//! blocks engaged; plus the wall time of a campaign run. Results go
//! to stdout as a table and to `BENCH_vm.json` (schema v6).
//!
//! ```text
//! sh scripts/bench.sh            # full run, writes BENCH_vm.json
//! sh scripts/bench.sh --smoke    # seconds-long sanity run (verify.sh)
//! ```
//!
//! `--verbose` prints each workload's full [`ExecStats::verbose`]
//! counters; `--telemetry PATH` streams the campaign leg's security
//! events and final metrics as schema-v1 JSONL. A telemetry-overhead
//! leg re-times the tight loop with sinks attached and asserts the
//! disabled-interest configuration costs within 3% of no sink at all.
//! A profiler-overhead leg re-times it in the tier-1 fast path with
//! the sampling profiler attached: disabled (interval 0) must stay
//! within the stand's 3% noise floor (design target ≤1%, measured
//! ~0%), 1/4096 sampling within 10% — and a tiered leg under sampling
//! asserts the block engine stays engaged between samples.
//! Workloads where tier 2 is not a win are marked `~` in the table and
//! listed under `"flat_workloads"` in the JSON; workloads the block
//! engine excludes by construction (`tier2.compiled == 0`, e.g.
//! `pma-crossing` — PMA machines run every access through the
//! protection check) are marked `^` and listed under
//! `"tier2_excluded_workloads"` instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::campaign::{run_campaign_with, CampaignConfig, CampaignTelemetry};
use swsec::harness::{AttackTarget, ForkServer, ServeMode};
use swsec::loader;
use swsec::report::ExperimentId;
use swsec::serve::{CampaignService, JobSpec, ServeConfig, TenantConfig};
use swsec_defenses::DefenseConfig;
use swsec_fuzz::targets::{FuzzTarget, VictimTarget};
use swsec_obs::jsonl::meta_line;
use swsec_obs::{
    CountingSink, CoverageSink, EventMask, EventSink, JsonlSink, MetricsRegistry, SecurityEvent,
};
use swsec_rng::derive;
use swsec_vm::context::scope;
use swsec_vm::cpu::{Machine, RunOutcome};
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::Perm;
use swsec_vm::policy::{ProtectedRegion, ProtectionMap};
use swsec_vm::profile::{Profiler, DEFAULT_INTERVAL};
use swsec_vm::trace::ExecStats;
use swsec_vm::VmConfig;

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x0020_0000;
const MODULE: u32 = 0x0040_0000;
const MDATA: u32 = 0x0041_0000;
const STACK_TOP: u32 = 0xbfff_f000;

/// Resolves an instruction index to its address during assembly.
type AddrOf<'a> = &'a dyn Fn(usize) -> u32;

/// Assembles `build`'s program at `base`, resolving instruction-index
/// references to addresses in a second pass (instruction lengths are
/// fixed per opcode, so the first-pass layout is exact).
fn assemble_at(base: u32, build: &dyn Fn(AddrOf) -> Vec<Instr>) -> Vec<u8> {
    let draft = build(&|_| base);
    let mut addrs = Vec::with_capacity(draft.len());
    let mut off = 0u32;
    for i in &draft {
        addrs.push(base + off);
        let mut b = Vec::new();
        i.encode(&mut b);
        off += b.len() as u32;
    }
    let mut out = Vec::new();
    for i in &build(&|idx| addrs[idx]) {
        i.encode(&mut out);
    }
    out
}

/// A machine mapped with text, data and stack, code poked at `TEXT`.
fn machine(code: &[u8]) -> Machine {
    let mut m = Machine::new();
    m.mem_mut().map(TEXT, 0x1000, Perm::RX).expect("map text");
    m.mem_mut().map(DATA, 0x2000, Perm::RW).expect("map data");
    m.mem_mut()
        .map(STACK_TOP - 0x4000, 0x4000, Perm::RW)
        .expect("map stack");
    m.mem_mut().poke_bytes(TEXT, code).expect("load text");
    m.set_reg(Reg::Sp, STACK_TOP);
    m.set_ip(TEXT);
    m
}

/// A counted loop: `iters` trips of decrement / compare / branch.
/// Pure icache fodder — the densest fetch-decode stream the ISA has.
fn tight_loop(iters: u32) -> Machine {
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: iters,
            },
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            }, // 1: loop head
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(1),
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    machine(&code)
}

/// `iters` calls to a leaf that builds and tears down a frame — the
/// call/ret/push/pop path, all stack traffic on one page (data TLB).
fn call_heavy(iters: u32) -> Machine {
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: iters,
            },
            Instr::Call(at(6)), // 1: loop head
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(1),
            },
            Instr::Sys(sys::EXIT),
            Instr::Enter(16), // 6: f
            Instr::Push(Reg::R0),
            Instr::Pop(Reg::R1),
            Instr::Leave,
            Instr::Ret,
        ]
    });
    machine(&code)
}

/// Word and byte loads/stores against one data page: the single-lookup
/// read_u32/write_u32 fast path and the data TLB.
fn memory_heavy(iters: u32) -> Machine {
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: DATA,
            },
            Instr::MovI {
                dst: Reg::R0,
                imm: iters,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 0,
                src: Reg::R0,
            }, // 2: loop head
            Instr::Load {
                dst: Reg::R2,
                base: Reg::R1,
                disp: 0,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 64,
                src: Reg::R2,
            },
            Instr::Load {
                dst: Reg::R3,
                base: Reg::R1,
                disp: 64,
            },
            Instr::StoreB {
                base: Reg::R1,
                disp: 4,
                src: Reg::R0,
            },
            Instr::LoadB {
                dst: Reg::R4,
                base: Reg::R1,
                disp: 4,
            },
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(2),
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    machine(&code)
}

/// `iters` round trips into a protected module: every step runs the
/// PMA fetch check, every call crosses the boundary through the entry
/// point, and the module touches its private data page.
fn pma_crossing(iters: u32) -> Machine {
    let main_code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: iters,
            },
            Instr::Call(MODULE), // 1: loop head
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(1),
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    let module_code = assemble_at(MODULE, &|_| {
        vec![
            Instr::MovI {
                dst: Reg::R1,
                imm: MDATA,
            },
            Instr::Load {
                dst: Reg::R2,
                base: Reg::R1,
                disp: 0,
            },
            Instr::Store {
                base: Reg::R1,
                disp: 4,
                src: Reg::R2,
            },
            Instr::Ret,
        ]
    });
    let mut m = machine(&main_code);
    m.mem_mut()
        .map(MODULE, 0x1000, Perm::RX)
        .expect("map module");
    m.mem_mut().map(MDATA, 0x1000, Perm::RW).expect("map mdata");
    m.mem_mut()
        .poke_bytes(MODULE, &module_code)
        .expect("load module");
    m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
        MODULE..MODULE + 0x1000,
        MDATA..MDATA + 0x1000,
        vec![MODULE],
    )])));
    m
}

/// `iters` dispatches through a four-entry function-pointer table in
/// data — the virtual-call/jump-table shape every dispatcher-heavy
/// victim (and every bytecode interpreter) reduces to. Each trip
/// masks the counter into a table index, loads the function pointer
/// and calls through the register; each "method" runs a short counted
/// loop read-modify-writing its own field next to the table and
/// returns. The hot path is `callr` into one of four rotating callees
/// plus the matching unlinked `ret` every iteration — exactly the
/// dynamic transfers the tier-2 inline caches exist to predict — over
/// an access pattern that alternates the data page with the stack
/// page on every dispatch.
fn indirect_dispatch(iters: u32) -> Machine {
    let code = assemble_at(TEXT, &|at| {
        vec![
            Instr::MovI {
                dst: Reg::R0,
                imm: iters,
            },
            Instr::MovI {
                dst: Reg::R5,
                imm: DATA,
            }, // table base
            Instr::MovI {
                dst: Reg::R6,
                imm: 3,
            }, // index mask
            Instr::MovI {
                dst: Reg::R7,
                imm: 2,
            }, // entry shift
            Instr::Mov {
                dst: Reg::R1,
                src: Reg::R0,
            }, // 4: loop head
            Instr::Alu {
                op: AluOp::And,
                dst: Reg::R1,
                src: Reg::R6,
            },
            Instr::Alu {
                op: AluOp::Shl,
                dst: Reg::R1,
                src: Reg::R7,
            },
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg::R1,
                src: Reg::R5,
            },
            Instr::Load {
                dst: Reg::R2,
                base: Reg::R1,
                disp: 0,
            },
            Instr::MovI {
                dst: Reg::R4,
                imm: 6,
            }, // method trip count
            Instr::CallR(Reg::R2),
            Instr::AddI {
                dst: Reg::R0,
                imm: (-1i32) as u32,
            },
            Instr::CmpI { a: Reg::R0, imm: 0 },
            Instr::JCond {
                cond: Cond::Nz,
                target: at(4),
            },
            Instr::Sys(sys::EXIT),
        ]
    });
    let mut m = machine(&code);
    // Four callees in fixed 64-byte slots past the driver loop; the
    // table in data points at them as little-endian words. Each body
    // is a six-trip counted loop read-modify-writing the method's own
    // field just past the table — the shape of a small virtual method
    // or bytecode handler bumping an object field or accumulator.
    let mut table = Vec::new();
    for k in 0..4u32 {
        let addr = TEXT + 0x100 + k * 0x40;
        let field = (0x40 + k * 0x10) as i16;
        let callee = assemble_at(addr, &|at| {
            vec![
                Instr::Load {
                    dst: Reg::R3,
                    base: Reg::R5,
                    disp: field,
                }, // 0: work loop head
                Instr::AddI {
                    dst: Reg::R3,
                    imm: k + 1,
                },
                Instr::Store {
                    base: Reg::R5,
                    disp: field,
                    src: Reg::R3,
                },
                Instr::AddI {
                    dst: Reg::R4,
                    imm: (-1i32) as u32,
                },
                Instr::CmpI { a: Reg::R4, imm: 0 },
                Instr::JCond {
                    cond: Cond::Nz,
                    target: at(0),
                },
                Instr::Ret,
            ]
        });
        m.mem_mut().poke_bytes(addr, &callee).expect("load callee");
        table.extend_from_slice(&addr.to_le_bytes());
    }
    m.mem_mut().poke_bytes(DATA, &table).expect("load table");
    m
}

/// A sink that wants nothing: attached but with every interest bit
/// clear, it exercises exactly the disabled-tracing hot path.
struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &SecurityEvent) {}
    fn interests(&self) -> EventMask {
        EventMask::NONE
    }
}

struct Measurement {
    instructions: u64,
    elapsed: Duration,
    stats: ExecStats,
}

/// One of the three execution configurations a workload is timed in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Per-byte fetch/decode, caches off, blocks off.
    Base,
    /// Decoded-instruction cache + TLBs, block engine off.
    Fast,
    /// Fast path plus the tier-2 superinstruction block engine.
    Tiered,
}

/// Runs one freshly built machine to completion, timed. `reps` runs,
/// best (minimum) time kept — interpreter timings are noisy downwards
/// only. `sink` (if any) is attached to every machine before it runs.
fn measure_with_sink(
    build: &dyn Fn() -> Machine,
    tier: Tier,
    fuel: u64,
    reps: u32,
    sink: Option<&Arc<dyn EventSink>>,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps.max(1) {
        let mut m = build();
        m.set_fast_path(tier != Tier::Base);
        m.set_tier2(tier == Tier::Tiered);
        if let Some(sink) = sink {
            m.set_event_sink(Some(sink.clone()));
        }
        let started = Instant::now();
        let outcome = m.run(fuel);
        let elapsed = started.elapsed();
        assert_eq!(outcome, RunOutcome::Halted(0), "workload must halt cleanly");
        let stats = m.stats();
        let sample = Measurement {
            instructions: stats.instructions,
            elapsed,
            stats,
        };
        if best.as_ref().is_none_or(|b| sample.elapsed < b.elapsed) {
            best = Some(sample);
        }
    }
    best.expect("reps >= 1")
}

fn measure(build: &dyn Fn() -> Machine, tier: Tier, fuel: u64, reps: u32) -> Measurement {
    measure_with_sink(build, tier, fuel, reps, None)
}

/// Like [`measure`], but with `prof` attached to every machine before
/// it runs — the profiler-overhead legs.
fn measure_with_prof(
    build: &dyn Fn() -> Machine,
    tier: Tier,
    fuel: u64,
    reps: u32,
    prof: &Arc<Profiler>,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps.max(1) {
        let mut m = build();
        m.set_fast_path(tier != Tier::Base);
        m.set_tier2(tier == Tier::Tiered);
        m.set_profiler(Some(prof.clone()));
        let started = Instant::now();
        let outcome = m.run(fuel);
        let elapsed = started.elapsed();
        assert_eq!(outcome, RunOutcome::Halted(0), "workload must halt cleanly");
        let stats = m.stats();
        let sample = Measurement {
            instructions: stats.instructions,
            elapsed,
            stats,
        };
        if best.as_ref().is_none_or(|b| sample.elapsed < b.elapsed) {
            best = Some(sample);
        }
    }
    best.expect("reps >= 1")
}

/// One attack-search workload timed against both serve modes: the fork
/// server (boot-time snapshot, O(dirty-pages) restore per attempt) and
/// the per-attempt rebuild baseline the experiments used to pay.
struct HarnessCase {
    name: &'static str,
    config: DefenseConfig,
    plan_seed: u64,
    payload: Vec<u8>,
}

struct HarnessResult {
    name: &'static str,
    attempts: u64,
    fork: Duration,
    rebuild: Duration,
    /// Mean dirty pages copied per restore during the fork leg.
    dirty_per_restore: Option<f64>,
}

impl HarnessResult {
    fn fork_aps(&self) -> f64 {
        aps(self.attempts, self.fork)
    }
    fn rebuild_aps(&self) -> f64 {
        aps(self.attempts, self.rebuild)
    }
    fn speedup(&self) -> f64 {
        self.fork_aps() / self.rebuild_aps()
    }
}

fn aps(attempts: u64, elapsed: Duration) -> f64 {
    attempts as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// The campaign-service leg: one full service round timed end to end
/// (queue drain, admission bookkeeping, pool leases, watchdog-guarded
/// jobs on the runner's workers), fork-served vs rebuilt per attempt.
struct ServiceResult {
    tenants: usize,
    jobs: u64,
    attempts: u64,
    fork: Duration,
    rebuild: Duration,
    /// Job-latency quantile upper bounds (µs) from the fork leg.
    p50_us: u64,
    p99_us: u64,
}

impl ServiceResult {
    fn fork_aps(&self) -> f64 {
        aps(self.attempts, self.fork)
    }
    fn rebuild_aps(&self) -> f64 {
        aps(self.attempts, self.rebuild)
    }
    fn speedup(&self) -> f64 {
        self.fork_aps() / self.rebuild_aps()
    }
}

/// Runs one service round with `tenants` simulated concurrent clients
/// of `jobs_per` jobs each, every job serving `attempts` attack
/// attempts against the stock smash victim. Returns the round's wall
/// time, the attempts served, and the per-job latency histogram. The
/// full service stack is on the clock — job queue, per-tenant
/// admission, the warm pool's LRU, watchdog-guarded jobs on the
/// runner's workers — which is exactly the point: this leg measures
/// what a campaign *service* sustains, not what a bare serve loop does (the harness
/// legs above cover that).
fn measure_service(fork: bool, tenants: usize, jobs_per: u32, attempts: u32) -> ServiceSample {
    let mut svc = CampaignService::new(ServeConfig {
        workers: 0,
        queue_capacity: tenants * jobs_per as usize,
        fork_server: fork,
        ..ServeConfig::default()
    });
    let ids: Vec<_> = (0..tenants)
        .map(|t| {
            svc.register_tenant(TenantConfig {
                name: format!("client-{t}"),
                seed: derive(0xBE9C4ED, &[t as u64]),
                priority: 1,
                quota: jobs_per as usize,
            })
        })
        .collect();
    for _ in 0..jobs_per {
        for id in &ids {
            svc.submit(
                *id,
                JobSpec {
                    attempts,
                    ..JobSpec::new(VICTIM_SMASH, DefenseConfig::none())
                },
            )
            .expect("queue is sized for the full load");
        }
    }
    let round = svc.run();
    assert_eq!(
        round.totals.jobs_failed, 0,
        "service-leg jobs must all complete"
    );
    let lat = svc.job_latency();
    ServiceSample {
        elapsed: round.elapsed,
        attempts: round.totals.attempts,
        p50_us: lat.quantile_upper_bound(0.50),
        p99_us: lat.quantile_upper_bound(0.99),
    }
}

struct ServiceSample {
    elapsed: Duration,
    attempts: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Serves `attempts` identical attack attempts from one booted server
/// and times the attempt loop (boot and compile excluded — both modes
/// share the compile cache). `reps` runs, best kept.
fn measure_attempts(
    cache: &ProgramCache,
    case: &HarnessCase,
    mode: ServeMode,
    attempts: u64,
    reps: u32,
) -> Duration {
    let mut best: Option<Duration> = None;
    for _ in 0..reps.max(1) {
        let mut server = ForkServer::boot(cache, VICTIM_SMASH, case.config, case.plan_seed)
            .expect("victim compiles")
            .with_mode(mode);
        let started = Instant::now();
        for _ in 0..attempts {
            let outcome = server
                .execute(case.plan_seed, &case.payload)
                .expect("plan seed matches");
            std::hint::black_box(&outcome);
        }
        let elapsed = started.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
    }
    best.expect("reps >= 1")
}

/// Times the per-attempt cost the experiments paid before the fork
/// server existed: a compile-cache lookup, a full machine build from
/// the compiled image, the payload feed and the run — per attempt.
/// This is the honest rebuild baseline for the speedup column.
fn measure_rebuild(cache: &ProgramCache, case: &HarnessCase, attempts: u64, reps: u32) -> Duration {
    let opts = loader::plan_options(&case.config, case.plan_seed);
    let mut best: Option<Duration> = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        for _ in 0..attempts {
            let program = cache.compile(VICTIM_SMASH, &opts).expect("victim compiles");
            let mut session = loader::launch_compiled(&program, case.config, case.plan_seed)
                .expect("victim launches");
            session.machine.io_mut().feed_input(0, &case.payload);
            let outcome = session.machine.run(swsec::harness::DEFAULT_FUEL);
            std::hint::black_box(&outcome);
        }
        let elapsed = started.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
    }
    best.expect("reps >= 1")
}

/// Times the serving cost of a fuzzing campaign: a deterministic
/// corpus of mutated attack inputs (the fuzzer's own mutators over its
/// victim seeds and dictionary, so the attempt mix — benign runs,
/// early faults, wild jumps — is what a real campaign produces) is
/// replayed through [`swsec_fuzz::targets::VictimTarget`] under each
/// serve mode. Mutation happens before the clock starts and no
/// coverage sink is attached: in-VM execution under instrumentation is
/// identical across modes and would only dilute the ratio this leg
/// exists to isolate — what serving an attempt costs, fork-restore vs
/// rebuild.
fn measure_fuzz_replay(
    cache: &ProgramCache,
    mode: ServeMode,
    corpus: &[Vec<u8>],
    reps: u32,
) -> Duration {
    let mut best: Option<Duration> = None;
    for _ in 0..reps.max(1) {
        let mut target = VictimTarget::new(cache, 7, mode);
        let started = Instant::now();
        for input in corpus {
            let outcome = target.execute(7, input).expect("attempt runs");
            std::hint::black_box(&outcome);
        }
        let elapsed = started.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
    }
    best.expect("reps >= 1")
}

/// The replay corpus for [`measure_fuzz_replay`]: the fuzzer's
/// mutators applied to the victim target's seeds and dictionary with
/// derived seeds — a pure function of `attempts`.
///
/// Expensive candidates are screened out before the clock starts:
/// hang-class attempts (fuel exhaustion) and wild-code spins (a
/// corrupted return address lands in executable attacker bytes and
/// runs tens of thousands of instructions before faulting). Both are
/// pure in-VM execution, identical in either serve mode, and a real
/// campaign bounds them with its per-attempt execution budget — left
/// in, they swamp the serving cost this leg exists to isolate. Kept
/// attempts (benign runs, quick crashes) stay within an order of
/// magnitude of the victim's clean-run instruction count, the same
/// regime the aslr/canary legs measure in.
fn fuzz_replay_corpus(cache: &ProgramCache, attempts: u64) -> Vec<Vec<u8>> {
    let mut probe = VictimTarget::new(cache, 7, ServeMode::Fork);
    let seeds = probe.seeds();
    let dict = probe.dictionary();
    let max_len = probe.max_len();
    let benign = probe
        .execute(7, &seeds[0])
        .expect("benign seed runs")
        .stats
        .instructions;
    let cap = benign.max(1) * 16;
    let mut corpus = Vec::with_capacity(attempts as usize);
    let mut i = 0u64;
    while (corpus.len() as u64) < attempts {
        let parent = &seeds[i as usize % seeds.len()];
        let donor = &seeds[(i as usize + 1) % seeds.len()];
        let input = swsec_fuzz::mutate::mutate(
            swsec_rng::derive(7, &[100, i]),
            parent,
            donor,
            &dict,
            max_len,
        );
        i += 1;
        let outcome = probe.execute(7, &input).expect("attempt runs");
        let quick =
            !matches!(outcome.outcome, RunOutcome::OutOfFuel) && outcome.stats.instructions <= cap;
        if quick {
            corpus.push(input);
        }
    }
    corpus
}

struct CaseResult {
    name: &'static str,
    instructions: u64,
    tiered: Measurement,
    fast: Measurement,
    base: Measurement,
}

impl CaseResult {
    fn tiered_ips(&self) -> f64 {
        ips(self.instructions, self.tiered.elapsed)
    }
    fn fast_ips(&self) -> f64 {
        ips(self.instructions, self.fast.elapsed)
    }
    fn base_ips(&self) -> f64 {
        ips(self.instructions, self.base.elapsed)
    }
    /// Tier-2 blocks over the tier-1 fast path.
    fn tier2_speedup(&self) -> f64 {
        self.tiered_ips() / self.fast_ips()
    }
    /// Tier-1 fast path over the per-byte baseline.
    fn speedup(&self) -> f64 {
        self.fast_ips() / self.base_ips()
    }
}

fn ips(instructions: u64, elapsed: Duration) -> f64 {
    instructions as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn json_opt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.6}"),
        None => "null".to_string(),
    }
}

fn main() {
    let mut smoke = false;
    let mut verbose = false;
    let mut out: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--verbose" => verbose = true,
            "--out" => out = Some(argv.next().expect("--out needs a path")),
            "--telemetry" => {
                telemetry_path = Some(argv.next().expect("--telemetry needs a path"));
            }
            "--help" | "-h" => {
                println!("usage: vmbench [--smoke] [--verbose] [--out PATH] [--telemetry PATH]");
                return;
            }
            other => {
                eprintln!("vmbench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        if smoke {
            "target/BENCH_vm_smoke.json".to_string()
        } else {
            "BENCH_vm.json".to_string()
        }
    });

    // Workload sizes: full mode targets ~3-4M retired instructions per
    // workload; smoke mode just proves the harness end to end.
    let scale: u32 = if smoke { 5_000 } else { 1_000_000 };
    let reps: u32 = if smoke { 1 } else { 3 };
    type Case = (&'static str, Box<dyn Fn() -> Machine>);
    let cases: Vec<Case> = vec![
        ("tight-loop", Box::new(move || tight_loop(scale))),
        ("call-heavy", Box::new(move || call_heavy(scale / 2))),
        ("memory-heavy", Box::new(move || memory_heavy(scale / 3))),
        (
            "indirect-dispatch",
            Box::new(move || indirect_dispatch(scale / 13)),
        ),
        ("pma-crossing", Box::new(move || pma_crossing(scale / 5))),
    ];

    println!(
        "vmbench: {} mode, best of {reps} rep(s) per configuration",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>7} {:>8} {:>8} {:>8}",
        "workload",
        "instrs",
        "tier2 i/s",
        "fast i/s",
        "base i/s",
        "t2/t1",
        "fast/b",
        "icache",
        "tlb"
    );

    let fuel = u64::from(scale) * 20 + 10_000;
    let mut results = Vec::new();
    // The headline table feeds ratio gates, so its legs get more reps
    // than the harness legs: each leg's best-of-N must converge or a
    // host-load drift between two legs shows up as a phantom ratio
    // shift. Legs stay back-to-back (not interleaved) on purpose —
    // alternating execution engines would cold-start the host's branch
    // predictors every sample and measure the wrong thing.
    let wreps = if smoke { 1 } else { reps * 3 };
    for (name, build) in &cases {
        let tiered = measure(build.as_ref(), Tier::Tiered, fuel, wreps);
        let fast = measure(build.as_ref(), Tier::Fast, fuel, wreps);
        let base = measure(build.as_ref(), Tier::Base, fuel, wreps);
        assert_eq!(
            fast.instructions, base.instructions,
            "{name}: fast and baseline must retire identical instruction counts"
        );
        assert_eq!(
            tiered.instructions, fast.instructions,
            "{name}: tier 2 and fast path must retire identical instruction counts"
        );
        let r = CaseResult {
            name,
            instructions: fast.instructions,
            tiered,
            fast,
            base,
        };
        // `^` marks a workload the block engine excludes by
        // construction (`tier2.compiled == 0` — PMA machines run every
        // access through the protection check, so blocks never form);
        // `~` marks one where blocks ran but didn't beat the tier-1
        // fast path.
        let marked = if r.tiered.stats.tier2_compiled == 0 {
            format!("{}^", r.name)
        } else if r.tier2_speedup() < 1.0 {
            format!("{}~", r.name)
        } else {
            r.name.to_string()
        };
        println!(
            "{:<14} {:>12} {:>12.3e} {:>12.3e} {:>12.3e} {:>6.2}x {:>7.2}x {:>8} {:>8}",
            marked,
            r.instructions,
            r.tiered_ips(),
            r.fast_ips(),
            r.base_ips(),
            r.tier2_speedup(),
            r.speedup(),
            r.fast
                .stats
                .icache_hit_rate()
                .map_or("n/a".into(), |v| format!("{:.1}%", v * 100.0)),
            r.fast
                .stats
                .tlb_hit_rate()
                .map_or("n/a".into(), |v| format!("{:.1}%", v * 100.0)),
        );
        if verbose {
            println!("  {}", r.tiered.stats.verbose().replace('\n', "\n  "));
        }
        results.push(r);
    }
    // Engine-excluded legs (no blocks compiled) are an expected
    // property of the workload, not a flat regression: they get their
    // own annotation and JSON list so a genuinely flat leg can't hide
    // behind them.
    let tier2_excluded: Vec<&str> = results
        .iter()
        .filter(|r| r.tiered.stats.tier2_compiled == 0)
        .map(|r| r.name)
        .collect();
    let flat_workloads: Vec<&str> = results
        .iter()
        .filter(|r| r.tiered.stats.tier2_compiled > 0 && r.tier2_speedup() < 1.0)
        .map(|r| r.name)
        .collect();
    if !tier2_excluded.is_empty() {
        println!(
            "  ^ tier 2 excluded by the engine on: {} (tier2.compiled=0, expected)",
            tier2_excluded.join(", ")
        );
    }
    if !flat_workloads.is_empty() {
        println!("  ~ tier 2 not a win on: {}", flat_workloads.join(", "));
    }

    // Attack-harness workloads: attempts served per second, fork
    // server vs per-attempt rebuild. The ASLR case fixes the victim
    // slide (16 bits, so no attempt ever lands) and smashes past the
    // buffer; the canary case probes one byte past it. Both crash per
    // attempt — the steady state of a real brute force.
    let aslr_case = HarnessCase {
        name: "aslr-bruteforce",
        config: {
            let mut c = DefenseConfig::none();
            c.aslr_bits = Some(16);
            c
        },
        plan_seed: 7,
        payload: vec![0x41; 64],
    };
    let canary_case = HarnessCase {
        name: "canary-oracle",
        config: {
            let mut c = DefenseConfig::none();
            c.canary = true;
            c
        },
        plan_seed: 42,
        payload: vec![0x41; 49],
    };
    // Full-mode legs need to be long enough that one scheduler hiccup
    // can't dominate a rep: at 2k attempts the fork leg finishes in
    // ~2ms and the 10x floor flakes; at 10k it runs tens of ms and the
    // best-of-reps ratio is stable.
    let attempts: u64 = if smoke { 50 } else { 10_000 };
    println!("fork-server workloads: {attempts} attempts per configuration");
    println!(
        "{:<16} {:>10} {:>12} {:>13} {:>9} {:>14}",
        "workload", "attempts", "fork a/s", "rebuild a/s", "speedup", "dirty/restore"
    );
    let cache = ProgramCache::new();
    let mut harness_results = Vec::new();
    for case in [&aslr_case, &canary_case] {
        // Fork and rebuild legs run the same step loop, so their reps
        // interleave (fork, rebuild, fork, rebuild...): host-load
        // drift hits both legs of the ratio alike instead of letting
        // one leg collect all its samples in a fast window. (The tier
        // table above deliberately does NOT interleave — alternating
        // execution engines would trash the host's branch predictors.)
        let ((fork, rebuild), delta) = scope(&VmConfig::default(), None, || {
            let mut fork = measure_attempts(&cache, case, ServeMode::Fork, attempts, 1);
            let mut rebuild = measure_rebuild(&cache, case, attempts, 1);
            for _ in 1..reps {
                fork = fork.min(measure_attempts(&cache, case, ServeMode::Fork, attempts, 1));
                rebuild = rebuild.min(measure_rebuild(&cache, case, attempts, 1));
            }
            (fork, rebuild)
        });
        // Rebuild legs never restore, so the restore counters in the
        // tally still reflect the fork legs alone.
        let r = HarnessResult {
            name: case.name,
            attempts,
            fork,
            rebuild,
            dirty_per_restore: delta.mean_dirty_pages(),
        };
        println!(
            "{:<16} {:>10} {:>12.3e} {:>13.3e} {:>8.2}x {:>14}",
            r.name,
            r.attempts,
            r.fork_aps(),
            r.rebuild_aps(),
            r.speedup(),
            r.dirty_per_restore
                .map_or("n/a".into(), |v| format!("{v:.1}")),
        );
        harness_results.push(r);
    }

    // Fuzz throughput: a pre-mutated attack corpus (the fuzzer's own
    // operators, so the attempt mix is a real campaign's) replayed
    // through the victim fuzz target, fork-served vs rebuilt.
    let corpus = fuzz_replay_corpus(&cache, attempts);
    {
        // Interleaved for the same drift-correlation reason as above.
        let ((fork, rebuild), delta) = scope(&VmConfig::default(), None, || {
            let mut fork = measure_fuzz_replay(&cache, ServeMode::Fork, &corpus, 1);
            let mut rebuild = measure_fuzz_replay(&cache, ServeMode::Rebuild, &corpus, 1);
            for _ in 1..reps {
                fork = fork.min(measure_fuzz_replay(&cache, ServeMode::Fork, &corpus, 1));
                rebuild = rebuild.min(measure_fuzz_replay(&cache, ServeMode::Rebuild, &corpus, 1));
            }
            (fork, rebuild)
        });
        let r = HarnessResult {
            name: "fuzz-replay",
            attempts,
            fork,
            rebuild,
            dirty_per_restore: delta.mean_dirty_pages(),
        };
        println!(
            "{:<16} {:>10} {:>12.3e} {:>13.3e} {:>8.2}x {:>14}",
            r.name,
            r.attempts,
            r.fork_aps(),
            r.rebuild_aps(),
            r.speedup(),
            r.dirty_per_restore
                .map_or("n/a".into(), |v| format!("{v:.1}")),
        );
        harness_results.push(r);
    }

    // Coverage parity: the same corpus replayed through a coverage-
    // attached victim twice — tier 2 engaged, then pinned to tier 1 —
    // asserting byte-identical per-attempt fingerprints while blocks
    // actually serve instructions. This is the gate that lets E18 fuzz
    // tier-2 engaged: blocks update the edge map directly at their
    // transfer terminators, and the map the fuzzer steers by must not
    // be able to tell.
    let parity = {
        let run = |tier2: bool| {
            let mut target = VictimTarget::new(&cache, 7, ServeMode::Fork);
            target.set_tier2(tier2);
            let sink = Arc::new(CoverageSink::new());
            target.attach_coverage(Arc::clone(&sink));
            let mut fingerprints = Vec::with_capacity(corpus.len());
            let mut tier2_hits = 0u64;
            let mut ic_hits = 0u64;
            let mut ic_misses = 0u64;
            let started = Instant::now();
            for input in &corpus {
                let outcome = target.execute(7, input).expect("attempt runs");
                tier2_hits += outcome.stats.tier2_hits;
                ic_hits += outcome.stats.tier2_ic_hits;
                ic_misses += outcome.stats.tier2_ic_misses;
                fingerprints.push(sink.take_map().fingerprint());
            }
            (
                fingerprints,
                tier2_hits,
                ic_hits,
                ic_misses,
                started.elapsed(),
            )
        };
        let (tiered_fps, tier2_hits, ic_hits, ic_misses, tiered_ns) = run(true);
        let (fast_fps, fast_hits, _, _, fast_ns) = run(false);
        assert_eq!(
            tiered_fps, fast_fps,
            "coverage fingerprints diverge between tier 2 and tier 1"
        );
        assert_eq!(fast_hits, 0, "tier-1 parity leg served tier-2 blocks");
        assert!(
            tier2_hits > 0,
            "coverage-parity leg never engaged tier 2 (0 block hits)"
        );
        println!(
            "coverage parity (fuzz corpus, {} attempts): byte-identical fingerprints; \
             tiered leg {} block hits, {} ic hits, {} ic misses",
            corpus.len(),
            tier2_hits,
            ic_hits,
            ic_misses,
        );
        (
            corpus.len() as u64,
            tier2_hits,
            ic_hits,
            ic_misses,
            tiered_ns,
            fast_ns,
        )
    };

    // Campaign-service leg: thousands of simulated concurrent clients
    // behind the job queue, the whole service stack on the clock.
    // Interleaved fork/rebuild reps for the usual drift-correlation
    // reason. Smoke mode shrinks the client count, not the shape.
    let (svc_tenants, svc_jobs, svc_attempts): (usize, u32, u32) =
        if smoke { (24, 2, 4) } else { (2_000, 2, 16) };
    println!("campaign service: {svc_tenants} tenants x {svc_jobs} jobs x {svc_attempts} attempts");
    let service = {
        let mut fork = measure_service(true, svc_tenants, svc_jobs, svc_attempts);
        let mut rebuild = measure_service(false, svc_tenants, svc_jobs, svc_attempts);
        for _ in 1..reps {
            let f = measure_service(true, svc_tenants, svc_jobs, svc_attempts);
            if f.elapsed < fork.elapsed {
                fork = f;
            }
            let r = measure_service(false, svc_tenants, svc_jobs, svc_attempts);
            if r.elapsed < rebuild.elapsed {
                rebuild = r;
            }
        }
        assert_eq!(
            fork.attempts, rebuild.attempts,
            "service legs must serve identical attempt counts"
        );
        ServiceResult {
            tenants: svc_tenants,
            jobs: u64::from(svc_jobs) * svc_tenants as u64,
            attempts: fork.attempts,
            fork: fork.elapsed,
            rebuild: rebuild.elapsed,
            p50_us: fork.p50_us,
            p99_us: fork.p99_us,
        }
    };
    println!(
        "{:<16} {:>10} {:>12} {:>13} {:>9} {:>9} {:>9}",
        "workload", "attempts", "fork a/s", "rebuild a/s", "speedup", "p50 us", "p99 us"
    );
    println!(
        "{:<16} {:>10} {:>12.3e} {:>13.3e} {:>8.2}x {:>9} {:>9}",
        "serve-round",
        service.attempts,
        service.fork_aps(),
        service.rebuild_aps(),
        service.speedup(),
        service.p50_us,
        service.p99_us,
    );

    // Telemetry overhead: the tight loop re-timed with sinks attached.
    // A sink with no interests must cost within noise of no sink at
    // all (the hot path only adds one u8 mask test); a counting sink
    // subscribed to everything shows the price of actually listening.
    let (_, tight_build) = &cases[0];
    // Best-of-5 in full mode: this leg feeds a 3% guard, so it needs
    // more noise suppression than the headline table.
    let oreps = if smoke { 1 } else { 5 };
    // Timed in the tier-1 fast path: a sink with STEP interest forces
    // tier 2 off anyway, so tier 1 is the configuration where the
    // attached-vs-detached comparison is apples to apples. All three
    // legs run the *same* engine, so their reps interleave round-robin
    // to keep host-load drift out of the overhead ratios.
    let null_sink: Arc<dyn EventSink> = Arc::new(NullSink);
    let counting: Arc<dyn EventSink> = Arc::new(CountingSink::new());
    let mut detached = measure(tight_build.as_ref(), Tier::Fast, fuel, 1);
    let mut disabled =
        measure_with_sink(tight_build.as_ref(), Tier::Fast, fuel, 1, Some(&null_sink));
    let mut attached =
        measure_with_sink(tight_build.as_ref(), Tier::Fast, fuel, 1, Some(&counting));
    for _ in 1..oreps {
        let d = measure(tight_build.as_ref(), Tier::Fast, fuel, 1);
        if d.elapsed < detached.elapsed {
            detached = d;
        }
        let d = measure_with_sink(tight_build.as_ref(), Tier::Fast, fuel, 1, Some(&null_sink));
        if d.elapsed < disabled.elapsed {
            disabled = d;
        }
        let d = measure_with_sink(tight_build.as_ref(), Tier::Fast, fuel, 1, Some(&counting));
        if d.elapsed < attached.elapsed {
            attached = d;
        }
    }
    let detached_ips = ips(detached.instructions, detached.elapsed);
    let disabled_ips = ips(disabled.instructions, disabled.elapsed);
    let attached_ips = ips(attached.instructions, attached.elapsed);
    let disabled_overhead = (detached_ips / disabled_ips - 1.0).max(0.0);
    let attached_overhead = (detached_ips / attached_ips - 1.0).max(0.0);
    println!(
        "telemetry overhead (tight-loop): no sink {:.3e} i/s, \
         disabled sink {:.3e} i/s (+{:.1}%), counting sink {:.3e} i/s (+{:.1}%)",
        detached_ips,
        disabled_ips,
        disabled_overhead * 100.0,
        attached_ips,
        attached_overhead * 100.0,
    );

    // Profiler overhead: the tight loop re-timed with the deterministic
    // sampling profiler attached. Timed in the tier-1 fast path, like
    // the sink leg and for a sharper version of the same reason: the
    // block engine retires this entire counted loop in a handful of
    // dispatches (the 8000x row above), so *any* finite sampling
    // interval forces chain exits the unclipped engine never takes and
    // a relative gate there would measure loop collapse, not profiling.
    // Tier 1 is where the per-instruction costs — one countdown
    // decrement per step when disabled, plus the stack walk and record
    // per sample — are actually commensurable. Interleaved round-robin,
    // same drift argument as the sink leg.
    let preps = if smoke { 1 } else { 9 };
    let disabled_prof = Arc::new(Profiler::new(0));
    let sampling_prof = Arc::new(Profiler::new(DEFAULT_INTERVAL));
    let mut prof_off = measure(tight_build.as_ref(), Tier::Fast, fuel, 1);
    let mut prof_disabled =
        measure_with_prof(tight_build.as_ref(), Tier::Fast, fuel, 1, &disabled_prof);
    let mut prof_sampling =
        measure_with_prof(tight_build.as_ref(), Tier::Fast, fuel, 1, &sampling_prof);
    for _ in 1..preps {
        let d = measure(tight_build.as_ref(), Tier::Fast, fuel, 1);
        if d.elapsed < prof_off.elapsed {
            prof_off = d;
        }
        let d = measure_with_prof(tight_build.as_ref(), Tier::Fast, fuel, 1, &disabled_prof);
        if d.elapsed < prof_disabled.elapsed {
            prof_disabled = d;
        }
        let d = measure_with_prof(tight_build.as_ref(), Tier::Fast, fuel, 1, &sampling_prof);
        if d.elapsed < prof_sampling.elapsed {
            prof_sampling = d;
        }
    }
    let prof_off_ips = ips(prof_off.instructions, prof_off.elapsed);
    let prof_disabled_ips = ips(prof_disabled.instructions, prof_disabled.elapsed);
    let prof_sampling_ips = ips(prof_sampling.instructions, prof_sampling.elapsed);
    let prof_disabled_overhead = (prof_off_ips / prof_disabled_ips - 1.0).max(0.0);
    let prof_sampling_overhead = (prof_off_ips / prof_sampling_ips - 1.0).max(0.0);
    // The tiered engagement leg: profiling must not force tier 1. Run
    // the same workload in the tiered engine under sampling and assert
    // blocks still served instructions between sample points (the
    // chain-budget clip, not an engine downgrade).
    let tiered_prof = Arc::new(Profiler::new(DEFAULT_INTERVAL));
    let tiered_sampling =
        measure_with_prof(tight_build.as_ref(), Tier::Tiered, fuel, 1, &tiered_prof);
    let tiered_sampling_ips = ips(tiered_sampling.instructions, tiered_sampling.elapsed);
    println!(
        "profiler overhead (tight-loop, tier 1): off {:.3e} i/s, \
         disabled {:.3e} i/s (+{:.1}%), 1/{} sampling {:.3e} i/s (+{:.1}%), {} samples; \
         tiered under sampling {:.3e} i/s, {} block hits",
        prof_off_ips,
        prof_disabled_ips,
        prof_disabled_overhead * 100.0,
        DEFAULT_INTERVAL,
        prof_sampling_ips,
        prof_sampling_overhead * 100.0,
        sampling_prof.total_samples(),
        tiered_sampling_ips,
        tiered_sampling.stats.tier2_hits,
    );
    // Sampling must actually happen, and must not have forced the
    // block engine off. Holds in smoke mode too.
    assert!(
        sampling_prof.total_samples() > 0,
        "profiler recorded no samples under 1/{DEFAULT_INTERVAL} sampling"
    );
    assert!(
        tiered_sampling.stats.tier2_hits > 0,
        "tier 2 disengaged under sampling (0 block hits)"
    );

    // Campaign wall time: the end-to-end consumer of the hot path.
    let mut cfg = if smoke {
        CampaignConfig {
            experiments: vec![ExperimentId::new(10), ExperimentId::new(12)],
            ..CampaignConfig::quick()
        }
    } else {
        CampaignConfig::quick()
    };
    let security = EventMask::FAULT
        .union(EventMask::CANARY)
        .union(EventMask::PMA)
        .union(EventMask::GUARD);
    let mut telemetry = CampaignTelemetry::none();
    let mut jsonl = None;
    if let Some(path) = telemetry_path.as_deref() {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {path}: {e}"));
        let sink = Arc::new(JsonlSink::with_interests(
            Box::new(std::io::BufWriter::new(file)),
            security,
        ));
        sink.write_line(&meta_line("source", "vmbench"));
        cfg.vm.sink = Some(sink.clone());
        let registry = Arc::new(MetricsRegistry::new());
        telemetry.metrics = Some(registry.clone());
        jsonl = Some((sink, registry));
    }
    let campaign = run_campaign_with(&cfg, &telemetry);
    if let Some((sink, registry)) = jsonl {
        for line in registry.export_jsonl() {
            sink.write_line(&line);
        }
        sink.flush();
        println!(
            "vmbench: wrote telemetry {}",
            telemetry_path.as_deref().unwrap()
        );
    }
    println!("{}", campaign.summary());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"swsec-vmbench-v6\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let t2 = &r.tiered.stats;
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"instructions\": {}, \"tiered_ns\": {}, \"fast_ns\": {}, \
             \"base_ns\": {}, \"tiered_ips\": {:.1}, \"fast_ips\": {:.1}, \"base_ips\": {:.1}, \
             \"tier2_speedup\": {:.3}, \"speedup\": {:.3}, \
             \"icache_hit_rate\": {}, \"tlb_hit_rate\": {}, \
             \"tier2\": {{\"compiled\": {}, \"hits\": {}, \"instructions\": {}, \
             \"side_exits\": {}, \"invalidations\": {}, \"ic_hits\": {}, \"ic_misses\": {}, \
             \"ic_installs\": {}, \"ic_megamorphic\": {}}}}}{}\n",
            r.name,
            r.instructions,
            r.tiered.elapsed.as_nanos(),
            r.fast.elapsed.as_nanos(),
            r.base.elapsed.as_nanos(),
            r.tiered_ips(),
            r.fast_ips(),
            r.base_ips(),
            r.tier2_speedup(),
            r.speedup(),
            json_opt_rate(r.fast.stats.icache_hit_rate()),
            json_opt_rate(r.fast.stats.tlb_hit_rate()),
            t2.tier2_compiled,
            t2.tier2_hits,
            t2.tier2_instructions,
            t2.tier2_side_exits,
            t2.tier2_invalidations,
            t2.tier2_ic_hits,
            t2.tier2_ic_misses,
            t2.tier2_ic_installs,
            t2.tier2_ic_megamorphic,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"flat_workloads\": [{}],\n",
        flat_workloads
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    json.push_str(&format!(
        "  \"tier2_excluded_workloads\": [{}],\n",
        tier2_excluded
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    json.push_str("  \"harness\": [\n");
    for (i, r) in harness_results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"attempts\": {}, \"fork_ns\": {}, \"rebuild_ns\": {}, \
             \"fork_aps\": {:.1}, \"rebuild_aps\": {:.1}, \"speedup\": {:.3}, \
             \"dirty_pages_per_restore\": {}}}{}\n",
            r.name,
            r.attempts,
            r.fork.as_nanos(),
            r.rebuild.as_nanos(),
            r.fork_aps(),
            r.rebuild_aps(),
            r.speedup(),
            json_opt_rate(r.dirty_per_restore),
            if i + 1 == harness_results.len() {
                ""
            } else {
                ","
            },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"coverage_parity\": {{\"attempts\": {}, \"fingerprints_identical\": true, \
         \"tier2_hits\": {}, \"ic_hits\": {}, \"ic_misses\": {}, \
         \"tiered_ns\": {}, \"fast_ns\": {}}},\n",
        parity.0,
        parity.1,
        parity.2,
        parity.3,
        parity.4.as_nanos(),
        parity.5.as_nanos(),
    ));
    json.push_str(&format!(
        "  \"service\": {{\"tenants\": {}, \"jobs\": {}, \"attempts\": {}, \
         \"fork_ns\": {}, \"rebuild_ns\": {}, \"fork_aps\": {:.1}, \"rebuild_aps\": {:.1}, \
         \"speedup\": {:.3}, \"p50_us\": {}, \"p99_us\": {}}},\n",
        service.tenants,
        service.jobs,
        service.attempts,
        service.fork.as_nanos(),
        service.rebuild.as_nanos(),
        service.fork_aps(),
        service.rebuild_aps(),
        service.speedup(),
        service.p50_us,
        service.p99_us,
    ));
    json.push_str(&format!(
        "  \"telemetry\": {{\"detached_ips\": {:.1}, \"disabled_sink_ips\": {:.1}, \
         \"counting_sink_ips\": {:.1}, \"disabled_overhead\": {:.4}, \
         \"counting_overhead\": {:.4}}},\n",
        detached_ips, disabled_ips, attached_ips, disabled_overhead, attached_overhead,
    ));
    json.push_str(&format!(
        "  \"profiler\": {{\"interval\": {}, \"off_ips\": {:.1}, \"disabled_ips\": {:.1}, \
         \"sampling_ips\": {:.1}, \"disabled_overhead\": {:.4}, \"sampling_overhead\": {:.4}, \
         \"samples\": {}, \"tiered_sampling_ips\": {:.1}, \"tier2_hits_under_sampling\": {}}},\n",
        DEFAULT_INTERVAL,
        prof_off_ips,
        prof_disabled_ips,
        prof_sampling_ips,
        prof_disabled_overhead,
        prof_sampling_overhead,
        sampling_prof.total_samples(),
        tiered_sampling_ips,
        tiered_sampling.stats.tier2_hits,
    ));
    json.push_str(&format!(
        "  \"campaign\": {{\"wall_s\": {:.6}, \"workers\": {}, \"vm_instructions\": {}, \
         \"icache_hit_rate\": {}, \"tlb_hit_rate\": {}, \
         \"tier2\": {{\"compiled\": {}, \"hits\": {}, \"instructions\": {}, \
         \"side_exits\": {}, \"invalidations\": {}, \"ic_hits\": {}, \"ic_misses\": {}, \
         \"ic_installs\": {}, \"ic_megamorphic\": {}}}}}\n",
        campaign.elapsed.as_secs_f64(),
        campaign.workers,
        campaign.vm.instructions,
        json_opt_rate(campaign.vm.icache_hit_rate()),
        json_opt_rate(campaign.vm.tlb_hit_rate()),
        campaign.vm.tier2_compiled,
        campaign.vm.tier2_hits,
        campaign.vm.tier2_instructions,
        campaign.vm.tier2_side_exits,
        campaign.vm.tier2_invalidations,
        campaign.vm.tier2_ic_hits,
        campaign.vm.tier2_ic_misses,
        campaign.vm.tier2_ic_installs,
        campaign.vm.tier2_ic_megamorphic,
    ));
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("vmbench: wrote {out}");

    // The inline caches must actually predict on the jump-table loop —
    // in smoke mode too, since warmup only needs the 16-hit threshold.
    let indirect = results
        .iter()
        .find(|r| r.name == "indirect-dispatch")
        .expect("indirect-dispatch runs");
    assert!(
        indirect.tiered.stats.tier2_ic_hits > 0,
        "indirect-dispatch never hit an inline cache"
    );

    if smoke {
        // Smoke runs gate verify.sh: neither tier may be slower than
        // the one below it. The full-size floors live in the full run.
        let tight = &results[0];
        assert!(
            tight.speedup() > 1.0,
            "smoke: hot path slower than baseline ({:.2}x)",
            tight.speedup()
        );
        assert!(
            tight.tier2_speedup() > 1.0,
            "smoke: tier 2 slower than the fast path ({:.2}x)",
            tight.tier2_speedup()
        );
        for r in &harness_results {
            assert!(
                r.speedup() > 1.0,
                "smoke: {} fork server slower than rebuild ({:.2}x)",
                r.name,
                r.speedup()
            );
        }
        assert!(
            service.speedup() > 1.0,
            "smoke: fork-served service slower than rebuild-per-attempt ({:.2}x)",
            service.speedup()
        );
    } else {
        for r in &harness_results {
            assert!(
                r.speedup() >= 10.0,
                "{} fork-server speedup {:.2}x is below the 10x floor",
                r.name,
                r.speedup()
            );
        }
        // The service keeps the fork economics even with the queue,
        // admission bookkeeping and the runner's watchdog on the
        // clock. The floor is 5x (vs 10x for the bare harness
        // loops): per-job overheads are real, they just must not eat
        // the snapshot/restore win.
        assert!(
            service.speedup() >= 5.0,
            "campaign-service speedup {:.2}x is below the 5x floor",
            service.speedup()
        );
        let tight = &results[0];
        assert!(
            tight.speedup() >= 5.0,
            "tight-loop speedup {:.2}x is below the 5x floor",
            tight.speedup()
        );
        assert!(
            tight.tier2_speedup() >= 3.0,
            "tight-loop tier-2 speedup {:.2}x is below the 3x floor",
            tight.tier2_speedup()
        );
        let calls = results
            .iter()
            .find(|r| r.name == "call-heavy")
            .expect("call-heavy runs");
        assert!(
            calls.tier2_speedup() >= 2.0,
            "call-heavy tier-2 speedup {:.2}x is below the 2x floor",
            calls.tier2_speedup()
        );
        // The IC acceptance floor: predicted dynamic transfers must
        // make the jump-table loop at least twice as fast as tier-1
        // dispatch, the same bar the static call/ret chain clears.
        assert!(
            indirect.tier2_speedup() >= 2.0,
            "indirect-dispatch tier-2 speedup {:.2}x is below the 2x floor",
            indirect.tier2_speedup()
        );
        // The two-way icache must keep both halves of the pma-crossing
        // working set resident (the direct-mapped design thrashed at
        // 75%).
        let pma = results
            .iter()
            .find(|r| r.name == "pma-crossing")
            .expect("pma-crossing runs");
        let pma_icache = pma
            .fast
            .stats
            .icache_hit_rate()
            .expect("pma-crossing fetches");
        assert!(
            pma_icache >= 0.999,
            "pma-crossing icache hit rate {:.4} is below the 0.999 floor",
            pma_icache
        );
        // The overhead guard: an attached-but-disabled sink must stay
        // within 3% of running with no sink at all.
        assert!(
            disabled_overhead <= 0.03,
            "disabled-sink overhead {:.1}% exceeds the 3% guard",
            disabled_overhead * 100.0
        );
        // Profiler guards, tier-1 fast path: disabled is one countdown
        // decrement per step (design target ≤1%, measured ~0%); the
        // guard sits at 3% — this stand's measured noise floor, the
        // same margin the disabled-sink guard above uses — so it trips
        // on a real regression, not on host CPU steal. 1/4096 sampling
        // — stack walk and record included — stays within 10%.
        assert!(
            prof_disabled_overhead <= 0.03,
            "disabled-profiler overhead {:.1}% exceeds the 3% guard",
            prof_disabled_overhead * 100.0
        );
        assert!(
            prof_sampling_overhead <= 0.10,
            "1/{DEFAULT_INTERVAL}-sampling overhead {:.1}% exceeds the 10% guard",
            prof_sampling_overhead * 100.0
        );
    }
}
