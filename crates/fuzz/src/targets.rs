//! The pluggable fuzz targets, all speaking the unified
//! [`AttackTarget`] surface.
//!
//! A [`FuzzTarget`] extends [`AttackTarget`] with what the engine
//! needs beyond raw execution: starter seeds, a dictionary of
//! interesting tokens, a coverage-sink attachment point, and a
//! **classifier** that maps an [`AttemptOutcome`] to a finding class
//! (or none). Three targets ship:
//!
//! * [`VictimTarget`] — the E2/E3 stack-smash victim behind a
//!   [`ForkServer`]; findings are exploit paths (`SECRET` leaked) and
//!   distinct crash classes;
//! * [`CompilerTarget`] — fuzz bytes decode to well-formed safe MinC
//!   programs ([`crate::gen`]); the compiled machine run is judged
//!   against the reference interpreter with the exact
//!   [`swsec::equiv`] semantics, so any non-equivalence is a compiler
//!   finding;
//! * [`DiffTarget`] — the same input runs on three fresh machines, one
//!   per engine: tier 2, the tier-1 fast path and the baseline; any
//!   divergence in outcome or [`ArchState`] is a crash-class finding.

use std::sync::Arc;

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::equiv::{classify_observations, Verdict};
use swsec::harness::{AttackTarget, AttemptOutcome, ForkServer, ServeMode};
use swsec::loader;
use swsec_defenses::DefenseConfig;
use swsec_minc::interp::{self, InterpOutcome};
use swsec_minc::{parse, CompileError, CompiledProgram};
use swsec_obs::CoverageSink;
use swsec_vm::arch::ArchState;
use swsec_vm::cpu::{Fault, Machine, RunOutcome};
use swsec_vm::io::IoBus;
use swsec_vm::trace::ExecStats;

use crate::gen;

/// What the fuzzing engine needs from a target beyond
/// [`AttackTarget::execute`].
pub trait FuzzTarget: AttackTarget {
    /// Short stable name, used in reports and findings.
    fn name(&self) -> &'static str;

    /// The seed every execution runs under (layout/canary draws); the
    /// fuzzer varies *inputs*, never the victim's launch randomness.
    fn run_seed(&self) -> u64;

    /// Starter corpus inputs.
    fn seeds(&self) -> Vec<Vec<u8>>;

    /// Tokens worth injecting verbatim (function addresses, magic
    /// words). Empty by default.
    fn dictionary(&self) -> Vec<Vec<u8>> {
        Vec::new()
    }

    /// Hard cap on input length.
    fn max_len(&self) -> usize;

    /// Routes the target's security events into `sink` for the rest of
    /// its life (snapshot restores must not detach it).
    fn attach_coverage(&mut self, sink: Arc<CoverageSink>);

    /// Maps the outcome of the **latest** `execute` to a finding class.
    /// Must be pure in the executed input: re-executing the same input
    /// yields the same class, which the minimizer relies on.
    fn classify(&mut self, outcome: &AttemptOutcome) -> Option<String>;

    /// Divergences between the tier-2, fast-path and baseline engines
    /// observed so far (differential targets only).
    fn divergences(&self) -> u64 {
        0
    }
}

/// Coarse, address-free crash class of a faulting outcome — coarse so
/// that deduplication by class does not explode on input-dependent
/// fault addresses.
fn crash_class(outcome: &RunOutcome) -> Option<String> {
    let RunOutcome::Fault(fault) = outcome else {
        return None;
    };
    Some(match fault {
        Fault::Mem(_) => "memory fault".into(),
        Fault::Pma(_) => "PMA violation".into(),
        Fault::Decode { .. } => "undecodable instruction".into(),
        Fault::DivideByZero { .. } => "divide by zero".into(),
        Fault::SoftwareTrap { code, .. } => format!("defensive trap (code {code})"),
        Fault::ShadowStackMismatch { .. } => "shadow-stack mismatch".into(),
        Fault::ShadowStackUnderflow { .. } => "shadow-stack underflow".into(),
        Fault::UnknownSyscall { .. } => "unknown syscall".into(),
    })
}

/// Per-attempt fuel for the victim and differential targets: the
/// benign victim path needs a few thousand instructions, so this caps
/// wild-jump loops without ever starving a legitimate run.
const TARGET_FUEL: u64 = 200_000;

// ---------------------------------------------------------------- victim

/// The E2/E3 stack-smash victim ([`VICTIM_SMASH`]) served by a
/// [`ForkServer`], hunting exploit paths and crash classes.
pub struct VictimTarget {
    server: ForkServer,
    run_seed: u64,
    dict: Vec<Vec<u8>>,
}

impl VictimTarget {
    /// Boots the victim (no defenses — the E2 baseline) under `mode`.
    pub fn new(cache: &ProgramCache, run_seed: u64, mode: ServeMode) -> VictimTarget {
        let server = ForkServer::boot(cache, VICTIM_SMASH, DefenseConfig::none(), run_seed)
            .expect("victim compiles")
            .with_fuel(TARGET_FUEL)
            .with_mode(mode);
        let grant = server
            .program()
            .function_addr("grant")
            .expect("grant exists");
        let bp = 0xbfff_0000u32;
        let mut combo = bp.to_le_bytes().to_vec();
        combo.extend_from_slice(&grant.to_le_bytes());
        let dict = vec![
            grant.to_le_bytes().to_vec(),
            bp.to_le_bytes().to_vec(),
            combo,
        ];
        VictimTarget {
            server,
            run_seed,
            dict,
        }
    }

    /// Switches the tier-2 block engine on the underlying server, for
    /// coverage-parity audits (attempts — and the coverage maps they
    /// accumulate — are bit-for-bit identical either way).
    pub fn set_tier2(&mut self, on: bool) {
        self.server.set_tier2(on);
    }
}

impl AttackTarget for VictimTarget {
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        self.server.execute(seed, input)
    }
}

impl FuzzTarget for VictimTarget {
    fn name(&self) -> &'static str {
        "victim-smash"
    }

    fn run_seed(&self) -> u64 {
        self.run_seed
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![b"hello".to_vec(), vec![b'A'; 64], vec![0u8; 32]]
    }

    fn dictionary(&self) -> Vec<Vec<u8>> {
        self.dict.clone()
    }

    fn max_len(&self) -> usize {
        96 // the victim's read() cap; longer inputs are dead weight
    }

    fn attach_coverage(&mut self, sink: Arc<CoverageSink>) {
        // The devirtualized attach: tier-2 blocks bump the map in
        // place; tier-1 steps feed it through the event stream. Maps
        // are byte-identical either way.
        self.server.set_coverage(Some(sink));
    }

    fn classify(&mut self, outcome: &AttemptOutcome) -> Option<String> {
        if outcome.emitted(1, b"SECRET") {
            return Some("exploit: return hijacked into grant(), SECRET emitted".into());
        }
        crash_class(&outcome.outcome).map(|c| format!("crash: {c}"))
    }
}

// -------------------------------------------------------------- compiler

/// Conformance fuzzing of the MinC compiler: inputs decode to safe
/// programs, and the compiled machine must match the reference
/// interpreter observationally. Compile failures and non-equivalent
/// runs are findings.
pub struct CompilerTarget {
    run_seed: u64,
    config: DefenseConfig,
    fuel: u64,
    sink: Option<Arc<CoverageSink>>,
    last_finding: Option<String>,
}

impl CompilerTarget {
    /// A compiler target judging under the baseline configuration.
    pub fn new(run_seed: u64) -> CompilerTarget {
        CompilerTarget {
            run_seed,
            config: DefenseConfig::none(),
            fuel: 5_000_000,
            sink: None,
            last_finding: None,
        }
    }

    /// An outcome for attempts that never reached the machine (front
    /// end or code generator rejected the program) — the finding lives
    /// in `last_finding`, the outcome is a neutral halt.
    fn synthetic_outcome() -> AttemptOutcome {
        AttemptOutcome {
            outcome: RunOutcome::Halted(0),
            canary_value: None,
            io: IoBus::default(),
            stats: ExecStats::default(),
        }
    }
}

impl AttackTarget for CompilerTarget {
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        self.last_finding = None;
        let src = gen::program_from_bytes(input);
        let unit = match parse(&src) {
            Ok(unit) => unit,
            Err(err) => {
                self.last_finding = Some(format!(
                    "compiler: front end rejected a well-formed program ({err})"
                ));
                return Ok(Self::synthetic_outcome());
            }
        };
        let reference = interp::run(&unit, &[], self.fuel);
        let mut session = match loader::launch(&unit, self.config, seed) {
            Ok(session) => session,
            Err(err) => {
                self.last_finding = Some(format!(
                    "compiler: compile/load failed on a safe program ({err})"
                ));
                return Ok(Self::synthetic_outcome());
            }
        };
        if let Some(sink) = &self.sink {
            session.machine.set_coverage(Some(Arc::clone(sink)));
        }
        let outcome = session.run(self.fuel);
        let machine_io = session.machine.io().observable();
        // The generated family is safe and the reference always exits
        // within fuel, so anything but strict equivalence — including a
        // "safe" early stop — is a compiler finding.
        match classify_observations(&reference.outcome, &reference.io, &outcome, &machine_io) {
            Verdict::Equivalent => {}
            Verdict::Compromised { evidence } => {
                self.last_finding = Some(format!("miscompile: {evidence}"));
            }
            Verdict::SafeDivergence { cause } => {
                self.last_finding = Some(format!(
                    "miscompile: machine stopped early on a safe program ({cause})"
                ));
            }
            Verdict::Inconclusive => {
                if !matches!(reference.outcome, InterpOutcome::OutOfFuel) {
                    self.last_finding = Some(
                        "miscompile: machine ran out of fuel where the source terminates".into(),
                    );
                }
            }
        }
        let stats = session.machine.stats();
        let io = std::mem::take(session.machine.io_mut());
        Ok(AttemptOutcome {
            outcome,
            canary_value: session.canary_value,
            io,
            stats,
        })
    }
}

impl FuzzTarget for CompilerTarget {
    fn name(&self) -> &'static str {
        "minc-compiler"
    }

    fn run_seed(&self) -> u64 {
        self.run_seed
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![vec![0u8; 16], (0..64u8).collect(), vec![0xff; 32]]
    }

    fn max_len(&self) -> usize {
        64 // shape bytes; the decoder wraps, more adds nothing
    }

    fn attach_coverage(&mut self, sink: Arc<CoverageSink>) {
        self.sink = Some(sink);
    }

    fn classify(&mut self, _outcome: &AttemptOutcome) -> Option<String> {
        self.last_finding.clone()
    }
}

// ------------------------------------------------------------ diff (VM)

/// Differential execution: the same victim and input on a tier-2
/// machine, a fast-path (tier 1 only) machine and an uncached
/// baseline machine. The three must agree on outcome and on their full
/// architectural state ([`ArchState`]: registers, flags, memory, I/O
/// and the rest); a divergence is a crash-class finding in the VM
/// itself, named by the first differing field.
pub struct DiffTarget {
    program: Arc<CompiledProgram>,
    config: DefenseConfig,
    run_seed: u64,
    sink: Option<Arc<CoverageSink>>,
    last_finding: Option<String>,
    divergences: u64,
}

impl DiffTarget {
    /// Compiles the victim once (through `cache`) for both machines.
    pub fn new(cache: &ProgramCache, run_seed: u64) -> DiffTarget {
        let config = DefenseConfig::none();
        let opts = loader::plan_options(&config, run_seed);
        let program = cache.compile(VICTIM_SMASH, &opts).expect("victim compiles");
        DiffTarget {
            program,
            config,
            run_seed,
            sink: None,
            last_finding: None,
            divergences: 0,
        }
    }
}

impl DiffTarget {
    /// Runs `input` on one fresh machine with the given engine
    /// switches and returns the machine, its outcome and its canary;
    /// the tier-2 leg also feeds the coverage sink.
    fn run_leg(
        &self,
        seed: u64,
        input: &[u8],
        fast_path: bool,
        tier2: bool,
    ) -> Result<(Machine, RunOutcome, Option<u32>), CompileError> {
        let (mut machine, canary_value) = loader::boot_machine(&self.program, &self.config, seed)?;
        machine.set_fast_path(fast_path);
        machine.set_tier2(tier2);
        if let (true, Some(sink)) = (tier2, &self.sink) {
            machine.set_coverage(Some(Arc::clone(sink)));
        }
        machine.io_mut().feed_input(0, input);
        let outcome = machine.run(TARGET_FUEL);
        Ok((machine, outcome, canary_value))
    }
}

impl AttackTarget for DiffTarget {
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        self.last_finding = None;
        let (mut tiered, outcome, canary_value) = self.run_leg(seed, input, true, true)?;
        let (fast, fast_outcome, _) = self.run_leg(seed, input, true, false)?;
        let (base, base_outcome, _) = self.run_leg(seed, input, false, false)?;
        let state = ArchState::of(&tiered);
        let diff = [("fast-path", &fast), ("baseline", &base)]
            .into_iter()
            .find_map(|(leg, m)| state.diff(ArchState::of(m)).map(|d| (leg, d)));
        if outcome != fast_outcome || outcome != base_outcome || diff.is_some() {
            self.divergences += 1;
            let first = diff.map_or(String::new(), |(leg, d)| format!(" (tier-2 vs {leg}: {d})"));
            self.last_finding = Some(format!(
                "divergence: tier-2 {outcome:?} vs fast-path {fast_outcome:?} \
                 vs baseline {base_outcome:?}{first}"
            ));
        }
        Ok(AttemptOutcome {
            outcome,
            canary_value,
            io: std::mem::take(tiered.io_mut()),
            stats: tiered.stats(),
        })
    }
}

impl FuzzTarget for DiffTarget {
    fn name(&self) -> &'static str {
        "vm-differential"
    }

    fn run_seed(&self) -> u64 {
        self.run_seed
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![b"hello".to_vec(), vec![b'A'; 64], vec![b'A'; 96]]
    }

    fn dictionary(&self) -> Vec<Vec<u8>> {
        let grant = self.program.function_addr("grant").expect("grant exists");
        vec![
            grant.to_le_bytes().to_vec(),
            0xbfff_0000u32.to_le_bytes().to_vec(),
        ]
    }

    fn max_len(&self) -> usize {
        96
    }

    fn attach_coverage(&mut self, sink: Arc<CoverageSink>) {
        self.sink = Some(sink);
    }

    fn classify(&mut self, _outcome: &AttemptOutcome) -> Option<String> {
        self.last_finding.clone()
    }

    fn divergences(&self) -> u64 {
        self.divergences
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A synthetic target for engine/minimizer unit tests: classifies
    /// "needle" iff the input contains a 0x7f byte. No machine behind
    /// it — outcomes are neutral halts.
    #[derive(Default)]
    pub struct MockTarget {
        sink: Option<Arc<CoverageSink>>,
    }

    impl AttackTarget for MockTarget {
        fn execute(&mut self, _seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
            // Feed the input back through the coverage sink as fake
            // edges so the engine's corpus logic has signal to chew on.
            if let Some(sink) = &self.sink {
                use swsec_obs::{ControlKind, EventSink, SecurityEvent};
                for (i, b) in input.iter().enumerate() {
                    sink.record(&SecurityEvent::ControlTransfer {
                        kind: ControlKind::Call,
                        from: i as u32,
                        to: u32::from(*b),
                    });
                }
            }
            Ok(AttemptOutcome {
                outcome: RunOutcome::Halted(u32::from(input.contains(&0x7f))),
                canary_value: None,
                io: IoBus::default(),
                stats: ExecStats::default(),
            })
        }
    }

    impl FuzzTarget for MockTarget {
        fn name(&self) -> &'static str {
            "mock"
        }

        fn run_seed(&self) -> u64 {
            0
        }

        fn seeds(&self) -> Vec<Vec<u8>> {
            vec![vec![0u8; 16]]
        }

        fn max_len(&self) -> usize {
            64
        }

        fn attach_coverage(&mut self, sink: Arc<CoverageSink>) {
            self.sink = Some(sink);
        }

        fn classify(&mut self, outcome: &AttemptOutcome) -> Option<String> {
            matches!(outcome.outcome, RunOutcome::Halted(1)).then(|| "needle".to_string())
        }
    }

    #[test]
    fn victim_target_classifies_the_canonical_smash() {
        let cache = ProgramCache::new();
        let mut target = VictimTarget::new(&cache, 7, ServeMode::Fork);
        let grant = target.server.program().function_addr("grant").unwrap();
        let mut payload = vec![b'A'; 52];
        payload.extend_from_slice(&0xbfff_0000u32.to_le_bytes());
        payload.extend_from_slice(&grant.to_le_bytes());
        let out = target.execute(7, &payload).unwrap();
        let class = target.classify(&out).expect("finding");
        assert!(class.starts_with("exploit:"), "{class}");
        // The benign input is no finding at all.
        let out = target.execute(7, b"hello").unwrap();
        assert_eq!(target.classify(&out), None);
    }

    #[test]
    fn compiler_target_finds_nothing_on_the_safe_family() {
        let mut target = CompilerTarget::new(3);
        for n in 0..24u8 {
            let bytes: Vec<u8> = (0..24)
                .map(|i| n.wrapping_mul(17).wrapping_add(i))
                .collect();
            let out = target.execute(3, &bytes).unwrap();
            assert_eq!(target.classify(&out), None, "input {n}");
        }
    }

    #[test]
    fn victim_coverage_fingerprints_are_tier_invariant() {
        // The novelty signal steering a campaign must not depend on
        // which tier served an attempt: per-attempt coverage
        // fingerprints from a tiered victim (blocks bumping the edge
        // map from precomputed slots, inline caches chaining) must be
        // byte-identical to the tier-1 hash-at-transfer path.
        let cache = ProgramCache::new();
        let run = |tier2: bool| {
            let mut target = VictimTarget::new(&cache, 11, ServeMode::Fork);
            target.set_tier2(tier2);
            let sink = Arc::new(CoverageSink::new());
            target.attach_coverage(Arc::clone(&sink));
            let mut fingerprints = Vec::new();
            let mut hits = 0u64;
            for i in 0..48usize {
                let len = (i * 7) % 96;
                let out = target.execute(11, &vec![b'A'; len]).unwrap();
                hits += out.stats.tier2_hits;
                fingerprints.push(sink.take_map().fingerprint());
            }
            (fingerprints, hits)
        };
        let (tiered_fps, tiered_hits) = run(true);
        let (fast_fps, fast_hits) = run(false);
        assert_eq!(tiered_fps, fast_fps, "coverage diverges between tiers");
        assert!(tiered_hits > 0, "tier 2 never engaged across 48 attempts");
        assert_eq!(fast_hits, 0, "the pinned tier-1 run served tier-2 blocks");
    }

    #[test]
    fn diff_target_legs_match_fresh_launches_on_each_engine() {
        // On benign, smashing and random inputs the target finds no
        // divergence, and each of its legs ends in exactly the
        // architectural state of an ordinary `launch_compiled` session
        // pinned to the same engine.
        use swsec_rng::Rng;
        let seed = 13;
        let cache = ProgramCache::new();
        let mut target = DiffTarget::new(&cache, seed);
        let grant = target.program.function_addr("grant").unwrap();
        let mut smash = vec![b'A'; 56];
        smash.extend_from_slice(&grant.to_le_bytes());
        let mut smash_bp = vec![b'A'; 52];
        smash_bp.extend_from_slice(&0xbfff_0000u32.to_le_bytes());
        smash_bp.extend_from_slice(&grant.to_le_bytes());
        let mut inputs = vec![b"hello".to_vec(), vec![0xff; 96], smash, smash_bp];
        let mut rng = swsec_rng::stream(0xD1FF_1E65, &[]);
        for _ in 0..24 {
            let mut input = vec![0u8; rng.gen_range(97) as usize];
            rng.fill_bytes(&mut input);
            inputs.push(input);
        }
        for input in &inputs {
            let out = target.execute(seed, input).unwrap();
            assert_eq!(target.classify(&out), None, "input {input:02x?}");
            for (fast_path, tier2) in [(true, true), (true, false), (false, false)] {
                let (leg, outcome, canary) = target.run_leg(seed, input, fast_path, tier2).unwrap();
                let mut session = loader::launch_compiled(&target.program, target.config, seed)
                    .expect("victim boots");
                session.machine.set_fast_path(fast_path);
                session.machine.set_tier2(tier2);
                session.machine.io_mut().feed_input(0, input);
                let at = format!("{:?} {input:02x?}", (fast_path, tier2));
                assert_eq!(session.run(TARGET_FUEL), outcome, "{at}");
                assert_eq!(session.canary_value, canary, "{at}");
                let diff = ArchState::of(&leg).diff(ArchState::of(&session.machine));
                assert_eq!(diff, None, "{at}");
            }
        }
        assert_eq!(target.divergences(), 0);
    }
}
