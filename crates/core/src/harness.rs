//! The attack harness: one `execute(seed, input)` surface for every
//! attacker, served by a snapshotting fork server.
//!
//! The paper's §III-C probabilistic countermeasures (ASLR, canaries)
//! are only as strong as the attacker's cost per guess. A real attacker
//! against a forking server pays one `fork()` per attempt, not one
//! `execve()`; the experiments that measure guessing attacks should pay
//! the same. [`ForkServer`] gives them that economy on the VM:
//!
//! 1. **boot** — compile the victim once (through the
//!    [`ProgramCache`]), load it, apply the run-time defenses, and take
//!    a [`MachineSnapshot`] at the attack surface (before any
//!    seed-dependent state exists);
//! 2. **attempt** — [`Machine::restore_from`] rewinds the machine in
//!    O(dirty pages), [`loader::arm_session`] replays the seed-dependent
//!    launch tail (machine RNG, canary draw), the attacker's input is
//!    fed and the machine runs.
//!
//! Because `arm_session` is the *same function* the loader runs on a
//! fresh launch, and a restored machine is architecturally equivalent
//! to a freshly built one (the same [`ArchState`](swsec_vm::arch::ArchState),
//! `crates/vm/tests/snapshot.rs`), an attempt
//! served from the snapshot behaves byte-for-byte like
//! [`ServeMode::Rebuild`] — which rebuilds the machine from the
//! compiled image every attempt and exists precisely so that
//! equivalence stays testable end to end. The only divergence is the
//! cache counters in [`ExecStats`] (fork attempts keep the icache and
//! TLBs warm across restores); those are excluded from every rendered
//! report, so experiment output is identical either way.
//!
//! # The `AttackTarget` surface
//!
//! Everything that consumes attempts — the E4 ASLR brute force, the
//! E14 canary oracle, campaign cells, and the `swsec-fuzz`
//! coverage-guided fuzzer — drives its victim through one trait:
//! [`AttackTarget::execute`] maps `(seed, input)` to an
//! [`AttemptOutcome`], and the provided [`AttackTarget::search`] folds
//! a guess sequence over it. [`ForkServer`] is the canonical
//! implementation; the fuzzer adds synthetic targets (compiler
//! differential, tier-2/fast-path/baseline VM differential) behind the
//! same signature, so a search strategy written once runs against any
//! of them.

use std::sync::Arc;

use swsec_defenses::DefenseConfig;
use swsec_minc::{CompileError, CompileOptions, CompiledProgram};
use swsec_obs::{span, CoverageSink, EventSink, SpanKind};
use swsec_vm::cpu::{Machine, MachineSnapshot, RunOutcome};
use swsec_vm::io::IoBus;
use swsec_vm::profile::Profiler;
use swsec_vm::trace::ExecStats;

use crate::cache::ProgramCache;
use crate::loader::{self, plan_options};

/// Fuel given to each attempt unless overridden with
/// [`ForkServer::with_fuel`].
pub const DEFAULT_FUEL: u64 = 2_000_000;

/// How a [`ForkServer`] executes each attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Restore the boot-time snapshot (O(dirty pages) per attempt).
    #[default]
    Fork,
    /// Rebuild a fresh machine from the compiled image per attempt —
    /// the slow baseline the snapshot path must match byte for byte.
    Rebuild,
}

impl ServeMode {
    /// `Fork` when `on`, `Rebuild` otherwise.
    pub fn from_fork_flag(on: bool) -> ServeMode {
        if on {
            ServeMode::Fork
        } else {
            ServeMode::Rebuild
        }
    }
}

/// Everything observable about one served attempt.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The canary value installed for this attempt (when canaries are
    /// on).
    pub canary_value: Option<u32>,
    /// The attempt's complete I/O state (outputs written, input left).
    pub io: IoBus,
    /// Execution statistics of this attempt alone. The architectural
    /// counters are identical across [`ServeMode`]s; the cache counters
    /// are not (fork attempts run with warm caches).
    pub stats: ExecStats,
}

impl AttemptOutcome {
    /// Output written to channel `fd` during the attempt.
    pub fn output(&self, fd: u32) -> &[u8] {
        self.io.output(fd)
    }

    /// Whether channel `fd`'s output contains `needle`.
    pub fn emitted(&self, fd: u32, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .io
                .output(fd)
                .windows(needle.len())
                .any(|w| w == needle)
    }
}

/// Result of a batched [`AttackTarget::search`].
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Attempts served (equals the number of inputs when no hit).
    pub attempts: u64,
    /// The first attempt the predicate accepted: its 1-based index and
    /// full outcome.
    pub hit: Option<(u64, AttemptOutcome)>,
}

/// Anything an attacker can throw guesses at.
///
/// One attempt is a pure function of `(seed, input)`: `seed` re-arms
/// whatever per-launch randomness the target models (ASLR slide draw,
/// canary draw, machine RNG) and `input` is the attacker-controlled
/// byte string. Implementations must be deterministic — the same
/// `(seed, input)` always yields the same [`AttemptOutcome`] — and
/// attempts must be independent (no state leaks from one attempt into
/// the next).
///
/// [`ForkServer`] is the canonical implementation; the `swsec-fuzz`
/// crate plugs its compiler and VM-differential targets in behind the
/// same trait, so brute-force loops, campaign cells and the fuzzer all
/// share one execution surface.
pub trait AttackTarget {
    /// Serves one attempt: feed `input` to the target armed with
    /// `seed`, run to completion or fuel exhaustion.
    ///
    /// Fuel exhaustion is an ordinary outcome
    /// ([`RunOutcome::OutOfFuel`] inside the [`AttemptOutcome`]), not
    /// an error: a search treats it as a miss, a fuzzer as a
    /// hang-class signal.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the attempt cannot be staged at
    /// all (e.g. the seed implies a different victim binary than the
    /// booted one, or a generated program fails to compile).
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError>;

    /// Serves attempts in order until `is_hit` accepts one, returning
    /// the attempt count and the first hit. Deterministic: the same
    /// `(seed, input)` sequence always yields the same outcome.
    ///
    /// # Errors
    ///
    /// Propagates the first [`execute`](AttackTarget::execute) error.
    fn search<I, P>(&mut self, attempts: I, mut is_hit: P) -> Result<SearchOutcome, CompileError>
    where
        Self: Sized,
        I: IntoIterator<Item = (u64, Vec<u8>)>,
        P: FnMut(&AttemptOutcome) -> bool,
    {
        let mut served = 0u64;
        for (seed, input) in attempts {
            served += 1;
            let outcome = self.execute(seed, &input)?;
            if is_hit(&outcome) {
                return Ok(SearchOutcome {
                    attempts: served,
                    hit: Some((served, outcome)),
                });
            }
        }
        Ok(SearchOutcome {
            attempts: served,
            hit: None,
        })
    }
}

/// A compiled-once, booted-once victim serving attack attempts from a
/// snapshot (see the [module docs](self)).
pub struct ForkServer {
    program: Arc<CompiledProgram>,
    config: DefenseConfig,
    opts: CompileOptions,
    machine: Machine,
    snapshot: MachineSnapshot,
    mode: ServeMode,
    fuel: u64,
    sink: Option<Arc<dyn EventSink>>,
    /// Set instead of `sink` when the sink is a coverage map attached
    /// via [`set_coverage`](Self::set_coverage) (the devirtualized
    /// tier-2 path).
    cov: Option<Arc<CoverageSink>>,
    /// Tier-2 switch applied to every machine this server runs
    /// (resident and rebuilt), so a differential baseline holds across
    /// [`ServeMode::Rebuild`] attempts too.
    tier2: bool,
    profiler: Option<Arc<Profiler>>,
}

impl std::fmt::Debug for ForkServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkServer")
            .field("config", &self.config)
            .field("mode", &self.mode)
            .field("fuel", &self.fuel)
            .field("sink", &self.sink.is_some())
            .field("profiler", &self.profiler.is_some())
            .finish_non_exhaustive()
    }
}

impl ForkServer {
    /// Compiles `source` under `config` (layout drawn from
    /// `plan_seed`), boots it once, and snapshots at the attack
    /// surface: program loaded, DEP and shadow stack applied, no
    /// seed-dependent state yet. Attempts are served from the snapshot
    /// ([`ServeMode::Fork`]) with [`DEFAULT_FUEL`] per attempt; chain
    /// [`with_mode`](Self::with_mode) and [`with_fuel`](Self::with_fuel)
    /// to override.
    ///
    /// Every subsequent attempt seed must imply the same compile plan
    /// as `plan_seed` — automatically true without ASLR (the plan is
    /// seed-independent), and true with ASLR exactly when the victim's
    /// slide is held fixed across attempts, which is what a forking
    /// server means.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when compilation or loading fails.
    pub fn boot(
        cache: &ProgramCache,
        source: &str,
        config: DefenseConfig,
        plan_seed: u64,
    ) -> Result<ForkServer, CompileError> {
        let opts = plan_options(&config, plan_seed);
        let program = cache.compile(source, &opts)?;
        let mut machine = loader::load_machine(&program, &config)?;
        let snapshot = machine.snapshot();
        let tier2 = machine.tier2();
        Ok(ForkServer {
            program,
            config,
            opts,
            machine,
            snapshot,
            mode: ServeMode::Fork,
            fuel: DEFAULT_FUEL,
            sink: None,
            cov: None,
            tier2,
            profiler: None,
        })
    }

    /// Replaces the per-attempt fuel budget.
    ///
    /// Fuel is charged per attempt and restored in full before the
    /// next: a hung or looping attempt ends in
    /// [`RunOutcome::OutOfFuel`] without starving its successors.
    /// Fuzz runs rely on this — one pathological input costs at most
    /// one fuel budget, and the out-of-fuel outcome is itself a
    /// classifiable signal.
    pub fn with_fuel(mut self, fuel: u64) -> ForkServer {
        self.fuel = fuel;
        self
    }

    /// Replaces the serve mode (snapshot-restore vs rebuild).
    pub fn with_mode(mut self, mode: ServeMode) -> ForkServer {
        self.mode = mode;
        self
    }

    /// Replaces the per-attempt fuel budget in place — the pooled
    /// (lease/return) analogue of [`with_fuel`](Self::with_fuel). The
    /// campaign service calls this when it re-arms a warm server for a
    /// new tenant, so one tenant's fuel policy never bleeds into the
    /// next lease.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Replaces the serve mode in place — the pooled analogue of
    /// [`with_mode`](Self::with_mode), re-armed per lease like
    /// [`set_fuel`](Self::set_fuel).
    pub fn set_mode(&mut self, mode: ServeMode) {
        self.mode = mode;
    }

    /// Attaches (or with `None`, detaches) a security-event sink
    /// observing every attempt, in either [`ServeMode`]. Snapshots do
    /// not capture sinks, so the attachment survives every
    /// [`ServeMode::Fork`] restore; [`ServeMode::Rebuild`] re-attaches
    /// it to each fresh machine. The `swsec-fuzz` coverage map is fed
    /// through exactly this hook.
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.machine.set_event_sink(sink.clone());
        self.sink = sink;
        self.cov = None;
    }

    /// Attaches (or with `None`, detaches) a coverage sink through
    /// [`Machine::set_coverage`]: the sink observes every attempt like
    /// an ordinary event sink, and tier-2 blocks bump its edge map
    /// directly instead of constructing control-transfer events — the
    /// accumulated map is byte-identical either way. Survives
    /// [`ServeMode::Fork`] restores (snapshots do not capture sinks)
    /// and is re-attached to each fresh [`ServeMode::Rebuild`] machine.
    pub fn set_coverage(&mut self, cov: Option<Arc<CoverageSink>>) {
        self.machine.set_coverage(cov.clone());
        self.sink = cov.clone().map(|c| c as Arc<dyn EventSink>);
        self.cov = cov;
    }

    /// Enables or disables the tier-2 block engine on the resident
    /// machine (and every [`ServeMode::Rebuild`] machine), for
    /// differential baselines and determinism audits — attempts are
    /// bit-for-bit identical either way.
    pub fn set_tier2(&mut self, on: bool) {
        self.machine.set_tier2(on);
        self.tier2 = on;
    }

    /// Attaches (or with `None`, detaches) a deterministic sampling
    /// profiler observing every attempt, in either [`ServeMode`]. Like
    /// event sinks, profilers are not captured by snapshots, so the
    /// attachment survives every [`ServeMode::Fork`] restore — and the
    /// restore re-arms the sample countdown, so a forked attempt's
    /// profile is byte-identical to a rebuilt one.
    /// [`ServeMode::Rebuild`] re-attaches it to each fresh machine.
    pub fn set_profiler(&mut self, prof: Option<Arc<Profiler>>) {
        self.machine.set_profiler(prof.clone());
        self.profiler = prof;
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.profiler.as_ref()
    }

    /// The compiled victim image (layout as loaded).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The defense configuration in force.
    pub fn config(&self) -> DefenseConfig {
        self.config
    }

    /// How attempts are served.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// The per-attempt fuel budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }
}

impl AttackTarget for ForkServer {
    /// Serves one attempt: rewind (or rebuild), re-arm the
    /// seed-dependent launch state from `seed`, feed `input` on
    /// channel 0, and run to completion or fuel exhaustion.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when `seed` implies a different
    /// compile plan than the boot seed (the snapshot would be the wrong
    /// binary), or when canary installation fails.
    fn execute(&mut self, seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        if plan_options(&self.config, seed) != self.opts {
            return Err(CompileError {
                message: format!(
                    "fork-server: attempt seed {seed:#x} implies a different compile plan \
                     than the booted victim (vary the attacker's guess, not the victim's slide)"
                ),
            });
        }
        let _attempt = span::enter_with(SpanKind::Attempt, || format!("seed {seed:#x}"));
        match self.mode {
            ServeMode::Fork => {
                let restore = span::enter(SpanKind::Restore, "snapshot");
                self.machine.restore_from(&self.snapshot);
                let canary_value =
                    loader::arm_session(&mut self.machine, &self.program, &self.config, seed)?;
                drop(restore);
                self.machine.io_mut().feed_input(0, input);
                let execute = span::enter(SpanKind::Execute, "");
                let outcome = self.machine.run(self.fuel);
                drop(execute);
                Ok(AttemptOutcome {
                    outcome,
                    canary_value,
                    io: std::mem::take(self.machine.io_mut()),
                    stats: self.machine.stats(),
                })
            }
            ServeMode::Rebuild => {
                let (mut machine, canary_value) =
                    loader::boot_machine(&self.program, &self.config, seed)?;
                machine.set_tier2(self.tier2);
                if let Some(cov) = &self.cov {
                    machine.set_coverage(Some(Arc::clone(cov)));
                } else if self.sink.is_some() {
                    machine.set_event_sink(self.sink.clone());
                }
                if self.profiler.is_some() {
                    machine.set_profiler(self.profiler.clone());
                }
                machine.io_mut().feed_input(0, input);
                let execute = span::enter(SpanKind::Execute, "");
                let outcome = machine.run(self.fuel);
                drop(execute);
                Ok(AttemptOutcome {
                    outcome,
                    canary_value,
                    io: std::mem::take(machine.io_mut()),
                    stats: machine.stats(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::VICTIM_SMASH;
    use swsec_vm::arch::ArchState;

    fn canary_config() -> DefenseConfig {
        let mut cfg = DefenseConfig::none();
        cfg.canary = true;
        cfg
    }

    #[test]
    fn fork_and_rebuild_attempts_are_bit_identical() {
        // A fork attempt leaves its machine in the server, less the I/O
        // bus it hands back. A rebuild attempt boots a machine through
        // `loader::boot_machine`, runs it and drops it, so the test
        // boots and runs that machine itself.
        let cache = ProgramCache::new();
        let mut fork = ForkServer::boot(&cache, VICTIM_SMASH, canary_config(), 7).unwrap();
        for seed in [7u64, 8, 9, 7] {
            let input = vec![b'A'; 60]; // smashes past the canary
            let attempt = fork.execute(seed, &input).unwrap();
            *fork.machine.io_mut() = attempt.io;
            let (mut rebuilt, canary_value) =
                loader::boot_machine(&fork.program, &fork.config, seed).unwrap();
            rebuilt.io_mut().feed_input(0, &input);
            assert_eq!(rebuilt.run(fork.fuel), attempt.outcome, "seed {seed}");
            assert_eq!(canary_value, attempt.canary_value, "seed {seed}");
            let diff = ArchState::of(&fork.machine).diff(ArchState::of(&rebuilt));
            assert_eq!(diff, None, "seed {seed}");
        }
    }

    #[test]
    fn fork_and_rebuild_profiles_are_byte_identical() {
        // The profiler samples on retired instructions and the restore
        // path re-arms its countdown, so serve mode must not change a
        // single folded line. Interval 16: the countdown re-arms at
        // every attempt boundary and a canary-tripped attempt retires
        // only a few dozen instructions, so a coarser interval would
        // never fire.
        let cache = ProgramCache::new();
        let folded = |mode: ServeMode| {
            let mut server = ForkServer::boot(&cache, VICTIM_SMASH, canary_config(), 7)
                .unwrap()
                .with_mode(mode);
            let prof = Arc::new(Profiler::new(16));
            server.set_profiler(Some(prof.clone()));
            for seed in [7u64, 8, 9] {
                server.execute(seed, &[b'A'; 60]).unwrap();
            }
            prof.folded(&server.program().symbol_table())
        };
        let fork = folded(ServeMode::Fork);
        let rebuild = folded(ServeMode::Rebuild);
        assert!(!fork.is_empty(), "no samples at interval 16");
        assert_eq!(fork, rebuild);
        // And the output is symbolized, not raw hex.
        assert!(fork.contains("main"), "unsymbolized profile:\n{fork}");
    }

    #[test]
    fn attempts_are_independent() {
        // A benign attempt after a crashing one sees pristine state.
        let cache = ProgramCache::new();
        let mut server = ForkServer::boot(&cache, VICTIM_SMASH, canary_config(), 3).unwrap();
        let crash = server.execute(3, &[b'A'; 96]).unwrap();
        assert!(matches!(crash.outcome, RunOutcome::Fault(_)));
        for _ in 0..3 {
            let ok = server.execute(3, b"hello").unwrap();
            assert_eq!(ok.outcome, RunOutcome::Halted(0));
            assert_eq!(ok.output(1), b"OK");
        }
    }

    #[test]
    fn same_seed_means_same_canary_across_attempts() {
        // The forking-server property the E14 oracle exploits.
        let cache = ProgramCache::new();
        let mut server = ForkServer::boot(&cache, VICTIM_SMASH, canary_config(), 11).unwrap();
        let a = server.execute(42, b"x").unwrap();
        let b = server.execute(42, b"y").unwrap();
        let c = server.execute(43, b"x").unwrap();
        assert_eq!(a.canary_value, b.canary_value);
        assert_ne!(a.canary_value, c.canary_value);
    }

    #[test]
    fn compiles_and_boots_exactly_once() {
        let cache = ProgramCache::new();
        let mut server = ForkServer::boot(&cache, VICTIM_SMASH, canary_config(), 5).unwrap();
        for seed in 0..50u64 {
            server.execute(seed, b"ping").unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.parses), (0, 1, 1));
    }

    #[test]
    fn mismatched_plan_seed_is_rejected() {
        let cache = ProgramCache::new();
        let mut cfg = DefenseConfig::none();
        cfg.aslr_bits = Some(8);
        let mut server = ForkServer::boot(&cache, VICTIM_SMASH, cfg, 1).unwrap();
        // Same seed: same slide, fine.
        assert!(server.execute(1, b"x").is_ok());
        // A different seed would re-randomize the victim — rejected.
        assert!(server.execute(2, b"x").is_err());
    }

    #[test]
    fn search_reports_the_first_hit() {
        let cache = ProgramCache::new();
        let mut server = ForkServer::boot(&cache, VICTIM_SMASH, DefenseConfig::none(), 1).unwrap();
        // Benign inputs echo OK; only the third "input" is special to
        // the predicate.
        let attempts = (0..5u64).map(|i| (1u64, vec![b'a' + i as u8; 4]));
        let result = AttackTarget::search(&mut server, attempts, |r| {
            r.io.pending_input(0) == 0 && r.output(1) == b"OK"
        })
        .unwrap();
        let (index, hit) = result.hit.expect("every benign attempt echoes OK");
        assert_eq!(index, 1);
        assert_eq!(result.attempts, 1);
        assert_eq!(hit.outcome, RunOutcome::Halted(0));
    }

    #[test]
    fn rebuild_attempts_see_the_attached_sink() {
        let cache = ProgramCache::new();
        for mode in [ServeMode::Fork, ServeMode::Rebuild] {
            let mut server = ForkServer::boot(&cache, VICTIM_SMASH, DefenseConfig::none(), 1)
                .unwrap()
                .with_mode(mode);
            let sink = Arc::new(swsec_obs::CountingSink::new());
            server.set_event_sink(Some(sink.clone()));
            server.execute(1, b"hi").unwrap();
            assert!(
                sink.counts().control > 0,
                "no control transfers observed in {mode:?}"
            );
        }
    }

    #[test]
    fn a_booted_victim_keeps_only_its_written_pages_resident() {
        // The stock victim maps 34 pages, but the loader writes only a
        // few and an attempt one more; the rest share the zero image
        // and hold no storage, before and after attempts.
        let cache = ProgramCache::new();
        for config in [
            DefenseConfig::none(),
            canary_config(),
            DefenseConfig::modern(8),
        ] {
            let mut server = ForkServer::boot(&cache, VICTIM_SMASH, config, 3).unwrap();
            let resident = server.machine.mem().resident_pages();
            assert!(
                resident <= 4,
                "{config:?}: {resident} resident pages after boot"
            );
            for _ in 0..8 {
                server.execute(3, &[b'A'; 60]).unwrap();
            }
            let resident = server.machine.mem().resident_pages();
            assert!(
                resident <= 4,
                "{config:?}: {resident} resident pages after attempts"
            );
        }
    }
}
