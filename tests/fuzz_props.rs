//! Property-based tests over the fuzzing engine's building blocks:
//! mutator purity and length invariants, generator totality, and
//! minimizer class preservation.
//
// Gated behind the non-default `proptest-tests` feature: the default
// workspace must build with zero network access, and `proptest` is a
// registry dependency. Enable with `--features proptest-tests` after
// restoring `proptest` to [dev-dependencies].
#![cfg(feature = "proptest-tests")]

use std::sync::Arc;

use proptest::prelude::*;

use swsec::harness::{AttackTarget, AttemptOutcome};
use swsec_fuzz::minimize::minimize;
use swsec_fuzz::mutate::mutate;
use swsec_fuzz::targets::FuzzTarget;
use swsec_fuzz::{gen, FuzzConfig};
use swsec_minc::{parse, CompileError};
use swsec_obs::CoverageSink;
use swsec_vm::cpu::RunOutcome;
use swsec_vm::io::IoBus;
use swsec_vm::trace::ExecStats;

// ---------------------------------------------------------------------
// Mutators
// ---------------------------------------------------------------------

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..96)
}

proptest! {
    /// The mutator is a pure function of its inputs: the same seed over
    /// the same parent/donor/dictionary always yields the same child.
    #[test]
    fn mutator_is_pure(
        seed in any::<u64>(),
        parent in bytes_strategy(),
        donor in bytes_strategy(),
    ) {
        let dict = vec![vec![0xde, 0xad], vec![1, 2, 3, 4]];
        let a = mutate(seed, &parent, &donor, &dict, 96);
        let b = mutate(seed, &parent, &donor, &dict, 96);
        prop_assert_eq!(a, b);
    }

    /// Mutated children never escape the target's length budget and
    /// never collapse to the empty input (which no target accepts).
    #[test]
    fn mutator_respects_length_bounds(
        seed in any::<u64>(),
        parent in bytes_strategy(),
        donor in bytes_strategy(),
        max_len in 1usize..128,
    ) {
        let child = mutate(seed, &parent, &donor, &[], max_len);
        prop_assert!(!child.is_empty());
        prop_assert!(child.len() <= max_len);
    }

    /// The program generator is total and deterministic: every byte
    /// string decodes to the same parseable MinC program every time.
    #[test]
    fn generator_is_total_and_parseable(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let a = gen::program_from_bytes(&bytes);
        let b = gen::program_from_bytes(&bytes);
        prop_assert_eq!(&a, &b);
        prop_assert!(parse(&a).is_ok(), "generated program must parse:\n{}", a);
    }
}

// ---------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------

/// A deterministic target classifying "needle" iff the input contains
/// the 0x7f marker byte — the smallest behaviour a minimizer can be
/// asked to preserve.
#[derive(Default)]
struct MarkerTarget;

impl AttackTarget for MarkerTarget {
    fn execute(&mut self, _seed: u64, input: &[u8]) -> Result<AttemptOutcome, CompileError> {
        Ok(AttemptOutcome {
            outcome: RunOutcome::Halted(u32::from(input.contains(&0x7f))),
            canary_value: None,
            io: IoBus::default(),
            stats: ExecStats::default(),
        })
    }
}

impl FuzzTarget for MarkerTarget {
    fn name(&self) -> &'static str {
        "marker"
    }

    fn run_seed(&self) -> u64 {
        0
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![vec![0u8; 8]]
    }

    fn max_len(&self) -> usize {
        128
    }

    fn attach_coverage(&mut self, _sink: Arc<CoverageSink>) {}

    fn classify(&mut self, outcome: &AttemptOutcome) -> Option<String> {
        matches!(outcome.outcome, RunOutcome::Halted(1)).then(|| "needle".to_string())
    }
}

proptest! {
    /// Minimization preserves the finding class, never grows the
    /// input, and is deterministic for a fixed budget.
    #[test]
    fn minimizer_preserves_the_class(
        prefix in prop::collection::vec(any::<u8>(), 0..40),
        suffix in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut input = prefix;
        input.push(0x7f);
        input.extend_from_slice(&suffix);

        let mut target = MarkerTarget;
        let (min_a, _) = minimize(&mut target, 0, &input, "needle", 512);
        let (min_b, _) = minimize(&mut target, 0, &input, "needle", 512);
        prop_assert_eq!(&min_a, &min_b, "minimization must be deterministic");
        prop_assert!(min_a.len() <= input.len());
        prop_assert!(min_a.contains(&0x7f), "class must survive minimization");
        let out = target.execute(0, &min_a).unwrap();
        prop_assert_eq!(target.classify(&out).as_deref(), Some("needle"));
    }
}

/// The engine's public configuration stays constructible from outside
/// the crate — the shape downstream harnesses depend on.
#[test]
fn fuzz_config_is_reachable_from_the_suite() {
    let cfg = FuzzConfig {
        master_seed: 1,
        budget: 0,
        minimize_budget: 0,
    };
    assert_eq!(cfg.budget, 0);
}
