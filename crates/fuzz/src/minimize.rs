//! Test-case minimization: shrink a finding's input while preserving
//! its finding class.
//!
//! The reducer is a bounded ddmin-style pass — halving block removal
//! from coarse to fine, then byte normalization to `'A'` — where every
//! candidate is accepted only if the target, re-executed under the
//! *same* run seed, classifies it into the *same* class string. The
//! execution budget caps total work; the result is deterministic
//! because candidate order is a pure function of the input and every
//! target execution is replayable.

use crate::targets::FuzzTarget;

/// Minimizes `input` while `target` keeps classifying it as `class`.
/// Returns the reduced input and the number of executions spent.
pub fn minimize(
    target: &mut dyn FuzzTarget,
    run_seed: u64,
    input: &[u8],
    class: &str,
    budget: u64,
) -> (Vec<u8>, u64) {
    let mut best = input.to_vec();
    let mut execs = 0u64;

    // Phase 1: block removal, halving chunk sizes.
    let mut chunk = best.len() / 2;
    while chunk >= 1 && execs < budget {
        let mut start = 0;
        while start < best.len() && execs < budget {
            if best.len() <= 1 {
                break;
            }
            let end = (start + chunk).min(best.len());
            let mut cand = best.clone();
            cand.drain(start..end);
            if !cand.is_empty() && reproduces(target, run_seed, &cand, class, &mut execs) {
                best = cand;
                // Retry the same offset: the bytes shifted down.
            } else {
                start += chunk;
            }
        }
        chunk /= 2;
    }

    // Phase 2: normalize bytes to 'A' where the class survives.
    for i in 0..best.len() {
        if execs >= budget || best[i] == b'A' {
            continue;
        }
        let mut cand = best.clone();
        cand[i] = b'A';
        if reproduces(target, run_seed, &cand, class, &mut execs) {
            best = cand;
        }
    }

    (best, execs)
}

fn reproduces(
    target: &mut dyn FuzzTarget,
    run_seed: u64,
    cand: &[u8],
    class: &str,
    execs: &mut u64,
) -> bool {
    *execs += 1;
    match target.execute(run_seed, cand) {
        Ok(out) => target.classify(&out).as_deref() == Some(class),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::tests::MockTarget;
    use swsec::harness::AttackTarget;
    use swsec_rng::{stream, Rng};

    #[test]
    fn minimizer_shrinks_while_preserving_the_class() {
        // MockTarget classifies "needle" iff the input contains 0x7f.
        let mut target = MockTarget::default();
        let mut input = vec![b'Z'; 40];
        input[23] = 0x7f;
        let (min, execs) = minimize(&mut target, 0, &input, "needle", 512);
        assert_eq!(min, vec![0x7f], "got {min:?}");
        assert!(execs > 0 && execs <= 512);
    }

    #[test]
    fn minimization_is_deterministic() {
        let mut input = vec![0x33; 64];
        input[10] = 0x7f;
        input[50] = 0x7f;
        let (a, _) = minimize(&mut MockTarget::default(), 0, &input, "needle", 256);
        let (b, _) = minimize(&mut MockTarget::default(), 0, &input, "needle", 256);
        assert_eq!(a, b);
        assert!(a.len() < input.len());

        // Seeded 0–39-byte prefixes and suffixes around one 0x7f: the
        // result is deterministic, no longer than the input, and keeps
        // the class. Case `n` draws from `stream(SEED, &[n])`.
        const SEED: u64 = 0x313E_0001;
        for case in 0..256 {
            let mut rng = stream(SEED, &[case]);
            let mut prefix = vec![0u8; rng.gen_range(40) as usize];
            rng.fill_bytes(&mut prefix);
            let mut suffix = vec![0u8; rng.gen_range(40) as usize];
            rng.fill_bytes(&mut suffix);
            let input = [&prefix[..], &[0x7f], &suffix[..]].concat();
            let mut target = MockTarget::default();
            let (a, _) = minimize(&mut target, 0, &input, "needle", 512);
            let (b, _) = minimize(&mut target, 0, &input, "needle", 512);
            let out = target.execute(0, &a).unwrap();
            assert!(
                a == b
                    && a.len() <= input.len()
                    && target.classify(&out).as_deref() == Some("needle"),
                "seed {SEED:#x} case {case}: input {input:?} minimized to {a:?} then {b:?}"
            );
        }
    }

    #[test]
    fn budget_zero_returns_the_input_unchanged() {
        let input = vec![0x7f; 8];
        let (min, execs) = minimize(&mut MockTarget::default(), 0, &input, "needle", 0);
        assert_eq!(min, input);
        assert_eq!(execs, 0);
    }
}
