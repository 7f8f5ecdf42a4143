//! Seed-derived input mutators.
//!
//! [`mutate`] is a **pure function** of `(seed, parent, donor, dict,
//! max_len)`: every random choice comes from a [`Xoshiro256pp`] stream
//! seeded with `seed`, so the same call always yields the same child
//! input. That purity is what makes fuzzing campaigns replayable and
//! the campaign render byte-identical at any worker count —
//! `tests` below assert it on seeded parents and donors.
//!
//! The operator set is the classic AFL-style mix: bit flips, byte
//! sets, byte-wise arithmetic, interesting 32-bit constants, block
//! deletion/duplication, splicing with a second corpus entry, and
//! dictionary injection. Dictionary *overwrites* are biased to
//! 4-byte-aligned offsets (two opcodes out of ten) because the
//! targets' interesting slots — saved frame pointers, return
//! addresses, function-pointer words — live at word granularity.

use swsec_rng::{Rng, Xoshiro256pp};

/// 32-bit constants worth planting verbatim: boundary values for the
/// arithmetic the victims and the generated programs perform.
pub const INTERESTING: [u32; 8] = [
    0,
    1,
    0x7f,
    0xff,
    0x8000_0000,
    0x7fff_ffff,
    0xffff_ffff,
    0x0010_0000,
];

/// Number of mutation opcodes [`mutate`] draws from.
const OPS: u64 = 10;

/// Derives a child input from `parent`. `donor` is a second corpus
/// entry used by the splice operator; `dict` holds target-provided
/// tokens (function addresses, magic words); the result never exceeds
/// `max_len` bytes and is never empty.
pub fn mutate(seed: u64, parent: &[u8], donor: &[u8], dict: &[Vec<u8>], max_len: usize) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut input = if parent.is_empty() {
        vec![0u8; 8]
    } else {
        parent.to_vec()
    };
    let ops = 1 + rng.gen_range(3); // 1..=3 stacked operators
    for _ in 0..ops {
        apply_one(&mut rng, &mut input, donor, dict, max_len);
    }
    input.truncate(max_len.max(1));
    if input.is_empty() {
        input.push(0);
    }
    input
}

fn apply_one(
    rng: &mut Xoshiro256pp,
    input: &mut Vec<u8>,
    donor: &[u8],
    dict: &[Vec<u8>],
    max_len: usize,
) {
    if input.is_empty() {
        input.push(0);
    }
    let len = input.len();
    match rng.gen_range(OPS) {
        0 => {
            // Single bit flip.
            let pos = rng.gen_range(len as u64) as usize;
            input[pos] ^= 1 << rng.gen_range(8);
        }
        1 => {
            // Random byte set.
            let pos = rng.gen_range(len as u64) as usize;
            input[pos] = rng.next_u32() as u8;
        }
        2 => {
            // Byte-wise arithmetic, ±1..=35 like AFL's ARITH stage.
            let pos = rng.gen_range(len as u64) as usize;
            let delta = (1 + rng.gen_range(35)) as u8;
            input[pos] = if rng.gen_bool() {
                input[pos].wrapping_add(delta)
            } else {
                input[pos].wrapping_sub(delta)
            };
        }
        3 => {
            // Interesting 32-bit constant, little-endian, in place.
            let word = INTERESTING[rng.gen_range(INTERESTING.len() as u64) as usize];
            overwrite(
                input,
                rng.gen_range(len as u64) as usize,
                &word.to_le_bytes(),
            );
        }
        4 => {
            // Delete a block (never the whole input).
            if len > 1 {
                let start = rng.gen_range(len as u64) as usize;
                let count = (1 + rng.gen_range(len as u64 / 2 + 1) as usize)
                    .min(len - 1)
                    .min(len - start);
                input.drain(start..start + count);
            }
        }
        5 => {
            // Duplicate a block to the end (growth, capped).
            let start = rng.gen_range(len as u64) as usize;
            let count = (1 + rng.gen_range(8)) as usize;
            let block: Vec<u8> = input[start..(start + count).min(len)].to_vec();
            input.extend_from_slice(&block);
            input.truncate(max_len.max(1));
        }
        6 => {
            // Splice: our prefix + the donor's suffix.
            if !donor.is_empty() {
                let keep = rng.gen_range(len as u64) as usize;
                let from = rng.gen_range(donor.len() as u64) as usize;
                input.truncate(keep.max(1));
                input.extend_from_slice(&donor[from..]);
                input.truncate(max_len.max(1));
            }
        }
        7 => {
            // Dictionary insert at a random position.
            if let Some(tok) = pick(rng, dict) {
                let pos = rng.gen_range(len as u64 + 1) as usize;
                let tail = input.split_off(pos);
                input.extend_from_slice(&tok);
                input.extend_from_slice(&tail);
                input.truncate(max_len.max(1));
            }
        }
        _ => {
            // Dictionary overwrite at a 4-aligned offset (two opcodes
            // land here — the word-granularity bias).
            if let Some(tok) = pick(rng, dict) {
                let aligned_slots = (len / 4) as u64 + 1;
                let pos = (rng.gen_range(aligned_slots) as usize * 4).min(len.saturating_sub(1));
                overwrite(input, pos, &tok);
            }
        }
    }
}

fn pick(rng: &mut Xoshiro256pp, dict: &[Vec<u8>]) -> Option<Vec<u8>> {
    if dict.is_empty() {
        return None;
    }
    Some(dict[rng.gen_range(dict.len() as u64) as usize].clone())
}

/// Overwrites `bytes` into `input` starting at `pos`, clipped to the
/// existing length (never grows the input).
fn overwrite(input: &mut [u8], pos: usize, bytes: &[u8]) {
    for (i, b) in bytes.iter().enumerate() {
        if let Some(slot) = input.get_mut(pos + i) {
            *slot = *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::{stream, Rng, Xoshiro256pp};

    /// Seeded cases: case `n` draws from `stream(SEED, &[n])`.
    const SEED: u64 = 0x4D07_0001;

    fn dict() -> Vec<Vec<u8>> {
        vec![vec![0xde, 0xad, 0xbe, 0xef], vec![0x41; 8]]
    }

    /// 1–95 random bytes.
    fn bytes(rng: &mut Xoshiro256pp) -> Vec<u8> {
        let mut out = vec![0u8; 1 + rng.gen_range(95) as usize];
        rng.fill_bytes(&mut out);
        out
    }

    #[test]
    fn mutation_is_pure_in_seed_and_input() {
        let parent = b"hello world".to_vec();
        let donor = b"DONORDONOR".to_vec();
        for seed in 0..64 {
            let a = mutate(seed, &parent, &donor, &dict(), 96);
            let b = mutate(seed, &parent, &donor, &dict(), 96);
            assert_eq!(a, b, "seed {seed} not reproducible");
        }
        for case in 0..256 {
            let mut rng = stream(SEED, &[case]);
            let (seed, parent, donor) = (rng.next_u64(), bytes(&mut rng), bytes(&mut rng));
            assert_eq!(
                mutate(seed, &parent, &donor, &dict(), 96),
                mutate(seed, &parent, &donor, &dict(), 96),
                "seed {SEED:#x} case {case}: mutation seed {seed:#x}, parent {parent:?}, donor {donor:?}"
            );
        }
    }

    #[test]
    fn different_seeds_diversify() {
        let parent = vec![0u8; 32];
        let distinct: std::collections::BTreeSet<Vec<u8>> = (0..64)
            .map(|s| mutate(s, &parent, &parent, &dict(), 96))
            .collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct children",
            distinct.len()
        );
    }

    #[test]
    fn length_and_emptiness_invariants_hold() {
        for seed in 0..256 {
            let child = mutate(seed, b"abc", b"defghijklmnop", &dict(), 16);
            assert!(!child.is_empty());
            assert!(child.len() <= 16, "len {} at seed {seed}", child.len());
        }
        for case in 0..256 {
            let mut rng = stream(SEED, &[case]);
            let (seed, parent, donor) = (rng.next_u64(), bytes(&mut rng), bytes(&mut rng));
            let max_len = 1 + rng.gen_range(127) as usize;
            let dict = if rng.gen_bool() { dict() } else { Vec::new() };
            let child = mutate(seed, &parent, &donor, &dict, max_len);
            assert!(
                !child.is_empty() && child.len() <= max_len,
                "seed {SEED:#x} case {case}: len {} over max_len {max_len}, mutation seed \
                 {seed:#x}, parent {parent:?}, donor {donor:?}, dict {dict:?}",
                child.len()
            );
        }
    }

    #[test]
    fn empty_parent_is_tolerated() {
        let child = mutate(7, &[], &[], &[], 8);
        assert!(!child.is_empty() && child.len() <= 8);
    }
}
