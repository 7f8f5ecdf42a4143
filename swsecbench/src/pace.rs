//! Host pace: a fixed probe, timed between ops, that scales every
//! timing to one reference host speed.
//!
//! The reference VM's vCPUs change speed with the load on the host
//! around them: for seconds to minutes at a time the same code runs up
//! to ≈1.7× slower, and the CPU clock slows with it. Raw op times then
//! say more about the host than about swsec. The probe is a small
//! bytecode interpreter that uses no swsec code, so a change to swsec
//! cannot move it; when the host slows, it slows too. Each timing is
//! multiplied by `REFERENCE_US / probe` from the readings around it,
//! which reads as the time the op would take with the host at full
//! speed.

use std::time::{Duration, Instant};

/// The probe's time on the reference VM with the host at full speed,
/// µs. Any constant would do; this one keeps scaled times close to raw
/// times on a calm host.
pub const REFERENCE_US: f64 = 75.0;

/// How often a timed phase reads the probe.
pub const EVERY: Duration = Duration::from_millis(25);

/// Readings on each side of an op that its scale factor is the median
/// of.
const SMOOTH: usize = 2;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Xor(u8, u8, u8),
    Mul(u8, u8, u8),
    Rot(u8, u8),
    Load(u8, u8),
    Store(u8, u8),
}

/// One run of the probe, µs: a fixed 24-instruction program executed
/// 2000 times by a `match` dispatch loop over eight registers and a
/// 4 KiB memory.
fn probe_once(code: &[Op]) -> f64 {
    let started = Instant::now();
    let mut regs = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut mem = [0u64; 512];
    for _ in 0..2_000 {
        for op in std::hint::black_box(code) {
            match *op {
                Op::Add(a, b, c) => {
                    regs[a as usize] = regs[b as usize].wrapping_add(regs[c as usize])
                }
                Op::Xor(a, b, c) => regs[a as usize] = regs[b as usize] ^ regs[c as usize],
                Op::Mul(a, b, c) => {
                    regs[a as usize] = regs[b as usize].wrapping_mul(regs[c as usize] | 1)
                }
                Op::Rot(a, k) => regs[a as usize] = regs[a as usize].rotate_left(u32::from(k)),
                Op::Load(a, b) => regs[a as usize] = mem[(regs[b as usize] % 512) as usize],
                Op::Store(a, b) => mem[(regs[b as usize] % 512) as usize] = regs[a as usize],
            }
        }
    }
    std::hint::black_box((&regs, &mem));
    started.elapsed().as_secs_f64() * 1e6
}

/// The probe program, the same on every call.
fn program() -> Vec<Op> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..24)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b, c) = ((x % 8) as u8, (x >> 8) as u8 % 8, (x >> 16) as u8 % 8);
            match (x >> 24) % 6 {
                0 => Op::Add(a, b, c),
                1 => Op::Xor(a, b, c),
                2 => Op::Rot(a, b % 5 + 1),
                3 => Op::Load(a, b),
                4 => Op::Store(a, b),
                _ => Op::Mul(a, b, c),
            }
        })
        .collect()
}

/// Reads the probe: the median of three runs, µs.
pub fn probe_us() -> f64 {
    let code = program();
    let mut runs = [probe_once(&code), probe_once(&code), probe_once(&code)];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// `REFERENCE_US` over a probe reading: the factor that scales a time
/// measured at that reading to full host speed.
pub fn factor(probe_us: f64) -> f64 {
    REFERENCE_US / probe_us
}

/// Probe readings taken through a timed phase.
#[derive(Debug, Default)]
pub struct Readings {
    /// `(ops completed when read, reading µs)`, in order.
    samples: Vec<(usize, f64)>,
}

impl Readings {
    /// Records a reading taken after `ops` ops.
    pub fn push(&mut self, ops: usize, probe_us: f64) {
        self.samples.push((ops, probe_us));
    }

    /// The scale factor of each of `ops` ops: from the median of the
    /// readings around the last one taken before the op began.
    pub fn factors(&self, ops: usize) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![1.0; ops];
        }
        let smoothed: Vec<f64> = (0..self.samples.len())
            .map(|k| {
                let lo = k.saturating_sub(SMOOTH);
                let hi = (k + SMOOTH + 1).min(self.samples.len());
                let mut window: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
                window.sort_by(f64::total_cmp);
                factor(window[window.len() / 2])
            })
            .collect();
        let mut k = 0;
        (0..ops)
            .map(|op| {
                while k + 1 < self.samples.len() && self.samples[k + 1].0 <= op {
                    k += 1;
                }
                smoothed[k]
            })
            .collect()
    }

    /// The median reading, µs (the reference when there is none).
    pub fn median_us(&self) -> f64 {
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        if all.is_empty() {
            return REFERENCE_US;
        }
        all.sort_by(f64::total_cmp);
        all[(all.len() - 1) / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_takes_the_readings_around_it() {
        let mut r = Readings::default();
        for (ops, us) in [(0, 75.0), (10, 150.0), (20, 150.0), (30, 150.0), (40, 75.0)] {
            r.push(ops, us);
        }
        let f = r.factors(45);
        assert_eq!(f.len(), 45);
        // Op 5 follows the first reading; two of the first three are slow.
        assert_eq!(f[5], 0.5);
        assert_eq!(f[25], 0.5);
        assert_eq!(Readings::default().factors(3), vec![1.0; 3]);
    }
}
