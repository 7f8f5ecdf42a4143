//! Timing primitives: per-op wall and process-CPU samples, quantiles,
//! and interval arithmetic for attributing wall time to layers.

use std::time::{Duration, Instant};

use crate::pace;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Records one timed phase: wall time, CPU time and peak live heap of
/// every op, failures, the phase's own wall clock, and the host pace
/// read every [`pace::EVERY`] between ops.
#[derive(Debug)]
pub struct OpRecorder {
    started: Instant,
    open: Option<(Instant, Duration)>,
    wall: Vec<Duration>,
    cpu: Vec<Duration>,
    heap: Vec<usize>,
    failed: u64,
    excluded: Duration,
    readings: pace::Readings,
    next_reading: Instant,
}

impl OpRecorder {
    /// Starts a phase.
    pub fn new() -> OpRecorder {
        let started = Instant::now();
        OpRecorder {
            started,
            open: None,
            wall: Vec::new(),
            cpu: Vec::new(),
            heap: Vec::new(),
            failed: 0,
            excluded: Duration::ZERO,
            readings: pace::Readings::default(),
            next_reading: started,
        }
    }

    /// Opens an op, reading the host pace first when it is due (the
    /// reading is charged to no op and not to the phase).
    pub fn begin(&mut self) {
        let now = Instant::now();
        if now >= self.next_reading {
            self.readings.push(self.wall.len(), pace::probe_us());
            let read = Instant::now();
            self.excluded += read - now;
            self.next_reading = read + pace::EVERY;
        }
        crate::alloc::reset_peak();
        self.open = Some((Instant::now(), process_cpu()));
    }

    /// Closes the open op and returns its wall time.
    pub fn end(&mut self, ok: bool) -> Duration {
        let (wall0, cpu0) = self.open.take().expect("end() without begin()");
        let wall = wall0.elapsed();
        self.wall.push(wall);
        self.cpu.push(process_cpu().saturating_sub(cpu0));
        self.heap.push(crate::alloc::peak());
        if !ok {
            self.failed += 1;
        }
        wall
    }

    /// Runs `f` between ops without charging it to the phase's wall
    /// clock (output checks that are not part of any op).
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    /// Closes the phase.
    pub fn finish(self) -> Phase {
        let wall = self.started.elapsed().saturating_sub(self.excluded);
        let ops = self.wall.len();
        let factors = self.readings.factors(ops);
        let scale = |times: &[Duration]| -> Vec<Duration> {
            times
                .iter()
                .zip(&factors)
                .map(|(t, f)| t.mul_f64(*f))
                .collect()
        };
        let (wall_scaled, cpu_scaled) = (scale(&self.wall), scale(&self.cpu));
        // Time between ops (the fuzz engine's own work, for one) scales
        // by the phase's median reading.
        let in_ops: Duration = self.wall.iter().sum();
        let between = wall
            .saturating_sub(in_ops)
            .mul_f64(pace::factor(self.readings.median_us()));
        let phase_scaled = wall_scaled.iter().sum::<Duration>() + between;
        Phase {
            ops,
            failed: self.failed,
            scaled: Timings::of(&wall_scaled, &cpu_scaled, phase_scaled),
            raw: Timings::of(&self.wall, &self.cpu, wall),
            pace_us: self.readings.median_us(),
            peak_heap_mb: mb(median_of(&mut self.heap.clone())),
            peak_heap_max_mb: mb(self.heap.iter().copied().max().unwrap_or(0)),
        }
    }
}

/// The summary of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Ops completed.
    pub ops: usize,
    /// Ops that failed.
    pub failed: u64,
    /// Op timings scaled to the reference host speed.
    pub scaled: Timings,
    /// The same timings as measured.
    pub raw: Timings,
    /// The median host-pace reading of the phase, µs.
    pub pace_us: f64,
    /// Median over ops of the peak live heap while the op ran, MiB.
    pub peak_heap_mb: f64,
    /// The highest of those peaks, MiB.
    pub peak_heap_max_mb: f64,
}

/// Op timings of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Median op wall time, ms.
    pub op_ms_p50: f64,
    /// 90th-percentile op wall time, ms.
    pub op_ms_p90: f64,
    /// Median op process-CPU time, ms.
    pub op_cpu_ms_p50: f64,
    /// Ops over the phase's wall time.
    pub ops_per_s: f64,
}

impl Timings {
    fn of(wall: &[Duration], cpu: &[Duration], phase: Duration) -> Timings {
        Timings {
            op_ms_p50: quantile_ms(wall, 0.50),
            op_ms_p90: quantile_ms(wall, 0.90),
            op_cpu_ms_p50: quantile_ms(cpu, 0.50),
            ops_per_s: wall.len() as f64 / phase.as_secs_f64().max(1e-9),
        }
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn median_of(values: &mut [usize]) -> usize {
    values.sort_unstable();
    values
        .get(values.len().div_ceil(2).saturating_sub(1))
        .copied()
        .unwrap_or(0)
}

/// The `q` quantile of `samples` by nearest rank, in milliseconds;
/// 0 for no samples.
pub fn quantile_ms(samples: &[Duration], q: f64) -> f64 {
    quantile(samples, q).as_secs_f64() * 1e3
}

/// The `q` quantile of `samples` by nearest rank (zero when empty).
pub fn quantile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Total length covered by the union of `[start, start + len)`
/// intervals.
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, len) in intervals {
        let end = start + len;
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(quantile_ms(&ms, 0.5), 5.0);
        assert_eq!(quantile_ms(&ms, 0.9), 9.0);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(vec![(0, 10), (5, 10), (20, 5), (21, 1)]), 20);
        assert_eq!(covered(Vec::new()), 0);
    }

    #[test]
    fn process_cpu_advances() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before, "{x}");
    }
}
