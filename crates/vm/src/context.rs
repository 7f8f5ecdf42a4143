//! Explicit VM configuration and the per-attempt execution context.
//!
//! A [`VmConfig`] says how the machines of one run execute (which
//! [`Engine`]) and where their security events go (an optional
//! [`EventSink`]). It is a plain value carried by the run's own
//! configuration — the campaign and service configs each hold one —
//! never process-global state, so concurrent runs in one process
//! cannot change each other's engine or telemetry.
//!
//! Machines are built deep inside experiment code that takes no
//! configuration parameters. A runner therefore installs its config
//! around each attempt it runs with [`scope`]: every
//! [`Machine`](crate::cpu::Machine) built inside the closure takes the
//! scope's engine, sink and profiler, and counts its executed
//! instructions, snapshots, restores and profiler samples into the
//! scope's tally, which `scope` returns. The runner sums the tallies of
//! the attempts that reported back; an attempt it abandoned is simply
//! never summed. Outside any scope a machine runs on [`Engine::Tier2`] with
//! no sink and no profiler, and counts nowhere.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use swsec_obs::EventSink;

use crate::profile::Profiler;
use crate::trace::ExecStats;

/// Which execution engine new machines use. Every engine is
/// semantically invisible: outcomes, registers, memory, I/O, events and
/// architectural stats are bit-for-bit identical; only speed and the
/// cache counters differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Plain fetch/decode/execute: no decoded-instruction cache, no
    /// TLBs, no blocks. The reference the accelerated engines match.
    Baseline,
    /// The tier-1 fast path: decoded-instruction cache plus TLBs.
    Fast,
    /// The fast path plus tier-2 superinstruction blocks (see
    /// [`tier`](crate::tier)).
    #[default]
    Tier2,
}

impl Engine {
    /// Whether the engine uses the decoded-instruction cache and TLBs.
    pub(crate) fn fast_path(self) -> bool {
        self != Engine::Baseline
    }

    /// Whether the engine may enter tier-2 blocks.
    pub(crate) fn tier2(self) -> bool {
        self == Engine::Tier2
    }
}

/// How the machines of one run execute and where their events go.
///
/// Equality compares the sink by identity (`Arc::ptr_eq`), so the
/// configs that carry a `VmConfig` stay comparable values.
#[derive(Clone, Default)]
pub struct VmConfig {
    /// The execution engine every machine of the run starts on.
    pub engine: Engine,
    /// The security-event sink every machine of the run attaches, and
    /// where runners report their own failures (failed cells, shed
    /// jobs).
    pub sink: Option<Arc<dyn EventSink>>,
}

impl fmt::Debug for VmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmConfig")
            .field("engine", &self.engine)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl PartialEq for VmConfig {
    fn eq(&self, other: &VmConfig) -> bool {
        self.engine == other.engine
            && match (&self.sink, &other.sink) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

impl Eq for VmConfig {}

/// The context [`scope`] installs on its thread.
struct Context {
    cfg: VmConfig,
    profiler: Option<Arc<Profiler>>,
    tally: ExecStats,
}

thread_local! {
    static CURRENT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// Runs `f` with `cfg` and `profiler` as this thread's VM context and
/// returns its result together with the tally of everything the
/// machines counted inside it.
///
/// Scopes nest: an inner scope has its own tally (returned to its
/// caller, not added to the outer one), and the outer context is
/// restored when the inner scope ends — by return or by unwind. A
/// panic in `f` propagates and its tally is lost; catch it inside `f`
/// to keep the tally of a failed attempt.
pub fn scope<R>(
    cfg: &VmConfig,
    profiler: Option<Arc<Profiler>>,
    f: impl FnOnce() -> R,
) -> (R, ExecStats) {
    struct Restore(Option<Context>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let _ = CURRENT.try_with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| {
        c.borrow_mut().replace(Context {
            cfg: cfg.clone(),
            profiler,
            tally: ExecStats::default(),
        })
    });
    let _restore = Restore(prev);
    let result = f();
    let tally = CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.tally));
    (result, tally.unwrap_or_default())
}

/// What a machine built now starts with: the current scope's engine,
/// sink and profiler, or `Engine::Tier2` and nothing outside a scope.
pub(crate) fn machine_defaults() -> (Engine, Option<Arc<dyn EventSink>>, Option<Arc<Profiler>>) {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(ctx) => (ctx.cfg.engine, ctx.cfg.sink.clone(), ctx.profiler.clone()),
        None => (Engine::default(), None, None),
    })
}

/// Adds to the current scope's tally; a no-op outside any scope (and
/// during thread teardown, so a machine's `Drop` never panics).
pub(crate) fn count(f: impl FnOnce(&mut ExecStats)) {
    let _ = CURRENT.try_with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            f(&mut ctx.tally);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_scopes_count_exactly_their_own_machines() {
        use crate::cpu::{Machine, RunOutcome};
        use crate::isa::{sys, Instr, Reg};
        use crate::mem::Perm;

        // Two machines run and drop on separate threads, each inside
        // its own scope: each tally holds exactly its own machine's
        // instructions, never the other's.
        let run_one = |loops: u32| {
            scope(&VmConfig::default(), None, || {
                let mut code = Vec::new();
                for _ in 0..loops {
                    Instr::Nop.encode(&mut code);
                }
                Instr::MovI {
                    dst: Reg::R0,
                    imm: 0,
                }
                .encode(&mut code);
                Instr::Sys(sys::EXIT).encode(&mut code);
                let mut m = Machine::new();
                m.mem_mut().map(0x1000, 0x1000, Perm::RX).unwrap();
                m.mem_mut().poke_bytes(0x1000, &code).unwrap();
                m.set_ip(0x1000);
                assert_eq!(m.run(10_000), RunOutcome::Halted(0));
                m.stats().instructions
            })
        };
        let t1 = std::thread::spawn(move || run_one(300));
        let t2 = std::thread::spawn(move || run_one(500));
        let (a, tally_a) = t1.join().expect("thread 1");
        let (b, tally_b) = t2.join().expect("thread 2");
        assert_eq!((a, b), (302, 502));
        assert_eq!(tally_a.instructions, a);
        assert_eq!(tally_b.instructions, b);
    }
}
