//! The per-attempt VM context: machines built inside a
//! [`scope`](swsec_vm::context::scope) take its engine, event sink and
//! profiler and count into its tally; machines built outside take none
//! of them. Nothing here is process-global, so these tests share their
//! binary with any other test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

use swsec_obs::{CountingSink, EventSink};
use swsec_vm::context::scope;
use swsec_vm::cpu::{Machine, RunOutcome};
use swsec_vm::isa::{sys, Instr, Reg};
use swsec_vm::mem::Perm;
use swsec_vm::profile::Profiler;
use swsec_vm::{Engine, VmConfig};

fn run_program() -> Machine {
    let prog = [
        Instr::Call(0x1000 + 13),
        Instr::MovI {
            dst: Reg::R0,
            imm: 0,
        },
        Instr::Sys(sys::EXIT),
        Instr::Ret,
    ];
    let mut code = Vec::new();
    for i in &prog {
        i.encode(&mut code);
    }
    let mut m = Machine::new();
    m.mem_mut().map(0x1000, 0x1000, Perm::RX).unwrap();
    m.mem_mut()
        .map(0xbfff_0000u32.wrapping_sub(0x4000), 0x4000, Perm::RW)
        .unwrap();
    m.mem_mut().poke_bytes(0x1000, &code).unwrap();
    m.set_reg(Reg::Sp, 0xbfff_0000);
    m.set_ip(0x1000);
    assert_eq!(m.run(100), RunOutcome::Halted(0));
    m
}

fn config(engine: Engine, sink: &Arc<CountingSink>) -> VmConfig {
    VmConfig {
        engine,
        sink: Some(sink.clone() as Arc<dyn EventSink>),
    }
}

#[test]
fn machines_built_in_a_scope_take_its_engine_sink_and_profiler() {
    let counter = Arc::new(CountingSink::new());
    let prof = Arc::new(Profiler::new(1));
    for (engine, fast, tier2) in [
        (Engine::Baseline, false, false),
        (Engine::Fast, true, false),
        (Engine::Tier2, true, true),
    ] {
        let (seen, tally) = scope(&config(engine, &counter), Some(prof.clone()), || {
            let m = run_program();
            assert!(m.has_event_sink());
            assert!(Arc::ptr_eq(m.profiler().expect("scoped profiler"), &prof));
            (m.fast_path(), m.tier2())
        });
        assert_eq!(seen, (fast, tier2), "{engine:?}");
        // call, movi, exit... plus the ret: four instructions.
        assert_eq!(tally.instructions, 4, "{engine:?}");
        assert_eq!(tally.prof_samples, 4, "{engine:?}");
    }
    let c = counter.counts();
    assert_eq!(c.control, 6, "{c:?}"); // one call, one ret per engine
    assert_eq!(c.syscall, 3);
}

#[test]
fn machines_built_outside_a_scope_take_nothing() {
    let counter = Arc::new(CountingSink::new());
    // A scope open on another thread never reaches this one: the
    // barrier holds that scope open while this thread builds and runs.
    let open = Arc::new(Barrier::new(2));
    let scoped = std::thread::spawn({
        let (counter, open) = (counter.clone(), open.clone());
        move || {
            scope(&config(Engine::Baseline, &counter), None, || {
                open.wait();
                open.wait();
            })
        }
    });
    open.wait();
    let m = run_program();
    open.wait();
    assert!(!m.has_event_sink());
    assert!(m.profiler().is_none());
    assert!(m.fast_path() && m.tier2(), "outside a scope: Engine::Tier2");
    scoped.join().expect("scoped thread");
    assert_eq!(counter.counts().control, 0);

    // A machine built in a scope but run after it ended counts nowhere
    // and keeps the sink it was built with.
    let (mut m, _) = scope(&config(Engine::Fast, &counter), None, run_program);
    m.set_ip(0x1000);
    let (_, tally) = scope(&VmConfig::default(), None, || drop(m));
    assert_eq!(tally.instructions, 0);
    assert_eq!(counter.counts().control, 2);
}

#[test]
fn nested_scopes_restore_the_outer_context_on_unwind() {
    let outer = Arc::new(CountingSink::new());
    let inner = Arc::new(CountingSink::new());
    let ((), outer_tally) = scope(&config(Engine::Fast, &outer), None, || {
        let (m, inner_tally) = scope(&config(Engine::Baseline, &inner), None, || {
            let m = run_program();
            assert!(!m.fast_path());
            m
        });
        drop(m);
        assert_eq!(inner_tally.instructions, 4);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            scope(&config(Engine::Baseline, &inner), None, || {
                let _m = run_program();
                panic!("attempt failed");
            })
        }));
        assert!(unwound.is_err());
        // Back in the outer context: its engine, its sink, its tally.
        let m = run_program();
        assert!(m.fast_path() && !m.tier2());
    });
    assert_eq!(outer_tally.instructions, 4, "inner tallies stay separate");
    assert_eq!(outer.counts().control, 2);
    assert_eq!(inner.counts().control, 4);
    assert!(
        !run_program().has_event_sink(),
        "no context after the outermost scope"
    );
}
