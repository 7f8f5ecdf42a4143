//! Architectural state: the one definition of "the same machine".
//!
//! Under the paper's machine-code attacker model (§IV-B) the attacker
//! sees the whole machine, so two machines are equivalent only if they
//! agree on all of it: `ip`, registers and flags, the memory layout
//! with its permissions, every page's bytes, the observable I/O, the
//! shadow stack, the protected-module map, the RNG, the read mode, the
//! halt state, the PMA entry rule's view of the last transfer and the
//! [architectural statistics](crate::trace::ExecStats::architectural).
//! These are the fields a [`MachineSnapshot`](crate::cpu::MachineSnapshot)
//! captures, plus the statistics a restore resets; what neither covers
//! is an accelerator (decode cache, TLBs, tier-2 blocks) or an observer
//! (event sink, profiler, trace ring), free to differ between engines
//! and serve modes.
//!
//! [`ArchState`] views a live machine. Its equality and its
//! [`diff`](ArchState::diff), which names the first differing field,
//! are the same comparison: in place, with no allocation and no hashing,
//! skipping pages that neither machine ever wrote. Every claim that two
//! engines, or a forked and a rebuilt machine, behave alike compares
//! through it.
//!
//! ```
//! use swsec_vm::arch::{ArchDiff, ArchState};
//! use swsec_vm::prelude::*;
//!
//! let build = || -> Result<Machine, Box<dyn std::error::Error>> {
//!     let mut m = Machine::new();
//!     m.mem_mut().map(0x1000, 0x1000, Perm::RW)?;
//!     Ok(m)
//! };
//! let (a, mut b) = (build()?, build()?);
//! assert!(ArchState::of(&a) == ArchState::of(&b));
//! // Zeros written to a page are the never-written image.
//! b.mem_mut().poke_bytes(0x1800, &[0])?;
//! assert_eq!(ArchState::of(&a).diff(ArchState::of(&b)), None);
//! b.mem_mut().poke_bytes(0x1804, &[7])?;
//! assert_eq!(
//!     ArchState::of(&a).diff(ArchState::of(&b)),
//!     Some(ArchDiff::Memory(0x1000, 0x804, 0, 7))
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use crate::cpu::{Flags, Machine};
use crate::isa::{Reg, ALL_REGS};
use crate::mem::Perm;
use crate::policy::TransferKind;

/// The architectural state of a live [`Machine`], compared in place.
#[derive(Debug, Clone, Copy)]
pub struct ArchState<'m> {
    m: &'m Machine,
}

/// The first field in which two [`ArchState`]s differ, with the left
/// and right values where they are small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchDiff {
    /// The instruction pointer: left, right.
    Ip(u32, u32),
    /// A general-purpose register, `sp` or `bp`: which, left, right.
    Reg(Reg, u32, u32),
    /// The comparison flags: left, right.
    Flags(Flags, Flags),
    /// The halt state (the exit code once halted): left, right.
    Halted(Option<u32>, Option<u32>),
    /// Whether page permissions are enforced: left, right.
    Enforce(bool, bool),
    /// The lowest page mapped on one side only, or with different
    /// permissions: its base, its permission on the left and on the
    /// right (`None`: unmapped).
    Layout(u32, Option<Perm>, Option<Perm>),
    /// The lowest differing byte of memory: its page's base, its
    /// offset in the page, left, right.
    Memory(u32, u32, u8, u8),
    /// The lowest I/O channel whose output differs: its fd.
    Output(u32),
    /// The lowest I/O channel whose unread input differs: its fd.
    Input(u32),
    /// The shadow stack, or whether there is one.
    ShadowStack,
    /// The protected-module map.
    Protection,
    /// The RNG state: left, right.
    Rng(u64, u64),
    /// Whether reads block on empty input: left, right.
    BlockingReads(bool, bool),
    /// The address of the last instruction, which the PMA entry rule
    /// checks a transfer from: left, right.
    PrevIp(u32, u32),
    /// How control reached `ip`, which the PMA entry rule checks:
    /// left, right.
    PendingTransfer(TransferKind, TransferKind),
    /// The first differing architectural statistic: its name, left,
    /// right.
    Stats(&'static str, u64, u64),
}

impl fmt::Display for ArchDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let perm = |p: &Option<Perm>| p.map_or("unmapped".to_string(), |p| p.to_string());
        match self {
            ArchDiff::Ip(l, r) => write!(f, "ip {l:#x} vs {r:#x}"),
            ArchDiff::Reg(reg, l, r) => write!(f, "{reg} {l:#x} vs {r:#x}"),
            ArchDiff::Flags(l, r) => write!(f, "flags {l:?} vs {r:?}"),
            ArchDiff::Halted(l, r) => write!(f, "halted {l:?} vs {r:?}"),
            ArchDiff::Enforce(l, r) => write!(f, "enforce {l} vs {r}"),
            ArchDiff::Layout(page, l, r) => {
                write!(f, "page {page:#x} {} vs {}", perm(l), perm(r))
            }
            ArchDiff::Memory(page, off, l, r) => {
                write!(f, "page {page:#x} offset {off:#x}: {l:#04x} vs {r:#04x}")
            }
            ArchDiff::Output(fd) => write!(f, "output fd {fd}"),
            ArchDiff::Input(fd) => write!(f, "unread input fd {fd}"),
            ArchDiff::ShadowStack => f.write_str("shadow stack"),
            ArchDiff::Protection => f.write_str("protection map"),
            ArchDiff::Rng(l, r) => write!(f, "rng {l:#x} vs {r:#x}"),
            ArchDiff::BlockingReads(l, r) => write!(f, "blocking reads {l} vs {r}"),
            ArchDiff::PrevIp(l, r) => write!(f, "prev ip {l:#x} vs {r:#x}"),
            ArchDiff::PendingTransfer(l, r) => write!(f, "pending transfer {l:?} vs {r:?}"),
            ArchDiff::Stats(name, l, r) => write!(f, "stats.{name} {l} vs {r}"),
        }
    }
}

impl<'m> ArchState<'m> {
    /// The architectural state of `m`.
    pub fn of(m: &'m Machine) -> ArchState<'m> {
        ArchState { m }
    }

    /// The first field in which `self` (left) and `other` (right)
    /// differ, in the order [`ArchDiff`] lists them; `None` when the
    /// machines are architecturally equal.
    pub fn diff(self, other: ArchState<'_>) -> Option<ArchDiff> {
        let (a, b) = (self.m, other.m);
        if a.ip != b.ip {
            return Some(ArchDiff::Ip(a.ip, b.ip));
        }
        if let Some(i) = (0..a.regs.len()).find(|&i| a.regs[i] != b.regs[i]) {
            return Some(ArchDiff::Reg(ALL_REGS[i], a.regs[i], b.regs[i]));
        }
        if a.flags != b.flags {
            return Some(ArchDiff::Flags(a.flags, b.flags));
        }
        if a.halted != b.halted {
            return Some(ArchDiff::Halted(a.halted, b.halted));
        }
        if let Some(d) = a.mem.diff(&b.mem).or_else(|| io_diff(a, b)) {
            return Some(d);
        }
        if a.shadow_stack != b.shadow_stack {
            return Some(ArchDiff::ShadowStack);
        }
        if a.pma != b.pma {
            return Some(ArchDiff::Protection);
        }
        if a.rng_state != b.rng_state {
            return Some(ArchDiff::Rng(a.rng_state, b.rng_state));
        }
        if a.blocking_reads != b.blocking_reads {
            return Some(ArchDiff::BlockingReads(a.blocking_reads, b.blocking_reads));
        }
        if a.prev_ip != b.prev_ip {
            return Some(ArchDiff::PrevIp(a.prev_ip, b.prev_ip));
        }
        if a.pending_transfer != b.pending_transfer {
            return Some(ArchDiff::PendingTransfer(
                a.pending_transfer,
                b.pending_transfer,
            ));
        }
        let (sa, sb) = (a.stats.architectural(), b.stats.architectural());
        sa.into_iter()
            .zip(sb)
            .find(|((_, l), (_, r))| l != r)
            .map(|((name, l), (_, r))| ArchDiff::Stats(name, l, r))
    }
}

/// Channel by channel in fd order, output before unread input.
fn io_diff(a: &Machine, b: &Machine) -> Option<ArchDiff> {
    // A channel on one side only differs in whichever it holds.
    let one_sided = |(fd, _, output): (u32, &[u8], &[u8])| {
        if output.is_empty() {
            ArchDiff::Input(fd)
        } else {
            ArchDiff::Output(fd)
        }
    };
    let mut ca = a.io.channels();
    let mut cb = b.io.channels();
    loop {
        match (ca.next(), cb.next()) {
            (None, None) => return None,
            (Some(x), None) | (None, Some(x)) => return Some(one_sided(x)),
            (Some(x), Some(y)) if x.0 != y.0 => {
                return Some(one_sided(if x.0 < y.0 { x } else { y }))
            }
            (Some((fd, ia, oa)), Some((_, ib, ob))) => {
                if oa != ob {
                    return Some(ArchDiff::Output(fd));
                }
                if ia != ib {
                    return Some(ArchDiff::Input(fd));
                }
            }
        }
    }
}

impl PartialEq for ArchState<'_> {
    fn eq(&self, other: &ArchState<'_>) -> bool {
        self.diff(*other).is_none()
    }
}

impl Eq for ArchState<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ProtectionMap;

    const TEXT: u32 = 0x1000;
    /// A page the machine maps but never writes.
    const PAGE: u32 = 0x2000;

    /// A machine with every architectural field set to something:
    /// code, a never-written page, output, unread input, a
    /// shadow-stack entry, a protection map and a seeded RNG.
    fn machine() -> Machine {
        let mut m = Machine::new();
        m.mem_mut().map(TEXT, 0x1000, Perm::RX).unwrap();
        m.mem_mut().map(PAGE, 0x1000, Perm::RW).unwrap();
        m.mem_mut().poke_bytes(TEXT, &[1, 2, 3]).unwrap();
        m.io_mut().write(1, b"out");
        m.io_mut().feed_input(0, b"in");
        m.shadow_stack = Some(vec![TEXT]);
        m.set_protection(Some(ProtectionMap::default()));
        m.seed_rng(6);
        m
    }

    /// A change to one field of a machine.
    type Perturb = fn(&mut Machine);

    #[test]
    fn every_field_is_compared_named_and_snapshotted() {
        use ArchDiff as D;
        use TransferKind::{Call, Jump};
        let flags = |zero, lt, ltu| D::Flags(Flags::default(), Flags { zero, lt, ltu });
        let differ: Vec<(Perturb, D)> = vec![
            (|m| m.set_reg(Reg::Bp, 1), D::Reg(Reg::Bp, 0, 1)),
            (|m| m.ip = 4, D::Ip(0, 4)),
            (|m| m.flags.zero = true, flags(true, false, false)),
            (|m| m.flags.lt = true, flags(false, true, false)),
            (|m| m.flags.ltu = true, flags(false, false, true)),
            (|m| m.halted = Some(0), D::Halted(None, Some(0))),
            (|m| m.mem_mut().set_enforce(false), D::Enforce(true, false)),
            (
                |m| m.mem_mut().set_perm(PAGE, 1, Perm::R),
                D::Layout(PAGE, Some(Perm::RW), Some(Perm::R)),
            ),
            (
                |m| m.mem_mut().unmap(PAGE, 1),
                D::Layout(PAGE, Some(Perm::RW), None),
            ),
            (
                |m| m.mem_mut().poke_bytes(TEXT + 2, &[9]).unwrap(),
                D::Memory(TEXT, 2, 3, 9),
            ),
            (
                |m| m.mem_mut().poke_bytes(PAGE + 0xffe, &[9]).unwrap(),
                D::Memory(PAGE, 0xffe, 0, 9),
            ),
            (|m| m.io_mut().write(1, b"!"), D::Output(1)),
            (|m| m.io_mut().write(2, b"!"), D::Output(2)),
            (|m| m.io_mut().feed_input(0, b"!"), D::Input(0)),
            (|m| m.shadow_stack = Some(vec![TEXT + 1]), D::ShadowStack),
            (|m| m.set_protection(None), D::Protection),
            (|m| m.seed_rng(8), D::Rng(7, 9)),
            (
                |m| m.set_blocking_reads(true),
                D::BlockingReads(false, true),
            ),
            (|m| m.prev_ip = 4, D::PrevIp(0, 4)),
            (
                |m| m.pending_transfer = Call,
                D::PendingTransfer(Jump, Call),
            ),
            (|m| m.stats.mem_writes += 1, D::Stats("mem_writes", 0, 1)),
        ];
        // Zeros written to a page are the never-written zero image;
        // consumed input, cache counters and engine switches are not
        // architectural.
        let same: Vec<Perturb> = vec![
            |m| m.mem_mut().poke_bytes(PAGE, &[0; 64]).unwrap(),
            |m| {
                m.io_mut().feed_input(3, b"x");
                m.io_mut().read(3, &mut [0]);
            },
            |m| m.stats.icache_hits += 1,
            |m| m.stats.tier2_compiled += 1,
            |m| m.set_fast_path(false),
            |m| m.set_tier2(false),
        ];
        let a = machine();
        let cases = differ.into_iter().map(|(p, d)| (p, Some(d)));
        for (perturb, want) in cases.chain(same.into_iter().map(|p| (p, None))) {
            let mut b = machine();
            let snap = b.snapshot();
            perturb(&mut b);
            let (left, right) = (ArchState::of(&a), ArchState::of(&b));
            assert_eq!(left == right, want.is_none(), "{want:?}");
            assert_eq!(left.diff(right), want);
            // A snapshot captures the field: restoring rewinds it.
            b.restore_from(&snap);
            assert_eq!(ArchState::of(&a).diff(ArchState::of(&b)), None, "{want:?}");
        }
        // The zero write above did give the page storage of its own.
        let mut b = machine();
        b.mem_mut().poke_bytes(PAGE, &[0; 64]).unwrap();
        assert_eq!(b.mem().resident_pages(), 2);
    }
}
