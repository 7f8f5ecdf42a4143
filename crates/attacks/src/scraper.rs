//! Memory-scraping malware (§IV, the machine-code attacker).
//!
//! A scraper is attacker machine code that walks the address space
//! looking for secrets — credit card numbers, keys, PINs. Two
//! implementations are provided:
//!
//! * [`Scraper`] — a fast model of what the malicious code can load,
//!   honoring page permissions and protected-module access control. A
//!   byte inside a protected module is invisible to it; everything else
//!   is fair game. [`Scraper::scan`] evaluates visibility once per
//!   page/module piece, which equals the per-byte rule of
//!   [`Scraper::can_read`]; `tests/scraper_diff.rs` checks the two
//!   against each other on generated machines.
//! * [`scraper_program`] — real scraper *machine code* that runs on the
//!   VM, for end-to-end demonstrations.
//!
//! A kernel-level scraper without PMA is modelled by
//! [`Scraper::kernel`]: page permissions don't apply (the kernel maps
//! everything), but PMA checks still do — that is the paper's point:
//! PMA protects even against a compromised OS.

use swsec_asm::assemble;
use swsec_vm::cpu::Machine;
use swsec_vm::mem::{Access, PAGE_SIZE};

/// Privilege level of the scraping code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrapePrivilege {
    /// Userland malicious module: page permissions and PMA both apply.
    User,
    /// Kernel malware: page permissions don't constrain it, but
    /// protected-module access control still does.
    Kernel,
}

/// A memory scraper: attacker code at a given address, scanning with a
/// given privilege.
#[derive(Debug, Clone, Copy)]
pub struct Scraper {
    ip: u32,
    privilege: ScrapePrivilege,
}

impl Scraper {
    /// A userland scraper whose code executes at `ip` (the PMA rules
    /// judge accesses by where the instruction pointer is).
    pub fn user(ip: u32) -> Scraper {
        Scraper {
            ip,
            privilege: ScrapePrivilege::User,
        }
    }

    /// A kernel-level scraper (malware inside the OS).
    pub fn kernel() -> Scraper {
        Scraper {
            ip: 0xc000_0000, // kernel space; outside every module
            privilege: ScrapePrivilege::Kernel,
        }
    }

    /// Whether this scraper can read the byte at `addr`.
    pub fn can_read(&self, m: &Machine, addr: u32) -> bool {
        if let Some(pma) = m.protection() {
            if pma.check_data(self.ip, addr).is_err() {
                return false;
            }
        }
        match self.privilege {
            ScrapePrivilege::User => m
                .mem()
                .perm_at(addr)
                .is_some_and(|p| !m.mem().enforce() || p.can_read()),
            ScrapePrivilege::Kernel => m.mem().is_mapped(addr),
        }
    }

    /// Reads the byte at `addr` if permitted.
    pub fn read(&self, m: &Machine, addr: u32) -> Option<u8> {
        if !self.can_read(m, addr) {
            return None;
        }
        match self.privilege {
            ScrapePrivilege::User => m.mem().read_u8(addr, Access::Read).ok(),
            ScrapePrivilege::Kernel => {
                let mut byte = [0u8];
                m.mem().peek_into(addr, &mut byte).ok().map(|()| byte[0])
            }
        }
    }

    /// Scans every mapped region for `needle`, returning the addresses
    /// of all matches the scraper can actually see, in address order.
    ///
    /// The result is that of sliding a `needle.len()`-byte window of
    /// [`read`](Scraper::read)s over each [`regions`] entry: a match
    /// never covers an invisible byte and never spans two entries, even
    /// adjacent ones. Visibility is evaluated once per *piece* instead
    /// of per byte. A piece is a run of bytes inside one entry, cut at
    /// page boundaries and at the code and data bounds of every
    /// protected module; page permissions are per page and the PMA
    /// verdict depends only on which module holds the address, so
    /// neither can change inside a piece. Matches straddling visible
    /// pieces are found by carrying the last `needle.len() - 1` bytes
    /// from one piece to the next, so the working buffer is one page
    /// plus that carry, whatever the region size.
    ///
    /// [`regions`]: swsec_vm::mem::Memory::regions
    pub fn scan(&self, m: &Machine, needle: &[u8]) -> Vec<u32> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mem = m.mem();
        // Every address at which the PMA verdict may change.
        let bounds: Vec<u32> = m.protection().map_or_else(Vec::new, |pma| {
            pma.regions()
                .iter()
                .flat_map(|r| {
                    let (code, data) = (r.code(), r.data());
                    [code.start, code.end, data.start, data.end]
                })
                .collect()
        });
        let keep = needle.len() - 1;
        // `buf[..carried]` holds the visible bytes just before the
        // current piece; the piece is read in behind them.
        let mut buf = vec![0u8; keep + PAGE_SIZE as usize];
        let mut hits = Vec::new();
        for (range, _) in mem.regions() {
            // Offsets from `range.start`, so the last page, whose
            // `range.end` wraps to 0, needs no special case.
            let len = range.end.wrapping_sub(range.start);
            let mut carried = 0usize;
            let mut off = 0u32;
            while off < len {
                let addr = range.start.wrapping_add(off);
                let mut end = (off - off % PAGE_SIZE + PAGE_SIZE).min(len);
                for &bound in &bounds {
                    let at = bound.wrapping_sub(range.start);
                    if at > off && at < end {
                        end = at;
                    }
                }
                if self.can_read(m, addr) {
                    let seen = carried + (end - off) as usize;
                    mem.peek_into(addr, &mut buf[carried..seen])
                        .expect("a region's pages are mapped");
                    let first = addr.wrapping_sub(carried as u32);
                    hits.extend(
                        buf[..seen]
                            .windows(needle.len())
                            .enumerate()
                            .filter(|(_, w)| *w == needle)
                            .map(|(i, _)| first.wrapping_add(i as u32)),
                    );
                    carried = keep.min(seen);
                    buf.copy_within(seen - carried..seen, 0);
                } else {
                    carried = 0;
                }
                off = end;
            }
        }
        hits
    }

    /// Scans for a little-endian 32-bit value.
    pub fn scan_word(&self, m: &Machine, value: u32) -> Vec<u32> {
        self.scan(m, &value.to_le_bytes())
    }
}

/// Assembles a real in-VM scraper: machine code at `base` that scans
/// `[scan_start, scan_end)` for the 32-bit little-endian `needle_word`,
/// writes each match address to channel `out_fd`, and exits with the
/// number of hits.
pub fn scraper_program(
    base: u32,
    scan_start: u32,
    scan_end: u32,
    needle_word: u32,
    out_fd: u32,
) -> Vec<u8> {
    // r3 = cursor, r4 = end, r5 = needle, r6 = hit count.
    let src = format!(
        ".org {base:#x}\n\
         movi r3, {scan_start:#x}\n\
         movi r4, {scan_end:#x}\n\
         movi r5, {needle_word:#x}\n\
         movi r6, 0\n\
         loop:\n\
         cmp r3, r4\n\
         jae done\n\
         load r0, [r3]\n\
         cmp r0, r5\n\
         jnz next\n\
         addi r6, 1\n\
         store [r7], r3\n\
         movi r0, {out_fd:#x}\n\
         mov r1, r7\n\
         movi r2, 4\n\
         sys 2\n\
         next:\n\
         addi r3, 1\n\
         jmp loop\n\
         done:\n\
         mov r0, r6\n\
         sys 0\n"
    );
    assemble(&src).expect("static scraper assembles").bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_vm::mem::Perm;
    use swsec_vm::policy::{ProtectedRegion, ProtectionMap};
    use swsec_vm::prelude::*;

    fn machine_with_secret() -> Machine {
        let mut m = Machine::new();
        m.mem_mut().map(0x0805_0000, 0x1000, Perm::RW).unwrap();
        m.mem_mut()
            .poke_bytes(0x0805_0100, &666u32.to_le_bytes())
            .unwrap();
        m.mem_mut().map(0x0900_0000, 0x1000, Perm::RX).unwrap(); // attacker code page
        m
    }

    #[test]
    fn user_scraper_finds_unprotected_secret() {
        let m = machine_with_secret();
        let scraper = Scraper::user(0x0900_0000);
        assert_eq!(scraper.scan_word(&m, 666), vec![0x0805_0100]);
    }

    #[test]
    fn kernel_scraper_ignores_page_permissions() {
        let mut m = machine_with_secret();
        m.mem_mut().set_perm(0x0805_0000, 0x1000, Perm::NONE);
        assert!(Scraper::user(0x0900_0000).scan_word(&m, 666).is_empty());
        assert_eq!(Scraper::kernel().scan_word(&m, 666), vec![0x0805_0100]);
    }

    #[test]
    fn pma_defeats_even_the_kernel_scraper() {
        let mut m = machine_with_secret();
        m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
            0x0a00_0000..0x0a00_1000,
            0x0805_0000..0x0805_1000,
            vec![0x0a00_0000],
        )])));
        assert!(Scraper::kernel().scan_word(&m, 666).is_empty());
        assert!(Scraper::user(0x0900_0000).scan_word(&m, 666).is_empty());
    }

    #[test]
    fn module_can_still_read_its_own_data() {
        let mut m = machine_with_secret();
        m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
            0x0a00_0000..0x0a00_1000,
            0x0805_0000..0x0805_1000,
            vec![0x0a00_0000],
        )])));
        // A "scraper" whose IP is inside the module models the module's
        // own code: rule 3 grants it access.
        let inside = Scraper::user(0x0a00_0800);
        assert_eq!(inside.scan_word(&m, 666), vec![0x0805_0100]);
    }

    #[test]
    fn in_vm_scraper_program_finds_secret() {
        let mut m = machine_with_secret();
        let code = scraper_program(0x0900_0000, 0x0805_0000, 0x0805_0200, 666, 5);
        m.mem_mut().poke_bytes(0x0900_0000, &code).unwrap();
        // Scratch word for the store/write at r7.
        m.mem_mut().map(0x0930_0000, 0x1000, Perm::RW).unwrap();
        m.set_reg(Reg::R7, 0x0930_0000);
        m.set_ip(0x0900_0000);
        assert_eq!(m.run(2_000_000), RunOutcome::Halted(1));
        assert_eq!(m.io().output(5), &0x0805_0100u32.to_le_bytes());
    }

    #[test]
    fn in_vm_scraper_faults_against_pma() {
        let mut m = machine_with_secret();
        m.set_protection(Some(ProtectionMap::new(vec![ProtectedRegion::new(
            0x0a00_0000..0x0a00_1000,
            0x0805_0000..0x0805_1000,
            vec![0x0a00_0000],
        )])));
        let code = scraper_program(0x0900_0000, 0x0805_0000, 0x0805_0200, 666, 5);
        m.mem_mut().poke_bytes(0x0900_0000, &code).unwrap();
        m.mem_mut().map(0x0930_0000, 0x1000, Perm::RW).unwrap();
        m.set_reg(Reg::R7, 0x0930_0000);
        m.set_ip(0x0900_0000);
        let outcome = m.run(2_000_000);
        assert!(
            matches!(outcome, RunOutcome::Fault(Fault::Pma(_))),
            "scraper should fault on the protected region, got {outcome:?}"
        );
    }

    #[test]
    fn empty_needle_matches_nothing() {
        let m = machine_with_secret();
        assert!(Scraper::kernel().scan(&m, b"").is_empty());
    }
}
