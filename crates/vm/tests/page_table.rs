//! The page table against a model: random sequences of `map`, `unmap`
//! and `set_perm` over whole and partial regions, adjacent regions and
//! ranges that wrap past the top of the address space, interleaved with
//! reads, writes, pokes, enforcement toggles, `snapshot` and
//! `restore_from`, checked step by step against a reference
//! `BTreeMap<page, Page>` model.
//!
//! After every step the test compares each result and fault,
//! `is_mapped` and `perm_at` over every page an operation can reach,
//! `regions()`, `resident_pages()` and, for restores, the returned
//! `RestoreStats` and every mapped byte. Each case runs once with the
//! TLB fast path on and once with it off. Case `n` draws from
//! `stream(SEED, &[n])`, so a failure's seed and case replay it alone.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use swsec_rng::{stream, Rng};
use swsec_vm::mem::{
    Access, MapError, MemError, MemErrorKind, Memory, MemorySnapshot, Perm, RestoreStats, PAGE_SIZE,
};

const SEED: u64 = 0x9A6E_7AB1;
const CASES: u64 = 160;
/// Operations per case, at most.
const MAX_OPS: u64 = 90;
/// Page numbers where regions start: the bottom of the address space,
/// a middle window and the top, so ranges can wrap from top to bottom.
const STARTS: [Range<u32>; 3] = [0..4, 0x100..0x10c, 0xf_fffc..0x10_0000];
/// Every page an operation can reach (regions span at most 5 pages).
const REACH: [Range<u32>; 3] = [0..10, 0xf8..0x118, 0xf_fff0..0x10_0000];
const PERMS: [Perm; 7] = [
    Perm::NONE,
    Perm::R,
    Perm::W,
    Perm::X,
    Perm::RW,
    Perm::RX,
    Perm::RWX,
];
const ACCESSES: [Access; 3] = [Access::Read, Access::Write, Access::Fetch];

/// One mapped page of the model.
#[derive(Clone)]
struct Page {
    perm: Perm,
    bytes: Box<[u8]>,
    /// Whether the page holds storage of its own: written since it was
    /// mapped, or restored from a snapshot that captured it so.
    resident: bool,
}

/// The reference: pages by page number, plus what a restore of the
/// latest snapshot has to copy.
#[derive(Clone)]
struct Model {
    pages: BTreeMap<u32, Page>,
    enforce: bool,
    /// Whether the layout changed since the last snapshot or restore.
    layout_dirty: bool,
    /// Pages written since the last snapshot or restore.
    dirty: BTreeSet<u32>,
}

impl Model {
    fn new() -> Model {
        Model {
            pages: BTreeMap::new(),
            enforce: true,
            layout_dirty: true,
            dirty: BTreeSet::new(),
        }
    }

    /// Page numbers covered by `[base, base + len)`, in address order.
    fn span(base: u32, len: u32) -> Vec<u32> {
        let first = base / PAGE_SIZE;
        let last = base.wrapping_add(len - 1) / PAGE_SIZE;
        let mut out = vec![first];
        let mut p = first;
        while p != last {
            p = (p + 1) % (1 << 20);
            out.push(p);
        }
        out
    }

    fn map(&mut self, base: u32, len: u32, perm: Perm) -> Result<(), MapError> {
        if len == 0 {
            return Ok(());
        }
        let span = Model::span(base, len);
        if let Some(&p) = span.iter().find(|p| self.pages.contains_key(p)) {
            return Err(MapError {
                page_base: p * PAGE_SIZE,
            });
        }
        for p in span {
            let bytes = vec![0; PAGE_SIZE as usize].into_boxed_slice();
            let page = Page {
                perm,
                bytes,
                resident: false,
            };
            self.pages.insert(p, page);
        }
        self.layout_dirty = true;
        Ok(())
    }

    fn unmap(&mut self, base: u32, len: u32) {
        if len > 0 {
            for p in Model::span(base, len) {
                self.pages.remove(&p);
            }
            self.layout_dirty = true;
        }
    }

    fn set_perm(&mut self, base: u32, len: u32, perm: Perm) {
        if len > 0 {
            for p in Model::span(base, len) {
                if let Some(page) = self.pages.get_mut(&p) {
                    page.perm = perm;
                }
            }
            self.layout_dirty = true;
        }
    }

    /// Checks one byte's access; `checked == false` skips the
    /// permission check (pokes and peeks).
    fn check(&self, addr: u32, access: Access, checked: bool) -> Result<(), MemError> {
        let err = |kind| MemError { addr, access, kind };
        let page = self
            .pages
            .get(&(addr / PAGE_SIZE))
            .ok_or(err(MemErrorKind::Unmapped))?;
        if checked && self.enforce && !page.perm.allows(access.required()) {
            return Err(err(MemErrorKind::Denied { have: page.perm }));
        }
        Ok(())
    }

    fn read(&self, addr: u32, n: u32, access: Access, checked: bool) -> Result<Vec<u8>, MemError> {
        (0..n)
            .map(|i| {
                let a = addr.wrapping_add(i);
                self.check(a, access, checked)?;
                Ok(self.pages[&(a / PAGE_SIZE)].bytes[(a % PAGE_SIZE) as usize])
            })
            .collect()
    }

    /// Writes byte by byte up to the first fault, as the memory does.
    fn write(
        &mut self,
        addr: u32,
        data: &[u8],
        access: Access,
        checked: bool,
    ) -> Result<(), MemError> {
        for (i, &b) in data.iter().enumerate() {
            let a = addr.wrapping_add(i as u32);
            self.check(a, access, checked)?;
            let p = a / PAGE_SIZE;
            let page = self.pages.get_mut(&p).expect("checked");
            page.bytes[(a % PAGE_SIZE) as usize] = b;
            page.resident = true;
            self.dirty.insert(p);
        }
        Ok(())
    }

    fn regions(&self) -> Vec<(Range<u32>, Perm)> {
        let mut out: Vec<(Range<u32>, Perm)> = Vec::new();
        for (&p, page) in &self.pages {
            let base = p * PAGE_SIZE;
            let end = base.wrapping_add(PAGE_SIZE);
            match out.last_mut() {
                Some((r, perm)) if r.end == base && *perm == page.perm => r.end = end,
                _ => out.push((base..end, page.perm)),
            }
        }
        out
    }

    fn resident_pages(&self) -> usize {
        self.pages.values().filter(|p| p.resident).count()
    }

    fn snapshot(&mut self) -> Model {
        self.layout_dirty = false;
        self.dirty.clear();
        self.clone()
    }

    fn restore_from(&mut self, snap: &Model) -> RestoreStats {
        let pages = if self.layout_dirty {
            *self = snap.clone();
            self.pages.len() as u64
        } else {
            let dirty = std::mem::take(&mut self.dirty);
            for &p in &dirty {
                let page = self.pages.get_mut(&p).expect("a dirty page is mapped");
                page.bytes.copy_from_slice(&snap.pages[&p].bytes);
            }
            dirty.len() as u64
        };
        self.layout_dirty = false;
        self.dirty.clear();
        RestoreStats {
            dirty_pages: pages,
            bytes_copied: pages * u64::from(PAGE_SIZE),
        }
    }
}

/// A region-sized range: a start page from [`STARTS`], page-aligned or
/// not, spanning one to five pages (wrapping near the top).
fn range(rng: &mut impl Rng) -> (u32, u32) {
    let starts = &STARTS[rng.gen_range(3) as usize];
    let page = starts.start + rng.gen_range(u64::from(starts.end - starts.start)) as u32;
    let pages = 1 + rng.gen_range(5) as u32;
    if rng.gen_bool() {
        (page * PAGE_SIZE, pages * PAGE_SIZE)
    } else {
        let off = rng.gen_range(u64::from(PAGE_SIZE)) as u32;
        let len = 1 + rng.gen_range(u64::from(pages * PAGE_SIZE)) as u32;
        (page * PAGE_SIZE + off, len)
    }
}

/// An access address: near a page boundary half the time, so word and
/// byte-run accesses straddle pages.
fn addr(rng: &mut impl Rng) -> u32 {
    let (base, len) = range(rng);
    let a = base.wrapping_add(rng.gen_range(u64::from(len)) as u32);
    if rng.gen_bool() {
        (a & !(PAGE_SIZE - 1)).wrapping_sub(rng.gen_range(4) as u32)
    } else {
        a
    }
}

fn pick<T: Copy>(rng: &mut impl Rng, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

/// Asserts everything observable about the layout agrees with `model`.
fn assert_layout(mem: &Memory, model: &Model, at: &str) {
    for p in REACH.iter().cloned().flatten() {
        let a = p * PAGE_SIZE + (p % 7) * 0x123;
        let perm = model.pages.get(&p).map(|page| page.perm);
        assert_eq!(mem.is_mapped(a), perm.is_some(), "{at}: is_mapped({a:#x})");
        assert_eq!(mem.perm_at(a), perm, "{at}: perm_at({a:#x})");
    }
    assert_eq!(mem.regions(), model.regions(), "{at}: regions()");
    assert_eq!(
        mem.resident_pages(),
        model.resident_pages(),
        "{at}: resident_pages()"
    );
}

/// Asserts every mapped byte agrees with `model`.
fn assert_bytes(mem: &Memory, model: &Model, at: &str) {
    for (&p, page) in &model.pages {
        let bytes = mem
            .peek_bytes(p * PAGE_SIZE, PAGE_SIZE)
            .unwrap_or_else(|e| panic!("{at}: page {p:#x}: {e}"));
        assert!(*bytes == *page.bytes, "{at}: bytes of page {p:#x}");
    }
}

fn run_case(case: u64, fast: bool) {
    let mut rng = stream(SEED, &[case]);
    let mut mem = Memory::new();
    mem.set_fast_path(fast);
    let mut model = Model::new();
    let mut snap: Option<(MemorySnapshot, Model)> = None;
    let ops = 1 + rng.gen_range(MAX_OPS);
    for step in 0..ops {
        let op = rng.gen_range(100);
        let at = format!("seed {SEED:#x} case {case} step {step} (op {op}, fast path {fast})");
        match op {
            // Mapping ops weigh most: they are what the table is for.
            0..=19 => {
                let (base, len) = range(&mut rng);
                let perm = pick(&mut rng, &PERMS);
                let got = mem.map(base, len, perm);
                assert_eq!(
                    got,
                    model.map(base, len, perm),
                    "{at}: map({base:#x}, {len:#x})"
                );
            }
            20..=29 => {
                let (base, len) = range(&mut rng);
                mem.unmap(base, len);
                model.unmap(base, len);
            }
            30..=41 => {
                let (base, len) = range(&mut rng);
                let perm = pick(&mut rng, &PERMS);
                mem.set_perm(base, len, perm);
                model.set_perm(base, len, perm);
            }
            42..=51 => {
                let (a, access) = (addr(&mut rng), pick(&mut rng, &ACCESSES));
                let want = model
                    .read(a, 4, access, true)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                assert_eq!(mem.read_u32(a, access), want, "{at}: read_u32({a:#x})");
                let want = model.read(a, 1, access, true).map(|b| b[0]);
                assert_eq!(mem.read_u8(a, access), want, "{at}: read_u8({a:#x})");
            }
            52..=63 => {
                let (a, access) = (addr(&mut rng), pick(&mut rng, &ACCESSES));
                let v = rng.next_u32();
                let want = model.write(a, &v.to_le_bytes(), access, true);
                assert_eq!(mem.write_u32(a, v, access), want, "{at}: write_u32({a:#x})");
            }
            64..=67 => {
                let (a, access) = (addr(&mut rng), pick(&mut rng, &ACCESSES));
                let v = rng.next_u32() as u8;
                let want = model.write(a, &[v], access, true);
                assert_eq!(mem.write_u8(a, v, access), want, "{at}: write_u8({a:#x})");
            }
            68..=73 => {
                let (a, access) = (addr(&mut rng), pick(&mut rng, &ACCESSES));
                let mut data = vec![0; 1 + rng.gen_range(2 * u64::from(PAGE_SIZE)) as usize];
                rng.fill_bytes(&mut data);
                let want = model.write(a, &data, access, true);
                assert_eq!(
                    mem.write_bytes(a, &data, access),
                    want,
                    "{at}: write_bytes({a:#x})"
                );
            }
            74..=77 => {
                let (a, access) = (addr(&mut rng), pick(&mut rng, &ACCESSES));
                let n = 1 + rng.gen_range(2 * u64::from(PAGE_SIZE)) as u32;
                let mut buf = vec![0; n as usize];
                let got = mem.read_bytes(a, &mut buf, access).map(|()| buf);
                assert_eq!(
                    got,
                    model.read(a, n, access, true),
                    "{at}: read_bytes({a:#x}, {n})"
                );
            }
            78..=81 => {
                let a = addr(&mut rng);
                let mut data = vec![0; 1 + rng.gen_range(64) as usize];
                rng.fill_bytes(&mut data);
                let want = model.write(a, &data, Access::Write, false);
                assert_eq!(mem.poke_bytes(a, &data), want, "{at}: poke_bytes({a:#x})");
                let n = 1 + rng.gen_range(64) as u32;
                let want = model.read(a, n, Access::Read, false);
                assert_eq!(mem.peek_bytes(a, n), want, "{at}: peek_bytes({a:#x}, {n})");
            }
            82..=84 => {
                let on = rng.gen_bool();
                mem.set_enforce(on);
                model.enforce = on;
                model.layout_dirty = true;
            }
            85..=91 => {
                let s = mem.snapshot();
                let m = model.snapshot();
                assert_eq!(s.page_count(), m.pages.len(), "{at}: snapshot page count");
                snap = Some((s, m));
            }
            _ => {
                if let Some((s, m)) = &snap {
                    let got = mem.restore_from(s);
                    assert_eq!(got, model.restore_from(m), "{at}: restore_from");
                    assert_eq!(mem.enforce(), model.enforce, "{at}: restored enforce");
                    assert_bytes(&mem, &model, &at);
                }
            }
        }
        assert_layout(&mem, &model, &at);
    }
    assert_bytes(
        &mem,
        &model,
        &format!("seed {SEED:#x} case {case} end (fast path {fast})"),
    );
}

#[test]
fn page_table_matches_a_per_page_model() {
    for case in 0..CASES {
        for fast in [true, false] {
            run_case(case, fast);
        }
    }
}
