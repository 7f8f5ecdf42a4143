//! Paged virtual memory with per-page read/write/execute permissions.
//!
//! The machine has a full 32-bit byte-addressable address space backed
//! sparsely by 4 KiB pages. Each page carries a permission set; whether
//! those permissions are *enforced* is a property of the executing
//! machine (Data Execution Prevention can be switched off to model the
//! pre-DEP era in which injected data was executable).
//!
//! All multi-byte accesses are little-endian, as in the paper's
//! Figure 1.
//!
//! # Performance model
//!
//! Pages live in a flat slot vector. The page table, consulted only on
//! the *slow* path, holds one entry per mapped region — a run of pages
//! with one permission in contiguous slots — sorted by address, so
//! mapping a region costs one table entry however many pages it spans,
//! and [`unmap`](Memory::unmap) or [`set_perm`](Memory::set_perm) over
//! part of a region splits it. A page holds storage only from its
//! first write on: until then it reads as one shared zero image, so a
//! large mapping that a program barely touches costs little to map,
//! snapshot or keep (see [`resident_pages`](Memory::resident_pages)).
//! Every access resolves its page **once** (not once per byte) and a
//! pair of two-entry TLBs — one for data, one for instruction fetch,
//! each holding the two most recent translations with MRU replacement
//! (so code that alternates between a caller page and a module page
//! keeps both) — memoize translations so the common case is a couple
//! of compares. Two generation counters make the caching invisible:
//!
//! * the **layout generation** bumps on [`map`](Memory::map) /
//!   [`unmap`](Memory::unmap) / [`set_perm`](Memory::set_perm) /
//!   [`set_enforce`](Memory::set_enforce) and invalidates the TLBs;
//! * the **code generation** additionally bumps on any write that
//!   could change *fetchable* bytes, and is what the CPU's decoded-
//!   instruction cache keys on (see `cpu`).
//!
//! See `DESIGN.md` §"VM performance model" for the invalidation rules.
//!
//! # Examples
//!
//! ```
//! use swsec_vm::mem::{Access, Memory, Perm};
//!
//! let mut mem = Memory::new();
//! mem.map(0x1000, 0x1000, Perm::RW)?;
//! mem.write_u32(0x1ffc, 0xdead_beef, Access::Write)?;
//! assert_eq!(mem.read_u32(0x1ffc, Access::Read)?, 0xdead_beef);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::arch::ArchDiff;

/// Size of one page in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// Number of pages in the 32-bit address space: page numbers (an
/// address divided by [`PAGE_SIZE`]) are below it.
const PAGE_COUNT: u32 = 1 << 20;

/// A permission set for a page: some combination of read, write and
/// execute rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm(u8);

impl Perm {
    /// No access at all.
    pub const NONE: Perm = Perm(0);
    /// Read only.
    pub const R: Perm = Perm(0b100);
    /// Write only (rarely useful on its own).
    pub const W: Perm = Perm(0b010);
    /// Execute only.
    pub const X: Perm = Perm(0b001);
    /// Read + write: ordinary data pages under DEP.
    pub const RW: Perm = Perm(0b110);
    /// Read + execute: code pages under DEP.
    pub const RX: Perm = Perm(0b101);
    /// Read + write + execute: the pre-DEP flat memory model.
    pub const RWX: Perm = Perm(0b111);

    /// Returns `true` if every right in `other` is also in `self`.
    #[inline]
    pub fn allows(self, other: Perm) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two permission sets.
    pub fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }

    /// Whether reads are permitted.
    pub fn can_read(self) -> bool {
        self.allows(Perm::R)
    }

    /// Whether writes are permitted.
    pub fn can_write(self) -> bool {
        self.allows(Perm::W)
    }

    /// Whether instruction fetch is permitted.
    #[inline]
    pub fn can_exec(self) -> bool {
        self.allows(Perm::X)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.can_read() { 'r' } else { '-' },
            if self.can_write() { 'w' } else { '-' },
            if self.can_exec() { 'x' } else { '-' }
        )
    }
}

/// The kind of memory access being attempted, used both for permission
/// checks and fault reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

impl Access {
    /// The permission required to perform this access.
    #[inline]
    pub fn required(self) -> Perm {
        match self {
            Access::Read => Perm::R,
            Access::Write => Perm::W,
            Access::Fetch => Perm::X,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Access::Read => "read",
            Access::Write => "write",
            Access::Fetch => "fetch",
        })
    }
}

/// Why a memory access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are given in each variant's doc
pub enum MemErrorKind {
    /// The page is not mapped at all.
    Unmapped,
    /// The page is mapped but its permissions deny the access.
    Denied { have: Perm },
}

/// A failed memory access: the address, what was attempted, and why it
/// was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemError {
    /// The faulting byte address.
    pub addr: u32,
    /// The attempted access.
    pub access: Access,
    /// The reason for refusal.
    pub kind: MemErrorKind,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemErrorKind::Unmapped => {
                write!(f, "{} of unmapped address {:#010x}", self.access, self.addr)
            }
            MemErrorKind::Denied { have } => write!(
                f,
                "{} denied at {:#010x} (page permissions {})",
                self.access, self.addr, have
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Error returned by [`Memory::map`] when a region overlaps an existing
/// mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapError {
    /// Base address of the page that was already mapped.
    pub page_base: u32,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page at {:#010x} is already mapped", self.page_base)
    }
}

impl std::error::Error for MapError {}

/// The bytes of one page.
type PageImage = [u8; PAGE_SIZE as usize];

/// What every never-written page reads as.
static ZERO_PAGE: PageImage = [0; PAGE_SIZE as usize];

/// Storage for a page at its first write.
#[cold]
#[inline(never)]
fn zeroed_image() -> Box<PageImage> {
    Box::new([0; PAGE_SIZE as usize])
}

struct Page {
    /// The page's own storage, `None` while it was never written since
    /// it was mapped: reads then see [`ZERO_PAGE`], and the first write
    /// (through [`Memory::touch`]) materialises it.
    bytes: Option<Box<PageImage>>,
    /// Whether the page's bytes may differ from the most recent
    /// [`Memory::snapshot`]. Cleared when a snapshot is taken (the page
    /// then provably matches its captured image) and set by every write
    /// path, which also queues the page on [`Memory`]'s dirty list, so
    /// [`Memory::restore_from`] copies back exactly the pages written
    /// since.
    dirty: bool,
    /// Index of this page's image in the most recent snapshot (the
    /// page's rank by address when it was taken).
    snap_index: u32,
    /// Write generation: bumped by every mutation of this page's bytes
    /// (program stores, loader pokes, snapshot restores). Decoded
    /// instructions cache the generation of the page(s) they were read
    /// from and stay valid exactly while it is unchanged, so a store to
    /// one page — a stack push, say — no longer invalidates decodes
    /// from every other page.
    gen: u64,
}

impl Page {
    fn new() -> Page {
        Page {
            bytes: None,
            // A fresh page has no snapshot to match.
            dirty: true,
            snap_index: 0,
            gen: 0,
        }
    }

    /// The page's bytes: its own storage, or the shared zero image.
    #[inline]
    fn bytes(&self) -> &PageImage {
        self.bytes.as_deref().unwrap_or(&ZERO_PAGE)
    }
}

/// One page-table entry: `pages` mapped pages from page number `first`
/// on, all with permission `perm`, stored in the contiguous slots
/// `slot..slot + pages`.
#[derive(Clone, Copy, Debug)]
struct Region {
    first: u32,
    pages: u32,
    slot: u32,
    perm: Perm,
}

impl Region {
    /// The page number one past the region (at most [`PAGE_COUNT`]).
    #[inline]
    fn end(self) -> u32 {
        self.first + self.pages
    }
}

/// The page-number runs `[start, end)` that cover `[base, base + len)`
/// (`len > 0`), in address order from `base`: one run, or two when the
/// range wraps past the top of the address space (the second is then
/// non-empty).
fn page_runs(base: u32, len: u32) -> [Range<u32>; 2] {
    let first = base / PAGE_SIZE;
    let last = base.wrapping_add(len - 1) / PAGE_SIZE;
    if first <= last {
        [first..last + 1, 0..0]
    } else {
        [first..PAGE_COUNT, 0..last + 1]
    }
}

/// One memoized translation: the last page resolved for a given access
/// class. Valid only while `gen` matches the memory's layout
/// generation, so mapping or permission changes invalidate it wholesale.
#[derive(Clone, Copy)]
struct TlbEntry {
    base: u32,
    slot: u32,
    perm: Perm,
    gen: u64,
}

impl TlbEntry {
    /// An entry that can never hit (layout generations start at 1).
    const INVALID: TlbEntry = TlbEntry {
        base: 0,
        slot: 0,
        perm: Perm::NONE,
        gen: 0,
    };
}

/// A two-entry translation cache for one access class, with MRU-victim
/// replacement: a fill evicts the entry *not* most recently used. Two
/// entries capture the dominant cross-page pattern — code alternating
/// between a caller page and a callee/module page — that a single entry
/// thrashes on.
struct TlbPair {
    entries: [Cell<TlbEntry>; 2],
    mru: Cell<u8>,
}

impl TlbPair {
    fn new() -> TlbPair {
        TlbPair {
            entries: [Cell::new(TlbEntry::INVALID), Cell::new(TlbEntry::INVALID)],
            mru: Cell::new(0),
        }
    }

    /// The matching entry for `base` under layout generation `gen`, if
    /// cached; marks it most recently used.
    #[inline]
    fn lookup(&self, base: u32, gen: u64) -> Option<TlbEntry> {
        let m = (self.mru.get() & 1) as usize;
        let e = self.entries[m].get();
        if e.base == base && e.gen == gen {
            return Some(e);
        }
        let e = self.entries[1 - m].get();
        if e.base == base && e.gen == gen {
            self.mru.set((1 - m) as u8);
            return Some(e);
        }
        None
    }

    /// Installs `e`, evicting the least recently used entry.
    #[inline]
    fn fill(&self, e: TlbEntry) {
        let victim = 1 - ((self.mru.get() & 1) as usize);
        self.entries[victim].set(e);
        self.mru.set(victim as u8);
    }

    /// Drops both entries.
    fn clear(&self) {
        self.entries[0].set(TlbEntry::INVALID);
        self.entries[1].set(TlbEntry::INVALID);
        self.mru.set(0);
    }
}

/// A memoized data translation private to one tier-2 dispatch chain:
/// the page the block loop's stack and data traffic lands on, resolved
/// once and then read/written directly. Valid for at most one chain —
/// block execution cannot remap, reprotect or restore memory (no
/// syscalls compile into blocks), so a line filled during a chain
/// cannot go stale within it. A write through the line still bumps the
/// page's dirty flag and write generation exactly like
/// [`Memory::write_u32`], so SMC detection and snapshot dirty tracking
/// see block stores and stepped stores identically. Accesses served by
/// a line bypass the TLB probe and its hit/miss counters; cache
/// counters are observability-only by contract, so this is invisible
/// to rendered reports.
#[derive(Clone, Copy)]
pub(crate) struct DataLine {
    base: u32,
    slot: u32,
    read_ok: bool,
    write_ok: bool,
}

impl DataLine {
    /// A line that can never serve an access (both permission bits
    /// clear), used as the pre-fill state.
    pub(crate) const INVALID: DataLine = DataLine {
        base: 0,
        slot: 0,
        read_ok: false,
        write_ok: false,
    };

    /// Whether a 4-byte access at `addr` lands wholly inside this
    /// line's page with sufficient permission.
    #[inline]
    pub(crate) fn serves_word(self, addr: u32, write: bool) -> bool {
        addr.wrapping_sub(self.base) <= PAGE_SIZE - 4
            && if write { self.write_ok } else { self.read_ok }
    }

    /// Whether a byte access at `addr` lands inside this line's page
    /// with sufficient permission.
    #[inline]
    pub(crate) fn serves_byte(self, addr: u32, write: bool) -> bool {
        addr.wrapping_sub(self.base) < PAGE_SIZE && if write { self.write_ok } else { self.read_ok }
    }
}

/// Translation-cache hit/miss counters, exposed for observability (the
/// campaign summary) — they never influence program-visible behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses served by a TLB entry.
    pub hits: u64,
    /// Accesses that fell back to the page-table lookup.
    pub misses: u64,
}

/// An immutable capture of a [`Memory`]'s mapped pages and enforcement
/// flag, taken by [`Memory::snapshot`]. Page images are refcounted
/// (`Arc`), so cloning a snapshot — or holding one while the live
/// memory diverges — shares them copy-on-restore: only pages dirtied
/// since the snapshot are re-materialized by
/// [`Memory::restore_from`]. A page never written before the snapshot
/// has no image of its own: it shares the zero image.
#[derive(Clone)]
pub struct MemorySnapshot {
    /// `(page base, image, perm)`, sorted by base; `None` is the zero
    /// image.
    pages: Vec<(u32, Option<Arc<PageImage>>, Perm)>,
    enforce: bool,
}

impl fmt::Debug for MemorySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySnapshot")
            .field("pages", &self.pages.len())
            .field("enforce", &self.enforce)
            .finish()
    }
}

impl MemorySnapshot {
    /// Number of pages captured.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// What one [`Memory::restore_from`] call had to copy — the measurable
/// face of the O(dirty-pages) restore guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Pages whose bytes were copied back from the snapshot.
    pub dirty_pages: u64,
    /// Bytes copied (`dirty_pages * PAGE_SIZE` — every copy is a whole
    /// page).
    pub bytes_copied: u64,
}

/// Sparse paged memory for one machine.
///
/// Pages are created by [`Memory::map`] and checked on every access when
/// `enforce` is on (the default). Turning enforcement off with
/// [`Memory::set_enforce`] models the flat pre-DEP memory in which any
/// mapped byte is readable, writable and executable.
pub struct Memory {
    /// The page table: the mapped regions, sorted by `first` and
    /// disjoint. Touched only on TLB misses.
    table: Vec<Region>,
    /// Page storage; a region's pages sit in consecutive slots.
    slots: Vec<Page>,
    /// Runs of slots released by [`unmap`](Memory::unmap), sorted and
    /// coalesced, reused first-fit by later mappings.
    free: Vec<Range<u32>>,
    enforce: bool,
    /// When off, every access takes the page-table path (the
    /// benchmark baseline); behaviour is identical either way.
    fast_path: bool,
    /// Bumped whenever a translation or permission could change.
    layout_gen: u64,
    /// Bumped whenever *fetchable* bytes could change; the CPU's
    /// decoded-instruction cache keys on this.
    code_gen: u64,
    /// Whether the page *layout* (the table, permissions, or the
    /// enforcement flag) may have changed since the last
    /// [`snapshot`](Memory::snapshot). While set, per-page dirty bits
    /// cannot prove layout equality, so `restore_from` falls back to a
    /// wholesale rebuild. A fresh memory has no snapshot: starts true.
    layout_dirty: bool,
    /// Slots of the pages dirtied since the last snapshot or restore,
    /// each once: what a clean-layout restore copies back.
    dirty: Vec<u32>,
    tlb_data: TlbPair,
    tlb_fetch: TlbPair,
    tlb_hits: Cell<u64>,
    tlb_misses: Cell<u64>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.page_count())
            .field("enforce", &self.enforce)
            .field("code_gen", &self.code_gen)
            .finish()
    }
}

impl Memory {
    /// Creates an empty address space with permission enforcement on.
    pub fn new() -> Memory {
        Memory {
            table: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            enforce: true,
            fast_path: true,
            layout_gen: 1,
            code_gen: 1,
            layout_dirty: true,
            dirty: Vec::new(),
            tlb_data: TlbPair::new(),
            tlb_fetch: TlbPair::new(),
            tlb_hits: Cell::new(0),
            tlb_misses: Cell::new(0),
        }
    }

    /// Enables or disables page-permission enforcement.
    ///
    /// With enforcement off, any *mapped* byte may be read, written and
    /// executed regardless of its page permissions — the memory model
    /// against which classic direct code injection succeeds. Unmapped
    /// addresses still fault.
    pub fn set_enforce(&mut self, enforce: bool) {
        self.enforce = enforce;
        self.invalidate_layout();
    }

    /// Whether page permissions are currently enforced.
    pub fn enforce(&self) -> bool {
        self.enforce
    }

    /// Enables or disables the translation fast path (the two-entry
    /// TLBs). Defaults to on; switching it off forces every access
    /// through the page-table lookup, which the benchmark suite uses as
    /// its baseline. Program-visible behaviour is identical either way.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        self.tlb_data.clear();
        self.tlb_fetch.clear();
    }

    /// Whether the translation fast path is on.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The current *global* code generation: bumped by wholesale
    /// invalidations — mapping, unmapping or permission changes,
    /// enforcement toggles, and layout-diverged restores. Byte-level
    /// mutations are tracked per page instead (see
    /// [`fetch_gen`](Memory::fetch_gen)); a decoded-instruction cache
    /// line is valid only while **both** this value and the write
    /// generation of the page(s) it was read from are unchanged.
    #[inline]
    pub fn code_generation(&self) -> u64 {
        self.code_gen
    }

    /// Checks fetch permission at `addr` and returns the containing
    /// page's write generation — the per-page half of decoded-
    /// instruction-cache validation (see
    /// [`code_generation`](Memory::code_generation)).
    ///
    /// # Errors
    ///
    /// Faults when `addr` is unmapped or not fetchable.
    #[inline]
    pub fn fetch_gen(&self, addr: u32) -> Result<u64, MemError> {
        self.fetch_page(addr).map(|(_, gen)| gen)
    }

    /// Resolves `addr` for fetch and returns `(slot, write generation)`
    /// — what a decoded-instruction-cache fill records so later hits
    /// can validate with [`slot_gen`](Memory::slot_gen) alone.
    #[inline]
    pub(crate) fn fetch_page(&self, addr: u32) -> Result<(u32, u64), MemError> {
        let slot = self.resolve(addr, Access::Fetch)?;
        Ok((slot as u32, self.slots[slot].gen))
    }

    /// The write generation of the page in `slot`. Only meaningful
    /// while the global code generation is unchanged since `slot` was
    /// obtained — layout changes may retire or reuse slots (callers
    /// compare [`code_generation`](Memory::code_generation) first).
    #[inline]
    pub(crate) fn slot_gen(&self, slot: u32) -> u64 {
        self.slots.get(slot as usize).map_or(u64::MAX, |p| p.gen)
    }

    /// Whether every `(slot, write generation)` pair still stands —
    /// the per-page half of tier-2 block validation (see
    /// [`tier`](crate::tier)). Like [`slot_gen`](Memory::slot_gen),
    /// only meaningful while the global code generation is unchanged
    /// since the pairs were recorded.
    #[inline]
    pub(crate) fn page_gens_valid(&self, pages: &[(u32, u64)]) -> bool {
        pages.iter().all(|&(slot, gen)| self.slot_gen(slot) == gen)
    }

    /// Fills a [`DataLine`] for the page containing `addr`, if mapped.
    /// Permission bits are evaluated once at fill time (enforcement
    /// cannot change while a tier-2 chain runs — no micro-op remaps,
    /// reprotects or restores memory).
    #[inline]
    pub(crate) fn data_line(&self, addr: u32) -> Option<DataLine> {
        self.lookup(addr).map(|(slot, perm)| DataLine {
            base: Self::page_base(addr),
            slot,
            read_ok: !self.enforce || perm.allows(Perm::R),
            write_ok: !self.enforce || perm.allows(Perm::W),
        })
    }

    /// Reads a word through a [`DataLine`]. The caller proved
    /// `line.serves_word(addr, false)` first.
    #[inline]
    pub(crate) fn line_read_u32(&self, line: DataLine, addr: u32) -> u32 {
        let off = (addr % PAGE_SIZE) as usize;
        let b = &self.slots[line.slot as usize].bytes()[off..off + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Writes a word through a [`DataLine`] (see
    /// [`line_read_u32`](Memory::line_read_u32)): same dirty-tracking
    /// and write-generation effects as [`write_u32`](Memory::write_u32).
    #[inline]
    pub(crate) fn line_write_u32(&mut self, line: DataLine, addr: u32, value: u32) {
        let off = (addr % PAGE_SIZE) as usize;
        self.touch(line.slot as usize)[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a byte through a [`DataLine`]; caller proved
    /// `line.serves_byte(addr, false)`.
    #[inline]
    pub(crate) fn line_read_u8(&self, line: DataLine, addr: u32) -> u8 {
        let off = (addr % PAGE_SIZE) as usize;
        self.slots[line.slot as usize].bytes()[off]
    }

    /// Writes a byte through a [`DataLine`]; caller proved
    /// `line.serves_byte(addr, true)`.
    #[inline]
    pub(crate) fn line_write_u8(&mut self, line: DataLine, addr: u32, value: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.touch(line.slot as usize)[off] = value;
    }

    /// Translation-cache counters accumulated so far.
    pub fn tlb_stats(&self) -> TlbStats {
        TlbStats {
            hits: self.tlb_hits.get(),
            misses: self.tlb_misses.get(),
        }
    }

    #[inline]
    fn page_base(addr: u32) -> u32 {
        addr & !(PAGE_SIZE - 1)
    }

    /// The page-table lookup: the slot and permission of the page
    /// containing `addr`, if mapped. A scan over the regions, which
    /// are few (four for a loaded program): at that size it beats a
    /// binary search, which made the baseline engine a quarter slower.
    #[inline]
    fn lookup(&self, addr: u32) -> Option<(u32, Perm)> {
        let vpn = addr / PAGE_SIZE;
        let r = self
            .table
            .iter()
            .find(|r| vpn.wrapping_sub(r.first) < r.pages)?;
        Some((r.slot + (vpn - r.first), r.perm))
    }

    /// Number of mapped pages.
    fn page_count(&self) -> usize {
        self.table.iter().map(|r| r.pages as usize).sum()
    }

    /// The first mapped page number in `run`, if any.
    fn first_mapped(&self, run: &Range<u32>) -> Option<u32> {
        let i = self.table.partition_point(|r| r.end() <= run.start);
        let r = self.table.get(i)?;
        (r.first < run.end).then(|| r.first.max(run.start))
    }

    /// Takes `n` consecutive slots that look freshly mapped — never
    /// written, no storage — first-fit from the free runs, else from
    /// the end of the slot vector; returns the first.
    fn alloc_slots(&mut self, n: u32) -> u32 {
        let Some(i) = self.free.iter().position(|f| f.len() >= n as usize) else {
            let first = self.slots.len();
            self.slots.resize_with(first + n as usize, Page::new);
            return first as u32;
        };
        let first = self.free[i].start;
        self.free[i].start += n;
        if self.free[i].is_empty() {
            self.free.remove(i);
        }
        for p in &mut self.slots[first as usize..(first + n) as usize] {
            // The write generation moves on so no decode of the old
            // page can match.
            *p = Page {
                gen: p.gen.wrapping_add(1),
                ..Page::new()
            };
        }
        first
    }

    /// Splits the region holding page `vpn` so that a region starts at
    /// `vpn`; a no-op if `vpn` is unmapped or already starts one.
    fn split_at(&mut self, vpn: u32) {
        let i = self.table.partition_point(|r| r.first < vpn);
        let Some(r) = i.checked_sub(1).map(|j| &mut self.table[j]) else {
            return;
        };
        if vpn < r.end() {
            let head = vpn - r.first;
            let tail = Region {
                first: vpn,
                pages: r.pages - head,
                slot: r.slot + head,
                perm: r.perm,
            };
            r.pages = head;
            self.table.insert(i, tail);
        }
    }

    /// Splits the regions at both ends of `run` and returns the table
    /// indices of the regions that now lie inside it.
    fn carve(&mut self, run: Range<u32>) -> Range<usize> {
        self.split_at(run.start);
        self.split_at(run.end);
        let lo = self.table.partition_point(|r| r.first < run.start);
        let hi = self.table.partition_point(|r| r.first < run.end);
        lo..hi
    }

    /// Marks a page's bytes as mutated and returns them: decode-stale
    /// (its write generation is bumped) and snapshot-dirty, queued on
    /// the dirty list the first time since the last snapshot or restore.
    /// Every write path goes through here, so this is also where a
    /// never-written page gets its own (zeroed) storage.
    #[inline]
    fn touch(&mut self, slot: usize) -> &mut PageImage {
        let page = &mut self.slots[slot];
        if !page.dirty {
            page.dirty = true;
            self.dirty.push(slot as u32);
        }
        page.gen = page.gen.wrapping_add(1);
        page.bytes.get_or_insert_with(zeroed_image)
    }

    fn invalidate_layout(&mut self) {
        self.layout_gen += 1;
        self.code_gen += 1;
        self.layout_dirty = true;
        self.tlb_data.clear();
        self.tlb_fetch.clear();
    }

    /// Resolves the page containing `addr` for `access`: **one** lookup
    /// per access, TLB-memoized. Returns the slot index.
    #[inline]
    fn resolve(&self, addr: u32, access: Access) -> Result<usize, MemError> {
        let base = Self::page_base(addr);
        let tlb = match access {
            Access::Fetch => &self.tlb_fetch,
            _ => &self.tlb_data,
        };
        if self.fast_path {
            if let Some(e) = tlb.lookup(base, self.layout_gen) {
                self.tlb_hits.set(self.tlb_hits.get() + 1);
                return if !self.enforce || e.perm.allows(access.required()) {
                    Ok(e.slot as usize)
                } else {
                    Err(MemError {
                        addr,
                        access,
                        kind: MemErrorKind::Denied { have: e.perm },
                    })
                };
            }
            self.tlb_misses.set(self.tlb_misses.get() + 1);
        }
        match self.lookup(addr) {
            None => Err(MemError {
                addr,
                access,
                kind: MemErrorKind::Unmapped,
            }),
            Some((slot, perm)) => {
                if self.fast_path {
                    tlb.fill(TlbEntry {
                        base,
                        slot,
                        perm,
                        gen: self.layout_gen,
                    });
                }
                if !self.enforce || perm.allows(access.required()) {
                    Ok(slot as usize)
                } else {
                    Err(MemError {
                        addr,
                        access,
                        kind: MemErrorKind::Denied { have: perm },
                    })
                }
            }
        }
    }

    /// Resolves ignoring permissions (but not mappedness) — the
    /// platform-level path used by peek/poke.
    fn resolve_raw(&self, addr: u32, access: Access) -> Result<usize, MemError> {
        match self.lookup(addr) {
            None => Err(MemError {
                addr,
                access,
                kind: MemErrorKind::Unmapped,
            }),
            Some((slot, _)) => Ok(slot as usize),
        }
    }

    /// Checks that `access` at `addr` would be permitted, without
    /// transferring any data. Used by the CPU to re-validate fetch
    /// permission on decoded-instruction-cache hits.
    #[inline]
    pub fn check_access(&self, addr: u32, access: Access) -> Result<(), MemError> {
        self.resolve(addr, access).map(|_| ())
    }

    /// Maps all pages overlapping `[base, base + len)` with permission
    /// `perm`, zero-filled.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if any page in the range is already mapped;
    /// in that case no page is mapped.
    pub fn map(&mut self, base: u32, len: u32, perm: Perm) -> Result<(), MapError> {
        if len == 0 {
            return Ok(());
        }
        let runs = page_runs(base, len);
        for run in &runs {
            if let Some(vpn) = self.first_mapped(run) {
                return Err(MapError {
                    page_base: vpn * PAGE_SIZE,
                });
            }
        }
        for run in runs.into_iter().filter(|run| !run.is_empty()) {
            let pages = run.end - run.start;
            let slot = self.alloc_slots(pages);
            let i = self.table.partition_point(|r| r.first < run.start);
            self.table.insert(
                i,
                Region {
                    first: run.start,
                    pages,
                    slot,
                    perm,
                },
            );
        }
        self.invalidate_layout();
        Ok(())
    }

    /// Unmaps every mapped page overlapping `[base, base + len)`;
    /// unmapped pages in the range are ignored. Subsequent accesses to
    /// the range fault as [`MemErrorKind::Unmapped`], and any cached
    /// translation or decoded instruction covering it is invalidated.
    pub fn unmap(&mut self, base: u32, len: u32) {
        if len == 0 {
            return;
        }
        for run in page_runs(base, len) {
            let inside = self.carve(run);
            for r in self.table.drain(inside) {
                self.free.push(r.slot..r.slot + r.pages);
            }
        }
        self.free.sort_unstable_by_key(|f| f.start);
        self.free.dedup_by(|next, prev| {
            let adjacent = prev.end == next.start;
            if adjacent {
                prev.end = next.end;
            }
            adjacent
        });
        self.invalidate_layout();
    }

    /// Changes the permission of every already-mapped page overlapping
    /// `[base, base + len)`. Unmapped pages in the range are ignored.
    pub fn set_perm(&mut self, base: u32, len: u32, perm: Perm) {
        if len == 0 {
            return;
        }
        for run in page_runs(base, len) {
            let inside = self.carve(run);
            for r in &mut self.table[inside] {
                r.perm = perm;
            }
        }
        self.invalidate_layout();
    }

    /// Mapped pages that hold storage of their own: those written since
    /// they were mapped (or restored from a snapshot that captured them
    /// written). Every other mapped page reads from one shared zero
    /// image.
    pub fn resident_pages(&self) -> usize {
        self.table
            .iter()
            .flat_map(|r| &self.slots[r.slot as usize..(r.slot + r.pages) as usize])
            .filter(|page| page.bytes.is_some())
            .count()
    }

    /// The first difference between `self` (left) and `other` (right)
    /// in the [`ArchState`](crate::arch::ArchState) sense: the
    /// enforcement flag, then, in address order, the first page mapped
    /// on one side only or with different permissions, or holding
    /// different bytes. Walks both page tables together, a run of pages
    /// at a time; a page neither side ever wrote reads as zeros on both
    /// and is not compared.
    pub(crate) fn diff(&self, other: &Memory) -> Option<ArchDiff> {
        if self.enforce != other.enforce {
            return Some(ArchDiff::Enforce(self.enforce, other.enforce));
        }
        // The region and page offset each walk is at.
        let (mut a, mut b) = ((0, 0), (0, 0));
        loop {
            let here = |t: &[Region], (i, off): (usize, u32)| t.get(i).map(|&r| (r, r.first + off));
            let (ra, rb, vpn) = match (here(&self.table, a), here(&other.table, b)) {
                (None, None) => return None,
                (Some((ra, va)), Some((rb, vb))) if va == vb && ra.perm == rb.perm => (ra, rb, va),
                (x, y) => {
                    // The lower of two differing pages, or a page on
                    // one side only.
                    let page = x.iter().chain(&y).map(|&(_, vpn)| vpn).min()?;
                    let perm = |p: Option<(Region, u32)>| {
                        p.filter(|&(_, vpn)| vpn == page).map(|(r, _)| r.perm)
                    };
                    return Some(ArchDiff::Layout(page * PAGE_SIZE, perm(x), perm(y)));
                }
            };
            let n = (ra.end() - vpn).min(rb.end() - vpn);
            let pages_a = &self.slots[(ra.slot + a.1) as usize..][..n as usize];
            let pages_b = &other.slots[(rb.slot + b.1) as usize..][..n as usize];
            for (vpn, (p, q)) in (vpn..).zip(pages_a.iter().zip(pages_b)) {
                let (x, y) = (p.bytes(), q.bytes());
                if (p.bytes.is_some() || q.bytes.is_some()) && x != y {
                    let offset = x.iter().zip(y).position(|(l, r)| l != r)?;
                    return Some(ArchDiff::Memory(
                        vpn * PAGE_SIZE,
                        offset as u32,
                        x[offset],
                        y[offset],
                    ));
                }
            }
            for (walk, r) in [(&mut a, ra), (&mut b, rb)] {
                walk.1 += n;
                if walk.1 == r.pages {
                    *walk = (walk.0 + 1, 0);
                }
            }
        }
    }

    /// Whether `addr` lies in a mapped page.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.lookup(addr).is_some()
    }

    /// The permission of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: u32) -> Option<Perm> {
        self.lookup(addr).map(|(_, perm)| perm)
    }

    /// Iterates over the mapped regions as `(range, perm)` pairs, merging
    /// adjacent pages with identical permissions. Used by memory-scraping
    /// attacks and by diagnostics.
    pub fn regions(&self) -> Vec<(Range<u32>, Perm)> {
        let mut out: Vec<(Range<u32>, Perm)> = Vec::new();
        for r in &self.table {
            let base = r.first * PAGE_SIZE;
            // The region ending at the top of the address space ends at 0.
            let end = r.end().wrapping_mul(PAGE_SIZE);
            match out.last_mut() {
                Some((range, p)) if range.end == base && *p == r.perm => range.end = end,
                _ => out.push((base..end, r.perm)),
            }
        }
        out
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or the access is denied.
    #[inline]
    pub fn read_u8(&self, addr: u32, access: Access) -> Result<u8, MemError> {
        let slot = self.resolve(addr, access)?;
        Ok(self.slots[slot].bytes()[(addr % PAGE_SIZE) as usize])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or the access is denied.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8, access: Access) -> Result<(), MemError> {
        let slot = self.resolve(addr, access)?;
        self.touch(slot)[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    /// Reads a little-endian 32-bit word (no alignment requirement, as on
    /// x86).
    ///
    /// # Errors
    ///
    /// Faults on the first inaccessible byte.
    #[inline]
    pub fn read_u32(&self, addr: u32, access: Access) -> Result<u32, MemError> {
        let off = (addr % PAGE_SIZE) as usize;
        if self.fast_path && off + 4 <= PAGE_SIZE as usize {
            // Within one page: a single lookup and a word-wide copy.
            let slot = self.resolve(addr, access)?;
            let b = &self.slots[slot].bytes()[off..off + 4];
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        } else {
            // Straddling a page — or the flag-disabled baseline, which
            // keeps the original one-lookup-per-byte behaviour.
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32), access)?;
            }
            Ok(u32::from_le_bytes(bytes))
        }
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Faults on the first inaccessible byte; earlier bytes may already
    /// have been written (as on real hardware with a straddling store).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32, access: Access) -> Result<(), MemError> {
        let off = (addr % PAGE_SIZE) as usize;
        if self.fast_path && off + 4 <= PAGE_SIZE as usize {
            let slot = self.resolve(addr, access)?;
            self.touch(slot)[off..off + 4].copy_from_slice(&value.to_le_bytes());
            Ok(())
        } else {
            // Page-straddling store: byte-by-byte so a mid-word fault
            // leaves the earlier bytes written, exactly as before. The
            // flag-disabled baseline takes this path unconditionally.
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b, access)?;
            }
            Ok(())
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on the first inaccessible byte.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8], access: Access) -> Result<(), MemError> {
        if !self.fast_path {
            // Flag-disabled baseline: one lookup per byte, as the
            // original implementation did. Fault addresses coincide
            // (each chunk below starts at the first byte of its page).
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32), access)?;
            }
            return Ok(());
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.wrapping_add(pos as u32);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - off).min(buf.len() - pos);
            let slot = self.resolve(a, access)?;
            buf[pos..pos + chunk].copy_from_slice(&self.slots[slot].bytes()[off..off + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Writes all of `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on the first inaccessible byte; earlier bytes stay written.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8], access: Access) -> Result<(), MemError> {
        let mut pos = 0usize;
        if !self.fast_path {
            // Baseline: per-byte, matching the original implementation.
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b, access)?;
            }
            return Ok(());
        }
        while pos < bytes.len() {
            let a = addr.wrapping_add(pos as u32);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - off).min(bytes.len() - pos);
            let slot = self.resolve(a, access)?;
            self.touch(slot)[off..off + chunk].copy_from_slice(&bytes[pos..pos + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Copies `bytes` into memory ignoring permissions (but not
    /// mappedness). This models a *loader* or *platform* action, not a
    /// program action: the OS writing a code segment, or a machine-code
    /// attacker with kernel privileges.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn poke_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            let a = addr.wrapping_add(pos as u32);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - off).min(bytes.len() - pos);
            let slot = self.resolve_raw(a, Access::Write)?;
            // Pokes bypass permissions, so they can always plant code;
            // touching the page stales any decode read from it.
            self.touch(slot)[off..off + chunk].copy_from_slice(&bytes[pos..pos + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Reads bytes ignoring permissions (but not mappedness); the
    /// complement of [`Memory::poke_bytes`], used by platform-level
    /// inspection such as attestation measurement and kernel-level
    /// memory-scraping malware. Allocates; [`Memory::peek_into`] reads
    /// into a caller's buffer instead.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn peek_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemError> {
        let mut out = vec![0u8; len as usize];
        self.peek_into(addr, &mut out)?;
        Ok(out)
    }

    /// Fills `buf` with the bytes starting at `addr`, ignoring
    /// permissions (but not mappedness): [`Memory::peek_bytes`] without
    /// the allocation. One page lookup per page touched.
    ///
    /// # Errors
    ///
    /// Faults on the first byte of the first unmapped page, with the
    /// error `peek_bytes` returns; the bytes of the pages before it are
    /// already copied into `buf`.
    pub fn peek_into(&self, addr: u32, buf: &mut [u8]) -> Result<(), MemError> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.wrapping_add(pos as u32);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - off).min(buf.len() - pos);
            let slot = self.resolve_raw(a, Access::Read)?;
            buf[pos..pos + chunk].copy_from_slice(&self.slots[slot].bytes()[off..off + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Reads a 32-bit word ignoring permissions.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn peek_u32(&self, addr: u32) -> Result<u32, MemError> {
        let mut bytes = [0u8; 4];
        self.peek_into(addr, &mut bytes)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Captures every mapped page (bytes + permission) and the
    /// enforcement flag into an immutable [`MemorySnapshot`], and arms
    /// dirty tracking: every page's dirty bit is cleared, so a later
    /// [`restore_from`](Memory::restore_from) of this snapshot copies
    /// back exactly the pages written in between. Only pages with
    /// storage of their own are copied; a never-written page shares the
    /// zero image.
    ///
    /// Takes `&mut self` because arming the tracking mutates the dirty
    /// bits; the visible memory state is unchanged.
    pub fn snapshot(&mut self) -> MemorySnapshot {
        let mut pages = Vec::with_capacity(self.page_count());
        for r in &self.table {
            for i in 0..r.pages {
                let page = &mut self.slots[(r.slot + i) as usize];
                page.dirty = false;
                page.snap_index = pages.len() as u32;
                let image = page.bytes.as_deref().map(|b| Arc::new(*b));
                pages.push(((r.first + i) * PAGE_SIZE, image, r.perm));
            }
        }
        self.dirty.clear();
        self.layout_dirty = false;
        MemorySnapshot {
            pages,
            enforce: self.enforce,
        }
    }

    /// Restores the memory to the state captured by `snap`, copying
    /// back **only the pages dirtied since that snapshot was taken** —
    /// O(dirty pages), not O(mapped pages). Returns what was copied.
    ///
    /// The fast path requires that the page *layout* is unchanged since
    /// the snapshot (no `map`/`unmap`/`set_perm`/`set_enforce`); when
    /// it did change, the restore falls back to a wholesale rebuild
    /// from the snapshot's images (every page counts as copied).
    ///
    /// A page that was zero at snapshot time is refilled with zeros in
    /// place and keeps its storage; it counts as copied like any other
    /// dirty page, so [`RestoreStats`] do not depend on which pages
    /// hold storage.
    ///
    /// Copied-back pages get their write generation bumped (their
    /// bytes changed, so decodes read from them must re-validate);
    /// untouched pages keep their generation, their cached decodes and
    /// their TLB translations. Architectural state after a restore is
    /// bit-identical to a fresh build; the cache *counters* are not —
    /// a restored memory runs warm, which is the point. (The counters
    /// are observability-only and excluded from rendered reports, so
    /// determinism of experiment output is unaffected.)
    ///
    /// Restoring a snapshot from a *different* memory (one this memory
    /// never produced with a matching layout) is not meaningful on the
    /// fast path; debug builds assert the layouts agree.
    pub fn restore_from(&mut self, snap: &MemorySnapshot) -> RestoreStats {
        let mut stats = RestoreStats::default();
        if self.layout_dirty {
            // Layout diverged (or this memory never snapshotted):
            // rebuild wholesale from the captured images.
            self.table.clear();
            self.slots.clear();
            self.free.clear();
            self.dirty.clear();
            for &(base, ref image, perm) in &snap.pages {
                let vpn = base / PAGE_SIZE;
                let slot = self.slots.len() as u32;
                match self.table.last_mut() {
                    Some(r) if r.end() == vpn && r.perm == perm => r.pages += 1,
                    _ => self.table.push(Region {
                        first: vpn,
                        pages: 1,
                        slot,
                        perm,
                    }),
                }
                self.slots.push(Page {
                    bytes: image.as_deref().map(|image| Box::new(*image)),
                    dirty: false,
                    snap_index: slot,
                    ..Page::new()
                });
                stats.dirty_pages += 1;
                stats.bytes_copied += u64::from(PAGE_SIZE);
            }
            self.enforce = snap.enforce;
            self.invalidate_layout();
            self.layout_dirty = false;
        } else {
            debug_assert_eq!(
                self.page_count(),
                snap.pages.len(),
                "clean-layout restore requires the snapshot's page set"
            );
            debug_assert_eq!(self.enforce, snap.enforce);
            let mut dirty = std::mem::take(&mut self.dirty);
            for slot in dirty.drain(..) {
                let (base, image, sperm) =
                    &snap.pages[self.slots[slot as usize].snap_index as usize];
                debug_assert_eq!(
                    self.lookup(*base),
                    Some((slot, *sperm)),
                    "page layout diverged without layout_dirty"
                );
                let page = &mut self.slots[slot as usize];
                match image {
                    Some(image) => **page.bytes.get_or_insert_with(zeroed_image) = **image,
                    // Zero at snapshot time: refill in place, keeping the
                    // storage for the next attempt's writes.
                    None => {
                        if let Some(bytes) = page.bytes.as_deref_mut() {
                            bytes.fill(0);
                        }
                    }
                }
                // The copy-back is a byte mutation like any other: bump
                // the page's write generation so decodes read from the
                // pre-restore bytes go stale. Untouched pages keep their
                // generation — and their cached decodes — which is what
                // makes serving attempts from a snapshot cheaper than a
                // fresh build, not just cheaper than a recompile.
                page.gen = page.gen.wrapping_add(1);
                page.dirty = false;
                stats.dirty_pages += 1;
                stats.bytes_copied += u64::from(PAGE_SIZE);
            }
            // The page layout is unchanged, so TLB translations remain
            // valid and are deliberately kept warm across the restore.
        }
        stats
    }

    /// Zeroes the TLB hit/miss counters (the per-machine [`TlbStats`]).
    /// Used by the machine-level restore
    /// so a restored run's stats start from zero like a fresh build's.
    pub(crate) fn reset_tlb_counts(&self) {
        self.tlb_hits.set(0);
        self.tlb_misses.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_rw_roundtrip() {
        let mut mem = Memory::new();
        mem.map(0x1000, 0x2000, Perm::RW).unwrap();
        mem.write_u32(0x1ffe, 0x1122_3344, Access::Write).unwrap();
        assert_eq!(mem.read_u32(0x1ffe, Access::Read).unwrap(), 0x1122_3344);
    }

    #[test]
    fn words_are_little_endian() {
        let mut mem = Memory::new();
        mem.map(0, PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u32(0, 0x0804_840a, Access::Write).unwrap();
        assert_eq!(mem.read_u8(0, Access::Read).unwrap(), 0x0a);
        assert_eq!(mem.read_u8(1, Access::Read).unwrap(), 0x84);
        assert_eq!(mem.read_u8(2, Access::Read).unwrap(), 0x04);
        assert_eq!(mem.read_u8(3, Access::Read).unwrap(), 0x08);
    }

    #[test]
    fn unmapped_access_faults() {
        let mem = Memory::new();
        let err = mem.read_u8(0x5000, Access::Read).unwrap_err();
        assert_eq!(err.kind, MemErrorKind::Unmapped);
        assert_eq!(err.addr, 0x5000);
    }

    #[test]
    fn permissions_are_enforced() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RX).unwrap();
        assert!(mem.read_u8(0x1000, Access::Read).is_ok());
        assert!(mem.read_u8(0x1000, Access::Fetch).is_ok());
        let err = mem.write_u8(0x1000, 1, Access::Write).unwrap_err();
        assert_eq!(err.kind, MemErrorKind::Denied { have: Perm::RX });
    }

    #[test]
    fn permissions_enforced_on_repeated_tlb_hits() {
        // The permission check must run on the memoized path too.
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::R).unwrap();
        for _ in 0..3 {
            assert!(mem.read_u8(0x1000, Access::Read).is_ok());
            let err = mem.write_u8(0x1000, 1, Access::Write).unwrap_err();
            assert_eq!(err.kind, MemErrorKind::Denied { have: Perm::R });
        }
        assert!(mem.tlb_stats().hits > 0);
    }

    #[test]
    fn disabling_enforcement_models_pre_dep_memory() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        assert!(mem.read_u8(0x1000, Access::Fetch).is_err());
        mem.set_enforce(false);
        assert!(mem.read_u8(0x1000, Access::Fetch).is_ok());
        // Unmapped pages still fault.
        assert!(mem.read_u8(0x9000, Access::Read).is_err());
    }

    #[test]
    fn double_map_rejected_atomically() {
        let mut mem = Memory::new();
        mem.map(0x2000, PAGE_SIZE, Perm::RW).unwrap();
        let err = mem.map(0x1000, 3 * PAGE_SIZE, Perm::RW).unwrap_err();
        assert_eq!(err.page_base, 0x2000);
        // The non-conflicting page must not have been mapped.
        assert!(!mem.is_mapped(0x1000));
        assert!(!mem.is_mapped(0x3000));
    }

    #[test]
    fn map_rounds_to_page_boundaries() {
        let mut mem = Memory::new();
        mem.map(0x1ffe, 4, Perm::RW).unwrap();
        // Both straddled pages mapped.
        assert!(mem.is_mapped(0x1000));
        assert!(mem.is_mapped(0x2000));
        assert!(!mem.is_mapped(0x3000));
    }

    #[test]
    fn straddling_word_access_crosses_pages() {
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u32(0x1fff, 0xaabb_ccdd, Access::Write).unwrap();
        assert_eq!(mem.read_u32(0x1fff, Access::Read).unwrap(), 0xaabb_ccdd);
    }

    #[test]
    fn straddling_store_faulting_mid_word_keeps_earlier_bytes() {
        // Page 1 writable, page 2 read-only: bytes in page 1 land,
        // the fault names the first byte of page 2.
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        mem.map(0x2000, PAGE_SIZE, Perm::R).unwrap();
        let err = mem
            .write_u32(0x1ffe, 0xddcc_bbaa, Access::Write)
            .unwrap_err();
        assert_eq!(err.addr, 0x2000);
        assert_eq!(err.kind, MemErrorKind::Denied { have: Perm::R });
        assert_eq!(mem.read_u8(0x1ffe, Access::Read).unwrap(), 0xaa);
        assert_eq!(mem.read_u8(0x1fff, Access::Read).unwrap(), 0xbb);
        assert_eq!(mem.read_u8(0x2000, Access::Read).unwrap(), 0);
    }

    #[test]
    fn write_bytes_faults_at_first_inaccessible_byte() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        let data = vec![7u8; 2 * PAGE_SIZE as usize];
        let err = mem.write_bytes(0x1800, &data, Access::Write).unwrap_err();
        assert_eq!(err.addr, 0x2000);
        assert_eq!(err.kind, MemErrorKind::Unmapped);
        // The in-page prefix stays written.
        assert_eq!(mem.read_u8(0x1fff, Access::Read).unwrap(), 7);
    }

    #[test]
    fn regions_merge_contiguous_same_perm_pages() {
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RX).unwrap();
        mem.map(0x3000, PAGE_SIZE, Perm::RW).unwrap();
        mem.map(0x8000, PAGE_SIZE, Perm::RW).unwrap();
        let regions = mem.regions();
        assert_eq!(
            regions,
            vec![
                (0x1000..0x3000, Perm::RX),
                (0x3000..0x4000, Perm::RW),
                (0x8000..0x9000, Perm::RW),
            ]
        );
    }

    #[test]
    fn poke_and_peek_ignore_permissions() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::NONE).unwrap();
        mem.poke_bytes(0x1000, &[1, 2, 3]).unwrap();
        assert_eq!(mem.peek_bytes(0x1000, 3).unwrap(), vec![1, 2, 3]);
        assert!(mem.read_u8(0x1000, Access::Read).is_err());
    }

    #[test]
    fn peek_into_straddles_pages_and_stops_at_the_unmapped_tail() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::NONE).unwrap();
        mem.map(0x2000, PAGE_SIZE, Perm::RW).unwrap(); // never written
        mem.poke_bytes(0x1ffc, &[1, 2, 3, 4]).unwrap();

        let mut buf = [0xaau8; 8];
        mem.peek_into(0x1ffc, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 0, 0, 0, 0]);
        assert_eq!(mem.peek_bytes(0x1ffc, 8).unwrap(), buf);
        assert_eq!(mem.peek_u32(0x1ffe).unwrap(), 0x0403);

        // 0x3000 is unmapped: both report its first byte, not `addr`.
        let unmapped = MemError {
            addr: 0x3000,
            access: Access::Read,
            kind: MemErrorKind::Unmapped,
        };
        let mut tail = [0u8; 16];
        assert_eq!(mem.peek_into(0x2ff8, &mut tail), Err(unmapped));
        assert_eq!(mem.peek_bytes(0x2ff8, 16), Err(unmapped));
        assert_eq!(mem.peek_u32(0x2ffe), Err(unmapped));
        assert_eq!(mem.peek_into(0x3000, &mut []), Ok(()));
    }

    #[test]
    fn set_perm_changes_existing_pages_only() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        mem.set_perm(0x1000, 2 * PAGE_SIZE, Perm::R);
        assert_eq!(mem.perm_at(0x1000), Some(Perm::R));
        assert!(!mem.is_mapped(0x2000));
    }

    #[test]
    fn unmap_removes_pages_and_recycles_slots() {
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u8(0x1000, 0xee, Access::Write).unwrap();
        mem.unmap(0x1000, PAGE_SIZE);
        assert!(!mem.is_mapped(0x1000));
        assert!(mem.is_mapped(0x2000));
        let err = mem.read_u8(0x1000, Access::Read).unwrap_err();
        assert_eq!(err.kind, MemErrorKind::Unmapped);
        // Remapping reuses the slot zero-filled, without storage.
        mem.map(0x5000, PAGE_SIZE, Perm::RW).unwrap();
        assert_eq!(mem.read_u8(0x5000, Access::Read).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn unmap_invalidates_cached_translation() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        // Prime the data TLB.
        assert!(mem.read_u8(0x1000, Access::Read).is_ok());
        mem.unmap(0x1000, PAGE_SIZE);
        let err = mem.read_u8(0x1000, Access::Read).unwrap_err();
        assert_eq!(err.kind, MemErrorKind::Unmapped);
    }

    #[test]
    fn set_perm_invalidates_cached_translation() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        assert!(mem.write_u8(0x1000, 1, Access::Write).is_ok());
        mem.set_perm(0x1000, PAGE_SIZE, Perm::R);
        let err = mem.write_u8(0x1000, 2, Access::Write).unwrap_err();
        assert_eq!(err.kind, MemErrorKind::Denied { have: Perm::R });
    }

    #[test]
    fn write_generations_are_tracked_per_page() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RWX).unwrap();
        mem.map(0x2000, PAGE_SIZE, Perm::RWX).unwrap();
        let global = mem.code_generation();
        let a0 = mem.fetch_gen(0x1000).unwrap();
        let b0 = mem.fetch_gen(0x2000).unwrap();
        // A store bumps only the written page's generation — decodes
        // from the other page stay valid — and never the global one.
        mem.write_u32(0x1000, 7, Access::Write).unwrap();
        assert!(mem.fetch_gen(0x1000).unwrap() > a0);
        assert_eq!(mem.fetch_gen(0x2000).unwrap(), b0);
        assert_eq!(mem.code_generation(), global);
        // Loader pokes plant code the same way.
        mem.poke_bytes(0x2000, &[1]).unwrap();
        assert!(mem.fetch_gen(0x2000).unwrap() > b0);
        assert_eq!(mem.code_generation(), global);
    }

    #[test]
    fn code_generation_bumps_on_layout_changes() {
        let mut mem = Memory::new();
        let mut last = mem.code_generation();
        let mut expect_bump = |mem: &Memory, what: &str| {
            let now = mem.code_generation();
            assert!(now > last, "{what} must bump the code generation");
            last = now;
        };
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        expect_bump(&mem, "map");
        mem.set_perm(0x1000, PAGE_SIZE, Perm::RX);
        expect_bump(&mem, "set_perm");
        mem.set_enforce(false);
        expect_bump(&mem, "set_enforce");
        mem.unmap(0x1000, PAGE_SIZE);
        expect_bump(&mem, "unmap");
    }

    #[test]
    fn fast_path_off_matches_fast_path_on() {
        let run = |fast: bool| {
            let mut mem = Memory::new();
            mem.set_fast_path(fast);
            mem.map(0x1000, 2 * PAGE_SIZE, Perm::RW).unwrap();
            mem.write_u32(0x1ffe, 0x0102_0304, Access::Write).unwrap();
            let word = mem.read_u32(0x1ffe, Access::Read).unwrap();
            let err = mem.read_u8(0x4000, Access::Read).unwrap_err();
            (word, err)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn tlb_counts_hits_and_misses() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u32(0x1000, 1, Access::Write).unwrap(); // miss
        mem.write_u32(0x1004, 2, Access::Write).unwrap(); // hit
        mem.write_u32(0x1008, 3, Access::Write).unwrap(); // hit
        let stats = mem.tlb_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        // With the fast path off, nothing is counted.
        mem.set_fast_path(false);
        mem.write_u32(0x100c, 4, Access::Write).unwrap();
        assert_eq!(mem.tlb_stats(), stats);
    }

    #[test]
    fn perm_display() {
        assert_eq!(Perm::RWX.to_string(), "rwx");
        assert_eq!(Perm::RX.to_string(), "r-x");
        assert_eq!(Perm::NONE.to_string(), "---");
    }

    #[test]
    fn zero_length_map_is_noop() {
        let mut mem = Memory::new();
        mem.map(0x1000, 0, Perm::RW).unwrap();
        assert!(!mem.is_mapped(0x1000));
    }

    #[test]
    fn two_entry_tlb_holds_alternating_pages() {
        // The caller/module pattern: strict alternation between two
        // pages must hit after the first visit to each — the one-entry
        // design thrashed (every access a miss).
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RW).unwrap();
        for i in 0..10u32 {
            let addr = if i % 2 == 0 { 0x1000 } else { 0x2000 };
            mem.write_u8(addr, i as u8, Access::Write).unwrap();
        }
        let stats = mem.tlb_stats();
        assert_eq!(stats.misses, 2, "one cold miss per page");
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn two_entry_tlb_evicts_the_lru_entry() {
        let mut mem = Memory::new();
        mem.map(0x1000, 3 * PAGE_SIZE, Perm::RW).unwrap();
        // A(miss) B(miss) A(hit) C(miss, evicts B) A(hit) C(hit).
        let seq = [0x1000u32, 0x2000, 0x1000, 0x3000, 0x1000, 0x3000];
        for (i, &addr) in seq.iter().enumerate() {
            mem.write_u8(addr, i as u8, Access::Write).unwrap();
        }
        let stats = mem.tlb_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn restore_copies_exactly_the_dirty_pages() {
        let mut mem = Memory::new();
        mem.map(0x1000, 4 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u8(0x1000, 0xaa, Access::Write).unwrap();
        let snap = mem.snapshot();
        assert_eq!(snap.page_count(), 4);
        // Only the written page has an image; the rest share the zero one.
        let images = snap.pages.iter().filter(|(_, image, _)| image.is_some());
        assert_eq!(images.count(), 1);

        // Touch two of the four pages.
        mem.write_u8(0x2000, 1, Access::Write).unwrap();
        mem.write_u32(0x3ff0, 2, Access::Write).unwrap();
        let stats = mem.restore_from(&snap);
        assert_eq!(stats.dirty_pages, 2);
        assert_eq!(stats.bytes_copied, 2 * u64::from(PAGE_SIZE));

        // Contents are back, including the pre-snapshot byte.
        assert_eq!(mem.read_u8(0x1000, Access::Read).unwrap(), 0xaa);
        assert_eq!(mem.read_u8(0x2000, Access::Read).unwrap(), 0);
        assert_eq!(mem.read_u32(0x3ff0, Access::Read).unwrap(), 0);

        // A second restore with nothing dirtied copies nothing.
        let stats = mem.restore_from(&snap);
        assert_eq!(stats.dirty_pages, 0);
        assert_eq!(stats.bytes_copied, 0);
    }

    #[test]
    fn restore_of_a_large_mapping_copies_only_the_dirty_page() {
        const PAGES: u32 = 512;
        let mut mem = Memory::new();
        mem.map(0x10_0000, PAGES * PAGE_SIZE, Perm::RW).unwrap();
        for i in 0..PAGES {
            mem.write_u32(0x10_0000 + i * PAGE_SIZE, i ^ 0x5a5a, Access::Write)
                .unwrap();
        }
        let snap = mem.snapshot();
        let before = mem.peek_bytes(0x10_0000, PAGES * PAGE_SIZE).unwrap();
        // Many writes, one page.
        let victim = 0x10_0000 + 300 * PAGE_SIZE;
        for off in 0..64 {
            mem.write_u8(victim + off, 0xff, Access::Write).unwrap();
        }
        let expected = RestoreStats {
            dirty_pages: 1,
            bytes_copied: u64::from(PAGE_SIZE),
        };
        assert_eq!(mem.restore_from(&snap), expected);
        assert_eq!(
            mem.peek_bytes(0x10_0000, PAGES * PAGE_SIZE).unwrap(),
            before
        );
        assert_eq!(mem.restore_from(&snap), RestoreStats::default());
        // The dirty list starts over after each restore.
        mem.write_u32(victim - 2, 0xdead_beef, Access::Write)
            .unwrap(); // straddles two pages
        assert_eq!(mem.restore_from(&snap).dirty_pages, 2);
        assert_eq!(
            mem.peek_bytes(0x10_0000, PAGES * PAGE_SIZE).unwrap(),
            before
        );
    }

    #[test]
    fn restore_after_layout_change_rebuilds_wholesale() {
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u8(0x1000, 7, Access::Write).unwrap();
        let snap = mem.snapshot();
        // Change the layout: the dirty-bit fast path is off the table.
        mem.map(0x8000, PAGE_SIZE, Perm::RX).unwrap();
        mem.set_enforce(false);
        let stats = mem.restore_from(&snap);
        assert_eq!(stats.dirty_pages, 2, "wholesale restore copies every page");
        assert!(mem.enforce(), "enforcement flag restored");
        assert!(!mem.is_mapped(0x8000), "post-snapshot mapping gone");
        assert_eq!(mem.read_u8(0x1000, Access::Read).unwrap(), 7);
        assert_eq!(mem.resident_pages(), 1, "zero pages get no storage");
        // The rebuilt memory is snapshot-consistent again: a dirty-path
        // restore works and copies only what is written.
        mem.write_u8(0x2000, 9, Access::Write).unwrap();
        assert_eq!(mem.restore_from(&snap).dirty_pages, 1);
    }

    #[test]
    fn restore_stales_only_the_copied_pages_and_keeps_the_tlb_warm() {
        let mut mem = Memory::new();
        mem.map(0x1000, PAGE_SIZE, Perm::RWX).unwrap();
        mem.map(0x2000, PAGE_SIZE, Perm::RWX).unwrap();
        let snap = mem.snapshot();
        mem.write_u8(0x1000, 0x90, Access::Write).unwrap();
        let touched = mem.fetch_gen(0x1000).unwrap();
        let untouched = mem.fetch_gen(0x2000).unwrap();
        mem.restore_from(&snap);
        // The copy-back stales decodes from the restored page only.
        assert!(
            mem.fetch_gen(0x1000).unwrap() > touched,
            "restored bytes must invalidate cached decodes"
        );
        assert_eq!(mem.fetch_gen(0x2000).unwrap(), untouched);
        // Layout unchanged: translations survive the restore, so the
        // next access through a previously-warm entry still hits.
        let before = mem.tlb_stats();
        mem.read_u8(0x1000, Access::Read).unwrap();
        assert_eq!(mem.tlb_stats().misses, before.misses);
        assert_eq!(mem.tlb_stats().hits, before.hits + 1);
    }

    #[test]
    fn poke_marks_pages_dirty_for_restore() {
        let mut mem = Memory::new();
        mem.map(0x1000, 2 * PAGE_SIZE, Perm::RX).unwrap();
        let snap = mem.snapshot();
        mem.poke_bytes(0x1ffe, &[1, 2, 3, 4]).unwrap(); // straddles both pages
        let stats = mem.restore_from(&snap);
        assert_eq!(stats.dirty_pages, 2);
        assert_eq!(mem.peek_bytes(0x1ffe, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn never_written_pages_read_zero_on_every_path() {
        for fast in [true, false] {
            let mut mem = Memory::new();
            mem.set_fast_path(fast);
            mem.map(0x1000, 2 * PAGE_SIZE, Perm::RWX).unwrap();
            assert_eq!(mem.read_u8(0x1000, Access::Read).unwrap(), 0);
            assert_eq!(mem.read_u8(0x1000, Access::Fetch).unwrap(), 0);
            assert_eq!(mem.read_u32(0x1100, Access::Read).unwrap(), 0);
            assert_eq!(mem.read_u32(0x1ffe, Access::Read).unwrap(), 0, "straddling");
            let mut buf = [0xffu8; 6000];
            mem.read_bytes(0x1800, &mut buf, Access::Read).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
            assert_eq!(mem.peek_bytes(0x1ff0, 32).unwrap(), vec![0; 32]);
            assert_eq!(mem.peek_u32(0x2000).unwrap(), 0);
            let line = mem.data_line(0x2000).unwrap();
            assert!(line.serves_word(0x2ffc, false) && line.serves_byte(0x2fff, false));
            assert_eq!(mem.line_read_u32(line, 0x2ffc), 0);
            assert_eq!(mem.line_read_u8(line, 0x2fff), 0);
            assert_eq!(mem.resident_pages(), 0, "reads must not materialise pages");
        }
    }

    #[test]
    fn a_first_write_materialises_exactly_one_page() {
        let mut mem = Memory::new();
        mem.map(0x1000, 4 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u8(0x1004, 9, Access::Write).unwrap();
        assert_eq!(mem.resident_pages(), 1);
        mem.write_u32(0x1ff0, 7, Access::Write).unwrap();
        mem.write_bytes(0x1100, &[1, 2, 3], Access::Write).unwrap();
        assert_eq!(mem.resident_pages(), 1, "later writes reuse the storage");
        assert_eq!(
            mem.peek_bytes(0x1000, 8).unwrap(),
            vec![0, 0, 0, 0, 9, 0, 0, 0]
        );
        let line = mem.data_line(0x2000).unwrap();
        mem.line_write_u8(line, 0x2001, 5);
        assert_eq!(mem.resident_pages(), 2);
        mem.poke_bytes(0x3000, &[4]).unwrap();
        assert_eq!(mem.resident_pages(), 3);
        assert_eq!(mem.read_u8(0x2001, Access::Read).unwrap(), 5);
        assert_eq!(mem.read_u8(0x3000, Access::Read).unwrap(), 4);
        assert_eq!(mem.read_u8(0x4000, Access::Read).unwrap(), 0);
    }

    #[test]
    fn a_page_first_written_after_a_snapshot_reads_zero_after_restore() {
        let mut mem = Memory::new();
        mem.map(0x1000, 3 * PAGE_SIZE, Perm::RW).unwrap();
        mem.write_u8(0x1000, 0xaa, Access::Write).unwrap();
        let snap = mem.snapshot();
        for round in 0..2 {
            mem.write_u32(0x2ffe, 0xdead_beef, Access::Write).unwrap(); // straddles 2 pages
            let one_page = u64::from(PAGE_SIZE);
            let expected = RestoreStats {
                dirty_pages: 2,
                bytes_copied: 2 * one_page,
            };
            assert_eq!(mem.restore_from(&snap), expected, "round {round}");
            assert_eq!(
                mem.peek_bytes(0x2ff0, 32).unwrap(),
                vec![0; 32],
                "round {round}"
            );
            assert_eq!(mem.read_u8(0x1000, Access::Read).unwrap(), 0xaa);
            // The refilled pages keep their storage for the next attempt.
            assert_eq!(mem.resident_pages(), 3, "round {round}");
            assert_eq!(mem.restore_from(&snap), RestoreStats::default());
        }
    }
}
