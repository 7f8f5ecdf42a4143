//! Differential test: `Scraper::scan`, which judges visibility once per
//! page/module piece, finds exactly what a per-byte scan built from
//! `Scraper::can_read` + `Scraper::read` finds — same hits, same
//! addresses, same order.
//!
//! Machines are drawn from a seeded `swsec-rng` stream: small page maps
//! whose adjacent pages often differ in permission, enforcement on and
//! off, an optional protection map with unaligned code/data ranges, a
//! scraper instruction pointer inside or outside a module, needles of
//! 1–8 bytes planted across page, permission and module bounds, and a
//! mapped last page at `0xFFFF_F000`. A failure names the case's seed;
//! `Xoshiro256pp::seed_from_u64(seed)` rebuilds its machine.

use swsec_attacks::Scraper;
use swsec_rng::{derive, Rng, Xoshiro256pp};
use swsec_vm::cpu::Machine;
use swsec_vm::mem::{Perm, PAGE_SIZE};
use swsec_vm::policy::{ProtectedRegion, ProtectionMap};

const MASTER: u64 = 0x5C4A_9E12;
const CASES: u64 = 80;

/// The kernel scraper's fixed instruction pointer.
const KERNEL_IP: u32 = 0xc000_0000;

/// Page bases the generator draws clusters from: low user memory, the
/// kernel scraper's page, and the top of the address space (the last
/// page's range end wraps to 0).
const ANCHORS: [u32; 4] = [0x0805_0000, 0x0900_0000, KERNEL_IP, 0xffff_c000];

const PERMS: [Perm; 7] = [
    Perm::NONE,
    Perm::R,
    Perm::W,
    Perm::X,
    Perm::RW,
    Perm::RX,
    Perm::RWX,
];

/// The per-byte scan: a `needle.len()`-byte window of `read` results
/// slid over every region entry, reset at each entry.
fn oracle_scan(scraper: &Scraper, m: &Machine, needle: &[u8]) -> Vec<u32> {
    if needle.is_empty() {
        return Vec::new();
    }
    let mut hits = Vec::new();
    for (range, _) in m.mem().regions() {
        let mut window: Vec<Option<u8>> = Vec::new();
        let len = range.end.wrapping_sub(range.start);
        for i in 0..len {
            let addr = range.start.wrapping_add(i);
            window.push(scraper.read(m, addr));
            if window.len() > needle.len() {
                window.remove(0);
            }
            if window.len() == needle.len()
                && window.iter().zip(needle).all(|(b, n)| *b == Some(*n))
            {
                hits.push(addr.wrapping_sub(needle.len() as u32 - 1));
            }
        }
    }
    hits
}

fn pick<T: Copy>(rng: &mut Xoshiro256pp, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

/// Bytes from a four-letter alphabet, so short needles also match
/// where nothing was planted.
fn small_bytes(rng: &mut Xoshiro256pp, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(4) as u8).collect()
}

struct Case {
    machine: Machine,
    /// Where the planted needles start.
    plants: Vec<u32>,
    needle: Vec<u8>,
    /// An instruction pointer inside a module's code, if any module has
    /// code.
    inside_ip: Option<u32>,
}

fn generate(rng: &mut Xoshiro256pp) -> Case {
    let mut m = Machine::new();
    m.mem_mut().set_enforce(rng.gen_bool());

    // 2–4 clusters of 1–3 pages, each page with its own permission.
    // Clusters may touch, so regions of different permissions abut.
    let mut pages = Vec::new();
    for _ in 0..2 + rng.gen_range(3) {
        let anchor = pick(rng, &ANCHORS);
        let first = anchor.wrapping_add(rng.gen_range(4) as u32 * PAGE_SIZE);
        for p in 0..1 + rng.gen_range(3) as u32 {
            let base = first.wrapping_add(p * PAGE_SIZE);
            if base < first {
                break; // past the top of the address space
            }
            if m.mem_mut().map(base, PAGE_SIZE, pick(rng, &PERMS)).is_ok() {
                pages.push(base);
            }
        }
    }
    if rng.gen_range(3) == 0 {
        for base in [0xffff_f000, 0] {
            if m.mem_mut().map(base, PAGE_SIZE, pick(rng, &PERMS)).is_ok() {
                pages.push(base);
            }
        }
    }
    // Most pages hold bytes; the rest stay never-written (all zero).
    for &base in &pages {
        if rng.gen_range(4) != 0 {
            let bytes = small_bytes(rng, PAGE_SIZE as usize);
            m.mem_mut().poke_bytes(base, &bytes).unwrap();
        }
    }

    // An optional protection map of 1–2 modules whose code and data
    // ranges start and end off page boundaries.
    let mut inside_ip = None;
    let mut bounds = Vec::new();
    if rng.gen_bool() {
        let mut regions = Vec::new();
        for _ in 0..1 + rng.gen_range(2) {
            let range = |rng: &mut Xoshiro256pp| {
                let start = if rng.gen_range(4) == 0 {
                    KERNEL_IP - 1 - rng.gen_range(64) as u32
                } else {
                    pick(rng, &pages).wrapping_add(rng.gen_range(PAGE_SIZE as u64) as u32)
                };
                let end = start.saturating_add(1 + rng.gen_range(2 * PAGE_SIZE as u64) as u32);
                start..end
            };
            let (code, data) = (range(rng), range(rng));
            inside_ip.get_or_insert(code.start + (code.end - code.start) / 2);
            bounds.extend([code.start, code.end, data.start, data.end]);
            regions.push(ProtectedRegion::new(code, data, vec![]));
        }
        m.set_protection(Some(ProtectionMap::new(regions)));
    }

    // Plant the needle across page bounds, module bounds and the very
    // end of memory (a plant that runs off a mapped page is cut short).
    let len = 1 + rng.gen_range(8) as usize;
    let needle = small_bytes(rng, len);
    let mut cuts: Vec<u32> = pages.iter().map(|&p| p.wrapping_add(PAGE_SIZE)).collect();
    cuts.extend(bounds);
    let mut plants = Vec::new();
    for _ in 0..6 {
        let cut = pick(rng, &cuts);
        let at = cut.wrapping_sub(1 + rng.gen_range(needle.len() as u64) as u32);
        let _ = m.mem_mut().poke_bytes(at, &needle);
        plants.push(at);
    }
    Case {
        machine: m,
        plants,
        needle,
        inside_ip,
    }
}

#[test]
fn piecewise_scan_matches_the_per_byte_scan() {
    let mut hits_total = 0;
    let mut planted_hits = 0;
    let mut top_hits = 0;
    for case in 0..CASES {
        let seed = derive(MASTER, &[case]);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let c = generate(&mut rng);

        let mut scrapers = vec![
            ("kernel", Scraper::kernel()),
            ("user outside", Scraper::user(0x0900_0000)),
        ];
        if let Some(ip) = c.inside_ip {
            scrapers.push(("user inside", Scraper::user(ip)));
        }
        let len = 1 + rng.gen_range(2) as usize;
        let short = small_bytes(&mut rng, len);
        for (who, scraper) in &scrapers {
            for needle in [&c.needle, &short] {
                let got = scraper.scan(&c.machine, needle);
                let want = oracle_scan(scraper, &c.machine, needle);
                assert_eq!(
                    got, want,
                    "case {case} (seed {seed:#018x}), {who} scraper, needle {needle:?}"
                );
                hits_total += got.len();
                planted_hits += got.iter().filter(|a| c.plants.contains(a)).count();
                top_hits += got.iter().filter(|&&a| a >= 0xffff_f000).count();
            }
        }
    }
    // The cases must exercise what they claim to.
    assert!(hits_total > 10_000, "only {hits_total} hits");
    assert!(
        planted_hits > 100,
        "only {planted_hits} planted needles seen"
    );
    assert!(top_hits > 100, "only {top_hits} hits in the last page");
}
