//! Compilation memoization for campaign-scale workloads.
//!
//! Every experiment compiles MinC victims, often the *same* victim
//! under the *same* options thousands of times — the E3 matrix reuses
//! each victim across configurations, the E4 ASLR sweep relaunches one
//! victim per brute-force attempt, and E14 fires thousands of oracle
//! queries at a single program. [`ProgramCache`] makes every distinct
//! `(source, CompileOptions)` pair compile exactly once; everything
//! after the first compile is an `Arc` clone.
//!
//! The hardening configuration is part of [`CompileOptions`] and hence
//! of the cache key, so a canary build and a bounds-checked build of
//! the same source never alias. Likewise the (possibly ASLR-slid)
//! layout: two launches that happen to draw the same slide share an
//! image, two different slides do not.
//!
//! The cache is sharded by key hash and safe to share across the
//! campaign worker pool by reference.
//!
//! ## Bounded mode
//!
//! A batch campaign compiles a finite victim set and exits, so the
//! default cache is unbounded. A long-lived service does not exit, and
//! ASLR makes the key space effectively infinite (every distinct slide
//! is a distinct `CompileOptions`): an unbounded memo would grow until
//! the process dies. [`ProgramCache::bounded`] caps the table and
//! evicts by generation clock — every hit stamps the entry with a
//! fresh tick from a global counter, and an over-capacity insert
//! removes the stalest entry in its shard (LRU, approximated per
//! shard). Evictions are counted and surfaced as the
//! `cache.evictions` metric.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swsec_defenses::DefenseConfig;
use swsec_minc::{compile, CompileError, CompileOptions, CompiledProgram, Program};

use crate::loader::{self, Session};

const SHARDS: usize = 16;

/// Cache counters (monotonic; never reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Sources parsed (front-end cache misses).
    pub parses: u64,
    /// Entries evicted to stay under a bounded cache's capacity
    /// (always `0` for unbounded caches).
    pub evictions: u64,
}

impl CacheStats {
    /// Total compile requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

type ProgramKey = (String, CompileOptions);

/// A cached compile artifact plus its last-use tick (only meaningful
/// in bounded mode; unbounded caches never read it).
#[derive(Debug)]
struct Cached<T> {
    value: Arc<T>,
    last_use: u64,
}

/// A concurrent memo table from `(source, options)` to compiled
/// images, plus a front-end memo from source text to parsed [`Program`]s.
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: [Mutex<HashMap<ProgramKey, Cached<CompiledProgram>>>; SHARDS],
    units: Mutex<HashMap<String, Cached<Program>>>,
    /// Maximum compiled images held across all shards; `None` is
    /// unbounded (the batch-campaign default).
    capacity: Option<usize>,
    /// Generation clock stamping entry use; strictly coarser than the
    /// use order under contention, which only blurs *which* cold entry
    /// is evicted, never whether capacity holds.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    parses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// An empty, unbounded cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// An empty cache holding at most `capacity` compiled images (and
    /// at most `capacity` parsed units), evicting least-recently-used
    /// entries past that. A zero capacity is treated as `1`.
    pub fn bounded(capacity: usize) -> ProgramCache {
        ProgramCache {
            capacity: Some(capacity.max(1)),
            ..ProgramCache::default()
        }
    }

    /// The compiled-image capacity, if this cache is bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn shard(key: &ProgramKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Evicts stalest entries from one (locked) table until it holds
    /// at most `cap` entries. O(n) scans per eviction: bounded caches
    /// are small by construction, and eviction rides the already-slow
    /// compile path.
    fn evict_to<K: Eq + Hash + Clone, T>(&self, map: &mut HashMap<K, Cached<T>>, cap: usize) {
        while map.len() > cap {
            let Some(stalest) = map
                .iter()
                .min_by_key(|(_, cached)| cached.last_use)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            map.remove(&stalest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-shard share of the program capacity. Ceil so the shard caps
    /// never sum below the requested total.
    fn shard_cap(&self) -> Option<usize> {
        self.capacity.map(|cap| cap.div_ceil(SHARDS).max(1))
    }

    /// The parsed AST for `source`, memoized.
    ///
    /// # Errors
    ///
    /// Returns the front-end error when `source` does not parse (the
    /// failure itself is not cached).
    pub fn unit(&self, source: &str) -> Result<Arc<Program>, CompileError> {
        if let Some(unit) = self.units.lock().expect("cache lock").get_mut(source) {
            unit.last_use = self.tick();
            return Ok(Arc::clone(&unit.value));
        }
        let unit = swsec_minc::parse(source).map_err(|e| CompileError {
            message: format!("parse error: {e:?}"),
        })?;
        self.parses.fetch_add(1, Ordering::Relaxed);
        let unit = Arc::new(unit);
        let last_use = self.tick();
        let mut map = self.units.lock().expect("cache lock");
        map.entry(source.to_string()).or_insert_with(|| Cached {
            value: Arc::clone(&unit),
            last_use,
        });
        if let Some(cap) = self.capacity {
            self.evict_to(&mut map, cap.max(1));
        }
        Ok(unit)
    }

    /// The compiled image of `source` under `opts`, memoized.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] from the front end or the code
    /// generator; failures are not cached.
    pub fn compile(
        &self,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        // The span covers the memoized lookup, not just the miss path:
        // which worker loses the compile race is scheduling-dependent,
        // and span trees must be identical at any worker count.
        let _compile = swsec_obs::span::enter_with(swsec_obs::SpanKind::Compile, || {
            format!("{} bytes", source.len())
        });
        let key = (source.to_string(), opts.clone());
        let shard = &self.programs[Self::shard(&key)];
        if let Some(cached) = shard.lock().expect("cache lock").get_mut(&key) {
            cached.last_use = self.tick();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&cached.value));
        }
        // Compile outside the shard lock so a slow compile does not
        // serialize the pool; a concurrent duplicate just loses the
        // insert race (the counters still record it as a miss).
        let unit = self.unit(source)?;
        let program = Arc::new(compile(&unit, opts)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let last_use = self.tick();
        let mut map = shard.lock().expect("cache lock");
        let entry = map.entry(key).or_insert_with(|| Cached {
            value: Arc::clone(&program),
            last_use,
        });
        let result = Arc::clone(&entry.value);
        if let Some(cap) = self.shard_cap() {
            self.evict_to(&mut map, cap);
        }
        Ok(result)
    }

    /// Compile-and-launch through the cache: the cached analogue of
    /// [`loader::launch`], yielding a bit-identical [`Session`].
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when compilation or loading fails.
    pub fn launch(
        &self,
        source: &str,
        config: DefenseConfig,
        seed: u64,
    ) -> Result<Session, CompileError> {
        let opts = loader::plan_options(&config, seed);
        let program = self.compile(source, &opts)?;
        loader::launch_compiled(&program, config, seed)
    }

    /// Clears the memo tables (counters are kept; clearing is not
    /// eviction).
    pub fn clear(&self) {
        for shard in &self.programs {
            shard.lock().expect("cache lock").clear();
        }
        self.units.lock().expect("cache lock").clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            parses: self.parses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ECHO: &str = "void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }";

    #[test]
    fn identical_requests_compile_once() {
        let cache = ProgramCache::new();
        let opts = CompileOptions::default();
        let a = cache.compile(ECHO, &opts).unwrap();
        let b = cache.compile(ECHO, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.parses), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn hardening_is_part_of_the_key() {
        let cache = ProgramCache::new();
        let plain = CompileOptions::default();
        let mut hardened = CompileOptions::default();
        hardened.harden.stack_canary = true;
        let a = cache.compile(ECHO, &plain).unwrap();
        let b = cache.compile(ECHO, &hardened).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        // …but the parse was shared.
        assert_eq!(cache.stats().parses, 1);
    }

    #[test]
    fn cached_launch_matches_uncached_launch() {
        let cache = ProgramCache::new();
        let mut config = DefenseConfig::none();
        config.canary = true;
        config.aslr_bits = Some(4);
        let unit = swsec_minc::parse(ECHO).unwrap();
        for seed in [1, 2, 99] {
            let direct = loader::launch(&unit, config, seed).unwrap();
            let cached = cache.launch(ECHO, config, seed).unwrap();
            assert_eq!(direct.canary_value, cached.canary_value, "seed {seed}");
            assert_eq!(direct.program.layout, cached.program.layout, "seed {seed}");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let cache = ProgramCache::new();
        assert!(cache
            .compile("int main( {", &CompileOptions::default())
            .is_err());
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        // Capacity 1: with 16 shards the per-shard cap is 1, so two
        // distinct keys landing in the same shard force an eviction.
        // Distinct ASLR slides of one source guarantee same-shard
        // pressure eventually; drive enough keys that every shard
        // exceeds its cap.
        let cache = ProgramCache::bounded(1);
        let config = DefenseConfig::modern(8);
        for seed in 0..64u64 {
            let opts = loader::plan_options(&config, seed);
            cache.compile(ECHO, &opts).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "no evictions at capacity 1: {stats:?}");
        let held: usize = cache
            .programs
            .iter()
            .map(|shard| shard.lock().unwrap().len())
            .sum();
        assert!(held <= SHARDS, "held {held} images over per-shard caps");
        // The parsed-unit memo is capped too.
        assert!(cache.units.lock().unwrap().len() <= 1);
    }

    #[test]
    fn bounded_cache_keeps_the_hot_entry() {
        // Capacity 32 = per-shard cap 2: a shard can hold the hot
        // entry plus one cold one, so eviction has a genuine LRU
        // choice to make (at cap 1 any insert evicts the only
        // neighbour regardless of recency).
        let cache = ProgramCache::bounded(32);
        let hot = CompileOptions::default();
        let first = cache.compile(ECHO, &hot).unwrap();
        let config = DefenseConfig::modern(8);
        for seed in 0..64u64 {
            // Re-touch the hot entry between cold inserts: LRU must
            // keep serving it from cache while the colds churn.
            let opts = loader::plan_options(&config, seed);
            cache.compile(ECHO, &opts).unwrap();
            let again = cache.compile(ECHO, &hot).unwrap();
            assert!(
                Arc::ptr_eq(&first, &again),
                "hot entry evicted at seed {seed}"
            );
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ProgramCache::new();
        let config = DefenseConfig::modern(8);
        for seed in 0..64u64 {
            let opts = loader::plan_options(&config, seed);
            cache.compile(ECHO, &opts).unwrap();
        }
        assert_eq!(cache.stats().evictions, 0);
    }
}
