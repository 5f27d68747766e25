//! The shared last-level (L2) cache: set-associative, LRU, writeback, with
//! next-line-prefetch bookkeeping.

use memsim::LineAddr;

/// Shared L2 configuration. Defaults match Table 2: 16 MiB, 16-way, 64-byte
/// blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes.
    pub line_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }
}

impl CacheConfig {
    /// Checks that the geometry describes a cache: at least one way, fewer
    /// ways than recency stamps, a nonzero line size, and a set count that
    /// is a nonzero power of two.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("L2 needs at least one way".into());
        }
        // A renumbered set holds ranks `0..ways` and the stamp counter
        // restarts at `ways`, which must still be a stamp.
        if self.ways as u64 >= STAMP_LIMIT {
            return Err(format!(
                "L2 associativity {} must be below {STAMP_LIMIT}, the count of recency stamps",
                self.ways
            ));
        }
        if self.line_bytes == 0 {
            return Err("L2 line_bytes must be positive".into());
        }
        let set_bytes = self
            .line_bytes
            .checked_mul(self.ways as u64)
            .ok_or_else(|| {
                format!(
                    "L2 set of {} ways x {} bytes overflows",
                    self.ways, self.line_bytes
                )
            })?;
        let sets = self.size_bytes / set_bytes;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "L2 set count {sets} must be a nonzero power of two"
            ));
        }
        Ok(())
    }

    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions (writebacks produced).
    pub writebacks: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Prefetched lines that saw a demand access before eviction (useful
    /// prefetches).
    pub prefetch_useful: u64,
    /// Prefetched lines evicted without ever being referenced.
    pub prefetch_unused: u64,
}

impl CacheStats {
    /// Demand miss ratio; zero when no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Prefetch accuracy: useful / (useful + unused); zero when no
    /// prefetches have been evaluated yet.
    pub fn prefetch_accuracy(&self) -> f64 {
        let judged = self.prefetch_useful + self.prefetch_unused;
        if judged == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / judged as f64
        }
    }

    /// Component-wise difference.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writebacks: self.writebacks - earlier.writebacks,
            prefetch_fills: self.prefetch_fills - earlier.prefetch_fills,
            prefetch_useful: self.prefetch_useful - earlier.prefetch_useful,
            prefetch_unused: self.prefetch_unused - earlier.prefetch_unused,
        }
    }
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Line present. `first_use_of_prefetch` is true exactly once per
    /// prefetched line — the trigger for tagged next-line prefetching.
    Hit {
        /// First demand touch of a prefetched line.
        first_use_of_prefetch: bool,
    },
    /// Line absent; the caller must fetch it from memory and later call
    /// [`L2Cache::fill`].
    Miss,
}

/// Way-word flag: the line is dirty.
const DIRTY: u64 = 0b10;
/// Way-word flag: the line was installed by the prefetcher and has not
/// seen a demand access yet.
const PREFETCHED: u64 = 0b01;
/// The line address sits above the two flag bits.
const LINE_SHIFT: u32 = 2;
/// Width of the line field: the cache tags lines below `2^40`.
const LINE_BITS: u32 = 40;
/// The line field of a way word.
const LINE_FIELD: u64 = ((1 << LINE_BITS) - 1) << LINE_SHIFT;
/// The recency stamp fills the bits above the line field.
const STAMP_SHIFT: u32 = LINE_SHIFT + LINE_BITS;
/// Stamps run below this bound; reaching it renumbers every set.
const STAMP_LIMIT: u64 = 1 << (u64::BITS - STAMP_SHIFT);

/// `line` placed in a way word's line field.
///
/// # Panics
///
/// Panics if `line` does not fit the field: a truncated tag would alias
/// another line.
#[inline]
fn line_key(line: LineAddr) -> u64 {
    assert!(
        line.0 >> LINE_BITS == 0,
        "L2 line {:#x} does not fit the {LINE_BITS}-bit tag",
        line.0
    );
    line.0 << LINE_SHIFT
}

/// A set-associative writeback LRU cache over [`LineAddr`]s.
///
/// The set index is hash-folded from the full line address so that each
/// core's private footprint (cores own disjoint high-order address slices)
/// spreads over all sets instead of aliasing into the low sets.
///
/// Each way is one word, `stamp << 42 | line << 2 | dirty << 1 |
/// prefetched`: a 22-bit recency stamp over a 40-bit line address, so
/// lines must lie below `2^40`. Stamps within a set are unique, so the
/// least-recent way holds the smallest word. When the stamp counter
/// reaches `2^22`, every set's valid ways are renumbered by recency rank
/// and the counter restarts at the associativity, which leaves every
/// eviction decision unchanged. Lines are never invalidated and a fill
/// always takes the first free way, so a set's valid ways are a prefix of
/// the set; `filled` counts them and lookups scan only that prefix.
///
/// # Example
///
/// ```
/// use cpusim::{Access, CacheConfig, L2Cache};
/// use memsim::LineAddr;
///
/// let mut l2 = L2Cache::new(CacheConfig::default());
/// assert_eq!(l2.access(LineAddr(7), false), Access::Miss);
/// assert_eq!(l2.fill(LineAddr(7), false, false), None);
/// assert!(matches!(l2.access(LineAddr(7), false), Access::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct L2Cache {
    config: CacheConfig,
    /// `ways` words per set, zero until filled.
    ways: Vec<u64>,
    /// Valid ways per set.
    filled: Vec<u32>,
    set_mask: u64,
    assoc: usize,
    stamp: u64,
    stats: CacheStats,
}

impl L2Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        L2Cache {
            config,
            ways: vec![0; sets * config.ways],
            filled: vec![0; sets],
            set_mask: sets as u64 - 1,
            assoc: config.ways,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration used to build this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        // Fold the high bits down so disjoint per-core regions spread across
        // all sets.
        let x = line.0;
        ((x ^ (x >> 14) ^ (x >> 28) ^ (x >> 42)) & self.set_mask) as usize
    }

    /// The index of the line keyed `key` in set `idx`, if resident.
    #[inline]
    fn find(&self, idx: usize, key: u64) -> Option<usize> {
        let base = idx * self.assoc;
        self.ways[base..base + self.filled[idx] as usize]
            .iter()
            .position(|&way| way & LINE_FIELD == key)
            .map(|w| base + w)
    }

    /// The next recency stamp, in place in a way word.
    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        if self.stamp == STAMP_LIMIT {
            self.renumber();
        }
        self.stamp << STAMP_SHIFT
    }

    /// Restamps every set's valid ways with their recency ranks `0..n`
    /// and restarts the counter at the associativity, above every rank.
    /// Sorting the words sorts the ways by stamp.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        for (set, &n) in self.ways.chunks_exact_mut(self.assoc).zip(&self.filled) {
            let valid = &mut set[..n as usize];
            valid.sort_unstable();
            for (rank, way) in (0u64..).zip(valid) {
                *way = rank << STAMP_SHIFT | (*way & (LINE_FIELD | DIRTY | PREFETCHED));
            }
        }
        self.stamp = self.assoc as u64;
    }

    /// Performs a demand access. On a hit the line's LRU position is
    /// refreshed and, for stores, the dirty bit set. On a miss nothing is
    /// installed — fetch the line and call [`L2Cache::fill`].
    ///
    /// # Panics
    ///
    /// Panics if `line` is at or above `2^40`.
    pub fn access(&mut self, line: LineAddr, is_store: bool) -> Access {
        let key = line_key(line);
        let stamp = self.next_stamp();
        let idx = self.set_index(line);
        let Some(at) = self.find(idx, key) else {
            self.stats.misses += 1;
            return Access::Miss;
        };
        let way = self.ways[at];
        let first_use = way & PREFETCHED != 0;
        let dirty = if is_store { DIRTY } else { 0 };
        self.ways[at] = stamp | (way & (LINE_FIELD | DIRTY)) | dirty;
        self.stats.hits += 1;
        if first_use {
            self.stats.prefetch_useful += 1;
        }
        Access::Hit {
            first_use_of_prefetch: first_use,
        }
    }

    /// Whether `line` is currently resident (no LRU/stat side effects).
    ///
    /// # Panics
    ///
    /// Panics if `line` is at or above `2^40`.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_index(line), line_key(line)).is_some()
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim's address if it was dirty (the caller owes a writeback).
    ///
    /// `dirty` marks the fill itself dirty (store miss); `prefetched` tags
    /// the line for prefetch-accuracy accounting.
    ///
    /// # Panics
    ///
    /// Panics if `line` is at or above `2^40`.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<LineAddr> {
        let key = line_key(line);
        let stamp = self.next_stamp();
        let dirty = if dirty { DIRTY } else { 0 };
        let idx = self.set_index(line);

        // Already present (e.g. a demand fill racing a prefetch fill):
        // merge flags rather than duplicating the line.
        if let Some(at) = self.find(idx, key) {
            let kept = self.ways[at] & (LINE_FIELD | DIRTY | PREFETCHED);
            self.ways[at] = stamp | kept | dirty;
            return None;
        }

        let base = idx * self.assoc;
        let n = self.filled[idx] as usize;
        let mut writeback = None;
        let at = if n < self.assoc {
            self.filled[idx] += 1;
            base + n
        } else {
            // Full: evict the least-recent way, the smallest word.
            let set = &self.ways[base..base + self.assoc];
            let (w, &victim) = set
                .iter()
                .enumerate()
                .min_by_key(|&(_, &way)| way)
                .expect("ways > 0 by construction");
            if victim & PREFETCHED != 0 {
                self.stats.prefetch_unused += 1;
            }
            if victim & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(LineAddr((victim & LINE_FIELD) >> LINE_SHIFT));
            }
            base + w
        };
        self.ways[at] = stamp | key | dirty | if prefetched { PREFETCHED } else { 0 };
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Cache {
        // 4 sets x 2 ways x 64B = 512B.
        L2Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    /// Lines that map to set 0 of the tiny cache.
    fn same_set_lines(cache: &L2Cache, n: usize) -> Vec<LineAddr> {
        let target = cache.set_index(LineAddr(0));
        (0u64..)
            .map(LineAddr)
            .filter(|l| cache.set_index(*l) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(5), false), Access::Miss);
        assert_eq!(c.fill(LineAddr(5), false, false), None);
        assert!(matches!(c.access(LineAddr(5), false), Access::Hit { .. }));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], false, false);
        c.fill(lines[1], false, false);
        // Touch line 0 so line 1 is LRU.
        let _ = c.access(lines[0], false);
        c.fill(lines[2], false, false);
        assert!(c.contains(lines[0]));
        assert!(!c.contains(lines[1]));
        assert!(c.contains(lines[2]));
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], true, false);
        c.fill(lines[1], false, false);
        // Fill a third line: evicts lines[0] (LRU, dirty).
        let wb = c.fill(lines[2], false, false);
        assert_eq!(wb, Some(lines[0]));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], false, false);
        let _ = c.access(lines[0], true); // store hit
        c.fill(lines[1], false, false);
        let wb = c.fill(lines[2], false, false);
        // lines[1] is... touch order: fill0, access0, fill1, fill2 evicts
        // lines[0]? No: lru(l0)=access stamp 2 > fill1... victim = l1.
        // Evicting clean l1 yields no writeback; fill again to evict dirty l0.
        let wb2 = c.fill(same_set_lines(&c, 4)[3], false, false);
        assert!(wb.is_some() || wb2.is_some());
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_accuracy_accounting() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 4);
        c.fill(lines[0], false, true); // prefetch, will be used
        c.fill(lines[1], false, true); // prefetch, never used
        match c.access(lines[0], false) {
            Access::Hit {
                first_use_of_prefetch,
            } => assert!(first_use_of_prefetch),
            other => panic!("expected hit, got {other:?}"),
        }
        // Second touch is no longer a "first use".
        match c.access(lines[0], false) {
            Access::Hit {
                first_use_of_prefetch,
            } => assert!(!first_use_of_prefetch),
            other => panic!("expected hit, got {other:?}"),
        }
        // Evict the unused prefetch.
        c.fill(lines[2], false, false);
        c.fill(lines[3], false, false);
        let s = c.stats();
        assert_eq!(s.prefetch_fills, 2);
        assert_eq!(s.prefetch_useful, 1);
        assert!(s.prefetch_unused >= 1);
        assert!((s.prefetch_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_fill_merges() {
        let mut c = tiny();
        c.fill(LineAddr(9), false, false);
        assert_eq!(c.fill(LineAddr(9), true, false), None);
        // Dirty flag merged: evicting it must produce a writeback.
        let lines = same_set_lines(&c, 8);
        let set9 = (0u64..)
            .map(LineAddr)
            .filter(|l| {
                l.0 != 9 && {
                    let probe = tiny();
                    probe.set_index(*l) == probe.set_index(LineAddr(9))
                }
            })
            .take(2)
            .collect::<Vec<_>>();
        let mut wb = None;
        for l in set9 {
            wb = wb.or(c.fill(l, false, false));
        }
        assert_eq!(wb, Some(LineAddr(9)));
        let _ = lines;
    }

    #[test]
    fn default_geometry() {
        let c = CacheConfig::default();
        assert_eq!(c.sets(), 16_384);
        let cache = L2Cache::new(c);
        assert_eq!(cache.ways.len(), 16_384 * 16);
        assert_eq!(cache.filled.len(), 16_384);
    }

    /// A run that crosses the stamp limit, and so renumbers every set,
    /// makes the same decisions as one that stays far below it.
    #[test]
    fn renumbering_at_the_stamp_limit_changes_no_decision() {
        // 8 sets x 4 ways, over a universe of three times as many lines in
        // four address regions.
        let config = CacheConfig {
            size_bytes: 8 * 4 * 64,
            ways: 4,
            line_bytes: 64,
        };
        let universe = |r: u64, lo: u64| LineAddr(r << 28 | lo);
        for below in [50, 10_000] {
            let mut fresh = L2Cache::new(config);
            let mut crossing = L2Cache::new(config);
            crossing.stamp = STAMP_LIMIT - below;
            let mut rng = simkernel::SimRng::new(below);
            for i in 0..20_000 {
                let line = universe(rng.below(4), rng.below(24));
                let dirty = rng.chance(0.3);
                if rng.chance(0.5) {
                    let got = crossing.access(line, dirty);
                    assert_eq!(got, fresh.access(line, dirty), "op {i}");
                } else {
                    let prefetched = rng.chance(0.2);
                    let got = crossing.fill(line, dirty, prefetched);
                    assert_eq!(got, fresh.fill(line, dirty, prefetched), "op {i}");
                }
            }
            assert!(crossing.stamp < fresh.stamp, "never renumbered");
            assert_eq!(crossing.stats(), fresh.stats());
            for (r, lo) in (0..4).flat_map(|r| (0..24).map(move |lo| (r, lo))) {
                let line = universe(r, lo);
                assert_eq!(crossing.contains(line), fresh.contains(line));
            }
        }
    }

    /// The access that reaches the stamp limit is stamped above every
    /// renumbered way, so the line it touched outlives the next eviction.
    /// It touches the lower address, which a tied stamp would evict.
    #[test]
    fn the_access_that_renumbers_is_the_most_recent() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        let (low, high) = (lines[0], lines[1]);
        c.stamp = STAMP_LIMIT - 4;
        c.fill(high, false, false);
        c.fill(low, false, false);
        let _ = c.access(high, false);
        let _ = c.access(low, false);
        c.fill(lines[2], false, false);
        assert!(c.contains(low) && !c.contains(high));
    }

    #[test]
    #[should_panic(expected = "L2 line 0x10000000000 does not fit the 40-bit tag")]
    fn access_rejects_a_line_past_the_tag() {
        let _ = tiny().access(LineAddr(1 << 40), false);
    }

    #[test]
    #[should_panic(expected = "L2 line 0x10000000000 does not fit the 40-bit tag")]
    fn fill_rejects_a_line_past_the_tag() {
        let _ = tiny().fill(LineAddr(1 << 40), false, false);
    }

    #[test]
    #[should_panic(expected = "L2 line 0xffffffffffffffff does not fit the 40-bit tag")]
    fn contains_rejects_a_line_past_the_tag() {
        let _ = tiny().contains(LineAddr(u64::MAX));
    }

    #[test]
    fn miss_ratio_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_each_bad_geometry() {
        let ok = CacheConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = [
            (CacheConfig { ways: 0, ..ok }, "at least one way"),
            (
                CacheConfig {
                    size_bytes: 64 << 22,
                    ways: 1 << 22,
                    ..ok
                },
                "recency stamps",
            ),
            (
                CacheConfig {
                    line_bytes: 0,
                    ..ok
                },
                "line_bytes",
            ),
            (
                CacheConfig {
                    size_bytes: 3 * 64 * 16,
                    ..ok
                },
                "power of two",
            ),
            (
                CacheConfig {
                    size_bytes: 64,
                    ..ok
                },
                "power of two",
            ),
            (
                CacheConfig {
                    line_bytes: u64::MAX,
                    ..ok
                },
                "overflows",
            ),
        ];
        for (config, why) in bad {
            let err = config.validate().expect_err(why);
            assert!(err.contains(why), "{config:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "line_bytes")]
    fn zero_line_size_panics_in_sets_instead_of_dividing_by_zero() {
        let _ = CacheConfig {
            line_bytes: 0,
            ..CacheConfig::default()
        }
        .sets();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = L2Cache::new(CacheConfig {
            size_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
        });
    }
}
