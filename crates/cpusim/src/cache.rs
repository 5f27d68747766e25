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
    /// Checks that the geometry describes a cache: at least one way, a
    /// nonzero line size, and a set count that is a nonzero power of two.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("L2 needs at least one way".into());
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

/// Meta-word flag: the line is dirty.
const DIRTY: u64 = 0b10;
/// Meta-word flag: the line was installed by the prefetcher and has not
/// seen a demand access yet.
const PREFETCHED: u64 = 0b01;
/// The recency stamp sits above the two flag bits.
const STAMP_SHIFT: u32 = 2;

/// A set-associative writeback LRU cache over [`LineAddr`]s.
///
/// The set index is hash-folded from the full line address so that each
/// core's private footprint (cores own disjoint high-order address slices)
/// spreads over all sets instead of aliasing into the low sets.
///
/// Each way is two words, `[tag, stamp << 2 | dirty << 1 | prefetched]`,
/// so a way's tag, recency and flags share one host cache line. Lines are
/// never invalidated and a fill always takes the first free way, so a
/// set's valid ways are a prefix of the set; `filled` counts them and
/// lookups scan only that prefix.
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
    /// `2 * ways` words per set, zero until filled.
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
            ways: vec![0; 2 * sets * config.ways],
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

    /// The first word of set `idx`'s ways.
    #[inline]
    fn set_base(&self, idx: usize) -> usize {
        2 * idx * self.assoc
    }

    /// The word offset of `line`'s way within set `idx`, if resident.
    #[inline]
    fn find(&self, idx: usize, line: LineAddr) -> Option<usize> {
        let base = self.set_base(idx);
        let valid = &self.ways[base..base + 2 * self.filled[idx] as usize];
        valid
            .chunks_exact(2)
            .position(|way| way[0] == line.0)
            .map(|w| base + 2 * w)
    }

    /// Performs a demand access. On a hit the line's LRU position is
    /// refreshed and, for stores, the dirty bit set. On a miss nothing is
    /// installed — fetch the line and call [`L2Cache::fill`].
    pub fn access(&mut self, line: LineAddr, is_store: bool) -> Access {
        self.stamp += 1;
        let idx = self.set_index(line);
        let Some(at) = self.find(idx, line) else {
            self.stats.misses += 1;
            return Access::Miss;
        };
        let meta = self.ways[at + 1];
        let first_use = meta & PREFETCHED != 0;
        let dirty = (meta & DIRTY) | if is_store { DIRTY } else { 0 };
        self.ways[at + 1] = (self.stamp << STAMP_SHIFT) | dirty;
        self.stats.hits += 1;
        if first_use {
            self.stats.prefetch_useful += 1;
        }
        Access::Hit {
            first_use_of_prefetch: first_use,
        }
    }

    /// Whether `line` is currently resident (no LRU/stat side effects).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_index(line), line).is_some()
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim's address if it was dirty (the caller owes a writeback).
    ///
    /// `dirty` marks the fill itself dirty (store miss); `prefetched` tags
    /// the line for prefetch-accuracy accounting.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<LineAddr> {
        self.stamp += 1;
        let stamp = self.stamp << STAMP_SHIFT;
        let dirty = if dirty { DIRTY } else { 0 };
        let idx = self.set_index(line);

        // Already present (e.g. a demand fill racing a prefetch fill):
        // merge flags rather than duplicating the line.
        if let Some(at) = self.find(idx, line) {
            let flags = self.ways[at + 1] & (DIRTY | PREFETCHED);
            self.ways[at + 1] = stamp | flags | dirty;
            return None;
        }

        let base = self.set_base(idx);
        let n = self.filled[idx] as usize;
        let mut writeback = None;
        let at = if n < self.assoc {
            self.filled[idx] += 1;
            base + 2 * n
        } else {
            // Full: evict the least-recent way. Stamps are unique, so the
            // smallest meta word is the smallest stamp.
            let set = &self.ways[base..base + 2 * self.assoc];
            let (w, _) = set
                .chunks_exact(2)
                .enumerate()
                .min_by_key(|(_, way)| way[1])
                .expect("ways > 0 by construction");
            let at = base + 2 * w;
            let victim = self.ways[at + 1];
            if victim & PREFETCHED != 0 {
                self.stats.prefetch_unused += 1;
            }
            if victim & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(LineAddr(self.ways[at]));
            }
            at
        };
        self.ways[at] = line.0;
        self.ways[at + 1] = stamp | dirty | if prefetched { PREFETCHED } else { 0 };
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
        assert_eq!(cache.ways.len(), 2 * 16_384 * 16);
        assert_eq!(cache.filled.len(), 16_384);
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
